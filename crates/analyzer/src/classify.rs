//! Kim's nesting-type classification (Section 2 of the paper).

use crate::resolve::predicate_column_refs;
use nsql_sql::{AggArg, ColumnRef, QueryBlock, ScalarExpr};
use std::fmt;

/// The four nesting types relevant to the paper (Kim's fifth, type-D —
/// division — is out of scope for both papers' algorithms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NestingType {
    /// Inner block is uncorrelated and its SELECT is an aggregate: the
    /// inner block evaluates to one constant, independent of the outer
    /// block (Section 2.1).
    TypeA,
    /// Inner block is uncorrelated and its SELECT has no aggregate: the
    /// inner block evaluates to a list of values (Section 2.2).
    TypeN,
    /// Inner block has a correlated join predicate and no aggregate in its
    /// SELECT (Section 2.3).
    TypeJ,
    /// Inner block has a correlated join predicate and its SELECT is an
    /// aggregate (Section 2.4) — the case Kim's NEST-JA mishandles and
    /// NEST-JA2 fixes.
    TypeJA,
}

impl fmt::Display for NestingType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NestingType::TypeA => "type-A",
            NestingType::TypeN => "type-N",
            NestingType::TypeJ => "type-J",
            NestingType::TypeJA => "type-JA",
        };
        f.write_str(s)
    }
}

/// Classify an inner query block the analyzer has qualified
/// ([`Analyzed`](crate::Analyzed)).
///
/// The classification needs only the inner block itself: correlation is "a
/// join predicate which references a relation … not mentioned in the inner
/// FROM clause" ([`block_is_correlated`]), and aggregation is a property of
/// the inner SELECT clause.
pub fn classify_inner(inner: &QueryBlock) -> NestingType {
    match (block_is_correlated(inner), inner.has_aggregate_select()) {
        (false, false) => NestingType::TypeN,
        (false, true) => NestingType::TypeA,
        (true, false) => NestingType::TypeJ,
        (true, true) => NestingType::TypeJA,
    }
}

/// Whether a qualified block refers, in its WHERE or SELECT clause (nested
/// blocks not entered), to a relation its own FROM clause does not name:
/// every reference carries the effective name of the entry it binds to, so
/// one whose qualifier is not a name of this FROM clause binds outside it.
pub fn block_is_correlated(q: &QueryBlock) -> bool {
    let names = q.from_names();
    let is_outer = |c: &ColumnRef| !c.table.as_deref().is_some_and(|t| names.contains(&t));
    if let Some(p) = &q.where_clause {
        if predicate_column_refs(p).into_iter().any(&is_outer) {
            return true;
        }
    }
    q.select.iter().any(|item| match &item.expr {
        ScalarExpr::Column(c) => is_outer(c),
        ScalarExpr::Aggregate(_, AggArg::Column(c)) => is_outer(c),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::test_catalog::PaperCatalog;
    use nsql_sql::{parse_query, InRhs, Operand, Predicate};

    /// The first nested block of `src`, qualified.
    fn inner_of(src: &str) -> QueryBlock {
        let q = crate::analyze(&PaperCatalog::new(), &parse_query(src).unwrap()).unwrap();
        match q.into_block().where_clause.unwrap() {
            Predicate::In { rhs: InRhs::Subquery(b), .. } => *b,
            Predicate::Compare { right: Operand::Subquery(b), .. } => *b,
            other => panic!("no subquery in {other:?}"),
        }
    }

    #[test]
    fn classifies_paper_examples() {
        // Query (2): type-A.
        let a = inner_of("SELECT SNO FROM SP WHERE PNO = (SELECT MAX(PNO) FROM P)");
        assert_eq!(classify_inner(&a), NestingType::TypeA);
        // Query (3): type-N.
        let n = inner_of(
            "SELECT SNO FROM SP WHERE PNO IS IN (SELECT PNO FROM P WHERE WEIGHT > 50)",
        );
        assert_eq!(classify_inner(&n), NestingType::TypeN);
        // Query (4): type-J.
        let j = inner_of(
            "SELECT SNAME FROM S WHERE SNO IS IN \
             (SELECT SNO FROM SP WHERE QTY > 100 AND SP.ORIGIN = S.CITY)",
        );
        assert_eq!(classify_inner(&j), NestingType::TypeJ);
        // Query (5): type-JA.
        let ja = inner_of(
            "SELECT PNAME FROM P WHERE PNO = \
             (SELECT MAX(PNO) FROM SP WHERE SP.ORIGIN = P.CITY)",
        );
        assert_eq!(classify_inner(&ja), NestingType::TypeJA);
    }

    #[test]
    fn kiessling_q2_is_type_ja() {
        let inner = inner_of(
            "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY \
             WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)",
        );
        assert_eq!(classify_inner(&inner), NestingType::TypeJA);
    }

    /// A block whose FROM entry reuses an enclosing name still reads as
    /// correlated: the analyzer renamed the entry apart.
    #[test]
    fn a_shadowing_block_is_correlated() {
        for src in [
            "SELECT X.PNUM FROM PARTS X WHERE X.PNUM IN \
             (SELECT X.PNUM FROM SUPPLY X WHERE QUAN = QOH)",
            "SELECT X.PNUM FROM PARTS X WHERE 1 = \
             (SELECT COUNT(QUAN) FROM SUPPLY X WHERE QUAN = QOH)",
            "SELECT X.PNUM FROM PARTS X WHERE QOH = \
             (SELECT MAX(QUAN) FROM SUPPLY X WHERE QUAN <= QOH)",
        ] {
            assert!(block_is_correlated(&inner_of(src)), "{src}");
        }
        let src = "SELECT X.PNUM FROM PARTS X WHERE EXISTS \
                   (SELECT QUAN FROM SUPPLY X WHERE QUAN = QOH)";
        let q = crate::analyze(&PaperCatalog::new(), &parse_query(src).unwrap()).unwrap();
        assert!(block_is_correlated(q.block().child_blocks()[0]), "{src}");
    }

    #[test]
    fn unqualified_correlation_detected() {
        // ORIGIN belongs to SP; inner FROM has only P, so the bare ORIGIN
        // must be recognised as an outer reference.
        let inner = inner_of(
            "SELECT SNO FROM SP WHERE PNO IN (SELECT PNO FROM P WHERE CITY = ORIGIN)",
        );
        assert_eq!(classify_inner(&inner), NestingType::TypeJ);
    }
}
