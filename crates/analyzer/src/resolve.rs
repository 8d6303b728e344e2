//! Name resolution and correlation discovery.

use crate::error::AnalyzeError;
use crate::Result;
use nsql_sql::{ColumnRef, Operand, Predicate, QueryBlock, ScalarExpr};
use nsql_types::Schema;

/// Source of table schemas (implemented by the catalog in `nsql-db`).
pub trait SchemaSource {
    /// Schema of `table`, if it exists. Column qualifiers in the returned
    /// schema are expected to equal `table`.
    fn table_schema(&self, table: &str) -> Option<Schema>;
}

impl<S: SchemaSource + ?Sized> SchemaSource for &S {
    fn table_schema(&self, table: &str) -> Option<Schema> {
        (**self).table_schema(table)
    }
}

/// Build the combined scope schema of a block's FROM clause: each table's
/// schema re-qualified by its effective name (alias if present), then
/// concatenated left to right.
pub fn block_schema<S: SchemaSource>(catalog: &S, block: &QueryBlock) -> Result<Schema> {
    let mut names = std::collections::HashSet::new();
    let mut schema = Schema::default();
    for tref in &block.from {
        let name = tref.effective_name();
        if !names.insert(name.to_string()) {
            return Err(AnalyzeError::DuplicateTableName(name.to_string()));
        }
        let table = catalog
            .table_schema(&tref.table)
            .ok_or_else(|| AnalyzeError::UnknownTable(tref.table.clone()))?;
        schema = schema.join(&table.requalify(name));
    }
    Ok(schema)
}

/// A resolver for one query block given its enclosing scopes.
///
/// `scopes[0]` is the block's own scope; later entries are enclosing blocks
/// from innermost to outermost. SQL scoping rule: a reference binds to the
/// nearest scope that can resolve it.
pub struct Resolver {
    scopes: Vec<Schema>,
}

impl Resolver {
    /// Resolver over the given scope chain (innermost first).
    pub fn new(scopes: Vec<Schema>) -> Resolver {
        Resolver { scopes }
    }

    /// Push an inner scope (returns a new resolver for a child block).
    pub fn child(&self, inner: Schema) -> Resolver {
        let mut scopes = Vec::with_capacity(self.scopes.len() + 1);
        scopes.push(inner);
        scopes.extend(self.scopes.iter().cloned());
        Resolver { scopes }
    }

    /// The scope depth at which `col` resolves: 0 = local, 1 = immediate
    /// outer, etc. Errors if it resolves nowhere or is ambiguous at the
    /// binding scope.
    pub fn binding_depth(&self, col: &ColumnRef) -> Result<usize> {
        for (depth, scope) in self.scopes.iter().enumerate() {
            match scope.resolve(col.table.as_deref(), &col.column) {
                Ok(_) => return Ok(depth),
                Err(nsql_types::TypeError::AmbiguousColumn(c)) => {
                    return Err(AnalyzeError::AmbiguousColumn(c))
                }
                Err(_) => continue,
            }
        }
        Err(AnalyzeError::UnresolvedColumn(col.to_string()))
    }
}

/// Collect the column references appearing at *this block's level*: SELECT
/// items, GROUP BY / ORDER BY keys, and WHERE operands — but not inside
/// nested subquery blocks, which form their own scopes.
pub fn level_column_refs(block: &QueryBlock) -> Vec<&ColumnRef> {
    let mut out = Vec::new();
    for item in &block.select {
        match &item.expr {
            ScalarExpr::Column(c) => out.push(c),
            ScalarExpr::Aggregate(_, nsql_sql::AggArg::Column(c)) => out.push(c),
            _ => {}
        }
    }
    if let Some(p) = &block.where_clause {
        collect_pred_refs(p, &mut out);
    }
    out.extend(block.group_by.iter());
    out.extend(block.order_by.iter().map(|k| &k.column));
    out
}

/// Column references appearing in one predicate (this level only; nested
/// subquery blocks are *not* entered).
pub fn predicate_column_refs(p: &Predicate) -> Vec<&ColumnRef> {
    let mut out = Vec::new();
    collect_pred_refs(p, &mut out);
    out
}

fn collect_pred_refs<'a>(p: &'a Predicate, out: &mut Vec<&'a ColumnRef>) {
    match p {
        Predicate::And(ps) | Predicate::Or(ps) => {
            for q in ps {
                collect_pred_refs(q, out);
            }
        }
        Predicate::Not(q) => collect_pred_refs(q, out),
        Predicate::Compare { left, right, .. } => {
            collect_operand_refs(left, out);
            collect_operand_refs(right, out);
        }
        Predicate::In { operand, .. } => collect_operand_refs(operand, out),
        Predicate::Quantified { left, .. } => collect_operand_refs(left, out),
        Predicate::IsNull { operand, .. } => collect_operand_refs(operand, out),
        Predicate::Exists { .. } => {}
    }
}

fn collect_operand_refs<'a>(o: &'a Operand, out: &mut Vec<&'a ColumnRef>) {
    if let Operand::Column(c) = o {
        out.push(c);
    }
}

/// The column references at `block`'s level that do **not** resolve in the
/// block's own FROM scope — i.e. the correlated (outer) references. These
/// are what make a nested predicate type-J/JA rather than type-N/A.
pub fn outer_column_refs<S: SchemaSource>(
    catalog: &S,
    block: &QueryBlock,
) -> Result<Vec<ColumnRef>> {
    let local = block_schema(catalog, block)?;
    let mut out = Vec::new();
    for c in level_column_refs(block) {
        match local.resolve(c.table.as_deref(), &c.column) {
            Ok(_) => {}
            Err(nsql_types::TypeError::AmbiguousColumn(name)) => {
                return Err(AnalyzeError::AmbiguousColumn(name))
            }
            Err(_) => out.push(c.clone()),
        }
    }
    Ok(out)
}

/// Fully validate a query: every table exists, every column reference binds
/// in some scope, and aggregate arguments are local. Returns the block's
/// scope schema on success.
pub fn validate_query<S: SchemaSource>(catalog: &S, block: &QueryBlock) -> Result<Schema> {
    validate_block(catalog, block, &Resolver::new(Vec::new()))
}

fn validate_block<S: SchemaSource>(
    catalog: &S,
    block: &QueryBlock,
    outer: &Resolver,
) -> Result<Schema> {
    let local = block_schema(catalog, block)?;
    let resolver = outer.child(local.clone());
    for c in level_column_refs(block) {
        resolver.binding_depth(c)?;
    }
    for inner in block.child_blocks() {
        validate_block(catalog, inner, &resolver)?;
    }
    Ok(local)
}

#[cfg(test)]
pub(crate) mod test_catalog {
    use super::SchemaSource;
    use nsql_types::{ColumnType, Schema};
    use std::collections::HashMap;

    /// The paper's two example databases as a schema-only catalog.
    pub struct PaperCatalog {
        tables: HashMap<String, Schema>,
    }

    impl PaperCatalog {
        pub fn new() -> PaperCatalog {
            use ColumnType::*;
            let mut tables = HashMap::new();
            tables.insert(
                "S".into(),
                Schema::of_table(
                    "S",
                    &[("SNO", Str), ("SNAME", Str), ("STATUS", Int), ("CITY", Str)],
                ),
            );
            tables.insert(
                "P".into(),
                Schema::of_table(
                    "P",
                    &[("PNO", Str), ("PNAME", Str), ("COLOR", Str), ("WEIGHT", Int), ("CITY", Str)],
                ),
            );
            tables.insert(
                "SP".into(),
                Schema::of_table(
                    "SP",
                    &[("SNO", Str), ("PNO", Str), ("QTY", Int), ("ORIGIN", Str)],
                ),
            );
            tables.insert(
                "PARTS".into(),
                Schema::of_table("PARTS", &[("PNUM", Int), ("QOH", Int)]),
            );
            tables.insert(
                "SUPPLY".into(),
                Schema::of_table(
                    "SUPPLY",
                    &[("PNUM", Int), ("QUAN", Int), ("SHIPDATE", ColumnType::Date)],
                ),
            );
            PaperCatalog { tables }
        }
    }

    impl SchemaSource for PaperCatalog {
        fn table_schema(&self, table: &str) -> Option<Schema> {
            self.tables.get(&table.to_ascii_uppercase()).cloned()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_catalog::PaperCatalog;
    use super::*;
    use nsql_sql::parse_query;

    #[test]
    fn block_schema_concatenates_and_aliases() {
        let cat = PaperCatalog::new();
        let q = parse_query("SELECT X.SNO FROM SP X, P").unwrap();
        let s = block_schema(&cat, &q).unwrap();
        assert_eq!(s.arity(), 4 + 5);
        assert!(s.resolve(Some("X"), "QTY").is_ok());
        assert!(s.resolve(Some("SP"), "QTY").is_err(), "alias replaces table name");
    }

    #[test]
    fn duplicate_from_names_rejected() {
        let cat = PaperCatalog::new();
        let q = parse_query("SELECT SNO FROM SP, SP").unwrap();
        assert!(matches!(
            block_schema(&cat, &q),
            Err(AnalyzeError::DuplicateTableName(_))
        ));
        let ok = parse_query("SELECT A.SNO FROM SP A, SP B").unwrap();
        assert!(block_schema(&cat, &ok).is_ok());
    }

    #[test]
    fn correlated_refs_found_in_type_j_query() {
        // Query (4): inner references S.CITY, S not in inner FROM.
        let cat = PaperCatalog::new();
        let q = parse_query(
            "SELECT SNAME FROM S WHERE SNO IS IN \
             (SELECT SNO FROM SP WHERE QTY > 100 AND SP.ORIGIN = S.CITY)",
        )
        .unwrap();
        let Some(nsql_sql::Predicate::In {
            rhs: nsql_sql::InRhs::Subquery(inner), ..
        }) = &q.where_clause
        else {
            panic!()
        };
        let outer = outer_column_refs(&cat, inner).unwrap();
        assert_eq!(outer, vec![ColumnRef::qualified("S", "CITY")]);
    }

    #[test]
    fn uncorrelated_inner_has_no_outer_refs() {
        let cat = PaperCatalog::new();
        let q = parse_query("SELECT SNO FROM SP WHERE PNO IN (SELECT PNO FROM P WHERE WEIGHT > 50)")
            .unwrap();
        let Some(nsql_sql::Predicate::In {
            rhs: nsql_sql::InRhs::Subquery(inner), ..
        }) = &q.where_clause
        else {
            panic!()
        };
        assert!(outer_column_refs(&cat, inner).unwrap().is_empty());
    }

    #[test]
    fn validate_accepts_paper_queries() {
        let cat = PaperCatalog::new();
        for src in [
            "SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE PNO = 'P2')",
            "SELECT SNO FROM SP WHERE PNO = (SELECT MAX(PNO) FROM P)",
            "SELECT PNAME FROM P WHERE PNO = (SELECT MAX(PNO) FROM SP WHERE SP.ORIGIN = P.CITY)",
            "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY \
             WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)",
        ] {
            validate_query(&cat, &parse_query(src).unwrap())
                .unwrap_or_else(|e| panic!("{src}: {e}"));
        }
    }

    #[test]
    fn validate_rejects_unknown_names() {
        let cat = PaperCatalog::new();
        let q = parse_query("SELECT SNO FROM NOPE").unwrap();
        assert!(matches!(validate_query(&cat, &q), Err(AnalyzeError::UnknownTable(_))));
        let q = parse_query("SELECT WAT FROM SP").unwrap();
        assert!(matches!(validate_query(&cat, &q), Err(AnalyzeError::UnresolvedColumn(_))));
        let q = parse_query("SELECT SP.SNO FROM SP WHERE X.Y = 1").unwrap();
        assert!(matches!(validate_query(&cat, &q), Err(AnalyzeError::UnresolvedColumn(_))));
    }

    /// A block in an operand position is validated like any other.
    #[test]
    fn validate_enters_operand_position_blocks() {
        let cat = PaperCatalog::new();
        for src in [
            "SELECT PNUM FROM PARTS WHERE (SELECT MAX(NOCOL) FROM SUPPLY) IS NULL",
            "SELECT PNUM FROM PARTS WHERE (SELECT MAX(NOCOL) FROM SUPPLY) IN (1, 2)",
            "SELECT PNUM FROM PARTS WHERE (SELECT MAX(NOCOL) FROM SUPPLY) < ANY (SELECT QUAN FROM SUPPLY)",
        ] {
            let e = validate_query(&cat, &parse_query(src).unwrap());
            assert!(matches!(e, Err(AnalyzeError::UnresolvedColumn(_))), "{src}: {e:?}");
        }
    }

    #[test]
    fn validate_rejects_ambiguity() {
        let cat = PaperCatalog::new();
        // SNO is in both S and SP.
        let q = parse_query("SELECT SNO FROM S, SP").unwrap();
        assert!(matches!(validate_query(&cat, &q), Err(AnalyzeError::AmbiguousColumn(_))));
    }

    #[test]
    fn validate_handles_deep_nesting() {
        let cat = PaperCatalog::new();
        let q = parse_query(
            "SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE PNO IN \
             (SELECT PNO FROM P WHERE P.CITY = S.CITY))",
        )
        .unwrap();
        validate_query(&cat, &q).unwrap();
    }

    #[test]
    fn binding_depth_prefers_nearest_scope() {
        let cat = PaperCatalog::new();
        let outer_q = parse_query("SELECT SNO FROM SP").unwrap();
        let inner_q = parse_query("SELECT PNO FROM P").unwrap();
        let outer_scope = block_schema(&cat, &outer_q).unwrap();
        let inner_scope = block_schema(&cat, &inner_q).unwrap();
        let r = Resolver::new(vec![outer_scope]).child(inner_scope);
        // PNO exists in both P (local) and SP (outer): binds locally.
        assert_eq!(r.binding_depth(&ColumnRef::bare("PNO")).unwrap(), 0);
        assert_eq!(r.binding_depth(&ColumnRef::bare("QTY")).unwrap(), 1);
        assert_eq!(r.binding_depth(&ColumnRef::qualified("SP", "PNO")).unwrap(), 1);
    }
}
