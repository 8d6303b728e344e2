//! Name resolution: the one walk that binds every column reference of a
//! statement.
//!
//! [`analyze`] walks the statement once, over one borrowed stack of scope
//! schemas: it pushes a block's FROM scope, binds each reference of the
//! block to the nearest scope that resolves it (SQL's rule), enters the
//! blocks nested in its WHERE clause, and pops the scope again. Each
//! reference is rewritten to carry the effective name of the FROM entry it
//! binds to, so that what comes after — classification, the NEST-G
//! transformation, EXPLAIN's query tree — reads correlation off the
//! qualifiers and never looks a schema up again.

use crate::error::AnalyzeError;
use crate::Result;
use nsql_sql::{AggArg, ColumnRef, InRhs, Operand, Predicate, QueryBlock, ScalarExpr};
use nsql_types::{Schema, TypeError};

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

/// A statement the analyzer has resolved: a copy of the block in which
/// every column reference carries the effective name of the FROM entry it
/// binds to — but an ORDER BY key that names a select alias, which the
/// SELECT phase resolves — and the block's own scope schema.
#[derive(Debug, Clone)]
pub struct Analyzed {
    block: QueryBlock,
    schema: Schema,
}

impl Analyzed {
    /// The qualified block.
    pub fn block(&self) -> &QueryBlock {
        &self.block
    }

    /// The block's FROM scope: each table's schema qualified by its
    /// effective name, left to right.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The qualified block, by value.
    pub fn into_block(self) -> QueryBlock {
        self.block
    }
}

/// Resolve `block`: every table exists, no FROM clause names two entries
/// alike, and every column reference binds in some scope, unambiguously.
/// Errors come level by level: a block's FROM clause, then the references
/// of its SELECT, WHERE, GROUP BY and ORDER BY clauses, then its nested
/// blocks in evaluation order.
pub fn analyze<S: SchemaSource>(catalog: &S, block: &QueryBlock) -> Result<Analyzed> {
    let mut block = block.clone();
    let schema = walk(catalog, &mut block, &mut Vec::new())?;
    Ok(Analyzed { block, schema })
}

/// Validate a query as [`analyze`] does; its block's scope schema.
pub fn validate_query<S: SchemaSource>(catalog: &S, block: &QueryBlock) -> Result<Schema> {
    analyze(catalog, block).map(|a| a.schema)
}

/// Qualify `block` under the enclosing `scopes` (outermost first) and
/// return its own scope, which is on the stack only while it is walked.
fn walk<S: SchemaSource>(
    catalog: &S,
    block: &mut QueryBlock,
    scopes: &mut Vec<Schema>,
) -> Result<Schema> {
    scopes.push(block_schema(catalog, block)?);
    let walked = resolve_block(catalog, block, scopes);
    let local = scopes.pop().expect("pushed above");
    walked.map(|()| local)
}

fn resolve_block<S: SchemaSource>(
    catalog: &S,
    block: &mut QueryBlock,
    scopes: &mut Vec<Schema>,
) -> Result<()> {
    for item in &mut block.select {
        if let ScalarExpr::Column(c) | ScalarExpr::Aggregate(_, AggArg::Column(c)) = &mut item.expr
        {
            bind(scopes, c)?;
        }
    }
    if let Some(w) = &mut block.where_clause {
        each_site(w, &mut |site| match site {
            Site::Column(c) => bind(scopes, c),
            Site::Block(_) => Ok(()),
        })?;
    }
    for c in &mut block.group_by {
        bind(scopes, c)?;
    }
    for k in &mut block.order_by {
        // A key no scope resolves may name a select alias: the SELECT phase
        // orders by output columns.
        let alias = |c: &ColumnRef| {
            c.table.is_none()
                && block.select.iter().any(|i| {
                    i.alias.as_deref().is_some_and(|a| a.eq_ignore_ascii_case(&c.column))
                })
        };
        match bind(scopes, &mut k.column) {
            Err(AnalyzeError::UnresolvedColumn(_)) if alias(&k.column) => {}
            r => r?,
        }
    }
    if let Some(w) = &mut block.where_clause {
        each_site(w, &mut |site| match site {
            Site::Column(_) => Ok(()),
            Site::Block(inner) => walk(catalog, inner, scopes).map(drop),
        })?;
    }
    Ok(())
}

/// Bind `c` to the nearest scope that resolves it and qualify it with that
/// entry's effective name.
fn bind(scopes: &[Schema], c: &mut ColumnRef) -> Result<()> {
    for scope in scopes.iter().rev() {
        match scope.resolve(c.table.as_deref(), &c.column) {
            Ok(i) => {
                let table = &scope.columns()[i].table;
                if c.table != *table {
                    c.table.clone_from(table);
                }
                return Ok(());
            }
            Err(TypeError::AmbiguousColumn(n)) => return Err(AnalyzeError::AmbiguousColumn(n)),
            Err(_) => {}
        }
    }
    Err(AnalyzeError::UnresolvedColumn(c.to_string()))
}

/// A position of a WHERE clause at its block's level: a column reference
/// or a nested block.
enum Site<'a> {
    Column(&'a mut ColumnRef),
    Block(&'a mut QueryBlock),
}

/// Visit every site of `p`, in evaluation order, without entering nested
/// blocks.
fn each_site(p: &mut Predicate, f: &mut dyn FnMut(Site<'_>) -> Result<()>) -> Result<()> {
    fn operand(o: &mut Operand, f: &mut dyn FnMut(Site<'_>) -> Result<()>) -> Result<()> {
        match o {
            Operand::Column(c) => f(Site::Column(c)),
            Operand::Literal(_) => Ok(()),
            Operand::Subquery(q) => f(Site::Block(q)),
        }
    }
    match p {
        Predicate::And(ps) | Predicate::Or(ps) => ps.iter_mut().try_for_each(|q| each_site(q, f)),
        Predicate::Not(q) => each_site(q, f),
        Predicate::Compare { left, right, .. } => {
            operand(left, f)?;
            operand(right, f)
        }
        Predicate::In { operand: o, rhs, .. } => {
            operand(o, f)?;
            match rhs {
                InRhs::Subquery(q) => f(Site::Block(q)),
                InRhs::List(_) => Ok(()),
            }
        }
        Predicate::Exists { query, .. } => f(Site::Block(query)),
        Predicate::Quantified { left, query, .. } => {
            operand(left, f)?;
            f(Site::Block(query))
        }
        Predicate::IsNull { operand: o, .. } => operand(o, f),
    }
}

/// The combined scope schema of a block's FROM clause: each table's schema
/// re-qualified by its effective name (alias if present), then
/// concatenated left to right.
fn block_schema<S: SchemaSource>(catalog: &S, block: &QueryBlock) -> Result<Schema> {
    let mut schema = Schema::default();
    for (i, tref) in block.from.iter().enumerate() {
        let name = tref.effective_name();
        if block.from[..i].iter().any(|t| t.effective_name() == name) {
            return Err(AnalyzeError::DuplicateTableName(name.to_string()));
        }
        let table = catalog
            .table_schema(&tref.table)
            .ok_or_else(|| AnalyzeError::UnknownTable(tref.table.clone()))?;
        schema = schema.join(&table.requalify(name));
    }
    Ok(schema)
}

/// Collect the column references appearing at *this block's level*: SELECT
/// items, GROUP BY / ORDER BY keys, and WHERE operands — but not inside
/// nested subquery blocks, which form their own scopes.
pub fn level_column_refs(block: &QueryBlock) -> Vec<&ColumnRef> {
    let mut out = Vec::new();
    for item in &block.select {
        match &item.expr {
            ScalarExpr::Column(c) => out.push(c),
            ScalarExpr::Aggregate(_, AggArg::Column(c)) => out.push(c),
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
    use nsql_sql::{parse_query, print_query};

    fn qualified(src: &str) -> String {
        print_query(analyze(&PaperCatalog::new(), &parse_query(src).unwrap()).unwrap().block())
    }

    #[test]
    fn block_schema_concatenates_and_aliases() {
        let cat = PaperCatalog::new();
        let q = parse_query("SELECT X.SNO FROM SP X, P").unwrap();
        let s = block_schema(&cat, &q).unwrap();
        assert_eq!(s.arity(), 4 + 5);
        assert!(s.resolve(Some("X"), "QTY").is_ok());
        assert!(s.resolve(Some("SP"), "QTY").is_err(), "alias replaces table name");
        assert_eq!(analyze(&cat, &q).unwrap().schema(), &s);
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
    fn qualifies_bare_refs_to_binding_table() {
        let printed = qualified(
            "SELECT PNUM FROM PARTS WHERE QOH = \
             (SELECT COUNT(SHIPDATE) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)",
        );
        assert!(printed.starts_with("SELECT PARTS.PNUM FROM PARTS WHERE PARTS.QOH ="), "{printed}");
        assert!(printed.contains("COUNT(SUPPLY.SHIPDATE)"), "{printed}");
        assert!(printed.contains("SUPPLY.SHIPDATE < DATE '1980-01-01'"), "{printed}");
    }

    /// A reference binds to the nearest scope that resolves it: `PNO` is in
    /// both `P` (local) and `SP` (outer), `QTY` only in `SP`.
    #[test]
    fn the_nearest_scope_binds() {
        let printed = qualified(
            "SELECT SNO FROM SP WHERE PNO IN (SELECT PNO FROM P WHERE WEIGHT = QTY AND SP.PNO = PNO)",
        );
        assert!(
            printed.ends_with("(SELECT P.PNO FROM P WHERE P.WEIGHT = SP.QTY AND SP.PNO = P.PNO)"),
            "{printed}"
        );
    }

    #[test]
    fn alias_becomes_qualifier() {
        assert_eq!(
            qualified("SELECT X.PNUM FROM PARTS X WHERE QOH > 1"),
            "SELECT X.PNUM FROM PARTS X WHERE X.QOH > 1"
        );
    }

    /// An ORDER BY key no scope resolves stays as written when it names a
    /// select alias; the SELECT phase orders by it.
    #[test]
    fn order_by_keys_bind_to_a_scope_or_name_an_alias() {
        assert_eq!(
            qualified("SELECT PNUM AS X FROM PARTS ORDER BY X, QOH"),
            "SELECT PARTS.PNUM AS X FROM PARTS ORDER BY X, PARTS.QOH"
        );
        let cat = PaperCatalog::new();
        for src in ["SELECT PNUM AS X FROM PARTS ORDER BY Y", "SELECT PNUM AS X FROM PARTS ORDER BY T.X"]
        {
            let e = validate_query(&cat, &parse_query(src).unwrap());
            assert!(matches!(e, Err(AnalyzeError::UnresolvedColumn(_))), "{src}: {e:?}");
        }
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

    /// A block's own references are checked before the blocks nested in it.
    #[test]
    fn errors_come_level_by_level() {
        let cat = PaperCatalog::new();
        let q = parse_query(
            "SELECT SNO FROM SP WHERE PNO IN (SELECT PNO FROM NOPE) AND WAT = 1",
        )
        .unwrap();
        assert_eq!(validate_query(&cat, &q), Err(AnalyzeError::UnresolvedColumn("WAT".into())));
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
        let printed = qualified(
            "SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE PNO IN \
             (SELECT PNO FROM P WHERE P.CITY = S.CITY))",
        );
        assert!(printed.ends_with("(SELECT P.PNO FROM P WHERE P.CITY = S.CITY))"), "{printed}");
    }
}
