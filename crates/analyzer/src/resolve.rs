//! Name resolution: the one walk that binds every column reference of a
//! statement.
//!
//! [`analyze`] walks the statement once, over one borrowed stack of scope
//! schemas: it pushes a block's FROM scope, binds each reference of the
//! block to the nearest scope that resolves it (SQL's rule), enters the
//! blocks nested in its WHERE clause, and pops the scope again. Each
//! reference is rewritten to carry the effective name of the FROM entry it
//! binds to, so that what comes after — classification, the NEST-G
//! transformation, nested iteration, EXPLAIN's query tree — reads
//! correlation off the qualifiers and never looks a schema up again.
//!
//! A qualifier is a binding: no two scopes of one chain share a name. A FROM
//! entry whose effective name an enclosing scope already binds gets a fresh
//! alias (`X` → `X_1`), and the references that bind to it are qualified
//! with that alias; names the statement wrote still resolve as written. The
//! names the chain binds are kept with the walk, counted per name past the
//! first few, so the check is linear. Siblings and the top level keep their
//! names.

use crate::error::AnalyzeError;
use crate::Result;
use nsql_sql::{AggArg, ColumnRef, InRhs, Operand, Predicate, QueryBlock, ScalarExpr, TableRef};
use nsql_types::{FxHashMap, Schema, TypeError};

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
/// alike, and every column reference binds in some scope, unambiguously. A
/// nested FROM entry named as an enclosing one is renamed apart (see the
/// module docs). Errors come level by level: a block's FROM clause, then the references
/// of its SELECT, WHERE, GROUP BY and ORDER BY clauses, then its nested
/// blocks in evaluation order.
pub fn analyze<S: SchemaSource>(catalog: &S, block: &QueryBlock) -> Result<Analyzed> {
    let mut block = block.clone();
    let schema = walk(catalog, &mut block, &mut Chain::default())?;
    Ok(Analyzed { block, schema })
}

/// Validate a query as [`analyze`] does; its block's scope schema.
pub fn validate_query<S: SchemaSource>(catalog: &S, block: &QueryBlock) -> Result<Schema> {
    analyze(catalog, block).map(|a| a.schema)
}

/// The scopes enclosing the block being walked, outermost first, and the
/// names their FROM entries bind.
#[derive(Default)]
struct Chain {
    scopes: Vec<Scope>,
    /// The bound names as a stack, in walk order, each by a case-folded hash
    /// so that a lookup allocates nothing: the first `NEAR` in place, which
    /// a short chain never leaves, and per name how many of the rest bind it.
    /// Two names whose hashes meet count as one, which can only rename an
    /// entry that did not need it.
    near: [u64; NEAR],
    far: FxHashMap<u64, u32>,
    depth: usize,
}

/// Bound names a chain holds without allocating.
const NEAR: usize = 8;

impl Chain {
    fn key(name: &str) -> u64 {
        name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b.to_ascii_uppercase())).wrapping_mul(0x100_0000_01b3)
        })
    }

    fn binds(&self, name: &str) -> bool {
        let key = Chain::key(name);
        self.near[..self.depth.min(NEAR)].contains(&key) || self.far.contains_key(&key)
    }

    /// Push the names of a FROM clause.
    fn enter(&mut self, from: &[TableRef]) {
        for t in from {
            let key = Chain::key(t.effective_name());
            match self.near.get_mut(self.depth) {
                Some(slot) => *slot = key,
                None => *self.far.entry(key).or_default() += 1,
            }
            self.depth += 1;
        }
    }

    /// Pop them again.
    fn leave(&mut self, from: &[TableRef]) {
        for t in from.iter().rev() {
            self.depth -= 1;
            if self.depth >= NEAR {
                let key = Chain::key(t.effective_name());
                match self.far.get_mut(&key) {
                    Some(n) if *n > 1 => *n -= 1,
                    _ => {
                        self.far.remove(&key);
                    }
                }
            }
        }
    }
}

/// One block's FROM scope.
struct Scope {
    /// Each table's schema qualified by the name the statement wrote.
    schema: Schema,
    /// `(written, bound)`: the entries renamed apart from an enclosing
    /// scope, by the name references write and the name they are given.
    renamed: Vec<(String, String)>,
}

/// Qualify `block` under the enclosing `chain` and return its own scope,
/// which is on the chain only while it is walked.
fn walk<S: SchemaSource>(catalog: &S, block: &mut QueryBlock, chain: &mut Chain) -> Result<Schema> {
    let schema = block_schema(catalog, block)?;
    let renamed = rename_shadowing(block, chain);
    chain.enter(&block.from);
    chain.scopes.push(Scope { schema, renamed });
    let walked = resolve_block(catalog, block, chain);
    let local = chain.scopes.pop().expect("pushed above");
    chain.leave(&block.from);
    walked.map(|()| local.schema)
}

/// Give each FROM entry of `block` whose effective name the `chain` binds
/// the first free alias `NAME_n` — one the chain does not bind and no entry
/// of this FROM clause is named — and return the renames.
fn rename_shadowing(block: &mut QueryBlock, chain: &Chain) -> Vec<(String, String)> {
    let mut renamed = Vec::new();
    for i in 0..block.from.len() {
        if !chain.binds(block.from[i].effective_name()) {
            continue;
        }
        let written = block.from[i].effective_name().to_ascii_uppercase();
        let taken = |name: &str| {
            chain.binds(name)
                || block.from.iter().any(|t| t.effective_name().eq_ignore_ascii_case(name))
        };
        let fresh = (1..).map(|n| format!("{written}_{n}")).find(|n| !taken(n)).expect("some n");
        block.from[i].alias = Some(fresh.clone());
        renamed.push((written, fresh));
    }
    renamed
}

fn resolve_block<S: SchemaSource>(
    catalog: &S,
    block: &mut QueryBlock,
    chain: &mut Chain,
) -> Result<()> {
    let scopes = &chain.scopes;
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
            Site::Block(inner) => walk(catalog, inner, chain).map(drop),
        })?;
    }
    Ok(())
}

/// Bind `c` to the nearest scope that resolves it, by the names the
/// statement wrote, and qualify it with the name that entry is bound by.
fn bind(scopes: &[Scope], c: &mut ColumnRef) -> Result<()> {
    for scope in scopes.iter().rev() {
        match scope.schema.resolve(c.table.as_deref(), &c.column) {
            Ok(i) => {
                let written = scope.schema.columns()[i].table.as_deref().unwrap_or_default();
                let renamed = scope.renamed.iter().find(|(w, _)| w.eq_ignore_ascii_case(written));
                let table = renamed.map_or(written, |(_, bound)| bound.as_str());
                if c.table.as_deref() != Some(table) {
                    c.table = Some(table.to_string());
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

    /// An inner FROM entry named as an enclosing one is renamed apart, and
    /// the references that bind to it follow; one that binds outside it
    /// keeps the enclosing name.
    #[test]
    fn a_shadowing_entry_is_renamed_and_its_references_follow() {
        assert_eq!(
            qualified(
                "SELECT X.PNUM FROM PARTS X WHERE QOH = \
                 (SELECT MAX(QUAN) FROM SUPPLY X WHERE X.PNUM = 3 AND QUAN <= QOH)",
            ),
            "SELECT X.PNUM FROM PARTS X WHERE X.QOH = (SELECT MAX(X_1.QUAN) FROM SUPPLY X_1 \
             WHERE X_1.PNUM = 3 AND X_1.QUAN <= X.QOH)"
        );
        // Unaliased, the table name is the one renamed.
        assert_eq!(
            qualified(
                "SELECT PNUM FROM PARTS WHERE PNUM IN (SELECT PNUM FROM PARTS WHERE QOH > 1)"
            ),
            "SELECT PARTS.PNUM FROM PARTS WHERE PARTS.PNUM IN \
             (SELECT PARTS_1.PNUM FROM PARTS PARTS_1 WHERE PARTS_1.QOH > 1)"
        );
    }

    /// The fresh name is one no scope of the chain binds and no entry of the
    /// FROM clause is named; a third level reusing the name gets the next
    /// one, and its references bind to the nearest scope by the written
    /// name.
    #[test]
    fn fresh_names_avoid_the_chain_and_the_from_clause() {
        let printed = qualified(
            "SELECT X.PNUM FROM PARTS X, SUPPLY X_1 WHERE X.QOH IN \
             (SELECT X.PNUM FROM PARTS X WHERE X.PNUM IN \
              (SELECT X.PNUM FROM SUPPLY X WHERE X.QUAN = X_1.QUAN))",
        );
        assert!(printed.contains("(SELECT X_2.PNUM FROM PARTS X_2 WHERE X_2.PNUM IN"), "{printed}");
        assert!(
            printed.ends_with("(SELECT X_3.PNUM FROM SUPPLY X_3 WHERE X_3.QUAN = X_1.QUAN))"),
            "{printed}"
        );
        let printed = qualified(
            "SELECT X.PNUM FROM PARTS X WHERE X.QOH IN (SELECT X.QUAN FROM SUPPLY X, PARTS X_1)",
        );
        assert!(printed.ends_with("(SELECT X_2.QUAN FROM SUPPLY X_2, PARTS X_1)"), "{printed}");
    }

    /// Past the names a chain holds in place: thirteen levels that each
    /// reuse `X` are `X`, `X_1`, …, `X_12`, and a sibling of the third level,
    /// walked after the chain below it has been left, is `X_2` again.
    #[test]
    fn a_deep_chain_of_one_name_is_renamed_level_by_level() {
        let mut src = String::new();
        for _ in 0..12 {
            src.push_str("SELECT X.PNUM FROM PARTS X WHERE X.QOH IN (");
        }
        src.push_str("SELECT X.PNUM FROM PARTS X");
        src.push_str(&")".repeat(11));
        src.push_str(" AND X.PNUM IN (SELECT X.PNUM FROM SUPPLY X WHERE X.QUAN = X.QOH))");
        let printed = qualified(&src);
        for n in 1..=11 {
            assert!(printed.contains(&format!("FROM PARTS X_{n} WHERE X_{n}.QOH IN")), "{printed}");
        }
        assert!(printed.contains("FROM PARTS X_12)"), "{printed}");
        assert!(
            printed.ends_with("(SELECT X_2.PNUM FROM SUPPLY X_2 WHERE X_2.QUAN = X_1.QOH))"),
            "{printed}"
        );
    }

    /// Siblings and the top level keep their names: figure 2 reuses `P` in
    /// two sibling blocks.
    #[test]
    fn siblings_and_the_top_level_keep_their_names() {
        let src = "SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE PNO IN \
                   (SELECT PNO FROM P WHERE P.CITY = S.CITY)) AND CITY IN (SELECT CITY FROM P)";
        let printed = qualified(src);
        assert_eq!(
            printed,
            "SELECT S.SNAME FROM S WHERE S.SNO IN (SELECT SP.SNO FROM SP WHERE SP.PNO IN \
             (SELECT P.PNO FROM P WHERE P.CITY = S.CITY)) AND S.CITY IN (SELECT P.CITY FROM P)"
        );
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
