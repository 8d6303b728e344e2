//! Column and schema descriptions, with qualified-name resolution.

use crate::error::TypeError;
use crate::value::Value;
use std::fmt;

/// The static type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// Variable-length string.
    Str,
    /// Calendar date.
    Date,
    /// Boolean (internal).
    Bool,
}

impl ColumnType {
    /// Whether values of the two types compare under [`Value::sql_cmp`]
    /// without a type error, and order there as they do under
    /// [`Value::total_cmp`]: the numeric tower is one comparison class,
    /// every other type only matches itself.
    pub fn same_class(self, other: ColumnType) -> bool {
        let class = |t: ColumnType| match t {
            ColumnType::Int | ColumnType::Float => 0u8,
            ColumnType::Str => 1,
            ColumnType::Date => 2,
            ColumnType::Bool => 3,
        };
        class(self) == class(other)
    }

    /// Whether `v` is non-`NULL` and of this type's comparison class.
    /// Heap files do not enforce their schema, so code that relies on a
    /// column's class (index bounds, join-key hashing) checks per value.
    pub fn admits(self, v: &Value) -> bool {
        v.column_type().is_some_and(|ty| self.same_class(ty))
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::Int => "INT",
            ColumnType::Float => "FLOAT",
            ColumnType::Str => "STRING",
            ColumnType::Date => "DATE",
            ColumnType::Bool => "BOOL",
        };
        f.write_str(s)
    }
}

/// One column of a schema: an optional table qualifier plus a name.
///
/// Qualifiers matter once joins concatenate schemas: after joining `PARTS`
/// with `SUPPLY`, both sides carry a `PNUM` column and only the qualifier
/// disambiguates them — exactly the situation in every transformed query in
/// the paper.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Column {
    /// Table name or alias this column belongs to, if known.
    pub table: Option<String>,
    /// Column name (stored uppercase; lookups are case-insensitive).
    pub name: String,
    /// Static type.
    pub ty: ColumnType,
}

impl Column {
    /// New unqualified column.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Column {
        Column { table: None, name: name.into().to_ascii_uppercase(), ty }
    }

    /// New qualified column.
    pub fn qualified(table: impl Into<String>, name: impl Into<String>, ty: ColumnType) -> Column {
        Column {
            table: Some(table.into().to_ascii_uppercase()),
            name: name.into().to_ascii_uppercase(),
            ty,
        }
    }

    /// `TABLE.NAME` or bare `NAME`.
    pub fn qualified_name(&self) -> String {
        match &self.table {
            Some(t) => format!("{t}.{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Outcome of matching a column reference against a schema.
enum Found {
    None,
    One(usize),
    Many,
}

/// An ordered list of columns describing tuple layout.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema from columns.
    pub fn new(columns: Vec<Column>) -> Schema {
        Schema { columns }
    }

    /// Convenience constructor from `(name, type)` pairs, all qualified by
    /// `table`.
    pub fn of_table(table: &str, cols: &[(&str, ColumnType)]) -> Schema {
        Schema::new(
            cols.iter()
                .map(|(n, t)| Column::qualified(table, *n, *t))
                .collect(),
        )
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Resolve a possibly-qualified column reference to its index.
    ///
    /// `table` of `None` matches any qualifier but errs on ambiguity;
    /// matching is case-insensitive. This is the single resolution routine
    /// used by the analyzer, the executor, and the transformations, so all
    /// layers agree on scoping behaviour.
    pub fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize, TypeError> {
        // The display string is built on the error return only: resolution
        // runs per column reference per block, misses included (an outer
        // reference misses every inner scope on its way out).
        let shown = || {
            let mut shown = match table {
                Some(t) => format!("{t}.{name}"),
                None => name.to_string(),
            };
            shown.make_ascii_uppercase();
            shown
        };
        match self.find(table, name) {
            Found::One(i) => Ok(i),
            Found::Many => Err(TypeError::AmbiguousColumn(shown())),
            Found::None => Err(TypeError::UnknownColumn(shown())),
        }
    }

    /// Column index if the reference resolves uniquely, without error
    /// details (and without allocating).
    pub fn try_resolve(&self, table: Option<&str>, name: &str) -> Option<usize> {
        match self.find(table, name) {
            Found::One(i) => Some(i),
            Found::Many | Found::None => None,
        }
    }

    /// First column matching the reference, or that a second one matches
    /// too. Stored names are uppercase; the reference may be in any case.
    fn find(&self, table: Option<&str>, name: &str) -> Found {
        let mut found = Found::None;
        for (i, c) in self.columns.iter().enumerate() {
            if !c.name.eq_ignore_ascii_case(name) {
                continue;
            }
            if let Some(t) = table {
                if !c.table.as_deref().is_some_and(|ct| ct.eq_ignore_ascii_case(t)) {
                    continue;
                }
            }
            if let Found::One(_) = found {
                return Found::Many;
            }
            found = Found::One(i);
        }
        found
    }

    /// Concatenate two schemas (join output layout).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        Schema::new(columns)
    }

    /// A new schema with every column re-qualified to `table` (used when a
    /// subquery result or temporary table is given a name).
    pub fn requalify(&self, table: &str) -> Schema {
        Schema::new(
            self.columns
                .iter()
                .map(|c| Column::qualified(table, &c.name, c.ty))
                .collect(),
        )
    }

    /// Project the schema onto the given column indices.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema::new(indices.iter().map(|&i| self.columns[i].clone()).collect())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols: Vec<String> = self
            .columns
            .iter()
            .map(|c| format!("{}:{}", c.qualified_name(), c.ty))
            .collect();
        write!(f, "({})", cols.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts_supply_joined() -> Schema {
        Schema::of_table("PARTS", &[("PNUM", ColumnType::Int), ("QOH", ColumnType::Int)]).join(
            &Schema::of_table(
                "SUPPLY",
                &[
                    ("PNUM", ColumnType::Int),
                    ("QUAN", ColumnType::Int),
                    ("SHIPDATE", ColumnType::Date),
                ],
            ),
        )
    }

    #[test]
    fn resolves_unique_unqualified_name() {
        let s = parts_supply_joined();
        assert_eq!(s.resolve(None, "QOH").unwrap(), 1);
        assert_eq!(s.resolve(None, "shipdate").unwrap(), 4);
    }

    #[test]
    fn ambiguous_unqualified_name_errors() {
        let s = parts_supply_joined();
        assert!(matches!(
            s.resolve(None, "PNUM"),
            Err(TypeError::AmbiguousColumn(_))
        ));
    }

    #[test]
    fn qualifier_disambiguates() {
        let s = parts_supply_joined();
        assert_eq!(s.resolve(Some("PARTS"), "PNUM").unwrap(), 0);
        assert_eq!(s.resolve(Some("SUPPLY"), "PNUM").unwrap(), 2);
        assert_eq!(s.resolve(Some("supply"), "pnum").unwrap(), 2);
    }

    #[test]
    fn unknown_column_errors() {
        let s = parts_supply_joined();
        assert!(matches!(
            s.resolve(None, "NOPE"),
            Err(TypeError::UnknownColumn(_))
        ));
        assert!(matches!(
            s.resolve(Some("PARTS"), "QUAN"),
            Err(TypeError::UnknownColumn(_))
        ));
    }

    /// Error text is the uppercased reference as written (qualifier
    /// included), whatever the reference's case; `try_resolve` agrees with
    /// `resolve` on every outcome.
    #[test]
    fn resolution_outcomes_and_messages_for_mixed_case_references() {
        let s = parts_supply_joined();
        let cases: [(Option<&str>, &str, Result<usize, TypeError>); 7] = [
            (None, "qoh", Ok(1)),
            (Some("Supply"), "Quan", Ok(3)),
            (Some("parts"), "pNum", Ok(0)),
            (None, "pnum", Err(TypeError::AmbiguousColumn("PNUM".into()))),
            (None, "nope", Err(TypeError::UnknownColumn("NOPE".into()))),
            (Some("parts"), "quan", Err(TypeError::UnknownColumn("PARTS.QUAN".into()))),
            (Some("other"), "pnum", Err(TypeError::UnknownColumn("OTHER.PNUM".into()))),
        ];
        for (table, name, want) in cases {
            assert_eq!(s.resolve(table, name), want, "{table:?}.{name}");
            assert_eq!(s.try_resolve(table, name), want.ok(), "{table:?}.{name}");
        }
        // Qualified ambiguity: requalification collapses the two PNUMs.
        let t = s.requalify("t3");
        assert_eq!(
            t.resolve(Some("T3"), "pnum"),
            Err(TypeError::AmbiguousColumn("T3.PNUM".into()))
        );
        assert_eq!(t.try_resolve(Some("t3"), "PNUM"), None);
        // An unqualified stored column only matches an unqualified reference.
        let bare = Schema::new(vec![Column::new("x", ColumnType::Int)]);
        assert_eq!(bare.resolve(None, "X"), Ok(0));
        assert_eq!(bare.try_resolve(Some("T"), "X"), None);
    }

    #[test]
    fn requalify_renames_all_tables() {
        let s = parts_supply_joined().requalify("TEMP3");
        assert!(s.columns().iter().all(|c| c.table.as_deref() == Some("TEMP3")));
        // After requalification the duplicate PNUMs collide even qualified.
        assert!(s.resolve(Some("TEMP3"), "PNUM").is_err());
    }

    #[test]
    fn project_selects_indices() {
        let s = parts_supply_joined().project(&[0, 4]);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.columns()[1].name, "SHIPDATE");
    }
}
