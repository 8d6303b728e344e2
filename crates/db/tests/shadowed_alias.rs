//! An inner block whose FROM entry reuses an enclosing block's alias still
//! reaches the enclosing block's columns: `QOH` below is a column of the
//! outer `PARTS X` only, read from inside `SUPPLY X`. The analyzer renames
//! the inner `X` apart (`X_1`), so the default path's rules and nested
//! iteration both read the binding off the qualifier.
//!
//! Each statement runs on the memory and the file store, under the default
//! options and under `Strategy::NestedIteration`, and every run answers the
//! rows worked out by hand from Kim's PARTS / SUPPLY data.

use nsql_db::{Database, QueryOptions, Strategy};
use nsql_testkit::TempDir;
use nsql_types::Value;

const DATA: &str = "CREATE TABLE PARTS (PNUM INT, QOH INT);
    CREATE TABLE SUPPLY (PNUM INT, QUAN INT, SHIPDATE DATE);
    INSERT INTO PARTS VALUES (3, 6), (10, 1), (8, 0), (4, 2);
    INSERT INTO SUPPLY VALUES (3, 4, 7-3-79), (3, 2, 10-1-78), (10, 1, 6-8-78),
      (10, 2, 8-10-81), (8, 5, 5-7-83), (4, 2, 1-1-80);";

/// Each statement, with the `PNUM`s it answers.
const CASES: [(&str, &[i64]); 4] = [
    (
        "SELECT X.PNUM FROM PARTS X WHERE X.PNUM IN \
         (SELECT X.PNUM FROM SUPPLY X WHERE QUAN = QOH)",
        &[10, 4],
    ),
    (
        "SELECT X.PNUM FROM PARTS X WHERE 1 = \
         (SELECT COUNT(QUAN) FROM SUPPLY X WHERE QUAN = QOH)",
        &[10],
    ),
    (
        "SELECT X.PNUM FROM PARTS X WHERE EXISTS \
         (SELECT QUAN FROM SUPPLY X WHERE QUAN = QOH)",
        &[10, 4],
    ),
    (
        "SELECT X.PNUM FROM PARTS X WHERE QOH = \
         (SELECT MAX(QUAN) FROM SUPPLY X WHERE QUAN <= QOH)",
        &[10, 4],
    ),
];

#[test]
fn an_inner_alias_that_shadows_an_outer_one_still_reaches_the_outer_columns() {
    let dir = TempDir::new("shadowed-alias");
    let mut stores = [
        ("memory", Database::with_storage(6, 512)),
        ("file", Database::open_with(6, 512, dir.path()).unwrap()),
    ];
    let nested = QueryOptions { strategy: Strategy::NestedIteration, ..QueryOptions::default() };
    for (store, db) in &mut stores {
        db.execute_script(DATA).unwrap();
        for (sql, want) in CASES {
            let want: Vec<Value> = want.iter().map(|&p| Value::Int(p)).collect();
            for (path, opts) in [("default", QueryOptions::default()), ("nested", nested.clone())] {
                let got = db
                    .query_with(sql, &opts)
                    .unwrap_or_else(|e| panic!("{store} {path}: {e}\n{sql}"));
                let mut rows: Vec<Value> =
                    got.relation.tuples().iter().map(|t| t.get(0).clone()).collect();
                rows.sort_by(Value::total_cmp);
                let mut want = want.clone();
                want.sort_by(Value::total_cmp);
                assert_eq!(rows, want, "{store} {path}\n{sql}");
            }
        }
    }
}
