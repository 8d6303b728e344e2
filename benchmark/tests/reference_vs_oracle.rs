//! The reference evaluators the timed runs trust, checked against the
//! repository's naive oracle at Kim scale, and the premise of the workload
//! split: which shapes the default path transforms and which it refuses.

use nsql_benchmark::gen::{self, Rng, Row};
use nsql_benchmark::reference::{answer, canonical_result, Data};
use nsql_benchmark::workloads::{split_dup, sql, SHAPES, SPECS};
use nsql_db::{Database, DbError, QueryOptions};
use nsql_oracle::Oracle;
use nsql_sql::parse_query;

struct Fixture {
    unique: gen::Tables,
    dup: gen::Tables,
    vendor: Vec<Row>,
}

fn fixture(seed: u64) -> Fixture {
    let mut rng = Rng::new(seed);
    Fixture {
        unique: gen::tables(&mut rng, 1000, 1500, None),
        dup: gen::tables(&mut rng, 1000, 1500, Some(8)),
        vendor: gen::vendor(&mut rng, 50),
    }
}

fn tables(f: &Fixture) -> [(&'static str, [&'static str; 4], &[Row]); 5] {
    [
        ("PARTS", gen::PARTS_COLS, &f.unique.parts),
        ("SUPPLY", gen::SUPPLY_COLS, &f.unique.supply),
        ("PARTS_D", gen::PARTS_COLS, &f.dup.parts),
        ("SUPPLY_D", gen::SUPPLY_COLS, &f.dup.supply),
        ("VENDOR", gen::VENDOR_COLS, &f.vendor),
    ]
}

fn expected(f: &Fixture, shape: &str) -> Vec<Vec<i64>> {
    let (base, dup) = split_dup(shape);
    let t = if dup { &f.dup } else { &f.unique };
    answer(
        base,
        &Data {
            parts: &t.parts,
            supply: &t.supply,
            vendor: &f.vendor,
        },
    )
}

#[test]
fn reference_evaluators_agree_with_the_oracle_on_every_shape() {
    // A shape may select nothing at one seed (`ja_max` keeps 0 to 4 parts),
    // but a shape that selects nothing at every seed checks nothing.
    let mut selective = std::collections::BTreeSet::new();
    for seed in [42, 7] {
        let f = fixture(seed);
        let mut oracle = Oracle::new();
        for (name, cols, rows) in tables(&f) {
            oracle.load(name, gen::relation(cols, rows));
        }
        for shape in SHAPES {
            let q = parse_query(&sql(shape)).expect("shape parses");
            let rel = oracle
                .eval(&q)
                .unwrap_or_else(|e| panic!("oracle on {shape}: {e}"));
            let got = canonical_result(&rel, shape);
            assert_eq!(got, expected(&f, shape), "{shape} at seed {seed}");
            if !got.is_empty() {
                selective.insert(shape);
            }
        }
    }
    assert_eq!(
        selective.len(),
        SHAPES.len(),
        "only {selective:?} ever select a row"
    );
}

#[test]
fn the_default_path_refuses_exactly_the_shapes_of_kim_refused() {
    let f = fixture(42);
    let mut db = Database::with_storage(6, 512);
    for (name, cols, rows) in tables(&f) {
        db.catalog_mut()
            .load_table(name, &gen::relation(cols, rows))
            .unwrap();
    }
    let refused_workload = SPECS.iter().find(|s| s.name == "kim-refused").unwrap();
    for shape in SHAPES {
        let outcome = db.query_with(&sql(shape), &QueryOptions::default());
        if refused_workload.round.contains(&shape) {
            assert!(
                matches!(outcome, Err(DbError::Transform(_))),
                "{shape} must be refused"
            );
        } else {
            let rel = outcome.unwrap_or_else(|e| panic!("{shape}: {e}")).relation;
            assert_eq!(
                canonical_result(&rel, shape),
                expected(&f, shape),
                "{shape}"
            );
        }
    }
}
