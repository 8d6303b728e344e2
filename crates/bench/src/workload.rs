//! Synthetic workloads shaped like Kim's examples.
//!
//! Kim's Figure-1 table configurations are not reprinted in the paper, but
//! his cost formulas are, and the generators here are tuned so that the
//! *nested-iteration* costs land on Kim's cells:
//!
//! * type-N: `Pj + Px + Pi + Ni·Px ≈ 100 + 10 + 67 + 10 000 ≈ 10 200`
//!   (Kim: 10 220) — the stored list `X` is ~10 pages and every outer
//!   tuple re-scans it;
//! * type-J: `Pi + f(i)·Ni·Pj ≈ 67 + 100·100 ≈ 10 100` (Kim: 10 120);
//! * type-JA: same formula with `Pj = 30` → `≈ 3 070` (Kim: 3 050).
//!
//! The transformed costs are whatever our engine measures — the claim
//! under reproduction is the 80–95% savings band, not Kim's absolute
//! transformed cells. See DESIGN.md ("Faithfulness notes").

use nsql_db::Database;
use nsql_testkit::Rng;
use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};

/// The default workload seed. Every figure/table binary uses this unless
/// its first argument names another, so published numbers (EXPERIMENTS.md)
/// are bit-reproducible run-to-run and machine-to-machine.
pub const DEFAULT_SEED: u64 = 42;

/// Parameters of a generated workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Outer relation cardinality (`Ni`).
    pub outer_tuples: usize,
    /// Inner relation cardinality (`Nj`).
    pub inner_tuples: usize,
    /// Fraction of outer tuples passing the simple predicate (`f(i)`).
    pub outer_selectivity: f64,
    /// Fraction of inner PNUMs that exist in the outer relation (controls
    /// how often the COUNT-bug's empty groups occur).
    pub match_fraction: f64,
    /// Buffer pages (`B`).
    pub buffer_pages: usize,
    /// Page size in bytes.
    pub page_size: usize,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            outer_tuples: 1000,
            inner_tuples: 1500, // ≈100 pages at 512-byte pages, 4 int columns
            outer_selectivity: 0.1,
            match_fraction: 0.8,
            buffer_pages: 6,
            page_size: 512,
        }
    }
}

impl WorkloadSpec {
    /// Kim-scale default (Figure 1, type-N and type-J rows): `Pj ≈ 100`,
    /// `Pi ≈ 67`, `f(i)·Ni = 100`.
    pub fn kim_scale() -> WorkloadSpec {
        WorkloadSpec::default()
    }

    /// The type-JA row of Figure 1 and the §7.4 example use a smaller
    /// inner relation (`Pj ≈ 30`).
    pub fn kim_scale_ja() -> WorkloadSpec {
        WorkloadSpec { inner_tuples: 450, ..WorkloadSpec::default() }
    }

    /// A smaller configuration for the property tests.
    pub fn small() -> WorkloadSpec {
        WorkloadSpec {
            outer_tuples: 200,
            inner_tuples: 400,
            ..WorkloadSpec::default()
        }
    }
}

/// A generated database plus its spec.
pub struct Workload {
    /// The database (PARTS and SUPPLY loaded).
    pub db: Database,
    /// The workload spec it was built from.
    pub spec: WorkloadSpec,
}

impl Workload {
    /// `Pi`: pages of the outer relation.
    pub fn outer_pages(&self) -> usize {
        self.db.catalog().table("PARTS").map_or(0, |f| f.page_count())
    }

    /// `Pj`: pages of the inner relation.
    pub fn inner_pages(&self) -> usize {
        self.db.catalog().table("SUPPLY").map_or(0, |f| f.page_count())
    }
}

/// Schemas:
/// `PARTS(PNUM, QOH, GRP, SERIAL)` — `GRP` drives the outer simple
/// predicate (`GRP = 0` selects `f(i)` of the rows); `SERIAL` is a
/// wide-range value used by the type-N membership test.
/// `SUPPLY(PNUM, QUAN, EPOCH, TAG)` — `EPOCH` drives the inner simple
/// predicate (standing in for SHIPDATE); `TAG` is the wide-range column
/// the type-N inner block selects.
fn schemas() -> (Schema, Schema) {
    let parts = Schema::new(vec![
        Column::new("PNUM", ColumnType::Int),
        Column::new("QOH", ColumnType::Int),
        Column::new("GRP", ColumnType::Int),
        Column::new("SERIAL", ColumnType::Int),
    ]);
    let supply = Schema::new(vec![
        Column::new("PNUM", ColumnType::Int),
        Column::new("QUAN", ColumnType::Int),
        Column::new("EPOCH", ColumnType::Int),
        Column::new("TAG", ColumnType::Int),
    ]);
    (parts, supply)
}

/// Generate the workload in memory; all four benchmark queries run against
/// it. Workloads are a pure function of `(spec, seed)` — same inputs, same
/// database, bit for bit.
pub fn ja_workload(spec: WorkloadSpec, seed: u64) -> Workload {
    load(Database::with_storage(spec.buffer_pages, spec.page_size), spec, seed)
}

/// Generate the workload of `(spec, seed)` into the empty database `db`
/// (whose geometry should be the spec's; [`crate::RunConfig::workload`]
/// sees to that).
pub fn load(mut db: Database, spec: WorkloadSpec, seed: u64) -> Workload {
    let mut rng = Rng::from_seed(seed);
    let (parts_schema, supply_schema) = schemas();
    let grp_mod = (1.0 / spec.outer_selectivity).round().max(1.0) as i64;
    // Wide range for the membership columns: matches are rare, so the
    // stored list X is scanned (nearly) in full per outer tuple, as in
    // Kim's model.
    let wide = (spec.inner_tuples as i64 * 20).max(1000);

    let mut parts = Relation::empty(parts_schema);
    for i in 0..spec.outer_tuples {
        parts
            .push(Tuple::new(vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..6)),
                Value::Int(i as i64 % grp_mod),
                Value::Int(rng.gen_range(0..wide)),
            ]))
            .unwrap();
    }
    let mut supply = Relation::empty(supply_schema);
    let pnum_range = (spec.outer_tuples as f64 / spec.match_fraction).ceil() as i64;
    for _ in 0..spec.inner_tuples {
        supply
            .push(Tuple::new(vec![
                Value::Int(rng.gen_range(0..pnum_range)),
                Value::Int(rng.gen_range(0..20)),
                Value::Int(rng.gen_range(0..100)),
                Value::Int(rng.gen_range(0..wide)),
            ]))
            .unwrap();
    }
    db.catalog_mut().load_table("PARTS", &parts).expect("fresh catalog");
    db.catalog_mut().load_table("SUPPLY", &supply).expect("fresh catalog");
    Workload { db, spec }
}

/// The benchmark queries, one per nesting type (`GRP = 0` is the outer
/// simple predicate giving `f(i)`).
pub mod queries {
    /// Type-N: membership in a large uncorrelated list. No outer simple
    /// predicate — Kim's type-N example tests every outer tuple. `EPOCH <
    /// 34` sizes the stored list `X` at ≈10 pages.
    pub const TYPE_N: &str = "SELECT PNUM FROM PARTS WHERE SERIAL IN \
        (SELECT TAG FROM SUPPLY WHERE EPOCH < 34)";

    /// Type-J: correlated membership.
    pub const TYPE_J: &str = "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH IN \
        (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)";

    /// Type-JA: correlated aggregate (the Q2 shape, COUNT variant).
    pub const TYPE_JA_COUNT: &str = "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH = \
        (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND EPOCH < 50)";

    /// Type-JA with MAX (Kim's Q3 shape used in §7.4).
    pub const TYPE_JA_MAX: &str = "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH = \
        (SELECT MAX(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND EPOCH < 50)";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_per_seed() {
        let spec = WorkloadSpec { outer_tuples: 50, inner_tuples: 80, ..Default::default() };
        let a = ja_workload(spec, DEFAULT_SEED);
        let b = ja_workload(spec, DEFAULT_SEED);
        let ra = a.db.query("SELECT PNUM, QOH FROM PARTS WHERE GRP = 0").unwrap();
        let rb = b.db.query("SELECT PNUM, QOH FROM PARTS WHERE GRP = 0").unwrap();
        assert!(ra.same_bag(&rb));
        // A different seed produces a genuinely different database.
        let c = ja_workload(spec, DEFAULT_SEED + 1);
        let rc = c.db.query("SELECT PNUM, QOH FROM PARTS").unwrap();
        let ra_all = a.db.query("SELECT PNUM, QOH FROM PARTS").unwrap();
        assert!(!ra_all.same_bag(&rc), "seed must steer the generator");
    }

    #[test]
    fn kim_scale_hits_target_shape() {
        let w = ja_workload(WorkloadSpec::kim_scale(), DEFAULT_SEED);
        assert!(
            (85..=115).contains(&w.inner_pages()),
            "inner should be ≈100 pages, got {}",
            w.inner_pages()
        );
        assert!(
            (50..=85).contains(&w.outer_pages()),
            "outer should be ≈67 pages, got {}",
            w.outer_pages()
        );
        // f(i)·Ni ≈ 100.
        let f = w.db.query("SELECT PNUM FROM PARTS WHERE GRP = 0").unwrap();
        assert!((80..=120).contains(&f.len()), "f(i)·Ni = {}", f.len());
        // And the JA spec lands near Pj = 30.
        let ja = ja_workload(WorkloadSpec::kim_scale_ja(), DEFAULT_SEED);
        assert!((24..=36).contains(&ja.inner_pages()), "Pj = {}", ja.inner_pages());
    }

    #[test]
    fn queries_parse_and_run_on_small_workload() {
        let w = ja_workload(
            WorkloadSpec { outer_tuples: 40, inner_tuples: 60, ..WorkloadSpec::default() },
            DEFAULT_SEED,
        );
        for sql in [
            queries::TYPE_N,
            queries::TYPE_J,
            queries::TYPE_JA_COUNT,
            queries::TYPE_JA_MAX,
        ] {
            let ni = w
                .db
                .query_with(sql, &nsql_db::QueryOptions::nested_iteration())
                .unwrap();
            let opts = nsql_db::QueryOptions {
                unnest: nsql_core::UnnestOptions {
                    preserve_duplicates: true,
                    ..nsql_core::UnnestOptions::faithful()
                },
                ..nsql_db::QueryOptions::transformed_merge()
            };
            let tr = w.db.query_with(sql, &opts).unwrap();
            assert!(
                tr.relation.same_set(&ni.relation),
                "{sql}\nNI:\n{}\nTR:\n{}",
                ni.relation,
                tr.relation
            );
        }
    }
}
