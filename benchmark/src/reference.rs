//! Independent reference answers: one hand-written hash-map evaluator per
//! statement shape, over the generated rows. They share no code with the
//! engine or with `nsql-oracle` (which `tests/reference_vs_oracle.rs`
//! checks them against at Kim scale; the oracle needs minutes at x20, so it
//! cannot be the timed run's reference).
//!
//! Answers are canonical: rows sorted, and for the `IN` shapes also
//! deduplicated, because under the default `KimFaithful` multiplicity the
//! transformed `IN` emits one row per match and only the set is promised.

use crate::gen::Row;
use nsql_types::{Relation, Value};
use std::collections::{HashMap, HashSet};

/// The tables a statement may read.
pub struct Data<'a> {
    pub parts: &'a [Row],
    pub supply: &'a [Row],
    pub vendor: &'a [Row],
}

/// Whether `shape` is compared as a set (the `IN` shapes) or as a bag.
fn set_level(shape: &str) -> bool {
    matches!(shape, "n" | "j" | "ml3" | "static_n")
}

fn canonical(mut rows: Vec<Vec<i64>>, shape: &str) -> Vec<Vec<i64>> {
    rows.sort_unstable();
    if set_level(shape) {
        rows.dedup();
    }
    rows
}

/// The engine's result in the same canonical form. `NULL` cannot be
/// confused with a generated value: those are all non-negative.
pub fn canonical_result(rel: &Relation, shape: &str) -> Vec<Vec<i64>> {
    let rows = rel.tuples().iter().map(|t| {
        t.values()
            .iter()
            .map(|v| match v {
                Value::Int(i) => *i,
                Value::Null => i64::MIN,
                other => panic!("integer tables produced {other:?}"),
            })
            .collect()
    });
    canonical(rows.collect(), shape)
}

const PNUM: usize = 0;
const QOH: usize = 1;
const GRP: usize = 2;
const SERIAL: usize = 3;
const QUAN: usize = 1;
const EPOCH: usize = 2;
const TAG: usize = 3;

/// `PNUM` of the `GRP = 0` parts that `keep` accepts.
fn grp0_parts(parts: &[Row], keep: impl Fn(&Row) -> bool) -> Vec<Vec<i64>> {
    parts
        .iter()
        .filter(|p| p[GRP] == 0 && keep(p))
        .map(|p| vec![p[PNUM]])
        .collect()
}

/// The expected answer of `shape` (see `workloads::sql` for the texts).
pub fn answer(shape: &str, d: &Data) -> Vec<Vec<i64>> {
    let rows = match shape {
        "n" => {
            let tags: HashSet<i64> = d
                .supply
                .iter()
                .filter(|s| s[EPOCH] < 34)
                .map(|s| s[TAG])
                .collect();
            d.parts
                .iter()
                .filter(|p| tags.contains(&p[SERIAL]))
                .map(|p| vec![p[PNUM]])
                .collect()
        }
        "j" | "j_notin" => {
            let pairs: HashSet<(i64, i64)> = d.supply.iter().map(|s| (s[PNUM], s[QUAN])).collect();
            grp0_parts(d.parts, |p| {
                pairs.contains(&(p[PNUM], p[QOH])) == (shape == "j")
            })
        }
        "ja_count" => {
            let mut count: HashMap<i64, i64> = HashMap::new();
            for s in d.supply.iter().filter(|s| s[EPOCH] < 50) {
                *count.entry(s[PNUM]).or_default() += 1;
            }
            grp0_parts(d.parts, |p| {
                count.get(&p[PNUM]).copied().unwrap_or(0) == p[QOH]
            })
        }
        "ja_max" => {
            let mut max: HashMap<i64, i64> = HashMap::new();
            for s in d.supply.iter().filter(|s| s[EPOCH] < 50) {
                let m = max.entry(s[PNUM]).or_insert(s[QUAN]);
                *m = (*m).max(s[QUAN]);
            }
            grp0_parts(d.parts, |p| max.get(&p[PNUM]) == Some(&p[QOH]))
        }
        "ml3" => {
            let low: HashSet<(i64, i64)> = d
                .supply
                .iter()
                .filter(|s| s[QUAN] < 10)
                .map(|s| (s[PNUM], s[EPOCH]))
                .collect();
            let pairs: HashSet<(i64, i64)> = d
                .supply
                .iter()
                .filter(|s| low.contains(&(s[PNUM], s[EPOCH])))
                .map(|s| (s[PNUM], s[QUAN]))
                .collect();
            let hit = |p: &&Row| pairs.contains(&(p[PNUM], p[QOH]));
            d.parts.iter().filter(hit).map(|p| vec![p[PNUM]]).collect()
        }
        "ja_or" => {
            let (mut by_pnum, mut by_tag, mut by_both) =
                (HashMap::new(), HashMap::new(), HashMap::new());
            for s in d.supply {
                *by_pnum.entry(s[PNUM]).or_insert(0i64) += 1;
                *by_tag.entry(s[TAG]).or_insert(0i64) += 1;
                *by_both.entry((s[PNUM], s[TAG])).or_insert(0i64) += 1;
            }
            grp0_parts(d.parts, |p| {
                let n = |m: &HashMap<i64, i64>, k| m.get(&k).copied().unwrap_or(0);
                let both = by_both.get(&(p[PNUM], p[SERIAL])).copied().unwrap_or(0);
                n(&by_pnum, p[PNUM]) + n(&by_tag, p[SERIAL]) - both == p[QOH]
            })
        }
        "flat_join" => {
            let mut per_pnum: HashMap<i64, i64> = HashMap::new();
            for s in d.supply.iter().filter(|s| s[EPOCH] < 50) {
                *per_pnum.entry(s[PNUM]).or_default() += 1;
            }
            let mut per_grp: HashMap<i64, i64> = HashMap::new();
            for p in d.parts {
                if let Some(n) = per_pnum.get(&p[PNUM]) {
                    *per_grp.entry(p[GRP]).or_default() += n;
                }
            }
            per_grp.into_iter().map(|(g, n)| vec![g, n]).collect()
        }
        // VENDOR(VNUM, GRP, RATING, CITY)
        "static_n" => {
            let grps: HashSet<i64> = d
                .vendor
                .iter()
                .filter(|v| v[2] == 4)
                .map(|v| v[1])
                .collect();
            d.parts
                .iter()
                .filter(|p| grps.contains(&p[GRP]))
                .map(|p| vec![p[PNUM]])
                .collect()
        }
        "static_join" => {
            let mut parts_per_pnum: HashMap<i64, i64> = HashMap::new();
            for p in d.parts {
                *parts_per_pnum.entry(p[PNUM]).or_default() += 1;
            }
            let mut per_city: HashMap<i64, i64> = HashMap::new();
            for v in d.vendor {
                if let Some(n) = parts_per_pnum.get(&v[0]) {
                    *per_city.entry(v[3]).or_default() += n;
                }
            }
            per_city.into_iter().map(|(c, n)| vec![c, n]).collect()
        }
        other => panic!("no reference evaluator for shape {other}"),
    };
    canonical(rows, shape)
}
