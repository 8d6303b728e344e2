//! Seeded data generator. The benchmark owns its RNG and its tables, so the
//! figure generators in `crates/bench` can change without moving a number
//! here. Rows are kept as plain integer arrays: the reference evaluators
//! (`reference.rs`) read them directly, the engine gets them as `Relation`s.

use nsql_types::{Column, ColumnType, Relation, Schema, Tuple, Value};

/// A four-column integer row.
pub type Row = [i64; 4];

/// xoshiro256++ seeded through SplitMix64 (any `u64` is a valid seed).
pub struct Rng([u64; 4]);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `0..n` (the modulo bias is below 2^-40 for every `n` used
    /// here and the stream stays a pure function of the seed).
    pub fn below(&mut self, n: i64) -> i64 {
        (self.next_u64() % n as u64) as i64
    }
}

/// `PARTS(PNUM, QOH, GRP, SERIAL)` and `SUPPLY(PNUM, QUAN, EPOCH, TAG)`.
///
/// `GRP = 0` is the outer simple predicate and keeps one row in ten;
/// `EPOCH` (0..100) is the inner simple predicate; `SERIAL`/`TAG` are
/// wide-range columns, so the type-N membership list is scanned almost in
/// full. With `distinct_pnum = None` `PARTS.PNUM` is unique and four
/// `SUPPLY.PNUM` in five name an existing part.
///
/// With `Some(d)` both `PNUM` columns cycle through `d` values, the
/// duplicate-heavy regime. Every part then has hundreds of shipments of
/// every quantity, so two things are planted to keep the refused shapes'
/// answers from being empty: a part number's shipments never have the
/// quantity `PNUM % 6` (some `QOH NOT IN` hold), and every third part's
/// `QOH` is its shipment count (some `QOH = COUNT` hold).
pub struct Tables {
    pub parts: Vec<Row>,
    pub supply: Vec<Row>,
}

pub fn tables(rng: &mut Rng, parts: usize, supply: usize, distinct_pnum: Option<i64>) -> Tables {
    let wide = (supply as i64 * 20).max(1000);
    let supply_pnum = distinct_pnum.unwrap_or(parts as i64 * 5 / 4);
    let supply: Vec<Row> = (0..supply)
        .map(|_| {
            let pnum = rng.below(supply_pnum);
            let quan = match distinct_pnum {
                None => rng.below(20),
                Some(_) => {
                    let q = rng.below(19);
                    q + (q >= pnum % 6) as i64
                }
            };
            [pnum, quan, rng.below(100), rng.below(wide)]
        })
        .collect();
    let mut shipments = vec![0i64; distinct_pnum.unwrap_or(0) as usize];
    if distinct_pnum.is_some() {
        supply.iter().for_each(|s| shipments[s[0] as usize] += 1);
    }
    let parts = (0..parts as i64)
        .map(|i| {
            let pnum = distinct_pnum.map_or(i, |d| i % d);
            let qoh = rng.below(6);
            let qoh = if distinct_pnum.is_some() && i % 3 == 0 {
                shipments[pnum as usize]
            } else {
                qoh
            };
            [pnum, qoh, i % 10, rng.below(wide)]
        })
        .collect();
    Tables { parts, supply }
}

/// `VENDOR(VNUM, GRP, RATING, CITY)`: a small static table the read/write
/// workload's two insert-proof selects read.
pub fn vendor(rng: &mut Rng, rows: usize) -> Vec<Row> {
    (0..rows as i64)
        .map(|i| [i, rng.below(10), rng.below(5), rng.below(50)])
        .collect()
}

/// Rows appended by one INSERT of the read/write workload.
pub fn supply_rows(rng: &mut Rng, parts: usize, n: usize) -> Vec<Row> {
    let wide = 30_000;
    (0..n)
        .map(|_| {
            [
                rng.below(parts as i64),
                rng.below(20),
                rng.below(100),
                rng.below(wide),
            ]
        })
        .collect()
}

pub fn relation(cols: [&str; 4], rows: &[Row]) -> Relation {
    let schema = Schema::new(
        cols.iter()
            .map(|c| Column::new(*c, ColumnType::Int))
            .collect(),
    );
    let tuples = rows
        .iter()
        .map(|r| Tuple::new(r.iter().map(|&v| Value::Int(v)).collect()));
    Relation::new(schema, tuples.collect()).expect("four columns, four values")
}

pub const PARTS_COLS: [&str; 4] = ["PNUM", "QOH", "GRP", "SERIAL"];
pub const SUPPLY_COLS: [&str; 4] = ["PNUM", "QUAN", "EPOCH", "TAG"];
pub const VENDOR_COLS: [&str; 4] = ["VNUM", "GRP", "RATING", "CITY"];
