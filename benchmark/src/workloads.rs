//! The four workloads: what each holds, which statements make a round, and
//! how one fresh copy of it (a `Session`) is set up.

use crate::gen::{self, Rng, Row, Tables};
use crate::reference::{self, Data};
use nsql_db::Database;
use std::path::{Path, PathBuf};

/// Every statement shape any workload runs; `db.query_ms.<shape>` exists
/// for each of them.
pub const SHAPES: [&str; 12] = [
    "n",
    "j",
    "ja_count",
    "ja_max",
    "ml3",
    "flat_join",
    "j_notin",
    "ja_or",
    "j_notin_dup",
    "ja_or_dup",
    "static_n",
    "static_join",
];

pub struct Spec {
    pub name: &'static str,
    /// One line for BENCHMARK.json and the README.
    pub why: &'static str,
    pub parts: usize,
    pub supply: usize,
    pub page_size: usize,
    pub buffer_pages: usize,
    /// File-backed store with a B+tree on `SUPPLY.PNUM` and a `VENDOR`
    /// table, and every round ends with an INSERT into `SUPPLY`.
    pub read_write_file: bool,
    /// A second, duplicate-heavy copy of both tables (`PARTS_D`, `SUPPLY_D`).
    pub dup_regime: bool,
    /// Select shapes of one round, in order.
    pub round: &'static [&'static str],
    /// Rounds between two set-ups. Fixed, so every cycle of a run does the
    /// same statements on the same data and every count repeats exactly,
    /// however many cycles the machine completes in `--seconds`.
    pub rounds_per_cycle: usize,
    /// The shape the single-statement probes of the traced run use.
    pub probe_shape: &'static str,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "kim-unnest",
        why: "Kim scale, all transformed: 1-3 ms statements, so parse/analyze/transform, the db facade, obs and thread dispatch are their largest share; nested iteration never runs",
        parts: 1000,
        supply: 1500,
        page_size: 512,
        buffer_pages: 6,
        read_write_file: false,
        dup_regime: false,
        round: &["n", "j", "ja_count", "ja_max", "ml3"],
        rounds_per_cycle: 100,
        probe_shape: "j",
    },
    Spec {
        name: "kim-refused",
        why: "NOT IN and correlated OR are refused, then run by nested iteration through a 6-page pool, on unique and on duplicate-heavy keys: memo work must pay on one and not cost on the other",
        parts: 1000,
        supply: 1500,
        page_size: 512,
        buffer_pages: 6,
        read_write_file: false,
        dup_regime: true,
        round: &["j_notin", "ja_or", "j_notin_dup", "ja_or_dup"],
        rounds_per_cycle: 8,
        probe_shape: "j_notin",
    },
    Spec {
        name: "big-unnest",
        why: "x20 scale (20000/30000 rows, 4 KiB pages, B=64): front end under 1 % of a statement; join, aggregate, sort, scan kernels and thread fan-out do the work; flat_join bypasses the transform",
        parts: 20_000,
        supply: 30_000,
        page_size: 4096,
        buffer_pages: 64,
        read_write_file: false,
        dup_regime: false,
        round: &["n", "j", "ja_count", "ja_max", "flat_join"],
        rounds_per_cycle: 4,
        probe_shape: "j",
    },
    Spec {
        name: "kim-readwrite-file",
        why: "Kim scale on the file store with an index: the only inserts, WAL commits, checkpoints, index rebuilds; each insert invalidates half the selects and spares half, so a read gain that taxes writes shows",
        parts: 1000,
        supply: 1500,
        page_size: 512,
        buffer_pages: 6,
        read_write_file: true,
        dup_regime: false,
        round: &["static_n", "static_join", "j", "ja_count"],
        rounds_per_cycle: 40,
        probe_shape: "j",
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// A shape's base name, and whether it runs on the duplicate-heavy tables.
pub fn split_dup(shape: &str) -> (&str, bool) {
    match shape.strip_suffix("_dup") {
        Some(base) => (base, true),
        None => (shape, false),
    }
}

/// SQL text of a shape.
pub fn sql(shape: &str) -> String {
    let (base, dup) = split_dup(shape);
    let text = match base {
        "n" => "SELECT PNUM FROM PARTS WHERE SERIAL IN (SELECT TAG FROM SUPPLY WHERE EPOCH < 34)",
        "j" => {
            "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH IN \
                (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)"
        }
        "ja_count" => {
            "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH = \
                (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND EPOCH < 50)"
        }
        "ja_max" => {
            "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH = \
                (SELECT MAX(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND EPOCH < 50)"
        }
        // No outer simple predicate: with `GRP = 0` the middle result of the
        // three-way join is a handful of rows, the cost-based choice between
        // rescanning and sorting S2 flips with the seed, and the statement's
        // page I/O moves by 30 % between seeds.
        "ml3" => {
            "SELECT PNUM FROM PARTS WHERE QOH IN \
                (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SUPPLY.EPOCH IN \
                (SELECT S2.EPOCH FROM SUPPLY S2 WHERE S2.PNUM = SUPPLY.PNUM AND S2.QUAN < 10))"
        }
        "flat_join" => {
            "SELECT PARTS.GRP, COUNT(SUPPLY.QUAN) FROM PARTS, SUPPLY \
                WHERE PARTS.PNUM = SUPPLY.PNUM AND SUPPLY.EPOCH < 50 GROUP BY PARTS.GRP"
        }
        "j_notin" => {
            "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH NOT IN \
                (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)"
        }
        "ja_or" => {
            "SELECT PNUM FROM PARTS WHERE GRP = 0 AND QOH = \
                (SELECT COUNT(QUAN) FROM SUPPLY \
                WHERE SUPPLY.PNUM = PARTS.PNUM OR SUPPLY.TAG = PARTS.SERIAL)"
        }
        "static_n" => {
            "SELECT PNUM FROM PARTS WHERE PARTS.GRP IN \
                (SELECT VENDOR.GRP FROM VENDOR WHERE VENDOR.RATING = 4)"
        }
        "static_join" => {
            "SELECT VENDOR.CITY, COUNT(PARTS.PNUM) FROM PARTS, VENDOR \
                WHERE PARTS.PNUM = VENDOR.VNUM GROUP BY VENDOR.CITY"
        }
        other => panic!("unknown shape {other}"),
    };
    if dup {
        text.replace("PARTS", "PARTS_D")
            .replace("SUPPLY", "SUPPLY_D")
    } else {
        text.to_string()
    }
}

/// One select of a round with its expected canonical answer.
pub struct Stmt {
    pub shape: &'static str,
    pub sql: String,
    pub expected: Vec<Vec<i64>>,
}

/// One fresh copy of a workload: database, statements, reference answers.
pub struct Session {
    pub spec: &'static Spec,
    pub db: Database,
    pub stmts: Vec<Stmt>,
    tables: Tables,
    dup_tables: Option<Tables>,
    vendor: Vec<Row>,
    insert_rng: Rng,
    /// Rows loaded or inserted so far, for `disk_bytes_per_user_byte`.
    pub user_rows: usize,
    dir: Option<PathBuf>,
}

/// Rows of one INSERT statement.
const INSERT_ROWS: usize = 2;
const VENDOR_ROWS: usize = 50;
const DUP_DISTINCT_PNUM: i64 = 8;

impl Session {
    /// Generate the data from `seed`, load it (in `dir` for the file-backed
    /// workload), build the index and compute the reference answers.
    pub fn new(spec: &'static Spec, seed: u64, dir: &Path) -> Session {
        let mut rng = Rng::new(seed);
        let tables = gen::tables(&mut rng, spec.parts, spec.supply, None);
        let dup_tables = spec
            .dup_regime
            .then(|| gen::tables(&mut rng, spec.parts, spec.supply, Some(DUP_DISTINCT_PNUM)));
        let vendor = if spec.read_write_file {
            gen::vendor(&mut rng, VENDOR_ROWS)
        } else {
            Vec::new()
        };

        let mut db = if spec.read_write_file {
            std::fs::create_dir_all(dir).expect("scratch directory is creatable");
            Database::open_with(spec.buffer_pages, spec.page_size, dir).expect("fresh store opens")
        } else {
            Database::with_storage(spec.buffer_pages, spec.page_size)
        };
        let mut user_rows = 0;
        let mut load = |name: &str, cols, rows: &[Row]| {
            db.catalog_mut()
                .load_table(name, &gen::relation(cols, rows))
                .expect("table loads");
            user_rows += rows.len();
        };
        load("PARTS", gen::PARTS_COLS, &tables.parts);
        load("SUPPLY", gen::SUPPLY_COLS, &tables.supply);
        if let Some(d) = &dup_tables {
            load("PARTS_D", gen::PARTS_COLS, &d.parts);
            load("SUPPLY_D", gen::SUPPLY_COLS, &d.supply);
        }
        if spec.read_write_file {
            load("VENDOR", gen::VENDOR_COLS, &vendor);
            db.catalog_mut()
                .create_index("SUPPLY", "PNUM")
                .expect("index builds");
        }

        let stmts = spec
            .round
            .iter()
            .map(|&shape| Stmt {
                shape,
                sql: sql(shape),
                expected: Vec::new(),
            })
            .collect();
        let mut session = Session {
            spec,
            db,
            stmts,
            tables,
            dup_tables,
            vendor,
            insert_rng: rng,
            user_rows,
            dir: spec.read_write_file.then(|| dir.to_path_buf()),
        };
        session.refresh_expected();
        session
    }

    /// Recompute the reference answers from the rows now in the tables.
    fn refresh_expected(&mut self) {
        for stmt in &mut self.stmts {
            let (base, dup) = split_dup(stmt.shape);
            let t = match dup {
                true => self.dup_tables.as_ref().expect("dup regime loaded"),
                false => &self.tables,
            };
            let data = Data {
                parts: &t.parts,
                supply: &t.supply,
                vendor: &self.vendor,
            };
            stmt.expected = reference::answer(base, &data);
        }
    }

    /// The next INSERT of the read/write workload: its text and its rows.
    pub fn next_insert(&mut self) -> (String, Vec<Row>) {
        let rows = gen::supply_rows(&mut self.insert_rng, self.spec.parts, INSERT_ROWS);
        let values: Vec<String> = rows
            .iter()
            .map(|r| format!("({}, {}, {}, {})", r[0], r[1], r[2], r[3]))
            .collect();
        (
            format!("INSERT INTO SUPPLY VALUES {}", values.join(", ")),
            rows,
        )
    }

    /// Record that `rows` are now in `SUPPLY`.
    pub fn inserted(&mut self, rows: Vec<Row>) {
        self.user_rows += rows.len();
        self.tables.supply.extend(rows);
        self.refresh_expected();
    }

    pub fn supply_rows(&self) -> usize {
        self.tables.supply.len()
    }

    /// Bytes under the store directory (0 on the memory backend).
    pub fn disk_bytes(&self) -> u64 {
        let Some(dir) = &self.dir else { return 0 };
        let entries = std::fs::read_dir(dir).expect("store directory is readable");
        entries
            .map(|e| e.expect("entry").metadata().expect("metadata").len())
            .sum()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
