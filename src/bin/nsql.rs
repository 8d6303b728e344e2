//! `nsql` — an interactive shell over the nested-query-opt database.
//!
//! ```sh
//! cargo run --bin nsql
//! ```
//!
//! Type SQL terminated by `;` — including `EXPLAIN SELECT …` (transform
//! decision and predicted Section-7 costs) and `EXPLAIN ANALYZE SELECT …`
//! (adds the measured profile: one tree from the lifecycle phases down to
//! the operators, with wall time, pages and rows). Dot-commands:
//!
//! ```text
//! .help                 this text
//! .tables               list tables
//! .strategy ni|cost|merge|nl|hash
//!                       evaluation strategy for subsequent SELECTs
//! .variant ja2|kim|noproj|late
//!                       type-JA algorithm (kim/noproj/late are the paper's
//!                       buggy baselines, for demonstration)
//! .explain SELECT …     show the transformation pipeline without running
//! .tree SELECT …        show the Figure-2 query tree
//! .demo                 load Kiessling's PARTS/SUPPLY example data
//! .stats [json]         cumulative statistics (tables, statements);
//!                       also queryable as the nsql_stat_* system views
//! .slow [<ms>|off]      show the slow-query log / set the threshold
//! .quit
//! ```

use nested_query_opt::core::{JaVariant, UnnestOptions};
use nested_query_opt::db::{Database, JoinPolicy, QueryOptions, Strategy};
use std::io::{BufRead, Write};

struct Shell {
    db: Database,
    opts: QueryOptions,
}

impl Shell {
    fn new() -> Shell {
        Shell { db: Database::new(), opts: QueryOptions::transformed() }
    }

    fn dispatch(&mut self, line: &str) -> bool {
        let line = line.trim();
        match line.split_whitespace().next() {
            Some(".quit") | Some(".exit") => return false,
            Some(".help") => print_help(),
            Some(".tables") => {
                for t in self.db.catalog().table_names() {
                    let file = self.db.catalog().table(t).expect("listed");
                    println!(
                        "  {t}  {}  ({} rows, {} pages)",
                        file.schema(),
                        file.tuple_count(),
                        file.page_count()
                    );
                }
            }
            Some(".strategy") => {
                match line.split_whitespace().nth(1) {
                    Some("ni") => {
                        self.opts.strategy = Strategy::NestedIteration;
                    }
                    Some("cost") => {
                        self.opts.strategy = Strategy::Transform;
                        self.opts.join_policy = JoinPolicy::CostBased;
                    }
                    Some("merge") => {
                        self.opts.strategy = Strategy::Transform;
                        self.opts.join_policy = JoinPolicy::ForceMergeJoin;
                    }
                    Some("nl") => {
                        self.opts.strategy = Strategy::Transform;
                        self.opts.join_policy = JoinPolicy::ForceNestedLoop;
                    }
                    Some("hash") => {
                        self.opts.strategy = Strategy::Transform;
                        self.opts.join_policy = JoinPolicy::ForceHashJoin;
                    }
                    _ => println!("usage: .strategy ni|cost|merge|nl|hash"),
                }
                println!("ok");
            }
            Some(".variant") => {
                let variant = match line.split_whitespace().nth(1) {
                    Some("ja2") => Some(JaVariant::Ja2),
                    Some("kim") => Some(JaVariant::KimOriginal),
                    Some("noproj") => Some(JaVariant::Ja2NoProjection),
                    Some("late") => Some(JaVariant::Ja2LateRestriction),
                    _ => {
                        println!("usage: .variant ja2|kim|noproj|late");
                        None
                    }
                };
                if let Some(v) = variant {
                    self.opts.unnest = UnnestOptions { ja_variant: v, ..self.opts.unnest.clone() };
                    println!("ok");
                }
            }
            Some(".explain") => {
                let sql = line.trim_start_matches(".explain").trim();
                match self.db.plan(sql, &self.opts.unnest) {
                    Ok(plan) => {
                        for t in &plan.trace {
                            println!("  · {t}");
                        }
                        println!("{plan}");
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            Some(".tree") => {
                let sql = line.trim_start_matches(".tree").trim();
                match self.db.query_tree(sql) {
                    Ok(t) => print!("{}", t.render()),
                    Err(e) => println!("error: {e}"),
                }
            }
            Some(".stats") => match line.split_whitespace().nth(1) {
                Some("json") => println!("{}", self.db.stats().snapshot().to_json()),
                Some(other) => println!("unknown argument {other}; usage: .stats [json]"),
                None => self.print_stats(),
            },
            Some(".slow") => match line.split_whitespace().nth(1) {
                Some("off") => {
                    self.opts.slow_query_ms = None;
                    println!("ok (slow-query log off)");
                }
                Some(ms) => match ms.parse::<u64>() {
                    Ok(ms) => {
                        self.opts.slow_query_ms = Some(ms);
                        println!("ok (logging statements >= {ms} ms)");
                    }
                    Err(_) => println!("usage: .slow <ms>|off"),
                },
                None => {
                    for q in self.db.stats().slow_queries() {
                        println!("#{} {} us [{}] {}", q.seq, q.micros, q.strategy, q.sql);
                        for l in &q.explain {
                            println!("    {l}");
                        }
                    }
                }
            },
            Some(".demo") => {
                match self.db.execute_script(
                    "CREATE TABLE PARTS (PNUM INT, QOH INT);
                     CREATE TABLE SUPPLY (PNUM INT, QUAN INT, SHIPDATE DATE);
                     INSERT INTO PARTS VALUES (3, 6), (10, 1), (8, 0);
                     INSERT INTO SUPPLY VALUES
                       (3, 4, 7-3-79), (3, 2, 10-1-78), (10, 1, 6-8-78),
                       (10, 2, 8-10-81), (8, 5, 5-7-83);",
                ) {
                    Ok(_) => println!("loaded PARTS and SUPPLY (Kiessling's example). Try:\n  \
                        SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY \
                        WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80);"),
                    Err(e) => println!("error: {e}"),
                }
            }
            Some(cmd) if cmd.starts_with('.') => println!("unknown command {cmd}; try .help"),
            _ => self.run_sql(line),
        }
        true
    }

    fn print_stats(&self) {
        let snap = self.db.stats().snapshot();
        println!("tables:");
        for t in &snap.tables {
            println!(
                "  {}  scans {}, index probes {}, tuples read {}, written {}",
                t.table, t.scans, t.index_probes, t.tuples_read, t.tuples_written
            );
        }
        println!("statements:");
        for s in &snap.statements {
            println!(
                "  {} call(s), p50 {} us, p99 {} us, {} read(s), {} write(s) [{}] {}",
                s.calls, s.p50_us, s.p99_us, s.reads, s.writes, s.strategy, s.query
            );
        }
        println!(
            "slow queries logged: {} (threshold: {})",
            snap.slow.len(),
            match self.opts.slow_query_ms {
                Some(ms) => format!("{ms} ms"),
                None => "off".to_string(),
            }
        );
    }

    fn run_sql(&mut self, sql: &str) {
        let upper = sql.trim_start().to_ascii_uppercase();
        if upper.starts_with("SELECT") {
            match self.db.query_with(sql, &self.opts) {
                Ok(out) => {
                    println!("{}", out.relation);
                    println!("({})", out.io);
                }
                Err(e) => println!("error: {e}"),
            }
        } else if upper.starts_with("EXPLAIN") {
            // Handled here rather than via execute_script so the report
            // honours the shell's current .strategy/.variant options.
            let rest = sql.trim_start()["EXPLAIN".len()..].trim_start();
            let (analyze, query) = match rest.get(.."ANALYZE".len()) {
                Some(kw) if kw.eq_ignore_ascii_case("ANALYZE") => {
                    (true, rest["ANALYZE".len()..].trim_start())
                }
                _ => (false, rest),
            };
            match self.db.explain_query(query, analyze, &self.opts) {
                Ok(report) => {
                    for l in report.render_lines() {
                        println!("{l}");
                    }
                }
                Err(e) => println!("error: {e}"),
            }
        } else {
            match self.db.execute_script(sql) {
                Ok(Some(rel)) => println!("{rel}"),
                Ok(None) => println!("ok"),
                Err(e) => println!("error: {e}"),
            }
        }
    }
}

fn print_help() {
    println!(
        "SQL (terminated by ';'): CREATE TABLE, INSERT INTO … VALUES, SELECT,\n\
         EXPLAIN SELECT … (transform decision + predicted Section-7 costs),\n\
         EXPLAIN ANALYZE SELECT … (adds the measured profile: phases → operators, time/pages/rows)\n\
         .tables | .demo | .strategy ni|cost|merge|nl|hash | .variant ja2|kim|noproj|late\n\
         .explain SELECT … | .tree SELECT … | .quit\n\
         .stats [json]   cumulative statistics (also queryable: SELECT … FROM nsql_stat_statements)\n\
         .slow [<ms>|off]  show the slow-query log / set the threshold"
    );
}

fn main() {
    println!(
        "nsql — nested-query optimization shell (Ganski & Wong, SIGMOD 1987)\n\
         type .help for commands, .demo to load the paper's example data\n"
    );
    let stdin = std::io::stdin();
    let mut shell = Shell::new();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("nsql> ");
        } else {
            print!("  ..> ");
        }
        std::io::stdout().flush().expect("stdout flush");
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() && (trimmed.starts_with('.') || trimmed.is_empty()) {
            if !trimmed.is_empty() && !shell.dispatch(trimmed) {
                break;
            }
            continue;
        }
        buffer.push_str(&line);
        if trimmed.ends_with(';') {
            let stmt = std::mem::take(&mut buffer);
            if !shell.dispatch(&stmt) {
                break;
            }
        }
    }
}
