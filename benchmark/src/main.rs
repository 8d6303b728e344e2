//! The benchmark's command line.
//!
//! ```text
//! nsql-benchmark --workload <name> [--seed 42] [--seconds 30] [--trace 0|1]
//! nsql-benchmark compare <a.jsonl> <b.jsonl>
//! nsql-benchmark describe            # prints BENCHMARK.json
//! ```

use nsql_benchmark::report::{self, Metrics};
use nsql_benchmark::run::{self, Plain, Tally, Traced};
use nsql_benchmark::workloads::{self, Spec};
use nsql_benchmark::{catalogue, compare, probes, stats};
use nsql_db::{CacheMode, ExecMode, Strategy};
use nsql_obs::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// `run_seconds` of `BENCHMARK.json` and the default of `--seconds`.
const RUN_SECONDS: u64 = 30;

/// Repetitions of each single-layer probe (the median is reported).
const PROBE_REPS: usize = 5;

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42, RUN_SECONDS as f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.as_str()),
            "--seed" => seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or(bad("a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let names: Vec<&str> = workloads::SPECS.iter().map(|s| s.name).collect();
    let name = workload.ok_or(format!("--workload is one of {}", names.join(", ")))?;
    let spec = workloads::spec(name).ok_or(format!("--workload is one of {}", names.join(", ")))?;
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
    })
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Remove every `NSQL_*` variable, check that the default options then
/// resolve to transform / row / cache off, and describe the host. Returns
/// the resolved thread count and the description.
fn clean_environment(seed: u64) -> (usize, Json) {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .collect();
    for key in set.iter().filter(|k| k.starts_with("NSQL_")) {
        std::env::remove_var(key);
    }
    assert_eq!(
        Strategy::Auto.resolve(),
        Strategy::Transform,
        "default strategy"
    );
    assert!(!ExecMode::Auto.vectorized(), "default exec mode is row");
    assert_eq!(
        CacheMode::Auto.resolve(),
        CacheMode::Off,
        "default cache mode"
    );
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nsql_exec_par::threads_from_env();
    let env = Json::obj([
        ("nproc", Json::num(nproc as f64)),
        ("threads", Json::num(threads as f64)),
        ("seed", Json::num(seed as f64)),
        (
            "git_revision",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(first_line_of("rustc", &["--version"]))),
        ("strategy", Json::str("transform")),
        ("exec_mode", Json::str("row")),
        ("cache", Json::str("off")),
    ]);
    (threads, env)
}

/// Check names and units against the catalogue and against `BENCHMARK.json`.
fn validate(metrics: &Metrics, trace: bool) -> Result<Vec<(String, f64, &'static str)>, String> {
    let expected = catalogue::expected(trace);
    let mut out = Vec::new();
    for (name, unit) in &expected {
        let value = metrics
            .iter()
            .find(|(n, _)| n == name)
            .ok_or(format!("metric {name} was not measured"))?
            .1;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        out.push((name.clone(), value, *unit));
    }
    if let Some((extra, _)) = metrics
        .iter()
        .find(|(n, _)| !expected.iter().any(|(e, _)| e == n))
    {
        return Err(format!("metric {extra} is not in the catalogue"));
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let file = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let listed = file
        .get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no {key}"))?;
    let listed: Vec<(&str, &str)> = listed
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?, m.get("unit")?.as_str()?)))
        .collect();
    let printed: Vec<(&str, &str)> = expected.iter().map(|(n, u)| (n.as_str(), *u)).collect();
    if listed != printed {
        return Err(format!(
            "BENCHMARK.json {key} differs from the metrics this binary prints"
        ));
    }
    Ok(out)
}

fn run(args: Args) -> Result<(), String> {
    let Args {
        spec,
        seed,
        seconds,
        trace,
    } = args;
    let (threads, env) = clean_environment(seed);
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut tally = Tally::default();

    let (metrics, cycles, plain) = if trace {
        let (mut metrics, probe_ms) =
            stats::time_ms(|| probes::all(spec, seed, &out, threads, PROBE_REPS));
        let mut traced = Traced::new(threads);
        let left = (seconds - probe_ms / 1e3).max(0.0);
        let cycles = run::cycles(spec, seed, left, &out, &mut traced, &mut tally);
        metrics.extend(report::per_layer(&cycles, &traced));
        let path = out.join(format!("{}.trace.jsonl", spec.name));
        traced
            .rec
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        (metrics, cycles, traced.plain)
    } else {
        let mut plain = Plain::default();
        let cycles = run::cycles(spec, seed, seconds, &out, &mut plain, &mut tally);
        let io = report::page_io_per_cycle(&cycles, &plain);
        if io.iter().any(|v| *v != io[0]) {
            return Err(format!(
                "counted page I/O differs between identical cycles: {io:?}"
            ));
        }
        (report::end_to_end(spec, &cycles, &plain), cycles, plain)
    };
    let noisy = report::sentinel(&cycles).1 > report::NOISY_ABOVE;

    let metrics = validate(&metrics, trace)?;
    let metrics = Json::Obj(
        metrics
            .into_iter()
            .map(|(name, value, unit)| {
                (
                    name,
                    Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    );
    let result = [
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::num(tally.attempted as f64)),
        ("failed", Json::num(tally.failed as f64)),
        ("metrics", metrics),
    ];
    let cycles_json = cycles
        .iter()
        .map(|c| report::cycle_json(spec, c, &plain))
        .collect();
    let full = Json::obj(result.clone().into_iter().chain([
        ("workload", Json::str(spec.name)),
        ("seconds", Json::num(seconds)),
        ("trace", Json::Bool(trace)),
        ("noisy", Json::Bool(noisy)),
        ("env", env),
        ("cycles", Json::Arr(cycles_json)),
    ]));
    let path = out.join(format!("{}.trace{}.json", spec.name, trace as u8));
    std::fs::write(&path, format!("{full}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    if noisy {
        eprintln!("noisy: the host sentinel read more than 25 % above its floor during this run");
    }
    println!("{}", Json::obj(result));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("describe") => {
            println!(
                "{}",
                catalogue::pretty(&catalogue::benchmark_json(RUN_SECONDS))
            );
            Ok(())
        }
        _ => parse_args(&args).and_then(run),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("nsql-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
