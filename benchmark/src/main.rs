//! The repository's benchmark: six Swift workloads driven through the
//! real `swiftt_core::Runtime` from source to oracle-checked output, and
//! each crate measured from outside. See `README.md` beside this crate.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--spans FILE]
//! benchmark all [--seed N] [--seconds S] [--smoke] [--out FILE]
//! benchmark compare A.json B.json [--spec BENCHMARK.json]
//! ```

mod bench;
mod host;
mod json;
mod micro;
mod spans;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{Config, Outcome};
use host::Host;
use json::Json;

/// Exit codes: 0 pass, 1 an oracle failed or a metric regressed, 2 the
/// command line or an input file was unusable.
const EXIT_FAILED: u8 = 1;
const EXIT_USAGE: u8 = 2;

fn main() -> ExitCode {
    // Before anything else: threads and children inherit the pin.
    let host = host::fix();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => suite::all(&args[1..], host),
        Some("compare") => suite::compare(&args[1..]),
        _ => one_workload(&args, host),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(EXIT_FAILED),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

/// `--name value` pairs and bare `--flag`s, in any order.
pub struct Flags<'a>(&'a [String]);

impl<'a> Flags<'a> {
    pub fn new(args: &'a [String]) -> Self {
        Flags(args)
    }

    pub fn value(&self, name: &str) -> Option<&'a str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value \"{v}\" for {name}")),
        }
    }

    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

/// Where spans go unless told otherwise: the benchmark's ignored `out/`.
pub fn default_out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

pub fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The driver's entry: measure one workload, print every metric by name
/// with its unit, then a `detail` line (what `all` collects), then the
/// result object as the last line.
fn one_workload(args: &[String], host: Host) -> Result<bool, String> {
    let flags = Flags::new(args);
    let cfg = Config {
        workload: flags
            .value("--workload")
            .ok_or("usage: benchmark --workload W --seed N --seconds S --trace 0|1")?
            .to_string(),
        seed: flags.parsed("--seed", 1)?,
        seconds: flags.parsed("--seconds", 10.0)?,
        trace: match flags.value("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad value \"{other}\" for --trace")),
        },
        smoke: flags.has("--smoke"),
    };
    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
        return Err(format!("--seconds {} is outside 0..600", cfg.seconds));
    }
    if !host.pinned {
        eprintln!(
            "benchmark: could not pin to one CPU ({} allowed); timings below are NOT comparable",
            host.nproc
        );
    }
    let (outcome, spans) = bench::run(&cfg)?;
    if cfg.trace {
        let path = flags
            .value("--spans")
            .map_or_else(|| default_out_dir().join("spans.json"), PathBuf::from);
        write_file(&path, &spans.pretty())?;
    }

    println!(
        "# workload {} seed {} seconds {} trace {} smoke {} pinned {} cpu {} nproc {} malloc_fixed {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        cfg.smoke,
        host.pinned,
        host.cpu,
        host.nproc,
        host.malloc_fixed
    );
    for (name, unit, s) in &outcome.metrics {
        if s.n > 1 {
            println!(
                "{name:<38} {:>16.6} {unit:<6} min {:.6} max {:.6} n {}",
                s.median, s.min, s.max, s.n
            );
        } else {
            println!("{name:<38} {:>16.6} {unit}", s.median);
        }
    }
    println!(
        "failed_share {} ({} of {} tasks)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("detail {}", detail(&cfg, host, &outcome));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(outcome.correct)),
            ("attempted", Json::Int(outcome.attempted)),
            ("failed", Json::Int(outcome.failed)),
            (
                "metrics",
                Json::obj(outcome.metrics.iter().map(|(name, unit, s)| {
                    (
                        *name,
                        Json::obj([("value", Json::Num(s.median)), ("unit", Json::str(*unit))]),
                    )
                })),
            ),
        ])
    );
    Ok(outcome.correct)
}

fn detail(cfg: &Config, host: Host, outcome: &Outcome) -> Json {
    Json::obj([
        ("workload", Json::str(&cfg.workload)),
        ("seed", Json::Int(cfg.seed)),
        ("seconds", Json::Num(cfg.seconds)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("host", suite::host_json(host)),
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|(name, unit, s)| {
                (
                    *name,
                    Json::obj([
                        ("median", Json::Num(s.median)),
                        ("q1", Json::Num(s.q1)),
                        ("q3", Json::Num(s.q3)),
                        ("min", Json::Num(s.min)),
                        ("max", Json::Num(s.max)),
                        ("n", Json::Int(s.n as u64)),
                        ("unit", Json::str(*unit)),
                    ]),
                )
            })),
        ),
    ])
}
