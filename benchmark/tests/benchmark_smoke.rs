//! The benchmark run end to end at 1/20 size: every metric `BENCHMARK.json`
//! declares is printed for every workload, all six oracles pass, the
//! output parses, and `compare` gates what it should.
//!
//! Run with `cargo test --offline --manifest-path benchmark/Cargo.toml`.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use json::Json;

const WORKLOADS: [&str; 6] = [
    "bag_tcl",
    "pipeline_dataflow",
    "chain_serial",
    "interlang_leaves",
    "blob_native",
    "durable_bag",
];

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json readable"))
        .expect("BENCHMARK.json parses")
}

fn spec_path() -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../BENCHMARK.json")
        .display()
        .to_string()
}

/// A scratch directory under the build's own target directory.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// `(name, unit)` of every metric in one of the spec's lists.
fn declared(spec: &Json, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Json::as_arr)
        .expect("spec list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("metric field")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn name_is_clean(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The metrics object of a result or report entry must be exactly the
/// declared list, in order, each a finite number with the declared unit.
fn assert_metrics(got: &Json, want: &[(String, String)], value_key: &str, ctx: &str) {
    let got = got
        .as_obj()
        .unwrap_or_else(|| panic!("{ctx}: metrics object"));
    let names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, wanted, "{ctx}: metric names");
    for ((name, m), (_, unit)) in got.iter().zip(want) {
        assert!(name_is_clean(name), "{ctx}: name {name:?}");
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{ctx}: {name} unit"
        );
        let v = m.get(value_key).and_then(Json::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{ctx}: {name} = {v:?}");
    }
}

#[test]
fn spec_names_the_workloads() {
    let spec = spec();
    let names: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS);
    assert!(declared(&spec, "end_to_end")
        .iter()
        .any(|(n, u)| n == "setup_s" && u == "s"));
}

#[test]
fn driver_lines_match_the_spec() {
    let spec = spec();
    let dir = scratch("driver");
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let spans = dir.join("spans.json");
        let out = benchmark(&[
            "--workload",
            "pipeline_dataflow",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
            "--spans",
            spans.to_str().expect("utf-8 path"),
        ]);
        assert!(out.status.success(), "trace {trace}: {out:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        let last =
            json::parse(stdout.lines().last().expect("a last line")).expect("last line parses");
        let keys: Vec<&str> = last
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(last.get("failed"), Some(&Json::Int(0)));
        assert!(
            last.get("attempted")
                .and_then(Json::as_f64)
                .expect("attempted")
                >= 1.0
        );
        assert_metrics(
            last.get("metrics").expect("metrics"),
            &declared(&spec, list),
            "value",
            &format!("trace {trace}"),
        );
        if trace == "1" {
            let spans = json::parse(&std::fs::read_to_string(&spans).expect("spans written"))
                .expect("spans parse");
            let names: Vec<&str> = spans
                .as_arr()
                .expect("span array")
                .iter()
                .map(|s| s.get("name").and_then(Json::as_str).expect("span name"))
                .collect();
            for want in [
                "benchmark",
                "workload:pipeline_dataflow",
                "generate",
                "compile",
                "execute",
                "oracle",
                "adlb.notify_rtt_us",
            ] {
                assert!(names.contains(&want), "span {want} missing from {names:?}");
            }
        }
    }
}

#[test]
fn unknown_workload_prints_no_result() {
    let out = benchmark(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn all_workloads_report_every_metric_and_smoke_is_not_comparable() {
    let spec = spec();
    let dir = scratch("all");
    let report_path = dir.join("report.json");
    let report_arg = report_path.to_str().expect("utf-8 path");
    // `all` writes each workload's spans under the current directory's `out/`.
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "all",
            "--smoke",
            "--seed",
            "11",
            "--seconds",
            "1",
            "--out",
            report_arg,
        ])
        .current_dir(&dir)
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = json::parse(&std::fs::read_to_string(&report_path).expect("report written"))
        .expect("report parses");
    assert_eq!(report.get("smoke"), Some(&Json::Bool(true)));
    assert_eq!(report.get("comparable"), Some(&Json::Bool(false)));
    for w in WORKLOADS {
        let entry = report
            .get("workloads")
            .and_then(|ws| ws.get(w))
            .unwrap_or_else(|| panic!("{w} missing from report"));
        assert_eq!(entry.get("correct"), Some(&Json::Bool(true)), "{w} oracle");
        assert_eq!(
            entry.get("failed_share").and_then(Json::as_f64),
            Some(0.0),
            "{w}"
        );
        assert_metrics(
            entry.get("end_to_end").expect("end_to_end"),
            &declared(&spec, "end_to_end"),
            "median",
            w,
        );
        assert_metrics(
            entry.get("per_layer").expect("per_layer"),
            &declared(&spec, "per_layer"),
            "median",
            w,
        );
        let layer = |name: &str| {
            entry
                .get("per_layer")
                .and_then(|p| p.get(name))
                .and_then(|m| m.get("median"))
                .and_then(Json::as_f64)
                .expect("layer metric")
        };
        // The fault-tolerance tier writes on the durable workload only.
        let durable = w == "durable_bag";
        assert_eq!(
            layer("adlb.repl_ops_per_task") > 0.0,
            durable,
            "{w} repl ops"
        );
        assert_eq!(
            layer("pfs.bytes_written_per_task") > 0.0,
            durable,
            "{w} pfs bytes"
        );
        assert_eq!(layer("adlb.protocol_errors"), 0.0, "{w}");
    }
    assert!(dir.join("out/spans-durable_bag.json").exists());

    let out = benchmark(&["compare", report_arg, report_arg, "--spec", &spec_path()]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "compare must reject a smoke report"
    );
}

/// A synthetic comparable report with one workload.
fn report(dir: &Path, file: &str, rate: (f64, f64, f64), failed_share: f64) -> String {
    let metric = |median: f64, q1: f64, q3: f64| {
        Json::obj([
            ("median", Json::Num(median)),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            ("n", Json::Int(7)),
        ])
    };
    let r = Json::obj([
        ("comparable", Json::Bool(true)),
        (
            "workloads",
            Json::obj([(
                "bag_tcl",
                Json::obj([
                    ("failed_share", Json::Num(failed_share)),
                    (
                        "end_to_end",
                        Json::obj([
                            ("tasks_per_s", metric(rate.0, rate.1, rate.2)),
                            ("makespan_s", metric(1.0, 0.99, 1.01)),
                            ("setup_s", metric(0.003, 0.003, 0.003)),
                            ("peak_rss_mb", metric(30.0, 30.0, 30.0)),
                        ]),
                    ),
                ]),
            )]),
        ),
    ]);
    let path = dir.join(file);
    std::fs::write(&path, r.pretty()).expect("report written");
    path.display().to_string()
}

#[test]
fn compare_applies_the_bounds() {
    let dir = scratch("compare");
    let bound = spec()
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("tasks_per_s"))
        .and_then(|m| m.get("bound"))
        .and_then(Json::as_f64)
        .expect("tasks_per_s bound");
    let tight = |median: f64| (median, median * 0.99, median * 1.01);
    let inside = 1000.0 * (1.0 - bound / 2.0);
    let outside = 1000.0 * (1.0 - bound - 0.05);
    let base = report(&dir, "base.json", tight(1000.0), 0.0);
    let same = report(&dir, "same.json", tight(inside), 0.0);
    let slow = report(&dir, "slow.json", tight(outside), 0.0);
    let noisy = report(
        &dir,
        "noisy.json",
        (outside, outside * (1.0 - bound), outside * (1.0 + bound)),
        0.0,
    );
    let lossy = report(&dir, "lossy.json", tight(1000.0), 0.001);
    let run = |b: &str| {
        let out = benchmark(&["compare", &base, b, "--spec", &spec_path()]);
        (
            out.status.code(),
            String::from_utf8(out.stdout).expect("utf-8"),
        )
    };
    // Half the bound slower is not a regression.
    let (code, text) = run(&same);
    assert_eq!(code, Some(0), "{text}");
    // Past the bound is, reported with its base.
    let (code, text) = run(&slow);
    assert_eq!(code, Some(1), "{text}");
    assert!(
        text.contains("REGRESSION") && text.contains("base A = 1000"),
        "{text}"
    );
    // The same median with a spread wider than the bound decides nothing.
    let (code, text) = run(&noisy);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("unresolved"), "{text}");
    // failed_share has bound 0.
    let (code, text) = run(&lossy);
    assert_eq!(code, Some(1), "{text}");
}
