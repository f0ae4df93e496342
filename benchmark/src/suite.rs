//! `all`: every workload, each in child processes of this binary, into
//! one report. `compare`: two reports against the bounds `BENCHMARK.json`
//! fixes — ROADMAP item 1's bench-diff.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::bench::END_TO_END;
use crate::host::Host;
use crate::json::{self, Json};
use crate::workloads::WORKLOADS;
use crate::{default_out_dir, write_file, Flags};

pub fn host_json(host: Host) -> Json {
    Json::obj([
        ("pinned", Json::Bool(host.pinned)),
        ("cpu", Json::Int(host.cpu as u64)),
        ("nproc", Json::Int(host.nproc as u64)),
        ("malloc_fixed", Json::Bool(host.malloc_fixed)),
    ])
}

/// Run this binary on one workload, echo the metrics it prints, and
/// return its `detail` object.
fn child(workload: &str, spans: Option<&Path>, flags: &Flags) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--trace",
        if spans.is_some() { "1" } else { "0" },
    ]);
    for name in ["--seed", "--seconds"] {
        if let Some(v) = flags.value(name) {
            cmd.args([name, v]);
        }
    }
    if flags.has("--smoke") {
        cmd.arg("--smoke");
    }
    if let Some(path) = spans {
        cmd.arg("--spans").arg(path);
    }
    // Its own process (inheriting the pin), so heap growth and VmHWM do
    // not leak from one workload into the next. stderr passes through.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix("detail ") {
            Some(d) => detail = Some(json::parse(d)?),
            // Pass the child's metric lines on; its last line repeats
            // them as the driver's result object.
            None if !line.starts_with('{') => println!("{line}"),
            None => {}
        }
    }
    detail.ok_or_else(|| format!("{workload}: child printed no detail line ({})", out.status))
}

/// `benchmark all`: returns whether every oracle passed.
pub fn all(args: &[String], host: Host) -> Result<bool, String> {
    let flags = Flags::new(args);
    let out_dir = default_out_dir();
    let report_path = flags
        .value("--out")
        .map_or_else(|| out_dir.join("report.json"), PathBuf::from);
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (name, _) in WORKLOADS {
        let timed = child(name, None, &flags)?;
        // Each span carries its workload, so one file per workload loses
        // nothing over one merged file.
        let span_file = out_dir.join(format!("spans-{name}.json"));
        let traced = child(name, Some(&span_file), &flags)?;
        let count = |d: &Json, k: &str| d.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let correct = [&timed, &traced]
            .iter()
            .all(|d| d.get("correct").and_then(Json::as_bool) == Some(true));
        all_correct &= correct;
        let (attempted, failed) = (count(&timed, "attempted"), count(&timed, "failed"));
        println!(
            "== {name}: {}",
            if correct {
                "oracle passed"
            } else {
                "ORACLE FAILED"
            }
        );
        workloads.push((
            name.to_string(),
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Int(attempted)),
                ("failed", Json::Int(failed)),
                (
                    "failed_share",
                    Json::Num(failed as f64 / attempted.max(1) as f64),
                ),
                (
                    "end_to_end",
                    timed.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                (
                    "per_layer",
                    traced.get("metrics").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }
    let report = Json::obj([
        ("schema", Json::str("swiftt-benchmark/1")),
        ("seed", Json::Int(flags.parsed("--seed", 1)?)),
        ("smoke", Json::Bool(flags.has("--smoke"))),
        ("host", host_json(host)),
        // Unpinned timings float between CPUs and do not repeat.
        (
            "comparable",
            Json::Bool(host.pinned && !flags.has("--smoke")),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    write_file(&report_path, &report.pretty())?;
    println!("report: {}", report_path.display());
    Ok(all_correct)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `benchmark compare A.json B.json`: one row per workload × end-to-end
/// metric with both medians and B/A; `unresolved` when either side's own
/// interquartile range is wider than the bound; returns false on any
/// regression.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let flags = Flags::new(args);
    let files: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    let [a_path, b_path] = files[..] else {
        return Err("usage: benchmark compare A.json B.json [--spec BENCHMARK.json]".to_string());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (path, report) in [(a_path, &a), (b_path, &b)] {
        if report.get("comparable").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "{path}: not comparable (a smoke run, or the CPU pin failed)"
            ));
        }
    }
    let spec = load(flags.value("--spec").unwrap_or("BENCHMARK.json"))?;
    let bounds = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("spec has no end_to_end list")?;

    let mut regressed = false;
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "B/A"
    );
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("A has no workloads")?;
    for (name, wa) in workloads {
        let wb = b
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or_else(|| format!("{b_path}: no workload {name}"))?;
        for (metric, _) in END_TO_END {
            let spec = bounds
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))
                .ok_or_else(|| format!("spec has no end-to-end metric {metric}"))?;
            let bound = spec.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower_is_better = spec.get("better").and_then(Json::as_str) == Some("lower");
            let field = |w: &Json, k: &str| {
                w.get("end_to_end")
                    .and_then(|e| e.get(metric))
                    .and_then(|m| m.get(k))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{name}.{metric}.{k} missing"))
            };
            let (ma, mb) = (field(wa, "median")?, field(wb, "median")?);
            // A run's own disagreement: the distance between its reps'
            // quartiles (max - min only grows with the number of reps).
            let spread = |w: &Json| -> Result<f64, String> {
                Ok((field(w, "q3")? - field(w, "q1")?) / field(w, "median")?)
            };
            let worse_by = if lower_is_better {
                mb / ma - 1.0
            } else {
                1.0 - mb / ma
            };
            let verdict = if spread(wa)? > bound || spread(wb)? > bound {
                "unresolved"
            } else if worse_by > bound {
                regressed = true;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "{name:<18} {metric:<12} {ma:>14.6} {mb:>14.6} {:>8.4}  {verdict} (base A = {ma:.6}, bound {bound})",
                mb / ma
            );
        }
        // Bound 0: any task that fails in B and did not in A regresses.
        let share = |w: &Json| w.get("failed_share").and_then(Json::as_f64).unwrap_or(1.0);
        let (fa, fb) = (share(wa), share(wb));
        let verdict = if fb > fa {
            regressed = true;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{name:<18} {:<12} {fa:>14.6} {fb:>14.6} {:>8}  {verdict} (bound 0)",
            "failed_share", "-"
        );
    }
    Ok(!regressed)
}
