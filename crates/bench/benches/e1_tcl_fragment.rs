//! E1 — §III.A: Tcl fragments with `<<var>>` templates.
//!
//! Measures the machinery behind the paper's "ease of exposing simple Tcl
//! snippets to Swift": STC compile time for leaf declarations, the cost of
//! evaluating a generated fragment, and the end-to-end latency of a
//! fragment call through the full distributed runtime.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use swiftt_core::Runtime;

const LEAF_PROGRAM: &str = r#"
    (int o) f (int i, int j) "my_package" "1.0" [
        "set <<o>> [ expr {<<i>> * <<j>> + 1} ]"
    ];
    int v = f(6, 7);
    trace(v);
"#;

fn bench_fragment(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_tcl_fragment");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(1));
    group.warm_up_time(std::time::Duration::from_millis(300));

    // Compile time for the §III.A example.
    group.bench_function("stc_compile_leaf_decl", |b| {
        b.iter(|| black_box(stc::compile(black_box(LEAF_PROGRAM)).unwrap()))
    });

    // Raw fragment evaluation in an embedded interpreter (what a worker
    // does per task, minus data-store traffic).
    let mut interp = tclish::Interp::new();
    interp
        .eval("proc frag {i j} { return [ expr {$i * $j + 1} ] }")
        .unwrap();
    group.bench_function("fragment_eval_in_interp", |b| {
        b.iter(|| black_box(interp.eval("frag 6 7").unwrap()))
    });

    // An unseen script each call. `eval` parses its text at every call,
    // so this differs from the repeated text above only in the text.
    let mut n = 0u64;
    group.bench_function("fragment_eval_uncached", |b| {
        b.iter(|| {
            n += 1;
            black_box(interp.eval(&format!("frag 6 {}", n % 1000)).unwrap())
        })
    });

    group.finish();

    // End-to-end: a whole machine boot + leaf call + shutdown.
    // (Too coarse for criterion; report once.) The leaf's declared
    // package must exist, as on a real deployment.
    let rt = Runtime::new(3).tcl_package("my_package", "1.0", "# empty package");
    let mut total = std::time::Duration::ZERO;
    let reps = 10;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        rt.run(LEAF_PROGRAM).unwrap();
        total += t.elapsed();
    }
    println!(
        "\nE1 end-to-end: full machine boot + fragment leaf + shutdown: {:.2} ms/run (n={reps})",
        total.as_secs_f64() * 1e3 / reps as f64
    );
}

criterion_group!(benches, bench_fragment);
criterion_main!(benches);
