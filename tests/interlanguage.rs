//! Experiment E1 (correctness side): every interlanguage path of §III.
//!
//! Swift orchestrates code in Tcl (fragment templates), native code (a
//! registered library, the SWIG analogue), Python, R, and the shell — all
//! in one program when needed, which is the paper's headline capability:
//! "Swift scripts [can] orchestrate distributed execution of code written
//! in a wide variety of languages".

mod common;

use common::FreedExactly;
use swiftt::core::{NativeArg, NativeLibrary, Runtime};

#[test]
fn tcl_fragment_with_type_conversion() {
    // §III.A: inputs of different types are converted automatically; the
    // template is ordinary Tcl.
    let r = Runtime::new(3)
        .run(
            r#"
            (string o) describe (int n, float x, string tag) [
                "set <<o>> \"<<tag>>: [expr {<<n>> * 2}] and [format %.2f <<x>>]\""
            ];
            string s = describe(21, 2.5, "result");
            printf("%s", s);
        "#,
        )
        .unwrap()
        .freed_exactly();
    assert_eq!(r.stdout, "result: 42 and 2.50\n");
}

#[test]
fn multiline_tcl_fragment() {
    // §III.A second benefit: "short fragments of imperative code" via the
    // multiline string syntax.
    let r = Runtime::new(3)
        .run(
            r#"
            (int o) sum_to (int n) [
                "set acc 0
                 for {set k 1} {$k <= <<n>>} {incr k} { incr acc $k }
                 set <<o>> $acc"
            ];
            int s = sum_to(100);
            printf("%d", s);
        "#,
        )
        .unwrap()
        .freed_exactly();
    assert_eq!(r.stdout, "5050\n");
}

#[test]
fn python_leaf() {
    let r = Runtime::new(3)
        .run(
            r#"
            string out = python("total = 0
for i in range(5):
    total += i * i", "total");
            printf("py says %s", out);
        "#,
        )
        .unwrap()
        .freed_exactly();
    assert_eq!(r.stdout, "py says 30\n");
}

#[test]
fn r_leaf() {
    let r = Runtime::new(3)
        .run(
            r#"
            string m = r("x <- c(2, 4, 6, 8)", "mean(x)");
            printf("mean = %s", m);
        "#,
        )
        .unwrap()
        .freed_exactly();
    assert_eq!(r.stdout, "mean = 5\n");
}

#[test]
fn python_feeds_r() {
    // Cross-language pipeline: Python generates, R aggregates — chained
    // through Swift dataflow, no files, no exec.
    let r = Runtime::new(4)
        .run(
            r#"
            string data = python("parts = []
for i in range(1, 11):
    parts.append(str(i * 1.5))
out = ','.join(parts)", "out");
            string m = r(strcat("x <- c(", data, ")"), "sum(x)");
            printf("sum = %s", m);
        "#,
        )
        .unwrap()
        .freed_exactly();
    // 1.5 * (1+...+10) = 82.5
    assert_eq!(r.stdout, "sum = 82.5\n");
}

#[test]
fn shell_leaf() {
    let r = Runtime::new(3)
        .run(
            r#"
            string who = sh("echo swift-t");
            printf("[%s]", who);
        "#,
        )
        .unwrap()
        .freed_exactly();
    assert_eq!(r.stdout, "[swift-t]\n");
}

#[test]
fn native_library_with_blobs() {
    // §III.B: bulk binary data flows as blobs; the native function gets
    // raw bytes, not strings.
    let lib = NativeLibrary::new("vec", "1.0")
        .function("iota", |args| {
            let n = args[0].as_i64()? as usize;
            let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
            Ok(NativeArg::Blob(blobutils::Blob::from_f64s(&data)))
        })
        .function("dot", |args| {
            let a = args[0].as_blob()?.to_f64s().map_err(|e| e.to_string())?;
            let b = args[1].as_blob()?.to_f64s().map_err(|e| e.to_string())?;
            if a.len() != b.len() {
                return Err("length mismatch".into());
            }
            Ok(NativeArg::Float(a.iter().zip(&b).map(|(x, y)| x * y).sum()))
        });
    let r = Runtime::new(3)
        .native_library(lib)
        .run(
            r#"
            (blob o) iota (int n) "vec" "1.0" [ "set <<o>> [ vec::iota <<n>> ]" ];
            (float o) dot (blob a, blob b) "vec" "1.0" [ "set <<o>> [ vec::dot <<a>> <<b>> ]" ];
            blob v = iota(10);
            float d = dot(v, v);
            printf("dot = %.1f", d);
        "#,
        )
        .unwrap()
        .freed_exactly();
    // sum i^2, i=0..9 = 285.
    assert_eq!(r.stdout, "dot = 285.0\n");
}

#[test]
fn a_blob_copies_between_futures() {
    // `blob z = w` is an engine rule (`swt:copy_body`) that retrieves
    // `w` and stores it as `z`.
    let r = Runtime::new(3)
        .run(
            r#"
            (blob o) wave (int n) [ "set <<o>> [ blobutils_create_floats [ list 1.5 2.5 <<n>> ] ]" ];
            (float o) total (blob b) [ "set <<o>> [ blobutils_sum_floats <<b>> ]" ];
            blob w = wave(3);
            blob z = w;
            float s = total(z);
            float t = total(w);
            printf("%.1f %.1f", s, t);
        "#,
        )
        .unwrap().freed_exactly();
    assert_eq!(r.stdout, "7.0 7.0\n");
}

#[test]
fn all_languages_in_one_program() {
    let lib = NativeLibrary::new("nat", "1.0")
        .function("triple", |args| Ok(NativeArg::Int(args[0].as_i64()? * 3)));
    let r = Runtime::new(4)
        .native_library(lib)
        .run(
            r#"
            (int o) triple (int x) "nat" "1.0" [ "set <<o>> [ nat::triple <<x>> ]" ];
            (int o) tclsq (int x) [ "set <<o>> [ expr {<<x>> * <<x>>} ]" ];

            int a = triple(2);                      // native
            int b = tclsq(a);                       // tcl
            string c = python(strcat("v = ", fromint(b)), "v + 1");  // python
            string d = r(strcat("v <- ", c), "v * 2");               // r
            printf("chain: %s", d);
        "#,
        )
        .unwrap()
        .freed_exactly();
    // 2 → 6 → 36 → 37 → 74
    assert_eq!(r.stdout, "chain: 74\n");
}

#[test]
fn interpreter_output_is_captured() {
    // print()/cat() inside embedded interpreters lands in the rank's
    // stdout stream (worker side).
    let r = Runtime::new(3)
        .run(
            r#"
            string x = python("print('hello from python')", "0");
            trace(x);
        "#,
        )
        .unwrap()
        .freed_exactly();
    assert!(r.stdout.contains("hello from python"));
    assert!(r.stdout.contains("trace: 0"));
}
