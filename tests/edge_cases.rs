//! Edge cases across the stack: empty iterations, error propagation from
//! every leaf kind, main-block sugar, scale smoke.

use swiftt::core::{Runtime, SwiftTError};

#[test]
fn empty_range_foreach_completes() {
    // end < start: zero iterations, and the container reservation
    // bookkeeping must still release cleanly.
    let r = Runtime::new(4)
        .run(
            r#"
            int A[];
            foreach i in [5:2] {
                A[i] = i;
            }
            trace(size(A));
        "#,
        )
        .unwrap();
    assert_eq!(r.stdout, "trace: 0\n");
}

#[test]
fn empty_array_foreach_completes() {
    let r = Runtime::new(4)
        .run(
            r#"
            int A[];
            foreach v, k in A {
                trace(v);
            }
            trace(size(A));
        "#,
        )
        .unwrap();
    assert_eq!(r.stdout, "trace: 0\n");
}

#[test]
fn single_iteration_range() {
    let r = Runtime::new(4)
        .run("foreach i in [7:7] { trace(i); }")
        .unwrap();
    assert_eq!(r.stdout, "trace: 7\n");
}

#[test]
fn main_block_sugar_runs() {
    let r = Runtime::new(3)
        .run("main { printf(\"from main\"); }")
        .unwrap();
    assert_eq!(r.stdout, "from main\n");
}

#[test]
fn failing_shell_command_is_an_error() {
    let err = Runtime::new(3)
        .run(r#"string x = sh("exit 3"); trace(x);"#)
        .unwrap_err();
    match err {
        SwiftTError::Runtime(m) => {
            assert!(
                m.contains("exited abnormally") || m.contains("child"),
                "{m}"
            )
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn r_error_propagates_with_r_flavor() {
    let err = Runtime::new(3)
        .run(r#"string x = r("", "nonexistent_function(1)"); trace(x);"#)
        .unwrap_err();
    match err {
        SwiftTError::Runtime(m) => {
            assert!(m.contains("could not find function"), "{m}")
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn tcl_leaf_error_propagates() {
    let err = Runtime::new(3)
        .run(
            r#"
            (int o) bad (int i) [ "error {template exploded}" ];
            int x = bad(1);
            trace(x);
        "#,
        )
        .unwrap_err();
    match err {
        SwiftTError::Runtime(m) => assert!(m.contains("template exploded"), "{m}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn multibyte_expr_in_a_leaf_fails_the_task_not_the_rank() {
    // The expr tokenizer once panicked on a non-ASCII byte, taking the
    // worker's rank thread down with it. Now it is one task's Tcl error:
    // retried, quarantined, and reported; the run ends instead of hanging.
    use std::sync::mpsc::{channel, RecvTimeoutError};
    let (done, finished) = channel();
    let run = std::thread::spawn(move || {
        let result = Runtime::new(3).run(
            r#"
            (int o) bad (int i) [ "set <<o>> [ expr {<<i>> +é} ]" ];
            trace(bad(1));
        "#,
        );
        let _ = done.send(());
        result
    });
    // A panic drops the sender and ends the wait too; the join tells.
    let waited = finished.recv_timeout(std::time::Duration::from_secs(60));
    assert_ne!(waited, Err(RecvTimeoutError::Timeout), "the run hangs");
    match run.join().expect("no rank panics").unwrap_err() {
        SwiftTError::Runtime(m) => {
            assert!(m.contains("unexpected character 'é' in expression"), "{m}");
            assert!(m.contains("quarantined after"), "{m}");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn native_error_propagates() {
    use swiftt::core::NativeLibrary;
    let lib = NativeLibrary::new("n", "1.0").function("die", |_| Err("native sadness".into()));
    let err = Runtime::new(3)
        .native_library(lib)
        .run(
            r#"
            (int o) die (int i) "n" "1.0" [ "set <<o>> [ n::die <<i>> ]" ];
            trace(die(1));
        "#,
        )
        .unwrap_err();
    match err {
        SwiftTError::Runtime(m) => assert!(m.contains("native sadness"), "{m}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn zero_statement_program() {
    let r = Runtime::new(3).run("// nothing but a comment\n").unwrap();
    assert_eq!(r.stdout, "");
    assert_eq!(r.total_tasks(), 0);
}

#[test]
fn thousand_task_smoke() {
    let r = Runtime::new(20)
        .servers(2)
        .run(
            r#"
            (int o) bump (int i) [ "set <<o>> [ expr {<<i>> + 1} ]" ];
            int done[];
            foreach i in [1:1000] {
                done[i] = bump(i);
            }
            printf("%d", size(done));
        "#,
        )
        .unwrap();
    assert_eq!(r.stdout, "1000\n");
    assert_eq!(r.total_tasks(), 1001); // 1000 bumps + printf
    assert!(r.busy_workers() >= 8);
}

#[test]
fn negative_numbers_and_unary_minus() {
    let r = Runtime::new(4)
        .run(
            r#"
            int a = -5;
            int b = -a;
            float f = -2.5;
            float g = -f;
            printf("%d %d %.1f %.1f", a, b, f, g);
        "#,
        )
        .unwrap();
    assert_eq!(r.stdout, "-5 5 -2.5 2.5\n");
}

#[test]
fn comments_everywhere() {
    let r = Runtime::new(3)
        .run(
            r#"
            // line comment
            # hash comment
            /* block
               comment */
            int x = 1; // trailing
            trace(x);
        "#,
        )
        .unwrap();
    assert_eq!(r.stdout, "trace: 1\n");
}

#[test]
fn boolean_used_as_int_in_arithmetic() {
    let r = Runtime::new(4)
        .run(
            r#"
            boolean b = 3 < 5;
            int sum = b + 10;
            trace(sum);
        "#,
        )
        .unwrap();
    assert_eq!(r.stdout, "trace: 11\n");
}

#[test]
fn a_4_kib_string_flows_through_a_rule_and_a_leaf_intact() {
    // A close notification and a task envelope carry values up to 1 KiB;
    // a bigger one is read from the server at every hop instead. Either
    // way, the bytes that arrive are the bytes stored.
    let big: String = (0..4096u32)
        .map(|i| char::from(b'a' + (i % 26) as u8))
        .collect();
    for s in [&big[..], &big[..1000]] {
        let src = format!(
            "(string o) echo (string s) [ \"set <<o>> <<s>>\" ];\n\
             string a = \"{s}\";\n\
             string b = strcat(a, \"!\");\n\
             string c = echo(b);\n\
             printf(\"%s\", c);\n"
        );
        let r = Runtime::new(4).run(&src).unwrap();
        assert_eq!(r.stdout, format!("{s}!\n"), "{} bytes", s.len());
    }
}
