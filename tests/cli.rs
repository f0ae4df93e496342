//! Integration tests for the `swiftt` command-line launcher.

use std::process::Command;

fn swiftt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swiftt"))
}

#[test]
fn expr_runs_and_prints() {
    let out = swiftt()
        .args(["--expr", r#"printf("answer %d", 6 * 7);"#])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), "answer 42\n");
}

#[test]
fn script_file_with_args_and_report() {
    let dir = std::env::temp_dir().join("swiftt_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("prog.swift");
    std::fs::write(
        &path,
        r#"
        int n = toint(argv("n"));
        foreach i in [1:n] { trace(i); }
    "#,
    )
    .unwrap();
    let out = swiftt()
        .args(["-n", "5", "--arg", "n=3", "--report"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 3);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("swiftt report"));
    assert!(stderr.contains("leaf tasks"));
}

#[test]
fn report_shows_the_peak_resident_set() {
    let out = swiftt()
        .args(["--report", "--expr", "foreach i in [1:20] { trace(i); }"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .find_map(|l| l.strip_prefix("peak RSS           : "))
        .unwrap_or_else(|| panic!("no peak RSS line in\n{stderr}"));
    if cfg!(target_os = "linux") {
        let mb: f64 = line.strip_suffix(" MB").unwrap().parse().unwrap();
        assert!(mb > 0.0, "{line}");
    }
}

#[test]
fn emit_tcl_prints_turbine_code() {
    let out = swiftt()
        .args(["--emit-tcl", "--expr", "int x = 1 + 2; trace(x);"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("swt:ibinop + "));
    assert!(stdout.contains("---- main ----"));
}

#[test]
fn compile_error_sets_exit_code() {
    let out = swiftt().args(["--expr", "int x = nope;"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("undefined"), "{stderr}");
}

#[test]
fn runtime_error_sets_exit_code() {
    let out = swiftt()
        .args(["--expr", r#"assert(false, "boom");"#])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("boom"));
}

#[test]
fn unknown_flag_usage() {
    let out = swiftt().args(["--frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn nonsense_shape_exits_2_with_config_error() {
    // All servers, no client ranks: rejected by the runtime's up-front
    // config validation, mapped to the usage exit code.
    let out = swiftt()
        .args(["-n", "4", "-s", "4", "--expr", r#"printf("x");"#])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("configuration error"), "{stderr}");

    let out = swiftt()
        .args([
            "-n",
            "6",
            "-s",
            "2",
            "--replication",
            "3",
            "--expr",
            r#"printf("x");"#,
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("replication"), "{stderr}");

    // Too few ranks for an engine, a worker and a server: the same check.
    let out = swiftt()
        .args(["-n", "2", "--expr", r#"printf("x");"#])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("configuration error"), "{stderr}");
}

#[test]
fn the_environment_configures_nothing() {
    // The CI fault matrix's variables, set to per-op checkpointing, no
    // replication and no batching, must change nothing: the flags alone
    // say what runs.
    let run = |env: &[(&str, &str)]| {
        let out = swiftt()
            .args(["-n", "5", "-s", "2", "--report", "--expr"])
            .arg(r#"foreach i in [0:49] { printf("t%d", i); }"#)
            .envs(env.iter().copied())
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        // Two workers share the bag, so line order varies between runs.
        let mut lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(String::from)
            .collect();
        lines.sort_unstable();
        (lines, String::from_utf8_lossy(&out.stderr).into_owned())
    };
    let (plain, _) = run(&[]);
    assert_eq!(plain.len(), 50);
    let (got, stderr) = run(&[
        ("SWIFTT_CHECKPOINT", "1"),
        ("SWIFTT_REPLICATION", "1"),
        ("SWIFTT_BATCHING", "0"),
    ]);
    assert_eq!(got, plain);
    assert!(!stderr.contains("checkpoint flushes"), "{stderr}");
    // Two servers replicate at the default factor of 2.
    assert!(stderr.contains("replication ops    : "), "{stderr}");
}

#[test]
fn tenants_share_a_world_and_report_rows() {
    let dir = std::env::temp_dir().join("swiftt_cli_tenants");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.swift");
    let b = dir.join("b.swift");
    std::fs::write(&a, r#"foreach i in [1:4] { printf("aa"); }"#).unwrap();
    std::fs::write(&b, r#"foreach i in [1:2] { printf("bb"); }"#).unwrap();

    let out = swiftt()
        .args([
            "-n",
            "7",
            "--report",
            "--tenant",
            &format!("alpha:2:{}", a.display()),
            "--tenant",
            &format!("beta:1:{}", b.display()),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Tenant outputs are concatenated in tenant order, each matching what
    // the program prints solo.
    assert_eq!(stdout, "aa\naa\naa\naa\nbb\nbb\n");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--- tenants ---"), "{stderr}");
    assert!(stderr.contains("alpha"), "{stderr}");
    assert!(stderr.contains("beta"), "{stderr}");
}

#[test]
fn tenant_and_script_are_mutually_exclusive() {
    let out = swiftt()
        .args(["--tenant", "a:1:/dev/null", "--expr", r#"printf("x");"#])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not both"));
}

#[test]
fn verify_checkpoint_cli_round_trip() {
    let dir = std::env::temp_dir().join("swiftt_cli_fsck");
    std::fs::create_dir_all(&dir).unwrap();
    let image = dir.join("ckpt.img");
    let _ = std::fs::remove_file(&image);

    // Produce a checkpoint image, then fsck it offline.
    let out = swiftt()
        .args([
            "-n",
            "5",
            "--checkpoint",
            "1",
            "--checkpoint-file",
            image.to_str().unwrap(),
            "--expr",
            r#"foreach i in [1:6] { printf("line"); }"#,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = swiftt()
        .args(["--verify-checkpoint", image.to_str().unwrap()])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("clean"), "{stdout}");

    // A missing image is an I/O error (usage exit), not "corrupt".
    let out = swiftt()
        .args(["--verify-checkpoint", "/nonexistent/ckpt.img"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn a_reader_that_stops_early_ends_stdout_quietly() {
    use std::io::BufRead;
    let mut child = swiftt()
        .args(["-n", "4", "--expr"])
        .arg(r#"foreach i in [0:19999] { printf("line %d", i); }"#)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // Read one line, then close the pipe: the rest of the ~190 KB of
    // output meets a reader that is gone.
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("line "), "{first}");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}\n{stderr}", out.status);
}
