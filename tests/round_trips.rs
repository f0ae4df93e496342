//! The control plane's message budget, as exact counts (no wall clock),
//! and the guarantee that spending fewer messages changes no output.
//!
//! `RunResult::messages` counts every point-to-point message of a run,
//! and `RunResult::bytes` their payload bytes.
//! The write-behind outbox is what separates the two protocols below;
//! the ceilings make a later change that quietly adds a round trip to
//! either path fail here rather than in a benchmark.

use swiftt::core::Runtime;

/// The benchmark's `bag_tcl` at a fixed seed: `n` independent one-line
/// Tcl leaves.
fn bag(n: usize) -> String {
    format!(
        "(int o) work (int i) [ \"set <<o>> [ expr {{<<i>> * 3 + 7}} ]\" ];\n\
         foreach i in [1:{n}] {{ int s = work(i); }}\n"
    )
}

/// The benchmark's `chain_serial`: `n` dependent statements.
fn chain(n: usize) -> String {
    let mut s = String::from(
        "(int o) inc (int i) [ \"set <<o>> [ expr {(<<i>> * 3 + 1) % 1000003} ]\" ];\nint x0 = 1;\n",
    );
    for k in 1..=n {
        s.push_str(&format!("int x{k} = inc(x{});\n", k - 1));
    }
    s.push_str(&format!("printf(\"final %d\", x{n});\n"));
    s
}

/// The benchmark's `pipeline_dataflow` without its checksum leaf: `n`
/// iterations of `t = f(i); u = g(t); v = u + t; out[i] = v`.
fn pipeline(n: usize) -> String {
    format!(
        "(int o) f (int i) [ \"set <<o>> [ expr {{3 * <<i>> + 5}} ]\" ];\n\
         (int o) g (int t) [ \"set <<o>> [ expr {{<<t>> % 7}} ]\" ];\n\
         int out[];\n\
         foreach i in [0:{last}] {{ int t = f(i); int u = g(t); int v = u + t; out[i] = v; }}\n\
         printf(\"n %d\", size(out));\n",
        last = n - 1
    )
}

fn run(batching: bool, src: &str, tasks: u64) -> swiftt::core::RunResult {
    let r = Runtime::new(4).batching(batching).run(src).expect("run");
    assert_eq!(r.total_tasks(), tasks);
    r
}

fn messages_per_task(batching: bool, src: &str, tasks: u64) -> f64 {
    run(batching, src, tasks).messages as f64 / tasks as f64
}

#[test]
fn a_bag_task_costs_at_most_1_2_messages_batched_and_at_least_12_unbatched() {
    // Batched, the engine's create/store/create/put per iteration leave
    // 64 to a message, the worker's input rides inside its task, and its
    // result store rides with its ack in the batch that leaves when the
    // prefetched tasks run out: what is left per task is a share of
    // those batches and of the prefetching get. Unbatched, the engine's
    // four requests are four round trips (8), and the worker's get (2),
    // store (2) and ack (1) add five (the E5 ablation).
    //
    // Bytes, batched: 263–265 per task in five runs of a debug build
    // (the task, its input and result, its ack, their share of the
    // engine's batches); the ceiling is that plus 10%.
    let r = run(true, &bag(2000), 2000);
    let (on, bytes) = (r.messages as f64 / 2000.0, r.bytes as f64 / 2000.0);
    let off = messages_per_task(false, &bag(2000), 2000);
    eprintln!("bag: {on:.2} messages/task batched ({bytes:.0} bytes), {off:.2} unbatched");
    assert!(on <= 1.2, "{on:.2} messages per task with batching on");
    assert!(bytes <= 291.0, "{bytes:.0} bytes per task with batching on");
    assert!(off >= 12.0, "{off:.2} messages per task with batching off");
}

#[test]
fn a_bag_task_stays_within_its_ceiling_on_two_servers_whatever_the_rank_count() {
    // A datum lives on its allocator's home server on every layout, so
    // an engine's creates and stores leave in the batches it sends home
    // anyway. Ids placed by parity alone would put every other datum of
    // an engine on its other server on 5 and 7 ranks, behind an awaited
    // flush there per iteration: about 5.6 messages per task.
    //
    // Workers homed on the engine's other server are fed by steals, whose
    // count follows timing; servers send nothing else to each other while
    // a run goes well. Twenty single runs of a debug build per rank count
    // read 0.68–1.00 on 5 ranks, 0.71–1.12 on 6 and 0.84–0.98 on 7. The
    // gate takes the least of three runs, as an extra message per
    // iteration raises every run.
    for ranks in [5, 6, 7] {
        let per_task = (0..3)
            .map(|_| {
                let r = Runtime::new(ranks)
                    .servers(2)
                    .replication(1)
                    .run(&bag(2000))
                    .expect("run");
                assert_eq!(r.total_tasks(), 2000);
                r.messages as f64 / 2000.0
            })
            .fold(f64::INFINITY, f64::min);
        eprintln!("bag on {ranks} ranks, 2 servers: {per_task:.2} messages/task (least of 3)");
        assert!(
            per_task <= 1.2,
            "{ranks} ranks: {per_task:.2} messages per task"
        );
    }
}

#[test]
fn a_chain_hop_stays_within_its_message_ceiling() {
    // The serial path, per hop: the worker's get and delivery, one batch
    // carrying result and ack (3) — its input came inside the task; the
    // engine's notification delivery, which carries the value it puts on
    // with the next task, one answered batch carrying that put beside the
    // notification's ack, and its next get (4). Nothing waits in an
    // outbox across a blocking get, so batching may only ever remove
    // messages here.
    let hops = 500;
    let on = messages_per_task(true, &chain(hops), hops as u64 + 1);
    let off = messages_per_task(false, &chain(hops), hops as u64 + 1);
    eprintln!("chain: {on:.2} messages/hop batched, {off:.2} unbatched");
    assert!(on <= 7.5, "{on:.2} messages per hop with batching on");
    assert!(off <= 14.5, "{off:.2} messages per hop with batching off");
}

#[test]
fn a_pipeline_leaf_reads_no_value_its_rank_already_holds() {
    // Per iteration the engine stores `i`, learns `t` and `u` from their
    // close notifications and stores `v` itself, so neither it nor the
    // workers (whose tasks carry `i` and `t`) retrieve anything: 14 data
    // ops per two leaves — four creates, the store of `i`, three
    // subscribes, two writer-count changes, the workers' two stores, the
    // store of `v` and the array insert.
    //
    // Messages: each of the engine's three notifications per iteration
    // runs a fragment that writes (the put of `g`, the store of `v`, the
    // insert of `v`). An engine's writes are its program's, never its
    // notifications', so they wait in the outbox beside those acks, and a
    // whole prefetched batch of notifications shares one answered flush
    // and one get. Everything is shared by many tasks — those flushes and
    // gets, the workers' prefetching gets and the batches carrying their
    // stores and acks, and the loop's creates, stores and puts, 64 to a
    // batch.
    //
    // Bytes: 414–416 per leaf task in five runs of a debug build; the
    // ceiling is that plus 10%.
    let n = 1000;
    let leaves = 2 * n as u64 + 1;
    let r = run(true, &pipeline(n), leaves);
    let msgs = r.messages as f64 / leaves as f64;
    let bytes = r.bytes as f64 / leaves as f64;
    let ops = r.server_totals().data_ops as f64 / leaves as f64;
    eprintln!("pipeline: {msgs:.2} messages, {bytes:.0} bytes and {ops:.2} data ops per leaf task");
    assert_eq!(r.stdout, format!("n {n}\n"));
    assert!(msgs <= 2.2, "{msgs:.2} messages per leaf task");
    assert!(bytes <= 458.0, "{bytes:.0} bytes per leaf task");
    assert!(ops <= 7.1, "{ops:.2} data ops per leaf task");
}

/// Every Swift program written as a raw string in `tests/` and
/// `examples/` (whatever else those strings are — Tcl, Python, expected
/// output — fails to compile and is skipped).
fn harvested_programs() -> Vec<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut programs = Vec::new();
    for dir in ["tests", "examples"] {
        let mut files: Vec<_> = std::fs::read_dir(root.join(dir))
            .expect("source directory")
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .filter(|p| !p.ends_with("round_trips.rs"))
            .collect();
        files.sort();
        for file in files {
            let text = std::fs::read_to_string(&file).expect("readable source");
            let mut rest = text.as_str();
            while let Some(at) = rest.find("r#\"") {
                let body = &rest[at + 3..];
                let Some(end) = body.find("\"#") else { break };
                programs.push((
                    format!("{}#{}", file.display(), programs.len()),
                    body[..end].to_string(),
                ));
                rest = &body[end + 2..];
            }
        }
    }
    programs
}

#[test]
fn batching_changes_no_programs_output() {
    // Rank-order concatenation interleaves workers differently from run
    // to run, so stdout is compared as a sorted multiset of lines — the
    // same comparison every other test in this directory makes.
    let sorted = |s: &str| {
        let mut lines: Vec<String> = s.lines().map(str::to_string).collect();
        lines.sort_unstable();
        lines
    };
    let mut compared = 0;
    for (name, src) in harvested_programs() {
        if swiftt::stc::compile(&src).is_err() {
            continue;
        }
        let on = Runtime::new(5).batching(true).run(&src);
        let off = Runtime::new(5).batching(false).run(&src);
        match (on, off) {
            (Ok(a), Ok(b)) => {
                assert_eq!(sorted(&a.stdout), sorted(&b.stdout), "{name}\n{src}");
                assert_eq!(a.total_tasks(), b.total_tasks(), "{name}\n{src}");
                compared += 1;
            }
            // Programs that need a native library, argv or a package the
            // harvest cannot supply — or that deadlock on purpose — must
            // fail both ways.
            (Err(_), Err(_)) => {}
            (a, b) => panic!(
                "{name}: batching on {:?}, off {:?}\n{src}",
                a.map(|r| r.stdout),
                b.map(|r| r.stdout)
            ),
        }
    }
    assert!(compared >= 60, "only {compared} programs ran both ways");
}
