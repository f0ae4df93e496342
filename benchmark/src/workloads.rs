//! The six workloads: Swift source generated from a seed, the machine
//! each runs on, and an oracle computed in plain Rust.
//!
//! The program under test receives only the generated Swift source (plus
//! the harness's native library and Tcl package). `seed` permutes leaf
//! arguments, fragment constants and blob contents; it never changes a
//! task count, because N selects the regime a workload measures.

use std::sync::Arc;

use blobutils::Blob;
use pfs::{Pfs, PfsConfig};
use swiftt_core::{NativeArg, NativeLibrary, RunResult, Runtime};

/// Names in reporting order, each with its full problem size
/// (iterations, statements or tasks). Why each exists and why this size:
/// `BENCHMARK.json` in one line, `README.md` at length.
pub const WORKLOADS: [(&str, usize); 6] = [
    ("bag_tcl", 20_000),
    ("pipeline_dataflow", 6_000),
    ("chain_serial", 4_000),
    ("interlang_leaves", 800),
    ("blob_native", 800),
    ("durable_bag", 5_000),
];

/// The bags print one sampled line per this many tasks, so the hot path
/// stays a bare `set`/`expr` and the oracle still sees real results.
const BAG_SAMPLE_EVERY: usize = 500;
/// Inner loop length of each `interlang_leaves` leaf.
pub const LEAF_LOOP: usize = 1_000;
/// f64 elements per `blob_native` blob (64 KiB).
pub const BLOB_ELEMS: usize = 8_192;

/// SplitMix64: the only randomness in the benchmark.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x243F_6A88_85A3_08D3) ^ 0x1319_8A2E_0370_7344)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

/// One generated problem: what to run, where, and what must come out.
pub struct Instance {
    pub workload: &'static str,
    /// Swift source at size `n`.
    pub source: String,
    /// The N=0 variant: same leaf definitions, library, package, rank
    /// layout and tier settings, no steady-state work.
    pub setup_source: String,
    /// Leaf tasks the run must execute, exactly.
    pub expected_tasks: u64,
    /// Lines the run must print (compared as sorted multisets, since
    /// rank-order concatenation interleaves workers).
    pub expected_lines: Vec<String>,
    /// The same two for the N=0 variant.
    pub setup_tasks: u64,
    pub setup_lines: Vec<String>,
    machine: Machine,
    /// The workload's own leaf fragments as bare interpreter calls, for
    /// `breakdown.leaf_floor_us`.
    pub leaf_floor: LeafFloor,
}

/// Rank layout and server-tier settings.
#[derive(Clone, Copy)]
struct Machine {
    ranks: usize,
    servers: usize,
    replication: usize,
    checkpoint: usize,
}

const PLAIN: Machine = Machine {
    ranks: 4,
    servers: 1,
    replication: 1,
    checkpoint: 0,
};

const DURABLE: Machine = Machine {
    ranks: 5,
    servers: 2,
    replication: 2,
    checkpoint: 64,
};

/// What a bare-interpreter evaluation of one iteration's leaves needs.
pub enum LeafFloor {
    /// Tcl fragments, `@I@` replaced by the iteration index; `per_iter`
    /// leaf tasks per fragment evaluation.
    Tcl { fragment: String, per_iter: u64 },
    /// The interlanguage pipeline with these constants.
    Interlang(InterlangConsts),
    /// The blob pipeline through the native library's Tcl binding.
    Blob,
}

/// Workers on every machine (closed loop: each asks for its next task
/// when the last is done).
pub const WORKERS: usize = 2;

impl Instance {
    /// A configured machine. Every tier knob is set explicitly so no
    /// `SWIFTT_*` environment variable can change what is measured. The
    /// durable workload gets a fresh checkpoint store per call; it is
    /// returned so the caller can read `Pfs::stats()` after the run.
    pub fn runtime(&self, tracing: bool) -> (Runtime, Option<Arc<Pfs>>) {
        let m = self.machine;
        let mut rt = Runtime::new(m.ranks)
            .servers(m.servers)
            .batching(true)
            .replication(m.replication)
            .re_replication(true)
            .checkpoint(m.checkpoint)
            .tracing(tracing)
            .native_library(native_library())
            .tcl_package("benchutil", "1.0", BENCHUTIL_TCL);
        debug_assert_eq!(rt.workers(), WORKERS);
        let store = (m.checkpoint > 0).then(|| Arc::new(Pfs::new(PfsConfig::default())));
        if let Some(fs) = &store {
            rt = rt.checkpoint_store(fs.clone());
        }
        (rt, store)
    }

    /// Check one run against the oracle. Returns the number of expected
    /// tasks that did not complete correctly (0 = pass); a wrong output
    /// line fails the whole rep.
    pub fn failed_tasks(&self, r: &RunResult) -> u64 {
        failed_tasks_of(r, self.expected_tasks, &self.expected_lines)
    }

    /// The same check for a run of the N=0 variant.
    pub fn setup_passes(&self, r: &RunResult) -> bool {
        failed_tasks_of(r, self.setup_tasks, &self.setup_lines) == 0
    }
}

fn failed_tasks_of(r: &RunResult, tasks: u64, lines: &[String]) -> u64 {
    let mut got: Vec<&str> = r.stdout.lines().collect();
    got.sort_unstable();
    let mut want: Vec<&str> = lines.iter().map(String::as_str).collect();
    want.sort_unstable();
    if got != want {
        return tasks.max(1);
    }
    let ok = r.total_tasks().saturating_sub(r.total_tasks_failed());
    let missing = tasks.saturating_sub(ok);
    // Extra tasks (a retry that should not have happened) are as wrong
    // as missing ones.
    missing + r.total_tasks().saturating_sub(tasks) + r.total_tasks_failed()
}

/// Generate workload `name` (one of [`WORKLOADS`]) at size `n` from `seed`.
pub fn generate(name: &str, n: usize, seed: u64) -> Instance {
    let mut rng = Rng::new(seed);
    match name {
        "bag_tcl" => bag("bag_tcl", n, &mut rng, PLAIN),
        "durable_bag" => bag("durable_bag", n, &mut rng, DURABLE),
        "pipeline_dataflow" => pipeline(n, &mut rng),
        "chain_serial" => chain(n, &mut rng),
        "interlang_leaves" => interlang(n, &mut rng),
        "blob_native" => blob(n, seed),
        other => unreachable!("{other} is not in WORKLOADS"),
    }
}

// ---- bag_tcl / durable_bag ------------------------------------------------

fn bag(workload: &'static str, n: usize, rng: &mut Rng, machine: Machine) -> Instance {
    let a = rng.range(2, 9);
    let b = rng.range(1, 999);
    let leaf = format!(
        r#"(int o) work (int i) [
    "set <<o>> [ expr {{<<i>> * {a} + {b}}} ]
     if {{<<i>> % {BAG_SAMPLE_EVERY} == 0}} {{ puts \"sample <<i>> $<<o>>\" }}"
];
"#
    );
    let program = |n: usize| format!("{leaf}foreach i in [1:{n}] {{\n    int s = work(i);\n}}\n");
    let expected_lines = (1..=n)
        .filter(|i| i % BAG_SAMPLE_EVERY == 0)
        .map(|i| format!("sample {i} {}", i as i64 * a + b))
        .collect();
    Instance {
        workload,
        source: program(n),
        setup_source: program(0),
        expected_tasks: n as u64,
        expected_lines,
        setup_tasks: 0,
        setup_lines: Vec::new(),
        machine,
        leaf_floor: LeafFloor::Tcl {
            fragment: format!(
                "set o [ expr {{@I@ * {a} + {b}}} ]\nif {{@I@ % {BAG_SAMPLE_EVERY} == 0}} {{ set line \"sample @I@ $o\" }}"
            ),
            per_iter: 1,
        },
    }
}

// ---- pipeline_dataflow ----------------------------------------------------

fn pipeline(n: usize, rng: &mut Rng) -> Instance {
    let a = rng.range(2, 9);
    let b = rng.range(1, 99);
    let m = rng.range(3, 17);
    let leaves = format!(
        r#"(int o) f (int i) [ "set <<o>> [ expr {{{a} * <<i>> + {b}}} ]" ];
(int o) g (int t) [ "set <<o>> [ expr {{<<t>> % {m}}} ]" ];
(int o) checksum (int a[]) "benchutil" "1.0" [ "set <<o>> [ benchutil::sum <<a>> ]" ];
"#
    );
    // `[0:-1]` is Swift's empty range, so N=0 keeps every declaration.
    let program = |n: usize| {
        format!(
            "{leaves}int out[];\nforeach i in [0:{last}] {{\n    int t = f(i);\n    int u = g(t);\n    int v = u + t;\n    out[i] = v;\n}}\nint c = checksum(out);\nprintf(\"checksum %d\", c);\n",
            last = n as i64 - 1
        )
    };
    let sum: i64 = (0..n as i64)
        .map(|i| {
            let t = a * i + b;
            t % m + t
        })
        .sum();
    Instance {
        workload: "pipeline_dataflow",
        source: program(n),
        setup_source: program(0),
        // f and g per iteration, then the checksum leaf and the printf.
        expected_tasks: 2 * n as u64 + 2,
        expected_lines: vec![format!("checksum {sum}")],
        setup_tasks: 2,
        setup_lines: vec!["checksum 0".to_string()],
        machine: PLAIN,
        leaf_floor: LeafFloor::Tcl {
            fragment: format!("set t [ expr {{{a} * @I@ + {b}}} ]\nset u [ expr {{$t % {m}}} ]"),
            per_iter: 2,
        },
    }
}

// ---- chain_serial ---------------------------------------------------------

const CHAIN_MOD: i64 = 1_000_003;

fn chain(n: usize, rng: &mut Rng) -> Instance {
    let mul = rng.range(2, 9);
    let add = rng.range(1, 999);
    let start = rng.range(1, 999);
    let leaf = format!(
        "(int o) inc (int i) [ \"set <<o>> [ expr {{(<<i>> * {mul} + {add}) % {CHAIN_MOD}}} ]\" ];\n"
    );
    let program = |n: usize| {
        let mut s = String::with_capacity(32 * n + 256);
        s.push_str(&leaf);
        s.push_str(&format!("int x0 = {start};\n"));
        for k in 1..=n {
            s.push_str(&format!("int x{k} = inc(x{});\n", k - 1));
        }
        s.push_str(&format!("printf(\"final %d\", x{n});\n"));
        s
    };
    let fin = (0..n).fold(start, |x, _| (x * mul + add) % CHAIN_MOD);
    Instance {
        workload: "chain_serial",
        source: program(n),
        setup_source: program(0),
        expected_tasks: n as u64 + 1,
        expected_lines: vec![format!("final {fin}")],
        // No hops: the printf of the start value.
        setup_tasks: 1,
        setup_lines: vec![format!("final {start}")],
        machine: PLAIN,
        leaf_floor: LeafFloor::Tcl {
            fragment: format!("set o [ expr {{(@I@ * {mul} + {add}) % {CHAIN_MOD}}} ]"),
            per_iter: 1,
        },
    }
}

// ---- interlang_leaves -----------------------------------------------------

/// Fragment constants of the interlanguage pipeline.
#[derive(Clone, Copy)]
pub struct InterlangConsts {
    pub tcl_mul: i64,
    pub tcl_mod: i64,
    pub py_mul: i64,
    pub py_mod: i64,
    pub r_mod: i64,
}

/// The expression half of the `r(code, expr)` leaf.
pub const R_EXPR: &str = "round(mean(v) + sd(v))";

/// `bk::mix`: the native rung. Shared by the library the workers call
/// and the oracle, as a SWIG-wrapped C function would be.
pub fn mix(x: i64) -> i64 {
    let mut z = (x as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % 1_000_000) as i64
}

impl InterlangConsts {
    pub fn tcl_fragment(&self, i: &str) -> String {
        format!(
            "set acc 0\nfor {{set k 0}} {{$k < {LEAF_LOOP}}} {{incr k}} {{ set acc [ expr {{($acc + $k * {i}) % {}}} ] }}\nset a [ expr {{$acc * {} + {i}}} ]",
            self.tcl_mod, self.tcl_mul
        )
    }

    pub fn python_code(&self) -> String {
        format!(
            "def walk(s):\n    t = s\n    for j in range({LEAF_LOOP}):\n        t = (t * {} + j) % {}\n    return t\n",
            self.py_mul, self.py_mod
        )
    }

    pub fn r_code(&self, p: &str) -> String {
        format!("v <- (1:{LEAF_LOOP}) * ({p} %% {} + 1)", self.r_mod)
    }

    /// One pipeline's result, in plain Rust.
    pub fn expect(&self, i: i64) -> i64 {
        let mut acc = 0i64;
        for k in 0..LEAF_LOOP as i64 {
            acc = (acc + k * i) % self.tcl_mod;
        }
        let a = acc * self.tcl_mul + i;
        let b = mix(a);
        let mut t = b;
        for j in 0..LEAF_LOOP as i64 {
            t = (t * self.py_mul + j) % self.py_mod;
        }
        let k = (t % self.r_mod + 1) as f64;
        let n = LEAF_LOOP as f64;
        let mean = k * (n + 1.0) / 2.0;
        // sd of k*(1..n) = k * sqrt(n(n+1)/12).
        let sd = k * (n * (n + 1.0) / 12.0).sqrt();
        (mean + sd).round() as i64
    }
}

fn interlang(n: usize, rng: &mut Rng) -> Instance {
    let c = InterlangConsts {
        tcl_mul: rng.range(2, 9),
        tcl_mod: rng.range(900_000, 999_999),
        py_mul: rng.range(3, 99),
        py_mod: rng.range(900_000, 999_999),
        r_mod: rng.range(50, 99),
    };
    // The R step is a fragment too: `r(code, expr)` with the Python
    // result spliced into the code by strcat.
    let r_code = c.r_code("@P@");
    let (r_head, r_tail) = r_code.split_once("@P@").expect("placeholder present");
    let leaves = format!(
        r#"(int a) tloop (int i) [
    "{tcl}"
];
(int o) nat (int x) "bk" "1.0" [ "set <<o>> [ bk::mix <<x>> ]" ];
(int o) checksum (int a[]) "benchutil" "1.0" [ "set <<o>> [ benchutil::sum <<a>> ]" ];
"#,
        tcl = c.tcl_fragment("<<i>>").replace("set a [", "set <<a>> [")
    );
    let py = c.python_code().replace('\n', "\\n");
    let program = |n: usize| {
        format!(
            "{leaves}int res[];\nforeach i in [1:{n}] {{\n    int a = tloop(i);\n    int b = nat(a);\n    string p = python(\"{py}\", strcat(\"walk(\", fromint(b), \")\"));\n    string q = r(strcat(\"{r_head}\", p, \"{r_tail}\"), \"{R_EXPR}\");\n    res[i] = toint(q);\n}}\nint c = checksum(res);\nprintf(\"checksum %d\", c);\n"
        )
    };
    let sum: i64 = (1..=n as i64).map(|i| c.expect(i)).sum();
    Instance {
        workload: "interlang_leaves",
        source: program(n),
        setup_source: program(0),
        // tloop, nat, python, r per iteration; checksum and printf.
        expected_tasks: 4 * n as u64 + 2,
        expected_lines: vec![format!("checksum {sum}")],
        setup_tasks: 2,
        setup_lines: vec!["checksum 0".to_string()],
        machine: PLAIN,
        leaf_floor: LeafFloor::Interlang(c),
    }
}

// ---- blob_native ----------------------------------------------------------

/// Element `j` of the blob `wave(i)` makes under `seed`: small integers,
/// so every sum is exact in f64 and the oracle needs no tolerance.
fn wave_elem(seed: u64, i: i64, j: usize) -> f64 {
    ((seed % 1_000) as i64 + i * 7 + j as i64 * 13).rem_euclid(1_024) as f64
}

/// The harness's native library: `bk::mix` for the interlanguage rung
/// and the blob kernels. `wave` takes the seed as an argument so blob
/// contents follow `--seed` without the library holding state.
pub fn native_library() -> NativeLibrary {
    NativeLibrary::new("bk", "1.0")
        .function("mix", |args| Ok(NativeArg::Int(mix(args[0].as_i64()?))))
        .function("wave", |args| {
            let (seed, i, n) = (args[0].as_i64()?, args[1].as_i64()?, args[2].as_i64()?);
            let data: Vec<f64> = (0..n as usize)
                .map(|j| wave_elem(seed as u64, i, j))
                .collect();
            Ok(NativeArg::Blob(Blob::from_f64s(&data)))
        })
        .function("axpy", |args| {
            let a = args[0].as_f64()?;
            let x = args[1].as_blob()?.to_f64s().map_err(|e| e.to_string())?;
            let y = args[2].as_blob()?.to_f64s().map_err(|e| e.to_string())?;
            if x.len() != y.len() {
                return Err(format!("axpy length mismatch: {} vs {}", x.len(), y.len()));
            }
            let out: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| a * xi + yi).collect();
            Ok(NativeArg::Blob(Blob::from_f64s(&out)))
        })
        .function("bsum", |args| {
            let x = args[0].as_blob()?.to_f64s().map_err(|e| e.to_string())?;
            Ok(NativeArg::Int(x.iter().sum::<f64>() as i64))
        })
}

/// Tcl package shared by the checksummed workloads.
const BENCHUTIL_TCL: &str = r#"
proc benchutil::sum {c} {
    set s 0
    foreach v [turbine::container_values $c] { incr s $v }
    return $s
}
"#;

fn blob(n: usize, seed: u64) -> Instance {
    let s = seed % 1_000;
    let leaves = format!(
        r#"(blob o) wave (int i) "bk" "1.0" [ "set <<o>> [ bk::wave {s} <<i>> {BLOB_ELEMS} ]" ];
(blob o) axpy (float a, blob x, blob y) "bk" "1.0" [ "set <<o>> [ bk::axpy <<a>> <<x>> <<y>> ]" ];
(int o) bsum (blob z) "bk" "1.0" [ "set <<o>> [ bk::bsum <<z>> ]" ];
(int o) checksum (int a[]) "benchutil" "1.0" [ "set <<o>> [ benchutil::sum <<a>> ]" ];
"#
    );
    let program = |n: usize| {
        format!(
            "{leaves}int sums[];\nforeach i in [1:{n}] {{\n    blob w = wave(i);\n    blob z = axpy(2.0, w, w);\n    sums[i] = bsum(z);\n}}\nint c = checksum(sums);\nprintf(\"checksum %d\", c);\n"
        )
    };
    let sum: i64 = (1..=n as i64)
        .map(|i| {
            (0..BLOB_ELEMS)
                .map(|j| 3.0 * wave_elem(seed, i, j))
                .sum::<f64>() as i64
        })
        .sum();
    Instance {
        workload: "blob_native",
        source: program(n),
        setup_source: program(0),
        // wave, axpy, bsum per iteration; checksum and printf.
        expected_tasks: 3 * n as u64 + 2,
        expected_lines: vec![format!("checksum {sum}")],
        setup_tasks: 2,
        setup_lines: vec!["checksum 0".to_string()],
        machine: PLAIN,
        leaf_floor: LeafFloor::Blob,
    }
}
