//! The Turbine runtime library — pure Tcl, like the real system's
//! `lib/*.tcl`.
//!
//! STC-generated code calls these `swt:*` procs for arithmetic, string
//! operations, printf, conversions, and loop splitting. Each builtin has
//! two halves: a *rule half* run on the engine (creates the dataflow
//! dependency) and a *body half* run when the inputs are closed. This is
//! exactly the paper's observation that "the ease of exposing simple Tcl
//! snippets to Swift allowed for the rapid development of Swift builtins
//! such as printf(), strcat(), etc." (§III.A).

/// Load the library into `interp`. The source is parsed once per process
/// and the tree shared by every rank's interpreter.
pub fn load(interp: &mut tclish::Interp) -> Result<(), tclish::TclError> {
    static PARSED: std::sync::OnceLock<tclish::Script> = std::sync::OnceLock::new();
    let script = PARSED.get_or_init(|| {
        tclish::Script::parse(TURBINE_LIB).unwrap_or_else(|e| panic!("turbine library: {e}"))
    });
    interp.eval_script(script).map(|_| ())
}

/// The library source. Evaluated on every engine and worker before any
/// program code; provided as the in-memory "static package" `turbine`
/// (§IV: no small-file storms at startup).
pub const TURBINE_LIB: &str = r##"
package provide turbine 1.0

# ---- integer arithmetic ------------------------------------------------
proc swt:ibinop {op o a b} {
    turbine::rule [list $a $b] "swt:ibinop_body $op $o $a $b" control
}
proc swt:ibinop_body {op o a b} {
    set x [turbine::retrieve_integer $a]
    set y [turbine::retrieve_integer $b]
    turbine::store_integer $o [expr "$x $op $y"]
}

# ---- float arithmetic ----------------------------------------------------
proc swt:fbinop {op o a b} {
    turbine::rule [list $a $b] "swt:fbinop_body $op $o $a $b" control
}
proc swt:fbinop_body {op o a b} {
    set x [turbine::retrieve_float $a]
    set y [turbine::retrieve_float $b]
    turbine::store_float $o [expr "$x $op $y"]
}

# ---- comparisons (result is an integer 0/1) ------------------------------
proc swt:icmp {op o a b} {
    turbine::rule [list $a $b] "swt:icmp_body $op $o $a $b" control
}
proc swt:icmp_body {op o a b} {
    set x [turbine::retrieve_integer $a]
    set y [turbine::retrieve_integer $b]
    turbine::store_integer $o [expr "$x $op $y"]
}
proc swt:fcmp {op o a b} {
    turbine::rule [list $a $b] "swt:fcmp_body $op $o $a $b" control
}
proc swt:fcmp_body {op o a b} {
    set x [turbine::retrieve_float $a]
    set y [turbine::retrieve_float $b]
    turbine::store_integer $o [expr "$x $op $y"]
}
proc swt:scmp {op o a b} {
    turbine::rule [list $a $b] "swt:scmp_body $op $o $a $b" control
}
proc swt:scmp_body {op o a b} {
    set x [turbine::retrieve_string $a]
    set y [turbine::retrieve_string $b]
    if {$op == "=="} {
        turbine::store_integer $o [string equal $x $y]
    } else {
        turbine::store_integer $o [expr {![string equal $x $y]}]
    }
}

# ---- logical ops on integer(bool) TDs -------------------------------------
proc swt:not {o a} {
    turbine::rule [list $a] "swt:not_body $o $a" control
}
proc swt:not_body {o a} {
    turbine::store_integer $o [expr {![turbine::retrieve_integer $a]}]
}
proc swt:neg_int {o a} {
    turbine::rule [list $a] "swt:neg_int_body $o $a" control
}
proc swt:neg_int_body {o a} {
    turbine::store_integer $o [expr {- [turbine::retrieve_integer $a]}]
}
proc swt:neg_float {o a} {
    turbine::rule [list $a] "swt:neg_float_body $o $a" control
}
proc swt:neg_float_body {o a} {
    turbine::store_float $o [expr {- [turbine::retrieve_float $a]}]
}

# ---- float math builtins ----------------------------------------------------
proc swt:fmath {fn o a} {
    turbine::rule [list $a] "swt:fmath_body $fn $o $a" control
}
proc swt:fmath_body {fn o a} {
    set x [turbine::retrieve_float $a]
    turbine::store_float $o [expr "${fn}($x)"]
}

proc swt:fmath2 {fn o a b} {
    turbine::rule [list $a $b] "swt:fmath2_body $fn $o $a $b" control
}
proc swt:fmath2_body {fn o a b} {
    set x [turbine::retrieve_float $a]
    set y [turbine::retrieve_float $b]
    turbine::store_float $o [expr "${fn}($x, $y)"]
}
proc swt:iminmax {which o a b} {
    turbine::rule [list $a $b] "swt:iminmax_body $which $o $a $b" control
}
proc swt:iminmax_body {which o a b} {
    set x [turbine::retrieve_integer $a]
    set y [turbine::retrieve_integer $b]
    turbine::store_integer $o [expr "${which}($x, $y)"]
}
proc swt:iabs {o a} {
    turbine::rule [list $a] "swt:iabs_body $o $a" control
}
proc swt:iabs_body {o a} {
    turbine::store_integer $o [expr {abs([turbine::retrieve_integer $a])}]
}

# ---- conversions -----------------------------------------------------------
proc swt:itof {o a} {
    turbine::rule [list $a] "swt:itof_body $o $a" control
}
proc swt:itof_body {o a} {
    turbine::store_float $o [expr {double([turbine::retrieve_integer $a])}]
}
proc swt:ftoi {o a} {
    turbine::rule [list $a] "swt:ftoi_body $o $a" control
}
proc swt:ftoi_body {o a} {
    turbine::store_integer $o [expr {int([turbine::retrieve_float $a])}]
}
proc swt:toint {o a} {
    turbine::rule [list $a] "swt:toint_body $o $a" control
}
proc swt:toint_body {o a} {
    set s [string trim [turbine::retrieve_string $a]]
    turbine::store_integer $o $s
}
proc swt:tofloat {o a} {
    turbine::rule [list $a] "swt:tofloat_body $o $a" control
}
proc swt:tofloat_body {o a} {
    set s [string trim [turbine::retrieve_string $a]]
    turbine::store_float $o $s
}
proc swt:fromint {o a} {
    turbine::rule [list $a] "swt:fromint_body $o $a" control
}
proc swt:fromint_body {o a} {
    turbine::store_string $o [turbine::retrieve_integer $a]
}
proc swt:fromfloat {o a} {
    turbine::rule [list $a] "swt:fromfloat_body $o $a" control
}
proc swt:fromfloat_body {o a} {
    turbine::store_string $o [turbine::retrieve_float $a]
}

# ---- strings -----------------------------------------------------------------
proc swt:strcat {o args} {
    turbine::rule $args "swt:strcat_body $o $args" control
}
proc swt:strcat_body {o args} {
    set out ""
    foreach td $args {
        append out [turbine::retrieve_string $td]
    }
    turbine::store_string $o $out
}
proc swt:strlen {o a} {
    turbine::rule [list $a] "swt:strlen_body $o $a" control
}
proc swt:strlen_body {o a} {
    turbine::store_integer $o [string length [turbine::retrieve_string $a]]
}

# ---- generic value retrieval (for printf/trace argument lists) -----------------
proc swt:retrieve_typed {ty td} {
    switch $ty {
        integer { return [turbine::retrieve_integer $td] }
        float   { return [turbine::retrieve_float $td] }
        string  { return [turbine::retrieve_string $td] }
        void    { return "" }
        default { error "swt:retrieve_typed: bad type $ty" }
    }
}

# ---- printf / trace / assert ----------------------------------------------------
# printf runs as a WORK task: output happens on a worker, as leaf output
# does in real runs.
proc swt:printf {fmt types args} {
    # Build the action as a proper list so arbitrary format strings
    # (braces, quotes, spaces) survive the ship-and-reparse round trip.
    turbine::rule $args [concat [list swt:printf_body $fmt $types] $args] work
}
proc swt:printf_body {fmt types args} {
    set vals {}
    foreach td $args ty $types {
        lappend vals [swt:retrieve_typed $ty $td]
    }
    puts [format $fmt {*}$vals]
}
# trace runs on the engine (control) for low-latency debugging.
proc swt:trace {types args} {
    turbine::rule $args [concat [list swt:trace_body $types] $args] control
}
proc swt:trace_body {types args} {
    set vals {}
    foreach td $args ty $types {
        lappend vals [swt:retrieve_typed $ty $td]
    }
    puts "trace: [join $vals ,]"
}
proc swt:assert {cond msg} {
    turbine::rule [list $cond $msg] "swt:assert_body $cond $msg" control
}
proc swt:assert_body {cond msg} {
    if {![turbine::retrieve_integer $cond]} {
        error "assertion failed: [turbine::retrieve_string $msg]"
    }
}

# ---- python / r / shell leaves (§III.C) --------------------------------------------
# o, code, expr are string TDs; evaluation happens in the worker's
# embedded interpreter.
proc swt:python {o code sexpr} {
    turbine::rule [list $code $sexpr] "swt:python_body $o $code $sexpr" work
}
proc swt:python_body {o code sexpr} {
    turbine::store_string $o \
        [python [turbine::retrieve_string $code] [turbine::retrieve_string $sexpr]]
}
proc swt:r {o code sexpr} {
    turbine::rule [list $code $sexpr] "swt:r_body $o $code $sexpr" work
}
proc swt:r_body {o code sexpr} {
    turbine::store_string $o \
        [r [turbine::retrieve_string $code] [turbine::retrieve_string $sexpr]]
}
# sh: run a shell command line, capture stdout (the "rich shell interface").
proc swt:sh {o cmd} {
    turbine::rule [list $cmd] "swt:sh_body $o $cmd" work
}
proc swt:sh_body {o cmd} {
    turbine::store_string $o [exec sh -c [turbine::retrieve_string $cmd]]
}

# ---- ranges & foreach ------------------------------------------------------------
# Distributed range loop: split [start..end] into chunks, each a control
# task callable on any engine. The body proc receives the iteration value,
# the 0-based index, and the captured TD ids. `containers` are arrays the
# body writes: each chunk holds a writer slot until it completes.
proc swt:range_foreach {bodyproc captured containers start end chunk} {
    if {$end < $start} { return }
    if {$chunk == "auto"} {
        set n [expr {$end - $start + 1}]
        set engines $turbine::n_engines
        set chunk [expr {$n / (4 * $engines)}]
        if {$chunk < 1} { set chunk 1 }
    }
    set i $start
    while {$i <= $end} {
        set hi [expr {$i + $chunk - 1}]
        if {$hi > $end} { set hi $end }
        foreach c $containers { turbine::write_refcount_incr $c 1 }
        turbine::spawn control 0 \
            "swt:range_chunk $bodyproc [list $captured] [list $containers] $i $hi $start"
        set i [expr {$hi + 1}]
    }
}
proc swt:range_chunk {bodyproc captured containers lo hi start} {
    for {set i $lo} {$i <= $hi} {incr i} {
        $bodyproc $i [expr {$i - $start}] {*}$captured
    }
    foreach c $containers { turbine::write_refcount_incr $c -1 }
}
# Deferred launch: the bounds are futures; once closed, split the loop and
# release the caller's per-container reservation.
proc swt:range_foreach_deferred {bodyproc captured containers st et} {
    turbine::rule [list $st $et] \
        "swt:range_foreach_deferred_body $bodyproc [list $captured] [list $containers] $st $et" control
}
proc swt:range_foreach_deferred_body {bodyproc captured containers st et} {
    set s [turbine::retrieve_integer $st]
    set e [turbine::retrieve_integer $et]
    swt:range_foreach $bodyproc $captured $containers $s $e auto
    foreach c $containers { turbine::write_refcount_incr $c -1 }
}

# Array foreach: runs when the container closes; the body proc receives
# (value, subscript, captured ids). Releases the caller's reservations.
proc swt:array_foreach_go {bodyproc captured containers c} {
    foreach k [turbine::container_keys $c] {
        $bodyproc [turbine::container_lookup $c $k] $k {*}$captured
    }
    foreach w $containers { turbine::write_refcount_incr $w -1 }
}

# Container foreach (rule half): wait for the container, then run the body
# per member on this engine. bodyproc gets (subscript, value, captured...).
proc swt:container_foreach {bodyproc captured c} {
    turbine::rule [list $c] "swt:container_foreach_body $bodyproc [list $captured] $c" control
}
proc swt:container_foreach_body {bodyproc captured c} {
    foreach k [turbine::container_keys $c] {
        $bodyproc $k [turbine::container_lookup $c $k] {*}$captured
    }
}

# Store a computed TD value into a container slot once the TD closes, and
# drop the writer slot that was reserved for this insertion.
proc swt:container_deferred_insert {c key td ty} {
    turbine::rule [list $td] "swt:container_deferred_insert_body $c $key $td $ty" control
}
proc swt:container_deferred_insert_body {c key td ty} {
    turbine::container_insert $c $key [swt:retrieve_typed $ty $td]
    turbine::write_refcount_incr $c -1
}

# A[kt] = vt with both subscript and value as futures: wait for the
# subscript, then chain the deferred insert on the value. The caller
# reserved one writer slot, which deferred_insert releases.
proc swt:cinsert_when {c kt vt ty} {
    turbine::rule [list $kt] "swt:cinsert_when_body $c $kt $vt $ty" control
}
proc swt:cinsert_when_body {c kt vt ty} {
    swt:container_deferred_insert $c [turbine::retrieve_integer $kt] $vt $ty
}

# x = A[kt]: wait for the whole container and the subscript, then look the
# member up and store it (conservative: member-level waits would be finer).
proc swt:clookup {ty o c kt} {
    turbine::rule [list $c $kt] "swt:clookup_body $ty $o $c $kt" control
}
proc swt:clookup_body {ty o c kt} {
    set k [turbine::retrieve_integer $kt]
    set v [turbine::container_lookup $c $k]
    switch $ty {
        integer { turbine::store_integer $o $v }
        float   { turbine::store_float $o $v }
        string  { turbine::store_string $o $v }
        default { error "swt:clookup: bad type $ty" }
    }
}

# n = size(A)
proc swt:csize {o c} {
    turbine::rule [list $c] "swt:csize_body $o $c" control
}
proc swt:csize_body {o c} {
    turbine::store_integer $o [turbine::container_size $c]
}

# o = i (copy between same-typed futures)
proc swt:copy {ty o i} {
    turbine::rule [list $i] "swt:copy_body $ty $o $i" control
}
proc swt:copy_body {ty o i} {
    switch $ty {
        integer { turbine::store_integer $o [turbine::retrieve_integer $i] }
        float   { turbine::store_float $o [turbine::retrieve_float $i] }
        string  { turbine::store_string $o [turbine::retrieve_string $i] }
        void    { turbine::store_void $o }
        default { error "swt:copy: bad type $ty" }
    }
}

# ---- conditionals ------------------------------------------------------------------
# if on a future: when cond (integer td) closes, run then_proc or
# else_proc (pre-bound with captured ids by the caller).
proc swt:if {cond then_action else_action} {
    turbine::rule [list $cond] "swt:if_body $cond {$then_action} {$else_action}" control
}
proc swt:if_body {cond then_action else_action} {
    if {[turbine::retrieve_integer $cond]} {
        eval $then_action
    } else {
        eval $else_action
    }
}
"##;

#[cfg(test)]
mod tests {
    use adlb::{AdlbClient, Layout};
    use mpisim::World;
    use tclish::Interp;

    use crate::commands::{self, Ctx};
    use crate::types::InterpPolicy;

    /// Evaluate a script on a 1-engine/1-server world with the library
    /// loaded, draining local control actions until quiescent, and return
    /// (result, captured stdout).
    fn run_with_lib(script: &'static str) -> (String, String) {
        let layout = Layout::new(2, 1);
        let out = World::run(2, move |comm| {
            if layout.is_server(comm.rank()) {
                adlb::serve(comm, layout, adlb::ServerConfig::default());
                return None;
            }
            let client = AdlbClient::new(comm, layout);
            let ctx = Ctx::new(client, true, InterpPolicy::Retain);
            let mut interp = Interp::new();
            let buf = interp.capture_output();
            commands::register(&mut interp, ctx.clone());
            super::load(&mut interp).unwrap();
            let result = interp.eval(script).unwrap();
            // Mini engine loop: drain local control actions, then pump
            // ADLB close notifications until no rules remain.
            loop {
                loop {
                    let action = ctx.borrow_mut().engine.ready.pop_front();
                    match action {
                        Some(a) => {
                            interp.eval(&a).unwrap();
                        }
                        None => break,
                    }
                }
                if ctx.borrow().engine.rules_waiting() == 0 {
                    break;
                }
                let task = ctx
                    .borrow_mut()
                    .client
                    .get(&[adlb::WORK_TYPE_NOTIFY, adlb::WORK_TYPE_CONTROL]);
                match task {
                    Some(t) if t.work_type == adlb::WORK_TYPE_NOTIFY => {
                        ctx.borrow_mut().notified(&t.payload).unwrap();
                    }
                    Some(t) => {
                        let code = String::from_utf8(t.payload.to_vec()).unwrap();
                        interp.eval(&code).unwrap();
                    }
                    None => break,
                }
            }
            ctx.borrow_mut().client.finish();
            let stdout = buf.borrow().clone();
            Some((result, stdout))
        });
        out.into_iter().flatten().next().unwrap()
    }

    fn new_td(interp_script: &mut String, var: &str, ty: &str) {
        interp_script.push_str(&format!(
            "set {var} [turbine::unique]; turbine::create ${var} {ty}\n"
        ));
    }

    #[test]
    fn integer_arithmetic_through_rules() {
        let mut s = String::new();
        new_td(&mut s, "a", "integer");
        new_td(&mut s, "b", "integer");
        new_td(&mut s, "c", "integer");
        s.push_str(
            "swt:ibinop + $c $a $b\n\
             turbine::store_integer $a 19\n\
             turbine::store_integer $b 23\n",
        );
        // After draining, c must hold 42; check by retrieving in a second
        // phase. We lean on run_with_lib returning after the drain.
        let script = format!("{s}\nset c");
        let (c_id, _) = run_with_lib(Box::leak(script.into_boxed_str()));
        // We only got the id back; re-running to retrieve isn't possible
        // here, so instead verify via printf in other tests.
        assert!(!c_id.is_empty());
    }

    #[test]
    fn printf_formats_on_close() {
        // Single client acts as engine; printf is a WORK rule, which a
        // pure-engine world cannot execute... so spawn it as control by
        // testing the body directly after storing inputs.
        let script = r#"
            set x [turbine::unique]; turbine::create $x integer
            turbine::store_integer $x 7
            swt:printf_body {x = %d} {integer} $x
        "#;
        let (_, stdout) = run_with_lib(script);
        assert_eq!(stdout, "x = 7\n");
    }

    #[test]
    fn chained_arithmetic_rules_cascade() {
        let script = r#"
            set a [turbine::unique]; turbine::create $a integer
            set b [turbine::unique]; turbine::create $b integer
            set c [turbine::unique]; turbine::create $c integer
            # c = a + a; d = c * b — d fires only after c.
            set d [turbine::unique]; turbine::create $d integer
            swt:ibinop + $c $a $a
            swt:ibinop * $d $c $b
            turbine::store_integer $a 3
            turbine::store_integer $b 5
            # Give dataflow a way to print the result once d closes.
            turbine::rule [list $d] "swt:trace_body {integer} $d" control
        "#;
        let (_, stdout) = run_with_lib(script);
        assert_eq!(stdout, "trace: 30\n");
    }

    #[test]
    fn strcat_and_strlen() {
        let script = r#"
            set a [turbine::unique]; turbine::create $a string
            set b [turbine::unique]; turbine::create $b string
            set c [turbine::unique]; turbine::create $c string
            set n [turbine::unique]; turbine::create $n integer
            swt:strcat $c $a $b
            swt:strlen $n $c
            turbine::store_string $a "data"
            turbine::store_string $b "flow"
            turbine::rule [list $c $n] "swt:trace_body {string integer} $c $n" control
        "#;
        let (_, stdout) = run_with_lib(script);
        assert_eq!(stdout, "trace: dataflow,8\n");
    }

    #[test]
    fn conversions() {
        let script = r#"
            set i [turbine::unique]; turbine::create $i integer
            set f [turbine::unique]; turbine::create $f float
            set s [turbine::unique]; turbine::create $s string
            swt:itof $f $i
            swt:fromfloat $s $f
            turbine::store_integer $i 4
            turbine::rule [list $s] "swt:trace_body {string} $s" control
        "#;
        let (_, stdout) = run_with_lib(script);
        assert_eq!(stdout, "trace: 4.0\n");
    }

    #[test]
    fn float_math() {
        let script = r#"
            set x [turbine::unique]; turbine::create $x float
            set y [turbine::unique]; turbine::create $y float
            swt:fmath sqrt $y $x
            turbine::store_float $x 81.0
            turbine::rule [list $y] "swt:trace_body {float} $y" control
        "#;
        let (_, stdout) = run_with_lib(script);
        assert_eq!(stdout, "trace: 9.0\n");
    }

    #[test]
    fn if_on_future() {
        let script = r#"
            set cond [turbine::unique]; turbine::create $cond integer
            swt:if $cond {puts then-branch} {puts else-branch}
            turbine::store_integer $cond 0
        "#;
        let (_, stdout) = run_with_lib(script);
        assert_eq!(stdout, "else-branch\n");
    }

    #[test]
    fn container_foreach_and_deferred_insert() {
        let script = r#"
            set c [turbine::unique]; turbine::create $c container
            set t [turbine::unique]; turbine::create $t integer
            # Reserve a writer slot for the deferred insert, then release
            # the creating scope's slot.
            turbine::write_refcount_incr $c 1
            swt:container_deferred_insert $c 5 $t integer
            turbine::container_close $c
            proc show_member {k v} { puts "member $k = $v" }
            swt:container_foreach show_member {} $c
            turbine::store_integer $t 99
        "#;
        let (_, stdout) = run_with_lib(script);
        assert_eq!(stdout, "member 5 = 99\n");
    }

    #[test]
    fn assert_failure_is_error() {
        let layout = Layout::new(2, 1);
        let out = World::run(2, move |comm| {
            if layout.is_server(comm.rank()) {
                adlb::serve(comm, layout, adlb::ServerConfig::default());
                return None;
            }
            let client = AdlbClient::new(comm, layout);
            let ctx = Ctx::new(client, true, InterpPolicy::Retain);
            let mut interp = Interp::new();
            commands::register(&mut interp, ctx.clone());
            super::load(&mut interp).unwrap();
            interp
                .eval(
                    "set c [turbine::unique]; turbine::create $c integer\n\
                     set m [turbine::unique]; turbine::create $m string\n\
                     turbine::store_integer $c 0\n\
                     turbine::store_string $m boom\n\
                     swt:assert $c $m",
                )
                .unwrap();
            let mut failed = false;
            loop {
                loop {
                    let action = ctx.borrow_mut().engine.ready.pop_front();
                    match action {
                        Some(a) => {
                            if let Err(e) = interp.eval(&a) {
                                assert!(e.message.contains("assertion failed: boom"));
                                failed = true;
                            }
                        }
                        None => break,
                    }
                }
                if ctx.borrow().engine.rules_waiting() == 0 {
                    break;
                }
                let task = ctx.borrow_mut().client.get(&[adlb::WORK_TYPE_NOTIFY]);
                match task {
                    Some(t) => ctx.borrow_mut().notified(&t.payload).unwrap(),
                    None => break,
                }
            }
            ctx.borrow_mut().client.finish();
            Some(failed)
        });
        assert_eq!(out.into_iter().flatten().next(), Some(true));
    }
}
