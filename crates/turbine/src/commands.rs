//! The `turbine::*` Tcl command set.
//!
//! These commands are the boundary between Turbine code (Tcl, shipped
//! through ADLB as text) and the runtime. They cover data creation,
//! stores/retrieves with automatic type conversion (§III.A), containers,
//! rules and task spawning, the embedded `python`/`r` interpreters
//! (§III.C), and blob support (§III.B).

use std::cell::RefCell;
use std::rc::Rc;

use adlb::AdlbClient;
use blobutils::{Blob, BlobHandle, BlobRegistry, SharedRegistry};
use bytes::Bytes;
use pythonish::Python;
use rish::R;
use tclish::{Exception, Interp};

use crate::engine::{ActionKind, Dispatch, EngineState, MalformedNotification};
use crate::types::{self, InterpPolicy, TurbineType};

/// Shared per-rank runtime state reachable from Tcl commands.
pub struct Ctx {
    /// The ADLB client for this rank.
    pub client: AdlbClient,
    /// Engine dataflow state (unused on workers, but present so control
    /// fragments behave identically wherever they run).
    pub engine: EngineState,
    /// Input values the leaf task being executed carries (workers; set
    /// and cleared around each task).
    pub(crate) inputs: Vec<(u64, Bytes)>,
    /// Whether this rank is an engine (rules allowed).
    pub is_engine: bool,
    /// §III.C interpreter state policy.
    pub policy: InterpPolicy,
    /// Lazily initialized embedded Python interpreter.
    pub python: Option<Python>,
    /// Lazily initialized embedded R interpreter.
    pub r: Option<R>,
    /// Blob registry backing `blobutils_*` and blob TDs.
    pub blobs: SharedRegistry,
    /// Program arguments (the paper's Swift/K `argv` interface).
    pub args: std::collections::HashMap<String, String>,
    /// Leaf tasks executed on this rank.
    pub tasks_executed: u64,
    /// Leaf tasks that failed and were reported to the server (contained
    /// failures; this rank survived them).
    pub tasks_failed: u64,
    /// Python/R interpreter (re)initializations performed.
    pub interp_inits: u64,
}

/// Shared handle stored in the Tcl interpreter context.
pub type SharedCtx = Rc<RefCell<Ctx>>;

impl Ctx {
    /// Build the per-rank context. An engine's writes are its program's
    /// own ([`AdlbClient::own_writes`]); a worker's belong to its task.
    pub fn new(mut client: AdlbClient, is_engine: bool, policy: InterpPolicy) -> SharedCtx {
        if is_engine {
            client.own_writes();
        }
        Rc::new(RefCell::new(Ctx {
            client,
            engine: EngineState::new(),
            inputs: Vec::new(),
            is_engine,
            policy,
            python: None,
            r: None,
            blobs: Rc::new(RefCell::new(BlobRegistry::new())),
            args: std::collections::HashMap::new(),
            tasks_executed: 0,
            tasks_failed: 0,
            interp_inits: 0,
        }))
    }

    /// Perform a dispatch decision from the engine state.
    pub fn perform(&mut self, d: Dispatch) {
        if let Dispatch::Put(wt, prio, target, payload) = d {
            self.client.put(wt, prio, target, payload);
        }
    }

    /// Handle a close notification delivered to this engine: remember
    /// what it says, fire the rules it releases and put their tasks.
    pub(crate) fn notified(&mut self, payload: &[u8]) -> Result<(), MalformedNotification> {
        for d in self.engine.notified(payload)? {
            self.perform(d);
        }
        Ok(())
    }

    /// The value of closed scalar `id` if this rank already holds it: an
    /// input the running task carries, or one the engine remembers.
    fn known_value(&self, id: u64) -> Option<&[u8]> {
        match self.inputs.iter().find(|(i, _)| *i == id) {
            Some((_, v)) => Some(v),
            None => self.engine.known_value(id),
        }
    }
}

fn ex(e: impl std::fmt::Display) -> Exception {
    Exception::error(e.to_string())
}

fn parse_id(s: &str) -> Result<u64, Exception> {
    s.trim()
        .parse::<u64>()
        .map_err(|_| ex(format!("bad turbine datum id \"{s}\"")))
}

/// The ids of Tcl list `s`, read without copying its unquoted elements.
fn parse_id_list(s: &str) -> Result<Vec<u64>, Exception> {
    let mut ids = Vec::new();
    let mut bad = None;
    tclish::for_each_element(s, |e| match parse_id(&e) {
        Ok(id) => ids.push(id),
        Err(e) => {
            bad.get_or_insert(e);
        }
    })
    .map_err(ex)?;
    bad.map_or(Ok(ids), Err)
}

fn need(argv: &[String], min: usize, max: usize, usage: &str) -> Result<(), Exception> {
    if argv.len() < min || argv.len() > max {
        return Err(ex(format!("wrong # args: should be \"{usage}\"")));
    }
    Ok(())
}

/// Store (and close) a scalar. An engine remembers what it stored, so a
/// rule over it never subscribes and a read of it never leaves the rank.
/// The store itself always goes to the server: a double assignment still
/// fails there, with its own message, and a store refused on the spot is
/// not remembered.
fn store(ctx: &SharedCtx, id: u64, value: Bytes) -> Result<String, Exception> {
    let mut c = ctx.borrow_mut();
    let kept = (c.is_engine && value.len() <= adlb::NOTIFY_VALUE_MAX).then(|| value.to_vec());
    c.client.store(id, value).map_err(ex)?;
    if c.is_engine {
        c.engine.remember(id, kept);
    }
    Ok(String::new())
}

/// Read closed scalar `id` through `decode`: from what this rank already
/// holds when it can, else with one round trip to the server.
fn retrieve<T>(
    ctx: &SharedCtx,
    id: u64,
    decode: impl FnOnce(&[u8]) -> Result<T, String>,
) -> Result<T, Exception> {
    let value = read_value(ctx, id, decode)?;
    leaf_read(ctx, id);
    Ok(value)
}

fn read_value<T>(
    ctx: &SharedCtx,
    id: u64,
    decode: impl FnOnce(&[u8]) -> Result<T, String>,
) -> Result<T, Exception> {
    if let Some(v) = ctx.borrow().known_value(id) {
        return decode(v).map_err(ex);
    }
    decode(&fetch(ctx, id)?).map_err(ex)
}

/// Closed datum `id`'s value from the server: the response's own buffer.
fn fetch(ctx: &SharedCtx, id: u64) -> Result<Bytes, Exception> {
    let fetched = ctx.borrow_mut().client.retrieve(id).map_err(ex)?;
    fetched.ok_or_else(|| ex(format!("retrieve of open datum <{id}> (dataflow bug)")))
}

/// A worker runs only leaf tasks, so each of its reads is a leaf read of
/// the task in hand, released once the task's ack has left.
fn leaf_read(ctx: &SharedCtx, id: u64) {
    let mut c = ctx.borrow_mut();
    if !c.is_engine {
        c.client.note_read(id);
    }
}

/// Register every `turbine::*` command plus the blobutils command set.
pub fn register(interp: &mut Interp, ctx: SharedCtx) {
    let blobs = ctx.borrow().blobs.clone();
    blobutils::register_blob_commands(interp, blobs);
    interp.context_insert::<SharedCtx>(ctx.clone());

    macro_rules! cmd {
        ($name:expr, $f:expr) => {{
            let ctx = ctx.clone();
            interp.register($name, move |interp, argv| $f(interp, &ctx, argv));
        }};
    }

    cmd!("turbine::rank", |_i, ctx: &SharedCtx, argv: &[String]| {
        need(argv, 1, 1, "turbine::rank")?;
        Ok(ctx.borrow_mut().client.rank().to_string())
    });
    cmd!("turbine::unique", |_i, ctx: &SharedCtx, argv: &[String]| {
        need(argv, 1, 1, "turbine::unique")?;
        Ok(ctx.borrow_mut().client.alloc_id().to_string())
    });
    cmd!("turbine::create", |_i, ctx: &SharedCtx, argv: &[String]| {
        // `reads`: the leaf reads STC counted; the datum is freed after
        // the last. Without it the datum is never freed.
        need(argv, 3, 4, "turbine::create id type ?reads?")?;
        let id = parse_id(&argv[1])?;
        let ty = TurbineType::from_name(&argv[2])
            .ok_or_else(|| ex(format!("unknown turbine type \"{}\"", argv[2])))?;
        let client = &mut ctx.borrow_mut().client;
        match argv.get(3) {
            Some(n) => {
                let reads = n
                    .trim()
                    .parse()
                    .map_err(|_| ex(format!("create: bad read count \"{n}\"")))?;
                client.create_counted(id, ty.tag(), reads)
            }
            None => client.create(id, ty.tag()),
        }
        .map_err(ex)?;
        Ok(String::new())
    });

    // -- scalar stores ---------------------------------------------------
    cmd!(
        "turbine::store_void",
        |_i, ctx: &SharedCtx, argv: &[String]| {
            need(argv, 2, 2, "turbine::store_void id")?;
            store(ctx, parse_id(&argv[1])?, Bytes::new())
        }
    );
    cmd!(
        "turbine::store_integer",
        |_i, ctx: &SharedCtx, argv: &[String]| {
            need(argv, 3, 3, "turbine::store_integer id value")?;
            let id = parse_id(&argv[1])?;
            let v: i64 = argv[2]
                .trim()
                .parse()
                .map_err(|_| ex(format!("store_integer: \"{}\" is not an integer", argv[2])))?;
            store(ctx, id, types::encode_integer(v))
        }
    );
    cmd!(
        "turbine::store_float",
        |_i, ctx: &SharedCtx, argv: &[String]| {
            need(argv, 3, 3, "turbine::store_float id value")?;
            let id = parse_id(&argv[1])?;
            let v: f64 = argv[2]
                .trim()
                .parse()
                .map_err(|_| ex(format!("store_float: \"{}\" is not a float", argv[2])))?;
            store(ctx, id, types::encode_float(v))
        }
    );
    cmd!(
        "turbine::store_string",
        |_i, ctx: &SharedCtx, argv: &[String]| {
            need(argv, 3, 3, "turbine::store_string id value")?;
            store(ctx, parse_id(&argv[1])?, Bytes::from(argv[2].clone()))
        }
    );
    cmd!(
        "turbine::store_blob",
        |_i, ctx: &SharedCtx, argv: &[String]| {
            need(argv, 3, 3, "turbine::store_blob id blobHandle")?;
            let id = parse_id(&argv[1])?;
            let h = BlobHandle::parse(&argv[2]).map_err(ex)?;
            let bytes = {
                let c = ctx.borrow();
                let blobs = c.blobs.clone();
                let b = blobs.borrow();
                b.get(h).map_err(ex)?.clone().into_shared()
            };
            store(ctx, id, bytes)
        }
    );

    // -- scalar retrieves --------------------------------------------------
    cmd!(
        "turbine::retrieve_integer",
        |_i, ctx: &SharedCtx, argv: &[String]| {
            need(argv, 2, 2, "turbine::retrieve_integer id")?;
            retrieve(ctx, parse_id(&argv[1])?, |b| {
                types::decode_integer(b).map(|v| v.to_string())
            })
        }
    );
    cmd!(
        "turbine::retrieve_float",
        |_i, ctx: &SharedCtx, argv: &[String]| {
            need(argv, 2, 2, "turbine::retrieve_float id")?;
            retrieve(ctx, parse_id(&argv[1])?, |b| {
                types::decode_float(b).map(tclish::format_double)
            })
        }
    );
    cmd!(
        "turbine::retrieve_string",
        |_i, ctx: &SharedCtx, argv: &[String]| {
            need(argv, 2, 2, "turbine::retrieve_string id")?;
            retrieve(ctx, parse_id(&argv[1])?, types::decode_string)
        }
    );
    cmd!(
        "turbine::retrieve_blob",
        |_i, ctx: &SharedCtx, argv: &[String]| {
            need(argv, 2, 2, "turbine::retrieve_blob id")?;
            let id = parse_id(&argv[1])?;
            // A blob this rank holds is at most a notification's size; one
            // from the server keeps the response's buffer, uncopied.
            let local = ctx.borrow().known_value(id).map(Bytes::copy_from_slice);
            let blob = Blob::from_bytes(match local {
                Some(v) => v,
                None => fetch(ctx, id)?,
            });
            leaf_read(ctx, id);
            let c = ctx.borrow();
            let h = c.blobs.borrow_mut().insert(blob);
            Ok(h.to_token())
        }
    );
    cmd!("turbine::closed", |_i, ctx: &SharedCtx, argv: &[String]| {
        need(argv, 2, 2, "turbine::closed id")?;
        let id = parse_id(&argv[1])?;
        let mut c = ctx.borrow_mut();
        let known = c.engine.known_closed(id) || c.known_value(id).is_some();
        let closed = known || c.client.exists(id).map_err(ex)?;
        Ok((closed as i64).to_string())
    });

    // -- containers --------------------------------------------------------
    cmd!(
        "turbine::container_insert",
        |_i, ctx: &SharedCtx, argv: &[String]| {
            need(argv, 4, 4, "turbine::container_insert id subscript value")?;
            let id = parse_id(&argv[1])?;
            ctx.borrow_mut()
                .client
                .insert(id, &argv[2], argv[3].clone().into_bytes())
                .map_err(ex)?;
            Ok(String::new())
        }
    );
    cmd!(
        "turbine::container_lookup",
        |_i, ctx: &SharedCtx, argv: &[String]| {
            need(argv, 3, 3, "turbine::container_lookup id subscript")?;
            let id = parse_id(&argv[1])?;
            let v = ctx.borrow_mut().client.lookup(id, &argv[2]).map_err(ex)?;
            match v {
                Some(b) => types::decode_string(&b).map_err(ex),
                None => Err(ex(format!("container <{id}> has no member [{}]", argv[2]))),
            }
        }
    );
    cmd!(
        "turbine::container_keys",
        |_i, ctx: &SharedCtx, argv: &[String]| {
            need(argv, 2, 2, "turbine::container_keys id")?;
            let id = parse_id(&argv[1])?;
            let pairs = ctx.borrow_mut().client.enumerate(id).map_err(ex)?;
            let keys: Vec<String> = pairs.into_iter().map(|(k, _)| k).collect();
            Ok(tclish::format_list(&keys))
        }
    );
    cmd!(
        "turbine::container_values",
        |_i, ctx: &SharedCtx, argv: &[String]| {
            need(argv, 2, 2, "turbine::container_values id")?;
            let id = parse_id(&argv[1])?;
            let pairs = ctx.borrow_mut().client.enumerate(id).map_err(ex)?;
            let vals: Result<Vec<String>, Exception> = pairs
                .into_iter()
                .map(|(_, v)| types::decode_string(&v).map_err(ex))
                .collect();
            Ok(tclish::format_list(&vals?))
        }
    );
    cmd!(
        "turbine::container_size",
        |_i, ctx: &SharedCtx, argv: &[String]| {
            need(argv, 2, 2, "turbine::container_size id")?;
            let id = parse_id(&argv[1])?;
            Ok(ctx
                .borrow_mut()
                .client
                .enumerate(id)
                .map_err(ex)?
                .len()
                .to_string())
        }
    );
    cmd!(
        "turbine::write_refcount_incr",
        |_i, ctx: &SharedCtx, argv: &[String]| {
            need(argv, 3, 3, "turbine::write_refcount_incr id delta")?;
            let id = parse_id(&argv[1])?;
            let delta: i64 = argv[2]
                .trim()
                .parse()
                .map_err(|_| ex("write_refcount_incr: bad delta"))?;
            ctx.borrow_mut()
                .client
                .incr_writers(id, delta)
                .map_err(ex)?;
            Ok(String::new())
        }
    );
    cmd!(
        "turbine::container_close",
        |_i, ctx: &SharedCtx, argv: &[String]| {
            need(argv, 2, 2, "turbine::container_close id")?;
            let id = parse_id(&argv[1])?;
            // Closing = dropping the creating scope's writer slot.
            ctx.borrow_mut().client.incr_writers(id, -1).map_err(ex)?;
            Ok(String::new())
        }
    );

    // -- rules & spawning ----------------------------------------------------
    cmd!("turbine::rule", |_i, ctx: &SharedCtx, argv: &[String]| {
        // turbine::rule inputs action ?type? ?priority? ?target?
        need(
            argv,
            3,
            6,
            "turbine::rule inputs action ?type? ?priority? ?target?",
        )?;
        let inputs = parse_id_list(&argv[1])?;
        let action = argv[2].clone();
        let kind = match argv.get(3).map(String::as_str).unwrap_or("control") {
            "control" => ActionKind::LocalControl,
            "spawn" => ActionKind::DistributedControl,
            "work" => ActionKind::Work,
            other => return Err(ex(format!("unknown rule type \"{other}\""))),
        };
        let priority: i32 = argv
            .get(4)
            .map(|s| s.trim().parse())
            .transpose()
            .map_err(|_| ex("rule: bad priority"))?
            .unwrap_or(0);
        let target = match argv.get(5).map(String::as_str) {
            None | Some("") | Some("-1") => None,
            Some(s) => Some(
                s.trim()
                    .parse::<usize>()
                    .map_err(|_| ex("rule: bad target rank"))?,
            ),
        };
        let mut c = ctx.borrow_mut();
        if !c.is_engine {
            return Err(ex("turbine::rule may only run on an engine"));
        }
        // Every input not known closed is waited on. The subscribe is
        // write-behind: the server notifies even when the datum is closed
        // already, so the engine never stops to ask.
        let (subscribe, d) = c.engine.rule(inputs, action, kind, priority, target);
        let my_rank = c.client.rank();
        for id in subscribe {
            c.client.subscribe_notify(id, my_rank).map_err(ex)?;
        }
        c.perform(d);
        Ok(String::new())
    });
    cmd!("turbine::spawn", |_i, ctx: &SharedCtx, argv: &[String]| {
        // turbine::spawn control|work priority action — immediate put.
        need(argv, 4, 4, "turbine::spawn type priority action")?;
        let wt = match argv[1].as_str() {
            "control" => adlb::WORK_TYPE_CONTROL,
            "work" => adlb::WORK_TYPE_WORK,
            other => return Err(ex(format!("unknown spawn type \"{other}\""))),
        };
        let priority: i32 = argv[2]
            .trim()
            .parse()
            .map_err(|_| ex("spawn: bad priority"))?;
        ctx.borrow_mut()
            .client
            .put(wt, priority, None, argv[3].clone().into_bytes());
        Ok(String::new())
    });

    // -- embedded interpreters (§III.C) ---------------------------------------
    cmd!("python", |interp: &mut Interp,
                    ctx: &SharedCtx,
                    argv: &[String]| {
        need(argv, 3, 3, "python code expression")?;
        let (result, output) = {
            let mut c = ctx.borrow_mut();
            if c.python.is_none() {
                c.python = Some(Python::new());
                c.interp_inits += 1;
            }
            // Just initialized above when absent; written without unwrap
            // so a future refactor degrades to a task error, not a rank
            // panic.
            let Some(py) = c.python.as_mut() else {
                return Err(ex("python interpreter unavailable"));
            };
            let result = py
                .run(&argv[1], &argv[2])
                .map_err(|e| ex(format!("python: {e}")))?;
            (result, py.take_output())
        };
        if !output.is_empty() {
            interp.write_output(&output);
        }
        Ok(result)
    });
    cmd!("r", |interp: &mut Interp,
               ctx: &SharedCtx,
               argv: &[String]| {
        need(argv, 3, 3, "r code expression")?;
        let (result, output) = {
            let mut c = ctx.borrow_mut();
            if c.r.is_none() {
                c.r = Some(R::new());
                c.interp_inits += 1;
            }
            // Same containment as the python command above.
            let Some(r) = c.r.as_mut() else {
                return Err(ex("R interpreter unavailable"));
            };
            let result = r
                .run(&argv[1], &argv[2])
                .map_err(|e| ex(format!("R: {e}")))?;
            (result, r.take_output())
        };
        if !output.is_empty() {
            interp.write_output(&output);
        }
        Ok(result)
    });

    cmd!("turbine::argv", |_i, ctx: &SharedCtx, argv: &[String]| {
        need(argv, 2, 3, "turbine::argv key ?default?")?;
        let c = ctx.borrow();
        match c.args.get(&argv[1]) {
            Some(v) => Ok(v.clone()),
            None => match argv.get(2) {
                Some(d) => Ok(d.clone()),
                None => Err(ex(format!("missing program argument --{}", argv[1]))),
            },
        }
    });
    cmd!(
        "turbine::argv_exists",
        |_i, ctx: &SharedCtx, argv: &[String]| {
            need(argv, 2, 2, "turbine::argv_exists key")?;
            Ok((ctx.borrow().args.contains_key(&argv[1]) as i64).to_string())
        }
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlb::Layout;
    use mpisim::World;

    #[test]
    fn an_id_list_reads_alike_with_and_without_quoting() {
        for (list, want) in [
            ("", vec![]),
            ("7", vec![7]),
            (" 7\t8\n9 ", vec![7, 8, 9]),
            ("{7} 8 \"9\"", vec![7, 8, 9]),
        ] {
            assert_eq!(parse_id_list(list).unwrap(), want, "{list:?}");
        }
        for bad in ["7 x", "{7", "-1", "7{"] {
            assert!(parse_id_list(bad).is_err(), "{bad:?}");
        }
    }

    /// Single client + single server world running Tcl against the
    /// command set.
    fn run_tcl(script: &'static str) -> Result<String, tclish::TclError> {
        let layout = Layout::new(2, 1);
        let out = World::run(2, move |comm| {
            if layout.is_server(comm.rank()) {
                adlb::serve(comm, layout, adlb::ServerConfig::default());
                return None;
            }
            let client = AdlbClient::new(comm, layout);
            let ctx = Ctx::new(client, true, InterpPolicy::Retain);
            let mut interp = Interp::new();
            register(&mut interp, ctx.clone());
            let result = interp.eval(script);
            // Drain any locally queued control actions so rules execute.
            loop {
                let action = ctx.borrow_mut().engine.ready.pop_front();
                match action {
                    Some(a) => {
                        if let Err(e) = interp.eval(&a) {
                            ctx.borrow_mut().client.finish();
                            return Some(Err(e));
                        }
                    }
                    None => break,
                }
            }
            ctx.borrow_mut().client.finish();
            Some(result)
        });
        out.into_iter().flatten().next().unwrap()
    }

    /// An engine with client `config` against one server: `setup` may
    /// add test commands or write behind the engine's back, then `script`
    /// runs. Returns the script's result and how many data operations
    /// reached the server.
    fn run_engine(
        config: adlb::ClientConfig,
        setup: fn(&mut Interp, &SharedCtx),
        script: &'static str,
    ) -> (Result<String, tclish::TclError>, u64) {
        let layout = Layout::new(2, 1);
        let mut out = World::run(2, move |comm| {
            if layout.is_server(comm.rank()) {
                let stats = adlb::serve(comm, layout, adlb::ServerConfig::default());
                return (None, stats.data_ops);
            }
            let client = AdlbClient::with_config(comm, layout, config);
            let ctx = Ctx::new(client, true, InterpPolicy::Retain);
            let mut interp = Interp::new();
            register(&mut interp, ctx.clone());
            setup(&mut interp, &ctx);
            let result = interp.eval(script);
            ctx.borrow_mut().client.finish();
            (Some(result), 0)
        });
        let ops = out[1].1;
        (out.swap_remove(0).0.unwrap(), ops)
    }

    #[test]
    fn an_engines_own_store_is_read_back_before_any_flush() {
        // Nothing leaves the 64-entry outbox before `finish`: the reads
        // are answered from what the engine stored, void included.
        let (out, ops) = run_engine(
            adlb::ClientConfig::batched(),
            |_, _| {},
            "set x [turbine::unique]; turbine::create $x integer\n\
             set v [turbine::unique]; turbine::create $v void\n\
             turbine::store_integer $x 42; turbine::store_void $v\n\
             list [turbine::retrieve_integer $x] [turbine::closed $v]",
        );
        assert_eq!(out.unwrap(), "42 1");
        assert_eq!(ops, 4, "two creates and two stores reach the server");
    }

    #[test]
    fn an_evicted_value_is_fetched_again_with_the_same_bytes() {
        let (out, ops) = run_engine(
            adlb::ClientConfig::batched(),
            |interp, ctx| {
                let ctx = ctx.clone();
                interp.register("test::flood", move |_, _| {
                    let mut c = ctx.borrow_mut();
                    for k in 0..crate::engine::KNOWN_MAX_IDS as u64 {
                        c.engine.remember(u64::MAX - k, Some(b"0".to_vec()));
                    }
                    Ok(String::new())
                });
            },
            "set x [turbine::unique]; turbine::create $x string\n\
             turbine::store_string $x {hello, world}\n\
             test::flood\n\
             turbine::retrieve_string $x",
        );
        assert_eq!(out.unwrap(), "hello, world");
        assert_eq!(ops, 3, "create, store and the retrieve of the evicted id");
    }

    #[test]
    fn a_value_over_the_inline_limit_is_read_from_the_server() {
        let (out, ops) = run_engine(
            adlb::ClientConfig::batched(),
            |_, _| {},
            "set x [turbine::unique]; turbine::create $x string\n\
             turbine::store_string $x [string repeat ab 2048]\n\
             list [turbine::closed $x] [string length [turbine::retrieve_string $x]]",
        );
        assert_eq!(out.unwrap(), "1 4096");
        assert_eq!(ops, 3, "known closed, but its 4 KiB are fetched");
    }

    #[test]
    fn a_store_refused_on_the_spot_is_not_remembered() {
        // Without an outbox a double assignment fails at once. Datum 9 was
        // stored behind the engine's back, so the caught refusal of 2 must
        // leave nothing for the read to find: it asks the server.
        let (out, ops) = run_engine(
            adlb::ClientConfig::default(),
            |_, ctx| {
                let mut c = ctx.borrow_mut();
                c.client.create(9, TurbineType::Integer.tag()).unwrap();
                c.client.store(9, b"1".to_vec()).unwrap();
            },
            "list [catch {turbine::store_integer 9 2}] [turbine::retrieve_integer 9]",
        );
        assert_eq!(out.unwrap(), "1 1");
        assert_eq!(ops, 4, "create, store, the refused store and the read");
    }

    #[test]
    fn create_store_retrieve_integer() {
        let out = run_tcl(
            "set id [turbine::unique]\n\
             turbine::create $id integer\n\
             turbine::store_integer $id 42\n\
             turbine::retrieve_integer $id",
        )
        .unwrap();
        assert_eq!(out, "42");
    }

    #[test]
    fn float_and_string_round_trip() {
        let out = run_tcl(
            "set f [turbine::unique]; turbine::create $f float\n\
             turbine::store_float $f 2.5\n\
             set s [turbine::unique]; turbine::create $s string\n\
             turbine::store_string $s \"hi [turbine::retrieve_float $f]\"\n\
             turbine::retrieve_string $s",
        )
        .unwrap();
        assert_eq!(out, "hi 2.5");
    }

    #[test]
    fn retrieve_open_datum_is_dataflow_error() {
        let err = run_tcl(
            "set id [turbine::unique]; turbine::create $id integer\n\
             turbine::retrieve_integer $id",
        )
        .unwrap_err();
        assert!(err.message.contains("open datum"));
    }

    #[test]
    fn containers_via_tcl() {
        let out = run_tcl(
            "set c [turbine::unique]; turbine::create $c container\n\
             turbine::container_insert $c 0 alpha\n\
             turbine::container_insert $c 1 beta\n\
             turbine::container_close $c\n\
             list [turbine::container_size $c] [turbine::container_values $c]",
        )
        .unwrap();
        assert_eq!(out, "2 {alpha beta}");
    }

    #[test]
    fn rule_with_closed_inputs_fires_immediately() {
        let out = run_tcl(
            "set x [turbine::unique]; turbine::create $x integer\n\
             turbine::store_integer $x 5\n\
             set y [turbine::unique]; turbine::create $y integer\n\
             turbine::rule [list $x] \"turbine::store_integer $y [turbine::retrieve_integer $x]\" control\n\
             set y",
        )
        .unwrap();
        // The rule ran in the drain loop; y now holds 5.
        let _ = out;
    }

    #[test]
    fn blob_td_round_trip() {
        let out = run_tcl(
            "set b [blobutils_create_floats {1.5 2.5 3.0}]\n\
             set td [turbine::unique]; turbine::create $td blob\n\
             turbine::store_blob $td $b\n\
             set b2 [turbine::retrieve_blob $td]\n\
             blobutils_sum_floats $b2",
        )
        .unwrap();
        assert_eq!(out, "7.0");
    }

    #[test]
    fn a_blob_write_is_seen_by_no_other_holder_of_its_buffer() {
        // 200 doubles: over `NOTIFY_VALUE_MAX`, so every read goes to the
        // server. The store still sits in the outbox, sharing `b`'s buffer,
        // when `b` is written; `r1` and `r2` come from one datum.
        let (out, _) = run_engine(
            adlb::ClientConfig::batched(),
            |_, _| {},
            "set b [blobutils_zeroes 200]\n\
             set td [turbine::unique]; turbine::create $td blob\n\
             turbine::store_blob $td $b\n\
             blobutils_set_float $b 0 9.0\n\
             set r1 [turbine::retrieve_blob $td]; set r2 [turbine::retrieve_blob $td]\n\
             blobutils_set_float $r1 1 5.0\n\
             list [blobutils_get_float $b 0] [blobutils_get_float $r1 0] \
                  [blobutils_get_float $r1 1] [blobutils_get_float $r2 1]",
        );
        assert_eq!(out.unwrap(), "9.0 0.0 5.0 0.0");
    }

    #[test]
    fn a_blob_copy_leaves_no_handle_on_the_engine() {
        // An engine's registry is never cleared, so `swt:copy_body` must
        // release the handle it retrieves through.
        let (out, _) = run_engine(
            adlb::ClientConfig::batched(),
            |interp, ctx| {
                crate::library::load(interp).unwrap();
                let ctx = ctx.clone();
                interp.register("test::live", move |_, _| {
                    Ok(ctx.borrow().blobs.borrow().len().to_string())
                });
            },
            "set w [turbine::unique]; turbine::create $w blob\n\
             set z [turbine::unique]; turbine::create $z blob\n\
             set b [blobutils_zeroes 200]; turbine::store_blob $w $b; blobutils_release $b\n\
             swt:copy_body blob $z $w\n\
             list [test::live] [blobutils_float_count [turbine::retrieve_blob $z]]",
        );
        assert_eq!(out.unwrap(), "0 200");
    }

    #[test]
    fn python_command_marshal() {
        let out = run_tcl("python {x = 3\ny = 4} {x * y + 30}").unwrap();
        assert_eq!(out, "42");
    }

    #[test]
    fn r_command_marshal() {
        let out = run_tcl("r {v <- c(1, 2, 3)} {sum(v * 2)}").unwrap();
        assert_eq!(out, "12");
    }

    #[test]
    fn python_state_retained_across_calls() {
        let out = run_tcl("python {acc = 1} {acc}; python {acc = acc + 10} {acc}").unwrap();
        assert_eq!(out, "11");
    }

    #[test]
    fn python_errors_become_tcl_errors() {
        let err = run_tcl("python {} {1 / 0}").unwrap_err();
        assert!(err.message.contains("ZeroDivisionError"));
    }
}
