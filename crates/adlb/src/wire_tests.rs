//! Golden bytes and hostile input for every ADLB wire layout.
//!
//! The table below pins the exact encoding of every variant of
//! [`Request`], [`Response`], [`ServerMsg`] and [`ReplOp`], of a
//! [`Task`] with and without a target, of a [`Ledger`] with one entry in
//! every map (so `HashMap` order cannot matter), and of one WAL record and
//! one checkpoint segment. A layout change that moves a single byte fails
//! here before it can move a message count or a kill schedule.
//!
//! The hostile half feeds random bytes, every strict prefix and
//! single-byte flips of each golden message to every decoder: each must
//! return a value or an error, never panic. Where an error is certain,
//! the tests pin its context and byte offset.

use std::collections::HashMap;

use bytes::Bytes;
use mpisim::{Rank, Wire, WireError};
use proptest::prelude::*;

use crate::checkpoint::{decode_segment, decode_wal, encode_segment, encode_wal_record, fnv1a};
use crate::datastore::{Datum, DatumValue, TYPE_TAG_CONTAINER};
use crate::msg::{seal, seal_seq, Request, Response, Sealed, ServerMsg, Task};
use crate::replica::{Lease, Ledger, ReplOp, Xfer};
use crate::RespHistory;

/// Every top-level decoder, as "did it produce a value".
fn decoders() -> Vec<fn(&Bytes) -> bool> {
    vec![
        |b| Sealed::<Request>::decode(b).is_ok(),
        |b| Sealed::<Response>::decode(b).is_ok(),
        |b| ServerMsg::decode(b).is_ok(),
        |b| ReplOp::decode(b).is_ok(),
        |b| Task::decode(b).is_ok(),
        |b| Ledger::decode(b).is_ok(),
        |b| decode_wal(b).is_ok(),
        |b| decode_segment(b).is_ok(),
    ]
}

// -- the golden values ---------------------------------------------------

fn task(target: Option<Rank>) -> Task {
    Task {
        work_type: 1,
        tenant: 2,
        priority: -3,
        target,
        attempts: 4,
        payload: Bytes::from_static(b"puts hi"),
    }
}

fn requests() -> Vec<(&'static str, Request)> {
    let b = Bytes::from_static;
    vec![
        ("request put", Request::Put(task(Some(5)))),
        (
            "request get any tenant",
            Request::Get {
                work_types: vec![0, 2],
                max_tasks: 16,
                tenant: None,
            },
        ),
        (
            "request get one tenant",
            Request::Get {
                work_types: vec![1],
                max_tasks: 1,
                tenant: Some(3),
            },
        ),
        ("request finished", Request::Finished),
        (
            "request data create",
            Request::DataCreate {
                id: 9,
                type_tag: 3,
                reads: None,
            },
        ),
        (
            "request data create counted",
            Request::DataCreate {
                id: 9,
                type_tag: 3,
                reads: Some(2),
            },
        ),
        (
            "request data store",
            Request::DataStore {
                id: 9,
                value: b(b"42"),
            },
        ),
        ("request data retrieve", Request::DataRetrieve { id: 9 }),
        (
            "request data subscribe",
            Request::DataSubscribe {
                id: 9,
                rank: 6,
                notify_closed: true,
            },
        ),
        (
            "request data insert",
            Request::DataInsert {
                id: 10,
                key: "k".into(),
                value: b(b"v"),
            },
        ),
        (
            "request data lookup",
            Request::DataLookup {
                id: 10,
                key: "k".into(),
            },
        ),
        ("request data enumerate", Request::DataEnumerate { id: 10 }),
        ("request data exists", Request::DataExists { id: 10 }),
        (
            "request data incr writers",
            Request::DataIncrWriters { id: 10, delta: -1 },
        ),
        (
            "request task done",
            Request::TaskDone {
                ok: false,
                error: "boom".into(),
                reads: vec![],
            },
        ),
        (
            "request batch",
            Request::Batch(vec![
                Request::DataIncrWriters { id: 1, delta: -1 },
                Request::TaskDone {
                    ok: true,
                    error: String::new(),
                    reads: vec![(9, 2)],
                },
            ]),
        ),
        (
            "request owned batch",
            Request::OwnedBatch(vec![
                Request::DataIncrWriters { id: 1, delta: -1 },
                Request::TaskDone {
                    ok: true,
                    error: String::new(),
                    reads: vec![],
                },
            ]),
        ),
        (
            "request output",
            Request::Output {
                text: "hi\n".into(),
                tenant: 2,
            },
        ),
    ]
}

fn responses() -> Vec<(&'static str, Response)> {
    vec![
        ("response ok", Response::Ok),
        ("response bool", Response::Bool(true)),
        ("response no bytes", Response::MaybeBytes(None)),
        (
            "response bytes",
            Response::MaybeBytes(Some(Bytes::from_static(b"42"))),
        ),
        (
            "response pairs",
            Response::Pairs(vec![("0".into(), Bytes::from_static(b"a"))]),
        ),
        (
            "response deliver",
            Response::Deliver(vec![task(None), task(Some(1))]),
        ),
        (
            "response no more",
            Response::NoMore {
                quarantined: vec!["q".into()],
                aborted: None,
            },
        ),
        (
            "response no more aborted",
            Response::NoMore {
                quarantined: vec![],
                aborted: Some("lost".into()),
            },
        ),
        ("response error", Response::Error("bad".into())),
        ("response rejected", Response::Rejected(vec![task(None)])),
        (
            "response batch",
            Response::Batch(vec![Response::Ok, Response::Error("x".into())]),
        ),
    ]
}

/// A transfer from server 8 toward home 9.
fn xfer(fseq: u64, steal: bool, tasks: Vec<Task>) -> Xfer {
    Xfer {
        origin: 8,
        dest: 9,
        fseq,
        steal,
        tasks,
        sent_to: None,
    }
}

fn server_msgs() -> Vec<(&'static str, ServerMsg)> {
    vec![
        (
            "server xfer forward",
            ServerMsg::Xfer(xfer(2, false, vec![task(Some(1))])),
        ),
        (
            "server steal req",
            ServerMsg::StealReq {
                thief: 9,
                work_types: vec![1],
                need: 3,
            },
        ),
        (
            "server xfer steal",
            ServerMsg::Xfer(xfer(4, true, vec![task(None)])),
        ),
        (
            "server xfer empty steal",
            ServerMsg::Xfer(xfer(0, true, vec![])),
        ),
        ("server check", ServerMsg::Check { round: 5 }),
        (
            "server check resp",
            ServerMsg::CheckResp {
                round: 5,
                quiescent: true,
                epoch: 6,
                fwd_out: 7,
                fwd_in: 8,
            },
        ),
        (
            "server shutdown",
            ServerMsg::Shutdown {
                reports: vec!["q".into()],
            },
        ),
        (
            "server repl",
            ServerMsg::Repl {
                ops: vec![
                    ReplOp::IncrWriters { id: 1, delta: -1 },
                    ReplOp::ClientDead { client: 2 },
                ],
            },
        ),
        (
            "server xfer ack",
            ServerMsg::XferAck {
                origin: 8,
                dest: 9,
                fseq: 4,
            },
        ),
        ("server bye", ServerMsg::Bye),
        (
            "server repl sync",
            ServerMsg::ReplSync {
                sync_id: 1,
                cursor: 2,
                total: 6,
                data: Bytes::from_static(b"abcd"),
            },
        ),
        (
            "server sync ack",
            ServerMsg::SyncAck {
                sync_id: 1,
                cursor: 6,
            },
        ),
        (
            "server release",
            ServerMsg::Release {
                releases: vec![(9, 2), (10, 1)],
            },
        ),
        (
            "server wind down",
            ServerMsg::WindDown {
                diagnosis: "lost".into(),
            },
        ),
    ]
}

fn repl_ops() -> Vec<(&'static str, ReplOp)> {
    let b = Bytes::from_static;
    vec![
        (
            "op create",
            ReplOp::Create {
                id: 1,
                type_tag: 0,
                reads: None,
            },
        ),
        (
            "op create counted",
            ReplOp::Create {
                id: 1,
                type_tag: 0,
                reads: Some(2),
            },
        ),
        (
            "op store",
            ReplOp::Store {
                id: 1,
                value: b(b"v"),
            },
        ),
        (
            "op insert",
            ReplOp::Insert {
                id: 2,
                key: "k".into(),
                value: b(b"v"),
            },
        ),
        ("op incr writers", ReplOp::IncrWriters { id: 2, delta: -1 }),
        ("op subscribe", ReplOp::Subscribe { id: 1, rank: 3 }),
        (
            "op push",
            ReplOp::Push {
                tasks: vec![task(None)],
            },
        ),
        (
            "op remove",
            ReplOp::Remove {
                tasks: vec![task(None)],
            },
        ),
        (
            "op lease open",
            ReplOp::LeaseOpen {
                client: 2,
                tasks: vec![task(None)],
            },
        ),
        ("op lease drop", ReplOp::LeaseDrop { client: 2, n: 1 }),
        ("op client dead", ReplOp::ClientDead { client: 2 }),
        (
            "op seq resp",
            ReplOp::SeqResp {
                home: 8,
                client: 2,
                seq: 7,
                resp: Some(b(b"r")),
            },
        ),
        (
            "op seq no resp",
            ReplOp::SeqResp {
                home: 8,
                client: 2,
                seq: 8,
                resp: None,
            },
        ),
        (
            "op out",
            ReplOp::Out {
                client: 2,
                text: "hi\n".into(),
                tenant: 1,
            },
        ),
        ("op client finished", ReplOp::ClientFinished { client: 2 }),
        (
            "op xfer out",
            ReplOp::XferOut {
                dest: 9,
                fseq: 3,
                steal: true,
                tasks: vec![task(None)],
            },
        ),
        (
            "op xfer done",
            ReplOp::XferDone {
                origin: 8,
                dest: 9,
                fseq: 3,
            },
        ),
        (
            "op xfer in",
            ReplOp::XferIn {
                origin: 9,
                dest: 8,
                fseq: 3,
                n: 1,
            },
        ),
        (
            "op quarantine",
            ReplOp::Quarantine {
                report: "poison".into(),
            },
        ),
        ("op release", ReplOp::Release { id: 1, n: 2 }),
    ]
}

/// A ledger with exactly one entry in every map and list, holding one
/// datum with `value`.
fn ledger(value: DatumValue) -> Ledger {
    let mut l = Ledger::default();
    l.store.insert_datum(
        7,
        Datum {
            type_tag: TYPE_TAG_CONTAINER,
            value,
            closed: true,
            subscribers: vec![3],
            write_refs: 1,
            read_refs: Some(2),
        },
    );
    l.queue.push(task(Some(1)));
    let lease = Lease {
        task: task(None),
        accepted_us: 0,
    };
    l.leases.insert(2, [lease].into());
    l.seqs.insert((8, 2), 17);
    l.resps.insert((8, 2), (17, Bytes::from_static(b"resp")));
    l.outputs.insert((2, 1), "out\n".into());
    l.finished.insert(4);
    l.quarantine.push("poison".into());
    l.pending_xfers.push(Xfer {
        origin: 8,
        dest: 9,
        fseq: 3,
        steal: true,
        tasks: vec![task(None)],
        sent_to: None,
    });
    l.next_fseq.insert(9, 3);
    l.xfer_applied.insert((8, 9), 5);
    l.fwd_out = 1;
    l.fwd_in = 2;
    l.merges = 3;
    l
}

fn container() -> DatumValue {
    DatumValue::Container(HashMap::from([("0".into(), Bytes::from_static(b"m"))]))
}

fn history() -> RespHistory {
    HashMap::from([(2, HashMap::from([(17, Bytes::from_static(b"resp"))]))])
}

fn wal_ops() -> Vec<ReplOp> {
    vec![
        ReplOp::Create {
            id: 1,
            type_tag: 0,
            reads: Some(1),
        },
        ReplOp::Store {
            id: 1,
            value: Bytes::from_static(b"v"),
        },
    ]
}

// -- the golden bytes ----------------------------------------------------

const GOLDEN: &[(&str, &str)] = &[
    ("request put", "000100000002000000fdffffffffffffff0500000000000000040000000700000070757473206869"),
    ("request get any tenant", "0102000000000000000200000010000000ffffffffffffffff"),
    ("request get one tenant", "010100000001000000010000000300000000000000"),
    ("request finished", "02"),
    ("request data create", "0309000000000000000300"),
    ("request data create counted", "030900000000000000030102000000"),
    ("request data store", "040900000000000000020000003432"),
    ("request data retrieve", "050900000000000000"),
    ("request data subscribe", "060900000000000000060000000000000001"),
    ("request data insert", "070a00000000000000010000006b0100000076"),
    ("request data lookup", "080a00000000000000010000006b"),
    ("request data enumerate", "090a00000000000000"),
    ("request data exists", "0b0a00000000000000"),
    ("request data incr writers", "0c0a00000000000000ffffffffffffffff"),
    ("request task done", "0d0004000000626f6f6d00000000"),
    ("request batch", "0e020000000c0100000000000000ffffffffffffffff0d010000000001000000090000000000000002000000"),
    ("request owned batch", "0f020000000c0100000000000000ffffffffffffffff0d010000000000000000"),
    ("request output", "100300000068690a02000000"),
    ("response ok", "00"),
    ("response bool", "0101"),
    ("response no bytes", "0200"),
    ("response bytes", "0201020000003432"),
    ("response pairs", "030100000001000000300100000061"),
    ("response deliver", "07020000000100000002000000fdffffffffffffffffffffffffffffff0400000007000000707574732068690100000002000000fdffffffffffffff0100000000000000040000000700000070757473206869"),
    ("response no more", "0501000000010000007100"),
    ("response no more aborted", "050000000001040000006c6f7374"),
    ("response error", "0603000000626164"),
    ("response rejected", "08010000000100000002000000fdffffffffffffffffffffffffffffff040000000700000070757473206869"),
    ("response batch", "090200000000060100000078"),
    ("server xfer forward", "0008000000000000000900000000000000020000000000000000010000000100000002000000fdffffffffffffff0100000000000000040000000700000070757473206869"),
    ("server steal req", "010900000000000000010000000100000003000000"),
    ("server xfer steal", "0008000000000000000900000000000000040000000000000001010000000100000002000000fdffffffffffffffffffffffffffffff040000000700000070757473206869"),
    ("server xfer empty steal", "000800000000000000090000000000000000000000000000000100000000"),
    ("server check", "030500000000000000"),
    ("server check resp", "04050000000000000001060000000000000007000000000000000800000000000000"),
    ("server shutdown", "05010000000100000071"),
    ("server repl", "0702000000040100000000000000ffffffffffffffff0c0200000000000000"),
    ("server xfer ack", "09080000000000000009000000000000000400000000000000"),
    ("server bye", "0a"),
    ("server repl sync", "0b0100000000000000020000000000000006000000000000000400000061626364"),
    ("server sync ack", "0c01000000000000000600000000000000"),
    ("server release", "0d020000000900000000000000020000000a0000000000000001000000"),
    ("server wind down", "0e040000006c6f7374"),
    ("op create", "0001000000000000000000"),
    ("op create counted", "000100000000000000000102000000"),
    ("op store", "0101000000000000000100000076"),
    ("op insert", "020200000000000000010000006b0100000076"),
    ("op incr writers", "040200000000000000ffffffffffffffff"),
    ("op subscribe", "0501000000000000000300000000000000"),
    ("op push", "06010000000100000002000000fdffffffffffffffffffffffffffffff040000000700000070757473206869"),
    ("op remove", "07010000000100000002000000fdffffffffffffffffffffffffffffff040000000700000070757473206869"),
    ("op lease open", "080200000000000000010000000100000002000000fdffffffffffffffffffffffffffffff040000000700000070757473206869"),
    ("op lease drop", "09020000000000000001000000"),
    ("op client dead", "0c0200000000000000"),
    ("op seq resp", "0d080000000000000002000000000000000700000000000000010100000072"),
    ("op seq no resp", "0d08000000000000000200000000000000080000000000000000"),
    ("op out", "0e02000000000000000300000068690a01000000"),
    ("op client finished", "0f0200000000000000"),
    ("op xfer out", "100900000000000000030000000000000001010000000100000002000000fdffffffffffffffffffffffffffffff040000000700000070757473206869"),
    ("op xfer done", "11080000000000000009000000000000000300000000000000"),
    ("op xfer in", "120900000000000000080000000000000003000000000000000100000000000000"),
    ("op quarantine", "1306000000706f69736f6e"),
    ("op release", "14010000000000000002000000"),
    ("task untargeted", "0100000002000000fdffffffffffffffffffffffffffffff040000000700000070757473206869"),
    ("task targeted", "0100000002000000fdffffffffffffff0500000000000000040000000700000070757473206869"),
    ("ledger container", "010000000700000000000000640102010000000100000030010000006d01000000030000000000000001000000000000000102000000010000000100000002000000fdffffffffffffff0100000000000000040000000700000070757473206869010000000200000000000000010000000100000002000000fdffffffffffffffffffffffffffffff0400000007000000707574732068690100000008000000000000000200000000000000110000000000000001000000080000000000000002000000000000001100000000000000040000007265737001000000020000000000000001000000040000006f75740a0100000004000000000000000100000006000000706f69736f6e0100000008000000000000000900000000000000030000000000000001010000000100000002000000fdffffffffffffffffffffffffffffff040000000700000070757473206869010000000900000000000000030000000000000001000000080000000000000009000000000000000500000000000000010000000000000002000000000000000300000000000000"),
    ("ledger scalar", "010000000700000000000000640101010000007301000000030000000000000001000000000000000102000000010000000100000002000000fdffffffffffffff0100000000000000040000000700000070757473206869010000000200000000000000010000000100000002000000fdffffffffffffffffffffffffffffff0400000007000000707574732068690100000008000000000000000200000000000000110000000000000001000000080000000000000002000000000000001100000000000000040000007265737001000000020000000000000001000000040000006f75740a0100000004000000000000000100000006000000706f69736f6e0100000008000000000000000900000000000000030000000000000001010000000100000002000000fdffffffffffffffffffffffffffffff040000000700000070757473206869010000000900000000000000030000000000000001000000080000000000000009000000000000000500000000000000010000000000000002000000000000000300000000000000"),
    ("ledger unset", "01000000070000000000000064010001000000030000000000000001000000000000000102000000010000000100000002000000fdffffffffffffff0100000000000000040000000700000070757473206869010000000200000000000000010000000100000002000000fdffffffffffffffffffffffffffffff0400000007000000707574732068690100000008000000000000000200000000000000110000000000000001000000080000000000000002000000000000001100000000000000040000007265737001000000020000000000000001000000040000006f75740a0100000004000000000000000100000006000000706f69736f6e0100000008000000000000000900000000000000030000000000000001010000000100000002000000fdffffffffffffffffffffffffffffff040000000700000070757473206869010000000900000000000000030000000000000001000000080000000000000009000000000000000500000000000000010000000000000002000000000000000300000000000000"),
    ("wal record", "290000000b00000000000000020000000001000000000000000001010000000101000000000000000100000076b880b71f7f509ae4"),
    ("segment", "31504b430b00000000000000010000000700000000000000640102010000000100000030010000006d01000000030000000000000001000000000000000102000000010000000100000002000000fdffffffffffffff0100000000000000040000000700000070757473206869010000000200000000000000010000000100000002000000fdffffffffffffffffffffffffffffff0400000007000000707574732068690100000008000000000000000200000000000000110000000000000001000000080000000000000002000000000000001100000000000000040000007265737001000000020000000000000001000000040000006f75740a0100000004000000000000000100000006000000706f69736f6e0100000008000000000000000900000000000000030000000000000001010000000100000002000000fdffffffffffffffffffffffffffffff04000000070000007075747320686901000000090000000000000003000000000000000100000008000000000000000900000000000000050000000000000001000000000000000200000000000000030000000000000001000000020000000100000011000000000000000400000072657370071cd41bd3d97ac2"),
];

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

fn unhex(s: &str) -> Bytes {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect::<Vec<u8>>()
        .into()
}

fn golden(name: &str) -> Option<Bytes> {
    GOLDEN
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, h)| unhex(h))
}

/// Every golden encoding this module pins, by name, from the values.
fn encodings() -> Vec<(&'static str, Bytes)> {
    let mut out = Vec::new();
    for (name, req) in requests() {
        out.push((name, req.encode()));
    }
    for (name, resp) in responses() {
        out.push((name, resp.encode()));
    }
    for (name, msg) in server_msgs() {
        out.push((name, msg.encode()));
    }
    for (name, op) in repl_ops() {
        out.push((name, op.encode()));
    }
    out.push(("task untargeted", task(None).encode()));
    out.push(("task targeted", task(Some(5)).encode()));
    out.push(("ledger container", ledger(container()).encode()));
    out.push((
        "ledger scalar",
        ledger(DatumValue::Scalar(Bytes::from_static(b"s"))).encode(),
    ));
    out.push(("ledger unset", ledger(DatumValue::Unset).encode()));
    out.push(("wal record", encode_wal_record(11, &wal_ops()).into()));
    out.push((
        "segment",
        encode_segment(11, &ledger(container()), &history()).into(),
    ));
    out
}

#[test]
fn every_layout_matches_its_golden_bytes() {
    let mut missing = String::new();
    for (name, bytes) in encodings() {
        match golden(name) {
            Some(want) => assert_eq!(hex(&bytes), hex(&want), "{name}"),
            None => missing.push_str(&format!("    (\"{name}\", \"{}\"),\n", hex(&bytes))),
        }
    }
    assert!(missing.is_empty(), "no golden bytes for:\n{missing}");
    assert_eq!(
        GOLDEN.len(),
        encodings().len(),
        "a golden entry has no value"
    );
}

#[test]
fn golden_bytes_decode_to_their_values() {
    let g = |name| golden(name).unwrap();
    for (name, req) in requests() {
        assert_eq!(
            Sealed::<Request>::decode(&seal_seq(&g(name), 9)).unwrap(),
            (req, 9),
            "{name}"
        );
    }
    for (name, resp) in responses() {
        assert_eq!(
            Sealed::<Response>::decode(&seal_seq(&g(name), 9)).unwrap(),
            (resp, 9),
            "{name}"
        );
    }
    for (name, msg) in server_msgs() {
        assert_eq!(ServerMsg::decode(&g(name)).unwrap(), msg, "{name}");
    }
    // One writer seals a message: its golden body, then the seq.
    for (name, req) in requests() {
        assert_eq!(seal(&req, 9), seal_seq(&g(name), 9), "{name}");
    }
    for (name, resp) in responses() {
        assert_eq!(seal(&resp, 9), seal_seq(&g(name), 9), "{name}");
    }
    for (name, op) in repl_ops() {
        assert_eq!(ReplOp::decode(&g(name)).unwrap(), op, "{name}");
    }
    assert_eq!(Task::decode(&g("task untargeted")).unwrap(), task(None));
    assert_eq!(Task::decode(&g("task targeted")).unwrap(), task(Some(5)));
    assert_eq!(
        Ledger::decode(&g("ledger container")).unwrap(),
        ledger(container())
    );
    assert_eq!(decode_wal(&g("wal record")).unwrap(), vec![(11, wal_ops())]);
    let (lsn, l, h) = decode_segment(&g("segment")).unwrap();
    assert_eq!((lsn, l, h), (11, ledger(container()), history()));
}

/// `golden(name)` with the byte at `at` replaced by `value`.
fn edited(name: &str, at: usize, value: u8) -> Bytes {
    let mut b = golden(name).unwrap().to_vec();
    b[at] = value;
    b.into()
}

/// Where and why a decode failed.
fn failure<T: std::fmt::Debug>(decoded: Result<T, WireError>) -> (&'static str, usize) {
    let e = decoded.unwrap_err();
    (e.context, e.offset)
}

#[test]
fn an_unknown_kind_is_reported_at_its_tag() {
    // A batch entry's tag sits after the batch tag and the u32 count.
    let request = seal_seq(&edited("request batch", 5, 99), 1);
    assert_eq!(
        failure(Sealed::<Request>::decode(&request)),
        ("unknown request kind", 5)
    );
    let response = seal_seq(&edited("response batch", 5, 99), 1);
    assert_eq!(
        failure(Sealed::<Response>::decode(&response)),
        ("unknown response kind", 5)
    );
    assert_eq!(
        failure(ServerMsg::decode(&edited("server repl", 5, 99))),
        ("unknown repl op kind", 5)
    );
    assert_eq!(
        failure(ServerMsg::decode(&edited("server repl", 0, 8))),
        ("unknown server message kind", 0)
    );
    // Retired kinds are unknown: a container closes by its writer count
    // (request 10, op 3), a release rides its ack (request 17), a delivery
    // has one form (response 4), so has a transfer (server message 2), and
    // servers learn a peer's death from the oracle, not a heartbeat
    // (server message 6).
    for kind in [10, 17] {
        let retired = seal_seq(&edited("request data retrieve", 0, kind), 1);
        assert_eq!(
            failure(Sealed::<Request>::decode(&retired)),
            ("unknown request kind", 0)
        );
    }
    let retired = seal_seq(&edited("response deliver", 0, 4), 1);
    assert_eq!(
        failure(Sealed::<Response>::decode(&retired)),
        ("unknown response kind", 0)
    );
    for kind in [2, 6] {
        assert_eq!(
            failure(ServerMsg::decode(&edited("server xfer steal", 0, kind))),
            ("unknown server message kind", 0)
        );
    }
    assert_eq!(
        failure(ReplOp::decode(&edited("op incr writers", 0, 3))),
        ("unknown repl op kind", 0)
    );
    // A ledger's first datum: u32 count, u64 id, type tag, closed flag.
    assert_eq!(
        failure(Ledger::decode(&edited("ledger unset", 14, 3))),
        ("unknown datum value kind", 14)
    );
    // A batch of either form inside a batch of either form is refused at
    // the inner tag, not recursed into.
    let forms: [fn(Vec<Request>) -> Request; 2] = [Request::Batch, Request::OwnedBatch];
    for outer in forms {
        for inner in forms {
            let nested = outer(vec![inner(vec![])]);
            assert_eq!(
                failure(Sealed::<Request>::decode(&seal_seq(&nested.encode(), 1))),
                ("nested batch", 5)
            );
        }
    }
}

#[test]
fn an_option_flag_is_zero_or_one() {
    // The flag is the last byte of each of these encodings.
    let last = |name| golden(name).unwrap().len() - 1;
    for name in ["response no bytes", "response no more"] {
        let sealed = seal_seq(&edited(name, last(name), 2), 1);
        let (context, _) = failure(Sealed::<Response>::decode(&sealed));
        assert_eq!(context, "option flag", "{name}");
    }
    let op = edited("op seq no resp", last("op seq no resp"), 2);
    assert_eq!(failure(ReplOp::decode(&op)).0, "option flag");
}

/// Run every decoder over `bytes`; reaching the end is the assertion.
fn decode_everything(bytes: &Bytes) {
    for decode in decoders() {
        decode(bytes);
    }
}

/// `bytes` as it would sit on the wire or on disk: a sealed request or
/// response carries its seq, and a WAL body or segment its checksum — so
/// a flipped byte reaches the layout instead of stopping at the checksum.
fn framings(bytes: &Bytes) -> Vec<Bytes> {
    let mut wal = (bytes.len() as u32).to_le_bytes().to_vec();
    wal.extend_from_slice(bytes);
    wal.extend_from_slice(&fnv1a(bytes).to_le_bytes());
    let mut seg = bytes.to_vec();
    seg.extend_from_slice(&fnv1a(bytes).to_le_bytes());
    vec![bytes.clone(), seal_seq(bytes, 3), wal.into(), seg.into()]
}

#[test]
fn every_prefix_and_flipped_byte_of_every_golden_message_decodes_or_errs() {
    for (_, bytes) in encodings() {
        for framed in framings(&bytes) {
            for cut in 0..framed.len() {
                decode_everything(&framed.slice(..cut));
            }
            for at in 0..framed.len() {
                for mask in [0x01, 0x80, 0xFF] {
                    let mut flipped = framed.to_vec();
                    flipped[at] ^= mask;
                    decode_everything(&flipped.into());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn random_bytes_decode_or_err(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        for framed in framings(&bytes.into()) {
            decode_everything(&framed);
        }
    }

    #[test]
    fn batches_nested_in_any_mix_of_forms_are_refused_at_the_first_inner_tag(
        forms in proptest::collection::vec(prop_oneof![Just(14u8), Just(15u8)], 2..4096),
    ) {
        // Each level is its tag and a count of one; the innermost is empty.
        let mut bytes = Vec::new();
        for tag in forms {
            bytes.push(tag);
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        let decoded = Sealed::<Request>::decode(&seal_seq(&bytes, 1));
        prop_assert_eq!(failure(decoded), ("nested batch", 5));
    }

    #[test]
    fn random_edits_of_golden_messages_decode_or_err(
        pick in 0usize..1000,
        at in 0usize..4096,
        value in any::<u8>(),
    ) {
        let all = encodings();
        let (_, bytes) = &all[pick % all.len()];
        let mut edited = bytes.to_vec();
        if !edited.is_empty() {
            let at = at % edited.len();
            edited[at] = value;
        }
        for framed in framings(&edited.into()) {
            decode_everything(&framed);
        }
    }
}
