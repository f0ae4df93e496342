//! Durable pfs-backed checkpoint/WAL tier.
//!
//! Replication (PR 3–4) keeps a shard alive as long as *one* holder
//! survives a failure window. This module adds the layer below: every
//! server appends its replication op stream to a per-shard write-ahead
//! log on the simulated parallel filesystem, compacted into a full
//! checkpoint segment whenever the log written since the last segment
//! has grown as large as that segment. Two recovery paths use it:
//!
//! * **Total replica loss.** When membership confirms a shard lost every
//!   holder, the would-be abort becomes a restore: the surviving
//!   successor reads the shard's latest segment, replays the WAL tail,
//!   and promotes the result exactly as it would a RAM replica.
//! * **Whole-world restart.** Kill every rank, relaunch with `--resume`:
//!   each server restores its own shard (following subsumption redirects
//!   left by earlier failovers) and clients re-execute from scratch,
//!   with the per-client seq dedup replaying durable responses
//!   byte-for-byte so effects stay exactly-once.
//!
//! **Group commit is the correctness core.** While ops sit unflushed in
//! the WAL buffer, *every* outbound send of the server (client responses
//! and server-to-server traffic alike) is held. Nothing observable
//! leaves the server before the ops it reflects are durable, so a
//! restore can never lose state that any other rank has acted on — the
//! same crash-consistency argument the write-through replication path
//! makes, extended to the durable tier. Batching `interval` ops per WAL
//! record (one metadata op + one data op per flush) is what keeps the
//! pfs metadata server from being stormed — the paper's §IV small-file
//! wall, measurable with `--checkpoint 1` (per-task logging).
//!
//! On-disk layout under `/ckpt/<home>/`:
//!
//! * `seg-<k>` — magic, last covered LSN, full [`Ledger`], response
//!   history (per client, every sealed response by seq — whole-world
//!   resume replays these to restarted clients).
//! * `wal-<k>` — length-framed records appended since segment `k`; each
//!   record is `[lsn, n, op...]`. Compaction keeps it smaller than
//!   `seg-<k>` at rest (see [`CheckpointSink::due_segment`]), so a
//!   restore reads at most twice the segment's bytes.
//! * `latest` — pointer to the newest segment epoch, or a *redirect
//!   tombstone* naming the server that subsumed this shard in a
//!   failover (its checkpoint now covers this home's state).
//!
//! Replay sorts the tail by LSN and drops duplicates, so a WAL whose
//! tail was re-appended or reordered by a crashed writer restores to the
//! same state — the idempotence property the stress proptest pins down.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use mpisim::{wire_enum, Rank, Tag, Wire, WireReader, WireWriter};
use pfs::{Pfs, PfsClient};

use crate::layout::Layout;
use crate::replica::{Ledger, ReplOp};

/// Default ops per WAL record (the group-commit batch size).
pub const DEFAULT_INTERVAL: usize = 64;

const SEG_MAGIC: u32 = 0x434b_5031; // "CKP1"

/// FNV-1a 64-bit over `bytes` — the integrity checksum appended to every
/// WAL record frame and checkpoint segment. Hand-rolled (no external
/// hash dependency); collision resistance is irrelevant here, this only
/// has to catch torn writes and bit rot in a durable image.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Checkpointing knobs carried in [`crate::ServerConfig`].
#[derive(Clone)]
pub struct CheckpointConfig {
    /// The durable tier. All servers of one run share one filesystem.
    pub fs: Arc<Pfs>,
    /// Ops per WAL record: `1` logs (and pays the metadata server) per
    /// task-effect commit, larger values group-commit.
    pub interval: usize,
    /// Restore each server's shard from the filesystem before serving.
    pub resume: bool,
}

impl CheckpointConfig {
    /// Checkpointing to `fs` at the default interval, not resuming.
    pub fn new(fs: Arc<Pfs>) -> Self {
        CheckpointConfig {
            fs,
            interval: DEFAULT_INTERVAL,
            resume: false,
        }
    }

    /// Set the group-commit interval (clamped to at least 1).
    pub fn interval(mut self, ops: usize) -> Self {
        self.interval = ops.max(1);
        self
    }

    /// Restore from the last durable checkpoint instead of starting empty.
    pub fn resume(mut self, yes: bool) -> Self {
        self.resume = yes;
        self
    }
}

impl fmt::Debug for CheckpointConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointConfig")
            .field("interval", &self.interval)
            .field("resume", &self.resume)
            .finish_non_exhaustive()
    }
}

fn seg_path(home: Rank, k: u64) -> String {
    format!("/ckpt/{home}/seg-{k}")
}

fn wal_path(home: Rank, k: u64) -> String {
    format!("/ckpt/{home}/wal-{k}")
}

fn latest_path(home: Rank) -> String {
    format!("/ckpt/{home}/latest")
}

/// Per-client sealed responses by seq, kept for whole-world resume.
pub type RespHistory = HashMap<Rank, HashMap<u64, Bytes>>;

fn absorb_history(history: &mut RespHistory, ops: &[ReplOp]) {
    for op in ops {
        if let ReplOp::SeqResp {
            client,
            seq,
            resp: Some(bytes),
            ..
        } = op
        {
            history
                .entry(*client)
                .or_default()
                .insert(*seq, bytes.clone());
        }
    }
}

/// Encode one WAL record: a length-framed `[lsn, n, op...]` batch,
/// followed by an FNV-1a checksum of the body.
pub fn encode_wal_record(lsn: u64, ops: &[ReplOp]) -> Vec<u8> {
    let mut body = WireWriter::new();
    body.put_u64(lsn).put_seq(ops);
    let body = body.into_vec();
    let mut frame = WireWriter::with_capacity(4 + body.len() + 8);
    frame.put_bytes(&body).put_u64(fnv1a(&body));
    frame.into_vec()
}

/// Decode a WAL file into `(lsn, ops)` records. Errors on a torn frame,
/// a checksum mismatch, or a record body that is not exactly one
/// `[lsn, n, op...]` batch — corruption, not a recoverable condition.
pub fn decode_wal(buf: &[u8]) -> Result<Vec<(u64, Vec<ReplOp>)>, String> {
    let mut r = WireReader::new(buf);
    let mut records = Vec::new();
    while r.remaining() > 0 {
        let at = r.offset();
        let torn = |e| format!("wal: torn frame at byte {at}: {e}");
        let body = r.get_bytes().map_err(torn)?;
        if r.get_u64().map_err(torn)? != fnv1a(body) {
            return Err(format!("wal: record checksum mismatch at byte {at}"));
        }
        let record = WireReader::new(body).exact(<(u64, Vec<ReplOp>)>::get);
        records.push(record.map_err(|e| format!("wal: record at byte {at}: {e}"))?);
    }
    Ok(records)
}

/// Replay WAL records with LSN greater than `from_lsn` onto `ledger`,
/// in LSN order, ignoring duplicates. Duplicated or reordered tail
/// records — a crashed writer's re-appends — replay to the same state.
/// Returns the highest LSN applied (or `from_lsn` if none were).
pub fn replay_wal_records(
    ledger: &mut Ledger,
    owner: Rank,
    from_lsn: u64,
    mut records: Vec<(u64, Vec<ReplOp>)>,
) -> u64 {
    records.sort_by_key(|(lsn, _)| *lsn);
    let mut last = from_lsn;
    for (lsn, ops) in records {
        if lsn <= last {
            continue; // duplicate or already covered by the segment
        }
        for op in ops {
            ledger.apply(owner, op);
        }
        last = lsn;
    }
    last
}

/// The response history as a segment stores it: clients ascending, each
/// as a `u32` with its sealed responses by ascending seq.
type HistoryLayout = Vec<(u32, Vec<(u64, Bytes)>)>;

/// A segment: magic, last covered LSN, full [`Ledger`], response
/// history, then an FNV-1a checksum of everything before it.
pub(crate) fn encode_segment(last_lsn: u64, ledger: &Ledger, history: &RespHistory) -> Vec<u8> {
    let mut by_client: HistoryLayout = history
        .iter()
        .map(|(client, by_seq)| {
            let mut seqs: Vec<(u64, Bytes)> = by_seq.iter().map(|(s, b)| (*s, b.clone())).collect();
            seqs.sort_by_key(|(seq, _)| *seq);
            (*client as u32, seqs)
        })
        .collect();
    by_client.sort_by_key(|(client, _)| *client);
    let mut w = WireWriter::new();
    w.put_u32(SEG_MAGIC)
        .put_u64(last_lsn)
        .put(ledger)
        .put(&by_client);
    let mut out = w.into_vec();
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

pub(crate) fn decode_segment(buf: &[u8]) -> Result<(u64, Ledger, RespHistory), String> {
    if buf.len() < 8 {
        return Err("segment: truncated (no checksum)".into());
    }
    let (body, sum_bytes) = buf.split_at(buf.len() - 8);
    let sum: [u8; 8] = sum_bytes
        .try_into()
        .map_err(|_| "segment: truncated (no checksum)".to_string())?;
    if u64::from_le_bytes(sum) != fnv1a(body) {
        return Err("segment: checksum mismatch".into());
    }
    let segment = WireReader::new(body).exact(|r| {
        if r.get_u32()? != SEG_MAGIC {
            return Err(r.error("segment magic"));
        }
        Ok((r.get_u64()?, Ledger::get(r)?, HistoryLayout::get(r)?))
    });
    let (last_lsn, ledger, by_client) = segment.map_err(|e| format!("segment: {e}"))?;
    let history = by_client
        .into_iter()
        .map(|(client, seqs)| (client as Rank, seqs.into_iter().collect()))
        .collect();
    Ok((last_lsn, ledger, history))
}

wire_enum! {
    /// What a shard's `latest` file points at.
    enum Latest: "latest pointer" {
        /// The newest segment epoch.
        0 => Segment(u64),
        /// A redirect tombstone: the rank (as a `u32`) whose checkpoint
        /// subsumed this shard in a failover.
        1 => Redirect(u32),
    }
}

/// What a shard restore found on the filesystem.
pub(crate) struct Restored {
    /// Segment base with the WAL tail replayed on top.
    pub ledger: Ledger,
    /// Durable sealed responses, for replaying to restarted clients.
    pub history: RespHistory,
    /// Highest durable LSN (0 when nothing was ever flushed).
    pub last_lsn: u64,
    /// Segment epoch the restore read (resumers continue after it).
    pub seg_no: u64,
    /// Size of that epoch's segment (0 when it has none): a resumer's
    /// compaction baseline.
    pub seg_bytes: u64,
    /// Size of that epoch's WAL tail, already counted against it.
    pub wal_bytes: u64,
    /// Redirect chain followed from the requested home to the covering
    /// checkpoint (empty when the home's own checkpoint was read).
    pub via: Vec<Rank>,
}

/// Read home `home`'s durable state: follow redirect tombstones to the
/// covering checkpoint, load its latest segment, replay the WAL tail.
/// An entirely absent checkpoint directory restores to an empty ledger —
/// under group commit that means nothing observable ever happened, so
/// empty *is* the correct durable state.
pub(crate) fn restore_home(client: &mut PfsClient, home: Rank) -> Result<Restored, String> {
    let mut at = home;
    let mut via = Vec::new();
    let mut seen = HashSet::new();
    let seg_no = loop {
        if !seen.insert(at) {
            return Err(format!("/ckpt/{home}: redirect cycle through rank {at}"));
        }
        if !client.exists(&latest_path(at)) {
            break 0; // never compacted: segment 0 is the empty base
        }
        let raw = client.read(&latest_path(at)).map_err(|e| format!("{e}"))?;
        match Latest::decode(&raw.into()) {
            Ok(Latest::Segment(k)) => break k,
            Ok(Latest::Redirect(to)) => {
                via.push(to as Rank);
                at = to as Rank;
            }
            Err(e) => return Err(format!("/ckpt/{at}/latest: corrupt pointer: {e}")),
        }
    };

    let (mut seg_bytes, mut wal_bytes) = (0, 0);
    let (mut last_lsn, mut ledger, mut history) = if client.exists(&seg_path(at, seg_no)) {
        let raw = client
            .read(&seg_path(at, seg_no))
            .map_err(|e| format!("{e}"))?;
        seg_bytes = raw.len() as u64;
        decode_segment(&raw)?
    } else {
        (0, Ledger::default(), RespHistory::new())
    };

    if client.exists(&wal_path(at, seg_no)) {
        let raw = client
            .read(&wal_path(at, seg_no))
            .map_err(|e| format!("{e}"))?;
        wal_bytes = raw.len() as u64;
        let records = decode_wal(&raw)?;
        for (_, ops) in &records {
            absorb_history(&mut history, ops);
        }
        last_lsn = replay_wal_records(&mut ledger, at, last_lsn, records);
    }

    Ok(Restored {
        ledger,
        history,
        last_lsn,
        seg_no,
        seg_bytes,
        wal_bytes,
        via,
    })
}

/// Project the slice of a (possibly merged) checkpoint that belongs to
/// `home` under `layout`. After a failover, the subsuming server's
/// checkpoint covers several homes; on whole-world resume every server
/// restores the covering checkpoint and keeps only its own slice, so
/// the partition is disjoint and nothing restores twice:
///
/// * data ids go to `layout.data_owner(id)`,
/// * leases go to `layout.server_of(client)`,
/// * `(home, client)` dedup marks and cached responses go to that home,
/// * targeted queue tasks go to the target's home,
/// * untargeted tasks and global flow state (pending transfers, fwd
///   counters, quarantine) stay with the checkpoint's owner `ckpt_owner`
///   — the global forward/in balance is preserved, which is all the
///   termination detector needs.
pub(crate) fn split_for_home(
    full: &Ledger,
    layout: &Layout,
    home: Rank,
    ckpt_owner: Rank,
) -> Ledger {
    let owner_slice = home == ckpt_owner;
    let mut out = Ledger::default();
    for (id, datum) in full.store.iter() {
        if layout.data_owner(*id) == home {
            out.store.insert_datum(*id, datum.clone());
        }
    }
    for task in full.queue.tasks() {
        let keep = match task.target {
            Some(t) => layout.server_of(t) == home,
            None => owner_slice,
        };
        if keep {
            out.queue.push(task.clone());
        }
    }
    let mine = |c: &Rank| layout.server_of(*c) == home;
    out.leases = full
        .leases
        .iter()
        .filter(|(c, _)| mine(c))
        .map(|(c, v)| (*c, v.clone()))
        .collect();
    // Dedup marks and cached responses follow the home they were made
    // at: every server is alive again, so a replaying client addresses
    // each request to the home it originally did.
    out.seqs = full
        .seqs
        .iter()
        .filter(|((h, _), _)| *h == home)
        .map(|(k, v)| (*k, *v))
        .collect();
    out.resps = full
        .resps
        .iter()
        .filter(|((h, _), _)| *h == home)
        .map(|(k, v)| (*k, v.clone()))
        .collect();
    // Transfer numbering goes to EVERY restored home: after a failover
    // the owner's counters upper-bound the subsumed origins' too (see
    // `Ledger::absorb`), and a resumed home reusing old fseq numbers
    // would get its fresh transfers dropped by receivers' durable
    // `xfer_applied` high-waters.
    out.next_fseq = full.next_fseq.clone();
    // Applied-transfer high-waters protect the *destination* home from
    // double-applying a redriven transfer; each entry follows its dest.
    out.xfer_applied = full
        .xfer_applied
        .iter()
        .filter(|((dest, _), _)| *dest == home)
        .map(|(k, v)| (*k, *v))
        .collect();
    if owner_slice {
        out.quarantine = full.quarantine.clone();
        out.pending_xfers = full.pending_xfers.clone();
        out.fwd_out = full.fwd_out;
        out.fwd_in = full.fwd_in;
    }
    // outputs/finished are deliberately dropped: on resume every client
    // is alive again and re-produces its stream from scratch; merges
    // restarts at 0 because the resumed world has seen no failovers.
    out
}

/// Keep only the history of clients homed at `home`.
pub(crate) fn split_history_for_home(
    full: &RespHistory,
    layout: &Layout,
    home: Rank,
) -> RespHistory {
    full.iter()
        .filter(|(c, _)| layout.server_of(**c) == home)
        .map(|(c, m)| (*c, m.clone()))
        .collect()
}

/// The write-behind durability sink one server owns while checkpointing.
pub(crate) struct CheckpointSink {
    client: PfsClient,
    home: Rank,
    interval: usize,
    /// Ops committed to live state but not yet durable.
    buf: Vec<ReplOp>,
    /// Outbound sends held until `buf` is durable (group commit).
    held: Vec<(Rank, Tag, Bytes)>,
    /// Next LSN to assign (first record is LSN 1).
    next_lsn: u64,
    seg_no: u64,
    /// The compaction baseline: the current epoch's segment size and the
    /// WAL bytes logged on top of it (see [`CheckpointSink::due_segment`]).
    last_seg_bytes: u64,
    wal_bytes_since_seg: u64,
    history: RespHistory,
    /// WAL records written.
    pub records: u64,
    /// Ops made durable.
    pub ops_logged: u64,
    /// Checkpoint segments written.
    pub segments: u64,
    /// Bytes written to the durable tier (WAL + segments).
    pub bytes_written: u64,
    /// The segments' share of `bytes_written`.
    pub segment_bytes: u64,
}

impl CheckpointSink {
    pub(crate) fn new(cfg: &CheckpointConfig, home: Rank) -> Self {
        CheckpointSink {
            client: cfg.fs.client(),
            home,
            interval: cfg.interval.max(1),
            buf: Vec::new(),
            held: Vec::new(),
            next_lsn: 1,
            seg_no: 0,
            last_seg_bytes: 0,
            wal_bytes_since_seg: 0,
            history: RespHistory::new(),
            records: 0,
            ops_logged: 0,
            segments: 0,
            bytes_written: 0,
            segment_bytes: 0,
        }
    }

    /// Continue after a restore: later records follow the restored LSN,
    /// the next segment supersedes the restored epoch, and the restored
    /// segment and WAL tail are the compaction baseline.
    pub(crate) fn fast_forward(&mut self, r: &Restored) {
        self.next_lsn = r.last_lsn + 1;
        self.seg_no = r.seg_no;
        self.last_seg_bytes = r.seg_bytes;
        self.wal_bytes_since_seg = r.wal_bytes;
    }

    /// Adopt durable response history (restore/promotion paths).
    pub(crate) fn adopt_history(&mut self, history: RespHistory) {
        for (client, by_seq) in history {
            self.history.entry(client).or_default().extend(by_seq);
        }
    }

    /// Buffer committed ops for the next WAL record.
    pub(crate) fn log(&mut self, ops: &[ReplOp]) {
        absorb_history(&mut self.history, ops);
        self.buf.extend_from_slice(ops);
    }

    /// [`CheckpointSink::log`] draining `ops`: with no replica holders
    /// the op batch has no other consumer, so skip the per-op clone.
    pub(crate) fn log_owned(&mut self, ops: &mut Vec<ReplOp>) {
        absorb_history(&mut self.history, ops);
        self.buf.append(ops);
    }

    /// Hold outbound sends until the buffered ops are durable.
    pub(crate) fn hold(&mut self, sends: &mut Vec<(Rank, Tag, Bytes)>) {
        self.held.append(sends);
    }

    pub(crate) fn buffered(&self) -> usize {
        self.buf.len()
    }

    pub(crate) fn due_flush(&self) -> bool {
        self.buf.len() >= self.interval
    }

    /// A segment is due once the WAL logged since the last one is as
    /// large as that segment. Each segment is then paid for by at least
    /// its own size in WAL bytes, so total segment bytes stay within the
    /// total WAL bytes plus the last segment — the tier costs O(work),
    /// however large the ledger grows — and at rest the tail a restore
    /// replays is smaller than the segment under it.
    pub(crate) fn due_segment(&self) -> bool {
        self.wal_bytes_since_seg > 0 && self.wal_bytes_since_seg >= self.last_seg_bytes
    }

    /// Highest durable LSN so far (0 = nothing flushed yet).
    pub(crate) fn last_durable_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Flush buffered ops as one WAL record (one metadata op + one data
    /// op on the filesystem) and release every held send.
    pub(crate) fn flush_wal(&mut self) -> Vec<(Rank, Tag, Bytes)> {
        if !self.buf.is_empty() {
            let ops = std::mem::take(&mut self.buf);
            let lsn = self.next_lsn;
            self.next_lsn += 1;
            let record = encode_wal_record(lsn, &ops);
            let path = wal_path(self.home, self.seg_no);
            self.client.append(&path, &record);
            if let Ok(n) = self.client.flush(&path) {
                self.bytes_written += n as u64;
            }
            self.records += 1;
            self.ops_logged += ops.len() as u64;
            self.wal_bytes_since_seg += record.len() as u64;
        }
        std::mem::take(&mut self.held)
    }

    /// Compact the durable state into a fresh segment and retire the old
    /// epoch's files. Callers must [`CheckpointSink::flush_wal`] first so
    /// `ledger` (the live snapshot) contains no op newer than the WAL —
    /// otherwise the tail would replay on top of a base that already
    /// includes it.
    pub(crate) fn write_segment(&mut self, ledger: &Ledger) {
        debug_assert!(self.buf.is_empty(), "segment written over unflushed ops");
        let old = self.seg_no;
        self.seg_no += 1;
        let body = encode_segment(self.last_durable_lsn(), ledger, &self.history);
        let seg_bytes = body.len() as u64;
        if self
            .client
            .put(&seg_path(self.home, self.seg_no), &body)
            .is_ok()
        {
            self.segments += 1;
            self.bytes_written += seg_bytes;
            self.segment_bytes += seg_bytes;
        }
        let latest = Latest::Segment(self.seg_no).encode();
        let _ = self.client.put(&latest_path(self.home), &latest);
        // Retire the superseded epoch (either file may not exist).
        let _ = self.client.unlink(&wal_path(self.home, old));
        let _ = self.client.unlink(&seg_path(self.home, old));
        self.last_seg_bytes = seg_bytes;
        self.wal_bytes_since_seg = 0;
    }

    /// Leave a redirect tombstone in `from`'s checkpoint directory: this
    /// sink's checkpoint now covers that subsumed shard.
    pub(crate) fn write_redirect(&mut self, from: Rank) {
        let latest = Latest::Redirect(self.home as u32).encode();
        let _ = self.client.put(&latest_path(from), &latest);
        // The subsumed shard's old files are stale history now.
        let _ = self.client.unlink(&wal_path(from, 0));
    }

    /// Durable response for `(client, seq)`, if any — the whole-world
    /// resume dedup fallback for requests older than the cached last
    /// response.
    pub(crate) fn durable_resp(&self, client: Rank, seq: u64) -> Option<&Bytes> {
        self.history.get(&client).and_then(|m| m.get(&seq))
    }
}

/// One shard directory's offline-fsck summary (see [`verify_checkpoint`]).
#[derive(Debug, Clone, Default)]
pub struct ShardFsck {
    /// The home rank this `/ckpt/<home>/` directory belongs to.
    pub home: Rank,
    /// A redirect tombstone: this shard was subsumed into that rank's
    /// checkpoint after a failover. Redirected shards carry no files of
    /// their own.
    pub redirect_to: Option<Rank>,
    /// Segment epoch the latest pointer names (0 = never compacted).
    pub seg_no: u64,
    /// Decoded segment size in bytes (0 when the epoch has no segment).
    pub segment_bytes: usize,
    /// LSN the segment covers through.
    pub segment_lsn: u64,
    /// WAL tail records decoded (after crash-duplicate removal).
    pub wal_records: usize,
    /// Ops in those records.
    pub wal_ops: usize,
    /// WAL tail size in bytes.
    pub wal_bytes: usize,
    /// Highest durable LSN (segment + WAL tail).
    pub last_lsn: u64,
    /// Everything wrong with this shard. Empty = clean.
    pub errors: Vec<String>,
}

/// Whole-image fsck report: one row per `/ckpt/<home>/` directory.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Per-shard results, in home-rank order.
    pub shards: Vec<ShardFsck>,
}

impl FsckReport {
    /// No shard reported any corruption.
    pub fn is_clean(&self) -> bool {
        self.shards.iter().all(|s| s.errors.is_empty())
    }
}

/// Offline fsck for a durable checkpoint image: walk every shard
/// directory, follow redirect tombstones, decode the latest segment and
/// its WAL tail (both checksum-verified), and check LSN continuity —
/// after dropping a crashed writer's duplicate re-appends, the tail's
/// LSNs must run contiguously from the segment's covered LSN. Read-only;
/// never mutates the image.
pub fn verify_checkpoint(fs: &Arc<Pfs>) -> FsckReport {
    let mut client = fs.client();
    let mut homes: Vec<Rank> = client
        .readdir("/ckpt/")
        .iter()
        .filter_map(|p| p.strip_prefix("/ckpt/"))
        .filter_map(|rest| rest.split('/').next())
        .filter_map(|h| h.parse::<Rank>().ok())
        .collect();
    homes.sort_unstable();
    homes.dedup();

    let mut report = FsckReport::default();
    for home in homes {
        let mut shard = ShardFsck {
            home,
            ..ShardFsck::default()
        };
        // The latest pointer: absent means "never compacted", epoch 0.
        if client.exists(&latest_path(home)) {
            match client.read(&latest_path(home)) {
                Ok(raw) => match Latest::decode(&raw.into()) {
                    Ok(Latest::Segment(k)) => shard.seg_no = k,
                    Ok(Latest::Redirect(to)) => shard.redirect_to = Some(to as Rank),
                    Err(e) => shard.errors.push(format!("latest: corrupt pointer: {e}")),
                },
                Err(e) => shard.errors.push(format!("latest: {e}")),
            }
        }
        if let Some(to) = shard.redirect_to {
            // The covering checkpoint is verified under its own home; a
            // dangling redirect (no such directory at all) is corruption.
            if !client.exists(&latest_path(to))
                && client.readdir(&format!("/ckpt/{to}/")).is_empty()
            {
                shard
                    .errors
                    .push(format!("redirect to rank {to}, which has no checkpoint"));
            }
            report.shards.push(shard);
            continue;
        }

        // Segment of the named epoch (epoch 0 legitimately has none).
        if client.exists(&seg_path(home, shard.seg_no)) {
            match client.read(&seg_path(home, shard.seg_no)) {
                Ok(raw) => {
                    shard.segment_bytes = raw.len();
                    match decode_segment(&raw) {
                        Ok((lsn, _, _)) => {
                            shard.segment_lsn = lsn;
                            shard.last_lsn = lsn;
                        }
                        Err(e) => shard.errors.push(e),
                    }
                }
                Err(e) => shard.errors.push(format!("segment: {e}")),
            }
        } else if shard.seg_no > 0 {
            shard.errors.push(format!(
                "latest names segment {} but it is missing",
                shard.seg_no
            ));
        }

        // WAL tail: checksums verify in decode; then LSN continuity.
        if client.exists(&wal_path(home, shard.seg_no)) {
            match client.read(&wal_path(home, shard.seg_no)) {
                Ok(raw) => {
                    shard.wal_bytes = raw.len();
                    match decode_wal(&raw) {
                        Ok(records) => {
                            let mut lsns: Vec<u64> = records.iter().map(|(lsn, _)| *lsn).collect();
                            lsns.sort_unstable();
                            lsns.dedup(); // crash re-appends are benign
                            shard.wal_records = lsns.len();
                            shard.wal_ops = records.iter().map(|(_, ops)| ops.len()).sum();
                            let mut expect = shard.segment_lsn + 1;
                            for lsn in &lsns {
                                match lsn.cmp(&expect) {
                                    std::cmp::Ordering::Less => {
                                        // Covered by the segment already;
                                        // replay skips it. Benign.
                                    }
                                    std::cmp::Ordering::Equal => expect += 1,
                                    std::cmp::Ordering::Greater => {
                                        shard.errors.push(format!(
                                            "wal: LSN gap — expected {expect}, found {lsn}"
                                        ));
                                        expect = lsn + 1;
                                    }
                                }
                            }
                            shard.last_lsn = shard.last_lsn.max(expect - 1);
                        }
                        Err(e) => shard.errors.push(e),
                    }
                }
                Err(e) => shard.errors.push(format!("wal: {e}")),
            }
        }
        report.shards.push(shard);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Task;
    use pfs::PfsConfig;

    fn fs() -> Arc<Pfs> {
        Arc::new(Pfs::new(PfsConfig::instant()))
    }

    fn op_store(id: u64, v: &[u8]) -> ReplOp {
        ReplOp::Store {
            id,
            value: Bytes::copy_from_slice(v),
        }
    }

    #[test]
    fn wal_record_round_trips() {
        let ops = vec![
            ReplOp::Create {
                id: 7,
                type_tag: 1,
                reads: None,
            },
            op_store(7, b"v"),
            ReplOp::SeqResp {
                home: 0,
                client: 2,
                seq: 5,
                resp: Some(Bytes::from_static(b"resp")),
            },
        ];
        let mut buf = encode_wal_record(1, &ops);
        buf.extend_from_slice(&encode_wal_record(2, &[op_store(9, b"w")]));
        let records = decode_wal(&buf).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].0, 1);
        assert_eq!(records[0].1, ops);
        assert_eq!(records[1].0, 2);
    }

    #[test]
    fn decode_wal_rejects_torn_frames() {
        let buf = encode_wal_record(1, &[op_store(1, b"x")]);
        assert!(decode_wal(&buf[..buf.len() - 1]).is_err());
        assert!(decode_wal(&[0xff, 0xff, 0xff]).is_err());
    }

    /// `body` framed as a WAL record, under its own checksum.
    fn wal_frame(body: &[u8]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_bytes(body).put_u64(fnv1a(body));
        w.into_vec()
    }

    #[test]
    fn decode_wal_survives_a_lying_op_count() {
        // A record whose checksum matches (FNV-1a is not a MAC) but whose
        // op count is absurd must come back as an error, not as a
        // `u32::MAX`-element allocation that aborts the process.
        let mut w = WireWriter::new();
        w.put_u64(1);
        w.put_u32(u32::MAX);
        w.put(&ReplOp::Create {
            id: 1,
            type_tag: 0,
            reads: None,
        });
        let err = decode_wal(&wal_frame(&w.into_vec())).unwrap_err();
        assert!(err.starts_with("wal:"), "{err}");
    }

    #[test]
    fn a_record_or_segment_one_byte_too_long_is_corrupt() {
        // One extra byte under a recomputed checksum: the frame and the
        // checksum are sound, the layout inside them is not.
        let mut body = WireWriter::new();
        body.put_u64(1).put_seq(&[op_store(1, b"x")]);
        let mut body = body.into_vec();
        body.push(0);
        let wal = wal_frame(&body);
        let err = decode_wal(&wal).unwrap_err();
        assert!(
            err.starts_with("wal:") && err.contains("trailing bytes"),
            "{err}"
        );

        let mut seg = encode_segment(1, &Ledger::default(), &RespHistory::new());
        seg.truncate(seg.len() - 8);
        seg.push(0);
        seg.extend_from_slice(&fnv1a(&seg).to_le_bytes());
        let err = decode_segment(&seg).unwrap_err();
        assert!(
            err.starts_with("segment:") && err.contains("trailing bytes"),
            "{err}"
        );

        // The offline fsck reports both.
        let fs = fs();
        let mut c = fs.client();
        c.put("/ckpt/0/latest", &Latest::Segment(1).encode())
            .unwrap();
        c.put("/ckpt/0/seg-1", &seg).unwrap();
        c.put("/ckpt/0/wal-1", &wal).unwrap();
        let errors = &verify_checkpoint(&fs).shards[0].errors;
        for file in ["segment:", "wal:"] {
            assert!(
                errors
                    .iter()
                    .any(|e| e.starts_with(file) && e.contains("trailing bytes")),
                "{file} {errors:?}"
            );
        }
    }

    #[test]
    fn replay_ignores_duplicates_and_reordering() {
        let recs = vec![
            (
                1,
                vec![
                    ReplOp::Create {
                        id: 1,
                        type_tag: 1,
                        reads: None,
                    },
                    op_store(1, b"a"),
                ],
            ),
            (
                2,
                vec![ReplOp::Create {
                    id: 2,
                    type_tag: 1,
                    reads: None,
                }],
            ),
            (3, vec![op_store(2, b"b")]),
        ];
        let mut clean = Ledger::default();
        let last = replay_wal_records(&mut clean, 0, 0, recs.clone());
        assert_eq!(last, 3);

        let mut messy_recs = recs.clone();
        messy_recs.reverse();
        messy_recs.push(recs[1].clone()); // duplicated tail record
        messy_recs.push(recs[2].clone());
        let mut messy = Ledger::default();
        assert_eq!(replay_wal_records(&mut messy, 0, 0, messy_recs), 3);
        assert_eq!(clean, messy);
    }

    #[test]
    fn sink_flush_and_segment_restore_round_trip() {
        let fs = fs();
        let cfg = CheckpointConfig::new(Arc::clone(&fs)).interval(2);
        let mut sink = CheckpointSink::new(&cfg, 3);
        let mut live = Ledger::default();
        let ops1 = vec![
            ReplOp::Create {
                id: 10,
                type_tag: 1,
                reads: None,
            },
            op_store(10, b"ten"),
        ];
        for op in ops1.clone() {
            live.apply(3, op);
        }
        sink.log(&ops1);
        assert!(sink.due_flush());
        sink.flush_wal();
        assert_eq!(sink.records, 1);
        assert_eq!(sink.last_durable_lsn(), 1);

        // Restore from segment 0 base + WAL tail.
        let mut c = fs.client();
        let r = restore_home(&mut c, 3).unwrap();
        assert_eq!(r.ledger, live);
        assert_eq!(r.last_lsn, 1);
        assert!(r.via.is_empty());

        // Compact, keep appending, restore again.
        let ops2 = vec![ReplOp::SeqResp {
            home: 3,
            client: 1,
            seq: 4,
            resp: Some(Bytes::from_static(b"sealed")),
        }];
        for op in ops2.clone() {
            live.apply(3, op);
        }
        sink.log(&ops2);
        sink.flush_wal();
        // No segment yet: any logged byte outgrows the empty baseline.
        assert!(sink.due_segment());
        sink.write_segment(&live);
        let ops3 = vec![ReplOp::Create {
            id: 11,
            type_tag: 1,
            reads: None,
        }];
        for op in ops3.clone() {
            live.apply(3, op);
        }
        sink.log(&ops3);
        sink.flush_wal();
        // One small record has not outgrown the segment: it stays a tail.
        assert!(!sink.due_segment());

        let r = restore_home(&mut c, 3).unwrap();
        assert_eq!(r.ledger, live);
        assert_eq!(r.last_lsn, 3);
        assert_eq!(r.seg_no, 1);
        assert!(r.seg_bytes > r.wal_bytes && r.wal_bytes > 0);
        assert_eq!(
            r.history.get(&1).and_then(|m| m.get(&4)),
            Some(&Bytes::from_static(b"sealed"))
        );
        // Old epoch files were retired.
        assert!(!c.exists("/ckpt/3/wal-0"));
        assert!(!c.exists("/ckpt/3/seg-0"));
    }

    #[test]
    fn restore_follows_redirect_tombstones() {
        let fs = fs();
        let cfg = CheckpointConfig::new(Arc::clone(&fs));
        let mut sink = CheckpointSink::new(&cfg, 5);
        let mut live = Ledger::default();
        let ops = vec![ReplOp::Create {
            id: 1,
            type_tag: 1,
            reads: None,
        }];
        for op in ops.clone() {
            live.apply(5, op);
        }
        sink.log(&ops);
        sink.flush_wal();
        sink.write_segment(&live);
        sink.write_redirect(4); // rank 5's checkpoint now covers home 4

        let mut c = fs.client();
        let r = restore_home(&mut c, 4).unwrap();
        assert_eq!(r.via, vec![5]);
        assert_eq!(r.ledger, live);
    }

    #[test]
    fn restore_of_untouched_home_is_empty() {
        let fs = fs();
        let mut c = fs.client();
        let r = restore_home(&mut c, 9).unwrap();
        assert_eq!(r.ledger, Ledger::default());
        assert_eq!(r.last_lsn, 0);
    }

    #[test]
    fn split_partitions_disjointly() {
        // Layout: 6 ranks, servers 4 and 5; clients 0,1 -> 4 and 2,3 -> 5
        // (whatever server_of says — derive membership from the layout).
        let layout = Layout::new(6, 2);
        let servers: Vec<Rank> = (0..6).filter(|r| layout.is_server(*r)).collect();
        let mut full = Ledger::default();
        for id in 0..16u64 {
            let _ = full.store.create(id, 1, None);
        }
        // Every client has written to both homes.
        for client in (0..6).filter(|r| !layout.is_server(*r)) {
            for home in &servers {
                full.seqs.insert((*home, client), 10 + client as u64);
                full.resps
                    .insert((*home, client), (10, Bytes::from_static(b"r")));
            }
        }
        full.queue
            .push(Task::new(1, 0, None, Bytes::from_static(b"untargeted")));
        full.queue
            .push(Task::new(1, 0, Some(0), Bytes::from_static(b"to-0")));
        full.fwd_out = 3;
        full.fwd_in = 2;
        full.quarantine.push("q".into());

        let owner = servers[0];
        let parts: Vec<Ledger> = servers
            .iter()
            .map(|s| split_for_home(&full, &layout, *s, owner))
            .collect();
        // Every datum lands in exactly one slice.
        let total: usize = parts.iter().map(|p| p.store.len()).sum();
        assert_eq!(total, 16);
        // Dedup marks follow the home they were made at.
        let total_seqs: usize = parts.iter().map(|p| p.seqs.len()).sum();
        assert_eq!(total_seqs, full.seqs.len());
        for (part, home) in parts.iter().zip(&servers) {
            assert!(part.seqs.keys().all(|(h, _)| h == home));
            assert!(part.resps.keys().all(|(h, _)| h == home));
        }
        // Untargeted task + flow state stay with the checkpoint owner.
        assert!(parts[0]
            .queue
            .tasks()
            .iter()
            .any(|t| t.payload.as_ref() == b"untargeted"));
        assert_eq!(parts[0].fwd_out, 3);
        assert_eq!(parts[0].fwd_in, 2);
        assert_eq!(parts[0].quarantine.len(), 1);
        assert_eq!(parts[1].fwd_out, 0);
        assert!(parts[1].quarantine.is_empty());
        // Targeted task lands at its target's home.
        let t_home = layout.server_of(0);
        let idx = servers.iter().position(|s| *s == t_home).unwrap();
        assert!(parts[idx]
            .queue
            .tasks()
            .iter()
            .any(|t| t.payload.as_ref() == b"to-0"));
    }

    /// One op through a sink at interval 1 the way `Shard::flush`
    /// drives it: apply live, log, flush, compact when due.
    fn step(sink: &mut CheckpointSink, live: &mut Ledger, id: u64) {
        let op = ReplOp::Create {
            id,
            type_tag: 1,
            reads: None,
        };
        live.apply(sink.home, op.clone());
        sink.log(&[op]);
        sink.flush_wal();
        if sink.due_segment() {
            sink.write_segment(live);
        }
    }

    /// Step ops `0, 1, ...` until the size rule has compacted twice and a
    /// WAL tail sits on the second segment. Returns the ops logged.
    fn compact_twice(sink: &mut CheckpointSink, live: &mut Ledger) -> u64 {
        let mut id = 0;
        while sink.seg_no < 2 || sink.wal_bytes_since_seg == 0 {
            step(sink, live, id);
            id += 1;
            assert!(id < 100, "the size rule never compacted twice");
        }
        id
    }

    #[test]
    fn fsck_passes_a_clean_image_and_flags_flipped_bits() {
        let fs = fs();
        let cfg = CheckpointConfig::new(Arc::clone(&fs)).interval(1);
        let mut sink = CheckpointSink::new(&cfg, 3);
        let mut live = Ledger::default();
        let ops = compact_twice(&mut sink, &mut live);
        let report = verify_checkpoint(&fs);
        assert!(report.is_clean(), "{:?}", report.shards);
        let shard = &report.shards[0];
        assert_eq!(shard.home, 3);
        assert_eq!(shard.seg_no, sink.seg_no);
        assert!(shard.segment_bytes > shard.wal_bytes);
        assert!(shard.wal_records >= 1);
        assert_eq!(shard.segment_lsn + shard.wal_records as u64, ops);
        assert_eq!(shard.last_lsn, ops);

        // Flip one byte mid-WAL: the record checksum must catch it.
        let (wal_file, seg_file) = (wal_path(3, sink.seg_no), seg_path(3, sink.seg_no));
        let mut c = fs.client();
        let mut wal = c.read(&wal_file).unwrap();
        let mid = wal.len() / 2;
        wal[mid] ^= 0x40;
        c.put(&wal_file, &wal).unwrap();
        let report = verify_checkpoint(&fs);
        assert!(!report.is_clean());
        assert!(
            report.shards[0].errors.iter().any(|e| e.contains("wal")),
            "{:?}",
            report.shards[0].errors
        );

        // Same for the segment body.
        c.put(&wal_file, &[]).unwrap();
        let mut seg = c.read(&seg_file).unwrap();
        let mid = seg.len() / 2;
        seg[mid] ^= 0x40;
        c.put(&seg_file, &seg).unwrap();
        let report = verify_checkpoint(&fs);
        assert!(report.shards[0]
            .errors
            .iter()
            .any(|e| e.contains("segment")));
    }

    /// Drive a sink over `n` ops at interval 1, each creating one datum so
    /// the ledger grows without bound. After every flush the epoch's WAL
    /// is no larger than its segment plus the record just flushed, and
    /// at the end the image restores to the live ledger. Returns the
    /// bytes written to the durable tier.
    fn drive_growing_ledger(n: u64) -> u64 {
        let fs = fs();
        let cfg = CheckpointConfig::new(Arc::clone(&fs)).interval(1);
        let mut sink = CheckpointSink::new(&cfg, 3);
        let mut live = Ledger::default();
        let mut c = fs.client();
        for id in 0..n {
            let op = ReplOp::Create {
                id,
                type_tag: 1,
                reads: None,
            };
            live.apply(3, op.clone());
            sink.log(std::slice::from_ref(&op));
            sink.flush_wal();
            let record = encode_wal_record(sink.last_durable_lsn(), &[op]).len();
            let wal = c.stat(&wal_path(3, sink.seg_no)).unwrap();
            let seg = c.stat(&seg_path(3, sink.seg_no)).unwrap_or(0);
            assert!(
                wal <= seg + record,
                "op {id}: a {wal}-byte WAL on a {seg}-byte segment"
            );
            if sink.due_segment() {
                sink.write_segment(&live);
            }
        }
        assert!(restore_home(&mut c, 3).unwrap().ledger == live);
        sink.bytes_written
    }

    #[test]
    fn checkpoint_bytes_per_op_stay_flat_as_the_ledger_grows() {
        // Re-encoding the whole ledger every fixed number of records costs
        // O(ledger) per op, ~4x more per op at 8,000 ops than at 2,000.
        let per_op = |n: u64| drive_growing_ledger(n) as f64 / n as f64;
        let (at_2k, at_8k) = (per_op(2_000), per_op(8_000));
        assert!(
            at_8k <= 1.3 * at_2k,
            "{at_2k:.0} B/op at 2,000 ops, {at_8k:.0} B/op at 8,000"
        );
    }

    #[test]
    fn a_restored_sink_compacts_against_the_restored_segment() {
        let fs = fs();
        let cfg = CheckpointConfig::new(Arc::clone(&fs)).interval(1);
        let mut sink = CheckpointSink::new(&cfg, 3);
        let mut live = Ledger::default();
        let id = compact_twice(&mut sink, &mut live);
        drop(sink);

        let r = restore_home(&mut fs.client(), 3).unwrap();
        let mut resumed = CheckpointSink::new(&cfg, 3);
        resumed.fast_forward(&r);
        let op = ReplOp::Create {
            id,
            type_tag: 1,
            reads: None,
        };
        live.apply(3, op.clone());
        resumed.log(&[op]);
        resumed.flush_wal();
        // A fresh sink's empty baseline would compact here; the restored
        // segment is still larger than its tail plus this record.
        assert!(!resumed.due_segment());
        let again = restore_home(&mut fs.client(), 3).unwrap();
        assert_eq!(again.seg_no, r.seg_no);
        assert_eq!(again.last_lsn, r.last_lsn + 1);
        assert_eq!(again.ledger, live);
    }

    #[test]
    fn fsck_flags_lsn_gaps_but_not_crash_duplicates() {
        let fs = fs();
        let mut c = fs.client();
        // A crashed writer's duplicated tail record is benign...
        let mut wal = encode_wal_record(1, &[op_store(1, b"a")]);
        wal.extend_from_slice(&encode_wal_record(2, &[op_store(2, b"b")]));
        wal.extend_from_slice(&encode_wal_record(2, &[op_store(2, b"b")]));
        c.put("/ckpt/0/wal-0", &wal).unwrap();
        let report = verify_checkpoint(&fs);
        assert!(report.is_clean(), "{:?}", report.shards);
        assert_eq!(report.shards[0].wal_records, 2);
        assert_eq!(report.shards[0].last_lsn, 2);

        // ...but a hole in the LSN sequence is corruption.
        let mut wal = encode_wal_record(1, &[op_store(1, b"a")]);
        wal.extend_from_slice(&encode_wal_record(4, &[op_store(4, b"d")]));
        c.put("/ckpt/0/wal-0", &wal).unwrap();
        let report = verify_checkpoint(&fs);
        assert!(report.shards[0]
            .errors
            .iter()
            .any(|e| e.contains("LSN gap")));
    }

    #[test]
    fn fsck_flags_dangling_redirects() {
        let fs = fs();
        let mut c = fs.client();
        c.put("/ckpt/2/latest", &Latest::Redirect(7).encode())
            .unwrap();
        let report = verify_checkpoint(&fs);
        assert_eq!(report.shards[0].redirect_to, Some(7));
        assert!(!report.is_clean());

        // Give rank 7 a checkpoint and the redirect becomes valid.
        c.put("/ckpt/7/latest", &Latest::Segment(0).encode())
            .unwrap();
        let report = verify_checkpoint(&fs);
        assert!(report.is_clean(), "{:?}", report.shards);
    }
}
