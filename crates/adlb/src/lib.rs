//! # adlb — the Asynchronous Dynamic Load Balancer
//!
//! Swift/T programs are MPI programs whose ranks split into a few *control*
//! processes and a sea of *workers*: "ADLB servers, shown as an opaque
//! subsystem, distribute tasks to workers" (Wozniak et al., CLUSTER 2015,
//! §II.B, Fig. 2). This crate reproduces that subsystem over the `mpisim`
//! substrate, following the design of Lusk, Pieper & Butler's ADLB
//! ("More scalability, less pain") and the Swift/T-era extensions:
//!
//! * **Typed work queues with priorities.** Clients [`AdlbClient::put`]
//!   tasks of a work type; idle clients park in [`AdlbClient::get`] until a
//!   matching task arrives. Higher priority runs first; FIFO within a
//!   priority.
//! * **Targeted tasks.** A task may be pinned to a specific rank — this is
//!   how data-close notifications reach the engine that subscribed.
//! * **Work stealing.** A server whose queues are empty while clients are
//!   parked steals half a victim's queue, giving the load balancing the
//!   paper's `foreach` throughput depends on.
//! * **A distributed data store.** Turbine's typed futures live *in the
//!   servers*: a datum lives on its allocator's home server (see
//!   [`Layout::datum_id`]); `store` both writes and closes a datum, and
//!   `subscribe` converts the eventual close into a high-priority targeted
//!   task — the mechanism that lets dataflow rules fire with no central
//!   bottleneck.
//! * **Distributed termination detection.** A master server runs a
//!   double-poll epoch protocol (in the spirit of Safra's algorithm) and
//!   broadcasts shutdown when every client is parked, every queue is
//!   empty, and no tasks are in flight between servers.
//!
//! ```
//! use mpisim::World;
//! use adlb::{Layout, AdlbClient, serve, WORK_TYPE_WORK};
//!
//! // 3 ranks: 2 clients + 1 server. Client 0 puts a task, client 1 runs it.
//! let layout = Layout::new(3, 1);
//! let out = World::run(3, |comm| {
//!     let rank = comm.rank();
//!     if layout.is_server(rank) {
//!         serve(comm, layout, adlb::ServerConfig::default());
//!         return String::new();
//!     }
//!     let mut client = AdlbClient::new(comm, layout);
//!     if rank == 0 {
//!         client.put(WORK_TYPE_WORK, 0, None, b"hello task".to_vec());
//!     }
//!     let mut got = String::new();
//!     while let Some(task) = client.get(&[WORK_TYPE_WORK]) {
//!         got = String::from_utf8(task.payload.to_vec()).unwrap();
//!         if rank == 0 { break; }   // rank 0 only submits
//!     }
//!     client.finish();
//!     got
//! });
//! assert!(out.iter().any(|s| s == "hello task"));
//! ```

mod checkpoint;
mod client;
mod datastore;
mod layout;
mod membership;
mod msg;
mod queue;
mod replica;
mod server;
mod tenant;
#[cfg(test)]
mod wire_tests;

pub use checkpoint::{
    decode_wal, encode_wal_record, replay_wal_records, verify_checkpoint, CheckpointConfig,
    FsckReport, RespHistory, ShardFsck, DEFAULT_INTERVAL as CHECKPOINT_DEFAULT_INTERVAL,
};
pub use client::{AdlbClient, ClientConfig};
pub use datastore::{DataError, Datum, DatumValue, TYPE_TAG_CONTAINER};
pub use layout::Layout;
pub use membership::{MemberState, Membership};
pub use msg::{Task, WORK_TYPE_CONTROL, WORK_TYPE_NOTIFY, WORK_TYPE_WORK};
pub use replica::{Applied, Lease, Ledger, ReplOp};
pub use server::{serve, serve_ext, ServerConfig, ServerOutcome, ServerStats, NOTIFY_VALUE_MAX};
pub use tenant::{merge_tenant_rows, TenantQuota, TenantSched, TenantSpec, TenantStats};
