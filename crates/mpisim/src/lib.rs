//! # mpisim — a simulated MPI substrate
//!
//! The Swift/T runtime reproduced by this workspace is, at run time, an MPI
//! program: every rank is an *engine*, an *ADLB server*, or a *worker*
//! (Wozniak et al., CLUSTER 2015, Fig. 2). This crate provides the
//! message-passing substrate those ranks communicate over.
//!
//! Instead of binding a real MPI implementation (the paper ran on Blue
//! Gene/Q and Cray XE6; no such machine backs this reproduction), ranks are
//! plain OS threads inside one process and messages travel through in-memory
//! mailboxes. The API mirrors the MPI point-to-point subset that ADLB
//! actually uses:
//!
//! * [`Comm::send`] / [`Comm::recv`] with integer **tags**,
//! * wildcard receives ([`Src::Any`], [`TagSel::Any`]),
//! * non-blocking and timed receives ([`Comm::try_recv`],
//!   [`Comm::recv_timeout`]).
//!
//! The crucial MPI semantic preserved here is **non-overtaking delivery**:
//! two messages sent from the same source to the same destination with the
//! same tag are received in the order they were sent. ADLB's request/response
//! protocol depends on this.
//!
//! ```
//! use mpisim::{World, Src, TagSel};
//!
//! let results = World::run(4, |comm| {
//!     let right = (comm.rank() + 1) % comm.size();
//!     comm.send(right, 7, format!("hi from {}", comm.rank()).into_bytes());
//!     let msg = comm.recv(Src::Any, TagSel::Of(7));
//!     String::from_utf8(msg.data.to_vec()).unwrap()
//! });
//! assert_eq!(results.len(), 4);
//! ```

mod comm;
mod fault;
mod mailbox;
pub mod trace;
mod wire;
mod world;

pub use comm::{Comm, Message, Src, TagSel};
pub use fault::{FaultAction, FaultPlan, Point, RankKilled};
pub use trace::{LatencyStats, RankTrace, TraceEvent};
pub use wire::{Aliased, Wire, WireAs, WireError, WireReader, WireWriter};
pub use world::{FaultyOutcome, World, WorldStats};

/// A rank identifier: `0..size`.
pub type Rank = usize;

/// A message tag. Every tag belongs to the protocol that sends it: this
/// crate sends no traffic of its own.
pub type Tag = u32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_rank_ping_pong() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, b"ping".to_vec());
                let m = comm.recv(Src::Of(1), TagSel::Of(2));
                m.data.to_vec()
            } else {
                let m = comm.recv(Src::Of(0), TagSel::Of(1));
                assert_eq!(&m.data[..], b"ping");
                comm.send(0, 2, b"pong".to_vec());
                m.data.to_vec()
            }
        });
        assert_eq!(out[0], b"pong");
        assert_eq!(out[1], b"ping");
    }

    #[test]
    fn single_rank_world() {
        let out = World::run(1, |comm| {
            assert_eq!(comm.size(), 1);
            comm.rank()
        });
        assert_eq!(out, vec![0]);
    }
}
