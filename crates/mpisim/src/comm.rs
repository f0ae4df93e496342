//! The per-rank communicator handle: point-to-point sends and receives.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use crate::fault::Point;
use crate::mailbox::Envelope;
use crate::world::Shared;
use crate::{Rank, Tag};

/// Source selector for receives: a specific rank or the MPI `ANY_SOURCE`
/// wildcard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Match messages from any source rank.
    Any,
    /// Match only messages from this rank.
    Of(Rank),
}

impl From<Rank> for Src {
    fn from(r: Rank) -> Self {
        Src::Of(r)
    }
}

/// Tag selector for receives: a specific tag or the MPI `ANY_TAG` wildcard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagSel {
    /// Match messages with any tag.
    Any,
    /// Match only messages with this tag.
    Of(Tag),
}

impl From<Tag> for TagSel {
    fn from(t: Tag) -> Self {
        TagSel::Of(t)
    }
}

/// A received message.
#[derive(Debug, Clone)]
pub struct Message {
    /// Rank that sent the message.
    pub source: Rank,
    /// Tag the message was sent with.
    pub tag: Tag,
    /// Payload bytes.
    pub data: Bytes,
}

/// A rank's handle onto the simulated communicator (the analogue of
/// `MPI_COMM_WORLD` plus the owning process's rank).
///
/// `Comm` is cheap to clone; clones share the same mailbox, so cloning is
/// only useful for passing the handle into helper structs on the same rank.
#[derive(Clone)]
pub struct Comm {
    rank: Rank,
    shared: Arc<Shared>,
}

impl Comm {
    pub(crate) fn new(rank: Rank, shared: Arc<Shared>) -> Self {
        Comm { rank, shared }
    }

    /// This rank's id, `0..size`.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.shared.mailboxes.len()
    }

    /// Whether `rank` is still alive (always true without a fault plan).
    pub fn is_alive(&self, rank: Rank) -> bool {
        self.shared.faults.is_alive(rank)
    }

    /// Send `data` to `dest` with `tag`. Never blocks (buffered send).
    ///
    /// Under a fault plan the send may be dropped, delayed, or be this
    /// rank's scripted last act: a kill at [`Point::Send`] fires *after*
    /// the triggering message is delivered. Sends to dead ranks vanish
    /// silently, as with a real failed process.
    ///
    /// # Panics
    /// Panics if `dest` is out of range.
    pub fn send(&self, dest: Rank, tag: Tag, data: impl Into<Bytes>) {
        let data = data.into();
        let verdict = self.shared.faults.before_send(self.rank, dest);
        if let Some(ms) = verdict.delay_ms {
            std::thread::sleep(Duration::from_millis(ms));
        }
        if verdict.deliver && self.shared.faults.is_alive(dest) {
            self.shared.msg_count.fetch_add(1, Ordering::Relaxed);
            self.shared
                .byte_count
                .fetch_add(data.len() as u64, Ordering::Relaxed);
            self.shared.mailboxes[dest].push(Envelope {
                source: self.rank,
                tag,
                data,
            });
        }
        self.fault_point(Point::Send);
    }

    /// This rank reached the protocol moment `point`. Under a plan that
    /// kills it at the Nth hit of `point`, the Nth call does not return.
    /// Without a fault plan this is one branch.
    pub fn fault_point(&self, point: Point) {
        if self.shared.faults.hit(self.rank, point) {
            self.shared.faults.kill(self.rank);
        }
    }

    /// A receive is about to consume: a kill at [`Point::Recv`] that
    /// the last completed receive made due lands here.
    fn recv_entry(&self) {
        if self.shared.faults.due(self.rank, Point::Recv) {
            self.shared.faults.kill(self.rank);
        }
    }

    /// Blocking selective receive.
    pub fn recv(&self, src: impl Into<Src>, tag: impl Into<TagSel>) -> Message {
        self.recv_entry();
        let m = self.shared.mailboxes[self.rank].recv(src.into(), tag.into());
        self.shared.faults.hit(self.rank, Point::Recv);
        m
    }

    /// Non-blocking selective receive.
    pub fn try_recv(&self, src: impl Into<Src>, tag: impl Into<TagSel>) -> Option<Message> {
        self.recv_entry();
        let m = self.shared.mailboxes[self.rank].try_recv(src.into(), tag.into());
        if m.is_some() {
            self.shared.faults.hit(self.rank, Point::Recv);
        }
        m
    }

    /// Blocking receive with timeout; `None` if nothing matched in time.
    pub fn recv_timeout(
        &self,
        src: impl Into<Src>,
        tag: impl Into<TagSel>,
        timeout: Duration,
    ) -> Option<Message> {
        self.recv_entry();
        let m = self.shared.mailboxes[self.rank].recv_timeout(src.into(), tag.into(), timeout);
        if m.is_some() {
            self.shared.faults.hit(self.rank, Point::Recv);
        }
        m
    }
}
