//! Per-rank mailbox with MPI-style `(source, tag)` selective receive.
//!
//! Each rank owns exactly one mailbox. Senders push envelopes at the back;
//! receivers scan front-to-back for the first envelope matching their
//! `(source, tag)` selector. Because a given sender's envelopes appear in
//! send order and the scan is front-to-back, delivery is non-overtaking per
//! `(source, destination, tag)` triple — the MPI guarantee ADLB relies on.

use std::collections::VecDeque;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use crate::comm::{Message, Src, TagSel};
use crate::{Rank, Tag};

/// One in-flight message.
#[derive(Debug, Clone)]
pub(crate) struct Envelope {
    pub source: Rank,
    pub tag: Tag,
    pub data: Bytes,
}

impl Envelope {
    fn matches(&self, src: Src, tag: TagSel) -> bool {
        let src_ok = match src {
            Src::Any => true,
            Src::Of(r) => self.source == r,
        };
        let tag_ok = match tag {
            TagSel::Any => true,
            TagSel::Of(t) => self.tag == t,
        };
        src_ok && tag_ok
    }
}

#[derive(Default)]
struct Inner {
    queue: VecDeque<Envelope>,
    /// Set when the owning world is tearing down after a rank panicked, so
    /// blocked receivers wake up instead of deadlocking the test harness.
    poisoned: bool,
}

/// A single rank's incoming-message queue.
pub(crate) struct Mailbox {
    inner: Mutex<Inner>,
    avail: Condvar,
}

impl Mailbox {
    pub fn new() -> Self {
        Mailbox {
            inner: Mutex::new(Inner::default()),
            avail: Condvar::new(),
        }
    }

    /// Append an envelope and wake any blocked receiver.
    pub fn push(&self, env: Envelope) {
        let mut inner = self.inner.lock();
        inner.queue.push_back(env);
        // Wake everyone: a receiver with a narrow selector may not match the
        // new envelope even though another blocked receiver would.
        drop(inner);
        self.avail.notify_all();
    }

    /// Mark the mailbox poisoned (world teardown) and wake all receivers.
    pub fn poison(&self) {
        self.inner.lock().poisoned = true;
        self.avail.notify_all();
    }

    fn take_matching(inner: &mut Inner, src: Src, tag: TagSel) -> Option<Envelope> {
        let pos = inner.queue.iter().position(|e| e.matches(src, tag))?;
        inner.queue.remove(pos)
    }

    /// Blocking selective receive.
    ///
    /// # Panics
    /// Panics if the world was poisoned by another rank's panic; this
    /// converts a would-be deadlock into a visible failure.
    pub fn recv(&self, src: Src, tag: TagSel) -> Message {
        let mut inner = self.inner.lock();
        loop {
            if let Some(env) = Self::take_matching(&mut inner, src, tag) {
                return Message {
                    source: env.source,
                    tag: env.tag,
                    data: env.data,
                };
            }
            if inner.poisoned {
                panic!("mpisim: recv on poisoned world (another rank panicked)");
            }
            self.avail.wait(&mut inner);
        }
    }

    /// Non-blocking selective receive.
    pub fn try_recv(&self, src: Src, tag: TagSel) -> Option<Message> {
        let mut inner = self.inner.lock();
        Self::take_matching(&mut inner, src, tag).map(|env| Message {
            source: env.source,
            tag: env.tag,
            data: env.data,
        })
    }

    /// Blocking receive with a timeout; `None` on timeout.
    pub fn recv_timeout(&self, src: Src, tag: TagSel, timeout: Duration) -> Option<Message> {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.inner.lock();
        loop {
            if let Some(env) = Self::take_matching(&mut inner, src, tag) {
                return Some(Message {
                    source: env.source,
                    tag: env.tag,
                    data: env.data,
                });
            }
            if inner.poisoned {
                panic!("mpisim: recv on poisoned world (another rank panicked)");
            }
            if self.avail.wait_until(&mut inner, deadline).timed_out() {
                return Self::take_matching(&mut inner, src, tag).map(|env| Message {
                    source: env.source,
                    tag: env.tag,
                    data: env.data,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(source: Rank, tag: Tag, byte: u8) -> Envelope {
        Envelope {
            source,
            tag,
            data: Bytes::from(vec![byte]),
        }
    }

    #[test]
    fn fifo_per_source_tag() {
        let mb = Mailbox::new();
        mb.push(env(0, 1, b'a'));
        mb.push(env(0, 1, b'b'));
        let m1 = mb.try_recv(Src::Of(0), TagSel::Of(1)).unwrap();
        let m2 = mb.try_recv(Src::Of(0), TagSel::Of(1)).unwrap();
        assert_eq!(m1.data[0], b'a');
        assert_eq!(m2.data[0], b'b');
    }

    #[test]
    fn selective_receive_skips_non_matching() {
        let mb = Mailbox::new();
        mb.push(env(0, 1, b'x'));
        mb.push(env(1, 2, b'y'));
        let m = mb.try_recv(Src::Of(1), TagSel::Of(2)).unwrap();
        assert_eq!(m.data[0], b'y');
        // The earlier envelope is still there, and is the only one.
        let m = mb.try_recv(Src::Any, TagSel::Any).unwrap();
        assert_eq!(m.data[0], b'x');
        assert!(mb.try_recv(Src::Any, TagSel::Any).is_none());
    }

    #[test]
    fn wildcard_matches_first_arrival() {
        let mb = Mailbox::new();
        mb.push(env(3, 9, b'p'));
        mb.push(env(2, 8, b'q'));
        let m = mb.try_recv(Src::Any, TagSel::Any).unwrap();
        assert_eq!((m.source, m.tag), (3, 9));
    }

    #[test]
    fn recv_timeout_times_out_empty() {
        let mb = Mailbox::new();
        let got = mb.recv_timeout(Src::Any, TagSel::Any, Duration::from_millis(10));
        assert!(got.is_none());
    }

    #[test]
    #[should_panic(expected = "poisoned")]
    fn poison_wakes_blocked_receiver() {
        let mb = std::sync::Arc::new(Mailbox::new());
        let mb2 = mb.clone();
        let t = std::thread::spawn(move || {
            mb2.recv(Src::Any, TagSel::Any);
        });
        std::thread::sleep(Duration::from_millis(20));
        mb.poison();
        let err = t.join().unwrap_err();
        std::panic::resume_unwind(err);
    }
}
