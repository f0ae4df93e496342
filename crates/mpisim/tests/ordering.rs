//! Ordering and stress properties of the simulated MPI substrate.

use mpisim::{Src, TagSel, World};

/// MPI's non-overtaking guarantee: messages from one source with one tag
/// arrive in send order, under heavy concurrent traffic from many ranks.
#[test]
fn per_source_fifo_under_contention() {
    let senders = 6usize;
    let per_sender = 200u32;
    let out = World::run(senders + 1, move |comm| {
        let rank = comm.rank();
        if rank < senders {
            for i in 0..per_sender {
                let mut payload = (rank as u32).to_le_bytes().to_vec();
                payload.extend_from_slice(&i.to_le_bytes());
                comm.send(senders, 5, payload);
            }
            return true;
        }
        let mut next = vec![0u32; senders];
        for _ in 0..senders as u32 * per_sender {
            let m = comm.recv(Src::Any, TagSel::Of(5));
            let s = u32::from_le_bytes(m.data[..4].try_into().unwrap()) as usize;
            let i = u32::from_le_bytes(m.data[4..8].try_into().unwrap());
            assert_eq!(i, next[s], "overtaking from sender {s}");
            next[s] += 1;
        }
        true
    });
    assert!(out.iter().all(|&b| b));
}

/// Wildcard receives interleaved with selective receives must not lose
/// or duplicate messages.
#[test]
fn selective_and_wildcard_mix() {
    let out = World::run(3, |comm| {
        match comm.rank() {
            0 => {
                for i in 0..50u8 {
                    comm.send(2, (i % 3) as u32, vec![0, i]);
                }
                0
            }
            1 => {
                for i in 0..50u8 {
                    comm.send(2, (i % 3) as u32, vec![1, i]);
                }
                0
            }
            _ => {
                let mut got = 0;
                // Drain tag 1 selectively first (17 per sender: i%3==1
                // for i in 0..50), then the rest with wildcards.
                for _ in 0..34 {
                    let m = comm.recv(Src::Any, TagSel::Of(1));
                    assert_eq!(m.tag, 1);
                    got += 1;
                }
                while got < 100 {
                    let m = comm.recv(Src::Any, TagSel::Any);
                    assert_ne!(m.tag, 1, "tag-1 messages were already drained");
                    got += 1;
                }
                got
            }
        }
    });
    assert_eq!(out[2], 100);
}

/// try_recv never blocks and never fabricates messages.
#[test]
fn try_recv_semantics() {
    World::run(2, |comm| {
        if comm.rank() == 0 {
            // Nobody sends to rank 0: its mailbox stays empty.
            assert!(comm.try_recv(Src::Any, TagSel::Any).is_none());
            comm.send(1, 1, vec![7]);
            comm.send(1, 2, Vec::new());
        } else {
            // The fence on tag 2 was sent after tag 1, so once it is here
            // tag 1 is queued too.
            comm.recv(Src::Of(0), TagSel::Of(2));
            let m = comm.try_recv(Src::Of(0), TagSel::Of(1)).expect("queued");
            assert_eq!(m.data[0], 7);
            assert!(comm.try_recv(Src::Any, TagSel::Any).is_none());
        }
    });
}

/// Large payloads survive intact (no truncation / corruption).
#[test]
fn large_payload_integrity() {
    let out = World::run(2, |comm| {
        if comm.rank() == 0 {
            let data: Vec<u8> = (0..1_000_000u32)
                .map(|i| (i.wrapping_mul(2654435761)) as u8)
                .collect();
            comm.send(1, 3, data.clone());
            data
        } else {
            comm.recv(Src::Of(0), TagSel::Of(3)).data.to_vec()
        }
    });
    assert_eq!(out[0], out[1]);
}
