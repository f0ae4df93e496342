//! Rank layout: which ranks are servers, who serves whom, which ids a
//! client allocates and which server hosts each datum. Placement is
//! decided here and nowhere else.

use mpisim::Rank;

/// The machine layout. As in Swift/T, the last `servers` ranks are ADLB
/// servers and the rest are clients (engines + workers); typically well
/// over 99 % of ranks are workers (Fig. 2 of the paper). Build it with
/// [`Layout::new`] and do not change `size` or `servers` afterwards: the
/// id stride is derived from them once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Total ranks in the world.
    pub size: usize,
    /// Number of server ranks (at the top of the rank space).
    pub servers: usize,
    /// `lcm(size, servers)`: the step between one client's datum ids.
    id_stride: u64,
}

impl Layout {
    /// Build a layout; requires at least one server and one client.
    pub fn new(size: usize, servers: usize) -> Self {
        assert!(servers >= 1, "need at least one ADLB server");
        assert!(size > servers, "need at least one client rank");
        let (a, b) = (size as u64, servers as u64);
        Layout {
            size,
            servers,
            id_stride: a / gcd(a, b) * b,
        }
    }

    /// Number of client (non-server) ranks.
    pub fn clients(&self) -> usize {
        self.size - self.servers
    }

    /// Whether `rank` is a server.
    pub fn is_server(&self, rank: Rank) -> bool {
        rank >= self.size - self.servers
    }

    /// The first server rank, also the master (it runs termination
    /// detection).
    pub fn first_server(&self) -> Rank {
        self.size - self.servers
    }

    /// All server ranks.
    pub fn server_ranks(&self) -> impl Iterator<Item = Rank> + '_ {
        self.first_server()..self.size
    }

    /// The server that owns (serves) a client rank.
    pub fn server_of(&self, client: Rank) -> Rank {
        assert!(!self.is_server(client), "rank {client} is a server");
        self.first_server() + client % self.servers
    }

    /// The clients served by a server rank.
    pub fn clients_of(&self, server: Rank) -> Vec<Rank> {
        assert!(self.is_server(server));
        let idx = server - self.first_server();
        (0..self.clients())
            .filter(|c| c % self.servers == idx)
            .collect()
    }

    /// The `k`-th datum id allocated by `client`, which is
    /// `k · lcm(size, servers) + client`. A datum lives on its
    /// allocator's home server:
    ///
    /// * ids are disjoint per rank: the stride is a multiple of `size` and
    ///   `client < size`, so `id ≡ client (mod size)` names the allocator;
    /// * `data_owner(id) == server_of(client)`: the stride is a multiple of
    ///   `servers`, so `id ≡ client (mod servers)`;
    /// * when `servers` divides `size` (every one-server run) the stride is
    ///   `size`, so the ids are `k · size + client`.
    pub fn datum_id(&self, client: Rank, k: u64) -> u64 {
        k * self.id_stride + client as u64
    }

    /// The server hosting datum `id`. For an id from
    /// [`Layout::datum_id`] that is its allocator's home server. This is
    /// the *primary*; with replication the shard also lives on the
    /// primary's ring successors ([`Layout::successors`]).
    pub fn data_owner(&self, id: u64) -> Rank {
        self.first_server() + (id % self.servers as u64) as usize
    }

    /// Index of a server rank within the server ring, `0..servers`.
    pub fn server_index(&self, server: Rank) -> usize {
        assert!(self.is_server(server));
        server - self.first_server()
    }

    /// The next server after `server` on the consistent successor ring
    /// (wrapping). With one server this is `server` itself.
    pub fn next_server(&self, server: Rank) -> Rank {
        let idx = self.server_index(server);
        self.first_server() + (idx + 1) % self.servers
    }

    /// The `k` ring successors of `server` (excluding `server` itself),
    /// capped at the other servers. Replication places a shard on its
    /// primary plus the first `R - 1` successors.
    pub fn successors(&self, server: Rank, k: usize) -> Vec<Rank> {
        let k = k.min(self.servers - 1);
        let mut out = Vec::with_capacity(k);
        let mut s = server;
        for _ in 0..k {
            s = self.next_server(s);
            out.push(s);
        }
        out
    }

    /// The first `k` *live* ring successors of `server` (excluding
    /// `server` itself and every rank in `dead`). This is the replica
    /// placement over the shrunken ring: after a failover each primary
    /// re-replicates to these ranks to restore `R` live copies.
    pub fn live_successors(
        &self,
        server: Rank,
        k: usize,
        dead: &std::collections::HashSet<Rank>,
    ) -> Vec<Rank> {
        let mut out = Vec::with_capacity(k.min(self.servers.saturating_sub(1)));
        let mut s = server;
        for _ in 0..self.servers.saturating_sub(1) {
            s = self.next_server(s);
            if s == server {
                break;
            }
            if !dead.contains(&s) {
                out.push(s);
                if out.len() == k {
                    break;
                }
            }
        }
        out
    }

    /// The first server at or after `server` on the ring that is not in
    /// `dead`. This is the failover route: requests for a dead server's
    /// shard go to its first live successor (which holds the replica at
    /// `replication >= 2`).
    ///
    /// # Panics
    /// Panics if every server is dead.
    pub fn route(&self, server: Rank, dead: &std::collections::HashSet<Rank>) -> Rank {
        let mut s = server;
        for _ in 0..self.servers {
            if !dead.contains(&s) {
                return s;
            }
            s = self.next_server(s);
        }
        panic!("all {} ADLB servers are dead", self.servers);
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_partition_ranks() {
        let l = Layout::new(10, 2);
        assert_eq!(l.clients(), 8);
        assert!(!l.is_server(0));
        assert!(!l.is_server(7));
        assert!(l.is_server(8));
        assert!(l.is_server(9));
        assert_eq!(l.server_ranks().collect::<Vec<_>>(), vec![8, 9]);
    }

    #[test]
    fn every_client_has_a_server_and_vice_versa() {
        let l = Layout::new(11, 3);
        let mut seen = vec![];
        for s in l.server_ranks() {
            for c in l.clients_of(s) {
                assert_eq!(l.server_of(c), s);
                seen.push(c);
            }
        }
        seen.sort();
        assert_eq!(seen, (0..l.clients()).collect::<Vec<_>>());
    }

    #[test]
    fn a_datum_lives_on_its_allocators_home_server() {
        use std::collections::HashSet;
        for size in 2..=16 {
            for servers in 1..size {
                let l = Layout::new(size, servers);
                let mut seen = HashSet::new();
                for c in 0..l.clients() {
                    for k in 0..64u64 {
                        let id = l.datum_id(c, k);
                        assert!(seen.insert(id), "{l:?}: id {id} of client {c} reused");
                        assert_eq!(l.data_owner(id), l.server_of(c), "{l:?}: id {id}");
                        if size % servers == 0 {
                            assert_eq!(id, k * size as u64 + c as u64, "{l:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn data_owner_is_a_server() {
        let l = Layout::new(7, 2);
        for id in 0..100u64 {
            assert!(l.is_server(l.data_owner(id)));
        }
    }

    #[test]
    #[should_panic]
    fn all_servers_is_invalid() {
        Layout::new(2, 2);
    }

    #[test]
    fn ring_successors_wrap() {
        let l = Layout::new(11, 3); // servers 8, 9, 10
        assert_eq!(l.next_server(8), 9);
        assert_eq!(l.next_server(10), 8);
        assert_eq!(l.successors(9, 2), vec![10, 8]);
        // k capped at the other servers.
        assert_eq!(l.successors(9, 7), vec![10, 8]);
        let l1 = Layout::new(3, 1);
        assert_eq!(l1.next_server(2), 2);
        assert!(l1.successors(2, 1).is_empty());
    }

    #[test]
    fn live_successors_skip_dead_and_shrink_with_the_ring() {
        use std::collections::HashSet;
        let l = Layout::new(12, 4); // servers 8..=11
        let none: HashSet<Rank> = HashSet::new();
        assert_eq!(l.live_successors(8, 1, &none), vec![9]);
        assert_eq!(l.live_successors(11, 2, &none), vec![8, 9]);
        // A dead successor is skipped: the replica moves one hop further.
        let dead: HashSet<Rank> = [9].into_iter().collect();
        assert_eq!(l.live_successors(8, 1, &dead), vec![10]);
        assert_eq!(l.live_successors(8, 2, &dead), vec![10, 11]);
        // The ring can shrink below k: fewer live holders than requested.
        let most: HashSet<Rank> = [9, 10, 11].into_iter().collect();
        assert!(l.live_successors(8, 2, &most).is_empty());
        let l1 = Layout::new(3, 1);
        assert!(l1.live_successors(2, 1, &none).is_empty());
    }

    #[test]
    fn route_skips_dead_servers() {
        use std::collections::HashSet;
        let l = Layout::new(11, 3);
        let dead: HashSet<Rank> = [9].into_iter().collect();
        assert_eq!(l.route(8, &dead), 8);
        assert_eq!(l.route(9, &dead), 10);
        let dead2: HashSet<Rank> = [9, 10].into_iter().collect();
        assert_eq!(l.route(9, &dead2), 8, "route wraps past multiple deaths");
    }
}
