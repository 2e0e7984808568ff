//! R-MAT graph generation for the GNN workloads.
//!
//! GAT/GCN memory behaviour is shaped by the adjacency structure: power-law
//! degree distributions concentrate traffic on hub nodes (which cache well)
//! while the long tail scatters across the feature table (which does not).
//! The recursive-matrix (R-MAT) generator reproduces both properties with
//! four partition probabilities.

use nvr_common::Pcg32;

use crate::spec::TileOrder;

/// A directed graph in CSR-like adjacency form.
///
/// # Examples
///
/// ```
/// use nvr_workloads::Graph;
/// use nvr_common::Pcg32;
///
/// let mut rng = Pcg32::seed_from_u64(1);
/// let g = Graph::rmat(256, 4.0, &mut rng);
/// assert_eq!(g.nodes(), 256);
/// assert!(g.edges() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    offsets: Vec<u32>,
    neighbours: Vec<u32>,
}

/// Standard R-MAT partition probabilities (a, b, c; d implied).
const RMAT_A: f64 = 0.57;
const RMAT_B: f64 = 0.19;
const RMAT_C: f64 = 0.19;

/// Cumulative quadrant thresholds: a draw `p` lands in quadrant `q`, the
/// number of thresholds it reaches (0 = top-left, 1 = top-right,
/// 2 = bottom-left, 3 = bottom-right).
const RMAT_THRESHOLDS: [f64; 3] = [RMAT_A, RMAT_A + RMAT_B, RMAT_A + RMAT_B + RMAT_C];

impl Graph {
    /// Generates an R-MAT graph with `nodes` vertices (rounded up to a
    /// power of two internally) and ~`avg_degree` out-edges per node.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`, or if `avg_degree` is not finite, not
    /// positive, or above the largest average degree a graph of `nodes`
    /// vertices can have (`nodes - 1` distinct out-neighbours; 1 for a
    /// single node, whose only edge is the ring edge to itself).
    #[must_use]
    pub fn rmat(nodes: usize, avg_degree: f64, rng: &mut Pcg32) -> Self {
        assert!(nodes > 0, "graph must have nodes");
        assert!(
            avg_degree.is_finite() && avg_degree > 0.0,
            "average degree must be finite and positive"
        );
        assert!(
            avg_degree <= (nodes - 1).max(1) as f64,
            "average degree {avg_degree} exceeds what {nodes} nodes can hold"
        );
        let scale = usize::BITS - (nodes - 1).leading_zeros();
        let n_edges = (nodes as f64 * avg_degree) as usize;

        // Online deduplication into per-source sorted lists: a binary
        // search both rejects a repeated edge and finds its slot, so the
        // lists stay sorted and hold exactly the output's edges. The
        // largest transient allocation is the list headers, 24 bytes per
        // node, against the output's 4 + 4·degree.
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); nodes];
        let mut placed = 0usize;
        let mut guard = 0usize;
        while placed < n_edges && guard < n_edges.saturating_mul(8) {
            guard += 1;
            // Recursive quadrant descent, most significant bit first.
            let (mut src, mut dst) = (0usize, 0usize);
            for _ in 0..scale {
                let p = rng.gen_f64();
                let q = usize::from(p >= RMAT_THRESHOLDS[0])
                    + usize::from(p >= RMAT_THRESHOLDS[1])
                    + usize::from(p >= RMAT_THRESHOLDS[2]);
                src = (src << 1) | (q >> 1);
                dst = (dst << 1) | (q & 1);
            }
            if src < nodes && dst < nodes && src != dst {
                let list = &mut adj[src];
                if let Err(pos) = list.binary_search(&(dst as u32)) {
                    list.insert(pos, dst as u32);
                    placed += 1;
                }
            }
        }
        // Ensure no isolated nodes: give each a self-adjacent ring edge.
        for (i, list) in adj.iter_mut().enumerate() {
            if list.is_empty() {
                list.push(((i + 1) % nodes) as u32);
            }
        }

        let mut offsets = Vec::with_capacity(nodes + 1);
        let mut neighbours = Vec::with_capacity(adj.iter().map(Vec::len).sum());
        offsets.push(0u32);
        for list in &adj {
            neighbours.extend_from_slice(list);
            offsets.push(neighbours.len() as u32);
        }
        Graph {
            offsets,
            neighbours,
        }
    }

    /// Number of vertices.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[must_use]
    pub fn edges(&self) -> usize {
        self.neighbours.len()
    }

    /// Out-neighbours of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn neighbours(&self, v: usize) -> &[u32] {
        let a = self.offsets[v] as usize;
        let b = self.offsets[v + 1] as usize;
        &self.neighbours[a..b]
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// The *anchor* of `v`: its highest-degree out-neighbour (smallest id
    /// on ties). Nodes sharing an anchor share their hottest gather row,
    /// so visiting them consecutively collapses that row's reuse
    /// distance to the community size.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn anchor(&self, v: usize) -> u32 {
        let ns = self.neighbours(v);
        let mut best = ns[0];
        for &n in &ns[1..] {
            let (bd, nd) = (self.degree(best as usize), self.degree(n as usize));
            if nd > bd || (nd == bd && n < best) {
                best = n;
            }
        }
        best
    }

    /// Node-visit permutation realising `order` (deterministic: stable
    /// sorts with node-id tie-breaks over the already-deterministic
    /// adjacency). [`TileOrder::Natural`] is the identity, so order-aware
    /// builders that index through it stay bit-identical to the
    /// pre-order-aware walk.
    #[must_use]
    pub fn permutation(&self, order: TileOrder) -> Vec<u32> {
        let mut perm: Vec<u32> = (0..self.nodes() as u32).collect();
        match order {
            TileOrder::Natural => {}
            TileOrder::DegreeSorted => {
                perm.sort_by_key(|&v| (std::cmp::Reverse(self.degree(v as usize)), v));
            }
            TileOrder::Clustered => {
                perm.sort_by_key(|&v| (self.anchor(v as usize), v));
            }
        }
        perm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference generator: a lo/hi interval descent with a
    /// branchy quadrant pick, a dense src×dst bitset (nodes²/8 bytes)
    /// for duplicates, and a sort at the end.
    fn rmat_reference(nodes: usize, avg_degree: f64, rng: &mut Pcg32) -> Vec<Vec<u32>> {
        let scale = usize::BITS - (nodes - 1).leading_zeros();
        let n = 1usize << scale;
        let n_edges = (nodes as f64 * avg_degree) as usize;
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); nodes];
        let mut bits = vec![0u64; (nodes * nodes).div_ceil(64)];
        let mut placed = 0usize;
        let mut guard = 0usize;
        while placed < n_edges && guard < n_edges * 8 {
            guard += 1;
            let (mut lo_r, mut hi_r) = (0usize, n);
            let (mut lo_c, mut hi_c) = (0usize, n);
            while hi_r - lo_r > 1 {
                let p = rng.gen_f64();
                let (top, left) = if p < RMAT_A {
                    (true, true)
                } else if p < RMAT_A + RMAT_B {
                    (true, false)
                } else if p < RMAT_A + RMAT_B + RMAT_C {
                    (false, true)
                } else {
                    (false, false)
                };
                let mid_r = (lo_r + hi_r) / 2;
                let mid_c = (lo_c + hi_c) / 2;
                if top {
                    hi_r = mid_r;
                } else {
                    lo_r = mid_r;
                }
                if left {
                    hi_c = mid_c;
                } else {
                    lo_c = mid_c;
                }
            }
            let (src, dst) = (lo_r, lo_c);
            if src < nodes && dst < nodes && src != dst {
                let bit = src * nodes + dst;
                let mask = 1u64 << (bit % 64);
                if bits[bit / 64] & mask == 0 {
                    bits[bit / 64] |= mask;
                    adj[src].push(dst as u32);
                    placed += 1;
                }
            }
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        for (i, list) in adj.iter_mut().enumerate() {
            if list.is_empty() {
                list.push(((i + 1) % nodes) as u32);
            }
        }
        adj
    }

    #[test]
    fn rmat_matches_dense_bitset_reference() {
        // Non-power-of-two sizes reject out-of-range draws; 1-3 nodes hit
        // the degenerate descents; the high degrees saturate small graphs
        // so the guard, not the edge target, ends the loop.
        let cases: &[(usize, &[f64])] = &[
            (1, &[0.5, 1.0]),
            (2, &[0.5, 1.0]),
            (3, &[0.7, 1.5, 2.0]),
            (5, &[1.0, 4.0]),
            (17, &[2.0, 9.5, 16.0]),
            (100, &[1.0, 6.0, 40.0]),
            (256, &[4.0, 12.0]),
            (1000, &[3.0, 10.0]),
        ];
        for &(nodes, degrees) in cases {
            for &degree in degrees {
                for seed in [0u64, 1, 2025, 0xDEAD_BEEF] {
                    let mut fast_rng = Pcg32::seed_with_stream(seed, 0x6C2);
                    let mut ref_rng = fast_rng.clone();
                    let g = Graph::rmat(nodes, degree, &mut fast_rng);
                    let reference = rmat_reference(nodes, degree, &mut ref_rng);
                    assert_eq!(g.nodes(), nodes);
                    for (v, want) in reference.iter().enumerate() {
                        assert_eq!(
                            g.neighbours(v),
                            want.as_slice(),
                            "nodes {nodes} degree {degree} seed {seed}: node {v}"
                        );
                    }
                    assert_eq!(
                        fast_rng.next_u64(),
                        ref_rng.next_u64(),
                        "nodes {nodes} degree {degree} seed {seed}: RNG state diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn rmat_builds_graphs_a_dense_bitset_could_not() {
        // 65,536 nodes: the reference's src×dst bitset would need 512 MB.
        let mut rng = Pcg32::seed_from_u64(3);
        let g = Graph::rmat(1 << 16, 2.0, &mut rng);
        assert_eq!(g.nodes(), 1 << 16);
        assert!(g.edges() >= 1 << 17);
        for v in 0..g.nodes() {
            let ns = g.neighbours(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "node {v} unsorted");
        }
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn infinite_degree_panics() {
        let _ = Graph::rmat(16, f64::INFINITY, &mut Pcg32::seed_from_u64(1));
    }

    #[test]
    #[should_panic(expected = "exceeds what 16 nodes can hold")]
    fn unreachable_degree_panics() {
        let _ = Graph::rmat(16, 15.5, &mut Pcg32::seed_from_u64(1));
    }

    #[test]
    fn rmat_shape_and_determinism() {
        let mut a = Pcg32::seed_from_u64(5);
        let mut b = Pcg32::seed_from_u64(5);
        let ga = Graph::rmat(512, 8.0, &mut a);
        let gb = Graph::rmat(512, 8.0, &mut b);
        assert_eq!(ga.nodes(), 512);
        assert_eq!(ga.edges(), gb.edges());
        assert_eq!(ga.neighbours(10), gb.neighbours(10));
    }

    #[test]
    fn no_isolated_nodes() {
        let mut rng = Pcg32::seed_from_u64(6);
        let g = Graph::rmat(128, 2.0, &mut rng);
        for v in 0..g.nodes() {
            assert!(g.degree(v) >= 1, "node {v} isolated");
        }
    }

    #[test]
    fn neighbours_sorted_unique_in_range() {
        let mut rng = Pcg32::seed_from_u64(7);
        let g = Graph::rmat(256, 6.0, &mut rng);
        for v in 0..g.nodes() {
            let ns = g.neighbours(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "node {v} unsorted");
            assert!(ns.iter().all(|&n| (n as usize) < g.nodes()));
        }
    }

    #[test]
    fn natural_permutation_is_identity() {
        let mut rng = Pcg32::seed_from_u64(9);
        let g = Graph::rmat(64, 4.0, &mut rng);
        let perm = g.permutation(TileOrder::Natural);
        assert_eq!(perm, (0..64u32).collect::<Vec<_>>());
    }

    #[test]
    fn degree_sorted_is_monotone_with_stable_ties() {
        let mut rng = Pcg32::seed_from_u64(10);
        let g = Graph::rmat(256, 6.0, &mut rng);
        let perm = g.permutation(TileOrder::DegreeSorted);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..256u32).collect::<Vec<_>>(), "not a permutation");
        for w in perm.windows(2) {
            let (da, db) = (g.degree(w[0] as usize), g.degree(w[1] as usize));
            assert!(da > db || (da == db && w[0] < w[1]));
        }
    }

    #[test]
    fn clustered_groups_by_anchor() {
        let mut rng = Pcg32::seed_from_u64(11);
        let g = Graph::rmat(256, 6.0, &mut rng);
        let perm = g.permutation(TileOrder::Clustered);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..256u32).collect::<Vec<_>>(), "not a permutation");
        for w in perm.windows(2) {
            let (fa, fb) = (g.anchor(w[0] as usize), g.anchor(w[1] as usize));
            assert!(fa < fb || (fa == fb && w[0] < w[1]));
        }
        // The anchor is the highest-degree out-neighbour, lowest id on ties.
        for v in 0..g.nodes() {
            let a = g.anchor(v);
            for &n in g.neighbours(v) {
                let (da, dn) = (g.degree(a as usize), g.degree(n as usize));
                assert!(da > dn || (da == dn && a <= n), "node {v}: {a} vs {n}");
            }
        }
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let mut rng = Pcg32::seed_from_u64(8);
        let g = Graph::rmat(1024, 8.0, &mut rng);
        // In-degree skew: count how often each node appears as a target.
        let mut indeg = vec![0usize; g.nodes()];
        for v in 0..g.nodes() {
            for &n in g.neighbours(v) {
                indeg[n as usize] += 1;
            }
        }
        indeg.sort_unstable_by(|a, b| b.cmp(a));
        let top = indeg[..g.nodes() / 20].iter().sum::<usize>();
        let total: usize = indeg.iter().sum();
        assert!(
            top * 4 > total,
            "top-5% nodes should absorb >25% of edges ({top}/{total})"
        );
    }
}
