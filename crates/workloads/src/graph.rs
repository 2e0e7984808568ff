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

impl Graph {
    /// Generates an R-MAT graph with `nodes` vertices (rounded up to a
    /// power of two internally) and ~`avg_degree` out-edges per node.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or `avg_degree <= 0`.
    #[must_use]
    pub fn rmat(nodes: usize, avg_degree: f64, rng: &mut Pcg32) -> Self {
        assert!(nodes > 0, "graph must have nodes");
        assert!(avg_degree > 0.0, "average degree must be positive");
        let scale = usize::BITS - (nodes - 1).leading_zeros();
        let n = 1usize << scale;
        let n_edges = (nodes as f64 * avg_degree) as usize;

        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); nodes];
        // Duplicate detection: a dense src×dst bit matrix makes the
        // membership test O(1) and placement a plain push. It costs
        // nodes²/8 transient bytes (8 MB for GCN's 8192 nodes).
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
        // Placement appends in sample order; sort each adjacency list.
        for list in &mut adj {
            list.sort_unstable();
        }
        // Ensure no isolated nodes: give each a self-adjacent ring edge.
        for (i, list) in adj.iter_mut().enumerate() {
            if list.is_empty() {
                list.push(((i + 1) % nodes) as u32);
            }
        }

        let mut offsets = Vec::with_capacity(nodes + 1);
        let mut neighbours = Vec::new();
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
