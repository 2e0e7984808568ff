//! The eight sparse DNN workloads of the paper's Table II.
//!
//! Each module synthesises the *linear-layer memory access pattern* of one
//! evaluated workload — which is exactly what the paper extracts ("Table II
//! presents representative workloads extracted from various models' linear
//! layer memory access patterns", §V-A). The generators reproduce the
//! structural properties that drive cache behaviour: indirection depth,
//! index-space span, sparsity level and distribution, reuse locality, and
//! loop-bound variability.
//!
//! | Short | Workload | Domain | Pattern essence |
//! |---|---|---|---|
//! | DS    | Double Sparsity        | LLM            | top-k KV-cache gathers, huge span, mild reuse |
//! | GAT   | Graph Attention        | GNN            | power-law neighbour gathers + per-edge attention |
//! | GCN   | Graph Convolution      | GNN            | power-law neighbour gathers, wide features |
//! | GSABT | Graph Sparse Attention | sparse attention | block-local + random-global mixture |
//! | H2O   | Heavy-Hitter Oracle    | LLM            | Zipf-hot KV gathers, high reuse |
//! | MK    | MinkowskiNet           | point cloud    | two-level voxel-hash gathers |
//! | SCN   | SparseConvNet          | point cloud    | two-level gathers, clustered reuse |
//! | ST    | Switch Transformer     | MoE            | block-contiguous expert weights |
//!
//! # Examples
//!
//! ```
//! use nvr_workloads::{WorkloadId, WorkloadSpec};
//!
//! let spec = WorkloadSpec::tiny(nvr_common::DataWidth::Int8, 1);
//! let program = WorkloadId::Ds.build(&spec);
//! assert!(program.stats().gather_elems > 0);
//! ```

// A new variant must be placed deliberately in every match over it,
// never inherited by a `_` arm.
#![deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

pub mod double_sparsity;
pub mod gat;
pub mod gcn;
pub mod graph;
pub mod gsabt;
pub mod h2o;
pub mod minkowski;
pub mod scn;
pub mod spec;
pub mod switch_transformer;

pub use graph::Graph;
pub use minkowski::{PointcloudParams, VoxelOrder};
pub use spec::{Scale, TileOrder, WorkloadSpec};

use nvr_trace::NpuProgram;

/// Identifier of one evaluated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadId {
    /// Double Sparsity (LLM sparse attention).
    Ds,
    /// Graph Attention Networks.
    Gat,
    /// Graph Convolutional Networks.
    Gcn,
    /// Graph Sparse Attention (block + global).
    Gsabt,
    /// Heavy-Hitter Oracle.
    H2o,
    /// MinkowskiNet (point cloud).
    Mk,
    /// SparseConvNet (point cloud).
    Scn,
    /// Switch Transformer (mixture of experts).
    St,
}

impl WorkloadId {
    /// All workloads in the paper's reporting order.
    pub const ALL: [WorkloadId; 8] = [
        WorkloadId::Ds,
        WorkloadId::Gat,
        WorkloadId::Gcn,
        WorkloadId::Gsabt,
        WorkloadId::H2o,
        WorkloadId::Mk,
        WorkloadId::Scn,
        WorkloadId::St,
    ];

    /// The paper's short name.
    #[must_use]
    pub fn short(self) -> &'static str {
        match self {
            WorkloadId::Ds => "DS",
            WorkloadId::Gat => "GAT",
            WorkloadId::Gcn => "GCN",
            WorkloadId::Gsabt => "GSABT",
            WorkloadId::H2o => "H2O",
            WorkloadId::Mk => "MK",
            WorkloadId::Scn => "SCN",
            WorkloadId::St => "ST",
        }
    }

    /// Full name, as in Table II.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Ds => "Double Sparsity",
            WorkloadId::Gat => "Graph Attention Networks",
            WorkloadId::Gcn => "Graph Convolutional Networks",
            WorkloadId::Gsabt => "Graph Sparse Attention",
            WorkloadId::H2o => "Heavy-Hitter Oracle",
            WorkloadId::Mk => "MinkowskiNet",
            WorkloadId::Scn => "SparseConvNet",
            WorkloadId::St => "Switch Transformer",
        }
    }

    /// Domain column of Table II.
    #[must_use]
    pub fn domain(self) -> &'static str {
        match self {
            WorkloadId::Ds | WorkloadId::H2o => "large language model",
            WorkloadId::Gat | WorkloadId::Gcn => "graph neural networks",
            WorkloadId::Gsabt => "sparse attention",
            WorkloadId::Mk | WorkloadId::Scn => "point cloud",
            WorkloadId::St => "mixture of experts",
        }
    }

    /// Looks a workload up by its short name, case-insensitively.
    #[must_use]
    pub fn from_short(s: &str) -> Option<WorkloadId> {
        WorkloadId::ALL
            .into_iter()
            .find(|w| w.short().eq_ignore_ascii_case(s))
    }

    /// Builds the workload's NPU program.
    #[must_use]
    pub fn build(self, spec: &WorkloadSpec) -> NpuProgram {
        match self {
            WorkloadId::Ds => double_sparsity::build(spec),
            WorkloadId::Gat => gat::build(spec),
            WorkloadId::Gcn => gcn::build(spec),
            WorkloadId::Gsabt => gsabt::build(spec),
            WorkloadId::H2o => h2o::build(spec),
            WorkloadId::Mk => minkowski::build(spec),
            WorkloadId::Scn => scn::build(spec),
            WorkloadId::St => switch_transformer::build(spec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvr_common::DataWidth;

    #[test]
    fn all_workloads_build_and_validate() {
        let spec = WorkloadSpec::tiny(DataWidth::Int8, 7);
        for id in WorkloadId::ALL {
            let p = id.build(&spec);
            p.assert_valid();
            let s = p.stats();
            assert!(s.tiles > 0, "{} produced no tiles", id.short());
            assert!(s.gather_elems > 0, "{} gathers nothing", id.short());
            assert!(s.compute_cycles > 0, "{} computes nothing", id.short());
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let spec = WorkloadSpec::tiny(DataWidth::Fp16, 3);
        for id in WorkloadId::ALL {
            let a = id.build(&spec);
            let b = id.build(&spec);
            assert_eq!(a.stats(), b.stats(), "{} not deterministic", id.short());
            assert_eq!(
                a.tiles.len(),
                b.tiles.len(),
                "{} tile count differs",
                id.short()
            );
        }
    }

    #[test]
    fn tile_orders_permute_gnn_programs_only() {
        let spec = WorkloadSpec::tiny(DataWidth::Int8, 7);
        for id in WorkloadId::ALL {
            let natural = id.build(&spec);
            for order in [TileOrder::DegreeSorted, TileOrder::Clustered] {
                let reordered = id.build(&spec.with_order(order));
                reordered.assert_valid();
                let graphy = matches!(id, WorkloadId::Gat | WorkloadId::Gcn);
                let same_indices = natural.tiles.iter().zip(&reordered.tiles).all(|(a, b)| {
                    a.index_values(&natural.image) == b.index_values(&reordered.image)
                });
                if graphy {
                    assert!(!same_indices, "{} ignored order {order}", id.short());
                } else {
                    assert_eq!(natural.stats(), reordered.stats());
                    assert!(same_indices, "{} should ignore order", id.short());
                }
            }
        }
    }

    #[test]
    fn width_scales_row_bytes() {
        let narrow = WorkloadId::Ds.build(&WorkloadSpec::tiny(DataWidth::Int8, 1));
        let wide = WorkloadId::Ds.build(&WorkloadSpec::tiny(DataWidth::Int32, 1));
        let row = |p: &NpuProgram| p.tiles[0].gather.expect("DS gathers").func.row_bytes();
        assert_eq!(row(&wide), 4 * row(&narrow));
    }

    #[test]
    fn short_name_lookup() {
        for id in WorkloadId::ALL {
            assert_eq!(WorkloadId::from_short(id.short()), Some(id));
            assert_eq!(
                WorkloadId::from_short(&id.short().to_ascii_lowercase()),
                Some(id)
            );
        }
        assert_eq!(WorkloadId::from_short("nope"), None);
    }

    #[test]
    fn names_and_domains_match_table_two() {
        assert_eq!(WorkloadId::Ds.short(), "DS");
        assert_eq!(WorkloadId::St.domain(), "mixture of experts");
        assert_eq!(WorkloadId::Mk.name(), "MinkowskiNet");
        let shorts: Vec<_> = WorkloadId::ALL.iter().map(|w| w.short()).collect();
        assert_eq!(
            shorts,
            ["DS", "GAT", "GCN", "GSABT", "H2O", "MK", "SCN", "ST"]
        );
    }
}
