//! SCN: SparseConvNet — submanifold sparse convolution.
//!
//! Same two-level voxel-hash chain as [`crate::minkowski`], but the point
//! cloud is *clustered* (surfaces / objects rather than uniform scatter):
//! neighbourhoods resolve more hits, and consecutive output voxels share
//! neighbours, yielding more feature-row reuse than MK — SCN sits between
//! MK and the attention workloads in miss behaviour.

use nvr_common::Pcg32;
use nvr_sparse::{VoxelHashTable, VoxelKey};
use nvr_trace::NpuProgram;

use crate::minkowski::{build_pointcloud, PointcloudParams, VoxelOrder};
use crate::spec::WorkloadSpec;

/// Occupied voxels.
const POINTS: usize = 8192;
/// Voxel grid extent per axis.
const EXTENT: u32 = 96;
/// Number of surface clusters.
const CLUSTERS: usize = 24;
/// Cluster radius (voxels).
const RADIUS: u32 = 6;
/// Hash-table buckets.
const BUCKETS: usize = 32_768;
/// Feature channels (wider than MK).
const FEAT_DIM: usize = 64;
/// Tiles per tile factor.
const TILES: usize = 32;

/// Generates clustered voxels and inserts them into a hash table.
fn clustered_cloud(rng: &mut Pcg32) -> (VoxelHashTable, Vec<VoxelKey>) {
    let mut table = VoxelHashTable::with_capacity(BUCKETS);
    let mut keys = Vec::with_capacity(POINTS);
    let centres: Vec<(i64, i64, i64)> = (0..CLUSTERS)
        .map(|_| {
            (
                rng.gen_range(u64::from(EXTENT)) as i64,
                rng.gen_range(u64::from(EXTENT)) as i64,
                rng.gen_range(u64::from(EXTENT)) as i64,
            )
        })
        .collect();
    let spread = u64::from(2 * RADIUS + 1);
    while keys.len() < POINTS {
        let (cx, cy, cz) = centres[rng.gen_index(CLUSTERS)];
        let key = VoxelKey::new(
            (cx + rng.gen_range(spread) as i64 - i64::from(RADIUS)) as i32,
            (cy + rng.gen_range(spread) as i64 - i64::from(RADIUS)) as i32,
            (cz + rng.gen_range(spread) as i64 - i64::from(RADIUS)) as i32,
        );
        if table.insert_if_absent(key, keys.len() as u32) {
            keys.push(key);
        }
    }
    (table, keys)
}

/// Builds the SCN program.
#[must_use]
pub fn build(spec: &WorkloadSpec) -> NpuProgram {
    let mut rng = Pcg32::seed_with_stream(spec.seed, 0x5C2);
    let (table, keys) = clustered_cloud(&mut rng);
    let params = PointcloudParams {
        points: POINTS,
        extent: EXTENT,
        buckets: BUCKETS,
        feat_dim: FEAT_DIM,
        tiles: TILES,
        order: VoxelOrder::Sorted,
    };
    build_pointcloud("SCN", spec, &table, &keys, &params, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvr_common::DataWidth;

    #[test]
    fn clustering_raises_neighbour_yield_over_mk() {
        let spec = WorkloadSpec::tiny(DataWidth::Int8, 18);
        let scn = build(&spec);
        let mk = crate::minkowski::build(&spec);
        let yield_of = |p: &NpuProgram| {
            let s = p.stats();
            s.gather_elems as f64 / s.tiles as f64
        };
        assert!(
            yield_of(&scn) > yield_of(&mk),
            "clustered SCN {} should out-yield uniform MK {}",
            yield_of(&scn),
            yield_of(&mk)
        );
    }

    #[test]
    fn reuse_within_tiles_exists() {
        let p = build(&WorkloadSpec::tiny(DataWidth::Int8, 19));
        // Dense clusters mean some buckets repeat across a tile sequence.
        let mut seen = std::collections::BTreeSet::new();
        let mut repeats = 0usize;
        let mut total = 0usize;
        for t in p.tiles.iter().take(8) {
            for v in t.index_values(&p.image) {
                total += 1;
                if !seen.insert(v) {
                    repeats += 1;
                }
            }
        }
        assert!(
            repeats * 10 > total,
            "clusters should produce >10% repeated buckets ({repeats}/{total})"
        );
    }
}
