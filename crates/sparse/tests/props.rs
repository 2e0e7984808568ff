//! Property-based tests of the voxel hash table.

use proptest::prelude::*;

use nvr_common::Pcg32;
use nvr_sparse::{VoxelHashTable, VoxelKey};

proptest! {
    /// Voxel tables resolve every inserted key to its slot, and miss keys
    /// that were never inserted.
    #[test]
    fn voxel_table_resolves(seed in any::<u64>(), n in 1usize..150) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let (table, keys) = VoxelHashTable::random(n, 64, n * 4, &mut rng);
        for (i, &k) in keys.iter().enumerate() {
            prop_assert_eq!(table.lookup(k), Some(i as u32));
            let path = table.probe_path(k);
            prop_assert!(!path.is_empty());
            prop_assert!(path.iter().all(|&b| b < table.bucket_count()));
        }
        // A key far outside the extent was never inserted.
        prop_assert_eq!(table.lookup(VoxelKey::new(1 << 20, 0, 0)), None);
    }

    /// Generated voxel tables hold exactly `n` distinct keys, all inside the
    /// cube of side `extent`, in a table of at least `2n` buckets.
    #[test]
    fn generator_invariants(seed in any::<u64>(), n in 1usize..120, extent in 8u32..64) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let (table, keys) = VoxelHashTable::random(n, extent, 0, &mut rng);
        prop_assert_eq!(keys.len(), n);
        prop_assert_eq!(table.len(), n);
        prop_assert!(table.bucket_count() >= 2 * n);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), n);
        let side = extent as i32;
        for k in keys {
            prop_assert!([k.x, k.y, k.z].iter().all(|&c| (0..side).contains(&c)));
        }
    }
}
