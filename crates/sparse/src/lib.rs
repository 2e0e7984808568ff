//! Voxel hash tables for the point-cloud workloads (SCN, MK).
//!
//! MinkowskiNet and SparseConvNet locate a voxel's neighbours by probing
//! an open-addressing hash table keyed on quantised 3-D coordinates
//! (§II-A's "hash-table indexing ... in point cloud networks").
//! [`VoxelHashTable::probe_path`] is the bucket sequence such a probe
//! touches; the workload generators turn it into memory accesses.
//!
//! # Examples
//!
//! ```
//! use nvr_common::Pcg32;
//! use nvr_sparse::{VoxelHashTable, VoxelKey};
//!
//! let mut rng = Pcg32::seed_from_u64(1);
//! let (table, keys) = VoxelHashTable::random(32, 16, 128, &mut rng);
//! assert_eq!(table.lookup(keys[5]), Some(5));
//! assert_eq!(table.lookup(VoxelKey::new(-1, 0, 0)), None);
//! ```

mod voxel_hash;

pub use voxel_hash::{VoxelHashTable, VoxelKey};
