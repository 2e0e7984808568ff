//! Sparse tensor formats and generators for the NVR workloads.
//!
//! The paper's workloads (Table II) are driven by compressed sparse
//! structures: CSR weight matrices for SpMM (§II-A, Fig. 2), bitmap masks
//! (NVDLA-style), top-k index lists (sparse attention / heavy hitters) and
//! voxel hash tables (point-cloud networks). This crate implements those
//! formats from scratch, together with deterministic random generators used
//! to synthesise workloads with controlled sparsity and structure.
//!
//! # Examples
//!
//! ```
//! use nvr_sparse::gen::{random_csr, SparsityPattern};
//! use nvr_common::Pcg32;
//!
//! let mut rng = Pcg32::seed_from_u64(1);
//! let m = random_csr(64, 64, 0.1, SparsityPattern::Uniform, &mut rng);
//! assert!((m.density() - 0.1).abs() < 0.05);
//! ```

pub mod bitmap;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod gen;
pub mod topk;
pub mod voxel_hash;

pub use bitmap::BitmapMatrix;
pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use topk::top_k_indices;
pub use voxel_hash::{VoxelHashTable, VoxelKey};
