//! NPU configuration.

/// Execution discipline of the NPU pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Serial load → compute → store per tile; any vector element miss
    /// stalls everything (the paper's baseline Gemmini behaviour, §II-B).
    #[default]
    InOrder,
    /// Ideal out-of-order: loads for a bounded window of upcoming tiles
    /// issue while earlier tiles compute, overlapping memory with
    /// computation.
    OutOfOrder,
}

/// Configuration of the NPU timing model.
///
/// The hardware itself is fixed — the paper's N=16 lanes (Table I) and
/// Gemmini's scratchpad and DMA engine — so the execution discipline is
/// the one setting the evaluation varies.
///
/// # Examples
///
/// ```
/// use nvr_npu::{ExecMode, NpuConfig};
///
/// assert_eq!(NpuConfig::default().exec, ExecMode::InOrder);
/// assert_eq!(NpuConfig::out_of_order().exec, ExecMode::OutOfOrder);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NpuConfig {
    /// Execution discipline.
    pub exec: ExecMode,
}

impl NpuConfig {
    /// The configuration with ideal OoO execution.
    #[must_use]
    pub fn out_of_order() -> Self {
        NpuConfig {
            exec: ExecMode::OutOfOrder,
        }
    }
}
