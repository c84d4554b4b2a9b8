//! # kp-core — local memory-aware kernel perforation
//!
//! Rust implementation of the approximation technique from *"Local
//! Memory-Aware Kernel Perforation"* (Maier, Cosenza, Juurlink — CGO 2018,
//! DOI [10.1145/3168814](https://doi.org/10.1145/3168814)), running on the
//! [`kp_gpu_sim`] simulated GPU.
//!
//! The technique accelerates memory-bound GPU kernels by *perforating their
//! input*: a [`PerforationScheme`] skips part of the global-memory loads of
//! each work-group tile, a [`Reconstruction`] technique rebuilds the skipped
//! elements in fast local memory, and the unmodified kernel body then runs
//! over the reconstructed tile. Compared with output approximation
//! (Paraprox, re-implemented in [`paraprox`] as the comparison baseline),
//! this reaches similar speedups at a fraction of the error.
//!
//! ## Pipeline (paper Fig. 1b)
//!
//! ```text
//!  input buffer ──(Ia) data perforation──▶ local memory (sparse)
//!               ──(Ib) reconstruction ───▶ local memory (dense approx.)
//!               ──(II) kernel execution──▶ output buffer
//! ```
//!
//! ## Quick start
//!
//! ```
//! use kp_core::{ApproxConfig, ImageInput, RunSpec, StencilApp, Window, run_app};
//! use kp_gpu_sim::{Device, DeviceConfig};
//!
//! /// A 3x3 box blur as a perforatable application.
//! struct Box3;
//!
//! impl StencilApp for Box3 {
//!     fn name(&self) -> &str { "box3" }
//!     fn halo(&self) -> usize { 1 }
//!     fn compute(&self, win: &mut Window<'_, '_>) -> f32 {
//!         let mut acc = 0.0;
//!         for dy in -1..=1 { for dx in -1..=1 { acc += win.at(dx, dy); } }
//!         win.ops(9);
//!         acc / 9.0
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut dev = Device::new(DeviceConfig::firepro_w5100())?;
//! let image = vec![0.5f32; 64 * 64];
//! let input = ImageInput::new(&image, 64, 64)?;
//!
//! let accurate = run_app(&mut dev, &Box3, &input, &RunSpec::Baseline { group: (16, 16) })?;
//! let perforated = run_app(&mut dev, &Box3, &input,
//!     &RunSpec::Perforated(ApproxConfig::rows1_nn((16, 16))))?;
//!
//! assert!(perforated.report.seconds < accurate.report.seconds);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod budget;
mod config;
mod error;
mod metrics;
mod pareto;
mod reconstruction;
mod runner;
mod scheme;
mod tile;
mod tuner;

pub mod par;
pub mod paraprox;
pub mod pipeline;

pub use budget::{best_under_budget, select_with_budget, BudgetSelection};
pub use config::ApproxConfig;
pub use error::CoreError;
pub use metrics::{
    max_abs_error, mean_absolute_error, mean_relative_error, psnr, rmse, Distribution, ErrorMetric,
    MRE_EPSILON,
};
pub use par::parallel_ordered_map;
pub use pareto::{pareto_front, TradeOff};
pub use pipeline::{
    pack_tiled, AccurateGlobalKernel, AccurateLocalKernel, AppRef, ImageBinding, PerforatedKernel,
    StencilApp, TilePrefetch, Window, Workload, WorkloadRef,
};
pub use reconstruction::{reconstruct_element, Reconstruction};
pub use runner::{run_app, run_iterative, run_specs_batched, ImageInput, RunResult, RunSpec};
pub use scheme::{LoadQuery, PerforationScheme, PrefetchLayout, SchemeSpec, SkipLevel};
pub use tile::{clamp_coord, TileGeometry};
pub use tuner::{
    fig8_specs, fig9_shapes, layout_specs, pareto_outcomes, sweep, SweepContext, SweepOutcome,
};
