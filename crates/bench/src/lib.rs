//! # kp-bench — the figure/table reproduction harness
//!
//! Each module under [`experiments`] regenerates one table or figure of
//! *"Local Memory-Aware Kernel Perforation"* (CGO'18): the workload
//! generation, the parameter sweep, the baseline and the report formatting.
//! The `repro` binary is the command-line front end.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod util;

pub use util::Ctx;
