//! Offline stand-in for `serde`.
//!
//! Re-exports no-op `Serialize` / `Deserialize` derive macros and defines
//! empty marker traits of the same names, so `use serde::{Deserialize,
//! Serialize}` plus `#[derive(Serialize, Deserialize)]` compile unchanged.
//! No serialization machinery exists; the workspace writes its
//! machine-readable artifacts (the `repro` CSV files and the tuning
//! store) by hand.

pub use serde_derive::{Deserialize, Serialize};

/// Marker trait mirroring `serde::Serialize` (no methods in the shim).
pub trait Serialize {}

/// Marker trait mirroring `serde::Deserialize` (no methods in the shim).
pub trait Deserialize<'de> {}
