//! # kp-ir — a kernel language with an automatic perforation pass
//!
//! The paper applied local memory-aware kernel perforation *manually* to
//! OpenCL kernels and names a "fully automatic compiler-based framework" as
//! future work (§7). This crate is that framework, scaled to a kernel
//! language small enough to own end to end:
//!
//! * **PerfCL** — an OpenCL C subset (scalars, global pointers, `local`
//!   arrays, barriers, the `get_*_id` builtins): [`lexer`], [`parser`],
//!   [`typeck`];
//! * an **interpreter** ([`IrKernel`]) that runs checked kernels on the
//!   [`kp_gpu_sim`] simulator with exact OpenCL barrier semantics — IR
//!   kernels and hand-written Rust kernels produce identical results *and*
//!   identical performance counters. Kernels compile once to a register
//!   [`bytecode`] at construction and run through the [`optimize`] pass
//!   pipeline (constant folding, CSE, dead-code/dead-phase elimination);
//!   a lane-batched VM then executes the bytecode one simulated wavefront
//!   at a time, each instruction dispatched once for all lanes. The tree
//!   walk (run item by item) and the unoptimized bytecode are retained as
//!   differential references selected by [`kp_gpu_sim::ExecMode`] and
//!   [`kp_gpu_sim::OptLevel`];
//! * a **stencil analysis** ([`analysis`]) that recognizes the canonical
//!   2D image-kernel shape and infers the input buffer, window and halo;
//! * the **perforation pass** ([`transform::perforate_kernel`]) that
//!   rewrites an accurate kernel into the paper's three-phase perforated
//!   pipeline (sparse cooperative load → local-memory reconstruction →
//!   original body over the tile).
//!
//! ```
//! use kp_ir::{parser::parse, pretty, transform::{perforate_kernel, IrRecon, IrScheme, PassConfig}};
//!
//! let prog = parse(
//!     "kernel invert(global const float* in, global float* out, int w, int h) {
//!          int x = get_global_id(0);
//!          int y = get_global_id(1);
//!          if (x >= w || y >= h) { return; }
//!          out[y * w + x] = 1.0 - in[y * w + x];
//!      }")?;
//! let perforated = perforate_kernel(&prog.kernels[0], &PassConfig {
//!     scheme: IrScheme::RowsHalf,
//!     reconstruction: IrRecon::NearestNeighbor,
//!     tile_w: 16,
//!     tile_h: 16,
//! })?;
//! let source = pretty::print_kernel(&perforated);
//! assert!(source.contains("local float __tile"));
//! assert!(source.contains("barrier();"));
//! # Ok::<(), kp_ir::IrError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod ast;
pub mod builtins;
pub mod bytecode;
mod compile;
mod error;
mod interp;
pub mod lexer;
pub mod optimize;
pub mod parser;
pub mod pretty;
pub mod token;
pub mod transform;
pub mod typeck;
mod vector;

pub use error::IrError;
pub use interp::{ArgValue, IrKernel, Value};
