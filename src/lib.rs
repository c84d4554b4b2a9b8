//! # kernel-perforation — local memory-aware kernel perforation in Rust
//!
//! A complete, self-contained reproduction of *"Local Memory-Aware Kernel
//! Perforation"* (Maier, Cosenza, Juurlink — CGO 2018,
//! [10.1145/3168814](https://doi.org/10.1145/3168814)): an approximate-
//! computing technique that accelerates GPU kernels by skipping part of
//! their global-memory loads and reconstructing the skipped data in fast
//! local memory.
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`gpu_sim`] | deterministic OpenCL-style GPU simulator (execution + timing model) |
//! | [`core`] | the paper's contribution: schemes, reconstruction, pipeline, tuner, Paraprox baseline |
//! | [`apps`] | the six evaluation applications (Gaussian, Median, Hotspot, Inversion, Sobel3/5) |
//! | [`data`] | synthetic input-data substrate (images, Hotspot grids, PGM I/O) |
//! | [`ir`] | PerfCL kernel language + the automatic perforation compiler pass |
//! | [`tune`] | persistent cross-run tuning cache + online SLA-driven scheme adaptation |
//!
//! Architecture notes live in `docs/ARCHITECTURE.md`; the PerfCL
//! bytecode instruction set is documented in `docs/BYTECODE.md`.
//!
//! ## End-to-end example
//!
//! The host API is an OpenCL-style command stream: commands are
//! *enqueued* on [`gpu_sim::Queue`]s, return [`gpu_sim::Event`]s, and
//! overlap wherever the event/hazard DAG allows — while results stay
//! bit-identical to in-order execution. Here the baseline and the
//! perforated variant are enqueued together (disjoint outputs, shared
//! read-only input, so they may run concurrently):
//!
//! ```
//! use kernel_perforation::core::{ApproxConfig, ImageBinding, PerforatedKernel,
//!     AccurateLocalKernel, ImageInput};
//! use kernel_perforation::gpu_sim::{Device, DeviceConfig, NdRange};
//! use kernel_perforation::{apps, data};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let entry = apps::by_name("gaussian").expect("registered");
//! let image = data::synth::photo_like(128, 128, 42);
//! let mut dev = Device::new(DeviceConfig::firepro_w5100())?;
//!
//! let input = dev.create_buffer_from("input", image.as_slice())?;
//! let bind = |output| ImageBinding {
//!     input, aux: None, output, tiled: None, width: 128, height: 128 };
//! let img_base = bind(dev.create_buffer::<f32>("baseline", 128 * 128)?);
//! let img_perf = bind(dev.create_buffer::<f32>("perforated", 128 * 128)?);
//!
//! let queue = dev.create_queue();
//! let range = NdRange::new_2d((128, 128), (16, 16))?;
//! let base = queue.enqueue_launch(
//!     AccurateLocalKernel::new(entry.app, img_base, (16, 16)), range, &[])?;
//! let perf = queue.enqueue_launch(
//!     PerforatedKernel::new(entry.app, img_perf, ApproxConfig::rows1_nn((16, 16)))?,
//!     range, &[])?;
//! let out_base = queue.enqueue_read::<f32>(img_base.output, std::slice::from_ref(&base))?;
//! let out_perf = queue.enqueue_read::<f32>(img_perf.output, std::slice::from_ref(&perf))?;
//!
//! let speedup = base.wait_report()?.seconds / perf.wait_report()?.seconds;
//! let error = entry.metric.evaluate(&out_base.wait_read()?, &out_perf.wait_read()?);
//! assert!(speedup > 1.3, "speedup {speedup}");
//! assert!(error < 0.10, "error {error}");
//! # Ok(())
//! # }
//! ```
//!
//! Prefer one-liners? The blocking shims are still there:
//! `core::run_app(&mut dev, entry.workload, &input, &spec)` is exactly
//! "enqueue + wait" (and `core::run_specs_batched` submits a whole sweep
//! as one overlappable stream):
//!
//! ```
//! use kernel_perforation::core::{run_app, ApproxConfig, ImageInput, RunSpec};
//! use kernel_perforation::gpu_sim::{Device, DeviceConfig};
//! use kernel_perforation::{apps, data};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let entry = apps::by_name("gaussian").expect("registered");
//! let image = data::synth::photo_like(64, 64, 42);
//! let input = ImageInput::new(image.as_slice(), 64, 64)?;
//! let mut dev = Device::new(DeviceConfig::firepro_w5100())?;
//! let perforated = run_app(&mut dev, entry.workload, &input,
//!     &RunSpec::Perforated(ApproxConfig::rows1_nn((16, 16))))?;
//! assert_eq!(perforated.output.len(), 64 * 64);
//! # Ok(())
//! # }
//! ```
//!
//! ## Compiled, optimized, and reference execution
//!
//! PerfCL kernels compile to register bytecode at construction and run
//! through an optimizer pass pipeline (constant folding, CSE, dead-code
//! and dead-phase elimination — see `docs/BYTECODE.md`). A lane-batched
//! VM executes the bytecode one simulated wavefront at a time. The
//! device's [`gpu_sim::ExecMode`] and [`gpu_sim::OptLevel`] knobs select
//! between the optimized bytecode (default), the as-lowered bytecode,
//! and the tree-walking evaluator; all three are bit-identical by
//! contract:
//!
//! ```
//! use kernel_perforation::gpu_sim::{Device, DeviceConfig, NdRange, OptLevel};
//! use kernel_perforation::ir::{ArgValue, IrKernel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "kernel scale(global const float* src, global float* dst, int w) {
//!                int x = get_global_id(0);
//!                dst[clamp(x, 0, w - 1)] = src[clamp(x, 0, w - 1)] * 2.0;
//!            }";
//!
//! let run = |opt: OptLevel| -> Result<Vec<f32>, Box<dyn std::error::Error>> {
//!     let mut cfg = DeviceConfig::test_tiny();
//!     cfg.opt_level = opt;
//!     let mut dev = Device::new(cfg)?;
//!     let a = dev.create_buffer_from("src", &[1.0f32, 2.0, 3.0, 4.0])?;
//!     let b = dev.create_buffer::<f32>("dst", 4)?;
//!     let kernel = IrKernel::from_source(src, &[
//!         ("src", ArgValue::Buffer(a)),
//!         ("dst", ArgValue::Buffer(b)),
//!         ("w", ArgValue::Int(4)),
//!     ])?;
//!     // The optimizer folded `w - 1` (a frozen parameter) and CSE'd the
//!     // repeated clamp: fewer instructions, identical results.
//!     assert!(kernel.optimized().len() < kernel.compiled().len());
//!     assert!(kernel.opt_stats().cse_reused >= 1);
//!     dev.launch(&kernel, NdRange::new_1d(4, 4)?)?;
//!     Ok(dev.read_buffer::<f32>(b)?)
//! };
//!
//! assert_eq!(run(OptLevel::Full)?, run(OptLevel::None)?);
//! assert_eq!(run(OptLevel::Full)?, vec![2.0, 4.0, 6.0, 8.0]);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub use kp_apps as apps;
pub use kp_core as core;
pub use kp_data as data;
pub use kp_gpu_sim as gpu_sim;
pub use kp_ir as ir;
pub use kp_tune as tune;
