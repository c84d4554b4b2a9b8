//! # kp-gpu-sim — a deterministic OpenCL-style GPU simulator
//!
//! This crate is the hardware substrate of the
//! [kernel-perforation](https://doi.org/10.1145/3168814) reproduction: a
//! software model of a GCN-class GPU with
//!
//! * an OpenCL execution model — NDRanges, work groups, work items,
//!   barriers (expressed as *phase kernels*, see [`Kernel`]),
//! * three memory spaces — **global** (buffers, high latency, transaction
//!   coalescing), **local** (per-group scratchpad, banked, low latency) and
//!   **private** (plain Rust locals in kernel code, free),
//! * an analytic timing model — per-phase roofline of memory vs.
//!   ALU+local cycles, wavefront-granular divergence, occupancy from
//!   local-memory usage (see [`crate::timing`]).
//!
//! Functional execution is exact and deterministic; only *time* is modeled.
//! This mirrors how the paper's numbers decompose: output **error** comes
//! from real data flowing through real kernels, while **speedup** comes
//! from the memory system (fewer coalesced transactions when loads are
//! perforated).
//!
//! ## Execution model: parallel but deterministic
//!
//! [`Device::launch`] runs work groups on a parallel engine while keeping
//! every observable result — output buffers, statistics, cycle counts,
//! fault logs — **bit-identical** across worker-thread counts, runs and
//! platforms. The mechanism:
//!
//! 1. Every group executes against a **read-only snapshot** of global
//!    memory taken at launch entry. Stores go into a per-group write log;
//!    loads consult that log first, so a group always observes *its own*
//!    earlier writes (intra-group read-after-write across phases and
//!    items works exactly as in serial execution).
//! 2. Groups are sharded over scoped worker threads in contiguous
//!    row-major chunks; each worker owns its local-memory arena, profiling
//!    trackers and fault log, so no state is shared between groups.
//! 3. After all groups finish, write logs are **replayed in row-major
//!    group order**, and statistics / cycles / faults are reduced in that
//!    same order — the exact order serial execution produces.
//!
//! The contract this relies on is OpenCL's own: work groups of one launch
//! must not communicate through global memory (there is no inter-group
//! ordering on real hardware either). Kernels honoring that contract get
//! identical results at any [`DeviceConfig::parallelism`] setting; the
//! pathological exception — a group reading what *another group* wrote in
//! the same launch — is only defined on the legacy reference path.
//!
//! [`Device::launch_serial`] keeps that legacy path alive: one group at a
//! time, writes applied before the next group starts. It is the
//! differential-testing reference (`tests/parallel_determinism.rs` asserts
//! bit-equality against it at several thread counts) and the fallback for
//! kernels that are not [`Sync`]. Setting `parallelism = 1` makes
//! [`Device::launch`] degenerate to the same semantics.
//!
//! Launch geometry (group/item coordinate lists, wavefront and coalescing
//! granule assignments) is precomputed once per [`NdRange`] and cached on
//! the device, so parameter sweeps re-launching the same shape skip that
//! setup entirely.
//!
//! ## Command queues: enqueue, overlap, stay deterministic
//!
//! The primary host API is OpenCL-style **command streams**:
//! [`Device::create_queue`] returns a [`Queue`] whose
//! `enqueue_launch` / `enqueue_read` / `enqueue_write` / `enqueue_copy`
//! methods append commands and return [`Event`]s immediately. Commands
//! declare wait-lists (events), the scheduler additionally infers buffer
//! read/write hazards from each kernel's declared
//! [`Kernel::buffer_usage`], and everything whose dependencies are
//! satisfied executes **eagerly, out of order and concurrently** on a
//! persistent per-device worker pool — commands start *before* the first
//! wait, so host code between enqueue and wait overlaps with the device,
//! and a free worker picks the first ready command in enqueue order.
//! Every observable result stays bit-identical to executing the stream
//! one command at a time in enqueue order. See the
//! [`queue`][Queue] docs for the pool lifecycle and the full determinism
//! argument, and [`Event::timing`] for per-command profiling timestamps.
//!
//! The blocking API remains as documented shims over the stream:
//! [`Device::launch`] ≡ enqueue + wait, [`Device::read_buffer`] ≡
//! `enqueue_read` + wait, and so on — each joins the pending stream
//! first, so mixing the two styles preserves enqueue-order semantics.
//!
//! ## Non-blocking completion: poll, callbacks, completion queues
//!
//! A serving loop with thousands of commands in flight never parks on
//! individual events. [`Event::poll`] is a non-parking readiness check
//! returning the settled outcome; [`Event::on_complete`] registers a
//! callback fired exactly once from the resolving worker with the device
//! lock released; and a [`CompletionQueue`] multiplexes any number of
//! events — across all devices of a [`DeviceGroup`] — into one drainable
//! ready-stream ([`CompletionQueue::drain`] / [`CompletionQueue::next`]).
//! Completion *order* follows the actual schedule and is not
//! deterministic, but every outcome, report and fault log observed
//! through these paths is bit-identical to blocking waits — the
//! `queue_graph` differential suite pins this at several worker counts.
//!
//! ## Multi-device: `DeviceGroup`
//!
//! [`DeviceGroup`] owns a fleet of N identically configured devices
//! behind one handle (fleet size: [`DeviceConfig::devices`], the
//! `KP_SIM_DEVICES` environment variable, or
//! [`DeviceGroup::with_devices`]). One large launch shards across the
//! members by contiguous row-major group ranges with bit-identical
//! outputs, reports and fault logs at any member count
//! ([`DeviceGroup::launch_sharded`]); independent commands go to the
//! least-loaded member ([`DeviceGroup::place`] /
//! [`DeviceGroup::launch_on`]); and group buffers keep one copy per
//! member with on-demand migration, counted and priced in
//! [`GroupStats`]. Events may cross devices in wait-lists — see
//! [`Queue`]'s "Cross-device waits" docs.
//!
//! ## Kernel execution: per item, or one wavefront at a time
//!
//! Hand-written Rust kernels are plain `run_phase` implementations and the
//! engine calls them item by item. Language-level kernels (the `kp-ir`
//! crate's PerfCL kernels) follow a **compile-optimize-execute** pipeline
//! instead: at kernel construction the checked AST is lowered once to a
//! flat register bytecode (resolved variable slots, pre-bound buffer
//! handles and builtins, jump-target control flow) and an optimizer pass
//! pipeline rewrites it (constant folding, CSE, dead-code/dead-phase
//! elimination). Such a kernel declares a lane-batched path
//! ([`Kernel::lane_batched`]), and the engine then drives
//! [`Kernel::run_phase_wave`] with a [`WaveCtx`] of
//! [`DeviceConfig::wavefront_size`] lanes: one host wave per simulated
//! wavefront, each bytecode instruction dispatched once for all of them.
//! Two knobs keep the slower strategies alive as differential
//! references, exactly like [`Device::launch_serial`] is for the
//! parallel engine: [`DeviceConfig::exec_mode`] selects the original
//! tree-walking evaluator, run item by item, and
//! [`DeviceConfig::opt_level`] ([`WaveCtx::opt_level`]) selects the
//! as-lowered, unoptimized bytecode. All strategies must produce
//! bit-identical outputs, statistics and fault logs, and the cross-crate
//! `vm_differential` suite asserts it.
//!
//! Stateful kernels keep their per-item execution state in
//! **engine-owned per-worker scratch** ([`KernelScratch`], reached via
//! [`ItemCtx::kernel_scratch`]) rather than behind their own locks: the
//! engine guarantees a worker runs all items of all phases of a group
//! before its next group and never shares scratch between workers, so
//! access is lock-free by construction at any worker count.
//!
//! ## Quick start
//!
//! ```
//! use kp_gpu_sim::{Device, DeviceConfig, ItemCtx, Kernel, NdRange, BufferId};
//!
//! struct Saxpy { x: BufferId, y: BufferId, a: f32 }
//!
//! impl Kernel for Saxpy {
//!     fn name(&self) -> &str { "saxpy" }
//!     fn run_phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>) {
//!         let i = ctx.global_id(0);
//!         let x: f32 = ctx.read_global(self.x, i);
//!         let y: f32 = ctx.read_global(self.y, i);
//!         ctx.write_global(self.y, i, self.a * x + y);
//!         ctx.ops(2);
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut dev = Device::new(DeviceConfig::firepro_w5100())?;
//! let x = dev.create_buffer_from("x", &[1.0f32; 1024])?;
//! let y = dev.create_buffer_from("y", &[2.0f32; 1024])?;
//! let report = dev.launch(&Saxpy { x, y, a: 3.0 }, NdRange::new_1d(1024, 64)?)?;
//! assert_eq!(dev.read_buffer::<f32>(y)?[0], 5.0);
//! assert!(report.stats.global_read_transactions > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod buffer;
mod completion;
mod config;
mod device;
mod engine;
mod error;
mod event;
mod group;
mod kernel;
mod ndrange;
mod queue;
mod stats;

pub mod coalesce;
pub mod local;
pub mod timing;

pub use buffer::{BufferId, ElemKind, Scalar};
pub use completion::{Completion, CompletionQueue};
pub use config::{DeviceConfig, ExecMode, OptLevel};
pub use device::Device;
pub use engine::{resolve_devices, resolve_parallelism};
pub use error::SimError;
pub use event::{Event, EventTiming};
pub use group::DeviceGroup;
pub use kernel::{Fault, FaultKind, ItemCtx, Kernel, KernelScratch, WaveCtx};
pub use local::{LocalId, LocalSpec};
pub use ndrange::{NdRange, NdRangeError};
pub use queue::{BufferUse, Queue};
pub use stats::{GroupStats, LaunchReport, LaunchStats, Occupancy, TimingBreakdown};
