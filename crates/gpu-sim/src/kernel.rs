//! The kernel programming model: phase kernels and the work-item context.
//!
//! OpenCL kernels synchronize work groups with `barrier(CLK_LOCAL_MEM_FENCE)`.
//! An interpreter cannot suspend a work item mid-function without coroutines,
//! so the simulator uses the *phase kernel* model: a kernel declares how many
//! barrier-separated phases it has, and the scheduler runs phase `p` for
//! every work item of a group before advancing to phase `p + 1`. This is
//! exactly the structure of the paper's perforation pipeline:
//!
//! * phase 0 — data perforation: cooperative (sparse) load into local memory,
//! * phase 1 — data reconstruction in local memory,
//! * phase 2 — original kernel body reading from local memory.

use std::any::Any;

use crate::buffer::{BufferId, ElemKind, Scalar};
use crate::coalesce::{CoalesceTracker, Dir};
use crate::config::DeviceConfig;
use crate::engine::WriteLog;
use crate::local::{BankTracker, LocalArena, LocalId, LocalSpec};
use crate::ndrange::NdRange;

/// A simulated GPU kernel.
///
/// Implementations hold their buffer handles as struct fields (there is no
/// positional argument binding). `run_phase` is called once per work item
/// per phase, in deterministic row-major order; kernels that declare a
/// lane-batched path are driven one wavefront at a time instead (see
/// [`Kernel::lane_batched`]).
///
/// # Examples
///
/// ```
/// use kp_gpu_sim::{Device, DeviceConfig, ItemCtx, Kernel, NdRange, BufferId};
///
/// struct Scale { src: BufferId, dst: BufferId, factor: f32 }
///
/// impl Kernel for Scale {
///     fn name(&self) -> &str { "scale" }
///     fn run_phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>) {
///         let i = ctx.global_id(0);
///         let v: f32 = ctx.read_global(self.src, i);
///         ctx.write_global(self.dst, i, v * self.factor);
///         ctx.ops(1);
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut dev = Device::new(DeviceConfig::test_tiny())?;
/// let src = dev.create_buffer_from("src", &[1.0f32, 2.0, 3.0, 4.0])?;
/// let dst = dev.create_buffer::<f32>("dst", 4)?;
/// let kernel = Scale { src, dst, factor: 2.0 };
/// dev.launch(&kernel, NdRange::new_1d(4, 4)?)?;
/// assert_eq!(dev.read_buffer::<f32>(dst)?, vec![2.0, 4.0, 6.0, 8.0]);
/// # Ok(())
/// # }
/// ```
pub trait Kernel {
    /// Kernel name, used in reports and fault messages.
    fn name(&self) -> &str;

    /// Number of barrier-separated phases (≥ 1). Defaults to 1.
    fn phases(&self) -> usize {
        1
    }

    /// Local-memory arrays required per work group. Defaults to none.
    fn local_buffers(&self) -> Vec<LocalSpec> {
        Vec::new()
    }

    /// The global buffers this kernel may touch, split into read and write
    /// sets — the command-queue scheduler's hazard-inference input (see
    /// [`crate::Queue`]).
    ///
    /// `None` (the default) means "unknown": an enqueued launch is then
    /// ordered after *every* earlier command and before every later one,
    /// which is always correct but never overlaps. Kernels that declare
    /// their usage can overlap with commands touching disjoint buffers;
    /// in exchange, the declaration is **enforced** on every launch path
    /// — queued, blocking, serial, sharded and placed — so an access to
    /// an undeclared buffer faults deterministically
    /// ([`FaultKind::UndeclaredBuffer`]) instead of reading
    /// schedule-dependent data or a stale copy on another group member.
    /// Reading a buffer that is only in the write set is allowed (its
    /// pre-launch contents are hazard-ordered too).
    fn buffer_usage(&self) -> Option<crate::queue::BufferUse> {
        None
    }

    /// Executes one phase for one work item.
    fn run_phase(&self, phase: usize, ctx: &mut ItemCtx<'_>);

    /// Whether this kernel has a lane-batched path
    /// ([`Kernel::run_phase_wave`]). Defaults to `false`: the engine then
    /// runs the kernel item by item through [`Kernel::run_phase`] and
    /// never pays for per-lane context bookkeeping.
    ///
    /// Kernels that return `true` (the `kp-ir` bytecode VM) are driven
    /// through `run_phase_wave` under [`crate::ExecMode::Compiled`] and
    /// through `run_phase` under [`crate::ExecMode::Interpreted`], so
    /// both methods must implement the same semantics.
    fn lane_batched(&self) -> bool {
        false
    }

    /// Executes one phase for a lockstep wave of work items: one simulated
    /// wavefront of the group ([`crate::DeviceConfig::wavefront_size`]
    /// lanes, fewer in a tail wave).
    ///
    /// The engine calls this instead of [`Kernel::run_phase`] only for
    /// kernels that declare [`Kernel::lane_batched`]. The default
    /// implementation runs each lane through `run_phase` one at a time —
    /// always correct, no faster. Kernels with a genuinely lane-batched
    /// path override it and dispatch each instruction once for the whole
    /// wave.
    fn run_phase_wave(&self, phase: usize, wave: &mut WaveCtx<'_>) {
        for lane in 0..wave.lanes() {
            wave.with_lane(lane, |ctx| self.run_phase(phase, ctx));
        }
    }
}

/// Forwarding impl so shared kernels (`Arc<K>`, `Arc<dyn Kernel + ..>`)
/// can be enqueued while the caller keeps a handle for post-run
/// inspection (e.g. `IrKernel::opt_stats`).
impl<K: Kernel + ?Sized> Kernel for std::sync::Arc<K> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn phases(&self) -> usize {
        (**self).phases()
    }

    fn local_buffers(&self) -> Vec<LocalSpec> {
        (**self).local_buffers()
    }

    fn buffer_usage(&self) -> Option<crate::queue::BufferUse> {
        (**self).buffer_usage()
    }

    fn run_phase(&self, phase: usize, ctx: &mut ItemCtx<'_>) {
        (**self).run_phase(phase, ctx);
    }

    fn lane_batched(&self) -> bool {
        (**self).lane_batched()
    }

    fn run_phase_wave(&self, phase: usize, wave: &mut WaveCtx<'_>) {
        (**self).run_phase_wave(phase, wave);
    }
}

/// Per-launch access-control mask compiled from a kernel's declared
/// [`Kernel::buffer_usage`]: which buffer slots the launch may read and
/// write. Enforced on every launch path — it is what lets the scheduler
/// prove that overlapping two launches cannot change their results, and
/// a device group prove that migrating only the declared buffers is
/// enough.
#[derive(Debug, Clone)]
pub(crate) struct AccessMask {
    read_ok: Vec<bool>,
    write_ok: Vec<bool>,
}

impl AccessMask {
    /// Builds the mask over `nbufs` slots. Reads are allowed on the read
    /// *and* write sets (a declared output's pre-launch contents are
    /// hazard-ordered, so reading them back is deterministic); writes only
    /// on the write set.
    pub fn new(nbufs: usize, reads: &[usize], writes: &[usize]) -> Self {
        let mut read_ok = vec![false; nbufs];
        let mut write_ok = vec![false; nbufs];
        for &s in reads {
            if let Some(r) = read_ok.get_mut(s) {
                *r = true;
            }
        }
        for &s in writes {
            if let Some(w) = write_ok.get_mut(s) {
                *w = true;
            }
            if let Some(r) = read_ok.get_mut(s) {
                *r = true;
            }
        }
        Self { read_ok, write_ok }
    }

    fn allows(&self, slot: usize, dir: Dir) -> bool {
        let table = match dir {
            Dir::Read => &self.read_ok,
            Dir::Write => &self.write_ok,
        };
        table.get(slot).copied().unwrap_or(false)
    }
}

/// What went wrong inside a kernel. Faulting accesses return
/// `Default::default()` so execution can continue and collect more faults.
///
/// Marked `#[non_exhaustive]`: new fault categories may be added without a
/// breaking change. External code should match with a wildcard arm or key
/// on [`FaultKind::label`] instead of enumerating every variant.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// Access to a buffer handle this device never created (or released).
    UnknownBuffer {
        /// The offending handle.
        buffer: BufferId,
    },
    /// Element type of the access does not match the buffer.
    BufferKindMismatch {
        /// The offending handle.
        buffer: BufferId,
        /// Kind the kernel asked for.
        expected: ElemKind,
        /// Kind the buffer actually holds.
        actual: ElemKind,
    },
    /// Out-of-bounds global access.
    GlobalOutOfBounds {
        /// The offending handle.
        buffer: BufferId,
        /// Index the kernel accessed.
        index: usize,
        /// Length of the buffer.
        len: usize,
    },
    /// Access to an undeclared local array.
    UnknownLocal {
        /// The offending handle.
        local: LocalId,
    },
    /// Element type of the access does not match the local array.
    LocalKindMismatch {
        /// The offending handle.
        local: LocalId,
        /// Kind the kernel asked for.
        expected: ElemKind,
        /// Kind the array actually holds.
        actual: ElemKind,
    },
    /// Out-of-bounds local access.
    LocalOutOfBounds {
        /// The offending handle.
        local: LocalId,
        /// Index the kernel accessed.
        index: usize,
        /// Length of the array.
        len: usize,
    },
    /// A queued launch accessed a buffer outside its declared
    /// [`Kernel::buffer_usage`]. Raised instead of returning
    /// schedule-dependent data, so declared launches stay bit-identical to
    /// in-order execution no matter how the scheduler overlaps them.
    UndeclaredBuffer {
        /// The offending handle.
        buffer: BufferId,
        /// Whether the access was a write (`true`) or a read (`false`).
        write: bool,
    },
}

impl FaultKind {
    /// Stable short name of the fault category, for logs and counters.
    ///
    /// Downstream code that only needs to bucket faults should use this
    /// instead of matching the `#[non_exhaustive]` enum exhaustively.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::UnknownBuffer { .. } => "unknown-buffer",
            FaultKind::BufferKindMismatch { .. } => "buffer-kind-mismatch",
            FaultKind::GlobalOutOfBounds { .. } => "global-out-of-bounds",
            FaultKind::UnknownLocal { .. } => "unknown-local",
            FaultKind::LocalKindMismatch { .. } => "local-kind-mismatch",
            FaultKind::LocalOutOfBounds { .. } => "local-out-of-bounds",
            FaultKind::UndeclaredBuffer { .. } => "undeclared-buffer",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::UnknownBuffer { buffer } => write!(f, "unknown buffer {buffer}"),
            FaultKind::BufferKindMismatch {
                buffer,
                expected,
                actual,
            } => write!(
                f,
                "buffer {buffer} holds {actual} elements but was accessed as {expected}"
            ),
            FaultKind::GlobalOutOfBounds { buffer, index, len } => {
                write!(
                    f,
                    "global access to {buffer}[{index}] out of bounds (len {len})"
                )
            }
            FaultKind::UnknownLocal { local } => {
                write!(f, "unknown local array #{}", local.0)
            }
            FaultKind::LocalKindMismatch {
                local,
                expected,
                actual,
            } => write!(
                f,
                "local array #{} holds {actual} elements but was accessed as {expected}",
                local.0
            ),
            FaultKind::LocalOutOfBounds { local, index, len } => write!(
                f,
                "local access to #{}[{index}] out of bounds (len {len})",
                local.0
            ),
            FaultKind::UndeclaredBuffer { buffer, write } => write!(
                f,
                "{} of {buffer} outside the launch's declared buffer usage",
                if *write { "write" } else { "read" }
            ),
        }
    }
}

/// A fault with the coordinates of the offending work item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// The fault category and parameters.
    pub kind: FaultKind,
    /// Work-group coordinate.
    pub group: [usize; 3],
    /// Local work-item coordinate within the group.
    pub local: [usize; 3],
    /// Phase in which the fault occurred.
    pub phase: usize,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (group {:?}, item {:?}, phase {})",
            self.kind, self.group, self.local, self.phase
        )
    }
}

/// Bounded log of kernel faults for one launch.
#[derive(Debug, Default)]
pub(crate) struct FaultLog {
    pub faults: Vec<Fault>,
    pub total: usize,
}

impl FaultLog {
    const LIMIT: usize = 16;

    pub fn push(&mut self, fault: Fault) {
        self.total += 1;
        if self.faults.len() < Self::LIMIT {
            self.faults.push(fault);
        }
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Folds another log into this one, preserving the storage cap. Called
    /// in row-major group order, this reproduces exactly the log a serial
    /// execution would have built.
    pub fn merge(&mut self, other: FaultLog) {
        self.total += other.total;
        for fault in other.faults {
            if self.faults.len() < Self::LIMIT {
                self.faults.push(fault);
            }
        }
    }
}

/// Engine-owned, type-erased per-worker scratch storage for stateful
/// kernels.
///
/// Kernels that carry per-item state across phases (the `kp-ir`
/// interpreter's register files and variable maps, for example) used to
/// keep that state behind a `Mutex` inside the kernel itself, which
/// serialized every work item of every worker on one lock. Instead, the
/// launch engine now owns one `KernelScratch` per worker thread, handed to
/// the kernel through [`ItemCtx::kernel_scratch`]: the kernel stores
/// whatever state type it needs with [`KernelScratch::get_or_default`] and
/// the engine guarantees the **sequential-group contract** — one worker
/// executes all items of all phases of a group before starting its next
/// group, and no two workers ever share a scratch — so access is lock-free
/// by construction.
///
/// The scratch persists across the groups (and launches) a worker
/// executes; kernels must re-initialize whatever is per-group at
/// `(phase 0, item)` time rather than assume a fresh value. Stateless
/// hand-written kernels simply never touch it.
#[derive(Default)]
pub struct KernelScratch(Option<Box<dyn Any + Send>>);

impl KernelScratch {
    /// Returns the stored `T`, creating it via `Default` if the scratch is
    /// empty or currently holds a different type (e.g. after the worker
    /// ran a different kernel).
    pub fn get_or_default<T: Any + Send + Default>(&mut self) -> &mut T {
        if !matches!(&self.0, Some(b) if b.is::<T>()) {
            self.0 = Some(Box::<T>::default());
        }
        self.0
            .as_mut()
            .and_then(|b| b.downcast_mut::<T>())
            .expect("slot was just ensured to hold a T")
    }
}

impl std::fmt::Debug for KernelScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("KernelScratch")
            .field(&self.0.as_ref().map(|_| "..."))
            .finish()
    }
}

/// Per-phase profiling accumulators (only allocated when profiling is on).
#[derive(Debug)]
pub(crate) struct PhaseProfile {
    pub coalesce: CoalesceTracker,
    pub banks: BankTracker,
    /// Per-wavefront maximum of per-lane op counts in the current phase.
    pub wf_max_ops: Vec<u64>,
    /// Elements shifted in from a neighbor group's tile this phase
    /// ([`ItemCtx::read_shifted`]); priced on the local/exchange pipeline
    /// instead of producing coalesce traffic.
    pub shifted_elements: u64,
}

impl PhaseProfile {
    pub fn new(waves_per_group: usize) -> Self {
        Self {
            coalesce: CoalesceTracker::new(),
            banks: BankTracker::new(),
            wf_max_ops: vec![0; waves_per_group],
            shifted_elements: 0,
        }
    }

    pub fn reset_phase(&mut self) {
        self.wf_max_ops.iter_mut().for_each(|v| *v = 0);
        self.shifted_elements = 0;
    }
}

/// Execution context handed to a kernel for one work item in one phase.
///
/// All accessors are infallible from the kernel's perspective: invalid
/// accesses are recorded as [`Fault`]s (surfaced as an error when the launch
/// finishes) and reads return `Default::default()`.
///
/// Global memory is a read-only snapshot plus the owning group's write
/// log: stores go to the log, loads consult the log first (so a group
/// always observes its own earlier writes) and fall back to the snapshot.
/// This is what makes work groups executable in parallel without changing
/// any result — see the crate-level "Execution model" documentation.
pub struct ItemCtx<'a> {
    pub(crate) range: &'a NdRange,
    pub(crate) cfg: &'a DeviceConfig,
    pub(crate) group: [usize; 3],
    pub(crate) local: [usize; 3],
    pub(crate) phase: usize,
    pub(crate) wavefront: u32,
    /// Memory coalescing granule id (quarter-wavefront on GCN-class
    /// configurations).
    pub(crate) granule: u32,
    pub(crate) bufs: &'a crate::engine::BufTable,
    /// Declared-usage mask of a queued launch, if any (see [`AccessMask`]).
    pub(crate) access: Option<&'a AccessMask>,
    pub(crate) writes: &'a mut WriteLog,
    pub(crate) arena: &'a mut LocalArena,
    pub(crate) profile: Option<&'a mut PhaseProfile>,
    pub(crate) faults: &'a mut FaultLog,
    pub(crate) scratch: &'a mut KernelScratch,
    pub(crate) local_seq: u32,
    pub(crate) global_seq: u32,
    pub(crate) item_ops: u64,
}

impl std::fmt::Debug for ItemCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ItemCtx")
            .field("group", &self.group)
            .field("local", &self.local)
            .field("phase", &self.phase)
            .field("wavefront", &self.wavefront)
            .finish_non_exhaustive()
    }
}

impl<'a> ItemCtx<'a> {
    /// Global work-item id in dimension `d` (OpenCL `get_global_id`).
    pub fn global_id(&self, d: usize) -> usize {
        self.group.get(d).copied().unwrap_or(0) * self.range.local_size(d)
            + self.local.get(d).copied().unwrap_or(0)
    }

    /// Local work-item id in dimension `d` (OpenCL `get_local_id`).
    pub fn local_id(&self, d: usize) -> usize {
        self.local.get(d).copied().unwrap_or(0)
    }

    /// Work-group id in dimension `d` (OpenCL `get_group_id`).
    pub fn group_id(&self, d: usize) -> usize {
        self.group.get(d).copied().unwrap_or(0)
    }

    /// Global size in dimension `d` (OpenCL `get_global_size`).
    pub fn global_size(&self, d: usize) -> usize {
        self.range.global_size(d)
    }

    /// Local (work-group) size in dimension `d` (OpenCL `get_local_size`).
    pub fn local_size(&self, d: usize) -> usize {
        self.range.local_size(d)
    }

    /// Number of work groups in dimension `d` (OpenCL `get_num_groups`).
    pub fn num_groups(&self, d: usize) -> usize {
        self.range.num_groups(d)
    }

    /// Flat index of this work item within its group (dimension 0 fastest).
    pub fn flat_local_id(&self) -> usize {
        self.range.flatten_local(self.local)
    }

    /// Total number of work items in the group.
    pub fn group_size(&self) -> usize {
        self.range.group_size_total()
    }

    /// The current phase index.
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// The engine-owned per-worker scratch store (see [`KernelScratch`]).
    ///
    /// The returned storage is private to the worker executing this item
    /// and persists across the items, phases, groups and launches that
    /// worker runs — reset whatever is per-group at `(phase 0, item)`
    /// time.
    pub fn kernel_scratch(&mut self) -> &mut KernelScratch {
        self.scratch
    }

    fn fault(&mut self, kind: FaultKind) {
        self.faults.push(Fault {
            kind,
            group: self.group,
            local: self.local,
            phase: self.phase,
        });
    }

    /// Reads one element from a global buffer.
    ///
    /// Faults (recorded, returns default): unknown buffer, element-kind
    /// mismatch, out-of-bounds index.
    pub fn read_global<T: Scalar>(&mut self, buffer: BufferId, index: usize) -> T {
        match self.global_access(buffer, index, T::KIND, Dir::Read, false) {
            Some(slot) => T::from_bits64(slot),
            None => T::default(),
        }
    }

    /// Reads one element from a global buffer as a **systolic shift** from
    /// a neighboring work group's resident tile.
    ///
    /// The returned value is exactly what [`ItemCtx::read_global`] would
    /// return (same snapshot-plus-write-log semantics, same fault rules) —
    /// the neighbor's tile holds the same global data, so shifting is
    /// bit-identical to re-fetching by construction. Only the accounting
    /// differs: the access contributes **no** global-memory transactions
    /// and is instead counted as one shifted element, priced at
    /// [`DeviceConfig::shift_issue_cycles`] on the local/exchange pipeline.
    ///
    /// Callers are responsible for only shifting elements a neighboring
    /// group actually holds (the perforation schemes guarantee this by
    /// keying load decisions on global coordinates).
    pub fn read_shifted<T: Scalar>(&mut self, buffer: BufferId, index: usize) -> T {
        match self.global_access(buffer, index, T::KIND, Dir::Read, true) {
            Some(slot) => T::from_bits64(slot),
            None => T::default(),
        }
    }

    /// Writes one element to a global buffer. Faults as
    /// [`ItemCtx::read_global`].
    pub fn write_global<T: Scalar>(&mut self, buffer: BufferId, index: usize, value: T) {
        let bits = value.to_bits64();
        if let Some(slot) = self.check_global(buffer, index, T::KIND, Dir::Write, false) {
            self.writes.record(slot, index, bits);
        }
    }

    fn global_access(
        &mut self,
        buffer: BufferId,
        index: usize,
        kind: ElemKind,
        dir: Dir,
        shifted: bool,
    ) -> Option<u64> {
        let slot = self.check_global(buffer, index, kind, dir, shifted)?;
        // The group's own stores shadow the launch-entry snapshot.
        Some(match self.writes.lookup(slot, index) {
            Some(bits) => bits,
            None => self.bufs[slot].as_ref().expect("checked").data[index],
        })
    }

    /// Validates the access, records it for profiling (as coalesce traffic,
    /// or as one shifted element when `shifted`), and returns the buffer
    /// slot index if valid.
    fn check_global(
        &mut self,
        buffer: BufferId,
        index: usize,
        kind: ElemKind,
        dir: Dir,
        shifted: bool,
    ) -> Option<usize> {
        let slot = buffer.index();
        if let Some(mask) = self.access {
            if !mask.allows(slot, dir) {
                self.fault(FaultKind::UndeclaredBuffer {
                    buffer,
                    write: matches!(dir, Dir::Write),
                });
                return None;
            }
        }
        let raw = match self.bufs.get(slot).and_then(Option::as_ref) {
            Some(raw) => raw,
            None => {
                self.fault(FaultKind::UnknownBuffer { buffer });
                return None;
            }
        };
        if raw.kind != kind {
            let actual = raw.kind;
            self.fault(FaultKind::BufferKindMismatch {
                buffer,
                expected: kind,
                actual,
            });
            return None;
        }
        if index >= raw.len() {
            let len = raw.len();
            self.fault(FaultKind::GlobalOutOfBounds { buffer, index, len });
            return None;
        }
        if shifted {
            // A neighbor-tile shift: no coalesce traffic, no instruction
            // slot on the global pipeline — one element on the exchange
            // pipeline.
            if let Some(p) = self.profile.as_deref_mut() {
                p.shifted_elements += 1;
            }
            return Some(slot);
        }
        let addr = raw.elem_addr(index);
        let bytes = raw.kind.bytes() as u32;
        let (granule, txn) = (self.granule, self.cfg.transaction_bytes as u64);
        let seq = self.global_seq;
        self.global_seq += 1;
        if let Some(p) = self.profile.as_deref_mut() {
            p.coalesce.record(granule, seq, dir, addr, bytes, txn);
        }
        Some(slot)
    }

    /// Reads one element from a local array.
    ///
    /// Faults (recorded, returns default): undeclared array, element-kind
    /// mismatch, out-of-bounds index.
    pub fn read_local<T: Scalar>(&mut self, local: LocalId, index: usize) -> T {
        if !self.check_local(local, index, T::KIND) {
            return T::default();
        }
        self.record_local(local, index);
        T::from_bits64(self.arena.read(local, index).expect("checked"))
    }

    /// Writes one element to a local array. Faults as
    /// [`ItemCtx::read_local`].
    pub fn write_local<T: Scalar>(&mut self, local: LocalId, index: usize, value: T) {
        if !self.check_local(local, index, T::KIND) {
            return;
        }
        self.record_local(local, index);
        self.arena
            .write(local, index, value.to_bits64())
            .expect("checked");
    }

    fn check_local(&mut self, local: LocalId, index: usize, kind: ElemKind) -> bool {
        let spec = match self.arena.spec(local) {
            Some(spec) => spec,
            None => {
                self.fault(FaultKind::UnknownLocal { local });
                return false;
            }
        };
        if spec.kind != kind {
            self.fault(FaultKind::LocalKindMismatch {
                local,
                expected: kind,
                actual: spec.kind,
            });
            return false;
        }
        if index >= spec.len {
            self.fault(FaultKind::LocalOutOfBounds {
                local,
                index,
                len: spec.len,
            });
            return false;
        }
        true
    }

    fn record_local(&mut self, local: LocalId, index: usize) {
        let word = self.arena.word_addr(local, index);
        let seq = self.local_seq;
        self.local_seq += 1;
        let (wf, banks) = (self.wavefront, self.cfg.local_banks as u64);
        if let Some(p) = self.profile.as_deref_mut() {
            p.banks.record(wf, seq, word, banks);
        }
    }

    /// Reports `n` ALU operations executed by this work item. The timing
    /// model charges each wavefront the maximum op count among its lanes
    /// (SIMD lockstep), so divergent lanes slow their whole wavefront.
    pub fn ops(&mut self, n: u64) {
        self.item_ops += n;
    }
}

/// Per-lane state of a [`WaveCtx`]: the slice of an [`ItemCtx`] that is
/// private to one work item of a wavefront batch.
#[derive(Debug, Default)]
pub(crate) struct LaneSlot {
    /// Local work-item coordinate of this lane.
    pub local: [usize; 3],
    /// Hardware wavefront id (timing model), not the batch id.
    pub wavefront: u32,
    /// Memory coalescing granule id.
    pub granule: u32,
    pub local_seq: u32,
    pub global_seq: u32,
    pub item_ops: u64,
    /// Per-lane fault buffer; the engine merges these into the group log
    /// in lane order at the end of each wave's phase, reproducing exactly
    /// the item order the item loop records.
    pub faults: FaultLog,
}

/// Execution context handed to a kernel for one lockstep wave of work
/// items — one simulated wavefront — in one phase (see
/// [`Kernel::run_phase_wave`]).
///
/// A wave bundles the state shared by its lanes (group coordinates, buffer
/// table, write log, local arena, profiling accumulators) plus one
/// `LaneSlot` per lane holding what is private to a work item: local
/// coordinates, profiling sequence counters, op charges and a fault
/// buffer. Lane-batched kernels dispatch each instruction once for the
/// whole wave and drop down to [`WaveCtx::with_lane`], which materializes
/// a full per-item [`ItemCtx`] for one lane, only for memory traffic and
/// builtins.
pub struct WaveCtx<'a> {
    pub(crate) range: &'a NdRange,
    pub(crate) cfg: &'a DeviceConfig,
    pub(crate) group: [usize; 3],
    pub(crate) phase: usize,
    pub(crate) bufs: &'a crate::engine::BufTable,
    pub(crate) access: Option<&'a AccessMask>,
    pub(crate) writes: &'a mut WriteLog,
    pub(crate) arena: &'a mut LocalArena,
    pub(crate) profile: Option<&'a mut PhaseProfile>,
    pub(crate) scratch: &'a mut KernelScratch,
    pub(crate) slots: &'a mut [LaneSlot],
    /// Flat local id of lane 0; lane `j` is flat item `base_flat + j`.
    pub(crate) base_flat: usize,
}

impl std::fmt::Debug for WaveCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaveCtx")
            .field("group", &self.group)
            .field("phase", &self.phase)
            .field("base_flat", &self.base_flat)
            .field("lanes", &self.slots.len())
            .finish_non_exhaustive()
    }
}

impl<'a> WaveCtx<'a> {
    /// Number of lanes in this wave. The last wave of a group may be a
    /// shorter *tail* wave when the group size is not a multiple of the
    /// device's wavefront size.
    pub fn lanes(&self) -> usize {
        self.slots.len()
    }

    /// The current phase index.
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// Flat local id (within the group) of lane 0; lane `j` of this wave
    /// is the work item with flat local id `first_flat_id() + j`.
    pub fn first_flat_id(&self) -> usize {
        self.base_flat
    }

    /// Work-group id in dimension `d` (OpenCL `get_group_id`).
    pub fn group_id(&self, d: usize) -> usize {
        self.group.get(d).copied().unwrap_or(0)
    }

    /// Total number of work items in the group.
    pub fn group_size(&self) -> usize {
        self.range.group_size_total()
    }

    /// The device's bytecode optimization level (see [`crate::OptLevel`]).
    pub fn opt_level(&self) -> crate::OptLevel {
        self.cfg.opt_level
    }

    /// The engine-owned per-worker scratch store (see [`KernelScratch`]).
    /// Shared by all lanes — one wave is always executed by one worker.
    pub fn kernel_scratch(&mut self) -> &mut KernelScratch {
        self.scratch
    }

    /// Charges `n` ALU operations to one lane without materializing an
    /// [`ItemCtx`] (equivalent to [`ItemCtx::ops`] on that lane).
    pub fn lane_ops(&mut self, lane: usize, n: u64) {
        self.slots[lane].item_ops += n;
    }

    /// Runs `f` with a full per-item [`ItemCtx`] for one lane, then folds
    /// the context's counters back into the lane's slot. This is how
    /// non-lockstep work (memory accesses, builtins, the default per-lane
    /// [`Kernel::run_phase_wave`]) executes inside a wave: the
    /// materialized context is indistinguishable from the one the item
    /// loop would have built for the same item at the same point.
    pub fn with_lane<R>(&mut self, lane: usize, f: impl FnOnce(&mut ItemCtx<'_>) -> R) -> R {
        let slot = &mut self.slots[lane];
        let mut ctx = ItemCtx {
            range: self.range,
            cfg: self.cfg,
            group: self.group,
            local: slot.local,
            phase: self.phase,
            wavefront: slot.wavefront,
            granule: slot.granule,
            bufs: self.bufs,
            access: self.access,
            writes: &mut *self.writes,
            arena: &mut *self.arena,
            profile: self.profile.as_deref_mut(),
            faults: &mut slot.faults,
            scratch: &mut *self.scratch,
            local_seq: slot.local_seq,
            global_seq: slot.global_seq,
            item_ops: slot.item_ops,
        };
        let out = f(&mut ctx);
        let (local_seq, global_seq, item_ops) = (ctx.local_seq, ctx.global_seq, ctx.item_ops);
        slot.local_seq = local_seq;
        slot.global_seq = global_seq;
        slot.item_ops = item_ops;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_log_caps_stored_faults() {
        let mut log = FaultLog::default();
        for i in 0..100 {
            log.push(Fault {
                kind: FaultKind::GlobalOutOfBounds {
                    buffer: BufferId(0),
                    index: i,
                    len: 1,
                },
                group: [0; 3],
                local: [0; 3],
                phase: 0,
            });
        }
        assert_eq!(log.total, 100);
        assert_eq!(log.faults.len(), 16);
        assert!(!log.is_empty());
    }

    #[test]
    fn kernel_scratch_roundtrips_and_resets_on_type_change() {
        let mut scratch = KernelScratch::default();
        *scratch.get_or_default::<u32>() = 7;
        assert_eq!(*scratch.get_or_default::<u32>(), 7);
        // Asking for a different type replaces the stored value…
        assert_eq!(*scratch.get_or_default::<String>(), String::new());
        // …and the original type starts over from Default.
        assert_eq!(*scratch.get_or_default::<u32>(), 0);
        assert!(!format!("{scratch:?}").is_empty());
    }

    #[test]
    fn fault_display_is_informative() {
        let f = Fault {
            kind: FaultKind::GlobalOutOfBounds {
                buffer: BufferId(2),
                index: 9,
                len: 4,
            },
            group: [1, 0, 0],
            local: [3, 0, 0],
            phase: 1,
        };
        let s = f.to_string();
        assert!(s.contains("buf#2"), "{s}");
        assert!(s.contains("out of bounds"), "{s}");
        assert!(s.contains("phase 1"), "{s}");
    }

    #[test]
    fn fault_kind_display_variants() {
        let cases: Vec<FaultKind> = vec![
            FaultKind::UnknownBuffer {
                buffer: BufferId(0),
            },
            FaultKind::BufferKindMismatch {
                buffer: BufferId(0),
                expected: ElemKind::F32,
                actual: ElemKind::I32,
            },
            FaultKind::UnknownLocal { local: LocalId(3) },
            FaultKind::LocalKindMismatch {
                local: LocalId(1),
                expected: ElemKind::I32,
                actual: ElemKind::F32,
            },
            FaultKind::LocalOutOfBounds {
                local: LocalId(0),
                index: 8,
                len: 8,
            },
            FaultKind::UndeclaredBuffer {
                buffer: BufferId(1),
                write: true,
            },
        ];
        for kind in cases {
            assert!(!kind.to_string().is_empty());
        }
    }
}
