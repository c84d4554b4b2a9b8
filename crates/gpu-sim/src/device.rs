//! The simulated device: buffer lifecycle, command queues and the
//! blocking launch shims.
//!
//! The execution machinery lives in [`crate::engine`]; command scheduling
//! lives in [`crate::queue`]. This module owns the shared device state
//! (buffer table, configuration, command stream) and exposes:
//!
//! * [`Device::create_queue`] — the asynchronous command-stream API
//!   ([`crate::Queue`] / [`crate::Event`]), the primary interface;
//! * [`Device::launch`] / [`Device::launch_serial`] — thin blocking shims,
//!   semantically `enqueue_launch` + wait, kept for the many call sites
//!   that run one kernel at a time (and, for `launch_serial`, for kernels
//!   that are not [`Sync`]);
//! * blocking buffer operations ([`Device::read_buffer`],
//!   [`Device::write_buffer`]) — shims over the corresponding enqueued
//!   commands: each first waits for every pending command to complete
//!   (execution is eager, so this is a pure join), and therefore observes
//!   exactly the state an in-order execution would have produced.
//!
//! Fleets of devices are managed by [`crate::DeviceGroup`], which shards
//! launches across members and keeps buffers coherent; this module only
//! provides the single-device primitives it builds on.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::buffer::{BufferId, ElemKind, RawBuffer, Scalar};
use crate::config::DeviceConfig;
use crate::engine::{self, resolve_parallelism, BufTable, LaunchPlan, LaunchSetup, PlanCache};
use crate::error::SimError;
use crate::kernel::{AccessMask, Kernel};
use crate::local::LocalSpec;
use crate::ndrange::NdRange;
use crate::queue::{drain_all, Access, Queue, Sched};
use crate::stats::LaunchReport;
use crate::timing;

/// Device state shared between the [`Device`] handle, its queues and its
/// events. Queues and events hold [`std::sync::Weak`] references: dropping
/// the `Device` frees the state and turns every leftover handle into
/// [`SimError::DeviceLost`].
pub(crate) struct DeviceShared {
    pub(crate) state: Mutex<DeviceState>,
    /// Signalled whenever a command completes or is cancelled; drains
    /// block on it while other threads execute their dependencies.
    pub(crate) cv: Condvar,
    /// Origin of every [`crate::EventTiming`] timestamp.
    pub(crate) epoch: Instant,
}

impl std::fmt::Debug for DeviceShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceShared").finish_non_exhaustive()
    }
}

/// The mutable device state behind the lock.
pub(crate) struct DeviceState {
    pub(crate) cfg: DeviceConfig,
    pub(crate) bufs: BufTable,
    pub(crate) next_addr: u64,
    pub(crate) used_bytes: usize,
    pub(crate) profiling: bool,
    pub(crate) plans: PlanCache,
    pub(crate) sched: Sched,
    /// Set by [`Device`]'s drop: workers exit instead of picking new
    /// commands, and blocked waits return [`SimError::DeviceLost`].
    pub(crate) shutdown: bool,
    /// Join handles of the persistent worker pool (spawned lazily on
    /// first enqueue; joined by [`Device`]'s drop). Workers never touch
    /// this field themselves. Pool sizing counts `workers.len()`.
    pub(crate) workers: Vec<std::thread::JoinHandle<()>>,
}

/// Validates a launch against device limits, resolves the kernel's
/// declared [`Kernel::buffer_usage`] to buffer slots and captures the
/// immutable setup (plan, occupancy, local specs, access mask). Every
/// launch path goes through here — the blocking shims, the serial
/// reference, the group launches and [`crate::Queue::enqueue_launch`] —
/// so each fails with the same error and enforces the same declaration.
/// The resolved [`Access`] is the queue's hazard-inference input.
pub(crate) fn prepare_launch<K: Kernel + ?Sized>(
    st: &mut DeviceState,
    kernel: &K,
    range: NdRange,
) -> Result<(Arc<LaunchPlan>, LaunchSetup, Access), SimError> {
    let access = match kernel.buffer_usage() {
        None => Access::All,
        Some(u) => {
            let resolve = |ids: &[BufferId]| -> Result<Vec<usize>, SimError> {
                let mut slots = Vec::with_capacity(ids.len());
                for &id in ids {
                    if st.bufs.get(id.index()).and_then(Option::as_ref).is_none() {
                        return Err(SimError::UnknownBuffer(id));
                    }
                    slots.push(id.index());
                }
                Ok(slots)
            };
            Access::Declared {
                reads: resolve(&u.reads)?,
                writes: resolve(&u.writes)?,
            }
        }
    };
    let mask = match &access {
        Access::All => None,
        Access::Declared { reads, writes } => Some(AccessMask::new(st.bufs.len(), reads, writes)),
    };
    let (name, phases, local_specs) = (kernel.name(), kernel.phases(), kernel.local_buffers());
    let local_bytes = local_specs.iter().map(LocalSpec::bytes).sum();
    if range.group_size_total() > st.cfg.max_work_group_size {
        return Err(SimError::Launch(format!(
            "work group of {} items exceeds device limit {}",
            range.group_size_total(),
            st.cfg.max_work_group_size
        )));
    }
    if local_bytes > st.cfg.local_mem_bytes {
        return Err(SimError::Launch(format!(
            "kernel '{name}' uses {local_bytes} bytes of local memory, device limit is {}",
            st.cfg.local_mem_bytes
        )));
    }
    if phases == 0 {
        return Err(SimError::Launch(format!(
            "kernel '{name}' declares zero phases"
        )));
    }
    let occ = timing::occupancy(&st.cfg, range.group_size_total(), local_bytes);
    let plan = st.plans.get(&st.cfg, range);
    Ok((
        plan,
        LaunchSetup {
            local_specs,
            phases,
            occ,
            mask,
        },
        access,
    ))
}

/// A simulated GPU device.
///
/// Owns global-memory buffers and executes [`Kernel`]s over [`NdRange`]s,
/// either through enqueued command streams ([`Device::create_queue`]) or
/// through the blocking shims ([`Device::launch`]). Execution is
/// deterministic: results are bit-identical across runs, platforms,
/// worker-thread counts *and command schedules* (see the crate-level
/// "Execution model" documentation and [`crate::Queue`]).
///
/// # Examples
///
/// See [`crate::Queue`] for the command-stream API and [`Kernel`] for a
/// blocking end-to-end example.
#[derive(Debug)]
pub struct Device {
    shared: Arc<DeviceShared>,
    /// Host-side copies of the locked configuration, kept in sync by the
    /// `&mut self` setters so [`Device::config`] can hand out references.
    cfg: DeviceConfig,
    profiling: bool,
}

impl Device {
    /// Creates a device with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the configuration is inconsistent.
    pub fn new(cfg: DeviceConfig) -> Result<Self, SimError> {
        cfg.validate().map_err(SimError::Config)?;
        Ok(Self {
            shared: Arc::new(DeviceShared {
                state: Mutex::new(DeviceState {
                    cfg: cfg.clone(),
                    bufs: Vec::new(),
                    next_addr: 0,
                    used_bytes: 0,
                    profiling: true,
                    plans: PlanCache::default(),
                    sched: Sched::default(),
                    shutdown: false,
                    workers: Vec::new(),
                }),
                cv: Condvar::new(),
                epoch: Instant::now(),
            }),
            cfg,
            profiling: true,
        })
    }

    fn state(&self) -> std::sync::MutexGuard<'_, DeviceState> {
        self.shared.state.lock().expect("device state poisoned")
    }

    /// Creates a command queue on this device (see [`Queue`]).
    ///
    /// Any number of queues may coexist; they share one command stream
    /// (one global enqueue order) and exist as grouping/lifetime scopes —
    /// commands on different queues overlap exactly as freely as commands
    /// on one queue, ordering comes from events and buffer hazards alone.
    pub fn create_queue(&self) -> Queue {
        let id = self.state().sched.new_queue();
        Queue {
            shared: Arc::downgrade(&self.shared),
            id,
        }
    }

    /// Blocks until every pending enqueued command has completed.
    /// Execution itself is eager — the persistent worker pool starts
    /// commands as soon as their dependencies clear — so this is a pure
    /// join, not a trigger. Blocking operations call it internally; it is
    /// public for host code that wants a full barrier across all queues
    /// without tracking events.
    pub fn finish(&self) {
        drain_all(&self.shared);
    }

    /// Sets the number of worker threads the launch engine uses
    /// (`0` = one per available core). The same budget bounds how many
    /// enqueued commands execute concurrently: the persistent worker
    /// pool grows lazily on enqueue (and its threads persist until the
    /// device drops), but workers only *pick* commands while fewer than
    /// the current budget are running — so lowering the knob takes
    /// effect immediately, surplus workers simply park. For kernels
    /// whose groups are independent within one launch — the OpenCL
    /// contract, see the crate-level "Execution model" docs — results
    /// are identical for every value; only wall-clock time changes.
    pub fn set_parallelism(&mut self, threads: usize) {
        self.cfg.parallelism = threads;
        self.state().cfg.parallelism = threads;
    }

    /// Sets the execution strategy for kernels that carry both a bytecode
    /// compiler and a reference interpreter (see [`crate::ExecMode`]).
    /// Both strategies are bit-identical by contract; `Interpreted` is the
    /// slow differential reference.
    pub fn set_exec_mode(&mut self, mode: crate::ExecMode) {
        self.cfg.exec_mode = mode;
        self.state().cfg.exec_mode = mode;
    }

    /// Sets the bytecode optimization level for kernels that carry both an
    /// optimized and an as-lowered compiled form (see [`crate::OptLevel`]).
    /// All levels are bit-identical by contract; `None` is the as-lowered
    /// differential reference.
    pub fn set_opt_level(&mut self, level: crate::OptLevel) {
        self.cfg.opt_level = level;
        self.state().cfg.opt_level = level;
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Enables or disables profiling. With profiling off, launches skip
    /// transaction/bank/op accounting and the report contains zeros for
    /// stats and timing — useful when only the functional result matters
    /// (error measurements are roughly twice as fast). The flag is
    /// captured per command at enqueue time; per-event wall-clock
    /// timestamps ([`crate::Event::timing`]) are always available,
    /// independent of this knob.
    pub fn set_profiling(&mut self, enabled: bool) {
        self.profiling = enabled;
        self.state().profiling = enabled;
    }

    /// Whether profiling is currently enabled.
    pub fn profiling(&self) -> bool {
        self.profiling
    }

    /// Bytes of global memory currently allocated.
    pub fn used_global_bytes(&self) -> usize {
        self.state().used_bytes
    }

    /// Allocates an uninitialized (zeroed) buffer of `len` elements.
    ///
    /// Allocation is immediate (host order) and never waits on pending
    /// commands — a fresh buffer cannot conflict with any of them.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] if the allocation would exceed the
    /// device's global memory.
    pub fn create_buffer<T: Scalar>(
        &mut self,
        label: &str,
        len: usize,
    ) -> Result<BufferId, SimError> {
        self.alloc(T::KIND, label, vec![0u64; len])
    }

    /// Allocates a buffer initialized from host data.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] if the allocation would exceed the
    /// device's global memory.
    pub fn create_buffer_from<T: Scalar>(
        &mut self,
        label: &str,
        data: &[T],
    ) -> Result<BufferId, SimError> {
        self.alloc(T::KIND, label, data.iter().map(|v| v.to_bits64()).collect())
    }

    fn alloc(&mut self, kind: ElemKind, label: &str, data: Vec<u64>) -> Result<BufferId, SimError> {
        let mut st = self.state();
        // The launch engine packs element indices into 32 bits (write-log
        // entries); cap per-buffer length so that packing can never
        // truncate, whatever global_mem_bytes a custom config allows.
        if u32::try_from(data.len()).is_err() {
            return Err(SimError::Launch(format!(
                "buffer '{label}' has {} elements; the device supports at most {} per buffer",
                data.len(),
                u32::MAX
            )));
        }
        // Slots are packed into 24 bits alongside the 40-bit element index
        // in write-log keys, and released slots are never reused, so cap
        // the lifetime allocation count symmetrically.
        if st.bufs.len() >= (1 << 24) {
            return Err(SimError::Launch(format!(
                "buffer '{label}' exceeds the device's lifetime limit of {} allocations",
                1 << 24
            )));
        }
        let bytes = data.len() * kind.bytes();
        let available = st.cfg.global_mem_bytes.saturating_sub(st.used_bytes);
        if bytes > available {
            return Err(SimError::OutOfMemory {
                requested: bytes,
                available,
            });
        }
        // Align each buffer to a transaction boundary so two buffers never
        // share a coalescing block.
        let txn = st.cfg.transaction_bytes as u64;
        let base_addr = st.next_addr.div_ceil(txn) * txn;
        st.next_addr = base_addr + bytes as u64;
        st.used_bytes += bytes;
        let id = BufferId(st.bufs.len() as u32);
        st.bufs.push(Some(Arc::new(RawBuffer {
            kind,
            data,
            base_addr,
            label: label.into(),
        })));
        Ok(id)
    }

    /// Releases a buffer, making its bytes available again. Completion of
    /// every pending enqueued command is awaited first, so every command
    /// that could reference the buffer has finished. The handle becomes
    /// invalid; later use is an error (host) or fault (kernel).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownBuffer`] if the handle is invalid.
    pub fn release_buffer(&mut self, id: BufferId) -> Result<(), SimError> {
        self.finish();
        let mut st = self.state();
        let slot = st
            .bufs
            .get_mut(id.index())
            .ok_or(SimError::UnknownBuffer(id))?;
        match slot.take() {
            Some(raw) => {
                let bytes = raw.byte_len();
                drop(raw);
                st.used_bytes -= bytes;
                Ok(())
            }
            None => Err(SimError::UnknownBuffer(id)),
        }
    }

    /// Number of elements in a buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownBuffer`] if the handle is invalid.
    pub fn buffer_len(&self, id: BufferId) -> Result<usize, SimError> {
        let st = self.state();
        st.bufs
            .get(id.index())
            .and_then(Option::as_ref)
            .map(|raw| raw.len())
            .ok_or(SimError::UnknownBuffer(id))
    }

    /// Element kind of a buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownBuffer`] if the handle is invalid.
    pub fn buffer_kind(&self, id: BufferId) -> Result<ElemKind, SimError> {
        let st = self.state();
        st.bufs
            .get(id.index())
            .and_then(Option::as_ref)
            .map(|raw| raw.kind)
            .ok_or(SimError::UnknownBuffer(id))
    }

    /// The label given to a buffer at creation time. Returned as a shared
    /// `Arc<str>` handle — a refcount bump, not an allocation — so
    /// diagnostics can query labels on hot paths freely.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownBuffer`] if the handle is invalid.
    pub fn buffer_label(&self, id: BufferId) -> Result<Arc<str>, SimError> {
        let st = self.state();
        st.bufs
            .get(id.index())
            .and_then(Option::as_ref)
            .map(|raw| Arc::clone(&raw.label))
            .ok_or(SimError::UnknownBuffer(id))
    }

    /// Copies a buffer's contents to the host — the blocking shim over
    /// [`Queue::enqueue_read`]: it waits for the (eagerly executing)
    /// pending commands to complete first, so the data is exactly what
    /// in-order execution would have produced.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownBuffer`] or [`SimError::BufferKind`].
    pub fn read_buffer<T: Scalar>(&self, id: BufferId) -> Result<Vec<T>, SimError> {
        self.finish();
        let st = self.state();
        let raw = st
            .bufs
            .get(id.index())
            .and_then(Option::as_ref)
            .ok_or(SimError::UnknownBuffer(id))?;
        if raw.kind != T::KIND {
            return Err(SimError::BufferKind {
                buffer: id,
                expected: T::KIND,
                actual: raw.kind,
            });
        }
        Ok(raw.data.iter().map(|&b| T::from_bits64(b)).collect())
    }

    /// Overwrites a buffer's contents from the host — the blocking shim
    /// over [`Queue::enqueue_write`] (pending commands complete first).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownBuffer`], [`SimError::BufferKind`] or
    /// [`SimError::SizeMismatch`].
    pub fn write_buffer<T: Scalar>(&mut self, id: BufferId, data: &[T]) -> Result<(), SimError> {
        self.finish();
        let mut st = self.state();
        let raw = st
            .bufs
            .get_mut(id.index())
            .and_then(Option::as_mut)
            .ok_or(SimError::UnknownBuffer(id))?;
        if raw.kind != T::KIND {
            return Err(SimError::BufferKind {
                buffer: id,
                expected: T::KIND,
                actual: raw.kind,
            });
        }
        if raw.len() != data.len() {
            return Err(SimError::SizeMismatch {
                buffer: id,
                buffer_len: raw.len(),
                data_len: data.len(),
            });
        }
        let raw = Arc::make_mut(raw);
        for (slot, v) in raw.data.iter_mut().zip(data) {
            *slot = v.to_bits64();
        }
        Ok(())
    }

    /// Captures everything a blocking launch needs from the locked state.
    fn prepare_blocking<K: Kernel + ?Sized>(
        &mut self,
        kernel: &K,
        range: NdRange,
    ) -> Result<(Arc<LaunchPlan>, LaunchSetup, BufTable, bool), SimError> {
        let mut st = self.state();
        let (plan, setup, _) = prepare_launch(&mut st, kernel, range)?;
        let snapshot = st.bufs.clone();
        let profiling = st.profiling;
        Ok((plan, setup, snapshot, profiling))
    }

    /// Applies a finished launch's writes to the backing buffers.
    fn apply_blocking(&mut self, entries: &[engine::WriteEntry]) {
        let mut st = self.state();
        engine::apply_writes(entries, &mut st.bufs);
    }

    /// Executes a kernel over the given range and returns its report —
    /// the blocking shim: semantically [`Queue::enqueue_launch`]
    /// immediately followed by [`crate::Event::wait_report`]. Completion
    /// of pending enqueued commands is awaited first (preserving
    /// enqueue-order semantics); the kernel itself is borrowed for the
    /// call, which is why the shim exists — the command stream proper
    /// stores only `'static` kernels.
    ///
    /// Work groups execute on the parallel launch engine: sharded across
    /// up to [`DeviceConfig::parallelism`] scoped worker threads, each
    /// group running against a read-only snapshot of global memory with
    /// its stores logged and applied in row-major group order afterwards.
    /// Results — buffers, statistics, timing, faults — are bit-identical
    /// for every thread count, one included: no group sees what another
    /// group wrote during the same launch (OpenCL makes no promise about
    /// such reads either). A kernel that declares
    /// [`Kernel::buffer_usage`] faults on any access outside it, exactly
    /// like its queued twin.
    ///
    /// With profiling enabled the report carries full transaction / bank /
    /// timing accounting.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Launch`] for geometry or resource violations and
    /// [`SimError::KernelFaults`] if kernel code performed invalid accesses
    /// (buffers may be partially written in that case).
    pub fn launch<K: Kernel + Sync + ?Sized>(
        &mut self,
        kernel: &K,
        range: NdRange,
    ) -> Result<LaunchReport, SimError> {
        let groups = range.num_groups_total();
        let (setup, outcomes, entries) = self.launch_span(kernel, range, 0, groups)?;
        self.apply_blocking(&entries);
        engine::reduce_outcomes(
            kernel.name(),
            &self.cfg,
            self.profiling,
            &range,
            &setup,
            outcomes,
        )
    }

    /// Executes the row-major span `lo..hi` of a launch's work groups and
    /// returns the *unreduced* per-group outcomes plus their concatenated
    /// write entries. [`Device::launch`] runs the whole span through it;
    /// [`crate::DeviceGroup::launch_sharded`] runs one span per member.
    /// Nothing is applied to this device's buffers: the group concatenates
    /// every member's spans in device order (restoring full row-major
    /// order), applies the writes on the gather device and reduces the
    /// outcomes exactly once, so a sharded launch's report and fault log
    /// are bit-identical to a single-device run. The buffer snapshot is
    /// dropped on return, so the caller's writes land in place rather than
    /// copy-on-write.
    pub(crate) fn launch_span<K: Kernel + Sync + ?Sized>(
        &mut self,
        kernel: &K,
        range: NdRange,
        lo: usize,
        hi: usize,
    ) -> Result<
        (
            LaunchSetup,
            Vec<engine::GroupOutcome>,
            Vec<engine::WriteEntry>,
        ),
        SimError,
    > {
        self.finish();
        let (plan, setup, snapshot, profiling) = self.prepare_blocking(kernel, range)?;
        let workers = resolve_parallelism(self.cfg.parallelism)
            .min(hi.saturating_sub(lo))
            .max(1);
        let (outcomes, entries) = engine::execute_groups_span(
            kernel, &self.cfg, &plan, &setup, &snapshot, profiling, workers, lo, hi,
        );
        Ok((setup, outcomes, entries))
    }

    /// Applies write entries produced by another member's span to this
    /// device's backing buffers (slot indices agree fleet-wide because
    /// group members allocate in identical order).
    pub(crate) fn apply_entries(&mut self, entries: &[engine::WriteEntry]) {
        self.apply_blocking(entries);
    }

    /// Raw bit patterns of a buffer, for inter-device migration. Waits
    /// for pending commands like [`Device::read_buffer`] but skips the
    /// element-type conversion — a migration moves bits, not values.
    pub(crate) fn read_buffer_bits(&self, id: BufferId) -> Result<Vec<u64>, SimError> {
        self.finish();
        let st = self.state();
        st.bufs
            .get(id.index())
            .and_then(Option::as_ref)
            .map(|raw| raw.data.clone())
            .ok_or(SimError::UnknownBuffer(id))
    }

    /// Overwrites a buffer with raw bit patterns, for inter-device
    /// migration. The caller (the group's coherence layer) guarantees the
    /// source buffer has the same kind and length.
    pub(crate) fn write_buffer_bits(&mut self, id: BufferId, bits: &[u64]) -> Result<(), SimError> {
        self.finish();
        let mut st = self.state();
        let raw = st
            .bufs
            .get_mut(id.index())
            .and_then(Option::as_mut)
            .ok_or(SimError::UnknownBuffer(id))?;
        debug_assert_eq!(raw.len(), bits.len(), "migration size mismatch");
        Arc::make_mut(raw).data = bits.to_vec();
        Ok(())
    }

    /// Number of enqueued commands not yet completed (pending + running).
    /// The load signal behind [`crate::DeviceGroup`]'s least-loaded
    /// placement.
    pub(crate) fn pending_commands(&self) -> usize {
        self.state().sched.pending_len()
    }

    /// Executes a kernel one work group at a time on the calling thread.
    ///
    /// Semantics match pre-engine serial execution exactly: each group's
    /// writes are visible to the next group, so even (non-deterministic on
    /// real hardware) cross-group dependencies observe the row-major
    /// order. Kept as the differential-testing reference for
    /// [`Device::launch`] and for kernels that are not [`Sync`].
    ///
    /// # Errors
    ///
    /// As [`Device::launch`].
    pub fn launch_serial<K: Kernel + ?Sized>(
        &mut self,
        kernel: &K,
        range: NdRange,
    ) -> Result<LaunchReport, SimError> {
        self.finish();
        let (plan, setup, mut snapshot, profiling) = self.prepare_blocking(kernel, range)?;
        let (outcomes, entries) = engine::execute_groups_serial(
            kernel,
            &self.cfg,
            &plan,
            &setup,
            &mut snapshot,
            profiling,
        );
        drop(snapshot);
        self.apply_blocking(&entries);
        engine::reduce_outcomes(
            kernel.name(),
            &self.cfg,
            profiling,
            &range,
            &setup,
            outcomes,
        )
    }
}

impl Drop for Device {
    /// Shuts the persistent command-queue worker pool down cleanly: sets
    /// the shutdown flag (workers finish the command they are executing,
    /// then exit instead of picking another) and joins every worker — no
    /// thread outlives its device. Commands still pending at this point
    /// never run; their events observe [`SimError::DeviceLost`] once the
    /// shared state is freed, and any thread blocked in a `wait` is woken
    /// and gets the same typed error. Completion callbacks
    /// ([`crate::Event::on_complete`]) still registered for those
    /// never-to-run commands fire exactly once with
    /// [`SimError::DeviceLost`] — after the workers have been joined, so
    /// commands that were mid-execution resolve their callbacks through
    /// the normal completion path first.
    fn drop(&mut self) {
        let workers = {
            // Tolerate a poisoned lock here: drop must still join the
            // surviving workers even if one panicked.
            let mut st = match self.shared.state.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            st.shutdown = true;
            std::mem::take(&mut st.workers)
        };
        self.shared.cv.notify_all();
        for worker in workers {
            let _ = worker.join();
        }
        // With the pool gone, whatever callbacks remain belong to
        // commands that will never run. Take them under the lock, fire
        // them outside it (the registration path checks `shutdown` under
        // this same lock, so a late `on_complete` either lands in this
        // batch or self-fires — never both, never neither).
        let leftover = {
            let mut st = match self.shared.state.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            st.sched.take_all_callbacks()
        };
        crate::queue::fire_callbacks(leftover, &Err(SimError::DeviceLost));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ItemCtx;
    use crate::local::{LocalId, LocalSpec};

    struct Copy1D {
        src: BufferId,
        dst: BufferId,
    }

    impl Kernel for Copy1D {
        fn name(&self) -> &str {
            "copy1d"
        }

        fn run_phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>) {
            let i = ctx.global_id(0);
            let v: f32 = ctx.read_global(self.src, i);
            ctx.write_global(self.dst, i, v);
            ctx.ops(1);
        }
    }

    fn device() -> Device {
        Device::new(DeviceConfig::test_tiny()).unwrap()
    }

    #[test]
    fn buffer_roundtrip() {
        let mut dev = device();
        let data = vec![1.0f32, 2.0, 3.0];
        let id = dev.create_buffer_from("x", &data).unwrap();
        assert_eq!(dev.read_buffer::<f32>(id).unwrap(), data);
        assert_eq!(dev.buffer_len(id).unwrap(), 3);
        assert_eq!(dev.buffer_kind(id).unwrap(), ElemKind::F32);
    }

    #[test]
    fn buffer_kind_checked_on_host_reads() {
        let mut dev = device();
        let id = dev.create_buffer_from("x", &[1.0f32]).unwrap();
        assert!(matches!(
            dev.read_buffer::<i32>(id),
            Err(SimError::BufferKind { .. })
        ));
    }

    #[test]
    fn write_buffer_checks_length() {
        let mut dev = device();
        let id = dev.create_buffer::<f32>("x", 4).unwrap();
        assert!(matches!(
            dev.write_buffer(id, &[1.0f32; 3]),
            Err(SimError::SizeMismatch { .. })
        ));
        dev.write_buffer(id, &[9.0f32; 4]).unwrap();
        assert_eq!(dev.read_buffer::<f32>(id).unwrap(), vec![9.0; 4]);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut dev = device();
        let too_big = dev.config().global_mem_bytes / 4 + 1;
        assert!(matches!(
            dev.create_buffer::<f32>("big", too_big),
            Err(SimError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn release_buffer_reclaims_capacity() {
        let mut dev = device();
        let id = dev.create_buffer::<f32>("x", 1024).unwrap();
        let used = dev.used_global_bytes();
        dev.release_buffer(id).unwrap();
        assert_eq!(dev.used_global_bytes(), used - 4096);
        assert!(matches!(
            dev.read_buffer::<f32>(id),
            Err(SimError::UnknownBuffer(_))
        ));
        assert!(matches!(
            dev.release_buffer(id),
            Err(SimError::UnknownBuffer(_))
        ));
    }

    #[test]
    fn launch_copies_data_functionally() {
        let mut dev = device();
        let data: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let src = dev.create_buffer_from("src", &data).unwrap();
        let dst = dev.create_buffer::<f32>("dst", 64).unwrap();
        let report = dev
            .launch(&Copy1D { src, dst }, NdRange::new_1d(64, 16).unwrap())
            .unwrap();
        assert_eq!(dev.read_buffer::<f32>(dst).unwrap(), data);
        assert_eq!(report.groups, 4);
        assert!(report.profiled);
        assert!(report.timing.device_cycles > 0);
        assert!(report.seconds > 0.0);
        // 64 contiguous f32 = 256 bytes = 16 txn-bytes blocks of 16 bytes,
        // per wavefront of 4 items one block read and one written.
        assert_eq!(report.stats.global_element_reads, 64);
        assert_eq!(report.stats.global_element_writes, 64);
        assert_eq!(report.stats.global_read_transactions, 16);
        assert_eq!(report.stats.global_write_transactions, 16);
    }

    #[test]
    fn profiling_off_skips_stats_but_keeps_function() {
        let mut dev = device();
        dev.set_profiling(false);
        assert!(!dev.profiling());
        let data = vec![3.0f32; 16];
        let src = dev.create_buffer_from("src", &data).unwrap();
        let dst = dev.create_buffer::<f32>("dst", 16).unwrap();
        let report = dev
            .launch(&Copy1D { src, dst }, NdRange::new_1d(16, 4).unwrap())
            .unwrap();
        assert_eq!(dev.read_buffer::<f32>(dst).unwrap(), data);
        assert!(!report.profiled);
        assert_eq!(report.stats.global_read_transactions, 0);
        assert_eq!(report.timing.device_cycles, 0);
    }

    #[test]
    fn oversized_work_group_rejected() {
        let mut dev = device();
        let src = dev.create_buffer::<f32>("src", 256).unwrap();
        let dst = dev.create_buffer::<f32>("dst", 256).unwrap();
        let err = dev
            .launch(&Copy1D { src, dst }, NdRange::new_1d(256, 128).unwrap())
            .unwrap_err();
        assert!(matches!(err, SimError::Launch(_)));
    }

    struct LocalHog;

    impl Kernel for LocalHog {
        fn name(&self) -> &str {
            "local-hog"
        }

        fn local_buffers(&self) -> Vec<LocalSpec> {
            vec![LocalSpec::new(ElemKind::F32, 1 << 20)]
        }

        fn run_phase(&self, _phase: usize, _ctx: &mut ItemCtx<'_>) {}
    }

    #[test]
    fn local_memory_overflow_rejected() {
        let mut dev = device();
        let err = dev
            .launch(&LocalHog, NdRange::new_1d(4, 4).unwrap())
            .unwrap_err();
        assert!(matches!(err, SimError::Launch(_)));
    }

    struct OobKernel {
        buf: BufferId,
    }

    impl Kernel for OobKernel {
        fn name(&self) -> &str {
            "oob"
        }

        fn run_phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>) {
            let i = ctx.global_id(0);
            // Off-by-one: reads one element past the end on the last item.
            let v: f32 = ctx.read_global(self.buf, i + 1);
            ctx.write_global(self.buf, i, v);
        }
    }

    #[test]
    fn kernel_faults_surface_as_errors() {
        let mut dev = device();
        let buf = dev.create_buffer::<f32>("b", 8).unwrap();
        let err = dev
            .launch(&OobKernel { buf }, NdRange::new_1d(8, 4).unwrap())
            .unwrap_err();
        match err {
            SimError::KernelFaults {
                kernel,
                faults,
                total,
            } => {
                assert_eq!(kernel, "oob");
                assert_eq!(total, 1);
                assert_eq!(faults.len(), 1);
            }
            other => panic!("expected KernelFaults, got {other:?}"),
        }
    }

    struct TwoPhase {
        buf: BufferId,
        tile: LocalId,
    }

    impl Kernel for TwoPhase {
        fn name(&self) -> &str {
            "two-phase"
        }

        fn phases(&self) -> usize {
            2
        }

        fn local_buffers(&self) -> Vec<LocalSpec> {
            vec![LocalSpec::new(ElemKind::F32, 4)]
        }

        fn run_phase(&self, phase: usize, ctx: &mut ItemCtx<'_>) {
            let li = ctx.local_id(0);
            match phase {
                0 => {
                    let v: f32 = ctx.read_global(self.buf, ctx.global_id(0));
                    ctx.write_local(self.tile, li, v);
                }
                _ => {
                    // Read the neighbor written by another item in phase 0:
                    // only correct if the barrier separated the phases.
                    let v: f32 = ctx.read_local(self.tile, (li + 1) % 4);
                    ctx.write_global(self.buf, ctx.global_id(0), v);
                }
            }
        }
    }

    #[test]
    fn phases_act_as_barriers() {
        let mut dev = device();
        let buf = dev
            .create_buffer_from("b", &[10.0f32, 20.0, 30.0, 40.0])
            .unwrap();
        let kernel = TwoPhase {
            buf,
            tile: LocalId(0),
        };
        let report = dev.launch(&kernel, NdRange::new_1d(4, 4).unwrap()).unwrap();
        assert_eq!(
            dev.read_buffer::<f32>(buf).unwrap(),
            vec![20.0, 30.0, 40.0, 10.0]
        );
        assert_eq!(report.phases, 2);
        assert_eq!(report.stats.uninit_local_reads, 0);
        assert_eq!(report.stats.local_accesses, 8);
    }

    #[test]
    fn determinism_identical_reports() {
        let run = || {
            let mut dev = device();
            let data: Vec<f32> = (0..256).map(|i| (i * 7 % 13) as f32).collect();
            let src = dev.create_buffer_from("src", &data).unwrap();
            let dst = dev.create_buffer::<f32>("dst", 256).unwrap();
            let r = dev
                .launch(&Copy1D { src, dst }, NdRange::new_1d(256, 16).unwrap())
                .unwrap();
            (r, dev.read_buffer::<f32>(dst).unwrap())
        };
        let (r1, d1) = run();
        let (r2, d2) = run();
        assert_eq!(r1, r2);
        assert_eq!(d1, d2);
    }

    #[test]
    fn rejects_invalid_config() {
        let mut cfg = DeviceConfig::test_tiny();
        cfg.compute_units = 0;
        assert!(matches!(Device::new(cfg), Err(SimError::Config(_))));
    }

    #[test]
    fn rejects_zero_phase_kernel() {
        struct NoPhases;
        impl Kernel for NoPhases {
            fn name(&self) -> &str {
                "none"
            }
            fn phases(&self) -> usize {
                0
            }
            fn run_phase(&self, _: usize, _: &mut ItemCtx<'_>) {}
        }
        let mut dev = device();
        assert!(matches!(
            dev.launch(&NoPhases, NdRange::new_1d(4, 4).unwrap()),
            Err(SimError::Launch(_))
        ));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::kernel::ItemCtx;
    use crate::local::LocalSpec;

    fn device() -> Device {
        Device::new(DeviceConfig::test_tiny()).unwrap()
    }

    struct Fill3D {
        dst: BufferId,
        dims: (usize, usize, usize),
    }

    impl Kernel for Fill3D {
        fn name(&self) -> &str {
            "fill3d"
        }

        fn run_phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>) {
            let (x, y, z) = (ctx.global_id(0), ctx.global_id(1), ctx.global_id(2));
            let (w, h, _) = self.dims;
            let idx = (z * h + y) * w + x;
            ctx.write_global(self.dst, idx, (x + 10 * y + 100 * z) as i32);
        }
    }

    #[test]
    fn three_dimensional_ranges_execute() {
        let mut dev = device();
        let (w, h, d) = (4, 4, 2);
        let dst = dev.create_buffer::<i32>("dst", w * h * d).unwrap();
        let kernel = Fill3D {
            dst,
            dims: (w, h, d),
        };
        let range = NdRange::new(3, [w, h, d], [2, 2, 1]).unwrap();
        let report = dev.launch(&kernel, range).unwrap();
        assert_eq!(report.groups, 2 * 2 * 2);
        let out = dev.read_buffer::<i32>(dst).unwrap();
        assert_eq!(out[0], 0);
        assert_eq!(out[(h + 2) * w + 3], 3 + 20 + 100);
    }

    struct MixedTypes {
        floats: BufferId,
        ints: BufferId,
        bytes: BufferId,
    }

    impl Kernel for MixedTypes {
        fn name(&self) -> &str {
            "mixed"
        }

        fn run_phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>) {
            let i = ctx.global_id(0);
            let f: f32 = ctx.read_global(self.floats, i);
            let n: i32 = ctx.read_global(self.ints, i);
            let b: u8 = ctx.read_global(self.bytes, i);
            ctx.write_global(self.floats, i, f + n as f32 + b as f32);
        }
    }

    #[test]
    fn kernels_can_mix_buffer_element_types() {
        let mut dev = device();
        let floats = dev.create_buffer_from("f", &[0.5f32; 8]).unwrap();
        let ints = dev.create_buffer_from("i", &[2i32; 8]).unwrap();
        let bytes = dev.create_buffer_from("b", &[3u8; 8]).unwrap();
        dev.launch(
            &MixedTypes {
                floats,
                ints,
                bytes,
            },
            NdRange::new_1d(8, 4).unwrap(),
        )
        .unwrap();
        assert_eq!(dev.read_buffer::<f32>(floats).unwrap(), vec![5.5; 8]);
        // u8 elements occupy one byte each: 8 bytes requested from that
        // buffer in total.
        assert_eq!(dev.buffer_kind(bytes).unwrap(), ElemKind::U8);
    }

    struct WrongTypeKernel {
        buf: BufferId,
    }

    impl Kernel for WrongTypeKernel {
        fn name(&self) -> &str {
            "wrong-type"
        }

        fn run_phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>) {
            // Buffer holds f32; reading i32 must fault.
            let _: i32 = ctx.read_global(self.buf, ctx.global_id(0));
        }
    }

    #[test]
    fn kind_mismatch_inside_kernel_faults() {
        let mut dev = device();
        let buf = dev.create_buffer_from("f", &[1.0f32; 4]).unwrap();
        let err = dev
            .launch(&WrongTypeKernel { buf }, NdRange::new_1d(4, 4).unwrap())
            .unwrap_err();
        match err {
            SimError::KernelFaults { faults, .. } => {
                assert!(matches!(
                    faults[0].kind,
                    crate::kernel::FaultKind::BufferKindMismatch { .. }
                ));
            }
            other => panic!("expected faults, got {other:?}"),
        }
    }

    struct LocalWrongType;

    impl Kernel for LocalWrongType {
        fn name(&self) -> &str {
            "local-wrong-type"
        }

        fn local_buffers(&self) -> Vec<LocalSpec> {
            vec![LocalSpec::new(ElemKind::F32, 8)]
        }

        fn run_phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>) {
            ctx.write_local::<i32>(crate::LocalId(0), 0, 7);
            let _: f32 = ctx.read_local(crate::LocalId(1), 0);
        }
    }

    #[test]
    fn local_misuse_faults() {
        let mut dev = device();
        let err = dev
            .launch(&LocalWrongType, NdRange::new_1d(1, 1).unwrap())
            .unwrap_err();
        match err {
            SimError::KernelFaults { total, .. } => assert_eq!(total, 2),
            other => panic!("expected faults, got {other:?}"),
        }
    }

    struct Noop;

    impl Kernel for Noop {
        fn name(&self) -> &str {
            "noop"
        }

        fn run_phase(&self, _: usize, _: &mut ItemCtx<'_>) {}
    }

    #[test]
    fn occupancy_reported_in_launch() {
        let mut dev = device();
        let report = dev.launch(&Noop, NdRange::new_1d(64, 16).unwrap()).unwrap();
        // 16 items / 4-wide wavefronts = 4 waves per group.
        assert_eq!(report.occupancy.waves_per_group, 4);
        assert!(report.occupancy.groups_per_cu >= 1);
        assert_eq!(report.occupancy.local_bytes_per_group, 0);
    }

    #[test]
    fn buffer_labels_are_kept() {
        let mut dev = device();
        let id = dev.create_buffer::<f32>("my-label", 1).unwrap();
        assert_eq!(&*dev.buffer_label(id).unwrap(), "my-label");
        // Repeated queries share one allocation (refcounted handle).
        let a = dev.buffer_label(id).unwrap();
        let b = dev.buffer_label(id).unwrap();
        assert!(std::sync::Arc::ptr_eq(&a, &b));
    }

    /// Regression: each group reads local memory it never wrote, and the
    /// counter must accumulate across groups — surviving the arena reset
    /// between groups on one worker and the per-group arenas of parallel
    /// shards alike.
    struct UninitReader {
        reads_per_item: usize,
    }

    impl Kernel for UninitReader {
        fn name(&self) -> &str {
            "uninit-reader"
        }

        fn local_buffers(&self) -> Vec<LocalSpec> {
            vec![LocalSpec::new(ElemKind::F32, 16)]
        }

        fn run_phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>) {
            for k in 0..self.reads_per_item {
                let _: f32 = ctx.read_local(crate::LocalId(0), (ctx.local_id(0) + k) % 16);
            }
        }
    }

    #[test]
    fn uninit_local_reads_accumulate_across_groups() {
        let mut dev = device();
        // 2 groups x 4 items x 3 reads, all of never-written elements.
        let report = dev
            .launch(
                &UninitReader { reads_per_item: 3 },
                NdRange::new_1d(8, 4).unwrap(),
            )
            .unwrap();
        assert_eq!(report.groups, 2);
        assert_eq!(report.stats.uninit_local_reads, 2 * 4 * 3);
    }

    #[test]
    fn uninit_local_reads_survive_parallel_sharding_and_profiling_off() {
        let run = |parallelism: usize, profiling: bool| {
            let mut cfg = DeviceConfig::test_tiny();
            cfg.parallelism = parallelism;
            let mut dev = Device::new(cfg).unwrap();
            dev.set_profiling(profiling);
            dev.launch(
                &UninitReader { reads_per_item: 2 },
                NdRange::new_1d(16, 4).unwrap(),
            )
            .unwrap()
            .stats
            .uninit_local_reads
        };
        for parallelism in [1, 2, 4] {
            for profiling in [true, false] {
                assert_eq!(run(parallelism, profiling), 4 * 4 * 2, "p={parallelism}");
            }
        }
    }

    #[test]
    fn overhead_cycles_accumulate_per_group() {
        let mut dev = device();
        let r1 = dev.launch(&Noop, NdRange::new_1d(16, 16).unwrap()).unwrap();
        let r4 = dev.launch(&Noop, NdRange::new_1d(64, 16).unwrap()).unwrap();
        assert_eq!(r4.timing.overhead_cycles, 4 * r1.timing.overhead_cycles);
    }
}
