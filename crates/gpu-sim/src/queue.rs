//! Command queues: the asynchronous, overlappable host API.
//!
//! OpenCL hosts do not *call* kernels — they **enqueue** commands (kernel
//! launches, buffer reads/writes/copies) on command queues and order them
//! with events. This module brings that model to the simulator:
//!
//! * [`Queue::enqueue_launch`] / [`Queue::enqueue_read`] /
//!   [`Queue::enqueue_write`] / [`Queue::enqueue_copy`] append commands to
//!   the device's command stream and return an [`Event`](crate::Event)
//!   immediately;
//! * commands may declare explicit wait-lists (events), and the scheduler
//!   additionally **infers buffer hazards**: a command that reads buffer
//!   `B` is ordered after the last earlier command that writes `B`
//!   (read-after-write), a writer after earlier readers and writers
//!   (write-after-read, write-after-write);
//! * commands whose dependencies are satisfied execute **out of order and
//!   concurrently** across worker threads — yet every observable result
//!   (buffers, launch reports, fault logs, read data) is **bit-identical
//!   to executing the commands one at a time in enqueue order**.
//!
//! # Eager execution: the persistent worker pool
//!
//! Execution is **eager**: every device owns a persistent pool of
//! [`crate::resolve_parallelism`]`(parallelism)` background workers,
//! spawned lazily on the first enqueue and parked on the device's
//! Mutex+Condvar state. A worker picks a ready command — all hazard and
//! wait-list predecessors complete — the moment one exists, so commands
//! **start before the first `wait`**: host code between enqueue and wait
//! runs concurrently with the device (observable through the per-event
//! `queued`/`started`/`ended` timestamps, [`crate::Event::timing`]).
//! `wait`/`finish` are pure blocking joins on completion; they never
//! execute commands themselves.
//!
//! When several commands are ready at once, workers pick them in
//! **enqueue order** (ascending sequence number). The order steers
//! latency only — it can never change results, because results are
//! schedule-independent (below).
//!
//! Dropping the [`crate::Device`] shuts the pool down cleanly: workers
//! finish the command they are executing and exit; no thread outlives the
//! device, and leftover events resolve to typed
//! [`SimError::DeviceLost`] errors instead of hanging.
//!
//! # The determinism argument
//!
//! Each launch executes against a snapshot of the buffer table taken when
//! all its hazard predecessors have completed, so every buffer it is
//! *allowed* to touch holds exactly the bytes in-order execution would
//! have produced. Buffers outside a launch's declared
//! [`crate::Kernel::buffer_usage`] are unreachable — the engine faults
//! such accesses deterministically instead of returning
//! schedule-dependent data. Kernels that do not declare usage are treated
//! as touching everything and simply never overlap. Within one launch the
//! engine's snapshot/write-log discipline applies unchanged, and write
//! logs are replayed in row-major group order, so a queued launch is
//! bit-identical to [`crate::Device::launch`] of the same kernel. None of
//! this depends on *when* a ready command starts, which is why the eager
//! pool preserves bit-identical results, reports and fault logs at every
//! worker count.
//!
//! Multiple queues on one device share a single command stream (one global
//! enqueue order); queues are grouping/lifetime scopes, not ordering
//! domains — ordering comes *only* from events and hazards, which is what
//! lets independent commands overlap even on a single queue.
//!
//! # Cross-device waits
//!
//! Wait-lists may contain events from **other** devices (e.g. other
//! members of a [`crate::DeviceGroup`]). Such a foreign event does not
//! enter the local hazard DAG; instead a bridge thread waits for it to
//! settle on its own device and then marks the local command's foreign
//! dependency satisfied. Any settled outcome — success, failure,
//! cancellation, or the foreign device being dropped — counts, mirroring
//! the local rule that a cancelled dependency is a satisfied one.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, MutexGuard, Weak};
use std::time::Duration;

use crate::buffer::{BufferId, Scalar};
use crate::config::DeviceConfig;
use crate::device::{DeviceShared, DeviceState};
use crate::engine::{
    self, execute_groups_span, resolve_parallelism, BufTable, LaunchPlan, LaunchSetup,
};
use crate::error::SimError;
use crate::event::{Event, EventTiming};
use crate::kernel::{AccessMask, Kernel};
use crate::ndrange::NdRange;
use crate::stats::LaunchReport;

/// Declared global-buffer usage of one kernel launch: the hazard-inference
/// input of the command-queue scheduler (see [`Kernel::buffer_usage`]).
#[derive(Debug, Clone, Default)]
pub struct BufferUse {
    /// Buffers the kernel may read.
    pub reads: Vec<BufferId>,
    /// Buffers the kernel may write (reading them back is allowed too).
    pub writes: Vec<BufferId>,
}

impl BufferUse {
    /// Convenience constructor.
    pub fn new(reads: impl Into<Vec<BufferId>>, writes: impl Into<Vec<BufferId>>) -> Self {
        Self {
            reads: reads.into(),
            writes: writes.into(),
        }
    }
}

/// Resolved per-command access sets, in buffer-slot space. `None` means
/// "may touch anything" (undeclared usage): such a command serializes
/// against every other command.
#[derive(Debug, Clone)]
enum Access {
    All,
    Declared {
        reads: Vec<usize>,
        writes: Vec<usize>,
    },
}

/// One enqueued command.
pub(crate) struct Command {
    queue: u64,
    /// Unsatisfied-at-enqueue-time dependencies (seq numbers). A dep is
    /// satisfied once its seq leaves the pending map.
    deps: Vec<u64>,
    /// Count of wait-list events that live on *other* devices and have
    /// not yet settled. Decremented by the bridge threads spawned at
    /// enqueue time; the command is not ready until it reaches zero.
    foreign_pending: usize,
    access: Access,
    kind: CommandKind,
    queued_at: Duration,
    profiling: bool,
}

enum CommandKind {
    Launch {
        kernel: Arc<dyn Kernel + Send + Sync>,
        range: NdRange,
        plan: Arc<LaunchPlan>,
        setup: LaunchSetup,
    },
    Read {
        buffer: BufferId,
    },
    Write {
        slot: usize,
        bits: Vec<u64>,
    },
    Copy {
        src: usize,
        dst: usize,
    },
}

impl CommandKind {
    fn is_launch(&self) -> bool {
        matches!(self, CommandKind::Launch { .. })
    }
}

/// What a completed command produced. Slots live only as long as an
/// [`Event`] handle for the command exists — the last event drop frees
/// the result, so long-lived devices do not accumulate reports.
#[derive(Debug, Clone)]
pub(crate) enum CommandResult {
    /// A launch's report (boxed: reports are an order of magnitude
    /// larger than the other variants).
    Launch(Box<LaunchReport>),
    /// A buffer read. `snapshot` is an O(1) handle to the buffer version
    /// at execution time (later writers copy-on-write around it); it is
    /// taken by the first `wait_read`, which materializes the host vector
    /// outside the device lock.
    Read {
        buffer: BufferId,
        snapshot: Option<Arc<crate::buffer::RawBuffer>>,
    },
    /// A buffer write completed.
    Write,
    /// A buffer copy completed.
    Copy,
}

impl CommandResult {
    pub(crate) fn describe(&self) -> &'static str {
        match self {
            CommandResult::Launch(_) => "launch report",
            CommandResult::Read {
                snapshot: Some(_), ..
            } => "read",
            CommandResult::Read { snapshot: None, .. } => "read (already taken)",
            CommandResult::Write => "write completion",
            CommandResult::Copy => "copy completion",
        }
    }
}

/// Completion record of one command, reachable through its [`Event`].
pub(crate) struct EventSlot {
    pub result: Result<CommandResult, SimError>,
    pub timing: EventTiming,
}

/// A completion callback registered through [`Event::on_complete`] (or,
/// indirectly, [`crate::CompletionQueue::watch`]). Receives the command's
/// settled outcome: `Ok(())`, the command's own failure, or
/// [`SimError::QueueReleased`] / [`SimError::DeviceLost`] if it was
/// cancelled / the device dropped first.
pub(crate) type CompletionCallback = Box<dyn FnOnce(Result<(), SimError>) + Send>;

/// Invokes a batch of completion callbacks with the command's settled
/// outcome. The caller must **not** hold the device lock — this is the
/// single choke point behind the documented no-lock-held guarantee, and
/// every completion path releases the lock before calling it.
///
/// A panicking callback must not kill the resolving pool worker (a dead
/// worker would strand every waiter), so each invocation is wrapped in
/// `catch_unwind` — mirroring the treatment of panicking kernels in
/// [`execute_launch`]. Remaining callbacks in the batch still run.
pub(crate) fn fire_callbacks(callbacks: Vec<CompletionCallback>, outcome: &Result<(), SimError>) {
    for cb in callbacks {
        let outcome = outcome.clone();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || cb(outcome)));
    }
}

/// The device's command-stream scheduler state.
#[derive(Default)]
pub(crate) struct Sched {
    next_seq: u64,
    next_queue: u64,
    /// Commands not yet completed (including currently running ones).
    pending: BTreeMap<u64, Command>,
    /// Seqs currently executing on some thread.
    running: BTreeSet<u64>,
    /// Completed (or cancelled) commands, keyed by seq. Entries exist
    /// only while `event_refs` holds a live handle count for the seq.
    finished: HashMap<u64, EventSlot>,
    /// Live [`Event`] handle count per command. Enqueue starts at 1;
    /// event clones/drops adjust it; at 0 the command's `finished` slot
    /// (if any) is discarded, bounding result memory by live handles
    /// instead of device lifetime.
    event_refs: HashMap<u64, usize>,
    /// Per-slot seq of the last enqueued writer.
    last_writer: HashMap<usize, u64>,
    /// Per-slot seqs of readers enqueued since the last writer.
    readers: HashMap<usize, Vec<u64>>,
    /// Seq of the last enqueued undeclared-usage command, if any.
    last_universal: Option<u64>,
    /// Completion callbacks of still-pending commands, keyed by seq.
    /// Taken (exactly once) by whichever path settles the command —
    /// execution, queue cancellation, or device shutdown — and fired
    /// *after* the device lock is released (see [`fire_callbacks`]).
    callbacks: HashMap<u64, Vec<CompletionCallback>>,
}

impl Sched {
    pub(crate) fn new_queue(&mut self) -> u64 {
        let id = self.next_queue;
        self.next_queue += 1;
        id
    }

    pub(crate) fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Whether command `seq` is still pending (queued or running).
    pub(crate) fn is_pending(&self, seq: u64) -> bool {
        self.pending.contains_key(&seq)
    }

    pub(crate) fn event_slot(&self, seq: u64) -> Option<&EventSlot> {
        self.finished.get(&seq)
    }

    pub(crate) fn event_slot_mut(&mut self, seq: u64) -> Option<&mut EventSlot> {
        self.finished.get_mut(&seq)
    }

    /// Hazard + explicit dependencies of a new command, pruned to
    /// still-incomplete seqs.
    fn collect_deps(&mut self, access: &Access, explicit: &[u64]) -> Vec<u64> {
        let mut deps: Vec<u64> = explicit.to_vec();
        match access {
            Access::All => deps.extend(self.pending.keys().copied()),
            Access::Declared { reads, writes } => {
                if let Some(u) = self.last_universal {
                    deps.push(u);
                }
                for s in reads {
                    if let Some(&w) = self.last_writer.get(s) {
                        deps.push(w);
                    }
                }
                for s in writes {
                    if let Some(&w) = self.last_writer.get(s) {
                        deps.push(w);
                    }
                    if let Some(rs) = self.readers.get(s) {
                        deps.extend(rs.iter().copied());
                    }
                }
            }
        }
        deps.sort_unstable();
        deps.dedup();
        deps.retain(|d| self.pending.contains_key(d));
        deps
    }

    /// Records a new command's access sets in the hazard ledgers.
    fn record_access(&mut self, seq: u64, access: &Access) {
        match access {
            Access::All => self.last_universal = Some(seq),
            Access::Declared { reads, writes } => {
                for &s in writes {
                    self.last_writer.insert(s, seq);
                    self.readers.remove(&s);
                }
                for &s in reads {
                    self.readers.entry(s).or_default().push(seq);
                }
            }
        }
    }

    fn insert(&mut self, cmd: Command) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.record_access(seq, &cmd.access);
        self.pending.insert(seq, cmd);
        seq
    }

    fn is_ready(&self, seq: u64, cmd: &Command) -> bool {
        !self.running.contains(&seq)
            && cmd.foreign_pending == 0
            && cmd.deps.iter().all(|d| !self.pending.contains_key(d))
    }

    /// Commands not yet completed (pending + running) — the load signal
    /// behind [`crate::DeviceGroup`]'s least-loaded placement.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Every ready host-side (non-launch) command, in enqueue order.
    /// Ready commands are pairwise hazard-independent, so this order only
    /// decides who gets their event resolved first.
    fn ready_host_commands(&self) -> Vec<u64> {
        // BTreeMap iteration order: ascending by seq.
        self.pending
            .iter()
            .filter(|(&seq, cmd)| !cmd.kind.is_launch() && self.is_ready(seq, cmd))
            .map(|(&seq, _)| seq)
            .collect()
    }

    /// The ready launch a free worker should pick next: the first in
    /// enqueue order.
    fn pick_ready_launch(&self) -> Option<u64> {
        self.pending
            .iter()
            .find(|(&seq, cmd)| cmd.kind.is_launch() && self.is_ready(seq, cmd))
            .map(|(&seq, _)| seq)
    }

    fn complete(&mut self, seq: u64, slot: EventSlot) {
        self.pending.remove(&seq);
        self.running.remove(&seq);
        // No live event handle means nobody can ever observe the result.
        if self.event_refs.contains_key(&seq) {
            self.finished.insert(seq, slot);
        }
    }

    /// Registers a completion callback for a still-pending command. The
    /// caller ([`Event::on_complete`]) has already verified `seq` is
    /// pending and the device is not shutting down — callbacks for
    /// settled commands fire immediately on the registering thread
    /// instead of going through this ledger.
    pub(crate) fn add_callback(&mut self, seq: u64, cb: CompletionCallback) {
        self.callbacks.entry(seq).or_default().push(cb);
    }

    /// Takes the callbacks of a command that just settled (empty for
    /// most commands). Exactly-once: whichever completion path gets here
    /// first owns the batch.
    pub(crate) fn take_callbacks(&mut self, seq: u64) -> Vec<CompletionCallback> {
        self.callbacks.remove(&seq).unwrap_or_default()
    }

    /// Takes every remaining callback — the device-shutdown path, where
    /// pending commands will never run and their callbacks must fire
    /// with [`SimError::DeviceLost`].
    pub(crate) fn take_all_callbacks(&mut self) -> Vec<CompletionCallback> {
        self.callbacks.drain().flat_map(|(_, cbs)| cbs).collect()
    }

    /// Registers the first [`Event`] handle of a fresh command.
    fn track_event(&mut self, seq: u64) {
        self.event_refs.insert(seq, 1);
    }

    /// Called by [`Event::clone`].
    pub(crate) fn retain_event(&mut self, seq: u64) {
        if let Some(n) = self.event_refs.get_mut(&seq) {
            *n += 1;
        }
    }

    /// Called by [`Event`]'s drop: the last handle going away frees the
    /// command's stored result.
    pub(crate) fn release_event(&mut self, seq: u64) {
        if let Some(n) = self.event_refs.get_mut(&seq) {
            *n -= 1;
            if *n == 0 {
                self.event_refs.remove(&seq);
                self.finished.remove(&seq);
            }
        }
    }

    /// Cancels every not-yet-running pending command of `queue`,
    /// resolving their events to [`SimError::QueueReleased`]. Running
    /// commands complete normally. Dependents of a cancelled command are
    /// *not* cancelled — a cancelled dependency counts as satisfied.
    ///
    /// Returns the cancelled commands' completion callbacks; the caller
    /// fires them with [`SimError::QueueReleased`] after releasing the
    /// device lock.
    pub(crate) fn cancel_queue(&mut self, queue: u64, now: Duration) -> Vec<CompletionCallback> {
        let doomed: Vec<u64> = self
            .pending
            .iter()
            .filter(|(seq, cmd)| cmd.queue == queue && !self.running.contains(seq))
            .map(|(&seq, _)| seq)
            .collect();
        let mut callbacks = Vec::new();
        for seq in doomed {
            let cmd = self.pending.remove(&seq).expect("collected above");
            callbacks.extend(self.take_callbacks(seq));
            let slot = EventSlot {
                result: Err(SimError::QueueReleased { queue }),
                timing: EventTiming {
                    queued: cmd.queued_at,
                    started: now,
                    ended: now,
                },
            };
            if self.event_refs.contains_key(&seq) {
                self.finished.insert(seq, slot);
            }
        }
        callbacks
    }
}

/// A command queue on a [`crate::Device`].
///
/// Created with [`crate::Device::create_queue`]; any number of queues may
/// coexist on one device and their commands may overlap (subject to event
/// and hazard ordering — see the module docs). The queue holds only a
/// *weak* device handle: commands enqueued after the device is dropped
/// fail with [`SimError::DeviceLost`].
///
/// Dropping (or [`Queue::release`]-ing) a queue **cancels** its pending
/// commands — call [`Queue::finish`] or wait on the events first if the
/// work must run.
///
/// # Examples
///
/// ```
/// use kp_gpu_sim::{BufferId, BufferUse, Device, DeviceConfig, ItemCtx, Kernel, NdRange};
///
/// struct Double { src: BufferId, dst: BufferId }
///
/// impl Kernel for Double {
///     fn name(&self) -> &str { "double" }
///     fn buffer_usage(&self) -> Option<BufferUse> {
///         Some(BufferUse::new([self.src], [self.dst]))
///     }
///     fn run_phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>) {
///         let i = ctx.global_id(0);
///         let v: f32 = ctx.read_global(self.src, i);
///         ctx.write_global(self.dst, i, 2.0 * v);
///         ctx.ops(1);
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut dev = Device::new(DeviceConfig::test_tiny())?;
/// let src = dev.create_buffer_from("src", &[1.0f32, 2.0, 3.0, 4.0])?;
/// let dst = dev.create_buffer::<f32>("dst", 4)?;
///
/// let q = dev.create_queue();
/// let launch = q.enqueue_launch(Double { src, dst }, NdRange::new_1d(4, 4)?, &[])?;
/// // The read is hazard-ordered after the launch automatically; the
/// // explicit wait-list is optional documentation.
/// let read = q.enqueue_read::<f32>(dst, &[launch.clone()])?;
///
/// let report = launch.wait_report()?;
/// assert_eq!(read.wait_read::<f32>()?, vec![2.0, 4.0, 6.0, 8.0]);
/// assert_eq!(report.groups, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Queue {
    pub(crate) shared: Weak<DeviceShared>,
    pub(crate) id: u64,
}

impl Queue {
    /// This queue's device-unique id (used in [`SimError::QueueReleased`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    fn upgrade(&self) -> Result<Arc<DeviceShared>, SimError> {
        self.shared.upgrade().ok_or(SimError::DeviceLost)
    }

    /// Splits a wait-list into same-device dependencies (seq numbers, fed
    /// to the hazard scheduler directly) and foreign events (events on
    /// *other* devices — e.g. other members of a [`crate::DeviceGroup`]).
    /// Each foreign event gets a bridge thread at enqueue time that waits
    /// for it to settle and then unblocks the command.
    fn check_wait_list(&self, wait: &[Event]) -> (Vec<u64>, Vec<Event>) {
        let mut seqs = Vec::with_capacity(wait.len());
        let mut foreign = Vec::new();
        for e in wait {
            if Weak::ptr_eq(&e.shared, &self.shared) {
                seqs.push(e.seq);
            } else {
                foreign.push(e.clone());
            }
        }
        (seqs, foreign)
    }

    fn event(&self, seq: u64) -> Event {
        Event {
            shared: self.shared.clone(),
            seq,
            queue: self.id,
        }
    }

    /// Enqueues a kernel launch and returns its event. The launch is
    /// validated (geometry, resources, declared buffers) immediately;
    /// execution starts **eagerly** — a background pool worker picks the
    /// command up as soon as its dependencies have completed, typically
    /// long before anything is waited on (see the module docs).
    ///
    /// If the kernel declares [`Kernel::buffer_usage`], the launch may
    /// overlap with commands touching disjoint buffers; otherwise it is
    /// conservatively ordered against everything.
    ///
    /// # Errors
    ///
    /// [`SimError::DeviceLost`], [`SimError::Launch`] for geometry or
    /// resource violations, [`SimError::UnknownBuffer`] for a declared
    /// buffer that does not exist. Kernel faults surface later, through
    /// the event.
    pub fn enqueue_launch<K>(
        &self,
        kernel: K,
        range: NdRange,
        wait: &[Event],
    ) -> Result<Event, SimError>
    where
        K: Kernel + Send + Sync + 'static,
    {
        let shared = self.upgrade()?;
        let (explicit, foreign) = self.check_wait_list(wait);
        let mut st = shared.state.lock().expect("device state poisoned");
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
        let (plan, setup) = crate::device::prepare_launch(
            &mut st,
            kernel.name(),
            kernel.phases(),
            kernel.local_buffers(),
            range,
        )?;
        let seq = self.insert_command(
            &shared,
            &mut st,
            access,
            explicit,
            foreign,
            CommandKind::Launch {
                kernel: Arc::new(kernel),
                range,
                plan,
                setup,
            },
        );
        Ok(self.event(seq))
    }

    /// Enqueues a read of `buffer` into host memory; the data is retrieved
    /// with [`Event::wait_read`].
    ///
    /// # Errors
    ///
    /// [`SimError::DeviceLost`], [`SimError::UnknownBuffer`],
    /// [`SimError::BufferKind`].
    pub fn enqueue_read<T: Scalar>(
        &self,
        buffer: BufferId,
        wait: &[Event],
    ) -> Result<Event, SimError> {
        let shared = self.upgrade()?;
        let (explicit, foreign) = self.check_wait_list(wait);
        let mut st = shared.state.lock().expect("device state poisoned");
        let raw = st
            .bufs
            .get(buffer.index())
            .and_then(Option::as_ref)
            .ok_or(SimError::UnknownBuffer(buffer))?;
        if raw.kind != T::KIND {
            return Err(SimError::BufferKind {
                buffer,
                expected: T::KIND,
                actual: raw.kind,
            });
        }
        let access = Access::Declared {
            reads: vec![buffer.index()],
            writes: vec![],
        };
        let seq = self.insert_command(
            &shared,
            &mut st,
            access,
            explicit,
            foreign,
            CommandKind::Read { buffer },
        );
        Ok(self.event(seq))
    }

    /// Enqueues an overwrite of `buffer` with `data` (copied out
    /// immediately, like OpenCL's blocking-write of the host pointer).
    ///
    /// # Errors
    ///
    /// [`SimError::DeviceLost`], [`SimError::UnknownBuffer`],
    /// [`SimError::BufferKind`], [`SimError::SizeMismatch`].
    pub fn enqueue_write<T: Scalar>(
        &self,
        buffer: BufferId,
        data: &[T],
        wait: &[Event],
    ) -> Result<Event, SimError> {
        let shared = self.upgrade()?;
        let (explicit, foreign) = self.check_wait_list(wait);
        let mut st = shared.state.lock().expect("device state poisoned");
        let raw = st
            .bufs
            .get(buffer.index())
            .and_then(Option::as_ref)
            .ok_or(SimError::UnknownBuffer(buffer))?;
        if raw.kind != T::KIND {
            return Err(SimError::BufferKind {
                buffer,
                expected: T::KIND,
                actual: raw.kind,
            });
        }
        if raw.len() != data.len() {
            return Err(SimError::SizeMismatch {
                buffer,
                buffer_len: raw.len(),
                data_len: data.len(),
            });
        }
        let access = Access::Declared {
            reads: vec![],
            writes: vec![buffer.index()],
        };
        let bits = data.iter().map(|v| v.to_bits64()).collect();
        let seq = self.insert_command(
            &shared,
            &mut st,
            access,
            explicit,
            foreign,
            CommandKind::Write {
                slot: buffer.index(),
                bits,
            },
        );
        Ok(self.event(seq))
    }

    /// Enqueues a device-side copy of `src` into `dst`.
    ///
    /// # Errors
    ///
    /// [`SimError::DeviceLost`], [`SimError::UnknownBuffer`],
    /// [`SimError::BufferKind`], [`SimError::SizeMismatch`].
    pub fn enqueue_copy(
        &self,
        src: BufferId,
        dst: BufferId,
        wait: &[Event],
    ) -> Result<Event, SimError> {
        let shared = self.upgrade()?;
        let (explicit, foreign) = self.check_wait_list(wait);
        let mut st = shared.state.lock().expect("device state poisoned");
        let src_raw = st
            .bufs
            .get(src.index())
            .and_then(Option::as_ref)
            .ok_or(SimError::UnknownBuffer(src))?;
        let (src_kind, src_len) = (src_raw.kind, src_raw.len());
        let dst_raw = st
            .bufs
            .get(dst.index())
            .and_then(Option::as_ref)
            .ok_or(SimError::UnknownBuffer(dst))?;
        if dst_raw.kind != src_kind {
            return Err(SimError::BufferKind {
                buffer: dst,
                expected: src_kind,
                actual: dst_raw.kind,
            });
        }
        if dst_raw.len() != src_len {
            return Err(SimError::SizeMismatch {
                buffer: dst,
                buffer_len: dst_raw.len(),
                data_len: src_len,
            });
        }
        let access = Access::Declared {
            reads: vec![src.index()],
            writes: vec![dst.index()],
        };
        let seq = self.insert_command(
            &shared,
            &mut st,
            access,
            explicit,
            foreign,
            CommandKind::Copy {
                src: src.index(),
                dst: dst.index(),
            },
        );
        Ok(self.event(seq))
    }

    fn insert_command(
        &self,
        shared: &Arc<DeviceShared>,
        st: &mut MutexGuard<'_, DeviceState>,
        access: Access,
        explicit: Vec<u64>,
        foreign: Vec<Event>,
        kind: CommandKind,
    ) -> u64 {
        let deps = st.sched.collect_deps(&access, &explicit);
        let profiling = st.profiling;
        let seq = st.sched.insert(Command {
            queue: self.id,
            deps,
            foreign_pending: foreign.len(),
            access,
            kind,
            queued_at: shared.epoch.elapsed(),
            profiling,
        });
        st.sched.track_event(seq);
        // Cross-device waits: one bridge thread per foreign event waits
        // for the event to settle on its own device, then unblocks this
        // command. *Any* settled outcome counts as satisfied — completion,
        // cancellation, or a lost device — matching the cancelled-dep
        // semantics of same-device waits. Bridges go in the dedicated
        // bridge list (NOT `workers`: `ensure_workers` sizes the pool by
        // that list's length) so `Device::drop` reaps them; no deadlock
        // is possible because the cross-device wait graph only points at
        // already-created events (a DAG) and every device's drop/shutdown
        // wakes its waiters.
        for e in foreign {
            let local = Arc::clone(shared);
            let handle = std::thread::Builder::new()
                .name("kp-sim-bridge".into())
                .spawn(move || {
                    if let Some(theirs) = e.shared.upgrade() {
                        wait_seq(&theirs, e.seq);
                    }
                    let mut st = local.state.lock().expect("device state poisoned");
                    if let Some(cmd) = st.sched.pending.get_mut(&seq) {
                        cmd.foreign_pending -= 1;
                    }
                    drop(st);
                    local.cv.notify_all();
                })
                .expect("spawn cross-device bridge");
            st.bridges.push(handle);
        }
        // Eager execution: make sure the worker pool exists and wake it —
        // the command starts as soon as its dependencies are done, not
        // when somebody waits.
        ensure_workers(shared, st);
        shared.cv.notify_all();
        seq
    }

    /// Blocks until every still-pending command of this queue has
    /// completed (their dependencies on other queues complete first by
    /// construction). A pure join — the worker pool is already executing
    /// eagerly. Per-command outcomes — including kernel faults — stay on
    /// the individual events.
    ///
    /// # Errors
    ///
    /// [`SimError::DeviceLost`].
    pub fn finish(&self) -> Result<(), SimError> {
        let shared = self.upgrade()?;
        let mut st = shared.state.lock().expect("device state poisoned");
        while !st.shutdown && st.sched.pending.values().any(|cmd| cmd.queue == self.id) {
            st = shared.cv.wait(st).expect("device state poisoned");
        }
        if st.shutdown {
            return Err(SimError::DeviceLost);
        }
        Ok(())
    }

    /// Releases the queue, cancelling its pending commands (their events
    /// resolve to [`SimError::QueueReleased`]). Equivalent to dropping it;
    /// provided for explicitness at call sites.
    pub fn release(self) {}
}

impl Drop for Queue {
    fn drop(&mut self) {
        if let Some(shared) = self.shared.upgrade() {
            let now = shared.epoch.elapsed();
            let mut st = shared.state.lock().expect("device state poisoned");
            let callbacks = st.sched.cancel_queue(self.id, now);
            drop(st);
            shared.cv.notify_all();
            fire_callbacks(callbacks, &Err(SimError::QueueReleased { queue: self.id }));
        }
    }
}

/// Everything a worker needs to run one launch command without holding
/// the device lock.
struct LaunchRun {
    seq: u64,
    kernel: Arc<dyn Kernel + Send + Sync>,
    range: NdRange,
    plan: Arc<LaunchPlan>,
    setup: LaunchSetup,
    snapshot: BufTable,
    mask: Option<AccessMask>,
    cfg: DeviceConfig,
    profiling: bool,
    workers: usize,
    queued_at: Duration,
    started: Duration,
}

/// Tops the device's persistent worker pool up to
/// [`resolve_parallelism`]`(cfg.parallelism)` threads. Called on every
/// enqueue (so the pool appears lazily, on first use, and grows if
/// [`crate::Device::set_parallelism`] raised the budget); it never
/// shrinks — surplus workers just park until the device drops.
pub(crate) fn ensure_workers(shared: &Arc<DeviceShared>, st: &mut MutexGuard<'_, DeviceState>) {
    if st.shutdown {
        return;
    }
    let target = resolve_parallelism(st.cfg.parallelism).max(1);
    while st.workers.len() < target {
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("kp-sim-worker".into())
            .spawn(move || worker_loop(&shared))
            .expect("spawn command-queue worker");
        st.workers.push(handle);
    }
}

/// Body of one persistent pool worker: park on the device condvar until
/// a command is ready, execute it, publish its event, repeat — until the
/// device shuts down. Host-side commands (reads/writes/copies) are
/// executed in batches under the lock; launches release the lock for the
/// duration of kernel execution.
fn worker_loop(shared: &Arc<DeviceShared>) {
    let mut st = shared.state.lock().expect("device state poisoned");
    loop {
        if st.shutdown {
            return;
        }
        // Host-side commands are cheap: resolve every ready one right
        // here, in enqueue order, before considering launches — they
        // never pile up behind a launch while any worker is free (with
        // every worker mid-launch they wait for the first to retire;
        // waits are pure joins and never execute commands themselves).
        let ready_host = st.sched.ready_host_commands();
        if !ready_host.is_empty() {
            let mut settled = Vec::new();
            for seq in ready_host {
                if let Some(batch) = execute_instant(shared, &mut st, seq) {
                    settled.push(batch);
                }
            }
            // Completions may have unblocked dependents (and waiters).
            shared.cv.notify_all();
            // Completion callbacks fire with the lock released (the
            // no-lock-held guarantee), after waiters were notified.
            if !settled.is_empty() {
                drop(st);
                for (callbacks, outcome) in settled {
                    fire_callbacks(callbacks, &outcome);
                }
                st = shared.state.lock().expect("device state poisoned");
            }
            continue;
        }
        // The *current* parallelism knob bounds how many commands run
        // concurrently — enforced here, not by pool size, so lowering
        // the knob after the pool has grown still takes effect (surplus
        // workers park until a running launch retires).
        let budget = resolve_parallelism(st.cfg.parallelism).max(1);
        if st.sched.running.len() >= budget {
            st = shared.cv.wait(st).expect("device state poisoned");
            continue;
        }
        match st.sched.pick_ready_launch() {
            Some(seq) => {
                // Divide the in-launch sharding budget across the
                // launches currently running AND the ones other workers
                // are about to pick (the still-ready set, which includes
                // this one), so overlapping two simultaneously ready
                // launches on an 8-worker device shards each over 4
                // threads — never slower than serializing them at 8. A
                // lone launch gets the full budget, exactly like the
                // blocking frontends; a launch enqueued *later*, while a
                // wide one is already running, may transiently
                // oversubscribe the budget until the wide launch
                // retires (results are unaffected; only scheduling
                // noise).
                let ready_launches = st
                    .sched
                    .pending
                    .iter()
                    .filter(|(&s, cmd)| cmd.kind.is_launch() && st.sched.is_ready(s, cmd))
                    .count();
                let inflight = st.sched.running.len() + ready_launches.max(1);
                let share = (budget / inflight).max(1);
                let run = prepare_launch_run(shared, &mut st, seq, share);
                drop(st);
                execute_launch(shared, run);
                st = shared.state.lock().expect("device state poisoned");
            }
            // Nothing ready: park until an enqueue, a completion or
            // shutdown changes that. A lost-progress deadlock is
            // impossible — dependencies always point at strictly earlier
            // sequence numbers, so some pending command is always ready
            // or running.
            None => st = shared.cv.wait(st).expect("device state poisoned"),
        }
    }
}

/// Blocks until command `seq` has left the pending map (completed or
/// cancelled) or the device shut down. Pure join: execution is the
/// worker pool's job.
pub(crate) fn wait_seq(shared: &Arc<DeviceShared>, seq: u64) {
    let mut st = shared.state.lock().expect("device state poisoned");
    while !st.shutdown && st.sched.pending.contains_key(&seq) {
        st = shared.cv.wait(st).expect("device state poisoned");
    }
}

/// Marks a ready launch as running and captures everything its execution
/// needs: kernel handle, plan, a snapshot of the buffer table, and the
/// access mask compiled from its declared usage.
fn prepare_launch_run(
    shared: &Arc<DeviceShared>,
    st: &mut MutexGuard<'_, DeviceState>,
    seq: u64,
    workers: usize,
) -> LaunchRun {
    st.sched.running.insert(seq);
    let cmd = st.sched.pending.get(&seq).expect("picked from pending");
    let mask = match &cmd.access {
        Access::All => None,
        Access::Declared { reads, writes } => Some(AccessMask::new(st.bufs.len(), reads, writes)),
    };
    let CommandKind::Launch {
        kernel,
        range,
        plan,
        setup,
    } = &cmd.kind
    else {
        unreachable!("prepare_launch_run called on a non-launch command")
    };
    LaunchRun {
        seq,
        kernel: Arc::clone(kernel),
        range: *range,
        plan: Arc::clone(plan),
        setup: LaunchSetup {
            local_specs: setup.local_specs.clone(),
            phases: setup.phases,
            occ: setup.occ,
        },
        snapshot: st.bufs.clone(),
        mask: mask.clone(),
        cfg: st.cfg.clone(),
        profiling: cmd.profiling,
        workers: workers.min(plan.group_coords.len()).max(1),
        queued_at: cmd.queued_at,
        started: shared.epoch.elapsed(),
    }
}

/// Runs one launch command (device lock *not* held), then applies its
/// writes and publishes its event under the lock.
///
/// A panicking kernel must not kill the pool worker executing it (a dead
/// worker would strand every waiter), so execution is wrapped in
/// `catch_unwind`: the panic becomes a typed [`SimError::Launch`] on the
/// event, no writes are applied, and the worker lives on.
fn execute_launch(shared: &Arc<DeviceShared>, run: LaunchRun) {
    let (seq, queued_at, started) = (run.seq, run.queued_at, run.started);
    let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let mut run = run;
        let (outcomes, entries) = if run.workers <= 1 {
            engine::execute_groups_serial(
                &*run.kernel,
                &run.cfg,
                &run.plan,
                &run.setup,
                &mut run.snapshot,
                run.profiling,
                run.mask.as_ref(),
            )
        } else {
            execute_groups_span(
                &*run.kernel,
                &run.cfg,
                &run.plan,
                &run.setup,
                &run.snapshot,
                run.profiling,
                run.workers,
                run.mask.as_ref(),
                0,
                run.plan.group_coords.len(),
            )
        };
        let result = engine::reduce_outcomes(
            run.kernel.name(),
            &run.cfg,
            run.profiling,
            &run.range,
            &run.setup,
            outcomes,
        )
        .map(|report| CommandResult::Launch(Box::new(report)));
        // Drop the private snapshot before applying so unshared buffers
        // are written in place rather than copy-on-write.
        drop(run.snapshot);
        (result, entries)
    }));
    let (result, entries) = match executed {
        Ok((result, entries)) => (result, entries),
        Err(_) => (
            Err(SimError::Launch(
                "kernel panicked during a queued launch; no writes were applied".into(),
            )),
            Vec::new(),
        ),
    };
    let mut st = shared.state.lock().expect("device state poisoned");
    engine::apply_writes(&entries, &mut st.bufs);
    let outcome = result.as_ref().map(|_| ()).map_err(Clone::clone);
    let callbacks = st.sched.take_callbacks(seq);
    st.sched.complete(
        seq,
        EventSlot {
            result,
            timing: EventTiming {
                queued: queued_at,
                started,
                ended: shared.epoch.elapsed(),
            },
        },
    );
    drop(st);
    shared.cv.notify_all();
    // The no-lock-held guarantee of `Event::on_complete`: callbacks run
    // on the resolving worker *after* the lock is released and waiters
    // are notified, so a callback may freely enqueue follow-up commands
    // or wait on other events without deadlocking.
    fire_callbacks(callbacks, &outcome);
}

/// Executes a host-side command (read/write/copy) under the device lock.
/// Returns the command's completion callbacks (if any) paired with its
/// outcome — the caller fires them once the lock is released.
fn execute_instant(
    shared: &Arc<DeviceShared>,
    st: &mut MutexGuard<'_, DeviceState>,
    seq: u64,
) -> Option<(Vec<CompletionCallback>, Result<(), SimError>)> {
    let started = shared.epoch.elapsed();
    let cmd = st.sched.pending.remove(&seq).expect("picked from pending");
    let result = match cmd.kind {
        CommandKind::Read { buffer } => {
            // O(1) under the lock: keep an `Arc` to the buffer version at
            // execution time. Later writers copy-on-write around it, so
            // the snapshot stays exact; `wait_read` materializes the host
            // vector outside the lock.
            let raw = st.bufs[buffer.index()]
                .as_ref()
                .expect("validated at enqueue; releases drain first");
            Ok(CommandResult::Read {
                buffer,
                snapshot: Some(Arc::clone(raw)),
            })
        }
        CommandKind::Write { slot, bits } => {
            let raw = st.bufs[slot]
                .as_mut()
                .expect("validated at enqueue; releases drain first");
            Arc::make_mut(raw).data = bits;
            Ok(CommandResult::Write)
        }
        CommandKind::Copy { src, dst } => {
            let data = st.bufs[src]
                .as_ref()
                .expect("validated at enqueue; releases drain first")
                .data
                .clone();
            let raw = st.bufs[dst]
                .as_mut()
                .expect("validated at enqueue; releases drain first");
            Arc::make_mut(raw).data = data;
            Ok(CommandResult::Copy)
        }
        CommandKind::Launch { .. } => unreachable!("launches are not instant commands"),
    };
    st.sched.running.remove(&seq);
    let outcome = result.as_ref().map(|_| ()).map_err(Clone::clone);
    let callbacks = st.sched.take_callbacks(seq);
    let slot = EventSlot {
        result,
        timing: EventTiming {
            queued: cmd.queued_at,
            started,
            ended: shared.epoch.elapsed(),
        },
    };
    if st.sched.event_refs.contains_key(&seq) {
        st.sched.finished.insert(seq, slot);
    }
    if callbacks.is_empty() {
        None
    } else {
        Some((callbacks, outcome))
    }
}

/// Blocks until every pending command of the device has completed (used
/// by the blocking `Device` shims before they touch buffers directly).
/// Pure join: the worker pool is already executing eagerly.
pub(crate) fn drain_all(shared: &Arc<DeviceShared>) {
    let mut st = shared.state.lock().expect("device state poisoned");
    while !st.shutdown && st.sched.has_pending() {
        st = shared.cv.wait(st).expect("device state poisoned");
    }
}
