//! Events: completion handles for enqueued commands.
//!
//! Every `enqueue_*` call on a [`crate::Queue`] returns an [`Event`].
//! Events serve three purposes, mirroring OpenCL's `cl_event`:
//!
//! * **synchronization** — [`Event::wait`] blocks until the command has
//!   completed (execution is eager: the device's persistent worker pool
//!   starts commands as soon as their dependencies clear, so a wait is a
//!   pure join, never a trigger);
//! * **ordering** — events go into the wait-lists of later `enqueue_*`
//!   calls, adding explicit edges to the scheduler's dependency DAG on top
//!   of the inferred buffer hazards;
//! * **results & profiling** — [`Event::wait_report`] /
//!   [`Event::wait_read`] retrieve a launch's [`LaunchReport`] or a read's
//!   data, and [`Event::timing`] exposes per-command queued/start/end
//!   timestamps (host wall clock, relative to device creation) without any
//!   device-wide profiling toggles.
//!
//! Events are cheap to clone and hold only a weak device handle: they
//! never keep a dropped [`crate::Device`] alive, and using one afterwards
//! yields [`SimError::DeviceLost`] rather than a panic.

use std::sync::Weak;
use std::time::Duration;

use crate::buffer::Scalar;
use crate::device::DeviceShared;
use crate::error::SimError;
use crate::queue::{fire_callbacks, wait_seq, CommandResult, CompletionCallback};
use crate::stats::LaunchReport;

/// Per-command wall-clock timestamps, relative to device creation.
///
/// These profile the *host-side scheduler* (when the command was enqueued,
/// picked up and completed), complementing the simulated-GPU cycle model
/// in [`LaunchReport`]. They are real wall-clock measurements and — unlike
/// every functional result — are **not** part of the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventTiming {
    /// When the command was enqueued.
    pub queued: Duration,
    /// When a worker picked the command up for execution.
    pub started: Duration,
    /// When the command completed.
    pub ended: Duration,
}

impl EventTiming {
    /// Time the command spent waiting in the stream (dependencies and
    /// worker availability — with the eager pool this is pure scheduling
    /// delay, not laziness).
    pub fn queue_delay(&self) -> Duration {
        self.started.saturating_sub(self.queued)
    }

    /// Host wall-clock time the command spent executing.
    pub fn execution(&self) -> Duration {
        self.ended.saturating_sub(self.started)
    }
}

/// Completion handle for one enqueued command (see the module docs).
///
/// Handles are counted: a command's stored result (report or read-back
/// snapshot) is freed when its last event clone drops, so reusing one
/// device for millions of commands does not accumulate results.
#[derive(Debug)]
pub struct Event {
    pub(crate) shared: Weak<DeviceShared>,
    pub(crate) seq: u64,
}

impl Clone for Event {
    fn clone(&self) -> Self {
        if let Some(shared) = self.shared.upgrade() {
            let mut st = shared.state.lock().expect("device state poisoned");
            st.sched.retain_event(self.seq);
        }
        Self {
            shared: self.shared.clone(),
            seq: self.seq,
        }
    }
}

impl Drop for Event {
    fn drop(&mut self) {
        if let Some(shared) = self.shared.upgrade() {
            let mut st = shared.state.lock().expect("device state poisoned");
            st.sched.release_event(self.seq);
        }
    }
}

impl Event {
    /// The command's device-wide sequence number (its position in enqueue
    /// order) — useful in logs.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    fn complete(&self) -> Result<std::sync::Arc<DeviceShared>, SimError> {
        let shared = self.shared.upgrade().ok_or(SimError::DeviceLost)?;
        wait_seq(&shared, self.seq);
        Ok(shared)
    }

    /// Waits for the command to complete — a pure blocking join.
    /// Execution is eager: the device's persistent worker pool started
    /// the command (and its dependencies) the moment they became ready,
    /// so by the time host code waits, the work is typically already in
    /// flight or done. The [`Event::timing`] timestamps record exactly
    /// that schedule.
    ///
    /// # Errors
    ///
    /// [`SimError::DeviceLost`], [`SimError::QueueReleased`] if the
    /// owning queue was released before the command ran, or the command's
    /// own failure (e.g. [`SimError::KernelFaults`]).
    pub fn wait(&self) -> Result<(), SimError> {
        let shared = self.complete()?;
        let st = shared.state.lock().expect("device state poisoned");
        match st.sched.event_slot(self.seq) {
            Some(slot) => slot.result.as_ref().map(|_| ()).map_err(Clone::clone),
            None => Err(SimError::DeviceLost),
        }
    }

    /// Waits for a launch command and returns its [`LaunchReport`].
    ///
    /// # Errors
    ///
    /// As [`Event::wait`]; additionally [`SimError::EventResult`] if this
    /// event does not belong to a launch.
    pub fn wait_report(&self) -> Result<LaunchReport, SimError> {
        let shared = self.complete()?;
        let st = shared.state.lock().expect("device state poisoned");
        match st.sched.event_slot(self.seq) {
            Some(slot) => match &slot.result {
                Ok(CommandResult::Launch(report)) => Ok((**report).clone()),
                Ok(other) => Err(SimError::EventResult {
                    expected: "launch report",
                    actual: other.describe(),
                }),
                Err(e) => Err(e.clone()),
            },
            None => Err(SimError::DeviceLost),
        }
    }

    /// Waits for a read command and returns its data.
    ///
    /// The data is *moved out* of the event on the first call (large
    /// read-backs are not retained for the device's lifetime); a second
    /// `wait_read` on the same command returns [`SimError::EventResult`].
    ///
    /// # Errors
    ///
    /// As [`Event::wait`]; additionally [`SimError::EventResult`] for a
    /// non-read event or an already-taken result and
    /// [`SimError::BufferKind`] if `T` does not match the buffer.
    pub fn wait_read<T: Scalar>(&self) -> Result<Vec<T>, SimError> {
        let shared = self.complete()?;
        let snapshot = {
            let mut st = shared.state.lock().expect("device state poisoned");
            match st.sched.event_slot_mut(self.seq) {
                Some(slot) => match &mut slot.result {
                    Ok(CommandResult::Read { buffer, snapshot }) => {
                        if snapshot.as_deref().is_some_and(|raw| raw.kind != T::KIND) {
                            return Err(SimError::BufferKind {
                                buffer: *buffer,
                                expected: T::KIND,
                                actual: snapshot.as_deref().expect("checked above").kind,
                            });
                        }
                        match snapshot.take() {
                            Some(raw) => raw,
                            None => {
                                return Err(SimError::EventResult {
                                    expected: "read",
                                    actual: "read (already taken)",
                                })
                            }
                        }
                    }
                    Ok(other) => {
                        return Err(SimError::EventResult {
                            expected: "read",
                            actual: other.describe(),
                        })
                    }
                    Err(e) => return Err(e.clone()),
                },
                None => return Err(SimError::DeviceLost),
            }
        };
        // Materialize the host vector outside the device lock — the
        // snapshot `Arc` is immutable (later writers copy-on-write).
        Ok(snapshot.data.iter().map(|&b| T::from_bits64(b)).collect())
    }

    /// Waits for the command and returns its scheduler timestamps.
    /// Available for failed commands too (the timing of a faulting launch
    /// is still meaningful).
    ///
    /// # Errors
    ///
    /// [`SimError::DeviceLost`].
    pub fn timing(&self) -> Result<EventTiming, SimError> {
        let shared = self.complete()?;
        let st = shared.state.lock().expect("device state poisoned");
        match st.sched.event_slot(self.seq) {
            Some(slot) => Ok(slot.timing),
            None => Err(SimError::DeviceLost),
        }
    }

    /// Non-parking readiness check: `None` while the command is still
    /// pending (queued or executing), `Some(outcome)` once it has
    /// settled — `Ok(())` for success, or the command's own failure
    /// (e.g. [`SimError::KernelFaults`]), [`SimError::QueueReleased`]
    /// for a cancelled command, [`SimError::DeviceLost`] if the device
    /// was (or is being) dropped first.
    ///
    /// `poll` never blocks beyond the device mutex: with eager execution
    /// the worker pool drives the command on its own, so a poll loop
    /// observes the same outcome a blocking [`Event::wait`] would —
    /// bit-identically, just without parking the calling thread.
    /// Completion *order* across events is scheduling-dependent;
    /// outcomes are not.
    pub fn poll(&self) -> Option<Result<(), SimError>> {
        let Some(shared) = self.shared.upgrade() else {
            return Some(Err(SimError::DeviceLost));
        };
        let st = shared.state.lock().expect("device state poisoned");
        if let Some(slot) = st.sched.event_slot(self.seq) {
            Some(slot.result.as_ref().map(|_| ()).map_err(Clone::clone))
        } else if st.shutdown || !st.sched.is_pending(self.seq) {
            // Shutdown in progress (the command will never run), or the
            // result slot was already discarded — either way the command
            // cannot be usefully observed anymore.
            Some(Err(SimError::DeviceLost))
        } else {
            None
        }
    }

    /// Registers `callback` to run **exactly once** when this command
    /// settles, receiving the same outcome [`Event::poll`] would report.
    ///
    /// Delivery:
    ///
    /// * A command that settles later fires the callback from the
    ///   resolving pool worker (or the thread dropping the queue/device),
    ///   with the device lock **not held** — the callback may enqueue
    ///   follow-up commands, wait on other events, or take its own locks
    ///   without deadlocking.
    /// * A command that has *already* settled (including on a dropped
    ///   device — the callback then gets [`SimError::DeviceLost`]) fires
    ///   the callback immediately on the calling thread, before
    ///   `on_complete` returns.
    /// * A panicking callback is caught: it never kills the resolving
    ///   worker, and remaining callbacks still fire.
    ///
    /// Callback *order* across commands follows the actual completion
    /// schedule and is not deterministic; every functional outcome it
    /// can observe is (see the crate docs' determinism argument).
    ///
    /// # Examples
    ///
    /// A serving loop harvests many in-flight commands through one
    /// channel: each callback sends its request's token and outcome, and
    /// the loop ends once every callback has run and dropped its sender.
    /// Only the draining thread parks, and only while nothing is ready.
    ///
    /// ```
    /// use std::sync::mpsc;
    ///
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
    /// let src = dev.create_buffer_from("src", &[1.0f32; 64])?;
    /// let dst = dev.create_buffer::<f32>("dst", 64)?;
    /// let queue = dev.create_queue();
    /// let (tx, rx) = mpsc::channel();
    /// for token in 0..4u64 {
    ///     let ev = queue.enqueue_launch(Double { src, dst }, NdRange::new_1d(64, 4)?, &[])?;
    ///     let tx = tx.clone();
    ///     ev.on_complete(move |result| {
    ///         let _ = tx.send((token, result));
    ///     });
    /// }
    /// drop(tx);
    /// let mut done = 0;
    /// for (_token, result) in rx {
    ///     result?;
    ///     done += 1;
    /// }
    /// assert_eq!(done, 4);
    /// # Ok(())
    /// # }
    /// ```
    pub fn on_complete<F>(&self, callback: F)
    where
        F: FnOnce(Result<(), SimError>) + Send + 'static,
    {
        let cb: CompletionCallback = Box::new(callback);
        let Some(shared) = self.shared.upgrade() else {
            fire_callbacks(vec![cb], &Err(SimError::DeviceLost));
            return;
        };
        let immediate = {
            let mut st = shared.state.lock().expect("device state poisoned");
            if !st.shutdown && st.sched.is_pending(self.seq) {
                st.sched.add_callback(self.seq, cb);
                None
            } else if let Some(slot) = st.sched.event_slot(self.seq) {
                Some((cb, slot.result.as_ref().map(|_| ()).map_err(Clone::clone)))
            } else {
                Some((cb, Err(SimError::DeviceLost)))
            }
        };
        if let Some((cb, outcome)) = immediate {
            fire_callbacks(vec![cb], &outcome);
        }
    }
}
