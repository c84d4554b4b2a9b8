//! Test kernels shared by several suites.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kp_gpu_sim::{BufferId, BufferUse, ItemCtx, Kernel};

/// How long one work item waits for the other parties before giving up.
const RENDEZVOUS_WAIT: Duration = Duration::from_secs(10);

/// A concurrency probe. Every work item registers on a shared counter,
/// then waits (at most [`RENDEZVOUS_WAIT`]) until `parties` items have
/// arrived, and writes `1.0` to `out[global_id]` if they all did or `0.0`
/// if the wait timed out. Items can only all meet if they run at the same
/// time, so an all-ones output proves real concurrency on any core count
/// without a timing threshold, and a serialized schedule fails after the
/// bounded wait instead of hanging.
pub struct Rendezvous {
    pub out: BufferId,
    pub arrived: Arc<AtomicUsize>,
    pub parties: usize,
}

impl Kernel for Rendezvous {
    fn name(&self) -> &str {
        "rendezvous"
    }

    fn buffer_usage(&self) -> Option<BufferUse> {
        Some(BufferUse::new([], [self.out]))
    }

    fn run_phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>) {
        self.arrived.fetch_add(1, Ordering::AcqRel);
        let deadline = Instant::now() + RENDEZVOUS_WAIT;
        let met = loop {
            if self.arrived.load(Ordering::Acquire) >= self.parties {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_micros(100));
        };
        ctx.write_global(self.out, ctx.global_id(0), if met { 1.0f32 } else { 0.0 });
    }
}
