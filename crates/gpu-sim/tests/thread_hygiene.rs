//! Worker-pool thread hygiene.
//!
//! The persistent command-queue pool spawns up to
//! `resolve_parallelism(cfg.parallelism)` threads per device, lazily on
//! first enqueue, and `Device`'s drop must join every one of them — a
//! pool shutdown bug shows up here as a thread-count delta.
//!
//! Counting reads `/proc/self/task/*/comm` (Linux — the platform CI runs
//! on) and counts only the simulator's own threads, which are named
//! `kp-sim-*`: the test harness starts and ends its own threads at any
//! time. The tests also hold one lock each, so no test starts or stops a
//! pool while another is counting. Elsewhere the counting tests are
//! no-ops.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use kp_gpu_sim::{
    BufferId, BufferUse, Device, DeviceConfig, DeviceGroup, ItemCtx, Kernel, NdRange, SimError,
};

const BUF_LEN: usize = 64;

/// Spins until the test flips the gate, then writes its buffer — pins a
/// pool worker at a point the test controls so "registered while
/// pending" is deterministic.
struct Gated {
    buf: BufferId,
    gate: Arc<AtomicBool>,
}

impl Kernel for Gated {
    fn name(&self) -> &str {
        "gated"
    }

    fn buffer_usage(&self) -> Option<BufferUse> {
        Some(BufferUse::new([], [self.buf]))
    }

    fn run_phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>) {
        while !self.gate.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        ctx.write_global(self.buf, ctx.global_id(0), 1.0f32);
    }
}

/// Opens a gate when dropped — including during unwinding — so a failed
/// assertion can never leave a worker spinning and hang the test binary.
struct OpenOnDrop(Arc<AtomicBool>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Serializes the tests of this binary: each compares simulator-thread
/// counts across pool lifetimes, so no other test may run pools meanwhile.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the counts it guards stay valid.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Number of live simulator threads (the pool workers, the only threads
/// the simulator spawns), or `None` where `/proc/self/task` does not
/// exist.
fn thread_count() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("kp-sim-"))
            .count(),
    )
}

/// Polls the simulator-thread count until `done` accepts it, for at most
/// one second, and returns the last count. A thread spawned a moment ago
/// may not carry its name yet, and a joined one can linger in `/proc`
/// while the kernel finishes its exit; a leaked or missing thread stays.
fn thread_count_when(done: impl Fn(usize) -> bool) -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let n = thread_count().expect("/proc/self/task was readable before");
        if done(n) || Instant::now() >= deadline {
            return n;
        }
        std::thread::yield_now();
    }
}

/// The simulator-thread count a test starts from — zero once the threads
/// of earlier tests have finished exiting — or `None` where
/// `/proc/self/task` does not exist.
fn baseline() -> Option<usize> {
    thread_count()?;
    Some(thread_count_when(|n| n == 0))
}

struct Scale {
    src: BufferId,
    dst: BufferId,
}

impl Kernel for Scale {
    fn name(&self) -> &str {
        "scale"
    }

    fn buffer_usage(&self) -> Option<BufferUse> {
        Some(BufferUse::new([self.src], [self.dst]))
    }

    fn run_phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>) {
        let i = ctx.global_id(0);
        let v: f32 = ctx.read_global(self.src, i);
        ctx.write_global(self.dst, i, 2.0 * v);
        ctx.ops(1);
    }
}

fn busy_device(parallelism: usize, wait_before_drop: bool) {
    let mut cfg = DeviceConfig::test_tiny();
    cfg.parallelism = parallelism;
    let mut dev = Device::new(cfg).unwrap();
    let src = dev.create_buffer_from("s", &[1.0f32; BUF_LEN]).unwrap();
    let dst = dev.create_buffer::<f32>("d", BUF_LEN).unwrap();
    let q = dev.create_queue();
    let range = NdRange::new_1d(BUF_LEN, 16).unwrap();
    let mut events = Vec::new();
    for _ in 0..4 {
        events.push(q.enqueue_launch(Scale { src, dst }, range, &[]).unwrap());
    }
    if wait_before_drop {
        for ev in &events {
            ev.wait().unwrap();
        }
    }
    // Otherwise: drop with commands possibly still pending/running — the
    // queue drop cancels what has not started, the device drop joins the
    // pool either way.
}

#[test]
fn device_drop_joins_every_pool_worker() {
    let _serial = serial();
    let Some(baseline) = baseline() else {
        eprintln!("skipping: /proc/self/task not available on this platform");
        return;
    };

    // Sequential churn: many short-lived devices, waited and unwaited,
    // at several pool sizes (0 = auto, subject to KP_SIM_PARALLELISM in
    // CI).
    for round in 0..8 {
        for parallelism in [1, 2, 4, 0] {
            busy_device(parallelism, round % 2 == 0);
        }
    }
    let after_churn = thread_count_when(|n| n == baseline);
    assert_eq!(
        after_churn, baseline,
        "worker threads leaked after sequential device churn"
    );

    // Many devices alive at once, each with a live queue and enqueued
    // work, then dropped together.
    let mut live = Vec::new();
    for k in 0..6 {
        let mut cfg = DeviceConfig::test_tiny();
        cfg.parallelism = 2;
        let mut dev = Device::new(cfg).unwrap();
        let src = dev
            .create_buffer_from(&format!("s{k}"), &[1.0f32; BUF_LEN])
            .unwrap();
        let dst = dev.create_buffer::<f32>("d", BUF_LEN).unwrap();
        let q = dev.create_queue();
        let ev = q
            .enqueue_launch(
                Scale { src, dst },
                NdRange::new_1d(BUF_LEN, 16).unwrap(),
                &[],
            )
            .unwrap();
        live.push((dev, q, ev));
    }
    let with_pools = thread_count_when(|n| n >= baseline + 6);
    assert!(
        with_pools >= baseline + 6,
        "expected at least one pool worker per live device \
         (baseline {baseline}, with 6 live devices {with_pools})"
    );
    drop(live);
    let after_drop = thread_count_when(|n| n == baseline);
    assert_eq!(
        after_drop, baseline,
        "worker threads leaked after dropping devices with live queues"
    );
}

/// `DeviceGroup` churn: N pooled member devices per group, sharded
/// launches, plus a cross-member wait — construction and drop must leave
/// the process thread count untouched, and events held across the drop
/// must resolve to the typed [`SimError::DeviceLost`], never hang or
/// panic.
#[test]
fn device_group_drop_joins_member_pools_and_bridges() {
    let _serial = serial();
    let Some(baseline) = baseline() else {
        eprintln!("skipping: /proc/self/task not available on this platform");
        return;
    };

    let range = NdRange::new_1d(BUF_LEN, 16).unwrap();
    for round in 0..4 {
        for n in [1, 2, 4] {
            let mut cfg = DeviceConfig::test_tiny();
            cfg.parallelism = 2;
            let mut group = DeviceGroup::with_devices(cfg, n).unwrap();
            let src = group.create_buffer_from("s", &[1.0f32; BUF_LEN]).unwrap();
            let dst = group.create_buffer::<f32>("d", BUF_LEN).unwrap();
            group.launch_sharded(&Scale { src, dst }, range).unwrap();

            // A wait-list edge from the first member to the last is a
            // cross-device wait when n > 1; dropping the group mid-wait
            // must neither hang nor leak.
            let qa = group.create_queue(0);
            let qb = group.create_queue(n - 1);
            let ea = qa.enqueue_read::<f32>(src, &[]).unwrap();
            let eb = qb.enqueue_read::<f32>(src, &[ea]).unwrap();
            if round % 2 == 0 {
                // Half the rounds wait, half drop with commands possibly
                // still in flight.
                eb.wait().unwrap();
            }
            let held = eb.clone();
            drop((group, qa, qb, eb));
            assert!(
                matches!(held.wait(), Err(SimError::DeviceLost)),
                "event on a dropped group must resolve to DeviceLost"
            );
        }
    }
    assert_eq!(
        thread_count_when(|n| n == baseline),
        baseline,
        "threads leaked after DeviceGroup churn"
    );
}

/// A command waiting on another device's event costs no thread: with one
/// worker per device, the thread count stays at two however many foreign
/// waits are in flight, and every wait releases once the event settles.
#[test]
fn cross_device_waits_spawn_no_threads() {
    let _serial = serial();
    let Some(baseline) = baseline() else {
        eprintln!("skipping: /proc/self/task not available on this platform");
        return;
    };
    {
        let device = || {
            let mut cfg = DeviceConfig::test_tiny();
            cfg.parallelism = 1;
            Device::new(cfg).unwrap()
        };
        let (mut dev_a, mut dev_b) = (device(), device());
        let gbuf = dev_a.create_buffer::<f32>("g", 1).unwrap();
        let buf_b = dev_b.create_buffer_from("b", &[3.0f32; BUF_LEN]).unwrap();
        let (qa, qb) = (dev_a.create_queue(), dev_b.create_queue());

        let gate = Arc::new(AtomicBool::new(false));
        let _open = OpenOnDrop(Arc::clone(&gate));
        let ea = qa
            .enqueue_launch(
                Gated {
                    buf: gbuf,
                    gate: Arc::clone(&gate),
                },
                NdRange::new_1d(1, 1).unwrap(),
                &[],
            )
            .unwrap();
        let reads: Vec<_> = (0..16)
            .map(|_| {
                qb.enqueue_read::<f32>(buf_b, std::slice::from_ref(&ea))
                    .unwrap()
            })
            .collect();

        assert_eq!(
            thread_count_when(|n| n == baseline + 2),
            baseline + 2,
            "foreign waits must not spawn threads beyond one worker per device"
        );
        for read in &reads {
            assert!(read.poll().is_none(), "a read ran before A's event settled");
        }

        gate.store(true, Ordering::Release);
        for read in &reads {
            assert_eq!(read.wait_read::<f32>().unwrap(), vec![3.0; BUF_LEN]);
        }
    }
    assert_eq!(
        thread_count_when(|n| n == baseline),
        baseline,
        "threads leaked after cross-device waits"
    );
}

/// Serve-loop churn with the non-blocking completion layer: `on_complete`
/// callbacks feeding one channel per round, devices dropped mid-flight —
/// the process thread count must come back to baseline, and every
/// watched event must surface exactly one completion (`Ok` or the typed
/// [`SimError::DeviceLost`]), never zero and never two.
#[test]
fn serve_loop_churn_with_callbacks_leaves_no_threads() {
    let _serial = serial();
    let Some(baseline) = baseline() else {
        eprintln!("skipping: /proc/self/task not available on this platform");
        return;
    };

    let range = NdRange::new_1d(BUF_LEN, 16).unwrap();
    for round in 0..6 {
        let mut cfg = DeviceConfig::test_tiny();
        cfg.parallelism = 2;
        let mut dev = Device::new(cfg).unwrap();
        let src = dev.create_buffer_from("s", &[1.0f32; BUF_LEN]).unwrap();
        let dst = dev.create_buffer::<f32>("d", BUF_LEN).unwrap();
        let q = dev.create_queue();
        let (tx, rx) = mpsc::channel();
        let mut events = Vec::new();
        for _ in 0..8 {
            let ev = q.enqueue_launch(Scale { src, dst }, range, &[]).unwrap();
            let tx = tx.clone();
            ev.on_complete(move |result| {
                let _ = tx.send(result);
            });
            events.push(ev);
        }
        drop(tx);
        if round % 2 == 0 {
            // Drain to dry, then drop the device.
            let mut seen = 0;
            for result in &rx {
                result.unwrap();
                seen += 1;
            }
            assert_eq!(seen, 8);
            drop((dev, q, events));
        } else {
            // Drop mid-flight: the device-drop path must fire every
            // leftover callback (with DeviceLost), so the channel still
            // drains to exactly one completion per watched event.
            drop((dev, q, events));
            let mut seen = 0;
            for result in &rx {
                assert!(
                    result.is_ok() || matches!(result, Err(SimError::DeviceLost)),
                    "unexpected completion outcome: {result:?}"
                );
                seen += 1;
            }
            assert_eq!(
                seen, 8,
                "every watched event surfaces exactly one completion \
                 across a mid-flight device drop"
            );
        }
    }
    assert_eq!(
        thread_count_when(|n| n == baseline),
        baseline,
        "threads leaked after serve-loop churn with callbacks"
    );
}

/// A callback registered *after* the device dropped fires exactly once,
/// synchronously on the registering thread, with [`SimError::DeviceLost`].
#[test]
fn callback_registered_after_device_drop_fires_once_with_device_lost() {
    let _serial = serial();
    let mut cfg = DeviceConfig::test_tiny();
    cfg.parallelism = 1;
    let mut dev = Device::new(cfg).unwrap();
    let src = dev.create_buffer_from("s", &[1.0f32; BUF_LEN]).unwrap();
    let dst = dev.create_buffer::<f32>("d", BUF_LEN).unwrap();
    let q = dev.create_queue();
    let ev = q
        .enqueue_launch(
            Scale { src, dst },
            NdRange::new_1d(BUF_LEN, 16).unwrap(),
            &[],
        )
        .unwrap();
    drop((dev, q));

    let fired = Arc::new(AtomicUsize::new(0));
    let lost = Arc::new(AtomicBool::new(false));
    let (fired2, lost2) = (Arc::clone(&fired), Arc::clone(&lost));
    ev.on_complete(move |outcome| {
        fired2.fetch_add(1, Ordering::SeqCst);
        if matches!(outcome, Err(SimError::DeviceLost)) {
            lost2.store(true, Ordering::SeqCst);
        }
    });
    assert_eq!(fired.load(Ordering::SeqCst), 1, "fires exactly once");
    assert!(lost.load(Ordering::SeqCst), "fires with DeviceLost");
}

/// A panicking `on_complete` callback is caught on the resolving worker:
/// the pool survives, later commands on the same (single-worker) device
/// still complete, and the callback still counts as fired exactly once.
#[test]
fn panicking_callback_does_not_kill_the_worker_pool() {
    let _serial = serial();
    let Some(baseline) = baseline() else {
        eprintln!("skipping: /proc/self/task not available on this platform");
        return;
    };
    {
        let mut cfg = DeviceConfig::test_tiny();
        cfg.parallelism = 1; // one worker: a dead pool would hang below
        let mut dev = Device::new(cfg).unwrap();
        let src = dev.create_buffer_from("s", &[1.0f32; BUF_LEN]).unwrap();
        let dst = dev.create_buffer::<f32>("d", BUF_LEN).unwrap();
        let gbuf = dev.create_buffer::<f32>("g", 1).unwrap();
        let q = dev.create_queue();
        let range = NdRange::new_1d(BUF_LEN, 16).unwrap();

        // Pin the lone worker so the callback is registered while the
        // watched command is still pending — it then fires on the worker.
        let gate = Arc::new(AtomicBool::new(false));
        let _open = OpenOnDrop(Arc::clone(&gate));
        let blocker = q
            .enqueue_launch(
                Gated {
                    buf: gbuf,
                    gate: Arc::clone(&gate),
                },
                NdRange::new_1d(1, 1).unwrap(),
                &[],
            )
            .unwrap();
        let ev = q
            .enqueue_launch(Scale { src, dst }, range, std::slice::from_ref(&blocker))
            .unwrap();
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = Arc::clone(&fired);
        ev.on_complete(move |outcome| {
            fired2.fetch_add(1, Ordering::SeqCst);
            outcome.unwrap();
            panic!("callback exploded on purpose");
        });

        gate.store(true, Ordering::Release);
        ev.wait().unwrap();
        // The worker that caught the panic must still execute commands.
        let ev2 = q.enqueue_launch(Scale { src, dst }, range, &[]).unwrap();
        ev2.wait().unwrap();
        while fired.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        assert_eq!(fired.load(Ordering::SeqCst), 1, "fires exactly once");
        assert_eq!(dev.read_buffer::<f32>(dst).unwrap(), vec![2.0; BUF_LEN]);
    }
    assert_eq!(
        thread_count_when(|n| n == baseline),
        baseline,
        "panicking callback killed or leaked pool threads"
    );
}
