//! Differential tests for the command-queue scheduler.
//!
//! The contract under test extends `parallel_determinism.rs` to command
//! streams: **any interleaving the scheduler picks produces buffers,
//! launch reports, read data and fault logs bit-identical to executing
//! the commands one at a time in enqueue order** — at every worker-thread
//! count — and random buffer-sharing command graphs always run to
//! completion (no deadlock, every event resolves).
//!
//! Graphs are generated from seeded xorshift state (the workspace is
//! offline, so no `proptest`): every failing case reproduces from the
//! seed in the assertion message.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use kp_gpu_sim::{
    BufferId, BufferUse, Device, DeviceConfig, Event, FaultKind, ItemCtx, Kernel, LaunchReport,
    NdRange, Queue, SimError,
};

mod common;
use common::Rendezvous;

const BUF_LEN: usize = 64;

/// Spins until the test flips the gate, then writes its buffer. Used to
/// hold pool workers busy at a point the test controls — the only way to
/// make "this command was still pending when X happened" deterministic
/// now that execution is eager.
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

/// `dst[i] = a * x[i] + y[i]` with declared usage — overlappable.
struct Saxpy {
    x: BufferId,
    y: BufferId,
    dst: BufferId,
    a: f32,
}

impl Kernel for Saxpy {
    fn name(&self) -> &str {
        "saxpy"
    }

    fn buffer_usage(&self) -> Option<BufferUse> {
        Some(BufferUse::new([self.x, self.y], [self.dst]))
    }

    fn run_phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>) {
        let i = ctx.global_id(0);
        let x: f32 = ctx.read_global(self.x, i);
        let y: f32 = ctx.read_global(self.y, i);
        ctx.write_global(self.dst, i, self.a * x + y);
        ctx.ops(2);
    }
}

/// `dst[i] = factor * src[i]`, optionally reading one element out of
/// bounds so fault logs flow through the comparison too. `src == dst` is
/// allowed (read-modify-write of a declared output).
struct Scale {
    src: BufferId,
    dst: BufferId,
    factor: f32,
    oob: bool,
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
        if self.oob && i == 0 {
            let _: f32 = ctx.read_global(self.src, BUF_LEN + 7);
        }
        ctx.write_global(self.dst, i, self.factor * v);
        ctx.ops(1);
    }
}

/// Declares only `a` but also reads `b`: the undeclared access must fault
/// identically under every schedule.
struct Sneaky {
    a: BufferId,
    b: BufferId,
    dst: BufferId,
}

impl Kernel for Sneaky {
    fn name(&self) -> &str {
        "sneaky"
    }

    fn buffer_usage(&self) -> Option<BufferUse> {
        Some(BufferUse::new([self.a], [self.dst]))
    }

    fn run_phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>) {
        let i = ctx.global_id(0);
        let a: f32 = ctx.read_global(self.a, i);
        let b: f32 = ctx.read_global(self.b, i); // undeclared!
        ctx.write_global(self.dst, i, a + b);
    }
}

struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One abstract command of a generated graph.
#[derive(Debug, Clone)]
enum Cmd {
    Saxpy {
        x: usize,
        y: usize,
        dst: usize,
        a: f32,
    },
    Scale {
        src: usize,
        dst: usize,
        factor: f32,
        oob: bool,
    },
    Write {
        dst: usize,
        salt: u32,
    },
    Read {
        src: usize,
    },
    Sneaky {
        a: usize,
        b: usize,
        dst: usize,
    },
}

/// Generates a random command list over `nbufs` buffers, with up to two
/// random explicit dependencies per command (indices into earlier
/// commands).
fn random_graph(
    rng: &mut XorShift,
    len: usize,
    nbufs: usize,
    faults: bool,
) -> Vec<(Cmd, Vec<usize>)> {
    (0..len)
        .map(|i| {
            let kind = rng.below(if faults { 12 } else { 10 });
            let cmd = match kind {
                0..=2 => Cmd::Saxpy {
                    x: rng.below(nbufs),
                    y: rng.below(nbufs),
                    dst: rng.below(nbufs),
                    a: (rng.below(5) as f32) - 2.0,
                },
                3..=5 => Cmd::Scale {
                    src: rng.below(nbufs),
                    dst: rng.below(nbufs),
                    factor: (rng.below(7) as f32) / 2.0,
                    oob: false,
                },
                6 => Cmd::Write {
                    dst: rng.below(nbufs),
                    salt: rng.next() as u32,
                },
                // A plain copy: reads one buffer, writes another.
                7 => Cmd::Scale {
                    src: rng.below(nbufs),
                    dst: rng.below(nbufs),
                    factor: 1.0,
                    oob: false,
                },
                8 | 9 => Cmd::Read {
                    src: rng.below(nbufs),
                },
                10 => Cmd::Scale {
                    src: rng.below(nbufs),
                    dst: rng.below(nbufs),
                    factor: 1.5,
                    oob: true,
                },
                _ => Cmd::Sneaky {
                    a: rng.below(nbufs),
                    b: rng.below(nbufs),
                    dst: rng.below(nbufs),
                },
            };
            let ndeps = rng.below(3).min(i);
            let deps = (0..ndeps).map(|_| rng.below(i)).collect();
            (cmd, deps)
        })
        .collect()
}

/// Everything observable about one executed command.
#[derive(Debug, PartialEq)]
enum Observed {
    Launch(Result<LaunchReport, SimError>),
    Read(Result<Vec<f32>, SimError>),
    Host(Result<(), SimError>),
}

fn device(parallelism: usize) -> Device {
    let mut cfg = DeviceConfig::test_tiny();
    cfg.parallelism = parallelism;
    Device::new(cfg).unwrap()
}

fn make_buffers(dev: &mut Device, nbufs: usize) -> Vec<BufferId> {
    (0..nbufs)
        .map(|k| {
            let data: Vec<f32> = (0..BUF_LEN).map(|i| (i * (k + 3)) as f32 * 0.25).collect();
            dev.create_buffer_from(&format!("b{k}"), &data).unwrap()
        })
        .collect()
}

/// How a run learns that its commands finished. Every mode must produce
/// bit-identical observations — completion plumbing is pure signalling
/// and never steers execution.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Reap {
    /// Await every event right after its enqueue — the reference
    /// schedule.
    InOrder,
    /// Enqueue everything, then park on the blocking `wait_*` calls.
    Blocking,
    /// Enqueue everything, then spin on `Event::poll` (never parks)
    /// until every event reports a settled outcome.
    Polling,
    /// Enqueue everything, register an `on_complete` callback on every
    /// event that sends to one channel, and drain the channel until each
    /// callback has fired exactly once.
    Callbacks,
}

/// Runs a generated graph on `queues` queues, completing it in the
/// requested [`Reap`] mode. Returns the per-command observations plus the
/// final contents of every buffer.
fn run_graph(
    graph: &[(Cmd, Vec<usize>)],
    parallelism: usize,
    nbufs: usize,
    queues: usize,
    reap: Reap,
) -> (Vec<Observed>, Vec<Vec<f32>>) {
    let mut dev = device(parallelism);
    let bufs = make_buffers(&mut dev, nbufs);
    let qs: Vec<Queue> = (0..queues).map(|_| dev.create_queue()).collect();
    let mut events: Vec<(Event, bool)> = Vec::with_capacity(graph.len()); // (event, is_read)
    for (i, (cmd, deps)) in graph.iter().enumerate() {
        let wait: Vec<Event> = deps.iter().map(|&d| events[d].0.clone()).collect();
        let q = &qs[i % queues];
        let (event, is_read) = match *cmd {
            Cmd::Saxpy { x, y, dst, a } => (
                q.enqueue_launch(
                    Saxpy {
                        x: bufs[x],
                        y: bufs[y],
                        dst: bufs[dst],
                        a,
                    },
                    NdRange::new_1d(BUF_LEN, 16).unwrap(),
                    &wait,
                )
                .unwrap(),
                false,
            ),
            Cmd::Scale {
                src,
                dst,
                factor,
                oob,
            } => (
                q.enqueue_launch(
                    Scale {
                        src: bufs[src],
                        dst: bufs[dst],
                        factor,
                        oob,
                    },
                    NdRange::new_1d(BUF_LEN, 16).unwrap(),
                    &wait,
                )
                .unwrap(),
                false,
            ),
            Cmd::Sneaky { a, b, dst } => (
                q.enqueue_launch(
                    Sneaky {
                        a: bufs[a],
                        b: bufs[b],
                        dst: bufs[dst],
                    },
                    NdRange::new_1d(BUF_LEN, 16).unwrap(),
                    &wait,
                )
                .unwrap(),
                false,
            ),
            Cmd::Write { dst, salt } => {
                let data: Vec<f32> = (0..BUF_LEN)
                    .map(|i| (i as f32) + (salt % 97) as f32)
                    .collect();
                (q.enqueue_write(bufs[dst], &data, &wait).unwrap(), false)
            }
            Cmd::Read { src } => (q.enqueue_read::<f32>(bufs[src], &wait).unwrap(), true),
        };
        if reap == Reap::InOrder {
            let _ = event.wait();
        }
        events.push((event, is_read));
    }

    // Drive completion without parking first when asked: the blocking
    // `wait_*` reaps below then degrade to pure result lookups.
    match reap {
        Reap::InOrder | Reap::Blocking => {}
        Reap::Polling => {
            let mut outcomes: Vec<Option<Result<(), SimError>>> = vec![None; events.len()];
            while outcomes.iter().any(Option::is_none) {
                for ((event, _), slot) in events.iter().zip(outcomes.iter_mut()) {
                    if slot.is_none() {
                        *slot = event.poll();
                    }
                }
                std::thread::yield_now();
            }
            // A settled poll outcome must agree with the blocking wait.
            for ((event, _), outcome) in events.iter().zip(&outcomes) {
                assert_eq!(event.wait().is_ok(), outcome.as_ref().unwrap().is_ok());
            }
        }
        Reap::Callbacks => {
            let (tx, rx) = mpsc::channel();
            for (i, (event, _)) in events.iter().enumerate() {
                let tx = tx.clone();
                event.on_complete(move |result| {
                    let _ = tx.send((i, result));
                });
            }
            drop(tx);
            let mut fired = vec![0u32; events.len()];
            for (i, result) in rx {
                fired[i] += 1;
                assert_eq!(events[i].0.wait().is_ok(), result.is_ok());
            }
            assert!(
                fired.iter().all(|&n| n == 1),
                "every callback fires exactly once: {fired:?}"
            );
        }
    }

    // Reap everything (out-of-order path executes here).
    let observed: Vec<Observed> = graph
        .iter()
        .zip(&events)
        .map(|((cmd, _), (event, is_read))| {
            if *is_read {
                Observed::Read(event.wait_read::<f32>())
            } else if matches!(
                cmd,
                Cmd::Saxpy { .. } | Cmd::Scale { .. } | Cmd::Sneaky { .. }
            ) {
                Observed::Launch(event.wait_report())
            } else {
                Observed::Host(event.wait())
            }
        })
        .collect();
    for (event, _) in &events {
        assert!(
            event.poll().is_some(),
            "event {} did not complete",
            event.seq()
        );
    }
    let finals = bufs
        .iter()
        .map(|&b| dev.read_buffer::<f32>(b).unwrap())
        .collect();
    (observed, finals)
}

#[test]
fn random_graphs_match_in_order_replay_at_every_worker_count() {
    for seed in 0..6u64 {
        let mut rng = XorShift::new(seed);
        let graph = random_graph(&mut rng, 24, 5, false);
        let (ref_obs, ref_bufs) = run_graph(&graph, 1, 5, 1, Reap::InOrder);
        for parallelism in [1, 2, 8, 0] {
            for queues in [1, 2, 3] {
                let (obs, bufs) = run_graph(&graph, parallelism, 5, queues, Reap::Blocking);
                assert_eq!(
                    obs, ref_obs,
                    "observations diverged (seed {seed}, p={parallelism}, q={queues})"
                );
                assert_eq!(
                    bufs, ref_bufs,
                    "buffers diverged (seed {seed}, p={parallelism}, q={queues})"
                );
            }
        }
    }
}

#[test]
fn faulting_graphs_keep_fault_logs_bit_identical() {
    for seed in 100..104u64 {
        let mut rng = XorShift::new(seed);
        let graph = random_graph(&mut rng, 20, 4, true);
        let (ref_obs, ref_bufs) = run_graph(&graph, 1, 4, 1, Reap::InOrder);
        // The generator with `faults` emits OOB scales and Sneaky
        // launches; make sure at least one seed actually faults so this
        // test keeps meaning something if the generator changes.
        for parallelism in [1, 8, 0] {
            let (obs, bufs) = run_graph(&graph, parallelism, 4, 2, Reap::Blocking);
            assert_eq!(obs, ref_obs, "seed {seed}, p={parallelism}");
            assert_eq!(bufs, ref_bufs, "seed {seed}, p={parallelism}");
        }
    }
}

#[test]
fn poll_and_callback_completion_match_blocking_waits() {
    // The non-blocking completion layer is pure signalling: finishing the
    // same graph via `poll()` spin loops or `on_complete` callbacks (one
    // channel over all events) must yield outputs, reports and
    // fault logs bit-identical to blocking waits — at 1, 2 and 8 workers,
    // on clean and faulting graphs alike.
    for (seed, faults) in [(11u64, false), (12, false), (102, true), (103, true)] {
        let mut rng = XorShift::new(seed);
        let graph = random_graph(&mut rng, 24, 5, faults);
        let (ref_obs, ref_bufs) = run_graph(&graph, 1, 5, 1, Reap::InOrder);
        for parallelism in [1, 2, 8] {
            for reap in [Reap::Blocking, Reap::Polling, Reap::Callbacks] {
                let (obs, bufs) = run_graph(&graph, parallelism, 5, 2, reap);
                assert_eq!(
                    obs, ref_obs,
                    "observations diverged (seed {seed}, p={parallelism}, {reap:?})"
                );
                assert_eq!(
                    bufs, ref_bufs,
                    "buffers diverged (seed {seed}, p={parallelism}, {reap:?})"
                );
            }
        }
    }
}

#[test]
fn generator_emits_faulting_commands() {
    let mut rng = XorShift::new(101);
    let graph = random_graph(&mut rng, 20, 4, true);
    let (obs, _) = run_graph(&graph, 1, 4, 1, Reap::InOrder);
    assert!(
        obs.iter()
            .any(|o| matches!(o, Observed::Launch(Err(SimError::KernelFaults { .. })))),
        "expected at least one faulting launch in the seeded graph"
    );
}

#[test]
fn undeclared_access_faults_deterministically() {
    for parallelism in [1, 8] {
        let mut dev = device(parallelism);
        let a = dev.create_buffer_from("a", &[1.0f32; BUF_LEN]).unwrap();
        let b = dev.create_buffer_from("b", &[2.0f32; BUF_LEN]).unwrap();
        let dst = dev.create_buffer::<f32>("dst", BUF_LEN).unwrap();
        let q = dev.create_queue();
        let ev = q
            .enqueue_launch(
                Sneaky { a, b, dst },
                NdRange::new_1d(BUF_LEN, 16).unwrap(),
                &[],
            )
            .unwrap();
        match ev.wait_report() {
            Err(SimError::KernelFaults { faults, total, .. }) => {
                assert_eq!(total, BUF_LEN);
                assert!(matches!(
                    faults[0].kind,
                    FaultKind::UndeclaredBuffer { write: false, .. }
                ));
            }
            other => panic!("expected undeclared-buffer faults, got {other:?}"),
        }
        // The undeclared read returned 0.0 deterministically: dst = a + 0.
        assert_eq!(dev.read_buffer::<f32>(dst).unwrap(), vec![1.0; BUF_LEN]);
    }
}

#[test]
fn two_queues_overlap_bitwise_matches_serialized() {
    let run = |overlapped: bool| {
        let mut dev = device(8);
        let x1 = dev.create_buffer_from("x1", &[1.0f32; BUF_LEN]).unwrap();
        let x2 = dev.create_buffer_from("x2", &[2.0f32; BUF_LEN]).unwrap();
        let d1 = dev.create_buffer::<f32>("d1", BUF_LEN).unwrap();
        let d2 = dev.create_buffer::<f32>("d2", BUF_LEN).unwrap();
        let q1 = dev.create_queue();
        let q2 = dev.create_queue();
        let range = NdRange::new_1d(BUF_LEN, 16).unwrap();
        let e1 = q1
            .enqueue_launch(
                Scale {
                    src: x1,
                    dst: d1,
                    factor: 3.0,
                    oob: false,
                },
                range,
                &[],
            )
            .unwrap();
        if !overlapped {
            e1.wait().unwrap();
        }
        let e2 = q2
            .enqueue_launch(
                Scale {
                    src: x2,
                    dst: d2,
                    factor: 0.5,
                    oob: false,
                },
                range,
                &[],
            )
            .unwrap();
        let r1 = e1.wait_report().unwrap();
        let r2 = e2.wait_report().unwrap();
        (
            r1,
            r2,
            dev.read_buffer::<f32>(d1).unwrap(),
            dev.read_buffer::<f32>(d2).unwrap(),
        )
    };
    assert_eq!(run(true), run(false));
}

/// Two independent launches on two queues of a 2-worker device run at
/// the same time: each is one work item of a two-party rendezvous, which
/// only completes if both items are executing at once.
#[test]
fn two_queued_launches_run_concurrently_on_two_workers() {
    let mut dev = device(2);
    let arrived = Arc::new(AtomicUsize::new(0));
    let queues = [dev.create_queue(), dev.create_queue()];
    let mut launches = Vec::new();
    for (k, q) in queues.iter().enumerate() {
        let out = dev.create_buffer::<f32>(&format!("out{k}"), 1).unwrap();
        let kernel = Rendezvous {
            out,
            arrived: Arc::clone(&arrived),
            parties: 2,
        };
        let ev = q
            .enqueue_launch(kernel, NdRange::new_1d(1, 1).unwrap(), &[])
            .unwrap();
        launches.push((ev, out));
    }
    let outs: Vec<f32> = launches
        .iter()
        .map(|(ev, out)| {
            ev.wait().unwrap();
            dev.read_buffer::<f32>(*out).unwrap()[0]
        })
        .collect();
    assert_eq!(
        outs,
        [1.0, 1.0],
        "the two launches did not overlap (0.0 = rendezvous timed out)"
    );
}

#[test]
fn explicit_event_chains_complete_at_high_parallelism() {
    // A pure chain (each command explicitly waits on the previous) is the
    // worst case for a work-stealing scheduler; make sure nothing
    // deadlocks and order semantics hold.
    let mut dev = device(8);
    let buf = dev.create_buffer_from("b", &[1.0f32; BUF_LEN]).unwrap();
    let q = dev.create_queue();
    let range = NdRange::new_1d(BUF_LEN, 16).unwrap();
    let mut prev: Option<Event> = None;
    for _ in 0..10 {
        let wait: Vec<Event> = prev.iter().cloned().collect();
        let ev = q
            .enqueue_launch(
                Scale {
                    src: buf,
                    dst: buf,
                    factor: 2.0,
                    oob: false,
                },
                range,
                &wait,
            )
            .unwrap();
        prev = Some(ev);
    }
    prev.unwrap().wait().unwrap();
    // 1.0 * 2^10
    assert_eq!(dev.read_buffer::<f32>(buf).unwrap(), vec![1024.0; BUF_LEN]);
}

#[test]
fn wait_on_event_from_released_queue_is_typed_error() {
    let mut dev = device(1);
    let src = dev.create_buffer_from("s", &[1.0f32; BUF_LEN]).unwrap();
    let dst = dev.create_buffer::<f32>("d", BUF_LEN).unwrap();
    let gbuf = dev.create_buffer::<f32>("g", 1).unwrap();
    let gate = Arc::new(AtomicBool::new(false));
    let _open = OpenOnDrop(Arc::clone(&gate));
    // Eager execution would otherwise run the command before the release:
    // chain it behind a gated blocker so it is provably still pending.
    let q_gate = dev.create_queue();
    let blocker = q_gate
        .enqueue_launch(
            Gated {
                buf: gbuf,
                gate: Arc::clone(&gate),
            },
            NdRange::new_1d(1, 1).unwrap(),
            &[],
        )
        .unwrap();
    let q = dev.create_queue();
    let qid = q.id();
    let ev = q
        .enqueue_launch(
            Scale {
                src,
                dst,
                factor: 2.0,
                oob: false,
            },
            NdRange::new_1d(BUF_LEN, 16).unwrap(),
            std::slice::from_ref(&blocker),
        )
        .unwrap();
    q.release(); // pending (dep-blocked) command cancelled
    gate.store(true, Ordering::Release);
    blocker.wait().unwrap();
    match ev.wait() {
        Err(SimError::QueueReleased { queue }) => assert_eq!(queue, qid),
        other => panic!("expected QueueReleased, got {other:?}"),
    }
    // The cancelled launch never ran.
    assert_eq!(dev.read_buffer::<f32>(dst).unwrap(), vec![0.0; BUF_LEN]);
    // Events waited *before* the release keep their results.
    let q2 = dev.create_queue();
    let ev2 = q2
        .enqueue_launch(
            Scale {
                src,
                dst,
                factor: 2.0,
                oob: false,
            },
            NdRange::new_1d(BUF_LEN, 16).unwrap(),
            &[],
        )
        .unwrap();
    ev2.wait().unwrap();
    q2.release();
    assert!(ev2.wait_report().is_ok());
}

#[test]
fn dropped_device_turns_handles_into_typed_errors() {
    let mut dev = device(1);
    let buf = dev.create_buffer_from("b", &[1.0f32; 4]).unwrap();
    let q = dev.create_queue();
    let ev = q.enqueue_read::<f32>(buf, &[]).unwrap();
    drop(dev);
    assert!(matches!(
        q.enqueue_read::<f32>(buf, &[]),
        Err(SimError::DeviceLost)
    ));
    assert!(matches!(ev.wait(), Err(SimError::DeviceLost)));
    assert!(matches!(ev.timing(), Err(SimError::DeviceLost)));
}

#[test]
fn event_result_accessors_are_typed() {
    let mut dev = device(1);
    let src = dev.create_buffer_from("s", &[1.0f32; BUF_LEN]).unwrap();
    let dst = dev.create_buffer::<f32>("d", BUF_LEN).unwrap();
    let q = dev.create_queue();
    let launch = q
        .enqueue_launch(
            Scale {
                src,
                dst,
                factor: 2.0,
                oob: false,
            },
            NdRange::new_1d(BUF_LEN, 16).unwrap(),
            &[],
        )
        .unwrap();
    let read = q.enqueue_read::<f32>(dst, &[]).unwrap();
    // wait_read on a launch event.
    assert!(matches!(
        launch.wait_read::<f32>(),
        Err(SimError::EventResult { .. })
    ));
    // wait_report on a read event.
    assert!(matches!(
        read.wait_report(),
        Err(SimError::EventResult { .. })
    ));
    // First wait_read succeeds, second reports the taken result.
    assert_eq!(read.wait_read::<f32>().unwrap(), vec![2.0; BUF_LEN]);
    assert!(matches!(
        read.wait_read::<f32>(),
        Err(SimError::EventResult { .. })
    ));
    // Wrong element type on a read event.
    let read2 = q.enqueue_read::<f32>(dst, &[]).unwrap();
    assert!(matches!(
        read2.wait_read::<i32>(),
        Err(SimError::BufferKind { .. })
    ));
}

#[test]
fn cross_device_events_bridge_in_wait_lists() {
    // A wait-list event from another device holds the dependent command
    // back until the foreign event settles; then it runs normally. Each
    // device stamps `EventTiming` from its own creation, so the
    // ordering is checked with a gate instead of timestamps.
    let mut dev_a = device(1);
    let mut dev_b = device(1);
    let gbuf = dev_a.create_buffer::<f32>("g", 1).unwrap();
    let buf_b = dev_b.create_buffer_from("b", &[2.0f32; 4]).unwrap();
    let gate = Arc::new(AtomicBool::new(false));
    let _open = OpenOnDrop(Arc::clone(&gate));
    let qa = dev_a.create_queue();
    let qb = dev_b.create_queue();
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
    let eb = qb
        .enqueue_read::<f32>(buf_b, std::slice::from_ref(&ea))
        .unwrap();
    // B's worker resolves ready reads in enqueue order, so once a later,
    // independent read of the same buffer completed, it has seen `eb` and
    // left it pending: the foreign dependency holds it back.
    qb.enqueue_read::<f32>(buf_b, &[]).unwrap().wait().unwrap();
    assert!(eb.poll().is_none(), "ran before its foreign dependency");
    gate.store(true, Ordering::Release);
    assert_eq!(eb.wait_read::<f32>().unwrap(), vec![2.0; 4]);
    ea.wait().unwrap();
}

/// A callback registered on an already-settled event runs on the
/// registering thread before `on_complete` returns, with the command's
/// own outcome — success and kernel faults alike.
#[test]
fn on_complete_on_a_settled_event_fires_on_the_calling_thread() {
    let mut dev = device(2);
    let src = dev.create_buffer_from("s", &[1.0f32; BUF_LEN]).unwrap();
    let dst = dev.create_buffer::<f32>("d", BUF_LEN).unwrap();
    let q = dev.create_queue();
    for oob in [false, true] {
        let ev = q
            .enqueue_launch(
                Scale {
                    src,
                    dst,
                    factor: 2.0,
                    oob,
                },
                NdRange::new_1d(BUF_LEN, 16).unwrap(),
                &[],
            )
            .unwrap();
        let _ = ev.wait();
        let (tx, rx) = mpsc::channel();
        ev.on_complete(move |result| {
            let _ = tx.send((std::thread::current().id(), result));
        });
        let (thread, result) = rx.try_recv().expect("fired before on_complete returned");
        assert_eq!(thread, std::thread::current().id());
        if oob {
            assert!(
                matches!(result, Err(SimError::KernelFaults { total: 1, .. })),
                "{result:?}"
            );
        } else {
            assert_eq!(result, Ok(()));
        }
    }
}

#[test]
fn event_timing_is_ordered() {
    let mut dev = device(2);
    let src = dev.create_buffer_from("s", &[1.0f32; BUF_LEN]).unwrap();
    let dst = dev.create_buffer::<f32>("d", BUF_LEN).unwrap();
    let q = dev.create_queue();
    let ev = q
        .enqueue_launch(
            Scale {
                src,
                dst,
                factor: 2.0,
                oob: false,
            },
            NdRange::new_1d(BUF_LEN, 16).unwrap(),
            &[],
        )
        .unwrap();
    let t = ev.timing().unwrap();
    assert!(t.queued <= t.started, "{t:?}");
    assert!(t.started <= t.ended, "{t:?}");
    // Derived durations never panic.
    let _ = t.queue_delay();
    let _ = t.execution();
}

#[test]
fn blocking_shims_drain_pending_commands_first() {
    let mut dev = device(2);
    let src = dev.create_buffer_from("s", &[1.0f32; BUF_LEN]).unwrap();
    let mid = dev.create_buffer::<f32>("m", BUF_LEN).unwrap();
    let q = dev.create_queue();
    let range = NdRange::new_1d(BUF_LEN, 16).unwrap();
    q.enqueue_launch(
        Scale {
            src,
            dst: mid,
            factor: 3.0,
            oob: false,
        },
        range,
        &[],
    )
    .unwrap();
    // Blocking read_buffer must observe the queued launch's effect.
    assert_eq!(dev.read_buffer::<f32>(mid).unwrap(), vec![3.0; BUF_LEN]);
    // A blocking launch after more enqueues also sees them.
    q.enqueue_write(mid, &[10.0f32; BUF_LEN], &[]).unwrap();
    let dst = dev.create_buffer::<f32>("d", BUF_LEN).unwrap();
    dev.launch(
        &Scale {
            src: mid,
            dst,
            factor: 1.0,
            oob: false,
        },
        range,
    )
    .unwrap();
    assert_eq!(dev.read_buffer::<f32>(dst).unwrap(), vec![10.0; BUF_LEN]);
}

/// The eager-start contract: enqueued commands run to completion with
/// **no** wait of any kind — only non-triggering `poll`s —
/// and their `started` timestamps predate the first `wait` call.
///
/// The timestamp bound is sound without access to the device epoch:
/// `t0` is taken *before* `Device::new`, so `epoch >= t0` and every
/// epoch-relative event timestamp is `<=` the same instant measured
/// relative to `t0`. A `started` below `t0.elapsed()`-at-first-wait
/// therefore proves the command started strictly before the wait.
#[test]
fn commands_execute_eagerly_without_any_wait() {
    let t0 = Instant::now();
    let mut dev = device(2);
    let x1 = dev.create_buffer_from("x1", &[1.0f32; BUF_LEN]).unwrap();
    let x2 = dev.create_buffer_from("x2", &[2.0f32; BUF_LEN]).unwrap();
    let d1 = dev.create_buffer::<f32>("d1", BUF_LEN).unwrap();
    let d2 = dev.create_buffer::<f32>("d2", BUF_LEN).unwrap();
    let q = dev.create_queue();
    let range = NdRange::new_1d(BUF_LEN, 16).unwrap();
    let e1 = q
        .enqueue_launch(
            Scale {
                src: x1,
                dst: d1,
                factor: 3.0,
                oob: false,
            },
            range,
            &[],
        )
        .unwrap();
    let e2 = q
        .enqueue_launch(
            Scale {
                src: x2,
                dst: d2,
                factor: 0.5,
                oob: false,
            },
            range,
            &[],
        )
        .unwrap();
    // Poll only. Demand-driven execution would never complete these.
    let deadline = Instant::now() + Duration::from_secs(60);
    while e1.poll().is_none() || e2.poll().is_none() {
        assert!(
            Instant::now() < deadline,
            "enqueued commands did not start without a wait"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let before_first_wait = t0.elapsed();
    e1.wait().unwrap();
    e2.wait().unwrap();
    for (name, ev) in [("e1", &e1), ("e2", &e2)] {
        let t = ev.timing().unwrap();
        assert!(
            t.started < before_first_wait,
            "{name} started at {:?}, first wait was at {:?} — not eager",
            t.started,
            before_first_wait
        );
        assert!(t.ended < before_first_wait, "{name} ended after the wait");
    }
    assert_eq!(dev.read_buffer::<f32>(d1).unwrap(), vec![3.0; BUF_LEN]);
    assert_eq!(dev.read_buffer::<f32>(d2).unwrap(), vec![1.0; BUF_LEN]);
}

/// Host-side commands (reads) complete eagerly too, without a wait.
#[test]
fn host_commands_execute_eagerly_without_any_wait() {
    let mut dev = device(1);
    let buf = dev.create_buffer_from("b", &[7.0f32; BUF_LEN]).unwrap();
    let q = dev.create_queue();
    let read = q.enqueue_read::<f32>(buf, &[]).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while read.poll().is_none() {
        assert!(
            Instant::now() < deadline,
            "enqueued read did not execute without a wait"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(read.wait_read::<f32>().unwrap(), vec![7.0; BUF_LEN]);
}

/// With one pool worker, simultaneously ready commands must start in
/// enqueue order. A gated blocker holds the worker so all four commands
/// are released at one instant.
#[test]
fn simultaneously_ready_commands_start_in_enqueue_order() {
    let mut dev = device(1);
    let gbuf = dev.create_buffer::<f32>("g", 1).unwrap();
    let gate = Arc::new(AtomicBool::new(false));
    let _open = OpenOnDrop(Arc::clone(&gate));
    let q_gate = dev.create_queue();
    let blocker = q_gate
        .enqueue_launch(
            Gated {
                buf: gbuf,
                gate: Arc::clone(&gate),
            },
            NdRange::new_1d(1, 1).unwrap(),
            &[],
        )
        .unwrap();
    let range = NdRange::new_1d(BUF_LEN, 16).unwrap();
    let mut events = Vec::new();
    let mut queues = Vec::new(); // keep queues alive until their commands ran
    for k in 0..4 {
        let src = dev
            .create_buffer_from(&format!("s{k}"), &[k as f32 + 1.0; BUF_LEN])
            .unwrap();
        let dst = dev.create_buffer::<f32>(&format!("d{k}"), BUF_LEN).unwrap();
        let q = dev.create_queue();
        let ev = q
            .enqueue_launch(
                Scale {
                    src,
                    dst,
                    factor: 2.0,
                    oob: false,
                },
                range,
                std::slice::from_ref(&blocker),
            )
            .unwrap();
        events.push((ev, dst, k as f32 + 1.0));
        queues.push(q);
    }
    gate.store(true, Ordering::Release);
    for (ev, dst, input) in &events {
        ev.wait().unwrap();
        assert_eq!(
            dev.read_buffer::<f32>(*dst).unwrap(),
            vec![input * 2.0; BUF_LEN]
        );
    }
    let starts: Vec<_> = events
        .iter()
        .map(|(ev, _, _)| ev.timing().unwrap().started)
        .collect();
    for k in 1..starts.len() {
        assert!(
            starts[k - 1] <= starts[k],
            "enqueue order violated: command {} started at {:?}, command {k} at {:?}",
            k - 1,
            starts[k - 1],
            starts[k]
        );
    }
}

/// A kernel that panics mid-launch must not kill the pool worker: the
/// event resolves to a typed error, no writes are applied, and the
/// device keeps executing subsequent commands.
#[test]
fn panicking_kernel_resolves_to_typed_error_and_pool_survives() {
    struct Panicker {
        dst: BufferId,
    }
    impl Kernel for Panicker {
        fn name(&self) -> &str {
            "panicker"
        }
        fn buffer_usage(&self) -> Option<BufferUse> {
            Some(BufferUse::new([], [self.dst]))
        }
        fn run_phase(&self, _phase: usize, _ctx: &mut ItemCtx<'_>) {
            panic!("deliberate test panic");
        }
    }
    let mut dev = device(1);
    let dst = dev.create_buffer::<f32>("d", BUF_LEN).unwrap();
    let q = dev.create_queue();
    let range = NdRange::new_1d(BUF_LEN, 16).unwrap();
    let bad = q.enqueue_launch(Panicker { dst }, range, &[]).unwrap();
    assert!(matches!(bad.wait(), Err(SimError::Launch(_))));
    assert_eq!(dev.read_buffer::<f32>(dst).unwrap(), vec![0.0; BUF_LEN]);
    // The worker that caught the panic still executes later commands.
    let src = dev.create_buffer_from("s", &[4.0f32; BUF_LEN]).unwrap();
    let ok = q
        .enqueue_launch(
            Scale {
                src,
                dst,
                factor: 0.25,
                oob: false,
            },
            range,
            &[],
        )
        .unwrap();
    ok.wait().unwrap();
    assert_eq!(dev.read_buffer::<f32>(dst).unwrap(), vec![1.0; BUF_LEN]);
}

/// Lowering the parallelism knob after the pool has grown still bounds
/// concurrency: surplus workers park, and with a budget of 1 every
/// launch interval is disjoint from the next (each `started` stamp is
/// taken under the lock only after the previous launch's `ended`).
#[test]
fn lowered_parallelism_serializes_launches_despite_wide_pool() {
    let mut dev = device(8);
    let warm_src = dev.create_buffer_from("w", &[1.0f32; BUF_LEN]).unwrap();
    let warm_dst = dev.create_buffer::<f32>("wd", BUF_LEN).unwrap();
    let range = NdRange::new_1d(BUF_LEN, 16).unwrap();
    let q = dev.create_queue();
    // Grow the pool to 8 workers, then lower the budget to 1.
    q.enqueue_launch(
        Scale {
            src: warm_src,
            dst: warm_dst,
            factor: 1.0,
            oob: false,
        },
        range,
        &[],
    )
    .unwrap()
    .wait()
    .unwrap();
    dev.set_parallelism(1);
    let mut events = Vec::new();
    for k in 0..4 {
        let src = dev
            .create_buffer_from(&format!("s{k}"), &[1.0f32; BUF_LEN])
            .unwrap();
        let dst = dev.create_buffer::<f32>(&format!("d{k}"), BUF_LEN).unwrap();
        events.push(
            q.enqueue_launch(
                Scale {
                    src,
                    dst,
                    factor: 2.0,
                    oob: false,
                },
                range,
                &[],
            )
            .unwrap(),
        );
    }
    let mut timings: Vec<_> = events
        .iter()
        .map(|ev| {
            ev.wait().unwrap();
            ev.timing().unwrap()
        })
        .collect();
    timings.sort_by_key(|t| t.started);
    for pair in timings.windows(2) {
        assert!(
            pair[1].started >= pair[0].ended,
            "launches overlapped ({:?} then {:?}) despite a budget of 1",
            pair[0],
            pair[1]
        );
    }
}

#[test]
fn serve_loop_low_priority_requests_complete_within_bounded_completions() {
    // The serving pattern: a latency-sensitive client runs closed-loop
    // through completion callbacks feeding one channel (next launch
    // submitted only after the previous completion drains) while low-priority requests are
    // admitted alongside it on a second queue. The busy client must not
    // starve them: every admitted low-priority request completes within
    // a bounded number of drained completions.
    const LOW_REQUESTS: usize = 6;
    const BOUND: usize = 400;
    const HIGH: u64 = u64::MAX; // completion token of every high launch
    let mut dev = device(1);
    let range = NdRange::new_1d(BUF_LEN, 16).unwrap();

    let q_low = dev.create_queue();
    let q_high = dev.create_queue();

    let high_src = dev.create_buffer_from("hs", &[1.0f32; BUF_LEN]).unwrap();
    let high_dst = dev.create_buffer::<f32>("hd", BUF_LEN).unwrap();
    let low_src = dev.create_buffer_from("ls", &[3.0f32; BUF_LEN]).unwrap();
    let low_dsts: Vec<BufferId> = (0..LOW_REQUESTS)
        .map(|i| {
            dev.create_buffer::<f32>(&format!("ld{i}"), BUF_LEN)
                .unwrap()
        })
        .collect();

    let (tx, rx) = mpsc::channel();
    let watch = |ev: &Event, token: u64| {
        let tx = tx.clone();
        ev.on_complete(move |result| {
            let _ = tx.send((token, result));
        });
    };
    let launch_high = || {
        let ev = q_high
            .enqueue_launch(
                Scale {
                    src: high_src,
                    dst: high_dst,
                    factor: 1.0,
                    oob: false,
                },
                range,
                &[],
            )
            .unwrap();
        watch(&ev, HIGH);
    };

    launch_high(); // prime the closed loop
    for (i, &dst) in low_dsts.iter().enumerate() {
        let low_ev = q_low
            .enqueue_launch(
                Scale {
                    src: low_src,
                    dst,
                    factor: 2.0,
                    oob: false,
                },
                range,
                &[],
            )
            .unwrap();
        watch(&low_ev, i as u64);
        let mut drained = 0usize;
        loop {
            let (token, result) = rx.recv().expect("work in flight");
            result.unwrap();
            drained += 1;
            if token == HIGH {
                assert!(
                    drained <= BOUND,
                    "low-priority request {i} starved: {drained} completions \
                     drained without it finishing"
                );
                launch_high(); // closed loop: resubmit after the drain
            } else {
                assert_eq!(token, i as u64, "tokens map back to requests");
                break;
            }
        }
    }
    // Stop resubmitting and drop the last sender outside a callback: the
    // channel drains the in-flight tail and then reports dry.
    drop(tx);
    for (token, result) in rx {
        assert_eq!(token, HIGH);
        result.unwrap();
    }
    for &dst in &low_dsts {
        assert_eq!(dev.read_buffer::<f32>(dst).unwrap(), vec![6.0; BUF_LEN]);
    }
}
