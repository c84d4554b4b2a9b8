//! Multi-device coherence and determinism.
//!
//! A [`DeviceGroup`] promises that everything observable — output buffer
//! bits, launch reports, fault logs — is identical to running the same
//! work on a single device, at any member count, and that group buffers
//! migrate between members **on demand only**. These tests pin both:
//! sharded launches (clean and faulting) against a plain [`Device`]
//! reference at 1/2/4 members, seeded random command graphs replayed on a
//! 1-member group, migration counters across device-local reuse, the
//! enqueued serve loop (place → prefetch → enqueue → callback → drain)
//! against a `launch_serial` reference, placement around a busy member,
//! and the same declared-usage faults on every launch path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use kp_gpu_sim::{
    BufferId, BufferUse, Device, DeviceConfig, DeviceGroup, Event, ItemCtx, Kernel, LaunchReport,
    NdRange, SimError,
};

mod common;
use common::Rendezvous;

const LEN: usize = 192;

/// Two-phase kernel: phase 0 scales `src` into `dst`, phase 1 reads the
/// phase-0 result back and offsets it — exercising cross-phase
/// read-after-write through the write log. One work item can be steered
/// out of bounds to produce a deterministic fault log.
struct ScaleOffset {
    src: BufferId,
    dst: BufferId,
    factor: f32,
    oob_at: Option<usize>,
}

impl Kernel for ScaleOffset {
    fn name(&self) -> &str {
        "scale_offset"
    }

    fn phases(&self) -> usize {
        2
    }

    fn buffer_usage(&self) -> Option<BufferUse> {
        Some(BufferUse::new([self.src], [self.dst]))
    }

    fn run_phase(&self, phase: usize, ctx: &mut ItemCtx<'_>) {
        let i = ctx.global_id(0);
        if phase == 0 {
            let at = if self.oob_at == Some(i) { LEN + 7 } else { i };
            let v: f32 = ctx.read_global(self.src, at);
            ctx.write_global(self.dst, i, self.factor * v);
            ctx.ops(1);
        } else {
            let v: f32 = ctx.read_global(self.dst, i);
            ctx.write_global(self.dst, i, v + 1.0);
            ctx.ops(1);
        }
    }
}

/// Spins until its gate opens, then writes one element: a command that
/// keeps its member busy for as long as the test wants.
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

fn seeded_image(seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    (0..LEN)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f32 / 1000.0
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_outcome(
    a: &Result<LaunchReport, SimError>,
    b: &Result<LaunchReport, SimError>,
    label: &str,
) {
    match (a, b) {
        (Ok(x), Ok(y)) => assert_eq!(x, y, "{label}: reports differ"),
        (
            Err(SimError::KernelFaults {
                kernel: ka,
                faults: fa,
                total: ta,
            }),
            Err(SimError::KernelFaults {
                kernel: kb,
                faults: fb,
                total: tb,
            }),
        ) => {
            assert_eq!(ka, kb, "{label}: faulting kernel names differ");
            assert_eq!(ta, tb, "{label}: fault totals differ");
            assert_eq!(fa, fb, "{label}: fault logs differ");
        }
        (x, y) => panic!("{label}: divergent outcomes: {x:?} vs {y:?}"),
    }
}

/// One sharded launch on an `n`-member group; returns the outcome and the
/// output bits.
fn sharded_run(n: usize, oob_at: Option<usize>) -> (Result<LaunchReport, SimError>, Vec<u32>) {
    let mut group = DeviceGroup::with_devices(DeviceConfig::test_tiny(), n).unwrap();
    group.set_profiling(true);
    let src = group.create_buffer_from("src", &seeded_image(3)).unwrap();
    let dst = group.create_buffer::<f32>("dst", LEN).unwrap();
    let kernel = ScaleOffset {
        src,
        dst,
        factor: 2.5,
        oob_at,
    };
    let result = group.launch_sharded(&kernel, NdRange::new_1d(LEN, 8).unwrap());
    let out = group.read_buffer::<f32>(dst).unwrap();
    (result, bits(&out))
}

#[test]
fn sharded_launch_is_bit_identical_to_single_device() {
    // Reference: a plain single Device, blocking launch.
    let mut dev = Device::new(DeviceConfig::test_tiny()).unwrap();
    dev.set_profiling(true);
    let src = dev.create_buffer_from("src", &seeded_image(3)).unwrap();
    let dst = dev.create_buffer::<f32>("dst", LEN).unwrap();
    let kernel = ScaleOffset {
        src,
        dst,
        factor: 2.5,
        oob_at: None,
    };
    let reference = dev.launch(&kernel, NdRange::new_1d(LEN, 8).unwrap());
    let ref_bits = bits(&dev.read_buffer::<f32>(dst).unwrap());

    for n in [1, 2, 4] {
        let (result, out) = sharded_run(n, None);
        assert_same_outcome(&reference, &result, "clean");
        assert_eq!(
            out, ref_bits,
            "{n}-member output differs from single device"
        );
    }
}

/// A sharded launch really runs its members at the same time: two 1-item
/// groups on a 2-member group of single-worker devices meet at a
/// two-party rendezvous, which only completes if both members are
/// executing at once.
#[test]
fn sharded_launch_runs_its_members_concurrently() {
    let mut cfg = DeviceConfig::test_tiny();
    cfg.parallelism = 1;
    let mut group = DeviceGroup::with_devices(cfg, 2).unwrap();
    let out = group.create_buffer::<f32>("out", 2).unwrap();
    let kernel = Rendezvous {
        out,
        arrived: Arc::new(AtomicUsize::new(0)),
        parties: 2,
    };
    group
        .launch_sharded(&kernel, NdRange::new_1d(2, 1).unwrap())
        .unwrap();
    assert_eq!(
        group.read_buffer::<f32>(out).unwrap(),
        [1.0, 1.0],
        "the two members did not overlap (0.0 = rendezvous timed out)"
    );
}

#[test]
fn sharded_faults_are_bit_identical_across_member_counts() {
    // The faulting item lands in the middle of the range, i.e. inside
    // different members' spans at different member counts — the gathered
    // fault log must still come out identical (row-major item order).
    let (ref_result, ref_bits) = sharded_run(1, Some(97));
    assert!(matches!(
        ref_result,
        Err(SimError::KernelFaults { ref faults, .. }) if !faults.is_empty()
    ));
    for n in [2, 4] {
        let (result, out) = sharded_run(n, Some(97));
        assert_same_outcome(&ref_result, &result, "faulting");
        // Faulting launches still apply their writes (partial-write
        // semantics), so even these outputs must match bit-for-bit.
        assert_eq!(out, ref_bits, "{n}-member faulting output differs");
    }
}

/// A deterministic splitmix64 — the same generator seeds both replays.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Everything one random command-graph replay observes.
#[derive(Debug, PartialEq)]
enum Observed {
    Launch(String, usize, u64),
    Fault(String, usize),
    Read(Vec<u32>),
}

/// Replays `steps` seeded random commands — host writes, sharded
/// launches, placed launches, host reads — on an `n`-member group and
/// records every observable.
fn replay_graph(seed: u64, n: usize, steps: usize) -> (Vec<Observed>, Vec<u32>, Vec<u32>) {
    let mut rng = Lcg(seed);
    let mut group = DeviceGroup::with_devices(DeviceConfig::test_tiny(), n).unwrap();
    group.set_profiling(true);
    let src = group
        .create_buffer_from("src", &seeded_image(seed))
        .unwrap();
    let dst = group.create_buffer::<f32>("dst", LEN).unwrap();
    let range = NdRange::new_1d(LEN, 8).unwrap();
    let mut observed = Vec::new();
    for _ in 0..steps {
        let factor = (rng.pick(9) + 1) as f32 / 2.0;
        let oob_at = if rng.pick(5) == 0 {
            Some(rng.pick(LEN as u64) as usize)
        } else {
            None
        };
        let kernel = ScaleOffset {
            src,
            dst,
            factor,
            oob_at,
        };
        match rng.pick(4) {
            0 => group.write_buffer(src, &seeded_image(rng.next())).unwrap(),
            1 => observed.push(match group.launch_sharded(&kernel, range) {
                Ok(r) => Observed::Launch(r.kernel, r.groups, r.timing.device_cycles),
                Err(SimError::KernelFaults { kernel, total, .. }) => Observed::Fault(kernel, total),
                Err(e) => panic!("unexpected launch error: {e:?}"),
            }),
            2 => {
                let member = group.place();
                observed.push(match group.launch_on(member, &kernel, range) {
                    Ok(r) => Observed::Launch(r.kernel, r.groups, r.timing.device_cycles),
                    Err(SimError::KernelFaults { kernel, total, .. }) => {
                        Observed::Fault(kernel, total)
                    }
                    Err(e) => panic!("unexpected launch error: {e:?}"),
                });
            }
            _ => observed.push(Observed::Read(bits(
                &group.read_buffer::<f32>(dst).unwrap(),
            ))),
        }
    }
    let final_src = bits(&group.read_buffer::<f32>(src).unwrap());
    let final_dst = bits(&group.read_buffer::<f32>(dst).unwrap());
    (observed, final_src, final_dst)
}

#[test]
fn random_command_graphs_match_single_device_replay() {
    for seed in 0..6u64 {
        let reference = replay_graph(seed, 1, 24);
        for n in [2, 3, 4] {
            let multi = replay_graph(seed, n, 24);
            assert_eq!(
                reference, multi,
                "seed {seed}: {n}-member replay diverged from single device"
            );
        }
    }
}

#[test]
fn migrations_happen_on_demand_only() {
    let mut group = DeviceGroup::with_devices(DeviceConfig::test_tiny(), 3).unwrap();
    let src = group.create_buffer_from("src", &seeded_image(1)).unwrap();
    let dst = group.create_buffer::<f32>("dst", LEN).unwrap();
    let range = NdRange::new_1d(LEN, 8).unwrap();
    let kernel = ScaleOffset {
        src,
        dst,
        factor: 2.0,
        oob_at: None,
    };

    // Fresh buffers are valid everywhere: placing on any member moves
    // nothing.
    group.launch_on(1, &kernel, range).unwrap();
    assert_eq!(group.stats().migrations, 0);

    // Device-local reuse: dst is now owned by member 1; relaunching on
    // member 1 again and again must never migrate.
    for _ in 0..3 {
        group.launch_on(1, &kernel, range).unwrap();
    }
    assert_eq!(group.stats().migrations, 0, "device-local reuse migrated");

    // First cross-device use: member 0 needs dst's latest bits (declared
    // write — kernels may read it back), src is still valid fleet-wide.
    group.launch_on(0, &kernel, range).unwrap();
    assert_eq!(group.stats().migrations, 1, "exactly dst moves to member 0");
    let after_first_move = group.stats().migrated_bytes;
    assert_eq!(after_first_move, (LEN * 4) as u64);

    // Host reads pull from the latest source and never migrate.
    group.read_buffer::<f32>(dst).unwrap();
    group.read_buffer::<f32>(src).unwrap();
    assert_eq!(group.stats().migrations, 1);

    // Sharded launch across all three members: dst must reach members 1
    // and 2 (stale since member 0 owns it); src is still valid everywhere.
    group.launch_sharded(&kernel, range).unwrap();
    assert_eq!(group.stats().migrations, 3);

    // And once coherent, an immediate relaunch moves nothing new except
    // the re-invalidated dst (written by member 0 in the gather).
    group.launch_sharded(&kernel, range).unwrap();
    assert_eq!(group.stats().migrations, 5);
}

/// The serving path end to end on a 2-member fleet: every request is
/// placed, makes the shared frame resident with `prefetch`, enqueues on
/// its member's queue into a pooled output slot and is harvested through
/// `on_complete` callbacks feeding one channel, while the host rewrites
/// the frame every `REFRESH` requests. Every request must succeed with
/// the bits a serial launch of the same frame version produces, the
/// refreshes must cost priced migrations, and every slot must come back
/// to its pool.
#[test]
fn fleet_serve_loop_is_error_free_bit_identical_and_pays_migrations() {
    const REQUESTS: u64 = 48;
    const INFLIGHT: usize = 6;
    const REFRESH: u64 = 8;
    let factors = [0.5f32, 2.0, 3.5];
    let range = NdRange::new_1d(LEN, 8).unwrap();

    // Auto worker pools, so the CI legs' KP_SIM_PARALLELISM applies.
    let mut cfg = DeviceConfig::test_tiny();
    cfg.parallelism = 0;
    let mut group = DeviceGroup::with_devices(cfg.clone(), 2).unwrap();
    let frame = group.create_buffer_from("frame", &seeded_image(0)).unwrap();
    let mut pools: Vec<Vec<BufferId>> = group
        .members_mut()
        .iter_mut()
        .map(|dev| {
            (0..INFLIGHT)
                .map(|_| dev.create_buffer::<f32>("out", LEN).unwrap())
                .collect()
        })
        .collect();
    let queues: Vec<_> = (0..2).map(|m| group.create_queue(m)).collect();

    // A serial launch on a plain device is every request's reference.
    let mut reference = Device::new(DeviceConfig::test_tiny()).unwrap();
    let mut serial_bits = |version: u64, factor: f32| {
        let src = reference
            .create_buffer_from("frame", &seeded_image(version))
            .unwrap();
        let dst = reference.create_buffer::<f32>("out", LEN).unwrap();
        let kernel = ScaleOffset {
            src,
            dst,
            factor,
            oob_at: None,
        };
        reference.launch_serial(&kernel, range).unwrap();
        bits(&reference.read_buffer::<f32>(dst).unwrap())
    };

    let (tx, rx) = mpsc::channel();
    let mut pending: HashMap<u64, (Event, usize, BufferId, Vec<u32>)> = HashMap::new();
    let (mut admitted, mut completed) = (0u64, 0u64);
    while completed < REQUESTS {
        while pending.len() < INFLIGHT && admitted < REQUESTS {
            let req = admitted;
            admitted += 1;
            let version = req / REFRESH;
            if req > 0 && req.is_multiple_of(REFRESH) {
                group.write_buffer(frame, &seeded_image(version)).unwrap();
            }
            let factor = factors[req as usize % factors.len()];
            let member = group.place();
            group.prefetch(frame, member).unwrap();
            let slot = pools[member].pop().expect("the pool covers the window");
            let kernel = ScaleOffset {
                src: frame,
                dst: slot,
                factor,
                oob_at: None,
            };
            let launch = queues[member].enqueue_launch(kernel, range, &[]).unwrap();
            let tx = tx.clone();
            launch.on_complete(move |result| {
                let _ = tx.send((req, result));
            });
            // Ordered after the launch by its read-after-write hazard.
            let read = queues[member].enqueue_read::<f32>(slot, &[]).unwrap();
            pending.insert(req, (read, member, slot, serial_bits(version, factor)));
        }
        let first = rx.recv().expect("requests in flight");
        for (req, result) in std::iter::once(first).chain(rx.try_iter()) {
            let (read, member, slot, want) = pending.remove(&req).expect("tracked");
            assert!(result.is_ok(), "request {req}: {result:?}");
            let out = read.wait_read::<f32>().unwrap();
            assert_eq!(bits(&out), want, "request {req} differs from serial");
            pools[member].push(slot);
            completed += 1;
        }
    }

    let stats = group.stats();
    assert!(stats.migrations > 0, "refreshes never migrated: {stats:?}");
    assert!(
        stats.migration_seconds(&cfg) > 0.0,
        "migrations were not priced"
    );
    for (member, pool) in pools.iter().enumerate() {
        assert_eq!(pool.len(), INFLIGHT, "member {member} lost an output slot");
    }
}

/// `place` balances the commands pending right now. Requests placed one
/// at a time, each finished before the next, alternate between two idle
/// members; while member 1 is held busy, every request goes to member 0,
/// however many member 0 has already taken.
#[test]
fn place_rotates_on_ties_and_skips_a_busy_member() {
    let mut group = DeviceGroup::with_devices(DeviceConfig::test_tiny(), 2).unwrap();
    let src = group.create_buffer_from("src", &seeded_image(5)).unwrap();
    let outs: Vec<BufferId> = group
        .members_mut()
        .iter_mut()
        .map(|dev| dev.create_buffer::<f32>("out", LEN).unwrap())
        .collect();
    let queues: Vec<_> = (0..2).map(|m| group.create_queue(m)).collect();
    let range = NdRange::new_1d(LEN, 8).unwrap();
    let run_on = |member: usize| {
        let kernel = ScaleOffset {
            src,
            dst: outs[member],
            factor: 2.0,
            oob_at: None,
        };
        queues[member]
            .enqueue_launch(kernel, range, &[])
            .unwrap()
            .wait()
            .unwrap();
    };

    let picks: Vec<usize> = (0..4)
        .map(|_| {
            let member = group.place();
            run_on(member);
            member
        })
        .collect();
    assert_eq!(
        picks,
        [0, 1, 0, 1],
        "one-at-a-time placement must alternate"
    );

    let gate = Arc::new(AtomicBool::new(false));
    let _open = OpenOnDrop(Arc::clone(&gate));
    let busy = group.members_mut()[1]
        .create_buffer::<f32>("busy", 8)
        .unwrap();
    let held = queues[1]
        .enqueue_launch(
            Gated {
                buf: busy,
                gate: Arc::clone(&gate),
            },
            NdRange::new_1d(8, 8).unwrap(),
            &[],
        )
        .unwrap();
    for round in 0..4 {
        let member = group.place();
        // Checked before enqueueing: a request queued behind the gated
        // kernel on a one-worker member would never finish.
        assert_eq!(member, 0, "round {round} placed behind the busy member");
        run_on(member);
    }
    gate.store(true, Ordering::Release);
    held.wait().unwrap();
}

/// Declares reads `[src]` and writes `[dst]` but also reads `extra`:
/// `dst[i] = src[i] + extra[i]`.
struct ReadsUndeclared {
    src: BufferId,
    dst: BufferId,
    extra: BufferId,
}

impl Kernel for ReadsUndeclared {
    fn name(&self) -> &str {
        "reads_undeclared"
    }

    fn buffer_usage(&self) -> Option<BufferUse> {
        Some(BufferUse::new([self.src], [self.dst]))
    }

    fn run_phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>) {
        let i = ctx.global_id(0);
        let a: f32 = ctx.read_global(self.src, i);
        let b: f32 = ctx.read_global(self.extra, i);
        ctx.write_global(self.dst, i, a + b);
    }
}

/// Every launch path enforces the declared usage. Without that, a sharded
/// or placed launch would read a stale copy of the undeclared buffer on a
/// member the group never migrated it to (the host rewrote it on member
/// 0), and a blocking launch would read the fresh one — three different
/// answers for one kernel.
#[test]
fn undeclared_reads_fault_identically_on_every_launch_path() {
    const N: usize = 8;
    let range = NdRange::new_1d(N, 4).unwrap();
    let cfg = DeviceConfig::test_tiny();

    let mut dev = Device::new(cfg.clone()).unwrap();
    let src = dev.create_buffer_from("src", &[1.0f32; N]).unwrap();
    let dst = dev.create_buffer::<f32>("dst", N).unwrap();
    let extra = dev.create_buffer::<f32>("extra", N).unwrap();
    dev.write_buffer(extra, &[100.0f32; N]).unwrap();
    let kernel = ReadsUndeclared { src, dst, extra };
    let reference = dev.launch(&kernel, range);
    let ref_bits = bits(&dev.read_buffer::<f32>(dst).unwrap());
    match &reference {
        Err(SimError::KernelFaults { total, .. }) => assert_eq!(*total, N),
        other => panic!("undeclared reads must fault, got {other:?}"),
    }

    dev.write_buffer(dst, &[0.0f32; N]).unwrap();
    let result = dev
        .create_queue()
        .enqueue_launch(ReadsUndeclared { src, dst, extra }, range, &[])
        .unwrap()
        .wait_report();
    assert_same_outcome(&reference, &result, "queued");
    assert_eq!(bits(&dev.read_buffer::<f32>(dst).unwrap()), ref_bits);

    type Launch<'a> =
        &'a dyn Fn(&mut DeviceGroup, &ReadsUndeclared) -> Result<LaunchReport, SimError>;
    let group_run = |members: usize, launch: Launch| {
        let mut group = DeviceGroup::with_devices(cfg.clone(), members).unwrap();
        let src = group.create_buffer_from("src", &[1.0f32; N]).unwrap();
        let dst = group.create_buffer::<f32>("dst", N).unwrap();
        let extra = group.create_buffer::<f32>("extra", N).unwrap();
        group.write_buffer(extra, &[100.0f32; N]).unwrap();
        let result = launch(&mut group, &ReadsUndeclared { src, dst, extra });
        (result, bits(&group.read_buffer::<f32>(dst).unwrap()))
    };
    for members in [1, 2] {
        let (result, out) = group_run(members, &|g, k| g.launch_sharded(k, range));
        assert_same_outcome(&reference, &result, &format!("sharded on {members}"));
        assert_eq!(out, ref_bits, "sharded on {members}");
    }
    let (result, out) = group_run(2, &|g, k| g.launch_on(1, k, range));
    assert_same_outcome(&reference, &result, "placed on member 1");
    assert_eq!(out, ref_bits, "placed on member 1");
}
