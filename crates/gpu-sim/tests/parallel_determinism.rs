//! Differential tests for the parallel launch engine.
//!
//! The contract under test: for kernels whose work groups are independent
//! within one launch (the OpenCL contract), [`Device::launch`] produces
//! **bit-identical** output buffers and **identical** [`LaunchReport`]s at
//! every worker-thread count, and both match [`Device::launch_serial`].
//! This must hold for clean kernels and for faulting ones (the fault log,
//! including its storage cap and total count, is part of the contract).

use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

use kp_gpu_sim::{
    BufferId, Device, DeviceConfig, ElemKind, ItemCtx, Kernel, LocalId, LocalSpec, NdRange,
    SimError,
};

mod common;
use common::Rendezvous;

/// A two-phase 1D stencil: phase 0 cooperatively loads a tile (plus halo)
/// into local memory, phase 1 computes a 3-point average from the tile.
/// Exercises global reads, local memory with barriers, ALU accounting and
/// per-item divergence.
struct Stencil3 {
    src: BufferId,
    dst: BufferId,
    tile: LocalId,
    n: usize,
    /// When set, items whose global id hits this index read out of bounds.
    oob_at: Option<usize>,
}

impl Kernel for Stencil3 {
    fn name(&self) -> &str {
        "stencil3"
    }

    fn phases(&self) -> usize {
        2
    }

    fn local_buffers(&self) -> Vec<LocalSpec> {
        // 16-wide groups plus a one-element halo on each side.
        vec![LocalSpec::new(ElemKind::F32, 18)]
    }

    fn run_phase(&self, phase: usize, ctx: &mut ItemCtx<'_>) {
        let gid = ctx.global_id(0);
        let lid = ctx.local_id(0);
        match phase {
            0 => {
                // Cooperative load with clamped halo.
                let v: f32 = ctx.read_global(self.src, gid.min(self.n - 1));
                ctx.write_local(self.tile, lid + 1, v);
                if lid == 0 {
                    let left = gid.saturating_sub(1);
                    let v: f32 = ctx.read_global(self.src, left);
                    ctx.write_local(self.tile, 0, v);
                }
                if lid == ctx.local_size(0) - 1 {
                    let right = (gid + 1).min(self.n - 1);
                    let v: f32 = ctx.read_global(self.src, right);
                    ctx.write_local(self.tile, lid + 2, v);
                }
                if let Some(bad) = self.oob_at {
                    if gid == bad {
                        // Deliberate fault: index past the end.
                        let _: f32 = ctx.read_global(self.src, self.n + 7);
                    }
                }
            }
            _ => {
                let a: f32 = ctx.read_local(self.tile, lid);
                let b: f32 = ctx.read_local(self.tile, lid + 1);
                let c: f32 = ctx.read_local(self.tile, lid + 2);
                // Divergent op count: odd items do extra work.
                ctx.ops(if gid.is_multiple_of(2) { 4 } else { 7 });
                ctx.write_global(self.dst, gid, (a + b + c) / 3.0);
            }
        }
    }
}

fn input(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((i as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
            ((h >> 40) as f32) / (1u32 << 24) as f32
        })
        .collect()
}

/// Runs the stencil at the given parallelism (None = `launch_serial`) and
/// returns the launch result plus the output buffer contents.
fn run_stencil(
    n: usize,
    seed: u64,
    oob_at: Option<usize>,
    parallelism: Option<usize>,
    profiling: bool,
) -> (Result<kp_gpu_sim::LaunchReport, SimError>, Vec<f32>) {
    let mut cfg = DeviceConfig::firepro_w5100();
    if let Some(p) = parallelism {
        cfg.parallelism = p;
    }
    let mut dev = Device::new(cfg).unwrap();
    dev.set_profiling(profiling);
    let data = input(n, seed);
    let src = dev.create_buffer_from("src", &data).unwrap();
    let dst = dev.create_buffer::<f32>("dst", n).unwrap();
    let kernel = Stencil3 {
        src,
        dst,
        tile: LocalId(0),
        n,
        oob_at,
    };
    let range = NdRange::new_1d(n, 16).unwrap();
    let result = match parallelism {
        Some(_) => dev.launch(&kernel, range),
        None => dev.launch_serial(&kernel, range),
    };
    let output = dev.read_buffer::<f32>(dst).unwrap();
    (result, output)
}

fn assert_identical(
    (ra, oa): &(Result<kp_gpu_sim::LaunchReport, SimError>, Vec<f32>),
    (rb, ob): &(Result<kp_gpu_sim::LaunchReport, SimError>, Vec<f32>),
    label: &str,
) {
    // Outputs must be bit-identical.
    let bits_a: Vec<u32> = oa.iter().map(|v| v.to_bits()).collect();
    let bits_b: Vec<u32> = ob.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits_a, bits_b, "{label}: output buffers differ");
    match (ra, rb) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{label}: reports differ"),
        (
            Err(SimError::KernelFaults {
                faults: fa,
                total: ta,
                ..
            }),
            Err(SimError::KernelFaults {
                faults: fb,
                total: tb,
                ..
            }),
        ) => {
            assert_eq!(ta, tb, "{label}: fault totals differ");
            assert_eq!(fa, fb, "{label}: fault logs differ");
        }
        (a, b) => panic!("{label}: divergent outcomes: {a:?} vs {b:?}"),
    }
}

/// Clean stencil: serial and every parallel width agree bit-for-bit, for
/// several sizes and seeds, with and without profiling.
#[test]
fn parallel_matches_serial_clean() {
    for &n in &[16usize, 64, 256, 1024] {
        for seed in 0..4u64 {
            for profiling in [true, false] {
                let reference = run_stencil(n, seed, None, None, profiling);
                assert!(reference.0.is_ok(), "reference run must be clean");
                for threads in [1usize, 2, 3, 8] {
                    let parallel = run_stencil(n, seed, None, Some(threads), profiling);
                    assert_identical(
                        &reference,
                        &parallel,
                        &format!("n={n} seed={seed} threads={threads} profiling={profiling}"),
                    );
                }
            }
        }
    }
}

/// Faulting stencil: the fault log (positions, order, storage cap, total)
/// is identical across serial and all parallel widths.
#[test]
fn parallel_matches_serial_with_faults() {
    for &n in &[64usize, 256] {
        for seed in 0..2u64 {
            // One faulting item in the middle of the grid.
            let reference = run_stencil(n, seed, Some(n / 2), None, true);
            assert!(reference.0.is_err(), "fault must surface");
            for threads in [1usize, 2, 8] {
                let parallel = run_stencil(n, seed, Some(n / 2), Some(threads), true);
                assert_identical(
                    &reference,
                    &parallel,
                    &format!("faulting n={n} seed={seed} threads={threads}"),
                );
            }
        }
    }
}

/// Auto parallelism (0 = all cores) is part of the same contract.
#[test]
fn auto_parallelism_matches_serial() {
    let reference = run_stencil(512, 9, None, None, true);
    let auto = run_stencil(512, 9, None, Some(0), true);
    assert_identical(&reference, &auto, "auto threads");
}

/// One launch's groups really run on different engine workers: two
/// 1-item groups on a 2-worker device meet at a two-party rendezvous,
/// which only completes if both groups are executing at once.
#[test]
fn one_launch_runs_its_groups_concurrently_on_two_workers() {
    let mut cfg = DeviceConfig::test_tiny();
    cfg.parallelism = 2;
    let mut dev = Device::new(cfg).unwrap();
    let out = dev.create_buffer::<f32>("out", 2).unwrap();
    let kernel = Rendezvous {
        out,
        arrived: Arc::new(AtomicUsize::new(0)),
        parties: 2,
    };
    dev.launch(&kernel, NdRange::new_1d(2, 1).unwrap()).unwrap();
    assert_eq!(
        dev.read_buffer::<f32>(out).unwrap(),
        [1.0, 1.0],
        "the two groups did not overlap (0.0 = rendezvous timed out)"
    );
}

/// A kernel that writes and then re-reads its own output buffer within one
/// group: the write-log overlay must give the group its own stores back.
struct ReadBack {
    buf: BufferId,
}

impl Kernel for ReadBack {
    fn name(&self) -> &str {
        "read-back"
    }

    fn phases(&self) -> usize {
        2
    }

    fn run_phase(&self, phase: usize, ctx: &mut ItemCtx<'_>) {
        let gid = ctx.global_id(0);
        match phase {
            0 => ctx.write_global(self.buf, gid, (gid * 3) as f32),
            _ => {
                // Re-read own group's writes: items of one group read the
                // slot of their left neighbor *within the same group*.
                let base = ctx.group_id(0) * ctx.local_size(0);
                let left = base + (ctx.local_id(0) + ctx.local_size(0) - 1) % ctx.local_size(0);
                let v: f32 = ctx.read_global(self.buf, left);
                ctx.write_global(self.buf, gid, v + 1.0);
            }
        }
    }
}

#[test]
fn groups_observe_their_own_writes_at_any_width() {
    let run = |threads: Option<usize>| {
        let mut cfg = DeviceConfig::firepro_w5100();
        if let Some(t) = threads {
            cfg.parallelism = t;
        }
        let mut dev = Device::new(cfg).unwrap();
        let buf = dev.create_buffer::<f32>("buf", 128).unwrap();
        let kernel = ReadBack { buf };
        let range = NdRange::new_1d(128, 16).unwrap();
        match threads {
            Some(_) => dev.launch(&kernel, range).unwrap(),
            None => dev.launch_serial(&kernel, range).unwrap(),
        };
        dev.read_buffer::<f32>(buf).unwrap()
    };
    let reference = run(None);
    // Spot-check: within a group, phase-1 items run in order, so the reads
    // cascade. Item 0 of group 0 reads item 15's phase-0 value (45.0) and
    // writes 46.0; every later item reads its left neighbor's fresh write,
    // so item 5 ends at 46 + 5 = 51. Only the overlay (a group observing
    // its own earlier stores) produces this value.
    assert_eq!(reference[5], 51.0);
    for threads in [1usize, 2, 4, 8] {
        assert_eq!(run(Some(threads)), reference, "threads={threads}");
    }
}
