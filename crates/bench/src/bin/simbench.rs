//! `simbench` — launch-engine throughput benchmark.
//!
//! Measures the simulator's host-side launch-loop throughput (work groups
//! simulated per wall-clock second) on two workloads and writes the
//! results as machine-readable JSON so the performance trajectory is
//! tracked across PRs:
//!
//! * a Fig. 8-style sweep of the hand-written Gaussian app — once on the
//!   serial reference path and once per worker-thread count on the
//!   parallel engine;
//! * the perforated PerfCL Gaussian kernel on the `kp-ir` toolchain, once
//!   per execution mode — the tree-walking interpreter vs. the
//!   lane-batched register bytecode VM (64-lane waves, the preset's
//!   wavefront) — recording the compiled-over-interpreted speedup;
//! * the same kernel at both bytecode optimization levels — as-lowered
//!   (`O0`) vs. the full pass pipeline (`O2`) — recording the
//!   optimized-over-unoptimized speedup in an `ir_optimizer` section;
//! * a `queue_overlap` section: two independent perforated launches
//!   enqueued on two command queues and reaped together, vs. the same two
//!   launches serialized (enqueue + wait each), at 1/2/8 workers — the
//!   regression gate for the command-stream scheduler;
//! * an `eager_vs_demand` section: the same two launches plus a
//!   calibrated slab of host-side work, scheduled host-work-first (the
//!   total a demand-driven scheduler that only starts at the first wait
//!   cannot beat) vs. enqueue-first (the persistent pool executes while
//!   the host works) — the regression gate for eager start;
//! * a `multi_device` section: the perforated Gaussian launch sharded
//!   across a [`DeviceGroup`] of 1/2/4 members (one engine worker per
//!   member, so the fleet size is the concurrency lever) against a plain
//!   single device, plus the tuner sweep's wall time when routed through
//!   a 1/2/4-member fleet — the regression gate for the group runtime.
//!
//! ```text
//! Usage: simbench [--out FILE] [--size N] [--reps N] [--check]
//!
//! Options:
//!   --out FILE  output path (default: BENCH_simulator.json)
//!   --size N    square image side length (default: 256)
//!   --reps N    repetitions per configuration; best rep is kept (default: 3)
//!   --check     exit non-zero on a regression (CI gates):
//!               - compiled IR throughput below interpreted
//!               - optimized bytecode throughput below unoptimized
//!               - queue_overlap below 0.95x serialized in any run (the
//!                 overhead bound); on a >= 4-core host the best
//!                 multi-worker run that fits the cores must additionally
//!                 reach >= 1.1x — real extracted overlap
//!               - eager_vs_demand below 0.9x (overhead bound; on a
//!                 multi-core host eager must reach >= 1.05x, i.e.
//!                 eager start must actually beat demand-driven drain)
//!               - a 1-member sharded launch below 0.9x the plain
//!                 single-device launch (the group-runtime overhead
//!                 bound); on a >= 4-core host the best multi-member
//!                 fleet must additionally reach >= 1.1x the 1-member
//!                 fleet — sharding must extract real concurrency
//!               - a multi-device tuner sweep slower than 1/0.8x the
//!                 single-device sweep wall time (overhead bound only:
//!                 the reference and baseline runs are serial, so
//!                 Amdahl caps the sweep-level win)
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use kp_apps::suite;
use kp_bench::util::{ir_gaussian_rows1, run_ir_gaussian};
use kp_core::{
    fig8_specs, run_app, sweep, AppRef, ApproxConfig, ErrorMetric, ImageBinding, ImageInput,
    PerforatedKernel, PrefetchLayout, RunSpec, SweepContext, WorkloadRef,
};
use kp_gpu_sim::{Device, DeviceConfig, DeviceGroup, ExecMode, NdRange, OptLevel};

struct Measurement {
    threads: usize,
    seconds: f64,
    groups: usize,
}

impl Measurement {
    fn groups_per_sec(&self) -> f64 {
        self.groups as f64 / self.seconds
    }
}

/// Runs the fig8 workload once at the given engine parallelism and returns
/// (wall seconds, groups simulated).
fn run_workload(
    app: &kp_apps::AppEntry,
    data: &[f32],
    size: usize,
    specs: &[RunSpec],
    parallelism: usize,
) -> (f64, usize) {
    let mut cfg = DeviceConfig::firepro_w5100();
    cfg.parallelism = parallelism;
    let mut dev = Device::new(cfg).unwrap();
    let input = ImageInput::new(data, size, size).unwrap();
    let started = Instant::now();
    let mut groups = 0usize;
    for spec in specs {
        let result = run_app(&mut dev, app.workload, &input, spec).expect("workload run failed");
        groups += result.report.groups;
    }
    (started.elapsed().as_secs_f64(), groups)
}

/// Runs a workload `reps` times and keeps the fastest repetition — the
/// single rep policy shared by every measurement in this binary.
fn best_of(reps: usize, mut run: impl FnMut() -> (f64, usize)) -> (f64, usize) {
    let mut best: Option<(f64, usize)> = None;
    for _ in 0..reps {
        let (seconds, groups) = run();
        if best.is_none_or(|(b, _)| seconds < b) {
            best = Some((seconds, groups));
        }
    }
    best.expect("reps >= 1")
}

fn measure(
    app: &kp_apps::AppEntry,
    data: &[f32],
    size: usize,
    specs: &[RunSpec],
    parallelism: usize,
    reps: usize,
) -> Measurement {
    let (seconds, groups) = best_of(reps, || run_workload(app, data, size, specs, parallelism));
    Measurement {
        threads: parallelism,
        seconds,
        groups,
    }
}

/// Best-of-`reps` measurement of the IR Gaussian workload at one
/// execution mode and optimization level.
fn measure_ir(
    def: &kp_ir::ast::KernelDef,
    data: &[f32],
    size: usize,
    mode: ExecMode,
    opt: OptLevel,
    reps: usize,
) -> Measurement {
    let (seconds, groups) = best_of(reps, || {
        run_ir_gaussian(def, data, size, (16, 16), mode, opt)
    });
    Measurement {
        threads: 1,
        seconds,
        groups,
    }
}

/// One `queue_overlap` measurement: the same pair of independent
/// perforated launches (disjoint buffer sets), serialized vs. overlapped
/// on two queues, at one worker count. Returns best-of-`reps` seconds for
/// each schedule plus the total groups per run.
struct OverlapMeasurement {
    threads: usize,
    serialized_seconds: f64,
    overlapped_seconds: f64,
    groups: usize,
}

/// The launch-pair harness shared by the `queue_overlap` and
/// `eager_vs_demand` sections: one device (explicit worker count, `0` =
/// auto) holding the two disjoint image bindings of the perforated
/// Gaussian pair. Both sections measuring the *same* workload through
/// this one constructor is what keeps their ratios comparable.
struct LaunchPair {
    dev: Device,
    img_a: ImageBinding,
    img_b: ImageBinding,
    range: NdRange,
}

fn launch_pair(data_a: &[f32], data_b: &[f32], size: usize, parallelism: usize) -> LaunchPair {
    let mut cfg = DeviceConfig::firepro_w5100();
    cfg.parallelism = parallelism;
    let mut dev = Device::new(cfg).unwrap();
    let range = NdRange::new_2d((size, size), (16, 16)).unwrap();
    let mut bind = |data: &[f32]| -> ImageBinding {
        let input = dev.create_buffer_from("in", data).unwrap();
        let output = dev.create_buffer::<f32>("out", size * size).unwrap();
        ImageBinding {
            input,
            aux: None,
            output,
            tiled: None,
            width: size,
            height: size,
        }
    };
    let img_a = bind(data_a);
    let img_b = bind(data_b);
    LaunchPair {
        dev,
        img_a,
        img_b,
        range,
    }
}

fn perforated(app: AppRef, img: &ImageBinding) -> PerforatedKernel {
    PerforatedKernel::new(app, *img, ApproxConfig::rows1_nn((16, 16))).unwrap()
}

/// Best-of-`reps` over two schedules, interleaved per rep. Each measured
/// run is tiny, so host-scheduling noise is a visible fraction of it:
/// best-of at least 7 reps, and the schedules alternate within each rep
/// (all-A-then-all-B would let a noisy-neighbor window bias one side).
/// Returns (best `a` seconds, groups from `a`, best `b` seconds).
fn interleaved_best_of(
    reps: usize,
    mut a: impl FnMut() -> (f64, usize),
    mut b: impl FnMut() -> (f64, usize),
) -> (f64, usize, f64) {
    let reps = reps.max(7);
    let mut best_a: Option<(f64, usize)> = None;
    let mut best_b: Option<f64> = None;
    for _ in 0..reps {
        let ra = a();
        if best_a.is_none_or(|(s, _)| ra.0 < s) {
            best_a = Some(ra);
        }
        let (rb, _) = b();
        if best_b.is_none_or(|s| rb < s) {
            best_b = Some(rb);
        }
    }
    let (a_seconds, groups) = best_a.expect("reps >= 1");
    (a_seconds, groups, best_b.expect("reps >= 1"))
}

fn measure_queue_overlap(
    app: AppRef,
    data_a: &[f32],
    data_b: &[f32],
    size: usize,
    threads: usize,
    reps: usize,
) -> OverlapMeasurement {
    let run = |overlapped: bool| -> (f64, usize) {
        let pair = launch_pair(data_a, data_b, size, threads);
        let q1 = pair.dev.create_queue();
        let q2 = pair.dev.create_queue();
        let started = Instant::now();
        let e1 = q1
            .enqueue_launch(perforated(app, &pair.img_a), pair.range, &[])
            .unwrap();
        if !overlapped {
            e1.wait().unwrap();
        }
        let e2 = q2
            .enqueue_launch(perforated(app, &pair.img_b), pair.range, &[])
            .unwrap();
        let r1 = e1.wait_report().unwrap();
        let r2 = e2.wait_report().unwrap();
        (started.elapsed().as_secs_f64(), r1.groups + r2.groups)
    };
    let (serialized_seconds, groups, overlapped_seconds) =
        interleaved_best_of(reps, || run(false), || run(true));
    OverlapMeasurement {
        threads,
        serialized_seconds,
        overlapped_seconds,
        groups,
    }
}

impl OverlapMeasurement {
    /// Overlapped-over-serialized throughput ratio (> 1 means the queue
    /// scheduler extracted real concurrency).
    fn ratio(&self) -> f64 {
        self.serialized_seconds / self.overlapped_seconds
    }
}

/// One `eager_vs_demand` measurement: two independent perforated launches
/// plus a calibrated slab of host-side work, in two schedules. `demand`
/// runs the host slab *before* enqueueing — the best total a
/// demand-driven scheduler (execution starting only at the first wait)
/// could achieve; `eager` enqueues first, so the persistent pool executes
/// the launches while the host works. Eager wall time approaches
/// max(host, device) instead of host + device when cores are available.
struct EagerMeasurement {
    /// Worker-pool size of the measured devices (auto resolution, so CI's
    /// `KP_SIM_PARALLELISM` override applies).
    workers: usize,
    /// Host-work passes per run (calibration output, recorded for
    /// reproducibility).
    passes: usize,
    demand_seconds: f64,
    eager_seconds: f64,
    groups: usize,
}

impl EagerMeasurement {
    /// Demand-over-eager wall-time ratio (> 1 means eager start bought
    /// real host/device overlap).
    fn ratio(&self) -> f64 {
        self.demand_seconds / self.eager_seconds
    }
}

/// A deterministic, unoptimizable host-side workload over the input data.
fn host_slab(data: &[f32], passes: usize) -> f64 {
    let mut acc = 0.0f64;
    for p in 0..passes {
        for (i, &v) in data.iter().enumerate() {
            acc += f64::from(v) * ((i ^ p) as f64);
        }
    }
    acc
}

fn measure_eager_vs_demand(
    app: AppRef,
    data_a: &[f32],
    data_b: &[f32],
    size: usize,
    reps: usize,
) -> EagerMeasurement {
    // Parallelism 0 = auto pool, so CI's KP_SIM_PARALLELISM applies.
    let workers = kp_gpu_sim::resolve_parallelism(0);

    // Calibrate the host slab against the device side so the two are
    // comparable: time the two launches alone, then one checksum pass.
    let device_seconds = {
        let pair = launch_pair(data_a, data_b, size, 0);
        let q1 = pair.dev.create_queue();
        let q2 = pair.dev.create_queue();
        let started = Instant::now();
        let e1 = q1
            .enqueue_launch(perforated(app, &pair.img_a), pair.range, &[])
            .unwrap();
        let e2 = q2
            .enqueue_launch(perforated(app, &pair.img_b), pair.range, &[])
            .unwrap();
        e1.wait().unwrap();
        e2.wait().unwrap();
        started.elapsed().as_secs_f64()
    };
    let pass_seconds = {
        let started = Instant::now();
        std::hint::black_box(host_slab(data_a, 1));
        started.elapsed().as_secs_f64().max(1e-9)
    };
    let passes = ((device_seconds / pass_seconds).round() as usize).clamp(1, 256);

    let run = |eager: bool| -> (f64, usize) {
        let pair = launch_pair(data_a, data_b, size, 0);
        let q1 = pair.dev.create_queue();
        let q2 = pair.dev.create_queue();
        let enqueue_both = || {
            let e1 = q1
                .enqueue_launch(perforated(app, &pair.img_a), pair.range, &[])
                .unwrap();
            let e2 = q2
                .enqueue_launch(perforated(app, &pair.img_b), pair.range, &[])
                .unwrap();
            (e1, e2)
        };
        let started = Instant::now();
        let events = if eager {
            let events = enqueue_both();
            std::hint::black_box(host_slab(data_a, passes));
            events
        } else {
            std::hint::black_box(host_slab(data_a, passes));
            enqueue_both()
        };
        let r1 = events.0.wait_report().unwrap();
        let r2 = events.1.wait_report().unwrap();
        (started.elapsed().as_secs_f64(), r1.groups + r2.groups)
    };
    let (demand_seconds, groups, eager_seconds) =
        interleaved_best_of(reps, || run(false), || run(true));
    EagerMeasurement {
        workers,
        passes,
        demand_seconds,
        eager_seconds,
        groups,
    }
}

/// One `multi_device` sharded-launch measurement: the perforated Gaussian
/// launch sharded across a fleet of `devices` members, each with a
/// single-worker engine — so the fleet size, not the per-member pool, is
/// the concurrency lever.
struct ShardedMeasurement {
    devices: usize,
    seconds: f64,
    groups: usize,
    /// Simulated seconds of coherence migrations the fleet paid on top of
    /// the (bit-identical) launch reports — [`GroupStats::migration_seconds`]
    /// surfaced per run so the stream-level cost is visible in the JSON.
    ///
    /// [`GroupStats::migration_seconds`]: kp_gpu_sim::GroupStats::migration_seconds
    migration_seconds: f64,
}

impl ShardedMeasurement {
    fn groups_per_sec(&self) -> f64 {
        self.groups as f64 / self.seconds
    }
}

/// Launches the perforated Gaussian `rounds` times on an n-member group
/// (or, with `devices == 0`, on a plain single device as the no-group
/// reference) and returns (wall seconds, groups simulated, simulated
/// migration seconds the fleet paid on top of the launch reports).
fn run_sharded(app: AppRef, data: &[f32], size: usize, devices: usize) -> (f64, usize, f64) {
    let mut cfg = DeviceConfig::firepro_w5100();
    cfg.parallelism = 1;
    let range = NdRange::new_2d((size, size), (16, 16)).unwrap();
    let rounds = 4usize;
    let config = ApproxConfig::rows1_nn((16, 16));
    let mut groups = 0usize;
    if devices == 0 {
        let mut dev = Device::new(cfg).unwrap();
        let input = dev.create_buffer_from("in", data).unwrap();
        let output = dev.create_buffer::<f32>("out", size * size).unwrap();
        let img = ImageBinding {
            input,
            aux: None,
            output,
            tiled: None,
            width: size,
            height: size,
        };
        let kernel = PerforatedKernel::new(app, img, config).unwrap();
        let started = Instant::now();
        for _ in 0..rounds {
            groups += dev.launch(&kernel, range).unwrap().groups;
        }
        (started.elapsed().as_secs_f64(), groups, 0.0)
    } else {
        let mut group = DeviceGroup::with_devices(cfg.clone(), devices).unwrap();
        let input = group.create_buffer_from("in", data).unwrap();
        let output = group.create_buffer::<f32>("out", size * size).unwrap();
        let img = ImageBinding {
            input,
            aux: None,
            output,
            tiled: None,
            width: size,
            height: size,
        };
        let kernel = PerforatedKernel::new(app, img, config).unwrap();
        let started = Instant::now();
        for _ in 0..rounds {
            groups += group.launch_sharded(&kernel, range).unwrap().groups;
        }
        let wall = started.elapsed().as_secs_f64();
        (wall, groups, group.stats().migration_seconds(&cfg))
    }
}

/// One prefetch-layout comparison: the same selection scheme under the
/// row-major strided layout vs the burst-tiled layout, compared in
/// **simulated** seconds on a burst-discounted device. The simulator is
/// deterministic, so a single run per layout is exact — no reps, no
/// wall-clock noise, and the outputs must be bit-identical (layouts change
/// *where* elements are fetched from, never their values).
struct LayoutPair {
    config: String,
    strided_seconds: f64,
    burst_seconds: f64,
    bit_identical: bool,
}

impl LayoutPair {
    /// Strided-over-burst simulated-time ratio (> 1 means the burst
    /// layout's DRAM continuations bought real simulated bandwidth).
    fn ratio(&self) -> f64 {
        self.strided_seconds / self.burst_seconds
    }
}

/// Runs one perforated variant and returns (simulated seconds, output,
/// shifted halo elements).
fn run_layout(
    workload: WorkloadRef,
    data: &[f32],
    size: usize,
    cfg: &DeviceConfig,
    config: ApproxConfig,
) -> (f64, Vec<f32>, u64) {
    let mut dev = Device::new(cfg.clone()).unwrap();
    let input = ImageInput::new(data, size, size).unwrap();
    let run = run_app(&mut dev, workload, &input, &RunSpec::Perforated(config)).unwrap();
    (
        run.report.seconds,
        run.output,
        run.report.stats.shifted_elements,
    )
}

fn measure_layout_pair(
    workload: WorkloadRef,
    data: &[f32],
    size: usize,
    cfg: &DeviceConfig,
    config: ApproxConfig,
) -> LayoutPair {
    let (strided_seconds, strided_out, _) = run_layout(workload, data, size, cfg, config);
    let (burst_seconds, burst_out, _) = run_layout(
        workload,
        data,
        size,
        cfg,
        config.with_layout(PrefetchLayout::BurstTiled),
    );
    LayoutPair {
        config: RunSpec::Perforated(config).label(),
        strided_seconds,
        burst_seconds,
        bit_identical: strided_out == burst_out,
    }
}

/// Wall seconds of one tuner sweep (fig8 specs) routed through a fleet of
/// `devices` members, each with a single-worker engine.
fn run_sweep(app: WorkloadRef, data: &[f32], size: usize, devices: usize) -> (f64, usize) {
    let mut cfg = DeviceConfig::firepro_w5100();
    cfg.parallelism = 1;
    cfg.devices = devices;
    let ctx = SweepContext {
        app,
        input: ImageInput::new(data, size, size).unwrap(),
        metric: ErrorMetric::MeanRelative,
        device: cfg,
        baseline: RunSpec::Baseline { group: (16, 16) },
    };
    let specs = fig8_specs((16, 16), app.halo());
    let started = Instant::now();
    let outcomes = sweep(&ctx, &specs).expect("sweep failed");
    (started.elapsed().as_secs_f64(), outcomes.len())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "BENCH_simulator.json".to_owned();
    let mut size = 256usize;
    let mut reps = 3usize;
    let mut check = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut grab = |name: &str| {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("{name} needs an argument");
                    std::process::exit(2);
                })
                .clone()
        };
        match a.as_str() {
            "--out" => out = grab("--out"),
            "--size" => size = grab("--size").parse().expect("--size must be a number"),
            "--reps" => reps = grab("--reps").parse().expect("--reps must be a number"),
            "--check" => check = true,
            other => {
                eprintln!("unknown option '{other}'");
                std::process::exit(2);
            }
        }
    }
    // The IR workload tiles the image with 16×16 work groups; the fig8
    // sweep has no such constraint, so only the IR section's size is
    // rounded (down, minimum one tile) rather than gating the whole run.
    let ir_size = (size / 16).max(1) * 16;

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let app = suite::by_name("gaussian").expect("gaussian registered");
    let image = kp_data::synth::photo_like(size, size, 0x5EED);
    let data = image.as_slice().to_vec();
    let specs = fig8_specs((16, 16), app.app.halo());

    eprintln!(
        "simbench: fig8-style sweep, gaussian {size}x{size}, {} specs, host cores: {cores}",
        specs.len()
    );

    // Serial reference: the engine at parallelism 1 degenerates to the
    // legacy group-at-a-time path (identical semantics and results).
    let serial = measure(&app, &data, size, &specs, 1, reps);
    eprintln!(
        "  serial          : {:8.3} s  ({:9.0} groups/s)",
        serial.seconds,
        serial.groups_per_sec()
    );

    let mut thread_counts = vec![1usize, 2, 4, 8];
    if !thread_counts.contains(&cores) {
        thread_counts.push(cores);
    }
    let parallel: Vec<Measurement> = thread_counts
        .iter()
        .map(|&t| {
            let m = measure(&app, &data, size, &specs, t, reps);
            eprintln!(
                "  {:2} thread(s)    : {:8.3} s  ({:9.0} groups/s, {:.2}x)",
                t,
                m.seconds,
                m.groups_per_sec(),
                serial.seconds / m.seconds
            );
            m
        })
        .collect();

    // IR-toolchain workload: the perforated PerfCL Gaussian, tree-walking
    // interpreter vs. register bytecode VM (single engine worker each, so
    // the ratio isolates executor throughput).
    eprintln!(
        "simbench: IR exec modes, perforated PerfCL gaussian {ir_size}x{ir_size}, Rows1:NN @ 16x16"
    );
    let ir_image = kp_data::synth::photo_like(ir_size, ir_size, 0x5EED);
    let ir_data = ir_image.as_slice();
    let ir_def = ir_gaussian_rows1((16, 16));
    let interpreted = measure_ir(
        &ir_def,
        ir_data,
        ir_size,
        ExecMode::Interpreted,
        OptLevel::Full,
        reps,
    );
    eprintln!(
        "  interpreted     : {:8.3} s  ({:9.0} groups/s)",
        interpreted.seconds,
        interpreted.groups_per_sec()
    );
    let compiled = measure_ir(
        &ir_def,
        ir_data,
        ir_size,
        ExecMode::Compiled,
        OptLevel::None,
        reps,
    );
    let compiled_speedup = compiled.groups_per_sec() / interpreted.groups_per_sec();
    eprintln!(
        "  compiled O0     : {:8.3} s  ({:9.0} groups/s, {compiled_speedup:.2}x)",
        compiled.seconds,
        compiled.groups_per_sec(),
    );

    // Optimizer workload: same kernel, as-lowered bytecode vs. the full
    // pass pipeline (constant folding, CSE, DCE, ops coalescing).
    let optimized = measure_ir(
        &ir_def,
        ir_data,
        ir_size,
        ExecMode::Compiled,
        OptLevel::Full,
        reps,
    );
    let optimized_speedup = optimized.groups_per_sec() / compiled.groups_per_sec();
    eprintln!(
        "  compiled O2     : {:8.3} s  ({:9.0} groups/s, {optimized_speedup:.2}x vs O0)",
        optimized.seconds,
        optimized.groups_per_sec(),
    );

    // Queue-overlap workload: two independent perforated launches on two
    // queues, overlapped vs. serialized, per worker count.
    eprintln!(
        "simbench: queue overlap, 2x perforated gaussian {ir_size}x{ir_size}, Rows1:NN @ 16x16"
    );
    let overlap_b = kp_data::synth::photo_like(ir_size, ir_size, 0xBEEF);
    let overlap_runs: Vec<OverlapMeasurement> = [1usize, 2, 4, 8]
        .iter()
        .map(|&threads| {
            let m = measure_queue_overlap(
                app.app,
                ir_image.as_slice(),
                overlap_b.as_slice(),
                ir_size,
                threads,
                reps,
            );
            eprintln!(
                "  {:2} thread(s)    : serialized {:8.3} s, overlapped {:8.3} s ({:.2}x)",
                threads,
                m.serialized_seconds,
                m.overlapped_seconds,
                m.ratio()
            );
            m
        })
        .collect();

    // Eager-start workload: the same launch pair plus a calibrated host
    // slab, demand-equivalent schedule vs eager enqueue-first schedule,
    // on auto-sized (KP_SIM_PARALLELISM-aware) worker pools.
    eprintln!("simbench: eager vs demand, 2x perforated gaussian {ir_size}x{ir_size} + host slab");
    let eager = measure_eager_vs_demand(
        app.app,
        ir_image.as_slice(),
        overlap_b.as_slice(),
        ir_size,
        reps,
    );
    eprintln!(
        "  {:2} worker(s)    : demand {:8.3} s, eager {:8.3} s ({:.2}x, {} host passes)",
        eager.workers,
        eager.demand_seconds,
        eager.eager_seconds,
        eager.ratio(),
        eager.passes
    );

    // Multi-device workload: the same perforated launch sharded across a
    // DeviceGroup at several member counts (single-worker members), vs. a
    // plain device; then the tuner sweep routed through the same fleets.
    eprintln!("simbench: multi-device, sharded perforated gaussian {ir_size}x{ir_size}");
    let (plain_seconds, plain_groups, _) = {
        let mut best: Option<(f64, usize, f64)> = None;
        for _ in 0..reps {
            let r = run_sharded(app.app, ir_image.as_slice(), ir_size, 0);
            if best.is_none_or(|(b, _, _)| r.0 < b) {
                best = Some(r);
            }
        }
        best.expect("reps >= 1")
    };
    let plain_gps = plain_groups as f64 / plain_seconds;
    eprintln!("  plain device    : {plain_seconds:8.3} s  ({plain_gps:9.0} groups/s)");
    let sharded_runs: Vec<ShardedMeasurement> = [1usize, 2, 4]
        .iter()
        .map(|&devices| {
            let mut best: Option<(f64, usize, f64)> = None;
            for _ in 0..reps {
                let r = run_sharded(app.app, ir_image.as_slice(), ir_size, devices);
                if best.is_none_or(|(b, _, _)| r.0 < b) {
                    best = Some(r);
                }
            }
            let (seconds, groups, migration_seconds) = best.expect("reps >= 1");
            let m = ShardedMeasurement {
                devices,
                seconds,
                groups,
                migration_seconds,
            };
            eprintln!(
                "  {devices:2} member(s)    : {:8.3} s  ({:9.0} groups/s, {:.2}x vs plain, \
                 {:.6} s simulated migration)",
                m.seconds,
                m.groups_per_sec(),
                m.groups_per_sec() / plain_gps,
                m.migration_seconds
            );
            m
        })
        .collect();
    let sweep_runs: Vec<(usize, f64, usize)> = [1usize, 2, 4]
        .iter()
        .map(|&devices| {
            let (seconds, specs) = best_of(reps, || {
                run_sweep(app.workload, ir_image.as_slice(), ir_size, devices)
            });
            eprintln!("  sweep, {devices} member(s): {seconds:8.3} s wall ({specs} candidates)");
            (devices, seconds, specs)
        })
        .collect();

    // Layout workload: the burst-tiled prefetch layout vs the row-major
    // strided default, priced by the DRAM burst-continuation discount, on
    // the bandwidth-bound RegionSum reduction (per-group sums: the load
    // phase dominates, so layout moves the bottom line). Column selection
    // touches every tile row, so its burst-tiled copy is one contiguous
    // block run; a row scheme at 16-wide tiles would skip whole 64 B
    // blocks and leave nothing to burst. All numbers are *simulated*
    // seconds — deterministic, so these are exact, not wall-clock.
    eprintln!("simbench: prefetch layouts, regionsum {ir_size}x{ir_size}, burst discount 8");
    let regionsum = suite::workload_by_name("regionsum")
        .expect("regionsum registered")
        .workload;
    let burst_cfg = DeviceConfig::firepro_w5100().with_burst_discount(8);
    let layout_pairs: Vec<LayoutPair> = [
        ApproxConfig::accurate((16, 16)),
        ApproxConfig::cols1_nn((16, 16)),
    ]
    .iter()
    .map(|&config| {
        let p = measure_layout_pair(regionsum, ir_image.as_slice(), ir_size, &burst_cfg, config);
        eprintln!(
            "  {:<12}    : strided {:.6} s, burst {:.6} s simulated ({:.2}x, bit-identical: {})",
            p.config,
            p.strided_seconds,
            p.burst_seconds,
            p.ratio(),
            p.bit_identical
        );
        p
    })
    .collect();
    // Systolic differential: the shift-reuse layout on the gaussian
    // stencil (halo 1) must hand halo rows across group boundaries
    // (shifted_elements > 0) and still produce bit-identical output —
    // the same-snapshot contract makes a shifted halo row equal to a
    // re-fetched one.
    let sys_config = ApproxConfig::rows1_nn((16, 16));
    let plain_dev = DeviceConfig::firepro_w5100();
    let (sys_strided_seconds, sys_strided_out, _) = run_layout(
        app.workload,
        ir_image.as_slice(),
        ir_size,
        &plain_dev,
        sys_config,
    );
    let (sys_seconds, sys_out, shifted_elements) = run_layout(
        app.workload,
        ir_image.as_slice(),
        ir_size,
        &plain_dev,
        sys_config.with_layout(PrefetchLayout::SystolicShift),
    );
    let sys_identical = sys_strided_out == sys_out;
    eprintln!(
        "  Rows1:NN@systolic: strided {sys_strided_seconds:.6} s, systolic {sys_seconds:.6} s \
         simulated, {shifted_elements} shifted halo elements, bit-identical: {sys_identical}"
    );

    // Hand-rolled JSON (the workspace is offline; no serializer crates).
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"launch-engine fig8-style sweep\",");
    let _ = writeln!(json, "  \"app\": \"gaussian\",");
    let _ = writeln!(json, "  \"image_size\": {size},");
    let _ = writeln!(json, "  \"specs\": {},", specs.len());
    let _ = writeln!(json, "  \"host_cores\": {cores},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(
        json,
        "  \"serial\": {{ \"seconds\": {:.6}, \"groups\": {}, \"groups_per_sec\": {:.1} }},",
        serial.seconds,
        serial.groups,
        serial.groups_per_sec()
    );
    json.push_str("  \"parallel\": [\n");
    for (i, m) in parallel.iter().enumerate() {
        let _ = write!(
            json,
            "    {{ \"threads\": {}, \"seconds\": {:.6}, \"groups\": {}, \
             \"groups_per_sec\": {:.1}, \"speedup_vs_serial\": {:.3} }}",
            m.threads,
            m.seconds,
            m.groups,
            m.groups_per_sec(),
            serial.seconds / m.seconds
        );
        json.push_str(if i + 1 < parallel.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"ir_exec_modes\": {\n");
    let _ = writeln!(json, "    \"app\": \"gaussian\",");
    let _ = writeln!(json, "    \"config\": \"Rows1:NN @ 16x16\",");
    let _ = writeln!(json, "    \"image_size\": {ir_size},");
    let _ = writeln!(
        json,
        "    \"interpreted\": {{ \"seconds\": {:.6}, \"groups\": {}, \"groups_per_sec\": {:.1} }},",
        interpreted.seconds,
        interpreted.groups,
        interpreted.groups_per_sec()
    );
    let _ = writeln!(
        json,
        "    \"compiled\": {{ \"seconds\": {:.6}, \"groups\": {}, \"groups_per_sec\": {:.1} }},",
        compiled.seconds,
        compiled.groups,
        compiled.groups_per_sec()
    );
    let _ = writeln!(json, "    \"compiled_speedup\": {compiled_speedup:.3}");
    json.push_str("  },\n");
    json.push_str("  \"ir_optimizer\": {\n");
    let _ = writeln!(json, "    \"app\": \"gaussian\",");
    let _ = writeln!(json, "    \"config\": \"Rows1:NN @ 16x16\",");
    let _ = writeln!(json, "    \"image_size\": {ir_size},");
    let _ = writeln!(json, "    \"host_cores\": {cores},");
    let _ = writeln!(
        json,
        "    \"unoptimized\": {{ \"seconds\": {:.6}, \"groups\": {}, \"groups_per_sec\": {:.1} }},",
        compiled.seconds,
        compiled.groups,
        compiled.groups_per_sec()
    );
    let _ = writeln!(
        json,
        "    \"optimized\": {{ \"seconds\": {:.6}, \"groups\": {}, \"groups_per_sec\": {:.1} }},",
        optimized.seconds,
        optimized.groups,
        optimized.groups_per_sec()
    );
    let _ = writeln!(json, "    \"optimized_speedup\": {optimized_speedup:.3}");
    json.push_str("  },\n");
    json.push_str("  \"queue_overlap\": {\n");
    let _ = writeln!(json, "    \"app\": \"gaussian\",");
    let _ = writeln!(json, "    \"config\": \"2x Rows1:NN @ 16x16, two queues\",");
    let _ = writeln!(json, "    \"image_size\": {ir_size},");
    let _ = writeln!(json, "    \"host_cores\": {cores},");
    json.push_str("    \"runs\": [\n");
    for (i, m) in overlap_runs.iter().enumerate() {
        let _ = write!(
            json,
            "      {{ \"threads\": {}, \"serialized_seconds\": {:.6}, \
             \"overlapped_seconds\": {:.6}, \"groups\": {}, \"overlap_ratio\": {:.3} }}",
            m.threads,
            m.serialized_seconds,
            m.overlapped_seconds,
            m.groups,
            m.ratio()
        );
        json.push_str(if i + 1 < overlap_runs.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n  },\n");
    json.push_str("  \"eager_vs_demand\": {\n");
    let _ = writeln!(json, "    \"app\": \"gaussian\",");
    let _ = writeln!(
        json,
        "    \"config\": \"2x Rows1:NN @ 16x16 + calibrated host slab, two queues\","
    );
    let _ = writeln!(json, "    \"image_size\": {ir_size},");
    let _ = writeln!(json, "    \"host_cores\": {cores},");
    let _ = writeln!(json, "    \"workers\": {},", eager.workers);
    let _ = writeln!(json, "    \"host_passes\": {},", eager.passes);
    let _ = writeln!(json, "    \"groups\": {},", eager.groups);
    let _ = writeln!(json, "    \"demand_seconds\": {:.6},", eager.demand_seconds);
    let _ = writeln!(json, "    \"eager_seconds\": {:.6},", eager.eager_seconds);
    let _ = writeln!(json, "    \"eager_ratio\": {:.3}", eager.ratio());
    json.push_str("  },\n");
    json.push_str("  \"multi_device\": {\n");
    let _ = writeln!(json, "    \"app\": \"gaussian\",");
    let _ = writeln!(
        json,
        "    \"config\": \"Rows1:NN @ 16x16, parallelism 1 per member\","
    );
    let _ = writeln!(json, "    \"image_size\": {ir_size},");
    let _ = writeln!(json, "    \"host_cores\": {cores},");
    let _ = writeln!(
        json,
        "    \"plain\": {{ \"seconds\": {plain_seconds:.6}, \"groups\": {plain_groups}, \
         \"groups_per_sec\": {plain_gps:.1} }},"
    );
    json.push_str("    \"sharded\": [\n");
    for (i, m) in sharded_runs.iter().enumerate() {
        let _ = write!(
            json,
            "      {{ \"devices\": {}, \"seconds\": {:.6}, \"groups\": {}, \
             \"groups_per_sec\": {:.1}, \"speedup_vs_plain\": {:.3}, \
             \"migration_seconds\": {:.9} }}",
            m.devices,
            m.seconds,
            m.groups,
            m.groups_per_sec(),
            m.groups_per_sec() / plain_gps,
            m.migration_seconds
        );
        json.push_str(if i + 1 < sharded_runs.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ],\n");
    json.push_str("    \"tuner_sweep\": [\n");
    for (i, &(devices, seconds, specs)) in sweep_runs.iter().enumerate() {
        let _ = write!(
            json,
            "      {{ \"devices\": {devices}, \"seconds\": {seconds:.6}, \
             \"candidates\": {specs}, \"speedup_vs_single\": {:.3} }}",
            sweep_runs[0].1 / seconds
        );
        json.push_str(if i + 1 < sweep_runs.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n  },\n");
    json.push_str("  \"layout\": {\n");
    let _ = writeln!(json, "    \"app\": \"regionsum\",");
    let _ = writeln!(
        json,
        "    \"device\": \"firepro_w5100 + burst discount 8\","
    );
    let _ = writeln!(json, "    \"image_size\": {ir_size},");
    json.push_str("    \"pairs\": [\n");
    for (i, p) in layout_pairs.iter().enumerate() {
        let _ = write!(
            json,
            "      {{ \"config\": \"{}\", \"strided_seconds\": {:.9}, \
             \"burst_seconds\": {:.9}, \"burst_ratio\": {:.3}, \"bit_identical\": {} }}",
            p.config,
            p.strided_seconds,
            p.burst_seconds,
            p.ratio(),
            p.bit_identical
        );
        json.push_str(if i + 1 < layout_pairs.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ],\n");
    json.push_str("    \"systolic\": {\n");
    let _ = writeln!(json, "      \"app\": \"gaussian\",");
    let _ = writeln!(json, "      \"config\": \"Rows1:NN@systolic\",");
    let _ = writeln!(json, "      \"strided_seconds\": {sys_strided_seconds:.9},");
    let _ = writeln!(json, "      \"systolic_seconds\": {sys_seconds:.9},");
    let _ = writeln!(json, "      \"shifted_elements\": {shifted_elements},");
    let _ = writeln!(json, "      \"bit_identical\": {sys_identical}");
    json.push_str("    }\n  }\n}\n");

    std::fs::write(&out, &json).expect("write benchmark json");
    eprintln!("wrote {out}");

    if check {
        let mut failed = false;
        if compiled_speedup < 1.0 {
            eprintln!(
                "check FAILED: compiled throughput ({:.0} groups/s) is below interpreted \
                 ({:.0} groups/s)",
                compiled.groups_per_sec(),
                interpreted.groups_per_sec()
            );
            failed = true;
        }
        if optimized_speedup < 1.0 {
            eprintln!(
                "check FAILED: optimized bytecode throughput ({:.0} groups/s) is below \
                 unoptimized ({:.0} groups/s)",
                optimized.groups_per_sec(),
                compiled.groups_per_sec()
            );
            failed = true;
        }
        // Every overlap run — single-worker, oversubscribed, starved
        // host — bounds the queue layer's overhead: overlapping must
        // never cost more than 5% of serialized throughput.
        for m in &overlap_runs {
            if m.ratio() < 0.95 {
                eprintln!(
                    "check FAILED: queue-overlapped throughput at {} thread(s) is {:.2}x \
                     serialized (must stay >= 0.95x)",
                    m.threads,
                    m.ratio()
                );
                failed = true;
            }
        }
        // On a host with enough cores to actually run two launches at
        // once, the section must additionally show real extracted
        // concurrency: the best multi-worker run that fits the cores
        // (in-launch sharding already uses them in the serialized
        // schedule, so the headline — not every width — carries the
        // gate) must reach >= 1.1x.
        if cores >= 4 {
            let best_fitting = overlap_runs
                .iter()
                .filter(|m| m.threads >= 2 && m.threads <= cores)
                .map(OverlapMeasurement::ratio)
                .fold(f64::MIN, f64::max);
            if best_fitting < 1.10 {
                eprintln!(
                    "check FAILED: best core-fitting multi-worker overlap is {best_fitting:.2}x \
                     serialized on this {cores}-core host (must reach >= 1.10x)"
                );
                failed = true;
            }
        }
        // Eager start must beat the demand-driven schedule wherever a
        // second core exists to overlap host and device work; on one core
        // it can only bound overhead.
        let required_eager = if cores >= 2 { 1.05 } else { 0.90 };
        if eager.ratio() < required_eager {
            eprintln!(
                "check FAILED: eager schedule is {:.2}x the demand-driven schedule \
                 (must be >= {required_eager:.2}x on this {cores}-core host)",
                eager.ratio()
            );
            failed = true;
        }
        // A 1-member fleet runs the exact single-device span path plus
        // the group bookkeeping (coherence checks, scoped-thread spawn,
        // write-gather): that overhead must stay under ~10% on any host.
        let sharded_one = sharded_runs
            .iter()
            .find(|m| m.devices == 1)
            .expect("1-member run measured");
        let group_overhead = sharded_one.groups_per_sec() / plain_gps;
        if group_overhead < 0.90 {
            eprintln!(
                "check FAILED: 1-member sharded launch is {group_overhead:.2}x the plain \
                 single-device launch (group overhead must stay >= 0.90x)"
            );
            failed = true;
        }
        // With real cores behind them, the member devices execute their
        // spans concurrently — the fleet must buy real throughput.
        if cores >= 4 {
            let best_fleet = sharded_runs
                .iter()
                .filter(|m| m.devices >= 2 && m.devices <= cores)
                .map(ShardedMeasurement::groups_per_sec)
                .fold(f64::MIN, f64::max);
            let fleet_speedup = best_fleet / sharded_one.groups_per_sec();
            if fleet_speedup < 1.10 {
                eprintln!(
                    "check FAILED: best multi-member sharded launch is {fleet_speedup:.2}x \
                     the 1-member fleet on this {cores}-core host (must reach >= 1.10x)"
                );
                failed = true;
            }
        }
        // The sweep's reference and baseline runs stay serial (Amdahl),
        // so multi-device routing is gated as an overhead bound only.
        for &(devices, seconds, _) in &sweep_runs {
            let ratio = sweep_runs[0].1 / seconds;
            if ratio < 0.80 {
                eprintln!(
                    "check FAILED: the {devices}-member tuner sweep is {ratio:.2}x the \
                     single-device sweep wall time (must stay >= 0.80x)"
                );
                failed = true;
            }
        }
        // Layout gates are on *simulated* seconds — fully deterministic,
        // so they hold on any host regardless of core count or noise.
        for p in &layout_pairs {
            if !p.bit_identical {
                eprintln!(
                    "check FAILED: burst-tiled output diverged from the strided layout for \
                     {} (layouts must be bit-identical)",
                    p.config
                );
                failed = true;
            }
        }
        let accurate_pair = &layout_pairs[0];
        if accurate_pair.ratio() < 1.10 {
            eprintln!(
                "check FAILED: burst-tiled prefetch is {:.2}x the strided layout on the \
                 bandwidth-bound {} regionsum (must reach >= 1.10x under the burst discount)",
                accurate_pair.ratio(),
                accurate_pair.config
            );
            failed = true;
        }
        for p in &layout_pairs[1..] {
            if p.ratio() < 1.0 {
                eprintln!(
                    "check FAILED: burst-tiled prefetch is {:.2}x the strided layout for \
                     {} (burst must never be slower in simulated time)",
                    p.ratio(),
                    p.config
                );
                failed = true;
            }
        }
        if !sys_identical {
            eprintln!(
                "check FAILED: systolic-shift output diverged from the strided layout \
                 (shifted halo rows must be bit-identical to re-fetched ones)"
            );
            failed = true;
        }
        if shifted_elements == 0 {
            eprintln!(
                "check FAILED: the systolic layout shifted no halo elements — the \
                 neighbor-handoff path never ran"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
    }
}
