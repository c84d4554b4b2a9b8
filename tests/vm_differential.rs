//! Bytecode-VM differential suite.
//!
//! `kp-ir` kernels compile to register bytecode at construction, run the
//! optimizer pass pipeline over it, and execute on the lane-batched VM
//! one simulated wavefront at a time. Two slower strategies stay as
//! references: the tree-walking evaluator (`ExecMode::Interpreted`, run
//! item by item) and the as-lowered bytecode (`OptLevel::None`),
//! mirroring how `launch_serial` is the reference for the parallel launch
//! engine. This suite asserts the whole contract at once, app by app:
//! **outputs (bit for bit), launch reports (statistics + timing), runtime
//! errors and fault logs must be identical** across
//!
//! * all execution strategies — tree walk, unoptimized VM, optimized VM —
//!   at wavefront widths 1, 4, 8 and 64, and
//! * both launch frontends — serial reference and parallel engine at
//!   worker counts 1, 2, 8 and auto —
//!
//! for the five PerfCL evaluation apps (accurate *and* perforated
//! variants) plus dedicated fault/runtime-error kernels. Reports depend
//! on the wavefront width, so each width is compared against the tree
//! walk at that same width.

use kernel_perforation::apps::perfcl::{self, PerfclApp};
use kernel_perforation::data::synth;
use kernel_perforation::gpu_sim::{
    Device, DeviceConfig, ExecMode, LaunchReport, NdRange, OptLevel, SimError,
};
use kernel_perforation::ir::{
    ast::KernelDef,
    parser::parse,
    transform::{perforate_kernel, IrRecon, IrScheme, PassConfig},
    ArgValue, IrError, IrKernel,
};

/// How a case is launched.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Launch {
    /// `Device::launch_serial` — the legacy one-group-at-a-time reference.
    Serial,
    /// `Device::launch` at the given worker count (0 = auto).
    Parallel(usize),
}

/// The launch matrix every case runs under.
const LAUNCHES: [Launch; 5] = [
    Launch::Serial,
    Launch::Parallel(1),
    Launch::Parallel(2),
    Launch::Parallel(8),
    Launch::Parallel(0),
];

/// The execution strategies every case runs under: the tree-walk
/// reference, then the VM on the as-lowered and on the optimized bytecode.
const STRATEGIES: [(ExecMode, OptLevel); 3] = [
    (ExecMode::Interpreted, OptLevel::Full), // opt level ignored
    (ExecMode::Compiled, OptLevel::None),
    (ExecMode::Compiled, OptLevel::Full),
];

/// The device wavefront widths every case runs at; one VM wave is one
/// wavefront. 1 degenerates to one-lane waves, 4 and 8 split the 8×8
/// groups into several full waves, and 64 (the FirePro preset) holds a
/// whole 8×8 group in one wave. The 6×3 groups (18 items) end in a
/// shorter tail wave at every width but 1.
const WAVEFRONTS: [usize; 4] = [1, 4, 8, 64];

/// Everything observable from one launch, in comparable form.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    /// Output buffer as raw bits (exact equality, NaN-safe).
    output_bits: Vec<u32>,
    /// Full report (stats, timing, occupancy) on success.
    report: Option<LaunchReport>,
    /// Launch error (kernel faults keep their full logs), if any.
    error: Option<SimError>,
    /// First interpreter/VM runtime error, if any.
    runtime_error: Option<IrError>,
}

/// Runs one kernel definition with standard bindings and returns the
/// observable outcome.
#[allow(clippy::too_many_arguments)] // mirrors the full case coordinates
fn run_case(
    def: &KernelDef,
    app: &PerfclApp,
    data: &[f32],
    aux: &[f32],
    (w, h): (usize, usize),
    group: (usize, usize),
    wavefront: usize,
    (mode, opt): (ExecMode, OptLevel),
    launch: Launch,
) -> Outcome {
    let mut cfg = DeviceConfig::firepro_w5100();
    cfg.wavefront_size = wavefront;
    cfg.exec_mode = mode;
    cfg.opt_level = opt;
    if let Launch::Parallel(threads) = launch {
        cfg.parallelism = threads;
    }
    let mut dev = Device::new(cfg).unwrap();
    let in_buf = dev.create_buffer_from("in", data).unwrap();
    let out_buf = dev.create_buffer::<f32>("out", w * h).unwrap();
    let mut args = vec![
        ("in", ArgValue::Buffer(in_buf)),
        ("out", ArgValue::Buffer(out_buf)),
        ("width", ArgValue::Int(w as i64)),
        ("height", ArgValue::Int(h as i64)),
    ];
    if app.needs_aux {
        let aux_buf = dev.create_buffer_from("aux", aux).unwrap();
        args.push(("aux", ArgValue::Buffer(aux_buf)));
    }
    for &(name, v) in app.extra_args {
        args.push((name, ArgValue::Float(v)));
    }
    let kernel = IrKernel::new(def.clone(), &args).unwrap();

    // Global size padded up to group multiples; the kernels guard.
    let range = NdRange::new_2d(
        (w.div_ceil(group.0) * group.0, h.div_ceil(group.1) * group.1),
        group,
    )
    .unwrap();
    let result = match launch {
        Launch::Serial => dev.launch_serial(&kernel, range),
        Launch::Parallel(_) => dev.launch(&kernel, range),
    };
    let (report, error) = match result {
        Ok(r) => (Some(r), None),
        Err(e) => (None, Some(e)),
    };
    Outcome {
        output_bits: dev
            .read_buffer::<f32>(out_buf)
            .unwrap()
            .into_iter()
            .map(f32::to_bits)
            .collect(),
        report,
        error,
        runtime_error: kernel.take_runtime_error(),
    }
}

/// Runs the full width × strategy × launch matrix for one kernel
/// definition and asserts every outcome equals the interpreted-serial
/// reference at the same wavefront width.
fn assert_matrix_identical(
    label: &str,
    def: &KernelDef,
    app: &PerfclApp,
    (w, h): (usize, usize),
    group: (usize, usize),
) {
    let data = synth::photo_like(w, h, 0x5EED).as_slice().to_vec();
    let aux = synth::photo_like(w, h, 0xA0C).as_slice().to_vec();
    let case = |wavefront, strategy, launch| {
        run_case(
            def,
            app,
            &data,
            &aux,
            (w, h),
            group,
            wavefront,
            strategy,
            launch,
        )
    };
    for wavefront in WAVEFRONTS {
        let reference = case(wavefront, STRATEGIES[0], Launch::Serial);
        for strategy in STRATEGIES {
            for launch in LAUNCHES {
                if (strategy, launch) == (STRATEGIES[0], Launch::Serial) {
                    continue;
                }
                assert_eq!(
                    case(wavefront, strategy, launch),
                    reference,
                    "{label}: {strategy:?} / {launch:?} at wavefront {wavefront} diverges \
                     from interpreted serial"
                );
            }
        }
    }
}

#[test]
fn accurate_apps_are_identical_across_modes_and_launches() {
    // 44×33 is deliberately not a multiple of the group size, so the
    // early-return guards execute on the padded border items.
    for app in perfcl::evaluation_kernels() {
        let def = parse(app.source).unwrap().kernels.remove(0);
        assert_matrix_identical(
            &format!("{} accurate", app.name),
            &def,
            &app,
            (44, 33),
            (8, 8),
        );
    }
}

#[test]
fn perforated_apps_are_identical_across_modes_and_launches() {
    // The perforation pass specializes kernels for a fixed tile, so the
    // image divides the group exactly here (the pass's launch contract).
    for app in perfcl::evaluation_kernels() {
        let def = parse(app.source).unwrap().kernels.remove(0);
        let pass = PassConfig {
            scheme: IrScheme::RowsHalf,
            reconstruction: IrRecon::NearestNeighbor,
            tile_w: 8,
            tile_h: 8,
        };
        let perforated = perforate_kernel(&def, &pass).unwrap();
        assert_matrix_identical(
            &format!("{} Rows1:NN", app.name),
            &perforated,
            &app,
            (40, 24),
            (8, 8),
        );
    }
}

#[test]
fn linear_interpolation_variant_is_identical_too() {
    // A second reconstruction exercises a different generated-code shape
    // (two-sided distance weighting with division).
    let app = perfcl::by_name("gaussian").unwrap();
    let def = parse(app.source).unwrap().kernels.remove(0);
    let pass = PassConfig {
        scheme: IrScheme::RowsHalf,
        reconstruction: IrRecon::LinearInterpolation,
        tile_w: 8,
        tile_h: 8,
    };
    let perforated = perforate_kernel(&def, &pass).unwrap();
    assert_matrix_identical("gaussian Rows1:LI", &perforated, &app, (32, 24), (8, 8));
}

#[test]
fn tail_wavefronts_with_column_divergence_are_identical() {
    // Group (6, 3) = 18 work-items: not a multiple of any wavefront
    // width above 1, so every group runs two full 8-wide waves plus a
    // 2-lane tail (four full 4-wide waves plus a 2-lane tail, or one
    // 18-lane wave at width 64). ColsHalf
    // perforation branches on the *x* coordinate — adjacent lanes of one
    // wave take opposite sides of the sparse-load branch, the closest
    // thing the pass offers to per-lane random divergence.
    let app = perfcl::by_name("gaussian").unwrap();
    let def = parse(app.source).unwrap().kernels.remove(0);
    let pass = PassConfig {
        scheme: IrScheme::ColsHalf,
        reconstruction: IrRecon::NearestNeighbor,
        tile_w: 6,
        tile_h: 3,
    };
    let perforated = perforate_kernel(&def, &pass).unwrap();
    assert_matrix_identical(
        "gaussian Cols1:NN tail-wave",
        &perforated,
        &app,
        (36, 15),
        (6, 3),
    );
}

#[test]
fn stencil_scheme_divergence_is_identical_across_lanes() {
    // The Stencil scheme's sparse-load predicate depends on both local
    // coordinates (interior vs halo ring), and its reconstruction phase
    // runs only on the ring items — heavy intra-wave divergence across
    // all three phases.
    let app = perfcl::by_name("gaussian").unwrap();
    let def = parse(app.source).unwrap().kernels.remove(0);
    let pass = PassConfig {
        scheme: IrScheme::Stencil,
        reconstruction: IrRecon::NearestNeighbor,
        tile_w: 8,
        tile_h: 8,
    };
    let perforated = perforate_kernel(&def, &pass).unwrap();
    assert_matrix_identical("gaussian Stencil1:NN", &perforated, &app, (40, 24), (8, 8));
}

#[test]
fn shadow_leaked_lane_registers_are_identical() {
    // Every third lane dynamically retypes `v` (float → int) through a
    // shadow leak: the VM's per-lane tag bytes must track each
    // lane independently, in full and tail wavefronts alike. 22×14 pads
    // up to 24×15, so the border guard retires some lanes early too.
    let app = PerfclApp {
        name: "shadow",
        source: "",
        halo: 0,
        needs_aux: false,
        extra_args: &[],
    };
    let src = "kernel shadow(global const float* in, global float* out, int width, int height) {
        int x = get_global_id(0);
        int y = get_global_id(1);
        if (x >= width || y >= height) { return; }
        float v = in[y * width + x];
        if (x % 3 == 0) { int v = x + 1; }
        v = v + 1;
        out[y * width + x] = float(v) * 0.5;
    }";
    let def = parse(src).unwrap().kernels.remove(0);
    assert_matrix_identical("shadow-leak", &def, &app, (22, 14), (6, 3));
}

#[test]
fn mid_phase_per_lane_faults_are_identical() {
    // Faults raised *after* a barrier (phase 1) on a lane-dependent
    // predicate: every lane with x ≡ 1 (mod 4) reads its local tile out
    // of bounds mid-phase while sibling lanes keep running. Fault logs,
    // totals and partial outputs must match the tree-walk reference.
    let app = PerfclApp {
        name: "midfault",
        source: "",
        halo: 0,
        needs_aux: false,
        extra_args: &[],
    };
    let src = "kernel midfault(global const float* in, global float* out, int width, int height) {
        local float tile[18];
        int x = get_global_id(0);
        int y = get_global_id(1);
        int li = get_local_id(1) * 6 + get_local_id(0);
        tile[li] = float(li) * 0.25;
        barrier();
        if (x >= width || y >= height) { return; }
        int idx = li;
        if (x % 4 == 1) { idx = li + 100; }
        out[y * width + x] = in[y * width + x] + tile[idx];
    }";
    let def = parse(src).unwrap().kernels.remove(0);
    assert_matrix_identical("mid-phase faults", &def, &app, (24, 15), (6, 3));
}

#[test]
fn fault_logs_are_identical_across_modes_and_launches() {
    // Every third item stores out of bounds: the launch fails with a
    // capped fault log whose contents (and total) must not depend on the
    // execution mode or worker count.
    let app = PerfclApp {
        name: "oob",
        source: "",
        halo: 0,
        needs_aux: false,
        extra_args: &[],
    };
    let src = "kernel oob(global const float* in, global float* out, int width, int height) {
        int x = get_global_id(0);
        int y = get_global_id(1);
        if (x >= width || y >= height) { return; }
        out[(y * width + x) * 3] = in[y * width + x];
    }";
    let def = parse(src).unwrap().kernels.remove(0);
    assert_matrix_identical("oob faults", &def, &app, (24, 16), (8, 8));

    // Sanity: the reference really does fault.
    let data = synth::photo_like(24, 16, 1).as_slice().to_vec();
    let outcome = run_case(
        &def,
        &app,
        &data,
        &data,
        (24, 16),
        (8, 8),
        64,
        (ExecMode::Compiled, OptLevel::Full),
        Launch::Serial,
    );
    match outcome.error {
        Some(SimError::KernelFaults { total, faults, .. }) => {
            assert!(total > 0);
            assert!(!faults.is_empty());
        }
        other => panic!("expected kernel faults, got {other:?}"),
    }
}

#[test]
fn runtime_errors_are_identical_across_modes_and_launches() {
    // Items whose x ≡ 3 (mod 7) divide by zero; the recorded error must be
    // the row-major-earliest one in every configuration.
    let app = PerfclApp {
        name: "divz",
        source: "",
        halo: 0,
        needs_aux: false,
        extra_args: &[],
    };
    let src = "kernel divz(global const float* in, global float* out, int width, int height) {
        int x = get_global_id(0);
        int y = get_global_id(1);
        if (x >= width || y >= height) { return; }
        int d = x % 7 - 3;
        out[y * width + x] = float(100 / d) + in[y * width + x];
    }";
    let def = parse(src).unwrap().kernels.remove(0);
    assert_matrix_identical("div-by-zero", &def, &app, (24, 16), (8, 8));

    let data = synth::photo_like(24, 16, 2).as_slice().to_vec();
    let outcome = run_case(
        &def,
        &app,
        &data,
        &data,
        (24, 16),
        (8, 8),
        64,
        (ExecMode::Interpreted, OptLevel::Full),
        Launch::Parallel(2),
    );
    let err = outcome.runtime_error.expect("division must be reported");
    assert!(err.to_string().contains("division by zero"), "{err}");
}
