//! Shared plumbing for the experiment harness: input preparation, parallel
//! evaluation, and CSV output.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use kp_apps::AppEntry;
use kp_core::{run_app, CoreError, ImageInput, RunResult, RunSpec};
use kp_data::hotspot::HotspotInput;
use kp_data::Image;
use kp_gpu_sim::{Device, DeviceConfig};

/// Harness-wide settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Image side length for error measurements.
    pub error_size: usize,
    /// Image side length for timing measurements (the paper uses 1024).
    pub timing_size: usize,
    /// Number of dataset images for the Fig. 6 distribution study.
    pub dataset_count: usize,
    /// Output directory for CSV/PGM artifacts.
    pub out_dir: PathBuf,
    /// Seed for all synthetic inputs.
    pub seed: u64,
}

impl Ctx {
    /// Quick preset: 512² error images, 40-image dataset. Finishes the full
    /// `repro all` in a few minutes on a laptop-class host.
    pub fn quick(out_dir: impl Into<PathBuf>) -> Self {
        Self {
            error_size: 512,
            timing_size: 1024,
            dataset_count: 40,
            out_dir: out_dir.into(),
            seed: 0x5EED,
        }
    }

    /// Paper-scale preset: 1024² images, 100-image dataset (slower).
    pub fn paper(out_dir: impl Into<PathBuf>) -> Self {
        Self {
            error_size: 1024,
            timing_size: 1024,
            dataset_count: 100,
            out_dir: out_dir.into(),
            seed: 0x5EED,
        }
    }

    /// Tiny preset for tests.
    pub fn tiny() -> Self {
        Self {
            error_size: 64,
            timing_size: 64,
            dataset_count: 6,
            out_dir: std::env::temp_dir().join("kp-repro-tiny"),
            seed: 0x5EED,
        }
    }

    /// Creates the output directory and returns a file path inside it.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub fn out_path(&self, name: &str) -> PathBuf {
        std::fs::create_dir_all(&self.out_dir).expect("create output directory");
        self.out_dir.join(name)
    }
}

/// A fully materialized input for one app (owning the pixel data).
#[derive(Debug, Clone)]
pub struct OwnedInput {
    /// Primary input samples.
    pub data: Vec<f32>,
    /// Auxiliary input samples (Hotspot power).
    pub aux: Option<Vec<f32>>,
    /// Side length.
    pub size: usize,
    /// Provenance label (dataset image name or "hotspot_N").
    pub name: String,
}

impl OwnedInput {
    /// Borrowed view for the runner.
    ///
    /// # Panics
    ///
    /// Panics if the stored dimensions are inconsistent (cannot happen for
    /// inputs built by this module).
    pub fn as_input(&self) -> ImageInput<'_> {
        ImageInput::with_aux(&self.data, self.aux.as_deref(), self.size, self.size)
            .expect("owned input is consistent")
    }

    /// Wraps a dataset image.
    pub fn from_image(name: &str, image: &Image) -> Self {
        Self {
            data: image.as_slice().to_vec(),
            aux: None,
            size: image.width(),
            name: name.to_owned(),
        }
    }

    /// Wraps a Hotspot temperature/power pair.
    pub fn from_hotspot(hs: &HotspotInput) -> Self {
        Self {
            data: hs.temperature.as_slice().to_vec(),
            aux: Some(hs.power.as_slice().to_vec()),
            size: hs.size,
            name: format!("hotspot_{}", hs.size),
        }
    }
}

/// Builds the input set an app is evaluated on: the synthetic image dataset
/// for the five image apps, the eight Rodinia-style inputs for Hotspot.
pub fn inputs_for(entry: &AppEntry, ctx: &Ctx) -> Vec<OwnedInput> {
    if entry.needs_aux {
        kp_data::hotspot::fig6_inputs(ctx.seed)
            .iter()
            .filter(|hs| hs.size <= ctx.timing_size)
            .map(OwnedInput::from_hotspot)
            .collect()
    } else {
        kp_data::dataset::standard_dataset(ctx.dataset_count, ctx.error_size, ctx.seed)
            .iter()
            .map(|d| OwnedInput::from_image(&d.name, &d.image))
            .collect()
    }
}

/// One timing-sized input for an app (error studies use [`inputs_for`]).
pub fn timing_input_for(entry: &AppEntry, ctx: &Ctx) -> OwnedInput {
    if entry.needs_aux {
        OwnedInput::from_hotspot(&kp_data::hotspot::hotspot_input(ctx.timing_size, ctx.seed))
    } else {
        OwnedInput::from_image(
            "photo_timing",
            &kp_data::synth::photo_like(ctx.timing_size, ctx.timing_size, ctx.seed),
        )
    }
}

/// Runs one spec on a fresh device.
///
/// # Errors
///
/// Propagates runner errors.
pub fn run_once(
    entry: &AppEntry,
    input: &OwnedInput,
    spec: &RunSpec,
    profiling: bool,
) -> Result<RunResult, CoreError> {
    // Most experiments call run_once from parallel_map (one worker per
    // core), where in-launch parallelism must stay at 1 or every worker
    // would spawn its own engine pool and oversubscribe the host.
    // Sequential call sites that want engine parallelism use run_once_at.
    run_once_at(entry, input, spec, profiling, 1)
}

/// As [`run_once`] with an explicit launch-engine thread count
/// (`0` = all cores) — for sequential call sites that should let the
/// engine use the whole host.
///
/// # Errors
///
/// Propagates runner errors.
pub fn run_once_at(
    entry: &AppEntry,
    input: &OwnedInput,
    spec: &RunSpec,
    profiling: bool,
    parallelism: usize,
) -> Result<RunResult, CoreError> {
    let mut cfg = DeviceConfig::firepro_w5100();
    cfg.parallelism = parallelism;
    let mut dev = Device::new(cfg)?;
    dev.set_profiling(profiling);
    run_app(&mut dev, entry.workload, &input.as_input(), spec)
}

/// The perforated PerfCL Gaussian kernel (`Rows1:NN`) specialized for
/// `group` — the workload of simbench's interpreted-vs-compiled
/// throughput measurement. Produced by the automatic perforation pass
/// from the canonical PerfCL source, exactly as a sweep would.
pub fn ir_gaussian_rows1(group: (usize, usize)) -> kp_ir::ast::KernelDef {
    use kp_ir::transform::{perforate_kernel, IrRecon, IrScheme, PassConfig};
    let prog = kp_ir::parser::parse(kp_apps::perfcl::GAUSSIAN_SRC).expect("gaussian parses");
    perforate_kernel(
        &prog.kernels[0],
        &PassConfig {
            scheme: IrScheme::RowsHalf,
            reconstruction: IrRecon::NearestNeighbor,
            tile_w: group.0,
            tile_h: group.1,
        },
    )
    .expect("gaussian perforates")
}

/// Runs the IR Gaussian workload once at the given execution mode and
/// optimization level on a single engine worker, returning (wall seconds,
/// groups simulated). Kernel construction — and therefore bytecode
/// compilation and optimization — happens outside the timed region: the
/// benchmark measures executor throughput.
///
/// # Panics
///
/// Panics if `size` is not a multiple of the group extents or the launch
/// fails (benchmark workloads are fixed and must succeed).
pub fn run_ir_gaussian(
    def: &kp_ir::ast::KernelDef,
    data: &[f32],
    size: usize,
    group: (usize, usize),
    mode: kp_gpu_sim::ExecMode,
    opt: kp_gpu_sim::OptLevel,
) -> (f64, usize) {
    use kp_ir::{ArgValue, IrKernel};
    assert_eq!(
        size % group.0,
        0,
        "size must be a multiple of the tile width"
    );
    assert_eq!(
        size % group.1,
        0,
        "size must be a multiple of the tile height"
    );
    let mut cfg = DeviceConfig::firepro_w5100();
    cfg.parallelism = 1;
    cfg.exec_mode = mode;
    cfg.opt_level = opt;
    let mut dev = Device::new(cfg).expect("device config valid");
    let in_buf = dev.create_buffer_from("in", data).expect("input fits");
    let out_buf = dev
        .create_buffer::<f32>("out", size * size)
        .expect("output fits");
    let kernel = IrKernel::new(
        def.clone(),
        &[
            ("in", ArgValue::Buffer(in_buf)),
            ("out", ArgValue::Buffer(out_buf)),
            ("width", ArgValue::Int(size as i64)),
            ("height", ArgValue::Int(size as i64)),
        ],
    )
    .expect("kernel binds");
    let range = kp_gpu_sim::NdRange::new_2d((size, size), group).expect("range valid");
    let started = std::time::Instant::now();
    let report = dev.launch(&kernel, range).expect("launch succeeds");
    assert!(kernel.take_runtime_error().is_none());
    (started.elapsed().as_secs_f64(), report.groups)
}

/// Applies `f` to every item of `items` in parallel (per-thread devices),
/// preserving order. Panics in workers propagate.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    kp_core::parallel_ordered_map(items, 0, |_, item| f(item))
}

/// Writes rows as CSV (first row should be the header).
///
/// # Panics
///
/// Panics on I/O errors — harness artifacts are best-effort but a broken
/// results directory should be loud.
pub fn write_csv(path: &Path, rows: &[Vec<String>]) {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path).expect("create csv"));
    for row in rows {
        writeln!(file, "{}", row.join(",")).expect("write csv row");
    }
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kp_apps::suite;

    #[test]
    fn ctx_presets() {
        let q = Ctx::quick("/tmp/x");
        assert_eq!(q.error_size, 512);
        let p = Ctx::paper("/tmp/x");
        assert_eq!(p.dataset_count, 100);
        let t = Ctx::tiny();
        assert!(t.error_size <= 64);
    }

    #[test]
    fn inputs_for_image_apps_use_dataset() {
        let ctx = Ctx::tiny();
        let entry = suite::by_name("gaussian").unwrap();
        let inputs = inputs_for(&entry, &ctx);
        assert_eq!(inputs.len(), ctx.dataset_count);
        assert!(inputs[0].aux.is_none());
    }

    #[test]
    fn inputs_for_hotspot_use_grids() {
        let ctx = Ctx::tiny();
        let entry = suite::by_name("hotspot").unwrap();
        let inputs = inputs_for(&entry, &ctx);
        assert!(!inputs.is_empty());
        assert!(inputs.iter().all(|i| i.aux.is_some()));
        // Tiny ctx caps sizes at 64.
        assert!(inputs.iter().all(|i| i.size <= 64));
    }

    #[test]
    fn ir_gaussian_workload_runs_in_all_modes() {
        let def = ir_gaussian_rows1((8, 8));
        let image = kp_data::synth::photo_like(32, 32, 7);
        // The lane-batched VM at both optimization levels, and the
        // tree-walking reference.
        for (mode, opt) in [
            (kp_gpu_sim::ExecMode::Compiled, kp_gpu_sim::OptLevel::Full),
            (kp_gpu_sim::ExecMode::Compiled, kp_gpu_sim::OptLevel::None),
            (
                kp_gpu_sim::ExecMode::Interpreted,
                kp_gpu_sim::OptLevel::Full,
            ),
        ] {
            let (seconds, groups) = run_ir_gaussian(&def, image.as_slice(), 32, (8, 8), mode, opt);
            assert_eq!(groups, 16, "{mode}/{opt}");
            assert!(seconds > 0.0, "{mode}/{opt}");
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.0123), "1.23%");
    }
}
