//! `perfcl`: the PerfCL toolchain and bytecode VM.
//!
//! Each pass takes the five `kp_apps::perfcl` sources through
//! `parser::parse`, then `transform::perforate_kernel` for every valid
//! scheme × reconstruction (plus the accurate kernel): 39 kernels. Each
//! goes through `IrKernel::new` and is launched at 256² under the
//! library's default execution mode and optimisation level; its error is
//! taken against the accurate IR output. A request is one kernel:
//! perforate, compile, launch, read back, error.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kp_apps::perfcl::{self, PerfclApp};
use kp_core::ErrorMetric;
use kp_gpu_sim::{BufferId, Device, DeviceConfig, LaunchReport, NdRange, OptLevel};
use kp_ir::ast::KernelDef;
use kp_ir::transform::{perforate_kernel, IrRecon, IrScheme, PassConfig};
use kp_ir::{parser, ArgValue, IrKernel};

use crate::replay::{self, Launch};
use crate::stats::{self, XorShift};
use crate::trace::Tracer;
use crate::{Checked, Measured, Values};

/// Input side; tests run the same workload on small inputs.
const SIZE: usize = if cfg!(test) { 32 } else { 256 };
const GROUP: (usize, usize) = (16, 16);
const SCHEMES: [IrScheme; 4] = [
    IrScheme::RowsHalf,
    IrScheme::RowsQuarter,
    IrScheme::ColsHalf,
    IrScheme::Stencil,
];
const RECONS: [IrRecon; 2] = [IrRecon::NearestNeighbor, IrRecon::LinearInterpolation];
/// Kernels of pass 0 whose outputs are checked against `OptLevel::None`.
const CHECKS: usize = 8;

/// The perforation passes of one app: `None` is the accurate kernel.
fn variants(halo: usize) -> Vec<Option<PassConfig>> {
    let mut out = vec![None];
    for scheme in SCHEMES {
        for reconstruction in RECONS {
            let stencil = scheme == IrScheme::Stencil;
            if stencil && (halo == 0 || reconstruction == IrRecon::LinearInterpolation) {
                continue;
            }
            out.push(Some(PassConfig {
                scheme,
                reconstruction,
                tile_w: GROUP.0,
                tile_h: GROUP.1,
            }));
        }
    }
    out
}

/// Device buffers one app's kernels bind to.
#[derive(Debug, Clone, Copy)]
struct Buffers {
    image: BufferId,
    temperature: BufferId,
    power: BufferId,
    out: BufferId,
}

impl Buffers {
    fn new(dev: &mut Device, inputs: &Inputs) -> Result<Self, String> {
        let err = |e: kp_gpu_sim::SimError| format!("perfcl buffers: {e}");
        Ok(Self {
            image: dev
                .create_buffer_from("image", inputs.image.as_slice())
                .map_err(err)?,
            temperature: dev
                .create_buffer_from("temperature", inputs.temperature.as_slice())
                .map_err(err)?,
            power: dev
                .create_buffer_from("power", inputs.power.as_slice())
                .map_err(err)?,
            out: dev.create_buffer::<f32>("out", SIZE * SIZE).map_err(err)?,
        })
    }

    fn args(&self, app: &PerfclApp) -> Vec<(&'static str, ArgValue)> {
        let input = if app.needs_aux {
            self.temperature
        } else {
            self.image
        };
        let mut args = vec![
            ("in", ArgValue::Buffer(input)),
            ("out", ArgValue::Buffer(self.out)),
            ("width", ArgValue::Int(SIZE as i64)),
            ("height", ArgValue::Int(SIZE as i64)),
        ];
        if app.needs_aux {
            args.push(("aux", ArgValue::Buffer(self.power)));
        }
        args.extend(app.extra_args.iter().map(|&(n, v)| (n, ArgValue::Float(v))));
        args
    }
}

struct Inputs {
    image: Vec<f32>,
    temperature: Vec<f32>,
    power: Vec<f32>,
}

impl Inputs {
    fn new(content: u64) -> Self {
        let hot = kp_data::hotspot::hotspot_input(SIZE, content.wrapping_add(1));
        Self {
            image: kp_data::synth::photo_like(SIZE, SIZE, content).into_vec(),
            temperature: hot.temperature.into_vec(),
            power: hot.power.into_vec(),
        }
    }
}

/// What pass 0 left for the model figures and the output check.
struct Recorded {
    app: usize,
    variant: usize,
    report: LaunchReport,
    error: f64,
    /// Accurate seconds of the same app over this kernel's seconds.
    speedup: f64,
    bits: Option<Vec<u32>>,
}

pub struct Perfcl {
    cfg: DeviceConfig,
    apps: [PerfclApp; 5],
    metrics: Vec<ErrorMetric>,
    /// Pass 0 runs the fixed reference inputs (the model figures and the
    /// output check come from it); later passes run the seed's inputs.
    reference: Inputs,
    dev: Device,
    reference_bufs: Buffers,
    seeded_bufs: Buffers,
    range: NdRange,
    passes: usize,
    checks: Vec<usize>,
    first: Vec<Recorded>,
}

fn parse(app: &PerfclApp, tracer: &mut Tracer, id: u64) -> Result<KernelDef, String> {
    let prog = tracer
        .span("ir.parse", id, || parser::parse(app.source))
        .map_err(|e| format!("{} parse: {e}", app.name))?;
    prog.kernels
        .into_iter()
        .next()
        .ok_or_else(|| format!("{}: no kernel", app.name))
}

fn variant(
    app: &PerfclApp,
    def: &KernelDef,
    pass: Option<&PassConfig>,
    tracer: &mut Tracer,
    id: u64,
) -> Result<KernelDef, String> {
    match pass {
        None => Ok(def.clone()),
        Some(p) => tracer
            .span("ir.perforate", id, || perforate_kernel(def, p))
            .map_err(|e| format!("{} perforate: {e}", app.name)),
    }
}

impl Perfcl {
    fn kernel_count(&self) -> usize {
        self.apps.iter().map(|a| variants(a.halo).len()).sum()
    }
}

impl crate::Workload for Perfcl {
    fn setup(seed: u64, workers: usize) -> Result<Self, String> {
        let mut cfg = DeviceConfig::firepro_w5100();
        cfg.parallelism = workers;
        cfg.devices = 1;
        let apps = perfcl::evaluation_kernels();
        let metrics = apps
            .iter()
            .map(|a| {
                kp_apps::suite::by_name(a.name).map_or(ErrorMetric::MeanRelative, |e| e.metric)
            })
            .collect();
        let reference = Inputs::new(crate::REFERENCE);
        let mut dev = Device::new(cfg.clone()).map_err(|e| format!("perfcl device: {e}"))?;
        let reference_bufs = Buffers::new(&mut dev, &reference)?;
        let seeded_bufs = Buffers::new(&mut dev, &Inputs::new(seed.wrapping_mul(31)))?;
        let range =
            NdRange::new_2d((SIZE, SIZE), GROUP).map_err(|e| format!("perfcl range: {e}"))?;
        let mut p = Perfcl {
            cfg,
            apps,
            metrics,
            reference,
            dev,
            reference_bufs,
            seeded_bufs,
            range,
            passes: 0,
            checks: Vec::new(),
            first: Vec::new(),
        };
        let total = p.kernel_count() as u64;
        let mut rng = XorShift::new(seed ^ 0xC1);
        while p.checks.len() < CHECKS {
            let k = rng.below(total) as usize;
            if !p.checks.contains(&k) {
                p.checks.push(k);
            }
        }
        Ok(p)
    }

    fn measure(
        &mut self,
        budget: Duration,
        tracer: &mut Tracer,
        _tail: bool,
    ) -> Result<Measured, String> {
        let traced = tracer.enabled();
        let queue = self.dev.create_queue();
        let started = Instant::now();
        let mut m = Measured::default();
        let mut latency_ms = vec![Vec::new(); self.kernel_count()];
        let mut pass_secs = Vec::new();
        let mut exec_s = Vec::new();
        let mut wait_ms = Vec::new();
        let mut insts = Vec::new();
        let mut groups = 0usize;
        let mut first_pass = true;
        while first_pass || started.elapsed() < budget {
            first_pass = false;
            let record = self.passes == 0;
            let bufs = if record {
                self.reference_bufs
            } else {
                self.seeded_bufs
            };
            let clock = Instant::now();
            let root = tracer.begin("bench.pass", 0);
            let mut k = 0;
            for (a, app) in self.apps.iter().enumerate() {
                let mut accurate: Option<(Vec<f32>, f64)> = None;
                let parsed = parse(app, tracer, (self.passes * 64 + k + 1) as u64);
                for (v, pass) in variants(app.halo).iter().enumerate() {
                    let id = (self.passes * 64 + k + 1) as u64;
                    let t0 = Instant::now();
                    m.attempted += 1;
                    let req = tracer.begin("bench.kernel", id);
                    let run = (|| -> Result<_, String> {
                        let def = variant(app, parsed.as_ref()?, pass.as_ref(), tracer, id)?;
                        let kernel = tracer
                            .span("ir.compile", id, || IrKernel::new(def, &bufs.args(app)))
                            .map(Arc::new)
                            .map_err(|e| format!("{} compile: {e}", app.name))?;
                        let (launch, read) = tracer
                            .span("queue.enqueue", id, || {
                                let launch =
                                    queue.enqueue_launch(Arc::clone(&kernel), self.range, &[])?;
                                let read = queue.enqueue_read::<f32>(bufs.out, &[])?;
                                Ok::<_, kp_gpu_sim::SimError>((launch, read))
                            })
                            .map_err(|e| format!("{} enqueue: {e}", app.name))?;
                        let (report, out) = tracer
                            .span("engine.wait", id, || {
                                Ok::<_, kp_gpu_sim::SimError>((
                                    launch.wait_report()?,
                                    read.wait_read::<f32>()?,
                                ))
                            })
                            .map_err(|e| format!("{} launch: {e}", app.name))?;
                        if let Some(e) = kernel.take_runtime_error() {
                            return Err(format!("{} runtime: {e}", app.name));
                        }
                        let timing = launch
                            .timing()
                            .map_err(|e| format!("{} timing: {e}", app.name))?;
                        Ok((report, out, timing, kernel.opt_stats().insts_after))
                    })();
                    let (report, out, timing, after) = match run {
                        Ok(r) => r,
                        Err(e) => {
                            tracer.end(req);
                            eprintln!("  perfcl: {e}");
                            m.failed += 1;
                            k += 1;
                            continue;
                        }
                    };
                    let error = match &accurate {
                        None => {
                            accurate = Some((out.clone(), report.seconds));
                            0.0
                        }
                        Some((reference, _)) => tracer.span("core.error", id, || {
                            self.metrics[a].evaluate(reference, &out)
                        }),
                    };
                    tracer.end(req);
                    latency_ms[k].push(t0.elapsed().as_secs_f64() * 1e3);
                    exec_s.push(timing.execution().as_secs_f64());
                    wait_ms.push(timing.queue_delay().as_secs_f64() * 1e3);
                    insts.push(after as f64);
                    groups += report.groups;
                    if record {
                        let acc_seconds = accurate.as_ref().map_or(report.seconds, |(_, s)| *s);
                        self.first.push(Recorded {
                            app: a,
                            variant: v,
                            speedup: acc_seconds / report.seconds,
                            error,
                            bits: self
                                .checks
                                .contains(&k)
                                .then(|| out.iter().map(|x| x.to_bits()).collect()),
                            report,
                        });
                    }
                    k += 1;
                }
            }
            tracer.end(root);
            pass_secs.push(clock.elapsed().as_secs_f64());
            self.passes += 1;
        }
        // Every pass does the same work: rates come from the median pass.
        let pass_s = stats::median(&pass_secs);
        let kernels = m.attempted as usize;
        let per_pass = self.kernel_count();
        eprintln!("  perfcl: {kernels} kernels, median pass {pass_s:.3} s");
        m.rate = (per_pass * self.range.num_groups_total()) as f64 / pass_s;
        m.e2e.insert("throughput_rps", per_pass as f64 / pass_s);
        let per_kernel = stats::per_request_medians(&latency_ms);
        m.e2e.insert("latency_p50_ms", stats::median(&per_kernel));
        m.e2e
            .insert("latency_p99_ms", stats::percentile(&per_kernel, 0.99));
        m.e2e.insert("groups_per_s", m.rate);
        if traced {
            let l = &mut m.layers;
            replay::engine_values(&exec_s, groups, l);
            l.insert("ir.exec_ms", stats::mean(&exec_s) * 1e3);
            l.insert(
                "ir.ns_per_group",
                exec_s.iter().sum::<f64>() * 1e9 / groups.max(1) as f64,
            );
            for (metric, span) in [
                ("ir.parse_us", "ir.parse"),
                ("ir.perforate_us", "ir.perforate"),
                ("ir.compile_us", "ir.compile"),
                ("queue.enqueue_us", "queue.enqueue"),
                ("core.error_us", "core.error"),
            ] {
                l.insert(metric, stats::median(&tracer.durations(span)) * 1e6);
            }
            l.insert("ir.insts_after", stats::mean(&insts));
            l.insert("queue.wait_ms_p50", stats::percentile(&wait_ms, 0.5));
            l.insert("queue.wait_ms_p99", stats::percentile(&wait_ms, 0.99));
            l.insert("e2e.latency_samples", kernels as f64);
            l.insert("e2e.beyond_p99", stats::beyond(kernels, 0.99) as f64);
        }
        Ok(m)
    }

    fn model(&self) -> (f64, f64) {
        let perforated: Vec<&Recorded> = self.first.iter().filter(|r| r.variant > 0).collect();
        let speedups: Vec<f64> = perforated.iter().map(|r| r.speedup).collect();
        let errors: Vec<f64> = perforated.iter().map(|r| r.error).collect();
        (stats::geomean(&speedups), stats::mean(&errors))
    }

    fn replay(&mut self, values: &mut Values) -> Result<(u64, u64), String> {
        let refs: Vec<&LaunchReport> = self.first.iter().map(|r| &r.report).collect();
        replay::sim_values(&refs, values);
        // Pass 0's kernels on a fresh device, profiling on and off.
        let mut dev = Device::new(self.cfg.clone()).map_err(|e| format!("perfcl replay: {e}"))?;
        let bufs = Buffers::new(&mut dev, &self.reference)?;
        let mut off = Tracer::new(false);
        let mut launches: Vec<Launch> = Vec::new();
        for app in &self.apps {
            let parsed = parse(app, &mut off, 0)?;
            for pass in variants(app.halo) {
                let def = variant(app, &parsed, pass.as_ref(), &mut off, 0)?;
                let kernel = IrKernel::new(def, &bufs.args(app))
                    .map_err(|e| format!("perfcl replay: {e}"))?;
                launches.push((Arc::new(kernel), self.range));
            }
        }
        let on_off = replay::profiling_on_off(&mut dev, &launches)?;
        values.insert("engine.accounting_frac", on_off.accounting_frac());
        Ok((2 * launches.len() as u64, 0))
    }

    fn check(&mut self) -> Result<Checked, String> {
        // The same kernel definitions at `OptLevel::None` (the as-lowered
        // bytecode) must give bit-identical outputs and reports.
        let mut cfg = self.cfg.clone();
        cfg.opt_level = OptLevel::None;
        let err = |e: kp_gpu_sim::SimError| format!("perfcl check: {e}");
        let mut dev = Device::new(cfg).map_err(err)?;
        let bufs = Buffers::new(&mut dev, &self.reference)?;
        let mut off = Tracer::new(false);
        let mut c = Checked::default();
        for r in self.first.iter().filter(|r| r.bits.is_some()) {
            let app = &self.apps[r.app];
            let pass = variants(app.halo)[r.variant];
            let def = variant(app, &parse(app, &mut off, 0)?, pass.as_ref(), &mut off, 0)?;
            let kernel =
                IrKernel::new(def, &bufs.args(app)).map_err(|e| format!("perfcl check: {e}"))?;
            let report = dev.launch(&kernel, self.range).map_err(err)?;
            let out = dev.read_buffer::<f32>(bufs.out).map_err(err)?;
            c.checked += 1;
            let same_bits = out
                .iter()
                .map(|x| x.to_bits())
                .eq(r.bits.iter().flatten().copied());
            if !same_bits || report != r.report {
                eprintln!("  perfcl: {} variant {} differs at O0", app.name, r.variant);
                c.mismatched += 1;
            }
        }
        Ok(c)
    }
}
