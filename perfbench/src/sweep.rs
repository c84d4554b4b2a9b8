//! `sweep`: cold tuning sweeps of 256² inputs on a fresh store.
//!
//! Each pass opens an empty `TuneDb`, runs `kp_tune::sweep_cached` of the
//! `fig8_specs` family for gaussian, median, sobel3 and hotspot (which
//! brings the auxiliary power grid), and ends with `TuneDb::save`. Every
//! pass perturbs the seed's inputs with new seeded content of the same
//! shape, so every lookup misses and inserts. Inputs are made before the
//! pass's clock starts.
//!
//! The traced half replays passes through the calls `kp_core::sweep`
//! makes itself (`run_app` for the reference and the baseline,
//! `run_specs_batched` for the candidates, `ErrorMetric::evaluate`) and
//! requires the outcomes to be bit-identical to the untraced ones.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kp_apps::suite::{self, AppEntry};
use kp_core::{
    fig8_specs, run_app, run_specs_batched, CoreError, ImageBinding, ImageInput, RunSpec,
    SweepContext, SweepOutcome,
};
use kp_gpu_sim::{Device, DeviceConfig, LaunchReport, NdRange};
use kp_tune::{outcomes_bit_equal, sweep_cached, TuneDb, TuneKey, WarmStart};

use crate::replay::{self, Launch};
use crate::stats::{self, XorShift};
use crate::trace::Tracer;
use crate::{Checked, Measured, Values};

/// Input side; tests run the same workload on small inputs.
const SIZE: usize = if cfg!(test) { 64 } else { 256 };
const GROUP: (usize, usize) = (16, 16);
const APPS: [&str; 4] = ["gaussian", "median", "sobel3", "hotspot"];
const FAMILY: &str = "fig8";
/// Numbers each instance's store file, so instances never share one.
static STORES: AtomicUsize = AtomicUsize::new(0);

struct AppInput {
    entry: AppEntry,
    specs: Vec<RunSpec>,
    data: Vec<f32>,
    aux: Option<Vec<f32>>,
    /// Perturbation amplitude of new pass content, in input units.
    amplitude: f32,
}

pub struct Sweep {
    seed: u64,
    cfg: DeviceConfig,
    apps: Vec<AppInput>,
    db_path: PathBuf,
    /// Untraced outcomes by pass, then app.
    passes: Vec<Vec<Vec<SweepOutcome>>>,
    /// Profiled reports (baseline and candidates) of pass 0's replay.
    reports: Vec<LaunchReport>,
}

fn groups_per_launch() -> usize {
    SIZE.div_ceil(GROUP.0) * SIZE.div_ceil(GROUP.1)
}

impl Sweep {
    /// Pass `pass`'s input for app `a`: the reference input for pass 0,
    /// then seeded perturbations of it.
    fn input(&self, a: usize, pass: usize) -> (Vec<f32>, Option<Vec<f32>>) {
        let app = &self.apps[a];
        if pass == 0 {
            return (app.data.clone(), app.aux.clone());
        }
        let mut rng = XorShift::new(self.seed ^ ((pass as u64) << 20) ^ a as u64);
        let image = app.aux.is_none();
        let data = app
            .data
            .iter()
            .map(|&v| {
                let v = v + app.amplitude * (rng.unit() as f32 - 0.5);
                if image {
                    v.clamp(0.0, 1.0)
                } else {
                    v
                }
            })
            .collect();
        (data, app.aux.clone())
    }

    fn context<'a>(
        &self,
        a: usize,
        data: &'a [f32],
        aux: Option<&'a [f32]>,
    ) -> Result<SweepContext<'a>, String> {
        let entry = self.apps[a].entry;
        Ok(SweepContext {
            app: entry.workload,
            input: ImageInput::with_aux(data, aux, SIZE, SIZE)
                .map_err(|e| format!("sweep input: {e}"))?,
            metric: entry.metric,
            device: self.cfg.clone(),
            baseline: RunSpec::Baseline { group: GROUP },
        })
    }

    fn fresh_db(&self) -> TuneDb {
        let _ = std::fs::remove_file(&self.db_path);
        TuneDb::open(&self.db_path)
    }

    /// The split `kp_core::sweep` performs, call by call, inside spans.
    fn split(
        &self,
        ctx: &SweepContext<'_>,
        specs: &[RunSpec],
        id: u64,
        tracer: &mut Tracer,
    ) -> Result<(Vec<SweepOutcome>, Vec<LaunchReport>), CoreError> {
        let cfg = &self.cfg;
        let reference = tracer.span("core.reference", id, || {
            let mut dev = Device::new(cfg.clone())?;
            dev.set_profiling(false);
            run_app(
                &mut dev,
                ctx.app,
                &ctx.input,
                &RunSpec::AccurateGlobal { group: GROUP },
            )
        })?;
        let baseline = tracer.span("core.baseline", id, || {
            let mut dev = Device::new(cfg.clone())?;
            run_app(&mut dev, ctx.app, &ctx.input, &ctx.baseline)
        })?;
        let runs = tracer.span("core.candidates", id, || {
            let mut dev = Device::new(cfg.clone())?;
            run_specs_batched(&mut dev, ctx.app, &ctx.input, specs)
        })?;
        let mut outcomes = Vec::with_capacity(specs.len());
        for (spec, run) in specs.iter().zip(&runs) {
            let error = tracer.span("core.error", id, || {
                ctx.metric.evaluate(&reference.output, &run.output)
            });
            outcomes.push(SweepOutcome {
                label: spec.label(),
                group: spec.group(),
                seconds: run.report.seconds,
                speedup: baseline.report.seconds / run.report.seconds,
                error,
                read_transactions: run.report.stats.global_read_transactions,
            });
        }
        let mut reports = vec![baseline.report];
        reports.extend(runs.into_iter().map(|r| r.report));
        Ok((outcomes, reports))
    }
}

impl crate::Workload for Sweep {
    fn setup(seed: u64, workers: usize) -> Result<Self, String> {
        let mut cfg = DeviceConfig::firepro_w5100();
        cfg.parallelism = workers;
        cfg.devices = 1;
        let mut apps = Vec::new();
        for (i, name) in APPS.iter().enumerate() {
            let entry = suite::by_name(name).ok_or_else(|| format!("app {name} not registered"))?;
            // Pass 0 runs these fixed inputs (the model figures come from
            // it); later passes perturb them with seeded content.
            let content = crate::REFERENCE + i as u64;
            let (data, aux, amplitude) = if entry.needs_aux {
                let h = kp_data::hotspot::hotspot_input(SIZE, content);
                (h.temperature.into_vec(), Some(h.power.into_vec()), 0.5)
            } else {
                (
                    kp_data::synth::photo_like(SIZE, SIZE, content).into_vec(),
                    None,
                    0.02,
                )
            };
            apps.push(AppInput {
                entry,
                specs: fig8_specs(GROUP, entry.app.halo()),
                data,
                aux,
                amplitude,
            });
        }
        let dir = crate::out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("sweep store dir: {e}"))?;
        Ok(Sweep {
            seed,
            cfg,
            apps,
            db_path: dir.join(format!(
                "sweep-{}-{}.tunedb",
                std::process::id(),
                STORES.fetch_add(1, Ordering::Relaxed)
            )),
            passes: Vec::new(),
            reports: Vec::new(),
        })
    }

    fn measure(
        &mut self,
        budget: Duration,
        tracer: &mut Tracer,
        _tail: bool,
    ) -> Result<Measured, String> {
        let traced = tracer.enabled();
        let started = Instant::now();
        let mut store_ms = Vec::new();
        let mut latency_ms = vec![Vec::new(); self.apps.len()];
        let mut m = Measured::default();
        let mut pass = 0;
        while pass == 0 || started.elapsed() < budget {
            let inputs: Vec<_> = (0..self.apps.len()).map(|a| self.input(a, pass)).collect();
            let root = tracer.begin("bench.pass", 0);
            let opened = Instant::now();
            let mut db = tracer.span("tune.open", 0, || self.fresh_db());
            let mut store_s = opened.elapsed().as_secs_f64();
            let mut outcomes = Vec::with_capacity(self.apps.len());
            for (a, (data, aux)) in inputs.iter().enumerate() {
                let id = (pass * self.apps.len() + a + 1) as u64;
                let ctx = self.context(a, data, aux.as_deref())?;
                let specs = self.apps[a].specs.clone();
                let specs = specs.as_slice();
                let t0 = Instant::now();
                m.attempted += 1;
                let got = if traced {
                    let sweep = tracer.begin("bench.sweep", id);
                    let got = self.split(&ctx, specs, id, tracer);
                    if let Ok((o, _)) = &got {
                        tracer.span("tune.record", id, || {
                            db.record(&TuneKey::for_sweep(&ctx, FAMILY), o)
                        });
                    }
                    tracer.end(sweep);
                    got.map(|(o, reports)| {
                        if self.reports.is_empty() {
                            self.reports = reports;
                        }
                        o
                    })
                } else {
                    sweep_cached(&ctx, specs, &mut db, FAMILY, WarmStart::Trust)
                };
                latency_ms[a].push(t0.elapsed().as_secs_f64() * 1e3);
                match got {
                    Ok(o) => outcomes.push(o),
                    Err(e) => {
                        eprintln!("  sweep: {} failed: {e}", APPS[a]);
                        m.failed += 1;
                        outcomes.push(Vec::new());
                    }
                }
            }
            let saving = Instant::now();
            if let Err(e) = tracer.span("tune.save", 0, || db.save()) {
                eprintln!("  sweep: store save failed: {e}");
                m.failed += 1;
            }
            store_s += saving.elapsed().as_secs_f64();
            tracer.end(root);
            store_ms.push(store_s * 1e3);
            if traced {
                // The split must reproduce the untraced sweep bit for bit.
                if let Some(expected) = self.passes.get(pass) {
                    for (got, want) in outcomes.iter().zip(expected) {
                        let same = got.len() == want.len()
                            && got.iter().zip(want).all(|(g, w)| outcomes_bit_equal(g, w));
                        if !same {
                            eprintln!("  sweep: traced split differs from sweep_cached");
                            m.failed += 1;
                        }
                    }
                }
            } else {
                self.passes.push(outcomes);
            }
            pass += 1;
            if traced && pass >= self.passes.len() {
                break;
            }
        }
        let _ = std::fs::remove_file(&self.db_path);
        // Every pass does the same work: rates come from a pass made of
        // each app's median sweep and the median store open and save, so
        // one slow moment of the host spoils one sample, not a pass.
        let per_app = stats::per_request_medians(&latency_ms);
        let pass_s = (per_app.iter().sum::<f64>() + stats::median(&store_ms)) / 1e3;
        let sweeps = m.attempted as usize;
        eprintln!("  sweep: {pass} passes, {sweeps} sweeps, median pass {pass_s:.3} s");
        let groups: usize = self
            .apps
            .iter()
            .map(|a| (2 + a.specs.len()) * groups_per_launch())
            .sum();
        m.rate = groups as f64 / pass_s;
        m.e2e
            .insert("throughput_rps", self.apps.len() as f64 / pass_s);
        m.e2e.insert("latency_p50_ms", stats::median(&per_app));
        m.e2e
            .insert("latency_p99_ms", stats::percentile(&per_app, 0.99));
        m.e2e.insert("groups_per_s", m.rate);
        if traced {
            let l = &mut m.layers;
            for (metric, span) in [
                ("core.reference_s", "core.reference"),
                ("core.baseline_s", "core.baseline"),
                ("core.candidates_s", "core.candidates"),
            ] {
                l.insert(metric, stats::mean(&tracer.durations(span)));
            }
            l.insert(
                "core.error_us",
                stats::median(&tracer.durations("core.error")) * 1e6,
            );
            l.insert(
                "tune.save_ms",
                stats::mean(&tracer.durations("tune.save")) * 1e3,
            );
            l.insert("e2e.latency_samples", sweeps as f64);
            l.insert("e2e.beyond_p99", stats::beyond(sweeps, 0.99) as f64);
        }
        Ok(m)
    }

    fn model(&self) -> (f64, f64) {
        let first: Vec<&SweepOutcome> = self
            .passes
            .first()
            .into_iter()
            .flatten()
            .flatten()
            .collect();
        let speedups: Vec<f64> = first.iter().map(|o| o.speedup).collect();
        let errors: Vec<f64> = first.iter().map(|o| o.error).collect();
        (stats::geomean(&speedups), stats::mean(&errors))
    }

    fn replay(&mut self, values: &mut Values) -> Result<(u64, u64), String> {
        let refs: Vec<&LaunchReport> = self.reports.iter().collect();
        replay::sim_values(&refs, values);
        // Pass 0's launch list on one device, profiling on and off.
        let err = |e: kp_gpu_sim::SimError| format!("sweep replay: {e}");
        let mut dev = Device::new(self.cfg.clone()).map_err(err)?;
        let mut launches: Vec<Launch> = Vec::new();
        for app in &self.apps {
            let input = dev
                .create_buffer_from("input", app.data.as_slice())
                .map_err(err)?;
            let aux = match &app.aux {
                Some(a) => Some(dev.create_buffer_from("aux", a.as_slice()).map_err(err)?),
                None => None,
            };
            let mut specs = vec![
                RunSpec::AccurateGlobal { group: GROUP },
                RunSpec::Baseline { group: GROUP },
            ];
            specs.extend(app.specs.iter().copied());
            for spec in &specs {
                let img = ImageBinding {
                    input,
                    aux,
                    output: dev.create_buffer::<f32>("out", SIZE * SIZE).map_err(err)?,
                    tiled: None,
                    width: SIZE,
                    height: SIZE,
                };
                let (kernel, range): (Arc<_>, NdRange) = app
                    .entry
                    .workload
                    .build_kernel(&img, spec)
                    .map_err(|e| format!("sweep replay: {e}"))?;
                launches.push((kernel, range));
            }
        }
        let on_off = replay::profiling_on_off(&mut dev, &launches)?;
        replay::engine_values(&on_off.on, on_off.groups, values);
        values.insert("engine.accounting_frac", on_off.accounting_frac());
        Ok((2 * launches.len() as u64, 0))
    }

    fn check(&mut self) -> Result<Checked, String> {
        // One seeded candidate per app of the last untraced pass, rebuilt
        // through `launch_serial`, must reproduce its outcome bit for bit.
        let pass = self.passes.len().saturating_sub(1);
        let Some(expected) = self.passes.get(pass) else {
            return Ok(Checked::default());
        };
        let mut rng = XorShift::new(self.seed ^ 0xC4EC);
        let err = |e: kp_gpu_sim::SimError| format!("sweep check: {e}");
        let mut c = Checked::default();
        for (a, app) in self.apps.iter().enumerate() {
            let pick = rng.below(app.specs.len() as u64) as usize;
            let (data, aux) = self.input(a, pass);
            let mut dev = Device::new(self.cfg.clone()).map_err(err)?;
            let input = dev
                .create_buffer_from("input", data.as_slice())
                .map_err(err)?;
            let aux = match &aux {
                Some(x) => Some(dev.create_buffer_from("aux", x.as_slice()).map_err(err)?),
                None => None,
            };
            let mut serial = |spec: &RunSpec| -> Result<(Vec<f32>, LaunchReport), String> {
                let img = ImageBinding {
                    input,
                    aux,
                    output: dev.create_buffer::<f32>("out", SIZE * SIZE).map_err(err)?,
                    tiled: None,
                    width: SIZE,
                    height: SIZE,
                };
                let (kernel, range) = app
                    .entry
                    .workload
                    .build_kernel(&img, spec)
                    .map_err(|e| format!("sweep check: {e}"))?;
                let report = dev.launch_serial(&kernel, range).map_err(err)?;
                Ok((dev.read_buffer::<f32>(img.output).map_err(err)?, report))
            };
            let (reference, _) = serial(&RunSpec::AccurateGlobal { group: GROUP })?;
            let (output, report) = serial(&app.specs[pick])?;
            c.checked += 1;
            let Some(want) = expected.get(a).and_then(|o| o.get(pick)) else {
                c.mismatched += 1;
                continue;
            };
            let error = app.entry.metric.evaluate(&reference, &output);
            if error.to_bits() != want.error.to_bits()
                || report.seconds.to_bits() != want.seconds.to_bits()
                || report.stats.global_read_transactions != want.read_transactions
            {
                eprintln!(
                    "  sweep: {} {} differs from launch_serial",
                    APPS[a], want.label
                );
                c.mismatched += 1;
            }
        }
        Ok(c)
    }
}
