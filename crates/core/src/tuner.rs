//! Parameter sweeps: schemes × reconstructions × work-group sizes
//! (paper §6.3, Figs. 8 and 9).
//!
//! A sweep runs a list of kernel variants against one input, measures each
//! variant's simulated runtime and output error (against the accurate
//! output), and reports speedups relative to a chosen baseline variant.
//!
//! All candidate variants of a sweep are submitted as **one batched
//! command stream** on one device ([`crate::run_specs_batched`]): every
//! candidate's launch + read-back is enqueued up front, the queue
//! scheduler overlaps independent candidates across worker threads
//! (they share the read-only input buffer and write disjoint outputs, so
//! the inferred hazard DAG has no edges between them), and events are
//! reaped in spec order. Functional results are deterministic — the
//! command stream is bit-identical to in-order execution — so concurrency
//! cannot change any number. [`kp_gpu_sim::DeviceConfig::parallelism`]
//! (default: all cores) is the concurrency budget.
//!
//! When the device model asks for a fleet
//! ([`kp_gpu_sim::DeviceConfig::devices`] > 1, or the `KP_SIM_DEVICES`
//! environment variable), candidates are instead routed through a
//! [`DeviceGroup`]: each spec goes to the least-loaded member (a
//! deterministic round-robin over idle, identically configured devices)
//! and the members run their batches concurrently. Every member sees the
//! same config, so simulated seconds, errors and reports are identical to
//! the single-device sweep — only host wall-clock changes.
//!
//! The context's [`DeviceConfig`] also threads [`kp_gpu_sim::ExecMode`] —
//! compiled bytecode vs. tree-walking reference for IR-backed kernels —
//! through the whole sweep unchanged; the two modes are bit-identical by
//! contract, so switching it can only change sweep wall-clock time, never
//! a result.

use kp_gpu_sim::{resolve_devices, Device, DeviceConfig, DeviceGroup};
use serde::{Deserialize, Serialize};

use crate::config::ApproxConfig;
use crate::error::CoreError;
use crate::metrics::ErrorMetric;
use crate::pareto::{pareto_front, TradeOff};
use crate::pipeline::WorkloadRef;
use crate::runner::{run_app, run_specs_batched, ImageInput, RunSpec};
use crate::scheme::PrefetchLayout;

/// Everything a sweep needs besides the variant list.
pub struct SweepContext<'a> {
    /// The workload under test.
    pub app: WorkloadRef,
    /// The input image.
    pub input: ImageInput<'a>,
    /// Error metric (per paper Table 1).
    pub metric: ErrorMetric,
    /// Device model.
    pub device: DeviceConfig,
    /// The variant speedups are measured against (usually
    /// `RunSpec::Baseline`).
    pub baseline: RunSpec,
}

impl std::fmt::Debug for SweepContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepContext")
            .field("app", &self.app.name())
            .field("metric", &self.metric)
            .field("baseline", &self.baseline.label())
            .finish_non_exhaustive()
    }
}

/// Result of evaluating one variant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepOutcome {
    /// Label of the variant (`"Rows1:NN"`, `"PxCols2"`, …).
    pub label: String,
    /// Work-group size used.
    pub group: (usize, usize),
    /// Simulated runtime in seconds.
    pub seconds: f64,
    /// Speedup over the context's baseline variant.
    pub speedup: f64,
    /// Output error vs. the accurate result, in the context's metric.
    pub error: f64,
    /// Global read transactions (per launch) — the mechanism behind the
    /// speedup, useful in reports.
    pub read_transactions: u64,
}

impl SweepOutcome {
    /// The (speedup, error) trade-off point of this outcome.
    pub fn trade_off(&self) -> TradeOff {
        TradeOff::new(self.speedup, self.error)
    }
}

/// Runs `specs` against the context and returns one outcome per spec, in
/// order. All candidates go through one batched command stream (see the
/// module docs); the accurate reference and the baseline timing run first
/// on their own devices so candidate overlap cannot even share a queue
/// with them.
///
/// # Errors
///
/// Propagates the first error any variant encounters.
pub fn sweep(ctx: &SweepContext<'_>, specs: &[RunSpec]) -> Result<Vec<SweepOutcome>, CoreError> {
    // Reference output for the error metric: the accurate result (identical
    // for the global and local accurate kernels — asserted by tests).
    let mut dev = Device::new(ctx.device.clone())?;
    dev.set_profiling(false);
    let reference = run_app(
        &mut dev,
        ctx.app,
        &ctx.input,
        &RunSpec::AccurateGlobal {
            group: ctx.baseline.group(),
        },
    )?
    .output;

    // Baseline timing.
    let mut dev = Device::new(ctx.device.clone())?;
    let baseline_seconds = run_app(&mut dev, ctx.app, &ctx.input, &ctx.baseline)?
        .report
        .seconds;

    // Candidates: one queue, all launches enqueued before the first event
    // is reaped, overlap decided by the hazard DAG (none between
    // candidates) and the device's parallelism budget. With a multi-device
    // config the batch is split across a DeviceGroup's members instead.
    let runs = match resolve_devices(ctx.device.devices) {
        0 | 1 => {
            let mut dev = Device::new(ctx.device.clone())?;
            run_specs_batched(&mut dev, ctx.app, &ctx.input, specs)?
        }
        n => run_specs_grouped(ctx, specs, n)?,
    };
    Ok(specs
        .iter()
        .zip(runs)
        .map(|(spec, run)| {
            let error = ctx.metric.evaluate(&reference, &run.output);
            let seconds = run.report.seconds;
            SweepOutcome {
                label: spec.label(),
                group: spec.group(),
                seconds,
                speedup: baseline_seconds / seconds,
                error,
                read_transactions: run.report.stats.global_read_transactions,
            }
        })
        .collect())
}

/// Runs the candidate batch on an `n`-member [`DeviceGroup`]: each spec is
/// placed with [`DeviceGroup::place`] (round-robin, since every member is
/// idle while the batch is placed, so every pick is a tie), each member
/// runs its shard as one batched command stream, and results are stitched
/// back in spec order. Members are identically configured, so every per-spec
/// number is bit-identical to the single-device batch.
fn run_specs_grouped(
    ctx: &SweepContext<'_>,
    specs: &[RunSpec],
    n: usize,
) -> Result<Vec<crate::runner::RunResult>, CoreError> {
    let mut group = DeviceGroup::with_devices(ctx.device.clone(), n)?;
    // Placement first (it needs &mut group), then the member split.
    let mut shards: Vec<Vec<(usize, RunSpec)>> = vec![Vec::new(); group.device_count()];
    for (i, &spec) in specs.iter().enumerate() {
        shards[group.place()].push((i, spec));
    }
    let shard_runs: Vec<Result<_, CoreError>> = std::thread::scope(|s| {
        let handles: Vec<_> = group
            .members_mut()
            .iter_mut()
            .zip(&shards)
            .map(|(dev, shard)| {
                s.spawn(move || {
                    let mine: Vec<RunSpec> = shard.iter().map(|&(_, spec)| spec).collect();
                    run_specs_batched(dev, ctx.app, &ctx.input, &mine)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep shard thread panicked"))
            .collect()
    });
    let mut runs = vec![None; specs.len()];
    for (shard, result) in shards.iter().zip(shard_runs) {
        for (&(i, _), run) in shard.iter().zip(result?) {
            runs[i] = Some(run);
        }
    }
    Ok(runs
        .into_iter()
        .map(|r| r.expect("every spec was placed on exactly one member"))
        .collect())
}

/// Returns the indices of the Pareto-optimal outcomes (by speedup/error).
pub fn pareto_outcomes(outcomes: &[SweepOutcome]) -> Vec<usize> {
    let points: Vec<TradeOff> = outcomes.iter().map(SweepOutcome::trade_off).collect();
    pareto_front(&points)
}

/// The four perforated configurations compared in Fig. 8
/// (`Rows1:NN`, `Rows2:NN`, `Rows1:LI`, `Stencil1:NN`), at a given
/// work-group size. The stencil configuration is omitted when the app has
/// no halo (paper: "Stencil1 cannot be used as the application has a filter
/// kernel size of 1×1").
pub fn fig8_specs(group: (usize, usize), halo: usize) -> Vec<RunSpec> {
    let mut specs = vec![
        RunSpec::Perforated(ApproxConfig::rows1_nn(group)),
        RunSpec::Perforated(ApproxConfig::rows2_nn(group)),
        RunSpec::Perforated(ApproxConfig::rows1_li(group)),
    ];
    if halo > 0 {
        specs.push(RunSpec::Perforated(ApproxConfig::stencil1_nn(group)));
    }
    specs
}

/// Layout-axis candidate family: the Fig. 8 selection × reconstruction
/// configurations crossed with every prefetch layout valid for the given
/// stencil radius and tile shape. Labels carry the layout suffix, so no
/// two candidates alias ([`crate::PrefetchLayout::label_suffix`]).
pub fn layout_specs(group: (usize, usize), halo: usize) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for base in fig8_specs(group, halo) {
        let RunSpec::Perforated(cfg) = base else {
            continue;
        };
        specs.push(RunSpec::Perforated(cfg));
        specs.push(RunSpec::Perforated(
            cfg.with_layout(PrefetchLayout::BurstTiled),
        ));
        if (1..=group.1).contains(&halo) {
            specs.push(RunSpec::Perforated(
                cfg.with_layout(PrefetchLayout::SystolicShift),
            ));
        }
    }
    specs
}

/// The ten work-group shapes swept in Fig. 9, from tall-skinny `(2,128)`
/// to wide-flat `(128,2)`.
pub fn fig9_shapes() -> Vec<(usize, usize)> {
    vec![
        (2, 128),
        (4, 64),
        (8, 8),
        (8, 16),
        (8, 32),
        (16, 8),
        (16, 16),
        (32, 8),
        (64, 4),
        (128, 2),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{StencilApp, Window};

    struct Blur;

    impl StencilApp for Blur {
        fn name(&self) -> &str {
            "blur"
        }

        fn halo(&self) -> usize {
            1
        }

        fn compute(&self, win: &mut Window<'_, '_>) -> f32 {
            let mut acc = 0.0;
            for dy in -1..=1 {
                for dx in -1..=1 {
                    acc += win.at(dx, dy);
                }
            }
            win.ops(9);
            acc / 9.0
        }
    }

    fn noisy_image(w: usize, h: usize) -> Vec<f32> {
        (0..w * h)
            .map(|i| {
                let (x, y) = (i % w, i / w);
                0.5 + 0.3 * ((x as f32 * 0.7).sin() * (y as f32 * 0.3).cos())
            })
            .collect()
    }

    fn context<'a>(data: &'a [f32], w: usize, h: usize) -> SweepContext<'a> {
        SweepContext {
            app: &Blur,
            input: ImageInput::new(data, w, h).unwrap(),
            metric: ErrorMetric::MeanRelative,
            device: DeviceConfig::firepro_w5100(),
            baseline: RunSpec::Baseline { group: (16, 16) },
        }
    }

    #[test]
    fn sweep_orders_and_measures() {
        let (w, h) = (64, 64);
        let data = noisy_image(w, h);
        let ctx = context(&data, w, h);
        let specs = fig8_specs((16, 16), 1);
        let outcomes = sweep(&ctx, &specs).unwrap();
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[0].label, "Rows1:NN");
        assert_eq!(outcomes[3].label, "Stencil1:NN");
        for o in &outcomes {
            assert!(o.seconds > 0.0);
            assert!(o.error.is_finite());
            assert!(o.speedup > 1.0, "{} not faster than baseline", o.label);
        }
        // Error ordering from the paper: LI < NN, Rows1 < Rows2,
        // Stencil ~ smallest.
        let get = |label: &str| outcomes.iter().find(|o| o.label == label).unwrap();
        assert!(get("Rows1:LI").error <= get("Rows1:NN").error);
        assert!(get("Rows1:NN").error <= get("Rows2:NN").error);
        assert!(get("Stencil1:NN").error <= get("Rows1:NN").error);
    }

    #[test]
    fn sweep_is_deterministic_despite_parallelism() {
        let (w, h) = (48, 48);
        let data = noisy_image(w, h);
        let ctx = context(&data, w, h);
        let specs = fig8_specs((16, 16), 1);
        let a = sweep(&ctx, &specs).unwrap();
        let b = sweep(&ctx, &specs).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.seconds, y.seconds);
            assert_eq!(x.error, y.error);
        }
    }

    #[test]
    fn sweep_through_device_group_matches_single_device() {
        let (w, h) = (48, 48);
        let data = noisy_image(w, h);
        let single = context(&data, w, h);
        let specs = fig8_specs((16, 16), 1);
        let a = sweep(&single, &specs).unwrap();
        for n in [2, 3] {
            let mut fleet = context(&data, w, h);
            fleet.device.devices = n;
            let b = sweep(&fleet, &specs).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.label, y.label, "{n} devices");
                assert_eq!(x.seconds, y.seconds, "{n} devices: {}", x.label);
                assert_eq!(x.error, y.error, "{n} devices: {}", x.label);
                assert_eq!(x.read_transactions, y.read_transactions);
            }
        }
    }

    #[test]
    fn fig8_specs_drop_stencil_without_halo() {
        assert_eq!(fig8_specs((16, 16), 0).len(), 3);
        assert_eq!(fig8_specs((16, 16), 1).len(), 4);
    }

    #[test]
    fn fig9_shapes_are_the_papers_ten() {
        let shapes = fig9_shapes();
        assert_eq!(shapes.len(), 10);
        assert!(shapes.contains(&(2, 128)));
        assert!(shapes.contains(&(128, 2)));
        // All hold 256 work items except the 8x8 and 8x16 entries.
        for &(x, y) in &shapes {
            assert!(x * y <= 256);
        }
    }

    #[test]
    fn pareto_outcomes_filters_dominated() {
        let mk = |label: &str, speedup: f64, error: f64| SweepOutcome {
            label: label.into(),
            group: (16, 16),
            seconds: 1.0 / speedup,
            speedup,
            error,
            read_transactions: 0,
        };
        let outcomes = vec![
            mk("good", 2.0, 0.01),
            mk("dominated", 1.5, 0.05),
            mk("accurate", 1.0, 0.0),
        ];
        let front = pareto_outcomes(&outcomes);
        assert_eq!(front, vec![2, 0]);
    }
}
