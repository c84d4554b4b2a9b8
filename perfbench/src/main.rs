//! `kp-perfbench` — the repository benchmark.
//!
//! ```text
//! kp-perfbench --workload serve|sweep|perfcl --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds one workload's inputs from the seed, sets it up several times
//! (the median is `setup_s`), measures it for `S` seconds, checks a seeded
//! sample of its outputs against the library's reference paths, and
//! prints one JSON object as the last line of standard output. With
//! `--trace 0` it holds the end-to-end metrics. With `--trace 1` the run
//! measures half of `S` untraced and half traced, replays deterministic
//! launch lists for the per-layer split, and holds the per-layer metrics;
//! the spans go to `out/trace-<workload>.json` (Chrome trace-event JSON).
//! See `README.md` for the workloads and metrics.

mod load;
mod perfcl;
mod replay;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use trace::Tracer;

/// End-to-end metrics, as `BENCHMARK.json` declares them: (name, unit).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("groups_per_s", "groups/s"),
    ("sim_speedup_geomean", "x"),
    ("error_mean", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, as `BENCHMARK.json` declares them. A workload that
/// does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("engine.exec_ms_p50", "ms"),
    ("engine.exec_ms_p99", "ms"),
    ("engine.ns_per_group", "ns"),
    ("engine.accounting_frac", "ratio"),
    ("ir.exec_ms", "ms"),
    ("ir.ns_per_group", "ns"),
    ("ir.parse_us", "us"),
    ("ir.perforate_us", "us"),
    ("ir.compile_us", "us"),
    ("ir.insts_after", "count"),
    ("tune.lookup_us", "us"),
    ("tune.hit_rate", "ratio"),
    ("tune.save_ms", "ms"),
    ("tune.adapt_steps", "count"),
    ("queue.enqueue_us", "us"),
    ("queue.wait_ms_p50", "ms"),
    ("queue.wait_ms_p99", "ms"),
    ("group.place_us", "us"),
    ("group.prefetch_us", "us"),
    ("group.migrations", "count"),
    ("group.migrated_bytes", "bytes"),
    ("completion.lag_us", "us"),
    ("core.reference_s", "s"),
    ("core.baseline_s", "s"),
    ("core.candidates_s", "s"),
    ("core.error_us", "us"),
    ("gen.lag_p99_ms", "ms"),
    ("sim.memory_frac", "ratio"),
    ("sim.compute_frac", "ratio"),
    ("sim.overhead_frac", "ratio"),
    ("sim.global_read_transactions", "count"),
    ("sim.dram_burst_frac", "ratio"),
    ("sim.local_conflict_steps", "count"),
    ("sim.kernel_us_per_req", "us"),
    ("sim.migration_us_per_req", "us"),
    ("trace.untraced_per_s", "1/s"),
    ("trace.traced_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.spans", "count"),
    ("env.host_cores", "count"),
    ("env.open_loop_rps", "req/s"),
    ("e2e.latency_samples", "count"),
    ("e2e.beyond_p99", "count"),
];

/// Content seed of the fixed reference inputs. The deterministic model
/// figures (`sim_speedup_geomean`, `error_mean`) come from them, so they
/// are the same for every `--seed`.
pub const REFERENCE: u64 = 0x5EED;

/// Each run builds its workload from scratch at least `SETUPS` times and
/// until `SETUP_SECONDS` have passed, at most `MAX_SETUPS` times;
/// `setup_s` is the median.
const SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_SECONDS: f64 = 1.0;

/// Named metric values a workload hands back to `run`.
pub type Values = BTreeMap<&'static str, f64>;

/// One timed phase of a workload.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted and failed inside the phase.
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end values (all of [`END_TO_END`] except `setup_s`,
    /// `sim_speedup_geomean`, `error_mean` and `peak_rss_mb`).
    pub e2e: Values,
    /// Per-layer values measured in the phase (traced phases only).
    pub layers: Values,
    /// The workload's primary rate (req/s or groups/s), for the tracing
    /// overhead.
    pub rate: f64,
}

/// Outcome of the output checks: operations checked and mismatches.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checked {
    pub checked: u64,
    pub mismatched: u64,
}

/// What `run` needs from each workload.
pub trait Workload: Sized {
    fn setup(seed: u64, workers: usize) -> Result<Self, String>;
    /// Runs the timed phase for about `budget`, recording spans into
    /// `tracer` when it is enabled. `tail` asks for enough latency samples
    /// to report p99 under the ten-beyond rule.
    fn measure(
        &mut self,
        budget: Duration,
        tracer: &mut Tracer,
        tail: bool,
    ) -> Result<Measured, String>;
    /// Deterministic (sim_speedup_geomean, error_mean) of the seed's
    /// inputs; called after [`Workload::measure`].
    fn model(&self) -> (f64, f64);
    /// Deterministic replays for the per-layer split (traced runs only);
    /// returns (attempted, failed).
    fn replay(&mut self, layers: &mut Values) -> Result<(u64, u64), String>;
    /// Compares a seeded sample of outputs with the reference paths.
    fn check(&mut self) -> Result<Checked, String>;
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Which {
    Serve,
    Sweep,
    Perfcl,
}

impl Which {
    fn name(self) -> &'static str {
        match self {
            Which::Serve => "serve",
            Which::Sweep => "sweep",
            Which::Perfcl => "perfcl",
        }
    }
}

struct Args {
    which: Which,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("kp-perfbench: {msg}");
    eprintln!("usage: kp-perfbench --workload serve|sweep|perfcl --seed N --seconds S --trace 0|1");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut which = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                which = Some(match value.as_str() {
                    "serve" => Which::Serve,
                    "sweep" => Which::Sweep,
                    "perfcl" => Which::Perfcl,
                    other => usage(&format!("unknown workload '{other}'")),
                })
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed must be an integer")),
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds must be a number"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                })
            }
            other => usage(&format!("unknown option '{other}'")),
        }
    }
    Args {
        which: which.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The result of a whole run, before printing.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    spans: Option<Vec<trace::Span>>,
}

fn run<W: Workload>(args: &Args, workers: usize) -> Result<RunResult, String> {
    let mut setup_times = Vec::with_capacity(MAX_SETUPS);
    let mut workload = None;
    while setup_times.len() < SETUPS
        || (setup_times.len() < MAX_SETUPS && setup_times.iter().sum::<f64>() < SETUP_SECONDS)
    {
        // Drop the previous instance first so set-ups do not overlap.
        drop(workload.take());
        let started = Instant::now();
        workload = Some(W::setup(args.seed, workers)?);
        setup_times.push(started.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up");
    let budget = Duration::from_secs_f64(args.seconds);

    let mut values = Values::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut spans = None;
    if args.trace {
        let half = budget / 2;
        let plain = w.measure(half, &mut Tracer::new(false), false)?;
        let mut tracer = Tracer::new(true);
        let root = tracer.begin("bench.measure", 0);
        let traced = w.measure(half, &mut tracer, false)?;
        tracer.end(root);
        attempted += plain.attempted + traced.attempted;
        failed += plain.failed + traced.failed;
        values.extend(traced.layers);
        values.insert("trace.untraced_per_s", plain.rate);
        values.insert("trace.traced_per_s", traced.rate);
        values.insert(
            "trace.overhead_frac",
            if plain.rate > 0.0 {
                1.0 - traced.rate / plain.rate
            } else {
                0.0
            },
        );
        let all = tracer.spans();
        let own = trace::self_times(all);
        let wall = all[0].dur() as f64;
        let root_self = own[0] as f64;
        values.insert(
            "trace.coverage",
            if wall > 0.0 {
                1.0 - root_self / wall
            } else {
                0.0
            },
        );
        values.insert("trace.spans", all.len() as f64);
        let (a, f) = w.replay(&mut values)?;
        attempted += a;
        failed += f;
        spans = Some(all.to_vec());
    } else {
        let m = w.measure(budget, &mut Tracer::new(false), true)?;
        attempted += m.attempted;
        failed += m.failed;
        values.extend(m.e2e);
    }
    let checked = w.check()?;
    attempted += checked.checked;
    failed += checked.mismatched;
    let (speedup, error) = w.model();
    drop(w);

    values.insert("setup_s", stats::median(&setup_times));
    values.insert("sim_speedup_geomean", speedup);
    values.insert("error_mean", error);
    values.insert("peak_rss_mb", peak_rss_mb());
    values.insert("env.host_cores", host_cores() as f64);
    values.insert("env.open_loop_rps", serve::OPEN_LOOP_RPS);

    let table: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = table
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        spans,
    })
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn main() {
    // Pin the environment: no KP_SIM_* override may steer the library.
    // Runs before any thread exists, so mutating the environment is sound.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("KP_SIM_") {
            std::env::remove_var(&key);
        }
    }
    let args = parse_args();
    let workers = host_cores();
    eprintln!(
        "kp-perfbench: workload {}, seed {}, {} s, trace {}, host_cores {}, open-loop rate {} req/s",
        args.which.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workers,
        serve::OPEN_LOOP_RPS
    );
    let result = match args.which {
        Which::Serve => run::<serve::Serve>(&args, workers),
        Which::Sweep => run::<sweep::Sweep>(&args, workers),
        Which::Perfcl => run::<perfcl::Perfcl>(&args, workers),
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("kp-perfbench: {e}");
            std::process::exit(1);
        }
    };
    for (name, value, unit) in &result.metrics {
        eprintln!("  {name:<30} {value:>16.6} {unit}");
    }
    eprintln!("  attempted {}, failed {}", result.attempted, result.failed);

    let metrics = metrics_json(&result.metrics);
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("kp-perfbench: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let name = args.which.name();
    let record = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_cores\": {}, \"open_loop_rps\": {}, \"attempted\": {}, \"failed\": {}, \
         \"metrics\": {metrics}}}\n",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workers,
        serve::OPEN_LOOP_RPS,
        result.attempted,
        result.failed
    );
    let mut written = std::fs::write(dir.join(format!("result-{name}.json")), record);
    if let Some(spans) = &result.spans {
        let path = dir.join(format!("trace-{name}.json"));
        written = written.and_then(|()| std::fs::write(&path, trace::chrome_json(spans)));
        eprintln!("  trace: {}", path.display());
    }
    if let Err(e) = written {
        eprintln!("kp-perfbench: cannot write results: {e}");
        std::process::exit(1);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        result.failed == 0,
        result.attempted.max(1),
        result.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let squashed: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let needle = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(squashed.contains(&needle), "{name} ({unit}) missing");
        }
        let declared = squashed.matches("{\"name\":").count();
        // Three workloads plus every metric.
        assert_eq!(declared, 3 + END_TO_END.len() + PER_LAYER.len());
    }

    /// One small-size traced run: its trace must be well formed, its
    /// outputs must pass the checks, and it returns the bits of every
    /// figure that must repeat exactly.
    fn deterministic_figures<W: Workload>() -> Vec<(String, u64)> {
        let mut w = W::setup(7, 2).expect("setup");
        let budget = Duration::from_millis(50);
        w.measure(budget, &mut Tracer::new(false), false)
            .expect("untraced");
        let mut tracer = Tracer::new(true);
        let root = tracer.begin("bench.measure", 0);
        w.measure(budget, &mut tracer, false).expect("traced");
        tracer.end(root);
        let spans = tracer.spans();
        assert!(trace::parses(&trace::chrome_json(spans)));
        for (s, own) in spans.iter().zip(trace::self_times(spans)) {
            assert!(own <= s.dur(), "{}", s.name);
            if let Some(p) = s.parent.filter(|&p| spans[p].tid == s.tid) {
                assert!(own <= spans[p].dur(), "{} under {}", s.name, spans[p].name);
            }
        }
        let mut values = Values::new();
        let (_, failed) = w.replay(&mut values).expect("replay");
        assert_eq!(failed, 0);
        assert_eq!(w.check().expect("check").mismatched, 0);
        let (speedup, error) = w.model();
        let mut out = vec![
            ("sim_speedup_geomean".to_owned(), speedup.to_bits()),
            ("error_mean".to_owned(), error.to_bits()),
        ];
        out.extend(
            values
                .iter()
                .filter(|(k, _)| k.starts_with("sim."))
                .map(|(k, v)| ((*k).to_owned(), v.to_bits())),
        );
        assert!(speedup > 0.0 && error > 0.0 && out.len() > 2);
        out
    }

    #[test]
    fn serve_model_figures_repeat_exactly() {
        assert_eq!(
            deterministic_figures::<serve::Serve>(),
            deterministic_figures::<serve::Serve>()
        );
    }

    #[test]
    fn sweep_model_figures_repeat_exactly() {
        assert_eq!(
            deterministic_figures::<sweep::Sweep>(),
            deterministic_figures::<sweep::Sweep>()
        );
    }

    #[test]
    fn perfcl_model_figures_repeat_exactly() {
        assert_eq!(
            deterministic_figures::<perfcl::Perfcl>(),
            deterministic_figures::<perfcl::Perfcl>()
        );
    }

    #[test]
    fn metric_names_follow_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
    }
}
