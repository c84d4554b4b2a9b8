//! `serve`: perforation as a service on a two-member fleet.
//!
//! Requests pick an app (gaussian, sobel3), an error-budget tier and a
//! frame size (128², 64²). Admission asks the tuning cache (warmed during
//! set-up, so every lookup is an exact hit), routes nonzero budgets
//! through a per-cell `AdaptController`, places the request on the
//! least-loaded member, makes the shared frame resident there and
//! enqueues it. Completions arrive through `Event::on_complete`
//! callbacks, which stamp the completion instant.
//!
//! Phase 1 is open loop: seeded Poisson arrivals at [`OPEN_LOOP_RPS`],
//! each request timed from its due time. Every 32nd request rewrites a
//! frame from the host, which stales the other member's copy and forces
//! a priced migration. Phase 2 is closed loop with [`INFLIGHT`] requests
//! in flight on resident frames and gives the throughput.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kp_apps::suite::{self, AppEntry};
use kp_core::{
    pack_tiled, ApproxConfig, ImageBinding, ImageInput, PerforatedKernel, PrefetchLayout, RunSpec,
    SweepContext, SweepOutcome, TileGeometry,
};
use kp_gpu_sim::{
    BufferId, Device, DeviceConfig, DeviceGroup, Event, LaunchReport, NdRange, Queue,
};
use kp_tune::{sweep_cached, AdaptController, Sla, TuneDb, WarmStart};

use crate::load::{self, Done, Target};
use crate::replay::{self, Launch};
use crate::stats::{self, XorShift};
use crate::trace::{Tracer, DEVICE};
use crate::{Checked, Measured, Values};

/// Open-loop arrival rate, fixed. On the 2-core host the benchmark was
/// written on, closed-loop throughput ranged 150–300 req/s as the host's
/// speed drifted; at half of it the queue amplified that drift into the
/// tail, so the rate sits at a third of the slowest (see `README.md`).
pub const OPEN_LOOP_RPS: f64 = 50.0;
/// Requests in flight in the closed-loop phase: two per member, one
/// running and one queued, so a member does not wait for the generator.
/// With 64 in flight the throughput on the 2-core host was lower and
/// noisier.
pub const INFLIGHT: usize = 4;
/// The closed loop's rates are middle means over slices of this length.
const SLICE: Duration = Duration::from_millis(500);
/// Frame sizes; tests run the same workload on small frames.
const SIZES: [usize; 2] = if cfg!(test) { [32, 16] } else { [128, 64] };
const GROUP: (usize, usize) = (16, 16);
const MEMBERS: usize = 2;
const REFRESH_EVERY: u64 = 32;
/// Every `SAMPLE_STRIDE`-th request (from a seeded offset) keeps its
/// output slot until the output check, up to `MAX_SAMPLES` requests.
const SAMPLE_STRIDE: u64 = 97;
const MAX_SAMPLES: usize = 24;
/// Requests in the deterministic one-at-a-time replay of traced runs.
const REPLAY_REQUESTS: u64 = if cfg!(test) { 40 } else { 160 };
const FAMILY: &str = "serve";

struct Tier {
    budget: f64,
    config: fn((usize, usize)) -> ApproxConfig,
}

const TIERS: [Tier; 5] = [
    Tier {
        budget: 0.0,
        config: ApproxConfig::accurate,
    },
    Tier {
        budget: 0.025,
        config: ApproxConfig::rows1_li,
    },
    Tier {
        budget: 0.05,
        config: ApproxConfig::rows1_nn,
    },
    Tier {
        budget: 0.075,
        config: cols1_nn_burst,
    },
    Tier {
        budget: 0.10,
        config: ApproxConfig::rows2_nn,
    },
];

fn cols1_nn_burst(group: (usize, usize)) -> ApproxConfig {
    ApproxConfig::cols1_nn(group).with_layout(PrefetchLayout::BurstTiled)
}

/// One request's place in the mix.
#[derive(Debug, Clone, Copy)]
struct Mix {
    app: usize,
    tier: usize,
    class: usize,
}

impl Mix {
    fn draw(rng: &mut XorShift) -> Self {
        Self {
            app: rng.below(2) as usize,
            tier: rng.below(TIERS.len() as u64) as usize,
            class: rng.below(SIZES.len() as u64) as usize,
        }
    }

    fn cell(self) -> usize {
        (self.app * TIERS.len() + self.tier) * SIZES.len() + self.class
    }
}

/// The fleet and the buffers requests use.
struct Fleet {
    group: DeviceGroup,
    queues: Vec<Queue>,
    inputs: Vec<BufferId>,
    tileds: Vec<BufferId>,
    slots: Vec<Vec<BufferId>>,
}

impl Fleet {
    fn new(cfg: &DeviceConfig, frames: &[Vec<f32>], tiled: &[Vec<f32>]) -> Result<Self, String> {
        let err = |e: kp_gpu_sim::SimError| format!("serve fleet: {e}");
        let mut group = DeviceGroup::with_devices(cfg.clone(), MEMBERS).map_err(err)?;
        // Group buffers first, so their handles agree on every member.
        let inputs = frames
            .iter()
            .map(|f| group.create_buffer_from("frame", f.as_slice()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let tileds = tiled
            .iter()
            .map(|f| group.create_buffer_from("frame-tiled", f.as_slice()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let mut slots = Vec::with_capacity(MEMBERS);
        for dev in group.members_mut() {
            let pool = (0..INFLIGHT)
                .map(|_| dev.create_buffer::<f32>("slot", SIZES[0] * SIZES[0]))
                .collect::<Result<Vec<_>, _>>()
                .map_err(err)?;
            slots.push(pool);
        }
        let queues = (0..MEMBERS).map(|m| group.create_queue(m)).collect();
        Ok(Self {
            group,
            queues,
            inputs,
            tileds,
            slots,
        })
    }

    /// A free output slot on `member`; the pool grows when a backlog
    /// outlasts it.
    fn slot(&mut self, member: usize) -> Result<BufferId, String> {
        match self.slots[member].pop() {
            Some(s) => Ok(s),
            None => self.group.members_mut()[member]
                .create_buffer::<f32>("slot", SIZES[0] * SIZES[0])
                .map_err(|e| format!("serve slot: {e}")),
        }
    }
}

/// A request in flight.
struct Pending {
    event: Event,
    /// When `enqueue_launch` returned.
    queued: Instant,
    member: usize,
    slot: BufferId,
    mix: Mix,
    /// Tier whose configuration actually ran (the controller's rung).
    ran: usize,
    rung_error: Option<f64>,
}

/// Per-phase samples taken when requests settle.
#[derive(Debug, Default)]
struct Samples {
    exec_s: Vec<f64>,
    wait_ms: Vec<f64>,
    completion_lag_us: Vec<f64>,
    completed: u64,
    failed: u64,
    groups: u64,
}

pub struct Serve {
    seed: u64,
    cfg: DeviceConfig,
    apps: [AppEntry; 2],
    frames: Vec<Vec<f32>>,
    tiled: Vec<Vec<f32>>,
    labels: Vec<String>,
    specs: Vec<RunSpec>,
    db: TuneDb,
    /// Calibration outcomes per (app, class), index `app * 2 + class`.
    ladders: Vec<Vec<SweepOutcome>>,
    controllers: Vec<Option<AdaptController>>,
    fleet: Fleet,
    /// `launch_serial` output bits per (app, tier, class).
    oracle: HashMap<(usize, usize, usize), Vec<u32>>,
    next_req: u64,
    phases: u64,
    /// Whether admission rewrites a frame every `REFRESH_EVERY` requests.
    refreshing: bool,
    sampling: bool,
    /// The replay places with `DeviceGroup::place`, which round-robins
    /// requests that arrive one at a time, so its migrations are a
    /// function of the seed.
    round_robin: bool,
    held: Vec<(usize, BufferId, usize, usize, usize)>,
    pending: HashMap<u64, Pending>,
    /// Mix of the phase being driven.
    rng: XorShift,
    samples: Samples,
    tx: Sender<Done>,
    rx: Rc<Receiver<Done>>,
}

fn app(name: &str) -> Result<AppEntry, String> {
    suite::by_name(name).ok_or_else(|| format!("app {name} not registered"))
}

impl Serve {
    /// One controller per budgeted cell, already settled on its rung:
    /// each is fed its rung's calibrated error until a whole window passes
    /// without a step. Fresh controllers start on the most accurate rung
    /// and climb one rung per window of their own cell's requests, so the
    /// timed phases would otherwise run a rung mix that depends on how far
    /// the seed's request mix had moved each cell.
    fn settled_controllers(&self) -> Result<Vec<Option<AdaptController>>, String> {
        let mut out = Vec::new();
        for a in 0..self.apps.len() {
            for tier in &TIERS {
                for class in 0..SIZES.len() {
                    if tier.budget <= 0.0 {
                        out.push(None);
                        continue;
                    }
                    let mut ctl = AdaptController::from_outcomes(
                        &self.ladders[a * SIZES.len() + class],
                        Sla::with_budget(tier.budget),
                    )
                    .map_err(|e| format!("serve controller: {e}"))?;
                    loop {
                        let (rung, error, seconds) = (
                            ctl.current_index(),
                            ctl.current().error,
                            ctl.current().seconds,
                        );
                        for _ in 0..ctl.sla().window {
                            ctl.observe(error, seconds);
                        }
                        if ctl.current_index() == rung {
                            break;
                        }
                    }
                    out.push(Some(ctl));
                }
            }
        }
        Ok(out)
    }

    fn tier_of(&self, label: &str) -> Result<usize, String> {
        self.labels
            .iter()
            .position(|l| l == label)
            .ok_or_else(|| format!("rung {label} outside the serve family"))
    }

    fn enqueue(&mut self, req: u64, mix: Mix, tracer: &mut Tracer) -> Result<Pending, String> {
        let id = req + 1;
        let admit = tracer.begin("gen.admit", id);
        let size = SIZES[mix.class];
        if self.refreshing && req > 0 && req.is_multiple_of(REFRESH_EVERY) {
            let class = (req / REFRESH_EVERY) as usize % SIZES.len();
            let fleet = &mut self.fleet;
            let (frames, tiled) = (&self.frames, &self.tiled);
            tracer
                .span("group.refresh", id, || {
                    fleet
                        .group
                        .write_buffer(fleet.inputs[class], frames[class].as_slice())?;
                    fleet
                        .group
                        .write_buffer(fleet.tileds[class], tiled[class].as_slice())
                })
                .map_err(|e| format!("serve refresh: {e}"))?;
        }
        let entry = self.apps[mix.app];
        let input = ImageInput::new(&self.frames[mix.class], size, size)
            .map_err(|e| format!("serve input: {e}"))?;
        let ctx = SweepContext {
            app: entry.workload,
            input,
            metric: entry.metric,
            device: self.cfg.clone(),
            baseline: RunSpec::Baseline { group: GROUP },
        };
        let (specs, db) = (&self.specs, &mut self.db);
        tracer
            .span("tune.lookup", id, || {
                sweep_cached(&ctx, specs, db, FAMILY, WarmStart::Trust)
            })
            .map_err(|e| format!("serve lookup: {e}"))?;
        let (ran, rung_error) = match &self.controllers[mix.cell()] {
            Some(ctl) => {
                let rung = ctl.current();
                (self.tier_of(&rung.label)?, Some(rung.error))
            }
            None => (0, None),
        };
        let config = (TIERS[ran].config)(GROUP);
        let fleet = &mut self.fleet;
        // Timed phases place by queue depth. `DeviceGroup::place` also
        // counts every placement and never forgets one: it balances request
        // counts over the group's life, so it can queue a request behind a
        // busy member while the other idles.
        let round_robin = self.round_robin;
        let member = tracer.span("group.place", id, || {
            if round_robin {
                fleet.group.place()
            } else {
                fleet.group.least_loaded()
            }
        });
        let burst = config.scheme.layout == PrefetchLayout::BurstTiled;
        tracer
            .span("group.prefetch", id, || {
                fleet.group.prefetch(fleet.inputs[mix.class], member)?;
                if burst {
                    fleet.group.prefetch(fleet.tileds[mix.class], member)?;
                }
                Ok::<_, kp_gpu_sim::SimError>(())
            })
            .map_err(|e| format!("serve prefetch: {e}"))?;
        let slot = fleet.slot(member)?;
        let img = ImageBinding {
            input: fleet.inputs[mix.class],
            aux: None,
            output: slot,
            tiled: burst.then_some(fleet.tileds[mix.class]),
            width: size,
            height: size,
        };
        let kernel = tracer
            .span("core.kernel", id, || {
                PerforatedKernel::new(entry.app, img, config)
            })
            .map_err(|e| format!("serve kernel: {e}"))?;
        let range =
            NdRange::new_2d((size, size), GROUP).map_err(|e| format!("serve range: {e}"))?;
        let queue = &fleet.queues[member];
        let event = tracer
            .span("queue.enqueue", id, || {
                queue.enqueue_launch(kernel, range, &[])
            })
            .map_err(|e| format!("serve enqueue: {e}"))?;
        let queued = Instant::now();
        let tx = self.tx.clone();
        event.on_complete(move |r| {
            let _ = tx.send(Done {
                token: req,
                at: Instant::now(),
                ok: r.is_ok(),
            });
        });
        tracer.end(admit);
        Ok(Pending {
            event,
            queued,
            member,
            slot,
            mix,
            ran,
            rung_error,
        })
    }

    /// Settles one completed request; returns its report when it succeeded.
    fn complete(
        &mut self,
        done: &Done,
        due: Instant,
        tracer: &mut Tracer,
    ) -> Result<Option<LaunchReport>, String> {
        let req = done.token;
        let id = req + 1;
        let p = self
            .pending
            .remove(&req)
            .ok_or_else(|| format!("completion for unknown request {req}"))?;
        let open = tracer.begin("completion.harvest", id);
        self.samples.completed += 1;
        let settled = if done.ok {
            p.event.wait_report().ok().zip(p.event.timing().ok())
        } else {
            None
        };
        let hold = self.sampling
            && req % SAMPLE_STRIDE == self.seed % SAMPLE_STRIDE
            && self.held.len() < MAX_SAMPLES;
        if hold {
            self.held
                .push((p.member, p.slot, p.mix.app, p.ran, p.mix.class));
        } else {
            self.fleet.slots[p.member].push(p.slot);
        }
        let Some((report, timing)) = settled else {
            self.samples.failed += 1;
            tracer.end(open);
            return Ok(None);
        };
        if let (Some(err), Some(ctl)) = (p.rung_error, self.controllers[p.mix.cell()].as_mut()) {
            ctl.observe(err, report.seconds);
        }
        let s = &mut self.samples;
        s.groups += report.groups as u64;
        let (wait, exec) = (timing.queue_delay(), timing.execution());
        s.exec_s.push(exec.as_secs_f64());
        s.wait_ms.push(wait.as_secs_f64() * 1e3);
        let host = done.at.saturating_duration_since(p.queued).as_secs_f64();
        let device = timing.ended.saturating_sub(timing.queued).as_secs_f64();
        s.completion_lag_us.push((host - device) * 1e6);
        if tracer.enabled() {
            let parent = tracer.record("request", (due, done.at), None, id, DEVICE);
            let started = p.queued + wait;
            let ended = started + exec;
            tracer.record("queue.wait", (p.queued, started), parent, id, DEVICE);
            tracer.record("engine.exec", (started, ended), parent, id, DEVICE);
            tracer.record(
                "completion.lag",
                (ended, done.at.max(ended)),
                parent,
                id,
                DEVICE,
            );
        }
        tracer.end(open);
        Ok(Some(report))
    }

    /// A fresh request stream for the next phase.
    fn next_stream(&mut self) -> u64 {
        self.phases += 1;
        let key = self.seed.wrapping_mul(0x100).wrapping_add(self.phases);
        self.rng = XorShift::new(key);
        key
    }

    fn adapt_steps(&self) -> u64 {
        self.controllers
            .iter()
            .flatten()
            .map(|c| c.stats().steps_up + c.stats().steps_down)
            .sum()
    }

    fn bindings(
        dev: &mut Device,
        frames: &[Vec<f32>],
        tiled: &[Vec<f32>],
    ) -> Result<Vec<ImageBinding>, String> {
        let err = |e: kp_gpu_sim::SimError| format!("serve oracle: {e}");
        let mut out = Vec::new();
        for (class, &size) in SIZES.iter().enumerate() {
            out.push(ImageBinding {
                input: dev
                    .create_buffer_from("frame", frames[class].as_slice())
                    .map_err(err)?,
                aux: None,
                output: dev.create_buffer::<f32>("out", size * size).map_err(err)?,
                tiled: Some(
                    dev.create_buffer_from("tiled", tiled[class].as_slice())
                        .map_err(err)?,
                ),
                width: size,
                height: size,
            });
        }
        Ok(out)
    }
}

impl Target for Serve {
    fn admit(&mut self, req: u64, tracer: &mut Tracer) -> Result<(), String> {
        let mix = Mix::draw(&mut self.rng);
        let p = self.enqueue(req, mix, tracer)?;
        self.pending.insert(req, p);
        Ok(())
    }

    fn settle(&mut self, done: &Done, due: Instant, tracer: &mut Tracer) -> Result<u64, String> {
        Ok(self
            .complete(done, due, tracer)?
            .map_or(0, |r| r.groups as u64))
    }
}

impl crate::Workload for Serve {
    fn setup(seed: u64, _workers: usize) -> Result<Self, String> {
        let apps = [app("gaussian")?, app("sobel3")?];
        if apps.iter().any(|a| a.app.halo() != 1) {
            return Err("the tiled frames assume halo-1 apps".into());
        }
        // One worker per member: the fleet uses the host's two cores.
        let mut cfg = DeviceConfig::firepro_w5100().with_burst_discount(8);
        cfg.parallelism = 1;
        cfg.devices = MEMBERS;
        let geom = TileGeometry::new(GROUP.0, GROUP.1, 1);
        // The frames are fixed, so the calibration (and the model figures
        // taken from it) is the same for every seed; the seed drives the
        // request mix and the arrivals.
        let frames: Vec<Vec<f32>> = SIZES
            .iter()
            .enumerate()
            .map(|(i, &s)| kp_data::synth::photo_like(s, s, crate::REFERENCE + i as u64).into_vec())
            .collect();
        let tiled: Vec<Vec<f32>> = SIZES
            .iter()
            .zip(&frames)
            .map(|(&s, f)| pack_tiled(f, s, s, &geom))
            .collect();
        let labels: Vec<String> = TIERS.iter().map(|t| (t.config)(GROUP).label()).collect();
        let specs: Vec<RunSpec> = TIERS
            .iter()
            .map(|t| RunSpec::Perforated((t.config)(GROUP)))
            .collect();

        // Warm the tuning cache: every timed lookup is an exact hit.
        let mut db = TuneDb::in_memory();
        let mut ladders = Vec::new();
        for entry in &apps {
            for (class, &size) in SIZES.iter().enumerate() {
                let ctx = SweepContext {
                    app: entry.workload,
                    input: ImageInput::new(&frames[class], size, size)
                        .map_err(|e| format!("serve input: {e}"))?,
                    metric: entry.metric,
                    device: cfg.clone(),
                    baseline: RunSpec::Baseline { group: GROUP },
                };
                ladders.push(
                    sweep_cached(&ctx, &specs, &mut db, FAMILY, WarmStart::Trust)
                        .map_err(|e| format!("serve calibration: {e}"))?,
                );
            }
        }
        db.reset_stats();

        // Reference outputs of every cell a request can run.
        let mut dev = Device::new(cfg.clone()).map_err(|e| format!("serve oracle: {e}"))?;
        let bindings = Self::bindings(&mut dev, &frames, &tiled)?;
        let mut oracle = HashMap::new();
        for (a, entry) in apps.iter().enumerate() {
            for (t, tier) in TIERS.iter().enumerate() {
                for (class, img) in bindings.iter().enumerate() {
                    let kernel = PerforatedKernel::new(entry.app, *img, (tier.config)(GROUP))
                        .map_err(|e| format!("serve oracle: {e}"))?;
                    let range = NdRange::new_2d((img.width, img.height), GROUP)
                        .map_err(|e| format!("serve oracle: {e}"))?;
                    dev.launch_serial(&kernel, range)
                        .map_err(|e| format!("serve oracle: {e}"))?;
                    let out = dev
                        .read_buffer::<f32>(img.output)
                        .map_err(|e| format!("serve oracle: {e}"))?;
                    oracle.insert((a, t, class), out.iter().map(|v| v.to_bits()).collect());
                }
            }
        }

        let fleet = Fleet::new(&cfg, &frames, &tiled)?;
        let (tx, rx) = channel();
        let mut serve = Serve {
            seed,
            cfg,
            apps,
            frames,
            tiled,
            labels,
            specs,
            db,
            ladders,
            controllers: Vec::new(),
            fleet,
            oracle,
            next_req: 0,
            phases: 0,
            refreshing: true,
            sampling: true,
            round_robin: false,
            held: Vec::new(),
            pending: HashMap::new(),
            rng: XorShift::new(seed),
            samples: Samples::default(),
            tx,
            rx: Rc::new(rx),
        };
        serve.controllers = serve.settled_controllers()?;
        Ok(serve)
    }

    fn measure(
        &mut self,
        budget: Duration,
        tracer: &mut Tracer,
        tail: bool,
    ) -> Result<Measured, String> {
        let fleet_before = self.fleet.group.stats();
        let steps_before = self.adapt_steps();
        self.db.reset_stats();
        let rx = Rc::clone(&self.rx);

        // The open loop gets just enough requests for its tail (two thirds
        // of the time when the tail is not reported); the closed loop, whose
        // throughput follows the host's speed most, gets the rest.
        let count = if tail {
            stats::samples_for_tail(0.99)
        } else {
            (OPEN_LOOP_RPS * budget.as_secs_f64() * 2.0 / 3.0)
                .round()
                .max(1.0) as usize
        };
        let key = self.next_stream();
        let schedule = stats::poisson_schedule(key ^ 0xA11, OPEN_LOOP_RPS, count);
        self.samples = Samples::default();
        self.refreshing = true;
        let started = Instant::now();
        let root = tracer.begin("bench.open_loop", 0);
        let open = load::open_loop(self, &rx, &schedule, self.next_req, tracer)?;
        tracer.end(root);
        self.next_req += count as u64;
        let open_samples = std::mem::take(&mut self.samples);

        let window = budget.saturating_sub(started.elapsed()).max(budget / 4);
        self.next_stream();
        // The closed loop measures sustained throughput on resident
        // frames; refresh bursts are measured by the open loop's tail.
        self.refreshing = false;
        let root = tracer.begin("bench.closed_loop", 0);
        let (closed, next) = load::closed_loop(self, &rx, INFLIGHT, window, self.next_req, tracer)?;
        tracer.end(root);
        self.next_req = next;
        let closed_samples = std::mem::take(&mut self.samples);

        let secs = window.as_secs_f64();
        let (done_per_s, groups_per_s) = stats::slice_rates(&closed.finished, window, SLICE);
        let throughput = stats::middle_mean(&done_per_s);
        let n = open.latency_ms.len();
        eprintln!(
            "  serve: open loop {n} requests at {OPEN_LOOP_RPS} req/s ({} beyond p99), \
             generator lag p99 {:.3} ms; closed loop {} requests in {secs:.2} s",
            stats::beyond(n, 0.99),
            stats::percentile(&open.gen_lag_ms, 0.99),
            closed.latency_ms.len()
        );
        let mut m = Measured {
            attempted: open_samples.completed + closed_samples.completed,
            failed: open_samples.failed + closed_samples.failed,
            rate: throughput,
            ..Measured::default()
        };
        m.e2e.insert("throughput_rps", throughput);
        m.e2e
            .insert("latency_p50_ms", stats::median(&open.latency_ms));
        m.e2e
            .insert("latency_p99_ms", stats::percentile(&open.latency_ms, 0.99));
        m.e2e
            .insert("groups_per_s", stats::middle_mean(&groups_per_s));
        if tracer.enabled() {
            let l = &mut m.layers;
            let both = |f: fn(&Samples) -> &Vec<f64>| -> Vec<f64> {
                f(&open_samples)
                    .iter()
                    .chain(f(&closed_samples))
                    .copied()
                    .collect()
            };
            replay::engine_values(
                &both(|s| &s.exec_s),
                (open_samples.groups + closed_samples.groups) as usize,
                l,
            );
            // Queue wait where latency is measured: the open loop.
            l.insert(
                "queue.wait_ms_p50",
                stats::percentile(&open_samples.wait_ms, 0.5),
            );
            l.insert(
                "queue.wait_ms_p99",
                stats::percentile(&open_samples.wait_ms, 0.99),
            );
            l.insert(
                "completion.lag_us",
                stats::median(&both(|s| &s.completion_lag_us)),
            );
            for (metric, span) in [
                ("tune.lookup_us", "tune.lookup"),
                ("queue.enqueue_us", "queue.enqueue"),
                ("group.place_us", "group.place"),
                ("group.prefetch_us", "group.prefetch"),
            ] {
                l.insert(metric, stats::median(&tracer.durations(span)) * 1e6);
            }
            l.insert("tune.hit_rate", self.db.stats().hit_rate());
            l.insert(
                "tune.adapt_steps",
                (self.adapt_steps() - steps_before) as f64,
            );
            let fleet = self.fleet.group.stats();
            l.insert(
                "group.migrations",
                (fleet.migrations - fleet_before.migrations) as f64,
            );
            l.insert(
                "group.migrated_bytes",
                (fleet.migrated_bytes - fleet_before.migrated_bytes) as f64,
            );
            l.insert("gen.lag_p99_ms", stats::percentile(&open.gen_lag_ms, 0.99));
            l.insert("e2e.latency_samples", n as f64);
            l.insert("e2e.beyond_p99", stats::beyond(n, 0.99) as f64);
        }
        Ok(m)
    }

    fn model(&self) -> (f64, f64) {
        let all: Vec<&SweepOutcome> = self.ladders.iter().flatten().collect();
        let speedups: Vec<f64> = all.iter().map(|o| o.speedup).collect();
        let errors: Vec<f64> = all.iter().map(|o| o.error).collect();
        (stats::geomean(&speedups), stats::mean(&errors))
    }

    fn replay(&mut self, values: &mut Values) -> Result<(u64, u64), String> {
        // One request at a time on a fresh fleet with fresh, settled
        // controllers:
        // placement, refreshes, migrations and rung choices are then a
        // function of the seed alone.
        let fleet = Fleet::new(&self.cfg, &self.frames, &self.tiled)?;
        let saved_fleet = std::mem::replace(&mut self.fleet, fleet);
        let controllers = self.settled_controllers()?;
        let saved_controllers = std::mem::replace(&mut self.controllers, controllers);
        self.sampling = false;
        self.round_robin = true;
        self.refreshing = true;
        let mut rng = XorShift::new(self.seed ^ 0x5E11);
        let mut tracer = Tracer::new(false);
        self.samples = Samples::default();
        let mut reports = Vec::new();
        let mut ran = Vec::new();
        let mut outcome = Ok(());
        for req in 0..REPLAY_REQUESTS {
            let mix = Mix::draw(&mut rng);
            let step = self.enqueue(req, mix, &mut tracer).and_then(|p| {
                let cell = (mix.app, p.ran, mix.class);
                self.pending.insert(req, p);
                let done = self
                    .rx
                    .recv()
                    .map_err(|_| "serve replay: completion channel closed".to_owned())?;
                let report = self.complete(&done, Instant::now(), &mut tracer)?;
                Ok(report.map(|r| (r, cell)))
            });
            match step {
                Ok(Some((report, cell))) => {
                    reports.push(report);
                    ran.push(cell);
                }
                Ok(None) => {}
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        let fleet = self.fleet.group.stats();
        self.fleet = saved_fleet;
        self.controllers = saved_controllers;
        self.sampling = true;
        self.round_robin = false;
        outcome?;

        let refs: Vec<&LaunchReport> = reports.iter().collect();
        replay::sim_values(&refs, values);
        values.insert(
            "sim.migration_us_per_req",
            fleet.migration_seconds(&self.cfg) * 1e6 / REPLAY_REQUESTS as f64,
        );

        // The same launches on one plain device, profiling on and off.
        let mut dev = Device::new(self.cfg.clone()).map_err(|e| format!("serve replay: {e}"))?;
        let bindings = Self::bindings(&mut dev, &self.frames, &self.tiled)?;
        let mut launches: Vec<Launch> = Vec::new();
        for &(a, t, class) in &ran {
            let img = bindings[class];
            let kernel = PerforatedKernel::new(self.apps[a].app, img, (TIERS[t].config)(GROUP))
                .map_err(|e| format!("serve replay: {e}"))?;
            let range = NdRange::new_2d((img.width, img.height), GROUP)
                .map_err(|e| format!("serve replay: {e}"))?;
            launches.push((Arc::new(kernel), range));
        }
        let on_off = replay::profiling_on_off(&mut dev, &launches)?;
        values.insert("engine.accounting_frac", on_off.accounting_frac());
        Ok((
            REPLAY_REQUESTS + 2 * launches.len() as u64,
            self.samples.failed,
        ))
    }

    fn check(&mut self) -> Result<Checked, String> {
        let mut c = Checked::default();
        for (member, slot, a, t, class) in std::mem::take(&mut self.held) {
            let out = self
                .fleet
                .group
                .member(member)
                .read_buffer::<f32>(slot)
                .map_err(|e| format!("serve check: {e}"))?;
            let size = SIZES[class];
            let want = &self.oracle[&(a, t, class)];
            c.checked += 1;
            if out[..size * size]
                .iter()
                .map(|v| v.to_bits())
                .ne(want.iter().copied())
            {
                eprintln!("  serve: output mismatch for app {a}, tier {t}, size {size}");
                c.mismatched += 1;
            }
            self.fleet.slots[member].push(slot);
        }
        Ok(c)
    }
}
