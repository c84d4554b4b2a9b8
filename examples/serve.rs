//! Perforation-as-a-service: a closed-loop serving demo on a
//! `DeviceGroup` with the non-blocking completion layer.
//!
//! A request generator admits a window of concurrent perforation jobs
//! (mixed apps, mixed error budgets), places each on the least-loaded
//! member, enqueues it on that member's command queue, and harvests
//! finished work through `Event::on_complete` callbacks feeding one
//! channel — no thread ever parks on an individual event. The repository benchmark's `serve` workload
//! (`perfbench/`, declared in `BENCHMARK.json`) measures this loop at
//! full scale, with tuning-cache admission and SLA adaptation.
//!
//! ```sh
//! cargo run --release --example serve
//! # or pick worker-pool width / fleet size from the environment:
//! KP_SIM_PARALLELISM=4 KP_SIM_DEVICES=2 cargo run --release --example serve
//! ```

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Instant;

use kernel_perforation::apps::suite;
use kernel_perforation::core::{ApproxConfig, ImageBinding, PerforatedKernel};
use kernel_perforation::data::synth;
use kernel_perforation::gpu_sim::{DeviceConfig, DeviceGroup, Event, NdRange};

const SIZE: usize = 64;
const REQUESTS: u64 = 200;
const INFLIGHT: usize = 16;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut group = DeviceGroup::new(DeviceConfig::firepro_w5100())?;
    let members = group.device_count();
    println!("serving on {members} member device(s), window of {INFLIGHT} in-flight requests");

    // One shared input frame (a group buffer: coherent fleet-wide, the
    // admission path migrates it on demand) and a pool of per-member
    // output slots so admitted requests never contend on a buffer.
    let frame = synth::photo_like(SIZE, SIZE, 0x5EED);
    let input = group.create_buffer_from("frame", frame.as_slice())?;
    let mut slots: Vec<Vec<_>> = Vec::new();
    for dev in group.members_mut() {
        let pool = (0..INFLIGHT)
            .map(|_| dev.create_buffer::<f32>("out", SIZE * SIZE))
            .collect::<Result<Vec<_>, _>>()?;
        slots.push(pool);
    }
    let queues: Vec<_> = (0..members).map(|m| group.create_queue(m)).collect();
    let range = NdRange::new_2d((SIZE, SIZE), (16, 16))?;

    // Mixed request stream: two apps, three error budgets. A real
    // service would map each caller's budget through tuner results; the
    // demo uses the paper's fig6-style scheme ladder directly.
    let apps = [
        suite::by_name("gaussian").unwrap(),
        suite::by_name("sobel3").unwrap(),
    ];
    let tiers = [
        ("accurate", ApproxConfig::accurate((16, 16))),
        ("Rows1:NN", ApproxConfig::rows1_nn((16, 16))),
        ("Rows2:NN", ApproxConfig::rows2_nn((16, 16))),
    ];

    let (tx, rx) = mpsc::channel();
    let mut pending: HashMap<u64, (Event, Instant, usize, _)> = HashMap::new();
    let mut admitted = 0u64;
    let mut completed = 0u64;
    let mut sim_seconds = 0.0f64;
    let started = Instant::now();

    while completed < REQUESTS {
        // Admission never waits on device work: place, make the frame
        // resident (usually a no-op), enqueue, register a callback.
        while pending.len() < INFLIGHT && admitted < REQUESTS {
            let req = admitted;
            admitted += 1;
            if req > 0 && req.is_multiple_of(50) {
                // Periodic frame refresh: the new content lands on one
                // member and stales the other copies, so a multi-member
                // fleet pays real (counted, priced) migrations.
                group.write_buffer(input, frame.as_slice())?;
            }
            let app = &apps[req as usize % apps.len()];
            let (_, config) = &tiers[req as usize % tiers.len()];
            let member = group.place();
            group.prefetch(input, member)?;
            let slot = slots[member].pop().expect("pool covers the window");
            let kernel = PerforatedKernel::new(
                app.app,
                ImageBinding {
                    input,
                    aux: None,
                    output: slot,
                    tiled: None,
                    width: SIZE,
                    height: SIZE,
                },
                *config,
            )?;
            let event = queues[member].enqueue_launch(kernel, range, &[])?;
            let tx = tx.clone();
            event.on_complete(move |result| {
                let _ = tx.send((req, result));
            });
            pending.insert(req, (event, Instant::now(), member, slot));
        }
        // Harvest: the drainer parks only when nothing is ready.
        let first = rx.recv().expect("requests in flight");
        for (req, result) in std::iter::once(first).chain(rx.try_iter()) {
            let (event, t0, member, slot) = pending.remove(&req).expect("tracked");
            result?;
            let report = event.wait_report()?; // settled: pure lookup
            sim_seconds += report.seconds;
            slots[member].push(slot);
            completed += 1;
            if completed.is_multiple_of(50) {
                println!(
                    "  {completed:4} done, last {:5.1} ms wall, {:9.5} ms simulated",
                    t0.elapsed().as_secs_f64() * 1e3,
                    report.seconds * 1e3
                );
            }
        }
    }

    let stats = group.stats();
    let cfg = group.member(0).config().clone();
    println!(
        "served {REQUESTS} requests in {:.2} s wall ({:.0} req/s)",
        started.elapsed().as_secs_f64(),
        REQUESTS as f64 / started.elapsed().as_secs_f64()
    );
    println!(
        "simulated cost: {:.3} ms kernels + {:.3} ms migrations ({} migrations)",
        sim_seconds * 1e3,
        stats.migration_seconds(&cfg) * 1e3,
        stats.migrations
    );
    Ok(())
}
