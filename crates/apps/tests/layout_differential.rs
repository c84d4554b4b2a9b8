//! Layout-axis differential over the whole registry: a prefetch layout is
//! a pure *performance* knob. Burst-tiled prefetch changes where elements
//! are fetched from (the packed group-major copy instead of the strided
//! row-major image) and systolic shift changes who fetches halo rows
//! (the neighboring group's tile instead of DRAM) — neither may change a
//! single output bit, for any registered workload.

use kp_apps::suite;
use kp_core::{run_app, ApproxConfig, ImageInput, PrefetchLayout, RunSpec, WorkloadRef};
use kp_data::hotspot;
use kp_gpu_sim::{Device, DeviceConfig, LaunchStats};

const SIZE: usize = 64;

/// Input data for one registry entry (hotspot needs its aux power grid).
fn input_data(needs_aux: bool) -> (Vec<f32>, Option<Vec<f32>>) {
    if needs_aux {
        let hs = hotspot::hotspot_input(SIZE, 3);
        (
            hs.temperature.as_slice().to_vec(),
            Some(hs.power.as_slice().to_vec()),
        )
    } else {
        (
            kp_data::synth::photo_like(SIZE, SIZE, 0x1A70)
                .as_slice()
                .to_vec(),
            None,
        )
    }
}

fn run_layout(
    dev: &mut Device,
    workload: WorkloadRef,
    data: &[f32],
    aux: Option<&[f32]>,
    config: ApproxConfig,
) -> (Vec<f32>, f64, LaunchStats) {
    let input = ImageInput::with_aux(data, aux, SIZE, SIZE).unwrap();
    let run = run_app(dev, workload, &input, &RunSpec::Perforated(config)).unwrap();
    (run.output, run.report.seconds, run.report.stats)
}

/// Burst-tiled prefetch is bit-identical to the strided layout for every
/// stencil app in the registry — including the full-tile Accurate select
/// and a perforated select — and its DRAM burst continuations are counted.
#[test]
fn burst_layout_is_bit_identical_for_every_app() {
    let mut dev = Device::new(DeviceConfig::firepro_w5100()).unwrap();
    for entry in suite::evaluation_apps()
        .into_iter()
        .chain(suite::extension_apps())
    {
        let (data, aux) = input_data(entry.needs_aux);
        for config in [
            ApproxConfig::accurate((16, 16)),
            ApproxConfig::cols1_nn((16, 16)),
        ] {
            let (strided, _, _) =
                run_layout(&mut dev, entry.workload, &data, aux.as_deref(), config);
            let (burst, _, stats) = run_layout(
                &mut dev,
                entry.workload,
                &data,
                aux.as_deref(),
                config.with_layout(PrefetchLayout::BurstTiled),
            );
            assert_eq!(
                strided,
                burst,
                "{}: burst-tiled output diverged for {}",
                entry.name,
                RunSpec::Perforated(config).label()
            );
            // Column selection touches every row of the packed tile, so
            // the contiguous copy must produce burst continuations even
            // on a preset (price-neutral) device.
            assert!(
                stats.dram_read_burst_transactions > 0,
                "{}: no burst continuations counted",
                entry.name
            );
        }
    }
}

/// The non-stencil workloads run the same differential through their own
/// cooperative prefetch path.
#[test]
fn burst_layout_is_bit_identical_for_region_workloads() {
    let mut dev = Device::new(DeviceConfig::firepro_w5100()).unwrap();
    let data = kp_data::synth::photo_like(SIZE, SIZE, 0x1A71)
        .as_slice()
        .to_vec();
    for entry in suite::extension_workloads() {
        let config = ApproxConfig::cols1_nn((16, 16));
        let (strided, _, _) = run_layout(&mut dev, entry.workload, &data, None, config);
        let (burst, _, _) = run_layout(
            &mut dev,
            entry.workload,
            &data,
            None,
            config.with_layout(PrefetchLayout::BurstTiled),
        );
        assert_eq!(
            strided, burst,
            "{}: burst-tiled output diverged",
            entry.name
        );
    }
}

/// The layout pays where it should: on a burst-discounted device, the
/// burst-tiled layout of the bandwidth-bound RegionSum reduction (its load
/// phase dominates) stays bit-identical to the strided layout and is
/// faster in simulated time — at least 1.1× for the full-tile Accurate
/// select and never slower for Cols1:NN. Simulated seconds are
/// deterministic, so these bounds hold on any host.
#[test]
fn burst_layout_pays_on_bandwidth_bound_regionsum() {
    let regionsum = suite::workload_by_name("regionsum").unwrap().workload;
    let data = kp_data::synth::photo_like(SIZE, SIZE, 0x1A73)
        .as_slice()
        .to_vec();
    let mut dev = Device::new(DeviceConfig::firepro_w5100().with_burst_discount(8)).unwrap();
    for (config, min_ratio) in [
        (ApproxConfig::accurate((16, 16)), 1.1),
        (ApproxConfig::cols1_nn((16, 16)), 1.0),
    ] {
        let label = RunSpec::Perforated(config).label();
        let (strided, strided_seconds, _) = run_layout(&mut dev, regionsum, &data, None, config);
        let (burst, burst_seconds, _) = run_layout(
            &mut dev,
            regionsum,
            &data,
            None,
            config.with_layout(PrefetchLayout::BurstTiled),
        );
        assert_eq!(strided, burst, "{label}: burst-tiled regionsum diverged");
        let ratio = strided_seconds / burst_seconds;
        assert!(
            ratio >= min_ratio,
            "{label}: strided/burst simulated seconds {ratio:.3} below {min_ratio}"
        );
    }
}

/// Systolic shift ≡ re-fetch: for every halo-carrying app, halo rows
/// handed over from the neighboring group's tile are bit-identical to
/// rows re-fetched from DRAM (the same-snapshot contract), and the
/// handoff path really ran (shifted elements counted).
#[test]
fn systolic_layout_is_bit_identical_and_actually_shifts() {
    let mut dev = Device::new(DeviceConfig::firepro_w5100()).unwrap();
    let mut tested = 0usize;
    for entry in suite::evaluation_apps()
        .into_iter()
        .chain(suite::extension_apps())
    {
        if entry.app.halo() == 0 {
            continue; // nothing to shift (and the spec rejects it)
        }
        tested += 1;
        let (data, aux) = input_data(entry.needs_aux);
        let config = ApproxConfig::rows1_nn((16, 16));
        let (strided, _, _) = run_layout(&mut dev, entry.workload, &data, aux.as_deref(), config);
        let (systolic, _, stats) = run_layout(
            &mut dev,
            entry.workload,
            &data,
            aux.as_deref(),
            config.with_layout(PrefetchLayout::SystolicShift),
        );
        assert_eq!(
            strided, systolic,
            "{}: systolic output diverged from re-fetch",
            entry.name
        );
        assert!(
            stats.shifted_elements > 0,
            "{}: systolic run shifted nothing",
            entry.name
        );
    }
    assert!(tested >= 4, "registry lost its halo-carrying apps");
}

/// The burst discount is the charge-model half of the layout axis: on a
/// discounted device the burst-tiled layout must be strictly faster in
/// simulated time, while preset (neutral) pricing keeps any existing
/// row-major timing untouched.
#[test]
fn burst_discount_moves_simulated_seconds() {
    let entry = suite::by_name("gaussian").unwrap();
    let data = kp_data::synth::photo_like(SIZE, SIZE, 0x1A72)
        .as_slice()
        .to_vec();
    let config = ApproxConfig::cols1_nn((16, 16));
    let mut neutral = Device::new(DeviceConfig::firepro_w5100()).unwrap();
    let mut discounted = Device::new(DeviceConfig::firepro_w5100().with_burst_discount(8)).unwrap();
    let burst = config.with_layout(PrefetchLayout::BurstTiled);
    let (_, strided_seconds, _) = run_layout(&mut discounted, entry.workload, &data, None, config);
    let (_, burst_seconds, _) = run_layout(&mut discounted, entry.workload, &data, None, burst);
    assert!(
        burst_seconds < strided_seconds,
        "burst {burst_seconds} not faster than strided {strided_seconds} under the discount"
    );
    // The discount only ever cheapens burst continuations, so it can
    // never make a run slower — not even the strided one (halo-padded
    // rows straddle DRAM blocks, so strided loads burst a little too).
    let (_, neutral_strided, _) = run_layout(&mut neutral, entry.workload, &data, None, config);
    assert!(
        strided_seconds <= neutral_strided,
        "the burst discount made the strided run slower: {strided_seconds} > {neutral_strided}"
    );
}
