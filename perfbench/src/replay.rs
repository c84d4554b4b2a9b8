//! Helpers shared by the workloads' traced replays: the profiling on/off
//! replay behind `engine.accounting_frac`, and the deterministic
//! `sim.*` summary of a launch list.

use std::sync::Arc;

use kp_gpu_sim::{Device, Kernel, LaunchReport, NdRange};

use crate::stats;
use crate::Values;

/// A kernel bound to buffers of the replay device, with its range.
pub type Launch = (Arc<dyn Kernel + Send + Sync>, NdRange);

/// Execution seconds of one launch with profiling on and off.
#[derive(Debug, Default)]
pub struct OnOff {
    pub on: Vec<f64>,
    pub off: Vec<f64>,
    pub groups: usize,
}

/// Runs every launch twice on `dev`, profiling on then off, one at a time,
/// and collects `EventTiming::execution` of each.
pub fn profiling_on_off(dev: &mut Device, launches: &[Launch]) -> Result<OnOff, String> {
    let queue = dev.create_queue();
    let mut out = OnOff::default();
    for (kernel, range) in launches {
        for profiling in [true, false] {
            dev.set_profiling(profiling);
            let event = queue
                .enqueue_launch(Arc::clone(kernel), *range, &[])
                .map_err(|e| format!("replay enqueue: {e}"))?;
            event.wait().map_err(|e| format!("replay launch: {e}"))?;
            let exec = event
                .timing()
                .map_err(|e| format!("replay timing: {e}"))?
                .execution()
                .as_secs_f64();
            if profiling {
                out.on.push(exec);
            } else {
                out.off.push(exec);
            }
        }
        out.groups += range.num_groups_total();
    }
    dev.set_profiling(true);
    Ok(out)
}

impl OnOff {
    /// Share of profiled execution time spent in cost accounting.
    pub fn accounting_frac(&self) -> f64 {
        let on: f64 = self.on.iter().sum();
        let off: f64 = self.off.iter().sum();
        if on > 0.0 {
            1.0 - off / on
        } else {
            0.0
        }
    }
}

/// Engine metrics from per-launch execution seconds and total groups.
pub fn engine_values(exec_s: &[f64], groups: usize, values: &mut Values) {
    let ms: Vec<f64> = exec_s.iter().map(|s| s * 1e3).collect();
    values.insert("engine.exec_ms_p50", stats::percentile(&ms, 0.5));
    values.insert("engine.exec_ms_p99", stats::percentile(&ms, 0.99));
    if groups > 0 {
        values.insert(
            "engine.ns_per_group",
            exec_s.iter().sum::<f64>() * 1e9 / groups as f64,
        );
    }
}

/// The simulated model's split of a launch list. Every input is
/// deterministic, so these values repeat exactly for one seed.
pub fn sim_values(reports: &[&LaunchReport], values: &mut Values) {
    let n = reports.len().max(1) as f64;
    let sum = |f: &dyn Fn(&LaunchReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let memory = sum(&|r| r.timing.memory_cycles);
    let compute = sum(&|r| r.timing.compute_cycles);
    let overhead = sum(&|r| r.timing.overhead_cycles);
    let cycles = (memory + compute + overhead).max(1.0);
    let dram = sum(&|r| r.stats.dram_read_transactions).max(1.0);
    values.insert("sim.memory_frac", memory / cycles);
    values.insert("sim.compute_frac", compute / cycles);
    values.insert("sim.overhead_frac", overhead / cycles);
    values.insert(
        "sim.global_read_transactions",
        sum(&|r| r.stats.global_read_transactions) / n,
    );
    values.insert(
        "sim.dram_burst_frac",
        sum(&|r| r.stats.dram_read_burst_transactions) / dram,
    );
    values.insert(
        "sim.local_conflict_steps",
        sum(&|r| r.stats.local_conflict_steps) / n,
    );
    values.insert(
        "sim.kernel_us_per_req",
        reports.iter().map(|r| r.seconds).sum::<f64>() * 1e6 / n,
    );
}
