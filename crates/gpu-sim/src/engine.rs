//! The parallel deterministic launch engine.
//!
//! Work groups are independent between barriers: each owns its local-memory
//! arena, and inter-group communication through global memory within one
//! launch is undefined behavior on real hardware (OpenCL gives no ordering
//! between groups). The engine exploits exactly that freedom:
//!
//! * every group executes against a **read-only snapshot** of global
//!   memory, recording its stores into a per-group [`WriteLog`] (reads
//!   observe the group's own earlier writes through the log's overlay,
//!   preserving intra-group read-after-write),
//! * groups are sharded across scoped worker threads in contiguous chunks,
//! * write logs, statistics, cycle accounting and fault logs are reduced
//!   **in row-major group order**, so the result is bit-identical no matter
//!   how many workers ran.
//!
//! The geometry of a launch (group/item coordinate lists, wavefront and
//! coalescing-granule assignments) is immutable per [`NdRange`] and device
//! configuration; [`LaunchPlan`] captures it once and `Device` caches plans
//! keyed on the range, so sweeps re-launching the same geometry skip the
//! setup entirely.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::buffer::RawBuffer;
use crate::config::{DeviceConfig, ExecMode};
use crate::error::SimError;
use crate::kernel::{
    AccessMask, FaultLog, ItemCtx, Kernel, KernelScratch, LaneSlot, PhaseProfile, WaveCtx,
};
use crate::local::{LocalArena, LocalSpec};
use crate::ndrange::NdRange;
use crate::stats::{LaunchReport, LaunchStats, Occupancy, TimingBreakdown};
use crate::timing;

/// The device's buffer table: one slot per lifetime allocation. Slots hold
/// `Arc`s so that launches can execute against a cheap snapshot (a clone of
/// the table, not of the data) while the device stays free to apply other
/// commands' writes copy-on-write.
pub(crate) type BufTable = Vec<Option<Arc<RawBuffer>>>;

/// Precomputed per-launch geometry, cached per [`NdRange`].
#[derive(Debug)]
pub(crate) struct LaunchPlan {
    pub range: NdRange,
    /// All work-group coordinates in row-major order.
    pub group_coords: Vec<[usize; 3]>,
    /// All local work-item coordinates of one group in row-major order.
    pub local_coords: Vec<[usize; 3]>,
    /// Wavefront id of each local item (index-aligned with `local_coords`).
    pub wf_of: Vec<u32>,
    /// Memory coalescing granule of each local item (quarter-wavefront on
    /// GCN-class configurations).
    pub granule_of: Vec<u32>,
}

impl LaunchPlan {
    pub fn new(cfg: &DeviceConfig, range: NdRange) -> Self {
        let group_coords: Vec<[usize; 3]> = range.group_coords().collect();
        let local_coords: Vec<[usize; 3]> = range.local_coords().collect();
        let wf_of: Vec<u32> = local_coords
            .iter()
            .map(|&c| (range.flatten_local(c) / cfg.wavefront_size) as u32)
            .collect();
        let granule_of: Vec<u32> = local_coords
            .iter()
            .map(|&c| (range.flatten_local(c) / cfg.coalesce_width) as u32)
            .collect();
        Self {
            range,
            group_coords,
            local_coords,
            wf_of,
            granule_of,
        }
    }
}

/// Small bounded cache of launch plans. The device configuration is fixed
/// for the lifetime of a `Device`, so the range alone is the key.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    plans: HashMap<NdRange, Arc<LaunchPlan>>,
}

impl PlanCache {
    /// A sweep touches a handful of geometries; anything past this is
    /// pathological and we just start over rather than tracking LRU order.
    const CAPACITY: usize = 64;

    pub fn get(&mut self, cfg: &DeviceConfig, range: NdRange) -> Arc<LaunchPlan> {
        if let Some(plan) = self.plans.get(&range) {
            return Arc::clone(plan);
        }
        if self.plans.len() >= Self::CAPACITY {
            self.plans.clear();
        }
        let plan = Arc::new(LaunchPlan::new(cfg, range));
        self.plans.insert(range, Arc::clone(&plan));
        plan
    }
}

/// Multiply-shift hasher for the write-log overlay keys (pre-mixed u64
/// keys; SipHash would dominate the read path).
#[derive(Debug, Default)]
pub(crate) struct FxHasher64 {
    state: u64,
}

impl Hasher for FxHasher64 {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.state = (self.state ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.state ^= self.state >> 32;
    }
}

/// One logged global-memory store. Kept at 16 bytes — a big launch holds
/// one entry per store until the logs are replayed, so entry size bounds
/// the engine's transient memory. `u32` element indices are sufficient:
/// the largest allocatable buffer (whole global memory as single bytes)
/// stays below 2^32 elements.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WriteEntry {
    /// Buffer slot index (validated at record time).
    pub slot: u32,
    /// Element index within the buffer.
    pub index: u32,
    /// Stored bit pattern.
    pub bits: u64,
}

/// Per-group log of global-memory stores with an overlay index.
///
/// Stores append to `entries` in program order (replaying them in order
/// reproduces serial last-write-wins semantics exactly) and update the
/// overlay map so later reads by the *same group* observe them. `dirty`
/// tracks which buffer slots have any logged store, letting the hot read
/// path skip the map probe for never-written buffers (the common case:
/// stencil kernels read inputs and write a disjoint output).
#[derive(Debug, Default)]
pub(crate) struct WriteLog {
    entries: Vec<WriteEntry>,
    overlay: HashMap<u64, u64, BuildHasherDefault<FxHasher64>>,
    dirty: Vec<bool>,
}

impl WriteLog {
    fn key(slot: u32, index: usize) -> u64 {
        // Buffer count < 2^24 and element index < 2^40 (a 3.5 GB device
        // holds < 2^30 four-byte elements), so the pair packs into 64 bits.
        debug_assert!(index < (1 << 40), "element index exceeds packed key");
        (u64::from(slot) << 40) | index as u64
    }

    /// Prepares the log for a group, sizing the dirty map to `nbufs`.
    pub fn reset(&mut self, nbufs: usize) {
        self.entries.clear();
        self.overlay.clear();
        self.dirty.clear();
        self.dirty.resize(nbufs, false);
    }

    /// Records a store. Indices fit `u32` by construction: `Device::alloc`
    /// rejects buffers with more than `u32::MAX` elements and stores are
    /// bounds-checked against the buffer before being recorded.
    pub fn record(&mut self, slot: usize, index: usize, bits: u64) {
        let slot32 = slot as u32;
        debug_assert!(u32::try_from(index).is_ok(), "element index exceeds u32");
        self.entries.push(WriteEntry {
            slot: slot32,
            index: index as u32,
            bits,
        });
        self.overlay.insert(Self::key(slot32, index), bits);
        self.dirty[slot] = true;
    }

    /// The latest store to `(slot, index)`, if this group made one.
    #[inline]
    pub fn lookup(&self, slot: usize, index: usize) -> Option<u64> {
        if !self.dirty[slot] {
            return None;
        }
        self.overlay.get(&Self::key(slot as u32, index)).copied()
    }

    /// Moves the entries out (used to keep parallel group results alive
    /// after their worker's scratch state is reused).
    pub fn take_entries(&mut self) -> Vec<WriteEntry> {
        std::mem::take(&mut self.entries)
    }
}

/// Replays logged stores into the backing buffers, in program order (later
/// entries overwrite earlier ones, reproducing serial last-write-wins).
///
/// Targets are written copy-on-write: a buffer whose `Arc` is still shared
/// (a concurrently executing command holds it in its snapshot) is cloned
/// once, so snapshots never observe partial replays.
pub(crate) fn apply_writes(entries: &[WriteEntry], bufs: &mut BufTable) {
    for e in entries {
        let slot = bufs[e.slot as usize]
            .as_mut()
            .expect("write target validated at record time");
        Arc::make_mut(slot).data[e.index as usize] = e.bits;
    }
}

/// Everything one group's execution produced, in reducible form.
#[derive(Debug, Default)]
pub(crate) struct GroupOutcome {
    pub writes: Vec<WriteEntry>,
    pub stats: LaunchStats,
    pub timing: TimingBreakdown,
    pub faults: FaultLog,
}

/// Per-worker scratch state, reused across the groups of one shard.
///
/// `kernel` is the worker's [`KernelScratch`]: engine-owned storage that
/// stateful kernels reach through [`ItemCtx::kernel_scratch`] instead of
/// keeping (and locking) their own cross-thread state. Each worker owns
/// exactly one, and a worker runs its groups to completion one at a time,
/// so kernels can use it lock-free.
pub(crate) struct WorkerScratch {
    pub arena: LocalArena,
    pub profile: Option<PhaseProfile>,
    pub log: WriteLog,
    pub kernel: KernelScratch,
}

impl WorkerScratch {
    pub fn new(
        kernel_locals: &[crate::local::LocalSpec],
        waves_per_group: usize,
        profiling: bool,
    ) -> Self {
        Self {
            arena: LocalArena::new(kernel_locals),
            profile: profiling.then(|| PhaseProfile::new(waves_per_group)),
            log: WriteLog::default(),
            kernel: KernelScratch::default(),
        }
    }
}

/// Executes one work group against the global-memory snapshot `bufs`,
/// returning its write log, statistics and cycle accounting.
///
/// This is the single execution path shared by the serial and parallel
/// frontends in [`crate::Device`] and by the command-queue scheduler: the
/// only difference between them is *when* the returned write log is applied
/// to the backing buffers. `mask` carries the launch's declared buffer
/// usage, if any — accesses outside it fault deterministically (see
/// [`crate::Kernel::buffer_usage`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_group<K: Kernel + ?Sized>(
    kernel: &K,
    phases: usize,
    cfg: &DeviceConfig,
    plan: &LaunchPlan,
    bufs: &BufTable,
    mask: Option<&AccessMask>,
    group: [usize; 3],
    scratch: &mut WorkerScratch,
) -> GroupOutcome {
    let mut stats = LaunchStats::default();
    let mut breakdown = TimingBreakdown::default();
    let mut faults = FaultLog::default();

    scratch.arena.reset();
    scratch.log.reset(bufs.len());
    // The path is chosen per kernel: one with a lane-batched path runs in
    // lockstep waves under the compiled strategy; every other kernel, and
    // every kernel under the interpreted reference, runs item by item.
    let waves = cfg.exec_mode == ExecMode::Compiled && kernel.lane_batched();
    let mut group_cycles = cfg.group_dispatch_cycles;
    for phase in 0..phases {
        if let Some(p) = scratch.profile.as_mut() {
            p.reset_phase();
        }
        if waves {
            run_phase_waves(
                kernel,
                phase,
                cfg,
                plan,
                bufs,
                mask,
                group,
                scratch,
                &mut faults,
            );
        } else {
            for (li, &local) in plan.local_coords.iter().enumerate() {
                let mut ctx = ItemCtx {
                    range: &plan.range,
                    cfg,
                    group,
                    local,
                    phase,
                    wavefront: plan.wf_of[li],
                    granule: plan.granule_of[li],
                    bufs,
                    access: mask,
                    writes: &mut scratch.log,
                    arena: &mut scratch.arena,
                    profile: scratch.profile.as_mut(),
                    faults: &mut faults,
                    scratch: &mut scratch.kernel,
                    local_seq: 0,
                    global_seq: 0,
                    item_ops: 0,
                };
                kernel.run_phase(phase, &mut ctx);
                let item_ops = ctx.item_ops;
                if let Some(p) = scratch.profile.as_mut() {
                    let wf = plan.wf_of[li] as usize;
                    p.wf_max_ops[wf] = p.wf_max_ops[wf].max(item_ops);
                }
            }
        }
        if let Some(p) = scratch.profile.as_mut() {
            let mem = p.coalesce.finish_phase();
            let banks = p.banks.finish_phase();
            let cost = timing::phase_cost(cfg, &mem, &banks, &p.wf_max_ops, p.shifted_elements);
            stats.global_read_transactions += mem.read_transactions;
            stats.global_write_transactions += mem.write_transactions;
            stats.dram_read_transactions += mem.dram_read_transactions;
            stats.dram_write_transactions += mem.dram_write_transactions;
            stats.dram_read_burst_transactions += mem.dram_read_burst_transactions;
            stats.dram_write_burst_transactions += mem.dram_write_burst_transactions;
            stats.shifted_elements += p.shifted_elements;
            stats.global_bytes_requested += mem.bytes_requested;
            stats.global_bytes_transferred += mem.bytes_transferred(cfg.transaction_bytes);
            stats.global_element_reads += mem.element_reads;
            stats.global_element_writes += mem.element_writes;
            stats.local_accesses += banks.accesses;
            stats.local_steps += banks.steps;
            stats.local_conflict_steps += banks.conflict_steps();
            stats.alu_ops += p.wf_max_ops.iter().sum::<u64>();
            breakdown.memory_cycles += cost.memory_cycles;
            breakdown.compute_cycles += cost.alu_cycles + cost.local_cycles;
            group_cycles += cost.critical_path();
        }
    }
    let barriers = cfg.barrier_cycles * (phases as u64 - 1);
    breakdown.overhead_cycles += barriers + cfg.group_dispatch_cycles;
    group_cycles += barriers;
    breakdown.group_cycles_total += group_cycles;
    // Local memory tracks uninitialized reads independently of profiling
    // (it is a correctness signal, not a performance counter).
    stats.uninit_local_reads = scratch.arena.uninit_reads;

    GroupOutcome {
        writes: scratch.log.take_entries(),
        stats,
        timing: breakdown,
        faults,
    }
}

/// Runs one phase of one group in lockstep waves of one simulated
/// wavefront each ([`DeviceConfig::wavefront_size`] work items; the
/// lane-batched path of [`run_group`]). Waves cover the group's flat item
/// ids in row-major chunks — the last wave is a shorter *tail* when the
/// group size is not a multiple of the wavefront size — and after each
/// wave the per-lane fault buffers are merged into the group log in lane
/// order, so the log is identical to the one the item loop records.
#[allow(clippy::too_many_arguments)]
fn run_phase_waves<K: Kernel + ?Sized>(
    kernel: &K,
    phase: usize,
    cfg: &DeviceConfig,
    plan: &LaunchPlan,
    bufs: &BufTable,
    mask: Option<&AccessMask>,
    group: [usize; 3],
    scratch: &mut WorkerScratch,
    faults: &mut FaultLog,
) {
    let lanes = cfg.wavefront_size;
    let mut slots: Vec<LaneSlot> = Vec::with_capacity(lanes);
    for (wave_idx, chunk) in plan.local_coords.chunks(lanes).enumerate() {
        let base = wave_idx * lanes;
        slots.clear();
        slots.extend(chunk.iter().enumerate().map(|(j, &local)| LaneSlot {
            local,
            wavefront: plan.wf_of[base + j],
            granule: plan.granule_of[base + j],
            ..LaneSlot::default()
        }));
        let mut wave = WaveCtx {
            range: &plan.range,
            cfg,
            group,
            phase,
            bufs,
            access: mask,
            writes: &mut scratch.log,
            arena: &mut scratch.arena,
            profile: scratch.profile.as_mut(),
            scratch: &mut scratch.kernel,
            slots: &mut slots,
            base_flat: base,
        };
        kernel.run_phase_wave(phase, &mut wave);
        for (j, slot) in slots.iter_mut().enumerate() {
            faults.merge(std::mem::take(&mut slot.faults));
            if let Some(p) = scratch.profile.as_mut() {
                let wf = plan.wf_of[base + j] as usize;
                p.wf_max_ops[wf] = p.wf_max_ops[wf].max(slot.item_ops);
            }
        }
    }
}

/// Validated, precomputed launch parameters shared by every launch
/// frontend: the blocking shims, the serial reference and the queue
/// scheduler.
#[derive(Debug)]
pub(crate) struct LaunchSetup {
    pub local_specs: Vec<LocalSpec>,
    pub phases: usize,
    pub occ: Occupancy,
}

/// Runs every group of a launch one at a time on the calling thread,
/// applying each group's writes to the (private) `snapshot` before the
/// next group starts. This reproduces the legacy serial semantics exactly:
/// even (non-deterministic on real hardware) cross-group dependencies
/// observe the row-major order. Returns the per-group outcomes plus the
/// concatenated write entries, ready to replay onto the device's backing
/// buffers.
pub(crate) fn execute_groups_serial<K: Kernel + ?Sized>(
    kernel: &K,
    cfg: &DeviceConfig,
    plan: &LaunchPlan,
    setup: &LaunchSetup,
    snapshot: &mut BufTable,
    profiling: bool,
    mask: Option<&AccessMask>,
) -> (Vec<GroupOutcome>, Vec<WriteEntry>) {
    let mut scratch = WorkerScratch::new(&setup.local_specs, setup.occ.waves_per_group, profiling);
    let mut outcomes = Vec::with_capacity(plan.group_coords.len());
    let mut entries = Vec::new();
    for &group in &plan.group_coords {
        let mut outcome = run_group(
            kernel,
            setup.phases,
            cfg,
            plan,
            snapshot,
            mask,
            group,
            &mut scratch,
        );
        let writes = std::mem::take(&mut outcome.writes);
        apply_writes(&writes, snapshot);
        entries.extend(writes);
        outcomes.push(outcome);
    }
    (outcomes, entries)
}

/// Runs the row-major span `lo..hi` of a launch's groups, sharded over
/// `workers` scoped threads against the read-only `snapshot`. This is the
/// primitive a [`crate::DeviceGroup`] shards one launch across member
/// devices with: each member executes a contiguous span, and concatenating
/// the spans in device order restores full row-major group order —
/// bit-identical to one device running the whole span `0..n`, because
/// per-group execution never observes which span (or device) it ran in.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_groups_span<K: Kernel + Sync + ?Sized>(
    kernel: &K,
    cfg: &DeviceConfig,
    plan: &LaunchPlan,
    setup: &LaunchSetup,
    snapshot: &BufTable,
    profiling: bool,
    workers: usize,
    mask: Option<&AccessMask>,
    lo: usize,
    hi: usize,
) -> (Vec<GroupOutcome>, Vec<WriteEntry>) {
    let groups = &plan.group_coords[lo..hi];
    // Contiguous shards keep the group -> worker assignment, and thus
    // every worker-local accumulation, independent of scheduling.
    let chunk = groups.len().div_ceil(workers.max(1)).max(1);
    let phases = setup.phases;
    let sharded: Vec<Vec<GroupOutcome>> = std::thread::scope(|s| {
        let handles: Vec<_> = groups
            .chunks(chunk)
            .map(|shard| {
                let local_specs = &setup.local_specs;
                s.spawn(move || {
                    let mut scratch =
                        WorkerScratch::new(local_specs, setup.occ.waves_per_group, profiling);
                    shard
                        .iter()
                        .map(|&group| {
                            run_group(
                                kernel,
                                phases,
                                cfg,
                                plan,
                                snapshot,
                                mask,
                                group,
                                &mut scratch,
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("launch worker panicked"))
            .collect()
    });
    let mut outcomes = Vec::with_capacity(groups.len());
    let mut entries = Vec::new();
    for mut outcome in sharded.into_iter().flatten() {
        entries.extend(std::mem::take(&mut outcome.writes));
        outcomes.push(outcome);
    }
    (outcomes, entries)
}

/// Folds per-group outcomes (visited in row-major group order) into the
/// final report, or the fault error. Write application is the caller's
/// business — buffers may be partially written when this returns
/// [`SimError::KernelFaults`], matching real-GPU behavior.
pub(crate) fn reduce_outcomes(
    kernel_name: &str,
    cfg: &DeviceConfig,
    profiling: bool,
    range: &NdRange,
    setup: &LaunchSetup,
    outcomes: impl IntoIterator<Item = GroupOutcome>,
) -> Result<LaunchReport, SimError> {
    let mut stats = LaunchStats::default();
    let mut breakdown = TimingBreakdown::default();
    let mut faults = FaultLog::default();
    let mut groups = 0usize;
    for outcome in outcomes {
        groups += 1;
        stats.accumulate(&outcome.stats);
        breakdown.memory_cycles += outcome.timing.memory_cycles;
        breakdown.compute_cycles += outcome.timing.compute_cycles;
        breakdown.overhead_cycles += outcome.timing.overhead_cycles;
        breakdown.group_cycles_total += outcome.timing.group_cycles_total;
        faults.merge(outcome.faults);
    }
    debug_assert_eq!(groups, range.num_groups_total());

    if profiling {
        breakdown.device_cycles =
            timing::device_cycles(cfg, &setup.occ, breakdown.group_cycles_total);
    } else {
        // Without profiling no memory/ALU accounting happened, so a
        // partial cycle count would be misleading; report zero time —
        // but keep the uninitialized-read counter, which is a
        // correctness signal tracked independently of profiling.
        let uninit = stats.uninit_local_reads;
        stats = LaunchStats::default();
        stats.uninit_local_reads = uninit;
        breakdown = TimingBreakdown::default();
    }

    if !faults.is_empty() {
        return Err(SimError::KernelFaults {
            kernel: kernel_name.to_owned(),
            faults: faults.faults,
            total: faults.total,
        });
    }

    let mut report = LaunchReport {
        kernel: kernel_name.to_owned(),
        groups,
        phases: setup.phases,
        profiled: profiling,
        stats,
        timing: breakdown,
        occupancy: setup.occ,
        seconds: 0.0,
    };
    report.finalize(cfg);
    Ok(report)
}

/// Resolves a parallelism knob to a concrete worker count
/// (`0` = one per available core). Shared policy for the launch engine,
/// the persistent command-queue worker pool and host-side harnesses
/// (the `repro` harness's parallel map).
///
/// The `KP_SIM_PARALLELISM` environment variable, when set to a positive
/// integer, overrides the *auto* resolution (`requested == 0`) only — CI
/// uses it to force wide queue/engine schedules onto single-core runners
/// so scheduling races cannot hide there. Explicit worker counts are never
/// overridden.
pub fn resolve_parallelism(requested: usize) -> usize {
    if requested == 0 {
        static OVERRIDE: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
        let forced =
            OVERRIDE.get_or_init(|| parse_env_override(std::env::var("KP_SIM_PARALLELISM").ok()));
        if let Some(n) = forced {
            return *n;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Resolves a [`crate::DeviceConfig::devices`] group-size knob to a
/// concrete member-device count (`0` = auto).
///
/// The `KP_SIM_DEVICES` environment variable, when set to a positive
/// integer, overrides the *auto* resolution (`requested == 0`) only — the
/// exact policy [`resolve_parallelism`] applies to `KP_SIM_PARALLELISM`.
/// Explicit counts are never overridden. Without an override, auto
/// resolves to **1** (a single device), not the core count: member
/// devices each own a worker pool already, so defaulting the fleet size
/// to the host width would square the thread count.
pub fn resolve_devices(requested: usize) -> usize {
    if requested == 0 {
        static OVERRIDE: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
        let forced =
            OVERRIDE.get_or_init(|| parse_env_override(std::env::var("KP_SIM_DEVICES").ok()));
        forced.unwrap_or(1)
    } else {
        requested
    }
}

/// Shared parse policy behind the `KP_SIM_PARALLELISM` and
/// `KP_SIM_DEVICES` environment overrides: a positive integer wins,
/// anything else (unset, non-numeric, zero) is ignored. Split out of the
/// `OnceLock` wrappers so precedence is unit-testable without mutating
/// the process environment.
fn parse_env_override(raw: Option<String>) -> Option<usize> {
    raw.and_then(|v| v.parse::<usize>().ok()).filter(|&n| n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn write_log_overlay_reads_back_latest() {
        let mut log = WriteLog::default();
        log.reset(2);
        assert_eq!(log.lookup(0, 3), None);
        log.record(0, 3, 7);
        log.record(0, 3, 9);
        assert_eq!(log.lookup(0, 3), Some(9));
        assert_eq!(log.lookup(0, 4), None);
        assert_eq!(log.lookup(1, 3), None);
    }

    #[test]
    fn write_log_reset_clears_state() {
        let mut log = WriteLog::default();
        log.reset(1);
        log.record(0, 0, 1);
        log.reset(1);
        assert_eq!(log.lookup(0, 0), None);
        assert!(log.take_entries().is_empty());
    }

    #[test]
    fn write_log_apply_replays_in_order() {
        let mut log = WriteLog::default();
        log.reset(1);
        log.record(0, 1, 11);
        log.record(0, 1, 22); // later store wins
        let mut bufs: BufTable = vec![Some(Arc::new(RawBuffer {
            kind: crate::buffer::ElemKind::F32,
            data: vec![0; 4],
            base_addr: 0,
            label: "".into(),
        }))];
        apply_writes(&log.take_entries(), &mut bufs);
        assert_eq!(bufs[0].as_ref().unwrap().data[1], 22);
    }

    #[test]
    fn plan_cache_reuses_plans() {
        let cfg = DeviceConfig::test_tiny();
        let mut cache = PlanCache::default();
        let r = NdRange::new_1d(64, 16).unwrap();
        let a = cache.get(&cfg, r);
        let b = cache.get(&cfg, r);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.group_coords.len(), 4);
        assert_eq!(a.local_coords.len(), 16);
    }

    #[test]
    fn plan_assigns_wavefronts_row_major() {
        let cfg = DeviceConfig::test_tiny(); // wavefront 4, granule 4
        let plan = LaunchPlan::new(&cfg, NdRange::new_1d(16, 8).unwrap());
        assert_eq!(plan.wf_of, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(plan.granule_of, plan.wf_of);
    }

    #[test]
    fn resolve_parallelism_zero_is_auto() {
        assert!(resolve_parallelism(0) >= 1);
        assert_eq!(resolve_parallelism(5), 5);
    }

    /// Pins the precedence contract of the `KP_SIM_PARALLELISM` /
    /// `KP_SIM_DEVICES` overrides: an explicit `DeviceConfig` knob is never
    /// overridden (the `requested != 0` arm never consults the
    /// environment), and the override itself only accepts positive
    /// integers. The parse policy is tested directly because the resolver
    /// caches the environment in a `OnceLock` at first use.
    #[test]
    fn env_override_parse_policy() {
        assert_eq!(parse_env_override(Some("6".into())), Some(6));
        assert_eq!(parse_env_override(Some("0".into())), None);
        assert_eq!(parse_env_override(Some("-2".into())), None);
        assert_eq!(parse_env_override(Some("eight".into())), None);
        assert_eq!(parse_env_override(Some("".into())), None);
        assert_eq!(parse_env_override(None), None);
        // Explicit knobs win regardless of what the environment says.
        assert_eq!(resolve_parallelism(3), 3);
        assert_eq!(resolve_devices(5), 5);
    }

    /// Records which entry point the engine drove, and the lane count of
    /// every wave it was handed.
    #[derive(Default)]
    struct Probe {
        batched: bool,
        items: AtomicUsize,
        waves: Mutex<Vec<usize>>,
    }

    impl Kernel for Probe {
        fn name(&self) -> &str {
            "probe"
        }

        fn lane_batched(&self) -> bool {
            self.batched
        }

        fn run_phase(&self, _phase: usize, _ctx: &mut ItemCtx<'_>) {
            self.items.fetch_add(1, Ordering::Relaxed);
        }

        fn run_phase_wave(&self, _phase: usize, wave: &mut WaveCtx<'_>) {
            assert!(self.batched, "a per-item kernel reached run_phase_wave");
            self.waves.lock().expect("probe lock").push(wave.lanes());
        }
    }

    impl Probe {
        fn seen(&self) -> (usize, Vec<usize>) {
            let items = self.items.swap(0, Ordering::Relaxed);
            (
                items,
                std::mem::take(&mut *self.waves.lock().expect("probe lock")),
            )
        }
    }

    #[test]
    fn only_lane_batched_kernels_run_in_waves_of_one_wavefront() {
        // test_tiny has 4-wide wavefronts: each 10-item group splits into
        // waves of 4 and 4 lanes plus a 2-lane tail.
        let range = NdRange::new_1d(20, 10).unwrap();
        let launch = |kernel: &(dyn Kernel + Sync), mode: ExecMode| {
            let mut dev = crate::Device::new(DeviceConfig::test_tiny()).unwrap();
            dev.set_exec_mode(mode);
            dev.launch(kernel, range).unwrap();
        };
        let waves = vec![4, 4, 2, 4, 4, 2];

        let per_item = Probe::default();
        for mode in [ExecMode::Compiled, ExecMode::Interpreted] {
            launch(&per_item, mode);
            assert_eq!(per_item.seen(), (20, vec![]), "{mode}");
        }

        let batched = Arc::new(Probe {
            batched: true,
            ..Probe::default()
        });
        launch(&*batched, ExecMode::Compiled);
        assert_eq!(batched.seen(), (0, waves.clone()));
        launch(&*batched, ExecMode::Interpreted);
        assert_eq!(batched.seen(), (20, vec![]));

        // A shared handle must forward the declaration, or an IR kernel
        // behind an `Arc` would silently fall back to the item loop.
        let shared: Arc<dyn Kernel + Send + Sync> = batched.clone();
        assert!(shared.lane_batched());
        launch(&shared, ExecMode::Compiled);
        assert_eq!(batched.seen(), (0, waves));
        assert!(!Arc::new(Probe::default()).lane_batched());
    }

    #[test]
    fn resolve_devices_zero_is_auto() {
        // Auto defaults to a single device (or the KP_SIM_DEVICES
        // override in CI's multi-device legs) — never zero.
        assert!(resolve_devices(0) >= 1);
        assert_eq!(resolve_devices(2), 2);
    }
}
