//! Device configuration: the architectural parameters of the simulated GPU.
//!
//! The timing model in [`crate::timing`] is analytic: it converts memory
//! transaction counts, local-memory traffic and ALU operation counts into
//! cycles using the parameters defined here. The default preset,
//! [`DeviceConfig::firepro_w5100`], approximates the AMD FirePro W5100
//! (GCN 1.1, 4 CUs… the real card has 12 CUs @ 930 MHz; we keep the
//! parameters in that family) used in the paper's evaluation.

use serde::{Deserialize, Serialize};

/// How interpreter-backed kernels execute their phases.
///
/// The simulator itself runs any [`crate::Kernel`] implementation; this
/// knob is advisory state for kernels that *have* more than one execution
/// strategy (notably `kp-ir`'s `IrKernel`, which compiles its AST to a
/// register bytecode at construction and keeps the tree-walking evaluator
/// as a differential reference). Hand-written Rust kernels ignore it.
///
/// Both modes are required to produce bit-identical outputs, statistics
/// and fault logs for race-free kernels (same-phase cross-item memory
/// races are undefined under the OpenCL barrier contract to begin with);
/// `Interpreted` exists for differential testing and as the known-good
/// reference when debugging the compiler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecMode {
    /// Execute compiled register bytecode. Kernels that declare a
    /// lane-batched path ([`crate::Kernel::lane_batched`]) run each phase
    /// in waves of [`DeviceConfig::wavefront_size`] work items that
    /// advance through every instruction in lockstep — one host wave per
    /// simulated wavefront, the CPU analogue of SIMT execution.
    #[default]
    Compiled,
    /// Re-walk the AST for every statement, one work item at a time (slow
    /// reference path).
    Interpreted,
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::Compiled => write!(f, "compiled"),
            ExecMode::Interpreted => write!(f, "interpreted"),
        }
    }
}

/// How aggressively compiled bytecode is optimized before execution.
///
/// Like [`ExecMode`], this is advisory state for kernels that carry more
/// than one compiled form (notably `kp-ir`'s `IrKernel`, which lowers its
/// AST to naive bytecode and then runs an optimization pass pipeline over
/// it). All levels are required to produce bit-identical outputs,
/// statistics and fault logs — the optimizer may only remove *host-side*
/// work, never change what the simulated GPU observably does. `None`
/// exists for differential testing and as the known-good reference when
/// debugging the optimizer, mirroring how [`ExecMode::Interpreted`]
/// anchors the VM and `Device::launch_serial` anchors the parallel engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OptLevel {
    /// Execute the bytecode exactly as lowered (reference).
    None,
    /// Run the full pass pipeline: constant folding, algebraic
    /// simplification, common-subexpression elimination, dead-code and
    /// dead-phase elimination, ALU-charge coalescing (the fast default).
    #[default]
    Full,
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptLevel::None => write!(f, "O0"),
            OptLevel::Full => write!(f, "O2"),
        }
    }
}

/// Architectural parameters of a simulated GPU device.
///
/// All latency/throughput values are in clock cycles. The model only cares
/// about *ratios* (global vs. local vs. ALU), so the absolute values do not
/// need to match any datasheet exactly; they are chosen so that the
/// memory-bound/compute-bound crossover matches GCN-class hardware.
///
/// # Examples
///
/// ```
/// use kp_gpu_sim::DeviceConfig;
///
/// let cfg = DeviceConfig::firepro_w5100();
/// assert_eq!(cfg.wavefront_size, 64);
/// assert!(cfg.local_mem_bytes >= 32 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Human-readable device name (reported in launch reports).
    pub name: String,
    /// Number of compute units (CUs). Work groups are distributed across CUs.
    pub compute_units: usize,
    /// SIMD execution width: threads per wavefront (AMD) / warp (NVIDIA).
    pub wavefront_size: usize,
    /// Maximum number of work items in one work group.
    pub max_work_group_size: usize,
    /// Local (shared) memory available per work group, in bytes.
    pub local_mem_bytes: usize,
    /// Total global memory, in bytes. Buffer allocation fails beyond this.
    pub global_mem_bytes: usize,
    /// Global memory transaction granularity in bytes (cache-line sized
    /// coalescing window; 64 B on GCN).
    pub transaction_bytes: usize,
    /// Issue cost of one DRAM transaction (per-group unique block), in
    /// cycles. This is the off-chip bandwidth term.
    pub global_issue_cycles: u64,
    /// Issue cost of a DRAM transaction that *continues* a contiguous
    /// same-direction run of blocks (an open-row burst), in cycles. Run
    /// heads always pay [`Self::global_issue_cycles`]. Must not exceed
    /// `global_issue_cycles`; both presets default it **equal**, making
    /// burst pricing neutral until a config opts into a discount (e.g. via
    /// [`Self::with_burst_discount`]) — this is the charge-model half of
    /// the burst-friendly prefetch layouts.
    pub burst_issue_cycles: u64,
    /// Issue cost of one L1 transaction (per-granule unique block), in
    /// cycles. Models cache-port bandwidth: re-reads served by the cache
    /// still occupy the pipeline.
    pub l1_issue_cycles: u64,
    /// Relative cost of a write transaction vs. a read (writes are
    /// fire-and-forget on GPUs: no lane waits for them, only bandwidth is
    /// consumed, so they are cheaper than reads).
    pub global_write_cost_factor: f64,
    /// Lanes per memory-coalescing granule. GCN issues memory requests per
    /// 16-lane quarter-wavefront, so lanes of different quarters never
    /// share a transaction even within one wavefront.
    pub coalesce_width: usize,
    /// Raw global-memory latency in cycles (mostly hidden by multithreading;
    /// only the `(1 - latency_hiding)` fraction is charged per phase).
    pub global_latency_cycles: u64,
    /// Fraction of the global latency hidden by wavefront interleaving,
    /// in `[0, 1]`.
    pub latency_hiding: f64,
    /// Cost of one local-memory access step per wavefront, in cycles.
    pub local_issue_cycles: u64,
    /// Cost of shifting one halo element in from a neighboring work
    /// group's resident tile (the software-systolic prefetch layout), in
    /// cycles per element on the local/exchange pipeline. Shifted elements
    /// pay this instead of contributing global-memory transactions.
    pub shift_issue_cycles: u64,
    /// Number of local memory banks (bank conflicts serialize accesses).
    pub local_banks: usize,
    /// Cycles per ALU op per wavefront (GCN executes a 64-lane wavefront on
    /// a 16-lane SIMD over 4 cycles, hence the default of 4).
    pub alu_cycles_per_op: u64,
    /// Fixed cost of a work-group barrier, in cycles.
    pub barrier_cycles: u64,
    /// Fixed per-work-group scheduling overhead, in cycles.
    pub group_dispatch_cycles: u64,
    /// Maximum wavefronts resident per CU (occupancy cap).
    pub max_waves_per_cu: usize,
    /// Maximum work groups resident per CU (occupancy cap).
    pub max_groups_per_cu: usize,
    /// Core clock in MHz, used to convert cycles to seconds.
    pub clock_mhz: f64,
    /// Host threads used to execute simulated work: `0` = one per
    /// available core, `1` = single-threaded, `n` = exactly `n` workers.
    /// This single budget sizes both the in-launch sharding of the
    /// parallel launch engine and the device's **persistent command-queue
    /// worker pool** (spawned lazily on first enqueue; enqueued commands
    /// start eagerly on it, before any wait). For kernels whose groups
    /// are independent within one launch (the OpenCL contract),
    /// functional results and reports are identical for every value (see
    /// the crate-level "Execution model" docs).
    pub parallelism: usize,
    /// Member-device count a [`crate::DeviceGroup`] built from this
    /// configuration owns: `0` = auto (the `KP_SIM_DEVICES` environment
    /// variable, else 1 — see [`crate::resolve_devices`]), `n` = exactly
    /// `n` devices. A plain [`crate::Device`] ignores the knob; host
    /// harnesses that route work through groups (the `kp-core` tuner)
    /// consult it so one `DeviceConfig` describes the whole fleet.
    pub devices: usize,
    /// Execution strategy for kernels that carry both a bytecode compiler
    /// and a reference interpreter (see [`ExecMode`]). Both strategies are
    /// bit-identical by contract; this selects speed vs. reference.
    pub exec_mode: ExecMode,
    /// Bytecode optimization level for kernels that carry both an
    /// optimized and an as-lowered compiled form (see [`OptLevel`]). All
    /// levels are bit-identical by contract; this selects speed vs.
    /// reference. Ignored when `exec_mode` is [`ExecMode::Interpreted`].
    pub opt_level: OptLevel,
}

impl DeviceConfig {
    /// Preset approximating the AMD FirePro W5100 used in the paper.
    ///
    /// GCN 1.1 ("Bonaire"): 12 CUs, 64-wide wavefronts, 32 KiB LDS per
    /// work group, 64 B memory transactions, 930 MHz.
    pub fn firepro_w5100() -> Self {
        Self {
            name: "AMD FirePro W5100 (simulated)".to_owned(),
            compute_units: 12,
            wavefront_size: 64,
            max_work_group_size: 256,
            local_mem_bytes: 32 * 1024,
            global_mem_bytes: 3_500_000_000,
            transaction_bytes: 64,
            global_issue_cycles: 48,
            burst_issue_cycles: 48,
            l1_issue_cycles: 8,
            global_write_cost_factor: 0.35,
            coalesce_width: 16,
            global_latency_cycles: 400,
            latency_hiding: 0.95,
            local_issue_cycles: 1,
            shift_issue_cycles: 1,
            local_banks: 32,
            alu_cycles_per_op: 2,
            barrier_cycles: 8,
            group_dispatch_cycles: 32,
            max_waves_per_cu: 40,
            max_groups_per_cu: 16,
            clock_mhz: 930.0,
            parallelism: 0,
            devices: 0,
            exec_mode: ExecMode::Compiled,
            opt_level: OptLevel::Full,
        }
    }

    /// A tiny configuration for unit tests: 1 CU, 4-wide wavefronts,
    /// 256 B transactions disabled down to 16 B so that small test grids
    /// produce interesting transaction counts.
    pub fn test_tiny() -> Self {
        Self {
            name: "test-tiny".to_owned(),
            compute_units: 1,
            wavefront_size: 4,
            max_work_group_size: 64,
            local_mem_bytes: 4 * 1024,
            global_mem_bytes: 64 * 1024 * 1024,
            transaction_bytes: 16,
            global_issue_cycles: 32,
            burst_issue_cycles: 32,
            l1_issue_cycles: 0,
            global_write_cost_factor: 1.0,
            coalesce_width: 4,
            global_latency_cycles: 400,
            latency_hiding: 0.95,
            local_issue_cycles: 2,
            shift_issue_cycles: 2,
            local_banks: 8,
            alu_cycles_per_op: 4,
            barrier_cycles: 16,
            group_dispatch_cycles: 64,
            max_waves_per_cu: 40,
            max_groups_per_cu: 16,
            clock_mhz: 1000.0,
            parallelism: 1,
            devices: 0,
            exec_mode: ExecMode::Compiled,
            opt_level: OptLevel::Full,
        }
    }

    /// Validates internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint (zero-sized wavefronts, non-power-of-two transaction
    /// size, hiding factor outside `[0, 1]`, …).
    pub fn validate(&self) -> Result<(), String> {
        if self.compute_units == 0 {
            return Err("compute_units must be > 0".into());
        }
        if self.wavefront_size == 0 {
            return Err("wavefront_size must be > 0".into());
        }
        if self.max_work_group_size == 0 {
            return Err("max_work_group_size must be > 0".into());
        }
        if self.transaction_bytes == 0 || !self.transaction_bytes.is_power_of_two() {
            return Err(format!(
                "transaction_bytes must be a power of two, got {}",
                self.transaction_bytes
            ));
        }
        if !(0.0..=1.0).contains(&self.latency_hiding) {
            return Err(format!(
                "latency_hiding must be in [0, 1], got {}",
                self.latency_hiding
            ));
        }
        if self.local_banks == 0 {
            return Err("local_banks must be > 0".into());
        }
        if self.coalesce_width == 0 {
            return Err("coalesce_width must be > 0".into());
        }
        if !(0.0..=1.0).contains(&self.global_write_cost_factor) {
            return Err(format!(
                "global_write_cost_factor must be in [0, 1], got {}",
                self.global_write_cost_factor
            ));
        }
        if self.clock_mhz <= 0.0 {
            return Err(format!("clock_mhz must be > 0, got {}", self.clock_mhz));
        }
        if self.burst_issue_cycles > self.global_issue_cycles {
            return Err(format!(
                "burst_issue_cycles ({}) must not exceed global_issue_cycles ({}): \
                 a burst continuation can never cost more than a run head",
                self.burst_issue_cycles, self.global_issue_cycles
            ));
        }
        Ok(())
    }

    /// Returns this configuration with DRAM burst continuations priced at
    /// `burst_issue_cycles` instead of the full per-transaction cost —
    /// modeling a memory controller that streams contiguous blocks from an
    /// open row. Strided access patterns are unaffected (all run heads);
    /// contiguous layouts get cheaper.
    #[must_use]
    pub fn with_burst_discount(mut self, burst_issue_cycles: u64) -> Self {
        self.burst_issue_cycles = burst_issue_cycles;
        self
    }

    /// Converts a cycle count into seconds at this device's clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_mhz * 1.0e6)
    }

    /// A stable 64-bit fingerprint of every parameter that can change a
    /// *simulated* number (transaction counts, cycles, seconds, errors).
    ///
    /// Persistent tuning caches key their entries by this value: an entry
    /// recorded on one device model must never be served for another.
    /// Parameters that are bit-identical by contract are deliberately
    /// **excluded**, so one cache entry serves every host configuration:
    ///
    /// * `name` — display only;
    /// * `parallelism` and `devices` — host-side execution budgets
    ///   (results are identical at any worker/member count);
    /// * `exec_mode` and `opt_level` — execution strategies for IR
    ///   kernels, bit-identical by contract (differentially tested).
    ///
    /// Floats are hashed by bit pattern, so any representable change to
    /// e.g. `latency_hiding` changes the fingerprint.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over a canonical, versioned rendering of the timing
        // parameters. Bump the leading tag when the timing model itself
        // changes meaning (it invalidates every cache).
        let canon = format!(
            "kp-device-v1|cu={}|wf={}|wg={}|lmem={}|gmem={}|tx={}|gic={}|l1c={}|wcf={:016x}\
             |cw={}|glat={}|lh={:016x}|lic={}|banks={}|alu={}|bar={}|disp={}|waves={}|groups={}\
             |clk={:016x}|bic={}|sic={}",
            self.compute_units,
            self.wavefront_size,
            self.max_work_group_size,
            self.local_mem_bytes,
            self.global_mem_bytes,
            self.transaction_bytes,
            self.global_issue_cycles,
            self.l1_issue_cycles,
            self.global_write_cost_factor.to_bits(),
            self.coalesce_width,
            self.global_latency_cycles,
            self.latency_hiding.to_bits(),
            self.local_issue_cycles,
            self.local_banks,
            self.alu_cycles_per_op,
            self.barrier_cycles,
            self.group_dispatch_cycles,
            self.max_waves_per_cu,
            self.max_groups_per_cu,
            self.clock_mhz.to_bits(),
            self.burst_issue_cycles,
            self.shift_issue_cycles,
        );
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in canon.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::firepro_w5100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn w5100_preset_is_valid() {
        DeviceConfig::firepro_w5100().validate().unwrap();
    }

    #[test]
    fn test_tiny_preset_is_valid() {
        DeviceConfig::test_tiny().validate().unwrap();
    }

    #[test]
    fn default_is_w5100() {
        assert_eq!(DeviceConfig::default(), DeviceConfig::firepro_w5100());
    }

    #[test]
    fn rejects_zero_compute_units() {
        let mut cfg = DeviceConfig::test_tiny();
        cfg.compute_units = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_non_power_of_two_transactions() {
        let mut cfg = DeviceConfig::test_tiny();
        cfg.transaction_bytes = 48;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_out_of_range_hiding() {
        let mut cfg = DeviceConfig::test_tiny();
        cfg.latency_hiding = 1.5;
        assert!(cfg.validate().is_err());
        cfg.latency_hiding = -0.1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn exec_mode_defaults_to_compiled() {
        assert_eq!(ExecMode::default(), ExecMode::Compiled);
        assert_eq!(DeviceConfig::firepro_w5100().exec_mode, ExecMode::Compiled);
        assert_eq!(DeviceConfig::test_tiny().exec_mode, ExecMode::Compiled);
        assert_eq!(ExecMode::Compiled.to_string(), "compiled");
        assert_eq!(ExecMode::Interpreted.to_string(), "interpreted");
    }

    #[test]
    fn opt_level_defaults_to_full() {
        assert_eq!(OptLevel::default(), OptLevel::Full);
        assert_eq!(DeviceConfig::firepro_w5100().opt_level, OptLevel::Full);
        assert_eq!(DeviceConfig::test_tiny().opt_level, OptLevel::Full);
        assert_eq!(OptLevel::None.to_string(), "O0");
        assert_eq!(OptLevel::Full.to_string(), "O2");
    }

    #[test]
    fn fingerprint_ignores_host_side_knobs() {
        let base = DeviceConfig::firepro_w5100();
        let fp = base.fingerprint();
        let mut cfg = base.clone();
        cfg.name = "renamed".into();
        cfg.parallelism = 7;
        cfg.devices = 3;
        cfg.exec_mode = ExecMode::Interpreted;
        cfg.opt_level = OptLevel::None;
        assert_eq!(
            cfg.fingerprint(),
            fp,
            "bit-identical knobs must not fragment the cache"
        );
    }

    #[test]
    fn fingerprint_tracks_timing_parameters() {
        let base = DeviceConfig::firepro_w5100();
        let fp = base.fingerprint();
        let mut cfg = base.clone();
        cfg.global_issue_cycles += 1;
        assert_ne!(cfg.fingerprint(), fp);
        let mut cfg = base.clone();
        cfg.latency_hiding += 1e-9;
        assert_ne!(cfg.fingerprint(), fp, "float params hash by bit pattern");
        let mut cfg = base.clone();
        cfg.clock_mhz *= 2.0;
        assert_ne!(cfg.fingerprint(), fp);
        let cfg = base
            .clone()
            .with_burst_discount(base.burst_issue_cycles / 2);
        assert_ne!(cfg.fingerprint(), fp, "burst pricing is a timing parameter");
        let mut cfg = base.clone();
        cfg.shift_issue_cycles += 1;
        assert_ne!(cfg.fingerprint(), fp, "shift pricing is a timing parameter");
        assert_ne!(
            DeviceConfig::firepro_w5100().fingerprint(),
            DeviceConfig::test_tiny().fingerprint()
        );
    }

    #[test]
    fn rejects_burst_cost_above_full_cost() {
        let mut cfg = DeviceConfig::test_tiny();
        cfg.burst_issue_cycles = cfg.global_issue_cycles + 1;
        assert!(cfg.validate().is_err());
        cfg.burst_issue_cycles = cfg.global_issue_cycles;
        assert!(cfg.validate().is_ok());
        assert!(cfg.with_burst_discount(0).validate().is_ok());
    }

    #[test]
    fn fingerprint_is_stable_across_calls() {
        let cfg = DeviceConfig::test_tiny();
        assert_eq!(cfg.fingerprint(), cfg.fingerprint());
    }

    #[test]
    fn cycles_to_seconds_uses_clock() {
        let mut cfg = DeviceConfig::test_tiny();
        cfg.clock_mhz = 1000.0; // 1 GHz -> 1 cycle == 1 ns
        let s = cfg.cycles_to_seconds(1_000_000_000);
        assert!((s - 1.0).abs() < 1e-12);
    }
}
