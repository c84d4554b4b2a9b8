//! Multi-device runtime: [`DeviceGroup`] — a fleet of simulated devices
//! behind one handle.
//!
//! A group owns N identically configured [`Device`]s and is the preferred
//! host API for anything beyond a single workload on a single device:
//!
//! * **Sharded launches** ([`DeviceGroup::launch_sharded`]): one large
//!   [`NdRange`] launch splits by contiguous row-major group ranges across
//!   the members. Each member executes its span against its own copy of
//!   the input buffers; the spans' write logs are gathered in device order
//!   (restoring full row-major order), applied on member 0 and reduced
//!   exactly once — so outputs, reports and fault logs are
//!   **bit-identical** to a single-device run at any member count.
//! * **Placement** ([`DeviceGroup::place`] / [`DeviceGroup::launch_on`]):
//!   independent commands (tuner candidates, concurrent requests) go to
//!   the member with the fewest pending commands; ties rotate
//!   deterministically, so an idle fleet is filled round-robin.
//! * **Coherent buffers**: a group-level buffer has one allocation per
//!   member (created in identical order, so handles and base addresses
//!   agree fleet-wide) plus a validity bit per copy and a `latest_source`
//!   member. Copies migrate **on demand only** — when a launch or host
//!   access needs the latest bits on a member that does not have them —
//!   and every migration is counted in [`GroupStats`] and priced by the
//!   charge model ([`GroupStats::migration_cost_cycles`]).
//!
//! Fleet size comes from [`DeviceConfig::devices`] via
//! [`crate::resolve_devices`] (`0` = auto → the `KP_SIM_DEVICES`
//! environment variable → 1).

use crate::buffer::{BufferId, ElemKind, GroupBuffer, Scalar};
use crate::config::DeviceConfig;
use crate::device::Device;
use crate::engine::{self, resolve_devices};
use crate::error::SimError;
use crate::kernel::Kernel;
use crate::ndrange::NdRange;
use crate::queue::Queue;
use crate::stats::{GroupStats, LaunchReport};

/// A fleet of N identically configured simulated devices with coherent
/// group-level buffers, sharded launches and least-loaded placement. See
/// the crate docs ("Multi-device: `DeviceGroup`") for the coherence
/// protocol and determinism argument.
///
/// # Examples
///
/// ```
/// use kp_gpu_sim::{BufferId, BufferUse, DeviceConfig, DeviceGroup, ItemCtx, Kernel, NdRange};
///
/// struct Double { src: BufferId, dst: BufferId }
///
/// impl Kernel for Double {
///     fn name(&self) -> &str { "double" }
///     fn buffer_usage(&self) -> Option<BufferUse> {
///         Some(BufferUse::new([self.src], [self.dst]))
///     }
///     fn run_phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>) {
///         let i = ctx.global_id(0);
///         let v: f32 = ctx.read_global(self.src, i);
///         ctx.write_global(self.dst, i, 2.0 * v);
///         ctx.ops(1);
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut group = DeviceGroup::with_devices(DeviceConfig::test_tiny(), 2)?;
/// let src = group.create_buffer_from("src", &[1.0f32; 64])?;
/// let dst = group.create_buffer::<f32>("dst", 64)?;
/// let report = group.launch_sharded(&Double { src, dst }, NdRange::new_1d(64, 4)?)?;
/// assert_eq!(report.groups, 16);
/// assert_eq!(group.read_buffer::<f32>(dst)?, vec![2.0f32; 64]);
/// // Fresh buffers are valid on every member: nothing migrated.
/// assert_eq!(group.stats().migrations, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DeviceGroup {
    devices: Vec<Device>,
    /// Group-level coherence state, slot-indexed like each member's own
    /// buffer table (handles agree fleet-wide by construction).
    buffers: Vec<Option<GroupBuffer>>,
    /// The member [`DeviceGroup::place`] tries first among equally
    /// loaded ones: one past its previous pick.
    cursor: usize,
    stats: GroupStats,
}

impl DeviceGroup {
    /// Creates a group of [`crate::resolve_devices`]`(cfg.devices)`
    /// members, each an independent [`Device`] with configuration `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the configuration is inconsistent.
    pub fn new(cfg: DeviceConfig) -> Result<Self, SimError> {
        let n = resolve_devices(cfg.devices);
        Self::with_devices(cfg, n)
    }

    /// Creates a group with exactly `n` member devices, ignoring the
    /// `cfg.devices` knob and the environment.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if `n == 0` or the configuration is
    /// inconsistent.
    pub fn with_devices(cfg: DeviceConfig, n: usize) -> Result<Self, SimError> {
        if n == 0 {
            return Err(SimError::Config(
                "a device group needs at least one member device".into(),
            ));
        }
        let devices = (0..n)
            .map(|_| Device::new(cfg.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            devices,
            buffers: Vec::new(),
            cursor: 0,
            stats: GroupStats::default(),
        })
    }

    /// Number of member devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Shared reference to member `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn member(&self, idx: usize) -> &Device {
        &self.devices[idx]
    }

    /// Mutable access to the member devices — the escape hatch for host
    /// code that drives members directly (e.g. the tuner running one
    /// candidate batch per member). Buffers created through a member
    /// instead of the group are device-local: the group's coherence layer
    /// only tracks buffers created through [`DeviceGroup::create_buffer`]
    /// and friends, and direct writes to *group* buffers through a member
    /// bypass invalidation — keep the two kinds separate.
    pub fn members_mut(&mut self) -> &mut [Device] {
        &mut self.devices
    }

    /// Creates a command queue on member `idx` (see [`Queue`]). Events
    /// from one member's queue may appear in wait-lists of another's; such
    /// a wait is a completion callback on the foreign event and costs no
    /// thread (see [`Queue`]'s "Cross-device waits" docs).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn create_queue(&self, idx: usize) -> Queue {
        self.devices[idx].create_queue()
    }

    /// Multi-device statistics accumulated so far (migrations and their
    /// priced cost, sharded vs placed launches).
    pub fn stats(&self) -> GroupStats {
        self.stats
    }

    /// Enables or disables profiling on every member (see
    /// [`Device::set_profiling`]).
    pub fn set_profiling(&mut self, enabled: bool) {
        for dev in &mut self.devices {
            dev.set_profiling(enabled);
        }
    }

    /// Sets the per-member launch-engine parallelism (see
    /// [`Device::set_parallelism`]).
    pub fn set_parallelism(&mut self, threads: usize) {
        for dev in &mut self.devices {
            dev.set_parallelism(threads);
        }
    }

    /// Allocates a zeroed group buffer of `len` elements on **every**
    /// member, in identical order — so the returned handle (and the
    /// underlying base address) is valid on all of them. All copies start
    /// valid: a fresh buffer never needs migration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] if any member cannot fit the
    /// allocation (members are identical, so they all fail together).
    pub fn create_buffer<T: Scalar>(
        &mut self,
        label: &str,
        len: usize,
    ) -> Result<BufferId, SimError> {
        self.create_group_buffer(T::KIND, len, |dev| dev.create_buffer::<T>(label, len))
    }

    /// Allocates a group buffer initialized from host data on every
    /// member (see [`DeviceGroup::create_buffer`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] if any member cannot fit the
    /// allocation.
    pub fn create_buffer_from<T: Scalar>(
        &mut self,
        label: &str,
        data: &[T],
    ) -> Result<BufferId, SimError> {
        self.create_group_buffer(T::KIND, data.len(), |dev| {
            dev.create_buffer_from::<T>(label, data)
        })
    }

    fn create_group_buffer(
        &mut self,
        kind: ElemKind,
        len: usize,
        mut alloc: impl FnMut(&mut Device) -> Result<BufferId, SimError>,
    ) -> Result<BufferId, SimError> {
        let mut id = None;
        for dev in &mut self.devices {
            let got = alloc(dev)?;
            match id {
                None => id = Some(got),
                Some(first) => debug_assert_eq!(
                    first, got,
                    "group members allocate in identical order; handles must agree"
                ),
            }
        }
        let id = id.expect("group has at least one member");
        let slot = id.index();
        if self.buffers.len() <= slot {
            self.buffers.resize(slot + 1, None);
        }
        self.buffers[slot] = Some(GroupBuffer::fresh(id, kind, len, self.devices.len()));
        Ok(id)
    }

    /// Releases a group buffer on every member.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownBuffer`] if the handle does not name a
    /// live group buffer.
    pub fn release_buffer(&mut self, id: BufferId) -> Result<(), SimError> {
        let slot = id.index();
        match self.buffers.get_mut(slot) {
            Some(entry @ Some(_)) => *entry = None,
            _ => return Err(SimError::UnknownBuffer(id)),
        }
        for dev in &mut self.devices {
            dev.release_buffer(id)?;
        }
        Ok(())
    }

    /// Reads a group buffer from its latest-source member. Host reads
    /// never migrate — they pull from wherever the latest copy lives.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownBuffer`] or [`SimError::BufferKind`].
    pub fn read_buffer<T: Scalar>(&self, id: BufferId) -> Result<Vec<T>, SimError> {
        let gb = self.group_buffer(id)?;
        self.devices[gb.latest_source].read_buffer::<T>(id)
    }

    /// Overwrites a group buffer from the host. The write lands on the
    /// current latest-source member and invalidates every other copy —
    /// on-demand migration refreshes them when next needed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownBuffer`], [`SimError::BufferKind`] or
    /// [`SimError::SizeMismatch`].
    pub fn write_buffer<T: Scalar>(&mut self, id: BufferId, data: &[T]) -> Result<(), SimError> {
        let writer = self.group_buffer(id)?.latest_source;
        self.devices[writer].write_buffer(id, data)?;
        self.buffers[id.index()]
            .as_mut()
            .expect("checked above")
            .mark_written(writer);
        Ok(())
    }

    fn group_buffer(&self, id: BufferId) -> Result<&GroupBuffer, SimError> {
        self.buffers
            .get(id.index())
            .and_then(Option::as_ref)
            .ok_or(SimError::UnknownBuffer(id))
    }

    /// Ensures member `dest` holds the latest bits of the group buffer in
    /// `slot`, migrating from the latest source if (and only if) `dest`'s
    /// copy is stale. Each migration is counted and priced.
    fn migrate_to(&mut self, slot: usize, dest: usize) -> Result<(), SimError> {
        let (id, src, bytes, valid) = {
            let gb = self.buffers[slot].as_ref().expect("live group buffer");
            (gb.id, gb.latest_source, gb.byte_len(), gb.copies[dest])
        };
        if valid {
            return Ok(());
        }
        let bits = self.devices[src].read_buffer_bits(id)?;
        self.devices[dest].write_buffer_bits(id, &bits)?;
        self.buffers[slot]
            .as_mut()
            .expect("live group buffer")
            .mark_migrated(dest);
        let cfg = self.devices[dest].config().clone();
        self.stats.record_migration(&cfg, bytes);
        Ok(())
    }

    /// The group-buffer slots a launch of `kernel` may touch: its declared
    /// [`Kernel::buffer_usage`] (reads ∪ writes), or — conservatively —
    /// every live group buffer when usage is undeclared.
    fn used_slots<K: Kernel + ?Sized>(&self, kernel: &K) -> Vec<usize> {
        match kernel.buffer_usage() {
            Some(u) => {
                let mut slots: Vec<usize> = u
                    .reads
                    .iter()
                    .chain(u.writes.iter())
                    .map(|id| id.index())
                    .collect();
                slots.sort_unstable();
                slots.dedup();
                slots
            }
            None => self
                .buffers
                .iter()
                .enumerate()
                .filter_map(|(slot, gb)| gb.as_ref().map(|_| slot))
                .collect(),
        }
    }

    /// The slots a launch actually wrote, derived from its write entries.
    fn written_slots(entries: &[engine::WriteEntry]) -> Vec<usize> {
        let mut slots: Vec<usize> = entries.iter().map(|e| e.slot as usize).collect();
        slots.sort_unstable();
        slots.dedup();
        slots
    }

    /// Executes one launch sharded across the member devices by
    /// contiguous row-major group ranges, blocking until it completes.
    ///
    /// Every buffer the kernel may touch is first migrated to each
    /// participating member (on demand — already-valid copies move
    /// nothing). Members execute their spans concurrently; write logs are
    /// gathered in device order, applied on member 0 (which becomes the
    /// latest source for every written buffer) and reduced exactly once —
    /// so the report, the output bits and the fault log are bit-identical
    /// to running the same launch on a single device, at any member
    /// count. On a faulting launch, writes are still applied (matching
    /// [`Device::launch`]) before the fault error is returned.
    ///
    /// # Errors
    ///
    /// As [`Device::launch`].
    pub fn launch_sharded<K: Kernel + Sync + ?Sized>(
        &mut self,
        kernel: &K,
        range: NdRange,
    ) -> Result<LaunchReport, SimError> {
        let total = range.num_groups_total();
        let participants = self.devices.len().min(total).max(1);
        let chunk = total.div_ceil(participants).max(1);
        let spans: Vec<(usize, usize)> = (0..participants)
            .map(|i| (i * chunk, ((i + 1) * chunk).min(total)))
            .filter(|&(lo, hi)| lo < hi)
            .collect();

        // Scatter: every participant needs the latest bits of every
        // buffer the kernel may touch (declared writes included — kernels
        // may read written buffers back, and unwritten elements of an
        // output must survive the gather unchanged).
        for slot in self.used_slots(kernel) {
            for dest in 0..spans.len() {
                self.migrate_to(slot, dest)?;
            }
        }

        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = spans
                .iter()
                .zip(self.devices.iter_mut())
                .map(|(&(lo, hi), dev)| s.spawn(move || dev.launch_span(kernel, range, lo, hi)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sharded launch member panicked"))
                .collect()
        });

        // Gather in device order = row-major group order.
        let mut setup = None;
        let mut outcomes = Vec::with_capacity(total);
        let mut entries = Vec::new();
        for r in results {
            let (member_setup, member_outcomes, member_entries) = r?;
            setup.get_or_insert(member_setup);
            outcomes.extend(member_outcomes);
            entries.extend(member_entries);
        }
        let setup = setup.expect("at least one span executed");

        // Apply on member 0 even when the launch faulted — matching the
        // partial-write semantics of a single device — and mark written
        // buffers as owned by member 0.
        self.devices[0].apply_entries(&entries);
        for slot in Self::written_slots(&entries) {
            if let Some(gb) = self.buffers.get_mut(slot).and_then(Option::as_mut) {
                gb.mark_written(0);
            }
        }
        self.stats.sharded_launches += 1;

        let cfg = self.devices[0].config().clone();
        let profiling = self.devices[0].profiling();
        engine::reduce_outcomes(kernel.name(), &cfg, profiling, &range, &setup, outcomes)
    }

    /// Ensures member `member` holds the latest bits of group buffer
    /// `id`, migrating from the latest source if (and only if) that
    /// member's copy is stale — counted and priced in [`GroupStats`]
    /// like every other migration.
    ///
    /// This is the serving-loop building block for *enqueued* placement:
    /// [`DeviceGroup::launch_on`] migrates and blocks, but a loop that
    /// enqueues on a member queue ([`DeviceGroup::create_queue`]) and
    /// harvests through [`crate::Event::on_complete`] callbacks must make
    /// shared inputs resident itself before enqueueing. Migration is a host-side
    /// copy through the member devices' blocking buffer paths, so call it
    /// from the admission path (where it is a no-op whenever the copy is
    /// already valid), not from a completion callback.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownBuffer`] if `id` does not name a live
    /// group buffer.
    ///
    /// # Panics
    ///
    /// Panics if `member` is out of range.
    pub fn prefetch(&mut self, id: BufferId, member: usize) -> Result<(), SimError> {
        let slot = id.index();
        if self.buffers.get(slot).and_then(Option::as_ref).is_none() {
            return Err(SimError::UnknownBuffer(id));
        }
        assert!(member < self.devices.len(), "member index out of range");
        self.migrate_to(slot, member)
    }

    /// The member with the fewest pending (queued or running) commands
    /// right now, ties broken by the lowest index.
    pub fn least_loaded(&self) -> usize {
        self.fewest_pending_from(0)
    }

    /// Picks the member with the fewest pending commands for the next
    /// independent command. Ties go to the first such member at or after
    /// the previous pick's successor, so a burst of placements, or
    /// commands placed one at a time and each finished before the next,
    /// round-robins across the members instead of piling onto one.
    pub fn place(&mut self) -> usize {
        let d = self.fewest_pending_from(self.cursor);
        self.cursor = (d + 1) % self.devices.len();
        d
    }

    /// The member with the fewest pending commands, scanning from
    /// `start` and wrapping; the first one scanned wins a tie.
    fn fewest_pending_from(&self, start: usize) -> usize {
        let n = self.devices.len();
        (0..n)
            .map(|i| (start + i) % n)
            .min_by_key(|&d| self.devices[d].pending_commands())
            .expect("group has at least one member")
    }

    /// Executes one whole (unsharded) launch on member `idx`, blocking
    /// until it completes — the placement path for independent commands:
    /// pick a member with [`DeviceGroup::place`], then launch on it.
    /// Buffers the kernel may touch are migrated to `idx` on demand
    /// first; written buffers become owned by `idx`.
    ///
    /// # Errors
    ///
    /// As [`Device::launch`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn launch_on<K: Kernel + Sync + ?Sized>(
        &mut self,
        idx: usize,
        kernel: &K,
        range: NdRange,
    ) -> Result<LaunchReport, SimError> {
        let used = self.used_slots(kernel);
        for &slot in &used {
            self.migrate_to(slot, idx)?;
        }
        let result = self.devices[idx].launch(kernel, range);
        // Launches apply writes even when they fault, so ownership moves
        // regardless of the outcome. Without declared usage the write set
        // is unknown — conservatively assume everything it could touch.
        let written: Vec<usize> = match kernel.buffer_usage() {
            Some(u) => {
                let mut slots: Vec<usize> = u.writes.iter().map(|id| id.index()).collect();
                slots.sort_unstable();
                slots.dedup();
                slots
            }
            None => used,
        };
        for slot in written {
            if let Some(gb) = self.buffers.get_mut(slot).and_then(Option::as_mut) {
                gb.mark_written(idx);
            }
        }
        self.stats.placed_launches += 1;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ItemCtx;
    use crate::queue::BufferUse;

    struct Scale {
        src: BufferId,
        dst: BufferId,
        factor: f32,
    }

    impl Kernel for Scale {
        fn name(&self) -> &str {
            "scale"
        }

        fn buffer_usage(&self) -> Option<BufferUse> {
            Some(BufferUse::new([self.src], [self.dst]))
        }

        fn run_phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>) {
            let i = ctx.global_id(0);
            let v: f32 = ctx.read_global(self.src, i);
            ctx.write_global(self.dst, i, self.factor * v);
            ctx.ops(1);
        }
    }

    fn group(n: usize) -> DeviceGroup {
        DeviceGroup::with_devices(DeviceConfig::test_tiny(), n).unwrap()
    }

    #[test]
    fn zero_members_rejected() {
        assert!(matches!(
            DeviceGroup::with_devices(DeviceConfig::test_tiny(), 0),
            Err(SimError::Config(_))
        ));
    }

    #[test]
    fn fresh_buffers_need_no_migration() {
        let mut g = group(3);
        let data: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let src = g.create_buffer_from("src", &data).unwrap();
        let dst = g.create_buffer::<f32>("dst", 64).unwrap();
        g.launch_sharded(
            &Scale {
                src,
                dst,
                factor: 2.0,
            },
            NdRange::new_1d(64, 4).unwrap(),
        )
        .unwrap();
        assert_eq!(g.stats().migrations, 0);
        assert_eq!(g.stats().sharded_launches, 1);
        let out = g.read_buffer::<f32>(dst).unwrap();
        assert_eq!(out[5], 10.0);
    }

    #[test]
    fn rewriting_migrates_only_stale_copies() {
        let mut g = group(2);
        let src = g.create_buffer_from("src", &[1.0f32; 16]).unwrap();
        let dst = g.create_buffer::<f32>("dst", 16).unwrap();
        let range = NdRange::new_1d(16, 4).unwrap();
        let k = Scale {
            src,
            dst,
            factor: 3.0,
        };
        g.launch_sharded(&k, range).unwrap();
        // dst is now owned by member 0 and stale on member 1; src is
        // still valid everywhere. Relaunching migrates exactly dst once.
        g.launch_sharded(&k, range).unwrap();
        assert_eq!(g.stats().migrations, 1);
        assert_eq!(g.stats().migrated_bytes, 64);
        assert!(g.stats().migration_cycles > 0);
    }

    #[test]
    fn placement_round_robins_on_ties() {
        let mut g = group(4);
        let picks: Vec<usize> = (0..5).map(|_| g.place()).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0]);
    }

    #[test]
    fn release_invalidates_handle() {
        let mut g = group(2);
        let id = g.create_buffer::<f32>("x", 8).unwrap();
        g.release_buffer(id).unwrap();
        assert!(matches!(
            g.read_buffer::<f32>(id),
            Err(SimError::UnknownBuffer(_))
        ));
        assert!(matches!(
            g.release_buffer(id),
            Err(SimError::UnknownBuffer(_))
        ));
    }

    #[test]
    fn prefetch_migrates_stale_copies_only() {
        let mut g = group(2);
        let src = g.create_buffer_from("src", &[1.0f32; 16]).unwrap();
        // Fresh buffers are valid fleet-wide: prefetch is a no-op.
        g.prefetch(src, 1).unwrap();
        assert_eq!(g.stats().migrations, 0);
        // A host write leaves only the latest source valid; prefetching
        // to the other member migrates exactly once, and again is a
        // no-op once resident.
        g.write_buffer(src, &[9.0f32; 16]).unwrap();
        g.prefetch(src, 1).unwrap();
        g.prefetch(src, 1).unwrap();
        assert_eq!(g.stats().migrations, 1);
        assert_eq!(g.member(1).read_buffer::<f32>(src).unwrap(), [9.0f32; 16]);
        // Unknown handles are rejected.
        let bogus = g.create_buffer::<f32>("tmp", 4).unwrap();
        g.release_buffer(bogus).unwrap();
        assert!(matches!(
            g.prefetch(bogus, 0),
            Err(SimError::UnknownBuffer(_))
        ));
    }

    #[test]
    fn host_write_invalidates_other_copies() {
        let mut g = group(2);
        let src = g.create_buffer_from("src", &[1.0f32; 16]).unwrap();
        let dst = g.create_buffer::<f32>("dst", 16).unwrap();
        g.write_buffer(src, &[5.0f32; 16]).unwrap();
        // src now lives on its latest source only; the sharded launch
        // must migrate it to the other participant.
        g.launch_sharded(
            &Scale {
                src,
                dst,
                factor: 1.0,
            },
            NdRange::new_1d(16, 4).unwrap(),
        )
        .unwrap();
        assert_eq!(g.stats().migrations, 1);
        assert_eq!(g.read_buffer::<f32>(dst).unwrap(), vec![5.0f32; 16]);
    }
}
