//! System snapshots: the *snapshot-in* half of the manager boundary.
//!
//! Once per quantum the executor captures the whole observable system state
//! — supplies, powers, utilizations, task telemetry — into a reused
//! [`SystemSnapshot`]. Managers read only this (never the live
//! [`System`]), which makes every policy a pure
//! `snapshot → plan` function: replayable, diffable, and safe to run while
//! the executor state is elsewhere. The snapshot is a strict superset of the
//! market's `MarketObs` and of what the HPM/HL baselines poll ad hoc.
//!
//! Capture reuses all buffers: after the first few quanta (static topology
//! vectors are built once) a steady-state capture performs **zero heap
//! allocation** — see `tests/zero_alloc.rs`. It is one in-place pass per
//! section: each live value is compared bitwise with the snapshot's copy
//! as it overwrites it, which yields the exact per-section
//! [`ChangeMask`] at no extra pass over the system. Observation faults
//! rewrite chip power, cluster powers and `hottest` in the snapshot after
//! capture; the next capture sees those copies differ from the live values
//! and restores them like any other change.

use ppm_platform::cluster::ClusterId;
use ppm_platform::core::{CoreClass, CoreId};
use ppm_platform::thermal::Celsius;
use ppm_platform::units::{ProcessingUnits, SimTime, Watts};
use ppm_workload::request::OpenLoopSnap;
use ppm_workload::task::TaskId;

use crate::executor::System;

/// Per-task telemetry, as the paper's agents observe it.
#[derive(Debug, Clone, Copy)]
pub struct TaskSnap {
    /// Task id.
    pub id: TaskId,
    /// The core the task is mapped to (`c_t`).
    pub core: CoreId,
    /// Scheduling priority.
    pub priority: u32,
    /// Explicit PU share currently set (Market policy).
    pub share: ProcessingUnits,
    /// PU supply granted in the last quantum (`s_t`).
    pub granted: ProcessingUnits,
    /// PELT load average in `[0, 1]`.
    pub pelt_load: f64,
    /// True while the task pays a migration penalty.
    pub stalled: bool,
    /// Observed heart rate (0 until the monitor window fills).
    pub heart_rate: f64,
    /// Reference heart-rate target.
    pub target_rate: f64,
    /// Demand on the task's *current* core class, from its telemetry there.
    pub demand: ProcessingUnits,
    /// Off-line profiled demand on a LITTLE core.
    pub demand_little: ProcessingUnits,
    /// Off-line profiled demand on a big core.
    pub demand_big: ProcessingUnits,
    /// Measured cost per heartbeat, when telemetry is warm.
    pub cost_per_beat: Option<f64>,
    /// Request-queue state, for open-loop tasks only.
    pub open_loop: Option<OpenLoopSnap>,
}

impl TaskSnap {
    /// True when every field of `self` and `other` has the same bits.
    fn same_bits(&self, other: &TaskSnap) -> bool {
        let open_loop = match (self.open_loop, other.open_loop) {
            (Some(a), Some(b)) => {
                a.queue_depth == b.queue_depth
                    && same(a.p99_ms, b.p99_ms)
                    && same(a.slo_ms, b.slo_ms)
                    && a.shed == b.shed
            }
            (None, None) => true,
            _ => false,
        };
        open_loop
            && self.id == other.id
            && self.core == other.core
            && self.priority == other.priority
            && same(self.share.value(), other.share.value())
            && same(self.granted.value(), other.granted.value())
            && same(self.pelt_load, other.pelt_load)
            && self.stalled == other.stalled
            && same(self.heart_rate, other.heart_rate)
            && same(self.target_rate, other.target_rate)
            && same(self.demand.value(), other.demand.value())
            && same(self.demand_little.value(), other.demand_little.value())
            && same(self.demand_big.value(), other.demand_big.value())
            && self.cost_per_beat.map(f64::to_bits) == other.cost_per_beat.map(f64::to_bits)
    }

    /// Profiled demand for `class`.
    pub fn profiled_demand(&self, class: CoreClass) -> ProcessingUnits {
        match class {
            CoreClass::Little => self.demand_little,
            CoreClass::Big => self.demand_big,
        }
    }
}

/// Per-core state.
#[derive(Debug, Clone, Copy)]
pub struct CoreSnap {
    /// Core id.
    pub id: CoreId,
    /// Owning cluster.
    pub cluster: ClusterId,
    /// Core class.
    pub class: CoreClass,
    /// Last quantum's utilization in `[0, 1]`.
    pub utilization: f64,
    /// Supply at the cluster's current level (0 when gated).
    pub supply: ProcessingUnits,
    /// Supply at the cluster's top level (static).
    pub max_supply: ProcessingUnits,
}

/// Per-cluster state, with the V-F ladder for level arithmetic.
#[derive(Debug, Clone)]
pub struct ClusterSnap {
    /// Cluster id.
    pub id: ClusterId,
    /// Class of the cluster's cores.
    pub class: CoreClass,
    /// Settled V-F level index.
    pub level: usize,
    /// The level currently in force or in flight (pending transition wins).
    pub effective_target: usize,
    /// True when power-gated.
    pub off: bool,
    /// Per-core supply at the current level (0 when gated).
    pub supply_per_core: ProcessingUnits,
    /// Last sampled cluster power (managers see the noisy sensor).
    pub power: Watts,
    /// Per-core supply at each ladder level, ascending (static).
    pub ladder: Vec<ProcessingUnits>,
    /// The cluster's cores (static).
    pub cores: Vec<CoreId>,
}

impl ClusterSnap {
    /// Highest level index.
    pub fn max_level(&self) -> usize {
        self.ladder.len() - 1
    }

    /// One level up from the current one, saturating at the top
    /// (mirrors `VfTable::step_up`).
    pub fn step_up(&self) -> usize {
        (self.level + 1).min(self.max_level())
    }

    /// One level down from the current one, saturating at the bottom.
    pub fn step_down(&self) -> usize {
        self.level.saturating_sub(1)
    }

    /// Per-core supply one level up, if not already at the top.
    pub fn supply_up(&self) -> Option<ProcessingUnits> {
        (self.level < self.max_level()).then(|| self.ladder[self.level + 1])
    }

    /// Per-core supply one level down, if not already at the bottom.
    pub fn supply_down(&self) -> Option<ProcessingUnits> {
        (self.level > 0).then(|| self.ladder[self.level - 1])
    }

    /// Lowest level whose supply covers `demand`, else the top level
    /// (mirrors `VfTable::level_for_demand`).
    pub fn level_for_demand(&self, demand: ProcessingUnits) -> usize {
        self.ladder
            .iter()
            .position(|&s| s >= demand)
            .unwrap_or(self.max_level())
    }
}

/// Per-section "what changed since the previous capture" mask.
///
/// Exact: [`SystemSnapshot::capture`] compares every value it stores
/// bitwise (`f64::to_bits`, so `-0.0` differs from `0.0`) with the copy it
/// overwrites, and a section is dirty iff any of its values, or its length,
/// differed. Capture time (`now`) is deliberately excluded — it advances
/// every quantum and carries no decision input. The comparison is against
/// the snapshot's own previous copy, so a copy perturbed in place after the
/// previous capture also reads as dirty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangeMask {
    /// Chip scalars changed (power sample, hottest junction temperature).
    pub chip: bool,
    /// The task section changed (membership or any per-task field).
    pub tasks: bool,
    /// The core section changed (utilization or supply on any core).
    pub cores: bool,
    /// The cluster section changed (level, target, gating, supply, power).
    pub clusters: bool,
}

impl ChangeMask {
    /// Everything dirty — the state before any capture pair exists.
    pub const ALL: ChangeMask = ChangeMask {
        chip: true,
        tasks: true,
        cores: true,
        clusters: true,
    };

    /// True when any section changed.
    pub fn any(self) -> bool {
        self.chip || self.tasks || self.cores || self.clusters
    }

    /// Number of dirty sections, 0–4.
    pub fn dirty_sections(self) -> u32 {
        u32::from(self.chip)
            + u32::from(self.tasks)
            + u32::from(self.cores)
            + u32::from(self.clusters)
    }
}

impl Default for ChangeMask {
    fn default() -> ChangeMask {
        ChangeMask::ALL
    }
}

/// Everything a power manager may observe, captured at one instant.
#[derive(Debug, Default)]
pub struct SystemSnapshot {
    /// Capture time (start of the quantum being planned).
    pub now: SimTime,
    /// Last sampled chip power (noisy sensor, like `System::chip_power`).
    pub chip_power: Watts,
    /// Hottest junction temperature, when a thermal model is attached.
    pub hottest: Option<Celsius>,
    /// Active tasks, ascending by id.
    pub tasks: Vec<TaskSnap>,
    /// All cores, indexed by core id.
    pub cores: Vec<CoreSnap>,
    /// All clusters, indexed by cluster id.
    pub clusters: Vec<ClusterSnap>,
    /// What changed since the previous capture (see [`ChangeMask`]).
    pub changed: ChangeMask,
    /// Whether a previous capture exists to compare against.
    captured: bool,
}

impl SystemSnapshot {
    /// An empty snapshot (fill with [`SystemSnapshot::capture`]).
    pub fn new() -> SystemSnapshot {
        SystemSnapshot::default()
    }

    /// Capture `sys` into this snapshot, reusing all buffers, in one pass
    /// per section: each value read from the live system is compared
    /// bitwise with the copy it overwrites, and [`SystemSnapshot::changed`]
    /// records which sections differed. A copy a caller perturbed since the
    /// previous capture (observation faults rewrite chip power, cluster
    /// powers and `hottest` in place) compares as dirty and is overwritten
    /// with the live value.
    pub fn capture(&mut self, sys: &System) {
        let chip = sys.chip();
        self.now = sys.now();

        // Static topology: built once, then only dynamic fields refresh.
        if self.clusters.len() != chip.clusters().len() {
            self.clusters = chip
                .clusters()
                .iter()
                .map(|cl| ClusterSnap {
                    id: cl.id(),
                    class: cl.class(),
                    level: 0,
                    effective_target: 0,
                    off: false,
                    supply_per_core: ProcessingUnits::ZERO,
                    power: Watts::ZERO,
                    ladder: cl.table().iter().map(|(_, p)| p.supply()).collect(),
                    cores: cl.cores().to_vec(),
                })
                .collect();
        }
        if self.cores.len() != chip.cores().len() {
            self.cores = chip
                .cores()
                .iter()
                .map(|d| CoreSnap {
                    id: d.id(),
                    cluster: d.cluster(),
                    class: d.class(),
                    utilization: 0.0,
                    supply: ProcessingUnits::ZERO,
                    max_supply: chip.core_max_supply(d.id()),
                })
                .collect();
        }

        let chip_power = sys.chip_power();
        let hottest = sys.thermal().map(|t| t.hottest());
        let chip_dirty = !(same(self.chip_power.value(), chip_power.value())
            && self.hottest.map(|c| c.value().to_bits()) == hottest.map(|c| c.value().to_bits()));
        self.chip_power = chip_power;
        self.hottest = hottest;

        let mut clusters_dirty = false;
        for (snap, cl) in self.clusters.iter_mut().zip(chip.clusters()) {
            let level = cl.level().0;
            let effective_target = cl.effective_target().0;
            let off = cl.is_off();
            let supply_per_core = cl.supply_per_core();
            let power = sys.cluster_power(cl.id());
            clusters_dirty |= !(snap.level == level
                && snap.effective_target == effective_target
                && snap.off == off
                && same(snap.supply_per_core.value(), supply_per_core.value())
                && same(snap.power.value(), power.value()));
            snap.level = level;
            snap.effective_target = effective_target;
            snap.off = off;
            snap.supply_per_core = supply_per_core;
            snap.power = power;
        }

        let mut cores_dirty = false;
        for (snap, d) in self.cores.iter_mut().zip(chip.cores()) {
            let utilization = sys.core_utilization(d.id());
            let supply = chip.core_supply(d.id());
            cores_dirty |=
                !(same(snap.utilization, utilization) && same(snap.supply.value(), supply.value()));
            snap.utilization = utilization;
            snap.supply = supply;
        }

        // Task section: slot `k` holds the k-th active task, so a steady
        // population overwrites in place and only a membership change
        // grows or truncates the vector.
        let mut tasks_dirty = false;
        let mut n = 0;
        for id in sys.task_iter() {
            let task = sys.task(id);
            let core = sys.core_of(id);
            let class = chip.core(core).class();
            let live = TaskSnap {
                id,
                core,
                priority: task.priority().value(),
                share: sys.share_of(id),
                granted: sys.granted(id),
                pelt_load: sys.pelt_load(id),
                stalled: sys.is_stalled(id),
                heart_rate: task.heart_rate(),
                target_rate: task.spec().target_range().target(),
                demand: task.demand(class, class),
                // Pressure-scaled for open-loop tasks (== raw profile for
                // closed-loop, so committed digests are untouched).
                demand_little: task.planning_demand(CoreClass::Little),
                demand_big: task.planning_demand(CoreClass::Big),
                cost_per_beat: task.measured_cost_per_beat(),
                open_loop: task.open_loop_snap(),
            };
            match self.tasks.get_mut(n) {
                Some(slot) => {
                    if !slot.same_bits(&live) {
                        *slot = live;
                        tasks_dirty = true;
                    }
                }
                None => {
                    self.tasks.push(live);
                    tasks_dirty = true;
                }
            }
            n += 1;
        }
        if self.tasks.len() != n {
            self.tasks.truncate(n);
            tasks_dirty = true;
        }

        self.changed = if self.captured {
            ChangeMask {
                chip: chip_dirty,
                tasks: tasks_dirty,
                cores: cores_dirty,
                clusters: clusters_dirty,
            }
        } else {
            ChangeMask::ALL
        };
        self.captured = true;
    }

    /// The snapshot of `task`, if active (binary search — tasks are sorted).
    pub fn task(&self, task: TaskId) -> Option<&TaskSnap> {
        self.tasks
            .binary_search_by_key(&task, |t| t.id)
            .ok()
            .map(|i| &self.tasks[i])
    }

    /// The snapshot of `core`.
    pub fn core(&self, core: CoreId) -> &CoreSnap {
        &self.cores[core.0]
    }

    /// The snapshot of `cluster`.
    pub fn cluster(&self, cluster: ClusterId) -> &ClusterSnap {
        &self.clusters[cluster.0]
    }

    /// Tasks mapped to `core`, ascending by id.
    pub fn tasks_on(&self, core: CoreId) -> impl Iterator<Item = &TaskSnap> + '_ {
        self.tasks.iter().filter(move |t| t.core == core)
    }

    /// Whether any task is mapped to a core of `cluster`.
    pub fn cluster_has_tasks(&self, cluster: ClusterId) -> bool {
        self.tasks
            .iter()
            .any(|t| self.core(t.core).cluster == cluster)
    }

    /// FNV-1a digest over the full observable state, for tape records.
    /// Stable across platforms and hasher seeds (unlike `DefaultHasher`).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.now.as_micros());
        h.f64(self.chip_power.value());
        match self.hottest {
            Some(c) => {
                h.u64(1);
                h.f64(c.value());
            }
            None => h.u64(0),
        }
        h.u64(self.tasks.len() as u64);
        for t in &self.tasks {
            h.u64(t.id.0 as u64);
            h.u64(t.core.0 as u64);
            h.u64(u64::from(t.priority));
            h.f64(t.share.value());
            h.f64(t.granted.value());
            h.f64(t.pelt_load);
            h.u64(u64::from(t.stalled));
            h.f64(t.heart_rate);
            h.f64(t.target_rate);
            h.f64(t.demand.value());
            h.f64(t.demand_little.value());
            h.f64(t.demand_big.value());
            match t.cost_per_beat {
                Some(c) => {
                    h.u64(1);
                    h.f64(c);
                }
                None => h.u64(0),
            }
            if let Some(o) = t.open_loop {
                h.u64(1);
                h.u64(u64::from(o.queue_depth));
                h.f64(o.p99_ms);
                h.f64(o.slo_ms);
                h.u64(o.shed);
            }
        }
        for c in &self.cores {
            h.f64(c.utilization);
            h.f64(c.supply.value());
        }
        for cl in &self.clusters {
            h.u64(cl.level as u64);
            h.u64(cl.effective_target as u64);
            h.u64(u64::from(cl.off));
            h.f64(cl.supply_per_core.value());
            h.f64(cl.power.value());
        }
        h.finish()
    }
}

/// Minimal FNV-1a, enough for stable tape digests. Byte-wise and frozen:
/// every committed golden tape carries digests computed with it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Bitwise `f64` equality: `-0.0 != 0.0`, and a NaN equals only the same
/// NaN payload.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::AllocationPolicy;
    use ppm_platform::chip::Chip;
    use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm_workload::task::{Priority, Task};

    fn sys_with_tasks(n: usize) -> System {
        let mut sys = System::new(Chip::tc2(), AllocationPolicy::Market);
        for i in 0..n {
            sys.add_task(
                Task::new(
                    TaskId(i),
                    BenchmarkSpec::of(Benchmark::Blackscholes, Input::Large).expect("variant"),
                    Priority(1),
                ),
                CoreId(i % 3),
            );
        }
        sys
    }

    #[test]
    fn capture_mirrors_system_state() {
        let mut sys = sys_with_tasks(3);
        sys.set_share(TaskId(1), ProcessingUnits(99.0));
        sys.power_off(ClusterId(1));
        let mut snap = SystemSnapshot::new();
        snap.capture(&sys);

        assert_eq!(snap.tasks.len(), 3);
        assert_eq!(
            snap.task(TaskId(1)).expect("t1").share,
            ProcessingUnits(99.0)
        );
        assert_eq!(snap.task(TaskId(2)).expect("t2").core, CoreId(2));
        assert!(snap.task(TaskId(7)).is_none());
        assert!(snap.cluster(ClusterId(1)).off);
        assert!(!snap.cluster(ClusterId(0)).off);
        assert_eq!(snap.cores.len(), sys.chip().cores().len());
        assert_eq!(snap.tasks_on(CoreId(0)).count(), 1);
        assert!(snap.cluster_has_tasks(ClusterId(0)));
        assert!(!snap.cluster_has_tasks(ClusterId(1)));
    }

    #[test]
    fn ladder_arithmetic_mirrors_vf_table() {
        let sys = sys_with_tasks(1);
        let mut snap = SystemSnapshot::new();
        snap.capture(&sys);
        let cl = snap.cluster(ClusterId(0));
        let table = sys.chip().cluster(ClusterId(0)).table();
        assert_eq!(cl.max_level(), table.max_level().0);
        assert_eq!(
            cl.step_up(),
            table.step_up(sys.chip().cluster(ClusterId(0)).level()).0
        );
        for d in [0.0, 200.0, 349.0, 351.0, 999.0, 1000.0, 5000.0] {
            assert_eq!(
                cl.level_for_demand(ProcessingUnits(d)),
                table.level_for_demand(ProcessingUnits(d)).0,
                "demand {d}"
            );
        }
        assert_eq!(
            cl.supply_up(),
            Some(
                table
                    .point(table.step_up(ppm_platform::vf::VfLevel(0)))
                    .supply()
            )
        );
        assert_eq!(cl.supply_down(), None);
    }

    #[test]
    fn digest_is_sensitive_and_reproducible() {
        let mut sys = sys_with_tasks(2);
        let mut a = SystemSnapshot::new();
        a.capture(&sys);
        let mut b = SystemSnapshot::new();
        b.capture(&sys);
        assert_eq!(a.digest(), b.digest());
        sys.set_share(TaskId(0), ProcessingUnits(1.0));
        b.capture(&sys);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn tape_digest_stays_bytewise_fnv() {
        // Every committed golden tape carries `digest()` values; pin one so
        // a change to the tape hash cannot hide behind regenerated goldens.
        let mut sys = sys_with_tasks(3);
        sys.set_share(TaskId(1), ProcessingUnits(99.0));
        sys.power_off(ClusterId(1));
        let mut snap = SystemSnapshot::new();
        snap.capture(&sys);
        assert_eq!(snap.digest(), 0x80a6_fb19_5579_fd5b);
    }

    #[test]
    fn task_section_digest_sees_two_sign_flips() {
        let mut sys = sys_with_tasks(2);
        sys.set_share(TaskId(0), ProcessingUnits(120.0));
        let mut snap = SystemSnapshot::new();
        snap.capture(&sys);
        snap.capture(&sys);
        assert!(!snap.changed.tasks);
        // Share and grant are stored back to back and now differ only in
        // bit 63; an XOR-folding change detector would let the second flip
        // cancel the first.
        sys.flip_share_and_grant_signs(TaskId(0));
        snap.capture(&sys);
        assert!(snap.changed.tasks, "two sign flips must dirty the tasks");
        assert_eq!(
            snap.task(TaskId(0)).expect("t0").share,
            ProcessingUnits(-120.0)
        );
    }

    #[test]
    fn change_mask_tracks_sections_across_captures() {
        let mut sys = sys_with_tasks(2);
        let mut snap = SystemSnapshot::new();

        snap.capture(&sys);
        assert_eq!(snap.changed, ChangeMask::ALL, "first capture is all-dirty");
        assert_eq!(snap.changed.dirty_sections(), 4);

        snap.capture(&sys);
        assert!(!snap.changed.any(), "identical recapture must be clean");
        assert_eq!(snap.changed.dirty_sections(), 0);

        sys.set_share(TaskId(0), ProcessingUnits(42.0));
        snap.capture(&sys);
        assert!(snap.changed.tasks, "share write dirties the task section");
        assert!(!snap.changed.chip);
        assert!(!snap.changed.cores);
        assert!(!snap.changed.clusters);

        sys.power_off(ClusterId(1));
        snap.capture(&sys);
        assert!(snap.changed.clusters, "gating dirties the cluster section");
        assert!(snap.changed.cores, "gating zeroes the cores' supply");
        assert!(!snap.changed.tasks);
    }

    #[test]
    fn identical_recapture_is_clean() {
        let mut sys = sys_with_tasks(3);
        sys.set_share(TaskId(1), ProcessingUnits(17.0));
        let mut snap = SystemSnapshot::new();
        snap.capture(&sys);
        let frozen = format!("{:?} {:?} {:?}", snap.tasks, snap.cores, snap.clusters);
        for _ in 0..3 {
            snap.capture(&sys);
            assert_eq!(snap.changed.dirty_sections(), 0, "{:?}", snap.changed);
        }
        assert_eq!(
            format!("{:?} {:?} {:?}", snap.tasks, snap.cores, snap.clusters),
            frozen
        );
    }

    #[test]
    fn zero_share_sign_flip_dirties_the_tasks() {
        // A fresh task's share and grant are +0.0, which compare equal to
        // -0.0 as floats; the bitwise comparison must still see the flip.
        let mut sys = sys_with_tasks(2);
        let mut snap = SystemSnapshot::new();
        snap.capture(&sys);
        snap.capture(&sys);
        assert!(!snap.changed.tasks);
        sys.flip_share_and_grant_signs(TaskId(1));
        snap.capture(&sys);
        assert!(snap.changed.tasks, "0.0 -> -0.0 must dirty the tasks");
        let t1 = snap.task(TaskId(1)).expect("t1");
        assert!(t1.share.value().is_sign_negative());
        assert!(t1.granted.value().is_sign_negative());
        assert!(!snap.changed.chip && !snap.changed.cores && !snap.changed.clusters);
    }

    #[test]
    fn removing_a_task_dirties_the_tasks() {
        let mut sys = sys_with_tasks(3);
        let mut snap = SystemSnapshot::new();
        snap.capture(&sys);
        snap.capture(&sys);
        assert!(!snap.changed.tasks);
        sys.remove_task(TaskId(2));
        snap.capture(&sys);
        assert!(snap.changed.tasks, "a departure must dirty the tasks");
        assert_eq!(snap.tasks.len(), 2);
        assert!(snap.task(TaskId(2)).is_none());
        snap.capture(&sys);
        assert!(!snap.changed.tasks, "the shorter section then reads clean");
    }

    #[test]
    fn perturbed_chip_and_cluster_power_are_restored() {
        let mut sys = sys_with_tasks(2);
        sys.set_share(TaskId(0), ProcessingUnits(80.0));
        let mut reference = SystemSnapshot::new();
        reference.capture(&sys);
        let mut snap = SystemSnapshot::new();
        snap.capture(&sys);

        snap.chip_power = Watts(123.0);
        snap.capture(&sys);
        assert!(snap.changed.chip, "a perturbed chip power reads dirty");
        assert!(!snap.changed.tasks && !snap.changed.cores && !snap.changed.clusters);
        assert_eq!(
            snap.chip_power.value().to_bits(),
            sys.chip_power().value().to_bits()
        );
        assert_eq!(snap.digest(), reference.digest());

        snap.clusters[1].power = Watts(-0.0);
        snap.capture(&sys);
        assert!(
            snap.changed.clusters,
            "a perturbed cluster power reads dirty"
        );
        assert!(!snap.changed.chip && !snap.changed.tasks && !snap.changed.cores);
        assert_eq!(
            snap.cluster(ClusterId(1)).power.value().to_bits(),
            sys.cluster_power(ClusterId(1)).value().to_bits()
        );
        assert_eq!(snap.digest(), reference.digest());

        snap.capture(&sys);
        assert!(!snap.changed.any(), "restored copies then read clean");
    }

    #[test]
    fn every_perturbed_task_field_is_restored() {
        let mut sys = sys_with_tasks(2);
        sys.set_share(TaskId(0), ProcessingUnits(80.0));
        let mut snap = SystemSnapshot::new();
        snap.capture(&sys);
        let reference = snap.digest();
        let perturb: [fn(&mut TaskSnap); 14] = [
            |t| t.id = TaskId(9),
            |t| t.core = CoreId(4),
            |t| t.priority += 1,
            |t| t.share = ProcessingUnits(-t.share.value()),
            |t| t.granted = ProcessingUnits(-t.granted.value()),
            |t| t.pelt_load = -t.pelt_load,
            |t| t.stalled = !t.stalled,
            |t| t.heart_rate = -t.heart_rate,
            |t| t.target_rate += 1.0,
            |t| t.demand = ProcessingUnits(-t.demand.value()),
            |t| t.demand_little += ProcessingUnits(1.0),
            |t| t.demand_big += ProcessingUnits(1.0),
            |t| t.cost_per_beat = Some(t.cost_per_beat.unwrap_or(0.0) + 1.0),
            |t| {
                t.open_loop = Some(OpenLoopSnap {
                    queue_depth: 1,
                    p99_ms: 2.0,
                    slo_ms: 3.0,
                    shed: 4,
                })
            },
        ];
        for (k, f) in perturb.iter().enumerate() {
            f(&mut snap.tasks[0]);
            snap.capture(&sys);
            assert!(snap.changed.tasks, "field {k}: perturbation unseen");
            assert_eq!(snap.digest(), reference, "field {k}: not restored");
        }
    }

    #[test]
    fn recapture_reuses_buffers() {
        let sys = sys_with_tasks(3);
        let mut snap = SystemSnapshot::new();
        snap.capture(&sys);
        let tasks_cap = snap.tasks.capacity();
        let d0 = snap.digest();
        snap.capture(&sys);
        assert_eq!(snap.tasks.capacity(), tasks_cap);
        assert_eq!(snap.digest(), d0);
    }
}
