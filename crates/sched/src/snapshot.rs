//! System snapshots: the *snapshot-in* half of the manager boundary.
//!
//! Once per quantum the executor captures the whole observable system state
//! — supplies, powers, utilizations, task telemetry — into a reused
//! [`SystemSnapshot`]. Managers read only this (never the live
//! [`System`](crate::executor::System)), which makes every policy a pure
//! `snapshot → plan` function: replayable, diffable, and safe to run while
//! the executor state is elsewhere. The snapshot is a strict superset of the
//! market's `MarketObs` and of what the HPM/HL baselines poll ad hoc.
//!
//! Capture reuses all buffers: after the first few quanta (static topology
//! vectors are built once) a steady-state capture performs **zero heap
//! allocation** — see `tests/zero_alloc.rs`. Every dynamic section is
//! additionally gated on a live-state sub-digest, so a capture whose
//! telemetry has not moved skips the refresh entirely. The chip-scalar,
//! core, and cluster gates only engage when the caller vouches that the
//! snapshot's copies were not perturbed since the previous capture
//! ([`SystemSnapshot::capture_gated`] with `sections_trusted`) — the
//! executor passes that exactly when no `FaultPlan` is attached, because
//! observation faults rewrite chip power, cluster powers, and `hottest`
//! in place after capture; faulted runs keep the always-re-read path.

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
/// Derived from per-section word-wise sub-digests compared across consecutive
/// [`SystemSnapshot::capture`] calls. Capture time (`now`) is deliberately
/// excluded — it advances every quantum and carries no decision input.
///
/// Digest equality is **probabilistic** (a 64-bit collision could mark a
/// changed section clean), so the mask is advisory: use it to skip cheap
/// bookkeeping or as a fast pre-filter, but any consumer that needs a hard
/// bit-identity guarantee must confirm with an exact comparison of the data
/// it depends on.
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
    /// What changed since the previous capture (advisory — see [`ChangeMask`]).
    pub changed: ChangeMask,
    /// Previous capture's per-section sub-digests, `None` before the first.
    prev_sections: Option<[u64; 4]>,
    /// How many captures actually rebuilt the task section (stat).
    task_rebuilds: u64,
    /// How many captures refreshed any of the chip/core/cluster dynamic
    /// sections (stat; untrusted captures always count).
    dynamic_refreshes: u64,
}

impl SystemSnapshot {
    /// An empty snapshot (fill with [`SystemSnapshot::capture`]).
    pub fn new() -> SystemSnapshot {
        SystemSnapshot::default()
    }

    /// Capture `sys` into this snapshot, reusing all buffers. Equivalent
    /// to [`SystemSnapshot::capture_gated`] with `sections_trusted` false
    /// — the safe default for callers that may mutate the snapshot's
    /// copies between captures.
    pub fn capture(&mut self, sys: &System) {
        self.capture_gated(sys, false);
    }

    /// Capture `sys`, additionally gating the chip-scalar, core, and
    /// cluster refreshes on live-state sub-digests when `sections_trusted`
    /// is true. Trusted means: nothing mutated this snapshot's copies
    /// since the previous `capture*` call (the executor vouches for that
    /// exactly when no fault plan is attached — observation faults rewrite
    /// chip power, cluster powers, and `hottest` in place). The task
    /// section is always digest-gated; its live values are never perturbed
    /// in place. All gates share [`ChangeMask`]'s 64-bit collision caveat.
    pub fn capture_gated(&mut self, sys: &System, sections_trusted: bool) {
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
        // Dynamic sections: the live-side digests double as the section
        // digests below (they hash exactly the fields a refresh would
        // store, in exactly the same order), so a trusted capture whose
        // digest matches the previous one skips the refresh entirely — the
        // snapshot already holds those bytes.
        let chip_digest = Self::live_chip_digest(sys);
        let cores_digest = Self::live_cores_digest(sys);
        let clusters_digest = Self::live_clusters_digest(sys);
        let trusted_prev = if sections_trusted {
            self.prev_sections
        } else {
            None
        };
        let chip_clean = trusted_prev.is_some_and(|p| p[0] == chip_digest);
        let cores_clean = trusted_prev.is_some_and(|p| p[2] == cores_digest);
        let clusters_clean = trusted_prev.is_some_and(|p| p[3] == clusters_digest);
        if !(chip_clean && cores_clean && clusters_clean) {
            self.dynamic_refreshes += 1;
        }
        if !chip_clean {
            self.chip_power = sys.chip_power();
            self.hottest = sys.thermal().map(|t| t.hottest());
        }
        if !clusters_clean {
            for (snap, cl) in self.clusters.iter_mut().zip(chip.clusters()) {
                snap.level = cl.level().0;
                snap.effective_target = cl.effective_target().0;
                snap.off = cl.is_off();
                snap.supply_per_core = cl.supply_per_core();
                snap.power = sys.cluster_power(cl.id());
            }
        }
        if !cores_clean {
            for (snap, d) in self.cores.iter_mut().zip(chip.cores()) {
                snap.utilization = sys.core_utilization(d.id());
                snap.supply = chip.core_supply(d.id());
            }
        }
        debug_assert_eq!(
            chip_digest,
            self.chip_digest(),
            "live and snapshot chip digests drifted apart"
        );
        debug_assert_eq!(
            cores_digest,
            self.cores_digest(),
            "live and snapshot core digests drifted apart"
        );
        debug_assert_eq!(
            clusters_digest,
            self.clusters_digest(),
            "live and snapshot cluster digests drifted apart"
        );

        // Task section: the rebuild walks every task through half a dozen
        // telemetry accessors, so it is gated on a digest of the *live*
        // values (never the snapshot's own copy, which observation faults
        // may have perturbed after the previous capture — those only touch
        // chip power, cluster powers, and `hottest`, all refreshed above).
        // In steady state telemetry converges and the section digest stops
        // moving, so the common case is one read-only pass and no writes.
        // The gate shares ChangeMask's 64-bit-collision caveat.
        let tasks_digest = Self::live_tasks_digest(sys);
        let tasks_clean = self
            .prev_sections
            .is_some_and(|prev| prev[1] == tasks_digest);
        if !tasks_clean {
            self.task_rebuilds += 1;
            self.tasks.clear();
            self.tasks.extend(sys.task_iter().map(|id| {
                let task = sys.task(id);
                let core = sys.core_of(id);
                let class = chip.core(core).class();
                TaskSnap {
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
                    // Pressure-scaled for open-loop tasks (== raw profile
                    // for closed-loop, so committed digests are untouched).
                    demand_little: task.planning_demand(CoreClass::Little),
                    demand_big: task.planning_demand(CoreClass::Big),
                    cost_per_beat: task.measured_cost_per_beat(),
                    open_loop: task.open_loop_snap(),
                }
            }));
        }
        debug_assert_eq!(
            tasks_digest,
            Self::tasks_section_digest(&self.tasks),
            "live and snapshot task digests drifted apart"
        );

        let sections = [chip_digest, tasks_digest, cores_digest, clusters_digest];
        self.changed = match self.prev_sections {
            Some(prev) => ChangeMask {
                chip: sections[0] != prev[0],
                tasks: sections[1] != prev[1],
                cores: sections[2] != prev[2],
                clusters: sections[3] != prev[3],
            },
            None => ChangeMask::ALL,
        };
        self.prev_sections = Some(sections);
    }

    /// How many captures so far rebuilt the task section (the rest were
    /// digest-gated to a read-only pass).
    pub fn task_rebuilds(&self) -> u64 {
        self.task_rebuilds
    }

    /// How many captures so far refreshed any of the chip-scalar, core, or
    /// cluster dynamic sections (untrusted captures always refresh; see
    /// [`SystemSnapshot::capture_gated`]).
    pub fn dynamic_refreshes(&self) -> u64 {
        self.dynamic_refreshes
    }

    // Per-section sub-digests: chip scalars, tasks, cores, clusters. `now`
    // is excluded (see [`ChangeMask`]); otherwise these cover the same
    // fields as [`SystemSnapshot::digest`]. They hash a word at a time
    // ([`WordHash`]); `digest` stays byte-wise FNV-1a so tape digests are
    // unaffected.

    fn chip_digest(&self) -> u64 {
        let mut chip = WordHash::new();
        chip.f64(self.chip_power.value());
        match self.hottest {
            Some(c) => {
                chip.u64(1);
                chip.f64(c.value());
            }
            None => chip.u64(0),
        }
        chip.finish()
    }

    /// Chip-scalar digest streamed straight from the live system —
    /// [`Self::chip_digest`] is its snapshot-side twin.
    fn live_chip_digest(sys: &System) -> u64 {
        let mut h = WordHash::new();
        h.f64(sys.chip_power().value());
        match sys.thermal().map(|t| t.hottest()) {
            Some(c) => {
                h.u64(1);
                h.f64(c.value());
            }
            None => h.u64(0),
        }
        h.finish()
    }

    /// Core-section digest streamed straight from the live system —
    /// [`Self::cores_digest`] is its snapshot-side twin.
    fn live_cores_digest(sys: &System) -> u64 {
        let chip = sys.chip();
        let mut h = WordHash::new();
        h.u64(chip.cores().len() as u64);
        for d in chip.cores() {
            h.f64(sys.core_utilization(d.id()));
            h.f64(chip.core_supply(d.id()).value());
        }
        h.finish()
    }

    /// Cluster-section digest streamed straight from the live system —
    /// [`Self::clusters_digest`] is its snapshot-side twin.
    fn live_clusters_digest(sys: &System) -> u64 {
        let chip = sys.chip();
        let mut h = WordHash::new();
        h.u64(chip.clusters().len() as u64);
        for cl in chip.clusters() {
            h.u64(cl.level().0 as u64);
            h.u64(cl.effective_target().0 as u64);
            h.u64(u64::from(cl.is_off()));
            h.f64(cl.supply_per_core().value());
            h.f64(sys.cluster_power(cl.id()).value());
        }
        h.finish()
    }

    /// Task-section digest streamed straight from the live system, hashing
    /// exactly the fields (in exactly the order) a rebuild would store —
    /// [`Self::tasks_section_digest`] is its snapshot-side twin, and
    /// `capture` debug-asserts the two stay in lockstep.
    fn live_tasks_digest(sys: &System) -> u64 {
        let chip = sys.chip();
        let mut h = WordHash::new();
        // Length prefix counts *active* tasks (`task_count` also counts
        // removed ids, which stay allocated).
        h.u64(sys.task_iter().count() as u64);
        for id in sys.task_iter() {
            let task = sys.task(id);
            let core = sys.core_of(id);
            let class = chip.core(core).class();
            h.u64(id.0 as u64);
            h.u64(core.0 as u64);
            h.u64(u64::from(task.priority().value()));
            h.f64(sys.share_of(id).value());
            h.f64(sys.granted(id).value());
            h.f64(sys.pelt_load(id));
            h.u64(u64::from(sys.is_stalled(id)));
            h.f64(task.heart_rate());
            h.f64(task.spec().target_range().target());
            h.f64(task.demand(class, class).value());
            h.f64(task.planning_demand(CoreClass::Little).value());
            h.f64(task.planning_demand(CoreClass::Big).value());
            match task.measured_cost_per_beat() {
                Some(c) => {
                    h.u64(1);
                    h.f64(c);
                }
                None => h.u64(0),
            }
            // Hashed only when present so closed-loop digests (and the
            // committed golden tapes built from them) are byte-unchanged.
            if let Some(o) = task.open_loop_snap() {
                h.u64(1);
                h.u64(u64::from(o.queue_depth));
                h.f64(o.p99_ms);
                h.f64(o.slo_ms);
                h.u64(o.shed);
            }
        }
        h.finish()
    }

    fn tasks_section_digest(tasks: &[TaskSnap]) -> u64 {
        let mut h = WordHash::new();
        h.u64(tasks.len() as u64);
        for t in tasks {
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
        h.finish()
    }

    fn cores_digest(&self) -> u64 {
        let mut cores = WordHash::new();
        cores.u64(self.cores.len() as u64);
        for c in &self.cores {
            cores.f64(c.utilization);
            cores.f64(c.supply.value());
        }
        cores.finish()
    }

    fn clusters_digest(&self) -> u64 {
        let mut clusters = WordHash::new();
        clusters.u64(self.clusters.len() as u64);
        for cl in &self.clusters {
            clusters.u64(cl.level as u64);
            clusters.u64(cl.effective_target as u64);
            clusters.u64(u64::from(cl.off));
            clusters.f64(cl.supply_per_core.value());
            clusters.f64(cl.power.value());
        }
        clusters.finish()
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

/// Word-at-a-time hash for the change-detection sub-digests: one multiply
/// per field where byte-wise FNV-1a spends eight dependent ones. The
/// xor-shift after each multiply folds the high half back down; without it
/// (bare `h ^= w; h *= prime`) a difference confined to bit 63 stays in
/// bit 63 forever, so two sign flips would cancel.
struct WordHash(u64);

impl WordHash {
    fn new() -> WordHash {
        WordHash(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 ^= self.0 >> 32;
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn finish(&self) -> u64 {
        self.0
    }
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
        // Share and grant are hashed back to back and now differ only in
        // bit 63. Bare word-wise FNV keeps a bit-63 difference in bit 63,
        // so the second flip would cancel the first.
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
    fn steady_recapture_skips_the_task_rebuild() {
        let mut sys = sys_with_tasks(3);
        let mut snap = SystemSnapshot::new();
        snap.capture(&sys);
        assert_eq!(snap.task_rebuilds(), 1, "first capture always rebuilds");
        let frozen = format!("{:?}", snap.tasks);

        snap.capture(&sys);
        snap.capture(&sys);
        assert_eq!(snap.task_rebuilds(), 1, "identical recaptures are gated");
        assert_eq!(format!("{:?}", snap.tasks), frozen);

        sys.set_share(TaskId(2), ProcessingUnits(17.0));
        snap.capture(&sys);
        assert_eq!(snap.task_rebuilds(), 2, "a task change forces a rebuild");
        assert_eq!(
            snap.task(TaskId(2)).expect("t2").share,
            ProcessingUnits(17.0)
        );

        sys.remove_task(TaskId(0));
        snap.capture(&sys);
        assert_eq!(
            snap.task_rebuilds(),
            3,
            "membership change forces a rebuild"
        );
        assert_eq!(snap.tasks.len(), 2);
    }

    #[test]
    fn trusted_recapture_skips_the_dynamic_refresh() {
        let mut sys = sys_with_tasks(2);
        let mut snap = SystemSnapshot::new();
        snap.capture_gated(&sys, true);
        assert_eq!(
            snap.dynamic_refreshes(),
            1,
            "first capture always refreshes"
        );
        let frozen = format!("{:?} {:?}", snap.cores, snap.clusters);

        snap.capture_gated(&sys, true);
        snap.capture_gated(&sys, true);
        assert_eq!(
            snap.dynamic_refreshes(),
            1,
            "steady trusted recaptures are gated"
        );
        assert_eq!(format!("{:?} {:?}", snap.cores, snap.clusters), frozen);

        sys.power_off(ClusterId(1));
        snap.capture_gated(&sys, true);
        assert_eq!(snap.dynamic_refreshes(), 2, "gating forces a refresh");
        assert!(snap.cluster(ClusterId(1)).off);
    }

    #[test]
    fn untrusted_recapture_always_refreshes() {
        let sys = sys_with_tasks(1);
        let mut snap = SystemSnapshot::new();
        snap.capture(&sys);
        snap.capture(&sys);
        snap.capture_gated(&sys, false);
        assert_eq!(snap.dynamic_refreshes(), 3);
    }

    #[test]
    fn live_and_snapshot_task_digests_agree() {
        let mut sys = sys_with_tasks(4);
        sys.set_share(TaskId(1), ProcessingUnits(3.5));
        let mut snap = SystemSnapshot::new();
        snap.capture(&sys);
        assert_eq!(
            SystemSnapshot::live_tasks_digest(&sys),
            SystemSnapshot::tasks_section_digest(&snap.tasks)
        );
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
