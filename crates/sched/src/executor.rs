//! The simulation executor: dispatches cycles to tasks, integrates power,
//! applies migrations with their latency, and drives a [`PowerManager`].
//!
//! The executor is the stand-in for "the rest of Linux" in the paper's
//! setup: it provides run queues, affinity-based migration, sensors, and a
//! periodic hook where a power-management policy (PPM, HPM, HL, …) observes
//! the system and actuates its knobs (shares/nice values, DVFS requests,
//! task migration, cluster gating).

use std::time::Instant;

use ppm_obs::{lap, Phase, Telemetry};
use ppm_platform::chip::Chip;
use ppm_platform::cluster::ClusterId;
use ppm_platform::core::CoreId;
use ppm_platform::faults::{ActuationOutcome, FaultPlan};
use ppm_platform::thermal::{Celsius, ThermalModel};
use ppm_platform::units::{ProcessingUnits, SimDuration, SimTime, Watts};
use ppm_platform::vf::VfLevel;
use ppm_workload::heartbeat::HeartbeatWindows;
use ppm_workload::task::{Task, TaskId};

use crate::affinity::CpuMask;
use crate::audit::Auditor;
use crate::metrics::{Degradation, RunMetrics};
use crate::nice::Nice;
use crate::pelt::PeltTracker;
use crate::plan::{Action, ActuationPlan, Tape};
use crate::runqueue::{fair_allocate_into, market_allocate_into, AllocScratch, Claimant};
use crate::snapshot::SystemSnapshot;

/// The profiler [`PowerManager::plan`] reports sub-phase spans into,
/// re-exported so implementers need no `ppm-obs` dependency of their own.
pub use ppm_obs::PhaseProfiler;

/// How a core's supply is divided among its tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationPolicy {
    /// Explicit PU shares set by the manager (the market's `s_t`), as the
    /// paper realises through nice-value manipulation.
    Market,
    /// CFS weighted fair sharing from nice values.
    FairWeights,
}

/// Per-task dynamic state tracked by the executor.
#[derive(Debug)]
struct TaskEntry {
    task: Task,
    core: CoreId,
    share: ProcessingUnits,
    nice: Nice,
    affinity: CpuMask,
    stalled_until: SimTime,
    pelt: PeltTracker,
    granted: ProcessingUnits,
    active: bool,
    /// The window's cost per beat when the task was removed: a removed
    /// task's window stops where it was.
    cost_at_exit: Option<f64>,
}

/// Reused buffers for [`System::step`]: once capacities have warmed up, a
/// steady-state quantum performs no heap allocation.
///
/// The quantum's runnable tasks are bucketed by core once, up front, in a
/// CSR (compressed sparse row) layout: core `c`'s runnable ids are
/// `by_core[start[c]..start[c + 1]]`, ascending. One counting sort over the
/// task entries fills both vectors, so finding every core's run queue costs
/// O(tasks + cores) per quantum rather than O(cores × tasks).
#[derive(Debug, Default)]
struct StepScratch {
    /// Per-cluster power for the quantum.
    power: Vec<Watts>,
    /// CSR row offsets into `by_core`, `cores + 1` long.
    start: Vec<usize>,
    /// Runnable task ids grouped by core, ascending within each core.
    by_core: Vec<TaskId>,
    /// Allocation claims of the core being processed, index-aligned with
    /// its `by_core` row.
    claims: Vec<Claimant>,
    /// Their grants, index-aligned with `claims`.
    grants: Vec<ProcessingUnits>,
    /// Per-core utilizations of the cluster being processed.
    utils: Vec<f64>,
    /// Tasks resident on the cluster being processed (static-power split).
    cluster_tasks: Vec<TaskId>,
    /// Water-filling scratch for [`fair_allocate_into`].
    alloc: AllocScratch,
}

/// The simulated system: chip + tasks + sensors, with the actuator surface a
/// power manager uses.
#[derive(Debug)]
pub struct System {
    chip: Chip,
    entries: Vec<TaskEntry>,
    policy: AllocationPolicy,
    now: SimTime,
    last_chip_power: Watts,
    last_cluster_power: Vec<Watts>,
    core_utilization: Vec<f64>,
    metrics: RunMetrics,
    /// TDP used for violation accounting in metrics (policy enforcement is
    /// the manager's job).
    tdp: Option<Watts>,
    /// Optional lumped thermal model, stepped with the cluster powers.
    thermal: Option<ThermalModel>,
    /// Every task's heart-rate window, one row per quantum.
    heartbeats: HeartbeatWindows,
    scratch: StepScratch,
}

impl System {
    /// Build a system around `chip` with the given allocation policy.
    pub fn new(chip: Chip, policy: AllocationPolicy) -> System {
        let clusters = chip.clusters().len();
        let cores = chip.cores().len();
        System {
            chip,
            entries: Vec::new(),
            policy,
            now: SimTime::ZERO,
            last_chip_power: Watts::ZERO,
            last_cluster_power: vec![Watts::ZERO; clusters],
            core_utilization: vec![0.0; cores],
            metrics: RunMetrics::new(clusters),
            tdp: None,
            thermal: None,
            heartbeats: HeartbeatWindows::new(),
            scratch: StepScratch::default(),
        }
    }

    /// Attach a thermal model (one node per cluster).
    ///
    /// # Panics
    ///
    /// Panics when the node count differs from the cluster count.
    pub fn attach_thermal(&mut self, model: ThermalModel) {
        assert_eq!(
            model.len(),
            self.chip.clusters().len(),
            "one thermal node per cluster"
        );
        self.thermal = Some(model);
    }

    /// The thermal model, if attached.
    pub fn thermal(&self) -> Option<&ThermalModel> {
        self.thermal.as_ref()
    }

    /// Temperature of `cluster`, if a thermal model is attached.
    pub fn cluster_temperature(&self, cluster: ClusterId) -> Option<Celsius> {
        self.thermal.as_ref().map(|t| t.temperature(cluster))
    }

    /// The TDP used for violation accounting, when set.
    pub fn tdp(&self) -> Option<Watts> {
        self.tdp
    }

    /// Record TDP violations against `tdp` in the metrics.
    pub fn set_tdp_accounting(&mut self, tdp: Watts) {
        self.tdp = Some(tdp);
    }

    /// Admit `task` on `core`.
    ///
    /// # Panics
    ///
    /// Panics unless task ids are admitted densely (task N is the (N+1)-th
    /// admission) and `core` exists.
    pub fn add_task(&mut self, task: Task, core: CoreId) {
        assert_eq!(
            task.id().0,
            self.entries.len(),
            "tasks must be admitted with dense ids"
        );
        assert!(core.0 < self.chip.cores().len(), "no such core");
        self.entries.push(TaskEntry {
            task,
            core,
            share: ProcessingUnits::ZERO,
            nice: Nice::DEFAULT,
            affinity: CpuMask::all(),
            stalled_until: SimTime::ZERO,
            pelt: PeltTracker::new(),
            granted: ProcessingUnits::ZERO,
            active: true,
            cost_at_exit: None,
        });
        self.heartbeats.admit();
        // Pre-size metric storage so steady-state recording never grows it.
        let levels = self
            .chip
            .clusters()
            .iter()
            .map(|c| c.table().len())
            .max()
            .unwrap_or(0);
        self.metrics.reserve(self.entries.len(), levels);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The chip (topology, V-F state, models).
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// The allocation policy in force.
    pub fn policy(&self) -> AllocationPolicy {
        self.policy
    }

    /// Change the allocation policy (managers set this in `init`).
    pub fn set_policy(&mut self, policy: AllocationPolicy) {
        self.policy = policy;
    }

    /// Ids of all *active* tasks (departed tasks are excluded).
    pub fn task_ids(&self) -> Vec<TaskId> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.active)
            .map(|(i, _)| TaskId(i))
            .collect()
    }

    /// Ids of all *active* tasks in ascending order, without allocating
    /// (the hot-path counterpart of [`System::task_ids`]).
    pub fn task_iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.active)
            .map(|(i, _)| TaskId(i))
    }

    /// True while the task is admitted and has not exited.
    pub fn is_active(&self, id: TaskId) -> bool {
        self.entries.get(id.0).is_some_and(|e| e.active)
    }

    /// Remove a task from the system (task exit). The id stays allocated —
    /// ids are dense and stable — but the task no longer runs, competes for
    /// supply, or contributes to metrics. Its heart rate and cost per beat
    /// stay what they were at removal.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never admitted.
    pub fn remove_task(&mut self, id: TaskId) {
        if self.entries[id.0].active {
            self.entries[id.0].cost_at_exit = self.heartbeats.cost_per_beat(id.0);
        }
        let e = &mut self.entries[id.0];
        e.active = false;
        e.share = ProcessingUnits::ZERO;
        e.granted = ProcessingUnits::ZERO;
    }

    /// Number of admitted tasks.
    pub fn task_count(&self) -> usize {
        self.entries.len()
    }

    /// Read access to a task.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never admitted.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.entries[id.0].task
    }

    /// The task's heart rate (hb/s) over its heartbeat window as of the
    /// last quantum.
    pub fn heart_rate(&self, id: TaskId) -> f64 {
        self.heartbeats.heart_rate(id.0)
    }

    /// The task's heart rate normalised to its target (1.0 = exactly on
    /// target), as plotted in Figures 7 and 8.
    pub fn normalized_heart_rate(&self, id: TaskId) -> f64 {
        self.heart_rate(id) / self.entries[id.0].task.spec().target_range().target()
    }

    /// The task's observed cycles per heartbeat over its heartbeat window,
    /// when enough beats have been seen: the raw signal online estimators
    /// consume, and the measurement [`Task::demand`] converts.
    pub fn cost_per_beat(&self, id: TaskId) -> Option<f64> {
        let e = &self.entries[id.0];
        if e.active {
            self.heartbeats.cost_per_beat(id.0)
        } else {
            e.cost_at_exit
        }
    }

    /// The core a task is mapped to (`c_t`).
    pub fn core_of(&self, id: TaskId) -> CoreId {
        self.entries[id.0].core
    }

    /// Tasks currently mapped to `core` (`T_c`).
    pub fn tasks_on(&self, core: CoreId) -> Vec<TaskId> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.core == core && e.active)
            .map(|(i, _)| TaskId(i))
            .collect()
    }

    /// Whether any active task is mapped to a core of `cluster` (`T_v`
    /// non-empty), without materialising the task list.
    pub fn cluster_has_tasks(&self, cluster: ClusterId) -> bool {
        self.entries
            .iter()
            .any(|e| e.active && self.chip.core(e.core).cluster() == cluster)
    }

    /// Set a task's explicit PU share (Market policy).
    pub fn set_share(&mut self, id: TaskId, share: ProcessingUnits) {
        self.entries[id.0].share = share.max(ProcessingUnits::ZERO);
    }

    /// A task's current explicit share.
    pub fn share_of(&self, id: TaskId) -> ProcessingUnits {
        self.entries[id.0].share
    }

    /// Set a task's nice value (FairWeights policy).
    pub fn set_nice(&mut self, id: TaskId, nice: Nice) {
        self.entries[id.0].nice = nice;
    }

    /// PU supply granted to the task in the last quantum — the `s_t` a task
    /// agent observes.
    pub fn granted(&self, id: TaskId) -> ProcessingUnits {
        self.entries[id.0].granted
    }

    /// The task's PELT load average.
    pub fn pelt_load(&self, id: TaskId) -> f64 {
        self.entries[id.0].pelt.load()
    }

    /// True while the task is paying a migration penalty.
    pub fn is_stalled(&self, id: TaskId) -> bool {
        self.entries[id.0].stalled_until > self.now
    }

    /// Set a task's CPU affinity (`sched_setaffinity`). The mask restricts
    /// future migrations; the task is not moved if its current core becomes
    /// disallowed (as on Linux, where the next balance pass handles it —
    /// here the manager's).
    pub fn set_affinity(&mut self, id: TaskId, mask: CpuMask) {
        self.entries[id.0].affinity = mask;
    }

    /// True when the task's affinity allows `core`.
    pub fn can_run_on(&self, id: TaskId, core: CoreId) -> bool {
        self.entries[id.0].affinity.contains(core)
    }

    /// Migrate `id` to `core`, paying the platform's migration latency
    /// (§5.1). Returns the stall applied, or `None` for a no-op (already
    /// there, or forbidden by the task's affinity mask).
    pub fn migrate(&mut self, id: TaskId, core: CoreId) -> Option<SimDuration> {
        let from_core = self.entries[id.0].core;
        if from_core == core || !self.entries[id.0].affinity.contains(core) {
            return None;
        }
        assert!(core.0 < self.chip.cores().len(), "no such core");
        let from = self.chip.cluster_of(from_core);
        let to = self.chip.cluster_of(core);
        let cost = self.chip.migration_model().cost(from, to);
        if from.id() == to.id() {
            self.metrics.migrations_intra += 1;
        } else {
            self.metrics.migrations_inter += 1;
        }
        let e = &mut self.entries[id.0];
        e.core = core;
        e.stalled_until = self.now + cost;
        // The old window no longer reflects the task's core.
        e.cost_at_exit = None;
        self.heartbeats.reset(id.0);
        Some(cost)
    }

    /// Ask a cluster regulator for `level`. Returns whether a transition was
    /// started.
    pub fn request_level(&mut self, cluster: ClusterId, level: VfLevel) -> bool {
        let now = self.now;
        self.chip.cluster_mut(cluster).request_level(level, now)
    }

    /// Power a cluster down (manager must migrate tasks away first, or they
    /// starve, as on real hardware).
    pub fn power_off(&mut self, cluster: ClusterId) {
        self.chip.cluster_mut(cluster).power_off();
    }

    /// Power a cluster back up at its lowest level.
    pub fn power_on(&mut self, cluster: ClusterId) {
        self.chip.cluster_mut(cluster).power_on();
    }

    /// Last sampled chip power (the paper's chip-agent sensor `W`).
    pub fn chip_power(&self) -> Watts {
        self.last_chip_power
    }

    /// Last sampled power of `cluster` (`W_v`).
    pub fn cluster_power(&self, cluster: ClusterId) -> Watts {
        self.last_cluster_power[cluster.0]
    }

    /// Last quantum's utilization of `core` in `[0, 1]`.
    pub fn core_utilization(&self, core: CoreId) -> f64 {
        self.core_utilization[core.0]
    }

    /// Accumulated run metrics.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Consume the system, yielding its metrics (post-run analysis).
    pub fn into_metrics(self) -> RunMetrics {
        self.metrics
    }

    /// Advance the world by one quantum `dt`: complete DVFS transitions,
    /// allocate each core's supply, execute tasks, integrate power, account
    /// metrics. `record` controls whether QoS/power metrics accumulate
    /// (false during warm-up).
    ///
    /// Each task's heartbeat totals go into the quantum's heartbeat row as
    /// the task runs (or idles), and its heart rate and QoS are accounted
    /// at that point, so every task entry is visited once.
    fn step(&mut self, dt: SimDuration, record: bool) {
        let end = self.now + dt;

        // 1. Regulators settle.
        for c in self.chip.clusters_mut() {
            if c.tick(end).is_some() {
                self.metrics.vf_transitions += 1;
            }
        }
        if record {
            for (ci, c) in self.chip.clusters().iter().enumerate() {
                if !c.is_off() {
                    self.metrics.record_residency(ci, c.level().0, dt);
                }
            }
        }

        // 2. Allocate and execute per core. All working sets live in
        // `self.scratch` — the steady state allocates nothing. Every
        // tracker has the kernel half-life: one decay serves them all.
        self.heartbeats.begin_row(end);
        let decay = PeltTracker::decay(dt, PeltTracker::KERNEL_HALF_LIFE);
        let mut any_below = self.sort_runnable_by_core(dt, end, decay, record);
        let n_clusters = self.chip.clusters().len();
        self.scratch.power.clear();
        self.scratch.power.resize(n_clusters, Watts::ZERO);
        for ci in 0..n_clusters {
            let cluster_id = ClusterId(ci);
            let class = self.chip.cluster(cluster_id).class();
            let supply = self.chip.cluster(cluster_id).supply_per_core();
            self.scratch.utils.clear();
            let mut cluster_dynamic = 0.0_f64;
            self.scratch.cluster_tasks.clear();
            let cores = self.chip.cores_of(cluster_id);
            for &core in cores {
                let row = self.scratch.start[core.0]..self.scratch.start[core.0 + 1];
                self.scratch.claims.clear();
                self.scratch
                    .claims
                    .extend(self.scratch.by_core[row.clone()].iter().map(|&id| {
                        let e = &self.entries[id.0];
                        Claimant {
                            task: id,
                            weight: e.nice.weight(),
                            share: e.share,
                            cap: e.task.consumption_cap(class, supply),
                        }
                    }));
                match self.policy {
                    AllocationPolicy::Market => {
                        market_allocate_into(supply, &self.scratch.claims, &mut self.scratch.grants)
                    }
                    AllocationPolicy::FairWeights => fair_allocate_into(
                        supply,
                        &self.scratch.claims,
                        &mut self.scratch.alloc,
                        &mut self.scratch.grants,
                    ),
                }
                let mut used = ProcessingUnits::ZERO;
                // Energy attribution: dynamic watts follow consumption
                // (C_dyn·V² per PU consumed); the cluster's static power is
                // split equally among its resident tasks after the cluster
                // power is known.
                let point = self.chip.cluster(cluster_id).point();
                let watts_per_pu = self.chip.power_model().params(class).dynamic_coeff
                    * point.voltage.volts().powi(2);
                for (k, &id) in self.scratch.by_core[row].iter().enumerate() {
                    let grant = self.scratch.grants[k];
                    let e = &mut self.entries[id.0];
                    e.granted = grant;
                    e.task.execute(grant.cycles_over(dt), class, end);
                    let hr = self.heartbeats.record(id.0, e.task.heartbeat_totals());
                    used += grant;
                    if record {
                        self.metrics.record_task_energy(
                            id,
                            Watts(watts_per_pu * grant.value()),
                            dt,
                        );
                        cluster_dynamic += watts_per_pu * grant.value();
                        self.scratch.cluster_tasks.push(id);
                        any_below |= record_qos(&mut self.metrics, id, &e.task, hr, dt);
                    }
                    // PELT: a task that could consume more than it was
                    // granted stays runnable the whole quantum.
                    let runnable = if grant.is_positive() {
                        1.0_f64.min(e.task.utilization_cap())
                    } else {
                        e.task.utilization_cap().min(1.0)
                    };
                    e.pelt.update_decayed(decay, runnable);
                }
                let util = if supply.is_positive() {
                    (used / supply).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                self.core_utilization[core.0] = util;
                self.scratch.utils.push(util);
            }
            let power = self
                .chip
                .power_model()
                .cluster_power(self.chip.cluster(cluster_id), &self.scratch.utils);
            // Static remainder (uncore + leakage) split equally among the
            // cluster's resident tasks.
            if record && !self.scratch.cluster_tasks.is_empty() {
                let static_share = (power.value() - cluster_dynamic).max(0.0)
                    / self.scratch.cluster_tasks.len() as f64;
                for k in 0..self.scratch.cluster_tasks.len() {
                    let id = self.scratch.cluster_tasks[k];
                    self.metrics.record_task_energy(id, Watts(static_share), dt);
                }
            }
            self.scratch.power[ci] = power;
        }

        // 3. Power sensors, meters, and the thermal model.
        let chip_power: Watts = self.scratch.power.iter().copied().sum();
        self.last_chip_power = chip_power;
        if let Some(thermal) = &mut self.thermal {
            thermal.step(&self.scratch.power, dt);
        }
        for ci in 0..n_clusters {
            self.last_cluster_power[ci] = self.scratch.power[ci];
        }
        if record {
            self.metrics.chip_energy.record(chip_power, dt);
            for ci in 0..n_clusters {
                let p = self.scratch.power[ci];
                self.metrics.cluster_energy[ci].record(p, dt);
            }
            // 4. System QoS: the tasks were accounted as they ran.
            let above_tdp = self.tdp.is_some_and(|t| chip_power > t);
            self.metrics.record_system(dt, any_below, above_tdp);
        }

        self.now = end;
    }

    /// Bucket this quantum's runnable entries (active, not stalled) by core
    /// into the scratch CSR with one counting sort, in ascending id order
    /// within each core. Stalled entries are idled in the same pass: they
    /// make no progress but time passes for them, and those effects touch
    /// only the entry itself, its heartbeat cell and, when `record`, its
    /// QoS metrics. Returns whether a stalled task missed its QoS goal.
    fn sort_runnable_by_core(
        &mut self,
        dt: SimDuration,
        end: SimTime,
        decay: f64,
        record: bool,
    ) -> bool {
        let now = self.now;
        let n_cores = self.chip.cores().len();
        // Counts land two slots up, so that after the prefix sum
        // `start[c + 1]` is core `c`'s first slot and can serve as its fill
        // cursor; filling leaves it at core `c`'s end, i.e. `c + 1`'s start.
        let start = &mut self.scratch.start;
        start.clear();
        start.resize(n_cores + 2, 0);
        let mut any_below = false;
        for (i, e) in self.entries.iter_mut().enumerate() {
            if !e.active {
                continue;
            }
            if e.stalled_until <= now {
                start[e.core.0 + 2] += 1;
            } else {
                e.granted = ProcessingUnits::ZERO;
                e.task.record_idle(end);
                let hr = self.heartbeats.record(i, e.task.heartbeat_totals());
                if record {
                    any_below |= record_qos(&mut self.metrics, TaskId(i), &e.task, hr, dt);
                }
                e.pelt.update_decayed(decay, 1.0); // still runnable, just not running
            }
        }
        for c in 1..start.len() {
            start[c] += start[c - 1];
        }
        let by_core = &mut self.scratch.by_core;
        by_core.clear();
        by_core.resize(start[n_cores + 1], TaskId(0));
        for (i, e) in self.entries.iter().enumerate() {
            if e.active && e.stalled_until <= now {
                let slot = &mut start[e.core.0 + 1];
                by_core[*slot] = TaskId(i);
                *slot += 1;
            }
        }
        start.pop();
        any_below
    }

    /// Validate and apply a manager's plan, action by action, in plan order.
    /// This is the only place manager decisions reach the system; each action
    /// keeps the exact semantics of the corresponding `System` method
    /// (migrations pay their latency or no-op on affinity, DVFS requests go
    /// through the regulator, shares clamp at zero).
    ///
    /// # Panics
    ///
    /// Panics when an action names a task, core, or cluster that was never
    /// admitted / does not exist — a manager bug, surfaced loudly.
    pub fn apply_plan(&mut self, plan: &ActuationPlan) {
        for &op in plan.ops() {
            match op {
                Action::SetShare(task, share) => {
                    // No-op recognition: `set_share` clamps at zero and then
                    // overwrites the entry field, so a command whose clamped
                    // value is bitwise-equal to the current share changes
                    // nothing. The plan (and hence the tape, which records
                    // the plan before application) is untouched either way.
                    let next = share.max(ProcessingUnits::ZERO);
                    if self.entries[task.0].share.0.to_bits() != next.0.to_bits() {
                        self.set_share(task, share);
                    }
                }
                Action::SetNice(task, nice) => self.set_nice(task, nice),
                Action::RequestLevel(cluster, level) => {
                    // No-op recognition: `Cluster::request_level` returns
                    // without side effects when the effective target already
                    // matches, so skipping the delegation is bit-identical.
                    if self.chip.clusters()[cluster.0].effective_target() != level {
                        self.request_level(cluster, level);
                    }
                }
                Action::Migrate(task, core) => {
                    self.migrate(task, core);
                }
                Action::PowerOn(cluster) => self.power_on(cluster),
                Action::PowerOff(cluster) => self.power_off(cluster),
            }
        }
    }
}

/// Account `task`'s QoS over a quantum of length `dt` in which its heart
/// rate was `hr`, and return whether it missed its goal. Open-loop tasks
/// miss on their p99-vs-SLO signal (for them "outside" and "below"
/// coincide: only too-slow is a QoS breach); closed-loop tasks keep
/// heart-rate semantics, and `misses_qos` is exactly `misses_below` for
/// them.
fn record_qos(metrics: &mut RunMetrics, id: TaskId, task: &Task, hr: f64, dt: SimDuration) -> bool {
    let below = task.misses_qos(hr);
    let outside = if task.open_loop().is_some() {
        below
    } else {
        !task.spec().target_range().contains(hr)
    };
    metrics.record_task(id, dt, below, outside);
    below
}

/// A chip's bid into a fleet-level power-budget exchange: the §3.2 money
/// machinery one level up. A chip that converts watts into heart-rate well
/// has high equilibrium PU prices relative to its power draw; the exchange
/// routes budget toward such chips (see `ppm-fleet`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetBid {
    /// Marginal utility: the chip market's equilibrium price mass per
    /// observed watt (heart-rate value a marginal watt buys here).
    pub value_per_watt: f64,
    /// The chip's last observed power draw (its sensor `W`).
    pub power: Watts,
    /// The power the chip would like next epoch: its draw scaled by the
    /// market's demand/supply imbalance (a starved chip asks for more, a
    /// sated one for less).
    pub desired: Watts,
}

/// A power-management policy plugged into the executor.
///
/// The boundary is *snapshot-in / plan-out*: once per quantum, *before* the
/// quantum executes, the policy reads an immutable [`SystemSnapshot`] (the
/// sensors' last readings — the same position the paper's kernel-module
/// agents occupy relative to the scheduler tick) and appends [`Action`]s to
/// an [`ActuationPlan`]. The executor validates and applies the plan in one
/// place ([`System::apply_plan`]), and can tape `(snapshot digest, plan)`
/// pairs for replay and golden-diffing.
///
/// The snapshot's chip, cluster and core sections are fresh on every
/// quantum. Its task section is fresh only on the quanta for which
/// [`PowerManager::reads_tasks`] answers `true` (and on every quantum of
/// an audited run); on the others it holds the last task capture.
pub trait PowerManager {
    /// Short policy name (used in experiment output).
    fn name(&self) -> &'static str;

    /// One-time setup: choose the allocation policy, set initial shares /
    /// affinities. This is the only hook with mutable system access.
    fn init(&mut self, _sys: &mut System) {}

    /// Whether this quantum's [`PowerManager::plan`] reads `snap.tasks`.
    /// Called every quantum after the platform sections are captured and
    /// the observation faults applied, so `snap.now`, the power readings
    /// and the cluster and core sections are this quantum's; `snap.tasks`
    /// may be stale. The executor refreshes the task section only when
    /// this answers `true`. A manager whose `plan` reads the tasks on a
    /// quantum where this said `false` sees the last task capture. The
    /// default, `true`, refreshes it every quantum.
    fn reads_tasks(&self, _snap: &SystemSnapshot) -> bool {
        true
    }

    /// Observe the snapshot and queue actuations for this quantum. To read
    /// your own queued-but-unapplied decisions (e.g. a share set earlier in
    /// this same invocation), use the plan's overlay queries.
    ///
    /// `prof` is `Some` only while the simulation profiles: a policy may
    /// report wall-time sub-phase spans into it
    /// ([`Phase::MarketBid`](ppm_obs::Phase), `MarketPrice`, `MarketDvfs`,
    /// `Lbt`) or ignore it. Timing must be observation-only — the plan
    /// produced must be byte-identical either way.
    fn plan(
        &mut self,
        snap: &SystemSnapshot,
        plan: &mut ActuationPlan,
        prof: Option<&mut PhaseProfiler>,
    );

    /// Report the policy-side market state (allowance, money supply,
    /// discovered per-core prices) into a telemetry row. Called once per
    /// quantum when telemetry is attached; managers without a market keep
    /// the default no-op (the sample stays `NaN` and exports as empty).
    fn sample_policy(&self, _out: &mut ppm_obs::PolicySample) {}

    /// Live graceful-degradation counters (see
    /// [`Degradation`]). The executor copies
    /// this into [`RunMetrics::degradation`] every quantum; the default
    /// reports zeroes.
    fn degradation(&self) -> Degradation {
        Degradation::default()
    }

    /// Check policy-internal invariants (e.g. the market's money
    /// conservation) after a quantum, reporting breaches via
    /// [`Auditor::report`]. Called only when an auditor is attached; the
    /// default does nothing.
    fn audit(&mut self, _snap: &SystemSnapshot, _auditor: &mut Auditor) {}

    /// The chip's current [`FleetBid`] into a fleet-level power-budget
    /// exchange, derived from the policy's own equilibrium (for the PPM,
    /// its discovered per-core prices). Policies without a market keep the
    /// default `None`; the exchange treats them as floor-utility bidders.
    fn fleet_bid(&self) -> Option<FleetBid> {
        None
    }

    /// Adopt `tdp` as the chip power budget for the coming epoch (the
    /// fleet exchange's cleared allowance). Returns whether the policy
    /// adopted it; the default declines, leaving the budget untouched.
    fn set_power_budget(&mut self, _tdp: Watts) -> bool {
        false
    }
}

/// A no-op manager: fixed mapping, fixed (initial) frequencies, fair
/// sharing. Useful as an experimental control and in substrate tests.
#[derive(Debug, Default, Clone)]
pub struct NullManager;

impl PowerManager for NullManager {
    fn name(&self) -> &'static str {
        "none"
    }

    fn reads_tasks(&self, _snap: &SystemSnapshot) -> bool {
        false
    }

    fn plan(
        &mut self,
        _snap: &SystemSnapshot,
        _plan: &mut ActuationPlan,
        _prof: Option<&mut PhaseProfiler>,
    ) {
    }
}

/// Simulation driver: owns the [`System`] and a manager, and advances time
/// in fixed quanta with optional tape, faults, auditor and telemetry
/// attached.
pub struct Simulation<M> {
    system: System,
    manager: M,
    warmup: SimDuration,
    initialized: bool,
    /// Reused snapshot handed to the manager each quantum.
    snap: SystemSnapshot,
    /// Reused plan the manager fills each quantum.
    plan: ActuationPlan,
    /// Optional actuation tape (see [`Simulation::with_tape`]).
    tape: Option<Tape>,
    /// Optional fault injection (see [`Simulation::with_faults`]).
    faults: Option<FaultPlan>,
    /// Reused buffer for the post-fault subset of the plan.
    faulted: ActuationPlan,
    /// Optional invariant auditor (see [`Simulation::with_auditor`]).
    auditor: Option<Auditor>,
    /// Optional telemetry sink (see [`Simulation::with_telemetry`]). When
    /// `None`, every instrumentation site below is one branch on this
    /// option — the zero-overhead-off contract.
    telemetry: Option<Telemetry>,
}

impl<M: PowerManager> Simulation<M> {
    /// The execution quantum (1 ms — the Linux scheduler tick at
    /// CONFIG_HZ=1000). A [`Simulation::run_for`] that is not a whole
    /// number of quanta ends in a shorter one.
    pub const DEFAULT_QUANTUM: SimDuration = SimDuration(1000);

    /// Build a simulation.
    pub fn new(system: System, manager: M) -> Simulation<M> {
        Simulation {
            system,
            manager,
            warmup: SimDuration::ZERO,
            initialized: false,
            snap: SystemSnapshot::new(),
            plan: ActuationPlan::new(),
            tape: None,
            faults: None,
            faulted: ActuationPlan::new(),
            auditor: None,
            telemetry: None,
        }
    }

    /// Exclude the first `warmup` of simulated time from QoS/power metrics
    /// (heart-rate windows need to fill before misses are meaningful).
    pub fn with_warmup(mut self, warmup: SimDuration) -> Simulation<M> {
        self.warmup = warmup;
        self
    }

    /// Record an actuation tape: one `(snapshot digest, plan)` record per
    /// quantum in which the manager queued at least one action. Two runs are
    /// behaviourally identical iff their tapes render to the same bytes.
    pub fn with_tape(mut self) -> Simulation<M> {
        self.tape = Some(Tape::new());
        self
    }

    /// Inject deterministic faults: observation faults perturb the snapshot
    /// the manager sees (the platform's true state is untouched), actuation
    /// faults drop or delay DVFS/migration commands between the tape and
    /// the hardware, and the plan may crash tasks mid-run. The tape keeps
    /// recording the manager's *intent*, so faulted runs stay replayable.
    pub fn with_faults(mut self, faults: FaultPlan) -> Simulation<M> {
        self.faults = Some(faults);
        self
    }

    /// Audit system invariants after every quantum (see [`Auditor`]).
    /// Violations accumulate in [`Simulation::auditor`]; nothing panics
    /// mid-run.
    pub fn with_auditor(mut self) -> Simulation<M> {
        self.auditor = Some(Auditor::new());
        self
    }

    /// Attach a telemetry sink: record one time-series row per quantum
    /// into its ring recorder and, when
    /// [`Telemetry::with_profiling`] is set, wall-clock phase spans into
    /// its histograms. Observation is strictly read-only — the actuation
    /// tape of a run is bit-identical with or without telemetry.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Simulation<M> {
        self.telemetry = Some(telemetry);
        self
    }

    /// The telemetry sink, when attached.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Attach a telemetry sink in place — [`Simulation::with_telemetry`]
    /// for simulations already owned by a containing structure (a fleet
    /// chip, for instance).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Detach and return the telemetry sink (for exporting after a run).
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.telemetry.take()
    }

    /// Stream the telemetry time-series to disk incrementally (see
    /// [`Telemetry::with_stream`]): the stream becomes part of the attached
    /// telemetry, which pumps it after every recorded row and carries it
    /// along through [`Simulation::take_telemetry`]. Pair with
    /// [`Simulation::finish_stream`] after the run.
    ///
    /// # Panics
    ///
    /// Panics when no telemetry is attached: the stream reads the
    /// telemetry's recorder, and without one it would write nothing.
    pub fn with_stream(mut self, stream: ppm_obs::TelemetryStream) -> Simulation<M> {
        let tel = self
            .telemetry
            .take()
            .expect("with_stream needs telemetry attached first (with_telemetry): the stream reads its recorder");
        self.telemetry = Some(tel.with_stream(stream));
        self
    }

    /// Flush the stream's unflushed tail, join its writer thread, and
    /// report totals. `None` when no stream is attached.
    pub fn finish_stream(&mut self) -> Option<std::io::Result<ppm_obs::StreamStats>> {
        self.telemetry.as_mut()?.finish_stream()
    }

    /// The actuation tape recorded so far, when enabled.
    pub fn tape(&self) -> Option<&Tape> {
        self.tape.as_ref()
    }

    /// The fault plan, when fault injection is enabled (for its stats).
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The auditor and everything it collected, when enabled.
    pub fn auditor(&self) -> Option<&Auditor> {
        self.auditor.as_ref()
    }

    /// The snapshot the manager planned on in the last quantum. Its task
    /// section is from the last task capture (see
    /// [`PowerManager::reads_tasks`]).
    pub fn snapshot(&self) -> &SystemSnapshot {
        &self.snap
    }

    /// The system under simulation.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Mutable system access (admit tasks, set initial conditions).
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.system
    }

    /// The manager.
    pub fn manager(&self) -> &M {
        &self.manager
    }

    /// The execution quantum (fleet drivers align their epochs to it).
    pub fn quantum(&self) -> SimDuration {
        Self::DEFAULT_QUANTUM
    }

    /// The per-epoch TDP update path a fleet exchange drives: offer `tdp`
    /// to the manager ([`PowerManager::set_power_budget`]); when the
    /// manager adopts it, the system's TDP-violation accounting follows.
    /// Returns whether the budget was adopted.
    pub fn set_power_budget(&mut self, tdp: Watts) -> bool {
        if self.manager.set_power_budget(tdp) {
            self.system.set_tdp_accounting(tdp);
            true
        } else {
            false
        }
    }

    /// Advance the simulation by `duration`.
    pub fn run_for(&mut self, duration: SimDuration) {
        if !self.initialized {
            self.manager.init(&mut self.system);
            self.initialized = true;
        }
        let end = self.system.now() + duration;
        while self.system.now() < end {
            let dt = Self::DEFAULT_QUANTUM.min(end.since(self.system.now()));
            // Injected task crashes land before capture: the manager first
            // sees a world without the victim, exactly like a real exit.
            if let Some(f) = &mut self.faults {
                if let Some(victim) = f.task_crash(self.system.task_count()) {
                    let id = self.system.task_iter().nth(victim);
                    if let Some(id) = id {
                        self.system.remove_task(id);
                    }
                }
            }
            // Wall-clock marks exist only while profiling; `lap` collapses
            // to one branch otherwise. The monotonic clock sizes the spans,
            // the simulated clock (snap.now) places them.
            let profiling = self.telemetry.as_ref().is_some_and(Telemetry::profiling);
            let mut mark = if profiling {
                Some(Instant::now())
            } else {
                None
            };
            // Snapshot in, plan out, apply in one place. The platform
            // capture overwrites whatever the fault plan perturbed last
            // quantum with live values.
            self.snap.capture_platform(&self.system);
            if let Some(f) = &mut self.faults {
                // Observation faults: perturb only what the manager sees.
                // Cluster readings additionally pass through each agent's
                // (possibly drifted) observation clock, so a drifted
                // cluster flies on sensor data from a few quanta ago; the
                // chip-wide reading passes through the chip's own clock,
                // which in a fleet delays this whole chip's delivered
                // observations — manager decisions and exchange bids both.
                let chip = f.perturb_power(0, self.snap.chip_power);
                self.snap.chip_power = f.drift_chip_power(chip);
                for ci in 0..self.snap.clusters.len() {
                    let p = self.snap.clusters[ci].power;
                    let p = f.perturb_power(1 + ci, p);
                    self.snap.clusters[ci].power = f.drift_cluster_power(ci, p);
                }
                if let Some(h) = self.snap.hottest {
                    self.snap.hottest = Some(f.perturb_temperature(h));
                }
            }
            // The task section only on the quanta that read it. The
            // auditor's retag hashes the snapshot after `step`, when a
            // late task capture would read post-step state, so an audited
            // run captures it every quantum.
            let tasks_fresh = self.auditor.is_some() || self.manager.reads_tasks(&self.snap);
            if tasks_fresh {
                self.snap.capture_tasks(&self.system);
            }
            lap(
                self.telemetry.as_mut().map(|t| &mut t.profiler),
                &mut mark,
                Phase::Capture,
            );
            self.plan.clear();
            let prof = match &mut self.telemetry {
                Some(tel) if profiling => Some(&mut tel.profiler),
                _ => None,
            };
            self.manager.plan(&self.snap, &mut self.plan, prof);
            lap(
                self.telemetry.as_mut().map(|t| &mut t.profiler),
                &mut mark,
                Phase::Plan,
            );
            // The snapshot digest is needed eagerly only for a tape record;
            // the auditor tags violations with it, so a clean audited
            // quantum never pays for it (see the retag below).
            let taped = self.tape.is_some() && !self.plan.is_empty();
            if taped && !tasks_fresh {
                // Nothing has touched the system since the platform
                // capture (crashes land before it, `plan` reads only the
                // snapshot), so this is the capture an eager run takes.
                // Profiled runs time it in the apply span, with the digest
                // and the tape record.
                self.snap.capture_tasks(&self.system);
            }
            let digest = if taped { self.snap.digest() } else { 0 };
            if let Some(tape) = &mut self.tape {
                if taped {
                    tape.record(self.snap.now, digest, self.plan.ops());
                }
            }
            if let Some(f) = &mut self.faults {
                // Deferred DVFS requests that are due land first, then the
                // fresh plan runs the actuation-fault gauntlet. The tape
                // above recorded the manager's intent; the hardware gets
                // whatever survives.
                while let Some((cluster, level)) = f.pop_due_dvfs(self.system.now()) {
                    self.system.request_level(cluster, level);
                }
                self.faulted.clear();
                // A mid-actuation executor death truncates the plan to a
                // prefix; the dropped tail never even reaches the per-op
                // gauntlet, exactly as if the process died between ops.
                let keep = f
                    .plan_cut(self.plan.ops().len())
                    .unwrap_or(self.plan.ops().len());
                for &op in &self.plan.ops()[..keep] {
                    match op {
                        Action::RequestLevel(cluster, level) => match f.dvfs_outcome() {
                            ActuationOutcome::Apply => self.faulted.push(op),
                            ActuationOutcome::Fail => {}
                            ActuationOutcome::Defer(quanta) => {
                                let delay = SimDuration(
                                    Self::DEFAULT_QUANTUM.0.saturating_mul(u64::from(quanta)),
                                );
                                f.defer_dvfs(self.system.now() + delay, cluster, level);
                            }
                        },
                        Action::Migrate(..) => {
                            if f.migration_applies() {
                                self.faulted.push(op);
                            }
                        }
                        _ => self.faulted.push(op),
                    }
                }
                self.system.apply_plan(&self.faulted);
            } else {
                self.system.apply_plan(&self.plan);
            }
            lap(
                self.telemetry.as_mut().map(|t| &mut t.profiler),
                &mut mark,
                Phase::Apply,
            );
            let record = self.system.now().as_micros() >= self.warmup.as_micros();
            self.system.step(dt, record);
            lap(
                self.telemetry.as_mut().map(|t| &mut t.profiler),
                &mut mark,
                Phase::Step,
            );
            if let Some(aud) = &mut self.auditor {
                let first_new = aud.violations().len();
                aud.begin_quantum(self.snap.now, digest);
                aud.check_system(&self.system);
                if let Some(tape) = &self.tape {
                    if taped {
                        aud.check_tape(tape);
                    }
                }
                self.manager.audit(&self.snap, aud);
                // Untaped quanta opened with a placeholder digest: hash the
                // (unchanged) snapshot only when something was reported.
                if !taped && aud.violations().len() > first_new {
                    aud.retag_since(first_new, self.snap.digest());
                }
                lap(
                    self.telemetry.as_mut().map(|t| &mut t.profiler),
                    &mut mark,
                    Phase::Audit,
                );
            }
            // Degradation rollup: copy the manager's live counters into the
            // metrics so hardened runs report totals without replaying the
            // event stream. Unconditional — it is four u64 copies.
            self.system.metrics.degradation = self.manager.degradation();
            if let Some(tel) = &mut self.telemetry {
                self.manager.sample_policy(&mut tel.policy);
                record_telemetry_row(&self.system, tel, self.snap.now);
                // Fold the fresh row into the live aggregation windows and
                // the alert engine, then pump the stream (one branch each
                // when not attached).
                tel.roll_forward();
            }
        }
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &RunMetrics {
        self.system.metrics()
    }

    /// Tear down into the system (for post-run inspection).
    pub fn into_system(self) -> System {
        self.system
    }
}

/// Append one time-series row for the quantum that just executed at `at`.
/// Reads true sensors (like the metrics do), the manager's policy sample,
/// and the profiler's per-quantum spans; writes are indexed stores into
/// the recorder's preallocated ring — no allocation once the entity
/// population has been seen.
fn record_telemetry_row(sys: &System, tel: &mut Telemetry, at: SimTime) {
    let n_clusters = sys.chip.clusters().len();
    let n_cores = sys.chip.cores().len();
    let n_tasks = sys.entries.len();
    tel.recorder.ensure_shape(n_clusters, n_cores, n_tasks);
    let last_phases = tel.profiler.take_last();
    // The stream's totals as of the previous row: this row is pumped only
    // after it is written.
    let stream_stats = tel.stream_stats();

    let deg = sys.metrics.degradation;
    let chip_power = sys.last_chip_power.value();
    let headroom = sys.tdp().map_or(f64::NAN, |t| t.value() - chip_power);
    let hottest = sys.thermal().map_or(f64::NAN, |t| t.hottest().value());
    let mut row = tel.recorder.push_row(at.as_micros());
    row.chip(chip_power, headroom, hottest)
        .degradation(
            deg.sensor_fallbacks,
            deg.dvfs_retries,
            deg.migration_retries,
            deg.tasks_orphaned,
        )
        .phases(&last_phases)
        .policy(&tel.policy);
    if let Some(s) = stream_stats {
        row.obs_stream(s.rows as f64, s.lost as f64, s.flushes as f64);
    }
    for ci in 0..n_clusters {
        let id = ClusterId(ci);
        let cluster = sys.chip.cluster(id);
        let (freq, volt) = if cluster.is_off() {
            (0.0, 0.0)
        } else {
            let p = cluster.point();
            (f64::from(p.frequency.value()), f64::from(p.voltage.0))
        };
        row.cluster(
            ci,
            freq,
            volt,
            sys.last_cluster_power[ci].value(),
            sys.cluster_temperature(id).map_or(f64::NAN, |c| c.value()),
        );
        let supply = cluster.supply_per_core().value();
        for &core in sys.chip.cores_of(id) {
            row.core_supply(core.0, supply);
        }
    }
    for (i, e) in sys.entries.iter().enumerate() {
        if e.active {
            let hr = sys.heartbeats.heart_rate(i);
            row.task(
                i,
                e.share.value(),
                e.granted.value(),
                hr,
                hr / e.task.spec().target_range().target(),
            );
            if let Some(ol) = e.task.open_loop_snap() {
                row.task_latency(
                    i,
                    f64::from(ol.queue_depth),
                    ol.p99_ms,
                    ol.slo_ms,
                    ol.shed as f64,
                );
            }
        }
    }
}

#[cfg(test)]
impl System {
    /// Flip the sign bits of a task's share and grant in place: a state no
    /// public setter reaches, used to probe the snapshot's change mask.
    pub(crate) fn flip_share_and_grant_signs(&mut self, id: TaskId) {
        let e = &mut self.entries[id.0];
        e.share = ProcessingUnits(-e.share.0);
        e.granted = ProcessingUnits(-e.granted.0);
    }

    /// Core `core`'s row of the runnable CSR the last `step` built.
    fn runnable_on(&self, core: CoreId) -> &[TaskId] {
        &self.scratch.by_core[self.scratch.start[core.0]..self.scratch.start[core.0 + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_platform::core::CoreClass;
    use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm_workload::task::Priority;

    fn spec(b: Benchmark, i: Input) -> BenchmarkSpec {
        BenchmarkSpec::of(b, i).expect("valid variant")
    }

    fn simple_system() -> System {
        let mut sys = System::new(Chip::tc2(), AllocationPolicy::FairWeights);
        sys.add_task(
            Task::new(
                TaskId(0),
                spec(Benchmark::Blackscholes, Input::Large),
                Priority(1),
            ),
            CoreId(0),
        );
        sys
    }

    #[test]
    fn lone_task_gets_whole_core() {
        let mut sim = Simulation::new(simple_system(), NullManager);
        sim.run_for(SimDuration::from_secs(2));
        let sys = sim.system();
        // At the lowest A7 level the core supplies 350 PU; blackscholes
        // large needs only 200 PU at target, but is CPU-bound, so it takes
        // everything and overshoots its heart-rate target.
        assert_eq!(sys.granted(TaskId(0)), ProcessingUnits(350.0));
        assert!(sys.normalized_heart_rate(TaskId(0)) > 1.5);
        assert!((sys.core_utilization(CoreId(0)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_equal_tasks_split_the_core() {
        let mut sys = simple_system();
        sys.add_task(
            Task::new(
                TaskId(1),
                spec(Benchmark::Blackscholes, Input::Large),
                Priority(1),
            ),
            CoreId(0),
        );
        let mut sim = Simulation::new(sys, NullManager);
        sim.run_for(SimDuration::from_secs(1));
        let g0 = sim.system().granted(TaskId(0));
        let g1 = sim.system().granted(TaskId(1));
        assert!((g0.value() - 175.0).abs() < 1e-6);
        assert!((g1.value() - 175.0).abs() < 1e-6);
    }

    #[test]
    fn market_policy_honours_shares() {
        let mut sys = simple_system();
        sys.set_policy(AllocationPolicy::Market);
        sys.add_task(
            Task::new(
                TaskId(1),
                spec(Benchmark::Blackscholes, Input::Large),
                Priority(1),
            ),
            CoreId(0),
        );
        sys.set_share(TaskId(0), ProcessingUnits(250.0));
        sys.set_share(TaskId(1), ProcessingUnits(100.0));
        let mut sim = Simulation::new(sys, NullManager);
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.system().granted(TaskId(0)), ProcessingUnits(250.0));
        assert_eq!(sim.system().granted(TaskId(1)), ProcessingUnits(100.0));
    }

    #[test]
    fn migration_stalls_then_resumes_on_new_core() {
        let mut sim = Simulation::new(simple_system(), NullManager);
        sim.run_for(SimDuration::from_millis(100));
        // Move LITTLE -> big: 1.88-2.16 ms penalty.
        let cost = sim
            .system_mut()
            .migrate(TaskId(0), CoreId(3))
            .expect("real move");
        assert!(cost >= SimDuration::from_micros(1880));
        assert!(sim.system().is_stalled(TaskId(0)));
        sim.run_for(SimDuration::from_millis(1));
        assert_eq!(sim.system().granted(TaskId(0)), ProcessingUnits::ZERO);
        sim.run_for(SimDuration::from_millis(5));
        assert!(!sim.system().is_stalled(TaskId(0)));
        // Now running on the big cluster's lowest level: 500 PU.
        assert_eq!(sim.system().granted(TaskId(0)), ProcessingUnits(500.0));
        assert_eq!(sim.metrics().migrations_inter, 1);
        assert_eq!(sim.system().chip().core(CoreId(3)).class(), CoreClass::Big);
    }

    #[test]
    fn migrate_to_same_core_is_noop() {
        let mut sim = Simulation::new(simple_system(), NullManager);
        assert!(sim.system_mut().migrate(TaskId(0), CoreId(0)).is_none());
        assert_eq!(sim.metrics().migrations_intra, 0);
    }

    #[test]
    fn power_reflects_load_and_gating() {
        let mut sim = Simulation::new(simple_system(), NullManager);
        sim.run_for(SimDuration::from_millis(10));
        let with_big_idle = sim.system().chip_power();
        assert!(with_big_idle.value() > 0.0);
        // Gate the (idle) big cluster: chip power drops.
        sim.system_mut().power_off(ClusterId(1));
        sim.run_for(SimDuration::from_millis(10));
        assert!(sim.system().chip_power() < with_big_idle);
        assert_eq!(sim.system().cluster_power(ClusterId(1)), Watts::ZERO);
    }

    #[test]
    fn dvfs_request_takes_effect_after_latency() {
        let mut sim = Simulation::new(simple_system(), NullManager);
        sim.run_for(SimDuration::from_millis(1));
        assert!(sim.system_mut().request_level(ClusterId(0), VfLevel(7)));
        sim.run_for(SimDuration::from_millis(2));
        assert_eq!(
            sim.system().chip().cluster(ClusterId(0)).level(),
            VfLevel(7)
        );
        assert_eq!(sim.system().granted(TaskId(0)), ProcessingUnits(1000.0));
        assert_eq!(sim.metrics().vf_transitions, 1);
    }

    #[test]
    fn warmup_excludes_early_misses() {
        let sys = simple_system();
        let mut sim = Simulation::new(sys, NullManager).with_warmup(SimDuration::from_secs(1));
        sim.run_for(SimDuration::from_secs(3));
        // Metrics only cover the post-warm-up 2 s.
        assert_eq!(sim.metrics().total_time(), SimDuration::from_secs(2));
    }

    #[test]
    fn utilization_cap_limits_consumption() {
        // A task with a 50% utilization-cap phase leaves half the core idle.
        use ppm_workload::phase::Phase;
        // Build via the public surface: the x264 dormant phase has cap 1.0,
        // so synthesise a capped phase through PhaseSequence directly is not
        // possible on a BenchmarkSpec; instead verify the Claimant cap path
        // using fair allocation of two tasks where one is capped.
        let _ = Phase::with_utilization(10.0, 1.0, 0.5);
        let mut sys = simple_system();
        sys.add_task(
            Task::new(
                TaskId(1),
                spec(Benchmark::Swaptions, Input::Large),
                Priority(1),
            ),
            CoreId(1),
        );
        let mut sim = Simulation::new(sys, NullManager);
        sim.run_for(SimDuration::from_millis(10));
        // Full caps here: both cores fully utilized by their lone tasks.
        assert!((sim.system().core_utilization(CoreId(1)) - 1.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod thermal_tests {
    use super::*;
    use ppm_platform::thermal::ThermalModel;
    use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm_workload::task::Priority;

    #[test]
    fn thermal_model_tracks_the_busy_cluster() {
        let mut sys = System::new(Chip::tc2(), AllocationPolicy::FairWeights);
        sys.attach_thermal(ThermalModel::mobile(2));
        sys.add_task(
            Task::new(
                TaskId(0),
                BenchmarkSpec::of(Benchmark::X264, Input::Native).expect("variant"),
                Priority(1),
            ),
            CoreId(0),
        );
        // Run the loaded LITTLE cluster flat out; gate the idle big cluster
        // (its level-0 leakage otherwise out-heats a 350 MHz A7 under load).
        let top = sys.chip().cluster(ClusterId(0)).table().max_level();
        sys.request_level(ClusterId(0), top);
        sys.power_off(ClusterId(1));
        let mut sim = Simulation::new(sys, NullManager);
        sim.run_for(SimDuration::from_secs(30));
        let sys = sim.system();
        let little = sys.cluster_temperature(ClusterId(0)).expect("attached");
        let big = sys.cluster_temperature(ClusterId(1)).expect("attached");
        assert!(little > big, "little {little} vs big {big}");
        assert!(little.value() > 41.0, "busy cluster should heat: {little}");
        assert!(
            (big.value() - 35.0).abs() < 1.0,
            "gated cluster cools: {big}"
        );
        assert!(!sys.thermal().expect("attached").throttling());
    }

    #[test]
    fn chip_peak_power_stays_below_the_thermal_limit() {
        // Consistency of the TC2 calibration: even both clusters flat out
        // (the 8 W TDP) keep junction temperatures below the 85 C
        // throttling point with the mobile RC parameters, because each
        // cluster node sees only its own ~2 W / ~6 W... the big cluster at
        // 6 W would exceed it — which is exactly why the TDP exists.
        let mut m = ThermalModel::mobile(2);
        for _ in 0..100 {
            m.step(&[Watts(2.0), Watts(6.0)], SimDuration::from_secs(1));
        }
        assert!(m.temperature(ClusterId(0)).value() < 60.0);
        assert!(
            m.temperature(ClusterId(1)).value() > 85.0,
            "an uncapped big cluster overheats — the paper's premise"
        );
    }
}

#[cfg(test)]
mod affinity_tests {
    use super::*;
    use crate::affinity::CpuMask;
    use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm_workload::task::Priority;

    #[test]
    fn affinity_blocks_forbidden_migrations() {
        let mut sys = System::new(Chip::tc2(), AllocationPolicy::FairWeights);
        sys.add_task(
            Task::new(
                TaskId(0),
                BenchmarkSpec::of(Benchmark::Swaptions, Input::Large).expect("variant"),
                Priority(1),
            ),
            CoreId(0),
        );
        sys.set_affinity(TaskId(0), CpuMask::of([CoreId(0), CoreId(1)]));
        assert!(sys.can_run_on(TaskId(0), CoreId(1)));
        assert!(!sys.can_run_on(TaskId(0), CoreId(3)));
        // Allowed move succeeds; forbidden move is a no-op.
        assert!(sys.migrate(TaskId(0), CoreId(1)).is_some());
        assert!(sys.migrate(TaskId(0), CoreId(3)).is_none());
        assert_eq!(sys.core_of(TaskId(0)), CoreId(1));
        // Restoring the full mask re-enables the move.
        sys.set_affinity(TaskId(0), CpuMask::all());
        assert!(sys.migrate(TaskId(0), CoreId(3)).is_some());
    }
}

#[cfg(test)]
mod energy_attribution_tests {
    use super::*;
    use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm_workload::task::Priority;

    #[test]
    fn per_task_energy_sums_to_the_chip_energy() {
        let mut sys = System::new(Chip::tc2(), AllocationPolicy::FairWeights);
        sys.add_task(
            Task::new(
                TaskId(0),
                BenchmarkSpec::of(Benchmark::X264, Input::Native).expect("variant"),
                Priority(1),
            ),
            CoreId(0),
        );
        sys.add_task(
            Task::new(
                TaskId(1),
                BenchmarkSpec::of(Benchmark::Texture, Input::Vga).expect("variant"),
                Priority(1),
            ),
            CoreId(1),
        );
        // Gate the idle big cluster so all chip power is attributable.
        sys.power_off(ClusterId(1));
        let mut sim = Simulation::new(sys, NullManager);
        sim.run_for(SimDuration::from_secs(10));
        let m = sim.metrics();
        let e0 = m.task(TaskId(0)).expect("t0").energy.value();
        let e1 = m.task(TaskId(1)).expect("t1").energy.value();
        let chip = m.chip_energy.energy().value();
        // All cores host exactly one task each (core 2 idle leaks a core's
        // worth of static power that no task owns), so the attributed sum
        // is slightly below the chip total but close.
        assert!(e0 > 0.0 && e1 > 0.0);
        assert!(e0 + e1 <= chip + 1e-9, "{e0}+{e1} vs {chip}");
        assert!(e0 + e1 > 0.8 * chip, "{e0}+{e1} vs {chip}");
        // The 350 MHz core splits supply equally between clusters' lone
        // tasks, so with identical grants the energies match closely.
        assert!((e0 - e1).abs() < 0.2 * e0.max(e1));
    }
}

#[cfg(test)]
mod sensor_noise_tests {
    use super::*;
    use ppm_platform::faults::FaultConfig;
    use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm_workload::task::Priority;

    /// Sensor noise is an observation fault: the readings the manager is
    /// handed move, the physics and its energy meters do not.
    #[test]
    fn noise_perturbs_readings_but_not_energy() {
        let make = |sigma: f64| {
            let mut sys = System::new(Chip::tc2(), AllocationPolicy::FairWeights);
            sys.add_task(
                Task::new(
                    TaskId(0),
                    BenchmarkSpec::of(Benchmark::Blackscholes, Input::Large).expect("variant"),
                    Priority(1),
                ),
                CoreId(0),
            );
            let mut sim = Simulation::new(sys, NullManager)
                .with_faults(FaultPlan::new(FaultConfig::sensor_noise(17, sigma)));
            sim.run_for(SimDuration::from_secs(5));
            let energy = sim.metrics().chip_energy.energy().value();
            // What the manager read at the last quantum's capture.
            let reading = sim.snap.chip_power.value();
            (energy, reading)
        };
        let (e_clean, r_clean) = make(0.0);
        let (e_noisy, r_noisy) = make(0.10);
        // Physics identical; only the sensor reading wiggles.
        assert_eq!(e_clean.to_bits(), e_noisy.to_bits());
        assert!(r_clean > 0.0);
        assert!((r_noisy - r_clean).abs() > 1e-6, "noise should show up");
        assert!(
            (r_noisy / r_clean - 1.0).abs() <= 4.0 * 0.10,
            "beyond 4 sigma"
        );
    }

    #[test]
    fn residency_accounts_all_recorded_time() {
        let mut sys = System::new(Chip::tc2(), AllocationPolicy::FairWeights);
        sys.add_task(
            Task::new(
                TaskId(0),
                BenchmarkSpec::of(Benchmark::Swaptions, Input::Large).expect("variant"),
                Priority(1),
            ),
            CoreId(0),
        );
        let mut sim = Simulation::new(sys, NullManager);
        sim.run_for(SimDuration::from_secs(3));
        sim.system_mut().request_level(ClusterId(0), VfLevel(5));
        sim.run_for(SimDuration::from_secs(2));
        let res = sim.metrics().level_residency(0);
        let total: u64 = res.iter().map(|d| d.as_micros()).sum();
        assert_eq!(total, SimDuration::from_secs(5).as_micros());
        assert!(res[0] >= SimDuration::from_secs(3));
        assert!(res[5] >= SimDuration::from_millis(1900));
    }
}

#[cfg(test)]
mod runnable_csr_tests {
    use super::*;
    use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm_workload::task::Priority;

    proptest::proptest! {
        /// The runnable CSR that `step` builds with one counting sort holds,
        /// per core and in order, exactly what a per-core filter over every
        /// entry finds — under placements, migrations (whose stalls span
        /// several quanta at this step size), removals and gated clusters.
        #[test]
        fn runnable_buckets_match_a_per_core_filter(
            placement in proptest::collection::vec(0usize..12, 1..24),
            steps in proptest::collection::vec((0u8..5, 0usize..24, 0usize..12), 0..60),
        ) {
            let chip = ppm_platform::chip::synthetic_chip(4, 3);
            let mut sys = System::new(chip, AllocationPolicy::Market);
            for (i, &core) in placement.iter().enumerate() {
                sys.add_task(
                    Task::new(TaskId(i), BenchmarkSpec::of(Benchmark::Swaptions, Input::Large).expect("variant"), Priority(1)),
                    CoreId(core),
                );
                sys.set_share(TaskId(i), ProcessingUnits(50.0));
            }
            let n = placement.len();
            for &(kind, task, core) in &steps {
                let id = TaskId(task % n);
                let cluster = sys.chip().core(CoreId(core)).cluster();
                match kind {
                    0 => {
                        sys.migrate(id, CoreId(core));
                    }
                    1 => sys.remove_task(id),
                    2 => sys.power_off(cluster),
                    3 => sys.power_on(cluster),
                    _ => {}
                }
                let now = sys.now();
                let expected: Vec<Vec<TaskId>> = (0..12)
                    .map(|c| {
                        sys.entries
                            .iter()
                            .enumerate()
                            .filter(|(_, e)| e.core == CoreId(c) && e.active && e.stalled_until <= now)
                            .map(|(i, _)| TaskId(i))
                            .collect()
                    })
                    .collect();
                sys.step(SimDuration(200), true);
                for (c, want) in expected.iter().enumerate() {
                    proptest::prop_assert_eq!(sys.runnable_on(CoreId(c)), want.as_slice());
                }
            }
        }
    }
}
