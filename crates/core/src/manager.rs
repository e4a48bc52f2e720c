//! The PPM power manager: the paper's kernel-module agents plugged into the
//! simulation executor.
//!
//! Every bidding period (31.7 ms by default) the manager reads the
//! executor's [`SystemSnapshot`], distils it into a [`MarketObs`], runs one
//! [`Market`] round, and queues the decision on an [`ActuationPlan`]: task
//! shares (`s_t = b_t / P_c`, realised through nice values on real hardware,
//! directly as shares here), cluster DVFS steps, and cluster power gating.
//! Every few rounds the LBT module proposes at most one task movement (§3.4:
//! load balancing every 3 bid rounds, migration every 2 load-balance
//! invocations; both disabled in the emergency state).

use std::time::Instant;

use ppm_obs::{Phase, PhaseProfiler, PolicySample};
use ppm_platform::cluster::ClusterId;
use ppm_platform::core::CoreId;
use ppm_platform::thermal::Celsius;
use ppm_platform::units::{Money, Price, ProcessingUnits, SimDuration, SimTime, Watts};
use ppm_platform::vf::VfLevel;
use ppm_sched::audit::Auditor;
use ppm_sched::executor::{AllocationPolicy, FleetBid, PowerManager, System};
use ppm_sched::metrics::Degradation;
use ppm_sched::nice::Nice;
use ppm_sched::plan::ActuationPlan;
use ppm_sched::snapshot::{SystemSnapshot, TaskSnap};
use ppm_workload::task::TaskId;

use ppm_predict::OnlineEstimator;

use crate::config::PpmConfig;
use crate::lbt::{
    ClusterPowerProfile, ClusterSnapshot, CoreSnapshot, Lbt, LbtSnapshot, TaskSnapshot,
};
use crate::market::{ClusterObs, CoreObs, Market, MarketDecision, MarketObs, TaskObs, VfStep};
use crate::state::PowerState;

/// An outstanding DVFS request being tracked until the regulator confirms
/// it (graceful degradation: real cpufreq transitions occasionally vanish).
#[derive(Debug, Clone, Copy)]
struct DvfsWatch {
    /// Level index we asked for.
    target: usize,
    /// Re-issues so far (bounded).
    attempts: u8,
}

/// An outstanding migration being tracked until the task shows up on its
/// destination core.
#[derive(Debug, Clone, Copy)]
struct MigrationWatch {
    task: TaskId,
    to: CoreId,
    /// Re-issues so far (bounded).
    attempts: u8,
    /// Bid round (manager-local count) before which we hold off retrying —
    /// exponential backoff, so a congested regulator is not hammered.
    next_retry: u64,
}

/// Price-theory power manager (PPM).
#[derive(Debug)]
pub struct PpmManager {
    config: PpmConfig,
    market: Market,
    next_round: SimTime,
    rounds_since_lb: u32,
    lbs_since_migration: u32,
    /// The latest decision; taken back as the reusable `round_into` buffer
    /// each round, so steady-state rounds recycle its capacity.
    last_decision: Option<MarketDecision>,
    /// Reusable observation buffer (cleared and refilled every round).
    obs_buf: MarketObs,
    /// Tasks seen in the previous round (sorted), for exit cleanup.
    known_tasks: Vec<TaskId>,
    /// Scratch for this round's sorted task ids.
    current_tasks: Vec<TaskId>,
    /// Scratch for grouping shares by core in nice actuation.
    nice_scratch: Vec<(CoreId, TaskId, f64)>,
    /// The LBT module's view of the chip, built at `init` (ladders and
    /// profiled power are static) and refilled in place per invocation.
    lbt_view: LbtSnapshot,
    /// `(cluster, core)` indices into `lbt_view` of every core, by core id.
    lbt_slots: Vec<(usize, usize)>,
    /// The LBT module's caches, reused across invocations.
    lbt: Lbt,
    /// Online demand estimator (when `config.online_estimation` is set).
    estimator: OnlineEstimator,
    /// Bid rounds this manager has run (cadence base for retry backoff).
    bid_rounds: u64,
    /// Last plausible chip-power reading and when it was taken, for the
    /// dropped-sensor fallback (staleness-bounded).
    last_good_power: Option<(SimTime, Watts)>,
    /// Last accepted junction temperature (thermal glitch filter).
    last_good_temp: Option<Celsius>,
    /// Consecutive rounds the thermal reading was rejected as a glitch.
    temp_rejects: u32,
    /// Per-cluster outstanding DVFS requests awaiting confirmation.
    dvfs_watch: Vec<Option<DvfsWatch>>,
    /// Outstanding LBT migration awaiting confirmation.
    migration_watch: Option<MigrationWatch>,
    /// Money audit state: per-task savings as of the last audited round
    /// (sorted by id) and that round's announced allowance.
    audit_savings: Vec<(TaskId, Money)>,
    audit_prev_allowance: Option<Money>,
    /// Last market round the auditor has seen.
    audited_round: u64,
    /// Live graceful-degradation counters (sensor fallbacks, actuation
    /// retries, orphaned tasks), read by run metrics and telemetry.
    degradation: Degradation,
}

impl PpmManager {
    /// Build a manager with `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: PpmConfig) -> PpmManager {
        PpmManager {
            market: Market::new(config.clone()),
            config,
            next_round: SimTime::ZERO,
            rounds_since_lb: 0,
            lbs_since_migration: 0,
            last_decision: None,
            obs_buf: MarketObs::empty(),
            known_tasks: Vec::new(),
            current_tasks: Vec::new(),
            nice_scratch: Vec::new(),
            lbt_view: LbtSnapshot::default(),
            lbt_slots: Vec::new(),
            lbt: Lbt::default(),
            estimator: OnlineEstimator::new(),
            bid_rounds: 0,
            last_good_power: None,
            last_good_temp: None,
            temp_rejects: 0,
            dvfs_watch: Vec::new(),
            migration_watch: None,
            audit_savings: Vec::new(),
            audit_prev_allowance: None,
            audited_round: 0,
            degradation: Degradation::default(),
        }
    }

    /// Rounds a last-good power reading stays usable as a fallback before
    /// the manager must trust the raw sensor again.
    const POWER_STALENESS_ROUNDS: u64 = 8;
    /// Bounded re-issues of a lost DVFS request or failed migration.
    const MAX_ACTUATION_RETRIES: u8 = 3;
    /// Largest credible junction-temperature step between two bid rounds
    /// (°C); the RC model moves well under 1 °C per 31.7 ms round even at
    /// peak power, so anything bigger is a sensor glitch.
    const MAX_TEMP_STEP: f64 = 5.0;
    /// Consecutive rejected thermal readings before one is accepted anyway
    /// (a real step change must not be filtered forever).
    const MAX_TEMP_REJECTS: u32 = 3;

    /// The paper's default TC2 configuration.
    pub fn tc2() -> PpmManager {
        PpmManager::new(PpmConfig::tc2())
    }

    /// The configuration in force.
    pub fn config(&self) -> &PpmConfig {
        &self.config
    }

    /// The market (for inspecting bids, savings, state).
    pub fn market(&self) -> &Market {
        &self.market
    }

    /// The decision of the most recent bidding round.
    pub fn last_decision(&self) -> Option<&MarketDecision> {
        self.last_decision.as_ref()
    }

    /// The online estimator (only populated when online estimation is on).
    pub fn estimator(&self) -> &OnlineEstimator {
        &self.estimator
    }

    /// Feed the estimator with this round's observations.
    fn observe_costs(&mut self, snap: &SystemSnapshot) {
        for t in &snap.tasks {
            if let Some(cost) = t.cost_per_beat {
                let class = snap.core(t.core).class;
                self.estimator.observe(t.id, class, t.target_rate, cost);
            }
        }
    }

    /// Chip power with the dropped-sensor fallback: a zero reading while
    /// tasks run is physically impossible (leakage alone is positive), so
    /// substitute the last good reading while it is fresh enough. On a
    /// clean trace the raw reading is positive from the first executed
    /// quantum onwards and this is the identity.
    fn plausible_chip_power(&mut self, snap: &SystemSnapshot) -> Watts {
        let raw = snap.chip_power;
        if raw.value() <= 0.0 && !snap.tasks.is_empty() {
            if let Some((at, w)) = self.last_good_power {
                let bound = SimDuration(self.config.bid_period.0 * Self::POWER_STALENESS_ROUNDS);
                if snap.now.since(at) <= bound {
                    self.degradation.sensor_fallbacks += 1;
                    return w;
                }
            }
            return raw;
        }
        self.last_good_power = Some((snap.now, raw));
        raw
    }

    /// Junction temperature with the spike filter: a jump beyond the RC
    /// model's physical slew rate is held back (the previous accepted value
    /// is used) for up to [`Self::MAX_TEMP_REJECTS`] consecutive rounds, so
    /// one glitched read cannot trip the thermal-pressure emergency while a
    /// genuine sustained rise still gets through. On a clean trace the
    /// per-round step is far below the threshold and this is the identity.
    fn plausible_hottest(&mut self, snap: &SystemSnapshot) -> Option<Celsius> {
        let h = snap.hottest?;
        if let Some(prev) = self.last_good_temp {
            let glitch = (h.value() - prev.value()).abs() > Self::MAX_TEMP_STEP;
            if glitch && self.temp_rejects < Self::MAX_TEMP_REJECTS {
                self.temp_rejects += 1;
                return Some(prev);
            }
        }
        self.temp_rejects = 0;
        self.last_good_temp = Some(h);
        Some(h)
    }

    /// Distil the executor snapshot into `self.obs_buf` (capacity is
    /// reused).
    fn observe_into(&mut self, snap: &SystemSnapshot) {
        let plausible_power = self.plausible_chip_power(snap);
        let plausible_hottest = self.plausible_hottest(snap);
        let obs = &mut self.obs_buf;
        obs.tasks.clear();
        obs.tasks.extend(snap.tasks.iter().map(|t| TaskObs {
            id: t.id,
            core: t.core,
            priority: t.priority,
            demand: t.demand,
        }));
        obs.cores.clear();
        obs.cores.extend(snap.cores.iter().map(|c| CoreObs {
            id: c.id,
            cluster: c.cluster,
        }));
        obs.clusters.clear();
        obs.clusters
            .extend(snap.clusters.iter().map(|cl| ClusterObs {
                id: cl.id,
                supply: cl.supply_per_core,
                supply_up: cl.supply_up(),
                supply_down: cl.supply_down(),
                power: cl.power,
            }));
        // Thermal pressure (extension): translate junction-temperature
        // headroom into the equivalent power signal so the chip agent's
        // state machine — and hence the money supply — reacts to heat
        // exactly as it reacts to a TDP excursion.
        let mut chip_power = plausible_power;
        if let (Some((th, crit)), Some(hottest)) = (self.config.thermal_limit, plausible_hottest) {
            if hottest > crit {
                chip_power = chip_power.max(self.config.tdp * 1.05);
            } else if hottest > th {
                chip_power = chip_power.max(self.config.threshold * 1.01);
            }
        }
        obs.chip_power = chip_power;
    }

    /// Queue one market decision on the plan.
    fn apply(
        &mut self,
        snap: &SystemSnapshot,
        plan: &mut ActuationPlan,
        decision: &MarketDecision,
    ) {
        if self.config.actuate_via_nice {
            self.apply_via_nice(snap, plan, decision);
        } else {
            for &(task, share) in &decision.shares {
                plan.set_share(task, share);
            }
        }
        for &(cluster, step) in &decision.dvfs {
            let cl = snap.cluster(cluster);
            let level = match step {
                VfStep::Up => cl.step_up(),
                VfStep::Down => cl.step_down(),
            };
            plan.request_level(cluster, VfLevel(level));
            // Watch the request until the regulator confirms it; a lost
            // command is re-issued by `retry_lost_dvfs` next round.
            self.dvfs_watch[cluster.0] = Some(DvfsWatch {
                target: level,
                attempts: 0,
            });
        }
    }

    /// Re-issue DVFS requests the regulator never acknowledged. On a clean
    /// trace every request is in force (or in flight) by the next round's
    /// snapshot — `effective_target` reflects pending transitions — so the
    /// watch clears without a retry and this queues nothing.
    fn retry_lost_dvfs(&mut self, snap: &SystemSnapshot, plan: &mut ActuationPlan) {
        for ci in 0..self.dvfs_watch.len().min(snap.clusters.len()) {
            let Some(mut w) = self.dvfs_watch[ci] else {
                continue;
            };
            let cl = &snap.clusters[ci];
            if cl.off
                || cl.effective_target == w.target
                || w.attempts >= Self::MAX_ACTUATION_RETRIES
            {
                // Landed, moot (gated), or out of patience: resync with
                // whatever the hardware actually does.
                self.dvfs_watch[ci] = None;
                continue;
            }
            w.attempts += 1;
            plan.request_level(ClusterId(ci), VfLevel(w.target));
            self.degradation.dvfs_retries += 1;
            self.dvfs_watch[ci] = Some(w);
        }
    }

    /// Re-issue a migration the executor never performed, with exponential
    /// backoff (1, 2, 4 rounds). On a clean trace the task is on its
    /// destination core by the next round's snapshot, so the watch clears
    /// without a retry and this queues nothing.
    fn retry_lost_migration(&mut self, snap: &SystemSnapshot, plan: &mut ActuationPlan) {
        let Some(mut w) = self.migration_watch else {
            return;
        };
        let Some(t) = snap.task(w.task) else {
            // The mover exited (or crashed) before arriving; nothing owed.
            self.migration_watch = None;
            return;
        };
        if t.core == w.to {
            self.migration_watch = None;
            return;
        }
        if self.bid_rounds < w.next_retry {
            return;
        }
        if w.attempts >= Self::MAX_ACTUATION_RETRIES {
            self.migration_watch = None;
            return;
        }
        w.attempts += 1;
        w.next_retry = self.bid_rounds + (1 << w.attempts);
        let target_cluster = snap.core(w.to).cluster;
        if plan.cluster_off(snap, target_cluster) {
            plan.power_on(target_cluster);
        }
        plan.migrate(w.task, w.to);
        self.degradation.migration_retries += 1;
        self.migration_watch = Some(w);
    }

    /// The paper's kernel realization of resource distribution: translate
    /// each core's market shares into nice values ("lower nice value
    /// manifests as higher priority and more resource consumption") and let
    /// CFS weighted fair sharing approximate the ratios.
    fn apply_via_nice(
        &mut self,
        snap: &SystemSnapshot,
        plan: &mut ActuationPlan,
        decision: &MarketDecision,
    ) {
        // Group by core via a sorted scratch vector instead of a HashMap:
        // deterministic actuation order and no per-round allocation. No
        // migration is queued before shares, so the snapshot placement is
        // the effective one.
        self.nice_scratch.clear();
        self.nice_scratch
            .extend(decision.shares.iter().map(|&(task, share)| {
                let core = snap.task(task).expect("share for active task").core;
                (core, task, share.value())
            }));
        self.nice_scratch
            .sort_unstable_by_key(|&(core, task, _)| (core, task));
        let mut start = 0;
        while start < self.nice_scratch.len() {
            let core = self.nice_scratch[start].0;
            let mut end = start + 1;
            while end < self.nice_scratch.len() && self.nice_scratch[end].0 == core {
                end += 1;
            }
            let group = &self.nice_scratch[start..end];
            let total: f64 = group.iter().map(|&(_, _, s)| s).sum();
            if total > 0.0 {
                // CFS only sees weight ratios: scale the shares so the mean
                // target weight is the nice-0 weight, then snap each to the
                // closest table entry.
                let n = group.len() as f64;
                for &(_, task, share) in group {
                    let target = Nice::DEFAULT.weight() as f64 * n * share / total;
                    plan.set_nice(task, Nice::for_weight(target));
                }
            }
            start = end;
        }
    }

    /// Gate clusters with no tasks; ungate clusters that host tasks again.
    /// Runs through the plan overlays so migrations queued earlier in this
    /// same invocation count toward residency.
    fn manage_gating(&self, snap: &SystemSnapshot, plan: &mut ActuationPlan) {
        if !self.config.power_down_idle_clusters {
            return;
        }
        for ci in 0..snap.clusters.len() {
            let id = ClusterId(ci);
            let has_tasks = plan.cluster_has_tasks(snap, id);
            let off = plan.cluster_off(snap, id);
            if has_tasks && off {
                plan.power_on(id);
            } else if !has_tasks && !off {
                plan.power_off(id);
            }
        }
    }

    /// [`PpmManager::manage_gating`] against the live system, for `init`
    /// (the one hook with mutable system access).
    fn manage_gating_now(&self, sys: &mut System) {
        if !self.config.power_down_idle_clusters {
            return;
        }
        for i in 0..sys.chip().clusters().len() {
            let id = sys.chip().clusters()[i].id();
            let has_tasks = sys.cluster_has_tasks(id);
            let off = sys.chip().cluster(id).is_off();
            if has_tasks && off {
                sys.power_on(id);
            } else if !has_tasks && !off {
                sys.power_off(id);
            }
        }
    }

    /// Build the LBT view of `sys`'s chip: each cluster's ladder and
    /// profiled power behaviour (static: derived from the chip's power model
    /// and V-F tables) and its cores, whose task lists every invocation
    /// refills.
    fn init_lbt_view(&mut self, sys: &System) {
        let chip = sys.chip();
        let model = chip.power_model();
        let mut slots = vec![(0, 0); chip.cores().len()];
        let clusters = chip
            .clusters()
            .iter()
            .enumerate()
            .map(|(ci, cl)| {
                let params = model.params(cl.class());
                let n = cl.core_count() as f64;
                let idle = cl
                    .table()
                    .iter()
                    .map(|(_, p)| {
                        model.uncore(cl.class())
                            + Watts(params.leakage_coeff * p.voltage.volts() * n)
                    })
                    .collect();
                let watts_per_pu = cl
                    .table()
                    .iter()
                    .map(|(_, p)| {
                        let v = p.voltage.volts();
                        params.dynamic_coeff * v * v
                    })
                    .collect();
                let cores = cl
                    .cores()
                    .iter()
                    .enumerate()
                    .map(|(k, &id)| {
                        slots[id.0] = (ci, k);
                        CoreSnapshot {
                            id,
                            tasks: Vec::new(),
                        }
                    })
                    .collect();
                ClusterSnapshot {
                    id: cl.id(),
                    class: cl.class(),
                    ladder: Vec::new(),
                    level: 0,
                    price: Price::ZERO,
                    power: ClusterPowerProfile { idle, watts_per_pu },
                    cores,
                }
            })
            .collect();
        self.lbt_view = LbtSnapshot {
            clusters,
            ..LbtSnapshot::default()
        };
        self.lbt_slots = slots;
    }

    /// Refill the LBT view from the executor snapshot and market state, in
    /// place, so once its task lists have grown it does not allocate.
    fn fill_lbt_view(&mut self, snap: &SystemSnapshot) {
        let mut view = std::mem::take(&mut self.lbt_view);
        for (cluster, cl) in view.clusters.iter_mut().zip(&snap.clusters) {
            cluster.ladder.clone_from(&cl.ladder);
            cluster.level = cl.level;
            for core in &mut cluster.cores {
                core.tasks.clear();
            }
        }
        // `snap.tasks` is ascending by id, so every core's list is too.
        for t in &snap.tasks {
            let (ci, k) = self.lbt_slots[t.core.0];
            view.clusters[ci].cores[k].tasks.push(self.task_snapshot(t));
        }
        for cluster in &mut view.clusters {
            cluster.price = self.cluster_price(cluster);
        }
        view.tolerance = self.config.tolerance;
        view.min_bid = self.config.min_bid;
        view.supply_capped = self.market.state() != PowerState::Normal;
        self.lbt_view = view;
    }

    fn task_snapshot(&self, t: &TaskSnap) -> TaskSnapshot {
        // Off-line profile by default; the online estimator (the paper's
        // stated future work) replaces it when enabled and warmed up.
        let mut demand = ppm_workload::perclass::PerClass::new(t.demand_little, t.demand_big);
        if self.config.online_estimation {
            if let Some(est) = self.estimator.demand_per_class(t.id) {
                demand = est;
            }
        }
        TaskSnapshot {
            id: t.id,
            priority: t.priority,
            demand,
            supply: t.granted,
            bid: self.market.bid_of(t.id),
        }
    }

    /// Price of the constrained core of `cluster` from the last decision.
    fn cluster_price(&self, cluster: &ClusterSnapshot) -> Price {
        let Some(decision) = &self.last_decision else {
            return Price::ZERO;
        };
        // Constrained core: highest demand among this cluster's cores.
        // `decision.tasks` and `decision.prices` are sorted by id, so the
        // lookups are binary searches.
        let mut best: Option<(ProcessingUnits, CoreId)> = None;
        for core in &cluster.cores {
            let d: ProcessingUnits = core
                .tasks
                .iter()
                .map(|t| {
                    decision
                        .tasks
                        .binary_search_by_key(&t.id, |r| r.id)
                        .map_or(ProcessingUnits::ZERO, |i| decision.tasks[i].demand)
                })
                .sum();
            if best.is_none_or(|(bd, _)| d > bd) {
                best = Some((d, core.id));
            }
        }
        best.and_then(|(_, core)| {
            decision
                .prices
                .binary_search_by_key(&core, |&(c, _)| c)
                .ok()
                .map(|i| decision.prices[i].1)
        })
        .unwrap_or(Price::ZERO)
    }

    /// Run the LBT module and queue at most one move.
    fn run_lbt(&mut self, snap: &SystemSnapshot, plan: &mut ActuationPlan, migrate: bool) {
        self.fill_lbt_view(snap);
        if let Some(m) = self.lbt.decide_move(&self.lbt_view, migrate) {
            // Moving to a gated cluster requires powering it up first.
            let target_cluster = snap.core(m.to_core).cluster;
            if plan.cluster_off(snap, target_cluster) {
                plan.power_on(target_cluster);
            }
            // LBT never proposes a same-core move (movers sit on the
            // constrained core, targets never do) and PPM sets no affinity
            // masks, so the queued migration is real; watch it land.
            if plan.core_of(snap, m.task) != m.to_core {
                plan.migrate(m.task, m.to_core);
                self.migration_watch = Some(MigrationWatch {
                    task: m.task,
                    to: m.to_core,
                    attempts: 0,
                    next_retry: self.bid_rounds + 1,
                });
            }
        }
    }
}

impl PowerManager for PpmManager {
    fn name(&self) -> &'static str {
        "PPM"
    }

    fn init(&mut self, sys: &mut System) {
        sys.set_policy(if self.config.actuate_via_nice {
            AllocationPolicy::FairWeights
        } else {
            AllocationPolicy::Market
        });
        sys.set_tdp_accounting(self.config.tdp);
        // Until the first round distributes real shares, let every task
        // claim a fair slice so nothing starves during the first 31.7 ms.
        let ids = sys.task_ids();
        let mut residents = vec![0_usize; sys.chip().cores().len()];
        for &id in &ids {
            residents[sys.core_of(id).0] += 1;
        }
        for id in ids {
            let core = sys.core_of(id);
            let supply = sys.chip().core_supply(core);
            let n = residents[core.0].max(1) as f64;
            sys.set_share(id, supply / n);
        }
        self.init_lbt_view(sys);
        self.manage_gating_now(sys);
    }

    /// The task section is read only by a bid round.
    fn reads_tasks(&self, snap: &SystemSnapshot) -> bool {
        snap.now >= self.next_round
    }

    /// One bidding round on cadence, timing the market's bid /
    /// price-discovery / DVFS sections and the LBT module when `prof` is
    /// given. Timing never feeds back into any decision.
    fn plan(
        &mut self,
        snap: &SystemSnapshot,
        plan: &mut ActuationPlan,
        mut prof: Option<&mut PhaseProfiler>,
    ) {
        if snap.now < self.next_round {
            return;
        }
        self.next_round = snap.now + self.config.bid_period;
        self.bid_rounds += 1;
        if self.dvfs_watch.len() != snap.clusters.len() {
            self.dvfs_watch.resize(snap.clusters.len(), None);
        }

        if self.config.online_estimation {
            self.observe_costs(snap);
        }
        self.observe_into(snap);
        // Graceful degradation: chase actuations the hardware lost before
        // queueing this round's fresh decisions (plan order means a fresh
        // request for the same knob wins).
        self.retry_lost_dvfs(snap, plan);
        self.retry_lost_migration(snap, plan);
        // Task churn: retire the market agents of departed tasks (their
        // savings leave the economy with them). The sorted merge-diff
        // replaces HashSet differences, so departures are retired in
        // task-id order on every run.
        //
        // Fast path: the snapshot's change mask says the task section is
        // bitwise what the previous task capture held, and an exact
        // in-order id comparison confirms the membership is the same as
        // last round's, so the sort + merge-diff is skipped entirely. The
        // previous task capture is usually the previous round's; a tape
        // record or an auditor may have taken one in between.
        // `snap.tasks` (hence `obs_buf.tasks`) is ascending by id, and
        // `known_tasks` is sorted, so a zip compare is exact.
        let membership_unchanged = !snap.changed.tasks
            && self.obs_buf.tasks.len() == self.known_tasks.len()
            && self
                .obs_buf
                .tasks
                .iter()
                .zip(&self.known_tasks)
                .all(|(t, &k)| t.id == k);
        if !membership_unchanged {
            self.diff_task_churn();
        }
        // Run the round into the recycled decision buffer.
        let mut decision = self.last_decision.take().unwrap_or_default();
        self.market
            .round_into(&self.obs_buf, &mut decision, prof.as_deref_mut());
        self.degradation.tasks_orphaned += decision.orphans.len() as u64;
        self.apply(snap, plan, &decision);
        let state = decision.state;
        self.last_decision = Some(decision);

        // LBT cadence (§3.4), disabled in the emergency state.
        self.rounds_since_lb += 1;
        if self.config.lbt_enabled
            && state != PowerState::Emergency
            && self.rounds_since_lb >= self.config.load_balance_every
        {
            self.rounds_since_lb = 0;
            self.lbs_since_migration += 1;
            let migrate = self.lbs_since_migration >= self.config.migrate_every;
            if migrate {
                self.lbs_since_migration = 0;
            }
            let lbt_mark = prof.as_ref().map(|_| Instant::now());
            self.run_lbt(snap, plan, migrate);
            if let (Some(p), Some(m)) = (prof, lbt_mark) {
                p.record(Phase::Lbt, m.elapsed().as_nanos() as u64);
            }
        }
        self.manage_gating(snap, plan);
    }

    fn sample_policy(&self, out: &mut PolicySample) {
        out.reset(self.obs_buf.cores.len());
        if let Some(a) = self.market.allowance() {
            out.allowance = a.value();
            // Money supply = allowance in circulation + every live agent's
            // savings (exiting tasks take their savings with them).
            let savings: f64 = self
                .known_tasks
                .iter()
                .map(|&t| self.market.savings_of(t).value())
                .sum();
            out.money_supply = a.value() + savings;
        }
        if let Some(d) = &self.last_decision {
            for &(core, price) in &d.prices {
                out.set_core_price(core.0, price.value());
            }
        }
    }

    fn degradation(&self) -> Degradation {
        self.degradation
    }

    fn audit(&mut self, _snap: &SystemSnapshot, auditor: &mut Auditor) {
        self.audit_impl(auditor);
    }

    /// Equilibrium marginal utility for the fleet exchange: the discovered
    /// per-core price mass per observed watt. When the chip's TDP is
    /// squeezed, supply shrinks, prices rise, and the chip bids higher for
    /// budget — exactly the §3.2 scarcity signal, one level up. `desired`
    /// scales the draw by the demand/supply imbalance (slew-bounded the
    /// way the chip agent's Δ is).
    fn fleet_bid(&self) -> Option<FleetBid> {
        let d = self.last_decision.as_ref()?;
        let power = self.obs_buf.chip_power;
        let price_mass: f64 = d.prices.iter().map(|&(_, p)| p.value()).sum();
        let value_per_watt = price_mass / power.value().max(1e-6);
        let imbalance = if d.total_supply.is_positive() {
            (d.total_demand.value() / d.total_supply.value()).clamp(0.5, 2.0)
        } else {
            1.0
        };
        Some(FleetBid {
            value_per_watt,
            power,
            desired: power * imbalance,
        })
    }

    /// Adopt the exchange's cleared allowance as the chip TDP. The
    /// threshold keeps its configured ratio below the TDP, so the buffer
    /// zone scales with the budget. Bitwise-equal budgets are recognised
    /// as no-ops inside the market.
    fn set_power_budget(&mut self, tdp: Watts) -> bool {
        let ratio = self.config.threshold.value() / self.config.tdp.value();
        let threshold = Watts(tdp.value() * ratio);
        if self.market.set_power_budget(tdp, threshold) {
            self.config.tdp = tdp;
            self.config.threshold = threshold;
        }
        true
    }
}

impl PpmManager {
    /// The sorted merge-diff behind task-churn handling: retire departed
    /// tasks' market agents and estimator state, and refresh `known_tasks`.
    fn diff_task_churn(&mut self) {
        self.current_tasks.clear();
        self.current_tasks
            .extend(self.obs_buf.tasks.iter().map(|t| t.id));
        self.current_tasks.sort_unstable();
        // Both lists are sorted: walk `current_tasks` alongside, and retire
        // every known task it no longer holds, in ascending id order.
        let mut j = 0;
        for &old in &self.known_tasks {
            while self.current_tasks.get(j).is_some_and(|&n| n < old) {
                j += 1;
            }
            if self.current_tasks.get(j) != Some(&old) {
                self.market.remove_task(old);
                self.estimator.remove_task(old);
            }
        }
        std::mem::swap(&mut self.known_tasks, &mut self.current_tasks);
    }

    /// Money conservation (§3.2): re-derive every agent's balance-sheet
    /// update from the round records and flag any divergence. The checks
    /// recompute the market's own formulas on the market's own inputs, so
    /// on a correct implementation they hold bit-exactly. This is the body
    /// behind [`PowerManager::audit`].
    fn audit_impl(&mut self, auditor: &mut Auditor) {
        let round = self.market.rounds();
        if round == self.audited_round {
            return; // no new round this quantum
        }
        self.audited_round = round;
        // Split borrows: the decision is read while the audit state is
        // rebuilt.
        let Self {
            config,
            last_decision,
            audit_savings,
            audit_prev_allowance,
            ..
        } = self;
        let Some(d) = last_decision.as_ref() else {
            return;
        };
        const EPS: f64 = 1e-9;
        let min_bid = config.min_bid.value();
        let cap_factor = config.savings_cap_factor;
        // Allowance bounds: clamp(A + Δ) ∈ [min_bid · participants, ·1e12].
        let floor = min_bid * d.tasks.len().max(1) as f64;
        let a_next = d.allowance.value();
        if a_next < floor - EPS || a_next > floor * 1e12 * (1.0 + 1e-9) + EPS {
            auditor.report(
                "money-allowance-bounds",
                format!("allowance {a_next} outside [{floor}, {floor}e12]"),
            );
        }
        // Distribution: Σ a_t over participants never exceeds the allowance
        // announced by the previous round.
        if let Some(prev_a) = *audit_prev_allowance {
            let distributed: f64 = d.tasks.iter().map(|t| t.allowance.value()).sum();
            if distributed > prev_a.value() * (1.0 + 1e-9) + EPS {
                auditor.report(
                    "money-overdistributed",
                    format!(
                        "Σ task allowances {distributed} > allowance {}",
                        prev_a.value()
                    ),
                );
            }
        }
        for t in &d.tasks {
            let a = t.allowance.value();
            let b = t.bid.value();
            let m = t.savings.value();
            // Bid floor: every bidding path clamps at min_bid (a frozen bid
            // replays an older — also clamped — bid).
            if b < min_bid - EPS {
                auditor.report(
                    "money-bid-floor",
                    format!("task {}: bid {b} < min bid {min_bid}", t.id.0),
                );
            }
            // Savings band: m' ∈ [0, cap_factor · a].
            if m < -EPS || m > a * cap_factor + EPS {
                auditor.report(
                    "money-savings-cap",
                    format!(
                        "task {}: savings {m} outside [0, {}]",
                        t.id.0,
                        a * cap_factor
                    ),
                );
            }
            // Conservation: m' must equal clamp(m + a − b, 0, cap_factor·a)
            // computed from the balance we recorded last round. The inputs
            // are the market's own f64s, so the recomputation is bit-exact.
            if let Ok(i) = audit_savings.binary_search_by_key(&t.id, |&(id, _)| id) {
                let prev = audit_savings[i].1.value();
                let expect = (prev + a - b).clamp(0.0, a * cap_factor);
                if (m - expect).abs() > EPS {
                    auditor.report(
                        "money-conservation",
                        format!(
                            "task {}: savings {m}, expected clamp({prev} + {a} - {b}) = {expect}",
                            t.id.0
                        ),
                    );
                }
            }
        }
        audit_savings.clear();
        audit_savings.extend(d.tasks.iter().map(|t| (t.id, t.savings)));
        *audit_prev_allowance = Some(d.allowance);
    }
}

/// Place tasks on the LITTLE cluster round-robin, as after boot on TC2
/// (Linux boots on the LITTLE cluster in the paper's setup).
pub fn place_on_little(sys: &mut System) {
    let little: Vec<CoreId> = sys
        .chip()
        .clusters()
        .iter()
        .filter(|c| c.class() == ppm_platform::core::CoreClass::Little)
        .flat_map(|c| c.cores().to_vec())
        .collect();
    assert!(!little.is_empty(), "chip has no LITTLE cluster");
    let ids = sys.task_ids();
    for (i, id) in ids.into_iter().enumerate() {
        let target = little[i % little.len()];
        if sys.core_of(id) != target {
            sys.migrate(id, target);
        }
    }
}

/// Handy constructor: a TC2 system with `tasks`, placed on LITTLE, run by a
/// PPM manager — the common experimental setup.
pub fn tc2_ppm_system(
    tasks: Vec<ppm_workload::task::Task>,
    config: PpmConfig,
) -> (System, PpmManager) {
    let chip = ppm_platform::chip::Chip::tc2();
    let mut sys = System::new(chip, AllocationPolicy::Market);
    let little0 = CoreId(0);
    for t in tasks {
        sys.add_task(t, little0);
    }
    place_on_little(&mut sys);
    (sys, PpmManager::new(config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_platform::units::SimDuration;
    use ppm_sched::executor::Simulation;
    use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm_workload::task::{Priority, Task};

    fn task(id: usize, b: Benchmark, i: Input, prio: u32) -> Task {
        Task::new(
            TaskId(id),
            BenchmarkSpec::of(b, i).expect("variant"),
            Priority(prio),
        )
    }

    #[test]
    fn light_load_settles_at_low_power_and_meets_qos() {
        // One easy task: PPM should meet its heart-rate goal at far below
        // the maximum power.
        let (sys, mgr) = tc2_ppm_system(
            vec![task(0, Benchmark::Blackscholes, Input::Large, 1)],
            PpmConfig::tc2(),
        );
        let mut sim = Simulation::new(sys, mgr).with_warmup(SimDuration::from_secs(5));
        sim.run_for(SimDuration::from_secs(30));
        let m = sim.metrics();
        let miss = m.task(TaskId(0)).expect("observed").miss_fraction();
        assert!(miss < 0.10, "miss fraction {miss}");
        // Power far below the 8 W chip peak: a lone 200-PU task on LITTLE.
        assert!(
            m.average_power().value() < 1.0,
            "power {}",
            m.average_power()
        );
    }

    #[test]
    fn idle_big_cluster_is_gated() {
        let (sys, mgr) = tc2_ppm_system(
            vec![task(0, Benchmark::Blackscholes, Input::Large, 1)],
            PpmConfig::tc2(),
        );
        let mut sim = Simulation::new(sys, mgr);
        sim.run_for(SimDuration::from_secs(2));
        assert!(sim.system().chip().cluster(ClusterId(1)).is_off());
    }

    #[test]
    fn demanding_task_is_migrated_to_big_cluster() {
        // tracking_f demands ~800 PU on LITTLE (over a shared core) but only
        // ~500 on big: with two of them on LITTLE, LBT must move work over.
        let (sys, mgr) = tc2_ppm_system(
            vec![
                task(0, Benchmark::Tracking, Input::FullHd, 1),
                task(1, Benchmark::Multicnt, Input::FullHd, 1),
                task(2, Benchmark::Texture, Input::FullHd, 1),
                task(3, Benchmark::X264, Input::Native, 1),
            ],
            PpmConfig::tc2(),
        );
        let mut sim = Simulation::new(sys, mgr).with_warmup(SimDuration::from_secs(5));
        sim.run_for(SimDuration::from_secs(40));
        let moved_to_big = sim
            .system()
            .task_ids()
            .iter()
            .filter(|&&id| {
                sim.system().chip().core(sim.system().core_of(id)).class()
                    == ppm_platform::core::CoreClass::Big
            })
            .count();
        let m = sim.metrics();
        assert!(
            moved_to_big >= 1,
            "heavy tasks should spill to the big cluster; migrations: {} inter-cluster, {} intra",
            m.migrations_inter,
            m.migrations_intra
        );
    }

    #[test]
    fn tdp_cap_is_enforced() {
        // Heavy load under an artificial 4 W cap: the emergency mechanism
        // must keep time-above-TDP small.
        let (sys, mgr) = tc2_ppm_system(
            vec![
                task(0, Benchmark::Tracking, Input::FullHd, 1),
                task(1, Benchmark::Multicnt, Input::FullHd, 1),
                task(2, Benchmark::Texture, Input::FullHd, 1),
                task(3, Benchmark::Swaptions, Input::Native, 1),
                task(4, Benchmark::X264, Input::Native, 1),
                task(5, Benchmark::Blackscholes, Input::Native, 1),
            ],
            PpmConfig::tc2_with_tdp(Watts(4.0)),
        );
        let mut sim = Simulation::new(sys, mgr).with_warmup(SimDuration::from_secs(5));
        sim.run_for(SimDuration::from_secs(60));
        let m = sim.metrics();
        // Discrete V-F levels can straddle the cap, so the paper expects
        // the overloaded system to "oscillate around the TDP"; what must
        // hold is that excursions are small and brief and the budget is
        // respected on average.
        let above = m.time_above_tdp.as_secs_f64() / m.total_time().as_secs_f64();
        assert!(above < 0.30, "time above TDP: {:.1}%", above * 100.0);
        assert!(
            m.chip_energy.peak_power().value() < 4.0 * 1.10,
            "peak {} strays far above the cap",
            m.chip_energy.peak_power()
        );
        assert!(m.average_power().value() < 4.0, "avg {}", m.average_power());
    }

    #[test]
    fn higher_priority_task_gets_better_qos_under_contention() {
        // The Figure 7 setup: two demanding tasks pinned to one big core,
        // LBT disabled, swaptions at priority 7 vs bodytrack at 1.
        let chip = ppm_platform::chip::Chip::tc2();
        let mut sys = System::new(chip, AllocationPolicy::Market);
        // A LITTLE core, where the two native inputs genuinely contend
        // (sum of demands ~970 PU of the 1000 PU top supply, with
        // bodytrack's phase peaks crossing it).
        sys.add_task(task(0, Benchmark::Swaptions, Input::Native, 7), CoreId(0));
        sys.add_task(task(1, Benchmark::Bodytrack, Input::Native, 1), CoreId(0));
        let mgr = PpmManager::new(PpmConfig::tc2().without_lbt());
        let mut sim = Simulation::new(sys, mgr).with_warmup(SimDuration::from_secs(5));
        sim.run_for(SimDuration::from_secs(60));
        let m = sim.metrics();
        let swap = m.task(TaskId(0)).expect("t0").out_of_range_fraction();
        let body = m.task(TaskId(1)).expect("t1").out_of_range_fraction();
        assert!(
            swap < body,
            "high-priority swaptions ({swap:.2}) should beat bodytrack ({body:.2})"
        );
    }
}

#[cfg(test)]
mod nice_actuation_tests {
    use super::*;
    use ppm_platform::units::SimDuration;
    use ppm_sched::executor::Simulation;
    use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm_workload::task::{Priority, Task};

    fn run(config: PpmConfig) -> f64 {
        let mk = |id: usize, b, i, p| {
            Task::new(
                TaskId(id),
                BenchmarkSpec::of(b, i).expect("variant"),
                Priority(p),
            )
        };
        let (sys, mgr) = tc2_ppm_system(
            vec![
                mk(0, Benchmark::Texture, Input::Vga, 1),
                mk(1, Benchmark::Tracking, Input::Vga, 1),
                mk(2, Benchmark::H264, Input::Soccer, 1),
                mk(3, Benchmark::Blackscholes, Input::Large, 1),
            ],
            config,
        );
        let mut sim = Simulation::new(sys, mgr).with_warmup(SimDuration::from_secs(5));
        sim.run_for(SimDuration::from_secs(30));
        sim.metrics().any_miss_fraction()
    }

    #[test]
    fn nice_quantization_approximates_exact_shares() {
        // The kernel realization (CFS weights from the 40-entry nice table)
        // must land close to the idealized exact-share actuation.
        let exact = run(PpmConfig::tc2());
        let nice = run(PpmConfig::tc2().with_nice_actuation());
        assert!(
            nice < exact + 0.15,
            "nice actuation miss {nice:.2} vs exact {exact:.2}"
        );
    }
}

#[cfg(test)]
mod churn_tests {
    use super::*;
    use ppm_platform::units::SimDuration;
    use ppm_sched::executor::Simulation;
    use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm_workload::task::{Priority, Task};

    #[test]
    fn manager_runs_rounds_steps_vf_and_retires_departed_agents() {
        let (sys, mgr) = tc2_ppm_system(
            vec![Task::new(
                TaskId(0),
                BenchmarkSpec::of(Benchmark::Tracking, Input::FullHd).expect("variant"),
                Priority(1),
            )],
            PpmConfig::tc2(),
        );
        let mut sim = Simulation::new(sys, mgr);
        sim.run_for(SimDuration::from_secs(5));
        sim.system_mut().add_task(
            Task::new(
                TaskId(1),
                BenchmarkSpec::of(Benchmark::Texture, Input::Vga).expect("variant"),
                Priority(1),
            ),
            ppm_platform::core::CoreId(1),
        );
        sim.run_for(SimDuration::from_secs(2));
        assert!(
            sim.manager().market().bid_of(TaskId(1)) > Money::ZERO,
            "an admitted task gets a market agent"
        );
        sim.system_mut().remove_task(TaskId(1));
        sim.run_for(SimDuration::from_secs(1));

        let rounds = sim.manager().market().rounds();
        assert!(rounds > 100, "one market round per bid period: {rounds}");
        assert!(
            sim.metrics().vf_transitions > 0,
            "tracking_f at 800 PU forces DVFS activity"
        );
        assert_eq!(
            sim.manager().market().bid_of(TaskId(1)),
            Money::ZERO,
            "a departed task's agent is freed"
        );
    }
}
