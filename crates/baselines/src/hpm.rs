//! HPM: hierarchical control-theoretic power management.
//!
//! Models the paper's own earlier framework \[25\] as §5.3 characterises it:
//! "a control-theory based power management framework that employs multiple
//! PID controllers to meet the demand of tasks in asymmetric multi-cores
//! under TDP constraint. However, the HPM scheduler uses naive load
//! balancing and task migration strategy" — "relatively simple and
//! non-speculative … oblivious to the utilizations in the other clusters".
//!
//! Three controller layers:
//!
//! 1. **Per-task performance PID** — drives the task's CPU share from its
//!    heart-rate error.
//! 2. **Per-cluster DVFS loop** — picks the lowest V-F level whose supply
//!    covers the busiest core's allocated shares at a target utilization,
//!    clamped by the chip layer's frequency cap.
//! 3. **Chip power-cap PID** — integrates the TDP error into a per-cluster
//!    maximum-level cap.
//!
//! Plus the naive LBT: shares-only balancing inside a cluster and
//! threshold-triggered migration that picks the destination by task count
//! alone (no speculation about demand, price, or power on the target).

use ppm_platform::core::{CoreClass, CoreId};
use ppm_platform::units::{ProcessingUnits, SimDuration, SimTime, Watts};
use ppm_platform::vf::VfLevel;
use ppm_sched::executor::{AllocationPolicy, PhaseProfiler, PowerManager, System};
use ppm_sched::metrics::Degradation;
use ppm_sched::plan::ActuationPlan;
use ppm_sched::snapshot::SystemSnapshot;
use ppm_workload::task::TaskId;

use crate::pid::{Pid, PidConfig};

/// Configuration of the HPM baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HpmConfig {
    /// Period of the per-task performance loops.
    pub task_period: SimDuration,
    /// Period of the chip power loop.
    pub power_period: SimDuration,
    /// Period of the naive load-balance/migration pass.
    pub lbt_period: SimDuration,
    /// Target per-core utilization the DVFS loop aims for.
    pub target_utilization: f64,
    /// TDP constraint. `None` = uncapped.
    pub tdp: Option<Watts>,
}

impl HpmConfig {
    /// Defaults in the spirit of the DAC'13 system.
    pub fn new() -> HpmConfig {
        HpmConfig {
            task_period: SimDuration::from_millis(50),
            power_period: SimDuration::from_millis(100),
            lbt_period: SimDuration::from_millis(200),
            target_utilization: 0.85,
            tdp: None,
        }
    }

    /// Enable the TDP loop.
    pub fn with_tdp(mut self, tdp: Watts) -> HpmConfig {
        self.tdp = Some(tdp);
        self
    }
}

impl Default for HpmConfig {
    fn default() -> Self {
        HpmConfig::new()
    }
}

/// The HPM power manager.
#[derive(Debug)]
pub struct HpmManager {
    config: HpmConfig,
    /// One performance controller per task (indexed by task id).
    task_pids: Vec<Pid>,
    /// Power-cap controller.
    power_pid: Pid,
    /// Per-cluster maximum-level cap from the power loop (continuous, in
    /// level units; discretised when applied).
    level_cap: f64,
    next_task: SimTime,
    next_power: SimTime,
    next_lbt: SimTime,
    /// Per-task migration cooldown (suppresses thrash: every move resets
    /// the heart-rate telemetry the PID loops feed on).
    migrated_at: Vec<SimTime>,
    /// Last chip-power reading that looked sane, for the dropped-sensor
    /// fallback in the power loop.
    last_good_power: Option<(SimTime, Watts)>,
    /// Graceful-degradation counters (sensor fallbacks taken).
    degradation: Degradation,
}

impl HpmManager {
    /// Build an HPM manager.
    pub fn new(config: HpmConfig) -> HpmManager {
        HpmManager {
            config,
            task_pids: Vec::new(),
            // Error is in watts; output is a level-cap offset.
            power_pid: Pid::new(PidConfig {
                kp: 3.0,
                ki: 8.0,
                kd: 0.0,
                output_limits: (-8.0, 0.0),
                integral_limits: (-6.0, 0.0),
            }),
            level_cap: 0.0,
            next_task: SimTime::ZERO,
            next_power: SimTime::ZERO,
            next_lbt: SimTime::ZERO,
            migrated_at: Vec::new(),
            last_good_power: None,
            degradation: Degradation::default(),
        }
    }

    /// How long a stale power reading may stand in for a dropped one, in
    /// power-loop periods.
    const POWER_STALENESS_PERIODS: u64 = 8;

    /// Chip power with a last-good fallback: a zero reading while tasks are
    /// running is a dropped sensor read, not physics, so the last good
    /// reading substitutes while it is fresh. Clean traces never take the
    /// fallback — the first snapshot has no last-good reading yet and every
    /// later clean reading with running tasks is positive.
    fn plausible_power(&mut self, snap: &SystemSnapshot) -> Watts {
        let w = snap.chip_power;
        if w.value() <= 0.0 && !snap.tasks.is_empty() {
            if let Some((at, good)) = self.last_good_power {
                let staleness = SimDuration(
                    self.config
                        .power_period
                        .0
                        .saturating_mul(Self::POWER_STALENESS_PERIODS),
                );
                if snap.now.since(at) <= staleness {
                    self.degradation.sensor_fallbacks += 1;
                    return good;
                }
            }
            return w;
        }
        if w.value() > 0.0 {
            self.last_good_power = Some((snap.now, w));
        }
        w
    }

    /// Hold-down after a migration before the task may move again.
    const MIGRATION_COOLDOWN: SimDuration = SimDuration(2_000_000);

    fn may_move(&self, now: SimTime, id: TaskId) -> bool {
        self.migrated_at.get(id.0).is_none_or(|&t| {
            now.since(SimTime::ZERO) >= t.since(SimTime::ZERO) + Self::MIGRATION_COOLDOWN
        })
    }

    fn note_move(&mut self, now: SimTime, id: TaskId) {
        if self.migrated_at.len() <= id.0 {
            self.migrated_at.resize(id.0 + 1, SimTime::ZERO);
        }
        self.migrated_at[id.0] = now;
    }

    /// The configuration in force.
    pub fn config(&self) -> &HpmConfig {
        &self.config
    }

    /// Performance loops: one PID per task on normalized heart-rate error.
    fn run_task_loops(&mut self, snap: &SystemSnapshot, plan: &mut ActuationPlan, dt: SimDuration) {
        let max_id = snap.tasks.iter().map(|t| t.id.0 + 1).max().unwrap_or(0);
        while self.task_pids.len() < max_id {
            // Output is a share adjustment in PU per update.
            self.task_pids
                .push(Pid::new(PidConfig::pi(80.0, 40.0, (-150.0, 150.0))));
        }
        for t in &snap.tasks {
            let hr = t.heart_rate;
            let target = t.target_rate;
            // No telemetry (admission or a fresh migration): seed the
            // share from the profile once, then let the window refill
            // without disturbing the controller.
            if hr <= 0.0 {
                if !t.share.is_positive() {
                    let class = snap.core(t.core).class;
                    plan.set_share(t.id, t.profiled_demand(class));
                }
                continue;
            }
            let err = (target - hr) / target;
            let adjust = self.task_pids[t.id.0].update(err, dt);
            let supply = snap.core(t.core).supply;
            let share =
                ProcessingUnits((t.share.value() + adjust).clamp(10.0, supply.value().max(10.0)));
            plan.set_share(t.id, share);
        }
    }

    /// Chip power loop: integrate the TDP error into a level cap.
    fn run_power_loop(&mut self, snap: &SystemSnapshot, dt: SimDuration) {
        let Some(tdp) = self.config.tdp else {
            self.level_cap = 0.0;
            return;
        };
        // Negative when above the cap; positive headroom is clipped hard so
        // the integral releases the frequency cap only slowly after a
        // violation (asymmetric anti-windup).
        let err = (tdp - self.plausible_power(snap)).value();
        self.level_cap = self.power_pid.update(err.min(0.05), dt);
    }

    /// DVFS loop: per cluster, the busiest core's allocated shares set the
    /// level, clamped by the power cap. Shares come through the plan overlay
    /// so this sees what the task loops just queued.
    fn run_dvfs(&mut self, snap: &SystemSnapshot, plan: &mut ActuationPlan) {
        for cl in &snap.clusters {
            if cl.off {
                continue;
            }
            let busiest: f64 = cl
                .cores
                .iter()
                .map(|&c| {
                    snap.tasks_on(c)
                        .map(|t| plan.share_of(snap, t.id).value())
                        .sum::<f64>()
                })
                .fold(0.0, f64::max);
            let wanted =
                cl.level_for_demand(ProcessingUnits(busiest / self.config.target_utilization));
            let cap_offset = self.level_cap.round() as i64; // ≤ 0
            let capped = (wanted as i64 + cap_offset).clamp(0, cl.max_level() as i64) as usize;
            if cl.effective_target != capped {
                plan.request_level(cl.id, VfLevel(capped));
            }
        }
    }

    /// Naive LBT: utilization-threshold balancing and migration, oblivious
    /// to conditions on the destination cluster. Reads go through the plan
    /// overlay so moves queued earlier in the pass are visible to later
    /// decisions, like they were when this actuated inline.
    fn run_lbt(&mut self, snap: &SystemSnapshot, plan: &mut ActuationPlan) {
        let now = snap.now;
        fn alloc(plan: &ActuationPlan, snap: &SystemSnapshot, c: CoreId) -> f64 {
            plan.tasks_on(snap, c)
                .map(|t| plan.share_of(snap, t.id).value())
                .sum()
        }
        // Intra-cluster: move one task from the most-allocated core to the
        // least-allocated one when the gap exceeds 25 % of the supply.
        for cl in &snap.clusters {
            if cl.off {
                continue;
            }
            let supply = cl.supply_per_core.value();
            if supply <= 0.0 {
                continue;
            }
            let Some(&busiest) = cl
                .cores
                .iter()
                .max_by(|&&a, &&b| alloc(plan, snap, a).total_cmp(&alloc(plan, snap, b)))
            else {
                continue;
            };
            let Some(&idlest) = cl
                .cores
                .iter()
                .min_by(|&&a, &&b| alloc(plan, snap, a).total_cmp(&alloc(plan, snap, b)))
            else {
                continue;
            };
            if alloc(plan, snap, busiest) - alloc(plan, snap, idlest) > 0.40 * supply {
                // Move the smallest movable task (cheapest to relocate).
                let victim = plan
                    .tasks_on(snap, busiest)
                    .filter(|t| self.may_move(now, t.id))
                    .min_by(|a, b| {
                        plan.share_of(snap, a.id)
                            .value()
                            .total_cmp(&plan.share_of(snap, b.id).value())
                    })
                    .map(|t| t.id);
                if let Some(victim) = victim {
                    plan.migrate(victim, idlest);
                    self.note_move(now, victim);
                }
            }
        }
        // Inter-cluster, threshold-triggered: if a LITTLE core remains
        // over-committed at the cluster's top frequency, push its biggest
        // task to the big cluster (destination = fewest tasks, no
        // speculation). If a big-cluster task has become small, pull it
        // back to LITTLE.
        let little_cores: Vec<CoreId> = snap
            .cores
            .iter()
            .filter(|c| c.class == CoreClass::Little)
            .map(|c| c.id)
            .collect();
        let big_cores: Vec<CoreId> = snap
            .cores
            .iter()
            .filter(|c| c.class == CoreClass::Big)
            .map(|c| c.id)
            .collect();
        for &c in &little_cores {
            let max_supply = snap.core(c).max_supply.value();
            let committed: f64 = alloc(plan, snap, c);
            if committed > 0.95 * max_supply {
                let victim = plan
                    .tasks_on(snap, c)
                    .filter(|t| self.may_move(now, t.id))
                    .max_by(|a, b| {
                        plan.share_of(snap, a.id)
                            .value()
                            .total_cmp(&plan.share_of(snap, b.id).value())
                    })
                    .map(|t| t.id);
                let target = big_cores
                    .iter()
                    .filter(|&&bc| !plan.cluster_off(snap, snap.core(bc).cluster))
                    .min_by_key(|&&bc| (plan.tasks_on_count(snap, bc), bc.0))
                    .copied();
                if let (Some(v), Some(t)) = (victim, target) {
                    if plan.cluster_off(snap, snap.core(t).cluster) {
                        continue;
                    }
                    plan.migrate(v, t);
                    self.note_move(now, v);
                    return; // one inter-cluster move per pass
                }
            }
        }
        for &c in &big_cores {
            let on_core: Vec<TaskId> = plan.tasks_on(snap, c).map(|t| t.id).collect();
            for t in on_core {
                if !self.may_move(now, t) {
                    continue;
                }
                // A task whose share would comfortably fit a LITTLE core
                // (scaled by a generic 2x heterogeneity factor, no
                // per-task speculation) goes back.
                let share = plan.share_of(snap, t).value();
                let little_max = 1000.0;
                if share * 2.0 < 0.5 * little_max {
                    if let Some(target) = little_cores
                        .iter()
                        .min_by_key(|&&lc| (plan.tasks_on_count(snap, lc), lc.0))
                        .copied()
                    {
                        plan.migrate(t, target);
                        self.note_move(now, t);
                        return;
                    }
                }
            }
        }
        // Gate clusters with nothing to run; wake them when targeted again.
        for cl in &snap.clusters {
            let has_tasks = plan.cluster_has_tasks(snap, cl.id);
            let off = plan.cluster_off(snap, cl.id);
            if has_tasks && off {
                plan.power_on(cl.id);
            } else if !has_tasks && !off {
                plan.power_off(cl.id);
            }
        }
    }
}

impl PowerManager for HpmManager {
    fn name(&self) -> &'static str {
        "HPM"
    }

    fn degradation(&self) -> Degradation {
        self.degradation
    }

    fn init(&mut self, sys: &mut System) {
        sys.set_policy(AllocationPolicy::Market);
        if let Some(tdp) = self.config.tdp {
            sys.set_tdp_accounting(tdp);
        }
        // Seed shares from profiles so the first period is sane.
        for id in sys.task_ids() {
            let class = sys.chip().core(sys.core_of(id)).class();
            let seed = sys.task(id).spec().profiled_demand(class);
            sys.set_share(id, seed);
        }
    }

    /// Each of the three loops reads the task section when its timer is
    /// due.
    fn reads_tasks(&self, snap: &SystemSnapshot) -> bool {
        let now = snap.now;
        now >= self.next_task || now >= self.next_power || now >= self.next_lbt
    }

    fn plan(
        &mut self,
        snap: &SystemSnapshot,
        plan: &mut ActuationPlan,
        _prof: Option<&mut PhaseProfiler>,
    ) {
        let now = snap.now;
        if now >= self.next_task {
            self.next_task = now + self.config.task_period;
            self.run_task_loops(snap, plan, self.config.task_period);
            self.run_dvfs(snap, plan);
        }
        if now >= self.next_power {
            self.next_power = now + self.config.power_period;
            self.run_power_loop(snap, self.config.power_period);
        }
        if now >= self.next_lbt {
            self.next_lbt = now + self.config.lbt_period;
            self.run_lbt(snap, plan);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_platform::chip::Chip;
    use ppm_sched::executor::Simulation;
    use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm_workload::task::{Priority, Task};

    fn task(id: usize, b: Benchmark, i: Input) -> Task {
        Task::new(
            TaskId(id),
            BenchmarkSpec::of(b, i).expect("variant"),
            Priority(1),
        )
    }

    fn system_with(tasks: Vec<Task>) -> System {
        let mut sys = System::new(Chip::tc2(), AllocationPolicy::Market);
        for (i, t) in tasks.into_iter().enumerate() {
            sys.add_task(t, CoreId(i % 3));
        }
        sys
    }

    #[test]
    fn pid_holds_light_task_at_target() {
        let sys = system_with(vec![task(0, Benchmark::Blackscholes, Input::Large)]);
        let mut sim = Simulation::new(sys, HpmManager::new(HpmConfig::new()))
            .with_warmup(SimDuration::from_secs(5));
        sim.run_for(SimDuration::from_secs(30));
        let miss = sim
            .metrics()
            .task(TaskId(0))
            .expect("observed")
            .miss_fraction();
        assert!(miss < 0.15, "miss {miss}");
        // Power stays modest: the task needs only ~200 PU.
        assert!(sim.metrics().average_power().value() < 1.5);
    }

    #[test]
    fn overloaded_little_core_sheds_to_big() {
        // Four heavy tasks (~3150 PU of LITTLE demand) cannot fit the
        // 3×1000 PU LITTLE cluster even after intra-cluster balancing.
        let sys = system_with(vec![
            task(0, Benchmark::Tracking, Input::FullHd),
            task(1, Benchmark::Multicnt, Input::FullHd),
            task(2, Benchmark::Texture, Input::FullHd),
            task(3, Benchmark::X264, Input::Native),
        ]);
        let mut sim = Simulation::new(sys, HpmManager::new(HpmConfig::new()));
        sim.run_for(SimDuration::from_secs(10));
        let on_big = sim
            .system()
            .task_ids()
            .iter()
            .filter(|&&t| {
                sim.system().chip().core(sim.system().core_of(t)).class() == CoreClass::Big
            })
            .count();
        assert!(on_big >= 1, "overload should trigger a naive migration");
    }

    #[test]
    fn power_cap_loop_brings_chip_below_tdp() {
        let sys = system_with(vec![
            task(0, Benchmark::Tracking, Input::FullHd),
            task(1, Benchmark::Multicnt, Input::FullHd),
            task(2, Benchmark::Texture, Input::FullHd),
            task(3, Benchmark::X264, Input::Native),
            task(4, Benchmark::Swaptions, Input::Native),
            task(5, Benchmark::Blackscholes, Input::Native),
        ]);
        let mgr = HpmManager::new(HpmConfig::new().with_tdp(Watts(4.0)));
        let mut sim = Simulation::new(sys, mgr).with_warmup(SimDuration::from_secs(5));
        sim.run_for(SimDuration::from_secs(40));
        let m = sim.metrics();
        assert!(
            m.average_power().value() < 4.0,
            "avg {} exceeds the cap",
            m.average_power()
        );
        let above = m.time_above_tdp.as_secs_f64() / m.total_time().as_secs_f64();
        assert!(above < 0.35, "above-TDP fraction {above}");
    }

    #[test]
    fn moderate_power_without_cap() {
        // Figure 5: HPM's average power is far below HL's because DVFS
        // follows the allocated shares instead of raw utilization.
        let sys = system_with(vec![
            task(0, Benchmark::Swaptions, Input::Large),
            task(1, Benchmark::Blackscholes, Input::Large),
            task(2, Benchmark::Texture, Input::Vga),
        ]);
        let mut sim = Simulation::new(sys, HpmManager::new(HpmConfig::new()))
            .with_warmup(SimDuration::from_secs(2));
        sim.run_for(SimDuration::from_secs(20));
        assert!(
            sim.metrics().average_power().value() < 2.5,
            "HPM power {}",
            sim.metrics().average_power()
        );
    }
}
