//! HL: the heterogeneity-aware Linux scheduler with the ondemand governor.
//!
//! Models the Linaro big.LITTLE MP scheduler of Linux 3.8 as the paper
//! describes it (§5.3): "the activeness of a task (the amount of time spent
//! in the active task run-queue) is used as a proxy for migration decisions
//! … the HL scheduler migrates a task to \[the\] A15 cluster (A7 cluster) once
//! the time spent in the active run-queue exceeds (falls below) certain
//! predefined threshold. Furthermore, the HL scheduler does not react to the
//! varying demands of the individual tasks." Frequencies come from the
//! per-cluster *ondemand* governor.
//!
//! Under a TDP cap the paper "switch\[es\] off the A15 cluster once the power
//! exceeds the TDP", since the A7 cluster alone stays within the budget.

use ppm_platform::cluster::ClusterId;
use ppm_platform::core::{CoreClass, CoreId};
use ppm_platform::units::{SimDuration, SimTime, Watts};
use ppm_sched::executor::{AllocationPolicy, PhaseProfiler, PowerManager, System};
use ppm_sched::governor::Ondemand;
use ppm_sched::plan::ActuationPlan;
use ppm_sched::snapshot::SystemSnapshot;
use ppm_workload::task::TaskId;

/// Configuration of the HL baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HlConfig {
    /// PELT load above which a task is promoted to the big cluster.
    pub up_threshold: f64,
    /// PELT load below which a task is demoted to the LITTLE cluster.
    pub down_threshold: f64,
    /// How often migration decisions are taken.
    pub period: SimDuration,
    /// Power cap; when exceeded the big cluster is switched off for the
    /// remainder of the run (the paper's Figure 6 setup). `None` = uncapped.
    pub tdp: Option<Watts>,
    /// Readings above this are rejected as sensor glitches rather than
    /// physics; the TC2 chip cannot draw anywhere near this much.
    pub max_plausible: Watts,
}

impl HlConfig {
    /// Thresholds in the spirit of the Linaro HMP defaults.
    pub fn new() -> HlConfig {
        HlConfig {
            up_threshold: 0.80,
            down_threshold: 0.30,
            period: SimDuration::from_millis(100),
            tdp: None,
            max_plausible: Watts(20.0),
        }
    }

    /// Enable the TDP cutoff.
    pub fn with_tdp(mut self, tdp: Watts) -> HlConfig {
        self.tdp = Some(tdp);
        self
    }
}

impl Default for HlConfig {
    fn default() -> Self {
        HlConfig::new()
    }
}

/// The HL power manager.
#[derive(Debug)]
pub struct HlManager {
    config: HlConfig,
    /// One governor per cluster (each keeps its own sampling timer).
    governors: Vec<Ondemand>,
    next_decision: SimTime,
    /// Latched once the TDP cutoff has fired.
    big_disabled: bool,
    /// Last chip-power reading that passed the plausibility filter, backing
    /// the TDP cutoff against dropped or glitched sensor reads.
    last_good_power: Option<(SimTime, Watts)>,
}

impl HlManager {
    /// Build an HL manager.
    pub fn new(config: HlConfig) -> HlManager {
        HlManager {
            config,
            governors: Vec::new(),
            next_decision: SimTime::ZERO,
            big_disabled: false,
            last_good_power: None,
        }
    }

    /// How long a stale reading may stand in for a rejected one.
    const POWER_STALENESS: SimDuration = SimDuration(800_000);

    /// Chip power with a plausibility filter: a zero reading while tasks run
    /// (dropped sensor read) or a reading beyond anything the chip can draw
    /// (glitch) is replaced by the last good reading while that is fresh.
    /// The TDP cutoff is irreversible, so it must not fire on a glitch.
    /// Clean traces never take the fallback: the first snapshot has no
    /// last-good reading and every later clean reading with tasks is
    /// positive and far below the plausibility ceiling.
    fn plausible_power(&mut self, snap: &SystemSnapshot) -> Watts {
        let w = snap.chip_power;
        let implausible =
            (w.value() <= 0.0 && !snap.tasks.is_empty()) || w > self.config.max_plausible;
        if implausible {
            if let Some((at, good)) = self.last_good_power {
                if snap.now.since(at) <= Self::POWER_STALENESS {
                    return good;
                }
            }
            return Watts(w.value().min(self.config.max_plausible.value()));
        }
        if w.value() > 0.0 {
            self.last_good_power = Some((snap.now, w));
        }
        w
    }

    /// Rescue a task stranded on a gated cluster: a migration the hardware
    /// lost after the TDP cutoff leaves the task unschedulable, so it is
    /// re-issued toward the LITTLE cluster. Clean traces never strand a
    /// task — [`Self::disable_big`] queues the moves and the gating in one
    /// plan and clean migrations land within the quantum.
    fn rescue_stranded(&self, snap: &SystemSnapshot, plan: &mut ActuationPlan) {
        for t in &snap.tasks {
            let core = plan.core_of(snap, t.id);
            if plan.cluster_off(snap, snap.core(core).cluster) {
                if let Some(target) = Self::least_loaded(snap, plan, CoreClass::Little, true) {
                    plan.migrate(t.id, target);
                }
            }
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &HlConfig {
        &self.config
    }

    /// True once the TDP cutoff has switched the big cluster off.
    pub fn big_cluster_disabled(&self) -> bool {
        self.big_disabled
    }

    fn cores_of_class(snap: &SystemSnapshot, class: CoreClass) -> Vec<CoreId> {
        snap.cores
            .iter()
            .filter(|c| c.class == class)
            .map(|c| c.id)
            .collect()
    }

    /// The core of `class` with the fewest tasks (ties to the lowest id),
    /// mirroring wake-up balancing. Counts go through the plan overlay so
    /// moves queued earlier in the tick shift subsequent choices, exactly as
    /// they did when this actuated inline.
    fn least_loaded(
        snap: &SystemSnapshot,
        plan: &ActuationPlan,
        class: CoreClass,
        exclude_off: bool,
    ) -> Option<CoreId> {
        Self::cores_of_class(snap, class)
            .into_iter()
            .filter(|&c| !exclude_off || !plan.cluster_off(snap, snap.core(c).cluster))
            .min_by_key(|&c| (plan.tasks_on_count(snap, c), c.0))
    }

    /// Move every task off the big cluster and gate it (TDP cutoff).
    fn disable_big(&mut self, snap: &SystemSnapshot, plan: &mut ActuationPlan) {
        self.big_disabled = true;
        self.gate_big(snap, plan);
    }

    /// Queue the cutoff actions: migrate every task still on a big core,
    /// gate every big cluster not already off (through the plan overlay,
    /// so a re-issue after lost actuation queues exactly what is still
    /// missing and a clean cutoff queues the same ops it always did).
    fn gate_big(&self, snap: &SystemSnapshot, plan: &mut ActuationPlan) {
        let big_tasks: Vec<TaskId> = snap
            .tasks
            .iter()
            .filter(|t| snap.core(plan.core_of(snap, t.id)).class == CoreClass::Big)
            .map(|t| t.id)
            .collect();
        for t in big_tasks {
            if let Some(target) = Self::least_loaded(snap, plan, CoreClass::Little, true) {
                plan.migrate(t, target);
            }
        }
        for cl in &snap.clusters {
            if cl.class == CoreClass::Big && !plan.cluster_off(snap, cl.id) {
                plan.power_off(cl.id);
            }
        }
    }

    /// HMP-style migration pass: promote busy tasks, demote idle ones, and
    /// spread tasks within each cluster (CFS periodic load balance).
    fn migration_pass(&mut self, snap: &SystemSnapshot, plan: &mut ActuationPlan) {
        for t in &snap.tasks {
            if t.stalled {
                continue;
            }
            let core = plan.core_of(snap, t.id);
            let class = snap.core(core).class;
            let load = t.pelt_load;
            match class {
                CoreClass::Little if !self.big_disabled && load >= self.config.up_threshold => {
                    if let Some(target) = Self::least_loaded(snap, plan, CoreClass::Big, true) {
                        plan.migrate(t.id, target);
                    }
                }
                CoreClass::Big if load <= self.config.down_threshold => {
                    if let Some(target) = Self::least_loaded(snap, plan, CoreClass::Little, true) {
                        plan.migrate(t.id, target);
                    }
                }
                _ => {}
            }
        }
        // Intra-cluster balance: move one task from the most- to the
        // least-populated core of each cluster when they differ by ≥ 2.
        for cl in &snap.clusters {
            if plan.cluster_off(snap, cl.id) {
                continue;
            }
            let (busiest, n_max) = match cl
                .cores
                .iter()
                .map(|&c| (c, plan.tasks_on_count(snap, c)))
                .max_by_key(|&(c, n)| (n, c.0))
            {
                Some(x) => x,
                None => continue,
            };
            let (idlest, n_min) = match cl
                .cores
                .iter()
                .map(|&c| (c, plan.tasks_on_count(snap, c)))
                .min_by_key(|&(c, n)| (n, c.0))
            {
                Some(x) => x,
                None => continue,
            };
            if n_max >= n_min + 2 {
                let victim = plan.tasks_on(snap, busiest).next().map(|t| t.id);
                if let Some(victim) = victim {
                    plan.migrate(victim, idlest);
                }
            }
        }
    }
}

impl PowerManager for HlManager {
    fn name(&self) -> &'static str {
        "HL"
    }

    fn init(&mut self, sys: &mut System) {
        sys.set_policy(AllocationPolicy::FairWeights);
        if let Some(tdp) = self.config.tdp {
            sys.set_tdp_accounting(tdp);
        }
    }

    fn plan(
        &mut self,
        snap: &SystemSnapshot,
        _dt: SimDuration,
        plan: &mut ActuationPlan,
        _prof: Option<&mut PhaseProfiler>,
    ) {
        // Governors run every tick (each has its own sampling period).
        while self.governors.len() < snap.clusters.len() {
            self.governors.push(Ondemand::new());
        }
        for ci in 0..snap.clusters.len() {
            let cl = ClusterId(ci);
            if let Some(level) = self.governors[ci].govern(snap, cl) {
                plan.request_level(cl, level);
            }
        }
        // TDP cutoff. The latch records irreversible *intent*; the hardware
        // can still lose the actuation (a plan truncated by a mid-apply
        // executor death), so while any big cluster shows powered in the
        // snapshot the cutoff actions are re-issued until it actually gates.
        if let Some(tdp) = self.config.tdp {
            if !self.big_disabled && self.plausible_power(snap) > tdp {
                self.disable_big(snap, plan);
            } else if self.big_disabled
                && snap
                    .clusters
                    .iter()
                    .any(|cl| cl.class == CoreClass::Big && !cl.off)
            {
                self.gate_big(snap, plan);
            }
        }
        if self.big_disabled {
            self.rescue_stranded(snap, plan);
        }
        if snap.now < self.next_decision {
            return;
        }
        self.next_decision = snap.now + self.config.period;
        self.migration_pass(snap, plan);
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
        let mut sys = System::new(Chip::tc2(), AllocationPolicy::FairWeights);
        for (i, t) in tasks.into_iter().enumerate() {
            sys.add_task(t, CoreId(i % 3)); // start on LITTLE, as after boot
        }
        sys
    }

    #[test]
    fn busy_tasks_migrate_to_big_at_first_opportunity() {
        // The paper: "the HL scheduler migrates the tasks to the powerful
        // A15 cluster at the first opportunity".
        let sys = system_with(vec![
            task(0, Benchmark::Texture, Input::Vga),
            task(1, Benchmark::Tracking, Input::Vga),
        ]);
        let mut sim = Simulation::new(sys, HlManager::new(HlConfig::new()));
        sim.run_for(SimDuration::from_secs(2));
        for id in sim.system().task_ids() {
            assert_eq!(
                sim.system().chip().core(sim.system().core_of(id)).class(),
                CoreClass::Big,
                "{id} should have been promoted"
            );
        }
        assert!(sim.metrics().migrations_inter >= 2);
    }

    #[test]
    fn ondemand_drives_busy_clusters_to_max() {
        let sys = system_with(vec![
            task(0, Benchmark::X264, Input::Native),
            task(1, Benchmark::Bodytrack, Input::Native),
        ]);
        let mut sim = Simulation::new(sys, HlManager::new(HlConfig::new()));
        sim.run_for(SimDuration::from_secs(3));
        // Tasks ended on big; the big cluster saturates to its top level.
        let big = sim.system().chip().cluster(ClusterId(1));
        assert_eq!(big.level(), big.table().max_level());
    }

    #[test]
    fn high_power_without_cap() {
        // Figure 5's observation: HL burns far more than necessary because
        // everything lands on the big cluster at high frequency.
        let sys = system_with(vec![
            task(0, Benchmark::Swaptions, Input::Large),
            task(1, Benchmark::Blackscholes, Input::Large),
            task(2, Benchmark::Texture, Input::Vga),
        ]);
        let mut sim = Simulation::new(sys, HlManager::new(HlConfig::new()))
            .with_warmup(SimDuration::from_secs(2));
        sim.run_for(SimDuration::from_secs(20));
        assert!(
            sim.metrics().average_power().value() > 3.0,
            "HL should be power-hungry: {}",
            sim.metrics().average_power()
        );
    }

    #[test]
    fn tdp_cutoff_gates_the_big_cluster() {
        let sys = system_with(vec![
            task(0, Benchmark::Tracking, Input::FullHd),
            task(1, Benchmark::Multicnt, Input::FullHd),
            task(2, Benchmark::X264, Input::Native),
            task(3, Benchmark::Swaptions, Input::Native),
        ]);
        let mgr = HlManager::new(HlConfig::new().with_tdp(Watts(4.0)));
        let mut sim = Simulation::new(sys, mgr).with_warmup(SimDuration::from_secs(2));
        sim.run_for(SimDuration::from_secs(20));
        assert!(sim.manager().big_cluster_disabled());
        assert!(sim.system().chip().cluster(ClusterId(1)).is_off());
        // Everything back on LITTLE.
        for id in sim.system().task_ids() {
            assert_eq!(
                sim.system().chip().core(sim.system().core_of(id)).class(),
                CoreClass::Little
            );
        }
        // A7 alone stays well under the cap.
        assert!(sim.system().chip_power() < Watts(4.0));
    }

    #[test]
    fn intra_cluster_balance_spreads_tasks() {
        let mut sys = system_with(vec![
            task(0, Benchmark::Blackscholes, Input::Large),
            task(1, Benchmark::Swaptions, Input::Large),
            task(2, Benchmark::Texture, Input::Vga),
        ]);
        // Pile everything on one core first.
        for id in sys.task_ids() {
            sys.migrate(id, CoreId(0));
        }
        // Low-demand tasks stay LITTLE only if their PELT load is small;
        // these are all CPU-bound so they will promote — but the balance
        // logic must still spread them across the two big cores rather
        // than stacking one.
        let mut sim = Simulation::new(sys, HlManager::new(HlConfig::new()));
        sim.run_for(SimDuration::from_secs(3));
        let on_core3 = sim.system().tasks_on(CoreId(3)).len();
        let on_core4 = sim.system().tasks_on(CoreId(4)).len();
        assert!(
            (on_core3 as i32 - on_core4 as i32).abs() <= 1,
            "big cores unbalanced: {on_core3} vs {on_core4}"
        );
    }
}
