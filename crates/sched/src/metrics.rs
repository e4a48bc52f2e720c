//! Run metrics: QoS misses, power/energy, migrations, and V-F residency.
//!
//! These implement the measurements behind the paper's evaluation figures:
//! "percentage of time the reference heart rate range of any task in the
//! workload is not met" (Figures 4 and 6) and average power (Figure 5). The
//! normalized heart-rate traces of Figures 7 and 8 are read from the live
//! tasks between `Simulation::run_for` slices.

use ppm_platform::power::EnergyMeter;
use ppm_platform::units::{Joules, SimDuration, Watts};
use ppm_workload::task::TaskId;

/// Per-task QoS accounting.
#[derive(Debug, Clone, Default)]
pub struct TaskMetrics {
    /// Time the observed heart rate was below the reference minimum
    /// (the paper's miss condition).
    pub time_below_range: SimDuration,
    /// Time the observed rate was outside the range on either side
    /// (the Figure 7 metric).
    pub time_out_of_range: SimDuration,
    /// Total observed time.
    pub observed: SimDuration,
    /// Energy attributed to this task: its dynamic consumption plus an
    /// equal split of its cluster's static power.
    pub energy: Joules,
}

impl TaskMetrics {
    /// Fraction of time below the reference range.
    pub fn miss_fraction(&self) -> f64 {
        if self.observed.is_zero() {
            0.0
        } else {
            self.time_below_range.as_secs_f64() / self.observed.as_secs_f64()
        }
    }

    /// Fraction of time outside the range on either side.
    pub fn out_of_range_fraction(&self) -> f64 {
        if self.observed.is_zero() {
            0.0
        } else {
            self.time_out_of_range.as_secs_f64() / self.observed.as_secs_f64()
        }
    }
}

/// Aggregated metrics for one simulation run.
///
/// All storage is dense and index-ordered (no `HashMap`s): iteration never
/// depends on hasher seeds, so printouts and traces are bit-identical
/// across runs, threads, and platforms.
#[derive(Debug, Default)]
pub struct RunMetrics {
    /// Dense per-task slots, indexed by task id (ids are admitted densely).
    per_task: Vec<TaskMetrics>,
    /// Whether the task at that index was ever observed.
    seen: Vec<bool>,
    /// Time during which at least one task was below its range.
    any_miss: SimDuration,
    /// Total accounted time.
    total: SimDuration,
    /// Chip-level energy/power integration.
    pub chip_energy: EnergyMeter,
    /// Per-cluster energy/power integration (indexed by cluster id).
    pub cluster_energy: Vec<EnergyMeter>,
    /// Intra-cluster migrations performed.
    pub migrations_intra: u64,
    /// Inter-cluster migrations performed.
    pub migrations_inter: u64,
    /// Completed V-F level transitions.
    pub vf_transitions: u64,
    /// Time spent above the TDP (for cap-enforcement checks).
    pub time_above_tdp: SimDuration,
    /// Per-cluster time spent at each V-F level, indexed by level
    /// (thermal-cycling analysis).
    level_residency: Vec<Vec<SimDuration>>,
    /// Graceful-degradation totals rolled up from the manager's live
    /// counters (no event-stream replay needed).
    pub degradation: Degradation,
}

/// Totals of the manager's graceful-degradation paths: how often it fell
/// back to a last-good sensor reading, re-issued a lost DVFS request or
/// migration, or skipped a task bound to a core it no longer knows.
///
/// Managers keep these as live counters (incremented exactly where the
/// corresponding `Event` is pushed) and report them through
/// [`PowerManager::degradation`](crate::executor::PowerManager::degradation);
/// the executor copies the latest value here every quantum, so a hardened
/// run's totals come for free — without replaying the event stream.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Degradation {
    /// Implausible sensor readings replaced by a last-good value.
    pub sensor_fallbacks: u64,
    /// DVFS requests re-issued because the hardware did not take them.
    pub dvfs_retries: u64,
    /// Migrations re-issued after a failed attempt.
    pub migration_retries: u64,
    /// Tasks observed on cores the policy could not place (skipped for
    /// the round rather than crashing).
    pub tasks_orphaned: u64,
}

impl Degradation {
    /// Sum of all degradation counters.
    pub fn total(&self) -> u64 {
        self.sensor_fallbacks + self.dvfs_retries + self.migration_retries + self.tasks_orphaned
    }
}

impl RunMetrics {
    /// Fresh metrics for a chip with `clusters` clusters.
    pub fn new(clusters: usize) -> RunMetrics {
        RunMetrics {
            cluster_energy: (0..clusters).map(|_| EnergyMeter::new()).collect(),
            level_residency: (0..clusters).map(|_| Vec::new()).collect(),
            ..RunMetrics::default()
        }
    }

    /// Pre-size the dense per-task and residency storage so steady-state
    /// recording never reallocates (the executor calls this on admission).
    pub fn reserve(&mut self, tasks: usize, levels_per_cluster: usize) {
        if self.per_task.len() < tasks {
            self.per_task.resize_with(tasks, TaskMetrics::default);
            self.seen.resize(tasks, false);
        }
        for res in &mut self.level_residency {
            if res.len() < levels_per_cluster {
                res.resize(levels_per_cluster, SimDuration::ZERO);
            }
        }
    }

    /// Dense slot for `task`, growing storage on first sight.
    fn slot(&mut self, task: TaskId) -> &mut TaskMetrics {
        if self.per_task.len() <= task.0 {
            self.per_task.resize_with(task.0 + 1, TaskMetrics::default);
            self.seen.resize(task.0 + 1, false);
        }
        self.seen[task.0] = true;
        &mut self.per_task[task.0]
    }

    /// Account one quantum of residency at `level` for `cluster`.
    pub fn record_residency(&mut self, cluster: usize, level: usize, dt: SimDuration) {
        if let Some(res) = self.level_residency.get_mut(cluster) {
            if res.len() <= level {
                res.resize(level + 1, SimDuration::ZERO);
            }
            res[level] += dt;
        }
    }

    /// Time `cluster` spent at each level, indexed by level (levels the
    /// cluster never visited read as zero).
    pub fn level_residency(&self, cluster: usize) -> &[SimDuration] {
        &self.level_residency[cluster]
    }

    /// Account one quantum for one task.
    pub fn record_task(&mut self, task: TaskId, dt: SimDuration, below: bool, outside: bool) {
        let m = self.slot(task);
        m.observed += dt;
        if below {
            m.time_below_range += dt;
        }
        if outside {
            m.time_out_of_range += dt;
        }
    }

    /// Attribute energy consumed during one quantum to a task.
    pub fn record_task_energy(&mut self, task: TaskId, power: Watts, dt: SimDuration) {
        self.slot(task).energy += power.energy_over(dt);
    }

    /// Account one quantum at the system level.
    pub fn record_system(&mut self, dt: SimDuration, any_below: bool, above_tdp: bool) {
        self.total += dt;
        if any_below {
            self.any_miss += dt;
        }
        if above_tdp {
            self.time_above_tdp += dt;
        }
    }

    /// Per-task metrics, if the task was ever observed.
    pub fn task(&self, task: TaskId) -> Option<&TaskMetrics> {
        self.seen
            .get(task.0)
            .copied()
            .unwrap_or(false)
            .then(|| &self.per_task[task.0])
    }

    /// The Figure 4/6 metric: fraction of time *any* task missed its range.
    pub fn any_miss_fraction(&self) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            self.any_miss.as_secs_f64() / self.total.as_secs_f64()
        }
    }

    /// Average chip power over the run (Figure 5 metric).
    pub fn average_power(&self) -> Watts {
        self.chip_energy.average_power()
    }

    /// Total accounted time.
    pub fn total_time(&self) -> SimDuration {
        self.total
    }

    /// All tasks seen, sorted by id.
    pub fn tasks(&self) -> Vec<TaskId> {
        self.seen
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s)
            .map(|(i, _)| TaskId(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_compute_from_durations() {
        let mut m = RunMetrics::new(2);
        let dt = SimDuration::from_millis(10);
        for i in 0..100 {
            let below = i < 25;
            m.record_task(TaskId(0), dt, below, below);
            m.record_system(dt, below, false);
        }
        let t = m.task(TaskId(0)).expect("recorded");
        assert!((t.miss_fraction() - 0.25).abs() < 1e-9);
        assert!((m.any_miss_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_includes_both_sides() {
        let mut m = RunMetrics::new(1);
        let dt = SimDuration::from_millis(10);
        m.record_task(TaskId(1), dt, true, true); // below
        m.record_task(TaskId(1), dt, false, true); // above
        m.record_task(TaskId(1), dt, false, false); // in range
        let t = m.task(TaskId(1)).expect("recorded");
        assert!((t.miss_fraction() - 1.0 / 3.0).abs() < 1e-9);
        assert!((t.out_of_range_fraction() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = RunMetrics::new(0);
        assert_eq!(m.any_miss_fraction(), 0.0);
        assert_eq!(m.average_power(), Watts::ZERO);
        assert!(m.task(TaskId(0)).is_none());
        assert!(m.tasks().is_empty());
    }

    #[test]
    fn tdp_violation_time_accumulates() {
        let mut m = RunMetrics::new(1);
        m.record_system(SimDuration::from_millis(5), false, true);
        m.record_system(SimDuration::from_millis(5), false, false);
        assert_eq!(m.time_above_tdp, SimDuration::from_millis(5));
    }
}
