//! The `cpufreq` *ondemand* frequency governor.
//!
//! The HL baseline pairs the heterogeneity-aware scheduler with the Linux
//! *ondemand* governor ("changes the frequency value based on processor
//! utilization", §5.3).
//!
//! The governor follows the snapshot-in / plan-out boundary: it reads a
//! [`SystemSnapshot`] and *returns* the level it wants, which the caller
//! queues as a [`RequestLevel`](crate::plan::Action::RequestLevel) action.

use ppm_platform::cluster::ClusterId;
use ppm_platform::units::{SimDuration, SimTime};
use ppm_platform::vf::VfLevel;

use crate::snapshot::SystemSnapshot;

/// Linux *ondemand*: jump to the highest frequency when utilization exceeds
/// the up-threshold, otherwise pick the lowest frequency that keeps
/// utilization at the target.
#[derive(Debug, Clone)]
pub struct Ondemand {
    /// Utilization above which the governor jumps to the maximum level.
    pub up_threshold: f64,
    /// Utilization the governor aims for when scaling down.
    pub target_utilization: f64,
    /// Sampling period.
    pub sampling_period: SimDuration,
    next_sample: SimTime,
}

impl Ondemand {
    /// The classic defaults (up-threshold 95 %, 50 ms sampling).
    pub fn new() -> Ondemand {
        Ondemand {
            up_threshold: 0.95,
            target_utilization: 0.80,
            sampling_period: SimDuration::from_millis(50),
            next_sample: SimTime::ZERO,
        }
    }
}

impl Default for Ondemand {
    fn default() -> Self {
        Ondemand::new()
    }
}

impl Ondemand {
    /// Observe the snapshot and, once per sampling period, return a new
    /// level to request for `cluster` when it differs from the current one.
    pub fn govern(&mut self, snap: &SystemSnapshot, cluster: ClusterId) -> Option<VfLevel> {
        if snap.now < self.next_sample {
            return None;
        }
        self.next_sample = snap.now + self.sampling_period;
        let cl = snap.cluster(cluster);
        if cl.off {
            return None;
        }
        // Busiest core governs the cluster (shared regulator).
        let util = cl
            .cores
            .iter()
            .map(|&c| snap.core(c).utilization)
            .fold(0.0_f64, f64::max);
        let current = cl.level;
        let target = if util >= self.up_threshold {
            cl.max_level()
        } else {
            // Lowest level that would serve the current busy cycles at the
            // target utilization.
            let busy_pu = util * cl.supply_per_core.value();
            cl.level_for_demand(ppm_platform::units::ProcessingUnits(
                busy_pu / self.target_utilization,
            ))
        };
        (target != current).then_some(VfLevel(target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{AllocationPolicy, PowerManager, Simulation, System};
    use crate::plan::ActuationPlan;
    use ppm_platform::chip::Chip;
    use ppm_platform::core::CoreId;
    use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm_workload::task::{Priority, Task, TaskId};

    /// Manager applying one ondemand governor to every cluster.
    struct GovernorManager(Ondemand);

    impl PowerManager for GovernorManager {
        fn name(&self) -> &'static str {
            "governor-test"
        }
        fn plan(
            &mut self,
            snap: &SystemSnapshot,
            plan: &mut ActuationPlan,
            _prof: Option<&mut ppm_obs::PhaseProfiler>,
        ) {
            for ci in 0..snap.clusters.len() {
                if let Some(level) = self.0.govern(snap, ClusterId(ci)) {
                    plan.request_level(ClusterId(ci), level);
                }
            }
        }
    }

    fn loaded_system() -> System {
        let mut sys = System::new(Chip::tc2(), AllocationPolicy::FairWeights);
        sys.add_task(
            Task::new(
                TaskId(0),
                BenchmarkSpec::of(Benchmark::X264, Input::Native).expect("variant"),
                Priority(1),
            ),
            CoreId(0),
        );
        sys
    }

    #[test]
    fn ondemand_ramps_up_under_load() {
        let mut sim = Simulation::new(loaded_system(), GovernorManager(Ondemand::new()));
        sim.run_for(SimDuration::from_millis(500));
        // A CPU-bound task saturates the core; ondemand jumps to max.
        let level = sim.system().chip().cluster(ClusterId(0)).level();
        assert_eq!(
            level,
            sim.system()
                .chip()
                .cluster(ClusterId(0))
                .table()
                .max_level()
        );
    }

    #[test]
    fn ondemand_leaves_idle_cluster_alone() {
        let mut sim = Simulation::new(loaded_system(), GovernorManager(Ondemand::new()));
        sim.run_for(SimDuration::from_millis(500));
        // Nothing runs on the big cluster.
        assert_eq!(
            sim.system().chip().cluster(ClusterId(1)).level(),
            VfLevel(0)
        );
    }
}
