//! # ppm-sched — Linux-like scheduling substrate and simulation executor
//!
//! The glue between the hardware model (`ppm-platform`) and the workload
//! model (`ppm-workload`): per-core run queues with CFS nice-weighted fair
//! sharing, per-entity load tracking, affinity-based migration with the
//! paper's latencies, the `cpufreq` ondemand governor, and a
//! fixed-quantum simulation [`executor::Simulation`] that drives a
//! pluggable [`executor::PowerManager`] policy.
//!
//! ```
//! use ppm_platform::chip::Chip;
//! use ppm_platform::core::CoreId;
//! use ppm_platform::units::SimDuration;
//! use ppm_sched::executor::{AllocationPolicy, NullManager, Simulation, System};
//! use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
//! use ppm_workload::task::{Priority, Task, TaskId};
//!
//! # fn main() -> Result<(), ppm_workload::benchmarks::UnknownVariantError> {
//! let mut sys = System::new(Chip::tc2(), AllocationPolicy::FairWeights);
//! let spec = BenchmarkSpec::of(Benchmark::Blackscholes, Input::Large)?;
//! sys.add_task(Task::new(TaskId(0), spec, Priority(1)), CoreId(0));
//! let mut sim = Simulation::new(sys, NullManager);
//! sim.run_for(SimDuration::from_secs(1));
//! assert!(sim.metrics().average_power().value() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod affinity;
pub mod audit;
pub mod executor;
pub mod governor;
pub mod metrics;
pub mod nice;
pub mod pelt;
pub mod plan;
pub mod runqueue;
pub mod snapshot;

pub use crate::affinity::CpuMask;
pub use crate::audit::{Auditor, Violation};
pub use crate::executor::{AllocationPolicy, NullManager, PowerManager, Simulation, System};
pub use crate::governor::Ondemand;
pub use crate::metrics::{Degradation, RunMetrics, TaskMetrics};
pub use crate::nice::Nice;
pub use crate::pelt::PeltTracker;
pub use crate::plan::{Action, ActuationPlan, Tape, TapeRecord};
pub use crate::snapshot::{ClusterSnap, CoreSnap, SystemSnapshot, TaskSnap};
