//! # ppm-workload — tasks, heartbeats and synthetic benchmarks
//!
//! The application-side substrate for the PPM reproduction: runtime
//! [`task::Task`]s wrap phase-structured [`benchmarks::BenchmarkSpec`]
//! models of the paper's PARSEC / SPEC 2006 / SD-VBS programs, expose their
//! QoS goal as a heart-rate range, and convert observed heart rates into PU
//! demands exactly as the paper's Table 4 prescribes. A task keeps only its
//! running heartbeat totals; the sliding windows that turn them into heart
//! rates are one time-major ring for all tasks
//! ([`heartbeat::HeartbeatWindows`]), which the executor owns.
//!
//! ```
//! use ppm_platform::core::CoreClass;
//! use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
//! use ppm_workload::task::{Priority, Task, TaskId};
//!
//! # fn main() -> Result<(), ppm_workload::benchmarks::UnknownVariantError> {
//! let spec = BenchmarkSpec::of(Benchmark::Swaptions, Input::Native)?;
//! let task = Task::new(TaskId(0), spec, Priority(2));
//! // A task needs fewer PU on a big core for the same heart rate.
//! assert!(task.spec().profiled_demand(CoreClass::Big)
//!         < task.spec().profiled_demand(CoreClass::Little));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod arrivals;
pub mod benchmarks;
pub mod generator;
pub mod heartbeat;
pub mod perclass;
pub mod phase;
pub mod request;
pub mod sets;
pub mod task;
pub mod trace;

pub use crate::arrivals::{ArrivalKind, ArrivalProcess};
pub use crate::benchmarks::{Benchmark, BenchmarkSpec, Input};
pub use crate::generator::{
    bursty_template, openloop_family, openloop_set_by_name, openloop_sets, OpenLoopFamily,
};
pub use crate::heartbeat::{HeartRateRange, HeartbeatWindows};
pub use crate::perclass::PerClass;
pub use crate::phase::{Phase, PhaseSequence};
pub use crate::request::{OpenLoopSnap, OpenLoopSpec, OpenLoopState, RequestQueue, SloMonitor};
pub use crate::sets::{table6_sets, WorkloadClass, WorkloadSet, TC2_LITTLE_CAPACITY};
pub use crate::task::{Priority, Task, TaskId};
pub use crate::trace::{DemandTrace, TraceSegment};
