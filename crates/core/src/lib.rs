//! # ppm-core — Price-theory based power management (PPM)
//!
//! The primary contribution of *"Price Theory Based Power Management for
//! Heterogeneous Multi-Cores"* (ASPLOS 2014): a distributed market in which
//! Processing Units are traded with virtual money.
//!
//! * Task agents bid for PU according to their demand (Eq. 1) and save
//!   surplus allowance.
//! * Core agents discover prices (`P_c = Σ b_t / S_c`) and sell supply.
//! * Cluster agents fight price inflation/deflation with DVFS steps,
//!   watching the constrained core (§3.2.2).
//! * The chip agent steers total power via the money supply: allowances grow
//!   while demand is unmet, freeze inside the TDP buffer zone, and shrink
//!   proportionally above the TDP (§3.2.3).
//! * The LBT module proposes one load-balance/migration move at a time from
//!   constrained cores to the most over-supplied unconstrained cores
//!   (§3.3), comparing mappings with `perf(M)` and `spend(M)`.
//!
//! [`manager::PpmManager`] packages all of it as a
//! [`ppm_sched::executor::PowerManager`].
//!
//! ```
//! use ppm_core::config::PpmConfig;
//! use ppm_core::manager::tc2_ppm_system;
//! use ppm_platform::units::SimDuration;
//! use ppm_sched::executor::Simulation;
//! use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
//! use ppm_workload::task::{Priority, Task, TaskId};
//!
//! # fn main() -> Result<(), ppm_workload::benchmarks::UnknownVariantError> {
//! let spec = BenchmarkSpec::of(Benchmark::Blackscholes, Input::Large)?;
//! let (sys, mgr) = tc2_ppm_system(
//!     vec![Task::new(TaskId(0), spec, Priority(1))],
//!     PpmConfig::tc2(),
//! );
//! let mut sim = Simulation::new(sys, mgr);
//! sim.run_for(SimDuration::from_secs(2));
//! assert!(sim.metrics().average_power().value() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod agents;
pub mod config;
pub mod lbt;
pub mod manager;
pub mod market;
pub mod state;

pub use crate::config::{ConfigError, PpmConfig};
pub use crate::lbt::{decide_load_balance, decide_migration, LbtSnapshot, Move, MoveGoal};
pub use crate::manager::{place_on_little, tc2_ppm_system, PpmManager};
pub use crate::market::{Market, MarketDecision, MarketObs, VfStep};
pub use crate::state::PowerState;
