//! # ppm-bench — evaluation harness
//!
//! Shared machinery for regenerating the paper's tables and figures: a
//! [`Scheme`] selector over the three power managers (PPM, HPM, HL), a
//! [`run_workload`] driver that executes one workload set on a TC2 system
//! and summarises the QoS/power metrics the paper reports, and small
//! formatting helpers for the experiment binaries under `src/bin/`.
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1_2_3` | the running examples of Tables 1–3 |
//! | `workloads` | Tables 5/6 (benchmarks, sets, intensity) |
//! | `fig4_fig5` | Figures 4 and 5 (miss % and power, no TDP) |
//! | `fig6` | Figure 6 (miss % under a 4 W TDP) |
//! | `fig7` | Figures 7a/7b (priority study traces) |
//! | `fig8` | Figure 8 (savings study trace) |
//! | `table7` | Table 7 (LBT overhead scaling) |
//! | `migration_costs` | the §5.1 migration-cost table |

#![warn(missing_docs)]

pub mod sweep;

use ppm_baselines::hl::{HlConfig, HlManager};
use ppm_baselines::hpm::{HpmConfig, HpmManager};
use ppm_core::config::PpmConfig;
use ppm_core::manager::{place_on_little, PpmManager};
use ppm_platform::chip::Chip;
use ppm_platform::core::CoreId;
use ppm_platform::faults::{FaultConfig, FaultPlan, FaultStats};
use ppm_platform::units::{SimDuration, Watts};
use ppm_sched::audit::Violation;
use ppm_sched::executor::{AllocationPolicy, NullManager, PowerManager, Simulation, System};
use ppm_sched::metrics::RunMetrics;
use ppm_workload::request::OpenLoopSnap;
use ppm_workload::sets::WorkloadSet;
use ppm_workload::task::{Priority, TaskId};

/// Resolve a workload-set name across both catalogues: the Table 6
/// closed-loop sets first, then the open-loop request families
/// (`ol1`/`ol2`/`ol3`, with `openloop` aliasing `ol1`).
pub fn resolve_set(name: &str) -> Option<WorkloadSet> {
    ppm_workload::sets::set_by_name(name).or_else(|| ppm_workload::openloop_set_by_name(name))
}

/// The power-management schemes the harness can run: the three of the
/// comparative study (§5.3) plus a do-nothing control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// The paper's price-theory manager.
    Ppm,
    /// The hierarchical PID baseline.
    Hpm,
    /// The heterogeneity-aware Linux scheduler + ondemand.
    Hl,
    /// No management at all (fixed frequencies, no migration): the control
    /// the fault/audit suites run to separate substrate invariants from
    /// policy behaviour. Not part of the paper's figures.
    Null,
}

impl Scheme {
    /// The paper's schemes, in its plotting order (excludes [`Scheme::Null`],
    /// which appears in no figure).
    pub const ALL: [Scheme; 3] = [Scheme::Ppm, Scheme::Hpm, Scheme::Hl];

    /// Display name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Ppm => "PPM",
            Scheme::Hpm => "HPM",
            Scheme::Hl => "HL",
            Scheme::Null => "Null",
        }
    }
}

/// Outcome of one workload-set run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// The scheme that ran.
    pub scheme: Scheme,
    /// Workload set name.
    pub workload: String,
    /// Fraction of time any task missed its reference heart-rate range
    /// (the Figure 4/6 metric).
    pub any_miss: f64,
    /// Average chip power (the Figure 5 metric).
    pub avg_power: Watts,
    /// Peak chip power.
    pub peak_power: Watts,
    /// Fraction of time above the TDP (cap experiments).
    pub above_tdp: f64,
    /// Migration counts `(intra, inter)`.
    pub migrations: (u64, u64),
    /// Worst end-of-run p99-latency-to-SLO ratio across open-loop tasks
    /// (`0.0` when the set is closed-loop; `≤ 1.0` means every tail met
    /// its SLO).
    pub worst_p99_over_slo: f64,
    /// Requests shed by bounded open-loop queues, summed over tasks.
    pub shed: u64,
}

/// Default per-run simulated duration (the paper's traces span 300 s; the
/// steady-state statistics converge well before that).
pub const DEFAULT_DURATION: SimDuration = SimDuration(120_000_000);

/// Warm-up excluded from the metrics.
pub const DEFAULT_WARMUP: SimDuration = SimDuration(5_000_000);

/// Execute `set` under `scheme` on a TC2 chip for `duration`, optionally
/// with a TDP cap, and summarise the metrics.
pub fn run_workload(
    set: &WorkloadSet,
    scheme: Scheme,
    tdp: Option<Watts>,
    duration: SimDuration,
) -> RunSummary {
    run_workload_hardened(set, scheme, tdp, duration, Harness::default()).summary
}

/// Like [`run_workload`], but with the actuation tape enabled: also returns
/// the rendered tape (one `(snapshot digest, plan)` line per actuating
/// quantum). Two runs are behaviourally identical iff both the summary and
/// the tape bytes match — the determinism tests lean on this.
pub fn run_workload_taped(
    set: &WorkloadSet,
    scheme: Scheme,
    tdp: Option<Watts>,
    duration: SimDuration,
) -> (RunSummary, String) {
    let h = run_workload_hardened(
        set,
        scheme,
        tdp,
        duration,
        Harness {
            tape: true,
            ..Harness::default()
        },
    );
    (h.summary, h.tape)
}

/// Optional hardening attached to a run: fault injection, the
/// every-quantum auditor, and/or the actuation tape.
#[derive(Debug, Clone, Default)]
pub struct Harness {
    /// Inject deterministic faults from this configuration.
    pub faults: Option<FaultConfig>,
    /// Attach the every-quantum invariant [`Auditor`](ppm_sched::Auditor).
    pub audit: bool,
    /// Record the actuation tape.
    pub tape: bool,
    /// Profile manager phases. Attaches the per-quantum time-series
    /// [`Telemetry`](ppm_obs::Telemetry) recorder (capacity sized to the
    /// run duration, so nothing wraps).
    pub profile: bool,
    /// Evaluate the default burn-rate alert rules over tumbling windowed
    /// rollups (window = [`ppm_obs::DEFAULT_AGG_WINDOW_US`]). Attaches the
    /// recorder.
    pub alerts: bool,
    /// Drive the run through a one-chip [`ppm_fleet::Fleet`] (no exchange)
    /// instead of calling `Simulation::run_for` directly. Must be
    /// byte-identical to the direct run — the fleet golden tests replay
    /// every committed tape through this path.
    pub lone_chip_fleet: bool,
}

impl Harness {
    /// Faults from `seed` (default magnitudes) plus the auditor.
    pub fn faulted_and_audited(seed: u64) -> Harness {
        Harness {
            faults: Some(FaultConfig::with_seed(seed)),
            audit: true,
            ..Harness::default()
        }
    }
}

/// Everything a hardened run produced.
#[derive(Debug)]
pub struct HardenedRun {
    /// The figure metrics.
    pub summary: RunSummary,
    /// Rendered actuation tape (empty unless [`Harness::tape`]).
    pub tape: String,
    /// Auditor findings (empty unless [`Harness::audit`]; an empty list
    /// with `audit: true` means the run was invariant-clean).
    pub violations: Vec<Violation>,
    /// Rendered auditor report (empty unless [`Harness::audit`]).
    pub audit_report: String,
    /// Fault counters (zeroes unless [`Harness::faults`]).
    pub fault_stats: FaultStats,
    /// Recorded telemetry (present iff [`Harness::profile`] or
    /// [`Harness::alerts`]; each attaches the recorder).
    pub telemetry: Option<ppm_obs::Telemetry>,
    /// End-of-run request-queue state for every open-loop task, in task-id
    /// order (empty for closed-loop sets).
    pub open_loop: Vec<(TaskId, OpenLoopSnap)>,
}

/// Execute `set` under `scheme` with the given [`Harness`] attachments.
/// This is the driver behind [`run_workload`]/[`run_workload_taped`] and
/// the fault-injection suites.
pub fn run_workload_hardened(
    set: &WorkloadSet,
    scheme: Scheme,
    tdp: Option<Watts>,
    duration: SimDuration,
    harness: Harness,
) -> HardenedRun {
    let policy = match scheme {
        Scheme::Hl | Scheme::Null => AllocationPolicy::FairWeights,
        _ => AllocationPolicy::Market,
    };
    let mut sys = System::new(Chip::tc2(), policy);
    // All tasks start on the LITTLE cluster (Linux boots there on TC2) at
    // equal priority, as in the comparative study.
    for task in set.spawn(0, Priority::NORMAL) {
        sys.add_task(task, CoreId(0));
    }
    place_on_little(&mut sys);
    if let Some(t) = tdp {
        sys.set_tdp_accounting(t);
    }

    let (metrics, tape, violations, audit_report, fault_stats, telemetry, open_loop) = match scheme
    {
        Scheme::Ppm => {
            let config = match tdp {
                Some(t) => PpmConfig::tc2_with_tdp(t),
                None => PpmConfig::tc2(),
            };
            run(sys, PpmManager::new(config), duration, &harness)
        }
        Scheme::Hpm => {
            let mut config = HpmConfig::new();
            if let Some(t) = tdp {
                config = config.with_tdp(t);
            }
            run(sys, HpmManager::new(config), duration, &harness)
        }
        Scheme::Hl => {
            let mut config = HlConfig::new();
            if let Some(t) = tdp {
                config = config.with_tdp(t);
            }
            run(sys, HlManager::new(config), duration, &harness)
        }
        Scheme::Null => run(sys, NullManager, duration, &harness),
    };

    let summary = RunSummary {
        scheme,
        workload: set.name().to_string(),
        any_miss: metrics.any_miss_fraction(),
        avg_power: metrics.average_power(),
        peak_power: metrics.chip_energy.peak_power(),
        above_tdp: if metrics.total_time().is_zero() {
            0.0
        } else {
            metrics.time_above_tdp.as_secs_f64() / metrics.total_time().as_secs_f64()
        },
        migrations: (metrics.migrations_intra, metrics.migrations_inter),
        worst_p99_over_slo: open_loop
            .iter()
            .map(|(_, o)| {
                if o.slo_ms > 0.0 {
                    o.p99_ms / o.slo_ms
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max),
        shed: open_loop.iter().map(|(_, o)| o.shed).sum(),
    };
    HardenedRun {
        summary,
        tape,
        violations,
        audit_report,
        fault_stats,
        telemetry,
        open_loop,
    }
}

/// Telemetry capacity covering every quantum of a `duration` run (plus a
/// little slack), so the ring never wraps within the harness.
fn telemetry_capacity(duration: SimDuration) -> usize {
    let quanta = duration.0 / Simulation::<NullManager>::DEFAULT_QUANTUM.0;
    quanta as usize + 8
}

#[allow(clippy::type_complexity)]
fn run<M: PowerManager + Send>(
    sys: System,
    manager: M,
    duration: SimDuration,
    harness: &Harness,
) -> (
    RunMetrics,
    String,
    Vec<Violation>,
    String,
    FaultStats,
    Option<ppm_obs::Telemetry>,
    Vec<(TaskId, OpenLoopSnap)>,
) {
    let mut sim = Simulation::new(sys, manager).with_warmup(DEFAULT_WARMUP);
    if harness.tape {
        sim = sim.with_tape();
    }
    if harness.audit {
        sim = sim.with_auditor();
    }
    if let Some(fc) = harness.faults.clone() {
        sim = sim.with_faults(FaultPlan::new(fc));
    }
    if harness.profile || harness.alerts {
        let mut tel = ppm_obs::Telemetry::new(telemetry_capacity(duration));
        if harness.profile {
            tel = tel.with_profiling();
        }
        if harness.alerts {
            tel = tel.with_alerts();
        }
        sim = sim.with_telemetry(tel);
    }
    let mut sim = if harness.lone_chip_fleet {
        // The N=1 byte-identity guarantee: an exchange-less fleet of one
        // chip steps the identical trajectory in epoch-sized slices.
        let mut fleet = ppm_fleet::Fleet::lone(sim);
        fleet.run_for(duration);
        fleet.into_chips().pop().expect("one chip").into_sim()
    } else {
        sim.run_for(duration);
        sim
    };
    let tape = sim
        .tape()
        .map(ppm_sched::plan::Tape::render)
        .unwrap_or_default();
    let (violations, audit_report) = sim
        .auditor()
        .map(|a| (a.violations().to_vec(), a.render()))
        .unwrap_or_default();
    let fault_stats = sim.faults().map(|f| f.stats()).unwrap_or_default();
    let telemetry = sim.take_telemetry();
    // Queue/latency state lives on the tasks, which `into_metrics` consumes
    // — snapshot it first.
    let open_loop: Vec<(TaskId, OpenLoopSnap)> = {
        let sys = sim.system();
        sys.task_iter()
            .filter_map(|id| sys.task(id).open_loop_snap().map(|o| (id, o)))
            .collect()
    };
    (
        sim.into_system().into_metrics(),
        tape,
        violations,
        audit_report,
        fault_stats,
        telemetry,
        open_loop,
    )
}

/// Print a markdown table: rows = workload sets, columns = schemes.
pub fn print_matrix<F: Fn(&RunSummary) -> String>(title: &str, rows: &[Vec<RunSummary>], cell: F) {
    println!("\n## {title}\n");
    print!("| workload |");
    for s in Scheme::ALL {
        print!(" {} |", s.name());
    }
    println!();
    print!("|---|");
    for _ in Scheme::ALL {
        print!("---|");
    }
    println!();
    for row in rows {
        print!("| {} |", row[0].workload);
        for r in row {
            print!(" {} |", cell(r));
        }
        println!();
    }
}

/// Per-task miss fraction for trace-style experiments.
pub fn task_miss(metrics: &RunMetrics, id: TaskId) -> f64 {
    metrics.task(id).map_or(0.0, |t| t.miss_fraction())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_workload::sets::set_by_name;

    #[test]
    fn short_comparative_run_produces_sane_numbers() {
        let set = set_by_name("l1").expect("l1 exists");
        let s = run_workload(&set, Scheme::Ppm, None, SimDuration::from_secs(10));
        assert_eq!(s.scheme, Scheme::Ppm);
        assert!(s.avg_power.value() > 0.0);
        assert!((0.0..=1.0).contains(&s.any_miss));
    }

    #[test]
    fn hl_uses_more_power_than_ppm_on_light_sets() {
        let set = set_by_name("l1").expect("l1 exists");
        let ppm = run_workload(&set, Scheme::Ppm, None, SimDuration::from_secs(20));
        let hl = run_workload(&set, Scheme::Hl, None, SimDuration::from_secs(20));
        assert!(
            hl.avg_power.value() > ppm.avg_power.value() * 1.5,
            "HL {} vs PPM {}",
            hl.avg_power,
            ppm.avg_power
        );
    }
}
