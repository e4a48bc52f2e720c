//! Every-quantum invariant auditor.
//!
//! The simulator's test pyramid proves *trajectories* (golden tapes, metric
//! regressions) but trajectories say nothing about quanta in which nothing
//! observable went wrong yet. The [`Auditor`] closes that gap: attached to a
//! [`Simulation`](crate::executor::Simulation), it re-checks the system's
//! physical and scheduling invariants after **every** quantum and collects
//! [`Violation`]s tagged with the quantum's snapshot digest, so a failure
//! points at the exact tape line where the decision that broke the world was
//! recorded.
//!
//! Physical invariants are checked against the *true* system state — fault
//! injection (see `ppm_platform::faults`) perturbs only what managers
//! observe, never the physics — so the auditor answers the question fault
//! runs exist to ask: *did the policy keep the hardware inside its envelope
//! while flying on bad data?*
//!
//! System-level invariants (this module):
//!
//! * **Allocation** — per-core Σ granted ≤ supply (the runqueue's scaling
//!   guarantee, which must survive DVFS transitions and gating).
//! * **Cluster power** — each cluster's sensed power ≤ its physical peak
//!   (`PowerModel::cluster_peak`): the paper's 2 W / 6 W envelopes on TC2.
//! * **TDP** — chip power may overshoot the budget transiently (the paper's
//!   δ tolerance exists precisely because throttling is not instant), but
//!   never beyond a hard margin, and never *sustained* beyond a grace
//!   window.
//! * **Affinity** — no task runs on a core its mask forbids.
//! * **Gating** — no task sits on a power-gated cluster beyond a rescue
//!   grace window (managers must notice and migrate or re-power).
//! * **Tape consistency** — the tape's latest record matches the quantum
//!   that produced it.
//!
//! Policy-internal invariants (money conservation in the market) live with
//! the policy: [`PowerManager::audit`](crate::executor::PowerManager::audit)
//! lets a manager report into the same sink with the same tagging.

use std::fmt::Write as _;

use ppm_platform::units::{SimDuration, SimTime, Watts};

use crate::executor::System;
use crate::plan::Tape;

/// One invariant breach, tagged with the quantum it happened in.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Start time of the offending quantum.
    pub at: SimTime,
    /// Digest of the snapshot the quantum's plan was computed from
    /// (matches the tape line, when taping).
    pub snapshot_digest: u64,
    /// Short stable name of the broken invariant.
    pub invariant: &'static str,
    /// Human-readable specifics (observed vs. allowed).
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} us, snap {:016x}] {}: {}",
            self.at.as_micros(),
            self.snapshot_digest,
            self.invariant,
            self.detail
        )
    }
}

/// Per-cluster bookkeeping for grace-window invariants.
#[derive(Debug, Clone, Copy, Default)]
struct ClusterWatch {
    /// When the cluster was first seen gated with tasks still on it.
    gated_with_tasks_since: Option<SimTime>,
    /// Whether the current gating excursion was already reported.
    gating_reported: bool,
}

/// Collects invariant violations across a run.
///
/// Attach with
/// [`Simulation::with_auditor`](crate::executor::Simulation::with_auditor);
/// query [`Auditor::violations`] (or assert [`Auditor::is_clean`]) after the
/// run. The auditor never panics mid-run — a faulted run should finish and
/// report, not die on the first breach.
#[derive(Debug, Default)]
pub struct Auditor {
    violations: Vec<Violation>,
    quanta: u64,
    at: SimTime,
    digest: u64,
    over_tdp_since: Option<SimTime>,
    over_hard_since: Option<SimTime>,
    tdp_reported: bool,
    clusters: Vec<ClusterWatch>,
    /// Scratch: per-core granted sums.
    grants: Vec<f64>,
    /// Scratch: per-cluster "some active task is mapped here".
    occupied: Vec<bool>,
}

impl Auditor {
    /// Chip power above `tdp * TDP_HARD_MARGIN` is a violation once it
    /// lasts beyond [`Self::TDP_HARD_GRACE`]; the band below it is the
    /// paper's δ-tolerance territory.
    pub const TDP_HARD_MARGIN: f64 = 1.30;
    /// How long the hard margin may be exceeded before it is a violation.
    /// Reactive policies (HL gates the big cluster only *after* observing
    /// power above the budget) legitimately spike for a few quanta between
    /// the crossing and the actuation landing; a *sustained* excursion
    /// means nobody is reacting at all.
    pub const TDP_HARD_GRACE: SimDuration = SimDuration(50_000);
    /// Chip power above TDP (but under the hard margin) becomes a violation
    /// when sustained longer than this.
    pub const TDP_GRACE: SimDuration = SimDuration(2_000_000);
    /// Tasks may sit on a gated cluster at most this long before the
    /// manager must have rescued them (covers the slowest baseline's
    /// load-balance period).
    pub const GATING_GRACE: SimDuration = SimDuration(300_000);
    /// Absolute slack for floating-point sum comparisons.
    pub const EPS: f64 = 1e-6;

    /// A fresh auditor.
    pub fn new() -> Auditor {
        Auditor::default()
    }

    /// All violations collected so far, in time order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True when no invariant was ever breached.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of quanta audited so far.
    pub fn quanta_audited(&self) -> u64 {
        self.quanta
    }

    /// Report a violation in the quantum currently being audited. Managers
    /// call this from
    /// [`PowerManager::audit`](crate::executor::PowerManager::audit).
    pub fn report(&mut self, invariant: &'static str, detail: String) {
        self.violations.push(Violation {
            at: self.at,
            snapshot_digest: self.digest,
            invariant,
            detail,
        });
    }

    /// Fold another auditor's report into this one, prefixing each detail
    /// with `label` so the source stays identifiable. Used by fleet-level
    /// rollups that close the books across an exchange plus every chip's
    /// own auditor in one report.
    pub fn absorb(&mut self, label: &str, other: &Auditor) {
        self.quanta += other.quanta;
        for v in other.violations() {
            self.violations.push(Violation {
                at: v.at,
                snapshot_digest: v.snapshot_digest,
                invariant: v.invariant,
                detail: format!("{label}: {}", v.detail),
            });
        }
    }

    /// Human-readable report: a summary line plus one line per violation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "audited {} quanta: {} violation(s)",
            self.quanta,
            self.violations.len()
        );
        for v in &self.violations {
            let _ = writeln!(out, "  {v}");
        }
        out
    }

    /// Open a quantum: everything reported until the next call is tagged
    /// `(at, digest)`. Called by the simulation driver.
    pub fn begin_quantum(&mut self, at: SimTime, digest: u64) {
        self.at = at;
        self.digest = digest;
        self.quanta += 1;
    }

    /// Re-tag the violations from index `from` on, and anything reported
    /// later in the current quantum, with `digest`. The driver opens
    /// untaped quanta with a placeholder digest and computes the real one
    /// only when the quantum reported something.
    pub(crate) fn retag_since(&mut self, from: usize, digest: u64) {
        self.digest = digest;
        for v in &mut self.violations[from..] {
            v.snapshot_digest = digest;
        }
    }

    /// Check all system-level invariants against the post-step state.
    pub fn check_system(&mut self, sys: &System) {
        self.check_allocation_and_affinity(sys);
        self.check_cluster_power(sys);
        self.check_tdp(sys);
        self.check_gating(sys);
    }

    /// Per-core Σ granted ≤ supply, and every task on a core its affinity
    /// mask allows.
    fn check_allocation_and_affinity(&mut self, sys: &System) {
        let chip = sys.chip();
        let n_cores = chip.cores().len();
        self.grants.clear();
        self.grants.resize(n_cores, 0.0);
        // Collect first, report after: `grants` is borrowed from self.
        let mut bad_affinity: Option<String> = None;
        for id in sys.task_iter() {
            let core = sys.core_of(id);
            self.grants[core.0] += sys.granted(id).value();
            if bad_affinity.is_none() && !sys.can_run_on(id, core) {
                bad_affinity = Some(format!("task {} is on forbidden core {}", id.0, core.0));
            }
        }
        if let Some(detail) = bad_affinity {
            self.report("affinity", detail);
        }
        for core in 0..n_cores {
            let supply = chip.core_supply(chip.cores()[core].id()).value();
            let granted = self.grants[core];
            if granted > supply * (1.0 + 1e-9) + Self::EPS {
                self.report(
                    "core-oversubscribed",
                    format!("core {core}: granted {granted:.6} PU > supply {supply:.6} PU"),
                );
            }
        }
    }

    /// Each cluster's power within its physical peak (the paper's 2 W
    /// LITTLE / 6 W big envelopes on TC2).
    fn check_cluster_power(&mut self, sys: &System) {
        let chip = sys.chip();
        for cl in chip.clusters() {
            let peak = chip.power_model().cluster_peak(cl);
            let p = sys.cluster_power(cl.id());
            if p.value() > peak.value() * (1.0 + 1e-9) + Self::EPS {
                self.report(
                    "cluster-power-cap",
                    format!("cluster {}: {p} > peak {peak}", cl.id().0),
                );
            }
        }
    }

    /// Chip power within the TDP envelope: hard margin past its short
    /// grace, plain TDP when sustained past the long grace window. One
    /// report per excursion.
    fn check_tdp(&mut self, sys: &System) {
        let Some(tdp) = sys.tdp() else {
            self.over_tdp_since = None;
            self.over_hard_since = None;
            return;
        };
        let p = sys.chip_power();
        if p.value() <= tdp.value() {
            self.over_tdp_since = None;
            self.over_hard_since = None;
            self.tdp_reported = false;
            return;
        }
        let since = *self.over_tdp_since.get_or_insert(self.at);
        let hard = Watts(tdp.value() * Self::TDP_HARD_MARGIN);
        let hard_since = if p.value() > hard.value() + Self::EPS {
            Some(*self.over_hard_since.get_or_insert(self.at))
        } else {
            self.over_hard_since = None;
            None
        };
        if self.tdp_reported {
            return;
        }
        if let Some(hs) = hard_since {
            if self.at.since(hs) > Self::TDP_HARD_GRACE {
                self.report(
                    "tdp-hard-margin",
                    format!(
                        "chip power {p} > {:.0} % of TDP {tdp} for {} us",
                        Self::TDP_HARD_MARGIN * 100.0,
                        self.at.since(hs).as_micros()
                    ),
                );
                self.tdp_reported = true;
                return;
            }
        }
        if self.at.since(since) > Self::TDP_GRACE {
            self.report(
                "tdp-sustained",
                format!(
                    "chip power {p} above TDP {tdp} for {} us",
                    self.at.since(since).as_micros()
                ),
            );
            self.tdp_reported = true;
        }
    }

    /// No task parked on a gated cluster beyond the rescue grace window.
    fn check_gating(&mut self, sys: &System) {
        let n = sys.chip().clusters().len();
        if self.clusters.len() != n {
            self.clusters.resize(n, ClusterWatch::default());
        }
        // Occupancy costs one pass over the tasks, paid only once a gated
        // cluster needs it.
        let mut occupancy_known = false;
        for ci in 0..n {
            let off = sys.chip().clusters()[ci].is_off();
            if off && !occupancy_known {
                self.occupied.clear();
                self.occupied.resize(n, false);
                for id in sys.task_iter() {
                    self.occupied[sys.chip().core(sys.core_of(id)).cluster().0] = true;
                }
                occupancy_known = true;
            }
            let stranded = off && self.occupied[ci];
            let watch = &mut self.clusters[ci];
            if !stranded {
                watch.gated_with_tasks_since = None;
                watch.gating_reported = false;
                continue;
            }
            let since = *watch.gated_with_tasks_since.get_or_insert(self.at);
            if !watch.gating_reported && self.at.since(since) > Self::GATING_GRACE {
                watch.gating_reported = true;
                self.report(
                    "stranded-on-gated-cluster",
                    format!(
                        "cluster {ci} gated with tasks still mapped to it for {} us",
                        self.at.since(since).as_micros()
                    ),
                );
            }
        }
    }

    /// The tape's newest record must describe this quantum. Called by the
    /// driver only in quanta that recorded a plan.
    pub fn check_tape(&mut self, tape: &Tape) {
        match tape.records().last() {
            Some(r) if r.at == self.at && r.snapshot_digest == self.digest => {}
            Some(r) => self.report(
                "tape-consistency",
                format!(
                    "last tape record ({} us, {:016x}) does not match the quantum",
                    r.at.as_micros(),
                    r.snapshot_digest
                ),
            ),
            None => self.report(
                "tape-consistency",
                "plan recorded but tape is empty".to_string(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{AllocationPolicy, NullManager, Simulation, System};
    use ppm_platform::chip::Chip;
    use ppm_platform::core::CoreId;
    use ppm_platform::units::SimDuration;
    use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm_workload::task::{Priority, Task, TaskId};

    fn busy_system() -> System {
        let mut sys = System::new(Chip::tc2(), AllocationPolicy::FairWeights);
        for i in 0..4 {
            sys.add_task(
                Task::new(
                    TaskId(i),
                    BenchmarkSpec::of(Benchmark::Bodytrack, Input::Large).expect("variant"),
                    Priority(1),
                ),
                CoreId(i % 3),
            );
        }
        sys
    }

    #[test]
    fn clean_null_run_audits_clean() {
        let mut sim = Simulation::new(busy_system(), NullManager).with_auditor();
        sim.run_for(SimDuration::from_secs(2));
        let aud = sim.auditor().expect("auditor attached");
        assert!(aud.is_clean(), "{}", aud.render());
        assert_eq!(aud.quanta_audited(), 2000);
    }

    #[test]
    fn stranded_tasks_on_a_gated_cluster_are_flagged() {
        // Gate the big cluster with a task still on it; NullManager never
        // rescues, so the grace window must expire into a violation.
        let mut sys = busy_system();
        let _ = sys.migrate(TaskId(3), CoreId(3));
        let mut sim = Simulation::new(sys, NullManager).with_auditor();
        sim.run_for(SimDuration::from_millis(5));
        sim.system_mut()
            .power_off(ppm_platform::cluster::ClusterId(1));
        sim.run_for(SimDuration::from_millis(400));
        let aud = sim.auditor().expect("auditor attached");
        assert!(
            aud.violations()
                .iter()
                .any(|v| v.invariant == "stranded-on-gated-cluster"),
            "{}",
            aud.render()
        );
    }

    #[test]
    fn gated_cluster_is_flagged_only_while_occupied() {
        // busy_system keeps every task on LITTLE: gating the empty big
        // cluster is legal. Stranding one task there afterwards is not.
        let mut sim = Simulation::new(busy_system(), NullManager).with_auditor();
        sim.system_mut()
            .power_off(ppm_platform::cluster::ClusterId(1));
        sim.run_for(SimDuration::from_millis(400));
        let aud = sim.auditor().expect("auditor attached");
        assert!(aud.is_clean(), "{}", aud.render());

        let _ = sim.system_mut().migrate(TaskId(3), CoreId(3));
        sim.run_for(SimDuration::from_millis(400));
        let aud = sim.auditor().expect("auditor attached");
        let stranded: Vec<&Violation> = aud
            .violations()
            .iter()
            .filter(|v| v.invariant == "stranded-on-gated-cluster")
            .collect();
        assert_eq!(stranded.len(), 1, "{}", aud.render());
        assert!(stranded[0].detail.starts_with("cluster 1 gated"));
    }

    #[test]
    fn affinity_breach_is_flagged() {
        // `set_affinity` does not move the task (as on Linux), so binding a
        // task on core 0 to a mask that excludes core 0 leaves it stranded
        // on a forbidden core until a manager rebalances — NullManager
        // never does.
        let mut sys = busy_system();
        sys.set_affinity(TaskId(0), crate::affinity::CpuMask::only(CoreId(1)));
        let mut sim = Simulation::new(sys, NullManager).with_auditor();
        sim.run_for(SimDuration::from_millis(2));
        let aud = sim.auditor().expect("auditor attached");
        assert!(
            aud.violations().iter().any(|v| v.invariant == "affinity"),
            "{}",
            aud.render()
        );
    }

    /// Queues a (no-op) nice update every quantum, so a taped run records
    /// every quantum and computes its digest eagerly. It never asks for the
    /// task section, so an untaped run keeps its violation digests equal
    /// to the taped ones only because an audited run captures the tasks
    /// every quantum.
    struct NiceEveryQuantum;

    impl crate::executor::PowerManager for NiceEveryQuantum {
        fn name(&self) -> &'static str {
            "nice-every-quantum"
        }

        fn reads_tasks(&self, _snap: &crate::snapshot::SystemSnapshot) -> bool {
            false
        }

        fn plan(
            &mut self,
            _snap: &crate::snapshot::SystemSnapshot,
            plan: &mut crate::plan::ActuationPlan,
            _prof: Option<&mut ppm_obs::PhaseProfiler>,
        ) {
            plan.set_nice(TaskId(1), crate::nice::Nice::new(0));
        }
    }

    #[test]
    fn lazy_violation_digests_match_eager_ones() {
        let run = |taped: bool| {
            let mut sys = busy_system();
            sys.set_affinity(TaskId(0), crate::affinity::CpuMask::only(CoreId(1)));
            let sim = Simulation::new(sys, NiceEveryQuantum).with_auditor();
            let mut sim = if taped { sim.with_tape() } else { sim };
            sim.run_for(SimDuration::from_millis(5));
            let aud = sim.auditor().expect("auditor attached");
            assert!(aud.violations().iter().all(|v| v.snapshot_digest != 0));
            aud.render()
        };
        let eager = run(true);
        assert!(eager.contains("affinity"), "{eager}");
        assert_eq!(eager, run(false));
    }

    #[test]
    fn render_mentions_every_violation() {
        let mut aud = Auditor::new();
        aud.begin_quantum(SimTime(42), 0xfeed);
        aud.report("demo", "something broke".to_string());
        let r = aud.render();
        assert!(r.contains("1 violation"), "{r}");
        assert!(r.contains("demo"), "{r}");
        assert!(r.contains("42 us"), "{r}");
    }
}
