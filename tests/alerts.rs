//! Determinism and semantics of the burn-rate alert plane over real runs.
//!
//! The alert engine's signals are pure functions of simulated time, so a
//! power-starved cell must fire the same rules on every run, and a
//! PPM-managed open-loop cell at its golden TDP must stay alert-silent.

use ppm::platform::units::{SimDuration, Watts};
use ppm_bench::{run_workload_hardened, HardenedRun, Harness, Scheme};

const DURATION: SimDuration = SimDuration(12_000_000);

/// Run a PPM cell for `duration` with the alert engine attached, plus the
/// invariant auditor when `audit` is set.
fn alerted_run(set_name: &str, tdp: f64, duration: SimDuration, audit: bool) -> HardenedRun {
    let set = ppm_bench::resolve_set(set_name).expect("known set");
    run_workload_hardened(
        &set,
        Scheme::Ppm,
        Some(Watts(tdp)),
        duration,
        Harness {
            alerts: true,
            audit,
            ..Harness::default()
        },
    )
}

/// The rendered alert tape of `run` plus the number of rules that fired.
fn alert_tape(run: &HardenedRun) -> (String, u64) {
    let tel = run.telemetry.as_ref().expect("telemetry attached");
    let engine = tel.alerts.as_ref().expect("alert engine attached");
    (engine.render(), engine.fired_total())
}

/// The seeded SLO-violating scenario: the diurnal open-loop family under
/// a 1 W starvation cap. It must fire deterministically, because every
/// signal is computed from simulated time, never from wall-clock or thread
/// scheduling.
#[test]
fn starved_cell_fires_a_deterministic_alert_tape() {
    let (tape, fired) = alert_tape(&alerted_run("ol3", 1.0, DURATION, false));
    assert!(fired > 0, "the starved ol3 cell must fire:\n{tape}");
    assert!(
        tape.contains("tdp_headroom"),
        "a 1 W cap must burn the TDP-headroom budget:\n{tape}"
    );
    assert!(
        tape.contains("slo_burn"),
        "starved request tasks must burn the SLO budget:\n{tape}"
    );

    // A replay reproduces the tape exactly.
    let (replay, fired_replay) = alert_tape(&alerted_run("ol3", 1.0, DURATION, false));
    assert_eq!(tape, replay);
    assert_eq!(fired, fired_replay);
}

/// The control cell: ol2 under PPM at its golden 4 W TDP (the exact
/// configuration of the committed `openloop_ol2_ppm` tape) never trips a
/// rule — the alert plane distinguishes managed from starved, it does not
/// cry wolf. Over 20 s with the auditor attached it also meets its p99 SLO
/// within the cap, invariant-clean.
#[test]
fn ppm_managed_openloop_cell_stays_alert_silent_at_its_golden_tdp() {
    let run = alerted_run("ol2", 4.0, SimDuration::from_secs(20), true);
    let (tape, fired) = alert_tape(&run);
    assert_eq!(fired, 0, "ol2 under PPM at 4 W must not alert:\n{tape}");
    assert!(tape.contains("0 rule(s) firing at end"), "{tape}");
    assert!(run.violations.is_empty(), "{}", run.audit_report);
    let s = &run.summary;
    assert!(
        s.worst_p99_over_slo > 0.0 && s.worst_p99_over_slo <= 1.0,
        "worst p99/SLO {:.3} (0 means no request completed)",
        s.worst_p99_over_slo
    );
    assert!(s.avg_power.value() <= 4.0, "average power {}", s.avg_power);
}
