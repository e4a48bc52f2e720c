//! Determinism and semantics of the burn-rate alert plane over real runs.
//!
//! The alert engine's signals are pure functions of simulated time, so a
//! power-starved cell must fire the same rules on every run, and a
//! PPM-managed open-loop cell at its golden TDP must stay alert-silent.

use ppm::platform::units::{SimDuration, Watts};
use ppm_bench::{run_workload_hardened, Harness, Scheme};

const DURATION: SimDuration = SimDuration(12_000_000);

/// Run a PPM cell with the alert engine attached and return the rendered
/// alert tape plus the number of rules that fired over the run.
fn alert_tape(set_name: &str, tdp: f64) -> (String, u64) {
    let set = ppm_bench::resolve_set(set_name).expect("known set");
    let run = run_workload_hardened(
        &set,
        Scheme::Ppm,
        Some(Watts(tdp)),
        DURATION,
        Harness {
            alerts: true,
            ..Harness::default()
        },
    );
    let tel = run.telemetry.expect("telemetry attached");
    let engine = tel.alerts.as_ref().expect("alert engine attached");
    (engine.render(), engine.fired_total())
}

/// The seeded SLO-violating scenario: the diurnal open-loop family under
/// a 1 W starvation cap. It must fire deterministically, because every
/// signal is computed from simulated time, never from wall-clock or thread
/// scheduling.
#[test]
fn starved_cell_fires_a_deterministic_alert_tape() {
    let (tape, fired) = alert_tape("ol3", 1.0);
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
    let (replay, fired_replay) = alert_tape("ol3", 1.0);
    assert_eq!(tape, replay);
    assert_eq!(fired, fired_replay);
}

/// The control cell: ol2 under PPM at its golden 4 W TDP (the exact
/// configuration of the committed `openloop_ol2_ppm` tape) never trips a
/// rule — the alert plane distinguishes managed from starved, it does not
/// cry wolf.
#[test]
fn ppm_managed_openloop_cell_stays_alert_silent_at_its_golden_tdp() {
    let (tape, fired) = alert_tape("ol2", 4.0);
    assert_eq!(fired, 0, "ol2 under PPM at 4 W must not alert:\n{tape}");
    assert!(tape.contains("0 rule(s) firing at end"), "{tape}");
}
