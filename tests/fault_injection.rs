//! Fault-injection property suite: every scheme must keep the system
//! inside its invariant envelope while flying on perturbed observations
//! and unreliable actuators.
//!
//! The deterministic seed for the pinned runs comes from `PPM_FAULT_SEED`
//! (decimal), so CI can sweep seeds without recompiling; the property
//! tests additionally generate arbitrary valid [`FaultConfig`]s (shrunk on
//! failure by the vendored proptest's choice-tape shrinker).

use ppm::platform::faults::FaultConfig;
use ppm::platform::units::{SimDuration, Watts};
use ppm::workload::sets::set_by_name;
use ppm_bench::{run_workload_hardened, Harness, Scheme};
use proptest::prelude::*;

/// All schemes the auditor must hold clean, including the do-nothing
/// control.
const SCHEMES: [Scheme; 4] = [Scheme::Ppm, Scheme::Hpm, Scheme::Hl, Scheme::Null];

/// Seed for the pinned deterministic runs; override with `PPM_FAULT_SEED`.
fn fault_seed() -> u64 {
    std::env::var("PPM_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xA5)
}

fn audited(
    scheme: Scheme,
    tdp: Option<Watts>,
    faults: FaultConfig,
    secs: u64,
) -> ppm_bench::HardenedRun {
    let set = set_by_name("l1").expect("fig4 small set");
    run_workload_hardened(
        &set,
        scheme,
        tdp,
        SimDuration::from_secs(secs),
        Harness {
            faults: Some(faults),
            audit: true,
            ..Harness::default()
        },
    )
}

/// The headline acceptance check: with a pinned fault seed the
/// auditor reports zero violations for all four schemes over the fig4
/// workload.
#[test]
fn all_schemes_audit_clean_under_default_faults() {
    let seed = fault_seed();
    for scheme in SCHEMES {
        let run = audited(scheme, None, FaultConfig::with_seed(seed), 8);
        assert!(
            run.violations.is_empty(),
            "{} (seed {seed}):\n{}",
            scheme.name(),
            run.audit_report
        );
        assert!(
            run.fault_stats.total() > 0,
            "{}: fault plan injected nothing",
            scheme.name()
        );
    }
}

/// Same check under the fig6 configuration (4 W TDP): capped runs keep
/// the chip inside the TDP envelope even with noisy sensors and lost
/// actuations.
#[test]
fn all_schemes_audit_clean_under_faults_with_tdp() {
    let seed = fault_seed();
    for scheme in SCHEMES {
        let run = audited(scheme, Some(Watts(4.0)), FaultConfig::with_seed(seed), 8);
        assert!(
            run.violations.is_empty(),
            "{} TDP (seed {seed}):\n{}",
            scheme.name(),
            run.audit_report
        );
    }
}

/// A board on its last legs — heavy noise, frequent actuation failures,
/// a couple of task crashes — must still leave the system consistent:
/// crashed tasks disappear without stranding anything, and the run
/// finishes auditor-clean.
#[test]
fn harsh_faults_with_crashes_stay_consistent() {
    let seed = fault_seed();
    let run = audited(Scheme::Ppm, None, FaultConfig::harsh(seed), 8);
    assert!(
        run.violations.is_empty(),
        "PPM harsh (seed {seed}):\n{}",
        run.audit_report
    );
    assert!(run.fault_stats.total() > 0);
}

/// The two executor-lifecycle faults, cranked up: every cluster agent's
/// clock drifts (up to 3 quanta) and half the plans are truncated by a
/// mid-actuation death. The run must actually inject both fault classes and
/// still audit clean.
#[test]
fn clock_drift_and_partial_plans_stay_clean() {
    let seed = fault_seed();
    let mut config = FaultConfig::with_seed(seed);
    config.clock_drift_prob = 1.0;
    config.clock_drift_quanta_max = 3;
    config.partial_plan_prob = 0.5;
    let set = set_by_name("l1").expect("fig4 small set");
    let run = run_workload_hardened(
        &set,
        Scheme::Ppm,
        None,
        SimDuration::from_secs(8),
        Harness {
            faults: Some(config),
            audit: true,
            ..Harness::default()
        },
    );
    assert!(
        run.violations.is_empty(),
        "PPM drift+partial (seed {seed}):\n{}",
        run.audit_report
    );
    assert!(
        run.fault_stats.drifted_readings > 0,
        "no drifted readings were delivered"
    );
    assert!(
        run.fault_stats.partial_plans > 0,
        "no plan was ever truncated"
    );
}

/// Per-chip observation clock drift, cranked up: the chip-wide power
/// reading is guaranteed to lag the true capture by up to 4 quanta, so the
/// manager's power-state machine — and, in a fleet, its exchange bids —
/// run entirely on old data. The drift must actually fire (late deliveries
/// counted separately from cluster drift) and the run must audit clean:
/// physics is untouched, so the TDP envelope still holds.
#[test]
fn chip_clock_drift_stays_clean() {
    let seed = fault_seed();
    let mut config = FaultConfig::with_seed(seed);
    config.chip_clock_drift_prob = 1.0;
    config.chip_clock_drift_quanta_max = 4;
    let run = audited(Scheme::Ppm, Some(Watts(4.0)), config, 8);
    assert!(
        run.violations.is_empty(),
        "PPM chip drift (seed {seed}):\n{}",
        run.audit_report
    );
    assert!(
        run.fault_stats.chip_drifted_readings > 0,
        "no chip-wide reading was ever delivered late"
    );
}

/// Strategy over arbitrary *valid* fault configurations: every probability
/// is a probability, DVFS fail+defer stays a distribution, magnitudes stay
/// finite. `FaultConfig::is_valid` is the contract this must satisfy.
fn arb_fault_config() -> impl Strategy<Value = FaultConfig> {
    (
        (0u64..1 << 48, 0.0f64..0.15, 0.0f64..0.05),
        (0.0f64..0.15, 0.0f64..0.10),
        (0.0f64..0.02, 0.0f64..30.0),
        (0.0f64..0.45, 0.0f64..0.45, 0u32..=8),
        // The vendored proptest implements `Strategy` for tuples up to
        // arity 6, so the tail groups nest one level deeper.
        (
            (0.0f64..0.40, 0.0f64..0.0005, 0u32..=2),
            (0.0f64..=1.0, 0u32..=4, 0.0f64..0.25),
            (0.0f64..=1.0, 0u32..=4),
        ),
    )
        .prop_map(
            |(
                (seed, power_noise_sigma, power_quantum),
                (stale_reading_prob, dropped_reading_prob),
                (thermal_spike_prob, thermal_spike_magnitude),
                (dvfs_fail_prob, dvfs_defer_prob, dvfs_defer_quanta_max),
                (
                    (migration_fail_prob, task_crash_prob, max_task_crashes),
                    (clock_drift_prob, clock_drift_quanta_max, partial_plan_prob),
                    (chip_clock_drift_prob, chip_clock_drift_quanta_max),
                ),
            )| FaultConfig {
                seed,
                power_noise_sigma,
                power_quantum: Watts(power_quantum),
                stale_reading_prob,
                dropped_reading_prob,
                thermal_spike_prob,
                thermal_spike_magnitude,
                dvfs_fail_prob,
                dvfs_defer_prob,
                dvfs_defer_quanta_max,
                migration_fail_prob,
                task_crash_prob,
                max_task_crashes,
                clock_drift_prob,
                clock_drift_quanta_max,
                chip_clock_drift_prob,
                chip_clock_drift_quanta_max,
                partial_plan_prob,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary valid fault sequences: whatever the board does to the
    /// sensors and actuators, no scheme may panic or break an invariant.
    #[test]
    fn arbitrary_faults_never_break_invariants(
        config in arb_fault_config(),
        scheme_pick in 0usize..4,
    ) {
        prop_assert!(config.is_valid(), "generator must emit valid configs");
        let scheme = SCHEMES[scheme_pick];
        let run = audited(scheme, None, config.clone(), 3);
        prop_assert!(
            run.violations.is_empty(),
            "{} under {config:?}:\n{}",
            scheme.name(),
            run.audit_report
        );
    }

    /// The generator's contract, checked over many more cases than the
    /// expensive simulation property can afford.
    #[test]
    fn generated_configs_are_always_valid(config in arb_fault_config()) {
        prop_assert!(config.is_valid(), "{config:?}");
    }
}
