//! Comparative integration tests: the relative shapes of the paper's
//! evaluation (Figures 4–6) must hold on shortened runs.

use ppm::baselines::hl::{HlConfig, HlManager};
use ppm::baselines::hpm::{HpmConfig, HpmManager};
use ppm::core::config::PpmConfig;
use ppm::core::manager::{place_on_little, PpmManager};
use ppm::platform::chip::Chip;
use ppm::platform::core::CoreId;
use ppm::platform::units::{SimDuration, Watts};
use ppm::sched::{AllocationPolicy, PowerManager, RunMetrics, Simulation, System};
use ppm::workload::sets::set_by_name;
use ppm::workload::task::Priority;
use ppm_bench::{run_workload_hardened, Harness, Scheme};

const RUN: SimDuration = SimDuration(60_000_000);

fn run<M: PowerManager>(
    set_name: &str,
    policy: AllocationPolicy,
    mgr: M,
    tdp: Option<Watts>,
) -> RunMetrics {
    let set = set_by_name(set_name).expect("Table 6 set");
    let mut sys = System::new(Chip::tc2(), policy);
    for t in set.spawn(0, Priority::NORMAL) {
        sys.add_task(t, CoreId(0));
    }
    place_on_little(&mut sys);
    if let Some(t) = tdp {
        sys.set_tdp_accounting(t);
    }
    let mut sim = Simulation::new(sys, mgr).with_warmup(SimDuration::from_secs(5));
    sim.run_for(RUN);
    sim.into_system().into_metrics()
}

fn ppm(set: &str, tdp: Option<Watts>) -> RunMetrics {
    let config = match tdp {
        Some(t) => PpmConfig::tc2_with_tdp(t),
        None => PpmConfig::tc2(),
    };
    run(set, AllocationPolicy::Market, PpmManager::new(config), tdp)
}

fn hpm(set: &str, tdp: Option<Watts>) -> RunMetrics {
    let mut config = HpmConfig::new();
    if let Some(t) = tdp {
        config = config.with_tdp(t);
    }
    run(set, AllocationPolicy::Market, HpmManager::new(config), tdp)
}

fn hl(set: &str, tdp: Option<Watts>) -> RunMetrics {
    let mut config = HlConfig::new();
    if let Some(t) = tdp {
        config = config.with_tdp(t);
    }
    run(
        set,
        AllocationPolicy::FairWeights,
        HlManager::new(config),
        tdp,
    )
}

#[test]
fn figure5_shape_hl_burns_far_more_power() {
    // Paper: HL 5.99 W vs HPM 3.43 W vs PPM 2.96 W on average.
    for set in ["l1", "m1"] {
        let p = ppm(set, None).average_power();
        let h = hl(set, None).average_power();
        assert!(
            h.value() > 1.8 * p.value(),
            "{set}: HL {h} should dwarf PPM {p}"
        );
    }
}

#[test]
fn figure4_shape_hl_wins_light_loses_heavy() {
    // Paper: "HL performs better under light workloads … the PPM scheduler
    // outperforms both HPM and HL for medium and heavy workloads."
    let light_hl = hl("l1", None).any_miss_fraction();
    assert!(light_hl < 0.05, "HL on l1: {light_hl:.2}");

    let heavy_hl = hl("h2", None).any_miss_fraction();
    let heavy_ppm = ppm("h2", None).any_miss_fraction();
    assert!(
        heavy_ppm < heavy_hl * 0.5,
        "PPM ({heavy_ppm:.2}) must beat HL ({heavy_hl:.2}) on heavy sets"
    );
}

#[test]
fn figure4_shape_ppm_beats_hpm_on_medium() {
    // m1 is the set where HPM's naive LBT hurts most (Figure 4).
    let m_ppm = ppm("m1", None).any_miss_fraction();
    let m_hpm = hpm("m1", None).any_miss_fraction();
    assert!(
        m_ppm < m_hpm,
        "PPM ({m_ppm:.2}) should beat HPM ({m_hpm:.2}) on m1"
    );
}

#[test]
fn figure6_shape_all_schemes_respect_the_cap_on_average() {
    let tdp = Watts(4.0);
    for (name, m) in [
        ("PPM", ppm("m1", Some(tdp))),
        ("HPM", hpm("m1", Some(tdp))),
        ("HL", hl("m1", Some(tdp))),
    ] {
        assert!(
            m.average_power() < tdp,
            "{name} average {} exceeds the cap",
            m.average_power()
        );
    }
}

#[test]
fn figure6_shape_hl_cutoff_cripples_medium_sets() {
    // Switching the A15s off confines a medium set to the LITTLE cluster,
    // which cannot hold it: HL's misses explode while PPM stays moderate.
    let tdp = Watts(4.0);
    let hl_miss = hl("m1", Some(tdp)).any_miss_fraction();
    let ppm_miss = ppm("m1", Some(tdp)).any_miss_fraction();
    assert!(hl_miss > 0.4, "HL under cap on m1: {hl_miss:.2}");
    assert!(
        ppm_miss < hl_miss * 0.5,
        "PPM ({ppm_miss:.2}) must beat HL ({ppm_miss:.2}) under the cap"
    );
}

#[test]
fn hl_migrates_everything_to_big_without_cap() {
    // Paper: "the HL scheduler migrates the tasks to the powerful A15
    // cluster at the first opportunity".
    let set = set_by_name("l1").expect("l1");
    let mut sys = System::new(Chip::tc2(), AllocationPolicy::FairWeights);
    for t in set.spawn(0, Priority::NORMAL) {
        sys.add_task(t, CoreId(0));
    }
    place_on_little(&mut sys);
    let mut sim = Simulation::new(sys, HlManager::new(HlConfig::new()));
    sim.run_for(SimDuration::from_secs(10));
    let s = sim.system();
    let on_big = s
        .task_ids()
        .iter()
        .filter(|&&t| s.chip().core(s.core_of(t)).class() == ppm::platform::core::CoreClass::Big)
        .count();
    assert_eq!(on_big, 6, "all six tasks should end on the big cluster");
}

/// One open-loop family at the Figure 6 cap under all four schemes, with
/// the auditor attached: the three managers keep every tail within its SLO
/// without shedding, while the unmanaged Null control misses and sheds.
fn openloop_family_shape(set_name: &str) {
    let set = ppm_bench::resolve_set(set_name).expect("open-loop set");
    let tdp = Watts(4.0);
    for scheme in [Scheme::Ppm, Scheme::Hpm, Scheme::Hl, Scheme::Null] {
        let run = run_workload_hardened(
            &set,
            scheme,
            Some(tdp),
            RUN,
            Harness {
                audit: true,
                ..Harness::default()
            },
        );
        let s = &run.summary;
        let cell = format!("{set_name}/{}", scheme.name());
        assert!(run.violations.is_empty(), "{cell}: {}", run.audit_report);
        if scheme == Scheme::Null {
            assert!(
                s.worst_p99_over_slo > 1.0 && s.shed > 0,
                "{cell}: unmanaged control should miss and shed, got p99/SLO {:.3}, shed {}",
                s.worst_p99_over_slo,
                s.shed
            );
        } else {
            assert!(
                s.worst_p99_over_slo > 0.0 && s.worst_p99_over_slo <= 1.0,
                "{cell}: worst p99/SLO {:.3} (0 means no request completed)",
                s.worst_p99_over_slo
            );
            assert_eq!(s.shed, 0, "{cell}: managed queues must not shed");
            assert!(s.avg_power <= tdp, "{cell}: average power {}", s.avg_power);
        }
    }
}

#[test]
fn openloop_shape_poisson_family() {
    openloop_family_shape("ol1");
}

#[test]
fn openloop_shape_bursty_family() {
    openloop_family_shape("ol2");
}

#[test]
fn openloop_shape_diurnal_family() {
    openloop_family_shape("ol3");
}
