//! Robustness: the market must tolerate imperfect sensors and odd
//! configurations without thrashing or violating its invariants, and the
//! operator-facing JSON parser must survive hostile input.

use proptest::prelude::*;

use ppm::core::config::PpmConfig;
use ppm::core::manager::tc2_ppm_system;
use ppm::core::market::{ClusterObs, CoreObs, Market, MarketObs, TaskObs};
use ppm::obs::export::{write_fleet_chrome_trace, CounterSample};
use ppm::obs::{
    json, render_json, write_chrome_trace, write_jsonl, AggSnapshot, AlertEngine, Phase,
    PolicySample, ScrapeSnapshot, Telemetry,
};
use ppm::platform::cluster::ClusterId;
use ppm::platform::core::CoreId;
use ppm::platform::faults::{FaultConfig, FaultPlan};
use ppm::platform::units::{ProcessingUnits, SimDuration, Watts};
use ppm::sched::Simulation;
use ppm::workload::sets::set_by_name;
use ppm::workload::task::{Priority, TaskId};

/// Run `m2` for 60 s with Gaussian power-sensor noise of relative `sigma`
/// as the only fault (`sigma` 0 is the clean run).
fn run_with_noise(sigma: f64, tdp: Option<Watts>) -> (f64, f64, u64) {
    let set = set_by_name("m2").expect("m2");
    let config = match tdp {
        Some(t) => PpmConfig::tc2_with_tdp(t),
        None => PpmConfig::tc2(),
    };
    let (mut sys, mgr) = tc2_ppm_system(set.spawn(0, Priority::NORMAL), config);
    if let Some(t) = tdp {
        sys.set_tdp_accounting(t);
    }
    let mut sim = Simulation::new(sys, mgr)
        .with_warmup(SimDuration::from_secs(5))
        .with_faults(FaultPlan::new(FaultConfig::sensor_noise(0x5EED, sigma)));
    sim.run_for(SimDuration::from_secs(60));
    let m = sim.metrics();
    (
        m.any_miss_fraction(),
        m.average_power().value(),
        m.vf_transitions,
    )
}

#[test]
fn five_percent_sensor_noise_is_tolerated() {
    let (miss_clean, power_clean, vf_clean) = run_with_noise(0.0, None);
    let (miss_noisy, power_noisy, vf_noisy) = run_with_noise(0.05, None);
    assert!(
        miss_noisy < miss_clean + 0.10,
        "noise wrecked QoS: {miss_noisy:.2} vs {miss_clean:.2}"
    );
    assert!(
        power_noisy < power_clean * 1.3 + 0.3,
        "noise inflated power: {power_noisy:.2} vs {power_clean:.2}"
    );
    assert!(
        vf_noisy < vf_clean * 4 + 40,
        "noise caused V-F thrash: {vf_noisy} vs {vf_clean}"
    );
}

/// A malformed snapshot — a task pinned to a core the observation layer
/// never reported — must degrade gracefully: the task is skipped for the
/// round (and surfaced in `decision.orphans`), everyone else trades as
/// usual, and the market recovers the moment the observation heals.
#[test]
fn tasks_on_unobserved_cores_degrade_gracefully() {
    let mut market = Market::new(PpmConfig::tc2());
    let mut obs = MarketObs {
        chip_power: Watts(2.0),
        tasks: (0..6)
            .map(|i| TaskObs {
                id: TaskId(i),
                core: CoreId(i % 2),
                priority: 2,
                demand: ProcessingUnits(100.0),
            })
            .collect(),
        cores: vec![
            CoreObs {
                id: CoreId(0),
                cluster: ClusterId(0),
            },
            CoreObs {
                id: CoreId(1),
                cluster: ClusterId(0),
            },
        ],
        clusters: vec![ClusterObs {
            id: ClusterId(0),
            supply: ProcessingUnits(600.0),
            supply_up: None,
            supply_down: None,
            power: Watts(1.0),
        }],
    };

    // Healthy rounds first, then break one task's core reference.
    for _ in 0..5 {
        let d = market.round(&obs);
        assert!(d.orphans.is_empty());
        assert_eq!(d.tasks.len(), 6);
    }
    obs.tasks[3].core = CoreId(42);
    for _ in 0..3 {
        let d = market.round(&obs);
        assert_eq!(d.orphans, vec![(TaskId(3), CoreId(42))]);
        assert_eq!(d.tasks.len(), 5, "the others must keep trading");
        assert!(d.tasks.iter().all(|r| r.id != TaskId(3)));
        assert!(
            d.shares.iter().all(|(id, _)| *id != TaskId(3)),
            "an orphan must not be granted supply"
        );
    }
    // Heal the observation: the task rejoins with its agent state intact.
    obs.tasks[3].core = CoreId(1);
    let d = market.round(&obs);
    assert!(d.orphans.is_empty());
    assert_eq!(d.tasks.len(), 6);
    assert!(d.tasks.iter().any(|r| r.id == TaskId(3)));
}

#[test]
fn noisy_sensors_near_the_tdp_do_not_collapse_the_market() {
    // `m2` averages about 2.5 W, so a 4 W cap never binds and the noisy
    // reading never crosses the threshold: this run matches the uncapped
    // one. The flicker across a binding cap is the next test's subject.
    let tdp = Watts(4.0);
    let (miss, power, _vf) = run_with_noise(0.05, Some(tdp));
    assert!(power < 4.0, "cap must hold on average: {power:.2} W");
    assert!(miss < 0.5, "flicker starved the workload: {miss:.2}");
}

#[test]
fn noisy_sensors_under_a_binding_cap_hold_it() {
    // Caps below `m2`'s uncapped draw: the clean reading already sits in
    // the threshold band, and noise makes it flicker across the
    // threshold/emergency boundaries. The cap must hold on average either
    // way.
    let (_, uncapped, _) = run_with_noise(0.0, None);
    for cap in [2.4, 2.2, 2.0] {
        let (_, clean, _) = run_with_noise(0.0, Some(Watts(cap)));
        assert!(
            clean < uncapped - 0.2,
            "a {cap} W cap must bind: {clean:.3} W capped vs {uncapped:.3} W uncapped"
        );
        let (_, noisy, _) = run_with_noise(0.05, Some(Watts(cap)));
        for (sigma, power) in [(0.0, clean), (0.05, noisy)] {
            assert!(
                power < cap,
                "a {cap} W cap must hold on average at noise {sigma}: {power:.3} W"
            );
        }
    }
}

/// Fragments that steer random text towards the edges of the JSON grammar;
/// selectors past the end draw an arbitrary scalar value instead.
const JSON_BITS: [&str; 26] = [
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\u00",
    "0",
    "7",
    "-",
    "+",
    ".",
    "e",
    "true",
    "false",
    "null",
    " ",
    "\n",
    "\"k\":",
    "\u{e9}",
    "\u{1f600}",
    "a",
    "f",
];

/// Random text: JSON-shaped fragments mixed with arbitrary characters.
fn json_ish_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..JSON_BITS.len() + 6, 0u32..0x11_0000), 0..48).prop_map(
        |parts| {
            parts
                .into_iter()
                .map(|(sel, cp)| match JSON_BITS.get(sel) {
                    Some(bit) => bit.to_string(),
                    None => char::from_u32(cp).unwrap_or('?').to_string(),
                })
                .collect()
        },
    )
}

/// A telemetry value, biased towards the ones JSON cannot spell directly.
fn telemetry_value() -> impl Strategy<Value = f64> {
    (0usize..10, -1e6f64..1e6).prop_map(|(sel, v)| match sel {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => f64::MAX,
        5 => f64::MIN_POSITIVE / 4.0,
        _ => v,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser reads scrape bodies from the network: whatever the
    /// bytes, it returns, and never panics.
    #[test]
    fn json_parse_never_panics(text in json_ish_text()) {
        let _ = json::parse(&text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every JSON document the exporters and the scrape endpoint write
    /// parses back, whatever the recorded values (NaN, infinities, -0,
    /// extremes) and whatever the chip label and series names hold.
    #[test]
    fn exported_documents_parse_back(
        label in json_ish_text(),
        values in proptest::collection::vec(telemetry_value(), 12..96),
    ) {
        let mut tel = Telemetry::new(8)
            .with_profiling()
            .with_aggregation(2_000)
            .with_alerts();
        tel.recorder.ensure_shape(2, 3, 2);
        let mut policy = PolicySample::new();
        for (q, v) in values.chunks_exact(12).enumerate() {
            policy.reset(3);
            policy.allowance = v[3];
            policy.money_supply = v[4];
            policy.set_core_price(q % 3, v[5]);
            let mut phases = [0u64; Phase::COUNT];
            phases[q % Phase::COUNT] = v[6].abs().min(1e12) as u64;
            let mut row = tel.recorder.push_row((q as u64 + 1) * 1_000);
            row.chip(v[0], v[1], v[2])
                .policy(&policy)
                .phases(&phases)
                .cluster(q % 2, v[7], v[8], v[9], v[10])
                .core_supply(q % 3, v[11])
                .task(q % 2, v[0], v[1], v[2], v[3])
                .task_latency(q % 2, v[4], v[5], v[6], v[7])
                .obs_stream(v[8], v[9], v[10]);
            tel.roll_forward();
        }

        let mut jsonl = Vec::new();
        write_jsonl(&tel.recorder, &mut jsonl).expect("in-memory write");
        for (n, line) in String::from_utf8(jsonl).expect("utf-8").lines().enumerate() {
            let parsed = json::parse(line);
            prop_assert!(parsed.is_ok(), "JSONL line {}: {:?}\n{}", n + 1, parsed, line);
        }

        let mut trace = Vec::new();
        write_chrome_trace(&tel.recorder, &mut trace, 1).expect("in-memory write");
        let trace = String::from_utf8(trace).expect("utf-8");
        prop_assert!(json::parse(&trace).is_ok(), "chrome trace: {:?}", json::parse(&trace));

        let exchange = [CounterSample {
            t_us: 5_000,
            series: vec![(label.clone(), values[0]), ("cap".to_string(), values[1])],
        }];
        let mut fleet = Vec::new();
        write_fleet_chrome_trace(&[&tel.recorder, &tel.recorder], &exchange, &mut fleet, 1)
            .expect("in-memory write");
        let fleet = String::from_utf8(fleet).expect("utf-8");
        prop_assert!(json::parse(&fleet).is_ok(), "fleet trace: {:?}", json::parse(&fleet));

        // The fuzzed label names the chip section, as a fleet driver's
        // `chip {i}` does.
        let agg = tel.aggregate.as_ref().expect("aggregation attached");
        let chip = agg.snapshot(&label);
        let mut rollup = AggSnapshot::empty("fleet", agg.window_us());
        rollup.absorb(&chip);
        let snapshot = render_json(&ScrapeSnapshot {
            at_us: agg.now_us(),
            fleet: Some(rollup),
            chips: vec![chip],
            alerts: tel.alerts.as_ref().map(AlertEngine::snapshot),
        });
        prop_assert!(
            json::parse(&snapshot).is_ok(),
            "scrape snapshot: {:?}\n{}", json::parse(&snapshot), snapshot
        );
    }
}
