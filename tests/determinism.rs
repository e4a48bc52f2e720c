//! Determinism: identical configurations must yield bit-identical runs.
//! The whole evaluation (EXPERIMENTS.md, docs/results/) depends on it.
//!
//! The market engine must also be *hasher-independent*: `std` `HashMap`s
//! seed their hasher per `RandomState` (and a fresh one per thread local),
//! so any result that leaks map iteration order differs between threads
//! and between runs. The arena-based round engine iterates in observation
//! order only; the cross-thread tests below pin that down.

use ppm::core::config::PpmConfig;
use ppm::core::manager::tc2_ppm_system;
use ppm::core::market::{ClusterObs, CoreObs, Market, MarketDecision, MarketObs, TaskObs, VfStep};
use ppm::platform::cluster::ClusterId;
use ppm::platform::core::CoreId;
use ppm::platform::units::{ProcessingUnits, SimDuration, Watts};
use ppm::sched::Simulation;
use ppm::workload::sets::set_by_name;
use ppm::workload::task::{Priority, TaskId};

fn fingerprint(noise: f64) -> (u64, String, String, u64, u64) {
    let set = set_by_name("m2").expect("m2");
    let (mut sys, mgr) = tc2_ppm_system(set.spawn(0, Priority::NORMAL), PpmConfig::tc2());
    sys.set_sensor_noise(noise);
    let mut sim = Simulation::new(sys, mgr).with_warmup(SimDuration::from_secs(2));
    sim.run_for(SimDuration::from_secs(30));
    let m = sim.metrics();
    (
        m.vf_transitions,
        format!("{:.12}", m.any_miss_fraction()),
        format!("{:.12}", m.average_power().value()),
        m.migrations_intra,
        m.migrations_inter,
    )
}

#[test]
fn identical_runs_are_bit_identical() {
    assert_eq!(fingerprint(0.0), fingerprint(0.0));
}

#[test]
fn noisy_runs_are_also_deterministic() {
    // The sensor noise is a seeded xorshift: reruns must match too.
    assert_eq!(fingerprint(0.05), fingerprint(0.05));
    // ...while differing from the clean run.
    assert_ne!(fingerprint(0.05), fingerprint(0.0));
}

/// A market scenario rich enough to exercise every ordering-sensitive code
/// path: several clusters and cores, mixed priorities, demand phases that
/// drive DVFS both ways, task churn, and an orphaned task.
fn market_trace() -> String {
    let v = 3usize;
    let c = 4usize;
    let t = 3usize;
    let ladder = [300.0, 400.0, 500.0, 600.0];
    let mut levels = vec![1usize; v];
    let mut market = Market::new(PpmConfig::tc2());
    let mut out = MarketDecision::default();
    let mut trace = String::new();

    let mut obs = MarketObs {
        chip_power: Watts(2.0),
        tasks: Vec::new(),
        cores: Vec::new(),
        clusters: Vec::new(),
    };
    for cl in 0..v {
        for co in 0..c {
            let core = CoreId(cl * c + co);
            obs.cores.push(CoreObs {
                id: core,
                cluster: ClusterId(cl),
            });
            for k in 0..t {
                let id = obs.tasks.len();
                obs.tasks.push(TaskObs {
                    id: TaskId(id),
                    core,
                    priority: 1 + (id % 8) as u32,
                    demand: ProcessingUnits(40.0 + ((id * 17 + k * 5) % 120) as f64),
                });
            }
        }
    }

    for round in 0..120u64 {
        obs.clusters.clear();
        obs.clusters.extend((0..v).map(|cl| {
            let lvl = levels[cl];
            ClusterObs {
                id: ClusterId(cl),
                supply: ProcessingUnits(ladder[lvl]),
                supply_up: (lvl + 1 < ladder.len()).then(|| ProcessingUnits(ladder[lvl + 1])),
                supply_down: (lvl > 0).then(|| ProcessingUnits(ladder[lvl - 1])),
                power: Watts(0.4 + 0.4 * lvl as f64),
            }
        }));
        obs.chip_power = Watts(obs.clusters.iter().map(|cl| cl.power.value()).sum());
        // Demand phases: ramp up mid-run, collapse late.
        for (i, task) in obs.tasks.iter_mut().enumerate() {
            let base = 40.0 + ((i * 17) % 120) as f64;
            let phase = if (30..70).contains(&round) {
                2.0
            } else if round >= 90 {
                0.3
            } else {
                1.0
            };
            task.demand = ProcessingUnits(base * phase);
        }
        // Churn: drop a task mid-run, orphan another briefly.
        if round == 50 {
            let gone = obs.tasks.remove(5);
            market.remove_task(gone.id);
        }
        if round == 60 {
            obs.tasks[7].core = CoreId(999);
        }
        if round == 62 {
            obs.tasks[7].core = CoreId(7 / t);
        }

        market.round_into(&obs, &mut out);
        for (cl, step) in &out.dvfs {
            match step {
                VfStep::Up => levels[cl.0] = (levels[cl.0] + 1).min(ladder.len() - 1),
                VfStep::Down => levels[cl.0] = levels[cl.0].saturating_sub(1),
            }
        }
        // The full decision, bit-exact: {:?} prints f64s losslessly enough
        // (shortest round-trip representation) to catch any divergence.
        trace.push_str(&format!("round {round}: {out:?}\n"));
    }
    trace
}

#[test]
fn decision_sequences_are_byte_identical_across_runs() {
    assert_eq!(market_trace(), market_trace());
}

#[test]
fn decision_sequences_are_hasher_independent() {
    // Each spawned thread gets fresh `RandomState` seeds for any std
    // HashMap it creates; if round results leaked map iteration order,
    // traces would diverge between threads. Run several to make a seed
    // collision astronomically unlikely.
    let reference = market_trace();
    let handles: Vec<_> = (0..4).map(|_| std::thread::spawn(market_trace)).collect();
    for h in handles {
        let trace = h.join().expect("trace thread");
        assert_eq!(
            reference, trace,
            "market decisions must not depend on the thread's hasher seeds"
        );
    }
}

#[test]
fn full_simulation_is_deterministic_across_threads() {
    let reference = fingerprint(0.0);
    let handles: Vec<_> = (0..2)
        .map(|_| std::thread::spawn(move || fingerprint(0.0)))
        .collect();
    for h in handles {
        assert_eq!(reference, h.join().expect("sim thread"));
    }
}

/// One comparative cell with the actuation tape on: the full e2e pipeline
/// (snapshot capture → manager plan → plan application → quantum execution)
/// reduced to bytes. `{:?}` on the summary and the rendered tape both print
/// floats in shortest round-trip form, so any divergence shows.
fn e2e_tape(scheme: ppm_bench::Scheme) -> (String, String) {
    let set = set_by_name("m2").expect("m2");
    let (summary, tape) =
        ppm_bench::run_workload_taped(&set, scheme, None, SimDuration::from_secs(10));
    (format!("{summary:?}"), tape)
}

/// A fully hardened run — faults injected from a pinned seed, auditor on,
/// tape on — reduced to bytes: summary, tape, auditor report, and the
/// fault counters.
fn faulted_tape(scheme: ppm_bench::Scheme, seed: u64) -> (String, String, String, String) {
    let set = set_by_name("m2").expect("m2");
    let run = ppm_bench::run_workload_hardened(
        &set,
        scheme,
        None,
        SimDuration::from_secs(10),
        ppm_bench::Harness {
            faults: Some(ppm::platform::faults::FaultConfig::with_seed(seed)),
            audit: true,
            tape: true,
            ..ppm_bench::Harness::default()
        },
    );
    (
        format!("{:?}", run.summary),
        run.tape,
        run.audit_report,
        format!("{:?}", run.fault_stats),
    )
}

#[test]
fn faulted_runs_are_identical_across_threads() {
    // The fault plan is itself a seeded stream: the same seed must perturb
    // the same readings and fail the same actuations on every thread, so
    // the tape, the auditor's report, and the fault counters all reduce to
    // the same bytes. This is what makes a fault-seed failure replayable.
    for scheme in ppm_bench::Scheme::ALL {
        let reference = faulted_tape(scheme, 0xA5);
        let handles: Vec<_> = (0..2)
            .map(|_| std::thread::spawn(move || faulted_tape(scheme, 0xA5)))
            .collect();
        for h in handles {
            let got = h.join().expect("faulted thread");
            assert_eq!(reference.0, got.0, "{} summary diverged", scheme.name());
            assert_eq!(reference.1, got.1, "{} tape diverged", scheme.name());
            assert_eq!(
                reference.2,
                got.2,
                "{} audit report diverged",
                scheme.name()
            );
            assert_eq!(reference.3, got.3, "{} fault stats diverged", scheme.name());
        }
        assert!(
            !reference.1.is_empty(),
            "{} recorded nothing",
            scheme.name()
        );
        // And a different seed must actually change the run, or the plan
        // is not really wired into the pipeline.
        let other = faulted_tape(scheme, 0xB7);
        assert_ne!(
            reference.1,
            other.1,
            "{} ignores the fault seed",
            scheme.name()
        );
    }
}

#[test]
fn e2e_actuation_tapes_are_identical_across_threads() {
    // Spawned threads get fresh hasher seeds (`RandomState` is per thread);
    // byte-identical tapes prove no scheme leaks hasher or thread state into
    // its decisions — a much stronger check than the metric fingerprints
    // above, since the tape holds every actuation of every quantum plus a
    // digest of every snapshot the decisions were computed from.
    for scheme in ppm_bench::Scheme::ALL {
        let reference = e2e_tape(scheme);
        let handles: Vec<_> = (0..2)
            .map(|_| std::thread::spawn(move || e2e_tape(scheme)))
            .collect();
        for h in handles {
            let got = h.join().expect("e2e thread");
            assert_eq!(reference.0, got.0, "{} summary diverged", scheme.name());
            assert_eq!(reference.1, got.1, "{} tape diverged", scheme.name());
        }
        assert!(
            !reference.1.is_empty(),
            "{} recorded no actuations in 10 s",
            scheme.name()
        );
    }
}

/// One open-loop cell — seeded request arrivals, per-request Weibull
/// service draws, queue dynamics, SLO pressure feeding the bids — reduced
/// to bytes.
fn openloop_tape() -> (String, String) {
    let set = ppm_bench::resolve_set("ol2").expect("ol2");
    let run = ppm_bench::run_workload_hardened(
        &set,
        ppm_bench::Scheme::Ppm,
        Some(Watts(4.0)),
        SimDuration::from_secs(8),
        ppm_bench::Harness {
            tape: true,
            ..ppm_bench::Harness::default()
        },
    );
    (format!("{:?}", run.summary), run.tape)
}

#[test]
fn openloop_runs_are_identical_across_threads() {
    // Request traffic adds three fresh nondeterminism hazards — arrival
    // sampling, service-demand sampling, and the pressure feedback loop —
    // and none may leak thread state into the trajectory: the same seed
    // must produce byte-identical tapes on every thread.
    let reference = openloop_tape();
    let got = std::thread::spawn(openloop_tape)
        .join()
        .expect("open-loop thread");
    assert_eq!(reference.0, got.0, "summary diverged across threads");
    assert_eq!(reference.1, got.1, "tape diverged across threads");
    assert!(!reference.1.is_empty(), "open-loop run recorded nothing");
}

#[test]
fn openloop_arrival_tapes_are_seeded_and_seed_sensitive() {
    use ppm::workload::{bursty_template, ArrivalProcess, OpenLoopFamily};
    let kind = bursty_template().arrivals;
    let a = ArrivalProcess::tape_digest(kind, OpenLoopFamily::PINNED_SEED, 256);
    let b = ArrivalProcess::tape_digest(kind, OpenLoopFamily::PINNED_SEED, 256);
    assert_eq!(a, b, "same seed must reproduce the same arrival tape");
    let c = ArrivalProcess::tape_digest(kind, OpenLoopFamily::PINNED_SEED ^ 1, 256);
    assert_ne!(a, c, "a different seed must change the arrival tape");
}

#[test]
fn openloop_family_seed_changes_the_whole_run() {
    use ppm::workload::{bursty_template, openloop_family};
    let tape = |seed: u64| {
        let set = openloop_family("olx", bursty_template(), seed);
        let (summary, tape) = ppm_bench::run_workload_taped(
            &set,
            ppm_bench::Scheme::Ppm,
            Some(Watts(4.0)),
            SimDuration::from_secs(6),
        );
        format!("{summary:?}\n{tape}")
    };
    assert_eq!(tape(11), tape(11), "same family seed must replay exactly");
    assert_ne!(
        tape(11),
        tape(12),
        "the family seed must actually steer arrivals and service draws"
    );
}
