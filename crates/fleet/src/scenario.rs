//! Canonical fleet scenarios for tests, benches, and the CLI.
//!
//! [`synthetic_fleet`] scales the Table 7 synthetic chip recipe across N
//! *heterogeneous* chips: every chip gets its own V-F ladder (a per-chip
//! speed grade scales the 350–3000 MHz spread), its own electricity price
//! (cheap sites near 0.8×, expensive near 1.3× the reference tariff), its
//! own workload mix, and optionally its own fault plan — exactly the
//! setting where the exchange has something to trade: equal-value chips at
//! unequal tariffs, and unequal-capability chips under one cap.

use ppm_core::config::PpmConfig;
use ppm_core::manager::{place_on_little, PpmManager};
use ppm_platform::chip::{Chip, ChipBuilder};
use ppm_platform::core::{CoreClass, CoreId};
use ppm_platform::faults::{FaultConfig, FaultPlan};
use ppm_platform::units::{MegaHertz, Watts};
use ppm_platform::vf::linear_table;
use ppm_sched::executor::{AllocationPolicy, Simulation, System};
use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
use ppm_workload::task::{Priority, Task, TaskId};

use crate::{ChipSpec, Fleet};

/// The benchmark mix a synthetic chip's tasks cycle through.
const MIX: [(Benchmark, Input); 3] = [
    (Benchmark::Blackscholes, Input::Large),
    (Benchmark::Swaptions, Input::Large),
    (Benchmark::Bodytrack, Input::Large),
];

/// A chip's physical peak: the sum of its cluster power envelopes.
pub fn chip_peak(chip: &Chip) -> Watts {
    chip.clusters()
        .iter()
        .map(|cl| chip.power_model().cluster_peak(cl))
        .sum()
}

/// The Table 7 synthetic chip with a per-chip speed grade: `grade` scales
/// every cluster's frequency spread, so a fleet mixes slow and fast silicon
/// of the same topology (`v` clusters × `c` cores, alternating classes).
pub fn graded_chip(v: usize, c: usize, grade: f64) -> Chip {
    let mut b = ChipBuilder::new();
    for i in 0..v {
        let class = if i % 2 == 0 {
            CoreClass::Little
        } else {
            CoreClass::Big
        };
        let max = ((350 + ((i * 2650) / v.max(1)) as u32) as f64 * grade) as u32;
        let lo = (max / 3).max(100);
        b = b.cluster(
            class,
            c,
            linear_table(MegaHertz(lo), MegaHertz(max.max(lo + 100)), 8),
        );
    }
    b.build()
}

/// Build an N-chip heterogeneous fleet: chip `i` gets speed grade
/// `0.75 + 0.5·i/(n−1)`, electricity price `0.8 + 0.5·i/(n−1)`, `t` tasks
/// cycling the PARSEC mix at priorities 1–3, an initial TDP at half its
/// physical peak, and (with `faults`) a per-chip re-seeded fault plan.
/// Every chip carries its own auditor and, when `cap` is given, the fleet
/// trades on a [`crate::FleetExchange`] with the exchange auditor attached.
///
/// Deterministic: same arguments, same fleet, bit-identical runs.
pub fn synthetic_fleet(
    chips: usize,
    v: usize,
    c: usize,
    t: usize,
    cap: Option<Watts>,
    faults: Option<FaultConfig>,
) -> Fleet<PpmManager> {
    graded_fleet(chips, v, c, cap, faults, |_, sys| {
        for k in 0..t {
            let (b, input) = MIX[k % MIX.len()];
            sys.add_task(
                Task::new(
                    TaskId(k),
                    BenchmarkSpec::of(b, input).expect("mix variant exists"),
                    Priority(1 + (k % 3) as u32),
                ),
                CoreId(0),
            );
        }
    })
}

/// Like [`synthetic_fleet`], but every chip serves **open-loop request
/// traffic**: chip `i` runs a `t`-task bursty on/off family (the `ol2`
/// shape) re-seeded per chip, so the exchange prices tail-latency risk
/// across sites instead of heart-rate slack. Chip grades, tariffs, TDP
/// bounds, auditors and per-chip fault re-seeding match
/// [`synthetic_fleet`] exactly.
///
/// Deterministic: same arguments, same fleet, bit-identical runs.
pub fn openloop_fleet(
    chips: usize,
    v: usize,
    c: usize,
    t: usize,
    cap: Option<Watts>,
    faults: Option<FaultConfig>,
) -> Fleet<PpmManager> {
    graded_fleet(chips, v, c, cap, faults, |i, sys| {
        let family = ppm_workload::OpenLoopFamily {
            tasks: t,
            ..ppm_workload::bursty_template()
        };
        let seed = ppm_workload::OpenLoopFamily::PINNED_SEED.wrapping_add(chip_salt(i));
        let set = ppm_workload::openloop_family("ol2-fleet", family, seed);
        for task in set.spawn(0, Priority::NORMAL) {
            sys.add_task(task, CoreId(0));
        }
    })
}

/// Per-chip seed offset, so chips never share a random stream.
fn chip_salt(i: usize) -> u64 {
    0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)
}

/// The scenario skeleton both builders share: graded chips, tariffs, TDP
/// bounds, auditors and per-chip fault re-seeding. `spawn` admits chip
/// `i`'s tasks, which [`place_on_little`] then places.
fn graded_fleet(
    chips: usize,
    v: usize,
    c: usize,
    cap: Option<Watts>,
    faults: Option<FaultConfig>,
    mut spawn: impl FnMut(usize, &mut System),
) -> Fleet<PpmManager> {
    assert!(chips > 0, "fleet needs at least one chip");
    let mut fleet = match cap {
        Some(w) => Fleet::new().with_exchange(w).with_fleet_auditor(),
        None => Fleet::new(),
    };
    for i in 0..chips {
        let spread = if chips > 1 {
            i as f64 / (chips - 1) as f64
        } else {
            0.0
        };
        let chip = graded_chip(v, c, 0.75 + 0.5 * spread);
        let peak = chip_peak(&chip);
        let mut sys = System::new(chip, AllocationPolicy::Market);
        spawn(i, &mut sys);
        place_on_little(&mut sys);
        let initial_tdp = peak * 0.5;
        let mut sim = Simulation::new(sys, PpmManager::new(PpmConfig::tc2_with_tdp(initial_tdp)))
            .with_auditor();
        if let Some(base) = &faults {
            let cfg = FaultConfig {
                seed: base.seed.wrapping_add(chip_salt(i)),
                ..base.clone()
            };
            sim = sim.with_faults(FaultPlan::new(cfg));
        }
        fleet.add_chip(
            sim,
            ChipSpec {
                electricity_price: 0.8 + 0.5 * spread,
                tdp_min: peak * 0.1,
                tdp_max: peak,
            },
        );
    }
    fleet
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_platform::units::SimDuration;

    #[test]
    fn heterogeneous_fleet_rebalances_toward_the_fast_cheap_chips() {
        // Three chips, slow/expensive → fast/cheap, trading under a cap
        // tight enough to bind. After a second of trading the cleared
        // allowances must diverge in the exchange's preferred direction.
        let mut fleet = synthetic_fleet(3, 4, 2, 6, Some(Watts(10.0)), None);
        fleet.run_for(SimDuration::from_secs(1));
        let ex = fleet.exchange().expect("exchange");
        let rec = ex.ledger().last().expect("traded");
        let u: Vec<f64> = rec.chips.iter().map(|ch| ch.utility).collect();
        let w: Vec<f64> = rec.chips.iter().map(|ch| ch.cleared_raw.value()).collect();
        // Raw clearings are ordered exactly like utilities.
        for i in 0..u.len() {
            for j in 0..u.len() {
                if u[i] > u[j] {
                    assert!(
                        w[i] > w[j],
                        "chip {i} (u {}) cleared {} <= chip {j} (u {}) {}",
                        u[i],
                        w[i],
                        u[j],
                        w[j]
                    );
                }
            }
        }
        let roll = fleet.audit_rollup();
        assert!(roll.is_clean(), "{}", roll.render());
    }

    #[test]
    fn faulted_fleet_stays_auditor_clean() {
        let mut fleet = synthetic_fleet(
            2,
            4,
            2,
            4,
            Some(Watts(8.0)),
            Some(FaultConfig::with_seed(165)),
        );
        fleet.run_for(SimDuration::from_millis(500));
        let roll = fleet.audit_rollup();
        assert!(roll.is_clean(), "{}", roll.render());
        // Both chips actually drew from distinct fault streams.
        let s0 = fleet.chip(0).sim().faults().expect("faults").stats();
        let s1 = fleet.chip(1).sim().faults().expect("faults").stats();
        assert_ne!(format!("{s0:?}"), format!("{s1:?}"));
    }

    #[test]
    fn lone_chip_fleet_is_deterministic() {
        let run = || {
            let mut fleet = synthetic_fleet(1, 4, 2, 4, Some(Watts(6.0)), None);
            fleet.run_for(SimDuration::from_millis(300));
            fleet.exchange().expect("exchange").render_ledger()
        };
        assert_eq!(run(), run());
    }

    /// FNV-1a (64-bit) over `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Both scenario builders are pinned by the ledger a faulted 2-chip
    /// fleet trades over 500 ms: chip grades, tariffs, TDP bounds, the
    /// auditors and the per-chip fault re-seeding all feed the clearing,
    /// so any drift in what the builders set up moves these digests.
    #[test]
    fn scenario_ledgers_are_pinned() {
        type Build =
            fn(usize, usize, usize, usize, Option<Watts>, Option<FaultConfig>) -> Fleet<PpmManager>;
        let cases: [(&str, Build, u64); 2] = [
            (
                "synthetic_fleet",
                synthetic_fleet,
                15_013_569_792_691_458_552,
            ),
            ("openloop_fleet", openloop_fleet, 17_704_937_232_857_652_028),
        ];
        for (name, build, digest) in cases {
            let mut fleet = build(
                2,
                4,
                2,
                4,
                Some(Watts(8.0)),
                Some(FaultConfig::with_seed(165)),
            );
            fleet.run_for(SimDuration::from_millis(500));
            let ledger = fleet.exchange().expect("exchange").render_ledger();
            assert_eq!(ledger.lines().count(), 5, "{name}");
            assert_eq!(
                fnv1a(ledger.as_bytes()),
                digest,
                "{name} ledger drifted:\n{ledger}"
            );
        }
    }

    #[test]
    fn openloop_fleet_trades_and_stays_clean() {
        let mut fleet = openloop_fleet(2, 4, 2, 4, Some(Watts(8.0)), None);
        fleet.run_for(SimDuration::from_millis(500));
        let roll = fleet.audit_rollup();
        assert!(roll.is_clean(), "{}", roll.render());
        // The chips really are serving requests, not heartbeat loops.
        let sys = fleet.chip(0).sim().system();
        assert!(sys.task_iter().all(|id| sys.task(id).open_loop().is_some()));
    }

    #[test]
    #[ignore = "large: 256 chips x 64 clusters x 8 cores; run in release"]
    fn large_fleet_epoch_is_auditor_clean() {
        // The acceptance-scale configuration: one full trading epoch over
        // 256 V64/C8 chips with 16 tasks each, books closed to 1e-9.
        let mut fleet = synthetic_fleet(256, 64, 8, 16, Some(Watts(4000.0)), None);
        fleet = fleet.with_threads(std::thread::available_parallelism().map_or(1, |n| n.get()));
        fleet.run_for(Fleet::<PpmManager>::DEFAULT_EPOCH);
        let ex = fleet.exchange().expect("exchange");
        assert_eq!(ex.epochs(), 1);
        let roll = fleet.audit_rollup();
        assert!(roll.is_clean(), "{}", roll.render());
    }
}
