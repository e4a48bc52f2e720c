//! Random task generation: the scalability study (Table 7) and calibrated
//! open-loop scenario families.
//!
//! §5.5 of the paper emulates large systems by feeding randomly generated
//! tasks ("supply and demands randomly chosen between 10–50 PUs") to the
//! constrained core, with per-cluster maximum supplies spread over
//! 350–3000 PU. This module reproduces that generator deterministically.
//!
//! It also grows the repro past fixed tables: [`openloop_family`] builds
//! calibrated open-loop workload sets by splitting a total utilization
//! across tasks with the classic UUniFast recurrence and varying each
//! task's per-request service demand with a mean-normalized Weibull, so
//! scenario *families* (same shape, any seed) replace one hand-written
//! Table 6 row.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ppm_platform::units::{Money, ProcessingUnits, SimDuration};

use crate::arrivals::ArrivalKind;
use crate::benchmarks::BenchmarkSpec;
use crate::heartbeat::HeartRateRange;
use crate::phase::Phase;
use crate::request::OpenLoopSpec;
use crate::sets::{WorkloadSet, TC2_LITTLE_CAPACITY};

/// Demand/bid snapshot of one emulated remote task, as disseminated to the
/// constrained core for LBT speculation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticTask {
    /// Priority `r_t`.
    pub priority: u32,
    /// Observed demand in PU.
    pub demand: ProcessingUnits,
    /// Observed supply in PU.
    pub supply: ProcessingUnits,
    /// Steady-state bid.
    pub bid: Money,
}

/// Deterministic generator of [`SyntheticTask`]s and cluster supply
/// snapshots, matching the §5.5 parameter ranges.
#[derive(Debug)]
pub struct ScalabilityWorkload {
    rng: StdRng,
}

impl ScalabilityWorkload {
    /// Paper parameter: smallest random supply/demand (PU).
    pub const MIN_PU: f64 = 10.0;
    /// Paper parameter: largest random supply/demand (PU).
    pub const MAX_PU: f64 = 50.0;

    /// A generator seeded for reproducibility.
    pub fn new(seed: u64) -> ScalabilityWorkload {
        ScalabilityWorkload {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generate one task with supply/demand in the paper's 10–50 PU range.
    pub fn task(&mut self) -> SyntheticTask {
        let demand = self.rng.gen_range(Self::MIN_PU..=Self::MAX_PU);
        let supply = self.rng.gen_range(Self::MIN_PU..=Self::MAX_PU);
        SyntheticTask {
            priority: self.rng.gen_range(1..=8),
            demand: ProcessingUnits(demand),
            supply: ProcessingUnits(supply),
            bid: Money(self.rng.gen_range(0.1..=2.0)),
        }
    }

    /// Generate `n` tasks.
    pub fn tasks(&mut self, n: usize) -> Vec<SyntheticTask> {
        (0..n).map(|_| self.task()).collect()
    }

    /// Per-core free supply snapshots for a remote cluster of `cores`
    /// cores whose top frequency is `max_supply`.
    pub fn cluster_supplies(
        &mut self,
        cores: usize,
        max_supply: ProcessingUnits,
    ) -> Vec<ProcessingUnits> {
        (0..cores)
            .map(|_| ProcessingUnits(self.rng.gen_range(0.0..=max_supply.value())))
            .collect()
    }
}

/// UUniFast [Bini & Buttazzo]: split `total` utilization across `n` tasks,
/// uniformly over the simplex of valid splits. The workhorse of calibrated
/// real-time task-set generation; deterministic for a given RNG state.
pub fn uunifast(rng: &mut StdRng, n: usize, total: f64) -> Vec<f64> {
    assert!(n > 0, "need at least one task");
    let mut utils = Vec::with_capacity(n);
    let mut sum = total;
    for i in 1..n {
        let next = sum * rng.gen_range(0.0..1.0_f64).powf(1.0 / (n - i) as f64);
        utils.push(sum - next);
        sum = next;
    }
    utils.push(sum);
    utils
}

/// The gamma function Γ(x) for positive `x`, via the Lanczos approximation
/// (g = 7, n = 9). Used to mean-normalize Weibull service-time draws:
/// `E[Weibull(k, scale)] = scale · Γ(1 + 1/k)`.
pub fn gamma(x: f64) -> f64 {
    assert!(x > 0.0, "gamma: positive arguments only");
    const G: f64 = 7.0;
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection for small arguments keeps the approximation accurate.
        return std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x));
    }
    let x = x - 1.0;
    let mut a = C[0];
    for (i, &c) in C.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
}

/// Parameters of one calibrated open-loop scenario family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopFamily {
    /// Tasks in the set.
    pub tasks: usize,
    /// Total utilization as a fraction of [`TC2_LITTLE_CAPACITY`]
    /// (UUniFast-split across the tasks).
    pub total_util: f64,
    /// Arrival shape template; per-task rates are scaled so each task's
    /// offered load matches its utilization share.
    pub arrivals: ArrivalKind,
    /// Mean service demand per request, in heartbeats.
    pub service_beats: f64,
    /// Weibull shape of the per-request service variation.
    pub weibull_shape: f64,
    /// p99 latency target shared by the family.
    pub slo: SimDuration,
}

impl OpenLoopFamily {
    /// Pinned seed of the named family sets (`ol1`/`ol2`/`ol3`), chosen
    /// once so goldens, benches, and CI smoke all replay the same tape.
    pub const PINNED_SEED: u64 = 0x0517;
}

/// Scale an arrival shape's rates by `k` (diurnal volume scales alike).
fn scale_arrivals(kind: ArrivalKind, k: f64) -> ArrivalKind {
    match kind {
        ArrivalKind::Poisson { rate } => ArrivalKind::Poisson { rate: rate * k },
        ArrivalKind::Bursty {
            base_rate,
            burst_rate,
            mean_on_s,
            mean_off_s,
        } => ArrivalKind::Bursty {
            base_rate: base_rate * k,
            burst_rate: burst_rate * k,
            mean_on_s,
            mean_off_s,
        },
        ArrivalKind::Diurnal {
            volume,
            period_s,
            depth,
        } => ArrivalKind::Diurnal {
            volume: volume * k,
            period_s,
            depth,
        },
    }
}

/// Per-task utilization ceiling: the SLO pressure can double a task's
/// demand, and even the doubled bid must fit a single LITTLE core
/// (`2 · UTIL_CAP · TC2_LITTLE_CAPACITY ≤ 1000 PU`), or the market has no
/// feasible allocation that drains the queue and the tail diverges.
const UTIL_CAP: f64 = 0.15;

/// Capacity-planning margin: arrivals offer `ARRIVAL_HEADROOM` of the
/// provisioned service rate, so at the nominal grant the queue runs at
/// utilization 0.5 — the steady-state tail sits comfortably below the SLO
/// and the pressure term only engages on bursts — instead of critically
/// loaded at 1.0, where the queue random-walks upward and p99 diverges no
/// matter how the market prices it. The pressure controller equilibrates
/// *at* the SLO (its floor is the provisioned rate), so the acceptance
/// bar `p99 ≤ SLO` is only meetable if the nominal point already meets
/// it with margin.
const ARRIVAL_HEADROOM: f64 = 0.5;

/// Clamp every share to `cap`, redistributing the excess across the
/// still-uncapped shares proportionally. Deterministic; preserves the sum
/// (callers assert feasibility: `sum ≤ n · cap`).
fn cap_shares(utils: &mut [f64], cap: f64) {
    for _ in 0..utils.len() {
        let excess: f64 = utils.iter().map(|u| (u - cap).max(0.0)).sum();
        if excess <= 1e-12 {
            return;
        }
        let room: f64 = utils.iter().filter(|u| **u < cap).map(|u| cap - u).sum();
        let scale = (excess / room).min(1.0);
        for u in utils.iter_mut() {
            if *u >= cap {
                *u = cap;
            } else {
                *u += (cap - *u) * scale;
            }
        }
    }
}

/// Build a calibrated open-loop workload set from `family` at `seed`.
///
/// UUniFast splits `total_util` of the LITTLE cluster across the tasks
/// (shares capped at `UTIL_CAP` = 0.15 so a pressure-doubled bid still
/// fits one LITTLE core); each task's heart-rate target is the beat
/// throughput its share provisions, and its mean arrival rate offers
/// `ARRIVAL_HEADROOM` = 0.5 of that service rate — which is how the unchanged
/// HPM/HL error terms and the Table 4 demand conversion keep working on
/// request traffic while the queue keeps the headroom a bounded tail
/// needs.
pub fn openloop_family(name: &str, family: OpenLoopFamily, seed: u64) -> WorkloadSet {
    assert!(family.total_util > 0.0, "need positive utilization");
    assert!(
        family.total_util <= family.tasks as f64 * UTIL_CAP,
        "total_util {} infeasible under the {UTIL_CAP} per-task cap with {} tasks",
        family.total_util,
        family.tasks
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut utils = uunifast(&mut rng, family.tasks, family.total_util);
    cap_shares(&mut utils, UTIL_CAP);
    let template_rate = family.arrivals.mean_rate();
    let members = utils
        .iter()
        .enumerate()
        .map(|(i, &u)| {
            let demand = ProcessingUnits(u * TC2_LITTLE_CAPACITY.value());
            // Offered beat rate at this utilization share. The demand/PU
            // identity `d = hr · cpb / 1e6` then fixes cycles-per-beat.
            let beat_rate = (20.0 + 180.0 * u / family.total_util).max(1.0);
            let rate = ARRIVAL_HEADROOM * beat_rate / family.service_beats;
            let spec = BenchmarkSpec::custom(
                HeartRateRange::new(beat_rate * 0.95, beat_rate * 1.05),
                demand,
                1.8,
                vec![Phase::new(f64::MAX, 1.0)],
                None,
            );
            let ol = OpenLoopSpec::new(
                scale_arrivals(family.arrivals, rate / template_rate),
                seed.wrapping_add(0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(i as u64 + 1)),
                family.service_beats,
                family.weibull_shape,
                family.slo,
            )
            // ~10-20 s of memory at these arrival rates: long enough for a
            // stable p99, short enough that the startup transient ages out
            // and the pressure term tracks the current tail.
            .with_window(128);
            spec.with_open_loop(ol)
        })
        .collect();
    WorkloadSet::from_specs(name, members)
}

/// The Poisson template behind `ol1`: 4 tasks at 55 % of the LITTLE
/// cluster, 1-beat mean service (≈15 ms at the provisioned beat rates),
/// Weibull shape 1.5, 250 ms p99 SLO. At utilization
/// `ARRIVAL_HEADROOM` = 0.5 the M/G/1 p99 sojourn is ≈9× the mean service
/// time — ~140 ms — so the SLO holds at the nominal grant and the
/// pressure term is reserved for bursts and diurnal peaks.
pub fn poisson_template() -> OpenLoopFamily {
    OpenLoopFamily {
        tasks: 4,
        total_util: 0.55,
        arrivals: ArrivalKind::Poisson { rate: 1.0 },
        service_beats: 1.0,
        weibull_shape: 1.5,
        slo: SimDuration::from_millis(250),
    }
}

/// The bursty on/off template behind `ol2`. Public so scaled-out scenarios
/// (the fleet open-loop builder, the V64/C8/T16 acceptance cell) rebuild
/// the same traffic shape at other task counts and seeds.
pub fn bursty_template() -> OpenLoopFamily {
    OpenLoopFamily {
        arrivals: ArrivalKind::Bursty {
            base_rate: 0.7,
            burst_rate: 2.2,
            mean_on_s: 0.5,
            mean_off_s: 2.0,
        },
        ..poisson_template()
    }
}

/// The diurnal template behind `ol3`: a 60 s pseudo-day at depth 0.6.
pub fn diurnal_template() -> OpenLoopFamily {
    OpenLoopFamily {
        arrivals: ArrivalKind::Diurnal {
            volume: 60.0,
            period_s: 60.0,
            depth: 0.6,
        },
        ..poisson_template()
    }
}

/// The three named open-loop scenario families at the pinned seed:
/// `ol1` Poisson, `ol2` bursty on/off, `ol3` diurnal. Light–medium by
/// construction (55 % of the LITTLE cluster) so the market has headroom to
/// price the tail rather than saturate.
pub fn openloop_sets() -> Vec<WorkloadSet> {
    vec![
        openloop_family("ol1", poisson_template(), OpenLoopFamily::PINNED_SEED),
        openloop_family("ol2", bursty_template(), OpenLoopFamily::PINNED_SEED),
        openloop_family("ol3", diurnal_template(), OpenLoopFamily::PINNED_SEED),
    ]
}

/// Look an open-loop family set up by name (`openloop` aliases `ol1`).
pub fn openloop_set_by_name(name: &str) -> Option<WorkloadSet> {
    let name = if name == "openloop" { "ol1" } else { name };
    openloop_sets().into_iter().find(|s| s.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = ScalabilityWorkload::new(7);
        let mut b = ScalabilityWorkload::new(7);
        assert_eq!(a.tasks(32), b.tasks(32));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ScalabilityWorkload::new(1);
        let mut b = ScalabilityWorkload::new(2);
        assert_ne!(a.tasks(8), b.tasks(8));
    }

    #[test]
    fn values_stay_in_paper_ranges() {
        let mut g = ScalabilityWorkload::new(42);
        for t in g.tasks(1000) {
            assert!(t.demand.value() >= 10.0 && t.demand.value() <= 50.0);
            assert!(t.supply.value() >= 10.0 && t.supply.value() <= 50.0);
            assert!(t.priority >= 1 && t.priority <= 8);
            assert!(t.bid.value() > 0.0);
        }
    }

    #[test]
    fn cluster_supplies_bounded_by_max() {
        let mut g = ScalabilityWorkload::new(3);
        let sup = g.cluster_supplies(16, ProcessingUnits(3000.0));
        assert_eq!(sup.len(), 16);
        assert!(sup.iter().all(|s| s.value() <= 3000.0));
    }

    #[test]
    fn uunifast_sums_to_total_and_stays_positive() {
        for seed in [1u64, 7, 165] {
            let mut rng = StdRng::seed_from_u64(seed);
            let u = uunifast(&mut rng, 16, 0.8);
            assert_eq!(u.len(), 16);
            let sum: f64 = u.iter().sum();
            assert!((sum - 0.8).abs() < 1e-12, "sum {sum}");
            assert!(u.iter().all(|&x| x > 0.0 && x < 0.8));
        }
    }

    #[test]
    fn gamma_matches_known_values() {
        // Γ(n) = (n-1)!, Γ(1/2) = √π, Γ(1.5) = √π/2.
        assert!((gamma(1.0) - 1.0).abs() < 1e-12);
        assert!((gamma(5.0) - 24.0).abs() < 1e-9);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
        assert!((gamma(1.5) - std::f64::consts::PI.sqrt() / 2.0).abs() < 1e-10);
    }

    #[test]
    fn openloop_family_calibrates_total_demand() {
        let sets = openloop_sets();
        assert_eq!(sets.len(), 3);
        for s in &sets {
            assert_eq!(s.members().len(), 4, "{}", s.name());
            // UUniFast calibration: total demand is 55 % of LITTLE capacity.
            let total = s.total_little_demand().value();
            assert!(
                (total - 0.55 * TC2_LITTLE_CAPACITY.value()).abs() < 1e-6,
                "{}: {total}",
                s.name()
            );
            for m in s.members() {
                let ol = m.open_loop().expect("open-loop spec attached");
                // Offered beat throughput is the provisioned heart-rate
                // target times the capacity-planning margin, so the Table 4
                // conversion prices request traffic with bounded-tail
                // headroom built in.
                let hr = m.target_range().target();
                assert!((ol.target_beat_rate() - ARRIVAL_HEADROOM * hr).abs() / hr < 1e-9);
                // No share escapes the per-task cap: even a pressure-doubled
                // bid fits a single LITTLE core.
                let d = m
                    .profiled_demand(ppm_platform::core::CoreClass::Little)
                    .value();
                assert!(d <= UTIL_CAP * TC2_LITTLE_CAPACITY.value() + 1e-6, "{d}");
            }
        }
    }

    #[test]
    fn openloop_family_is_deterministic_and_seed_sensitive() {
        let fam = OpenLoopFamily {
            tasks: 6,
            total_util: 0.5,
            arrivals: ArrivalKind::Poisson { rate: 1.0 },
            service_beats: 4.0,
            weibull_shape: 1.5,
            slo: SimDuration::from_millis(100),
        };
        let a = openloop_family("x", fam, 9);
        let b = openloop_family("x", fam, 9);
        let c = openloop_family("x", fam, 10);
        let demands = |s: &WorkloadSet| -> Vec<f64> {
            s.members()
                .iter()
                .map(|m| {
                    m.profiled_demand(ppm_platform::core::CoreClass::Little)
                        .value()
                })
                .collect()
        };
        assert_eq!(demands(&a), demands(&b));
        assert_ne!(demands(&a), demands(&c));
    }

    #[test]
    fn openloop_lookup_and_alias() {
        assert_eq!(
            openloop_set_by_name("openloop").expect("alias").name(),
            "ol1"
        );
        assert!(openloop_set_by_name("ol2").is_some());
        assert!(openloop_set_by_name("ol9").is_none());
    }
}
