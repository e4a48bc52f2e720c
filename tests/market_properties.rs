//! Property-based tests on the market's §3.2 invariants, driven by random
//! task populations, demand trajectories, and power curves.

use proptest::prelude::*;

use ppm::core::config::PpmConfig;
use ppm::core::market::{ClusterObs, CoreObs, Market, MarketObs, TaskObs, VfStep};
use ppm::core::PowerState;
use ppm::platform::cluster::ClusterId;
use ppm::platform::core::CoreId;
use ppm::platform::units::{Money, ProcessingUnits, Watts};
use ppm::workload::task::TaskId;

/// A miniature chip: `clusters` clusters × 2 cores, tasks spread
/// round-robin, supplies from a fixed ladder per cluster.
#[derive(Debug, Clone)]
struct World {
    clusters: usize,
    levels: Vec<usize>,
    ladder: Vec<f64>,
    priorities: Vec<u32>,
    demands: Vec<f64>,
}

impl World {
    fn obs(&self) -> MarketObs {
        let cores: Vec<CoreObs> = (0..self.clusters * 2)
            .map(|i| CoreObs {
                id: CoreId(i),
                cluster: ClusterId(i / 2),
            })
            .collect();
        let tasks: Vec<TaskObs> = self
            .demands
            .iter()
            .enumerate()
            .map(|(i, &d)| TaskObs {
                id: TaskId(i),
                core: CoreId(i % (self.clusters * 2)),
                priority: self.priorities[i],
                demand: ProcessingUnits(d),
            })
            .collect();
        let power_per_cluster = 0.8;
        let clusters: Vec<ClusterObs> = (0..self.clusters)
            .map(|c| {
                let l = self.levels[c];
                ClusterObs {
                    id: ClusterId(c),
                    supply: ProcessingUnits(self.ladder[l]),
                    supply_up: self.ladder.get(l + 1).map(|&s| ProcessingUnits(s)),
                    supply_down: (l > 0).then(|| ProcessingUnits(self.ladder[l - 1])),
                    power: Watts(power_per_cluster),
                }
            })
            .collect();
        MarketObs {
            chip_power: Watts(power_per_cluster * self.clusters as f64),
            tasks,
            cores,
            clusters,
        }
    }

    fn apply(&mut self, decision: &ppm::core::MarketDecision) {
        for &(cl, step) in &decision.dvfs {
            match step {
                VfStep::Up => {
                    self.levels[cl.0] = (self.levels[cl.0] + 1).min(self.ladder.len() - 1)
                }
                VfStep::Down => self.levels[cl.0] = self.levels[cl.0].saturating_sub(1),
            }
        }
    }
}

fn world_strategy() -> impl Strategy<Value = World> {
    (1usize..=3, 2usize..=8).prop_flat_map(|(clusters, tasks)| {
        (
            proptest::collection::vec(1u32..=8, tasks),
            proptest::collection::vec(20.0f64..900.0, tasks),
        )
            .prop_map(move |(priorities, demands)| World {
                clusters,
                levels: vec![0; clusters],
                ladder: vec![300.0, 400.0, 500.0, 700.0, 1000.0],
                priorities,
                demands,
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Price discovery sells exactly the core supply: on every core with at
    /// least one bidder, Σ s_t equals S_c.
    #[test]
    fn purchases_exhaust_each_core(world in world_strategy(), rounds in 1usize..30) {
        let mut w = world;
        let mut market = Market::new(PpmConfig::tc2());
        for _ in 0..rounds {
            let obs = w.obs();
            let d = market.round(&obs);
            // Group shares per core and compare against that core's supply.
            for core in 0..w.clusters * 2 {
                let total: f64 = d
                    .shares
                    .iter()
                    .filter(|(t, _)| t.0 % (w.clusters * 2) == core)
                    .map(|(_, s)| s.value())
                    .sum();
                if total > 0.0 {
                    let supply = w.ladder[w.levels[core / 2]];
                    prop_assert!((total - supply).abs() < 1e-6,
                        "core {core}: sold {total} of {supply}");
                }
            }
            w.apply(&d);
        }
    }

    /// Bids stay within [b_min, allowance + savings]; savings never go
    /// negative and never exceed the configured cap.
    #[test]
    fn money_invariants_hold(world in world_strategy(), rounds in 1usize..40) {
        let mut w = world;
        let config = PpmConfig::tc2();
        let cap = config.savings_cap_factor;
        let min_bid = config.min_bid;
        let mut market = Market::new(config);
        for _ in 0..rounds {
            let d = market.round(&w.obs());
            for t in &d.tasks {
                prop_assert!(t.bid >= min_bid * (1.0 - 1e-9), "bid {} below floor", t.bid);
                prop_assert!(t.savings >= Money::ZERO);
                prop_assert!(
                    t.savings.value() <= cap * t.allowance.value() + 1e-6,
                    "savings {} exceed cap at allowance {}", t.savings, t.allowance
                );
            }
            w.apply(&d);
        }
    }

    /// The distributed allowances sum to the global allowance A (no money
    /// leaks in the hierarchy), as long as every cluster hosts tasks.
    #[test]
    fn allowance_distribution_conserves_money(world in world_strategy()) {
        let mut w = world;
        // Make sure every cluster has at least one task: round-robin already
        // guarantees it when tasks >= cores; otherwise shrink the chip.
        if w.demands.len() < w.clusters * 2 {
            w.clusters = 1;
            w.levels = vec![0];
        }
        let mut market = Market::new(PpmConfig::tc2());
        let d0 = market.round(&w.obs());
        let previous_allowance = market.allowance().expect("initialised");
        let _ = d0;
        let d = market.round(&w.obs());
        let distributed: Money = d.tasks.iter().map(|t| t.allowance).sum();
        prop_assert!(
            (distributed.value() - previous_allowance.value()).abs()
                <= previous_allowance.value() * 1e-6 + 1e-9,
            "distributed {} of {}", distributed, previous_allowance
        );
    }

    /// With constant demand the market reaches a fixed point: no V-F
    /// requests and stable prices in the tail (§3.2.4 stability).
    #[test]
    fn constant_demand_converges(world in world_strategy()) {
        let mut w = world;
        let mut market = Market::new(PpmConfig::tc2());
        let mut last_dvfs_round = 0;
        for round in 0..200usize {
            let d = market.round(&w.obs());
            if !d.dvfs.is_empty() {
                last_dvfs_round = round;
            }
            w.apply(&d);
        }
        prop_assert!(
            last_dvfs_round < 150,
            "market still switching V-F levels at round {last_dvfs_round}"
        );
    }

    /// The chip agent's state classification matches the configured bands.
    #[test]
    fn state_tracks_power_bands(power in 0.0f64..12.0) {
        let config = PpmConfig::tc2(); // Wth 7, Wtdp 8
        let state = PowerState::classify(Watts(power), &config);
        if power > 8.0 {
            prop_assert_eq!(state, PowerState::Emergency);
        } else if power >= 7.0 {
            prop_assert_eq!(state, PowerState::Threshold);
        } else {
            prop_assert_eq!(state, PowerState::Normal);
        }
    }
}
