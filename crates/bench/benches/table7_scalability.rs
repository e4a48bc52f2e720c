//! Criterion version of Table 7: LBT constrained-core scan cost across the
//! paper's (V clusters × C cores × T tasks) grid.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ppm_core::lbt::{constrained_core_scan, RemoteCluster, TaskSnapshot};
use ppm_platform::core::CoreClass;
use ppm_platform::units::{Money, Price, ProcessingUnits};
use ppm_workload::generator::ScalabilityWorkload;
use ppm_workload::perclass::PerClass;
use ppm_workload::task::TaskId;

fn build(v: usize, c: usize, t: usize) -> (Vec<TaskSnapshot>, Vec<RemoteCluster>) {
    let mut gen = ScalabilityWorkload::new(7);
    let tasks = gen
        .tasks(t)
        .into_iter()
        .enumerate()
        .map(|(i, s)| TaskSnapshot {
            id: TaskId(i),
            priority: s.priority,
            demand: PerClass::new(s.demand, s.demand * (1.0 / 1.8)),
            supply: s.supply,
            bid: s.bid,
        })
        .collect();
    let remotes = (0..v)
        .map(|i| {
            let max = 350.0 + (i as f64 / v.max(1) as f64) * 2650.0;
            RemoteCluster {
                class: if i % 2 == 0 {
                    CoreClass::Little
                } else {
                    CoreClass::Big
                },
                price: Price(0.005),
                level: 3,
                ladder: (0..8)
                    .map(|l| ProcessingUnits(max / 3.0 + (max * 2.0 / 3.0) * l as f64 / 7.0))
                    .collect(),
                cores: gen
                    .cluster_supplies(c, ProcessingUnits(max))
                    .into_iter()
                    .map(|d| (d, 2))
                    .collect(),
            }
        })
        .collect();
    (tasks, remotes)
}

fn bench_scan(cr: &mut Criterion) {
    let mut group = cr.benchmark_group("table7/lbt_scan");
    for (v, c, t) in [
        (2usize, 4usize, 8usize),
        (4, 4, 32),
        (16, 8, 32),
        (16, 16, 32),
        (256, 8, 32),
        (256, 16, 32),
    ] {
        let (tasks, remotes) = build(v, c, t);
        group.throughput(Throughput::Elements((t * v) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("V{v}_C{c}_T{t}")),
            &(tasks, remotes),
            |b, (tasks, remotes)| {
                b.iter(|| constrained_core_scan(tasks, remotes, 0.2));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_scan);

mod full_decide {
    use super::*;
    use criterion::Criterion;
    use ppm_core::lbt::{
        decide_load_balance, decide_migration, ClusterPowerProfile, ClusterSnapshot, CoreSnapshot,
        LbtSnapshot,
    };
    use ppm_platform::cluster::ClusterId;
    use ppm_platform::core::CoreId;
    use ppm_platform::units::Watts;

    /// A TC2-shaped full snapshot (what the live manager evaluates).
    pub fn tc2_snapshot() -> LbtSnapshot {
        let mut gen = ScalabilityWorkload::new(3);
        let mk_tasks = |gen: &mut ScalabilityWorkload, n: usize, base: usize| {
            gen.tasks(n)
                .into_iter()
                .enumerate()
                .map(|(i, s)| TaskSnapshot {
                    id: TaskId(base + i),
                    priority: s.priority,
                    demand: PerClass::new(s.demand * 10.0, s.demand * 5.5),
                    supply: s.supply * 10.0,
                    bid: s.bid,
                })
                .collect::<Vec<_>>()
        };
        let profile = |n: f64, uncore: f64, leak: f64, dyn_c: f64| ClusterPowerProfile {
            idle: (0..8)
                .map(|l| Watts(uncore + n * leak * (0.9 + 0.05 * l as f64)))
                .collect(),
            watts_per_pu: (0..8)
                .map(|l| dyn_c * (0.9_f64 + 0.05 * l as f64).powi(2))
                .collect(),
        };
        LbtSnapshot {
            clusters: vec![
                ClusterSnapshot {
                    id: ClusterId(0),
                    class: CoreClass::Little,
                    ladder: (0..8)
                        .map(|l| ProcessingUnits(350.0 + 92.9 * l as f64))
                        .collect(),
                    level: 3,
                    price: Price(0.004),
                    power: profile(3.0, 0.05, 0.02, 0.0004),
                    cores: (0..3)
                        .map(|i| CoreSnapshot {
                            id: CoreId(i),
                            tasks: mk_tasks(&mut gen, 2, i * 2),
                        })
                        .collect(),
                },
                ClusterSnapshot {
                    id: ClusterId(1),
                    class: CoreClass::Big,
                    ladder: (0..8)
                        .map(|l| ProcessingUnits(500.0 + 100.0 * l as f64))
                        .collect(),
                    level: 2,
                    price: Price(0.006),
                    power: profile(2.0, 0.125, 0.1, 0.0015),
                    cores: (0..2)
                        .map(|i| CoreSnapshot {
                            id: CoreId(3 + i),
                            tasks: mk_tasks(&mut gen, 1, 6 + i),
                        })
                        .collect(),
                },
            ],
            tolerance: 0.2,
            min_bid: Money(0.01),
            supply_capped: false,
        }
    }

    pub fn bench(cr: &mut Criterion) {
        let snapshot = tc2_snapshot();
        let mut group = cr.benchmark_group("lbt/full_decide_tc2");
        group.bench_function("migration", |b| b.iter(|| decide_migration(&snapshot)));
        group.bench_function("load_balance", |b| {
            b.iter(|| decide_load_balance(&snapshot))
        });
        group.finish();
    }
}

mod market_full {
    use super::*;
    use criterion::Criterion;
    use ppm_core::config::PpmConfig;
    use ppm_core::market::{ClusterObs, CoreObs, Market, MarketDecision, MarketObs, TaskObs};
    use ppm_platform::cluster::ClusterId;
    use ppm_platform::core::CoreId;
    use ppm_platform::units::Watts;

    fn obs(v: usize, c: usize, t: usize) -> MarketObs {
        let mut gen = ScalabilityWorkload::new(11);
        let mut tasks = Vec::new();
        let mut cores = Vec::new();
        for cl in 0..v {
            for co in 0..c {
                let core = CoreId(cl * c + co);
                cores.push(CoreObs {
                    id: core,
                    cluster: ClusterId(cl),
                });
                for _ in 0..t {
                    let s = gen.task();
                    tasks.push(TaskObs {
                        id: TaskId(tasks.len()),
                        core,
                        priority: s.priority,
                        demand: s.demand,
                    });
                }
            }
        }
        MarketObs {
            chip_power: Watts(2.0),
            tasks,
            cores,
            clusters: (0..v)
                .map(|cl| ClusterObs {
                    id: ClusterId(cl),
                    supply: ProcessingUnits(600.0),
                    supply_up: Some(ProcessingUnits(700.0)),
                    supply_down: Some(ProcessingUnits(500.0)),
                    power: Watts(2.0 / v as f64),
                })
                .collect(),
        }
    }

    /// The other half of Table 7: the supply-demand module's full round at
    /// the same (V, C, T) grid as the LBT scan, up to 256 clusters.
    pub fn bench(cr: &mut Criterion) {
        let mut group = cr.benchmark_group("table7/market_round");
        for (v, c, t) in [
            (2usize, 4usize, 8usize),
            (4, 4, 32),
            (16, 8, 32),
            (16, 16, 32),
            (256, 8, 32),
            (256, 16, 32),
        ] {
            let snapshot = obs(v, c, t);
            group.throughput(Throughput::Elements(snapshot.tasks.len() as u64));
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("V{v}_C{c}_T{t}")),
                &snapshot,
                |b, snapshot| {
                    let mut market = Market::new(PpmConfig::tc2());
                    let mut out = MarketDecision::default();
                    for _ in 0..3 {
                        market.round_into(snapshot, &mut out, None);
                    }
                    b.iter(|| market.round_into(snapshot, &mut out, None));
                },
            );
        }
        group.finish();
    }
}

criterion_group!(full, full_decide::bench);
criterion_group!(market, market_full::bench);
criterion_main!(benches, full, market);
