//! Supply-demand module cost: one full bidding round (allowance
//! distribution, Eq. 1 bids, price discovery, purchases, cluster and chip
//! agents) at growing task counts. The paper reports this cost as
//! negligible next to the LBT module; this bench quantifies it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ppm_core::config::PpmConfig;
use ppm_core::market::{ClusterObs, CoreObs, Market, MarketDecision, MarketObs, TaskObs};
use ppm_platform::cluster::ClusterId;
use ppm_platform::core::CoreId;
use ppm_platform::units::{ProcessingUnits, Watts};
use ppm_workload::generator::ScalabilityWorkload;
use ppm_workload::task::TaskId;

/// An observation snapshot with `clusters` clusters × `cores` cores ×
/// `tasks` tasks per core.
fn obs(clusters: usize, cores: usize, tasks: usize) -> MarketObs {
    let mut gen = ScalabilityWorkload::new(11);
    let mut task_list = Vec::new();
    let mut core_list = Vec::new();
    for cl in 0..clusters {
        for co in 0..cores {
            let core = CoreId(cl * cores + co);
            core_list.push(CoreObs {
                id: core,
                cluster: ClusterId(cl),
            });
            for _ in 0..tasks {
                let t = gen.task();
                task_list.push(TaskObs {
                    id: TaskId(task_list.len()),
                    core,
                    priority: t.priority,
                    demand: t.demand,
                });
            }
        }
    }
    MarketObs {
        chip_power: Watts(2.0),
        tasks: task_list,
        cores: core_list,
        clusters: (0..clusters)
            .map(|cl| ClusterObs {
                id: ClusterId(cl),
                supply: ProcessingUnits(600.0),
                supply_up: Some(ProcessingUnits(700.0)),
                supply_down: Some(ProcessingUnits(500.0)),
                power: Watts(2.0 / clusters as f64),
            })
            .collect(),
    }
}

/// The allocating wrapper (fresh decision per call), small grids.
fn bench_round(cr: &mut Criterion) {
    let mut group = cr.benchmark_group("supply_demand/round");
    for (clusters, cores, tasks) in [(2usize, 3usize, 2usize), (4, 4, 8), (16, 8, 8)] {
        let snapshot = obs(clusters, cores, tasks);
        let total = clusters * cores * tasks;
        group.throughput(Throughput::Elements(total as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{total}tasks")),
            &snapshot,
            |b, snapshot| {
                let mut market = Market::new(PpmConfig::tc2());
                b.iter(|| market.round(snapshot));
            },
        );
    }
    group.finish();
}

/// The zero-allocation entry point over the paper's §5.5 grid, up to 256
/// clusters.
fn bench_round_into(cr: &mut Criterion) {
    let mut group = cr.benchmark_group("supply_demand/round_into");
    for (clusters, cores, tasks) in [
        (2usize, 3usize, 2usize),
        (4, 4, 8),
        (16, 8, 8),
        (64, 8, 16),
        (256, 8, 32),
        (256, 16, 32),
    ] {
        let snapshot = obs(clusters, cores, tasks);
        let total = clusters * cores * tasks;
        group.throughput(Throughput::Elements(total as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("V{clusters}_C{cores}_T{tasks}")),
            &snapshot,
            |b, snapshot| {
                let mut market = Market::new(PpmConfig::tc2());
                let mut out = MarketDecision::default();
                // Warm the scratch arenas so the loop measures steady state.
                for _ in 0..3 {
                    market.round_into(snapshot, &mut out, None);
                }
                b.iter(|| market.round_into(snapshot, &mut out, None));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_round, bench_round_into);
criterion_main!(benches);
