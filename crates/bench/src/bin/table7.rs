//! Table 7: computational overhead of LBT for growing numbers of clusters
//! `V`, cores per cluster `C`, and tasks per core `T`, in two columns: the
//! paper's constrained-core scan, and the whole-chip pass the manager runs.
//!
//! §5.5 of the paper feeds randomly generated tasks (10–50 PU) to an A7
//! core at 350 MHz acting as the constrained core, with remote-cluster
//! supply/demand information for up to 256 clusters × 16 cores (maximum
//! supplies spread over 350–3000 PU), and measures the time per LBT
//! invocation (every 190 ms). Absolute times on this host are far below
//! the paper's 350 MHz in-order A7 (their worst case: 11.4 ms, 1 ms with
//! -O3); the *scaling shape* — near-linear in `T·V` with a `V·C` term —
//! is the reproduction target of the scan column.
//!
//! The pass column times `Lbt::decide_move` (migration, then load
//! balancing) on an `LbtSnapshot` of the same shape and task draws, built
//! as the manager builds one: every cluster at the level covering its
//! constrained core, with a profiled power model, and one retained `Lbt`
//! across calls. It does the scan's `T × V × M` work on every cluster's
//! constrained core, with `M` the `C·T` tasks of the destination cluster
//! that a candidate re-folds: at most `V²·C·T²`, reached when every demand
//! is met and every task of a constrained core is a mover.

use std::time::Instant;

use ppm_core::lbt::{
    constrained_core_scan, ClusterPowerProfile, ClusterSnapshot, CoreSnapshot, Lbt, LbtSnapshot,
    RemoteCluster, TaskSnapshot,
};
use ppm_platform::cluster::ClusterId;
use ppm_platform::core::{CoreClass, CoreId};
use ppm_platform::units::{Money, Price, ProcessingUnits, Watts};
use ppm_workload::generator::{ScalabilityWorkload, SyntheticTask};
use ppm_workload::perclass::PerClass;
use ppm_workload::task::TaskId;

/// A generated task as the LBT module sees it (big cores 1.8× faster).
fn task_snapshot(id: usize, s: SyntheticTask) -> TaskSnapshot {
    TaskSnapshot {
        id: TaskId(id),
        priority: s.priority,
        demand: PerClass::new(s.demand, s.demand * (1.0 / 1.8)),
        supply: s.supply,
        bid: s.bid,
    }
}

/// Cluster `i` of `v`: maximum supplies spread over 350–3000 PU, as in the
/// paper, on an 8-level ladder; LITTLE and big alternate.
fn ladder_of(i: usize, v: usize) -> (CoreClass, Vec<ProcessingUnits>) {
    let max = 350.0 + (i as f64 / v.max(1) as f64) * 2650.0;
    let ladder = (0..8)
        .map(|l| ProcessingUnits(max / 3.0 + (max - max / 3.0) * l as f64 / 7.0))
        .collect();
    let class = if i.is_multiple_of(2) {
        CoreClass::Little
    } else {
        CoreClass::Big
    };
    (class, ladder)
}

/// Build the disseminated state for one Table 7 configuration.
fn build(v: usize, c: usize, t: usize, seed: u64) -> (Vec<TaskSnapshot>, Vec<RemoteCluster>) {
    let mut gen = ScalabilityWorkload::new(seed);
    let tasks: Vec<TaskSnapshot> = gen
        .tasks(t)
        .into_iter()
        .enumerate()
        .map(|(i, s)| task_snapshot(i, s))
        .collect();
    let remotes: Vec<RemoteCluster> = (0..v)
        .map(|i| {
            let (class, ladder) = ladder_of(i, v);
            let max = ladder[7];
            let cores = gen
                .cluster_supplies(c, max)
                .into_iter()
                .map(|d| (d, 2u32 * t as u32))
                .collect();
            RemoteCluster {
                class,
                price: Price(0.005),
                level: 3,
                ladder,
                cores,
            }
        })
        .collect();
    (tasks, remotes)
}

/// Build the manager's view of a whole `v × c` chip with `t` generated
/// tasks per core: each cluster at the lowest level covering its
/// constrained core, priced at 0.005/PU, with a CMOS power profile over a
/// 0.90–1.25 V ramp (big cores 2.5× LITTLE's leakage and switching).
fn build_view(v: usize, c: usize, t: usize, seed: u64) -> LbtSnapshot {
    let mut gen = ScalabilityWorkload::new(seed);
    let mut next_task = 0;
    let clusters = (0..v)
        .map(|i| {
            let (class, ladder) = ladder_of(i, v);
            let cores: Vec<CoreSnapshot> = (0..c)
                .map(|k| CoreSnapshot {
                    id: CoreId(i * c + k),
                    tasks: gen
                        .tasks(t)
                        .into_iter()
                        .map(|s| {
                            next_task += 1;
                            task_snapshot(next_task - 1, s)
                        })
                        .collect(),
                })
                .collect();
            let constrained = cores
                .iter()
                .map(|core| core.total_demand(class))
                .fold(ProcessingUnits::ZERO, ProcessingUnits::max);
            let level = ladder
                .iter()
                .position(|&s| s >= constrained)
                .unwrap_or(ladder.len() - 1);
            let scale = if class == CoreClass::Big { 2.5 } else { 1.0 };
            let volts = |l: usize| 0.90 + 0.35 * l as f64 / 7.0;
            ClusterSnapshot {
                id: ClusterId(i),
                class,
                ladder,
                level,
                price: Price(0.005),
                power: ClusterPowerProfile {
                    idle: (0..8)
                        .map(|l| Watts(0.05 * scale + 0.02 * scale * c as f64 * volts(l)))
                        .collect(),
                    watts_per_pu: (0..8)
                        .map(|l| 0.0004 * scale * volts(l) * volts(l))
                        .collect(),
                },
                cores,
            }
        })
        .collect();
    LbtSnapshot {
        clusters,
        tolerance: 0.2,
        min_bid: Money(0.01),
        supply_capped: false,
    }
}

/// Batches timed per shape; the median is reported with the min–max spread.
/// On a shared host one batch can read up to ~40 % off its neighbours, and
/// 15 batches hold the median steady where 7 did not.
const BATCHES: usize = 15;
/// Shortest batch, so even a sub-microsecond call is timed over many calls.
const MIN_BATCH_SECS: f64 = 0.010;

/// Double `iters` until one batch of that many calls lasts
/// [`MIN_BATCH_SECS`] (which also warms the code and any retained state).
fn calibrate(mut batch: impl FnMut(u64) -> f64) -> u64 {
    let mut iters = 1;
    while batch(iters) < MIN_BATCH_SECS {
        iters *= 2;
    }
    iters
}

/// One Table 7 shape: its disseminated state, its whole-chip view, and
/// calls per timed batch of each.
struct Shape {
    tasks: Vec<TaskSnapshot>,
    remotes: Vec<RemoteCluster>,
    view: LbtSnapshot,
    lbt: Lbt,
    scan_iters: u64,
    pass_iters: u64,
}

impl Shape {
    /// Build the shape and calibrate both of its batches.
    fn new(v: usize, c: usize, t: usize) -> Shape {
        let (tasks, remotes) = build(v, c, t, 42);
        let mut shape = Shape {
            tasks,
            remotes,
            view: build_view(v, c, t, 42),
            lbt: Lbt::default(),
            scan_iters: 1,
            pass_iters: 1,
        };
        shape.scan_iters = calibrate(|iters| shape.scan_batch(iters));
        shape.pass_iters = calibrate(|iters| shape.pass_batch(iters));
        shape
    }

    /// Wall seconds of `iters` constrained-core scans.
    fn scan_batch(&self, iters: u64) -> f64 {
        let mut sink = Money::ZERO;
        let start = Instant::now();
        for _ in 0..iters {
            if let Some(r) = constrained_core_scan(&self.tasks, &self.remotes, 0.2) {
                sink += r.spend;
            }
        }
        std::hint::black_box(sink);
        start.elapsed().as_secs_f64()
    }

    /// Wall seconds of `iters` whole-chip passes.
    fn pass_batch(&mut self, iters: u64) -> f64 {
        let mut sink = Money::ZERO;
        let start = Instant::now();
        for _ in 0..iters {
            if let Some(m) = self.lbt.decide_move(&self.view, true) {
                sink += m.spend_delta;
            }
        }
        std::hint::black_box(sink);
        start.elapsed().as_secs_f64()
    }
}

/// `(median, min, max)` of `times`.
fn spread(times: &mut [f64]) -> (f64, f64, f64) {
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], times[0], times[times.len() - 1])
}

fn main() {
    println!("# Table 7 — LBT overhead");
    println!(
        "(host wall-clock per invocation; the paper's A7 @ 350 MHz reported 0.038-11.4 ms \
         for the constrained-core scan)\n"
    );
    println!(
        "| V | C | T | total tasks | scan median [ms] | scan vs 190 ms period | scan [min–max] [ms] \
         | pass median [ms] | pass vs 190 ms period | pass [min–max] [ms] |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let configs = [
        (2usize, 4usize, 8usize),
        (2, 4, 32),
        (4, 4, 8),
        (4, 4, 32),
        (16, 8, 8),
        (16, 8, 32),
        (16, 16, 8),
        (16, 16, 32),
        (256, 8, 8),
        (256, 8, 32),
        (256, 16, 8),
        (256, 16, 32),
    ];
    let mut shapes: Vec<Shape> = configs
        .iter()
        .map(|&(v, c, t)| Shape::new(v, c, t))
        .collect();
    // Interleave the batches (one of every shape per pass), so a change in
    // host speed during the run lands on every shape alike instead of
    // skewing the shapes timed while it lasted.
    let mut scan = vec![Vec::with_capacity(BATCHES); shapes.len()];
    let mut pass = vec![Vec::with_capacity(BATCHES); shapes.len()];
    for _ in 0..BATCHES {
        for (i, shape) in shapes.iter_mut().enumerate() {
            scan[i].push(shape.scan_batch(shape.scan_iters) * 1e3 / shape.scan_iters as f64);
            pass[i].push(shape.pass_batch(shape.pass_iters) * 1e3 / shape.pass_iters as f64);
        }
    }
    let mut scan_medians = Vec::with_capacity(shapes.len());
    let mut pass_medians = Vec::with_capacity(shapes.len());
    for (i, &(v, c, t)) in configs.iter().enumerate() {
        let (ms, min, max) = spread(&mut scan[i]);
        let (pass_ms, pass_min, pass_max) = spread(&mut pass[i]);
        scan_medians.push(ms);
        pass_medians.push(pass_ms);
        println!(
            "| {v} | {c} | {t} | {} | {ms:.4} | {:.3}% | [{min:.4}–{max:.4}] \
             | {pass_ms:.4} | {:.3}% | [{pass_min:.4}–{pass_max:.4}] |",
            v * c * t,
            ms / 190.0 * 100.0,
            pass_ms / 190.0 * 100.0,
        );
    }
    // Scaling shape, from the medians: the scan's largest configuration
    // should cost roughly (T·V) / (T·V) times the smallest, i.e. scale
    // near-linearly in T·V. The pass judges each mover of every constrained
    // core against V − 1 destinations, re-folding the C·T tasks of each:
    // at most V²·C·T² work, reached when every demand is met (otherwise
    // only the unsatisfied tasks move).
    let ratio = |medians: &[f64]| medians[medians.len() - 1] / medians[0].max(1e-9);
    let (small, large) = (configs[0], configs[configs.len() - 1]);
    let tv = |(v, _, t): (usize, usize, usize)| (t * v) as f64;
    let bound = |(v, c, t): (usize, usize, usize)| tv((v, c, t)).powi(2) * c as f64;
    println!(
        "\nscaling: largest/smallest time = {:.0}x for {:.0}x more T*V work \
         (near-linear is the expected shape)",
        ratio(&scan_medians),
        tv(large) / tv(small)
    );
    println!(
        "pass scaling: largest/smallest time = {:.0}x for at most {:.0}x more V^2*C*T^2 work",
        ratio(&pass_medians),
        bound(large) / bound(small)
    );
}
