//! Table 7: computational overhead of the constrained-core LBT scan for
//! growing numbers of clusters `V`, cores per cluster `C`, and tasks per
//! core `T`.
//!
//! §5.5 of the paper feeds randomly generated tasks (10–50 PU) to an A7
//! core at 350 MHz acting as the constrained core, with remote-cluster
//! supply/demand information for up to 256 clusters × 16 cores (maximum
//! supplies spread over 350–3000 PU), and measures the time per LBT
//! invocation (every 190 ms). Absolute times on this host are far below
//! the paper's 350 MHz in-order A7 (their worst case: 11.4 ms, 1 ms with
//! -O3); the *scaling shape* — near-linear in `T·V` with a `V·C` term —
//! is the reproduction target.

use std::time::Instant;

use ppm_core::lbt::{constrained_core_scan, RemoteCluster, TaskSnapshot};
use ppm_platform::core::CoreClass;
use ppm_platform::units::{Money, Price, ProcessingUnits};
use ppm_workload::generator::ScalabilityWorkload;
use ppm_workload::perclass::PerClass;
use ppm_workload::task::TaskId;

/// Build the disseminated state for one Table 7 configuration.
fn build(v: usize, c: usize, t: usize, seed: u64) -> (Vec<TaskSnapshot>, Vec<RemoteCluster>) {
    let mut gen = ScalabilityWorkload::new(seed);
    let tasks: Vec<TaskSnapshot> = gen
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
    let remotes: Vec<RemoteCluster> = (0..v)
        .map(|i| {
            // Maximum supplies spread over 350–3000 PU, as in the paper.
            let max = 350.0 + (i as f64 / v.max(1) as f64) * 2650.0;
            let ladder: Vec<ProcessingUnits> = (0..8)
                .map(|l| ProcessingUnits(max / 3.0 + (max - max / 3.0) * l as f64 / 7.0))
                .collect();
            let cores = gen
                .cluster_supplies(c, ProcessingUnits(max))
                .into_iter()
                .map(|d| (d, 2u32 * t as u32))
                .collect();
            RemoteCluster {
                class: if i % 2 == 0 {
                    CoreClass::Little
                } else {
                    CoreClass::Big
                },
                price: Price(0.005),
                level: 3,
                ladder,
                cores,
            }
        })
        .collect();
    (tasks, remotes)
}

/// Batches timed per shape; the median is reported with the min–max spread.
/// On a shared host one batch can read up to ~40 % off its neighbours, and
/// 15 batches hold the median steady where 7 did not.
const BATCHES: usize = 15;
/// Shortest batch, so even a sub-microsecond call is timed over many calls.
const MIN_BATCH_SECS: f64 = 0.010;

/// One Table 7 shape: its disseminated state and calls per timed batch.
struct Shape {
    tasks: Vec<TaskSnapshot>,
    remotes: Vec<RemoteCluster>,
    iters: u64,
}

impl Shape {
    /// Build the shape and calibrate (and warm up) its batch: double the
    /// calls until one batch lasts [`MIN_BATCH_SECS`].
    fn new(v: usize, c: usize, t: usize) -> Shape {
        let (tasks, remotes) = build(v, c, t, 42);
        let mut shape = Shape {
            tasks,
            remotes,
            iters: 1,
        };
        while shape.batch() < MIN_BATCH_SECS {
            shape.iters *= 2;
        }
        shape
    }

    /// Wall seconds of one batch of `iters` scans.
    fn batch(&self) -> f64 {
        let mut sink = Money::ZERO;
        let start = Instant::now();
        for _ in 0..self.iters {
            if let Some(r) = constrained_core_scan(&self.tasks, &self.remotes, 0.2) {
                sink += r.spend;
            }
        }
        std::hint::black_box(sink);
        start.elapsed().as_secs_f64()
    }
}

fn main() {
    println!("# Table 7 — LBT overhead in the constrained core");
    println!("(host wall-clock; the paper's A7 @ 350 MHz reported 0.038-11.4 ms)\n");
    println!(
        "| V | C | T | total tasks | median overhead [ms] | overhead vs 190 ms period | [min–max] [ms] |"
    );
    println!("|---|---|---|---|---|---|---|");
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
    let shapes: Vec<Shape> = configs
        .iter()
        .map(|&(v, c, t)| Shape::new(v, c, t))
        .collect();
    // Interleave the batches (one of every shape per pass), so a change in
    // host speed during the run lands on every shape alike instead of
    // skewing the shapes timed while it lasted.
    let mut per_call = vec![Vec::with_capacity(BATCHES); shapes.len()];
    for _ in 0..BATCHES {
        for (shape, times) in shapes.iter().zip(&mut per_call) {
            times.push(shape.batch() * 1e3 / shape.iters as f64);
        }
    }
    let mut medians = Vec::with_capacity(shapes.len());
    for (&(v, c, t), times) in configs.iter().zip(&mut per_call) {
        times.sort_by(f64::total_cmp);
        let (ms, min, max) = (times[BATCHES / 2], times[0], times[BATCHES - 1]);
        medians.push(ms);
        println!(
            "| {v} | {c} | {t} | {} | {ms:.4} | {:.3}% | [{min:.4}–{max:.4}] |",
            v * c * t,
            ms / 190.0 * 100.0
        );
    }
    // Scaling shape, from the medians: the largest configuration should
    // cost roughly (T·V) / (T·V) times the smallest, i.e. scale
    // near-linearly in T·V.
    let (small, large) = (medians[0], medians[medians.len() - 1]);
    let work_ratio = (32.0 * 256.0) / (8.0 * 2.0);
    println!(
        "\nscaling: largest/smallest time = {:.0}x for {:.0}x more T*V work \
         (near-linear is the expected shape)",
        large / small.max(1e-9),
        work_ratio
    );
}
