//! Property-based tests on the full LBT decision procedures over random
//! system snapshots: no panics, every proposed move references a real task
//! and a real destination core, and the decisions over a seeded set are
//! pinned by digest.

use proptest::prelude::*;

use ppm::core::lbt::{
    decide_load_balance, decide_migration, decide_move, estimate_cluster, ClusterPowerProfile,
    ClusterSnapshot, CoreSnapshot, LbtSnapshot, PerfChange, TaskSnapshot,
};
use ppm::platform::cluster::ClusterId;
use ppm::platform::core::{CoreClass, CoreId};
use ppm::platform::units::{Money, Price, ProcessingUnits, Watts};
use ppm::workload::perclass::PerClass;
use ppm::workload::task::TaskId;

/// A seeded random snapshot: `n_clusters` clusters of `n_cores` cores with
/// 0..=`max_tasks` tasks per core. Even seeds are supply-capped.
fn snapshot(n_clusters: usize, n_cores: usize, max_tasks: u64, seed: u64) -> LbtSnapshot {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut task_id = 0usize;
    let clusters: Vec<ClusterSnapshot> = (0..n_clusters)
        .map(|ci| {
            let base = 200.0 + (next() % 800) as f64;
            let levels = 3 + (next() % 5) as usize;
            let ladder: Vec<ProcessingUnits> = (0..levels)
                .map(|l| ProcessingUnits(base * (1.0 + l as f64 * 0.4)))
                .collect();
            let level = (next() as usize) % levels;
            let cores: Vec<CoreSnapshot> = (0..n_cores)
                .map(|co| {
                    let n_tasks = (next() % (max_tasks + 1)) as usize;
                    let tasks = (0..n_tasks)
                        .map(|_| {
                            let d = 20.0 + (next() % 700) as f64;
                            let t = TaskSnapshot {
                                id: TaskId(task_id),
                                priority: 1 + (next() % 8) as u32,
                                demand: PerClass::new(ProcessingUnits(d), ProcessingUnits(d / 1.8)),
                                supply: ProcessingUnits((next() % 600) as f64),
                                bid: Money(0.01 + (next() % 100) as f64 / 50.0),
                            };
                            task_id += 1;
                            t
                        })
                        .collect();
                    CoreSnapshot {
                        id: CoreId(ci * n_cores + co),
                        tasks,
                    }
                })
                .collect();
            ClusterSnapshot {
                id: ClusterId(ci),
                class: if ci % 2 == 0 {
                    CoreClass::Little
                } else {
                    CoreClass::Big
                },
                ladder,
                level,
                price: Price((next() % 100) as f64 / 10_000.0),
                power: ClusterPowerProfile {
                    idle: (0..levels).map(|l| Watts(0.05 + 0.02 * l as f64)).collect(),
                    watts_per_pu: (0..levels)
                        .map(|l| 0.0004 * (1.0 + 0.1 * l as f64))
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
        supply_capped: seed.is_multiple_of(2),
    }
}

fn snapshot_strategy() -> impl Strategy<Value = LbtSnapshot> {
    // 1-4 clusters of 1-4 cores, 0-3 tasks per core.
    (1usize..=4, 1usize..=4, 0u64..1000)
        .prop_map(|(n_clusters, n_cores, seed)| snapshot(n_clusters, n_cores, 3, seed))
}

/// `(cluster index, core index)` of the core hosting `task`.
fn home_of(snapshot: &LbtSnapshot, task: TaskId) -> (usize, usize) {
    for (ci, cl) in snapshot.clusters.iter().enumerate() {
        for (co, core) in cl.cores.iter().enumerate() {
            if core.tasks.iter().any(|t| t.id == task) {
                return (ci, co);
            }
        }
    }
    panic!("unknown task {task:?}");
}

/// Index of the cluster owning `core`.
fn cluster_of(snapshot: &LbtSnapshot, core: CoreId) -> usize {
    snapshot
        .clusters
        .iter()
        .position(|cl| cl.cores.iter().any(|c| c.id == core))
        .expect("known core")
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every LBT decision, exact to the last bit of its spend and power deltas,
/// over a fixed set of seeded snapshots: 1,000 seeds of the property
/// generator and 100 each of V8/C4/T3 and V16/C8/T2, each capped and
/// uncapped. Pinned before the one-pass LBT refactor; any change to a
/// decision moves the digest.
#[test]
fn lbt_decisions_are_pinned() {
    let mut shapes: Vec<(usize, usize, u64, u64)> = (0..1000u64)
        .map(|seed| {
            (
                1 + (seed % 4) as usize,
                1 + (seed / 4 % 4) as usize,
                3,
                seed,
            )
        })
        .collect();
    shapes.extend((0..100).map(|seed| (8, 4, 3, seed)));
    shapes.extend((0..100).map(|seed| (16, 8, 2, seed)));
    let mut out = String::new();
    let mut moves = 0;
    for (v, c, t, seed) in shapes {
        let mut s = snapshot(v, c, t, seed);
        for capped in [false, true] {
            s.supply_capped = capped;
            for m in [decide_migration(&s), decide_load_balance(&s)] {
                moves += usize::from(m.is_some());
                out.push_str(&format!("{m:?}\n"));
            }
        }
    }
    assert!(
        moves > 1000,
        "the pinned set must exercise real moves: {moves}"
    );
    assert_eq!(
        fnv1a(out.as_bytes()),
        2_493_707_034_051_305_450,
        "LBT decisions moved"
    );
}

/// Tolerance of the ratio comparisons.
const EPS: f64 = 1e-6;

/// `perf(M′) > perf(M)` as a nested search: each task's old ratio is found
/// by id. The reference for [`PerfChange::better`].
fn reference_perf_better(new: &[(TaskId, u32, f64)], old: &[(TaskId, u32, f64)]) -> bool {
    let old_of = |id: TaskId| old.iter().find(|(i, _, _)| *i == id).map(|&(_, _, r)| r);
    let improved: Vec<&(TaskId, u32, f64)> = new
        .iter()
        .filter(|(id, _, r)| old_of(*id).is_none_or(|o| *r > o + EPS))
        .collect();
    improved.iter().any(|&&(_, prio, _)| {
        new.iter().all(|&(uid, uprio, ur)| {
            if uprio <= prio {
                return true;
            }
            old_of(uid).is_none_or(|o| ur >= o - EPS)
        })
    })
}

/// `perf(M′) ≥ perf(M)` as a nested search. The reference for
/// [`PerfChange::not_worse`].
fn reference_perf_not_worse(new: &[(TaskId, u32, f64)], old: &[(TaskId, u32, f64)]) -> bool {
    new.iter().all(|&(id, _, r)| {
        old.iter()
            .find(|(oid, _, _)| *oid == id)
            .is_none_or(|&(_, _, o)| r >= o - EPS)
    })
}

/// Ratio steps around the comparison tolerance, plus clear moves.
const STEPS: [f64; 9] = [-0.1, -2e-6, -1e-6, -5e-7, 0.0, 5e-7, 1e-6, 2e-6, 0.1];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Both decision procedures terminate without panicking and only ever
    /// propose moves of existing tasks to existing cores.
    #[test]
    fn decisions_are_well_formed(snapshot in snapshot_strategy()) {
        let all_tasks: Vec<TaskId> = snapshot
            .clusters
            .iter()
            .flat_map(|c| c.cores.iter())
            .flat_map(|c| c.tasks.iter().map(|t| t.id))
            .collect();
        let all_cores: Vec<CoreId> = snapshot
            .clusters
            .iter()
            .flat_map(|c| c.cores.iter().map(|c| c.id))
            .collect();
        for (m, migration) in [
            (decide_migration(&snapshot), true),
            (decide_load_balance(&snapshot), false),
        ] {
            let Some(m) = m else { continue };
            prop_assert!(all_tasks.contains(&m.task), "unknown task {:?}", m.task);
            prop_assert!(all_cores.contains(&m.to_core), "unknown core {:?}", m.to_core);
            // The mover sits on its cluster's constrained core; a migration
            // leaves that cluster and a load-balancing move stays in it.
            let (ci, co) = home_of(&snapshot, m.task);
            prop_assert_eq!(co, snapshot.clusters[ci].constrained_core(), "mover off the constrained core");
            prop_assert_eq!(cluster_of(&snapshot, m.to_core) != ci, migration, "{:?}", m);
        }
    }

    /// The manager's one-pass invocation decides exactly what the two
    /// searches decide on their own: migration first, load balancing only
    /// when no migration qualifies.
    #[test]
    fn one_pass_matches_the_two_searches(snapshot in snapshot_strategy()) {
        let migration = decide_migration(&snapshot);
        let balance = decide_load_balance(&snapshot);
        prop_assert_eq!(decide_move(&snapshot, true), migration.or(balance));
        prop_assert_eq!(decide_move(&snapshot, false), balance);
    }

    /// Cluster estimates always produce ratios in [0, 1], non-negative
    /// spending and power, and a level inside the ladder.
    #[test]
    fn estimates_are_sane(snapshot in snapshot_strategy()) {
        for cluster in &snapshot.clusters {
            let assignment: Vec<Vec<&TaskSnapshot>> =
                cluster.cores.iter().map(|c| c.tasks.iter().collect()).collect();
            let est = estimate_cluster(&snapshot, cluster, &assignment);
            prop_assert!(est.level < cluster.ladder.len());
            prop_assert!(est.spend.value() >= 0.0);
            prop_assert!(est.power.value() >= 0.0);
            for &(_, _, r) in &est.ratios {
                prop_assert!((0.0..=1.0 + 1e-9).contains(&r), "ratio {r}");
            }
        }
    }

    /// A proposed migration, when applied, never moves the task onto the
    /// core it already occupies.
    #[test]
    fn moves_actually_move(snapshot in snapshot_strategy()) {
        if let Some(m) = decide_migration(&snapshot) {
            let from = snapshot
                .clusters
                .iter()
                .flat_map(|c| c.cores.iter())
                .find(|c| c.tasks.iter().any(|t| t.id == m.task))
                .expect("task exists")
                .id;
            prop_assert_ne!(from, m.to_core, "no-op move proposed");
        }
    }

    /// The one-pass comparison agrees with the nested-search reference on
    /// every outcome, whatever order the old ratios are listed in.
    #[test]
    fn perf_change_matches_the_nested_reference(
        tasks in proptest::collection::vec((1u32..=8, 0u32..=8, 0usize..STEPS.len()), 0..12),
        rotate in 0usize..12,
    ) {
        let old: Vec<(TaskId, u32, f64)> = tasks
            .iter()
            .enumerate()
            .map(|(i, &(prio, o, _))| (TaskId(i), prio, f64::from(o) / 8.0))
            .collect();
        let new: Vec<(TaskId, u32, f64)> = old
            .iter()
            .zip(&tasks)
            .map(|(&(id, prio, o), &(_, _, step))| (id, prio, o + STEPS[step]))
            .collect();
        let change = PerfChange::of(new.iter().zip(&old).map(|(&(_, p, n), &(_, _, o))| (p, o, n)));
        let mut listed = old.clone();
        listed.rotate_left(rotate.min(old.len()));
        prop_assert_eq!(change.better(), reference_perf_better(&new, &listed));
        prop_assert_eq!(change.not_worse(), reference_perf_not_worse(&new, &listed));
    }
}
