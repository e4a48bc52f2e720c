//! Property-based tests on the full LBT decision procedures over random
//! system snapshots: no panics, every proposed move references a real task
//! and a real destination core, the decisions over a seeded set are pinned
//! by digest, and the incremental pass decides bit for bit what a
//! whole-cluster reference pass decides.

use proptest::prelude::*;

use ppm::core::lbt::{
    decide_load_balance, decide_migration, decide_move, estimate_cluster, ClusterPowerProfile,
    ClusterSnapshot, CoreSnapshot, Lbt, LbtSnapshot, PerfChange, TaskSnapshot,
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

/// A seeded snapshot built to reach the pass's edge cases: 1–4 clusters of
/// 1–4 cores, 1–5 ladder levels, capped or not; demands and priorities from
/// small sets with zeros, so constrained cores tie and zero-demand and
/// zero-priority tasks occur; about one cluster in four hosts no task.
fn edge_snapshot(seed: u64) -> LbtSnapshot {
    let mut s = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    let mut next = move |n: u64| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s % n
    };
    const DEMANDS: [f64; 6] = [0.0, 60.0, 100.0, 150.0, 300.0, 640.0];
    let mut task_id = 0;
    let mut core_id = 0;
    let n_clusters = 1 + next(4) as usize;
    let clusters = (0..n_clusters)
        .map(|ci| {
            let levels = 1 + next(5) as usize;
            let base = 100.0 + next(500) as f64;
            let empty = next(4) == 0;
            let cores = (0..1 + next(4))
                .map(|_| {
                    let n_tasks = if empty { 0 } else { next(4) };
                    let tasks = (0..n_tasks)
                        .map(|_| {
                            let d = DEMANDS[next(DEMANDS.len() as u64) as usize];
                            task_id += 1;
                            TaskSnapshot {
                                id: TaskId(task_id - 1),
                                priority: next(4) as u32,
                                demand: PerClass::new(ProcessingUnits(d), ProcessingUnits(d / 1.7)),
                                supply: ProcessingUnits(next(400) as f64),
                                bid: Money(0.01),
                            }
                        })
                        .collect();
                    core_id += 1;
                    CoreSnapshot {
                        id: CoreId(core_id - 1),
                        tasks,
                    }
                })
                .collect();
            ClusterSnapshot {
                id: ClusterId(ci),
                class: if next(2) == 0 {
                    CoreClass::Little
                } else {
                    CoreClass::Big
                },
                ladder: (0..levels)
                    .map(|l| ProcessingUnits(base * (1.0 + 0.55 * l as f64)))
                    .collect(),
                level: next(levels as u64) as usize,
                price: Price(next(60) as f64 / 7_000.0),
                power: ClusterPowerProfile {
                    idle: (0..levels)
                        .map(|l| Watts(0.03 + 0.011 * l as f64))
                        .collect(),
                    watts_per_pu: (0..levels)
                        .map(|l| 0.0003 * (1.0 + 0.13 * l as f64))
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
        supply_capped: next(2) == 0,
    }
}

/// The whole-cluster LBT pass the incremental one replaced, kept as its
/// reference: every candidate re-estimates each cluster it touches whole,
/// with the estimate as it was written before the pass cached splits.
mod reference {
    use super::*;
    use ppm::core::lbt::{ClusterEstimate, Move, MoveGoal};

    fn constrained_core(cluster: &ClusterSnapshot) -> usize {
        let mut best = 0;
        let mut best_d = ProcessingUnits::ZERO;
        for (i, c) in cluster.cores.iter().enumerate() {
            let d = c.total_demand(cluster.class);
            if i == 0 || d > best_d {
                best = i;
                best_d = d;
            }
        }
        best
    }

    fn most_oversupplied_unconstrained(cluster: &ClusterSnapshot) -> usize {
        if cluster.cores.len() == 1 {
            return 0;
        }
        let constrained = constrained_core(cluster);
        let supply = cluster.ladder[cluster.level];
        let mut best = usize::MAX;
        let mut best_slack = f64::NEG_INFINITY;
        for (i, c) in cluster.cores.iter().enumerate() {
            if i == constrained {
                continue;
            }
            let slack = supply.value() - c.total_demand(cluster.class).value();
            if slack > best_slack {
                best_slack = slack;
                best = i;
            }
        }
        best
    }

    fn level_covering(ladder: &[ProcessingUnits], demand: ProcessingUnits) -> usize {
        ladder
            .iter()
            .position(|&s| s >= demand)
            .unwrap_or(ladder.len() - 1)
    }

    fn price_at(price: Price, from: usize, to: usize, tolerance: f64) -> Price {
        let mut price = price;
        if to > from {
            for _ in from..to {
                price = price.inflated_by(tolerance);
            }
        } else {
            for _ in to..from {
                price = price.deflated_by(tolerance);
            }
        }
        price
    }

    pub fn estimate_cluster(
        snapshot: &LbtSnapshot,
        cluster: &ClusterSnapshot,
        assignment: &[Vec<&TaskSnapshot>],
    ) -> ClusterEstimate {
        let class = cluster.class;
        let constrained_demand = assignment
            .iter()
            .map(|ts| -> ProcessingUnits { ts.iter().map(|t| t.demand_on(class)).sum() })
            .fold(ProcessingUnits::ZERO, ProcessingUnits::max);
        let mut level = level_covering(&cluster.ladder, constrained_demand);
        if snapshot.supply_capped {
            level = level.min(cluster.level);
        }
        let supply = cluster.ladder[level];
        let mut price = price_at(cluster.price, cluster.level, level, snapshot.tolerance);
        if !price.is_positive() && supply.is_positive() {
            price = Price(snapshot.min_bid.value() / supply.value());
        }

        let mut ratios = Vec::new();
        let mut spend = Money::ZERO;
        let mut used = ProcessingUnits::ZERO;
        for tasks in assignment {
            if tasks.is_empty() {
                continue;
            }
            let mut grants = vec![ProcessingUnits::ZERO; tasks.len()];
            let mut remaining = supply;
            let mut active: Vec<usize> = (0..tasks.len()).collect();
            while !active.is_empty() && remaining.is_positive() {
                let total_r: f64 = active.iter().map(|&i| tasks[i].priority as f64).sum();
                if total_r <= 0.0 {
                    break;
                }
                let mut saturated = Vec::new();
                let mut consumed = ProcessingUnits::ZERO;
                for &i in &active {
                    let share = remaining * (tasks[i].priority as f64 / total_r);
                    let headroom = tasks[i].demand_on(class) - grants[i];
                    if share >= headroom {
                        grants[i] = tasks[i].demand_on(class);
                        consumed += headroom;
                        saturated.push(i);
                    } else {
                        grants[i] += share;
                        consumed += share;
                    }
                }
                remaining -= consumed;
                if saturated.is_empty() {
                    break;
                }
                active.retain(|i| !saturated.contains(i));
            }
            for (i, t) in tasks.iter().enumerate() {
                let d = t.demand_on(class);
                let ratio = if d.is_positive() { grants[i] / d } else { 1.0 };
                ratios.push((t.id, t.priority, ratio.min(1.0)));
                spend += price * grants[i];
                used += grants[i];
            }
        }
        let has_tasks = !ratios.is_empty();
        let power = cluster.power.power(level, used, has_tasks);
        ClusterEstimate {
            level,
            price,
            ratios,
            spend,
            power,
        }
    }

    pub fn assignment_of(cluster: &ClusterSnapshot) -> Vec<Vec<&TaskSnapshot>> {
        cluster
            .cores
            .iter()
            .map(|c| c.tasks.iter().collect())
            .collect()
    }

    /// The touched clusters' whole assignments after the move, with their
    /// before and after estimates.
    pub fn touched(
        snapshot: &LbtSnapshot,
        (src, src_core, mover): (usize, usize, usize),
        (dst, dst_core): (usize, usize),
    ) -> Vec<(usize, Vec<Vec<&TaskSnapshot>>)> {
        let clusters = &snapshot.clusters;
        let task = &clusters[src].cores[src_core].tasks[mover];
        let mut touched = vec![(src, assignment_of(&clusters[src]))];
        touched[0].1[src_core].remove(mover);
        if dst != src {
            touched.push((dst, assignment_of(&clusters[dst])));
        }
        touched.last_mut().expect("the source is touched").1[dst_core].push(task);
        touched
    }

    fn evaluate(
        snapshot: &LbtSnapshot,
        before: &[ClusterEstimate],
        from: (usize, usize, usize),
        to: (usize, usize),
    ) -> (Move, PerfChange, (f64, f64)) {
        let clusters = &snapshot.clusters;
        let (src, src_core, mover) = from;
        let (dst, dst_core) = to;
        let task = &clusters[src].cores[src_core].tasks[mover];
        let old_at = clusters[src].cores[..src_core]
            .iter()
            .map(|c| c.tasks.len())
            .sum::<usize>()
            + mover;
        let after: Vec<(&ClusterEstimate, ClusterEstimate)> = touched(snapshot, from, to)
            .iter()
            .map(|(ci, asg)| {
                (
                    &before[*ci],
                    estimate_cluster(snapshot, &clusters[*ci], asg),
                )
            })
            .collect();
        let new_r = after[after.len() - 1]
            .1
            .ratios
            .iter()
            .find(|r| r.0 == task.id)
            .expect("the mover lands")
            .2;
        let mover_ratios = (before[src].ratios[old_at].2, new_r);
        let stays = |r: &&(TaskId, u32, f64)| r.0 != task.id;
        let triples = after.iter().flat_map(|(before, after)| {
            before
                .ratios
                .iter()
                .filter(stays)
                .zip(after.ratios.iter().filter(stays))
                .map(|(&(_, priority, old), &(_, _, new))| (priority, old, new))
        });
        let perf = PerfChange::of(triples.chain([(task.priority, mover_ratios.0, mover_ratios.1)]));
        let (spend_delta, power_delta) = match after.as_slice() {
            [(before, after)] => (after.spend - before.spend, after.power - before.power),
            [(src_before, src_after), (dst_before, dst_after)] => (
                (src_after.spend + dst_after.spend) - (src_before.spend + dst_before.spend),
                (src_after.power + dst_after.power) - (src_before.power + dst_before.power),
            ),
            _ => unreachable!("a move touches one or two clusters"),
        };
        let m = Move {
            task: task.id,
            to_core: clusters[dst].cores[dst_core].id,
            goal: MoveGoal::Performance,
            spend_delta,
            power_delta,
        };
        (m, perf, mover_ratios)
    }

    /// The best move and where it leaves from and lands.
    type Found = (Move, (usize, usize, usize), (usize, usize));

    fn best(snapshot: &LbtSnapshot, migration: bool) -> Option<Found> {
        const EPS: f64 = 1e-6;
        let clusters = &snapshot.clusters;
        let before: Vec<ClusterEstimate> = clusters
            .iter()
            .map(|cl| estimate_cluster(snapshot, cl, &assignment_of(cl)))
            .collect();
        let all_meet = before
            .iter()
            .all(|est| est.ratios.iter().all(|&(_, _, r)| r >= 1.0 - EPS));
        let targets: Vec<usize> = clusters
            .iter()
            .map(most_oversupplied_unconstrained)
            .collect();
        let mut best: Option<(Found, f64)> = None;
        for (src, cl) in clusters.iter().enumerate() {
            let constrained = constrained_core(cl);
            let tasks = &cl.cores[constrained].tasks;
            let offset: usize = cl.cores[..constrained].iter().map(|c| c.tasks.len()).sum();
            let ratios = &before[src].ratios[offset..offset + tasks.len()];
            let movers: Vec<usize> = (0..tasks.len())
                .filter(|&i| all_meet || ratios[i].2 < 1.0 - EPS)
                .collect();
            let dsts = targets.iter().copied().enumerate().filter(|&(ci, core)| {
                if migration {
                    ci != src
                } else {
                    ci == src && cl.cores.len() > 1 && core != constrained
                }
            });
            for (dst, dst_core) in dsts {
                for &mover in &movers {
                    let from = (src, constrained, mover);
                    let to = (dst, dst_core);
                    let (cand, perf, (old_r, new_r)) = evaluate(snapshot, &before, from, to);
                    let (goal, gain, better) = if all_meet {
                        let better = cand.power_delta.value() < -EPS
                            && perf.not_worse()
                            && best.is_none_or(|((m, _, _), _)| cand.power_delta < m.power_delta);
                        (MoveGoal::PowerEfficiency, 0.0, better)
                    } else {
                        let gain = (tasks[mover].priority as f64) * 1e6 + (new_r - old_r);
                        let better = perf.better()
                            && new_r > old_r + EPS
                            && best.is_none_or(|((m, _, _), best_gain)| {
                                gain > best_gain + EPS
                                    || ((gain - best_gain).abs() <= EPS
                                        && cand.power_delta < m.power_delta)
                            });
                        (MoveGoal::Performance, gain, better)
                    };
                    if better {
                        best = Some(((Move { goal, ..cand }, from, to), gain));
                    }
                }
            }
        }
        best.map(|(found, _)| found)
    }

    /// The whole-cluster `decide_move`, with where its move leaves from
    /// and lands.
    pub fn decide_move(snapshot: &LbtSnapshot, migrate: bool) -> Option<Found> {
        let migration = if migrate { best(snapshot, true) } else { None };
        migration.or_else(|| best(snapshot, false))
    }
}

/// Whether the approved move leaves a cluster it touches at another
/// settled level than before.
fn moves_a_level(snapshot: &LbtSnapshot, from: (usize, usize, usize), to: (usize, usize)) -> bool {
    reference::touched(snapshot, from, to)
        .iter()
        .any(|(ci, asg)| {
            let cluster = &snapshot.clusters[*ci];
            let whole = reference::assignment_of(cluster);
            reference::estimate_cluster(snapshot, cluster, asg).level
                != reference::estimate_cluster(snapshot, cluster, &whole).level
        })
}

/// `decide_move` and the retained-state [`Lbt::decide_move`] against the
/// whole-cluster reference, compared through `Debug` so every `f64` delta
/// must match bit for bit.
fn check_against_reference(snapshot: &LbtSnapshot, lbt: &mut Lbt) -> Result<(), String> {
    for migrate in [true, false] {
        let want = format!(
            "{:?}",
            reference::decide_move(snapshot, migrate).map(|(m, _, _)| m)
        );
        for (how, got) in [
            ("fresh", decide_move(snapshot, migrate)),
            ("retained", lbt.decide_move(snapshot, migrate)),
        ] {
            let got = format!("{got:?}");
            if got != want {
                return Err(format!(
                    "{how} decide_move(migrate = {migrate}) = {got}, reference {want}\n{snapshot:?}"
                ));
            }
        }
    }
    Ok(())
}

/// The incremental pass decides what the whole-cluster reference decides
/// on 4,000 seeded edge snapshots, which between them reach every edge the
/// pass must get right.
#[test]
fn incremental_pass_matches_the_reference_on_the_edge_cases() {
    let mut lbt = Lbt::default();
    let (mut capped, mut uncapped, mut tied, mut zero_demand, mut zero_priority) = (0, 0, 0, 0, 0);
    let (mut single_core, mut task_less, mut level_moves) = (0, 0, 0);
    for seed in 0..4000 {
        let s = edge_snapshot(seed);
        check_against_reference(&s, &mut lbt).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for cl in &s.clusters {
            let demands: Vec<ProcessingUnits> =
                cl.cores.iter().map(|c| c.total_demand(cl.class)).collect();
            let top = demands
                .iter()
                .copied()
                .fold(ProcessingUnits::ZERO, ProcessingUnits::max);
            tied +=
                usize::from(top.is_positive() && demands.iter().filter(|&&d| d == top).count() > 1);
            single_core += usize::from(cl.cores.len() == 1);
            task_less += usize::from(cl.cores.iter().all(|c| c.tasks.is_empty()));
            for t in cl.cores.iter().flat_map(|c| &c.tasks) {
                zero_demand += usize::from(!t.demand_on(cl.class).is_positive());
                zero_priority += usize::from(t.priority == 0);
            }
        }
        for migrate in [true, false] {
            if let Some((_, from, to)) = reference::decide_move(&s, migrate) {
                let multi_level = s.clusters.iter().any(|cl| cl.ladder.len() > 1);
                capped += usize::from(s.supply_capped && multi_level);
                uncapped += usize::from(!s.supply_capped && multi_level);
                level_moves += usize::from(moves_a_level(&s, from, to));
            }
        }
    }
    for (what, n) in [
        ("capped multi-level moves", capped),
        ("uncapped multi-level moves", uncapped),
        ("tied constrained cores", tied),
        ("zero-demand tasks", zero_demand),
        ("zero-priority tasks", zero_priority),
        ("single-core clusters", single_core),
        ("task-less clusters", task_less),
        ("moves that change a settled level", level_moves),
    ] {
        assert!(n >= 20, "the seeded set reaches {what} only {n} times");
    }
}

/// A move that lowers its source cluster's level until an untouched core's
/// demand (30, 60 and 60 PU at priorities 1, 3, 3) equals the per-core
/// supply exactly. Water-filling that supply leaves a task a rounding error
/// short of its demand, where the old level's split grants it all, and at
/// these prices the error reaches the deltas, so only a split made at the
/// new level reproduces the reference's move bit for bit. Random snapshots almost never make
/// that split decide a delta: when a move changes the level, every
/// untouched core's demand is covered at both levels.
#[test]
fn an_exactly_covered_untouched_core_is_split_at_the_new_level() {
    let task = |id, priority, little: f64| TaskSnapshot {
        id: TaskId(id),
        priority,
        demand: PerClass::new(ProcessingUnits(little), ProcessingUnits(little / 2.0)),
        supply: ProcessingUnits(little),
        bid: Money(0.01),
    };
    let cluster = |id, class, ladder: &[f64], cores: Vec<Vec<TaskSnapshot>>, first_core| {
        let levels = ladder.len();
        ClusterSnapshot {
            id: ClusterId(id),
            class,
            ladder: ladder.iter().map(|&s| ProcessingUnits(s)).collect(),
            level: 1,
            price: Price(0.013),
            power: ClusterPowerProfile {
                idle: (0..levels).map(|l| Watts(0.01 + 0.2 * l as f64)).collect(),
                watts_per_pu: (0..levels).map(|l| 0.0001 * (1 + 9 * l) as f64).collect(),
            },
            cores: cores
                .into_iter()
                .enumerate()
                .map(|(k, tasks)| CoreSnapshot {
                    id: CoreId(first_core + k),
                    tasks,
                })
                .collect(),
        }
    };
    let untouched = vec![task(1, 1, 30.0), task(2, 3, 60.0), task(3, 3, 60.0)];
    let s = LbtSnapshot {
        clusters: vec![
            cluster(
                0,
                CoreClass::Little,
                &[150.0, 210.0, 270.0],
                vec![vec![task(0, 2, 180.0)], untouched],
                0,
            ),
            cluster(1, CoreClass::Big, &[150.0, 300.0], vec![vec![], vec![]], 2),
        ],
        tolerance: 0.2,
        min_bid: Money(0.01),
        supply_capped: false,
    };
    let (m, from, to) = reference::decide_move(&s, true).expect("the reference migrates task 0");
    assert_eq!((m.task, from, to.0), (TaskId(0), (0, 0, 0), 1));
    let source = &s.clusters[0];
    let before = reference::estimate_cluster(&s, source, &reference::assignment_of(source));
    let after = reference::estimate_cluster(&s, source, &reference::touched(&s, from, to)[0].1);
    assert_eq!((before.level, after.level), (1, 0));
    let bits = |ratios: &[(TaskId, u32, f64)]| -> Vec<u64> {
        ratios.iter().map(|r| r.2.to_bits()).collect()
    };
    assert_ne!(
        bits(&before.ratios[1..]),
        bits(&after.ratios),
        "the untouched core splits differently at the new level"
    );
    check_against_reference(&s, &mut Lbt::default()).unwrap_or_else(|e| panic!("{e}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On random edge snapshots, the incremental pass decides exactly what
    /// the whole-cluster reference decides, with fresh state and with one
    /// `Lbt` reused across a run of snapshots of different shapes.
    #[test]
    fn decide_move_matches_the_whole_cluster_reference(
        seeds in proptest::collection::vec(0u64..1_000_000_000, 1..4),
    ) {
        let mut lbt = Lbt::default();
        for seed in seeds {
            let s = edge_snapshot(seed);
            if let Err(e) = check_against_reference(&s, &mut lbt) {
                prop_assert!(false, "seed {}: {}", seed, e);
            }
        }
    }
}
