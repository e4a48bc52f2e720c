//! The Load-Balancing and Task-migration (LBT) module (§3.3).
//!
//! Given the steady-state market (supplies, demands, bids, prices), the LBT
//! module searches for a better task-to-core mapping:
//!
//! * **Task migration** moves one task from the *constrained core* of a
//!   cluster to the *most over-supplied unconstrained core* of another
//!   cluster — the paper's overhead-bounding heuristic.
//! * **Load balancing** does the same within one cluster.
//!
//! Candidate mappings are compared with the paper's two metrics:
//! `perf(M)` — the priority-lexicographic order over supply/demand ratios —
//! and `spend(M) = Σ b_t`, whose reduction provably reduces power (§3.3).
//! Steady-state prices at other V-F levels are extrapolated with the Eq. 2
//! recursion `P_{Z+1} = P_Z · (1+δ)`.
//!
//! The manager runs [`decide_move`]: one whole-chip pass over an
//! [`LbtSnapshot`] of per-task estimates (its cost in a run is the
//! benchmark's `core.lbt` layer). Table 7 times a different computation,
//! [`constrained_core_scan`]: the paper's per-constrained-core scan over the
//! aggregates "hierarchically disseminated from the cluster agents to the
//! chip agents and subsequently to the task agents" ([`RemoteCluster`]), on
//! synthetic inputs of up to 256 clusters × 16 cores × 32 tasks. The
//! manager never runs the scan.

use std::fmt;

use ppm_platform::cluster::ClusterId;
use ppm_platform::core::{CoreClass, CoreId};
use ppm_platform::units::{Money, Price, ProcessingUnits, Watts};
use ppm_workload::perclass::PerClass;
use ppm_workload::task::TaskId;

/// Steady-state view of one task, as the LBT module sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSnapshot {
    /// The task.
    pub id: TaskId,
    /// Its priority `r_t`.
    pub priority: u32,
    /// Off-line-profiled demand on each core class (the speculation input
    /// of §5.2).
    pub demand: PerClass<ProcessingUnits>,
    /// Steady-state supply on its current core.
    pub supply: ProcessingUnits,
    /// Steady-state bid on its current core.
    pub bid: Money,
}

impl TaskSnapshot {
    /// The task's demand on a core of `class`.
    pub fn demand_on(&self, class: CoreClass) -> ProcessingUnits {
        self.demand[class]
    }
}

/// One core and the tasks mapped to it.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreSnapshot {
    /// The core.
    pub id: CoreId,
    /// Tasks currently mapped here.
    pub tasks: Vec<TaskSnapshot>,
}

impl CoreSnapshot {
    /// Summed demand `D_c` of the mapped tasks on `class` cores.
    pub fn total_demand(&self, class: CoreClass) -> ProcessingUnits {
        self.tasks.iter().map(|t| t.demand_on(class)).sum()
    }
}

/// Coarse power profile of a cluster, one entry per V-F level. The paper's
/// LBT module speculates with off-line-profiled power per core type (§5.2);
/// this is the equivalent: the fixed cost of keeping the cluster online at
/// a level plus the marginal cost per PU actually consumed.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPowerProfile {
    /// Idle (zero-utilization) cluster power at each level: uncore plus
    /// all-core leakage. An *empty* cluster is assumed power-gated (0 W).
    pub idle: Vec<Watts>,
    /// Marginal watts per consumed PU at each level (`C_dyn · V²` in the
    /// CMOS model: utilization × frequency is exactly the PU consumption).
    pub watts_per_pu: Vec<f64>,
}

impl ClusterPowerProfile {
    /// Estimated cluster power at `level` when `used` PU are consumed in
    /// total and the cluster hosts at least one task. Empty clusters gate.
    pub fn power(&self, level: usize, used: ProcessingUnits, has_tasks: bool) -> Watts {
        if !has_tasks {
            return Watts::ZERO;
        }
        self.idle[level] + Watts(self.watts_per_pu[level] * used.value())
    }
}

/// One cluster: its ladder of per-core supplies, current level and price.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSnapshot {
    /// The cluster.
    pub id: ClusterId,
    /// Core class of every core in the cluster.
    pub class: CoreClass,
    /// Per-core supply at each V-F level, ascending.
    pub ladder: Vec<ProcessingUnits>,
    /// Current V-F level (index into `ladder`).
    pub level: usize,
    /// Price per PU currently observed on the constrained core.
    pub price: Price,
    /// Profiled power behaviour used for migration speculation.
    pub power: ClusterPowerProfile,
    /// The cores of the cluster.
    pub cores: Vec<CoreSnapshot>,
}

impl ClusterSnapshot {
    /// Index of the constrained core: the one with the highest demand.
    pub fn constrained_core(&self) -> usize {
        let mut best = 0;
        let mut best_d = ProcessingUnits::ZERO;
        for (i, c) in self.cores.iter().enumerate() {
            let d = c.total_demand(self.class);
            if i == 0 || d > best_d {
                best = i;
                best_d = d;
            }
        }
        best
    }

    /// Index of the most over-supplied core other than the constrained one
    /// (the paper's sole migration target per cluster). Falls back to the
    /// only core when the cluster has just one.
    pub fn most_oversupplied_unconstrained(&self) -> usize {
        if self.cores.len() == 1 {
            return 0;
        }
        let constrained = self.constrained_core();
        let supply = self.ladder[self.level];
        let mut best = usize::MAX;
        let mut best_slack = f64::NEG_INFINITY;
        for (i, c) in self.cores.iter().enumerate() {
            if i == constrained {
                continue;
            }
            let slack = supply.value() - c.total_demand(self.class).value();
            if slack > best_slack {
                best_slack = slack;
                best = i;
            }
        }
        best
    }
}

/// Index of the lowest supply in `ladder` that covers `demand` (rounded
/// up), saturating at the top of the ladder.
fn level_covering(ladder: &[ProcessingUnits], demand: ProcessingUnits) -> usize {
    ladder
        .iter()
        .position(|&s| s >= demand)
        .unwrap_or(ladder.len() - 1)
}

/// The Eq. 2 recursion: the price `price` observed at level `from`,
/// extrapolated to level `to` by one `(1±δ)` factor per level step.
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

/// Full steady-state snapshot consumed by the LBT decision procedures.
///
/// Not to be confused with the executor's `ppm_sched::SystemSnapshot` (the
/// raw observable state): an `LbtSnapshot` is the *market-level* view the
/// PPM manager derives from it for migration speculation.
#[derive(Debug, Clone, PartialEq)]
pub struct LbtSnapshot {
    /// All clusters.
    pub clusters: Vec<ClusterSnapshot>,
    /// Tolerance factor δ used in the Eq. 2 price extrapolation.
    pub tolerance: f64,
    /// Minimum bid, which floors estimated prices on idle clusters.
    pub min_bid: Money,
    /// True when the chip is power-constrained (threshold or emergency
    /// state): "the steady-state supply of a cluster is estimated to be the
    /// same as the steady-state demand, *unless the supply is constrained
    /// by the TDP*" (§3.3) — under the cap, clusters cannot be assumed to
    /// raise their V-F level to meet demand.
    pub supply_capped: bool,
}

/// Steady-state estimate for one cluster under a hypothetical mapping.
#[derive(Debug, Clone)]
pub struct ClusterEstimate {
    /// Estimated settled V-F level.
    pub level: usize,
    /// Estimated price at that level (Eq. 2 recursion).
    pub price: Price,
    /// Estimated `(task, priority, supply/demand ratio)` triples.
    pub ratios: Vec<(TaskId, u32, f64)>,
    /// Estimated aggregate spending of the cluster's tasks.
    pub spend: Money,
    /// Estimated cluster power from the profiled power model.
    pub power: Watts,
}

/// Tolerance for ratio/spend comparisons.
const EPS: f64 = 1e-6;

/// Estimate the steady state of `cluster` when its cores host `assignment`
/// (one task list per core, same order as `cluster.cores`).
///
/// The estimate follows §3.3: the cluster settles at the lowest level whose
/// supply covers the constrained demand (demand rounded up to the next
/// supply value); the price at that level follows the Eq. 2 recursion from
/// the currently observed price; each core's supply is divided among its
/// tasks proportionally to priority but capped at demand; the steady-state
/// bid of a task is `price × supply`.
pub fn estimate_cluster(
    snapshot: &LbtSnapshot,
    cluster: &ClusterSnapshot,
    assignment: &[Vec<&TaskSnapshot>],
) -> ClusterEstimate {
    debug_assert_eq!(assignment.len(), cluster.cores.len());
    let class = cluster.class;
    // Constrained demand decides the settled level.
    let constrained_demand = assignment
        .iter()
        .map(|ts| -> ProcessingUnits { ts.iter().map(|t| t.demand_on(class)).sum() })
        .fold(ProcessingUnits::ZERO, ProcessingUnits::max);
    let mut level = level_covering(&cluster.ladder, constrained_demand);
    if snapshot.supply_capped {
        // Power-constrained: the cluster can shed load (lower level) but
        // cannot be assumed to raise it.
        level = level.min(cluster.level);
    }
    let supply = cluster.ladder[level];
    let mut price = price_at(cluster.price, cluster.level, level, snapshot.tolerance);
    // A cluster with no market yet (idle, price 0) would otherwise estimate
    // free resources; floor at the price implied by minimum bids.
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
        // Priority-proportional split capped at demand (water-filling).
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

/// How a move changes the supply/demand ratios of the tasks it touches,
/// folded in one pass over `(priority, old, new)` triples, one per task.
/// §3.3's two comparisons depend only on each task's own pair, and an
/// unchanged ratio satisfies both, so a move is judged on the tasks of the
/// clusters it touches.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfChange {
    /// Highest priority among the tasks whose ratio rises.
    improved: Option<u32>,
    /// Highest priority among the tasks whose ratio falls.
    worsened: Option<u32>,
}

impl PerfChange {
    /// Fold `(priority, old, new)` triples, one per task.
    pub fn of(triples: impl IntoIterator<Item = (u32, f64, f64)>) -> Self {
        let mut change = PerfChange::default();
        for (priority, old, new) in triples {
            if new > old + EPS {
                change.improved = change.improved.max(Some(priority));
            } else if new < old - EPS {
                change.worsened = change.worsened.max(Some(priority));
            }
        }
        change
    }

    /// `perf(M′) > perf(M)` (§3.3): some task's ratio rises and no
    /// higher-priority task's falls.
    pub fn better(self) -> bool {
        self.improved.is_some_and(|p| self.worsened <= Some(p))
    }

    /// `perf(M′) ≥ perf(M)`: no task's ratio falls.
    pub fn not_worse(self) -> bool {
        self.worsened.is_none()
    }
}

/// A move proposed by the LBT module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Move {
    /// The migrating task.
    pub task: TaskId,
    /// Destination core.
    pub to_core: CoreId,
    /// Why the move was selected.
    pub goal: MoveGoal,
    /// Estimated change in aggregate spending `spend(M′) − spend(M)`.
    pub spend_delta: Money,
    /// Estimated change in chip power from the profiled power model.
    pub power_delta: Watts,
}

/// The objective that justified a move (Figure 3's two branches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveGoal {
    /// All demands were met; the move reduces aggregate spending (power).
    PowerEfficiency,
    /// Some demand was unmet; the move raises the highest-priority
    /// unsatisfied task's supply/demand ratio.
    Performance,
}

impl fmt::Display for Move {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "move {} -> {} ({})",
            self.task,
            self.to_core,
            match self.goal {
                MoveGoal::PowerEfficiency => "power",
                MoveGoal::Performance => "performance",
            }
        )
    }
}

/// Assignment of a cluster as plain reference lists (one per core).
fn assignment_of(cluster: &ClusterSnapshot) -> Vec<Vec<&TaskSnapshot>> {
    cluster
        .cores
        .iter()
        .map(|c| c.tasks.iter().collect())
        .collect()
}

/// Tasks on the cores before `core`: where that core's tasks start in a
/// cluster estimate's ratios, which follow assignment order.
fn ratio_offset<T>(cores: &[Vec<T>], core: usize) -> usize {
    cores[..core].iter().map(Vec::len).sum()
}

/// One LBT invocation: each cluster's current mapping is estimated once and
/// shared by every candidate of both searches.
struct Pass<'a> {
    snapshot: &'a LbtSnapshot,
    /// Estimate of each cluster's current mapping.
    before: Vec<ClusterEstimate>,
    /// Whether every task meets its demand under `before`.
    all_meet: bool,
    /// Each cluster's most over-supplied unconstrained core.
    targets: Vec<usize>,
}

impl<'a> Pass<'a> {
    fn new(snapshot: &'a LbtSnapshot) -> Self {
        let clusters = &snapshot.clusters;
        let before: Vec<ClusterEstimate> = clusters
            .iter()
            .map(|cl| estimate_cluster(snapshot, cl, &assignment_of(cl)))
            .collect();
        let all_meet = before
            .iter()
            .all(|est| est.ratios.iter().all(|&(_, _, r)| r >= 1.0 - EPS));
        let targets = clusters
            .iter()
            .map(ClusterSnapshot::most_oversupplied_unconstrained)
            .collect();
        Pass {
            snapshot,
            before,
            all_meet,
            targets,
        }
    }

    /// Move the `mover`-th task of core `src_core` in cluster `src` to core
    /// `dst_core` of cluster `dst`, returning the move (its goal left for
    /// the caller to set), the performance change and the mover's ratio
    /// before and after. Only the touched clusters' after-mappings are
    /// estimated: one within a cluster, two across clusters.
    fn evaluate(
        &self,
        src: usize,
        src_core: usize,
        mover: usize,
        dst: usize,
        dst_core: usize,
    ) -> (Move, PerfChange, (f64, f64)) {
        let clusters = &self.snapshot.clusters;
        let task = &clusters[src].cores[src_core].tasks[mover];
        let mut touched = vec![(src, assignment_of(&clusters[src]))];
        let old_at = ratio_offset(&touched[0].1, src_core) + mover;
        touched[0].1[src_core].remove(mover);
        if dst != src {
            touched.push((dst, assignment_of(&clusters[dst])));
        }
        let dst_asg = &mut touched.last_mut().expect("the source is touched").1;
        dst_asg[dst_core].push(task);
        // The mover is the last task of its new core.
        let new_at = ratio_offset(dst_asg, dst_core + 1) - 1;
        let after: Vec<(&ClusterEstimate, ClusterEstimate)> = touched
            .iter()
            .map(|(ci, asg)| {
                (
                    &self.before[*ci],
                    estimate_cluster(self.snapshot, &clusters[*ci], asg),
                )
            })
            .collect();

        let mover_ratios = (
            self.before[src].ratios[old_at].2,
            after[after.len() - 1].1.ratios[new_at].2,
        );
        // Outside the mover, a move keeps each ratio list in order, so the
        // lists align once the mover is skipped on both sides.
        let stays = |r: &&(TaskId, u32, f64)| r.0 != task.id;
        let triples = after.iter().flat_map(|(before, after)| {
            let pairs = before
                .ratios
                .iter()
                .filter(stays)
                .zip(after.ratios.iter().filter(stays));
            pairs.map(|(&(id, priority, old), &(after_id, _, new))| {
                debug_assert_eq!(id, after_id, "ratio lists out of step");
                (priority, old, new)
            })
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

    /// Figure 3's decision procedure over the migration or the
    /// load-balancing targets: either reduce spending without hurting
    /// performance (all demands met) or raise the ratio of the
    /// highest-priority unsatisfied task.
    fn best(&self, migration: bool) -> Option<Move> {
        let mut best: Option<(Move, f64)> = None; // (move, performance gain key)
        for (src, cl) in self.snapshot.clusters.iter().enumerate() {
            let constrained = cl.constrained_core();
            let tasks = &cl.cores[constrained].tasks;
            let offset: usize = cl.cores[..constrained].iter().map(|c| c.tasks.len()).sum();
            let ratios = &self.before[src].ratios[offset..offset + tasks.len()];
            // Candidate movers: task agents in the constrained core; when
            // some demands are unmet, only the unsatisfied ones there
            // contemplate moving (Figure 3).
            let movers: Vec<usize> = (0..tasks.len())
                .filter(|&i| self.all_meet || ratios[i].2 < 1.0 - EPS)
                .collect();
            // Migration targets every other cluster's most over-supplied
            // unconstrained core; load balancing, the source cluster's own.
            let dsts = self
                .targets
                .iter()
                .copied()
                .enumerate()
                .filter(|&(ci, core)| {
                    if migration {
                        ci != src
                    } else {
                        ci == src && cl.cores.len() > 1 && core != constrained
                    }
                });
            for (dst, dst_core) in dsts {
                for &mover in &movers {
                    let (cand, perf, (old_r, new_r)) =
                        self.evaluate(src, constrained, mover, dst, dst_core);
                    let (goal, gain, better) = if self.all_meet {
                        // Power goal (Figure 3, left branch): the profiled
                        // power estimate must drop while performance does
                        // not. (Formally spend(M′) < spend(M); speculating
                        // with profiled power per core type, as §5.2 does,
                        // also prices keeping a cluster online.)
                        let better = cand.power_delta.value() < -EPS
                            && perf.not_worse()
                            && best.is_none_or(|(m, _)| cand.power_delta < m.power_delta);
                        (MoveGoal::PowerEfficiency, 0.0, better)
                    } else {
                        // Performance goal (Figure 3, right branch): the
                        // mover's ratio must improve without hurting
                        // higher-priority tasks; prefer the highest-priority
                        // mover, then the largest gain, then better power.
                        let gain = (tasks[mover].priority as f64) * 1e6 + (new_r - old_r);
                        let better = perf.better()
                            && new_r > old_r + EPS
                            && best.is_none_or(|(m, best_gain)| {
                                gain > best_gain + EPS
                                    || ((gain - best_gain).abs() <= EPS
                                        && cand.power_delta < m.power_delta)
                            });
                        (MoveGoal::Performance, gain, better)
                    };
                    if better {
                        best = Some((Move { goal, ..cand }, gain));
                    }
                }
            }
        }
        best.map(|(m, _)| m)
    }
}

/// One LBT invocation (§3.3): with `migrate`, the best cross-cluster
/// migration, else (or when none qualifies) the best intra-cluster
/// load-balancing move. Both searches share one estimate of the current
/// mapping; at most one move is approved.
pub fn decide_move(snapshot: &LbtSnapshot, migrate: bool) -> Option<Move> {
    let pass = Pass::new(snapshot);
    let migration = if migrate { pass.best(true) } else { None };
    migration.or_else(|| pass.best(false))
}

/// Cross-cluster task migration (§3.3): consider, for every cluster's
/// constrained core, moving one task to the most over-supplied
/// unconstrained core of each *other* cluster. At most one move is approved
/// per invocation.
pub fn decide_migration(snapshot: &LbtSnapshot) -> Option<Move> {
    Pass::new(snapshot).best(true)
}

/// Intra-cluster load balancing (§3.3): move one task from the constrained
/// core to the most over-supplied unconstrained core of the *same* cluster.
pub fn decide_load_balance(snapshot: &LbtSnapshot) -> Option<Move> {
    Pass::new(snapshot).best(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: usize, prio: u32, d_little: f64, speedup: f64, supply: f64) -> TaskSnapshot {
        TaskSnapshot {
            id: TaskId(id),
            priority: prio,
            demand: PerClass::new(
                ProcessingUnits(d_little),
                ProcessingUnits(d_little / speedup),
            ),
            supply: ProcessingUnits(supply),
            bid: Money(1.0),
        }
    }

    /// Per-level voltage ramp matching `linear_table` (900..1250 mV).
    fn volts(level: usize, levels: usize) -> f64 {
        0.9 + 0.35 * level as f64 / (levels - 1) as f64
    }

    /// TC2-shaped snapshot: 3 LITTLE cores (350..1000), 2 big (500..1200),
    /// with power profiles derived from the TC2 power-model coefficients.
    fn tc2_snapshot(little: Vec<Vec<TaskSnapshot>>, big: Vec<Vec<TaskSnapshot>>) -> LbtSnapshot {
        let ladder_l: Vec<ProcessingUnits> = [350, 400, 500, 600, 700, 800, 900, 1000]
            .iter()
            .map(|&f| ProcessingUnits(f as f64))
            .collect();
        let ladder_b: Vec<ProcessingUnits> = [500, 600, 700, 800, 900, 1000, 1100, 1200]
            .iter()
            .map(|&f| ProcessingUnits(f as f64))
            .collect();
        let profile_l = ClusterPowerProfile {
            idle: (0..8)
                .map(|l| Watts(0.05 + 3.0 * 0.02 * volts(l, 8)))
                .collect(),
            watts_per_pu: (0..8).map(|l| 0.0004 * volts(l, 8).powi(2)).collect(),
        };
        let profile_b = ClusterPowerProfile {
            idle: (0..8)
                .map(|l| Watts(0.125 + 2.0 * 0.1 * volts(l, 8)))
                .collect(),
            watts_per_pu: (0..8).map(|l| 0.0015 * volts(l, 8).powi(2)).collect(),
        };
        LbtSnapshot {
            clusters: vec![
                ClusterSnapshot {
                    id: ClusterId(0),
                    class: CoreClass::Little,
                    ladder: ladder_l,
                    level: 2,
                    price: Price(0.005),
                    power: profile_l,
                    cores: little
                        .into_iter()
                        .enumerate()
                        .map(|(i, tasks)| CoreSnapshot {
                            id: CoreId(i),
                            tasks,
                        })
                        .collect(),
                },
                ClusterSnapshot {
                    id: ClusterId(1),
                    class: CoreClass::Big,
                    ladder: ladder_b,
                    level: 0,
                    price: Price(0.004),
                    power: profile_b,
                    cores: big
                        .into_iter()
                        .enumerate()
                        .map(|(i, tasks)| CoreSnapshot {
                            id: CoreId(3 + i),
                            tasks,
                        })
                        .collect(),
                },
            ],
            tolerance: 0.2,
            min_bid: Money(0.01),
            supply_capped: false,
        }
    }

    #[test]
    fn constrained_core_is_highest_demand() {
        let s = tc2_snapshot(
            vec![
                vec![task(0, 1, 300.0, 1.8, 300.0)],
                vec![task(1, 1, 700.0, 1.8, 500.0)],
                vec![],
            ],
            vec![vec![], vec![]],
        );
        assert_eq!(s.clusters[0].constrained_core(), 1);
        // Most over-supplied unconstrained: the empty core 2.
        assert_eq!(s.clusters[0].most_oversupplied_unconstrained(), 2);
    }

    #[test]
    fn estimate_settles_at_level_covering_demand() {
        let s = tc2_snapshot(
            vec![vec![task(0, 1, 650.0, 1.8, 500.0)], vec![], vec![]],
            vec![vec![], vec![]],
        );
        let est = estimate_cluster(&s, &s.clusters[0], &assignment_of(&s.clusters[0]));
        // 650 PU demand -> level with 700 PU supply (index 4).
        assert_eq!(est.level, 4);
        // Price inflated two levels from 0.005 (level 2): 0.005·1.2².
        assert!((est.price.value() - 0.005 * 1.44).abs() < 1e-9);
        // Lone task meets demand.
        assert_eq!(est.ratios.len(), 1);
        assert!((est.ratios[0].2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_caps_ratio_below_one_when_overloaded() {
        let s = tc2_snapshot(
            vec![
                vec![task(0, 1, 800.0, 1.8, 500.0), task(1, 1, 800.0, 1.8, 500.0)],
                vec![],
                vec![],
            ],
            vec![vec![], vec![]],
        );
        let est = estimate_cluster(&s, &s.clusters[0], &assignment_of(&s.clusters[0]));
        // 1600 PU demand saturates at the 1000 PU top level; equal
        // priorities split it 500/500 -> ratios 0.625.
        assert_eq!(est.level, 7);
        for &(_, _, r) in &est.ratios {
            assert!((r - 0.625).abs() < 1e-9, "ratio {r}");
        }
    }

    #[test]
    fn priority_weighted_split_favours_high_priority() {
        let s = tc2_snapshot(
            vec![
                vec![task(0, 3, 800.0, 1.8, 500.0), task(1, 1, 800.0, 1.8, 500.0)],
                vec![],
                vec![],
            ],
            vec![vec![], vec![]],
        );
        let est = estimate_cluster(&s, &s.clusters[0], &assignment_of(&s.clusters[0]));
        let r0 = est
            .ratios
            .iter()
            .find(|(i, _, _)| *i == TaskId(0))
            .expect("t0")
            .2;
        let r1 = est
            .ratios
            .iter()
            .find(|(i, _, _)| *i == TaskId(1))
            .expect("t1")
            .2;
        assert!(r0 > r1);
        assert!((r0 - 750.0 / 800.0).abs() < 1e-9);
        assert!((r1 - 250.0 / 800.0).abs() < 1e-9);
    }

    #[test]
    fn migration_moves_unsatisfied_task_to_big_cluster() {
        // Two heavy tasks overload a LITTLE core while the big cluster
        // idles: the performance branch must move one across.
        let s = tc2_snapshot(
            vec![
                vec![task(0, 1, 900.0, 1.8, 500.0), task(1, 1, 900.0, 1.8, 500.0)],
                vec![],
                vec![],
            ],
            vec![vec![], vec![]],
        );
        let m = decide_migration(&s).expect("a move is warranted");
        assert_eq!(m.goal, MoveGoal::Performance);
        assert!(m.to_core == CoreId(3) || m.to_core == CoreId(4));
    }

    #[test]
    fn migration_prefers_little_cluster_when_it_saves_money() {
        // A single light task sits alone on a big core whose price makes it
        // expensive; the LITTLE cluster is cheaper: the power branch should
        // repatriate it. (The classic big.LITTLE energy argument.)
        let s = tc2_snapshot(
            vec![vec![], vec![], vec![]],
            vec![vec![task(0, 1, 300.0, 1.8, 300.0)], vec![]],
        );
        let m = decide_migration(&s).expect("a power move is warranted");
        assert_eq!(m.goal, MoveGoal::PowerEfficiency);
        assert!(m.to_core.0 <= 2, "target should be a LITTLE core: {m}");
        assert!(m.power_delta.value() < 0.0);
    }

    #[test]
    fn no_move_when_current_mapping_is_best() {
        // One light task per LITTLE core, big cluster idle: demands met at
        // a low level and nothing cheaper exists (big price floor higher).
        let s = tc2_snapshot(
            vec![
                vec![task(0, 1, 200.0, 1.8, 350.0)],
                vec![task(1, 1, 200.0, 1.8, 350.0)],
                vec![task(2, 1, 200.0, 1.8, 350.0)],
            ],
            vec![vec![], vec![]],
        );
        assert_eq!(decide_migration(&s), None);
    }

    #[test]
    fn load_balancing_spreads_within_cluster() {
        // Two tasks pile on core 0 forcing a high level; core 1 is empty:
        // balancing moves one task over, halving the constrained demand.
        let s = tc2_snapshot(
            vec![
                vec![task(0, 1, 400.0, 1.8, 250.0), task(1, 1, 400.0, 1.8, 250.0)],
                vec![],
                vec![],
            ],
            vec![vec![], vec![]],
        );
        let m = decide_load_balance(&s).expect("balance is warranted");
        assert!(m.to_core.0 <= 2);
        assert_ne!(m.to_core, CoreId(0));
    }

    #[test]
    fn load_balance_ignores_single_core_clusters() {
        let ladder: Vec<ProcessingUnits> = vec![ProcessingUnits(300.0), ProcessingUnits(600.0)];
        let s = LbtSnapshot {
            clusters: vec![ClusterSnapshot {
                id: ClusterId(0),
                class: CoreClass::Little,
                ladder,
                level: 0,
                price: Price(0.01),
                power: ClusterPowerProfile {
                    idle: vec![Watts(0.1), Watts(0.15)],
                    watts_per_pu: vec![0.0003, 0.0005],
                },
                cores: vec![CoreSnapshot {
                    id: CoreId(0),
                    tasks: vec![task(0, 1, 500.0, 1.8, 300.0), task(1, 1, 500.0, 1.8, 300.0)],
                }],
            }],
            tolerance: 0.2,
            min_bid: Money(0.01),
            supply_capped: false,
        };
        assert_eq!(decide_load_balance(&s), None);
    }

    /// `perf_better` and `perf_not_worse` of `new` against `old`, aligned
    /// by position.
    fn perf_better(new: &[(TaskId, u32, f64)], old: &[(TaskId, u32, f64)]) -> bool {
        perf_change(new, old).better()
    }

    fn perf_not_worse(new: &[(TaskId, u32, f64)], old: &[(TaskId, u32, f64)]) -> bool {
        perf_change(new, old).not_worse()
    }

    fn perf_change(new: &[(TaskId, u32, f64)], old: &[(TaskId, u32, f64)]) -> PerfChange {
        PerfChange::of(
            new.iter()
                .zip(old)
                .map(|(&(id, prio, n), &(old_id, _, o))| {
                    assert_eq!(id, old_id);
                    (prio, o, n)
                }),
        )
    }

    #[test]
    fn perf_comparison_follows_priority_order() {
        let old = vec![(TaskId(0), 2, 0.8), (TaskId(1), 1, 0.5)];
        // Low-priority task improves, high-priority untouched: better.
        let new = vec![(TaskId(0), 2, 0.8), (TaskId(1), 1, 0.9)];
        assert!(perf_better(&new, &old));
        // Low-priority improves at the expense of the high-priority: the
        // improving task (prio 1) requires all higher-priority tasks to be
        // no worse, so this is NOT better.
        let new = vec![(TaskId(0), 2, 0.6), (TaskId(1), 1, 1.0)];
        assert!(!perf_better(&new, &old));
        // High-priority improves while the low-priority degrades: better by
        // the paper's definition (only strictly-higher priorities protect).
        let new = vec![(TaskId(0), 2, 1.0), (TaskId(1), 1, 0.2)];
        assert!(perf_better(&new, &old));
        // Everything worse: not better, and not `perf_not_worse` either.
        let new = vec![(TaskId(0), 2, 0.5), (TaskId(1), 1, 0.3)];
        assert!(!perf_better(&new, &old));
        assert!(!perf_not_worse(&new, &old));
        // Identical: not strictly better, but not worse.
        assert!(!perf_better(&old, &old));
        assert!(perf_not_worse(&old, &old));
    }

    #[test]
    fn migration_count_is_bounded_under_repeated_invocation() {
        // §3.3.1: applying the chosen move and re-running must terminate —
        // no cyclic movement. Simulate by applying moves to the snapshot.
        let mut s = tc2_snapshot(
            vec![
                vec![
                    task(0, 3, 700.0, 1.8, 300.0),
                    task(1, 2, 600.0, 1.8, 300.0),
                    task(2, 1, 500.0, 1.8, 300.0),
                ],
                vec![],
                vec![],
            ],
            vec![vec![], vec![]],
        );
        let mut moves = 0;
        for _ in 0..20 {
            let Some(m) = decide_move(&s, true) else {
                break;
            };
            moves += 1;
            // Apply the move to the snapshot.
            let mut moved: Option<TaskSnapshot> = None;
            for cl in &mut s.clusters {
                for core in &mut cl.cores {
                    if let Some(pos) = core.tasks.iter().position(|t| t.id == m.task) {
                        moved = Some(core.tasks.remove(pos));
                    }
                }
            }
            let t = moved.expect("task exists");
            for cl in &mut s.clusters {
                for core in &mut cl.cores {
                    if core.id == m.to_core {
                        core.tasks.push(t);
                    }
                }
            }
        }
        assert!(moves > 0, "the overloaded core must shed tasks");
        assert!(
            moves < 20,
            "LBT must reach a fixed point, got {moves} moves"
        );
    }
}

/// Aggregate view of a remote cluster as disseminated to a constrained
/// core's task agents (§3.3: "all the information required for the
/// estimation is hierarchically disseminated … and kept consistent with
/// periodic message passing").
#[derive(Debug, Clone)]
pub struct RemoteCluster {
    /// Core class of the remote cluster.
    pub class: CoreClass,
    /// Current price on the remote constrained core.
    pub price: Price,
    /// Current V-F level.
    pub level: usize,
    /// Per-core supply ladder.
    pub ladder: Vec<ProcessingUnits>,
    /// Per-core `(summed demand, summed priority)` aggregates, one entry
    /// per core of the cluster.
    pub cores: Vec<(ProcessingUnits, u32)>,
}

/// The best move found by a constrained-core scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanResult {
    /// Which local task should migrate.
    pub task: TaskId,
    /// Index of the destination cluster in the `remotes` slice.
    pub cluster: usize,
    /// Index of the destination core within that cluster.
    pub core: usize,
    /// Estimated supply/demand ratio of the task after the move.
    pub ratio: f64,
    /// Estimated steady-state spending of the task after the move.
    pub spend: Money,
}

/// The distributed LBT computation one constrained core performs — the
/// workload measured in Table 7.
///
/// For each of the `tasks` mapped to the constrained core, estimate the
/// performance (supply/demand ratio) and spending of migrating it to the
/// most over-supplied core of each remote cluster, using the Eq. 2 price
/// recursion for the steady-state price. Complexity `O(V·C + T·V·L)` for
/// `V` remote clusters of `C` cores, `T` local tasks, and `L` V-F levels —
/// the `T × V × M` of §5.5.
///
/// Returns the candidate with the best ratio (ties broken by spending), or
/// `None` when `tasks` or `remotes` is empty.
pub fn constrained_core_scan(
    tasks: &[TaskSnapshot],
    remotes: &[RemoteCluster],
    tolerance: f64,
) -> Option<ScanResult> {
    // Pick each remote cluster's target core once: most over-supplied.
    let targets: Vec<(usize, ProcessingUnits, u32)> = remotes
        .iter()
        .map(|r| {
            let supply = r.ladder[r.level];
            let mut best = (0usize, ProcessingUnits::ZERO, 0u32);
            let mut best_slack = f64::NEG_INFINITY;
            for (i, &(d, p)) in r.cores.iter().enumerate() {
                let slack = supply.value() - d.value();
                if slack > best_slack {
                    best_slack = slack;
                    best = (i, d, p);
                }
            }
            best
        })
        .collect();

    let mut best: Option<ScanResult> = None;
    for t in tasks {
        for (ci, r) in remotes.iter().enumerate() {
            let (core_idx, core_demand, core_priority) = targets[ci];
            let d = t.demand_on(r.class);
            let new_demand = core_demand + d;
            let level = level_covering(&r.ladder, new_demand);
            let supply = r.ladder[level];
            let price = price_at(r.price, r.level, level, tolerance);
            // Priority-proportional steady-state share, capped at demand.
            let total_r = (core_priority + t.priority) as f64;
            let share = (supply * (t.priority as f64 / total_r)).min(d);
            let ratio = if d.is_positive() { share / d } else { 1.0 };
            let spend = price * share;
            let better = match &best {
                None => true,
                Some(b) => {
                    ratio > b.ratio + EPS || ((ratio - b.ratio).abs() <= EPS && spend < b.spend)
                }
            };
            if better {
                best = Some(ScanResult {
                    task: t.id,
                    cluster: ci,
                    core: core_idx,
                    ratio,
                    spend,
                });
            }
        }
    }
    best
}

#[cfg(test)]
mod scan_tests {
    use super::*;

    fn task(id: usize, prio: u32, d_little: f64) -> TaskSnapshot {
        TaskSnapshot {
            id: TaskId(id),
            priority: prio,
            demand: PerClass::new(ProcessingUnits(d_little), ProcessingUnits(d_little / 1.8)),
            supply: ProcessingUnits(d_little * 0.6),
            bid: Money(1.0),
        }
    }

    fn remote(class: CoreClass, cores: usize, free: bool) -> RemoteCluster {
        RemoteCluster {
            class,
            price: Price(0.005),
            level: 1,
            ladder: vec![
                ProcessingUnits(400.0),
                ProcessingUnits(800.0),
                ProcessingUnits(1200.0),
            ],
            cores: (0..cores)
                .map(|i| {
                    if free {
                        (ProcessingUnits::ZERO, 0)
                    } else {
                        (ProcessingUnits(300.0 + 50.0 * i as f64), 2)
                    }
                })
                .collect(),
        }
    }

    #[test]
    fn scan_finds_a_candidate() {
        let tasks = vec![task(0, 1, 500.0), task(1, 2, 700.0)];
        let remotes = vec![
            remote(CoreClass::Big, 4, false),
            remote(CoreClass::Little, 4, true),
        ];
        let r = constrained_core_scan(&tasks, &remotes, 0.2).expect("candidates exist");
        assert!(r.ratio > 0.0 && r.ratio <= 1.0);
        assert!(r.cluster < remotes.len());
    }

    #[test]
    fn scan_prefers_the_emptier_cluster() {
        let tasks = vec![task(0, 1, 600.0)];
        // Cluster 0 is crowded; cluster 1 has idle cores of the same class.
        let remotes = vec![
            remote(CoreClass::Little, 4, false),
            remote(CoreClass::Little, 4, true),
        ];
        let r = constrained_core_scan(&tasks, &remotes, 0.2).expect("candidate");
        assert_eq!(r.cluster, 1, "empty cores give the better ratio");
    }

    #[test]
    fn scan_handles_empty_inputs() {
        assert!(constrained_core_scan(&[], &[remote(CoreClass::Big, 2, true)], 0.2).is_none());
        assert!(constrained_core_scan(&[task(0, 1, 100.0)], &[], 0.2).is_none());
    }
}
