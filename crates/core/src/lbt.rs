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
//! The manager runs [`Lbt::decide_move`]: one whole-chip pass over an
//! [`LbtSnapshot`] of per-task estimates (its cost in a run is the
//! benchmark's `core.lbt` layer). A move changes the task lists of two
//! cores only, and every other core's priority-proportional split depends
//! only on its own tasks and on its cluster's settled per-core supply, one
//! of the ladder's values. So the pass splits each core once per settled
//! level, on first use, and judges a candidate by splitting just the source
//! core (without the mover) and the destination core (with it), then
//! re-folding the touched clusters' spending in core and task order. A
//! migration's source side does not depend on the destination, so it is
//! folded once per mover. Every decision is bit-identical to estimating the
//! touched clusters whole with [`estimate_cluster`]. The [`Lbt`] keeps the
//! caches across invocations, so a pass does not allocate once they have
//! grown to the chip.
//!
//! Table 7 times that pass and, beside it, [`constrained_core_scan`]: the
//! paper's per-constrained-core scan over the aggregates "hierarchically
//! disseminated from the cluster agents to the chip agents and subsequently
//! to the task agents" ([`RemoteCluster`]), on synthetic inputs of up to 256
//! clusters × 16 cores × 32 tasks. The manager never runs the scan.

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
    /// Per-core summed demand, in core order.
    fn demands(&self) -> Vec<ProcessingUnits> {
        self.cores
            .iter()
            .map(|c| c.total_demand(self.class))
            .collect()
    }

    /// Index of the constrained core: the one with the highest demand.
    pub fn constrained_core(&self) -> usize {
        constrained_of(&self.demands())
    }

    /// Index of the most over-supplied core other than the constrained one
    /// (the paper's sole migration target per cluster). Falls back to the
    /// only core when the cluster has just one.
    pub fn most_oversupplied_unconstrained(&self) -> usize {
        most_oversupplied_of(self, &self.demands())
    }
}

/// Index of the highest of the per-core `demands` (the first on a tie).
fn constrained_of(demands: &[ProcessingUnits]) -> usize {
    let mut best = 0;
    let mut best_d = ProcessingUnits::ZERO;
    for (i, &d) in demands.iter().enumerate() {
        if i == 0 || d > best_d {
            best = i;
            best_d = d;
        }
    }
    best
}

/// [`ClusterSnapshot::most_oversupplied_unconstrained`] of `cluster`, whose
/// per-core summed demands are `demands`.
fn most_oversupplied_of(cluster: &ClusterSnapshot, demands: &[ProcessingUnits]) -> usize {
    if demands.len() == 1 {
        return 0;
    }
    let constrained = constrained_of(demands);
    let supply = cluster.ladder[cluster.level];
    let mut best = usize::MAX;
    let mut best_slack = f64::NEG_INFINITY;
    for (i, d) in demands.iter().enumerate() {
        if i == constrained {
            continue;
        }
        let slack = supply.value() - d.value();
        if slack > best_slack {
            best_slack = slack;
            best = i;
        }
    }
    best
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
#[derive(Debug, Clone, Default, PartialEq)]
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

/// The settled level, per-core supply and price of `cluster` when its cores'
/// summed demands are `demands` (§3.3): the lowest level whose supply covers
/// the constrained demand (demand rounded up to the next supply value),
/// never above the current level under the cap, priced by the Eq. 2
/// recursion from the currently observed price.
fn settle(
    snapshot: &LbtSnapshot,
    cluster: &ClusterSnapshot,
    demands: impl IntoIterator<Item = ProcessingUnits>,
) -> (usize, ProcessingUnits, Price) {
    // Constrained demand decides the settled level.
    let constrained_demand = demands
        .into_iter()
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
    (level, supply, price)
}

/// Divide `supply` among one core's `(priority, demand)` tasks in
/// proportion to priority, capped at demand (water-filling), into `grants`.
/// `active` is scratch.
fn water_fill(
    tasks: &[(u32, ProcessingUnits)],
    supply: ProcessingUnits,
    grants: &mut Vec<ProcessingUnits>,
    active: &mut Vec<usize>,
) {
    grants.clear();
    grants.resize(tasks.len(), ProcessingUnits::ZERO);
    active.clear();
    active.extend(0..tasks.len());
    let mut remaining = supply;
    while !active.is_empty() && remaining.is_positive() {
        let total_r: f64 = active.iter().map(|&i| tasks[i].0 as f64).sum();
        if total_r <= 0.0 {
            break;
        }
        let mut consumed = ProcessingUnits::ZERO;
        let mut kept = 0;
        for k in 0..active.len() {
            let i = active[k];
            let (priority, demand) = tasks[i];
            let share = remaining * (priority as f64 / total_r);
            let headroom = demand - grants[i];
            if share >= headroom {
                grants[i] = demand;
                consumed += headroom;
            } else {
                grants[i] += share;
                consumed += share;
                active[kept] = i;
                kept += 1;
            }
        }
        remaining -= consumed;
        if kept == active.len() {
            break;
        }
        active.truncate(kept);
    }
}

/// A task's supply/demand ratio when granted `grant` of `demand`.
fn ratio(grant: ProcessingUnits, demand: ProcessingUnits) -> f64 {
    let ratio = if demand.is_positive() {
        grant / demand
    } else {
        1.0
    };
    ratio.min(1.0)
}

/// Aggregate spending and consumed PU of a cluster's tasks, folded one
/// grant at a time in core and task order.
#[derive(Debug, Clone, Copy, Default)]
struct Fold {
    spend: Money,
    used: ProcessingUnits,
}

impl Fold {
    /// A task granted `grant` at `price` bids `price × grant`.
    fn add(&mut self, price: Price, grant: ProcessingUnits) {
        self.spend += price * grant;
        self.used += grant;
    }
}

/// Estimate the steady state of `cluster` when its cores host `assignment`
/// (one task list per core, same order as `cluster.cores`).
///
/// The estimate follows §3.3: the cluster settles at the lowest level whose
/// supply covers the constrained demand (demand rounded up to the next
/// supply value); the price at that level follows the Eq. 2 recursion from
/// the currently observed price; each core's supply is divided among its
/// tasks proportionally to priority but capped at demand; the steady-state
/// bid of a task is `price × supply`. The LBT pass makes the same split and
/// fold, splitting only the cores a move touches.
pub fn estimate_cluster(
    snapshot: &LbtSnapshot,
    cluster: &ClusterSnapshot,
    assignment: &[Vec<&TaskSnapshot>],
) -> ClusterEstimate {
    debug_assert_eq!(assignment.len(), cluster.cores.len());
    let class = cluster.class;
    let demands = assignment
        .iter()
        .map(|ts| -> ProcessingUnits { ts.iter().map(|t| t.demand_on(class)).sum() });
    let (level, supply, price) = settle(snapshot, cluster, demands);
    let mut split = CoreSplit::default();
    let mut active = Vec::new();
    let mut ratios = Vec::new();
    let mut fold = Fold::default();
    for tasks in assignment {
        split.refill(tasks.iter().copied(), class);
        split.run(supply, &mut active);
        for (t, &grant) in tasks.iter().zip(&split.grants) {
            ratios.push((t.id, t.priority, ratio(grant, t.demand_on(class))));
            fold.add(price, grant);
        }
    }
    let power = cluster.power.power(level, fold.used, !ratios.is_empty());
    ClusterEstimate {
        level,
        price,
        ratios,
        spend: fold.spend,
        power,
    }
}

/// How a move changes the supply/demand ratios of the tasks it touches,
/// folded in one pass over `(priority, old, new)` triples, one per task.
/// §3.3's two comparisons depend only on each task's own pair, and an
/// unchanged ratio satisfies both, so a move is judged on the tasks whose
/// ratio it can change; the fold is a maximum, so their order is free.
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
            change.add(priority, old, new);
        }
        change
    }

    /// Fold one task's `(priority, old, new)` triple.
    fn add(&mut self, priority: u32, old: f64, new: f64) {
        if new > old + EPS {
            self.improved = self.improved.max(Some(priority));
        } else if new < old - EPS {
            self.worsened = self.worsened.max(Some(priority));
        }
    }

    /// The fold of both changes' triples.
    fn merge(self, other: PerfChange) -> PerfChange {
        PerfChange {
            improved: self.improved.max(other.improved),
            worsened: self.worsened.max(other.worsened),
        }
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

/// One core's `(priority, demand)` task list and its split.
#[derive(Debug, Default)]
struct CoreSplit {
    tasks: Vec<(u32, ProcessingUnits)>,
    grants: Vec<ProcessingUnits>,
}

impl CoreSplit {
    /// Refill the task list with `tasks` as seen on a core of `class`.
    fn refill<'t>(&mut self, tasks: impl Iterator<Item = &'t TaskSnapshot>, class: CoreClass) {
        self.tasks.clear();
        self.tasks
            .extend(tasks.map(|t| (t.priority, t.demand_on(class))));
    }

    /// Summed demand of the task list.
    fn demand(&self) -> ProcessingUnits {
        self.tasks.iter().map(|&(_, d)| d).sum()
    }

    /// Split `supply` among the task list.
    fn run(&mut self, supply: ProcessingUnits, active: &mut Vec<usize>) {
        water_fill(&self.tasks, supply, &mut self.grants, active);
    }
}

/// The settled state of one cluster under a mapping, as a move is judged.
#[derive(Debug, Clone, Copy, Default)]
struct Settled {
    level: usize,
    spend: Money,
    power: Watts,
}

/// Where one cluster's state sits in an [`Lbt`]'s flat buffers, and what
/// the pass derived for it.
#[derive(Debug, Clone, Copy, Default)]
struct ClusterPass {
    /// Index of the cluster's first core in the per-core buffers.
    first_core: usize,
    /// Tasks hosted by the cluster.
    tasks: usize,
    /// Offset of the cluster's per-level entries in [`Lbt::rows`].
    first_level: usize,
    /// The constrained core.
    constrained: usize,
    /// The most over-supplied unconstrained core.
    target: usize,
    /// The current mapping's settled state.
    before: Settled,
}

/// The LBT module's working state, kept across invocations: per-core demand
/// sums, the per-level split caches and the scratch a candidate is judged
/// in. Every buffer is sized by the snapshot and refilled in place, so once
/// they have grown to the chip an invocation does not allocate.
#[derive(Debug, Default)]
pub struct Lbt {
    clusters: Vec<ClusterPass>,
    /// Summed demand `D_c` of every core, clusters in order.
    demands: Vec<ProcessingUnits>,
    /// Offset of every core's first task among its cluster's tasks.
    first_task: Vec<usize>,
    /// Split rows, one `(grant, ratio)` per task of a cluster at one level
    /// of its ladder, appended as the pass first needs them.
    splits: Vec<(ProcessingUnits, f64)>,
    /// Where each cluster's row at each level starts in [`Lbt::splits`],
    /// once computed this pass.
    rows: Vec<Option<usize>>,
    /// Scratch: a split row being computed, the source core without the
    /// mover, the destination core with it, and the water-filling worklist.
    filling: CoreSplit,
    src: CoreSplit,
    dst: CoreSplit,
    active: Vec<usize>,
    /// The movers of the source cluster being searched, with the source
    /// cluster's state after each leaves (migration only).
    movers: Vec<(usize, Settled, PerfChange)>,
}

impl Lbt {
    /// One LBT invocation (§3.3): with `migrate`, the best cross-cluster
    /// migration, else (or when none qualifies) the best intra-cluster
    /// load-balancing move. Both searches share one estimate of the current
    /// mapping; at most one move is approved.
    pub fn decide_move(&mut self, snapshot: &LbtSnapshot, migrate: bool) -> Option<Move> {
        let mut pass = Pass::new(snapshot, self);
        let migration = if migrate { pass.best(true) } else { None };
        migration.or_else(|| pass.best(false))
    }

    /// The split row of cluster `ci` (`cluster`) at `level`: each core's
    /// supply at that level divided among its tasks. Computed once per
    /// level and pass.
    fn fill(&mut self, ci: usize, cluster: &ClusterSnapshot, level: usize) {
        let row = &mut self.rows[self.clusters[ci].first_level + level];
        if row.is_some() {
            return;
        }
        *row = Some(self.splits.len());
        let supply = cluster.ladder[level];
        for core in &cluster.cores {
            self.filling.refill(core.tasks.iter(), cluster.class);
            self.filling.run(supply, &mut self.active);
            let split = self.filling.tasks.iter().zip(&self.filling.grants);
            self.splits
                .extend(split.map(|(&(_, demand), &grant)| (grant, ratio(grant, demand))));
        }
    }

    /// Task `i` of cluster `ci`'s `(grant, ratio)` at `level`.
    fn split(&self, ci: usize, level: usize, i: usize) -> (ProcessingUnits, f64) {
        let row = self.rows[self.clusters[ci].first_level + level];
        self.splits[row.expect("the row is split before it is read") + i]
    }
}

/// One LBT invocation over `snapshot`: each cluster's current mapping is
/// estimated once and shared by every candidate of both searches.
struct Pass<'a> {
    snapshot: &'a LbtSnapshot,
    lbt: &'a mut Lbt,
    /// Whether every task meets its demand under the current mapping.
    all_meet: bool,
}

impl<'a> Pass<'a> {
    fn new(snapshot: &'a LbtSnapshot, lbt: &'a mut Lbt) -> Self {
        lbt.clusters.clear();
        lbt.demands.clear();
        lbt.first_task.clear();
        lbt.splits.clear();
        lbt.rows.clear();
        let mut all_meet = true;
        for (ci, cl) in snapshot.clusters.iter().enumerate() {
            let first_core = lbt.demands.len();
            let mut tasks = 0;
            for core in &cl.cores {
                lbt.demands.push(core.total_demand(cl.class));
                lbt.first_task.push(tasks);
                tasks += core.tasks.len();
            }
            let demands = &lbt.demands[first_core..];
            let (level, _, price) = settle(snapshot, cl, demands.iter().copied());
            lbt.clusters.push(ClusterPass {
                first_core,
                tasks,
                first_level: lbt.rows.len(),
                constrained: constrained_of(demands),
                target: most_oversupplied_of(cl, demands),
                before: Settled::default(),
            });
            lbt.rows.resize(lbt.rows.len() + cl.ladder.len(), None);
            lbt.fill(ci, cl, level);
            let mut fold = Fold::default();
            for i in 0..tasks {
                let (grant, ratio) = lbt.split(ci, level, i);
                fold.add(price, grant);
                all_meet &= ratio >= 1.0 - EPS;
            }
            lbt.clusters[ci].before = Settled {
                level,
                spend: fold.spend,
                power: cl.power.power(level, fold.used, tasks > 0),
            };
        }
        Pass {
            snapshot,
            lbt,
            all_meet,
        }
    }

    /// Cluster `ci` after a move takes task `removed.1` off core
    /// `removed.0` and/or appends task `added.1` to core `added.0`: its
    /// settled state, the change in its other tasks' ratios, and the
    /// appended task's ratio. Only the touched cores are split afresh; the
    /// others come from the split row of the settled level.
    fn side(
        &mut self,
        ci: usize,
        removed: Option<(usize, usize)>,
        added: Option<(usize, &TaskSnapshot)>,
    ) -> (Settled, PerfChange, Option<f64>) {
        let snapshot = self.snapshot;
        let cl = &snapshot.clusters[ci];
        let lbt = &mut *self.lbt;
        let cp = lbt.clusters[ci];
        let src_core = removed.map(|(core, _)| core);
        let dst_core = added.map(|(core, _)| core);
        if let Some((core, mover)) = removed {
            let tasks = &cl.cores[core].tasks;
            lbt.src
                .refill(tasks[..mover].iter().chain(&tasks[mover + 1..]), cl.class);
        }
        if let Some((core, task)) = added {
            lbt.dst
                .refill(cl.cores[core].tasks.iter().chain([task]), cl.class);
        }
        let demands = (0..cl.cores.len()).map(|k| match k {
            k if Some(k) == src_core => lbt.src.demand(),
            k if Some(k) == dst_core => lbt.dst.demand(),
            k => lbt.demands[cp.first_core + k],
        });
        let (level, supply, price) = settle(snapshot, cl, demands);
        lbt.fill(ci, cl, level);
        if removed.is_some() {
            lbt.src.run(supply, &mut lbt.active);
        }
        if added.is_some() {
            lbt.dst.run(supply, &mut lbt.active);
        }

        let lbt = &*lbt;
        let before = |i: usize| lbt.split(ci, cp.before.level, i).1;
        let mut fold = Fold::default();
        let mut perf = PerfChange::default();
        let mut appended = None;
        for (k, core) in cl.cores.iter().enumerate() {
            let first = lbt.first_task[cp.first_core + k];
            if let Some((_, mover)) = removed.filter(|&(c, _)| c == k) {
                for (j, (&(priority, demand), &grant)) in
                    lbt.src.tasks.iter().zip(&lbt.src.grants).enumerate()
                {
                    fold.add(price, grant);
                    let i = if j < mover { j } else { j + 1 };
                    perf.add(priority, before(first + i), ratio(grant, demand));
                }
            } else if Some(k) == dst_core {
                for (i, (&(priority, demand), &grant)) in
                    lbt.dst.tasks.iter().zip(&lbt.dst.grants).enumerate()
                {
                    fold.add(price, grant);
                    let new = ratio(grant, demand);
                    if i < core.tasks.len() {
                        perf.add(priority, before(first + i), new);
                    } else {
                        appended = Some(new);
                    }
                }
            } else {
                for (i, t) in (first..).zip(&core.tasks) {
                    let (grant, new) = lbt.split(ci, level, i);
                    fold.add(price, grant);
                    // At the same level an untouched core splits as before.
                    if level != cp.before.level {
                        perf.add(t.priority, before(i), new);
                    }
                }
            }
        }
        let has_tasks = cp.tasks + usize::from(added.is_some()) > usize::from(removed.is_some());
        let after = Settled {
            level,
            spend: fold.spend,
            power: cl.power.power(level, fold.used, has_tasks),
        };
        (after, perf, appended)
    }

    /// Move the `mover`-th task (the `m`-th listed mover) of core
    /// `src_core` in cluster `src` to core `dst_core` of cluster `dst`,
    /// returning the move (its goal left for the caller to set), the
    /// performance change and the mover's ratio before and after.
    fn evaluate(
        &mut self,
        src: usize,
        src_core: usize,
        (m, mover): (usize, usize),
        dst: usize,
        dst_core: usize,
    ) -> (Move, PerfChange, (f64, f64)) {
        let clusters = &self.snapshot.clusters;
        let task: &'a TaskSnapshot = &clusters[src].cores[src_core].tasks[mover];
        let src_before = self.lbt.clusters[src].before;
        let first = self.lbt.first_task[self.lbt.clusters[src].first_core + src_core];
        let old = self.lbt.split(src, src_before.level, first + mover).1;
        let (spend_delta, power_delta, mut perf, new) = if dst == src {
            let (after, perf, new) =
                self.side(src, Some((src_core, mover)), Some((dst_core, task)));
            (
                after.spend - src_before.spend,
                after.power - src_before.power,
                perf,
                new,
            )
        } else {
            let (_, src_after, src_perf) = self.lbt.movers[m];
            let dst_before = self.lbt.clusters[dst].before;
            let (dst_after, dst_perf, new) = self.side(dst, None, Some((dst_core, task)));
            (
                (src_after.spend + dst_after.spend) - (src_before.spend + dst_before.spend),
                (src_after.power + dst_after.power) - (src_before.power + dst_before.power),
                src_perf.merge(dst_perf),
                new,
            )
        };
        let new = new.expect("the mover is appended to its destination");
        perf.add(task.priority, old, new);
        let m = Move {
            task: task.id,
            to_core: clusters[dst].cores[dst_core].id,
            goal: MoveGoal::Performance,
            spend_delta,
            power_delta,
        };
        (m, perf, (old, new))
    }

    /// Figure 3's decision procedure over the migration or the
    /// load-balancing targets: either reduce spending without hurting
    /// performance (all demands met) or raise the ratio of the
    /// highest-priority unsatisfied task.
    fn best(&mut self, migration: bool) -> Option<Move> {
        let clusters: &'a [ClusterSnapshot] = &self.snapshot.clusters;
        let mut best: Option<(Move, f64)> = None; // (move, performance gain key)
        for (src, cl) in clusters.iter().enumerate() {
            let cp = self.lbt.clusters[src];
            let constrained = cp.constrained;
            let tasks = &cl.cores[constrained].tasks;
            let first = self.lbt.first_task[cp.first_core + constrained];
            // Candidate movers: task agents in the constrained core; when
            // some demands are unmet, only the unsatisfied ones there
            // contemplate moving (Figure 3). A migration's source side is
            // the same whatever the destination, so it is settled once.
            self.lbt.movers.clear();
            for mover in 0..tasks.len() {
                let ratio = self.lbt.split(src, cp.before.level, first + mover).1;
                if !(self.all_meet || ratio < 1.0 - EPS) {
                    continue;
                }
                let (after, perf) = if migration {
                    let (after, perf, _) = self.side(src, Some((constrained, mover)), None);
                    (after, perf)
                } else {
                    Default::default()
                };
                self.lbt.movers.push((mover, after, perf));
            }
            // Migration targets every other cluster's most over-supplied
            // unconstrained core; load balancing, the source cluster's own.
            for dst in 0..clusters.len() {
                let dst_core = self.lbt.clusters[dst].target;
                let eligible = if migration {
                    dst != src
                } else {
                    dst == src && cl.cores.len() > 1 && dst_core != constrained
                };
                if !eligible {
                    continue;
                }
                for m in 0..self.lbt.movers.len() {
                    let mover = self.lbt.movers[m].0;
                    let (cand, perf, (old_r, new_r)) =
                        self.evaluate(src, constrained, (m, mover), dst, dst_core);
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

/// One LBT invocation with fresh working state; see [`Lbt::decide_move`],
/// which the manager runs on state it keeps.
pub fn decide_move(snapshot: &LbtSnapshot, migrate: bool) -> Option<Move> {
    Lbt::default().decide_move(snapshot, migrate)
}

/// Cross-cluster task migration (§3.3): consider, for every cluster's
/// constrained core, moving one task to the most over-supplied
/// unconstrained core of each *other* cluster. At most one move is approved
/// per invocation.
pub fn decide_migration(snapshot: &LbtSnapshot) -> Option<Move> {
    Pass::new(snapshot, &mut Lbt::default()).best(true)
}

/// Intra-cluster load balancing (§3.3): move one task from the constrained
/// core to the most over-supplied unconstrained core of the *same* cluster.
pub fn decide_load_balance(snapshot: &LbtSnapshot) -> Option<Move> {
    Pass::new(snapshot, &mut Lbt::default()).best(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Assignment of a cluster as plain reference lists (one per core).
    fn assignment_of(cluster: &ClusterSnapshot) -> Vec<Vec<&TaskSnapshot>> {
        cluster
            .cores
            .iter()
            .map(|c| c.tasks.iter().collect())
            .collect()
    }

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
