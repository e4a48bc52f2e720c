//! The supply-demand module (§3.2): task bidding, core price discovery,
//! cluster inflation/deflation control, and chip-level allowance control.
//!
//! The market is deliberately decoupled from the simulation executor: it
//! consumes a [`MarketObs`] snapshot (what the distributed agents would
//! observe through message passing) and emits a [`MarketDecision`] (shares
//! to grant, DVFS steps to request, the new global allowance). This makes
//! the running examples of Tables 1–3 directly replayable — see the golden
//! tests at the bottom of this module — and lets the scalability harness
//! drive the market without hardware.
//!
//! # Hot path
//!
//! [`Market::round_into`] is the per-round engine and is written to be
//! allocation-free and hasher-independent in steady state (see
//! DESIGN.md, *Hot path & determinism*). Raw [`TaskId`]/[`CoreId`]/
//! [`ClusterId`] values are resolved once per round into dense slots via
//! epoch-stamped sparse maps; all per-round working sets live in reusable
//! scratch buffers inside the [`Market`]; persistent task agents live in a
//! slot arena with a free list. Every loop runs in observation order (or
//! dense slot order derived from it), so a round's outcome is a pure
//! function of the market state and the snapshot — no `HashMap` iteration
//! order can leak into results.

use std::fmt;
use std::time::Instant;

use ppm_obs::{lap, Phase, PhaseProfiler};
use ppm_platform::cluster::ClusterId;
use ppm_platform::core::CoreId;
use ppm_platform::units::{Money, Price, ProcessingUnits, Watts};
use ppm_workload::task::TaskId;

use crate::agents::{chip_agent, cluster_agent, task_agent};
use crate::config::PpmConfig;
use crate::state::{allowance_delta, PowerState};

/// Sentinel for "no slot" in the dense index arenas.
const SLOT_NONE: u32 = u32::MAX;

/// What a task agent reports for one bidding round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskObs {
    /// The task.
    pub id: TaskId,
    /// The core it is mapped to (`c_t`).
    pub core: CoreId,
    /// Its user priority `r_t`.
    pub priority: u32,
    /// Its current demand `d_t` on its current core type, in PU.
    pub demand: ProcessingUnits,
}

/// What a core agent knows about its core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreObs {
    /// The core.
    pub id: CoreId,
    /// Its V-F cluster.
    pub cluster: ClusterId,
}

/// What a cluster agent observes about its regulator and power sensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterObs {
    /// The cluster.
    pub id: ClusterId,
    /// Current per-core supply `S_v` (0 when gated).
    pub supply: ProcessingUnits,
    /// Per-core supply one V-F level up, if not already at the top.
    pub supply_up: Option<ProcessingUnits>,
    /// Per-core supply one V-F level down, if not already at the bottom.
    pub supply_down: Option<ProcessingUnits>,
    /// Cluster power sensor reading `W_v`.
    pub power: Watts,
}

/// A full observation snapshot for one bidding round.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketObs {
    /// Chip power sensor reading `W`.
    pub chip_power: Watts,
    /// All task observations.
    pub tasks: Vec<TaskObs>,
    /// All cores (including idle ones).
    pub cores: Vec<CoreObs>,
    /// All clusters.
    pub clusters: Vec<ClusterObs>,
}

impl MarketObs {
    /// An empty snapshot, useful as a reusable buffer.
    pub fn empty() -> MarketObs {
        MarketObs {
            chip_power: Watts(0.0),
            tasks: Vec::new(),
            cores: Vec::new(),
            clusters: Vec::new(),
        }
    }
}

/// A DVFS step requested by a cluster agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VfStep {
    /// Raise the V-F level by one (fight inflation).
    Up,
    /// Lower the V-F level by one (fight deflation).
    Down,
}

/// Per-task outcome of one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskRound {
    /// The task.
    pub id: TaskId,
    /// Allowance `a_t` granted this round.
    pub allowance: Money,
    /// Bid `b_t` placed this round.
    pub bid: Money,
    /// Savings `m_t` after this round.
    pub savings: Money,
    /// Supply `s_t` purchased this round.
    pub supply: ProcessingUnits,
    /// Demand `d_t` observed this round.
    pub demand: ProcessingUnits,
}

/// The market's decision for one round.
///
/// All vectors are sorted by their id key, so two decisions are comparable
/// field-by-field and the sequence of decisions is reproducible
/// byte-for-byte across runs.
#[derive(Debug, Clone)]
pub struct MarketDecision {
    /// Supply to grant each task (`s_t = b_t / P_c`), sorted by task id.
    pub shares: Vec<(TaskId, ProcessingUnits)>,
    /// DVFS steps requested by cluster agents, in observation order.
    pub dvfs: Vec<(ClusterId, VfStep)>,
    /// Chip power state this round.
    pub state: PowerState,
    /// Global allowance `A` for the next round.
    pub allowance: Money,
    /// Per-core prices discovered this round, sorted by core id.
    pub prices: Vec<(CoreId, Price)>,
    /// Per-task dynamics (bids, savings, …) for tracing and the running
    /// examples, sorted by task id.
    pub tasks: Vec<TaskRound>,
    /// Tasks skipped this round because their core (or its cluster) was
    /// missing from the observation — a scheduler/observer race. They keep
    /// their agent state and rejoin the market once the mapping heals.
    pub orphans: Vec<(TaskId, CoreId)>,
    /// Total chip demand `D` (sum of constrained-core demands).
    pub total_demand: ProcessingUnits,
    /// Total chip supply `S` (sum of cluster supplies).
    pub total_supply: ProcessingUnits,
}

impl Default for MarketDecision {
    fn default() -> MarketDecision {
        MarketDecision {
            shares: Vec::new(),
            dvfs: Vec::new(),
            state: PowerState::Normal,
            allowance: Money::ZERO,
            prices: Vec::new(),
            tasks: Vec::new(),
            orphans: Vec::new(),
            total_demand: ProcessingUnits::ZERO,
            total_supply: ProcessingUnits::ZERO,
        }
    }
}

impl MarketDecision {
    /// Reset for reuse as a `round_into` output buffer; capacity is kept.
    fn reset(&mut self) {
        self.shares.clear();
        self.dvfs.clear();
        self.prices.clear();
        self.tasks.clear();
        self.orphans.clear();
        self.state = PowerState::Normal;
        self.allowance = Money::ZERO;
        self.total_demand = ProcessingUnits::ZERO;
        self.total_supply = ProcessingUnits::ZERO;
    }
}

/// Persistent per-task agent state, stored in a slot arena.
#[derive(Debug, Clone, Copy)]
struct TaskAgent {
    bid: Money,
    savings: Money,
    /// `d_t` and `s_t` of the previous round and the price paid, which drive
    /// the next bid (Eq. 1 uses round-N quantities for the round-N+1 bid).
    prev_demand: ProcessingUnits,
    prev_supply: ProcessingUnits,
    prev_price: Price,
    seen: bool,
}

impl TaskAgent {
    fn fresh(demand: ProcessingUnits) -> TaskAgent {
        TaskAgent {
            bid: Money::ZERO,
            savings: Money::ZERO,
            prev_demand: demand,
            prev_supply: ProcessingUnits::ZERO,
            prev_price: Price::ZERO,
            seen: false,
        }
    }
}

/// Persistent per-cluster agent state, indexed directly by raw cluster id
/// (clusters are few and densely numbered).
#[derive(Debug, Clone, Copy, Default)]
struct ClusterAgent {
    base_price: Price,
    has_base: bool,
    /// True while the regulator is switching: bids frozen, base price will
    /// be re-anchored at the next observed price.
    frozen: bool,
    /// Price observed in the previous round (for climb detection).
    last_price: Price,
}

/// Reusable per-round working sets. Sized to the snapshot each round
/// (`clear` + `resize` keeps capacity), so after warm-up a round touches no
/// allocator at all.
///
/// The raw-id → slot maps are *epoch stamped*: instead of clearing a sparse
/// `Vec` that may span the whole id space, each entry records the round
/// epoch it was written in, and a lookup only trusts entries stamped with
/// the current epoch. Invalidation is a single counter bump.
#[derive(Debug, Clone, Default)]
struct RoundScratch {
    epoch: u32,
    /// Raw `CoreId` → dense core slot for this round.
    core_map_epoch: Vec<u32>,
    core_map_slot: Vec<u32>,
    /// Raw `ClusterId` → dense cluster slot for this round.
    cluster_map_epoch: Vec<u32>,
    cluster_map_slot: Vec<u32>,

    // Per-core (dense, obs.cores order):
    core_cluster: Vec<u32>,
    core_bids: Vec<Money>,
    core_price: Vec<Price>,
    core_demand: Vec<ProcessingUnits>,
    core_tasks: Vec<u32>,

    // Per-task (dense, obs.tasks order):
    t_core: Vec<u32>,
    t_cluster: Vec<u32>,
    t_agent: Vec<u32>,
    t_allow: Vec<Money>,
    t_bid: Vec<Money>,

    // Per-cluster (dense, obs.clusters order):
    cl_priority: Vec<u32>,
    cl_tasks: Vec<u32>,
    cl_allow: Vec<Money>,
    cl_power: Vec<f64>,
    cl_reacting: Vec<bool>,
    cl_constrained: Vec<u32>,
    cl_constr_demand: Vec<ProcessingUnits>,
}

impl RoundScratch {
    fn next_epoch(&mut self) {
        if self.epoch == u32::MAX {
            // Wrap: stale stamps could collide with a reused epoch value, so
            // reset them all once every 2^32 rounds.
            self.core_map_epoch.fill(0);
            self.cluster_map_epoch.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }
}

/// Stamp `raw -> slot` in an epoch map, growing it on first sight of an id.
fn map_insert(epochs: &mut Vec<u32>, slots: &mut Vec<u32>, raw: usize, slot: u32, epoch: u32) {
    if epochs.len() <= raw {
        epochs.resize(raw + 1, 0);
        slots.resize(raw + 1, SLOT_NONE);
    }
    epochs[raw] = epoch;
    slots[raw] = slot;
}

/// Look up `raw` in an epoch map; stale or unknown ids give `SLOT_NONE`.
fn map_get(epochs: &[u32], slots: &[u32], raw: usize, epoch: u32) -> u32 {
    if raw < epochs.len() && epochs[raw] == epoch {
        slots[raw]
    } else {
        SLOT_NONE
    }
}

/// Resize `v` to `len` copies of `fill`, keeping its capacity.
fn refill<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    v.clear();
    v.resize(len, fill);
}

/// The supply-demand module: all agent state plus the round engine.
#[derive(Debug, Clone)]
pub struct Market {
    config: PpmConfig,
    /// Task agents in a slot arena; `task_slots[raw id]` points into it.
    task_agents: Vec<TaskAgent>,
    task_slots: Vec<u32>,
    free_agents: Vec<u32>,
    cluster_agents: Vec<ClusterAgent>,
    /// Global allowance `A`. Stays `None` until the market has observed at
    /// least one participating task, so an idle boot cannot anchor the money
    /// supply before there is anything to pay for.
    allowance: Option<Money>,
    state: PowerState,
    round: u64,
    /// Rounds remaining before another emergency cut may fire.
    emergency_cooldown: u32,
    scratch: RoundScratch,
}

impl Market {
    /// Rounds the chip agent waits between consecutive emergency allowance
    /// cuts, so one cut's effect (deflation, V-F steps) is observed before
    /// cutting again — Table 3 holds `A` for two rounds after the cut.
    pub const EMERGENCY_COOLDOWN_ROUNDS: u32 = 2;

    /// The bid every new task agent starts with (the paper's examples start
    /// at $1).
    const INITIAL_BID: Money = Money(1.0);

    /// A market with no agents yet.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new(config: PpmConfig) -> Market {
        config.validate().expect("valid PPM configuration");
        Market {
            config,
            task_agents: Vec::new(),
            task_slots: Vec::new(),
            free_agents: Vec::new(),
            cluster_agents: Vec::new(),
            allowance: None,
            state: PowerState::Normal,
            round: 0,
            emergency_cooldown: 0,
            scratch: RoundScratch::default(),
        }
    }

    /// Adopt a new chip power budget: the TDP (`W_tdp`) and the threshold
    /// (`W_th`) below it, as a fleet exchange re-trades them every epoch.
    /// Returns false without touching anything when both are bitwise-equal
    /// to the configuration in force (the common steady-epoch case).
    pub fn set_power_budget(&mut self, tdp: Watts, threshold: Watts) -> bool {
        if self.config.tdp.value().to_bits() == tdp.value().to_bits()
            && self.config.threshold.value().to_bits() == threshold.value().to_bits()
        {
            return false;
        }
        self.config.tdp = tdp;
        self.config.threshold = threshold;
        true
    }

    /// The configuration in force.
    pub fn config(&self) -> &PpmConfig {
        &self.config
    }

    /// The current chip power state.
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// The current global allowance, if the chip agent has initialised.
    pub fn allowance(&self) -> Option<Money> {
        self.allowance
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    fn agent_slot(&self, id: TaskId) -> Option<usize> {
        match self.task_slots.get(id.0) {
            Some(&s) if s != SLOT_NONE => Some(s as usize),
            _ => None,
        }
    }

    /// A task agent's current savings `m_t`.
    pub fn savings_of(&self, id: TaskId) -> Money {
        self.agent_slot(id)
            .map_or(Money::ZERO, |s| self.task_agents[s].savings)
    }

    /// A task agent's current bid `b_t`.
    pub fn bid_of(&self, id: TaskId) -> Money {
        self.agent_slot(id)
            .map_or(Money::ZERO, |s| self.task_agents[s].bid)
    }

    /// Remove the agent of a departed task, returning its savings to the
    /// void (money supply is controlled by the chip agent anyway). The slot
    /// is recycled for the next admitted task.
    pub fn remove_task(&mut self, id: TaskId) {
        if let Some(slot) = self.agent_slot(id) {
            self.task_slots[id.0] = SLOT_NONE;
            self.task_agents[slot] = TaskAgent::fresh(ProcessingUnits::ZERO);
            self.free_agents.push(slot as u32);
        }
    }

    /// Find or create the persistent agent slot for `id`.
    ///
    /// A free function over the individual fields so the round engine can
    /// call it while scratch buffers are borrowed.
    fn ensure_agent(
        task_slots: &mut Vec<u32>,
        task_agents: &mut Vec<TaskAgent>,
        free_agents: &mut Vec<u32>,
        id: TaskId,
        demand: ProcessingUnits,
    ) -> u32 {
        if task_slots.len() <= id.0 {
            task_slots.resize(id.0 + 1, SLOT_NONE);
        }
        let existing = task_slots[id.0];
        if existing != SLOT_NONE {
            return existing;
        }
        let slot = match free_agents.pop() {
            Some(s) => {
                task_agents[s as usize] = TaskAgent::fresh(demand);
                s
            }
            None => {
                task_agents.push(TaskAgent::fresh(demand));
                (task_agents.len() - 1) as u32
            }
        };
        task_slots[id.0] = slot;
        slot
    }

    /// Execute one bidding round, allocating a fresh decision.
    ///
    /// Convenience wrapper over [`Market::round_into`]; hot callers should
    /// hold a reusable [`MarketDecision`] buffer instead.
    pub fn round(&mut self, obs: &MarketObs) -> MarketDecision {
        let mut out = MarketDecision::default();
        self.round_into(obs, &mut out, None);
        out
    }

    /// Execute one bidding round (§3.2.1–§3.2.3): distribute allowances,
    /// update bids, discover prices, purchase supply, update savings, run
    /// the cluster agents' inflation/deflation control and the chip agent's
    /// allowance control.
    ///
    /// Writes the decision into `out` (clearing it first). In steady state —
    /// stable populations and a warmed-up `out` buffer — this performs no
    /// heap allocation (asserted by `tests/zero_alloc.rs`) and its result
    /// depends only on `(self, obs)`, never on hasher seeds or map iteration
    /// order.
    ///
    /// Tasks whose core (or its cluster) is absent from the snapshot do not
    /// participate this round and are reported in [`MarketDecision::orphans`]
    /// instead of panicking.
    ///
    /// With `prof` given, wall-time spans for the bid / price-discovery /
    /// DVFS sections are reported into it (as
    /// [`Phase::MarketBid`](ppm_obs::Phase), `MarketPrice`, `MarketDvfs`).
    /// Timing is observation-only: the decision computed is bit-identical
    /// either way (the golden tapes prove it).
    pub fn round_into(
        &mut self,
        obs: &MarketObs,
        out: &mut MarketDecision,
        mut prof: Option<&mut PhaseProfiler>,
    ) {
        let mut mark = if prof.is_some() {
            Some(Instant::now())
        } else {
            None
        };
        self.round += 1;
        out.reset();

        let s = &mut self.scratch;
        let ncores = obs.cores.len();
        let nclusters = obs.clusters.len();
        let ntasks = obs.tasks.len();

        // --- Topology: resolve raw ids to dense slots. ---
        s.next_epoch();
        let epoch = s.epoch;
        for (vs, c) in obs.clusters.iter().enumerate() {
            map_insert(
                &mut s.cluster_map_epoch,
                &mut s.cluster_map_slot,
                c.id.0,
                vs as u32,
                epoch,
            );
            if self.cluster_agents.len() <= c.id.0 {
                self.cluster_agents
                    .resize(c.id.0 + 1, ClusterAgent::default());
            }
        }
        refill(&mut s.core_cluster, ncores, SLOT_NONE);
        for (cs, c) in obs.cores.iter().enumerate() {
            map_insert(
                &mut s.core_map_epoch,
                &mut s.core_map_slot,
                c.id.0,
                cs as u32,
                epoch,
            );
            s.core_cluster[cs] = map_get(
                &s.cluster_map_epoch,
                &s.cluster_map_slot,
                c.cluster.0,
                epoch,
            );
        }

        // --- Size the per-round working sets (no-ops once warm). ---
        refill(&mut s.core_bids, ncores, Money::ZERO);
        refill(&mut s.core_price, ncores, Price::ZERO);
        refill(&mut s.core_demand, ncores, ProcessingUnits::ZERO);
        refill(&mut s.core_tasks, ncores, 0);
        refill(&mut s.t_core, ntasks, SLOT_NONE);
        refill(&mut s.t_cluster, ntasks, SLOT_NONE);
        refill(&mut s.t_agent, ntasks, SLOT_NONE);
        refill(&mut s.t_allow, ntasks, Money::ZERO);
        refill(&mut s.t_bid, ntasks, Money::ZERO);
        refill(&mut s.cl_priority, nclusters, 0);
        refill(&mut s.cl_tasks, nclusters, 0);
        refill(&mut s.cl_allow, nclusters, Money::ZERO);
        s.cl_power.clear();
        s.cl_power
            .extend(obs.clusters.iter().map(|c| c.power.value()));
        refill(&mut s.cl_reacting, nclusters, false);
        refill(&mut s.cl_constrained, nclusters, SLOT_NONE);
        refill(&mut s.cl_constr_demand, nclusters, ProcessingUnits::ZERO);

        // --- Placement: core/cluster slots per task, per-core and
        // per-cluster aggregates, orphan detection. ---
        let mut total_priority: u32 = 0;
        let mut participating: usize = 0;
        for (ti, t) in obs.tasks.iter().enumerate() {
            let cs = map_get(&s.core_map_epoch, &s.core_map_slot, t.core.0, epoch);
            let vs = if cs == SLOT_NONE {
                SLOT_NONE
            } else {
                s.core_cluster[cs as usize]
            };
            if vs == SLOT_NONE {
                // The task's core (or its cluster) is not in the snapshot:
                // skip it gracefully instead of poisoning the whole round.
                out.orphans.push((t.id, t.core));
                continue;
            }
            s.t_core[ti] = cs;
            s.t_cluster[ti] = vs;
            s.core_tasks[cs as usize] += 1;
            s.core_demand[cs as usize] += t.demand;
            s.cl_tasks[vs as usize] += 1;
            s.cl_priority[vs as usize] += t.priority;
            total_priority += t.priority;
            participating += 1;
        }

        // --- Chip agent: initial allowance on first sight of a task. An
        // idle market (no participating tasks) must NOT anchor the money
        // supply: the seed version cached `A = rate · R` here even with
        // `R = 0`, freezing the allowance at the `b_min` floor forever. ---
        // `self.state` is NOT updated yet: the cluster agents below must see
        // the previous round's state (the seed classified after running
        // them), so the emergency reaction lags one round as in Table 3.
        let state = PowerState::classify(obs.chip_power, &self.config);
        out.state = state;
        for c in &obs.clusters {
            out.total_supply += c.supply;
        }
        if participating == 0 {
            self.state = state;
            // No economy to run. Hold the allowance (if initialised, apply
            // the emergency cut discipline so an overheating idle chip still
            // ratchets the money supply down).
            if let Some(allowance) = self.allowance {
                let delta = self.chip_delta(
                    state,
                    allowance,
                    ProcessingUnits::ZERO,
                    out.total_supply,
                    ProcessingUnits::ZERO,
                    out.total_supply,
                    false,
                    obs.chip_power,
                );
                let floor = self.config.min_bid;
                let next = (allowance + delta).clamp(floor, floor * 1e12);
                self.allowance = Some(next);
                out.allowance = next;
            }
            lap(prof, &mut mark, Phase::MarketDvfs);
            return;
        }
        let allowance = *self.allowance.get_or_insert(Money(
            self.config.initial_allowance_per_priority * total_priority as f64,
        ));
        let s = &mut self.scratch;

        // --- Hierarchical allowance distribution (§3.2.3): A -> A_v
        // (inverse to cluster power) -> a_t (proportional to priority). ---
        chip_agent::distribute_into(
            allowance,
            obs.chip_power.value(),
            &s.cl_power,
            &s.cl_priority,
            &mut s.cl_allow,
        );

        // --- Task agents: allowances and bids (Eq. 1). ---
        for (ti, t) in obs.tasks.iter().enumerate() {
            let cs = s.t_core[ti];
            if cs == SLOT_NONE {
                continue;
            }
            let vs = s.t_cluster[ti] as usize;
            // a_t = A_v · r_t / R_v (split_by_priority, inlined per task).
            let mass = s.cl_priority[vs];
            let a = if mass > 0 {
                s.cl_allow[vs] * (t.priority as f64 / mass as f64)
            } else {
                Money::ZERO
            };
            s.t_allow[ti] = a;
            let frozen = self.cluster_agents[obs.clusters[vs].id.0].frozen;
            let slot = Self::ensure_agent(
                &mut self.task_slots,
                &mut self.task_agents,
                &mut self.free_agents,
                t.id,
                t.demand,
            );
            s.t_agent[ti] = slot;
            let agent = &mut self.task_agents[slot as usize];
            let cap = a + agent.savings;
            let bid = if !agent.seen {
                agent.seen = true;
                Self::INITIAL_BID.clamp(self.config.min_bid, cap.max(self.config.min_bid))
            } else if frozen {
                agent.bid
            } else {
                task_agent::next_bid(
                    agent.bid,
                    agent.prev_demand,
                    agent.prev_supply,
                    agent.prev_price,
                    cap,
                    self.config.min_bid,
                )
            };
            agent.bid = bid;
            s.t_bid[ti] = bid;
            s.core_bids[cs as usize] += bid;
        }
        lap(prof.as_deref_mut(), &mut mark, Phase::MarketBid);

        // --- Core agents: price discovery P_c = Σ b_t / S_c. ---
        for cs in 0..ncores {
            if s.core_tasks[cs] == 0 {
                continue;
            }
            let vs = s.core_cluster[cs] as usize;
            let price = Price::discover(s.core_bids[cs], obs.clusters[vs].supply);
            s.core_price[cs] = price;
            out.prices.push((obs.cores[cs].id, price));
        }
        out.prices.sort_unstable_by_key(|(c, _)| *c);

        // --- Purchases s_t = b_t / P_c, savings update, agent memory. ---
        for (ti, t) in obs.tasks.iter().enumerate() {
            let cs = s.t_core[ti];
            if cs == SLOT_NONE {
                continue;
            }
            let price = s.core_price[cs as usize];
            let share = price.purchase(s.t_bid[ti]);
            out.shares.push((t.id, share));
            let agent = &mut self.task_agents[s.t_agent[ti] as usize];
            agent.savings = task_agent::next_savings(
                agent.savings,
                s.t_allow[ti],
                agent.bid,
                self.config.savings_cap_factor,
            );
            agent.prev_demand = t.demand;
            agent.prev_supply = share;
            agent.prev_price = price;
            out.tasks.push(TaskRound {
                id: t.id,
                allowance: s.t_allow[ti],
                bid: agent.bid,
                savings: agent.savings,
                supply: share,
                demand: t.demand,
            });
        }
        out.shares.sort_unstable_by_key(|(t, _)| *t);
        out.tasks.sort_unstable_by_key(|t| t.id);
        lap(prof.as_deref_mut(), &mut mark, Phase::MarketPrice);

        // --- Constrained core per cluster: highest summed demand, ties
        // broken towards the lowest core id. ---
        for cs in 0..ncores {
            if s.core_tasks[cs] == 0 {
                continue;
            }
            let vs = s.core_cluster[cs] as usize;
            let d = s.core_demand[cs];
            let best = s.cl_constrained[vs];
            let replace = best == SLOT_NONE
                || d > s.cl_constr_demand[vs]
                || (d == s.cl_constr_demand[vs] && obs.cores[cs].id < obs.cores[best as usize].id);
            if replace {
                s.cl_constrained[vs] = cs as u32;
                s.cl_constr_demand[vs] = d;
            }
        }

        // --- Cluster agents: inflation/deflation control (§3.2.2). ---
        for (vs, c) in obs.clusters.iter().enumerate() {
            if s.cl_tasks[vs] == 0 {
                continue;
            }
            let price = s.core_price[s.cl_constrained[vs] as usize];
            let agent = &mut self.cluster_agents[c.id.0];
            if agent.frozen || !agent.has_base {
                // First observation at the (possibly new) supply anchors
                // the base price; bids were held while switching.
                agent.base_price = price;
                agent.has_base = true;
                agent.frozen = false;
                agent.last_price = price;
                s.cl_reacting[vs] = true;
                continue;
            }
            // The market is reacting on its own while the price climbs:
            // the chip agent holds the money supply meanwhile.
            if price.value() > agent.last_price.value() * 1.02 {
                s.cl_reacting[vs] = true;
            }
            agent.last_price = price;
            // The agent's step rule (see `agents::cluster_agent`): forced
            // step-down in the emergency state, else the ±δ band around the
            // base price with the §3.2.4 round-demand-up guard.
            let step = cluster_agent::decide_step(cluster_agent::ClusterView {
                price,
                base_price: agent.base_price,
                tolerance: self.config.tolerance,
                can_step_up: c.supply_up.is_some(),
                supply_down: c.supply_down,
                constrained_demand: s.cl_constr_demand[vs],
                emergency: self.state == PowerState::Emergency,
            });
            if let Some(step) = step {
                out.dvfs.push((c.id, step));
                agent.frozen = true;
            }
        }
        self.state = state;
        let s = &self.scratch;

        // --- Chip agent: allowance control. ---
        // "The allowance is increased … when the demand is not satisfied in
        // at least one of the clusters" (§3.2.3). The deficit is evaluated
        // per cluster — netting a starved cluster against another cluster's
        // surplus would deadlock the money supply (the starved cluster's
        // agents stay bid-capped forever while the chip sees D ≈ S). The
        // growth rate follows the worst cluster's relative deficit.
        // Extra money only helps when some under-supplied cluster can still
        // raise its V-F level; growing the allowance with every regulator
        // already at its top merely inflates prices (and savings) without
        // adding a single PU.
        let mut growth_helps = false;
        let mut worst_deficit: Option<(ProcessingUnits, ProcessingUnits)> = None;
        for (vs, c) in obs.clusters.iter().enumerate() {
            if s.cl_tasks[vs] == 0 {
                continue;
            }
            let dv = s.cl_constr_demand[vs];
            out.total_demand += dv;
            if dv > c.supply && c.supply_up.is_some() && !s.cl_reacting[vs] {
                growth_helps = true;
                let rate = (dv - c.supply).value() / dv.value();
                let worse =
                    worst_deficit.is_none_or(|(d, sup)| rate > (d - sup).value() / d.value());
                if worse {
                    worst_deficit = Some((dv, c.supply));
                }
            }
        }
        let (deficit_demand, deficit_supply) =
            worst_deficit.unwrap_or((out.total_demand, out.total_supply));
        let delta = self.chip_delta(
            state,
            allowance,
            out.total_demand,
            out.total_supply,
            deficit_demand,
            deficit_supply,
            growth_helps,
            obs.chip_power,
        );
        // Keep enough money in circulation for every agent's minimum bid,
        // and bound the ratchet from repeated normal-state growth: the
        // market is scale-free (bids, savings caps and prices all track A),
        // so the ceiling only guards floating-point hygiene.
        let floor = self.config.min_bid * participating.max(1) as f64;
        let ceiling = floor * 1e12;
        let next_allowance = (allowance + delta).clamp(floor, ceiling);
        self.allowance = Some(next_allowance);
        out.allowance = next_allowance;
        lap(prof, &mut mark, Phase::MarketDvfs);
    }
    /// The chip agent's Δ policy: emergency cuts gated by the cooldown,
    /// growth only when it can actually buy supply, threshold freeze.
    #[allow(clippy::too_many_arguments)]
    fn chip_delta(
        &mut self,
        state: PowerState,
        allowance: Money,
        total_demand: ProcessingUnits,
        total_supply: ProcessingUnits,
        deficit_demand: ProcessingUnits,
        deficit_supply: ProcessingUnits,
        growth_helps: bool,
        chip_power: Watts,
    ) -> Money {
        match state {
            PowerState::Emergency => {
                if self.emergency_cooldown == 0 {
                    self.emergency_cooldown = Self::EMERGENCY_COOLDOWN_ROUNDS;
                    allowance_delta(
                        state,
                        allowance,
                        total_demand,
                        total_supply,
                        chip_power,
                        &self.config,
                    )
                } else {
                    self.emergency_cooldown -= 1;
                    Money::ZERO
                }
            }
            PowerState::Normal if !growth_helps => {
                self.emergency_cooldown = 0;
                Money::ZERO
            }
            PowerState::Normal => {
                self.emergency_cooldown = 0;
                allowance_delta(
                    state,
                    allowance,
                    deficit_demand,
                    deficit_supply,
                    chip_power,
                    &self.config,
                )
            }
            _ => {
                self.emergency_cooldown = 0;
                allowance_delta(
                    state,
                    allowance,
                    total_demand,
                    total_supply,
                    chip_power,
                    &self.config,
                )
            }
        }
    }
}

impl fmt::Display for Market {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "market[round {}, state {}, A {}]",
            self.round,
            self.state,
            self.allowance.unwrap_or(Money::ZERO)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Harness replaying the paper's running examples: one cluster, one
    /// core, two tasks, a discrete supply ladder, and a synthetic power
    /// curve.
    struct Bench {
        market: Market,
        ladder: Vec<f64>,
        level: usize,
        demands: [f64; 2],
        priorities: [u32; 2],
        power: fn(f64) -> f64,
    }

    impl Bench {
        fn obs(&self) -> MarketObs {
            let supply = ProcessingUnits(self.ladder[self.level]);
            MarketObs {
                chip_power: Watts((self.power)(self.ladder[self.level])),
                tasks: vec![
                    TaskObs {
                        id: TaskId(0),
                        core: CoreId(0),
                        priority: self.priorities[0],
                        demand: ProcessingUnits(self.demands[0]),
                    },
                    TaskObs {
                        id: TaskId(1),
                        core: CoreId(0),
                        priority: self.priorities[1],
                        demand: ProcessingUnits(self.demands[1]),
                    },
                ],
                cores: vec![CoreObs {
                    id: CoreId(0),
                    cluster: ClusterId(0),
                }],
                clusters: vec![ClusterObs {
                    id: ClusterId(0),
                    supply,
                    supply_up: self.ladder.get(self.level + 1).map(|&s| ProcessingUnits(s)),
                    supply_down: if self.level > 0 {
                        Some(ProcessingUnits(self.ladder[self.level - 1]))
                    } else {
                        None
                    },
                    power: Watts((self.power)(self.ladder[self.level])),
                }],
            }
        }

        fn round(&mut self) -> MarketDecision {
            let d = self.market.round(&self.obs());
            for (_, step) in &d.dvfs {
                match step {
                    VfStep::Up => self.level = (self.level + 1).min(self.ladder.len() - 1),
                    VfStep::Down => self.level = self.level.saturating_sub(1),
                }
            }
            d
        }
    }

    fn table_bench() -> Bench {
        let mut config = PpmConfig::tc2();
        config.tolerance = 0.2;
        config.min_bid = Money(0.01);
        config.savings_cap_factor = 100.0; // the examples run uncapped
        config.tdp = Watts(2.25);
        config.threshold = Watts(1.75);
        Bench {
            market: Market::new(config),
            ladder: vec![300.0, 400.0, 500.0, 600.0],
            level: 0,
            demands: [200.0, 100.0],
            priorities: [2, 1],
            power: |s| {
                if s >= 600.0 {
                    3.0
                } else if s >= 500.0 {
                    2.0
                } else {
                    0.8
                }
            },
        }
    }

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn table1_task_and_core_dynamics() {
        let mut b = table_bench();
        // Round 1: both bid $1, price 2/300, supplies 150/150.
        let r1 = b.round();
        assert!(approx(r1.tasks[0].bid.value(), 1.0, 1e-9));
        assert!(approx(r1.tasks[1].bid.value(), 1.0, 1e-9));
        assert!(approx(r1.prices[0].1.value(), 0.006667, 1e-4));
        assert!(approx(r1.tasks[0].supply.value(), 150.0, 1e-6));
        assert!(approx(r1.tasks[1].supply.value(), 150.0, 1e-6));
        // Round 2: bids 1.33/0.66, supplies 200/100 — demands met.
        let r2 = b.round();
        assert!(approx(r2.tasks[0].bid.value(), 1.3333, 1e-3));
        assert!(approx(r2.tasks[1].bid.value(), 0.6667, 1e-3));
        assert!(approx(r2.tasks[0].supply.value(), 200.0, 0.5));
        assert!(approx(r2.tasks[1].supply.value(), 100.0, 0.5));
        assert!(r2.dvfs.is_empty(), "market stable, no DVFS");
    }

    #[test]
    fn table2_cluster_dynamics() {
        // As in Table 2, the demand of ta jumps from 200 to 300 PU; the
        // price inflates to $0.0088 > $0.00796 = base·(1+δ) and the cluster
        // agent raises the supply from 300 to 400 PU. (Bids react to the
        // demand observed in the previous round, so the trace here runs one
        // round behind the paper's compressed narrative.)
        let mut b = table_bench();
        b.round();
        b.round();
        b.demands[0] = 300.0; // observed during round 3, bid on in round 4
        b.round();
        let r4 = b.round();
        assert!(approx(r4.tasks[0].bid.value(), 2.0, 1e-2)); // paper: 1.99
        assert!(approx(r4.prices[0].1.value(), 0.008889, 1e-4)); // paper: 0.0088
        assert!(approx(r4.tasks[0].supply.value(), 225.0, 1.0));
        assert!(approx(r4.tasks[1].supply.value(), 75.0, 1.0));
        assert_eq!(r4.dvfs, vec![(ClusterId(0), VfStep::Up)]);
        // Next round: bids frozen across the switch; the new price $0.0066
        // becomes the base; both tasks satisfied at 400 PU.
        let r5 = b.round();
        assert!(approx(r5.tasks[0].bid.value(), 2.0, 1e-2)); // unchanged
        assert!(approx(r5.prices[0].1.value(), 0.006667, 1e-4));
        assert!(approx(r5.tasks[0].supply.value(), 300.0, 1.0));
        assert!(approx(r5.tasks[1].supply.value(), 100.0, 1.0));
        assert!(r5.dvfs.is_empty());
    }

    #[test]
    fn table3_chip_dynamics_and_savings() {
        // Reproduces the Table 3 scenario: Wtdp = 2.25 W, Wth = 1.75 W,
        // priorities 2:1, power hitting 2 W at 500 PU (threshold) and 3 W
        // at 600 PU (emergency). Exact per-round money values differ
        // slightly from the paper's narrative (the chip agent here applies
        // the normal-state Δ literally every round), but every mechanism —
        // priority-proportional allowances, allowance growth under unmet
        // demand, the threshold freeze, the proportional emergency cut, the
        // savings dynamics, and the final stabilisation with the
        // high-priority task satisfied — is asserted.
        let mut b = table_bench();
        let r1 = b.round();
        // Initial allowance: 1.5 per priority unit × R=3 = $4.5, split 2:1.
        assert!(approx(r1.tasks[0].allowance.value(), 3.0, 1e-9));
        assert!(approx(r1.tasks[1].allowance.value(), 1.5, 1e-9));
        assert_eq!(r1.state, PowerState::Normal);
        let r2 = b.round();
        // Demands met at 300 PU: allowance unchanged at $4.5.
        assert!(approx(r2.allowance.value(), 4.5, 1e-9));
        // Savings accumulate the allowance surplus: ta saved (3−1)+(3−1.33),
        // tb saved (1.5−1)+(1.5−0.67).
        assert!(approx(r2.tasks[0].savings.value(), 3.67, 0.05));
        assert!(approx(r2.tasks[1].savings.value(), 1.33, 0.05));

        // Demand of ta jumps to 300: D=400 > S=300, so the chip agent grows
        // the allowance by Δ = A·(D−S)/D while the cluster steps to 400 PU.
        b.demands[0] = 300.0;
        let r3 = b.round();
        assert!(approx(r3.total_demand.value(), 400.0, 1e-9));
        assert!(r3.allowance.value() > 4.5);
        for _ in 0..3 {
            b.round();
        }
        assert_eq!(b.ladder[b.level], 400.0, "first inflation resolved");

        // Demand of tb jumps to 300: D=600. The market inflates through
        // 500 PU (threshold, 2 W) to 600 PU where power hits 3 W — the
        // emergency state — and the allowance is cut proportionally:
        // Δ/A = (Wtdp−W)/Wtdp = −1/3.
        b.demands[1] = 300.0;
        let mut seen_emergency = false;
        let mut allowance_before_cut = 0.0;
        for _ in 0..12 {
            let before = b.market.allowance().expect("initialised").value();
            let d = b.round();
            if d.state == PowerState::Emergency && !seen_emergency {
                seen_emergency = true;
                allowance_before_cut = before;
                assert!(
                    approx(d.allowance.value(), before * (1.0 - 1.0 / 3.0), 1e-6),
                    "emergency cut should be one third: {} -> {}",
                    before,
                    d.allowance.value()
                );
            }
        }
        assert!(seen_emergency, "overload must reach the emergency state");
        assert!(allowance_before_cut > 0.0);

        // The system must leave emergency and stabilise in the threshold
        // state at 500 PU with the high-priority task meeting its demand
        // (s_ta = 300) and the low-priority task suffering (s_tb = 200) —
        // Table 3, round 16.
        let mut last = None;
        for _ in 0..60 {
            last = Some(b.round());
        }
        let last = last.expect("ran rounds");
        assert_eq!(last.state, PowerState::Threshold);
        assert_eq!(b.ladder[b.level], 500.0, "stabilises at 500 PU");
        assert!(
            approx(last.tasks[0].supply.value(), 300.0, 10.0),
            "high-priority task meets demand: {:?}",
            last.tasks[0]
        );
        assert!(
            approx(last.tasks[1].supply.value(), 200.0, 10.0),
            "low-priority task suffers: {:?}",
            last.tasks[1]
        );
        assert!(last.dvfs.is_empty(), "no further V-F changes");
        // In the threshold state the allowance is frozen.
        let a_before = last.allowance.value();
        let again = b.round();
        assert!(approx(again.allowance.value(), a_before, 1e-9));
    }

    #[test]
    fn purchases_exhaust_the_core_supply() {
        // Price discovery sells exactly S_c: Σ s_t = S_c whenever bids > 0.
        let mut b = table_bench();
        for _ in 0..10 {
            let d = b.round();
            let total: f64 = d.shares.iter().map(|(_, s)| s.value()).sum();
            let supply = d.total_supply.value();
            assert!(approx(total, supply, 1e-6), "{total} vs {supply}");
        }
    }

    #[test]
    fn bids_never_leave_the_legal_interval() {
        let mut b = table_bench();
        b.demands = [500.0, 400.0];
        for _ in 0..50 {
            let d = b.round();
            for t in &d.tasks {
                assert!(t.bid.value() >= b.market.config().min_bid.value() - 1e-12);
                let cap =
                    t.allowance.value() + b.market.savings_of(t.id).value() + t.allowance.value(); // savings already post-update; loose check
                assert!(t.bid.value() <= cap + 1e-6);
            }
        }
    }

    #[test]
    fn deflation_steps_down_when_demand_shrinks() {
        let mut b = table_bench();
        b.power = |_| 0.8; // stay in the normal state throughout
        b.demands = [300.0, 250.0]; // needs 600 PU
        for _ in 0..30 {
            b.round();
        }
        assert_eq!(b.ladder[b.level], 600.0);
        // Demand collapses; prices deflate; the ladder is descended all the
        // way to the minimum frequency (§3.2.4 scenario 1).
        b.demands = [100.0, 50.0];
        for _ in 0..60 {
            b.round();
        }
        assert_eq!(
            b.ladder[b.level], 300.0,
            "market should settle at the bottom level"
        );
    }

    #[test]
    fn normal_state_guard_prevents_level_oscillation() {
        // Demand 450 sits between the 400 and 500 supply points: the
        // market must settle at 500 (demand rounded up), not oscillate.
        let mut b = table_bench();
        b.demands = [250.0, 200.0];
        let mut levels = Vec::new();
        for _ in 0..80 {
            b.round();
            levels.push(b.ladder[b.level]);
        }
        let tail = &levels[40..];
        assert!(
            tail.iter().all(|&l| l == tail[0]),
            "levels still moving: {tail:?}"
        );
        assert_eq!(tail[0], 500.0);
    }

    #[test]
    fn higher_priority_attracts_more_allowance() {
        let mut b = table_bench();
        b.priorities = [7, 1];
        let d = b.round();
        let a0 = d.tasks[0].allowance.value();
        let a1 = d.tasks[1].allowance.value();
        assert!(approx(a0 / a1, 7.0, 1e-6));
    }

    #[test]
    fn savings_respect_the_cap() {
        let mut b = table_bench();
        b.market = Market::new({
            let mut c = PpmConfig::tc2();
            c.tdp = Watts(2.25);
            c.threshold = Watts(1.75);
            c.savings_cap_factor = 2.0;
            c
        });
        b.demands = [10.0, 10.0]; // trivial demand -> bids collapse, savings pile up
        for _ in 0..100 {
            let d = b.round();
            for t in &d.tasks {
                assert!(
                    t.savings.value() <= 2.0 * t.allowance.value() + 1e-9,
                    "savings {} exceed cap at allowance {}",
                    t.savings,
                    t.allowance
                );
            }
        }
    }

    #[test]
    fn allowance_never_falls_below_min_bid_floor() {
        let mut b = table_bench();
        // Force persistent emergency: every supply level burns > Wtdp.
        b.power = |_| 5.0;
        for _ in 0..200 {
            let d = b.round();
            assert!(d.allowance.value() >= 2.0 * 0.01 - 1e-12);
        }
    }

    #[test]
    fn removed_task_frees_agent_state() {
        let mut b = table_bench();
        b.round();
        assert!(b.market.bid_of(TaskId(0)).is_positive());
        b.market.remove_task(TaskId(0));
        assert_eq!(b.market.bid_of(TaskId(0)), Money::ZERO);
        // The freed slot is recycled by the next admitted task.
        let slots_before = b.market.task_agents.len();
        b.round();
        assert_eq!(b.market.task_agents.len(), slots_before);
        assert!(b.market.bid_of(TaskId(0)).is_positive());
    }

    #[test]
    fn idle_boot_defers_the_initial_allowance() {
        // Regression test for the seed bug: `round` cached the initial
        // allowance with `get_or_insert` even when `obs.tasks` was empty,
        // anchoring `A = rate · 0 = 0` (then floor-clamped to b_min)
        // forever. The allowance must stay uninitialised across idle rounds
        // and be seeded from the first *observed* priority mass.
        let mut b = table_bench();
        let mut obs = b.obs();
        let tasks = std::mem::take(&mut obs.tasks);
        for _ in 0..5 {
            let d = b.market.round(&obs);
            assert_eq!(
                b.market.allowance(),
                None,
                "idle rounds must not anchor the money supply"
            );
            assert_eq!(d.allowance, Money::ZERO);
            assert!(d.tasks.is_empty() && d.shares.is_empty());
        }
        // Tasks admitted later: allowance seeds at rate · R = 1.5 · 3.
        obs.tasks = tasks;
        let d = b.market.round(&obs);
        assert!(approx(d.allowance.value(), 4.5, 1e-9));
        assert!(approx(d.tasks[0].allowance.value(), 3.0, 1e-9));
        assert!(approx(d.tasks[1].allowance.value(), 1.5, 1e-9));
    }

    #[test]
    fn orphaned_task_is_skipped_not_fatal() {
        // A task mapped to a core absent from the snapshot (observer race)
        // must not panic the round; it is reported and excluded from the
        // economy, and the remaining tasks trade normally.
        let mut b = table_bench();
        let mut obs = b.obs();
        obs.tasks[1].core = CoreId(99);
        let d = b.market.round(&obs);
        assert_eq!(d.orphans, vec![(TaskId(1), CoreId(99))]);
        assert_eq!(d.tasks.len(), 1);
        assert_eq!(d.tasks[0].id, TaskId(0));
        // Initial allowance comes from the participating mass only (r=2).
        assert!(approx(d.allowance.value(), 3.0, 1e-9));
        // The orphan heals: next round it participates again.
        let d = b.market.round(&b.obs());
        assert!(d.orphans.is_empty());
        assert_eq!(d.tasks.len(), 2);
    }

    #[test]
    fn round_and_round_into_agree() {
        // The buffered entry point must be bit-identical to the wrapper,
        // including when the buffer is reused across rounds.
        let mut a = table_bench();
        let mut b = table_bench();
        let mut buf = MarketDecision::default();
        for i in 0..40 {
            let obs = a.obs();
            let d1 = a.market.round(&obs);
            b.market.round_into(&obs, &mut buf, None);
            assert_eq!(format!("{d1:?}"), format!("{buf:?}"), "round {i}");
            for (_, step) in &d1.dvfs {
                match step {
                    VfStep::Up => {
                        a.level = (a.level + 1).min(a.ladder.len() - 1);
                        b.level = a.level;
                    }
                    VfStep::Down => {
                        a.level = a.level.saturating_sub(1);
                        b.level = a.level;
                    }
                }
            }
            if i == 20 {
                a.demands[0] = 300.0;
                b.demands[0] = 300.0;
            }
        }
    }
}
