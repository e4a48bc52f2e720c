//! Runtime task instances.
//!
//! A [`Task`] is "a computational entity that can execute on a core" (§2).
//! It wraps a [`BenchmarkSpec`] with run-time state: the phase cursor, the
//! running heartbeat totals, and a user-assigned priority. The scheduler
//! feeds it cycles; it emits heartbeats and converts a measured cost per
//! heartbeat into the demand estimate the paper's task agents consume. The
//! windows that measure its heart rate and cost live in the executor (see
//! [`crate::heartbeat::HeartbeatWindows`]).

use std::fmt;

use ppm_platform::core::CoreClass;
use ppm_platform::units::{Cycles, ProcessingUnits, SimTime};

use crate::benchmarks::BenchmarkSpec;
use crate::phase::PhaseSequence;
use crate::request::{OpenLoopSnap, OpenLoopState};

/// Identifier of a task, unique within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// User-assigned task priority `r_t`; higher values mean higher priority.
///
/// The paper adds a `prio` member to Linux's `task_struct`, settable from
/// user space and fixed for the lifetime of the task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub u32);

impl Priority {
    /// The default priority used when experiments equalise priorities.
    pub const NORMAL: Priority = Priority(1);

    /// Raw value.
    pub fn value(self) -> u32 {
        self.0
    }
}

impl Default for Priority {
    fn default() -> Self {
        Priority::NORMAL
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio{}", self.0)
    }
}

/// A running task: benchmark spec + phase cursor + heartbeat totals.
#[derive(Debug, Clone)]
pub struct Task {
    id: TaskId,
    spec: BenchmarkSpec,
    priority: Priority,
    phases: PhaseSequence,
    /// Heartbeats emitted so far.
    beats: f64,
    /// Cycles billed to those heartbeats (open-loop tasks bill only the
    /// cycles spent serving).
    billed_cycles: f64,
    total_cycles: Cycles,
    /// Open-loop request state when the spec carries traffic (boxed: the
    /// common closed-loop task stays small).
    open_loop: Option<Box<OpenLoopState>>,
}

impl Task {
    /// Instantiate `spec` as task `id` with `priority`.
    pub fn new(id: TaskId, spec: BenchmarkSpec, priority: Priority) -> Task {
        let phases = spec.phase_sequence();
        let open_loop = spec.open_loop().map(|ol| Box::new(OpenLoopState::new(*ol)));
        Task {
            id,
            spec,
            priority,
            phases,
            beats: 0.0,
            billed_cycles: 0.0,
            total_cycles: Cycles::ZERO,
            open_loop,
        }
    }

    /// Task identifier.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The benchmark variant this task runs.
    pub fn spec(&self) -> &BenchmarkSpec {
        &self.spec
    }

    /// Human-readable label (`swaptions_n` style).
    pub fn label(&self) -> String {
        self.spec.label()
    }

    /// User priority `r_t`.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Heartbeats emitted so far.
    pub fn total_heartbeats(&self) -> f64 {
        self.beats
    }

    /// Cumulative `[heartbeats, billed cycles]`: what a heartbeat window
    /// records after each quantum.
    pub fn heartbeat_totals(&self) -> [f64; 2] {
        [self.beats, self.billed_cycles]
    }

    /// Cycles consumed so far.
    pub fn total_cycles(&self) -> Cycles {
        self.total_cycles
    }

    /// Effective cycles-per-heartbeat right now on `class` (nominal cost
    /// scaled by the current phase).
    pub fn current_cost(&self, class: CoreClass) -> f64 {
        self.spec.cycles_per_heartbeat(class) * self.phases.current().cost_scale
    }

    /// Fraction of its granted supply the task can consume in the current
    /// phase (`1.0` when fully CPU-bound).
    pub fn utilization_cap(&self) -> f64 {
        self.phases.current().utilization_cap
    }

    /// Most PU the task can consume on a core of `class` whose supply is
    /// `supply`: the phase utilization cap, further bounded by the input
    /// pipeline's rate ceiling for rate-limited applications.
    pub fn consumption_cap(&self, class: CoreClass, supply: ProcessingUnits) -> ProcessingUnits {
        let by_util = supply * self.utilization_cap();
        match self.spec.rate_cap() {
            Some(k) => by_util.min(self.analytic_demand(class) * k),
            None => by_util,
        }
    }

    /// Consume `cycles` of compute on a core of `class` ending at `now`.
    /// Returns the (possibly fractional) heartbeats completed.
    ///
    /// Walks phase boundaries so a cheap-phase tail and an expensive-phase
    /// head within one quantum are both priced correctly.
    pub fn execute(&mut self, cycles: Cycles, class: CoreClass, now: SimTime) -> f64 {
        if self.open_loop.is_some() {
            return self.execute_open_loop(cycles, class, now);
        }
        let mut remaining = cycles.value();
        let mut beats = 0.0;
        // Bounded: each iteration either exhausts the cycles or crosses one
        // phase boundary, and phases have positive length.
        for _ in 0..64 {
            if remaining <= 0.0 {
                break;
            }
            let cost = self.current_cost(class);
            let possible = remaining / cost;
            let left_in_phase = self.phases.remaining_in_current();
            if possible <= left_in_phase {
                self.phases.advance(possible);
                beats += possible;
                remaining = 0.0;
            } else {
                self.phases.advance(left_in_phase);
                beats += left_in_phase;
                remaining -= left_in_phase * cost;
            }
        }
        self.total_cycles += cycles;
        self.bill(beats, cycles.value());
        beats
    }

    /// Open-loop variant of [`Task::execute`]: admit due arrivals, then
    /// serve queued requests through the same phase walk — but never run
    /// ahead of the queue, and only bill the cycles actually spent so the
    /// measured cost-per-beat stays honest under light traffic.
    fn execute_open_loop(&mut self, cycles: Cycles, class: CoreClass, now: SimTime) -> f64 {
        if let Some(ol) = &mut self.open_loop {
            ol.admit_until(now);
        }
        let work_cap = self.open_loop.as_ref().map_or(0.0, |ol| ol.queued_beats());
        let mut remaining = cycles.value();
        let mut beats = 0.0;
        for _ in 0..64 {
            if remaining <= 0.0 || beats >= work_cap {
                break;
            }
            let cost = self.current_cost(class);
            let possible = (remaining / cost).min(work_cap - beats);
            let left_in_phase = self.phases.remaining_in_current();
            if possible <= left_in_phase {
                self.phases.advance(possible);
                beats += possible;
                remaining -= possible * cost;
            } else {
                self.phases.advance(left_in_phase);
                beats += left_in_phase;
                remaining -= left_in_phase * cost;
            }
        }
        let used = (cycles.value() - remaining).max(0.0);
        if let Some(ol) = &mut self.open_loop {
            ol.serve(beats, now);
        }
        self.total_cycles += cycles;
        self.bill(beats, used);
        beats
    }

    fn bill(&mut self, beats: f64, cycles: f64) {
        self.beats += beats;
        self.billed_cycles += cycles;
    }

    /// Record the passage of time without progress (starved or migrating).
    /// Open-loop traffic keeps arriving while the task is starved — exactly
    /// the point of open-loop load.
    pub fn record_idle(&mut self, now: SimTime) {
        if let Some(ol) = &mut self.open_loop {
            ol.admit_until(now);
            ol.serve(0.0, now);
        }
    }

    /// The demand `d_t` in PU on `class` (Table 4 conversion) from
    /// `measured_cost`, the cycles per heartbeat observed over the task's
    /// window (see [`crate::heartbeat::HeartbeatWindows::cost_per_beat`]).
    ///
    /// Uses the window-consistent form `d = target_hr · (cycles/beat) / 10⁶`
    /// — identical to the paper's `d = target_hr · s_t / hr_t` with supply
    /// and heart rate averaged over the same interval, and robust against
    /// supply changes mid-window. Falls back to the off-line profile while
    /// no reliable measurement exists (`None`: admission, starvation,
    /// migration).
    ///
    /// When the measurement was taken on a different core class than
    /// `class`, the profiled cost ratio rescales it.
    pub fn demand(
        &self,
        class: CoreClass,
        measured_on: CoreClass,
        measured_cost: Option<f64>,
    ) -> ProcessingUnits {
        let base = 'base: {
            let profiled = self.spec.profiled_demand(class);
            let Some(cost) = measured_cost else {
                break 'base profiled;
            };
            let scale =
                self.spec.cycles_per_heartbeat(class) / self.spec.cycles_per_heartbeat(measured_on);
            let d = ProcessingUnits(self.spec.target_range().target() * cost * scale / 1e6);
            d.min(self.max_reasonable_demand(class))
        };
        // Open-loop tasks bid tail latency into the market: demand scales
        // with the p99/SLO pressure ratio (clamped), so a task blowing its
        // SLO outbids one coasting far under it.
        match &self.open_loop {
            Some(ol) => base * ol.pressure(),
            None => base,
        }
    }

    /// Analytic demand on `class` for the *current* phase: the supply that
    /// would hold the task exactly at its target heart rate.
    pub fn analytic_demand(&self, class: CoreClass) -> ProcessingUnits {
        ProcessingUnits(self.spec.target_range().target() * self.current_cost(class) / 1e6)
    }

    /// Sanity ceiling on inferred demand (2× the most expensive phase):
    /// protects the market from transient division-by-small-heart-rate
    /// spikes right after admission or migration.
    fn max_reasonable_demand(&self, class: CoreClass) -> ProcessingUnits {
        let worst = self
            .spec
            .phases()
            .iter()
            .map(|p| p.cost_scale)
            .fold(1.0_f64, f64::max);
        ProcessingUnits(
            2.0 * worst * self.spec.target_range().target() * self.spec.cycles_per_heartbeat(class)
                / 1e6,
        )
    }

    /// True when the task misses its QoS goal: `heart_rate` below the
    /// reference range (Figures 4 and 6) for closed-loop tasks, p99
    /// latency above the SLO for open-loop tasks (once enough completions
    /// exist to trust the tail).
    pub fn misses_qos(&self, heart_rate: f64) -> bool {
        match &self.open_loop {
            Some(ol) => ol.monitor().completed() >= 20 && ol.monitor().misses_slo(),
            None => self.spec.target_range().misses_below(heart_rate),
        }
    }

    /// Off-line-profiled demand on `class`, scaled by the SLO pressure for
    /// open-loop tasks: the per-class *planning* input the LBT speculates
    /// with. Without the pressure term the load balancer would plan from
    /// nominal demand while the market grants pressure-inflated bids — and
    /// never wake a big cluster for a task drowning in queued requests.
    /// Identical to the raw profile for closed-loop tasks.
    pub fn planning_demand(&self, class: CoreClass) -> ProcessingUnits {
        let base = self.spec.profiled_demand(class);
        match &self.open_loop {
            Some(ol) => base * ol.pressure(),
            None => base,
        }
    }

    /// Live open-loop state, when the spec carries request traffic.
    pub fn open_loop(&self) -> Option<&OpenLoopState> {
        self.open_loop.as_deref()
    }

    /// Copyable open-loop vitals for the system snapshot (`None` for
    /// closed-loop tasks, so existing snapshot digests are untouched).
    pub fn open_loop_snap(&self) -> Option<OpenLoopSnap> {
        self.open_loop.as_ref().map(|ol| ol.snap())
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.id, self.label(), self.priority)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::{Benchmark, Input};
    use crate::heartbeat::HeartbeatWindows;
    use ppm_platform::units::SimDuration;

    /// A task and its heartbeat window, fed as the executor feeds them: one
    /// row per quantum, the task's totals recorded after it runs.
    struct Tracked {
        task: Task,
        hb: HeartbeatWindows,
    }

    impl Tracked {
        fn new(task: Task) -> Tracked {
            let mut hb = HeartbeatWindows::new();
            hb.admit();
            Tracked { task, hb }
        }

        fn execute(&mut self, cycles: Cycles, class: CoreClass, now: SimTime) -> f64 {
            self.hb.begin_row(now);
            let beats = self.task.execute(cycles, class, now);
            self.hb.record(0, self.task.heartbeat_totals());
            beats
        }

        fn record_idle(&mut self, now: SimTime) {
            self.hb.begin_row(now);
            self.task.record_idle(now);
            self.hb.record(0, self.task.heartbeat_totals());
        }

        fn heart_rate(&self) -> f64 {
            self.hb.heart_rate(0)
        }

        fn normalized_heart_rate(&self) -> f64 {
            self.heart_rate() / self.task.spec().target_range().target()
        }

        fn misses_qos(&self) -> bool {
            self.task.misses_qos(self.heart_rate())
        }

        fn demand(&self, class: CoreClass) -> ProcessingUnits {
            self.task.demand(class, class, self.hb.cost_per_beat(0))
        }

        fn spec(&self) -> &BenchmarkSpec {
            self.task.spec()
        }
    }

    fn task(b: Benchmark, i: Input) -> Tracked {
        Tracked::new(Task::new(
            TaskId(0),
            BenchmarkSpec::of(b, i).expect("valid variant"),
            Priority::NORMAL,
        ))
    }

    #[test]
    fn executing_at_demand_supply_hits_target_rate() {
        let mut t = task(Benchmark::Blackscholes, Input::Native);
        // Supply exactly the profiled demand: 500 PU on LITTLE.
        let supply = t.spec().profiled_demand(CoreClass::Little);
        let dt = SimDuration::from_millis(10);
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            now += dt;
            t.execute(supply.cycles_over(dt), CoreClass::Little, now);
        }
        // Steady benchmark: rate should sit at the target (20 hb/s).
        assert!((t.heart_rate() - 20.0).abs() < 0.2, "hr={}", t.heart_rate());
        assert!(!t.misses_qos());
        assert!((t.normalized_heart_rate() - 1.0).abs() < 0.02);
    }

    #[test]
    fn half_supply_halves_heart_rate() {
        let mut t = task(Benchmark::Blackscholes, Input::Native);
        let supply = t.spec().profiled_demand(CoreClass::Little) * 0.5;
        let dt = SimDuration::from_millis(10);
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            now += dt;
            t.execute(supply.cycles_over(dt), CoreClass::Little, now);
        }
        assert!((t.heart_rate() - 10.0).abs() < 0.2);
        assert!(t.misses_qos());
    }

    #[test]
    fn same_supply_runs_faster_on_big_core() {
        let mut little = task(Benchmark::Swaptions, Input::Native);
        let mut big = task(Benchmark::Swaptions, Input::Native);
        let supply = ProcessingUnits(400.0);
        let dt = SimDuration::from_millis(10);
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            now += dt;
            little.execute(supply.cycles_over(dt), CoreClass::Little, now);
            big.execute(supply.cycles_over(dt), CoreClass::Big, now);
        }
        let ratio = big.heart_rate() / little.heart_rate();
        assert!((ratio - 1.9).abs() < 0.05, "speedup {ratio}");
    }

    #[test]
    fn demand_inference_converges_to_analytic() {
        let mut t = task(Benchmark::Bodytrack, Input::Large);
        let supply = ProcessingUnits(300.0); // below its ~400 PU demand
        let dt = SimDuration::from_millis(10);
        let mut now = SimTime::ZERO;
        for _ in 0..300 {
            now += dt;
            t.execute(supply.cycles_over(dt), CoreClass::Little, now);
        }
        let inferred = t.demand(CoreClass::Little);
        let analytic = t.task.analytic_demand(CoreClass::Little);
        let rel = (inferred.value() - analytic.value()).abs() / analytic.value();
        assert!(rel < 0.1, "inferred {inferred} vs analytic {analytic}");
    }

    #[test]
    fn demand_before_any_observation_uses_profile() {
        let t = task(Benchmark::Texture, Input::FullHd);
        let d = t.demand(CoreClass::Little);
        assert_eq!(d, t.spec().profiled_demand(CoreClass::Little));
    }

    #[test]
    fn demand_is_capped_against_spikes() {
        let mut t = task(Benchmark::Blackscholes, Input::Large);
        // Observe an absurdly low rate: one beat over a long stretch.
        t.execute(Cycles(1.0), CoreClass::Little, SimTime::from_millis(1));
        t.record_idle(SimTime::from_secs(10));
        let d = t.demand(CoreClass::Little);
        let cap = ProcessingUnits(2.0 * 200.0); // 2x worst-phase demand
        assert!(d <= cap, "demand {d} exceeds cap {cap}");
    }

    #[test]
    fn open_loop_task_keeps_up_given_enough_supply() {
        let mut t = open_loop_task();
        // The 500 PU profiled demand only matches the *mean* offered load;
        // holding a p99 needs queueing headroom well above it (the Weibull
        // service tail alone stretches a 40 ms mean request past 120 ms).
        let supply = ProcessingUnits(2500.0);
        let dt = SimDuration::from_millis(1);
        let mut now = SimTime::ZERO;
        for _ in 0..5000 {
            now += dt;
            t.execute(supply.cycles_over(dt), CoreClass::Little, now);
        }
        let ol = t.task.open_loop().expect("open-loop state");
        assert!(ol.served() > 100, "served {}", ol.served());
        assert_eq!(ol.shed_total(), 0);
        assert!(!t.misses_qos(), "{}", ol.monitor());
        // Arrival-bound: the beat throughput tracks λ·service_beats
        // (100 hb/s ± Poisson window noise), far below what 2500 PU of
        // supply could sustain on a closed loop (500 hb/s).
        assert!(
            t.heart_rate() > 50.0 && t.heart_rate() < 160.0,
            "hr {}",
            t.heart_rate()
        );
        let snap = t.task.open_loop_snap().expect("snap");
        assert!(snap.p99_ms < snap.slo_ms);
    }

    #[test]
    fn starved_open_loop_task_sheds_and_bids_up() {
        let mut t = open_loop_task();
        let supply = ProcessingUnits(100.0); // a fifth of the offered load
        let dt = SimDuration::from_millis(1);
        let mut now = SimTime::ZERO;
        for _ in 0..20_000 {
            now += dt;
            t.execute(supply.cycles_over(dt), CoreClass::Little, now);
        }
        let ol = t.task.open_loop().expect("open-loop state");
        assert!(ol.shed_total() > 0, "saturated queue must shed");
        assert!(t.misses_qos(), "{}", ol.monitor());
        // SLO pressure doubles the bid relative to the closed-loop demand.
        let closed = Task::new(TaskId(9), t.spec().clone(), Priority::NORMAL);
        let base = closed.demand(CoreClass::Little, CoreClass::Little, None);
        let d = t.demand(CoreClass::Little);
        assert!(d > base, "pressured {d} vs base {base}");
    }

    fn open_loop_task() -> Tracked {
        use crate::arrivals::ArrivalKind;
        use crate::phase::Phase;
        use crate::request::OpenLoopSpec;
        let ol = OpenLoopSpec::new(
            ArrivalKind::Poisson { rate: 25.0 },
            7,
            4.0,
            1.5,
            SimDuration::from_millis(100),
        );
        let spec = BenchmarkSpec::custom(
            crate::heartbeat::HeartRateRange::new(95.0, 105.0),
            ProcessingUnits(500.0),
            1.8,
            vec![Phase::new(f64::MAX, 1.0)],
            None,
        )
        .with_open_loop(ol);
        Tracked::new(Task::new(TaskId(0), spec, Priority::NORMAL))
    }

    #[test]
    fn phase_crossing_prices_cycles_correctly() {
        // Two phases: 10 beats at 1x, then 1e9 beats at 2x cost.
        // Give exactly the cycles for 10 + 5 beats.
        let mut t = task(Benchmark::X264, Input::Large); // dormant 0.45x, active 1.11x
        let cpb = t.spec().cycles_per_heartbeat(CoreClass::Little);
        let dormant_beats = t.spec().phases()[0].heartbeats;
        let cycles_dormant = dormant_beats * cpb * 0.45;
        let cycles_active_5 = 5.0 * cpb * 1.11;
        let beats = t.execute(
            Cycles(cycles_dormant + cycles_active_5),
            CoreClass::Little,
            SimTime::from_millis(1),
        );
        assert!((beats - (dormant_beats + 5.0)).abs() < 1e-6);
    }
}
