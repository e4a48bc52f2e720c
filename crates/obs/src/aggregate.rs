//! Windowed metric aggregation over the telemetry ring (DESIGN.md §16).
//!
//! The [`SeriesRecorder`](crate::SeriesRecorder) keeps a raw per-quantum
//! time series; this module rolls it up live into **tumbling sim-time
//! windows** the way an SRE-style monitoring stack would: per-window
//! gauge statistics (mean/min/max), monotone counter deltas, and the
//! profiler's log2 sketch histograms ([`Hist`]) for tail quantiles. The
//! registry is the substrate both the burn-rate alert engine
//! ([`crate::alert`]) and the scrape endpoint ([`crate::http`]) read.
//!
//! Determinism and cost contract:
//!
//! * Windows are aligned to multiples of `window_us` **in simulated
//!   time**, so the rollup a run produces is a pure function of the run's
//!   telemetry rows — the same seed yields the same window tape
//!   regardless of wall-clock speed, thread count, or scrape traffic.
//! * The per-quantum path ([`AggRegistry::observe`]) is indexed stores
//!   and compares into preallocated state: no allocation, no locks, no
//!   syscalls. Closing a window copies one inline [`WindowStats`] (the
//!   histograms are fixed arrays); only *snapshotting* for the scrape
//!   endpoint allocates, and that happens off the quantum hot path.
//! * [`AggSnapshot::absorb`] composes per-chip rollups into a fleet
//!   rollup the way `Auditor::absorb` composes audit reports: counters
//!   add, gauge extrema widen, histograms merge bucket-wise.

use crate::profiler::Hist;

/// Default tumbling-window length: 1 s of simulated time (1000 quanta at
/// the default 1 ms quantum) — long enough for stable percentile ranks,
/// short enough that burn-rate alerts react within a few seconds.
pub const DEFAULT_AGG_WINDOW_US: u64 = 1_000_000;

/// Streaming mean/min/max over the non-NaN samples of one gauge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeStat {
    /// Samples observed (NaN samples are skipped, not counted).
    pub n: u64,
    /// Sum of samples (mean = `sum / n`).
    pub sum: f64,
    /// Smallest sample (`NaN` when empty).
    pub min: f64,
    /// Largest sample (`NaN` when empty).
    pub max: f64,
}

impl GaugeStat {
    /// An empty statistic.
    pub const fn new() -> GaugeStat {
        GaugeStat {
            n: 0,
            sum: 0.0,
            min: f64::NAN,
            max: f64::NAN,
        }
    }

    /// Fold one sample in; NaN (an absent sensor) is skipped.
    #[inline]
    pub fn observe(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        if self.n == 0 {
            self.min = v;
            self.max = v;
        } else {
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
        }
        self.n += 1;
        self.sum += v;
    }

    /// Mean of the observed samples (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.sum / self.n as f64
        }
    }

    /// Fold another statistic in (same-gauge windows or sibling chips).
    pub fn merge(&mut self, other: &GaugeStat) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        self.n += other.n;
        self.sum += other.sum;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

impl Default for GaugeStat {
    fn default() -> GaugeStat {
        GaugeStat::new()
    }
}

/// One window's (or the whole run's) aggregates. Everything is inline —
/// copying a `WindowStats` never touches the heap, which is what lets a
/// window close inside the zero-alloc steady-state quantum.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// Quanta folded into this window.
    pub quanta: u64,
    /// Chip power (W).
    pub power_w: GaugeStat,
    /// TDP headroom (W; NaN when no TDP accounting is armed).
    pub headroom_w: GaugeStat,
    /// Hottest sensor (°C; NaN when no thermal model).
    pub hottest_c: GaugeStat,
    /// Worst per-quantum `p99 / SLO` ratio across open-loop tasks.
    pub p99_over_slo: GaugeStat,
    /// Quanta in which any open-loop task's p99 exceeded its SLO.
    pub slo_bad_quanta: u64,
    /// Quanta spent above the TDP (headroom < 0).
    pub over_tdp_quanta: u64,
    /// Requests shed by bounded queues (delta within the window).
    pub shed: u64,
    /// Degradation events — sensor fallbacks, DVFS/migration retries,
    /// orphaned tasks (delta within the window).
    pub degradation: u64,
    /// Telemetry rows lost to ring wrap (delta within the window) — the
    /// recorder's own loss, surfaced as a metric (`obs_*` self-metrics).
    pub obs_dropped_rows: u64,
    /// Rows the streaming exporter lost to wrap before flushing (delta).
    pub obs_stream_lost: u64,
    /// log2 sketch of the manager's plan-phase wall time per quantum
    /// (only populated when profiling is on; observation-only, excluded
    /// from alert evaluation because wall time is not deterministic).
    pub plan_ns: Hist,
    /// log2 sketch of the worst open-loop p99 per quantum, in ns of
    /// simulated latency — a deterministic tail-of-tails sketch.
    pub task_p99_ns: Hist,
}

impl WindowStats {
    /// An empty window.
    pub const fn new() -> WindowStats {
        WindowStats {
            quanta: 0,
            power_w: GaugeStat::new(),
            headroom_w: GaugeStat::new(),
            hottest_c: GaugeStat::new(),
            p99_over_slo: GaugeStat::new(),
            slo_bad_quanta: 0,
            over_tdp_quanta: 0,
            shed: 0,
            degradation: 0,
            obs_dropped_rows: 0,
            obs_stream_lost: 0,
            plan_ns: Hist::new(),
            task_p99_ns: Hist::new(),
        }
    }

    /// Fold another window in: counters add, gauges widen, sketches merge
    /// bucket-wise. Used both for run totals and for the fleet rollup.
    pub fn merge(&mut self, other: &WindowStats) {
        self.quanta += other.quanta;
        self.power_w.merge(&other.power_w);
        self.headroom_w.merge(&other.headroom_w);
        self.hottest_c.merge(&other.hottest_c);
        self.p99_over_slo.merge(&other.p99_over_slo);
        self.slo_bad_quanta += other.slo_bad_quanta;
        self.over_tdp_quanta += other.over_tdp_quanta;
        self.shed += other.shed;
        self.degradation += other.degradation;
        self.obs_dropped_rows += other.obs_dropped_rows;
        self.obs_stream_lost += other.obs_stream_lost;
        self.plan_ns.merge(&other.plan_ns);
        self.task_p99_ns.merge(&other.task_p99_ns);
    }
}

impl Default for WindowStats {
    fn default() -> WindowStats {
        WindowStats::new()
    }
}

/// One quantum's worth of scalars fed to the registry — assembled from
/// the row the recorder just wrote, all by-value (no borrows held).
#[derive(Debug, Clone, Copy)]
pub struct QuantumSample {
    /// Quantum end time (µs of sim time).
    pub t_us: u64,
    /// Chip power (W).
    pub power_w: f64,
    /// TDP headroom (W; NaN when unarmed).
    pub headroom_w: f64,
    /// Hottest sensor (°C; NaN without a thermal model).
    pub hottest_c: f64,
    /// Worst `p99 / SLO` across open-loop tasks (NaN when none).
    pub p99_over_slo: f64,
    /// Any open-loop task's p99 above its SLO this quantum.
    pub slo_bad: bool,
    /// Cumulative sheds across tasks (monotone; the registry takes deltas).
    pub shed_total: u64,
    /// Cumulative degradation events (monotone).
    pub degradation_total: u64,
    /// Cumulative rows dropped by the ring (monotone).
    pub dropped_rows: u64,
    /// Cumulative rows the stream lost to wrap (monotone).
    pub stream_lost: u64,
    /// Plan-phase wall time this quantum (0 = profiling off).
    pub plan_ns: u64,
    /// Worst open-loop p99 this quantum, in ns (0 = no open-loop tasks).
    pub task_p99_ns: u64,
}

/// A closed window handed to the alert engine: the aggregates plus the
/// window's sim-time extent.
#[derive(Debug, Clone)]
pub struct WindowRollup {
    /// Window start (inclusive, µs sim time, aligned to the window length).
    pub start_us: u64,
    /// Window end (exclusive).
    pub end_us: u64,
    /// The aggregates.
    pub stats: WindowStats,
}

/// Counter bases latched at window open, so in-window deltas survive the
/// sources being cumulative.
#[derive(Debug, Clone, Copy, Default)]
struct CounterBase {
    shed: u64,
    degradation: u64,
    dropped: u64,
    stream_lost: u64,
}

/// The live windowed-rollup registry: one accumulating window, the most
/// recently closed window, and run totals. All state is preallocated at
/// construction; [`AggRegistry::observe`] never allocates.
#[derive(Debug, Clone)]
pub struct AggRegistry {
    window_us: u64,
    /// Start of the accumulating window (µs, aligned); meaningless until
    /// the first sample arrives.
    cur_start_us: u64,
    started: bool,
    cur: WindowStats,
    base: CounterBase,
    /// Most recently *closed* window.
    last: Option<WindowRollup>,
    totals: WindowStats,
    windows_closed: u64,
    /// Last sample time seen (for snapshots and monotonicity checks).
    now_us: u64,
}

impl AggRegistry {
    /// A registry with tumbling windows of `window_us` µs of sim time.
    ///
    /// # Panics
    /// If `window_us` is zero.
    pub fn new(window_us: u64) -> AggRegistry {
        assert!(window_us > 0, "aggregation window must be non-zero");
        AggRegistry {
            window_us,
            cur_start_us: 0,
            started: false,
            cur: WindowStats::new(),
            base: CounterBase::default(),
            last: None,
            totals: WindowStats::new(),
            windows_closed: 0,
            now_us: 0,
        }
    }

    /// The tumbling-window length (µs sim time).
    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// Windows closed so far.
    pub fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    /// The most recently closed window, if any has closed yet.
    pub fn last(&self) -> Option<&WindowRollup> {
        self.last.as_ref()
    }

    /// Run totals folded over every observed quantum (including the
    /// still-open window).
    pub fn totals(&self) -> &WindowStats {
        &self.totals
    }

    /// Last observed sim time (µs).
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Fold one quantum in. Returns the closed window when this sample
    /// crossed a window boundary (the caller feeds it to the alert
    /// engine and/or publishes a snapshot); `None` otherwise.
    ///
    /// Hot-path contract: no allocation — closing a window copies inline
    /// structs only.
    pub fn observe(&mut self, s: &QuantumSample) -> Option<WindowRollup> {
        let mut closed = None;
        if !self.started {
            self.started = true;
            self.cur_start_us = s.t_us - s.t_us % self.window_us;
            self.base = CounterBase {
                shed: s.shed_total,
                degradation: s.degradation_total,
                dropped: s.dropped_rows,
                stream_lost: s.stream_lost,
            };
        } else if s.t_us >= self.cur_start_us + self.window_us {
            // Tumble: emit the completed window, then open the aligned
            // window containing this sample (empty gap windows are
            // skipped, not emitted — the alert engine sees sim time via
            // `end_us`, so gaps cannot smear rates).
            let end_us = self.cur_start_us + self.window_us;
            let rollup = WindowRollup {
                start_us: self.cur_start_us,
                end_us,
                stats: self.cur.clone(),
            };
            self.last = Some(rollup.clone());
            self.windows_closed += 1;
            self.cur = WindowStats::new();
            self.cur_start_us = s.t_us - s.t_us % self.window_us;
            closed = Some(rollup);
        }
        self.now_us = s.t_us;

        // Counter deltas against the window-open bases. `saturating_sub`
        // guards against a source resetting (it never should).
        let shed = s.shed_total.saturating_sub(self.base.shed);
        let degradation = s.degradation_total.saturating_sub(self.base.degradation);
        let dropped = s.dropped_rows.saturating_sub(self.base.dropped);
        let stream_lost = s.stream_lost.saturating_sub(self.base.stream_lost);
        self.base = CounterBase {
            shed: s.shed_total,
            degradation: s.degradation_total,
            dropped: s.dropped_rows,
            stream_lost: s.stream_lost,
        };

        for w in [&mut self.cur, &mut self.totals] {
            w.quanta += 1;
            w.power_w.observe(s.power_w);
            w.headroom_w.observe(s.headroom_w);
            w.hottest_c.observe(s.hottest_c);
            w.p99_over_slo.observe(s.p99_over_slo);
            w.slo_bad_quanta += u64::from(s.slo_bad);
            w.over_tdp_quanta += u64::from(s.headroom_w < 0.0);
            // Counters saturate: the recorder's count columns are f64, so
            // an absurd reading must clamp, not overflow.
            w.shed = w.shed.saturating_add(shed);
            w.degradation = w.degradation.saturating_add(degradation);
            w.obs_dropped_rows = w.obs_dropped_rows.saturating_add(dropped);
            w.obs_stream_lost = w.obs_stream_lost.saturating_add(stream_lost);
            if s.plan_ns > 0 {
                w.plan_ns.record(s.plan_ns);
            }
            if s.task_p99_ns > 0 {
                w.task_p99_ns.record(s.task_p99_ns);
            }
        }
        closed
    }

    /// A labelled, self-contained copy for scraping or fleet composition.
    /// Allocates (the label) — call off the hot path only.
    pub fn snapshot(&self, label: &str) -> AggSnapshot {
        AggSnapshot {
            label: label.to_string(),
            window_us: self.window_us,
            windows_closed: self.windows_closed,
            now_us: self.now_us,
            last: self.last.clone(),
            totals: self.totals.clone(),
        }
    }
}

/// A detached, labelled rollup — what the scrape endpoint serves and what
/// fleet composition merges. Mirrors `Auditor`'s absorb-with-label shape:
/// a fleet snapshot is built by absorbing each chip's snapshot into an
/// initially empty rollup labelled `"fleet"`.
#[derive(Debug, Clone)]
pub struct AggSnapshot {
    /// Source label (`"chip 3"`, `"fleet"`, a workload name, …).
    pub label: String,
    /// Tumbling-window length (µs sim time).
    pub window_us: u64,
    /// Windows closed at snapshot time.
    pub windows_closed: u64,
    /// Last observed sim time (µs).
    pub now_us: u64,
    /// Most recently closed window.
    pub last: Option<WindowRollup>,
    /// Run totals.
    pub totals: WindowStats,
}

impl AggSnapshot {
    /// An empty snapshot to absorb chips into.
    pub fn empty(label: &str, window_us: u64) -> AggSnapshot {
        AggSnapshot {
            label: label.to_string(),
            window_us,
            windows_closed: 0,
            now_us: 0,
            last: None,
            totals: WindowStats::new(),
        }
    }

    /// Fold `other` in, the way `Auditor::absorb` folds a chip's audit
    /// into the fleet rollup: totals and last-window aggregates merge
    /// numerically; the fleet's window count and clock are the maxima
    /// (chips step in lockstep sim time, so aligned windows coincide).
    pub fn absorb(&mut self, other: &AggSnapshot) {
        self.windows_closed = self.windows_closed.max(other.windows_closed);
        self.now_us = self.now_us.max(other.now_us);
        self.totals.merge(&other.totals);
        match (&mut self.last, &other.last) {
            (Some(mine), Some(theirs)) => {
                // Lockstep chips close identical [start, end) windows;
                // keep the latest extent if they ever diverge.
                if theirs.end_us > mine.end_us {
                    mine.start_us = theirs.start_us;
                    mine.end_us = theirs.end_us;
                }
                mine.stats.merge(&theirs.stats);
            }
            (None, Some(theirs)) => self.last = Some(theirs.clone()),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t_us: u64, power: f64) -> QuantumSample {
        QuantumSample {
            t_us,
            power_w: power,
            headroom_w: 4.0 - power,
            hottest_c: 50.0,
            p99_over_slo: 0.5,
            slo_bad: false,
            shed_total: 0,
            degradation_total: 0,
            dropped_rows: 0,
            stream_lost: 0,
            plan_ns: 1000,
            task_p99_ns: 2_000_000,
        }
    }

    #[test]
    fn windows_tumble_on_sim_time_boundaries() {
        let mut reg = AggRegistry::new(1_000_000);
        for q in 0..2500u64 {
            let t = (q + 1) * 1000; // 1 ms quanta, ends at 1000, 2000, ...
            let closed = reg.observe(&sample(t, 2.0));
            match t {
                1_000_000 | 2_000_000 => {
                    let w = closed.expect("boundary closes the window");
                    assert_eq!(w.end_us, t);
                    assert_eq!(w.start_us, t - 1_000_000);
                    // Window [0, 1e6) holds ends 1000..=999_000 → 999 quanta;
                    // [1e6, 2e6) holds 1_000_000..=1_999_000 → 1000.
                    assert!(w.stats.quanta == 999 || w.stats.quanta == 1000);
                }
                _ => assert!(closed.is_none(), "no close at t={t}"),
            }
        }
        assert_eq!(reg.windows_closed(), 2);
        assert_eq!(reg.totals().quanta, 2500);
        assert_eq!(reg.last().unwrap().end_us, 2_000_000);
    }

    #[test]
    fn gauges_and_counters_aggregate_correctly() {
        let mut reg = AggRegistry::new(1_000_000);
        let mut s = sample(1000, 1.0);
        reg.observe(&s);
        s.t_us = 2000;
        s.power_w = 3.0;
        s.shed_total = 5;
        s.degradation_total = 2;
        s.slo_bad = true;
        s.p99_over_slo = 2.0;
        reg.observe(&s);
        let t = reg.totals();
        assert_eq!(t.quanta, 2);
        assert_eq!(t.power_w.min, 1.0);
        assert_eq!(t.power_w.max, 3.0);
        assert!((t.power_w.mean() - 2.0).abs() < 1e-12);
        assert_eq!(t.shed, 5);
        assert_eq!(t.degradation, 2);
        assert_eq!(t.slo_bad_quanta, 1);
        assert_eq!(t.p99_over_slo.max, 2.0);
        assert_eq!(t.task_p99_ns.count(), 2);
    }

    #[test]
    fn nan_gauges_are_skipped_not_poisoning() {
        let mut g = GaugeStat::new();
        g.observe(f64::NAN);
        assert_eq!(g.n, 0);
        assert!(g.mean().is_nan());
        g.observe(2.0);
        g.observe(f64::NAN);
        assert_eq!(g.n, 1);
        assert_eq!(g.mean(), 2.0);
    }

    #[test]
    fn counter_deltas_span_window_boundaries_without_loss() {
        let mut reg = AggRegistry::new(1000);
        let mut s = sample(500, 1.0);
        s.shed_total = 10;
        reg.observe(&s); // base latched at 10
        s.t_us = 1500; // crosses into window [1000, 2000)
        s.shed_total = 17;
        let closed = reg.observe(&s).expect("closed");
        assert_eq!(closed.stats.shed, 0, "first window saw no delta");
        assert_eq!(reg.totals().shed, 7);
        s.t_us = 2500;
        s.shed_total = 20;
        let closed = reg.observe(&s).expect("closed");
        assert_eq!(closed.stats.shed, 7, "second window carried the delta");
        assert_eq!(reg.totals().shed, 10);
    }

    #[test]
    fn absorb_composes_like_the_auditor() {
        let mut a = AggRegistry::new(1_000_000);
        let mut b = AggRegistry::new(1_000_000);
        for q in 0..1200u64 {
            let t = (q + 1) * 1000;
            a.observe(&sample(t, 1.0));
            b.observe(&sample(t, 3.0));
        }
        let mut fleet = AggSnapshot::empty("fleet", 1_000_000);
        fleet.absorb(&a.snapshot("chip 0"));
        fleet.absorb(&b.snapshot("chip 1"));
        assert_eq!(fleet.totals.quanta, 2400);
        assert_eq!(fleet.totals.power_w.min, 1.0);
        assert_eq!(fleet.totals.power_w.max, 3.0);
        assert_eq!(fleet.windows_closed, 1);
        let last = fleet.last.expect("merged last window");
        assert_eq!(last.end_us, 1_000_000);
        assert_eq!(last.stats.quanta, 999 * 2);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_panics() {
        let _ = AggRegistry::new(0);
    }
}
