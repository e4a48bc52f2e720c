//! The phase profiler: where does a quantum's wall-clock go?
//!
//! The executor (and, through the [`Phase`] hooks, the market) wraps each
//! stage of a quantum — snapshot capture, the manager's plan with its
//! bid / price-discovery / DVFS / LBT sub-phases, plan application, the
//! physics step, and the auditor — in a *span* measured on the host's
//! monotonic clock ([`std::time::Instant`]). Spans are aggregated into
//! fixed-bucket log2 histograms ([`Hist`]), so recording is O(1), needs no
//! allocation, and the whole profiler is a few KB regardless of run length.
//!
//! Virtual time never appears here: the simulated clock orders the spans
//! (the recorder and the Chrome exporter place them on the quantum they
//! belong to), while the monotonic clock sizes them. Keeping the two
//! timebases separate is what lets profiling observe a run without
//! perturbing it — the golden tapes stay bit-identical with profiling on.

use std::time::Instant;

/// One instrumented stage of a simulation quantum.
///
/// The first block are executor stages (disjoint, in quantum order); the
/// `Market*` and `Lbt` entries are sub-phases *inside* [`Phase::Plan`]
/// reported by managers through the profiler `PowerManager::plan` is
/// handed while profiling — their sum is bounded by `Plan`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// The snapshot's platform capture, observation-fault perturbation,
    /// and its task capture on the quanta that read the tasks (a tape
    /// record's late task capture is timed in [`Phase::Apply`]).
    Capture,
    /// The whole `PowerManager::plan` call.
    Plan,
    /// Plan application (`System::apply_plan`, or the fault gauntlet).
    Apply,
    /// The physics quantum (`System::step`).
    Step,
    /// The every-quantum invariant auditor, when attached.
    Audit,
    /// Retired, always zero; kept for the benchmark's declared `market_diff` metrics.
    MarketDiff,
    /// Market sub-phase: slot placement, allowance distribution, task bids.
    MarketBid,
    /// Retired, always zero; kept for the benchmark's declared `market_shard` metrics.
    MarketShard,
    /// Market sub-phase: core-agent price discovery and purchases.
    MarketPrice,
    /// Market sub-phase: cluster inflation/deflation and chip allowance
    /// (the whole round when no task participates).
    MarketDvfs,
    /// The load-balancing module, on its cadence.
    Lbt,
}

impl Phase {
    /// Number of phases (sizes the fixed arrays).
    pub const COUNT: usize = 11;

    /// Every phase, in display order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Capture,
        Phase::Plan,
        Phase::Apply,
        Phase::Step,
        Phase::Audit,
        Phase::MarketDiff,
        Phase::MarketBid,
        Phase::MarketShard,
        Phase::MarketPrice,
        Phase::MarketDvfs,
        Phase::Lbt,
    ];

    /// Stable display name (also the Chrome-trace span name and the
    /// `ph_<name>_ns` CSV column stem).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Capture => "capture",
            Phase::Plan => "plan",
            Phase::Apply => "apply",
            Phase::Step => "step",
            Phase::Audit => "audit",
            Phase::MarketDiff => "market_diff",
            Phase::MarketBid => "market_bid",
            Phase::MarketShard => "market_shard",
            Phase::MarketPrice => "market_price",
            Phase::MarketDvfs => "market_dvfs",
            Phase::Lbt => "lbt",
        }
    }

    /// Whether this is a sub-phase of [`Phase::Plan`] (drawn nested in the
    /// Chrome trace).
    pub fn is_plan_subphase(self) -> bool {
        matches!(
            self,
            Phase::MarketDiff
                | Phase::MarketBid
                | Phase::MarketShard
                | Phase::MarketPrice
                | Phase::MarketDvfs
                | Phase::Lbt
        )
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Number of log2 buckets: bucket `i` counts durations with
/// `floor(log2(ns)) == i`, so 40 buckets span 1 ns to ~18 minutes — far
/// beyond any quantum stage.
pub const HIST_BUCKETS: usize = 40;

/// A fixed-bucket log2 histogram of nanosecond durations.
///
/// Recording is a shift and two adds; percentiles are approximate (the
/// answer is the upper bound of the bucket holding the requested rank,
/// clamped to the true maximum), which is the right trade for a profiler
/// that must never allocate or sort on the hot path.
#[derive(Debug, Clone)]
pub struct Hist {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

impl Hist {
    /// An empty histogram.
    pub const fn new() -> Hist {
        Hist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// Bucket index for a duration: `floor(log2(ns))`, clamped to the top
    /// bucket (0 ns shares bucket 0 with 1 ns).
    pub fn bucket_of(ns: u64) -> usize {
        if ns <= 1 {
            0
        } else {
            ((63 - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Record one duration.
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded durations in ns.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Largest recorded duration in ns (exact, not bucketed).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean duration in ns (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Raw bucket counts (`buckets[i]` counts `floor(log2(ns)) == i`).
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Approximate percentile `q` in `[0, 100]`: the inclusive upper bound
    /// (`2^(i+1) − 1` ns) of the bucket containing the rank-`ceil(q/100·n)`
    /// duration, clamped to the exact maximum. Returns 0 when empty.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let upper = if i + 1 >= 64 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return upper.min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Merge another histogram into this one (bucket-wise).
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Per-phase histograms plus the most recent span per phase (so the
/// recorder can attach "this quantum's" durations to its row).
///
/// Everything is fixed-size: construction is the only allocation-relevant
/// moment, and even that is plain stack-sized arrays.
#[derive(Debug, Clone)]
pub struct PhaseProfiler {
    hists: [Hist; Phase::COUNT],
    /// Span recorded for each phase since the last [`PhaseProfiler::take_last`].
    last_ns: [u64; Phase::COUNT],
}

impl Default for PhaseProfiler {
    fn default() -> PhaseProfiler {
        PhaseProfiler::new()
    }
}

impl PhaseProfiler {
    /// A fresh profiler with empty histograms.
    pub fn new() -> PhaseProfiler {
        PhaseProfiler {
            hists: [const { Hist::new() }; Phase::COUNT],
            last_ns: [0; Phase::COUNT],
        }
    }

    /// Record a span of `ns` for `phase`.
    pub fn record(&mut self, phase: Phase, ns: u64) {
        self.hists[phase.index()].record(ns);
        self.last_ns[phase.index()] += ns;
    }

    /// The histogram for `phase`.
    pub fn hist(&self, phase: Phase) -> &Hist {
        &self.hists[phase.index()]
    }

    /// Spans accumulated per phase since the previous call, then reset —
    /// the recorder calls this once per quantum to column-ize "where did
    /// *this* quantum's wall time go". Indexed like [`Phase::ALL`] via
    /// `Phase as usize`.
    pub fn take_last(&mut self) -> [u64; Phase::COUNT] {
        std::mem::replace(&mut self.last_ns, [0; Phase::COUNT])
    }

    /// Total spans recorded across all phases.
    pub fn total_count(&self) -> u64 {
        self.hists.iter().map(Hist::count).sum()
    }

    /// Merge another profiler's histograms into this one.
    pub fn merge(&mut self, other: &PhaseProfiler) {
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
    }
}

/// Close the span opened at `*mark` as `phase` and restart the mark — the
/// "lap" idiom instrumentation sites use. Both options collapse to nothing
/// when profiling is off, so the disabled cost is one branch.
#[inline]
pub fn lap(prof: Option<&mut PhaseProfiler>, mark: &mut Option<Instant>, phase: Phase) {
    if let (Some(p), Some(m)) = (prof, mark.as_mut()) {
        let now = Instant::now();
        p.record(phase, now.duration_since(*m).as_nanos() as u64);
        *m = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_is_floor_log2() {
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 0);
        assert_eq!(Hist::bucket_of(2), 1);
        assert_eq!(Hist::bucket_of(3), 1);
        assert_eq!(Hist::bucket_of(4), 2);
        assert_eq!(Hist::bucket_of(1023), 9);
        assert_eq!(Hist::bucket_of(1024), 10);
        assert_eq!(Hist::bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    // The hand-computed fixture the exporter tests lean on: ten spans with
    // known bucket placement and exact expected percentiles.
    #[test]
    fn percentiles_match_hand_computed_fixture() {
        let mut h = Hist::new();
        // Buckets: 100,120 → b6; 200 → b7; 1000(×6) → b9; 9000 → b13.
        for ns in [100, 120, 200, 1000, 1000, 1000, 1000, 1000, 1000, 9000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.max_ns(), 9000);
        assert_eq!(h.sum_ns(), 100 + 120 + 200 + 6000 + 9000);
        // p50: rank ceil(0.5·10)=5 → cumulative 2(b6)+1(b7)+6(b9) reaches 5
        // in bucket 9 → upper bound 2^10−1 = 1023.
        assert_eq!(h.percentile_ns(50.0), 1023);
        // p95: rank 10 → bucket 13 → upper bound 2^14−1 = 16383, clamped
        // to the exact max 9000.
        assert_eq!(h.percentile_ns(95.0), 9000);
        assert_eq!(h.percentile_ns(99.0), 9000);
        // p10: rank 1 → bucket 6 → upper bound 127.
        assert_eq!(h.percentile_ns(10.0), 127);
        assert_eq!(h.percentile_ns(0.0), 127); // rank clamps to 1
        assert_eq!(h.percentile_ns(100.0), 9000);
    }

    #[test]
    fn empty_hist_is_all_zero() {
        let h = Hist::new();
        assert_eq!(h.percentile_ns(50.0), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.mean_ns(), 0.0);
    }

    #[test]
    fn merge_adds_counts_and_keeps_max() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        a.record(10);
        b.record(5000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_ns(), 5000);
    }

    #[test]
    fn take_last_accumulates_and_resets() {
        let mut p = PhaseProfiler::new();
        p.record(Phase::Plan, 100);
        p.record(Phase::Plan, 50);
        p.record(Phase::Step, 7);
        let last = p.take_last();
        assert_eq!(last[Phase::Plan as usize], 150);
        assert_eq!(last[Phase::Step as usize], 7);
        assert_eq!(p.take_last(), [0; Phase::COUNT]);
        // Histograms keep the full history.
        assert_eq!(p.hist(Phase::Plan).count(), 2);
        assert_eq!(p.total_count(), 3);
    }

    #[test]
    fn lap_records_elapsed_and_restarts() {
        let mut p = PhaseProfiler::new();
        let mut mark = Some(Instant::now());
        lap(Some(&mut p), &mut mark, Phase::Capture);
        assert_eq!(p.hist(Phase::Capture).count(), 1);
        // Disabled profiler: no-op, mark untouched.
        lap(None, &mut mark, Phase::Capture);
        assert_eq!(p.hist(Phase::Capture).count(), 1);
        let mut no_mark = None;
        lap(Some(&mut p), &mut no_mark, Phase::Capture);
        assert_eq!(p.hist(Phase::Capture).count(), 1);
    }
}
