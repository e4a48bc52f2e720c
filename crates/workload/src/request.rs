//! Open-loop requests, bounded queues, and the tail-latency SLO monitor.
//!
//! Where a closed-loop benchmark's performance signal is its heart-rate
//! error, an open-loop service's signal is *tail latency against an SLO*:
//! requests arrive on an [`crate::arrivals::ArrivalProcess`] tape whether
//! or not the task keeps up, wait in a bounded FIFO queue, consume a
//! Weibull-distributed number of heartbeats of service, and report their
//! sojourn time on completion. The [`SloMonitor`] parallels
//! [`crate::heartbeat::HeartbeatWindows`]: it keeps a preallocated window
//! of recent latencies, sorted as it slides, and exposes the p99 the
//! market prices against the SLO (the performance-based-pricing signal of
//! Lučanin et al.).
//!
//! Everything here is preallocated at admission: steady-state operation —
//! admit, shed, serve, slide the latency window — never allocates.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ppm_platform::units::{SimDuration, SimTime};

use crate::arrivals::{ArrivalKind, ArrivalProcess};
use crate::generator::gamma;

/// One in-flight request: when it arrived and how many heartbeats of
/// service it still needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Arrival timestamp from the tape.
    pub arrival: SimTime,
    /// Remaining service demand in heartbeats.
    pub remaining: f64,
}

/// A bounded FIFO request queue backed by a preallocated ring.
///
/// A full queue sheds the *oldest* request (the one already most likely to
/// have blown its SLO) and counts it; pushing never panics and never
/// allocates after construction.
#[derive(Debug, Clone)]
pub struct RequestQueue {
    buf: Vec<Request>,
    head: usize,
    len: usize,
    shed: u64,
}

impl RequestQueue {
    /// An empty queue holding at most `cap` requests.
    ///
    /// # Panics
    ///
    /// Panics on a zero capacity.
    pub fn new(cap: usize) -> RequestQueue {
        assert!(cap > 0, "queue capacity must be positive");
        RequestQueue {
            buf: vec![
                Request {
                    arrival: SimTime::ZERO,
                    remaining: 0.0,
                };
                cap
            ],
            head: 0,
            len: 0,
            shed: 0,
        }
    }

    /// Queued requests.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Requests shed (oldest-dropped on overflow) so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// The oldest queued request.
    pub fn front(&self) -> Option<&Request> {
        (self.len > 0).then(|| &self.buf[self.head])
    }

    /// Append `req`; on a full ring the oldest request is dropped and
    /// counted. Returns the shed request, if any.
    pub fn push(&mut self, req: Request) -> Option<Request> {
        let cap = self.buf.len();
        let dropped = if self.len == cap {
            let old = self.buf[self.head];
            self.head = (self.head + 1) % cap;
            self.len -= 1;
            self.shed += 1;
            Some(old)
        } else {
            None
        };
        self.buf[(self.head + self.len) % cap] = req;
        self.len += 1;
        dropped
    }

    /// Remove and return the oldest request.
    pub fn pop(&mut self) -> Option<Request> {
        if self.len == 0 {
            return None;
        }
        let req = self.buf[self.head];
        self.head = (self.head + 1) % self.buf.len();
        self.len -= 1;
        Some(req)
    }

    /// Mutable access to the oldest request (to serve it in place).
    fn front_mut(&mut self) -> Option<&mut Request> {
        (self.len > 0).then(|| &mut self.buf[self.head])
    }
}

/// Sliding-window tail-latency monitor, the open-loop analogue of a
/// task's heartbeat window ([`crate::heartbeat::HeartbeatWindows`]).
///
/// Completion latencies land in a preallocated FIFO ring, and the same
/// samples are kept beside it in a preallocated ascending array: each
/// completion binary-searches the evicted sample out of that array and
/// inserts the new one at its place, so a percentile is an index into it
/// and nothing allocates. Samples are ordered by [`f64::total_cmp`], under
/// which two samples compare equal only when their bits are equal, so the
/// array is bit for bit a full sort of the window.
#[derive(Debug, Clone)]
pub struct SloMonitor {
    slo: SimDuration,
    /// FIFO ring of the samples, oldest at `head`; `sorted.len()` of its
    /// slots are in the window.
    window: Vec<f64>,
    head: usize,
    /// The window's samples in ascending `total_cmp` order.
    sorted: Vec<f64>,
    /// The p99 of `sorted`, set by `record`. Every task's QoS check reads
    /// it every quantum, and a load keeps that check small enough to
    /// inline into the executor's step, closed-loop tasks included.
    p99_s: f64,
    completed: u64,
}

impl SloMonitor {
    /// Default latency-window capacity (completions).
    pub const DEFAULT_WINDOW: usize = 512;

    /// A monitor targeting `slo` at p99 over a `window_cap`-completion window.
    ///
    /// # Panics
    ///
    /// Panics on a zero SLO or window.
    pub fn new(slo: SimDuration, window_cap: usize) -> SloMonitor {
        assert!(!slo.is_zero(), "SLO must be positive");
        assert!(window_cap > 0, "latency window must be positive");
        SloMonitor {
            slo,
            window: vec![0.0; window_cap],
            head: 0,
            sorted: Vec::with_capacity(window_cap),
            p99_s: 0.0,
            completed: 0,
        }
    }

    /// The p99 latency target.
    pub fn slo(&self) -> SimDuration {
        self.slo
    }

    /// Completions observed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Record one completion with sojourn time `latency`, evicting the
    /// oldest sample once the window is full: an O(log W) search and an
    /// O(W) shift of the sorted samples, no allocation.
    pub fn record(&mut self, latency: SimDuration) {
        let sample = latency.as_secs_f64();
        let cap = self.window.len();
        if self.sorted.len() == cap {
            let old = self.window[self.head];
            let at = self
                .sorted
                .binary_search_by(|s| s.total_cmp(&old))
                .expect("every windowed sample is in the sorted array");
            self.sorted.remove(at);
            self.head = (self.head + 1) % cap;
        }
        self.window[(self.head + self.sorted.len()) % cap] = sample;
        let at = self
            .sorted
            .partition_point(|s| s.total_cmp(&sample).is_lt());
        self.sorted.insert(at, sample);
        self.p99_s = percentile(&self.sorted, 0.99);
        self.completed += 1;
    }

    /// p99 latency (s) over the window; 0 while it is empty.
    pub fn p99_secs(&self) -> f64 {
        self.p99_s
    }

    /// Median latency (s) over the window; 0 while it is empty.
    pub fn p50_secs(&self) -> f64 {
        percentile(&self.sorted, 0.50)
    }

    /// True when the windowed p99 exceeds the SLO — the open-loop
    /// QoS-miss condition.
    pub fn misses_slo(&self) -> bool {
        self.p99_s > self.slo.as_secs_f64()
    }
}

impl fmt::Display for SloMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p99 {:.1} ms / SLO {:.1} ms ({} done)",
            self.p99_secs() * 1e3,
            self.slo.as_secs_f64() * 1e3,
            self.completed
        )
    }
}

/// Tail-conservative percentile of an ascending-sorted slice: the smallest
/// element strictly greater-ranked than `q` of the samples, so one slow
/// request in a hundred *is* the p99 rather than hiding behind it.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).floor() as usize + 1).min(sorted.len());
    sorted[rank - 1]
}

/// Static description of an open-loop service attached to a
/// [`crate::benchmarks::BenchmarkSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSpec {
    /// The arrival process shape.
    pub arrivals: ArrivalKind,
    /// Seed of the arrival tape and the service-demand stream.
    pub seed: u64,
    /// Mean service demand per request, in heartbeats.
    pub service_beats: f64,
    /// Weibull shape `k` of the per-request service variation (1.0 =
    /// exponential; larger = more uniform; smaller = heavier tail).
    pub weibull_shape: f64,
    /// p99 latency target.
    pub slo: SimDuration,
    /// Bounded request-queue capacity.
    pub queue_cap: usize,
    /// Latency-window capacity of the [`SloMonitor`].
    pub window: usize,
}

impl OpenLoopSpec {
    /// A spec with the default queue (256) and window
    /// ([`SloMonitor::DEFAULT_WINDOW`]) sizes.
    pub fn new(
        arrivals: ArrivalKind,
        seed: u64,
        service_beats: f64,
        weibull_shape: f64,
        slo: SimDuration,
    ) -> OpenLoopSpec {
        OpenLoopSpec {
            arrivals,
            seed,
            service_beats,
            weibull_shape,
            slo,
            queue_cap: 256,
            window: SloMonitor::DEFAULT_WINDOW,
        }
    }

    /// Replace the [`SloMonitor`] window capacity. The window is the
    /// monitor's memory: at λ requests/s it spans `window / λ` seconds, so
    /// a window far larger than the control loop's time scale keeps p99
    /// pointing at long-gone transients (and the pressure term saturated)
    /// long after the queue has drained.
    pub fn with_window(mut self, window: usize) -> OpenLoopSpec {
        self.window = window;
        self
    }

    /// Target heartbeat throughput (hb/s) needed to keep up with the mean
    /// arrival rate: `λ · service_beats`.
    pub fn target_beat_rate(&self) -> f64 {
        self.arrivals.mean_rate() * self.service_beats
    }
}

/// Copyable open-loop vitals carried by the system snapshot so managers
/// and telemetry see queue pressure and tail latency without touching the
/// live task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSnap {
    /// Requests waiting in the bounded queue.
    pub queue_depth: u32,
    /// p99 latency over the monitor window, in milliseconds.
    pub p99_ms: f64,
    /// The p99 SLO, in milliseconds.
    pub slo_ms: f64,
    /// Requests shed (oldest-dropped) since admission.
    pub shed: u64,
}

/// Live open-loop state of one task: arrival tape cursor, service-demand
/// stream, bounded queue, and SLO monitor.
///
/// Steady-state operation (admit/serve per quantum) is allocation-free;
/// everything is sized at construction.
#[derive(Debug, Clone)]
pub struct OpenLoopState {
    spec: OpenLoopSpec,
    arrivals: ArrivalProcess,
    service_rng: StdRng,
    /// Weibull scale premultiplied so samples have mean `service_beats`.
    weibull_scale: f64,
    queue: RequestQueue,
    monitor: SloMonitor,
    /// Running sum of `remaining` over the queue (kept incrementally so
    /// the executor's work cap is O(1)).
    queued_beats: f64,
    /// Shed events not yet logged by a manager (drained via
    /// [`OpenLoopState::shed_total`] deltas on the snapshot side).
    served: u64,
}

impl OpenLoopState {
    /// Instantiate `spec`: seeds the arrival tape and an independent
    /// service-demand stream, preallocates the queue and latency window.
    pub fn new(spec: OpenLoopSpec) -> OpenLoopState {
        assert!(spec.service_beats > 0.0, "service demand must be positive");
        assert!(spec.weibull_shape > 0.0, "Weibull shape must be positive");
        // Mean of Weibull(k, scale) is scale·Γ(1 + 1/k); normalize so the
        // sampled service demand has mean `service_beats`.
        let weibull_scale = spec.service_beats / gamma(1.0 + 1.0 / spec.weibull_shape);
        OpenLoopState {
            arrivals: ArrivalProcess::new(spec.arrivals, spec.seed),
            // Decorrelate the service stream from the arrival tape.
            service_rng: StdRng::seed_from_u64(spec.seed ^ 0x9e37_79b9_7f4a_7c15),
            weibull_scale,
            queue: RequestQueue::new(spec.queue_cap),
            monitor: SloMonitor::new(spec.slo, spec.window),
            queued_beats: 0.0,
            served: 0,
            spec,
        }
    }

    /// The static spec.
    pub fn spec(&self) -> &OpenLoopSpec {
        &self.spec
    }

    /// Admit every arrival due at or before `now` into the queue, sampling
    /// each request's service demand; a full queue sheds its oldest entry.
    pub fn admit_until(&mut self, now: SimTime) {
        while let Some(arrival) = self.arrivals.next_due(now) {
            let u: f64 = self.service_rng.gen_range(0.0..1.0);
            let beats = self.weibull_scale * (-(1.0 - u).ln()).powf(1.0 / self.spec.weibull_shape);
            // Degenerate draws (u ≈ 0) round up to a minimal request, kept
            // above the dust threshold `serve` completes for free.
            let beats = beats.max(1e-6);
            if let Some(old) = self.queue.push(Request {
                arrival,
                remaining: beats,
            }) {
                self.queued_beats -= old.remaining;
            }
            self.queued_beats += beats;
        }
    }

    /// Serve up to `beats` heartbeats of queued work FIFO, recording the
    /// sojourn time of every request completed by `now`. Returns the beats
    /// actually consumed.
    pub fn serve(&mut self, beats: f64, now: SimTime) -> f64 {
        let mut left = beats;
        while left > 0.0 {
            let Some(front) = self.queue.front_mut() else {
                break;
            };
            if front.remaining > left {
                front.remaining -= left;
                self.queued_beats -= left;
                left = 0.0;
            } else {
                left -= front.remaining;
                self.queued_beats -= front.remaining;
                let done = self.queue.pop().expect("front exists");
                self.monitor.record(now.since(done.arrival));
                self.served += 1;
            }
        }
        // Sweep float dust: `queued_beats` is maintained incrementally, so
        // its rounding can land a hair *under* the front request's true
        // residue. Left alone, that ε-request would strand until the next
        // arrival replenishes the work cap — inflating measured tail
        // latency by a whole inter-arrival gap. Anything below a
        // nano-beat completes now.
        while self.queue.front().is_some_and(|f| f.remaining <= 1e-9) {
            let done = self.queue.pop().expect("front exists");
            self.queued_beats -= done.remaining;
            self.monitor.record(now.since(done.arrival));
            self.served += 1;
        }
        self.queued_beats = self.queued_beats.max(0.0);
        if self.queue.is_empty() {
            self.queued_beats = 0.0;
        }
        beats - left
    }

    /// Total heartbeats of queued work (the executor's service cap).
    pub fn queued_beats(&self) -> f64 {
        self.queued_beats
    }

    /// Requests currently queued.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Requests shed since admission.
    pub fn shed_total(&self) -> u64 {
        self.queue.shed()
    }

    /// Requests completed since admission.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// The latency monitor.
    pub fn monitor(&self) -> &SloMonitor {
        &self.monitor
    }

    /// SLO pressure on the task's bid: the worse of two ratios against the
    /// SLO, clamped to `[1.0, 2.0]`. Above 1 the task bids its demand up
    /// (latency at risk).
    ///
    /// - **Measured tail** — `p99 / SLO`, once ≥ 20 completions exist to
    ///   trust the percentile. Tracks sustained overload, but the window
    ///   needs `window / λ` seconds to notice a change.
    /// - **Backlog drain** — the seconds of queued work (at the offered
    ///   arrival rate) over the SLO. A burst inflates the backlog at its
    ///   first over-full quantum, so the bid rises *at burst onset*,
    ///   before a single slowed request reaches the percentile window.
    ///
    /// The floor is 1.0 — never below the provisioned service rate —
    /// because a bid under nominal capacity undercuts the offered load
    /// itself (the arrival headroom is smaller than any sub-1 floor would
    /// allow), so the queue rebuilds and the tail limit-cycles around the
    /// SLO instead of settling under it. Slack capacity is already
    /// returned through price: an open-loop task at pressure 1.0 bids
    /// exactly what serving its provisioned traffic costs, no more.
    pub fn pressure(&self) -> f64 {
        let slo = self.spec.slo.as_secs_f64();
        let offered = self.arrivals.kind().mean_rate() * self.spec.service_beats;
        let drain = if offered > 0.0 {
            self.queued_beats / offered
        } else {
            0.0
        };
        let mut p = drain / slo;
        if self.monitor.completed() >= 20 {
            p = p.max(self.monitor.p99_secs() / slo);
        }
        p.clamp(1.0, 2.0)
    }

    /// Copyable vitals for the system snapshot.
    pub fn snap(&self) -> OpenLoopSnap {
        OpenLoopSnap {
            queue_depth: self.queue.len() as u32,
            p99_ms: self.monitor.p99_secs() * 1e3,
            slo_ms: self.spec.slo.as_secs_f64() * 1e3,
            shed: self.queue.shed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec() -> OpenLoopSpec {
        OpenLoopSpec::new(
            ArrivalKind::Poisson { rate: 100.0 },
            42,
            4.0,
            1.5,
            SimDuration::from_millis(100),
        )
    }

    #[test]
    fn queue_sheds_oldest_on_overflow() {
        let mut q = RequestQueue::new(3);
        for i in 0..5u64 {
            q.push(Request {
                arrival: SimTime(i),
                remaining: 1.0,
            });
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.shed(), 2);
        // The two oldest (0, 1) were shed.
        assert_eq!(q.pop().expect("front").arrival, SimTime(2));
        assert_eq!(q.pop().expect("front").arrival, SimTime(3));
        assert_eq!(q.pop().expect("front").arrival, SimTime(4));
        assert!(q.pop().is_none());
    }

    #[test]
    fn slo_monitor_p99_tracks_tail() {
        let mut m = SloMonitor::new(SimDuration::from_millis(100), 200);
        // 99 fast completions, 1 slow: p99 lands on the slow one.
        for _ in 0..99 {
            m.record(SimDuration::from_millis(10));
        }
        m.record(SimDuration::from_millis(500));
        assert!((m.p99_secs() - 0.5).abs() < 1e-12);
        assert!((m.p50_secs() - 0.01).abs() < 1e-12);
        assert!(m.misses_slo());
    }

    #[test]
    fn slo_monitor_empty_window_reads_zero() {
        let m = SloMonitor::new(SimDuration::from_millis(100), 8);
        assert_eq!(m.p50_secs(), 0.0);
        assert_eq!(m.p99_secs(), 0.0);
        assert!(!m.misses_slo(), "an empty window is not an SLO miss");
        assert_eq!(m.completed(), 0);
    }

    #[test]
    fn slo_monitor_exact_percentile_rank_boundaries() {
        // A single completion IS every percentile.
        let mut m = SloMonitor::new(SimDuration::from_millis(100), 8);
        m.record(SimDuration::from_millis(42));
        assert!((m.p50_secs() - 0.042).abs() < 1e-12);
        assert!((m.p99_secs() - 0.042).abs() < 1e-12);

        // Exactly 100 distinct latencies: the nearest-rank rule lands p50
        // on the 51st order statistic and p99 on the 100th — no
        // interpolation between observed values, ever.
        let mut m = SloMonitor::new(SimDuration::from_millis(500), 100);
        for i in 1..=100u64 {
            m.record(SimDuration::from_millis(i));
        }
        assert!((m.p50_secs() - 0.051).abs() < 1e-12);
        assert!((m.p99_secs() - 0.100).abs() < 1e-12);
    }

    #[test]
    fn slo_monitor_full_eviction_forgets_the_old_tail() {
        // Fill the window with slow completions, then push a full window
        // of fast ones: the slow tail must be completely evicted, so the
        // p99 drops back under the SLO (guards the ring head/len
        // arithmetic at the exact wrap boundary).
        let mut m = SloMonitor::new(SimDuration::from_millis(100), 64);
        for _ in 0..64 {
            m.record(SimDuration::from_millis(500));
        }
        assert!(m.misses_slo());
        for _ in 0..64 {
            m.record(SimDuration::from_millis(1));
        }
        assert!((m.p99_secs() - 0.001).abs() < 1e-12);
        assert!(!m.misses_slo());
        assert_eq!(m.completed(), 128, "eviction never uncounts completions");
    }

    #[test]
    fn admission_clock_regression_admits_nothing_twice() {
        // The executor's clock only moves forward, but a stalled or
        // repeated `now` must be a no-op: re-admitting up to the same
        // instant (or an earlier one) may not re-deliver arrivals, shed,
        // or resample service draws.
        let mut s = OpenLoopState::new(spec());
        s.admit_until(SimTime::from_secs(1));
        let (depth, beats, shed) = (s.queue_depth(), s.queued_beats(), s.shed_total());
        assert!(depth > 0, "1 s at 100 req/s must admit something");
        s.admit_until(SimTime::from_secs(1));
        s.admit_until(SimTime::from_millis(1));
        assert_eq!(s.queue_depth(), depth);
        assert_eq!(s.queued_beats(), beats);
        assert_eq!(s.shed_total(), shed);
    }

    proptest! {
        /// Percentiles are ordered and always one of the windowed
        /// observations — the nearest-rank estimator never interpolates.
        #[test]
        fn slo_monitor_percentiles_ordered_and_observed(
            lat in proptest::collection::vec(1_u64..1_000_000, 1..300),
        ) {
            let mut m = SloMonitor::new(SimDuration::from_millis(100), 128);
            for &l in &lat {
                m.record(SimDuration(l));
            }
            prop_assert!(m.p50_secs() <= m.p99_secs());
            let windowed: Vec<f64> = lat
                .iter()
                .rev()
                .take(128)
                .map(|&l| SimDuration(l).as_secs_f64())
                .collect();
            prop_assert!(windowed.iter().any(|&s| (s - m.p99_secs()).abs() < 1e-15));
            prop_assert!(windowed.iter().any(|&s| (s - m.p50_secs()).abs() < 1e-15));
        }
    }

    /// The monitor as it was before its window was kept sorted: every
    /// refresh copied the ring into scratch and sorted it whole. Kept
    /// verbatim as the oracle of the sorted sliding window.
    mod reference {
        use ppm_platform::units::SimDuration;

        #[derive(Debug, Clone)]
        pub struct SloMonitor {
            slo: SimDuration,
            window: Vec<f64>,
            head: usize,
            len: usize,
            scratch: Vec<f64>,
            cached_p99_s: f64,
            cached_p50_s: f64,
            dirty: bool,
            completed: u64,
        }

        impl SloMonitor {
            pub fn new(slo: SimDuration, window_cap: usize) -> SloMonitor {
                assert!(!slo.is_zero(), "SLO must be positive");
                assert!(window_cap > 0, "latency window must be positive");
                SloMonitor {
                    slo,
                    window: vec![0.0; window_cap],
                    head: 0,
                    len: 0,
                    scratch: Vec::with_capacity(window_cap),
                    cached_p99_s: 0.0,
                    cached_p50_s: 0.0,
                    dirty: false,
                    completed: 0,
                }
            }

            pub fn completed(&self) -> u64 {
                self.completed
            }

            pub fn record(&mut self, latency: SimDuration) {
                let cap = self.window.len();
                if self.len == cap {
                    self.head = (self.head + 1) % cap;
                    self.len -= 1;
                }
                self.window[(self.head + self.len) % cap] = latency.as_secs_f64();
                self.len += 1;
                self.completed += 1;
                self.dirty = true;
            }

            pub fn refresh(&mut self) {
                if !self.dirty {
                    return;
                }
                self.scratch.clear();
                let cap = self.window.len();
                for i in 0..self.len {
                    self.scratch.push(self.window[(self.head + i) % cap]);
                }
                self.scratch.sort_unstable_by(f64::total_cmp);
                self.cached_p99_s = percentile(&self.scratch, 0.99);
                self.cached_p50_s = percentile(&self.scratch, 0.50);
                self.dirty = false;
            }

            pub fn p99_secs(&self) -> f64 {
                self.cached_p99_s
            }

            pub fn p50_secs(&self) -> f64 {
                self.cached_p50_s
            }

            pub fn misses_slo(&self) -> bool {
                self.cached_p99_s > self.slo.as_secs_f64()
            }
        }

        fn percentile(sorted: &[f64], q: f64) -> f64 {
            if sorted.is_empty() {
                return 0.0;
            }
            let rank = ((q * sorted.len() as f64).floor() as usize + 1).min(sorted.len());
            sorted[rank - 1]
        }
    }

    /// A latency stream for the reference proptest: mostly one of four
    /// microsecond values, so equal samples are evicted and inserted all
    /// the time, and one draw in ten spread up to 1 s, on either side of
    /// the 0.5 s SLO the test sets.
    fn clustered_latency() -> impl Strategy<Value = u64> {
        (0_u64..10, 1_u64..=4, 1_u64..1_000_000)
            .prop_map(|(pick, few, wide)| if pick == 0 { wide } else { few })
    }

    /// Window caps 1–300, with the generated families' 128 and the
    /// default 512 drawn again on their own.
    fn window_cap() -> impl Strategy<Value = usize> {
        (0_usize..302).prop_map(|k| match k {
            300 => 128,
            301 => SloMonitor::DEFAULT_WINDOW,
            k => k + 1,
        })
    }

    proptest! {
        /// The sorted sliding window reads exactly what sorting the whole
        /// window reads: after every batch of 0–5 completions, p99, p50,
        /// the SLO verdict and the completion count agree bit for bit,
        /// through the fill, the first eviction and many wraps.
        #[test]
        fn sorted_window_matches_the_sorting_reference(
            (cap, batches) in window_cap()
                .prop_flat_map(|cap| (
                    Just(cap),
                    proptest::collection::vec(
                        proptest::collection::vec(clustered_latency(), 0..=5),
                        0..=cap * 8 / 5 + 1,
                    ),
                )),
        ) {
            let slo = SimDuration::from_millis(500);
            let mut m = SloMonitor::new(slo, cap);
            let mut r = reference::SloMonitor::new(slo, cap);
            // Streams stop at four windows' worth of completions.
            let mut left = 4 * cap;
            for batch in &batches {
                for &l in batch.iter().take(left) {
                    m.record(SimDuration(l));
                    r.record(SimDuration(l));
                }
                left -= batch.len().min(left);
                r.refresh();
                prop_assert_eq!(m.p99_secs().to_bits(), r.p99_secs().to_bits());
                prop_assert_eq!(m.p50_secs().to_bits(), r.p50_secs().to_bits());
                prop_assert_eq!(m.misses_slo(), r.misses_slo());
                prop_assert_eq!(m.completed(), r.completed());
            }
        }
    }

    #[test]
    fn service_mean_respects_weibull_normalization() {
        let mut s = OpenLoopState::new(spec());
        s.admit_until(SimTime::from_secs(20));
        // ~2000 arrivals at 100 req/s over 20 s; the queue kept only the
        // newest 256, but queued_beats/queue_depth still estimates the
        // per-request mean.
        let mean = s.queued_beats() / s.queue_depth() as f64;
        assert!((mean - 4.0).abs() < 0.5, "mean {mean}");
        assert!(s.shed_total() > 0, "undersized queue must shed");
    }

    #[test]
    fn serving_completes_requests_and_measures_latency() {
        let mut s = OpenLoopState::new(spec());
        let mut now = SimTime::ZERO;
        // Serve comfortably above the 400 hb/s offered load: 2 s of
        // traffic at 100 req/s is ~200 requests.
        for _ in 0..2000 {
            now += SimDuration::from_millis(1);
            s.admit_until(now);
            s.serve(0.8, now);
        }
        assert!(s.served() > 150, "served {}", s.served());
        assert_eq!(s.shed_total(), 0);
        // Overprovisioned: the tail stays well under the 100 ms SLO, and
        // the bid floors at the provisioned rate rather than undercutting
        // the offered load.
        assert!(!s.monitor().misses_slo(), "{}", s.monitor());
        assert!((s.pressure() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn starved_state_builds_pressure() {
        let mut s = OpenLoopState::new(spec());
        let mut now = SimTime::ZERO;
        // Serve a quarter of the offered load: the queue saturates and
        // completions blow the SLO.
        for _ in 0..4000 {
            now += SimDuration::from_millis(1);
            s.admit_until(now);
            s.serve(0.1, now);
        }
        assert!(s.monitor().misses_slo(), "{}", s.monitor());
        assert!((s.pressure() - 2.0).abs() < 1e-12);
        assert!(s.shed_total() > 0);
    }

    #[test]
    fn state_is_deterministic_per_seed() {
        let mut a = OpenLoopState::new(spec());
        let mut b = OpenLoopState::new(spec());
        let mut now = SimTime::ZERO;
        for _ in 0..500 {
            now += SimDuration::from_millis(1);
            a.admit_until(now);
            b.admit_until(now);
            a.serve(0.4, now);
            b.serve(0.4, now);
        }
        assert_eq!(a.snap(), b.snap());
        assert_eq!(a.served(), b.served());
    }

    proptest! {
        /// A full queue always sheds the oldest request and never panics,
        /// whatever the push pattern; counters stay consistent.
        #[test]
        fn overflow_sheds_oldest_never_panics(
            cap in 1usize..32,
            pushes in proptest::collection::vec(0u64..1_000_000, 0..200),
        ) {
            let mut q = RequestQueue::new(cap);
            for (i, &t) in pushes.iter().enumerate() {
                q.push(Request { arrival: SimTime(t), remaining: (i % 7) as f64 + 0.5 });
                prop_assert!(q.len() <= cap);
                prop_assert_eq!(q.len() as u64 + q.shed(), i as u64 + 1);
            }
            let expected_shed = pushes.len().saturating_sub(cap) as u64;
            prop_assert_eq!(q.shed(), expected_shed);
            // Survivors are exactly the newest `min(len, cap)` pushes, FIFO.
            let start = pushes.len() - q.len();
            for &t in &pushes[start..] {
                prop_assert_eq!(q.pop().expect("survivor").arrival, SimTime(t));
            }
            prop_assert!(q.pop().is_none());
        }
    }
}
