//! # ppm-obs — zero-overhead observability for the PPM simulator
//!
//! Six pieces, all dependency-free:
//!
//! - [`recorder::SeriesRecorder`] — a per-quantum time-series in a
//!   row-major ring, one contiguous row per quantum: per-core
//!   price/supply, per-cluster V/f/power/temperature, chip power vs TDP
//!   headroom, money supply and allowance, per-task share/granted/
//!   heart-rate, and the degradation counters. Allocation happens at
//!   construction and entity admission only; every steady-state row
//!   write is a template copy and stores into one slice.
//! - [`profiler::PhaseProfiler`] — wall-clock spans around the stages of a
//!   quantum (capture, plan with market bid / price / DVFS / LBT
//!   sub-phases, apply, step, audit) aggregated into fixed-bucket log2
//!   histograms with approximate p50/p95/p99 and exact max.
//! - [`export`] — Chrome `trace_event` JSON (Perfetto-loadable), CSV and
//!   JSONL time-series, and a human-readable summary table. [`json`] is
//!   the minimal parser the validation tooling uses on those artifacts.
//!   [`stream::TelemetryStream`], attached to the [`Telemetry`] whose
//!   recorder it reads, flushes the same rows incrementally to disk
//!   during the run, so an undersized ring loses no history. A flush
//!   only copies the window's raw rows to a writer thread, which formats
//!   them through a render cache that copies unchanged runs of the
//!   previous row's text, so the simulation thread formats nothing and
//!   neither thread allocates in steady state.
//! - [`aggregate`] — live tumbling-window rollups over the recorder's
//!   columns (gauges, counter deltas, log2 sketch quantiles), mergeable
//!   per-chip → fleet the way the auditor's reports absorb.
//! - [`alert`] — a deterministic SRE-style multi-window burn-rate engine
//!   over SLO attainment, shed rate, TDP headroom, and degradation,
//!   evaluated purely in sim time (same seed → same alert tape).
//! - [`http`] — a `std::net` scrape endpoint serving Prometheus text and
//!   a JSON snapshot from a double-buffered publish slot. The driver
//!   publishes into it between trading epochs; [`Telemetry`] itself never
//!   builds or publishes a snapshot.
//!
//! The contract that makes this "zero-overhead": the simulator carries an
//! `Option<Telemetry>`; when `None`, every instrumentation site is a
//! single branch and the goldens/allocation tests prove nothing else
//! happens. When `Some`, observation is strictly read-only — the
//! committed golden actuation tapes are bit-identical either way, with or
//! without aggregation, alerting, and a live scrape server attached.

#![warn(missing_docs)]

pub mod aggregate;
pub mod alert;
pub mod export;
pub mod http;
pub mod json;
pub mod profiler;
pub mod recorder;
#[cfg(test)]
mod render_identity;
pub mod stream;

pub use crate::aggregate::{
    AggRegistry, AggSnapshot, GaugeStat, QuantumSample, WindowRollup, WindowStats,
    DEFAULT_AGG_WINDOW_US,
};
pub use crate::alert::{AlertEngine, AlertEvent, AlertKind, AlertSnapshot, BurnRule, RuleStatus};
pub use crate::export::{csv_header, summary_table, write_chrome_trace, write_csv, write_jsonl};
pub use crate::http::{render_json, render_prometheus, ScrapeServer, ScrapeSnapshot, SnapshotHub};
pub use crate::profiler::{lap, Hist, Phase, PhaseProfiler, HIST_BUCKETS};
pub use crate::recorder::{PolicySample, RowWriter, SeriesRecorder};
pub use crate::stream::{StreamFormat, StreamStats, TelemetryStream};

use crate::profiler::Phase as Ph;
use crate::recorder as col;

/// The telemetry sink a simulation carries: the time-series recorder, the
/// phase profiler, the policy-sample scratch the manager fills, and —
/// when enabled — the live aggregation registry, the burn-rate alert
/// engine, and the incremental stream of the recorder's rows to disk.
///
/// Constructing one is the setup allocation; everything after is in-place.
/// Scrape snapshots are built outside it, by the fleet driver, from
/// [`Telemetry::aggregate`] and [`Telemetry::alerts`].
#[derive(Debug)]
pub struct Telemetry {
    /// Per-quantum time-series (ring of the most recent `capacity` quanta).
    pub recorder: SeriesRecorder,
    /// Phase histograms; populated only when profiling is enabled.
    pub profiler: PhaseProfiler,
    /// Scratch the manager's `sample_policy` fills each recorded quantum.
    pub policy: PolicySample,
    /// Live windowed rollups, when aggregation is enabled.
    pub aggregate: Option<AggRegistry>,
    /// Burn-rate alerting over closed windows, when enabled (implies
    /// aggregation).
    pub alerts: Option<AlertEngine>,
    stream: Option<TelemetryStream>,
    profile: bool,
}

impl Telemetry {
    /// A telemetry sink recording the most recent `capacity` quanta, with
    /// phase profiling, aggregation, and alerting all off.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> Telemetry {
        Telemetry {
            recorder: SeriesRecorder::new(capacity),
            profiler: PhaseProfiler::new(),
            policy: PolicySample::new(),
            aggregate: None,
            alerts: None,
            stream: None,
            profile: false,
        }
    }

    /// Enable wall-clock phase profiling. Off by default because reading
    /// the monotonic clock ~10× per quantum, while cheap, is not free —
    /// and time-series recording alone never needs it.
    pub fn with_profiling(mut self) -> Telemetry {
        self.profile = true;
        self
    }

    /// Whether phase profiling is enabled.
    pub fn profiling(&self) -> bool {
        self.profile
    }

    /// Enable live windowed aggregation with tumbling windows of
    /// `window_us` µs of sim time (see [`DEFAULT_AGG_WINDOW_US`]).
    pub fn with_aggregation(mut self, window_us: u64) -> Telemetry {
        self.aggregate = Some(AggRegistry::new(window_us));
        self
    }

    /// Enable burn-rate alerting with the default rule set; implies
    /// aggregation (attached at [`DEFAULT_AGG_WINDOW_US`] if absent).
    pub fn with_alerts(self) -> Telemetry {
        self.with_alert_rules(BurnRule::defaults())
    }

    /// Enable burn-rate alerting with explicit rules; implies aggregation.
    pub fn with_alert_rules(mut self, rules: Vec<BurnRule>) -> Telemetry {
        if self.aggregate.is_none() {
            self.aggregate = Some(AggRegistry::new(DEFAULT_AGG_WINDOW_US));
        }
        self.alerts = Some(AlertEngine::new(rules));
        self
    }

    /// Stream the recorder's rows to disk during the run: the stream is
    /// pumped right after every recorded row, so whole flush windows leave
    /// the ring before wrap-around can claim them. Finish it with
    /// [`Telemetry::finish_stream`] after the run.
    pub fn with_stream(mut self, stream: TelemetryStream) -> Telemetry {
        self.stream = Some(stream);
        self
    }

    /// The attached stream's totals so far, when one is attached.
    pub fn stream_stats(&self) -> Option<StreamStats> {
        self.stream.as_ref().map(TelemetryStream::stats)
    }

    /// Flush the stream's unflushed tail, join its writer thread, and
    /// report totals. `None` when no stream is attached.
    pub fn finish_stream(&mut self) -> Option<std::io::Result<StreamStats>> {
        let stream = self.stream.take()?;
        Some(stream.finish(&self.recorder))
    }

    /// Fold the most recently recorded row into the aggregation registry,
    /// run the alert engine over any window that closed, then pump the
    /// stream. Called by the executor right after the row is written; a
    /// no-op without aggregation or a stream.
    ///
    /// Hot-path contract: reads and indexed stores only (a stream flush
    /// copies the window into a window buffer reused after warm-up).
    pub fn roll_forward(&mut self) {
        self.fold_row();
        if let Some(stream) = &mut self.stream {
            stream.pump(&self.recorder);
        }
    }

    /// The aggregation and alerting half of [`Telemetry::roll_forward`].
    fn fold_row(&mut self) {
        let Some(agg) = self.aggregate.as_mut() else {
            return;
        };
        let rec = &self.recorder;
        let total = rec.total_rows();
        if total == 0 {
            return;
        }
        let i = ((total - 1) % rec.capacity() as u64) as usize;
        let row = rec.row(i);
        let shape = row.shape;

        let mut worst_ratio = f64::NAN;
        let mut worst_p99_ms = 0.0f64;
        let mut slo_bad = false;
        let mut shed_total = 0u64;
        for t in 0..shape.tasks {
            let p99 = row.f(shape.task(t, col::TASK_P99_MS));
            let slo = row.f(shape.task(t, col::TASK_SLO_MS));
            if p99.is_nan() {
                continue;
            }
            if p99 > worst_p99_ms {
                worst_p99_ms = p99;
            }
            if slo > 0.0 {
                let ratio = p99 / slo;
                if worst_ratio.is_nan() || ratio > worst_ratio {
                    worst_ratio = ratio;
                }
                slo_bad |= p99 > slo;
            }
            let shed = row.f(shape.task(t, col::TASK_SHED));
            if shed.is_finite() {
                shed_total = shed_total.saturating_add(shed as u64);
            }
        }
        let degradation_total = row.u(col::SENSOR_FALLBACKS)
            + row.u(col::DVFS_RETRIES)
            + row.u(col::MIGRATION_RETRIES)
            + row.u(col::TASKS_ORPHANED);
        let stream_lost = {
            let lost = row.f(col::OBS_STREAM_LOST);
            if lost.is_finite() {
                lost as u64
            } else {
                0
            }
        };
        let sample = QuantumSample {
            t_us: row.u(col::T_US),
            power_w: row.f(col::CHIP_POWER_W),
            headroom_w: row.f(col::TDP_HEADROOM_W),
            hottest_c: row.f(col::HOTTEST_C),
            p99_over_slo: worst_ratio,
            slo_bad,
            shed_total,
            degradation_total,
            dropped_rows: rec.dropped(),
            stream_lost,
            plan_ns: row.u(col::PHASE_NS + Ph::Plan as usize),
            task_p99_ns: (worst_p99_ms * 1e6) as u64,
        };
        let closed = agg.observe(&sample);
        if let Some(w) = &closed {
            if let Some(engine) = self.alerts.as_mut() {
                engine.observe_window(w);
            }
        }
        if let Some(engine) = &self.alerts {
            self.recorder.row_mut(i)[col::OBS_ALERTS_FIRING] = engine.firing_count();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_profiling_toggle() {
        let t = Telemetry::new(16);
        assert!(!t.profiling());
        assert_eq!(t.recorder.capacity(), 16);
        assert!(t.with_profiling().profiling());
    }

    #[test]
    fn alerts_imply_aggregation() {
        let t = Telemetry::new(16).with_alerts();
        assert!(t.aggregate.is_some());
        assert!(t.alerts.is_some());
        assert_eq!(
            t.aggregate.as_ref().unwrap().window_us(),
            DEFAULT_AGG_WINDOW_US
        );
    }

    #[test]
    fn roll_forward_aggregates_recorded_rows_and_pumps_the_stream() {
        let mut t = Telemetry::new(64)
            .with_aggregation(10_000)
            .with_alerts()
            .with_stream(TelemetryStream::with_writer(
                std::io::sink(),
                StreamFormat::Csv,
                10,
            ));
        t.recorder.ensure_shape(1, 1, 1);
        for q in 0..25u64 {
            let at = (q + 1) * 1000;
            let mut row = t.recorder.push_row(at);
            row.chip(2.0, 1.0, 50.0);
            row.task_latency(0, 1.0, 8.0, 10.0, 3.0);
            t.roll_forward();
        }
        let agg = t.aggregate.as_ref().unwrap();
        assert_eq!(agg.totals().quanta, 25);
        assert_eq!(agg.windows_closed(), 2);
        assert_eq!(agg.totals().shed, 0, "cumulative shed never moved");
        assert!((agg.totals().p99_over_slo.max - 0.8).abs() < 1e-12);
        let alerts = t.alerts.as_ref().unwrap().snapshot();
        assert_eq!(alerts.rules.len(), BurnRule::defaults().len());
        let pumped = t.stream_stats().expect("stream attached");
        assert_eq!(
            (pumped.rows, pumped.flushes),
            (20, 2),
            "one flush per 10 rows"
        );
        let done = t.finish_stream().expect("stream attached").expect("sink");
        assert_eq!(done.rows, 25, "finishing flushes the tail");
        assert!(t.finish_stream().is_none(), "a finished stream is detached");
    }

    #[test]
    fn roll_forward_without_aggregation_is_a_noop() {
        let mut t = Telemetry::new(4);
        t.recorder.push_row(1000).chip(1.0, f64::NAN, f64::NAN);
        t.roll_forward();
        assert!(t.aggregate.is_none() && t.alerts.is_none());
        assert!(t.stream_stats().is_none());
    }
}
