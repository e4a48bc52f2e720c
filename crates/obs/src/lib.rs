//! # ppm-obs — zero-overhead observability for the PPM simulator
//!
//! Six pieces, all dependency-free:
//!
//! - [`recorder::SeriesRecorder`] — a per-quantum time-series in columnar
//!   ring buffers: per-core price/supply, per-cluster V/f/power/
//!   temperature, chip power vs TDP headroom, money supply and allowance,
//!   per-task share/granted/heart-rate, and the degradation counters.
//!   Allocation happens at construction and at entity admission only;
//!   every steady-state row write is indexed stores.
//! - [`profiler::PhaseProfiler`] — wall-clock spans around the stages of a
//!   quantum (capture, plan with market bid / price / DVFS / LBT
//!   sub-phases, apply, step, audit) aggregated into fixed-bucket log2
//!   histograms with approximate p50/p95/p99 and exact max.
//! - [`export`] — Chrome `trace_event` JSON (Perfetto-loadable), CSV and
//!   JSONL time-series, and a human-readable summary table. [`json`] is
//!   the minimal parser the validation tooling uses on those artifacts.
//!   [`stream::TelemetryStream`] flushes the same rows incrementally to
//!   disk during the run, so an undersized ring loses no history.
//! - [`aggregate`] — live tumbling-window rollups over the recorder's
//!   columns (gauges, counter deltas, log2 sketch quantiles), mergeable
//!   per-chip → fleet the way the auditor's reports absorb.
//! - [`alert`] — a deterministic SRE-style multi-window burn-rate engine
//!   over SLO attainment, shed rate, TDP headroom, and degradation,
//!   evaluated purely in sim time (same seed → same alert tape).
//! - [`http`] — a `std::net` scrape endpoint serving Prometheus text and
//!   a JSON snapshot from a double-buffered publish slot.
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
use std::sync::Arc;

/// The telemetry sink a simulation carries: the time-series recorder, the
/// phase profiler, the policy-sample scratch the manager fills, and —
/// when enabled — the live aggregation registry, the burn-rate alert
/// engine, and a publish hub for the scrape endpoint.
///
/// Constructing one is the setup allocation; everything after is in-place
/// (publishing a scrape snapshot allocates, but only at window
/// boundaries, never on the per-quantum path).
#[derive(Debug, Clone)]
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
    hub: Option<Arc<SnapshotHub>>,
    label: String,
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
            hub: None,
            label: "chip 0".to_string(),
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

    /// Publish a [`ScrapeSnapshot`] into `hub` at every window boundary
    /// (and nowhere else); implies aggregation. The hub is what a
    /// [`ScrapeServer`] serves.
    pub fn with_hub(mut self, hub: Arc<SnapshotHub>) -> Telemetry {
        if self.aggregate.is_none() {
            self.aggregate = Some(AggRegistry::new(DEFAULT_AGG_WINDOW_US));
        }
        self.hub = Some(hub);
        self
    }

    /// Label used in snapshots and the scrape exposition (default
    /// `"chip 0"`).
    pub fn with_label(mut self, label: &str) -> Telemetry {
        self.label = label.to_string();
        self
    }

    /// The publish hub, when attached.
    pub fn hub(&self) -> Option<&Arc<SnapshotHub>> {
        self.hub.as_ref()
    }

    /// Fold the most recently recorded row into the aggregation registry,
    /// run the alert engine over any window that closed, and publish a
    /// snapshot to the hub when one did. Called by the executor right
    /// after the row is written; a no-op without aggregation.
    ///
    /// Hot-path contract: reads and indexed stores only — the single
    /// allocating step (building the published snapshot) happens iff a
    /// window closed *and* a hub is attached.
    pub fn roll_forward(&mut self) {
        let Some(agg) = self.aggregate.as_mut() else {
            return;
        };
        let rec = &self.recorder;
        let total = rec.total_rows();
        if total == 0 {
            return;
        }
        let i = ((total - 1) % rec.capacity() as u64) as usize;

        let (_, _, n_tasks) = rec.shape();
        let mut worst_ratio = f64::NAN;
        let mut worst_p99_ms = 0.0f64;
        let mut slo_bad = false;
        let mut shed_total = 0u64;
        for t in 0..n_tasks {
            let p99 = rec.task_p99_ms[t][i];
            let slo = rec.task_slo_ms[t][i];
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
            let shed = rec.task_shed[t][i];
            if shed.is_finite() {
                shed_total = shed_total.saturating_add(shed as u64);
            }
        }
        let degradation_total = rec.sensor_fallbacks[i]
            + rec.dvfs_retries[i]
            + rec.migration_retries[i]
            + rec.tasks_orphaned[i];
        let stream_lost = {
            let lost = rec.obs_stream_lost[i];
            if lost.is_finite() {
                lost as u64
            } else {
                0
            }
        };
        let sample = QuantumSample {
            t_us: rec.t_us[i],
            power_w: rec.chip_power_w[i],
            headroom_w: rec.tdp_headroom_w[i],
            hottest_c: rec.hottest_c[i],
            p99_over_slo: worst_ratio,
            slo_bad,
            shed_total,
            degradation_total,
            dropped_rows: rec.dropped(),
            stream_lost,
            plan_ns: rec.phase_ns[Ph::Plan as usize][i],
            task_p99_ns: (worst_p99_ms * 1e6) as u64,
        };
        let closed = agg.observe(&sample);
        if let Some(w) = &closed {
            if let Some(engine) = self.alerts.as_mut() {
                engine.observe_window(w);
            }
        }
        if let Some(engine) = &self.alerts {
            self.recorder.obs_alerts_firing[i] = engine.firing_count();
        }
        if closed.is_some() {
            if let Some(hub) = &self.hub {
                let hub = Arc::clone(hub);
                hub.publish(self.scrape_snapshot());
            }
        }
    }

    /// Build a [`ScrapeSnapshot`] of this (single-chip) telemetry:
    /// one chip section that doubles as the fleet rollup, plus the alert
    /// state. Allocates — off the hot path only. Fleet drivers build
    /// their merged snapshot themselves via [`AggSnapshot::absorb`].
    pub fn scrape_snapshot(&self) -> ScrapeSnapshot {
        let Some(agg) = &self.aggregate else {
            return ScrapeSnapshot::default();
        };
        let chip = agg.snapshot(&self.label);
        let mut fleet = AggSnapshot::empty("fleet", agg.window_us());
        fleet.absorb(&chip);
        ScrapeSnapshot {
            at_us: agg.now_us(),
            fleet: Some(fleet),
            chips: vec![chip],
            alerts: self.alerts.as_ref().map(AlertEngine::snapshot),
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
        assert!(t.clone().with_profiling().profiling());
        assert_eq!(t.recorder.capacity(), 16);
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
    fn roll_forward_aggregates_recorded_rows_and_publishes() {
        let hub = SnapshotHub::new();
        let mut t = Telemetry::new(64)
            .with_aggregation(10_000)
            .with_alerts()
            .with_hub(Arc::clone(&hub))
            .with_label("unit chip");
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
        assert_eq!(hub.version(), 2, "one publish per closed window");
        let snap = hub.get();
        assert_eq!(snap.chips[0].label, "unit chip");
        assert!(snap.alerts.is_some());
    }

    #[test]
    fn roll_forward_without_aggregation_is_a_noop() {
        let mut t = Telemetry::new(4);
        t.recorder.push_row(1000).chip(1.0, f64::NAN, f64::NAN);
        t.roll_forward();
        assert!(t.scrape_snapshot().fleet.is_none());
    }
}
