//! Exporters over the recorder and profiler: Chrome `trace_event` JSON
//! (loadable in Perfetto / `chrome://tracing`), CSV and JSONL time-series
//! (one row per quantum — ready to regenerate the paper's figures), and a
//! human-readable phase summary table.
//!
//! Exporting runs strictly after (or outside) the simulation hot path, so
//! these functions allocate freely; what they must not do is lie —
//! wrapped-away rows are reported via [`SeriesRecorder::dropped`], `NaN`
//! cells export as empty/`null` and are *omitted* from the Chrome trace
//! (JSON has no NaN), and span durations are the measured wall
//! nanoseconds, not invented.

use std::io::{self, Write};

use crate::profiler::{Phase, PhaseProfiler};
use crate::recorder::SeriesRecorder;

/// The CSV header for `rec`'s column shape. Scalar columns first, then
/// per-phase wall ns, then per-cluster / per-core / per-task groups.
pub fn csv_header(rec: &SeriesRecorder) -> String {
    let (n_cl, n_co, n_t) = rec.shape();
    let mut h = String::from(
        "t_s,chip_power_w,tdp_headroom_w,hottest_c,allowance,money_supply,\
         sensor_fallbacks,dvfs_retries,migration_retries,tasks_orphaned,\
         obs_dropped_rows,obs_alerts_firing,obs_stream_rows,obs_stream_lost,\
         obs_stream_flushes",
    );
    for p in Phase::ALL {
        h.push_str(&format!(",ph_{}_ns", p.name()));
    }
    for c in 0..n_cl {
        h.push_str(&format!(
            ",cl{c}_freq_mhz,cl{c}_volt_mv,cl{c}_power_w,cl{c}_temp_c"
        ));
    }
    for c in 0..n_co {
        h.push_str(&format!(",core{c}_supply_pu,core{c}_price"));
    }
    for t in 0..n_t {
        h.push_str(&format!(
            ",task{t}_share_pu,task{t}_granted_pu,task{t}_hr,task{t}_hr_norm,\
             task{t}_queue,task{t}_p99_ms,task{t}_slo_ms,task{t}_shed"
        ));
    }
    h
}

/// A CSV cell: shortest round-trip decimal, empty for `NaN`.
fn cell(v: f64) -> String {
    if v.is_nan() {
        String::new()
    } else {
        format!("{v}")
    }
}

/// Append row `i`'s cells — everything after `t_s` — to `line`. Shared by
/// the single-recorder CSV and the fleet join, so the two stay
/// column-for-column consistent.
fn csv_row_cells(rec: &SeriesRecorder, i: usize, line: &mut String) {
    let (n_cl, n_co, n_t) = rec.shape();
    for v in [
        rec.chip_power_w[i],
        rec.tdp_headroom_w[i],
        rec.hottest_c[i],
        rec.allowance[i],
        rec.money_supply[i],
    ] {
        line.push(',');
        line.push_str(&cell(v));
    }
    for v in [
        rec.sensor_fallbacks[i],
        rec.dvfs_retries[i],
        rec.migration_retries[i],
        rec.tasks_orphaned[i],
        rec.obs_dropped_rows[i],
        rec.obs_alerts_firing[i],
    ] {
        line.push_str(&format!(",{v}"));
    }
    for v in [
        rec.obs_stream_rows[i],
        rec.obs_stream_lost[i],
        rec.obs_stream_flushes[i],
    ] {
        line.push(',');
        line.push_str(&cell(v));
    }
    for p in 0..Phase::COUNT {
        line.push_str(&format!(",{}", rec.phase_ns[p][i]));
    }
    for c in 0..n_cl {
        for v in [
            rec.cluster_freq_mhz[c][i],
            rec.cluster_volt_mv[c][i],
            rec.cluster_power_w[c][i],
            rec.cluster_temp_c[c][i],
        ] {
            line.push(',');
            line.push_str(&cell(v));
        }
    }
    for c in 0..n_co {
        for v in [rec.core_supply[c][i], rec.core_price[c][i]] {
            line.push(',');
            line.push_str(&cell(v));
        }
    }
    for t in 0..n_t {
        for v in [
            rec.task_share[t][i],
            rec.task_granted[t][i],
            rec.task_hr[t][i],
            rec.task_hr_norm[t][i],
            rec.task_queue[t][i],
            rec.task_p99_ms[t][i],
            rec.task_slo_ms[t][i],
            rec.task_shed[t][i],
        ] {
            line.push(',');
            line.push_str(&cell(v));
        }
    }
}

/// Append row `i` as one full CSV line (`t_s` plus every cell) to `line`.
/// Shared by [`write_csv`] and the incremental
/// [`TelemetryStream`](crate::stream::TelemetryStream), so streamed output
/// is byte-identical to a post-run export.
pub(crate) fn csv_row(rec: &SeriesRecorder, i: usize, line: &mut String) {
    line.push_str(&format!("{}", rec.t_us[i] as f64 / 1e6));
    csv_row_cells(rec, i, line);
}

/// Write the held rows as CSV, oldest first: the header, then one row per
/// recorded quantum.
pub fn write_csv<W: Write>(rec: &SeriesRecorder, w: &mut W) -> io::Result<()> {
    writeln!(w, "{}", csv_header(rec))?;
    let mut line = String::new();
    for i in rec.row_indices() {
        line.clear();
        csv_row(rec, i, &mut line);
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// The header for a fleet CSV: one shared `t_s`, then every chip's columns
/// tagged `c{chip}_`. Chips may have different shapes — each contributes
/// its own column group, so a heterogeneous fleet still joins cleanly.
pub fn fleet_csv_header(recs: &[&SeriesRecorder]) -> String {
    let mut h = String::from("t_s");
    for (chip, rec) in recs.iter().enumerate() {
        for col in csv_header(rec).split(',').skip(1) {
            h.push_str(&format!(",c{chip}_{col}"));
        }
    }
    h
}

/// Write a fleet of recorders as one wide CSV joined on the simulated
/// timeline: row `k` holds quantum `k` of every chip side by side, columns
/// tagged `c{chip}_`. All recorders must hold the same number of rows
/// (they do when the chips ran in lock-step under one [`Fleet`] epoch
/// loop); mismatched row counts are an `InvalidInput` error rather than a
/// silently misaligned join.
///
/// [`Fleet`]: https://docs.rs/ppm-fleet
pub fn write_fleet_csv<W: Write>(recs: &[&SeriesRecorder], w: &mut W) -> io::Result<()> {
    let Some(first) = recs.first() else {
        return Ok(());
    };
    if recs.iter().any(|r| r.rows() != first.rows()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "fleet recorders hold different row counts; cannot join on time",
        ));
    }
    writeln!(w, "{}", fleet_csv_header(recs))?;
    let indices: Vec<Vec<usize>> = recs.iter().map(|r| r.row_indices().collect()).collect();
    let mut line = String::new();
    for (k, &row) in indices[0].iter().enumerate() {
        line.clear();
        line.push_str(&format!("{}", first.t_us[row] as f64 / 1e6));
        for (chip, rec) in recs.iter().enumerate() {
            csv_row_cells(rec, indices[chip][k], &mut line);
        }
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// A JSON number, `null` for `NaN` (JSON has no NaN literal).
pub(crate) fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal: quotes, backslashes and control characters
/// escaped.
pub(crate) fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Write the held rows as JSONL: one self-describing JSON object per
/// quantum (entity columns as arrays), oldest first.
pub fn write_jsonl<W: Write>(rec: &SeriesRecorder, w: &mut W) -> io::Result<()> {
    let mut line = String::new();
    for i in rec.row_indices() {
        line.clear();
        jsonl_row(rec, i, &mut line);
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Append row `i` as one JSONL object to `line`. Shared by [`write_jsonl`]
/// and the incremental [`TelemetryStream`](crate::stream::TelemetryStream).
pub(crate) fn jsonl_row(rec: &SeriesRecorder, i: usize, line: &mut String) {
    let (n_cl, n_co, n_t) = rec.shape();
    line.push('{');
    line.push_str(&format!("\"t_s\":{}", rec.t_us[i] as f64 / 1e6));
    {
        for (k, v) in [
            ("chip_power_w", rec.chip_power_w[i]),
            ("tdp_headroom_w", rec.tdp_headroom_w[i]),
            ("hottest_c", rec.hottest_c[i]),
            ("allowance", rec.allowance[i]),
            ("money_supply", rec.money_supply[i]),
        ] {
            line.push_str(&format!(",\"{k}\":{}", jnum(v)));
        }
        for (k, v) in [
            ("sensor_fallbacks", rec.sensor_fallbacks[i]),
            ("dvfs_retries", rec.dvfs_retries[i]),
            ("migration_retries", rec.migration_retries[i]),
            ("tasks_orphaned", rec.tasks_orphaned[i]),
            ("obs_dropped_rows", rec.obs_dropped_rows[i]),
            ("obs_alerts_firing", rec.obs_alerts_firing[i]),
        ] {
            line.push_str(&format!(",\"{k}\":{v}"));
        }
        for (k, v) in [
            ("obs_stream_rows", rec.obs_stream_rows[i]),
            ("obs_stream_lost", rec.obs_stream_lost[i]),
            ("obs_stream_flushes", rec.obs_stream_flushes[i]),
        ] {
            line.push_str(&format!(",\"{k}\":{}", jnum(v)));
        }
        line.push_str(",\"phase_ns\":{");
        for (k, p) in Phase::ALL.iter().enumerate() {
            if k > 0 {
                line.push(',');
            }
            line.push_str(&format!("\"{}\":{}", p.name(), rec.phase_ns[k][i]));
        }
        line.push('}');
        let arr = |line: &mut String, key: &str, get: &dyn Fn(usize) -> f64, n: usize| {
            line.push_str(&format!(",\"{key}\":["));
            for e in 0..n {
                if e > 0 {
                    line.push(',');
                }
                line.push_str(&jnum(get(e)));
            }
            line.push(']');
        };
        arr(
            line,
            "cluster_freq_mhz",
            &|c| rec.cluster_freq_mhz[c][i],
            n_cl,
        );
        arr(
            line,
            "cluster_volt_mv",
            &|c| rec.cluster_volt_mv[c][i],
            n_cl,
        );
        arr(
            line,
            "cluster_power_w",
            &|c| rec.cluster_power_w[c][i],
            n_cl,
        );
        arr(line, "cluster_temp_c", &|c| rec.cluster_temp_c[c][i], n_cl);
        arr(line, "core_supply_pu", &|c| rec.core_supply[c][i], n_co);
        arr(line, "core_price", &|c| rec.core_price[c][i], n_co);
        arr(line, "task_share_pu", &|t| rec.task_share[t][i], n_t);
        arr(line, "task_granted_pu", &|t| rec.task_granted[t][i], n_t);
        arr(line, "task_hr", &|t| rec.task_hr[t][i], n_t);
        arr(line, "task_hr_norm", &|t| rec.task_hr_norm[t][i], n_t);
        arr(line, "task_queue", &|t| rec.task_queue[t][i], n_t);
        arr(line, "task_p99_ms", &|t| rec.task_p99_ms[t][i], n_t);
        arr(line, "task_slo_ms", &|t| rec.task_slo_ms[t][i], n_t);
        arr(line, "task_shed", &|t| rec.task_shed[t][i], n_t);
    }
    line.push('}');
}

/// One Chrome counter event on `pid`: `name` at `ts_us` with the finite
/// `(series, value)` pairs. Emits nothing when every value is NaN.
fn counter(out: &mut Vec<String>, pid: usize, ts_us: f64, name: &str, series: &[(String, f64)]) {
    let finite: Vec<&(String, f64)> = series.iter().filter(|(_, v)| v.is_finite()).collect();
    if finite.is_empty() {
        return;
    }
    let args = finite
        .iter()
        .map(|(k, v)| format!("{}:{v}", jstr(k)))
        .collect::<Vec<_>>()
        .join(",");
    out.push(format!(
        "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"ts\":{ts_us},\"name\":\"{name}\",\"args\":{{{args}}}}}"
    ));
}

/// Write a Chrome `trace_event` JSON document (the `{"traceEvents": [...]}`
/// object form) covering the held rows.
///
/// Two synthetic processes: pid 0 carries the time-series as counter
/// events on the *simulated* timeline (µs), pid 1 carries the phase spans
/// as complete (`"ph":"X"`) events — each span sits on the quantum it
/// belongs to, with its measured wall-clock nanoseconds as the duration
/// (rendered as µs, the trace unit). Executor phases stack sequentially on
/// tid 0; manager sub-phases (bid / price / DVFS / LBT) nest under the
/// plan span on tid 1. `stride` decimates rows (1 = every quantum) to keep
/// long runs loadable; it applies to counters and spans alike.
pub fn write_chrome_trace<W: Write>(
    rec: &SeriesRecorder,
    w: &mut W,
    stride: usize,
) -> io::Result<()> {
    let stride = stride.max(1);
    let mut ev: Vec<String> = vec![
        "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"ppm time-series (simulated time)\"}}"
            .to_string(),
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"ppm quantum phases (wall ns on sim timeline)\"}}"
            .to_string(),
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\
         \"args\":{\"name\":\"executor\"}}"
            .to_string(),
        "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\
         \"args\":{\"name\":\"manager sub-phases\"}}"
            .to_string(),
    ];
    recorder_events(rec, &mut ev, stride, 0, 1);
    writeln!(
        w,
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"rows\":{},\"dropped\":{},\"stride\":{stride}}},\"traceEvents\":[",
        rec.rows(),
        rec.dropped(),
    )?;
    for (k, e) in ev.iter().enumerate() {
        let sep = if k + 1 == ev.len() { "" } else { "," };
        writeln!(w, "{e}{sep}")?;
    }
    writeln!(w, "]}}")
}

/// Emit one recorder's counter events (on `pid_counters`) and phase spans
/// (on `pid_spans`) into `ev`. The per-row body shared by the single-chip
/// and fleet trace writers.
fn recorder_events(
    rec: &SeriesRecorder,
    ev: &mut Vec<String>,
    stride: usize,
    pid_counters: usize,
    pid_spans: usize,
) {
    let (n_cl, n_co, n_t) = rec.shape();
    for (k, i) in rec.row_indices().enumerate() {
        if k % stride != 0 {
            continue;
        }
        let ts = rec.t_us[i] as f64;

        // Counters (simulated timeline).
        let mut power = vec![("chip".to_string(), rec.chip_power_w[i])];
        let mut temp = vec![("hottest".to_string(), rec.hottest_c[i])];
        let mut freq = Vec::new();
        for c in 0..n_cl {
            power.push((format!("cl{c}"), rec.cluster_power_w[c][i]));
            temp.push((format!("cl{c}"), rec.cluster_temp_c[c][i]));
            freq.push((format!("cl{c}"), rec.cluster_freq_mhz[c][i]));
        }
        counter(ev, pid_counters, ts, "power_w", &power);
        counter(ev, pid_counters, ts, "temp_c", &temp);
        counter(ev, pid_counters, ts, "freq_mhz", &freq);
        counter(
            ev,
            pid_counters,
            ts,
            "tdp_headroom_w",
            &[("headroom".to_string(), rec.tdp_headroom_w[i])],
        );
        counter(
            ev,
            pid_counters,
            ts,
            "money",
            &[
                ("allowance".to_string(), rec.allowance[i]),
                ("supply".to_string(), rec.money_supply[i]),
            ],
        );
        let price: Vec<(String, f64)> = (0..n_co)
            .map(|c| (format!("core{c}"), rec.core_price[c][i]))
            .collect();
        counter(ev, pid_counters, ts, "price", &price);
        let supply: Vec<(String, f64)> = (0..n_co)
            .map(|c| (format!("core{c}"), rec.core_supply[c][i]))
            .collect();
        counter(ev, pid_counters, ts, "supply_pu", &supply);
        let hr: Vec<(String, f64)> = (0..n_t)
            .map(|t| (format!("task{t}"), rec.task_hr_norm[t][i]))
            .collect();
        counter(ev, pid_counters, ts, "hr_norm", &hr);
        let share: Vec<(String, f64)> = (0..n_t)
            .map(|t| (format!("task{t}"), rec.task_share[t][i]))
            .collect();
        counter(ev, pid_counters, ts, "share_pu", &share);
        counter(
            ev,
            pid_counters,
            ts,
            "degradation",
            &[
                (
                    "sensor_fallbacks".to_string(),
                    rec.sensor_fallbacks[i] as f64,
                ),
                ("dvfs_retries".to_string(), rec.dvfs_retries[i] as f64),
                (
                    "migration_retries".to_string(),
                    rec.migration_retries[i] as f64,
                ),
                ("tasks_orphaned".to_string(), rec.tasks_orphaned[i] as f64),
            ],
        );

        // Phase spans. Executor phases stack left-to-right from the
        // quantum start; sub-phases start where the plan span starts.
        let mut cursor = ts;
        let mut plan_start = ts;
        for p in [
            Phase::Capture,
            Phase::Plan,
            Phase::Apply,
            Phase::Step,
            Phase::Audit,
        ] {
            let ns = rec.phase_ns[p as usize][i];
            if ns == 0 {
                continue;
            }
            if p == Phase::Plan {
                plan_start = cursor;
            }
            let dur = ns as f64 / 1000.0;
            ev.push(format!(
                "{{\"ph\":\"X\",\"pid\":{pid_spans},\"tid\":0,\"ts\":{cursor},\"dur\":{dur},\"name\":\"{}\"}}",
                p.name()
            ));
            cursor += dur;
        }
        let mut sub_cursor = plan_start;
        for p in [
            Phase::MarketBid,
            Phase::MarketPrice,
            Phase::MarketDvfs,
            Phase::Lbt,
        ] {
            let ns = rec.phase_ns[p as usize][i];
            if ns == 0 {
                continue;
            }
            let dur = ns as f64 / 1000.0;
            ev.push(format!(
                "{{\"ph\":\"X\",\"pid\":{pid_spans},\"tid\":1,\"ts\":{sub_cursor},\"dur\":{dur},\"name\":\"{}\"}}",
                p.name()
            ));
            sub_cursor += dur;
        }
    }
}

/// One sample on an extra counter track of a fleet trace — the exchange's
/// per-epoch view (cap, total power, allowance, watt price), or any other
/// series the caller wants alongside the chip tracks.
#[derive(Debug, Clone)]
pub struct CounterSample {
    /// Simulated time of the sample, µs.
    pub t_us: u64,
    /// `(series name, value)` pairs; NaN values are omitted per event.
    pub series: Vec<(String, f64)>,
}

/// Write one Chrome trace covering a whole fleet: chip `i`'s counters land
/// on pid `2i` and its phase spans on pid `2i + 1` (so Perfetto shows one
/// labelled track pair per chip), and the `exchange` samples land as a
/// `"exchange"` counter track on their own process after the chips. The
/// per-chip content is emitted by the same code path as
/// [`write_chrome_trace`]; `stride` decimates chip rows but never exchange
/// epochs (they are already sparse — one per trading epoch).
pub fn write_fleet_chrome_trace<W: Write>(
    chips: &[&SeriesRecorder],
    exchange: &[CounterSample],
    w: &mut W,
    stride: usize,
) -> io::Result<()> {
    let stride = stride.max(1);
    let mut ev: Vec<String> = Vec::new();
    for (chip, rec) in chips.iter().enumerate() {
        let pid_counters = 2 * chip;
        let pid_spans = 2 * chip + 1;
        ev.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid_counters},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"chip {chip} time-series (simulated time)\"}}}}"
        ));
        ev.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid_spans},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"chip {chip} quantum phases (wall ns on sim timeline)\"}}}}"
        ));
        ev.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid_spans},\"tid\":0,\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"executor\"}}}}"
        ));
        ev.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid_spans},\"tid\":1,\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"manager sub-phases\"}}}}"
        ));
        recorder_events(rec, &mut ev, stride, pid_counters, pid_spans);
    }
    let pid_ex = 2 * chips.len();
    if !exchange.is_empty() {
        ev.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid_ex},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"fleet exchange (per-epoch clearing)\"}}}}"
        ));
        for s in exchange {
            counter(&mut ev, pid_ex, s.t_us as f64, "exchange", &s.series);
        }
    }
    let (rows, dropped) = chips.iter().fold((0u64, 0u64), |(r, d), rec| {
        (r + rec.rows() as u64, d + rec.dropped())
    });
    writeln!(
        w,
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"chips\":{},\"epochs\":{},\"rows\":{rows},\"dropped\":{dropped},\"stride\":{stride}}},\"traceEvents\":[",
        chips.len(),
        exchange.len(),
    )?;
    for (k, e) in ev.iter().enumerate() {
        let sep = if k + 1 == ev.len() { "" } else { "," };
        writeln!(w, "{e}{sep}")?;
    }
    writeln!(w, "]}}")
}

/// Human-readable duration.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Render the profiler as an aligned summary table: per phase, the span
/// count, approximate p50/p95/p99, exact max, mean, and total wall time.
pub fn summary_table(prof: &PhaseProfiler) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14}{:>10}{:>12}{:>12}{:>12}{:>12}{:>12}{:>12}\n",
        "phase", "count", "p50", "p95", "p99", "max", "mean", "total"
    ));
    for p in Phase::ALL {
        let h = prof.hist(p);
        if h.count() == 0 {
            continue;
        }
        let indent = if p.is_plan_subphase() { "  " } else { "" };
        out.push_str(&format!(
            "{:<14}{:>10}{:>12}{:>12}{:>12}{:>12}{:>12}{:>12}\n",
            format!("{indent}{}", p.name()),
            h.count(),
            fmt_ns(h.percentile_ns(50.0) as f64),
            fmt_ns(h.percentile_ns(95.0) as f64),
            fmt_ns(h.percentile_ns(99.0) as f64),
            fmt_ns(h.max_ns() as f64),
            fmt_ns(h.mean_ns()),
            fmt_ns(h.sum_ns() as f64),
        ));
    }
    if prof.total_count() == 0 {
        out.push_str("(no spans recorded — was profiling enabled?)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_recorder() -> SeriesRecorder {
        let mut rec = SeriesRecorder::new(8);
        rec.ensure_shape(2, 3, 2);
        for q in 0..3u64 {
            let mut phases = [0u64; Phase::COUNT];
            phases[Phase::Capture as usize] = 500;
            phases[Phase::Plan as usize] = 2000;
            phases[Phase::MarketBid as usize] = 700;
            phases[Phase::Step as usize] = 1500;
            let mut row = rec.push_row(q * 1000);
            row.chip(3.5 + q as f64, 0.5, 41.0)
                .degradation(1, 0, 0, 0)
                .phases(&phases)
                .cluster(0, 350.0, 900.0, 0.4, 40.0)
                .cluster(1, 1000.0, 1050.0, 3.1, 41.0)
                .core_supply(0, 0.35)
                .task(0, 0.2, 0.18, 30.0, 1.0);
            // task 1 and cores 1–2 left NaN on purpose.
        }
        rec
    }

    #[test]
    fn csv_has_header_and_one_row_per_quantum() {
        let rec = sample_recorder();
        let mut buf = Vec::new();
        write_csv(&rec, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 3);
        let cols = lines[0].split(',').count();
        // 10 scalars + 5 obs self-metrics + 11 phases + 2·4 cluster
        // + 3·2 core + 2·8 task = 56.
        assert_eq!(cols, 56);
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), cols, "ragged row: {row}");
        }
        // NaN cells are empty, not "NaN".
        assert!(!text.contains("NaN"));
    }

    /// A second, deliberately smaller chip: the fleet join must tolerate
    /// heterogeneous shapes.
    fn small_recorder() -> SeriesRecorder {
        let mut rec = SeriesRecorder::new(8);
        rec.ensure_shape(1, 2, 1);
        for q in 0..3u64 {
            let mut row = rec.push_row(q * 1000);
            row.chip(1.5, 2.5, 38.0)
                .cluster(0, 250.0, 900.0, 0.3, 37.0)
                .core_supply(1, 0.2)
                .task(0, 0.4, 0.4, 10.0, 0.9);
        }
        rec
    }

    #[test]
    fn fleet_csv_joins_chips_on_the_shared_timeline() {
        let a = sample_recorder();
        let b = small_recorder();
        let mut buf = Vec::new();
        write_fleet_csv(&[&a, &b], &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 3);
        // 1 shared t_s + chip 0's 55 columns + chip 1's 41 columns.
        let cols = lines[0].split(',').count();
        assert_eq!(cols, 1 + 55 + 41);
        assert!(lines[0].starts_with("t_s,c0_chip_power_w,"));
        assert!(lines[0].contains(",c1_chip_power_w,"));
        assert!(lines[0].contains(",c1_cl0_freq_mhz,"));
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), cols, "ragged row: {row}");
        }
    }

    #[test]
    fn fleet_csv_rejects_misaligned_recorders() {
        let a = sample_recorder();
        let mut b = small_recorder();
        b.push_row(9_000); // a fourth row chip 0 never saw
        let err = write_fleet_csv(&[&a, &b], &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn single_chip_csv_is_the_fleet_join_of_one() {
        // The shared row emitter guarantees the fleet join of one chip is
        // the standalone CSV with tagged headers — cell bytes identical.
        let rec = sample_recorder();
        let (mut lone, mut fleet) = (Vec::new(), Vec::new());
        write_csv(&rec, &mut lone).unwrap();
        write_fleet_csv(&[&rec], &mut fleet).unwrap();
        let lone = String::from_utf8(lone).unwrap();
        let fleet = String::from_utf8(fleet).unwrap();
        assert_eq!(
            lone.lines().skip(1).collect::<Vec<_>>(),
            fleet.lines().skip(1).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn jsonl_lines_parse_with_null_for_nan() {
        let rec = sample_recorder();
        let mut buf = Vec::new();
        write_jsonl(&rec, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in lines {
            let v = json::parse(line).expect("JSONL line parses");
            assert!(v.get("chip_power_w").unwrap().as_num().is_some());
            // Unwritten task 1 share is null.
            let shares = v.get("task_share_pu").unwrap().as_arr().unwrap();
            assert_eq!(shares[1], json::Json::Null);
        }
    }

    #[test]
    fn chrome_trace_parses_and_spans_are_complete_events() {
        let rec = sample_recorder();
        let mut buf = Vec::new();
        write_chrome_trace(&rec, &mut buf, 1).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let doc = json::parse(&text).expect("trace parses as JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let mut spans = 0;
        for e in events {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            match ph {
                "X" => {
                    spans += 1;
                    assert!(e.get("dur").unwrap().as_num().unwrap() >= 0.0);
                    assert!(e.get("ts").is_some() && e.get("name").is_some());
                }
                "C" => {
                    // Counter args must all be finite numbers (NaN omitted).
                    if let json::Json::Obj(args) = e.get("args").unwrap() {
                        assert!(!args.is_empty());
                        for v in args.values() {
                            assert!(v.as_num().unwrap().is_finite());
                        }
                    }
                }
                "M" => {}
                other => panic!("unexpected event type {other}"),
            }
        }
        // 3 rows × 4 measured phases each.
        assert_eq!(spans, 12);
    }

    #[test]
    fn fleet_trace_tags_chips_and_carries_the_exchange_track() {
        let a = sample_recorder();
        let b = small_recorder();
        let exchange = vec![
            CounterSample {
                t_us: 0,
                series: vec![
                    ("cap_w".to_string(), 10.0),
                    ("total_power_w".to_string(), 7.0),
                    ("allowance".to_string(), 10.0),
                    ("price_per_watt".to_string(), 1.02),
                ],
            },
            CounterSample {
                t_us: 2_000,
                series: vec![
                    ("cap_w".to_string(), 10.0),
                    ("total_power_w".to_string(), 11.0),
                    ("allowance".to_string(), 8.5),
                    ("price_per_watt".to_string(), 1.31),
                ],
            },
        ];
        let mut buf = Vec::new();
        write_fleet_chrome_trace(&[&a, &b], &exchange, &mut buf, 1).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let doc = json::parse(&text).expect("fleet trace parses as JSON");
        assert_eq!(
            doc.get("otherData").unwrap().get("chips").unwrap().as_num(),
            Some(2.0)
        );
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let mut chip_pids = std::collections::BTreeSet::new();
        let mut exchange_counters = 0;
        let mut spans = 0;
        for e in events {
            let pid = e.get("pid").unwrap().as_num().unwrap() as usize;
            match e.get("ph").unwrap().as_str().unwrap() {
                "C" if pid == 4 => {
                    exchange_counters += 1;
                    assert_eq!(e.get("name").unwrap().as_str(), Some("exchange"));
                    assert!(e.get("args").unwrap().get("price_per_watt").is_some());
                }
                "C" => {
                    chip_pids.insert(pid);
                }
                "X" => spans += 1,
                _ => {}
            }
        }
        // Each chip counts on its own even pid; chip 1 recorded no phases
        // so all 12 spans are chip 0's, on pid 1.
        assert_eq!(chip_pids.into_iter().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(exchange_counters, 2);
        assert_eq!(spans, 12);
    }

    #[test]
    fn chrome_trace_stride_decimates() {
        let rec = sample_recorder();
        let mut all = Vec::new();
        let mut dec = Vec::new();
        write_chrome_trace(&rec, &mut all, 1).unwrap();
        write_chrome_trace(&rec, &mut dec, 2).unwrap();
        let count = |b: &[u8]| {
            let doc = json::parse(std::str::from_utf8(b).unwrap()).unwrap();
            doc.get("traceEvents").unwrap().as_arr().unwrap().len()
        };
        assert!(count(&dec) < count(&all));
    }

    #[test]
    fn summary_table_lists_measured_phases_only() {
        let mut prof = PhaseProfiler::new();
        for ns in [100, 120, 200, 1000, 1000, 1000, 1000, 1000, 1000, 9000] {
            prof.record(Phase::Plan, ns);
        }
        let table = summary_table(&prof);
        assert!(table.contains("plan"));
        assert!(!table.contains("capture"));
        // The hand-computed fixture percentiles (see profiler tests).
        assert!(table.contains("1.0 µs")); // p50 = 1023 ns
        assert!(table.contains("9.0 µs")); // p95/p99/max = 9000 ns
    }
}
