//! Exporters over the recorder and profiler: Chrome `trace_event` JSON
//! (loadable in Perfetto / `chrome://tracing`), CSV and JSONL time-series
//! (one row per quantum — ready to regenerate the paper's figures), and a
//! human-readable phase summary table.
//!
//! The CSV and JSONL row serializers read a row view (a shape and one
//! contiguous slice of cells), so the same code renders a row in the ring
//! and a row the [`TelemetryStream`](crate::stream::TelemetryStream) has
//! copied to its writer thread. They run there for every row of a live
//! run, so they keep the previous row's text and copy each run of
//! unchanged cells from it instead of formatting them again; once the
//! cache is warm a row allocates nothing. The Chrome trace and summary
//! writers run only after the run and allocate freely. What none of them
//! may do is lie — wrapped-away rows are reported via
//! [`SeriesRecorder::dropped`], `NaN` cells export as empty/`null` and are
//! *omitted* from the Chrome trace (JSON has no NaN), and span durations
//! are the measured wall nanoseconds, not invented.

use std::fmt::Write as _;
use std::io::{self, Write};

use crate::profiler::{Phase, PhaseProfiler};
use crate::recorder::*;
use crate::stream::StreamFormat;

/// The CSV header for `rec`'s column shape. Scalar columns first, then
/// per-phase wall ns, then per-cluster / per-core / per-task groups.
pub fn csv_header(rec: &SeriesRecorder) -> String {
    header(rec.row_shape())
}

/// The CSV header for rows of `shape`.
pub(crate) fn header(shape: Shape) -> String {
    let (n_cl, n_co, n_t) = (shape.clusters, shape.cores, shape.tasks);
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

/// Write `v` as a CSV cell: shortest round-trip decimal, empty for `NaN`.
pub(crate) fn cell(out: &mut String, v: f64) {
    if !v.is_nan() {
        let _ = write!(out, "{v}");
    }
}

/// Write `v` as a JSON number, `null` when non-finite (JSON has no NaN or
/// infinity literal).
pub(crate) fn jnum(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Write `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped.
pub(crate) fn jstr(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// How a cell's bits render: a counter, or an `f64` reading whose
/// non-finite values render as the format's literal ([`cell`] or
/// [`jnum`]).
#[derive(Debug, Clone, Copy)]
enum Kind {
    Counter,
    CsvReading,
    JsonReading,
}

fn render(out: &mut String, kind: Kind, bits: u64) {
    match kind {
        Kind::Counter => {
            let _ = write!(out, "{bits}");
        }
        Kind::CsvReading => cell(out, f64::from_bits(bits)),
        Kind::JsonReading => jnum(out, f64::from_bits(bits)),
    }
}

/// A CSV row after `t_s`: every other cell, comma-separated, in row
/// order.
fn csv_layout(shape: Shape, e: &mut Lay) {
    for k in 1..shape.width() {
        e.lit(",");
        let kind = if is_counter(k) {
            Kind::Counter
        } else {
            Kind::CsvReading
        };
        e.cell(k, kind);
    }
}

/// The JSONL scalar keys after `t_s`, in row order.
const JSON_SCALARS: [&str; PHASE_NS - 1] = [
    ",\"chip_power_w\":",
    ",\"tdp_headroom_w\":",
    ",\"hottest_c\":",
    ",\"allowance\":",
    ",\"money_supply\":",
    ",\"sensor_fallbacks\":",
    ",\"dvfs_retries\":",
    ",\"migration_retries\":",
    ",\"tasks_orphaned\":",
    ",\"obs_dropped_rows\":",
    ",\"obs_alerts_firing\":",
    ",\"obs_stream_rows\":",
    ",\"obs_stream_lost\":",
    ",\"obs_stream_flushes\":",
];

/// A JSONL object after `t_s`: the scalars, the phase ns as an object,
/// then one array per entity field.
fn jsonl_layout(shape: Shape, e: &mut Lay) {
    for (k, key) in JSON_SCALARS.iter().enumerate().map(|(j, key)| (j + 1, key)) {
        e.lit(key);
        let kind = if is_counter(k) {
            Kind::Counter
        } else {
            Kind::JsonReading
        };
        e.cell(k, kind);
    }
    e.lit(",\"phase_ns\":{");
    for (p, phase) in Phase::ALL.iter().enumerate() {
        if p > 0 {
            e.lit(",");
        }
        e.lit("\"");
        e.lit(phase.name());
        e.lit("\":");
        e.cell(PHASE_NS + p, Kind::Counter);
    }
    e.lit("}");
    let mut array = |key: &str, n: usize, index: &dyn Fn(usize) -> usize| {
        e.lit(key);
        for x in 0..n {
            if x > 0 {
                e.lit(",");
            }
            e.cell(index(x), Kind::JsonReading);
        }
        e.lit("]");
    };
    let (cl, co, t) = (shape.clusters, shape.cores, shape.tasks);
    array(",\"cluster_freq_mhz\":[", cl, &|c| {
        shape.cluster(c, CL_FREQ_MHZ)
    });
    array(",\"cluster_volt_mv\":[", cl, &|c| {
        shape.cluster(c, CL_VOLT_MV)
    });
    array(",\"cluster_power_w\":[", cl, &|c| {
        shape.cluster(c, CL_POWER_W)
    });
    array(",\"cluster_temp_c\":[", cl, &|c| {
        shape.cluster(c, CL_TEMP_C)
    });
    array(",\"core_supply_pu\":[", co, &|c| shape.core(c, CORE_SUPPLY));
    array(",\"core_price\":[", co, &|c| shape.core(c, CORE_PRICE));
    array(",\"task_share_pu\":[", t, &|x| shape.task(x, TASK_SHARE));
    array(",\"task_granted_pu\":[", t, &|x| {
        shape.task(x, TASK_GRANTED)
    });
    array(",\"task_hr\":[", t, &|x| shape.task(x, TASK_HR));
    array(",\"task_hr_norm\":[", t, &|x| shape.task(x, TASK_HR_NORM));
    array(",\"task_queue\":[", t, &|x| shape.task(x, TASK_QUEUE));
    array(",\"task_p99_ms\":[", t, &|x| shape.task(x, TASK_P99_MS));
    array(",\"task_slo_ms\":[", t, &|x| shape.task(x, TASK_SLO_MS));
    array(",\"task_shed\":[", t, &|x| shape.task(x, TASK_SHED));
    e.lit("}");
}

/// One cell of the cached row: which row cell it shows, how, the bits it
/// last showed, and where that text sits in the previous row's text.
#[derive(Debug, Clone, Copy)]
struct Slot {
    k: usize,
    kind: Kind,
    bits: u64,
    start: usize,
    end: usize,
}

/// The previous row's text (everything after `t_s`) and each cell's span
/// in it. Consecutive quanta repeat most cells (cluster frequencies,
/// prices, SLOs, counters), and the text between two cells is fixed for a
/// shape and format, so a row is one compare per cell: each run of
/// unchanged cells is copied from the previous text in one piece, and only
/// a cell whose bits changed is rendered afresh. Bits, not `==`, decide,
/// so `-0.0` and `0.0` keep their own text.
///
/// The first row, and the first after the shape or the format changes, is
/// rendered in full and lays out the spans. Use one cache per recorder and
/// format.
#[derive(Debug, Default)]
pub(crate) struct RowCache {
    layout: Option<(StreamFormat, Shape)>,
    slots: Vec<Slot>,
    prev: String,
}

/// The full render of a row, which lays out the cache: it writes the
/// fixed text and every cell, and records each cell's span.
struct Lay<'a> {
    slots: &'a mut Vec<Slot>,
    out: &'a mut String,
    base: usize,
    cells: &'a [u64],
}

impl Lay<'_> {
    fn lit(&mut self, text: &str) {
        self.out.push_str(text);
    }

    fn cell(&mut self, k: usize, kind: Kind) {
        let bits = self.cells[k];
        let start = self.out.len() - self.base;
        render(self.out, kind, bits);
        let end = self.out.len() - self.base;
        self.slots.push(Slot {
            k,
            kind,
            bits,
            start,
            end,
        });
    }
}

impl RowCache {
    /// Append `row`'s text after `t_s` in `format` to `out`.
    fn cells(&mut self, format: StreamFormat, row: RowView, out: &mut String) {
        let base = out.len();
        if self.layout == Some((format, row.shape)) {
            let RowCache { slots, prev, .. } = self;
            // Positions in `prev` up to `copied` are in `out` already;
            // `shift` carries an unchanged span from `prev` to `out`.
            let mut copied = 0;
            let mut shift = 0usize;
            for s in slots.iter_mut() {
                let bits = row.cells[s.k];
                if bits == s.bits {
                    s.start = s.start.wrapping_add(shift);
                    s.end = s.end.wrapping_add(shift);
                    continue;
                }
                out.push_str(&prev[copied..s.start]);
                copied = s.end;
                s.bits = bits;
                s.start = out.len() - base;
                render(out, s.kind, bits);
                s.end = out.len() - base;
                shift = s.end.wrapping_sub(copied);
            }
            out.push_str(&prev[copied..]);
        } else {
            self.layout = Some((format, row.shape));
            self.slots.clear();
            let mut lay = Lay {
                slots: &mut self.slots,
                out,
                base,
                cells: row.cells,
            };
            match format {
                StreamFormat::Csv => csv_layout(row.shape, &mut lay),
                StreamFormat::Jsonl => jsonl_layout(row.shape, &mut lay),
            }
        }
        self.prev.clear();
        self.prev.push_str(&out[base..]);
    }
}

/// Append the row's simulated time in seconds. It changes every row, so
/// it is formatted directly rather than through the cache.
fn t_s(out: &mut String, row: RowView) {
    let _ = write!(out, "{}", row.u(T_US) as f64 / 1e6);
}

/// Append `row` as one line of `format`, without the newline: a CSV row
/// (`t_s` plus every cell) or a JSONL object. Shared by [`write_csv`],
/// [`write_jsonl`] and the [`TelemetryStream`](crate::stream::TelemetryStream)
/// writer, so streamed output is byte-identical to a post-run export.
pub(crate) fn row_line(
    format: StreamFormat,
    row: RowView,
    cache: &mut RowCache,
    line: &mut String,
) {
    if format == StreamFormat::Jsonl {
        line.push_str("{\"t_s\":");
    }
    t_s(line, row);
    cache.cells(format, row, line);
}

/// Write the held rows in `format`, oldest first, one per line.
fn write_rows<W: Write>(rec: &SeriesRecorder, format: StreamFormat, w: &mut W) -> io::Result<()> {
    let mut cache = RowCache::default();
    let mut line = String::new();
    for i in rec.row_indices() {
        line.clear();
        row_line(format, rec.row(i), &mut cache, &mut line);
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Write the held rows as CSV, oldest first: the header, then one row per
/// recorded quantum.
pub fn write_csv<W: Write>(rec: &SeriesRecorder, w: &mut W) -> io::Result<()> {
    writeln!(w, "{}", csv_header(rec))?;
    write_rows(rec, StreamFormat::Csv, w)
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
    let mut caches: Vec<RowCache> = recs.iter().map(|_| RowCache::default()).collect();
    let mut line = String::new();
    for (k, &row) in indices[0].iter().enumerate() {
        line.clear();
        t_s(&mut line, first.row(row));
        for (chip, rec) in recs.iter().enumerate() {
            caches[chip].cells(StreamFormat::Csv, rec.row(indices[chip][k]), &mut line);
        }
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Write the held rows as JSONL: one self-describing JSON object per
/// quantum (entity columns as arrays), oldest first.
pub fn write_jsonl<W: Write>(rec: &SeriesRecorder, w: &mut W) -> io::Result<()> {
    write_rows(rec, StreamFormat::Jsonl, w)
}

/// One Chrome counter event on `pid`: `name` at `ts_us` with the finite
/// `(series, value)` pairs. Emits nothing when every value is NaN.
fn counter(out: &mut Vec<String>, pid: usize, ts_us: f64, name: &str, series: &[(String, f64)]) {
    if !series.iter().any(|(_, v)| v.is_finite()) {
        return;
    }
    let mut e = format!(
        "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"ts\":{ts_us},\"name\":\"{name}\",\"args\":{{"
    );
    for (n, (k, v)) in series.iter().filter(|(_, v)| v.is_finite()).enumerate() {
        if n > 0 {
            e.push(',');
        }
        jstr(&mut e, k);
        e.push(':');
        jnum(&mut e, *v);
    }
    e.push_str("}}");
    out.push(e);
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
        let row = rec.row(i);
        let s = row.shape;
        let ts = row.u(T_US) as f64;

        // Counters (simulated timeline).
        let mut power = vec![("chip".to_string(), row.f(CHIP_POWER_W))];
        let mut temp = vec![("hottest".to_string(), row.f(HOTTEST_C))];
        let mut freq = Vec::new();
        for c in 0..n_cl {
            power.push((format!("cl{c}"), row.f(s.cluster(c, CL_POWER_W))));
            temp.push((format!("cl{c}"), row.f(s.cluster(c, CL_TEMP_C))));
            freq.push((format!("cl{c}"), row.f(s.cluster(c, CL_FREQ_MHZ))));
        }
        counter(ev, pid_counters, ts, "power_w", &power);
        counter(ev, pid_counters, ts, "temp_c", &temp);
        counter(ev, pid_counters, ts, "freq_mhz", &freq);
        counter(
            ev,
            pid_counters,
            ts,
            "tdp_headroom_w",
            &[("headroom".to_string(), row.f(TDP_HEADROOM_W))],
        );
        counter(
            ev,
            pid_counters,
            ts,
            "money",
            &[
                ("allowance".to_string(), row.f(ALLOWANCE)),
                ("supply".to_string(), row.f(MONEY_SUPPLY)),
            ],
        );
        let price: Vec<(String, f64)> = (0..n_co)
            .map(|c| (format!("core{c}"), row.f(s.core(c, CORE_PRICE))))
            .collect();
        counter(ev, pid_counters, ts, "price", &price);
        let supply: Vec<(String, f64)> = (0..n_co)
            .map(|c| (format!("core{c}"), row.f(s.core(c, CORE_SUPPLY))))
            .collect();
        counter(ev, pid_counters, ts, "supply_pu", &supply);
        let hr: Vec<(String, f64)> = (0..n_t)
            .map(|t| (format!("task{t}"), row.f(s.task(t, TASK_HR_NORM))))
            .collect();
        counter(ev, pid_counters, ts, "hr_norm", &hr);
        let share: Vec<(String, f64)> = (0..n_t)
            .map(|t| (format!("task{t}"), row.f(s.task(t, TASK_SHARE))))
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
                    row.u(SENSOR_FALLBACKS) as f64,
                ),
                ("dvfs_retries".to_string(), row.u(DVFS_RETRIES) as f64),
                (
                    "migration_retries".to_string(),
                    row.u(MIGRATION_RETRIES) as f64,
                ),
                ("tasks_orphaned".to_string(), row.u(TASKS_ORPHANED) as f64),
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
            let ns = row.u(PHASE_NS + p as usize);
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
            let ns = row.u(PHASE_NS + p as usize);
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
