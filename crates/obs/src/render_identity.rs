//! Byte-identity of the cached row serializers against the plain
//! per-value `format!` renderer they replaced, kept here as the
//! reference. Random recorders grow their shape mid-run and draw every
//! cell from a small pool of awkward values (signed zeros, NaN, ±inf,
//! subnormals, 1e±300, `u64::MAX` phase ns), repeating the previous row's
//! value often enough that the render cache hits; streamed CSV and JSONL
//! at a random flush interval and the post-run exporters must equal the
//! reference byte for byte.

use proptest::prelude::*;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use crate::export::{csv_header, fleet_csv_header, write_csv, write_fleet_csv, write_jsonl};
use crate::profiler::Phase;
use crate::recorder::{is_counter, SeriesRecorder};
use crate::stream::{StreamFormat, TelemetryStream};

/// The reference renderer: every cell formatted afresh into its own
/// `String`, read through the recorder's named cells.
mod reference {
    use super::{Phase, SeriesRecorder};
    use crate::recorder::*;

    fn cell(v: f64) -> String {
        if v.is_nan() {
            String::new()
        } else {
            format!("{v}")
        }
    }

    fn jnum(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    pub fn csv_row_cells(rec: &SeriesRecorder, i: usize, line: &mut String) {
        let row = rec.row(i);
        let s = row.shape;
        for k in [
            CHIP_POWER_W,
            TDP_HEADROOM_W,
            HOTTEST_C,
            ALLOWANCE,
            MONEY_SUPPLY,
        ] {
            line.push(',');
            line.push_str(&cell(row.f(k)));
        }
        for k in [
            SENSOR_FALLBACKS,
            DVFS_RETRIES,
            MIGRATION_RETRIES,
            TASKS_ORPHANED,
            OBS_DROPPED_ROWS,
            OBS_ALERTS_FIRING,
        ] {
            line.push_str(&format!(",{}", row.u(k)));
        }
        for k in [OBS_STREAM_ROWS, OBS_STREAM_LOST, OBS_STREAM_FLUSHES] {
            line.push(',');
            line.push_str(&cell(row.f(k)));
        }
        for p in 0..Phase::COUNT {
            line.push_str(&format!(",{}", row.u(PHASE_NS + p)));
        }
        for c in 0..s.clusters {
            for f in [CL_FREQ_MHZ, CL_VOLT_MV, CL_POWER_W, CL_TEMP_C] {
                line.push(',');
                line.push_str(&cell(row.f(s.cluster(c, f))));
            }
        }
        for c in 0..s.cores {
            for f in [CORE_SUPPLY, CORE_PRICE] {
                line.push(',');
                line.push_str(&cell(row.f(s.core(c, f))));
            }
        }
        for t in 0..s.tasks {
            for f in [
                TASK_SHARE,
                TASK_GRANTED,
                TASK_HR,
                TASK_HR_NORM,
                TASK_QUEUE,
                TASK_P99_MS,
                TASK_SLO_MS,
                TASK_SHED,
            ] {
                line.push(',');
                line.push_str(&cell(row.f(s.task(t, f))));
            }
        }
    }

    pub fn csv_row(rec: &SeriesRecorder, i: usize, line: &mut String) {
        line.push_str(&format!("{}", rec.time_us(i) as f64 / 1e6));
        csv_row_cells(rec, i, line);
    }

    pub fn jsonl_row(rec: &SeriesRecorder, i: usize, line: &mut String) {
        let row = rec.row(i);
        let s = row.shape;
        line.push('{');
        line.push_str(&format!("\"t_s\":{}", rec.time_us(i) as f64 / 1e6));
        for (k, c) in [
            ("chip_power_w", CHIP_POWER_W),
            ("tdp_headroom_w", TDP_HEADROOM_W),
            ("hottest_c", HOTTEST_C),
            ("allowance", ALLOWANCE),
            ("money_supply", MONEY_SUPPLY),
        ] {
            line.push_str(&format!(",\"{k}\":{}", jnum(row.f(c))));
        }
        for (k, c) in [
            ("sensor_fallbacks", SENSOR_FALLBACKS),
            ("dvfs_retries", DVFS_RETRIES),
            ("migration_retries", MIGRATION_RETRIES),
            ("tasks_orphaned", TASKS_ORPHANED),
            ("obs_dropped_rows", OBS_DROPPED_ROWS),
            ("obs_alerts_firing", OBS_ALERTS_FIRING),
        ] {
            line.push_str(&format!(",\"{k}\":{}", row.u(c)));
        }
        for (k, c) in [
            ("obs_stream_rows", OBS_STREAM_ROWS),
            ("obs_stream_lost", OBS_STREAM_LOST),
            ("obs_stream_flushes", OBS_STREAM_FLUSHES),
        ] {
            line.push_str(&format!(",\"{k}\":{}", jnum(row.f(c))));
        }
        line.push_str(",\"phase_ns\":{");
        for (k, p) in Phase::ALL.iter().enumerate() {
            if k > 0 {
                line.push(',');
            }
            line.push_str(&format!("\"{}\":{}", p.name(), row.u(PHASE_NS + k)));
        }
        line.push('}');
        let arr = |line: &mut String, key: &str, get: &dyn Fn(usize) -> usize, n: usize| {
            line.push_str(&format!(",\"{key}\":["));
            for e in 0..n {
                if e > 0 {
                    line.push(',');
                }
                line.push_str(&jnum(row.f(get(e))));
            }
            line.push(']');
        };
        let (n_cl, n_co, n_t) = (s.clusters, s.cores, s.tasks);
        arr(
            line,
            "cluster_freq_mhz",
            &|c| s.cluster(c, CL_FREQ_MHZ),
            n_cl,
        );
        arr(line, "cluster_volt_mv", &|c| s.cluster(c, CL_VOLT_MV), n_cl);
        arr(line, "cluster_power_w", &|c| s.cluster(c, CL_POWER_W), n_cl);
        arr(line, "cluster_temp_c", &|c| s.cluster(c, CL_TEMP_C), n_cl);
        arr(line, "core_supply_pu", &|c| s.core(c, CORE_SUPPLY), n_co);
        arr(line, "core_price", &|c| s.core(c, CORE_PRICE), n_co);
        arr(line, "task_share_pu", &|t| s.task(t, TASK_SHARE), n_t);
        arr(line, "task_granted_pu", &|t| s.task(t, TASK_GRANTED), n_t);
        arr(line, "task_hr", &|t| s.task(t, TASK_HR), n_t);
        arr(line, "task_hr_norm", &|t| s.task(t, TASK_HR_NORM), n_t);
        arr(line, "task_queue", &|t| s.task(t, TASK_QUEUE), n_t);
        arr(line, "task_p99_ms", &|t| s.task(t, TASK_P99_MS), n_t);
        arr(line, "task_slo_ms", &|t| s.task(t, TASK_SLO_MS), n_t);
        arr(line, "task_shed", &|t| s.task(t, TASK_SHED), n_t);
        line.push('}');
    }
}

/// Float cells: signed zeros, NaN, ±inf, subnormals, extremes, and a few
/// ordinary readings.
const F64_POOL: [f64; 14] = [
    0.0,
    -0.0,
    1.0,
    0.1,
    1.0 / 3.0,
    -2.5,
    123.456,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    5e-324,
    f64::MIN_POSITIVE / 4.0,
    1e300,
    1e-300,
];

/// Integer cells, `u64::MAX` included (phase ns, counters).
const U64_POOL: [u64; 6] = [0, 1, 7, 1000, 123_456_789_012, u64::MAX];

/// `splitmix64`: the per-case value source, seeded by the property input.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Keep the previous row's value two times in three, so the render
    /// cache hits; otherwise draw from `pool`.
    fn pick<T: Copy>(&mut self, prev: Option<T>, pool: &[T]) -> T {
        match prev {
            Some(v) if self.below(3) > 0 => v,
            _ => pool[self.below(pool.len())],
        }
    }
}

/// Push one row into `rec`, sometimes growing its shape first, with every
/// cell but `t_us` drawn by `mix`.
fn push_random_row(rec: &mut SeriesRecorder, mix: &mut Mix, t_us: u64) {
    if mix.below(6) == 0 {
        let (cl, co, t) = rec.shape();
        rec.ensure_shape(cl + mix.below(2), co + mix.below(3), t + mix.below(2));
    }
    let prev = (rec.total_rows() > 0).then(|| {
        let i = ((rec.total_rows() - 1) % rec.capacity() as u64) as usize;
        rec.row(i).cells.to_vec()
    });
    rec.push_row(t_us);
    let i = ((rec.total_rows() - 1) % rec.capacity() as u64) as usize;
    let row = rec.row_mut(i);
    for k in 1..row.len() {
        let last = prev.as_ref().map(|p| p[k]);
        row[k] = if is_counter(k) {
            mix.pick(last, &U64_POOL)
        } else {
            mix.pick(last.map(f64::from_bits), &F64_POOL).to_bits()
        };
    }
}

/// Reference bytes for `rows` of `rec` in `format` (CSV with its header).
fn reference_rows(
    rec: &SeriesRecorder,
    rows: impl Iterator<Item = usize>,
    format: StreamFormat,
    header: bool,
    out: &mut String,
) {
    if header && format == StreamFormat::Csv {
        out.push_str(&csv_header(rec));
        out.push('\n');
    }
    for i in rows {
        match format {
            StreamFormat::Csv => reference::csv_row(rec, i, out),
            StreamFormat::Jsonl => reference::jsonl_row(rec, i, out),
        }
        out.push('\n');
    }
}

/// Reference bytes of one stream flush: the rows from `cursor` on, under
/// `rec`'s current shape, with the CSV header before the first.
fn reference_flush(rec: &SeriesRecorder, format: StreamFormat, cursor: &mut u64, out: &mut String) {
    let total = rec.total_rows();
    let cap = rec.capacity() as u64;
    let rows = (*cursor..total).map(|abs| (abs % cap) as usize);
    reference_rows(rec, rows, format, *cursor == 0, out);
    *cursor = total;
}

/// A `Write` sink readable after the stream's writer thread has exited.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Drive one random recorder through a stream of `format`, building the
/// reference bytes alongside at the same flush boundaries (each flush
/// renders under the shape current at that moment). Returns the recorder
/// plus the streamed and reference bytes.
fn stream_case(
    seed: u64,
    cap: usize,
    flush_every: usize,
    rows: usize,
    format: StreamFormat,
) -> (SeriesRecorder, Vec<u8>, String) {
    let mut mix = Mix(seed);
    let mut rec = SeriesRecorder::new(cap);
    let buf = SharedBuf::default();
    let mut stream = TelemetryStream::with_writer(buf.clone(), format, flush_every);
    let mut expected = String::new();
    let mut cursor = 0u64;
    let mut t_us = 0u64;
    for _ in 0..rows {
        t_us += [0, 1, 1000, 999_999][mix.below(4)];
        push_random_row(&mut rec, &mut mix, t_us);
        stream.pump(&rec);
        if rec.total_rows() - cursor >= flush_every as u64 {
            reference_flush(&rec, format, &mut cursor, &mut expected);
        }
    }
    if rec.total_rows() > cursor {
        reference_flush(&rec, format, &mut cursor, &mut expected);
    }
    let stats = stream.finish(&rec).expect("writer ok");
    assert_eq!(stats.lost, 0);
    let streamed = buf.0.lock().unwrap().clone();
    (rec, streamed, expected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Streamed CSV and JSONL equal the reference at any flush interval,
    /// and so do the post-run exporters over the recorder left behind.
    #[test]
    fn cached_rows_match_the_reference_renderer(
        (cap, flush_every) in (1usize..=12).prop_flat_map(|cap| (Just(cap), 1usize..=cap)),
        rows in 1usize..48,
        seed in 0u64..u64::MAX,
    ) {
        for format in [StreamFormat::Csv, StreamFormat::Jsonl] {
            let (rec, streamed, expected) = stream_case(seed, cap, flush_every, rows, format);
            prop_assert!(
                streamed == expected.as_bytes(),
                "{format:?} stream differs:\n{}\nvs reference\n{expected}",
                String::from_utf8_lossy(&streamed)
            );
            let mut post = Vec::new();
            let mut reference = String::new();
            match format {
                StreamFormat::Csv => write_csv(&rec, &mut post).unwrap(),
                StreamFormat::Jsonl => write_jsonl(&rec, &mut post).unwrap(),
            }
            reference_rows(&rec, rec.row_indices(), format, true, &mut reference);
            prop_assert!(
                post == reference.as_bytes(),
                "{format:?} export differs:\n{}\nvs reference\n{reference}",
                String::from_utf8_lossy(&post)
            );
        }
    }

    /// The fleet join, one cache per chip, equals the reference join of
    /// independently shaped chips.
    #[test]
    fn cached_fleet_join_matches_the_reference(
        cap in 1usize..=12,
        chips in 1usize..=3,
        rows in 1usize..40,
        seed in 0u64..u64::MAX,
    ) {
        let mut mix = Mix(seed);
        let mut recs: Vec<SeriesRecorder> = (0..chips).map(|_| SeriesRecorder::new(cap)).collect();
        let mut t_us = 0u64;
        for _ in 0..rows {
            t_us += [0, 1, 1000, 999_999][mix.below(4)];
            for rec in &mut recs {
                push_random_row(rec, &mut mix, t_us);
            }
        }
        let refs: Vec<&SeriesRecorder> = recs.iter().collect();
        let mut joined = Vec::new();
        write_fleet_csv(&refs, &mut joined).unwrap();
        let mut reference = fleet_csv_header(&refs);
        reference.push('\n');
        let indices: Vec<Vec<usize>> = refs.iter().map(|r| r.row_indices().collect()).collect();
        for (k, &row) in indices[0].iter().enumerate() {
            reference.push_str(&format!("{}", refs[0].time_us(row) as f64 / 1e6));
            for (chip, rec) in refs.iter().enumerate() {
                reference::csv_row_cells(rec, indices[chip][k], &mut reference);
            }
            reference.push('\n');
        }
        prop_assert!(
            joined == reference.as_bytes(),
            "fleet join differs:\n{}\nvs reference\n{reference}",
            String::from_utf8_lossy(&joined)
        );
    }
}
