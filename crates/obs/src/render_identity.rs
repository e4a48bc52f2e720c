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
use crate::recorder::SeriesRecorder;
use crate::stream::{StreamFormat, TelemetryStream};

/// The reference renderer: every cell formatted afresh into its own
/// `String`.
mod reference {
    use super::{Phase, SeriesRecorder};

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

    pub fn csv_row(rec: &SeriesRecorder, i: usize, line: &mut String) {
        line.push_str(&format!("{}", rec.t_us[i] as f64 / 1e6));
        csv_row_cells(rec, i, line);
    }

    pub fn jsonl_row(rec: &SeriesRecorder, i: usize, line: &mut String) {
        let (n_cl, n_co, n_t) = rec.shape();
        line.push('{');
        line.push_str(&format!("\"t_s\":{}", rec.t_us[i] as f64 / 1e6));
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
/// column drawn by `mix`.
fn push_random_row(rec: &mut SeriesRecorder, mix: &mut Mix, t_us: u64) {
    if mix.below(6) == 0 {
        let (cl, co, t) = rec.shape();
        rec.ensure_shape(cl + mix.below(2), co + mix.below(3), t + mix.below(2));
    }
    let prev =
        (rec.total_rows() > 0).then(|| ((rec.total_rows() - 1) % rec.capacity() as u64) as usize);
    rec.push_row(t_us);
    let i = ((rec.total_rows() - 1) % rec.capacity() as u64) as usize;
    let floats = [
        &mut rec.chip_power_w,
        &mut rec.tdp_headroom_w,
        &mut rec.hottest_c,
        &mut rec.allowance,
        &mut rec.money_supply,
        &mut rec.obs_stream_rows,
        &mut rec.obs_stream_lost,
        &mut rec.obs_stream_flushes,
    ]
    .into_iter()
    .chain(rec.cluster_freq_mhz.iter_mut())
    .chain(rec.cluster_volt_mv.iter_mut())
    .chain(rec.cluster_power_w.iter_mut())
    .chain(rec.cluster_temp_c.iter_mut())
    .chain(rec.core_supply.iter_mut())
    .chain(rec.core_price.iter_mut())
    .chain(rec.task_share.iter_mut())
    .chain(rec.task_granted.iter_mut())
    .chain(rec.task_hr.iter_mut())
    .chain(rec.task_hr_norm.iter_mut())
    .chain(rec.task_queue.iter_mut())
    .chain(rec.task_p99_ms.iter_mut())
    .chain(rec.task_slo_ms.iter_mut())
    .chain(rec.task_shed.iter_mut());
    for col in floats {
        col[i] = mix.pick(prev.map(|p| col[p]), &F64_POOL);
    }
    let ints = [
        &mut rec.sensor_fallbacks,
        &mut rec.dvfs_retries,
        &mut rec.migration_retries,
        &mut rec.tasks_orphaned,
        &mut rec.obs_dropped_rows,
        &mut rec.obs_alerts_firing,
    ]
    .into_iter()
    .chain(rec.phase_ns.iter_mut());
    for col in ints {
        col[i] = mix.pick(prev.map(|p| col[p]), &U64_POOL);
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
            reference.push_str(&format!("{}", refs[0].t_us[row] as f64 / 1e6));
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
