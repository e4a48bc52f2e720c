//! The per-quantum time-series recorder.
//!
//! Row-major storage in a ring: one slab of `capacity × width` cells, in
//! which a row is one contiguous slice of `u64` cells (counters as
//! themselves, readings as `f64` bits). Opening a row copies a template
//! row over the slot (readings `NaN`, counters zero), and the writer's
//! setters then store into that one slice, so a row write touches a few
//! consecutive cache lines however many entities the chip has. No
//! allocation happens after the entity population is first seen. When the
//! ring wraps, the oldest rows are overwritten and counted in
//! [`SeriesRecorder::dropped`], never silently.
//!
//! A row's cells run in CSV column order: `t_us`, the chip and market
//! scalars, the degradation and self-observation counters, the per-phase
//! wall ns, then one group per cluster, per core and per task. Growing
//! the population widens every row; the held rows are moved to the new
//! width in place, back to front, so the ring is never resident twice,
//! and their new entity cells read `NaN`.
//!
//! The column set mirrors the paper's evaluation figures: per-core price
//! and supply (Fig. 4's market state), per-cluster frequency / voltage /
//! power / temperature (Figs. 5–6), chip power against the TDP headroom,
//! the chip agent's money supply and allowance, per-task share / granted
//! PU / heart rate (Fig. 7), plus the degradation counters and the phase
//! profiler's per-quantum spans. Values that do not exist in a given run
//! (no TDP, no market, inactive task slot) record as `NaN`, which the
//! exporters render as empty (CSV) or `null` (JSONL) and omit (Chrome).

use crate::profiler::Phase;

/// What the policy layer (the market) reports into each row: the chip
/// agent's allowance, the total money supply, and the last discovered
/// per-core prices. Filled by `PowerManager::sample_policy`; managers
/// without a market leave it `NaN`.
#[derive(Debug, Clone, Default)]
pub struct PolicySample {
    /// The chip agent's current allowance `A` (budget handed to tasks).
    pub allowance: f64,
    /// Allowance plus task-agent savings — the total money in circulation.
    pub money_supply: f64,
    core_price: Vec<f64>,
}

impl PolicySample {
    /// An empty sample (everything `NaN` until a market reports).
    pub fn new() -> PolicySample {
        PolicySample {
            allowance: f64::NAN,
            money_supply: f64::NAN,
            core_price: Vec::new(),
        }
    }

    /// Clear to `NaN` and (re)size the price vector. Resizing allocates,
    /// but the core population is fixed after setup, so steady state is a
    /// `fill`.
    pub fn reset(&mut self, cores: usize) {
        self.allowance = f64::NAN;
        self.money_supply = f64::NAN;
        if self.core_price.len() != cores {
            self.core_price.resize(cores, f64::NAN);
        }
        self.core_price.fill(f64::NAN);
    }

    /// Record the discovered price of `core` (ignores unknown indices).
    pub fn set_core_price(&mut self, core: usize, price: f64) {
        if let Some(p) = self.core_price.get_mut(core) {
            *p = price;
        }
    }

    /// The last discovered price of `core`, `NaN` when unknown.
    pub fn core_price(&self, core: usize) -> f64 {
        self.core_price.get(core).copied().unwrap_or(f64::NAN)
    }
}

// Cell indices of the scalar part of a row, in CSV column order.
pub(crate) const T_US: usize = 0;
pub(crate) const CHIP_POWER_W: usize = 1;
pub(crate) const TDP_HEADROOM_W: usize = 2;
pub(crate) const HOTTEST_C: usize = 3;
pub(crate) const ALLOWANCE: usize = 4;
pub(crate) const MONEY_SUPPLY: usize = 5;
pub(crate) const SENSOR_FALLBACKS: usize = 6;
pub(crate) const DVFS_RETRIES: usize = 7;
pub(crate) const MIGRATION_RETRIES: usize = 8;
pub(crate) const TASKS_ORPHANED: usize = 9;
// Observability self-metrics: the recorder/stream watching itself, so
// telemetry loss is itself telemetry (ring wrap, stream backlog).
pub(crate) const OBS_DROPPED_ROWS: usize = 10;
pub(crate) const OBS_ALERTS_FIRING: usize = 11;
pub(crate) const OBS_STREAM_ROWS: usize = 12;
pub(crate) const OBS_STREAM_LOST: usize = 13;
pub(crate) const OBS_STREAM_FLUSHES: usize = 14;
/// First of the [`Phase::COUNT`] per-phase wall-ns cells.
pub(crate) const PHASE_NS: usize = 15;
/// Cells before the first entity group.
pub(crate) const SCALARS: usize = PHASE_NS + Phase::COUNT;

// Offsets within one cluster's group.
pub(crate) const CL_FREQ_MHZ: usize = 0;
pub(crate) const CL_VOLT_MV: usize = 1;
pub(crate) const CL_POWER_W: usize = 2;
pub(crate) const CL_TEMP_C: usize = 3;
const CLUSTER_CELLS: usize = 4;

// Offsets within one core's group.
pub(crate) const CORE_SUPPLY: usize = 0;
pub(crate) const CORE_PRICE: usize = 1;
const CORE_CELLS: usize = 2;

// Offsets within one task's group.
pub(crate) const TASK_SHARE: usize = 0;
pub(crate) const TASK_GRANTED: usize = 1;
pub(crate) const TASK_HR: usize = 2;
pub(crate) const TASK_HR_NORM: usize = 3;
pub(crate) const TASK_QUEUE: usize = 4;
pub(crate) const TASK_P99_MS: usize = 5;
pub(crate) const TASK_SLO_MS: usize = 6;
pub(crate) const TASK_SHED: usize = 7;
const TASK_CELLS: usize = 8;

/// Whether cell `k` holds a `u64` counter (`t_us`, the degradation and
/// self-observation counts, phase ns) rather than `f64` bits.
pub(crate) fn is_counter(k: usize) -> bool {
    k == T_US
        || (SENSOR_FALLBACKS..=OBS_ALERTS_FIRING).contains(&k)
        || (PHASE_NS..SCALARS).contains(&k)
}

/// The entity population a row is laid out for, which fixes its width and
/// where each entity's group starts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Shape {
    pub clusters: usize,
    pub cores: usize,
    pub tasks: usize,
}

impl Shape {
    /// Cells per row.
    pub fn width(self) -> usize {
        self.task_base() + TASK_CELLS * self.tasks
    }

    fn core_base(self) -> usize {
        SCALARS + CLUSTER_CELLS * self.clusters
    }

    fn task_base(self) -> usize {
        self.core_base() + CORE_CELLS * self.cores
    }

    /// Cell index of `field` (a `CL_*` offset) of cluster `c`.
    pub fn cluster(self, c: usize, field: usize) -> usize {
        SCALARS + CLUSTER_CELLS * c + field
    }

    /// Cell index of `field` (a `CORE_*` offset) of core `c`.
    pub fn core(self, c: usize, field: usize) -> usize {
        self.core_base() + CORE_CELLS * c + field
    }

    /// Cell index of `field` (a `TASK_*` offset) of task `t`.
    pub fn task(self, t: usize, field: usize) -> usize {
        self.task_base() + TASK_CELLS * t + field
    }
}

/// One recorded row: its shape and its cells. What the serializers and
/// the aggregation fold read, whether the row sits in the ring or in a
/// copy on the stream's writer thread.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowView<'a> {
    pub shape: Shape,
    pub cells: &'a [u64],
}

impl RowView<'_> {
    /// Reading cell `k` as `f64`.
    pub fn f(&self, k: usize) -> f64 {
        f64::from_bits(self.cells[k])
    }

    /// Counter cell `k`.
    pub fn u(&self, k: usize) -> u64 {
        self.cells[k]
    }
}

/// The row-major ring recorder. See the module docs for the layout.
#[derive(Debug, Clone)]
pub struct SeriesRecorder {
    cap: usize,
    /// Rows ever written (the ring index is `total % cap`).
    total: u64,
    shape: Shape,
    /// `cap` rows of `shape.width()` cells, row `i` at `i * width`.
    cells: Vec<u64>,
    /// A freshly opened row: `NaN` readings, zero counters.
    template: Vec<u64>,
}

impl SeriesRecorder {
    /// A recorder holding the most recent `capacity` quanta.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> SeriesRecorder {
        assert!(capacity > 0, "recorder capacity must be positive");
        let shape = Shape::default();
        SeriesRecorder {
            cap: capacity,
            total: 0,
            shape,
            cells: vec![0; capacity * shape.width()],
            template: template(shape),
        }
    }

    /// Grow the rows to cover `clusters`/`cores`/`tasks`. Only grows (a
    /// shrinking population keeps its cells, recording `NaN`), and only
    /// allocates when the population actually changed — task admission is
    /// setup, so steady state takes three compares.
    ///
    /// The held rows keep their values and read `NaN` in the new entity
    /// cells. They are widened in place: the slab grows to exactly the new
    /// size, then each row, last first, moves its groups to their new
    /// offsets, so no second copy of the ring is ever made.
    pub fn ensure_shape(&mut self, clusters: usize, cores: usize, tasks: usize) {
        let old = self.shape;
        let new = Shape {
            clusters: clusters.max(old.clusters),
            cores: cores.max(old.cores),
            tasks: tasks.max(old.tasks),
        };
        if new == old {
            return;
        }
        let (old_w, new_w) = (old.width(), new.width());
        self.cells
            .reserve_exact(self.cap * new_w - self.cells.len());
        self.cells.resize(self.cap * new_w, 0);
        let nan = f64::NAN.to_bits();
        let (old_cores, new_cores) = (old.core_base(), new.core_base());
        let (old_tasks, new_tasks) = (old.task_base(), new.task_base());
        for r in (0..self.rows()).rev() {
            let (src, dst) = (r * old_w, r * new_w);
            // Highest group first: each destination lies at or after its
            // source and after every source not yet moved.
            self.cells
                .copy_within(src + old_tasks..src + old_w, dst + new_tasks);
            self.cells
                .copy_within(src + old_cores..src + old_tasks, dst + new_cores);
            self.cells.copy_within(src..src + old_cores, dst);
            let row = &mut self.cells[dst..dst + new_w];
            row[old_cores..new_cores].fill(nan);
            row[new_cores + (old_tasks - old_cores)..new_tasks].fill(nan);
            row[new_tasks + (old_w - old_tasks)..].fill(nan);
        }
        self.shape = new;
        self.template = template(new);
    }

    /// Open the next row at simulated time `t_us`, returning a writer over
    /// it. Every reading defaults to `NaN` and every counter to zero until
    /// the writer's setters store into it.
    pub fn push_row(&mut self, t_us: u64) -> RowWriter<'_> {
        let w = self.shape.width();
        let i = (self.total % self.cap as u64) as usize;
        self.total += 1;
        let dropped = self.dropped();
        let row = &mut self.cells[i * w..(i + 1) * w];
        row.copy_from_slice(&self.template);
        row[T_US] = t_us;
        row[OBS_DROPPED_ROWS] = dropped;
        RowWriter {
            row,
            shape: self.shape,
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Rows currently held (≤ capacity).
    pub fn rows(&self) -> usize {
        (self.total.min(self.cap as u64)) as usize
    }

    /// Rows ever written.
    pub fn total_rows(&self) -> u64 {
        self.total
    }

    /// Rows overwritten by ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.total.saturating_sub(self.cap as u64)
    }

    /// Entity population covered by the rows `(clusters, cores, tasks)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.shape.clusters, self.shape.cores, self.shape.tasks)
    }

    /// The layout every held row currently has.
    pub(crate) fn row_shape(&self) -> Shape {
        self.shape
    }

    /// Ring indices of the held rows, oldest first.
    pub fn row_indices(&self) -> impl Iterator<Item = usize> + '_ {
        let held = self.rows();
        let start = if self.total > self.cap as u64 {
            (self.total % self.cap as u64) as usize
        } else {
            0
        };
        (0..held).map(move |k| (start + k) % self.cap)
    }

    /// Simulated time of row at ring index `i`, in µs.
    pub fn time_us(&self, i: usize) -> u64 {
        self.cells[i * self.shape.width() + T_US]
    }

    /// The row at ring index `i`.
    pub(crate) fn row(&self, i: usize) -> RowView<'_> {
        let w = self.shape.width();
        RowView {
            shape: self.shape,
            cells: &self.cells[i * w..(i + 1) * w],
        }
    }

    /// The cells of the row at ring index `i`, for in-place edits.
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [u64] {
        let w = self.shape.width();
        &mut self.cells[i * w..(i + 1) * w]
    }

    /// The cells of the rows written since absolute row `from`, oldest
    /// first: one slice, or two when the ring wraps between them.
    ///
    /// `from` must not be older than the oldest held row.
    pub(crate) fn rows_since(&self, from: u64) -> (&[u64], &[u64]) {
        debug_assert!(from >= self.dropped() && from <= self.total);
        let w = self.shape.width();
        let n = (self.total - from) as usize;
        let start = (from % self.cap as u64) as usize;
        let first = n.min(self.cap - start);
        (
            &self.cells[start * w..(start + first) * w],
            &self.cells[..(n - first) * w],
        )
    }
}

/// A fresh row of `shape`: `NaN` readings, zero counters.
fn template(shape: Shape) -> Vec<u64> {
    (0..shape.width())
        .map(|k| if is_counter(k) { 0 } else { f64::NAN.to_bits() })
        .collect()
}

/// Write handle over one just-opened recorder row.
#[derive(Debug)]
pub struct RowWriter<'a> {
    row: &'a mut [u64],
    shape: Shape,
}

impl RowWriter<'_> {
    fn set(&mut self, k: usize, v: f64) {
        self.row[k] = v.to_bits();
    }

    /// Chip-level scalars: power, headroom to the TDP (`NaN` without a
    /// cap), hottest cluster temperature (`NaN` without a thermal model).
    pub fn chip(&mut self, power_w: f64, tdp_headroom_w: f64, hottest_c: f64) -> &mut Self {
        self.set(CHIP_POWER_W, power_w);
        self.set(TDP_HEADROOM_W, tdp_headroom_w);
        self.set(HOTTEST_C, hottest_c);
        self
    }

    /// Market scalars from the [`PolicySample`].
    pub fn policy(&mut self, sample: &PolicySample) -> &mut Self {
        self.set(ALLOWANCE, sample.allowance);
        self.set(MONEY_SUPPLY, sample.money_supply);
        for c in 0..self.shape.cores {
            self.set(self.shape.core(c, CORE_PRICE), sample.core_price(c));
        }
        self
    }

    /// Cumulative degradation counters (sensor fallbacks, DVFS retries,
    /// migration retries, orphaned tasks).
    pub fn degradation(&mut self, sf: u64, dr: u64, mr: u64, orphaned: u64) -> &mut Self {
        self.row[SENSOR_FALLBACKS] = sf;
        self.row[DVFS_RETRIES] = dr;
        self.row[MIGRATION_RETRIES] = mr;
        self.row[TASKS_ORPHANED] = orphaned;
        self
    }

    /// This quantum's per-phase wall ns (from
    /// [`PhaseProfiler::take_last`](crate::profiler::PhaseProfiler::take_last)).
    pub fn phases(&mut self, last_ns: &[u64; Phase::COUNT]) -> &mut Self {
        self.row[PHASE_NS..SCALARS].copy_from_slice(last_ns);
        self
    }

    /// One cluster's operating point and sensors. Off clusters report zero
    /// frequency/voltage.
    pub fn cluster(
        &mut self,
        c: usize,
        freq_mhz: f64,
        volt_mv: f64,
        power_w: f64,
        temp_c: f64,
    ) -> &mut Self {
        if c < self.shape.clusters {
            let k = self.shape.cluster(c, 0);
            self.set(k + CL_FREQ_MHZ, freq_mhz);
            self.set(k + CL_VOLT_MV, volt_mv);
            self.set(k + CL_POWER_W, power_w);
            self.set(k + CL_TEMP_C, temp_c);
        }
        self
    }

    /// One core's supply (PU available this quantum).
    pub fn core_supply(&mut self, c: usize, supply: f64) -> &mut Self {
        if c < self.shape.cores {
            self.set(self.shape.core(c, CORE_SUPPLY), supply);
        }
        self
    }

    /// One task's share, granted PU (the IPS proxy — PU actually executed
    /// per quantum), heart rate, and normalized heart rate. Inactive slots
    /// simply skip the call and stay `NaN`.
    pub fn task(&mut self, t: usize, share: f64, granted: f64, hr: f64, hr_norm: f64) -> &mut Self {
        if t < self.shape.tasks {
            let k = self.shape.task(t, 0);
            self.set(k + TASK_SHARE, share);
            self.set(k + TASK_GRANTED, granted);
            self.set(k + TASK_HR, hr);
            self.set(k + TASK_HR_NORM, hr_norm);
        }
        self
    }

    /// The streaming exporter's own counters
    /// ([`StreamStats`](crate::stream::StreamStats)-shaped:
    /// rows flushed, rows lost to wrap, flushes), so stream backlog is
    /// itself on the record. Runs without a stream skip the call and the
    /// cells stay `NaN`; the ring-wrap count is written unconditionally
    /// by [`SeriesRecorder::push_row`].
    pub fn obs_stream(&mut self, rows: f64, lost: f64, flushes: f64) -> &mut Self {
        self.set(OBS_STREAM_ROWS, rows);
        self.set(OBS_STREAM_LOST, lost);
        self.set(OBS_STREAM_FLUSHES, flushes);
        self
    }

    /// One open-loop task's request-queue state: queue depth, windowed p99
    /// latency, its SLO (both ms), and the cumulative shed count. Closed-loop
    /// tasks skip the call and the cells stay `NaN`.
    pub fn task_latency(
        &mut self,
        t: usize,
        queue: f64,
        p99_ms: f64,
        slo_ms: f64,
        shed: f64,
    ) -> &mut Self {
        if t < self.shape.tasks {
            let k = self.shape.task(t, 0);
            self.set(k + TASK_QUEUE, queue);
            self.set(k + TASK_P99_MS, p99_ms);
            self.set(k + TASK_SLO_MS, slo_ms);
            self.set(k + TASK_SHED, shed);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_wrap_accounting() {
        let mut r = SeriesRecorder::new(4);
        r.ensure_shape(2, 5, 3);
        for q in 0..10u64 {
            r.push_row(q * 1000).chip(1.0 + q as f64, f64::NAN, 40.0);
        }
        assert_eq!(r.rows(), 4);
        assert_eq!(r.total_rows(), 10);
        assert_eq!(r.dropped(), 6);
        // Oldest-first iteration yields quanta 6..10.
        let times: Vec<u64> = r.row_indices().map(|i| r.time_us(i)).collect();
        assert_eq!(times, vec![6000, 7000, 8000, 9000]);
        let powers: Vec<f64> = r.row_indices().map(|i| r.row(i).f(CHIP_POWER_W)).collect();
        assert_eq!(powers, vec![7.0, 8.0, 9.0, 10.0]);
    }

    #[test]
    fn unwritten_cells_are_nan() {
        let mut r = SeriesRecorder::new(2);
        r.ensure_shape(1, 2, 2);
        let mut row = r.push_row(0);
        row.task(0, 0.5, 0.4, 30.0, 1.0);
        // Task 1 untouched → NaN; core supplies untouched → NaN.
        let row = r.row(r.row_indices().next().unwrap());
        assert!(row.f(row.shape.task(1, TASK_SHARE)).is_nan());
        assert!(row.f(row.shape.core(0, CORE_SUPPLY)).is_nan());
        assert_eq!(row.f(row.shape.task(0, TASK_SHARE)), 0.5);
        assert_eq!(row.u(SENSOR_FALLBACKS), 0);
    }

    #[test]
    fn ensure_shape_only_grows() {
        let mut r = SeriesRecorder::new(2);
        r.ensure_shape(2, 4, 8);
        r.ensure_shape(1, 2, 3); // shrink: no-op
        assert_eq!(r.shape(), (2, 4, 8));
    }

    /// Every cell of row `q` of a `shape` population, written through the
    /// setters: distinct per row and per cell, so a misplaced move shows.
    fn write_row(r: &mut SeriesRecorder, q: u64, shape: (usize, usize, usize)) {
        let v = |k: usize| q as f64 * 1000.0 + k as f64;
        let mut phases = [0u64; Phase::COUNT];
        for (p, ns) in phases.iter_mut().enumerate() {
            *ns = q * 100 + p as u64;
        }
        let mut sample = PolicySample::new();
        sample.reset(shape.1);
        sample.allowance = v(1);
        sample.money_supply = v(2);
        for c in 0..shape.1 {
            sample.set_core_price(c, v(300 + c));
        }
        let mut row = r.push_row(q * 1000);
        row.chip(v(3), v(4), v(5))
            .degradation(q, q + 1, q + 2, q + 3)
            .phases(&phases)
            .policy(&sample)
            .obs_stream(v(6), v(7), v(8));
        for c in 0..shape.0 {
            row.cluster(c, v(100 + c), v(120 + c), v(140 + c), v(160 + c));
        }
        for c in 0..shape.1 {
            row.core_supply(c, v(200 + c));
        }
        for t in 0..shape.2 {
            row.task(t, v(400 + t), v(420 + t), v(440 + t), v(460 + t))
                .task_latency(t, v(480 + t), v(500 + t), v(520 + t), v(540 + t));
        }
    }

    /// Every cell of the row at ring index `i`, named by what it records,
    /// as bits, for the entities of `shape`.
    fn named_cells(
        r: &SeriesRecorder,
        i: usize,
        shape: (usize, usize, usize),
    ) -> Vec<(String, u64)> {
        let row = r.row(i);
        let s = row.shape;
        let mut out: Vec<(String, u64)> =
            (0..SCALARS).map(|k| (format!("s{k}"), row.u(k))).collect();
        for c in 0..shape.0 {
            for f in 0..CLUSTER_CELLS {
                out.push((format!("cl{c}.{f}"), row.u(s.cluster(c, f))));
            }
        }
        for c in 0..shape.1 {
            for f in 0..CORE_CELLS {
                out.push((format!("core{c}.{f}"), row.u(s.core(c, f))));
            }
        }
        for t in 0..shape.2 {
            for f in 0..TASK_CELLS {
                out.push((format!("task{t}.{f}"), row.u(s.task(t, f))));
            }
        }
        out
    }

    /// Growing each group, or all three, after the ring has wrapped: every
    /// held row keeps every value, and only the new entity cells read NaN.
    #[test]
    fn growth_after_wrap_keeps_held_rows_and_reads_nan_in_new_cells() {
        let from = (2, 3, 2);
        for to in [(4, 3, 2), (2, 6, 2), (2, 3, 5), (3, 4, 3), (5, 9, 7)] {
            let mut r = SeriesRecorder::new(5);
            r.ensure_shape(from.0, from.1, from.2);
            for q in 0..13 {
                write_row(&mut r, q, from);
            }
            assert!(r.dropped() > 0, "the ring wrapped");
            let before: Vec<_> = r.row_indices().map(|i| named_cells(&r, i, from)).collect();
            r.ensure_shape(to.0, to.1, to.2);
            assert_eq!(r.shape(), to);
            let after: Vec<_> = r.row_indices().map(|i| named_cells(&r, i, from)).collect();
            assert_eq!(before, after, "held rows moved intact to {to:?}");
            let s = r.row_shape();
            for i in r.row_indices() {
                let row = r.row(i);
                let fresh = (from.0..to.0)
                    .flat_map(|c| (0..CLUSTER_CELLS).map(move |f| s.cluster(c, f)))
                    .chain((from.1..to.1).flat_map(|c| (0..CORE_CELLS).map(move |f| s.core(c, f))))
                    .chain((from.2..to.2).flat_map(|t| (0..TASK_CELLS).map(move |f| s.task(t, f))));
                for k in fresh {
                    assert!(row.f(k).is_nan(), "new cell {k} of row {i} is {}", row.f(k));
                }
            }
            // The slab grew to exactly the new ring, never to a second copy.
            assert_eq!(r.cells.len(), 5 * s.width());
            assert_eq!(r.cells.capacity(), 5 * s.width());
            // Rows written after the growth fill the new cells.
            write_row(&mut r, 13, to);
            let last = r.row_indices().last().unwrap();
            assert_eq!(
                r.row(last).f(s.task(to.2 - 1, TASK_SHED)),
                13.0 * 1000.0 + (540 + to.2 - 1) as f64
            );
        }
    }

    /// Growth before the ring fills moves only the rows it holds, and the
    /// ring then wraps under the new width.
    #[test]
    fn growth_before_the_ring_fills_then_wraps() {
        let (from, to) = ((1, 2, 1), (2, 2, 3));
        let mut r = SeriesRecorder::new(6);
        r.ensure_shape(from.0, from.1, from.2);
        for q in 0..3 {
            write_row(&mut r, q, from);
        }
        let before: Vec<_> = r.row_indices().map(|i| named_cells(&r, i, from)).collect();
        r.ensure_shape(to.0, to.1, to.2);
        let after: Vec<_> = r.row_indices().map(|i| named_cells(&r, i, from)).collect();
        assert_eq!(before, after);
        for q in 3..10 {
            write_row(&mut r, q, to);
        }
        let times: Vec<u64> = r.row_indices().map(|i| r.time_us(i)).collect();
        assert_eq!(times, (4..10).map(|q| q * 1000).collect::<Vec<_>>());
    }

    #[test]
    fn rows_since_splits_at_the_wrap() {
        let mut r = SeriesRecorder::new(4);
        for q in 0..6u64 {
            r.push_row(q);
        }
        let w = r.row_shape().width();
        let (a, b) = r.rows_since(3);
        // Absolute rows 3 (ring index 3), then 4 and 5 (ring indices 0, 1).
        assert_eq!((a.len(), b.len()), (w, 2 * w));
        assert_eq!((a[T_US], b[T_US], b[w + T_US]), (3, 4, 5));
        let (a, b) = r.rows_since(6);
        assert!(a.is_empty() && b.is_empty());
    }

    #[test]
    fn policy_sample_roundtrip() {
        let mut s = PolicySample::new();
        assert!(s.allowance.is_nan());
        s.reset(3);
        s.allowance = 12.0;
        s.set_core_price(1, 0.7);
        s.set_core_price(9, 0.9); // out of range: ignored
        assert_eq!(s.core_price(1), 0.7);
        assert!(s.core_price(0).is_nan());
        assert!(s.core_price(9).is_nan());
    }
}
