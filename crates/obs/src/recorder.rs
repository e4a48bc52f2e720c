//! The per-quantum time-series recorder.
//!
//! Columnar storage in a ring: every column is a `Vec` preallocated to the
//! ring capacity at construction (scalars) or at first sight of the entity
//! population (per-cluster / per-core / per-task columns), after which a
//! row write is pure indexed stores — no allocation, no branching beyond
//! the ring modulo. When the ring wraps, the oldest rows are overwritten
//! and counted in [`SeriesRecorder::dropped`], never silently.
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

/// One scalar column: a ring of `f64` sized to capacity at construction.
type Col = Vec<f64>;

/// The columnar ring recorder. See the module docs for the layout.
#[derive(Debug, Clone)]
pub struct SeriesRecorder {
    cap: usize,
    /// Rows ever written (the ring index is `total % cap`).
    total: u64,
    n_clusters: usize,
    n_cores: usize,
    n_tasks: usize,

    // Scalar columns (preallocated to `cap` in `new`).
    pub(crate) t_us: Vec<u64>,
    pub(crate) chip_power_w: Col,
    pub(crate) tdp_headroom_w: Col,
    pub(crate) hottest_c: Col,
    pub(crate) allowance: Col,
    pub(crate) money_supply: Col,
    pub(crate) sensor_fallbacks: Vec<u64>,
    pub(crate) dvfs_retries: Vec<u64>,
    pub(crate) migration_retries: Vec<u64>,
    pub(crate) tasks_orphaned: Vec<u64>,
    // Observability self-metrics: the recorder/stream watching itself, so
    // telemetry loss is itself telemetry (ring wrap, stream backlog).
    pub(crate) obs_dropped_rows: Vec<u64>,
    pub(crate) obs_stream_rows: Col,
    pub(crate) obs_stream_lost: Col,
    pub(crate) obs_stream_flushes: Col,
    pub(crate) obs_alerts_firing: Vec<u64>,
    /// Per-phase wall ns spent on this quantum, indexed `[phase][row]`.
    pub(crate) phase_ns: Vec<Vec<u64>>,

    // Entity columns, indexed `[entity][row]`; allocated by `ensure_shape`
    // when the population is first seen (setup), then written in place.
    pub(crate) cluster_freq_mhz: Vec<Col>,
    pub(crate) cluster_volt_mv: Vec<Col>,
    pub(crate) cluster_power_w: Vec<Col>,
    pub(crate) cluster_temp_c: Vec<Col>,
    pub(crate) core_supply: Vec<Col>,
    pub(crate) core_price: Vec<Col>,
    pub(crate) task_share: Vec<Col>,
    pub(crate) task_granted: Vec<Col>,
    pub(crate) task_hr: Vec<Col>,
    pub(crate) task_hr_norm: Vec<Col>,
    pub(crate) task_queue: Vec<Col>,
    pub(crate) task_p99_ms: Vec<Col>,
    pub(crate) task_slo_ms: Vec<Col>,
    pub(crate) task_shed: Vec<Col>,
}

impl SeriesRecorder {
    /// A recorder holding the most recent `capacity` quanta.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> SeriesRecorder {
        assert!(capacity > 0, "recorder capacity must be positive");
        SeriesRecorder {
            cap: capacity,
            total: 0,
            n_clusters: 0,
            n_cores: 0,
            n_tasks: 0,
            t_us: vec![0; capacity],
            chip_power_w: vec![f64::NAN; capacity],
            tdp_headroom_w: vec![f64::NAN; capacity],
            hottest_c: vec![f64::NAN; capacity],
            allowance: vec![f64::NAN; capacity],
            money_supply: vec![f64::NAN; capacity],
            sensor_fallbacks: vec![0; capacity],
            dvfs_retries: vec![0; capacity],
            migration_retries: vec![0; capacity],
            tasks_orphaned: vec![0; capacity],
            obs_dropped_rows: vec![0; capacity],
            obs_stream_rows: vec![f64::NAN; capacity],
            obs_stream_lost: vec![f64::NAN; capacity],
            obs_stream_flushes: vec![f64::NAN; capacity],
            obs_alerts_firing: vec![0; capacity],
            phase_ns: (0..Phase::COUNT).map(|_| vec![0; capacity]).collect(),
            cluster_freq_mhz: Vec::new(),
            cluster_volt_mv: Vec::new(),
            cluster_power_w: Vec::new(),
            cluster_temp_c: Vec::new(),
            core_supply: Vec::new(),
            core_price: Vec::new(),
            task_share: Vec::new(),
            task_granted: Vec::new(),
            task_hr: Vec::new(),
            task_hr_norm: Vec::new(),
            task_queue: Vec::new(),
            task_p99_ms: Vec::new(),
            task_slo_ms: Vec::new(),
            task_shed: Vec::new(),
        }
    }

    /// Grow the entity columns to cover `clusters`/`cores`/`tasks`. Only
    /// grows (a shrinking population keeps its columns, recording `NaN`),
    /// and only allocates when the population actually changed — task
    /// admission is setup, so steady state takes three equality checks.
    pub fn ensure_shape(&mut self, clusters: usize, cores: usize, tasks: usize) {
        fn grow(cols: &mut Vec<Col>, to: usize, cap: usize) {
            while cols.len() < to {
                cols.push(vec![f64::NAN; cap]);
            }
        }
        if clusters > self.n_clusters {
            grow(&mut self.cluster_freq_mhz, clusters, self.cap);
            grow(&mut self.cluster_volt_mv, clusters, self.cap);
            grow(&mut self.cluster_power_w, clusters, self.cap);
            grow(&mut self.cluster_temp_c, clusters, self.cap);
            self.n_clusters = clusters;
        }
        if cores > self.n_cores {
            grow(&mut self.core_supply, cores, self.cap);
            grow(&mut self.core_price, cores, self.cap);
            self.n_cores = cores;
        }
        if tasks > self.n_tasks {
            grow(&mut self.task_share, tasks, self.cap);
            grow(&mut self.task_granted, tasks, self.cap);
            grow(&mut self.task_hr, tasks, self.cap);
            grow(&mut self.task_hr_norm, tasks, self.cap);
            grow(&mut self.task_queue, tasks, self.cap);
            grow(&mut self.task_p99_ms, tasks, self.cap);
            grow(&mut self.task_slo_ms, tasks, self.cap);
            grow(&mut self.task_shed, tasks, self.cap);
            self.n_tasks = tasks;
        }
    }

    /// Open the next row at simulated time `t_us`, returning a writer over
    /// it. Entity cells default to `NaN` for this row; scalar cells are
    /// overwritten by the writer's setters.
    pub fn push_row(&mut self, t_us: u64) -> RowWriter<'_> {
        let i = (self.total % self.cap as u64) as usize;
        self.total += 1;
        self.t_us[i] = t_us;
        self.chip_power_w[i] = f64::NAN;
        self.tdp_headroom_w[i] = f64::NAN;
        self.hottest_c[i] = f64::NAN;
        self.allowance[i] = f64::NAN;
        self.money_supply[i] = f64::NAN;
        self.sensor_fallbacks[i] = 0;
        self.dvfs_retries[i] = 0;
        self.migration_retries[i] = 0;
        self.tasks_orphaned[i] = 0;
        self.obs_dropped_rows[i] = self.total.saturating_sub(self.cap as u64);
        self.obs_stream_rows[i] = f64::NAN;
        self.obs_stream_lost[i] = f64::NAN;
        self.obs_stream_flushes[i] = f64::NAN;
        self.obs_alerts_firing[i] = 0;
        for col in &mut self.phase_ns {
            col[i] = 0;
        }
        for cols in [
            &mut self.cluster_freq_mhz,
            &mut self.cluster_volt_mv,
            &mut self.cluster_power_w,
            &mut self.cluster_temp_c,
            &mut self.core_supply,
            &mut self.core_price,
            &mut self.task_share,
            &mut self.task_granted,
            &mut self.task_hr,
            &mut self.task_hr_norm,
            &mut self.task_queue,
            &mut self.task_p99_ms,
            &mut self.task_slo_ms,
            &mut self.task_shed,
        ] {
            for col in cols.iter_mut() {
                col[i] = f64::NAN;
            }
        }
        RowWriter { rec: self, i }
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

    /// Entity population covered by the columns `(clusters, cores, tasks)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.n_clusters, self.n_cores, self.n_tasks)
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
        self.t_us[i]
    }
}

/// Write handle over one just-opened recorder row.
#[derive(Debug)]
pub struct RowWriter<'a> {
    rec: &'a mut SeriesRecorder,
    i: usize,
}

impl RowWriter<'_> {
    /// Chip-level scalars: power, headroom to the TDP (`NaN` without a
    /// cap), hottest cluster temperature (`NaN` without a thermal model).
    pub fn chip(&mut self, power_w: f64, tdp_headroom_w: f64, hottest_c: f64) -> &mut Self {
        self.rec.chip_power_w[self.i] = power_w;
        self.rec.tdp_headroom_w[self.i] = tdp_headroom_w;
        self.rec.hottest_c[self.i] = hottest_c;
        self
    }

    /// Market scalars from the [`PolicySample`].
    pub fn policy(&mut self, sample: &PolicySample) -> &mut Self {
        self.rec.allowance[self.i] = sample.allowance;
        self.rec.money_supply[self.i] = sample.money_supply;
        for c in 0..self.rec.n_cores {
            self.rec.core_price[c][self.i] = sample.core_price(c);
        }
        self
    }

    /// Cumulative degradation counters (sensor fallbacks, DVFS retries,
    /// migration retries, orphaned tasks).
    pub fn degradation(&mut self, sf: u64, dr: u64, mr: u64, orphaned: u64) -> &mut Self {
        self.rec.sensor_fallbacks[self.i] = sf;
        self.rec.dvfs_retries[self.i] = dr;
        self.rec.migration_retries[self.i] = mr;
        self.rec.tasks_orphaned[self.i] = orphaned;
        self
    }

    /// This quantum's per-phase wall ns (from
    /// [`PhaseProfiler::take_last`](crate::profiler::PhaseProfiler::take_last)).
    pub fn phases(&mut self, last_ns: &[u64; Phase::COUNT]) -> &mut Self {
        for (p, &ns) in last_ns.iter().enumerate() {
            self.rec.phase_ns[p][self.i] = ns;
        }
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
        if c < self.rec.n_clusters {
            self.rec.cluster_freq_mhz[c][self.i] = freq_mhz;
            self.rec.cluster_volt_mv[c][self.i] = volt_mv;
            self.rec.cluster_power_w[c][self.i] = power_w;
            self.rec.cluster_temp_c[c][self.i] = temp_c;
        }
        self
    }

    /// One core's supply (PU available this quantum).
    pub fn core_supply(&mut self, c: usize, supply: f64) -> &mut Self {
        if c < self.rec.n_cores {
            self.rec.core_supply[c][self.i] = supply;
        }
        self
    }

    /// One task's share, granted PU (the IPS proxy — PU actually executed
    /// per quantum), heart rate, and normalized heart rate. Inactive slots
    /// simply skip the call and stay `NaN`.
    pub fn task(&mut self, t: usize, share: f64, granted: f64, hr: f64, hr_norm: f64) -> &mut Self {
        if t < self.rec.n_tasks {
            self.rec.task_share[t][self.i] = share;
            self.rec.task_granted[t][self.i] = granted;
            self.rec.task_hr[t][self.i] = hr;
            self.rec.task_hr_norm[t][self.i] = hr_norm;
        }
        self
    }

    /// The streaming exporter's own counters
    /// ([`StreamStats`](crate::stream::StreamStats)-shaped:
    /// rows flushed, rows lost to wrap, flushes), so stream backlog is
    /// itself on the record. Runs without a stream skip the call and the
    /// columns stay `NaN`; the ring-wrap count is written unconditionally
    /// by [`SeriesRecorder::push_row`].
    pub fn obs_stream(&mut self, rows: f64, lost: f64, flushes: f64) -> &mut Self {
        self.rec.obs_stream_rows[self.i] = rows;
        self.rec.obs_stream_lost[self.i] = lost;
        self.rec.obs_stream_flushes[self.i] = flushes;
        self
    }

    /// One open-loop task's request-queue state: queue depth, windowed p99
    /// latency, its SLO (both ms), and the cumulative shed count. Closed-loop
    /// tasks skip the call and the columns stay `NaN`.
    pub fn task_latency(
        &mut self,
        t: usize,
        queue: f64,
        p99_ms: f64,
        slo_ms: f64,
        shed: f64,
    ) -> &mut Self {
        if t < self.rec.n_tasks {
            self.rec.task_queue[t][self.i] = queue;
            self.rec.task_p99_ms[t][self.i] = p99_ms;
            self.rec.task_slo_ms[t][self.i] = slo_ms;
            self.rec.task_shed[t][self.i] = shed;
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
        let powers: Vec<f64> = r.row_indices().map(|i| r.chip_power_w[i]).collect();
        assert_eq!(powers, vec![7.0, 8.0, 9.0, 10.0]);
    }

    #[test]
    fn unwritten_cells_are_nan() {
        let mut r = SeriesRecorder::new(2);
        r.ensure_shape(1, 2, 2);
        let mut row = r.push_row(0);
        row.task(0, 0.5, 0.4, 30.0, 1.0);
        // Task 1 untouched → NaN; core supplies untouched → NaN.
        let i = r.row_indices().next().unwrap();
        assert!(r.task_share[1][i].is_nan());
        assert!(r.core_supply[0][i].is_nan());
        assert_eq!(r.task_share[0][i], 0.5);
    }

    #[test]
    fn ensure_shape_only_grows() {
        let mut r = SeriesRecorder::new(2);
        r.ensure_shape(2, 4, 8);
        r.ensure_shape(1, 2, 3); // shrink: no-op
        assert_eq!(r.shape(), (2, 4, 8));
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
