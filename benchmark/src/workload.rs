//! The four workloads, and one measured repetition ("rep") of each.
//!
//! A rep builds its workload from the seed, warms it up, then times a fixed
//! amount of simulated work. Untraced reps call each layer exactly as a
//! user would. A traced rep attaches the phase profiler through the public
//! telemetry API and records the benchmark's own spans around its calls
//! into the executor (one per quantum) or the fleet (one per epoch), so the
//! per-layer shares are measured against a wall clock the benchmark owns.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ppm_baselines::{HlConfig, HlManager, HpmConfig, HpmManager};
use ppm_core::{place_on_little, PpmConfig, PpmManager};
use ppm_fleet::scenario::{chip_peak, graded_chip, synthetic_fleet};
use ppm_fleet::{ChipSpec, Fleet, FleetExchange};
use ppm_obs::json::Json;
use ppm_obs::{Phase, StreamFormat, StreamStats, Telemetry, TelemetryStream};
use ppm_platform::units::{SimDuration, Watts};
use ppm_platform::{Chip, CoreId};
use ppm_sched::executor::FleetBid;
use ppm_sched::{AllocationPolicy, NullManager, PowerManager, Simulation, System};
use ppm_workload::{
    bursty_template, openloop_family, table6_sets, Benchmark, BenchmarkSpec, Input, Priority, Task,
    TaskId,
};
use rand::{Rng, SeedableRng, StdRng};

use crate::record::{num, quote};
use crate::stats::{median, peak_rss_mb, percentile_ns, Cal, Fnv, Interval, SliceClock};

/// The executor's quantum; every chip workload runs at it.
const QUANTUM: SimDuration = Simulation::<NullManager>::DEFAULT_QUANTUM;

/// Slices of equal simulated work a rep's timed horizon is cut into. Each
/// slice is scaled by the calibration kernels timed around it, and the
/// throughput is read from the fastest scaled slices, so interference from
/// other tenants of the host moves it little whether it is brief or lasts.
const SLICES: usize = 12;

/// Pieces the warm-up is cut into, so set-up, like the timed horizon, is
/// scaled part by part by the host's speed around each part.
const WARMUP_PARTS: u64 = 8;

/// Ring size of the telemetry a traced rep attaches to each chip.
const TRACE_RING: usize = 1024;

/// The Figure 6 power cap.
const TC2_TDP: Watts = Watts(4.0);

/// Tasks on the `chip_v64` chip.
const V64_TASKS: usize = 1024;

/// The PARSEC mix `chip_v64` draws its tasks from.
const V64_MIX: [(Benchmark, Input); 3] = [
    (Benchmark::Blackscholes, Input::Large),
    (Benchmark::Swaptions, Input::Large),
    (Benchmark::Bodytrack, Input::Large),
];

/// Ring and flush interval of the `serve_ol2_obs` ops plane: the ring
/// wraps many times over the timed horizon and the stream keeps every row,
/// flushing as often as `ppm-sim --stream` does.
const SERVE_RING: usize = 4096;
const SERVE_FLUSH_EVERY: usize = 64;

/// `fleet_64`: chips, per-chip topology and tasks, and the datacenter cap
/// (tight enough that trades bind).
const FLEET_CHIPS: usize = 64;
const FLEET_CAP: Watts = Watts(192.0);

/// The workloads, in the round-robin order reps interleave in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 6 grid on TC2.
    PaperTc2,
    /// One 512-core chip with 1024 closed-loop tasks.
    ChipV64,
    /// Bursty open-loop serving with the full ops plane attached.
    ServeOl2Obs,
    /// 64 chips trading one datacenter cap.
    Fleet64,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::PaperTc2,
        Workload::ChipV64,
        Workload::ServeOl2Obs,
        Workload::Fleet64,
    ];

    /// The name used on the command line and in records.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTc2 => "paper_tc2",
            Workload::ChipV64 => "chip_v64",
            Workload::ServeOl2Obs => "serve_ol2_obs",
            Workload::Fleet64 => "fleet_64",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads one rep runs on a host with `host_cores` cores: the fleet
    /// steps on at most two, and the serving workload's stream writer is a
    /// second thread beside the simulation.
    pub fn threads(self, host_cores: usize) -> usize {
        match self {
            Workload::ServeOl2Obs => 2,
            _ => self.stepping_threads(host_cores),
        }
    }

    /// Threads that step simulations: two for the fleet (capped at the
    /// host's cores), one otherwise.
    fn stepping_threads(self, host_cores: usize) -> usize {
        match self {
            Workload::Fleet64 => host_cores.clamp(1, 2),
            _ => 1,
        }
    }

    /// Warm-up, and the length of one timed slice, in ms of simulated time
    /// at scale 1 (for the fleet: per chip, whole 100 ms epochs). A rep
    /// times [`SLICES`] slices.
    fn horizon_ms(self) -> (u64, u64) {
        match self {
            // Per cell: the harness's 5 s metric warm-up, then 30 s.
            Workload::PaperTc2 => (5_000, 2_500),
            Workload::ChipV64 => (500, 100),
            // Past the alert engine's slow window; the timed horizon wraps
            // the 4096-row ring about 23 times.
            Workload::ServeOl2Obs => (20_000, 8_000),
            Workload::Fleet64 => (2_000, 1_000),
        }
    }
}

/// Cores this process may run on.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How one rep runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOpts {
    /// Drives the `ol2` arrival seed and `chip_v64`'s task draw.
    pub seed: u64,
    /// Multiplies every horizon (1 for measurement; tests run tiny reps).
    pub scale: f64,
    /// Attach the profiler and record outside spans.
    pub traced: bool,
    /// Where a traced rep writes its spans (`<dir>/<workload>.jsonl`).
    pub trace_out: Option<std::path::PathBuf>,
}

/// What one rep measured and produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Whether the profiler and spans were attached.
    pub traced: bool,
    /// Set-up, from process start to the first timed quantum, in parts:
    /// construction, then pieces of the warm-up.
    pub setup: Vec<Interval>,
    /// The timed slices.
    pub slices: Vec<Interval>,
    /// Simulated chip-seconds in each slice.
    pub slice_sim_s: f64,
    /// Peak resident set at the end of the rep, less the calibration
    /// buffers.
    pub peak_rss_mb: f64,
    /// Digest of the modelled outputs.
    pub digest: u64,
    /// Threads the rep ran on.
    pub threads: usize,
    /// Self-checks run.
    pub checks: u64,
    /// Names of the self-checks that failed.
    pub failures: Vec<String>,
    /// `model.*` outputs, plus the per-layer metrics of a traced rep.
    pub metrics: BTreeMap<String, f64>,
}

impl Rep {
    /// Simulated chip-seconds per reference second of each slice.
    pub fn slice_rates(&self) -> Vec<f64> {
        let rate = |i: &Interval| self.slice_sim_s / i.ref_s();
        self.slices.iter().map(rate).collect()
    }

    /// Median over the slices of simulated chip-seconds per wall second.
    pub fn wall_rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .slices
            .iter()
            .map(|i| self.slice_sim_s / i.wall_s)
            .collect();
        median(&rates)
    }

    /// Set-up wall seconds.
    pub fn setup_wall_s(&self) -> f64 {
        self.setup.iter().map(|i| i.wall_s).sum()
    }

    /// Set-up in reference seconds, each part scaled by the host's speed
    /// around it.
    pub fn setup_ref_s(&self) -> f64 {
        self.setup.iter().map(Interval::ref_s).sum()
    }

    /// Median over the slices of a kernel's mean time around them, in µs.
    pub fn cal_us(&self, kernel: fn(&Cal) -> f64) -> f64 {
        let cals: Vec<f64> = self
            .slices
            .iter()
            .map(|i| (kernel(&i.before) + kernel(&i.after)) / 2.0 * 1e6)
            .collect();
        median(&cals)
    }

    /// One line of JSON (non-finite numbers become `null`).
    pub fn to_json(&self) -> String {
        let failures: Vec<String> = self.failures.iter().map(|f| quote(f)).collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, &v)| format!("{}:{}", quote(k), num(v)))
            .collect();
        let interval = |i: &Interval| {
            let cals = [i.wall_s, i.before.l2, i.before.l3, i.after.l2, i.after.l3];
            let cals: Vec<String> = cals.into_iter().map(num).collect();
            format!("[{}]", cals.join(","))
        };
        let intervals = |list: &[Interval]| list.iter().map(interval).collect::<Vec<_>>().join(",");
        format!(
            "{{\"traced\":{},\"setup\":[{}],\"slices\":[{}],\"slice_sim_s\":{},\"peak_rss_mb\":{},\
             \"digest\":\"{:016x}\",\"threads\":{},\"checks\":{},\"failures\":[{}],\"metrics\":{{{}}}}}",
            self.traced,
            intervals(&self.setup),
            intervals(&self.slices),
            num(self.slice_sim_s),
            num(self.peak_rss_mb),
            self.digest,
            self.threads,
            self.checks,
            failures.join(","),
            metrics.join(",")
        )
    }

    /// Parse [`Rep::to_json`] output; `None` when a field is missing.
    /// `null` numbers read back as NaN.
    pub fn from_json(v: &Json) -> Option<Rep> {
        let number = |j: &Json| match j {
            Json::Null => Some(f64::NAN),
            j => j.as_num(),
        };
        let num = |k: &str| number(v.get(k)?);
        let interval = |j: &Json| match j.as_arr()? {
            [w, b2, b3, a2, a3] => Some(Interval {
                wall_s: number(w)?,
                before: Cal {
                    l2: number(b2)?,
                    l3: number(b3)?,
                },
                after: Cal {
                    l2: number(a2)?,
                    l3: number(a3)?,
                },
            }),
            _ => None,
        };
        let intervals = |k: &str| -> Option<Vec<Interval>> {
            v.get(k)?.as_arr()?.iter().map(interval).collect()
        };
        let metrics = match v.get("metrics")? {
            Json::Obj(m) => m
                .iter()
                .map(|(k, j)| (k.clone(), j.as_num().unwrap_or(f64::NAN)))
                .collect(),
            _ => return None,
        };
        Some(Rep {
            traced: matches!(v.get("traced")?, Json::Bool(true)),
            setup: intervals("setup")?,
            slices: intervals("slices")?,
            slice_sim_s: num("slice_sim_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            digest: u64::from_str_radix(v.get("digest")?.as_str()?, 16).ok()?,
            threads: num("threads")? as usize,
            checks: num("checks")? as u64,
            failures: v
                .get("failures")?
                .as_arr()?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            metrics,
        })
    }
}

/// Run one rep of `w`. `started` is when the process (or, in tests, the
/// rep) began, so set-up time includes construction.
pub fn run(w: Workload, opts: &RunOpts, started: Instant) -> Rep {
    let threads = w.stepping_threads(host_cores());
    let clock = SliceClock::start(started, SLICES, threads);
    let (warm_ms, slice_ms) = w.horizon_ms();
    if w == Workload::Fleet64 {
        let (warm, slice) = (epochs(warm_ms, opts.scale), epochs(slice_ms, opts.scale));
        return run_fleet(opts, clock, threads, warm, slice);
    }
    let (warm, slice) = (quanta(warm_ms, opts.scale), quanta(slice_ms, opts.scale));
    // Metrics start with the first timed quantum.
    let warmup = QUANTUM * warm;
    let (cells, stream_bytes) = match w {
        Workload::PaperTc2 => (paper_tc2(warmup, opts.traced), None),
        Workload::ChipV64 => (vec![chip_v64(opts.seed, warmup, opts.traced)], None),
        _ => {
            let (cell, bytes) = serve_ol2_obs(opts.seed, warmup, opts.traced);
            (vec![cell], Some(bytes))
        }
    };
    run_cells(w, cells, stream_bytes, warm, slice, opts, clock)
}

/// `ms` of simulated time scaled, as a whole number of quanta (at least 1).
fn quanta(ms: u64, scale: f64) -> u64 {
    let q = QUANTUM.as_micros() as f64 / 1000.0;
    ((ms as f64 * scale / q).round() as u64).max(1)
}

/// `ms` of simulated time scaled, as a whole number of fleet epochs (at
/// least 1).
fn epochs(ms: u64, scale: f64) -> u64 {
    let epoch = Fleet::<PpmManager>::DEFAULT_EPOCH.as_micros() as f64 / 1000.0;
    ((ms as f64 * scale / epoch).round() as u64).max(1)
}

/// `warm` steps cut into at most [`WARMUP_PARTS`] pieces of equal length
/// (the last one shorter).
fn warmup_pieces(warm: u64) -> impl Iterator<Item = u64> {
    let piece = warm.div_ceil(WARMUP_PARTS).max(1);
    (0..warm)
        .step_by(piece as usize)
        .map(move |done| piece.min(warm - done))
}

/// A chip simulation seen through the calls the benchmark makes, whatever
/// its manager.
trait Cell {
    fn run_for(&mut self, d: SimDuration);
    fn system(&self) -> &System;
    fn telemetry(&self) -> Option<&Telemetry>;
    fn finish_stream(&mut self) -> Option<io::Result<StreamStats>>;
}

impl<M: PowerManager> Cell for Simulation<M> {
    fn run_for(&mut self, d: SimDuration) {
        Simulation::run_for(self, d);
    }
    fn system(&self) -> &System {
        Simulation::system(self)
    }
    fn telemetry(&self) -> Option<&Telemetry> {
        Simulation::telemetry(self)
    }
    fn finish_stream(&mut self) -> Option<io::Result<StreamStats>> {
        Simulation::finish_stream(self)
    }
}

/// Box a simulation, attaching the traced rep's profiler when asked.
fn cell<M: PowerManager + 'static>(sim: Simulation<M>, traced: bool) -> Box<dyn Cell> {
    if traced {
        Box::new(sim.with_telemetry(Telemetry::new(TRACE_RING).with_profiling()))
    } else {
        Box::new(sim)
    }
}

/// The Figure 6 grid: every Table 6 set under PPM, HPM and HL on TC2 at a
/// 4 W TDP, tasks starting on LITTLE — the harness's comparative setup.
fn paper_tc2(warmup: SimDuration, traced: bool) -> Vec<Box<dyn Cell>> {
    let mut cells = Vec::new();
    for set in table6_sets() {
        let tc2 = |policy| {
            let mut sys = System::new(Chip::tc2(), policy);
            for task in set.spawn(0, Priority::NORMAL) {
                sys.add_task(task, CoreId(0));
            }
            place_on_little(&mut sys);
            sys.set_tdp_accounting(TC2_TDP);
            sys
        };
        let ppm = PpmManager::new(PpmConfig::tc2_with_tdp(TC2_TDP));
        let hpm = HpmManager::new(HpmConfig::new().with_tdp(TC2_TDP));
        let hl = HlManager::new(HlConfig::new().with_tdp(TC2_TDP));
        cells.extend([
            cell(
                Simulation::new(tc2(AllocationPolicy::Market), ppm).with_warmup(warmup),
                traced,
            ),
            cell(
                Simulation::new(tc2(AllocationPolicy::Market), hpm).with_warmup(warmup),
                traced,
            ),
            cell(
                Simulation::new(tc2(AllocationPolicy::FairWeights), hl).with_warmup(warmup),
                traced,
            ),
        ]);
    }
    cells
}

/// One V64/C8 chip (512 cores) with 1024 PARSEC tasks whose benchmarks and
/// priorities are drawn from the seed, placed on LITTLE, under PPM at half
/// the chip's peak power.
fn chip_v64(seed: u64, warmup: SimDuration, traced: bool) -> Box<dyn Cell> {
    let chip = graded_chip(64, 8, 1.0);
    let tdp = chip_peak(&chip) * 0.5;
    let mut sys = System::new(chip, AllocationPolicy::Market);
    let mut rng = StdRng::seed_from_u64(seed);
    for k in 0..V64_TASKS {
        let (b, input) = V64_MIX[rng.gen_range(0..V64_MIX.len())];
        let priority = Priority(rng.gen_range(1u32..=3));
        let spec = BenchmarkSpec::of(b, input).expect("the mix names existing variants");
        sys.add_task(Task::new(TaskId(k), spec, priority), CoreId(0));
    }
    place_on_little(&mut sys);
    sys.set_tdp_accounting(tdp);
    let sim =
        Simulation::new(sys, PpmManager::new(PpmConfig::tc2_with_tdp(tdp))).with_warmup(warmup);
    cell(sim, traced)
}

/// A `Write` sink that keeps only a byte count, so streaming costs the
/// serialization and the writer thread but no disk.
struct CountingSink(Arc<AtomicU64>);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The seeded `ol2` bursty family on TC2 at 4 W under PPM, with the ops
/// plane attached: ring recorder, 1 s windowed aggregation, the default
/// burn-rate alerts, and JSONL streaming into a counting sink whose byte
/// count is returned beside the cell.
fn serve_ol2_obs(seed: u64, warmup: SimDuration, traced: bool) -> (Box<dyn Cell>, Arc<AtomicU64>) {
    let set = openloop_family("ol2", bursty_template(), seed);
    let mut sys = System::new(Chip::tc2(), AllocationPolicy::Market);
    for task in set.spawn(0, Priority::NORMAL) {
        sys.add_task(task, CoreId(0));
    }
    place_on_little(&mut sys);
    sys.set_tdp_accounting(TC2_TDP);
    let mut tel = Telemetry::new(SERVE_RING)
        .with_aggregation(ppm_obs::DEFAULT_AGG_WINDOW_US)
        .with_alerts();
    if traced {
        tel = tel.with_profiling();
    }
    let bytes = Arc::new(AtomicU64::new(0));
    let sink = CountingSink(Arc::clone(&bytes));
    let stream = TelemetryStream::with_writer(sink, StreamFormat::Jsonl, SERVE_FLUSH_EVERY);
    let sim = Simulation::new(sys, PpmManager::new(PpmConfig::tc2_with_tdp(TC2_TDP)))
        .with_warmup(warmup)
        .with_telemetry(tel)
        .with_stream(stream);
    (Box::new(sim), bytes)
}

/// Self-checks a rep runs on its own outputs.
#[derive(Debug, Default)]
struct Checks {
    run: u64,
    failed: Vec<String>,
}

impl Checks {
    fn check(&mut self, name: &str, ok: bool) {
        self.run += 1;
        if !ok {
            self.failed.push(name.to_string());
        }
    }
}

/// The modelled outputs of a run — what a user of the reproduction reads —
/// folded into the digest and the `model.*` metrics.
#[derive(Debug, Default)]
struct Model {
    digest: Fnv,
    chips: f64,
    any_miss: f64,
    power_w: f64,
    above_tdp: f64,
    tasks: f64,
    task_miss: f64,
    worst_p99_over_slo: f64,
    served: u64,
    shed: u64,
    queued: u64,
}

impl Model {
    /// Fold one chip's end-of-run metrics and task state.
    fn chip(&mut self, sys: &System) {
        let m = sys.metrics();
        let total = m.total_time().as_secs_f64();
        let above = if total > 0.0 {
            m.time_above_tdp.as_secs_f64() / total
        } else {
            0.0
        };
        let power = m.average_power().value();
        let d = &mut self.digest;
        for v in [
            m.any_miss_fraction(),
            power,
            above,
            m.chip_energy.energy().value(),
        ] {
            d.f64(v);
        }
        for v in [m.migrations_intra, m.migrations_inter, m.vf_transitions] {
            d.u64(v);
        }
        self.chips += 1.0;
        self.any_miss += m.any_miss_fraction();
        self.power_w += power;
        self.above_tdp += above;
        for id in m.tasks() {
            let miss = m.task(id).map_or(0.0, |t| t.miss_fraction());
            d.u64(id.0 as u64);
            d.f64(miss);
            self.tasks += 1.0;
            self.task_miss += miss;
        }
        for id in sys.task_iter() {
            let task = sys.task(id);
            d.f64(task.total_heartbeats());
            if let (Some(ol), Some(snap)) = (task.open_loop(), task.open_loop_snap()) {
                let queued = ol.queue_depth() as u64;
                d.u64(ol.served());
                d.u64(snap.shed);
                d.u64(queued);
                d.f64(snap.p99_ms);
                self.served += ol.served();
                self.shed += snap.shed;
                self.queued += queued;
                if snap.slo_ms > 0.0 {
                    self.worst_p99_over_slo =
                        self.worst_p99_over_slo.max(snap.p99_ms / snap.slo_ms);
                }
            }
        }
    }

    /// The `model.*` metrics: per-task and per-chip means, the worst tail,
    /// and the shed share of all requests offered.
    fn metrics(&self, out: &mut BTreeMap<String, f64>) {
        let mean = |sum: f64, n: f64| if n > 0.0 { sum / n } else { 0.0 };
        let offered = (self.served + self.shed + self.queued) as f64;
        for (k, v) in [
            ("model.miss_frac", mean(self.task_miss, self.tasks)),
            ("model.any_miss_frac", mean(self.any_miss, self.chips)),
            ("model.avg_power_w", mean(self.power_w, self.chips)),
            ("model.above_tdp_frac", mean(self.above_tdp, self.chips)),
            ("model.p99_over_slo", self.worst_p99_over_slo),
            ("model.shed_frac", mean(self.shed as f64, offered)),
        ] {
            out.insert(k.to_string(), v);
        }
    }
}

/// Migrations performed and requests served so far, summed over `systems`
/// (the per-sim-second rates difference these across the timed horizon).
fn counters<'a>(systems: impl Iterator<Item = &'a System>) -> (u64, u64) {
    let (mut migrations, mut served) = (0, 0);
    for sys in systems {
        let m = sys.metrics();
        migrations += m.migrations_intra + m.migrations_inter;
        served += sys
            .task_iter()
            .filter_map(|id| sys.task(id).open_loop().map(|ol| ol.served()))
            .sum::<u64>();
    }
    (migrations, served)
}

/// Profiler totals per phase, indexed like [`Phase::ALL`].
#[derive(Debug, Clone, Copy, Default)]
struct PhaseTotals {
    ns: [u64; Phase::COUNT],
    count: [u64; Phase::COUNT],
}

impl PhaseTotals {
    /// Sum the profilers of every telemetry sink that is attached.
    fn of<'a>(sinks: impl Iterator<Item = Option<&'a Telemetry>>) -> PhaseTotals {
        let mut t = PhaseTotals::default();
        for tel in sinks.flatten() {
            for (i, &phase) in Phase::ALL.iter().enumerate() {
                let h = tel.profiler.hist(phase);
                t.ns[i] += h.sum_ns();
                t.count[i] += h.count();
            }
        }
        t
    }

    /// What was recorded after `start`.
    fn since(mut self, start: PhaseTotals) -> PhaseTotals {
        for i in 0..Phase::COUNT {
            self.ns[i] -= start.ns[i];
            self.count[i] -= start.count[i];
        }
        self
    }
}

/// The crate a profiler phase's time is spent in. The plan's sub-phases are
/// the market and LBT of ppm-core; the plan call as a whole is the manager
/// (ppm-core for PPM, ppm-baselines for HPM and HL); the physics step is
/// ppm-platform (with the workload's request queues); the rest is the
/// executor in ppm-sched. Matching on names rather than variants keeps
/// this compiling when a phase is deleted.
fn layer_of(phase: Phase) -> &'static str {
    if phase.is_plan_subphase() {
        return "core";
    }
    match phase.name() {
        "plan" => "manager",
        "step" => "platform",
        _ => "sched",
    }
}

/// Rows a span file holds at most; longer runs are decimated by stride.
const MAX_SPAN_ROWS: usize = 100_000;

/// What a benchmark-side span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpanKind {
    /// One `Simulation::run_for(quantum)`.
    Quantum,
    /// One fleet epoch: the step and the shadow trade.
    Epoch,
    /// One `Fleet::run_for(epoch)`, child of an epoch.
    FleetStep,
    /// One `FleetExchange::clear` on the shadow exchange, child of an epoch.
    Trade,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::Quantum => "quantum",
            SpanKind::Epoch => "epoch",
            SpanKind::FleetStep => "fleet.run_for",
            SpanKind::Trade => "fleet.trade",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    kind: SpanKind,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Spans the benchmark records around its calls into the layers, kept in
/// memory allocated before the timed horizon starts. Span ids are 1-based;
/// id 0 is the timed horizon itself.
struct Spans {
    origin: Instant,
    rows: Vec<Span>,
}

impl Spans {
    /// Room for `n` spans; the timed horizon starts now.
    fn with_capacity(n: usize) -> Spans {
        let rows = Vec::with_capacity(n);
        Spans {
            origin: Instant::now(),
            rows,
        }
    }

    fn push(&mut self, kind: SpanKind, parent: u32, start: Instant, end: Instant) -> u32 {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.rows.push(Span {
            kind,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        self.rows.len() as u32
    }

    fn durations(&self, kind: SpanKind) -> Vec<u64> {
        self.rows
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// One JSON object per line: the timed horizon, then every span
    /// (every `k`-th when there are more than [`MAX_SPAN_ROWS`]).
    fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let end_ns = self.rows.iter().map(|s| s.end_ns).max().unwrap_or(0);
        writeln!(
            out,
            "{{\"id\":0,\"name\":\"timed\",\"parent\":null,\"start_ns\":0,\"end_ns\":{end_ns}}}"
        )?;
        let stride = self.rows.len().div_ceil(MAX_SPAN_ROWS).max(1);
        for (i, s) in self.rows.iter().enumerate().step_by(stride) {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.kind.name(),
                s.parent,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What a traced rep recorded over its timed horizon.
struct Trace {
    wall_ns: f64,
    /// Threads the chips' phase time is spread over.
    threads: f64,
    phases: PhaseTotals,
    spans: Spans,
    /// The spans around single calls into the executor or the fleet.
    outside: SpanKind,
    /// The spans that tile the timed horizon.
    tiles: SpanKind,
    migrations: u64,
    requests: u64,
}

/// Stream totals of the serving workload, reported by every rep that has
/// a stream.
#[derive(Debug, Clone, Copy, Default)]
struct StreamTotals {
    stats: StreamStats,
    bytes: u64,
    dropped_rows: u64,
}

/// The per-layer metrics of a traced rep (all but `trace.overhead`, which
/// needs the untraced reps too). Phase shares are of the timed wall time
/// times the stepping threads; rates are per simulated chip-second.
///
/// Every metric with a time unit is one every workload exercises, so none
/// reads a constant zero: per-call means skip the auditor (fleet only) and
/// the shard pool (never attached), and the outside-span percentiles cover
/// a quantum on chip workloads and an epoch on the fleet.
fn layer_metrics(t: &Trace, sim_s: f64, stream: StreamTotals, out: &mut BTreeMap<String, f64>) {
    let budget = t.wall_ns * t.threads;
    let (mut top, mut sub, mut plan, mut rounds) = (0.0, 0.0, 0.0, 0u64);
    for (i, &phase) in Phase::ALL.iter().enumerate() {
        let ns = t.phases.ns[i] as f64;
        let n = t.phases.count[i];
        let key = format!("{}.{}", layer_of(phase), phase.name());
        out.insert(format!("{key}.share"), ns / budget);
        if !matches!(phase.name(), "audit" | "market_shard") {
            out.insert(
                format!("{key}.mean_ns"),
                if n > 0 { ns / n as f64 } else { 0.0 },
            );
        }
        if phase.is_plan_subphase() {
            sub += ns;
            // Every market round records each of its stages once; LBT runs
            // on its own cadence.
            if phase.name() != "lbt" {
                rounds = rounds.max(n);
            }
        } else {
            top += ns;
        }
        if phase.name() == "plan" {
            plan = ns;
        }
    }
    let outside = t.spans.durations(t.outside);
    let outside_ns = outside.iter().sum::<u64>() as f64;
    let tiles_ns = t.spans.durations(t.tiles).iter().sum::<u64>() as f64;
    let trade_ns = t.spans.durations(SpanKind::Trade).iter().sum::<u64>() as f64;
    for (k, v) in [
        ("core.plan_other.share", (plan - sub).max(0.0) / budget),
        ("core.rounds_per_sim_s", rounds as f64 / sim_s),
        ("core.migrations_per_sim_s", t.migrations as f64 / sim_s),
        ("workload.requests_per_sim_s", t.requests as f64 / sim_s),
        ("obs.unattributed.share", 1.0 - top / budget),
        ("obs.stream.rows", stream.stats.rows as f64),
        ("obs.stream.bytes", stream.bytes as f64),
        ("obs.stream.lost", stream.stats.lost as f64),
        ("obs.stream.flushes", stream.stats.flushes as f64),
        ("obs.dropped_rows", stream.dropped_rows as f64),
        ("outside.call.p50_ns", percentile_ns(&outside, 50.0) as f64),
        ("outside.call.p99_ns", percentile_ns(&outside, 99.0) as f64),
        // The trade is serial: its share is of the wall time alone.
        ("fleet.trade.share", trade_ns / t.wall_ns),
        ("trace.coverage", top / (t.threads * outside_ns)),
        ("trace.outside_coverage", tiles_ns / t.wall_ns),
    ] {
        out.insert(k.to_string(), v);
    }
}

/// Everything a rep measured, before it is packed into a [`Rep`].
struct Measured {
    /// Simulated chip-seconds in one timed slice.
    slice_sim_s: f64,
    clock: SliceClock,
    model: Model,
    checks: Checks,
    trace: Option<Trace>,
    stream: StreamTotals,
}

/// Pack a rep: model metrics, per-layer metrics when traced, the span file
/// when asked for, the output checks, and the peak RSS.
fn finish(w: Workload, opts: &RunOpts, m: Measured) -> Rep {
    let mut checks = m.checks;
    let mut metrics = BTreeMap::new();
    m.model.metrics(&mut metrics);
    if let Some(t) = &m.trace {
        let sim_s = m.slice_sim_s * m.clock.slices.len() as f64;
        layer_metrics(t, sim_s, m.stream, &mut metrics);
        if let Some(dir) = &opts.trace_out {
            let path = dir.join(format!("{}.jsonl", w.name()));
            let written = std::fs::create_dir_all(dir).and_then(|()| t.spans.write_jsonl(&path));
            checks.check("span file written", written.is_ok());
        }
    }
    let fractions = [
        "model.miss_frac",
        "model.any_miss_frac",
        "model.above_tdp_frac",
        "model.shed_frac",
    ];
    checks.check(
        "modelled fractions lie in [0, 1] and average power is positive",
        fractions.iter().all(|k| (0.0..=1.0).contains(&metrics[*k]))
            && metrics["model.avg_power_w"] > 0.0,
    );
    let peak_rss_mb = peak_rss_mb() - m.clock.resident_mb();
    let clock = m.clock;
    let timings_finite = clock
        .slices
        .iter()
        .chain(&clock.setup)
        .flat_map(|i| [i.wall_s, i.before.l2, i.before.l3, i.after.l2, i.after.l3])
        .all(f64::is_finite);
    checks.check(
        "every metric is finite",
        metrics.values().all(|v| v.is_finite()) && peak_rss_mb.is_finite() && timings_finite,
    );
    Rep {
        traced: opts.traced,
        setup: clock.setup,
        slices: clock.slices,
        slice_sim_s: m.slice_sim_s,
        peak_rss_mb,
        digest: m.model.digest.finish(),
        threads: w.threads(host_cores()),
        checks: checks.run,
        failures: checks.failed,
        metrics,
    }
}

/// Run chip simulations side by side: warm every cell up, then time
/// [`SLICES`] slices, each advancing every cell by `slice` quanta.
fn run_cells(
    w: Workload,
    mut cells: Vec<Box<dyn Cell>>,
    stream_bytes: Option<Arc<AtomicU64>>,
    warm: u64,
    slice: u64,
    opts: &RunOpts,
    mut clock: SliceClock,
) -> Rep {
    clock.setup_part();
    for piece in warmup_pieces(warm) {
        for c in &mut cells {
            c.run_for(QUANTUM * piece);
        }
        clock.setup_part();
    }
    let phases_at_start = PhaseTotals::of(cells.iter().map(|c| c.telemetry()));
    let counters_at_start = counters(cells.iter().map(|c| c.system()));
    let quanta_timed = cells.len() * SLICES * slice as usize;
    let mut spans = opts.traced.then(|| Spans::with_capacity(quanta_timed));
    for _ in 0..SLICES {
        clock.slice(|| {
            for c in &mut cells {
                match &mut spans {
                    Some(spans) => {
                        // One clock read per quantum boundary: each span
                        // ends where the next begins, so they tile the slice.
                        let mut a = Instant::now();
                        for _ in 0..slice {
                            c.run_for(QUANTUM);
                            let b = Instant::now();
                            spans.push(SpanKind::Quantum, 0, a, b);
                            a = b;
                        }
                    }
                    None => c.run_for(QUANTUM * slice),
                }
            }
        });
    }

    let mut checks = Checks::default();
    let mut stream = StreamTotals::default();
    for c in &mut cells {
        if let Some(result) = c.finish_stream() {
            let recorder = c.telemetry().map(|t| &t.recorder);
            checks.check("stream writer finished cleanly", result.is_ok());
            stream.stats = result.unwrap_or_default();
            stream.dropped_rows = recorder.map_or(0, |r| r.dropped());
            checks.check("stream lost no rows", stream.stats.lost == 0);
            checks.check(
                "stream rows equal recorded quanta",
                Some(stream.stats.rows) == recorder.map(|r| r.total_rows()),
            );
        }
    }
    stream.bytes = stream_bytes.map_or(0, |b| b.load(Ordering::Relaxed));
    let mut model = Model::default();
    for c in &cells {
        model.chip(c.system());
    }
    let (migrations, requests) = counters(cells.iter().map(|c| c.system()));
    let trace = spans.map(|spans| Trace {
        wall_ns: clock.slices.iter().map(|i| i.wall_s).sum::<f64>() * 1e9,
        threads: 1.0,
        phases: PhaseTotals::of(cells.iter().map(|c| c.telemetry())).since(phases_at_start),
        spans,
        outside: SpanKind::Quantum,
        tiles: SpanKind::Quantum,
        migrations: migrations - counters_at_start.0,
        requests: requests - counters_at_start.1,
    });
    finish(
        w,
        opts,
        Measured {
            slice_sim_s: (cells.len() as u64 * slice) as f64 * QUANTUM.as_secs_f64(),
            clock,
            model,
            checks,
            trace,
            stream,
        },
    )
}

/// A benchmark-owned exchange fed, after every epoch, the same bids, specs
/// and power readings the fleet's own exchange cleared on — so its
/// clearing can be timed from outside and its ledger checked against the
/// real one.
struct Shadow {
    exchange: FleetExchange,
    bids: Vec<(Option<FleetBid>, ChipSpec)>,
    powers: Vec<Watts>,
}

impl Shadow {
    fn new(chips: usize) -> Shadow {
        Shadow {
            exchange: FleetExchange::new(FLEET_CAP),
            bids: Vec::with_capacity(chips),
            powers: Vec::with_capacity(chips),
        }
    }

    /// Clear one epoch; returns when the clearing started and ended.
    fn trade(&mut self, fleet: &Fleet<PpmManager>) -> (Instant, Instant) {
        self.bids.clear();
        self.powers.clear();
        for chip in fleet.chips() {
            self.bids
                .push((chip.sim().manager().fleet_bid(), chip.spec()));
            self.powers.push(chip.sim().system().chip_power());
        }
        let at = fleet.chip(0).sim().system().now();
        let start = Instant::now();
        self.exchange.clear(at, &self.bids, &self.powers);
        (start, Instant::now())
    }
}

/// 64 heterogeneous chips (V4/C2, six PARSEC tasks each, per-chip
/// auditors) trading a 192 W cap in 100 ms epochs on `threads` threads.
/// Warms up for `warm` epochs, then times [`SLICES`] slices of `slice`
/// epochs.
fn run_fleet(opts: &RunOpts, mut clock: SliceClock, threads: usize, warm: u64, slice: u64) -> Rep {
    let mut fleet =
        synthetic_fleet(FLEET_CHIPS, 4, 2, 6, Some(FLEET_CAP), None).with_threads(threads);
    if opts.traced {
        for chip in fleet.chips_mut() {
            chip.sim_mut()
                .set_telemetry(Telemetry::new(TRACE_RING).with_profiling());
        }
    }
    let epoch = fleet.epoch();
    let mut shadow = opts.traced.then(|| Shadow::new(fleet.len()));
    clock.setup_part();
    for piece in warmup_pieces(warm) {
        match &mut shadow {
            Some(shadow) => {
                for _ in 0..piece {
                    fleet.run_for(epoch);
                    shadow.trade(&fleet);
                }
            }
            None => fleet.run_for(epoch * piece),
        }
        clock.setup_part();
    }
    let sinks =
        |f: &Fleet<PpmManager>| PhaseTotals::of(f.chips().iter().map(|c| c.sim().telemetry()));
    let systems = |f: &Fleet<PpmManager>| counters(f.chips().iter().map(|c| c.sim().system()));
    let phases_at_start = sinks(&fleet);
    let counters_at_start = systems(&fleet);
    let epochs_timed = SLICES * slice as usize;
    let mut spans = opts.traced.then(|| Spans::with_capacity(3 * epochs_timed));
    for _ in 0..SLICES {
        clock.slice(|| match (&mut spans, &mut shadow) {
            (Some(spans), Some(shadow)) => {
                let mut a = Instant::now();
                for _ in 0..slice {
                    fleet.run_for(epoch);
                    let b = Instant::now();
                    let (c, d) = shadow.trade(&fleet);
                    let id = spans.push(SpanKind::Epoch, 0, a, d);
                    spans.push(SpanKind::FleetStep, id, a, b);
                    spans.push(SpanKind::Trade, id, c, d);
                    a = d;
                }
            }
            _ => fleet.run_for(epoch * slice),
        });
    }

    let mut checks = Checks::default();
    checks.check(
        "fleet audit rollup is clean",
        fleet.audit_rollup().is_clean(),
    );
    let ledger = fleet
        .exchange()
        .map(FleetExchange::render_ledger)
        .unwrap_or_default();
    if let Some(shadow) = &shadow {
        checks.check(
            "shadow ledger equals the fleet ledger",
            shadow.exchange.render_ledger() == ledger,
        );
    }
    let mut model = Model::default();
    for chip in fleet.chips() {
        model.chip(chip.sim().system());
    }
    model.digest.bytes(ledger.as_bytes());
    let (migrations, requests) = systems(&fleet);
    let trace = spans.map(|spans| Trace {
        wall_ns: clock.slices.iter().map(|i| i.wall_s).sum::<f64>() * 1e9,
        threads: threads as f64,
        phases: sinks(&fleet).since(phases_at_start),
        spans,
        outside: SpanKind::FleetStep,
        tiles: SpanKind::Epoch,
        migrations: migrations - counters_at_start.0,
        requests: requests - counters_at_start.1,
    });
    finish(
        Workload::Fleet64,
        opts,
        Measured {
            slice_sim_s: (fleet.len() as u64 * slice) as f64 * epoch.as_secs_f64(),
            clock,
            model,
            checks,
            trace,
            stream: StreamTotals::default(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_pieces_cover_the_warmup_in_at_most_the_set_number_of_parts() {
        for warm in [1, 7, 8, 9, 20, 3125, 12_500] {
            let pieces: Vec<u64> = warmup_pieces(warm).collect();
            assert_eq!(pieces.iter().sum::<u64>(), warm, "{warm}");
            assert!(pieces.len() as u64 <= WARMUP_PARTS, "{warm}: {pieces:?}");
            assert!(pieces.iter().all(|&p| p > 0), "{warm}: {pieces:?}");
        }
    }
}
