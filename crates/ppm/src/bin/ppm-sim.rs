//! `ppm-sim` — command-line driver for the simulated platform.
//!
//! ```text
//! ppm-sim [OPTIONS]
//!   --scheme ppm|hpm|hl      power manager (default ppm)
//!   --workload NAME          Table 6 set: l1..l3, m1..m3, h1..h3 (default m1)
//!   --chip tc2|tegra         platform preset (default tc2)
//!   --duration SECS          simulated seconds (default 60)
//!   --tdp WATTS              enable a power cap
//!   --no-lbt                 disable load balancing / migration (PPM only)
//!   --online                 online demand estimation (PPM only)
//!   --trace PATH             write a Chrome trace_event JSON (Perfetto)
//!   --metrics PATH           write the per-quantum time-series (.csv/.jsonl)
//!   --profile                profile manager phases, print the summary table
//!   --faults SEED            inject deterministic sensor/actuator faults
//!   --audit                  run the every-quantum invariant auditor
//!   --serve ADDR             live Prometheus/JSON scrape endpoint
//!   --alerts                 burn-rate alert rules (exit 1 when fired)
//!   --linger SECS            hold the endpoint open after the run
//!
//! ppm-sim fleet [OPTIONS]
//!   --chips N                fleet width (default 4)
//!   --cap WATTS              datacenter power cap, traded per epoch on the
//!                            fleet exchange (no cap → no exchange)
//!   --duration SECS          simulated seconds (default 10)
//!   --clusters/--cores/--tasks   per-chip topology (default 4/2/6)
//!   --threads N              chip-stepping worker threads (default 1)
//!   --faults SEED            per-chip deterministic fault streams
//!   --trace PATH             one Chrome trace: chip-tagged track pairs +
//!                            the exchange counter track
//!   --metrics PATH           one wide chip-tagged CSV joined on time
//!   --stream PATH            per-chip streamed series (out.c0.csv, ...)
//!   --serve ADDR             live fleet rollup endpoint
//!   --alerts                 per-chip burn-rate alerts (exit 1 when fired)
//!   --linger SECS            hold the endpoint open after the run
//!   --ledger                 print the exchange ledger
//! ```

use std::fs::File;
use std::io;
use std::process::exit;

use ppm::baselines::hl::{HlConfig, HlManager};
use ppm::baselines::hpm::{HpmConfig, HpmManager};
use ppm::core::config::PpmConfig;
use ppm::core::manager::{place_on_little, PpmManager};
use ppm::obs::{summary_table, write_chrome_trace, write_csv, write_jsonl, Telemetry};
use ppm::platform::chip::Chip;
use ppm::platform::core::CoreId;
use ppm::platform::faults::{FaultConfig, FaultPlan};
use ppm::platform::thermal::ThermalModel;
use ppm::platform::units::ProcessingUnits;
use ppm::platform::units::{SimDuration, Watts};
use ppm::sched::{AllocationPolicy, PowerManager, Simulation, System};
use ppm::workload::benchmarks::BenchmarkSpec;
use ppm::workload::heartbeat::HeartRateRange;
use ppm::workload::sets::set_by_name;
use ppm::workload::task::{Priority, Task, TaskId};
use ppm::workload::trace::DemandTrace;

#[derive(Debug)]
struct Args {
    scheme: String,
    workload: String,
    chip: String,
    duration: u64,
    tdp: Option<f64>,
    no_lbt: bool,
    online: bool,
    /// Write a Chrome `trace_event` JSON (load in Perfetto / `chrome://tracing`).
    trace: Option<String>,
    /// Write the per-quantum time-series (`.jsonl` → JSON lines, else CSV).
    metrics: Option<String>,
    /// Stream the time-series to disk *during* the run (`--stream`): the
    /// ring flushes incrementally, so the file holds every quantum even
    /// when the in-memory ring is far smaller than the run.
    stream: Option<String>,
    /// Profile manager phases and print the percentile summary table.
    profile: bool,
    /// Fault-injection seed (`--faults`): perturb sensors and actuators
    /// deterministically from this seed.
    faults: Option<u64>,
    /// Run the every-quantum invariant auditor and print its report.
    audit: bool,
    /// Custom task specs (`--task`), replacing the workload set when given.
    tasks: Vec<String>,
    /// Serve live Prometheus/JSON snapshots on this address (`--serve`).
    serve: Option<String>,
    /// Evaluate the burn-rate alert rules and print the alert tape
    /// (`--alerts`); any alert firing over the run exits 1.
    alerts: bool,
    /// Keep the scrape endpoint up for this many wall-clock seconds after
    /// the run (`--linger`), breaking early once a post-run scrape lands.
    linger: u64,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            scheme: "ppm".into(),
            workload: "m1".into(),
            chip: "tc2".into(),
            duration: 60,
            tdp: None,
            no_lbt: false,
            online: false,
            trace: None,
            metrics: None,
            stream: None,
            profile: false,
            faults: None,
            audit: false,
            tasks: Vec::new(),
            serve: None,
            alerts: false,
            linger: 0,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--scheme" => args.scheme = value("--scheme")?,
                "--workload" => args.workload = value("--workload")?,
                "--chip" => args.chip = value("--chip")?,
                "--duration" => {
                    args.duration = value("--duration")?
                        .parse()
                        .map_err(|e| format!("--duration: {e}"))?
                }
                "--tdp" => {
                    args.tdp = Some(value("--tdp")?.parse().map_err(|e| format!("--tdp: {e}"))?)
                }
                "--task" => args.tasks.push(value("--task")?),
                "--no-lbt" => args.no_lbt = true,
                "--online" => args.online = true,
                "--faults" => {
                    args.faults = Some(
                        value("--faults")?
                            .parse()
                            .map_err(|e| format!("--faults: {e}"))?,
                    )
                }
                "--audit" => args.audit = true,
                "--trace" => args.trace = Some(value("--trace")?),
                "--metrics" => args.metrics = Some(value("--metrics")?),
                "--stream" => args.stream = Some(value("--stream")?),
                "--profile" => args.profile = true,
                "--serve" => args.serve = Some(value("--serve")?),
                "--alerts" => args.alerts = true,
                "--linger" => {
                    args.linger = value("--linger")?
                        .parse()
                        .map_err(|e| format!("--linger: {e}"))?
                }
                "--help" | "-h" => {
                    println!("{}", HELP);
                    exit(0);
                }
                other => return Err(format!("unknown flag `{other}` (try --help)")),
            }
        }
        if args.linger > 0 && args.serve.is_none() {
            return Err("--linger needs --serve (there is no endpoint to hold open)".into());
        }
        Ok(args)
    }
}

const HELP: &str = "ppm-sim — simulate a power manager on a big.LITTLE chip
  --scheme ppm|hpm|hl      power manager (default ppm)
  --workload NAME          Table 6 set: l1..l3, m1..m3, h1..h3 (default m1),
                           or an open-loop request family: ol1 (Poisson),
                           ol2 (bursty), ol3 (diurnal); `openloop` = ol1
  --chip tc2|tegra         platform preset (default tc2)
  --duration SECS          simulated seconds (default 60)
  --tdp WATTS              enable a power cap
  --no-lbt                 disable load balancing / migration (PPM only)
  --online                 online demand estimation (PPM only)
  --trace PATH             write a Chrome trace_event JSON of the run
                           (open in Perfetto or chrome://tracing)
  --metrics PATH           write the per-quantum time-series; `.jsonl`
                           extension selects JSON lines, anything else CSV
  --stream PATH            stream the time-series to PATH *during* the run
                           (same formats/columns as --metrics); keeps every
                           quantum even with a small in-memory ring
  --profile                time manager phases (bid, price discovery, DVFS,
                           LBT, ...) and print a p50/p95/p99 summary table
  --faults SEED            inject deterministic sensor/actuator faults
                           (noisy/stale/dropped power readings, lost DVFS
                           and migrations) seeded by SEED
  --audit                  run the every-quantum invariant auditor and
                           print its report (exit 1 on violations)
  --serve ADDR             serve live windowed rollups while the run executes:
                           GET /metrics (Prometheus text) and /metrics.json
                           on ADDR (e.g. 127.0.0.1:9898; port 0 picks one and
                           prints it)
  --alerts                 evaluate the multi-window burn-rate alert rules
                           (SLO burn, shed rate, TDP headroom, degradation),
                           print the alert tape, exit 1 if any rule fired
  --linger SECS            keep the --serve endpoint up for SECS wall-clock
                           seconds after the run (ends early once a post-run
                           scrape is served)
  --task SPEC              custom task instead of the workload set; repeatable.
                           SPEC: hr=30,demand=500[,speedup=1.8][,prio=1]
                                 [,trace=0:1;30:1.5]  (trace uses ; separators)

ppm-sim fleet ...          simulate N chips under one traded datacenter power
                           cap (see `ppm-sim fleet --help`)";

/// Parse one `--task` spec into a runnable task.
fn parse_task(id: usize, spec: &str) -> Result<Task, String> {
    let mut hr = None;
    let mut demand = None;
    let mut speedup = 1.8;
    let mut prio = 1u32;
    let mut trace: Option<DemandTrace> = None;
    for kv in spec.split(',') {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("`{kv}` is not key=value"))?;
        match k.trim() {
            "hr" => hr = Some(v.trim().parse::<f64>().map_err(|e| format!("hr: {e}"))?),
            "demand" => {
                demand = Some(
                    v.trim()
                        .parse::<f64>()
                        .map_err(|e| format!("demand: {e}"))?,
                )
            }
            "speedup" => speedup = v.trim().parse().map_err(|e| format!("speedup: {e}"))?,
            "prio" => prio = v.trim().parse().map_err(|e| format!("prio: {e}"))?,
            "trace" => {
                trace = Some(
                    v.trim()
                        .replace(';', ",")
                        .parse()
                        .map_err(|e| format!("trace: {e}"))?,
                )
            }
            other => return Err(format!("unknown task key `{other}`")),
        }
    }
    let hr = hr.ok_or("task needs hr=")?;
    let demand = demand.ok_or("task needs demand=")?;
    let phases = match trace {
        Some(t) => t.to_phases(hr, 10.0),
        None => vec![ppm::workload::phase::Phase::new(f64::MAX, 1.0)],
    };
    let spec = BenchmarkSpec::custom(
        HeartRateRange::new(hr * 0.95, hr * 1.05),
        ProcessingUnits(demand),
        speedup,
        phases,
        None,
    );
    Ok(Task::new(TaskId(id), spec, Priority(prio)))
}

fn build_system(args: &Args, policy: AllocationPolicy) -> Result<System, String> {
    let chip = match args.chip.as_str() {
        "tc2" => Chip::tc2(),
        "tegra" => Chip::tegra_4plus1(),
        other => return Err(format!("unknown chip `{other}`")),
    };
    let clusters = chip.clusters().len();
    let mut sys = System::new(chip, policy);
    sys.attach_thermal(ThermalModel::mobile(clusters));
    if args.tasks.is_empty() {
        // Both catalogues: the Table 6 closed-loop sets first, then the
        // open-loop request families (`openloop` aliases `ol1`).
        let set = set_by_name(&args.workload)
            .or_else(|| ppm::workload::openloop_set_by_name(&args.workload))
            .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
        for t in set.spawn(0, Priority::NORMAL) {
            sys.add_task(t, CoreId(0));
        }
    } else {
        for (i, spec) in args.tasks.iter().enumerate() {
            sys.add_task(parse_task(i, spec)?, CoreId(0));
        }
    }
    place_on_little(&mut sys);
    if let Some(w) = args.tdp {
        sys.set_tdp_accounting(Watts(w));
    }
    Ok(sys)
}

fn simulate<M: PowerManager>(args: &Args, sys: System, mgr: M) -> Result<bool, String> {
    let mut sim = Simulation::new(sys, mgr).with_warmup(SimDuration::from_secs(2));
    if let Some(seed) = args.faults {
        sim = sim.with_faults(FaultPlan::new(FaultConfig::with_seed(seed)));
    }
    if args.audit {
        sim = sim.with_auditor();
    }
    let full_ring = args.trace.is_some() || args.metrics.is_some() || args.profile;
    if full_ring || args.stream.is_some() || args.serve.is_some() || args.alerts {
        // One row per 1 ms quantum, sized so the ring never wraps — unless
        // only streaming/serving/alerting is on, where a small ring does:
        // the stream preserves every row on disk and the aggregation
        // windows fold rows into rollups as they land.
        let cap = if full_ring {
            args.duration as usize * 1000 + 8
        } else {
            256
        };
        let mut tel = Telemetry::new(cap);
        if args.profile {
            tel = tel.with_profiling();
        }
        if args.serve.is_some() {
            tel = tel.with_aggregation(ppm::obs::DEFAULT_AGG_WINDOW_US);
        }
        if args.alerts {
            tel = tel.with_alerts();
        }
        if args.serve.is_some() {
            tel = tel.with_hub(ppm::obs::SnapshotHub::new());
        }
        sim = sim.with_telemetry(tel);
    }
    if let Some(path) = &args.stream {
        let stream = ppm::obs::TelemetryStream::create(path, 64)
            .map_err(|e| format!("cannot create {path}: {e}"))?;
        sim = sim.with_stream(stream);
    }
    let server = match &args.serve {
        Some(addr) => {
            let hub = sim
                .telemetry()
                .and_then(|t| t.hub())
                .cloned()
                .expect("--serve attaches a snapshot hub");
            let srv = ppm::obs::ScrapeServer::serve(addr, hub)
                .map_err(|e| format!("cannot serve on {addr}: {e}"))?;
            // Flushed before the run so scrapers learn the bound port
            // (`--serve 127.0.0.1:0`) while the simulation executes.
            println!("serving           : http://{}/metrics", srv.local_addr());
            use io::Write as _;
            io::stdout().flush().ok();
            Some(srv)
        }
        None => None,
    };
    sim.run_for(SimDuration::from_secs(args.duration));

    let peak_temp = sim.system().thermal().map(|t| t.peak());
    let m = sim.metrics();
    println!(
        "\n# summary ({} on {}, {} s)",
        args.scheme, args.chip, args.duration
    );
    println!(
        "any-task QoS miss : {:.1}% of time",
        m.any_miss_fraction() * 100.0
    );
    println!("average power     : {}", m.average_power());
    println!("peak power        : {}", m.chip_energy.peak_power());
    println!("energy            : {}", m.chip_energy.energy());
    if let Some(t) = peak_temp {
        println!("peak temperature  : {t}");
    }
    if let Some(w) = args.tdp {
        println!(
            "time above {w} W   : {:.1}%",
            m.time_above_tdp.as_secs_f64() / m.total_time().as_secs_f64() * 100.0
        );
    }
    println!(
        "migrations        : {} intra-cluster, {} inter-cluster",
        m.migrations_intra, m.migrations_inter
    );
    println!("V-F transitions   : {}", m.vf_transitions);
    {
        let s = sim.system();
        let snaps: Vec<_> = s
            .task_ids()
            .iter()
            .filter_map(|&t| s.task(t).open_loop_snap())
            .collect();
        if !snaps.is_empty() {
            let worst = snaps
                .iter()
                .map(|o| {
                    if o.slo_ms > 0.0 {
                        o.p99_ms / o.slo_ms
                    } else {
                        0.0
                    }
                })
                .fold(0.0, f64::max);
            let shed: u64 = snaps.iter().map(|o| o.shed).sum();
            println!(
                "open-loop p99/SLO : worst {worst:.3} across {} tasks, {shed} requests shed",
                snaps.len()
            );
        }
    }
    if let Some(f) = sim.faults() {
        let s = f.stats();
        println!(
            "faults injected   : {} total ({} sensor, {} DVFS, {} migration, {} crash)",
            s.total(),
            s.dropped_readings + s.stale_readings + s.thermal_spikes,
            s.dvfs_failed + s.dvfs_deferred,
            s.migrations_failed,
            s.task_crashes,
        );
    }
    let mut clean = true;
    if let Some(a) = sim.auditor() {
        println!("\n# audit\n{}", a.render());
        clean = a.violations().is_empty();
    }

    if let Some(srv) = &server {
        // Publish the end-of-run state (including the live partial window)
        // so post-run scrapes see the whole run, then hold the endpoint
        // open; one served scrape after this point ends the linger early.
        if let Some(tel) = sim.telemetry() {
            if let Some(hub) = tel.hub() {
                hub.publish(tel.scrape_snapshot());
            }
        }
        linger(srv, args.linger);
    }

    if let Some(result) = sim.finish_stream() {
        let stats = result.map_err(|e| format!("stream write failed: {e}"))?;
        if let Some(path) = &args.stream {
            println!(
                "stream            : {path} ({} rows, {} flushes, {} lost)",
                stats.rows, stats.flushes, stats.lost
            );
        }
    }
    if let Some(tel) = sim.take_telemetry() {
        if let Some(path) = &args.metrics {
            let mut f = io::BufWriter::new(
                File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
            );
            if path.ends_with(".jsonl") {
                write_jsonl(&tel.recorder, &mut f)
            } else {
                write_csv(&tel.recorder, &mut f)
            }
            .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("metrics           : {path} ({} rows)", tel.recorder.rows());
        }
        if let Some(path) = &args.trace {
            let mut f = io::BufWriter::new(
                File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
            );
            // Decimate counter rows so huge runs stay loadable in Perfetto;
            // spans are never decimated.
            let stride = (tel.recorder.rows() / 20_000).max(1);
            write_chrome_trace(&tel.recorder, &mut f, stride)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("chrome trace      : {path} (stride {stride})");
        }
        if args.profile {
            println!(
                "\n# manager phase profile\n{}",
                summary_table(&tel.profiler)
            );
        }
        if let Some(engine) = &tel.alerts {
            println!("\n# alerts\n{}", engine.render());
            // `--alerts` turns a fired rule into a failing exit code.
            clean &= engine.fired_total() == 0;
        }
    }
    Ok(clean)
}

/// `ppm-sim fleet` arguments.
struct FleetArgs {
    chips: usize,
    cap: Option<f64>,
    duration: u64,
    clusters: usize,
    cores: usize,
    tasks: usize,
    threads: usize,
    faults: Option<u64>,
    trace: Option<String>,
    metrics: Option<String>,
    /// Stream every chip's time-series during the run: `out.csv` becomes
    /// `out.c0.csv`, `out.c1.csv`, ... (one chip-tagged file per chip).
    stream: Option<String>,
    /// Serve the merged fleet rollup (plus per-chip sections) live.
    serve: Option<String>,
    /// Evaluate per-chip burn-rate alerts; any firing exits 1.
    alerts: bool,
    /// Hold the scrape endpoint open after the run (needs `--serve`).
    linger: u64,
    ledger: bool,
}

impl FleetArgs {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<FleetArgs, String> {
        let mut args = FleetArgs {
            chips: 4,
            cap: None,
            duration: 10,
            clusters: 4,
            cores: 2,
            tasks: 6,
            threads: 1,
            faults: None,
            trace: None,
            metrics: None,
            stream: None,
            serve: None,
            alerts: false,
            linger: 0,
            ledger: false,
        };
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            let num = |name: &str, v: Result<String, String>| {
                v?.parse::<u64>().map_err(|e| format!("{name}: {e}"))
            };
            match flag.as_str() {
                "--chips" => args.chips = num("--chips", value("--chips"))? as usize,
                "--cap" => {
                    args.cap = Some(value("--cap")?.parse().map_err(|e| format!("--cap: {e}"))?)
                }
                "--duration" => args.duration = num("--duration", value("--duration"))?,
                "--clusters" => args.clusters = num("--clusters", value("--clusters"))? as usize,
                "--cores" => args.cores = num("--cores", value("--cores"))? as usize,
                "--tasks" => args.tasks = num("--tasks", value("--tasks"))? as usize,
                "--threads" => args.threads = num("--threads", value("--threads"))?.max(1) as usize,
                "--faults" => args.faults = Some(num("--faults", value("--faults"))?),
                "--trace" => args.trace = Some(value("--trace")?),
                "--metrics" => args.metrics = Some(value("--metrics")?),
                "--stream" => args.stream = Some(value("--stream")?),
                "--serve" => args.serve = Some(value("--serve")?),
                "--alerts" => args.alerts = true,
                "--linger" => args.linger = num("--linger", value("--linger"))?,
                "--ledger" => args.ledger = true,
                "--help" | "-h" => {
                    println!("{}", FLEET_HELP);
                    exit(0);
                }
                other => return Err(format!("unknown fleet flag `{other}` (try --help)")),
            }
        }
        if args.chips == 0 {
            return Err("--chips must be at least 1".into());
        }
        if args.linger > 0 && args.serve.is_none() {
            return Err("--linger needs --serve (there is no endpoint to hold open)".into());
        }
        Ok(args)
    }
}

const FLEET_HELP: &str = "ppm-sim fleet — N chip simulations under one datacenter power cap
  --chips N                fleet width (default 4)
  --cap WATTS              datacenter power cap; each trading epoch the fleet
                           exchange turns it into per-chip TDP allowances
                           (omit the cap to run chips uncoordinated)
  --duration SECS          simulated seconds (default 10)
  --clusters V             clusters per chip (default 4)
  --cores C                cores per cluster (default 2)
  --tasks T                tasks per chip (default 6)
  --threads N              chip-stepping worker threads (default 1; chip
                           trajectories are bit-identical at any count)
  --faults SEED            inject per-chip deterministic fault streams
  --trace PATH             write one Chrome trace_event JSON: a counter/span
                           track pair per chip plus the exchange counter track
  --metrics PATH           write one wide chip-tagged CSV (t_s,c0_...,c1_...)
  --stream PATH            stream every chip's time-series during the run to
                           chip-tagged files: out.csv -> out.c0.csv, out.c1.csv
                           (.jsonl extension selects JSON lines per chip)
  --serve ADDR             serve the live fleet rollup on ADDR: GET /metrics
                           (Prometheus text, fleet + per-chip sections) and
                           /metrics.json; snapshots refresh every trading epoch
  --alerts                 evaluate per-chip burn-rate alert rules, print the
                           fleet alert tape, exit 1 if any chip's rule fired
  --linger SECS            keep the --serve endpoint up for SECS after the run
                           (ends early once a post-run scrape is served)
  --ledger                 print the exchange ledger (one line per epoch)

The fleet always runs with the per-chip auditors and, when a cap is given,
the exchange book audit; any violation exits 1.";

/// Run the `fleet` subcommand: a heterogeneous synthetic fleet, audited,
/// with optional fleet-wide trace/CSV exports. Returns audit cleanliness.
fn run_fleet(args: &FleetArgs) -> Result<bool, String> {
    use ppm::fleet::scenario::synthetic_fleet;
    use ppm::fleet::trace as fleet_trace;

    let mut fleet = synthetic_fleet(
        args.chips,
        args.clusters,
        args.cores,
        args.tasks,
        args.cap.map(Watts),
        args.faults.map(FaultConfig::with_seed),
    )
    .with_threads(args.threads);
    let full_ring = args.trace.is_some() || args.metrics.is_some();
    if full_ring || args.stream.is_some() || args.serve.is_some() || args.alerts {
        // One row per 1 ms quantum, sized so the ring never wraps — unless
        // only streaming/serving/alerting is on, where a small ring does
        // (streams keep every row on disk; aggregation folds rows live).
        let cap = if full_ring {
            args.duration as usize * 1000 + 8
        } else {
            256
        };
        for (i, chip) in fleet.chips_mut().iter_mut().enumerate() {
            let mut tel = Telemetry::new(cap).with_label(&format!("chip {i}"));
            if args.serve.is_some() || args.alerts {
                tel = tel.with_aggregation(ppm::obs::DEFAULT_AGG_WINDOW_US);
            }
            if args.alerts {
                tel = tel.with_alerts();
            }
            chip.sim_mut().set_telemetry(tel);
            if let Some(path) = &args.stream {
                let path = chip_tagged_path(path, i);
                let stream = ppm::obs::TelemetryStream::create(&path, 64)
                    .map_err(|e| format!("cannot create {path}: {e}"))?;
                chip.sim_mut().set_stream(stream);
            }
        }
    }
    let server = match &args.serve {
        Some(addr) => {
            let hub = ppm::obs::SnapshotHub::new();
            let srv = ppm::obs::ScrapeServer::serve(addr, hub.clone())
                .map_err(|e| format!("cannot serve on {addr}: {e}"))?;
            // Flushed before the run so scrapers learn the bound port
            // (`--serve 127.0.0.1:0`) while the fleet executes.
            println!("serving           : http://{}/metrics", srv.local_addr());
            use io::Write as _;
            io::stdout().flush().ok();
            Some((srv, hub))
        }
        None => None,
    };
    match &server {
        // When serving, step epoch by epoch and publish the merged fleet
        // snapshot after each trade — scrapers watch the run move. Epoch
        // slicing is exactly what `run_for` does internally, so the
        // trajectory is byte-identical to the unserved run.
        Some((_, hub)) => {
            let epoch = fleet.epoch();
            let mut remaining = SimDuration::from_secs(args.duration).as_micros();
            while remaining > 0 {
                let dt = remaining.min(epoch.as_micros());
                fleet.run_for(SimDuration(dt));
                remaining -= dt;
                hub.publish(fleet_trace::fleet_scrape_snapshot(&fleet));
            }
        }
        None => fleet.run_for(SimDuration::from_secs(args.duration)),
    }

    println!(
        "# fleet summary ({} chips x V{} C{} T{}, {} s, {} thread(s))",
        args.chips, args.clusters, args.cores, args.tasks, args.duration, args.threads
    );
    if let Some(ex) = fleet.exchange() {
        println!(
            "cap               : {} ({} epochs traded, state {})",
            ex.cap(),
            ex.epochs(),
            ex.state(),
        );
        println!("allowance         : {}", ex.allowance());
    }
    for (i, chip) in fleet.chips().iter().enumerate() {
        let m = chip.sim().metrics();
        let tdp = match chip.sim().system().tdp() {
            Some(w) => format!("{w}"),
            None => "uncapped".to_string(),
        };
        println!(
            "chip {i:<3} avg {} tdp {} miss {:>5.1}% elec ${:.2}/W",
            m.average_power(),
            tdp,
            m.any_miss_fraction() * 100.0,
            chip.spec().electricity_price,
        );
    }
    let faults: u64 = fleet
        .chips()
        .iter()
        .filter_map(|c| c.sim().faults().map(|f| f.stats().total()))
        .sum();
    if args.faults.is_some() {
        println!("faults injected   : {faults} across the fleet");
    }
    if args.ledger {
        if let Some(ex) = fleet.exchange() {
            print!("\n# exchange ledger\n{}", ex.render_ledger());
        }
    }

    if let Some(path) = &args.stream {
        for i in 0..fleet.len() {
            if let Some(result) = fleet.chip_mut(i).sim_mut().finish_stream() {
                let stats = result.map_err(|e| format!("stream write failed: {e}"))?;
                println!(
                    "stream chip {i:<4} : {} ({} rows, {} flushes, {} lost)",
                    chip_tagged_path(path, i),
                    stats.rows,
                    stats.flushes,
                    stats.lost
                );
            }
        }
    }
    let mut fired = false;
    if args.alerts {
        fired = fleet_trace::fleet_alerts_fired(&fleet);
        let tape = fleet_trace::fleet_alert_tape(&fleet)
            .unwrap_or_else(|| "no chip has an alert engine attached\n".to_string());
        print!("\n# fleet alerts\n{tape}");
    }

    let roll = fleet.audit_rollup();
    println!("\n# fleet audit\n{}", roll.render());

    if let Some(path) = &args.metrics {
        let mut f = io::BufWriter::new(
            File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
        );
        fleet_trace::write_csv(&fleet, &mut f).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("fleet metrics     : {path}");
    }
    if let Some(path) = &args.trace {
        let mut f = io::BufWriter::new(
            File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
        );
        let rows = fleet
            .chips()
            .iter()
            .filter_map(|c| c.sim().telemetry().map(|t| t.recorder.rows()))
            .sum::<usize>();
        // Decimate counter rows so huge fleets stay loadable in Perfetto.
        let stride = (rows / 100_000).max(1);
        fleet_trace::write_trace(&fleet, &mut f, stride)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("fleet trace       : {path} (stride {stride})");
    }

    if let Some((srv, hub)) = &server {
        // Publish the end-of-run state (final partial windows included),
        // then hold the endpoint open; one served scrape after this point
        // ends the linger early.
        hub.publish(fleet_trace::fleet_scrape_snapshot(&fleet));
        linger(srv, args.linger);
    }
    Ok(roll.is_clean() && !fired)
}

/// Hold a scrape endpoint open for up to `secs` wall-clock seconds after
/// the run. Once at least one post-run scrape has been served, exit as
/// soon as the endpoint has been quiet for 250 ms — scrapers typically
/// issue a couple of requests back to back (`/metrics`, `/metrics.json`)
/// and all of them should land before the process goes away.
fn linger(srv: &ppm::obs::ScrapeServer, secs: u64) {
    use std::time::{Duration, Instant};
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut last_served = srv.served();
    let mut quiet_since = None;
    while Instant::now() < deadline {
        let served = srv.served();
        if served > last_served {
            last_served = served;
            quiet_since = Some(Instant::now());
        }
        if quiet_since.is_some_and(|t| t.elapsed() > Duration::from_millis(250)) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// `out.csv` → `out.c3.csv`: tag a per-chip stream path with the chip
/// index, keeping the extension (which selects CSV vs JSON lines).
fn chip_tagged_path(path: &str, chip: usize) -> String {
    match path.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() && !ext.contains('/') => {
            format!("{stem}.c{chip}.{ext}")
        }
        _ => format!("{path}.c{chip}"),
    }
}

fn main() {
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("fleet") {
        raw.next();
        let result = FleetArgs::parse(raw).and_then(|args| run_fleet(&args));
        match result {
            Err(e) => {
                eprintln!("error: {e}");
                exit(2);
            }
            Ok(false) => exit(1),
            Ok(true) => return,
        }
    }
    drop(raw);
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            exit(2);
        }
    };
    let result: Result<bool, String> = (|| {
        Ok(match args.scheme.as_str() {
            "ppm" => {
                let mut config = match args.tdp {
                    Some(w) => PpmConfig::tc2_with_tdp(Watts(w)),
                    None => PpmConfig::tc2(),
                };
                if args.no_lbt {
                    config = config.without_lbt();
                }
                if args.online {
                    config = config.with_online_estimation();
                }
                let sys = build_system(&args, AllocationPolicy::Market)?;
                simulate(&args, sys, PpmManager::new(config))?
            }
            "hpm" => {
                let mut config = HpmConfig::new();
                if let Some(w) = args.tdp {
                    config = config.with_tdp(Watts(w));
                }
                let sys = build_system(&args, AllocationPolicy::Market)?;
                simulate(&args, sys, HpmManager::new(config))?
            }
            "hl" => {
                let mut config = HlConfig::new();
                if let Some(w) = args.tdp {
                    config = config.with_tdp(Watts(w));
                }
                let sys = build_system(&args, AllocationPolicy::FairWeights)?;
                simulate(&args, sys, HlManager::new(config))?
            }
            other => return Err(format!("unknown scheme `{other}`")),
        })
    })();
    match result {
        Err(e) => {
            eprintln!("error: {e}");
            exit(2);
        }
        // `--audit` turns invariant violations into a failing exit code.
        Ok(false) => exit(1),
        Ok(true) => {}
    }
}
