//! `ppm-sim` — command-line driver for the simulated platform.
//!
//! Two modes: the default chip mode simulates one power manager on a
//! big.LITTLE preset, and `ppm-sim fleet` simulates N synthetic chips under
//! one traded datacenter power cap. Chip mode runs its simulation as a
//! one-chip fleet with no exchange, which is byte-identical to running it
//! standalone, so both modes share one driver: the same flag parser for
//! the flags they have in common, the same telemetry attachment, the same
//! run loop publishing a live scrape snapshot after every trading epoch,
//! and the same stream-finish and linger epilogues. `ppm-sim --help` and
//! `ppm-sim fleet --help` list the flags.

use std::fmt::Display;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::process::exit;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppm::baselines::hl::{HlConfig, HlManager};
use ppm::baselines::hpm::{HpmConfig, HpmManager};
use ppm::core::config::PpmConfig;
use ppm::core::manager::{place_on_little, PpmManager};
use ppm::fleet::trace as fleet_trace;
use ppm::fleet::Fleet;
use ppm::obs::{
    summary_table, write_chrome_trace, write_csv, write_jsonl, ScrapeServer, SnapshotHub,
    Telemetry, TelemetryStream,
};
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

/// The next command-line word, as the value of `flag`.
fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// The next command-line word, parsed as the value of `flag`.
fn number<T: FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value(it, flag)?.parse().map_err(|e| format!("{flag}: {e}"))
}

/// The flags both modes take.
#[derive(Default)]
struct Common {
    /// Fleet mode: per-chip stream files and report lines are chip-tagged.
    fleet: bool,
    duration: u64,
    /// Fault-injection seed (`--faults`): perturb sensors and actuators
    /// deterministically from this seed (re-seeded per chip in a fleet).
    faults: Option<u64>,
    /// Write a Chrome `trace_event` JSON (load in Perfetto / `chrome://tracing`).
    trace: Option<String>,
    /// Write the per-quantum time-series after the run.
    metrics: Option<String>,
    /// Stream the time-series to disk *during* the run (`--stream`): the
    /// ring flushes incrementally, so the file holds every quantum even
    /// when the in-memory ring is far smaller than the run.
    stream: Option<String>,
    /// Serve live Prometheus/JSON snapshots on this address (`--serve`).
    serve: Option<String>,
    /// Evaluate the burn-rate alert rules and print the alert tape
    /// (`--alerts`); any alert firing over the run exits 1.
    alerts: bool,
    /// Keep the scrape endpoint up for this many wall-clock seconds after
    /// the run (`--linger`), breaking early once a post-run scrape lands.
    linger: u64,
}

impl Common {
    /// Consume `flag` (and its value) when it is one of the shared flags;
    /// `Ok(false)` leaves it to the mode's own parser.
    fn take(&mut self, flag: &str, it: &mut impl Iterator<Item = String>) -> Result<bool, String> {
        match flag {
            "--duration" => self.duration = number(it, flag)?,
            "--faults" => self.faults = Some(number(it, flag)?),
            "--trace" => self.trace = Some(value(it, flag)?),
            "--metrics" => self.metrics = Some(value(it, flag)?),
            "--stream" => self.stream = Some(value(it, flag)?),
            "--serve" => self.serve = Some(value(it, flag)?),
            "--alerts" => self.alerts = true,
            "--linger" => self.linger = number(it, flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn check(&self) -> Result<(), String> {
        if self.linger > 0 && self.serve.is_none() {
            return Err("--linger needs --serve (there is no endpoint to hold open)".into());
        }
        Ok(())
    }

    /// Chip `i`'s stream file: `--stream` itself for a lone chip;
    /// chip-tagged in a fleet (`out.csv` → `out.c3.csv`, keeping the
    /// extension, which selects CSV vs JSON lines).
    fn stream_path(&self, path: &str, i: usize) -> String {
        if !self.fleet {
            return path.to_string();
        }
        match path.rsplit_once('.') {
            Some((stem, ext)) if !stem.is_empty() && !ext.contains('/') => {
                format!("{stem}.c{i}.{ext}")
            }
            _ => format!("{path}.c{i}"),
        }
    }
}

/// `ppm-sim` (chip mode) arguments.
struct Args {
    scheme: String,
    workload: String,
    chip: String,
    tdp: Option<f64>,
    no_lbt: bool,
    online: bool,
    /// Profile manager phases and print the percentile summary table.
    profile: bool,
    /// Run the every-quantum invariant auditor and print its report.
    audit: bool,
    /// Custom task specs (`--task`), replacing the workload set when given.
    tasks: Vec<String>,
    common: Common,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            scheme: "ppm".into(),
            workload: "m1".into(),
            chip: "tc2".into(),
            tdp: None,
            no_lbt: false,
            online: false,
            profile: false,
            audit: false,
            tasks: Vec::new(),
            common: Common {
                duration: 60,
                ..Common::default()
            },
        };
        while let Some(flag) = it.next() {
            if args.common.take(&flag, &mut it)? {
                continue;
            }
            match flag.as_str() {
                "--scheme" => args.scheme = value(&mut it, &flag)?,
                "--workload" => args.workload = value(&mut it, &flag)?,
                "--chip" => args.chip = value(&mut it, &flag)?,
                "--tdp" => args.tdp = Some(number(&mut it, &flag)?),
                "--task" => args.tasks.push(value(&mut it, &flag)?),
                "--no-lbt" => args.no_lbt = true,
                "--online" => args.online = true,
                "--audit" => args.audit = true,
                "--profile" => args.profile = true,
                "--help" | "-h" => {
                    println!("{}", HELP);
                    exit(0);
                }
                other => return Err(format!("unknown flag `{other}` (try --help)")),
            }
        }
        args.common.check()?;
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

/// Run one chip: a one-chip fleet with no exchange, observed and served
/// through the shared driver. Returns whether the run was clean (no audit
/// violation, no alert fired).
fn run_chip<M: PowerManager + Send>(
    args: &Args,
    policy: AllocationPolicy,
    mgr: M,
) -> Result<bool, String> {
    let o = &args.common;
    let sys = build_system(args, policy)?;
    let mut sim = Simulation::new(sys, mgr).with_warmup(SimDuration::from_secs(2));
    if let Some(seed) = o.faults {
        sim = sim.with_faults(FaultPlan::new(FaultConfig::with_seed(seed)));
    }
    if args.audit {
        sim = sim.with_auditor();
    }
    let mut fleet = Fleet::lone(sim);
    let server = execute(&mut fleet, o, args.profile)?;

    let sim = fleet.chip(0).sim();
    let peak_temp = sim.system().thermal().map(|t| t.peak());
    let m = sim.metrics();
    println!(
        "\n# summary ({} on {}, {} s)",
        args.scheme, args.chip, o.duration
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
                .filter(|o| o.slo_ms > 0.0)
                .map(|o| o.p99_ms / o.slo_ms)
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

    finish_streams(&mut fleet, o)?;
    if let Some(tel) = fleet.chip(0).sim().telemetry() {
        if let Some(path) = &o.metrics {
            let mut f = create(path)?;
            if path.ends_with(".jsonl") {
                write_jsonl(&tel.recorder, &mut f)
            } else {
                write_csv(&tel.recorder, &mut f)
            }
            .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("metrics           : {path} ({} rows)", tel.recorder.rows());
        }
        if let Some(path) = &o.trace {
            let mut f = create(path)?;
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
    linger(server, o.linger);
    Ok(clean)
}

/// `ppm-sim fleet` arguments.
struct FleetArgs {
    chips: usize,
    cap: Option<f64>,
    clusters: usize,
    cores: usize,
    tasks: usize,
    threads: usize,
    ledger: bool,
    common: Common,
}

impl FleetArgs {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<FleetArgs, String> {
        let mut args = FleetArgs {
            chips: 4,
            cap: None,
            clusters: 4,
            cores: 2,
            tasks: 6,
            threads: 1,
            ledger: false,
            common: Common {
                fleet: true,
                duration: 10,
                ..Common::default()
            },
        };
        while let Some(flag) = it.next() {
            if args.common.take(&flag, &mut it)? {
                continue;
            }
            match flag.as_str() {
                "--chips" => args.chips = number(&mut it, &flag)?,
                "--cap" => args.cap = Some(number(&mut it, &flag)?),
                "--clusters" => args.clusters = number(&mut it, &flag)?,
                "--cores" => args.cores = number(&mut it, &flag)?,
                "--tasks" => args.tasks = number(&mut it, &flag)?,
                "--threads" => args.threads = number::<usize>(&mut it, &flag)?.max(1),
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
        args.common.check()?;
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
/// with optional fleet-wide trace/CSV exports. Returns whether the run was
/// clean (no audit finding, no alert fired).
fn run_fleet(args: &FleetArgs) -> Result<bool, String> {
    let o = &args.common;
    let mut fleet = ppm::fleet::scenario::synthetic_fleet(
        args.chips,
        args.clusters,
        args.cores,
        args.tasks,
        args.cap.map(Watts),
        o.faults.map(FaultConfig::with_seed),
    )
    .with_threads(args.threads);
    let server = execute(&mut fleet, o, false)?;

    println!(
        "# fleet summary ({} chips x V{} C{} T{}, {} s, {} thread(s))",
        args.chips, args.clusters, args.cores, args.tasks, o.duration, args.threads
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
    if o.faults.is_some() {
        let faults: u64 = fleet
            .chips()
            .iter()
            .filter_map(|c| c.sim().faults().map(|f| f.stats().total()))
            .sum();
        println!("faults injected   : {faults} across the fleet");
    }
    if args.ledger {
        if let Some(ex) = fleet.exchange() {
            print!("\n# exchange ledger\n{}", ex.render_ledger());
        }
    }

    finish_streams(&mut fleet, o)?;
    let mut fired = false;
    if o.alerts {
        fired = fleet_trace::fleet_alerts_fired(&fleet);
        let tape = fleet_trace::fleet_alert_tape(&fleet)
            .unwrap_or_else(|| "no chip has an alert engine attached\n".to_string());
        print!("\n# fleet alerts\n{tape}");
    }

    let roll = fleet.audit_rollup();
    println!("\n# fleet audit\n{}", roll.render());

    if let Some(path) = &o.metrics {
        let mut f = create(path)?;
        fleet_trace::write_csv(&fleet, &mut f).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("fleet metrics     : {path}");
    }
    if let Some(path) = &o.trace {
        let mut f = create(path)?;
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
    linger(server, o.linger);
    Ok(roll.is_clean() && !fired)
}

/// A bound scrape endpoint and the hub it serves.
type Endpoint = (ScrapeServer, Arc<SnapshotHub>);

/// The run both modes share: attach every chip's telemetry, bind the
/// scrape endpoint, and step the fleet for `--duration`, publishing a
/// scrape snapshot after every trading epoch when serving.
fn execute<M: PowerManager + Send>(
    fleet: &mut Fleet<M>,
    o: &Common,
    profile: bool,
) -> Result<Option<Endpoint>, String> {
    // One row per 1 ms quantum, sized so the ring never wraps when the
    // whole history is exported after the run; otherwise a small ring
    // does: the stream keeps every row on disk, and the aggregation
    // windows fold rows into rollups as they land.
    let full_ring = o.trace.is_some() || o.metrics.is_some() || profile;
    if full_ring || o.stream.is_some() || o.serve.is_some() || o.alerts {
        let cap = if full_ring {
            o.duration as usize * 1000 + 8
        } else {
            256
        };
        for i in 0..fleet.len() {
            let mut tel = Telemetry::new(cap);
            if profile {
                tel = tel.with_profiling();
            }
            if o.serve.is_some() {
                tel = tel.with_aggregation(ppm::obs::DEFAULT_AGG_WINDOW_US);
            }
            if o.alerts {
                tel = tel.with_alerts();
            }
            if let Some(path) = &o.stream {
                let path = o.stream_path(path, i);
                let stream = TelemetryStream::create(&path, 64)
                    .map_err(|e| format!("cannot create {path}: {e}"))?;
                tel = tel.with_stream(stream);
            }
            fleet.chip_mut(i).sim_mut().set_telemetry(tel);
        }
    }
    let server = match &o.serve {
        Some(addr) => {
            let hub = SnapshotHub::new();
            let srv = ScrapeServer::serve(addr, hub.clone())
                .map_err(|e| format!("cannot serve on {addr}: {e}"))?;
            // Flushed before the run so scrapers learn the bound port
            // (`--serve 127.0.0.1:0`) while the simulation executes.
            println!("serving           : http://{}/metrics", srv.local_addr());
            io::stdout().flush().ok();
            Some((srv, hub))
        }
        None => None,
    };
    let duration = SimDuration::from_secs(o.duration);
    match &server {
        Some((_, hub)) => fleet_trace::run_publishing(fleet, duration, hub),
        None => fleet.run_for(duration),
    }
    Ok(server)
}

/// Flush every chip's stream tail, join its writer, and report its totals.
fn finish_streams<M: PowerManager>(fleet: &mut Fleet<M>, o: &Common) -> Result<(), String> {
    let Some(path) = &o.stream else {
        return Ok(());
    };
    for i in 0..fleet.len() {
        if let Some(result) = fleet.chip_mut(i).sim_mut().finish_stream() {
            let stats = result.map_err(|e| format!("stream write failed: {e}"))?;
            let head = if o.fleet {
                format!("stream chip {i:<4} ")
            } else {
                "stream            ".to_string()
            };
            println!(
                "{head}: {} ({} rows, {} flushes, {} lost)",
                o.stream_path(path, i),
                stats.rows,
                stats.flushes,
                stats.lost
            );
            // Back-pressure waits depend on timing, so they go to stderr
            // and stdout stays byte-identical across runs.
            eprintln!(
                "{head}: {} of {} flushes waited on the writer",
                stats.waits, stats.flushes
            );
        }
    }
    Ok(())
}

/// Create an output file.
fn create(path: &str) -> Result<BufWriter<File>, String> {
    File::create(path)
        .map(BufWriter::new)
        .map_err(|e| format!("cannot create {path}: {e}"))
}

/// Hold the scrape endpoint open for up to `secs` wall-clock seconds after
/// the run; the last epoch's publish already holds the end-of-run state.
/// Once at least one post-run scrape has been served, exit as soon as the
/// endpoint has been quiet for 250 ms — scrapers typically issue a couple
/// of requests back to back (`/metrics`, `/metrics.json`) and all of them
/// should land before the process goes away.
fn linger(server: Option<Endpoint>, secs: u64) {
    let Some((srv, _)) = server else {
        return;
    };
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

fn main() {
    let mut raw = std::env::args().skip(1).peekable();
    let result = if raw.peek().map(String::as_str) == Some("fleet") {
        raw.next();
        FleetArgs::parse(raw).and_then(|args| run_fleet(&args))
    } else {
        Args::parse(raw).and_then(|args| run_chip_mode(&args))
    };
    match result {
        Err(e) => {
            eprintln!("error: {e}");
            exit(2);
        }
        // An audit violation or a fired alert is a failing exit code.
        Ok(false) => exit(1),
        Ok(true) => {}
    }
}

/// Build the chosen scheme's manager and system and run them.
fn run_chip_mode(args: &Args) -> Result<bool, String> {
    match args.scheme.as_str() {
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
            run_chip(args, AllocationPolicy::Market, PpmManager::new(config))
        }
        "hpm" => {
            let mut config = HpmConfig::new();
            if let Some(w) = args.tdp {
                config = config.with_tdp(Watts(w));
            }
            run_chip(args, AllocationPolicy::Market, HpmManager::new(config))
        }
        "hl" => {
            let mut config = HlConfig::new();
            if let Some(w) = args.tdp {
                config = config.with_tdp(Watts(w));
            }
            run_chip(args, AllocationPolicy::FairWeights, HlManager::new(config))
        }
        other => Err(format!("unknown scheme `{other}`")),
    }
}
