//! Telemetry layer integration: attaching the recorder + profiler is
//! observation-only (all 18 golden cells stay bit-identical), the exported
//! artifacts are well-formed (CSV shape, Chrome trace JSON, JSONL), and the
//! ring-buffer accounting holds when a run outlives its capacity.

use std::fs;
use std::path::PathBuf;

use ppm::obs::json::{self, Json};
use ppm::obs::{csv_header, write_chrome_trace, write_csv, write_jsonl, Phase, Telemetry};
use ppm::platform::units::{SimDuration, Watts};
use ppm::workload::sets::set_by_name;
use ppm_bench::{run_workload_hardened, HardenedRun, Harness, Scheme};

/// The golden-suite grid (tests/goldens.rs): 3 sets × 3 schemes × 2 figures.
const SETS: [&str; 3] = ["l1", "m2", "h3"];
const DURATION: SimDuration = SimDuration(8_000_000);

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens")
}

fn instrumented(set_name: &str, scheme: Scheme, tdp: Option<Watts>) -> HardenedRun {
    let set = set_by_name(set_name).expect("known workload set");
    run_workload_hardened(
        &set,
        scheme,
        tdp,
        DURATION,
        Harness {
            tape: true,
            profile: true,
            ..Harness::default()
        },
    )
}

/// The acceptance gate of the telemetry layer: with the recorder AND the
/// phase profiler attached, every golden cell still produces byte-identical
/// summary + actuation tape. Profiling reads the monotonic clock, so this
/// also proves wall-clock observation never leaks into simulated behaviour.
#[test]
fn all_golden_cells_are_bit_identical_with_telemetry_on() {
    for (fig, tdp) in [("fig4_fig5", None), ("fig6", Some(Watts(4.0)))] {
        for set in SETS {
            for scheme in Scheme::ALL {
                let name = format!("{fig}_{set}_{}.tape", scheme.name().to_lowercase());
                let committed = fs::read_to_string(goldens_dir().join(&name))
                    .unwrap_or_else(|e| panic!("missing golden {name} ({e})"));
                let run = instrumented(set, scheme, tdp);
                let fresh = format!("{:?}\n{}", run.summary, run.tape);
                assert_eq!(
                    committed, fresh,
                    "telemetry must be observation-only, but {name} drifted"
                );
                // And the instrumentation actually ran.
                let tel = run.telemetry.expect("telemetry attached");
                assert_eq!(tel.recorder.rows() as u64, DURATION.0 / 1000);
                assert!(tel.profiler.total_count() > 0);
            }
        }
    }
}

/// The aggregation + alert plane is observation-only too: with tumbling
/// windowed rollups AND the burn-rate alert engine folding every quantum,
/// all 22 golden tapes (the 18 figure cells plus the 4 open-loop ol2
/// cells) stay byte-identical — and the windows demonstrably closed.
#[test]
fn all_golden_cells_are_bit_identical_with_aggregation_and_alerts() {
    let observed = || Harness {
        tape: true,
        alerts: true,
        ..Harness::default()
    };
    let check = |name: &str, run: &HardenedRun| {
        let committed = fs::read_to_string(goldens_dir().join(name))
            .unwrap_or_else(|e| panic!("missing golden {name} ({e})"));
        let fresh = format!("{:?}\n{}", run.summary, run.tape);
        assert_eq!(
            committed, fresh,
            "aggregation/alerting must be observation-only, but {name} drifted"
        );
        let tel = run.telemetry.as_ref().expect("telemetry attached");
        let agg = tel.aggregate.as_ref().expect("aggregation attached");
        // 8 s of quanta over 1 s windows: exactly 7 closed, one live.
        assert_eq!(agg.windows_closed(), 7, "{name}: windows did not tumble");
        assert_eq!(agg.totals().quanta, DURATION.0 / 1000);
        tel.alerts.as_ref().expect("alert engine attached");
    };
    for (fig, tdp) in [("fig4_fig5", None), ("fig6", Some(Watts(4.0)))] {
        for set_name in SETS {
            for scheme in Scheme::ALL {
                let name = format!("{fig}_{set_name}_{}.tape", scheme.name().to_lowercase());
                let set = set_by_name(set_name).expect("known workload set");
                let run = run_workload_hardened(&set, scheme, tdp, DURATION, observed());
                check(&name, &run);
            }
        }
    }
    for scheme in [Scheme::Ppm, Scheme::Hpm, Scheme::Hl, Scheme::Null] {
        let name = format!("openloop_ol2_{}.tape", scheme.name().to_lowercase());
        let set = ppm_bench::resolve_set("ol2").expect("ol2");
        let run = run_workload_hardened(&set, scheme, Some(Watts(4.0)), DURATION, observed());
        check(&name, &run);
    }
}

/// Attaching the scrape endpoint — hub, server thread, a snapshot
/// published after every trading epoch, and concurrent HTTP scrapes while
/// the simulation runs — must not perturb the trajectory: a chip served
/// the way `ppm-sim --serve` serves it (a one-chip fleet publishing
/// through `run_publishing`) produces the tape of an identical unobserved
/// standalone run.
#[test]
fn live_scrape_endpoint_is_observation_only() {
    use ppm::core::config::PpmConfig;
    use ppm::core::manager::{place_on_little, PpmManager};
    use ppm::fleet::{trace::run_publishing, Fleet};
    use ppm::platform::chip::Chip;
    use ppm::platform::core::CoreId;
    use ppm::sched::{AllocationPolicy, Simulation, System};
    use ppm::workload::task::Priority;

    let build = || {
        let mut sys = System::new(Chip::tc2(), AllocationPolicy::Market);
        let set = set_by_name("m2").expect("m2 exists");
        for task in set.spawn(0, Priority::NORMAL) {
            sys.add_task(task, CoreId(0));
        }
        place_on_little(&mut sys);
        Simulation::new(sys, PpmManager::new(PpmConfig::tc2())).with_tape()
    };

    let mut plain = build();
    plain.run_for(SimDuration::from_secs(2));

    let hub = ppm::obs::SnapshotHub::new();
    let server = ppm::obs::ScrapeServer::serve("127.0.0.1:0", hub.clone()).expect("bind");
    let addr = server.local_addr().to_string();
    let mut observed = Fleet::lone(
        build().with_telemetry(Telemetry::new(256).with_aggregation(100_000).with_alerts()),
    );
    // Scrape between epochs so requests land while windows are closing.
    let epoch = observed.epoch();
    for _ in 0..20 {
        run_publishing(&mut observed, epoch, &hub);
        ppm::obs::http::fetch(&addr, "/metrics").expect("mid-run scrape");
    }
    assert!(server.served() >= 20);
    assert_eq!(hub.version(), 20, "one publish per epoch");
    let text = ppm::obs::http::fetch(&addr, "/metrics").expect("final scrape");
    assert!(text.contains("ppm_up 1"));
    assert!(text.contains("ppm_windows_closed_total{chip=\"fleet\"} 19"));
    assert!(text.contains("ppm_windows_closed_total{chip=\"chip 0\"} 19"));

    let a = plain.tape().expect("tape").render();
    let b = observed.chip(0).sim().tape().expect("tape").render();
    assert!(!a.is_empty());
    assert_eq!(a, b, "serving live snapshots perturbed the simulation");
}

/// CSV export: one row per quantum, a header naming the figure-grade
/// columns, and every row rectangular.
#[test]
fn csv_has_one_row_per_quantum_and_the_expected_columns() {
    let run = instrumented("l1", Scheme::Ppm, None);
    let tel = run.telemetry.expect("telemetry attached");
    let header = csv_header(&tel.recorder);
    for needle in [
        "t_s",
        "chip_power_w",
        "tdp_headroom_w",
        "allowance",
        "money_supply",
        "sensor_fallbacks",
        "ph_market_bid_ns",
        "cl0_freq_mhz",
        "cl1_power_w",
        "core0_price",
        "core0_supply_pu",
        "task0_share_pu",
        "task0_hr_norm",
        "obs_dropped_rows",
        "obs_alerts_firing",
        "obs_stream_rows",
        "obs_stream_lost",
        "obs_stream_flushes",
    ] {
        assert!(header.contains(needle), "header misses {needle}: {header}");
    }

    let mut buf = Vec::new();
    write_csv(&tel.recorder, &mut buf).expect("write csv");
    let text = String::from_utf8(buf).expect("utf8");
    let mut lines = text.lines();
    let cols = lines.next().expect("header line").split(',').count();
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len() as u64, DURATION.0 / 1000, "one row per quantum");
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.split(',').count(), cols, "row {i} not rectangular");
    }
    // Steady-state PPM rows carry real data: prices and power present.
    let last = rows.last().expect("rows");
    let cells: Vec<&str> = last.split(',').collect();
    let col_of = |name: &str| {
        header
            .split(',')
            .position(|h| h == name)
            .unwrap_or_else(|| panic!("no column {name}"))
    };
    let power: f64 = cells[col_of("chip_power_w")].parse().expect("power cell");
    assert!(power > 0.0);
    assert!(!cells[col_of("core0_price")].is_empty(), "price recorded");
}

/// Chrome trace export parses as JSON and contains well-formed complete
/// (`"ph":"X"`) span events for the executor phases plus finite counters.
#[test]
fn chrome_trace_is_valid_and_spans_are_complete_events() {
    let run = instrumented("l1", Scheme::Ppm, None);
    let tel = run.telemetry.expect("telemetry attached");
    let mut buf = Vec::new();
    write_chrome_trace(&tel.recorder, &mut buf, 1).expect("write trace");
    let doc = json::parse(&String::from_utf8(buf).expect("utf8")).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut spans = 0usize;
    let mut counters = 0usize;
    let mut phase_names = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        match ph {
            "X" => {
                spans += 1;
                let dur = ev.get("dur").and_then(Json::as_num).expect("dur");
                let ts = ev.get("ts").and_then(Json::as_num).expect("ts");
                assert!(dur >= 0.0 && ts >= 0.0);
                phase_names.insert(ev.get("name").and_then(Json::as_str).expect("name"));
            }
            "C" => {
                counters += 1;
                let Some(Json::Obj(args)) = ev.get("args") else {
                    panic!("counter without args object")
                };
                assert!(!args.is_empty());
                for v in args.values() {
                    let n = v.as_num().expect("counter values are numbers");
                    assert!(n.is_finite());
                }
            }
            "M" => {}
            other => panic!("unexpected event type {other:?}"),
        }
    }
    assert!(spans > 0 && counters > 0);
    for phase in [Phase::Capture, Phase::Plan, Phase::Apply, Phase::Step] {
        assert!(
            phase_names.contains(phase.name()),
            "missing {} spans",
            phase.name()
        );
    }
    // PPM actuates, so every plan sub-phase must appear too.
    for phase in [
        Phase::MarketBid,
        Phase::MarketPrice,
        Phase::MarketDvfs,
        Phase::Lbt,
    ] {
        assert!(
            phase_names.contains(phase.name()),
            "missing {} spans",
            phase.name()
        );
    }
}

/// JSONL export: every line is a standalone JSON object with a timestamp.
#[test]
fn jsonl_parses_line_by_line() {
    let run = instrumented("m2", Scheme::Hpm, Some(Watts(4.0)));
    let tel = run.telemetry.expect("telemetry attached");
    let mut buf = Vec::new();
    write_jsonl(&tel.recorder, &mut buf).expect("write jsonl");
    let text = String::from_utf8(buf).expect("utf8");
    let mut lines = 0u64;
    for line in text.lines() {
        let row = json::parse(line).expect("valid JSON line");
        let t = row.get("t_s").and_then(Json::as_num).expect("t_s");
        assert!(t >= 0.0);
        lines += 1;
    }
    assert_eq!(lines, DURATION.0 / 1000);
    // HPM rolls sensor fallbacks into the degradation counters; without
    // faults they stay zero — but the column must exist and parse.
    let first = json::parse(text.lines().next().expect("rows")).expect("row");
    assert_eq!(
        first
            .get("sensor_fallbacks")
            .and_then(Json::as_num)
            .expect("sensor_fallbacks"),
        0.0
    );
}

/// When a run outlives the ring capacity the recorder keeps the most recent
/// rows, counts the overwritten ones, and timestamps stay monotonic.
#[test]
fn ring_wrap_keeps_the_most_recent_quanta() {
    use ppm::core::config::PpmConfig;
    use ppm::core::manager::{place_on_little, PpmManager};
    use ppm::platform::chip::Chip;
    use ppm::platform::core::CoreId;
    use ppm::sched::{AllocationPolicy, Simulation, System};
    use ppm::workload::task::Priority;

    let mut sys = System::new(Chip::tc2(), AllocationPolicy::Market);
    let set = set_by_name("l1").expect("l1 exists");
    for task in set.spawn(0, Priority::NORMAL) {
        sys.add_task(task, CoreId(0));
    }
    place_on_little(&mut sys);
    let mut sim =
        Simulation::new(sys, PpmManager::new(PpmConfig::tc2())).with_telemetry(Telemetry::new(100));
    sim.run_for(SimDuration::from_secs(1));

    let tel = sim.take_telemetry().expect("telemetry attached");
    assert_eq!(tel.recorder.rows(), 100);
    assert_eq!(tel.recorder.total_rows(), 1000);
    assert_eq!(tel.recorder.dropped(), 900);
    let times: Vec<u64> = tel
        .recorder
        .row_indices()
        .map(|i| tel.recorder.time_us(i))
        .collect();
    assert_eq!(times.len(), 100);
    assert!(times.windows(2).all(|w| w[0] < w[1]), "oldest-first order");
    // The retained window is exactly the last 100 quanta.
    assert_eq!(*times.last().expect("rows"), 999_000);
}

/// The recorder exports its own health: dropped-row totals and the
/// stream's rows/lost/flush counters land in the `obs_*` columns, so an
/// exported file carries the evidence of its own completeness.
#[test]
fn obs_self_metrics_report_drops_and_stream_totals() {
    use ppm::core::config::PpmConfig;
    use ppm::core::manager::{place_on_little, PpmManager};
    use ppm::obs::{StreamFormat, TelemetryStream};
    use ppm::platform::chip::Chip;
    use ppm::platform::core::CoreId;
    use ppm::sched::{AllocationPolicy, Simulation, System};
    use ppm::workload::task::Priority;

    let mut sys = System::new(Chip::tc2(), AllocationPolicy::Market);
    let set = set_by_name("l1").expect("l1 exists");
    for task in set.spawn(0, Priority::NORMAL) {
        sys.add_task(task, CoreId(0));
    }
    place_on_little(&mut sys);
    let mut sim = Simulation::new(sys, PpmManager::new(PpmConfig::tc2()))
        .with_telemetry(Telemetry::new(100))
        .with_stream(TelemetryStream::with_writer(
            std::io::sink(),
            StreamFormat::Csv,
            64,
        ));
    sim.run_for(SimDuration::from_secs(1));

    let tel = sim.take_telemetry().expect("telemetry attached");
    let mut buf = Vec::new();
    write_jsonl(&tel.recorder, &mut buf).expect("write jsonl");
    let text = String::from_utf8(buf).expect("utf8");
    let last = json::parse(text.lines().last().expect("rows")).expect("row");
    let num = |key: &str| {
        last.get(key)
            .and_then(Json::as_num)
            .unwrap_or_else(|| panic!("missing {key} in jsonl row"))
    };
    // 1000 quanta through a 100-row ring: the last row knows 900 dropped.
    assert_eq!(num("obs_dropped_rows"), tel.recorder.dropped() as f64);
    assert_eq!(num("obs_dropped_rows"), 900.0);
    // Stream stats are sampled before the row is recorded, so the final
    // row reports at least everything pumped up to the previous quantum.
    assert!(num("obs_stream_rows") >= 64.0, "stream rows under-reported");
    assert_eq!(num("obs_stream_lost"), 0.0);
    assert!(num("obs_stream_flushes") >= 1.0);
    // No alert engine attached: the firing gauge stays zero.
    assert_eq!(num("obs_alerts_firing"), 0.0);
}

/// A `Write` sink the test can read back after the stream's writer thread
/// has been joined.
#[derive(Clone, Default)]
struct SharedSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("sink lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The `l1` set on TC2 under PPM, tasks placed on LITTLE.
fn l1_sim() -> ppm::sched::Simulation<ppm::core::manager::PpmManager> {
    use ppm::core::config::PpmConfig;
    use ppm::core::manager::{place_on_little, PpmManager};
    use ppm::platform::chip::Chip;
    use ppm::platform::core::CoreId;
    use ppm::sched::{AllocationPolicy, Simulation, System};
    use ppm::workload::task::Priority;

    let mut sys = System::new(Chip::tc2(), AllocationPolicy::Market);
    for task in set_by_name("l1")
        .expect("l1 exists")
        .spawn(0, Priority::NORMAL)
    {
        sys.add_task(task, CoreId(0));
    }
    place_on_little(&mut sys);
    Simulation::new(sys, PpmManager::new(PpmConfig::tc2()))
}

/// A stream reads the telemetry's recorder; attached without one it would
/// write nothing, so attaching it is refused outright.
#[test]
#[should_panic(expected = "with_stream needs telemetry attached first")]
fn stream_without_telemetry_panics() {
    use ppm::obs::{StreamFormat, TelemetryStream};
    let _ = l1_sim().with_stream(TelemetryStream::with_writer(
        std::io::sink(),
        StreamFormat::Csv,
        64,
    ));
}

/// The stream is part of the telemetry: taking the telemetry out of the
/// simulation takes the stream along, and finishing it there delivers
/// every row of the run, the unflushed tail included.
#[test]
fn taken_telemetry_finishes_its_stream_whole() {
    use ppm::obs::{StreamFormat, TelemetryStream};
    let sink = SharedSink::default();
    let mut sim =
        l1_sim()
            .with_telemetry(Telemetry::new(256))
            .with_stream(TelemetryStream::with_writer(
                sink.clone(),
                StreamFormat::Csv,
                64,
            ));
    sim.run_for(SimDuration::from_secs(1));
    let mut tel = sim.take_telemetry().expect("telemetry attached");
    assert!(
        sim.finish_stream().is_none(),
        "the stream left with the telemetry"
    );
    let stats = tel
        .finish_stream()
        .expect("stream attached")
        .expect("writer clean");
    assert_eq!((stats.rows, stats.lost), (1000, 0));
    let text = String::from_utf8(sink.0.lock().expect("sink lock").clone()).expect("utf-8");
    assert_eq!(text.lines().count(), 1 + 1000, "header + every quantum");
}

/// FNV-1a (64-bit) over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Stream the seeded `ol2` serving cell — TC2 at 4 W under PPM with a
/// 4096-row ring, 1 s aggregation, the default burn-rate alerts, and
/// 64-row flushes — into memory for 6 sim-s (the ring wraps), returning
/// the streamed bytes and the stream totals.
fn stream_ol2(format: ppm::obs::StreamFormat) -> (Vec<u8>, ppm::obs::StreamStats) {
    use ppm::core::config::PpmConfig;
    use ppm::core::manager::{place_on_little, PpmManager};
    use ppm::obs::{TelemetryStream, DEFAULT_AGG_WINDOW_US};
    use ppm::platform::chip::Chip;
    use ppm::platform::core::CoreId;
    use ppm::sched::{AllocationPolicy, Simulation, System};
    use ppm::workload::task::Priority;
    use ppm::workload::{bursty_template, openloop_family};

    let tdp = Watts(4.0);
    let set = openloop_family("ol2", bursty_template(), 1303);
    let mut sys = System::new(Chip::tc2(), AllocationPolicy::Market);
    for task in set.spawn(0, Priority::NORMAL) {
        sys.add_task(task, CoreId(0));
    }
    place_on_little(&mut sys);
    sys.set_tdp_accounting(tdp);
    let sink = SharedSink::default();
    let tel = Telemetry::new(4096)
        .with_aggregation(DEFAULT_AGG_WINDOW_US)
        .with_alerts();
    let mut sim = Simulation::new(sys, PpmManager::new(PpmConfig::tc2_with_tdp(tdp)))
        .with_telemetry(tel)
        .with_stream(TelemetryStream::with_writer(sink.clone(), format, 64));
    sim.run_for(SimDuration::from_secs(6));
    let stats = sim
        .finish_stream()
        .expect("stream attached")
        .expect("writer clean");
    let bytes = sink.0.lock().expect("sink lock").clone();
    (bytes, stats)
}

/// The streamed bytes of the real serving workload are pinned: any change
/// to the row serializers (caching, buffer reuse, number formatting) must
/// reproduce them exactly, for both formats.
#[test]
fn ol2_stream_bytes_are_pinned() {
    use ppm::obs::StreamFormat;

    for (format, digest) in [
        (StreamFormat::Jsonl, 12_675_621_358_017_408_072),
        (StreamFormat::Csv, 13_920_699_874_424_794_978),
    ] {
        let (bytes, stats) = stream_ol2(format);
        assert_eq!((stats.rows, stats.lost), (6000, 0), "{format:?}");
        assert_eq!(
            fnv1a(&bytes),
            digest,
            "{format:?} stream drifted ({} bytes)",
            bytes.len()
        );
    }
}
