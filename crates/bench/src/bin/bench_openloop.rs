//! Open-loop request-traffic evaluation: the three scenario families
//! (`ol1` Poisson / `ol2` bursty / `ol3` diurnal) under all four schemes
//! with tail-latency metrics, the V64/C8/T16 acceptance cell, and a JSON
//! record (`BENCH_openloop.json`) so future changes have a latency
//! trajectory to compare against.
//!
//! Run with `cargo run --release -p ppm-bench --bin bench_openloop
//! [--check] [--duration-secs N] [out.json]`. `--check` is the CI smoke:
//!
//! 1. the `ol2` arrival tape digest matches its pinned value (the seeded
//!    arrival machinery did not drift),
//! 2. the calibrated PPM-on-`ol2` cell meets its p99 SLO under a 4 W TDP,
//!    auditor-clean.

use std::fmt::Write as _;
use std::time::Instant;

use ppm_bench::{resolve_set, run_workload_hardened, Harness, RunSummary, Scheme};
use ppm_core::config::PpmConfig;
use ppm_core::manager::{place_on_little, PpmManager};
use ppm_platform::chip::synthetic_chip;
use ppm_platform::units::{SimDuration, Watts};
use ppm_sched::executor::{AllocationPolicy, Simulation, System};
use ppm_workload::task::Priority;
use ppm_workload::{ArrivalProcess, OpenLoopFamily};

/// All four schemes: the comparative trio plus the Null control, because
/// an unmanaged queue is the natural latency baseline.
const SCHEMES: [Scheme; 4] = [Scheme::Ppm, Scheme::Hpm, Scheme::Hl, Scheme::Null];

/// The named open-loop families, in family order.
const SETS: [&str; 3] = ["ol1", "ol2", "ol3"];

/// FNV-1a digest of the first 256 `ol2`-template inter-arrival gaps at the
/// pinned seed. Any drift in the seeded arrival machinery (RNG stream,
/// exponential sampler, burst phase logic) lands here first.
const PINNED_OL2_TAPE_DIGEST: u64 = 0x615b_219f_b0be_104f;

/// The TDP of the calibrated cells (the Figure 6 cap).
const TDP: Watts = Watts(4.0);

fn ol2_digest() -> u64 {
    let kind = ppm_workload::bursty_template().arrivals;
    ArrivalProcess::tape_digest(kind, OpenLoopFamily::PINNED_SEED, 256)
}

/// One grid cell: `set` under `scheme` with the auditor attached.
fn cell(set_name: &str, scheme: Scheme, duration: SimDuration) -> (RunSummary, usize) {
    let set = resolve_set(set_name).expect("open-loop set exists");
    let h = run_workload_hardened(
        &set,
        scheme,
        Some(TDP),
        duration,
        Harness {
            audit: true,
            ..Harness::default()
        },
    );
    (h.summary, h.violations.len())
}

/// The acceptance-scale point: one V64/C8 chip (64 alternating clusters ×
/// 8 cores) serving a 16-task bursty family under a TDP at half the LITTLE
/// capacity it needs, auditor attached. Returns `(worst p99/SLO, average
/// power, TDP, violations)`.
fn acceptance_cell(duration: SimDuration) -> (f64, Watts, Watts, usize) {
    let family = OpenLoopFamily {
        tasks: 16,
        ..ppm_workload::bursty_template()
    };
    let set = ppm_workload::openloop_family("ol2-v64", family, OpenLoopFamily::PINNED_SEED);
    let mut sys = System::new(synthetic_chip(64, 8), AllocationPolicy::Market);
    for task in set.spawn(0, Priority::NORMAL) {
        sys.add_task(task, ppm_platform::core::CoreId(0));
    }
    place_on_little(&mut sys);
    let peak: Watts = {
        let chip = sys.chip();
        chip.clusters()
            .iter()
            .map(|cl| chip.power_model().cluster_peak(cl))
            .sum()
    };
    let tdp = peak * 0.5;
    sys.set_tdp_accounting(tdp);
    let mut sim = Simulation::new(sys, PpmManager::new(PpmConfig::tc2_with_tdp(tdp)))
        .with_warmup(SimDuration::from_secs(2))
        .with_auditor();
    sim.run_for(duration);
    let violations = sim.auditor().map_or(0, |a| a.violations().len());
    let worst = {
        let sys = sim.system();
        sys.task_iter()
            .filter_map(|id| sys.task(id).open_loop_snap())
            .map(|o| {
                if o.slo_ms > 0.0 {
                    o.p99_ms / o.slo_ms
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max)
    };
    let avg = sim.into_system().into_metrics().average_power();
    (worst, avg, tdp, violations)
}

fn main() {
    let mut check = false;
    let mut duration_secs: u64 = 60;
    let mut out_path = "BENCH_openloop.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--duration-secs" => {
                duration_secs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--duration-secs needs an integer");
            }
            other => out_path = other.to_string(),
        }
    }

    let digest = ol2_digest();
    assert_eq!(
        digest, PINNED_OL2_TAPE_DIGEST,
        "ol2 arrival tape digest drifted: got {digest:#018x}"
    );

    if check {
        // CI smoke: the calibrated PPM cell.
        let (s, violations) = cell("ol2", Scheme::Ppm, SimDuration::from_secs(20));
        assert_eq!(violations, 0, "PPM ol2 cell has auditor violations");
        assert!(
            s.worst_p99_over_slo > 0.0,
            "no completed requests — p99 never measured"
        );
        assert!(
            s.worst_p99_over_slo <= 1.0,
            "p99 misses the SLO: worst p99/SLO = {:.3}",
            s.worst_p99_over_slo
        );
        assert!(
            s.avg_power.value() <= TDP.value(),
            "average power {} exceeds the {} TDP",
            s.avg_power,
            TDP
        );
        println!(
            "bench_openloop --check ok: tape digest {digest:#018x}, \
             worst p99/SLO {:.3} under {} auditor-clean",
            s.worst_p99_over_slo, TDP
        );
        return;
    }

    let duration = SimDuration::from_secs(duration_secs);
    println!(
        "open-loop grid: {} sets x {} schemes x {duration_secs} s simulated, {} TDP",
        SETS.len(),
        SCHEMES.len(),
        TDP
    );
    let t0 = Instant::now();
    let mut rows: Vec<(RunSummary, usize)> = Vec::new();
    for set in SETS {
        for scheme in SCHEMES {
            let (s, v) = cell(set, scheme, duration);
            println!(
                "  {:>4} {:>4}: p99/SLO {:.3}  shed {:>5}  avg {}  miss {:.3}  violations {v}",
                s.workload,
                s.scheme.name(),
                s.worst_p99_over_slo,
                s.shed,
                s.avg_power,
                s.any_miss
            );
            rows.push((s, v));
        }
    }
    let grid_s = t0.elapsed().as_secs_f64();

    // The acceptance-scale point: V64/C8/T16 bursty traffic, 10 simulated
    // seconds. Meets its SLO, stays under TDP, auditor-clean — or aborts.
    let t2 = Instant::now();
    let (worst, avg, tdp, violations) = acceptance_cell(SimDuration::from_secs(10));
    let accept_s = t2.elapsed().as_secs_f64();
    assert_eq!(violations, 0, "V64/C8/T16 cell has auditor violations");
    assert!(
        worst > 0.0 && worst <= 1.0,
        "V64/C8/T16 p99 misses the SLO: worst p99/SLO = {worst:.3}"
    );
    assert!(
        avg.value() <= tdp.value(),
        "V64/C8/T16 average power {avg} exceeds its {tdp} TDP"
    );
    println!(
        "  V64/C8/T16 ok: worst p99/SLO {worst:.3}, avg {avg} under {tdp} ({accept_s:.1}s wall)"
    );

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"openloop\",\n");
    let _ = writeln!(json, "  \"sim_seconds_per_run\": {duration_secs},");
    let _ = writeln!(json, "  \"tdp_w\": {},", TDP.value());
    let _ = writeln!(json, "  \"ol2_tape_digest\": \"{digest:#018x}\",");
    let _ = writeln!(json, "  \"grid_wall_s\": {grid_s:.3},");
    let _ = writeln!(json, "  \"cells\": [");
    for (i, (s, v)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"set\": \"{}\", \"scheme\": \"{}\", \"p99_over_slo\": {:.6}, \
             \"shed\": {}, \"avg_power_w\": {:.4}, \"any_miss\": {:.6}, \
             \"violations\": {v}}}{comma}",
            s.workload,
            s.scheme.name(),
            s.worst_p99_over_slo,
            s.shed,
            s.avg_power.value(),
            s.any_miss
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"v64_c8_t16\": {{\"p99_over_slo\": {worst:.6}, \"avg_power_w\": {:.4}, \
         \"tdp_w\": {:.4}, \"wall_s\": {accept_s:.3}}}",
        avg.value(),
        tdp.value()
    );
    json.push_str("}\n");
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}
