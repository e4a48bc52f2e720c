//! Wall-clock cost of the 27-run comparative grid (9 Table 6 sets × 3
//! schemes), serial vs parallel, and a JSON record (`BENCH_sweep.json`) so
//! future changes have a perf trajectory to compare against. The parallel pass must reproduce the
//! serial summaries bit-for-bit; any divergence aborts the bench.
//!
//! Run with `cargo run --release -p ppm-bench --bin bench_sweep
//! [--check] [--duration-secs N] [--threads N] [out.json]`. `--check` is
//! the quick CI smoke: two short runs, parallel vs serial equality only,
//! no JSON. `--threads` overrides the worker count (default: host cores);
//! the JSON records both `host_cores` and `threads` so an oversubscribed
//! record reads as what it is.

use std::fmt::Write as _;
use std::time::Instant;

use ppm_bench::sweep::{comparative_grid, default_threads, sweep_parallel, sweep_serial};
use ppm_bench::RunSummary;
use ppm_platform::units::SimDuration;

fn assert_identical(serial: &[RunSummary], parallel: &[RunSummary]) {
    assert_eq!(serial.len(), parallel.len(), "result count diverged");
    for (i, (s, p)) in serial.iter().zip(parallel).enumerate() {
        assert_eq!(
            s,
            p,
            "job {i} ({}/{}) diverged between serial and parallel",
            s.workload,
            s.scheme.name()
        );
    }
}

fn main() {
    let mut check = false;
    let mut duration_secs: u64 = 120;
    let mut threads: Option<usize> = None;
    let mut out_path = "BENCH_sweep.json".to_string();
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
            "--threads" => {
                threads = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .expect("--threads needs an integer >= 1"),
                );
            }
            other => out_path = other.to_string(),
        }
    }
    let host_cores = default_threads();
    let threads = threads.unwrap_or(host_cores);
    if threads > host_cores {
        eprintln!(
            "warning: --threads {threads} exceeds {host_cores} host core(s); \
             the parallel pass will oversubscribe and mostly measure scheduling"
        );
    }

    if check {
        // Quick smoke: the first two grid cells at 2 simulated seconds,
        // parallel (forced multi-thread) against serial.
        let jobs: Vec<_> = comparative_grid(None, SimDuration::from_secs(2))
            .into_iter()
            .take(2)
            .collect();
        let serial = sweep_serial(&jobs);
        let parallel = sweep_parallel(&jobs, threads.max(2));
        assert_identical(&serial, &parallel);
        println!(
            "bench_sweep --check ok: {} runs, parallel == serial",
            jobs.len()
        );
        return;
    }

    let duration = SimDuration::from_secs(duration_secs);
    let jobs = comparative_grid(None, duration);
    println!(
        "comparative grid: {} runs × {duration_secs} s simulated, \
         {threads} thread(s) on {host_cores} host core(s)",
        jobs.len()
    );

    let t0 = Instant::now();
    let serial = sweep_serial(&jobs);
    let serial_s = t0.elapsed().as_secs_f64();
    println!("serial:   {serial_s:.3} s");

    let t1 = Instant::now();
    let parallel = sweep_parallel(&jobs, threads);
    let parallel_s = t1.elapsed().as_secs_f64();
    println!("parallel: {parallel_s:.3} s ({threads} threads)");

    assert_identical(&serial, &parallel);
    let speedup = serial_s / parallel_s;
    println!("speedup:  {speedup:.2}x (parallel == serial bit-for-bit)");
    // Golden-diffable dump of every summary, in grid order. `{:?}` prints
    // f64s in shortest round-trip form, so any behavior change shows.
    for s in &serial {
        println!("{s:?}");
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"comparative_sweep\",\n  \"unit\": \"seconds\",\n");
    let _ = writeln!(json, "  \"runs\": {},", jobs.len());
    let _ = writeln!(json, "  \"sim_seconds_per_run\": {duration_secs},");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"serial_s\": {serial_s:.3},");
    let _ = writeln!(json, "  \"parallel_s\": {parallel_s:.3},");
    let _ = writeln!(json, "  \"speedup\": {speedup:.3}");
    json.push_str("}\n");
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}
