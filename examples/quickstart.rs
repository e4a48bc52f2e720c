//! Quickstart: run the price-theory power manager on a TC2 big.LITTLE chip
//! with two tasks and watch the market settle.
//!
//! ```sh
//! cargo run --release -p ppm --example quickstart
//! ```

use ppm::core::config::PpmConfig;
use ppm::core::manager::tc2_ppm_system;
use ppm::platform::units::SimDuration;
use ppm::sched::Simulation;
use ppm::workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
use ppm::workload::task::{Priority, Task, TaskId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two applications with heartbeat QoS goals: a video encoder and an
    // option-pricing batch job.
    let tasks = vec![
        Task::new(
            TaskId(0),
            BenchmarkSpec::of(Benchmark::X264, Input::Large)?,
            Priority(2),
        ),
        Task::new(
            TaskId(1),
            BenchmarkSpec::of(Benchmark::Blackscholes, Input::Large)?,
            Priority(1),
        ),
    ];

    // A TC2 chip (3×A7 + 2×A15) managed by the paper's PPM framework.
    let (sys, mgr) = tc2_ppm_system(tasks, PpmConfig::tc2());
    let mut sim = Simulation::new(sys, mgr).with_warmup(SimDuration::from_secs(2));

    println!("t[s]  power[W]  A7-level  A15  x264-hr  blackscholes-hr");
    for step in 1..=15 {
        sim.run_for(SimDuration::from_secs(2));
        let s = sim.system();
        let levels: Vec<String> = s
            .chip()
            .clusters()
            .iter()
            .map(|c| {
                if c.is_off() {
                    "off".to_string()
                } else {
                    format!("{}", c.point().frequency)
                }
            })
            .collect();
        println!(
            "{:>4}  {:>8.2}  {:>8}  {:>4}  {:>7.2}  {:>15.2}",
            step * 2,
            s.chip_power().value(),
            levels[0],
            levels[1],
            s.normalized_heart_rate(TaskId(0)),
            s.normalized_heart_rate(TaskId(1)),
        );
    }

    let m = sim.metrics();
    println!("\naverage power: {}", m.average_power());
    println!(
        "x264 QoS misses: {:.1}% of time",
        m.task(TaskId(0)).map_or(0.0, |t| t.miss_fraction()) * 100.0
    );
    println!(
        "market: {} (both tasks fit the LITTLE cluster, so the big cluster \
         stays power-gated)",
        sim.manager().market()
    );
    Ok(())
}
