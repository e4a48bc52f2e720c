//! Figure 8: the savings study.
//!
//! Swaptions (native) and x264 (native) run at equal priority on one core
//! with load balancing and migration disabled. x264 starts in a dormant
//! phase (~100 s at its target rate) during which it exceeds its goal and
//! banks allowance; entering its active phase it spends the savings to
//! outbid swaptions, sustaining its raised demand until the savings run
//! out, after which its heart rate collapses.
//!
//! The run prints the normalized heart-rate trace of both tasks and x264's
//! savings balance over time, plus per-segment averages.

use ppm_core::config::PpmConfig;
use ppm_core::manager::PpmManager;
use ppm_platform::chip::Chip;
use ppm_platform::core::CoreId;
use ppm_platform::units::SimDuration;
use ppm_sched::executor::{AllocationPolicy, Simulation, System};
use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
use ppm_workload::task::{Priority, Task, TaskId};

fn main() {
    println!("# Figure 8 — transient benefit of savings (one shared core, LBT off)");
    let mut sys = System::new(Chip::tc2(), AllocationPolicy::Market);
    sys.add_task(
        Task::new(
            TaskId(0),
            BenchmarkSpec::of(Benchmark::Swaptions, Input::Native).expect("variant"),
            Priority(1),
        ),
        CoreId(0),
    );
    sys.add_task(
        Task::new(
            TaskId(1),
            BenchmarkSpec::of(Benchmark::X264, Input::Native).expect("variant"),
            Priority(1),
        ),
        CoreId(0),
    );
    // Generous savings cap so the dormant phase can bank a meaningful
    // war-chest ("the ideal factor for capping is determined by the
    // designer", §3.2.3).
    let mut config = PpmConfig::tc2().without_lbt();
    config.savings_cap_factor = 10.0;
    let mgr = PpmManager::new(config);
    let mut sim = Simulation::new(sys, mgr).with_warmup(SimDuration::from_secs(5));

    println!("\ntime_s,swaptions_native,x264_native,x264_savings");
    let mut segments: Vec<(f64, f64, f64)> = Vec::new(); // (t, hr_swap, hr_x264)
    for _ in 0..600 {
        sim.run_for(SimDuration::from_secs(1));
        let t = sim.system().now().as_secs_f64();
        let hr0 = sim.system().normalized_heart_rate(TaskId(0));
        let hr1 = sim.system().normalized_heart_rate(TaskId(1));
        let savings = sim.manager().market().savings_of(TaskId(1));
        println!("{:.0},{:.3},{:.3},{:.3}", t, hr0, hr1, savings.value());
        segments.push((t, hr0, hr1));
    }

    let mean = |lo: f64, hi: f64, idx: usize| -> f64 {
        let v: Vec<f64> = segments
            .iter()
            .filter(|(t, _, _)| *t >= lo && *t < hi)
            .map(|s| if idx == 0 { s.1 } else { s.2 })
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    println!("\n## segment means (normalized heart rate)\n");
    println!("| segment | swaptions | x264 |");
    println!("|---|---|---|");
    for (lo, hi, label) in [
        (5.0, 95.0, "dormant (x264 saves)"),
        (95.0, 125.0, "transition (savings spent)"),
        (125.0, 600.0, "active, savings exhausted"),
    ] {
        println!(
            "| {label} ({lo:.0}-{hi:.0}s) | {:.2} | {:.2} |",
            mean(lo, hi, 0),
            mean(lo, hi, 1)
        );
    }
    println!(
        "\nPaper shape: x264 above its goal before ~100 s, propped up by \
         savings entering the active phase, and unsustainable once the \
         savings run out. NOTE: the funded stretch here is much shorter \
         than the paper's ~200 s — under Eq. 1 an unsatisfiable task's bid \
         races to its cap a+m within seconds, and bidding the full cap \
         liquidates the savings by definition (m' = m + a − (a+m) = 0). A \
         200 s war chest requires the bid to exceed the allowance by only \
         ~0.1%, i.e. near-marginal contention; see EXPERIMENTS.md."
    );
}
