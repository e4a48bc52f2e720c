//! Figures 7a/7b: the priority study.
//!
//! Two demanding tasks — swaptions (native) and bodytrack (native) — are
//! pinned to one core with load balancing and task migration disabled. In
//! Figure 7a both run at priority 1; in 7b swaptions is raised to priority
//! 7. The normalized heart rate of each task is traced against the
//! [0.95, 1.05] goal band.
//!
//! Paper shape: at equal priority both tasks spend ~30 % of time outside
//! the band (29.7 % and 31.1 %); with swaptions at priority 7 it drops to
//! 7.5 % while bodytrack deteriorates to 57 %.

use ppm_core::config::PpmConfig;
use ppm_core::manager::PpmManager;
use ppm_platform::chip::Chip;
use ppm_platform::core::CoreId;
use ppm_platform::units::SimDuration;
use ppm_sched::executor::{AllocationPolicy, Simulation, System};
use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
use ppm_workload::task::{Priority, Task, TaskId};

fn run_case(swaptions_priority: u32) {
    let mut sys = System::new(Chip::tc2(), AllocationPolicy::Market);
    sys.add_task(
        Task::new(
            TaskId(0),
            BenchmarkSpec::of(Benchmark::Swaptions, Input::Native).expect("variant"),
            Priority(swaptions_priority),
        ),
        CoreId(0),
    );
    sys.add_task(
        Task::new(
            TaskId(1),
            BenchmarkSpec::of(Benchmark::Bodytrack, Input::Native).expect("variant"),
            Priority(1),
        ),
        CoreId(0),
    );
    let mgr = PpmManager::new(PpmConfig::tc2().without_lbt());
    let mut sim = Simulation::new(sys, mgr).with_warmup(SimDuration::from_secs(5));

    println!(
        "\n## priorities: swaptions={swaptions_priority}, bodytrack=1  \
         (goal band [0.95, 1.05])\n"
    );
    println!("time_s,swaptions_native,bodytrack_native");
    // One row after the first quantum, then one per second of the 300 s run.
    sim.run_for(SimDuration::from_millis(1));
    for second in 0..300 {
        if second > 0 {
            sim.run_for(SimDuration::from_secs(1));
        }
        let hr = |id: TaskId| sim.system().normalized_heart_rate(id);
        println!("{second},{:.3},{:.3}", hr(TaskId(0)), hr(TaskId(1)));
    }
    // Finish the 300 s run before reading the out-of-range totals.
    sim.run_for(SimDuration::from_millis(999));
    let m = sim.metrics();
    let swap = m.task(TaskId(0)).expect("t0").out_of_range_fraction();
    let body = m.task(TaskId(1)).expect("t1").out_of_range_fraction();
    println!("\nswaptions outside range: {:.1}% of time", swap * 100.0);
    println!("bodytrack outside range: {:.1}% of time", body * 100.0);
}

fn main() {
    println!("# Figure 7 — effect of task priorities (one shared core, LBT off)");
    // 7a: equal priorities (paper: 29.7% / 31.1% outside range).
    run_case(1);
    // 7b: swaptions at priority 7 (paper: 7.5% / 57%).
    run_case(7);
}
