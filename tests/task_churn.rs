//! Task arrival/exit under the market (§3.2.4: "the stability is perturbed
//! as tasks enter/exit the system … the system will reach a (possibly)
//! different stable state").

use ppm::core::config::PpmConfig;
use ppm::core::manager::{tc2_ppm_system, PpmManager};
use ppm::platform::chip::Chip;
use ppm::platform::cluster::ClusterId;
use ppm::platform::core::CoreId;
use ppm::platform::units::{Money, SimDuration};
use ppm::sched::{AllocationPolicy, Simulation, System};
use ppm::workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
use ppm::workload::task::{Priority, Task, TaskId};

fn spec(b: Benchmark, i: Input) -> BenchmarkSpec {
    BenchmarkSpec::of(b, i).expect("Table 5 variant")
}

#[test]
fn departing_task_frees_supply_for_the_rest() {
    let tasks = vec![
        Task::new(
            TaskId(0),
            spec(Benchmark::Tracking, Input::FullHd),
            Priority(1),
        ),
        Task::new(
            TaskId(1),
            spec(Benchmark::Multicnt, Input::FullHd),
            Priority(1),
        ),
    ];
    let mut sys = System::new(Chip::tc2(), AllocationPolicy::Market);
    // Both on one LITTLE core: 1550 PU of demand vs 1000 max — contention.
    for t in tasks {
        sys.add_task(t, CoreId(0));
    }
    let mgr = PpmManager::new(PpmConfig::tc2().without_lbt());
    let mut sim = Simulation::new(sys, mgr).with_warmup(SimDuration::from_secs(2));
    sim.run_for(SimDuration::from_secs(20));
    let starved = sim
        .system()
        .normalized_heart_rate(TaskId(0))
        .min(sim.system().normalized_heart_rate(TaskId(1)));
    assert!(
        starved < 0.95,
        "contention expected before the exit: {starved}"
    );

    // Task 1 exits; task 0 should recover to its goal.
    sim.system_mut().remove_task(TaskId(1));
    sim.run_for(SimDuration::from_secs(20));
    let hr = sim.system().normalized_heart_rate(TaskId(0));
    assert!(
        hr > 0.9,
        "survivor should reclaim the core after the exit: {hr}"
    );
    assert!(!sim.system().is_active(TaskId(1)));
}

#[test]
fn departed_agent_leaves_the_market() {
    let (sys, mgr) = tc2_ppm_system(
        vec![
            Task::new(TaskId(0), spec(Benchmark::Texture, Input::Vga), Priority(1)),
            Task::new(
                TaskId(1),
                spec(Benchmark::Tracking, Input::Vga),
                Priority(1),
            ),
        ],
        PpmConfig::tc2(),
    );
    let mut sim = Simulation::new(sys, mgr);
    sim.run_for(SimDuration::from_secs(5));
    assert!(sim.manager().market().bid_of(TaskId(1)).is_positive());
    sim.system_mut().remove_task(TaskId(1));
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(sim.manager().market().bid_of(TaskId(1)), Money::ZERO);
    assert_eq!(sim.manager().market().savings_of(TaskId(1)), Money::ZERO);
}

#[test]
fn late_arrival_is_admitted_and_served() {
    let (sys, mgr) = tc2_ppm_system(
        vec![Task::new(
            TaskId(0),
            spec(Benchmark::Blackscholes, Input::Large),
            Priority(1),
        )],
        PpmConfig::tc2(),
    );
    let mut sim = Simulation::new(sys, mgr);
    sim.run_for(SimDuration::from_secs(10));
    // A second task arrives at t = 10 s on the same core.
    sim.system_mut().add_task(
        Task::new(TaskId(1), spec(Benchmark::Texture, Input::Vga), Priority(1)),
        CoreId(0),
    );
    sim.run_for(SimDuration::from_secs(20));
    let m = sim.metrics();
    let late = m.task(TaskId(1)).expect("late arrival observed");
    assert!(
        late.miss_fraction() < 0.30,
        "late arrival should converge to its goal: {:.2}",
        late.miss_fraction()
    );
    // Both tasks near their goals at the end.
    assert!(sim.system().normalized_heart_rate(TaskId(0)) > 0.9);
    assert!(sim.system().normalized_heart_rate(TaskId(1)) > 0.9);
}

#[test]
fn cluster_gates_when_its_last_task_departs() {
    let tasks = vec![
        Task::new(
            TaskId(0),
            spec(Benchmark::Tracking, Input::FullHd),
            Priority(1),
        ),
        Task::new(
            TaskId(1),
            spec(Benchmark::Texture, Input::FullHd),
            Priority(1),
        ),
        Task::new(
            TaskId(2),
            spec(Benchmark::Multicnt, Input::FullHd),
            Priority(1),
        ),
        Task::new(TaskId(3), spec(Benchmark::X264, Input::Native), Priority(1)),
    ];
    let (sys, mgr) = tc2_ppm_system(tasks, PpmConfig::tc2());
    let mut sim = Simulation::new(sys, mgr);
    sim.run_for(SimDuration::from_secs(30));
    // The heavy mix spills to big; removing the big-cluster tasks must
    // eventually re-gate the big cluster.
    let on_big: Vec<TaskId> = sim
        .system()
        .task_ids()
        .into_iter()
        .filter(|&t| {
            sim.system().chip().core(sim.system().core_of(t)).class()
                == ppm::platform::core::CoreClass::Big
        })
        .collect();
    assert!(!on_big.is_empty(), "expected big-cluster residents");
    for t in on_big {
        sim.system_mut().remove_task(t);
    }
    sim.run_for(SimDuration::from_secs(2));
    assert!(
        sim.system().chip().cluster(ClusterId(1)).is_off(),
        "big cluster should gate after its tasks exit"
    );
}

#[test]
fn churn_does_not_destabilise_the_market() {
    // Admit and remove tasks repeatedly; the market must keep serving the
    // survivors and the V-F switching rate must stay bounded.
    let (sys, mgr) = tc2_ppm_system(
        vec![Task::new(
            TaskId(0),
            spec(Benchmark::H264, Input::Soccer),
            Priority(2),
        )],
        PpmConfig::tc2(),
    );
    let mut sim = Simulation::new(sys, mgr).with_warmup(SimDuration::from_secs(2));
    for wave in 0..5usize {
        let core = CoreId(wave % 3);
        let id = TaskId(wave + 1);
        sim.system_mut().add_task(
            Task::new(id, spec(Benchmark::Blackscholes, Input::Large), Priority(1)),
            core,
        );
        sim.run_for(SimDuration::from_secs(5));
        sim.system_mut().remove_task(id);
        sim.run_for(SimDuration::from_secs(3));
    }
    let m = sim.metrics();
    let resident = m.task(TaskId(0)).expect("resident task observed");
    assert!(
        resident.miss_fraction() < 0.35,
        "resident task starved through churn: {:.2}",
        resident.miss_fraction()
    );
    assert!(
        m.vf_transitions < 60,
        "churn caused V-F thrash: {} transitions",
        m.vf_transitions
    );
}
