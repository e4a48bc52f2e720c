//! The framework beyond TC2: PPM running live on larger synthetic chips.
//! §5.5 argues the distributed design scales; these tests run the whole
//! closed loop (not just the LBT scan) on bigger topologies.

use ppm::core::config::PpmConfig;
use ppm::core::manager::{place_on_little, PpmManager};
use ppm::platform::chip::{synthetic_chip, Chip};
use ppm::platform::core::CoreId;
use ppm::platform::units::{ProcessingUnits, SimDuration, Watts};
use ppm::sched::{AllocationPolicy, Simulation, System};
use ppm::workload::benchmarks::BenchmarkSpec;
use ppm::workload::heartbeat::HeartRateRange;
use ppm::workload::phase::Phase;
use ppm::workload::task::{Priority, Task, TaskId};
use ppm::workload::{bursty_template, openloop_family, OpenLoopFamily};

/// A PPM config whose TDP suits the chip: 90 % of the modelled peak (the
/// default TC2 numbers would put a 30 W-class synthetic chip permanently
/// into the emergency state).
fn config_for(chip: &Chip) -> PpmConfig {
    let peak: f64 = chip
        .clusters()
        .iter()
        .map(|c| chip.power_model().cluster_peak(c).value())
        .sum();
    let mut c = PpmConfig::tc2_with_tdp(Watts(peak * 0.9));
    c.threshold = Watts(peak * 0.8);
    c
}

/// Deterministic xorshift for workload synthesis.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn random_task(id: usize, seed: &mut u64) -> Task {
    let hr = 10.0 + (xorshift(seed) % 20) as f64;
    let demand = 100.0 + (xorshift(seed) % 500) as f64;
    let speedup = 1.5 + (xorshift(seed) % 8) as f64 / 10.0;
    let swing = (xorshift(seed) % 25) as f64 / 100.0;
    let spec = BenchmarkSpec::custom(
        HeartRateRange::new(hr * 0.95, hr * 1.05),
        ProcessingUnits(demand),
        speedup,
        vec![
            Phase::new(hr * 20.0, 1.0 - swing),
            Phase::new(hr * 20.0, 1.0 + swing),
        ],
        None,
    );
    Task::new(TaskId(id), spec, Priority(1 + (xorshift(seed) % 4) as u32))
}

#[test]
fn ppm_drives_an_eight_cluster_chip() {
    let chip = synthetic_chip(8, 4); // 8 clusters x 4 cores = 32 cores
    let config = config_for(&chip);
    let n_cores = chip.cores().len();
    let mut sys = System::new(chip, AllocationPolicy::Market);
    let mut seed = 0xC0FFEE;
    for i in 0..48 {
        let task = random_task(i, &mut seed);
        sys.add_task(task, CoreId(i % n_cores));
    }
    let mut sim =
        Simulation::new(sys, PpmManager::new(config)).with_warmup(SimDuration::from_secs(5));
    sim.run_for(SimDuration::from_secs(30));
    let m = sim.metrics();
    // 48 modest tasks across 32 cores: the market must serve the large
    // majority of heartbeat goals.
    assert!(
        m.any_miss_fraction() < 0.5,
        "any-miss {:.2} on the 8-cluster chip",
        m.any_miss_fraction()
    );
    let missed_badly = sim
        .system()
        .task_ids()
        .iter()
        .filter(|&&t| m.task(t).is_some_and(|x| x.miss_fraction() > 0.5))
        .count();
    assert!(
        missed_badly <= 4,
        "{missed_badly} of 48 tasks starved on the 8-cluster chip"
    );
}

#[test]
fn ppm_works_on_per_core_dvfs_chips() {
    // Degenerate heterogeneity: a homogeneous 4-core chip with per-core
    // regulators. Every market mechanism must still function.
    use ppm::platform::core::CoreClass;
    use ppm::platform::units::MegaHertz;
    let chip = Chip::per_core_dvfs(4, CoreClass::Little, MegaHertz(350), MegaHertz(1400));
    let config = config_for(&chip);
    let mut sys = System::new(chip, AllocationPolicy::Market);
    let mut seed = 0xBEEF;
    for i in 0..6 {
        sys.add_task(random_task(i, &mut seed), CoreId(i % 4));
    }
    let mut sim =
        Simulation::new(sys, PpmManager::new(config)).with_warmup(SimDuration::from_secs(5));
    sim.run_for(SimDuration::from_secs(30));
    assert!(
        sim.metrics().any_miss_fraction() < 0.4,
        "any-miss {:.2} on the per-core-DVFS chip",
        sim.metrics().any_miss_fraction()
    );
}

#[test]
fn ppm_works_on_the_tegra_preset() {
    let chip = Chip::tegra_4plus1();
    let config = config_for(&chip);
    let mut sys = System::new(chip, AllocationPolicy::Market);
    let mut seed = 0xFEED;
    for i in 0..5 {
        sys.add_task(random_task(i, &mut seed), CoreId(0));
    }
    let mut sim =
        Simulation::new(sys, PpmManager::new(config)).with_warmup(SimDuration::from_secs(5));
    sim.run_for(SimDuration::from_secs(30));
    assert!(
        sim.metrics().any_miss_fraction() < 0.4,
        "any-miss {:.2} on Tegra 4+1",
        sim.metrics().any_miss_fraction()
    );
}

/// The open-loop acceptance cell at many-core scale: one V64/C8 chip (64
/// alternating clusters × 8 cores) serving a 16-task bursty family for
/// 10 s, auditor attached. The TDP is half the whole-chip peak; the chip
/// draws far less, so the cap never binds — the cell gates the SLO and
/// the auditor on a many-core chip, not TDP enforcement.
#[test]
fn v64_c8_t16_bursty_cell_meets_its_slo_auditor_clean() {
    let family = OpenLoopFamily {
        tasks: 16,
        ..bursty_template()
    };
    let set = openloop_family("ol2-v64", family, OpenLoopFamily::PINNED_SEED);
    let mut sys = System::new(synthetic_chip(64, 8), AllocationPolicy::Market);
    for task in set.spawn(0, Priority::NORMAL) {
        sys.add_task(task, CoreId(0));
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
    sim.run_for(SimDuration::from_secs(10));
    let violations = sim.auditor().map_or(0, |a| a.violations().len());
    assert_eq!(violations, 0, "V64/C8/T16 cell has auditor violations");
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
    assert!(
        worst > 0.0 && worst <= 1.0,
        "V64/C8/T16 p99 misses the SLO: worst p99/SLO = {worst:.3}"
    );
    let avg = sim.into_system().into_metrics().average_power();
    assert!(
        avg <= tdp,
        "V64/C8/T16 average power {avg} exceeds its {tdp} TDP"
    );
}
