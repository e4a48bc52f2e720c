//! Property-based tests on the substrate invariants: allocation, heartbeat
//! accounting, V-F tables, PELT, the LBT estimator, the executor's lazily
//! captured task section, and its heartbeat windows against per-task
//! reference monitors.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use ppm::baselines::hl::{HlConfig, HlManager};
use ppm::baselines::hpm::{HpmConfig, HpmManager};
use ppm::core::config::PpmConfig;
use ppm::core::lbt::{constrained_core_scan, RemoteCluster, TaskSnapshot};
use ppm::core::manager::PpmManager;
use ppm::obs::PhaseProfiler;
use ppm::platform::chip::Chip;
use ppm::platform::cluster::ClusterId;
use ppm::platform::core::{CoreClass, CoreId};
use ppm::platform::faults::{FaultConfig, FaultPlan};
use ppm::platform::units::{MegaHertz, Money, Price, ProcessingUnits, SimDuration, SimTime, Watts};
use ppm::platform::vf::{linear_table, VfLevel};
use ppm::sched::runqueue::{fair_allocate, market_allocate, Claimant};
use ppm::sched::{
    ActuationPlan, AllocationPolicy, NullManager, PeltTracker, PowerManager, Simulation, System,
    SystemSnapshot,
};
use ppm::workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
use ppm::workload::heartbeat::HeartbeatWindows;
use ppm::workload::perclass::PerClass;
use ppm::workload::sets::table6_sets;
use ppm::workload::task::{Priority, Task, TaskId};

fn claimants() -> impl Strategy<Value = Vec<Claimant>> {
    proptest::collection::vec(
        (1u32..100_000, 0.0f64..1500.0, 1.0f64..2000.0).prop_map(|(w, s, c)| Claimant {
            task: TaskId(0),
            weight: w,
            share: ProcessingUnits(s),
            cap: ProcessingUnits(c),
        }),
        1..12,
    )
    .prop_map(|mut v| {
        for (i, c) in v.iter_mut().enumerate() {
            c.task = TaskId(i);
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fair allocation never over-commits the supply and never exceeds a
    /// claimant's cap.
    #[test]
    fn fair_allocation_is_feasible(claims in claimants(), supply in 0.0f64..2000.0) {
        let grants = fair_allocate(ProcessingUnits(supply), &claims);
        let total: f64 = grants.iter().map(|g| g.value()).sum();
        prop_assert!(total <= supply + 1e-6, "over-committed: {total} > {supply}");
        for (g, c) in grants.iter().zip(&claims) {
            prop_assert!(g.value() <= c.cap.value() + 1e-9);
            prop_assert!(g.value() >= 0.0);
        }
    }

    /// Fair allocation is work-conserving: if any claimant still has cap
    /// headroom, the supply is fully consumed.
    #[test]
    fn fair_allocation_is_work_conserving(claims in claimants(), supply in 1.0f64..2000.0) {
        let grants = fair_allocate(ProcessingUnits(supply), &claims);
        let total: f64 = grants.iter().map(|g| g.value()).sum();
        let cap_total: f64 = claims.iter().map(|c| c.cap.value()).sum();
        let expected = supply.min(cap_total);
        prop_assert!((total - expected).abs() < 1e-6,
            "left supply on the table: {total} vs {expected}");
    }

    /// Market allocation scales proportionally under over-subscription.
    #[test]
    fn market_allocation_respects_shares(claims in claimants(), supply in 1.0f64..2000.0) {
        let grants = market_allocate(ProcessingUnits(supply), &claims);
        let share_total: f64 = claims.iter().map(|c| c.share.value()).sum();
        for (g, c) in grants.iter().zip(&claims) {
            prop_assert!(g.value() <= c.cap.value() + 1e-9);
            let entitled = if share_total > supply && share_total > 0.0 {
                c.share.value() * supply / share_total
            } else {
                c.share.value()
            };
            prop_assert!(g.value() <= entitled + 1e-6);
        }
    }

    /// Heartbeat accounting conserves work: executing C cycles in a steady
    /// phase yields exactly C / cycles-per-beat heartbeats.
    #[test]
    fn heartbeats_conserve_cycles(ms in 1u64..200, supply in 50.0f64..1200.0) {
        let spec = BenchmarkSpec::of(Benchmark::Blackscholes, Input::Native).unwrap();
        let cpb = spec.cycles_per_heartbeat(CoreClass::Little);
        let mut task = Task::new(TaskId(0), spec, Priority(1));
        let cycles = ProcessingUnits(supply).cycles_over(SimDuration::from_millis(ms));
        let beats = task.execute(cycles, CoreClass::Little, SimTime::from_millis(ms));
        prop_assert!((beats - cycles.value() / cpb).abs() < 1e-6);
        prop_assert!((task.total_cycles().value() - cycles.value()).abs() < 1e-9);
    }

    /// Work is class-consistent: the same cycles produce `speedup`× more
    /// beats on a big core.
    #[test]
    fn speedup_is_consistent(supply in 50.0f64..1000.0) {
        let spec = BenchmarkSpec::of(Benchmark::Swaptions, Input::Native).unwrap();
        let speedup = spec.speedup();
        let mut little = Task::new(TaskId(0), spec.clone(), Priority(1));
        let mut big = Task::new(TaskId(1), spec, Priority(1));
        let cycles = ProcessingUnits(supply).cycles_over(SimDuration::from_millis(50));
        let b_l = little.execute(cycles, CoreClass::Little, SimTime::from_millis(50));
        let b_b = big.execute(cycles, CoreClass::Big, SimTime::from_millis(50));
        prop_assert!((b_b / b_l - speedup).abs() / speedup < 0.05);
    }

    /// `level_for_demand` always returns a level whose supply covers the
    /// demand when one exists, and the smallest such level.
    #[test]
    fn vf_level_selection_rounds_up(lo in 100u32..500, span in 100u32..2000, steps in 2usize..10,
                                    demand in 0.0f64..3000.0) {
        let table = linear_table(MegaHertz(lo), MegaHertz(lo + span), steps);
        let level = table.level_for_demand(ProcessingUnits(demand));
        let supply = table.point(level).supply();
        let max = table.max().supply();
        if demand <= max.value() {
            prop_assert!(supply.value() >= demand);
            if level.0 > 0 {
                let below = table.point(ppm::platform::vf::VfLevel(level.0 - 1)).supply();
                prop_assert!(below.value() < demand, "not minimal");
            }
        } else {
            prop_assert_eq!(supply, max);
        }
    }

    /// PELT stays in [0, 1] and converges to a constant input.
    #[test]
    fn pelt_is_bounded_and_convergent(fraction in 0.0f64..1.0, steps in 1usize..3000) {
        let mut p = PeltTracker::new();
        for _ in 0..steps {
            p.update(SimDuration::from_millis(1), fraction);
            prop_assert!((0.0..=1.0).contains(&p.load()));
        }
        if steps > 1000 {
            prop_assert!((p.load() - fraction).abs() < 0.01);
        }
    }

    /// The constrained-core scan never invents a better-than-perfect ratio
    /// and always returns a task/cluster that exists.
    #[test]
    fn scan_results_are_well_formed(
        n_tasks in 1usize..16,
        n_clusters in 1usize..8,
        seed in 0u64..1000,
    ) {
        // Deterministic pseudo-random values from the seed (xorshift).
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s % 1000) as f64
        };
        let tasks: Vec<TaskSnapshot> = (0..n_tasks)
            .map(|i| TaskSnapshot {
                id: TaskId(i),
                priority: 1 + (next() as u32 % 8),
                demand: PerClass::new(
                    ProcessingUnits(10.0 + next() % 50.0),
                    ProcessingUnits(5.0 + next() % 30.0),
                ),
                supply: ProcessingUnits(10.0 + next() % 50.0),
                bid: Money(0.1 + next() / 1000.0),
            })
            .collect();
        let remotes: Vec<RemoteCluster> = (0..n_clusters)
            .map(|i| RemoteCluster {
                class: if i % 2 == 0 { CoreClass::Little } else { CoreClass::Big },
                price: Price(0.001 + next() / 1e5),
                level: 2,
                ladder: vec![
                    ProcessingUnits(300.0),
                    ProcessingUnits(500.0),
                    ProcessingUnits(700.0),
                    ProcessingUnits(900.0),
                ],
                cores: (0..4).map(|_| (ProcessingUnits(next() % 600.0), 4u32)).collect(),
            })
            .collect();
        let r = constrained_core_scan(&tasks, &remotes, 0.2).expect("non-empty inputs");
        prop_assert!(r.task.0 < n_tasks);
        prop_assert!(r.cluster < n_clusters);
        prop_assert!(r.core < 4);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&r.ratio));
        prop_assert!(r.spend.value() >= 0.0);
    }
}

/// Wraps a manager for the lazy-capture checks. Every hook the executor
/// calls here is forwarded to `inner`. With `eager` set, the task section
/// is asked for on every quantum. `woke` records whether the inner hook
/// asked for it this quantum: the hook reads only the manager's state and
/// the snapshot's platform sections, neither of which changes between the
/// hook and `plan`, so asking again in `plan` gives the same answer.
struct Probe<M> {
    inner: M,
    eager: bool,
    woke: bool,
}

impl<M: PowerManager> PowerManager for Probe<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, sys: &mut System) {
        self.inner.init(sys);
    }

    fn reads_tasks(&self, snap: &SystemSnapshot) -> bool {
        self.eager || self.inner.reads_tasks(snap)
    }

    fn plan(
        &mut self,
        snap: &SystemSnapshot,
        plan: &mut ActuationPlan,
        prof: Option<&mut PhaseProfiler>,
    ) {
        self.woke = self.inner.reads_tasks(snap);
        self.inner.plan(snap, plan, prof);
    }
}

/// A TC2 system running the `set`-th Table 6 set, its tasks spread over
/// the LITTLE cores.
fn tc2_with_set(set: usize) -> System {
    let sets = table6_sets();
    let mut sys = System::new(Chip::tc2(), AllocationPolicy::Market);
    for (i, task) in sets[set % sets.len()]
        .spawn(0, Priority::NORMAL)
        .into_iter()
        .enumerate()
    {
        sys.add_task(task, CoreId(i % 3));
    }
    sys
}

/// Runs the system and manager `make` builds twice in lockstep, one
/// quantum at a time: once
/// with the task section captured lazily, once eagerly. On every quantum
/// where the lazy run's hook asked for the tasks or its tape gained a
/// record, its snapshot must equal the eager one. Both runs see the same
/// fault streams, so they stay in step as long as no decision differs;
/// the tapes must match at the end. Returns how many quanta were compared.
fn lazy_matches_eager<M: PowerManager>(
    make: impl Fn() -> (System, M),
    faults: Option<FaultConfig>,
    quanta: usize,
) -> Result<usize, TestCaseError> {
    let build = |eager: bool| {
        let (sys, inner) = make();
        let probe = Probe {
            inner,
            eager,
            woke: false,
        };
        let sim = Simulation::new(sys, probe).with_tape();
        match &faults {
            Some(fc) => sim.with_faults(FaultPlan::new(fc.clone())),
            None => sim,
        }
    };
    let (mut lazy, mut eager) = (build(false), build(true));
    let quantum = lazy.quantum();
    let mut compared = 0;
    for q in 0..quanta {
        let records = lazy.tape().map_or(0, |t| t.records().len());
        lazy.run_for(quantum);
        eager.run_for(quantum);
        let taped = lazy.tape().map_or(0, |t| t.records().len()) > records;
        if !(lazy.manager().woke || taped) {
            continue;
        }
        compared += 1;
        let (l, e) = (lazy.snapshot(), eager.snapshot());
        prop_assert_eq!(l.digest(), e.digest(), "quantum {}: digest", q);
        prop_assert_eq!(l.now, e.now, "quantum {}", q);
        prop_assert_eq!(
            format!("{:?} {:?}", l.chip_power, l.hottest),
            format!("{:?} {:?}", e.chip_power, e.hottest),
            "quantum {}: chip section",
            q
        );
        prop_assert_eq!(
            format!("{:?}", l.tasks),
            format!("{:?}", e.tasks),
            "quantum {}: task section",
            q
        );
        prop_assert_eq!(
            format!("{:?}", l.cores),
            format!("{:?}", e.cores),
            "quantum {}: core section",
            q
        );
        prop_assert_eq!(
            format!("{:?}", l.clusters),
            format!("{:?}", e.clusters),
            "quantum {}: cluster section",
            q
        );
    }
    let render = |sim: &Simulation<Probe<M>>| sim.tape().map(|t| t.render()).unwrap_or_default();
    prop_assert!(render(&lazy) == render(&eager), "the tapes diverged");
    Ok(compared)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At every quantum that reads the task section or writes a tape
    /// record, the lazily maintained snapshot equals an eager capture of
    /// the same system, for PPM, HPM and HL on TC2 under random caps, with
    /// and without faults (task crashes included).
    #[test]
    fn lazy_task_capture_matches_eager_capture(
        scheme in 0usize..3,
        set in 0usize..9,
        tdp in 2.0f64..6.0,
        faulted in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        let faults = faulted.then(|| FaultConfig {
            task_crash_prob: 2e-3,
            ..FaultConfig::harsh(seed)
        });
        let quanta = 1500;
        let tdp = Watts(tdp);
        let sys = || tc2_with_set(set);
        let compared = match scheme {
            0 => lazy_matches_eager(
                || (sys(), PpmManager::new(PpmConfig::tc2_with_tdp(tdp))),
                faults,
                quanta,
            )?,
            1 => lazy_matches_eager(
                || (sys(), HpmManager::new(HpmConfig::new().with_tdp(tdp))),
                faults,
                quanta,
            )?,
            _ => lazy_matches_eager(
                || (sys(), HlManager::new(HlConfig::new().with_tdp(tdp))),
                faults,
                quanta,
            )?,
        };
        // Every scheme wakes at least every 100 ms.
        prop_assert!(compared >= quanta / 100, "only {} quanta compared", compared);
    }
}

/// Never asks for the task section, records the task section it sees on
/// every quantum, and queues a no-op DVFS request (a non-empty plan, hence
/// a tape record when taped) on the quanta in `act_at`.
struct Sleeper {
    act_at: Vec<usize>,
    quantum: usize,
    seen: Vec<String>,
}

impl PowerManager for Sleeper {
    fn name(&self) -> &'static str {
        "sleeper"
    }

    fn reads_tasks(&self, _snap: &SystemSnapshot) -> bool {
        false
    }

    fn plan(
        &mut self,
        snap: &SystemSnapshot,
        plan: &mut ActuationPlan,
        _prof: Option<&mut PhaseProfiler>,
    ) {
        self.seen.push(format!("{:?}", snap.tasks));
        if self.act_at.contains(&self.quantum) {
            let level = snap.cluster(ClusterId(0)).level;
            plan.request_level(ClusterId(0), VfLevel(level));
        }
        self.quantum += 1;
    }
}

/// Guards the laziness itself: a manager whose hook always says no sees a
/// task section that only a tape record ever refreshes, although the
/// live tasks change every quantum.
#[test]
fn a_task_section_nobody_reads_is_not_refreshed() {
    let quanta = 200;
    let run = |taped: bool| {
        let sleeper = Sleeper {
            act_at: vec![5, 100],
            quantum: 0,
            seen: Vec::new(),
        };
        let mut sim = Simulation::new(tc2_with_set(0), sleeper);
        if taped {
            sim = sim.with_tape();
        }
        sim.run_for(SimDuration::from_millis(quanta));
        sim
    };

    let untaped = run(false);
    assert_eq!(untaped.manager().seen.len(), quanta as usize);
    assert!(
        untaped.manager().seen.iter().all(|s| s == "[]"),
        "an untaped run never captures the task section"
    );

    let taped = run(true);
    assert_eq!(taped.tape().map(|t| t.records().len()), Some(2));
    let seen = &taped.manager().seen;
    assert!(seen[..=5].iter().all(|s| s == "[]"));
    assert_ne!(seen[6], "[]", "the record at quantum 5 captured the tasks");
    assert!(
        seen[6..=100].iter().all(|s| *s == seen[6]),
        "refreshed between tape records"
    );
    assert_ne!(
        seen[101], seen[6],
        "the record at quantum 100 refreshed them"
    );
    assert!(
        seen[101..].iter().all(|s| *s == seen[101]),
        "refreshed after the last tape record"
    );
    let mut live = SystemSnapshot::new();
    live.capture(taped.system());
    assert_ne!(format!("{:?}", live.tasks), seen[101], "the tasks moved on");
}

/// The per-task sliding-window monitor each task used to carry, verbatim:
/// the reference for the executor's time-major heartbeat windows.
mod reference {
    use std::collections::VecDeque;

    use ppm::platform::units::{SimDuration, SimTime};

    /// Sliding-window heart-rate monitor.
    ///
    /// Tasks register cumulative heartbeat counts; the monitor reports the rate
    /// over the most recent window (default 1 s, configurable), mirroring how the
    /// HRM infrastructure smooths instantaneous rates.
    #[derive(Debug, Clone)]
    pub struct HeartbeatMonitor {
        window: SimDuration,
        /// `(time, cumulative beats, cumulative cycles)` samples.
        samples: VecDeque<(SimTime, f64, f64)>,
        total: f64,
        total_cycles: f64,
    }

    impl HeartbeatMonitor {
        /// Default smoothing window.
        pub const DEFAULT_WINDOW: SimDuration = SimDuration(500_000);

        /// Monitor with the default window.
        pub fn new() -> HeartbeatMonitor {
            HeartbeatMonitor::with_window(Self::DEFAULT_WINDOW)
        }

        /// Monitor with a custom smoothing window.
        ///
        /// # Panics
        ///
        /// Panics on a zero window.
        pub fn with_window(window: SimDuration) -> HeartbeatMonitor {
            assert!(!window.is_zero(), "window must be positive");
            HeartbeatMonitor {
                window,
                samples: VecDeque::new(),
                total: 0.0,
                total_cycles: 0.0,
            }
        }

        /// Record that `beats` (possibly fractional) heartbeats completed by
        /// time `now` while consuming `cycles` processor cycles. Calls must use
        /// non-decreasing `now`.
        pub fn record(&mut self, now: SimTime, beats: f64, cycles: f64) {
            self.total += beats;
            self.total_cycles += cycles;
            self.samples.push_back((now, self.total, self.total_cycles));
            let horizon = now.as_micros().saturating_sub(self.window.as_micros());
            // Keep one sample at or before the horizon so the rate spans the
            // whole window.
            while self.samples.len() > 2 && self.samples[1].0.as_micros() <= horizon {
                self.samples.pop_front();
            }
        }

        /// Cumulative heartbeats observed.
        pub fn total(&self) -> f64 {
            self.total
        }

        /// Heart rate (hb/s) over the current window; zero before two samples.
        pub fn heart_rate(&self) -> f64 {
            let (first, last) = match (self.samples.front(), self.samples.back()) {
                (Some(f), Some(l)) if l.0 > f.0 => (f, l),
                _ => return 0.0,
            };
            let dt = last.0.since(first.0).as_secs_f64();
            (last.1 - first.1) / dt
        }

        /// Observed cycles per heartbeat over the window, or `None` before a
        /// meaningful number of beats has been seen.
        ///
        /// This is the robust form of the Table 4 conversion: with supply and
        /// heart rate averaged over the *same* interval,
        /// `s̄/h̄ = cycles/beats`, so `d = target_hr · cost / 10⁶` is immune to
        /// the lag between an instantaneous supply change and the smoothed
        /// heart rate.
        pub fn cost_per_beat(&self) -> Option<f64> {
            let (first, last) = match (self.samples.front(), self.samples.back()) {
                (Some(f), Some(l)) if l.0 > f.0 => (f, l),
                _ => return None,
            };
            let beats = last.1 - first.1;
            if beats < 0.5 {
                return None; // starved or just admitted: no reliable estimate
            }
            Some((last.2 - first.2) / beats)
        }

        /// The smoothing window.
        pub fn window(&self) -> SimDuration {
            self.window
        }

        /// Drop all history (e.g. across a migration, where the old rate is not
        /// representative of the new core).
        pub fn reset_window(&mut self) {
            self.samples.clear();
        }
    }

    impl Default for HeartbeatMonitor {
        fn default() -> Self {
            HeartbeatMonitor::new()
        }
    }
}

/// A task replayed beside the simulation with its own reference monitor.
struct Replayed {
    task: Task,
    monitor: reference::HeartbeatMonitor,
}

/// Admit a closed-loop task of the `bench`-th kind on TC2 core `core`, and
/// a copy of it to replay.
fn admit(
    sim: &mut Simulation<NullManager>,
    replayed: &mut Vec<Replayed>,
    bench: usize,
    core: usize,
) {
    let kinds = [
        (Benchmark::Blackscholes, Input::Large),
        (Benchmark::Swaptions, Input::Large),
        (Benchmark::Texture, Input::Vga),
        (Benchmark::X264, Input::Native),
        (Benchmark::Bodytrack, Input::Native),
        (Benchmark::Tracking, Input::Vga),
    ];
    let (b, input) = kinds[bench % kinds.len()];
    let spec = BenchmarkSpec::of(b, input).expect("variant");
    let task = Task::new(TaskId(replayed.len()), spec, Priority(1));
    sim.system_mut().add_task(task.clone(), CoreId(core % 5));
    replayed.push(Replayed {
        task,
        monitor: reference::HeartbeatMonitor::new(),
    });
}

/// Run `duration` one quantum at a time, as `run_for` steps (whole quanta,
/// then what is left), replaying each task beside the simulation, and
/// compare every task's window readings with its reference monitor after
/// each quantum.
fn run_compared(
    sim: &mut Simulation<NullManager>,
    replayed: &mut [Replayed],
    duration: u64,
) -> Result<(), TestCaseError> {
    let quantum = sim.quantum().as_micros();
    let mut left = duration;
    while left > 0 {
        let dt = SimDuration(left.min(quantum));
        left -= dt.as_micros();
        let stalled: Vec<bool> = (0..replayed.len())
            .map(|i| sim.system().is_stalled(TaskId(i)))
            .collect();
        sim.run_for(dt);
        let sys = sim.system();
        let end = sys.now();
        for (i, r) in replayed.iter_mut().enumerate() {
            let id = TaskId(i);
            if !sys.is_active(id) {
                // Removed: its monitor is frozen.
            } else if stalled[i] {
                r.task.record_idle(end);
                r.monitor.record(end, 0.0, 0.0);
            } else {
                let class = sys.chip().core(sys.core_of(id)).class();
                let cycles = sys.granted(id).cycles_over(dt);
                let beats = r.task.execute(cycles, class, end);
                r.monitor.record(end, beats, cycles.value());
            }
            prop_assert_eq!(
                sys.heart_rate(id).to_bits(),
                r.monitor.heart_rate().to_bits(),
                "{} at {}: heart rate",
                id,
                end
            );
            prop_assert_eq!(
                sys.cost_per_beat(id).map(f64::to_bits),
                r.monitor.cost_per_beat().map(f64::to_bits),
                "{} at {}: cost per beat",
                id,
                end
            );
            prop_assert_eq!(
                sys.task(id).total_heartbeats().to_bits(),
                r.monitor.total().to_bits(),
                "{} at {}: total heartbeats",
                id,
                end
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On every quantum, each task's heart rate, cost per beat and total
    /// heartbeats read from the executor's time-major windows have the bits
    /// of a per-task reference monitor fed the same records: under
    /// admissions mid-run, removals (a removed task keeps the values it had
    /// at removal), migrations (which reset the window, removed tasks
    /// included), their stalls, and `run_for` durations that end in a
    /// partial quantum. A warm-up of whole quanta first fills the ring, so
    /// the denser rows after it make it grow while wrapped; on a 250 µs
    /// grid the horizon often falls exactly on a row.
    #[test]
    fn heartbeat_windows_match_the_reference_monitors(
        initial in proptest::collection::vec((0usize..6, 0usize..5), 1..6),
        warm_ms in 0u64..1_000,
        grid in proptest::bool::ANY,
        events in proptest::collection::vec(
            (0u8..6, 0usize..32, 0usize..6, proptest::bool::ANY, 1u64..40_000),
            1..120,
        ),
    ) {
        let mut sim = Simulation::new(
            System::new(Chip::tc2(), AllocationPolicy::FairWeights),
            NullManager,
        );
        let mut replayed = Vec::new();
        for &(bench, core) in &initial {
            admit(&mut sim, &mut replayed, bench, core);
        }
        prop_assert_eq!(replayed[0].monitor.window(), HeartbeatWindows::WINDOW);
        run_compared(&mut sim, &mut replayed, warm_ms * 1_000)?;
        for &(kind, task, arg, short, duration) in &events {
            let id = TaskId(task % replayed.len());
            match kind {
                0 => admit(&mut sim, &mut replayed, arg, task),
                1 => sim.system_mut().remove_task(id),
                2 if sim.system_mut().migrate(id, CoreId(arg % 5)).is_some() => {
                    replayed[id.0].monitor.reset_window();
                }
                _ => {}
            }
            // Short runs crowd a window with rows.
            let mut duration = if short { duration % 200 + 1 } else { duration };
            if grid {
                duration = duration.div_ceil(250) * 250;
            }
            run_compared(&mut sim, &mut replayed, duration)?;
        }
    }
}
