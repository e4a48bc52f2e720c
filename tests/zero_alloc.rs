//! Proof of the hot-path invariants: a steady-state `Market::round_into`
//! AND a steady-state executor quantum (snapshot capture → manager plan →
//! plan application → `System::step`) perform **zero heap allocation**.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! phase (which is allowed to grow the slot arenas, scratch buffers, the
//! decision buffer, the snapshot and the plan), a block of further
//! rounds/quanta must not touch the allocator at all. The test binary is
//! dedicated to this check so the global allocator override cannot interfere
//! with other integration tests. The allocator counts per thread as well as
//! in total, so an allocation on the thread that runs the block fails the
//! first measured window; the stream proofs read the stream writer
//! thread's own count through its sink.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ppm::core::config::PpmConfig;
use ppm::core::market::{ClusterObs, CoreObs, Market, MarketDecision, MarketObs, TaskObs};
use ppm::platform::cluster::ClusterId;
use ppm::platform::core::CoreId;
use ppm::platform::units::{ProcessingUnits, SimDuration, Watts};
use ppm::workload::task::TaskId;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations made by the current thread. Const-initialised and
    /// without a destructor, so reading it never allocates itself.
    static THREAD_ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count(&self) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        THREAD_ALLOC_CALLS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: delegates every operation to the system allocator unchanged; the
// counters are a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations on every thread.
fn allocations() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Allocations on the calling thread.
fn thread_allocations() -> u64 {
    THREAD_ALLOC_CALLS.with(Cell::get)
}

/// The `#[test]`s below share the one global counter, and the libtest
/// harness runs tests on concurrent threads: serialise them so none
/// measures another's allocations.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Assert `block` performs zero allocations. One on the calling thread
/// fails at once. One seen only on other threads is retried up to twice:
/// the gate serialises the *tests*, but the libtest harness itself still
/// bookkeeps finished tests and spawns waiting ones on other threads, and
/// those allocations land in the global counter. A genuine allocation on
/// a thread the block drives reproduces on every retry; harness noise does
/// not.
fn assert_no_alloc(what: &str, mut block: impl FnMut()) {
    for attempt in 0..3 {
        let (before, own_before) = (allocations(), thread_allocations());
        block();
        let own = thread_allocations() - own_before;
        assert_eq!(
            own, 0,
            "{what}: {own} allocation(s) on the measuring thread in the steady-state block"
        );
        let delta = allocations() - before;
        if delta == 0 {
            return;
        }
        assert!(
            attempt < 2,
            "{what}: {delta} allocation(s) on other threads in every steady-state block"
        );
    }
}

/// A (v clusters × c cores × t tasks/core) snapshot with varied demands.
fn obs(v: usize, c: usize, t: usize) -> MarketObs {
    let mut tasks = Vec::new();
    let mut cores = Vec::new();
    for cl in 0..v {
        for co in 0..c {
            let core = CoreId(cl * c + co);
            cores.push(CoreObs {
                id: core,
                cluster: ClusterId(cl),
            });
            for k in 0..t {
                tasks.push(TaskObs {
                    id: TaskId(tasks.len()),
                    core,
                    priority: 1 + (tasks.len() % 8) as u32,
                    demand: ProcessingUnits(10.0 + ((tasks.len() * 7 + k) % 41) as f64),
                });
            }
        }
    }
    MarketObs {
        chip_power: Watts(2.0),
        tasks,
        cores,
        clusters: (0..v)
            .map(|cl| ClusterObs {
                id: ClusterId(cl),
                supply: ProcessingUnits(600.0),
                supply_up: Some(ProcessingUnits(700.0)),
                supply_down: Some(ProcessingUnits(500.0)),
                power: Watts(2.0 / v as f64),
            })
            .collect(),
    }
}

#[test]
fn steady_state_market_round_does_not_allocate() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let snapshot = obs(4, 4, 8);
    let mut market = Market::new(PpmConfig::tc2());
    let mut out = MarketDecision::default();

    // Warm-up: arena growth, scratch sizing, output-buffer capacity, and
    // enough rounds for bids/prices/DVFS dynamics to reach regime.
    for _ in 0..50 {
        market.round_into(&snapshot, &mut out, None);
    }

    assert_no_alloc("steady-state rounds", || {
        for _ in 0..100 {
            market.round_into(&snapshot, &mut out, None);
        }
    });
    // Sanity: the rounds actually ran an economy.
    assert_eq!(out.tasks.len(), snapshot.tasks.len());
    assert!(out.allowance.value() > 0.0);

    // Also steady under demand drift (same populations, different numbers):
    // only values change, so capacities hold and no allocation happens.
    let mut drifting = snapshot.clone();
    assert_no_alloc("demand-drift rounds", || {
        for round in 0..100 {
            for (i, t) in drifting.tasks.iter_mut().enumerate() {
                t.demand = ProcessingUnits(10.0 + ((i * 13 + round * 5) % 41) as f64);
            }
            market.round_into(&drifting, &mut out, None);
        }
    });

    // Shrinking the task set must also be free (buffers only ever shrink
    // logically); idle rounds included.
    let mut shrunk = snapshot.clone();
    shrunk.tasks.truncate(8);
    assert_no_alloc("shrinking and idle rounds", || {
        for _ in 0..50 {
            market.round_into(&shrunk, &mut out, None);
        }
        shrunk.tasks.clear();
        for _ in 0..50 {
            market.round_into(&shrunk, &mut out, None);
        }
    });
}

/// The churn path — demand changes every round plus agent
/// removal/re-admission — must also be allocation-free once the arenas and
/// the free list are warm.
#[test]
fn market_churn_rounds_do_not_allocate_after_warmup() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut snapshot = obs(4, 4, 8);
    let mut market = Market::new(PpmConfig::tc2());
    let mut out = MarketDecision::default();

    // Warm-up includes one remove/re-admit cycle so the free list reaches
    // its steady capacity alongside the arenas.
    for _ in 0..50 {
        market.round_into(&snapshot, &mut out, None);
    }
    market.remove_task(TaskId(3));
    for _ in 0..4 {
        market.round_into(&snapshot, &mut out, None);
    }

    assert_no_alloc("churn rounds", || {
        for round in 0..100u64 {
            // Per-round demand churn; periodic agent churn exercises the
            // slot free list.
            let k = (round as usize * 17) % snapshot.tasks.len();
            let t = &mut snapshot.tasks[k];
            let delta = if round % 2 == 0 { 1.0 } else { -1.0 };
            t.demand = ProcessingUnits((t.demand.value() + delta).max(1.0));
            if round % 10 == 0 {
                market.remove_task(TaskId(k));
            }
            market.round_into(&snapshot, &mut out, None);
        }
    });
    assert_eq!(out.tasks.len(), snapshot.tasks.len());
}

/// A manager that plans every quantum — shares cycle between two values and
/// the LITTLE cluster's level toggles — so the proof covers snapshot
/// capture, planning, plan application (shares + DVFS) and `System::step`,
/// not just an idle executor.
struct TogglingManager {
    flip: bool,
}

impl ppm::sched::PowerManager for TogglingManager {
    fn name(&self) -> &'static str {
        "toggling"
    }

    fn plan(
        &mut self,
        snap: &ppm::sched::SystemSnapshot,
        plan: &mut ppm::sched::ActuationPlan,
        _prof: Option<&mut ppm::obs::PhaseProfiler>,
    ) {
        for t in &snap.tasks {
            plan.set_share(t.id, ProcessingUnits(if self.flip { 140.0 } else { 220.0 }));
        }
        let cl = snap.cluster(ClusterId(0));
        let level = if self.flip {
            cl.step_down()
        } else {
            cl.step_up()
        };
        plan.request_level(ClusterId(0), ppm::platform::vf::VfLevel(level));
        self.flip = !self.flip;
    }
}

/// Six TC2 tasks of mixed benchmarks and priorities 1–3, ids 0..6.
fn tc2_task_mix() -> Vec<ppm::workload::task::Task> {
    use ppm::workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm::workload::task::{Priority, Task};

    let benches = [
        (Benchmark::Blackscholes, Input::Large),
        (Benchmark::Swaptions, Input::Large),
        (Benchmark::Texture, Input::Vga),
        (Benchmark::X264, Input::Native),
        (Benchmark::Bodytrack, Input::Native),
        (Benchmark::Tracking, Input::Vga),
    ];
    benches
        .into_iter()
        .enumerate()
        .map(|(i, (b, input))| {
            Task::new(
                TaskId(i),
                BenchmarkSpec::of(b, input).expect("variant"),
                Priority(1 + (i % 3) as u32),
            )
        })
        .collect()
}

#[test]
fn steady_state_executor_quantum_does_not_allocate() {
    use ppm::platform::chip::Chip;
    use ppm::sched::{AllocationPolicy, Simulation, System as SimSystem};

    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut sys = SimSystem::new(Chip::tc2(), AllocationPolicy::Market);
    for (i, task) in tc2_task_mix().into_iter().enumerate() {
        sys.add_task(task, CoreId(i % 5));
    }
    let mut sim = Simulation::new(sys, TogglingManager { flip: false });

    // Warm-up: snapshot/plan/scratch buffers size themselves, heartbeat
    // windows fill to their steady length, PELT and DVFS reach regime.
    sim.run_for(SimDuration::from_secs(2));

    // 1000 further quanta (1 s simulated) must not touch the allocator.
    assert_no_alloc("steady-state executor quanta", || {
        sim.run_for(SimDuration::from_secs(1));
    });
    // Sanity: the quanta actually executed work and actuated the plan.
    assert!(sim.metrics().average_power().value() > 0.0);
    assert!(sim.metrics().vf_transitions > 0);
}

#[test]
fn steady_state_ppm_bid_rounds_do_not_allocate() {
    use ppm::core::manager::tc2_ppm_system;
    use ppm::sched::Simulation;

    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // The bid rounds alone: observation, churn check, market round and
    // actuation. The LBT-on twin below adds the LBT invocations.
    let (sys, mgr) = tc2_ppm_system(tc2_task_mix(), PpmConfig::tc2().without_lbt());
    let mut sim = Simulation::new(sys, mgr);

    // Warm-up: the market's arenas, the decision and observation buffers
    // and the executor's scratch reach their steady sizes.
    sim.run_for(SimDuration::from_secs(2));
    let rounds_before = sim.manager().market().rounds();

    // 1 s simulated (about 31 bid rounds) must not touch the allocator.
    assert_no_alloc("steady-state PPM bid rounds", || {
        sim.run_for(SimDuration::from_secs(1));
    });
    // Sanity: the measured window ran bid rounds (a retry reruns it).
    let rounds = sim.manager().market().rounds() - rounds_before;
    assert!(rounds >= 31, "only {rounds} bid rounds ran");
    assert!(sim.metrics().vf_transitions > 0);
}

/// The bid rounds with LBT on: every load-balancing and migration
/// invocation refills the manager's retained view and judges its
/// candidates in the LBT module's retained caches, so once both have grown
/// an invocation does not allocate either. Phase profiling (itself
/// allocation-free) counts the invocations in the measured window.
///
/// The window holds at least as many invocations as the warm-up, so a
/// buffer that grows by a fixed step on every invocation, whose capacity
/// doubles, must reallocate inside it: from `n` invocations to `2n` its
/// length doubles too, past the capacity it had after `n`.
#[test]
fn steady_state_ppm_bid_rounds_with_lbt_do_not_allocate() {
    use ppm::core::manager::tc2_ppm_system;
    use ppm::obs::{Phase, Telemetry};
    use ppm::sched::Simulation;

    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let config = PpmConfig::tc2();
    assert!(config.lbt_enabled);
    // One invocation in `migrate_every` migrates; the others only balance.
    let migrate_every = u64::from(config.migrate_every);
    assert!(migrate_every >= 2);
    let (sys, mgr) = tc2_ppm_system(tc2_task_mix(), config);
    let mut sim = Simulation::new(sys, mgr).with_telemetry(Telemetry::new(512).with_profiling());
    let invocations = |sim: &Simulation<_>| {
        let tel = sim.telemetry().expect("telemetry attached");
        tel.profiler.hist(Phase::Lbt).count()
    };

    // Warm-up: as above, plus the LBT view's task lists and the LBT
    // module's caches, over a dozen invocations.
    sim.run_for(SimDuration::from_secs(2));
    assert!(invocations(&sim) >= 12, "LBT ran during warm-up");
    let before = invocations(&sim);

    assert_no_alloc("steady-state PPM bid rounds with LBT", || {
        sim.run_for(SimDuration::from_secs(3));
    });
    // Sanity: the window held as many invocations as the warm-up, and at
    // least `migrate_every` consecutive ones, so at least one migration
    // and one load-balancing invocation (a retry reruns the window and
    // only adds more).
    let window = invocations(&sim) - before;
    assert!(
        window >= before.max(migrate_every),
        "only {window} LBT invocations in the window, {before} in the warm-up"
    );
}

/// [`TogglingManager`] plus one migration per quantum between the first two
/// LITTLE cores, read back through the plan's placement overlays, so the
/// plan's placement index is filled, queried and cleared every quantum.
struct ShufflingManager {
    inner: TogglingManager,
}

impl ppm::sched::PowerManager for ShufflingManager {
    fn name(&self) -> &'static str {
        "shuffling"
    }

    fn plan(
        &mut self,
        snap: &ppm::sched::SystemSnapshot,
        plan: &mut ppm::sched::ActuationPlan,
        prof: Option<&mut ppm::obs::PhaseProfiler>,
    ) {
        self.inner.plan(snap, plan, prof);
        let to = if plan.core_of(snap, TaskId(0)) == CoreId(0) {
            CoreId(1)
        } else {
            CoreId(0)
        };
        plan.migrate(TaskId(0), to);
        assert_eq!(plan.core_of(snap, TaskId(0)), to);
        assert!(plan.cluster_has_tasks(snap, ClusterId(0)));
        assert!(!plan.cluster_off(snap, ClusterId(0)));
    }
}

/// An attached auditor on a clean run stays off the allocator too: every
/// invariant check runs on retained scratch, and the snapshot digest that
/// tags violations is computed only when one fires (never, here).
#[test]
fn steady_state_audited_quantum_does_not_allocate() {
    use ppm::platform::chip::Chip;
    use ppm::sched::{AllocationPolicy, Simulation, System as SimSystem};
    use ppm::workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm::workload::task::{Priority, Task};

    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut sys = SimSystem::new(Chip::tc2(), AllocationPolicy::Market);
    for i in 0..4 {
        sys.add_task(
            Task::new(
                TaskId(i),
                BenchmarkSpec::of(Benchmark::Swaptions, Input::Large).expect("variant"),
                Priority(1),
            ),
            CoreId(i % 5),
        );
    }
    let mut sim = Simulation::new(
        sys,
        ShufflingManager {
            inner: TogglingManager { flip: false },
        },
    )
    .with_auditor();
    sim.run_for(SimDuration::from_secs(2));

    assert_no_alloc("audited steady-state quanta", || {
        sim.run_for(SimDuration::from_secs(1));
    });
    let aud = sim.auditor().expect("auditor attached");
    assert!(aud.is_clean(), "{}", aud.render());
    assert!(aud.quanta_audited() >= 3000, "every quantum audited");
    assert!(
        sim.metrics().migrations_intra >= 3000,
        "every quantum migrated"
    );
}

/// A task admitted mid-run widens the heartbeat ring's held rows once, at
/// the next quantum; from then on the ring is written and read in place
/// again, with one migration per quantum, so one window reset per quantum.
#[test]
fn a_mid_run_admission_widens_the_heartbeat_ring_once() {
    use ppm::platform::chip::Chip;
    use ppm::sched::{AllocationPolicy, Simulation, System as SimSystem};
    use ppm::workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm::workload::task::{Priority, Task};

    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut sys = SimSystem::new(Chip::tc2(), AllocationPolicy::Market);
    for (i, task) in tc2_task_mix().into_iter().enumerate() {
        sys.add_task(task, CoreId(i % 5));
    }
    let mut sim = Simulation::new(
        sys,
        ShufflingManager {
            inner: TogglingManager { flip: false },
        },
    );
    // Warm-up: the ring fills a whole window.
    sim.run_for(SimDuration::from_secs(2));
    let late = TaskId(6);
    sim.system_mut().add_task(
        Task::new(
            late,
            BenchmarkSpec::of(Benchmark::Swaptions, Input::Large).expect("variant"),
            Priority(2),
        ),
        CoreId(2),
    );
    // The admission's own growth: the ring widens, the snapshot's task
    // section and the plan gain a task.
    sim.run_for(SimDuration::from_secs(1));

    assert_no_alloc("steady-state quanta after a mid-run admission", || {
        sim.run_for(SimDuration::from_secs(1));
    });
    assert!(sim.system().heart_rate(late) > 0.0, "the late task ran");
    assert!(
        sim.metrics().migrations_intra >= 2000,
        "every quantum migrated"
    );
}

/// The linear substrate on a many-core chip: 32 cores (8 clusters × 4) with
/// two tasks each and one migration per quantum, so every quantum buckets
/// its runnable tasks into the step's CSR with a row that shrinks and grows
/// as the migrating task stalls and resumes, and every capture overwrites
/// the task, core and cluster sections in place. None of it may allocate
/// once the buffers have warmed up.
#[test]
fn many_core_quantum_does_not_allocate() {
    use ppm::fleet::scenario::graded_chip;
    use ppm::sched::{AllocationPolicy, Simulation, System as SimSystem};
    use ppm::workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm::workload::task::{Priority, Task};

    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let chip = graded_chip(8, 4, 1.0);
    let cores = chip.cores().len();
    assert_eq!(cores, 32);
    let mut sys = SimSystem::new(chip, AllocationPolicy::Market);
    let benches = [
        (Benchmark::Blackscholes, Input::Large),
        (Benchmark::Swaptions, Input::Large),
        (Benchmark::X264, Input::Native),
        (Benchmark::Bodytrack, Input::Native),
    ];
    for i in 0..2 * cores {
        let (b, input) = benches[i % benches.len()];
        sys.add_task(
            Task::new(
                TaskId(i),
                BenchmarkSpec::of(b, input).expect("variant"),
                Priority(1 + (i % 3) as u32),
            ),
            CoreId(i % cores),
        );
    }
    let mut sim = Simulation::new(
        sys,
        ShufflingManager {
            inner: TogglingManager { flip: false },
        },
    )
    .with_auditor();
    sim.run_for(SimDuration::from_secs(2));

    assert_no_alloc("many-core steady-state quanta", || {
        sim.run_for(SimDuration::from_secs(1));
    });
    let aud = sim.auditor().expect("auditor attached");
    assert!(aud.is_clean(), "{}", aud.render());
    assert!(
        sim.metrics().migrations_intra >= 3000,
        "every quantum migrated"
    );
    assert_eq!(sim.system().task_iter().count(), 2 * cores);
}

/// Telemetry attached (recorder + phase profiling): all allocation happens
/// at setup. The ring capacity (512) is far below the quanta executed, so
/// the buffer wraps both during warm-up and during the measured block —
/// proving ring wrap itself is allocation-free, not just append.
#[test]
fn steady_state_quantum_with_telemetry_does_not_allocate() {
    use ppm::obs::Telemetry;
    use ppm::platform::chip::Chip;
    use ppm::sched::{AllocationPolicy, Simulation, System as SimSystem};
    use ppm::workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm::workload::task::{Priority, Task};

    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut sys = SimSystem::new(Chip::tc2(), AllocationPolicy::Market);
    for i in 0..4 {
        sys.add_task(
            Task::new(
                TaskId(i),
                BenchmarkSpec::of(Benchmark::Swaptions, Input::Large).expect("variant"),
                Priority(1),
            ),
            CoreId(i % 5),
        );
    }
    let mut sim = Simulation::new(sys, TogglingManager { flip: false })
        .with_telemetry(Telemetry::new(512).with_profiling());

    // Warm-up covers setup: column shaping for the task/core/cluster
    // population, histogram zeroing, and the first ring wrap.
    sim.run_for(SimDuration::from_secs(2));

    assert_no_alloc("telemetry-on steady-state quanta", || {
        sim.run_for(SimDuration::from_secs(1));
    });
    let tel = sim.take_telemetry().expect("telemetry attached");
    assert_eq!(tel.recorder.rows(), 512, "ring is full");
    assert!(tel.recorder.total_rows() >= 3000, "every quantum recorded");
    assert!(tel.recorder.dropped() > 0, "ring wrapped during the run");
    assert!(
        tel.profiler.total_count() >= 3000,
        "phases were profiled throughout"
    );
}

/// The live observability plane stays on the zero-alloc hot path: with
/// tumbling windowed aggregation AND the burn-rate alert engine attached
/// (10 ms windows, so the measured second closes ~100 windows and runs
/// the rule evaluation each time), steady-state quanta never touch the
/// allocator. Window close is an inline struct copy and the engine's
/// signal ring and event tape are preallocated; only snapshot
/// *publishing* allocates, and that needs an attached hub — absent here,
/// as in any unserved run.
#[test]
fn steady_state_quantum_with_aggregation_and_alerts_does_not_allocate() {
    use ppm::obs::Telemetry;
    use ppm::platform::chip::Chip;
    use ppm::sched::{AllocationPolicy, Simulation, System as SimSystem};
    use ppm::workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm::workload::task::{Priority, Task};

    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut sys = SimSystem::new(Chip::tc2(), AllocationPolicy::Market);
    for i in 0..4 {
        sys.add_task(
            Task::new(
                TaskId(i),
                BenchmarkSpec::of(Benchmark::Swaptions, Input::Large).expect("variant"),
                Priority(1),
            ),
            CoreId(i % 5),
        );
    }
    let mut sim = Simulation::new(sys, TogglingManager { flip: false })
        .with_telemetry(Telemetry::new(512).with_aggregation(10_000).with_alerts());

    // Warm-up: ring shaping, first window closes, alert ring fills past
    // its slow lookback so the rules are genuinely evaluated under test.
    sim.run_for(SimDuration::from_secs(2));

    assert_no_alloc("aggregation+alerts steady-state quanta", || {
        sim.run_for(SimDuration::from_secs(1));
    });
    let tel = sim.take_telemetry().expect("telemetry attached");
    let agg = tel.aggregate.as_ref().expect("aggregation attached");
    assert!(
        agg.windows_closed() >= 290,
        "3 s over 10 ms windows must close ~299 rollups, got {}",
        agg.windows_closed()
    );
    let engine = tel.alerts.as_ref().expect("alert engine attached");
    assert_eq!(engine.fired_total(), 0, "an uncapped healthy run is silent");
}

/// Open-loop request traffic in steady state is allocation-free too: the
/// request ring, the SLO monitor's sample ring and sorted window, and the
/// arrival/service samplers are all sized at admission, so quanta that
/// admit, serve, shed, and slide the latency window never touch the
/// allocator.
#[test]
fn steady_state_openloop_quantum_does_not_allocate() {
    use ppm::platform::chip::Chip;
    use ppm::sched::{AllocationPolicy, Simulation, System as SimSystem};
    use ppm::workload::task::Priority;
    use ppm::workload::{bursty_template, openloop_family};

    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut sys = SimSystem::new(Chip::tc2(), AllocationPolicy::Market);
    let set = openloop_family("za-ol", bursty_template(), 7);
    for (i, task) in set.spawn(0, Priority::NORMAL).into_iter().enumerate() {
        sys.add_task(task, CoreId(i % 5));
    }
    let mut sim = Simulation::new(sys, TogglingManager { flip: false });

    // Warm-up: request rings fill, the pressure path runs end to end, and
    // at ~25 completions/s per task a 128-sample monitor window fills and
    // starts evicting after ~5 s.
    sim.run_for(SimDuration::from_secs(8));
    assert_some_monitor_evicts(sim.system());

    assert_no_alloc("steady-state open-loop quanta", || {
        sim.run_for(SimDuration::from_secs(1));
    });
    // Sanity: traffic actually flowed and the tail was measured.
    let s = sim.system();
    let measured = s
        .task_ids()
        .iter()
        .filter_map(|&t| s.task(t).open_loop_snap())
        .filter(|o| o.p99_ms > 0.0)
        .count();
    assert!(measured > 0, "no task measured a p99 — nothing was served");
}

/// Assert that at least one open-loop task has completed more requests
/// than its SLO monitor's window holds, so the measured quanta evict from
/// a full sorted window rather than only filling it.
fn assert_some_monitor_evicts(s: &ppm::sched::System) {
    let evicting = s.task_ids().iter().any(|&t| {
        s.task(t)
            .open_loop()
            .is_some_and(|o| o.monitor().completed() > o.spec().window as u64)
    });
    assert!(evicting, "no SLO monitor window is full after the warm-up");
}

/// The sink of the stream proofs: it drops the bytes and, at every write
/// and flush, publishes how many allocations the thread calling it — the
/// stream's writer thread — has made so far. Its first write stalls, so
/// the bounded channel fills and the simulation thread blocks on it during
/// warm-up: blocking, too, then happens before the measured window.
#[derive(Clone, Default)]
struct WriterProbe {
    allocs: Arc<AtomicU64>,
    writes: Arc<AtomicU64>,
}

impl WriterProbe {
    /// The writer thread's allocations as of its last write.
    fn writer_allocations(&self) -> u64 {
        self.allocs.load(Ordering::SeqCst)
    }
}

impl Write for WriterProbe {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.writes.fetch_add(1, Ordering::SeqCst) == 0 {
            std::thread::sleep(std::time::Duration::from_millis(500));
        }
        self.allocs.store(thread_allocations(), Ordering::SeqCst);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.allocs.store(thread_allocations(), Ordering::SeqCst);
        Ok(())
    }
}

/// Run `sim`'s measured second under [`assert_no_alloc`], then finish its
/// stream and assert the writer thread made no allocation from before the
/// window through the tail flush. Returns the stream's totals.
fn assert_stream_steady<M: ppm::sched::PowerManager>(
    what: &str,
    sim: &mut ppm::sched::Simulation<M>,
    probe: &WriterProbe,
) -> ppm::obs::StreamStats {
    let writer_before = probe.writer_allocations();
    assert_no_alloc(what, || {
        sim.run_for(SimDuration::from_secs(1));
    });
    let stats = sim
        .finish_stream()
        .expect("stream attached")
        .expect("writer clean");
    let writer = probe.writer_allocations() - writer_before;
    assert_eq!(
        writer, 0,
        "{what}: {writer} allocation(s) on the writer thread"
    );
    assert_eq!(stats.lost, 0);
    stats
}

/// Streaming telemetry does not allocate in steady state, on either side
/// of the channel: a flush copies the window's raw rows into a window
/// buffer the writer handed back, and the writer renders them through its
/// render cache into its reused text buffer, so once the warm-up has grown
/// the buffers and the cache a 64-row JSONL flush touches no allocator.
#[test]
fn stream_flushes_do_not_allocate_after_warmup() {
    use ppm::obs::{StreamFormat, Telemetry, TelemetryStream};
    use ppm::platform::chip::Chip;
    use ppm::sched::{AllocationPolicy, Simulation, System as SimSystem};
    use ppm::workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm::workload::task::{Priority, Task};

    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut sys = SimSystem::new(Chip::tc2(), AllocationPolicy::Market);
    for i in 0..4 {
        sys.add_task(
            Task::new(
                TaskId(i),
                BenchmarkSpec::of(Benchmark::Swaptions, Input::Large).expect("variant"),
                Priority(1),
            ),
            CoreId(i % 5),
        );
    }
    // A 256-row ring flushed every 64 rows, as `ppm-sim --stream` runs:
    // the 2 s warm-up crosses 31 flush boundaries, each measured 1 s block
    // (up to three attempts) another 15.
    let probe = WriterProbe::default();
    let mut sim = Simulation::new(sys, TogglingManager { flip: false })
        .with_telemetry(Telemetry::new(256))
        .with_stream(TelemetryStream::with_writer(
            probe.clone(),
            StreamFormat::Jsonl,
            64,
        ));
    sim.run_for(SimDuration::from_secs(2));

    let stats = assert_stream_steady("streaming with 64-row flushes", &mut sim, &probe);
    // Every row reached the writer through the reused windows.
    assert!(stats.rows >= 3000, "all quanta reached the file");
    assert!(stats.flushes >= 3000 / 64, "flushed every 64 rows");
}

/// The `serve_ol2_obs` benchmark configuration, whole: the seeded `ol2`
/// bursty open-loop family on TC2 at 4 W under PPM (LBT on), a 4096-row
/// ring, 1 s windowed aggregation, the default burn-rate alerts, and a
/// JSONL stream flushed every 64 rows. After a warm-up past the first
/// ring wrap, neither the simulation thread nor the stream's writer
/// thread allocates.
#[test]
fn serve_ol2_obs_configuration_does_not_allocate_on_either_thread() {
    use ppm::core::manager::{place_on_little, PpmManager};
    use ppm::obs::{StreamFormat, Telemetry, TelemetryStream, DEFAULT_AGG_WINDOW_US};
    use ppm::platform::chip::Chip;
    use ppm::sched::{AllocationPolicy, Simulation, System as SimSystem};
    use ppm::workload::task::Priority;
    use ppm::workload::{bursty_template, openloop_family};

    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let tdp = Watts(4.0);
    let mut sys = SimSystem::new(Chip::tc2(), AllocationPolicy::Market);
    for task in openloop_family("ol2", bursty_template(), 1303).spawn(0, Priority::NORMAL) {
        sys.add_task(task, CoreId(0));
    }
    place_on_little(&mut sys);
    sys.set_tdp_accounting(tdp);
    let probe = WriterProbe::default();
    let tel = Telemetry::new(4096)
        .with_aggregation(DEFAULT_AGG_WINDOW_US)
        .with_alerts();
    let mut sim = Simulation::new(sys, PpmManager::new(PpmConfig::tc2_with_tdp(tdp)))
        .with_telemetry(tel)
        .with_stream(TelemetryStream::with_writer(
            probe.clone(),
            StreamFormat::Jsonl,
            64,
        ));
    // Warm-up: past the ring's first wrap at 4.096 s, five aggregation
    // windows closed, and LBT, the request rings and the alert engine in
    // regime.
    sim.run_for(SimDuration::from_secs(5));
    assert!(sim.telemetry().expect("attached").recorder.dropped() > 0);
    assert_some_monitor_evicts(sim.system());

    let stats = assert_stream_steady("serve_ol2_obs configuration", &mut sim, &probe);
    assert!(stats.rows >= 6000, "every quantum streamed");
    let tel = sim.take_telemetry().expect("telemetry attached");
    assert_eq!(stats.rows, tel.recorder.total_rows());
    let agg = tel.aggregate.as_ref().expect("aggregation attached");
    assert!(agg.windows_closed() >= 5, "1 s windows closed in the run");
    let s = sim.system();
    let served = s
        .task_ids()
        .iter()
        .filter_map(|&t| s.task(t).open_loop_snap())
        .filter(|o| o.p99_ms > 0.0)
        .count();
    assert!(served > 0, "requests were served");
}
