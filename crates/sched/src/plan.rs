//! Actuation plans and tapes: the *plan-out* half of the manager boundary.
//!
//! A power manager never touches the [`System`](crate::executor::System)
//! directly. It reads a [`SystemSnapshot`] and appends [`Action`]s to an
//! [`ActuationPlan`]; the executor validates and applies the plan in one
//! place. Because queued actions take effect only after the manager
//! returns, the plan offers *overlay* queries
//! ([`ActuationPlan::core_of`], [`ActuationPlan::share_of`], …) that answer
//! "where would this task be / what would this knob read *if the plan were
//! applied*" — reproducing the read-after-write semantics managers had when
//! they actuated inline.
//!
//! An optional [`Tape`] records `(snapshot digest, plan)` pairs per quantum
//! for replay and golden-diffing: two runs are behaviourally identical iff
//! their tapes render to the same bytes.

use ppm_platform::cluster::ClusterId;
use ppm_platform::core::CoreId;
use ppm_platform::units::{ProcessingUnits, SimTime};
use ppm_platform::vf::VfLevel;
use ppm_workload::task::TaskId;

use crate::nice::Nice;
use crate::snapshot::{SystemSnapshot, TaskSnap};

/// One actuation command. The executor applies commands in plan order with
/// the same semantics as the corresponding `System` methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Set a task's explicit PU share (Market policy).
    SetShare(TaskId, ProcessingUnits),
    /// Set a task's nice value (FairWeights policy).
    SetNice(TaskId, Nice),
    /// Ask a cluster regulator for a V-F level.
    RequestLevel(ClusterId, VfLevel),
    /// Migrate a task to a core (no-op if already there or affinity-blocked,
    /// exactly like `System::migrate`).
    Migrate(TaskId, CoreId),
    /// Power a cluster up at its lowest level.
    PowerOn(ClusterId),
    /// Power a cluster down.
    PowerOff(ClusterId),
}

/// A command buffer built by one manager invocation.
///
/// The executor clears and reuses one plan per quantum, so steady-state
/// planning performs no heap allocation once capacity has warmed up.
#[derive(Debug, Default)]
pub struct ActuationPlan {
    ops: Vec<Action>,
    /// The placement/gating subset of `ops` (`Migrate`, `PowerOn`,
    /// `PowerOff`), in queue order. The placement overlays scan only this,
    /// so their cost does not grow with the per-task `SetShare`s a market
    /// round queues.
    placement: Vec<Action>,
}

impl ActuationPlan {
    /// An empty plan.
    pub fn new() -> ActuationPlan {
        ActuationPlan::default()
    }

    /// Drop all queued actions (the executor does this between quanta).
    pub fn clear(&mut self) {
        self.ops.clear();
        self.placement.clear();
    }

    /// The queued actions, in application order.
    pub fn ops(&self) -> &[Action] {
        &self.ops
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Queue an arbitrary action.
    pub fn push(&mut self, action: Action) {
        if matches!(
            action,
            Action::Migrate(..) | Action::PowerOn(_) | Action::PowerOff(_)
        ) {
            self.placement.push(action);
        }
        self.ops.push(action);
    }

    /// Queue a share update.
    pub fn set_share(&mut self, task: TaskId, share: ProcessingUnits) {
        self.ops.push(Action::SetShare(task, share));
    }

    /// Queue a nice update.
    pub fn set_nice(&mut self, task: TaskId, nice: Nice) {
        self.ops.push(Action::SetNice(task, nice));
    }

    /// Queue a DVFS request.
    pub fn request_level(&mut self, cluster: ClusterId, level: VfLevel) {
        self.ops.push(Action::RequestLevel(cluster, level));
    }

    /// Queue a migration.
    pub fn migrate(&mut self, task: TaskId, core: CoreId) {
        self.push(Action::Migrate(task, core));
    }

    /// Queue a cluster power-up.
    pub fn power_on(&mut self, cluster: ClusterId) {
        self.push(Action::PowerOn(cluster));
    }

    /// Queue a cluster power-down.
    pub fn power_off(&mut self, cluster: ClusterId) {
        self.push(Action::PowerOff(cluster));
    }

    // --- Overlay queries: snapshot state + queued-but-unapplied actions ---

    /// The core `task` would occupy after this plan (last queued migration
    /// wins; otherwise the snapshot placement).
    pub fn core_of(&self, snap: &SystemSnapshot, task: TaskId) -> CoreId {
        self.queued_core(task)
            .unwrap_or_else(|| snap.task(task).expect("task in snapshot").core)
    }

    /// The last queued migration target of `task`, if any.
    fn queued_core(&self, task: TaskId) -> Option<CoreId> {
        self.placement.iter().rev().find_map(|op| match *op {
            Action::Migrate(t, core) if t == task => Some(core),
            _ => None,
        })
    }

    /// [`Self::core_of`] for a task already in hand (no snapshot lookup).
    fn placed_core(&self, t: &TaskSnap) -> CoreId {
        self.queued_core(t.id).unwrap_or(t.core)
    }

    /// The share `task` would have after this plan.
    pub fn share_of(&self, snap: &SystemSnapshot, task: TaskId) -> ProcessingUnits {
        self.ops
            .iter()
            .rev()
            .find_map(|op| match *op {
                Action::SetShare(t, share) if t == task => Some(share.max(ProcessingUnits::ZERO)),
                _ => None,
            })
            .unwrap_or_else(|| snap.task(task).expect("task in snapshot").share)
    }

    /// Whether `cluster` would be gated after this plan.
    pub fn cluster_off(&self, snap: &SystemSnapshot, cluster: ClusterId) -> bool {
        self.placement
            .iter()
            .rev()
            .find_map(|op| match *op {
                Action::PowerOn(c) if c == cluster => Some(false),
                Action::PowerOff(c) if c == cluster => Some(true),
                _ => None,
            })
            .unwrap_or_else(|| snap.cluster(cluster).off)
    }

    /// Tasks that would reside on `core` after this plan, ascending by id.
    pub fn tasks_on<'a>(
        &'a self,
        snap: &'a SystemSnapshot,
        core: CoreId,
    ) -> impl Iterator<Item = &'a TaskSnap> + 'a {
        snap.tasks
            .iter()
            .filter(move |t| self.placed_core(t) == core)
    }

    /// Number of tasks that would reside on `core` after this plan.
    pub fn tasks_on_count(&self, snap: &SystemSnapshot, core: CoreId) -> usize {
        self.tasks_on(snap, core).count()
    }

    /// Whether any task would reside on a core of `cluster` after this plan.
    pub fn cluster_has_tasks(&self, snap: &SystemSnapshot, cluster: ClusterId) -> bool {
        snap.tasks
            .iter()
            .any(|t| snap.core(self.placed_core(t)).cluster == cluster)
    }
}

/// One tape entry: the digest of what the manager saw and what it decided.
#[derive(Debug, Clone)]
pub struct TapeRecord {
    /// Quantum start time.
    pub at: SimTime,
    /// FNV-1a digest of the snapshot the plan was computed from.
    pub snapshot_digest: u64,
    /// The actions the manager queued.
    pub ops: Vec<Action>,
}

/// A recording of `(snapshot digest, plan)` pairs across a run.
///
/// Empty plans are not recorded (managers gate on their own periods, so most
/// quanta decide nothing). [`Tape::render`] gives a byte-comparable form for
/// golden-diffing two runs.
#[derive(Debug, Default)]
pub struct Tape {
    records: Vec<TapeRecord>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Tape {
        Tape::default()
    }

    /// Append one record.
    pub fn record(&mut self, at: SimTime, snapshot_digest: u64, ops: &[Action]) {
        self.records.push(TapeRecord {
            at,
            snapshot_digest,
            ops: ops.to_vec(),
        });
    }

    /// The recorded entries, in time order.
    pub fn records(&self) -> &[TapeRecord] {
        &self.records
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Render the whole tape as text, one record per line, bit-exact (`{:?}`
    /// prints floats in shortest round-trip form).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.records {
            let _ = writeln!(
                out,
                "{} {:016x} {:?}",
                r.at.as_micros(),
                r.snapshot_digest,
                r.ops
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{AllocationPolicy, System};
    use ppm_platform::chip::Chip;
    use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm_workload::task::{Priority, Task};

    fn snap() -> SystemSnapshot {
        let mut sys = System::new(Chip::tc2(), AllocationPolicy::Market);
        for i in 0..2 {
            sys.add_task(
                Task::new(
                    TaskId(i),
                    BenchmarkSpec::of(Benchmark::Blackscholes, Input::Large).expect("variant"),
                    Priority(1),
                ),
                CoreId(0),
            );
        }
        sys.set_share(TaskId(0), ProcessingUnits(120.0));
        let mut s = SystemSnapshot::new();
        s.capture(&sys);
        s
    }

    #[test]
    fn overlays_reflect_queued_actions_last_wins() {
        let snap = snap();
        let mut plan = ActuationPlan::new();
        assert_eq!(plan.core_of(&snap, TaskId(0)), CoreId(0));
        assert_eq!(plan.share_of(&snap, TaskId(0)), ProcessingUnits(120.0));

        plan.migrate(TaskId(0), CoreId(3));
        plan.set_share(TaskId(0), ProcessingUnits(300.0));
        plan.migrate(TaskId(0), CoreId(1));
        assert_eq!(plan.core_of(&snap, TaskId(0)), CoreId(1));
        assert_eq!(plan.share_of(&snap, TaskId(0)), ProcessingUnits(300.0));
        // Task 1 untouched by the plan.
        assert_eq!(plan.core_of(&snap, TaskId(1)), CoreId(0));
        assert_eq!(plan.tasks_on_count(&snap, CoreId(0)), 1);
        assert_eq!(plan.tasks_on_count(&snap, CoreId(1)), 1);
    }

    #[test]
    fn power_overlay_tracks_gating() {
        let snap = snap();
        let mut plan = ActuationPlan::new();
        let big = ClusterId(1);
        assert!(!plan.cluster_off(&snap, big));
        plan.power_off(big);
        assert!(plan.cluster_off(&snap, big));
        plan.power_on(big);
        assert!(!plan.cluster_off(&snap, big));
        // Migrating the last task off LITTLE empties the cluster.
        plan.migrate(TaskId(0), CoreId(3));
        plan.migrate(TaskId(1), CoreId(4));
        assert!(!plan.cluster_has_tasks(&snap, ClusterId(0)));
        assert!(plan.cluster_has_tasks(&snap, big));
    }

    /// Five tasks spread over all five TC2 cores, distinct shares, big
    /// cluster gated: every overlay starts from a non-trivial snapshot.
    fn spread_snap() -> SystemSnapshot {
        let mut sys = System::new(Chip::tc2(), AllocationPolicy::Market);
        for i in 0..5 {
            sys.add_task(
                Task::new(
                    TaskId(i),
                    BenchmarkSpec::of(Benchmark::Swaptions, Input::Large).expect("variant"),
                    Priority(1),
                ),
                CoreId(i),
            );
            sys.set_share(TaskId(i), ProcessingUnits(40.0 * i as f64));
        }
        sys.power_off(ClusterId(1));
        let mut s = SystemSnapshot::new();
        s.capture(&sys);
        s
    }

    /// `(kind, task, core, cluster, value, via_push)` → one plan step. Kinds
    /// 0–5 are the six `Action`s; 6 clears the plan mid-sequence.
    type Step = (u8, usize, usize, usize, f64, bool);

    fn action_of(&(kind, task, core, cluster, value, _): &Step) -> Option<Action> {
        let (t, c, cl) = (TaskId(task), CoreId(core), ClusterId(cluster));
        match kind {
            0 => Some(Action::SetShare(t, ProcessingUnits(value))),
            1 => Some(Action::SetNice(t, Nice::new((value as i64 % 20) as i8))),
            2 => Some(Action::RequestLevel(cl, VfLevel(core))),
            3 => Some(Action::Migrate(t, c)),
            4 => Some(Action::PowerOn(cl)),
            5 => Some(Action::PowerOff(cl)),
            _ => None,
        }
    }

    fn apply_step(plan: &mut ActuationPlan, step: &Step) {
        let Some(action) = action_of(step) else {
            plan.clear();
            return;
        };
        if step.5 {
            plan.push(action);
            return;
        }
        match action {
            Action::SetShare(t, s) => plan.set_share(t, s),
            Action::SetNice(t, n) => plan.set_nice(t, n),
            Action::RequestLevel(c, l) => plan.request_level(c, l),
            Action::Migrate(t, c) => plan.migrate(t, c),
            Action::PowerOn(c) => plan.power_on(c),
            Action::PowerOff(c) => plan.power_off(c),
        }
    }

    /// Brute-force overlays: the last matching op over the whole op list.
    fn ref_core_of(ops: &[Action], snap: &SystemSnapshot, task: TaskId) -> CoreId {
        ops.iter()
            .rev()
            .find_map(|op| match *op {
                Action::Migrate(t, c) if t == task => Some(c),
                _ => None,
            })
            .unwrap_or_else(|| snap.task(task).expect("task").core)
    }

    fn ref_share_of(ops: &[Action], snap: &SystemSnapshot, task: TaskId) -> ProcessingUnits {
        ops.iter()
            .rev()
            .find_map(|op| match *op {
                Action::SetShare(t, s) if t == task => Some(s.max(ProcessingUnits::ZERO)),
                _ => None,
            })
            .unwrap_or_else(|| snap.task(task).expect("task").share)
    }

    fn ref_cluster_off(ops: &[Action], snap: &SystemSnapshot, cluster: ClusterId) -> bool {
        ops.iter()
            .rev()
            .find_map(|op| match *op {
                Action::PowerOn(c) if c == cluster => Some(false),
                Action::PowerOff(c) if c == cluster => Some(true),
                _ => None,
            })
            .unwrap_or_else(|| snap.cluster(cluster).off)
    }

    proptest::proptest! {
        #[test]
        fn overlays_match_a_full_op_scan(
            steps in proptest::collection::vec(
                (0u8..7, 0usize..5, 0usize..5, 0usize..2, -50.0f64..400.0, proptest::bool::ANY),
                0..40,
            ),
        ) {
            let snap = spread_snap();
            let mut plan = ActuationPlan::new();
            for step in &steps {
                apply_step(&mut plan, step);
            }
            let ops = plan.ops();
            for t in &snap.tasks {
                proptest::prop_assert_eq!(plan.core_of(&snap, t.id), ref_core_of(ops, &snap, t.id));
                proptest::prop_assert_eq!(plan.share_of(&snap, t.id), ref_share_of(ops, &snap, t.id));
            }
            for c in &snap.cores {
                let fast: Vec<TaskId> = plan.tasks_on(&snap, c.id).map(|t| t.id).collect();
                let slow: Vec<TaskId> = snap
                    .tasks
                    .iter()
                    .filter(|t| ref_core_of(ops, &snap, t.id) == c.id)
                    .map(|t| t.id)
                    .collect();
                proptest::prop_assert_eq!(plan.tasks_on_count(&snap, c.id), slow.len());
                proptest::prop_assert_eq!(fast, slow);
            }
            for cl in &snap.clusters {
                proptest::prop_assert_eq!(plan.cluster_off(&snap, cl.id), ref_cluster_off(ops, &snap, cl.id));
                let has = snap
                    .tasks
                    .iter()
                    .any(|t| snap.core(ref_core_of(ops, &snap, t.id)).cluster == cl.id);
                proptest::prop_assert_eq!(plan.cluster_has_tasks(&snap, cl.id), has);
            }
        }
    }

    #[test]
    fn tape_renders_deterministically() {
        let mut tape = Tape::new();
        tape.record(
            SimTime::ZERO + ppm_platform::units::SimDuration::from_millis(1),
            0xdead_beef,
            &[Action::SetShare(TaskId(0), ProcessingUnits(50.0))],
        );
        let a = tape.render();
        assert!(a.contains("00000000deadbeef"));
        assert_eq!(a, tape.render());
    }
}
