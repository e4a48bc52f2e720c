//! Voltage-frequency clusters.
//!
//! All cores of a cluster share one voltage/frequency regulator (as on TC2,
//! where frequency "can only be modified at the cluster level"), so supply
//! changes are a cluster-level operation. A cluster with no active tasks can
//! be powered down entirely.

use std::fmt;

use crate::core::{CoreClass, CoreId};
use crate::units::{ProcessingUnits, SimDuration, SimTime};
use crate::vf::{VfLevel, VfPoint, VfTable};

/// Identifier of a voltage-frequency cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub usize);

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cluster{}", self.0)
    }
}

/// Power state of a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClusterPowerState {
    /// Clocked and executing.
    #[default]
    Online,
    /// Power-gated: zero supply, zero power.
    Off,
}

/// One voltage-frequency cluster: a set of micro-architecturally identical
/// cores behind a shared regulator.
///
/// The cluster records its V-F table, the current operating level, an
/// in-flight DVFS transition (transitions take a regulator-dependent
/// latency during which the *old* frequency is still in effect), and the
/// power state.
#[derive(Debug, Clone)]
pub struct Cluster {
    id: ClusterId,
    class: CoreClass,
    cores: Vec<CoreId>,
    table: VfTable,
    level: VfLevel,
    state: ClusterPowerState,
    /// Pending DVFS transition: target level and completion time.
    pending: Option<(VfLevel, SimTime)>,
    /// Regulator transition latency applied to every level change.
    transition_latency: SimDuration,
}

impl Cluster {
    /// Default regulator latency for a level change (typical for TC2-era
    /// regulators; the paper freezes bids across the change rather than
    /// modelling it precisely).
    pub const DEFAULT_TRANSITION_LATENCY: SimDuration = SimDuration(150);

    /// Create a cluster starting at the lowest V-F level, online.
    pub fn new(id: ClusterId, class: CoreClass, cores: Vec<CoreId>, table: VfTable) -> Cluster {
        Cluster {
            id,
            class,
            cores,
            table,
            level: VfLevel(0),
            state: ClusterPowerState::Online,
            pending: None,
            transition_latency: Self::DEFAULT_TRANSITION_LATENCY,
        }
    }

    /// Cluster identifier.
    pub fn id(&self) -> ClusterId {
        self.id
    }

    /// Micro-architectural class of every core in this cluster.
    pub fn class(&self) -> CoreClass {
        self.class
    }

    /// The cores of this cluster.
    pub fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// The V-F table of the shared regulator.
    pub fn table(&self) -> &VfTable {
        &self.table
    }

    /// Current operating level (the level *being left* while a transition is
    /// pending).
    pub fn level(&self) -> VfLevel {
        self.level
    }

    /// Current operating point.
    pub fn point(&self) -> VfPoint {
        self.table.point(self.level)
    }

    /// Target of the in-flight transition, if any.
    pub fn pending_level(&self) -> Option<VfLevel> {
        self.pending.map(|(l, _)| l)
    }

    /// The level the cluster is heading to: pending target if a transition is
    /// in flight, else the current level.
    pub fn effective_target(&self) -> VfLevel {
        self.pending.map_or(self.level, |(l, _)| l)
    }

    /// True when the cluster is power-gated.
    pub fn is_off(&self) -> bool {
        self.state == ClusterPowerState::Off
    }

    /// Per-core PU supply at the current level; zero when powered off.
    pub fn supply_per_core(&self) -> ProcessingUnits {
        match self.state {
            ClusterPowerState::Online => self.point().supply(),
            ClusterPowerState::Off => ProcessingUnits::ZERO,
        }
    }

    /// Per-core PU supply at the highest level (Ŝc in the paper).
    pub fn max_supply_per_core(&self) -> ProcessingUnits {
        self.table.max().supply()
    }

    /// Regulator transition latency.
    pub fn transition_latency(&self) -> SimDuration {
        self.transition_latency
    }

    /// Request a change to `target` at time `now`.
    ///
    /// Returns `true` if a transition was started (or re-targeted); `false`
    /// when the cluster is off or already at/heading to `target`.
    pub fn request_level(&mut self, target: VfLevel, now: SimTime) -> bool {
        if self.is_off() || target > self.table.max_level() {
            return false;
        }
        if self.effective_target() == target {
            return false;
        }
        self.pending = Some((target, now + self.transition_latency));
        true
    }

    /// Complete any due transition. Returns the newly-active level if a
    /// transition completed at or before `now`.
    pub fn tick(&mut self, now: SimTime) -> Option<VfLevel> {
        if let Some((target, due)) = self.pending {
            if now >= due {
                self.level = target;
                self.pending = None;
                return Some(target);
            }
        }
        None
    }

    /// Power the cluster down (e.g. no active tasks, or HL's TDP cutoff).
    /// Any in-flight transition is cancelled.
    pub fn power_off(&mut self) {
        self.state = ClusterPowerState::Off;
        self.pending = None;
    }

    /// Power the cluster back up at the lowest V-F level.
    pub fn power_on(&mut self) {
        if self.state == ClusterPowerState::Off {
            self.state = ClusterPowerState::Online;
            self.level = VfLevel(0);
            self.pending = None;
        }
    }

    /// Force the level immediately, bypassing the regulator latency.
    /// Intended for tests and for initial conditions.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range for the table.
    pub fn set_level_immediate(&mut self, level: VfLevel) {
        assert!(level <= self.table.max_level(), "level out of range");
        self.level = level;
        self.pending = None;
    }
}

impl fmt::Display for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}x{}] @ {}",
            self.id,
            self.cores.len(),
            self.class,
            self.point()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::MegaHertz;
    use crate::vf::linear_table;

    fn cluster() -> Cluster {
        Cluster::new(
            ClusterId(0),
            CoreClass::Little,
            vec![CoreId(0), CoreId(1), CoreId(2)],
            linear_table(MegaHertz(350), MegaHertz(1000), 8),
        )
    }

    #[test]
    fn starts_at_lowest_level_online() {
        let c = cluster();
        assert_eq!(c.level(), VfLevel(0));
        assert_eq!(c.supply_per_core(), ProcessingUnits(350.0));
        assert_eq!(c.max_supply_per_core(), ProcessingUnits(1000.0));
        assert!(!c.is_off());
    }

    #[test]
    fn transition_takes_latency() {
        let mut c = cluster();
        let t0 = SimTime::from_millis(10);
        assert!(c.request_level(VfLevel(3), t0));
        // Old level still in effect before the latency elapses.
        assert_eq!(c.level(), VfLevel(0));
        assert_eq!(c.tick(t0), None);
        let done = t0 + c.transition_latency();
        assert_eq!(c.tick(done), Some(VfLevel(3)));
        assert_eq!(c.level(), VfLevel(3));
        assert_eq!(c.pending_level(), None);
    }

    #[test]
    fn duplicate_request_is_ignored() {
        let mut c = cluster();
        let t0 = SimTime::ZERO;
        assert!(c.request_level(VfLevel(2), t0));
        assert!(!c.request_level(VfLevel(2), t0)); // already heading there
        c.tick(t0 + c.transition_latency());
        assert!(!c.request_level(VfLevel(2), t0)); // already there
    }

    #[test]
    fn out_of_range_request_rejected() {
        let mut c = cluster();
        assert!(!c.request_level(VfLevel(99), SimTime::ZERO));
    }

    #[test]
    fn power_off_zeroes_supply_and_cancels_transition() {
        let mut c = cluster();
        c.request_level(VfLevel(4), SimTime::ZERO);
        c.power_off();
        assert!(c.is_off());
        assert_eq!(c.supply_per_core(), ProcessingUnits::ZERO);
        assert_eq!(c.pending_level(), None);
        assert!(!c.request_level(VfLevel(1), SimTime::ZERO));
        c.power_on();
        assert_eq!(c.level(), VfLevel(0));
        assert!(!c.is_off());
    }

    #[test]
    fn effective_target_tracks_pending() {
        let mut c = cluster();
        assert_eq!(c.effective_target(), VfLevel(0));
        c.request_level(VfLevel(5), SimTime::ZERO);
        assert_eq!(c.effective_target(), VfLevel(5));
    }
}
