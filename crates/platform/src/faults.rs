//! Deterministic fault injection for the hardware substrate.
//!
//! Real TC2 deployments never see the clean observables the simulator
//! produces: `hwmon` power readings are quantised and noisy, sensor reads
//! get dropped or return stale registers, cpufreq transitions occasionally
//! fail or land late, and sched migrations can bounce. The paper's agents
//! were built to survive exactly that environment, so the reproduction
//! needs a way to recreate it — *reproducibly*, because the whole test
//! pyramid is built on byte-identical actuation tapes.
//!
//! A [`FaultPlan`] is a seeded stream of fault decisions. Given the same
//! seed and the same sequence of queries it produces the same perturbations
//! and the same actuation outcomes, so a faulted run is as replayable as a
//! clean one. The plan only knows platform vocabulary (watts, degrees,
//! cluster ids, V-F levels); the scheduler layer decides *where* to consult
//! it — observation faults at snapshot capture, actuation faults between
//! tape and apply — which keeps this crate free of any scheduling types.
//!
//! Two invariants the higher layers rely on:
//!
//! * **Observation faults never touch physics.** Only the values reported
//!   to managers are perturbed; the platform's true power and temperature
//!   are whatever the models compute. Auditors can therefore check physical
//!   invariants against the true state while managers fly on bad data.
//! * **Disabled means free.** A simulation without a `FaultPlan` does not
//!   pay a single branch or byte for this module.

use crate::cluster::ClusterId;
use crate::thermal::Celsius;
use crate::units::{SimTime, Watts};
use crate::vf::VfLevel;
use rand::{Rng, SeedableRng, StdRng};

/// Probabilities and magnitudes of every fault class, plus the seed.
///
/// All probabilities are per *query* (one power reading, one DVFS request,
/// one migration, one quantum's crash check). The defaults model a grumpy
/// but serviceable board; [`FaultConfig::harsh`] models one on its way to
/// RMA.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the decision stream; same seed, same faults.
    pub seed: u64,
    /// Relative standard deviation of Gaussian noise on power readings
    /// (0.03 = 3 % of the true value).
    pub power_noise_sigma: f64,
    /// Power sensor LSB; readings are rounded to multiples of this
    /// (`Watts(0.0)` disables quantisation). TC2's energy counters
    /// resolve roughly centiwatts.
    pub power_quantum: Watts,
    /// Probability a power read returns the previous reading instead of a
    /// fresh one (stale register).
    pub stale_reading_prob: f64,
    /// Probability a power read fails outright and reports zero.
    pub dropped_reading_prob: f64,
    /// Probability a temperature read returns a transient spike.
    pub thermal_spike_prob: f64,
    /// Magnitude of a thermal spike in °C (scaled by 0.5–1.5× per event).
    pub thermal_spike_magnitude: f64,
    /// Probability a DVFS request is silently lost by the regulator.
    pub dvfs_fail_prob: f64,
    /// Probability a DVFS request lands late instead of immediately.
    pub dvfs_defer_prob: f64,
    /// Maximum extra quanta a deferred DVFS request waits before landing.
    pub dvfs_defer_quanta_max: u32,
    /// Probability a migration request fails and leaves the task in place.
    pub migration_fail_prob: f64,
    /// Per-quantum probability that one running task crashes.
    pub task_crash_prob: f64,
    /// Ceiling on injected crashes per run (keeps workloads alive).
    pub max_task_crashes: u32,
    /// Probability (decided once per cluster, on its first read) that a
    /// cluster agent's observation clock drifts: its power readings then
    /// permanently lag the chip-wide capture by a fixed number of quanta.
    pub clock_drift_prob: f64,
    /// Maximum lag, in quanta, of a drifted cluster clock.
    pub clock_drift_quanta_max: u32,
    /// Probability (decided once, on the chip sensor's first read) that the
    /// *chip-level* observation clock drifts: every chip-wide power reading
    /// then lags the true capture by a fixed number of quanta. In a fleet
    /// this ring-delays a whole chip's delivered observations — its manager
    /// and its exchange bids fly on old data while the other chips stay
    /// current.
    pub chip_clock_drift_prob: f64,
    /// Maximum lag, in quanta, of a drifted chip clock.
    pub chip_clock_drift_quanta_max: u32,
    /// Per-quantum probability the executor dies mid-actuation: only a
    /// random prefix of the plan's actions reaches the hardware.
    pub partial_plan_prob: f64,
}

impl FaultConfig {
    /// A moderately unreliable board: a few percent sensor noise, rare
    /// drops, occasional actuation hiccups, crashes effectively disabled.
    pub fn with_seed(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            power_noise_sigma: 0.03,
            power_quantum: Watts(0.01),
            stale_reading_prob: 0.02,
            dropped_reading_prob: 0.01,
            thermal_spike_prob: 0.005,
            thermal_spike_magnitude: 15.0,
            dvfs_fail_prob: 0.05,
            dvfs_defer_prob: 0.10,
            dvfs_defer_quanta_max: 5,
            migration_fail_prob: 0.10,
            task_crash_prob: 0.0,
            max_task_crashes: 0,
            clock_drift_prob: 0.25,
            clock_drift_quanta_max: 2,
            chip_clock_drift_prob: 0.25,
            chip_clock_drift_quanta_max: 2,
            partial_plan_prob: 0.02,
        }
    }

    /// A board on its last legs: heavy noise, frequent actuation failures,
    /// and a couple of task crashes over a run.
    pub fn harsh(seed: u64) -> FaultConfig {
        FaultConfig {
            power_noise_sigma: 0.10,
            power_quantum: Watts(0.05),
            stale_reading_prob: 0.10,
            dropped_reading_prob: 0.05,
            thermal_spike_prob: 0.02,
            thermal_spike_magnitude: 25.0,
            dvfs_fail_prob: 0.20,
            dvfs_defer_prob: 0.25,
            dvfs_defer_quanta_max: 10,
            migration_fail_prob: 0.30,
            task_crash_prob: 2e-4,
            max_task_crashes: 2,
            clock_drift_prob: 0.50,
            clock_drift_quanta_max: 4,
            chip_clock_drift_prob: 0.50,
            chip_clock_drift_quanta_max: 4,
            partial_plan_prob: 0.08,
            ..FaultConfig::with_seed(seed)
        }
    }

    /// A board whose only fault is Gaussian noise of relative `sigma` on
    /// the power readings: every other fault probability is zero and
    /// readings are not quantised. The noisy-sensor robustness checks run
    /// on it.
    pub fn sensor_noise(seed: u64, sigma: f64) -> FaultConfig {
        FaultConfig {
            power_noise_sigma: sigma,
            power_quantum: Watts(0.0),
            stale_reading_prob: 0.0,
            dropped_reading_prob: 0.0,
            thermal_spike_prob: 0.0,
            dvfs_fail_prob: 0.0,
            dvfs_defer_prob: 0.0,
            migration_fail_prob: 0.0,
            task_crash_prob: 0.0,
            clock_drift_prob: 0.0,
            chip_clock_drift_prob: 0.0,
            partial_plan_prob: 0.0,
            ..FaultConfig::with_seed(seed)
        }
    }

    /// True when every probability is a probability and every magnitude is
    /// finite and non-negative. Property tests generate arbitrary configs
    /// and this is the gate they must pass.
    pub fn is_valid(&self) -> bool {
        let p01 = |p: f64| (0.0..=1.0).contains(&p);
        p01(self.stale_reading_prob)
            && p01(self.dropped_reading_prob)
            && p01(self.thermal_spike_prob)
            && p01(self.dvfs_fail_prob)
            && p01(self.dvfs_defer_prob)
            && self.dvfs_fail_prob + self.dvfs_defer_prob <= 1.0
            && p01(self.migration_fail_prob)
            && p01(self.task_crash_prob)
            && p01(self.clock_drift_prob)
            && p01(self.chip_clock_drift_prob)
            && p01(self.partial_plan_prob)
            && self.power_noise_sigma.is_finite()
            && self.power_noise_sigma >= 0.0
            && self.power_quantum.value().is_finite()
            && self.power_quantum.value() >= 0.0
            && self.thermal_spike_magnitude.is_finite()
            && self.thermal_spike_magnitude >= 0.0
    }
}

/// Fate of one actuation command under fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActuationOutcome {
    /// The command takes effect this quantum, as on a clean run.
    Apply,
    /// The command is silently lost; the manager must notice and retry.
    Fail,
    /// The command lands the given number of quanta late.
    Defer(u32),
}

/// Tally of every fault the plan has injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Power reads that reported zero.
    pub dropped_readings: u64,
    /// Power reads that reported the previous value.
    pub stale_readings: u64,
    /// Temperature reads that reported a spike.
    pub thermal_spikes: u64,
    /// DVFS requests silently lost.
    pub dvfs_failed: u64,
    /// DVFS requests that landed late.
    pub dvfs_deferred: u64,
    /// Migration requests that failed.
    pub migrations_failed: u64,
    /// Tasks crashed.
    pub task_crashes: u64,
    /// Cluster power readings delivered late by a drifted agent clock.
    pub drifted_readings: u64,
    /// Chip-wide power readings delivered late by a drifted chip clock.
    pub chip_drifted_readings: u64,
    /// Plans truncated by a mid-actuation executor death.
    pub partial_plans: u64,
}

impl FaultStats {
    /// Total number of injected faults of any class.
    pub fn total(&self) -> u64 {
        self.dropped_readings
            + self.stale_readings
            + self.thermal_spikes
            + self.dvfs_failed
            + self.dvfs_deferred
            + self.migrations_failed
            + self.task_crashes
            + self.drifted_readings
            + self.chip_drifted_readings
            + self.partial_plans
    }
}

/// A DVFS request parked by [`ActuationOutcome::Defer`] until its due time.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DeferredDvfs {
    due: SimTime,
    cluster: ClusterId,
    level: VfLevel,
}

/// One observation clock (a cluster agent's, or the chip-wide sensor's):
/// lag 0 is an honest clock; a drifted clock delivers readings `lag`
/// quanta late through a small ring.
#[derive(Debug, Clone, PartialEq)]
struct ObsClock {
    lag: u32,
    ring: std::collections::VecDeque<Watts>,
}

impl ObsClock {
    /// Feed one fresh reading and return what the clock delivers: the
    /// fresh value for honest clocks, an older sample (first sample during
    /// warmup) for drifted ones. `late` is bumped on each late delivery.
    fn deliver(&mut self, reading: Watts, late: &mut u64) -> Watts {
        if self.lag == 0 {
            return reading;
        }
        self.ring.push_back(reading);
        if self.ring.len() > self.lag as usize + 1 {
            self.ring.pop_front();
        }
        // Until the ring warms past one entry the front IS the fresh
        // reading (the agent's first sample); only late deliveries count
        // as injected faults.
        if self.ring.len() > 1 {
            *late += 1;
        }
        *self.ring.front().expect("ring just fed")
    }
}

/// Seeded, replayable stream of fault decisions.
///
/// Each query method draws from the plan's private generator, so a fixed
/// seed plus a fixed query sequence yields a fixed fault pattern. The
/// scheduler is expected to query in simulation order (observations at
/// capture, actuations in plan order), which the executor guarantees.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    rng: StdRng,
    /// Last good (delivered, non-faulted) reading per power sensor, for
    /// stale-register faults. Index 0 is the chip sensor, `1 + c` the
    /// sensor of cluster `c`.
    last_power: Vec<Option<Watts>>,
    deferred: Vec<DeferredDvfs>,
    /// Per-cluster observation clocks; `None` until the first read decides
    /// whether that cluster's clock drifts.
    cluster_clocks: Vec<Option<ObsClock>>,
    /// The chip-wide observation clock; `None` until the chip sensor's
    /// first read decides whether it drifts.
    chip_clock: Option<ObsClock>,
    crashes_injected: u32,
    stats: FaultStats,
}

impl FaultPlan {
    /// A plan driven by `config` (which carries the seed).
    pub fn new(config: FaultConfig) -> FaultPlan {
        let rng = StdRng::seed_from_u64(config.seed);
        FaultPlan {
            config,
            rng,
            last_power: Vec::new(),
            deferred: Vec::new(),
            cluster_clocks: Vec::new(),
            chip_clock: None,
            crashes_injected: 0,
            stats: FaultStats::default(),
        }
    }

    /// A plan with the default fault profile and the given seed.
    pub fn from_seed(seed: u64) -> FaultPlan {
        FaultPlan::new(FaultConfig::with_seed(seed))
    }

    /// The configuration this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Tally of faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// One standard Gaussian variate via Box–Muller (the vendored `rand`
    /// has no normal distribution). Always consumes exactly two uniforms.
    fn gauss(&mut self) -> f64 {
        // Keep u1 away from 0 so ln() stays finite.
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Perturb one power reading.
    ///
    /// `sensor` identifies the stale-value register: 0 for the chip sensor,
    /// `1 + c` for cluster `c`'s sensor. The true value is whatever the
    /// power model computed; the return value is what the manager sees.
    /// Faults are tried in hardware order — a dropped read masks
    /// everything, a stale read masks noise — and each call consumes the
    /// same number of random draws regardless of outcome, so fault
    /// patterns are stable under config tweaks to *magnitudes*.
    pub fn perturb_power(&mut self, sensor: usize, true_value: Watts) -> Watts {
        if self.last_power.len() <= sensor {
            self.last_power.resize(sensor + 1, None);
        }
        let dropped = self.rng.gen_bool(self.config.dropped_reading_prob);
        let stale = self.rng.gen_bool(self.config.stale_reading_prob);
        let noise = self.gauss();
        if dropped {
            self.stats.dropped_readings += 1;
            return Watts::ZERO;
        }
        if stale {
            if let Some(prev) = self.last_power[sensor] {
                self.stats.stale_readings += 1;
                return prev;
            }
        }
        let mut w = true_value.value() * (1.0 + self.config.power_noise_sigma * noise);
        let q = self.config.power_quantum.value();
        if q > 0.0 {
            w = (w / q).round() * q;
        }
        let w = Watts(w.max(0.0));
        self.last_power[sensor] = Some(w);
        w
    }

    /// Perturb one temperature reading (transient spikes only; sustained
    /// bias would defeat the thermal-pressure safety net rather than test
    /// it).
    pub fn perturb_temperature(&mut self, true_value: Celsius) -> Celsius {
        let spike = self.rng.gen_bool(self.config.thermal_spike_prob);
        let scale: f64 = self.rng.gen_range(0.5..=1.5);
        if spike {
            self.stats.thermal_spikes += 1;
            Celsius(true_value.value() + self.config.thermal_spike_magnitude * scale)
        } else {
            true_value
        }
    }

    /// Decide the fate of one DVFS request.
    pub fn dvfs_outcome(&mut self) -> ActuationOutcome {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let defer_quanta: u32 = self
            .rng
            .gen_range(1..=self.config.dvfs_defer_quanta_max.max(1));
        if u < self.config.dvfs_fail_prob {
            self.stats.dvfs_failed += 1;
            ActuationOutcome::Fail
        } else if u < self.config.dvfs_fail_prob + self.config.dvfs_defer_prob {
            self.stats.dvfs_deferred += 1;
            ActuationOutcome::Defer(defer_quanta)
        } else {
            ActuationOutcome::Apply
        }
    }

    /// Decide whether one migration request goes through.
    pub fn migration_applies(&mut self) -> bool {
        if self.rng.gen_bool(self.config.migration_fail_prob) {
            self.stats.migrations_failed += 1;
            false
        } else {
            true
        }
    }

    /// Park a deferred DVFS request until `due`.
    pub fn defer_dvfs(&mut self, due: SimTime, cluster: ClusterId, level: VfLevel) {
        self.deferred.push(DeferredDvfs {
            due,
            cluster,
            level,
        });
    }

    /// Pop the next parked DVFS request whose due time has arrived, in
    /// insertion order. Call until `None` each quantum.
    pub fn pop_due_dvfs(&mut self, now: SimTime) -> Option<(ClusterId, VfLevel)> {
        let idx = self.deferred.iter().position(|d| d.due <= now)?;
        let d = self.deferred.remove(idx);
        Some((d.cluster, d.level))
    }

    /// Apply cluster `c`'s observation clock drift to its power reading.
    ///
    /// The paper's cluster agents each sample their sensor on their own
    /// timer; with probability `clock_drift_prob` (decided once per
    /// cluster, on its first read — two draws then, none afterwards) a
    /// cluster's clock drifts and every reading it delivers lags the
    /// chip-wide capture by a fixed `1..=clock_drift_quanta_max` quanta.
    /// Call once per cluster per quantum, in cluster order, *after*
    /// [`FaultPlan::perturb_power`]: drift delays what the sensor
    /// reported, sensor faults included.
    pub fn drift_cluster_power(&mut self, cluster: usize, reading: Watts) -> Watts {
        if self.cluster_clocks.len() <= cluster {
            self.cluster_clocks.resize_with(cluster + 1, || None);
        }
        if self.cluster_clocks[cluster].is_none() {
            let drifts = self.rng.gen_bool(self.config.clock_drift_prob);
            let lag: u32 = self
                .rng
                .gen_range(1..=self.config.clock_drift_quanta_max.max(1));
            self.cluster_clocks[cluster] = Some(ObsClock {
                lag: if drifts { lag } else { 0 },
                ring: std::collections::VecDeque::new(),
            });
        }
        let clock = self.cluster_clocks[cluster]
            .as_mut()
            .expect("clock just decided");
        clock.deliver(reading, &mut self.stats.drifted_readings)
    }

    /// Apply the *chip-wide* observation clock drift to the chip power
    /// reading — the per-chip analogue of [`FaultPlan::drift_cluster_power`]
    /// (PR 6's per-cluster drift lifted one level): with probability
    /// `chip_clock_drift_prob` (decided once, on the first read — two draws
    /// then, none afterwards) the chip sensor's whole delivery path lags by
    /// a fixed `1..=chip_clock_drift_quanta_max` quanta. Call once per
    /// quantum, *after* [`FaultPlan::perturb_power`] on the chip sensor:
    /// drift delays what the sensor reported, sensor faults included. In a
    /// fleet this is the chip whose manager — and whose exchange bids —
    /// run a few quanta behind the rest of the datacenter.
    pub fn drift_chip_power(&mut self, reading: Watts) -> Watts {
        if self.chip_clock.is_none() {
            let drifts = self.rng.gen_bool(self.config.chip_clock_drift_prob);
            let lag: u32 = self
                .rng
                .gen_range(1..=self.config.chip_clock_drift_quanta_max.max(1));
            self.chip_clock = Some(ObsClock {
                lag: if drifts { lag } else { 0 },
                ring: std::collections::VecDeque::new(),
            });
        }
        let clock = self.chip_clock.as_mut().expect("clock just decided");
        clock.deliver(reading, &mut self.stats.chip_drifted_readings)
    }

    /// Decide whether the executor dies mid-actuation this quantum: with
    /// probability `partial_plan_prob`, only the first `Some(k)` of `ops`
    /// planned actions reach the hardware (`k` uniform in `0..ops`, so at
    /// least one action is lost). The tape has already recorded the full
    /// intent — managers must notice and re-issue, exactly as after a
    /// failed actuation. Consumes two draws whenever `ops > 0`.
    pub fn plan_cut(&mut self, ops: usize) -> Option<usize> {
        if ops == 0 {
            return None;
        }
        let dies = self.rng.gen_bool(self.config.partial_plan_prob);
        let keep = self.rng.gen_range(0..ops);
        if dies {
            self.stats.partial_plans += 1;
            Some(keep)
        } else {
            None
        }
    }

    /// Decide whether a task crashes this quantum; returns the index of
    /// the victim among `active_tasks` currently-running tasks. Bounded by
    /// `max_task_crashes` for the whole run.
    pub fn task_crash(&mut self, active_tasks: usize) -> Option<usize> {
        if active_tasks == 0
            || self.crashes_injected >= self.config.max_task_crashes
            || !self.rng.gen_bool(self.config.task_crash_prob)
        {
            return None;
        }
        self.crashes_injected += 1;
        self.stats.task_crashes += 1;
        Some(self.rng.gen_range(0..active_tasks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy() -> FaultConfig {
        FaultConfig::harsh(42)
    }

    #[test]
    fn identical_seeds_give_identical_decision_streams() {
        let mut a = FaultPlan::new(noisy());
        let mut b = FaultPlan::new(noisy());
        for i in 0..2000 {
            assert_eq!(
                a.perturb_power(i % 3, Watts(1.0 + i as f64 * 0.01)),
                b.perturb_power(i % 3, Watts(1.0 + i as f64 * 0.01)),
            );
            assert_eq!(a.dvfs_outcome(), b.dvfs_outcome());
            assert_eq!(a.migration_applies(), b.migration_applies());
            assert_eq!(
                a.perturb_temperature(Celsius(40.0)),
                b.perturb_temperature(Celsius(40.0))
            );
            assert_eq!(
                a.drift_cluster_power(i % 3, Watts(i as f64)),
                b.drift_cluster_power(i % 3, Watts(i as f64))
            );
            assert_eq!(
                a.drift_chip_power(Watts(i as f64)),
                b.drift_chip_power(Watts(i as f64))
            );
            assert_eq!(a.plan_cut(1 + i % 4), b.plan_cut(1 + i % 4));
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().total() > 0, "harsh profile injected nothing");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultPlan::from_seed(1);
        let mut b = FaultPlan::from_seed(2);
        let same =
            (0..100).all(|_| a.perturb_power(0, Watts(2.0)) == b.perturb_power(0, Watts(2.0)));
        assert!(!same);
    }

    #[test]
    fn noise_is_centred_and_bounded() {
        let mut cfg = FaultConfig::with_seed(7);
        cfg.stale_reading_prob = 0.0;
        cfg.dropped_reading_prob = 0.0;
        cfg.power_quantum = Watts(0.0);
        cfg.power_noise_sigma = 0.05;
        let mut plan = FaultPlan::new(cfg);
        let mut sum = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let w = plan.perturb_power(0, Watts(4.0));
            assert!(w.value() >= 0.0);
            sum += w.value();
        }
        let mean = sum / n as f64;
        assert!((mean - 4.0).abs() < 0.02, "mean drifted to {mean}");
    }

    #[test]
    fn quantisation_snaps_to_the_lsb() {
        let mut cfg = FaultConfig::with_seed(3);
        cfg.stale_reading_prob = 0.0;
        cfg.dropped_reading_prob = 0.0;
        cfg.power_noise_sigma = 0.0;
        cfg.power_quantum = Watts(0.25);
        let mut plan = FaultPlan::new(cfg);
        assert_eq!(plan.perturb_power(0, Watts(1.07)), Watts(1.0));
        assert_eq!(plan.perturb_power(0, Watts(1.19)), Watts(1.25));
    }

    #[test]
    fn stale_reads_replay_the_last_good_value() {
        let mut cfg = FaultConfig::with_seed(11);
        cfg.stale_reading_prob = 1.0;
        cfg.dropped_reading_prob = 0.0;
        cfg.power_noise_sigma = 0.0;
        cfg.power_quantum = Watts(0.0);
        let mut plan = FaultPlan::new(cfg);
        // First read has no previous value, so it passes through.
        assert_eq!(plan.perturb_power(0, Watts(3.0)), Watts(3.0));
        // Every later read replays it, per sensor.
        assert_eq!(plan.perturb_power(0, Watts(9.0)), Watts(3.0));
        assert_eq!(plan.perturb_power(1, Watts(5.0)), Watts(5.0));
        assert_eq!(plan.perturb_power(1, Watts(9.0)), Watts(5.0));
    }

    #[test]
    fn dropped_reads_report_zero() {
        let mut cfg = FaultConfig::with_seed(13);
        cfg.dropped_reading_prob = 1.0;
        let mut plan = FaultPlan::new(cfg);
        assert_eq!(plan.perturb_power(0, Watts(6.0)), Watts::ZERO);
        assert_eq!(plan.perturb_power(1, Watts(2.0)), Watts::ZERO);
        assert_eq!(plan.stats().dropped_readings, 2);
    }

    #[test]
    fn deferred_dvfs_pops_in_order_once_due() {
        let mut plan = FaultPlan::from_seed(5);
        plan.defer_dvfs(SimTime(3000), ClusterId(0), VfLevel(2));
        plan.defer_dvfs(SimTime(1000), ClusterId(1), VfLevel(4));
        plan.defer_dvfs(SimTime(1000), ClusterId(0), VfLevel(1));
        assert_eq!(plan.pop_due_dvfs(SimTime(500)), None);
        assert_eq!(
            plan.pop_due_dvfs(SimTime(1000)),
            Some((ClusterId(1), VfLevel(4)))
        );
        assert_eq!(
            plan.pop_due_dvfs(SimTime(1000)),
            Some((ClusterId(0), VfLevel(1)))
        );
        assert_eq!(plan.pop_due_dvfs(SimTime(1000)), None);
        assert_eq!(
            plan.pop_due_dvfs(SimTime(3000)),
            Some((ClusterId(0), VfLevel(2)))
        );
    }

    #[test]
    fn crash_budget_is_respected() {
        let mut cfg = FaultConfig::with_seed(17);
        cfg.task_crash_prob = 1.0;
        cfg.max_task_crashes = 3;
        let mut plan = FaultPlan::new(cfg);
        let mut crashed = 0;
        for _ in 0..100 {
            if let Some(victim) = plan.task_crash(4) {
                assert!(victim < 4);
                crashed += 1;
            }
        }
        assert_eq!(crashed, 3);
        assert_eq!(plan.stats().task_crashes, 3);
        assert_eq!(plan.task_crash(0), None);
    }

    #[test]
    fn dvfs_outcomes_cover_all_fates() {
        let mut plan = FaultPlan::new(noisy());
        let mut seen = (false, false, false);
        for _ in 0..1000 {
            match plan.dvfs_outcome() {
                ActuationOutcome::Apply => seen.0 = true,
                ActuationOutcome::Fail => seen.1 = true,
                ActuationOutcome::Defer(q) => {
                    assert!((1..=10).contains(&q));
                    seen.2 = true;
                }
            }
        }
        assert!(seen.0 && seen.1 && seen.2, "missing outcome: {seen:?}");
    }

    #[test]
    fn drifted_clocks_deliver_readings_late() {
        let mut cfg = FaultConfig::with_seed(23);
        cfg.clock_drift_prob = 1.0;
        cfg.clock_drift_quanta_max = 2;
        let mut plan = FaultPlan::new(cfg);
        // Lag is 1 or 2; either way reading k arrives at quantum k + lag,
        // and the warmup quanta replay the agent's first sample.
        let delivered: Vec<f64> = (0..8)
            .map(|q| plan.drift_cluster_power(0, Watts(q as f64)).value())
            .collect();
        let lag = delivered
            .iter()
            .rposition(|&w| w == 0.0)
            .expect("first sample replays during warmup");
        assert!((1..=2).contains(&lag), "lag {lag} out of range");
        for (q, &w) in delivered.iter().enumerate().skip(lag) {
            assert_eq!(w, (q - lag) as f64, "quantum {q}");
        }
        // Every read after the first replays an older sample while real
        // time moves on, so all 7 later reads count as late deliveries.
        assert_eq!(plan.stats().drifted_readings, 7);
    }

    #[test]
    fn drifted_chip_clock_delivers_readings_late() {
        let mut cfg = FaultConfig::with_seed(37);
        cfg.chip_clock_drift_prob = 1.0;
        cfg.chip_clock_drift_quanta_max = 3;
        let mut plan = FaultPlan::new(cfg);
        let delivered: Vec<f64> = (0..10)
            .map(|q| plan.drift_chip_power(Watts(q as f64)).value())
            .collect();
        let lag = delivered
            .iter()
            .rposition(|&w| w == 0.0)
            .expect("first sample replays during warmup");
        assert!((1..=3).contains(&lag), "lag {lag} out of range");
        for (q, &w) in delivered.iter().enumerate().skip(lag) {
            assert_eq!(w, (q - lag) as f64, "quantum {q}");
        }
        assert_eq!(plan.stats().chip_drifted_readings, 9);
        // Chip drift is accounted separately from cluster drift.
        assert_eq!(plan.stats().drifted_readings, 0);
    }

    #[test]
    fn honest_chip_clock_passes_readings_through() {
        let mut cfg = FaultConfig::with_seed(41);
        cfg.chip_clock_drift_prob = 0.0;
        let mut plan = FaultPlan::new(cfg);
        for q in 0..20 {
            assert_eq!(plan.drift_chip_power(Watts(q as f64)), Watts(q as f64));
        }
        assert_eq!(plan.stats().chip_drifted_readings, 0);
    }

    #[test]
    fn chip_and_cluster_clocks_drift_independently() {
        // Same plan, chip drifting, clusters honest: cluster readings pass
        // through untouched while the chip reading lags.
        let mut cfg = FaultConfig::with_seed(43);
        cfg.chip_clock_drift_prob = 1.0;
        cfg.chip_clock_drift_quanta_max = 1;
        cfg.clock_drift_prob = 0.0;
        let mut plan = FaultPlan::new(cfg);
        for q in 0..6 {
            let chip = plan.drift_chip_power(Watts(10.0 + q as f64));
            let cl = plan.drift_cluster_power(0, Watts(q as f64));
            assert_eq!(cl, Watts(q as f64), "quantum {q}");
            if q > 0 {
                assert_eq!(chip, Watts(10.0 + (q - 1) as f64), "quantum {q}");
            }
        }
        assert!(plan.stats().chip_drifted_readings > 0);
        assert_eq!(plan.stats().drifted_readings, 0);
    }

    #[test]
    fn honest_clocks_pass_readings_through() {
        let mut cfg = FaultConfig::with_seed(29);
        cfg.clock_drift_prob = 0.0;
        let mut plan = FaultPlan::new(cfg);
        for q in 0..20 {
            assert_eq!(
                plan.drift_cluster_power(q % 4, Watts(q as f64)),
                Watts(q as f64)
            );
        }
        assert_eq!(plan.stats().drifted_readings, 0);
    }

    #[test]
    fn plan_cuts_keep_a_strict_prefix() {
        let mut cfg = FaultConfig::with_seed(31);
        cfg.partial_plan_prob = 1.0;
        let mut plan = FaultPlan::new(cfg);
        assert_eq!(plan.plan_cut(0), None, "empty plans draw nothing");
        for ops in 1..50 {
            let keep = plan.plan_cut(ops).expect("prob 1.0 always cuts");
            assert!(keep < ops, "must lose at least one op");
        }
        assert_eq!(plan.stats().partial_plans, 49);
        cfg = FaultConfig::with_seed(31);
        cfg.partial_plan_prob = 0.0;
        let mut plan = FaultPlan::new(cfg);
        assert_eq!(plan.plan_cut(10), None);
    }

    #[test]
    fn default_profiles_are_valid() {
        assert!(FaultConfig::with_seed(0).is_valid());
        assert!(FaultConfig::harsh(0).is_valid());
        assert!(FaultConfig::sensor_noise(0, 0.05).is_valid());
        let mut bad = FaultConfig::with_seed(0);
        bad.dvfs_fail_prob = 0.8;
        bad.dvfs_defer_prob = 0.8;
        assert!(!bad.is_valid());
    }
}
