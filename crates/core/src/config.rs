//! PPM framework configuration.

use std::fmt;

use ppm_platform::thermal::Celsius;
use ppm_platform::units::{Money, SimDuration, Watts};

/// Tunables of the price-theory power-management framework.
///
/// Defaults follow the paper's experimental setup on TC2: tolerance factor
/// δ = 0.2 (the Table 2 example value), a bidding round every 31.7 ms (the
/// shortest task period), load balancing every 3 bid rounds and migration
/// every 2 load-balance rounds (§3.4), TDP 8 W with the threshold ("buffer
/// zone") at 7 W.
#[derive(Debug, Clone, PartialEq)]
pub struct PpmConfig {
    /// Tolerance factor δ: the inflation/deflation rate a cluster agent
    /// tolerates before changing the V-F level by one step.
    pub tolerance: f64,
    /// Minimum bid `b_min` every task agent must place.
    pub min_bid: Money,
    /// Initial global allowance per unit of total priority; the chip agent
    /// starts with `A = initial_allowance_per_priority × R`.
    pub initial_allowance_per_priority: f64,
    /// Savings cap as a multiple of the task's current allowance ("we cap
    /// the savings of a task agent at a fraction of its current allowance").
    /// Large caps let tasks "keep the system in an emergency state longer
    /// than permissible" (§3.2.3); the default is tuned so savings-funded
    /// TDP excursions stay short on the TC2 power model.
    pub savings_cap_factor: f64,
    /// Thermal design power `W_tdp`.
    pub tdp: Watts,
    /// Threshold-state lower bound `W_th` (buffer-zone start).
    pub threshold: Watts,
    /// Bidding-round period (`max(linux sched epoch, shortest task period)`).
    pub bid_period: SimDuration,
    /// Load balancing runs every this many bid rounds.
    pub load_balance_every: u32,
    /// Task migration runs every this many load-balance invocations.
    pub migrate_every: u32,
    /// Power down clusters with no active tasks.
    pub power_down_idle_clusters: bool,
    /// Enable the LBT module (Figures 7/8 disable it to isolate the
    /// supply-demand dynamics).
    pub lbt_enabled: bool,
    /// Replace the off-line demand profiles with the online
    /// power-performance estimator (the paper's stated future work; see
    /// the `ppm-predict` crate).
    pub online_estimation: bool,
    /// Actuate resource shares through Linux nice values (the paper's
    /// kernel realization: "this is achieved by manipulating the nice
    /// values of each task") instead of exact shares. Nice levels quantize
    /// the share ratios to the kernel's 40-entry weight table.
    pub actuate_via_nice: bool,
    /// Optional thermal limit `(T_threshold, T_critical)`: when the hottest
    /// cluster crosses these junction temperatures, the chip agent treats
    /// the system as being in the threshold/emergency state even if the
    /// instantaneous power is inside the TDP. The TDP is a proxy for
    /// temperature; this closes the loop against the RC thermal model
    /// (an extension beyond the paper — see DESIGN.md).
    pub thermal_limit: Option<(Celsius, Celsius)>,
}

impl PpmConfig {
    /// The paper's TC2 configuration.
    pub fn tc2() -> PpmConfig {
        PpmConfig {
            tolerance: 0.2,
            min_bid: Money(0.01),
            initial_allowance_per_priority: 1.5,
            savings_cap_factor: 3.0,
            tdp: Watts(8.0),
            threshold: Watts(7.0),
            bid_period: SimDuration::from_micros(31_700),
            load_balance_every: 3,
            migrate_every: 2,
            power_down_idle_clusters: true,
            lbt_enabled: true,
            online_estimation: false,
            actuate_via_nice: false,
            thermal_limit: None,
        }
    }

    /// TC2 configuration with an artificial power cap, as in the Figure 6
    /// study (4 W TDP; the buffer zone scales proportionally).
    pub fn tc2_with_tdp(tdp: Watts) -> PpmConfig {
        PpmConfig {
            tdp,
            // A generous buffer zone (~the largest single V-F step's power
            // swing) so the system cannot jump from normal to emergency
            // without passing through the threshold state (§3.2.4).
            threshold: tdp * 0.875,
            ..PpmConfig::tc2()
        }
    }

    /// Disable load balancing and migration (the §5.4 priority/savings
    /// studies).
    pub fn without_lbt(mut self) -> PpmConfig {
        self.lbt_enabled = false;
        self
    }

    /// Use the online power-performance estimator instead of the off-line
    /// demand profiles.
    pub fn with_online_estimation(mut self) -> PpmConfig {
        self.online_estimation = true;
        self
    }

    /// Actuate shares through quantized nice values, as the paper's kernel
    /// modules do.
    pub fn with_nice_actuation(mut self) -> PpmConfig {
        self.actuate_via_nice = true;
        self
    }

    /// Enforce a junction-temperature limit alongside the power budget
    /// (requires a thermal model attached to the system).
    pub fn with_thermal_limit(mut self, threshold: Celsius, critical: Celsius) -> PpmConfig {
        self.thermal_limit = Some((threshold, critical));
        self
    }

    /// Derive the bidding period per §3.4: `max(linux sched epoch,
    /// shortest task period)`, where a heartbeat task's period is the
    /// reciprocal of its target rate. The paper's task set bottoms out at
    /// 31.7 ms; a set of slower tasks gets a correspondingly slower market.
    pub fn bid_period_for(target_rates_hz: &[f64]) -> SimDuration {
        const LINUX_SCHED_EPOCH: SimDuration = SimDuration(10_000);
        // The shortest period belongs to the fastest-beating task.
        let fastest = target_rates_hz
            .iter()
            .copied()
            .filter(|r| *r > 0.0)
            .fold(0.0_f64, f64::max);
        if fastest <= 0.0 {
            return SimDuration::from_micros(31_700);
        }
        let period = SimDuration::from_micros((1e6 / fastest) as u64);
        if period.as_micros() > LINUX_SCHED_EPOCH.as_micros() {
            period
        } else {
            LINUX_SCHED_EPOCH
        }
    }

    /// Load-balancing period: `load_balance_every × bid_period` (§3.4).
    pub fn load_balance_period(&self) -> SimDuration {
        self.bid_period * self.load_balance_every as u64
    }

    /// Task-migration period: `migrate_every × load_balance_period` (§3.4).
    pub fn migration_period(&self) -> SimDuration {
        self.load_balance_period() * self.migrate_every as u64
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..1.0).contains(&self.tolerance) || self.tolerance <= 0.0 {
            return Err(ConfigError("tolerance must lie in (0, 1)"));
        }
        if !self.min_bid.is_positive() {
            return Err(ConfigError("min_bid must be positive"));
        }
        if self.threshold >= self.tdp {
            return Err(ConfigError("threshold must be below the TDP"));
        }
        if self.bid_period.is_zero() {
            return Err(ConfigError("bid_period must be positive"));
        }
        if self.load_balance_every == 0 || self.migrate_every == 0 {
            return Err(ConfigError("LBT multipliers must be positive"));
        }
        if self.savings_cap_factor < 0.0 {
            return Err(ConfigError("savings cap must be non-negative"));
        }
        if let Some((th, crit)) = self.thermal_limit {
            if th >= crit {
                return Err(ConfigError("thermal threshold must be below critical"));
            }
        }
        Ok(())
    }
}

impl Default for PpmConfig {
    fn default() -> Self {
        PpmConfig::tc2()
    }
}

/// A configuration constraint violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError(pub &'static str);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid PPM configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tc2_defaults_follow_the_paper() {
        let c = PpmConfig::tc2();
        assert_eq!(c.tolerance, 0.2);
        assert_eq!(c.bid_period, SimDuration::from_micros(31_700));
        // §3.4: LB every 95.1 ms, migration every 190.2 ms.
        assert_eq!(c.load_balance_period(), SimDuration::from_micros(95_100));
        assert_eq!(c.migration_period(), SimDuration::from_micros(190_200));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn capped_config_scales_threshold() {
        let c = PpmConfig::tc2_with_tdp(Watts(4.0));
        assert_eq!(c.tdp, Watts(4.0));
        assert_eq!(c.threshold, Watts(3.5));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut c = PpmConfig::tc2();
        c.tolerance = 0.0;
        assert!(c.validate().is_err());
        let mut c = PpmConfig::tc2();
        c.threshold = c.tdp;
        assert!(c.validate().is_err());
        let mut c = PpmConfig::tc2();
        c.min_bid = Money::ZERO;
        assert!(c.validate().is_err());
    }

    #[test]
    fn without_lbt_disables_module() {
        assert!(!PpmConfig::tc2().without_lbt().lbt_enabled);
    }

    #[test]
    fn bid_period_follows_the_fastest_task() {
        // The paper's fastest task beats at ~31.5 hb/s -> 31.7 ms rounds.
        let p = PpmConfig::bid_period_for(&[10.0, 31.545, 20.0]);
        assert!((p.as_micros() as i64 - 31_700).abs() < 100, "{p}");
        // Very fast tasks clamp at the scheduler epoch.
        assert_eq!(
            PpmConfig::bid_period_for(&[500.0]),
            SimDuration::from_millis(10)
        );
        // No rates: the paper's default.
        assert_eq!(
            PpmConfig::bid_period_for(&[]),
            SimDuration::from_micros(31_700)
        );
    }
}
