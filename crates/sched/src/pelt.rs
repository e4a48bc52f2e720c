//! Per-entity load tracking (PELT).
//!
//! Linux ≥ 3.7 tracks a geometrically-decayed average of each entity's
//! runnable time (Paul Turner's per-entity load tracking, which the paper
//! cites as a heartbeat substitute for demand estimation). The kernel decays
//! contributions by 0.5 every 32 ms; we implement the same half-life in
//! continuous form:
//!
//! ```text
//! load' = load · 2^(−dt/32ms) + fraction · (1 − 2^(−dt/32ms))
//! ```

use std::fmt;

use ppm_platform::units::SimDuration;

/// Geometrically-decayed runnable-fraction tracker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeltTracker {
    load: f64,
    half_life: SimDuration,
}

impl PeltTracker {
    /// The kernel's decay half-life (32 ms).
    pub const KERNEL_HALF_LIFE: SimDuration = SimDuration(32_000);

    /// A tracker with the kernel half-life, starting at zero load.
    pub fn new() -> PeltTracker {
        PeltTracker::with_half_life(Self::KERNEL_HALF_LIFE)
    }

    /// A tracker with a custom half-life.
    ///
    /// # Panics
    ///
    /// Panics on a zero half-life.
    pub fn with_half_life(half_life: SimDuration) -> PeltTracker {
        assert!(!half_life.is_zero(), "half-life must be positive");
        PeltTracker {
            load: 0.0,
            half_life,
        }
    }

    /// The factor `2^(−dt/half_life)` by which an interval of length `dt`
    /// decays the load.
    pub(crate) fn decay(dt: SimDuration, half_life: SimDuration) -> f64 {
        0.5_f64.powf(dt.as_secs_f64() / half_life.as_secs_f64())
    }

    /// Fold in an interval of length `dt` during which the entity was
    /// runnable for `fraction ∈ [0, 1]` of the time.
    pub fn update(&mut self, dt: SimDuration, fraction: f64) {
        self.update_decayed(Self::decay(dt, self.half_life), fraction);
    }

    /// [`PeltTracker::update`] with the interval's [`PeltTracker::decay`]
    /// for this tracker's half-life already computed, so that many trackers
    /// stepped over the same interval share one evaluation.
    pub(crate) fn update_decayed(&mut self, decay: f64, fraction: f64) {
        let fraction = fraction.clamp(0.0, 1.0);
        self.load = self.load * decay + fraction * (1.0 - decay);
    }

    /// Current load average in `[0, 1]`.
    pub fn load(&self) -> f64 {
        self.load
    }

    /// Reset to zero (fresh entity).
    pub fn reset(&mut self) {
        self.load = 0.0;
    }
}

impl Default for PeltTracker {
    fn default() -> Self {
        PeltTracker::new()
    }
}

impl fmt::Display for PeltTracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "load {:.3}", self.load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_constant_fraction() {
        let mut p = PeltTracker::new();
        for _ in 0..1000 {
            p.update(SimDuration::from_millis(1), 0.6);
        }
        assert!((p.load() - 0.6).abs() < 1e-6);
    }

    #[test]
    fn half_life_is_32ms() {
        let mut p = PeltTracker::new();
        // Saturate at 1.0, then go idle for exactly one half-life.
        for _ in 0..2000 {
            p.update(SimDuration::from_millis(1), 1.0);
        }
        p.update(SimDuration::from_millis(32), 0.0);
        assert!((p.load() - 0.5).abs() < 0.01, "load {}", p.load());
    }

    #[test]
    fn ramps_quickly_for_busy_tasks() {
        let mut p = PeltTracker::new();
        // ~100 ms of full activity is > 3 half-lives: load > 0.85.
        for _ in 0..100 {
            p.update(SimDuration::from_millis(1), 1.0);
        }
        assert!(p.load() > 0.85);
    }

    #[test]
    fn update_clamps_fraction() {
        let mut p = PeltTracker::new();
        p.update(SimDuration::from_secs(10), 5.0);
        assert!(p.load() <= 1.0);
    }

    #[test]
    fn reset_zeroes() {
        let mut p = PeltTracker::new();
        p.update(SimDuration::from_secs(1), 1.0);
        p.reset();
        assert_eq!(p.load(), 0.0);
    }
}
