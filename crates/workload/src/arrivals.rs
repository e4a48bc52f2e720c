//! Seeded arrival processes for open-loop request workloads.
//!
//! Closed-loop heartbeat benchmarks regulate themselves: the faster they
//! run, the sooner the next unit of work appears. Traffic does not. This
//! module models *open-loop* arrivals — requests land whether or not the
//! server keeps up — with three deterministic, seeded generators:
//!
//! * [`ArrivalKind::Poisson`] — memoryless arrivals at a fixed rate λ,
//!   drawn by inverse-CDF sampling of the exponential inter-arrival law.
//! * [`ArrivalKind::Bursty`] — a two-state Markov-modulated Poisson
//!   process: exponential sojourns alternate a base rate with a burst
//!   rate, the classic on/off "flash crowd" shape.
//! * [`ArrivalKind::Diurnal`] — a non-homogeneous Poisson process whose
//!   rate follows a sinusoidal day curve, sampled by Lewis–Shedler
//!   thinning; one period integrates exactly to the configured volume.
//!
//! Everything is reproducible: the same `(kind, seed)` pair yields a
//! byte-identical arrival tape on any thread count or platform, which is
//! what lets golden tapes and the cross-thread determinism suite cover
//! open-loop runs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ppm_platform::units::SimTime;

/// The shape of an open-loop arrival process (rates in requests/second).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalKind {
    /// Homogeneous Poisson arrivals at `rate` req/s.
    Poisson {
        /// Mean arrival rate λ (req/s).
        rate: f64,
    },
    /// Markov-modulated on/off Poisson process: `base_rate` req/s in the
    /// quiet state, `burst_rate` req/s in the burst state, with
    /// exponentially distributed sojourns of the given means.
    Bursty {
        /// Quiet-state arrival rate (req/s).
        base_rate: f64,
        /// Burst-state arrival rate (req/s).
        burst_rate: f64,
        /// Mean burst duration (s).
        mean_on_s: f64,
        /// Mean quiet duration (s).
        mean_off_s: f64,
    },
    /// Non-homogeneous Poisson arrivals on a sinusoidal day curve:
    /// `rate(t) = (volume/period) · (1 + depth·sin(2πt/period))`.
    /// One period integrates exactly to `volume` expected requests.
    Diurnal {
        /// Expected requests per period (the "daily volume").
        volume: f64,
        /// Period of the rate curve (s); a compressed "day".
        period_s: f64,
        /// Relative swing of the curve, in `[0, 1)`.
        depth: f64,
    },
}

impl ArrivalKind {
    /// Instantaneous arrival rate (req/s) at time `t_s` seconds.
    ///
    /// For the homogeneous kinds this is the long-run mean (the bursty
    /// process reports its stationary mean, not the current state).
    pub fn rate_at(&self, t_s: f64) -> f64 {
        match *self {
            ArrivalKind::Poisson { rate } => rate,
            ArrivalKind::Bursty {
                base_rate,
                burst_rate,
                mean_on_s,
                mean_off_s,
            } => (burst_rate * mean_on_s + base_rate * mean_off_s) / (mean_on_s + mean_off_s),
            ArrivalKind::Diurnal {
                volume,
                period_s,
                depth,
            } => {
                let mean = volume / period_s;
                mean * (1.0 + depth * (std::f64::consts::TAU * t_s / period_s).sin())
            }
        }
    }

    /// Long-run mean arrival rate (req/s).
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalKind::Diurnal {
                volume, period_s, ..
            } => volume / period_s,
            _ => self.rate_at(0.0),
        }
    }

    fn validate(&self) {
        match *self {
            ArrivalKind::Poisson { rate } => {
                assert!(rate > 0.0, "Poisson rate must be positive");
            }
            ArrivalKind::Bursty {
                base_rate,
                burst_rate,
                mean_on_s,
                mean_off_s,
            } => {
                assert!(base_rate >= 0.0 && burst_rate > 0.0, "bursty rates invalid");
                assert!(mean_on_s > 0.0 && mean_off_s > 0.0, "sojourn means invalid");
            }
            ArrivalKind::Diurnal {
                volume,
                period_s,
                depth,
            } => {
                assert!(volume > 0.0 && period_s > 0.0, "diurnal curve invalid");
                assert!((0.0..1.0).contains(&depth), "depth must be in [0, 1)");
            }
        }
    }
}

/// A lazily-evaluated, seeded arrival stream.
///
/// Construction generates the first arrival; [`ArrivalProcess::next_due`]
/// pops arrivals at or before the caller's clock, generating the successor
/// on the fly. Steady-state operation never allocates.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    kind: ArrivalKind,
    rng: StdRng,
    /// Generator clock (s): the time up to which sojourns are resolved.
    cursor_s: f64,
    /// The next undelivered arrival (µs).
    next_us: u64,
    /// Bursty state: currently in the burst (on) state?
    burst_on: bool,
    /// Bursty state: end of the current sojourn (s).
    sojourn_end_s: f64,
    delivered: u64,
}

impl ArrivalProcess {
    /// A seeded stream of `kind` arrivals starting at time zero.
    ///
    /// # Panics
    ///
    /// Panics on non-positive rates, sojourns, or an out-of-range depth.
    pub fn new(kind: ArrivalKind, seed: u64) -> ArrivalProcess {
        kind.validate();
        let mut p = ArrivalProcess {
            kind,
            rng: StdRng::seed_from_u64(seed),
            cursor_s: 0.0,
            next_us: 0,
            burst_on: false,
            sojourn_end_s: 0.0,
            delivered: 0,
        };
        if let ArrivalKind::Bursty { mean_off_s, .. } = kind {
            // Start quiet; the first sojourn length is part of the tape.
            p.sojourn_end_s = exp_sample(&mut p.rng) * mean_off_s;
        }
        p.next_us = p.generate();
        p
    }

    /// The arrival shape.
    pub fn kind(&self) -> ArrivalKind {
        self.kind
    }

    /// Arrivals delivered so far via [`ArrivalProcess::next_due`].
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Timestamp of the next undelivered arrival.
    pub fn peek_next(&self) -> SimTime {
        SimTime(self.next_us)
    }

    /// Pop the next arrival if it is due at or before `now`.
    pub fn next_due(&mut self, now: SimTime) -> Option<SimTime> {
        if self.next_us > now.as_micros() {
            return None;
        }
        let due = SimTime(self.next_us);
        self.next_us = self.generate();
        self.delivered += 1;
        Some(due)
    }

    /// Generate the next arrival timestamp (µs), advancing the clock.
    fn generate(&mut self) -> u64 {
        let at_s = match self.kind {
            ArrivalKind::Poisson { rate } => {
                self.cursor_s += exp_sample(&mut self.rng) / rate;
                self.cursor_s
            }
            ArrivalKind::Bursty {
                base_rate,
                burst_rate,
                mean_on_s,
                mean_off_s,
            } => loop {
                let rate = if self.burst_on { burst_rate } else { base_rate };
                let candidate = self.cursor_s + exp_sample(&mut self.rng) / rate;
                if candidate <= self.sojourn_end_s {
                    self.cursor_s = candidate;
                    break candidate;
                }
                // The candidate falls past this sojourn: discard it
                // (memorylessness), flip state, draw the next sojourn.
                self.cursor_s = self.sojourn_end_s;
                self.burst_on = !self.burst_on;
                let mean = if self.burst_on { mean_on_s } else { mean_off_s };
                self.sojourn_end_s = self.cursor_s + exp_sample(&mut self.rng) * mean;
            },
            ArrivalKind::Diurnal {
                volume,
                period_s,
                depth,
            } => {
                // Lewis–Shedler thinning against the peak rate.
                let mean = volume / period_s;
                let peak = mean * (1.0 + depth);
                loop {
                    self.cursor_s += exp_sample(&mut self.rng) / peak;
                    let r = self.kind.rate_at(self.cursor_s);
                    if self.rng.gen_range(0.0..1.0) * peak <= r {
                        break self.cursor_s;
                    }
                }
            }
        };
        (at_s * 1e6).round() as u64
    }

    /// Render the first `n` arrival timestamps (µs, one per line) of a
    /// fresh `(kind, seed)` stream — the *arrival tape* pinned by the
    /// determinism suite and by this module's `ol2` tape-digest test.
    pub fn tape(kind: ArrivalKind, seed: u64, n: usize) -> String {
        use std::fmt::Write as _;
        let mut p = ArrivalProcess::new(kind, seed);
        let mut out = String::new();
        for _ in 0..n {
            writeln!(out, "{}", p.next_us).expect("string write");
            p.next_us = p.generate();
        }
        out
    }

    /// FNV-1a digest of the arrival tape, for cheap pinning in CI.
    pub fn tape_digest(kind: ArrivalKind, seed: u64, n: usize) -> u64 {
        let tape = Self::tape(kind, seed, n);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in tape.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// A unit-mean exponential sample by inverse-CDF.
fn exp_sample(rng: &mut StdRng) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    const POISSON: ArrivalKind = ArrivalKind::Poisson { rate: 40.0 };
    const BURSTY: ArrivalKind = ArrivalKind::Bursty {
        base_rate: 10.0,
        burst_rate: 120.0,
        mean_on_s: 0.5,
        mean_off_s: 2.0,
    };
    const DIURNAL: ArrivalKind = ArrivalKind::Diurnal {
        volume: 2000.0,
        period_s: 60.0,
        depth: 0.8,
    };

    /// Mean inter-arrival over `n` arrivals at a pinned seed.
    fn mean_gap_s(kind: ArrivalKind, seed: u64, n: usize) -> f64 {
        let mut p = ArrivalProcess::new(kind, seed);
        let mut last = 0.0;
        let mut sum = 0.0;
        for _ in 0..n {
            let t = p.next_us as f64 / 1e6;
            sum += t - last;
            last = t;
            p.next_us = p.generate();
        }
        sum / n as f64
    }

    #[test]
    fn poisson_mean_interarrival_matches_rate() {
        // Within 5 % of 1/λ at pinned seeds.
        for seed in [1u64, 42, 165] {
            let mean = mean_gap_s(POISSON, seed, 4000);
            assert!(
                (mean - 1.0 / 40.0).abs() < 0.05 / 40.0,
                "seed {seed}: {mean}"
            );
        }
    }

    #[test]
    fn bursty_settles_at_its_stationary_mean() {
        // Long horizon: sojourns average 2.5 s, so 300 s sees ~120 cycles.
        let mut p = ArrivalProcess::new(BURSTY, 7);
        let mut n = 0u64;
        while p.next_us < 300_000_000 {
            n += 1;
            p.next_us = p.generate();
        }
        // Stationary mean = (120*0.5 + 10*2) / 2.5 = 32 req/s.
        let rate = n as f64 / 300.0;
        assert!((rate - BURSTY.mean_rate()).abs() < 5.0, "rate {rate}");
        assert!((BURSTY.mean_rate() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn diurnal_curve_integrates_to_daily_volume() {
        // Analytically: the sinusoid integrates to zero over a period, so
        // ∫ rate dt = volume. Confirm by numeric quadrature of rate_at.
        let steps = 100_000;
        let dt = 60.0 / steps as f64;
        let integral: f64 = (0..steps)
            .map(|i| DIURNAL.rate_at((i as f64 + 0.5) * dt) * dt)
            .sum();
        assert!((integral - 2000.0).abs() < 0.01, "integral {integral}");
    }

    #[test]
    fn diurnal_empirical_volume_is_close() {
        // Count arrivals over one period: a Poisson count of mean 2000.
        let mut p = ArrivalProcess::new(DIURNAL, 11);
        let mut n = 0u64;
        while p.next_us < 60_000_000 {
            n += 1;
            p.next_us = p.generate();
        }
        assert!((n as f64 - 2000.0).abs() < 200.0, "count {n}");
    }

    #[test]
    fn same_seed_gives_byte_identical_tape() {
        for kind in [POISSON, BURSTY, DIURNAL] {
            let a = ArrivalProcess::tape(kind, 165, 512);
            let b = ArrivalProcess::tape(kind, 165, 512);
            assert_eq!(a, b);
            assert_eq!(
                ArrivalProcess::tape_digest(kind, 165, 512),
                ArrivalProcess::tape_digest(kind, 165, 512)
            );
        }
    }

    /// Any drift in the seeded arrival machinery (RNG stream, exponential
    /// sampler, burst phase logic) moves this digest of the first 256
    /// arrivals of the `ol2` template at its pinned seed.
    #[test]
    fn ol2_tape_digest_is_pinned() {
        let kind = crate::bursty_template().arrivals;
        let digest = ArrivalProcess::tape_digest(kind, crate::OpenLoopFamily::PINNED_SEED, 256);
        assert_eq!(
            digest, 0x615b_219f_b0be_104f,
            "ol2 arrival tape digest drifted: got {digest:#018x}"
        );
    }

    #[test]
    fn different_seeds_differ() {
        for kind in [POISSON, BURSTY, DIURNAL] {
            assert_ne!(
                ArrivalProcess::tape(kind, 1, 64),
                ArrivalProcess::tape(kind, 2, 64)
            );
        }
    }

    #[test]
    fn next_due_delivers_in_order() {
        let mut p = ArrivalProcess::new(POISSON, 3);
        let mut last = SimTime::ZERO;
        let mut seen = 0;
        for ms in 1..=1000u64 {
            let now = SimTime::from_millis(ms);
            while let Some(t) = p.next_due(now) {
                assert!(t >= last && t <= now);
                last = t;
                seen += 1;
            }
        }
        assert_eq!(p.delivered(), seen);
        assert!(seen > 0);
        assert!(p.peek_next() > SimTime::from_secs(1));
    }
}
