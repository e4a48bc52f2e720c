//! Measurement helpers: order statistics, the output digest, the process's
//! peak resident set, and the calibrated rep clock.

use std::time::Instant;

/// Linearly interpolated quantile `q` in `[0, 1]` of `xs` (the method of
/// numpy's default and of Python's `statistics.quantiles(method=
/// "inclusive")`). NaN when `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// A metric's value and its spread over the reps that measured it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value: the median over the reps, unless the metric
    /// defines its own statistic (throughput and set-up time do).
    pub value: f64,
    /// Smallest rep value.
    pub lo: f64,
    /// Largest rep value.
    pub hi: f64,
    /// Number of reps.
    pub n: usize,
}

impl Summary {
    /// Summarise `xs` by its median (all fields NaN, `n` 0, when empty).
    pub fn of(xs: &[f64]) -> Summary {
        Summary {
            value: median(xs),
            lo: quantile(xs, 0.0),
            hi: quantile(xs, 1.0),
            n: xs.len(),
        }
    }
}

/// Nearest-rank percentile `q` in `[0, 100]` of integer durations: the
/// smallest value with at least `q`% of the samples at or below it. 0 when
/// empty.
pub fn percentile_ns(durations: &[u64], q: f64) -> u64 {
    if durations.is_empty() {
        return 0;
    }
    let mut v = durations.to_vec();
    v.sort_unstable();
    let rank = ((q / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// 64-bit FNV-1a over the bytes of the modelled outputs. Two runs of one
/// workload and seed must produce the same digest, whatever observers are
/// attached and however many threads step the chips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold the bit pattern of an `f64` (so `-0.0` and `0.0` differ, as
    /// they would in any output a user compares).
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    /// Fold an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM` from
/// `/proc/self/status`), NaN where that file does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The host's speed at one moment: seconds of one run of the calibration
/// kernel over a buffer in a core's own L2, and over one in the shared L3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cal {
    /// Over the [`L2_WORDS`] buffer.
    pub l2: f64,
    /// Over the [`L3_WORDS`] buffer.
    pub l3: f64,
}

/// The kernel times on the reference host, an unloaded core of a 2023
/// server (Xeon, Sapphire Rapids). Times scaled by them read in *reference
/// seconds*: what the host would have taken at that speed.
pub const CAL_REF: Cal = Cal {
    l2: 0.0007,
    l3: 0.0017,
};

/// The power of the L3 kernel's slowdown that scaling applies, beside the
/// whole of the L2 kernel's. Other tenants slow the host in more than one
/// way. Contention for the core slows every workload about as much as it
/// slows the L2 kernel. Contention for the shared cache slows the L3
/// kernel far more than the simulator, which keeps most of its working set
/// closer to the core. Measured over a 16-minute shift from a calm host to
/// a loaded one, the L2 kernel alone left 5–20 % of the slowdown in the
/// scaled throughput, and adding this power of the L3 kernel left 1–10 %.
const L3_EXPONENT: f64 = 0.25;

/// A timed interval, with the kernels' times measured just before and just
/// after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Wall seconds of the interval.
    pub wall_s: f64,
    /// Kernel times just before it.
    pub before: Cal,
    /// Kernel times just after it.
    pub after: Cal,
}

impl Interval {
    /// The interval in reference seconds: its wall time scaled by the
    /// host's speed around it.
    pub fn ref_s(&self) -> f64 {
        let l2 = (self.before.l2 + self.after.l2) / 2.0;
        let l3 = (self.before.l3 + self.after.l3) / 2.0;
        self.wall_s * (CAL_REF.l2 / l2) * (CAL_REF.l3 / l3).powf(L3_EXPONENT)
    }
}

/// Words in the L2 kernel's buffer: 256 KiB, an eighth of a core's L2. Of
/// the sizes tried (256 KiB to 8 MiB, and no buffer), this one slows under
/// contention for the core by as much as the simulator does: the log of a
/// slice's rate falls by about 1 per unit of the log of this kernel's time
/// on `paper_tc2` and `chip_v64`.
const L2_WORDS: usize = 1 << 15;

/// Words in the L3 kernel's buffer: 8 MiB, four times a core's L2.
const L3_WORDS: usize = 1 << 20;

/// Rounds of one calibration-kernel run.
const KERNEL_ROUNDS: u64 = 250_000;

/// A rep's clock. It times the rep in parts — set-up as construction and
/// then pieces of the warm-up, the timed horizon as slices — and between
/// parts it times fixed kernels owned by the benchmark, so each part can be
/// scaled by how fast the host ran right then. A host shared with other
/// tenants slows down for minutes at a time, by up to 2×, through
/// contention for the core and its caches; the kernels slow with it, so
/// the scaled numbers hold steadier than raw wall times.
pub struct SliceClock {
    /// One pair of kernel buffers (L2, L3) per thread the workload steps
    /// on.
    bufs: Vec<(Vec<u64>, Vec<u64>)>,
    /// Where the current part started (kernel runs fall between parts).
    mark: Instant,
    /// The latest kernel times.
    last: Cal,
    /// The parts of set-up, the first from `started` (kernel runs
    /// excluded).
    pub setup: Vec<Interval>,
    /// The timed slices.
    pub slices: Vec<Interval>,
}

impl SliceClock {
    /// Start timing set-up, which began at `started`, for a workload that
    /// steps on `threads` threads and times `slices` slices. Filling the
    /// buffers and measuring the host count as kernel time, not set-up.
    pub fn start(started: Instant, slices: usize, threads: usize) -> SliceClock {
        let t = Instant::now();
        // Written in full, so the buffers are resident from the start.
        let filled = |words: usize| (0..words as u64).collect::<Vec<u64>>();
        let mut clock = SliceClock {
            bufs: (0..threads.max(1))
                .map(|_| (filled(L2_WORDS), filled(L3_WORDS)))
                .collect(),
            mark: started,
            last: CAL_REF,
            setup: Vec::new(),
            slices: Vec::with_capacity(slices),
        };
        clock.last = clock.calibrate();
        clock.mark = started + t.elapsed();
        clock
    }

    /// MiB the calibration buffers keep resident for the whole rep; peak
    /// RSS reports subtract it.
    pub fn resident_mb(&self) -> f64 {
        let words = self.bufs.len() * (L2_WORDS + L3_WORDS);
        (words * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
    }

    /// The current part is over: its wall time, with the kernels' times
    /// before it and, measured now, after it.
    fn lap(&mut self) -> Interval {
        let wall_s = self.mark.elapsed().as_secs_f64();
        let before = self.last;
        self.last = self.calibrate();
        self.mark = Instant::now();
        Interval {
            wall_s,
            before,
            after: self.last,
        }
    }

    /// One part of set-up is done: construction, or a piece of warm-up.
    pub fn setup_part(&mut self) {
        let part = self.lap();
        self.setup.push(part);
    }

    /// Run and record one timed slice.
    pub fn slice(&mut self, run: impl FnOnce()) {
        self.mark = Instant::now();
        run();
        let slice = self.lap();
        self.slices.push(slice);
    }

    /// Seconds the kernels take on the workload's threads at once. Each
    /// thread runs each kernel twice back to back and keeps the second
    /// time: the first run brings the buffer back into cache, so the time
    /// does not depend on how much of it the workload just evicted. With
    /// several threads it is the harmonic mean of their times: threads that
    /// claim work from a shared queue finish it at the sum of their speeds.
    fn calibrate(&mut self) -> Cal {
        let warm_then_time = |(l2, l3): &mut (Vec<u64>, Vec<u64>)| {
            kernel(l2);
            let l2 = kernel(l2);
            kernel(l3);
            Cal { l2, l3: kernel(l3) }
        };
        let times: Vec<Cal> = match self.bufs.as_mut_slice() {
            [bufs] => vec![warm_then_time(bufs)],
            bufs => std::thread::scope(|s| {
                let runs: Vec<_> = bufs
                    .iter_mut()
                    .map(|b| s.spawn(move || warm_then_time(b)))
                    .collect();
                runs.into_iter()
                    .map(|r| r.join().expect("the calibration kernel does not panic"))
                    .collect()
            }),
        };
        let harmonic =
            |f: fn(&Cal) -> f64| times.len() as f64 / times.iter().map(|t| 1.0 / f(t)).sum::<f64>();
        Cal {
            l2: harmonic(|c| c.l2),
            l3: harmonic(|c| c.l3),
        }
    }
}

/// Wall seconds one run of the calibration kernel takes: rounds of
/// xorshift, a read-modify-write at a random slot of the buffer, and a
/// dependent floating-point update — [`CAL_REF`] on the reference host.
fn kernel(buf: &mut [u64]) -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut f = 1.0f64;
    let mask = buf.len() - 1;
    for i in 0..KERNEL_ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = x as usize & mask;
        buf[j] = buf[j].wrapping_add(i ^ x);
        f = f * 1.000_001 + j as f64 * 1e-9;
    }
    std::hint::black_box((x, f, &buf));
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_match_hand_computed_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        // Inclusive quartiles of 1..=10, as Python's
        // statistics.quantiles(range(1, 11), n=4, method="inclusive").
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.25), 3.25);
        assert_eq!(quantile(&xs, 0.75), 7.75);
        let s = Summary::of(&[5.0, 1.0, 9.0, 3.0, 7.0]);
        assert_eq!((s.value, s.lo, s.hi, s.n), (5.0, 1.0, 9.0, 5));
    }

    #[test]
    fn intervals_scale_to_reference_seconds() {
        let at = |l2: f64, l3: f64| Cal {
            l2: CAL_REF.l2 * l2,
            l3: CAL_REF.l3 * l3,
        };
        let interval = |before, after| Interval {
            wall_s: 1.0,
            before,
            after,
        };
        // The L2 kernel at half speed on average halves the interval.
        let slow_core = interval(at(1.0, 1.0), at(3.0, 1.0));
        assert!((slow_core.ref_s() - 0.5).abs() < 1e-12);
        // The L3 kernel 16× slower scales it by 16^-0.25.
        let slow_cache = interval(at(1.0, 16.0), at(1.0, 16.0));
        assert!((slow_cache.ref_s() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let d: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&d, 50.0), 50);
        assert_eq!(percentile_ns(&d, 99.0), 99);
        assert_eq!(percentile_ns(&d, 100.0), 100);
        assert_eq!(percentile_ns(&[7], 99.0), 7);
        assert_eq!(percentile_ns(&[], 50.0), 0);
    }

    #[test]
    fn digest_matches_the_fnv1a_reference_and_sees_every_bit() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        let mut a = Fnv::default();
        a.bytes(b"a");
        assert_eq!(a.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut f = Fnv::default();
        f.bytes(b"foobar");
        assert_eq!(f.finish(), 0x8594_4171_f739_67e8);
        // Signed zeros are different outputs.
        let (mut p, mut n) = (Fnv::default(), Fnv::default());
        p.f64(0.0);
        n.f64(-0.0);
        assert_ne!(p.finish(), n.finish());
    }
}
