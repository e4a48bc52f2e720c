//! Heart Rate Monitor (HRM) infrastructure.
//!
//! The paper uses Application Heartbeats [Hoffmann et al.] to let tasks
//! express their performance demand: a task emits a heartbeat whenever its
//! critical kernel completes one unit (a frame, a swaption, 50 000 options…),
//! the user supplies a *reference heart-rate range* `[min, max]` hb/s, and
//! the framework converts the observed heart rate into a PU demand with
//!
//! ```text
//! d_t = target_hr · s_t / current_hr        (Table 4)
//! ```
//!
//! where `target_hr` is the mean of the range and `s_t` the current supply.
//!
//! The observed rate comes from [`HeartbeatWindows`]: every task's
//! cumulative heartbeats and cycles over the last 500 ms, kept in one
//! time-major ring (a row per quantum, a cell per task) rather than a queue
//! per task, so reading all the windows' fronts each quantum reads one
//! contiguous row.

use std::fmt;

use ppm_platform::units::{ProcessingUnits, SimDuration, SimTime};

/// A user-supplied reference heart-rate range in heartbeats per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeartRateRange {
    min: f64,
    max: f64,
}

impl HeartRateRange {
    /// Construct a range.
    ///
    /// # Panics
    ///
    /// Panics if `min` is not positive or `max < min`.
    pub fn new(min: f64, max: f64) -> HeartRateRange {
        assert!(min > 0.0, "minimum heart rate must be positive");
        assert!(max >= min, "range must be ordered");
        HeartRateRange { min, max }
    }

    /// Lower bound (hb/s).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Upper bound (hb/s).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The target heart rate: the mean of the bounds (as in Table 4, where
    /// the range [24, 30] yields a target of 27 hb/s).
    pub fn target(&self) -> f64 {
        (self.min + self.max) / 2.0
    }

    /// True when `hr` lies inside the reference range.
    pub fn contains(&self, hr: f64) -> bool {
        hr >= self.min && hr <= self.max
    }

    /// True when `hr` is *below* the range — the QoS-miss condition used in
    /// Figures 4 and 6 ("the observed heart rate was smaller than the
    /// minimum prescribed heart rate").
    pub fn misses_below(&self, hr: f64) -> bool {
        hr < self.min
    }

    /// Scale both bounds (used to derive per-input variants).
    pub fn scaled(&self, factor: f64) -> HeartRateRange {
        HeartRateRange::new(self.min * factor, self.max * factor)
    }
}

impl fmt::Display for HeartRateRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.1}, {:.1}] hb/s", self.min, self.max)
    }
}

/// Convert an observed heart rate into a PU demand (Table 4).
///
/// `supply` is the PU supply the task enjoyed while `current_hr` was
/// observed. When the observed rate is (near) zero — e.g. the task has just
/// been admitted or was starved — the demand cannot be inferred and the
/// function falls back to `fallback`.
///
/// ```
/// use ppm_platform::units::ProcessingUnits;
/// use ppm_workload::heartbeat::{demand_from_heart_rate, HeartRateRange};
///
/// // Table 4, phase 1: hr 15 at 500 PU, range [24, 30] -> target 27,
/// // demand = 27 * 500 / 15 = 900 PU.
/// let range = HeartRateRange::new(24.0, 30.0);
/// let d = demand_from_heart_rate(&range, 15.0, ProcessingUnits(500.0),
///                                ProcessingUnits(1000.0));
/// assert!((d.value() - 900.0).abs() < 1e-9);
/// ```
pub fn demand_from_heart_rate(
    range: &HeartRateRange,
    current_hr: f64,
    supply: ProcessingUnits,
    fallback: ProcessingUnits,
) -> ProcessingUnits {
    // Degenerate inputs cannot be inverted: a vanishing observed rate, no
    // supply, or a (numerically) zero-target range — e.g. one produced by
    // `scaled` with a denormal factor — all fall back instead of dividing
    // through a near-zero quantity.
    if current_hr <= 1e-9 || !supply.is_positive() || range.target() <= 1e-9 {
        return fallback;
    }
    ProcessingUnits(range.target() * supply.value() / current_hr)
}

/// Every task's sliding heartbeat window, stored time-major.
///
/// The windows are a ring of rows, one per recorded quantum: row `k` holds
/// the quantum's end time once and then, for each task in id order, its
/// cumulative `[heartbeats, billed cycles]` at that time. A task's rate is
/// the difference between the newest row and its window's front over the
/// time between them.
///
/// Every task records on every row, so all windows share one front: the
/// last row at or before the horizon (`end − WINDOW`), never the newest
/// row. A task's own front is the later of that shared front and its first
/// row since admission or the last [`HeartbeatWindows::reset`]. That is
/// the sample a per-task queue keeps when, on each record, it drops its
/// front while its second sample is at or before the horizon and more than
/// two samples remain, for any quantum length.
///
/// Time-major because each quantum reads every task's front: in this
/// layout the fronts are one contiguous row instead of one cold cache line
/// per task, each written a whole window ago. The ring holds only the rows
/// from the shared front on, gains rows only when a window spans more rows
/// than it has (shorter quanta), and widens in place when tasks were
/// admitted since the last row; otherwise a row allocates nothing.
#[derive(Debug, Default)]
pub struct HeartbeatWindows {
    /// Each slot's row time; the slot count is the ring's capacity.
    times: Vec<SimTime>,
    /// `capacity × width` cells, row-major: cumulative beats and cycles.
    cells: Vec<[f64; 2]>,
    /// Tasks per held row (lags `first.len()` until the next row).
    width: usize,
    /// Slot of row `front`.
    head: usize,
    /// Slot of the newest row.
    back: usize,
    /// The shared front: absolute index of the oldest held row.
    front: u64,
    /// Absolute index of the next row, i.e. the rows recorded so far.
    next: u64,
    /// Per task: the first row of its current window.
    first: Vec<u64>,
    /// Per task: the heart rate its last record measured.
    rate: Vec<f64>,
}

impl HeartbeatWindows {
    /// The smoothing window.
    pub const WINDOW: SimDuration = SimDuration(500_000);

    /// Empty windows for no tasks.
    pub fn new() -> HeartbeatWindows {
        HeartbeatWindows::default()
    }

    /// Admit the next task (ids are dense). Its window starts at the next
    /// row; the held rows widen to it when that row begins.
    pub fn admit(&mut self) {
        self.first.push(self.next);
        self.rate.push(0.0);
    }

    /// Drop `task`'s history (e.g. across a migration, where the old rate
    /// is not representative of the new core): its window restarts at the
    /// next row, and its rate reads zero until two rows are in it.
    pub fn reset(&mut self, task: usize) {
        self.first[task] = self.next;
        self.rate[task] = 0.0;
    }

    /// Start the row of the quantum ending at `at`: advance the shared
    /// front to the horizon, then make room for the row. Each task then
    /// [`HeartbeatWindows::record`]s into it. Calls must use increasing
    /// `at`.
    pub fn begin_row(&mut self, at: SimTime) {
        if self.width < self.first.len() {
            self.widen();
        }
        let horizon = at.as_micros().saturating_sub(Self::WINDOW.as_micros());
        // Keep one row at or before the horizon, so a rate spans the whole
        // window, and never drop the newest row.
        while self.front + 1 < self.next {
            let second = self.slot(self.front + 1);
            if self.times[second].as_micros() > horizon {
                break;
            }
            self.head = second;
            self.front += 1;
        }
        if self.next - self.front == self.times.len() as u64 {
            self.grow();
        }
        self.back = self.slot(self.next);
        self.times[self.back] = at;
        self.next += 1;
    }

    /// Record `task`'s cumulative `[heartbeats, billed cycles]` into the
    /// current row and return its heart rate (hb/s) over its window: zero
    /// until the window spans some time.
    pub fn record(&mut self, task: usize, totals: [f64; 2]) -> f64 {
        let back = self.back;
        self.cells[back * self.width + task] = totals;
        let first = self.first[task];
        let front = if first <= self.front {
            self.head
        } else {
            self.slot(first)
        };
        let (now, then) = (self.times[back], self.times[front]);
        let rate = if now > then {
            (totals[0] - self.cells[front * self.width + task][0]) / now.since(then).as_secs_f64()
        } else {
            0.0
        };
        self.rate[task] = rate;
        rate
    }

    /// `task`'s heart rate (hb/s) as of its last record.
    pub fn heart_rate(&self, task: usize) -> f64 {
        self.rate[task]
    }

    /// `task`'s observed cycles per heartbeat over its window, or `None`
    /// before half a beat has been seen in it.
    ///
    /// This is the robust form of the Table 4 conversion: with supply and
    /// heart rate averaged over the *same* interval,
    /// `s̄/h̄ = cycles/beats`, so `d = target_hr · cost / 10⁶` is immune to
    /// the lag between an instantaneous supply change and the smoothed
    /// heart rate.
    pub fn cost_per_beat(&self, task: usize) -> Option<f64> {
        let newest = self.next.checked_sub(1)?;
        let oldest = self.first[task].max(self.front);
        if oldest >= newest {
            return None; // at most one sample in the window
        }
        let (front, back) = (self.slot(oldest), self.slot(newest));
        let first = self.cells[front * self.width + task];
        let last = self.cells[back * self.width + task];
        let beats = last[0] - first[0];
        if beats < 0.5 {
            return None; // starved or just admitted: no reliable estimate
        }
        Some((last[1] - first[1]) / beats)
    }

    /// The ring slot of held row `row` (`front <= row <= next`).
    fn slot(&self, row: u64) -> usize {
        let slot = self.head + (row - self.front) as usize;
        if slot >= self.times.len() {
            slot - self.times.len()
        } else {
            slot
        }
    }

    /// Double the ring when it is full. The held rows wrap at the old end:
    /// the part before `head` moves to just past it.
    fn grow(&mut self) {
        let old = self.times.len();
        let capacity = (2 * old).max(16);
        self.times.reserve_exact(capacity - old);
        self.times.resize(capacity, SimTime::ZERO);
        self.cells.reserve_exact((capacity - old) * self.width);
        self.cells.resize(capacity * self.width, [0.0; 2]);
        self.times.copy_within(0..self.head, old);
        self.cells
            .copy_within(0..self.head * self.width, old * self.width);
    }

    /// Widen every slot to the admitted task count, last slot first, so no
    /// row is overwritten before it moves. New tasks' cells in held rows
    /// are never read: their windows start at the next row.
    fn widen(&mut self) {
        let (from, to) = (self.width, self.first.len());
        let capacity = self.times.len();
        self.cells.reserve_exact(capacity * (to - from));
        self.cells.resize(capacity * to, [0.0; 2]);
        for slot in (1..capacity).rev() {
            self.cells
                .copy_within(slot * from..(slot + 1) * from, slot * to);
        }
        self.width = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_conversions() {
        // Reproduce all three rows of Table 4 (range [24, 30], target 27).
        let range = HeartRateRange::new(24.0, 30.0);
        assert_eq!(range.target(), 27.0);
        let fb = ProcessingUnits(9999.0);

        // Phase 1: 15 hb/s at 500 PU -> 900 PU.
        let d1 = demand_from_heart_rate(&range, 15.0, ProcessingUnits(500.0), fb);
        assert!((d1.value() - 900.0).abs() < 1e-9);

        // Phase 2: 10 hb/s at 400 PU -> 1080 PU.
        let d2 = demand_from_heart_rate(&range, 10.0, ProcessingUnits(400.0), fb);
        assert!((d2.value() - 1080.0).abs() < 1e-9);

        // Phase 3: 40 hb/s at 1000 PU -> 675 PU (demand is lowered).
        let d3 = demand_from_heart_rate(&range, 40.0, ProcessingUnits(1000.0), fb);
        assert!((d3.value() - 675.0).abs() < 1e-9);
    }

    #[test]
    fn zero_rate_falls_back() {
        let range = HeartRateRange::new(24.0, 30.0);
        let fb = ProcessingUnits(123.0);
        assert_eq!(
            demand_from_heart_rate(&range, 0.0, ProcessingUnits(500.0), fb),
            fb
        );
        assert_eq!(
            demand_from_heart_rate(&range, 10.0, ProcessingUnits::ZERO, fb),
            fb
        );
    }

    #[test]
    fn range_miss_classification() {
        let range = HeartRateRange::new(24.0, 30.0);
        assert!(range.misses_below(23.9));
        assert!(!range.misses_below(24.0));
        assert!(range.contains(27.0));
        assert!(!range.contains(31.0));
        // Exceeding the range is not a "miss" in the paper's metric.
        assert!(!range.misses_below(40.0));
    }

    /// One row per `(time, [beats, cycles] per task)` quantum, recorded the
    /// way the executor records: every admitted task, every row.
    fn feed(hb: &mut HeartbeatWindows, totals: &mut [[f64; 2]], at: SimTime, step: &[[f64; 2]]) {
        hb.begin_row(at);
        for (task, (total, add)) in totals.iter_mut().zip(step).enumerate() {
            total[0] += add[0];
            total[1] += add[1];
            hb.record(task, *total);
        }
    }

    #[test]
    fn windows_measure_steady_rate() {
        let mut hb = HeartbeatWindows::new();
        hb.admit();
        let mut totals = [[0.0; 2]];
        for i in 1..=100u64 {
            // 3 beats every 100 ms -> 30 hb/s.
            feed(
                &mut hb,
                &mut totals,
                SimTime::from_millis(i * 100),
                &[[3.0, 3.0e6]],
            );
        }
        assert!((hb.heart_rate(0) - 30.0).abs() < 0.5);
        assert_eq!(hb.cost_per_beat(0), Some(1.0e6));
    }

    #[test]
    fn windows_track_rate_changes() {
        let mut hb = HeartbeatWindows::new();
        hb.admit();
        let mut totals = [[0.0; 2]];
        for i in 1..=10u64 {
            feed(
                &mut hb,
                &mut totals,
                SimTime::from_millis(i * 100),
                &[[1.0, 2.0e6]],
            ); // 10 hb/s
        }
        for i in 11..=20u64 {
            feed(
                &mut hb,
                &mut totals,
                SimTime::from_millis(i * 100),
                &[[5.0, 10.0e6]],
            ); // 50 hb/s
        }
        assert!((hb.heart_rate(0) - 50.0).abs() < 5.0);
    }

    #[test]
    fn windows_read_zero_before_two_rows() {
        let mut hb = HeartbeatWindows::new();
        hb.admit();
        assert_eq!(hb.heart_rate(0), 0.0);
        assert_eq!(hb.cost_per_beat(0), None);
        let mut totals = [[0.0; 2]];
        feed(
            &mut hb,
            &mut totals,
            SimTime::from_millis(1),
            &[[1.0, 1.0e6]],
        );
        // A single sample: no baseline yet.
        assert_eq!(hb.heart_rate(0), 0.0);
        assert_eq!(hb.cost_per_beat(0), None);
        feed(
            &mut hb,
            &mut totals,
            SimTime::from_millis(2),
            &[[1.0, 1.0e6]],
        );
        assert_eq!(hb.heart_rate(0), 1000.0);
        // A reset restarts the window at the next row.
        hb.reset(0);
        assert_eq!((hb.heart_rate(0), hb.cost_per_beat(0)), (0.0, None));
        feed(
            &mut hb,
            &mut totals,
            SimTime::from_millis(3),
            &[[1.0, 1.0e6]],
        );
        assert_eq!((hb.heart_rate(0), hb.cost_per_beat(0)), (0.0, None));
        feed(
            &mut hb,
            &mut totals,
            SimTime::from_millis(4),
            &[[1.0, 1.0e6]],
        );
        assert_eq!(hb.heart_rate(0), 1000.0);
    }

    #[test]
    fn the_ring_grows_and_widens_without_losing_a_window() {
        // A second of 1 ms rows leaves a full 512-slot ring whose front has
        // moved on; 100 µs rows then put 5,001 rows in a window, so the
        // ring doubles four times while wrapped, and a task admitted among
        // them widens the wrapped rows in place.
        let mut hb = HeartbeatWindows::new();
        hb.admit();
        let mut totals = vec![[0.0; 2]];
        let rows = (1..=1_000u64)
            .map(|i| (i * 1_000, 1_000))
            .chain((1..=6_000u64).map(|i| (1_000_000 + i * 100, 100)));
        for (row, (at, dt)) in rows.enumerate() {
            if row == 1_700 {
                hb.admit();
                totals.push([0.0; 2]);
            }
            // 5,000 and 2,500 hb/s at 2e5 and 4e5 cycles a beat.
            let dt = dt as f64;
            let step = [[0.005 * dt, 1.0e3 * dt], [0.0025 * dt, 1.0e3 * dt]];
            feed(&mut hb, &mut totals, SimTime(at), &step);
            if row == 999 {
                assert_eq!((hb.times.len(), hb.head), (512, 499));
            }
            // Every window reads the steady rate; the costs are exact in
            // binary.
            if row > 0 {
                assert!((hb.heart_rate(0) - 5_000.0).abs() < 1e-6, "row {row}");
                assert_eq!(hb.cost_per_beat(0), Some(2.0e5), "row {row}");
            }
            if row > 1_700 {
                assert!((hb.heart_rate(1) - 2_500.0).abs() < 1e-6, "row {row}");
                // Half a beat is the least a cost is measured over.
                let cost = (row > 1_701).then_some(4.0e5);
                assert_eq!(hb.cost_per_beat(1), cost, "row {row}");
            }
        }
        assert_eq!(hb.times.len(), 8_192);
    }

    #[test]
    #[should_panic(expected = "range must be ordered")]
    fn reversed_range_panics() {
        let _ = HeartRateRange::new(30.0, 24.0);
    }

    #[test]
    fn zero_width_range_is_well_defined() {
        // min == max is a legal, fully pinned QoS goal.
        let r = HeartRateRange::new(30.0, 30.0);
        assert_eq!(r.target(), 30.0);
        assert!(r.contains(30.0));
        assert!(!r.contains(30.0 + 1e-9));
        assert!(r.misses_below(29.999_999));
        assert!(!r.misses_below(30.0));
        // Scaling preserves the zero width.
        let s = r.scaled(0.5);
        assert_eq!(s.min(), s.max());
        assert_eq!(s.target(), 15.0);
    }

    #[test]
    fn zero_width_range_converts_demand_without_division_hazard() {
        let r = HeartRateRange::new(30.0, 30.0);
        let d = demand_from_heart_rate(&r, 15.0, ProcessingUnits(500.0), ProcessingUnits(1.0));
        assert!((d.value() - 1000.0).abs() < 1e-9, "{d}");
    }

    #[test]
    fn degenerate_scaled_range_falls_back_instead_of_dividing() {
        // A denormal scale factor collapses the target to (numerically)
        // zero; the conversion must clamp to the fallback, not divide by it.
        let r = HeartRateRange::new(1.0, 2.0).scaled(1e-12);
        assert!(r.target() <= 1e-9);
        let fb = ProcessingUnits(777.0);
        assert_eq!(
            demand_from_heart_rate(&r, 10.0, ProcessingUnits(500.0), fb),
            fb
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn scaled_by_zero_panics() {
        let _ = HeartRateRange::new(24.0, 30.0).scaled(0.0);
    }
}
