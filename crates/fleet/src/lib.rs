//! # ppm-fleet — a multi-chip fleet under one datacenter power cap
//!
//! The rest of the workspace simulates *one* chip: a [`Simulation`] owns a
//! [`System`] and a [`PowerManager`](ppm_sched::executor::PowerManager) that
//! steers it inside a fixed TDP. This crate lifts that single-chip
//! assumption: a [`Fleet`] owns N complete chip simulations — each with its
//! own chip topology, V-F tables, electricity price, workload, and fault
//! plan — and a [`FleetExchange`] that turns the *datacenter* power cap
//! into traded per-chip TDP allowances, running the paper's §3.2 money
//! machinery one level up (see the [`exchange`] module docs for the
//! clearing rule).
//!
//! Execution alternates two strictly separated phases per epoch:
//!
//! 1. **Step** — every chip advances by one epoch. Chips share no state,
//!    so the fleet steps them in parallel with the same worker-pool idiom
//!    the bench sweeps use (atomic work index over `std::thread::scope`);
//!    each chip's trajectory is bit-identical regardless of thread count.
//! 2. **Trade** — serially, in chip order: collect each manager's
//!    [`FleetBid`](ppm_sched::executor::FleetBid) (its market's marginal
//!    heart-rate-per-watt, via
//!    [`PowerManager::fleet_bid`](ppm_sched::executor::PowerManager::fleet_bid)),
//!    clear the exchange, and push each cleared allowance back as the
//!    chip's TDP for the next epoch
//!    ([`Simulation::set_power_budget`]).
//!
//! Determinism rules are unchanged from the single-chip stack: seeded,
//! bit-identical across thread counts, and a fleet of one chip with no
//! exchange is **byte-identical** to the standalone [`Simulation`] —
//! same tape, same metrics — because `run_for` in epoch-sized slices is
//! exactly the standalone run whenever the epoch is a multiple of the
//! chip's quantum (which [`Fleet::add_chip`] enforces).
//!
//! ```
//! use ppm_fleet::scenario::synthetic_fleet;
//! use ppm_platform::units::{SimDuration, Watts};
//!
//! // Four heterogeneous chips bidding for a 12 W datacenter cap.
//! let mut fleet = synthetic_fleet(4, 4, 2, 6, Some(Watts(12.0)), None);
//! fleet.run_for(SimDuration::from_secs(1));
//! let rollup = fleet.audit_rollup();
//! assert!(rollup.is_clean(), "{}", rollup.render());
//! assert_eq!(fleet.exchange().unwrap().epochs(), 10);
//! ```

#![warn(missing_docs)]

pub mod exchange;
pub mod scenario;
pub mod trace;

pub use exchange::{ChipEpoch, ChipSpec, EpochRecord, FleetExchange};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ppm_platform::units::{SimDuration, Watts};
use ppm_sched::audit::Auditor;
use ppm_sched::executor::{PowerManager, Simulation};

/// One member of the fleet: a complete chip simulation plus its static
/// exchange parameters.
pub struct FleetChip<M: PowerManager> {
    sim: Simulation<M>,
    spec: ChipSpec,
}

impl<M: PowerManager> FleetChip<M> {
    /// The chip's simulation.
    pub fn sim(&self) -> &Simulation<M> {
        &self.sim
    }

    /// Mutable access to the chip's simulation (admit tasks, inspect
    /// tapes/auditors between epochs).
    pub fn sim_mut(&mut self) -> &mut Simulation<M> {
        &mut self.sim
    }

    /// The chip's exchange parameters.
    pub fn spec(&self) -> ChipSpec {
        self.spec
    }

    /// Dissolve into the owned simulation (metrics extraction after a run).
    pub fn into_sim(self) -> Simulation<M> {
        self.sim
    }
}

/// N chip simulations stepped in lockstep epochs, with an optional
/// power-budget exchange clearing between epochs (see the crate docs).
pub struct Fleet<M: PowerManager> {
    chips: Vec<FleetChip<M>>,
    exchange: Option<FleetExchange>,
    fleet_auditor: Option<Auditor>,
    epoch: SimDuration,
    threads: usize,
    // Scratch reused every trade so the steady state stays allocation-free
    // outside the exchange ledger (which, like a tape, grows by design).
    bids: Vec<(Option<ppm_sched::executor::FleetBid>, ChipSpec)>,
    powers: Vec<Watts>,
}

impl<M: PowerManager> Default for Fleet<M> {
    fn default() -> Fleet<M> {
        Fleet::new()
    }
}

impl<M: PowerManager> Fleet<M> {
    /// Default trading epoch: 100 ms (100 execution quanta), ~3 market
    /// bidding rounds per epoch so each chip's equilibrium prices are
    /// fresh when it bids.
    pub const DEFAULT_EPOCH: SimDuration = SimDuration(100_000);

    /// An empty fleet with the default epoch, stepping serially.
    pub fn new() -> Fleet<M> {
        Fleet {
            chips: Vec::new(),
            exchange: None,
            fleet_auditor: None,
            epoch: Self::DEFAULT_EPOCH,
            threads: 1,
            bids: Vec::new(),
            powers: Vec::new(),
        }
    }

    /// A fleet of one chip and no exchange: `sim` stepped in epoch-sized
    /// slices, byte-identical to running it standalone. The chip's
    /// exchange bounds (a tenth of its peak up to the peak) are never
    /// traded on.
    pub fn lone(sim: Simulation<M>) -> Fleet<M> {
        let peak = scenario::chip_peak(sim.system().chip());
        let mut fleet = Fleet::new();
        fleet.add_chip(sim, ChipSpec::uniform(peak * 0.1, peak));
        fleet
    }

    /// Attach a power-budget exchange clearing `cap` watts per epoch.
    pub fn with_exchange(mut self, cap: Watts) -> Fleet<M> {
        self.exchange = Some(FleetExchange::new(cap));
        self
    }

    /// Audit every exchange clearing as it happens (see
    /// [`FleetExchange::audit_epoch`]). Findings surface through
    /// [`Fleet::fleet_auditor`] and [`Fleet::audit_rollup`].
    pub fn with_fleet_auditor(mut self) -> Fleet<M> {
        self.fleet_auditor = Some(Auditor::new());
        self
    }

    /// Use a custom trading epoch.
    ///
    /// # Panics
    ///
    /// Panics on a zero epoch, or when a chip already added has a quantum
    /// that does not divide `epoch`.
    pub fn with_epoch(mut self, epoch: SimDuration) -> Fleet<M> {
        assert!(!epoch.is_zero(), "epoch must be positive");
        for chip in &self.chips {
            Self::assert_aligned(epoch, chip.sim.quantum());
        }
        self.epoch = epoch;
        self
    }

    /// Step chips on up to `threads` worker threads (capped at the chip
    /// count; `0` or `1` steps serially). Stepping order never affects
    /// results — chips share no state and the trade phase is serial in
    /// chip order — so any thread count produces bit-identical output.
    pub fn with_threads(mut self, threads: usize) -> Fleet<M> {
        self.threads = threads.max(1);
        self
    }

    fn assert_aligned(epoch: SimDuration, quantum: SimDuration) {
        assert!(
            epoch.as_micros().is_multiple_of(quantum.as_micros()),
            "epoch ({} us) must be a whole number of chip quanta ({} us): \
             epoch-sliced stepping is bit-identical to a continuous run \
             only on quantum boundaries",
            epoch.as_micros(),
            quantum.as_micros()
        );
    }

    /// Admit a chip.
    ///
    /// # Panics
    ///
    /// Panics when the chip's execution quantum does not divide the fleet
    /// epoch (the byte-identity guarantee needs whole quanta per epoch),
    /// or when chips are added after the first trade.
    pub fn add_chip(&mut self, sim: Simulation<M>, spec: ChipSpec) {
        Self::assert_aligned(self.epoch, sim.quantum());
        assert!(
            self.exchange.as_ref().is_none_or(|ex| ex.epochs() == 0),
            "fleet membership is fixed once trading starts"
        );
        self.chips.push(FleetChip { sim, spec });
    }

    /// Number of chips.
    pub fn len(&self) -> usize {
        self.chips.len()
    }

    /// True when no chip was added yet.
    pub fn is_empty(&self) -> bool {
        self.chips.is_empty()
    }

    /// The fleet members, in chip order.
    pub fn chips(&self) -> &[FleetChip<M>] {
        &self.chips
    }

    /// Mutable access to every fleet member, in chip order (attach
    /// telemetry, admit tasks between epochs).
    pub fn chips_mut(&mut self) -> &mut [FleetChip<M>] {
        &mut self.chips
    }

    /// Chip `i`.
    pub fn chip(&self, i: usize) -> &FleetChip<M> {
        &self.chips[i]
    }

    /// Mutable access to chip `i`.
    pub fn chip_mut(&mut self, i: usize) -> &mut FleetChip<M> {
        &mut self.chips[i]
    }

    /// Dissolve the fleet into its chips (in chip order), e.g. to pull
    /// run metrics out of each simulation after the run.
    pub fn into_chips(self) -> Vec<FleetChip<M>> {
        self.chips
    }

    /// The trading epoch.
    pub fn epoch(&self) -> SimDuration {
        self.epoch
    }

    /// The exchange, when attached.
    pub fn exchange(&self) -> Option<&FleetExchange> {
        self.exchange.as_ref()
    }

    /// The exchange auditor, when attached.
    pub fn fleet_auditor(&self) -> Option<&Auditor> {
        self.fleet_auditor.as_ref()
    }

    /// Close the books across the whole fleet into one report: the
    /// exchange auditor's findings plus every chip's own auditor, each
    /// prefixed with its source (`exchange` / `chip i`).
    pub fn audit_rollup(&self) -> Auditor {
        let mut roll = Auditor::new();
        if let Some(a) = &self.fleet_auditor {
            roll.absorb("exchange", a);
        }
        for (i, chip) in self.chips.iter().enumerate() {
            if let Some(a) = chip.sim.auditor() {
                roll.absorb(&format!("chip {i}"), a);
            }
        }
        roll
    }

    /// Advance the whole fleet by `duration`: step all chips one epoch
    /// (in parallel when [`Fleet::with_threads`] allows), then clear the
    /// exchange and apply the traded TDPs, repeating. A final partial
    /// epoch is stepped but not traded.
    ///
    /// # Panics
    ///
    /// Panics on an empty fleet.
    pub fn run_for(&mut self, duration: SimDuration)
    where
        M: Send,
    {
        assert!(!self.chips.is_empty(), "fleet has no chips");
        let mut remaining = duration.as_micros();
        while remaining > 0 {
            let dt = remaining.min(self.epoch.as_micros());
            self.step_all(SimDuration(dt));
            remaining -= dt;
            if dt == self.epoch.as_micros() {
                self.trade();
            }
        }
    }

    /// Step every chip by `dt`. Chips are independent simulations, so the
    /// sweep idiom applies: an atomic work index over scoped threads, each
    /// worker claiming the next un-stepped chip. Results do not depend on
    /// the claim order.
    fn step_all(&mut self, dt: SimDuration)
    where
        M: Send,
    {
        let workers = self.threads.min(self.chips.len());
        if workers <= 1 {
            for chip in &mut self.chips {
                chip.sim.run_for(dt);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<&mut FleetChip<M>>> = self.chips.iter_mut().map(Mutex::new).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = slots.get(i) else { break };
                    slot.lock().expect("chip slot poisoned").sim.run_for(dt);
                });
            }
        });
    }

    /// One exchange clearing: gather bids and power readings in chip
    /// order, clear, audit the epoch, and push each cleared allowance back
    /// as the chip's TDP. Entirely serial — the fleet's trajectory depends
    /// only on chip order, never on how the step phase was threaded.
    fn trade(&mut self) {
        let Some(ex) = self.exchange.as_mut() else {
            return;
        };
        let at = self.chips[0].sim.system().now();
        self.bids.clear();
        self.powers.clear();
        for chip in &self.chips {
            self.bids.push((chip.sim.manager().fleet_bid(), chip.spec));
            self.powers.push(chip.sim.system().chip_power());
        }
        let idx = ex.clear(at, &self.bids, &self.powers);
        if let Some(aud) = self.fleet_auditor.as_mut() {
            let rec = &ex.ledger()[idx];
            aud.begin_quantum(rec.at, rec.epoch);
            ex.audit_epoch(rec, aud);
        }
        for (i, chip) in self.chips.iter_mut().enumerate() {
            if let Some(w) = ex.cleared_of(i) {
                chip.sim.set_power_budget(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_core::config::PpmConfig;
    use ppm_core::manager::tc2_ppm_system;
    use ppm_platform::units::Watts;
    use ppm_workload::benchmarks::{Benchmark, BenchmarkSpec, Input};
    use ppm_workload::task::{Priority, Task, TaskId};

    fn tc2_tasks() -> Vec<Task> {
        [
            (Benchmark::Swaptions, Input::Large),
            (Benchmark::Bodytrack, Input::Large),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(b, input))| {
            Task::new(
                TaskId(i),
                BenchmarkSpec::of(b, input).expect("variant"),
                Priority::NORMAL,
            )
        })
        .collect()
    }

    fn tc2_sim(tdp: Watts) -> Simulation<ppm_core::PpmManager> {
        let (sys, mgr) = tc2_ppm_system(tc2_tasks(), PpmConfig::tc2_with_tdp(tdp));
        Simulation::new(sys, mgr).with_tape()
    }

    #[test]
    fn lone_chip_without_exchange_matches_the_standalone_run() {
        let mut standalone = tc2_sim(Watts(4.0));
        standalone.run_for(SimDuration::from_secs(2));

        let mut fleet = Fleet::new();
        fleet.add_chip(
            tc2_sim(Watts(4.0)),
            ChipSpec::uniform(Watts(1.0), Watts(8.0)),
        );
        fleet.run_for(SimDuration::from_secs(2));

        let a = standalone.tape().expect("tape").render();
        let b = fleet.chip(0).sim().tape().expect("tape").render();
        assert!(!a.is_empty());
        assert_eq!(a, b, "epoch-sliced run must be byte-identical");
    }

    #[test]
    fn lone_fleet_matches_the_standalone_run() {
        let mut standalone = tc2_sim(Watts(4.0));
        standalone.run_for(SimDuration(2_050_000));
        let mut fleet = Fleet::lone(tc2_sim(Watts(4.0)));
        fleet.run_for(SimDuration(2_050_000));
        assert!(fleet.exchange().is_none());
        let a = standalone.tape().expect("tape").render();
        let b = fleet.chip(0).sim().tape().expect("tape").render();
        assert_eq!(a, b, "a lone fleet must replay the standalone tape");
    }

    #[test]
    fn trading_fleet_is_bit_identical_across_thread_counts() {
        let build = |threads: usize| {
            let mut fleet = Fleet::new().with_exchange(Watts(7.0)).with_threads(threads);
            for tdp in [3.0, 4.0] {
                fleet.add_chip(
                    tc2_sim(Watts(tdp)),
                    ChipSpec::uniform(Watts(1.0), Watts(8.0)),
                );
            }
            fleet.run_for(SimDuration::from_secs(1));
            let tapes: Vec<String> = fleet
                .chips()
                .iter()
                .map(|c| c.sim().tape().expect("tape").render())
                .collect();
            (tapes, fleet.exchange().expect("exchange").render_ledger())
        };
        let (tapes1, ledger1) = build(1);
        let (tapes4, ledger4) = build(4);
        assert_eq!(tapes1, tapes4);
        assert_eq!(ledger1, ledger4);
        assert_eq!(ledger1.lines().count(), 10);
    }

    #[test]
    fn traded_allowance_becomes_the_chip_tdp() {
        let mut fleet = Fleet::new().with_exchange(Watts(6.0)).with_fleet_auditor();
        for _ in 0..2 {
            fleet.add_chip(
                tc2_sim(Watts(4.0)),
                ChipSpec::uniform(Watts(0.5), Watts(8.0)),
            );
        }
        fleet.run_for(SimDuration::from_secs(1));
        let ex = fleet.exchange().expect("exchange");
        assert_eq!(ex.epochs(), 10);
        for i in 0..2 {
            let cleared = ex.cleared_of(i).expect("traded");
            assert_eq!(fleet.chip(i).sim().system().tdp(), Some(cleared));
        }
        let roll = fleet.audit_rollup();
        assert!(roll.is_clean(), "{}", roll.render());
        assert_eq!(roll.quanta_audited(), 10);
    }

    #[test]
    fn partial_tail_epoch_steps_without_trading() {
        let mut fleet = Fleet::new().with_exchange(Watts(6.0));
        fleet.add_chip(
            tc2_sim(Watts(4.0)),
            ChipSpec::uniform(Watts(0.5), Watts(8.0)),
        );
        fleet.run_for(SimDuration(250_000));
        assert_eq!(fleet.exchange().expect("exchange").epochs(), 2);
        assert_eq!(
            fleet.chip(0).sim().system().now().as_micros(),
            250_000,
            "the tail half-epoch still executes"
        );
    }

    #[test]
    #[should_panic(expected = "whole number of chip quanta")]
    fn misaligned_chip_quantum_is_rejected() {
        let mut fleet: Fleet<ppm_core::PpmManager> = Fleet::new().with_epoch(SimDuration(1500));
        fleet.add_chip(
            tc2_sim(Watts(4.0)),
            ChipSpec::uniform(Watts(1.0), Watts(8.0)),
        );
    }
}
