//! Parallel sweep runner for the comparative grid.
//!
//! Each [`SweepJob`] is a self-contained `run_workload` invocation (one
//! workload set under one scheme); the grid fans out across OS threads with
//! `std::thread::scope` — no external thread-pool dependency — while keeping
//! **deterministic result ordering**: results land in per-job slots, so the
//! output order matches the job order no matter which thread finishes first.
//! Simulations share no mutable state, so parallel results are bit-identical
//! to serial ones (asserted by `parallel_matches_serial_and_preserves_order`
//! below and by the determinism tests).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ppm_platform::units::{SimDuration, Watts};
use ppm_workload::sets::{table6_sets, WorkloadSet};

use crate::{run_workload, RunSummary, Scheme};

/// One cell of a comparative sweep: a workload set run under a scheme.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// The workload set to spawn.
    pub set: WorkloadSet,
    /// The power-management scheme to run it under.
    pub scheme: Scheme,
    /// Optional TDP cap.
    pub tdp: Option<Watts>,
    /// Simulated duration of the run.
    pub duration: SimDuration,
}

impl SweepJob {
    /// Execute the job.
    pub fn run(&self) -> RunSummary {
        run_workload(&self.set, self.scheme, self.tdp, self.duration)
    }
}

/// The paper's 9 × 3 comparative grid (Table 6 sets × all schemes), in
/// figure order: sets outer, schemes inner.
pub fn comparative_grid(tdp: Option<Watts>, duration: SimDuration) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    for set in table6_sets() {
        for scheme in Scheme::ALL {
            jobs.push(SweepJob {
                set: set.clone(),
                scheme,
                tdp,
                duration,
            });
        }
    }
    jobs
}

/// Run `jobs` one after another on the calling thread, in job order.
pub fn sweep_serial(jobs: &[SweepJob]) -> Vec<RunSummary> {
    jobs.iter().map(SweepJob::run).collect()
}

/// One job that panicked during a sweep: which cell it was and what the
/// panic said.
#[derive(Debug, Clone)]
pub struct FailedJob {
    /// Index into the job list (= result slot the job would have filled).
    pub index: usize,
    /// Workload-set name of the failing cell.
    pub workload: String,
    /// Scheme of the failing cell.
    pub scheme: Scheme,
    /// The panic payload, rendered (`&str`/`String` payloads verbatim).
    pub payload: String,
}

impl std::fmt::Display for FailedJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} ({} under {}): {}",
            self.index,
            self.workload,
            self.scheme.name(),
            self.payload
        )
    }
}

/// Render a panic payload: string payloads verbatim, anything else opaque.
fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run `jobs` across up to `threads` scoped OS threads, isolating panics:
/// a panicking job is caught on its worker, the rest of the sweep runs to
/// completion, and the failures come back with their payloads and job
/// identities instead of poisoning the scope and losing every other job's
/// result. Results are in job order; `Err` lists the failures in job order
/// too. With `threads <= 1` jobs run (with the same isolation) on the
/// calling thread.
pub fn sweep_parallel_checked(
    jobs: &[SweepJob],
    threads: usize,
) -> Result<Vec<RunSummary>, Vec<FailedJob>> {
    let outcomes = run_isolated(jobs.len(), threads, |i| jobs[i].run());
    let mut results = Vec::with_capacity(jobs.len());
    let mut failures = Vec::new();
    for (i, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(summary) => results.push(summary),
            Err(payload) => failures.push(FailedJob {
                index: i,
                workload: jobs[i].set.name().to_string(),
                scheme: jobs[i].scheme,
                payload,
            }),
        }
    }
    if failures.is_empty() {
        Ok(results)
    } else {
        Err(failures)
    }
}

/// Execute `run(0..n)` across up to `threads` scoped OS threads with
/// per-call panic isolation: a panicking call is caught on its worker (the
/// payload rendered into `Err`), and every other call still runs. Outcomes
/// are in call order. With `threads <= 1` or a single call everything runs
/// (with the same isolation) on the calling thread.
fn run_isolated<T, F>(n: usize, threads: usize, run: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, String>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        // AssertUnwindSafe: `run` only reads shared inputs, and the slot is
        // written exactly once after the catch, so no observable state can
        // be left half-updated by an unwound call.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(i)))
            .map_err(|p| payload_string(p.as_ref()));
        *slots[i].lock().expect("sweep slot poisoned") = Some(outcome);
    };
    if threads <= 1 || n <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads.min(n) {
                scope.spawn(worker);
            }
        });
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("sweep slot poisoned")
                .unwrap_or_else(|| panic!("sweep job {i} produced no result"))
        })
        .collect()
}

/// Run `jobs` across up to `threads` scoped OS threads.
///
/// Work is handed out through an atomic job index; each worker writes its
/// result into the slot for that job, so the returned vector is in job
/// order regardless of scheduling. With `threads <= 1` this degenerates to
/// [`sweep_serial`].
///
/// Panicking jobs no longer poison the scope: the sweep completes, then
/// this wrapper panics with a report naming every failing job and its
/// payload (use [`sweep_parallel_checked`] to handle failures instead).
pub fn sweep_parallel(jobs: &[SweepJob], threads: usize) -> Vec<RunSummary> {
    sweep_parallel_checked(jobs, threads).unwrap_or_else(|failures| {
        let lines: Vec<String> = failures.iter().map(FailedJob::to_string).collect();
        panic!(
            "{} of {} sweep jobs panicked:\n  {}",
            failures.len(),
            jobs.len(),
            lines.join("\n  ")
        );
    })
}

/// Number of worker threads to use by default: the host's available
/// parallelism (1 if it cannot be queried).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Regroup a flat grid result into per-set rows of `Scheme::ALL.len()`
/// summaries each, matching the nesting of [`comparative_grid`].
pub fn grid_rows(results: Vec<RunSummary>) -> Vec<Vec<RunSummary>> {
    results
        .chunks(Scheme::ALL.len())
        .map(|chunk| chunk.to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_call_does_not_lose_the_other_results() {
        for threads in [1, 4] {
            let outcomes = run_isolated(6, threads, |i| {
                if i == 3 {
                    panic!("boom at {i}");
                }
                i * 10
            });
            assert_eq!(outcomes.len(), 6);
            for (i, outcome) in outcomes.iter().enumerate() {
                if i == 3 {
                    assert_eq!(outcome.as_ref().unwrap_err(), "boom at 3");
                } else {
                    assert_eq!(*outcome.as_ref().unwrap(), i * 10, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn non_string_payloads_are_rendered_opaquely() {
        let outcomes = run_isolated(1, 1, |_| -> usize { std::panic::panic_any(42_i32) });
        assert_eq!(
            outcomes[0].as_ref().unwrap_err(),
            "<non-string panic payload>"
        );
    }

    #[test]
    fn failed_jobs_name_the_cell_and_carry_the_payload() {
        let job = comparative_grid(None, SimDuration::from_secs(1))
            .into_iter()
            .next()
            .expect("grid is non-empty");
        let failed = FailedJob {
            index: 7,
            workload: job.set.name().to_string(),
            scheme: job.scheme,
            payload: "boom".to_string(),
        };
        let line = failed.to_string();
        assert!(line.contains("job 7"), "{line}");
        assert!(line.contains(job.set.name()), "{line}");
        assert!(line.contains(job.scheme.name()), "{line}");
        assert!(line.ends_with("boom"), "{line}");
    }

    #[test]
    fn parallel_matches_serial_and_preserves_order() {
        let jobs: Vec<SweepJob> = comparative_grid(None, SimDuration::from_secs(2))
            .into_iter()
            .take(4)
            .collect();
        let serial = sweep_serial(&jobs);
        let parallel = sweep_parallel(&jobs, 4);
        assert_eq!(serial.len(), jobs.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(s.workload, jobs[i].set.name());
            assert_eq!(s.scheme, jobs[i].scheme);
            assert_eq!(s, p, "job {i} diverged between serial and parallel");
        }
    }
}
