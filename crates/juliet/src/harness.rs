//! Detection harness: runs generated cases under an execution mode and
//! tallies detections, misses and false positives (the §5.1 claim is
//! all-bad-detected / all-good-passed).

use crate::gen::{CaseKind, JulietCase};
use ifp_plancache::PlanCache;
use ifp_trace::{ForensicReport, TraceConfig};
use ifp_vm::{run, Mode, VmConfig, VmError};
use std::fmt;

/// What happened when a case ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CaseOutcome {
    /// Ran to completion.
    Completed,
    /// Stopped by a spatial-safety trap (poison or bounds) — the clean
    /// detection the paper's functional evaluation counts.
    Detected,
    /// Stopped by a trap that is *not* a safety detection — typically a
    /// page fault after a wild access escaped the checks. The program
    /// crashed, but the defense cannot claim it.
    TrappedOther,
    /// Stopped by something else (harness bug).
    Errored,
}

/// Runs one case under `mode`.
#[must_use]
pub fn run_case(case: &JulietCase, mode: Mode) -> CaseOutcome {
    run_case_traced(case, mode, TraceConfig::off()).0
}

/// [`run_case`] through an optional shared [`PlanCache`]. A suite
/// replays each case program under several modes (and benchmark reps),
/// so the cache collapses the repeated validate/analyze/decode work to
/// at most two artifacts per case; outcomes are bit-identical with or
/// without it (golden-gated).
#[must_use]
pub fn run_case_cached(case: &JulietCase, mode: Mode, cache: Option<&PlanCache>) -> CaseOutcome {
    run_case_inner(case, mode, TraceConfig::off(), cache).0
}

/// [`run_case`] with event tracing: when `trace` enables any category and
/// the case traps, the trap's forensic reconstruction rides along.
#[must_use]
pub fn run_case_traced(
    case: &JulietCase,
    mode: Mode,
    trace: TraceConfig,
) -> (CaseOutcome, Option<Box<ForensicReport>>) {
    run_case_inner(case, mode, trace, None)
}

fn run_case_inner(
    case: &JulietCase,
    mode: Mode,
    trace: TraceConfig,
    cache: Option<&PlanCache>,
) -> (CaseOutcome, Option<Box<ForensicReport>>) {
    let mut cfg = VmConfig::with_mode(mode);
    cfg.fuel = 50_000_000;
    cfg.trace = trace;
    let result = match cache {
        Some(c) => c.run(&case.program, &cfg),
        None => run(&case.program, &cfg),
    };
    match result {
        Ok(_) => (CaseOutcome::Completed, None),
        Err(VmError::Trap {
            trap, forensics, ..
        }) => {
            let outcome = if trap.is_safety_violation() {
                CaseOutcome::Detected
            } else {
                CaseOutcome::TrappedOther
            };
            (outcome, forensics)
        }
        Err(_) => (CaseOutcome::Errored, None),
    }
}

/// Aggregate results over a suite.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SuiteResult {
    /// Bad cases detected (true positives).
    pub detected: usize,
    /// Bad cases that completed undetected (misses).
    pub missed: Vec<String>,
    /// Good cases that completed (true negatives).
    pub passed: usize,
    /// Good cases that trapped (false positives).
    pub false_positives: Vec<String>,
    /// Cases stopped by a non-safety trap (wild page fault): the program
    /// crashed, but not at a check — not a detection the defense can
    /// claim, and not a miss either.
    pub trapped_other: Vec<String>,
    /// Cases that errored outside the detection model.
    pub errors: Vec<String>,
}

impl SuiteResult {
    /// Total cases examined.
    #[must_use]
    pub fn total(&self) -> usize {
        self.detected
            + self.missed.len()
            + self.passed
            + self.false_positives.len()
            + self.trapped_other.len()
            + self.errors.len()
    }

    /// The paper's pass criterion: every bad case detected *at a check*,
    /// every good case passed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.missed.is_empty()
            && self.false_positives.is_empty()
            && self.trapped_other.is_empty()
            && self.errors.is_empty()
    }
}

impl fmt::Display for SuiteResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cases: {} detected, {} passed, {} missed, {} false positives, \
             {} other traps, {} errors",
            self.total(),
            self.detected,
            self.passed,
            self.missed.len(),
            self.false_positives.len(),
            self.trapped_other.len(),
            self.errors.len()
        )
    }
}

/// Runs a whole suite under `mode` on up to `workers` threads.
///
/// Each case is an independent simulation; outcomes merge in case order,
/// so the result is identical for any worker count.
#[must_use]
pub fn run_suite_with_workers(cases: &[JulietCase], mode: Mode, workers: usize) -> SuiteResult {
    run_suite_with_workers_cached(cases, mode, workers, None)
}

/// [`run_suite_with_workers`] through an optional shared [`PlanCache`].
/// The cache is shared across workers (it is `Sync`); results stay
/// identical for any worker count and any cache state — only host
/// wall-clock changes.
#[must_use]
pub fn run_suite_with_workers_cached(
    cases: &[JulietCase],
    mode: Mode,
    workers: usize,
    cache: Option<&PlanCache>,
) -> SuiteResult {
    let outcomes = ifp_testutil::par_map(cases, workers, |case| run_case_cached(case, mode, cache));
    let mut out = SuiteResult::default();
    for (case, outcome) in cases.iter().zip(outcomes) {
        match (case.kind, outcome) {
            (CaseKind::Bad, CaseOutcome::Detected) => out.detected += 1,
            (CaseKind::Bad, CaseOutcome::Completed) => out.missed.push(case.id.clone()),
            (CaseKind::Good, CaseOutcome::Completed) => out.passed += 1,
            (CaseKind::Good, CaseOutcome::Detected) => {
                out.false_positives.push(case.id.clone());
            }
            (_, CaseOutcome::TrappedOther) => out.trapped_other.push(case.id.clone()),
            (_, CaseOutcome::Errored) => out.errors.push(case.id.clone()),
        }
    }
    out
}

/// [`run_suite_with_workers`] on a single thread.
#[must_use]
pub fn run_suite(cases: &[JulietCase], mode: Mode) -> SuiteResult {
    run_suite_with_workers(cases, mode, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::all_cases;
    use ifp_vm::AllocatorKind;

    #[test]
    fn instrumented_detects_all_bad_and_passes_all_good() {
        let cases = all_cases();
        for alloc in [AllocatorKind::Wrapped, AllocatorKind::Subheap] {
            let r = run_suite(&cases, Mode::instrumented(alloc));
            assert!(
                r.is_clean(),
                "{alloc}: {r}\nmissed: {:?}\nfalse positives: {:?}\nerrors: {:?}",
                r.missed,
                r.false_positives,
                r.errors
            );
            assert_eq!(r.detected, cases.len() / 2);
        }
    }

    #[test]
    fn parallel_suite_is_identical_to_single_thread() {
        // The sweep determinism invariant: fan-out changes wall-clock
        // only. SuiteResult derives Eq, so this compares every field,
        // including the order of the id lists.
        let cases = all_cases();
        for mode in [Mode::Baseline, Mode::instrumented(AllocatorKind::Subheap)] {
            let one = run_suite_with_workers(&cases, mode, 1);
            for workers in [2, 5] {
                let many = run_suite_with_workers(&cases, mode, workers);
                assert_eq!(one, many, "{mode} diverged at {workers} workers");
            }
        }
    }

    #[test]
    fn cached_suite_matches_fresh() {
        // Warm-cache replay must be outcome-identical to fresh compiles,
        // across worker counts (SuiteResult derives Eq).
        let cases: Vec<_> = all_cases().into_iter().take(24).collect();
        let mode = Mode::instrumented(AllocatorKind::Subheap);
        let fresh = run_suite(&cases, mode);
        let cache = PlanCache::new();
        for workers in [1, 4] {
            let cached = run_suite_with_workers_cached(&cases, mode, workers, Some(&cache));
            assert_eq!(fresh, cached, "diverged at {workers} workers");
        }
        let s = cache.stats();
        assert!(s.hits > 0, "warm replay must hit: {s:?}");
    }

    #[test]
    fn baseline_passes_good_cases() {
        let cases = all_cases();
        let r = run_suite(&cases, Mode::Baseline);
        assert!(r.false_positives.is_empty(), "{:?}", r.false_positives);
        assert_eq!(r.passed, cases.len() / 2);
        // The baseline misses most overflows (they land in padding or
        // allocator slack) — that asymmetry *is* the motivation.
        assert!(!r.missed.is_empty());
    }

    #[test]
    fn no_promote_misses_loaded_flow_cases() {
        let cases = all_cases();
        let r = run_suite(
            &cases,
            Mode::Instrumented {
                allocator: AllocatorKind::Subheap,
                no_promote: true,
            },
        );
        assert!(
            !r.missed.is_empty(),
            "the no-promote ablation must lose detection coverage"
        );
        assert!(r.false_positives.is_empty());
    }
}
