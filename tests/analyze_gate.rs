//! The analyze gate: `ifp-analyze` must never weaken the detection
//! story.
//!
//! Three pillars, mirroring the CI `analyze-gate` job:
//!
//! 1. The Layer-1 verifier reports zero diagnostics over every seed
//!    program (18 workloads + every generated Juliet case).
//! 2. With `elide_checks` on — the plan now including inter-procedural
//!    summaries — every Juliet outcome, all cases under both
//!    instrumented allocators, is identical to the run without elision,
//!    while the elision measurably removes modeled work.
//! 3. A pinned-seed differential fuzz campaign with the elision legs
//!    enabled produces zero findings, and so does the combined
//!    elide + plan-cache + interproc campaign.

use ifp_juliet::{all_cases, CaseOutcome};
use ifp_vm::{run, AllocatorKind, Mode, RunStats, VmConfig, VmError};

fn config(mode: Mode, elide: bool) -> VmConfig {
    let mut cfg = VmConfig::with_mode(mode);
    cfg.fuel = 50_000_000;
    cfg.elide_checks = elide;
    cfg
}

/// Runs a program and classifies it the way the Juliet harness does,
/// also returning the stats (up to the trap for trapping runs).
fn outcome_of(program: &ifp_compiler::Program, mode: Mode, elide: bool) -> (CaseOutcome, RunStats) {
    match run(program, &config(mode, elide)) {
        Ok(r) => (CaseOutcome::Completed, r.stats),
        Err(VmError::Trap { trap, stats, .. }) => {
            let o = if trap.is_safety_violation() {
                CaseOutcome::Detected
            } else {
                CaseOutcome::TrappedOther
            };
            (o, *stats)
        }
        Err(_) => (CaseOutcome::Errored, RunStats::default()),
    }
}

#[test]
fn verifier_is_clean_on_every_seed_program() {
    for w in ifp_workloads::all() {
        let program = w.build_default();
        let diags = ifp_analyze::verify(&program);
        assert!(
            diags.is_empty(),
            "{}: {}",
            w.name,
            ifp_analyze::to_jsonl(&diags)
        );
    }
    for case in all_cases() {
        let diags = ifp_analyze::verify(&case.program);
        assert!(
            diags.is_empty(),
            "{}: {}",
            case.id,
            ifp_analyze::to_jsonl(&diags)
        );
    }
}

#[test]
fn elision_preserves_every_juliet_verdict_and_saves_cycles() {
    let cases = all_cases();
    let mut outcomes = 0usize;
    let mut cycles_off = 0u64;
    let mut cycles_on = 0u64;
    let verdicts = ifp_testutil::par_map(&cases, ifp_testutil::default_workers(), |case| {
        let mut rows = Vec::new();
        for alloc in AllocatorKind::ALL {
            let mode = Mode::instrumented(alloc);
            let (off, off_stats) = outcome_of(&case.program, mode, false);
            let (on, on_stats) = outcome_of(&case.program, mode, true);
            rows.push((
                case.id.clone(),
                alloc,
                off,
                on,
                off_stats.cycles,
                on_stats.cycles,
            ));
        }
        rows
    });
    for (id, alloc, off, on, c_off, c_on) in verdicts.into_iter().flatten() {
        assert_eq!(off, on, "{id} under {alloc}: elision changed the verdict");
        outcomes += 1;
        cycles_off += c_off;
        cycles_on += c_on;
    }
    assert_eq!(outcomes, cases.len() * 2, "all cases under both allocators");
    assert!(
        cycles_on < cycles_off,
        "elision saved no cycles across the Juliet suite ({cycles_off} vs {cycles_on})"
    );
}

#[test]
fn elision_saves_cycles_across_the_workload_sweep() {
    let workloads = ifp_workloads::all();
    let rows = ifp_testutil::par_map(&workloads, ifp_testutil::default_workers(), |w| {
        let program = w.build_default();
        let mode = Mode::instrumented(AllocatorKind::Subheap);
        let off = run(&program, &VmConfig::with_mode(mode))
            .unwrap_or_else(|e| panic!("{} (elide off): {e}", w.name));
        let on = run(&program, &{
            let mut c = VmConfig::with_mode(mode);
            c.elide_checks = true;
            c
        })
        .unwrap_or_else(|e| panic!("{} (elide on): {e}", w.name));
        assert_eq!(
            off.output, on.output,
            "{}: elision changed program output",
            w.name
        );
        assert_eq!(off.exit_code, on.exit_code, "{}", w.name);
        assert!(
            on.stats.cycles <= off.stats.cycles,
            "{}: elision added cycles",
            w.name
        );
        (off.stats.cycles, on.stats.cycles, on.stats.elision)
    });
    let saved: u64 = rows.iter().map(|(off, on, _)| off - on).sum();
    let elided: u64 = rows.iter().map(|(_, _, e)| e.checks_elided).sum();
    assert!(saved > 0, "no modeled cycles saved across the sweep");
    assert!(elided > 0, "no checks elided across the sweep");
}

#[test]
fn pinned_seed_elide_campaign_has_zero_findings() {
    let report = ifp_fuzz::run_campaign(&ifp_fuzz::CampaignConfig {
        seed: 0xa7,
        iterations: 200,
        workers: ifp_testutil::default_workers(),
        corpus_dir: None,
        schedule: ifp_fuzz::Schedule::Uniform,
        elide_checks: true,
        plan_cache_checks: false,
        interproc_checks: false,
    });
    assert!(
        report.findings.is_empty(),
        "{:#?}",
        report
            .findings
            .iter()
            .map(|f| (&f.spec, &f.disagreements))
            .collect::<Vec<_>>()
    );
}

#[test]
fn pinned_seed_combined_interproc_campaign_has_zero_findings() {
    // The richest configuration CI exercises: check elision under the
    // interprocedural plan, plan cache, and the combined interproc leg —
    // all differential, all on one pinned seed.
    let report = ifp_fuzz::run_campaign(&ifp_fuzz::CampaignConfig {
        seed: 0x1a7e,
        iterations: 100,
        workers: ifp_testutil::default_workers(),
        corpus_dir: None,
        schedule: ifp_fuzz::Schedule::Uniform,
        elide_checks: true,
        plan_cache_checks: true,
        interproc_checks: true,
    });
    assert!(
        report.findings.is_empty(),
        "{:#?}",
        report
            .findings
            .iter()
            .map(|f| (&f.spec, &f.disagreements))
            .collect::<Vec<_>>()
    );
}
