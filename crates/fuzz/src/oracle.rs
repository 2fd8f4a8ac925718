//! The differential oracle: runs one spec through every VM mode and the
//! baseline defenses, and cross-checks each verdict against the spec's
//! ground truth.
//!
//! The expectation rules encode the *documented* semantics of the
//! reproduction, so every deviation is a finding rather than noise:
//!
//! * Baseline runs of good cases complete; bad baseline runs may do
//!   anything (that asymmetry is the motivation for the defense).
//! * Fully instrumented runs (wrapped and subheap allocators) complete
//!   every good case with baseline-identical output and stop every bad
//!   case with a safety trap *at a check* — a wild page fault counts as
//!   an escaped check.
//! * The no-promote ablation still detects register-carried flows (gep
//!   field steps narrow bounds statically) but is excused on
//!   `LoadedFlow` cases, where detection depends on promote narrowing —
//!   those may complete, trap, or crash.
//! * Rerunning an instrumented mode must reproduce the outcome and
//!   output byte-for-byte (determinism).
//! * Each `ifp_baselines` defense is compared against an *analytic*
//!   model of its mechanism (exact bounds for SoftBound, redzone bands
//!   with partial granules for ASan, granule tags for MTE) evaluated on
//!   the spec's resolved layout.

use crate::spec::{CaseSpec, Resolved};
use ifp_baselines::{Asan, Defense, Mte, PtrMeta, SoftBound};
use ifp_juliet::{CaseKind, Variant};
use ifp_plancache::PlanCache;
use ifp_trace::TraceConfig;
use ifp_vm::{run, AllocatorKind, Mode, RunResult, VmConfig, VmError};
use std::fmt;

/// Address the defense models place the object at (granule-aligned for
/// both the ASan and MTE models).
const MODEL_BASE: u64 = 0x1_0000;

/// Instruction budget per run; generated programs are tiny.
const FUEL: u64 = 10_000_000;

/// What one VM run did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Ran to completion.
    Completed {
        /// `main`'s return value.
        exit: i64,
        /// Everything printed.
        output: Vec<i64>,
    },
    /// Stopped by a spatial-safety trap at a check.
    Detected {
        /// Trap rendering.
        trap: String,
    },
    /// Stopped by a non-safety trap (wild page fault).
    TrappedOther {
        /// Trap rendering.
        trap: String,
    },
    /// Stopped outside the detection model.
    Errored {
        /// Error rendering.
        error: String,
    },
}

impl RunOutcome {
    /// Short outcome label for summaries ("completed", "detected", ...).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            RunOutcome::Completed { .. } => "completed",
            RunOutcome::Detected { .. } => "detected",
            RunOutcome::TrappedOther { .. } => "trapped-other",
            RunOutcome::Errored { .. } => "errored",
        }
    }
}

/// Classification of an oracle disagreement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FindingClass {
    /// A good case trapped or errored where completion was required.
    FalseTrap,
    /// A bad case completed where detection was required.
    MissedBug,
    /// A bad case crashed on a wild access instead of trapping at a check.
    EscapedCheck,
    /// The VM reported an internal error (allocator, fuel, bad program).
    VmError,
    /// An instrumented good run's output diverged from the baseline's.
    OutputDivergence,
    /// A rerun of the same mode produced a different outcome or output.
    Nondeterminism,
    /// A defense implementation disagreed with its analytic model or
    /// guaranteed verdict.
    DefenseDisagree,
    /// The generator emitted IR the `ifp-analyze` verifier rejects.
    MalformedIr,
    /// Rerunning an instrumented mode with statically-proven check
    /// elision changed the verdict or the output.
    ElisionDivergence,
    /// Rerunning a mode through an artifact cache (cold insert, then
    /// warm hit) changed the verdict, the output, or any modeled
    /// statistic.
    CacheDivergence,
    /// The combined inter-procedural leg — check elision under the
    /// summary-informed plan, compiled fresh and through the artifact
    /// cache — changed the verdict, the output, or diverged across
    /// cache paths on any modeled statistic.
    InterprocDivergence,
    /// The harness itself panicked while evaluating the case.
    HarnessPanic,
}

impl FindingClass {
    /// Stable serialization name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FindingClass::FalseTrap => "false_trap",
            FindingClass::MissedBug => "missed_bug",
            FindingClass::EscapedCheck => "escaped_check",
            FindingClass::VmError => "vm_error",
            FindingClass::OutputDivergence => "output_divergence",
            FindingClass::Nondeterminism => "nondeterminism",
            FindingClass::DefenseDisagree => "defense_disagree",
            FindingClass::MalformedIr => "malformed_ir",
            FindingClass::ElisionDivergence => "elision_divergence",
            FindingClass::CacheDivergence => "cache_divergence",
            FindingClass::InterprocDivergence => "interproc_divergence",
            FindingClass::HarnessPanic => "harness_panic",
        }
    }

    /// Parses a [`FindingClass::name`] string back.
    #[must_use]
    pub fn from_name(s: &str) -> Option<FindingClass> {
        [
            FindingClass::FalseTrap,
            FindingClass::MissedBug,
            FindingClass::EscapedCheck,
            FindingClass::VmError,
            FindingClass::OutputDivergence,
            FindingClass::Nondeterminism,
            FindingClass::DefenseDisagree,
            FindingClass::MalformedIr,
            FindingClass::ElisionDivergence,
            FindingClass::CacheDivergence,
            FindingClass::InterprocDivergence,
            FindingClass::HarnessPanic,
        ]
        .into_iter()
        .find(|c| c.name() == s)
    }
}

impl fmt::Display for FindingClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One disagreement the oracle flagged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Disagreement {
    /// Classification.
    pub class: FindingClass,
    /// Human-readable specifics (mode, outcome, expectation).
    pub detail: String,
}

/// Everything the oracle observed for one spec.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Outcome per mode, in run order (baseline, wrapped, subheap,
    /// no-promote).
    pub runs: Vec<(String, RunOutcome)>,
    /// Every disagreement found. Empty = the case agrees everywhere.
    pub disagreements: Vec<Disagreement>,
    /// Modeled instructions executed across every run the oracle made
    /// (including the determinism rerun) — the campaign's throughput
    /// denominator.
    pub modeled_instrs: u64,
}

/// Runs `program` under `mode` and classifies the result, also
/// reporting the modeled instructions executed (up to the trap for
/// trapping runs, zero for harness-level errors).
#[must_use]
pub fn run_mode_counted(program: &ifp_compiler::Program, mode: Mode) -> (RunOutcome, u64) {
    let mut cfg = VmConfig::with_mode(mode);
    cfg.fuel = FUEL;
    run_config_counted(program, &cfg)
}

fn run_config_counted(program: &ifp_compiler::Program, cfg: &VmConfig) -> (RunOutcome, u64) {
    match run(program, cfg) {
        Ok(r) => (
            RunOutcome::Completed {
                exit: r.exit_code,
                output: r.output,
            },
            r.stats.total_instrs(),
        ),
        Err(VmError::Trap {
            trap, func, stats, ..
        }) => {
            let outcome = if trap.is_safety_violation() {
                RunOutcome::Detected {
                    trap: format!("{trap} in `{func}`"),
                }
            } else {
                RunOutcome::TrappedOther {
                    trap: format!("{trap} in `{func}`"),
                }
            };
            (outcome, stats.total_instrs())
        }
        Err(e) => (
            RunOutcome::Errored {
                error: e.to_string(),
            },
            0,
        ),
    }
}

/// Runs `program` under `mode` and classifies the result.
#[must_use]
pub fn run_mode(program: &ifp_compiler::Program, mode: Mode) -> RunOutcome {
    run_mode_counted(program, mode).0
}

/// [`run_mode_counted`] with `elide_checks` enabled: the `ifp-analyze`
/// interval analysis runs over the program and every statically proven
/// check, tag update, and dead promote is skipped.
#[must_use]
pub fn run_mode_elided_counted(program: &ifp_compiler::Program, mode: Mode) -> (RunOutcome, u64) {
    let mut cfg = VmConfig::with_mode(mode);
    cfg.fuel = FUEL;
    cfg.elide_checks = true;
    run_config_counted(program, &cfg)
}

/// Like [`run_config_counted`], but additionally digests the complete
/// [`ifp_vm::RunStats`] (its `Debug` rendering, byte-exact) so two runs
/// can be compared on *every* modeled statistic, not just the verdict.
/// The digest is empty for harness-level errors, which carry no stats.
fn run_config_digest(program: &ifp_compiler::Program, cfg: &VmConfig) -> (RunOutcome, String, u64) {
    digest_result(run(program, cfg))
}

/// Like [`run_config_digest`], but routes compilation through an
/// artifact cache. Execution semantics must be unaffected by whether
/// the compiled artifact was a hit or a miss.
fn run_config_digest_cached(
    program: &ifp_compiler::Program,
    cfg: &VmConfig,
    cache: &PlanCache,
) -> (RunOutcome, String, u64) {
    digest_result(cache.run(program, cfg))
}

fn digest_result(result: Result<RunResult, VmError>) -> (RunOutcome, String, u64) {
    match result {
        Ok(r) => (
            RunOutcome::Completed {
                exit: r.exit_code,
                output: r.output,
            },
            format!("{:?}", r.stats),
            r.stats.total_instrs(),
        ),
        Err(VmError::Trap {
            trap, func, stats, ..
        }) => {
            let outcome = if trap.is_safety_violation() {
                RunOutcome::Detected {
                    trap: format!("{trap} in `{func}`"),
                }
            } else {
                RunOutcome::TrappedOther {
                    trap: format!("{trap} in `{func}`"),
                }
            };
            (outcome, format!("{stats:?}"), stats.total_instrs())
        }
        Err(e) => (
            RunOutcome::Errored {
                error: e.to_string(),
            },
            String::new(),
            0,
        ),
    }
}

/// Reruns the instrumented (subheap) mode with full tracing and renders
/// what the trap forensics reconstructed — the triage attachment every
/// finding carries.
#[must_use]
pub fn forensic_text(spec: &CaseSpec) -> String {
    let program = spec.build_program();
    let mut cfg = VmConfig::with_mode(Mode::instrumented(AllocatorKind::Subheap));
    cfg.fuel = FUEL;
    cfg.trace = TraceConfig::all();
    match run(&program, &cfg) {
        Ok(_) => "no trap raised under the instrumented run (completed)".into(),
        Err(VmError::Trap {
            forensics: Some(report),
            ..
        }) => report.render(),
        Err(VmError::Trap {
            trap,
            func,
            forensics: None,
            ..
        }) => format!("trap {trap} in `{func}` (no forensic ring available)"),
        Err(e) => format!("vm error: {e}"),
    }
}

fn push(out: &mut Vec<Disagreement>, class: FindingClass, detail: impl Into<String>) {
    out.push(Disagreement {
        class,
        detail: detail.into(),
    });
}

/// Expectation for a fully instrumented run.
fn check_instrumented(
    out: &mut Vec<Disagreement>,
    label: &str,
    kind: CaseKind,
    outcome: &RunOutcome,
) {
    match (kind, outcome) {
        (CaseKind::Good, RunOutcome::Completed { .. })
        | (CaseKind::Bad, RunOutcome::Detected { .. }) => {}
        (CaseKind::Good, o) => push(
            out,
            FindingClass::FalseTrap,
            format!("{label}: good case {}", o.label()),
        ),
        (CaseKind::Bad, RunOutcome::Completed { .. }) => push(
            out,
            FindingClass::MissedBug,
            format!("{label}: bad case completed undetected"),
        ),
        (CaseKind::Bad, RunOutcome::TrappedOther { trap }) => push(
            out,
            FindingClass::EscapedCheck,
            format!("{label}: bad case crashed past the checks ({trap})"),
        ),
        (CaseKind::Bad, RunOutcome::Errored { error }) => {
            push(out, FindingClass::VmError, format!("{label}: {error}"))
        }
    }
}

/// The ASan analytic model: a byte is unaddressable when it falls in the
/// left redzone or in the right band that starts at the object's end and
/// runs to the end of the granule-aligned right redzone (partial tail
/// granules guard the bytes between `size` and the next granule
/// boundary).
/// Rounds the non-negative `x` up to a multiple of `align` (signed
/// `next_multiple_of` is still unstable).
fn align_up(x: i64, align: i64) -> i64 {
    (x as u64).next_multiple_of(align as u64) as i64
}

fn asan_denies(r: &Resolved, lo: i64, hi: i64) -> bool {
    let base = MODEL_BASE as i64;
    let size = r.object_size as i64;
    let left = (base - 16, base);
    let right = (base + size, align_up(base + size, 8) + 16);
    let (a0, a1) = (base + lo, base + hi);
    (a0 < left.1 && a1 > left.0) || (a0 < right.1 && a1 > right.0)
}

/// The MTE analytic model: the access passes when every touched granule
/// carries the pointer's tag — i.e. it stays within the granule-rounded
/// object extent, or the tag happens to be zero (untagged memory).
fn mte_denies(r: &Resolved, lo: i64, hi: i64, tag: u8) -> bool {
    let base = MODEL_BASE as i64;
    let tagged_hi = base + align_up(r.object_size as i64, 16);
    let (a0, a1) = (base + lo, base + hi);
    let inside = a0 >= base && a1 <= tagged_hi;
    !inside && tag != 0
}

/// Compares each defense implementation against its analytic model on
/// the planted accesses.
fn check_defenses(out: &mut Vec<Disagreement>, spec: &CaseSpec, r: &Resolved) {
    let good_lo = r.arr_offset as i64 + r.good_idx * r.elem_size as i64;
    let good = (good_lo, good_lo + r.elem_size as i64);
    let bad = (r.bad_lo, r.bad_hi);
    let addr = |off: i64| (MODEL_BASE as i64 + off) as u64;

    // SoftBound: exact bounds, narrowed to the target array when the
    // program derives a field pointer. Good allowed, bad denied, always.
    let mut sb = SoftBound::new();
    let meta = sb.on_alloc(MODEL_BASE, r.object_size);
    let meta = if spec.wrap_struct {
        sb.on_subobject(
            meta,
            MODEL_BASE + r.arr_offset,
            u64::from(spec.len) * r.elem_size,
        )
    } else {
        meta
    };
    if !sb.check(meta, addr(good.0), r.elem_size) {
        push(
            out,
            FindingClass::DefenseDisagree,
            "softbound: denied the in-bounds access",
        );
    }
    if spec.kind == CaseKind::Bad && sb.check(meta, addr(bad.0), r.elem_size) {
        push(
            out,
            FindingClass::DefenseDisagree,
            format!(
                "softbound: allowed the planted {} at object offset {}",
                r.cwe.name(),
                r.bad_lo
            ),
        );
    }

    // ASan: implementation vs the redzone-band model.
    let mut asan = Asan::new();
    let ameta = asan.on_alloc(MODEL_BASE, r.object_size);
    if !asan.check(ameta, addr(good.0), r.elem_size) {
        push(
            out,
            FindingClass::DefenseDisagree,
            "asan: denied the in-bounds access",
        );
    }
    if spec.kind == CaseKind::Bad {
        let impl_denies = !asan.check(ameta, addr(bad.0), r.elem_size);
        let model_denies = asan_denies(r, bad.0, bad.1);
        if impl_denies != model_denies {
            push(
                out,
                FindingClass::DefenseDisagree,
                format!(
                    "asan: implementation {} but redzone model {} (offsets {}..{})",
                    if impl_denies { "denies" } else { "allows" },
                    if model_denies { "denies" } else { "allows" },
                    bad.0,
                    bad.1
                ),
            );
        }
    }

    // MTE: implementation vs the granule-tag model, per-spec tag stream.
    let mut mte = Mte::with_seed(spec.seed);
    let mmeta = mte.on_alloc(MODEL_BASE, r.object_size);
    let tag = match mmeta {
        PtrMeta::Tag(t) => t,
        _ => 0,
    };
    if !mte.check(mmeta, addr(good.0), r.elem_size) {
        push(
            out,
            FindingClass::DefenseDisagree,
            "mte: denied the in-bounds access",
        );
    }
    if spec.kind == CaseKind::Bad {
        let impl_denies = !mte.check(mmeta, addr(bad.0), r.elem_size);
        let model_denies = mte_denies(r, bad.0, bad.1, tag);
        if impl_denies != model_denies {
            push(
                out,
                FindingClass::DefenseDisagree,
                format!(
                    "mte: implementation {} but tag model {} (tag {tag}, offsets {}..{})",
                    if impl_denies { "denies" } else { "allows" },
                    if model_denies { "denies" } else { "allows" },
                    bad.0,
                    bad.1
                ),
            );
        }
        if !r.escapes && impl_denies {
            push(
                out,
                FindingClass::DefenseDisagree,
                "mte: claimed an intra-object detection it cannot provide",
            );
        }
    }
}

/// Knobs extending the differential matrix.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleOptions {
    /// Rerun the wrapped and subheap modes with statically-proven check
    /// elision and require byte-identical verdicts and output — the
    /// safety gate for `ifp-analyze`'s elision plan.
    pub elide_differential: bool,
    /// Rerun the wrapped and subheap modes through an artifact cache,
    /// cold (insert) then warm (hit), and require byte-identical
    /// verdicts, output, and complete modeled statistics. The safety
    /// gate for `ifp-plancache`.
    pub plan_cache_differential: bool,
    /// Rerun the wrapped and subheap modes with summary-informed check
    /// elision, fresh and through an artifact cache, and require the
    /// unelided verdict plus bit-identical modeled statistics across
    /// cache paths — the combined safety gate for the `ifp-analyze`
    /// inter-procedural plan.
    pub interproc_differential: bool,
}

/// Runs the full differential matrix for one spec.
#[must_use]
pub fn evaluate(spec: &CaseSpec) -> Evaluation {
    evaluate_with(spec, OracleOptions::default())
}

/// [`evaluate`] with extra differential legs enabled.
#[must_use]
pub fn evaluate_with(spec: &CaseSpec, opts: OracleOptions) -> Evaluation {
    let r = spec.resolve();
    let program = spec.build_program();

    // Layer-1 gate: every program the generator emits must pass the
    // strict IR verifier. A diagnostic here is a generator bug the VM's
    // looser `validate` would mask (or worse, execute).
    let verifier_diags = ifp_analyze::verify(&program);
    if !verifier_diags.is_empty() {
        let disagreements = verifier_diags
            .iter()
            .map(|d| Disagreement {
                class: FindingClass::MalformedIr,
                detail: d.to_string(),
            })
            .collect();
        return Evaluation {
            runs: Vec::new(),
            disagreements,
            modeled_instrs: 0,
        };
    }

    let (baseline, i0) = run_mode_counted(&program, Mode::Baseline);
    let (wrapped, i1) = run_mode_counted(&program, Mode::instrumented(AllocatorKind::Wrapped));
    let (subheap, i2) = run_mode_counted(&program, Mode::instrumented(AllocatorKind::Subheap));
    let (no_promote, i3) = run_mode_counted(
        &program,
        Mode::Instrumented {
            allocator: AllocatorKind::Subheap,
            no_promote: true,
        },
    );
    let (subheap_again, i4) =
        run_mode_counted(&program, Mode::instrumented(AllocatorKind::Subheap));
    let mut modeled_instrs = i0 + i1 + i2 + i3 + i4;

    let mut out = Vec::new();

    // Baseline: good must complete; bad baseline behavior is unspecified.
    if spec.kind == CaseKind::Good {
        if let RunOutcome::Completed { exit, .. } = &baseline {
            if *exit != 0 {
                push(
                    &mut out,
                    FindingClass::OutputDivergence,
                    format!("baseline: good case exited {exit}"),
                );
            }
        } else {
            push(
                &mut out,
                FindingClass::FalseTrap,
                format!("baseline: good case {}", baseline.label()),
            );
        }
    }

    // Fully instrumented modes: hard requirements both ways.
    check_instrumented(&mut out, "wrapped", spec.kind, &wrapped);
    check_instrumented(&mut out, "subheap", spec.kind, &subheap);

    // No-promote ablation: loaded-flow detection is excused, everything
    // else keeps the full contract (field geps narrow in-register).
    if spec.variant == Variant::LoadedFlow {
        if spec.kind == CaseKind::Good {
            // Good loaded flows must still complete: promote becoming a
            // NOP never *adds* a trap.
            if !matches!(no_promote, RunOutcome::Completed { .. }) {
                push(
                    &mut out,
                    FindingClass::FalseTrap,
                    format!("no-promote: good case {}", no_promote.label()),
                );
            }
        }
        // Bad loaded flows under no-promote may complete (miss), trap or
        // crash: the unchecked wild access is exactly the ablated
        // protection.
    } else {
        check_instrumented(&mut out, "no-promote", spec.kind, &no_promote);
    }

    // Output divergence: instrumentation must be semantically invisible
    // on good cases.
    if spec.kind == CaseKind::Good {
        if let RunOutcome::Completed { exit, output } = &baseline {
            for (label, o) in [
                ("wrapped", &wrapped),
                ("subheap", &subheap),
                ("no-promote", &no_promote),
            ] {
                if let RunOutcome::Completed {
                    exit: e2,
                    output: out2,
                } = o
                {
                    if e2 != exit || out2 != output {
                        push(
                            &mut out,
                            FindingClass::OutputDivergence,
                            format!("{label}: output differs from baseline"),
                        );
                    }
                }
            }
        }
    }

    // Determinism: the same mode twice, byte-identical.
    if subheap_again != subheap {
        push(
            &mut out,
            FindingClass::Nondeterminism,
            format!(
                "subheap rerun: {} then {}",
                subheap.label(),
                subheap_again.label()
            ),
        );
    }

    // Elision differential: skipping statically proven checks must not
    // change a single verdict or output byte in either allocator mode.
    if opts.elide_differential {
        for (label, mode, reference) in [
            (
                "wrapped",
                Mode::instrumented(AllocatorKind::Wrapped),
                &wrapped,
            ),
            (
                "subheap",
                Mode::instrumented(AllocatorKind::Subheap),
                &subheap,
            ),
        ] {
            let (elided, ie) = run_mode_elided_counted(&program, mode);
            modeled_instrs += ie;
            if elided != *reference {
                push(
                    &mut out,
                    FindingClass::ElisionDivergence,
                    format!(
                        "{label}: {} without elision, {} with",
                        reference.label(),
                        elided.label()
                    ),
                );
            }
        }
    }

    // Plan-cache differential: running through an artifact cache must
    // reproduce the fresh-compile verdict, output, and every modeled
    // statistic. Each config runs through the cache twice so both the
    // cold-insert path and the warm-hit path are exercised.
    if opts.plan_cache_differential {
        let cache = PlanCache::new();
        for (label, mode, reference) in [
            (
                "wrapped",
                Mode::instrumented(AllocatorKind::Wrapped),
                &wrapped,
            ),
            (
                "subheap",
                Mode::instrumented(AllocatorKind::Subheap),
                &subheap,
            ),
        ] {
            let mut cfg = VmConfig::with_mode(mode);
            cfg.fuel = FUEL;
            let (fout, fdig, fi) = run_config_digest(&program, &cfg);
            modeled_instrs += fi;
            for pass in ["cold", "warm"] {
                let (cout, cdig, ci) = run_config_digest_cached(&program, &cfg, &cache);
                modeled_instrs += ci;
                if cout != fout || &cout != reference {
                    push(
                        &mut out,
                        FindingClass::CacheDivergence,
                        format!(
                            "{label}: {} fresh, {} through the cache ({pass} pass)",
                            fout.label(),
                            cout.label()
                        ),
                    );
                } else if cdig != fdig {
                    push(
                        &mut out,
                        FindingClass::CacheDivergence,
                        format!(
                            "{label}: modeled statistics differ through the cache ({pass} pass)"
                        ),
                    );
                }
            }
        }
    }

    // Inter-procedural differential: the richest elided configuration —
    // the summary-informed plan driving check elision, compiled fresh
    // and through an artifact cache — must keep the unelided verdict and
    // stay bit-identical across cache paths.
    if opts.interproc_differential {
        let cache = PlanCache::new();
        for (label, mode, reference) in [
            (
                "wrapped",
                Mode::instrumented(AllocatorKind::Wrapped),
                &wrapped,
            ),
            (
                "subheap",
                Mode::instrumented(AllocatorKind::Subheap),
                &subheap,
            ),
        ] {
            let mut cfg = VmConfig::with_mode(mode);
            cfg.fuel = FUEL;
            cfg.elide_checks = true;
            let (fout, fdig, fi) = run_config_digest(&program, &cfg);
            modeled_instrs += fi;
            if fout != *reference {
                push(
                    &mut out,
                    FindingClass::InterprocDivergence,
                    format!(
                        "{label}: {} without elision, {} with the interprocedural plan",
                        reference.label(),
                        fout.label()
                    ),
                );
            }
            let (cout, cdig, ci) = run_config_digest_cached(&program, &cfg, &cache);
            modeled_instrs += ci;
            if cout != fout || cdig != fdig {
                push(
                    &mut out,
                    FindingClass::InterprocDivergence,
                    format!("{label}: cached elided run diverged from fresh"),
                );
            }
        }
    }

    // Defense models.
    check_defenses(&mut out, spec, &r);

    Evaluation {
        runs: vec![
            ("baseline".into(), baseline),
            ("wrapped".into(), wrapped),
            ("subheap".into(), subheap),
            ("no-promote".into(), no_promote),
        ],
        disagreements: out,
        modeled_instrs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Dir, FieldSpec};
    use ifp_juliet::Site;
    use ifp_testutil::Rng;

    fn spec(kind: CaseKind, variant: Variant, site: Site, wrap: bool, dir: Dir) -> CaseSpec {
        let mut s = CaseSpec {
            seed: 3,
            site,
            variant,
            kind,
            dir,
            is_read: false,
            wrap_struct: wrap,
            pre: vec![FieldSpec {
                elem_size: 4,
                count: 4,
            }],
            elem_size: 4,
            len: 6,
            post: vec![FieldSpec {
                elem_size: 8,
                count: 2,
            }],
            deco: 2,
            oob: 1,
            filler: 2,
        };
        s.sanitize();
        s
    }

    #[test]
    fn clean_cases_produce_no_disagreements() {
        for variant in Variant::ALL {
            for site in Site::ALL {
                for kind in [CaseKind::Good, CaseKind::Bad] {
                    for wrap in [false, true] {
                        for dir in [Dir::Over, Dir::Under] {
                            let s = spec(kind, variant, site, wrap, dir);
                            let e = evaluate(&s);
                            assert!(e.disagreements.is_empty(), "{s:?}\n{:?}", e.disagreements);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn random_specs_are_clean() {
        for i in 0..40 {
            let s = CaseSpec::generate(&mut Rng::stream(0xfacade, i));
            let e = evaluate(&s);
            assert!(e.disagreements.is_empty(), "{s:?}\n{:?}", e.disagreements);
        }
    }

    #[test]
    fn elide_differential_is_clean_on_random_specs() {
        let opts = OracleOptions {
            elide_differential: true,
            ..OracleOptions::default()
        };
        for i in 0..25 {
            let s = CaseSpec::generate(&mut Rng::stream(0xe11de, i));
            let e = evaluate_with(&s, opts);
            assert!(e.disagreements.is_empty(), "{s:?}\n{:?}", e.disagreements);
        }
    }

    #[test]
    fn plan_cache_differential_is_clean_on_random_specs() {
        let opts = OracleOptions {
            plan_cache_differential: true,
            ..OracleOptions::default()
        };
        for i in 0..25 {
            let s = CaseSpec::generate(&mut Rng::stream(0xcac4e, i));
            let e = evaluate_with(&s, opts);
            assert!(e.disagreements.is_empty(), "{s:?}\n{:?}", e.disagreements);
        }
    }

    #[test]
    fn interproc_differential_is_clean_on_random_specs() {
        let opts = OracleOptions {
            interproc_differential: true,
            ..OracleOptions::default()
        };
        for i in 0..25 {
            let s = CaseSpec::generate(&mut Rng::stream(0x1f7e2, i));
            let e = evaluate_with(&s, opts);
            assert!(e.disagreements.is_empty(), "{s:?}\n{:?}", e.disagreements);
        }
    }

    #[test]
    fn finding_class_names_round_trip() {
        for c in [
            FindingClass::FalseTrap,
            FindingClass::MissedBug,
            FindingClass::EscapedCheck,
            FindingClass::VmError,
            FindingClass::OutputDivergence,
            FindingClass::Nondeterminism,
            FindingClass::DefenseDisagree,
            FindingClass::MalformedIr,
            FindingClass::ElisionDivergence,
            FindingClass::CacheDivergence,
            FindingClass::InterprocDivergence,
            FindingClass::HarnessPanic,
        ] {
            assert_eq!(FindingClass::from_name(c.name()), Some(c));
        }
    }

    #[test]
    fn forensics_attach_to_detected_cases() {
        let s = spec(CaseKind::Bad, Variant::Direct, Site::Stack, true, Dir::Over);
        let text = forensic_text(&s);
        assert!(
            text.contains("bounds violation") || text.contains("poisoned"),
            "{text}"
        );
    }
}
