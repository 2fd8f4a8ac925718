//! Static analysis for the In-Fat Pointer reproduction.
//!
//! Three layers over the `ifp-compiler` mini-IR:
//!
//! 1. **Verifier** ([`verify`]) — a strict, panic-free well-formedness
//!    pass that collects *every* defect (def-before-use along paths, CFG
//!    integrity, GEP/type-table consistency, call and extern arity) as
//!    stable-coded diagnostics (`IFP-V001`…) with function/block/op
//!    coordinates, renderable as JSONL for tooling.
//! 2. **Interval analysis** ([`analyze`]) — an abstract interpretation
//!    over `base + [lo, hi]` offset intervals with windowed pointers,
//!    classifying each load/store as provably in-bounds, provably
//!    out-of-bounds (lint `IFP-A001`), or unknown, and deriving an
//!    [`ElisionPlan`](ifp_compiler::ElisionPlan) the VM uses under
//!    `elide_checks` to skip bounds checks, GEP tag updates, and dead
//!    promotes — removing modeled work without ever removing a
//!    detection. Branch-condition refinement at loop exits doubles as
//!    the monotonic-induction range proof: `i*stride+base` GEP chains
//!    with provable trip bounds are discharged per-iteration.
//! 3. **Inter-procedural summaries** (the `interproc` pass inside
//!    [`analyze`]) — a bottom-up call-graph pass computing per-function
//!    return summaries (fresh allocation vs. parameter-relative
//!    pointer) and a top-down pass joining argument windows into
//!    per-parameter entry facts, so bounds-passing helpers no longer
//!    force `Unknown`. Applications that narrow a previously-unknown
//!    access are surfaced as `IFP-A002` diagnostics. Recursion and
//!    extern calls fall back to `Top`.
//!
//! The crate deliberately depends only on `ifp-compiler`: the VM consumes
//! the plan, the fuzz oracle re-checks it differentially, and the bench
//! tables report it, all from the outside.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
mod interproc;
pub mod interval;
pub mod verify;

pub use diag::{codes, to_jsonl, DiagLoc, Diagnostic};
pub use interval::{analyze, elision_plan, AccessClass, AnalysisReport};
pub use verify::{ext_arity, verify};

/// Version stamp of the analysis semantics: bumped whenever the derived
/// elision plan for a given program can change (new proof power, lattice
/// or summary changes). `ifp-plancache` mixes it into its artifact keys
/// so cached plans never outlive the analysis that justified them.
pub const ANALYSIS_FINGERPRINT: u64 = 3;

/// The plan → specialization handoff: builds the instrumentation plan
/// an instrumented run executes under, folding in the elision plan when
/// `elide` is set. This is the single producer every consumer keys its
/// specialization off, so "what the analyzer proved" can never diverge
/// between them.
#[must_use]
pub fn instr_plan(program: &ifp_compiler::ir::Program, elide: bool) -> ifp_compiler::InstrPlan {
    if elide {
        ifp_compiler::InstrPlan::build_elided(program, &elision_plan(program))
    } else {
        ifp_compiler::InstrPlan::build(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifp_compiler::ir::{Block, Function, GepStep, Op, Operand, Program, Reg, Terminator};
    use ifp_compiler::ProgramBuilder;

    fn listing_like_program() -> Program {
        // main: a = alloca [8 x i64]; for i in 0..8 { a[i] = i }; load a[3]
        let mut p = ProgramBuilder::new();
        let i64t = p.types.int64();
        let arr = p.types.array(i64t, 8);
        let mut f = p.func("main", 0);
        let a = f.alloca(arr);
        f.for_loop(0, 8, |f, i| {
            let slot = f.index_addr(a, arr, i);
            f.store(slot, i, i64t);
        });
        let slot = f.index_addr(a, arr, 3);
        let v = f.load(slot, i64t);
        f.ret(Some(v.into()));
        p.finish_func(f);
        p.build()
    }

    #[test]
    fn verifier_is_clean_on_builder_output() {
        let program = listing_like_program();
        assert!(verify(&program).is_empty());
    }

    #[test]
    fn constant_index_access_is_proven_and_elided() {
        let program = listing_like_program();
        let report = analyze(&program);
        assert!(report.verifier.is_empty());
        assert!(report.lints.is_empty());
        // The a[3] load (constant index into a window-sized array) is
        // provable; the loop body store needs widening and stays unknown
        // or proven depending on precision, but at least one access must
        // be proven.
        assert!(report.proven_in >= 1, "report: {report:?}");
        let counts = report.elision.counts();
        assert!(counts.checks >= 1);
        assert!(counts.tag_updates >= 1, "counts: {counts:?}");
    }

    #[test]
    fn oob_constant_access_is_linted_not_elided() {
        let mut p = ProgramBuilder::new();
        let i64t = p.types.int64();
        let arr = p.types.array(i64t, 4);
        let mut f = p.func("main", 0);
        let a = f.alloca(arr);
        let bad = f.index_addr(a, arr, 9);
        let v = f.load(bad, i64t);
        f.ret(Some(v.into()));
        p.finish_func(f);
        let program = p.build();
        let report = analyze(&program);
        assert_eq!(report.proven_oob, 1);
        assert_eq!(report.lints.len(), 1);
        assert_eq!(report.lints[0].code, codes::PROVEN_OOB);
        // The OOB access itself keeps its check.
        assert_eq!(report.elision.counts().checks, 0);
    }

    #[test]
    fn unknown_count_malloc_is_never_proven() {
        let mut p = ProgramBuilder::new();
        let i64t = p.types.int64();
        let mut f = p.func("main", 1);
        let n = f.param(0);
        let buf = f.malloc_n(i64t, n);
        let slot = f.index_addr(buf, i64t, 0);
        f.store(slot, 1, i64t);
        f.ret(None);
        p.finish_func(f);
        // main with a param never gets called with args in practice, but
        // the analysis is per-function and doesn't care.
        let program = p.build();
        let report = analyze(&program);
        assert_eq!(report.proven_in, 0);
        assert_eq!(report.elision.counts().checks, 0);
    }

    #[test]
    fn escaping_gep_is_not_discharged() {
        // The GEP result is passed to a call: its tag is observable, so
        // the tag update must stay.
        let mut p = ProgramBuilder::new();
        let i64t = p.types.int64();
        let arr = p.types.array(i64t, 4);
        let mut callee = p.func("sink", 1);
        let q = callee.param(0);
        callee.store(q, 7, i64t);
        callee.ret(None);
        p.finish_func(callee);
        let mut f = p.func("main", 0);
        let a = f.alloca(arr);
        let slot = f.index_addr(a, arr, 1);
        f.call_void("sink", vec![slot.into()]);
        f.ret(None);
        p.finish_func(f);
        let program = p.build();
        let report = analyze(&program);
        assert_eq!(report.elision.counts().tag_updates, 0);
    }

    #[test]
    fn verifier_reports_all_defects_with_coordinates() {
        // Hand-built malformed function: bad register + bad branch target
        // + use-before-def would be masked by the structural failures.
        let mut program = Program::new();
        let i64t = program.types.int64();
        program.add_func(Function {
            name: "main".to_string(),
            params: 0,
            num_regs: 1,
            blocks: vec![Block {
                ops: vec![
                    Op::Mov {
                        dst: Reg(5),
                        a: Operand::Imm(1),
                    },
                    Op::Load {
                        dst: Reg(0),
                        ptr: Operand::Imm(0),
                        ty: i64t,
                    },
                ],
                term: Terminator::Jmp(9),
            }],
            instrumented: true,
        });
        let diags = verify(&program);
        let codes_found: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes_found.contains(&codes::REG_RANGE), "{diags:?}");
        assert!(codes_found.contains(&codes::BLOCK_RANGE), "{diags:?}");
        let jsonl = to_jsonl(&diags);
        assert!(jsonl.contains("\"func\":\"main\""));
        assert!(jsonl.lines().count() == diags.len());
    }

    #[test]
    fn verifier_flags_use_before_def_on_one_path() {
        // bb0: br 1 -> bb1 (defines r0) or bb2; bb2 reads r0 undefined on
        // the else path.
        let mut program = Program::new();
        program.add_func(Function {
            name: "main".to_string(),
            params: 0,
            num_regs: 1,
            blocks: vec![
                Block {
                    ops: vec![],
                    term: Terminator::Br {
                        cond: Operand::Imm(1),
                        then_bb: 1,
                        else_bb: 2,
                    },
                },
                Block {
                    ops: vec![Op::Mov {
                        dst: Reg(0),
                        a: Operand::Imm(3),
                    }],
                    term: Terminator::Jmp(2),
                },
                Block {
                    ops: vec![],
                    term: Terminator::Ret(Some(Operand::Reg(Reg(0)))),
                },
            ],
            instrumented: true,
        });
        let diags = verify(&program);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, codes::USE_BEFORE_DEF);
    }

    #[test]
    fn verifier_flags_ext_arity() {
        let mut p = ProgramBuilder::new();
        let mut f = p.func("main", 0);
        f.ret(None);
        p.finish_func(f);
        let mut program = p.build();
        // Splice a bad extern call in.
        program.funcs[0].blocks[0].ops.push(Op::CallExt {
            dst: None,
            ext: ifp_compiler::ir::ExtFunc::Memcpy,
            args: vec![Operand::Imm(0)],
        });
        let diags = verify(&program);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::EXT_ARITY);
    }

    #[test]
    fn widening_terminates_on_pointer_chase() {
        // A loop that re-GEPs its own cursor: p = &p[1] forever (by
        // count); offsets widen to +inf and the analysis terminates with
        // nothing proven through the cursor.
        let mut p = ProgramBuilder::new();
        let i64t = p.types.int64();
        let arr = p.types.array(i64t, 64);
        let mut f = p.func("main", 0);
        let a = f.alloca(arr);
        let cur = f.mov(a);
        f.for_loop(0, 32, |f, _i| {
            let next = f.gep(cur, i64t, vec![GepStep::Index(Operand::Imm(1))]);
            f.assign(cur, next);
            f.store(cur, 5, i64t);
        });
        f.ret(None);
        p.finish_func(f);
        let program = p.build();
        let report = analyze(&program);
        // `cur` is multiply-defined and widened: never discharged.
        assert!(report.verifier.is_empty());
    }
}
