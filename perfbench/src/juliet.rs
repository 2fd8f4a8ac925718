//! `juliet`: every Juliet-style spatial case under the four spatial modes
//! plus every temporal case under both allocators and all four temporal
//! policies — 592 fresh `ifp_vm::run` calls per pass.
//!
//! Runs are microseconds long, so per-run fixed costs (compile, host
//! construction, image load) and the trap path dominate: the mirror image
//! of `sweep`. The seed only shuffles the order the calls run in.

use crate::spans::Recorder;
use crate::{fnv, iqm, shuffled, Counts, Opts, Outcome};
use ifp_compiler::Program;
use ifp_hw::Trap;
use ifp_juliet::{all_cases, temporal_cases, CaseKind, JulietCase, TemporalCase};
use ifp_temporal::{TemporalKind, TemporalPolicy};
use ifp_vm::{AllocatorKind, Mode, RunResult, VmConfig, VmError};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Pinned verdict and trap identity of every call, one per line:
/// `<case> <config>\t<verdict>\t<identity>`.
const REFS: &str = include_str!("../refs/juliet.txt");

/// The repository's golden snapshot, read (never written): its `juliet`
/// lines pin the trap identity of the wrapped and subheap modes.
const GOLDEN: &str = include_str!("../../tests/golden_host_expected.txt");

const SPATIAL_MODES: [(&str, Mode); 4] = [
    ("baseline", Mode::Baseline),
    (
        "wrapped",
        Mode::Instrumented {
            allocator: AllocatorKind::Wrapped,
            no_promote: false,
        },
    ),
    (
        "subheap",
        Mode::Instrumented {
            allocator: AllocatorKind::Subheap,
            no_promote: false,
        },
    ),
    (
        "subheap-np",
        Mode::Instrumented {
            allocator: AllocatorKind::Subheap,
            no_promote: true,
        },
    ),
];

/// Index of a spatial or a temporal case.
#[derive(Clone, Copy)]
enum Case {
    Spatial(usize),
    Temporal(usize),
}

/// One `ifp_vm::run` call of the pass.
struct Op {
    /// `<case> <config>`.
    key: String,
    case: Case,
    cfg: VmConfig,
}

/// The juliet workload's inputs.
pub struct Setup {
    cases: Vec<JulietCase>,
    tcases: Vec<TemporalCase>,
    ops: Vec<Op>,
    /// Key → (verdict, identity).
    refs: BTreeMap<String, (String, String)>,
    errors: Vec<String>,
}

fn ops(cases: &[JulietCase], tcases: &[TemporalCase]) -> Vec<Op> {
    let mut ops = Vec::new();
    for (label, mode) in SPATIAL_MODES {
        for (i, case) in cases.iter().enumerate() {
            let mut cfg = VmConfig::with_mode(mode);
            cfg.fuel = 50_000_000;
            ops.push(Op {
                key: format!("{} {label}", case.id),
                case: Case::Spatial(i),
                cfg,
            });
        }
    }
    for alloc in AllocatorKind::ALL {
        for policy in TemporalPolicy::ALL {
            for (i, case) in tcases.iter().enumerate() {
                let mut cfg = VmConfig::with_mode(Mode::instrumented(alloc));
                cfg.fuel = 50_000_000;
                cfg.temporal = policy;
                ops.push(Op {
                    key: format!("{} {alloc}/{policy}", case.id),
                    case: Case::Temporal(i),
                    cfg,
                });
            }
        }
    }
    ops
}

impl Setup {
    /// Problems found while building the inputs.
    #[must_use]
    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    /// Builds every case and loads the references.
    #[must_use]
    pub fn build() -> Setup {
        let cases = all_cases();
        let tcases = temporal_cases();
        let ops = ops(&cases, &tcases);
        let mut errors = Vec::new();
        let mut refs = BTreeMap::new();
        for line in REFS.lines().filter(|l| !l.is_empty()) {
            let mut parts = line.splitn(3, '\t');
            match (parts.next(), parts.next(), parts.next()) {
                (Some(key), Some(verdict), Some(identity)) => {
                    refs.insert(key.to_string(), (verdict.to_string(), identity.to_string()));
                }
                _ => errors.push(format!("malformed juliet reference: {line}")),
            }
        }
        let mut setup = Setup {
            cases,
            tcases,
            ops,
            refs,
            errors,
        };
        setup.check_refs();
        setup
    }

    /// The pinned verdicts must agree with each case's ground truth, and
    /// the pinned identities with the golden snapshot.
    fn check_refs(&mut self) {
        if self.refs.len() != self.ops.len() {
            self.errors.push(format!(
                "{} juliet references for {} calls",
                self.refs.len(),
                self.ops.len()
            ));
        }
        for op in &self.ops {
            let Some((verdict, _)) = self.refs.get(&op.key) else {
                self.errors
                    .push(format!("no juliet reference for {}", op.key));
                continue;
            };
            // Full instrumentation must catch every bad spatial case, and
            // every enforcing policy every bad temporal case.
            let (kind, must_detect) = match op.case {
                Case::Spatial(i) => (
                    self.cases[i].kind,
                    matches!(
                        op.cfg.mode,
                        Mode::Instrumented {
                            no_promote: false,
                            ..
                        }
                    ),
                ),
                Case::Temporal(i) => (self.tcases[i].kind, op.cfg.temporal.enabled()),
            };
            let detects_at_baseline = op.cfg.mode == Mode::Baseline && verdict == "detected";
            let ok = match (kind, op.case) {
                (CaseKind::Good, _) => verdict == "completed",
                (CaseKind::Bad, _) if must_detect => verdict == "detected",
                (CaseKind::Bad, Case::Spatial(_)) => true,
                (CaseKind::Bad, Case::Temporal(_)) => verdict != "detected",
            };
            if !ok || detects_at_baseline {
                self.errors.push(format!(
                    "pinned verdict {verdict} contradicts the ground truth of {}",
                    op.key
                ));
            }
        }
        for (label, _) in &SPATIAL_MODES[1..3] {
            let mut ids = String::new();
            for case in &self.cases {
                let key = format!("{} {label}", case.id);
                let id = self.refs.get(&key).map_or("", |(_, id)| id.as_str());
                let _ = writeln!(ids, "{id}");
            }
            let line = format!(
                "juliet {label}: cases={} fnv={:#x}",
                self.cases.len(),
                fnv(ids.as_bytes())
            );
            if !GOLDEN.lines().any(|l| l == line) {
                self.errors.push(format!(
                    "pinned juliet identities disagree with the golden snapshot: {line}"
                ));
            }
        }
    }

    fn program(&self, op: &Op) -> &Program {
        match op.case {
            Case::Spatial(i) => &self.cases[i].program,
            Case::Temporal(i) => &self.tcases[i].program,
        }
    }

    /// Checks one call's verdict and trap identity against its reference.
    fn check(&self, op: &Op, r: &Result<RunResult, VmError>, out: &mut Outcome) {
        let (verdict, identity) = self.outcome(op, r);
        let ok = self.refs.get(&op.key) == Some(&(verdict.to_string(), identity));
        out.check_op(ok, || {
            format!("juliet {}: {verdict} differs from its reference", op.key)
        });
    }

    /// The verdict the juliet harness would give, and the golden
    /// snapshot's identity line for the call.
    fn outcome(&self, op: &Op, r: &Result<RunResult, VmError>) -> (&'static str, String) {
        let (id, want_kind): (&str, Option<TemporalKind>) = match op.case {
            Case::Spatial(i) => (&self.cases[i].id, None),
            Case::Temporal(i) => (&self.tcases[i].id, Some(self.tcases[i].cwe.kind())),
        };
        match r {
            Ok(r) => ("completed", format!("{id}:ok:{}", r.exit_code)),
            Err(VmError::Trap {
                trap, func, stats, ..
            }) => {
                let detected = match want_kind {
                    Some(want) => matches!(trap, Trap::Temporal { kind, .. } if *kind == want),
                    None => trap.is_safety_violation(),
                };
                let verdict = if detected {
                    "detected"
                } else {
                    "trapped_other"
                };
                (verdict, format!("{id}:{trap:?}:{func}:{}", stats.cycles))
            }
            Err(e) => ("errored", format!("{id}:err:{e}")),
        }
    }
}

/// The timed run: whole passes of 592 calls until the budget is spent.
pub fn timed(setup: &Setup, opts: &Opts, out: &mut Outcome) {
    let mut latency = crate::Latency::default();
    let mut pass_mips = Vec::new();
    let mut pass_rps = Vec::new();
    crate::repeat_for(opts.seconds, |pass| {
        let mut busy_s = 0.0;
        let mut instrs = 0u64;
        for i in shuffled(setup.ops.len(), opts.seed.wrapping_add(pass)) {
            let op = &setup.ops[i];
            let program = setup.program(op);
            let t = Instant::now();
            let r = ifp_vm::run(program, &op.cfg);
            let dt = t.elapsed().as_secs_f64();
            busy_s += dt;
            latency.record(dt * 1e6);
            instrs += crate::stats_of(&r).map_or(0, ifp_vm::RunStats::total_instrs);
            setup.check(op, &r, out);
        }
        pass_mips.push(instrs as f64 / busy_s / 1e6);
        pass_rps.push(setup.ops.len() as f64 / busy_s);
    });
    let passes = pass_mips.len();
    out.push_note(
        "sim_mips",
        iqm(&pass_mips),
        "Minstr/s",
        format!("interquartile mean of {passes} passes"),
    );
    out.push_note(
        "req_per_s",
        iqm(&pass_rps),
        "1/s",
        "ifp_vm::run calls".to_string(),
    );
    latency.push_metrics(out);
}

/// One untraced pass; returns its wall ms.
pub fn untraced_pass(setup: &Setup, seed: u64, out: &mut Outcome) -> f64 {
    let t0 = Instant::now();
    for i in shuffled(setup.ops.len(), seed) {
        let op = &setup.ops[i];
        let r = ifp_vm::run(setup.program(op), &op.cfg);
        setup.check(op, &r, out);
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// One traced pass: each call split into compile, host, load and run
/// spans, checked inside a `bench.check` span.
pub fn traced_pass(setup: &Setup, seed: u64, out: &mut Outcome) -> crate::TracedPass {
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    for (run, i) in shuffled(setup.ops.len(), seed).into_iter().enumerate() {
        let op = &setup.ops[i];
        rec.set_run(run as u64);
        let r = crate::traced_run(&mut rec, setup.program(op), &op.cfg);
        counts.add(&r);
        rec.time("bench.check", || setup.check(op, &r, out));
    }
    crate::TracedPass::finish(rec, counts, out)
}

/// The reference file's contents, captured from the current simulator.
#[must_use]
pub fn capture() -> String {
    let setup = Setup::build();
    let mut s = String::new();
    for op in &setup.ops {
        let r = ifp_vm::run(setup.program(op), &op.cfg);
        let (verdict, identity) = setup.outcome(op, &r);
        let _ = writeln!(s, "{}\t{verdict}\t{identity}", op.key);
    }
    s
}
