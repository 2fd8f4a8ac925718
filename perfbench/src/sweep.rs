//! `sweep`: the 18 Table-4 programs at their default scales under the
//! paper's five configurations through `ModeSweep::run`.
//!
//! Nearly all host time is in the run loop, and the working sets exceed
//! the 4 KiB modeled L1, so dispatch, memory, L1, promote, check and
//! allocator costs show here while per-run compile cost does not. The
//! seed only shuffles the order programs run in.

use crate::spans::Recorder;
use crate::{iqm, shuffled, stats_digest, Counts, Opts, Outcome};
use ifp::eval::{modes, sweep_l1, ModeSweep};
use ifp_compiler::Program;
use ifp_vm::{RunResult, RunStats, VmConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Pinned per-configuration results: the golden snapshot's line format
/// plus a digest of the whole `RunStats`.
const REFS: &str = include_str!("../refs/sweep.txt");

/// The repository's golden snapshot, read (never written) to cross-check
/// the pinned lines of the four programs it covers.
const GOLDEN: &str = include_str!("../../tests/golden_host_expected.txt");

/// Labels of [`modes`], in its order, as the golden snapshot spells them.
const LABELS: [&str; 5] = ["baseline", "subheap", "wrapped", "subheap-np", "wrapped-np"];

struct Ref {
    golden: String,
    digest: u64,
}

/// The sweep's inputs.
pub struct Setup {
    programs: Vec<(&'static str, Program)>,
    refs: BTreeMap<String, Ref>,
    errors: Vec<String>,
}

impl Setup {
    /// Problems found while building the inputs.
    #[must_use]
    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    /// Builds every program at its default scale and loads the references.
    #[must_use]
    pub fn build() -> Setup {
        let programs: Vec<_> = ifp_workloads::all()
            .iter()
            .map(|w| (w.name, w.build_default()))
            .collect();
        let mut errors = Vec::new();
        let mut refs = BTreeMap::new();
        for line in REFS.lines().filter(|l| !l.is_empty()) {
            let parsed = line.split_once(": ").zip(line.rsplit_once(" stats=0x"));
            let Some(((key, _), (golden, digest))) = parsed else {
                errors.push(format!("malformed sweep reference: {line}"));
                continue;
            };
            let Ok(digest) = u64::from_str_radix(digest, 16) else {
                errors.push(format!("malformed sweep digest: {line}"));
                continue;
            };
            let golden = golden.to_string();
            refs.insert(key.to_string(), Ref { golden, digest });
        }
        for line in GOLDEN.lines().filter(|l| !l.starts_with("juliet ")) {
            let key = line.split_once(": ").map_or(line, |(k, _)| k);
            if refs.get(key).map(|r| r.golden.as_str()) != Some(line) {
                errors.push(format!(
                    "pinned sweep line disagrees with the golden snapshot: {key}"
                ));
            }
        }
        if refs.len() != programs.len() * LABELS.len() {
            errors.push(format!("sweep references cover {} runs", refs.len()));
        }
        Setup {
            programs,
            refs,
            errors,
        }
    }
}

/// The golden snapshot's line format for one run.
fn golden_line(key: &str, r: &RunResult) -> String {
    let s = &r.stats;
    let out_sum: i64 = r
        .output
        .iter()
        .fold(0i64, |a, v| a.wrapping_mul(31).wrapping_add(*v));
    format!(
        "{key}: cycles={} instrs={} base={} promote={} arith={} bls={} \
         l1h={} l1m={} peak={} heap={} exit={} outsum={}",
        s.cycles,
        s.total_instrs(),
        s.base_instrs,
        s.promote_instrs,
        s.ifp_arith_instrs,
        s.bounds_ls_instrs,
        s.l1.hits,
        s.l1.misses,
        s.peak_resident,
        s.heap_footprint_peak,
        r.exit_code,
        out_sum
    )
}

fn config(i: usize) -> VmConfig {
    let mut cfg = VmConfig::with_mode(modes()[i]);
    cfg.l1 = sweep_l1();
    cfg
}

fn sweep_stats(s: &ModeSweep) -> [&RunStats; 5] {
    [
        &s.baseline,
        &s.subheap,
        &s.wrapped,
        &s.subheap_nopromote,
        &s.wrapped_nopromote,
    ]
}

/// One timed `ModeSweep::run` call, checked against the references.
/// Returns (host seconds, modeled instructions).
fn timed_op(setup: &Setup, i: usize, out: &mut Outcome) -> (f64, u64) {
    let (name, program) = &setup.programs[i];
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| ModeSweep::run(name, program)));
    let dt = t0.elapsed().as_secs_f64();
    let mut instrs = 0;
    let ok = match &result {
        Ok(Ok(sweep)) => sweep_stats(sweep).iter().zip(LABELS).all(|(s, label)| {
            instrs += s.total_instrs();
            setup.refs.get(&format!("{name} {label}")).map(|r| r.digest) == Some(stats_digest(s))
        }),
        _ => false,
    };
    out.check_op(ok, || {
        format!("sweep {name}: result differs from its reference")
    });
    (dt, instrs)
}

/// The timed run: whole passes over the programs until the budget is
/// spent. Throughput uses each program's [`iqm`] call time, so it does
/// not depend on which programs the last pass reached.
pub fn timed(setup: &Setup, opts: &Opts, out: &mut Outcome) {
    let n = setup.programs.len();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut instrs = vec![0u64; n];
    let mut latency = crate::Latency::default();
    crate::repeat_for(opts.seconds, |pass| {
        for i in shuffled(n, opts.seed.wrapping_add(pass)) {
            let (dt, ins) = timed_op(setup, i, out);
            times[i].push(dt);
            instrs[i] = ins;
            latency.record(dt * 1e6);
        }
    });
    let pass_s: f64 = times.iter().map(|t| iqm(t)).sum();
    let pass_instrs: u64 = instrs.iter().sum();
    out.push_note(
        "sim_mips",
        pass_instrs as f64 / pass_s / 1e6,
        "Minstr/s",
        format!("{pass_instrs} instrs per pass, {} passes", times[0].len()),
    );
    out.push_note(
        "req_per_s",
        (n * LABELS.len()) as f64 / pass_s,
        "1/s",
        "configuration runs".to_string(),
    );
    latency.push_metrics(out);
}

/// One untraced pass through the timed entry point; returns its wall ms.
pub fn untraced_pass(setup: &Setup, seed: u64, out: &mut Outcome) -> f64 {
    let t0 = Instant::now();
    for i in shuffled(setup.programs.len(), seed) {
        timed_op(setup, i, out);
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// One traced pass: each configuration run split into compile, host,
/// load and run spans, checked inside a `bench.check` span.
pub fn traced_pass(setup: &Setup, seed: u64, out: &mut Outcome) -> crate::TracedPass {
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    for (op, i) in shuffled(setup.programs.len(), seed).into_iter().enumerate() {
        let (name, program) = &setup.programs[i];
        let mut first_output: Option<Vec<i64>> = None;
        for (k, label) in LABELS.iter().enumerate() {
            rec.set_run((op * LABELS.len() + k) as u64);
            let r = crate::traced_run(&mut rec, program, &config(k));
            counts.add(&r);
            rec.time("bench.check", || {
                let key = format!("{name} {label}");
                let ok = match (&r, setup.refs.get(&key)) {
                    (Ok(r), Some(want)) => {
                        let same_output =
                            first_output.get_or_insert_with(|| r.output.clone()) == &r.output;
                        same_output
                            && golden_line(&key, r) == want.golden
                            && stats_digest(&r.stats) == want.digest
                    }
                    _ => false,
                };
                out.check_op(ok, || {
                    format!("sweep {key}: traced result differs from its reference")
                });
            });
        }
    }
    crate::TracedPass::finish(rec, counts, out)
}

/// The reference file's contents, captured from the current simulator.
///
/// # Panics
///
/// Panics if a run fails or the five outputs of a program differ.
#[must_use]
pub fn capture() -> String {
    let mut s = String::new();
    for w in ifp_workloads::all() {
        let (name, program) = (w.name, w.build_default());
        let mut first: Option<Vec<i64>> = None;
        for (k, label) in LABELS.iter().enumerate() {
            let r = ifp_vm::run(&program, &config(k)).expect("workload runs");
            assert_eq!(first.get_or_insert_with(|| r.output.clone()), &r.output);
            let key = format!("{name} {label}");
            let _ = writeln!(
                s,
                "{} stats={:#x}",
                golden_line(&key, &r),
                stats_digest(&r.stats)
            );
        }
    }
    s
}
