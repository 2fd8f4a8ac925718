//! Host-throughput benchmark of the In-Fat Pointer simulator.
//!
//! Three workloads (`sweep`, `juliet`, `serve`) each build their inputs,
//! time the user-level entry points (`ifp::eval::ModeSweep::run`,
//! `ifp_vm::run`, `ifp_serve::run_service`) for a fixed host-time budget,
//! and check every modeled result against references pinned in
//! `refs/`. A separate traced run replaces each entry point with the
//! public calls it is made of, records a span around each
//! ([`spans::Recorder`]), and reports per-layer self times, the modeled
//! counts the simulator already keeps, and isolated per-call probes.

#![forbid(unsafe_code)]

pub mod juliet;
pub mod probes;
pub mod serve;
pub mod spans;
pub mod sweep;

use ifp_compiler::Program;
use ifp_vm::{compile_artifact, RunResult, RunStats, Vm, VmConfig, VmError, VmHost};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use spans::Recorder;

/// Times each workload's set-up this many times per run; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 15;

/// Command-line options shared by every workload.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Input seed: shuffles run order (sweep, juliet) or seeds the
    /// request stream (serve).
    pub seed: u64,
    /// Host-time budget of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Context printed beside the value (sample counts).
    pub note: String,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (entry-point calls, or traced replays).
    pub attempted: u64,
    /// Operations whose verdict, output or digest missed its reference,
    /// or that errored unexpectedly.
    pub failed: u64,
    /// Check failures that are not tied to one operation (reference
    /// cross-checks, span consistency, determinism).
    pub errors: Vec<String>,
    /// Reported metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Adds a metric with no note.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.push_note(name, value, unit, String::new());
    }

    /// Adds a metric with a note.
    pub fn push_note(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// Records one operation's check result.
    pub fn check_op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 16 {
                self.errors.push(what());
            }
        }
    }

    /// Records a check failure not tied to one operation.
    pub fn error(&mut self, msg: String) {
        self.errors.push(msg);
    }

    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Failed over attempted operations.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The final machine-readable line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// A human-readable table of the metrics.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "{:<28} {:>18} {:<8} {}",
                m.name,
                fmt_value(m.value),
                m.unit,
                m.note
            );
        }
        if !self.metrics.iter().any(|m| m.name == "error_rate") {
            let _ = writeln!(
                s,
                "{:<28} {:>18} {:<8} {}",
                "error_rate",
                fmt_value(self.error_rate()),
                "ratio",
                self.operations()
            );
        }
        s
    }

    /// "failed X of Y operations".
    #[must_use]
    pub fn operations(&self) -> String {
        format!("failed {} of {} operations", self.failed, self.attempted)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// Median of `xs` (0 for an empty slice).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Interquartile mean: the mean of the middle half of `xs` once sorted,
/// or the median of fewer than four values. Host speed on a shared
/// machine switches between levels for seconds at a time. A median snaps
/// to whichever level held longest in a run; this blends the levels and
/// still drops the outliers.
#[must_use]
pub fn iqm(xs: &[f64]) -> f64 {
    if xs.len() < 4 {
        return median(xs);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = &v[v.len() / 4..v.len() - v.len() / 4];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Nearest-rank percentile of `xs` (0 for an empty slice).
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// FNV-1a over `bytes`.
#[must_use]
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Digest of a whole [`RunStats`] struct (its `Debug` rendering).
#[must_use]
pub fn stats_digest(stats: &RunStats) -> u64 {
    fnv(format!("{stats:?}").as_bytes())
}

/// `0..n` in an order drawn from `seed`.
#[must_use]
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = ifp_testutil::Rng::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.range_usize(0, i + 1));
    }
    order
}

/// Builds a workload's inputs [`SETUP_REPS`] times, returning the last
/// build and the median build time in seconds.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Calls `f` with 0, 1, 2, … while one more call is expected to fit in
/// `seconds` at the mean call time so far; always calls it once.
pub fn repeat_for(seconds: f64, mut f: impl FnMut(u64)) {
    let t0 = Instant::now();
    for i in 0u64.. {
        f(i);
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed + elapsed / (i + 1) as f64 > seconds {
            break;
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The statistics a run produced, on the success and the trap path.
#[must_use]
pub fn stats_of(r: &Result<RunResult, VmError>) -> Option<&RunStats> {
    match r {
        Ok(r) => Some(&r.stats),
        Err(VmError::Trap { stats, .. }) => Some(stats),
        Err(_) => None,
    }
}

/// `ifp_vm::run`, split into the public calls it is made of, with a
/// span around each: compile, host construction, image load, run loop.
///
/// # Errors
///
/// Whatever the run returns.
pub fn traced_run(
    rec: &mut Recorder,
    program: &Program,
    cfg: &VmConfig,
) -> Result<RunResult, VmError> {
    let artifact = Arc::new(rec.time("vm.compile", || compile_artifact(program, cfg))?);
    let host = rec.time("vm.host", || VmHost::with_l1(cfg.l1));
    let vm = rec.time("vm.load", || {
        Vm::with_artifact(program, cfg, &artifact, host)
    });
    rec.time("vm.run", || vm.run())
}

/// Modeled counts summed over the runs of a traced pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Runs that ended in a trap.
    pub trap_runs: u64,
    /// Modeled instructions.
    pub instrs: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// Largest per-run peak resident size, bytes.
    pub peak_resident: u64,
    /// `promote` instructions.
    pub promotes: u64,
    /// Promotes that looked metadata up.
    pub promotes_valid: u64,
    /// Promotes that requested subobject narrowing.
    pub narrow_requested: u64,
    /// `ldbnd`/`stbnd` instructions.
    pub bounds_ls: u64,
    /// In-Fat Pointer arithmetic instructions.
    pub ifp_arith: u64,
    /// Heap allocations.
    pub heap_allocs: u64,
    /// Heap frees.
    pub heap_frees: u64,
    /// Temporal checks.
    pub temporal_checks: u64,
    /// Temporal violations.
    pub temporal_violations: u64,
    /// Checked dereferences under an elision plan.
    pub checks_total: u64,
    /// Of those, checks statically elided.
    pub checks_elided: u64,
}

impl Counts {
    /// Folds in one run's result.
    pub fn add(&mut self, r: &Result<RunResult, VmError>) {
        if matches!(r, Err(VmError::Trap { .. })) {
            self.trap_runs += 1;
        }
        let Some(s) = stats_of(r) else { return };
        self.instrs += s.total_instrs();
        self.l1_hits += s.l1.hits;
        self.l1_misses += s.l1.misses;
        self.peak_resident = self.peak_resident.max(s.peak_resident);
        self.promotes += s.promotes.total;
        self.promotes_valid += s.promotes.valid;
        self.narrow_requested += s.promotes.narrow_requested;
        self.bounds_ls += s.bounds_ls_instrs;
        self.ifp_arith += s.ifp_arith_instrs;
        self.heap_allocs += s.heap_allocs;
        self.heap_frees += s.heap_frees;
        self.temporal_checks += s.temporal.checks;
        self.temporal_violations += s.temporal.violations;
        self.checks_total += s.elision.checks_total;
        self.checks_elided += s.elision.checks_elided;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced-pass layer metrics shared by every workload: vm span self
/// times, modeled counts, and the benchmark's own bookkeeping.
pub fn push_layer_metrics(out: &mut Outcome, s: &spans::Summary, c: &Counts, untraced_ms: f64) {
    let wall_ms = s.wall_ns as f64 / 1e6;
    out.push("vm.compile.self_ms", s.self_ms("vm.compile"), "ms");
    out.push("vm.compile.calls", s.calls("vm.compile") as f64, "count");
    out.push("vm.host.self_ms", s.self_ms("vm.host"), "ms");
    out.push("vm.load.self_ms", s.self_ms("vm.load"), "ms");
    out.push("vm.run.self_ms", s.self_ms("vm.run"), "ms");
    out.push(
        "vm.run.ns_per_instr",
        s.self_ms("vm.run") * 1e6 / c.instrs.max(1) as f64,
        "ns",
    );
    out.push("vm.trap_runs", c.trap_runs as f64, "count");
    out.push("bench.check.self_ms", s.self_ms("bench.check"), "ms");
    out.push("unattributed_ms", s.unattributed_ns as f64 / 1e6, "ms");
    out.push_note(
        "trace_overhead",
        wall_ms / untraced_ms,
        "ratio",
        format!("traced {wall_ms:.1} ms / untraced {untraced_ms:.1} ms"),
    );
    out.push("mem.l1_accesses", (c.l1_hits + c.l1_misses) as f64, "count");
    out.push("mem.l1_misses", c.l1_misses as f64, "count");
    out.push(
        "mem.l1_hit_ratio",
        ratio(c.l1_hits, c.l1_hits + c.l1_misses),
        "ratio",
    );
    out.push(
        "mem.peak_resident_kb",
        c.peak_resident as f64 / 1024.0,
        "KiB",
    );
    out.push("hw.promotes", c.promotes as f64, "count");
    out.push(
        "hw.promote_valid_ratio",
        ratio(c.promotes_valid, c.promotes),
        "ratio",
    );
    out.push("meta.narrow_requested", c.narrow_requested as f64, "count");
    out.push("hw.bounds_ls_instrs", c.bounds_ls as f64, "count");
    out.push("hw.ifp_arith_instrs", c.ifp_arith as f64, "count");
    out.push("alloc.heap_allocs", c.heap_allocs as f64, "count");
    out.push("alloc.heap_frees", c.heap_frees as f64, "count");
    out.push("temporal.checks", c.temporal_checks as f64, "count");
    out.push("temporal.violations", c.temporal_violations as f64, "count");
    out.push(
        "analyze.elided_ratio",
        ratio(c.checks_elided, c.checks_total),
        "ratio",
    );
}

/// Every per-layer metric a traced run prints, in order.
pub const PER_LAYER: &[&str] = &[
    "vm.compile.self_ms",
    "vm.compile.calls",
    "vm.host.self_ms",
    "vm.load.self_ms",
    "vm.run.self_ms",
    "vm.run.ns_per_instr",
    "vm.trap_runs",
    "bench.check.self_ms",
    "unattributed_ms",
    "trace_overhead",
    "mem.l1_accesses",
    "mem.l1_misses",
    "mem.l1_hit_ratio",
    "mem.peak_resident_kb",
    "hw.promotes",
    "hw.promote_valid_ratio",
    "meta.narrow_requested",
    "hw.bounds_ls_instrs",
    "hw.ifp_arith_instrs",
    "alloc.heap_allocs",
    "alloc.heap_frees",
    "temporal.checks",
    "temporal.violations",
    "analyze.elided_ratio",
    "serve.program_set.self_ms",
    "serve.generate.self_ms",
    "serve.run_service.self_ms",
    "serve.replay.vm_ms",
    "serve.replay.juliet_vm_ms",
    "serve.replay.temporal_vm_ms",
    "serve.replay.workload_vm_ms",
    "serve.shed_ratio",
    "mem.l1_access_ns",
    "mem.read_ns",
    "hw.promote_ns",
    "alloc.wrapped_malloc_free_ns",
    "alloc.subheap_malloc_free_ns",
    "temporal.check_ns",
    "compiler.validate_us",
    "analyze.instr_plan_us",
    "error_rate",
];

/// Every end-to-end metric an untraced run prints, in order.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "sim_mips",
    "req_per_s",
    "run_us_p50",
    "run_us_p99",
    "peak_rss_mb",
];

/// Per-call latencies in µs, summarised chunk by chunk so memory stays
/// bounded however many calls a run makes. Each full chunk yields its
/// own p50 and p99 (a chunk of [`Latency::CHUNK`] leaves 12 samples above
/// its p99); the run reports the [`iqm`] over chunks. A run with fewer
/// calls than a chunk reports the percentiles of all its calls.
#[derive(Default)]
pub struct Latency {
    buf: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    calls: u64,
}

impl Latency {
    /// Samples per chunk.
    pub const CHUNK: usize = 1200;

    /// Records one call.
    pub fn record(&mut self, us: f64) {
        if self.buf.capacity() == 0 {
            self.buf.reserve_exact(Self::CHUNK);
        }
        self.buf.push(us);
        self.calls += 1;
        if self.buf.len() == Self::CHUNK {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.p50.push(percentile(&self.buf, 50.0));
        self.p99.push(percentile(&self.buf, 99.0));
        self.buf.clear();
    }

    /// Pushes `run_us_p50` and `run_us_p99`, with the sample count.
    pub fn push_metrics(mut self, out: &mut Outcome) {
        if self.p50.is_empty() {
            self.flush();
        }
        let note = if self.p50.len() > 1 {
            format!(
                "n={}, interquartile mean of {} chunks of {}",
                self.calls,
                self.p50.len(),
                Self::CHUNK
            )
        } else {
            format!("n={}", self.calls)
        };
        out.push_note("run_us_p50", iqm(&self.p50), "us", note.clone());
        out.push_note("run_us_p99", iqm(&self.p99), "us", note);
    }
}

/// What one traced pass hands back.
pub struct TracedPass {
    /// Folded spans (`None` when the recording was inconsistent; the
    /// error is already recorded).
    pub summary: Option<spans::Summary>,
    /// Modeled counts of the pass.
    pub counts: Counts,
    /// Workload-specific layer metrics of the pass.
    pub extra: Vec<Metric>,
}

impl TracedPass {
    /// Ends `rec`'s window, recording any span inconsistency in `out`.
    pub fn finish(rec: Recorder, counts: Counts, out: &mut Outcome) -> TracedPass {
        let summary = rec.finish().map_err(|e| out.error(e)).ok();
        TracedPass {
            summary,
            counts,
            extra: Vec::new(),
        }
    }
}

/// The traced run: alternates an untraced pass (for `trace_overhead`)
/// with a traced pass until the budget is spent, at least once each.
/// Span times are medians over the traced passes; modeled counts must
/// repeat exactly from pass to pass.
pub fn trace_runs(
    opts: &Opts,
    out: &mut Outcome,
    mut untraced: impl FnMut(u64, &mut Outcome) -> f64,
    mut traced: impl FnMut(u64, &mut Outcome) -> TracedPass,
) {
    let mut passes: Vec<Vec<Metric>> = Vec::new();
    let mut first: Option<Counts> = None;
    repeat_for(opts.seconds, |pass| {
        let untraced_ms = untraced(pass, out);
        let tp = traced(pass, out);
        match &first {
            Some(c) if *c != tp.counts => {
                out.error("modeled counts differ between traced passes".into())
            }
            Some(_) => {}
            None => first = Some(tp.counts.clone()),
        }
        if let Some(s) = &tp.summary {
            let mut m = Outcome::default();
            push_layer_metrics(&mut m, s, &tp.counts, untraced_ms);
            m.metrics.extend(tp.extra);
            passes.push(m.metrics);
        }
    });
    let Some(head) = passes.first() else { return };
    for (j, m) in head.iter().enumerate() {
        let values: Vec<f64> = passes.iter().map(|p| p[j].value).collect();
        let note = if passes.len() > 1 {
            format!("median of {} traced passes", passes.len())
        } else {
            m.note.clone()
        };
        out.push_note(m.name, median(&values), m.unit, note);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(iqm(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(iqm(&[100.0, 2.0, 3.0, 0.0, 2.0, 3.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn latency_chunks_bound_memory_and_keep_percentiles() {
        let mut few = Latency::default();
        (1..=100).for_each(|v| few.record(f64::from(v)));
        let mut out = Outcome::default();
        few.push_metrics(&mut out);
        assert_eq!(out.metrics[1].value, 99.0);

        let mut many = Latency::default();
        for _ in 0..5 {
            (1..=1200).for_each(|v| many.record(f64::from(v)));
        }
        assert!(many.buf.capacity() <= Latency::CHUNK);
        let mut out = Outcome::default();
        many.push_metrics(&mut out);
        assert_eq!(
            (out.metrics[0].value, out.metrics[1].value),
            (600.0, 1188.0)
        );
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(50, 9);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(a, shuffled(50, 9));
        assert_ne!(a, shuffled(50, 10));
    }
}
