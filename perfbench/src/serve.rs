//! `serve`: `run_service` over the standard four tenants, with the
//! benchmark seed as the request-stream seed and every other
//! `ServeConfig` field at its default (workers included).
//!
//! The service reuses the run loop differently from the batch workloads:
//! pooled hosts reset in place instead of fresh construction, elided
//! checks on one tenant in five, temporal checks and trace rings on the
//! hardened tenants.

use crate::spans::Recorder;
use crate::{median, Counts, Metric, Opts, Outcome};
use ifp_compiler::Program;
use ifp_serve::{
    generate_requests, run_service, standard_tenants, ProgramSet, ReqKind, Request, ServeConfig,
    ServeReport, Tenant,
};
use ifp_vm::{RunResult, VmError};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Requests per `run_service` call.
pub const REQUESTS: u64 = 8192;

/// Requests of the small service run that stands in for the serve layer
/// in the traced runs of the other workloads.
const PROBE_REQUESTS: u64 = 64;

/// Pinned modeled result of every program under every tenant's config:
/// `<tenant> <program>\t<instrs>\t<outcome>`.
const REFS: &str = include_str!("../refs/serve.txt");

/// The serve workload's inputs.
pub struct Setup {
    cfg: ServeConfig,
    tenants: Vec<Tenant>,
    set: ProgramSet,
    /// `<tenant> <program>` → (instrs, outcome).
    refs: BTreeMap<String, (u64, String)>,
    /// Modeled instructions of every generated request.
    offered_instrs: u64,
    errors: Vec<String>,
}

impl Setup {
    /// Builds the program set and the request stream for `seed`, and
    /// loads the references.
    #[must_use]
    pub fn build(seed: u64, requests: u64) -> Setup {
        let cfg = ServeConfig {
            seed,
            requests,
            ..ServeConfig::default()
        };
        let tenants = standard_tenants();
        let set = ProgramSet::build();
        let requests = generate_requests(&cfg, &tenants);
        let mut errors = Vec::new();
        let mut refs = BTreeMap::new();
        for line in REFS.lines().filter(|l| !l.is_empty()) {
            let mut parts = line.splitn(3, '\t');
            match (
                parts.next(),
                parts.next().and_then(|v| v.parse().ok()),
                parts.next(),
            ) {
                (Some(key), Some(instrs), Some(outcome)) => {
                    refs.insert(key.to_string(), (instrs, outcome.to_string()));
                }
                _ => errors.push(format!("malformed serve reference: {line}")),
            }
        }
        let mut setup = Setup {
            cfg,
            tenants,
            set,
            refs,
            offered_instrs: 0,
            errors,
        };
        for r in &requests {
            match setup.refs.get(&setup.key(r)) {
                Some(&(instrs, _)) => setup.offered_instrs += instrs,
                None => setup
                    .errors
                    .push(format!("no serve reference for {}", setup.key(r))),
            }
        }
        setup
    }

    /// Problems found while building the inputs.
    #[must_use]
    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    fn key(&self, r: &Request) -> String {
        format!("{} {}", self.tenants[r.tenant].name, self.set.label(r.kind))
    }

    /// Checks one service report: nothing unexpected, nothing leaked,
    /// and (when given) the same bytes as an earlier report.
    fn check_report(&self, report: &ServeReport, want: Option<&str>, out: &mut Outcome) -> String {
        let bytes = report.to_json();
        out.attempted += report.config.requests;
        out.failed += report.unexpected();
        if report.unexpected() > 0 {
            out.error(format!(
                "serve: {} unexpected outcomes",
                report.unexpected()
            ));
        }
        if report.shards.iter().any(|s| s.pool_leaked_rows > 0) {
            out.error("serve: pooled hosts leaked global-table rows".into());
        }
        if want.is_some_and(|w| w != bytes) {
            out.error("serve: report bytes differ between runs of the same stream".into());
        }
        bytes
    }

    /// Checks one replayed request against its pinned result.
    fn check_replay(&self, req: &Request, r: &Result<RunResult, VmError>, out: &mut Outcome) {
        let key = self.key(req);
        let got = (
            crate::stats_of(r).map_or(0, ifp_vm::RunStats::total_instrs),
            outcome(r).to_string(),
        );
        let ok = self.refs.get(&key) == Some(&got);
        out.check_op(ok, || {
            format!("serve replay {key}: differs from its reference")
        });
    }
}

fn program(set: &ProgramSet, kind: ReqKind) -> &Program {
    match kind {
        ReqKind::Juliet(i) => &set.juliet[i].program,
        ReqKind::Temporal(i) => &set.temporal[i].program,
        ReqKind::Workload(i) => &set.workloads[i].1,
    }
}

fn outcome(r: &Result<RunResult, VmError>) -> &'static str {
    match r {
        Ok(_) => "completed",
        Err(VmError::Trap { .. }) => "trapped",
        Err(_) => "errored",
    }
}

/// The timed run: `run_service` calls over the same stream until the
/// budget is spent; throughput uses the median call.
pub fn timed(setup: &Setup, opts: &Opts, out: &mut Outcome) {
    let mut first: Option<String> = None;
    let mut latency = crate::Latency::default();
    let mut call_s = Vec::new();
    crate::repeat_for(opts.seconds, |_| {
        let t = Instant::now();
        let report = run_service(&setup.cfg);
        let dt = t.elapsed().as_secs_f64();
        call_s.push(dt);
        latency.record(dt * 1e6);
        let bytes = setup.check_report(&report, first.as_deref(), out);
        first.get_or_insert(bytes);
    });
    let call = median(&call_s);
    out.push_note(
        "sim_mips",
        setup.offered_instrs as f64 / call / 1e6,
        "Minstr/s",
        format!(
            "{} offered instrs per call, median of {} calls",
            setup.offered_instrs,
            call_s.len()
        ),
    );
    out.push_note(
        "req_per_s",
        setup.cfg.requests as f64 / call,
        "1/s",
        format!("{} requests per call", setup.cfg.requests),
    );
    latency.push_metrics(out);
}

/// One untraced pass doing the traced pass's work through the plain
/// entry points; returns its wall ms and the service report's bytes.
pub fn untraced_pass(setup: &Setup, out: &mut Outcome) -> (f64, String) {
    let t0 = Instant::now();
    let set = ProgramSet::build();
    let requests = generate_requests(&setup.cfg, &setup.tenants);
    let report = run_service(&setup.cfg);
    let bytes = setup.check_report(&report, None, out);
    for req in &requests {
        let r = ifp_vm::run(
            program(&set, req.kind),
            &setup.tenants[req.tenant].vm_config(),
        );
        setup.check_replay(req, &r, out);
    }
    (t0.elapsed().as_secs_f64() * 1e3, bytes)
}

/// One traced pass: program-set build, request generation and the
/// service run as spans, then every generated request replayed under its
/// tenant's config through the traced vm calls.
pub fn traced_pass(setup: &Setup, want: Option<&str>, out: &mut Outcome) -> crate::TracedPass {
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    let set = rec.time("serve.program_set", ProgramSet::build);
    let requests = rec.time("serve.generate", || {
        generate_requests(&setup.cfg, &setup.tenants)
    });
    let report = rec.time("serve.run_service", || run_service(&setup.cfg));
    rec.time("bench.check", || setup.check_report(&report, want, out));
    let replay = rec.enter("serve.replay");
    for req in &requests {
        rec.set_run(req.id);
        let cfg = setup.tenants[req.tenant].vm_config();
        let r = crate::traced_run(&mut rec, program(&set, req.kind), &cfg);
        counts.add(&r);
        rec.time("bench.check", || setup.check_replay(req, &r, out));
    }
    rec.exit(replay);

    // Replayed vm time by request kind, from the spans' run ids.
    let mut vm_ns = [0u64; 3];
    for s in rec.spans().iter().filter(|s| s.name.starts_with("vm.")) {
        let k = match requests[s.run as usize].kind {
            ReqKind::Juliet(_) => 0,
            ReqKind::Temporal(_) => 1,
            ReqKind::Workload(_) => 2,
        };
        vm_ns[k] += s.end_ns - s.start_ns;
    }
    let mut tp = crate::TracedPass::finish(rec, counts, out);
    let ms = |ns: u64| ns as f64 / 1e6;
    let (program_set, generate, service) = tp.summary.as_ref().map_or((0.0, 0.0, 0.0), |s| {
        (
            s.self_ms("serve.program_set"),
            s.self_ms("serve.generate"),
            s.self_ms("serve.run_service"),
        )
    });
    let shed = report.shed as f64 / report.config.requests as f64;
    tp.extra = [
        ("serve.program_set.self_ms", program_set, "ms"),
        ("serve.generate.self_ms", generate, "ms"),
        ("serve.run_service.self_ms", service, "ms"),
        ("serve.replay.vm_ms", ms(vm_ns.iter().sum()), "ms"),
        ("serve.replay.juliet_vm_ms", ms(vm_ns[0]), "ms"),
        ("serve.replay.temporal_vm_ms", ms(vm_ns[1]), "ms"),
        ("serve.replay.workload_vm_ms", ms(vm_ns[2]), "ms"),
        ("serve.shed_ratio", shed, "ratio"),
    ]
    .into_iter()
    .map(|(name, value, unit)| Metric {
        name,
        value,
        unit,
        note: String::new(),
    })
    .collect();
    tp
}

/// The traced run of the serve workload: untraced and traced passes
/// alternate; the traced service report must match the untraced one.
pub fn trace(setup: &Setup, opts: &Opts, out: &mut Outcome) {
    let reference = RefCell::new(None::<String>);
    crate::trace_runs(
        opts,
        out,
        |_, out| {
            let (ms, bytes) = untraced_pass(setup, out);
            *reference.borrow_mut() = Some(bytes);
            ms
        },
        |_, out| traced_pass(setup, reference.borrow().as_deref(), out),
    );
}

/// The serve-layer metrics for the traced runs of the other workloads,
/// from one small traced service run outside their traced window.
pub fn push_probe(seed: u64, out: &mut Outcome) {
    let setup = Setup::build(seed, PROBE_REQUESTS);
    out.errors.extend(setup.errors().iter().cloned());
    let tp = traced_pass(&setup, None, out);
    for m in tp.extra {
        let note = format!("{PROBE_REQUESTS}-request probe");
        out.push_note(m.name, m.value, m.unit, note);
    }
}

/// The reference file's contents, captured from the current simulator.
#[must_use]
pub fn capture() -> String {
    let set = ProgramSet::build();
    let mut kinds: Vec<ReqKind> = (0..set.juliet.len()).map(ReqKind::Juliet).collect();
    kinds.extend((0..set.temporal.len()).map(ReqKind::Temporal));
    kinds.extend((0..set.workloads.len()).map(ReqKind::Workload));
    let mut s = String::new();
    for t in standard_tenants() {
        for &kind in &kinds {
            let r = ifp_vm::run(program(&set, kind), &t.vm_config());
            let instrs = crate::stats_of(&r).map_or(0, ifp_vm::RunStats::total_instrs);
            let _ = writeln!(
                s,
                "{} {}\t{instrs}\t{}",
                t.name,
                set.label(kind),
                outcome(&r)
            );
        }
    }
    s
}
