//! Host-side benchmark driver.
//!
//! Usage: `cargo run --release --bin bench -- host [--quick]
//! [--cache off|warm|both] [--out PATH]`
//!
//! The `host` mode measures **simulator throughput on the host** — how
//! fast the reproduction executes modeled instructions — over three
//! fixed suites, and emits one JSON measurement per suite:
//!
//! * `juliet_spatial` — every generated Juliet-style case under the four
//!   spatial modes (baseline, wrapped, subheap, subheap/no-promote),
//!   repeated for a stable wall-clock. Dominated by `Vm::new` setup cost.
//! * `workloads_sweep` — the Table-4 sweep (18 workloads × 5 configs).
//!   Dominated by steady-state interpreter dispatch.
//! * `temporal_matrix` — the temporal suite × 2 allocators × 4 policies.
//!
//! The modeled columns (`modeled_instrs`, `modeled_cycles`, and the
//! `elision_rate` fraction of dynamic checks the static plan discharges
//! on the subheap configuration) are simulation outputs and must be
//! identical run to run and machine to machine; only `wall_ms` /
//! `instrs_per_sec` measure the host. The
//! checked-in `BENCH_host.json` keeps a trajectory of these measurements
//! across optimization work (see the README's Performance section).
//!
//! `--quick` shrinks the rep counts for CI smoke runs (the modeled
//! columns then differ from full runs — compare like with like).
//! `--cache warm` runs every suite through a pre-warmed shared
//! `PlanCache` (compile amortized out of the timed loop); `both` runs
//! each suite cache-off then cache-warm and asserts the modeled columns
//! never move. Each entry carries a `"cache"` key (`"off"`/`"warm"`).
//! `--out PATH` writes the JSON to a file instead of stdout.
//!
//! The `serve` mode runs the `ifp-serve` multi-tenant service
//! simulation and emits its byte-deterministic JSON report (pinned in
//! `BENCH_serve.json`); unlike `host`, nothing in that report measures
//! the host — wall-clock goes to stderr only. `--quick` uses the CI
//! smoke size (2,048 requests); `--requests/--seed/--workers/--shards`
//! override the pinned defaults, `--jsonl PATH` writes the trap-trace
//! sink for the `ifp-trace` summarizer, and `--plan-cache` shares one
//! artifact cache across every shard (report bytes unchanged — only the
//! stderr wall-clock advisory moves).

use ifp_juliet::{all_cases, temporal_cases};
use ifp_plancache::PlanCache;
use ifp_temporal::TemporalPolicy;
use ifp_vm::{run, AllocatorKind, Mode, VmConfig, VmError};
use std::fmt::Write as _;
use std::time::Instant;

/// One suite's measurement.
struct SuiteResult {
    suite: &'static str,
    /// `"off"` or `"warm"`: whether the suite ran through a pre-warmed
    /// artifact cache. Modeled columns are identical either way
    /// (asserted by the golden gate); only `wall_ms` moves.
    cache: &'static str,
    wall_ms: f64,
    modeled_instrs: u64,
    modeled_cycles: u64,
    /// Fraction of dynamic checked dereferences the static elision plan
    /// discharges when the subheap configuration reruns with
    /// `elide_checks` on. A modeled column (deterministic), measured
    /// outside the timed loop.
    elision_rate: f64,
}

impl SuiteResult {
    fn instrs_per_sec(&self) -> u64 {
        if self.wall_ms <= 0.0 {
            return 0;
        }
        (self.modeled_instrs as f64 / (self.wall_ms / 1e3)) as u64
    }
}

/// Modeled (instrs, cycles) of one run; traps report the stats up to the
/// trap, non-trap errors (expected for some temporal-policy/case
/// combinations) contribute nothing.
fn stats_of(
    program: &ifp_compiler::Program,
    cfg: &VmConfig,
    cache: Option<&PlanCache>,
) -> (u64, u64) {
    let result = match cache {
        Some(c) => c.run(program, cfg),
        None => run(program, cfg),
    };
    match result {
        Ok(r) => (r.stats.total_instrs(), r.stats.cycles),
        Err(VmError::Trap { stats, .. }) => (stats.total_instrs(), stats.cycles),
        Err(_) => (0, 0),
    }
}

fn cache_label(cache: Option<&PlanCache>) -> &'static str {
    if cache.is_some() {
        "warm"
    } else {
        "off"
    }
}

/// Aggregate check-elision rate over `programs`: one untimed subheap run
/// each with `elide_checks` on, summing elided over total checked
/// dereferences. Traps (expected for bad Juliet cases) contribute their
/// up-to-trap counts.
fn elision_rate_of<'a>(programs: impl Iterator<Item = &'a ifp_compiler::Program>) -> f64 {
    let mut total = 0u64;
    let mut elided = 0u64;
    for program in programs {
        let mut cfg = VmConfig::with_mode(Mode::instrumented(AllocatorKind::Subheap));
        cfg.fuel = 50_000_000;
        cfg.elide_checks = true;
        let stats = match run(program, &cfg) {
            Ok(r) => Some(r.stats),
            Err(VmError::Trap { stats, .. }) => Some(*stats),
            Err(_) => None,
        };
        if let Some(s) = stats {
            total += s.elision.checks_total;
            elided += s.elision.checks_elided;
        }
    }
    if total == 0 {
        0.0
    } else {
        elided as f64 / total as f64
    }
}

fn juliet_spatial(reps: u32, cache: Option<&PlanCache>) -> SuiteResult {
    let spatial_modes = [
        Mode::Baseline,
        Mode::instrumented(AllocatorKind::Wrapped),
        Mode::instrumented(AllocatorKind::Subheap),
        Mode::Instrumented {
            allocator: AllocatorKind::Subheap,
            no_promote: true,
        },
    ];
    let cases = all_cases();
    // Warm the cache before the clock starts: the timed loop then
    // measures execution with compile amortized away, which is exactly
    // the steady state a long-lived service sees.
    if let Some(c) = cache {
        for case in &cases {
            for mode in spatial_modes {
                let mut cfg = VmConfig::with_mode(mode);
                cfg.fuel = 50_000_000;
                let _ = c.artifact(&case.program, &cfg);
            }
        }
    }
    let t0 = Instant::now();
    let mut instrs = 0u64;
    let mut cycles = 0u64;
    for _rep in 0..reps {
        for case in &cases {
            for mode in spatial_modes {
                let mut cfg = VmConfig::with_mode(mode);
                cfg.fuel = 50_000_000;
                let (i, c) = stats_of(&case.program, &cfg, cache);
                instrs += i;
                cycles += c;
            }
        }
    }
    SuiteResult {
        suite: "juliet_spatial",
        cache: cache_label(cache),
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        modeled_instrs: instrs,
        modeled_cycles: cycles,
        elision_rate: elision_rate_of(cases.iter().map(|c| &c.program)),
    }
}

fn workloads_sweep(quick: bool, cache: Option<&PlanCache>) -> SuiteResult {
    let mut workloads = ifp_workloads::all();
    if quick {
        workloads.truncate(4);
    }
    let programs: Vec<_> = workloads.iter().map(|w| w.build_default()).collect();
    if let Some(c) = cache {
        for program in &programs {
            for mode in ifp::eval::modes() {
                let mut cfg = VmConfig::with_mode(mode);
                cfg.l1 = ifp::eval::sweep_l1();
                let _ = c.artifact(program, &cfg);
            }
        }
    }
    let t0 = Instant::now();
    let mut instrs = 0u64;
    let mut cycles = 0u64;
    for (w, program) in workloads.iter().zip(&programs) {
        let sweep = ifp::eval::ModeSweep::run_cached(w.name, program, cache)
            .expect("workload sweeps clean");
        for s in [
            &sweep.baseline,
            &sweep.subheap,
            &sweep.wrapped,
            &sweep.subheap_nopromote,
            &sweep.wrapped_nopromote,
        ] {
            instrs += s.total_instrs();
            cycles += s.cycles;
        }
    }
    SuiteResult {
        suite: "workloads_sweep",
        cache: cache_label(cache),
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        modeled_instrs: instrs,
        modeled_cycles: cycles,
        elision_rate: elision_rate_of(programs.iter()),
    }
}

fn temporal_matrix(reps: u32, cache: Option<&PlanCache>) -> SuiteResult {
    let tcases = temporal_cases();
    if let Some(c) = cache {
        for case in &tcases {
            for alloc in [AllocatorKind::Wrapped, AllocatorKind::Subheap] {
                let mut cfg = VmConfig::with_mode(Mode::instrumented(alloc));
                cfg.fuel = 50_000_000;
                // Temporal policy is not a compile input: one artifact
                // serves all four policies.
                let _ = c.artifact(&case.program, &cfg);
            }
        }
    }
    let t0 = Instant::now();
    let mut instrs = 0u64;
    let mut cycles = 0u64;
    for _rep in 0..reps {
        for case in &tcases {
            for alloc in [AllocatorKind::Wrapped, AllocatorKind::Subheap] {
                for policy in TemporalPolicy::ALL {
                    let mut cfg = VmConfig::with_mode(Mode::instrumented(alloc));
                    cfg.fuel = 50_000_000;
                    cfg.temporal = policy;
                    let (i, c) = stats_of(&case.program, &cfg, cache);
                    instrs += i;
                    cycles += c;
                }
            }
        }
    }
    SuiteResult {
        suite: "temporal_matrix",
        cache: cache_label(cache),
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        modeled_instrs: instrs,
        modeled_cycles: cycles,
        elision_rate: elision_rate_of(tcases.iter().map(|c| &c.program)),
    }
}

/// Hand-rolled JSON (the workspace is std-only by design).
fn to_json(suites: &[SuiteResult], quick: bool) -> String {
    let mut s = String::from("{\n  \"schema\": \"ifp-host-bench-v1\",\n");
    let _ = writeln!(s, "  \"quick\": {quick},");
    s.push_str("  \"suites\": [\n");
    for (i, r) in suites.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"suite\": \"{}\", \"cache\": \"{}\", \"wall_ms\": {:.1}, \
             \"modeled_instrs\": {}, \"modeled_cycles\": {}, \"elision_rate\": {:.4}, \
             \"instrs_per_sec\": {}}}",
            r.suite,
            r.cache,
            r.wall_ms,
            r.modeled_instrs,
            r.modeled_cycles,
            r.elision_rate,
            r.instrs_per_sec()
        );
        s.push_str(if i + 1 < suites.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn usage() -> ! {
    eprintln!("usage: bench -- host [--quick] [--cache off|warm|both] [--out PATH]");
    eprintln!("       bench -- serve [--quick] [--requests N] [--seed S] [--workers N]");
    eprintln!("                      [--shards N] [--concurrency SPEC] [--plan-cache]");
    eprintln!("                      [--out PATH] [--jsonl PATH]");
    eprintln!("  --concurrency SPEC: in-shard modeled servers. A single value");
    eprintln!("      (e.g. 4) emits the usual ifp-serve-v1 report; a comma list");
    eprintln!("      of C or C:QUEUE_BUDGET entries (e.g. 1,4,4:9) runs one");
    eprintln!("      config per entry and emits an ifp-serve-bench-v1 wrapper");
    eprintln!("      with the per-entry reports under \"entries\".");
    std::process::exit(2);
}

/// Parses a `--concurrency` spec: `C` or `C:QUEUE_BUDGET`, comma-listed.
fn parse_conc_spec(s: &str) -> Option<Vec<(usize, Option<usize>)>> {
    s.split(',')
        .map(|e| match e.split_once(':') {
            Some((c, b)) => Some((c.parse().ok()?, Some(b.parse().ok()?))),
            None => Some((e.parse().ok()?, None)),
        })
        .collect()
}

/// `bench -- serve`: run the multi-tenant service simulation and emit
/// its byte-deterministic JSON report. Wall-clock is printed to stderr
/// as an advisory only — the report itself contains no host timing.
fn serve_main(args: &[String]) {
    let mut cfg = ifp_serve::ServeConfig::default();
    let mut entries: Vec<(usize, Option<usize>)> = vec![(1, None)];
    let mut out_path: Option<String> = None;
    let mut jsonl_path: Option<String> = None;
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        let val = |rest: &mut std::slice::Iter<String>| -> String {
            rest.next().cloned().unwrap_or_else(|| usage())
        };
        match a.as_str() {
            "--quick" => cfg.requests = 2_048,
            "--requests" => cfg.requests = val(&mut rest).parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = val(&mut rest).parse().unwrap_or_else(|_| usage()),
            "--workers" => cfg.workers = val(&mut rest).parse().unwrap_or_else(|_| usage()),
            "--shards" => cfg.shards = val(&mut rest).parse().unwrap_or_else(|_| usage()),
            "--concurrency" => {
                entries = parse_conc_spec(&val(&mut rest)).unwrap_or_else(|| usage());
                if entries.is_empty() {
                    usage();
                }
            }
            "--plan-cache" => cfg.plan_cache = Some(PlanCache::shared()),
            "--out" => out_path = Some(val(&mut rest)),
            "--jsonl" => jsonl_path = Some(val(&mut rest)),
            _ => usage(),
        }
    }

    let mut reports = Vec::new();
    let mut jsonl = String::new();
    for &(concurrency, budget) in &entries {
        let mut c = cfg.clone();
        c.concurrency = concurrency;
        if let Some(b) = budget {
            c.queue_budget = b;
        }
        eprintln!(
            "bench serve: {} requests, {} shards, concurrency {}, budget {}, \
             {} workers, seed {:#x}...",
            c.requests, c.shards, c.concurrency, c.queue_budget, c.workers, c.seed
        );
        let t0 = Instant::now();
        let report = ifp_serve::run_service(&c);
        let wall = t0.elapsed();
        eprintln!(
            "  wall={:.1}s (advisory) completed={} shed={} detected={} unexpected={} \
             p50={}ns p99={}ns p999={}ns",
            wall.as_secs_f64(),
            report.completed,
            report.shed,
            report.detected,
            report.unexpected(),
            report.latency.percentile(500),
            report.latency.percentile(990),
            report.latency.percentile(999),
        );
        jsonl.push_str(&report.trap_jsonl);
        reports.push(report);
    }
    if let Some(c) = &cfg.plan_cache {
        // Advisory only: the cache never touches the deterministic
        // report; hit/miss splits may vary run to run under racing
        // shards.
        let s = c.stats();
        eprintln!(
            "  plan cache: {} hits / {} misses ({:.1}% hit rate), compile {:.1}ms, \
             {} artifacts resident",
            s.hits,
            s.misses,
            s.hit_rate() * 100.0,
            s.compile_ns as f64 / 1e6,
            s.resident_artifacts,
        );
    }

    if let Some(p) = jsonl_path {
        std::fs::write(&p, &jsonl).unwrap_or_else(|e| panic!("writing {p}: {e}"));
        eprintln!("wrote {p} ({} trace lines)", jsonl.lines().count());
    }
    // One entry: the plain ifp-serve-v1 report (schema-stable path the
    // CI gate parses). Several: the ifp-serve-bench-v1 wrapper.
    let json = if reports.len() == 1 {
        reports[0].to_json()
    } else {
        let mut s = String::from("{\n  \"schema\": \"ifp-serve-bench-v1\",\n  \"entries\": [\n");
        for (i, r) in reports.iter().enumerate() {
            s.push_str(r.to_json().trim_end());
            s.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    };
    match out_path {
        Some(p) => {
            std::fs::write(&p, json).unwrap_or_else(|e| panic!("writing {p}: {e}"));
            eprintln!("wrote {p}");
        }
        None => print!("{json}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("host") => {}
        Some("serve") => return serve_main(&args[1..]),
        _ => usage(),
    }
    let mut quick = false;
    let mut out_path: Option<String> = None;
    let mut cache_modes = vec![false];
    let mut rest = args[1..].iter();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--cache" => match rest.next().map(String::as_str) {
                Some("off") => cache_modes = vec![false],
                Some("warm") => cache_modes = vec![true],
                Some("both") => cache_modes = vec![false, true],
                _ => usage(),
            },
            "--out" => match rest.next() {
                Some(p) => out_path = Some(p.clone()),
                None => usage(),
            },
            _ => usage(),
        }
    }

    let reps = if quick { 3 } else { 100 };
    let mut suites = Vec::new();
    for &warm in &cache_modes {
        let cache = warm.then(PlanCache::new);
        let label = if warm { "warm" } else { "off" };
        let c = cache.as_ref();
        eprintln!("bench host [cache {label}]: juliet_spatial ({reps} reps)...");
        suites.push(juliet_spatial(reps, c));
        eprintln!(
            "bench host [cache {label}]: workloads_sweep ({})...",
            if quick { "first 4" } else { "all 18" }
        );
        suites.push(workloads_sweep(quick, c));
        eprintln!("bench host [cache {label}]: temporal_matrix ({reps} reps)...");
        suites.push(temporal_matrix(reps, c));
        if let Some(c) = &cache {
            let s = c.stats();
            eprintln!(
                "  plan cache: {} hits / {} misses ({:.1}% hit rate), compile {:.1}ms, \
                 {} artifacts resident",
                s.hits,
                s.misses,
                s.hit_rate() * 100.0,
                s.compile_ns as f64 / 1e6,
                s.resident_artifacts,
            );
        }
    }
    for r in &suites {
        eprintln!(
            "  {} [cache {}]: wall_ms={:.1} modeled_instrs={} modeled_cycles={} \
             elision_rate={:.4} instrs_per_sec={}",
            r.suite,
            r.cache,
            r.wall_ms,
            r.modeled_instrs,
            r.modeled_cycles,
            r.elision_rate,
            r.instrs_per_sec()
        );
    }
    // The cache is a host-speed knob: every entry of one suite
    // must agree exactly on the modeled columns. Bail loudly rather than
    // record a drifted trajectory point.
    for r in &suites {
        let first = suites
            .iter()
            .find(|s| s.suite == r.suite)
            .expect("r itself matches");
        assert_eq!(
            (
                first.modeled_instrs,
                first.modeled_cycles,
                first.elision_rate
            ),
            (r.modeled_instrs, r.modeled_cycles, r.elision_rate),
            "{}: modeled columns drifted across cache variants",
            r.suite
        );
    }
    let json = to_json(&suites, quick);
    match out_path {
        Some(p) => {
            std::fs::write(&p, json).unwrap_or_else(|e| panic!("writing {p}: {e}"));
            eprintln!("wrote {p}");
        }
        None => print!("{json}"),
    }
}
