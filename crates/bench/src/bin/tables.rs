//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage: `cargo run --release -p ifp-bench --bin tables -- [section ...]
//! [--workers N]` where sections are `table1 table2 table3 table4 fig10
//! fig11 fig12 fig13 juliet temporal analyze cache` or `all` (default).
//!
//! `--workers N` caps the sweep worker threads (default: the host's
//! available parallelism). Results are bit-identical for any worker
//! count — work fans out per case/configuration and merges back in
//! input order.
//!
//! `trace [workload]` is an extra mode (not part of `all`): it re-runs one
//! workload (default `treeadd`) with event tracing enabled and prints the
//! trace summary; `trace-jsonl [workload]` dumps the raw JSONL stream for
//! the `ifp-trace` CLI instead.
//!
//! `serve` is another extra mode (not part of `all`): it runs the
//! `ifp-serve` multi-tenant service simulation at the pinned seed and
//! prints the per-tenant latency/detection table. The full JSON report
//! comes from `bench -- serve` (see `BENCH_serve.json`).
//!
//! `concurrent` (also not part of `all`) summarizes the shared-heap
//! multi-threaded mode: benign lock-free workloads under each
//! reclamation tracker and the planted cross-thread detection matrix.

use ifp_baselines::{temporal_row, Asan, Mte, SoftBound};
use ifp_bench::{render, sweep_all_with_workers_cached};
use ifp_juliet::{
    all_cases, run_suite_with_workers, run_temporal_suite_with_workers, temporal_cases,
};
use ifp_temporal::TemporalPolicy;
use ifp_vm::{AllocatorKind, Mode};

/// Runs `workload` once, instrumented (subheap), with full tracing, and
/// prints either the summary or the raw JSONL stream.
fn run_trace_mode(workload: &str, jsonl: bool) {
    let Some(w) = ifp_workloads::by_name(workload) else {
        eprintln!("unknown workload `{workload}`; known:");
        for w in ifp_workloads::all() {
            eprintln!("  {}", w.name);
        }
        std::process::exit(2);
    };
    let program = w.build_default();
    let mut config = ifp_vm::VmConfig::with_mode(Mode::instrumented(AllocatorKind::Subheap));
    config.trace = ifp_trace::TraceConfig::all();
    let result = match ifp_vm::run(&program, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{workload} failed under tracing: {e}");
            std::process::exit(1);
        }
    };
    let log = result.trace.expect("tracing was enabled");
    if jsonl {
        print!("{}", log.to_jsonl());
    } else {
        let mut summary = ifp_trace::Summary::default();
        summary.add_log(&log);
        println!("Trace summary for `{workload}` (subheap, full tracing)");
        if log.dropped > 0 || log.sampled_out > 0 {
            println!(
                "ring tail only: {} older events overwritten, {} sampled out",
                log.dropped, log.sampled_out
            );
        }
        println!("{summary}");
    }
}

/// Strips `--workers N` from `args`, returning the worker count (default:
/// available parallelism).
fn parse_workers(args: &mut Vec<String>) -> usize {
    let mut workers = ifp_testutil::default_workers();
    if let Some(i) = args.iter().position(|a| a == "--workers") {
        let n = args.get(i + 1).and_then(|v| v.parse::<usize>().ok());
        match n {
            Some(n) if n >= 1 => {
                workers = n;
                args.drain(i..=i + 1);
            }
            _ => {
                eprintln!("--workers needs a positive integer");
                std::process::exit(2);
            }
        }
    }
    workers
}

/// `tables serve`: the multi-tenant service simulation, rendered as the
/// hardened-vs-off comparison table. Deterministic for any worker
/// count; 2,048 requests at the pinned seed (the CI smoke size).
fn run_serve_mode(workers: usize) {
    let cfg = ifp_serve::ServeConfig {
        requests: 2_048,
        workers,
        ..ifp_serve::ServeConfig::default()
    };
    eprintln!(
        "serving {} requests over {} shards ({workers} workers)...",
        cfg.requests, cfg.shards
    );
    let r = ifp_serve::run_service(&cfg);
    println!("Multi-tenant service (seed {:#x}, virtual time)", cfg.seed);
    println!(
        "{:<14} {:>8} {:>9} {:>6} {:>8} {:>9} {:>11} {:>11} {:>11}",
        "tenant",
        "requests",
        "completed",
        "shed",
        "spatial",
        "temporal",
        "p50_ns",
        "p99_ns",
        "p999_ns"
    );
    for t in &r.tenants {
        let c = &t.counters;
        println!(
            "{:<14} {:>8} {:>9} {:>6} {:>8} {:>9} {:>11} {:>11} {:>11}",
            t.tenant.name,
            c.requests,
            c.completed,
            c.shed,
            c.detected_spatial,
            c.detected_temporal,
            t.latency.percentile(500),
            t.latency.percentile(990),
            t.latency.percentile(999),
        );
    }
    println!(
        "total: completed {} / shed {} / detected {}; makespan {} ms (virtual), \
         throughput {}.{:03} req/s, unexpected {}",
        r.completed,
        r.shed,
        r.detected,
        r.makespan_ns / 1_000_000,
        r.throughput_milli_rps() / 1000,
        r.throughput_milli_rps() % 1000,
        r.unexpected(),
    );
}

/// `tables concurrent`: benign lock-free workloads under each
/// reclamation tracker (ops, violations, retire/reclaim balance, peak
/// deferred memory) plus the 5×3 planted cross-thread detection matrix.
/// Fully deterministic — seeded scripts, seeded schedules.
fn run_concurrent_mode() {
    use ifp_concurrent::{
        check_outcome, planted_case, run, ConcConfig, Plan, PlantClass, Schedule,
    };
    use ifp_temporal::reclaim::ReclaimPolicy;
    use ifp_workloads::concurrent::{gen_script, ConcStructure};

    println!("Concurrent execution: shared heap, 4 threads, seeded interleavings");
    println!(
        "{:<14} {:<9} {:>6} {:>10} {:>8} {:>8} {:>13} {:>7}",
        "structure", "policy", "ops", "violations", "retires", "reclaims", "peak_deferred", "steps"
    );
    for structure in ConcStructure::ALL {
        for policy in ReclaimPolicy::ALL {
            let script = gen_script(structure, 4, 200, &mut ifp_testutil::Rng::new(0xc0c));
            let cfg = ConcConfig {
                policy,
                plan: Plan::Structure(script),
                schedule: Schedule::Seeded(0x51ed),
            };
            let out = run(&cfg);
            assert!(!out.fuel_exhausted, "{structure:?}/{policy:?}: out of fuel");
            println!(
                "{:<14} {:<9} {:>6} {:>10} {:>8} {:>8} {:>13} {:>7}",
                structure.name(),
                policy.name(),
                out.ops_completed,
                out.violations.len(),
                out.stats.retires,
                out.stats.reclaims,
                out.stats.peak_deferred_bytes,
                out.steps,
            );
        }
    }

    println!("\nPlanted cross-thread temporal bugs: detection by tracker");
    println!(
        "{:<18} {:>8} {:>8} {:>10}",
        "class", "epoch", "hazard", "interval"
    );
    for class in PlantClass::ALL {
        let mut cells = Vec::new();
        for policy in ReclaimPolicy::ALL {
            let mut caught = true;
            let mut clean = true;
            for benign in [false, true] {
                let case = planted_case(class, benign, &mut ifp_testutil::Rng::new(7));
                let cfg = ConcConfig {
                    policy,
                    plan: Plan::Raw(case.plan.clone()),
                    schedule: Schedule::Explicit(case.schedule.clone()),
                };
                if check_outcome(&case, &run(&cfg)).is_err() {
                    if benign {
                        clean = false;
                    } else {
                        caught = false;
                    }
                }
            }
            cells.push(match (caught, clean) {
                (true, true) => "caught",
                (true, false) => "FP!",
                (false, _) => "missed",
            });
        }
        println!(
            "{:<18} {:>8} {:>8} {:>10}",
            class.name(),
            cells[0],
            cells[1],
            cells[2]
        );
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let workers = parse_workers(&mut args);

    // The trace mode stands alone: `tables trace [workload]`.
    if let Some(mode) = args.first().map(String::as_str) {
        if mode == "trace" || mode == "trace-jsonl" {
            let workload = args.get(1).map_or("treeadd", String::as_str);
            run_trace_mode(workload, mode == "trace-jsonl");
            return;
        }
        // So does the service table: `tables serve`.
        if mode == "serve" {
            run_serve_mode(workers);
            return;
        }
        // And the concurrent-execution summary: `tables concurrent`.
        if mode == "concurrent" {
            run_concurrent_mode();
            return;
        }
    }

    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");

    // Static sections first (cheap).
    if want("table1") {
        println!("{}", render::table1());
    }
    if want("table2") {
        println!("{}", render::table2());
    }
    if want("table3") {
        println!("{}", render::table3());
    }
    if want("fig13") {
        println!("{}", render::fig13());
    }
    if want("ablation") {
        println!("{}", ifp_bench::ablation::tag_split_table());
        println!(
            "{}",
            ifp_bench::ablation::granule_table(&ifp_bench::ablation::workload_size_sample())
        );
        println!("{}", ifp_bench::ablation::cache_sweep_with_workers(workers));
    }

    if want("juliet") {
        println!("Functional evaluation (Juliet-style suite, §5.1)");
        let cases = all_cases();
        println!(
            "  generated cases: {} ({} bad, {} good)",
            cases.len(),
            cases.len() / 2,
            cases.len() / 2
        );
        for mode in [
            Mode::Baseline,
            Mode::instrumented(AllocatorKind::Wrapped),
            Mode::instrumented(AllocatorKind::Subheap),
            Mode::Instrumented {
                allocator: AllocatorKind::Subheap,
                no_promote: true,
            },
        ] {
            let r = run_suite_with_workers(&cases, mode, workers);
            println!("  {mode}: {r}");
        }
        println!();
    }

    if want("temporal") {
        println!("Temporal evaluation (CWE-416 use-after-free / CWE-415 double-free)");
        let cases = temporal_cases();
        println!(
            "  generated cases: {} ({} bad, {} good)",
            cases.len(),
            cases.len() / 2,
            cases.len() / 2
        );
        for alloc in [AllocatorKind::Wrapped, AllocatorKind::Subheap] {
            for policy in TemporalPolicy::ALL {
                let r = run_temporal_suite_with_workers(
                    &cases,
                    Mode::instrumented(alloc),
                    policy,
                    workers,
                );
                println!("  instrumented[{alloc}] temporal={policy}: {r}");
            }
        }
        println!("\nComparator temporal detection (analytic baseline models)");
        for (name, row) in [
            ("asan", temporal_row(&mut Asan::new())),
            ("asan-drained", temporal_row(&mut Asan::with_quarantine(0))),
            ("mte(seed 7)", temporal_row(&mut Mte::with_seed(7))),
            ("softbound", temporal_row(&mut SoftBound::new())),
        ] {
            println!(
                "  {name:<13} use-after-free {}  double-free {}",
                if row.use_after_free {
                    "caught"
                } else {
                    "missed"
                },
                if row.double_free { "caught" } else { "missed" },
            );
        }
        println!();
        let costs = ifp_bench::temporal::measure_sample_with_workers(workers);
        print!("{}", ifp_bench::temporal::overhead_table(&costs));
        println!();
    }

    if want("analyze") {
        eprintln!("analyzing 18 workloads (elide off/on pairs, {workers} workers)...");
        let report = ifp_bench::analyze::report_with_workers(&ifp_workloads::all(), workers);
        println!("{}", ifp_bench::analyze::render_table(&report));
    }

    let needs_sweeps = ["table4", "fig10", "fig11", "fig12", "cache", "json"]
        .iter()
        .any(|s| want(s) || args.iter().any(|a| a == *s));
    if needs_sweeps {
        eprintln!("running 18 workloads x 5 configurations ({workers} workers)...");
        let workloads = ifp_workloads::all();
        let plan_cache = ifp_plancache::PlanCache::new();
        let t0 = std::time::Instant::now();
        let sweeps = sweep_all_with_workers_cached(&workloads, workers, Some(&plan_cache));
        eprintln!("swept in {:.1}s", t0.elapsed().as_secs_f64());

        if want("table4") {
            println!("{}", render::table4(&sweeps));
        }
        if want("fig10") {
            println!("{}", render::fig10(&sweeps));
        }
        if want("fig11") {
            println!("{}", render::fig11(&sweeps));
        }
        if want("fig12") {
            // Paper: programs under 6 MB are excluded; our scaled inputs
            // use a proportionally scaled threshold.
            println!("{}", render::fig12(&sweeps, 16 * 1024));
        }
        if want("cache") {
            println!(
                "{}",
                render::cache_analysis(&sweeps, &["health", "ft", "ks", "em3d"])
            );
            // The artifact-cache telemetry rides the same section: the
            // sweep above already ran warm through a shared plan cache,
            // so its row is free. The Juliet row re-runs the whole
            // spatial suite four times, so it only joins when the
            // section was asked for by name — the default all-sections
            // run stays cheap.
            let mut rows = vec![ifp_bench::plan_cache::SuiteCache {
                suite: "workloads_sweep",
                runs: workloads.len() as u64 * 5,
                stats: plan_cache.stats(),
            }];
            if args.iter().any(|a| a == "cache" || a == "all") {
                rows.push(ifp_bench::plan_cache::juliet_suite(workers));
            }
            println!("{}", ifp_bench::plan_cache::render_table(&rows));
        }
        if args.iter().any(|a| a == "json") {
            println!("{}", render::json(&sweeps));
        }
    }
}
