//! `ifp-fuzz` — differential fuzzing campaigns over the IFP toolchain.
//!
//! ```text
//! ifp-fuzz campaign [--seed S] [--iters N] [--workers W]
//!                   [--corpus DIR] [--elide-checks]
//!                   [--plan-cache] [--interproc] [--fail-on-finding]
//! ifp-fuzz replay FILE...
//! ifp-fuzz shrink FILE [-o OUT]
//! ```

use ifp_fuzz::campaign::{run_campaign, CampaignConfig, Schedule};
use ifp_fuzz::concurrent::{run_conc_campaign, ConcCampaignConfig};
use ifp_fuzz::corpus::load_finding;
use ifp_fuzz::oracle::{evaluate, forensic_text};
use ifp_fuzz::shrink::shrink_with;
use ifp_fuzz::spec::parse_seed;
use ifp_fuzz::temporal::{run_temporal_campaign, TemporalCampaignConfig};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
ifp-fuzz: differential fuzzing of the In-Fat Pointer toolchain

USAGE:
    ifp-fuzz campaign [--seed S] [--iters N] [--workers W]
                      [--corpus DIR] [--schedule uniform|coverage]
                      [--elide-checks]
                      [--plan-cache] [--interproc] [--fail-on-finding]
    ifp-fuzz temporal [--seed S] [--iters N] [--workers W]
                      [--fail-on-finding]
    ifp-fuzz concurrent [--seed S] [--iters N] [--workers W]
                        [--fail-on-finding]
    ifp-fuzz replay FILE...
    ifp-fuzz shrink FILE [-o OUT]

CAMPAIGN OPTIONS:
    --seed S            campaign seed, decimal or 0x-hex (default 0)
    --iters N           iterations to run (default 1000)
    --workers W         worker threads (default: the host's available
                        parallelism; results are identical for any W)
    --corpus DIR        persist minimized findings as JSON under DIR
    --schedule X        ticket scheduling: uniform (default) or
                        coverage (inverse cell-frequency weighting)
    --elide-checks      rerun each instrumented mode with statically-
                        proven check elision; any verdict or output
                        change is an elision_divergence finding
    --plan-cache        rerun each instrumented mode twice (cold, then
                        warm) through a compiled-artifact cache; any
                        verdict, output, or modeled-statistic change is
                        a cache_divergence finding
    --interproc         rerun each instrumented mode with the inter-
                        procedural summary-informed elision plan, fresh
                        and through an artifact cache; any verdict,
                        output, or modeled-statistic change is an
                        interproc_divergence finding
    --fail-on-finding   exit nonzero if any finding is produced

TEMPORAL:
    Runs the temporal campaign: seed-derived programs with planted
    use-after-free / double-free / realloc-stale bugs (or none),
    judged against the analytic model of every temporal policy
    (key-check, tag-cycle, quarantine). Same determinism contract as
    `campaign`; same options minus the corpus/schedule knobs.

CONCURRENT:
    Runs the cross-thread campaign: seeded planted races (five
    use-after-free classes with benign twins, pinned interleavings)
    and benign lock-free workloads (Treiber stack, MPMC queue, level
    hash) under the epoch / hazard / interval reclamation trackers.
    Buggy cases must trap with exact forensics; benign cases must stay
    silent; every case must replay bit-identically. Campaigns are a
    pure function of seed\u{d7}iters, invariant under worker count.

REPLAY:
    Re-evaluates each corpus file's minimized spec through the full
    differential oracle and prints per-mode outcomes, disagreements,
    and a fresh forensic report.

SHRINK:
    Re-shrinks a corpus file's original spec (useful after oracle
    changes) and rewrites it to OUT (default: in place).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("temporal") => cmd_temporal(&args[1..]),
        Some("concurrent") => cmd_concurrent(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("shrink") => cmd_shrink(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("ifp-fuzz: unknown command `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_campaign(args: &[String]) -> ExitCode {
    let mut config = CampaignConfig {
        seed: 0,
        iterations: 1000,
        workers: ifp_testutil::default_workers(),
        corpus_dir: None,
        schedule: Schedule::Uniform,
        elide_checks: false,
        plan_cache_checks: false,
        interproc_checks: false,
    };
    let mut fail_on_finding = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let parsed = match arg.as_str() {
            "--seed" => value("--seed").and_then(|v| {
                parse_seed(&v)
                    .map(|s| config.seed = s)
                    .ok_or(format!("bad seed `{v}`"))
            }),
            "--iters" => value("--iters").and_then(|v| {
                v.parse()
                    .map(|n| config.iterations = n)
                    .map_err(|_| format!("bad iteration count `{v}`"))
            }),
            "--workers" => value("--workers").and_then(|v| {
                v.parse()
                    .map(|w: usize| config.workers = w.max(1))
                    .map_err(|_| format!("bad worker count `{v}`"))
            }),
            "--corpus" => value("--corpus").map(|v| config.corpus_dir = Some(PathBuf::from(v))),
            "--schedule" => value("--schedule").and_then(|v| {
                Schedule::from_name(&v)
                    .map(|s| config.schedule = s)
                    .ok_or(format!("bad schedule `{v}` (uniform|coverage)"))
            }),
            "--elide-checks" => {
                config.elide_checks = true;
                Ok(())
            }
            "--plan-cache" => {
                config.plan_cache_checks = true;
                Ok(())
            }
            "--interproc" => {
                config.interproc_checks = true;
                Ok(())
            }
            "--fail-on-finding" => {
                fail_on_finding = true;
                Ok(())
            }
            other => Err(format!("unknown campaign option `{other}`")),
        };
        if let Err(e) = parsed {
            eprintln!("ifp-fuzz: {e}");
            return ExitCode::FAILURE;
        }
    }

    let report = run_campaign(&config);
    print!("{}", report.render());
    if fail_on_finding && !report.findings.is_empty() {
        eprintln!(
            "ifp-fuzz: {} finding(s) with --fail-on-finding",
            report.findings.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_temporal(args: &[String]) -> ExitCode {
    let mut config = TemporalCampaignConfig {
        seed: 0,
        iterations: 1000,
        workers: ifp_testutil::default_workers(),
    };
    let mut fail_on_finding = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let parsed = match arg.as_str() {
            "--seed" => value("--seed").and_then(|v| {
                parse_seed(&v)
                    .map(|s| config.seed = s)
                    .ok_or(format!("bad seed `{v}`"))
            }),
            "--iters" => value("--iters").and_then(|v| {
                v.parse()
                    .map(|n| config.iterations = n)
                    .map_err(|_| format!("bad iteration count `{v}`"))
            }),
            "--workers" => value("--workers").and_then(|v| {
                v.parse()
                    .map(|w: usize| config.workers = w.max(1))
                    .map_err(|_| format!("bad worker count `{v}`"))
            }),
            "--fail-on-finding" => {
                fail_on_finding = true;
                Ok(())
            }
            other => Err(format!("unknown temporal option `{other}`")),
        };
        if let Err(e) = parsed {
            eprintln!("ifp-fuzz: {e}");
            return ExitCode::FAILURE;
        }
    }

    let report = run_temporal_campaign(&config);
    print!("{}", report.render());
    if fail_on_finding && !report.findings.is_empty() {
        eprintln!(
            "ifp-fuzz: {} temporal finding(s) with --fail-on-finding",
            report.findings.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_concurrent(args: &[String]) -> ExitCode {
    let mut config = ConcCampaignConfig {
        seed: 0,
        iterations: 1000,
        workers: ifp_testutil::default_workers(),
    };
    let mut fail_on_finding = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let parsed = match arg.as_str() {
            "--seed" => value("--seed").and_then(|v| {
                parse_seed(&v)
                    .map(|s| config.seed = s)
                    .ok_or(format!("bad seed `{v}`"))
            }),
            "--iters" => value("--iters").and_then(|v| {
                v.parse()
                    .map(|n| config.iterations = n)
                    .map_err(|_| format!("bad iteration count `{v}`"))
            }),
            "--workers" => value("--workers").and_then(|v| {
                v.parse()
                    .map(|w: usize| config.workers = w.max(1))
                    .map_err(|_| format!("bad worker count `{v}`"))
            }),
            "--fail-on-finding" => {
                fail_on_finding = true;
                Ok(())
            }
            other => Err(format!("unknown concurrent option `{other}`")),
        };
        if let Err(e) = parsed {
            eprintln!("ifp-fuzz: {e}");
            return ExitCode::FAILURE;
        }
    }

    let report = run_conc_campaign(&config);
    print!("{}", report.render());
    if fail_on_finding && !report.findings.is_empty() {
        eprintln!(
            "ifp-fuzz: {} concurrent finding(s) with --fail-on-finding",
            report.findings.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_replay(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        eprintln!("ifp-fuzz: replay needs at least one corpus file");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in paths {
        let finding = match load_finding(std::path::Path::new(path)) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("ifp-fuzz: {e}");
                failed = true;
                continue;
            }
        };
        println!(
            "replay {path}: iteration {} of campaign seed {:#x}",
            finding.iteration, finding.campaign_seed
        );
        println!("  recorded: {}", names(&finding));
        let eval = evaluate(&finding.spec);
        for (mode, outcome) in &eval.runs {
            println!("  {mode:<12} {}", outcome.label());
        }
        if eval.disagreements.is_empty() {
            println!("  verdict: no longer reproduces");
        } else {
            for d in &eval.disagreements {
                println!("  disagreement [{}]: {}", d.class.name(), d.detail);
            }
        }
        println!("  forensics: {}", forensic_text(&finding.spec));
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn names(finding: &ifp_fuzz::Finding) -> String {
    finding
        .disagreements
        .iter()
        .map(|d| d.class.name())
        .collect::<Vec<_>>()
        .join(", ")
}

fn cmd_shrink(args: &[String]) -> ExitCode {
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-o" | "--output" => match it.next() {
                Some(v) => output = Some(v.clone()),
                None => {
                    eprintln!("ifp-fuzz: -o needs a value");
                    return ExitCode::FAILURE;
                }
            },
            other if input.is_none() => input = Some(other.to_string()),
            other => {
                eprintln!("ifp-fuzz: unexpected argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(input) = input else {
        eprintln!("ifp-fuzz: shrink needs a corpus file");
        return ExitCode::FAILURE;
    };
    let mut finding = match load_finding(std::path::Path::new(&input)) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ifp-fuzz: {e}");
            return ExitCode::FAILURE;
        }
    };
    let classes: BTreeSet<_> = finding.disagreements.iter().map(|d| d.class).collect();
    finding.spec = shrink_with(&finding.original, |cand| {
        evaluate(cand)
            .disagreements
            .iter()
            .any(|d| classes.contains(&d.class))
    });
    finding.forensics = forensic_text(&finding.spec);
    let mut text = finding.to_json().to_string();
    text.push('\n');
    let target = output.map_or_else(|| PathBuf::from(&input), PathBuf::from);
    if let Err(e) = std::fs::write(&target, text) {
        eprintln!("ifp-fuzz: cannot write {}: {e}", target.display());
        return ExitCode::FAILURE;
    }
    println!("shrunk {} -> {}", input, target.display());
    println!("  minimized: {:?}", finding.spec);
    ExitCode::SUCCESS
}
