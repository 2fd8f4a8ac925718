//! Command-line entry point of the benchmark.
//!
//! `perfbench --workload <sweep|juliet|serve> --seed <n> --seconds <s>
//! --trace <0|1>` builds the workload's inputs, runs it for the given
//! host-time budget, checks every result against the pinned references,
//! and prints a table followed by one JSON line: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! `perfbench --capture <workload>` prints the reference file for the
//! workload (`refs/<workload>.txt`) from the current simulator.

use perfbench::{juliet, probes, serve, sweep, timed_setup, trace_runs, Opts, Outcome};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <sweep|juliet|serve> --seed <n> \
                     --seconds <s> --trace <0|1>\n       perfbench --capture <sweep|juliet|serve>";

enum Cmd {
    Run(String, Opts),
    Capture(String),
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--capture" => return Ok(Cmd::Capture(value.clone())),
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Cmd::Run(
        workload,
        Opts {
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        },
    ))
}

fn run(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seed = opts.seed;
    let setup_s = match workload {
        "sweep" => {
            let (setup, setup_s) = timed_setup(sweep::Setup::build);
            out.errors.extend(setup.errors().iter().cloned());
            if opts.trace {
                trace_runs(
                    opts,
                    &mut out,
                    |pass, out| sweep::untraced_pass(&setup, seed.wrapping_add(pass), out),
                    |pass, out| sweep::traced_pass(&setup, seed.wrapping_add(pass), out),
                );
                serve::push_probe(seed, &mut out);
            } else {
                sweep::timed(&setup, opts, &mut out);
            }
            setup_s
        }
        "juliet" => {
            let (setup, setup_s) = timed_setup(juliet::Setup::build);
            out.errors.extend(setup.errors().iter().cloned());
            if opts.trace {
                trace_runs(
                    opts,
                    &mut out,
                    |pass, out| juliet::untraced_pass(&setup, seed.wrapping_add(pass), out),
                    |pass, out| juliet::traced_pass(&setup, seed.wrapping_add(pass), out),
                );
                serve::push_probe(seed, &mut out);
            } else {
                juliet::timed(&setup, opts, &mut out);
            }
            setup_s
        }
        "serve" => {
            let (setup, setup_s) = timed_setup(|| serve::Setup::build(seed, serve::REQUESTS));
            out.errors.extend(setup.errors().iter().cloned());
            if opts.trace {
                serve::trace(&setup, opts, &mut out);
            } else {
                serve::timed(&setup, opts, &mut out);
            }
            setup_s
        }
        other => return Err(format!("unknown workload {other}")),
    };
    let names = if opts.trace {
        probes::push_probes(&mut out);
        let (error_rate, ops) = (out.error_rate(), out.operations());
        out.push_note("error_rate", error_rate, "ratio", ops);
        perfbench::PER_LAYER
    } else {
        out.push("setup_s", setup_s, "s");
        out.push("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");
        perfbench::END_TO_END
    };
    let mut ordered = Vec::with_capacity(names.len());
    for name in names {
        match out.metrics.iter().position(|m| m.name == *name) {
            Some(i) => ordered.push(out.metrics.swap_remove(i)),
            None => out.error(format!("metric {name} was not measured")),
        }
    }
    out.metrics = ordered;
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse(&args) {
        Ok(cmd) => cmd,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cmd {
        Cmd::Capture(workload) => {
            let text = match workload.as_str() {
                "sweep" => sweep::capture(),
                "juliet" => juliet::capture(),
                "serve" => serve::capture(),
                other => {
                    eprintln!("unknown workload {other}\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            print!("{text}");
            ExitCode::SUCCESS
        }
        Cmd::Run(workload, opts) => match run(&workload, &opts) {
            Ok(out) => {
                for e in &out.errors {
                    eprintln!("check failed: {e}");
                }
                print!("{}", out.to_table());
                println!("{}", out.to_json());
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("{msg}\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}
