//! Self-test of the benchmark: short runs print every named metric with
//! its unit and no failed operation, and the modeled counts of the traced
//! run repeat exactly from run to run and across serve worker counts.
//!
//! A sweep pass takes seconds in a release build and minutes in a debug
//! one, so run this with `cargo test --release`.

use std::collections::BTreeMap;
use std::process::Command;

/// (value, unit) of every metric in the final JSON line, plus its
/// `correct`/`failed` fields.
struct Run {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
    table: String,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0.05",
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let field = |key: &str| {
        let at = last.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
        last[at..]
            .split([',', '}'])
            .next()
            .expect(key)
            .trim()
            .to_string()
    };
    let mut metrics = BTreeMap::new();
    let body = &last[last.find("\"metrics\": {").expect("metrics") + 12..];
    for entry in body.split("}, ") {
        let name = entry
            .trim_start_matches('"')
            .split('"')
            .next()
            .expect("name");
        let value = entry.split("\"value\": ").nth(1).expect("value");
        let value: f64 = value
            .split(',')
            .next()
            .expect("value")
            .parse()
            .expect("number");
        let unit = entry.split("\"unit\": \"").nth(1).expect("unit");
        let unit = unit.split('"').next().expect("unit").to_string();
        metrics.insert(name.to_string(), (value, unit));
    }
    Run {
        correct: field("correct") == "true",
        failed: field("failed").parse().expect("failed count"),
        metrics,
        table: stdout,
    }
}

fn assert_complete(r: &Run, names: &[&str]) {
    assert!(r.correct, "{}", r.table);
    assert_eq!(r.failed, 0);
    for name in names {
        let (value, unit) = r
            .metrics
            .get(*name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert!(value.is_finite() && !unit.is_empty(), "{name}");
    }
    assert_eq!(r.metrics.len(), names.len());
    let rate = r
        .table
        .lines()
        .find(|l| l.starts_with("error_rate"))
        .expect("error_rate line");
    assert_eq!(rate.split_whitespace().nth(1), Some("0"), "{rate}");
}

/// The count-valued metrics of a traced run.
fn counts(r: &Run) -> BTreeMap<String, f64> {
    r.metrics
        .iter()
        .filter(|(_, (_, unit))| unit == "count")
        .map(|(name, (value, _))| (name.clone(), *value))
        .collect()
}

fn check_workload(workload: &str) {
    let timed = run(workload, 3, false);
    assert_complete(&timed, perfbench::END_TO_END);
    for name in [
        "run_us_p50",
        "run_us_p99",
        "setup_s",
        "req_per_s",
        "sim_mips",
        "peak_rss_mb",
    ] {
        assert!(timed.metrics[name].0 > 0.0, "{name} is zero");
    }

    let a = run(workload, 5, true);
    let b = run(workload, 5, true);
    assert_complete(&a, perfbench::PER_LAYER);
    assert_complete(&b, perfbench::PER_LAYER);
    assert!(counts(&a)["vm.compile.calls"] > 0.0);
    assert_eq!(
        counts(&a),
        counts(&b),
        "modeled counts differ between traced runs"
    );
}

#[test]
fn juliet_reports_every_metric_and_repeats_counts() {
    check_workload("juliet");
}

#[test]
fn serve_reports_every_metric_and_repeats_counts() {
    check_workload("serve");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a sweep pass needs a release build")]
fn sweep_reports_every_metric_and_repeats_counts() {
    check_workload("sweep");
}

#[test]
fn serve_counts_do_not_depend_on_worker_count() {
    let report = |workers| {
        let cfg = ifp_serve::ServeConfig {
            seed: 5,
            requests: 256,
            workers,
            ..ifp_serve::ServeConfig::default()
        };
        ifp_serve::run_service(&cfg)
    };
    let (one, two) = (report(1), report(2));
    assert_eq!(one.to_json(), two.to_json());
    assert_eq!((one.shed, one.unexpected()), (two.shed, two.unexpected()));
}
