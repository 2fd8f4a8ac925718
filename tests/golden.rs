//! Golden snapshots of modeled results.
//!
//! The host-throughput work (paged-memory fast path, pre-decode,
//! parallel sweeps) must not move a single modeled number: cycles,
//! instruction mix, cache behaviour, footprints, program output and trap
//! identity are all simulation *outputs*, pinned here byte-for-byte
//! against `tests/golden_host_expected.txt`.
//!
//! To refresh the snapshot after an *intentional* model change, run
//! `cargo run --release --example golden_capture` and replace the
//! fixture — and say why in the commit message.

use ifp_juliet::all_cases;
use ifp_plancache::PlanCache;
use ifp_vm::{run, AllocatorKind, Mode, RunResult, VmConfig, VmError};
use std::fmt::Write as _;

const EXPECTED: &str = include_str!("golden_host_expected.txt");

fn modes() -> [(&'static str, Mode); 5] {
    [
        ("baseline", Mode::Baseline),
        ("wrapped", Mode::instrumented(AllocatorKind::Wrapped)),
        ("subheap", Mode::instrumented(AllocatorKind::Subheap)),
        (
            "wrapped-np",
            Mode::Instrumented {
                allocator: AllocatorKind::Wrapped,
                no_promote: true,
            },
        ),
        (
            "subheap-np",
            Mode::Instrumented {
                allocator: AllocatorKind::Subheap,
                no_promote: true,
            },
        ),
    ]
}

/// The fixture section whose lines start (or don't start) with `juliet `.
fn expected_section(juliet: bool) -> String {
    EXPECTED
        .lines()
        .filter(|l| l.starts_with("juliet ") == juliet)
        .fold(String::new(), |mut s, l| {
            s.push_str(l);
            s.push('\n');
            s
        })
}

#[test]
fn workload_stats_match_golden_snapshot() {
    let mut got = String::new();
    for wname in ["treeadd", "health", "em3d", "anagram"] {
        let w = ifp_workloads::by_name(wname).expect("workload");
        let program = w.build_default();
        for (label, mode) in modes() {
            let mut cfg = VmConfig::with_mode(mode);
            cfg.l1 = ifp::eval::sweep_l1();
            let r = run(&program, &cfg).expect("workload runs");
            let s = &r.stats;
            let out_sum: i64 = r
                .output
                .iter()
                .fold(0i64, |a, v| a.wrapping_mul(31).wrapping_add(*v));
            let _ = writeln!(
                got,
                "{wname} {label}: cycles={} instrs={} base={} promote={} arith={} bls={} \
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
                out_sum,
            );
        }
    }
    let want = expected_section(false);
    if got != want {
        for (g, w) in got.lines().zip(want.lines()) {
            assert_eq!(g, w, "modeled statistics drifted from the golden snapshot");
        }
        assert_eq!(got, want, "golden snapshot line count changed");
    }
}

/// Asserts two run results are observationally identical: exit code,
/// output, the whole `RunStats` struct, and trap identity.
fn assert_identical(a: &Result<RunResult, VmError>, b: &Result<RunResult, VmError>, ctx: &str) {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.exit_code, y.exit_code, "{ctx}: exit code");
            assert_eq!(x.output, y.output, "{ctx}: program output");
            assert_eq!(x.stats, y.stats, "{ctx}: RunStats");
        }
        (
            Err(VmError::Trap {
                trap: ta,
                func: fa,
                stats: sa,
                ..
            }),
            Err(VmError::Trap {
                trap: tb,
                func: fb,
                stats: sb,
                ..
            }),
        ) => {
            assert_eq!(format!("{ta:?}"), format!("{tb:?}"), "{ctx}: trap kind");
            assert_eq!(fa, fb, "{ctx}: trapping function");
            assert_eq!(sa, sb, "{ctx}: RunStats at trap");
        }
        (Err(x), Err(y)) => {
            assert_eq!(x.to_string(), y.to_string(), "{ctx}: error identity");
        }
        (x, y) => panic!(
            "{ctx}: one run {} but the other {}",
            if x.is_ok() { "completed" } else { "errored" },
            if y.is_ok() { "completed" } else { "errored" },
        ),
    }
}

/// The artifact-cache invisibility gate: every workload×mode cell runs
/// fresh (cache off), then twice through one shared cache — the cold
/// pass exercises miss+insert, the warm pass the hit path — and all
/// three must be observationally identical. A trap-heavy Juliet sample
/// then pins trap identity through the same cache. The miss count is
/// asserted exactly: the cache key is (program fingerprint,
/// instrumented?, elision), so five modes collapse to two keys per
/// workload.
#[test]
fn cached_sweep_is_bit_identical_to_fresh() {
    let cache = PlanCache::new();
    let mut cells = 0u64;
    for wname in ["treeadd", "health", "em3d", "anagram"] {
        let w = ifp_workloads::by_name(wname).expect("workload");
        let program = w.build_default();
        for (label, mode) in modes() {
            let mut cfg = VmConfig::with_mode(mode);
            cfg.l1 = ifp::eval::sweep_l1();
            let fresh = run(&program, &cfg);
            for pass in ["cold", "warm"] {
                let cached = cache.run(&program, &cfg);
                assert_identical(&fresh, &cached, &format!("{wname}/{label} ({pass} pass)"));
            }
            cells += 1;
        }
    }
    let s = cache.stats();
    // 4 workloads × {baseline, instrumented} = 8 compiles; every other
    // lookup of the 2-passes-per-cell sweep must hit.
    assert_eq!(s.misses, 8, "{s:?}");
    assert_eq!(s.hits, 2 * cells - 8, "{s:?}");

    // Trap identity through the same cache: a strided Juliet sample
    // under both instrumented allocators.
    let cases = all_cases();
    for case in cases.iter().step_by(7) {
        for (label, mode) in &modes()[1..3] {
            let mut cfg = VmConfig::with_mode(*mode);
            cfg.fuel = 50_000_000;
            let fresh = run(&case.program, &cfg);
            let cached = cache.run(&case.program, &cfg);
            assert_identical(&fresh, &cached, &format!("juliet {}/{label}", case.id));
        }
    }
    let s = cache.stats();
    assert!(s.hits > s.misses, "{s:?}");
}

#[test]
fn juliet_trap_identity_matches_golden_snapshot() {
    // Every case's outcome — trap kind, faulting function, cycle count at
    // the trap (or exit code) — hashed into one line per allocator.
    let cases = all_cases();
    let mut got = String::new();
    for (label, mode) in &modes()[1..3] {
        let mut ids = String::new();
        for case in &cases {
            let mut cfg = VmConfig::with_mode(*mode);
            cfg.fuel = 50_000_000;
            match run(&case.program, &cfg) {
                Ok(r) => {
                    let _ = writeln!(ids, "{}:ok:{}", case.id, r.exit_code);
                }
                Err(VmError::Trap {
                    trap, func, stats, ..
                }) => {
                    let _ = writeln!(ids, "{}:{trap:?}:{func}:{}", case.id, stats.cycles);
                }
                Err(e) => {
                    let _ = writeln!(ids, "{}:err:{e}", case.id);
                }
            }
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in ids.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        let _ = writeln!(got, "juliet {label}: cases={} fnv={h:#x}", cases.len());
    }
    assert_eq!(
        got,
        expected_section(true),
        "Juliet trap identity drifted from the golden snapshot"
    );
}
