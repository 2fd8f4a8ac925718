//! Isolated per-call costs of single layers' public functions, measured
//! in the traced run outside its traced window. Each probe times batches
//! of calls on a fixed input and reports the median batch's cost per
//! call, so a probe moves only when that function's own code does.

use crate::{median, Outcome};
use ifp::eval::sweep_l1;
use ifp_alloc::{GlobalTableManager, SubheapAllocator, WrappedAllocator};
use ifp_bench::fixtures::promote_fixture;
use ifp_hw::IfpUnit;
use ifp_mem::{Cache, MemSystem};
use ifp_meta::MacKey;
use ifp_temporal::{TemporalPolicy, TemporalState};
use ifp_testutil::Rng;
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 15;

/// Median over [`BATCHES`] batches of `calls` calls of `f` (given the
/// call index), in nanoseconds per call.
fn per_call_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for i in 0..calls {
            f(black_box(i));
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / calls as f64);
    }
    median(&per_call)
}

/// Addresses spread over four times the sweep L1's capacity, so the
/// probe sees the hit/miss mix the sweep does.
fn addresses(n: usize) -> Vec<u64> {
    let cfg = sweep_l1();
    let span = 4 * cfg.line_size * (cfg.sets * cfg.ways) as u64;
    let mut rng = Rng::new(0x11);
    (0..n)
        .map(|_| 0x10_0000 + rng.range_u64(0, span / 8) * 8)
        .collect()
}

/// Runs every probe and appends its metric.
pub fn push_probes(out: &mut Outcome) {
    let addrs = addresses(4096);
    let mask = addrs.len() - 1;

    let mut l1 = Cache::new(sweep_l1());
    let ns = per_call_ns(1 << 16, |i| {
        black_box(l1.access(addrs[i & mask], i % 4 == 0));
    });
    out.push("mem.l1_access_ns", ns, "ns");

    let mut mem = MemSystem::new(sweep_l1());
    mem.mem.map(0x10_0000, 1 << 16);
    let ns = per_call_ns(1 << 16, |i| {
        black_box(mem.read_uint(addrs[i & mask], 8).ok());
    });
    out.push("mem.read_ns", ns, "ns");

    let mut fx = promote_fixture();
    let unit = IfpUnit::default();
    let ptrs = [fx.local, fx.local_narrow, fx.subheap, fx.global];
    let ns = per_call_ns(1 << 14, |i| {
        black_box(unit.promote(ptrs[i & 3], &mut fx.mem, &fx.ctrl).ok());
    });
    out.push("hw.promote_ns", ns, "ns");

    let key = MacKey::default_for_sim();
    let mut mem = MemSystem::with_default_l1();
    let mut gt = GlobalTableManager::new(0x2000_0000);
    gt.map(&mut mem);
    let mut heap = WrappedAllocator::new(0x4000_0000, 1 << 26, key);
    let ns = per_call_ns(1 << 12, |i| {
        let size = 16 + (i as u64 & 7) * 8;
        let (p, _) = heap
            .malloc(&mut mem, &mut gt, size, 0)
            .expect("wrapped malloc");
        heap.free(&mut mem, &mut gt, p.addr())
            .expect("wrapped free");
    });
    out.push("alloc.wrapped_malloc_free_ns", ns, "ns");

    let mut mem = MemSystem::with_default_l1();
    let mut heap = SubheapAllocator::new(0x5000_0000, 26, key);
    // A pinned object keeps the block live, so the probe measures the
    // slot fast path rather than block churn.
    let _pin = heap.malloc(&mut mem, 40, 0).expect("subheap malloc");
    let ns = per_call_ns(1 << 12, |_| {
        let (p, _) = heap.malloc(&mut mem, 40, 0).expect("subheap malloc");
        heap.free(&mut mem, p.addr()).expect("subheap free");
    });
    out.push("alloc.subheap_malloc_free_ns", ns, "ns");

    let mut ts = TemporalState::new(TemporalPolicy::KeyCheck);
    let regions: Vec<(u64, u64)> = (0..256u64)
        .map(|i| {
            let base = 0x6000_0000 + i * 64;
            (base, ts.on_alloc(base, 48))
        })
        .collect();
    for &(base, _) in regions.iter().step_by(4) {
        ts.on_free(base);
    }
    let ns = per_call_ns(1 << 14, |i| {
        let (base, key) = regions[i & 255];
        black_box(ts.check(base + (i as u64 & 31), Some(key)));
    });
    out.push("temporal.check_ns", ns, "ns");

    let programs: Vec<_> = ifp_juliet::all_cases()
        .into_iter()
        .map(|c| c.program)
        .collect();
    let us = per_call_ns(programs.len(), |i| {
        black_box(programs[i].validate().ok());
    }) / 1e3;
    out.push("compiler.validate_us", us, "us");
    let us = per_call_ns(programs.len(), |i| {
        black_box(ifp_analyze::instr_plan(&programs[i], false));
    }) / 1e3;
    out.push("analyze.instr_plan_us", us, "us");
}
