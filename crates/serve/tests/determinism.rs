//! The service determinism contract: the report is a pure function of
//! seed × request count × config, byte-identical for any worker count,
//! with a stable schema and zero unexpected outcomes at the pinned seed.

use ifp_serve::{run_service, ServeConfig, SHED_CODE};
use ifp_trace::Summary;

/// A config small enough for test wall-clock but large enough to
/// exercise shedding, all four tenants, traps, and the JSONL sink.
fn test_config(workers: usize) -> ServeConfig {
    ServeConfig {
        requests: 512,
        workers,
        ..ServeConfig::default()
    }
}

#[test]
fn report_is_byte_identical_across_worker_counts() {
    let base = run_service(&test_config(1));
    let json1 = base.to_json();
    for workers in [2, 8] {
        let r = run_service(&test_config(workers));
        assert_eq!(
            json1,
            r.to_json(),
            "report bytes must not depend on worker count (workers={workers})"
        );
        assert_eq!(
            base.trap_jsonl, r.trap_jsonl,
            "trace sink must not depend on worker count (workers={workers})"
        );
    }
}

#[test]
fn report_is_byte_identical_with_shared_plan_cache() {
    // The artifact cache is a host-speed knob like `workers`: one shared
    // cache racing across shards, cold and then warm, must leave every
    // report byte untouched.
    let fresh = run_service(&test_config(4));
    let cache = ifp_plancache::PlanCache::shared();
    for workers in [1, 8] {
        let mut cfg = test_config(workers);
        cfg.plan_cache = Some(cache.clone());
        let cached = run_service(&cfg);
        assert_eq!(
            fresh.to_json(),
            cached.to_json(),
            "report bytes must not depend on the plan cache (workers={workers})"
        );
        assert_eq!(
            fresh.trap_jsonl, cached.trap_jsonl,
            "trace sink must not depend on the plan cache (workers={workers})"
        );
    }
    let s = cache.stats();
    assert!(
        s.hits > s.misses,
        "the fixed program set must replay mostly warm: {s:?}"
    );
}

#[test]
fn report_depends_on_seed() {
    let a = run_service(&test_config(2));
    let mut cfg = test_config(2);
    cfg.seed ^= 1;
    let b = run_service(&cfg);
    assert_ne!(a.to_json(), b.to_json(), "seed must drive the stream");
}

#[test]
fn schema_is_stable() {
    let r = run_service(&test_config(4));
    let json = r.to_json();
    for key in [
        "\"schema\": \"ifp-serve-v1\"",
        "\"seed\": ",
        "\"requests\": ",
        "\"shards\": ",
        "\"queue_budget\": ",
        "\"concurrency\": ",
        "\"mean_gap_ns\": ",
        "\"juliet_share\": ",
        &format!("\"shed_code\": \"{SHED_CODE}\""),
        "\"makespan_ns\": ",
        "\"completed\": ",
        "\"shed\": ",
        "\"detected\": ",
        "\"throughput_milli_rps\": ",
        "\"unexpected\": {\"errored\": ",
        "\"latency_ns\": {\"p50\": ",
        "\"p999\": ",
        "\"buckets\": [",
        "\"tenants\": [",
        "\"detected_spatial\": ",
        "\"detected_temporal\": ",
        "\"per_shard\": [",
        "\"pool\": {\"created\": ",
        "\"forensics\": [",
        "\"trace_jsonl_lines\": ",
    ] {
        assert!(json.contains(key), "schema key missing: {key}\n{json}");
    }
    // Tenant table is part of the contract.
    for name in ["baseline", "wrapped-hard", "subheap-hard", "subheap-elide"] {
        assert!(json.contains(&format!("\"name\": \"{name}\"")));
    }
}

#[test]
fn pinned_seed_has_no_unexpected_outcomes() {
    let r = run_service(&test_config(4));
    assert_eq!(
        r.unexpected(),
        0,
        "errored={} good_case_traps={} missed_bad={}",
        r.errored,
        r.good_case_traps,
        r.missed_bad
    );
    assert!(r.completed > 0, "some requests must complete");
    assert!(r.detected > 0, "bad cases must be detected");
    assert!(
        r.shed > 0,
        "admission control must engage at the pinned load"
    );
    // Every tenant saw traffic, and hardened tenants detected bugs.
    for t in &r.tenants {
        assert!(t.counters.requests > 0, "{} starved", t.tenant.name);
        if t.tenant.hardened() {
            assert!(
                t.counters.detected_spatial + t.counters.detected_temporal > 0,
                "{} detected nothing",
                t.tenant.name
            );
        }
    }
    // Pools actually recycle hosts, and no pooled host leaks
    // global-table rows (release-mode gate: the reset-time
    // `debug_assert` cannot fire here).
    for s in &r.shards {
        assert!(s.pool_reused > s.pool_created, "pool not reused");
        assert_eq!(s.pool_leaked_rows, 0, "pooled hosts leaked rows");
    }
    // Forensics are capped, ordered, and non-empty.
    assert!(!r.forensics.is_empty());
    assert!(r.forensics.len() <= r.config.forensic_cap);
    assert!(r
        .forensics
        .windows(2)
        .all(|w| w[0].request_id < w[1].request_id));
}

#[test]
fn concurrency_is_deterministic_and_lifts_throughput() {
    // Worker-count invariance must hold with in-shard concurrency too.
    let mk = |workers: usize| ServeConfig {
        concurrency: 4,
        ..test_config(workers)
    };
    let c4 = run_service(&mk(1));
    for workers in [2, 8] {
        assert_eq!(
            c4.to_json(),
            run_service(&mk(workers)).to_json(),
            "concurrent report bytes must not depend on worker count"
        );
    }
    assert_eq!(c4.unexpected(), 0);
    for s in &c4.shards {
        assert_eq!(s.pool_leaked_rows, 0, "pooled hosts leaked rows");
    }
    // Four servers drain the same arrivals no slower, and strictly
    // reduce queueing at the pinned (overloaded) seed: fewer sheds,
    // more completions, lower tail latency.
    let c1 = run_service(&test_config(4));
    assert!(c4.shed < c1.shed, "shed {} !< {}", c4.shed, c1.shed);
    assert!(
        c4.completed > c1.completed,
        "completed {} !> {}",
        c4.completed,
        c1.completed
    );
    assert!(
        c4.latency.percentile(990) <= c1.latency.percentile(990),
        "p99 must not regress"
    );
}

#[test]
fn trace_sink_feeds_the_summarizer() {
    let r = run_service(&test_config(4));
    assert!(
        !r.trap_jsonl.is_empty(),
        "traced tenants must contribute JSONL snapshots"
    );
    let summary = Summary::from_jsonl(&r.trap_jsonl);
    assert_eq!(summary.malformed_lines, 0, "sink emits valid JSONL");
    assert!(summary.total > 0, "snapshots contain events");
    // The sink is trap-gated: the summarized ring must include at least
    // one trap or temporal-trap event.
    assert!(
        !summary.traps.is_empty() || !summary.temporal_traps.is_empty(),
        "expected trap events in the sink, got {summary:?}"
    );
}
