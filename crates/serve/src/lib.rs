//! `ifp-serve`: a deterministic multi-tenant request-execution service
//! over the In-Fat Pointer simulator.
//!
//! The paper evaluates single-process batch runs; the ROADMAP's north
//! star is a production-scale deployment, where the deciding metric is
//! throughput and tail latency under realistic load — hardened versus
//! unhardened (the argument CGuard and FRAMER both make). This crate
//! measures that story end-to-end:
//!
//! * a **seeded load generator** ([`generate_requests`]) produces an
//!   open-loop stream of program-execution requests — a weighted mix of
//!   Juliet-style cases and the evaluation workloads — attributed to
//!   **tenants** with per-tenant allocator / temporal-policy / elision
//!   configs ([`Tenant`]);
//! * a **shard router** distributes requests over [`ServeConfig::shards`]
//!   single-server shards by request id; shards execute on up to
//!   `workers` host threads via `ifp_testutil::par_map`'s ticket
//!   determinism, so the report is a pure function of seed × request
//!   count × config and **byte-identical for any worker count**;
//! * each shard owns a **pool of reusable VM hosts** ([`ifp_vm::VmHost`])
//!   — memory image, global metadata table, trace ring — reset in place
//!   per request instead of rebuilt, with **bounded admission**: a
//!   request arriving to a full queue is shed with the stable error code
//!   [`SHED_CODE`] and never executed;
//! * time is **virtual**: a request's service time is its modeled cycle
//!   count (1 simulated GHz ⇒ 1 cycle = 1 ns), queueing/latency arithmetic
//!   is exact integer math over arrival and completion times, and the
//!   latency histograms use fixed power-of-two sub-buckets — so every
//!   number in the report is reproducible to the byte on any machine.
//!
//! The per-shard trap/forensics sink keeps the first trapped requests'
//! details (deterministically ordered and capped) and, for traced
//! tenants, a JSONL trace snapshot the `ifp-trace` summarizer ingests
//! directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod histogram;
mod report;
mod shard;

pub use gen::{generate_requests, standard_tenants, ProgramSet, ReqKind, Request, Tenant};
pub use histogram::Histogram;
pub use report::{ServeReport, TenantReport};
pub use shard::{ShardOutcome, SHED_CODE};

use ifp_plancache::PlanCache;
use ifp_testutil::par_map;
use std::sync::Arc;

/// Service configuration. Every field feeds the deterministic model;
/// only `workers` is a host-side knob, and it cannot change the report.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Seed for the load generator.
    pub seed: u64,
    /// Number of requests generated.
    pub requests: u64,
    /// Number of shards (single-server queues). Fixed independently of
    /// `workers` — the unit of determinism.
    pub shards: usize,
    /// Admission budget per shard: a request arriving while this many
    /// admitted requests are still queued or in service is shed.
    pub queue_budget: usize,
    /// Modeled servers per shard (clamped to `[1, 4]`, the pool
    /// headroom). With more than one, admitted requests start on the
    /// earliest-free server instead of strictly behind the previous
    /// request; `1` reproduces the historical single-server shard
    /// byte-for-byte.
    pub concurrency: usize,
    /// Host worker threads executing shards. Clamped to `[1, shards]`;
    /// any value yields a byte-identical report.
    pub workers: usize,
    /// Mean inter-arrival gap of the open-loop generator, in virtual
    /// nanoseconds (gaps are uniform on `[0, 2 * mean]`).
    pub mean_gap_ns: u64,
    /// Percentage (0–100) of requests drawn from the Juliet families;
    /// the rest run evaluation workloads at service scales.
    pub juliet_share: u32,
    /// Maximum forensic entries attached to the report (ordered by
    /// request id).
    pub forensic_cap: usize,
    /// Per shard, how many trapped traced requests contribute a JSONL
    /// trace snapshot to the sink.
    pub trace_jsonl_per_shard: usize,
    /// Shared compiled-artifact cache. Every shard replays programs from
    /// the same fixed [`ProgramSet`], so a shared cache collapses the
    /// per-request validate/analyze/decode work to one compile per
    /// (program, instrumentation) across the whole service. A
    /// host-speed knob like `workers`: the report is byte-identical with
    /// or without it (gated by the determinism suite). `None` compiles
    /// fresh per request.
    pub plan_cache: Option<Arc<PlanCache>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 0x5e12e,
            requests: 8_192,
            shards: 8,
            queue_budget: 32,
            concurrency: 1,
            workers: ifp_testutil::default_workers(),
            mean_gap_ns: 20_000,
            juliet_share: 70,
            forensic_cap: 32,
            trace_jsonl_per_shard: 2,
            plan_cache: None,
        }
    }
}

/// Runs the full service simulation: generate, route, execute, report.
///
/// The returned report is byte-deterministic: for a fixed config
/// (ignoring [`ServeConfig::workers`]) the same bytes come back on every
/// machine.
///
/// # Panics
///
/// Panics if the config is degenerate (zero shards or requests).
#[must_use]
pub fn run_service(cfg: &ServeConfig) -> ServeReport {
    assert!(cfg.shards > 0, "at least one shard");
    assert!(cfg.requests > 0, "at least one request");
    let tenants = standard_tenants();
    let set = ProgramSet::build();
    let requests = generate_requests(cfg, &tenants);

    // Route by id: shard k gets requests with id ≡ k (mod shards), in
    // arrival order (ids are issued in arrival order).
    let mut lanes: Vec<Vec<Request>> = (0..cfg.shards).map(|_| Vec::new()).collect();
    for r in requests {
        let lane = (r.id % cfg.shards as u64) as usize;
        lanes[lane].push(r);
    }

    // Each shard is a pure function of its lane; par_map merges results
    // in lane order regardless of scheduling, which is what makes the
    // report worker-count invariant.
    let outcomes: Vec<ShardOutcome> = par_map(&lanes, cfg.workers, |lane| {
        shard::run_shard(lane, &tenants, &set, cfg)
    });

    report::assemble(cfg, &tenants, outcomes)
}
