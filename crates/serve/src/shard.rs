//! One shard: a FIFO queue with bounded admission over a pool of
//! reusable VM hosts, executing in virtual time on `concurrency`
//! modeled servers.
//!
//! Virtual time is what makes the service deterministic: a request's
//! service time is its modeled cycle count (1 cycle = 1 virtual ns at
//! the simulated 1 GHz), so queueing delays, shed decisions, and
//! latencies are exact integer arithmetic independent of host speed,
//! thread scheduling, or worker count. With `concurrency` > 1 the
//! shard's idle `POOL_CAP` headroom serves multiple in-flight requests:
//! each admitted request starts on the earliest-free modeled server
//! (FIFO admission order is preserved), which lifts completed-request
//! throughput when service times leave servers idle under queueing.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ifp_hw::Trap;
use ifp_vm::{run_pooled, VmError, VmHost};

use crate::gen::{ProgramSet, ReqKind, Request, Tenant};
use crate::histogram::Histogram;

/// Stable error code attached to shed requests (the admission-control
/// reject). Schema-stable: external clients match on this string.
pub const SHED_CODE: &str = "SERVE-429-SHED";

/// Pooled hosts kept per shard, and the ceiling on modeled in-shard
/// concurrency: one virtual server per potential pooled host.
pub(crate) const POOL_CAP: usize = 4;

/// Per-tenant counters accumulated by a shard (merged across shards into
/// the report).
#[derive(Clone, Debug, Default)]
pub struct TenantCounters {
    /// Requests routed to this tenant.
    pub requests: u64,
    /// Runs that completed cleanly.
    pub completed: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Spatial-safety detections (poison/bounds traps).
    pub detected_spatial: u64,
    /// Temporal-safety detections.
    pub detected_temporal: u64,
    /// Crashes without a clean detection: non-safety traps and, for
    /// unhardened tenants running bad cases, allocator aborts (e.g. a
    /// baseline run double-freeing or wild-writing into an unmapped
    /// page).
    pub trapped_other: u64,
    /// Non-trap execution errors on requests expected to succeed —
    /// always unexpected.
    pub errored: u64,
    /// Traps on requests expected to complete (good cases, workloads) —
    /// always unexpected.
    pub good_case_traps: u64,
    /// Bad Juliet cases a hardened tenant failed to detect — always
    /// unexpected.
    pub missed_bad: u64,
    /// Total virtual service time of this tenant's admitted requests.
    pub service_ns: u64,
}

/// One capped forensic record for a trapped request.
#[derive(Clone, Debug)]
pub struct Forensic {
    /// The trapped request.
    pub request_id: u64,
    /// Tenant name.
    pub tenant: &'static str,
    /// Program label (Juliet case id or workload name).
    pub case: String,
    /// The trap, rendered.
    pub trap: String,
    /// Faulting function.
    pub func: String,
}

/// Everything a shard reports back.
#[derive(Debug)]
pub struct ShardOutcome {
    /// Requests routed to the shard.
    pub requests: u64,
    /// Requests shed.
    pub shed: u64,
    /// High-water mark of the admission queue (admitted, not completed).
    pub peak_queue: usize,
    /// Virtual time the server spent busy.
    pub busy_ns: u64,
    /// Virtual completion time of the last admitted request (0 when all
    /// were shed).
    pub last_completion_ns: u64,
    /// Virtual arrival time of the last request routed here.
    pub last_arrival_ns: u64,
    /// Latency histogram over admitted requests.
    pub latency: Histogram,
    /// Per-tenant latency histograms (indexed like the tenant table).
    pub tenant_latency: Vec<Histogram>,
    /// Per-tenant counters (indexed like the tenant table).
    pub tenants: Vec<TenantCounters>,
    /// Hosts constructed / reused from the pool.
    pub pool_created: u64,
    /// Pool hits.
    pub pool_reused: u64,
    /// Global-table rows leaked across every host still pooled at shard
    /// teardown — the release-mode leak gate; must be zero.
    pub pool_leaked_rows: u64,
    /// Forensic records of the shard's first `forensic_cap` trapped
    /// requests, in request order (merged and capped again by the report).
    pub forensics: Vec<Forensic>,
    /// Concatenated JSONL trace snapshots of the first trapped traced
    /// requests (capped per config).
    pub trap_jsonl: String,
}

/// Runs one shard over its arrival-ordered lane of requests.
pub(crate) fn run_shard(
    lane: &[Request],
    tenants: &[Tenant],
    set: &ProgramSet,
    cfg: &crate::ServeConfig,
) -> ShardOutcome {
    let mut out = ShardOutcome {
        requests: lane.len() as u64,
        shed: 0,
        peak_queue: 0,
        busy_ns: 0,
        last_completion_ns: 0,
        last_arrival_ns: lane.last().map_or(0, |r| r.arrival_ns),
        latency: Histogram::new(),
        tenant_latency: tenants.iter().map(|_| Histogram::new()).collect(),
        tenants: tenants.iter().map(|_| TenantCounters::default()).collect(),
        pool_created: 0,
        pool_reused: 0,
        pool_leaked_rows: 0,
        forensics: Vec::new(),
        trap_jsonl: String::new(),
    };
    let mut pool: Vec<VmHost> = Vec::new();
    // Completion times of admitted-but-not-yet-finished requests at the
    // current arrival instant (min-heap: with concurrency > 1,
    // completions are not admission-ordered).
    let mut inflight: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
    // Virtual servers: when each becomes free. An admitted request runs
    // on the earliest-free server; with one server this is exactly the
    // historical single-server FIFO.
    let mut server_free_at = vec![0u64; cfg.concurrency.clamp(1, POOL_CAP)];
    let mut jsonl_left = cfg.trace_jsonl_per_shard;

    for req in lane {
        let t = &tenants[req.tenant];
        let counters = &mut out.tenants[req.tenant];
        counters.requests += 1;

        // Drain completions up to this arrival, then admission-check.
        while inflight
            .peek()
            .is_some_and(|&Reverse(c)| c <= req.arrival_ns)
        {
            inflight.pop();
        }
        if inflight.len() >= cfg.queue_budget {
            counters.shed += 1;
            out.shed += 1;
            continue;
        }

        let vm_cfg = t.vm_config();
        let host = match pool.pop() {
            Some(h) => {
                out.pool_reused += 1;
                h
            }
            None => {
                out.pool_created += 1;
                VmHost::new()
            }
        };
        let program = match req.kind {
            ReqKind::Juliet(i) => &set.juliet[i].program,
            ReqKind::Temporal(i) => &set.temporal[i].program,
            ReqKind::Workload(i) => &set.workloads[i].1,
        };
        let (result, host_back) = match cfg.plan_cache.as_deref() {
            Some(cache) => cache.run_pooled(program, &vm_cfg, host),
            None => run_pooled(program, &vm_cfg, host),
        };
        if let Some(h) = host_back {
            // A trapped run leaves its trace ring on the host; snapshot
            // the first few for the JSONL sink before the ring is reset
            // by the next reuse.
            if t.trace && jsonl_left > 0 && matches!(result, Err(VmError::Trap { .. })) {
                let funcs: Vec<String> = program.funcs.iter().map(|f| f.name.clone()).collect();
                out.trap_jsonl
                    .push_str(&h.trace_snapshot(&funcs).to_jsonl());
                jsonl_left -= 1;
            }
            if pool.len() < POOL_CAP {
                pool.push(h);
            }
        }

        let service_ns = match &result {
            Ok(r) => r.stats.cycles,
            Err(VmError::Trap { stats, .. }) => stats.cycles,
            Err(_) => 0,
        };
        let good = set.is_good(req.kind);
        match &result {
            Ok(_) => {
                counters.completed += 1;
                if !good && t.hardened() {
                    counters.missed_bad += 1;
                }
            }
            Err(VmError::Trap { trap, func, .. }) => {
                match trap {
                    Trap::Temporal { .. } => counters.detected_temporal += 1,
                    _ if trap.is_safety_violation() => counters.detected_spatial += 1,
                    _ => counters.trapped_other += 1,
                }
                if good {
                    counters.good_case_traps += 1;
                }
                // The lane is in request-id order and the report keeps
                // the `forensic_cap` lowest ids service-wide, so entries
                // past a shard's first `forensic_cap` are never kept:
                // skip rendering them.
                if out.forensics.len() < cfg.forensic_cap {
                    out.forensics.push(Forensic {
                        request_id: req.id,
                        tenant: t.name,
                        case: set.label(req.kind),
                        trap: trap.to_string(),
                        func: func.clone(),
                    });
                }
            }
            Err(_) => {
                // A non-trap abort (e.g. the baseline libc allocator
                // rejecting a double free) is an acceptable crash for an
                // unhardened tenant on a bad case; everywhere else it is
                // an unexpected error.
                if good || t.hardened() {
                    counters.errored += 1;
                } else {
                    counters.trapped_other += 1;
                }
            }
        }

        // Virtual-time bookkeeping: FIFO admission onto the
        // earliest-free server.
        let (si, free_at) = server_free_at
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(_, f)| f)
            .expect("at least one server");
        let start = req.arrival_ns.max(free_at);
        let completion = start + service_ns;
        server_free_at[si] = completion;
        inflight.push(Reverse(completion));
        out.peak_queue = out.peak_queue.max(inflight.len());
        counters.service_ns += service_ns;
        out.busy_ns += service_ns;
        out.last_completion_ns = out.last_completion_ns.max(completion);
        let latency = completion - req.arrival_ns;
        out.latency.record(latency);
        out.tenant_latency[req.tenant].record(latency);
    }
    out.pool_leaked_rows = pool.iter().map(VmHost::leaked_rows).sum();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_requests, standard_tenants};
    use crate::ServeConfig;

    #[test]
    fn shard_keeps_only_its_first_forensic_cap_entries() {
        let cfg = |forensic_cap| ServeConfig {
            requests: 256,
            workers: 1,
            forensic_cap,
            ..ServeConfig::default()
        };
        let tenants = standard_tenants();
        let set = ProgramSet::build();
        // The whole stream as one lane: still in request-id order.
        let lane = generate_requests(&cfg(0), &tenants);
        let all = run_shard(&lane, &tenants, &set, &cfg(usize::MAX));
        let cap = 4;
        assert!(all.forensics.len() > cap, "the cap must bind");
        let capped = run_shard(&lane, &tenants, &set, &cfg(cap));
        assert!(capped.forensics.len() <= cap);
        let key = |f: &Forensic| (f.request_id, f.case.clone(), f.trap.clone(), f.func.clone());
        assert_eq!(
            capped.forensics.iter().map(key).collect::<Vec<_>>(),
            all.forensics[..cap].iter().map(key).collect::<Vec<_>>(),
            "a capped shard keeps exactly the lowest-id entries"
        );
        assert!(run_shard(&lane, &tenants, &set, &cfg(0))
            .forensics
            .is_empty());
    }
}
