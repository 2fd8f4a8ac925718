//! Shared harness code for the `tables` binary and the self-timed benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod analyze;
pub mod plan_cache;
pub mod render;
pub mod temporal;

use ifp::eval::ModeSweep;
use ifp_plancache::PlanCache;
use ifp_testutil::{default_workers, par_map};
use ifp_workloads::Workload;
use std::fmt;

/// A failure from one workload's sweep: the workload keeps its identity so
/// a single bad workload no longer masks the results of the other 17.
#[derive(Debug)]
pub struct SweepError {
    /// The workload that failed.
    pub workload: String,
    /// What went wrong (VM error or worker panic payload).
    pub message: String,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.workload, self.message)
    }
}

/// Runs the mode sweep for every workload on up to `workers` threads,
/// preserving Table 4 order in the result — the output is identical for
/// any worker count (each sweep is an independent simulation; results
/// merge by input index).
///
/// Every workload runs to completion even when siblings fail: a worker
/// panic or VM error is captured per workload instead of tearing down the
/// whole scope, and all failures are reported together.
///
/// # Errors
///
/// The list of per-workload failures, one entry per failed workload.
pub fn try_sweep_all_with_workers(
    workloads: &[Workload],
    workers: usize,
) -> Result<Vec<ModeSweep>, Vec<SweepError>> {
    try_sweep_all_with_workers_cached(workloads, workers, None)
}

/// [`try_sweep_all_with_workers`] through an optional shared
/// [`PlanCache`]. The cache is a host-speed knob: the sweeps are
/// bit-identical with or without it (golden-gated). It pays off even
/// within one sweep — each workload's five modes need only two
/// artifacts — and across suites when the caller shares the handle.
///
/// # Errors
///
/// The list of per-workload failures, one entry per failed workload.
pub fn try_sweep_all_with_workers_cached(
    workloads: &[Workload],
    workers: usize,
    cache: Option<&PlanCache>,
) -> Result<Vec<ModeSweep>, Vec<SweepError>> {
    let slots = par_map(workloads, workers, |w| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let program = w.build_default();
            ModeSweep::run_cached(w.name, &program, cache).map_err(|e| e.to_string())
        }))
        .unwrap_or_else(|panic| Err(panic_message(&panic)))
    });
    let mut sweeps = Vec::with_capacity(workloads.len());
    let mut errors = Vec::new();
    for (w, slot) in workloads.iter().zip(slots) {
        match slot {
            Ok(s) => sweeps.push(s),
            Err(message) => errors.push(SweepError {
                workload: w.name.to_string(),
                message,
            }),
        }
    }
    if errors.is_empty() {
        Ok(sweeps)
    } else {
        Err(errors)
    }
}

/// [`try_sweep_all_with_workers`] at the host's available parallelism.
///
/// # Errors
///
/// The list of per-workload failures, one entry per failed workload.
pub fn try_sweep_all(workloads: &[Workload]) -> Result<Vec<ModeSweep>, Vec<SweepError>> {
    try_sweep_all_with_workers(workloads, default_workers())
}

/// [`try_sweep_all_with_workers`], panicking with *all* failures when any
/// workload fails (the `tables` binary's behaviour).
#[must_use]
pub fn sweep_all_with_workers(workloads: &[Workload], workers: usize) -> Vec<ModeSweep> {
    match try_sweep_all_with_workers(workloads, workers) {
        Ok(sweeps) => sweeps,
        Err(errors) => {
            let lines: Vec<String> = errors.iter().map(ToString::to_string).collect();
            panic!(
                "{} workload sweep(s) failed:\n  {}",
                lines.len(),
                lines.join("\n  ")
            );
        }
    }
}

/// [`sweep_all_with_workers`] at the host's available parallelism.
#[must_use]
pub fn sweep_all(workloads: &[Workload]) -> Vec<ModeSweep> {
    sweep_all_with_workers(workloads, default_workers())
}

/// [`sweep_all_with_workers`] through an optional shared [`PlanCache`],
/// panicking with *all* failures when any workload fails (the `tables`
/// binary's behaviour).
#[must_use]
pub fn sweep_all_with_workers_cached(
    workloads: &[Workload],
    workers: usize,
    cache: Option<&PlanCache>,
) -> Vec<ModeSweep> {
    match try_sweep_all_with_workers_cached(workloads, workers, cache) {
        Ok(sweeps) => sweeps,
        Err(errors) => {
            let lines: Vec<String> = errors.iter().map(ToString::to_string).collect();
            panic!(
                "{} workload sweep(s) failed:\n  {}",
                lines.len(),
                lines.join("\n  ")
            );
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("worker panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("worker panicked: {s}")
    } else {
        "worker panicked".to_string()
    }
}

/// Builds the standard small promote fixture used by the microbenches: a
/// memory system with one local-offset object carrying the Figure 9
/// layout table, plus a subheap block and a global-table row describing
/// the same region.
pub mod fixtures {
    use ifp_hw::CtrlRegs;
    use ifp_mem::MemSystem;
    use ifp_meta::{GlobalTableRow, LayoutTableBuilder, LocalOffsetMeta, SubheapCtrl, SubheapMeta};
    use ifp_tag::{
        GlobalTableTag, LocalOffsetTag, SchemeSel, SubheapTag, TaggedPtr, LOCAL_OFFSET_GRANULE,
    };

    /// A ready-to-promote machine state with pointers for each scheme.
    pub struct PromoteFixture {
        /// The memory system.
        pub mem: MemSystem,
        /// Control registers.
        pub ctrl: CtrlRegs,
        /// Local-offset pointer (object bounds).
        pub local: TaggedPtr,
        /// Local-offset pointer with a subobject index (narrowing).
        pub local_narrow: TaggedPtr,
        /// Subheap pointer.
        pub subheap: TaggedPtr,
        /// Global-table pointer.
        pub global: TaggedPtr,
        /// A legacy pointer.
        pub legacy: TaggedPtr,
    }

    /// Builds the fixture.
    #[must_use]
    pub fn promote_fixture() -> PromoteFixture {
        let mut mem = MemSystem::with_default_l1();
        mem.mem.map(0x1000, 0x20000);
        let mut ctrl = CtrlRegs::new(0xa000);
        let key = ctrl.mac_key;

        // Figure 9 layout table at 0x8000.
        let mut b = LayoutTableBuilder::new(24);
        b.child(0, 0, 4, 4).unwrap();
        let arr = b.child(0, 4, 20, 8).unwrap();
        b.child(arr, 0, 4, 4).unwrap();
        b.child(arr, 4, 8, 4).unwrap();
        b.child(0, 20, 24, 4).unwrap();
        let table = b.build();
        mem.mem.write_bytes(0x8000, &table.to_bytes()).unwrap();

        // Local offset object at 0x2000.
        let base = 0x2000u64;
        let meta_addr = LocalOffsetMeta::meta_addr_for(base, 24);
        let meta = LocalOffsetMeta::new(24, 0x8000, meta_addr, key);
        mem.mem.write_bytes(meta_addr, &meta.to_bytes()).unwrap();
        let tag = LocalOffsetTag {
            granule_offset: ((meta_addr - base) / LOCAL_OFFSET_GRANULE) as u8,
            subobject_index: 0,
        };
        let local = TaggedPtr::from_addr(base)
            .with_scheme(SchemeSel::LocalOffset)
            .with_scheme_meta(tag.encode().unwrap());
        let ntag = LocalOffsetTag {
            granule_offset: 1,
            subobject_index: 4, // S.array[].v4
        };
        let local_narrow = TaggedPtr::from_addr(base + 16)
            .with_scheme(SchemeSel::LocalOffset)
            .with_scheme_meta(ntag.encode().unwrap());

        // Subheap block at 0x4000.
        ctrl.set_subheap(
            0,
            SubheapCtrl {
                block_shift: 12,
                meta_offset: 0,
            },
        );
        let block = 0x4000u64;
        let sh_meta = SubheapMeta::new(32, 32 + 48 * 16, 48, 40, 0x8000, block, key);
        mem.mem.write_bytes(block, &sh_meta.to_bytes()).unwrap();
        let stag = SubheapTag {
            ctrl_index: 0,
            subobject_index: 0,
        };
        let subheap = TaggedPtr::from_addr(block + 32 + 48 * 3)
            .with_scheme(SchemeSel::Subheap)
            .with_scheme_meta(stag.encode().unwrap());

        // Global row 7 describing 0x6000.
        mem.mem.map(0xa000, 0x10000);
        let row = GlobalTableRow {
            base: 0x6000,
            size: 4096,
            layout_table: 0,
            valid: true,
        };
        mem.mem
            .write_bytes(0xa000 + 7 * 16, &row.to_bytes())
            .unwrap();
        let gtag = GlobalTableTag { table_index: 7 };
        let global = TaggedPtr::from_addr(0x6000)
            .with_scheme(SchemeSel::GlobalTable)
            .with_scheme_meta(gtag.encode().unwrap());

        PromoteFixture {
            mem,
            ctrl,
            local,
            local_narrow,
            subheap,
            global,
            legacy: TaggedPtr::from_addr(0x1234),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::promote_fixture;
    use ifp_hw::{IfpUnit, PromoteKind};

    #[test]
    fn parallel_sweep_is_byte_identical_to_single_thread() {
        // Render a real sweep subset through the JSON emitter under 1 and
        // N workers: the output strings must match byte for byte.
        let workloads: Vec<_> = ifp_workloads::all().into_iter().take(2).collect();
        let one = crate::render::json(&crate::sweep_all_with_workers(&workloads, 1));
        let many = crate::render::json(&crate::sweep_all_with_workers(&workloads, 4));
        assert_eq!(one, many);
    }

    #[test]
    fn parallel_cache_sweep_matches_single_thread() {
        assert_eq!(
            crate::ablation::cache_sweep_with_workers(1),
            crate::ablation::cache_sweep_with_workers(4)
        );
    }

    #[test]
    fn fixture_pointers_promote_as_labelled() {
        let mut fx = promote_fixture();
        let unit = IfpUnit::default();
        for (ptr, kind) in [
            (fx.local, PromoteKind::Valid),
            (fx.local_narrow, PromoteKind::Valid),
            (fx.subheap, PromoteKind::Valid),
            (fx.global, PromoteKind::Valid),
            (fx.legacy, PromoteKind::LegacyBypass),
        ] {
            let r = unit.promote(ptr, &mut fx.mem, &fx.ctrl).unwrap();
            assert_eq!(r.kind, kind, "{ptr:?}");
        }
    }
}
