//! Dynamic statistics collected by the VM — the raw material for the
//! paper's Table 4 and Figures 10–12.

use ifp_mem::CacheStats;

/// Object-registration counts for one storage class (a Table 4 column
/// group).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObjectStats {
    /// Objects registered with metadata.
    pub objects: u64,
    /// Of those, how many had layout-table metadata attached.
    pub with_layout_table: u64,
}

impl ObjectStats {
    /// Percentage of objects carrying a layout table (0 when none).
    #[must_use]
    pub fn lt_percent(&self) -> f64 {
        if self.objects == 0 {
            0.0
        } else {
            100.0 * self.with_layout_table as f64 / self.objects as f64
        }
    }
}

/// `promote` execution counts (the Table 4 "valid promote" columns).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PromoteStats {
    /// Total promote instructions executed.
    pub total: u64,
    /// Promotes that performed a metadata lookup.
    pub valid: u64,
    /// Bypasses on NULL pointers.
    pub null_bypass: u64,
    /// Bypasses on legacy pointers.
    pub legacy_bypass: u64,
    /// Bypasses on invalid-poisoned inputs.
    pub poisoned_input: u64,
    /// Promotes that requested subobject narrowing (non-zero index).
    pub narrow_requested: u64,
    /// Narrowings that succeeded.
    pub narrow_succeeded: u64,
    /// Narrowings coarsened to object bounds (no layout table).
    pub narrow_coarsened: u64,
    /// Narrowings that failed on malformed metadata (output poisoned).
    pub narrow_failed: u64,
}

impl PromoteStats {
    /// Fraction of promotes that performed a lookup.
    #[must_use]
    pub fn valid_ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.valid as f64 / self.total as f64
        }
    }
}

/// Static-elision counters. All zero unless the run was configured with
/// `elide_checks`, keeping default-path stats bit-identical to a build
/// without the analyzer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ElisionStats {
    /// Dereferences that carried bounds and would have been checked.
    pub checks_total: u64,
    /// Of those, checks skipped because the access was statically proven
    /// in bounds.
    pub checks_elided: u64,
    /// Tag-updating GEPs executed as plain address arithmetic.
    pub geps_elided: u64,
    /// In-Fat Pointer arithmetic instructions (`ifpadd`/`ifpidx`/
    /// `ifpbnd`) not issued thanks to elided GEPs.
    pub arith_elided: u64,
    /// `promote` instructions skipped because their result was dead.
    pub promotes_elided: u64,
    /// Of `checks_elided`, checks whose proof rested on an
    /// inter-procedural summary (parameter window or summarized call
    /// return) rather than a purely local interval fact.
    pub summary_elided: u64,
}

/// All statistics from one run. `PartialEq` is part of the host-knob
/// contract: the golden suite asserts whole-struct equality of fresh,
/// pooled and plan-cached runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Base-ISA instructions executed (including allocator-internal work).
    pub base_instrs: u64,
    /// `promote` instructions executed.
    pub promote_instrs: u64,
    /// In-Fat Pointer arithmetic instructions executed (`ifpadd`,
    /// `ifpidx`, `ifpbnd`, `ifpchk`, `ifpextract`, `ifpmd`, `ifpmac`).
    pub ifp_arith_instrs: u64,
    /// `ldbnd`/`stbnd` instructions executed.
    pub bounds_ls_instrs: u64,
    /// Cycles consumed under the cycle model.
    pub cycles: u64,
    /// Promote behaviour counters.
    pub promotes: PromoteStats,
    /// Instrumented stack objects.
    pub stack_objects: ObjectStats,
    /// Instrumented heap objects.
    pub heap_objects: ObjectStats,
    /// Instrumented global objects.
    pub global_objects: ObjectStats,
    /// L1 data-cache counters.
    pub l1: CacheStats,
    /// Peak resident size in bytes (mapped pages high-water mark).
    pub peak_resident: u64,
    /// Peak heap footprint (allocator-reported, excludes stack/globals).
    pub heap_footprint_peak: u64,
    /// Dynamic calls executed.
    pub calls: u64,
    /// Heap allocations performed.
    pub heap_allocs: u64,
    /// Heap frees performed.
    pub heap_frees: u64,
    /// Temporal-safety counters (all zero when the policy is off).
    pub temporal: ifp_temporal::TemporalStats,
    /// Static-elision counters (all zero when `elide_checks` is off).
    pub elision: ElisionStats,
}

impl RunStats {
    /// Total dynamic instructions (base + all In-Fat Pointer classes).
    #[must_use]
    pub fn total_instrs(&self) -> u64 {
        self.base_instrs + self.ifp_instrs()
    }

    /// Instructions added by In-Fat Pointer.
    #[must_use]
    pub fn ifp_instrs(&self) -> u64 {
        self.promote_instrs + self.ifp_arith_instrs + self.bounds_ls_instrs
    }

    /// Total objects registered with metadata.
    #[must_use]
    pub fn total_objects(&self) -> u64 {
        self.stack_objects.objects + self.heap_objects.objects + self.global_objects.objects
    }
}
