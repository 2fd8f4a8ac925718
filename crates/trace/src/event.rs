//! The compact trace event vocabulary.
//!
//! Events are plain `Copy` data with no references into the machine —
//! addresses, sizes and small code enums — so a ring of them is a flat
//! allocation and recording is a couple of stores. Anything that needs a
//! name (the function an event occurred in) is stored as an index and
//! resolved against a name table only when a sink renders the event.

use std::fmt;

/// Sentinel function index meaning "not attributed to a function".
pub const NO_FUNC: u32 = u32::MAX;

/// Which metadata scheme a pointer or allocation uses. Mirrors the tag
/// crate's scheme selector without depending on it, so the trace crate
/// (and its CLI) stay dependency-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scheme {
    /// Untagged legacy pointer.
    Legacy,
    /// Local-offset scheme (metadata record after the object).
    LocalOffset,
    /// Subheap scheme (shared per-block metadata).
    Subheap,
    /// Global-table scheme (row in the global metadata table).
    GlobalTable,
}

impl Scheme {
    /// Stable lower-case name used in JSONL.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Legacy => "legacy",
            Scheme::LocalOffset => "local_offset",
            Scheme::Subheap => "subheap",
            Scheme::GlobalTable => "global_table",
        }
    }

    /// Inverse of [`Scheme::name`].
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "legacy" => Scheme::Legacy,
            "local_offset" => Scheme::LocalOffset,
            "subheap" => Scheme::Subheap,
            "global_table" => Scheme::GlobalTable,
            _ => return None,
        })
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which memory region an allocation event concerns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Region {
    /// Heap object (wrapped or subheap allocator).
    Heap,
    /// Tracked stack object.
    Stack,
    /// Registered global.
    Global,
}

impl Region {
    /// Stable lower-case name used in JSONL.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Region::Heap => "heap",
            Region::Stack => "stack",
            Region::Global => "global",
        }
    }

    /// Inverse of [`Region::name`].
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "heap" => Region::Heap,
            "stack" => Region::Stack,
            "global" => Region::Global,
            _ => return None,
        })
    }
}

/// Promote lookup classification (mirror of the hardware crate's
/// `PromoteKind`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PromoteOutcome {
    /// Input poison bits were invalid; no lookup.
    PoisonedInput,
    /// NULL bypass.
    NullBypass,
    /// Legacy bypass.
    LegacyBypass,
    /// Metadata lookup performed.
    Valid,
}

impl PromoteOutcome {
    /// Stable lower-case name used in JSONL.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PromoteOutcome::PoisonedInput => "poisoned_input",
            PromoteOutcome::NullBypass => "null_bypass",
            PromoteOutcome::LegacyBypass => "legacy_bypass",
            PromoteOutcome::Valid => "valid",
        }
    }

    /// Inverse of [`PromoteOutcome::name`].
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "poisoned_input" => PromoteOutcome::PoisonedInput,
            "null_bypass" => PromoteOutcome::NullBypass,
            "legacy_bypass" => PromoteOutcome::LegacyBypass,
            "valid" => PromoteOutcome::Valid,
            _ => return None,
        })
    }
}

/// Narrowing-stage classification (mirror of the hardware crate's
/// `Narrowing`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NarrowOutcome {
    /// No subobject index; narrowing not requested.
    NotAttempted,
    /// Requested but no layout table: bounds coarsened to the object.
    Coarsened,
    /// Narrowed to the subobject.
    Narrowed,
    /// Malformed layout table: output poisoned.
    Failed,
}

impl NarrowOutcome {
    /// Stable lower-case name used in JSONL.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            NarrowOutcome::NotAttempted => "none",
            NarrowOutcome::Coarsened => "coarsened",
            NarrowOutcome::Narrowed => "narrowed",
            NarrowOutcome::Failed => "failed",
        }
    }

    /// Inverse of [`NarrowOutcome::name`].
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "none" => NarrowOutcome::NotAttempted,
            "coarsened" => NarrowOutcome::Coarsened,
            "narrowed" => NarrowOutcome::Narrowed,
            "failed" => NarrowOutcome::Failed,
            _ => return None,
        })
    }
}

/// Tag-mutating instruction kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TagOp {
    /// `ifpadd`: address arithmetic with granule-offset maintenance.
    IfpAdd,
    /// `ifpidx`: subobject index update.
    IfpIdx,
    /// `ifpextract`/demote: poison refresh before a pointer store.
    Demote,
}

impl TagOp {
    /// Stable lower-case name used in JSONL.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TagOp::IfpAdd => "ifpadd",
            TagOp::IfpIdx => "ifpidx",
            TagOp::Demote => "demote",
        }
    }

    /// Inverse of [`TagOp::name`].
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "ifpadd" => TagOp::IfpAdd,
            "ifpidx" => TagOp::IfpIdx,
            "demote" => TagOp::Demote,
            _ => return None,
        })
    }
}

/// Temporal-violation classification, shared by the temporal trap kind
/// and the temporal-trap event payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TemporalKind {
    /// An access touched memory whose allocation has been freed.
    UseAfterFree,
    /// A free targeted an allocation that was already freed.
    DoubleFree,
}

impl TemporalKind {
    /// Stable lower-case name used in JSONL.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TemporalKind::UseAfterFree => "use_after_free",
            TemporalKind::DoubleFree => "double_free",
        }
    }

    /// Inverse of [`TemporalKind::name`].
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "use_after_free" => TemporalKind::UseAfterFree,
            "double_free" => TemporalKind::DoubleFree,
            _ => return None,
        })
    }
}

impl fmt::Display for TemporalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemporalKind::UseAfterFree => f.write_str("use-after-free"),
            TemporalKind::DoubleFree => f.write_str("double free"),
        }
    }
}

/// Trap classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrapKind {
    /// Access through a poisoned pointer.
    Poisoned,
    /// Access-size bounds check failed.
    Bounds,
    /// Page fault in the pipeline.
    Mem,
    /// Page fault during a promote metadata fetch.
    MemPromote,
    /// A temporal-safety check failed (use-after-free or double free).
    Temporal,
}

impl TrapKind {
    /// Stable lower-case name used in JSONL.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TrapKind::Poisoned => "poisoned",
            TrapKind::Bounds => "bounds",
            TrapKind::Mem => "mem",
            TrapKind::MemPromote => "mem_promote",
            TrapKind::Temporal => "temporal",
        }
    }

    /// Inverse of [`TrapKind::name`].
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "poisoned" => TrapKind::Poisoned,
            "bounds" => TrapKind::Bounds,
            "mem" => TrapKind::Mem,
            "mem_promote" => TrapKind::MemPromote,
            "temporal" => TrapKind::Temporal,
            _ => return None,
        })
    }

    /// Whether this trap is a memory-safety detection (spatial or
    /// temporal).
    #[must_use]
    pub fn is_safety(self) -> bool {
        matches!(
            self,
            TrapKind::Poisoned | TrapKind::Bounds | TrapKind::Temporal
        )
    }
}

/// Event categories — the unit of the enable mask and sampling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Category {
    /// Object allocations.
    Alloc,
    /// Object frees.
    Free,
    /// `promote` executions.
    Promote,
    /// Implicit/explicit access checks (pass and fail).
    Check,
    /// Tag mutations (`ifpadd`/`ifpidx`/demote).
    Tag,
    /// Metadata MAC verifications.
    Mac,
    /// Metadata-fetch cache accesses.
    Cache,
    /// Traps.
    Trap,
    /// Temporal lock revocations (allocation identity invalidated at
    /// free).
    Revoke,
    /// Quarantine transitions (deferred reuse enter/drain).
    Quarantine,
    /// Temporal-safety trap detail records (freed allocation, reuse
    /// distance).
    TemporalTrap,
}

impl Category {
    /// Number of categories (size of per-category counter arrays).
    pub const COUNT: usize = 11;

    /// All categories, in bit order.
    pub const ALL: [Category; Category::COUNT] = [
        Category::Alloc,
        Category::Free,
        Category::Promote,
        Category::Check,
        Category::Tag,
        Category::Mac,
        Category::Cache,
        Category::Trap,
        Category::Revoke,
        Category::Quarantine,
        Category::TemporalTrap,
    ];

    /// The category's bit position in a [`CategoryMask`].
    #[must_use]
    pub fn bit(self) -> u32 {
        match self {
            Category::Alloc => 0,
            Category::Free => 1,
            Category::Promote => 2,
            Category::Check => 3,
            Category::Tag => 4,
            Category::Mac => 5,
            Category::Cache => 6,
            Category::Trap => 7,
            Category::Revoke => 8,
            Category::Quarantine => 9,
            Category::TemporalTrap => 10,
        }
    }

    /// Stable lower-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Category::Alloc => "alloc",
            Category::Free => "free",
            Category::Promote => "promote",
            Category::Check => "check",
            Category::Tag => "tag",
            Category::Mac => "mac",
            Category::Cache => "cache",
            Category::Trap => "trap",
            Category::Revoke => "revoke",
            Category::Quarantine => "quarantine",
            Category::TemporalTrap => "temporal-trap",
        }
    }

    /// Inverse of [`Category::name`] (used by the CLI `--category`
    /// filter).
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Category::ALL.into_iter().find(|c| c.name() == s)
    }
}

/// A bitmask of enabled [`Category`]s. The all-zero mask is the
/// zero-cost disabled mode: recording reduces to one mask test.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CategoryMask(pub u32);

impl CategoryMask {
    /// Nothing enabled (tracing off).
    pub const NONE: CategoryMask = CategoryMask(0);
    /// Everything enabled.
    pub const ALL: CategoryMask = CategoryMask((1 << Category::COUNT) - 1);

    /// Whether `cat` is enabled.
    #[inline]
    #[must_use]
    pub fn contains(self, cat: Category) -> bool {
        self.0 & (1 << cat.bit()) != 0
    }

    /// This mask with `cat` enabled.
    #[must_use]
    pub fn with(self, cat: Category) -> Self {
        CategoryMask(self.0 | (1 << cat.bit()))
    }

    /// This mask with `cat` disabled.
    #[must_use]
    pub fn without(self, cat: Category) -> Self {
        CategoryMask(self.0 & !(1 << cat.bit()))
    }

    /// Whether any category is enabled.
    #[inline]
    #[must_use]
    pub fn any(self) -> bool {
        self.0 != 0
    }
}

impl Default for CategoryMask {
    fn default() -> Self {
        CategoryMask::NONE
    }
}

/// What happened. One variant per [`Category`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// An object was allocated (and, for tracked objects, registered with
    /// the metadata machinery).
    Alloc {
        /// Object base address.
        addr: u64,
        /// Object size in bytes.
        size: u64,
        /// Metadata scheme of the returned pointer.
        scheme: Scheme,
        /// Region the object lives in.
        region: Region,
    },
    /// An object was freed.
    Free {
        /// Object base address.
        addr: u64,
    },
    /// A `promote` executed.
    Promote {
        /// Address bits of the input pointer.
        ptr: u64,
        /// Lookup classification.
        kind: PromoteOutcome,
        /// Narrowing-stage classification.
        narrowing: NarrowOutcome,
        /// Subobject index carried by the input tag (0 = whole object).
        sub_index: u16,
        /// Lower bound of the retrieved bounds (0 when cleared).
        lower: u64,
        /// Upper bound of the retrieved bounds (0 when cleared).
        upper: u64,
        /// Metadata words fetched.
        fetches: u32,
        /// L1 misses among those fetches.
        misses: u32,
    },
    /// An access check ran (implicit LSU check or fused `ifpchk`).
    Check {
        /// Access address.
        addr: u64,
        /// Access size in bytes.
        size: u64,
        /// Lower bound checked against (0 when only poison was checked).
        lower: u64,
        /// Upper bound checked against.
        upper: u64,
        /// Whether the check passed.
        passed: bool,
    },
    /// A tag-mutating instruction executed.
    Tag {
        /// Which instruction.
        op: TagOp,
        /// Address bits of the resulting pointer.
        ptr: u64,
    },
    /// A metadata MAC was verified.
    Mac {
        /// Address of the metadata record.
        addr: u64,
        /// Whether verification succeeded.
        ok: bool,
    },
    /// A metadata fetch went through the cache hierarchy.
    Cache {
        /// Fetch address.
        addr: u64,
        /// Whether it hit in the L1.
        hit: bool,
    },
    /// A trap was raised.
    Trap {
        /// Trap classification.
        kind: TrapKind,
        /// Faulting address.
        addr: u64,
        /// Access size (0 when unknown).
        size: u64,
        /// Lower bound involved (0 when none).
        lower: u64,
        /// Upper bound involved (0 when none).
        upper: u64,
    },
    /// An allocation's temporal lock was revoked at free: its key no
    /// longer opens the region.
    Revoke {
        /// Freed object base address.
        addr: u64,
        /// Freed object size in bytes.
        size: u64,
        /// The allocation key (lifetime identity) being revoked.
        key: u64,
    },
    /// A freed region entered (or drained from) the quarantine.
    Quarantine {
        /// Region base address.
        addr: u64,
        /// Region size in bytes.
        size: u64,
        /// Bytes held in quarantine after this transition.
        pending_bytes: u64,
        /// `false` when the region entered quarantine, `true` when it
        /// drained back to the allocator for reuse.
        drained: bool,
    },
    /// Detail record for a temporal-safety violation, emitted alongside
    /// the trap so forensics can name the freed allocation.
    TemporalTrap {
        /// Faulting address (the free target for double frees).
        addr: u64,
        /// Violation classification.
        kind: TemporalKind,
        /// Base of the freed allocation involved.
        freed_base: u64,
        /// Size of the freed allocation involved.
        freed_size: u64,
        /// Allocations performed between the free and this violation.
        reuse_distance: u64,
    },
}

impl EventKind {
    /// The category this event belongs to.
    #[inline]
    #[must_use]
    pub fn category(&self) -> Category {
        match self {
            EventKind::Alloc { .. } => Category::Alloc,
            EventKind::Free { .. } => Category::Free,
            EventKind::Promote { .. } => Category::Promote,
            EventKind::Check { .. } => Category::Check,
            EventKind::Tag { .. } => Category::Tag,
            EventKind::Mac { .. } => Category::Mac,
            EventKind::Cache { .. } => Category::Cache,
            EventKind::Trap { .. } => Category::Trap,
            EventKind::Revoke { .. } => Category::Revoke,
            EventKind::Quarantine { .. } => Category::Quarantine,
            EventKind::TemporalTrap { .. } => Category::TemporalTrap,
        }
    }
}

/// One recorded event: a sequence number, the function it occurred in
/// (index into a name table; [`NO_FUNC`] when unattributed) and the
/// payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number (increments per event passing the mask,
    /// before sampling — gaps in `seq` reveal sampled-out events).
    pub seq: u64,
    /// Function-name index.
    pub func: u32,
    /// The payload.
    pub kind: EventKind,
}

fn hex(f: &mut String, key: &str, v: u64) {
    use fmt::Write;
    write!(f, ",\"{key}\":\"{v:#x}\"").expect("string write");
}

fn num(f: &mut String, key: &str, v: u64) {
    use fmt::Write;
    write!(f, ",\"{key}\":{v}").expect("string write");
}

/// Writes `,"key":"v"` with `v` escaped as a JSON string: `"` and `\`
/// get a backslash, control characters the short or `\u00XX` form.
/// Function names come from the program builder and may hold anything.
fn str_field(f: &mut String, key: &str, v: &str) {
    use fmt::Write;
    write!(f, ",\"{key}\":\"").expect("string write");
    for c in v.chars() {
        match c {
            '"' => f.push_str("\\\""),
            '\\' => f.push_str("\\\\"),
            '\n' => f.push_str("\\n"),
            '\r' => f.push_str("\\r"),
            '\t' => f.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                write!(f, "\\u{:04x}", u32::from(c)).expect("string write");
            }
            c => f.push(c),
        }
    }
    f.push('"');
}

fn bool_field(f: &mut String, key: &str, v: bool) {
    use fmt::Write;
    write!(f, ",\"{key}\":{v}").expect("string write");
}

impl TraceEvent {
    /// Renders the event as one JSON object (no trailing newline).
    ///
    /// Addresses are emitted as `"0x…"` hex strings (JSON numbers lose
    /// precision past 2^53; raw tagged pointers use all 64 bits); counts
    /// and sizes as numbers; outcomes as strings.
    #[must_use]
    pub fn to_json(&self, funcs: &[String]) -> String {
        let mut s = String::with_capacity(128);
        s.push('{');
        {
            use fmt::Write;
            write!(s, "\"seq\":{}", self.seq).expect("string write");
        }
        let fname = funcs.get(self.func as usize).map_or("?", |n| n.as_str());
        str_field(&mut s, "func", fname);
        match self.kind {
            EventKind::Alloc {
                addr,
                size,
                scheme,
                region,
            } => {
                str_field(&mut s, "kind", "alloc");
                hex(&mut s, "addr", addr);
                num(&mut s, "size", size);
                str_field(&mut s, "scheme", scheme.name());
                str_field(&mut s, "region", region.name());
            }
            EventKind::Free { addr } => {
                str_field(&mut s, "kind", "free");
                hex(&mut s, "addr", addr);
            }
            EventKind::Promote {
                ptr,
                kind,
                narrowing,
                sub_index,
                lower,
                upper,
                fetches,
                misses,
            } => {
                str_field(&mut s, "kind", "promote");
                hex(&mut s, "ptr", ptr);
                str_field(&mut s, "promote", kind.name());
                str_field(&mut s, "narrowing", narrowing.name());
                num(&mut s, "sub_index", u64::from(sub_index));
                hex(&mut s, "lower", lower);
                hex(&mut s, "upper", upper);
                num(&mut s, "fetches", u64::from(fetches));
                num(&mut s, "misses", u64::from(misses));
            }
            EventKind::Check {
                addr,
                size,
                lower,
                upper,
                passed,
            } => {
                str_field(&mut s, "kind", "check");
                hex(&mut s, "addr", addr);
                num(&mut s, "size", size);
                hex(&mut s, "lower", lower);
                hex(&mut s, "upper", upper);
                bool_field(&mut s, "passed", passed);
            }
            EventKind::Tag { op, ptr } => {
                str_field(&mut s, "kind", "tag");
                str_field(&mut s, "op", op.name());
                hex(&mut s, "ptr", ptr);
            }
            EventKind::Mac { addr, ok } => {
                str_field(&mut s, "kind", "mac");
                hex(&mut s, "addr", addr);
                bool_field(&mut s, "ok", ok);
            }
            EventKind::Cache { addr, hit } => {
                str_field(&mut s, "kind", "cache");
                hex(&mut s, "addr", addr);
                bool_field(&mut s, "hit", hit);
            }
            EventKind::Trap {
                kind,
                addr,
                size,
                lower,
                upper,
            } => {
                str_field(&mut s, "kind", "trap");
                str_field(&mut s, "trap", kind.name());
                hex(&mut s, "addr", addr);
                num(&mut s, "size", size);
                hex(&mut s, "lower", lower);
                hex(&mut s, "upper", upper);
            }
            EventKind::Revoke { addr, size, key } => {
                str_field(&mut s, "kind", "revoke");
                hex(&mut s, "addr", addr);
                num(&mut s, "size", size);
                num(&mut s, "key", key);
            }
            EventKind::Quarantine {
                addr,
                size,
                pending_bytes,
                drained,
            } => {
                str_field(&mut s, "kind", "quarantine");
                hex(&mut s, "addr", addr);
                num(&mut s, "size", size);
                num(&mut s, "pending_bytes", pending_bytes);
                bool_field(&mut s, "drained", drained);
            }
            EventKind::TemporalTrap {
                addr,
                kind,
                freed_base,
                freed_size,
                reuse_distance,
            } => {
                str_field(&mut s, "kind", "temporal-trap");
                hex(&mut s, "addr", addr);
                str_field(&mut s, "temporal", kind.name());
                hex(&mut s, "freed_base", freed_base);
                num(&mut s, "freed_size", freed_size);
                num(&mut s, "reuse_distance", reuse_distance);
            }
        }
        s.push('}');
        s
    }

    /// Short stable name of the event's kind (matches the JSONL `kind`
    /// field).
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        self.kind.category().name()
    }
}
