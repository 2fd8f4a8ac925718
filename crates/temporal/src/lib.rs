//! Lock-and-key temporal safety modeling for the In-Fat Pointer
//! reproduction.
//!
//! The paper's design is spatial-only, but its metadata machinery is the
//! natural substrate for temporal enforcement: the per-allocation
//! metadata record (whose MAC the wrapped allocator already zeroes on
//! free) acts as the **lock**, and a per-allocation **key** — the
//! allocation's position in the global allocation order — travels with
//! the pointer while it stays in registers. This crate is the pure
//! model: an allocation-epoch registry that stamps a key at `malloc`,
//! revokes the lock at `free`, and answers liveness queries for the
//! VM's implicit checks. It knows nothing about the simulated machine;
//! `ifp-alloc` and `ifp-vm` drive it.
//!
//! Three enforcement policies are pluggable via [`TemporalPolicy`]:
//!
//! * **Key-check** ([`TemporalPolicy::KeyCheck`]) — the full
//!   lock-and-key discipline: an access whose stamped key does not match
//!   the live allocation currently covering the address is a
//!   use-after-free, and any access into a revoked (freed, not yet
//!   reused) region traps. Double frees are caught by the revoked-region
//!   registry. This mirrors Zhou et al.'s fat-pointer lock-and-key
//!   checking.
//! * **Tag cycling** ([`TemporalPolicy::TagCycle`]) — an MTE/xTag-style
//!   scheme: each allocation generation of a region carries a small
//!   cycling tag derived from the key ([`tag_of`]); a stale pointer is
//!   caught iff its generation tag differs from the current one, so
//!   detection lapses every [`TAG_PERIOD`] generations (the *reuse
//!   window*). Consecutive generations always differ.
//! * **Quarantine** ([`TemporalPolicy::Quarantine`]) — size-classed
//!   deferred reuse: freed regions are parked per size class until the
//!   class exceeds its byte budget, and while parked the memory cannot
//!   be reallocated, so *any* access to it is a deterministic
//!   use-after-free hit. Detection is purely address-based (no key
//!   needed) but lapses once a region drains and is reused — the
//!   classic ASan-quarantine miss.
//!
//! All policies share the registry: `Off` disables every hook, so the
//! spatial-only configurations are bit-identical to the pre-temporal
//! simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

pub mod reclaim;

pub use ifp_trace::TemporalKind;

/// Generations per tag cycle under [`TemporalPolicy::TagCycle`]: a
/// 4-bit tag with value 0 reserved for "untagged" leaves 15 usable
/// generations before the cycle wraps and a stale pointer aliases the
/// current generation again.
pub const TAG_PERIOD: u64 = 15;

/// Default per-size-class quarantine byte budget.
pub const DEFAULT_QUARANTINE_BUDGET: u64 = 64 * 1024;

/// The temporal generation tag for allocation key `key` (1-based).
/// Cycles through `1..=15`; 0 is reserved for "untagged".
#[must_use]
pub fn tag_of(key: u64) -> u8 {
    debug_assert!(key >= 1, "keys are 1-based");
    ((key - 1) % TAG_PERIOD + 1) as u8
}

/// Which temporal enforcement policy is active.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TemporalPolicy {
    /// No temporal modeling (the paper's spatial-only configuration).
    #[default]
    Off,
    /// Deterministic lock-and-key checking.
    KeyCheck,
    /// MTE-style cycling generation tags with a [`TAG_PERIOD`]-wide
    /// reuse window.
    TagCycle,
    /// Size-classed quarantine with deferred reuse.
    Quarantine,
}

impl TemporalPolicy {
    /// Every policy, in evaluation order.
    pub const ALL: [TemporalPolicy; 4] = [
        TemporalPolicy::Off,
        TemporalPolicy::KeyCheck,
        TemporalPolicy::TagCycle,
        TemporalPolicy::Quarantine,
    ];

    /// The enforcing policies (everything but `Off`).
    pub const ENFORCING: [TemporalPolicy; 3] = [
        TemporalPolicy::KeyCheck,
        TemporalPolicy::TagCycle,
        TemporalPolicy::Quarantine,
    ];

    /// Stable lower-case name (CLI vocabulary).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TemporalPolicy::Off => "off",
            TemporalPolicy::KeyCheck => "key-check",
            TemporalPolicy::TagCycle => "tag-cycle",
            TemporalPolicy::Quarantine => "quarantine",
        }
    }

    /// Inverse of [`TemporalPolicy::name`].
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        TemporalPolicy::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Whether any temporal hook runs under this policy.
    #[must_use]
    pub fn enabled(self) -> bool {
        self != TemporalPolicy::Off
    }
}

impl fmt::Display for TemporalPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Counters the VM folds into its `RunStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TemporalStats {
    /// Allocations that received a key.
    pub stamped: u64,
    /// Frees whose lock was revoked.
    pub revoked: u64,
    /// Frees that entered quarantine.
    pub quarantined: u64,
    /// Quarantined regions drained back to the allocator.
    pub drained: u64,
    /// Liveness checks performed.
    pub checks: u64,
    /// Violations detected (use-after-free + double free).
    pub violations: u64,
}

/// A detected temporal violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TemporalViolation {
    /// Classification.
    pub kind: TemporalKind,
    /// The faulting address (the free target for double frees).
    pub addr: u64,
    /// Base of the freed allocation involved.
    pub freed_base: u64,
    /// Size of the freed allocation involved.
    pub freed_size: u64,
    /// Allocations performed between the free and the violation.
    pub reuse_distance: u64,
}

/// What a `free` meant, temporally. Drives the allocator integration:
/// `Quarantined` defers the underlying release and lists what must be
/// released *instead* (drained earlier arrivals of the size class).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FreeOutcome {
    /// The address is not a tracked live allocation (policy off, or a
    /// pointer the registry never saw) — fall through to the allocator's
    /// own handling.
    NotTracked,
    /// The address was already freed: a double free.
    DoubleFree(TemporalViolation),
    /// The lock was revoked; the underlying release proceeds now.
    Revoked {
        /// The revoked allocation's key.
        key: u64,
        /// The allocation's size.
        size: u64,
    },
    /// The region entered quarantine; the underlying release is
    /// deferred. The listed `(base, size)` regions drained out of
    /// quarantine and must be released now in their place.
    Quarantined {
        /// The revoked allocation's key.
        key: u64,
        /// The allocation's size.
        size: u64,
        /// Bytes held in quarantine after this transition.
        pending_bytes: u64,
        /// Regions that drained and must be released by the caller.
        drained: Vec<(u64, u64)>,
    },
}

#[derive(Clone, Copy, Debug)]
struct LiveRegion {
    size: u64,
    key: u64,
}

#[derive(Clone, Copy, Debug)]
struct RevokedRegion {
    size: u64,
    /// Allocation count at the moment of the free (reuse distance =
    /// current count − this).
    freed_at: u64,
    quarantined: bool,
}

#[derive(Clone, Copy, Debug)]
struct FreedKey {
    base: u64,
    size: u64,
    freed_at: u64,
}

/// The allocation-epoch registry: every tracked allocation's lifetime
/// identity, the revoked-region map, and the quarantine.
///
/// # Examples
///
/// ```
/// use ifp_temporal::{FreeOutcome, TemporalPolicy, TemporalState};
///
/// let mut t = TemporalState::new(TemporalPolicy::KeyCheck);
/// let key = t.on_alloc(0x1000, 64);
/// assert_eq!(t.check(0x1010, Some(key)), None); // live, key matches
/// assert!(matches!(t.on_free(0x1000), FreeOutcome::Revoked { .. }));
/// // The region is revoked: any access into it is a use-after-free.
/// assert!(t.check(0x1010, Some(key)).is_some());
/// // Freeing it again is a double free.
/// assert!(matches!(t.on_free(0x1000), FreeOutcome::DoubleFree(_)));
/// ```
#[derive(Clone, Debug)]
pub struct TemporalState {
    policy: TemporalPolicy,
    quarantine_budget: u64,
    live: BTreeMap<u64, LiveRegion>,
    revoked: BTreeMap<u64, RevokedRegion>,
    /// Every key ever revoked, for stale-stamp attribution after the
    /// memory has been reused (the revoked-region record is gone then).
    freed_keys: BTreeMap<u64, FreedKey>,
    /// Per-size-class quarantine FIFOs (class = padded power of two).
    fifos: BTreeMap<u64, VecDeque<u64>>,
    class_bytes: BTreeMap<u64, u64>,
    pending_bytes: u64,
    /// Total allocations ever stamped (reuse-distance clock).
    allocs: u64,
    next_key: u64,
    /// `[lo, hi)` covering every region ever registered. Revoked regions
    /// were live once, so an address outside it is in neither map.
    envelope: (u64, u64),
    /// `(base, end)` of each key's live region, indexed by `key - 1`;
    /// `(0, 0)` once the key is no longer live.
    live_by_key: Vec<(u64, u64)>,
    /// Whether no live region was ever registered overlapping another.
    /// The key-indexed fast path relies on it: with disjoint regions, a
    /// key's own region is exactly what `containing` finds.
    live_disjoint: bool,
    /// Counters for `RunStats`.
    pub stats: TemporalStats,
}

fn size_class(size: u64) -> u64 {
    size.max(16).next_power_of_two()
}

fn containing<T: Copy>(
    map: &BTreeMap<u64, T>,
    addr: u64,
    size: impl Fn(&T) -> u64,
) -> Option<(u64, T)> {
    let (&base, r) = map.range(..=addr).next_back()?;
    (addr < base + size(r)).then_some((base, *r))
}

impl TemporalState {
    /// A registry enforcing `policy` with the default quarantine budget.
    #[must_use]
    pub fn new(policy: TemporalPolicy) -> Self {
        TemporalState::with_quarantine_budget(policy, DEFAULT_QUARANTINE_BUDGET)
    }

    /// A registry with an explicit per-size-class quarantine byte
    /// budget (only meaningful under [`TemporalPolicy::Quarantine`]).
    #[must_use]
    pub fn with_quarantine_budget(policy: TemporalPolicy, budget: u64) -> Self {
        TemporalState {
            policy,
            quarantine_budget: budget,
            live: BTreeMap::new(),
            revoked: BTreeMap::new(),
            freed_keys: BTreeMap::new(),
            fifos: BTreeMap::new(),
            class_bytes: BTreeMap::new(),
            pending_bytes: 0,
            allocs: 0,
            next_key: 1,
            envelope: (u64::MAX, 0),
            live_by_key: Vec::new(),
            live_disjoint: true,
            stats: TemporalStats::default(),
        }
    }

    /// The active policy.
    #[must_use]
    pub fn policy(&self) -> TemporalPolicy {
        self.policy
    }

    /// Whether any hook runs (false under [`TemporalPolicy::Off`]).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.policy.enabled()
    }

    /// Bytes currently held in quarantine.
    #[must_use]
    pub fn pending_bytes(&self) -> u64 {
        self.pending_bytes
    }

    /// Registers an allocation and returns its key (the stamp the VM
    /// carries alongside the pointer's bounds). Returns 0 when the
    /// policy is off.
    pub fn on_alloc(&mut self, base: u64, size: u64) -> u64 {
        if !self.enabled() {
            return 0;
        }
        self.allocs += 1;
        let key = self.next_key;
        self.next_key += 1;
        // The allocator reused this range, so any revoked (drained)
        // record covering it is dead history now. Quarantined records
        // can never overlap: the allocator still holds that memory.
        let end = base + size.max(1);
        let mut stale = Vec::new();
        for (&b, r) in self.revoked.range(..end).rev() {
            // Revoked records are pairwise disjoint, so the walk down
            // from `end` can stop at the first record entirely below
            // `base`.
            if b + r.size.max(1) <= base {
                break;
            }
            if !r.quarantined {
                stale.push(b);
            }
        }
        for b in stale {
            self.revoked.remove(&b);
        }
        // A region nested in or straddling a live one (rather than
        // replacing it at the same base) makes `containing` answer with
        // the innermost base, not the key's own region.
        if let Some((&b, r)) = self.live.range(..base + size).next_back() {
            if b > base || (b < base && base < b + r.size) {
                self.live_disjoint = false;
            }
        }
        if let Some(old) = self.live.insert(base, LiveRegion { size, key }) {
            self.live_by_key[old.key as usize - 1] = (0, 0);
        }
        self.live_by_key.push((base, base + size));
        self.envelope = (self.envelope.0.min(base), self.envelope.1.max(end));
        self.stats.stamped += 1;
        key
    }

    /// Processes a free. See [`FreeOutcome`] for how the caller must
    /// react (in particular: defer the underlying release for
    /// `Quarantined` and release the drained regions instead).
    pub fn on_free(&mut self, base: u64) -> FreeOutcome {
        if !self.enabled() {
            return FreeOutcome::NotTracked;
        }
        if let Some(r) = self.live.remove(&base) {
            self.live_by_key[r.key as usize - 1] = (0, 0);
            self.freed_keys.insert(
                r.key,
                FreedKey {
                    base,
                    size: r.size,
                    freed_at: self.allocs,
                },
            );
            let quarantined = self.policy == TemporalPolicy::Quarantine;
            self.revoked.insert(
                base,
                RevokedRegion {
                    size: r.size,
                    freed_at: self.allocs,
                    quarantined,
                },
            );
            self.stats.revoked += 1;
            if !quarantined {
                return FreeOutcome::Revoked {
                    key: r.key,
                    size: r.size,
                };
            }
            self.stats.quarantined += 1;
            let class = size_class(r.size);
            self.fifos.entry(class).or_default().push_back(base);
            *self.class_bytes.entry(class).or_insert(0) += r.size;
            self.pending_bytes += r.size;
            let mut drained = Vec::new();
            while self.class_bytes[&class] > self.quarantine_budget {
                let Some(victim) = self.fifos.get_mut(&class).and_then(VecDeque::pop_front) else {
                    break;
                };
                let vr = self
                    .revoked
                    .get_mut(&victim)
                    .expect("quarantined region has a revoked record");
                vr.quarantined = false;
                *self.class_bytes.get_mut(&class).expect("class exists") -= vr.size;
                self.pending_bytes -= vr.size;
                self.stats.drained += 1;
                drained.push((victim, vr.size));
            }
            return FreeOutcome::Quarantined {
                key: r.key,
                size: r.size,
                pending_bytes: self.pending_bytes,
                drained,
            };
        }
        if let Some((rbase, r)) = containing(&self.revoked, base, |r| r.size) {
            self.stats.violations += 1;
            return FreeOutcome::DoubleFree(TemporalViolation {
                kind: TemporalKind::DoubleFree,
                addr: base,
                freed_base: rbase,
                freed_size: r.size,
                reuse_distance: self.allocs - r.freed_at,
            });
        }
        FreeOutcome::NotTracked
    }

    /// The liveness check the VM runs alongside every bounds check:
    /// `addr` is the access start, `stamp` the key riding with the
    /// pointer register (`None` for unkeyed pointers — ones that round-
    /// tripped through memory, or pre-temporal flows). Returns the
    /// violation to trap on, if any.
    ///
    /// Two O(1) fast paths answer the common cases without a map lookup:
    /// an address outside every region ever registered (stack and
    /// globals), and a keyed access inside its own live region.
    pub fn check(&mut self, addr: u64, stamp: Option<u64>) -> Option<TemporalViolation> {
        if !self.enabled() {
            return None;
        }
        self.stats.checks += 1;
        let own_region = || {
            let (base, end) = stamp
                .and_then(|k| self.live_by_key.get(k.wrapping_sub(1) as usize))
                .copied()
                .unwrap_or_default();
            self.live_disjoint && base <= addr && addr < end
        };
        if !self.in_envelope(addr) || own_region() {
            debug_assert_eq!(self.classify(addr, stamp), None, "fast path at {addr:#x}");
            return None;
        }
        let v = self.classify(addr, stamp);
        if v.is_some() {
            self.stats.violations += 1;
        }
        v
    }

    fn in_envelope(&self, addr: u64) -> bool {
        self.envelope.0 <= addr && addr < self.envelope.1
    }

    /// [`TemporalState::check`]'s verdict from the region maps alone.
    fn classify(&self, addr: u64, stamp: Option<u64>) -> Option<TemporalViolation> {
        if let Some((_, r)) = containing(&self.live, addr, |r| r.size) {
            // Live region. An unkeyed pointer is never challenged (no
            // false positives on legacy flows); a matching key passes.
            let key = stamp?;
            if key == r.key {
                return None;
            }
            // Stale key into reused memory.
            let caught = match self.policy {
                TemporalPolicy::KeyCheck => true,
                TemporalPolicy::TagCycle => tag_of(key) != tag_of(r.key),
                // Quarantine is address-based: once the region was
                // reused the evidence is gone.
                TemporalPolicy::Quarantine => false,
                TemporalPolicy::Off => unreachable!("checked by the caller"),
            };
            if !caught {
                return None;
            }
            let freed = self.freed_keys.get(&key);
            return Some(TemporalViolation {
                kind: TemporalKind::UseAfterFree,
                addr,
                freed_base: freed.map_or(0, |f| f.base),
                freed_size: freed.map_or(0, |f| f.size),
                reuse_distance: freed.map_or(0, |f| self.allocs - f.freed_at),
            });
        }
        // Freed and not reused (or quarantined): deterministic hit under
        // every enforcing policy, keyed or not.
        containing(&self.revoked, addr, |r| r.size).map(|(rbase, r)| TemporalViolation {
            kind: TemporalKind::UseAfterFree,
            addr,
            freed_base: rbase,
            freed_size: r.size,
            reuse_distance: self.allocs - r.freed_at,
        })
    }

    /// The key of the live allocation covering `addr`, if any — how
    /// `promote` re-stamps a pointer loaded from memory.
    #[must_use]
    pub fn stamp_at(&self, addr: u64) -> Option<u64> {
        if !self.enabled() {
            return None;
        }
        if !self.in_envelope(addr) {
            debug_assert!(containing(&self.live, addr, |r| r.size).is_none());
            return None;
        }
        containing(&self.live, addr, |r| r.size).map(|(_, r)| r.key)
    }

    /// Whether `addr` falls in a revoked (freed, not-yet-reused) region.
    #[must_use]
    pub fn is_revoked(&self, addr: u64) -> bool {
        containing(&self.revoked, addr, |r| r.size).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_check_catches_stale_key_into_reused_memory() {
        let mut t = TemporalState::new(TemporalPolicy::KeyCheck);
        let k1 = t.on_alloc(0x1000, 64);
        assert!(matches!(t.on_free(0x1000), FreeOutcome::Revoked { .. }));
        let k2 = t.on_alloc(0x1000, 64); // allocator reused the chunk
        assert_ne!(k1, k2);
        // New key passes, stale key is a UAF with the freed allocation
        // attributed.
        assert_eq!(t.check(0x1010, Some(k2)), None);
        let v = t.check(0x1010, Some(k1)).expect("stale key caught");
        assert_eq!(v.kind, TemporalKind::UseAfterFree);
        assert_eq!((v.freed_base, v.freed_size), (0x1000, 64));
        assert_eq!(v.reuse_distance, 1);
    }

    #[test]
    fn revoked_region_traps_even_unkeyed() {
        for policy in TemporalPolicy::ENFORCING {
            let mut t = TemporalState::new(policy);
            t.on_alloc(0x2000, 32);
            t.on_free(0x2000);
            let v = t.check(0x2008, None).expect("revoked region access");
            assert_eq!(v.kind, TemporalKind::UseAfterFree);
            assert_eq!(v.freed_base, 0x2000);
        }
    }

    #[test]
    fn double_free_is_deterministic() {
        for policy in TemporalPolicy::ENFORCING {
            let mut t = TemporalState::new(policy);
            t.on_alloc(0x3000, 128);
            let first = t.on_free(0x3000);
            assert!(!matches!(first, FreeOutcome::DoubleFree(_)));
            match t.on_free(0x3000) {
                FreeOutcome::DoubleFree(v) => {
                    assert_eq!(v.kind, TemporalKind::DoubleFree);
                    assert_eq!(v.freed_base, 0x3000);
                }
                other => panic!("{policy}: expected double free, got {other:?}"),
            }
        }
    }

    #[test]
    fn tag_cycle_wraps_after_period_generations() {
        // Keys 1 and 1+TAG_PERIOD share a tag: a stale pointer that old
        // escapes TagCycle but not KeyCheck.
        assert_eq!(tag_of(1), tag_of(1 + TAG_PERIOD));
        assert_ne!(tag_of(1), tag_of(2));
        let mut t = TemporalState::new(TemporalPolicy::TagCycle);
        let k1 = t.on_alloc(0x1000, 64);
        t.on_free(0x1000);
        // TAG_PERIOD - 1 intervening allocations elsewhere, then reuse.
        for i in 0..TAG_PERIOD - 1 {
            t.on_alloc(0x10_0000 + i * 0x100, 64);
        }
        let k2 = t.on_alloc(0x1000, 64);
        assert_eq!(tag_of(k1), tag_of(k2), "cycle wrapped");
        assert_eq!(t.check(0x1010, Some(k1)), None, "aliased tag escapes");
        // One generation earlier it would have been caught.
        let mut t2 = TemporalState::new(TemporalPolicy::TagCycle);
        let k1 = t2.on_alloc(0x1000, 64);
        t2.on_free(0x1000);
        let _k2 = t2.on_alloc(0x1000, 64);
        assert!(t2.check(0x1010, Some(k1)).is_some(), "fresh tag caught");
    }

    #[test]
    fn quarantine_defers_then_drains_per_size_class() {
        let mut t = TemporalState::with_quarantine_budget(TemporalPolicy::Quarantine, 128);
        t.on_alloc(0x1000, 64);
        t.on_alloc(0x2000, 64);
        t.on_alloc(0x3000, 64);
        match t.on_free(0x1000) {
            FreeOutcome::Quarantined {
                pending_bytes,
                drained,
                ..
            } => {
                assert_eq!(pending_bytes, 64);
                assert!(drained.is_empty());
            }
            other => panic!("{other:?}"),
        }
        match t.on_free(0x2000) {
            FreeOutcome::Quarantined { drained, .. } => assert!(drained.is_empty()),
            other => panic!("{other:?}"),
        }
        // Third free of the class exceeds the 128-byte budget: the
        // oldest (0x1000) drains.
        match t.on_free(0x3000) {
            FreeOutcome::Quarantined {
                pending_bytes,
                drained,
                ..
            } => {
                assert_eq!(drained, vec![(0x1000, 64)]);
                assert_eq!(pending_bytes, 128);
            }
            other => panic!("{other:?}"),
        }
        // All three remain revoked — access still trapped.
        assert!(t.is_revoked(0x1000) && t.is_revoked(0x2000) && t.is_revoked(0x3000));
        assert_eq!(t.stats.drained, 1);
    }

    #[test]
    fn benign_realloc_is_clean_under_every_policy() {
        for policy in TemporalPolicy::ENFORCING {
            let mut t = TemporalState::new(policy);
            let k1 = t.on_alloc(0x1000, 64);
            assert_eq!(t.check(0x1000, Some(k1)), None);
            t.on_free(0x1000);
            // Under quarantine the allocator hands out fresh memory; the
            // others reuse. Either way the *new* key is clean.
            let base = if policy == TemporalPolicy::Quarantine {
                0x5000
            } else {
                0x1000
            };
            let k2 = t.on_alloc(base, 64);
            assert_eq!(t.check(base + 8, Some(k2)), None, "{policy}");
            assert!(
                !matches!(t.on_free(base), FreeOutcome::DoubleFree(_)),
                "{policy}"
            );
            assert_eq!(t.stats.violations, 0, "{policy}");
        }
    }

    #[test]
    fn off_policy_is_inert() {
        let mut t = TemporalState::new(TemporalPolicy::Off);
        assert_eq!(t.on_alloc(0x1000, 64), 0);
        assert_eq!(t.on_free(0x1000), FreeOutcome::NotTracked);
        assert_eq!(t.check(0x1000, Some(1)), None);
        assert_eq!(t.stamp_at(0x1000), None);
        assert_eq!(t.stats, TemporalStats::default());
    }

    #[test]
    fn reuse_distance_counts_allocations_since_free() {
        let mut t = TemporalState::new(TemporalPolicy::KeyCheck);
        t.on_alloc(0x1000, 64);
        t.on_free(0x1000);
        for i in 0..5 {
            t.on_alloc(0x2000 + i * 0x100, 16);
        }
        let v = t.check(0x1000, None).unwrap();
        assert_eq!(v.reuse_distance, 5);
    }

    #[test]
    fn reuse_trims_only_drained_records() {
        let mut t = TemporalState::with_quarantine_budget(TemporalPolicy::Quarantine, 64);
        t.on_alloc(0x1000, 64);
        t.on_free(0x1000); // quarantined (fills the budget exactly)
        t.on_alloc(0x2000, 64);
        t.on_free(0x2000); // over budget: 0x1000 drains
        assert!(t.is_revoked(0x1000));
        // The allocator reuses the drained range: its record goes away,
        // the still-quarantined one stays.
        t.on_alloc(0x1000, 64);
        assert!(!t.is_revoked(0x1000));
        assert!(t.is_revoked(0x2000));
    }

    /// The two O(1) fast paths against a reference that answers every
    /// query from the region maps alone, over seeded random histories.
    mod fast_paths {
        use super::*;
        use ifp_testutil::Rng;

        const ARENA: u64 = 0x10_0000;
        const SLOT: u64 = 0x100;
        const SLOTS: u64 = 16;

        /// The registry with both fast paths bypassed: `check` and
        /// `stamp_at` answer through `containing` only.
        struct Reference(TemporalState);

        impl Reference {
            fn check(&mut self, addr: u64, stamp: Option<u64>) -> Option<TemporalViolation> {
                let t = &mut self.0;
                if !t.enabled() {
                    return None;
                }
                t.stats.checks += 1;
                let v = t.classify(addr, stamp);
                t.stats.violations += u64::from(v.is_some());
                v
            }

            fn stamp_at(&self, addr: u64) -> Option<u64> {
                let t = &self.0;
                if !t.enabled() {
                    return None;
                }
                containing(&t.live, addr, |r| r.size).map(|(_, r)| r.key)
            }
        }

        /// An address to probe: inside a slot (live, revoked,
        /// quarantined or never used), at a region base, or outside the
        /// arena the way stack and global accesses are.
        fn probe_addr(rng: &mut Rng, live: &[(u64, u64, u64)]) -> u64 {
            match rng.range_u32(0, 6) {
                0 | 1 => ARENA + rng.range_u64(0, SLOTS * SLOT),
                2 if !live.is_empty() => rng.choose(live).0,
                3 => rng.range_u64(0x1000, 0x2000),
                4 => 0x7fff_0000 + rng.range_u64(0, 0x1000),
                _ => *rng.choose(&[ARENA - 1, ARENA, ARENA + SLOTS * SLOT]),
            }
        }

        /// A stamp to probe with: none, a live key, any key ever issued
        /// (mostly stale), or one never issued.
        fn probe_stamp(rng: &mut Rng, live: &[(u64, u64, u64)], keys: &[u64]) -> Option<u64> {
            match rng.range_u32(0, 6) {
                0 | 1 => None,
                2 if !live.is_empty() => Some(rng.choose(live).2),
                3 | 4 if !keys.is_empty() => Some(*rng.choose(keys)),
                // Keys are 1-based; the VM never carries a 0 stamp while
                // a policy is enforcing.
                _ => {
                    let garbage = rng.u64().max(1);
                    Some(*rng.choose(&[u64::MAX, garbage]))
                }
            }
        }

        /// One seeded history of allocations, frees, double frees,
        /// checks and promotes' `stamp_at`, driven through both
        /// registries. `nested` also registers regions inside live ones,
        /// breaking the disjointness the key fast path relies on.
        fn history(policy: TemporalPolicy, rng: &mut Rng, nested: bool) -> TemporalStats {
            let mut fast = TemporalState::with_quarantine_budget(policy, 4 * SLOT);
            let mut reference = Reference(fast.clone());
            // Slots neither live nor held in quarantine, which is what
            // the allocator may hand out.
            let mut free_slots: Vec<u64> = (0..SLOTS).map(|i| ARENA + i * SLOT).collect();
            // `(base, size, key)` of the slot allocations still live.
            let mut live: Vec<(u64, u64, u64)> = Vec::new();
            let mut freed: Vec<u64> = Vec::new();
            let mut keys: Vec<u64> = Vec::new();
            for _ in 0..300 {
                match rng.range_u32(0, 10) {
                    0 | 1 if !free_slots.is_empty() => {
                        let i = rng.range_usize(0, free_slots.len());
                        let base = free_slots.swap_remove(i);
                        let size = rng.range_u64(1, SLOT + 1);
                        let key = fast.on_alloc(base, size);
                        assert_eq!(reference.0.on_alloc(base, size), key);
                        live.push((base, size, key));
                        keys.push(key);
                    }
                    2 if nested && !live.is_empty() => {
                        let (outer, _, _) = *rng.choose(&live);
                        let base = outer + rng.range_u64(0, SLOT / 2);
                        let size = rng.range_u64(0, SLOT / 2);
                        let key = fast.on_alloc(base, size);
                        assert_eq!(reference.0.on_alloc(base, size), key);
                    }
                    3 | 4 if !live.is_empty() => {
                        let (base, _, _) = live.swap_remove(rng.range_usize(0, live.len()));
                        let outcome = fast.on_free(base);
                        assert_eq!(reference.0.on_free(base), outcome);
                        freed.push(base);
                        match outcome {
                            FreeOutcome::Quarantined { drained, .. } => {
                                free_slots.extend(drained.iter().map(|&(b, _)| b));
                            }
                            FreeOutcome::DoubleFree(_) => {}
                            _ => free_slots.push(base),
                        }
                    }
                    5 if !freed.is_empty() => {
                        let base = *rng.choose(&freed);
                        if !live.iter().any(|&(b, _, _)| b == base) {
                            assert_eq!(reference.0.on_free(base), fast.on_free(base));
                        }
                    }
                    6 => {
                        let addr = probe_addr(rng, &live);
                        assert_eq!(reference.stamp_at(addr), fast.stamp_at(addr), "{addr:#x}");
                    }
                    7 if !live.is_empty() => {
                        // A keyed access at or just past its own region.
                        let (base, size, key) = *rng.choose(&live);
                        let addr = base + rng.range_u64(0, size + 8);
                        assert_eq!(
                            reference.check(addr, Some(key)),
                            fast.check(addr, Some(key)),
                            "{policy}: own-key check({addr:#x}, {key})"
                        );
                    }
                    _ => {
                        let addr = probe_addr(rng, &live);
                        let stamp = probe_stamp(rng, &live, &keys);
                        assert_eq!(
                            reference.check(addr, stamp),
                            fast.check(addr, stamp),
                            "{policy}: check({addr:#x}, {stamp:?})"
                        );
                    }
                }
            }
            assert_eq!(reference.0.stats, fast.stats, "{policy}");
            fast.stats
        }

        #[test]
        fn fast_paths_match_the_map_reference() {
            for policy in TemporalPolicy::ALL {
                let mut totals = TemporalStats::default();
                for case in 0..64 {
                    let mut rng = Rng::stream(0x7e4a, case);
                    let s = history(policy, &mut rng, case % 2 == 1);
                    totals.checks += s.checks;
                    totals.violations += s.violations;
                    totals.drained += s.drained;
                }
                if policy.enabled() {
                    assert!(totals.checks > 0 && totals.violations > 0, "{policy}");
                }
                if policy == TemporalPolicy::Quarantine {
                    assert!(totals.drained > 0, "quarantine never drained");
                }
            }
        }
    }
}
