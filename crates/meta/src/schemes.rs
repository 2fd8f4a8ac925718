//! Object-metadata encodings for the three In-Fat Pointer lookup schemes.
//!
//! Every scheme ultimately resolves to the same [`ObjectMetadata`] — object
//! base, object size and an optional layout-table pointer — but each stores
//! it differently to omit redundant information (paper §3.3):
//!
//! * [`LocalOffsetMeta`] — 16 bytes appended to the object itself; the
//!   object base is *derived* from the metadata address and size.
//! * [`SubheapMeta`] — 32 bytes shared by all slots of a power-of-two
//!   block; the object base is derived by slot arithmetic.
//! * [`GlobalTableRow`] — 16 bytes in the global table; base and size are
//!   stored explicitly.
//!
//! The first two live in application-reachable memory and carry a 48-bit
//! MAC over their fields and location, verified during `promote`.

use crate::mac::{mac48_words, MacKey};
use ifp_tag::{Bounds, LOCAL_OFFSET_GRANULE};
use std::fmt;

/// Scheme-independent resolved object metadata: what every lookup scheme
/// hands to the bounds-narrowing stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectMetadata {
    /// Object base address.
    pub base: u64,
    /// Object size in bytes.
    pub size: u64,
    /// Address of the type's layout table, or 0 when the object has none
    /// (in which case bounds cannot be narrowed below the object).
    pub layout_table: u64,
}

impl ObjectMetadata {
    /// The object bounds.
    #[must_use]
    pub fn bounds(&self) -> Bounds {
        Bounds::from_base_size(self.base, self.size)
    }

    /// Whether subobject narrowing is possible for this object.
    #[must_use]
    pub fn has_layout_table(&self) -> bool {
        self.layout_table != 0
    }
}

/// Error decoding or verifying an object-metadata record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetaError {
    /// The MAC stored in the record does not match the recomputed value.
    BadMac,
    /// A field is structurally impossible (e.g. zero-sized slot array slot).
    Malformed,
    /// The queried address does not fall inside the metadata's slot array.
    OutsideSlots {
        /// The queried address.
        addr: u64,
    },
}

impl fmt::Display for MetaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaError::BadMac => f.write_str("object metadata MAC mismatch"),
            MetaError::Malformed => f.write_str("object metadata is malformed"),
            MetaError::OutsideSlots { addr } => {
                write!(f, "address {addr:#x} falls outside the block's slot array")
            }
        }
    }
}

impl std::error::Error for MetaError {}

/// Domain-separation tags so a record of one scheme cannot be replayed as
/// another scheme's record.
const MAC_DOMAIN_LOCAL: u64 = 0x4c4f_4341_4c00_0001; // "LOCAL"
const MAC_DOMAIN_SUBHEAP: u64 = 0x5355_4248_4541_0002; // "SUBHEA"

/// Rounds `size` up to the local-offset granule.
#[must_use]
pub fn round_up_granule(size: u64) -> u64 {
    size.div_ceil(LOCAL_OFFSET_GRANULE) * LOCAL_OFFSET_GRANULE
}

/// Object metadata for the **local offset scheme** (paper §3.3.1).
///
/// The 128-bit record is appended after the object (object base and
/// metadata base are granule-aligned). The pointer tag stores the offset
/// from the pointer's (granule-truncated) address to this record, so only
/// the size needs to be stored to recover the object base:
/// `base = meta_addr - round_up(size, granule)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LocalOffsetMeta {
    /// Object size in bytes (16 bits in the prototype — max 1008 anyway).
    pub object_size: u16,
    /// Layout-table address, or 0 for none.
    pub layout_table: u64,
    /// 48-bit MAC over the fields and the metadata location.
    pub mac: u64,
}

impl LocalOffsetMeta {
    /// Byte size of the in-memory record.
    pub const SIZE: u64 = 16;

    /// Creates a record with a freshly computed MAC.
    #[must_use]
    pub fn new(object_size: u16, layout_table: u64, meta_addr: u64, key: MacKey) -> Self {
        let mut m = LocalOffsetMeta {
            object_size,
            layout_table,
            mac: 0,
        };
        m.mac = m.compute_mac(meta_addr, key);
        m
    }

    /// The MAC this record should carry when stored at `meta_addr`.
    #[must_use]
    pub fn compute_mac(&self, meta_addr: u64, key: MacKey) -> u64 {
        mac48_words(
            key,
            &[
                MAC_DOMAIN_LOCAL,
                meta_addr,
                u64::from(self.object_size),
                self.layout_table,
            ],
        )
    }

    /// Serializes to the 16-byte image: `size (2) | lt ptr (8) | mac (6)`.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; Self::SIZE as usize] {
        let mut b = [0u8; 16];
        b[0..2].copy_from_slice(&self.object_size.to_le_bytes());
        b[2..10].copy_from_slice(&self.layout_table.to_le_bytes());
        b[10..16].copy_from_slice(&self.mac.to_le_bytes()[..6]);
        b
    }

    /// Deserializes from the 16-byte image.
    #[must_use]
    pub fn from_bytes(b: &[u8; Self::SIZE as usize]) -> Self {
        let mut mac_bytes = [0u8; 8];
        mac_bytes[..6].copy_from_slice(&b[10..16]);
        LocalOffsetMeta {
            object_size: u16::from_le_bytes([b[0], b[1]]),
            layout_table: u64::from_le_bytes(b[2..10].try_into().expect("8 bytes")),
            mac: u64::from_le_bytes(mac_bytes),
        }
    }

    /// Verifies the MAC and resolves to scheme-independent metadata.
    ///
    /// # Errors
    ///
    /// [`MetaError::BadMac`] when the record fails verification —
    /// `promote` poisons the output IFPR in that case.
    pub fn resolve(&self, meta_addr: u64, key: MacKey) -> Result<ObjectMetadata, MetaError> {
        if self.mac != self.compute_mac(meta_addr, key) {
            return Err(MetaError::BadMac);
        }
        let size = u64::from(self.object_size);
        let base = meta_addr - round_up_granule(size);
        Ok(ObjectMetadata {
            base,
            size,
            layout_table: self.layout_table,
        })
    }

    /// Where the metadata record lives for an object at `base` of `size`
    /// bytes: appended after the granule-padded object.
    #[must_use]
    pub fn meta_addr_for(base: u64, size: u64) -> u64 {
        base + round_up_granule(size)
    }
}

/// A subheap control register: maps the 4-bit tag index to the geometry of
/// a block class (paper Figure 7's "implementation defined function").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SubheapCtrl {
    /// log2 of the block size; 0 marks the register unused.
    pub block_shift: u8,
    /// Byte offset from the block base to the [`SubheapMeta`] record.
    pub meta_offset: u32,
}

impl SubheapCtrl {
    /// Whether this control register describes a live block class.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.block_shift != 0
    }

    /// The block size in bytes.
    #[must_use]
    pub fn block_size(&self) -> u64 {
        1u64 << self.block_shift
    }

    /// The base of the power-of-two-aligned block containing `addr`.
    #[must_use]
    pub fn block_base(&self, addr: u64) -> u64 {
        addr & !(self.block_size() - 1)
    }

    /// The metadata address for the block containing `addr`.
    #[must_use]
    pub fn meta_addr(&self, addr: u64) -> u64 {
        self.block_base(addr) + u64::from(self.meta_offset)
    }
}

/// Object metadata for the **subheap scheme** (paper §3.3.2): one 32-byte
/// record per power-of-two block, shared by every slot in the block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubheapMeta {
    /// Offset from block base to the first slot.
    pub slot_start: u32,
    /// Offset from block base past the last slot.
    pub slot_end: u32,
    /// Byte size of one slot (a multiple of 16 so hardware division stays
    /// cheap, per the paper's constraint).
    pub slot_size: u32,
    /// Byte size of the object stored in each slot (`<= slot_size`).
    pub object_size: u32,
    /// Layout-table address, or 0 for none.
    pub layout_table: u64,
    /// 48-bit MAC over the fields and the block location.
    pub mac: u64,
}

impl SubheapMeta {
    /// Byte size of the in-memory record.
    pub const SIZE: u64 = 32;

    /// Creates a record with a freshly computed MAC for a block at
    /// `block_base`.
    #[must_use]
    pub fn new(
        slot_start: u32,
        slot_end: u32,
        slot_size: u32,
        object_size: u32,
        layout_table: u64,
        block_base: u64,
        key: MacKey,
    ) -> Self {
        let mut m = SubheapMeta {
            slot_start,
            slot_end,
            slot_size,
            object_size,
            layout_table,
            mac: 0,
        };
        m.mac = m.compute_mac(block_base, key);
        m
    }

    /// The MAC this record should carry for a block at `block_base`.
    #[must_use]
    pub fn compute_mac(&self, block_base: u64, key: MacKey) -> u64 {
        mac48_words(
            key,
            &[
                MAC_DOMAIN_SUBHEAP,
                block_base,
                u64::from(self.slot_start),
                u64::from(self.slot_end),
                u64::from(self.slot_size),
                u64::from(self.object_size),
                self.layout_table,
            ],
        )
    }

    /// Serializes to the 32-byte image.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; Self::SIZE as usize] {
        let mut b = [0u8; 32];
        b[0..4].copy_from_slice(&self.slot_start.to_le_bytes());
        b[4..8].copy_from_slice(&self.slot_end.to_le_bytes());
        b[8..12].copy_from_slice(&self.slot_size.to_le_bytes());
        b[12..16].copy_from_slice(&self.object_size.to_le_bytes());
        b[16..24].copy_from_slice(&self.layout_table.to_le_bytes());
        b[24..30].copy_from_slice(&self.mac.to_le_bytes()[..6]);
        b
    }

    /// Deserializes from the 32-byte image.
    #[must_use]
    pub fn from_bytes(b: &[u8; Self::SIZE as usize]) -> Self {
        let mut mac_bytes = [0u8; 8];
        mac_bytes[..6].copy_from_slice(&b[24..30]);
        SubheapMeta {
            slot_start: u32::from_le_bytes(b[0..4].try_into().expect("4 bytes")),
            slot_end: u32::from_le_bytes(b[4..8].try_into().expect("4 bytes")),
            slot_size: u32::from_le_bytes(b[8..12].try_into().expect("4 bytes")),
            object_size: u32::from_le_bytes(b[12..16].try_into().expect("4 bytes")),
            layout_table: u64::from_le_bytes(b[16..24].try_into().expect("8 bytes")),
            mac: u64::from_le_bytes(mac_bytes),
        }
    }

    /// Verifies the MAC and resolves the object containing `addr`.
    ///
    /// # Errors
    ///
    /// * [`MetaError::BadMac`] on MAC mismatch;
    /// * [`MetaError::Malformed`] on impossible geometry;
    /// * [`MetaError::OutsideSlots`] when `addr` is in the block but not in
    ///   the slot array (e.g. points at the metadata or padding).
    pub fn resolve(
        &self,
        block_base: u64,
        addr: u64,
        key: MacKey,
    ) -> Result<ObjectMetadata, MetaError> {
        if self.mac != self.compute_mac(block_base, key) {
            return Err(MetaError::BadMac);
        }
        if self.slot_size == 0
            || self.slot_start > self.slot_end
            || self.object_size > self.slot_size
        {
            return Err(MetaError::Malformed);
        }
        let slots_base = block_base + u64::from(self.slot_start);
        let slots_end = block_base + u64::from(self.slot_end);
        if addr < slots_base || addr >= slots_end {
            return Err(MetaError::OutsideSlots { addr });
        }
        let idx = (addr - slots_base) / u64::from(self.slot_size);
        let base = slots_base + idx * u64::from(self.slot_size);
        Ok(ObjectMetadata {
            base,
            size: u64::from(self.object_size),
            layout_table: self.layout_table,
        })
    }
}

/// Object metadata for the **global table scheme** (paper §3.3.3): a
/// 16-byte row in the global metadata table.
///
/// Encoding: word 0 holds the 48-bit base address with a valid flag in the
/// top bit; word 1 holds the 32-bit size and the layout-table address
/// compressed as a count of 16-byte granules (layout tables are 16-byte
/// aligned and must live below 2^36). The table itself lives in memory the
/// application never receives a pointer to, so rows carry no MAC.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct GlobalTableRow {
    /// Object base address (48 bits).
    pub base: u64,
    /// Object size in bytes (32 bits).
    pub size: u32,
    /// Layout-table address, or 0 for none.
    pub layout_table: u64,
    /// Whether the row currently describes a live object.
    pub valid: bool,
}

impl GlobalTableRow {
    /// Byte size of one row.
    pub const SIZE: u64 = 16;

    /// Serializes to the 16-byte image.
    ///
    /// # Panics
    ///
    /// Panics if the layout-table address is not 16-byte aligned or does
    /// not fit the compressed field.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; Self::SIZE as usize] {
        assert_eq!(
            self.layout_table % 16,
            0,
            "layout table must be 16-byte aligned"
        );
        let lt_granules = self.layout_table / 16;
        assert!(
            lt_granules < 1 << 32,
            "layout table address too high to compress"
        );
        let word0 = (self.base & ((1 << 48) - 1)) | (u64::from(self.valid) << 63);
        let word1 = u64::from(self.size) | (lt_granules << 32);
        let mut b = [0u8; 16];
        b[0..8].copy_from_slice(&word0.to_le_bytes());
        b[8..16].copy_from_slice(&word1.to_le_bytes());
        b
    }

    /// Deserializes from the 16-byte image.
    #[must_use]
    pub fn from_bytes(b: &[u8; Self::SIZE as usize]) -> Self {
        let word0 = u64::from_le_bytes(b[0..8].try_into().expect("8 bytes"));
        let word1 = u64::from_le_bytes(b[8..16].try_into().expect("8 bytes"));
        GlobalTableRow {
            base: word0 & ((1 << 48) - 1),
            size: (word1 & 0xffff_ffff) as u32,
            layout_table: (word1 >> 32) * 16,
            valid: word0 >> 63 != 0,
        }
    }

    /// Resolves to scheme-independent metadata.
    ///
    /// # Errors
    ///
    /// [`MetaError::Malformed`] when the row is not valid (stale index or
    /// deregistered object).
    pub fn resolve(&self) -> Result<ObjectMetadata, MetaError> {
        if !self.valid {
            return Err(MetaError::Malformed);
        }
        Ok(ObjectMetadata {
            base: self.base,
            size: u64::from(self.size),
            layout_table: self.layout_table,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> MacKey {
        MacKey::default_for_sim()
    }

    #[test]
    fn local_offset_roundtrip_and_base_derivation() {
        // A 20-byte object at 0x1000: padded to 32, metadata at 0x1020.
        let meta_addr = LocalOffsetMeta::meta_addr_for(0x1000, 20);
        assert_eq!(meta_addr, 0x1020);
        let m = LocalOffsetMeta::new(20, 0x9000, meta_addr, key());
        let decoded = LocalOffsetMeta::from_bytes(&m.to_bytes());
        assert_eq!(decoded, m);
        let obj = decoded.resolve(meta_addr, key()).unwrap();
        assert_eq!(obj.base, 0x1000);
        assert_eq!(obj.size, 20);
        assert_eq!(obj.layout_table, 0x9000);
    }

    #[test]
    fn record_macs_match_known_answers() {
        // Pinned values: a MAC change would invalidate every stored
        // record, so the encoding must not drift.
        let l = LocalOffsetMeta {
            object_size: 20,
            layout_table: 0x9000,
            mac: 0,
        };
        assert_eq!(l.compute_mac(0x1020, key()), 0x9032_2a1b_3981);
        let l = LocalOffsetMeta {
            object_size: 1008,
            layout_table: 0,
            mac: 0,
        };
        assert_eq!(
            l.compute_mac(0x7fff_f000, MacKey::new(1, 2)),
            0xb85f_bd81_a027
        );
        let s = SubheapMeta {
            slot_start: 0x20,
            slot_end: 0x1000,
            slot_size: 48,
            object_size: 40,
            layout_table: 0xa000,
            mac: 0,
        };
        assert_eq!(s.compute_mac(0x4000_0000, key()), 0x7fc9_4c7f_2422);
    }

    #[test]
    fn local_offset_mac_binds_location() {
        let m = LocalOffsetMeta::new(64, 0, 0x1040, key());
        assert!(m.resolve(0x1040, key()).is_ok());
        // Replaying the record at a different address fails.
        assert_eq!(m.resolve(0x2040, key()), Err(MetaError::BadMac));
    }

    #[test]
    fn local_offset_tamper_detected() {
        let m = LocalOffsetMeta::new(64, 0x9000, 0x1040, key());
        let mut bytes = m.to_bytes();
        bytes[0] ^= 1; // size bit flip
        let tampered = LocalOffsetMeta::from_bytes(&bytes);
        assert_eq!(tampered.resolve(0x1040, key()), Err(MetaError::BadMac));
    }

    #[test]
    fn subheap_slot_resolution() {
        // 4 KiB block at 0x40000: metadata in the first 32 bytes, slots of
        // 48 bytes holding 40-byte objects from offset 64.
        let block = 0x40000;
        let m = SubheapMeta::new(64, 64 + 48 * 10, 48, 40, 0x9000, block, key());
        let decoded = SubheapMeta::from_bytes(&m.to_bytes());
        assert_eq!(decoded, m);
        // Address inside slot 3.
        let addr = block + 64 + 48 * 3 + 17;
        let obj = decoded.resolve(block, addr, key()).unwrap();
        assert_eq!(obj.base, block + 64 + 48 * 3);
        assert_eq!(obj.size, 40);
        assert_eq!(obj.layout_table, 0x9000);
    }

    #[test]
    fn subheap_rejects_addresses_outside_slots() {
        let block = 0x40000;
        let m = SubheapMeta::new(64, 64 + 48 * 10, 48, 40, 0, block, key());
        assert!(matches!(
            m.resolve(block, block + 8, key()),
            Err(MetaError::OutsideSlots { .. })
        ));
        assert!(matches!(
            m.resolve(block, block + 64 + 48 * 10, key()),
            Err(MetaError::OutsideSlots { .. })
        ));
    }

    #[test]
    fn subheap_mac_binds_block() {
        let m = SubheapMeta::new(64, 64 + 48, 48, 40, 0, 0x40000, key());
        assert_eq!(
            m.resolve(0x80000, 0x80000 + 70, key()),
            Err(MetaError::BadMac)
        );
    }

    #[test]
    fn subheap_tamper_detected() {
        let block = 0x40000;
        let m = SubheapMeta::new(64, 64 + 48, 48, 40, 0, block, key());
        let mut bytes = m.to_bytes();
        bytes[12] ^= 0x80; // object_size bit
        let tampered = SubheapMeta::from_bytes(&bytes);
        assert_eq!(
            tampered.resolve(block, block + 70, key()),
            Err(MetaError::BadMac)
        );
    }

    #[test]
    fn subheap_ctrl_block_math() {
        let ctrl = SubheapCtrl {
            block_shift: 12,
            meta_offset: 0,
        };
        assert!(ctrl.is_valid());
        assert_eq!(ctrl.block_size(), 4096);
        assert_eq!(ctrl.block_base(0x40abc), 0x40000);
        assert_eq!(ctrl.meta_addr(0x40abc), 0x40000);
        assert!(!SubheapCtrl::default().is_valid());
    }

    #[test]
    fn global_row_roundtrip() {
        let row = GlobalTableRow {
            base: 0x1234_5678_9abc,
            size: 0x10_0000,
            layout_table: 0x9000,
            valid: true,
        };
        let decoded = GlobalTableRow::from_bytes(&row.to_bytes());
        assert_eq!(decoded, row);
        let obj = decoded.resolve().unwrap();
        assert_eq!(obj.base, row.base);
        assert_eq!(obj.size, u64::from(row.size));
    }

    #[test]
    fn invalid_global_row_rejected() {
        let row = GlobalTableRow {
            valid: false,
            ..GlobalTableRow::default()
        };
        assert_eq!(row.resolve(), Err(MetaError::Malformed));
        let decoded = GlobalTableRow::from_bytes(&row.to_bytes());
        assert!(!decoded.valid);
    }

    #[test]
    fn granule_rounding() {
        assert_eq!(round_up_granule(0), 0);
        assert_eq!(round_up_granule(1), 16);
        assert_eq!(round_up_granule(16), 16);
        assert_eq!(round_up_granule(17), 32);
        assert_eq!(round_up_granule(1008), 1008);
    }
}
