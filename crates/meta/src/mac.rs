//! The 48-bit metadata MAC.
//!
//! Object metadata for the local offset and subheap schemes lives in the
//! same memory the application can scribble over (via legacy code or
//! temporal errors), so the paper attaches a MAC that `promote` verifies
//! before trusting a fetched record. The prototype does not specify the
//! algorithm; we use SipHash-1-3 truncated to 48 bits, implemented from
//! scratch because no cryptography crates are available offline. Only the
//! tamper-*detection* behaviour matters for the reproduction, not
//! cryptographic strength.

/// A 128-bit MAC key held by the machine (conceptually in a privileged
/// control register, initialized by the runtime at startup).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MacKey {
    k0: u64,
    k1: u64,
}

impl MacKey {
    /// Creates a key from two 64-bit halves.
    #[must_use]
    pub fn new(k0: u64, k1: u64) -> Self {
        MacKey { k0, k1 }
    }

    /// The fixed key used by deterministic simulations and tests.
    #[must_use]
    pub fn default_for_sim() -> Self {
        MacKey::new(0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908)
    }
}

impl Default for MacKey {
    fn default() -> Self {
        MacKey::default_for_sim()
    }
}

#[inline]
fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

/// SipHash-1-3 state fed one little-endian 64-bit message word at a time.
struct Sip13([u64; 4]);

impl Sip13 {
    #[inline]
    fn new(key: MacKey) -> Self {
        Sip13([
            key.k0 ^ 0x736f_6d65_7073_6575,
            key.k1 ^ 0x646f_7261_6e64_6f6d,
            key.k0 ^ 0x6c79_6765_6e65_7261,
            key.k1 ^ 0x7465_6462_7974_6573,
        ])
    }

    #[inline]
    fn compress(&mut self, m: u64) {
        self.0[3] ^= m;
        sipround(&mut self.0); // c = 1 compression round
        self.0[0] ^= m;
    }

    /// Absorbs the final block (the message tail, with the length's low
    /// byte in its top byte) and truncates the digest to 48 bits.
    #[inline]
    fn finish48(mut self, last: u64) -> u64 {
        self.compress(last);
        let v = &mut self.0;
        v[2] ^= 0xff;
        for _ in 0..3 {
            sipround(v); // d = 3 finalization rounds
        }
        (v[0] ^ v[1] ^ v[2] ^ v[3]) & ((1 << 48) - 1)
    }
}

/// Computes SipHash-1-3 over `data` and truncates the result to 48 bits.
///
/// # Examples
///
/// ```
/// use ifp_meta::mac::{mac48, MacKey};
///
/// let key = MacKey::default_for_sim();
/// let m = mac48(key, b"object metadata");
/// assert!(m < 1 << 48);
/// assert_ne!(m, mac48(key, b"object metadatb"));
/// ```
#[must_use]
pub fn mac48(key: MacKey, data: &[u8]) -> u64 {
    let mut s = Sip13::new(key);
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        s.compress(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
    }
    let rem = chunks.remainder();
    let mut last = [0u8; 8];
    last[..rem.len()].copy_from_slice(rem);
    last[7] = (data.len() & 0xff) as u8;
    s.finish48(u64::from_le_bytes(last))
}

/// MAC over a sequence of 64-bit words (how the hardware feeds metadata
/// fields into the `ifpmac` unit). Equal to [`mac48`] over the words'
/// little-endian bytes, but streams each word straight into the hash:
/// no byte buffer is built, so `promote`'s MAC check never allocates.
#[must_use]
pub fn mac48_words(key: MacKey, words: &[u64]) -> u64 {
    let mut s = Sip13::new(key);
    for &w in words {
        s.compress(w);
    }
    // Whole words leave no tail: the last block is just the length byte.
    s.finish48((((words.len() * 8) & 0xff) as u64) << 56)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_is_deterministic() {
        let key = MacKey::default_for_sim();
        assert_eq!(mac48(key, b"hello"), mac48(key, b"hello"));
    }

    #[test]
    fn mac_fits_48_bits() {
        let key = MacKey::default_for_sim();
        for i in 0..64u64 {
            assert!(mac48_words(key, &[i, i * 31]) < 1 << 48);
        }
    }

    #[test]
    fn mac_depends_on_key() {
        let a = MacKey::new(1, 2);
        let b = MacKey::new(1, 3);
        assert_ne!(mac48(a, b"metadata"), mac48(b, b"metadata"));
    }

    #[test]
    fn mac_depends_on_every_input_word() {
        let key = MacKey::default_for_sim();
        let base = mac48_words(key, &[0x1000, 64, 0xdead]);
        assert_ne!(base, mac48_words(key, &[0x1001, 64, 0xdead]));
        assert_ne!(base, mac48_words(key, &[0x1000, 65, 0xdead]));
        assert_ne!(base, mac48_words(key, &[0x1000, 64, 0xdeae]));
    }

    #[test]
    fn words_equal_mac_over_their_le_bytes() {
        let key = MacKey::new(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
        let pool = [
            0,
            1,
            u64::MAX,
            0x1000,
            0xdead_beef,
            0x8000_0000_0000_0000,
            7,
            0x55aa,
        ];
        for n in 0..=8 {
            let words = &pool[..n];
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            assert_eq!(mac48_words(key, words), mac48(key, &bytes), "{n} words");
        }
    }

    #[test]
    fn mac_known_answers() {
        // Pinned: any drift would invalidate every stored metadata MAC.
        let key = MacKey::default_for_sim();
        assert_eq!(mac48_words(key, &[]), 0x0158_050f_c4dc);
        assert_eq!(mac48_words(key, &[0x1000, 64, 0xdead]), 0xb5aa_12b1_cb11);
        assert_eq!(mac48(key, b"object metadata"), 0xbb47_7609_6810);
    }

    #[test]
    fn mac_depends_on_length() {
        let key = MacKey::default_for_sim();
        assert_ne!(mac48(key, b"ab"), mac48(key, b"ab\0"));
    }

    #[test]
    fn single_bit_flips_change_mac() {
        let key = MacKey::default_for_sim();
        let data = *b"0123456789abcdef";
        let base = mac48(key, &data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut tampered = data;
                tampered[byte] ^= 1 << bit;
                assert_ne!(base, mac48(key, &tampered), "flip {byte}:{bit} undetected");
            }
        }
    }
}
