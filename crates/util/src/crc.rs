//! CRC-32 (IEEE 802.3) checksums.
//!
//! The corpus format checksums every compressed chunk and its header +
//! index region so that storage corruption surfaces as a typed decode
//! error instead of silently wrong records. This is the standard
//! reflected CRC-32 (polynomial `0xEDB88320`, init and xor-out
//! `0xFFFFFFFF`) — the same function as zlib's `crc32` — computed by
//! slicing-by-8: eight compile-time 256-entry tables fold eight input
//! bytes per step with eight independent lookups, so the crate stays
//! dependency-free. The tests pin it against the one-table bytewise
//! walk.
//!
//! # Example
//!
//! ```
//! use ev8_util::crc::crc32;
//!
//! // The classic check value for the ASCII bytes "123456789".
//! assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
//! ```

/// Reflected CRC-32 polynomial (IEEE 802.3).
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables. `TABLES[0]` is the classic bytewise
/// table (the CRC of each byte value); `TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, so one step can fold the eight bytes
/// of a word as eight independent lookups.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// The CRC-32 of `bytes` in one call.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

/// An incremental CRC-32 hasher for data that arrives in pieces.
///
/// # Example
///
/// ```
/// use ev8_util::crc::{crc32, Crc32};
///
/// let mut h = Crc32::new();
/// h.update(b"1234");
/// h.update(b"56789");
/// assert_eq!(h.finish(), crc32(b"123456789"));
/// ```
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds more bytes into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far. Does not consume the
    /// hasher; further [`Crc32::update`] calls continue the stream.
    #[must_use]
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{DefaultRng, Rng};

    /// The bytewise table walk `Crc32::update` used before slicing-by-8:
    /// the reference the sliced loop is pinned against.
    fn update_bytewise(state: u32, bytes: &[u8]) -> u32 {
        let mut crc = state;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }

    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !update_bytewise(0xFFFF_FFFF, bytes)
    }

    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = DefaultRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(0u8..=255)).collect()
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_alignment() {
        let data = seeded_bytes(64 + 8, 0xC0C0_0032);
        for start in 0..=7 {
            for len in 0..=64 {
                let bytes = &data[start..start + len];
                let want = crc32_bytewise(bytes);
                assert_eq!(crc32(bytes), want, "start {start} len {len}");
                let mut h = Crc32::new();
                h.update(bytes);
                assert_eq!(h.finish(), want, "update: start {start} len {len}");
            }
        }
    }

    #[test]
    fn sliced_matches_bytewise_on_a_mebibyte() {
        let data = seeded_bytes(1 << 20, 0xC0C0_1000);
        assert_eq!(crc32(&data), crc32_bytewise(&data));
    }

    #[test]
    fn split_update_matches_bytewise_at_every_split() {
        let data = seeded_bytes(100, 0xC0C0_0100);
        let want = crc32_bytewise(&data);
        for split in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            assert_eq!(
                h.state,
                update_bytewise(0xFFFF_FFFF, &data[..split]),
                "prefix state at {split}"
            );
            h.update(&data[split..]);
            assert_eq!(h.finish(), want, "split at {split}");
        }
    }

    #[test]
    fn known_check_values() {
        // Reference values shared by every standard CRC-32 implementation.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for split in [0usize, 1, 7, 255, 256, 9_999, 10_000] {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32(&data), "split at {split}");
        }
    }

    #[test]
    fn finish_is_observation_not_consumption() {
        let mut h = Crc32::new();
        h.update(b"1234");
        let _ = h.finish();
        h.update(b"56789");
        assert_eq!(h.finish(), crc32(b"123456789"));
    }

    #[test]
    fn single_bit_flips_always_change_the_checksum() {
        let data: Vec<u8> = (0..64u8).collect();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut m = data.clone();
                m[i] ^= 1 << bit;
                assert_ne!(crc32(&m), base, "flip at byte {i} bit {bit} undetected");
            }
        }
    }
}
