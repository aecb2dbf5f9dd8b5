//! The skewing (inter-bank dispersion) function family of Seznec-Bodin,
//! used to index the banks of skewed predictors (e-gskew, 2Bc-gskew).
//!
//! The paper's methodology section states that "indexing functions from the
//! family presented in [17, 15] were used for all predictors" and that
//! history *longer* than `log2(table size)` is folded into the index. This
//! module provides that machinery:
//!
//! * [`h_transform`] / [`h_inverse`] — the bijective bit-mixing function
//!   `H` and its inverse from the skewed-associative-cache papers. `H` is a
//!   one-position shift with a single XOR feedback, cheap in hardware and a
//!   bijection on `n`-bit values.
//! * [`skew_index`] — the per-bank index `f_k(v1, v2) = H^{k+1}(v1) XOR
//!   H^{-(k+1)}(v2)`, which guarantees that two information vectors
//!   colliding in one bank are dispersed in the others (the *inter-bank
//!   dispersion* property motivating the skewed predictor).
//! * [`xor_fold`] — folds an arbitrarily long information vector down to
//!   `n` bits, enabling history lengths beyond `log2(entries)`.
//! * [`InfoVector`] — packs (PC, global history) into the two halves
//!   consumed by [`skew_index`].
//!
//! The skewed predictors compute these on every branch, so the per-branch
//! forms are the fast ones, each pinned by the tests against a plain
//! reference written straight from the definition:
//!
//! | fast form | reference |
//! |---|---|
//! | [`skew_index`]: width checked once, `H^{k+1}` and `H^{-(k+1)}` in closed form | [`h_pow`] / [`h_inv_pow`] over [`h_transform`] / [`h_inverse`] on the masked halves |
//! | [`InfoVector::new`]: `pc_bits ^ xor_fold64(history, 2n)` | the `u128` pack `history << 2n \| pc_bits` through [`xor_fold`] |
//! | [`xor_fold64`] on a `u64` history (gshare, bi-mode, YAGS, TAGE) | [`xor_fold`] on the same value widened to `u128` |

use ev8_trace::Pc;

fn mask(n: u32) -> u64 {
    debug_assert!((1..=64).contains(&n));
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// The bijective mixing function `H` on `n`-bit values: a right shift by
/// one with the XOR of the two end bits fed back into the top position.
///
/// `H(x)` with bits `x_{n-1}..x_0` produces `y` where `y_{n-1} = x_0 XOR
/// x_{n-1}` and `y_i = x_{i+1}` otherwise. For `n == 1` it is the identity.
///
/// # Panics
///
/// Panics if `n` is 0 or greater than 64.
///
/// # Example
///
/// ```
/// use ev8_predictors::skew::{h_transform, h_inverse};
///
/// let x = 0b1011_0110;
/// assert_eq!(h_inverse(h_transform(x, 8), 8), x);
/// ```
pub fn h_transform(x: u64, n: u32) -> u64 {
    assert!((1..=64).contains(&n), "width must be 1..=64");
    let x = x & mask(n);
    if n == 1 {
        return x;
    }
    let feedback = (x & 1) ^ ((x >> (n - 1)) & 1);
    (x >> 1) | (feedback << (n - 1))
}

/// The inverse of [`h_transform`].
///
/// # Panics
///
/// Panics if `n` is 0 or greater than 64.
pub fn h_inverse(y: u64, n: u32) -> u64 {
    assert!((1..=64).contains(&n), "width must be 1..=64");
    let y = y & mask(n);
    if n == 1 {
        return y;
    }
    let top = (y >> (n - 1)) & 1;
    let second = (y >> (n - 2)) & 1;
    let x0 = top ^ second;
    ((y << 1) | x0) & mask(n)
}

/// `H` iterated `k` times.
pub fn h_pow(mut x: u64, n: u32, k: u32) -> u64 {
    for _ in 0..k {
        x = h_transform(x, n);
    }
    x
}

/// `H^{-1}` iterated `k` times.
pub fn h_inv_pow(mut x: u64, n: u32, k: u32) -> u64 {
    for _ in 0..k {
        x = h_inverse(x, n);
    }
    x
}

/// The bank-`k` skewing function `f_k(v1, v2) = H^{k+1}(v1) XOR
/// H^{-(k+1)}(v2)` over `n`-bit halves.
///
/// Distinct banks use distinct powers of `H`, so vectors that collide in
/// one bank are spread apart in the others.
///
/// This is the per-branch form. It checks `n` and masks the halves once,
/// then applies `H^{k+1}` and `H^{-(k+1)}` in closed form rather than
/// step by step: `k + 1` steps of `H` shift `v1` down `k + 1` places and
/// feed running XORs of its low bits in at the top, and `k + 1` steps of
/// `H⁻¹` shift `v2` up and feed XORs of adjacent top bits in at the
/// bottom — a few shifts whatever the bank. Widths of at most `k + 1`
/// bits, and banks past 3, take the reference path. The result equals
/// `h_pow(v1 & m, n, k + 1) ^ h_inv_pow(v2 & m, n, k + 1)` with `m` the
/// `n`-bit mask; the tests pin that for every width and bank.
///
/// # Panics
///
/// Panics if `n` is 0 or greater than 64.
#[inline]
pub fn skew_index(bank: u32, v1: u64, v2: u64, n: u32) -> u64 {
    assert!((1..=64).contains(&n), "width must be 1..=64");
    let m = mask(n);
    let (x, y) = (v1 & m, v2 & m);
    let k = bank + 1;
    if k >= n || k > 4 {
        // Widths of at most k bits (the fed-in bits would be shifted
        // again), or banks past the four a skewed predictor has: the
        // step-by-step reference.
        return h_pow(x, n, k) ^ h_inv_pow(y, n, k);
    }
    let kmask = (1u64 << k) - 1;
    // H^k: x shifts down k places, and the k bits fed in at the top are
    // the running XORs x_{n-1} ^ x_0 ^ .. ^ x_{j-1}, j = 1..=k.
    let pairs = x ^ (x << 1);
    let prefix = pairs ^ (pairs << 2);
    let top = 0u64.wrapping_sub(x >> (n - 1));
    let hx = (x >> k) | (((prefix ^ top) & kmask) << (n - k));
    // H^-k: y shifts up k places, and the k bits fed in at the bottom are
    // y_{n-j} ^ y_{n-j-1}, j = 1..=k, bits no earlier step has moved.
    let hy = ((y << k) & m) | (((y ^ (y >> 1)) >> (n - 1 - k)) & kmask);
    hx ^ hy
}

/// XOR-folds a wide value into `n` bits by XORing successive `n`-bit
/// chunks. Used to consume history longer than the index width.
///
/// # Panics
///
/// Panics if `n` is 0 or greater than 64.
pub fn xor_fold(value: u128, n: u32) -> u64 {
    assert!((1..=64).contains(&n), "width must be 1..=64");
    let mut v = value;
    let mut acc = 0u64;
    while v != 0 {
        acc ^= (v as u64) & mask(n);
        v >>= n;
    }
    acc
}

/// [`xor_fold`] specialized to 64-bit information vectors: identical
/// result for any value that fits in a `u64`, without the 128-bit shift
/// sequences. [`xor_fold`] on the value widened to `u128` is its
/// reference, and the tests compare the two. Every scheme whose history
/// register is a plain `u64` calls this on its per-branch index path:
/// gshare, bi-mode, YAGS and TAGE, and [`InfoVector::new`] for the
/// skewed banks.
///
/// # Panics
///
/// Panics if `n` is 0 or greater than 64.
#[inline]
pub fn xor_fold64(value: u64, n: u32) -> u64 {
    assert!((1..=64).contains(&n), "width must be 1..=64");
    if n == 64 {
        return value;
    }
    let mut v = value;
    let mut acc = 0u64;
    while v != 0 {
        acc ^= v & mask(n);
        v >>= n;
    }
    acc
}

/// An (address, history) information vector packed into the two `n`-bit
/// halves consumed by [`skew_index`], as in the gskew papers: the history
/// occupies the low positions (it is better distributed than addresses,
/// per §7.2 of the paper) and PC bits fill the rest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InfoVector {
    /// Low half of the information vector.
    pub v1: u64,
    /// High half of the information vector.
    pub v2: u64,
    /// Width in bits of each half.
    pub n: u32,
}

impl InfoVector {
    /// Builds the information vector for a table of `2^n` entries indexed
    /// with `history_length` bits of the global history register and the
    /// branch address.
    ///
    /// The vector is `history ++ pc_bits`, where `pc_bits` are the `2n`
    /// meaningful low PC bits (starting at bit 2); the combined value is
    /// XOR-folded into `2n` bits and split into halves. Histories longer
    /// than `2n` therefore still influence every index bit.
    ///
    /// `pc_bits` fills exactly the lowest `2n`-bit chunk of the packed
    /// value, so the fold is `pc_bits ^ xor_fold64(history, 2n)`: the
    /// 128-bit pack through [`xor_fold`] is the reference, and the tests
    /// compare the two for every `n` and history length.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or greater than 32.
    #[inline]
    pub fn new(pc: Pc, history: u64, history_length: u32, n: u32) -> Self {
        assert!((1..=32).contains(&n), "index width must be 1..=32");
        let hist = if history_length == 0 {
            0
        } else if history_length >= 64 {
            history
        } else {
            history & ((1u64 << history_length) - 1)
        };
        let folded = pc.bits(2, (2 * n).min(62)) ^ xor_fold64(hist, 2 * n);
        InfoVector {
            v1: folded & mask(n),
            v2: (folded >> n) & mask(n),
            n,
        }
    }

    /// The bank-`k` table index for this vector.
    pub fn index(&self, bank: u32) -> u64 {
        skew_index(bank, self.v1, self.v2, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h_is_a_bijection_small_widths() {
        for n in 1..=12u32 {
            let size = 1u64 << n;
            let mut seen = vec![false; size as usize];
            for x in 0..size {
                let y = h_transform(x, n);
                assert!(y < size);
                assert!(!seen[y as usize], "H not injective at width {n}");
                seen[y as usize] = true;
                assert_eq!(h_inverse(y, n), x, "H^-1 wrong at width {n}");
            }
        }
    }

    #[test]
    fn h_roundtrip_wide() {
        for &x in &[0u64, 1, 0xdead_beef, u64::MAX, 0x0123_4567_89ab_cdef] {
            for n in [16, 32, 63, 64] {
                let m = if n == 64 { u64::MAX } else { (1 << n) - 1 };
                assert_eq!(h_inverse(h_transform(x, n), n), x & m);
                assert_eq!(h_transform(h_inverse(x, n), n), x & m);
            }
        }
    }

    #[test]
    fn h_pow_composes() {
        let x = 0b1101_0011;
        assert_eq!(
            h_pow(x, 8, 3),
            h_transform(h_transform(h_transform(x, 8), 8), 8)
        );
        assert_eq!(h_inv_pow(h_pow(x, 8, 5), 8, 5), x);
        assert_eq!(h_pow(x, 8, 0), x);
    }

    #[test]
    fn skew_banks_differ() {
        // Vectors colliding in bank 0 should disperse in banks 1 and 2.
        let n = 10;
        let (v1a, v2a) = (0x155, 0x2aa);
        // Find another vector with the same bank-0 index.
        let target = skew_index(0, v1a, v2a, n);
        let mut found = None;
        'outer: for v1b in 0..(1u64 << n) {
            for v2b in 0..64u64 {
                if (v1b, v2b) != (v1a, v2a) && skew_index(0, v1b, v2b, n) == target {
                    found = Some((v1b, v2b));
                    break 'outer;
                }
            }
        }
        let (v1b, v2b) = found.expect("collision must exist");
        let disperse1 = skew_index(1, v1a, v2a, n) != skew_index(1, v1b, v2b, n);
        let disperse2 = skew_index(2, v1a, v2a, n) != skew_index(2, v1b, v2b, n);
        assert!(
            disperse1 || disperse2,
            "bank-0 collision should disperse in at least one other bank"
        );
    }

    #[test]
    fn skew_index_fits_width() {
        for bank in 0..4 {
            for n in [4u32, 8, 13, 16] {
                let idx = skew_index(bank, 0xffff_ffff, 0xffff_ffff, n);
                assert!(idx < (1u64 << n));
            }
        }
    }

    #[test]
    fn xor_fold_basics() {
        assert_eq!(xor_fold(0, 8), 0);
        assert_eq!(xor_fold(0xab, 8), 0xab);
        assert_eq!(xor_fold(0xab00, 8), 0xab);
        assert_eq!(xor_fold(0x1234, 8), 0x12 ^ 0x34);
        // Folding into 64 bits just XORs the two halves of a u128.
        let v = ((0x1111u128) << 64) | 0x2222u128;
        assert_eq!(xor_fold(v, 64), 0x1111 ^ 0x2222);
    }

    #[test]
    fn xor_fold64_agrees_with_the_u128_fold() {
        let mut x = 0xDEAD_BEEF_CAFE_F00Du64;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            for n in [1, 5, 12, 20, 31, 63, 64] {
                assert_eq!(xor_fold64(x, n), xor_fold(x as u128, n), "x={x:#x} n={n}");
            }
        }
        assert_eq!(xor_fold64(0, 10), 0);
        assert_eq!(xor_fold64(u64::MAX, 64), u64::MAX);
    }

    /// A deterministic stream of 64-bit values for the fast-vs-reference
    /// comparisons.
    fn lcg_stream(seed: u64) -> impl Iterator<Item = u64> {
        std::iter::successors(Some(seed), |x| {
            Some(
                x.wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407),
            )
        })
        .map(|x| x ^ (x >> 29))
    }

    #[test]
    fn skew_index_equals_the_h_power_composition() {
        let mut xs = lcg_stream(0x5EED_0001);
        // Banks 4 and 5 and widths up to bank + 1 take the reference path.
        for n in 1..=64u32 {
            for bank in 0..=5u32 {
                for _ in 0..64 {
                    let (v1, v2) = (xs.next().unwrap(), xs.next().unwrap());
                    let want =
                        h_pow(v1 & mask(n), n, bank + 1) ^ h_inv_pow(v2 & mask(n), n, bank + 1);
                    assert_eq!(
                        skew_index(bank, v1, v2, n),
                        want,
                        "bank {bank} n {n} v1 {v1:#x} v2 {v2:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn info_vector_equals_the_u128_pack_and_fold() {
        let reference = |pc: Pc, history: u64, history_length: u32, n: u32| {
            let hist = match history_length {
                0 => 0,
                64.. => history,
                l => history & ((1u64 << l) - 1),
            };
            let pc_bits = pc.bits(2, (2 * n).min(62)) as u128;
            let packed = ((hist as u128) << (2 * n).min(64)) | pc_bits;
            let folded = xor_fold(packed, 2 * n);
            (folded & mask(n), (folded >> n) & mask(n))
        };
        let mut xs = lcg_stream(0x5EED_0002);
        for n in 1..=32u32 {
            for history_length in 0..=64u32 {
                for _ in 0..8 {
                    let pc = Pc::new(xs.next().unwrap());
                    let history = xs.next().unwrap();
                    let iv = InfoVector::new(pc, history, history_length, n);
                    assert_eq!(
                        (iv.v1, iv.v2),
                        reference(pc, history, history_length, n),
                        "pc {pc:?} history {history:#x} length {history_length} n {n}"
                    );
                    for bank in 0..=3 {
                        assert_eq!(
                            iv.index(bank),
                            h_pow(iv.v1, n, bank + 1) ^ h_inv_pow(iv.v2, n, bank + 1)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn info_vector_uses_history() {
        let pc = Pc::new(0x4_0010);
        let a = InfoVector::new(pc, 0b1010, 4, 10);
        let b = InfoVector::new(pc, 0b1011, 4, 10);
        assert_ne!((a.v1, a.v2), (b.v1, b.v2));
        // Zero history length ignores the history register entirely.
        let c = InfoVector::new(pc, 0b1010, 0, 10);
        let d = InfoVector::new(pc, 0b0101, 0, 10);
        assert_eq!((c.v1, c.v2), (d.v1, d.v2));
    }

    #[test]
    fn info_vector_long_history_still_matters() {
        // History bit 30 (beyond 2n = 20) must still affect the index.
        let pc = Pc::new(0x1000);
        let a = InfoVector::new(pc, 0, 40, 10);
        let b = InfoVector::new(pc, 1 << 30, 40, 10);
        assert_ne!((a.v1, a.v2), (b.v1, b.v2));
    }

    #[test]
    fn info_vector_indices_in_range() {
        let iv = InfoVector::new(Pc::new(0xffff_fffc), u64::MAX, 27, 16);
        for bank in 0..4 {
            assert!(iv.index(bank) < (1 << 16));
        }
    }

    #[test]
    #[should_panic(expected = "width must be 1..=64")]
    fn zero_width_rejected() {
        h_transform(1, 0);
    }
}
