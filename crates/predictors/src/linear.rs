//! Tabulated GF(2)-linear maps: the one way this tree turns a linear
//! index function into tables.
//!
//! An index function `f` is *GF(2)-linear* when every output bit is an
//! XOR of input bits and there is no constant term. Then
//! `f(x ^ y) = f(x) ^ f(y)` and `f(0) = 0`, so `f(x)` is the XOR of the
//! images `f(eᵢ)` of the unit vectors `eᵢ` for the bits `i` set in `x`.
//! Cut the input into fields of `k` bits and the image of each field is a
//! table of `2^k` entries, each the XOR of at most `k` unit images; `f`
//! is then one lookup per field, XORed together. Functions of the same
//! input tabulate together when their outputs are packed in disjoint
//! lanes of one word, since packing is linear too. [`span`] fills one
//! such table from the unit images of its field's bits, and the tables
//! are built by evaluating the function's reference form on unit
//! vectors, so the function stays written once.
//!
//! Two maps are built with it, each pinned against its reference on
//! every table entry:
//!
//! * the four §7 EV8 index equations, in `ev8-core`'s `index.rs`: XORs
//!   of PC, history and path bits, with disjoint fields ORed together;
//! * the four 2Bc-gskew indices of [`TwoBcGskew`](crate::twobcgskew::TwoBcGskew),
//!   whose bits are XORs of PC and history bits: the fold of
//!   [`InfoVector::new`](crate::skew::InfoVector::new) XORs bits,
//!   and [`skew_index`](crate::skew::skew_index)'s `H^{k+1}` and
//!   `H^{-(k+1)}` shift bits and XOR them in.

/// A tabulated linear map of one `log2(N)`-bit input field: entry `v` is
/// the image of `v`. Filled by [`span`].
#[derive(Clone, PartialEq, Eq)]
pub struct Span<const N: usize>([u64; N]);

impl<const N: usize> Span<N> {
    /// The image of the low `log2(N)` bits of `v`; higher bits are not
    /// part of the field and are ignored.
    #[inline]
    pub fn get(&self, v: u64) -> u64 {
        self.0[v as usize & (N - 1)]
    }
}

/// The table over `log2(N)` input bits whose entry `v` XORs the images
/// `unit(i)` of the bits `i` set in `v`. Entry 0 is the image of zero,
/// which is zero: a linear map has no constant term. `unit` is called
/// once per input bit.
///
/// # Panics
///
/// Panics if `N` is not a power of two.
pub fn span<const N: usize>(unit: impl FnMut(u32) -> u64) -> Span<N> {
    assert!(N.is_power_of_two(), "a span covers whole input bits");
    let units: Vec<u64> = (0..N.trailing_zeros()).map(unit).collect();
    let mut table = [0; N];
    for v in 1..N {
        table[v] = table[v & (v - 1)] ^ units[v.trailing_zeros() as usize];
    }
    Span(table)
}

/// `B` byte-wide spans over the input bits `0..8B`: span `b` covers bits
/// `8b..8b + 8`, and `unit(i)` is the image of input bit `i`.
pub fn byte_spans<const B: usize>(unit: impl Fn(u32) -> u64) -> [Span<256>; B] {
    std::array::from_fn(|byte| span(|bit| unit(8 * byte as u32 + bit)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_xor_the_unit_images_of_their_bits() {
        let unit = |i: u32| 0x9E37_79B9_7F4A_7C15u64.rotate_left(7 * i) ^ u64::from(i);
        let table: Span<64> = span(unit);
        for v in 0..64u64 {
            let want = (0..6)
                .filter(|i| v >> i & 1 == 1)
                .fold(0, |acc, i| acc ^ unit(i));
            assert_eq!(table.get(v), want, "entry {v}");
        }
        assert_eq!(table.get(0), 0);
        // Bits above the field are not part of it.
        assert_eq!(table.get(0b101 | 1 << 6 | 1 << 40), table.get(0b101));
    }

    #[test]
    fn byte_spans_cover_consecutive_input_bytes() {
        let unit = |i: u32| 1u64 << (63 - i);
        let spans: [Span<256>; 3] = byte_spans(unit);
        for (byte, table) in spans.iter().enumerate() {
            for bit in 0..8 {
                assert_eq!(table.get(1 << bit), unit(8 * byte as u32 + bit));
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole input bits")]
    fn spans_cover_whole_bits() {
        let _: Span<12> = span(|_| 1);
    }
}
