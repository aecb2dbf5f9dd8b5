//! In-tree byte-oriented LZ77 codec for corpus chunks.
//!
//! The corpus format (see [`crate::corpus`]) compresses each chunk of
//! wire-encoded records with this codec. The token stream is LZ4-shaped
//! — small, simple, and fast to decode — but implemented from scratch so
//! the workspace stays hermetic:
//!
//! ```text
//! sequence := token  [lit_ext*]  literal*  [offset_lo offset_hi  [match_ext*]]
//! token    := (lit_len << 4) | (match_len - MIN_MATCH)     // nibbles
//! ```
//!
//! A nibble value of 15 is extended LZ4-style with `0xFF` continuation
//! bytes plus a final byte. `offset` is a 2-byte little-endian back
//! reference (1..=65535) into the bytes already produced; matches may
//! overlap themselves (the RLE case). The final sequence of a stream is
//! literals-only: once the declared output length has been produced no
//! offset follows.
//!
//! The decoder is hardened for corrupt input: every length and offset is
//! bounds-checked against the remaining input and the declared output
//! size before any copy, so malformed streams yield a structured error —
//! never a panic, an out-of-bounds read, or an allocation driven by a
//! corrupt length field. Allocation is bounded by the caller-declared
//! output length, which the corpus layer validates against its chunk cap
//! before calling in.

/// Shortest back-reference worth encoding; also the bias stored in the
/// match-length nibble.
const MIN_MATCH: usize = 4;

/// Largest back-reference distance the 2-byte offset can express.
const MAX_OFFSET: usize = u16::MAX as usize;

/// Log2 of the match-finder hash table size.
const HASH_BITS: u32 = 15;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Appends an LZ4-style extended length: `base` goes in the nibble
/// (capped at 15), the remainder as `0xFF` runs plus a final byte.
fn put_ext_len(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn put_sequence(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let lit_nibble = literals.len().min(15);
    let match_nibble = m.map_or(0, |(_, len)| (len - MIN_MATCH).min(15));
    out.push(((lit_nibble as u8) << 4) | match_nibble as u8);
    if lit_nibble == 15 {
        put_ext_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if let Some((offset, len)) = m {
        debug_assert!((1..=MAX_OFFSET).contains(&offset));
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if match_nibble == 15 {
            put_ext_len(out, len - MIN_MATCH - 15);
        }
    }
}

/// Compresses `input` into a fresh token stream.
///
/// Greedy single-pass matching: a 4-byte rolling hash proposes one
/// candidate per position; confirmed matches are extended as far as they
/// go. Worst case (incompressible input) the output is the input plus
/// one token byte per 15-literal run — about 7% expansion — which the
/// corpus layer sidesteps by storing such chunks raw.
pub(crate) fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut lit_start = 0usize;
    let mut i = 0usize;
    // The last MIN_MATCH bytes can never start a match.
    let match_end = input.len().saturating_sub(MIN_MATCH);
    while i < match_end {
        let h = hash4(&input[i..]);
        let candidate = table[h];
        table[h] = i;
        if candidate != usize::MAX
            && i - candidate <= MAX_OFFSET
            && input[candidate..candidate + MIN_MATCH] == input[i..i + MIN_MATCH]
        {
            let mut len = MIN_MATCH;
            while i + len < input.len() && input[candidate + len] == input[i + len] {
                len += 1;
            }
            put_sequence(&mut out, &input[lit_start..i], Some((i - candidate, len)));
            // Seed the table inside the match so runs keep matching.
            let stop = (i + len).min(match_end);
            let mut j = i + 1;
            while j < stop {
                table[hash4(&input[j..])] = j;
                j += 1;
            }
            i += len;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    if lit_start < input.len() || input.is_empty() {
        put_sequence(&mut out, &input[lit_start..], None);
    }
    out
}

/// Reads an extended length continuation (`0xFF`* + final byte).
fn read_ext_len(input: &[u8], pos: &mut usize, cap: usize) -> Result<usize, &'static str> {
    let mut extra = 0usize;
    loop {
        let &b = input.get(*pos).ok_or("length runs past end of chunk")?;
        *pos += 1;
        extra += b as usize;
        if extra > cap {
            return Err("length exceeds declared chunk size");
        }
        if b != 255 {
            return Ok(extra);
        }
    }
}

/// Decompresses a token stream into `out`, which must come in empty and
/// leaves with exactly `expected_len` bytes on success.
///
/// Every failure mode of a corrupt stream maps to a static reason
/// string; the corpus layer attaches the chunk's byte offset.
pub(crate) fn decompress(
    input: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), &'static str> {
    debug_assert!(out.is_empty());
    out.reserve(expected_len);
    let mut pos = 0usize;
    loop {
        let &token = input.get(pos).ok_or("token runs past end of chunk")?;
        pos += 1;
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len += read_ext_len(input, &mut pos, expected_len)?;
        }
        let lit_end = pos.checked_add(lit_len).ok_or("literal length overflow")?;
        if lit_end > input.len() {
            return Err("literals run past end of chunk");
        }
        if out.len() + lit_len > expected_len {
            return Err("output exceeds declared chunk size");
        }
        out.extend_from_slice(&input[pos..lit_end]);
        pos = lit_end;
        if out.len() == expected_len {
            // Final literals-only sequence: nothing may follow.
            if pos != input.len() {
                return Err("trailing bytes after final sequence");
            }
            return Ok(());
        }
        let off = input
            .get(pos..pos + 2)
            .ok_or("match offset runs past end of chunk")?;
        pos += 2;
        let offset = u16::from_le_bytes([off[0], off[1]]) as usize;
        if offset == 0 {
            return Err("zero match offset");
        }
        if offset > out.len() {
            return Err("match offset before start of output");
        }
        let mut match_len = (token & 0x0F) as usize + MIN_MATCH;
        if match_len == 15 + MIN_MATCH {
            match_len += read_ext_len(input, &mut pos, expected_len)?;
        }
        if out.len() + match_len > expected_len {
            return Err("output exceeds declared chunk size");
        }
        // Block copy, every bound above already checked. A match at
        // least as far back as it is long is one copy. An overlapping
        // one (offset < match_len, the RLE case) repeats the last
        // `offset` bytes: each step copies everything from `start` on,
        // a whole number of periods, so the copied span doubles.
        let start = out.len() - offset;
        let end = out.len() + match_len;
        while out.len() < end {
            let n = (out.len() - start).min(end - out.len());
            out.extend_from_within(start..start + n);
        }
        if out.len() == expected_len {
            // Stream may end on a match with no final literal sequence.
            if pos != input.len() {
                return Err("trailing bytes after final sequence");
            }
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`decompress`] as it was with a byte-at-a-time match copy: the
    /// reference the block copy is pinned against.
    fn decompress_bytewise(
        input: &[u8],
        expected_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), &'static str> {
        out.reserve(expected_len);
        let mut pos = 0usize;
        loop {
            let &token = input.get(pos).ok_or("token runs past end of chunk")?;
            pos += 1;
            let mut lit_len = (token >> 4) as usize;
            if lit_len == 15 {
                lit_len += read_ext_len(input, &mut pos, expected_len)?;
            }
            let lit_end = pos.checked_add(lit_len).ok_or("literal length overflow")?;
            if lit_end > input.len() {
                return Err("literals run past end of chunk");
            }
            if out.len() + lit_len > expected_len {
                return Err("output exceeds declared chunk size");
            }
            out.extend_from_slice(&input[pos..lit_end]);
            pos = lit_end;
            if out.len() == expected_len {
                if pos != input.len() {
                    return Err("trailing bytes after final sequence");
                }
                return Ok(());
            }
            let off = input
                .get(pos..pos + 2)
                .ok_or("match offset runs past end of chunk")?;
            pos += 2;
            let offset = u16::from_le_bytes([off[0], off[1]]) as usize;
            if offset == 0 {
                return Err("zero match offset");
            }
            if offset > out.len() {
                return Err("match offset before start of output");
            }
            let mut match_len = (token & 0x0F) as usize + MIN_MATCH;
            if match_len == 15 + MIN_MATCH {
                match_len += read_ext_len(input, &mut pos, expected_len)?;
            }
            if out.len() + match_len > expected_len {
                return Err("output exceeds declared chunk size");
            }
            let start = out.len() - offset;
            for src in start..start + match_len {
                let b = out[src];
                out.push(b);
            }
            if out.len() == expected_len {
                if pos != input.len() {
                    return Err("trailing bytes after final sequence");
                }
                return Ok(());
            }
        }
    }

    /// Both decoders on one stream: equal result, and equal output bytes.
    fn assert_same_as_bytewise(stream: &[u8], expected_len: usize) -> Result<(), &'static str> {
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        let got = decompress(stream, expected_len, &mut fast);
        assert_eq!(
            got,
            decompress_bytewise(stream, expected_len, &mut slow),
            "stream {stream:?}"
        );
        assert_eq!(fast, slow, "stream {stream:?}");
        got
    }

    #[test]
    fn block_match_copy_matches_bytewise_on_hand_built_streams() {
        let literals: Vec<u8> = (1..=16u8).map(|b| b.wrapping_mul(37)).collect();
        let mut decoded = 0usize;
        for offset in 1..=16usize {
            let lengths = (MIN_MATCH..=19).chain([20, 33, 64, 255, 274, 275, 529, 1000]);
            for match_len in lengths {
                // One literal run of `offset` bytes, then one match that
                // ends the stream; a nibble of 15 carries on in extension
                // bytes (literal runs of 15 and 16, match lengths >= 19).
                let lit_nibble = offset.min(15);
                let match_nibble = (match_len - MIN_MATCH).min(15);
                let mut stream = vec![((lit_nibble as u8) << 4) | match_nibble as u8];
                if lit_nibble == 15 {
                    put_ext_len(&mut stream, offset - 15);
                }
                stream.extend_from_slice(&literals[..offset]);
                let offset_at = stream.len();
                stream.extend_from_slice(&(offset as u16).to_le_bytes());
                if match_nibble == 15 {
                    put_ext_len(&mut stream, match_len - MIN_MATCH - 15);
                }
                let total = offset + match_len;
                assert_same_as_bytewise(&stream, total).expect("well-formed stream");
                // The same stream against wrong declared sizes, cut
                // short, and with its offset reaching before the output.
                for declared in [total - 1, total + 1, total + 5] {
                    assert!(assert_same_as_bytewise(&stream, declared).is_err());
                }
                for cut in 0..stream.len() {
                    assert!(assert_same_as_bytewise(&stream[..cut], total).is_err());
                }
                let mut far = stream.clone();
                far[offset_at..offset_at + 2].copy_from_slice(&((offset + 1) as u16).to_le_bytes());
                assert_eq!(
                    assert_same_as_bytewise(&far, total),
                    Err("match offset before start of output")
                );
                decoded += 1;
            }
        }
        assert_eq!(decoded, 16 * (16 + 8));
    }

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let packed = compress(data);
        let mut out = Vec::new();
        decompress(&packed, data.len(), &mut out).expect("decompress");
        assert_eq!(out, data);
        packed
    }

    #[test]
    fn roundtrips_edge_shapes() {
        roundtrip(b"");
        roundtrip(b"x");
        roundtrip(b"abcd");
        roundtrip(&[0u8; 10_000]);
        roundtrip(&(0..=255u8).collect::<Vec<_>>());
        let repeats: Vec<u8> = b"the quick brown fox ".repeat(500).to_vec();
        let packed = roundtrip(&repeats);
        assert!(
            packed.len() * 4 < repeats.len(),
            "repetitive input must shrink"
        );
    }

    #[test]
    fn roundtrips_pseudorandom_and_mixed() {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut data = Vec::new();
        for i in 0..50_000usize {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if i % 7 < 3 {
                data.push((state >> 56) as u8);
            } else {
                data.push((i % 11) as u8);
            }
        }
        roundtrip(&data);
    }

    #[test]
    fn long_literal_and_match_extensions() {
        // > 15 literals forces the extended literal length; a > 19-byte
        // match forces the extended match length.
        let mut data: Vec<u8> = (0..100u8).collect();
        data.extend(std::iter::repeat_n(7u8, 1000));
        data.extend(0..100u8);
        roundtrip(&data);
    }

    #[test]
    fn corrupt_streams_fail_structurally() {
        let data: Vec<u8> = b"abcabcabcabcabcabc".repeat(20).to_vec();
        let packed = compress(&data);
        let mut out = Vec::new();
        // Wrong declared lengths.
        assert!(decompress(&packed, data.len() + 1, &mut out).is_err());
        out.clear();
        assert!(decompress(&packed, data.len().saturating_sub(1), &mut out).is_err());
        // Truncations at every point.
        for cut in 0..packed.len() {
            out.clear();
            assert!(
                decompress(&packed[..cut], data.len(), &mut out).is_err(),
                "truncation at {cut} decoded"
            );
        }
        // Single-byte mutations must error or produce the exact bytes —
        // never panic or over-produce.
        for i in 0..packed.len() {
            let mut m = packed.clone();
            m[i] = m[i].wrapping_add(0x41);
            out.clear();
            if decompress(&m, data.len(), &mut out).is_ok() {
                assert_eq!(out.len(), data.len());
            }
        }
        // Empty input is not a valid stream for nonzero output.
        out.clear();
        assert!(decompress(&[], 4, &mut out).is_err());
    }

    #[test]
    fn zero_offset_rejected() {
        // token: 0 literals, match_len nibble 0 (=4), offset 0.
        let stream = [0x00u8, 0x00, 0x00];
        let mut out = Vec::new();
        assert_eq!(decompress(&stream, 8, &mut out), Err("zero match offset"));
    }

    #[test]
    fn length_bomb_is_bounded() {
        // A run of 0xFF extension bytes tries to declare a huge literal
        // length; the decoder must stop at the declared cap instead of
        // looping or allocating.
        let mut stream = vec![0xF0u8];
        stream.extend(std::iter::repeat_n(0xFFu8, 10_000));
        let mut out = Vec::new();
        assert_eq!(
            decompress(&stream, 64, &mut out),
            Err("length exceeds declared chunk size")
        );
        assert!(out.capacity() < 1024);
    }
}
