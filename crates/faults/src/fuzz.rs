//! Seeded corruption fuzzing of the wire record parser.
//!
//! [`corrupt`] applies a deterministic mutation (bit flips, truncation,
//! garbage splice, garbage overwrite) to encoded bytes; [`decode_check`]
//! feeds the result to [`frame::decode_records`], the one decoder that
//! parses wire records with no CRC in front of them (a corpus chunk's
//! CRC rejects a mutated body before its records are parsed), and
//! asserts the robustness contract: every outcome is `Ok` or a
//! structured [`TraceError`] — never a panic, never an allocation driven
//! by a corrupt length field. Everything is a pure function of the seed,
//! so any finding replays from one `u64`.

use ev8_trace::frame;
use ev8_trace::{Pc, SessionBudget, TraceError};
use ev8_util::rng::{mix, DefaultRng, Rng};

/// How many decoded records a `len`-byte input can possibly contain: the
/// smallest record encoding is 4 bytes (tag + three 1-byte varints).
/// Decoders that respect the hardening contract can never report more —
/// any excess would mean a count-field-driven fabrication.
pub fn max_plausible_records(len: usize) -> usize {
    len / 4
}

/// Applies one seeded mutation to `bytes` and returns the corrupted copy.
///
/// The mutation menu mirrors how stored or transmitted bytes break in
/// practice:
///
/// * **bit flips** — 1..=8 single-bit upsets anywhere in the file
///   (storage/transfer corruption),
/// * **truncation** — the tail is cut at a uniform position (interrupted
///   download, partial write),
/// * **splice** — 1..=64 garbage bytes inserted at a uniform position
///   (misassembled chunks),
/// * **overwrite** — a 1..=32-byte run is replaced with garbage (torn
///   sector).
///
/// The same `(bytes, seed)` always produces the same output.
pub fn corrupt(bytes: &[u8], seed: u64) -> Vec<u8> {
    let mut rng = DefaultRng::seed_from_u64(mix(seed));
    let mut out = bytes.to_vec();
    match rng.gen_range(0u32..4) {
        0 => {
            // Bit flips.
            if !out.is_empty() {
                let flips = rng.gen_range(1usize..=8);
                for _ in 0..flips {
                    let pos = rng.gen_range(0..out.len());
                    let bit = rng.gen_range(0u32..8);
                    out[pos] ^= 1 << bit;
                }
            }
        }
        1 => {
            // Truncation.
            let keep = rng.gen_range(0..=out.len());
            out.truncate(keep);
        }
        2 => {
            // Garbage splice (insertion).
            let at = rng.gen_range(0..=out.len());
            let len = rng.gen_range(1usize..=64);
            let garbage: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
            out.splice(at..at, garbage);
        }
        _ => {
            // Garbage overwrite.
            if !out.is_empty() {
                let at = rng.gen_range(0..out.len());
                let len = rng.gen_range(1usize..=32).min(out.len() - at);
                for b in &mut out[at..at + len] {
                    *b = rng.gen_range(0u8..=255);
                }
            }
        }
    }
    out
}

/// Decodes `bytes` as one session `RECORDS` payload with
/// [`frame::decode_records`] (fresh delta cursor, unlimited budget,
/// offsets from 0), asserting the structural allocation bound, and
/// returns the decoded record count.
///
/// # Panics
///
/// Panics if the decoder yields more records than
/// [`max_plausible_records`], before or at its error — the signature of
/// a decoder trusting a corrupt count field. (The decoder itself must
/// never panic; a panic escaping this function is a fuzzing finding.)
pub fn decode_check(bytes: &[u8]) -> Result<usize, TraceError> {
    let mut records = Vec::new();
    let result = frame::decode_records(
        bytes,
        &mut Pc::default(),
        &mut SessionBudget::unlimited(),
        0,
        &mut records,
    );
    assert!(
        records.len() <= max_plausible_records(bytes.len()),
        "RECORDS decoder produced {} records from {} bytes",
        records.len(),
        bytes.len()
    );
    result.map(|()| records.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev8_trace::BranchRecord;
    use ev8_util::bytebuf::ByteBuf;

    fn encoded_sample() -> Vec<u8> {
        let records: Vec<BranchRecord> = (0..200u64)
            .map(|i| {
                BranchRecord::conditional(
                    Pc::new(0x1000 + i * 12),
                    Pc::new(0x4000 + (i % 17) * 8),
                    i % 3 != 0,
                )
                .with_gap((i % 5) as u32)
            })
            .collect();
        let mut buf = ByteBuf::new();
        frame::encode_records(&mut buf, &records, &mut Pc::default());
        buf.into_vec()
    }

    #[test]
    fn corruption_is_deterministic() {
        let base = encoded_sample();
        for seed in 0..32 {
            assert_eq!(corrupt(&base, seed), corrupt(&base, seed));
        }
        assert_ne!(corrupt(&base, 1), corrupt(&base, 2));
    }

    #[test]
    fn all_mutation_kinds_are_reachable() {
        let base = encoded_sample();
        let mut shorter = false;
        let mut longer = false;
        let mut same_len_changed = false;
        for seed in 0..256 {
            let m = corrupt(&base, seed);
            if m.len() < base.len() {
                shorter = true;
            } else if m.len() > base.len() {
                longer = true;
            } else if m != base {
                same_len_changed = true;
            }
        }
        assert!(shorter, "truncation never fired");
        assert!(longer, "splice never fired");
        assert!(same_len_changed, "flip/overwrite never fired");
    }

    #[test]
    fn a_thousand_mutations_decode_structurally() {
        let base = encoded_sample();
        let mut ok = 0u32;
        let mut err = 0u32;
        for seed in 0..1000 {
            match decode_check(&corrupt(&base, seed)) {
                Ok(_) => ok += 1,
                Err(e) => {
                    // Structured error: displayable, debuggable.
                    assert!(!e.to_string().is_empty());
                    err += 1;
                }
            }
        }
        // Both outcomes must actually occur (benign mutations like a
        // flipped taken bit or gap bit still decode; a cut payload does
        // not).
        assert!(ok > 0, "no mutation decoded cleanly");
        assert!(
            err > ok,
            "most mutations should be detected ({ok} ok, {err} err)"
        );
    }

    #[test]
    fn empty_and_tiny_inputs_never_panic() {
        for len in 0..16 {
            let tiny: Vec<u8> = (0..len as u8).collect();
            let _ = decode_check(&tiny);
            for seed in 0..8 {
                let _ = decode_check(&corrupt(&tiny, seed));
            }
        }
    }
}
