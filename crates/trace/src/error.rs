//! Error type for trace I/O.

use std::error::Error;
use std::fmt;
use std::io;

/// Error produced while reading or writing a binary trace.
///
/// Every corrupt-path variant carries the byte offset at which the
/// problem was detected, so fuzzer findings and truncated files can be
/// located in the input. The enum is `#[non_exhaustive]`: downstream
/// matches must keep a wildcard arm, which lets future format hardening
/// add variants without a breaking release.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The input does not start with the corpus magic bytes `EV8C`
    /// (detected at offset 0).
    BadMagic {
        /// The bytes that were found instead.
        found: [u8; 4],
    },
    /// The format version is not supported by this build (detected at
    /// offset 4, immediately after the magic).
    UnsupportedVersion {
        /// The version number found in the header.
        found: u16,
    },
    /// A field held an invalid encoding (unknown branch-kind tag,
    /// varint overflow, unreasonable length, ...).
    Corrupt {
        /// Description of what was malformed.
        what: &'static str,
        /// Byte offset at which the problem was detected.
        offset: u64,
    },
    /// The stream ended in the middle of a record or header.
    UnexpectedEof {
        /// Byte offset at which the data ran out.
        offset: u64,
    },
    /// A frame header declared a payload larger than the per-frame cap.
    ///
    /// Streaming sessions must never buffer unbounded client input: a
    /// forged length field is rejected *before* any payload allocation,
    /// mirroring the length-field hardening of the corpus decoder.
    FrameTooLarge {
        /// The declared payload length.
        len: u64,
        /// The configured per-frame cap.
        cap: u64,
        /// Byte offset of the offending frame header.
        offset: u64,
    },
    /// A cumulative per-session budget (bytes or records) was exhausted.
    ///
    /// Long-running sessions meter total consumption so a client cannot
    /// stream forever: each charge that would cross the limit fails with
    /// the usage that was attempted.
    BudgetExceeded {
        /// Which budget ran out (`"session bytes"` / `"session records"`).
        what: &'static str,
        /// Usage after the rejected charge.
        used: u64,
        /// The configured limit.
        limit: u64,
        /// Byte offset at which the budget ran out.
        offset: u64,
    },
    /// A stored checksum did not match the checksum of the bytes read.
    ///
    /// Produced by the corpus decoder: every compressed chunk and the
    /// header + index region carry a CRC-32, so storage corruption that
    /// survives the structural checks is still caught before any record
    /// reaches a simulation.
    ChecksumMismatch {
        /// Which checksummed region failed (`"corpus header"`,
        /// `"corpus chunk"`).
        what: &'static str,
        /// The checksum stored in the file.
        expected: u32,
        /// The checksum of the bytes actually read.
        found: u32,
        /// Byte offset of the start of the mismatching region.
        offset: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic { found } => {
                write!(f, "not a trace file (magic {found:02x?})")
            }
            TraceError::UnsupportedVersion { found } => {
                write!(f, "unsupported trace format version {found}")
            }
            TraceError::Corrupt { what, offset } => {
                write!(f, "corrupt trace ({what} at byte {offset})")
            }
            TraceError::UnexpectedEof { offset } => {
                write!(f, "unexpected end of trace stream at byte {offset}")
            }
            TraceError::FrameTooLarge { len, cap, offset } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {cap}-byte cap at byte {offset}"
                )
            }
            TraceError::BudgetExceeded {
                what,
                used,
                limit,
                offset,
            } => {
                write!(
                    f,
                    "{what} budget exhausted ({used} > {limit}) at byte {offset}"
                )
            }
            TraceError::ChecksumMismatch {
                what,
                expected,
                found,
                offset,
            } => {
                write!(
                    f,
                    "{what} checksum mismatch (stored {expected:#010x}, computed {found:#010x}) at byte {offset}"
                )
            }
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Write-path conversion: read paths go through the offset-tracking
/// reader in `wire` instead, which maps short reads to
/// [`TraceError::UnexpectedEof`] with the actual offset.
impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One value of every variant (update when variants are added — the
    /// `#[non_exhaustive]` marker means external code cannot do this
    /// exhaustively, so this in-crate test is the coverage point).
    fn all_variants() -> Vec<TraceError> {
        vec![
            TraceError::Io(io::Error::other("boom")),
            TraceError::BadMagic { found: *b"nope" },
            TraceError::UnsupportedVersion { found: 9 },
            TraceError::Corrupt {
                what: "bad kind tag",
                offset: 12,
            },
            TraceError::UnexpectedEof { offset: 34 },
            TraceError::FrameTooLarge {
                len: 1 << 30,
                cap: 1 << 20,
                offset: 56,
            },
            TraceError::BudgetExceeded {
                what: "session bytes",
                used: 2048,
                limit: 1024,
                offset: 78,
            },
            TraceError::ChecksumMismatch {
                what: "corpus chunk",
                expected: 0xDEAD_BEEF,
                found: 0x0BAD_F00D,
                offset: 90,
            },
        ]
    }

    #[test]
    fn display_formats_every_variant() {
        for v in all_variants() {
            let s = v.to_string();
            assert!(!s.is_empty());
            // Debug must work too (fuzzers print errors with {:?}).
            assert!(!format!("{v:?}").is_empty());
        }
    }

    #[test]
    fn corrupt_paths_report_their_offsets() {
        for v in all_variants() {
            match v {
                TraceError::Corrupt { offset, .. } => {
                    assert!(v.to_string().contains(&format!("byte {offset}")));
                }
                TraceError::UnexpectedEof { offset } => {
                    assert!(v.to_string().contains(&format!("byte {offset}")));
                }
                TraceError::FrameTooLarge { offset, .. }
                | TraceError::BudgetExceeded { offset, .. }
                | TraceError::ChecksumMismatch { offset, .. } => {
                    assert!(v.to_string().contains(&format!("byte {offset}")));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn source_chain_via_error_trait() {
        // Exercise the std::error::Error impl end to end for every
        // variant: only Io has a source, and its chain reaches the
        // original io::Error.
        for v in all_variants() {
            let dyn_err: &dyn Error = &v;
            match &v {
                TraceError::Io(_) => {
                    let src = dyn_err.source().expect("io error has a source");
                    assert!(src.downcast_ref::<io::Error>().is_some());
                    assert_eq!(src.to_string(), "boom");
                }
                _ => assert!(dyn_err.source().is_none()),
            }
        }
    }

    #[test]
    fn io_error_maps_to_io_variant() {
        // Even EOF-kinded io errors map to Io on the write path; read
        // paths produce UnexpectedEof with a real offset themselves.
        let e = io::Error::new(io::ErrorKind::UnexpectedEof, "eof");
        assert!(matches!(TraceError::from(e), TraceError::Io(_)));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceError>();
    }
}
