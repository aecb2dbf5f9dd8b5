//! The on-disk corpus: a catalog-backed store of persisted traces.
//!
//! A [`CorpusStore`] manages a directory of corpus files (the chunked,
//! compressed container of [`ev8_trace::corpus`]) plus a small text
//! catalog, `catalog.tsv`, mapping workload identities to files with
//! pinned metadata. The identity key is the full generator identity —
//! `(benchmark, seed, scaled instructions, spec fingerprint, corpus
//! format version)` — so a corpus built from one spec can never stand in
//! for a *different* spec (same name/seed/length, different behaviour
//! mix, or a newer generator algorithm); see
//! [`ProgramSpec::fingerprint`].
//!
//! The catalog pins each entry's record and instruction counts. Opening
//! an entry cross-checks them against the corpus header (which the
//! format itself cross-checks against what actually decodes), so a
//! swapped or stale file fails loudly instead of feeding a simulation
//! the wrong workload.
//!
//! # Catalog format (version 1)
//!
//! Line 1 is the header `# ev8-corpus-catalog v1`; every further
//! non-empty line is one tab-separated entry:
//!
//! ```text
//! benchmark  seed(hex)  instructions  scale_ppm  fingerprint(hex)
//! format_version  record_count  instruction_count  file
//! ```
//!
//! # Example
//!
//! ```no_run
//! use ev8_workloads::corpus::CorpusStore;
//! use ev8_workloads::spec95;
//!
//! let mut store = CorpusStore::open("corpus".as_ref()).unwrap();
//! let spec = spec95::benchmark("compress").unwrap();
//! let entry = store.build(&spec, 0.01).unwrap();
//! assert_eq!(entry.benchmark, "compress");
//! store.verify_all().unwrap();
//! ```

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use ev8_trace::corpus::{CorpusReader, CorpusWriter, CORPUS_VERSION};
use ev8_trace::TraceError;

use crate::program::ProgramSpec;

/// First line of every catalog file; the trailing number is the catalog
/// (not corpus) format version.
const CATALOG_HEADER: &str = "# ev8-corpus-catalog v1";

/// Catalog file name inside the store directory.
const CATALOG_FILE: &str = "catalog.tsv";

/// Errors from the corpus store: I/O, corpus decode, or catalog /
/// metadata inconsistencies.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// A corpus file failed to decode (carries the byte offset).
    Trace(TraceError),
    /// The catalog file is malformed at the given line (1-based).
    Catalog {
        /// 1-based line number in `catalog.tsv`.
        line: usize,
        /// What was malformed.
        what: &'static str,
    },
    /// A corpus file disagrees with its catalog entry's pinned metadata.
    Metadata {
        /// Which pinned field mismatched.
        what: &'static str,
        /// The entry's file name.
        file: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "corpus store i/o error: {e}"),
            StoreError::Trace(e) => write!(f, "corpus decode error: {e}"),
            StoreError::Catalog { line, what } => {
                write!(f, "malformed corpus catalog ({what} at line {line})")
            }
            StoreError::Metadata { what, file } => {
                write!(
                    f,
                    "corpus file {file:?} disagrees with its catalog entry ({what})"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<TraceError> for StoreError {
    fn from(e: TraceError) -> Self {
        StoreError::Trace(e)
    }
}

/// One catalog row: a workload identity pinned to a corpus file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Benchmark (spec) name.
    pub benchmark: String,
    /// Generator seed.
    pub seed: u64,
    /// Scaled target instruction count — the exact `u64` the cache keys
    /// on, not the float scale.
    pub instructions: u64,
    /// The build-time scale in parts per million (informational; the
    /// identity key is `instructions`).
    pub scale_ppm: u64,
    /// [`ProgramSpec::fingerprint`] of the scaled spec.
    pub fingerprint: u64,
    /// Corpus container format version the file was written with.
    pub format_version: u16,
    /// Pinned record count the file must decode to.
    pub record_count: u64,
    /// Pinned instruction count (records + gaps) the file must decode to.
    pub instruction_count: u64,
    /// File name, relative to the store directory.
    pub file: String,
}

impl CatalogEntry {
    fn to_line(&self) -> String {
        format!(
            "{}\t{:#x}\t{}\t{}\t{:#x}\t{}\t{}\t{}\t{}",
            self.benchmark,
            self.seed,
            self.instructions,
            self.scale_ppm,
            self.fingerprint,
            self.format_version,
            self.record_count,
            self.instruction_count,
            self.file
        )
    }

    fn parse(line: &str, lineno: usize) -> Result<CatalogEntry, StoreError> {
        let bad = |what| StoreError::Catalog { line: lineno, what };
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 9 {
            return Err(bad("wrong field count"));
        }
        let uint = |s: &str, what: &'static str| -> Result<u64, StoreError> {
            if let Some(hex) = s.strip_prefix("0x") {
                u64::from_str_radix(hex, 16).map_err(|_| bad(what))
            } else {
                s.parse().map_err(|_| bad(what))
            }
        };
        if fields[0].is_empty() || fields[8].is_empty() {
            return Err(bad("empty benchmark or file name"));
        }
        // File names are store-relative by construction; a path that
        // escapes the directory is never valid.
        if fields[8].contains('/') || fields[8].contains('\\') || fields[8] == ".." {
            return Err(bad("file name is not store-relative"));
        }
        Ok(CatalogEntry {
            benchmark: fields[0].to_owned(),
            seed: uint(fields[1], "bad seed")?,
            instructions: uint(fields[2], "bad instruction target")?,
            scale_ppm: uint(fields[3], "bad scale")?,
            fingerprint: uint(fields[4], "bad fingerprint")?,
            format_version: uint(fields[5], "bad format version")?
                .try_into()
                .map_err(|_| bad("bad format version"))?,
            record_count: uint(fields[6], "bad record count")?,
            instruction_count: uint(fields[7], "bad instruction count")?,
            file: fields[8].to_owned(),
        })
    }
}

/// A directory of corpus files plus their catalog; see the module docs.
pub struct CorpusStore {
    dir: PathBuf,
    entries: Vec<CatalogEntry>,
}

impl CorpusStore {
    /// Opens (or initializes) the store at `dir`: creates the directory
    /// if needed and parses `catalog.tsv` when present (a missing
    /// catalog is an empty store, not an error).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure, [`StoreError::Catalog`]
    /// when an existing catalog is malformed.
    pub fn open(dir: &Path) -> Result<CorpusStore, StoreError> {
        fs::create_dir_all(dir)?;
        let catalog = dir.join(CATALOG_FILE);
        let mut entries = Vec::new();
        if catalog.exists() {
            let text = fs::read_to_string(&catalog)?;
            let mut lines = text.lines().enumerate();
            match lines.next() {
                Some((_, first)) if first.trim_end() == CATALOG_HEADER => {}
                _ => {
                    return Err(StoreError::Catalog {
                        line: 1,
                        what: "missing catalog header",
                    })
                }
            }
            for (i, line) in lines {
                let line = line.trim_end();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                entries.push(CatalogEntry::parse(line, i + 1)?);
            }
        }
        Ok(CorpusStore {
            dir: dir.to_owned(),
            entries,
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// All catalog entries, in catalog order.
    pub fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }

    /// Number of catalog entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the entry matching `spec` at the parts-per-million scale
    /// a client names (the server path: `BEGIN_WORKLOAD{name,
    /// scale_ppm}`): benchmark, seed, scale, generator fingerprint **and**
    /// current corpus format version must all match. The fingerprint is
    /// recomputed at the entry's pinned instruction count. Entries written
    /// by an older format or a different generator are invisible — they
    /// can never stand in for the workload the client named.
    pub fn find_by_ppm(&self, spec: &ProgramSpec, scale_ppm: u64) -> Option<&CatalogEntry> {
        self.entries.iter().find(|e| {
            if e.benchmark != spec.name
                || e.seed != spec.seed
                || e.scale_ppm != scale_ppm
                || e.format_version != CORPUS_VERSION
            {
                return false;
            }
            let mut scaled = spec.clone();
            scaled.instructions = e.instructions;
            e.fingerprint == scaled.fingerprint()
        })
    }

    /// Opens a streaming reader for `entry`, cross-checking the corpus
    /// header against the entry's pinned name and counts before any
    /// chunk is decoded.
    ///
    /// # Errors
    ///
    /// [`StoreError::Metadata`] when the file disagrees with the pins,
    /// [`StoreError::Trace`] / [`StoreError::Io`] on decode or I/O
    /// failure.
    pub fn open_reader(
        &self,
        entry: &CatalogEntry,
    ) -> Result<CorpusReader<BufReader<File>>, StoreError> {
        let file = File::open(self.dir.join(&entry.file))?;
        let reader = CorpusReader::new(BufReader::new(file))?;
        let mismatch = |what: &'static str| StoreError::Metadata {
            what,
            file: entry.file.clone(),
        };
        if reader.name() != entry.benchmark {
            return Err(mismatch("benchmark name"));
        }
        if reader.record_count() != entry.record_count {
            return Err(mismatch("record count"));
        }
        if reader.instruction_count() != entry.instruction_count {
            return Err(mismatch("instruction count"));
        }
        Ok(reader)
    }

    /// Generates `spec` at `scale`, writes it as a corpus file and
    /// catalogs it, replacing any existing entry with the same identity.
    /// Returns the new entry. The file is written under a temporary name
    /// and renamed into place, so a build that fails leaves an existing
    /// entry's file and the catalog as they were.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] / [`StoreError::Trace`] on write failure.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn build(&mut self, spec: &ProgramSpec, scale: f64) -> Result<CatalogEntry, StoreError> {
        assert!(scale > 0.0, "scale must be positive");
        let mut scaled = spec.clone();
        scaled.instructions = ((spec.instructions as f64) * scale).max(1.0) as u64;
        let (instructions, fingerprint) = (scaled.instructions, scaled.fingerprint());
        let trace = scaled.generate();
        let file = format!("{}-{}-{:016x}.ev8c", spec.name, instructions, fingerprint);
        let mut writer = CorpusWriter::new(trace.name());
        for rec in trace.records() {
            writer.push(rec);
        }
        // Write-then-rename, as for the catalog: a rebuild of an entry
        // reuses its file name, so writing in place would destroy the
        // live file before the new one is complete, and a failed write
        // would leave the catalog pointing at a torn file.
        let tmp = self.dir.join(format!("{file}.tmp"));
        let mut out = BufWriter::new(File::create(&tmp)?);
        writer.finish(&mut out)?;
        out.flush()?;
        drop(out);
        fs::rename(&tmp, self.dir.join(&file))?;
        let entry = CatalogEntry {
            benchmark: spec.name.clone(),
            seed: spec.seed,
            instructions,
            scale_ppm: (scale * 1e6).round() as u64,
            fingerprint,
            format_version: CORPUS_VERSION,
            record_count: trace.len() as u64,
            instruction_count: trace.instruction_count(),
            file,
        };
        self.entries.retain(|e| {
            !(e.benchmark == entry.benchmark
                && e.seed == entry.seed
                && e.instructions == entry.instructions
                && e.fingerprint == entry.fingerprint
                && e.format_version == entry.format_version)
        });
        self.entries.push(entry.clone());
        self.write_catalog()?;
        Ok(entry)
    }

    /// Fully decodes `entry`'s file, verifying every chunk checksum and
    /// the pinned totals. Returns the decoded record count.
    ///
    /// # Errors
    ///
    /// See [`CorpusStore::open_reader`]; additionally any decode error
    /// the full walk surfaces.
    pub fn verify(&self, entry: &CatalogEntry) -> Result<u64, StoreError> {
        let reader = self.open_reader(entry)?;
        let mut records = 0u64;
        reader.for_each_block(|block| records += block.len() as u64)?;
        // for_each_block's end-of-stream validation already proved the
        // decoded totals equal the header's, and open_reader pinned the
        // header to the catalog — this is belt and braces.
        if records != entry.record_count {
            return Err(StoreError::Metadata {
                what: "decoded record count",
                file: entry.file.clone(),
            });
        }
        Ok(records)
    }

    /// [`CorpusStore::verify`] over every catalog entry.
    ///
    /// # Errors
    ///
    /// The first verification failure, if any.
    pub fn verify_all(&self) -> Result<(), StoreError> {
        for entry in &self.entries {
            self.verify(entry)?;
        }
        Ok(())
    }

    fn write_catalog(&self) -> Result<(), StoreError> {
        let mut text = String::from(CATALOG_HEADER);
        text.push('\n');
        for entry in &self.entries {
            text.push_str(&entry.to_line());
            text.push('\n');
        }
        // Write-then-rename so a crash mid-write never leaves a torn
        // catalog behind.
        let tmp = self.dir.join("catalog.tsv.tmp");
        fs::write(&tmp, &text)?;
        fs::rename(&tmp, self.dir.join(CATALOG_FILE))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec95;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ev8-corpus-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec() -> ProgramSpec {
        let mut spec = spec95::benchmark("compress").unwrap();
        spec.instructions = 40_000;
        spec
    }

    #[test]
    fn build_catalog_find_verify_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let mut store = CorpusStore::open(&dir).unwrap();
        assert!(store.is_empty());
        let spec = tiny_spec();
        let entry = store.build(&spec, 0.5).unwrap();
        assert_eq!(entry.benchmark, "compress");
        assert_eq!(entry.format_version, CORPUS_VERSION);
        assert_eq!(store.len(), 1);
        assert_eq!(store.find_by_ppm(&spec, 500_000), Some(&entry));
        assert!(store.find_by_ppm(&spec, 250_000).is_none());
        store.verify_all().unwrap();

        // Reopen from disk: the catalog persists byte-identically.
        let reopened = CorpusStore::open(&dir).unwrap();
        assert_eq!(reopened.entries(), store.entries());
        let decoded = reopened.open_reader(&entry).unwrap().read_trace().unwrap();
        assert_eq!(decoded, spec.generate_scaled(0.5));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebuild_replaces_rather_than_duplicates() {
        let dir = tmp_dir("rebuild");
        let mut store = CorpusStore::open(&dir).unwrap();
        let spec = tiny_spec();
        store.build(&spec, 0.5).unwrap();
        store.build(&spec, 0.5).unwrap();
        assert_eq!(store.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_rebuild_leaves_the_live_file_intact() {
        let dir = tmp_dir("torn");
        let mut store = CorpusStore::open(&dir).unwrap();
        let spec = tiny_spec();
        let entry = store.build(&spec, 0.5).unwrap();
        // A directory where the rebuild's temporary file would go makes
        // the rebuild's write fail.
        fs::create_dir(dir.join(format!("{}.tmp", entry.file))).unwrap();
        assert!(store.build(&spec, 0.5).is_err());
        assert_eq!(store.entries(), std::slice::from_ref(&entry));
        assert_eq!(store.verify(&entry).unwrap(), entry.record_count);
        CorpusStore::open(&dir).unwrap().verify_all().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_mix_same_triple_is_a_different_entry() {
        // The latent-collision regression at the catalog level: two
        // specs sharing (name, seed, instructions) but with different
        // behaviour mixes must resolve to different entries.
        let dir = tmp_dir("mix");
        let mut store = CorpusStore::open(&dir).unwrap();
        let a = tiny_spec();
        let mut b = a.clone();
        b.noise = (b.noise + 0.3).min(1.0);
        assert_ne!(a.fingerprint(), b.fingerprint());
        let entry_a = store.build(&a, 0.5).unwrap();
        let entry_b = store.build(&b, 0.5).unwrap();
        assert_eq!(store.len(), 2);
        assert_ne!(entry_a.file, entry_b.file);
        assert_eq!(store.find_by_ppm(&a, 500_000), Some(&entry_a));
        assert_eq!(store.find_by_ppm(&b, 500_000), Some(&entry_b));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_format_version_is_invisible_to_find() {
        let dir = tmp_dir("version");
        let mut store = CorpusStore::open(&dir).unwrap();
        let spec = tiny_spec();
        store.build(&spec, 0.5).unwrap();
        store.entries[0].format_version = CORPUS_VERSION + 1;
        assert!(store.find_by_ppm(&spec, 500_000).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn metadata_pins_catch_a_swapped_file() {
        let dir = tmp_dir("swap");
        let mut store = CorpusStore::open(&dir).unwrap();
        let spec = tiny_spec();
        let mut other = tiny_spec();
        other.instructions = 20_000;
        let entry = store.build(&spec, 1.0).unwrap();
        let other_entry = store.build(&other, 1.0).unwrap();
        // Swap the files behind the catalog's back.
        fs::copy(dir.join(&other_entry.file), dir.join(&entry.file)).unwrap();
        match store.open_reader(&entry) {
            Err(StoreError::Metadata { .. }) => {}
            other => panic!("swapped file accepted: {:?}", other.err()),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_catalog_reports_line() {
        let dir = tmp_dir("malformed");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join(CATALOG_FILE),
            format!("{CATALOG_HEADER}\nnot\tenough\tfields\n"),
        )
        .unwrap();
        match CorpusStore::open(&dir) {
            Err(StoreError::Catalog { line: 2, .. }) => {}
            other => panic!("malformed catalog accepted: {:?}", other.err()),
        }
        fs::write(dir.join(CATALOG_FILE), "wrong header\n").unwrap();
        assert!(matches!(
            CorpusStore::open(&dir),
            Err(StoreError::Catalog { line: 1, .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
