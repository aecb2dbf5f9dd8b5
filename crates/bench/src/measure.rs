//! The benches' one way to measure and record.
//!
//! A bench compares ways of doing one job as series of
//! [`PairedSamples`]: every sample times each series once, back to back,
//! so a host slowdown that covers one sample slows every series of that
//! sample alike, and a within-sample ratio cancels it.
//! [`PairedSamples::ratio`] reports the median of those per-sample
//! ratios. The sample count comes from [`samples_from_env`], the name
//! filter from [`filter_from_args`], and the results go into
//! `BENCH_sim.json` through [`merge_bench_json`].
//!
//! `BENCH_sim.json` holds one entry per `group/benchmark` key, and each
//! bench run merges its entries into the file instead of clobbering the
//! other groups' numbers. The merge reads the file's top-level object as
//! `(key, raw value text)` pairs without interpreting the values (no
//! number round-tripping, no data model) and writes them back verbatim.

use std::fs;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use ev8_util::json::write_escaped;

/// Wall time of one call of `f`; the result goes through
/// [`black_box`] so the work cannot be optimized away.
pub fn time<R>(f: impl FnOnce() -> R) -> Duration {
    let start = Instant::now();
    black_box(f());
    start.elapsed()
}

/// Interleaved paired samples of a fixed number of series (see the
/// module doc): each [`push`](Self::push) records one sample, one time
/// per series, all taken back to back.
#[derive(Clone, Debug)]
pub struct PairedSamples {
    series: usize,
    /// Sample-major: `times[s * series + i]` is series `i` in sample `s`.
    times: Vec<Duration>,
}

impl PairedSamples {
    /// An empty record of `series` series.
    ///
    /// # Panics
    ///
    /// Panics when `series` is zero.
    pub fn new(series: usize) -> Self {
        assert!(series > 0, "paired samples need at least one series");
        PairedSamples {
            series,
            times: Vec::new(),
        }
    }

    /// Records one sample: one time per series, in series order.
    ///
    /// # Panics
    ///
    /// Panics when `sample` does not hold exactly one time per series.
    pub fn push(&mut self, sample: &[Duration]) {
        assert_eq!(sample.len(), self.series, "one time per series");
        self.times.extend_from_slice(sample);
    }

    /// Median time of `series` in nanoseconds ([`upper_median`] of its
    /// samples).
    ///
    /// # Panics
    ///
    /// Panics when no sample has been recorded.
    pub fn median_ns(&self, series: usize) -> u64 {
        let mut column: Vec<Duration> = self.samples().map(|s| s[series]).collect();
        column.sort_unstable();
        upper_median(&column).as_nanos() as u64
    }

    /// Median over samples of the within-sample time ratio `num / den`
    /// (same median as [`median_ns`](Self::median_ns)).
    ///
    /// # Panics
    ///
    /// Panics when no sample has been recorded.
    pub fn ratio(&self, num: usize, den: usize) -> f64 {
        let mut ratios: Vec<f64> = self
            .samples()
            .map(|s| s[num].as_secs_f64() / s[den].as_secs_f64())
            .collect();
        ratios.sort_by(f64::total_cmp);
        upper_median(&ratios)
    }

    fn samples(&self) -> std::slice::ChunksExact<'_, Duration> {
        self.times.chunks_exact(self.series)
    }
}

/// The median of `sorted`: the middle value for an odd count, the upper
/// of the two middle ones for an even count.
///
/// # Panics
///
/// Panics when `sorted` is empty.
pub fn upper_median<T: Copy>(sorted: &[T]) -> T {
    assert!(!sorted.is_empty(), "no samples recorded");
    sorted[sorted.len() / 2]
}

/// The variable that sets every bench's sample count.
const SAMPLES_VAR: &str = "EV8_BENCH_SAMPLES";

/// The sample count `EV8_BENCH_SAMPLES` asks for, or `None` when it is
/// unset: the one reader of the variable.
///
/// # Panics
///
/// Panics, naming the variable, when it is set to anything but a
/// positive integer: zero samples have no median to report.
pub fn samples_from_env() -> Option<usize> {
    let raw = std::env::var_os(SAMPLES_VAR)?;
    Some(parse_samples(&raw.to_string_lossy()).unwrap_or_else(|e| panic!("{e}")))
}

fn parse_samples(raw: &str) -> Result<usize, String> {
    match raw.trim().parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "{SAMPLES_VAR} must be a positive integer, got {raw:?}"
        )),
    }
}

/// The bench's name filter: the first command-line argument that does
/// not start with a dash, so the flags `cargo bench` adds (`--bench`)
/// never filter. A bench runs only the series whose name contains it.
pub fn filter_from_args() -> Option<String> {
    first_positional(std::env::args().skip(1))
}

fn first_positional(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|a| !a.starts_with('-'))
}

/// Merges bench-result entries into the shared `BENCH_sim.json` file
/// (or the `EV8_BENCH_JSON` override) instead of overwriting it, so the
/// bench trajectory accumulates across groups and runs.
///
/// Each entry is a `("group/benchmark", raw JSON value)` pair; entries
/// with a key already in the file replace it, new keys append. A missing
/// file is created.
///
/// Returns the path written to, or the error; benches print it and
/// continue, so results on stdout are never lost to a read-only
/// checkout.
///
/// # Errors
///
/// A file that exists but is not one JSON object (a typo in a hand edit,
/// a truncated write) is an [`io::ErrorKind::InvalidData`] error naming
/// the path, and the file is left as it was: the other groups' recorded
/// numbers are never replaced by this run's alone.
pub fn merge_bench_json(entries: &[(String, String)]) -> io::Result<String> {
    let path = bench_json_path();
    merge_into(Path::new(&path), entries)?;
    Ok(path)
}

/// The bench-results path: `EV8_BENCH_JSON` if set (the CI smoke points
/// it at a scratch file so one-sample runs never touch the committed,
/// properly-sampled numbers), else `BENCH_sim.json` at the workspace
/// root.
fn bench_json_path() -> String {
    std::env::var("EV8_BENCH_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json").into())
}

/// [`merge_bench_json`] into the file at `path`.
fn merge_into(path: &Path, entries: &[(String, String)]) -> io::Result<()> {
    let existing = match fs::read_to_string(path) {
        Ok(text) => parse_raw_object(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{} is not a JSON object ({e}); left unchanged",
                    path.display()
                ),
            )
        })?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io::Error::new(e.kind(), format!("{}: {e}", path.display()))),
    };
    fs::write(path, merge_raw_object(&existing, entries))
}

/// Splits the top-level JSON object in `text` into `(key, raw value)`
/// pairs, in document order.
///
/// Values are returned as *verbatim source text* (trimmed of
/// surrounding whitespace), not parsed into a data model — so merging
/// and re-emitting entries never perturbs number formatting. Nested
/// objects/arrays and escaped strings are skipped structurally.
///
/// Returns `Err` with a short description when `text` is not a single
/// well-formed top-level object.
fn parse_raw_object(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut entries = Vec::new();
    let bytes = text.as_bytes();
    let mut i = skip_ws(bytes, 0);
    if bytes.get(i) != Some(&b'{') {
        return Err("expected '{' at start of object".into());
    }
    i = skip_ws(bytes, i + 1);
    if bytes.get(i) == Some(&b'}') {
        i = skip_ws(bytes, i + 1);
        return if i == bytes.len() {
            Ok(entries)
        } else {
            Err("trailing data after object".into())
        };
    }
    loop {
        let (key, after_key) = parse_string(bytes, i)?;
        i = skip_ws(bytes, after_key);
        if bytes.get(i) != Some(&b':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        i = skip_ws(bytes, i + 1);
        let value_start = i;
        i = skip_value(bytes, i)?;
        let value = text[value_start..i].trim().to_owned();
        entries.push((key, value));
        i = skip_ws(bytes, i);
        match bytes.get(i) {
            Some(&b',') => i = skip_ws(bytes, i + 1),
            Some(&b'}') => {
                i = skip_ws(bytes, i + 1);
                return if i == bytes.len() {
                    Ok(entries)
                } else {
                    Err("trailing data after object".into())
                };
            }
            _ => return Err("expected ',' or '}' after value".into()),
        }
    }
}

/// Merges `updates` into the top-level object `existing` (verbatim raw
/// values, as produced by [`parse_raw_object`]) and renders the result:
/// keys already present are overwritten in place, new keys append, and
/// the output puts one entry per line (stable diffs as the file
/// accumulates runs).
fn merge_raw_object(existing: &[(String, String)], updates: &[(String, String)]) -> String {
    let mut merged = existing.to_vec();
    for (key, value) in updates {
        match merged.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value.clone(),
            None => merged.push((key.clone(), value.clone())),
        }
    }
    let mut out = String::from("{");
    for (i, (key, value)) in merged.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        write_escaped(&mut out, key);
        out.push(':');
        out.push_str(value);
    }
    out.push_str("\n}\n");
    out
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while matches!(bytes.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        i += 1;
    }
    i
}

/// Parses the JSON string starting at `i` (which must be a `"`),
/// returning the unescaped content and the index just past the closing
/// quote. Only the escapes [`write_escaped`] emits are decoded; `\u`
/// escapes are preserved verbatim (keys in this workspace are ASCII
/// paths).
fn parse_string(bytes: &[u8], i: usize) -> Result<(String, usize), String> {
    if bytes.get(i) != Some(&b'"') {
        return Err("expected '\"' at start of key".into());
    }
    let mut out = String::new();
    let mut j = i + 1;
    loop {
        match bytes.get(j) {
            None => return Err("unterminated string".into()),
            Some(&b'"') => return Ok((out, j + 1)),
            Some(&b'\\') => {
                let esc = bytes.get(j + 1).ok_or("unterminated escape")?;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'/' => out.push('/'),
                    _ => {
                        out.push('\\');
                        out.push(*esc as char);
                    }
                }
                j += 2;
            }
            Some(&b) => {
                // Multi-byte UTF-8 passes through byte-by-byte; keys are
                // rebuilt as valid UTF-8 because input was a &str.
                let ch_len = utf8_len(b);
                let end = j + ch_len;
                let slice = bytes.get(j..end).ok_or("truncated UTF-8 sequence")?;
                out.push_str(std::str::from_utf8(slice).map_err(|e| e.to_string())?);
                j = end;
            }
        }
    }
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Advances past one JSON value starting at `i`, tracking brace/bracket
/// depth and skipping string contents; returns the index just past the
/// value.
fn skip_value(bytes: &[u8], mut i: usize) -> Result<usize, String> {
    match bytes.get(i) {
        None => Err("expected a value".into()),
        Some(&b'"') => parse_string(bytes, i).map(|(_, end)| end),
        Some(&b'{') | Some(&b'[') => {
            let mut depth = 0usize;
            loop {
                match bytes.get(i) {
                    None => return Err("unterminated container".into()),
                    Some(&b'"') => i = parse_string(bytes, i)?.1,
                    Some(&b'{') | Some(&b'[') => {
                        depth += 1;
                        i += 1;
                    }
                    Some(&b'}') | Some(&b']') => {
                        depth -= 1;
                        i += 1;
                        if depth == 0 {
                            return Ok(i);
                        }
                    }
                    Some(_) => i += 1,
                }
            }
        }
        Some(_) => {
            // Scalar: number, true/false/null. Runs to the next
            // structural delimiter.
            let start = i;
            while let Some(&b) = bytes.get(i) {
                if matches!(b, b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r') {
                    break;
                }
                i += 1;
            }
            if i == start {
                return Err("expected a value".into());
            }
            Ok(i)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use ev8_util::json::JsonObject;

    #[test]
    fn sample_count_must_be_a_positive_integer() {
        assert_eq!(parse_samples("3"), Ok(3));
        for bad in ["0", "abc", "-1", ""] {
            let err = parse_samples(bad).unwrap_err();
            assert!(err.contains("EV8_BENCH_SAMPLES"), "{bad:?}: {err}");
        }
    }

    fn ns(n: u64) -> Duration {
        Duration::from_nanos(n)
    }

    #[test]
    fn paired_medians_over_odd_and_even_counts() {
        let mut odd = PairedSamples::new(2);
        for (a, b) in [(30, 1), (10, 2), (20, 3)] {
            odd.push(&[ns(a), ns(b)]);
        }
        assert_eq!((odd.median_ns(0), odd.median_ns(1)), (20, 2));

        let mut even = PairedSamples::new(1);
        for t in [40, 10, 30, 20] {
            even.push(&[ns(t)]);
        }
        assert_eq!(even.median_ns(0), 30, "upper median of an even count");
    }

    #[test]
    fn ratio_is_the_median_of_per_sample_ratios() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        let mut s = PairedSamples::new(2);
        s.push(&[ns(100), ns(50)]); // 2
        s.push(&[ns(400), ns(100)]); // 4
        s.push(&[ns(300), ns(200)]); // 1.5
                                     // The medians alone (300 / 100) would read 3.
        assert!(close(s.ratio(0, 1), 2.0), "{}", s.ratio(0, 1));
        assert!(close(s.ratio(1, 0), 0.5), "{}", s.ratio(1, 0));
        s.push(&[ns(1000), ns(250)]); // 4
        assert!(close(s.ratio(0, 1), 4.0), "upper median of 1.5, 2, 4, 4");
    }

    #[test]
    #[should_panic(expected = "one time per series")]
    fn a_sample_needs_one_time_per_series() {
        PairedSamples::new(3).push(&[ns(1), ns(2)]);
    }

    #[test]
    fn the_first_non_dash_argument_is_the_filter() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            first_positional(args(&["gshare", "--bench"])).as_deref(),
            Some("gshare")
        );
        assert_eq!(
            first_positional(args(&["--bench", "corpus_gcc", "li"])).as_deref(),
            Some("corpus_gcc")
        );
        assert_eq!(first_positional(args(&["--bench", "-q"])), None);
        assert_eq!(first_positional(args(&[])), None);
    }

    #[test]
    fn raw_object_roundtrips_own_output() {
        let mut o = JsonObject::new();
        o.field("name", &"gcc\"quoted")
            .field("rate", &4.25f64)
            .field("xs", &vec![1u32, 2])
            .field("none", &Option::<u32>::None);
        let text = o.finish();
        let entries = parse_raw_object(&text).unwrap();
        assert_eq!(
            entries,
            vec![
                ("name".to_owned(), r#""gcc\"quoted""#.to_owned()),
                ("rate".to_owned(), "4.25".to_owned()),
                ("xs".to_owned(), "[1,2]".to_owned()),
                ("none".to_owned(), "null".to_owned()),
            ]
        );
    }

    #[test]
    fn raw_object_preserves_value_text_verbatim() {
        // Number formatting must survive a parse/merge cycle untouched —
        // the whole point of the raw representation.
        let text = r#"{"a":1848599,"b":10668619.857524537,"c":{"nested":[1,{"x":"}"}]}}"#;
        let entries = parse_raw_object(text).unwrap();
        assert_eq!(entries[1].1, "10668619.857524537");
        assert_eq!(entries[2].1, r#"{"nested":[1,{"x":"}"}]}"#);
        let merged = merge_raw_object(&entries, &[]);
        let reparsed = parse_raw_object(&merged).unwrap();
        assert_eq!(entries, reparsed);
    }

    #[test]
    fn raw_object_accepts_whitespace_and_empty() {
        assert_eq!(parse_raw_object("{}").unwrap(), vec![]);
        assert_eq!(parse_raw_object("  {\n}  \n").unwrap(), vec![]);
        let entries = parse_raw_object("{ \"k\" :\n 7 ,\n\"l\": true }").unwrap();
        assert_eq!(
            entries,
            vec![
                ("k".to_owned(), "7".to_owned()),
                ("l".to_owned(), "true".to_owned())
            ]
        );
    }

    #[test]
    fn raw_object_rejects_malformed_documents() {
        for bad in [
            "",
            "[1,2]",
            "{",
            "{\"k\"}",
            "{\"k\":}",
            "{\"k\":1",
            "{\"k\":1} trailing",
            "{\"k\" 1}",
            "{\"unterminated",
        ] {
            assert!(parse_raw_object(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn merge_overwrites_appends_and_retains_order() {
        let existing = vec![
            ("a/x".to_owned(), "1".to_owned()),
            ("b/y".to_owned(), "2".to_owned()),
            ("legacy".to_owned(), "3".to_owned()),
        ];
        let updates = vec![
            ("b/y".to_owned(), "20".to_owned()),
            ("c/z".to_owned(), "30".to_owned()),
        ];
        let merged = merge_raw_object(&existing, &updates);
        let entries = parse_raw_object(&merged).unwrap();
        assert_eq!(
            entries,
            vec![
                ("a/x".to_owned(), "1".to_owned()),
                ("b/y".to_owned(), "20".to_owned()),
                ("legacy".to_owned(), "3".to_owned()),
                ("c/z".to_owned(), "30".to_owned()),
            ]
        );
        // One entry per line for stable diffs.
        assert_eq!(merged.lines().count(), 2 + entries.len());
    }

    #[test]
    fn merge_into_empty_is_just_the_updates() {
        let merged = merge_raw_object(&[], &[("g/b".to_owned(), "{\"v\":1}".to_owned())]);
        assert_eq!(merged, "{\n\"g/b\":{\"v\":1}\n}\n");
    }

    /// A fresh directory for one test's files, removed first if a killed
    /// run left it behind.
    fn scratch_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ev8-bench-{test}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn merge_refuses_a_file_that_does_not_parse_and_leaves_it_unchanged() {
        let dir = scratch_dir("malformed");
        let path = dir.join("BENCH_sim.json");
        let valid = merge_raw_object(&[("a/x".to_owned(), "{\"v\":1}".to_owned())], &[]);
        // A hand edit's stray comma, and a write cut off mid-entry.
        for bytes in [
            valid.replace("}\n}", "},\n}"),
            valid[..valid.len() / 2].to_owned(),
        ] {
            fs::write(&path, &bytes).unwrap();
            let err = merge_into(&path, &[("b/y".to_owned(), "2".to_owned())]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string().contains(&path.display().to_string()),
                "{err}"
            );
            assert_eq!(fs::read_to_string(&path).unwrap(), bytes, "file changed");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_creates_a_missing_file_and_merges_into_it() {
        let dir = scratch_dir("missing");
        let path = dir.join("BENCH_sim.json");
        merge_into(&path, &[("a/x".to_owned(), "1".to_owned())]).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\n\"a/x\":1\n}\n");
        merge_into(&path, &[("b/y".to_owned(), "2".to_owned())]).unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "{\n\"a/x\":1,\n\"b/y\":2\n}\n"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
