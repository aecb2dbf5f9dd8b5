//! Order statistics over timing samples, and the process's peak resident
//! set size.

use std::io;

/// The median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spreads this program prints match ones computed from its output
/// with Python. A single sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (s[0], s[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The `p`-th percentile (`0 < p ≤ 100`) by linear interpolation between
/// closest ranks.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    assert!(!s.is_empty(), "percentile of no samples");
    let rank = (p / 100.0).clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// Candidate tail levels, highest first.
const TAIL_LEVELS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest of the usual tail levels (p99.9, p99, p95, p90, p75, p50)
/// that leaves at least ten of `n` samples beyond it, or `None` when even
/// the median does not.
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LEVELS
        .into_iter()
        .find(|p| (1.0 - p / 100.0) * n as f64 >= 10.0 - 1e-9)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Parses the `VmHWM` line of a `/proc/<pid>/status` text, in kB.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut words = rest.split_whitespace();
    let kb = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kb)
}

/// This process's peak resident set size in MB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    parse_vmhwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}

/// Resets the peak-RSS counter to the current RSS (Linux: writing `5` to
/// `/proc/self/clear_refs`), so a later [`peak_rss_mb`] measures only
/// what happened after this call. Freed heap memory is handed back to the
/// OS first, so the baseline holds live data only and does not depend on
/// how much garbage an earlier phase left behind.
pub fn reset_peak_rss() -> io::Result<()> {
    release_free_heap();
    std::fs::write("/proc/self/clear_refs", "5")
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers from the caller and
    // only releases memory its allocator holds free; it is safe to call
    // at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 3.75));
        // Two points extrapolate: [1, 2] -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[1.0, 2.0], 100.0), 2.0);
    }

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(10_000), Some(99.9));
        assert_eq!(tail_level(1_000), Some(99.0));
        assert_eq!(tail_level(999), Some(95.0));
        assert_eq!(tail_level(200), Some(95.0));
        assert_eq!(tail_level(100), Some(90.0));
        assert_eq!(tail_level(48), Some(75.0));
        assert_eq!(tail_level(20), Some(50.0));
        assert_eq!(tail_level(19), None);
    }

    #[test]
    fn vmhwm_parsing() {
        let status = "Name:\tbenchmark\nVmPeak:\t  300000 kB\nVmHWM:\t  135660 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(135_660));
        assert_eq!(parse_vmhwm_kb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t  12 MB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t  x kB\n"), None);
    }

    #[test]
    fn peak_rss_resets_to_current() {
        let _serial = crate::tests::heavy_lock();
        let before = peak_rss_mb().expect("VmHWM readable");
        // Touch 64 MB so the high-water mark rises, then release it.
        let big = vec![1u8; 64 << 20];
        assert_eq!(std::hint::black_box(&big)[12345], 1);
        let raised = peak_rss_mb().expect("VmHWM readable");
        assert!(raised >= before + 60.0, "{before} -> {raised}");
        drop(big);
        reset_peak_rss().expect("clear_refs writable");
        let after = peak_rss_mb().expect("VmHWM readable");
        assert!(after < raised - 32.0, "reset left {after} MB of {raised}");
    }
}
