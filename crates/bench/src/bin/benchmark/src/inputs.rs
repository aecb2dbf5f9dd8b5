//! Run configuration and the seeded benchmark suite every workload draws
//! its inputs from.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

use ev8_trace::Trace;
use ev8_util::rng::mix;
use ev8_workloads::spec95;
use ev8_workloads::ProgramSpec;

use crate::spans::Ctx;

/// Trace scale (fraction of the paper's 100M instructions) of the three
/// batch workloads: the smallest the roadmap accepts for a speed claim.
pub const SUITE_SCALE: f64 = 0.2;
/// Trace scale of one server session: short, so framing, session set-up
/// and the worker pool carry a large share of each session.
pub const SERVER_SCALE: f64 = 0.02;
/// Scale of every workload under `--smoke`.
pub const SMOKE_SCALE: f64 = 0.002;

/// One invocation's settings.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Input seed; 0 is the calibrated suite.
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs, one set-up, one pass.
    pub smoke: bool,
}

impl RunConfig {
    /// Scale of the batch workloads' traces.
    pub fn suite_scale(&self) -> f64 {
        if self.smoke {
            SMOKE_SCALE
        } else {
            SUITE_SCALE
        }
    }

    /// Scale of the server workload's traces.
    pub fn server_scale(&self) -> f64 {
        if self.smoke {
            SMOKE_SCALE
        } else {
            SERVER_SCALE
        }
    }
}

/// The Table 2 suite with `seed` mixed into every program seed. Seed 0
/// leaves the calibrated specs untouched (`mix(0) == 0`); any other seed
/// gives each benchmark a different program with the same statistics.
pub fn suite(seed: u64) -> Vec<ProgramSpec> {
    spec95::suite()
        .into_iter()
        .map(|mut spec| {
            spec.seed ^= mix(seed);
            spec
        })
        .collect()
}

/// Generates one benchmark's trace. Workloads call the generator
/// directly rather than through the process-wide trace cache, so no
/// environment setting can substitute what is measured.
pub fn generate(ctx: Ctx, spec: &ProgramSpec, scale: f64, request: u64) -> Trace {
    ctx.span("workloads.generate", request, |_| {
        spec.generate_scaled(scale)
    })
}

/// Directory for everything a run writes: span files, the corpus store
/// and server sockets. Inside the build directory, so a checkout stays
/// clean.
pub fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let dir = PathBuf::from(target).join("benchmark");
    // Unix socket paths are limited to ~100 bytes: prefer the path
    // relative to the working directory when the build directory lies
    // inside it.
    match std::env::current_dir() {
        Ok(cwd) => dir.strip_prefix(&cwd).map(Path::to_path_buf).unwrap_or(dir),
        Err(_) => dir,
    }
}

/// A fresh path under [`work_dir`], unique within this process.
pub fn unique_path(stem: &str, ext: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    work_dir().join(format!("{stem}-{}-{n}{ext}", std::process::id()))
}

/// Removes a directory tree when dropped.
pub struct TempDir(pub PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_calibrated_suite_and_seed_one_changes_every_program() {
        let calibrated: Vec<u64> = spec95::suite()
            .iter()
            .map(ProgramSpec::fingerprint)
            .collect();
        let zero: Vec<u64> = suite(0).iter().map(ProgramSpec::fingerprint).collect();
        assert_eq!(zero, calibrated);
        let one = suite(1);
        for ((spec, base), name) in one.iter().zip(&calibrated).zip(spec95::NAMES) {
            assert_eq!(spec.name, name);
            assert_ne!(spec.fingerprint(), *base, "{name} unchanged by seed 1");
        }
    }
}
