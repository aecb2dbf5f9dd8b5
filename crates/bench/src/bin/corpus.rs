//! Corpus front door: build, verify and list the on-disk trace corpus.
//!
//! ```text
//! cargo run --release -p ev8-bench --bin corpus -- build  [dir]
//! cargo run --release -p ev8-bench --bin corpus -- verify [dir]
//! cargo run --release -p ev8-bench --bin corpus -- ls     [dir]
//! ```
//!
//! `dir` defaults to `corpus/` in the current directory. `build` writes
//! one corpus file per SPECINT95 benchmark at the `EV8_SCALE` scale
//! (default 0.25, as for the experiment driver) and catalogs them;
//! rebuilding an existing identity replaces it. `verify` fully decodes
//! every cataloged file, checking each chunk checksum and the pinned
//! record/instruction counts. `ls` prints the catalog.

use std::path::Path;
use std::process::ExitCode;

use ev8_workloads::corpus::CorpusStore;
use ev8_workloads::spec95;

fn usage() -> ExitCode {
    eprintln!("usage: corpus <build|verify|ls> [dir]   (scale via EV8_SCALE)");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let dir = args.get(1).map(String::as_str).unwrap_or("corpus");
    match command.as_str() {
        "build" => build(Path::new(dir)),
        "verify" => verify(Path::new(dir)),
        "ls" => ls(Path::new(dir)),
        _ => usage(),
    }
}

fn build(dir: &Path) -> ExitCode {
    let scale = ev8_bench::scale_from_env(ev8_bench::DEFAULT_SCALE);
    let mut store = match CorpusStore::open(dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("corpus: cannot open {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "building {} benchmarks at scale {scale} into {}",
        spec95::NAMES.len(),
        dir.display()
    );
    for name in spec95::NAMES {
        let spec = spec95::benchmark(name).expect("known benchmark");
        let entry = match store.build(&spec, scale) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("corpus: build {name} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let bytes = std::fs::metadata(dir.join(&entry.file))
            .map(|m| m.len())
            .unwrap_or(0);
        println!(
            "  {name:<9} {:>9} records  {:>10} bytes  {:>5.2} B/record  -> {}",
            entry.record_count,
            bytes,
            bytes as f64 / entry.record_count.max(1) as f64,
            entry.file
        );
    }
    println!("catalog: {} entries", store.len());
    ExitCode::SUCCESS
}

fn verify(dir: &Path) -> ExitCode {
    let store = match CorpusStore::open(dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("corpus: cannot open {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    if store.is_empty() {
        eprintln!("corpus: no catalog entries in {}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for entry in store.entries() {
        match store.verify(entry) {
            Ok(records) => println!(
                "  {:<9} ok  ({records} records, {} instructions)",
                entry.benchmark, entry.instruction_count
            ),
            Err(e) => {
                println!("  {:<9} FAILED: {e}", entry.benchmark);
                failed = true;
            }
        }
    }
    if failed {
        eprintln!("corpus: verification FAILED");
        return ExitCode::FAILURE;
    }
    println!("all {} entries verified", store.len());
    ExitCode::SUCCESS
}

fn ls(dir: &Path) -> ExitCode {
    let store = match CorpusStore::open(dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("corpus: cannot open {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<9} {:>6} {:>12} {:>10} {:>4}  file",
        "bench", "ppm", "instructions", "records", "ver"
    );
    for e in store.entries() {
        println!(
            "{:<9} {:>6} {:>12} {:>10} {:>4}  {}",
            e.benchmark, e.scale_ppm, e.instructions, e.record_count, e.format_version, e.file
        );
    }
    ExitCode::SUCCESS
}
