//! The paper's evaluation from one front door:
//! `experiments <name|all> [scale]` runs one entry of
//! `ev8_bench::EXPERIMENTS`, or every entry of the full evaluation.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ev8_bench::experiments_main(&args)
}
