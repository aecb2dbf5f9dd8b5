//! Front-end walkthrough: how the EV8 fetches two 8-instruction blocks
//! per cycle and what its predictor pipeline sees — fetch-block
//! formation, the lghist compression ratio (Table 3), the conflict-free
//! bank sequence (§6) and the weak line predictor the branch predictor
//! backs up (§2).
//!
//! ```text
//! cargo run --release --example frontend_pipeline
//! ```

use ev8_core::banks::BankSequencer;
use ev8_core::fetch::{blocks_of, BlockStats};
use ev8_core::line_predictor::LinePredictor;
use ev8_core::ras::{JumpPredictor, ReturnAddressStack};
use ev8_trace::BranchKind;
use ev8_workloads::spec95;

fn main() {
    let trace = spec95::benchmark("vortex")
        .expect("vortex is part of the suite")
        .generate_scaled(0.005);
    println!(
        "workload: {} ({} branch records)",
        trace.name(),
        trace.len()
    );
    println!();

    // 1. Fetch-block formation.
    let stats = BlockStats::from_trace(&trace);
    println!("fetch blocks:              {}", stats.blocks);
    println!(
        "mean block size:           {:.2} instructions",
        stats.mean_block_size()
    );
    println!(
        "blocks with cond. branches: {} ({:.1}%)",
        stats.blocks_with_conditionals,
        100.0 * stats.blocks_with_conditionals as f64 / stats.blocks as f64
    );
    println!(
        "lghist compression ratio:   {:.2} branches per history bit (Table 3)",
        stats.lghist_compression_ratio()
    );
    println!();

    // 2. Conflict-free banking: replay the block sequence through the
    // bank computation and verify no two successive blocks share a bank.
    let blocks = blocks_of(&trace);
    let mut seq = BankSequencer::new();
    let mut counts = [0u64; 4];
    let mut prev = None;
    let mut conflicts = 0u64;
    for b in &blocks {
        let bank = seq.next_bank(b.start);
        counts[bank as usize] += 1;
        if prev == Some(bank) {
            conflicts += 1;
        }
        prev = Some(bank);
    }
    println!("bank usage over {} blocks: {:?}", blocks.len(), counts);
    println!("successive-block bank conflicts: {conflicts} (guaranteed 0 by construction)");
    assert_eq!(conflicts, 0);
    println!();

    // 3. The line predictor: fast but weak — the reason the EV8 needs the
    // powerful backing conditional branch predictor at all.
    let mut lp = LinePredictor::new(12);
    let mut prev_block = None;
    for b in &blocks {
        if let Some(pb) = prev_block {
            lp.train(pb, b.start);
        }
        prev_block = Some(b.start);
    }
    println!(
        "line predictor accuracy:   {:.1}% over {} next-block predictions",
        lp.accuracy() * 100.0,
        lp.lookups()
    );
    println!("(low by design: single-cycle indexing, no real hashing — §2)");
    println!();

    // 4. The other PC-address-generator predictors: return address stack
    // and indirect jump predictor.
    let mut ras = ReturnAddressStack::new(8);
    let mut jp = JumpPredictor::new(10, 6);
    for rec in trace.iter() {
        match rec.kind {
            BranchKind::Call => ras.push(rec.pc.next()),
            BranchKind::Return => {
                ras.predict_return(rec.target);
            }
            BranchKind::IndirectJump => jp.train(rec.pc, rec.target),
            _ => {}
        }
    }
    println!(
        "return address stack:      {:.1}% over {} returns (8 entries)",
        ras.accuracy() * 100.0,
        ras.predictions()
    );
}
