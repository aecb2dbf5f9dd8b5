//! Simultaneous multithreading and the branch predictor (§3 of the
//! paper): threads share the prediction tables but keep per-thread
//! history. Parallel threads *from the same application* benefit from
//! constructive aliasing; unrelated applications interfere.
//!
//! ```text
//! cargo run --release --example smt_interference
//! ```

use ev8_sim::experiments::smt::corun_mispki;
use ev8_workloads::spec95;

fn main() {
    let scale = 0.02;
    // Two phase-shifted halves of the same program (record ranges of one
    // trace): the model for two parallel threads of one application.
    let full = spec95::cached("li", 2.0 * scale).unwrap();
    let half = full.len() / 2;
    let li_a = (&*full, 0..half);
    let li_b = (&*full, half..full.len());
    let go = spec95::cached("go", scale).unwrap();

    // Baseline: li alone on a single-threaded EV8.
    let solo = corun_mispki(std::slice::from_ref(&li_a))[0];
    println!("li alone:                         {solo:.3} misp/KI");

    // Two parallel threads of the same application: constructive
    // aliasing — each thread trains table entries the other reuses.
    let same_app = corun_mispki(&[li_a.clone(), li_b]);
    println!(
        "li + li (shared tables, SMT):     {:.3} / {:.3} misp/KI  (constructive aliasing)",
        same_app[0], same_app[1]
    );

    // An unrelated co-runner: destructive interference on the shared
    // tables.
    let mixed = corun_mispki(&[li_a, (&*go, 0..go.len())]);
    println!(
        "li + go (shared tables, SMT):     {:.3} / {:.3} misp/KI  (destructive interference)",
        mixed[0], mixed[1]
    );

    println!();
    println!(
        "the paper's §3 argument: with global history this degradation is \
         manageable (one history register per thread); a local-history \
         scheme would also have its first-level history tables polluted"
    );
}
