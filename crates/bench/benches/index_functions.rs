//! Cost of index computation: the EV8's engineered bit equations, bit by
//! bit and as the tabulated linear map the predictor runs, versus the
//! skewing-family complete hash, and the primitive `H` transform / XOR
//! fold.

use ev8_util::bench::{black_box, Harness};

use ev8_core::config::WordlineMode;
use ev8_core::index::IndexInputs;
use ev8_predictors::skew::{h_transform, skew_index, xor_fold, InfoVector};
use ev8_trace::Pc;

/// The `i`-th of the 1024 index inputs both EV8 benches evaluate.
fn ev8_inputs(i: u64) -> IndexInputs {
    IndexInputs {
        pc: Pc::new(0x1_0000 + i * 4),
        history: i.wrapping_mul(0x9E37_79B9),
        z: Pc::new(0x2_0000 + (i % 64) * 32),
        bank: (i % 4) as u8,
        wordline: WordlineMode::HistoryAndAddress,
    }
}

fn main() {
    let mut h = Harness::from_env();
    let mut group = h.group("index_functions");
    group.throughput(1024);

    group.bench("ev8_all_four_tables", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in 0..1024u64 {
                let inputs = ev8_inputs(i);
                acc ^= inputs.bim() ^ inputs.g0() ^ inputs.g1() ^ inputs.meta();
            }
            black_box(acc)
        })
    });

    group.bench("ev8_linear_all_four_tables", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in 0..1024u64 {
                let idx = ev8_inputs(i).indices();
                acc ^= idx.bim ^ idx.g0 ^ idx.g1 ^ idx.meta;
            }
            black_box(acc)
        })
    });

    group.bench("complete_hash_all_four_tables", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1024u64 {
                let pc = Pc::new(0x1_0000 + i * 4);
                let hist = i.wrapping_mul(0x9E37_79B9);
                for (bank, (bits, hlen)) in [(14u32, 4u32), (16, 13), (16, 21), (16, 15)]
                    .iter()
                    .enumerate()
                {
                    acc ^= InfoVector::new(pc, hist, *hlen, *bits).index(bank as u32);
                }
            }
            black_box(acc)
        })
    });

    group.bench("h_transform_16bit", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1024u64 {
                acc ^= h_transform(i.wrapping_mul(0xC2B2_AE35), 16);
            }
            black_box(acc)
        })
    });

    group.bench("skew_index_bank2", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1024u64 {
                acc ^= skew_index(2, i, i.rotate_left(13), 16);
            }
            black_box(acc)
        })
    });

    group.bench("xor_fold_64_to_16", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1024u64 {
                acc ^= xor_fold((i as u128).wrapping_mul(0x0123_4567_89AB_CDEF), 16);
            }
            black_box(acc)
        })
    });

    group.finish();
}
