//! Synthetic workload generation throughput: instructions generated per
//! second for a small-footprint (compress-like) and a large-footprint
//! (gcc-like) benchmark. Trace encode and decode speed is the `corpus/*`
//! group of the `corpus` bench.

use ev8_util::bench::Harness;

use ev8_workloads::spec95;

fn generation(h: &mut Harness) {
    let mut group = h.group("workload_generation");
    group.sample_size(10);
    for name in ["compress", "gcc"] {
        let spec = spec95::benchmark(name).expect("known benchmark");
        let instructions = (spec.instructions as f64 * 0.002) as u64;
        group.throughput(instructions);
        group.bench(name, |b| b.iter(|| spec.generate_scaled(0.002)));
    }
    group.finish();
}

fn main() {
    let mut h = Harness::from_env();
    generation(&mut h);
}
