//! Ablation: the family's dense pair accumulator (`PairAccum`, one
//! packed generation-and-count slot per vertex, each wedge adding its
//! slot's previous count) vs hash-map aggregation for the per-vertex
//! wedge counts. The family runs `PairAccum`; the Wang-et-al.-style
//! baseline hashes to minimise work space — this bench quantifies the
//! trade on skewed and uniform inputs.

use bfly_core::baseline::count_hash_aggregation;
use bfly_core::{count, Invariant};
use bfly_graph::generators::{chung_lu, uniform_exact};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_accumulator(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xACC);
    let uniform = uniform_exact(8_000, 8_000, 60_000, &mut rng);
    let skewed = chung_lu(8_000, 8_000, 60_000, 0.8, 0.8, &mut rng);
    let mut group = c.benchmark_group("ablation_accumulator");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    for (label, g) in [("uniform", &uniform), ("skewed", &skewed)] {
        group.bench_with_input(BenchmarkId::new("pair_accum_inv2", label), g, |b, g| {
            b.iter(|| black_box(count(g, Invariant::Inv2)))
        });
        group.bench_with_input(BenchmarkId::new("hashmap", label), g, |b, g| {
            b.iter(|| black_box(count_hash_aggregation(g)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_accumulator);
criterion_main!(benches);
