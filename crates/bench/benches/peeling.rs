//! Criterion bench for the §IV peeling algorithms (experiments E7/E8):
//! k-tip (wedge vs matrix vs Fig. 8 look-ahead), k-wing (wedge vs matrix),
//! and the full decompositions, on a noisy graph with a planted biclique.

use bfly_core::peel::{
    k_tip, k_tip_lookahead, k_tip_matrix, k_wing, k_wing_matrix, tip_numbers,
    tip_numbers_budgeted_recorded, wing_numbers, wing_numbers_with_chunks,
};
use bfly_core::telemetry::NoopRecorder;
use bfly_core::ResourceBudget;
use bfly_graph::generators::{uniform_exact, with_planted_biclique};
use bfly_graph::Side;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_peeling(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let base = uniform_exact(2_000, 2_000, 8_000, &mut rng);
    let block: Vec<u32> = (0..12).collect();
    let g = with_planted_biclique(&base, &block, &block);

    let mut group = c.benchmark_group("peeling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.bench_function("k_tip/wedge/k=10", |b| {
        b.iter(|| black_box(k_tip(&g, Side::V1, 10)))
    });
    group.bench_function("k_tip/matrix/k=10", |b| {
        b.iter(|| black_box(k_tip_matrix(&g, Side::V1, 10)))
    });
    group.bench_function("k_tip/lookahead/k=10", |b| {
        b.iter(|| black_box(k_tip_lookahead(&g, Side::V1, 10)))
    });
    group.bench_function("k_wing/wedge/k=3", |b| b.iter(|| black_box(k_wing(&g, 3))));
    group.bench_function("k_wing/matrix/k=3", |b| {
        b.iter(|| black_box(k_wing_matrix(&g, 3)))
    });
    group.bench_function("tip_numbers", |b| {
        b.iter(|| black_box(tip_numbers(&g, Side::V1)))
    });
    group.bench_function("wing_numbers", |b| b.iter(|| black_box(wing_numbers(&g))));
    group.finish();
}

/// Sequential vs chunked bucket-engine decompositions on a graph dense
/// enough to exceed `PAR_FRONTIER_MIN` per round (a fat planted block
/// over background noise), at the chunk widths the differential tests
/// pin.
fn bench_peel_throughput(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xFEED);
    let base = uniform_exact(3_000, 3_000, 12_000, &mut rng);
    let block: Vec<u32> = (0..24).collect();
    let g = with_planted_biclique(&base, &block, &block);

    let mut group = c.benchmark_group("peel_throughput");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    let unlimited = ResourceBudget::unlimited();
    for chunks in [1usize, 2, 4] {
        group.bench_function(format!("tip/chunks={chunks}"), |b| {
            b.iter(|| {
                let r = tip_numbers_budgeted_recorded(
                    &g,
                    Side::V1,
                    chunks,
                    &unlimited,
                    &mut NoopRecorder,
                );
                black_box(r.unwrap().value)
            })
        });
        group.bench_function(format!("wing/chunks={chunks}"), |b| {
            b.iter(|| black_box(wing_numbers_with_chunks(&g, chunks, &mut NoopRecorder)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_peeling, bench_peel_throughput);
criterion_main!(benches);
