//! Criterion bench for **Fig. 10**: sequential timing of all eight
//! invariants on each KONECT stand-in (`BFLY_SCALE` controls size;
//! default 0.1), plus the global-order kernels (vertex-priority and
//! ranked aggregation) as extra rows — on these skewed stand-ins the
//! priority wedge total is 0.16–0.62× the best fixed side, so the new
//! rows are the measured headline win.

use bfly_bench::{load_datasets, scale_from_env};
use bfly_core::{count, count_priority, count_ranked, Invariant};
use bfly_graph::ordering::rank_ordered;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_fig10(c: &mut Criterion) {
    let datasets = load_datasets(scale_from_env());
    let mut group = c.benchmark_group("fig10_sequential");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    for (d, g) in &datasets {
        let name = d.spec().name;
        for inv in Invariant::ALL {
            group.bench_with_input(
                BenchmarkId::new(name, inv.number()),
                &(g, inv),
                |b, (g, inv)| b.iter(|| black_box(count(g, *inv))),
            );
        }
        // The global-order rows count the rank-ordered graph, built once
        // outside the timing as `bfly count` builds it, so they time the
        // kernel and not a relabel of the input-ordered stand-in.
        let g = &rank_ordered(g);
        group.bench_with_input(BenchmarkId::new(name, "priority"), &g, |b, g| {
            b.iter(|| black_box(count_priority(g)))
        });
        group.bench_with_input(BenchmarkId::new(name, "ranked"), &g, |b, g| {
            b.iter(|| black_box(count_ranked(g)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig10);
criterion_main!(benches);
