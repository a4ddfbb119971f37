//! Criterion bench for **Fig. 11**: parallel timing of all eight
//! invariants on each stand-in, inside a pinned thread pool
//! (`BFLY_THREADS`, default 6 to match the paper's machine), plus the
//! global-order kernels (vertex-priority and ranked aggregation). On
//! the skewed stand-ins these do a fraction of the best fixed side's
//! wedge work (0.16–0.62×, a measured ≥1.3× speedup end to end —
//! EXPERIMENTS.md E13); perf-smoke gates the work ratio in CI.

use bfly_bench::{load_datasets, scale_from_env, threads_from_env};
use bfly_core::adaptive::execute_plan;
use bfly_core::{ExecMode, Invariant, Member, Plan};
use bfly_graph::ordering::rank_ordered;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_fig11(c: &mut Criterion) {
    let datasets = load_datasets(scale_from_env());
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads_from_env())
        .build()
        .expect("thread pool");
    let mut group = c.benchmark_group("fig11_parallel");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    let mode = ExecMode::Parallel {
        chunks: pool.current_num_threads().max(1),
    };
    for (d, g) in &datasets {
        let name = d.spec().name;
        for inv in Invariant::ALL {
            let plan = Plan::forced(g, Member::Fixed(inv), mode, None);
            group.bench_with_input(BenchmarkId::new(name, inv.number()), &g, |b, g| {
                b.iter(|| pool.install(|| black_box(execute_plan(g, &plan))))
            });
        }
        // The global-order rows count the rank-ordered graph, built once
        // outside the timing as `bfly count` builds it.
        let g = &rank_ordered(g);
        for (label, member) in [("priority", Member::Priority), ("ranked", Member::Ranked)] {
            let plan = Plan::forced(g, member, mode, None);
            group.bench_with_input(BenchmarkId::new(name, label), &g, |b, g| {
                b.iter(|| pool.install(|| black_box(execute_plan(g, &plan))))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig11);
criterion_main!(benches);
