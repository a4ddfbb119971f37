//! Smoke bench guarding the zero-overhead claim: counting through
//! `run_plan` with [`NoopRecorder`] must run at the speed of the
//! plain `count` (the recorder monomorphizes away), while the live
//! [`InMemoryRecorder`] pays only for what it measures. Compare the three
//! `inv2/*` rows — `plain` and `noop` should be indistinguishable.

use bfly_core::telemetry::{InMemoryRecorder, NoopRecorder};
use bfly_core::{count, run_plan, ExecMode, Invariant, Member, Plan};
use bfly_graph::generators::uniform_exact;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_noop_overhead(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x0B5);
    let g = uniform_exact(4_000, 4_000, 40_000, &mut rng);
    let mut group = c.benchmark_group("noop_overhead");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.bench_function("inv2/plain", |b| {
        b.iter(|| black_box(count(&g, Invariant::Inv2)))
    });
    let plan = Plan::forced(&g, Member::Fixed(Invariant::Inv2), ExecMode::Flat, None);
    group.bench_function("inv2/noop", |b| {
        b.iter(|| black_box(run_plan(&g, &plan, None, &mut NoopRecorder).unwrap().value))
    });
    group.bench_function("inv2/inmemory", |b| {
        b.iter(|| {
            let mut rec = InMemoryRecorder::new();
            black_box(run_plan(&g, &plan, None, &mut rec).unwrap().value)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_noop_overhead);
criterion_main!(benches);
