//! Stress: the parallel family must be deterministic and thread-count
//! independent — the property Fig. 11's measurements rest on.

use bfly::core::{count, count_parallel, Invariant};
use bfly::graph::generators::chung_lu;
use bfly::graph::StandIn;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// [`count_parallel`] inside a dedicated pool of `threads` workers.
fn parallel_with_threads(g: &bfly::graph::BipartiteGraph, inv: Invariant, threads: usize) -> u64 {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool construction");
    pool.install(|| count_parallel(g, inv))
}

#[test]
fn counts_identical_across_thread_counts() {
    let g = StandIn::RecordLabels.generate_scaled(0.02);
    let seq = count(&g, Invariant::Inv2);
    for inv in [
        Invariant::Inv1,
        Invariant::Inv4,
        Invariant::Inv6,
        Invariant::Inv7,
    ] {
        for threads in [1usize, 2, 3, 8] {
            assert_eq!(
                parallel_with_threads(&g, inv, threads),
                seq,
                "{inv} with {threads} threads"
            );
        }
    }
}

#[test]
fn repeated_parallel_runs_are_stable() {
    let mut rng = StdRng::seed_from_u64(515);
    let g = chung_lu(300, 250, 2000, 0.8, 0.8, &mut rng);
    let first = parallel_with_threads(&g, Invariant::Inv2, 4);
    for _ in 0..5 {
        assert_eq!(parallel_with_threads(&g, Invariant::Inv2, 4), first);
    }
    assert_eq!(first, count(&g, Invariant::Inv2));
}

#[test]
fn nested_pools_do_not_deadlock_or_diverge() {
    // Counting inside an outer rayon pool (as the report harness does).
    let g = StandIn::ArxivCondMat.generate_scaled(0.02);
    let want = count(&g, Invariant::Inv5);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    let got = pool.install(|| bfly::core::count_parallel(&g, Invariant::Inv5));
    assert_eq!(got, want);
}
