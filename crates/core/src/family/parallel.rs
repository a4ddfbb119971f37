//! Parallel members of the family (the paper's Fig. 11 measurements),
//! and the one chunk driver every parallel counting path runs through.
//!
//! Each loop iteration of a derived algorithm touches a disjoint slice of
//! the output (one exposed vertex's butterfly contribution), so the loop
//! parallelises directly: the items are cut into contiguous chunks, each
//! worker owns private scratch (a pair accumulator, allocated once per
//! worker rather than once per chunk), and the per-chunk [`CheckedAccum`]
//! partials merge in chunk order — bitwise-identical totals at any thread
//! count. The paper used 6 OpenMP threads; running
//! [`count_parallel`](super::count_parallel) inside a 6-thread rayon pool
//! reproduces that configuration exactly.
//!
//! Every member (fixed, priority, ranked) implements `Kernel` once.
//! Sequential runs call it inline on the caller's recorder
//! (`run_inline`); parallel runs go through `drive_chunks`, which
//! forks the recorder per chunk ([`Recorder::fork`]) and joins it back on
//! track `i + 1`.

use super::engine::DEADLINE_STRIDE;
use bfly_sparse::{CheckedAccum, Pattern};
use bfly_telemetry::{Counter, NoopRecorder, Recorder};
use rayon::prelude::*;
use std::ops::Range;
use std::time::Instant;

/// One family member's overflow-checked kernel body, written once. Items
/// are the member's index space in processing order (exposed vertices,
/// starts); the sequential and the parallel paths run the same body.
pub(crate) trait Kernel: Sync {
    /// Per-worker scratch (accumulator, batch buffers), allocated once
    /// per worker and reused across its chunks.
    type Scratch;

    /// Fresh scratch for one worker.
    fn scratch(&self) -> Self::Scratch;

    /// Process item `i` into `acc`; returns the wedges it expanded.
    fn item<R: Recorder>(
        &self,
        i: usize,
        scratch: &mut Self::Scratch,
        acc: &mut CheckedAccum,
        rec: &mut R,
    ) -> u64;

    /// Close a run of items — a chunk, or a stretch of a sequential
    /// pass, complete or cut by the deadline — folding anything the
    /// items buffered into `acc`.
    #[inline]
    fn flush<R: Recorder>(&self, scratch: &mut Self::Scratch, acc: &mut CheckedAccum, rec: &mut R) {
        let _ = (scratch, acc, rec);
    }
}

/// Deadline poll: reads the clock once every [`DEADLINE_STRIDE`] items,
/// never inside an item.
pub(crate) struct Poll {
    deadline: Option<Instant>,
    seen: usize,
}

impl Poll {
    pub(crate) fn new(deadline: Option<Instant>) -> Self {
        Poll { deadline, seen: 0 }
    }

    /// Count one item; `true` once the deadline has passed.
    #[inline]
    pub(crate) fn expired(&mut self) -> bool {
        self.seen += 1;
        self.seen.is_multiple_of(DEADLINE_STRIDE)
            && self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Run `items` of `kernel` into `acc`, then flush. Returns whether every
/// item ran before the deadline, and the wedges expanded.
pub(crate) fn run_range<K: Kernel, R: Recorder>(
    kernel: &K,
    items: Range<usize>,
    scratch: &mut K::Scratch,
    acc: &mut CheckedAccum,
    poll: &mut Poll,
    rec: &mut R,
) -> (bool, u64) {
    let mut wedges = 0u64;
    let mut complete = true;
    for i in items {
        if poll.expired() {
            complete = false;
            break;
        }
        wedges += kernel.item(i, scratch, acc, rec);
    }
    kernel.flush(scratch, acc, rec);
    (complete, wedges)
}

/// The sequential path: run `ranges` in order on the caller's recorder,
/// with one scratch and one deadline poll across all of them. Returns the
/// exact total (over the processed prefix when cut) and whether the run
/// completed.
pub(crate) fn run_inline<K: Kernel, R: Recorder>(
    kernel: &K,
    ranges: impl IntoIterator<Item = Range<usize>>,
    deadline: Option<Instant>,
    rec: &mut R,
) -> (CheckedAccum, bool) {
    let mut scratch = kernel.scratch();
    let mut acc = CheckedAccum::new();
    let mut poll = Poll::new(deadline);
    for items in ranges {
        if !run_range(kernel, items, &mut scratch, &mut acc, &mut poll, rec).0 {
            return (acc, false);
        }
    }
    (acc, true)
}

/// Fork-join over `chunks`: each chunk runs `body` on its own recorder,
/// forked from `rec` before the fork and joined back on track `i + 1`
/// (track 0 is the caller's), with per-worker scratch from `init`. Every
/// chunk records one `chunk` span and one `chunk_us` sample, and the run
/// bumps `par_chunks` — the one place parallel code emits them. Outputs
/// come back in chunk order.
pub(crate) fn fork_join<C, S, T, R>(
    chunks: Vec<C>,
    init: impl Fn() -> S + Sync,
    rec: &mut R,
    body: impl Fn(&mut S, C, &mut R::Worker) -> T + Sync,
) -> Vec<T>
where
    C: Send,
    T: Send,
    R: Recorder,
{
    let jobs: Vec<(C, R::Worker)> = chunks.into_iter().map(|c| (c, rec.fork())).collect();
    let done: Vec<(T, R::Worker)> = jobs
        .into_par_iter()
        .map_init(init, |scratch, (chunk, mut worker)| {
            let t0 = R::ENABLED.then(Instant::now);
            if R::ENABLED {
                worker.span_enter("chunk");
            }
            let out = body(scratch, chunk, &mut worker);
            if let Some(t0) = t0 {
                worker.span_exit("chunk");
                worker.hist_record("chunk_us", t0.elapsed().as_micros() as u64);
            }
            (out, worker)
        })
        .collect();
    if R::ENABLED {
        rec.incr(Counter::ParChunks, done.len() as u64);
    }
    done.into_iter()
        .enumerate()
        .map(|(i, (out, worker))| {
            rec.join(i as u32 + 1, worker);
            out
        })
        .collect()
}

/// Fill `out` by a per-vertex body over the rows of `rows`: inline over
/// every row for one chunk, else over [`balanced_ranges`] of its
/// [`wedge_weights`] against `opposite`, one [`fork_join`] chunk per
/// range with scratch from `init` per worker. Row `i`'s outputs start at
/// `out[offset(i)]`, so each chunk writes its own disjoint slice and
/// nothing is merged. The chunks run on a [`NoopRecorder`]: callers'
/// recorders see no `chunk` spans or `par_chunks` from it. Returns the
/// first chunk's error, in chunk order.
pub(crate) fn fill_balanced<S, E: Send>(
    out: &mut [u64],
    (rows, opposite): (&Pattern, &Pattern),
    chunks: usize,
    offset: impl Fn(usize) -> usize,
    init: impl Fn() -> S + Sync,
    body: impl Fn(&mut S, Range<usize>, &mut [u64]) -> Result<(), E> + Sync,
) -> Result<(), E> {
    if chunks <= 1 {
        return body(&mut init(), 0..rows.nrows(), out);
    }
    let ranges = balanced_ranges(&wedge_weights(rows, opposite), chunks);
    let mut parts = Vec::with_capacity(ranges.len());
    let mut rest = out;
    for items in ranges {
        let len = offset(items.end) - offset(items.start);
        let (part, tail) = std::mem::take(&mut rest).split_at_mut(len);
        parts.push((items, part));
        rest = tail;
    }
    fork_join(
        parts,
        init,
        &mut NoopRecorder,
        |scratch, (items, part), _| body(scratch, items, part),
    )
    .into_iter()
    .collect()
}

/// The chunk driver behind every parallel count: [`fork_join`] over item
/// ranges with the kernel's scratch allocated once per worker, each
/// chunk polling the deadline on its own. Partials merge in chunk order,
/// and the per-chunk wedge work lands in the `par_chunk_wedges` series
/// and the `par_imbalance` gauge (max over mean; 1.0 = balanced).
pub(crate) fn drive_chunks<K: Kernel, R: Recorder>(
    kernel: &K,
    chunks: Vec<Range<usize>>,
    deadline: Option<Instant>,
    rec: &mut R,
) -> (CheckedAccum, bool) {
    let done = fork_join(
        chunks,
        || kernel.scratch(),
        rec,
        |scratch, items, worker| {
            let mut acc = CheckedAccum::new();
            let mut poll = Poll::new(deadline);
            let (complete, wedges) = run_range(kernel, items, scratch, &mut acc, &mut poll, worker);
            (acc, complete, wedges)
        },
    );
    let mut total = CheckedAccum::new();
    let mut complete = true;
    let (mut max_wedges, mut sum_wedges) = (0u64, 0u64);
    for &(acc, chunk_complete, wedges) in &done {
        total.merge(acc);
        complete &= chunk_complete;
        if R::ENABLED {
            rec.series_push("par_chunk_wedges", wedges as f64);
        }
        max_wedges = max_wedges.max(wedges);
        sum_wedges += wedges;
    }
    if R::ENABLED && sum_wedges > 0 {
        let mean = sum_wedges as f64 / done.len() as f64;
        rec.gauge("par_imbalance", max_wedges as f64 / mean);
    }
    (total, complete)
}

/// The non-empty ranges between [`balanced_chunk_bounds`]: `nchunks`
/// contiguous item ranges of roughly equal weight.
pub(crate) fn balanced_ranges(weights: &[u64], nchunks: usize) -> Vec<Range<usize>> {
    balanced_chunk_bounds(weights, nchunks)
        .windows(2)
        .map(|w| w[0]..w[1])
        .filter(|r| !r.is_empty())
        .collect()
}

/// Exact wedge work each partitioned vertex will trigger: vertex `k`'s
/// update scans `Σ_{j ∈ N(k)} deg_other(j)` adjacency entries (its wedge
/// midpoints), which is what the `chunk_us` histogram showed to be wildly
/// unequal across equal-length vertex ranges on skewed graphs.
pub fn wedge_weights(part_adj: &Pattern, other_adj: &Pattern) -> Vec<u64> {
    (0..part_adj.nrows())
        .map(|k| {
            part_adj
                .row(k)
                .iter()
                .map(|&j| other_adj.row(j as usize).len() as u64)
                .sum()
        })
        .collect()
}

/// Chunk boundaries that equalise *work*, not vertex count: boundary `c`
/// is placed at the first index whose weight prefix sum reaches
/// `total · c / nchunks`. Returns `nchunks + 1` monotone bounds with
/// `bounds[0] == 0` and `bounds[nchunks] == weights.len()`; chunks may be
/// empty on degenerate inputs (all weight in one vertex). With all-zero
/// weights this degrades to equal vertex ranges.
pub fn balanced_chunk_bounds(weights: &[u64], nchunks: usize) -> Vec<usize> {
    let n = weights.len();
    let nchunks = nchunks.max(1);
    let total: u64 = weights.iter().sum();
    let mut bounds = Vec::with_capacity(nchunks + 1);
    bounds.push(0);
    if total == 0 {
        for c in 1..=nchunks {
            bounds.push(n * c / nchunks);
        }
        return bounds;
    }
    let mut prefix = 0u64;
    let mut i = 0usize;
    for c in 1..nchunks {
        // u64·usize can overflow u64 only past ~2^64 wedges; use u128.
        let target = (total as u128 * c as u128).div_ceil(nchunks as u128) as u64;
        while i < n && prefix < target {
            prefix += weights[i];
            i += 1;
        }
        bounds.push(i);
    }
    bounds.push(n);
    bounds
}

/// The p90 of the nonzero entries of a wedge-weight array — the statistic
/// the `vertex_wedges` histogram records per run, computed here directly
/// from the weights so chunk sizing can use it before any run exists.
/// Zero weights are excluded (most vertices of a sparse graph trigger no
/// wedges at all; including them collapses every percentile to 0).
/// Returns 0 when all weights are zero.
pub fn weight_p90(weights: &[u64]) -> u64 {
    let mut nz: Vec<u64> = weights.iter().copied().filter(|&w| w > 0).collect();
    if nz.is_empty() {
        return 0;
    }
    let k = (nz.len() - 1) * 9 / 10;
    *nz.select_nth_unstable(k).1
}

/// Measured-distribution chunk sizing: replaces the fixed
/// one-chunk-per-worker constant with a count derived from the wedge
/// weights themselves. The per-chunk work target is
/// `max(total / (4·workers), p90 nonzero vertex weight)` — four chunks
/// per worker gives the scheduler slack to absorb stragglers (the
/// `chunk_us` histograms show p90/p50 ratios of 3–8 on the skewed
/// stand-ins), while the p90 floor stops the target from dropping below
/// what a single heavy vertex forces into one chunk anyway
/// ([`balanced_chunk_bounds`] cannot split a vertex). The result is
/// clamped to `[workers, 64·workers]` — never fewer chunks than workers,
/// never so many that per-chunk accumulator setup dominates — and to the
/// vertex count.
pub fn tuned_chunk_count(weights: &[u64], workers: usize) -> usize {
    let workers = workers.max(1);
    let total: u64 = weights.iter().sum();
    if total == 0 {
        return workers.min(weights.len().max(1));
    }
    let target = (total / (4 * workers as u64))
        .max(weight_p90(weights))
        .max(1);
    let chunks = (total / target).max(1) as usize;
    chunks
        .clamp(workers, 64 * workers)
        .min(weights.len().max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::engine::FixedKernel;
    use crate::family::{count, count_parallel, Invariant};
    use crate::spec::count_via_spgemm;
    use bfly_graph::generators::{chung_lu, uniform_exact};
    use bfly_graph::BipartiteGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The adaptive plan's parallel shape: `nchunks` wedge-balanced chunks.
    fn balanced<R: Recorder>(kernel: &FixedKernel<'_>, nchunks: usize, rec: &mut R) -> u64 {
        let chunks = balanced_ranges(&kernel.item_weights(), nchunks);
        drive_chunks(kernel, chunks, None, rec).0.finish().unwrap()
    }

    #[test]
    fn weight_p90_ignores_zeros_and_orders_correctly() {
        assert_eq!(weight_p90(&[]), 0);
        assert_eq!(weight_p90(&[0, 0, 0]), 0);
        assert_eq!(weight_p90(&[7]), 7);
        // Ten nonzero values 1..=10: index (10-1)*9/10 = 8 → value 9.
        let w: Vec<u64> = (1..=10).collect();
        assert_eq!(weight_p90(&w), 9);
        // Zeros interleaved must not shift the percentile.
        let w: Vec<u64> = (1..=10).flat_map(|v| [0, v]).collect();
        assert_eq!(weight_p90(&w), 9);
    }

    #[test]
    fn tuned_chunk_count_stays_within_clamp() {
        // Uniform weights: total/(4w) dominates → ~4 chunks per worker.
        let uniform = vec![10u64; 1000];
        let c = tuned_chunk_count(&uniform, 8);
        assert!((8..=512).contains(&c), "{c}");
        assert!(c >= 8, "never fewer chunks than workers");
        // One massive vertex: the p90 floor keeps the count small rather
        // than slicing around an unsplittable vertex.
        let mut skewed = vec![1u64; 100];
        skewed[0] = 1_000_000;
        let c = tuned_chunk_count(&skewed, 4);
        assert!((4..=100).contains(&c), "{c}");
        // Degenerate inputs: never more chunks than vertices.
        assert_eq!(tuned_chunk_count(&[], 6), 1);
        assert_eq!(tuned_chunk_count(&[0, 0], 6), 2);
        assert_eq!(
            tuned_chunk_count(&uniform, 0),
            tuned_chunk_count(&uniform, 1)
        );
    }

    #[test]
    fn tuned_chunk_counts_still_count_exactly() {
        let mut rng = StdRng::seed_from_u64(515);
        let g = chung_lu(80, 60, 700, 1.0, 0.6, &mut rng);
        let want = count_via_spgemm(&g);
        let (part_adj, other_adj) = (g.biadjacency_t(), g.biadjacency());
        let weights = wedge_weights(part_adj, other_adj);
        let kernel = FixedKernel::of(&g, Invariant::Inv1);
        for workers in [1, 2, 4] {
            let chunks = tuned_chunk_count(&weights, workers);
            let got = balanced(&kernel, chunks, &mut NoopRecorder);
            assert_eq!(got, want, "workers {workers} chunks {chunks}");
        }
    }

    #[test]
    fn parallel_matches_sequential_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(4242);
        for _ in 0..5 {
            let g = uniform_exact(60, 40, 300, &mut rng);
            let want = count_via_spgemm(&g);
            for inv in Invariant::ALL {
                assert_eq!(count_parallel(&g, inv), want, "{inv}");
                assert_eq!(count(&g, inv), want, "{inv}");
            }
        }
    }

    #[test]
    fn parallel_matches_on_skewed_graphs() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = chung_lu(150, 100, 900, 0.8, 0.8, &mut rng);
        let want = count_via_spgemm(&g);
        for inv in Invariant::ALL {
            assert_eq!(count_parallel(&g, inv), want, "{inv}");
        }
    }

    #[test]
    fn pinned_pool_gives_same_answer() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = uniform_exact(50, 50, 250, &mut rng);
        let want = count(&g, Invariant::Inv2);
        for threads in [1, 2, 6] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            assert_eq!(pool.install(|| count_parallel(&g, Invariant::Inv2)), want);
            assert_eq!(pool.install(|| count_parallel(&g, Invariant::Inv7)), want);
        }
    }

    #[test]
    fn balanced_bounds_are_monotone_and_cover() {
        let weights = [0u64, 10, 0, 0, 50, 1, 1, 1, 200, 0];
        for nchunks in 1..=6 {
            let b = balanced_chunk_bounds(&weights, nchunks);
            assert_eq!(b.len(), nchunks + 1);
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().unwrap(), weights.len());
            assert!(b.windows(2).all(|w| w[0] <= w[1]), "{b:?}");
        }
        // All-zero weights fall back to equal vertex ranges.
        assert_eq!(balanced_chunk_bounds(&[0, 0, 0, 0], 2), vec![0, 2, 4]);
        assert_eq!(balanced_chunk_bounds(&[], 3), vec![0, 0, 0, 0]);
    }

    #[test]
    fn balanced_bounds_equalise_heavy_prefix() {
        // All weight up front: the first chunk must not also swallow the
        // light tail.
        let weights = [100u64, 100, 1, 1, 1, 1];
        let b = balanced_chunk_bounds(&weights, 2);
        assert_eq!(b, vec![0, 2, 6]);
    }

    #[test]
    fn balanced_parallel_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(99);
        for g in [
            uniform_exact(60, 40, 300, &mut rng),
            chung_lu(120, 30, 600, 0.95, 0.3, &mut rng),
        ] {
            let want = count_via_spgemm(&g);
            for inv in Invariant::ALL {
                let kernel = FixedKernel::of(&g, inv);
                for nchunks in [1, 3, 8] {
                    assert_eq!(
                        balanced(&kernel, nchunks, &mut NoopRecorder),
                        want,
                        "{inv} nchunks={nchunks}"
                    );
                }
            }
        }
    }

    #[test]
    fn balanced_recorded_preserves_total_wedge_work() {
        use bfly_telemetry::InMemoryRecorder;
        let mut rng = StdRng::seed_from_u64(17);
        let g = chung_lu(100, 40, 500, 0.9, 0.5, &mut rng);
        let want = count_via_spgemm(&g);
        let mut rec = InMemoryRecorder::new();
        let got = balanced(&FixedKernel::of(&g, Invariant::Inv2), 4, &mut rec);
        assert_eq!(got, want);
        // Wedge-work conservation: chunking never changes total work.
        assert_eq!(rec.counter(Counter::WedgesExpanded), g.wedges_through_v1());
        assert!(rec.counter(Counter::ParChunks) >= 1);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let empty = BipartiteGraph::empty(10, 10);
        let single = BipartiteGraph::from_edges(1, 1, &[(0, 0)]).unwrap();
        for inv in Invariant::ALL {
            assert_eq!(count_parallel(&empty, inv), 0);
            assert_eq!(count_parallel(&single, inv), 0);
        }
    }
}
