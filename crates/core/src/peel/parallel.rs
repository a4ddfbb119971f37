//! The bucket-peeling engine: one driver for tip and wing decomposition,
//! sequential or frontier-parallel (ParButterfly's peeling strategy on
//! top of the [`super::bucket::BucketQueue`]).
//!
//! Every decomposition entry point runs one executor (`decompose`):
//! validate the graph, apply the budget, compute the overflow-checked
//! initial scores (the one body of [`crate::vertex_counts`] or
//! [`crate::edge_support`]) over wedge-balanced chunks, then peel.
//!
//! Each round extracts the *entire* minimum bucket — every item whose
//! current score equals the minimum — assigns all of them the current
//! peel level, and repairs the scores of the surviving items they shared
//! butterflies with. The repair is expressed as a per-item *kernel* that
//! scatters score decrements into a sparse accumulator; the driver
//! either runs the kernel over the frontier in place (sequential) or
//! splits the frontier into contiguous chunks, gives each worker a
//! private [`PeelScratch`], and merges the per-chunk delta lists into
//! one accumulator after the join — exactly the per-thread-SPA pattern
//! `family/parallel.rs` uses for counting, and the reason the result is
//! deterministic: the applied delta for each survivor is an integer sum
//! that does not depend on chunk boundaries or thread count.
//!
//! Scores are *clamped from below* at the current level when applied
//! (`new = max(level, old − delta)`). Peel numbers are the running
//! maximum of extraction scores, so an item whose true score drops below
//! the current level is peeled at that level either way; the clamp keeps
//! the bucket cursor monotone within a window without changing any peel
//! number.
//!
//! Why simultaneous removal matches one-at-a-time peeling:
//!
//! * **tip** — the pairwise count `C(|N(u) ∩ N(w)|, 2)` between two
//!   same-side vertices goes through the *other* side, which tip peeling
//!   never removes, so it is constant all run; removing a frontier set
//!   decreases each survivor by the plain sum over frontier members.
//! * **wing** — removing an edge set destroys each butterfly containing
//!   at least one of them exactly once; the kernel charges a butterfly
//!   to its minimum-id frontier edge, which decrements only the
//!   butterfly's non-frontier edges.

use super::bucket::{BucketQueue, StampSet};
use crate::budget::{record_degraded, Partial, ResourceBudget};
use crate::edge_support::checked_edge_supports;
use crate::error::{expect_ok, validate_graph, Result};
use crate::family::parallel::fork_join;
use crate::vertex_counts::{checked_vertex_counts, side_adj};
use bfly_graph::{BipartiteGraph, Side};
use bfly_sparse::{choose2, Pattern, Spa};
use bfly_telemetry::{Counter, NoopRecorder, Recorder};

/// Smallest frontier worth chunking across workers: below this the
/// per-round join (and the thread handoff of the vendored rayon shim)
/// costs more than the kernel work it distributes, so the round runs
/// inline on the caller's scratch.
pub const PAR_FRONTIER_MIN: usize = 128;

/// Per-worker peeling scratch: `cnt` accumulates wedge multiplicities
/// inside a single kernel invocation (tip only), `live` holds one
/// frontier edge's present row partners (wing only), `delta` accumulates
/// the chunk's score decrements across the whole round.
pub(super) struct PeelScratch {
    pub(super) cnt: Spa<u64>,
    pub(super) live: Vec<(u32, u32)>,
    pub(super) delta: Spa<u64>,
}

impl PeelScratch {
    fn new(n: usize) -> Self {
        PeelScratch {
            cnt: Spa::new(n),
            live: Vec::new(),
            delta: Spa::new(n),
        }
    }
}

/// The shared driver. `scores` are the initial butterfly counts or edge
/// supports; `kernel(item, alive, frontier, scratch)` scatters the score
/// decrements caused by removing `item` into `scratch.delta`. Returns
/// the peel number of every item.
///
/// Recorded per round: a `peel_round` span, [`Counter::PeelRounds`], the
/// peeled-item counter given by `peeled`, the `bucket_size` and
/// `support_updates` histograms, and [`Counter::SupportsRecomputed`]
/// (touched delta entries). Parallel rounds run their chunks through the
/// family's [`fork_join`] (one forked recorder, `chunk` span and
/// `chunk_us` sample per chunk; [`Counter::ParChunks`]).
///
/// An optional wall-clock deadline is polled at
/// round boundaries (the engine's phase boundary — never inside a
/// kernel). Returns `(peel, complete)`. When the deadline cuts the run
/// short, already-peeled items carry their exact peel numbers and every
/// still-alive item is assigned `max(level, residual score)` — an upper
/// bound on its true peel number, since residual scores only decrease
/// and the level only rises to an extracted score.
fn peel_with_kernel_deadline<R, K>(
    mut scores: Vec<u64>,
    chunks: usize,
    peeled: Counter,
    deadline: Option<std::time::Instant>,
    rec: &mut R,
    kernel: K,
) -> (Vec<u64>, bool)
where
    R: Recorder,
    K: Fn(u32, &[bool], &StampSet, &mut PeelScratch) + Sync,
{
    let n = scores.len();
    let mut alive = vec![true; n];
    let mut peel = vec![0u64; n];
    let mut queue = BucketQueue::new();
    for (i, &s) in scores.iter().enumerate() {
        queue.push(i as u32, s);
    }
    let mut frontier_set = StampSet::new(n);
    let mut main = PeelScratch::new(n);
    // Worker scratches persist across rounds; allocated on first use.
    let mut pool: Vec<PeelScratch> = Vec::new();
    let mut level = 0u64;
    let mut complete = true;
    while let Some((score, frontier)) = queue.pop_min_bucket(&scores, &mut alive) {
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            // The popped frontier was already marked dead; peel it at its
            // score like a normal round, then stop at this boundary.
            level = level.max(score);
            for &v in &frontier {
                peel[v as usize] = level;
            }
            complete = false;
            break;
        }
        level = level.max(score);
        if R::ENABLED {
            rec.span_enter("peel_round");
            rec.incr(Counter::PeelRounds, 1);
            rec.incr(peeled, frontier.len() as u64);
            rec.hist_record("bucket_size", frontier.len() as u64);
        }
        for &v in &frontier {
            peel[v as usize] = level;
        }
        // Score-0 items sit in no surviving butterfly (their stored score
        // upper-bounds the true one), so their removal repairs nothing.
        if score > 0 {
            frontier_set.clear();
            for &v in &frontier {
                frontier_set.insert(v);
            }
            if chunks > 1 && frontier.len() >= PAR_FRONTIER_MIN {
                while pool.len() < chunks {
                    pool.push(PeelScratch::new(n));
                }
                let chunk_len = frontier.len().div_ceil(chunks);
                let mut parts: Vec<(&[u32], PeelScratch)> = Vec::with_capacity(chunks);
                for part in frontier.chunks(chunk_len) {
                    parts.push((part, pool.pop().expect("pool sized to chunks")));
                }
                let (alive_ref, set_ref, kernel_ref) = (&alive, &frontier_set, &kernel);
                let results = fork_join(
                    parts,
                    || (),
                    rec,
                    |_, (part, mut scratch), _| {
                        for &v in part {
                            kernel_ref(v, alive_ref, set_ref, &mut scratch);
                        }
                        (scratch.delta.drain_sorted(), scratch)
                    },
                );
                // Merge every chunk's deltas before applying any of them:
                // a survivor's total decrement must be summed first, as
                // clamped partial applications would not commute.
                for ((idx, vals), scratch) in results {
                    for (&w, &d) in idx.iter().zip(vals.iter()) {
                        main.delta.scatter(w, d);
                    }
                    pool.push(scratch);
                }
            } else {
                for &v in &frontier {
                    kernel(v, &alive, &frontier_set, &mut main);
                }
            }
            let (idx, vals) = main.delta.drain_sorted();
            if R::ENABLED {
                rec.incr(Counter::SupportsRecomputed, idx.len() as u64);
                rec.hist_record("support_updates", idx.len() as u64);
            }
            for (&w, &d) in idx.iter().zip(vals.iter()) {
                let wx = w as usize;
                let old = scores[wx];
                let new = level.max(old.saturating_sub(d));
                if new != old {
                    scores[wx] = new;
                    queue.push(w, new);
                }
            }
        } else if R::ENABLED {
            rec.hist_record("support_updates", 0);
        }
        if R::ENABLED {
            rec.span_exit("peel_round");
        }
    }
    if !complete {
        for i in 0..n {
            if alive[i] {
                peel[i] = level.max(scores[i]);
            }
        }
    }
    (peel, complete)
}

/// Shared tip-peeling run: bucket engine over precomputed initial counts
/// with an optional round-boundary deadline.
fn tip_peel_run<R: Recorder>(
    g: &BipartiteGraph,
    side: Side,
    chunks: usize,
    init: Vec<u64>,
    deadline: Option<std::time::Instant>,
    rec: &mut R,
) -> (Vec<u64>, bool) {
    let (part_adj, other_adj) = side_adj(g, side);
    let kernel = |u: u32, alive: &[bool], _frontier: &StampSet, scratch: &mut PeelScratch| {
        // Wedge-expand from the removed vertex over surviving partners;
        // C(multiplicity, 2) butterflies vanish per surviving partner.
        for &j in part_adj.row(u as usize) {
            for &w in other_adj.row(j as usize) {
                if alive[w as usize] {
                    scratch.cnt.scatter(w, 1);
                }
            }
        }
        let PeelScratch { cnt, delta, .. } = scratch;
        for (w, c) in cnt.entries() {
            let shared = choose2(c);
            if shared > 0 {
                delta.scatter(w, shared);
            }
        }
        cnt.clear();
    };
    peel_with_kernel_deadline(init, chunks, Counter::PeeledVertices, deadline, rec, kernel)
}

/// Row-major edge id of every position of `at`, the transpose of `a`.
/// Walking `a`'s rows in order visits each column's entries in
/// ascending row order, which is exactly the sorted order of the
/// matching row of `at`, so one pass fills every slot.
fn transpose_edge_ids(a: &Pattern, at: &Pattern) -> Vec<u32> {
    let mut next = at.ptr()[..at.nrows()].to_vec();
    let mut ids = vec![0u32; a.nnz()];
    for (e, &v) in a.indices().iter().enumerate() {
        let slot = &mut next[v as usize];
        ids[*slot] = e as u32;
        *slot += 1;
    }
    ids
}

/// Shared wing-peeling run: bucket engine over precomputed initial
/// supports with an optional round-boundary deadline.
///
/// Edge ids are CSR positions of `a`, so the kernel never searches for
/// one: the endpoints of `e` are its row (the `ptr` range holding `e`)
/// and `a.indices()[e]`; `(u, x)` carries its id from the scan of row
/// `u`; `(w, v)` reads its id from the transpose table; and every
/// closing edge `(w, x)` falls out of one sorted merge of `u`'s live
/// partners against row `w`, at id `ptr[w] + position`.
fn wing_peel_run<R: Recorder>(
    g: &BipartiteGraph,
    chunks: usize,
    init: Vec<u64>,
    deadline: Option<std::time::Instant>,
    rec: &mut R,
) -> (Vec<u64>, bool) {
    let a = g.biadjacency();
    let at = g.biadjacency_t();
    let (ptr, cols) = (a.ptr(), a.indices());
    let wv_ids = transpose_edge_ids(a, at);
    let kernel = move |e: u32, alive: &[bool], frontier: &StampSet, scratch: &mut PeelScratch| {
        let ex = e as usize;
        let v = cols[ex];
        let u = ptr.partition_point(|&p| p <= ex) - 1;
        // An edge participates in this round's butterflies if it was
        // alive at round start — still alive now, or in the frontier.
        let present = |i: usize| alive[i] || frontier.contains(i as u32);
        let PeelScratch { live, delta, .. } = scratch;
        live.clear();
        for ux in ptr[u]..ptr[u + 1] {
            if cols[ux] != v && present(ux) {
                live.push((cols[ux], ux as u32));
            }
        }
        if live.is_empty() {
            return;
        }
        let v = v as usize;
        for p in at.ptr()[v]..at.ptr()[v + 1] {
            let w = at.indices()[p] as usize;
            let wv = wv_ids[p] as usize;
            if w == u || !present(wv) {
                continue;
            }
            let (row_w, base) = (a.row(w), ptr[w]);
            let (mut i, mut j) = (0, 0);
            while i < live.len() && j < row_w.len() {
                let (x, ux) = live[i];
                let y = row_w[j];
                if x < y {
                    i += 1;
                    continue;
                }
                if y < x {
                    j += 1;
                    continue;
                }
                let (ux, wx) = (ux as usize, base + j);
                i += 1;
                j += 1;
                if !present(wx) {
                    continue;
                }
                // The butterfly {e, ux, wv, wx} dies this round. Charge
                // it to its minimum-id frontier edge so it is processed
                // exactly once, decrementing only surviving edges.
                if [ux, wv, wx]
                    .iter()
                    .any(|&o| o < ex && frontier.contains(o as u32))
                {
                    continue;
                }
                for &o in &[ux, wv, wx] {
                    if alive[o] {
                        delta.scatter(o as u32, 1);
                    }
                }
            }
        }
    };
    peel_with_kernel_deadline(init, chunks, Counter::PeeledEdges, deadline, rec, kernel)
}

/// Estimated bytes for one [`PeelScratch`] over `n` items: two `Spa`s,
/// each roughly value (8) + stamp (8) + touched-list (8) bytes per slot.
fn scratch_bytes(n: usize) -> u64 {
    n as u64 * 48
}

/// Estimated fixed engine footprint over `n` items: scores, peel
/// numbers, alive flags, bucket queue entries.
fn engine_base_bytes(n: usize) -> u64 {
    n as u64 * 32
}

/// Pick the widest chunk fan-out the byte budget allows, degrading
/// parallel → sequential before giving up: each extra chunk costs one
/// [`PeelScratch`]. Returns `Err` only when even the sequential shape
/// (base + one scratch) does not fit.
fn budgeted_chunks<R: Recorder>(
    n: usize,
    want_chunks: usize,
    budget: &ResourceBudget,
    rec: &mut R,
) -> Result<usize> {
    let floor = engine_base_bytes(n) + scratch_bytes(n);
    budget.check_bytes(floor)?;
    let mut chunks = want_chunks.max(1);
    // Parallel rounds add one scratch per chunk on top of the main one.
    while chunks > 1 && !budget.bytes_fit(floor + chunks as u64 * scratch_bytes(n)) {
        chunks -= 1;
    }
    if chunks < want_chunks.max(1) {
        record_degraded(rec, "bytes");
        rec.gauge("budget.peel_chunks", chunks as f64);
    }
    Ok(chunks)
}

/// The decomposition a [`decompose`] run computes.
#[derive(Clone, Copy)]
enum Target {
    /// Tip numbers of one side's vertices.
    Tip(Side),
    /// Wing numbers of the edges.
    Wing,
}

/// The one decomposition executor, generic over tip and wing. It
/// validates the graph, refuses a wedge-work cap the initial scores
/// would exceed ([`BudgetExceeded`](crate::error::BflyError::BudgetExceeded)),
/// narrows `chunks` to what the byte budget holds (`budget.degraded` =
/// bytes), computes the overflow-checked initial scores over that many
/// wedge-balanced chunks, and peels with the same chunk count until the
/// budget's deadline. A deadline that expires stops peeling at a round
/// boundary and returns [`Partial::truncated`] (`budget.degraded` =
/// deadline): peeled items exact, still-alive items upper-bounded by
/// their residual score.
fn decompose<R: Recorder>(
    g: &BipartiteGraph,
    target: Target,
    chunks: usize,
    budget: &ResourceBudget,
    rec: &mut R,
) -> Result<Partial<Vec<u64>>> {
    validate_graph(g)?;
    budget.record_limits(rec);
    let (items, init_work) = match target {
        Target::Tip(side) => (g.nvertices(side), tip_init_work(g, side)),
        Target::Wing => (g.nedges(), wing_init_work(g)),
    };
    budget.check_wedge_work(init_work)?;
    let chunks = budgeted_chunks(items, chunks, budget, rec)?;
    let (peel, complete) = match target {
        Target::Tip(side) => {
            let init = checked_vertex_counts(g, side, chunks, 0)?;
            tip_peel_run(g, side, chunks, init, budget.deadline, rec)
        }
        Target::Wing => {
            let init = checked_edge_supports(g, chunks)?;
            wing_peel_run(g, chunks, init, budget.deadline, rec)
        }
    };
    if !complete {
        record_degraded(rec, "deadline");
        return Ok(Partial::truncated(peel));
    }
    Ok(Partial::complete(peel))
}

/// Budget-aware tip decomposition of `side` over `chunks` chunks (`1` =
/// sequential): the executor behind every tip entry point. A byte cap
/// too small for `chunks` scratches narrows the fan-out (`budget.degraded`
/// = bytes); a wedge-work cap the initial counts would exceed fails with
/// [`BudgetExceeded`](crate::error::BflyError::BudgetExceeded); an
/// expired deadline stops at a round boundary with
/// [`Partial::truncated`] — peeled vertices exact, the rest
/// upper-bounded. Output is identical for every chunk count.
pub fn tip_numbers_budgeted_recorded<R: Recorder>(
    g: &BipartiteGraph,
    side: Side,
    chunks: usize,
    budget: &ResourceBudget,
    rec: &mut R,
) -> Result<Partial<Vec<u64>>> {
    decompose(g, Target::Tip(side), chunks, budget, rec)
}

/// Budget-aware wing decomposition: [`tip_numbers_budgeted_recorded`]'s
/// executor and degradation order, over edges instead of vertices.
pub fn wing_numbers_budgeted_recorded<R: Recorder>(
    g: &BipartiteGraph,
    chunks: usize,
    budget: &ResourceBudget,
    rec: &mut R,
) -> Result<Partial<Vec<u64>>> {
    decompose(g, Target::Wing, chunks, budget, rec)
}

/// [`super::tip::tip_numbers`] with an explicit chunk count (`1` =
/// sequential; tests, benches and the CLI pin exact fan-outs with this):
/// the executor with an unlimited budget. Output is identical for every
/// chunk count; an initial count past `u64` panics naming
/// [`try_tip_numbers`].
pub fn tip_numbers_with_chunks<R: Recorder>(
    g: &BipartiteGraph,
    side: Side,
    chunks: usize,
    rec: &mut R,
) -> Vec<u64> {
    let unlimited = ResourceBudget::unlimited();
    expect_ok(
        decompose(g, Target::Tip(side), chunks, &unlimited, rec),
        "try_tip_numbers",
    )
    .value
}

/// [`super::wing::wing_numbers`] with an explicit chunk count: the
/// executor with an unlimited budget. Output is identical for every
/// chunk count; an initial support past `u64` panics naming
/// [`try_wing_numbers`].
pub fn wing_numbers_with_chunks<R: Recorder>(
    g: &BipartiteGraph,
    chunks: usize,
    rec: &mut R,
) -> Vec<u64> {
    let unlimited = ResourceBudget::unlimited();
    expect_ok(
        decompose(g, Target::Wing, chunks, &unlimited, rec),
        "try_wing_numbers",
    )
    .value
}

/// Fallible [`super::tip::tip_numbers`]: validates the graph and runs
/// the overflow-checked initial counts before peeling. Never panics on
/// structurally invalid input.
pub fn try_tip_numbers(g: &BipartiteGraph, side: Side) -> Result<Vec<u64>> {
    let unlimited = ResourceBudget::unlimited();
    Ok(decompose(g, Target::Tip(side), 1, &unlimited, &mut NoopRecorder)?.value)
}

/// Fallible [`super::wing::wing_numbers`]: validates the graph and runs
/// the overflow-checked initial supports before peeling.
pub fn try_wing_numbers(g: &BipartiteGraph) -> Result<Vec<u64>> {
    let unlimited = ResourceBudget::unlimited();
    Ok(decompose(g, Target::Wing, 1, &unlimited, &mut NoopRecorder)?.value)
}

/// Wedge work of the tip initial-count pass: `Σ_j deg(j)²` over the
/// never-peeled side (each vertex expands through its neighbours'
/// adjacency). Saturates at `u64::MAX` — a total that large exceeds any
/// realistic cap anyway.
fn tip_init_work(g: &BipartiteGraph, side: Side) -> u64 {
    let other = side_adj(g, side).1;
    let mut total = 0u128;
    for j in 0..other.nrows() {
        let d = other.row_nnz(j) as u128;
        total += d * d;
    }
    u64::try_from(total).unwrap_or(u64::MAX)
}

/// Wedge work of the wing initial-support pass:
/// `Σ_{(u,v)} deg(u)·deg(v)` — the per-edge expansion volume of eq. 23.
fn wing_init_work(g: &BipartiteGraph) -> u64 {
    let mut total = 0u128;
    for (u, v) in g.edges() {
        total += g.deg_v1(u as usize) as u128 * g.deg_v2(v as usize) as u128;
    }
    u64::try_from(total).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_graph::generators::{uniform_exact, with_planted_biclique};
    use bfly_telemetry::InMemoryRecorder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample(seed: u64) -> BipartiteGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        with_planted_biclique(
            &uniform_exact(30, 30, 110, &mut rng),
            &[0, 1, 2, 3, 4],
            &[0, 1, 2, 3],
        )
    }

    #[test]
    fn chunk_count_never_changes_tip_numbers() {
        for seed in [1u64, 2, 3] {
            let g = sample(seed);
            for side in [Side::V1, Side::V2] {
                let want = tip_numbers_with_chunks(&g, side, 1, &mut NoopRecorder);
                for chunks in [2usize, 4, 6] {
                    assert_eq!(
                        tip_numbers_with_chunks(&g, side, chunks, &mut NoopRecorder),
                        want,
                        "seed {seed} side {side:?} chunks {chunks}"
                    );
                }
            }
        }
    }

    #[test]
    fn chunk_count_never_changes_wing_numbers() {
        for seed in [4u64, 5, 6] {
            let g = sample(seed);
            let want = wing_numbers_with_chunks(&g, 1, &mut NoopRecorder);
            for chunks in [2usize, 4, 6] {
                assert_eq!(
                    wing_numbers_with_chunks(&g, chunks, &mut NoopRecorder),
                    want,
                    "seed {seed} chunks {chunks}"
                );
            }
        }
    }

    #[test]
    fn engine_records_rounds_buckets_and_repairs() {
        let g = sample(7);
        let mut rec = InMemoryRecorder::new();
        let tn = tip_numbers_with_chunks(&g, Side::V1, 1, &mut rec);
        let rounds = rec.counter(Counter::PeelRounds);
        assert!(rounds >= 1);
        assert_eq!(rec.counter(Counter::PeeledVertices), tn.len() as u64);
        let buckets = rec.histogram("bucket_size").expect("bucket_size recorded");
        assert_eq!(buckets.count(), rounds);
        assert_eq!(
            buckets.sum(),
            tn.len() as u64,
            "bucket sizes sum to the peeled item count"
        );
        assert!(rec.counter(Counter::SupportsRecomputed) > 0);
        assert!(rec.spans().iter().any(|s| s.name == "peel_round"));
    }

    #[test]
    fn parallel_rounds_merge_worker_traces() {
        // A biclique-dominated graph puts hundreds of edges in one
        // bucket, forcing the chunked path at small PAR_FRONTIER_MIN
        // multiples.
        let g = BipartiteGraph::complete(16, 16);
        let mut rec = InMemoryRecorder::new();
        let wn = wing_numbers_with_chunks(&g, 4, &mut rec);
        assert!(wn.iter().all(|&w| w == wn[0]), "biclique peels uniformly");
        assert!(rec.counter(Counter::ParChunks) >= 2);
        assert!(rec
            .spans()
            .iter()
            .any(|s| s.name == "chunk" && s.thread > 0));
    }

    #[test]
    fn empty_and_degenerate_graphs() {
        for g in [
            BipartiteGraph::empty(5, 5),
            BipartiteGraph::complete(1, 8),
            BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1)]).unwrap(),
        ] {
            for side in [Side::V1, Side::V2] {
                let tn = tip_numbers_with_chunks(&g, side, 4, &mut NoopRecorder);
                assert!(tn.iter().all(|&t| t == 0));
            }
            let wn = wing_numbers_with_chunks(&g, 4, &mut NoopRecorder);
            assert!(wn.iter().all(|&w| w == 0));
        }
    }
}
