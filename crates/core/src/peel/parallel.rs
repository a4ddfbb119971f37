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
//! butterflies with. The repair is a per-item `Repair` kernel that
//! scatters score decrements into a sparse accumulator. The driver runs
//! it over the frontier in place (sequential), or opens the round to a
//! pool of `chunks − 1` workers started once per decomposition: every
//! participant, the caller included, claims blocks of the frontier from
//! an atomic cursor into its own `PeelScratch`, and the workers' deltas
//! merge into the caller's before any score is applied. The applied
//! delta for each survivor is an integer sum that does not depend on
//! which participant ran which block, so every width peels the same.
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
use crate::vertex_counts::{checked_vertex_counts, side_adj};
use bfly_graph::{BipartiteGraph, Side};
use bfly_sparse::{choose2, Pattern, Spa};
use bfly_telemetry::{Counter, Recorder};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Instant;

/// Smallest frontier a round opens to the pool. Waking parked workers
/// costs microseconds, not a thread spawn, so the cut sits low: on the
/// `wing_decompose` benchmark input at 2 threads, cuts of 2 to 16 items
/// ran within noise of each other and 128 ran about 10% slower. The cut
/// is a plain item count, so the rounds that go parallel — and with
/// them `par_chunks` — repeat exactly from run to run.
pub const PAR_FRONTIER_MIN: usize = 8;

/// Blocks per participant a parallel round's frontier is cut into
/// (block = frontier ÷ (16 × participants), at least one item), so a
/// hub-heavy block cannot hold up the round and the shared cursor is
/// still touched rarely. On the `wing_decompose` benchmark input at 2
/// threads, 4 and 16 ran within noise and 64 about 5% slower.
const BLOCKS_PER_PARTICIPANT: usize = 16;

/// Per-participant peeling scratch. `delta` accumulates the score
/// decrements of every item the participant repairs in a round; the
/// rest is kernel-specific and empty for the kernel that does not use
/// it: `cnt` holds one tip vertex's wedge multiplicities, `live` and
/// `partners` one frontier edge's present row partners and column
/// partners, and `mark` the wing kernel's vertex marks (allocated on
/// first use).
struct PeelScratch {
    delta: Spa<u64>,
    cnt: Spa<u64>,
    live: Vec<(u32, u32)>,
    partners: Vec<(u32, u32)>,
    mark: Vec<u32>,
}

impl PeelScratch {
    /// Scratch over `n` items with a tip multiplicity accumulator over
    /// `cnt_len` vertices (0 for wing).
    fn new(n: usize, cnt_len: usize) -> Self {
        PeelScratch {
            delta: Spa::new(n),
            cnt: Spa::new(cnt_len),
            live: Vec::new(),
            partners: Vec::new(),
            mark: Vec::new(),
        }
    }
}

/// A decomposition's score repair: what removing one frontier item costs
/// its surviving neighbours, and the upkeep between rounds.
trait Repair: Send + Sync {
    /// Fresh scratch for one round participant.
    fn scratch(&self) -> PeelScratch;

    /// Scatter into `scratch.delta` the score decrements removing `item`
    /// causes. `alive` excludes every item peeled so far, this round's
    /// `frontier` included.
    fn repair(&self, item: u32, alive: &[bool], frontier: &StampSet, scratch: &mut PeelScratch);

    /// Between rounds, once `frontier` is dead: maintain the kernel's own
    /// tables. No participant runs while it does.
    fn retire(&mut self, frontier: &[u32], alive: &[bool]) {
        let _ = (frontier, alive);
    }
}

/// What every participant of a round reads: the alive flags, the
/// frontier (as a list to claim blocks of, and as a set), and the
/// kernel. The driver mutates it only while the pool is parked.
struct Round<K> {
    alive: Vec<bool>,
    frontier: Vec<u32>,
    set: StampSet,
    kernel: K,
}

impl<K: Repair> Round<K> {
    /// Repair blocks of the frontier claimed from `crew`'s cursor until
    /// none is left, as one of `chunks` participants: one `chunk` span
    /// and one `chunk_us` sample on `trace`, however many blocks it got.
    fn take_part<W: Recorder>(
        &self,
        crew: &Crew,
        chunks: usize,
        scratch: &mut PeelScratch,
        trace: &mut W,
    ) {
        let t0 = W::ENABLED.then(Instant::now);
        if W::ENABLED {
            trace.span_enter("chunk");
        }
        let len = self.frontier.len();
        let block = len.div_ceil(BLOCKS_PER_PARTICIPANT * chunks);
        loop {
            let at = crew.next.fetch_add(block, Ordering::Relaxed);
            if at >= len {
                break;
            }
            for &item in &self.frontier[at..len.min(at + block)] {
                self.kernel.repair(item, &self.alive, &self.set, scratch);
            }
        }
        if let Some(t0) = t0 {
            trace.span_exit("chunk");
            trace.hist_record("chunk_us", t0.elapsed().as_micros() as u64);
        }
    }
}

/// The round pool's control block. Workers park on `go` between rounds
/// (no spinning), the driver parks on `idle` until every worker has
/// finished the open round, and `next` is the open round's block cursor.
struct Crew {
    ctl: Mutex<Ctl>,
    go: Condvar,
    idle: Condvar,
    next: AtomicUsize,
}

/// Round counter, workers still inside the open round, and the two ways
/// the pool ends: the driver's stop, a worker's panic.
#[derive(Default)]
struct Ctl {
    round: u64,
    busy: usize,
    stop: bool,
    failed: bool,
}

impl Crew {
    fn new() -> Self {
        Crew {
            ctl: Mutex::new(Ctl::default()),
            go: Condvar::new(),
            idle: Condvar::new(),
            next: AtomicUsize::new(0),
        }
    }

    /// The control block, also after a participant panicked holding it:
    /// every update of it is a single field write, so it is never left
    /// half-done.
    fn ctl(&self) -> MutexGuard<'_, Ctl> {
        self.ctl.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Open a round to `workers` parked workers. The cursor publishes no
    /// data, so it is `Relaxed`: the reset reaches each worker through
    /// the `ctl` lock it takes to see the round, and the round's frontier
    /// through the state lock.
    fn open(&self, workers: usize) {
        self.next.store(0, Ordering::Relaxed);
        let mut ctl = self.ctl();
        ctl.round += 1;
        ctl.busy = workers;
        drop(ctl);
        self.go.notify_all();
    }

    /// Park until every worker has finished the open round. Returns
    /// whether one of them panicked.
    fn close(&self) -> bool {
        let mut ctl = self.ctl();
        while ctl.busy > 0 {
            ctl = self.idle.wait(ctl).unwrap_or_else(PoisonError::into_inner);
        }
        ctl.failed
    }

    /// A worker parks here until a round after `seen` opens (`true`) or
    /// the pool stops (`false`).
    fn await_round(&self, seen: &mut u64) -> bool {
        let mut ctl = self.ctl();
        while ctl.round == *seen && !ctl.stop {
            ctl = self.go.wait(ctl).unwrap_or_else(PoisonError::into_inner);
        }
        *seen = ctl.round;
        !ctl.stop
    }

    /// End the pool: every parked worker wakes and returns.
    fn stop(&self) {
        self.ctl().stop = true;
        self.go.notify_all();
    }
}

/// Stops the pool when the driver leaves its scope, by return or by
/// panic, so the scope's join never waits on a parked worker.
struct StopOnDrop<'a>(&'a Crew);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// Marks one worker's round finished when dropped — also when its
/// repair panics, which then fails the pool instead of hanging it.
struct Finished<'a>(&'a Crew);

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        let mut ctl = self.0.ctl();
        ctl.failed |= std::thread::panicking();
        ctl.busy -= 1;
        if ctl.busy == 0 {
            self.0.idle.notify_one();
        }
    }
}

/// One pool worker: park, take part in each round into its own `slot`,
/// park again; returns its trace when the pool stops.
fn crew_member<K: Repair, W: Recorder>(
    crew: &Crew,
    state: &RwLock<Round<K>>,
    slot: &Mutex<PeelScratch>,
    chunks: usize,
    mut trace: W,
) -> W {
    let mut seen = 0;
    while crew.await_round(&mut seen) {
        let _finished = Finished(crew);
        let round = state
            .read()
            .expect("the driver opens no round after a panic");
        let mut scratch = slot.lock().expect("only this worker repairs into its slot");
        round.take_part(crew, chunks, &mut scratch, &mut trace);
    }
    trace
}

/// The shared driver. `scores` are the initial butterfly counts or edge
/// supports; `kernel` repairs them as items peel. Returns the peel
/// number of every item.
///
/// Recorded per round: a `peel_round` span, [`Counter::PeelRounds`], the
/// peeled-item counter given by `peeled`, the `bucket_size` and
/// `support_updates` histograms, and [`Counter::SupportsRecomputed`]
/// (touched delta entries). A round whose repair frontier holds at least
/// [`PAR_FRONTIER_MIN`] items runs on all `chunks` participants: the
/// first such round starts `chunks − 1` scoped workers, which park
/// between rounds and stop when the driver returns. Each parallel round
/// adds `chunks` to [`Counter::ParChunks`] and leaves one `chunk` span
/// and one `chunk_us` sample per participant, on track 1 for the caller
/// and `2..=chunks` for the workers.
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
    deadline: Option<Instant>,
    rec: &mut R,
    kernel: K,
) -> (Vec<u64>, bool)
where
    R: Recorder,
    K: Repair,
{
    let n = scores.len();
    let chunks = chunks.max(1);
    let mut peel = vec![0u64; n];
    let mut queue = BucketQueue::new();
    for (i, &s) in scores.iter().enumerate() {
        queue.push(i as u32, s);
    }
    let mut main = kernel.scratch();
    // One scratch per worker; `Spa::new` is zeroed memory, so a pool
    // that never starts costs no resident pages.
    let workers = if n >= PAR_FRONTIER_MIN { chunks - 1 } else { 0 };
    let slots: Vec<Mutex<PeelScratch>> =
        (0..workers).map(|_| Mutex::new(kernel.scratch())).collect();
    let state = RwLock::new(Round {
        alive: vec![true; n],
        frontier: Vec::new(),
        set: StampSet::new(n),
        kernel,
    });
    let write = || {
        state
            .write()
            .expect("round state written only by the driver")
    };
    let crew = Crew::new();
    let mut level = 0u64;
    let mut complete = true;
    std::thread::scope(|s| {
        let _stop = StopOnDrop(&crew);
        let mut members = Vec::new();
        let mut main_trace = None;
        loop {
            let mut round = write();
            let Some((score, frontier)) = queue.pop_min_bucket(&scores, &mut round.alive) else {
                break;
            };
            if deadline.is_some_and(|d| Instant::now() >= d) {
                // The popped frontier was already marked dead; peel it at
                // its score like a normal round, then stop at this
                // boundary.
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
            round.frontier = frontier;
            // Score-0 items sit in no surviving butterfly (their stored
            // score upper-bounds the true one), so their removal repairs
            // nothing.
            if score > 0 {
                let Round { frontier, set, .. } = &mut *round;
                set.clear();
                for &v in frontier.iter() {
                    set.insert(v);
                }
                if workers > 0 && frontier.len() >= PAR_FRONTIER_MIN {
                    if members.is_empty() {
                        main_trace = Some(rec.fork());
                        for slot in &slots {
                            let (crew, state, trace) = (&crew, &state, rec.fork());
                            members.push(
                                s.spawn(move || crew_member(crew, state, slot, chunks, trace)),
                            );
                        }
                    }
                    drop(round);
                    crew.open(workers);
                    let trace = main_trace.as_mut().expect("forked with the pool");
                    state
                        .read()
                        .expect("round state written only by the driver")
                        .take_part(&crew, chunks, &mut main, trace);
                    assert!(!crew.close(), "a peel round worker panicked");
                    if R::ENABLED {
                        rec.incr(Counter::ParChunks, chunks as u64);
                    }
                    // Merge every worker's deltas before applying any:
                    // a survivor's total decrement must be summed first,
                    // as clamped partial applications would not commute.
                    for slot in &slots {
                        let mut w = slot.lock().expect("no worker panicked this round");
                        for (i, d) in w.delta.entries() {
                            main.delta.scatter(i, d);
                        }
                        w.delta.clear();
                    }
                    round = write();
                } else {
                    let Round {
                        alive,
                        frontier,
                        set,
                        kernel,
                    } = &*round;
                    for &v in frontier {
                        kernel.repair(v, alive, set, &mut main);
                    }
                }
                let touched = main.delta.touched_len() as u64;
                if R::ENABLED {
                    rec.incr(Counter::SupportsRecomputed, touched);
                    rec.hist_record("support_updates", touched);
                }
                // In touch order: the next frontier is the same set in
                // any order, so sorting would buy nothing.
                for (w, d) in main.delta.entries() {
                    let wx = w as usize;
                    let old = scores[wx];
                    let new = level.max(old.saturating_sub(d));
                    if new != old {
                        scores[wx] = new;
                        queue.push(w, new);
                    }
                }
                main.delta.clear();
            } else if R::ENABLED {
                rec.hist_record("support_updates", 0);
            }
            let Round {
                alive,
                frontier,
                kernel,
                ..
            } = &mut *round;
            kernel.retire(frontier, alive);
            if R::ENABLED {
                rec.span_exit("peel_round");
            }
        }
        crew.stop();
        if let Some(trace) = main_trace {
            rec.join(1, trace);
        }
        for (i, member) in members.into_iter().enumerate() {
            match member.join() {
                Ok(trace) => rec.join(i as u32 + 2, trace),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    if !complete {
        let alive = &state.read().expect("the pool has stopped").alive;
        for i in 0..n {
            if alive[i] {
                peel[i] = level.max(scores[i]);
            }
        }
    }
    (peel, complete)
}

/// Tip repair: wedge-expand from the removed vertex over its surviving
/// same-side partners.
struct TipRepair<'g> {
    part_adj: &'g Pattern,
    other_adj: &'g Pattern,
}

impl Repair for TipRepair<'_> {
    fn scratch(&self) -> PeelScratch {
        let n = self.part_adj.nrows();
        PeelScratch::new(n, n)
    }

    fn repair(&self, u: u32, alive: &[bool], _frontier: &StampSet, scratch: &mut PeelScratch) {
        // C(multiplicity, 2) butterflies vanish per surviving partner.
        for &j in self.part_adj.row(u as usize) {
            for &w in self.other_adj.row(j as usize) {
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
    }
}

/// Shared tip-peeling run: bucket engine over precomputed initial counts
/// with an optional round-boundary deadline.
fn tip_peel_run<R: Recorder>(
    g: &BipartiteGraph,
    side: Side,
    chunks: usize,
    init: Vec<u64>,
    deadline: Option<Instant>,
    rec: &mut R,
) -> (Vec<u64>, bool) {
    let (part_adj, other_adj) = side_adj(g, side);
    let kernel = TipRepair {
        part_adj,
        other_adj,
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

/// A row compacts once its deaths since the last compaction reach
/// 1/`COMPACT_SHARE` of its live length. On the `wing_decompose`
/// benchmark input (seed 1) the repairs read 45M row entries at 1/16,
/// 50M at 1/4, 44M compacting at every death and 112M never
/// compacting; at 2 threads the first three ran within noise of each
/// other and never compacting ran about 15% slower.
const COMPACT_SHARE: usize = 16;

/// One orientation of the biadjacency as wing peeling sees it: the live
/// entries of row `i` are positions `start[i]..end[i]` of `nbr` (the
/// neighbour) and `id` (the edge id), sorted by neighbour. An edge that
/// dies stays in its rows until they compact, so readers still test
/// presence.
struct LiveRows<'g> {
    start: &'g [usize],
    nbr: Vec<u32>,
    id: Vec<u32>,
    end: Vec<u32>,
    dead: Vec<u32>,
}

impl<'g> LiveRows<'g> {
    /// Every row of `p` in full, position `k` holding edge `id[k]`.
    fn new(p: &'g Pattern, id: Vec<u32>) -> Self {
        LiveRows {
            start: &p.ptr()[..p.nrows()],
            nbr: p.indices().to_vec(),
            id,
            end: p.ptr()[1..].iter().map(|&e| e as u32).collect(),
            dead: vec![0; p.nrows()],
        }
    }

    /// Row `i`'s live neighbours and their edge ids.
    #[inline]
    fn row(&self, i: usize) -> (&[u32], &[u32]) {
        let span = self.start[i]..self.end[i] as usize;
        (&self.nbr[span.clone()], &self.id[span])
    }

    /// Row `i`'s live length.
    #[inline]
    fn len(&self, i: usize) -> usize {
        self.end[i] as usize - self.start[i]
    }

    /// Count one death in row `i`; `true` exactly when it makes the row
    /// due for compaction.
    fn kill(&mut self, i: usize) -> bool {
        let len = self.len(i);
        self.dead[i] += 1;
        let dead = self.dead[i] as usize;
        dead * COMPACT_SHARE >= len && (dead - 1) * COMPACT_SHARE < len
    }

    /// Drop row `i`'s dead entries in place, keeping the order.
    fn compact(&mut self, i: usize, alive: &[bool]) {
        let mut to = self.start[i];
        for from in self.start[i]..self.end[i] as usize {
            let id = self.id[from];
            if alive[id as usize] {
                self.nbr[to] = self.nbr[from];
                self.id[to] = id;
                to += 1;
            }
        }
        self.end[i] = to as u32;
        self.dead[i] = 0;
    }

    /// Bytes the tables hold.
    #[cfg(test)]
    fn heap_bytes(&self) -> u64 {
        4 * (self.nbr.capacity() + self.id.capacity() + self.end.capacity() + self.dead.capacity())
            as u64
    }
}

/// How a wing repair enumerates a frontier edge's butterflies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Via {
    /// Merge `u`'s live row against the live row of each `w ∈ N(v)`.
    Merge,
    /// Mark each `w ∈ N(v)`, then scan the live column of each `x ∈ N(u)`.
    Mark,
}

/// Wing repair over live rows of `A` (`u → x`) and `Aᵀ` (`v → w`).
/// Edge ids are CSR positions of `A`, so the kernel never searches for
/// one: the endpoints of `e` are its row (the `ptr` range holding `e`)
/// and `cols[e]`, and every live entry carries its edge's id.
struct WingRepair<'g> {
    ptr: &'g [usize],
    cols: &'g [u32],
    rows: LiveRows<'g>,
    tcols: LiveRows<'g>,
    /// Rows and columns due for compaction (between-rounds scratch).
    due: Vec<u32>,
    tdue: Vec<u32>,
}

/// Mark of a vertex no column partner holds.
const UNMARKED: u32 = u32::MAX;

impl<'g> WingRepair<'g> {
    fn new(g: &'g BipartiteGraph) -> Self {
        let (a, at) = (g.biadjacency(), g.biadjacency_t());
        // Edge ids, row ends and marks are `u32`, and no id is UNMARKED.
        assert!(
            u32::try_from(a.nnz()).is_ok_and(|m| m < UNMARKED),
            "wing peeling numbers edges in u32"
        );
        WingRepair {
            ptr: a.ptr(),
            cols: a.indices(),
            rows: LiveRows::new(a, (0..a.nnz() as u32).collect()),
            tcols: LiveRows::new(at, transpose_edge_ids(a, at)),
            due: Vec::new(),
            tdue: Vec::new(),
        }
    }

    /// The endpoints `(u, v)` of edge `e`.
    #[inline]
    fn ends(&self, e: usize) -> (usize, usize) {
        (
            self.ptr.partition_point(|&p| p <= e) - 1,
            self.cols[e] as usize,
        )
    }

    /// [`Repair::repair`] for frontier edge `e = (u, v)` down `via`, or
    /// down the cheaper side when `None`. Both sides find every `(w, x)`
    /// with `(u, x)`, `(w, v)` and `(w, x)` present, `w ≠ u`, `x ≠ v`;
    /// their costs come from live lengths the partner scans read anyway:
    /// over `u`'s partners `L` and `v`'s partners `P`, merging costs
    /// `|P|·|L| + Σ_{w ∈ P} |row w|`, marking `|P| + Σ_{x ∈ L} |column x|`.
    fn repair_via(
        &self,
        e: u32,
        alive: &[bool],
        frontier: &StampSet,
        scratch: &mut PeelScratch,
        via: Option<Via>,
    ) {
        let ex = e as usize;
        let (u, v) = self.ends(ex);
        // An edge participates in this round's butterflies if it was
        // alive at round start — still alive now, or in the frontier.
        let present = |i: u32| alive[i as usize] || frontier.contains(i);
        let PeelScratch {
            live,
            partners,
            mark,
            delta,
            ..
        } = scratch;
        live.clear();
        let mut mark_cost = 0;
        let (xs, ids) = self.rows.row(u);
        for (&x, &ux) in xs.iter().zip(ids) {
            if x as usize != v && present(ux) {
                live.push((x, ux));
                mark_cost += self.tcols.len(x as usize);
            }
        }
        if live.is_empty() {
            return;
        }
        partners.clear();
        let mut merge_cost = 0;
        let (ws, ids) = self.tcols.row(v);
        for (&w, &wv) in ws.iter().zip(ids) {
            if w as usize != u && present(wv) {
                partners.push((w, wv));
                merge_cost += self.rows.len(w as usize);
            }
        }
        if partners.is_empty() {
            return;
        }
        merge_cost += partners.len() * live.len();
        mark_cost += partners.len();
        // The butterfly {e, ux, wv, wx} dies this round. Charge it to its
        // minimum-id frontier edge so it is processed exactly once,
        // decrementing only surviving edges.
        let mut charge = |ux: u32, wv: u32, wx: u32| {
            let others = [ux, wv, wx];
            if others
                .iter()
                .any(|&o| (o as usize) < ex && frontier.contains(o))
            {
                return;
            }
            for o in others {
                if alive[o as usize] {
                    delta.scatter(o, 1);
                }
            }
        };
        let via = via.unwrap_or(if merge_cost <= mark_cost {
            Via::Merge
        } else {
            Via::Mark
        });
        match via {
            Via::Merge => {
                for &(w, wv) in partners.iter() {
                    let (row_w, ids_w) = self.rows.row(w as usize);
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
                        let wx = ids_w[j];
                        i += 1;
                        j += 1;
                        if present(wx) {
                            charge(ux, wv, wx);
                        }
                    }
                }
            }
            Via::Mark => {
                if mark.is_empty() {
                    mark.resize(self.rows.start.len(), UNMARKED);
                }
                for &(w, wv) in partners.iter() {
                    mark[w as usize] = wv;
                }
                for &(x, ux) in live.iter() {
                    let (col_x, ids_x) = self.tcols.row(x as usize);
                    for (&w, &wx) in col_x.iter().zip(ids_x) {
                        let wv = mark[w as usize];
                        if wv != UNMARKED && present(wx) {
                            charge(ux, wv, wx);
                        }
                    }
                }
                for &(w, _) in partners.iter() {
                    mark[w as usize] = UNMARKED;
                }
            }
        }
    }
}

impl Repair for WingRepair<'_> {
    fn scratch(&self) -> PeelScratch {
        PeelScratch::new(self.cols.len(), 0)
    }

    #[inline]
    fn repair(&self, e: u32, alive: &[bool], frontier: &StampSet, scratch: &mut PeelScratch) {
        self.repair_via(e, alive, frontier, scratch, None);
    }

    /// Count the frontier's deaths per row and column, then compact each
    /// row or column they made due.
    fn retire(&mut self, frontier: &[u32], alive: &[bool]) {
        for &e in frontier {
            let (u, v) = self.ends(e as usize);
            if self.rows.kill(u) {
                self.due.push(u as u32);
            }
            if self.tcols.kill(v) {
                self.tdue.push(v as u32);
            }
        }
        for u in self.due.drain(..) {
            self.rows.compact(u as usize, alive);
        }
        for v in self.tdue.drain(..) {
            self.tcols.compact(v as usize, alive);
        }
    }
}

/// Shared wing-peeling run: bucket engine over precomputed initial
/// supports with an optional round-boundary deadline, repairing over
/// live rows ([`WingRepair`]).
fn wing_peel_run<R: Recorder>(
    g: &BipartiteGraph,
    chunks: usize,
    init: Vec<u64>,
    deadline: Option<Instant>,
    rec: &mut R,
) -> (Vec<u64>, bool) {
    let kernel = WingRepair::new(g);
    peel_with_kernel_deadline(init, chunks, Counter::PeeledEdges, deadline, rec, kernel)
}

/// Bytes a [`Spa<u64>`] over `n` slots can hold: per slot a value (8),
/// a stamp (4) and room for a 4-byte touched entry twice over, since
/// the touched list grows by doubling (8).
fn spa_bytes(n: usize) -> u64 {
    20 * n as u64
}

/// Bytes the engine holds whatever the width: per item a score and a
/// peel number (8 + 8), an alive flag (1), a frontier stamp (4), a
/// frontier slot (4) and at least one bucket entry (4); and for wing the
/// live rows of `A` and `Aᵀ` — a neighbour and an edge id per entry
/// (4 + 4, both orientations) and a live end and a death count per row
/// (4 + 4, both sides).
fn engine_bytes(g: &BipartiteGraph, target: Target) -> u64 {
    let base = 29 * target.items(g) as u64;
    match target {
        Target::Tip(_) => base,
        Target::Wing => base + 16 * g.nedges() as u64 + 8 * (g.nv1() + g.nv2()) as u64,
    }
}

/// Bytes one round participant's scratch can hold: its delta
/// accumulator, plus the tip multiplicity accumulator, or the wing
/// vertex marks (4 per `A` row) and partner lists (8 per entry of the
/// longest row and column).
fn scratch_bytes(g: &BipartiteGraph, target: Target) -> u64 {
    let items = target.items(g);
    let extra = match target {
        Target::Tip(side) => spa_bytes(g.nvertices(side)),
        Target::Wing => {
            let longest = |p: &Pattern| (0..p.nrows()).map(|i| p.row_nnz(i)).max().unwrap_or(0);
            4 * g.nv1() as u64 + 8 * (longest(g.biadjacency()) + longest(g.biadjacency_t())) as u64
        }
    };
    spa_bytes(items) + extra
}

/// Pick the widest chunk fan-out the byte budget allows, degrading
/// parallel → sequential before giving up: each participant past the
/// caller costs one [`PeelScratch`]. Returns `Err` only when even the
/// sequential shape (the engine and the caller's scratch) does not fit.
fn budgeted_chunks<R: Recorder>(
    g: &BipartiteGraph,
    target: Target,
    want_chunks: usize,
    budget: &ResourceBudget,
    rec: &mut R,
) -> Result<usize> {
    let (base, scratch) = (engine_bytes(g, target), scratch_bytes(g, target));
    budget.check_bytes(base + scratch)?;
    let mut chunks = want_chunks.max(1);
    while chunks > 1 && !budget.bytes_fit(base + chunks as u64 * scratch) {
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

impl Target {
    /// The items peeled: one side's vertices, or the edges.
    fn items(self, g: &BipartiteGraph) -> usize {
        match self {
            Target::Tip(side) => g.nvertices(side),
            Target::Wing => g.nedges(),
        }
    }
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
    let init_work = match target {
        Target::Tip(side) => tip_init_work(g, side),
        Target::Wing => wing_init_work(g),
    };
    budget.check_wedge_work(init_work)?;
    let chunks = budgeted_chunks(g, target, chunks, budget, rec)?;
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

/// [`super::wing::wing_numbers`] with an explicit chunk count: the
/// executor with an unlimited budget. Output is identical for every
/// chunk count; an initial support past `u64` panics naming
/// [`wing_numbers_budgeted_recorded`], which returns it as a typed error.
/// Kept for the benchmark's `bfly-replica`, which imports it; it goes
/// with the replica.
pub fn wing_numbers_with_chunks<R: Recorder>(
    g: &BipartiteGraph,
    chunks: usize,
    rec: &mut R,
) -> Vec<u64> {
    let unlimited = ResourceBudget::unlimited();
    expect_ok(
        decompose(g, Target::Wing, chunks, &unlimited, rec),
        "wing_numbers_budgeted_recorded",
    )
    .value
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
    use bfly_telemetry::{InMemoryRecorder, NoopRecorder};
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

    /// Tip numbers of `side` over `chunks` chunks, unlimited budget.
    fn tips<R: Recorder>(g: &BipartiteGraph, side: Side, chunks: usize, rec: &mut R) -> Vec<u64> {
        let unlimited = ResourceBudget::unlimited();
        tip_numbers_budgeted_recorded(g, side, chunks, &unlimited, rec)
            .unwrap()
            .value
    }

    #[test]
    fn chunk_count_never_changes_tip_numbers() {
        for seed in [1u64, 2, 3] {
            let g = sample(seed);
            for side in [Side::V1, Side::V2] {
                let want = tips(&g, side, 1, &mut NoopRecorder);
                for chunks in [2usize, 4, 6] {
                    assert_eq!(
                        tips(&g, side, chunks, &mut NoopRecorder),
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
        let tn = tips(&g, Side::V1, 1, &mut rec);
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

    /// A graph with many rounds, several of them parallel: a planted
    /// `K_{8,20}` over a uniform background.
    fn hub_sample() -> BipartiteGraph {
        let mut rng = StdRng::seed_from_u64(9);
        let hubs: Vec<u32> = (0..8).collect();
        let leaves: Vec<u32> = (0..20).collect();
        with_planted_biclique(&uniform_exact(60, 60, 500, &mut rng), &hubs, &leaves)
    }

    /// Counter totals of a recorded run, `par_chunks` left out.
    fn counters_but_par_chunks(rec: &InMemoryRecorder) -> Vec<(Counter, u64)> {
        Counter::ALL
            .iter()
            .filter(|&&c| c != Counter::ParChunks)
            .map(|&c| (c, rec.counter(c)))
            .collect()
    }

    /// Each parallel round (a `peel_round` span whose counters carry
    /// `par_chunks = chunks`) holds exactly one `chunk` span per
    /// participant, one per track `1..=chunks`; and `chunk_us` has one
    /// sample per chunk span.
    fn assert_one_chunk_per_participant(rec: &InMemoryRecorder, chunks: usize) {
        let spans = rec.spans();
        let rounds: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "peel_round")
            .filter(|s| s.counters.iter().any(|(n, v)| n == "par_chunks" && *v > 0))
            .collect();
        assert!(!rounds.is_empty(), "chunks {chunks}: no parallel round");
        for (n, v) in rounds.iter().flat_map(|s| &s.counters) {
            if n == "par_chunks" {
                assert_eq!(*v, chunks as u64, "one chunk per participant");
            }
        }
        let chunk_spans = spans.iter().filter(|s| s.name == "chunk");
        assert_eq!(chunk_spans.clone().count(), rounds.len() * chunks);
        for track in 1..=chunks as u32 {
            let mut on_track: Vec<_> = chunk_spans.clone().filter(|s| s.thread == track).collect();
            on_track.sort_by_key(|s| s.start_us);
            assert_eq!(on_track.len(), rounds.len(), "track {track}");
            // The i-th chunk of a track falls inside the i-th parallel
            // round (2 µs of slack for the truncated timestamps).
            for (c, r) in on_track.iter().zip(&rounds) {
                assert!(c.start_us >= r.start_us, "track {track}");
                assert!(c.start_us + c.dur_us <= r.start_us + r.dur_us + 2);
            }
        }
        let hist = rec.histogram("chunk_us").expect("chunk_us recorded");
        assert_eq!(hist.count(), (rounds.len() * chunks) as u64);
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
        // The pool's recording contract, on many rounds: counters other
        // than `par_chunks` equal the sequential run's, every parallel
        // round records one chunk per participant on its own track, and
        // `par_chunks` repeats at a width.
        let g = hub_sample();
        let mut seq = InMemoryRecorder::new();
        let want = wing_numbers_with_chunks(&g, 1, &mut seq);
        let tip_seq = {
            let mut rec = InMemoryRecorder::new();
            (
                tips(&g, Side::V1, 1, &mut rec),
                counters_but_par_chunks(&rec),
            )
        };
        for chunks in [2usize, 4] {
            let mut par_chunks = Vec::new();
            for _ in 0..2 {
                let mut rec = InMemoryRecorder::new();
                assert_eq!(wing_numbers_with_chunks(&g, chunks, &mut rec), want);
                assert_eq!(counters_but_par_chunks(&rec), counters_but_par_chunks(&seq));
                assert_one_chunk_per_participant(&rec, chunks);
                par_chunks.push(rec.counter(Counter::ParChunks));
                let mut rec = InMemoryRecorder::new();
                let tn = tips(&g, Side::V1, chunks, &mut rec);
                assert_eq!((tn, counters_but_par_chunks(&rec)), tip_seq);
            }
            assert_eq!(par_chunks[0], par_chunks[1], "chunks {chunks}");
        }
    }

    /// Runs every frontier edge down both sides of [`WingRepair`] into
    /// private scratches, asserts equal deltas, and repairs through the
    /// cheaper side as the engine does.
    struct BothSides<'g> {
        inner: WingRepair<'g>,
        sides: Mutex<(PeelScratch, PeelScratch)>,
        edges: &'g AtomicUsize,
    }

    impl Repair for BothSides<'_> {
        fn scratch(&self) -> PeelScratch {
            self.inner.scratch()
        }

        fn repair(&self, e: u32, alive: &[bool], frontier: &StampSet, scratch: &mut PeelScratch) {
            let mut sides = self.sides.lock().expect("sequential test");
            let (merge, mark) = &mut *sides;
            self.inner
                .repair_via(e, alive, frontier, merge, Some(Via::Merge));
            self.inner
                .repair_via(e, alive, frontier, mark, Some(Via::Mark));
            let sorted = |s: &mut PeelScratch| {
                let mut d: Vec<(u32, u64)> = s.delta.entries().collect();
                d.sort_unstable();
                s.delta.clear();
                d
            };
            assert_eq!(sorted(merge), sorted(mark), "edge {e}");
            self.edges.fetch_add(1, Ordering::Relaxed);
            self.inner.repair(e, alive, frontier, scratch);
        }

        fn retire(&mut self, frontier: &[u32], alive: &[bool]) {
            self.inner.retire(frontier, alive);
        }
    }

    #[test]
    fn both_wing_sides_give_equal_deltas() {
        for g in [hub_sample(), sample(4), sample(5)] {
            let edges = AtomicUsize::new(0);
            let kernel = WingRepair::new(&g);
            let both = BothSides {
                sides: Mutex::new((kernel.scratch(), kernel.scratch())),
                inner: kernel,
                edges: &edges,
            };
            let init = checked_edge_supports(&g, 1).unwrap();
            let (got, complete) = peel_with_kernel_deadline(
                init,
                1,
                Counter::PeeledEdges,
                None,
                &mut NoopRecorder,
                both,
            );
            assert!(complete);
            assert_eq!(got, wing_numbers_with_chunks(&g, 1, &mut NoopRecorder));
            // Every edge of a round with positive score ran down both.
            assert!(edges.load(Ordering::Relaxed) > g.nedges() / 2);
        }
    }

    #[test]
    fn byte_estimate_covers_the_engine_tables() {
        let g = hub_sample();
        let (m, n1) = (g.nedges(), g.nv1());
        // The engine: per-item vectors and both orientations' live rows.
        let kernel = WingRepair::new(&g);
        let held = (8 + 8 + 1 + 4 + 4 + 4) * m as u64
            + kernel.rows.heap_bytes()
            + kernel.tcols.heap_bytes();
        assert!(engine_bytes(&g, Target::Wing) >= held);
        // A participant after repairing every edge down the marking side
        // (allocating its marks) with every other edge alive.
        let mut scratch = kernel.scratch();
        let mut frontier = StampSet::new(m);
        let mut alive = vec![true; m];
        for e in (0..m as u32).step_by(2) {
            frontier.insert(e);
            alive[e as usize] = false;
        }
        for e in (0..m as u32).step_by(2) {
            kernel.repair_via(e, &alive, &frontier, &mut scratch, Some(Via::Mark));
        }
        assert_eq!(scratch.mark.len(), n1);
        let held = 4 * scratch.mark.capacity() as u64
            + 8 * (scratch.live.capacity() + scratch.partners.capacity()) as u64
            + 12 * scratch.delta.len() as u64
            + 4 * scratch.delta.touched_len() as u64;
        assert!(scratch_bytes(&g, Target::Wing) >= held);
        // Tip: a participant holds two accumulators over the side.
        let tip = scratch_bytes(&g, Target::Tip(Side::V1));
        assert!(tip >= 2 * 12 * n1 as u64);
    }

    /// Scores every item 1, so one round peels them all, and panics
    /// inside the repair: on the caller's thread (`on_caller`), or on a
    /// worker's once the caller, blocked inside its first repair, has
    /// left blocks for the workers to claim.
    struct Bomb {
        caller: std::thread::ThreadId,
        on_caller: bool,
        fired: Mutex<bool>,
        lit: Condvar,
    }

    impl Repair for Bomb {
        fn scratch(&self) -> PeelScratch {
            PeelScratch::new(64, 0)
        }

        fn repair(&self, _: u32, _: &[bool], _: &StampSet, _: &mut PeelScratch) {
            let on_caller = std::thread::current().id() == self.caller;
            if on_caller == self.on_caller {
                *self.fired.lock().expect("bomb flag") = true;
                self.lit.notify_all();
                panic!("bomb");
            }
            if on_caller {
                let mut fired = self.fired.lock().expect("bomb flag");
                while !*fired {
                    fired = self.lit.wait(fired).expect("bomb flag");
                }
            }
        }
    }

    #[test]
    fn a_panicking_participant_fails_the_call_with_every_worker_joined() {
        for on_caller in [false, true] {
            let bomb = Bomb {
                caller: std::thread::current().id(),
                on_caller,
                fired: Mutex::new(false),
                lit: Condvar::new(),
            };
            // The scope inside the driver joins every worker before the
            // panic leaves it, so the call returns rather than hangs.
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                peel_with_kernel_deadline(
                    vec![1; 64],
                    2,
                    Counter::PeeledEdges,
                    None,
                    &mut NoopRecorder,
                    bomb,
                )
            }));
            assert!(run.is_err(), "on_caller {on_caller}");
        }
    }

    /// Wraps a kernel, records every retired frontier, and after round
    /// `after` holds the driver until `deadline` has passed, so the
    /// deadline cuts the run at the next round boundary.
    struct CutAfter<'a, K> {
        inner: K,
        after: usize,
        deadline: Instant,
        retired: &'a Mutex<Vec<u32>>,
    }

    impl<K: Repair> Repair for CutAfter<'_, K> {
        fn scratch(&self) -> PeelScratch {
            self.inner.scratch()
        }

        fn repair(
            &self,
            item: u32,
            alive: &[bool],
            frontier: &StampSet,
            scratch: &mut PeelScratch,
        ) {
            self.inner.repair(item, alive, frontier, scratch);
        }

        fn retire(&mut self, frontier: &[u32], alive: &[bool]) {
            self.inner.retire(frontier, alive);
            let mut retired = self.retired.lock().expect("test-local");
            retired.extend_from_slice(frontier);
            self.after -= 1;
            if self.after == 0 {
                while Instant::now() < self.deadline {
                    std::hint::spin_loop();
                }
            }
        }
    }

    #[test]
    fn a_deadline_after_parallel_rounds_keeps_peeled_numbers_exact() {
        let g = hub_sample();
        let exact = wing_numbers_with_chunks(&g, 1, &mut NoopRecorder);
        for chunks in [2usize, 4] {
            let retired = Mutex::new(Vec::new());
            let cut = CutAfter {
                inner: WingRepair::new(&g),
                after: 12,
                deadline: Instant::now() + std::time::Duration::from_millis(200),
                retired: &retired,
            };
            let init = checked_edge_supports(&g, 1).unwrap();
            let deadline = Some(cut.deadline);
            let mut rec = InMemoryRecorder::new();
            let (got, complete) = peel_with_kernel_deadline(
                init,
                chunks,
                Counter::PeeledEdges,
                deadline,
                &mut rec,
                cut,
            );
            assert!(!complete, "chunks {chunks}");
            // The pool ran before the cut and every worker's trace came
            // back: one chunk span per participant per parallel round.
            assert!(rec.counter(Counter::ParChunks) > 0);
            assert_one_chunk_per_participant(&rec, chunks);
            let retired = retired.into_inner().expect("test-local");
            assert!(retired.len() < g.nedges());
            for &e in &retired {
                assert_eq!(got[e as usize], exact[e as usize], "peeled edge {e}");
            }
            assert!(got.iter().zip(&exact).all(|(g, e)| g >= e));
        }
    }

    #[test]
    fn empty_and_degenerate_graphs() {
        for g in [
            BipartiteGraph::empty(5, 5),
            BipartiteGraph::complete(1, 8),
            BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1)]).unwrap(),
        ] {
            for side in [Side::V1, Side::V2] {
                let tn = tips(&g, side, 4, &mut NoopRecorder);
                assert!(tn.iter().all(|&t| t == 0));
            }
            let wn = wing_numbers_with_chunks(&g, 4, &mut NoopRecorder);
            assert!(wn.iter().all(|&w| w == 0));
        }
    }
}
