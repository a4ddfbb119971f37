//! The shared loop engine behind all eight derived algorithms.
//!
//! Every member of the family is the same computation parameterised three
//! ways (see the table in [`crate::family`]): which adjacency orientation
//! is iterated, in which direction, and whether the rank-1 update reads
//! `A₀` (indices before the exposed vertex) or `A₂` (indices after it).
//!
//! The update of eq. 18, `½a₁ᵀAₚAₚᵀa₁ − ½Γ(a₁a₁ᵀ ∘ AₚAₚᵀ)`, is evaluated
//! as a wedge expansion: walk every length-2 path from the exposed vertex
//! `k` through an opposite-side vertex `j` to a same-side vertex `c` in the
//! chosen part; with `cnt[c] = |N(k) ∩ N(c)|` such paths ending at `c`,
//! the update is `Σ_c C(cnt[c], 2)` (eq. 7). Because `C(x, 2)` already
//! excludes the repeated-wedge paths, the subtraction term of eq. 18
//! never needs to be formed — the "careful implementation" remark
//! closing §III-C.
//!
//! The sum is taken in one touch per wedge. Since `C(n, 2) = 0 + 1 + … +
//! (n − 1)`, the `i`-th wedge to reach `c` adds `i − 1`, the count `c`
//! held before it: a [`PairAccum`] hit returns exactly that, and the
//! exposed vertex's update is complete when its last wedge lands. There
//! is no list of touched vertices and no second pass over them; clearing
//! for the next vertex is a generation bump.
//!
//! `update_vertex` is that update, written once. The flat loop here,
//! the parallel chunks ([`super::parallel`]), the shard loop
//! ([`super::sharded`]) and the priority member ([`super::priority`])
//! all call it; out of core, the shard loop streams the opposite rows
//! through a `RowSource` instead of holding them.

use super::parallel::{run_inline, Kernel};
use super::Invariant;
use crate::error::BflyError;
use bfly_graph::{BipartiteGraph, Side};
use bfly_sparse::{CheckedAccum, PairAccum, Pattern};
use bfly_telemetry::{Counter, Recorder};
use std::convert::Infallible;
use std::time::Instant;

/// How many items (exposed vertices, starts) a kernel processes between
/// deadline polls. Phase-boundary granularity: coarse enough that the
/// `Instant::now()` syscall is invisible, fine enough that a deadline
/// stops a run within milliseconds on any realistic input.
pub(crate) const DEADLINE_STRIDE: usize = 4096;

/// Direction in which the partitioned vertex set is traversed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Traversal {
    /// L→R over columns (invariants 1–2) / T→B over rows (5–6).
    Forward,
    /// R→L over columns (invariants 3–4) / B→T over rows (7–8).
    Backward,
}

/// Which part of the repartitioning the update statement reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartFilter {
    /// `A₀`: vertices with index *below* the exposed vertex.
    Before,
    /// `A₂`: vertices with index *above* the exposed vertex.
    After,
}

impl PartFilter {
    /// The window `[lo, hi)` of partitioned-side ids the update of `k`
    /// reads (`u32::MAX` = no upper limit).
    #[inline]
    pub(crate) fn window(self, k: usize) -> (u32, u32) {
        match self {
            PartFilter::Before => (0, k as u32),
            PartFilter::After => (k as u32 + 1, u32::MAX),
        }
    }
}

/// Where the shard loop reads rows from: the resident pattern, or (out
/// of core) a decoded segment of partitioned rows and a reader streaming
/// opposite rows off disk.
pub(crate) trait RowSource {
    /// Why a row could not be read.
    type Error: Into<BflyError>;
    /// Sorted neighbours of vertex `j`.
    fn row(&mut self, j: usize) -> Result<&[u32], Self::Error>;
    /// Record the source's own gauges at the end of a run.
    fn record<R: Recorder>(&self, _rec: &mut R) {}
}

impl RowSource for &Pattern {
    type Error = Infallible;

    #[inline]
    fn row(&mut self, j: usize) -> Result<&[u32], Infallible> {
        Ok(Pattern::row(self, j))
    }
}

impl RowSource for bfly_graph::GraphSegment {
    type Error = Infallible;

    #[inline]
    fn row(&mut self, j: usize) -> Result<&[u32], Infallible> {
        Ok(self.neighbors(j))
    }
}

impl RowSource for bfly_graph::RowReader<'_> {
    type Error = bfly_graph::io::IoError;

    #[inline]
    fn row(&mut self, j: usize) -> Result<&[u32], Self::Error> {
        bfly_graph::RowReader::row(self, j)
    }

    /// The pin's gauges: rows and bytes pinned, lookups it served.
    fn record<R: Recorder>(&self, rec: &mut R) {
        if R::ENABLED {
            rec.gauge("pinned_rows", self.pinned_rows() as f64);
            rec.gauge("pinned_bytes", self.pinned_bytes() as f64);
            rec.gauge("pinned_hits", self.pinned_hits() as f64);
        }
    }
}

/// The eq. 18 update of one exposed vertex — the only place a fixed
/// member or a priority start expands its wedges. Walks every wedge
/// `k – j – c` with `j ∈ nbrs = N(k)` and `c` in the window `[lo, hi)` of
/// `rows.row(j)` (sorted rows make the window a slice) and hits `c` in
/// `pairs`. Each hit adds the count `c` held before it to `acc`, so once
/// every wedge has landed `acc` has grown by `Σ_c C(cnt[c], 2)`; `pairs`
/// is then cleared for the next vertex. Returns `(wedges expanded, first
/// touches)`, a first touch being a hit that found `c` at 0.
#[inline]
pub(crate) fn update_vertex<S: RowSource>(
    nbrs: &[u32],
    rows: &mut S,
    (lo, hi): (u32, u32),
    pairs: &mut PairAccum,
    acc: &mut CheckedAccum,
) -> Result<(u64, u64), S::Error> {
    let (mut wedges, mut fresh) = (0u64, 0u64);
    for &j in nbrs {
        let row = rows.row(j as usize)?;
        let start = if lo == 0 {
            0
        } else {
            row.partition_point(|&c| c < lo)
        };
        let end = if hi == u32::MAX {
            row.len()
        } else {
            row.partition_point(|&c| c < hi)
        };
        let slice = &row[start..end];
        wedges += slice.len() as u64;
        fresh += add_hits(slice, pairs, acc);
    }
    pairs.clear();
    Ok((wedges, fresh))
}

/// Hit each of `far` in `pairs`, adding the count each slot held before
/// its hit to `acc`; returns the first touches (hits that found 0).
#[inline]
pub(crate) fn add_hits(far: &[u32], pairs: &mut PairAccum, acc: &mut CheckedAccum) -> u64 {
    let mut fresh = 0u64;
    for &c in far {
        let before = pairs.hit(c);
        fresh += u64::from(before == 0);
        acc.add(before);
    }
    fresh
}

/// Record one exposed vertex's update: the vertex, its wedges (each one
/// accumulator hit), its first touches, and the `vertex_wedges` sample.
#[inline]
pub(crate) fn record_update<R: Recorder>(rec: &mut R, wedges: u64, fresh: u64) {
    if R::ENABLED {
        rec.incr(Counter::VerticesExposed, 1);
        rec.incr(Counter::WedgesExpanded, wedges);
        rec.incr(Counter::SpaScatters, wedges);
        rec.incr(Counter::AccumEntries, fresh);
        rec.hist_record("vertex_wedges", wedges);
    }
}

/// The fixed members' kernel: item `i` is the `i`-th exposed vertex in
/// traversal order over the partitioned side.
pub(crate) struct FixedKernel<'g> {
    part_adj: &'g Pattern,
    other_adj: &'g Pattern,
    traversal: Traversal,
    filter: PartFilter,
}

impl<'g> FixedKernel<'g> {
    /// The kernel over an explicit pattern pair: `part_adj.row(k)` lists
    /// the opposite-side neighbours of partitioned vertex `k`, and
    /// `other_adj` is its transpose.
    pub(crate) fn new(
        part_adj: &'g Pattern,
        other_adj: &'g Pattern,
        traversal: Traversal,
        filter: PartFilter,
    ) -> Self {
        debug_assert_eq!(part_adj.nrows(), other_adj.ncols());
        debug_assert_eq!(part_adj.ncols(), other_adj.nrows());
        FixedKernel {
            part_adj,
            other_adj,
            traversal,
            filter,
        }
    }

    /// The kernel of invariant `inv` on `g`: invariants 1–4 iterate the
    /// CSC view (`Aᵀ`), 5–8 the CSR view.
    pub(crate) fn of(g: &'g BipartiteGraph, inv: Invariant) -> Self {
        let (part_adj, other_adj) = match inv.partitioned_side() {
            Side::V2 => (g.biadjacency_t(), g.biadjacency()),
            Side::V1 => (g.biadjacency(), g.biadjacency_t()),
        };
        FixedKernel::new(part_adj, other_adj, inv.traversal(), inv.update_part())
    }

    /// Number of partitioned vertices (= items).
    pub(crate) fn len(&self) -> usize {
        self.part_adj.nrows()
    }

    /// The pattern pair `(part_adj, other_adj)`.
    pub(crate) fn patterns(&self) -> (&'g Pattern, &'g Pattern) {
        (self.part_adj, self.other_adj)
    }

    /// Per-item wedge work in item order (see
    /// [`super::parallel::wedge_weights`]).
    pub(crate) fn item_weights(&self) -> Vec<u64> {
        let mut w = super::parallel::wedge_weights(self.part_adj, self.other_adj);
        if self.traversal == Traversal::Backward {
            w.reverse();
        }
        w
    }
}

impl Kernel for FixedKernel<'_> {
    type Scratch = PairAccum;

    fn scratch(&self) -> PairAccum {
        PairAccum::new(self.len())
    }

    #[inline]
    fn item<R: Recorder>(
        &self,
        i: usize,
        pairs: &mut PairAccum,
        acc: &mut CheckedAccum,
        rec: &mut R,
    ) -> u64 {
        let k = match self.traversal {
            Traversal::Forward => i,
            Traversal::Backward => self.len() - 1 - i,
        };
        let mut rows = self.other_adj;
        let Ok((wedges, fresh)) = update_vertex(
            self.part_adj.row(k),
            &mut rows,
            self.filter.window(k),
            pairs,
            acc,
        );
        record_update(rec, wedges, fresh);
        wedges
    }
}

/// Run one family member sequentially over its whole partitioned side,
/// polling `deadline` every
/// [`DEADLINE_STRIDE`] exposed vertices. Returns the exact accumulated
/// total (over the processed prefix when cut) and whether the traversal
/// completed.
pub(crate) fn run_partitioned<R: Recorder>(
    kernel: &FixedKernel<'_>,
    deadline: Option<Instant>,
    rec: &mut R,
) -> (CheckedAccum, bool) {
    run_inline(kernel, std::iter::once(0..kernel.len()), deadline, rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    use bfly_telemetry::NoopRecorder;

    fn k23() -> BipartiteGraph {
        BipartiteGraph::complete(2, 3)
    }

    /// One sequential pass of the kernel over an explicit parameterisation.
    fn partitioned_total(
        part_adj: &Pattern,
        other_adj: &Pattern,
        traversal: Traversal,
        filter: PartFilter,
    ) -> u64 {
        let kernel = FixedKernel::new(part_adj, other_adj, traversal, filter);
        let (acc, complete) = run_partitioned(&kernel, None, &mut NoopRecorder);
        assert!(complete);
        acc.finish().unwrap()
    }

    fn update(at: &Pattern, a: &Pattern, filter: PartFilter, k: usize) -> u64 {
        let mut spa = PairAccum::new(at.nrows());
        let mut acc = CheckedAccum::new();
        let mut rows = a;
        let Ok(_) = update_vertex(at.row(k), &mut rows, filter.window(k), &mut spa, &mut acc);
        acc.finish().unwrap()
    }

    #[test]
    fn before_and_after_partition_the_pairs() {
        // K_{2,3}: 3 butterflies (V2 wedge-point pairs: C(3,2)).
        let g = k23();
        let (at, a) = (g.biadjacency_t(), g.biadjacency());
        // Vertex 1 of V2: pairs {1,0} before, {1,2} after → 1 butterfly each.
        assert_eq!(update(at, a, PartFilter::Before, 1), 1);
        assert_eq!(update(at, a, PartFilter::After, 1), 1);
        // Vertex 0: nothing before, pairs {0,1},{0,2} after.
        assert_eq!(update(at, a, PartFilter::Before, 0), 0);
        assert_eq!(update(at, a, PartFilter::After, 0), 2);
    }

    #[test]
    fn every_parameterisation_totals_the_same() {
        let g = BipartiteGraph::from_edges(
            4,
            4,
            &[
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 0),
                (1, 1),
                (2, 1),
                (2, 2),
                (2, 3),
                (3, 0),
                (3, 3),
            ],
        )
        .unwrap();
        let want = crate::spec::count_brute_force(&g);
        let (a, at) = (g.biadjacency(), g.biadjacency_t());
        for traversal in [Traversal::Forward, Traversal::Backward] {
            for filter in [PartFilter::Before, PartFilter::After] {
                assert_eq!(partitioned_total(at, a, traversal, filter), want);
                assert_eq!(partitioned_total(a, at, traversal, filter), want);
            }
        }
    }

    #[test]
    fn seeded_overflow_promotes_exactly() {
        // Graph-realisable u64 overflow needs > 2^32 vertices; seeding the
        // accumulator near the ceiling exercises the same promotion path.
        let g = k23();
        let kernel = FixedKernel::of(&g, Invariant::Inv2);
        let (mut acc, complete) = run_partitioned(&kernel, None, &mut NoopRecorder);
        assert!(complete);
        let true_count = acc.finish().unwrap();
        let base = u64::MAX - 1;
        acc.merge(CheckedAccum::with_base(base));
        assert_eq!(
            acc.finish(),
            Err(base as u128 + true_count as u128),
            "exact promoted total, never a wrapped u64"
        );
    }

    #[test]
    #[should_panic(expected = "call run_plan for a typed error")]
    fn infallible_wrappers_name_the_executor_past_u64() {
        let mut acc = CheckedAccum::with_base(u64::MAX);
        acc.add(1);
        let total = crate::error::checked_total(acc, "count_adaptive");
        crate::error::expect_ok(total, "run_plan");
    }

    #[test]
    fn elapsed_deadline_stops_between_vertices() {
        // An already-expired deadline still counts: the poll fires every
        // DEADLINE_STRIDE vertices, so tiny graphs complete regardless.
        let g = BipartiteGraph::complete(3, 3);
        let kernel = FixedKernel::of(&g, Invariant::Inv2);
        let expired = Some(Instant::now() - std::time::Duration::from_secs(1));
        let (acc, complete) = run_partitioned(&kernel, expired, &mut NoopRecorder);
        assert!(complete, "3 vertices < DEADLINE_STRIDE, no poll fires");
        assert_eq!(acc.finish(), Ok(9));
    }

    #[test]
    fn isolated_vertices_contribute_nothing() {
        let g = BipartiteGraph::from_edges(5, 5, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let (a, at) = (g.biadjacency(), g.biadjacency_t());
        assert_eq!(
            partitioned_total(at, a, Traversal::Forward, PartFilter::After),
            1
        );
    }
}
