//! Blocked members of the family.
//!
//! The FLAME methodology yields blocked algorithms from the same loop
//! invariants by exposing a *block* of `b` columns/rows per iteration
//! instead of a single one (the paper presents the unblocked versions;
//! §V's "unblocked implementation" phrasing implies the blocked siblings,
//! which we provide as the natural extension). Per iteration the update
//! splits into:
//!
//! * butterflies with both wedge points inside the exposed block `A₁`
//!   (handled by running the unblocked update *within* the block), and
//! * butterflies with one wedge point in `A₁` and one in the processed
//!   prefix `A₀`.
//!
//! Both pieces reduce to the same restricted wedge expansion, so the
//! blocked algorithm is a re-association of the unblocked loop — identical
//! totals, different locality.

use super::engine::update_vertex;
use bfly_graph::{BipartiteGraph, Side};
use bfly_sparse::{CheckedAccum, Spa};
use bfly_telemetry::{Counter, Recorder};
use std::time::Instant;

/// The blocked loop ([`count_blocked`](super::count_blocked) runs it
/// through the plan executor), overflow-checked: both terms of every
/// block run the engine's eq. 18 update restricted to a window of the
/// partitioned side (`[0, start)` for the cross term, `[start, k)` for
/// the interior), and `deadline` is polled at every block boundary.
/// Returns the exact total over the blocks processed and whether all of
/// them ran. Records blocks processed, the shared engine counters, and
/// the per-block split of wedge work between the cross term and the
/// interior term as the `block_cross_wedges` / `block_interior_wedges`
/// series; each block's two phases also record as `block_cross` /
/// `block_interior` spans, so the locality trade of the blocked loop is
/// visible on the timeline.
pub(crate) fn run_blocked<R: Recorder>(
    g: &BipartiteGraph,
    side: Side,
    block_size: usize,
    deadline: Option<Instant>,
    rec: &mut R,
) -> (CheckedAccum, bool) {
    // A zero block size used to trip an unhelpful overflow panic deep in
    // the loop; clamp to the unblocked algorithm (b = 1) instead.
    let block_size = if block_size == 0 {
        eprintln!("warning: count_blocked called with block_size = 0; clamping to 1");
        1
    } else {
        block_size
    };
    let (part_adj, other_adj) = match side {
        Side::V2 => (g.biadjacency_t(), g.biadjacency()),
        Side::V1 => (g.biadjacency(), g.biadjacency_t()),
    };
    let nverts = part_adj.nrows();
    let mut spa = Spa::<u64>::new(nverts);
    let mut acc = CheckedAccum::new();
    let mut rows = other_adj;
    let mut start = 0usize;
    while start < nverts {
        if start > 0 && deadline.is_some_and(|d| Instant::now() >= d) {
            return (acc, false);
        }
        let end = (start + block_size).min(nverts);
        let start32 = start as u32;
        // Phase 1 — cross term Ξ(A₀, A₁): butterflies with one wedge
        // point in the processed prefix and one in the exposed block.
        if R::ENABLED {
            rec.span_enter("block_cross");
        }
        let mut cross_wedges = 0u64;
        for k in start..end {
            let Ok((wedges, touched)) =
                update_vertex(part_adj.row(k), &mut rows, (0, start32), &mut spa, &mut acc);
            cross_wedges += wedges;
            if R::ENABLED {
                rec.incr(Counter::VerticesExposed, 1);
                rec.incr(Counter::AccumEntries, touched);
            }
        }
        if R::ENABLED {
            rec.incr(Counter::WedgesExpanded, cross_wedges);
            rec.incr(Counter::SpaScatters, cross_wedges);
            rec.span_exit("block_cross");
            rec.span_enter("block_interior");
        }
        // Phase 2 — interior term Ξ(A₁): butterflies with both wedge
        // points inside the block (the unblocked update replayed on the
        // block slice).
        let mut interior_wedges = 0u64;
        for k in start..end {
            let window = (start32, k as u32);
            let Ok((wedges, touched)) =
                update_vertex(part_adj.row(k), &mut rows, window, &mut spa, &mut acc);
            interior_wedges += wedges;
            if R::ENABLED {
                rec.incr(Counter::AccumEntries, touched);
            }
        }
        if R::ENABLED {
            rec.incr(Counter::WedgesExpanded, interior_wedges);
            rec.incr(Counter::SpaScatters, interior_wedges);
            rec.span_exit("block_interior");
            rec.incr(Counter::BlocksProcessed, 1);
            rec.series_push("block_cross_wedges", cross_wedges as f64);
            rec.series_push("block_interior_wedges", interior_wedges as f64);
        }
        start = end;
    }
    (acc, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{count, count_blocked, Invariant};
    use bfly_graph::generators::uniform_exact;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn blocked_matches_unblocked_for_all_block_sizes() {
        let mut rng = StdRng::seed_from_u64(33);
        let g = uniform_exact(40, 35, 200, &mut rng);
        let want = count(&g, Invariant::Inv1);
        for b in [1, 2, 3, 7, 16, 64, 1000] {
            assert_eq!(count_blocked(&g, Side::V2, b), want, "block size {b}");
            assert_eq!(count_blocked(&g, Side::V1, b), want, "block size {b} (V1)");
        }
    }

    #[test]
    fn block_size_one_is_the_unblocked_algorithm() {
        let g = BipartiteGraph::complete(4, 4);
        assert_eq!(count_blocked(&g, Side::V2, 1), count(&g, Invariant::Inv1));
        assert_eq!(count_blocked(&g, Side::V1, 1), count(&g, Invariant::Inv5));
    }

    #[test]
    fn zero_block_size_clamps_to_one() {
        // Regression: block_size = 0 used to panic (originally with an
        // unhelpful arithmetic message). It now warns and behaves as b = 1.
        let mut rng = StdRng::seed_from_u64(55);
        let g = uniform_exact(20, 25, 120, &mut rng);
        for side in [Side::V1, Side::V2] {
            assert_eq!(
                count_blocked(&g, side, 0),
                count_blocked(&g, side, 1),
                "{side:?}"
            );
        }
        let empty = BipartiteGraph::empty(2, 2);
        assert_eq!(count_blocked(&empty, Side::V2, 0), 0);
    }
}
