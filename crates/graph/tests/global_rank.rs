//! The global degree rank against a reference comparison sort: the
//! counting sort in `global_degree_ranks` must hand out exactly the ranks
//! of sorting every vertex by (degree descending, side, id). The
//! rank-ordered build of an edge list must be the input graph relabelled
//! through those ranks on both sides.

use bfly_graph::generators::{chung_lu, uniform_exact};
use bfly_graph::io::{read_edge_list, read_text_rank_ordered, write_edge_list, TextFormat};
use bfly_graph::ordering::{global_degree_ranks, is_rank_ordered, rank_ordered_from_edges};
use bfly_graph::BipartiteGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;

/// Ranks by comparison-sorting `(degree descending, side, id)`: the
/// order's definition, independent of the counting sort.
fn reference_ranks(g: &BipartiteGraph) -> (Vec<u32>, Vec<u32>) {
    let mut all: Vec<(Reverse<usize>, u8, usize)> = (0..g.nv1())
        .map(|u| (Reverse(g.deg_v1(u)), 0, u))
        .chain((0..g.nv2()).map(|v| (Reverse(g.deg_v2(v)), 1, v)))
        .collect();
    all.sort_unstable();
    let (mut rank_v1, mut rank_v2) = (vec![0u32; g.nv1()], vec![0u32; g.nv2()]);
    for (rank, (_, side, id)) in all.into_iter().enumerate() {
        let ranks = if side == 0 {
            &mut rank_v1
        } else {
            &mut rank_v2
        };
        ranks[id] = rank as u32;
    }
    (rank_v1, rank_v2)
}

/// Whether some V1 vertex and some V2 vertex share a degree.
fn has_cross_side_tie(g: &BipartiteGraph) -> bool {
    let v1: std::collections::HashSet<usize> = (0..g.nv1()).map(|u| g.deg_v1(u)).collect();
    (0..g.nv2()).any(|v| v1.contains(&g.deg_v2(v)))
}

/// Whether some vertex on either side has no edge.
fn has_isolated_vertex(g: &BipartiteGraph) -> bool {
    (0..g.nv1()).any(|u| g.deg_v1(u) == 0) || (0..g.nv2()).any(|v| g.deg_v2(v) == 0)
}

/// The file's seeded battery: for each seed a sparse uniform graph with
/// isolated vertices and cross-side degree ties, and a skewed one.
fn seeded_graphs() -> Vec<BipartiteGraph> {
    let mut graphs = Vec::new();
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(9100 + seed);
        let (m, n) = (20 + 7 * seed as usize, 15 + 5 * seed as usize);
        // Fewer edges than vertices: isolated vertices on both sides and
        // many small degrees shared across the sides.
        graphs.push(uniform_exact(m, n, (m + n) * 2 / 3, &mut rng));
        // Skewed: a few hubs over a long tail of degree-1 and degree-2 ties.
        graphs.push(chung_lu(m, n, 3 * (m + n), 0.9, 0.6, &mut rng));
    }
    graphs
}

#[test]
fn counting_sort_ranks_equal_the_reference_sort() {
    let mut graphs = seeded_graphs();
    let battery_ties = graphs
        .iter()
        .filter(|g| has_cross_side_tie(g) && has_isolated_vertex(g))
        .count();
    assert!(
        battery_ties >= graphs.len() / 2,
        "only {battery_ties} of {} graphs tie across sides and isolate a vertex",
        graphs.len()
    );
    graphs.push(BipartiteGraph::complete(6, 6));
    graphs.push(BipartiteGraph::empty(7, 0));
    graphs.push(BipartiteGraph::empty(0, 5));
    graphs.push(BipartiteGraph::empty(0, 0));
    for (i, g) in graphs.iter().enumerate() {
        assert_eq!(
            global_degree_ranks(g),
            reference_ranks(g),
            "graph {i}: {} x {}, {} edges",
            g.nv1(),
            g.nv2(),
            g.nedges()
        );
    }
}

/// `g` relabelled through its rank permutation on both sides, built from
/// the reference ranks: a vertex's new id is the number of vertices on
/// its side that rank before it.
fn relabelled_by_reference(g: &BipartiteGraph) -> BipartiteGraph {
    let (r1, r2) = reference_ranks(g);
    let new_ids = |ranks: &[u32]| -> Vec<u32> {
        let mut order: Vec<usize> = (0..ranks.len()).collect();
        order.sort_by_key(|&x| ranks[x]);
        let mut id = vec![0u32; ranks.len()];
        for (new, &old) in order.iter().enumerate() {
            id[old] = new as u32;
        }
        id
    };
    let (id1, id2) = (new_ids(&r1), new_ids(&r2));
    let edges: Vec<(u32, u32)> = g
        .edges()
        .map(|(u, v)| (id1[u as usize], id2[v as usize]))
        .collect();
    BipartiteGraph::from_edges(g.nv1(), g.nv2(), &edges).unwrap()
}

/// Sorted rows on both sides, and ids rising with the global rank.
fn assert_rank_ordered(h: &BipartiteGraph, what: &str) {
    assert!(is_rank_ordered(h), "{what}: not rank-ordered");
    for rows in [h.biadjacency(), h.biadjacency_t()] {
        for r in 0..rows.nrows() {
            let row = rows.row(r);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "{what}: row {r}");
        }
    }
    let (r1, r2) = global_degree_ranks(h);
    assert!(r1.windows(2).all(|w| w[0] < w[1]), "{what}: V1 ranks");
    assert!(r2.windows(2).all(|w| w[0] < w[1]), "{what}: V2 ranks");
}

/// The edge list of `g` in a scrambled order, with some edges listed
/// again: every `stride`-th edge of the scramble gets `extra` more copies.
fn with_duplicates(g: &BipartiteGraph, stride: usize, extra: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.random_range(0..=i));
    }
    let copies: Vec<(u32, u32)> = edges
        .iter()
        .step_by(stride.max(1))
        .flat_map(|&e| std::iter::repeat_n(e, extra))
        .collect();
    edges.extend(copies);
    edges
}

#[test]
fn rank_ordered_build_is_the_input_relabelled_by_rank() {
    let mut graphs = seeded_graphs();
    graphs.push(BipartiteGraph::complete(6, 6));
    graphs.push(BipartiteGraph::empty(7, 0));
    graphs.push(BipartiteGraph::empty(0, 5));
    graphs.push(BipartiteGraph::empty(4, 3));
    let mut reordered = 0;
    for (i, g) in graphs.iter().enumerate() {
        let want = relabelled_by_reference(g);
        let (nv1, nv2) = (g.nv1(), g.nv2());
        let lists = [
            ("as listed", g.edges().collect::<Vec<_>>()),
            ("duplicated", with_duplicates(g, 3, 2, 9300 + i as u64)),
            ("hub duplicated", with_duplicates(g, 11, 9, 9400 + i as u64)),
        ];
        for (how, edges) in lists {
            let what = format!("graph {i} {how}: {nv1} x {nv2}, {} lines", edges.len());
            let h = rank_ordered_from_edges(nv1, nv2, edges).unwrap();
            assert_eq!(h, want, "{what}");
            assert_rank_ordered(&h, &what);
        }
        reordered += usize::from(!is_rank_ordered(g));
    }
    assert!(reordered >= graphs.len() / 2, "the battery barely reorders");
}

#[test]
fn duplicate_lines_that_reorder_the_degrees_still_rank_by_the_graph() {
    // Counted on the lines, the degrees are V1 [4, 2, 4, 3] and V2
    // [5, 3, 2, 3]; in the graph they are V1 [1, 2, 2, 1] and V2
    // [2, 2, 1, 1]. The graph's ties must break by input id: V1 1 before
    // 2 and 0 before 3, V2 2 before 3, whatever the lines said.
    let mut edges = vec![(0, 0); 4];
    edges.extend([(1, 0), (1, 1), (2, 1), (2, 1), (2, 2), (2, 2)]);
    edges.extend([(3, 3); 3]);
    let g = BipartiteGraph::from_edges(4, 4, &edges).unwrap();
    let h = rank_ordered_from_edges(4, 4, edges).unwrap();
    assert_eq!(h, relabelled_by_reference(&g));
    assert_rank_ordered(&h, "hand-built");
    let rows: Vec<&[u32]> = (0..4).map(|u| h.neighbors_v1(u)).collect();
    assert_eq!(rows, [&[0, 1][..], &[1, 2], &[0], &[3]]);
}

#[test]
fn rank_ordered_loader_equals_the_relabelled_load() {
    for (i, g) in seeded_graphs().iter().enumerate().step_by(3) {
        let mut text = Vec::new();
        write_edge_list(g, &mut text).unwrap();
        // Repeat some data lines: the loader renumbers the raw list, and
        // the size header counts lines, so it is dropped.
        let body: Vec<&[u8]> = text.split(|&b| b == b'\n').skip(2).collect();
        let mut dup = Vec::new();
        for (k, line) in body.iter().enumerate() {
            for _ in 0..1 + usize::from(k % 4 == 0) {
                dup.extend_from_slice(line);
                dup.push(b'\n');
            }
        }
        for bytes in [&text, &dup] {
            let input = read_edge_list(bytes.as_slice()).unwrap();
            let h = read_text_rank_ordered(bytes.as_slice(), TextFormat::EdgeList).unwrap();
            assert_eq!(h, relabelled_by_reference(&input), "graph {i}");
            assert_rank_ordered(&h, &format!("graph {i}"));
        }
    }
}
