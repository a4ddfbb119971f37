//! Property tests for the graph layer: structural coherence of the dual
//! orientations, I/O round trips, relabeling isomorphisms, components,
//! and masking.

use bfly_graph::components::{component_subgraph, connected_components};
use bfly_graph::io::{read_edge_list, write_edge_list};
use bfly_graph::matrix_market::{read_matrix_market, write_matrix_market};
use bfly_graph::ordering::{degree_ascending, degree_descending, invert_permutation, relabel};
use bfly_graph::{BipartiteGraph, Side};
use proptest::prelude::*;

const MAX_SIDE: u32 = 20;

fn arb_graph() -> impl Strategy<Value = BipartiteGraph> {
    (1..=MAX_SIDE, 1..=MAX_SIDE).prop_flat_map(|(m, n)| {
        proptest::collection::vec((0..m, 0..n), 0..60).prop_map(move |edges| {
            BipartiteGraph::from_edges(m as usize, n as usize, &edges).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The two stored orientations always describe the same edge set.
    #[test]
    fn orientations_coherent(g in arb_graph()) {
        prop_assert_eq!(g.biadjacency().transpose(), g.biadjacency_t().clone());
        let degsum1: usize = (0..g.nv1()).map(|u| g.deg_v1(u)).sum();
        let degsum2: usize = (0..g.nv2()).map(|v| g.deg_v2(v)).sum();
        prop_assert_eq!(degsum1, g.nedges());
        prop_assert_eq!(degsum2, g.nedges());
    }

    /// Edge-list and MatrixMarket writers round-trip (up to trailing
    /// isolated vertices, which header-less edge lists cannot encode —
    /// MatrixMarket can and must preserve them exactly).
    #[test]
    fn io_roundtrips(g in arb_graph()) {
        let mut buf = Vec::new();
        write_matrix_market(&g, &mut buf).unwrap();
        let h = read_matrix_market(buf.as_slice()).unwrap();
        prop_assert_eq!(&h, &g);

        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(buf.as_slice()).unwrap();
        let edges_g: Vec<(u32, u32)> = g.edges().collect();
        let edges_h: Vec<(u32, u32)> = h.edges().collect();
        prop_assert_eq!(edges_g, edges_h);
    }

    /// Relabeling either side is an isomorphism: degree multisets and edge
    /// counts survive, and applying the inverse permutation returns the
    /// original graph.
    #[test]
    fn relabel_isomorphism(g in arb_graph()) {
        for side in [Side::V1, Side::V2] {
            let perm = degree_descending(&g, side);
            let h = relabel(&g, side, &perm);
            prop_assert_eq!(h.nedges(), g.nedges());
            // relabel(h, inverse) — note relabel takes perm[new] = old, so
            // applying the *forward* permutation of the inverse mapping
            // round-trips.
            let inv = invert_permutation(&perm);
            let back = relabel(&h, side, &inv);
            prop_assert_eq!(&back, &g);
            // Ascending then reversing equals descending.
            let asc = degree_ascending(&g, side);
            let mut rev = asc.clone();
            rev.reverse();
            let d1: Vec<usize> = match side {
                Side::V1 => rev.iter().map(|&u| g.deg_v1(u as usize)).collect(),
                Side::V2 => rev.iter().map(|&v| g.deg_v2(v as usize)).collect(),
            };
            prop_assert!(d1.windows(2).all(|w| w[0] >= w[1]));
        }
    }

    /// Components partition the vertex sets, and edges never cross
    /// components.
    #[test]
    fn components_partition(g in arb_graph()) {
        let c = connected_components(&g);
        for (u, v) in g.edges() {
            prop_assert_eq!(c.v1[u as usize], c.v2[v as usize]);
        }
        let max_id = c.v1.iter().chain(c.v2.iter()).max().copied().unwrap_or(0);
        prop_assert!((max_id as usize) < c.count.max(1));
        // Sum of component subgraph edges = total edges.
        let mut total = 0usize;
        for id in 0..c.count as u32 {
            total += component_subgraph(&g, &c, id).nedges();
        }
        prop_assert_eq!(total, g.nedges());
    }

    /// Masking then unmasking semantics: masked graphs preserve dimensions
    /// and only lose edges incident to dropped vertices.
    #[test]
    fn masking_semantics(g in arb_graph(), drop in 0..MAX_SIDE) {
        let drop = (drop as usize) % g.nv1();
        let mut keep = vec![true; g.nv1()];
        keep[drop] = false;
        let h = g.masked(&keep, &vec![true; g.nv2()]);
        prop_assert_eq!(h.nv1(), g.nv1());
        prop_assert_eq!(h.deg_v1(drop), 0);
        prop_assert_eq!(h.nedges(), g.nedges() - g.deg_v1(drop));
        for (u, v) in h.edges() {
            prop_assert!(g.has_edge(u, v));
        }
    }

    /// Wedge totals match their degree-sum definitions.
    #[test]
    fn wedge_totals(g in arb_graph()) {
        let w2: u64 = (0..g.nv2())
            .map(|v| {
                let d = g.deg_v2(v) as u64;
                d * d.saturating_sub(1) / 2
            })
            .sum();
        prop_assert_eq!(g.wedges_through_v2(), w2);
    }
}
