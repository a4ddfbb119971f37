//! Quickstart: build a bipartite graph, count its butterflies with the
//! derived algorithm family, and look at the related metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bfly::core::metrics::metrics;
use bfly::core::{
    count, count_brute_force, count_via_spgemm, execute_plan, ExecMode, Invariant, Member, Plan,
};
use bfly::graph::BipartiteGraph;

fn main() {
    // The motif itself (paper Fig. 1): two V1 vertices, two V2 vertices,
    // all four edges — one butterfly.
    let butterfly = BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
    println!(
        "Fig. 1 motif: {} butterfly",
        count(&butterfly, Invariant::Inv1)
    );

    // A small author–paper style graph.
    let g = BipartiteGraph::from_edges(
        5, // authors
        6, // papers
        &[
            (0, 0),
            (0, 1),
            (0, 2),
            (1, 0),
            (1, 1),
            (1, 3),
            (2, 2),
            (2, 3),
            (2, 4),
            (3, 0),
            (3, 1),
            (3, 5),
            (4, 4),
            (4, 5),
        ],
    )
    .unwrap();

    // Every member of the derived family computes the same count — that is
    // the point of deriving them from one specification.
    println!("\nAll eight derived algorithms on the author–paper graph:");
    for inv in Invariant::ALL {
        println!(
            "  {inv}: {} butterflies  (partitions {:?}, {:?}, look-ahead: {})",
            count(&g, inv),
            inv.partitioned_side(),
            inv.traversal(),
            inv.is_lookahead()
        );
    }

    // Reference counters agree.
    assert_eq!(count(&g, Invariant::Inv2), count_brute_force(&g));
    assert_eq!(count(&g, Invariant::Inv2), count_via_spgemm(&g));
    // Any member in any mode is a plan for the one executor: here Inv. 7
    // over two parallel chunks.
    let mode = ExecMode::Parallel { chunks: 2 };
    let plan = Plan::forced(&g, Member::Fixed(Invariant::Inv7), mode, None);
    assert_eq!(count(&g, Invariant::Inv2), execute_plan(&g, &plan));

    // Derived metrics.
    let m = metrics(&g);
    println!("\nMetrics:");
    println!("  butterflies:            {}", m.butterflies);
    println!("  wedges (V1 endpoints):  {}", m.wedges_v1_endpoints);
    println!("  wedges (V2 endpoints):  {}", m.wedges_v2_endpoints);
    println!("  caterpillars:           {}", m.caterpillars);
    if let Some(cc) = m.clustering_coefficient {
        println!("  clustering coefficient: {cc:.4}");
    }
}
