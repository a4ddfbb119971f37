//! Tour of the derived algorithm family: how the paper's partition-size
//! guidance (§V) plays out, measured live on two synthetic graphs with
//! opposite partition asymmetry.
//!
//! ```text
//! cargo run --release --example algorithm_family_tour
//! ```

use bfly::core::{count, Invariant};
use bfly::graph::generators::chung_lu;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn time_count(g: &bfly::graph::BipartiteGraph, inv: Invariant) -> (f64, u64) {
    let t0 = Instant::now();
    let xi = count(g, inv);
    (t0.elapsed().as_secs_f64(), xi)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    // "Wide": |V1| ≪ |V2| — invariants 5–8 (partitioning V1) should win.
    let wide = chung_lu(3_000, 40_000, 120_000, 0.7, 0.7, &mut rng);
    // "Tall": |V1| ≫ |V2| — invariants 1–4 (partitioning V2) should win.
    let tall = chung_lu(40_000, 3_000, 120_000, 0.7, 0.7, &mut rng);

    for (name, g) in [("wide (|V1| < |V2|)", &wide), ("tall (|V1| > |V2|)", &tall)] {
        println!(
            "\n{name}: |V1| = {}, |V2| = {}, |E| = {}",
            g.nv1(),
            g.nv2(),
            g.nedges()
        );
        let mut reference = None;
        for inv in Invariant::ALL {
            let (t, xi) = time_count(g, inv);
            if let Some(r) = reference {
                assert_eq!(xi, r);
            } else {
                println!("  butterflies: {xi}");
                reference = Some(xi);
            }
            println!(
                "  {inv}  [{:>2?}-partitioned, {:?}{}]  {t:.3}s",
                inv.partitioned_side(),
                inv.traversal(),
                if inv.is_lookahead() {
                    ", look-ahead"
                } else {
                    ""
                },
            );
        }
    }
    println!("\nReading: the family partitioning the *smaller* vertex set is the faster half —");
    println!("the paper's §V dataset-selection rule, reproduced on synthetic inputs.");
}
