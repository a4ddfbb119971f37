//! Approximate butterfly counting: trading exactness for time with the
//! sampling estimators (the Sanei-Mehri KDD'18 line of work the paper
//! cites as [10]).
//!
//! ```text
//! cargo run --release --example approximate_counting
//! ```

use bfly::core::baseline::{approx_count_edge_sampling, approx_count_vertex_sampling};
use bfly::core::{execute_plan, ExecMode, Invariant, Member, Plan};
use bfly::graph::StandIn;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    // A mid-size stand-in keeps the demo quick.
    let g = StandIn::ArxivCondMat.generate_scaled(0.5);
    println!(
        "arXiv cond-mat stand-in at half scale: {}x{}, {} edges",
        g.nv1(),
        g.nv2(),
        g.nedges()
    );

    let t0 = Instant::now();
    let mode = ExecMode::Parallel {
        chunks: rayon::current_num_threads().max(1),
    };
    let exact = execute_plan(
        &g,
        &Plan::forced(&g, Member::Fixed(Invariant::Inv2), mode, None),
    );
    let t_exact = t0.elapsed().as_secs_f64();
    println!("exact count: {exact}  ({t_exact:.3}s)");

    let mut rng = StdRng::seed_from_u64(12345);
    println!("\nvertex-sampling estimator:");
    for samples in [100usize, 1_000, 10_000] {
        let t0 = Instant::now();
        let est = approx_count_vertex_sampling(&g, samples, &mut rng);
        let dt = t0.elapsed().as_secs_f64();
        println!(
            "  {samples:>6} samples: {est:>14.0}  ({:+.1}% error, {dt:.3}s)",
            100.0 * (est - exact as f64) / exact as f64
        );
    }
    println!("\nedge-sampling estimator:");
    for samples in [100usize, 1_000, 10_000] {
        let t0 = Instant::now();
        let est = approx_count_edge_sampling(&g, samples, &mut rng);
        let dt = t0.elapsed().as_secs_f64();
        println!(
            "  {samples:>6} samples: {est:>14.0}  ({:+.1}% error, {dt:.3}s)",
            100.0 * (est - exact as f64) / exact as f64
        );
    }
    println!("\nBoth estimators are unbiased; on heavy-tailed graphs the variance is");
    println!("dominated by hub vertices, so edge sampling typically converges faster.");
}
