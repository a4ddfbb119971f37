//! Size-scaling study: counting time as the stand-in grows, against the
//! wedge-volume cost model (`Σ C(deg, 2)` over the iterated side) that
//! underlies the paper's §V cost discussion. Also reports thread-count
//! scaling of the parallel family member on the largest size.

use bfly_bench::{best_of, time_one};
use bfly_core::{count, execute_plan, ExecMode, Invariant, Member, Plan};
use bfly_graph::StandIn;

fn main() {
    println!("Size scaling — arXiv cond-mat stand-in");
    println!(
        "{:>8}{:>10}{:>12}{:>14}{:>14}{:>12}",
        "scale", "|E|", "Ξ", "wedges(V2)", "wedges(V1)", "Inv.2 (s)"
    );
    let mut biggest = None;
    for scale in [0.05, 0.1, 0.2, 0.4, 0.8] {
        let g = StandIn::ArxivCondMat.generate_scaled(scale);
        let (t, xi) = best_of(2, || count(&g, Invariant::Inv2));
        println!(
            "{scale:>8}{:>10}{xi:>12}{:>14}{:>14}{t:>12.4}",
            g.nedges(),
            g.wedges_through_v2(),
            g.wedges_through_v1()
        );
        biggest = Some(g);
    }

    let g = biggest.unwrap();
    println!("\nThread scaling on the largest size (Inv. 2, parallel):");
    println!("{:>10}{:>12}{:>12}", "threads", "time (s)", "Ξ");
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("(host exposes {host} hardware thread(s))");
    let mut reference = None;
    for threads in [1usize, 2, 4, 6] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool");
        let mode = ExecMode::Parallel { chunks: threads };
        let plan = Plan::forced(&g, Member::Fixed(Invariant::Inv2), mode, None);
        let (t, xi) = time_one(|| pool.install(|| execute_plan(&g, &plan)));
        if let Some(r) = reference {
            assert_eq!(xi, r, "thread count changed the answer");
        } else {
            reference = Some(xi);
        }
        println!("{threads:>10}{t:>12.4}{xi:>12}");
    }
    println!(
        "\nReading: time tracks the wedge volume of the iterated side; \
         counts are identical across all thread counts."
    );
}
