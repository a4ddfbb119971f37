//! Reproduce **Fig. 9**: the dataset table — `|V1|`, `|V2|`, `|E|`, and the
//! butterfly count `Ξ_G` — over the five KONECT stand-ins, and verify that
//! all eight invariants agree on every count.
//!
//! Run with `BFLY_SCALE=1.0` for the paper's full sizes (default 0.1).

use bfly_bench::{load_datasets, scale_from_env};
use bfly_core::{count, execute_plan, ExecMode, Invariant, Member, Plan};

fn main() {
    let scale = scale_from_env();
    println!("Fig. 9 reproduction — dataset statistics (scale = {scale})");
    println!(
        "{:<16}{:>10}{:>10}{:>10}{:>14}{:>14}",
        "Dataset", "|V1|", "|V2|", "|E|", "Ξ (stand-in)", "Ξ (paper)"
    );
    let per_worker = ExecMode::Parallel {
        chunks: rayon::current_num_threads().max(1),
    };
    for (d, g) in load_datasets(scale) {
        let spec = d.spec();
        let parallel =
            |inv| execute_plan(&g, &Plan::forced(&g, Member::Fixed(inv), per_worker, None));
        let xi = parallel(Invariant::Inv2);
        // Cross-check the whole family on the real workload.
        for inv in Invariant::ALL {
            let c = if g.nedges() > 200_000 {
                parallel(inv)
            } else {
                count(&g, inv)
            };
            assert_eq!(c, xi, "{inv} disagrees on {}", spec.name);
        }
        println!(
            "{:<16}{:>10}{:>10}{:>10}{:>14}{:>14}",
            spec.name,
            g.nv1(),
            g.nv2(),
            g.nedges(),
            xi,
            spec.paper_butterflies
        );
    }
    println!("\nAll 8 invariants agree on every dataset.");
}
