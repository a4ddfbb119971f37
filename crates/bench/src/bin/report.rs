//! One-shot report generator: runs every reproduction experiment at the
//! configured scale and emits a single Markdown report on stdout
//! (the machine-generated counterpart of EXPERIMENTS.md).
//!
//! ```text
//! BFLY_SCALE=0.1 cargo run --release -p bfly-bench --bin report > report.md
//! ```

use bfly_bench::{best_of, load_datasets, scale_from_env, threads_from_env};
use bfly_core::baseline::{count_hash_aggregation, count_vertex_priority};
use bfly_core::spec::count_via_spgemm;
use bfly_core::{count, execute_plan, ExecMode, Invariant, Member, Plan};
use bfly_graph::GraphStats;

fn main() {
    let scale = scale_from_env();
    let threads = threads_from_env();
    println!("# Butterfly-families reproduction report\n");
    println!("Scale: {scale}; threads for parallel runs: {threads}.\n");
    let datasets = load_datasets(scale);

    // ---- Fig. 9 ----
    println!("## Fig. 9 — dataset statistics\n");
    println!("| Dataset | |V1| | |V2| | |E| | Ξ (stand-in) | Ξ (paper, full size) |");
    println!("|---|---|---|---|---|---|");
    let mut counts = Vec::new();
    for (d, g) in &datasets {
        let spec = d.spec();
        let xi = count(g, Invariant::Inv2);
        counts.push(xi);
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            spec.name,
            g.nv1(),
            g.nv2(),
            g.nedges(),
            xi,
            spec.paper_butterflies
        );
    }

    // ---- Fig. 10 ----
    println!("\n## Fig. 10 — sequential timings (s)\n");
    print!("| Dataset |");
    for inv in Invariant::ALL {
        print!(" {inv} |");
    }
    println!();
    print!("|---|");
    for _ in Invariant::ALL {
        print!("---|");
    }
    println!();
    let mut seq_best: Vec<f64> = Vec::new();
    for ((d, g), &xi) in datasets.iter().zip(&counts) {
        print!("| {} |", d.spec().name);
        let mut best = f64::INFINITY;
        for inv in Invariant::ALL {
            let (t, c) = best_of(2, || count(g, inv));
            assert_eq!(c, xi);
            best = best.min(t);
            print!(" {t:.3} |");
        }
        seq_best.push(best);
        println!();
    }

    // ---- Fig. 11 ----
    println!("\n## Fig. 11 — parallel timings, {threads} threads (s)\n");
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool");
    print!("| Dataset |");
    for inv in Invariant::ALL {
        print!(" {inv} |");
    }
    println!(" speedup (best/best) |");
    print!("|---|");
    for _ in Invariant::ALL {
        print!("---|");
    }
    println!("---|");
    for (i, ((d, g), &xi)) in datasets.iter().zip(&counts).enumerate() {
        print!("| {} |", d.spec().name);
        let mut best = f64::INFINITY;
        for inv in Invariant::ALL {
            let mode = ExecMode::Parallel { chunks: threads };
            let plan = Plan::forced(g, Member::Fixed(inv), mode, None);
            let (t, c) = best_of(2, || pool.install(|| execute_plan(g, &plan)));
            assert_eq!(c, xi);
            best = best.min(t);
            print!(" {t:.3} |");
        }
        println!(" {:.2}x |", seq_best[i] / best);
    }

    // ---- Partition-side finding ----
    println!("\n## §V finding — partition the smaller vertex set\n");
    println!(
        "| Dataset | smaller side | faster family | V2-family best (s) | V1-family best (s) |"
    );
    println!("|---|---|---|---|---|");
    for ((d, g), &xi) in datasets.iter().zip(&counts) {
        let mut v2b = f64::INFINITY;
        let mut v1b = f64::INFINITY;
        for inv in Invariant::ALL {
            let (t, c) = best_of(2, || count(g, inv));
            assert_eq!(c, xi);
            if inv.number() <= 4 {
                v2b = v2b.min(t);
            } else {
                v1b = v1b.min(t);
            }
        }
        println!(
            "| {} | {} | {} | {:.3} | {:.3} |",
            d.spec().name,
            if g.nv1() < g.nv2() { "V1" } else { "V2" },
            if v2b < v1b {
                "V2 (inv 1-4)"
            } else {
                "V1 (inv 5-8)"
            },
            v2b,
            v1b
        );
    }

    // ---- Baselines ----
    println!("\n## Baselines (s)\n");
    println!("| Dataset | Inv.2 | hash | vertex-priority | SpGEMM |");
    println!("|---|---|---|---|---|");
    for ((d, g), &xi) in datasets.iter().zip(&counts) {
        let (t0, c0) = best_of(2, || count(g, Invariant::Inv2));
        let (t1, c1) = best_of(2, || count_hash_aggregation(g));
        let (t2, c2) = best_of(2, || count_vertex_priority(g));
        let (t3, c3) = best_of(2, || count_via_spgemm(g));
        assert!(c0 == xi && c1 == xi && c2 == xi && c3 == xi);
        println!(
            "| {} | {t0:.3} | {t1:.3} | {t2:.3} | {t3:.3} |",
            d.spec().name
        );
    }

    // ---- Structural stats appendix ----
    println!("\n## Appendix — stand-in structure\n");
    println!("| Dataset | density | max deg V1 | max deg V2 | wedges (V2 pts) | wedges (V1 pts) |");
    println!("|---|---|---|---|---|---|");
    for (d, g) in &datasets {
        let s = GraphStats::compute(g);
        println!(
            "| {} | {:.2e} | {} | {} | {} | {} |",
            d.spec().name,
            s.density,
            s.max_deg_v1,
            s.max_deg_v2,
            s.wedges_through_v2,
            s.wedges_through_v1
        );
    }
    println!("\nAll counts cross-checked across the full family and all baselines.");
}
