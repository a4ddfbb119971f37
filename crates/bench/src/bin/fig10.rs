//! Reproduce **Fig. 10**: sequential wall-clock of each of the eight
//! invariants on each dataset. The paper's qualitative findings to look
//! for in the output (§V):
//!
//! 1. invariants 1–4 (partitioning V2) win when `|V1| < |V2|` *fails* —
//!    i.e. pick the family that partitions the smaller vertex set;
//! 2. denser graphs at equal vertex counts run slower;
//! 3. per-dataset, the look-ahead members tend to edge out their
//!    counterparts.
//!
//! Absolute times are not comparable to the paper's C/i7-8750H numbers;
//! shapes are.

use bfly_bench::{
    best_of, load_datasets, print_invariant_table, scale_from_env, write_bench_report,
};
use bfly_core::adaptive::{profile_and_plan_recorded, run_plan};
use bfly_core::telemetry::{InMemoryRecorder, Json};
use bfly_core::{count, count_adaptive, ExecMode, Invariant, Member, Plan};
use bfly_graph::Side;

fn main() {
    let scale = scale_from_env();
    println!("Fig. 10 reproduction — sequential timings in seconds (scale = {scale})");
    let datasets = load_datasets(scale);
    let mut rows = Vec::new();
    let mut reference = Vec::new();
    let mut reports = Vec::new();
    let mut wedge_hists = Vec::new();
    let mut adaptive_rows = Vec::new();
    for (d, g) in &datasets {
        let spec = d.spec();
        let mut times = [0f64; 8];
        let mut counts = [0u64; 8];
        for (i, inv) in Invariant::ALL.into_iter().enumerate() {
            let (t, xi) = best_of(2, || count(g, inv));
            times[i] = t;
            counts[i] = xi;
            // One instrumented pass collects the work counters (they are
            // deterministic, so timing and counting runs can be separate).
            let mut rec = InMemoryRecorder::new();
            let plan = Plan::forced(g, Member::Fixed(inv), ExecMode::Flat, None);
            let xi_rec = run_plan(g, &plan, None, &mut rec).unwrap().value;
            assert_eq!(xi_rec, xi, "instrumented run diverged");
            if inv == Invariant::Inv1 {
                if let Some(h) = rec.histogram("vertex_wedges") {
                    wedge_hists.push((spec.name, h.summary()));
                }
            }
            reports.push(rec.report(vec![
                ("bench".to_string(), Json::Str("fig10".to_string())),
                ("dataset".to_string(), Json::Str(spec.name.to_string())),
                ("invariant".to_string(), Json::Str(format!("{inv}"))),
                ("scale".to_string(), Json::Float(scale)),
                ("threads".to_string(), Json::UInt(1)),
                ("seconds".to_string(), Json::Float(t)),
                ("butterflies".to_string(), Json::UInt(xi)),
            ]));
        }
        assert!(counts.iter().all(|&c| c == counts[0]), "family disagrees");
        // Adaptive row: the cost model picks a member (and possibly degree
        // ordering) from the graph profile; it must agree with the family
        // and land near the best fixed invariant.
        let (t_adaptive, (xi_adaptive, plan)) = best_of(2, || count_adaptive(g));
        assert_eq!(xi_adaptive, counts[0], "adaptive diverged");
        let mut rec = InMemoryRecorder::new();
        let (_, plan_rec) = profile_and_plan_recorded(g, false, 0, &mut rec);
        let xi_rec = run_plan(g, &plan_rec, None, &mut rec).unwrap().value;
        assert_eq!(xi_rec, xi_adaptive, "instrumented adaptive run diverged");
        reports.push(rec.report(vec![
            ("bench".to_string(), Json::Str("fig10".to_string())),
            ("dataset".to_string(), Json::Str(spec.name.to_string())),
            ("invariant".to_string(), Json::Str("adaptive".to_string())),
            ("plan".to_string(), plan.to_json()),
            ("scale".to_string(), Json::Float(scale)),
            ("threads".to_string(), Json::UInt(1)),
            ("seconds".to_string(), Json::Float(t_adaptive)),
            ("butterflies".to_string(), Json::UInt(xi_adaptive)),
        ]));
        adaptive_rows.push((spec.name, t_adaptive, plan));
        reference.push((spec.name, counts[0]));
        rows.push((spec.name.to_string(), times));
    }
    print_invariant_table("Sequential (best of 2):", &rows);
    println!("\nButterfly counts (all invariants agree):");
    for (name, xi) in reference {
        println!("  {name:<16} {xi}");
    }
    // Directional finding 1: compare the V2-family best vs V1-family best.
    println!("\nPartition-side check (smaller side should win):");
    for ((d, g), (_, times)) in datasets.iter().zip(&rows) {
        let best_v2: f64 = times[..4].iter().cloned().fold(f64::INFINITY, f64::min);
        let best_v1: f64 = times[4..].iter().cloned().fold(f64::INFINITY, f64::min);
        let smaller = if g.nv1() < g.nv2() {
            Side::V1
        } else {
            Side::V2
        };
        let winner = if best_v2 < best_v1 {
            Side::V2
        } else {
            Side::V1
        };
        println!(
            "  {:<16} smaller side {:?}, faster family partitions {:?} (V2 fam {:.3}s, V1 fam {:.3}s)",
            d.spec().name,
            smaller,
            winner,
            best_v2,
            best_v1
        );
    }
    // Adaptive row: the selection should match or beat the best fixed
    // member (ratio ~1.0x; selection overhead is one degree-array pass).
    println!("\nAdaptive selection vs best fixed invariant:");
    for ((_, times), (name, t_adaptive, plan)) in rows.iter().zip(&adaptive_rows) {
        let best_fixed = times.iter().cloned().fold(f64::INFINITY, f64::min);
        println!(
            "  {name:<16} adaptive {t_adaptive:.3}s, best fixed {best_fixed:.3}s \
             ({:.2}x), picked {} (degree_ordered = {})",
            t_adaptive / best_fixed,
            plan.invariant,
            plan.degree_ordered,
        );
    }
    // Skew check: per-vertex wedge cost distribution (invariant 1). Heavy
    // tails here are what the vertex-priority baseline exploits.
    println!("\nPer-vertex wedge cost (invariant 1):");
    for (name, summary) in &wedge_hists {
        println!("  {name:<16} {summary}");
    }
    match write_bench_report("fig10", &reports) {
        Ok(path) => println!("\nmachine-readable report: {path}"),
        Err(e) => eprintln!("warning: could not write report: {e}"),
    }
}
