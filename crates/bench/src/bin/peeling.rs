//! Reproduce the §IV peeling algorithms (experiments E7/E8): k-tip and
//! k-wing extraction on a stand-in with planted dense blocks, timing the
//! production (wedge-expansion), matrix-formulation (eqs. 19–22 / 25–27),
//! and look-ahead (Fig. 8) variants, and checking they extract identical
//! subgraphs. A second sweep times the full tip/wing decompositions on
//! the bucket-peeling engine per dataset × thread count, asserting the
//! parallel numbers are bitwise-identical to sequential.

use bfly_bench::{scale_from_env, time_one, write_bench_report};
use bfly_core::peel::{
    k_tip, k_tip_lookahead, k_tip_matrix, k_tip_recorded, k_wing, k_wing_matrix, k_wing_recorded,
    tip_numbers, tip_numbers_budgeted_recorded, wing_numbers, wing_numbers_with_chunks,
};
use bfly_core::telemetry::{InMemoryRecorder, Json, NoopRecorder, Recorder};
use bfly_core::ResourceBudget;
use bfly_graph::generators::{uniform_exact, with_planted_biclique};
use bfly_graph::{BipartiteGraph, Side, StandIn};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// V1 tip numbers over `chunks` chunks, unlimited budget.
fn tips_over<R: Recorder>(g: &BipartiteGraph, chunks: usize, rec: &mut R) -> Vec<u64> {
    let unlimited = ResourceBudget::unlimited();
    tip_numbers_budgeted_recorded(g, Side::V1, chunks, &unlimited, rec)
        .expect("unlimited budget")
        .value
}

fn main() {
    let scale = scale_from_env();
    let m = (30_000.0 * scale) as usize;
    let n = (30_000.0 * scale) as usize;
    let e = (90_000.0 * scale) as usize;
    let mut rng = StdRng::seed_from_u64(0xE7);
    let base = uniform_exact(m, n, e, &mut rng);
    // Plant two nested-density bicliques.
    let b1: Vec<u32> = (0..20u32).collect();
    let c1: Vec<u32> = (0..20u32).collect();
    let b2: Vec<u32> = (100..110u32).collect();
    let c2: Vec<u32> = (100..110u32).collect();
    let g = with_planted_biclique(&with_planted_biclique(&base, &b1, &c1), &b2, &c2);
    println!(
        "Peeling harness — graph {}x{}, {} edges, planted K(20,20) and K(10,10)",
        g.nv1(),
        g.nv2(),
        g.nedges()
    );

    println!("\nk-tip (side V1):");
    println!(
        "{:>8}{:>14}{:>14}{:>14}{:>10}{:>8}",
        "k", "wedge (s)", "matrix (s)", "lookahead (s)", "survive", "rounds"
    );
    let mut reports = Vec::new();
    for k in [10u64, 100, 1_000, 10_000] {
        let (t1, r1) = time_one(|| k_tip(&g, Side::V1, k));
        let (t2, r2) = time_one(|| k_tip_matrix(&g, Side::V1, k));
        let (t3, r3) = time_one(|| k_tip_lookahead(&g, Side::V1, k));
        assert_eq!(r1.keep, r2.keep, "matrix formulation diverged at k={k}");
        assert_eq!(r1.keep, r3.keep, "lookahead diverged at k={k}");
        let survive = r1.keep.iter().filter(|&&b| b).count();
        println!(
            "{k:>8}{t1:>14.3}{t2:>14.3}{t3:>14.3}{survive:>10}{:>8}",
            r1.rounds
        );
        // Instrumented pass: rounds, removal volumes, recomputation work.
        let mut rec = InMemoryRecorder::new();
        let r_rec = k_tip_recorded(&g, Side::V1, k, &mut rec);
        assert_eq!(r_rec.keep, r1.keep, "instrumented run diverged at k={k}");
        let rep = rec.report(vec![
            ("bench".to_string(), Json::Str("peeling".to_string())),
            ("structure".to_string(), Json::Str("tip".to_string())),
            ("k".to_string(), Json::UInt(k)),
            ("scale".to_string(), Json::Float(scale)),
            ("seconds".to_string(), Json::Float(t1)),
            ("survivors".to_string(), Json::UInt(survive as u64)),
            ("rounds".to_string(), Json::UInt(r1.rounds as u64)),
        ]);
        for (name, secs, n) in rep.span_totals() {
            println!("         span {name}: {secs:.3}s over {n} round(s)");
        }
        reports.push(rep);
    }

    println!("\nk-wing:");
    println!(
        "{:>8}{:>14}{:>14}{:>12}{:>8}",
        "k", "wedge (s)", "matrix (s)", "edges", "rounds"
    );
    for k in [1u64, 10, 100] {
        let (t1, r1) = time_one(|| k_wing(&g, k));
        let (t2, r2) = time_one(|| k_wing_matrix(&g, k));
        assert_eq!(r1.keep, r2.keep, "matrix formulation diverged at k={k}");
        println!(
            "{k:>8}{t1:>14.3}{t2:>14.3}{:>12}{:>8}",
            r1.subgraph.nedges(),
            r1.rounds
        );
        let mut rec = InMemoryRecorder::new();
        let r_rec = k_wing_recorded(&g, k, &mut rec);
        assert_eq!(r_rec.keep, r1.keep, "instrumented run diverged at k={k}");
        reports.push(rec.report(vec![
            ("bench".to_string(), Json::Str("peeling".to_string())),
            ("structure".to_string(), Json::Str("wing".to_string())),
            ("k".to_string(), Json::UInt(k)),
            ("scale".to_string(), Json::Float(scale)),
            ("seconds".to_string(), Json::Float(t1)),
            (
                "edges_remaining".to_string(),
                Json::UInt(r1.subgraph.nedges() as u64),
            ),
            ("rounds".to_string(), Json::UInt(r1.rounds as u64)),
        ]));
    }

    println!("\nFull decompositions:");
    let (tt, tips) = time_one(|| tip_numbers(&g, Side::V1));
    let max_tip = tips.iter().max().copied().unwrap_or(0);
    println!("  tip numbers: {tt:.3}s, max tip number {max_tip}");
    let (tw, wings) = time_one(|| wing_numbers(&g));
    let max_wing = wings.iter().max().copied().unwrap_or(0);
    println!("  wing numbers: {tw:.3}s, max wing number {max_wing}");
    // The planted K(20,20) block members should top both decompositions.
    let planted_min_tip = b1.iter().map(|&u| tips[u as usize]).min().unwrap();
    println!("  min tip number inside planted K(20,20): {planted_min_tip}");

    // Dataset × threads sweep over the bucket-peeling engine. GitHub is
    // the largest (most edges / most butterflies) of the five stand-ins,
    // so it is where the frontier-parallel repair has the most to win.
    println!("\nParallel bucket-peeling decomposition (dataset x threads):");
    println!(
        "{:>16}{:>9}{:>12}{:>12}{:>20}",
        "dataset", "threads", "tip (s)", "wing (s)", "speedup (tip/wing)"
    );
    let sweep: Vec<(&str, BipartiteGraph)> = vec![
        ("planted", g.clone()),
        ("github-standin", StandIn::GitHub.generate_scaled(scale)),
    ];
    for (name, d) in &sweep {
        let (mut tip_seq, mut wing_seq) = (0.0f64, 0.0f64);
        let (tip_base, wing_base) = (tip_numbers(d, Side::V1), wing_numbers(d));
        for threads in [1usize, 2, 4, 6] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool");
            let chunks = threads;
            let (tt, tips) = time_one(|| pool.install(|| tips_over(d, chunks, &mut NoopRecorder)));
            assert_eq!(tips, tip_base, "{name}: tip diverged at {threads} threads");
            let (tw, wings) = time_one(|| {
                pool.install(|| wing_numbers_with_chunks(d, chunks, &mut NoopRecorder))
            });
            assert_eq!(
                wings, wing_base,
                "{name}: wing diverged at {threads} threads"
            );
            if threads == 1 {
                tip_seq = tt;
                wing_seq = tw;
            }
            println!(
                "{name:>16}{threads:>9}{tt:>12.3}{tw:>12.3}        x{:.2} / x{:.2}",
                tip_seq / tt.max(1e-9),
                wing_seq / tw.max(1e-9)
            );
            // One instrumented pass per cell so the report carries the
            // engine's round/bucket/repair counters alongside the times.
            let mut rec = InMemoryRecorder::new();
            pool.install(|| {
                tips_over(d, chunks, &mut rec);
                wing_numbers_with_chunks(d, chunks, &mut rec);
            });
            reports.push(rec.report(vec![
                ("bench".to_string(), Json::Str("peeling".to_string())),
                ("structure".to_string(), Json::Str("decompose".to_string())),
                ("dataset".to_string(), Json::Str(name.to_string())),
                ("scale".to_string(), Json::Float(scale)),
                ("threads".to_string(), Json::UInt(threads as u64)),
                ("tip_seconds".to_string(), Json::Float(tt)),
                ("wing_seconds".to_string(), Json::Float(tw)),
                (
                    "max_tip".to_string(),
                    Json::UInt(tip_base.iter().max().copied().unwrap_or(0)),
                ),
                (
                    "max_wing".to_string(),
                    Json::UInt(wing_base.iter().max().copied().unwrap_or(0)),
                ),
            ]));
        }
    }

    match write_bench_report("peeling", &reports) {
        Ok(path) => println!("\nmachine-readable report: {path}"),
        Err(e) => eprintln!("warning: could not write report: {e}"),
    }
}
