//! Reproduce **Fig. 11**: parallel (default 6-thread, matching the paper's
//! CPU) wall-clock of each invariant on each dataset, plus the speedup over
//! the sequential numbers.

use bfly_bench::{
    best_of, load_datasets, print_invariant_table, scale_from_env, threads_from_env,
    write_bench_report,
};
use bfly_core::adaptive::count_adaptive_parallel_recorded;
use bfly_core::telemetry::{InMemoryRecorder, Json, NoopRecorder};
use bfly_core::{count, execute_plan, run_plan, ExecMode, Invariant, Member, Plan};

fn main() {
    let scale = scale_from_env();
    let threads = threads_from_env();
    println!(
        "Fig. 11 reproduction — parallel timings in seconds (scale = {scale}, {threads} threads)"
    );
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    let datasets = load_datasets(scale);
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let mut reports = Vec::new();
    let mut chunk_hists = Vec::new();
    let mut adaptive_chunk_hists = Vec::new();
    let mut adaptive_rows = Vec::new();
    for (d, g) in &datasets {
        let spec = d.spec();
        let mut times = [0f64; 8];
        let mut counts = [0u64; 8];
        let mut seq_best = f64::INFINITY;
        for (i, inv) in Invariant::ALL.into_iter().enumerate() {
            let mode = ExecMode::Parallel { chunks: threads };
            let plan = Plan::forced(g, Member::Fixed(inv), mode, None);
            let (t, xi) = best_of(2, || pool.install(|| execute_plan(g, &plan)));
            times[i] = t;
            counts[i] = xi;
            // Instrumented pass: per-chunk work series and the imbalance
            // gauge come from the recorded parallel path.
            let mut rec = InMemoryRecorder::new();
            let r = pool.install(|| run_plan(g, &plan, None, &mut rec));
            assert_eq!(r.unwrap().value, xi, "instrumented run diverged");
            if inv == Invariant::Inv2 {
                if let Some(h) = rec.histogram("chunk_us") {
                    chunk_hists.push((spec.name, h.summary()));
                }
            }
            reports.push(rec.report(vec![
                ("bench".to_string(), Json::Str("fig11".to_string())),
                ("dataset".to_string(), Json::Str(spec.name.to_string())),
                ("invariant".to_string(), Json::Str(format!("{inv}"))),
                ("scale".to_string(), Json::Float(scale)),
                ("threads".to_string(), Json::UInt(threads as u64)),
                ("seconds".to_string(), Json::Float(t)),
                ("butterflies".to_string(), Json::UInt(xi)),
            ]));
        }
        assert!(counts.iter().all(|&c| c == counts[0]), "family disagrees");
        // Adaptive row: the cost model's member with its chunk count
        // tuned from the measured weights; the imbalance gauge of this run
        // is directly comparable to the fixed-invariant rows above (one
        // wedge-balanced chunk per worker).
        let (t_adaptive, (xi_adaptive, plan)) = best_of(2, || {
            pool.install(|| count_adaptive_parallel_recorded(g, &mut NoopRecorder))
        });
        assert_eq!(xi_adaptive, counts[0], "adaptive diverged");
        let mut rec = InMemoryRecorder::new();
        let (xi_rec, _) = pool.install(|| count_adaptive_parallel_recorded(g, &mut rec));
        assert_eq!(xi_rec, xi_adaptive, "instrumented adaptive run diverged");
        if let Some(h) = rec.histogram("chunk_us") {
            adaptive_chunk_hists.push((spec.name, h.summary()));
        }
        reports.push(rec.report(vec![
            ("bench".to_string(), Json::Str("fig11".to_string())),
            ("dataset".to_string(), Json::Str(spec.name.to_string())),
            ("invariant".to_string(), Json::Str("adaptive".to_string())),
            ("plan".to_string(), plan.to_json()),
            ("scale".to_string(), Json::Float(scale)),
            ("threads".to_string(), Json::UInt(threads as u64)),
            ("seconds".to_string(), Json::Float(t_adaptive)),
            ("butterflies".to_string(), Json::UInt(xi_adaptive)),
        ]));
        adaptive_rows.push((spec.name, t_adaptive));
        // One sequential reference point for the speedup column.
        let (ts, xs) = best_of(2, || count(g, Invariant::Inv2));
        assert_eq!(xs, counts[0]);
        seq_best = seq_best.min(ts);
        let par_best = times.iter().cloned().fold(f64::INFINITY, f64::min);
        speedups.push((spec.name, seq_best / par_best));
        rows.push((spec.name.to_string(), times));
    }
    print_invariant_table(&format!("Parallel, {threads} threads (best of 2):"), &rows);
    println!("\nSpeedup of best parallel member vs sequential Inv. 2:");
    for (name, s) in speedups {
        println!("  {name:<16} {s:.2}x");
    }
    // Chunk latency spread (invariant 2): the histogram view of the
    // par_imbalance gauge — a wide p99/p50 gap means straggler chunks.
    println!("\nPer-chunk latency in µs (invariant 2, equal vertex ranges):");
    for (name, summary) in &chunk_hists {
        println!("  {name:<16} {summary}");
    }
    println!("\nPer-chunk latency in µs (adaptive, degree-balanced chunks):");
    for (name, summary) in &adaptive_chunk_hists {
        println!("  {name:<16} {summary}");
    }
    println!("\nAdaptive (balanced chunks) vs best fixed parallel member:");
    for ((_, times), (name, t_adaptive)) in rows.iter().zip(&adaptive_rows) {
        let best_fixed = times.iter().cloned().fold(f64::INFINITY, f64::min);
        println!(
            "  {name:<16} adaptive {t_adaptive:.3}s, best fixed {best_fixed:.3}s ({:.2}x)",
            t_adaptive / best_fixed
        );
    }
    match write_bench_report("fig11", &reports) {
        Ok(path) => println!("\nmachine-readable report: {path}"),
        Err(e) => eprintln!("warning: could not write report: {e}"),
    }
}
