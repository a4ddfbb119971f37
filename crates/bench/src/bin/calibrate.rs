//! Calibration helper (not part of the reproduction): sweep Chung–Lu
//! power-law exponents for each dataset's shape parameters and report the
//! resulting butterfly count, to pick the exponents baked into
//! `bfly_graph::konect`. Usage: `calibrate <dataset-index 0..4> <exp1> <exp2>`.

use bfly_core::{execute_plan, ExecMode, Invariant, Member, Plan};
use bfly_graph::generators::chung_lu;
use bfly_graph::StandIn;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let idx: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let e1: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.7);
    let e2: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(0.7);
    let d = StandIn::ALL[idx];
    let spec = d.spec();
    let mut rng = StdRng::seed_from_u64(1);
    let g = chung_lu(spec.v1, spec.v2, spec.edges, e1, e2, &mut rng);
    let mode = ExecMode::Parallel {
        chunks: rayon::current_num_threads().max(1),
    };
    let xi = execute_plan(
        &g,
        &Plan::forced(&g, Member::Fixed(Invariant::Inv2), mode, None),
    );
    println!(
        "{} exp=({e1},{e2}) -> butterflies {xi} (paper {})",
        spec.name, spec.paper_butterflies
    );
}
