//! Golden regression tests for the KONECT stand-ins.
//!
//! The stand-ins are the measurement substrate for every figure
//! reproduction, so their generation must stay bit-stable: a silent change
//! to the generator, the RNG plumbing, or the calibrated exponents would
//! quietly invalidate EXPERIMENTS.md. These tests pin the exact shapes and
//! butterfly counts at a fixed small scale (0.02), cross-checked through
//! two different counting paths.

use bfly::core::baseline::count_vertex_priority;
use bfly::core::{count, Invariant};
use bfly::graph::StandIn;

/// (dataset, |V1|, |V2|, |E|, Ξ) at scale 0.02 with the calibrated
/// exponents and per-dataset seeds.
const GOLDEN: [(StandIn, usize, usize, usize, u64); 5] = [
    (StandIn::ArxivCondMat, 334, 440, 1_171, 932),
    (StandIn::Producers, 976, 2_776, 4_145, 3_006),
    (StandIn::RecordLabels, 3_366, 368, 4_665, 10_419),
    (StandIn::Occupations, 2_551, 2_034, 5_018, 29_041),
    (StandIn::GitHub, 1_130, 2_417, 8_804, 132_134),
];

#[test]
fn stand_in_generation_is_pinned() {
    for (d, v1, v2, e, xi) in GOLDEN {
        let g = d.generate_scaled(0.02);
        assert_eq!(g.nv1(), v1, "{d:?} |V1|");
        assert_eq!(g.nv2(), v2, "{d:?} |V2|");
        assert_eq!(g.nedges(), e, "{d:?} |E|");
        let got = count(&g, Invariant::Inv2);
        assert_eq!(got, xi, "{d:?} butterfly count drifted");
        assert_eq!(count_vertex_priority(&g), xi, "{d:?} cross-check");
    }
}

#[test]
fn full_scale_specs_match_fig9() {
    // The table printed in the paper's Fig. 9 — shape parameters must
    // never drift from it.
    let expect = [
        ("arXiv cond-mat", 16_726, 22_015, 58_595, 70_549u64),
        ("Producers", 48_833, 138_844, 207_268, 266_983),
        ("Record Labels", 168_337, 18_421, 233_286, 1_086_886),
        ("Occupations", 127_577, 101_730, 250_945, 24_509_245),
        ("GitHub", 56_519, 120_867, 440_237, 50_894_505),
    ];
    for (d, (name, v1, v2, e, xi)) in StandIn::ALL.into_iter().zip(expect) {
        let s = d.spec();
        assert_eq!(s.name, name);
        assert_eq!((s.v1, s.v2, s.edges), (v1, v2, e));
        assert_eq!(s.paper_butterflies, xi);
    }
}

#[test]
fn count_auto_picks_smaller_side_per_dataset() {
    use bfly::core::count_auto_recorded;
    use bfly::core::telemetry::NoopRecorder;
    use bfly::graph::Side;
    for d in StandIn::ALL {
        let g = d.generate_scaled(0.02);
        let (xi, inv) = count_auto_recorded(&g, &mut NoopRecorder);
        assert_eq!(xi, count(&g, Invariant::Inv1));
        let expect = if g.nv2() <= g.nv1() {
            Side::V2
        } else {
            Side::V1
        };
        assert_eq!(inv.partitioned_side(), expect, "{d:?}");
    }
}

#[test]
fn butterfly_density_ordering_matches_paper() {
    // Fig. 9's qualitative ordering — GitHub ≫ Occupations ≫ Record
    // Labels ≫ Producers / arXiv — must hold for the stand-ins at any
    // scale, since the whole §V narrative depends on it.
    let counts: Vec<u64> = StandIn::ALL
        .iter()
        .map(|d| {
            let g = d.generate_scaled(0.02);
            count(&g, Invariant::Inv2)
        })
        .collect();
    let (arxiv, _producers, labels, occupations, github) =
        (counts[0], counts[1], counts[2], counts[3], counts[4]);
    assert!(github > occupations);
    assert!(occupations > labels);
    assert!(labels > arxiv);
}
