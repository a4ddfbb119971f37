//! `.bfly` on-disk format: round-trip fidelity and fault tolerance.
//!
//! The format is only trustworthy if (a) every graph the generators can
//! produce survives graph → bytes → graph unchanged, (b) the segmented
//! reader sees exactly the same structure through its windowed API as
//! the eager loader does, and (c) every way a file can be damaged —
//! truncation, bit rot, interleaved I/O errors, short reads — surfaces
//! as a typed [`IoError`], never a panic and never a silently wrong
//! graph.

use bfly::core::telemetry::NoopRecorder;
use bfly::core::testkit::{arb_graph, fixture_battery, FaultyReader};
use bfly::core::{count_adaptive, count_segmented_checkpointed_recorded, ResourceBudget};
use bfly::graph::io::IoError;
use bfly::graph::{read_bfly, write_bfly, write_bfly_file, BipartiteGraph, SegmentedGraph, Side};
use proptest::prelude::*;

/// The out-of-core count of a `.bfly` file: one shard, no limits.
fn count_file(sg: &SegmentedGraph) -> u64 {
    let unlimited = ResourceBudget::unlimited();
    let r = count_segmented_checkpointed_recorded(
        sg,
        Some(1),
        None,
        &unlimited,
        None,
        &mut NoopRecorder,
    );
    r.unwrap().value.0
}

fn to_bytes(g: &BipartiteGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    write_bfly(g, &mut buf).expect("in-memory write cannot fail");
    buf
}

fn nbrs(g: &BipartiteGraph, side: Side, u: usize) -> &[u32] {
    match side {
        Side::V1 => g.neighbors_v1(u),
        Side::V2 => g.neighbors_v2(u),
    }
}

#[test]
fn battery_round_trips_through_bfly_bytes() {
    for (name, g) in fixture_battery() {
        let bytes = to_bytes(&g);
        let back = read_bfly(&bytes[..]).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(back, g, "{name}: byte round-trip must be lossless");
    }
}

#[test]
fn battery_round_trips_through_segmented_reader() {
    let dir = std::env::temp_dir().join(format!("bfly-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, g) in fixture_battery() {
        let path = dir.join("g.bfly");
        write_bfly_file(&g, &path).unwrap();
        let sg = SegmentedGraph::open(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(sg.nv1(), g.nv1(), "{name}");
        assert_eq!(sg.nv2(), g.nv2(), "{name}");
        assert_eq!(sg.nedges(), g.nedges() as u64, "{name}");
        for side in [Side::V1, Side::V2] {
            let want: Vec<u32> = (0..g.nvertices(side))
                .map(|u| nbrs(&g, side, u).len() as u32)
                .collect();
            assert_eq!(sg.degrees(side), &want[..], "{name} {side:?}");
        }
        // The windowed segment API reassembles the exact adjacency.
        for side in [Side::V1, Side::V2] {
            let n = g.nvertices(side);
            let seg = sg.segment(side, 0, n).unwrap();
            for u in 0..n {
                assert_eq!(
                    seg.neighbors(u),
                    nbrs(&g, side, u),
                    "{name} {side:?} row {u}"
                );
            }
        }
        // And the out-of-core counter agrees with the in-memory family.
        assert_eq!(count_file(&sg), count_adaptive(&g).0, "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncation_at_every_boundary_is_a_typed_error() {
    let g = fixture_battery().swap_remove(0).1;
    let bytes = to_bytes(&g);
    // Cut the stream at a spread of offsets: inside the header, inside
    // the degree arrays, inside the payload indexes, inside the varint
    // payload, and one byte short of complete.
    let cuts = [
        0,
        7,
        56,
        111,
        112,
        bytes.len() / 4,
        bytes.len() / 2,
        bytes.len() - 1,
    ];
    for cut in cuts {
        let r = FaultyReader::new(&bytes[..]).with_truncation(cut);
        match read_bfly(r) {
            Err(IoError::Io(_) | IoError::Format(_)) => {}
            Ok(_) => panic!("truncation at {cut} of {} must not parse", bytes.len()),
            Err(other) => panic!("truncation at {cut}: unexpected error {other:?}"),
        }
    }
}

#[test]
fn interleaved_io_errors_surface_not_panic() {
    let g = fixture_battery().swap_remove(0).1;
    let bytes = to_bytes(&g);
    for at in [0, 50, bytes.len() / 2, bytes.len() - 1] {
        // One-byte reads make every offset a read-call boundary, so the
        // injected error fires exactly at `at` regardless of how the
        // loader batches its reads.
        let r = FaultyReader::new(&bytes[..])
            .with_chunk(1)
            .with_error_at(at, std::io::ErrorKind::ConnectionReset);
        match read_bfly(r) {
            Err(IoError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "at {at}")
            }
            other => panic!("hard error at {at}: expected Io, got {other:?}"),
        }
    }
    // Interrupted is retryable: std's read_exact retries it, so the load
    // must succeed anyway.
    let r = FaultyReader::new(&bytes[..])
        .with_error_at(bytes.len() / 2, std::io::ErrorKind::Interrupted);
    assert_eq!(read_bfly(r).unwrap(), g);
}

#[test]
fn short_reads_do_not_change_the_parse() {
    let g = fixture_battery().swap_remove(0).1;
    let bytes = to_bytes(&g);
    for chunk in [1, 3, 7, 113] {
        let r = FaultyReader::new(&bytes[..]).with_chunk(chunk);
        assert_eq!(read_bfly(r).unwrap(), g, "chunk {chunk}");
    }
}

#[test]
fn single_byte_corruption_never_panics_and_never_lies_quietly() {
    // Flip one byte at a time across the whole file. Every outcome must
    // be either a typed error or a graph that still decodes — the loader
    // may not panic, and corruption inside the header/degree sections is
    // always caught (checksums + layout checks).
    let g = fixture_battery().swap_remove(0).1;
    let bytes = to_bytes(&g);
    let deg_end = 112 + 4 * (g.nv1() + g.nv2());
    for pos in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x40;
        match read_bfly(&bad[..]) {
            Err(IoError::Format(_) | IoError::Io(_)) => {}
            Err(other) => panic!("byte {pos}: unexpected error {other:?}"),
            Ok(_) if pos < deg_end => {
                panic!("byte {pos}: header/degree corruption must be detected")
            }
            Ok(_) => {} // payload flips may decode to a different valid row
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary graphs survive the byte round-trip unchanged.
    #[test]
    fn arbitrary_graphs_round_trip(g in arb_graph()) {
        let bytes = to_bytes(&g);
        prop_assert_eq!(read_bfly(&bytes[..]).unwrap(), g);
    }

    /// The segmented reader agrees with the eager loader on arbitrary
    /// graphs, window by window.
    #[test]
    fn arbitrary_graphs_round_trip_segmented(g in arb_graph()) {
        let dir = std::env::temp_dir()
            .join(format!("bfly-roundtrip-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bfly");
        write_bfly_file(&g, &path).unwrap();
        let sg = SegmentedGraph::open(&path).unwrap();
        // Windowed decode: split each side into two ranges and check the
        // concatenation matches the full adjacency.
        for side in [Side::V1, Side::V2] {
            let n = g.nvertices(side);
            let mid = n / 2;
            let mut rows: Vec<Vec<u32>> = Vec::new();
            for (lo, hi) in [(0, mid), (mid, n)] {
                let seg = sg.segment(side, lo, hi).unwrap();
                for u in lo..hi {
                    rows.push(seg.neighbors(u).to_vec());
                }
            }
            for (u, row) in rows.iter().enumerate() {
                prop_assert_eq!(&row[..], nbrs(&g, side, u));
            }
        }
        prop_assert_eq!(count_file(&sg), count_adaptive(&g).0);
    }
}
