//! Robustness: the parsers must return `Err` — never panic — on arbitrary
//! byte soup, and must be total on anything the writers can produce.

use bfly_graph::io::{read_edge_list, read_konect};
use bfly_graph::matrix_market::read_matrix_market;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// No parser panics on arbitrary ASCII-ish input.
    #[test]
    fn parsers_never_panic(input in "[ -~\n\t]{0,300}") {
        let _ = read_edge_list(input.as_bytes());
        let _ = read_konect(input.as_bytes());
        let _ = read_matrix_market(input.as_bytes());
    }

    /// Numeric-looking lines either parse or produce a located error.
    #[test]
    fn numeric_soup(lines in proptest::collection::vec((0u64..1u64<<40, 0u64..1u64<<40), 0..20)) {
        let text: String = lines
            .iter()
            .map(|(a, b)| format!("{a} {b}\n"))
            .collect();
        // Values above u32::MAX must be rejected, not wrapped.
        let res = read_edge_list(text.as_bytes());
        let oversized = lines.iter().any(|&(a, b)| a > u32::MAX as u64 || b > u32::MAX as u64);
        if oversized {
            prop_assert!(res.is_err());
        } else {
            prop_assert!(res.is_ok());
        }
    }
}

#[test]
fn bom_and_crlf_are_tolerated() {
    // The same KONECT file saved by a Windows editor: BOM + CRLF.
    let clean = "% bip unweighted\n% 3 2 2\n1 1\n1 2\n2 2\n";
    let windows = "\u{feff}% bip unweighted\r\n% 3 2 2\r\n1 1\r\n1 2\r\n2 2\r\n";
    let g = read_konect(clean.as_bytes()).unwrap();
    assert_eq!(read_konect(windows.as_bytes()).unwrap(), g);
    // Edge lists and MatrixMarket likewise.
    let el = "\u{feff}0 0\r\n1 1\r\n";
    assert_eq!(read_edge_list(el.as_bytes()).unwrap().nedges(), 2);
    let mtx = "\u{feff}%%MatrixMarket matrix coordinate pattern general\r\n2 2 2\r\n1 1\r\n2 2\r\n";
    assert_eq!(read_matrix_market(mtx.as_bytes()).unwrap().nedges(), 2);
}

#[test]
fn konect_header_contradictions_are_pointed_errors() {
    use bfly_graph::io::IoError;
    // Header says 5 edges, file has 3 data lines.
    let wrong_count = "% 5 2 2\n1 1\n1 2\n2 2\n";
    match read_konect(wrong_count.as_bytes()) {
        Err(IoError::Parse { line, msg }) => {
            assert_eq!(line, 1);
            assert!(msg.contains('5') && msg.contains('3'), "unpointed: {msg}");
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
    // Header says 2x2, an edge names vertex 3.
    let out_of_range = "% 3 2 2\n1 1\n1 2\n3 2\n";
    assert!(matches!(
        read_konect(out_of_range.as_bytes()),
        Err(IoError::Parse { line: 1, .. })
    ));
    // A consistent header fixes the dimensions, keeping isolated vertices.
    let padded = "% 1 4 7\n1 1\n";
    let g = read_konect(padded.as_bytes()).unwrap();
    assert_eq!((g.nv1(), g.nv2()), (4, 7));
    // Non-size comments (and ones past the first data line) are ignored.
    let late_comment = "1 1\n% 9 9 9\n2 2\n";
    assert!(read_konect(late_comment.as_bytes()).is_ok());
}

#[test]
fn matrix_market_entry_count_must_match_declaration() {
    use bfly_graph::io::IoError;
    // Declares 3 entries, provides 2.
    let short = "%%MatrixMarket matrix coordinate pattern general\n2 2 3\n1 1\n2 2\n";
    assert!(matches!(
        read_matrix_market(short.as_bytes()),
        Err(IoError::Parse { .. })
    ));
    // Declares 1, provides 2.
    let long = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n2 2\n";
    assert!(read_matrix_market(long.as_bytes()).is_err());
    // Zero-valued entries count as entries (they are just not edges).
    let zeros = "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 0\n2 2 1\n";
    let g = read_matrix_market(zeros.as_bytes()).unwrap();
    assert_eq!(g.nedges(), 1);
}

#[test]
fn loaders_survive_fault_injection() {
    use bfly_core::testkit::FaultyReader;
    use bfly_graph::io::IoError;
    use std::io::ErrorKind;
    let konect = "% bip unweighted\n% 3 2 2\n1 1\n1 2\n2 2\n";
    // Short reads never change the parse.
    for chunk in [1, 2, 3, 7] {
        let g = read_konect(FaultyReader::new(konect.as_bytes()).with_chunk(chunk)).unwrap();
        assert_eq!(g.nedges(), 3);
    }
    // A hard I/O error surfaces as IoError::Io — no panic, no bogus graph.
    for kind in [
        ErrorKind::UnexpectedEof,
        ErrorKind::PermissionDenied,
        ErrorKind::ConnectionReset,
    ] {
        let r = FaultyReader::new(konect.as_bytes())
            .with_chunk(2)
            .with_error_at(8, kind);
        assert!(matches!(read_konect(r), Err(IoError::Io(_))));
    }
    // Retryable interrupts are invisible.
    let r = FaultyReader::new(konect.as_bytes())
        .with_chunk(2)
        .with_error_at(8, ErrorKind::Interrupted);
    assert_eq!(read_konect(r).unwrap().nedges(), 3);
    // Truncation mid-file: either a parse error (header contradiction,
    // torn line) or a clean Err — never a panic. Every prefix length.
    for cut in 0..konect.len() {
        let r = FaultyReader::new(konect.as_bytes()).with_truncation(cut);
        let _ = read_konect(r);
    }
    let mtx = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n";
    for cut in 0..mtx.len() {
        let r = FaultyReader::new(mtx.as_bytes()).with_truncation(cut);
        let _ = read_matrix_market(r);
    }
}

#[test]
fn specific_hostile_inputs() {
    for bad in [
        "1",                                                    // missing field
        "1 x",                                                  // non-numeric
        "-1 2",                                                 // negative
        "99999999999 1",                                        // overflow
        "%%MatrixMarket matrix array real general\n1 1\n1.0\n", // unsupported layout
    ] {
        assert!(read_edge_list(bad.as_bytes()).is_err() || read_edge_list(bad.as_bytes()).is_ok());
        // The real assertion: no panic reaching here, and KONECT agrees.
        let _ = read_konect(bad.as_bytes());
        let _ = read_matrix_market(bad.as_bytes());
    }
    // Empty and comment-only inputs are valid empty graphs.
    assert_eq!(read_edge_list(b"".as_ref()).unwrap().nedges(), 0);
    assert_eq!(read_edge_list(b"% x\n# y\n".as_ref()).unwrap().nedges(), 0);
}

/// Every loader and the `.bfly` converter read text through one parser, so
/// on any input they build the same graph or fail on the same line with
/// the same message.
#[test]
fn loaders_and_converter_agree() {
    use bfly_graph::io::IoError;
    use bfly_graph::{convert_to_bfly, read_bfly_file, TextFormat};
    let konect = "% bip unweighted\n% 4 3 3\n1 1\n1 2\n2 2\n3 3\n";
    let mtx =
        "%%MatrixMarket matrix coordinate integer general\n3 3 4\n1 1 1\n1 2 7\n2 2 0\n3 3 2\n";
    let mut corpus: Vec<(TextFormat, &str)> =
        vec![
        (TextFormat::Konect, "\u{feff}% bip unweighted\r\n% 3 2 2\r\n1 1\r\n1 2\r\n2 2\r\n"),
        (TextFormat::Konect, "% 1 4 7\n1 1\n"),
        (TextFormat::Konect, "1 1\n% 9 9 9\n2 2\n"),
        (TextFormat::Konect, "% 5 2 2\n1 1\n1 2\n2 2\n"),
        (TextFormat::Konect, "% 3 2 2\n1 1\n1 2\n3 2\n"),
        (TextFormat::EdgeList, "\u{feff}0 0\r\n1 1\r\n"),
        (TextFormat::EdgeList, "% x\n# y\n"),
        (
            TextFormat::MatrixMarket,
            "\u{feff}%%MatrixMarket matrix coordinate pattern general\r\n2 2 2\r\n1 1\r\n2 2\r\n",
        ),
        (
            TextFormat::MatrixMarket,
            "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 0\n2 2 1\n",
        ),
        (
            TextFormat::MatrixMarket,
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n2 2\n",
        ),
    ];
    corpus.extend((0..=konect.len()).map(|cut| (TextFormat::Konect, &konect[..cut])));
    corpus.extend((0..=mtx.len()).map(|cut| (TextFormat::MatrixMarket, &mtx[..cut])));
    corpus.extend([
        // An `integer` entry without its value: what a torn last entry
        // looks like.
        (
            TextFormat::MatrixMarket,
            "%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1\n",
        ),
        // More entries declared than the file has.
        (
            TextFormat::MatrixMarket,
            "%%MatrixMarket matrix coordinate pattern general\n2 2 3\n1 1\n2 2\n",
        ),
        // Both a wrong edge count and an edge outside the declared sizes:
        // the first violation met while streaming wins.
        (TextFormat::EdgeList, "% 5 2 2\n0 0\n3 1\n"),
        // Declared rows past u32 indices, rejected before any allocation.
        (
            TextFormat::MatrixMarket,
            "%%MatrixMarket matrix coordinate pattern general\n99999999999 1 0\n",
        ),
    ]);

    let dir = std::env::temp_dir().join(format!("bfly-agree-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (input, out) = (dir.join("input.txt"), dir.join("out.bfly"));
    for (format, text) in corpus {
        let loaded = match format {
            TextFormat::Konect => read_konect(text.as_bytes()),
            TextFormat::EdgeList => read_edge_list(text.as_bytes()),
            TextFormat::MatrixMarket => read_matrix_market(text.as_bytes()),
        };
        std::fs::write(&input, text).unwrap();
        let converted = convert_to_bfly(&input, format, &out).and_then(|_| read_bfly_file(&out));
        match (&loaded, &converted) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{format:?} {text:?}"),
            (
                Err(IoError::Parse { line, msg }),
                Err(IoError::Parse {
                    line: cline,
                    msg: cmsg,
                }),
            ) => assert_eq!((line, msg), (cline, cmsg), "{format:?} {text:?}"),
            _ => panic!("{format:?} {text:?}: load gave {loaded:?}, convert gave {converted:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
