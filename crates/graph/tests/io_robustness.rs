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

/// MatrixMarket errors name the file's own line numbers, blank lines
/// before the header included; a header error names the header's line.
#[test]
fn matrix_market_errors_count_lines_from_the_file_start() {
    use bfly_graph::io::IoError;
    for (text, want_line, want_msg) in [
        (
            "\n\n%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n3 3\n",
            6,
            "entry (3, 3) outside the declared 2x2 matrix",
        ),
        ("\n\nfoo\n", 3, "missing %%MatrixMarket header"),
        (
            "\n\n%%MatrixMarket matrix array real general\n1 1\n1.0\n",
            3,
            "unsupported header",
        ),
    ] {
        match read_matrix_market(text.as_bytes()) {
            Err(IoError::Parse { line, msg }) => {
                assert_eq!(line, want_line, "{text:?}: {msg}");
                assert!(msg.starts_with(want_msg), "{text:?}: {msg}");
            }
            other => panic!("{text:?}: expected a parse error, got {other:?}"),
        }
    }
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

/// One parse's outcome, comparable across parsers: the graph, or the
/// error's variant with its line and message.
#[derive(Debug, PartialEq)]
enum Outcome {
    Graph(bfly_graph::BipartiteGraph),
    Parse(usize, String),
    Io(std::io::ErrorKind, String),
    Format(String),
}

fn outcome(result: Result<bfly_graph::BipartiteGraph, bfly_graph::io::IoError>) -> Outcome {
    use bfly_graph::io::IoError;
    match result {
        Ok(g) => Outcome::Graph(g),
        Err(IoError::Parse { line, msg }) => Outcome::Parse(line, msg),
        Err(IoError::Io(e)) => Outcome::Io(e.kind(), e.to_string()),
        Err(IoError::Format(msg)) => Outcome::Format(msg),
    }
}

/// The public loader of `format`.
fn load(format: bfly_graph::TextFormat, reader: impl std::io::Read) -> Outcome {
    use bfly_graph::TextFormat;
    outcome(match format {
        TextFormat::Konect => read_konect(reader),
        TextFormat::EdgeList => read_edge_list(reader),
        TextFormat::MatrixMarket => read_matrix_market(reader),
    })
}

/// Both parsers on `text`, through a slice and through short reads of
/// `chunk` bytes: one outcome, or a panic naming the input.
fn assert_parsers_agree(format: bfly_graph::TextFormat, text: &[u8], chunk: usize) {
    use bfly_core::testkit::FaultyReader;
    let want = outcome(lines_grammar::read_text(text, format));
    let got = load(format, text);
    assert_eq!(got, want, "{format:?} {:?}", String::from_utf8_lossy(text));
    let short = load(format, FaultyReader::new(text).with_chunk(chunk));
    assert_eq!(
        short,
        want,
        "{format:?} chunk {chunk} {:?}",
        String::from_utf8_lossy(text)
    );
}

/// SplitMix64: the stream that writes and mutates the differential's files.
struct Mutator(u64);

impl Mutator {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn pick<'a>(&mut self, options: &[&'a [u8]]) -> &'a [u8] {
        options[self.below(options.len())]
    }
}

/// A valid file of `format` as lines without terminators: a small random
/// graph, with or without its size header.
fn valid_lines(format: bfly_graph::TextFormat, rng: &mut Mutator) -> Vec<Vec<u8>> {
    use bfly_graph::TextFormat;
    let (m, n, k) = (1 + rng.below(6), 1 + rng.below(6), rng.below(9));
    let mut lines: Vec<String> = Vec::new();
    if format == TextFormat::MatrixMarket {
        let field = ["pattern", "integer", "real"][rng.below(3)];
        lines.push(format!("%%MatrixMarket matrix coordinate {field} general"));
        if rng.chance(50) {
            lines.push("% written by a test".into());
        }
        lines.push(format!("{m} {n} {k}"));
        for _ in 0..k {
            let value = match field {
                "pattern" => "",
                "integer" => [" 1", " 0", " 7", " -3"][rng.below(4)],
                _ => [" 0.5", " 0.0", " -1e3", " 2"][rng.below(4)],
            };
            lines.push(format!("{} {}{value}", 1 + rng.below(m), 1 + rng.below(n)));
        }
    } else {
        let base = usize::from(format == TextFormat::Konect);
        if rng.chance(50) {
            lines.push("% bip unweighted".into());
        }
        if rng.chance(60) {
            lines.push(format!("% {k} {m} {n}"));
        }
        for _ in 0..k {
            lines.push(format!("{} {}", base + rng.below(m), base + rng.below(n)));
        }
    }
    lines.into_iter().map(String::into_bytes).collect()
}

/// Apply one dialect or damage mutation to `lines`.
fn mutate(lines: &mut Vec<Vec<u8>>, rng: &mut Mutator) {
    let at = rng.below(lines.len() + 1);
    if lines.is_empty() || rng.chance(20) {
        // A line of its own: blank, comment, late header, damage.
        let line = rng.pick(&[
            b"",
            b"   ",
            b"\t\x0C\x0B",
            b"# comment",
            b"% comment",
            b"% 9 9 9",
            b"%% 3 3 3",
            b"#\xff not UTF-8",
            b"% \xc2\xa0 nbsp",
            b"1",
            b"x y",
            b"\xc3",
            b"\xef\xbb\xbf1 1",
            b"1 1",
            b"2\t2",
        ]);
        lines.insert(at, line.to_vec());
        return;
    }
    let i = at.min(lines.len() - 1);
    let line = &mut lines[i];
    let edit = |line: &mut Vec<u8>, from: usize, to: usize, with: &[u8]| {
        line.splice(from..to, with.iter().copied());
    };
    match rng.below(7) {
        0 => {
            // Another separator in place of a space (a comma is none).
            if let Some(p) = line.iter().position(|&b| b == b' ') {
                let sep = rng.pick(&[
                    b",",
                    b"\t",
                    b"\x0B",
                    b"\x0C",
                    b"  ",
                    b" \t ",
                    b"\r",
                    b"\xc2\xa0",
                    b"\xe3\x80\x80",
                ]);
                edit(line, p, p + 1, sep);
            }
        }
        1 => {
            let lead = rng.pick(&[b" ", b"\t", b"\x0B", b"\x0C", b"\xc2\xa0", b"\r"]);
            edit(line, 0, 0, lead);
        }
        2 => {
            let tail = rng.pick(&[
                b" ",
                b"\t",
                b"\x0B",
                b"\r",
                b" 1.0",
                b"\t1 1234567890",
                b" \xc2\xa0",
                b"\xe3\x80\x802",
                b" \xff",
                b" %c",
                b"x",
            ]);
            let end = line.len();
            edit(line, end, end, tail);
        }
        3 => {
            // Rewrite the first id: zeros, signs, 10 digits, past u32. (An
            // id near 10^9 that fits u32 would size a graph of 10^9
            // vertices, so 10-digit ids are zero-padded or past u32.)
            let start = line
                .iter()
                .position(|b| !b.is_ascii_whitespace())
                .unwrap_or(0);
            let len = line[start..]
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .count();
            let id: Vec<u8> = match rng.below(7) {
                0 => [
                    vec![b'0'; 1 + rng.below(12)],
                    line[start..start + len].to_vec(),
                ]
                .concat(),
                1 => [b"+".to_vec(), line[start..start + len].to_vec()].concat(),
                2 => b"4294967296".to_vec(),
                3 => b"99999999999".to_vec(),
                4 => b"9999999999".to_vec(),
                5 => b"0000000001".to_vec(),
                _ => b"0".to_vec(),
            };
            edit(line, start, start + len, &id);
        }
        4 => {
            // A stray byte that is not UTF-8 on its own.
            let p = rng.below(line.len() + 1);
            let bad = rng.pick(&[b"\xff", b"\xc3", b"\x80", b"\xe3\x80"]);
            edit(line, p, p, bad);
        }
        5 => {
            let copy = line.clone();
            lines.insert(i, copy);
        }
        _ => {
            lines.remove(i);
        }
    }
}

/// Join `lines` as a file: LF, CRLF or mixed endings, maybe a BOM, maybe
/// no final newline.
fn render(lines: &[Vec<u8>], rng: &mut Mutator) -> Vec<u8> {
    let endings = rng.below(3);
    let mut text = Vec::new();
    if rng.chance(20) {
        text.extend_from_slice(b"\xef\xbb\xbf");
    }
    for line in lines {
        text.extend_from_slice(line);
        let crlf = endings == 1 || (endings == 2 && rng.chance(50));
        text.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
    }
    if rng.chance(25) {
        while text.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
            text.pop();
        }
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The block splitter and its fast path read every dialect and every
    /// damaged file exactly as the `lines()` grammar did: the same graph,
    /// or the same error variant, line and message, in one read or in
    /// short reads of 1–7 bytes.
    #[test]
    fn tokenizer_matches_the_lines_grammar(seed in 0u64..u64::MAX, which in 0usize..3) {
        use bfly_graph::TextFormat;
        let format = [TextFormat::Konect, TextFormat::EdgeList, TextFormat::MatrixMarket][which];
        let mut rng = Mutator(seed);
        let mut lines = valid_lines(format, &mut rng);
        for _ in 0..rng.below(4) {
            mutate(&mut lines, &mut rng);
        }
        let text = render(&lines, &mut rng);
        assert_parsers_agree(format, &text, 1 + rng.below(7));
    }
}

/// Lines that straddle the splitter's block boundaries, lines longer than
/// a block, and short reads: files of a few hundred KiB, shifted byte by
/// byte so every boundary falls inside a line somewhere, agree with the
/// `lines()` grammar.
#[test]
fn tokenizer_matches_across_block_boundaries() {
    use bfly_graph::TextFormat;
    let mut rng = Mutator(21);
    let mut konect = Vec::new();
    let mut mtx = b"%%MatrixMarket matrix coordinate real general\n".to_vec();
    let entries = 30_000;
    mtx.extend_from_slice(format!("1000 1000 {}\n", entries + 1).as_bytes());
    for i in 0..entries {
        let (u, v) = (1 + rng.below(1000), 1 + rng.below(1000));
        let tail: &[u8] = rng.pick(&[b"", b" 1", b"\t1 1234567890", b" \r"]);
        let end: &[u8] = if i % 3 == 0 { b"\r\n" } else { b"\n" };
        konect.extend_from_slice(format!("{u} {v}").as_bytes());
        konect.extend_from_slice(tail);
        konect.extend_from_slice(end);
        mtx.extend_from_slice(format!("{u}\t{v} 0.{}", rng.below(10)).as_bytes());
        mtx.extend_from_slice(end);
    }
    // One line longer than any block: a data line with a huge extra
    // column, and a comment.
    let long = vec![b'7'; 300 << 10];
    konect.extend_from_slice(b"% ");
    konect.extend_from_slice(&long);
    konect.extend_from_slice(b"\n5 5 ");
    konect.extend_from_slice(&long);
    mtx.extend_from_slice(b"2 2 ");
    mtx.extend_from_slice(&long);
    for pad in 0..8 {
        for (format, body) in [
            (TextFormat::Konect, &konect),
            (TextFormat::MatrixMarket, &mtx),
        ] {
            let mut text = Vec::new();
            if format == TextFormat::Konect {
                text.extend_from_slice(&b"%%%%%%%%"[..pad]);
                text.push(b'\n');
            } else {
                text.extend_from_slice(&b"        "[..pad]);
            }
            text.extend_from_slice(body);
            let chunk = if pad == 0 { 7 } else { 64 << 10 };
            assert_parsers_agree(format, &text, chunk);
        }
    }
    for chunk in 1..=7 {
        assert_parsers_agree(TextFormat::Konect, &konect[..20_000], chunk);
    }
}

/// Test-only copy of the text grammar as it read before the block
/// splitter: `BufRead::lines()`, then `trim`, `split_whitespace` and
/// `str::parse` on every line. The differential tests hold the loaders to
/// it byte for byte.
mod lines_grammar {
    use bfly_graph::io::IoError;
    use bfly_graph::{BipartiteGraph, TextFormat};
    use std::io::{BufRead, BufReader, Read};

    /// The graph the `lines()` grammar builds from `reader`.
    pub fn read_text<R: Read>(reader: R, format: TextFormat) -> Result<BipartiteGraph, IoError> {
        let mut edges = Vec::new();
        let info = stream_edges(reader, format, |u, v| {
            edges.push((u, v));
            Ok(())
        })?;
        Ok(BipartiteGraph::from_edges(info.nv1, info.nv2, &edges).unwrap())
    }

    /// Strip a UTF-8 byte-order mark (files saved by Windows editors often
    /// lead with one; it must not poison the first token).
    fn strip_bom(s: &str) -> &str {
        s.strip_prefix('\u{feff}').unwrap_or(s)
    }

    /// What a streaming parse saw besides the edges it emitted.
    #[allow(dead_code)] // `data_lines` feeds the converter's stats, not a graph
    struct StreamInfo {
        /// Data lines read (MatrixMarket: entry lines), before duplicate
        /// edges collapse.
        data_lines: u64,
        /// `|V1|`: the declared size, or max id + 1 when the file declares
        /// none. Every emitted `u` is below it.
        nv1: usize,
        /// `|V2|`, by the same rule.
        nv2: usize,
    }

    /// Stream `(u, v)` edges (0-based) out of a text graph, enforcing the
    /// file's own header without accumulating the edge list. The first
    /// violation found while streaming is the error: a KONECT or edge-list
    /// edge outside the declared sizes is reported against the header line as
    /// soon as it is read (a MatrixMarket entry, against its own line), and a
    /// declared edge or entry count that the data contradicts is reported
    /// against the header or size line once the input ends. Tolerates a UTF-8
    /// BOM and CRLF line endings (`\r` is whitespace to the tokenizer).
    fn stream_edges<R: Read>(
        reader: R,
        format: TextFormat,
        emit: impl FnMut(u32, u32) -> Result<(), IoError>,
    ) -> Result<StreamInfo, IoError> {
        let reader = BufReader::new(reader);
        match format {
            TextFormat::Konect => stream_pairs(reader, true, emit),
            TextFormat::EdgeList => stream_pairs(reader, false, emit),
            TextFormat::MatrixMarket => stream_matrix_market(reader, emit),
        }
    }

    /// KONECT and edge-list grammar. The first `%`/`#` comment before any
    /// data line whose payload is exactly three integers is KONECT's
    /// `% nedges nv1 nv2` size header; it counts data lines, not distinct
    /// edges.
    fn stream_pairs(
        reader: impl BufRead,
        one_based: bool,
        mut emit: impl FnMut(u32, u32) -> Result<(), IoError>,
    ) -> Result<StreamInfo, IoError> {
        let mut header: Option<(usize, u64, u64, u64)> = None;
        let mut data_lines = 0u64;
        let (mut max1, mut max2) = (0usize, 0usize);
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            let line = if lineno == 0 {
                strip_bom(&line)
            } else {
                line.as_str()
            };
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if trimmed.starts_with('%') || trimmed.starts_with('#') {
                if header.is_none() && data_lines == 0 {
                    let body = trimmed.trim_start_matches(['%', '#']);
                    let nums: Vec<u64> = body
                        .split_whitespace()
                        .map_while(|t| t.parse().ok())
                        .collect();
                    if nums.len() == 3 && body.split_whitespace().count() == 3 {
                        header = Some((lineno + 1, nums[0], nums[1], nums[2]));
                    }
                }
                continue;
            }
            data_lines += 1;
            let mut it = trimmed.split_whitespace();
            let (us, vs) = match (it.next(), it.next()) {
                (Some(u), Some(v)) => (u, v),
                _ => {
                    return Err(IoError::Parse {
                        line: lineno + 1,
                        msg: format!("expected at least two fields, got {trimmed:?}"),
                    })
                }
            };
            let parse = |s: &str| -> Result<u32, IoError> {
                s.parse::<u32>().map_err(|e| IoError::Parse {
                    line: lineno + 1,
                    msg: format!("bad vertex id {s:?}: {e}"),
                })
            };
            let (mut u, mut v) = (parse(us)?, parse(vs)?);
            if one_based {
                if u == 0 || v == 0 {
                    return Err(IoError::Parse {
                        line: lineno + 1,
                        msg: "vertex id 0 in a 1-based file".to_string(),
                    });
                }
                u -= 1;
                v -= 1;
            }
            if let Some((hline, _, nv1, nv2)) = header {
                if u as u64 >= nv1 || v as u64 >= nv2 {
                    return Err(IoError::Parse {
                        line: hline,
                        msg: format!(
                            "edge ({u}, {v}) outside the declared {nv1}x{nv2} vertex sets (0-based)"
                        ),
                    });
                }
            }
            max1 = max1.max(u as usize + 1);
            max2 = max2.max(v as usize + 1);
            emit(u, v)?;
        }
        let Some((hline, ne, nv1, nv2)) = header else {
            return Ok(StreamInfo {
                data_lines,
                nv1: max1,
                nv2: max2,
            });
        };
        if ne != data_lines {
            return Err(IoError::Parse {
                line: hline,
                msg: format!("header declares {ne} edges but the file has {data_lines} data lines"),
            });
        }
        if nv1 > u32::MAX as u64 || nv2 > u32::MAX as u64 {
            return Err(IoError::Parse {
                line: hline,
                msg: format!("declared vertex-set sizes {nv1}x{nv2} exceed u32 indices"),
            });
        }
        Ok(StreamInfo {
            data_lines,
            nv1: nv1 as usize,
            nv2: nv2 as usize,
        })
    }

    /// MatrixMarket coordinate grammar: rows are V1, columns V2, indices
    /// 1-based. A non-`pattern` entry must carry its value, and a zero value
    /// is not an edge, though it still counts against the declared `nnz`.
    fn stream_matrix_market(
        reader: impl BufRead,
        mut emit: impl FnMut(u32, u32) -> Result<(), IoError>,
    ) -> Result<StreamInfo, IoError> {
        let mut lines = reader.lines();
        let mut first = true;
        let mut lineno = 0usize;
        let header = loop {
            match lines.next() {
                Some(line) => {
                    let line = line?;
                    lineno += 1;
                    let line = if std::mem::take(&mut first) {
                        strip_bom(&line).to_string()
                    } else {
                        line
                    };
                    if line.starts_with("%%MatrixMarket") {
                        break line;
                    }
                    if !line.trim().is_empty() {
                        return Err(IoError::Parse {
                            line: lineno,
                            msg: "missing %%MatrixMarket header".to_string(),
                        });
                    }
                }
                None => {
                    return Err(IoError::Parse {
                        line: 1,
                        msg: "empty file".to_string(),
                    })
                }
            }
        };
        let tokens: Vec<&str> = header.split_whitespace().collect();
        if tokens.len() < 4 || tokens[1] != "matrix" || tokens[2] != "coordinate" {
            return Err(IoError::Parse {
                line: lineno,
                msg: format!("unsupported header {header:?} (need matrix coordinate)"),
            });
        }
        let field = tokens[3];
        if !matches!(field, "pattern" | "integer" | "real") {
            return Err(IoError::Parse {
                line: lineno,
                msg: format!("unsupported field type {field:?}"),
            });
        }
        let (m, n, nnz) = loop {
            let line = lines.next().ok_or(IoError::Parse {
                line: lineno,
                msg: "missing size line".to_string(),
            })??;
            lineno += 1;
            let t = line.trim();
            if t.is_empty() || t.starts_with('%') {
                continue;
            }
            let parts: Vec<&str> = t.split_whitespace().collect();
            if parts.len() != 3 {
                return Err(IoError::Parse {
                    line: lineno,
                    msg: format!("bad size line {t:?}"),
                });
            }
            let parse = |s: &str| -> Result<u64, IoError> {
                s.parse().map_err(|e| IoError::Parse {
                    line: lineno,
                    msg: format!("bad size field {s:?}: {e}"),
                })
            };
            break (parse(parts[0])?, parse(parts[1])?, parse(parts[2])?);
        };
        if m > u32::MAX as u64 || n > u32::MAX as u64 {
            return Err(IoError::Parse {
                line: lineno,
                msg: format!("declared matrix {m}x{n} exceeds u32 indices"),
            });
        }
        let size_line = lineno;
        let mut entry_lines = 0u64;
        for line in lines {
            let line = line?;
            lineno += 1;
            let t = line.trim();
            if t.is_empty() || t.starts_with('%') {
                continue;
            }
            entry_lines += 1;
            let mut it = t.split_whitespace();
            let (rs, cs) = match (it.next(), it.next()) {
                (Some(r), Some(c)) => (r, c),
                _ => {
                    return Err(IoError::Parse {
                        line: lineno,
                        msg: format!("bad entry line {t:?}"),
                    })
                }
            };
            let r: u64 = rs.parse().map_err(|e| IoError::Parse {
                line: lineno,
                msg: format!("bad row {rs:?}: {e}"),
            })?;
            let c: u64 = cs.parse().map_err(|e| IoError::Parse {
                line: lineno,
                msg: format!("bad column {cs:?}: {e}"),
            })?;
            if r == 0 || c == 0 || r > m || c > n {
                return Err(IoError::Parse {
                    line: lineno,
                    msg: format!("entry ({r}, {c}) outside the declared {m}x{n} matrix"),
                });
            }
            if field != "pattern" {
                let vs = it.next().ok_or(IoError::Parse {
                    line: lineno,
                    msg: "missing value field".to_string(),
                })?;
                let v: f64 = vs.parse().map_err(|e| IoError::Parse {
                    line: lineno,
                    msg: format!("bad value {vs:?}: {e}"),
                })?;
                if v == 0.0 {
                    continue;
                }
            }
            emit((r - 1) as u32, (c - 1) as u32)?;
        }
        if entry_lines != nnz {
            return Err(IoError::Parse {
                line: size_line,
                msg: format!("size line declares {nnz} entries but the file has {entry_lines}"),
            });
        }
        Ok(StreamInfo {
            data_lines: entry_lines,
            nv1: m as usize,
            nv2: n as usize,
        })
    }
}
