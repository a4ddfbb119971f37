//! Text graph I/O: the one parser behind every loader and the `.bfly`
//! converter.
//!
//! The paper's datasets come from the KONECT collection \[5\], whose files
//! look like:
//!
//! ```text
//! % bip unweighted
//! % 58595 16726 22015
//! 1 1
//! 1 2
//! ...
//! ```
//!
//! Comment lines start with `%` (or `#`), data lines are whitespace-
//! separated `u v [weight [timestamp]]` pairs with **1-based** indices.
//! [`read_konect`] parses that; [`read_edge_list`] parses the same shape
//! with 0-based indices and no header; [`crate::matrix_market`] reads
//! MatrixMarket coordinate files. Each [`TextFormat`]'s grammar exists
//! once, here: every loader collects the edges it streams
//! ([`read_text`]), and [`crate::convert_to_bfly`] spills the same stream
//! to disk, so loading and converting a file cannot disagree. If real
//! KONECT files are available locally they can be fed straight into the
//! same harness that runs the synthetic stand-ins.
//!
//! Input is read in bounded blocks and split into lines without a
//! per-line allocation. A plain KONECT or edge-list `u v` data line is
//! parsed in place by a byte-level fast path; every other line (comments,
//! headers, MatrixMarket, non-ASCII bytes, signs, long ids, anything
//! malformed) goes through the str grammar, which decides every graph and
//! every error exactly as the fast path would where both apply.

use crate::bipartite::BipartiteGraph;
use crate::ordering::rank_ordered_from_edges;
use bfly_sparse::Pattern;
use std::io::{ErrorKind, Read, Write};
use std::path::Path;

/// Errors raised while parsing edge-list files.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A data line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        msg: String,
    },
    /// A binary `.bfly` file violated its own format contract (bad
    /// magic, checksum mismatch, corrupt varint, inconsistent index).
    Format(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, msg } => write!(f, "parse error on line {line}: {msg}"),
            IoError::Format(msg) => write!(f, "invalid .bfly file: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Text graph dialects: what every loader and the streaming converter read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextFormat {
    /// KONECT `out.*` edge list: 1-based ids, `%` comments, optional
    /// `% nedges nv1 nv2` size header.
    Konect,
    /// Plain 0-based edge list with the same comment conventions.
    EdgeList,
    /// MatrixMarket coordinate file (`pattern`/`integer`/`real`).
    MatrixMarket,
}

/// Bytes the line splitter asks its reader for at a time. The buffer
/// grows past this only to hold one line longer than a block.
const BLOCK: usize = 128 << 10;

/// UTF-8 byte-order mark: files saved by Windows editors often lead with
/// one, and it must not poison line 1's first token.
const BOM: &[u8] = b"\xEF\xBB\xBF";

/// Splits a reader into lines through one bounded buffer, with
/// `BufRead::lines`' framing and none of its per-line `String`: a line
/// loses its `\n` and one `\r` before it (a last line without `\n` keeps
/// its `\r`), line 1 loses a leading BOM, and `Interrupted` reads are
/// retried. Lines stay bytes; each grammar decides how much text it needs.
struct LineSplitter<R> {
    reader: R,
    buf: Vec<u8>,
    /// Start of the first line not yet returned.
    start: usize,
    /// End of the bytes read so far.
    end: usize,
    eof: bool,
    /// Lines returned so far: the number of the last one.
    lineno: usize,
}

impl<R: Read> LineSplitter<R> {
    fn new(reader: R) -> Self {
        LineSplitter {
            reader,
            buf: vec![0; BLOCK],
            start: 0,
            end: 0,
            eof: false,
            lineno: 0,
        }
    }

    /// The next line and its 1-based number, or `None` once the input
    /// ends.
    fn next_line(&mut self) -> Result<Option<(usize, &[u8])>, IoError> {
        let mut searched = 0;
        let (line_end, next) = loop {
            let from = self.start + searched;
            if let Some(i) = self.buf[from..self.end].iter().position(|&b| b == b'\n') {
                let nl = from + i;
                let cr = nl > self.start && self.buf[nl - 1] == b'\r';
                break (nl - usize::from(cr), nl + 1);
            }
            searched = self.end - self.start;
            if !self.refill()? {
                if self.start == self.end {
                    return Ok(None);
                }
                break (self.end, self.end);
            }
        };
        let mut line_start = self.start;
        self.start = next;
        self.lineno += 1;
        if self.lineno == 1 && self.buf[line_start..line_end].starts_with(BOM) {
            line_start += BOM.len();
        }
        Ok(Some((self.lineno, &self.buf[line_start..line_end])))
    }

    /// Read more input behind the pending bytes, first moving them to the
    /// front of the buffer and doubling the buffer when one line fills
    /// it. `false` once the input has ended.
    fn refill(&mut self) -> Result<bool, IoError> {
        if self.eof {
            return Ok(false);
        }
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.end == self.buf.len() {
            self.buf.resize(2 * self.buf.len(), 0);
        }
        loop {
            match self.reader.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(false);
                }
                Ok(n) => {
                    self.end += n;
                    return Ok(true);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// The whitespace of the str grammar (`char::is_whitespace`) that is
/// ASCII: `\t \n \x0B \x0C \r` and space. `u8::is_ascii_whitespace`
/// leaves out `\x0B`.
#[inline]
fn is_space(b: u8) -> bool {
    matches!(b, b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r' | b' ')
}

/// A run of 1–9 ASCII digits at `bytes[*at..]`, advancing `at` past it.
/// Nine digits stay below `u32::MAX`, so the value needs no check.
#[inline]
fn digits(bytes: &[u8], at: &mut usize) -> Option<u32> {
    let mut value = 0u32;
    let mut n = 0;
    while let Some(&b) = bytes.get(*at + n) {
        if !b.is_ascii_digit() {
            break;
        }
        if n == 9 {
            return None;
        }
        value = value * 10 + u32::from(b - b'0');
        n += 1;
    }
    *at += n;
    (n > 0).then_some(value)
}

/// The fast path of the KONECT and edge-list data line: optional
/// whitespace, 1–9 digits, whitespace, 1–9 digits, then the end of the
/// line or whitespace followed by ASCII (KONECT's weight and timestamp
/// columns, which are ignored). On such a line the str grammar reads the
/// same two ids, so `None`, which sends the line to the str grammar,
/// changes no graph and no error.
#[inline]
fn fast_pair(line: &[u8]) -> Option<(u32, u32)> {
    let mut at = line.iter().take_while(|&&b| is_space(b)).count();
    let first = digits(line, &mut at)?;
    let gap = line[at..].iter().take_while(|&&b| is_space(b)).count();
    if gap == 0 {
        return None;
    }
    at += gap;
    let second = digits(line, &mut at)?;
    let rest = &line[at..];
    (rest.first().is_none_or(|&b| is_space(b)) && rest.is_ascii()).then_some((first, second))
}

/// A line as text for the str grammar, failing on invalid UTF-8 with the
/// error `BufRead::lines` raises.
fn utf8(line: &[u8]) -> Result<&str, IoError> {
    std::str::from_utf8(line).map_err(|_| {
        IoError::Io(std::io::Error::new(
            ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        ))
    })
}

/// What a streaming parse saw besides the edges it emitted.
pub(crate) struct StreamInfo {
    /// Data lines read (MatrixMarket: entry lines), before duplicate
    /// edges collapse.
    pub(crate) data_lines: u64,
    /// `|V1|`: the declared size, or max id + 1 when the file declares
    /// none. Every emitted `u` is below it.
    pub(crate) nv1: usize,
    /// `|V2|`, by the same rule.
    pub(crate) nv2: usize,
}

/// Stream `(u, v)` edges (0-based) out of a text graph, enforcing the
/// file's own header without accumulating the edge list. The first
/// violation found while streaming is the error: a KONECT or edge-list
/// edge outside the declared sizes is reported against the header line as
/// soon as it is read (a MatrixMarket entry, against its own line), and a
/// declared edge or entry count that the data contradicts is reported
/// against the header or size line once the input ends. Tolerates a UTF-8
/// BOM and CRLF line endings ([`LineSplitter`]). KONECT and edge-list
/// data lines take [`fast_pair`]; every other line, and every error, goes
/// through the str grammar.
pub(crate) fn stream_edges<R: Read>(
    reader: R,
    format: TextFormat,
    emit: impl FnMut(u32, u32) -> Result<(), IoError>,
) -> Result<StreamInfo, IoError> {
    let lines = LineSplitter::new(reader);
    match format {
        TextFormat::Konect => stream_pairs(lines, true, emit),
        TextFormat::EdgeList => stream_pairs(lines, false, emit),
        TextFormat::MatrixMarket => stream_matrix_market(lines, emit),
    }
}

/// KONECT and edge-list grammar. The first `%`/`#` comment before any
/// data line whose payload is exactly three integers is KONECT's
/// `% nedges nv1 nv2` size header; it counts data lines, not distinct
/// edges.
fn stream_pairs<R: Read>(
    mut lines: LineSplitter<R>,
    one_based: bool,
    mut emit: impl FnMut(u32, u32) -> Result<(), IoError>,
) -> Result<StreamInfo, IoError> {
    let mut header: Option<(usize, u64, u64, u64)> = None;
    let mut data_lines = 0u64;
    let (mut max1, mut max2) = (0usize, 0usize);
    while let Some((lineno, line)) = lines.next_line()? {
        let (mut u, mut v) = match fast_pair(line) {
            Some(pair) => pair,
            None => {
                let trimmed = utf8(line)?.trim();
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
                            header = Some((lineno, nums[0], nums[1], nums[2]));
                        }
                    }
                    continue;
                }
                let mut it = trimmed.split_whitespace();
                let (us, vs) = match (it.next(), it.next()) {
                    (Some(u), Some(v)) => (u, v),
                    _ => {
                        return Err(IoError::Parse {
                            line: lineno,
                            msg: format!("expected at least two fields, got {trimmed:?}"),
                        })
                    }
                };
                let parse = |s: &str| -> Result<u32, IoError> {
                    s.parse::<u32>().map_err(|e| IoError::Parse {
                        line: lineno,
                        msg: format!("bad vertex id {s:?}: {e}"),
                    })
                };
                (parse(us)?, parse(vs)?)
            }
        };
        data_lines += 1;
        if one_based {
            if u == 0 || v == 0 {
                return Err(IoError::Parse {
                    line: lineno,
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
/// Blank lines may precede the header; line numbers count from the
/// file's first line, and a header error names the header's own line.
fn stream_matrix_market<R: Read>(
    mut lines: LineSplitter<R>,
    mut emit: impl FnMut(u32, u32) -> Result<(), IoError>,
) -> Result<StreamInfo, IoError> {
    let (hline, header) = loop {
        let Some((n, line)) = lines.next_line()? else {
            return Err(IoError::Parse {
                line: 1,
                msg: "empty file".to_string(),
            });
        };
        let line = utf8(line)?;
        if line.starts_with("%%MatrixMarket") {
            break (n, line.to_string());
        }
        if !line.trim().is_empty() {
            return Err(IoError::Parse {
                line: n,
                msg: "missing %%MatrixMarket header".to_string(),
            });
        }
    };
    let tokens: Vec<&str> = header.split_whitespace().collect();
    if tokens.len() < 4 || tokens[1] != "matrix" || tokens[2] != "coordinate" {
        return Err(IoError::Parse {
            line: hline,
            msg: format!("unsupported header {header:?} (need matrix coordinate)"),
        });
    }
    let field = tokens[3];
    if !matches!(field, "pattern" | "integer" | "real") {
        return Err(IoError::Parse {
            line: hline,
            msg: format!("unsupported field type {field:?}"),
        });
    }
    let (size_line, m, n, nnz) = loop {
        let Some((lineno, line)) = lines.next_line()? else {
            return Err(IoError::Parse {
                line: lines.lineno,
                msg: "missing size line".to_string(),
            });
        };
        let t = utf8(line)?.trim();
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
        break (lineno, parse(parts[0])?, parse(parts[1])?, parse(parts[2])?);
    };
    if m > u32::MAX as u64 || n > u32::MAX as u64 {
        return Err(IoError::Parse {
            line: size_line,
            msg: format!("declared matrix {m}x{n} exceeds u32 indices"),
        });
    }
    let mut entry_lines = 0u64;
    while let Some((lineno, line)) = lines.next_line()? {
        let t = utf8(line)?.trim();
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

/// Parse a text graph in any [`TextFormat`] from any reader: the one
/// collector behind every `read_*` loader. The graph takes the file's
/// declared dimensions, so trailing isolated vertices survive a
/// write/read roundtrip, or max id + 1 per side when the file declares
/// none. A header that contradicts the data (wrong edge or entry count,
/// or an id outside the declared sizes) is a pointed [`IoError::Parse`],
/// not a silently misshapen graph. The edge list is freed once `A` is
/// built, before the transpose, so it is never resident beside `Aᵀ`.
pub fn read_text<R: Read>(reader: R, format: TextFormat) -> Result<BipartiteGraph, IoError> {
    let (info, edges) = parse_edges(reader, format)?;
    let a = Pattern::from_edges(info.nv1, info.nv2, &edges).expect(IN_RANGE);
    drop(edges);
    Ok(BipartiteGraph::from_biadjacency(a))
}

/// [`read_text`] into the rank-ordered graph: the parsed edge list is
/// renumbered in place before the one CSR build
/// ([`rank_ordered_from_edges`]), so the file's labelling never becomes
/// a graph of its own. `bfly count` loads text this way.
pub fn read_text_rank_ordered<R: Read>(
    reader: R,
    format: TextFormat,
) -> Result<BipartiteGraph, IoError> {
    let (info, edges) = parse_edges(reader, format)?;
    Ok(rank_ordered_from_edges(info.nv1, info.nv2, edges).expect(IN_RANGE))
}

const IN_RANGE: &str = "the parser keeps every edge inside the dimensions it reports";

/// The edges of a text graph as parsed, duplicates kept, with what the
/// parse saw (the dimensions the graph takes).
fn parse_edges<R: Read>(
    reader: R,
    format: TextFormat,
) -> Result<(StreamInfo, Vec<(u32, u32)>), IoError> {
    let mut edges = Vec::new();
    let info = stream_edges(reader, format, |u, v| {
        edges.push((u, v));
        Ok(())
    })?;
    Ok((info, edges))
}

/// Load a text graph in any [`TextFormat`] from disk.
pub fn read_text_file<P: AsRef<Path>>(
    path: P,
    format: TextFormat,
) -> Result<BipartiteGraph, IoError> {
    read_text(std::fs::File::open(path)?, format)
}

/// Parse a KONECT `out.*` bipartite file (1-based indices, `%` comments)
/// from any reader; see [`read_text`].
pub fn read_konect<R: Read>(reader: R) -> Result<BipartiteGraph, IoError> {
    read_text(reader, TextFormat::Konect)
}

/// Parse a 0-based whitespace edge list (comments `%`/`#` allowed, size
/// header enforced when present); see [`read_text`].
pub fn read_edge_list<R: Read>(reader: R) -> Result<BipartiteGraph, IoError> {
    read_text(reader, TextFormat::EdgeList)
}

/// Load a KONECT file from disk.
pub fn read_konect_file<P: AsRef<Path>>(path: P) -> Result<BipartiteGraph, IoError> {
    read_text_file(path, TextFormat::Konect)
}

/// Write a graph as a 0-based edge list.
pub fn write_edge_list<W: Write>(g: &BipartiteGraph, mut w: W) -> Result<(), IoError> {
    writeln!(w, "% bip unweighted")?;
    writeln!(w, "% {} {} {}", g.nedges(), g.nv1(), g.nv2())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn konect_format_roundtrip_semantics() {
        let file = "% bip unweighted\n% 3 2 2\n1 1\n1 2\n2 2\n";
        let g = read_konect(file.as_bytes()).unwrap();
        assert_eq!(g.nv1(), 2);
        assert_eq!(g.nv2(), 2);
        assert_eq!(g.nedges(), 3);
        assert!(g.has_edge(0, 0));
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 1));
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    fn zero_based_edge_list() {
        let file = "# comment\n0 0\n0 1\n2 1\n";
        let g = read_edge_list(file.as_bytes()).unwrap();
        assert_eq!(g.nv1(), 3);
        assert_eq!(g.nv2(), 2);
        assert!(g.has_edge(2, 1));
    }

    #[test]
    fn extra_columns_are_ignored() {
        let file = "1 1 1.0 1234567890\n2 1 1.0 1234567891\n";
        let g = read_konect(file.as_bytes()).unwrap();
        assert_eq!(g.nedges(), 2);
        assert!(g.has_edge(1, 0));
    }

    #[test]
    fn konect_rejects_zero_ids() {
        let file = "0 1\n";
        assert!(matches!(
            read_konect(file.as_bytes()),
            Err(IoError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn malformed_lines_error_with_location() {
        let file = "1 1\nnot-a-number 2\n";
        match read_edge_list(file.as_bytes()) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        let file = "1\n";
        assert!(read_edge_list(file.as_bytes()).is_err());
    }

    #[test]
    fn write_then_read_roundtrip() {
        let g = BipartiteGraph::from_edges(3, 2, &[(0, 0), (1, 1), (2, 0)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list("% nothing here\n".as_bytes()).unwrap();
        assert_eq!(g.nedges(), 0);
        assert_eq!(g.nv1(), 0);
    }
}
