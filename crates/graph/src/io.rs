//! Text graph I/O: the one parser behind every loader and the `.bfly`
//! converter.
//!
//! The paper's datasets come from the KONECT collection [5], whose files
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

use crate::bipartite::BipartiteGraph;
use std::io::{BufRead, BufReader, Read, Write};
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

/// Strip a UTF-8 byte-order mark (files saved by Windows editors often
/// lead with one; it must not poison the first token).
fn strip_bom(s: &str) -> &str {
    s.strip_prefix('\u{feff}').unwrap_or(s)
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
/// BOM and CRLF line endings (`\r` is whitespace to the tokenizer).
pub(crate) fn stream_edges<R: Read>(
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
    let header = loop {
        match lines.next() {
            Some(line) => {
                let line = line?;
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
                        line: 1,
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
            line: 1,
            msg: format!("unsupported header {header:?} (need matrix coordinate)"),
        });
    }
    let field = tokens[3];
    if !matches!(field, "pattern" | "integer" | "real") {
        return Err(IoError::Parse {
            line: 1,
            msg: format!("unsupported field type {field:?}"),
        });
    }
    let mut lineno = 1usize;
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

/// Parse a text graph in any [`TextFormat`] from any reader: the one
/// collector behind every `read_*` loader. The graph takes the file's
/// declared dimensions, so trailing isolated vertices survive a
/// write/read roundtrip, or max id + 1 per side when the file declares
/// none. A header that contradicts the data (wrong edge or entry count,
/// or an id outside the declared sizes) is a pointed [`IoError::Parse`],
/// not a silently misshapen graph.
pub fn read_text<R: Read>(reader: R, format: TextFormat) -> Result<BipartiteGraph, IoError> {
    let mut edges = Vec::new();
    let info = stream_edges(reader, format, |u, v| {
        edges.push((u, v));
        Ok(())
    })?;
    Ok(BipartiteGraph::from_edges(info.nv1, info.nv2, &edges)
        .expect("the parser keeps every edge inside the dimensions it reports"))
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

/// Load a 0-based edge list from disk.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<BipartiteGraph, IoError> {
    read_text_file(path, TextFormat::EdgeList)
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
