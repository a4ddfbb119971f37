//! MatrixMarket (`.mtx`) I/O for biadjacency matrices.
//!
//! KONECT (and SuiteSparse) distribute bipartite graphs as MatrixMarket
//! coordinate files; supporting the format lets the harness run on real
//! downloads with no conversion step. We read/write the `coordinate`
//! layout with `pattern`, `integer`, or `real` fields — any nonzero entry
//! becomes an edge (the biadjacency is 0/1 by definition), and an
//! `integer` or `real` entry without its value column is a parse error.

use crate::bipartite::BipartiteGraph;
use crate::io::{read_text, read_text_file, IoError, TextFormat};
use std::io::{Read, Write};
use std::path::Path;

/// Parse a MatrixMarket coordinate file into a bipartite graph
/// (rows = V1, columns = V2; indices are 1-based per the format). The
/// grammar is [`TextFormat::MatrixMarket`]'s in [`crate::io`].
pub fn read_matrix_market<R: Read>(reader: R) -> Result<BipartiteGraph, IoError> {
    read_text(reader, TextFormat::MatrixMarket)
}

/// Load a `.mtx` file from disk.
pub fn read_matrix_market_file<P: AsRef<Path>>(path: P) -> Result<BipartiteGraph, IoError> {
    read_text_file(path, TextFormat::MatrixMarket)
}

/// Write the biadjacency as a `pattern` MatrixMarket file.
pub fn write_matrix_market<W: Write>(g: &BipartiteGraph, mut w: W) -> Result<(), IoError> {
    writeln!(w, "%%MatrixMarket matrix coordinate pattern general")?;
    writeln!(w, "% bipartite biadjacency written by bfly")?;
    writeln!(w, "{} {} {}", g.nv1(), g.nv2(), g.nedges())?;
    for (u, v) in g.edges() {
        writeln!(w, "{} {}", u + 1, v + 1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_roundtrip() {
        let g = BipartiteGraph::from_edges(3, 4, &[(0, 0), (1, 3), (2, 1), (2, 2)]).unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&g, &mut buf).unwrap();
        let h = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn reads_integer_field_and_skips_zero_values() {
        let file = "%%MatrixMarket matrix coordinate integer general\n\
                    % comment\n\
                    2 2 3\n\
                    1 1 5\n\
                    1 2 0\n\
                    2 2 1\n";
        let g = read_matrix_market(file.as_bytes()).unwrap();
        assert_eq!(g.nedges(), 2);
        assert!(g.has_edge(0, 0));
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(1, 1));
    }

    #[test]
    fn reads_real_field() {
        let file = "%%MatrixMarket matrix coordinate real general\n3 2 2\n1 2 0.5\n3 1 -1.0\n";
        let g = read_matrix_market(file.as_bytes()).unwrap();
        assert_eq!(g.nv1(), 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 0));
    }

    #[test]
    fn rejects_missing_header() {
        assert!(read_matrix_market("1 1 1\n1 1\n".as_bytes()).is_err());
        assert!(read_matrix_market("".as_bytes()).is_err());
    }

    #[test]
    fn rejects_unsupported_field() {
        let file = "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n";
        assert!(read_matrix_market(file.as_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_range_entries() {
        let file = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n";
        assert!(read_matrix_market(file.as_bytes()).is_err());
        let file = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n";
        assert!(read_matrix_market(file.as_bytes()).is_err());
    }

    #[test]
    fn dimensions_honoured_even_with_trailing_isolated_vertices() {
        let file = "%%MatrixMarket matrix coordinate pattern general\n5 7 1\n1 1\n";
        let g = read_matrix_market(file.as_bytes()).unwrap();
        assert_eq!(g.nv1(), 5);
        assert_eq!(g.nv2(), 7);
        assert_eq!(g.nedges(), 1);
    }
}
