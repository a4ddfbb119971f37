//! # bfly-graph
//!
//! Bipartite-graph layer of the butterfly-counting workspace: the
//! [`BipartiteGraph`] type (which keeps *both* orientations of the
//! biadjacency matrix, matching the paper's CSC-for-invariants-1–4 /
//! CSR-for-invariants-5–8 storage scheme), KONECT-style I/O, random-graph
//! generators, calibrated stand-ins for the paper's five evaluation
//! datasets, degree orderings, and structural statistics.
//!
//! ```
//! use bfly_graph::BipartiteGraph;
//!
//! let g = BipartiteGraph::from_edges(2, 3, &[(0, 0), (0, 1), (1, 1), (1, 2)])?;
//! assert_eq!(g.nedges(), 4);
//! assert_eq!(g.neighbors_v1(1), &[1, 2]);
//! assert_eq!(g.neighbors_v2(1), &[0, 1]);
//! // Both orientations of the biadjacency are kept coherent:
//! assert_eq!(g.biadjacency().transpose(), *g.biadjacency_t());
//! # Ok::<(), bfly_sparse::SparseError>(())
//! ```

#![warn(missing_docs)]
// Vertex ids index several parallel arrays at once throughout this
// workspace; the indexed loops clippy flags are the clearer form here.
#![allow(clippy::needless_range_loop)]

pub mod bfly_format;
pub mod bipartite;
pub mod components;
pub mod cores;
pub mod generators;
pub mod io;
pub mod konect;
pub mod matrix_market;
pub mod ordering;
pub mod retry;
pub mod rewire;
pub mod stats;

pub use bfly_format::{
    convert_to_bfly, fnv1a, is_bfly_file, persist_atomically, read_bfly, read_bfly_file,
    write_bfly, write_bfly_file, ConvertStats, GraphSegment, RowReader, SegmentedGraph,
};
pub use bipartite::{BipartiteGraph, Side};
pub use components::{component_subgraph, connected_components, Components};
pub use cores::{butterfly_core, kl_core, CoreResult};
pub use io::TextFormat;
pub use konect::{DatasetSpec, StandIn};
pub use retry::{is_transient_io_error, with_retries, RetryPolicy, RetryStats};
pub use rewire::double_edge_swaps;
pub use stats::GraphStats;
