//! Temporal edge streams.
//!
//! KONECT distributes many bipartite datasets with per-edge timestamps
//! (`u v weight timestamp` lines). This module holds such a stream in
//! time order and provides snapshot/window extraction, which together with
//! `bfly_core::IncrementalCounter` supports butterfly counting over
//! sliding windows — the streaming setting of the approximate-counting
//! literature the paper builds on.

use crate::bipartite::BipartiteGraph;

/// One timestamped edge event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalEdge {
    /// V1 endpoint.
    pub u: u32,
    /// V2 endpoint.
    pub v: u32,
    /// Event time (seconds or arbitrary ticks — only ordering matters).
    pub time: i64,
}

/// A time-ordered bipartite edge stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemporalStream {
    nv1: usize,
    nv2: usize,
    /// Events sorted by time (stable for ties).
    events: Vec<TemporalEdge>,
}

impl TemporalStream {
    /// Build from events; vertex-set sizes inferred, events sorted by time.
    pub fn new(mut events: Vec<TemporalEdge>) -> Self {
        let nv1 = events.iter().map(|e| e.u as usize + 1).max().unwrap_or(0);
        let nv2 = events.iter().map(|e| e.v as usize + 1).max().unwrap_or(0);
        events.sort_by_key(|e| e.time);
        Self { nv1, nv2, events }
    }

    /// `|V1|`.
    pub fn nv1(&self) -> usize {
        self.nv1
    }

    /// `|V2|`.
    pub fn nv2(&self) -> usize {
        self.nv2
    }

    /// All events in time order.
    pub fn events(&self) -> &[TemporalEdge] {
        &self.events
    }

    /// Time range `(min, max)` or `None` when empty.
    pub fn time_range(&self) -> Option<(i64, i64)> {
        Some((self.events.first()?.time, self.events.last()?.time))
    }

    /// The graph of all edges with `time <= t` (duplicates collapse).
    pub fn snapshot_at(&self, t: i64) -> BipartiteGraph {
        let cut = self.events.partition_point(|e| e.time <= t);
        let edges: Vec<(u32, u32)> = self.events[..cut].iter().map(|e| (e.u, e.v)).collect();
        BipartiteGraph::from_edges(self.nv1, self.nv2, &edges).expect("stream indices are in range")
    }

    /// The graph of edges with `start < time <= end` (a sliding window).
    pub fn window(&self, start: i64, end: i64) -> BipartiteGraph {
        let lo = self.events.partition_point(|e| e.time <= start);
        let hi = self.events.partition_point(|e| e.time <= end);
        let edges: Vec<(u32, u32)> = self.events[lo..hi].iter().map(|e| (e.u, e.v)).collect();
        BipartiteGraph::from_edges(self.nv1, self.nv2, &edges).expect("stream indices are in range")
    }

    /// Split the stream into `k` equal-width time slices and return the
    /// snapshot boundaries (useful for growth curves).
    pub fn slice_boundaries(&self, k: usize) -> Vec<i64> {
        assert!(k > 0);
        match self.time_range() {
            None => Vec::new(),
            Some((lo, hi)) => (1..=k)
                .map(|i| lo + ((hi - lo) as i128 * i as i128 / k as i128) as i64)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> TemporalStream {
        TemporalStream::new(vec![
            TemporalEdge {
                u: 0,
                v: 0,
                time: 10,
            },
            TemporalEdge {
                u: 0,
                v: 1,
                time: 20,
            },
            TemporalEdge {
                u: 1,
                v: 0,
                time: 30,
            },
            TemporalEdge {
                u: 1,
                v: 1,
                time: 40,
            },
        ])
    }

    #[test]
    fn snapshots_grow_monotonically() {
        let s = stream();
        assert_eq!(s.snapshot_at(5).nedges(), 0);
        assert_eq!(s.snapshot_at(10).nedges(), 1);
        assert_eq!(s.snapshot_at(35).nedges(), 3);
        assert_eq!(s.snapshot_at(100).nedges(), 4);
        assert_eq!(s.time_range(), Some((10, 40)));
    }

    #[test]
    fn windows_are_half_open() {
        let s = stream();
        let w = s.window(10, 30); // strictly after 10, up to 30
        assert_eq!(w.nedges(), 2);
        assert!(w.has_edge(0, 1));
        assert!(w.has_edge(1, 0));
        assert!(!w.has_edge(0, 0));
    }

    #[test]
    fn events_sorted_even_if_input_unordered() {
        let s = TemporalStream::new(vec![
            TemporalEdge {
                u: 0,
                v: 0,
                time: 50,
            },
            TemporalEdge {
                u: 1,
                v: 1,
                time: 5,
            },
        ]);
        assert_eq!(s.events()[0].time, 5);
        assert_eq!(s.nv1(), 2);
        assert_eq!(s.nv2(), 2);
    }

    #[test]
    fn slice_boundaries_cover_range() {
        let s = stream();
        let b = s.slice_boundaries(3);
        assert_eq!(b.len(), 3);
        assert_eq!(*b.last().unwrap(), 40);
        assert!(b.windows(2).all(|w| w[0] <= w[1]));
        assert!(TemporalStream::new(vec![]).slice_boundaries(3).is_empty());
    }
}
