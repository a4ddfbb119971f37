//! Seeded input generation, independent of the program under test.
//!
//! The benchmark never calls `bfly generate`, `StandIn` or the vendored
//! `rand`: a change to any of those must not change what is measured. The
//! sampler here is a plain bipartite Chung–Lu model — endpoints drawn with
//! probability proportional to `(i + 1)^(-exponent)` on each side,
//! duplicates rejected until exactly `edges` distinct edges exist — driven
//! by a SplitMix64 stream derived from the seed and the shape.

use std::collections::HashSet;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Vertex-set sizes, edge count and degree exponent of one input graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Short stable name; part of the PRNG stream, so it must never change.
    pub name: &'static str,
    pub nv1: usize,
    pub nv2: usize,
    pub edges: usize,
    pub exponent: f64,
}

/// GitHub-shaped (the paper's largest dataset): skewed, 66.8M wedges on
/// the side `count`'s default member partitions.
pub const GITHUB: Shape = Shape {
    name: "github",
    nv1: 56_519,
    nv2: 120_867,
    edges: 440_237,
    exponent: 0.82,
};

/// Large and sparse: ~43 MB resident, far beyond a 2 MiB L2.
pub const SPARSE: Shape = Shape {
    name: "sparse",
    nv1: 400_000,
    nv2: 800_000,
    edges: 3_000_000,
    exponent: 0.5,
};

/// Occupations-shaped at 0.3 of its size: dense enough cores that wing
/// peeling runs ~1,500 rounds.
pub const OCCUPATIONS: Shape = Shape {
    name: "occupations-0.3",
    nv1: 38_273,
    nv2: 30_519,
    edges: 75_283,
    exponent: 0.89,
};

/// SplitMix64: tiny, fast, and fully specified, so the edge stream is
/// pinned by this file alone.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`), by rejection so there is no modulo bias.
    pub fn below(&mut self, n: u64) -> u64 {
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % n;
            }
        }
    }
}

/// FNV-1a over a byte string: mixes the shape name into the seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Inverse-CDF sampler over power-law weights `(i + 1)^(-exponent)`.
struct PowerLaw {
    cumulative: Vec<f64>,
}

impl PowerLaw {
    fn new(n: usize, exponent: f64) -> Self {
        let mut acc = 0.0;
        let cumulative = (0..n)
            .map(|i| {
                acc += ((i + 1) as f64).powf(-exponent);
                acc
            })
            .collect();
        PowerLaw { cumulative }
    }

    fn sample(&self, rng: &mut SplitMix64) -> u32 {
        let total = *self.cumulative.last().expect("non-empty side");
        let x = rng.next_f64() * total;
        let i = self.cumulative.partition_point(|&c| c <= x);
        i.min(self.cumulative.len() - 1) as u32
    }
}

/// The edge list of `shape` for `seed`: exactly `shape.edges` distinct
/// `(u, v)` pairs, 0-based, sorted. Same seed and shape, same list.
pub fn chung_lu(shape: &Shape, seed: u64) -> Vec<(u32, u32)> {
    assert!(
        shape.edges <= shape.nv1 * shape.nv2,
        "{} edges do not fit {}x{}",
        shape.edges,
        shape.nv1,
        shape.nv2
    );
    let mut rng = SplitMix64::new(seed ^ fnv1a(shape.name.as_bytes()));
    let s1 = PowerLaw::new(shape.nv1, shape.exponent);
    let s2 = PowerLaw::new(shape.nv2, shape.exponent);
    let mut seen: HashSet<u64> = HashSet::with_capacity(shape.edges * 2);
    let mut edges = Vec::with_capacity(shape.edges);
    // Heavy tails make the last edges collide often; past this many
    // attempts the rest are drawn uniformly so termination is certain.
    let max_attempts = shape.edges.saturating_mul(50);
    let mut attempts = 0usize;
    while edges.len() < shape.edges {
        let (u, v) = if attempts < max_attempts {
            attempts += 1;
            (s1.sample(&mut rng), s2.sample(&mut rng))
        } else {
            (
                rng.below(shape.nv1 as u64) as u32,
                rng.below(shape.nv2 as u64) as u32,
            )
        };
        if seen.insert(((u as u64) << 32) | v as u64) {
            edges.push((u, v));
        }
    }
    edges.sort_unstable();
    edges
}

/// FNV-1a over the little-endian `(u, v)` words: pins the edge stream.
pub fn edge_checksum(edges: &[(u32, u32)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(u, v) in edges {
        for b in u.to_le_bytes().into_iter().chain(v.to_le_bytes()) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Write `edges` as a KONECT `out.*` file: `% bip unweighted`, the
/// `% E V1 V2` size header, then 1-based `u v` lines.
pub fn write_konect(path: &Path, shape: &Shape, edges: &[(u32, u32)]) -> std::io::Result<()> {
    let mut w = BufWriter::with_capacity(1 << 20, std::fs::File::create(path)?);
    writeln!(w, "% bip unweighted")?;
    writeln!(w, "% {} {} {}", edges.len(), shape.nv1, shape.nv2)?;
    for &(u, v) in edges {
        writeln!(w, "{} {}", u + 1, v + 1)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Shape = Shape {
        name: "test-small",
        nv1: 50,
        nv2: 80,
        edges: 400,
        exponent: 0.8,
    };

    #[test]
    fn edge_stream_is_pinned() {
        let edges = chung_lu(&SMALL, 7);
        assert_eq!(edges.len(), 400);
        assert_eq!(edge_checksum(&edges), 0x280a_ba56_f492_4111);
    }

    #[test]
    fn shapes_are_exact_and_distinct() {
        let edges = chung_lu(&SMALL, 3);
        assert_eq!(edges.len(), SMALL.edges);
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "sorted, no duplicates"
        );
        assert!(edges
            .iter()
            .all(|&(u, v)| (u as usize) < SMALL.nv1 && (v as usize) < SMALL.nv2));
        assert_ne!(chung_lu(&SMALL, 3), chung_lu(&SMALL, 4));
    }

    #[test]
    fn saturated_shape_still_terminates() {
        let full = Shape {
            name: "test-full",
            nv1: 6,
            nv2: 5,
            edges: 30,
            exponent: 2.0,
        };
        assert_eq!(chung_lu(&full, 1).len(), 30);
    }
}
