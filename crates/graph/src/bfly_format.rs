//! Compact on-disk graph format (`.bfly`): delta-varint CSR with a
//! checked, versioned header.
//!
//! The format stores both orientations of the biadjacency matrix so a
//! reader can serve either side's neighbour lists without transposing:
//!
//! ```text
//! offset  len            section
//! 0       8              magic  "BFLYCSR\0"
//! 8       4              endianness tag 0x0A0B0C0D (little-endian on disk)
//! 12      2              format version (currently 1)
//! 14      2              flags (must be 0 in version 1)
//! 16      8              |V1|
//! 24      8              |V2|
//! 32      8              |E| (deduplicated)
//! 40      8              FNV-1a 64 checksum of the V1 degree array
//! 48      8              FNV-1a 64 checksum of the V2 degree array
//! 56      6 × 8          absolute section offsets: deg_v1, deg_v2,
//!                        index_v1, index_v2, payload_v1, payload_v2
//! 104     8              total file length (truncation check)
//! 112     |V1| × u32     V1 degree array
//! ...     |V2| × u32     V2 degree array
//! ...     (|V1|+1) × u64 V1 row index: absolute byte offset of each row's
//!                        varint run (monotone; entry 0 = payload_v1 offset)
//! ...     (|V2|+1) × u64 V2 row index
//! ...     bytes          V1 payloads: per row, the first neighbour as a
//!                        LEB128 varint, then successive deltas (≥ 1) of
//!                        the strictly sorted neighbour list
//! ...     bytes          V2 payloads
//! ```
//!
//! All multi-byte integers are little-endian. Every section lives at a
//! fixed offset recorded in the header, so a reader may `mmap` the file
//! and address sections directly; the [`SegmentedGraph`] reader here uses
//! positioned reads (`read_at`) for the same effect without a platform
//! mmap dependency. Degrees and row indexes are O(|V|) and stay resident;
//! payloads are decoded on demand per vertex range.
//!
//! The streaming converter ([`convert_to_bfly`]) goes from a KONECT /
//! edge-list / MatrixMarket text file to `.bfly` without ever holding the
//! edge list in memory: pass A streams edges, through the parser every
//! text loader in [`crate::io`] collects from, to a fixed-width spill file
//! while counting degrees, then each side is gathered in vertex-range
//! windows sized to a bounded buffer (classic out-of-core bucketing with
//! sequential I/O only). Duplicate edges collapse during the per-vertex
//! sort, matching [`BipartiteGraph::from_edges`] semantics exactly.

use crate::bipartite::{BipartiteGraph, Side};
use crate::io::{stream_edges, IoError, TextFormat};
use crate::retry::{with_retries, RetryPolicy, RetryStats};
use bfly_sparse::Pattern;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Magic bytes at offset 0 of every `.bfly` file.
pub const BFLY_MAGIC: [u8; 8] = *b"BFLYCSR\0";
/// Endianness tag stored little-endian; reads back differently on a
/// byte-order mismatch.
pub const BFLY_ENDIAN_TAG: u32 = 0x0A0B_0C0D;
/// Current format version.
pub const BFLY_VERSION: u16 = 1;
/// Fixed header length in bytes.
pub const BFLY_HEADER_LEN: u64 = 112;

/// Default in-memory edge buffer for the streaming converter (entries,
/// not bytes; one entry is a `u32` neighbour slot). 4M entries ≈ 16 MiB.
pub const CONVERT_BUFFER_EDGES: usize = 1 << 22;

fn format_err(msg: impl Into<String>) -> IoError {
    IoError::Format(msg.into())
}

// ---------------------------------------------------------------------------
// varint codec
// ---------------------------------------------------------------------------

#[inline]
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decode one LEB128 varint from `bytes` starting at `*pos`, advancing
/// `*pos`. Rejects runs past the slice and shift overflow.
#[inline]
fn take_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, IoError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(format_err("varint run past end of row payload"));
        };
        *pos += 1;
        if shift >= 64 || (shift == 63 && b > 1) {
            return Err(format_err("varint overflows u64"));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Encode one strictly-sorted neighbour row as delta varints.
fn encode_row(buf: &mut Vec<u8>, row: &[u32]) {
    let mut prev = 0u64;
    for (i, &v) in row.iter().enumerate() {
        let v = u64::from(v);
        if i == 0 {
            put_varint(buf, v);
        } else {
            put_varint(buf, v - prev);
        }
        prev = v;
    }
}

/// Decode one row of `deg` neighbours from `bytes` (which must be exactly
/// the row's varint run), appending them to `out`. Validates strict
/// monotonicity, column bounds, and that the run is fully consumed.
fn decode_row(bytes: &[u8], deg: usize, ncols: usize, out: &mut Vec<u32>) -> Result<(), IoError> {
    let mut pos = 0usize;
    let mut prev: u64 = 0;
    for i in 0..deg {
        let raw = take_varint(bytes, &mut pos)?;
        let v = if i == 0 {
            raw
        } else {
            if raw == 0 {
                return Err(format_err(
                    "zero delta in neighbour row (not strictly sorted)",
                ));
            }
            prev.checked_add(raw)
                .ok_or_else(|| format_err("neighbour delta overflows u64"))?
        };
        if v >= ncols as u64 {
            return Err(format_err(format!(
                "neighbour {v} out of bounds for {ncols} columns"
            )));
        }
        out.push(v as u32);
        prev = v;
    }
    if pos != bytes.len() {
        return Err(format_err(format!(
            "row payload has {} trailing bytes after {} neighbours",
            bytes.len() - pos,
            deg
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// header
// ---------------------------------------------------------------------------

/// FNV-1a 64 over a byte stream: the `.bfly` header's degree-array
/// checksum, and the checkpoint records' payload checksum.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes
        .into_iter()
        .fold(BASIS, |h, b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// FNV-1a 64 over the little-endian bytes of a degree array.
fn fnv1a_degrees(degrees: &[u32]) -> u64 {
    fnv1a(degrees.iter().flat_map(|d| d.to_le_bytes()))
}

/// Parsed `.bfly` header with its derived section offsets.
#[derive(Debug, Clone, Copy)]
struct Header {
    nv1: u64,
    nv2: u64,
    nedges: u64,
    fnv_v1: u64,
    fnv_v2: u64,
    off_deg_v1: u64,
    off_deg_v2: u64,
    off_idx_v1: u64,
    off_idx_v2: u64,
    off_pay_v1: u64,
    off_pay_v2: u64,
    file_len: u64,
}

impl Header {
    /// The fixed section layout implied by the side sizes. Payload
    /// offsets depend on the encoded sizes and are supplied by the caller.
    fn layout(nv1: u64, nv2: u64) -> (u64, u64, u64, u64, u64) {
        let off_deg_v1 = BFLY_HEADER_LEN;
        let off_deg_v2 = off_deg_v1 + 4 * nv1;
        let off_idx_v1 = off_deg_v2 + 4 * nv2;
        let off_idx_v2 = off_idx_v1 + 8 * (nv1 + 1);
        let off_pay_v1 = off_idx_v2 + 8 * (nv2 + 1);
        (off_deg_v1, off_deg_v2, off_idx_v1, off_idx_v2, off_pay_v1)
    }

    fn new(
        nv1: u64,
        nv2: u64,
        nedges: u64,
        fnv_v1: u64,
        fnv_v2: u64,
        pay1: u64,
        pay2: u64,
    ) -> Self {
        let (off_deg_v1, off_deg_v2, off_idx_v1, off_idx_v2, off_pay_v1) = Self::layout(nv1, nv2);
        let off_pay_v2 = off_pay_v1 + pay1;
        Header {
            nv1,
            nv2,
            nedges,
            fnv_v1,
            fnv_v2,
            off_deg_v1,
            off_deg_v2,
            off_idx_v1,
            off_idx_v2,
            off_pay_v1,
            off_pay_v2,
            file_len: off_pay_v2 + pay2,
        }
    }

    fn to_bytes(self) -> [u8; BFLY_HEADER_LEN as usize] {
        let mut b = [0u8; BFLY_HEADER_LEN as usize];
        b[0..8].copy_from_slice(&BFLY_MAGIC);
        b[8..12].copy_from_slice(&BFLY_ENDIAN_TAG.to_le_bytes());
        b[12..14].copy_from_slice(&BFLY_VERSION.to_le_bytes());
        b[14..16].copy_from_slice(&0u16.to_le_bytes());
        for (i, v) in [
            self.nv1,
            self.nv2,
            self.nedges,
            self.fnv_v1,
            self.fnv_v2,
            self.off_deg_v1,
            self.off_deg_v2,
            self.off_idx_v1,
            self.off_idx_v2,
            self.off_pay_v1,
            self.off_pay_v2,
            self.file_len,
        ]
        .into_iter()
        .enumerate()
        {
            b[16 + 8 * i..24 + 8 * i].copy_from_slice(&v.to_le_bytes());
        }
        b
    }

    fn parse(b: &[u8; BFLY_HEADER_LEN as usize]) -> Result<Self, IoError> {
        let u64_at = |off: usize| u64::from_le_bytes(b[off..off + 8].try_into().unwrap());
        if b[0..8] != BFLY_MAGIC {
            return Err(format_err("bad magic (not a .bfly file)"));
        }
        let endian = u32::from_le_bytes(b[8..12].try_into().unwrap());
        if endian != BFLY_ENDIAN_TAG {
            return Err(format_err(format!(
                "endianness tag {endian:#010x} does not match {BFLY_ENDIAN_TAG:#010x}"
            )));
        }
        let version = u16::from_le_bytes(b[12..14].try_into().unwrap());
        if version != BFLY_VERSION {
            return Err(format_err(format!(
                "unsupported format version {version} (reader supports {BFLY_VERSION})"
            )));
        }
        let flags = u16::from_le_bytes(b[14..16].try_into().unwrap());
        if flags != 0 {
            return Err(format_err(format!("unknown flags {flags:#06x}")));
        }
        let h = Header {
            nv1: u64_at(16),
            nv2: u64_at(24),
            nedges: u64_at(32),
            fnv_v1: u64_at(40),
            fnv_v2: u64_at(48),
            off_deg_v1: u64_at(56),
            off_deg_v2: u64_at(64),
            off_idx_v1: u64_at(72),
            off_idx_v2: u64_at(80),
            off_pay_v1: u64_at(88),
            off_pay_v2: u64_at(96),
            file_len: u64_at(104),
        };
        if h.nv1 > u32::MAX as u64 || h.nv2 > u32::MAX as u64 {
            return Err(format_err(format!(
                "side sizes {}x{} exceed u32 vertex indices",
                h.nv1, h.nv2
            )));
        }
        if h.nedges > h.nv1.saturating_mul(h.nv2) {
            return Err(format_err(format!(
                "{} edges exceed the {}x{} biadjacency capacity",
                h.nedges, h.nv1, h.nv2
            )));
        }
        let (d1, d2, i1, i2, p1) = Self::layout(h.nv1, h.nv2);
        if (
            h.off_deg_v1,
            h.off_deg_v2,
            h.off_idx_v1,
            h.off_idx_v2,
            h.off_pay_v1,
        ) != (d1, d2, i1, i2, p1)
        {
            return Err(format_err("section offsets do not match the fixed layout"));
        }
        if h.off_pay_v2 < h.off_pay_v1 || h.file_len < h.off_pay_v2 {
            return Err(format_err("payload offsets are not monotone"));
        }
        Ok(h)
    }
}

// ---------------------------------------------------------------------------
// sequential reader helpers (shared by the Read-based loader and open())
// ---------------------------------------------------------------------------

fn read_degrees<R: Read>(
    r: &mut R,
    n: usize,
    expect_fnv: u64,
    side: &str,
) -> Result<Vec<u32>, IoError> {
    let mut deg = vec![0u32; n];
    let mut chunk = [0u8; 4 * 1024];
    let mut filled = 0usize;
    while filled < n {
        let take = (n - filled).min(chunk.len() / 4);
        r.read_exact(&mut chunk[..4 * take])?;
        for (i, w) in chunk[..4 * take].chunks_exact(4).enumerate() {
            deg[filled + i] = u32::from_le_bytes(w.try_into().unwrap());
        }
        filled += take;
    }
    let got = fnv1a_degrees(&deg);
    if got != expect_fnv {
        return Err(format_err(format!(
            "{side} degree checksum mismatch (file {expect_fnv:#018x}, computed {got:#018x})"
        )));
    }
    Ok(deg)
}

fn read_index<R: Read>(
    r: &mut R,
    n: usize,
    start: u64,
    end: u64,
    side: &str,
) -> Result<Vec<u64>, IoError> {
    let mut idx = vec![0u64; n + 1];
    let mut chunk = [0u8; 8 * 1024];
    let mut filled = 0usize;
    while filled < n + 1 {
        let take = (n + 1 - filled).min(chunk.len() / 8);
        r.read_exact(&mut chunk[..8 * take])?;
        for (i, w) in chunk[..8 * take].chunks_exact(8).enumerate() {
            idx[filled + i] = u64::from_le_bytes(w.try_into().unwrap());
        }
        filled += take;
    }
    if idx[0] != start || idx[n] != end {
        return Err(format_err(format!(
            "{side} row index endpoints [{}, {}] do not match the payload section [{start}, {end}]",
            idx[0], idx[n]
        )));
    }
    if idx.windows(2).any(|w| w[0] > w[1]) {
        return Err(format_err(format!("{side} row index is not monotone")));
    }
    Ok(idx)
}

/// Decode a contiguous run of rows from `payload` (the byte range
/// `idx[lo]..idx[hi]`) into CSR `ptr`/`cols`, validating each row.
#[allow(clippy::too_many_arguments)]
fn decode_rows(
    payload: &[u8],
    idx: &[u64],
    deg: &[u32],
    lo: usize,
    hi: usize,
    ncols: usize,
    ptr: &mut Vec<usize>,
    cols: &mut Vec<u32>,
) -> Result<(), IoError> {
    let base = idx[lo];
    ptr.clear();
    ptr.push(0);
    cols.clear();
    for u in lo..hi {
        let s = (idx[u] - base) as usize;
        let e = (idx[u + 1] - base) as usize;
        decode_row(&payload[s..e], deg[u] as usize, ncols, cols)
            .map_err(|err| format_err(format!("row {u}: {err}")))?;
        ptr.push(cols.len());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// writer
// ---------------------------------------------------------------------------

fn encode_side(pat: &Pattern) -> (Vec<u8>, Vec<u64>) {
    let n = pat.nrows();
    let mut payload = Vec::new();
    let mut rel = Vec::with_capacity(n + 1);
    rel.push(0u64);
    for r in 0..n {
        encode_row(&mut payload, pat.row(r));
        rel.push(payload.len() as u64);
    }
    (payload, rel)
}

/// Write the sections every `.bfly` file opens with: the header, both
/// degree arrays and both row indexes, ready for the V1 and V2 payloads the
/// caller writes next. `rel1`/`rel2` are each side's payload-relative row
/// offsets, ending at its payload length.
fn write_sections<W: Write>(
    w: &mut W,
    deg1: &[u32],
    deg2: &[u32],
    rel1: &[u64],
    rel2: &[u64],
) -> Result<Header, IoError> {
    let header = Header::new(
        deg1.len() as u64,
        deg2.len() as u64,
        deg1.iter().map(|&d| u64::from(d)).sum(),
        fnv1a_degrees(deg1),
        fnv1a_degrees(deg2),
        *rel1.last().expect("row offsets start at 0"),
        *rel2.last().expect("row offsets start at 0"),
    );
    w.write_all(&header.to_bytes())?;
    for &d in deg1.iter().chain(deg2) {
        w.write_all(&d.to_le_bytes())?;
    }
    for &o in rel1 {
        w.write_all(&(header.off_pay_v1 + o).to_le_bytes())?;
    }
    for &o in rel2 {
        w.write_all(&(header.off_pay_v2 + o).to_le_bytes())?;
    }
    Ok(header)
}

/// Crash-safe file write, behind every `.bfly` file and checkpoint
/// record: `write` fills `<path>.tmp`, which is flushed, fsynced and only
/// then renamed over `path`. On unix the parent directory (`.` for a bare
/// file name) is fsynced after the rename, so the rename itself survives
/// a power loss. The temp file is removed when a step fails.
pub fn persist_atomically<T>(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<T, IoError>,
) -> Result<T, IoError> {
    let tmp = PathBuf::from(format!("{}.tmp", path.display()));
    let result = (|| {
        let mut w = BufWriter::new(File::create(&tmp)?);
        let written = write(&mut w)?;
        w.flush()?;
        let f = w.into_inner().map_err(|e| IoError::from(e.into_error()))?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        #[cfg(unix)]
        {
            let dir = match path.parent() {
                Some(p) if !p.as_os_str().is_empty() => p,
                _ => Path::new("."),
            };
            File::open(dir)?.sync_all()?;
        }
        Ok(written)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Serialize a graph to the `.bfly` format. Returns the byte length.
pub fn write_bfly<W: Write>(g: &BipartiteGraph, w: &mut W) -> Result<u64, IoError> {
    let (pay1, rel1) = encode_side(g.biadjacency());
    let (pay2, rel2) = encode_side(g.biadjacency_t());
    let deg1: Vec<u32> = (0..g.nv1()).map(|u| g.deg_v1(u) as u32).collect();
    let deg2: Vec<u32> = (0..g.nv2()).map(|v| g.deg_v2(v) as u32).collect();
    let header = write_sections(w, &deg1, &deg2, &rel1, &rel2)?;
    w.write_all(&pay1)?;
    w.write_all(&pay2)?;
    Ok(header.file_len)
}

/// Serialize a graph to a `.bfly` file on disk. Returns the byte length.
///
/// Crash-safe: bytes go to `<path>.tmp`, are fsynced, and only then
/// renamed over `path`, so a reader never observes a torn file — either
/// the old content or the complete new one.
pub fn write_bfly_file(g: &BipartiteGraph, path: impl AsRef<Path>) -> Result<u64, IoError> {
    persist_atomically(path.as_ref(), |w| write_bfly(g, w))
}

// ---------------------------------------------------------------------------
// sequential full loader (any `Read` source — fault-injection testable)
// ---------------------------------------------------------------------------

/// Load a full graph from any sequential `.bfly` byte stream.
///
/// Every corruption mode is a typed [`IoError`], never a panic: a short
/// stream is [`IoError::Io`] (unexpected EOF), and header, checksum,
/// index, or varint violations are [`IoError::Format`]. Both payload
/// sides are decoded and cross-checked (the V2 side must equal the V1
/// transpose), so a payload flip cannot smuggle in an inconsistent graph.
pub fn read_bfly<R: Read>(mut r: R) -> Result<BipartiteGraph, IoError> {
    let mut hbuf = [0u8; BFLY_HEADER_LEN as usize];
    r.read_exact(&mut hbuf)?;
    let h = Header::parse(&hbuf)?;
    let (nv1, nv2) = (h.nv1 as usize, h.nv2 as usize);
    let deg1 = read_degrees(&mut r, nv1, h.fnv_v1, "v1")?;
    let deg2 = read_degrees(&mut r, nv2, h.fnv_v2, "v2")?;
    let sum1: u64 = deg1.iter().map(|&d| u64::from(d)).sum();
    let sum2: u64 = deg2.iter().map(|&d| u64::from(d)).sum();
    if sum1 != h.nedges || sum2 != h.nedges {
        return Err(format_err(format!(
            "degree sums {sum1}/{sum2} do not match the declared {} edges",
            h.nedges
        )));
    }
    let idx1 = read_index(&mut r, nv1, h.off_pay_v1, h.off_pay_v2, "v1")?;
    let idx2 = read_index(&mut r, nv2, h.off_pay_v2, h.file_len, "v2")?;
    let mut pay1 = vec![0u8; (h.off_pay_v2 - h.off_pay_v1) as usize];
    r.read_exact(&mut pay1)?;
    let mut pay2 = vec![0u8; (h.file_len - h.off_pay_v2) as usize];
    r.read_exact(&mut pay2)?;

    let (mut ptr1, mut cols1) = (Vec::new(), Vec::new());
    decode_rows(&pay1, &idx1, &deg1, 0, nv1, nv2, &mut ptr1, &mut cols1)?;
    let a = Pattern::from_raw_parts(nv1, nv2, ptr1, cols1)
        .map_err(|e| format_err(format!("v1 payload is not a valid CSR: {e}")))?;
    let (mut ptr2, mut cols2) = (Vec::new(), Vec::new());
    decode_rows(&pay2, &idx2, &deg2, 0, nv2, nv1, &mut ptr2, &mut cols2)?;
    let at = Pattern::from_raw_parts(nv2, nv1, ptr2, cols2)
        .map_err(|e| format_err(format!("v2 payload is not a valid CSR: {e}")))?;
    if at != a.transpose() {
        return Err(format_err(
            "v2 payload is not the transpose of the v1 payload",
        ));
    }
    Ok(BipartiteGraph::from_biadjacency(a))
}

/// Load a full graph from a `.bfly` file.
pub fn read_bfly_file(path: impl AsRef<Path>) -> Result<BipartiteGraph, IoError> {
    read_bfly(BufReader::new(File::open(path)?))
}

/// Cheap sniff: does `path` start with the `.bfly` magic bytes?
pub fn is_bfly_file(path: impl AsRef<Path>) -> bool {
    let Ok(mut f) = File::open(path) else {
        return false;
    };
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic).is_ok() && magic == BFLY_MAGIC
}

// ---------------------------------------------------------------------------
// SegmentedGraph: O(|V|)-resident reader with on-demand payload decode
// ---------------------------------------------------------------------------

/// A `.bfly` file opened for vertex-range access.
///
/// Keeps the degree arrays and row indexes resident (O(|V|)) and decodes
/// neighbour payloads on demand via positioned reads, so the edge data
/// never has to fit in memory. Mirrors the [`BipartiteGraph`] metadata
/// API (`nv1`/`nv2`/`nedges`/`deg_v1`/`deg_v2`); adjacency comes from
/// [`SegmentedGraph::segment`] (a materialized vertex range) or
/// [`SegmentedGraph::row_reader`] (single rows, the heaviest pinned).
#[derive(Debug)]
pub struct SegmentedGraph {
    file: File,
    path: PathBuf,
    nedges: u64,
    deg_v1: Vec<u32>,
    deg_v2: Vec<u32>,
    idx_v1: Vec<u64>,
    idx_v2: Vec<u64>,
    retry_stats: Arc<RetryStats>,
    reads: AtomicU64,
    faults: FaultPlan,
}

/// Deterministic fault schedule for positioned reads, armed from the
/// `BFLY_FAULT_READ_*` environment at [`SegmentedGraph::open`] time.
/// Inert (two branch checks per read) when no variable is set.
#[derive(Debug, Default)]
struct FaultPlan {
    /// `BFLY_FAULT_READ_ERROR_AT=N`: the Nth positioned read (1-based)
    /// fails hard with a permanent (non-retryable) error.
    error_at_read: Option<u64>,
    /// `BFLY_FAULT_READ_TRANSIENT=N`: the first N read attempts fail
    /// with `Interrupted`, then reads succeed — exercises the retry
    /// path end to end in a real binary.
    transient: AtomicU64,
}

impl FaultPlan {
    fn from_env() -> Self {
        let env_u64 = |name: &str| -> Option<u64> {
            std::env::var(name).ok().and_then(|v| v.trim().parse().ok())
        };
        FaultPlan {
            error_at_read: env_u64("BFLY_FAULT_READ_ERROR_AT"),
            transient: AtomicU64::new(env_u64("BFLY_FAULT_READ_TRANSIENT").unwrap_or(0)),
        }
    }

    /// Raise the scheduled fault for read number `seq`, if any.
    fn check(&self, seq: u64) -> std::io::Result<()> {
        if self.error_at_read == Some(seq) {
            return Err(std::io::Error::other(format!(
                "injected hard fault at positioned read {seq} (BFLY_FAULT_READ_ERROR_AT)"
            )));
        }
        loop {
            let left = self.transient.load(Ordering::Relaxed);
            if left == 0 {
                return Ok(());
            }
            if self
                .transient
                .compare_exchange(left, left - 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "injected transient fault (BFLY_FAULT_READ_TRANSIENT)",
                ));
            }
        }
    }
}

impl SegmentedGraph {
    /// Open and validate a `.bfly` file, loading only the O(|V|) degree
    /// and index sections.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, IoError> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let actual_len = file.metadata()?.len();
        let mut r = BufReader::new(&file);
        let mut hbuf = [0u8; BFLY_HEADER_LEN as usize];
        r.read_exact(&mut hbuf)?;
        let h = Header::parse(&hbuf)?;
        if h.file_len != actual_len {
            return Err(format_err(format!(
                "file is {actual_len} bytes but the header declares {} (truncated or padded)",
                h.file_len
            )));
        }
        let (nv1, nv2) = (h.nv1 as usize, h.nv2 as usize);
        let deg_v1 = read_degrees(&mut r, nv1, h.fnv_v1, "v1")?;
        let deg_v2 = read_degrees(&mut r, nv2, h.fnv_v2, "v2")?;
        let sum1: u64 = deg_v1.iter().map(|&d| u64::from(d)).sum();
        let sum2: u64 = deg_v2.iter().map(|&d| u64::from(d)).sum();
        if sum1 != h.nedges || sum2 != h.nedges {
            return Err(format_err(format!(
                "degree sums {sum1}/{sum2} do not match the declared {} edges",
                h.nedges
            )));
        }
        let idx_v1 = read_index(&mut r, nv1, h.off_pay_v1, h.off_pay_v2, "v1")?;
        let idx_v2 = read_index(&mut r, nv2, h.off_pay_v2, h.file_len, "v2")?;
        drop(r);
        Ok(SegmentedGraph {
            file,
            path,
            nedges: h.nedges,
            deg_v1,
            deg_v2,
            idx_v1,
            idx_v2,
            retry_stats: Arc::new(RetryStats::new()),
            reads: AtomicU64::new(0),
            faults: FaultPlan::from_env(),
        })
    }

    /// Snapshot of `(retried attempts, give-ups)` accumulated by
    /// positioned reads since open. The engine raises the `io_retries` /
    /// `io_giveups` telemetry counters from before/after deltas of this.
    pub fn retry_stats(&self) -> (u64, u64) {
        (self.retry_stats.retries(), self.retry_stats.giveups())
    }

    /// Path this graph was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `|V1|`.
    #[inline]
    pub fn nv1(&self) -> usize {
        self.deg_v1.len()
    }

    /// `|V2|`.
    #[inline]
    pub fn nv2(&self) -> usize {
        self.deg_v2.len()
    }

    /// `|E|` (deduplicated).
    #[inline]
    pub fn nedges(&self) -> u64 {
        self.nedges
    }

    /// Degree of `u ∈ V1`.
    #[inline]
    pub fn deg_v1(&self, u: usize) -> usize {
        self.deg_v1[u] as usize
    }

    /// Degree of `v ∈ V2`.
    #[inline]
    pub fn deg_v2(&self, v: usize) -> usize {
        self.deg_v2[v] as usize
    }

    /// The full degree array of one side.
    #[inline]
    pub fn degrees(&self, side: Side) -> &[u32] {
        match side {
            Side::V1 => &self.deg_v1,
            Side::V2 => &self.deg_v2,
        }
    }

    /// FNV-1a 64 checksum of one side's degree array — the exact value
    /// the `.bfly` header stores for that side. Checkpoint fingerprints
    /// reuse it to tie a resumable run to this specific graph.
    pub fn degree_checksum(&self, side: Side) -> u64 {
        fnv1a_degrees(self.degrees(side))
    }

    /// Number of vertices on `side`.
    #[inline]
    pub fn side_len(&self, side: Side) -> usize {
        self.degrees(side).len()
    }

    /// Encoded payload bytes for rows `lo..hi` of `side` — what a
    /// [`SegmentedGraph::segment`] call would read from disk.
    pub fn payload_bytes(&self, side: Side, lo: usize, hi: usize) -> u64 {
        let idx = self.index(side);
        idx[hi] - idx[lo]
    }

    /// Estimated heap size of the fully materialized [`BipartiteGraph`]
    /// (both CSR orientations): what an in-memory plan must keep resident.
    pub fn resident_bytes(&self) -> u64 {
        let verts = (self.nv1() + self.nv2() + 2) as u64;
        2 * (4 * self.nedges + 8 * verts)
    }

    #[inline]
    fn index(&self, side: Side) -> &[u64] {
        match side {
            Side::V1 => &self.idx_v1,
            Side::V2 => &self.idx_v2,
        }
    }

    /// Positioned read with fault injection and bounded transient-error
    /// retries. Every payload access (`segment`, `row_reader`,
    /// `for_each_row`) funnels through here, so the retry policy
    /// and the `BFLY_FAULT_READ_*` chaos hooks cover them all.
    fn read_at(&self, off: u64, buf: &mut [u8]) -> Result<(), IoError> {
        let seq = self.reads.fetch_add(1, Ordering::Relaxed) + 1;
        with_retries(&RetryPolicy::default(), &self.retry_stats, || {
            self.faults.check(seq)?;
            self.raw_read_at(off, buf)
        })
        .map_err(IoError::from)
    }

    fn raw_read_at(&self, off: u64, buf: &mut [u8]) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, off)?;
        }
        #[cfg(not(unix))]
        {
            use std::io::{Seek, SeekFrom};
            let mut f = &self.file;
            f.seek(SeekFrom::Start(off))?;
            f.read_exact(buf)?;
        }
        Ok(())
    }

    /// Materialize the vertex range `lo..hi` of `side` as a CSR segment
    /// with one positioned read.
    pub fn segment(&self, side: Side, lo: usize, hi: usize) -> Result<GraphSegment, IoError> {
        let n = self.side_len(side);
        assert!(lo <= hi && hi <= n, "segment {lo}..{hi} out of 0..{n}");
        let idx = self.index(side);
        let deg = self.degrees(side);
        let mut payload = vec![0u8; (idx[hi] - idx[lo]) as usize];
        self.read_at(idx[lo], &mut payload)?;
        let (ncols, nv1, nv2) = match side {
            Side::V1 => (self.nv2(), self.nv1(), self.nv2()),
            Side::V2 => (self.nv1(), self.nv1(), self.nv2()),
        };
        // Exact reservations: the degree array prices the decode up
        // front, so `cols` never reallocates — growth-doubling transients
        // would otherwise spike measured memory ~1.5× the segment size,
        // which matters under tight out-of-core byte budgets.
        let nnz: usize = deg[lo..hi].iter().map(|&d| d as usize).sum();
        let (mut ptr, mut cols) = (Vec::with_capacity(hi - lo + 1), Vec::with_capacity(nnz));
        decode_rows(&payload, idx, deg, lo, hi, ncols, &mut ptr, &mut cols)?;
        Ok(GraphSegment {
            side,
            lo,
            hi,
            nv1,
            nv2,
            ptr,
            cols,
        })
    }

    /// A single-row decoder for `side` that pins the heaviest rows.
    ///
    /// Streaming a row costs one positioned read and a decode of all its
    /// entries, so a row of degree `d` looked up by each of its `d`
    /// neighbours decodes `d²` entries in total. The reader therefore
    /// decodes the highest-degree rows of `side` once, up front, into one
    /// CSR slab of at most `pin_bytes` ([`RowReader::pin_cost`] per row),
    /// and serves them from memory. Rows of degree < 2 are never pinned,
    /// and a row that alone exceeds `pin_bytes` is skipped. Every other
    /// row is read and decoded on demand. `pin_bytes = 0` pins nothing.
    ///
    /// Pinned rows are read one at a time through the same positioned
    /// read and decoder as streamed rows, so retries, fault injection and
    /// every format check apply; a failure surfaces here.
    pub fn row_reader(&self, side: Side, pin_bytes: u64) -> Result<RowReader<'_>, IoError> {
        let mut reader = RowReader {
            graph: self,
            side,
            bytes: Vec::new(),
            vals: Vec::new(),
            last: usize::MAX,
            pin: PinnedRows::default(),
        };
        reader.pin(pin_bytes)?;
        Ok(reader)
    }

    /// Read row `u` of `side` and append its decoded neighbours to `out`,
    /// with `bytes` as the payload buffer.
    fn read_row(
        &self,
        side: Side,
        u: usize,
        bytes: &mut Vec<u8>,
        out: &mut Vec<u32>,
    ) -> Result<(), IoError> {
        let idx = self.index(side);
        let deg = self.degrees(side)[u] as usize;
        let ncols = match side {
            Side::V1 => self.nv2(),
            Side::V2 => self.nv1(),
        };
        bytes.resize((idx[u + 1] - idx[u]) as usize, 0);
        self.read_at(idx[u], bytes)?;
        decode_row(bytes, deg, ncols, out).map_err(|err| format_err(format!("row {u}: {err}")))
    }

    /// Stream rows `lo..hi` of `side` in order with bounded memory,
    /// reading the payload in windows of at most `window_bytes`.
    pub fn for_each_row(
        &self,
        side: Side,
        lo: usize,
        hi: usize,
        window_bytes: u64,
        mut f: impl FnMut(usize, &[u32]) -> Result<(), IoError>,
    ) -> Result<(), IoError> {
        let idx = self.index(side);
        let deg = self.degrees(side);
        let mut start = lo;
        while start < hi {
            // Grow the window while both the *encoded* payload and the
            // *decoded* column array stay within `window_bytes` — varints
            // can be denser than 4 bytes/edge, so bounding only the
            // encoded side would let the decoded segment balloon past
            // the caller's memory window.
            let mut end = start + 1;
            let mut nnz = deg[start] as u64;
            while end < hi {
                let next = nnz + deg[end] as u64;
                if idx[end + 1] - idx[start] > window_bytes || 4 * next > window_bytes {
                    break;
                }
                nnz = next;
                end += 1;
            }
            let seg = self.segment(side, start, end)?;
            for u in start..end {
                f(u, seg.neighbors(u))?;
            }
            start = end;
        }
        Ok(())
    }
}

/// Serves single rows of one side: pinned rows from a slab decoded once
/// by [`SegmentedGraph::row_reader`], all others decoded on demand into
/// a reusable buffer with a most-recent-row memo (consecutive lookups of
/// the same row are free).
#[derive(Debug)]
pub struct RowReader<'g> {
    graph: &'g SegmentedGraph,
    side: Side,
    bytes: Vec<u8>,
    vals: Vec<u32>,
    last: usize,
    pin: PinnedRows,
}

/// The pinned rows of a [`RowReader`]: row `ids[i]` is
/// `cols[starts[i]..starts[i] + deg]`, with `deg` from the resident
/// degree array.
#[derive(Debug, Default)]
struct PinnedRows {
    /// The threshold degree: lighter rows are never pinned and skip the
    /// lookup.
    min_deg: u32,
    /// Pinned vertex ids, ascending.
    ids: Vec<usize>,
    starts: Vec<usize>,
    cols: Vec<u32>,
    /// Lookups served from the slab.
    hits: u64,
}

impl RowReader<'_> {
    /// Bytes one pinned row of degree `deg` occupies: its decoded
    /// columns plus its slab index entry (vertex id and offset).
    pub const fn pin_cost(deg: u32) -> u64 {
        4 * deg as u64 + 16
    }

    /// Pin the highest-degree rows (degree ≥ 2) whose [`Self::pin_cost`]
    /// sums to at most `pin_bytes`. One histogram pass over the resident
    /// degrees finds the threshold degree `t` and how many rows of degree
    /// exactly `t` still fit; those are the lowest-id ones.
    fn pin(&mut self, pin_bytes: u64) -> Result<(), IoError> {
        let graph = self.graph;
        let deg = graph.degrees(self.side);
        // Largest degree whose row fits the bound on its own.
        let fits = pin_bytes.saturating_sub(Self::pin_cost(0)) / 4;
        let top = deg
            .iter()
            .copied()
            .filter(|&d| u64::from(d) <= fits)
            .max()
            .unwrap_or(0);
        if top < 2 {
            return Ok(());
        }
        let mut hist = vec![0u32; top as usize + 1];
        for &d in deg {
            if (2..=top).contains(&d) {
                hist[d as usize] = hist[d as usize].saturating_add(1);
            }
        }
        // Walk degrees down from `top`, taking whole degree classes while
        // they fit; the first class that does not fit is the threshold.
        let (mut left, mut threshold, mut at_threshold) = (pin_bytes, 2u32, u64::MAX);
        let (mut rows, mut nnz) = (0u64, 0u64);
        for d in (2..=top).rev() {
            let (count, cost) = (u64::from(hist[d as usize]), Self::pin_cost(d));
            let take = count.min(left / cost);
            rows += take;
            nnz += take * u64::from(d);
            left -= take * cost;
            if take < count {
                (threshold, at_threshold) = (d, take);
                break;
            }
        }
        drop(hist);
        // Exact reservations: the histogram priced the slab.
        let mut pin = PinnedRows {
            min_deg: threshold,
            ids: Vec::with_capacity(rows as usize),
            starts: Vec::with_capacity(rows as usize),
            cols: Vec::with_capacity(nnz as usize),
            hits: 0,
        };
        for (u, &d) in deg.iter().enumerate() {
            if d < threshold || d > top || (d == threshold && at_threshold == 0) {
                continue;
            }
            if d == threshold {
                at_threshold -= 1;
            }
            pin.ids.push(u);
            pin.starts.push(pin.cols.len());
            graph.read_row(self.side, u, &mut self.bytes, &mut pin.cols)?;
        }
        self.pin = pin;
        Ok(())
    }

    /// The neighbour row of vertex `u`: pinned, replayed, or decoded.
    pub fn row(&mut self, u: usize) -> Result<&[u32], IoError> {
        let deg = self.graph.degrees(self.side)[u];
        if deg >= self.pin.min_deg {
            if let Ok(i) = self.pin.ids.binary_search(&u) {
                self.pin.hits += 1;
                let start = self.pin.starts[i];
                return Ok(&self.pin.cols[start..start + deg as usize]);
            }
        }
        if u == self.last {
            return Ok(&self.vals);
        }
        self.last = usize::MAX;
        self.vals.clear();
        self.graph
            .read_row(self.side, u, &mut self.bytes, &mut self.vals)?;
        self.last = u;
        Ok(&self.vals)
    }

    /// Number of pinned rows.
    pub fn pinned_rows(&self) -> usize {
        self.pin.ids.len()
    }

    /// Bytes the pinned rows occupy (sum of their [`Self::pin_cost`]).
    pub fn pinned_bytes(&self) -> u64 {
        4 * self.pin.cols.len() as u64 + Self::pin_cost(0) * self.pin.ids.len() as u64
    }

    /// Lookups [`Self::row`] has served from the pinned rows.
    pub fn pinned_hits(&self) -> u64 {
        self.pin.hits
    }
}

/// A materialized vertex range of one side: rows `lo..hi` in CSR form,
/// addressed by *global* vertex ids like the [`BipartiteGraph`] API.
#[derive(Debug, Clone)]
pub struct GraphSegment {
    side: Side,
    lo: usize,
    hi: usize,
    nv1: usize,
    nv2: usize,
    ptr: Vec<usize>,
    cols: Vec<u32>,
}

impl GraphSegment {
    /// Which side of the bipartition this segment covers.
    #[inline]
    pub fn side(&self) -> Side {
        self.side
    }

    /// First (global) vertex id in the segment.
    #[inline]
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// One past the last (global) vertex id in the segment.
    #[inline]
    pub fn hi(&self) -> usize {
        self.hi
    }

    /// Number of vertices in the segment.
    #[inline]
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// Is the segment empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// Edges incident to the segment.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// `|V1|` of the underlying graph.
    #[inline]
    pub fn nv1(&self) -> usize {
        self.nv1
    }

    /// `|V2|` of the underlying graph.
    #[inline]
    pub fn nv2(&self) -> usize {
        self.nv2
    }

    /// Sorted neighbours of global vertex `u` (must lie in `lo..hi`).
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[u32] {
        let i = u - self.lo;
        &self.cols[self.ptr[i]..self.ptr[i + 1]]
    }

    /// Degree of global vertex `u` (must lie in `lo..hi`).
    #[inline]
    pub fn deg(&self, u: usize) -> usize {
        self.ptr[u - self.lo + 1] - self.ptr[u - self.lo]
    }

    /// Sorted V2 neighbours of `u ∈ V1` — valid on a V1 segment.
    #[inline]
    pub fn neighbors_v1(&self, u: usize) -> &[u32] {
        debug_assert_eq!(self.side, Side::V1);
        self.neighbors(u)
    }

    /// Sorted V1 neighbours of `v ∈ V2` — valid on a V2 segment.
    #[inline]
    pub fn neighbors_v2(&self, v: usize) -> &[u32] {
        debug_assert_eq!(self.side, Side::V2);
        self.neighbors(v)
    }
}

// ---------------------------------------------------------------------------
// streaming converter
// ---------------------------------------------------------------------------

/// What the streaming converter did.
#[derive(Debug, Clone, Copy)]
pub struct ConvertStats {
    /// `|V1|` of the converted graph.
    pub nv1: usize,
    /// `|V2|` of the converted graph.
    pub nv2: usize,
    /// Data lines read from the input (pre-dedup).
    pub data_lines: u64,
    /// Edges in the output (post-dedup).
    pub nedges: u64,
    /// Bytes in the output file.
    pub bytes_written: u64,
    /// Spill-file scan passes the bounded-buffer gather needed.
    pub gather_passes: u32,
}

fn bump_degree(deg: &mut Vec<u32>, i: u32) {
    let i = i as usize;
    if i >= deg.len() {
        deg.resize(i + 1, 0);
    }
    deg[i] += 1;
}

/// One bounded-memory gather of a side: scans the spill file in
/// vertex-range windows, sorts/dedups each vertex's neighbours, and
/// appends the delta-varint payload to `pay_path`. Returns the final
/// (deduped) degrees, the relative row offsets, and the pass count.
fn gather_side(
    spill_path: &Path,
    key_is_first: bool,
    predeg: &[u32],
    ncols: usize,
    buffer_entries: usize,
    pay_path: &Path,
) -> Result<(Vec<u32>, Vec<u64>, u32), IoError> {
    let n = predeg.len();
    let mut final_deg = vec![0u32; n];
    let mut rel = Vec::with_capacity(n + 1);
    rel.push(0u64);
    let mut pay = BufWriter::new(File::create(pay_path)?);
    let mut pay_len = 0u64;
    let mut passes = 0u32;
    let mut row_buf = Vec::new();

    let mut w0 = 0usize;
    while w0 < n {
        // Grow the window while its pre-dedup degree sum fits the buffer
        // (always at least one vertex, so a single hub can exceed it).
        let mut w1 = w0 + 1;
        let mut total = predeg[w0] as usize;
        while w1 < n && total + predeg[w1] as usize <= buffer_entries.max(1) {
            total += predeg[w1] as usize;
            w1 += 1;
        }
        passes += 1;

        // Offsets into a flat neighbour buffer for this window.
        let mut offsets = Vec::with_capacity(w1 - w0 + 1);
        offsets.push(0usize);
        for u in w0..w1 {
            offsets.push(offsets.last().unwrap() + predeg[u] as usize);
        }
        let mut slots = vec![0u32; total];
        let mut cursor = offsets[..w1 - w0].to_vec();

        // Sequential scan of the spill, keeping only this window's edges.
        let mut spill = BufReader::with_capacity(1 << 16, File::open(spill_path)?);
        let mut rec = [0u8; 8];
        loop {
            match spill.read_exact(&mut rec) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
                Err(e) => return Err(e.into()),
            }
            let a = u32::from_le_bytes(rec[0..4].try_into().unwrap());
            let b = u32::from_le_bytes(rec[4..8].try_into().unwrap());
            let (key, val) = if key_is_first { (a, b) } else { (b, a) };
            let k = key as usize;
            if (w0..w1).contains(&k) {
                slots[cursor[k - w0]] = val;
                cursor[k - w0] += 1;
            }
        }

        // Sort + dedup each vertex, encode, append.
        for u in w0..w1 {
            let slice = &mut slots[offsets[u - w0]..offsets[u - w0 + 1]];
            slice.sort_unstable();
            row_buf.clear();
            let mut prev_val: Option<u32> = None;
            for &v in slice.iter() {
                if prev_val != Some(v) {
                    debug_assert!((v as usize) < ncols);
                    row_buf.push(v);
                    prev_val = Some(v);
                }
            }
            final_deg[u] = row_buf.len() as u32;
            let mut enc = Vec::with_capacity(5 * row_buf.len());
            encode_row(&mut enc, &row_buf);
            pay.write_all(&enc)?;
            pay_len += enc.len() as u64;
            rel.push(pay_len);
        }
        w0 = w1;
    }
    pay.flush()?;
    Ok((final_deg, rel, passes))
}

/// Convert a text graph file to `.bfly` with the default buffer size.
pub fn convert_to_bfly(
    input: impl AsRef<Path>,
    format: TextFormat,
    out: impl AsRef<Path>,
) -> Result<ConvertStats, IoError> {
    convert_to_bfly_with_buffer(input, format, out, CONVERT_BUFFER_EDGES)
}

/// Convert a text graph file to `.bfly`, never materializing the edge
/// list: peak memory is O(|V| + buffer_entries + max degree), regardless
/// of |E|. Temporary spill/payload files are created next to `out` and
/// removed on success.
pub fn convert_to_bfly_with_buffer(
    input: impl AsRef<Path>,
    format: TextFormat,
    out: impl AsRef<Path>,
    buffer_entries: usize,
) -> Result<ConvertStats, IoError> {
    let input = input.as_ref();
    let out = out.as_ref();
    let tmp = |suffix: &str| PathBuf::from(format!("{}{suffix}", out.display()));
    let (spill, pay1, pay2) = (tmp(".spill.tmp"), tmp(".pay1.tmp"), tmp(".pay2.tmp"));
    let result = convert_inner(input, format, out, buffer_entries, &spill, &pay1, &pay2);
    // `<out>.tmp` too: an earlier run that crashed mid-assembly leaves one.
    for p in [spill, pay1, pay2, tmp(".tmp")] {
        let _ = std::fs::remove_file(p);
    }
    result
}

fn convert_inner(
    input: &Path,
    format: TextFormat,
    out: &Path,
    buffer_entries: usize,
    spill_path: &Path,
    pay1_path: &Path,
    pay2_path: &Path,
) -> Result<ConvertStats, IoError> {
    // Pass A: stream the text input once through the loaders' parser,
    // spilling fixed-width edge records and counting pre-dedup degrees.
    let mut spill = BufWriter::new(File::create(spill_path)?);
    let mut predeg1: Vec<u32> = Vec::new();
    let mut predeg2: Vec<u32> = Vec::new();
    let info = stream_edges(File::open(input)?, format, |u, v| {
        bump_degree(&mut predeg1, u);
        bump_degree(&mut predeg2, v);
        spill.write_all(&u.to_le_bytes())?;
        spill.write_all(&v.to_le_bytes())?;
        Ok(())
    })?;
    spill.flush()?;
    drop(spill);
    let (nv1, nv2) = (info.nv1, info.nv2);
    predeg1.resize(nv1, 0);
    predeg2.resize(nv2, 0);

    // Bounded-memory gathers, one per side.
    let (deg1, rel1, passes1) =
        gather_side(spill_path, true, &predeg1, nv2, buffer_entries, pay1_path)?;
    let (deg2, rel2, passes2) =
        gather_side(spill_path, false, &predeg2, nv1, buffer_entries, pay2_path)?;
    debug_assert_eq!(
        deg1.iter().map(|&d| u64::from(d)).sum::<u64>(),
        deg2.iter().map(|&d| u64::from(d)).sum::<u64>()
    );

    // Assemble the final file from the payload spills.
    let header = persist_atomically(out, |w| {
        let header = write_sections(w, &deg1, &deg2, &rel1, &rel2)?;
        std::io::copy(&mut File::open(pay1_path)?, w)?;
        std::io::copy(&mut File::open(pay2_path)?, w)?;
        Ok(header)
    })?;

    Ok(ConvertStats {
        nv1,
        nv2,
        data_lines: info.data_lines,
        nedges: header.nedges,
        bytes_written: header.file_len,
        gather_passes: passes1 + passes2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::uniform_exact;
    use crate::io::{read_text_file, write_edge_list};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bfly-format-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_graph() -> BipartiteGraph {
        // Duplicate edges on purpose: the format stores the dedup form.
        BipartiteGraph::from_edges(
            5,
            4,
            &[
                (0, 0),
                (0, 1),
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 1),
                (2, 3),
                (4, 0),
                (4, 3),
            ],
        )
        .unwrap()
    }

    #[test]
    fn varint_roundtrip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            1 << 20,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(take_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        let mut pos = 0;
        assert!(take_varint(&[0x80, 0x80], &mut pos).is_err());
        let eleven = [0xffu8; 11];
        let mut pos = 0;
        assert!(take_varint(&eleven, &mut pos).is_err());
    }

    #[test]
    fn write_read_roundtrip() {
        for g in [
            sample_graph(),
            BipartiteGraph::empty(0, 0),
            BipartiteGraph::empty(3, 0),
            BipartiteGraph::empty(0, 7),
            BipartiteGraph::complete(3, 5),
            uniform_exact(17, 13, 60, &mut StdRng::seed_from_u64(7)),
        ] {
            let mut bytes = Vec::new();
            let len = write_bfly(&g, &mut bytes).unwrap();
            assert_eq!(len as usize, bytes.len());
            let back = read_bfly(&bytes[..]).unwrap();
            assert_eq!(back, g);
        }
    }

    /// The full-range segment of each side decodes exactly `g`'s rows.
    fn assert_segments_decode(sg: &SegmentedGraph, g: &BipartiteGraph) {
        for (side, rows) in [(Side::V1, g.biadjacency()), (Side::V2, g.biadjacency_t())] {
            let seg = sg.segment(side, 0, rows.nrows()).unwrap();
            for u in 0..rows.nrows() {
                assert_eq!(seg.neighbors(u), rows.row(u), "{side:?} row {u}");
            }
        }
    }

    #[test]
    fn segmented_reader_matches_in_memory() {
        let dir = tmp_dir("segments");
        let g = uniform_exact(23, 19, 120, &mut StdRng::seed_from_u64(11));
        let path = dir.join("g.bfly");
        write_bfly_file(&g, &path).unwrap();
        assert!(is_bfly_file(&path));
        let sg = SegmentedGraph::open(&path).unwrap();
        assert_eq!(
            (sg.nv1(), sg.nv2(), sg.nedges()),
            (23, 19, g.nedges() as u64)
        );
        assert_segments_decode(&sg, &g);
        // Segments over both sides, a few split points.
        for (lo, hi) in [(0, 23), (0, 5), (5, 23), (11, 11)] {
            let seg = sg.segment(Side::V1, lo, hi).unwrap();
            for u in lo..hi {
                assert_eq!(seg.neighbors_v1(u), g.neighbors_v1(u));
                assert_eq!(seg.deg(u), g.deg_v1(u));
            }
        }
        let seg = sg.segment(Side::V2, 3, 17).unwrap();
        for v in 3..17 {
            assert_eq!(seg.neighbors_v2(v), g.neighbors_v2(v));
        }
        // Single-row reader with memoized repeats.
        let mut rr = sg.row_reader(Side::V2, 0).unwrap();
        for v in [0usize, 4, 4, 18, 2] {
            assert_eq!(rr.row(v).unwrap(), g.neighbors_v2(v));
        }
        assert_eq!(rr.pinned_rows(), 0);
        // Streaming row visitor with a tiny window (forces many reads).
        let mut seen = 0usize;
        sg.for_each_row(Side::V1, 0, 23, 4, |u, row| {
            assert_eq!(row, g.neighbors_v1(u));
            seen += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, 23);
    }

    /// A skewed graph whose V2 side has a spread of degrees (hubs, ties,
    /// and rows of degree < 2), written to `dir/g.bfly`.
    fn pin_fixture(dir: &Path) -> (BipartiteGraph, PathBuf) {
        let hubs =
            crate::generators::chung_lu(60, 40, 300, 0.9, 0.9, &mut StdRng::seed_from_u64(3));
        // V2 vertices 40 and 41 get degree 1, 42 and 43 degree 0.
        let mut edges: Vec<(u32, u32)> = hubs.edges().collect();
        edges.extend([(0, 40), (1, 41)]);
        let g = BipartiteGraph::from_edges(60, 44, &edges).unwrap();
        let path = dir.join("g.bfly");
        write_bfly_file(&g, &path).unwrap();
        (g, path)
    }

    #[test]
    fn pinned_rows_equal_their_streamed_decode() {
        let dir = tmp_dir("pin");
        let (g, path) = pin_fixture(&dir);
        let sg = SegmentedGraph::open(&path).unwrap();
        let deg = sg.degrees(Side::V2).to_vec();
        let mut streamed = sg.row_reader(Side::V2, 0).unwrap();
        let mut all = sg.row_reader(Side::V2, u64::MAX).unwrap();
        // Every row of degree >= 2 fits an unbounded pin; no lighter row.
        let heavy: Vec<u32> = deg.iter().copied().filter(|&d| d >= 2).collect();
        assert!(heavy.len() > 1 && heavy.len() < deg.len());
        assert_eq!(all.pinned_rows(), heavy.len());
        let want: u64 = heavy.iter().map(|&d| RowReader::pin_cost(d)).sum();
        assert_eq!(all.pinned_bytes(), want);
        let reads = sg.reads.load(Ordering::Relaxed);
        for v in 0..sg.nv2() {
            let row = all.row(v).unwrap().to_vec();
            assert_eq!(row, g.neighbors_v2(v), "row {v}");
            assert_eq!(row, streamed.row(v).unwrap(), "row {v}");
        }
        assert_eq!(all.pinned_hits(), heavy.len() as u64);
        // Pinned lookups never touch the file: only the streamed reader
        // and the unpinned light rows read.
        let light = deg.iter().filter(|&&d| d < 2).count() as u64;
        assert_eq!(
            sg.reads.load(Ordering::Relaxed) - reads,
            sg.nv2() as u64 + light
        );

        // A bound of exactly the heaviest row's cost pins that row alone
        // (the lowest id among equally heavy rows).
        let max = *deg.iter().max().unwrap();
        let top = deg.iter().position(|&d| d == max).unwrap();
        let mut one = sg.row_reader(Side::V2, RowReader::pin_cost(max)).unwrap();
        assert_eq!(one.pinned_rows(), 1);
        assert_eq!(one.pinned_bytes(), RowReader::pin_cost(max));
        assert_eq!(one.row(top).unwrap(), g.neighbors_v2(top));
        assert_eq!(one.pinned_hits(), 1);
        // One byte short, the heaviest row cannot fit; lighter rows can.
        let short = sg
            .row_reader(Side::V2, RowReader::pin_cost(max) - 1)
            .unwrap();
        assert!(short.pinned_rows() >= 1 && !short.pin.ids.contains(&top));

        // Pinned rows are the heaviest: every unpinned row of degree >= 2
        // is no heavier than the lightest pinned one.
        let half = sg.row_reader(Side::V2, want / 2).unwrap();
        assert!(half.pinned_bytes() <= want / 2);
        let pinned = &half.pin.ids;
        let lightest = pinned.iter().map(|&u| deg[u]).min().unwrap();
        for (u, &d) in deg.iter().enumerate() {
            if d >= 2 && !pinned.contains(&u) {
                assert!(d <= lightest, "row {u} of degree {d} skipped");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_pinned_row_fails_like_its_streamed_read() {
        let dir = tmp_dir("pin-corrupt");
        let (g, path) = pin_fixture(&dir);
        let sg = SegmentedGraph::open(&path).unwrap();
        // Zero the second varint of the heaviest V2 row: a zero delta. The
        // columns are < 128, so every varint is one byte.
        assert!(g.nv1() < 128);
        let deg = sg.degrees(Side::V2);
        let max = *deg.iter().max().unwrap();
        let v = deg.iter().position(|&d| d == max).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[sg.index(Side::V2)[v] as usize + 1] = 0;
        let bad = dir.join("bad.bfly");
        std::fs::write(&bad, &bytes).unwrap();
        let sg = SegmentedGraph::open(&bad).unwrap();
        let streamed = match sg.row_reader(Side::V2, 0).unwrap().row(v) {
            Err(IoError::Format(msg)) => msg,
            other => panic!("streamed read of row {v} gave {other:?}"),
        };
        assert!(streamed.contains("zero delta"), "{streamed}");
        match sg.row_reader(Side::V2, u64::MAX) {
            Err(IoError::Format(msg)) => assert_eq!(msg, streamed),
            other => panic!("pinning row {v} gave {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hard_read_fault_fails_the_pin_with_a_typed_error() {
        let dir = tmp_dir("pin-fault");
        let (_, path) = pin_fixture(&dir);
        let mut sg = SegmentedGraph::open(&path).unwrap();
        // The schedule `BFLY_FAULT_READ_ERROR_AT=1` arms at open (set
        // directly: the environment is shared with concurrent tests).
        sg.faults.error_at_read = Some(1);
        match sg.row_reader(Side::V2, u64::MAX) {
            Err(IoError::Io(e)) => assert!(e.to_string().contains("injected hard fault")),
            other => panic!("expected a typed i/o error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn converter_matches_in_memory_reader() {
        let dir = tmp_dir("convert");
        let g = uniform_exact(31, 27, 200, &mut StdRng::seed_from_u64(5));
        let txt = dir.join("edges.tsv");
        let mut f = File::create(&txt).unwrap();
        write_edge_list(&g, &mut f).unwrap();
        drop(f);
        let expect = read_text_file(&txt, TextFormat::EdgeList).unwrap();
        let in_memory = dir.join("in-memory.bfly");
        write_bfly_file(&expect, &in_memory).unwrap();

        for (tag, buffer) in [("big", 1 << 20), ("tiny", 7)] {
            let out = dir.join(format!("g-{tag}.bfly"));
            let stats =
                convert_to_bfly_with_buffer(&txt, TextFormat::EdgeList, &out, buffer).unwrap();
            assert_eq!(stats.nedges, expect.nedges() as u64);
            assert_segments_decode(&SegmentedGraph::open(&out).unwrap(), &expect);
            // Both writers emit the same sections in the same order.
            assert_eq!(
                std::fs::read(&out).unwrap(),
                std::fs::read(&in_memory).unwrap()
            );
            if buffer == 7 {
                assert!(
                    stats.gather_passes > 2,
                    "tiny buffer must force multiple passes"
                );
            }
            // No leftover temp files.
            assert!(!dir.join(format!("g-{tag}.bfly.spill.tmp")).exists());
        }
    }

    #[test]
    fn converter_dedups_and_checks_headers() {
        let dir = tmp_dir("convert-dedup");
        let txt = dir.join("dup.tsv");
        std::fs::write(&txt, "% 4 3 3\n0 1\n0 1\n2 2\n1 0\n").unwrap();
        let out = dir.join("dup.bfly");
        let stats = convert_to_bfly(&txt, TextFormat::EdgeList, &out).unwrap();
        assert_eq!((stats.nv1, stats.nv2), (3, 3));
        assert_eq!(stats.data_lines, 4);
        assert_eq!(stats.nedges, 3);

        let bad = dir.join("bad.tsv");
        std::fs::write(&bad, "% 9 3 3\n0 1\n").unwrap();
        assert!(matches!(
            convert_to_bfly(&bad, TextFormat::EdgeList, dir.join("bad.bfly")),
            Err(IoError::Parse { .. })
        ));
    }

    #[test]
    fn converter_reads_matrix_market() {
        let dir = tmp_dir("convert-mtx");
        let mtx = dir.join("g.mtx");
        std::fs::write(
            &mtx,
            "%%MatrixMarket matrix coordinate integer general\n3 4 4\n1 1 1\n1 2 1\n3 4 1\n2 2 0\n",
        )
        .unwrap();
        let out = dir.join("g.bfly");
        let stats = convert_to_bfly(&mtx, TextFormat::MatrixMarket, &out).unwrap();
        // The zero-valued entry is not an edge.
        assert_eq!(stats.nedges, 3);
        let g = read_bfly_file(&out).unwrap();
        assert_eq!((g.nv1(), g.nv2()), (3, 4));
        assert_eq!(g.neighbors_v1(0), &[0, 1]);
        assert_eq!(g.neighbors_v1(2), &[3]);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let g = sample_graph();
        let mut bytes = Vec::new();
        write_bfly(&g, &mut bytes).unwrap();
        for cut in 0..bytes.len() {
            match read_bfly(&bytes[..cut]) {
                Err(IoError::Io(_)) | Err(IoError::Format(_)) => {}
                other => panic!("truncation at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn corruption_never_panics_and_checksums_catch_degree_flips() {
        let g = sample_graph();
        let mut bytes = Vec::new();
        write_bfly(&g, &mut bytes).unwrap();
        let h = Header::parse(bytes[..BFLY_HEADER_LEN as usize].try_into().unwrap()).unwrap();
        for i in 0..bytes.len() {
            let mut c = bytes.clone();
            c[i] ^= 0xff;
            // Any outcome but a panic is acceptable in general...
            let parsed = read_bfly(&c[..]);
            // ...but flips in the degree arrays must be caught by FNV.
            let in_degrees = (i as u64) >= h.off_deg_v1 && (i as u64) < h.off_idx_v1;
            if in_degrees {
                assert!(parsed.is_err(), "degree flip at byte {i} went unnoticed");
            }
        }
    }

    #[test]
    fn open_rejects_truncated_file() {
        let dir = tmp_dir("truncated");
        let g = sample_graph();
        let mut bytes = Vec::new();
        write_bfly(&g, &mut bytes).unwrap();
        bytes.pop();
        let path = dir.join("t.bfly");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentedGraph::open(&path),
            Err(IoError::Format(_))
        ));
    }
}
