//! Durable checkpoint store for sharded / out-of-core runs.
//!
//! The shard merge algebra is associative and restartable: every shard's
//! [`CheckedAccum`] partial depends only on that shard's vertex range,
//! so persisting each completed partial makes a multi-hour out-of-core
//! run resumable after a crash, OOM-kill, or power loss — the partials
//! already written merge exactly, only unfinished shards recount
//! (cf. the external-memory fault model of Wang et al., arXiv
//! 1812.00283).
//!
//! ## Directory layout
//!
//! A checkpoint directory holds one `manifest.ck` plus one
//! `shard-<lo>-<hi>.ck` per completed shard. Every file is one record:
//!
//! ```text
//! offset  len  field
//! 0       8    magic "BFLYCKPT"
//! 8       2    version (currently 1), little-endian
//! 10      2    kind: 0 = manifest, 1 = shard partial
//! 12      4    payload length in bytes
//! 16      n    payload (see below)
//! 16+n    8    FNV-1a 64 checksum of the payload — same hash the
//!              `.bfly` header uses for its degree arrays
//! ```
//!
//! Manifest payload: `fingerprint u64 | nshards u64`. Shard payload:
//! `fingerprint u64 | lo u64 | hi u64 | acc_lo u64 | acc_spill u128`
//! — the accumulator's internal `(lo, spill)` split, so restore is
//! bitwise-identical, not merely value-equal.
//!
//! ## Fingerprint rules
//!
//! The fingerprint ([`fingerprint_segmented`]) is FNV-1a 64 over the
//! graph identity (`nv1`, `nv2`, `nedges`, both degree-array checksums
//! from the `.bfly` header), the planned invariant number, and the
//! exact shard ranges. Any edit to the graph, a different selected
//! invariant, or a different shard layout changes the fingerprint, and
//! [`CheckpointStore::open`] with `resume = true` then refuses with a
//! typed [`BflyError`] rather than ever merging partials from a
//! different run shape. A silent wrong count is impossible by
//! construction.
//!
//! ## Durability
//!
//! Every record is written to a `.tmp` sibling, flushed, fsynced, and
//! atomically renamed into place — a reader (including a resuming run)
//! observes either no file or a complete record, never a torn one. A
//! shard file that is missing or fails its checksum is treated as
//! absent: that shard simply recounts, trading work for safety.

use crate::error::{BflyError, Result};
use crate::family::Invariant;
use bfly_graph::io::IoError;
use bfly_graph::{fnv1a, persist_atomically, SegmentedGraph, Side};
use bfly_sparse::CheckedAccum;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes at offset 0 of every checkpoint record.
pub const CKPT_MAGIC: [u8; 8] = *b"BFLYCKPT";
/// Current checkpoint format version.
pub const CKPT_VERSION: u16 = 1;

const KIND_MANIFEST: u16 = 0;
const KIND_SHARD: u16 = 1;
const RECORD_HEADER_LEN: usize = 16;

/// What the CLI's `--checkpoint DIR [--resume]` resolves to.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding the manifest and shard records (created if
    /// absent).
    pub dir: PathBuf,
    /// Resume mode: validate the manifest fingerprint and merge
    /// already-persisted shard partials instead of recounting them.
    /// Without it, existing shard records are cleared and the run
    /// starts fresh.
    pub resume: bool,
}

impl CheckpointConfig {
    /// Fresh-run configuration for `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            resume: false,
        }
    }

    /// Same directory, resume mode.
    pub fn resume(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            resume: true,
        }
    }
}

/// Run-shape fingerprint: FNV-1a 64 over graph identity + invariant +
/// shard ranges (see the module docs for the exact rules).
pub fn fingerprint_segmented(
    sg: &SegmentedGraph,
    inv: Invariant,
    ranges: &[(usize, usize)],
) -> u64 {
    let mut bytes = Vec::with_capacity(56 + 16 * ranges.len());
    bytes.extend_from_slice(&(sg.nv1() as u64).to_le_bytes());
    bytes.extend_from_slice(&(sg.nv2() as u64).to_le_bytes());
    bytes.extend_from_slice(&sg.nedges().to_le_bytes());
    bytes.extend_from_slice(&sg.degree_checksum(Side::V1).to_le_bytes());
    bytes.extend_from_slice(&sg.degree_checksum(Side::V2).to_le_bytes());
    bytes.extend_from_slice(&(inv.number() as u64).to_le_bytes());
    bytes.extend_from_slice(&(ranges.len() as u64).to_le_bytes());
    for &(lo, hi) in ranges {
        bytes.extend_from_slice(&(lo as u64).to_le_bytes());
        bytes.extend_from_slice(&(hi as u64).to_le_bytes());
    }
    fnv1a(bytes)
}

/// An opened checkpoint directory, bound to one run fingerprint.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    fingerprint: u64,
    resume: bool,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory for a run with
    /// the given fingerprint.
    ///
    /// Fresh mode clears any previous shard records and writes a new
    /// manifest. Resume mode validates the existing manifest: a
    /// fingerprint mismatch is a typed refusal
    /// ([`BflyError::Io`]/[`IoError::Format`], CLI parse class) — the
    /// checkpoint belongs to a different graph, invariant, or shard
    /// layout and merging it could only produce a silently wrong count.
    /// Resuming into an empty directory is allowed (there is nothing to
    /// skip; the manifest is written for the next crash).
    pub fn open(cfg: &CheckpointConfig, fingerprint: u64, nshards: usize) -> Result<Self> {
        std::fs::create_dir_all(&cfg.dir)?;
        let store = CheckpointStore {
            dir: cfg.dir.clone(),
            fingerprint,
            resume: cfg.resume,
        };
        if cfg.resume {
            match store.read_manifest()? {
                Some((found, _)) if found != fingerprint => {
                    return Err(BflyError::Io(IoError::Format(format!(
                        "checkpoint fingerprint mismatch in {}: manifest has {found:#018x} but \
                         this graph/plan fingerprints to {fingerprint:#018x} — the checkpoint \
                         belongs to a different graph, invariant, or shard layout; refusing to \
                         resume (delete the directory or drop --resume to start fresh)",
                        store.dir.display()
                    ))));
                }
                Some(_) => {}
                None => store.write_manifest(nshards)?,
            }
        } else {
            store.clear_shards()?;
            store.write_manifest(nshards)?;
        }
        Ok(store)
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.ck")
    }

    fn shard_path(&self, lo: usize, hi: usize) -> PathBuf {
        self.dir.join(format!("shard-{lo}-{hi}.ck"))
    }

    /// Durably persist one completed shard's partial (atomic
    /// temp-file + fsync + rename).
    pub fn persist_shard(&self, lo: usize, hi: usize, acc: &CheckedAccum) -> Result<()> {
        let (acc_lo, acc_spill) = acc.parts();
        let mut payload = Vec::with_capacity(48);
        payload.extend_from_slice(&self.fingerprint.to_le_bytes());
        payload.extend_from_slice(&(lo as u64).to_le_bytes());
        payload.extend_from_slice(&(hi as u64).to_le_bytes());
        payload.extend_from_slice(&acc_lo.to_le_bytes());
        payload.extend_from_slice(&acc_spill.to_le_bytes());
        write_record(&self.shard_path(lo, hi), KIND_SHARD, &payload)
    }

    /// Load a previously persisted partial for shard `lo..hi`, if this
    /// store is resuming and a valid record exists. Missing, torn, or
    /// checksum-failing records yield `Ok(None)` — the shard recounts.
    pub fn load_shard(&self, lo: usize, hi: usize) -> Result<Option<CheckedAccum>> {
        if !self.resume {
            return Ok(None);
        }
        let Some(payload) = read_record(&self.shard_path(lo, hi), KIND_SHARD)? else {
            return Ok(None);
        };
        if payload.len() != 48 {
            return Ok(None);
        }
        let u64_at = |i: usize| u64::from_le_bytes(payload[i..i + 8].try_into().unwrap());
        if u64_at(0) != self.fingerprint || u64_at(8) != lo as u64 || u64_at(16) != hi as u64 {
            return Ok(None);
        }
        let acc_lo = u64_at(24);
        let acc_spill = u128::from_le_bytes(payload[32..48].try_into().unwrap());
        Ok(Some(CheckedAccum::from_parts(acc_lo, acc_spill)))
    }

    /// Number of shard records currently on disk (diagnostics).
    pub fn shard_records(&self) -> usize {
        self.shard_files().map_or(0, |files| files.count())
    }

    /// The `shard-*.ck` records in the directory.
    fn shard_files(&self) -> std::io::Result<impl Iterator<Item = PathBuf>> {
        let entries = std::fs::read_dir(&self.dir)?.flatten().map(|e| e.path());
        Ok(entries.filter(|p| {
            let name = p.file_name().unwrap_or_default().to_string_lossy();
            name.starts_with("shard-") && name.ends_with(".ck")
        }))
    }

    fn write_manifest(&self, nshards: usize) -> Result<()> {
        let mut payload = Vec::with_capacity(16);
        payload.extend_from_slice(&self.fingerprint.to_le_bytes());
        payload.extend_from_slice(&(nshards as u64).to_le_bytes());
        write_record(&self.manifest_path(), KIND_MANIFEST, &payload)
    }

    /// `(fingerprint, nshards)` from an existing manifest; `None` when
    /// the directory has no manifest yet. A present-but-corrupt
    /// manifest is a typed refusal: resuming against a checkpoint whose
    /// identity record cannot be trusted is never safe.
    fn read_manifest(&self) -> Result<Option<(u64, u64)>> {
        let path = self.manifest_path();
        if !path.exists() {
            return Ok(None);
        }
        let payload = read_record(&path, KIND_MANIFEST)?.ok_or_else(|| {
            BflyError::Io(IoError::Format(format!(
                "checkpoint manifest {} is corrupt (bad magic, version, or checksum); \
                 refusing to resume — delete the directory to start fresh",
                path.display()
            )))
        })?;
        if payload.len() != 16 {
            return Err(BflyError::Io(IoError::Format(format!(
                "checkpoint manifest {} has a malformed payload ({} bytes, expected 16)",
                path.display(),
                payload.len()
            ))));
        }
        let fp = u64::from_le_bytes(payload[0..8].try_into().unwrap());
        let n = u64::from_le_bytes(payload[8..16].try_into().unwrap());
        Ok(Some((fp, n)))
    }

    fn clear_shards(&self) -> Result<()> {
        for path in self.shard_files()? {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// Serialize one record crash-safely ([`persist_atomically`]).
fn write_record(path: &Path, kind: u16, payload: &[u8]) -> Result<()> {
    persist_atomically(path, |w| {
        w.write_all(&CKPT_MAGIC)?;
        w.write_all(&CKPT_VERSION.to_le_bytes())?;
        w.write_all(&kind.to_le_bytes())?;
        w.write_all(&(payload.len() as u32).to_le_bytes())?;
        w.write_all(payload)?;
        Ok(w.write_all(&fnv1a(payload.iter().copied()).to_le_bytes())?)
    })?;
    Ok(())
}

/// Read and validate one record. `Ok(None)` covers every recoverable
/// shape: file missing, wrong magic/version/kind, short file, or a
/// checksum mismatch.
fn read_record(path: &Path, kind: u16) -> Result<Option<Vec<u8>>> {
    let mut f = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)?;
    if bytes.len() < RECORD_HEADER_LEN + 8 || bytes[0..8] != CKPT_MAGIC {
        return Ok(None);
    }
    let version = u16::from_le_bytes(bytes[8..10].try_into().unwrap());
    let got_kind = u16::from_le_bytes(bytes[10..12].try_into().unwrap());
    let len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    if version != CKPT_VERSION || got_kind != kind || bytes.len() != RECORD_HEADER_LEN + len + 8 {
        return Ok(None);
    }
    let payload = &bytes[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len];
    let want = u64::from_le_bytes(bytes[RECORD_HEADER_LEN + len..].try_into().unwrap());
    if fnv1a(payload.iter().copied()) != want {
        return Ok(None);
    }
    Ok(Some(payload.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_graph::{write_bfly_file, BipartiteGraph};

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bfly-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_sg(dir: &Path) -> SegmentedGraph {
        let g = BipartiteGraph::complete(4, 3);
        let path = dir.join("g.bfly");
        write_bfly_file(&g, &path).unwrap();
        SegmentedGraph::open(&path).unwrap()
    }

    #[test]
    fn shard_partials_round_trip_bitwise() {
        let dir = tmp_dir("roundtrip");
        let cfg = CheckpointConfig::new(&dir);
        let store = CheckpointStore::open(&cfg, 0xdead_beef, 2).unwrap();
        let mut acc = CheckedAccum::with_base(u64::MAX - 1);
        acc.add(10); // spills
        store.persist_shard(0, 5, &acc).unwrap();
        // Fresh store (not resuming) ignores records.
        assert_eq!(store.load_shard(0, 5).unwrap(), None);
        let resumed =
            CheckpointStore::open(&CheckpointConfig::resume(&dir), 0xdead_beef, 2).unwrap();
        let got = resumed.load_shard(0, 5).unwrap().expect("record exists");
        assert_eq!(got, acc, "restore must be bitwise-identical");
        assert_eq!(resumed.load_shard(5, 9).unwrap(), None, "absent shard");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_mismatch_is_a_typed_refusal() {
        let dir = tmp_dir("mismatch");
        CheckpointStore::open(&CheckpointConfig::new(&dir), 1, 2).unwrap();
        let err = CheckpointStore::open(&CheckpointConfig::resume(&dir), 2, 2).unwrap_err();
        match err {
            BflyError::Io(IoError::Format(msg)) => {
                assert!(msg.contains("fingerprint mismatch"), "msg: {msg}");
            }
            other => panic!("expected a Format refusal, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_open_clears_stale_shards_and_resume_into_empty_dir_is_fine() {
        let dir = tmp_dir("clear");
        let store = CheckpointStore::open(&CheckpointConfig::new(&dir), 7, 2).unwrap();
        store.persist_shard(0, 3, &CheckedAccum::new()).unwrap();
        assert_eq!(store.shard_records(), 1);
        let fresh = CheckpointStore::open(&CheckpointConfig::new(&dir), 7, 2).unwrap();
        assert_eq!(fresh.shard_records(), 0, "fresh open clears shard records");
        let empty = tmp_dir("clear-empty");
        let r = CheckpointStore::open(&CheckpointConfig::resume(&empty), 7, 2).unwrap();
        assert_eq!(r.load_shard(0, 3).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn corrupt_records_never_poison_a_resume() {
        let dir = tmp_dir("corrupt");
        let store = CheckpointStore::open(&CheckpointConfig::new(&dir), 9, 1).unwrap();
        let mut acc = CheckedAccum::new();
        acc.add(42);
        store.persist_shard(0, 4, &acc).unwrap();
        // Flip one payload byte: the checksum catches it and the shard
        // reads as absent (recount), never as a wrong partial.
        let path = dir.join("shard-0-4.ck");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[RECORD_HEADER_LEN + 24] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let resumed = CheckpointStore::open(&CheckpointConfig::resume(&dir), 9, 1).unwrap();
        assert_eq!(resumed.load_shard(0, 4).unwrap(), None);
        // A truncated manifest, by contrast, is a refusal.
        std::fs::write(dir.join("manifest.ck"), b"BFLYCKPT").unwrap();
        let err = CheckpointStore::open(&CheckpointConfig::resume(&dir), 9, 1).unwrap_err();
        assert!(matches!(err, BflyError::Io(IoError::Format(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_tracks_graph_invariant_and_layout() {
        let dir = tmp_dir("fp");
        let sg = sample_sg(&dir);
        let ranges = [(0usize, 2usize), (2, 3)];
        let base = fingerprint_segmented(&sg, Invariant::Inv1, &ranges);
        assert_eq!(
            base,
            fingerprint_segmented(&sg, Invariant::Inv1, &ranges),
            "deterministic"
        );
        assert_ne!(
            base,
            fingerprint_segmented(&sg, Invariant::Inv2, &ranges),
            "invariant is covered"
        );
        assert_ne!(
            base,
            fingerprint_segmented(&sg, Invariant::Inv1, &[(0, 3)]),
            "shard layout is covered"
        );
        // A different graph (one more edge) changes the fingerprint.
        let g2 = BipartiteGraph::complete(4, 4);
        let p2 = dir.join("g2.bfly");
        write_bfly_file(&g2, &p2).unwrap();
        let sg2 = SegmentedGraph::open(&p2).unwrap();
        assert_ne!(base, fingerprint_segmented(&sg2, Invariant::Inv1, &ranges));
        std::fs::remove_dir_all(&dir).ok();
    }
}
