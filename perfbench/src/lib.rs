//! Shared pieces of the `bfly` benchmark's two helper binaries.
//!
//! `bfly-perfbench` (`src/main.rs`) generates inputs, computes reference
//! answers and spawns the timed runs; it uses no program API beyond the
//! wing-number oracle, so the end-to-end benchmark keeps building when the
//! program's entry points are reorganised. `bfly-replica`
//! (`src/bin/bfly-replica.rs`) is the traced in-process replica and calls
//! the layers' public entry points directly.

pub mod gen;
pub mod reference;

use std::path::Path;

/// The program's dependency-free JSON value, used for the helpers' output.
pub use bfly_core::telemetry::Json;

/// The four benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CountSkewed,
    CountSparsePar,
    CountOoc,
    WingDecompose,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "count_skewed" => Workload::CountSkewed,
            "count_sparse_par" => Workload::CountSparsePar,
            "count_ooc" => Workload::CountOoc,
            "wing_decompose" => Workload::WingDecompose,
            _ => return None,
        })
    }

    /// `count_ooc` counts `count_skewed`'s graph (same shape, same seed,
    /// same edges), so in-memory and out-of-core costs compare directly.
    pub fn shape(self) -> &'static gen::Shape {
        match self {
            Workload::CountSkewed | Workload::CountOoc => &gen::GITHUB,
            Workload::CountSparsePar => &gen::SPARSE,
            Workload::WingDecompose => &gen::OCCUPATIONS,
        }
    }

    /// Worker threads the command pins (`--threads`), 1 when sequential.
    pub fn threads(self) -> usize {
        match self {
            Workload::CountSparsePar | Workload::WingDecompose => 2,
            Workload::CountSkewed | Workload::CountOoc => 1,
        }
    }
}

/// `--flag value` lookup over the raw argument list.
pub struct Args(pub Vec<String>);

impl Args {
    pub fn get(&self, flag: &str) -> Option<&str> {
        let pos = self.0.iter().position(|a| a == flag)?;
        self.0.get(pos + 1).map(String::as_str)
    }

    pub fn req(&self, flag: &str) -> Result<&str, String> {
        self.get(flag).ok_or_else(|| format!("missing {flag}"))
    }

    pub fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        self.req(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a number"))
    }

    pub fn workload(&self) -> Result<Workload, String> {
        let name = self.req("--workload")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

pub fn write_u64s(path: &Path, values: &[u64]) -> Result<(), String> {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    std::fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn read_u64s(path: &Path) -> Result<Vec<u64>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    if bytes.len() % 8 != 0 {
        return Err(format!("{} is not a u64 array", path.display()));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect())
}

/// Report `result`'s error on stderr and exit with code 2.
pub fn exit_on_error(tool: &str, result: Result<(), String>) {
    if let Err(e) = result {
        eprintln!("{tool}: {e}");
        std::process::exit(2);
    }
}
