//! `bfly-perfbench`: the end-to-end half of the `bfly` benchmark, driven by
//! `perfbench/run.py`.
//!
//! ```text
//! bfly-perfbench prepare --workload W --seed S --dir DIR
//! bfly-perfbench spawn OUT ERR PROGRAM [ARGS...]
//! ```
//!
//! `prepare` generates the workload's input under `DIR/inputs`, computes its
//! reference answer outside the code path under test (for `wing_decompose`
//! also the full wing-number vector, `DIR/wing_oracle.bin`, which the traced
//! run compares), and prints one JSON line. `spawn` runs one timed process
//! (see [`spawn`]).

use bfly_perfbench::{exit_on_error, gen, reference, write_u64s, Args, Json, Workload};
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("spawn") => spawn(&argv[1..]),
        Some("prepare") => prepare(&Args(argv[1..].to_vec())),
        _ => Err("usage: bfly-perfbench prepare|spawn ... (see the module docs)".to_string()),
    };
    exit_on_error("bfly-perfbench", result);
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen `long`s.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    other: [i64; 13],
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set, in KiB, of the largest child this process has
/// waited for (`getrusage(RUSAGE_CHILDREN)`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn children_maxrss_kib() -> Result<u64, String> {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        other: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the 64-bit
    // Linux `struct rusage` (checked by the cfg above), the only memory
    // getrusage writes; RUSAGE_CHILDREN is a valid `who`.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        return Err(format!("getrusage: {}", std::io::Error::last_os_error()));
    }
    u64::try_from(usage.maxrss).map_err(|_| "negative ru_maxrss".to_string())
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn children_maxrss_kib() -> Result<u64, String> {
    Err("peak RSS is measured on 64-bit Linux only".to_string())
}

/// `bfly-perfbench spawn OUT ERR PROGRAM ARGS...`: run one process with
/// stdout and stderr to files, from spawn to exit, and print its exit code,
/// wall seconds and peak RSS. A child's `ru_maxrss` starts at its parent's
/// own peak (the kernel carries it across the exec), so the spawning
/// process must be far smaller than the one measured — this small one is,
/// the Python interpreter driving the benchmark is not.
fn spawn(argv: &[String]) -> Result<(), String> {
    let [out, err, program, args @ ..] = argv else {
        return Err("usage: bfly-perfbench spawn OUT ERR PROGRAM [ARGS...]".to_string());
    };
    let create = |p: &String| std::fs::File::create(p).map_err(|e| format!("create {p}: {e}"));
    let (out, err) = (create(out)?, create(err)?);
    let t = Instant::now();
    let status = std::process::Command::new(program)
        .args(args)
        .stdin(std::process::Stdio::null())
        .stdout(out)
        .stderr(err)
        .status()
        .map_err(|e| format!("spawn {program}: {e}"))?;
    let wall_s = t.elapsed().as_secs_f64();
    let exit = match status.code() {
        Some(c) => c as i64,
        None => -1,
    };
    let out = Json::Obj(vec![
        ("exit".into(), Json::Int(exit)),
        ("wall_s".into(), Json::Float(wall_s)),
        ("maxrss_kib".into(), Json::UInt(children_maxrss_kib()?)),
    ]);
    println!("{}", out.compact());
    Ok(())
}

/// Byte cap of `count_ooc`: three quarters of the graph's resident bytes as
/// the planner estimates them (both CSR orientations: 4-byte column indices
/// and 8-byte row pointers), so the count must go out of core; at the
/// GitHub shape it plans 8 shards. Computed here, not asked of the program,
/// so a planner change cannot move the workload.
fn ooc_max_bytes(shape: &gen::Shape) -> u64 {
    let resident = 2 * (4 * shape.edges as u64 + 8 * (shape.nv1 + shape.nv2 + 2) as u64);
    resident * 3 / 4
}

fn prepare(args: &Args) -> Result<(), String> {
    let workload = args.workload()?;
    let seed: u64 = args.num("--seed")?;
    let dir = PathBuf::from(args.req("--dir")?);
    let shape = workload.shape();
    let inputs = dir.join("inputs");
    std::fs::create_dir_all(&inputs).map_err(|e| format!("create {}: {e}", inputs.display()))?;
    // KONECT naming (`out.*`) is how the CLI recognises the format.
    let input = inputs.join(format!("out.{}", shape.name));

    let edges = gen::chung_lu(shape, seed);
    gen::write_konect(&input, shape, &edges)
        .map_err(|e| format!("write {}: {e}", input.display()))?;

    let expect = if workload == Workload::WingDecompose {
        let numbers = reference::wing_numbers(shape.nv1, shape.nv2, &edges);
        write_u64s(&dir.join("wing_oracle.bin"), &numbers)?;
        let s = reference::WingSummary::of(&numbers);
        Json::Obj(vec![
            ("edges".into(), Json::UInt(s.edges)),
            ("max_level".into(), Json::UInt(s.max_level)),
            ("distinct_levels".into(), Json::UInt(s.distinct_levels)),
        ])
    } else {
        Json::Obj(vec![(
            "butterflies".into(),
            Json::UInt(reference::butterflies(shape.nv1, shape.nv2, &edges)),
        )])
    };

    let input_bytes = std::fs::metadata(&input).map_err(|e| e.to_string())?.len();
    let out = Json::Obj(vec![
        ("input".into(), Json::Str(input.display().to_string())),
        ("input_bytes".into(), Json::UInt(input_bytes)),
        ("nv1".into(), Json::UInt(shape.nv1 as u64)),
        ("nv2".into(), Json::UInt(shape.nv2 as u64)),
        ("nedges".into(), Json::UInt(edges.len() as u64)),
        (
            "edge_checksum".into(),
            Json::Str(format!("{:016x}", gen::edge_checksum(&edges))),
        ),
        ("max_bytes".into(), Json::UInt(ooc_max_bytes(shape))),
        ("expect".into(), expect),
    ]);
    println!("{}", out.compact());
    Ok(())
}
