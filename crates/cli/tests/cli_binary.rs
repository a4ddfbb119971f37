//! End-to-end tests of the compiled `bfly` binary (spawned as a real
//! process via `CARGO_BIN_EXE_bfly`).

use bfly_core::telemetry::Json;
use std::process::Command;

fn bfly() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bfly"))
}

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bfly-bin-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_is_printed_and_succeeds() {
    let out = bfly().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE"));
    assert!(text.contains("tip-numbers"));
}

#[test]
fn unknown_subcommand_exits_nonzero() {
    let out = bfly().arg("explode").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown subcommand"), "{err}");
}

#[test]
fn missing_file_reports_error() {
    let out = bfly()
        .args(["count", "/nonexistent/definitely-not-here.tsv"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn generate_count_tip_wing_pipeline() {
    let dir = tempdir();
    let path = dir.join("pipeline.tsv");
    let path_s = path.to_str().unwrap();

    let out = bfly()
        .args([
            "generate", "--kind", "chunglu", "--m", "200", "--n", "150", "--edges", "1200",
            "--exp1", "0.7", "--exp2", "0.7", "--seed", "3", "--out", path_s,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Counting with two algorithms agrees.
    let mut counts = Vec::new();
    for alg in ["inv2", "vp"] {
        let out = bfly()
            .args(["count", path_s, "--algorithm", alg])
            .output()
            .unwrap();
        assert!(out.status.success());
        let text = String::from_utf8(out.stdout).unwrap();
        let xi: u64 = text
            .split('=')
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        counts.push(xi);
    }
    assert_eq!(counts[0], counts[1]);

    let out = bfly()
        .args(["tip", path_s, "--k", "2", "--side", "v1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("2-tip on V1"), "{text}");

    let out = bfly().args(["wing", path_s, "--k", "1"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("1-wing"));

    let out = bfly()
        .args(["tip-numbers", path_s, "--top", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().count(), 4); // header + 3 rows
}

#[test]
fn count_parallel_flag_works() {
    let dir = tempdir();
    let path = dir.join("par.tsv");
    let path_s = path.to_str().unwrap();
    bfly()
        .args([
            "generate", "--kind", "uniform", "--m", "100", "--n", "100", "--edges", "500",
            "--seed", "1", "--out", path_s,
        ])
        .output()
        .unwrap();
    let seq = bfly().args(["count", path_s]).output().unwrap();
    let par = bfly()
        .args(["count", path_s, "--parallel", "--threads", "2"])
        .output()
        .unwrap();
    assert!(seq.status.success() && par.status.success());
    let get = |o: &std::process::Output| {
        String::from_utf8_lossy(&o.stdout)
            .split('=')
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse::<u64>()
            .unwrap()
    };
    assert_eq!(get(&seq), get(&par));
}

#[test]
fn stats_on_matrix_market_input() {
    let dir = tempdir();
    let path = dir.join("g.mtx");
    std::fs::write(
        &path,
        "%%MatrixMarket matrix coordinate pattern general\n3 3 4\n1 1\n1 2\n2 1\n2 2\n",
    )
    .unwrap();
    let out = bfly()
        .args(["stats", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("|E|  = 4"), "{text}");

    let out = bfly()
        .args(["count", path.to_str().unwrap(), "--algorithm", "enum"])
        .output()
        .unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("butterflies = 1"), "{text}");
}

#[test]
fn report_diff_exit_codes() {
    let dir = tempdir();
    let gpath = dir.join("diff.tsv");
    let gpath_s = gpath.to_str().unwrap();
    bfly()
        .args([
            "generate", "--kind", "uniform", "--m", "80", "--n", "80", "--edges", "400", "--seed",
            "19", "--out", gpath_s,
        ])
        .output()
        .unwrap();

    // Two identical deterministic sequential runs -> diff exits 0.
    let base = dir.join("base.json");
    let new = dir.join("new.json");
    for p in [&base, &new] {
        let out = bfly()
            .args([
                "count",
                gpath_s,
                "--algorithm",
                "inv2",
                "--report",
                p.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
    }
    let out = bfly()
        .args([
            "report",
            "diff",
            base.to_str().unwrap(),
            new.to_str().unwrap(),
            "--threshold",
            "5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "identical runs must diff clean: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("diff: ok"));

    // Inflate every counter past the threshold -> nonzero exit.
    let mut rep =
        bfly_core::telemetry::RunReport::parse(&std::fs::read_to_string(&base).unwrap()).unwrap();
    for (_, v) in rep.counters.iter_mut() {
        *v = *v * 2 + 1;
    }
    let other = dir.join("inflated.json");
    std::fs::write(&other, rep.to_json_string()).unwrap();
    let out = bfly()
        .args([
            "report",
            "diff",
            base.to_str().unwrap(),
            other.to_str().unwrap(),
            "--threshold",
            "5",
        ])
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "drifted counters must exit nonzero: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("threshold"));
}

/// `bfly report trace` renders a saved report as Chrome Trace Event
/// JSON: one track per worker of a parallel count, and the `count` span
/// of the saved schema-2 baseline.
#[test]
fn report_trace_writes_chrome_trace_with_worker_tracks() {
    let dir = tempdir();
    let gpath = dir.join("trace.tsv");
    let gpath_s = gpath.to_str().unwrap();
    bfly()
        .args([
            "generate", "--kind", "uniform", "--m", "120", "--n", "120", "--edges", "900",
            "--seed", "23", "--out", gpath_s,
        ])
        .output()
        .unwrap();
    let rpath = dir.join("trace-run.json");
    let out = bfly()
        .args(["count", gpath_s, "--parallel", "--threads", "2", "--report"])
        .arg(&rpath)
        .output()
        .unwrap();
    assert!(out.status.success());
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/perf-baseline.json");
    for (i, report) in [rpath.to_str().unwrap(), baseline].into_iter().enumerate() {
        let tpath = dir.join(format!("trace-{i}.json"));
        let out = bfly()
            .args(["report", "trace", report, "-o", tpath.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{report}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&tpath).unwrap();
        assert!(text.contains("\"traceEvents\""), "{text}");
        assert!(text.contains("\"name\": \"count\""), "{report}: {text}");
        if i == 0 {
            // One metadata track per worker thread beyond the main track.
            assert!(text.contains("worker-1"), "missing worker-1 track: {text}");
            assert!(text.contains("worker-2"), "missing worker-2 track: {text}");
        }
    }
}

/// A flag the subcommand never reads is a usage error (exit 2) that
/// names the flag, and the run writes nothing: a misspelt `--report` or
/// `--threads`, the removed `--stats` and `--trace`, and a flag that
/// belongs to another subcommand.
#[test]
fn unknown_flags_are_usage_errors() {
    let dir = tempdir();
    let gpath = dir.join("unknown-flags.tsv");
    let gpath_s = gpath.to_str().unwrap();
    let out = bfly()
        .args(["generate", "--kind", "uniform", "--m", "40", "--n", "40"])
        .args(["--edges", "200", "--seed", "5", "--out", gpath_s])
        .output()
        .unwrap();
    assert!(out.status.success());
    let written = dir.join("unknown-flags-out.json");
    let written_s = written.to_str().unwrap();
    for (args, flag) in [
        (&["count", gpath_s, "--repor", written_s][..], "--repor"),
        (&["count", gpath_s, "--thread", "2"], "--thread"),
        (&["count", gpath_s, "--stats"], "--stats"),
        (&["count", gpath_s, "--trace", written_s], "--trace"),
        (&["wing", "--stats", gpath_s, "--k", "2"], "--stats"),
        (
            &["tip", gpath_s, "--k", "2", "--algorithm", "inv9"],
            "--algorithm",
        ),
    ] {
        let out = bfly().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag} ")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran");
        assert!(!written.exists(), "{args:?} wrote {written_s}");
    }
}

/// `bfly count` spells each choice once: `--member` is an unknown flag
/// and `adaptive` is no `--algorithm` value (`--adaptive` is the flag),
/// while `--algorithm ranked` prints the line `--member ranked` printed.
#[test]
fn removed_count_spellings_are_usage_errors() {
    let dir = tempdir();
    let gpath = dir.join("spellings.tsv");
    let gpath_s = gpath.to_str().unwrap();
    let out = bfly()
        .args(["generate", "--kind", "uniform", "--m", "40", "--n", "40"])
        .args(["--edges", "200", "--seed", "6", "--out", gpath_s])
        .output()
        .unwrap();
    assert!(out.status.success());
    for (args, why) in [
        (&["--member", "priority"][..], "unknown flag --member "),
        (
            &["--algorithm", "adaptive"],
            "unknown algorithm \"adaptive\"",
        ),
        // `--adaptive` overrides a valid name, never an unknown one.
        (
            &["--adaptive", "--algorithm", "bogus"],
            "unknown algorithm \"bogus\"",
        ),
    ] {
        let out = bfly().args(["count", gpath_s]).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran");
    }
    let out = bfly()
        .args(["count", gpath_s, "--algorithm", "ranked"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().next(), Some("butterflies = 135  [ranked]"));
}

#[test]
fn extra_positionals_are_usage_errors() {
    let dir = tempdir();
    let gpath = dir.join("extra-positionals.tsv");
    let gpath_s = gpath.to_str().unwrap();
    let out = bfly()
        .args(["generate", "--kind", "uniform", "--m", "40", "--n", "40"])
        .args(["--edges", "200", "--seed", "6", "--out", gpath_s])
        .output()
        .unwrap();
    assert!(out.status.success());
    let rpath = dir.join("extra-positionals.json");
    let rpath_s = rpath.to_str().unwrap();
    let out = bfly()
        .args(["count", gpath_s, "--report", rpath_s])
        .output()
        .unwrap();
    assert!(out.status.success());
    for (args, extra) in [
        (&["count", gpath_s, "skew.tsv"][..], "skew.tsv"),
        (&["stats", gpath_s, gpath_s], gpath_s),
        (&["report", "show", rpath_s, "extra.json"], "extra.json"),
    ] {
        let out = bfly().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unexpected argument {extra:?} ")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran");
    }
    // An unknown flag is the likelier fault, so it is named first.
    let out = bfly()
        .args(["count", gpath_s, "extra", "--bogus"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --bogus "));
}

#[test]
fn exit_codes_follow_error_classes() {
    let dir = tempdir();
    // Usage errors exit 2.
    assert_eq!(
        bfly().arg("explode").output().unwrap().status.code(),
        Some(2)
    );
    assert_eq!(
        bfly().args(["count"]).output().unwrap().status.code(),
        Some(2),
        "missing <file> is a usage error"
    );
    // Parse errors (here: a header contradicting the edge list) exit 3.
    let bad = dir.join("contradiction.tsv");
    std::fs::write(&bad, "% 9 2 2\n0 0\n").unwrap();
    let out = bfly()
        .args(["count", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{:?}", out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("header declares"));
    // So is a MatrixMarket size line past u32 indices, before anything is
    // allocated for it.
    let huge = dir.join("huge.mtx");
    std::fs::write(
        &huge,
        "%%MatrixMarket matrix coordinate pattern general\n99999999999 1 0\n",
    )
    .unwrap();
    let out = bfly()
        .args(["count", huge.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{:?}", out);
    // Budget refusals exit 4.
    let gpath = dir.join("budget.tsv");
    let gpath_s = gpath.to_str().unwrap();
    bfly()
        .args([
            "generate", "--kind", "uniform", "--m", "60", "--n", "60", "--edges", "400", "--seed",
            "37", "--out", gpath_s,
        ])
        .output()
        .unwrap();
    let out = bfly()
        .args(["count", gpath_s, "--max-work", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "{:?}", out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("budget"));
    // A generous budget still succeeds (exit 0) with the same count.
    let out = bfly()
        .args(["count", gpath_s, "--max-bytes", "100000000"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    // Runtime errors (missing file) keep exit 1.
    let out = bfly()
        .args(["count", "/nonexistent/nope.tsv"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{:?}", out);
}

#[test]
fn json_errors_emit_one_machine_readable_line() {
    let dir = tempdir();
    let bad = dir.join("json-errors.tsv");
    std::fs::write(&bad, "% 9 2 2\n0 0\n").unwrap();
    let out = bfly()
        .args(["count", bad.to_str().unwrap(), "--json-errors"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr.trim().lines().count(), 1, "{stderr}");
    let doc = bfly_core::telemetry::Json::parse(stderr.trim()).unwrap();
    assert_eq!(doc.get("class").and_then(|v| v.as_str()), Some("parse"));
    assert_eq!(doc.get("exit_code").and_then(|v| v.as_u64()), Some(3));
    assert!(doc
        .get("message")
        .and_then(|v| v.as_str())
        .unwrap()
        .contains("header declares"));
    // Usage errors honour the flag too (it is stripped before parsing).
    let out = bfly().args(["--json-errors", "explode"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    let doc = bfly_core::telemetry::Json::parse(stderr.trim()).unwrap();
    assert_eq!(doc.get("class").and_then(|v| v.as_str()), Some("usage"));
}

#[test]
fn truncated_input_never_panics_the_binary() {
    // Fault-injection smoke: every byte-prefix of a KONECT file must
    // produce a documented exit code — never 101 (Rust panic) and never
    // a signal death.
    let dir = tempdir();
    let konect = "% bip unweighted\n% 4 3 3\n1 1\n1 2\n2 2\n3 3\n";
    for cut in 0..konect.len() {
        let path = dir.join("out.truncated");
        std::fs::write(&path, &konect.as_bytes()[..cut]).unwrap();
        let out = bfly()
            .args(["count", path.to_str().unwrap()])
            .output()
            .unwrap();
        let code = out.status.code();
        assert!(
            matches!(code, Some(0 | 1 | 3)),
            "cut at {cut}: unexpected exit {code:?}, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn stream_stdout_emits_valid_ndjson_and_moves_summary_to_stderr() {
    let dir = tempdir();
    let gpath = dir.join("stream.tsv");
    let gpath_s = gpath.to_str().unwrap();
    bfly()
        .args([
            "generate", "--kind", "uniform", "--m", "100", "--n", "100", "--edges", "600",
            "--seed", "41", "--out", gpath_s,
        ])
        .output()
        .unwrap();
    let out = bfly()
        .args(["count", gpath_s, "--stream", "-"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The human summary moved to stderr; stdout is NDJSON only.
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("butterflies ="),
        "summary must be on stderr"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut types = Vec::new();
    let mut last_seq = None::<u64>;
    for line in stdout.lines() {
        let doc = bfly_core::telemetry::Json::parse(line)
            .unwrap_or_else(|e| panic!("invalid NDJSON line {line:?}: {e:?}"));
        let ty = doc
            .get("type")
            .and_then(|v| v.as_str())
            .unwrap()
            .to_string();
        let seq = doc.get("seq").and_then(|v| v.as_u64()).unwrap();
        if let Some(prev) = last_seq {
            assert!(seq > prev, "seq must be monotonic: {prev} then {seq}");
        }
        last_seq = Some(seq);
        types.push(ty);
    }
    assert_eq!(types.first().map(String::as_str), Some("run_start"));
    assert_eq!(types.last().map(String::as_str), Some("run_end"));
    assert!(
        types.iter().any(|t| t == "counters"),
        "expected a counters event, got {types:?}"
    );

    // --stream FILE keeps stdout human and writes the same stream to disk.
    let spath = dir.join("events.ndjson");
    let out = bfly()
        .args(["count", gpath_s, "--stream", spath.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("butterflies ="));
    let streamed = std::fs::read_to_string(&spath).unwrap();
    assert!(streamed.lines().count() >= 3, "{streamed}");
}

#[test]
fn report_diff_hist_gates_quantiles() {
    let dir = tempdir();
    let gpath = dir.join("histdiff.tsv");
    let gpath_s = gpath.to_str().unwrap();
    bfly()
        .args([
            "generate", "--kind", "uniform", "--m", "90", "--n", "90", "--edges", "500", "--seed",
            "53", "--out", gpath_s,
        ])
        .output()
        .unwrap();
    let rpath = dir.join("histdiff-run.json");
    bfly()
        .args([
            "count",
            gpath_s,
            "--parallel",
            "--threads",
            "2",
            "--report",
            rpath.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    // A report diffed against itself is quantile-identical, so --hist
    // gating passes even at a tight tolerance.
    let out = bfly()
        .args([
            "report",
            "diff",
            rpath.to_str().unwrap(),
            rpath.to_str().unwrap(),
            "--hist",
            "--hist-tolerance",
            "1",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn report_show_and_flame_roundtrip() {
    let dir = tempdir();
    let gpath = dir.join("show.tsv");
    let gpath_s = gpath.to_str().unwrap();
    bfly()
        .args([
            "generate", "--kind", "uniform", "--m", "50", "--n", "50", "--edges", "300", "--seed",
            "29", "--out", gpath_s,
        ])
        .output()
        .unwrap();
    let rpath = dir.join("run.json");
    bfly()
        .args(["count", gpath_s, "--report", rpath.to_str().unwrap()])
        .output()
        .unwrap();

    let out = bfly()
        .args(["report", "show", rpath.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("wedges_expanded"));

    let fpath = dir.join("flame.html");
    let out = bfly()
        .args([
            "report",
            "flame",
            rpath.to_str().unwrap(),
            "-o",
            fpath.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(std::fs::read_to_string(&fpath).unwrap().contains("<html"));
}

/// Budgeted counts run the same kernels as unbudgeted ones, so a cap no
/// run reaches must report exactly the kernel work of the plain
/// `--adaptive` run — on the uniform CI graph with two threads (a fixed
/// member in parallel) and on the skewed occupations stand-in (the
/// priority plan, and the ranked plan with `--parallel`). The budgeted
/// label names the member that ran.
#[test]
fn budgeted_counts_record_the_same_kernel_work_as_adaptive() {
    let dir = tempdir();
    let uniform = dir.join("work-uniform.tsv");
    let skew = dir.join("work-skew.tsv");
    for (path, args) in [
        (
            &uniform,
            &[
                "--kind", "uniform", "--m", "2000", "--n", "2000", "--edges", "20000", "--seed",
                "42",
            ][..],
        ),
        (
            &skew,
            &[
                "--kind",
                "standin",
                "--name",
                "occupations",
                "--scale",
                "0.1",
            ][..],
        ),
    ] {
        let out = bfly()
            .arg("generate")
            .args(args)
            .args(["--out", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success());
    }
    let kernel_work = |path: &std::path::Path, extra: &[&str], budget: &[&str], tag: &str| {
        let report = dir.join(format!("work-{tag}.json"));
        let out = bfly()
            .arg("count")
            .arg(path)
            .args(extra)
            .args(budget)
            .args(["--report", report.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&report).unwrap();
        let rep = bfly_core::telemetry::RunReport::parse(&text).unwrap();
        let work: Vec<u64> = ["wedges_expanded", "spa_scatters", "accum_entries"]
            .iter()
            .map(|c| rep.counter(c).unwrap())
            .collect();
        (work, String::from_utf8(out.stdout).unwrap())
    };
    for (path, extra, engine) in [
        (&uniform, &["--parallel", "--threads", "2"][..], "Inv. 5"),
        (&skew, &[][..], "priority"),
        (&skew, &["--parallel", "--threads", "2"][..], "priority"),
    ] {
        let tag = format!("{engine}-{}", extra.len());
        let (want, _) = kernel_work(path, extra, &["--adaptive"], &format!("{tag}-adaptive"));
        let (got, stdout) = kernel_work(
            path,
            extra,
            &["--max-work", "100000000000"],
            &format!("{tag}-budgeted"),
        );
        assert!(want[0] > 0, "{engine}: the adaptive run expanded no wedges");
        assert_eq!(got, want, "{engine} {extra:?}: budgeted kernel work");
        assert!(
            stdout.contains(&format!("[{engine} (adaptive, budgeted)]")),
            "{stdout}"
        );
    }
}

#[test]
fn out_of_core_explain_prints_unmeasured_priority_work_as_null() {
    // An out-of-core profile cannot measure the priority member's work;
    // --explain must say so, not print the planner's u64::MAX sentinel.
    let dir = tempdir();
    let tsv = dir.join("explain-ooc.tsv");
    let bfly_file = dir.join("explain-ooc.bfly");
    for args in [
        vec![
            "generate",
            "--kind",
            "uniform",
            "--m",
            "500",
            "--n",
            "500",
            "--edges",
            "20000",
            "--seed",
            "7",
            "--out",
            tsv.to_str().unwrap(),
        ],
        vec![
            "convert",
            tsv.to_str().unwrap(),
            "--out",
            bfly_file.to_str().unwrap(),
        ],
    ] {
        assert!(bfly().args(&args).output().unwrap().status.success());
    }
    // 128 KiB is below the graph's ~172 KiB resident footprint.
    let out = bfly()
        .arg("count")
        .arg(&bfly_file)
        .args(["--max-bytes", "131072", "--explain"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("(out-of-core, "), "{text}");
    assert!(text.contains("\"wedges_priority\": null"), "{text}");
    assert!(!text.contains(&u64::MAX.to_string()), "{text}");
}

/// `tip --decompose --side` plans for the side it peels: on the skewed
/// occupations stand-in the cheaper side is V2 (work 1,110,128), so
/// forcing V1 must report V1's plan — side, work terms, gauges and the
/// progress forecast (1,219,880) — not the side it did not run.
#[test]
fn forced_tip_side_reports_the_plan_that_ran() {
    let dir = tempdir();
    let skew = dir.join("side-skew.tsv");
    let out = bfly()
        .args(["generate", "--kind", "standin", "--name", "occupations"])
        .args(["--scale", "0.1", "--out", skew.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let report = dir.join("side-v1.json");
    let out = bfly()
        .arg("tip")
        .arg(&skew)
        .args(["--decompose", "--threads", "2", "--side", "v1"])
        .args(["--report", report.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rep =
        bfly_core::telemetry::RunReport::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    let meta = |key: &str| rep.meta.iter().find(|(n, _)| n == key).map(|(_, v)| v);
    assert_eq!(meta("side").and_then(|v| v.as_str()), Some("V1"));
    let plan = meta("plan").expect("plan in meta");
    assert_eq!(plan.get("side").and_then(|v| v.as_str()), Some("V1"));
    assert_eq!(
        plan.get("est_work").and_then(|v| v.as_u64()),
        Some(1_219_880)
    );
    assert_eq!(
        plan.get("est_work_alt").and_then(|v| v.as_u64()),
        Some(1_110_128)
    );
    let gauge = |name: &str| rep.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    assert_eq!(gauge("peel.side"), Some(1.0));
    assert_eq!(gauge("peel.est_work"), Some(1_219_880.0));
    assert_eq!(gauge("peel.est_work_alt"), Some(1_110_128.0));
    assert_eq!(gauge("progress.total_work"), Some(1_219_880.0));
    assert_eq!(gauge("peel.parallel"), Some(1.0));
    assert_eq!(gauge("peel.chunks"), Some(2.0));
}

/// Every plan-backed `count` route explains, reports and runs one plan:
/// on the skewed occupations stand-in, the `--explain` plan equals
/// `meta.plan`, its member and invariant name the label's engine, and
/// its `est_work` is the `wedges_expanded` the run recorded. Every
/// report is schema 3, without a `phases` key, and times the count as
/// one top-level `count` span. A baseline counter runs no plan and
/// explains `"plan": null`.
#[test]
fn every_count_route_reports_the_plan_it_ran() {
    let dir = tempdir();
    let skew = dir.join("routes-skew.tsv");
    let skew_bfly = dir.join("routes-skew.bfly");
    let out = bfly()
        .args(["generate", "--kind", "standin", "--name", "occupations"])
        .args(["--scale", "0.1", "--out", skew.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bfly()
        .arg("convert")
        .arg(&skew)
        .args(["--out", skew_bfly.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let mut routes: Vec<Vec<String>> = vec![vec![], vec!["--adaptive".into()]];
    for i in 1..=8 {
        routes.push(vec!["--algorithm".into(), format!("inv{i}")]);
    }
    for m in ["priority", "ranked"] {
        routes.push(vec!["--algorithm".into(), m.into()]);
    }
    for r in routes.clone() {
        routes.push([r, vec!["--parallel".into(), "--threads".into(), "2".into()]].concat());
    }
    for extra in [
        &["--shards", "4"][..],
        &["--max-bytes", "1000000000"],
        &["--max-bytes", "1200000"],
        &["--max-bytes", "1200000", "--parallel", "--threads", "2"],
    ] {
        routes.push(extra.iter().map(|s| s.to_string()).collect());
    }
    let mut tested = 0;
    for (i, args) in routes.iter().enumerate() {
        for (input, ooc) in [(&skew, None), (&skew_bfly, Some(["--shards", "2"]))] {
            let args: Vec<String> = match ooc {
                None => args.clone(),
                // Two out-of-core routes: explicit shards and a byte cap.
                Some(shards) if args.is_empty() => shards.map(String::from).to_vec(),
                Some(_) if args == &["--max-bytes", "1000000000"] => {
                    vec!["--max-bytes".into(), "700000".into()]
                }
                Some(_) => continue,
            };
            let report = dir.join(format!("routes-{i}-{}.json", ooc.is_some()));
            let out = bfly()
                .arg("count")
                .arg(input)
                .args(&args)
                .args(["--explain", "--report", report.to_str().unwrap()])
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "{args:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let text = String::from_utf8(out.stdout).unwrap();
            let label = text.lines().next().unwrap();
            assert!(label.starts_with("butterflies = 478903  ["), "{label}");
            let doc = Json::parse(&text[text.find('{').unwrap()..]).unwrap();
            let plan = doc.get("plan").expect("explained plan").clone();
            let raw = std::fs::read_to_string(&report).unwrap();
            assert!(
                Json::parse(&raw).unwrap().get("phases").is_none(),
                "{args:?}"
            );
            let rep = bfly_core::telemetry::RunReport::parse(&raw).unwrap();
            assert_eq!(rep.schema_version, 3, "{args:?}");
            let counts = rep.spans.iter().filter(|s| s.name == "count");
            let top: Vec<(u32, u32)> = counts
                .filter(|s| s.thread == 0 && s.depth == 0)
                .map(|s| (s.thread, s.depth))
                .collect();
            assert_eq!(top, vec![(0, 0)], "{args:?}: one top-level count span");
            let meta_plan = rep.meta.iter().find(|(n, _)| n == "plan").map(|(_, v)| v);
            assert_eq!(meta_plan, Some(&plan), "{args:?}: meta.plan");
            let member = plan.get("member").and_then(|v| v.as_str()).unwrap();
            let engine = match member {
                "fixed" => format!(
                    "Inv. {}",
                    plan.get("invariant").and_then(|v| v.as_u64()).unwrap()
                ),
                other => other.to_string(),
            };
            assert!(
                label.contains(&format!("[{engine}")),
                "{args:?}: {label} vs {engine}"
            );
            assert_eq!(
                plan.get("est_work").and_then(|v| v.as_u64()),
                rep.counter("wedges_expanded"),
                "{args:?}: est_work vs wedges_expanded"
            );
            tested += 1;
        }
    }
    assert_eq!(tested, 2 * 12 + 4 + 2);
    let out = bfly()
        .arg("count")
        .arg(&skew)
        .args(["--algorithm", "spgemm", "--explain"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let doc = Json::parse(&text[text.find('{').unwrap()..]).unwrap();
    assert_eq!(doc.get("plan"), Some(&Json::Null), "{text}");
}

/// Out-of-core plans are the planner's fixed fallback on every sizing
/// route: the segment kernel never makes the degree-ordered relabel, so
/// no route plans it or charges its 16·E + 8·V bytes. On 550 V1 hubs
/// joined to all 600 V2 vertices plus 4,000 pendant V1 vertices, that
/// charge alone (5,385,200 B) used to refuse a 1,000,000 B cap the
/// 4-shard plan fits. The deadline keeps each count short.
#[test]
fn out_of_core_plans_never_charge_the_relabel() {
    let dir = tempdir();
    let tsv = dir.join("ooc-hubs.tsv");
    let bfly_file = dir.join("ooc-hubs.bfly");
    let mut text = String::from("% bip unweighted\n% 334000 4550 600\n");
    for u in 0..550 {
        for v in 0..600 {
            text.push_str(&format!("{u} {v}\n"));
        }
    }
    for p in 0..4000 {
        text.push_str(&format!("{} {}\n", 550 + p, p % 600));
    }
    std::fs::write(&tsv, text).unwrap();
    let out = bfly()
        .arg("convert")
        .arg(&tsv)
        .arg("--out")
        .arg(&bfly_file)
        .output()
        .unwrap();
    assert!(out.status.success());
    for sizing in [
        &["--shards", "2"][..],
        &["--shard-bytes", "200000"],
        &["--max-bytes", "1000000"],
    ] {
        let out = bfly()
            .arg("count")
            .arg(&bfly_file)
            .args(sizing)
            .args(["--explain", "--deadline-ms", "50"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{sizing:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        let plan = Json::parse(&text[text.find('{').unwrap()..])
            .unwrap()
            .get("plan")
            .cloned()
            .unwrap();
        assert_eq!(
            plan.get("degree_ordered"),
            Some(&Json::Bool(false)),
            "{sizing:?}: {text}"
        );
        if sizing[0] == "--max-bytes" {
            assert!(text.contains("(out-of-core, 4 shards"), "{text}");
        }
    }
}

/// The text `--shards N` route accounts for its plan like every other
/// plan-backed route: the profile runs inside one `select` span, and the
/// report carries the `plan.*` gauges of the sharded plan that ran.
#[test]
fn text_shards_route_reports_its_select_span_and_plan() {
    let dir = tempdir();
    let gpath = dir.join("text-shards.tsv");
    let out = bfly()
        .args(["generate", "--kind", "uniform", "--m", "300", "--n", "300"])
        .args(["--edges", "3000", "--seed", "5", "--out"])
        .arg(&gpath)
        .output()
        .unwrap();
    assert!(out.status.success());
    let report = dir.join("text-shards.json");
    let out = bfly()
        .arg("count")
        .arg(&gpath)
        .args(["--shards", "4", "--report"])
        .arg(&report)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rep =
        bfly_core::telemetry::RunReport::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    let selects = rep.spans.iter().filter(|s| s.name == "select").count();
    assert_eq!(selects, 1, "{:?}", rep.spans);
    let gauge = |name: &str| rep.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
    assert_eq!(gauge("plan.shards"), Some(4.0), "{:?}", rep.gauges);
    assert!(gauge("plan.member").is_some(), "{:?}", rep.gauges);
}

/// The recorder's own top-level spans never count against
/// `BFLY_SPAN_CAP`: under a cap of one span, a parallel wing
/// decomposition still reports its `wing_decompose` span, keeps at most
/// one capped span, and counts the rest as dropped.
#[test]
fn span_cap_keeps_top_level_spans() {
    let dir = tempdir();
    let gpath = dir.join("span-cap.tsv");
    let out = bfly()
        .args(["generate", "--kind", "uniform", "--m", "100", "--n", "100"])
        .args(["--edges", "800", "--seed", "9", "--out"])
        .arg(&gpath)
        .output()
        .unwrap();
    assert!(out.status.success());
    let report = dir.join("span-cap.json");
    let out = bfly()
        .env("BFLY_SPAN_CAP", "1")
        .arg("wing")
        .arg(&gpath)
        .args(["--decompose", "--threads", "2", "--report"])
        .arg(&report)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rep =
        bfly_core::telemetry::RunReport::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    let top = |name: &str| {
        rep.spans
            .iter()
            .any(|s| s.name == name && s.thread == 0 && s.depth == 0)
    };
    assert!(top("wing_decompose"), "{:?}", rep.spans);
    let capped = rep.spans.iter().filter(|s| s.thread != 0 || s.depth != 0);
    assert!(capped.count() <= 1, "{:?}", rep.spans);
    let dropped = rep.gauges.iter().find(|(n, _)| n == "spans_dropped");
    assert!(dropped.is_some_and(|&(_, v)| v > 0.0), "{:?}", rep.gauges);
}

/// `--progress` and `--flight-recorder` watch the run's own recorder
/// rather than replacing it: on the skewed occupations stand-in,
/// `wing --decompose` writes the same report spans, counters (all but the
/// monitor's `stalls_detected`), histograms and `report trace` events
/// with either liveness flag as without one, and every stream carries
/// one `span` event per report span.
#[test]
fn liveness_flags_keep_report_trace_and_stream() {
    let dir = tempdir();
    let skew = dir.join("live-skew.tsv");
    let out = bfly()
        .args(["generate", "--kind", "standin", "--name", "occupations"])
        .args(["--scale", "0.1", "--out", skew.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let flight = dir.join("live-flight.json");
    let flight = flight.to_str().unwrap();
    let flags: [&[&str]; 3] = [&[], &["--progress"], &["--flight-recorder", flight]];
    let mut runs = Vec::new();
    for (i, extra) in flags.into_iter().enumerate() {
        let path = |what: &str| dir.join(format!("live-{i}.{what}"));
        let (report, trace, stream) = (path("json"), path("trace"), path("ndjson"));
        let out = bfly()
            .arg("wing")
            .arg(&skew)
            .args(["--decompose", "--threads", "2"])
            .arg("--report")
            .arg(&report)
            .arg("--stream")
            .arg(&stream)
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let out = bfly()
            .args(["report", "trace"])
            .arg(&report)
            .arg("-o")
            .arg(&trace)
            .output()
            .unwrap();
        assert!(out.status.success(), "{extra:?}: report trace");
        let rep =
            bfly_core::telemetry::RunReport::parse(&std::fs::read_to_string(&report).unwrap())
                .unwrap();
        let mut spans = std::collections::BTreeMap::new();
        for s in &rep.spans {
            *spans.entry(s.name.clone()).or_insert(0u64) += 1;
        }
        let counters: Vec<(String, u64)> = rep
            .counters
            .iter()
            .filter(|(n, _)| n != "stalls_detected")
            .cloned()
            .collect();
        let hists: Vec<String> = rep.histograms.iter().map(|(n, _)| n.clone()).collect();
        let trace = Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let trace_events = trace
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .map(|a| a.len());
        let streamed = std::fs::read_to_string(&stream)
            .unwrap()
            .lines()
            .filter(|l| {
                Json::parse(l).unwrap().get("type").and_then(|t| t.as_str()) == Some("span")
            })
            .count();
        assert_eq!(
            streamed,
            rep.spans.len(),
            "{extra:?}: one span event per report span"
        );
        runs.push((extra, spans, counters, hists, trace_events));
    }
    let (_, spans, counters, hists, trace_events) = &runs[0];
    assert!(spans.get("peel_round").is_some_and(|&n| n > 0), "{spans:?}");
    for (extra, s, c, h, t) in &runs[1..] {
        assert_eq!(s, spans, "{extra:?}: span-name counts");
        assert_eq!(c, counters, "{extra:?}: counters");
        assert_eq!(h, hists, "{extra:?}: histogram names");
        assert_eq!(t, trace_events, "{extra:?}: trace events");
    }
}

/// `--checkpoint` persists the shards of a `.bfly` count. On a text input
/// it is a usage error (exit 2) whichever sharded tier it rides, and the
/// directory is never created.
#[test]
fn checkpoint_on_a_text_input_is_a_usage_error() {
    let dir = tempdir();
    let gpath = dir.join("ckpt-text.tsv");
    let out = bfly()
        .args(["generate", "--kind", "uniform", "--m", "300", "--n", "300"])
        .args(["--edges", "3000", "--seed", "5", "--out"])
        .arg(&gpath)
        .output()
        .unwrap();
    assert!(out.status.success());
    for (tier, value) in [("--shards", "4"), ("--max-bytes", "1000000")] {
        let ckpt = dir.join(format!("ckpt-text{tier}"));
        let out = bfly()
            .arg("count")
            .arg(&gpath)
            .args([tier, value, "--checkpoint"])
            .arg(&ckpt)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{tier}: {stderr}");
        assert!(stderr.contains(".bfly input"), "{tier}: {stderr}");
        assert!(!ckpt.exists(), "{tier} created {}", ckpt.display());
    }
}

/// The flags that shape the out-of-core tier are usage errors (exit 2)
/// on a text input, raised before the input is read: a missing text path
/// exits 2 as well. The hint names `bfly convert`'s real syntax, as the
/// usage text does.
#[test]
fn shard_flags_on_a_text_input_are_usage_errors() {
    let dir = tempdir();
    let gpath = dir.join("shard-text.tsv");
    let out = bfly()
        .args(["generate", "--kind", "uniform", "--m", "300", "--n", "300"])
        .args(["--edges", "3000", "--seed", "5", "--out"])
        .arg(&gpath)
        .output()
        .unwrap();
    assert!(out.status.success());
    let missing = dir.join("shard-text-missing.tsv");
    let hint = "bfly convert <in> --out <out.bfly>";
    for flags in [
        &["--shard-bytes", "1000"][..],
        &["--shards", "4", "--max-work", "100000000"],
    ] {
        for input in [&gpath, &missing] {
            let out = bfly().arg("count").arg(input).args(flags).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{flags:?} {input:?}: {stderr}");
            assert!(stderr.contains(".bfly input"), "{flags:?}: {stderr}");
            assert!(stderr.contains(hint), "{flags:?}: {stderr}");
        }
    }
    let help = bfly().arg("help").output().unwrap();
    assert!(String::from_utf8_lossy(&help.stdout).contains(hint));
}

/// `bfly pairs` sums its pair matrix to the butterfly count on either
/// side.
#[test]
fn pairs_total_matches_count_on_both_sides() {
    let dir = tempdir();
    let gpath = dir.join("pairs-total.tsv");
    let out = bfly()
        .args(["generate", "--kind", "chunglu", "--m", "200", "--n", "150"])
        .args([
            "--edges", "1200", "--exp1", "0.7", "--exp2", "0.7", "--seed", "3",
        ])
        .arg("--out")
        .arg(&gpath)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bfly().arg("count").arg(&gpath).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let count = stdout
        .strip_prefix("butterflies = ")
        .and_then(|s| s.split_whitespace().next())
        .unwrap_or_else(|| panic!("{stdout}"))
        .to_string();
    for side in ["v1", "v2"] {
        let out = bfly()
            .arg("pairs")
            .arg(&gpath)
            .args(["--side", side])
            .output()
            .unwrap();
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let total = stdout
            .split("(total ")
            .nth(1)
            .and_then(|s| s.split(')').next())
            .unwrap_or_else(|| panic!("{stdout}"));
        assert_eq!(total, count, "{side}: {stdout}");
    }
}

/// A bare output name is written into the working directory: the
/// atomic persist fsyncs the parent directory, which for a bare name is
/// `.`.
#[test]
fn convert_writes_a_bare_file_name_into_the_working_directory() {
    let dir = tempdir().join("bare-convert");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("in.tsv"), "0\t0\n0\t1\n1\t0\n1\t1\n2\t1\n").unwrap();
    let out = bfly()
        .current_dir(&dir)
        .args(["convert", "in.tsv", "--out", "g.bfly"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!dir.join("g.bfly.tmp").exists());
    let out = bfly()
        .current_dir(&dir)
        .args(["count", "g.bfly"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("butterflies = 1 "), "{stdout}");
}
