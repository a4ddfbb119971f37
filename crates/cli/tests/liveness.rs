//! Liveness smoke tests of the compiled `bfly` binary: heartbeat
//! streaming, the stall watchdog, and the crash flight recorder —
//! driven through the deterministic fault-injection hooks
//! (`BFLY_FAULT_SLEEP_MS`, `BFLY_FAULT_PANIC`) so none of them race
//! real work.

use bfly_core::telemetry::Json;
use std::process::Command;

fn bfly() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bfly"))
}

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bfly-live-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate(path: &str, m: &str, n: &str, edges: &str, seed: &str) {
    let out = bfly()
        .args([
            "generate", "--kind", "uniform", "--m", m, "--n", n, "--edges", edges, "--seed", seed,
            "--out", path,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn parse_lines(ndjson: &str) -> Vec<Json> {
    ndjson
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("invalid NDJSON line {l:?}: {e:?}")))
        .collect()
}

#[test]
fn progress_plus_stream_heartbeats_reach_fraction_one() {
    let dir = tempdir();
    let gpath = dir.join("hb.tsv");
    let gpath_s = gpath.to_str().unwrap();
    generate(gpath_s, "120", "120", "800", "71");
    // The skewed occupations stand-in, where the default route and the
    // budgeted route run different plans: every heartbeat that carries a
    // `total` must carry the executed plan's wedge work (the planner's
    // priority pick on the default route, 179,928 wedges; the byte cap's
    // Inv. 1 fallback when budgeted, which partitions V2, 1,110,128: the
    // cap holds the resident graph and Inv. 1's accumulator but not the
    // priority member's larger one).
    let skew = dir.join("hb-skew.tsv");
    let skew_s = skew.to_str().unwrap();
    let out = bfly()
        .args(["generate", "--kind", "standin", "--name", "occupations"])
        .args(["--scale", "0.1", "--out", skew_s])
        .output()
        .unwrap();
    assert!(out.status.success());
    let budgeted = ["--parallel", "--threads", "2", "--max-bytes", "900000"];
    for (input, extra, total) in [
        (gpath_s, &[][..], None),
        (skew_s, &[][..], Some(179_928)),
        (skew_s, &budgeted[..], Some(1_110_128)),
    ] {
        // A short sleep before counting plus a fast monitor guarantees
        // heartbeats even on a machine that counts this graph instantly.
        let out = bfly()
            .args(["count", input, "--progress", "--stream", "-"])
            .args(extra)
            .env("BFLY_MONITOR_INTERVAL_MS", "20")
            .env("BFLY_FAULT_SLEEP_MS", "120")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );

        // stdout is pure NDJSON with one strictly monotonic seq lane across
        // the monitor thread and the closing events.
        let events = parse_lines(&String::from_utf8(out.stdout).unwrap());
        let seqs: Vec<u64> = events
            .iter()
            .map(|e| e.get("seq").and_then(|v| v.as_u64()).expect("seq"))
            .collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
        let ty = |e: &Json| e.get("type").and_then(|v| v.as_str()).unwrap().to_string();
        assert_eq!(ty(&events[0]), "run_start");
        assert_eq!(ty(events.last().unwrap()), "run_end");
        let heartbeats: Vec<&Json> = events.iter().filter(|e| ty(e) == "heartbeat").collect();
        assert!(heartbeats.len() >= 2, "expected several heartbeats");
        let last = heartbeats.last().unwrap();
        assert_eq!(last.get("final").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(last.get("fraction").and_then(|v| v.as_f64()), Some(1.0));
        if let Some(total) = total {
            // A heartbeat sampled before the forecast arrives reads 0.
            let totals: Vec<u64> = heartbeats
                .iter()
                .filter_map(|h| h.get("total").and_then(|v| v.as_u64()))
                .filter(|&t| t > 0)
                .collect();
            assert!(
                !totals.is_empty(),
                "{extra:?}: no heartbeat carried a total"
            );
            assert!(
                totals.iter().all(|&t| t == total),
                "{extra:?}: heartbeat totals {totals:?}, executed plan's est_work {total}"
            );
        }

        // The human summary went to stderr through the gate: whole lines
        // only, no NDJSON fragments spliced mid-line.
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("butterflies ="), "{stderr}");
        for line in stderr.lines() {
            assert!(
                !line.contains("{\"type\""),
                "stream JSON leaked into stderr line {line:?}"
            );
        }
    }
}

#[test]
fn stall_watchdog_fires_and_the_run_still_completes() {
    let dir = tempdir();
    let gpath = dir.join("stall.tsv");
    let gpath_s = gpath.to_str().unwrap();
    generate(gpath_s, "80", "80", "400", "73");

    // 250 ms of injected idleness against a 20 ms monitor tick and a
    // 3-tick patience: the watchdog must fire, and must not kill the
    // run.
    let out = bfly()
        .args(["count", gpath_s, "--progress", "--stream", "-"])
        .env("BFLY_MONITOR_INTERVAL_MS", "20")
        .env("BFLY_STALL_INTERVALS", "3")
        .env("BFLY_FAULT_SLEEP_MS", "250")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "a stall is a diagnostic, not a failure: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let events = parse_lines(&String::from_utf8(out.stdout).unwrap());
    let stalls: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("type").and_then(|v| v.as_str()) == Some("stall"))
        .collect();
    assert!(!stalls.is_empty(), "watchdog never fired");
    // The stall event carries a full snapshot (counters, gauges) so the
    // post-mortem needs no second source.
    assert!(stalls[0].get("counters").is_some(), "{:?}", stalls[0]);
    assert!(
        stalls[0]
            .get("idle_intervals")
            .and_then(|v| v.as_u64())
            .unwrap()
            >= 3
    );
    // And the closing counters record the detection.
    let counters = events
        .iter()
        .find(|e| e.get("type").and_then(|v| v.as_str()) == Some("counters"))
        .expect("closing counters event");
    assert!(
        counters
            .get("values")
            .and_then(|v| v.get("stalls_detected"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
            >= 1,
        "{counters:?}"
    );
}

#[test]
fn forced_panic_leaves_a_parseable_flight_dump() {
    let dir = tempdir();
    let gpath = dir.join("crash.tsv");
    let gpath_s = gpath.to_str().unwrap();
    generate(gpath_s, "60", "60", "300", "79");

    let fpath = dir.join("flight.json");
    let fpath_s = fpath.to_str().unwrap();
    let out = bfly()
        .args(["count", gpath_s, "--flight-recorder", fpath_s])
        .env("BFLY_MONITOR_INTERVAL_MS", "10")
        .env("BFLY_FAULT_SLEEP_MS", "60")
        .env("BFLY_FAULT_PANIC", "1")
        .output()
        .unwrap();
    assert!(!out.status.success(), "the panic must still be fatal");

    let dump = Json::parse(&std::fs::read_to_string(&fpath).unwrap()).unwrap();
    let reason = dump.get("reason").and_then(|v| v.as_str()).unwrap();
    assert!(reason.contains("panic"), "{reason}");
    assert!(dump.get("snapshot").is_some());
    // The sleep before the panic let the monitor tick, so the ring holds
    // the last pre-crash heartbeats.
    let ring = dump.get("events").and_then(|v| v.as_arr()).unwrap();
    assert!(!ring.is_empty(), "flight ring empty at crash");
}

#[test]
fn tip_and_wing_stream_heartbeats_too() {
    let dir = tempdir();
    let gpath = dir.join("peel.tsv");
    let gpath_s = gpath.to_str().unwrap();
    generate(gpath_s, "100", "100", "700", "83");

    for sub in ["tip", "wing"] {
        let out = bfly()
            .args([sub, gpath_s, "--decompose", "--progress", "--stream", "-"])
            .env("BFLY_MONITOR_INTERVAL_MS", "20")
            .env("BFLY_FAULT_SLEEP_MS", "80")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{sub}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let events = parse_lines(&String::from_utf8(out.stdout).unwrap());
        let final_hb = events
            .iter()
            .rfind(|e| e.get("type").and_then(|v| v.as_str()) == Some("heartbeat"))
            .unwrap_or_else(|| panic!("{sub}: no heartbeat"));
        assert_eq!(final_hb.get("fraction").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(
            events.last().unwrap().get("type").and_then(|v| v.as_str()),
            Some("run_end"),
            "{sub}"
        );
    }
}
