#!/usr/bin/env python3
"""The bfly benchmark: four CLI workloads, timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload count_skewed --seed 1 --seconds 20 --trace 0

It builds the release `bfly` binary and the benchmark's helper crate
(`perfbench/Cargo.toml`), generates the workload's input from the seed,
computes the reference answer, and then runs the real binary over and over
for `--seconds`, timing each process from spawn to exit with tracing off and
checking every printed answer. With `--trace 1` it then makes one traced,
in-process replica run that times the calls into each layer. The last line
of standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`). See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

# count_ooc's set-up, `bfly convert`, runs this many times per run.
SETUP_REPS = 3
# The first runs of the command read the fresh input and the binary in and
# run measurably slower; they are checked but stay out of `wall_s`. On the
# text workloads, which need no preparation, they are the set-up that
# `setup_s` times.
WARMUP_RUNS = 3
# A run always times at least this many processes, even past --seconds.
MIN_SAMPLES = 3

# The command of each workload. `{input}` is the generated KONECT text,
# `{bfly}` its `.bfly` conversion, `{ckpt}` a fresh checkpoint directory
# per run. `mode` is the execution mode the printed label must name, so a
# run that silently took another path is a failure, not a faster run.
WORKLOADS = {
    "count_skewed": {
        "argv": ["count", "{input}"],
        "mode": "(auto)",
    },
    "count_sparse_par": {
        "argv": ["count", "{input}", "--adaptive", "--parallel", "--threads", "2"],
        "mode": "(adaptive, parallel)",
    },
    "count_ooc": {
        "setup": ["convert", "{input}", "--out", "{out}"],
        "argv": ["count", "{bfly}", "--max-bytes", "{max_bytes}", "--checkpoint", "{ckpt}"],
        "mode": "(out-of-core, ",
    },
    "wing_decompose": {
        "argv": ["wing", "{input}", "--decompose", "--threads", "2"],
    },
}

COUNT_LINE = re.compile(r"^butterflies = (\d+)  \[(.*)\]$")
WING_LINE = re.compile(
    r"^wing decomposition: (\d+) edges, max level (\d+), (\d+) distinct nonzero levels \["
)


def fail(msg, code=1):
    """Stop without a result line."""
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def answer_ok(workload, stdout, expect):
    """Whether the first line the command printed is the reference answer."""
    first = stdout.splitlines()[0] if stdout.strip() else ""
    if workload == "wing_decompose":
        m = WING_LINE.match(first)
        want = [expect["edges"], expect["max_level"], expect["distinct_levels"]]
        return bool(m) and [int(g) for g in m.groups()] == want
    m = COUNT_LINE.match(first)
    return (
        bool(m)
        and int(m.group(1)) == expect["butterflies"]
        and WORKLOADS[workload]["mode"] in m.group(2)
    )


class Tally:
    """Attempts, failures, and the samples of the runs that succeeded."""

    def __init__(self, spawner):
        self.spawner = spawner
        self.attempted = 0
        self.failed = 0
        self.wall_s = []
        self.rss_kib = []
        self.warmup_s = []

    def run(self, argv, check, work, timed=True):
        """Spawn one run; a nonzero exit or a wrong answer is a failure
        and contributes no time. An untimed run's time goes to `warmup_s`.

        The helper binary spawns and times the process: a child's peak RSS
        starts at its parent's, and this interpreter is larger than some of
        the commands measured.
        """
        out, err = os.path.join(work, "run.out"), os.path.join(work, "run.err")
        _, s = helper([self.spawner, "spawn", out, err] + argv)
        code, wall, rss = s["exit"], s["wall_s"], s["maxrss_kib"]
        with open(out, encoding="utf-8", errors="replace") as f:
            stdout = f.read()
        self.attempted += 1
        if code != 0 or not check(stdout):
            self.failed += 1
            with open(err, encoding="utf-8", errors="replace") as f:
                detail = f.read().strip()[-500:]
            print(f"  FAILED run (exit {code}): {stdout.strip()[:200]!r} {detail}", file=sys.stderr)
            return False
        if timed:
            self.wall_s.append(wall)
            self.rss_kib.append(rss)
        else:
            self.warmup_s.append(wall)
        return True


def timed_loop(spawner, argv_for, check, seconds, work, after=lambda i: None):
    """Run the command for `seconds` (at least MIN_SAMPLES timed runs),
    after WARMUP_RUNS warm-ups, whose times go to `warmup_s`, not `wall_s`.
    Stops early once a run fails."""
    tally = Tally(spawner)
    for i in range(WARMUP_RUNS):
        ok = tally.run(argv_for(i), check, work, timed=False)
        after(i)
        if not ok:
            return tally
    i = WARMUP_RUNS
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(tally.wall_s) < MIN_SAMPLES:
        ok = tally.run(argv_for(i), check, work)
        after(i)
        i += 1
        if not ok:
            break
    return tally


def snapshot(directory):
    """Name and SHA-256 of every file in `directory`."""
    out = {}
    for name in sorted(os.listdir(directory)):
        h = hashlib.sha256()
        with open(os.path.join(directory, name), "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
        out[name] = h.hexdigest()
    return out


def build(root, env, trace):
    """Build the release CLI and the helper binaries; return the target dir.

    The replica calls the program's layer entry points, so it is built only
    for --trace 1: a reorganised API then breaks the traced run alone, never
    the end-to-end one.
    """
    bins = ["--bin", "bfly-perfbench"] + (["--bin", "bfly-replica"] if trace else [])
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "bfly-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"] + bins,
    ):
        try:
            r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        except OSError as e:
            fail(f"cannot run cargo: {e}")
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(root, env["CARGO_TARGET_DIR"], "release")


def helper(argv):
    """Run the helper crate's binary; return its stdout lines, last one parsed."""
    r = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{os.path.basename(argv[0])} {argv[1]} failed (exit {r.returncode})")
    return lines[:-1], json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", os.path.join("crates", "cli", "Cargo.toml"),
                   os.path.join("perfbench", "Cargo.toml")):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"run from the repository root: {needed} not found", code=2)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    release = build(root, env, args.trace)

    tag = f"{args.workload}-seed{args.seed}"
    work = os.path.join(root, ".bench_work", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result = measure(args, release, root, work, tag)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


def measure(args, release, root, work, tag):
    spec = WORKLOADS[args.workload]
    bfly = os.path.join(release, "bfly")
    bench = os.path.join(release, "bfly-perfbench")
    _, prep = helper([bench, "prepare", "--workload", args.workload, "--seed", str(args.seed),
                      "--dir", work])
    inputs = os.path.join(work, "inputs")
    names = {"input": prep["input"], "max_bytes": str(prep["max_bytes"])}
    setup = Tally(bench)
    if "setup" in spec:
        # count_ooc's set-up is the program's own `bfly convert`; every
        # repetition must write the same bytes.
        setup_dir = os.path.join(work, "setup")
        os.makedirs(setup_dir)
        for i in range(SETUP_REPS):
            out = os.path.join(setup_dir, f"rep{i}.bfly")
            argv = [bfly] + [a.format(out=out, **names) for a in spec["setup"]]
            if not setup.run(argv, lambda s: s.startswith("wrote "), work):
                fail("set-up failed")
        if len(set(snapshot(setup_dir).values())) != 1:
            fail("bfly convert wrote different bytes on repeated runs")
        names["bfly"] = os.path.join(inputs, "graph.bfly")
        os.replace(os.path.join(setup_dir, "rep0.bfly"), names["bfly"])
        shutil.rmtree(setup_dir)

    # Nothing a run leaves behind may reach the next one: the inputs must
    # not change, and no file may appear beside them.
    before = snapshot(inputs)
    ckpt_root = os.path.join(work, "checkpoints")

    def argv_for(i):
        ckpt = os.path.join(ckpt_root, f"run{i}")
        return [bfly] + [a.format(ckpt=ckpt, **names) for a in spec["argv"]]

    def after(i):
        shutil.rmtree(os.path.join(ckpt_root, f"run{i}"), ignore_errors=True)

    check = lambda stdout: answer_ok(args.workload, stdout, prep["expect"])
    tally = timed_loop(bench, argv_for, check, args.seconds, work, after)
    setup_s = setup.wall_s if "setup" in spec else tally.warmup_s
    isolated = snapshot(inputs) == before
    if not isolated:
        print("  FAILED: the inputs changed or gained a file during the runs", file=sys.stderr)

    attempted = tally.attempted + setup.attempted
    failed = tally.failed + setup.failed
    wall_s = statistics.median(tally.wall_s) if tally.wall_s else 0.0
    rss_mib = statistics.median(tally.rss_kib) / 1024 if tally.rss_kib else 0.0
    shown = " ".join(os.path.relpath(a, root) if a.startswith(root) else a
                     for a in argv_for(0)[1:])
    print(f"{args.workload}: bfly {shown}")
    print(f"  input: seed {args.seed}, {prep['nv1']}x{prep['nv2']}, {prep['nedges']} edges, "
          f"{prep['input_bytes']} bytes, edge checksum {prep['edge_checksum']}")
    if tally.wall_s:
        q1, q3 = quartiles(tally.wall_s)
        print(f"  wall_s      {wall_s:.4f} s    median of {len(tally.wall_s)} runs "
              f"(quartiles {q1:.4f}-{q3:.4f}, min {min(tally.wall_s):.4f}, max {max(tally.wall_s):.4f})")
        print(f"  peak_rss_mb {rss_mib:.1f} MiB   median of {len(tally.rss_kib)} runs")
    if setup_s:
        print(f"  setup_s     {statistics.median(setup_s):.4f} s    median of {len(setup_s)} "
              + ("`bfly convert` runs" if "setup" in spec else "first runs (warm-ups)"))
    print(f"  failed {failed} of {attempted} attempted runs "
          f"({WARMUP_RUNS} warm-ups outside wall_s)")

    correct = failed == 0 and isolated and bool(tally.wall_s) and bool(setup_s)
    if not args.trace:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mib, "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup_s) if setup_s else 0.0, "unit": "s"},
        }
    elif tally.wall_s:
        replica = os.path.join(release, "bfly-replica")
        q1, q3 = quartiles(tally.wall_s)
        fence = q3 + 1.5 * (q3 - q1)
        lines, traced = trace(args, prep, names, replica, root, work, tag, wall_s, fence)
        for line in lines:
            print(line)
        correct = correct and traced["correct"] and snapshot(inputs) == before
        metrics = traced["metrics"]
    else:
        metrics = {}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def trace(args, prep, names, replica, root, work, tag, wall_s, wall_fence):
    """One traced in-process replica run; its RunReport and Chrome trace
    land in .bench_out/<workload>-seed<n>/."""
    out = os.path.join(root, ".bench_out", tag)
    argv = [replica, "--workload", args.workload, "--dir", work, "--input", prep["input"],
            "--wall-s", repr(wall_s), "--wall-fence-s", repr(wall_fence), "--out", out]
    if "butterflies" in prep["expect"]:
        argv += ["--butterflies", str(prep["expect"]["butterflies"])]
    if "bfly" in names:
        argv += ["--bfly", names["bfly"], "--max-bytes", names["max_bytes"]]
    if args.workload == "wing_decompose":
        argv += ["--wing-ref", os.path.join(work, "wing_oracle.bin")]
    lines, traced = helper(argv)
    lines.append(f"  traced report: {os.path.relpath(out, root)}/report.json, "
                 "Chrome trace: trace.json")
    return lines, traced


if __name__ == "__main__":
    main()
