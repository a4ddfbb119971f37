//! `bfly-replica`: the traced half of the `bfly` benchmark, driven by
//! `perfbench/run.py --trace 1`.
//!
//! ```text
//! bfly-replica --workload W --dir DIR --input FILE --wall-s X --wall-fence-s F --out OUTDIR
//!              [--butterflies N] [--bfly FILE --max-bytes CAP] [--wing-ref FILE]
//! ```
//!
//! An in-process replica of the workload's command: it calls the layers'
//! public entry points in the order the CLI runs them for that command, each
//! inside a span this file opens on an [`InMemoryRecorder`]. The program's
//! own spans and counters (`select`, `priority_rank`, `shard`, `checkpoint`,
//! `peel_round`, `wedges_expanded`, `par_imbalance`, ...) nest under those
//! spans. A layer's self time is its span's duration minus the program spans
//! it hands to another layer ([`Replica::remap`]); everything the replica
//! does not see — process start and exit, output, teardown — is left in
//! `residual_s = wall_s − Σ self times`, with `wall_s` measured on the real
//! binary with tracing off; the replica counts as stale only when the self
//! times add up to more than the upper outlier fence of those timed runs
//! (`q3 + 1.5 × IQR`, passed as `--wall-fence-s`). End-to-end numbers never
//! come from here. It prints the per-layer table, writes the RunReport and
//! Chrome trace to OUTDIR, and prints one JSON line of per-layer metrics.

use bfly_core::adaptive::{
    execute_plan, profile_and_peel_plan_recorded, select_plan, tune_plan_chunks, ExecMode,
    GraphProfile, Member, Plan,
};
use bfly_core::peel::wing_numbers_with_chunks;
use bfly_core::telemetry::{Counter, InMemoryRecorder, Json, NoopRecorder, Recorder, SpanRow};
use bfly_core::{
    count_adaptive_parallel_recorded, count_auto_recorded, count_segmented_checkpointed_recorded,
    segmented_profile, CheckpointConfig, ResourceBudget,
};
use bfly_graph::{convert_to_bfly, is_bfly_file, BipartiteGraph, SegmentedGraph, TextFormat};
use bfly_perfbench::reference::WingSummary;
use bfly_perfbench::Workload::{self, CountOoc, CountSkewed, CountSparsePar, WingDecompose};
use bfly_perfbench::{exit_on_error, read_u64s, Args};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Linux reports `/proc/self/stat` CPU times in `USER_HZ` ticks, which is
/// 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// Span of a set-up step: traced and reported, but not part of the
/// command, so it stays out of the `residual_s` sum.
const CONVERT: &str = "bfly_format.convert";

const TEXT: &[Workload] = &[CountSkewed, CountSparsePar, WingDecompose];
const IN_MEMORY_COUNTS: &[Workload] = &[CountSkewed, CountSparsePar];
const OOC: &[Workload] = &[CountOoc];
const PEEL: &[Workload] = &[WingDecompose];
const ALL: &[Workload] = &[CountSkewed, CountSparsePar, CountOoc, WingDecompose];

/// Every per-layer metric in report order: name, unit, and the workloads
/// whose command runs its layer. There the metric must be produced; on the
/// others it reads 0. (`ordering.rank_s` also needs a plan that ranks, see
/// [`applies`].)
const METRICS: [(&str, &str, &[Workload]); 29] = [
    ("io.parse_s", "s", TEXT),
    ("io.read_amplification", "ratio", TEXT),
    ("adaptive.profile_s", "s", &[CountSparsePar, CountOoc]),
    ("adaptive.plan_s", "s", &[CountSparsePar]),
    ("adaptive.work_error", "ratio", &[CountSparsePar, CountOoc]),
    ("adaptive.regret", "ratio", IN_MEMORY_COUNTS),
    ("ordering.rank_s", "s", &[CountSparsePar]),
    ("family.kernel_s", "s", IN_MEMORY_COUNTS),
    ("family.wedges", "count", IN_MEMORY_COUNTS),
    ("family.wedges_per_s", "1/s", IN_MEMORY_COUNTS),
    ("family.accum_entries", "count", IN_MEMORY_COUNTS),
    ("family.par_imbalance", "ratio", IN_MEMORY_COUNTS),
    ("family.par_utilization", "ratio", IN_MEMORY_COUNTS),
    ("bfly_format.convert_s", "s", OOC),
    ("bfly_format.open_s", "s", OOC),
    ("bfly_format.read_syscalls", "count", OOC),
    ("bfly_format.read_amplification", "ratio", OOC),
    ("bfly_format.io_retries", "count", OOC),
    ("sharded.count_s", "s", OOC),
    ("sharded.shards", "count", OOC),
    ("sharded.wedges", "count", OOC),
    ("checkpoint.persist_s", "s", OOC),
    ("checkpoint.writes", "count", OOC),
    ("peel.plan_s", "s", PEEL),
    ("peel.decompose_s", "s", PEEL),
    ("peel.rounds", "count", PEEL),
    ("peel.supports_recomputed", "count", PEEL),
    ("peel.par_utilization", "ratio", PEEL),
    ("residual_s", "s", ALL),
];

/// Whether `workload`'s command runs the layer of metric `name`. Ranking
/// runs only for the global-order members and degree-ordered fixed plans.
fn applies(name: &str, workload: Workload, rep: &Replica) -> bool {
    let runs = METRICS
        .iter()
        .any(|&(n, _, on)| n == name && on.contains(&workload));
    let ranks = rep.rec.gauge_value("plan.member").unwrap_or(0.0) != 0.0
        || rep.rec.gauge_value("plan.degree_ordered").unwrap_or(0.0) != 0.0;
    runs && (name != "ordering.rank_s" || ranks)
}

fn unit(name: &str) -> &'static str {
    METRICS
        .iter()
        .find(|&&(n, _, _)| n == name)
        .map_or("", |&(_, u, _)| u)
}

/// Cumulative read and CPU figures of this process.
struct ProcStat {
    rchar: u64,
    syscr: u64,
    cpu_s: f64,
}

fn proc_stat() -> Result<ProcStat, String> {
    let io =
        std::fs::read_to_string("/proc/self/io").map_err(|e| format!("read /proc/self/io: {e}"))?;
    let field = |name: &str| -> Result<u64, String> {
        io.lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .ok_or_else(|| format!("/proc/self/io has no {name}"))
    };
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // utime and stime are fields 14 and 15; the command name (field 2)
    // may hold spaces, so count from the closing parenthesis (field 3 on).
    let after_comm: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| -> Result<u64, String> {
        after_comm
            .get(i)
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok(ProcStat {
        rchar: field("rchar:")?,
        syscr: field("syscr:")?,
        cpu_s: (ticks(11)? + ticks(12)?) as f64 / USER_HZ,
    })
}

/// One call the replica made into a layer, measured around its span.
struct Call {
    name: &'static str,
    wall_s: f64,
    cpu_s: f64,
    rchar: u64,
    syscr: u64,
}

/// The recorder plus the benchmark's own measurements of each call.
struct Replica {
    rec: InMemoryRecorder,
    calls: Vec<Call>,
    /// Program spans that belong to another layer than the call they run
    /// in, e.g. the `select` profile pass inside a count entry point.
    remap: &'static [(&'static str, &'static str)],
}

impl Replica {
    fn new(remap: &'static [(&'static str, &'static str)]) -> Self {
        Replica {
            rec: InMemoryRecorder::new(),
            calls: Vec::new(),
            remap,
        }
    }

    /// Run `f` inside a span named after the layer it calls into.
    fn call<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut InMemoryRecorder) -> T,
    ) -> Result<T, String> {
        let p0 = proc_stat()?;
        let t0 = Instant::now();
        self.rec.span_enter(name);
        let out = f(&mut self.rec);
        self.rec.span_exit(name);
        let wall_s = t0.elapsed().as_secs_f64();
        let p1 = proc_stat()?;
        self.calls.push(Call {
            name,
            wall_s,
            cpu_s: p1.cpu_s - p0.cpu_s,
            rchar: p1.rchar - p0.rchar,
            syscr: p1.syscr - p0.syscr,
        });
        Ok(out)
    }

    fn find(&self, name: &str) -> Option<&Call> {
        self.calls.iter().find(|c| c.name == name)
    }

    /// The main-thread span row of the call named `name`.
    fn row(&self, name: &str) -> Option<&SpanRow> {
        self.rec
            .spans()
            .iter()
            .find(|r| r.thread == 0 && r.depth == 0 && r.name == name)
    }

    /// A counter's delta inside the call named `name`.
    fn counter_in(&self, name: &str, c: Counter) -> Option<u64> {
        let row = self.row(name)?;
        Some(
            row.counters
                .iter()
                .find(|(n, _)| n == c.name())
                .map_or(0, |&(_, v)| v),
        )
    }

    /// Self time per layer over the main-thread span tree. Calls take
    /// their own wall time; each program span's self time goes to its
    /// remapped layer, or else to the layer of the span it runs in.
    fn self_times(&self) -> Result<BTreeMap<&'static str, f64>, String> {
        let mut rows: Vec<&SpanRow> = self.rec.spans().iter().filter(|r| r.thread == 0).collect();
        rows.sort_by_key(|r| (r.start_us, r.depth));
        let tops = rows.iter().filter(|r| r.depth == 0).count();
        if tops != self.calls.len() {
            return Err(format!(
                "{tops} top-level spans for {} layer calls",
                self.calls.len()
            ));
        }
        // Row index and depth of the open ancestors.
        let mut stack: Vec<(usize, u32)> = Vec::new();
        let mut layer_of: Vec<&'static str> = Vec::with_capacity(rows.len());
        let mut self_s: Vec<f64> = Vec::with_capacity(rows.len());
        let mut calls = self.calls.iter();
        for (i, r) in rows.iter().enumerate() {
            while stack.last().is_some_and(|&(_, d)| d >= r.depth) {
                stack.pop();
            }
            let (layer, dur) = match stack.last() {
                None => {
                    let call = calls.next().expect("one call per top-level span");
                    if call.name != r.name {
                        return Err(format!("span {:?} out of call order", r.name));
                    }
                    (call.name, call.wall_s)
                }
                Some(&(parent, _)) => {
                    let remapped = self.remap.iter().find(|(span, _)| *span == r.name);
                    let layer = remapped.map_or(layer_of[parent], |&(_, l)| l);
                    let dur = r.dur_us as f64 * 1e-6;
                    self_s[parent] -= dur;
                    (layer, dur)
                }
            };
            layer_of.push(layer);
            self_s.push(dur);
            stack.push((i, r.depth));
        }
        let mut out = BTreeMap::new();
        for (layer, s) in layer_of.into_iter().zip(self_s) {
            *out.entry(layer).or_insert(0.0) += s.max(0.0);
        }
        Ok(out)
    }
}

/// What the replica computed, checked against the reference.
struct Outcome {
    correct: bool,
    answer: String,
    /// Kernel time of the member the command ran ÷ the fastest candidate.
    regret: Option<f64>,
}

/// Pool with exactly `threads` workers, as the CLI's `--threads` builds.
fn pool(threads: usize) -> Result<rayon::ThreadPool, String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| format!("thread pool: {e}"))
}

fn load(rep: &mut Replica, input: &str) -> Result<BipartiteGraph, String> {
    rep.call("io.parse", |_| bfly_cli::load_graph(input, None))?
        .map_err(|e| e.to_string())
}

/// Timed runs of each candidate in [`regret`]; the median is kept.
const REGRET_REPS: usize = 3;

/// Time each candidate member on the same graph and pool size: the member
/// the command ran first, then the best-side fixed invariant, priority and
/// ranked, each set up the way the program would run it (a fixed parallel
/// plan gets its chunks tuned). Every run must reproduce the reference
/// count. Returns the command's median time ÷ the fastest median.
fn regret(g: &BipartiteGraph, command: &Plan, threads: usize, expect: u64) -> Result<f64, String> {
    let profile = GraphProfile::compute(g);
    let best_fixed = select_plan(&profile, threads > 1, threads).invariant;
    let mode = if threads > 1 {
        ExecMode::Parallel { chunks: threads }
    } else {
        ExecMode::Flat
    };
    let pool = pool(threads)?;
    let candidate = |member| {
        let mut plan = Plan {
            member,
            invariant: best_fixed,
            degree_ordered: false,
            mode,
            est_work: 0,
            est_work_alt: 0,
        };
        pool.install(|| tune_plan_chunks(g, &mut plan, &mut NoopRecorder));
        plan
    };
    let plans = [
        command.clone(),
        candidate(Member::Fixed(best_fixed)),
        candidate(Member::Priority),
        candidate(Member::Ranked),
    ];
    let mut medians = Vec::with_capacity(plans.len());
    for plan in &plans {
        let mut secs = Vec::with_capacity(REGRET_REPS);
        for _ in 0..REGRET_REPS {
            let t = Instant::now();
            let xi = pool.install(|| execute_plan(g, plan));
            secs.push(t.elapsed().as_secs_f64());
            if xi != expect {
                return Err(format!(
                    "candidate {:?} counted {xi}, reference {expect}",
                    plan.member
                ));
            }
        }
        secs.sort_by(f64::total_cmp);
        medians.push(secs[REGRET_REPS / 2]);
    }
    let fastest = medians.iter().copied().fold(f64::INFINITY, f64::min);
    Ok(medians[0] / fastest)
}

/// `bfly count G` (auto member, sequential).
fn count_skewed(rep: &mut Replica, input: &str, expect: u64) -> Result<Outcome, String> {
    let g = load(rep, input)?;
    let (xi, inv) = rep.call("family.kernel", |rec| count_auto_recorded(&g, rec))?;
    let command = Plan {
        member: Member::Fixed(inv),
        invariant: inv,
        degree_ordered: false,
        mode: ExecMode::Flat,
        est_work: 0,
        est_work_alt: 0,
    };
    Ok(Outcome {
        correct: xi == expect,
        answer: format!("butterflies = {xi}  [{inv} (auto)]"),
        regret: Some(regret(&g, &command, 1, expect)?),
    })
}

/// `bfly count G --adaptive --parallel --threads 2`: the CLI profiles and
/// plans once for its report meta, then the adaptive entry point profiles
/// and plans again inside its `select` span.
fn count_sparse_par(
    rep: &mut Replica,
    input: &str,
    threads: usize,
    expect: u64,
) -> Result<Outcome, String> {
    let g = load(rep, input)?;
    let profile = rep.call("adaptive.profile", |_| GraphProfile::compute(&g))?;
    let plan = rep.call("adaptive.plan", |_| select_plan(&profile, true, threads))?;
    let pool = pool(threads)?;
    let (xi, ran) = rep.call("family.kernel", |rec| {
        pool.install(|| count_adaptive_parallel_recorded(&g, rec))
    })?;
    let mut command = plan;
    pool.install(|| tune_plan_chunks(&g, &mut command, &mut NoopRecorder));
    if command != ran {
        return Err(format!(
            "replica plan {command:?} differs from the run's {ran:?}"
        ));
    }
    Ok(Outcome {
        correct: xi == expect,
        answer: format!(
            "butterflies = {xi}  [{:?} (adaptive, parallel)]",
            ran.member
        ),
        regret: Some(regret(&g, &command, threads, expect)?),
    })
}

/// `bfly count G.bfly --max-bytes CAP --checkpoint DIR` (fresh DIR).
fn count_ooc(
    rep: &mut Replica,
    text: &str,
    bfly: &str,
    max_bytes: u64,
    scratch: &Path,
    expect: u64,
) -> Result<Outcome, String> {
    // The workload's set-up step, traced for bfly_format.convert_s.
    let converted = scratch.join("convert.bfly");
    rep.call(CONVERT, |_| {
        convert_to_bfly(text, TextFormat::Konect, &converted)
    })?
    .map_err(|e| format!("convert: {e}"))?;
    let ckpt = scratch.join("checkpoint");
    let _ = std::fs::remove_dir_all(&ckpt);
    let sg = rep.call("bfly_format.open", |_| {
        if !is_bfly_file(bfly) {
            return Err(format!("{bfly} is not a .bfly file"));
        }
        SegmentedGraph::open(bfly).map_err(|e| e.to_string())
    })??;
    rep.call("adaptive.profile", |_| segmented_profile(&sg))?;
    let budget = ResourceBudget::unlimited().with_max_bytes(max_bytes);
    let cfg = CheckpointConfig::new(&ckpt);
    let r = rep
        .call("sharded.count", |rec| {
            count_segmented_checkpointed_recorded(&sg, None, None, &budget, Some(&cfg), rec)
        })?
        .map_err(|e| e.to_string())?;
    let (xi, plan) = r.value;
    let shards = match plan.mode {
        ExecMode::Sharded { shards } => shards,
        _ => 1,
    };
    Ok(Outcome {
        correct: r.complete && xi == expect,
        answer: format!(
            "butterflies = {xi}  [{} (out-of-core, {shards} shards)]",
            plan.invariant
        ),
        regret: None,
    })
}

/// `bfly wing G --decompose --threads 2`; the full wing-number vector is
/// compared with the oracle's.
fn wing_decompose(
    rep: &mut Replica,
    input: &str,
    threads: usize,
    oracle: &[u64],
) -> Result<Outcome, String> {
    let g = load(rep, input)?;
    let pool = pool(threads)?;
    let (_, plan) = rep.call("peel.plan", |rec| {
        profile_and_peel_plan_recorded(&g, threads, rec)
    })?;
    let numbers = rep.call("peel.decompose", |rec| {
        pool.install(|| wing_numbers_with_chunks(&g, plan.chunks, rec))
    })?;
    let s = WingSummary::of(&numbers);
    Ok(Outcome {
        correct: numbers == oracle,
        answer: format!(
            "wing decomposition: {} edges, max level {}, {} distinct nonzero levels",
            s.edges, s.max_level, s.distinct_levels
        ),
        regret: None,
    })
}

/// CPU ÷ (wall × threads) of a call.
fn utilization(c: &Call, threads: usize) -> f64 {
    c.cpu_s / (c.wall_s * threads as f64)
}

/// Per-layer metrics of a finished replica. `None` marks a metric whose
/// source never appeared although the workload runs its layer.
fn layer_metrics(
    workload: Workload,
    rep: &Replica,
    out: &Outcome,
    input_bytes: u64,
    bfly_bytes: u64,
    wall_s: f64,
) -> Result<Vec<(&'static str, Option<f64>)>, String> {
    let selfs = rep.self_times()?;
    let t = |layer: &str| selfs.get(layer).copied();
    let threads = workload.threads();
    let kernel = rep.find("family.kernel");
    let wedges = rep
        .counter_in("family.kernel", Counter::WedgesExpanded)
        .or_else(|| rep.counter_in("sharded.count", Counter::WedgesExpanded));
    let est_work = rep.rec.gauge_value("plan.est_work");
    // Every read of the `.bfly` file: the open, the profile of its degree
    // arrays, and the sharded count (only count_ooc makes that call).
    let (ooc_rchar, ooc_syscr) = ["bfly_format.open", "adaptive.profile", "sharded.count"]
        .iter()
        .filter_map(|n| rep.find(n))
        .fold((0, 0), |(b, s), c| (b + c.rchar, s + c.syscr));
    let residual = wall_s
        - selfs
            .iter()
            .filter(|(l, _)| **l != CONVERT)
            .map(|(_, s)| s)
            .sum::<f64>();
    let peel = rep.find("peel.decompose");
    let count = |name: &str, c| rep.counter_in(name, c).map(|v| v as f64);
    let mut m = vec![
        ("io.parse_s", t("io.parse")),
        (
            "io.read_amplification",
            rep.find("io.parse")
                .map(|c| c.rchar as f64 / input_bytes as f64),
        ),
        ("adaptive.profile_s", t("adaptive.profile")),
        ("adaptive.plan_s", t("adaptive.plan")),
        (
            "adaptive.work_error",
            est_work.zip(wedges).map(|(e, w)| e / w as f64),
        ),
        ("adaptive.regret", out.regret),
        ("ordering.rank_s", t("ordering.rank")),
        ("family.kernel_s", t("family.kernel")),
        (
            "family.wedges",
            count("family.kernel", Counter::WedgesExpanded),
        ),
        (
            "family.wedges_per_s",
            count("family.kernel", Counter::WedgesExpanded)
                .zip(t("family.kernel"))
                .map(|(w, s)| w / s),
        ),
        (
            "family.accum_entries",
            count("family.kernel", Counter::AccumEntries),
        ),
        (
            "family.par_imbalance",
            kernel.map(|_| rep.rec.gauge_value("par_imbalance").unwrap_or(1.0)),
        ),
        (
            "family.par_utilization",
            kernel.map(|c| utilization(c, threads)),
        ),
        ("bfly_format.convert_s", t(CONVERT)),
        ("bfly_format.open_s", t("bfly_format.open")),
        (
            "bfly_format.read_syscalls",
            rep.find("sharded.count").map(|_| ooc_syscr as f64),
        ),
        (
            "bfly_format.read_amplification",
            rep.find("sharded.count")
                .map(|_| ooc_rchar as f64 / bfly_bytes as f64),
        ),
        (
            "bfly_format.io_retries",
            count("sharded.count", Counter::IoRetries),
        ),
        ("sharded.count_s", t("sharded.count")),
        (
            "sharded.shards",
            count("sharded.count", Counter::ShardsProcessed),
        ),
        (
            "sharded.wedges",
            count("sharded.count", Counter::WedgesExpanded),
        ),
        ("checkpoint.persist_s", t("checkpoint.persist")),
        (
            "checkpoint.writes",
            count("sharded.count", Counter::CheckpointsWritten),
        ),
        ("peel.plan_s", t("peel.plan")),
        ("peel.decompose_s", t("peel.decompose")),
        ("peel.rounds", count("peel.decompose", Counter::PeelRounds)),
        (
            "peel.supports_recomputed",
            count("peel.decompose", Counter::SupportsRecomputed),
        ),
        (
            "peel.par_utilization",
            peel.map(|c| utilization(c, threads)),
        ),
        ("residual_s", Some(residual)),
    ];
    // A layer the workload does not run reads 0; one it runs must report.
    for (name, value) in &mut m {
        if !applies(name, workload, rep) {
            *value = Some(value.unwrap_or(0.0));
        }
    }
    Ok(m)
}

fn file_len(path: &str) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("stat {path}: {e}"))
}

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    exit_on_error("bfly-replica", trace(&args));
}

/// Run the replica, print the layer table, write the RunReport and Chrome
/// trace, and print the per-layer metrics.
fn trace(args: &Args) -> Result<(), String> {
    let workload = args.workload()?;
    let input = args.req("--input")?;
    let wall_s: f64 = args.num("--wall-s")?;
    let scratch = PathBuf::from(args.req("--dir")?).join("trace");
    let out_dir = PathBuf::from(args.req("--out")?);
    for d in [&scratch, &out_dir] {
        std::fs::create_dir_all(d).map_err(|e| format!("create {}: {e}", d.display()))?;
    }
    let threads = workload.threads();
    let (mut rep, outcome, bfly_bytes) = match workload {
        CountSkewed => {
            let mut rep = Replica::new(&[]);
            let o = count_skewed(&mut rep, input, args.num("--butterflies")?)?;
            (rep, o, 0)
        }
        CountSparsePar => {
            let mut rep = Replica::new(&[
                ("select", "adaptive.profile"),
                ("priority_rank", "ordering.rank"),
                ("degree_order", "ordering.rank"),
            ]);
            let o = count_sparse_par(&mut rep, input, threads, args.num("--butterflies")?)?;
            (rep, o, 0)
        }
        CountOoc => {
            let bfly = args.req("--bfly")?;
            let mut rep = Replica::new(&[
                ("select", "adaptive.profile"),
                ("checkpoint", "checkpoint.persist"),
            ]);
            let o = count_ooc(
                &mut rep,
                input,
                bfly,
                args.num("--max-bytes")?,
                &scratch,
                args.num("--butterflies")?,
            )?;
            (rep, o, file_len(bfly)?)
        }
        WingDecompose => {
            let oracle = read_u64s(Path::new(args.req("--wing-ref")?))?;
            let mut rep = Replica::new(&[]);
            let o = wing_decompose(&mut rep, input, threads, &oracle)?;
            (rep, o, 0)
        }
    };
    let metrics = layer_metrics(
        workload,
        &rep,
        &outcome,
        file_len(input)?,
        bfly_bytes,
        wall_s,
    )?;
    let _ = std::fs::remove_dir_all(&scratch);

    let residual = metrics
        .iter()
        .find(|(n, _)| *n == "residual_s")
        .and_then(|(_, v)| *v)
        .unwrap_or(0.0);
    // One traced run is one sample, and host noise alone can put it above
    // the median wall_s; only a sum past the outlier fence of the timed
    // runs marks the replica as doing work the command does not.
    let fence_s: f64 = args.num("--wall-fence-s")?;
    let layers_s = wall_s - residual;
    let stale = layers_s > fence_s;
    let missing: Vec<&str> = metrics
        .iter()
        .filter(|(_, v)| v.is_none())
        .map(|(n, _)| *n)
        .collect();
    print_table(workload, &metrics, &rep, &outcome, wall_s);
    println!(
        "  sum of layer self-times {layers_s:.6} s + residual_s {residual:.6} s = wall_s {wall_s:.6} s"
    );
    if stale {
        println!(
            "  STALE REPLICA: the layers add up to more than the outlier fence of the timed \
             runs (q3 + 1.5 IQR = {fence_s:.6} s)"
        );
    } else if residual < 0.0 {
        println!(
            "  the layers exceed the median wall_s but not the outlier fence of the timed runs \
             (q3 + 1.5 IQR = {fence_s:.6} s): host noise, not a stale replica"
        );
    }

    let meta = vec![
        ("workload".to_string(), Json::Str(format!("{workload:?}"))),
        ("input".to_string(), Json::Str(input.to_string())),
        ("threads".to_string(), Json::UInt(threads as u64)),
        ("answer".to_string(), Json::Str(outcome.answer.clone())),
        ("wall_s".to_string(), Json::Float(wall_s)),
        ("residual_s".to_string(), Json::Float(residual)),
        ("stale_replica".to_string(), Json::Bool(stale)),
    ];
    let report = rep.rec.report(meta);
    for (name, text) in [
        ("report.json", report.to_json_string()),
        ("trace.json", report.to_chrome_trace_string()),
    ] {
        let p = out_dir.join(name);
        std::fs::write(&p, text).map_err(|e| format!("write {}: {e}", p.display()))?;
    }

    if !missing.is_empty() {
        return Err(format!(
            "{workload:?}: per-layer metrics missing: {}",
            missing.join(", ")
        ));
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.correct)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|&(name, v)| {
                        (
                            name.to_string(),
                            Json::Obj(vec![
                                ("value".into(), Json::Float(v.unwrap_or(0.0))),
                                ("unit".into(), Json::Str(unit(name).to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.compact());
    Ok(())
}

fn print_table(
    workload: Workload,
    metrics: &[(&'static str, Option<f64>)],
    rep: &Replica,
    outcome: &Outcome,
    wall_s: f64,
) {
    println!(
        "traced replica of {workload:?} ({} thread(s)): {}{}",
        workload.threads(),
        outcome.answer,
        if outcome.correct {
            ""
        } else {
            "  WRONG ANSWER"
        }
    );
    println!(
        "  {:<32} {:>16}  {:<6} share of wall_s",
        "metric", "value", "unit"
    );
    for &(name, v) in metrics {
        let unit = unit(name);
        match v {
            _ if !applies(name, workload, rep) => println!("  {name:<32} {:>16}  {unit:<6}", "n/a"),
            None => println!("  {name:<32} {:>16}  {unit:<6}", "MISSING"),
            Some(v) if unit == "s" => println!(
                "  {name:<32} {v:>16.6}  {unit:<6} {:>5.1}%",
                100.0 * v / wall_s
            ),
            Some(v) => println!("  {name:<32} {v:>16.6}  {unit:<6}"),
        }
    }
}
