//! Implementation of the `bfly` command-line tool: [`parse`] turns an
//! argv into a [`Command`] and [`run`] executes it. [`USAGE`] (what
//! `bfly help` prints) lists every subcommand and flag.
//!
//! The file format is inferred from content/extension and can be forced
//! with `--format`. By default (`--algorithm auto`) a count runs the
//! adaptive planner's pick, the same plan as `--adaptive`: a fixed
//! family member, or the priority or ranked kernel when the profile
//! prices it cheaper.

use bfly_core::adaptive::{
    profile_and_peel_plan_recorded, profile_and_plan_budgeted_recorded, profile_and_plan_recorded,
    run_plan, tune_plan_chunks, ExecMode, GraphProfile, Member, PeelPlan, Plan, ShardSizing,
};
use bfly_core::baseline::{count_hash_aggregation, count_vertex_priority};
use bfly_core::peel::{
    k_tip_recorded, k_wing_recorded, tip_numbers, tip_numbers_budgeted_recorded,
    wing_numbers_budgeted_recorded,
};
use bfly_core::telemetry::{
    diff_reports, install_panic_hook, timed_span, Counter, FlightRecorder, InMemoryRecorder, Json,
    LiveBoard, Monitor, MonitorConfig, NdjsonSink, NoopRecorder, Recorder, ReportError, RunReport,
    WorkForecast, DEFAULT_FLIGHT_CAPACITY,
};
use bfly_core::{
    count_by_enumeration, count_via_spgemm, enumerate_butterflies,
    profile_and_plan_segmented_recorded, run_plan_segmented, BflyError, CheckpointConfig,
    Invariant, Partial, ResourceBudget,
};
use bfly_graph::io::{read_text_file, read_text_rank_ordered, write_edge_list, IoError};
use bfly_graph::ordering::{is_rank_ordered, rank_ordered_from_edges};
use bfly_graph::{
    convert_to_bfly, is_bfly_file, read_bfly_file, write_bfly_file, BipartiteGraph, GraphStats,
    SegmentedGraph, Side, StandIn,
};
use std::cell::{Cell, RefCell};
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

/// A parsed command, ready to run.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `bfly stats`.
    Stats {
        /// Input path.
        file: String,
        /// Forced format, if any.
        format: Option<Format>,
    },
    /// `bfly count`.
    Count {
        /// Input path.
        file: String,
        /// Forced format, if any.
        format: Option<Format>,
        /// Which counter to run.
        algorithm: Algorithm,
        /// Use the rayon-parallel family member.
        parallel: bool,
        /// Pinned thread count (0 = rayon default).
        threads: usize,
        /// Print the graph profile and the plan that runs as JSON
        /// (`"plan": null` for a baseline counter, which runs none).
        explain: bool,
        /// The telemetry flags.
        telemetry: TelemetryFlags,
        /// `--max-bytes`: cap on counting scratch memory.
        max_bytes: Option<u64>,
        /// `--max-work`: cap on the wedge-work estimate.
        max_work: Option<u64>,
        /// `--deadline-ms`: wall-clock deadline; expiry yields a partial
        /// (exact lower bound) count rather than an error.
        deadline_ms: Option<u64>,
        /// `--shards N`: shard-by-vertex-range execution with exactly N
        /// shards. On a `.bfly` input the shards stream from disk
        /// (out-of-core); on a text input they run in memory.
        shards: Option<usize>,
        /// `--shard-bytes B`: size shards so each holds roughly B bytes
        /// of on-disk payload (`.bfly` inputs only).
        shard_bytes: Option<u64>,
        /// `--checkpoint DIR`: persist each completed shard's exact
        /// partial to DIR so an interrupted run can resume (`.bfly`
        /// sharded inputs only).
        checkpoint: Option<String>,
        /// `--resume`: skip shards already checkpointed in the
        /// `--checkpoint` directory (after fingerprint validation).
        resume: bool,
    },
    /// `bfly tip`.
    Tip {
        /// Input path.
        file: String,
        /// Forced format.
        format: Option<Format>,
        /// Peeling threshold (`None` only with `--decompose`).
        k: Option<u64>,
        /// Side to peel; `None` lets `--decompose` take the adaptive
        /// peel plan's side (plain `--k` runs default to V1).
        side: Option<Side>,
        /// Compute the full tip decomposition instead of one k-tip.
        decompose: bool,
        /// Pinned thread count for `--decompose` (0 = rayon default).
        threads: usize,
        /// The telemetry flags.
        telemetry: TelemetryFlags,
    },
    /// `bfly wing`.
    Wing {
        /// Input path.
        file: String,
        /// Forced format.
        format: Option<Format>,
        /// Peeling threshold (`None` only with `--decompose`).
        k: Option<u64>,
        /// Compute the full wing decomposition instead of one k-wing.
        decompose: bool,
        /// Pinned thread count for `--decompose` (0 = rayon default).
        threads: usize,
        /// The telemetry flags.
        telemetry: TelemetryFlags,
    },
    /// `bfly tip-numbers`.
    TipNumbers {
        /// Input path.
        file: String,
        /// Forced format.
        format: Option<Format>,
        /// Side to decompose.
        side: Side,
        /// How many top vertices to print.
        top: usize,
    },
    /// `bfly enumerate`.
    Enumerate {
        /// Input path.
        file: String,
        /// Forced format.
        format: Option<Format>,
        /// Maximum butterflies to list.
        limit: usize,
    },
    /// `bfly generate`.
    Generate {
        /// Generator kind.
        kind: GenKind,
        /// Output path (0-based edge list).
        out: String,
    },
    /// `bfly metrics` — butterflies, wedges, caterpillars, clustering.
    Metrics {
        /// Input path.
        file: String,
        /// Forced format.
        format: Option<Format>,
    },
    /// `bfly pairs` — heaviest butterfly pairs.
    Pairs {
        /// Input path.
        file: String,
        /// Forced format.
        format: Option<Format>,
        /// Side to pair.
        side: Side,
        /// How many pairs to print.
        top: usize,
    },
    /// `bfly components` — connected-component summary.
    Components {
        /// Input path.
        file: String,
        /// Forced format.
        format: Option<Format>,
    },
    /// `bfly core` — (k, l)-core reduction.
    Core {
        /// Input path.
        file: String,
        /// Forced format.
        format: Option<Format>,
        /// V1 degree threshold.
        k: usize,
        /// V2 degree threshold.
        l: usize,
    },
    /// `bfly convert` — rewrite in another format.
    Convert {
        /// Input path.
        file: String,
        /// Forced input format.
        format: Option<Format>,
        /// Output path; format from extension (`.mtx` → MatrixMarket,
        /// else 0-based edge list).
        out: String,
    },
    /// `bfly report` — inspect and compare saved [`RunReport`]s.
    Report {
        /// Which report operation to run.
        action: ReportAction,
    },
    /// `bfly help` / `--help`.
    Help,
}

/// The telemetry flags `count`, `tip` and `wing` share. With none given
/// the command runs against [`NoopRecorder`]. The run's one final output
/// is its `--report`; `bfly report` renders it (`show`, `trace`, `flame`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryFlags {
    /// `--report FILE`: write a machine-readable [`RunReport`].
    pub report: Option<String>,
    /// `--stream FILE|-`: stream NDJSON telemetry events live; `-`
    /// streams to stdout (human output moves to stderr).
    pub stream: Option<String>,
    /// `--progress`: render a live TTY-aware progress/ETA line on
    /// stderr, driven by a background monitor thread.
    pub progress: bool,
    /// `--flight-recorder FILE`: keep a ring of recent telemetry events
    /// and dump it (plus a final snapshot) on panic or deadline
    /// truncation.
    pub flight_recorder: Option<String>,
}

impl TelemetryFlags {
    fn parse(args: &Args) -> Self {
        let path = |name: &str| args.flag(name).map(str::to_string);
        TelemetryFlags {
            report: path("report"),
            stream: path("stream"),
            progress: args.has("progress"),
            flight_recorder: path("flight-recorder"),
        }
    }
}

/// Operations on saved run reports (`bfly report <verb> ...`).
#[derive(Debug, Clone, PartialEq)]
pub enum ReportAction {
    /// Pretty-print a report (`bfly report show RUN.json`).
    Show {
        /// Report path.
        file: String,
    },
    /// Compare two reports, gating on counter drift
    /// (`bfly report diff BASE.json NEW.json [--threshold PCT] [--hist]`).
    Diff {
        /// Baseline report path.
        base: String,
        /// Candidate report path.
        new: String,
        /// Maximum tolerated counter drift, in percent.
        threshold: f64,
        /// `--hist`: also gate histogram p50/p99 quantiles.
        hist: bool,
        /// `--hist-tolerance PCT`: quantile drift tolerance (timing
        /// quantiles are noisier than counters, so they get their own
        /// knob; only applied with `--hist`).
        hist_tolerance: f64,
        /// `--gauges`: also gate gauge drift (except `span.*` wall-clock
        /// gauges, which stay informational).
        gauges: bool,
        /// `--gauge-tolerance PCT`: gauge drift tolerance (only applied
        /// with `--gauges`).
        gauge_tolerance: f64,
    },
    /// Render a self-contained HTML flame view of the span timeline
    /// (`bfly report flame RUN.json -o FILE`).
    Flame {
        /// Report path.
        file: String,
        /// Output HTML path.
        out: String,
    },
    /// Write the span timeline as Chrome Trace Event JSON, one track per
    /// worker (`bfly report trace RUN.json -o FILE`).
    Trace {
        /// Report path.
        file: String,
        /// Output JSON path.
        out: String,
    },
}

/// Input file formats: the text dialects every loader and `convert` read.
pub use bfly_graph::TextFormat as Format;

/// Counting algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// The default: the same planner as [`Algorithm::Adaptive`], labelled
    /// `auto`.
    Auto,
    /// Profile-driven cost model ([`bfly_core::adaptive`]): partition side
    /// by wedge-work estimate, degree ordering, balanced parallel chunks.
    Adaptive,
    /// A specific family member.
    Family(Invariant),
    /// SpGEMM specification counter.
    Spgemm,
    /// Hash-aggregation baseline.
    Hash,
    /// Vertex-priority baseline.
    VertexPriority,
    /// Vertex-priority engine kernel ([`bfly_core::count_priority`]):
    /// global degree-descending order, each wedge expanded once from its
    /// highest-priority endpoint.
    Priority,
    /// Ranked wedge-aggregation engine kernel
    /// ([`bfly_core::count_ranked`]): the priority wedge set in rank
    /// order through weight-balanced flat SPA buckets.
    Ranked,
    /// Full enumeration (small graphs!).
    Enumerate,
}

/// Generator configuration for `bfly generate`.
#[derive(Debug, Clone, PartialEq)]
pub enum GenKind {
    /// Uniform random with exact edge count.
    Uniform {
        /// `|V1|`.
        m: usize,
        /// `|V2|`.
        n: usize,
        /// `|E|`.
        edges: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Bipartite Chung–Lu.
    ChungLu {
        /// `|V1|`.
        m: usize,
        /// `|V2|`.
        n: usize,
        /// `|E|`.
        edges: usize,
        /// V1 power-law exponent.
        exp1: f64,
        /// V2 power-law exponent.
        exp2: f64,
        /// RNG seed.
        seed: u64,
    },
    /// A KONECT stand-in by name.
    StandIn {
        /// Dataset name (case-insensitive prefix match).
        name: String,
        /// Scale in (0, 1].
        scale: f64,
    },
}

/// Error classes, each mapped to a documented process exit code so
/// scripts and CI can dispatch on *why* a run failed without scraping
/// stderr (see `docs/ROBUSTNESS.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Bad command line: unknown subcommand, flag, or flag value. Exit 2.
    Usage,
    /// An input file (graph or report) failed to parse or validate. Exit 3.
    Parse,
    /// A resource budget refused the run with no cheaper fallback. Exit 4.
    Budget,
    /// A butterfly count exceeded `u64`. Exit 5.
    Overflow,
    /// Everything else: I/O, thread pool, a failed diff gate. Exit 1.
    Runtime,
}

impl ErrorClass {
    /// The process exit code for this class.
    pub fn exit_code(self) -> i32 {
        match self {
            ErrorClass::Runtime => 1,
            ErrorClass::Usage => 2,
            ErrorClass::Parse => 3,
            ErrorClass::Budget => 4,
            ErrorClass::Overflow => 5,
        }
    }

    /// Stable lower-case name used in `--json-errors` output.
    pub fn name(self) -> &'static str {
        match self {
            ErrorClass::Runtime => "runtime",
            ErrorClass::Usage => "usage",
            ErrorClass::Parse => "parse",
            ErrorClass::Budget => "budget",
            ErrorClass::Overflow => "overflow",
        }
    }
}

/// Errors from parsing or execution, carrying the class that decides
/// the process exit code.
#[derive(Debug)]
pub struct CliError {
    /// Exit-code class.
    pub class: ErrorClass,
    /// Human-readable message.
    pub msg: String,
    /// Estimated fraction of the predicted work that completed before
    /// the failure, when a liveness monitor was watching the run
    /// (surfaced as `"fraction_complete"` under `--json-errors`).
    pub fraction: Option<f64>,
}

impl CliError {
    /// Process exit code (`1` runtime, `2` usage, `3` parse, `4` budget,
    /// `5` overflow).
    pub fn exit_code(&self) -> i32 {
        self.class.exit_code()
    }

    /// Annotate the completed-work fraction measured at failure time.
    pub fn with_fraction(mut self, fraction: Option<f64>) -> Self {
        if self.fraction.is_none() {
            self.fraction = fraction;
        }
        self
    }

    /// The one machine-readable stderr line emitted under `--json-errors`:
    /// `{"class": "...", "exit_code": N, "message": "..."}` plus
    /// `"fraction_complete"` when the run's progress at failure is known.
    pub fn to_json_line(&self) -> String {
        let mut obj = vec![
            (
                "class".to_string(),
                Json::Str(self.class.name().to_string()),
            ),
            ("exit_code".to_string(), Json::UInt(self.exit_code() as u64)),
            ("message".to_string(), Json::Str(self.msg.clone())),
        ];
        if let Some(f) = self.fraction {
            obj.push(("fraction_complete".to_string(), Json::Float(f)));
        }
        Json::Obj(obj).compact()
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for CliError {}

impl From<BflyError> for CliError {
    fn from(e: BflyError) -> Self {
        let class = match &e {
            BflyError::BudgetExceeded { .. } => ErrorClass::Budget,
            BflyError::CountOverflow { .. } => ErrorClass::Overflow,
            BflyError::InvalidGraph { .. }
            | BflyError::Io(IoError::Parse { .. })
            | BflyError::Io(IoError::Format(_))
            | BflyError::Report(_) => ErrorClass::Parse,
            BflyError::Io(IoError::Io(_)) | BflyError::Sparse(_) => ErrorClass::Runtime,
        };
        CliError {
            class,
            msg: e.to_string(),
            fraction: None,
        }
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError {
        class: ErrorClass::Runtime,
        msg: msg.into(),
        fraction: None,
    }
}

fn classified(class: ErrorClass, msg: impl Into<String>) -> CliError {
    CliError {
        class,
        msg: msg.into(),
        fraction: None,
    }
}

/// Whether this command will write NDJSON telemetry events to stdout
/// (`--stream -`). The binary routes human-readable output to stderr in
/// that case so the event stream stays machine-parseable.
pub fn streams_to_stdout(cmd: &Command) -> bool {
    match cmd {
        Command::Count { telemetry, .. }
        | Command::Tip { telemetry, .. }
        | Command::Wing { telemetry, .. } => telemetry.stream.as_deref() == Some("-"),
        _ => false,
    }
}

/// The byte-tracking global allocator, re-exported so the binary can
/// install it with `#[global_allocator]` (feature `alloc-track`).
#[cfg(feature = "alloc-track")]
pub use bfly_core::telemetry::mem::TrackingAllocator;

/// Strip every `--json-errors` occurrence from a raw argv, returning
/// whether the flag was present. Handled before subcommand parsing so
/// parse errors themselves can honour it (see `main.rs`).
pub fn take_json_errors(args: &mut Vec<String>) -> bool {
    let before = args.len();
    args.retain(|a| a != "--json-errors");
    args.len() != before
}

/// Usage text.
pub const USAGE: &str = "\
bfly — butterfly counting and peeling for bipartite graphs

USAGE:
  bfly stats       <file> [--format konect|edgelist|mtx]
  bfly count       <file> [--algorithm auto|adaptive|inv1..inv8|spgemm|hash|vp|enum|priority|ranked]
                          [--member priority|ranked]
                          [--adaptive] [--explain] [--parallel] [--threads N]
                          [--max-bytes B] [--max-work W] [--deadline-ms MS]
                          [--shards N] [--shard-bytes B]
                          [--checkpoint DIR] [--resume]
                          [--format ...] [--report FILE] [--stream FILE|-]
                          [--progress] [--flight-recorder FILE]
  bfly tip         <file> (--k K | --decompose) [--side v1|v2] [--threads N]
                          [--format ...] [--report FILE] [--stream FILE|-]
                          [--progress] [--flight-recorder FILE]
  bfly wing        <file> (--k K | --decompose) [--threads N]
                          [--format ...] [--report FILE] [--stream FILE|-]
                          [--progress] [--flight-recorder FILE]
  bfly tip-numbers <file> [--side v1|v2] [--top N] [--format ...]
  bfly enumerate   <file> [--limit N] [--format ...]
  bfly generate    --kind uniform|chunglu|standin --out FILE
                   uniform, chunglu: [--m M --n N --edges E --seed S]
                   chunglu: [--exp1 X --exp2 Y]; standin: --name NAME [--scale S]
  bfly metrics     <file> [--format ...]
  bfly pairs       <file> [--side v1|v2] [--top N] [--format ...]
  bfly components  <file> [--format ...]
  bfly core        <file> --k K --l L [--format ...]
  bfly convert     <file> --out FILE [--format ...]
  bfly report show    RUN.json
  bfly report diff    BASE.json NEW.json [--threshold PCT]
                      [--hist] [--hist-tolerance PCT]
                      [--gauges] [--gauge-tolerance PCT]
  bfly report flame   RUN.json -o FILE
  bfly report trace   RUN.json -o FILE
  bfly help

Budget flags route `count` through the adaptive planner, degrading the
plan (fewer chunks, flat kernel, no degree ordering) before refusing.
A --max-bytes cap below the resident graph selects the out-of-core
sharded tier on `.bfly` inputs (see `bfly convert <in> --out <out.bfly>`):
the count streams wedge-balanced vertex-range shards off the file,
merging per-shard partials exactly. --shards / --shard-bytes pick the
shard count or on-disk shard size directly. Every command reads
`.bfly` files; only `count` executes them out-of-core.

--checkpoint DIR persists each completed shard's exact partial to DIR
(atomic, checksummed records keyed by a graph+plan fingerprint); after
a crash, rerunning with --resume skips the checkpointed shards and
merges their saved partials bitwise-exactly. A fingerprint mismatch
(edited graph, different invariant or shard layout) is a typed refusal
(exit 3), never a silent wrong count. Both flags need the out-of-core
sharded tier (`.bfly` input with --shards / --shard-bytes /
--max-bytes).

--report FILE writes the run's report: counters, gauges, spans and
histograms as JSON. `bfly report` renders a saved report: `show` prints
its table, `trace` writes Chrome Trace Event JSON (chrome://tracing,
Perfetto) with one track per worker, `flame` a self-contained HTML
flame view, and `diff` compares two reports, failing (exit 1) when a
counter drifts past the threshold.

--stream emits one NDJSON telemetry event per line as the run
progresses (flushed per line); `--stream -` uses stdout and moves the
human summary to stderr. --progress renders a live progress/ETA line
on stderr and arms a stall watchdog (a `stall` event plus a stderr
warning when no work counter advances; the run is never killed);
--flight-recorder FILE keeps a ring of recent events and dumps it with
a final metrics snapshot on panic or deadline truncation. Monitor
knobs: BFLY_MONITOR_INTERVAL_MS (default 200) and BFLY_STALL_INTERVALS
(default 5).

A flag the subcommand does not take is a usage error (exit 2).
Global: --json-errors replaces the human stderr message with one
machine-readable JSON line {\"class\", \"exit_code\", \"message\"}.

Exit codes: 0 ok, 1 runtime, 2 usage, 3 parse, 4 budget, 5 overflow.
";

/// A subcommand's argv: positionals and `--name [value]` flags. The
/// parser records every flag name and how many positionals it asks for,
/// so [`Args::finish`] can refuse the arguments it never reads.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
    asked: RefCell<Vec<String>>,
    /// One past the highest positional index asked for.
    asked_pos: Cell<usize>,
    /// The first missing flag value or positional, reported after the
    /// unknown-flag check: a stray flag that took the next token as its
    /// value is the likelier fault.
    missing: RefCell<Option<String>>,
}

fn split_args(args: &[String]) -> Args {
    let mut a = Args {
        positional: Vec::new(),
        flags: Vec::new(),
        asked: RefCell::default(),
        asked_pos: Cell::default(),
        missing: RefCell::default(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = match arg.strip_prefix("--") {
            // The binary handles --json-errors before parsing.
            Some("json-errors") => continue,
            Some(name) => name,
            None if arg == "-o" => "out",
            None => {
                a.positional.push(arg.clone());
                continue;
            }
        };
        // Boolean flags take no value; everything else consumes one.
        let boolean = matches!(
            name,
            "parallel"
                | "help"
                | "adaptive"
                | "explain"
                | "decompose"
                | "hist"
                | "progress"
                | "gauges"
                | "resume"
        );
        let value = if boolean { None } else { it.next().cloned() };
        if !boolean && value.is_none() {
            a.miss(format!("flag {arg} needs a value"));
        }
        a.flags.push((name.to_string(), value));
    }
    a
}

impl Args {
    fn flag(&self, name: &str) -> Option<&str> {
        self.asked.borrow_mut().push(name.to_string());
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }
    fn has(&self, name: &str) -> bool {
        self.asked.borrow_mut().push(name.to_string());
        self.flags.iter().any(|(n, _)| n == name)
    }
    fn parse_flag<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("bad value for --{name}: {v:?}"))),
        }
    }
    /// The `i`th positional, if given.
    fn pos_opt(&self, i: usize) -> Option<&str> {
        self.asked_pos.set(self.asked_pos.get().max(i + 1));
        self.positional.get(i).map(String::as_str)
    }
    /// The `i`th positional; when absent, `""`, with `missing` kept for
    /// [`Args::finish`].
    fn pos(&self, i: usize, missing: &str) -> String {
        self.pos_opt(i).map(str::to_string).unwrap_or_else(|| {
            self.miss(missing.to_string());
            String::new()
        })
    }
    fn miss(&self, msg: String) {
        self.missing.borrow_mut().get_or_insert(msg);
    }
    /// Settle a parsed subcommand. The parse asked for every flag and
    /// positional it reads, so any other flag fails it, by name; then a
    /// positional past the last one asked for; then a missing value or
    /// positional.
    fn finish(&self, sub: &str, cmd: Command) -> Result<Command, CliError> {
        let asked = self.asked.borrow();
        if let Some((name, _)) = self.flags.iter().find(|(n, _)| !asked.contains(n)) {
            return Err(err(format!(
                "unknown flag --{name} for `bfly {sub}` (see `bfly help`)"
            )));
        }
        if let Some(extra) = self.positional.get(self.asked_pos.get()) {
            return Err(err(format!(
                "unexpected argument {extra:?} for `bfly {sub}` (see `bfly help`)"
            )));
        }
        match self.missing.take() {
            Some(msg) => Err(err(msg)),
            None => Ok(cmd),
        }
    }
}

fn parse_format(s: &str) -> Result<Format, CliError> {
    match s {
        "konect" => Ok(Format::Konect),
        "edgelist" | "tsv" => Ok(Format::EdgeList),
        "mtx" | "matrixmarket" => Ok(Format::MatrixMarket),
        _ => Err(err(format!("unknown format {s:?}"))),
    }
}

fn parse_side(s: &str) -> Result<Side, CliError> {
    match s {
        "v1" | "V1" => Ok(Side::V1),
        "v2" | "V2" => Ok(Side::V2),
        _ => Err(err(format!("unknown side {s:?} (use v1 or v2)"))),
    }
}

fn parse_algorithm(s: &str) -> Result<Algorithm, CliError> {
    match s {
        "auto" => Ok(Algorithm::Auto),
        "adaptive" => Ok(Algorithm::Adaptive),
        "spgemm" => Ok(Algorithm::Spgemm),
        "hash" => Ok(Algorithm::Hash),
        "vp" | "vertex-priority" => Ok(Algorithm::VertexPriority),
        "priority" => Ok(Algorithm::Priority),
        "ranked" => Ok(Algorithm::Ranked),
        "enum" | "enumerate" => Ok(Algorithm::Enumerate),
        _ => {
            if let Some(nstr) = s.strip_prefix("inv") {
                let n: usize = nstr
                    .parse()
                    .map_err(|_| err(format!("bad invariant {s:?}")))?;
                Invariant::ALL
                    .into_iter()
                    .find(|i| i.number() == n)
                    .map(Algorithm::Family)
                    .ok_or_else(|| err(format!("invariant number out of range: {n}")))
            } else {
                Err(err(format!("unknown algorithm {s:?}")))
            }
        }
    }
}

/// Parse a full argv (excluding the program name) into a [`Command`].
/// Every failure is [`ErrorClass::Usage`] (exit 2).
pub fn parse(argv: &[String]) -> Result<Command, CliError> {
    parse_inner(argv).map_err(|e| classified(ErrorClass::Usage, e.msg))
}

fn parse_inner(argv: &[String]) -> Result<Command, CliError> {
    let Some(sub) = argv.first().map(String::as_str) else {
        return Ok(Command::Help);
    };
    let rest = split_args(&argv[1..]);
    if rest.has("help") {
        return Ok(Command::Help);
    }
    let format = || rest.flag("format").map(parse_format).transpose();
    let file = || rest.pos(0, "missing <file> argument");
    let cmd = match sub {
        "help" | "--help" | "-h" => return Ok(Command::Help),
        "stats" => Ok(Command::Stats {
            file: file(),
            format: format()?,
        }),
        "count" => {
            let opt_u64 = |name: &str| -> Result<Option<u64>, CliError> {
                match rest.flag(name) {
                    None => Ok(None),
                    Some(v) => v
                        .parse()
                        .map(Some)
                        .map_err(|_| err(format!("bad value for --{name}: {v:?}"))),
                }
            };
            let max_bytes = opt_u64("max-bytes")?;
            let max_work = opt_u64("max-work")?;
            let deadline_ms = opt_u64("deadline-ms")?;
            let shards = match opt_u64("shards")? {
                Some(0) => return Err(err("--shards must be at least 1")),
                s => s.map(|v| v as usize),
            };
            let shard_bytes = match opt_u64("shard-bytes")? {
                Some(0) => return Err(err("--shard-bytes must be at least 1")),
                s => s,
            };
            let budgeted = max_bytes.is_some() || max_work.is_some() || deadline_ms.is_some();
            let named = rest.flag("algorithm");
            let algorithm = match (rest.has("adaptive"), named) {
                (true, _) => Algorithm::Adaptive,
                (false, Some(a)) => parse_algorithm(a)?,
                (false, None) => Algorithm::Auto,
            };
            // --member is the engine-kernel spelling from the adaptive
            // vocabulary: sugar for --algorithm priority|ranked, rejected
            // when an algorithm was also named explicitly.
            let algorithm = match rest.flag("member") {
                None => algorithm,
                Some(m) => {
                    if named.is_some() || rest.has("adaptive") {
                        return Err(err(
                            "--member conflicts with --algorithm/--adaptive; pick one spelling",
                        ));
                    }
                    match m {
                        "priority" => Algorithm::Priority,
                        "ranked" => Algorithm::Ranked,
                        other => {
                            return Err(err(format!(
                                "unknown member {other:?} (use priority or ranked)"
                            )))
                        }
                    }
                }
            };
            // Budgets and sharding run through the adaptive planner, so
            // they imply --adaptive; a fixed algorithm has nothing to
            // degrade to and no partition plan to shard.
            let sharded = shards.is_some() || shard_bytes.is_some();
            let algorithm = match (budgeted || sharded, algorithm) {
                (true, Algorithm::Auto) | (true, Algorithm::Adaptive) => Algorithm::Adaptive,
                (true, other) => {
                    return Err(err(format!(
                        "--max-bytes/--max-work/--deadline-ms/--shards/--shard-bytes run \
                         through the adaptive planner; drop --algorithm {other:?} or use \
                         --algorithm adaptive"
                    )))
                }
                (false, a) => a,
            };
            let checkpoint = rest.flag("checkpoint").map(str::to_string);
            let resume = rest.has("resume");
            if resume && checkpoint.is_none() {
                return Err(err("--resume needs --checkpoint DIR to resume from"));
            }
            if checkpoint.is_some() && !(sharded || max_bytes.is_some()) {
                return Err(err(
                    "--checkpoint only applies to the out-of-core sharded tier; \
                     add --shards/--shard-bytes (or --max-bytes) on a .bfly input",
                ));
            }
            Ok(Command::Count {
                file: file(),
                format: format()?,
                algorithm,
                parallel: rest.has("parallel"),
                threads: rest.parse_flag("threads", 0usize)?,
                explain: rest.has("explain"),
                telemetry: TelemetryFlags::parse(&rest),
                max_bytes,
                max_work,
                deadline_ms,
                shards,
                shard_bytes,
                checkpoint,
                resume,
            })
        }
        "tip" => {
            let decompose = rest.has("decompose");
            Ok(Command::Tip {
                file: file(),
                format: format()?,
                k: match rest.flag("k") {
                    Some(v) => Some(v.parse().map_err(|_| err("bad --k"))?),
                    None if decompose => None,
                    None => return Err(err("tip requires --k (or --decompose)")),
                },
                side: match rest.flag("side") {
                    Some(s) => Some(parse_side(s)?),
                    None => None,
                },
                decompose,
                threads: rest.parse_flag("threads", 0usize)?,
                telemetry: TelemetryFlags::parse(&rest),
            })
        }
        "wing" => {
            let decompose = rest.has("decompose");
            Ok(Command::Wing {
                file: file(),
                format: format()?,
                k: match rest.flag("k") {
                    Some(v) => Some(v.parse().map_err(|_| err("bad --k"))?),
                    None if decompose => None,
                    None => return Err(err("wing requires --k (or --decompose)")),
                },
                decompose,
                threads: rest.parse_flag("threads", 0usize)?,
                telemetry: TelemetryFlags::parse(&rest),
            })
        }
        "tip-numbers" => Ok(Command::TipNumbers {
            file: file(),
            format: format()?,
            side: match rest.flag("side") {
                Some(s) => parse_side(s)?,
                None => Side::V1,
            },
            top: rest.parse_flag("top", 10usize)?,
        }),
        "enumerate" => Ok(Command::Enumerate {
            file: file(),
            format: format()?,
            limit: rest.parse_flag("limit", 100usize)?,
        }),
        "generate" => {
            let out = rest
                .flag("out")
                .ok_or_else(|| err("generate requires --out"))?
                .to_string();
            let kind = match rest.flag("kind") {
                Some("uniform") => GenKind::Uniform {
                    m: rest.parse_flag("m", 1000usize)?,
                    n: rest.parse_flag("n", 1000usize)?,
                    edges: rest.parse_flag("edges", 5000usize)?,
                    seed: rest.parse_flag("seed", 42u64)?,
                },
                Some("chunglu") => GenKind::ChungLu {
                    m: rest.parse_flag("m", 1000usize)?,
                    n: rest.parse_flag("n", 1000usize)?,
                    edges: rest.parse_flag("edges", 5000usize)?,
                    exp1: rest.parse_flag("exp1", 0.7f64)?,
                    exp2: rest.parse_flag("exp2", 0.7f64)?,
                    seed: rest.parse_flag("seed", 42u64)?,
                },
                Some("standin") => GenKind::StandIn {
                    name: rest
                        .flag("name")
                        .ok_or_else(|| err("standin requires --name"))?
                        .to_string(),
                    scale: rest.parse_flag("scale", 0.1f64)?,
                },
                Some(other) => return Err(err(format!("unknown generator kind {other:?}"))),
                None => return Err(err("generate requires --kind")),
            };
            Ok(Command::Generate { kind, out })
        }
        "metrics" => Ok(Command::Metrics {
            file: file(),
            format: format()?,
        }),
        "pairs" => Ok(Command::Pairs {
            file: file(),
            format: format()?,
            side: match rest.flag("side") {
                Some(s) => parse_side(s)?,
                None => Side::V1,
            },
            top: rest.parse_flag("top", 10usize)?,
        }),
        "components" => Ok(Command::Components {
            file: file(),
            format: format()?,
        }),
        "core" => Ok(Command::Core {
            file: file(),
            format: format()?,
            k: rest.parse_flag("k", 2usize)?,
            l: rest.parse_flag("l", 2usize)?,
        }),
        "convert" => Ok(Command::Convert {
            file: file(),
            format: format()?,
            out: rest
                .flag("out")
                .ok_or_else(|| err("convert requires --out"))?
                .to_string(),
        }),
        "report" => {
            let pos = |i: usize, what: &str| rest.pos(i, &format!("report {what}"));
            let verb = rest
                .pos_opt(0)
                .ok_or_else(|| err("report requires a verb: show, diff, flame, or trace"))?;
            let out = || match rest.flag("out") {
                Some(path) => Ok(path.to_string()),
                None => Err(err(format!("report {verb} requires -o/--out FILE"))),
            };
            let action = match verb {
                "show" => ReportAction::Show {
                    file: pos(1, "show requires a report file"),
                },
                "diff" => ReportAction::Diff {
                    base: pos(1, "diff requires BASE.json and NEW.json"),
                    new: pos(2, "diff requires BASE.json and NEW.json"),
                    threshold: rest.parse_flag("threshold", 10.0f64)?,
                    hist: rest.has("hist"),
                    hist_tolerance: rest.parse_flag("hist-tolerance", 25.0f64)?,
                    gauges: rest.has("gauges"),
                    gauge_tolerance: rest.parse_flag("gauge-tolerance", 25.0f64)?,
                },
                "flame" => ReportAction::Flame {
                    file: pos(1, "flame requires a report file"),
                    out: out()?,
                },
                "trace" => ReportAction::Trace {
                    file: pos(1, "trace requires a report file"),
                    out: out()?,
                },
                other => {
                    return Err(err(format!(
                        "unknown report verb {other:?} (use show, diff, flame, or trace)"
                    )))
                }
            };
            Ok(Command::Report { action })
        }
        other => Err(err(format!("unknown subcommand {other:?}\n\n{USAGE}"))),
    }?;
    rest.finish(sub, cmd)
}

/// Load a graph, sniffing the format when not forced. `.bfly` files
/// (detected by magic, not extension) load through the binary reader —
/// every command accepts them; `count` can additionally execute them
/// out-of-core without this full materialisation (`--shards`,
/// `--shard-bytes`, or a byte budget).
pub fn load_graph(path: &str, format: Option<Format>) -> Result<BipartiteGraph, CliError> {
    if format.is_none() && is_bfly_file(path) {
        return read_bfly_file(path).map_err(|e| io_error(format!("failed to load {path}"), e));
    }
    let fmt = format.map_or_else(|| sniff_format(path), Ok)?;
    read_text_file(path, fmt).map_err(|e| io_error(format!("failed to load {path}"), e))
}

/// Load a graph for `count`, rank-ordered
/// ([`rank_ordered_from_edges`]): both sides renumbered so ids rise
/// with the global degree rank, which lets the priority and ranked
/// kernels scan only their wedges. A text file's parsed edges are
/// renumbered before the one CSR build; a `.bfly` graph is consumed
/// into its edge list first. Either way the input labelling and the rank
/// order are never resident as two graphs. The butterfly count is the
/// same under any labelling.
fn load_rank_ordered(path: &str, format: Option<Format>) -> Result<BipartiteGraph, CliError> {
    let failed = |e| io_error(format!("failed to load {path}"), e);
    if format.is_none() && is_bfly_file(path) {
        let g = read_bfly_file(path).map_err(failed)?;
        if is_rank_ordered(&g) {
            return Ok(g);
        }
        let (nv1, nv2) = (g.nv1(), g.nv2());
        return Ok(rank_ordered_from_edges(nv1, nv2, g.into_edges())
            .expect("a graph's own edges are in range"));
    }
    let fmt = format.map_or_else(|| sniff_format(path), Ok)?;
    let file = std::fs::File::open(path).map_err(|e| failed(e.into()))?;
    read_text_rank_ordered(file, fmt).map_err(failed)
}

/// A graph I/O failure as a CLI error: parse class (exit 3) for
/// malformed input, runtime class (exit 1) for the I/O itself.
fn io_error(what: String, e: IoError) -> CliError {
    let class = match &e {
        IoError::Parse { .. } | IoError::Format(_) => ErrorClass::Parse,
        IoError::Io(_) => ErrorClass::Runtime,
    };
    classified(class, format!("{what}: {e}"))
}

fn sniff_format(path: &str) -> Result<Format, CliError> {
    let p = Path::new(path);
    if p.extension().and_then(|e| e.to_str()) == Some("mtx") {
        return Ok(Format::MatrixMarket);
    }
    // Only the head decides: read at most 64 bytes, so the parser that
    // follows is the only full pass over the file.
    let mut head = Vec::with_capacity(64);
    std::fs::File::open(path)
        .and_then(|f| f.take(64).read_to_end(&mut head))
        .map_err(|e| err(format!("cannot read {path}: {e}")))?;
    if head.starts_with(b"%%MatrixMarket") {
        Ok(Format::MatrixMarket)
    } else if p
        .file_name()
        .and_then(|f| f.to_str())
        .map(|f| f.starts_with("out."))
        .unwrap_or(false)
    {
        Ok(Format::Konect)
    } else {
        Ok(Format::EdgeList)
    }
}

/// Parse a `u64` environment knob, falling back to `default` when the
/// variable is unset or unparseable.
fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Deterministic fault-injection hooks for the CI liveness smoke job
/// (documented in docs/OBSERVABILITY.md): `BFLY_FAULT_SLEEP_MS` sleeps
/// the main thread mid-run so the stall watchdog observably fires, and
/// `BFLY_FAULT_PANIC=1` panics so the flight-recorder panic hook
/// observably dumps. Both are no-ops unless the variables are set.
fn fault_injection() {
    if let Some(ms) = std::env::var("BFLY_FAULT_SLEEP_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
    if std::env::var("BFLY_FAULT_PANIC").as_deref() == Ok("1") {
        panic!("fault injection: BFLY_FAULT_PANIC=1");
    }
}

/// The telemetry plumbing shared by every instrumented subcommand: one
/// [`InMemoryRecorder`] behind every flag, decided once. `--stream`
/// attaches its NDJSON sink. `--progress` and `--flight-recorder` attach
/// a [`LiveBoard`], which a background [`Monitor`] samples for
/// heartbeats, the stall watchdog and the progress line, and which the
/// panic hook dumps. The `--report` file is the one [`RunReport`] the
/// recorder builds at the end.
struct Telem {
    report: Option<String>,
    /// Whether any telemetry flag was given. When false, commands run
    /// against [`NoopRecorder`] (see [`with_recorder!`]).
    enabled: bool,
    rec: InMemoryRecorder,
    monitor: Option<Monitor>,
    /// The flight ring and its dump path (`--flight-recorder`).
    flight: Option<(Arc<FlightRecorder>, String)>,
}

impl Telem {
    /// Fallible because `--stream FILE` opens the sink eagerly: a bad
    /// path fails before any counting work, not after it. Without
    /// `--progress` or `--flight-recorder` there is no board, no monitor
    /// thread and no panic hook.
    fn new(flags: TelemetryFlags, label: &str) -> Result<Self, CliError> {
        let TelemetryFlags {
            report,
            stream,
            progress,
            flight_recorder,
        } = flags;
        let flight = flight_recorder
            .map(|path| (Arc::new(FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)), path));
        let sink = match &stream {
            Some(t) if t == "-" => Some(NdjsonSink::stdout()),
            Some(t) => Some(NdjsonSink::file(t).map_err(|e| err(format!("open stream {t}: {e}")))?),
            // The flight ring tees the event stream, so it needs one even
            // when nobody asked for the stream itself.
            None if flight.is_some() => Some(NdjsonSink::null()),
            None => None,
        };
        let sink = sink.map(|s| {
            let shared = s.into_shared();
            match &flight {
                Some((ring, _)) => shared.with_flight(Arc::clone(ring)),
                None => shared,
            }
        });
        let mut rec = InMemoryRecorder::new();
        if let Some(sink) = &sink {
            rec = rec.with_sink(sink.clone());
        }
        let mut monitor = None;
        if progress || flight.is_some() {
            let board = Arc::new(LiveBoard::new());
            rec = rec.with_board(Arc::clone(&board));
            if let Some((ring, path)) = &flight {
                install_panic_hook(Arc::clone(ring), Arc::clone(&board), path.clone());
            }
            let cfg = MonitorConfig {
                interval: std::time::Duration::from_millis(
                    env_u64("BFLY_MONITOR_INTERVAL_MS", 200).max(1),
                ),
                stall_intervals: env_u64("BFLY_STALL_INTERVALS", 5).min(u32::MAX as u64) as u32,
                progress_line: progress,
                label: label.to_string(),
            };
            monitor = Some(Monitor::spawn(board, sink, cfg));
        }
        let enabled = report.is_some() || stream.is_some() || monitor.is_some();
        Ok(Self {
            report,
            enabled,
            rec,
            monitor,
            flight,
        })
    }

    /// Hand the monitor its predicted-total-work forecast once the
    /// planner has run. No-op without a monitor.
    fn set_forecast(&self, f: WorkForecast) {
        if let Some(monitor) = &self.monitor {
            monitor.set_forecast(f);
        }
    }

    /// Fraction of the predicted work a count finished: 1.0 when
    /// complete, else the core's own annotation when it has one, else the
    /// forecast counter measured against its predicted total (`None` with
    /// telemetry off).
    fn fraction_done<T>(&self, r: &Partial<T>, forecast: WorkForecast) -> Option<f64> {
        if r.complete {
            return Some(1.0);
        }
        r.fraction.or_else(|| {
            if forecast.total == 0 || !self.enabled {
                return None;
            }
            let done = self.rec.counter(forecast.counter);
            Some((done as f64 / forecast.total as f64).clamp(0.0, 1.0))
        })
    }

    /// Stop the monitor, if one runs (final heartbeat at exactly 1.0 when
    /// `complete`), and record its outcome on the recorder: the stall
    /// count and the final `progress.fraction` / `progress.eta_ms`. The
    /// board comes off the recorder first, so the stalls the monitor
    /// already counted there are not counted twice. Returns the final
    /// fraction.
    fn finish_monitor(&mut self, complete: bool) -> Option<f64> {
        let stats = self.monitor.take()?.finish(complete);
        self.rec.take_board();
        self.rec.incr(Counter::StallsDetected, stats.stalls);
        self.rec.gauge("progress.fraction", stats.fraction);
        if let Some(eta) = stats.eta_ms {
            self.rec.gauge("progress.eta_ms", eta as f64);
        }
        Some(stats.fraction)
    }

    /// Abort-path teardown: stop the monitor (no final 1.0 heartbeat)
    /// and dump the flight ring with `reason` and the recorder's report
    /// so far, returning the last measured fraction so errors can carry
    /// it. No-op without a monitor.
    fn fail(&mut self, reason: &str) -> Option<f64> {
        let fraction = self.finish_monitor(false)?;
        if let Some((ring, path)) = &self.flight {
            let meta = vec![("flight_reason".to_string(), Json::Str(reason.to_string()))];
            let _ = ring.dump_to_file(path, Some(&self.rec.snapshot(meta)), reason);
        }
        Some(fraction)
    }

    /// Build the report and write the `--report` file, after finishing
    /// the monitor (final heartbeat at exactly 1.0 when `complete`). An
    /// incomplete run also dumps the flight ring with reason `"deadline"`
    /// and the run's report. No-op when telemetry is off.
    fn emit(mut self, meta: Vec<(String, Json)>, complete: bool) -> Result<(), CliError> {
        if !self.enabled {
            return Ok(());
        }
        self.finish_monitor(complete);
        let rep = self.rec.report(meta);
        if !complete {
            if let Some((ring, path)) = &self.flight {
                let _ = ring.dump_to_file(path, Some(&rep), "deadline");
            }
        }
        if let Some(p) = &self.report {
            std::fs::write(p, rep.to_json_string())
                .map_err(|e| err(format!("write report {p}: {e}")))?;
        }
        Ok(())
    }
}

/// Run `$body` with `$rec` bound to the [`Telem`]'s recorder, or to
/// [`NoopRecorder`] when telemetry is off. A macro rather than a function
/// because closures cannot be generic over the recorder type: the two
/// expansions monomorphize separately, so the off path keeps the
/// zero-overhead no-op code.
macro_rules! with_recorder {
    ($telem:expr, |$rec:ident| $body:expr) => {
        if $telem.enabled {
            let $rec = &mut $telem.rec;
            $body
        } else {
            let $rec = &mut NoopRecorder;
            $body
        }
    };
}

/// The worker count a `--threads` value plans for (0 = rayon's default).
fn workers(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        rayon::current_num_threads()
    }
}

/// The pool `--threads N` pins (`None` for 0: rayon's default pool).
fn pinned_pool(threads: usize) -> Result<Option<rayon::ThreadPool>, CliError> {
    if threads == 0 {
        return Ok(None);
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map(Some)
        .map_err(|e| err(format!("thread pool: {e}")))
}

/// Run `f` inside `pool` when one is pinned, else on the default pool.
fn in_pool<T>(pool: &Option<rayon::ThreadPool>, f: impl FnOnce() -> T) -> T {
    match pool {
        Some(p) => p.install(f),
        None => f(),
    }
}

/// `tip --decompose` (tip numbers of a side; `None` = the plan's side)
/// and `wing --decompose` (wing numbers).
#[derive(Clone, Copy)]
enum Decompose {
    Tip(Option<Side>),
    Wing,
}

/// `tip --decompose` and `wing --decompose`: plan the peel (an explicit
/// `--side` re-plans for that side, gauges and forecast included), run
/// the decomposition executor at the plan's chunk count with an
/// unlimited budget, print the one-line summary and emit the telemetry
/// outputs. An executor error (an initial count past `u64`, say) exits
/// with its class's code instead of panicking.
fn run_decompose(
    g: &BipartiteGraph,
    file: &str,
    what: Decompose,
    k: Option<u64>,
    threads: usize,
    mut telem: Telem,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let workers = workers(threads);
    let pool = pinned_pool(threads)?;
    let (profile, mut plan) =
        with_recorder!(telem, |rec| profile_and_peel_plan_recorded(g, workers, rec));
    if let Decompose::Tip(Some(side)) = what {
        if side != plan.side {
            plan = PeelPlan::for_side(&profile, side, workers);
            with_recorder!(telem, |rec| plan.record(rec));
        }
    }
    telem.set_forecast(plan.forecast());
    let unlimited = ResourceBudget::unlimited();
    let (command, side) = match what {
        Decompose::Tip(_) => ("tip", Some(plan.side)),
        Decompose::Wing => ("wing", None),
    };
    let result = with_recorder!(telem, |rec| in_pool(&pool, || match side {
        Some(side) => timed_span(rec, "tip_decompose", |rec| {
            tip_numbers_budgeted_recorded(g, side, plan.chunks, &unlimited, rec)
        }),
        None => timed_span(rec, "wing_decompose", |rec| {
            wing_numbers_budgeted_recorded(g, plan.chunks, &unlimited, rec)
        }),
    }));
    let numbers = match result {
        Ok(r) => r.value,
        Err(e) => {
            let e = CliError::from(e);
            let fraction = telem.fail(e.class.name());
            return Err(e.with_fraction(fraction));
        }
    };
    let max = numbers.iter().copied().max().unwrap_or(0);
    let mut levels: Vec<u64> = numbers.iter().copied().filter(|&t| t > 0).collect();
    levels.sort_unstable();
    levels.dedup();
    let unit = if side.is_some() { "vertices" } else { "edges" };
    let at = side.map(|s| format!(" on {s:?}")).unwrap_or_default();
    let mode = if plan.parallel {
        format!("parallel x{}", plan.chunks)
    } else {
        "sequential".to_string()
    };
    writeln!(
        out,
        "{command} decomposition{at}: {} {unit}, max level {max}, {} distinct nonzero levels [{mode}]",
        numbers.len(),
        levels.len(),
    )
    .map_err(|e| err(format!("write error: {e}")))?;
    let mut meta = vec![
        ("command".to_string(), Json::Str(command.to_string())),
        ("dataset".to_string(), Json::Str(file.to_string())),
        ("decompose".to_string(), Json::Bool(true)),
        ("threads".to_string(), Json::UInt(threads as u64)),
        ("max_level".to_string(), Json::UInt(max)),
        (
            "distinct_levels".to_string(),
            Json::UInt(levels.len() as u64),
        ),
        ("plan".to_string(), plan.to_json()),
    ];
    if let Some(s) = side {
        meta.push(("side".to_string(), Json::Str(format!("{s:?}"))));
    }
    if let Some(k) = k {
        meta.push(("k".to_string(), Json::UInt(k)));
    }
    telem.emit(meta, true)
}

/// Read and parse a saved [`RunReport`] from `path`.
fn load_report(path: &str) -> Result<RunReport, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    RunReport::parse(&text).map_err(|e| {
        // The typed [`ReportError`] distinguishes byte-level JSON failures
        // from schema mismatches; all are parse-class exits, but the
        // prefix tells the user which repair to attempt.
        let what = match &e {
            ReportError::Json(_) => "unreadable report",
            ReportError::Schema(_) => "malformed report",
            ReportError::FutureSchema { .. } => "incompatible report",
        };
        classified(ErrorClass::Parse, format!("{what} {path}: {e}"))
    })
}

/// Execute a command, writing human-readable output to `out`.
pub fn run(cmd: Command, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let w = |out: &mut dyn std::io::Write, s: String| -> Result<(), CliError> {
        writeln!(out, "{s}").map_err(|e| err(format!("write error: {e}")))
    };
    match cmd {
        Command::Help => w(out, USAGE.to_string()),
        Command::Stats { file, format } => {
            let g = load_graph(&file, format)?;
            let s = GraphStats::compute(&g);
            w(out, format!("|V1| = {}", s.nv1))?;
            w(out, format!("|V2| = {}", s.nv2))?;
            w(out, format!("|E|  = {}", s.nedges))?;
            w(out, format!("density = {:.3e}", s.density))?;
            w(
                out,
                format!("max degree: V1 = {}, V2 = {}", s.max_deg_v1, s.max_deg_v2),
            )?;
            w(
                out,
                format!(
                    "wedges: through V2 = {}, through V1 = {}",
                    s.wedges_through_v2, s.wedges_through_v1
                ),
            )
        }
        Command::Count {
            file,
            format,
            algorithm,
            parallel,
            threads,
            explain,
            telemetry,
            max_bytes,
            max_work,
            deadline_ms,
            shards,
            shard_bytes,
            checkpoint,
            resume,
        } => {
            let profiled = explain || telemetry.progress || telemetry.flight_recorder.is_some();
            let mut budget = ResourceBudget::unlimited();
            if let Some(v) = max_bytes {
                budget = budget.with_max_bytes(v);
            }
            if let Some(v) = max_work {
                budget = budget.with_max_wedge_work(v);
            }
            if let Some(v) = deadline_ms {
                budget = budget.with_deadline_in(std::time::Duration::from_millis(v));
            }
            // Out-of-core route: a `.bfly` input with sharding flags or a
            // byte budget executes shard-by-vertex-range straight off the
            // file, never materialising the full graph.
            let on_disk = format.is_none() && is_bfly_file(&file);
            let out_of_core =
                on_disk && (shards.is_some() || shard_bytes.is_some() || max_bytes.is_some());
            if !on_disk && checkpoint.is_some() {
                return Err(classified(
                    ErrorClass::Usage,
                    "--checkpoint persists the shards of an out-of-core count and needs \
                     a .bfly input (see `bfly convert <in> --out <out.bfly>`)",
                ));
            }
            if !on_disk && shard_bytes.is_some() {
                return Err(classified(
                    ErrorClass::Usage,
                    "--shard-bytes sizes on-disk shards and needs a .bfly input \
                     (see `bfly convert <in> --out <out.bfly>`)",
                ));
            }
            if !on_disk && shards.is_some() && !budget.is_unlimited() {
                return Err(classified(
                    ErrorClass::Usage,
                    "--shards with a budget needs a .bfly input (see `bfly convert <in> \
                     --out <out.bfly>`); on text inputs use either --shards or the \
                     budget flags",
                ));
            }
            let input = if out_of_core {
                let sg = SegmentedGraph::open(&file);
                let sg = sg.map_err(|e| io_error(format!("failed to open {file}"), e))?;
                let ckpt = checkpoint.map(|dir| match resume {
                    true => CheckpointConfig::resume(dir),
                    false => CheckpointConfig::new(dir),
                });
                CountInput::OnDisk(sg, ckpt)
            } else {
                CountInput::Resident(load_rank_ordered(&file, format)?)
            };
            let mut telem = Telem::new(telemetry, "count")?;
            let (pool, workers) = (pinned_pool(threads)?, workers(threads));
            let flags = (algorithm, parallel, shards, shard_bytes);
            let planned = plan_count(&input, flags, workers, &budget, profiled, &mut telem);
            let counted = planned.and_then(|planned| match (planned, &input) {
                (Some(planned), _) => count_plan(&input, planned, &budget, &pool, &mut telem),
                (None, CountInput::Resident(g)) => {
                    Ok(count_baseline(g, algorithm, explain, &pool, &mut telem))
                }
                (None, CountInput::OnDisk(..)) => unreachable!("every .bfly count plans"),
            });
            match counted {
                Ok(counted) => emit_count(&file, threads, explain, counted, telem, out),
                Err(e) => {
                    // Refusals and overflows still leave a post-mortem: dump
                    // the flight ring and carry the measured fraction into
                    // the error (surfaced by --json-errors).
                    let e = CliError::from(e);
                    let fraction = telem.fail(e.class.name());
                    Err(e.with_fraction(fraction))
                }
            }
        }
        Command::Tip {
            file,
            format,
            k,
            side,
            decompose,
            threads,
            telemetry,
        } => {
            let g = load_graph(&file, format)?;
            let mut telem = Telem::new(telemetry, "tip")?;
            fault_injection();
            if decompose {
                return run_decompose(&g, &file, Decompose::Tip(side), k, threads, telem, out);
            }
            let k = k.ok_or_else(|| err("tip requires --k (or --decompose)"))?;
            let side = side.unwrap_or(Side::V1);
            let r = with_recorder!(telem, |rec| timed_span(rec, "k_tip", |rec| {
                k_tip_recorded(&g, side, k, rec)
            }));
            let survivors = r.keep.iter().filter(|&&b| b).count();
            w(
                out,
                format!(
                    "{k}-tip on {side:?}: {survivors} of {} vertices survive ({} rounds), {} edges remain",
                    g.nvertices(side),
                    r.rounds,
                    r.subgraph.nedges()
                ),
            )?;
            telem.emit(
                vec![
                    ("command".to_string(), Json::Str("tip".to_string())),
                    ("dataset".to_string(), Json::Str(file.clone())),
                    ("k".to_string(), Json::UInt(k)),
                    ("side".to_string(), Json::Str(format!("{side:?}"))),
                    ("survivors".to_string(), Json::UInt(survivors as u64)),
                    ("rounds".to_string(), Json::UInt(r.rounds as u64)),
                    (
                        "edges_remaining".to_string(),
                        Json::UInt(r.subgraph.nedges() as u64),
                    ),
                ],
                true,
            )
        }
        Command::Wing {
            file,
            format,
            k,
            decompose,
            threads,
            telemetry,
        } => {
            let g = load_graph(&file, format)?;
            let mut telem = Telem::new(telemetry, "wing")?;
            fault_injection();
            if decompose {
                return run_decompose(&g, &file, Decompose::Wing, k, threads, telem, out);
            }
            let k = k.ok_or_else(|| err("wing requires --k (or --decompose)"))?;
            let r = with_recorder!(telem, |rec| timed_span(rec, "k_wing", |rec| {
                k_wing_recorded(&g, k, rec)
            }));
            w(
                out,
                format!(
                    "{k}-wing: {} of {} edges survive ({} rounds)",
                    r.subgraph.nedges(),
                    g.nedges(),
                    r.rounds
                ),
            )?;
            telem.emit(
                vec![
                    ("command".to_string(), Json::Str("wing".to_string())),
                    ("dataset".to_string(), Json::Str(file.clone())),
                    ("k".to_string(), Json::UInt(k)),
                    ("rounds".to_string(), Json::UInt(r.rounds as u64)),
                    (
                        "edges_remaining".to_string(),
                        Json::UInt(r.subgraph.nedges() as u64),
                    ),
                ],
                true,
            )
        }
        Command::TipNumbers {
            file,
            format,
            side,
            top,
        } => {
            let g = load_graph(&file, format)?;
            let tn = tip_numbers(&g, side);
            let mut ranked: Vec<(usize, u64)> = tn.iter().copied().enumerate().collect();
            ranked.sort_by_key(|&(i, t)| (std::cmp::Reverse(t), i));
            w(
                out,
                format!("top {top} vertices on {side:?} by tip number:"),
            )?;
            for (v, t) in ranked.into_iter().take(top) {
                w(out, format!("  {v}\t{t}"))?;
            }
            Ok(())
        }
        Command::Enumerate {
            file,
            format,
            limit,
        } => {
            let g = load_graph(&file, format)?;
            let list = enumerate_butterflies(&g, limit);
            for b in &list {
                w(out, format!("({}, {}) x ({}, {})", b.u, b.w, b.x, b.y))?;
            }
            w(
                out,
                format!("{} butterflies listed (limit {limit})", list.len()),
            )
        }
        Command::Metrics { file, format } => {
            let g = load_graph(&file, format)?;
            let m = bfly_core::metrics::metrics(&g);
            w(out, format!("butterflies             = {}", m.butterflies))?;
            w(
                out,
                format!("wedges (V1 endpoints)   = {}", m.wedges_v1_endpoints),
            )?;
            w(
                out,
                format!("wedges (V2 endpoints)   = {}", m.wedges_v2_endpoints),
            )?;
            w(out, format!("caterpillars            = {}", m.caterpillars))?;
            w(
                out,
                format!(
                    "clustering coefficient  = {}",
                    m.clustering_coefficient
                        .map_or("n/a".to_string(), |c| format!("{c:.6}"))
                ),
            )
        }
        Command::Pairs {
            file,
            format,
            side,
            top,
        } => {
            let g = load_graph(&file, format)?;
            let pm = bfly_core::PairMatrix::build(&g, side);
            let total = pm.try_total()?;
            w(
                out,
                format!("top {top} {side:?} pairs by butterflies (total {total}):"),
            )?;
            for (i, j, b) in pm.top_pairs(top) {
                w(out, format!("  ({i}, {j})\t{b}"))?;
            }
            Ok(())
        }
        Command::Components { file, format } => {
            let g = load_graph(&file, format)?;
            let c = bfly_graph::connected_components(&g);
            // Component sizes (vertices on both sides).
            let mut sizes = vec![0usize; c.count];
            for &id in c.v1.iter().chain(c.v2.iter()) {
                sizes[id as usize] += 1;
            }
            sizes.sort_unstable_by(|a, b| b.cmp(a));
            w(out, format!("{} components", c.count))?;
            w(
                out,
                format!("largest sizes: {:?}", &sizes[..sizes.len().min(10)]),
            )
        }
        Command::Core { file, format, k, l } => {
            let g = load_graph(&file, format)?;
            let r = bfly_graph::kl_core(&g, k, l);
            let kept1 = r.keep_v1.iter().filter(|&&b| b).count();
            let kept2 = r.keep_v2.iter().filter(|&&b| b).count();
            w(
                out,
                format!(
                    "({k}, {l})-core: {kept1}/{} V1 vertices, {kept2}/{} V2 vertices, {} of {} edges",
                    g.nv1(),
                    g.nv2(),
                    r.subgraph.nedges(),
                    g.nedges()
                ),
            )
        }
        Command::Convert {
            file,
            format,
            out: path,
        } => {
            if path.ends_with(".bfly") {
                // Text inputs stream through the loaders' parser into the
                // one-pass converter (bounded memory regardless of |E|); a
                // `.bfly` input is re-encoded via the in-memory writer.
                if format.is_none() && is_bfly_file(&file) {
                    let g = load_graph(&file, None)?;
                    let bytes = write_bfly_file(&g, &path)
                        .map_err(|e| err(format!("write {path}: {e}")))?;
                    return w(
                        out,
                        format!("wrote {} edges ({bytes} bytes) to {path}", g.nedges()),
                    );
                }
                let fmt = format.map_or_else(|| sniff_format(&file), Ok)?;
                let s = convert_to_bfly(&file, fmt, &path)
                    .map_err(|e| io_error(format!("convert {file}"), e))?;
                return w(
                    out,
                    format!(
                        "wrote {} edges ({} bytes, {}x{}) to {path}",
                        s.nedges, s.bytes_written, s.nv1, s.nv2
                    ),
                );
            }
            let g = load_graph(&file, format)?;
            let mut buf = Vec::new();
            if path.ends_with(".mtx") {
                bfly_graph::matrix_market::write_matrix_market(&g, &mut buf)
                    .map_err(|e| err(format!("serialise: {e}")))?;
            } else {
                write_edge_list(&g, &mut buf).map_err(|e| err(format!("serialise: {e}")))?;
            }
            std::fs::write(&path, buf).map_err(|e| err(format!("write {path}: {e}")))?;
            w(out, format!("wrote {} edges to {path}", g.nedges()))
        }
        Command::Report { action } => match action {
            ReportAction::Show { file } => {
                let rep = load_report(&file)?;
                w(out, rep.render_table())
            }
            ReportAction::Diff {
                base,
                new,
                threshold,
                hist,
                hist_tolerance,
                gauges,
                gauge_tolerance,
            } => {
                let b = load_report(&base)?;
                let n = load_report(&new)?;
                let htol = if hist { Some(hist_tolerance) } else { None };
                let gtol = if gauges { Some(gauge_tolerance) } else { None };
                let d = diff_reports(&b, &n, threshold, htol, gtol);
                w(out, d.render_table())?;
                let fails = d.failures();
                if fails.is_empty() {
                    Ok(())
                } else {
                    // Name the lane(s) that gated so CI logs say whether a
                    // counter, histogram, or gauge regressed.
                    let mut kinds: Vec<&str> = fails.iter().map(|r| r.kind).collect();
                    kinds.sort_unstable();
                    kinds.dedup();
                    Err(err(format!(
                        "report diff: {} metric(s) drifted past their threshold ({})",
                        fails.len(),
                        kinds.join(", ")
                    )))
                }
            }
            ReportAction::Flame { file, out: path } => {
                let rep = load_report(&file)?;
                std::fs::write(&path, rep.to_flame_html())
                    .map_err(|e| err(format!("write flame {path}: {e}")))?;
                w(out, format!("wrote flame view to {path}"))
            }
            ReportAction::Trace { file, out: path } => {
                let rep = load_report(&file)?;
                std::fs::write(&path, rep.to_chrome_trace_string())
                    .map_err(|e| err(format!("write trace {path}: {e}")))?;
                w(out, format!("wrote Chrome trace to {path}"))
            }
        },
        Command::Generate { kind, out: path } => {
            use bfly_graph::generators::{chung_lu, uniform_exact};
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let g = match kind {
                GenKind::Uniform { m, n, edges, seed } => {
                    uniform_exact(m, n, edges, &mut StdRng::seed_from_u64(seed))
                }
                GenKind::ChungLu {
                    m,
                    n,
                    edges,
                    exp1,
                    exp2,
                    seed,
                } => chung_lu(m, n, edges, exp1, exp2, &mut StdRng::seed_from_u64(seed)),
                GenKind::StandIn { name, scale } => {
                    let lower = name.to_lowercase();
                    let d = StandIn::ALL
                        .into_iter()
                        .find(|d| d.spec().name.to_lowercase().contains(&lower))
                        .ok_or_else(|| err(format!("unknown stand-in {name:?}")))?;
                    d.generate_scaled(scale)
                }
            };
            let mut buf = Vec::new();
            write_edge_list(&g, &mut buf).map_err(|e| err(format!("serialise: {e}")))?;
            std::fs::write(&path, buf).map_err(|e| err(format!("write {path}: {e}")))?;
            w(
                out,
                format!(
                    "wrote {}x{} graph with {} edges to {path}",
                    g.nv1(),
                    g.nv2(),
                    g.nedges()
                ),
            )
        }
    }
}

/// Human label for the engine a plan runs: the invariant for fixed
/// members, the kernel name for the global-order members.
fn plan_engine(plan: &Plan) -> String {
    match plan.member {
        Member::Fixed(inv) => format!("{inv}"),
        Member::Priority => "priority".to_string(),
        Member::Ranked => "ranked".to_string(),
    }
}

/// The `[label]` of a count: the engine, then how it was chosen and run
/// (`tag`), flagged `partial` when a deadline cut the run.
fn count_label(engine: &str, tag: &str, complete: bool) -> String {
    match (tag, complete) {
        ("", true) => engine.to_string(),
        (_, true) => format!("{engine} ({tag})"),
        ("", false) => format!("{engine} (partial)"),
        (_, false) => format!("{engine} ({tag}, partial)"),
    }
}

/// What `bfly count` reads: a resident graph, or a `.bfly` file counted
/// out of core without materialising it, with its checkpoint directory.
enum CountInput {
    Resident(BipartiteGraph),
    OnDisk(SegmentedGraph, Option<CheckpointConfig>),
}

/// The plan a `bfly count` resolves its flags to, with the label tag
/// naming how it was chosen.
struct Planned {
    profile: Option<GraphProfile>,
    plan: Plan,
    tag: String,
}

/// The label tag of a sharded plan: `kind`, then its shard count.
fn shards_tag(kind: &str, plan: &Plan) -> String {
    let ExecMode::Sharded { shards } = plan.mode else {
        unreachable!("sharded routes plan sharded");
    };
    format!("{kind}, {shards} shards")
}

/// Resolve the input, `(algorithm, parallel, shards, shard_bytes)` and
/// the budget to the one plan this count runs, or `None` for a baseline
/// counter, which runs no plan. A `.bfly` input plans through
/// [`profile_and_plan_segmented_recorded`]; text `--shards` through
/// [`Plan::sharded`] inside a `select` span; a budget through
/// [`profile_and_plan_budgeted_recorded`]; `auto` and `--adaptive`
/// through [`profile_and_plan_recorded`] and [`tune_plan_chunks`], told
/// apart only by their label tag; everything else forces its member
/// ([`Plan::forced`]). The input is profiled at most once: always on the
/// first four routes, and on a forced plan only when `profiled`
/// (`--explain`, `--progress`, `--flight-recorder`).
fn plan_count(
    input: &CountInput,
    (algorithm, parallel, shards, shard_bytes): (Algorithm, bool, Option<usize>, Option<u64>),
    workers: usize,
    budget: &ResourceBudget,
    profiled: bool,
    telem: &mut Telem,
) -> Result<Option<Planned>, BflyError> {
    let g = match input {
        CountInput::Resident(g) => g,
        CountInput::OnDisk(sg, _) => {
            let (profile, plan) = with_recorder!(telem, |rec| {
                profile_and_plan_segmented_recorded(sg, shards, shard_bytes, budget, rec)
            })?;
            let tag = shards_tag("out-of-core", &plan);
            let profile = Some(profile);
            return Ok(Some(Planned { profile, plan, tag }));
        }
    };
    let tagged = |tag: &str| match (parallel, tag) {
        (false, _) => tag.to_string(),
        (true, "") => "parallel".to_string(),
        (true, _) => format!("{tag}, parallel"),
    };
    if let Some(shards) = shards {
        let (profile, plan) = with_recorder!(telem, |rec| timed_span(rec, "select", |rec| {
            let profile = GraphProfile::compute(g);
            let plan = Plan::sharded(&profile, ShardSizing::Count(shards), budget)?;
            plan.record(rec);
            Ok::<_, BflyError>((profile, plan))
        }))?;
        let tag = shards_tag("sharded", &plan);
        let profile = Some(profile);
        return Ok(Some(Planned { profile, plan, tag }));
    }
    if !budget.is_unlimited() {
        let (profile, plan) = with_recorder!(telem, |rec| {
            profile_and_plan_budgeted_recorded(g, parallel, workers, budget, rec)
        })?;
        let tag = "adaptive, budgeted".to_string();
        let profile = Some(profile);
        return Ok(Some(Planned { profile, plan, tag }));
    }
    let member = match algorithm {
        Algorithm::Auto | Algorithm::Adaptive => {
            let (profile, plan) = with_recorder!(telem, |rec| {
                let (profile, mut plan) = profile_and_plan_recorded(g, parallel, workers, rec);
                tune_plan_chunks(g, &mut plan, rec);
                (profile, plan)
            });
            let tag = tagged(if algorithm == Algorithm::Auto {
                "auto"
            } else {
                "adaptive"
            });
            let profile = Some(profile);
            return Ok(Some(Planned { profile, plan, tag }));
        }
        Algorithm::Family(inv) => Member::Fixed(inv),
        Algorithm::Priority => Member::Priority,
        Algorithm::Ranked => Member::Ranked,
        Algorithm::Spgemm | Algorithm::Hash | Algorithm::VertexPriority | Algorithm::Enumerate => {
            return Ok(None)
        }
    };
    let mode = if parallel {
        ExecMode::Parallel { chunks: workers }
    } else {
        ExecMode::Flat
    };
    let profile = profiled.then(|| GraphProfile::compute(g));
    let plan = Plan::forced(g, member, mode, profile.as_ref());
    let tag = tagged("");
    Ok(Some(Planned { profile, plan, tag }))
}

/// What a finished count prints and reports, whichever route ran it.
struct Counted {
    xi: u64,
    label: String,
    complete: bool,
    /// Whether the run was budgeted or out of core: only those report
    /// `complete` and `fraction_complete` in meta.
    limited: bool,
    /// Fraction of the predicted work done (1.0 when complete).
    fraction: Option<f64>,
    profile: Option<Json>,
    /// The plan that ran; `None` for a baseline counter.
    plan: Option<Plan>,
    /// Route-specific report meta (the checkpoint directory).
    meta: Vec<(String, Json)>,
}

/// Run a plan: hand the monitor the plan's forecast, run it in the
/// pinned pool with the budget — a resident graph through [`run_plan`]
/// with the deadline, a `.bfly` file through [`run_plan_segmented`] with
/// its checkpoints — and label the count with the engine that ran.
fn count_plan(
    input: &CountInput,
    Planned { profile, plan, tag }: Planned,
    budget: &ResourceBudget,
    pool: &Option<rayon::ThreadPool>,
    telem: &mut Telem,
) -> Result<Counted, BflyError> {
    telem.set_forecast(plan.forecast());
    fault_injection();
    let r = with_recorder!(telem, |rec| in_pool(pool, || match (input, &profile) {
        (CountInput::Resident(g), _) => run_plan(g, &plan, budget.deadline, rec),
        (CountInput::OnDisk(sg, ckpt), Some(profile)) => {
            run_plan_segmented(sg, profile, &plan, budget, ckpt.as_ref(), rec)
        }
        (CountInput::OnDisk(..), None) => unreachable!("out-of-core plans carry their profile"),
    }))?;
    let mut meta = Vec::new();
    if let CountInput::OnDisk(_, Some(cfg)) = input {
        let dir = Json::Str(cfg.dir.display().to_string());
        meta.push(("checkpoint_dir".to_string(), dir));
        meta.push(("resumed".to_string(), Json::Bool(cfg.resume)));
    }
    Ok(Counted {
        xi: r.value,
        label: count_label(&plan_engine(&plan), &tag, r.complete),
        complete: r.complete,
        limited: matches!(input, CountInput::OnDisk(..)) || !budget.is_unlimited(),
        fraction: telem.fraction_done(&r, plan.forecast()),
        profile: profile.map(|p| p.to_json()),
        plan: Some(plan),
        meta,
    })
}

/// Run a baseline counter (`spgemm`, `hash`, `vp`, `enumerate`) inside a
/// span named after it. They run no plan and forecast nothing; `--explain` still
/// prints the profile.
fn count_baseline(
    g: &BipartiteGraph,
    algorithm: Algorithm,
    explain: bool,
    pool: &Option<rayon::ThreadPool>,
    telem: &mut Telem,
) -> Counted {
    let profile = explain.then(|| GraphProfile::compute(g).to_json());
    fault_injection();
    let (xi, name) = with_recorder!(telem, |rec| in_pool(pool, || match algorithm {
        Algorithm::Spgemm =>
            timed_span(rec, "count_spgemm", |_| { (count_via_spgemm(g), "spgemm") }),
        Algorithm::Hash => timed_span(rec, "count_hash", |_| {
            (count_hash_aggregation(g), "hash")
        }),
        Algorithm::VertexPriority => timed_span(rec, "count_vertex_priority", |_| {
            (count_vertex_priority(g), "vertex-priority")
        }),
        _ => timed_span(rec, "count_enumeration", |_| {
            (count_by_enumeration(g), "enumeration")
        }),
    }));
    Counted {
        xi,
        label: name.to_string(),
        complete: true,
        limited: false,
        fraction: Some(1.0),
        profile,
        plan: None,
        meta: Vec::new(),
    }
}

/// Print a count and emit its telemetry, the same way on every route:
/// the `butterflies = N  [label]` line, the partial note when a deadline
/// cut the run, the `--explain` profile and plan (`"plan": null` for a
/// baseline), and the report meta carrying the same plan.
fn emit_count(
    file: &str,
    threads: usize,
    explain: bool,
    c: Counted,
    telem: Telem,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let write = |out: &mut dyn std::io::Write, s: String| {
        writeln!(out, "{s}").map_err(|e| err(format!("write error: {e}")))
    };
    write(out, format!("butterflies = {}  [{}]", c.xi, c.label))?;
    if !c.complete {
        let pct = c
            .fraction
            .map(|f| format!(" (~{:.0}% of predicted work done)", f * 100.0))
            .unwrap_or_default();
        write(
            out,
            format!(
                "note: deadline expired; the count is an exact lower bound over the \
                 processed prefix{pct}"
            ),
        )?;
    }
    let plan = c.plan.as_ref().map_or(Json::Null, Plan::to_json);
    if explain {
        let doc = Json::Obj(vec![
            (
                "profile".to_string(),
                c.profile.clone().unwrap_or(Json::Null),
            ),
            ("plan".to_string(), plan.clone()),
        ]);
        write(out, doc.pretty())?;
    }
    let mut meta = vec![
        ("command".to_string(), Json::Str("count".to_string())),
        ("dataset".to_string(), Json::Str(file.to_string())),
        ("algorithm".to_string(), Json::Str(c.label)),
        ("threads".to_string(), Json::UInt(threads as u64)),
        ("butterflies".to_string(), Json::UInt(c.xi)),
    ];
    if let Some(ExecMode::Sharded { shards }) = c.plan.as_ref().map(|p| p.mode) {
        meta.push(("shards".to_string(), Json::UInt(shards as u64)));
    }
    if c.limited {
        meta.push(("complete".to_string(), Json::Bool(c.complete)));
        if let Some(f) = c.fraction {
            meta.push(("fraction_complete".to_string(), Json::Float(f)));
        }
    }
    meta.extend(c.meta);
    if let Some(profile) = c.profile {
        meta.push(("profile".to_string(), profile));
    }
    if c.plan.is_some() {
        meta.push(("plan".to_string(), plan));
    }
    telem.emit(meta, c.complete)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_count_with_flags() {
        let cmd = parse(&sv(&[
            "count",
            "graph.tsv",
            "--algorithm",
            "inv3",
            "--parallel",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Count {
                file: "graph.tsv".into(),
                format: None,
                algorithm: Algorithm::Family(Invariant::Inv3),
                parallel: true,
                threads: 4,
                explain: false,
                telemetry: TelemetryFlags::default(),
                max_bytes: None,
                max_work: None,
                deadline_ms: None,
                shards: None,
                shard_bytes: None,
                checkpoint: None,
                resume: false,
            }
        );
    }

    #[test]
    fn parses_checkpoint_and_resume() {
        let cmd = parse(&sv(&[
            "count",
            "g.bfly",
            "--shards",
            "4",
            "--checkpoint",
            "/tmp/ck",
            "--resume",
        ]))
        .unwrap();
        match cmd {
            Command::Count {
                checkpoint, resume, ..
            } => {
                assert_eq!(checkpoint.as_deref(), Some("/tmp/ck"));
                assert!(resume);
            }
            other => panic!("unexpected {other:?}"),
        }
        // --resume without --checkpoint is a usage error...
        assert!(parse(&sv(&["count", "g.bfly", "--shards", "2", "--resume"])).is_err());
        // ...and --checkpoint without the sharded tier is too.
        assert!(parse(&sv(&["count", "g.tsv", "--checkpoint", "/tmp/ck"])).is_err());
    }

    #[test]
    fn parses_adaptive_and_explain_flags() {
        // --adaptive is boolean and overrides --algorithm.
        let cmd = parse(&sv(&["count", "g.tsv", "--adaptive", "--explain"])).unwrap();
        match cmd {
            Command::Count {
                algorithm, explain, ..
            } => {
                assert_eq!(algorithm, Algorithm::Adaptive);
                assert!(explain);
            }
            other => panic!("unexpected {other:?}"),
        }
        // --algorithm adaptive spells the same thing.
        assert_eq!(parse_algorithm("adaptive").unwrap(), Algorithm::Adaptive);
        // --explain alone keeps the requested algorithm.
        let cmd = parse(&sv(&["count", "g.tsv", "--algorithm", "inv4", "--explain"])).unwrap();
        match cmd {
            Command::Count {
                algorithm, explain, ..
            } => {
                assert_eq!(algorithm, Algorithm::Family(Invariant::Inv4));
                assert!(explain);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Boolean flags do not eat the following token.
        let cmd = parse(&sv(&["count", "--adaptive", "g.tsv"])).unwrap();
        assert!(matches!(cmd, Command::Count { file, .. } if file == "g.tsv"));
    }

    #[test]
    fn parses_report_flag_and_refuses_unknown_flags() {
        let cmd = parse(&sv(&["count", "g.tsv", "--report", "run.json"])).unwrap();
        match cmd {
            Command::Count { telemetry, .. } => {
                assert_eq!(telemetry.report.as_deref(), Some("run.json"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // A flag the subcommand never reads is a usage error naming it
        // (the binary tests cover count, tip and wing): a removed report
        // flag, and a generator flag the chosen kind does not take.
        for (args, flag) in [
            (
                &["report", "diff", "a.json", "b.json", "--gate"][..],
                "--gate",
            ),
            (
                &[
                    "generate", "--kind", "standin", "--name", "github", "--seed", "3", "--out",
                    "x.tsv",
                ],
                "--seed",
            ),
        ] {
            let e = parse(&sv(args)).unwrap_err();
            assert_eq!(e.exit_code(), 2, "{args:?}");
            let want = format!("unknown flag {flag} ");
            assert!(e.msg.contains(&want), "{args:?}: {}", e.msg);
        }
        // A missing value or file is still reported as such.
        let e = parse(&sv(&["count", "g.tsv", "--threads"])).unwrap_err();
        assert!(e.msg.contains("--threads needs a value"), "{}", e.msg);
        let e = parse(&sv(&["count", "--threads", "2"])).unwrap_err();
        assert!(e.msg.contains("missing <file>"), "{}", e.msg);
        // --adaptive wins over --algorithm, which still counts as read.
        let cmd = parse(&sv(&[
            "count",
            "g.tsv",
            "--adaptive",
            "--algorithm",
            "inv3",
        ]))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Count {
                algorithm: Algorithm::Adaptive,
                ..
            }
        ));
    }

    #[test]
    fn parses_all_algorithm_names() {
        for (s, want) in [
            ("auto", Algorithm::Auto),
            ("spgemm", Algorithm::Spgemm),
            ("hash", Algorithm::Hash),
            ("vp", Algorithm::VertexPriority),
            ("priority", Algorithm::Priority),
            ("ranked", Algorithm::Ranked),
            ("enum", Algorithm::Enumerate),
            ("inv8", Algorithm::Family(Invariant::Inv8)),
        ] {
            assert_eq!(parse_algorithm(s).unwrap(), want, "{s}");
        }
        assert!(parse_algorithm("inv9").is_err());
        assert!(parse_algorithm("magic").is_err());
    }

    #[test]
    fn member_flag_selects_global_order_kernels() {
        for (m, want) in [
            ("priority", Algorithm::Priority),
            ("ranked", Algorithm::Ranked),
        ] {
            let cmd = parse(&sv(&["count", "g.tsv", "--member", m])).unwrap();
            assert!(
                matches!(cmd, Command::Count { algorithm, .. } if algorithm == want),
                "--member {m}"
            );
        }
        // The long spelling means the same thing.
        let cmd = parse(&sv(&["count", "g.tsv", "--algorithm", "ranked"])).unwrap();
        assert!(matches!(
            cmd,
            Command::Count {
                algorithm: Algorithm::Ranked,
                ..
            }
        ));
        // Conflicting spellings and unknown members are usage errors.
        assert!(parse(&sv(&[
            "count",
            "g.tsv",
            "--member",
            "priority",
            "--algorithm",
            "inv1"
        ]))
        .is_err());
        assert!(parse(&sv(&[
            "count",
            "g.tsv",
            "--member",
            "priority",
            "--adaptive"
        ]))
        .is_err());
        assert!(parse(&sv(&["count", "g.tsv", "--member", "nope"])).is_err());
        // Budget flags imply the adaptive planner, which a forced kernel
        // cannot degrade through.
        assert!(parse(&sv(&[
            "count",
            "g.tsv",
            "--member",
            "ranked",
            "--max-bytes",
            "1000"
        ]))
        .is_err());
    }

    #[test]
    fn parses_tip_and_wing() {
        let cmd = parse(&sv(&["tip", "g.tsv", "--k", "5", "--side", "v2"])).unwrap();
        assert_eq!(
            cmd,
            Command::Tip {
                file: "g.tsv".into(),
                format: None,
                k: Some(5),
                side: Some(Side::V2),
                decompose: false,
                threads: 0,
                telemetry: TelemetryFlags::default(),
            }
        );
        assert!(parse(&sv(&["tip", "g.tsv"])).is_err()); // missing --k
        let cmd = parse(&sv(&["wing", "g.tsv", "--k", "2"])).unwrap();
        assert!(matches!(cmd, Command::Wing { k: Some(2), .. }));
    }

    #[test]
    fn parses_decompose_flags() {
        // --decompose lifts the --k requirement and carries --threads.
        let cmd = parse(&sv(&["tip", "g.tsv", "--decompose", "--threads", "4"])).unwrap();
        assert_eq!(
            cmd,
            Command::Tip {
                file: "g.tsv".into(),
                format: None,
                k: None,
                side: None,
                decompose: true,
                threads: 4,
                telemetry: TelemetryFlags::default(),
            }
        );
        // --decompose is boolean: the next token stays positional.
        let cmd = parse(&sv(&["wing", "--decompose", "g.tsv"])).unwrap();
        assert!(matches!(
            cmd,
            Command::Wing {
                file,
                k: None,
                decompose: true,
                ..
            } if file == "g.tsv"
        ));
        // Both --k and --decompose may be given; --k is kept for meta.
        let cmd = parse(&sv(&["wing", "g.tsv", "--k", "3", "--decompose"])).unwrap();
        assert!(matches!(
            cmd,
            Command::Wing {
                k: Some(3),
                decompose: true,
                ..
            }
        ));
        // Without --decompose, wing still insists on --k.
        assert!(parse(&sv(&["wing", "g.tsv"])).is_err());
    }

    #[test]
    fn parses_generate_variants() {
        let cmd = parse(&sv(&[
            "generate", "--kind", "chunglu", "--m", "10", "--n", "20", "--edges", "30", "--exp1",
            "0.5", "--exp2", "0.6", "--seed", "9", "--out", "x.tsv",
        ]))
        .unwrap();
        match cmd {
            Command::Generate {
                kind:
                    GenKind::ChungLu {
                        m: 10,
                        n: 20,
                        edges: 30,
                        exp1,
                        exp2,
                        seed: 9,
                    },
                out,
            } => {
                assert_eq!(out, "x.tsv");
                assert!((exp1 - 0.5).abs() < 1e-12);
                assert!((exp2 - 0.6).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&sv(&["generate", "--kind", "uniform"])).is_err()); // no --out
        assert!(parse(&sv(&["generate", "--out", "x"])).is_err()); // no --kind
    }

    #[test]
    fn help_and_errors() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&sv(&["help"])).unwrap(), Command::Help);
        assert!(parse(&sv(&["frobnicate"])).is_err());
        assert!(parse(&sv(&["count"])).is_err()); // missing file
        assert!(parse(&sv(&["count", "f", "--format", "xml"])).is_err());
    }

    #[test]
    fn end_to_end_on_temp_files() {
        let dir = std::env::temp_dir().join("bfly-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let gpath = dir.join("g.tsv");
        // Generate a small Chung-Lu graph.
        let mut sink = Vec::new();
        run(
            parse(&sv(&[
                "generate",
                "--kind",
                "uniform",
                "--m",
                "30",
                "--n",
                "30",
                "--edges",
                "200",
                "--seed",
                "5",
                "--out",
                gpath.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut sink,
        )
        .unwrap();
        // stats
        let mut sink = Vec::new();
        run(
            parse(&sv(&["stats", gpath.to_str().unwrap()])).unwrap(),
            &mut sink,
        )
        .unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("|E|  = 200"), "{text}");
        // count with several algorithms agrees
        let mut counts = Vec::new();
        for alg in ["auto", "inv1", "inv7", "spgemm", "hash", "vp", "enum"] {
            let mut sink = Vec::new();
            run(
                parse(&sv(&["count", gpath.to_str().unwrap(), "--algorithm", alg])).unwrap(),
                &mut sink,
            )
            .unwrap();
            let text = String::from_utf8(sink).unwrap();
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
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        // tip and wing run
        let mut sink = Vec::new();
        run(
            parse(&sv(&["tip", gpath.to_str().unwrap(), "--k", "1"])).unwrap(),
            &mut sink,
        )
        .unwrap();
        let mut sink = Vec::new();
        run(
            parse(&sv(&["wing", gpath.to_str().unwrap(), "--k", "1"])).unwrap(),
            &mut sink,
        )
        .unwrap();
        // enumerate respects limit
        let mut sink = Vec::new();
        run(
            parse(&sv(&["enumerate", gpath.to_str().unwrap(), "--limit", "3"])).unwrap(),
            &mut sink,
        )
        .unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("limit 3"), "{text}");
    }

    #[test]
    fn new_subcommands_end_to_end() {
        let dir = std::env::temp_dir().join("bfly-cli-test-new");
        std::fs::create_dir_all(&dir).unwrap();
        let gpath = dir.join("g2.tsv");
        run(
            parse(&sv(&[
                "generate",
                "--kind",
                "uniform",
                "--m",
                "25",
                "--n",
                "25",
                "--edges",
                "150",
                "--seed",
                "7",
                "--out",
                gpath.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();

        // metrics
        let mut sink = Vec::new();
        run(
            parse(&sv(&["metrics", gpath.to_str().unwrap()])).unwrap(),
            &mut sink,
        )
        .unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("butterflies"), "{text}");
        assert!(text.contains("caterpillars"), "{text}");

        // pairs
        let mut sink = Vec::new();
        run(
            parse(&sv(&[
                "pairs",
                gpath.to_str().unwrap(),
                "--top",
                "5",
                "--side",
                "v2",
            ]))
            .unwrap(),
            &mut sink,
        )
        .unwrap();
        assert!(String::from_utf8(sink).unwrap().contains("V2 pairs"));

        // components
        let mut sink = Vec::new();
        run(
            parse(&sv(&["components", gpath.to_str().unwrap()])).unwrap(),
            &mut sink,
        )
        .unwrap();
        assert!(String::from_utf8(sink).unwrap().contains("components"));

        // core
        let mut sink = Vec::new();
        run(
            parse(&sv(&[
                "core",
                gpath.to_str().unwrap(),
                "--k",
                "2",
                "--l",
                "2",
            ]))
            .unwrap(),
            &mut sink,
        )
        .unwrap();
        assert!(String::from_utf8(sink).unwrap().contains("(2, 2)-core"));

        // convert to MatrixMarket and reload.
        let mpath = dir.join("g2.mtx");
        let mut sink = Vec::new();
        run(
            parse(&sv(&[
                "convert",
                gpath.to_str().unwrap(),
                "--out",
                mpath.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut sink,
        )
        .unwrap();
        let mut sink = Vec::new();
        run(
            parse(&sv(&["stats", mpath.to_str().unwrap()])).unwrap(),
            &mut sink,
        )
        .unwrap();
        assert!(String::from_utf8(sink).unwrap().contains("|E|  = 150"));
    }

    #[test]
    fn stats_and_report_end_to_end() {
        let dir = std::env::temp_dir().join("bfly-cli-test-telemetry");
        std::fs::create_dir_all(&dir).unwrap();
        let gpath = dir.join("g.tsv");
        run(
            parse(&sv(&[
                "generate",
                "--kind",
                "uniform",
                "--m",
                "40",
                "--n",
                "40",
                "--edges",
                "300",
                "--seed",
                "11",
                "--out",
                gpath.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();

        // The table of a run's report, as `report show` prints it.
        let show = |rpath: &std::path::Path| {
            let mut sink = Vec::new();
            let cmd = parse(&sv(&["report", "show", rpath.to_str().unwrap()])).unwrap();
            run(cmd, &mut sink).unwrap();
            String::from_utf8(sink).unwrap()
        };

        // count --report writes a parseable RunReport whose meta matches
        // the printed count, and whose table shows the counters.
        let rpath = dir.join("count.json");
        let mut sink = Vec::new();
        run(
            parse(&sv(&[
                "count",
                gpath.to_str().unwrap(),
                "--report",
                rpath.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut sink,
        )
        .unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("butterflies ="), "{text}");
        assert!(show(&rpath).contains("wedges_expanded"));
        let printed: u64 = text
            .split('=')
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let rep = RunReport::parse(&std::fs::read_to_string(&rpath).unwrap()).unwrap();
        assert_eq!(
            rep.meta
                .iter()
                .find(|(n, _)| n == "butterflies")
                .and_then(|(_, v)| v.as_u64()),
            Some(printed)
        );
        assert!(rep.counter("wedges_expanded").unwrap() > 0);

        // tip's report shows peel rounds; wing --report round-trips.
        let tpath = dir.join("tip.json");
        run(
            parse(&sv(&[
                "tip",
                gpath.to_str().unwrap(),
                "--k",
                "1",
                "--report",
                tpath.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        assert!(show(&tpath).contains("peel_rounds"));

        let wpath = dir.join("wing.json");
        run(
            parse(&sv(&[
                "wing",
                gpath.to_str().unwrap(),
                "--k",
                "1",
                "--report",
                wpath.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let rep = RunReport::parse(&std::fs::read_to_string(&wpath).unwrap()).unwrap();
        assert!(rep.counter("peel_rounds").unwrap() >= 1);
        assert!(rep
            .meta
            .iter()
            .any(|(n, v)| n == "command" && v.as_str() == Some("wing")));

        // A decomposition keeps a given --k in its report meta.
        let dpath = dir.join("wing-decompose.json");
        run(
            parse(&sv(&[
                "wing",
                gpath.to_str().unwrap(),
                "--k",
                "3",
                "--decompose",
                "--report",
                dpath.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let rep = RunReport::parse(&std::fs::read_to_string(&dpath).unwrap()).unwrap();
        let meta = |key: &str| rep.meta.iter().find(|(n, _)| n == key).map(|(_, v)| v);
        assert_eq!(meta("decompose").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(meta("k").and_then(|v| v.as_u64()), Some(3));
    }

    #[test]
    fn parses_report_verbs() {
        assert_eq!(
            parse(&sv(&["report", "trace", "run.json", "-o", "t.json"])).unwrap(),
            Command::Report {
                action: ReportAction::Trace {
                    file: "run.json".into(),
                    out: "t.json".into()
                }
            }
        );
        assert_eq!(
            parse(&sv(&["report", "show", "run.json"])).unwrap(),
            Command::Report {
                action: ReportAction::Show {
                    file: "run.json".into()
                }
            }
        );
        let cmd = parse(&sv(&[
            "report",
            "diff",
            "base.json",
            "new.json",
            "--threshold",
            "5",
        ]))
        .unwrap();
        match cmd {
            Command::Report {
                action:
                    ReportAction::Diff {
                        base,
                        new,
                        threshold,
                        hist,
                        ..
                    },
            } => {
                assert_eq!(base, "base.json");
                assert_eq!(new, "new.json");
                assert!((threshold - 5.0).abs() < 1e-12);
                assert!(!hist);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Default threshold is 10%, and -o is an alias for --out.
        match parse(&sv(&["report", "diff", "a.json", "b.json"])).unwrap() {
            Command::Report {
                action: ReportAction::Diff { threshold, .. },
            } => assert!((threshold - 10.0).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse(&sv(&["report", "flame", "run.json", "-o", "f.html"])).unwrap(),
            Command::Report {
                action: ReportAction::Flame {
                    file: "run.json".into(),
                    out: "f.html".into()
                }
            }
        );
        assert!(parse(&sv(&["report"])).is_err()); // missing verb
        assert!(parse(&sv(&["report", "show"])).is_err()); // missing file
        assert!(parse(&sv(&["report", "diff", "a.json"])).is_err()); // one file
        assert!(parse(&sv(&["report", "flame", "run.json"])).is_err()); // no -o
        assert!(parse(&sv(&["report", "trace", "run.json"])).is_err()); // no -o
        assert!(parse(&sv(&["report", "frob", "x"])).is_err()); // bad verb
    }

    #[test]
    fn report_trace_end_to_end() {
        let dir = std::env::temp_dir().join("bfly-cli-test-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let gpath = dir.join("g.tsv");
        run(
            parse(&sv(&[
                "generate",
                "--kind",
                "uniform",
                "--m",
                "60",
                "--n",
                "60",
                "--edges",
                "600",
                "--seed",
                "13",
                "--out",
                gpath.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        // Count with `extra` flags and --report, then render the report's
        // trace with `report trace`.
        let traced = |extra: &[&str], name: &str| -> Json {
            let (rpath, tpath) = (dir.join(format!("{name}.json")), dir.join(name));
            let mut args = vec!["count", gpath.to_str().unwrap()];
            args.extend(extra);
            args.extend(["--report", rpath.to_str().unwrap()]);
            run(parse(&sv(&args)).unwrap(), &mut Vec::new()).unwrap();
            let (r, t) = (rpath.to_str().unwrap(), tpath.to_str().unwrap());
            let cmd = parse(&sv(&["report", "trace", r, "-o", t])).unwrap();
            run(cmd, &mut Vec::new()).unwrap();
            Json::parse(&std::fs::read_to_string(&tpath).unwrap()).unwrap()
        };

        // Parallel count with a pinned pool: the trace must carry one
        // track per worker thread (tids 1..) plus valid JSON structure.
        let doc = traced(&["--parallel", "--threads", "2"], "trace.json");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents array");
        let mut worker_tids = std::collections::BTreeSet::new();
        for ev in events {
            if ev.get("ph").and_then(|p| p.as_str()) == Some("X") {
                let tid = ev.get("tid").and_then(|t| t.as_u64()).unwrap();
                if tid > 0 {
                    worker_tids.insert(tid);
                }
            }
        }
        assert!(
            worker_tids.len() >= 2,
            "expected >= 2 worker tracks, got {worker_tids:?}"
        );

        // A sequential count's trace carries its count span.
        let trace = traced(&[], "trace-seq.json");
        let events = trace.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("count")));
    }

    #[test]
    fn report_show_diff_flame_end_to_end() {
        let dir = std::env::temp_dir().join("bfly-cli-test-report-verbs");
        std::fs::create_dir_all(&dir).unwrap();
        let gpath = dir.join("g.tsv");
        run(
            parse(&sv(&[
                "generate",
                "--kind",
                "uniform",
                "--m",
                "30",
                "--n",
                "30",
                "--edges",
                "250",
                "--seed",
                "17",
                "--out",
                gpath.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let rpath = dir.join("run.json");
        run(
            parse(&sv(&[
                "count",
                gpath.to_str().unwrap(),
                "--report",
                rpath.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();

        // show pretty-prints the counter table.
        let mut sink = Vec::new();
        run(
            parse(&sv(&["report", "show", rpath.to_str().unwrap()])).unwrap(),
            &mut sink,
        )
        .unwrap();
        assert!(String::from_utf8(sink).unwrap().contains("wedges_expanded"));

        // diff of a report against itself passes and says so.
        let mut sink = Vec::new();
        run(
            parse(&sv(&[
                "report",
                "diff",
                rpath.to_str().unwrap(),
                rpath.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut sink,
        )
        .unwrap();
        assert!(String::from_utf8(sink).unwrap().contains("diff: ok"));

        // Inflate a counter past the threshold: diff must fail.
        let mut rep = load_report(rpath.to_str().unwrap()).unwrap();
        for (_, v) in rep.counters.iter_mut() {
            *v *= 2;
        }
        let bad = dir.join("inflated.json");
        std::fs::write(&bad, rep.to_json_string()).unwrap();
        let res = run(
            parse(&sv(&[
                "report",
                "diff",
                rpath.to_str().unwrap(),
                bad.to_str().unwrap(),
                "--threshold",
                "5",
            ]))
            .unwrap(),
            &mut Vec::new(),
        );
        assert!(res.is_err(), "inflated counters must fail the diff");

        // flame writes a self-contained HTML file.
        let fpath = dir.join("flame.html");
        let mut sink = Vec::new();
        run(
            parse(&sv(&[
                "report",
                "flame",
                rpath.to_str().unwrap(),
                "-o",
                fpath.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut sink,
        )
        .unwrap();
        let html = std::fs::read_to_string(&fpath).unwrap();
        assert!(html.contains("<!doctype html>") || html.contains("<html"));

        // A corrupt report is a clean CliError, not a panic.
        let junk = dir.join("junk.json");
        std::fs::write(&junk, "{not json").unwrap();
        assert!(run(
            parse(&sv(&["report", "show", junk.to_str().unwrap()])).unwrap(),
            &mut Vec::new(),
        )
        .is_err());
    }

    #[test]
    fn adaptive_count_and_explain_end_to_end() {
        let dir = std::env::temp_dir().join("bfly-cli-test-adaptive");
        std::fs::create_dir_all(&dir).unwrap();
        let gpath = dir.join("g.tsv");
        // Lopsided Chung-Lu graph: the adaptive path has a real decision
        // to make (wedge work differs across sides).
        run(
            parse(&sv(&[
                "generate",
                "--kind",
                "chunglu",
                "--m",
                "120",
                "--n",
                "30",
                "--edges",
                "500",
                "--exp1",
                "0.9",
                "--exp2",
                "0.4",
                "--seed",
                "23",
                "--out",
                gpath.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();

        let count_of = |args: &[&str]| -> u64 {
            let mut sink = Vec::new();
            run(parse(&sv(args)).unwrap(), &mut sink).unwrap();
            String::from_utf8(sink)
                .unwrap()
                .split('=')
                .nth(1)
                .unwrap()
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        let gp = gpath.to_str().unwrap();
        let want = count_of(&["count", gp, "--algorithm", "spgemm"]);
        assert_eq!(count_of(&["count", gp, "--adaptive"]), want);
        assert_eq!(count_of(&["count", gp, "--adaptive", "--parallel"]), want);

        // --explain prints a JSON object with profile and plan; the plan
        // names a valid invariant and the cheaper side.
        let mut sink = Vec::new();
        run(
            parse(&sv(&["count", gp, "--adaptive", "--explain"])).unwrap(),
            &mut sink,
        )
        .unwrap();
        let text = String::from_utf8(sink).unwrap();
        let json_start = text.find('{').expect("explain JSON in output");
        let doc = Json::parse(&text[json_start..]).unwrap();
        let plan = doc.get("plan").expect("plan object");
        let profile = doc.get("profile").expect("profile object");
        let inv = plan.get("invariant").and_then(|v| v.as_u64()).unwrap();
        assert!((1..=8).contains(&inv));
        assert!(
            plan.get("est_work").and_then(|v| v.as_u64()).unwrap()
                <= plan.get("est_work_alt").and_then(|v| v.as_u64()).unwrap()
        );
        assert!(profile.get("wedges_v1").and_then(|v| v.as_u64()).is_some());

        // --report embeds the plan in meta and records the selection
        // gauges, so CI can archive the decision.
        let rpath = dir.join("adaptive.json");
        run(
            parse(&sv(&[
                "count",
                gp,
                "--adaptive",
                "--report",
                rpath.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let rep = RunReport::parse(&std::fs::read_to_string(&rpath).unwrap()).unwrap();
        assert!(rep.meta.iter().any(|(n, _)| n == "plan"));
        assert!(rep
            .gauges
            .iter()
            .any(|(n, v)| n == "plan.invariant" && *v == inv as f64));

        // On a uniform graph at two workers, chunk tuning raises the
        // parallel plan's chunk count: --explain and the report's meta
        // must show the tuned plan that ran, selected by one profile
        // pass (one `select` span).
        let upath = dir.join("uniform.tsv");
        let up = upath.to_str().unwrap();
        run(
            parse(&sv(&[
                "generate", "--kind", "uniform", "--m", "3000", "--n", "3000", "--edges", "60000",
                "--seed", "5", "--out", up,
            ]))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let upath_report = dir.join("adaptive-parallel.json");
        let mut sink = Vec::new();
        run(
            parse(&sv(&[
                "count",
                up,
                "--adaptive",
                "--parallel",
                "--threads",
                "2",
                "--explain",
                "--report",
                upath_report.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut sink,
        )
        .unwrap();
        let text = String::from_utf8(sink).unwrap();
        let doc = Json::parse(&text[text.find('{').unwrap()..]).unwrap();
        let chunks = doc
            .get("plan")
            .and_then(|p| p.get("chunks"))
            .and_then(|v| v.as_u64())
            .unwrap();
        let rep = RunReport::parse(&std::fs::read_to_string(&upath_report).unwrap()).unwrap();
        let gauge = |name: &str| {
            rep.gauges
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert!(
            gauge("plan.tuned_chunks") > 2.0,
            "tuning must change the plan"
        );
        assert_eq!(chunks as f64, gauge("plan.par_chunks"));
        let meta_plan = rep.meta.iter().find(|(n, _)| n == "plan").unwrap();
        assert_eq!(
            meta_plan.1.get("chunks").and_then(|v| v.as_u64()),
            Some(chunks)
        );
        assert_eq!(rep.spans.iter().filter(|s| s.name == "select").count(), 1);
    }

    #[test]
    fn parses_budget_flags_and_implies_adaptive() {
        let cmd = parse(&sv(&[
            "count",
            "g.tsv",
            "--max-bytes",
            "1024",
            "--deadline-ms",
            "50",
        ]))
        .unwrap();
        match cmd {
            Command::Count {
                algorithm,
                max_bytes,
                max_work,
                deadline_ms,
                ..
            } => {
                assert_eq!(algorithm, Algorithm::Adaptive);
                assert_eq!(max_bytes, Some(1024));
                assert_eq!(max_work, None);
                assert_eq!(deadline_ms, Some(50));
            }
            other => panic!("unexpected {other:?}"),
        }
        // A fixed algorithm has nothing to degrade to: usage error.
        let e = parse(&sv(&[
            "count",
            "g",
            "--max-work",
            "9",
            "--algorithm",
            "inv3",
        ]))
        .unwrap_err();
        assert_eq!(e.class, ErrorClass::Usage);
        // Every parse failure is usage-class (exit 2).
        assert_eq!(parse(&sv(&["frobnicate"])).unwrap_err().exit_code(), 2);
        assert_eq!(
            parse(&sv(&["count", "g", "--max-bytes", "soup"]))
                .unwrap_err()
                .exit_code(),
            2
        );
    }

    #[test]
    fn error_classes_map_to_documented_exit_codes() {
        assert_eq!(
            CliError::from(BflyError::BudgetExceeded {
                resource: "bytes",
                limit: 1,
                requested: 2,
            })
            .exit_code(),
            4
        );
        assert_eq!(
            CliError::from(BflyError::CountOverflow {
                partial: 1 << 70,
                context: "t",
            })
            .exit_code(),
            5
        );
        assert_eq!(
            CliError::from(BflyError::InvalidGraph { reason: "r".into() }).exit_code(),
            3
        );
        assert_eq!(
            CliError::from(BflyError::Io(IoError::Parse {
                line: 1,
                msg: "m".into(),
            }))
            .exit_code(),
            3
        );
        assert_eq!(
            CliError::from(BflyError::Io(IoError::Io(std::io::Error::other("x")))).exit_code(),
            1
        );
        assert_eq!(
            CliError::from(BflyError::Report(ReportError::Json("j".into()))).exit_code(),
            3
        );
    }

    #[test]
    fn json_error_line_is_single_parseable_json() {
        let e = classified(ErrorClass::Budget, "work \"cap\" hit");
        let line = e.to_json_line();
        assert!(!line.contains('\n'), "{line}");
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("class").and_then(|v| v.as_str()), Some("budget"));
        assert_eq!(doc.get("exit_code").and_then(|v| v.as_u64()), Some(4));
        assert!(doc
            .get("message")
            .and_then(|v| v.as_str())
            .unwrap()
            .contains("cap"));
    }

    #[test]
    fn take_json_errors_strips_the_flag() {
        let mut args = sv(&["count", "g.tsv", "--json-errors"]);
        assert!(take_json_errors(&mut args));
        assert_eq!(args, sv(&["count", "g.tsv"]));
        assert!(!take_json_errors(&mut args));
        // split_args also treats it as boolean, so it never eats a token.
        let cmd = parse(&sv(&["count", "--json-errors", "g.tsv"])).unwrap();
        assert!(matches!(cmd, Command::Count { file, .. } if file == "g.tsv"));
    }

    #[test]
    fn member_kernels_end_to_end_match_fixed_invariants() {
        let dir = std::env::temp_dir().join("bfly-cli-test-member");
        std::fs::create_dir_all(&dir).unwrap();
        let gpath = dir.join("g.tsv");
        let gp_owned = gpath.to_str().unwrap().to_string();
        let gp = gp_owned.as_str();
        run(
            parse(&sv(&[
                "generate", "--kind", "chunglu", "--m", "80", "--n", "60", "--edges", "600",
                "--exp1", "1.0", "--exp2", "1.0", "--seed", "7", "--out", gp,
            ]))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let count_of = |args: &[&str]| -> u64 {
            let mut sink = Vec::new();
            run(parse(&sv(args)).unwrap(), &mut sink).unwrap();
            let text = String::from_utf8(sink).unwrap();
            let line = text
                .lines()
                .find(|l| l.starts_with("butterflies ="))
                .unwrap_or_else(|| panic!("no count line in {text:?}"))
                .to_string();
            line.split('=')
                .nth(1)
                .unwrap()
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        let want = count_of(&["count", gp, "--algorithm", "inv1"]);
        assert_eq!(count_of(&["count", gp, "--member", "priority"]), want);
        assert_eq!(count_of(&["count", gp, "--member", "ranked"]), want);
        assert_eq!(
            count_of(&[
                "count",
                gp,
                "--member",
                "priority",
                "--parallel",
                "--threads",
                "2"
            ]),
            want
        );
        assert_eq!(
            count_of(&[
                "count",
                gp,
                "--member",
                "ranked",
                "--parallel",
                "--threads",
                "2"
            ]),
            want
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budgeted_count_end_to_end() {
        let dir = std::env::temp_dir().join("bfly-cli-test-budget");
        std::fs::create_dir_all(&dir).unwrap();
        let gpath = dir.join("g.tsv");
        let gp_owned = gpath.to_str().unwrap().to_string();
        let gp = gp_owned.as_str();
        run(
            parse(&sv(&[
                "generate", "--kind", "uniform", "--m", "40", "--n", "40", "--edges", "300",
                "--seed", "31", "--out", gp,
            ]))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();

        // A generous budget matches the unbudgeted adaptive count.
        let count_of = |args: &[&str]| -> u64 {
            let mut sink = Vec::new();
            run(parse(&sv(args)).unwrap(), &mut sink).unwrap();
            String::from_utf8(sink)
                .unwrap()
                .split('=')
                .nth(1)
                .unwrap()
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        let want = count_of(&["count", gp, "--adaptive"]);
        assert_eq!(
            count_of(&[
                "count",
                gp,
                "--max-bytes",
                "100000000",
                "--deadline-ms",
                "60000"
            ]),
            want
        );

        // An impossible work cap is a budget-class refusal (exit 4).
        let e = run(
            parse(&sv(&["count", gp, "--max-work", "1"])).unwrap(),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(e.class, ErrorClass::Budget);
        assert_eq!(e.exit_code(), 4);

        // A budgeted report records the limits and the outcome.
        let rpath = dir.join("budget.json");
        run(
            parse(&sv(&[
                "count",
                gp,
                "--max-bytes",
                "100000000",
                "--report",
                rpath.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let rep = RunReport::parse(&std::fs::read_to_string(&rpath).unwrap()).unwrap();
        assert!(rep
            .gauges
            .iter()
            .any(|(n, v)| n == "budget.max_bytes" && *v > 0.0));
        assert!(rep
            .meta
            .iter()
            .any(|(n, v)| n == "complete" && matches!(v, Json::Bool(true))));

        // The label names the engine that ran: on the skewed stand-in the
        // budgeted plan runs the priority member, not its fallback
        // invariant.
        let skew = dir.join("skew.tsv");
        let sp = skew.to_str().unwrap();
        run(
            parse(&sv(&[
                "generate",
                "--kind",
                "standin",
                "--name",
                "occupations",
                "--scale",
                "0.1",
                "--out",
                sp,
            ]))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let mut sink = Vec::new();
        run(
            parse(&sv(&["count", sp, "--max-work", "100000000000"])).unwrap(),
            &mut sink,
        )
        .unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("[priority (adaptive, budgeted)]"), "{text}");
    }

    #[test]
    fn sniff_format_reads_only_the_head() {
        let dir = std::env::temp_dir().join(format!("bfly-cli-sniff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Invalid UTF-8 past byte 64 does not stop the sniff.
        let mut bytes = b"% bip unweighted\n1 1\n".to_vec();
        bytes.resize(64, b' ');
        bytes.extend_from_slice(&[0xff, 0xfe, b'\n']);
        let edges = dir.join("edges.tsv");
        std::fs::write(&edges, &bytes).unwrap();
        assert_eq!(
            sniff_format(edges.to_str().unwrap()).unwrap(),
            Format::EdgeList
        );
        // A MatrixMarket header wins regardless of the extension.
        let mtx = dir.join("out.graph");
        std::fs::write(
            &mtx,
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n",
        )
        .unwrap();
        assert_eq!(
            sniff_format(mtx.to_str().unwrap()).unwrap(),
            Format::MatrixMarket
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn outofcore_convert_and_sharded_counts_match_in_memory() {
        let dir = std::env::temp_dir().join("bfly-cli-test-outofcore");
        std::fs::create_dir_all(&dir).unwrap();
        let gpath = dir.join("g.tsv");
        let gp_owned = gpath.to_str().unwrap().to_string();
        let gp = gp_owned.as_str();
        run(
            parse(&sv(&[
                "generate", "--kind", "chunglu", "--m", "60", "--n", "40", "--edges", "400",
                "--seed", "77", "--out", gp,
            ]))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let count_of = |args: &[&str]| -> u64 {
            let mut sink = Vec::new();
            run(parse(&sv(args)).unwrap(), &mut sink).unwrap();
            String::from_utf8(sink)
                .unwrap()
                .split('=')
                .nth(1)
                .unwrap()
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        let want = count_of(&["count", gp, "--adaptive"]);

        // Convert to .bfly via the streaming converter.
        let bpath = dir.join("g.bfly");
        let bp_owned = bpath.to_str().unwrap().to_string();
        let bp = bp_owned.as_str();
        let mut sink = Vec::new();
        run(
            parse(&sv(&["convert", gp, "--out", bp])).unwrap(),
            &mut sink,
        )
        .unwrap();
        assert!(String::from_utf8(sink).unwrap().contains("edges"));

        // Every command reads .bfly transparently; plain count loads it.
        assert_eq!(count_of(&["count", bp, "--adaptive"]), want);
        let mut sink = Vec::new();
        run(parse(&sv(&["stats", bp])).unwrap(), &mut sink).unwrap();
        assert!(String::from_utf8(sink).unwrap().contains("|E|"));

        // Explicit shard counts stream out-of-core and merge exactly.
        for n in ["1", "2", "4"] {
            assert_eq!(count_of(&["count", bp, "--shards", n]), want, "shards {n}");
        }
        assert_eq!(count_of(&["count", bp, "--shard-bytes", "256"]), want);

        // In-memory sharded execution on the text input agrees too.
        assert_eq!(count_of(&["count", gp, "--shards", "3"]), want);

        // A byte budget below the resident graph routes the .bfly input
        // through the sharded tier; the report carries the shard gauges
        // and memory accounting.
        let g = load_graph(gp, None).unwrap();
        let profile = GraphProfile::compute(&g);
        let floor = profile.resident_bytes
            + bfly_core::plan_scratch_bytes(&profile, &bfly_core::select_plan(&profile, false, 0));
        let cap_owned = (floor - 1).to_string();
        let rpath = dir.join("ooc.json");
        let rp_owned = rpath.to_str().unwrap().to_string();
        assert_eq!(
            count_of(&[
                "count",
                bp,
                "--max-bytes",
                cap_owned.as_str(),
                "--report",
                rp_owned.as_str(),
            ]),
            want
        );
        let rep = RunReport::parse(&std::fs::read_to_string(&rpath).unwrap()).unwrap();
        assert!(rep
            .gauges
            .iter()
            .any(|(n, v)| n == "shards_planned" && *v >= 1.0));
        assert!(rep.gauges.iter().any(|(n, _)| n == "plan.shards"));
        assert!(rep
            .meta
            .iter()
            .any(|(n, v)| n == "complete" && matches!(v, Json::Bool(true))));

        // --shard-bytes needs a .bfly input: a usage error.
        let e = run(
            parse(&sv(&["count", gp, "--shard-bytes", "256"])).unwrap(),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(e.class, ErrorClass::Usage);

        // A corrupt .bfly (valid magic, garbage header) is parse-class.
        let corrupt = dir.join("corrupt.bfly");
        let mut junk = b"BFLYCSR\0".to_vec();
        junk.resize(256, 0xAB);
        std::fs::write(&corrupt, &junk).unwrap();
        let e = run(
            parse(&sv(&["count", corrupt.to_str().unwrap()])).unwrap(),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(e.class, ErrorClass::Parse);
        assert_eq!(e.exit_code(), 3);
    }

    #[test]
    fn corrupt_graphs_and_reports_are_parse_class() {
        let dir = std::env::temp_dir().join("bfly-cli-test-classes");
        std::fs::create_dir_all(&dir).unwrap();
        // Header contradiction: parse class, exit 3.
        let bad = dir.join("bad.tsv");
        std::fs::write(&bad, "% 9 2 2\n0 0\n").unwrap();
        let e = run(
            parse(&sv(&["stats", bad.to_str().unwrap()])).unwrap(),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(e.class, ErrorClass::Parse);
        // Missing file: runtime class, exit 1.
        let e = run(
            parse(&sv(&["stats", "/definitely/not/here.tsv"])).unwrap(),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(e.class, ErrorClass::Runtime);
        // Corrupt and wrong-schema reports are parse class with
        // distinguishable messages (ReportError::Json vs ::Schema).
        let junk = dir.join("junk.json");
        std::fs::write(&junk, "{not json").unwrap();
        let e = run(
            parse(&sv(&["report", "show", junk.to_str().unwrap()])).unwrap(),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(e.class, ErrorClass::Parse);
        assert!(e.msg.contains("unreadable report"), "{}", e.msg);
        let wrong = dir.join("wrong.json");
        std::fs::write(&wrong, "{\"hello\": 1}").unwrap();
        let e = run(
            parse(&sv(&["report", "show", wrong.to_str().unwrap()])).unwrap(),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(e.class, ErrorClass::Parse);
        assert!(e.msg.contains("malformed report"), "{}", e.msg);
    }

    #[test]
    fn parses_liveness_and_gauge_flags() {
        // --progress is boolean: the next token stays positional.
        let cmd = parse(&sv(&["count", "--progress", "g.tsv"])).unwrap();
        match &cmd {
            Command::Count {
                file, telemetry, ..
            } => {
                assert_eq!(file, "g.tsv");
                assert!(telemetry.progress);
                assert!(telemetry.flight_recorder.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!streams_to_stdout(&cmd));

        // --flight-recorder takes a file; tip/wing grew --stream too.
        let cmd = parse(&sv(&[
            "tip",
            "g.tsv",
            "--decompose",
            "--stream",
            "-",
            "--flight-recorder",
            "crash.json",
        ]))
        .unwrap();
        match &cmd {
            Command::Tip { telemetry, .. } => {
                assert_eq!(telemetry.stream.as_deref(), Some("-"));
                assert!(!telemetry.progress);
                assert_eq!(telemetry.flight_recorder.as_deref(), Some("crash.json"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(streams_to_stdout(&cmd));
        let cmd = parse(&sv(&["wing", "g.tsv", "--k", "1", "--progress"])).unwrap();
        assert!(matches!(cmd, Command::Wing { telemetry, .. } if telemetry.progress));

        // report diff grew --gauges / --gauge-tolerance.
        match parse(&sv(&[
            "report",
            "diff",
            "a.json",
            "b.json",
            "--gauges",
            "--gauge-tolerance",
            "40",
        ]))
        .unwrap()
        {
            Command::Report {
                action:
                    ReportAction::Diff {
                        gauges,
                        gauge_tolerance,
                        ..
                    },
            } => {
                assert!(gauges);
                assert!((gauge_tolerance - 40.0).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Default tolerance is 25%; --gauges stays boolean.
        match parse(&sv(&["report", "diff", "a.json", "b.json", "--gauges"])).unwrap() {
            Command::Report {
                action:
                    ReportAction::Diff {
                        gauges,
                        gauge_tolerance,
                        ..
                    },
            } => {
                assert!(gauges);
                assert!((gauge_tolerance - 25.0).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn live_progress_stream_end_to_end() {
        let dir = std::env::temp_dir().join("bfly-cli-test-live");
        std::fs::create_dir_all(&dir).unwrap();
        let gpath = dir.join("g.tsv");
        run(
            parse(&sv(&[
                "generate",
                "--kind",
                "uniform",
                "--m",
                "50",
                "--n",
                "50",
                "--edges",
                "400",
                "--seed",
                "41",
                "--out",
                gpath.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();

        let spath = dir.join("stream.ndjson");
        let mut sink = Vec::new();
        run(
            parse(&sv(&[
                "count",
                gpath.to_str().unwrap(),
                "--progress",
                "--stream",
                spath.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut sink,
        )
        .unwrap();
        assert!(String::from_utf8(sink).unwrap().contains("butterflies ="));

        // Every stream line parses; seq is strictly monotonic across the
        // monitor thread and the closing events; the stream opens with
        // run_start and closes with run_end; the final heartbeat lands on
        // fraction exactly 1.0.
        let text = std::fs::read_to_string(&spath).unwrap();
        let events: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert!(events.len() >= 3, "{text}");
        let seqs: Vec<u64> = events
            .iter()
            .map(|e| e.get("seq").and_then(|s| s.as_u64()).expect("seq"))
            .collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
        assert_eq!(
            events[0].get("type").and_then(|v| v.as_str()),
            Some("run_start")
        );
        assert_eq!(
            events.last().unwrap().get("type").and_then(|v| v.as_str()),
            Some("run_end")
        );
        let heartbeats: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("type").and_then(|v| v.as_str()) == Some("heartbeat"))
            .collect();
        assert!(!heartbeats.is_empty(), "{text}");
        let last_hb = heartbeats.last().unwrap();
        assert_eq!(last_hb.get("final").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(last_hb.get("fraction").and_then(|v| v.as_f64()), Some(1.0));
        // The closing counters event carries the recorder's totals the
        // report has, so a stream consumer needs no side channel.
        assert!(events.iter().any(|e| {
            e.get("type").and_then(|v| v.as_str()) == Some("counters")
                && e.get("values")
                    .and_then(|v| v.get("wedges_expanded"))
                    .and_then(|v| v.as_u64())
                    .unwrap_or(0)
                    > 0
        }));
    }

    #[test]
    fn deadline_truncation_reports_fraction_and_dumps_flight() {
        let dir = std::env::temp_dir().join("bfly-cli-test-truncate");
        std::fs::create_dir_all(&dir).unwrap();
        let gpath = dir.join("g.tsv");
        // The kernel polls the deadline every DEADLINE_STRIDE (4096)
        // vertices, so the partition side must be bigger than one stride
        // for an expired deadline to cut anything.
        run(
            parse(&sv(&[
                "generate",
                "--kind",
                "uniform",
                "--m",
                "6000",
                "--n",
                "6000",
                "--edges",
                "12000",
                "--seed",
                "43",
                "--out",
                gpath.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();

        // The fault hook sleeps past the 1 ms deadline (the budget clock
        // starts at parse), so the kernel is guaranteed to be cut at its
        // first poll — deterministic truncation, not a race.
        let rpath = dir.join("trunc.json");
        let fpath = dir.join("flight.json");
        std::env::set_var("BFLY_FAULT_SLEEP_MS", "30");
        let mut sink = Vec::new();
        let res = run(
            parse(&sv(&[
                "count",
                gpath.to_str().unwrap(),
                "--deadline-ms",
                "1",
                "--report",
                rpath.to_str().unwrap(),
                "--flight-recorder",
                fpath.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut sink,
        );
        std::env::remove_var("BFLY_FAULT_SLEEP_MS");
        res.unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("deadline expired"), "{text}");
        assert!(text.contains("% of predicted work done"), "{text}");

        // The report meta carries complete=false plus the measured
        // fraction; --json-errors would surface the same field on the
        // abort path.
        let rep = RunReport::parse(&std::fs::read_to_string(&rpath).unwrap()).unwrap();
        assert!(rep
            .meta
            .iter()
            .any(|(n, v)| n == "complete" && matches!(v, Json::Bool(false))));
        let frac = rep
            .meta
            .iter()
            .find(|(n, _)| n == "fraction_complete")
            .and_then(|(_, v)| v.as_f64())
            .expect("fraction_complete in meta");
        assert!((0.0..1.0).contains(&frac), "{frac}");

        // The flight recorder dumped the ring with the deadline reason
        // and a final snapshot.
        let dump = Json::parse(&std::fs::read_to_string(&fpath).unwrap()).unwrap();
        assert_eq!(
            dump.get("reason").and_then(|v| v.as_str()),
            Some("deadline")
        );
        assert!(dump.get("events").and_then(|v| v.as_arr()).is_some());
        assert!(dump.get("snapshot").is_some());
    }

    #[test]
    fn cli_error_fraction_lands_in_json_line() {
        let e = classified(ErrorClass::Budget, "work cap hit").with_fraction(Some(0.25));
        let doc = Json::parse(&e.to_json_line()).unwrap();
        assert_eq!(
            doc.get("fraction_complete").and_then(|v| v.as_f64()),
            Some(0.25)
        );
        // with_fraction never overwrites an already-annotated error.
        let e = e.with_fraction(Some(0.75));
        assert_eq!(e.fraction, Some(0.25));
        // Without an annotation the field is absent, not null.
        let e = classified(ErrorClass::Budget, "x");
        assert!(!e.to_json_line().contains("fraction_complete"));
    }

    #[test]
    fn report_diff_gauges_gates_regressions_but_not_spans() {
        let dir = std::env::temp_dir().join("bfly-cli-test-gauge-diff");
        std::fs::create_dir_all(&dir).unwrap();
        let gpath = dir.join("g.tsv");
        run(
            parse(&sv(&[
                "generate",
                "--kind",
                "uniform",
                "--m",
                "30",
                "--n",
                "30",
                "--edges",
                "200",
                "--seed",
                "47",
                "--out",
                gpath.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let rpath = dir.join("base.json");
        run(
            parse(&sv(&[
                "count",
                gpath.to_str().unwrap(),
                "--adaptive",
                "--report",
                rpath.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();

        // Inflate a real gauge far past the tolerance; counters stay
        // identical so only the gauge lane can fail.
        let mut rep = load_report(rpath.to_str().unwrap()).unwrap();
        let target = rep
            .gauges
            .iter_mut()
            .find(|(n, _)| !n.starts_with("span."))
            .expect("a non-span gauge");
        target.1 = target.1 * 10.0 + 1000.0;
        // And plant a wildly-regressed span gauge in both: informational,
        // must never gate.
        rep.gauges.push(("span.fake.total_us".to_string(), 1e9));
        let bad = dir.join("inflated.json");
        std::fs::write(&bad, rep.to_json_string()).unwrap();
        let mut base = load_report(rpath.to_str().unwrap()).unwrap();
        base.gauges.push(("span.fake.total_us".to_string(), 1.0));
        std::fs::write(&rpath, base.to_json_string()).unwrap();

        let diff_args = |gauges: bool| -> Result<(), CliError> {
            let mut args = vec![
                "report",
                "diff",
                rpath.to_str().unwrap(),
                bad.to_str().unwrap(),
            ];
            if gauges {
                args.push("--gauges");
            }
            run(parse(&sv(&args)).unwrap(), &mut Vec::new())
        };
        // Without --gauges the inflated gauge is informational.
        diff_args(false).unwrap();
        // With --gauges it gates — and the message names the gauge lane,
        // not the span.
        let e = diff_args(true).unwrap_err();
        assert!(e.msg.contains("gauge"), "{}", e.msg);
        assert!(!e.msg.contains("span.fake"), "{}", e.msg);
    }

    #[test]
    fn standin_generation_by_name() {
        let dir = std::env::temp_dir().join("bfly-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("standin.tsv");
        let mut sink = Vec::new();
        run(
            parse(&sv(&[
                "generate",
                "--kind",
                "standin",
                "--name",
                "github",
                "--scale",
                "0.01",
                "--out",
                path.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut sink,
        )
        .unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("wrote"), "{text}");
        assert!(parse(&sv(&[
            "generate", "--kind", "standin", "--name", "nope", "--out", "x"
        ]))
        .map(|c| run(c, &mut Vec::new()))
        .unwrap()
        .is_err());
    }
}
