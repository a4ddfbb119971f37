//! Adaptive invariant selection: the paper's §V findings as a cost model.
//!
//! Section V reports that the fastest member of the eight-algorithm family
//! is predicted by graph shape: partition the vertex set whose *opposite*
//! side does the least wedge work, and (in the paper's measurements)
//! prefer the look-ahead members. The partition rule reproduces here; the
//! look-ahead preference does not (EXPERIMENTS.md, E2 — the A₀-readers
//! are consistently faster in this implementation), so the cost model
//! keeps the paper's side rule and follows our own measurements within a
//! side. Instead of making the caller hand-pick an invariant, this module
//!
//! 1. computes a cheap [`GraphProfile`] — side sizes, degree extrema, the
//!    `Σ C(deg, 2)` wedge-work estimate per side, and degree skew — in one
//!    pass over the two CSR/CSC degree arrays;
//! 2. runs a cost model ([`select_plan`]) that picks
//!    the partition side, traversal direction, look-ahead vs. look-behind,
//!    and (for parallel runs) degree-balanced chunk boundaries instead of
//!    equal vertex ranges; and
//! 3. optionally renumbers the partitioned side by descending degree
//!    before counting ([`Plan::degree_ordered`]) — the ordering heuristic
//!    of Wang et al. (VLDB'19) and ParButterfly's ranking phase — mapping
//!    per-vertex results back through the permutation afterwards.
//!
//! The whole decision is recorded in telemetry (`select` span plus
//! `plan.*` gauges), so `bfly report diff` can gate on it and
//! `bfly count --explain` can print it.
//!
//! The wedge-work estimate is exact, not heuristic: a full run of any
//! family member that partitions side `P` expands exactly
//! `Σ_{j ∈ other(P)} C(deg(j), 2)` wedges (each unordered pair of
//! partitioned-side vertices sharing the opposite-side neighbour `j` is
//! expanded once, whichever of `A₀`/`A₂` the update reads). The property
//! tests pin this identity against the `wedges_expanded` counter.

use crate::budget::{record_degraded, record_memory, Partial, ResourceBudget};
use crate::family::engine::{run_partitioned, FixedKernel};
use crate::family::parallel::{balanced_ranges, drive_chunks};
use crate::family::priority::run_priority;
use crate::family::ranked::run_ranked;
use crate::family::sharded::drive_shards;
use crate::family::{priority_wedge_work, Invariant, RANKED_BUCKET_WEDGES};
use bfly_graph::ordering::{
    degree_descending, degree_sorted, is_rank_ordered, rank_ordered, relabel,
};
use bfly_graph::{BipartiteGraph, Side};
use bfly_sparse::choose2;
use bfly_telemetry::{timed_span, Counter, Json, NoopRecorder, Recorder, WorkForecast};
use std::time::Instant;

/// Structural profile of a bipartite graph — everything the cost model
/// reads. Cheap: one pass over the two degree arrays for the side terms,
/// plus one degree sort and one row cut per vertex for the exact
/// vertex-priority work term on a rank-ordered graph (still far below
/// the counting work it predicts).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphProfile {
    /// `|V1|` (rows of `A`).
    pub nv1: usize,
    /// `|V2|` (columns of `A`).
    pub nv2: usize,
    /// `|E|`.
    pub nedges: usize,
    /// Maximum degree on V1.
    pub max_deg_v1: usize,
    /// Maximum degree on V2.
    pub max_deg_v2: usize,
    /// `Σ_{u ∈ V1} C(deg(u), 2)` — the wedge work of partitioning **V2**
    /// (invariants 1–4 expand their wedges through V1 vertices).
    pub wedges_v1: u64,
    /// `Σ_{v ∈ V2} C(deg(v), 2)` — the wedge work of partitioning **V1**.
    pub wedges_v2: u64,
    /// Exact wedge work of the vertex-priority kernel under the global
    /// degree-descending order: `Σ_j [C(deg j, 2) − C(g_j, 2)]` where
    /// `g_j` counts the strictly-lower-priority neighbours of `j`
    /// ([`priority_wedge_work`]). *Not* bounded by
    /// `min(wedges_v1, wedges_v2)` in general — on near-uniform graphs it
    /// can exceed the best fixed side by up to ~30% — which is why
    /// [`select_plan`] gates the priority member on this measured value
    /// rather than assuming an advantage. `u64::MAX` when it cannot be
    /// measured (an out-of-core profile): the gate then never fires, and
    /// [`GraphProfile::to_json`] renders it as `null`.
    pub wedges_priority: u64,
    /// Degree skew of V1: `max_deg_v1 / mean_deg_v1` (0 when edgeless).
    pub skew_v1: f64,
    /// Degree skew of V2: `max_deg_v2 / mean_deg_v2` (0 when edgeless).
    pub skew_v2: f64,
    /// Estimated heap bytes of the materialized CSR/CSC pair itself
    /// ([`graph_resident_bytes`]) — what an in-memory plan must keep
    /// resident before any scratch is allocated. A byte budget below this
    /// makes "doesn't fit" a *planned* condition: [`select_plan_budgeted`]
    /// selects the sharded tier outright instead of degrading scratch.
    pub resident_bytes: u64,
}

/// Estimated heap bytes of holding a graph of the given shape in memory
/// as a [`BipartiteGraph`]: both CSR orientations' column indices plus
/// the two row-pointer arrays (matching
/// [`SegmentedGraph::resident_bytes`](bfly_graph::SegmentedGraph::resident_bytes),
/// so on-disk and in-memory profiles agree on the number).
pub fn graph_resident_bytes(nv1: usize, nv2: usize, nedges: usize) -> u64 {
    2 * (4 * nedges as u64 + 8 * (nv1 + nv2 + 2) as u64)
}

impl GraphProfile {
    /// Profile `g`: the degree terms (one pass over each side's degree
    /// array) plus the exact vertex-priority work
    /// ([`priority_wedge_work`]: one degree sort and one row cut per
    /// vertex, after a transient rank-ordered copy when `g` is input-ordered).
    pub fn compute(g: &BipartiteGraph) -> GraphProfile {
        GraphProfile {
            wedges_priority: priority_wedge_work(g),
            ..GraphProfile::of_degrees(g)
        }
    }

    /// The degree terms of `g` alone, in one pass over each side's degree
    /// array with no allocation. The priority term is not measured: it is
    /// pinned to the `u64::MAX` sentinel, so the member gate never fires
    /// and [`GraphProfile::to_json`] renders it as `null`.
    pub(crate) fn of_degrees(g: &BipartiteGraph) -> GraphProfile {
        GraphProfile::from_degrees(
            (0..g.nv1()).map(|u| g.deg_v1(u)),
            (0..g.nv2()).map(|v| g.deg_v2(v)),
            g.nedges(),
            graph_resident_bytes(g.nv1(), g.nv2(), g.nedges()),
        )
    }

    /// A profile from the two sides' degree sequences, with the priority
    /// term unmeasured (`u64::MAX`). The in-memory and the on-disk
    /// profiles both start here.
    pub(crate) fn from_degrees(
        deg_v1: impl ExactSizeIterator<Item = usize>,
        deg_v2: impl ExactSizeIterator<Item = usize>,
        nedges: usize,
        resident_bytes: u64,
    ) -> GraphProfile {
        // Saturating sums: the profile is a cost *estimate*, and a graph
        // whose wedge volume exceeds u64 should still profile (and then
        // fail the work budget or overflow check downstream) rather than
        // wrap to a tiny bogus estimate in release builds.
        fn side(degrees: impl Iterator<Item = usize>) -> (usize, u64) {
            degrees.fold((0, 0), |(max_deg, wedges), d| {
                (max_deg.max(d), wedges.saturating_add(choose2(d as u64)))
            })
        }
        let (nv1, nv2) = (deg_v1.len(), deg_v2.len());
        let (max_deg_v1, wedges_v1) = side(deg_v1);
        let (max_deg_v2, wedges_v2) = side(deg_v2);
        let skew = |max_deg: usize, count: usize| {
            if nedges == 0 || count == 0 {
                0.0
            } else {
                max_deg as f64 * count as f64 / nedges as f64
            }
        };
        GraphProfile {
            nv1,
            nv2,
            nedges,
            max_deg_v1,
            max_deg_v2,
            wedges_v1,
            wedges_v2,
            wedges_priority: u64::MAX,
            skew_v1: skew(max_deg_v1, nv1),
            skew_v2: skew(max_deg_v2, nv2),
            resident_bytes,
        }
    }

    /// Exact wedge work of a full family run that partitions `side`
    /// (wedges are expanded through the *other* side's vertices).
    pub fn partition_cost(&self, side: Side) -> u64 {
        match side {
            Side::V1 => self.wedges_v2,
            Side::V2 => self.wedges_v1,
        }
    }

    /// The side both cost models partition (count) or peel (tip): the
    /// one whose opposite side does less wedge work, ties broken toward
    /// the smaller side per the paper's rule.
    pub(crate) fn cheaper_side(&self) -> Side {
        let (cost_v1, cost_v2) = (self.partition_cost(Side::V1), self.partition_cost(Side::V2));
        if cost_v2 < cost_v1 || (cost_v2 == cost_v1 && self.nv2 <= self.nv1) {
            Side::V2
        } else {
            Side::V1
        }
    }

    /// Degree skew of the given side.
    pub fn skew(&self, side: Side) -> f64 {
        match side {
            Side::V1 => self.skew_v1,
            Side::V2 => self.skew_v2,
        }
    }

    /// Render as a JSON object (the `--explain` payload).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("nv1".into(), Json::UInt(self.nv1 as u64)),
            ("nv2".into(), Json::UInt(self.nv2 as u64)),
            ("nedges".into(), Json::UInt(self.nedges as u64)),
            ("max_deg_v1".into(), Json::UInt(self.max_deg_v1 as u64)),
            ("max_deg_v2".into(), Json::UInt(self.max_deg_v2 as u64)),
            ("wedges_v1".into(), Json::UInt(self.wedges_v1)),
            ("wedges_v2".into(), Json::UInt(self.wedges_v2)),
            (
                "wedges_priority".into(),
                match self.wedges_priority {
                    u64::MAX => Json::Null,
                    w => Json::UInt(w),
                },
            ),
            ("skew_v1".into(), Json::Float(self.skew_v1)),
            ("skew_v2".into(), Json::Float(self.skew_v2)),
            ("resident_bytes".into(), Json::UInt(self.resident_bytes)),
        ])
    }
}

/// How the selected invariant is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// The plain sequential loop of [`crate::family::count`].
    Flat,
    /// Rayon-parallel with degree-balanced chunk boundaries
    /// (the chunk driver over [`crate::family::balanced_chunk_bounds`]).
    Parallel {
        /// Number of work chunks (normally the worker count).
        chunks: usize,
    },
    /// Shard-by-vertex-range execution ([`crate::family::sharded`]):
    /// wedge-balanced shards of the partitioned side counted one at a
    /// time and merged exactly, resident or straight off a `.bfly` file —
    /// the tier a byte budget too small for the resident graph selects.
    Sharded {
        /// Number of vertex-range shards.
        shards: usize,
    },
}

/// Which counting engine a [`Plan`] runs: one of the paper's eight fixed
/// invariants, or one of the global-order kernels that supersede them on
/// sufficiently skewed graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Member {
    /// A fixed invariant of the paper's family (partition one side,
    /// expand every wedge through the other).
    Fixed(Invariant),
    /// The vertex-priority kernel ([`crate::family::count_priority`]):
    /// global degree-descending order over `V1 ∪ V2`, each wedge expanded
    /// only from its strictly-highest-priority endpoint.
    Priority,
    /// Ranked wedge aggregation ([`crate::family::count_ranked`]): the
    /// priority wedge set processed in rank order through weight-balanced
    /// buckets of flat SPA batches.
    Ranked,
}

impl Member {
    /// Short lowercase name (the `--explain` / gauge vocabulary).
    pub fn name(&self) -> &'static str {
        match self {
            Member::Fixed(_) => "fixed",
            Member::Priority => "priority",
            Member::Ranked => "ranked",
        }
    }

    /// Stable numeric encoding for the `plan.member` gauge.
    pub fn gauge_value(&self) -> f64 {
        match self {
            Member::Fixed(_) => 0.0,
            Member::Priority => 1.0,
            Member::Ranked => 2.0,
        }
    }
}

/// The cost model's full decision for one graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The engine that runs: a fixed invariant, or a global-order kernel.
    /// When this is [`Member::Priority`] / [`Member::Ranked`], `invariant`
    /// still names the best *fixed* member — the budget degradation
    /// fallback and the `est_work_alt` baseline.
    pub member: Member,
    /// The best fixed family member (fixes partition side, traversal
    /// direction, and `A₀` vs. `A₂`). Authoritative only when `member`
    /// is [`Member::Fixed`]; otherwise the fallback.
    pub invariant: Invariant,
    /// Renumber the partitioned side by descending degree first.
    pub degree_ordered: bool,
    /// Flat, parallel, or sharded execution.
    pub mode: ExecMode,
    /// Exact wedge work of the chosen engine: the chosen partition side's
    /// `Σ C(deg, 2)` for a fixed member, [`GraphProfile::wedges_priority`]
    /// for the priority/ranked members.
    pub est_work: u64,
    /// Wedge work of the rejected alternative: the other side for a fixed
    /// member, the best fixed side for priority/ranked.
    pub est_work_alt: u64,
}

impl Plan {
    /// The plan a flag forces: `member` in `mode` (`Flat` or
    /// `Parallel { chunks }` from the CLI), never degree-ordered. A fixed
    /// member is priced exactly from the degree terms — its partition
    /// side's `Σ C(deg, 2)` as `est_work`, the other side's as
    /// `est_work_alt` — taken from `profile` when the run computed one,
    /// else from one pass over the degree arrays (no allocation). A
    /// global-order member keeps the best fixed invariant as its
    /// fallback, priced as `est_work_alt`; its `est_work` is the
    /// profile's [`GraphProfile::wedges_priority`], or the unmeasured
    /// `u64::MAX` sentinel without a profile.
    pub fn forced(
        g: &BipartiteGraph,
        member: Member,
        mode: ExecMode,
        profile: Option<&GraphProfile>,
    ) -> Plan {
        let degrees;
        let profile = match profile {
            Some(p) => p,
            None => {
                degrees = GraphProfile::of_degrees(g);
                &degrees
            }
        };
        match member {
            Member::Fixed(inv) => Plan {
                member,
                invariant: inv,
                degree_ordered: false,
                mode,
                est_work: profile.partition_cost(inv.partitioned_side()),
                est_work_alt: profile.partition_cost(inv.partitioned_side().other()),
            },
            Member::Priority | Member::Ranked => {
                let best = select_plan(profile, false, 0).demoted();
                Plan {
                    member,
                    mode,
                    est_work: profile.wedges_priority,
                    est_work_alt: best.est_work,
                    ..best
                }
            }
        }
    }

    /// This plan's fixed fallback: a global-order member becomes the best
    /// fixed invariant it carries (`est_work` and `est_work_alt` swap
    /// back, so the estimate stays that of the engine that runs), and the
    /// degree-ordered relabel is dropped. A fixed plan only loses the
    /// relabel.
    pub fn demoted(mut self) -> Plan {
        if !matches!(self.member, Member::Fixed(_)) {
            self.member = Member::Fixed(self.invariant);
            std::mem::swap(&mut self.est_work, &mut self.est_work_alt);
        }
        self.degree_ordered = false;
        self
    }

    /// The sharded fixed-member plan, and its only planner: the sharded
    /// tier of [`select_plan_budgeted`], text `--shards` and every
    /// `.bfly` count plan here. It prices only the profile's degree terms,
    /// the only terms a `.bfly` profile has, so resident and on-disk
    /// inputs get the same plan: the demoted [`select_plan`], with the
    /// other fixed side as `est_work_alt`. It checks the wedge-work cap,
    /// picks the shard count by `sizing` (at most one shard per
    /// partitioned vertex), then checks the byte cap, so a cap no shard
    /// count fits fails with the exact estimate.
    pub fn sharded(
        profile: &GraphProfile,
        sizing: ShardSizing,
        budget: &ResourceBudget,
    ) -> crate::error::Result<Plan> {
        let mut plan = select_plan(profile, false, 0).demoted();
        plan.est_work_alt = profile.partition_cost(plan.partition_side().other());
        budget.check_wedge_work(plan.est_work)?;
        let (part_len, side) = match plan.partition_side() {
            Side::V1 => (profile.nv1.max(1), 0),
            Side::V2 => (profile.nv2.max(1), 1),
        };
        let mut shards = match sizing {
            ShardSizing::Count(n) => n,
            ShardSizing::Bytes(cap, payload) => {
                payload[side].div_ceil(cap.max(1)).min(part_len as u64) as usize
            }
            ShardSizing::Fit => 1,
        }
        .clamp(1, part_len);
        loop {
            plan.mode = ExecMode::Sharded { shards };
            let fits = budget.bytes_fit(plan_scratch_bytes(profile, &plan));
            if sizing != ShardSizing::Fit || fits || shards >= part_len {
                break;
            }
            shards = (shards * 2).min(part_len);
        }
        budget.check_bytes(plan_scratch_bytes(profile, &plan))?;
        Ok(plan)
    }

    /// The vertex set the plan partitions.
    pub fn partition_side(&self) -> Side {
        self.invariant.partitioned_side()
    }

    /// Predicted total work for liveness monitoring: counting plans
    /// forecast the `wedges_expanded` counter *exactly*, so
    /// `progress.fraction` ends at exactly 1.0 on a completed run and
    /// can never overshoot. For a fixed member `est_work` is the chosen
    /// side's Σ C(deg, 2); for the priority and ranked members it is the
    /// closed-form [`priority_wedge_work`] total — both kernels expand
    /// exactly that many wedges (pinned by their unit tests), so the
    /// per-member forecast stays exact rather than reusing the one-side
    /// formula the fixed members use.
    pub fn forecast(&self) -> WorkForecast {
        WorkForecast::new(Counter::WedgesExpanded, self.est_work)
    }

    /// Emit the `plan.*` gauges and the `progress.total_work` forecast
    /// describing this plan.
    pub fn record<R: Recorder>(&self, rec: &mut R) {
        if !R::ENABLED {
            return;
        }
        rec.gauge("plan.member", self.member.gauge_value());
        rec.gauge("plan.invariant", self.invariant.number() as f64);
        rec.gauge(
            "plan.partition_side",
            match self.partition_side() {
                Side::V1 => 1.0,
                Side::V2 => 2.0,
            },
        );
        rec.gauge(
            "plan.lookahead",
            if self.invariant.is_lookahead() {
                1.0
            } else {
                0.0
            },
        );
        rec.gauge(
            "plan.degree_ordered",
            if self.degree_ordered { 1.0 } else { 0.0 },
        );
        let (chunks, shards) = match self.mode {
            ExecMode::Flat => (0.0, 0.0),
            ExecMode::Parallel { chunks } => (chunks as f64, 0.0),
            ExecMode::Sharded { shards } => (0.0, shards as f64),
        };
        rec.gauge("plan.par_chunks", chunks);
        rec.gauge("plan.shards", shards);
        rec.gauge("plan.est_work", self.est_work as f64);
        rec.gauge("plan.est_work_alt", self.est_work_alt as f64);
        // Liveness: the forecast total the monitor seeds its ProgressModel
        // with, visible in reports even when no monitor ran.
        rec.gauge("progress.total_work", self.forecast().total as f64);
    }

    /// Render as a JSON object (the `--explain` payload).
    pub fn to_json(&self) -> Json {
        let (mode, chunks, shards) = match self.mode {
            ExecMode::Flat => ("flat", 0u64, 0u64),
            ExecMode::Parallel { chunks } => ("parallel", chunks as u64, 0),
            ExecMode::Sharded { shards } => ("sharded", 0, shards as u64),
        };
        Json::Obj(vec![
            ("member".into(), Json::Str(self.member.name().into())),
            (
                "invariant".into(),
                Json::UInt(self.invariant.number() as u64),
            ),
            (
                "partition_side".into(),
                Json::Str(format!("{:?}", self.partition_side())),
            ),
            (
                "lookahead".into(),
                Json::Bool(self.invariant.is_lookahead()),
            ),
            ("degree_ordered".into(), Json::Bool(self.degree_ordered)),
            ("mode".into(), Json::Str(mode.into())),
            ("chunks".into(), Json::UInt(chunks)),
            ("shards".into(), Json::UInt(shards)),
            (
                "est_work".into(),
                match self.est_work {
                    u64::MAX => Json::Null,
                    w => Json::UInt(w),
                },
            ),
            ("est_work_alt".into(), Json::UInt(self.est_work_alt)),
        ])
    }
}

/// How [`Plan::sharded`] picks its shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSizing {
    /// Exactly this many shards.
    Count(usize),
    /// Shards of about `.0` payload bytes each, out of the partitioned
    /// side's on-disk payload (`.1` holds V1's and V2's).
    Bytes(u64, [u64; 2]),
    /// The fewest shards, doubling from one, whose scratch estimate fits
    /// the byte cap (one shard without a cap).
    Fit,
}

/// Degree skew of the partitioned side past which the plan renumbers it
/// by descending degree (concentrating the heavy accumulator rows early,
/// the locality effect degree ordering buys).
pub const DEGREE_ORDER_SKEW_THRESHOLD: f64 = 8.0;

/// Minimum wedge work *per edge* before degree ordering is worth the
/// relabel: renumbering is a sort plus a CSR/CSC rebuild — a few passes
/// over the edge list — so it only pays once the counting loop does far
/// more work than the rebuild (measured ~30% overhead on the stand-in
/// datasets when applied unconditionally).
pub const DEGREE_ORDER_MIN_WORK_PER_EDGE: u64 = 256;

/// Best-fixed-side wedge-work floor below which the global-order members
/// are never selected: the priority rank sort plus the extra edge pass
/// cost more than they can save on tiny inputs.
pub const PRIORITY_MIN_WORK: u64 = 1 << 10;

/// Fraction of the best fixed side's work the priority wedge total must
/// undercut before a global-order member is selected. The margin absorbs
/// the rank-sort overhead and the slightly worse locality of combined
/// `V1 ∪ V2` iteration; measured on the stand-in generators, strongly
/// skewed graphs land at 0.75–0.86 (selected) while near-uniform graphs
/// land at 1.0–1.3 (rejected).
pub const PRIORITY_ADVANTAGE: f64 = 0.9;

/// The cost model. Chooses:
///
/// * **partition side** — `GraphProfile::cheaper_side`: the side whose
///   opposite does less wedge work (`Σ C(deg, 2)` over the
///   non-partitioned side is the *exact* inner-loop volume), ties broken
///   toward the smaller side per the paper's rule;
/// * **invariant** — the forward *processed-prefix* member of the chosen
///   side (Inv. 1 / Inv. 5). The paper's §V prefers the look-ahead
///   members, but that finding does not reproduce in this implementation:
///   the A₀-readers run ~5–25% faster here (EXPERIMENTS.md, E2), so the
///   cost model follows the measurement;
/// * **degree ordering** — renumber the partitioned side by descending
///   degree when its skew crosses [`DEGREE_ORDER_SKEW_THRESHOLD`] *and*
///   the wedge work is at least [`DEGREE_ORDER_MIN_WORK_PER_EDGE`] times
///   the edge count (otherwise the relabel costs more than it saves);
/// * **mode** — parallel (degree-balanced chunks, one per worker) when
///   requested, else flat;
/// * **member** — when the exact priority wedge total
///   ([`GraphProfile::wedges_priority`]) undercuts the best fixed side by
///   [`PRIORITY_ADVANTAGE`] and that side clears [`PRIORITY_MIN_WORK`],
///   the plan runs the global-order [`Member::Priority`] kernel instead
///   of the fixed invariant, flat or parallel ([`Member::Ranked`] runs
///   only when forced). `est_work` then becomes the priority total (keeping
///   [`Plan::forecast`] exact) and `est_work_alt` the fixed side it beat.
pub fn select_plan(profile: &GraphProfile, parallel: bool, workers: usize) -> Plan {
    let side = profile.cheaper_side();
    let est_work = profile.partition_cost(side);
    let est_work_alt = profile.partition_cost(side.other());
    let mode = if parallel {
        ExecMode::Parallel {
            chunks: workers.max(1),
        }
    } else {
        ExecMode::Flat
    };
    let invariant = match side {
        Side::V2 => Invariant::Inv1,
        Side::V1 => Invariant::Inv5,
    };
    let degree_ordered = profile.skew(side) >= DEGREE_ORDER_SKEW_THRESHOLD
        && est_work >= DEGREE_ORDER_MIN_WORK_PER_EDGE * profile.nedges as u64;
    // Global-order members: selected only when the *measured* priority
    // wedge total undercuts the best fixed side by the advantage margin
    // (the relation is regime-dependent — near-uniform graphs invert it,
    // so the gate compares, never assumes). On rank-ordered rows the
    // priority member scans only its wedges, flat or in weight-balanced
    // chunks, and beats ranked's materialise-then-replay in both modes;
    // degree ordering is superseded by the global rank.
    let advantage = (profile.wedges_priority as u128) * 10 < (est_work as u128) * 9;
    debug_assert_eq!(PRIORITY_ADVANTAGE, 0.9, "gate arithmetic hard-codes 9/10");
    if advantage && est_work >= PRIORITY_MIN_WORK {
        return Plan {
            member: Member::Priority,
            invariant,
            degree_ordered: false,
            mode,
            est_work: profile.wedges_priority,
            est_work_alt: est_work,
        };
    }
    Plan {
        member: Member::Fixed(invariant),
        invariant,
        degree_ordered,
        mode,
        est_work,
        est_work_alt,
    }
}

/// Wedge-work floor below which a peel decomposition stays sequential:
/// the frontier-parallel engine pays a join (delta merge plus, with the
/// vendored rayon shim, a thread handoff) per large round, which only
/// amortises once the repair kernels have real work to split.
pub const PEEL_PARALLEL_MIN_WORK: u64 = 1 << 14;

/// The cost model's decision for one peeling run — which side to tip-peel
/// and whether the bucket engine chunks its frontiers.
#[derive(Debug, Clone, PartialEq)]
pub struct PeelPlan {
    /// The side whose decomposition does less wedge work (tip peeling
    /// wedge-expands removed vertices through the *other* side).
    pub side: Side,
    /// Chunk each large frontier over rayon workers.
    pub parallel: bool,
    /// Number of frontier chunks when parallel (normally the worker
    /// count; `1` otherwise).
    pub chunks: usize,
    /// Exact wedge work of the chosen side's repair kernels.
    pub est_work: u64,
    /// Wedge work the rejected side would have done.
    pub est_work_alt: u64,
}

impl PeelPlan {
    /// The plan that peels `side`: its wedge work against the other
    /// side's, going parallel when `workers > 1` and the wedge work clears
    /// [`PEEL_PARALLEL_MIN_WORK`] (below it the per-round join dominates).
    pub fn for_side(profile: &GraphProfile, side: Side, workers: usize) -> PeelPlan {
        let est_work = profile.partition_cost(side);
        let parallel = workers > 1 && est_work >= PEEL_PARALLEL_MIN_WORK;
        PeelPlan {
            side,
            parallel,
            chunks: if parallel { workers } else { 1 },
            est_work,
            est_work_alt: profile.partition_cost(side.other()),
        }
    }

    /// Emit the `peel.*` gauges and the `progress.total_work` forecast
    /// describing this plan.
    pub fn record<R: Recorder>(&self, rec: &mut R) {
        if !R::ENABLED {
            return;
        }
        rec.gauge(
            "peel.side",
            match self.side {
                Side::V1 => 1.0,
                Side::V2 => 2.0,
            },
        );
        rec.gauge("peel.parallel", if self.parallel { 1.0 } else { 0.0 });
        rec.gauge("peel.chunks", self.chunks as f64);
        rec.gauge("peel.est_work", self.est_work as f64);
        rec.gauge("peel.est_work_alt", self.est_work_alt as f64);
        rec.gauge("progress.total_work", self.forecast().total as f64);
    }

    /// Predicted total work for liveness monitoring: peel plans
    /// forecast the `supports_recomputed` counter from the wedge-work
    /// *estimate* of the repair kernels — approximate (peeling repairs
    /// only surviving wedges), so the progress model clamps and the
    /// monitor snaps to 1.0 on completion.
    pub fn forecast(&self) -> WorkForecast {
        WorkForecast::new(Counter::SupportsRecomputed, self.est_work)
    }

    /// Render as a JSON object (the `--explain` payload).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("side".into(), Json::Str(format!("{:?}", self.side))),
            ("parallel".into(), Json::Bool(self.parallel)),
            ("chunks".into(), Json::UInt(self.chunks as u64)),
            ("est_work".into(), Json::UInt(self.est_work)),
            ("est_work_alt".into(), Json::UInt(self.est_work_alt)),
        ])
    }
}

/// Peel-mode selection, sharing the counting model's side rule
/// (`GraphProfile::cheaper_side`: the repair kernel expands exactly the
/// counting engine's wedges); see [`PeelPlan::for_side`] for the rest.
pub fn select_peel_plan(profile: &GraphProfile, workers: usize) -> PeelPlan {
    PeelPlan::for_side(profile, profile.cheaper_side(), workers)
}

/// Profile `g` and select a peel plan, recording the decision inside a
/// `select` span with `peel.*` gauges (the peeling counterpart of
/// [`profile_and_plan_recorded`]). Peel plans read only the degree
/// terms, so the priority term is left unmeasured.
pub fn profile_and_peel_plan_recorded<R: Recorder>(
    g: &BipartiteGraph,
    workers: usize,
    rec: &mut R,
) -> (GraphProfile, PeelPlan) {
    timed_span(rec, "select", |rec| {
        let profile = GraphProfile::of_degrees(g);
        let plan = select_peel_plan(&profile, workers);
        plan.record(rec);
        (profile, plan)
    })
}

/// Profile `g` and select a plan, recording the decision: the work happens
/// inside a `select` span and the choice lands in `plan.*` gauges so
/// saved reports carry it.
pub fn profile_and_plan_recorded<R: Recorder>(
    g: &BipartiteGraph,
    parallel: bool,
    workers: usize,
    rec: &mut R,
) -> (GraphProfile, Plan) {
    timed_span(rec, "select", |rec| {
        let profile = GraphProfile::compute(g);
        let plan = select_plan(&profile, parallel, workers);
        plan.record(rec);
        (profile, plan)
    })
}

/// Execute a previously selected plan on `g`. A total past `u64` panics
/// naming [`try_count_adaptive`].
pub fn execute_plan(g: &BipartiteGraph, plan: &Plan) -> u64 {
    run_to_end(g, plan, &mut NoopRecorder, "try_count_adaptive")
}

/// [`run_plan`] without a deadline for an infallible entry point: a total
/// past `u64` panics naming `twin`, the call that reports it as a typed
/// error instead.
pub(crate) fn run_to_end<R: Recorder>(
    g: &BipartiteGraph,
    plan: &Plan,
    rec: &mut R,
    twin: &'static str,
) -> u64 {
    crate::error::expect_ok(run_plan(g, plan, None, rec), twin).value
}

/// The plan executor, and the only one: every in-memory count — fixed,
/// priority or ranked member; flat, parallel or sharded mode — runs its
/// member's one overflow-checked kernel here with `deadline` polled at
/// item boundaries, inside one `count` span that times the whole run
/// (rank or relabel, then kernel). Returns the count with
/// `complete = false` when the deadline cut the traversal short — the
/// value is then the exact count over the items processed before the
/// cut, a lower bound on the true total, and a `budget.degraded = 3`
/// gauge marks the cut. Either way the run ends by recording measured
/// memory ([`record_memory`]). The only error is a total past `u64`
/// ([`BflyError::CountOverflow`](crate::error::BflyError::CountOverflow)).
///
/// Degree-ordered plans count an isomorphic renumbering of `g` (none
/// when the partitioned side is already numbered by degree descending,
/// as on a rank-ordered graph); the priority and ranked members count a
/// rank-ordered one, relabelled under a `rank_relabel` span when `g` is
/// not rank-ordered. The total is unchanged (counting is
/// permutation-invariant — pinned by the differential tests), so no
/// inverse mapping is needed here.
pub fn run_plan<R: Recorder>(
    g: &BipartiteGraph,
    plan: &Plan,
    deadline: Option<Instant>,
    rec: &mut R,
) -> crate::error::Result<Partial<u64>> {
    let chunks = match plan.mode {
        ExecMode::Parallel { chunks } => Some(chunks),
        ExecMode::Sharded { shards } => Some(shards),
        ExecMode::Flat => None,
    };
    // Global-order members ignore partition side and degree ordering —
    // the global rank *is* their ordering heuristic — and run on
    // rank-ordered ids: an input-ordered graph is relabelled into a
    // transient copy first.
    let (acc, complete) = timed_span(rec, "count", |rec| match plan.member {
        Member::Priority | Member::Ranked => {
            let relabelled;
            let g = if is_rank_ordered(g) {
                g
            } else {
                relabelled = timed_span(rec, "rank_relabel", |_| rank_ordered(g));
                &relabelled
            };
            Ok(match plan.member {
                Member::Priority => run_priority(g, chunks, deadline, rec),
                _ => run_ranked(g, chunks, deadline, rec),
            })
        }
        Member::Fixed(_) => {
            let side = plan.partition_side();
            let ordered;
            let g_exec: &BipartiteGraph = if plan.degree_ordered && !degree_sorted(g, side) {
                ordered = timed_span(rec, "degree_order", |_| {
                    relabel(g, side, &degree_descending(g, side))
                });
                &ordered
            } else {
                g
            };
            let kernel = FixedKernel::of(g_exec, plan.invariant);
            match plan.mode {
                ExecMode::Flat => Ok(run_partitioned(&kernel, deadline, rec)),
                ExecMode::Parallel { chunks } => {
                    let ranges = balanced_ranges(&kernel.item_weights(), chunks);
                    Ok(drive_chunks(&kernel, ranges, deadline, rec))
                }
                ExecMode::Sharded { shards } => {
                    drive_shards(kernel, plan.invariant, shards, deadline, rec)
                }
            }
        }
    })?;
    finish_count(acc, complete, "count_adaptive", rec)
}

/// Close a count: the exact total (past `u64`, a typed error naming
/// `context`), the `budget.degraded = 3` gauge when the deadline cut the
/// run, and the measured memory ([`record_memory`]).
pub(crate) fn finish_count<R: Recorder>(
    acc: bfly_sparse::CheckedAccum,
    complete: bool,
    context: &'static str,
    rec: &mut R,
) -> crate::error::Result<Partial<u64>> {
    let value = crate::error::checked_total(acc, context)?;
    if !complete {
        record_degraded(rec, "deadline");
    }
    record_memory(rec);
    Ok(if complete {
        Partial::complete(value)
    } else {
        Partial::truncated(value)
    })
}

/// Refine a parallel plan's chunk count from the *measured* wedge-weight
/// distribution instead of the fixed one-chunk-per-worker default.
///
/// [`select_plan`] sizes `ExecMode::Parallel { chunks }` to the worker
/// count before any weights exist; the measured `chunk_us` histograms
/// (BENCH_PARALLEL.md) show that on skewed graphs one chunk then inherits
/// most of the wedge mass and the rest of the pool idles — the
/// `par_imbalance` gauge regularly exceeds 2. This pass computes the
/// exact per-vertex weights (the same array the executor's
/// [`balanced_chunk_bounds`](crate::family::balanced_chunk_bounds) pass
/// uses, so the cost is one extra prefix scan) and resizes via
/// [`tuned_chunk_count`](crate::family::tuned_chunk_count): enough chunks
/// that the p90 vertex weight stops dominating a chunk, capped so the
/// per-chunk accumulator scratch stays bounded.
///
/// Only fixed-member parallel plans are tuned — the global-order kernels
/// batch by rank buckets, and sequential modes have no chunks. Emits the
/// final count as `plan.par_chunks` (overwriting the selection-time
/// gauge) plus `plan.tuned_chunks` so reports show both.
pub fn tune_plan_chunks<R: Recorder>(g: &BipartiteGraph, plan: &mut Plan, rec: &mut R) {
    let (Member::Fixed(_), ExecMode::Parallel { chunks }) = (plan.member, plan.mode) else {
        return;
    };
    let (part_adj, other_adj) = FixedKernel::of(g, plan.invariant).patterns();
    let weights = crate::family::wedge_weights(part_adj, other_adj);
    let tuned = crate::family::tuned_chunk_count(&weights, chunks);
    if tuned != chunks {
        plan.mode = ExecMode::Parallel { chunks: tuned };
        rec.gauge("plan.par_chunks", tuned as f64);
    }
    rec.gauge("plan.tuned_chunks", tuned as f64);
}

/// Count with the adaptively selected sequential plan. Returns the count
/// and the plan that produced it.
pub fn count_adaptive(g: &BipartiteGraph) -> (u64, Plan) {
    let (_, plan) = profile_and_plan_recorded(g, false, 0, &mut NoopRecorder);
    (execute_plan(g, &plan), plan)
}

/// Count with the adaptively selected plan on rayon's current pool, using
/// degree-balanced chunk boundaries (one chunk per worker).
pub fn count_adaptive_parallel(g: &BipartiteGraph) -> (u64, Plan) {
    count_adaptive_parallel_recorded(g, &mut NoopRecorder)
}

/// [`count_adaptive_parallel`] reporting the selection, the chunk tuning
/// and the work through `rec`.
pub fn count_adaptive_parallel_recorded<R: Recorder>(
    g: &BipartiteGraph,
    rec: &mut R,
) -> (u64, Plan) {
    let workers = rayon::current_num_threads().max(1);
    let (_, mut plan) = profile_and_plan_recorded(g, true, workers, rec);
    tune_plan_chunks(g, &mut plan, rec);
    (run_to_end(g, &plan, rec, "try_count_adaptive"), plan)
}

/// Fallible [`count_adaptive`]: validates the graph up front and reports
/// a total past `u64` as a typed
/// [`BflyError`](crate::error::BflyError), so hostile input fails
/// without panicking. Any other plan gets the same guarantee from
/// [`validate_graph`](crate::error::validate_graph) then [`run_plan`].
pub fn try_count_adaptive(g: &BipartiteGraph) -> crate::error::Result<(u64, Plan)> {
    crate::error::validate_graph(g)?;
    let (_, plan) = profile_and_plan_recorded(g, false, 0, &mut NoopRecorder);
    Ok((run_plan(g, &plan, None, &mut NoopRecorder)?.value, plan))
}

/// Estimated bytes of one wedge accumulator over `n` slots: 24 B per
/// slot, the footprint of a [`Spa`](bfly_sparse::Spa) (values, stamps
/// and a touched list). The counting kernels'
/// [`PairAccum`](bfly_sparse::PairAccum) takes 8 B per slot, so this is
/// an upper bound. It is kept because a smaller charge re-plans
/// the sharded tier: the benchmark's 440,237-edge GitHub-shaped graph,
/// capped at ¾ of its resident bytes, would fit 4 shards instead of 8.
fn spa_bytes(n: usize) -> u64 {
    24 * n as u64
}

/// Order-of-magnitude scratch estimate for executing `plan` on a graph
/// of `profile`'s shape: one wedge accumulator per worker (sized by the
/// partitioned side), the chunk-balancing arrays when parallel, and the
/// relabelled graph copy when degree-ordered. Deliberately coarse — the
/// byte budget guards against the order-of-magnitude blowups (one
/// accumulator per worker on a huge side, a relabelled copy of the
/// graph), not malloc accounting.
pub fn plan_scratch_bytes(profile: &GraphProfile, plan: &Plan) -> u64 {
    if !matches!(plan.member, Member::Fixed(_)) {
        // Global-order members: one accumulator per chunk sized by the
        // *larger* side (starts live on both sides), the two rank arrays,
        // the per-start weight array when chunked, and — for ranked — one
        // flat wedge batch per chunk.
        let n = profile.nv1.max(profile.nv2);
        let nboth = (profile.nv1 + profile.nv2) as u64;
        let chunks = match plan.mode {
            ExecMode::Parallel { chunks } => chunks.max(1) as u64,
            ExecMode::Sharded { shards } => shards.max(1) as u64,
            _ => 1,
        };
        let batches = if matches!(plan.member, Member::Ranked) {
            chunks.saturating_mul(4 * RANKED_BUCKET_WEDGES)
        } else {
            0
        };
        let weights = if chunks > 1 || matches!(plan.member, Member::Ranked) {
            8 * nboth
        } else {
            0
        };
        return chunks
            .saturating_mul(spa_bytes(n))
            .saturating_add(4 * nboth)
            .saturating_add(weights)
            .saturating_add(batches);
    }
    let n = match plan.partition_side() {
        Side::V1 => profile.nv1,
        Side::V2 => profile.nv2,
    };
    let mode = match plan.mode {
        ExecMode::Flat => spa_bytes(n),
        ExecMode::Parallel { chunks } => {
            (chunks as u64).saturating_mul(spa_bytes(n)) + 16 * n as u64
        }
        ExecMode::Sharded { shards } => {
            // Out-of-core footprint: the `.bfly` metadata (degree arrays
            // plus payload indexes for both sides), one shard's worth of
            // decoded partition rows, one decoded other-side row, one
            // accumulator over the partitioned side, and the shard
            // balancing arrays. Unlike the in-memory modes this *replaces*
            // the resident graph rather than adding to it. The row
            // reader's pinned rows are not charged: the count sizes them
            // to the slack this estimate leaves under the cap.
            let shards = shards.max(1) as u64;
            let nboth = (profile.nv1 + profile.nv2) as u64;
            let max_deg_other = match plan.partition_side() {
                Side::V1 => profile.max_deg_v2,
                Side::V2 => profile.max_deg_v1,
            } as u64;
            let metadata = 12 * nboth + 32;
            let shard_rows = (4 * profile.nedges as u64 + 8 * n as u64) / shards;
            let rowbuf = 12 * max_deg_other;
            let weights = 8 * n as u64 + 8 * (shards + 1);
            // One transient beyond the steady state: the shard's encoded
            // varint payload is alive alongside its decoded rows during
            // segment decode (varints run ~half the decoded width). The
            // wedge-weight scan streams through a window sized to the
            // same per-shard budget, so it is covered by the same terms.
            let shard_payload = shard_rows / 2;
            metadata
                .saturating_add(shard_rows)
                .saturating_add(shard_payload)
                .saturating_add(rowbuf)
                .saturating_add(spa_bytes(n))
                .saturating_add(weights)
        }
    };
    let relabel_copy = if plan.degree_ordered {
        16 * profile.nedges as u64 + 8 * (profile.nv1 + profile.nv2) as u64
    } else {
        0
    };
    mode.saturating_add(relabel_copy)
}

/// Budget-aware [`select_plan`] under **total** accounting: an in-memory
/// plan's byte cost is the resident graph ([`GraphProfile::resident_bytes`])
/// *plus* [`plan_scratch_bytes`]. Two regimes:
///
/// **Doesn't fit at all** — when the cap cannot hold even the cheapest
/// in-memory shape (resident graph + one flat accumulator over the best
/// fixed partition side), "doesn't fit" is a *planned* tier, not a
/// degradation: [`Plan::sharded`] with [`ShardSizing::Fit`], and no
/// `budget.degraded` gauge.
///
/// **Fits, tightly** — starts from the unconstrained choice and degrades
/// until resident + scratch fits, in preference order —
///
/// 1. halve the parallel chunk count (each chunk owns an accumulator the
///    size of the partitioned side),
/// 2. abandon parallelism entirely,
/// 3. [`Plan::demoted`]: a global-order member falls back to its best
///    fixed invariant (dropping the rank arrays, the ranked batches, and
///    the max-side accumulator for the partition-side one —
///    `est_work`/`est_work_alt` swap back, and the wedge-work cap is
///    re-checked against the higher fixed total), and a fixed member
///    drops the degree-ordered relabel (it copies the graph).
///
/// Each applied degradation is recorded once via
/// [`record_degraded`]`(rec, "bytes")`. A byte cap below even the sharded
/// tier's floor and a wedge-work cap below `est_work` (already the
/// minimum over both sides, so no cheaper shape exists) fail with
/// [`BflyError::BudgetExceeded`](crate::error::BflyError::BudgetExceeded)
/// carrying the exact estimated bytes.
pub fn select_plan_budgeted<R: Recorder>(
    profile: &GraphProfile,
    parallel: bool,
    workers: usize,
    budget: &ResourceBudget,
    rec: &mut R,
) -> crate::error::Result<Plan> {
    let total_bytes = |plan: &Plan| {
        profile
            .resident_bytes
            .saturating_add(plan_scratch_bytes(profile, plan))
    };
    let mut plan = select_plan(profile, parallel, workers);
    budget.check_wedge_work(plan.est_work)?;
    // Floor of the in-memory regime: the resident graph plus the flat
    // fixed-member accumulator. Below it no degradation sequence can
    // ever fit, so the planner goes straight to the sharded tier.
    let floor = Plan {
        mode: ExecMode::Flat,
        ..plan.clone().demoted()
    };
    if !budget.bytes_fit(total_bytes(&floor)) {
        return Plan::sharded(profile, ShardSizing::Fit, budget);
    }
    let mut degraded = false;
    while !budget.bytes_fit(total_bytes(&plan)) {
        match plan.mode {
            ExecMode::Parallel { chunks } if chunks > 1 => {
                plan.mode = ExecMode::Parallel { chunks: chunks / 2 };
            }
            ExecMode::Parallel { .. } => plan.mode = ExecMode::Flat,
            _ if plan.degree_ordered || !matches!(plan.member, Member::Fixed(_)) => {
                plan = plan.demoted();
                budget.check_wedge_work(plan.est_work)?;
            }
            _ => break,
        }
        degraded = true;
    }
    if degraded {
        record_degraded(rec, "bytes");
    }
    budget.check_bytes(total_bytes(&plan))?;
    Ok(plan)
}

/// The first half of a budgeted count: validate `g`, record the budget's
/// limits, check measured allocation against the byte cap, then profile
/// and select a budget-constrained plan inside a `select` span, emitting
/// the `plan.*` gauges for the plan that will actually run (after any
/// degradation). [`run_plan`] with `budget.deadline` is the second half;
/// a caller can hand the liveness monitor the plan's forecast in between.
pub fn profile_and_plan_budgeted_recorded<R: Recorder>(
    g: &BipartiteGraph,
    parallel: bool,
    workers: usize,
    budget: &ResourceBudget,
    rec: &mut R,
) -> crate::error::Result<(GraphProfile, Plan)> {
    crate::error::validate_graph(g)?;
    budget.record_limits(rec);
    // When the tracking allocator is live (feature `alloc-track` +
    // installed by the binary), the byte cap is also enforced against
    // *measured* live bytes — the process may already be over budget
    // before any plan is chosen, which no estimate can see.
    budget.check_measured_bytes()?;
    timed_span(rec, "select", |rec| {
        let profile = GraphProfile::compute(g);
        let plan = select_plan_budgeted(&profile, parallel, workers, budget, rec)?;
        plan.record(rec);
        Ok((profile, plan))
    })
}

/// Resource-budgeted adaptive count: [`profile_and_plan_budgeted_recorded`]
/// (degrading per [`select_plan_budgeted`]) then [`run_plan`] with the
/// budget's deadline, on one chunk per worker of rayon's current pool
/// when `parallel`. A deadline that expires mid-count yields
/// `complete = false` with the exact count over the processed prefix
/// (and a `budget.degraded = 3` gauge) rather than an error; only a
/// budget with no viable shape at all fails.
pub fn count_adaptive_budgeted_recorded<R: Recorder>(
    g: &BipartiteGraph,
    parallel: bool,
    budget: &ResourceBudget,
    rec: &mut R,
) -> crate::error::Result<Partial<(u64, Plan)>> {
    let workers = if parallel {
        rayon::current_num_threads().max(1)
    } else {
        0
    };
    let (_, plan) = profile_and_plan_budgeted_recorded(g, parallel, workers, budget, rec)?;
    Ok(run_plan(g, &plan, budget.deadline, rec)?.map(|count| (count, plan)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::count_brute_force;
    use bfly_graph::generators::{chung_lu, uniform_exact};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn profile_matches_graph_accessors() {
        let g =
            BipartiteGraph::from_edges(3, 4, &[(0, 0), (0, 1), (0, 2), (1, 0), (2, 1)]).unwrap();
        let p = GraphProfile::compute(&g);
        assert_eq!(p.nv1, 3);
        assert_eq!(p.nv2, 4);
        assert_eq!(p.nedges, 5);
        assert_eq!(p.max_deg_v1, 3);
        assert_eq!(p.max_deg_v2, 2);
        assert_eq!(p.wedges_v1, g.wedges_through_v1());
        assert_eq!(p.wedges_v2, g.wedges_through_v2());
        assert_eq!(p.partition_cost(Side::V2), p.wedges_v1);
        assert_eq!(p.partition_cost(Side::V1), p.wedges_v2);
    }

    #[test]
    fn empty_graph_profile_is_all_zero() {
        let p = GraphProfile::compute(&BipartiteGraph::empty(4, 7));
        assert_eq!(p.wedges_v1, 0);
        assert_eq!(p.wedges_v2, 0);
        assert_eq!(p.skew_v1, 0.0);
        assert_eq!(p.skew_v2, 0.0);
        // Tie on work → the paper's smaller-side rule decides (V1 here).
        assert_eq!(select_plan(&p, false, 0).partition_side(), Side::V1);
    }

    #[test]
    fn selection_minimises_wedge_work() {
        // One V1 hub of degree 12: partitioning V2 would expand C(12,2)
        // wedges through it, partitioning V1 only the C(1,2)=0 wedges of
        // the leaves. The plan must partition V1.
        let edges: Vec<(u32, u32)> = (0..12).map(|v| (0, v)).collect();
        let star = BipartiteGraph::from_edges(1, 12, &edges).unwrap();
        let p = GraphProfile::compute(&star);
        let plan = select_plan(&p, false, 0);
        assert_eq!(plan.partition_side(), Side::V1);
        assert!(plan.est_work <= plan.est_work_alt);
        // And the mirrored star flips the decision.
        let plan_t = select_plan(&GraphProfile::compute(&star.swap_sides()), false, 0);
        assert_eq!(plan_t.partition_side(), Side::V2);
    }

    #[test]
    fn prefix_reader_members_are_preferred() {
        // The measured within-side preference (EXPERIMENTS.md E2): the
        // forward A₀-reading member of whichever side is chosen.
        let mut rng = StdRng::seed_from_u64(5);
        let g = uniform_exact(40, 30, 200, &mut rng);
        let plan = select_plan(&GraphProfile::compute(&g), false, 0);
        assert!(matches!(plan.mode, ExecMode::Flat));
        assert!(matches!(plan.invariant, Invariant::Inv1 | Invariant::Inv5));
        assert!(!plan.invariant.is_lookahead());
    }

    #[test]
    fn skewed_graphs_trigger_degree_ordering() {
        // A hub of degree 60 among 100 mostly degree-1 V2 vertices: skew
        // well past the threshold on V2... the *partitioned* side is what
        // matters, so build skew there.
        let mut edges: Vec<(u32, u32)> = (0..60).map(|u| (u, 0)).collect();
        edges.extend((0..40u32).map(|u| (u, 1 + u % 30)));
        let g = BipartiteGraph::from_edges(60, 31, &edges).unwrap();
        let p = GraphProfile::compute(&g);
        let plan = select_plan(&p, false, 0);
        if plan.degree_ordered {
            assert!(p.skew(plan.partition_side()) >= DEGREE_ORDER_SKEW_THRESHOLD);
        }
        // Whatever was selected, it still counts correctly.
        assert_eq!(execute_plan(&g, &plan), count_brute_force(&g));
    }

    #[test]
    fn adaptive_count_is_correct_across_regimes() {
        let mut rng = StdRng::seed_from_u64(77);
        for g in [
            uniform_exact(30, 50, 220, &mut rng),
            chung_lu(80, 20, 300, 0.9, 0.4, &mut rng),
            BipartiteGraph::complete(7, 5),
            BipartiteGraph::empty(9, 3),
        ] {
            let want = count_brute_force(&g);
            let (xi, _) = count_adaptive(&g);
            assert_eq!(xi, want);
            let (xi_par, plan_par) = count_adaptive_parallel(&g);
            assert_eq!(xi_par, want);
            assert!(matches!(plan_par.mode, ExecMode::Parallel { .. }));
        }
    }

    /// Every mode counts the same, and every run times itself as one
    /// top-level `count` span — Sharded included.
    #[test]
    fn forced_modes_all_agree() {
        use bfly_telemetry::InMemoryRecorder;
        let mut rng = StdRng::seed_from_u64(13);
        let g = chung_lu(60, 45, 280, 0.8, 0.6, &mut rng);
        let want = count_brute_force(&g);
        let base = select_plan(&GraphProfile::compute(&g), false, 0);
        for (mode, invariant) in [
            (ExecMode::Flat, base.invariant),
            (ExecMode::Parallel { chunks: 3 }, base.invariant),
            (ExecMode::Sharded { shards: 3 }, base.invariant),
        ] {
            for degree_ordered in [false, true] {
                let plan = Plan {
                    member: Member::Fixed(invariant),
                    invariant,
                    degree_ordered,
                    mode,
                    est_work: base.est_work,
                    est_work_alt: base.est_work_alt,
                };
                assert_eq!(execute_plan(&g, &plan), want, "{plan:?}");
                let mut rec = InMemoryRecorder::new();
                assert_eq!(run_to_end(&g, &plan, &mut rec, "run_plan"), want);
                let counts: Vec<(u32, u32)> = rec
                    .spans()
                    .iter()
                    .filter(|s| s.name == "count")
                    .map(|s| (s.thread, s.depth))
                    .collect();
                assert_eq!(counts, vec![(0, 0)], "{plan:?}: one count span");
            }
        }
    }

    #[test]
    fn recorded_plan_lands_in_gauges_and_select_span() {
        use bfly_telemetry::InMemoryRecorder;
        let mut rng = StdRng::seed_from_u64(21);
        let g = uniform_exact(50, 20, 180, &mut rng);
        let mut rec = InMemoryRecorder::new();
        let (_, plan) = profile_and_plan_recorded(&g, false, 0, &mut rec);
        let xi = run_to_end(&g, &plan, &mut rec, "try_count_adaptive");
        assert_eq!(xi, count_brute_force(&g));
        assert_eq!(
            rec.gauge_value("plan.invariant"),
            Some(plan.invariant.number() as f64)
        );
        assert_eq!(rec.gauge_value("plan.est_work"), Some(plan.est_work as f64));
        assert!(rec.spans().iter().any(|s| s.name == "select"));
    }

    #[test]
    fn peel_plan_picks_the_cheap_side_and_gates_parallelism() {
        // One V1 hub of degree 12: tip-peeling V2 would wedge-expand
        // through the hub; peeling V1 is near-free. The plan must pick V1.
        let edges: Vec<(u32, u32)> = (0..12).map(|v| (0, v)).collect();
        let star = BipartiteGraph::from_edges(1, 12, &edges).unwrap();
        let p = GraphProfile::compute(&star);
        let plan = select_peel_plan(&p, 6);
        assert_eq!(plan.side, Side::V1);
        assert!(plan.est_work <= plan.est_work_alt);
        // Tiny work: sequential even with workers available.
        assert!(!plan.parallel);
        assert_eq!(plan.chunks, 1);
        // Mirrored star flips the side.
        assert_eq!(
            select_peel_plan(&GraphProfile::compute(&star.swap_sides()), 6).side,
            Side::V2
        );
        // Past the work floor with workers, the plan goes parallel.
        let big = GraphProfile {
            wedges_v1: PEEL_PARALLEL_MIN_WORK * 4,
            wedges_v2: PEEL_PARALLEL_MIN_WORK * 8,
            ..p
        };
        let plan = select_peel_plan(&big, 4);
        assert!(plan.parallel);
        assert_eq!(plan.chunks, 4);
        assert!(!select_peel_plan(&big, 1).parallel);
        // Forcing the other side swaps the work terms and re-gates.
        let forced = PeelPlan::for_side(&big, plan.side.other(), 4);
        assert_eq!(
            (forced.est_work, forced.est_work_alt),
            (plan.est_work_alt, plan.est_work)
        );
        let tiny = GraphProfile {
            wedges_v1: PEEL_PARALLEL_MIN_WORK,
            wedges_v2: 0,
            ..p
        };
        assert_eq!(select_peel_plan(&tiny, 4).side, Side::V1);
        assert!(!select_peel_plan(&tiny, 4).parallel);
        assert!(PeelPlan::for_side(&tiny, Side::V2, 4).parallel);
    }

    #[test]
    fn recorded_peel_plan_lands_in_gauges() {
        use bfly_telemetry::InMemoryRecorder;
        let g = BipartiteGraph::complete(9, 5);
        let mut rec = InMemoryRecorder::new();
        let (_, plan) = profile_and_peel_plan_recorded(&g, 4, &mut rec);
        assert_eq!(
            rec.gauge_value("peel.parallel"),
            Some(if plan.parallel { 1.0 } else { 0.0 })
        );
        assert_eq!(rec.gauge_value("peel.est_work"), Some(plan.est_work as f64));
        assert!(rec.spans().iter().any(|s| s.name == "select"));
        let pj = plan.to_json();
        for key in ["side", "parallel", "chunks", "est_work", "est_work_alt"] {
            assert!(pj.get(key).is_some(), "peel plan missing {key}");
        }
    }

    #[test]
    fn try_variants_agree_with_infallible_counts() {
        let mut rng = StdRng::seed_from_u64(91);
        for g in [
            uniform_exact(35, 45, 240, &mut rng),
            chung_lu(70, 25, 260, 0.85, 0.5, &mut rng),
            BipartiteGraph::complete(6, 6),
            BipartiteGraph::empty(5, 8),
        ] {
            let want = count_adaptive(&g).0;
            assert_eq!(try_count_adaptive(&g).unwrap().0, want);
            let (_, par) = profile_and_plan_recorded(&g, true, 4, &mut NoopRecorder);
            crate::error::validate_graph(&g).unwrap();
            let r = run_plan(&g, &par, None, &mut NoopRecorder).unwrap();
            assert_eq!(r.value, want);
        }
    }

    #[test]
    fn unlimited_budget_is_complete_and_exact() {
        let mut rng = StdRng::seed_from_u64(92);
        let g = uniform_exact(40, 40, 300, &mut rng);
        let want = count_brute_force(&g);
        for parallel in [false, true] {
            let r = count_adaptive_budgeted_recorded(
                &g,
                parallel,
                &ResourceBudget::unlimited(),
                &mut NoopRecorder,
            )
            .unwrap();
            assert!(r.complete);
            assert_eq!(r.value.0, want);
        }
    }

    #[test]
    fn byte_cap_degrades_parallel_to_fewer_chunks_then_flat() {
        use bfly_telemetry::InMemoryRecorder;
        let mut rng = StdRng::seed_from_u64(93);
        let g = uniform_exact(50, 50, 320, &mut rng);
        let profile = GraphProfile::compute(&g);
        // Room for the resident graph plus exactly one accumulator:
        // parallelism must be abandoned, and the count must still be
        // exact (byte costs are total: resident + scratch).
        let flat_floor =
            profile.resident_bytes + plan_scratch_bytes(&profile, &select_plan(&profile, false, 0));
        let budget = ResourceBudget::unlimited().with_max_bytes(flat_floor);
        let mut rec = InMemoryRecorder::new();
        let r = count_adaptive_budgeted_recorded(&g, true, &budget, &mut rec).unwrap();
        assert!(r.complete);
        assert_eq!(r.value.0, count_brute_force(&g));
        assert!(!matches!(r.value.1.mode, ExecMode::Parallel { chunks } if chunks > 1));
        assert_eq!(rec.gauge_value("budget.degraded"), Some(1.0));
        assert!(rec.spans().iter().any(|s| s.name == "degraded"));
        // One byte below the in-memory floor: the planner routes to the
        // *planned* sharded tier — still exact, no degradation recorded,
        // because sharded scratch replaces the resident graph.
        let ooc = ResourceBudget::unlimited().with_max_bytes(flat_floor - 1);
        let mut rec_ooc = InMemoryRecorder::new();
        let r_ooc = count_adaptive_budgeted_recorded(&g, true, &ooc, &mut rec_ooc).unwrap();
        assert!(r_ooc.complete);
        assert_eq!(r_ooc.value.0, count_brute_force(&g));
        assert!(matches!(r_ooc.value.1.mode, ExecMode::Sharded { .. }));
        assert_eq!(rec_ooc.gauge_value("budget.degraded"), None);
        assert!(rec_ooc.gauge_value("plan.shards").unwrap_or(0.0) >= 1.0);
        // A cap below even the sharded tier's metadata has no viable shape.
        let starved = ResourceBudget::unlimited().with_max_bytes(64);
        let err =
            count_adaptive_budgeted_recorded(&g, true, &starved, &mut NoopRecorder).unwrap_err();
        assert!(matches!(
            err,
            crate::error::BflyError::BudgetExceeded {
                resource: "bytes",
                ..
            }
        ));
    }

    #[test]
    fn work_cap_below_minimum_side_is_a_hard_error() {
        let g = BipartiteGraph::complete(8, 8);
        let budget = ResourceBudget::unlimited().with_max_wedge_work(1);
        let err =
            count_adaptive_budgeted_recorded(&g, false, &budget, &mut NoopRecorder).unwrap_err();
        assert!(matches!(
            err,
            crate::error::BflyError::BudgetExceeded {
                resource: "wedge_work",
                ..
            }
        ));
    }

    #[test]
    fn expired_deadline_yields_truncated_partial_with_telemetry() {
        use bfly_telemetry::InMemoryRecorder;
        use std::time::Duration;
        // Enough partitioned vertices that the stride poll fires: a path
        // graph, > DEADLINE_STRIDE vertices per side, zero butterflies.
        let n = 9000u32;
        let edges: Vec<(u32, u32)> = (0..n).flat_map(|u| [(u, u), (u, (u + 1) % n)]).collect();
        let g = BipartiteGraph::from_edges(n as usize, n as usize, &edges).unwrap();
        let budget = ResourceBudget::unlimited().with_deadline_in(Duration::ZERO);
        let mut rec = InMemoryRecorder::new();
        let r = count_adaptive_budgeted_recorded(&g, false, &budget, &mut rec).unwrap();
        assert!(!r.complete);
        assert_eq!(rec.gauge_value("budget.degraded"), Some(3.0));
        // The partial value is a lower bound on the true count (here 0 ≤ n).
        assert!(r.value.0 <= count_adaptive(&g).0);
    }

    #[test]
    fn invalid_graph_fails_upfront_in_try_paths() {
        let g = BipartiteGraph::complete(2, 2);
        // try paths validate; the infallible path does not. Build a bad
        // graph through the unchecked constructor if one exists — absent
        // that, validation of a good graph must pass.
        assert!(crate::error::validate_graph(&g).is_ok());
        assert!(try_count_adaptive(&g).is_ok());
    }

    /// A strongly-skewed stand-in that clears both member-gate terms:
    /// priority work < 0.9× the best fixed side, fixed side ≥ the floor.
    /// (Seed pinned; the selection tests assert the gate fired.)
    fn skewed_standin() -> BipartiteGraph {
        let mut rng = StdRng::seed_from_u64(1812);
        chung_lu(160, 120, 1600, 1.0, 1.0, &mut rng)
    }

    #[test]
    fn skewed_graphs_select_global_order_members() {
        let g = skewed_standin();
        let p = GraphProfile::compute(&g);
        let best_fixed = p.wedges_v1.min(p.wedges_v2);
        assert!(
            (p.wedges_priority as u128) * 10 < (best_fixed as u128) * 9
                && best_fixed >= PRIORITY_MIN_WORK,
            "stand-in no longer clears the gate: priority {} vs fixed {best_fixed}",
            p.wedges_priority
        );
        let want = count_brute_force(&g);
        let seq = select_plan(&p, false, 0);
        assert_eq!(seq.member, Member::Priority);
        assert!(!seq.degree_ordered);
        assert_eq!(seq.est_work, p.wedges_priority);
        assert_eq!(seq.est_work_alt, best_fixed);
        assert_eq!(execute_plan(&g, &seq), want);
        let par = select_plan(&p, true, 4);
        assert_eq!(par.member, Member::Priority);
        assert!(matches!(par.mode, ExecMode::Parallel { chunks: 4 }));
        assert_eq!(execute_plan(&g, &par), want);
        // The executor reports completion alongside the count.
        for plan in [&seq, &par] {
            let r = run_plan(&g, plan, None, &mut NoopRecorder).unwrap();
            assert!(r.complete);
            assert_eq!(r.value, want);
        }
    }

    #[test]
    fn near_uniform_graphs_keep_fixed_members() {
        // Near-uniform degrees: measured priority work *exceeds* the best
        // fixed side (the regime where the global order loses), so the
        // gate must not fire even though the work floor is cleared.
        let mut rng = StdRng::seed_from_u64(4005);
        let g = uniform_exact(120, 120, 2400, &mut rng);
        let p = GraphProfile::compute(&g);
        assert!(p.wedges_v1.min(p.wedges_v2) >= PRIORITY_MIN_WORK);
        for (parallel, workers) in [(false, 0), (true, 4)] {
            let plan = select_plan(&p, parallel, workers);
            assert!(matches!(plan.member, Member::Fixed(_)), "{plan:?}");
        }
    }

    #[test]
    fn global_order_forecast_is_exact_for_both_modes() {
        use bfly_telemetry::InMemoryRecorder;
        let g = skewed_standin();
        let mut rec = InMemoryRecorder::new();
        let (_, plan) = profile_and_plan_recorded(&g, false, 0, &mut rec);
        run_to_end(&g, &plan, &mut rec, "try_count_adaptive");
        assert_eq!(plan.member, Member::Priority);
        assert_eq!(rec.counter(Counter::WedgesExpanded), plan.forecast().total);
        let mut rec_par = InMemoryRecorder::new();
        let (_, plan_par) = count_adaptive_parallel_recorded(&g, &mut rec_par);
        assert_eq!(plan_par.member, Member::Priority);
        assert!(matches!(plan_par.mode, ExecMode::Parallel { .. }));
        assert_eq!(
            rec_par.counter(Counter::WedgesExpanded),
            plan_par.forecast().total
        );
        assert_eq!(rec.gauge_value("plan.member"), Some(1.0));
        assert_eq!(rec_par.gauge_value("plan.member"), Some(1.0));
    }

    #[test]
    fn byte_cap_demotes_global_order_member_to_fixed() {
        use bfly_telemetry::InMemoryRecorder;
        let g = skewed_standin();
        let p = GraphProfile::compute(&g);
        let chosen = select_plan(&p, false, 0);
        assert_eq!(chosen.member, Member::Priority);
        // Cap below the priority plan's scratch but at the fixed flat
        // floor: the planner must demote to the fixed invariant and the
        // count must be unchanged.
        let fixed = chosen.clone().demoted();
        let floor = p.resident_bytes + plan_scratch_bytes(&p, &fixed);
        assert!(plan_scratch_bytes(&p, &fixed) < plan_scratch_bytes(&p, &chosen));
        let budget = ResourceBudget::unlimited().with_max_bytes(floor);
        let mut rec = InMemoryRecorder::new();
        let r = count_adaptive_budgeted_recorded(&g, false, &budget, &mut rec).unwrap();
        assert!(r.complete);
        assert_eq!(r.value.0, count_brute_force(&g));
        assert!(matches!(r.value.1.member, Member::Fixed(_)));
        assert_eq!(rec.gauge_value("budget.degraded"), Some(1.0));
    }

    #[test]
    fn forced_plans_price_the_engine_that_runs() {
        use bfly_telemetry::InMemoryRecorder;
        let g = skewed_standin();
        let p = GraphProfile::compute(&g);
        let members = Invariant::ALL
            .map(Member::Fixed)
            .into_iter()
            .chain([Member::Priority, Member::Ranked]);
        for member in members {
            for mode in [ExecMode::Flat, ExecMode::Parallel { chunks: 3 }] {
                let plan = Plan::forced(&g, member, mode, Some(&p));
                assert_eq!((plan.member, plan.mode), (member, mode));
                let mut rec = InMemoryRecorder::new();
                let xi = run_to_end(&g, &plan, &mut rec, "run_plan");
                assert_eq!(xi, count_brute_force(&g), "{member:?} {mode:?}");
                assert_eq!(rec.counter(Counter::WedgesExpanded), plan.est_work);
                let unprofiled = Plan::forced(&g, member, mode, None);
                if let Member::Fixed(_) = member {
                    assert_eq!(unprofiled, plan, "degree terms price fixed plans");
                } else {
                    assert_eq!(unprofiled.est_work, u64::MAX);
                    assert_eq!(unprofiled.to_json().get("est_work"), Some(&Json::Null));
                    let (a, b) = (unprofiled.demoted(), plan.clone().demoted());
                    assert_eq!((a.member, a.est_work), (b.member, b.est_work));
                }
            }
        }
    }

    #[test]
    fn json_payloads_name_every_field() {
        let g = BipartiteGraph::complete(3, 9);
        let p = GraphProfile::compute(&g);
        let plan = select_plan(&p, false, 0);
        let pj = p.to_json();
        for key in [
            "nv1",
            "nv2",
            "nedges",
            "wedges_v1",
            "wedges_v2",
            "wedges_priority",
            "skew_v1",
            "resident_bytes",
        ] {
            assert!(pj.get(key).is_some(), "profile missing {key}");
        }
        let lj = plan.to_json();
        for key in [
            "member",
            "invariant",
            "partition_side",
            "mode",
            "degree_ordered",
            "est_work",
            "shards",
        ] {
            assert!(lj.get(key).is_some(), "plan missing {key}");
        }
        assert_eq!(
            lj.get("invariant").and_then(Json::as_u64),
            Some(plan.invariant.number() as u64)
        );
    }
}
