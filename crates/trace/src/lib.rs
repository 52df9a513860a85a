//! **Query tracing for the Machiavelli engine** — a zero-cost-when-off,
//! thread-local trace of what the physical pipeline actually did, plus
//! the engine-wide **decline taxonomy** and the process-wide query
//! latency histogram the server's `METRICS` verb exposes.
//!
//! The engine has four execution lanes (interpreted `select_loop`,
//! sequential planner pipeline, plain-keyed join probes, columnar
//! morsels) that choose among themselves at run time.
//! Before this crate the only record of those choices was a handful of
//! aggregate hit/fallback counters: when a pipeline silently fell back,
//! nothing said *which operator* declined or *why*. This crate supplies
//! the missing structure:
//!
//! - **Spans** ([`OpSpan`]): one per physical operator open, recording
//!   wall time (open + cumulative `next`), rows yielded, the lane the
//!   operator actually ran on ([`Lane`]), and the index-store outcome
//!   ([`CacheOutcome`]). Spans nest by operator tree position and are
//!   collected into a [`QueryTrace`] per traced query, drained via
//!   [`take_events`] (surfaced as `Session::trace_events` and rendered
//!   by `Session::analyze` / the REPL's `:analyze`).
//! - **Declines** ([`DeclineReason`]): every runtime fallback anywhere
//!   in the engine — planner fallback, parallel-lane decline, columnar
//!   decline, store non-cacheability — reports a *typed code* through
//!   [`note_decline`], not just a bare counter bump. Decline counts are
//!   kept **twice**: per-session (thread-local, reset with the other
//!   session stats — `Session::stats` / `reset_stats`) and
//!   process-wide (atomics, feeding `METRICS` across server workers).
//!   Decline accounting is *always on*; only span attachment is gated
//!   on tracing. Declines fire at most once per runtime fallback that
//!   the existing lane counters already count as a fallback — static
//!   ineligibility (lane disabled, sub-threshold input, shape not
//!   eligible) stays uncounted, matching the counter discipline.
//! - **Latency histogram**: fixed-bucket process-wide histogram of
//!   per-query wall time ([`observe_query_ns`] / [`latency_snapshot`]),
//!   rendered Prometheus-style by the server.
//!
//! **Zero cost when off.** Tracing resolves thread-local override →
//! `MACHIAVELLI_TRACE` env (read once) → off. Every span entry point
//! checks [`active`] first and returns immediately when tracing is off
//! or no query is open; span labels are built through closures so the
//! formatting cost is never paid off-trace. The clock is only read
//! while tracing. `pipeline_bench` carries a smoke asserting the
//! off-path stays within noise of a build without any trace calls.
//!
//! **Clock hook.** Wall time comes from a caller-replaceable monotonic
//! clock ([`set_clock`]); the default reads a process-epoch
//! `Instant`. Golden tests install `|| 0` so rendered times are
//! deterministic.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

// --- enable / disable ------------------------------------------------------

thread_local! {
    static TRACING: Cell<Option<bool>> = const { Cell::new(None) };
    static CLOCK: Cell<Option<fn() -> u64>> = const { Cell::new(None) };
    static TRACER: RefCell<Tracer> = const { RefCell::new(Tracer::new()) };
    static DECLINES: RefCell<[u64; DeclineReason::COUNT]> =
        const { RefCell::new([0; DeclineReason::COUNT]) };
}

/// Is tracing enabled on this thread (= session)? Thread-local override
/// → `MACHIAVELLI_TRACE` env (`1`/`true`, read once per process) → off.
pub fn tracing_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    TRACING.with(Cell::get).unwrap_or_else(|| {
        *ENV.get_or_init(|| {
            std::env::var("MACHIAVELLI_TRACE")
                .map(|s| {
                    let s = s.trim();
                    s == "1" || s.eq_ignore_ascii_case("true")
                })
                .unwrap_or(false)
        })
    })
}

/// Override tracing on this thread (`None` restores the env/default
/// resolution), returning the previous override.
pub fn set_tracing(on: Option<bool>) -> Option<bool> {
    TRACING.with(|c| c.replace(on))
}

// --- clock -----------------------------------------------------------------

/// Install a replacement monotonic clock (nanoseconds; `None` restores
/// the default process-epoch `Instant`), returning the previous hook.
/// Golden tests install `|| 0` to redact times.
pub fn set_clock(f: Option<fn() -> u64>) -> Option<fn() -> u64> {
    CLOCK.with(|c| c.replace(f))
}

/// Current trace clock reading in nanoseconds. Only called while
/// tracing is active — the off-path never reads a clock.
pub fn now_ns() -> u64 {
    if let Some(f) = CLOCK.with(Cell::get) {
        return f();
    }
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// --- spans -----------------------------------------------------------------

/// The lane a physical operator actually ran on. Spans default to
/// [`Lane::Seq`]; the executor annotates the columnar lane when a run
/// actually fans out, so a trace shows the *outcome* of lane selection,
/// not the eligibility. Everything on the session thread — the plain
/// join probe, an inline columnar run — stays [`Lane::Seq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Sequential planner pipeline (the default).
    Seq,
    /// Columnar morsel offload across `n` workers.
    Columnar(u32),
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lane::Seq => write!(f, "seq"),
            Lane::Columnar(n) => write!(f, "columnar n={n}"),
        }
    }
}

/// The index-store outcome for an operator that consulted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// A live cached index served the operator (no build).
    Hit,
    /// The operator built the index (and the store admitted it).
    Build,
    /// The store was disabled or bypassed; the index was built inline
    /// and dropped after the query.
    Bypass,
}

impl std::fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheOutcome::Hit => write!(f, "hit"),
            CacheOutcome::Build => write!(f, "build"),
            CacheOutcome::Bypass => write!(f, "bypass"),
        }
    }
}

/// One physical-operator span. Times are **inclusive** of children
/// (`next_ns` accumulates the full pull including everything the
/// operator itself pulled); `rows` counts bindings the operator
/// yielded to its parent.
#[derive(Debug, Clone)]
pub struct OpSpan {
    /// Slab id, also the child→parent link target.
    pub id: u32,
    /// The enclosing span at open time (`None` for the root operator).
    pub parent: Option<u32>,
    /// Static operator label, e.g. `HashJoin probe(x.K) build(y.K)`.
    pub label: String,
    /// The lane the operator actually committed to.
    pub lane: Lane,
    /// Index-store outcome, for operators that consulted it.
    pub cache: Option<CacheOutcome>,
    /// Store fingerprint, when the operator has one.
    pub fingerprint: Option<String>,
    /// Rows the operator yielded to its parent.
    pub rows: u64,
    /// Wall time spent inside `open` (builds, snapshots, columnar runs).
    pub open_ns: u64,
    /// Cumulative wall time across `next` calls, inclusive of children.
    pub next_ns: u64,
    /// Typed declines that fired while this operator was opening.
    pub declines: Vec<DeclineReason>,
}

/// A completed traced query: the span forest plus query-level declines
/// (those that fired outside any operator span — e.g. the planner
/// falling back before any operator opened).
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// Caller-supplied label (the evaluator passes the phrase kind).
    pub label: String,
    /// End-to-end wall time for the traced query.
    pub elapsed_ns: u64,
    /// Spans in open order; `parent` links encode the operator tree.
    pub spans: Vec<OpSpan>,
    /// Declines with no enclosing operator span.
    pub declines: Vec<DeclineReason>,
}

struct Tracer {
    depth: u32,
    start_ns: u64,
    label: String,
    spans: Vec<OpSpan>,
    stack: Vec<u32>,
    declines: Vec<DeclineReason>,
    events: Vec<QueryTrace>,
}

impl Tracer {
    const fn new() -> Tracer {
        Tracer {
            depth: 0,
            start_ns: 0,
            label: String::new(),
            spans: Vec::new(),
            stack: Vec::new(),
            declines: Vec::new(),
            events: Vec::new(),
        }
    }
}

/// Is a traced query currently open on this thread? The span entry
/// points are no-ops unless this holds, so instrumentation sites can
/// call them unconditionally (after gating label construction).
pub fn active() -> bool {
    tracing_enabled() && TRACER.with(|t| t.borrow().depth > 0)
}

/// Open a traced query. Nested calls (a select inside a projected
/// expression) fold into the enclosing trace — only the outermost
/// `begin`/`end` pair produces a [`QueryTrace`]. No-op when tracing is
/// off.
pub fn begin_query(label: &str) {
    if !tracing_enabled() {
        return;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.depth += 1;
        if t.depth == 1 {
            t.start_ns = now_ns();
            t.label = label.to_string();
            t.spans.clear();
            t.stack.clear();
            t.declines.clear();
        }
    });
}

/// Close the current traced query; the outermost close finalizes the
/// [`QueryTrace`] into the event buffer. No-op when tracing is off or
/// no query is open.
pub fn end_query() {
    if !tracing_enabled() {
        return;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.depth == 0 {
            return;
        }
        t.depth -= 1;
        if t.depth == 0 {
            let elapsed_ns = now_ns().saturating_sub(t.start_ns);
            let label = std::mem::take(&mut t.label);
            let spans = std::mem::take(&mut t.spans);
            let declines = std::mem::take(&mut t.declines);
            t.stack.clear();
            // Bound the buffer: a thread that traces but never drains
            // (a long-lived server worker) keeps only the most recent
            // [`MAX_EVENTS`] queries.
            if t.events.len() >= MAX_EVENTS {
                t.events.remove(0);
            }
            t.events.push(QueryTrace {
                label,
                elapsed_ns,
                spans,
                declines,
            });
        }
    });
}

/// Per-thread cap on buffered [`QueryTrace`] events (oldest evicted).
pub const MAX_EVENTS: usize = 64;

/// Discard any in-flight traced query on this thread: depth, spans,
/// stack, and pending declines all reset; completed events are kept.
/// For panic recovery on reused worker threads — a query that unwound
/// mid-execution never reaches its [`end_query`], and without this the
/// leaked depth would fold the thread's *next* query into a phantom
/// outer one.
pub fn abort_query() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.depth = 0;
        t.label.clear();
        t.spans.clear();
        t.stack.clear();
        t.declines.clear();
    });
}

/// Drain this thread's completed query traces (oldest first).
pub fn take_events() -> Vec<QueryTrace> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().events))
}

/// Open an operator span nested under the current one. The label
/// closure only runs when a traced query is active, so off-trace call
/// sites pay one branch and no formatting. Returns `None` off-trace.
pub fn open_op_with(label: impl FnOnce() -> String) -> Option<u32> {
    if !active() {
        return None;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let id = t.spans.len() as u32;
        let parent = t.stack.last().copied();
        t.spans.push(OpSpan {
            id,
            parent,
            label: label(),
            lane: Lane::Seq,
            cache: None,
            fingerprint: None,
            rows: 0,
            open_ns: 0,
            next_ns: 0,
            declines: Vec::new(),
        });
        t.stack.push(id);
        Some(id)
    })
}

/// Close an operator span opened by [`open_op_with`], recording its
/// open-time wall cost. Tolerates an error-unwound stack (removes the
/// span wherever it sits).
pub fn close_op(sid: Option<u32>, open_ns: u64) {
    let Some(sid) = sid else { return };
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if let Some(pos) = t.stack.iter().rposition(|&s| s == sid) {
            t.stack.truncate(pos);
        }
        if let Some(span) = t.spans.get_mut(sid as usize) {
            span.open_ns = open_ns;
        }
    });
}

/// The innermost open span, if a traced query is active (declines that
/// fire during an operator open attach here).
pub fn current_span() -> Option<u32> {
    if !active() {
        return None;
    }
    TRACER.with(|t| t.borrow().stack.last().copied())
}

/// Accumulate one `next` call's wall time and yielded-row count into a
/// span.
pub fn add_next(sid: u32, ns: u64, rows: u64) {
    TRACER.with(|t| {
        if let Some(span) = t.borrow_mut().spans.get_mut(sid as usize) {
            span.next_ns += ns;
            span.rows += rows;
        }
    });
}

fn with_span(sid: Option<u32>, f: impl FnOnce(&mut OpSpan)) {
    let Some(sid) = sid else { return };
    TRACER.with(|t| {
        if let Some(span) = t.borrow_mut().spans.get_mut(sid as usize) {
            f(span);
        }
    });
}

/// Record the lane an operator committed to.
pub fn annotate_lane(sid: Option<u32>, lane: Lane) {
    with_span(sid, |s| s.lane = lane);
}

/// Record an operator's index-store outcome.
pub fn annotate_cache(sid: Option<u32>, outcome: CacheOutcome) {
    with_span(sid, |s| s.cache = Some(outcome));
}

/// Record an operator's store fingerprint. The closure only runs when
/// the span exists, so off-trace sites pay no formatting.
pub fn annotate_fingerprint(sid: Option<u32>, fp: impl FnOnce() -> String) {
    with_span(sid, |s| s.fingerprint = Some(fp()));
}

// --- decline taxonomy ------------------------------------------------------

/// Why an execution left its preferred lane: the engine-wide typed
/// fallback taxonomy. Every variant corresponds to a runtime fallback
/// the aggregate lane counters count — static ineligibility (lane
/// disabled, sub-threshold input, shape not eligible) never emits one.
/// `docs/OBSERVABILITY.md` catalogues each variant with its emission
/// site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeclineReason {
    /// Planner: the comprehension has no generators to plan.
    PlannerNoGenerators,
    /// Planner: two generators bind the same variable.
    PlannerDuplicateBinder,
    /// Planner: a dependent generator's source could observe
    /// reordering (not provably safe to hoist).
    PlannerUnsafeDependentSource,
    /// Planner: a predicate conjunct could observe evaluation order.
    PlannerUnsafeConjunct,
    /// Uncached plain join: a build-side row, filter or key declined
    /// the plain keyer.
    ParJoinBuildExtract,
    /// Plain probe (uncached or store-served table): a probe row or key
    /// declined plain extraction.
    ParProbeExtract,
    /// Parallel `hom`: capture or element extraction declined (or a
    /// worker fold was poisoned).
    ParHomExtract,
    /// Columnar lane: the relation declined columnar snapshot
    /// extraction (identity- or code-bearing rows).
    ColumnarSnapshotExtract,
    /// Columnar lane: the morsel run declined at runtime (a filter
    /// declined plain evaluation on live data).
    ColumnarRuntimeDecline,
    /// Index store: the index exceeded the row budget and was returned
    /// un-cached.
    StoreOverBudget,
    /// Index store: the index held identity-bearing values and could
    /// only be kept in session-local `Rc` form (not shareable, no
    /// plain probes).
    StoreRcOnly,
}

impl DeclineReason {
    /// Number of variants (sizes the count arrays).
    pub const COUNT: usize = 11;

    /// Every variant, in stable rendering order.
    pub const ALL: [DeclineReason; DeclineReason::COUNT] = [
        DeclineReason::PlannerNoGenerators,
        DeclineReason::PlannerDuplicateBinder,
        DeclineReason::PlannerUnsafeDependentSource,
        DeclineReason::PlannerUnsafeConjunct,
        DeclineReason::ParJoinBuildExtract,
        DeclineReason::ParProbeExtract,
        DeclineReason::ParHomExtract,
        DeclineReason::ColumnarSnapshotExtract,
        DeclineReason::ColumnarRuntimeDecline,
        DeclineReason::StoreOverBudget,
        DeclineReason::StoreRcOnly,
    ];

    /// Stable machine-readable code (the `reason` label in `METRICS`
    /// and the name `:analyze` prints).
    pub fn code(self) -> &'static str {
        match self {
            DeclineReason::PlannerNoGenerators => "planner-no-generators",
            DeclineReason::PlannerDuplicateBinder => "planner-duplicate-binder",
            DeclineReason::PlannerUnsafeDependentSource => "planner-unsafe-dependent-source",
            DeclineReason::PlannerUnsafeConjunct => "planner-unsafe-conjunct",
            DeclineReason::ParJoinBuildExtract => "par-join-build-extract",
            DeclineReason::ParProbeExtract => "par-probe-extract",
            DeclineReason::ParHomExtract => "par-hom-extract",
            DeclineReason::ColumnarSnapshotExtract => "columnar-snapshot-extract",
            DeclineReason::ColumnarRuntimeDecline => "columnar-runtime-decline",
            DeclineReason::StoreOverBudget => "store-over-budget",
            DeclineReason::StoreRcOnly => "store-rc-only",
        }
    }

    fn index(self) -> usize {
        DeclineReason::ALL
            .iter()
            .position(|&r| r == self)
            .expect("variant listed in ALL")
    }
}

impl std::fmt::Display for DeclineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

static GLOBAL_DECLINES: [AtomicU64; DeclineReason::COUNT] =
    [const { AtomicU64::new(0) }; DeclineReason::COUNT];

/// Report a typed runtime fallback. Always counts (session-local and
/// process-wide) regardless of tracing; additionally attaches the code
/// to the innermost open span (or the query) when a trace is active.
pub fn note_decline(reason: DeclineReason) {
    let i = reason.index();
    GLOBAL_DECLINES[i].fetch_add(1, Ordering::Relaxed);
    DECLINES.with(|d| d.borrow_mut()[i] += 1);
    if active() {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            match t.stack.last().copied() {
                Some(sid) => t.spans[sid as usize].declines.push(reason),
                None => t.declines.push(reason),
            }
        });
    }
}

/// This thread's (= session's) decline counts, one entry per variant in
/// [`DeclineReason::ALL`] order.
pub fn session_declines() -> Vec<(DeclineReason, u64)> {
    DECLINES.with(|d| {
        let d = d.borrow();
        DeclineReason::ALL
            .iter()
            .map(|&r| (r, d[r.index()]))
            .collect()
    })
}

/// Zero this thread's decline counts (part of the session-wide stats
/// reset; the process-wide totals are untouched).
pub fn reset_session_declines() {
    DECLINES.with(|d| *d.borrow_mut() = [0; DeclineReason::COUNT]);
}

/// Process-wide decline totals across every thread (the `METRICS`
/// feed), one entry per variant in [`DeclineReason::ALL`] order.
pub fn global_declines() -> Vec<(DeclineReason, u64)> {
    DeclineReason::ALL
        .iter()
        .map(|&r| (r, GLOBAL_DECLINES[r.index()].load(Ordering::Relaxed)))
        .collect()
}

// --- query latency histogram -----------------------------------------------

/// Upper bucket bounds (nanoseconds) for the process-wide query latency
/// histogram: 50µs / 200µs / 1ms / 5ms / 20ms / 100ms / 500ms / 2s,
/// plus the implicit `+Inf` bucket. Fixed so dashboards can diff runs.
pub const LATENCY_BUCKET_NS: [u64; 8] = [
    50_000,
    200_000,
    1_000_000,
    5_000_000,
    20_000_000,
    100_000_000,
    500_000_000,
    2_000_000_000,
];

static LATENCY_COUNTS: [AtomicU64; LATENCY_BUCKET_NS.len() + 1] =
    [const { AtomicU64::new(0) }; LATENCY_BUCKET_NS.len() + 1];
static LATENCY_SUM_NS: AtomicU64 = AtomicU64::new(0);

/// Record one query's end-to-end wall time in the process-wide latency
/// histogram. The server calls this for every `EVAL`, traced or not.
pub fn observe_query_ns(ns: u64) {
    let i = LATENCY_BUCKET_NS
        .iter()
        .position(|&le| ns <= le)
        .unwrap_or(LATENCY_BUCKET_NS.len());
    LATENCY_COUNTS[i].fetch_add(1, Ordering::Relaxed);
    LATENCY_SUM_NS.fetch_add(ns, Ordering::Relaxed);
}

/// A point-in-time copy of the latency histogram. `buckets` holds
/// **cumulative** counts per upper bound (Prometheus `le` semantics);
/// the final entry is the `+Inf` bucket and equals `count`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// `(upper_bound_ns, cumulative_count)`, ending with `(u64::MAX, count)`.
    pub buckets: Vec<(u64, u64)>,
    /// Sum of observed latencies, nanoseconds.
    pub sum_ns: u64,
    /// Total observations.
    pub count: u64,
}

/// Snapshot the process-wide query latency histogram.
pub fn latency_snapshot() -> LatencySnapshot {
    let mut cumulative = 0;
    let mut buckets = Vec::with_capacity(LATENCY_COUNTS.len());
    for (i, c) in LATENCY_COUNTS.iter().enumerate() {
        cumulative += c.load(Ordering::Relaxed);
        let le = LATENCY_BUCKET_NS.get(i).copied().unwrap_or(u64::MAX);
        buckets.push((le, cumulative));
    }
    LatencySnapshot {
        buckets,
        sum_ns: LATENCY_SUM_NS.load(Ordering::Relaxed),
        count: cumulative,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every trace test serializes on this lock *and* pins tracing
    /// explicitly: the thread-local tracer is per-test-thread, but the
    /// decline atomics are process-global.
    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        let prev = set_tracing(Some(true));
        let prev_clock = set_clock(Some(|| 0));
        let r = f();
        set_clock(prev_clock);
        set_tracing(prev);
        r
    }

    #[test]
    fn off_path_records_nothing() {
        let prev = set_tracing(Some(false));
        begin_query("q");
        let sid = open_op_with(|| panic!("label must not be built off-trace"));
        assert_eq!(sid, None);
        close_op(sid, 7);
        end_query();
        assert!(take_events().is_empty());
        set_tracing(prev);
    }

    #[test]
    fn spans_nest_and_finalize() {
        with_tracing(|| {
            take_events();
            begin_query("fig9");
            let root = open_op_with(|| "HashJoin".to_string());
            let child = open_op_with(|| "Scan".to_string());
            close_op(child, 11);
            add_next(child.unwrap(), 3, 2);
            annotate_lane(root, Lane::Columnar(4));
            annotate_cache(root, CacheOutcome::Build);
            close_op(root, 23);
            end_query();
            let events = take_events();
            assert_eq!(events.len(), 1);
            let t = &events[0];
            assert_eq!(t.label, "fig9");
            assert_eq!(t.spans.len(), 2);
            assert_eq!(t.spans[0].parent, None);
            assert_eq!(t.spans[1].parent, Some(0));
            assert_eq!(t.spans[1].rows, 2);
            assert_eq!(t.spans[1].next_ns, 3);
            assert_eq!(t.spans[0].lane, Lane::Columnar(4));
            assert_eq!(t.spans[0].cache, Some(CacheOutcome::Build));
        });
    }

    #[test]
    fn nested_queries_fold_into_outermost() {
        with_tracing(|| {
            take_events();
            begin_query("outer");
            begin_query("inner");
            let s = open_op_with(|| "Scan".to_string());
            close_op(s, 0);
            end_query();
            assert!(take_events().is_empty(), "inner end must not emit");
            end_query();
            let events = take_events();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].label, "outer");
            assert_eq!(events[0].spans.len(), 1);
        });
    }

    #[test]
    fn declines_count_with_and_without_tracing() {
        reset_session_declines();
        note_decline(DeclineReason::StoreRcOnly);
        with_tracing(|| {
            begin_query("q");
            let sid = open_op_with(|| "HashJoin".to_string());
            note_decline(DeclineReason::ParJoinBuildExtract);
            close_op(sid, 0);
            note_decline(DeclineReason::PlannerUnsafeConjunct);
            end_query();
            let events = take_events();
            let t = &events[0];
            assert_eq!(
                t.spans[0].declines,
                vec![DeclineReason::ParJoinBuildExtract]
            );
            assert_eq!(t.declines, vec![DeclineReason::PlannerUnsafeConjunct]);
        });
        let counts = session_declines();
        let get = |r: DeclineReason| counts.iter().find(|(c, _)| *c == r).unwrap().1;
        assert_eq!(get(DeclineReason::StoreRcOnly), 1);
        assert_eq!(get(DeclineReason::ParJoinBuildExtract), 1);
        assert_eq!(get(DeclineReason::PlannerUnsafeConjunct), 1);
        assert!(global_declines()
            .iter()
            .find(|(c, _)| *c == DeclineReason::StoreRcOnly)
            .is_some_and(|(_, n)| *n >= 1));
        reset_session_declines();
        assert!(session_declines().iter().all(|(_, n)| *n == 0));
    }

    #[test]
    fn decline_codes_are_stable_and_distinct() {
        let mut codes: Vec<&str> = DeclineReason::ALL.iter().map(|r| r.code()).collect();
        assert_eq!(codes.len(), DeclineReason::COUNT);
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), DeclineReason::COUNT, "codes must be distinct");
    }

    #[test]
    fn latency_histogram_is_cumulative() {
        observe_query_ns(10_000); // ≤ 50µs
        observe_query_ns(3_000_000_000); // +Inf
        let snap = latency_snapshot();
        assert_eq!(snap.buckets.len(), LATENCY_BUCKET_NS.len() + 1);
        assert_eq!(snap.buckets.last().unwrap().0, u64::MAX);
        assert_eq!(snap.buckets.last().unwrap().1, snap.count);
        let mut prev = 0;
        for &(_, c) in &snap.buckets {
            assert!(c >= prev, "cumulative counts must be monotone");
            prev = c;
        }
        assert!(snap.count >= 2);
        assert!(snap.sum_ns >= 3_000_010_000);
    }

    #[test]
    fn clock_override_round_trips() {
        let prev = set_clock(Some(|| 42));
        assert_eq!(now_ns(), 42);
        set_clock(prev);
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a, "default clock is monotone");
    }
}
