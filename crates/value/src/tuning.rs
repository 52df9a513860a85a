//! **Tuning knobs for the parallel lane and the index store**, in one
//! place: every magic size threshold in the workspace lives here as a
//! named, documented constant; the knobs below add an environment
//! override (for benching) and — where sessions need to steer them — a
//! thread-local override (for tests and `Session` configuration).
//!
//! Resolution order for every knob: thread-local override (set by a
//! `Session` method or a test) → environment variable (read once per
//! process) → the documented default constant.
//!
//! | knob | default | env |
//! |---|---|---|
//! | worker threads | `available_parallelism` | `MACHIAVELLI_PAR_THREADS` |
//! | fan-out row cutoff (join probe, columnar scan, `hom`) | [`DEFAULT_PAR_MIN_ROWS`] | `MACHIAVELLI_PAR_MIN_ROWS` |
//! | morsel size (rows) | [`DEFAULT_MORSEL_ROWS`] | `MACHIAVELLI_MORSEL_ROWS` |
//! | index-store row budget | [`DEFAULT_STORE_BUDGET_ROWS`] | `MACHIAVELLI_STORE_BUDGET_ROWS` |
//! | query tracing (per-operator spans) | off | `MACHIAVELLI_TRACE` |
//!
//! The plain-keyed join's probe-drain cap is a constant,
//! [`PAR_JOIN_MAX_PROBE_FACTOR`] × build rows: it bounds memory, and no
//! measurement has ever asked for another value.
//!
//! (`docs/PERFORMANCE.md` documents every knob alongside the execution
//! contracts they gate. The tracing knob lives in `machiavelli-trace`
//! — same resolution order, thread-local setter
//! `machiavelli_trace::set_tracing` — and is documented with the rest
//! of the observability surface in `docs/OBSERVABILITY.md`.)
//!
//! The module also hosts the session-scoped (thread-local) **parallel
//! ablation toggle** ([`set_parallel_enabled`], mirroring the store's
//! `set_store_enabled`) and the **parallel hit/fallback counters**
//! ([`ParStats`]) surfaced by `Session::par_stats` and the REPL's
//! `:stats`.

use std::cell::Cell;
use std::sync::OnceLock;

// --- documented defaults ---------------------------------------------------

/// Below this many rows a plain-lane shape stays on one thread (or, for
/// `hom` and the columnar scan, on the sequential interpreter path):
/// the probe side of a plain-keyed hash join, the relation of a
/// columnar filtered scan, and the set of a proper `hom`. Extraction
/// plus thread coordination would swamp the per-row savings below it.
pub const DEFAULT_PAR_MIN_ROWS: usize = 4096;

/// A plain-keyed join materializes its probe side before probing (the
/// sequential probe streams it); to bound that memory, draining stops
/// after `build_rows × this factor` rows and the join falls back to the
/// streaming sequential probe over the drained prefix plus the live
/// remainder. 64 keeps the common shapes (probe within an order of
/// magnitude of the build) on the lane while capping pathological
/// pipelines.
pub const PAR_JOIN_MAX_PROBE_FACTOR: usize = 64;

/// Default index-store row budget: generous for the paper-scale
/// workloads while still bounding a long session that touches many
/// relations (the store's LRU evicts past it).
pub const DEFAULT_STORE_BUDGET_ROWS: usize = 1 << 20;

/// Rows per **morsel** — the unit of work the scheduler hands to (and
/// lets workers steal between) its deques. Small enough that a skewed
/// filter cannot serialize the pipeline on one slow range, large
/// enough that per-morsel bookkeeping stays negligible against the
/// per-row work.
pub const DEFAULT_MORSEL_ROWS: usize = 2048;

// --- env-backed resolution -------------------------------------------------

fn env_usize(var: &'static str, cache: &'static OnceLock<Option<usize>>) -> Option<usize> {
    *cache.get_or_init(|| {
        std::env::var(var)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

thread_local! {
    static PAR_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
    static PAR_MIN_ROWS: Cell<Option<usize>> = const { Cell::new(None) };
    static MORSEL_ROWS: Cell<Option<usize>> = const { Cell::new(None) };
    static PARALLEL_ENABLED: Cell<bool> = const { Cell::new(true) };
    static STORE_EPOCH_CLEAR: Cell<bool> = const { Cell::new(false) };
    static PAR_STATS: Cell<ParStats> = const { Cell::new(ParStats::new()) };
    static EXEC_STATS: Cell<ExecStats> = const { Cell::new(ExecStats::new()) };
}

/// Worker-thread count for the parallel lane on this thread (= session):
/// explicit override → `MACHIAVELLI_PAR_THREADS` → the machine's
/// `available_parallelism`. Always ≥ 1; at 1 every plain-lane shape
/// and the columnar filter run inline on the session thread.
pub fn par_threads() -> usize {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    // `available_parallelism` is a surprisingly expensive probe
    // (affinity + cgroup parsing, ~tens of µs) and this accessor sits
    // on every join open — resolve the machine default once.
    static MACHINE: OnceLock<usize> = OnceLock::new();
    PAR_THREADS
        .with(Cell::get)
        .or_else(|| env_usize("MACHIAVELLI_PAR_THREADS", &ENV))
        .unwrap_or_else(|| {
            *MACHINE.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
        })
        .max(1)
}

/// Override the worker-thread count on this thread (`None` restores the
/// env/default resolution), returning the previous override.
pub fn set_par_threads(n: Option<usize>) -> Option<usize> {
    PAR_THREADS.with(|c| c.replace(n.map(|n| n.max(1))))
}

/// The fan-out row cutoff currently in force (thread-local override →
/// `MACHIAVELLI_PAR_MIN_ROWS` → [`DEFAULT_PAR_MIN_ROWS`]).
pub fn par_min_rows() -> usize {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    PAR_MIN_ROWS
        .with(Cell::get)
        .or_else(|| env_usize("MACHIAVELLI_PAR_MIN_ROWS", &ENV))
        .unwrap_or(DEFAULT_PAR_MIN_ROWS)
}

/// Override the fan-out row cutoff on this thread (tests lower it to
/// exercise the lanes on small inputs), returning the previous override.
pub fn set_par_min_rows(n: Option<usize>) -> Option<usize> {
    PAR_MIN_ROWS.with(|c| c.replace(n))
}

/// How many probe rows a plain-keyed join may materialize for a build
/// side of `build_rows` before it bails to the streaming sequential
/// probe ([`PAR_JOIN_MAX_PROBE_FACTOR`]).
pub fn par_join_max_probe_rows(build_rows: usize) -> usize {
    build_rows.saturating_mul(PAR_JOIN_MAX_PROBE_FACTOR)
}

/// The morsel size currently in force (thread-local override →
/// `MACHIAVELLI_MORSEL_ROWS` → [`DEFAULT_MORSEL_ROWS`]). Always ≥ 1.
pub fn morsel_rows() -> usize {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    MORSEL_ROWS
        .with(Cell::get)
        .or_else(|| env_usize("MACHIAVELLI_MORSEL_ROWS", &ENV))
        .unwrap_or(DEFAULT_MORSEL_ROWS)
        .max(1)
}

/// Override the morsel size on this thread (tests shrink it to force
/// many morsels over small relations), returning the previous override.
pub fn set_morsel_rows(n: Option<usize>) -> Option<usize> {
    MORSEL_ROWS.with(|c| c.replace(n.map(|n| n.max(1))))
}

/// The index-store row budget to use for a fresh store (no thread-local
/// override: live stores take `IndexStore::set_budget`).
pub fn store_budget_rows() -> usize {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    env_usize("MACHIAVELLI_STORE_BUDGET_ROWS", &ENV).unwrap_or(DEFAULT_STORE_BUDGET_ROWS)
}

// --- ablation toggle -------------------------------------------------------

/// Is the parallel lane enabled on this thread? (Mirrors the store's
/// `store_enabled`: benches and the equivalence tests flip it off to
/// measure/compare the sequential path.)
pub fn parallel_enabled() -> bool {
    PARALLEL_ENABLED.with(Cell::get)
}

/// Enable/disable the parallel lane on this thread, returning the
/// previous setting (so callers can restore it).
pub fn set_parallel_enabled(on: bool) -> bool {
    PARALLEL_ENABLED.with(|c| c.replace(on))
}

/// Is the index store's **paranoid whole-clear** mode on? When `true`
/// the store reverts to the PR 4 invalidation discipline — drop *every*
/// entry on any reference write — instead of the dirty-set eviction
/// that keeps unaffected entries warm. Kept as an A/B cross-check: the
/// equivalence property tests run both modes and require identical
/// visible results (the precise mode just evicts less).
pub fn store_epoch_clear() -> bool {
    STORE_EPOCH_CLEAR.with(Cell::get)
}

/// Switch the store's paranoid whole-clear mode on/off for this thread,
/// returning the previous setting.
pub fn set_store_epoch_clear(on: bool) -> bool {
    STORE_EPOCH_CLEAR.with(|c| c.replace(on))
}

// --- hit/fallback counters -------------------------------------------------

/// Cumulative plain-lane counters for this thread (= session),
/// surfaced by `Session::par_stats` and the REPL's `:stats`.
///
/// A **hit** is an execution that ran on the plain lane — inline at one
/// worker thread, fanned out over the morsel scheduler at more. A
/// **fallback** is an execution that passed the static gates but fell
/// back at runtime — a value failed `to_plain` extraction (identity- or
/// code-bearing data in a row or key), the plain mini-evaluator
/// declined an expression, or the probe drain hit its memory cap.
/// Executions that never reach the lane (lane disabled, shape not
/// eligible, a `hom` below the row cutoff) are not counted at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParStats {
    /// **Uncached** hash joins that ran on the plain lane end to end:
    /// the build keyed once on the session thread into a local plain
    /// table, then the plain probe.
    pub par_joins: u64,
    /// Uncached hash joins that declined at runtime: a build-side
    /// decline rebuilds on the `Rc` lane, a probe-side decline probes
    /// the plain table sequentially.
    pub par_join_fallbacks: u64,
    /// Hash joins whose plain probe ran against a **store-served**
    /// plain index (no build at all).
    pub par_probes: u64,
    /// Store-served probes that fell back to the sequential probe (a
    /// probe key declined extraction, or the probe drain hit its memory
    /// cap).
    pub par_probe_fallbacks: u64,
    /// Proper `hom` applications folded on the plain lane.
    pub par_homs: u64,
    /// Proper `hom` applications that fell back to the interpreter fold.
    pub par_hom_fallbacks: u64,
}

impl ParStats {
    const fn new() -> ParStats {
        ParStats {
            par_joins: 0,
            par_join_fallbacks: 0,
            par_probes: 0,
            par_probe_fallbacks: 0,
            par_homs: 0,
            par_hom_fallbacks: 0,
        }
    }
}

/// This thread's parallel-lane counters.
pub fn par_stats() -> ParStats {
    PAR_STATS.with(Cell::get)
}

/// Zero this thread's parallel-lane counters.
pub fn reset_par_stats() {
    PAR_STATS.with(|c| c.set(ParStats::new()));
}

/// Record an uncached plain-join outcome (`hit` = ran on the plain
/// lane end to end).
pub fn note_par_join(hit: bool) {
    PAR_STATS.with(|c| {
        let mut s = c.get();
        if hit {
            s.par_joins += 1;
        } else {
            s.par_join_fallbacks += 1;
        }
        c.set(s);
    });
}

/// Record a store-served plain-probe outcome (`hit` = the probe ran on
/// the plain lane against the cached plain index).
pub fn note_par_probe(hit: bool) {
    PAR_STATS.with(|c| {
        let mut s = c.get();
        if hit {
            s.par_probes += 1;
        } else {
            s.par_probe_fallbacks += 1;
        }
        c.set(s);
    });
}

/// Record a proper-`hom` outcome (`hit` = folded on the plain lane).
pub fn note_par_hom(hit: bool) {
    PAR_STATS.with(|c| {
        let mut s = c.get();
        if hit {
            s.par_homs += 1;
        } else {
            s.par_hom_fallbacks += 1;
        }
        c.set(s);
    });
}

// --- columnar-lane counters ------------------------------------------------

/// Cumulative columnar-lane counters for this thread (= session),
/// surfaced by `Session::exec_stats` and the REPL's `:stats` —
/// mirroring [`ParStats`] for the morsel-driven columnar subsystem
/// (`machiavelli-exec`).
///
/// An **offload** is a pipeline the planner actually executed on the
/// columnar lane; an **offload fallback** passed the static and size
/// gates but declined at runtime (a relation failed snapshot
/// extraction, or the plain mini-evaluator declined a filter on live
/// data). Morsel counters are aggregated per scheduler run on the
/// coordinating thread — worker threads never touch the thread-local.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Columnar snapshots extracted from relation rows this session.
    pub snapshots_built: u64,
    /// Columnar snapshots adopted from the process-wide shared tier
    /// instead of being rebuilt.
    pub snapshots_adopted: u64,
    /// Morsels (fixed-size row ranges) executed by scheduler workers.
    pub morsels_executed: u64,
    /// Morsels a worker stole from another worker's deque (a subset of
    /// `morsels_executed`; > 0 means work stealing actually engaged).
    pub morsels_stolen: u64,
    /// Pipelines executed end to end on the columnar lane.
    pub offloads: u64,
    /// Eligible pipelines that fell back to the sequential path at
    /// runtime.
    pub offload_fallbacks: u64,
}

impl ExecStats {
    const fn new() -> ExecStats {
        ExecStats {
            snapshots_built: 0,
            snapshots_adopted: 0,
            morsels_executed: 0,
            morsels_stolen: 0,
            offloads: 0,
            offload_fallbacks: 0,
        }
    }
}

/// This thread's columnar-lane counters.
pub fn exec_stats() -> ExecStats {
    EXEC_STATS.with(Cell::get)
}

/// Zero this thread's columnar-lane counters.
pub fn reset_exec_stats() {
    EXEC_STATS.with(|c| c.set(ExecStats::new()));
}

/// Record a columnar snapshot build (`adopted` = served by the shared
/// tier instead of extracted locally).
pub fn note_snapshot(adopted: bool) {
    EXEC_STATS.with(|c| {
        let mut s = c.get();
        if adopted {
            s.snapshots_adopted += 1;
        } else {
            s.snapshots_built += 1;
        }
        c.set(s);
    });
}

/// Record one scheduler run's morsel totals (aggregated by the
/// coordinator after workers join; `stolen` ≤ `executed`).
pub fn note_morsels(executed: u64, stolen: u64) {
    EXEC_STATS.with(|c| {
        let mut s = c.get();
        s.morsels_executed += executed;
        s.morsels_stolen += stolen;
        c.set(s);
    });
}

/// Record a columnar-lane outcome (`hit` = the pipeline ran offloaded).
pub fn note_offload(hit: bool) {
    EXEC_STATS.with(|c| {
        let mut s = c.get();
        if hit {
            s.offloads += 1;
        } else {
            s.offload_fallbacks += 1;
        }
        c.set(s);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_local_overrides_win_and_restore() {
        let prev = set_par_threads(Some(3));
        assert_eq!(par_threads(), 3);
        set_par_threads(prev);

        let prev = set_par_min_rows(Some(7));
        assert_eq!(par_min_rows(), 7);
        set_par_min_rows(prev);

        let prev = set_morsel_rows(Some(11));
        assert_eq!(morsel_rows(), 11);
        set_morsel_rows(prev);
    }

    #[test]
    fn morsel_rows_clamps_to_one() {
        let prev = set_morsel_rows(Some(0));
        assert_eq!(morsel_rows(), 1);
        set_morsel_rows(prev);
    }

    #[test]
    fn exec_counters_accumulate_and_reset() {
        reset_exec_stats();
        note_snapshot(false);
        note_snapshot(true);
        note_morsels(8, 3);
        note_offload(true);
        note_offload(false);
        let s = exec_stats();
        assert_eq!(
            (
                s.snapshots_built,
                s.snapshots_adopted,
                s.morsels_executed,
                s.morsels_stolen,
                s.offloads,
                s.offload_fallbacks
            ),
            (1, 1, 8, 3, 1, 1)
        );
        reset_exec_stats();
        assert_eq!(exec_stats(), ExecStats::default());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let prev = set_par_threads(Some(0));
        assert_eq!(par_threads(), 1);
        set_par_threads(prev);
    }

    #[test]
    fn enable_toggle_round_trips() {
        let prev = set_parallel_enabled(false);
        assert!(!parallel_enabled());
        set_parallel_enabled(prev);
    }

    #[test]
    fn store_epoch_clear_toggle_round_trips() {
        assert!(!store_epoch_clear(), "precise invalidation is the default");
        let prev = set_store_epoch_clear(true);
        assert!(!prev);
        assert!(store_epoch_clear());
        set_store_epoch_clear(prev);
        assert!(!store_epoch_clear());
    }

    #[test]
    fn counters_accumulate_and_reset() {
        reset_par_stats();
        note_par_join(true);
        note_par_join(false);
        note_par_probe(true);
        note_par_probe(false);
        note_par_hom(true);
        let s = par_stats();
        assert_eq!(
            (
                s.par_joins,
                s.par_join_fallbacks,
                s.par_probes,
                s.par_probe_fallbacks,
                s.par_homs,
                s.par_hom_fallbacks
            ),
            (1, 1, 1, 1, 1, 0)
        );
        reset_par_stats();
        assert_eq!(par_stats(), ParStats::default());
    }

    /// The `MACHIAVELLI_*` names matched by `prefix` in `text`: an
    /// upper-case/digit/underscore run after each occurrence.
    fn knob_names(text: &str, prefix: &str) -> std::collections::BTreeSet<String> {
        text.match_indices(prefix)
            .map(|(i, _)| {
                let rest = &text[i + prefix.len() - "MACHIAVELLI_".len()..];
                rest.chars()
                    .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
                    .collect()
            })
            .collect()
    }

    #[test]
    fn performance_doc_knob_table_matches_resolved_env_knobs() {
        // Every env knob this module resolves goes through `env_usize`.
        let resolved = knob_names(include_str!("tuning.rs"), "env_usize(\"MACHIAVELLI_");
        assert_eq!(resolved.len(), 4, "{resolved:?}");
        // The knob table: the rows between the `## Tuning knobs`
        // heading and the first blank line after the table starts.
        let doc = include_str!("../../../docs/PERFORMANCE.md");
        let section = &doc[doc.find("## Tuning knobs").expect("knob section")..];
        let table: String = section
            .lines()
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .collect::<Vec<_>>()
            .join("\n");
        let documented = knob_names(&table, "`MACHIAVELLI_");
        assert_eq!(
            documented, resolved,
            "docs/PERFORMANCE.md's knob table and tuning.rs disagree"
        );
    }
}
