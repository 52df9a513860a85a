//! **Cooperative resource governance** for server-hosted queries.
//!
//! A [`QueryGuard`] is the cancellation token the server attaches to
//! each admitted query: it carries an optional wall-clock deadline, an
//! optional row budget, and a cancel flag the client side can flip at
//! any time. The guard itself never interrupts anything — evaluation is
//! stopped *cooperatively*, at the evaluator's periodic tick
//! (`Cx::enter` in `machiavelli-eval`), inside the columnar lane's
//! morsel loops and in the plain join probe's key loop, all of which
//! call [`check_current`].
//!
//! Trips are **sticky**: once a guard observes a cancel, a blown
//! deadline, or an exhausted row budget it stays tripped, so a parallel
//! driver that bailed mid-chunk can never have its truncated result
//! returned as `Ok` — the next check on the coordinator surfaces the
//! same [`Trip`].
//!
//! The guard is installed per *thread* ([`install`]), mirroring the
//! session-is-a-thread discipline used by `tuning` and the index store.
//! Worker threads spawned by the parallel lane capture the coordinator's
//! `Arc<QueryGuard>` explicitly (the guard is `Send + Sync`; thread
//! locals do not inherit).
//!
//! The module also hosts the process-wide [`ServerCounters`] — the
//! sessions-started/panicked/shed, deadline and cancellation tallies
//! surfaced by `Session::server_stats` and the wire `:stats`.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Why a governed query was stopped. Carried by the evaluator's
/// `Interrupted` error variant all the way to the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trip {
    /// The client (or the server tearing a session down) cancelled the
    /// query.
    Cancelled,
    /// The per-query wall-clock deadline elapsed.
    DeadlineExceeded,
    /// The query materialized more rows than its budget allows.
    RowBudgetExceeded,
}

impl std::fmt::Display for Trip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trip::Cancelled => write!(f, "query cancelled"),
            Trip::DeadlineExceeded => write!(f, "query deadline exceeded"),
            Trip::RowBudgetExceeded => write!(f, "query row budget exceeded"),
        }
    }
}

const TRIP_NONE: u8 = 0;
const TRIP_CANCELLED: u8 = 1;
const TRIP_DEADLINE: u8 = 2;
const TRIP_ROWS: u8 = 3;

fn trip_from_u8(v: u8) -> Option<Trip> {
    match v {
        TRIP_CANCELLED => Some(Trip::Cancelled),
        TRIP_DEADLINE => Some(Trip::DeadlineExceeded),
        TRIP_ROWS => Some(Trip::RowBudgetExceeded),
        _ => None,
    }
}

/// A per-query cancellation token: deadline + row budget + cancel flag,
/// with a sticky trip latch. `Send + Sync`; the server holds one end,
/// the evaluating thread (and any parallel workers) the other.
#[derive(Debug)]
pub struct QueryGuard {
    cancel: AtomicBool,
    deadline: Option<Instant>,
    /// `usize::MAX` = unlimited.
    rows_limit: usize,
    rows_used: AtomicUsize,
    /// Sticky latch: `TRIP_NONE` until the first trip, then frozen.
    tripped: AtomicU8,
}

impl QueryGuard {
    /// A guard with the given deadline and row budget (`None` =
    /// unlimited in both positions).
    pub fn new(deadline: Option<Instant>, rows_limit: Option<usize>) -> QueryGuard {
        QueryGuard {
            cancel: AtomicBool::new(false),
            deadline,
            rows_limit: rows_limit.unwrap_or(usize::MAX),
            rows_used: AtomicUsize::new(0),
            tripped: AtomicU8::new(TRIP_NONE),
        }
    }

    /// A guard whose deadline is `timeout` from now.
    pub fn with_timeout(timeout: Duration, rows_limit: Option<usize>) -> QueryGuard {
        QueryGuard::new(Instant::now().checked_add(timeout), rows_limit)
    }

    /// An unlimited guard (useful as a pure cancellation token).
    pub fn unlimited() -> QueryGuard {
        QueryGuard::new(None, None)
    }

    fn latch(&self, trip: u8) -> Trip {
        // First writer wins; later causes report whatever latched first,
        // keeping the reported reason stable across threads.
        let prev = self
            .tripped
            .compare_exchange(TRIP_NONE, trip, Ordering::AcqRel, Ordering::Acquire)
            .unwrap_or_else(|p| p);
        trip_from_u8(if prev == TRIP_NONE { trip } else { prev })
            .expect("latched trip is always a valid cause")
    }

    /// Request cancellation (idempotent, callable from any thread).
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
        self.latch(TRIP_CANCELLED);
    }

    /// The sticky trip, if any — does **not** probe the clock; use
    /// [`QueryGuard::check`] at tick sites.
    pub fn tripped(&self) -> Option<Trip> {
        trip_from_u8(self.tripped.load(Ordering::Acquire))
    }

    /// Poll the guard: returns the (sticky) trip cause if the query
    /// should stop. This is the tick-site entry point: it probes the
    /// cancel flag and the deadline clock and latches on first failure.
    pub fn check(&self) -> Option<Trip> {
        if let Some(t) = self.tripped() {
            return Some(t);
        }
        if self.cancel.load(Ordering::Acquire) {
            return Some(self.latch(TRIP_CANCELLED));
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(self.latch(TRIP_DEADLINE));
            }
        }
        None
    }

    /// Charge `n` materialized rows against the budget; trips (sticky)
    /// when the running total exceeds the limit. Returns the trip so
    /// row-charging callers on the coordinator thread can surface it
    /// immediately rather than waiting for the next tick.
    pub fn charge_rows(&self, n: usize) -> Option<Trip> {
        if self.rows_limit == usize::MAX {
            return self.tripped();
        }
        let used = self
            .rows_used
            .fetch_add(n, Ordering::AcqRel)
            .saturating_add(n);
        if used > self.rows_limit {
            return Some(self.latch(TRIP_ROWS));
        }
        self.tripped()
    }

    /// Rows charged so far.
    pub fn rows_used(&self) -> usize {
        self.rows_used.load(Ordering::Acquire)
    }
}

// --- thread-local installation ---------------------------------------------

thread_local! {
    static GUARD: RefCell<Option<Arc<QueryGuard>>> = const { RefCell::new(None) };
    /// Fast-path mirror of `GUARD.is_some()`: the evaluator tick reads
    /// this `Cell<bool>` on every probe; un-governed sessions (the REPL,
    /// the test suite) pay one thread-local load and nothing else.
    static GUARD_ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Install (or clear) the governing guard for this thread, returning
/// the previous one so callers can restore it. The server installs the
/// query's guard around each `Session::run` and restores on the way
/// out; parallel workers install the captured guard for their lifetime.
pub fn install(guard: Option<Arc<QueryGuard>>) -> Option<Arc<QueryGuard>> {
    GUARD_ACTIVE.with(|c| c.set(guard.is_some()));
    GUARD.with(|g| std::mem::replace(&mut *g.borrow_mut(), guard))
}

/// The guard governing this thread, if any.
pub fn current() -> Option<Arc<QueryGuard>> {
    if !GUARD_ACTIVE.with(Cell::get) {
        return None;
    }
    GUARD.with(|g| g.borrow().clone())
}

/// Tick-site probe: polls this thread's guard. `None` when un-governed
/// or still within limits. This is the function the evaluator's
/// `Cx::enter` tick and the parallel chunk loops call.
pub fn check_current() -> Option<Trip> {
    if !GUARD_ACTIVE.with(Cell::get) {
        return None;
    }
    GUARD.with(|g| g.borrow().as_ref().and_then(|guard| guard.check()))
}

/// Charge `n` rows against this thread's guard (no-op when un-governed).
/// Called from `MSet`'s bulk constructors — the places where a query
/// actually materializes row storage.
pub fn charge_current_rows(n: usize) {
    if !GUARD_ACTIVE.with(Cell::get) {
        return;
    }
    GUARD.with(|g| {
        if let Some(guard) = g.borrow().as_ref() {
            guard.charge_rows(n);
        }
    });
}

// --- default query row budget ----------------------------------------------

/// Default per-query row budget for server sessions: unlimited unless
/// `MACHIAVELLI_QUERY_MAX_ROWS` is set (the server's `ServerConfig` can
/// override per instance).
pub fn query_max_rows() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("MACHIAVELLI_QUERY_MAX_ROWS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

// --- process-wide server counters ------------------------------------------

/// Process-wide resilience counters, surfaced by `Session::server_stats`
/// and the wire `:stats`. Plain atomics: every field is monotonically
/// increasing between [`reset_server_counters`] calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Sessions opened on the server.
    pub sessions_started: u64,
    /// Sessions poisoned by an evaluator panic (isolated, not fatal).
    pub sessions_panicked: u64,
    /// Sessions closed cleanly.
    pub sessions_closed: u64,
    /// Queries rejected at admission (queue full → `ServerBusy`).
    pub queries_shed: u64,
    /// Queries stopped by their deadline.
    pub deadlines_hit: u64,
    /// Queries stopped by client cancellation.
    pub queries_cancelled: u64,
    /// Queries stopped by their row budget.
    pub row_budgets_hit: u64,
    /// Queries that completed (Ok or a plain query error).
    pub queries_completed: u64,
}

macro_rules! server_counter {
    ($static_:ident, $note:ident, $field:ident) => {
        static $static_: AtomicU64 = AtomicU64::new(0);
        #[doc = concat!("Increment [`ServerCounters::", stringify!($field), "`].")]
        pub fn $note() {
            $static_.fetch_add(1, Ordering::Relaxed);
        }
    };
}

server_counter!(SESSIONS_STARTED, note_session_started, sessions_started);
server_counter!(SESSIONS_PANICKED, note_session_panicked, sessions_panicked);
server_counter!(SESSIONS_CLOSED, note_session_closed, sessions_closed);
server_counter!(QUERIES_SHED, note_query_shed, queries_shed);
server_counter!(DEADLINES_HIT, note_deadline_hit, deadlines_hit);
server_counter!(QUERIES_CANCELLED, note_query_cancelled, queries_cancelled);
server_counter!(ROW_BUDGETS_HIT, note_row_budget_hit, row_budgets_hit);
server_counter!(QUERIES_COMPLETED, note_query_completed, queries_completed);

/// Snapshot the process-wide server counters.
pub fn server_counters() -> ServerCounters {
    ServerCounters {
        sessions_started: SESSIONS_STARTED.load(Ordering::Relaxed),
        sessions_panicked: SESSIONS_PANICKED.load(Ordering::Relaxed),
        sessions_closed: SESSIONS_CLOSED.load(Ordering::Relaxed),
        queries_shed: QUERIES_SHED.load(Ordering::Relaxed),
        deadlines_hit: DEADLINES_HIT.load(Ordering::Relaxed),
        queries_cancelled: QUERIES_CANCELLED.load(Ordering::Relaxed),
        row_budgets_hit: ROW_BUDGETS_HIT.load(Ordering::Relaxed),
        queries_completed: QUERIES_COMPLETED.load(Ordering::Relaxed),
    }
}

/// Zero the process-wide server counters (tests and bench setup).
pub fn reset_server_counters() {
    for c in [
        &SESSIONS_STARTED,
        &SESSIONS_PANICKED,
        &SESSIONS_CLOSED,
        &QUERIES_SHED,
        &DEADLINES_HIT,
        &QUERIES_CANCELLED,
        &ROW_BUDGETS_HIT,
        &QUERIES_COMPLETED,
    ] {
        c.store(0, Ordering::Relaxed);
    }
}

/// Record a query outcome's trip cause into the process counters.
pub fn note_trip(trip: Trip) {
    match trip {
        Trip::Cancelled => note_query_cancelled(),
        Trip::DeadlineExceeded => note_deadline_hit(),
        Trip::RowBudgetExceeded => note_row_budget_hit(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_is_sticky() {
        let g = QueryGuard::unlimited();
        assert_eq!(g.check(), None);
        g.cancel();
        assert_eq!(g.check(), Some(Trip::Cancelled));
        assert_eq!(g.tripped(), Some(Trip::Cancelled));
        // A later row overrun cannot overwrite the first cause.
        let g2 = QueryGuard::new(None, Some(1));
        g2.cancel();
        g2.charge_rows(10);
        assert_eq!(g2.tripped(), Some(Trip::Cancelled));
    }

    #[test]
    fn deadline_trips_and_latches() {
        let g = QueryGuard::new(Some(Instant::now() - Duration::from_millis(1)), None);
        assert_eq!(g.check(), Some(Trip::DeadlineExceeded));
        assert_eq!(g.tripped(), Some(Trip::DeadlineExceeded));
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let g = QueryGuard::with_timeout(Duration::from_secs(3600), None);
        assert_eq!(g.check(), None);
    }

    #[test]
    fn row_budget_trips_past_limit() {
        let g = QueryGuard::new(None, Some(100));
        assert_eq!(g.charge_rows(60), None);
        assert_eq!(g.charge_rows(39), None);
        assert_eq!(g.charge_rows(2), Some(Trip::RowBudgetExceeded));
        assert_eq!(g.check(), Some(Trip::RowBudgetExceeded));
        assert_eq!(g.rows_used(), 101);
    }

    #[test]
    fn install_round_trips_and_checks() {
        assert_eq!(check_current(), None, "un-governed thread never trips");
        let guard = Arc::new(QueryGuard::unlimited());
        let prev = install(Some(guard.clone()));
        assert!(prev.is_none());
        assert_eq!(check_current(), None);
        guard.cancel();
        assert_eq!(check_current(), Some(Trip::Cancelled));
        let restored = install(prev);
        assert!(restored.is_some());
        assert_eq!(check_current(), None);
    }

    #[test]
    fn charge_current_rows_reaches_installed_guard() {
        let guard = Arc::new(QueryGuard::new(None, Some(5)));
        let prev = install(Some(guard.clone()));
        charge_current_rows(10);
        assert_eq!(guard.tripped(), Some(Trip::RowBudgetExceeded));
        install(prev);
    }

    #[test]
    fn counters_note_and_reset() {
        // Counters are process-global; use diffs so parallel tests
        // cannot interfere.
        let before = server_counters();
        note_session_started();
        note_trip(Trip::DeadlineExceeded);
        let after = server_counters();
        assert!(after.sessions_started > before.sessions_started);
        assert!(after.deadlines_hit > before.deadlines_hit);
    }
}
