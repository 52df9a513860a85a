//! End-to-end resilience: governor trips and injected faults surface
//! through a plain [`Session`] as **structured errors** — the
//! session-level half of the contract the server's chaos suite proves
//! at the process level.

use machiavelli::eval::set_planner_enabled;
use machiavelli::value::faults::{self, FaultConfig, INJECTED_PANIC_PREFIX};
use machiavelli::value::governor::{self, QueryGuard};
use machiavelli::value::tuning;
use machiavelli::Session;
use std::sync::Arc;
use std::time::Duration;

/// Evaluate with the parallel lane forced on (2 threads, 1-row
/// cutoffs, store off) so eligible joins fan out to worker threads.
fn eval_par(session: &mut Session, src: &str) -> Result<String, String> {
    let prev_planner = set_planner_enabled(true);
    let prev_store = machiavelli::store::set_store_enabled(false);
    let prev_enabled = tuning::set_parallel_enabled(true);
    let prev_threads = tuning::set_par_threads(Some(2));
    let prev_rows = tuning::set_par_min_rows(Some(1));
    let out = session
        .eval_one(src)
        .map(|o| machiavelli::value::show_value(&o.value))
        .map_err(|e| e.to_string());
    tuning::set_par_min_rows(prev_rows);
    tuning::set_par_threads(prev_threads);
    tuning::set_parallel_enabled(prev_enabled);
    machiavelli::store::set_store_enabled(prev_store);
    set_planner_enabled(prev_planner);
    out
}

const SETUP: &str = "val r = {[K=1, A=10], [K=2, A=20], [K=3, A=30]};
                     val probe = {[K=2], [K=3]};";
const JOIN: &str = "select x.A where y <- probe, x <- r with x.K = y.K;";

#[test]
fn a_panicking_parallel_worker_surfaces_as_err_not_an_abort() {
    let mut s = Session::new();
    s.run(SETUP).unwrap();

    // Inject a certain panic on every fan-out worker thread.
    let prev = faults::set_fault_config(Some(FaultConfig {
        worker_panic_ppm: 1_000_000,
        seed: 21,
        ..FaultConfig::off()
    }));
    let out = eval_par(&mut s, JOIN);
    faults::set_fault_config(prev);

    let msg = out.expect_err("worker panic must become a structured error");
    assert!(
        msg.contains("parallel worker panicked") && msg.contains(INJECTED_PANIC_PREFIX),
        "got: {msg}"
    );
    // The panic was confined to the fan-out: the session keeps working
    // and the same query now answers correctly.
    assert_eq!(eval_par(&mut s, JOIN).unwrap(), "{20, 30}");
}

/// Run `f` with a guard installed on this thread, restoring after.
fn with_guard<T>(guard: Arc<QueryGuard>, f: impl FnOnce() -> T) -> (T, Arc<QueryGuard>) {
    let prev = governor::install(Some(guard.clone()));
    let out = f();
    governor::install(prev);
    (out, guard)
}

/// >256 evaluator steps, so the governance tick is guaranteed to fire.
fn ticking_query() -> String {
    let elems: Vec<String> = (0..200).map(|i| format!("{i} + 0")).collect();
    format!("{{{}}};", elems.join(", "))
}

#[test]
fn cancellation_interrupts_the_evaluator_tick() {
    let mut s = Session::new();
    let guard = Arc::new(QueryGuard::unlimited());
    guard.cancel();
    let (out, _) = with_guard(guard, || s.eval_one(&ticking_query()));
    let msg = out.expect_err("cancelled mid-evaluation").to_string();
    assert_eq!(msg, "runtime error: query cancelled");
    // The guard is uninstalled: the session evaluates normally again.
    assert!(s.eval_one("1 + 1;").is_ok());
}

#[test]
fn an_expired_deadline_interrupts_the_evaluator_tick() {
    let mut s = Session::new();
    let guard = Arc::new(QueryGuard::with_timeout(Duration::ZERO, None));
    let (out, guard) = with_guard(guard, || s.eval_one(&ticking_query()));
    let msg = out.expect_err("deadline hit mid-evaluation").to_string();
    assert_eq!(msg, "runtime error: query deadline exceeded");
    assert!(
        guard.tripped().is_some(),
        "the trip is latched on the guard"
    );
}

#[test]
fn row_budget_latches_even_when_charged_after_the_last_tick() {
    let mut s = Session::new();
    // Tiny query, tiny budget: the 5-row set charges at materialization
    // — after any possible tick — so evaluation itself may succeed...
    let guard = Arc::new(QueryGuard::new(None, Some(2)));
    let (out, guard) = with_guard(guard, || s.eval_one("{1, 2, 3, 4, 5};"));
    // ...but the latch records the violation for the host to honor
    // (the server turns this into `ServerError::RowBudgetExceeded`).
    let _ = out;
    assert_eq!(
        guard.tripped(),
        Some(machiavelli::value::governor::Trip::RowBudgetExceeded)
    );
    assert!(guard.rows_used() >= 5);
}

/// Evaluate with the columnar lane live: planner, store and parallel
/// lane on at `threads` threads, 1-row fan-out cutoff.
fn eval_columnar(session: &mut Session, src: &str, threads: usize) -> Result<String, String> {
    let prev_planner = set_planner_enabled(true);
    let prev_store = machiavelli::store::set_store_enabled(true);
    let prev_enabled = tuning::set_parallel_enabled(true);
    let prev_threads = tuning::set_par_threads(Some(threads));
    let prev_rows = tuning::set_par_min_rows(Some(1));
    let out = session
        .eval_one(src)
        .map(|o| machiavelli::value::show_value(&o.value))
        .map_err(|e| e.to_string());
    tuning::set_par_min_rows(prev_rows);
    tuning::set_par_threads(prev_threads);
    tuning::set_parallel_enabled(prev_enabled);
    machiavelli::store::set_store_enabled(prev_store);
    set_planner_enabled(prev_planner);
    out
}

/// A guard trip inside a columnar filter run is an interruption, not a
/// runtime decline: the worker that stops on the tripped guard poisons
/// the run, and the lane must report the trip as the query's error
/// without also counting `columnar-runtime-decline` — inline at one
/// thread and fanned out at two, for cancellation and for an expired
/// deadline.
#[test]
fn a_guard_trip_in_the_columnar_lane_is_not_a_decline() {
    use machiavelli::trace::{self, DeclineReason};
    use machiavelli::value::Value;
    let mut s = Session::new();
    s.store_reset();
    let rows = Value::set(
        (0..5_000)
            .map(|i| Value::record([("K".into(), Value::Int(i)), ("A".into(), Value::Int(i))])),
    );
    s.bind_external("r", rows, "{[K: int, A: int]}").unwrap();
    let q = "select x.A where x <- r with x.K > 10 andalso x.A < 4000;";
    let runtime_declines = || {
        trace::session_declines()
            .into_iter()
            .find(|(r, _)| *r == DeclineReason::ColumnarRuntimeDecline)
            .map_or(0, |(_, n)| n)
    };
    for threads in [1, 2] {
        // Warm the cached snapshot; the lane engages.
        s.exec_reset();
        eval_columnar(&mut s, q, threads).unwrap();
        assert_eq!(s.exec_stats().offloads, 1, "@ {threads} threads");
        let cancelled = Arc::new(QueryGuard::unlimited());
        cancelled.cancel();
        let expired = Arc::new(QueryGuard::with_timeout(Duration::ZERO, None));
        for (guard, want) in [
            (cancelled, "runtime error: query cancelled"),
            (expired, "runtime error: query deadline exceeded"),
        ] {
            trace::reset_session_declines();
            let (out, _) = with_guard(guard, || eval_columnar(&mut s, q, threads));
            assert_eq!(out.unwrap_err(), want, "@ {threads} threads");
            assert_eq!(runtime_declines(), 0, "{want} @ {threads} threads");
        }
    }
}
