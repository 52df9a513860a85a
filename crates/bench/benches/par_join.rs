//! The plain-keyed hash-join lane vs the sequential planner paths,
//! across relation sizes and worker-thread counts.
//!
//! Two externally bound relations of `n` int-keyed rows each are
//! equi-joined through `Session::eval_one` (parse + infer + plan +
//! execute).
//!
//! The `par_join` group measures **uncached joins**: the index store is
//! disabled so every iteration really builds and probes, isolating seq
//! vs the plain lane on the same work:
//!
//! * `seq`  — lane disabled (the `Rc`-lane planner build and probe);
//! * `parK` — plain build keyed once on the session thread, then the
//!   plain probe on K worker threads (the fan-out cutoff is lowered so
//!   every size fans out); `par1` runs the same lane inline.
//!
//! The `cached_par_probe` group measures **store-served joins**: store
//! enabled and warm, so the build phase is gone entirely and the only
//! difference is how the cached plain index is probed:
//!
//! * `cached_seq`  — the sequential probe over the cached index;
//! * `cached_parK` — K workers probing the shared `Arc` index (probe
//!   cutoff lowered so every size engages).
//!
//! Keys overlap on the top eighth of the key space with unique matches,
//! so the output (≈ n/8 small tuples) never dominates the build/probe
//! machinery under test.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use machiavelli::value::{tuning, Value};
use machiavelli::Session;
use std::time::Duration;

/// Short measurement windows so the full figure suite runs in minutes;
/// rerun individual benches with Criterion CLI flags for precision.
fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

fn rows(n: usize, key_offset: usize) -> Value {
    Value::set((0..n).map(|i| {
        Value::record([
            ("K".into(), Value::Int((i + key_offset) as i64)),
            ("A".into(), Value::Int(i as i64)),
            ("C".into(), Value::Int((i % 97) as i64)),
        ])
    }))
}

fn join_session(n: usize) -> Session {
    let mut s = Session::new();
    // `s` keys overlap the top eighth of `r`'s key space 1:1: the join
    // streams n build + n probe rows but emits only ~n/8 matches, so
    // build/probe — the machinery under test — dominates, not output
    // materialization (which is identical in both lanes anyway).
    s.bind_external("r", rows(n, 0), "{[K: int, A: int, C: int]}")
        .unwrap();
    s.bind_external("s", rows(n, n - n / 8), "{[K: int, A: int, C: int]}")
        .unwrap();
    s
}

/// The comprehension under test, wrapped in an emptiness check so the
/// per-iteration `it` binding is one bool (a bare select would chain a
/// fresh n/8-row set into the environment every iteration, and the
/// accumulated retention distorts the timing).
const QUERY: &str = "(select (x.A, y.A) where x <- r, y <- s with x.K = y.K) = {};";

fn run_seq(s: &mut Session) -> Value {
    let prev = tuning::set_parallel_enabled(false);
    let out = s.eval_one(QUERY).unwrap().value;
    tuning::set_parallel_enabled(prev);
    out
}

fn run_par(s: &mut Session, threads: usize) -> Value {
    let prev_t = tuning::set_par_threads(Some(threads));
    let prev_rows = tuning::set_par_min_rows(Some(1));
    let out = s.eval_one(QUERY).unwrap().value;
    tuning::set_par_min_rows(prev_rows);
    tuning::set_par_threads(prev_t);
    out
}

fn bench_par_join(c: &mut Criterion) {
    // Every iteration must rebuild: cached builds bypass the lane.
    machiavelli::store::set_store_enabled(false);
    let mut group = c.benchmark_group("par_join");
    group.sample_size(10);
    for n in [2_000usize, 10_000, 100_000] {
        let mut s = join_session(n);
        // Sanity: the lanes agree (and the result is non-trivial)
        // before anything is timed.
        let seq = run_seq(&mut s);
        assert_eq!(seq, Value::Bool(false), "join unexpectedly empty at n={n}");
        for threads in [1usize, 4] {
            tuning::reset_par_stats();
            assert_eq!(
                run_par(&mut s, threads),
                seq,
                "lanes diverge at n={n}, {threads} threads"
            );
            assert_eq!(
                tuning::par_stats().par_joins,
                1,
                "lane not engaged at n={n}, {threads} threads"
            );
        }

        group.bench_with_input(BenchmarkId::new("seq", n), &n, |b, _| {
            b.iter(|| run_seq(&mut s))
        });
        for threads in [1usize, 2, 4, 8] {
            group.bench_with_input(BenchmarkId::new(format!("par{threads}"), n), &n, |b, _| {
                b.iter(|| run_par(&mut s, threads))
            });
        }
    }
    group.finish();
    machiavelli::store::set_store_enabled(true);
}

/// Run the query with the store enabled (warm after the first call):
/// `threads = None` is the sequential probe over the cached index,
/// `Some(k)` the plain probe on k workers with a 1-row fan-out cutoff.
fn run_cached(s: &mut Session, threads: Option<usize>) -> Value {
    let prev_on = tuning::set_parallel_enabled(threads.is_some());
    let prev_t = tuning::set_par_threads(threads);
    let prev_probe = tuning::set_par_min_rows(Some(1));
    let out = s.eval_one(QUERY).unwrap().value;
    tuning::set_par_min_rows(prev_probe);
    tuning::set_par_threads(prev_t);
    tuning::set_parallel_enabled(prev_on);
    out
}

fn bench_cached_par_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("cached_par_probe");
    group.sample_size(10);
    for n in [10_000usize, 100_000] {
        let mut s = join_session(n);
        s.store_reset();
        // Warm the cache, then sanity-check agreement and engagement.
        let seq = run_cached(&mut s, None);
        assert_eq!(seq, Value::Bool(false), "join unexpectedly empty at n={n}");
        let builds = s.store_stats().builds;
        assert_eq!(builds, 1, "build not cached at n={n}");
        tuning::reset_par_stats();
        assert_eq!(run_cached(&mut s, Some(4)), seq, "lanes diverge at n={n}");
        let stats = tuning::par_stats();
        assert_eq!(
            (stats.par_probes, stats.par_probe_fallbacks),
            (1, 0),
            "cached probe not engaged at n={n}: {stats:?}"
        );
        assert_eq!(s.store_stats().builds, builds, "rebuilt at n={n}");

        group.bench_with_input(BenchmarkId::new("cached_seq", n), &n, |b, _| {
            b.iter(|| run_cached(&mut s, None))
        });
        for threads in [2usize, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("cached_par{threads}"), n),
                &n,
                |b, _| b.iter(|| run_cached(&mut s, Some(threads))),
            );
        }
        assert_eq!(s.store_stats().builds, builds, "cache lost during bench");
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_par_join, bench_cached_par_probe
}
criterion_main!(benches);
