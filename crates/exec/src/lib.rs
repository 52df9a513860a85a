//! **The morsel-driven execution scheduler**: the workspace's one
//! worker pool, shared by the columnar filter over store-cached
//! snapshots (`plan::physical`), the plain-keyed join probe
//! (`plan::parallel`) and proper `hom` folds (`relational::par_hom`).
//! At one thread every caller runs the same morsels inline on the
//! session thread.
//!
//! PR 4's parallel shapes carved their input into one fixed chunk per
//! worker, so a skewed filter — one chunk where every row matches, the
//! rest empty — serialized the whole pipeline on the slowest chunk.
//! Here work is cut into **morsels** (fixed-size row ranges,
//! [`machiavelli_value::tuning::morsel_rows`] rows each) seeded
//! round-robin onto per-worker deques; a worker that drains its own
//! deque **steals** from the others (`crossbeam::deque`), so the
//! pipeline finishes when the *total* work is done, not when the
//! unluckiest worker does.
//!
//! The scheduler is deliberately generic: it runs closures over
//! `Send` tasks and returns results **in task order** (so callers that
//! concatenate per-morsel row indices recover ascending — canonical —
//! row order no matter which worker ran what). Everything
//! value-semantic stays with the caller: `plan` compiles filters and
//! keys down to per-row closures over a
//! [`machiavelli_value::plain::ColumnarRelation`] snapshot, and only
//! surviving row indices travel back.
//!
//! Worker discipline matches the rest of the workspace:
//!
//! * spawns are **fallible** ([`crossbeam::thread::Scope::try_spawn`],
//!   plus the seeded [`machiavelli_value::faults::spawn_denied`] fail
//!   point) — a denied worker's deque is simply drained by the
//!   surviving workers through the same stealing path, degrading
//!   smoothly down to the coordinator running everything;
//! * worker panics propagate to the coordinator when the scope joins
//!   (callers wrap scheduler runs in `catch_unwind`, as
//!   `plan::physical::run_par` does);
//! * per-run morsel totals are aggregated on the coordinating thread
//!   and recorded once via [`machiavelli_value::tuning::note_morsels`]
//!   — worker threads never touch session thread-locals.

use crossbeam::deque::{Steal, Stealer, Worker};
use machiavelli_value::plain::ColumnarRelation;
use machiavelli_value::{faults, tuning};

/// A fixed-size range of rows — the scheduler's unit of work (and of
/// stealing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// First row index (inclusive).
    pub start: usize,
    /// Past-the-end row index.
    pub end: usize,
}

impl Morsel {
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Cut `rows` rows into morsels of the configured size
/// ([`tuning::morsel_rows`]), in range order.
pub fn morsels(rows: usize) -> Vec<Morsel> {
    morsels_of(rows, tuning::morsel_rows())
}

/// Cut `rows` rows into morsels of `size` rows each (the last may be
/// shorter).
pub fn morsels_of(rows: usize, size: usize) -> Vec<Morsel> {
    let size = size.max(1);
    (0..rows.div_ceil(size))
        .map(|i| Morsel {
            start: i * size,
            end: ((i + 1) * size).min(rows),
        })
        .collect()
}

/// What one scheduler run did: how many tasks ran, and how many of
/// them ran on a worker other than the one they were seeded to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Tasks executed (across all workers).
    pub executed: u64,
    /// Tasks a worker stole from another worker's deque.
    pub stolen: u64,
}

/// Run `tasks` across up to `threads` work-stealing workers, returning
/// the results **in task order** plus the run's morsel totals (also
/// recorded in this thread's [`tuning::ExecStats`]).
///
/// `init` runs once per worker thread before its task loop (the
/// coordinator included) and its value is threaded mutably through
/// every task that worker executes — the hook callers use to install
/// guard/fault context on workers (`WorkerCx::enter`-style; the value
/// drops, restoring, when the worker's loop ends).
///
/// `threads == 1` (or a single task) runs inline on the caller's
/// thread with no scope at all.
pub fn run_tasks<T, R, S, I, F>(threads: usize, tasks: Vec<T>, init: I, f: F) -> (Vec<R>, RunStats)
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    let n_tasks = tasks.len();
    if n_tasks == 0 {
        return (Vec::new(), RunStats::default());
    }
    let threads = threads.clamp(1, n_tasks);
    if threads == 1 {
        let mut state = init();
        let results: Vec<R> = tasks.into_iter().map(|t| f(&mut state, t)).collect();
        drop(state);
        let stats = RunStats {
            executed: n_tasks as u64,
            stolen: 0,
        };
        tuning::note_morsels(stats.executed, stats.stolen);
        return (results, stats);
    }

    // Seed the deques round-robin: task i belongs to worker i % threads
    // until someone steals it.
    let queues: Vec<Worker<(usize, T)>> = (0..threads).map(|_| Worker::new_fifo()).collect();
    for (i, t) in tasks.into_iter().enumerate() {
        queues[i % threads].push((i, t));
    }
    let stealers: Vec<Stealer<(usize, T)>> = queues.iter().map(Worker::stealer).collect();
    let stealers = &stealers;
    let init = &init;
    let f = &f;

    let mut queues = queues.into_iter();
    let own = queues.next().expect("threads >= 1");
    let (mut merged, mut stats) = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads - 1);
        for (wid, queue) in queues.enumerate() {
            let wid = wid + 1;
            // A denied spawn just drops this Worker handle: its seeded
            // tasks stay alive behind the stealer Arcs and the
            // surviving workers drain them — the same work, fewer
            // hands.
            if faults::spawn_denied() {
                continue;
            }
            let h = scope.try_spawn(move |_| worker_loop(wid, queue, stealers, init, f));
            if h.is_err() {
                continue;
            }
            handles.push(h.expect("checked"));
        }
        // The coordinator is worker 0.
        let (mut merged, mut executed, mut stolen) = worker_loop(0, own, stealers, init, f);
        for h in handles {
            match h.join() {
                Ok((part, ex, st)) => {
                    merged.extend(part);
                    executed += ex;
                    stolen += st;
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        (merged, RunStats { executed, stolen })
    })
    .expect("shim scope never errors");

    debug_assert_eq!(merged.len(), n_tasks, "every task ran exactly once");
    stats.executed = merged.len() as u64;
    merged.sort_unstable_by_key(|(i, _)| *i);
    let results = merged.into_iter().map(|(_, r)| r).collect();
    tuning::note_morsels(stats.executed, stats.stolen);
    (results, stats)
}

/// One worker's task loop: drain the own deque first, then steal from
/// the others (scanning from the next worker around) until every deque
/// answers `Empty` in a full pass.
fn worker_loop<T, R, S, I, F>(
    wid: usize,
    own: Worker<(usize, T)>,
    stealers: &[Stealer<(usize, T)>],
    init: &I,
    f: &F,
) -> (Vec<(usize, R)>, u64, u64)
where
    I: Fn() -> S,
    F: Fn(&mut S, T) -> R,
{
    let mut state = init();
    let mut out = Vec::new();
    let (mut executed, mut stolen) = (0u64, 0u64);
    loop {
        if let Some((i, t)) = own.pop() {
            out.push((i, f(&mut state, t)));
            executed += 1;
            continue;
        }
        let mut found = None;
        let mut contended = false;
        for off in 1..stealers.len() {
            let victim = (wid + off) % stealers.len();
            match stealers[victim].steal() {
                Steal::Success(task) => {
                    found = Some(task);
                    break;
                }
                Steal::Retry => contended = true,
                Steal::Empty => {}
            }
        }
        match found {
            Some((i, t)) => {
                out.push((i, f(&mut state, t)));
                executed += 1;
                stolen += 1;
            }
            None if contended => std::thread::yield_now(),
            None => break,
        }
    }
    (out, executed, stolen)
}

/// Morsel-parallel filter over a [`ColumnarRelation`]: run `pred` for
/// every row index, returning the **ascending** indices of surviving
/// rows (per-morsel survivor lists concatenate in morsel order). The
/// per-worker `init` hook is threaded through as in [`run_tasks`];
/// `pred` returning `None` poisons the whole run, reported as `None`.
/// A poisoned run is either a runtime decline (live data the plain
/// evaluator cannot handle) or a worker that stopped on a tripped query
/// guard; only the caller can tell the two apart, so it names the
/// outcome after its own guard check.
pub fn filter_indices<S, I, P>(
    threads: usize,
    snapshot: &ColumnarRelation,
    init: I,
    pred: P,
) -> (Option<Vec<u32>>, RunStats)
where
    I: Fn() -> S + Sync,
    P: Fn(&mut S, usize) -> Option<bool> + Sync,
{
    let tasks = morsels(snapshot.len());
    let (parts, stats) = run_tasks(threads, tasks, init, |state, m: Morsel| {
        let mut keep = Vec::new();
        for i in m.start..m.end {
            match pred(state, i) {
                Some(true) => keep.push(i as u32),
                Some(false) => {}
                None => return None,
            }
        }
        Some(keep)
    });
    let mut all = Vec::new();
    for part in parts {
        let Some(mut keep) = part else {
            return (None, stats);
        };
        all.append(&mut keep);
    }
    (Some(all), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use machiavelli_value::{MSet, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn morsels_cover_the_range_exactly_once() {
        let ms = morsels_of(10, 3);
        assert_eq!(
            ms,
            vec![
                Morsel { start: 0, end: 3 },
                Morsel { start: 3, end: 6 },
                Morsel { start: 6, end: 9 },
                Morsel { start: 9, end: 10 },
            ]
        );
        assert_eq!(ms.iter().map(Morsel::len).sum::<usize>(), 10);
        assert!(morsels_of(0, 4).is_empty());
        // A zero size clamps rather than looping forever.
        assert_eq!(morsels_of(2, 0).len(), 2);
    }

    #[test]
    fn results_come_back_in_task_order_at_any_thread_count() {
        for threads in [1, 2, 4, 8] {
            let tasks: Vec<usize> = (0..37).collect();
            let (results, stats) = run_tasks(threads, tasks, || (), |_, t| t * 2);
            assert_eq!(results, (0..37).map(|t| t * 2).collect::<Vec<_>>());
            assert_eq!(stats.executed, 37);
        }
    }

    #[test]
    fn skewed_tasks_get_stolen() {
        // Worker 0's seeded tasks (even indices) are slow; the other
        // worker finishes its own and must steal to let the run end.
        // (Even time-sliced on one core, worker 1 drains its fast deque
        // while worker 0 sits inside a sleep.)
        let tasks: Vec<usize> = (0..16).collect();
        let (results, stats) = run_tasks(
            2,
            tasks,
            || (),
            |_, t| {
                if t % 2 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(3));
                }
                t
            },
        );
        assert_eq!(results, (0..16).collect::<Vec<_>>());
        assert_eq!(stats.executed, 16);
        assert!(stats.stolen > 0, "{stats:?}");
    }

    #[test]
    fn init_runs_once_per_worker_and_threads_state() {
        let inits = AtomicUsize::new(0);
        let (results, _) = run_tasks(
            3,
            (0..30).collect::<Vec<usize>>(),
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            |seen, t| {
                *seen += 1;
                t
            },
        );
        assert_eq!(results.len(), 30);
        let n = inits.load(Ordering::SeqCst);
        assert!((1..=3).contains(&n), "one init per live worker, got {n}");
    }

    #[test]
    fn empty_task_list_is_a_no_op() {
        let (results, stats) = run_tasks::<usize, usize, _, _, _>(4, Vec::new(), || (), |_, t| t);
        assert!(results.is_empty());
        assert_eq!(stats, RunStats::default());
    }

    #[test]
    fn worker_panics_propagate_to_the_coordinator() {
        let caught = std::panic::catch_unwind(|| {
            run_tasks(
                2,
                (0..64).collect::<Vec<usize>>(),
                || (),
                |_, t| {
                    if t == 13 {
                        panic!("boom at {t}");
                    }
                    t
                },
            )
        });
        assert!(caught.is_err());
    }

    #[test]
    fn filter_indices_returns_ascending_survivors() {
        let set = MSet::from_iter((0..100).map(Value::Int));
        let snap = ColumnarRelation::from_set(&set).unwrap();
        let prev = tuning::set_morsel_rows(Some(7));
        for threads in [1, 2, 4] {
            let (keep, stats) = filter_indices(threads, &snap, || (), |_, i| Some(i % 3 == 0));
            let keep = keep.expect("no decline");
            assert_eq!(keep, (0..100u32).filter(|i| i % 3 == 0).collect::<Vec<_>>());
            assert_eq!(stats.executed, 100u64.div_ceil(7));
        }
        tuning::set_morsel_rows(prev);
    }

    #[test]
    fn filter_decline_poisons_the_run() {
        let set = MSet::from_iter((0..50).map(Value::Int));
        let snap = ColumnarRelation::from_set(&set).unwrap();
        let (keep, _) = filter_indices(2, &snap, || (), |_, i| (i != 31).then_some(true));
        assert!(keep.is_none());
    }

    #[test]
    fn denied_spawns_degrade_to_fewer_workers() {
        let prev = faults::set_fault_config(Some(faults::FaultConfig {
            // Deny every spawn: the coordinator drains all deques
            // through the stealing path.
            spawn_fail_ppm: 1_000_000,
            ..faults::FaultConfig::off()
        }));
        let (results, stats) = run_tasks(4, (0..20).collect::<Vec<usize>>(), || (), |_, t| t + 1);
        faults::set_fault_config(prev);
        assert_eq!(results, (1..=20).collect::<Vec<_>>());
        assert_eq!(stats.executed, 20);
    }

    #[test]
    fn run_records_morsel_totals_in_exec_stats() {
        tuning::reset_exec_stats();
        let (_, stats) = run_tasks(2, (0..9).collect::<Vec<usize>>(), || (), |_, t| t);
        let s = tuning::exec_stats();
        assert_eq!(s.morsels_executed, 9);
        assert_eq!(s.morsels_stolen, stats.stolen);
        tuning::reset_exec_stats();
    }
}
