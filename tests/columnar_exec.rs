//! The columnar morsel lane (`machiavelli-exec` + the plan layer's
//! offload), pinned against the sequential paths:
//!
//! * seeded proptests: the columnar lane is result-equivalent to the
//!   sequential planner and to `select_loop` across 1/2/4/8 worker
//!   threads on the part–supplier comprehension space (order,
//!   duplicates, empty survivor sets arise naturally);
//! * declines fall back with zero behavior change and are counted
//!   (identity-bearing rows, env-dependent predicates);
//! * the lane filters only store-cached snapshots: view-call sources,
//!   a disabled store and relations over the store's budget skip it
//!   without counting anything;
//! * at one thread the same lane runs inline, with the same offloads,
//!   and so does a relation of a single morsel at four threads (lane
//!   `seq`, no worker fail point);
//! * both sides of a join filter on the lane, each on its own;
//! * work stealing actually occurs under a skewed many-morsel workload;
//! * the whole pipeline composes: a columnar-filtered scan feeds the
//!   plain probe (store-served plain index);
//! * snapshots cache in the index store and invalidate on rebind.

use machiavelli::eval::set_planner_enabled;
use machiavelli::value::show_value;
use machiavelli_bench::scaled_parts_session;
use proptest::prelude::*;

/// Evaluate `src` with the columnar lane forced live: planner on,
/// parallel lane on with `t` threads, 1-row fan-out cutoff, small
/// morsels (so multi-morsel scheduling and stealing are exercised on
/// small relations). `store` toggles the index store (snapshot caching
/// and the plain probe downstream). `par = None` disables
/// the lane entirely (the sequential reference).
fn run_columnar(
    session: &mut machiavelli::Session,
    src: &str,
    store: bool,
    par: Option<usize>,
) -> Result<String, String> {
    use machiavelli::value::tuning;
    let prev_planner = set_planner_enabled(true);
    let prev_store = machiavelli::store::set_store_enabled(store);
    let prev_enabled = tuning::set_parallel_enabled(par.is_some());
    let prev_threads = tuning::set_par_threads(par);
    let prev_cutoff = tuning::set_par_min_rows(Some(1));
    let prev_morsel = tuning::set_morsel_rows(Some(4));
    let out = session
        .eval_one(src)
        .map(|o| show_value(&o.value))
        .map_err(|e| e.to_string());
    tuning::set_morsel_rows(prev_morsel);
    tuning::set_par_min_rows(prev_cutoff);
    tuning::set_par_threads(prev_threads);
    tuning::set_parallel_enabled(prev_enabled);
    machiavelli::store::set_store_enabled(prev_store);
    set_planner_enabled(prev_planner);
    out
}

/// Run with the planner and every parallel lane off: the `select_loop`
/// reference semantics.
fn run_loop_ref(session: &mut machiavelli::Session, src: &str) -> Result<String, String> {
    let prev_planner = set_planner_enabled(false);
    let out = session
        .eval_one(src)
        .map(|o| show_value(&o.value))
        .map_err(|e| e.to_string());
    set_planner_enabled(prev_planner);
    out
}

/// A seeded single- or two-generator comprehension whose pushed
/// filters are all binder-closed comparisons — the columnar-eligible
/// space. Key spaces are tiny, so duplicate keys, empty survivor sets,
/// and full-relation survivors all arise.
fn random_filtered_comprehension(seed: u64, key_space: u64) -> String {
    let mut state = seed | 1;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m.max(1)
    };
    let ops = [">", "<", ">=", "<=", "="];
    let two_gens = next(2) == 1;
    let mut filter = |var: &str, key: &str| {
        let op = ops[next(ops.len() as u64) as usize];
        // Both orientations: `x.K > c` compiles to the per-column
        // comparator, `c > x.K` takes the flipped arm.
        if next(2) == 0 {
            format!("{var}.{key} {op} {}", next(key_space))
        } else {
            format!("{} {op} {var}.{key}", next(key_space))
        }
    };
    if two_gens {
        let fx = filter("x", "P#");
        let fy = filter("y", "P#");
        format!(
            "select (x.P#, y.S#) where x <- parts, y <- supplied_by \
             with {fx} andalso x.P# = y.P# andalso {fy};"
        )
    } else {
        let f1 = filter("x", "P#");
        let f2 = filter("x", "P#");
        format!("select x.P# where x <- parts with {f1} andalso {f2};")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The acceptance property: the columnar lane — snapshots, morsel
    // scheduling, per-column comparators, survivor re-binding — is
    // result-equivalent to the sequential planner and to `select_loop`
    // across 1/2/4/8 worker threads, store off and on (snapshot
    // caching must be invisible).
    #[test]
    fn columnar_lane_matches_sequential_paths(
        seed in 0u64..u64::MAX / 2,
        n_parts in 4usize..24,
        n_suppliers in 2usize..10,
    ) {
        let src = random_filtered_comprehension(seed, 2 * n_parts as u64);
        let (mut session, _db) = scaled_parts_session(n_parts, n_suppliers, seed ^ 0xc01a);
        session.store_reset();
        let loop_ref = run_loop_ref(&mut session, &src);
        let seq_ref = run_columnar(&mut session, &src, false, None);
        prop_assert!(seq_ref == loop_ref, "{src}: {seq_ref:?} vs {loop_ref:?}");
        for store in [false, true] {
            session.store_reset();
            for threads in [1usize, 2, 4, 8] {
                let col = run_columnar(&mut session, &src, store, Some(threads));
                prop_assert!(
                    col == seq_ref,
                    "{src} @ {threads} threads, store={store}: {col:?} vs {seq_ref:?}"
                );
            }
        }
    }
}

/// The lane engages and counts: a filtered scan over the cutoff
/// offloads, executes multiple morsels, and builds a snapshot exactly
/// once per storage identity when the store serves it.
#[test]
fn columnar_scan_engages_and_counts() {
    let mut session = machiavelli::Session::new();
    session.store_reset();
    let rows: String = (0..64)
        .map(|i| format!("[K={i}, A={}]", i * 2))
        .collect::<Vec<_>>()
        .join(", ");
    session.run(&format!("val r = {{{rows}}};")).unwrap();
    let q = "select x.A where x <- r with x.K > 10 andalso x.K < 50;";
    let seq = run_columnar(&mut session, q, false, None);
    session.exec_reset();
    let col = run_columnar(&mut session, q, true, Some(4));
    assert_eq!(col, seq);
    let es = session.exec_stats();
    assert!(es.offloads >= 1, "{es:?}");
    assert_eq!(es.offload_fallbacks, 0, "{es:?}");
    // 64 rows at 4-row morsels: the run splits into many tasks.
    assert!(es.morsels_executed >= 8, "{es:?}");
    assert_eq!(es.snapshots_built, 1, "{es:?}");
    // Warm store: the second run reuses the cached snapshot.
    let again = run_columnar(&mut session, q, true, Some(4));
    assert_eq!(again, seq);
    let es = session.exec_stats();
    assert_eq!(es.snapshots_built, 1, "snapshot cached across runs: {es:?}");
    assert!(es.offloads >= 2, "{es:?}");
    // One thread: the same lane over the same cached snapshot, run
    // inline on the session thread — the same offloads as at four.
    session.exec_reset();
    assert_eq!(run_columnar(&mut session, q, true, Some(4)), seq);
    let four = session.exec_stats();
    session.exec_reset();
    assert_eq!(run_columnar(&mut session, q, true, Some(1)), seq);
    let one = session.exec_stats();
    assert_eq!(one.offloads, four.offloads, "{one:?} vs {four:?}");
    assert_eq!(one.offload_fallbacks, 0, "{one:?}");
    assert!(one.morsels_executed > 0, "{one:?}");
    assert_eq!(one.morsels_stolen, 0, "inline runs steal nothing: {one:?}");
}

/// Work stealing occurs under a skewed workload: all rows land in the
/// first worker's seeded morsels plus many more, so idle workers must
/// steal to finish. Structural acceptance for the morsel scheduler
/// (wall-clock speedups need multi-core hosts; see BENCH_PR7.json).
#[test]
fn columnar_morsels_are_stolen_under_skew() {
    let mut session = machiavelli::Session::new();
    session.store_reset();
    let rows: String = (0..256)
        .map(|i| format!("[K={i}]"))
        .collect::<Vec<_>>()
        .join(", ");
    session.run(&format!("val big = {{{rows}}};")).unwrap();
    let q = "select x.K where x <- big with x.K >= 0 andalso x.K < 999;";
    let seq = run_columnar(&mut session, q, false, None);
    session.exec_reset();
    let col = run_columnar(&mut session, q, true, Some(4));
    assert_eq!(col, seq);
    let es = session.exec_stats();
    // 256 rows / 4-row morsels = 64 tasks round-robined over 4 deques:
    // whichever workers run drain their own queues and then steal.
    assert!(es.morsels_executed >= 64, "{es:?}");
    assert!(es.morsels_stolen > 0, "steals under skew: {es:?}");
}

/// Identity-bearing rows (refs) have no plain form: the snapshot
/// declines, the fallback is counted, and results are identical —
/// including ref identities, which the sequential filter preserves.
#[test]
fn columnar_lane_declines_identity_bearing_rows() {
    let mut session = machiavelli::Session::new();
    session.store_reset();
    session
        .run(
            "val d = ref(7);
             val r = {[K=1, R=d], [K=2, R=ref(9)], [K=3, R=d]};",
        )
        .unwrap();
    let q = "select x.R where x <- r with x.K > 1;";
    let seq = run_columnar(&mut session, q, false, None);
    session.exec_reset();
    let col = run_columnar(&mut session, q, true, Some(4));
    assert_eq!(col, seq);
    let es = session.exec_stats();
    assert!(es.offload_fallbacks >= 1, "{es:?}");
    assert_eq!(es.offloads, 0, "{es:?}");
    // The surviving refs are the *same* identities the sequential path
    // yields: `=` on refs is identity, so the shared `d` must be a
    // member of the declined-lane result. (A range filter: with the
    // store on, `x.K = 3` would be answered by an index scan instead.)
    run_columnar(
        &mut session,
        "val out = select x.R where x <- r with x.K > 2;",
        true,
        Some(4),
    )
    .unwrap();
    assert_eq!(
        show_value(&session.eval_one("member(d, out);").unwrap().value),
        "true"
    );
}

/// Environment-dependent predicates are statically ineligible: the
/// scan stays sequential (no offload attempted, no counters), results
/// identical.
#[test]
fn columnar_lane_skips_env_dependent_filters() {
    let mut session = machiavelli::Session::new();
    session.store_reset();
    let rows: String = (0..32)
        .map(|i| format!("[K={i}]"))
        .collect::<Vec<_>>()
        .join(", ");
    session
        .run(&format!("val r = {{{rows}}}; val cutoff = 11;"))
        .unwrap();
    let q = "select x.K where x <- r with x.K > cutoff;";
    let seq = run_columnar(&mut session, q, false, None);
    session.exec_reset();
    let col = run_columnar(&mut session, q, true, Some(4));
    assert_eq!(col, seq);
    let es = session.exec_stats();
    assert_eq!((es.offloads, es.offload_fallbacks), (0, 0), "{es:?}");
}

/// Both sides of a two-generator join over named relations carry
/// eligible filters: on a cold store the probe-side scan and the build
/// side each filter on the columnar lane, each on its own path (two
/// offloads in a single query), and the join result is unchanged. At
/// one thread the same two offloads run inline.
#[test]
fn independent_generators_filter_as_one_batch() {
    let mut session = machiavelli::Session::new();
    session.store_reset();
    let rows = |n: usize, label: &str| -> String {
        (0..n)
            .map(|i| format!("[K={}, {label}={i}]", i % 8))
            .collect::<Vec<_>>()
            .join(", ")
    };
    session
        .run(&format!(
            "val r = {{{}}}; val t = {{{}}};",
            rows(48, "A"),
            rows(32, "B"),
        ))
        .unwrap();
    let q = "select (x.A, y.B) where x <- r, y <- t \
             with x.A > 4 andalso x.K = y.K andalso y.B < 20;";
    let seq = run_columnar(&mut session, q, false, None);
    session.exec_reset();
    // Cold store: the build side is not cached, so its filters run.
    let col = run_columnar(&mut session, q, true, Some(4));
    assert_eq!(col, seq);
    let es = session.exec_stats();
    assert_eq!(es.offloads, 2, "both sides offload: {es:?}");
    assert_eq!(es.offload_fallbacks, 0, "{es:?}");
    session.store_reset();
    session.exec_reset();
    assert_eq!(run_columnar(&mut session, q, true, Some(1)), seq);
    let one = session.exec_stats();
    assert_eq!(one.offloads, es.offloads, "{one:?} vs {es:?}");
    assert_eq!(one.offload_fallbacks, 0, "{one:?}");
    assert!(one.morsels_executed > 0, "{one:?}");
}

/// The lane filters only store-cached snapshots. A view-call source
/// constructs fresh storage per evaluation (its snapshot could never be
/// reused), a disabled store caches nothing, and a relation over the
/// store's row budget could not be pinned: each scan filters
/// sequentially and counts as neither an offload nor a fallback, and
/// no snapshot is extracted. Results agree with `select_loop`.
#[test]
fn columnar_lane_skips_uncacheable_snapshots() {
    let mut session = machiavelli::Session::new();
    session.store_reset();
    let rows: String = (0..64)
        .map(|i| format!("[K={i}, A={}]", i * 2))
        .collect::<Vec<_>>()
        .join(", ");
    session
        .run(&format!("val r = {{{rows}}}; fun V(s) = union(s, {{}});"))
        .unwrap();
    let scan = "select x.A where x <- r with x.K > 10 andalso x.K < 50;";
    let view = "select x.A where x <- V(r) with x.K > 10 andalso x.K < 50;";
    let counts = |session: &machiavelli::Session| {
        let es = session.exec_stats();
        (es.offloads, es.offload_fallbacks, es.snapshots_built)
    };
    for threads in [1, 4] {
        // A view-call source, store on.
        session.exec_reset();
        let col = run_columnar(&mut session, view, true, Some(threads));
        assert_eq!(col, run_loop_ref(&mut session, view));
        assert_eq!(counts(&session), (0, 0, 0), "view @ {threads}");
        // A named relation, store off.
        session.exec_reset();
        let col = run_columnar(&mut session, scan, false, Some(threads));
        assert_eq!(col, run_loop_ref(&mut session, scan));
        assert_eq!(counts(&session), (0, 0, 0), "store off @ {threads}");
        // A named relation over the store's row budget.
        session.store_reset();
        session.exec_reset();
        let budget = machiavelli::store::with_store(|st| st.budget_rows());
        machiavelli::store::with_store(|st| st.set_budget(63));
        let col = run_columnar(&mut session, scan, true, Some(threads));
        machiavelli::store::with_store(|st| st.set_budget(budget));
        assert_eq!(col, run_loop_ref(&mut session, scan));
        assert_eq!(counts(&session), (0, 0, 0), "over budget @ {threads}");
    }
    // The same scan within the budget engages: the skips above are the
    // gate, not a dead lane.
    session.store_reset();
    session.exec_reset();
    run_columnar(&mut session, scan, true, Some(4)).unwrap();
    assert_eq!(counts(&session), (1, 0, 1));
}

/// Whole-pipeline composition: the columnar-filtered scan yields a
/// filterless survivor relation — exactly the shape the cached
/// parallel probe fast path keys from — so with a warm store the
/// pipeline runs scan-filter *and* probe on worker threads.
#[test]
fn columnar_scan_composes_with_cached_parallel_probe() {
    let mut session = machiavelli::Session::new();
    session.store_reset();
    let rows = |n: usize, label: &str| -> String {
        (0..n)
            .map(|i| format!("[K={i}, {label}={}]", i * 3))
            .collect::<Vec<_>>()
            .join(", ")
    };
    session
        .run(&format!(
            "val r = {{{}}}; val t = {{{}}};",
            rows(80, "A"),
            rows(20, "B"),
        ))
        .unwrap();
    // Probe side filtered on the columnar lane; build side (`t`,
    // smaller, unfiltered) cached plain by the first run.
    let q = "select (x.A, y.B) where x <- r, y <- t \
             with x.K > 2 andalso x.K = y.K;";
    let seq = run_columnar(&mut session, q, false, None);
    let warmup = run_columnar(&mut session, q, true, Some(4));
    assert_eq!(warmup, seq);
    session.exec_reset();
    session.par_reset();
    let col = run_columnar(&mut session, q, true, Some(4));
    assert_eq!(col, seq);
    let es = session.exec_stats();
    let ps = session.par_stats();
    assert!(es.offloads >= 1, "scan offloaded: {es:?}");
    assert!(
        ps.par_probes >= 1,
        "survivors fed the cached parallel probe: {ps:?}"
    );
    assert_eq!(ps.par_probe_fallbacks, 0, "{ps:?}");
}

/// Snapshot invalidation: rebinding a relation changes its storage
/// identity, so the columnar lane re-snapshots instead of reading
/// stale columns (the PR 5 dirty-ref/identity path extended to the
/// snapshot sub-tier).
#[test]
fn snapshots_invalidate_on_rebind() {
    let mut session = machiavelli::Session::new();
    session.store_reset();
    let rows: String = (0..24)
        .map(|i| format!("[K={i}]"))
        .collect::<Vec<_>>()
        .join(", ");
    session.run(&format!("val r = {{{rows}}};")).unwrap();
    let q = "select x.K where x <- r with x.K > 5 andalso x.K < 200;";
    session.exec_reset();
    let first = run_columnar(&mut session, q, true, Some(4));
    assert_eq!(session.exec_stats().snapshots_built, 1);
    // Rebind with one more row inside the filter range: fresh storage,
    // fresh snapshot, fresh answer.
    session.run("val r = union(r, {[K=99]});").unwrap();
    let second = run_columnar(&mut session, q, true, Some(4));
    assert_eq!(session.exec_stats().snapshots_built, 2);
    assert_ne!(first, second, "the new row must appear");
    assert!(second.as_ref().unwrap().contains("99"), "{second:?}");
}

/// A relation of a single morsel runs the columnar filter inline even
/// with four threads configured: the scheduler clamps the run to one
/// worker, so the span lane stays `seq`, the morsel counters read one
/// executed and none stolen, and the worker fail point never fires.
#[test]
fn a_single_morsel_columnar_run_stays_inline_at_four_threads() {
    use machiavelli::trace::Lane;
    use machiavelli::value::faults::{self, FaultConfig};
    use machiavelli::value::tuning;
    let mut session = machiavelli::Session::new();
    session.store_reset();
    session
        .run("val r = {[K=1, A=10], [K=2, A=20], [K=3, A=30], [K=4, A=40]};")
        .unwrap();
    let q = "select x.A where x <- r with x.K > 1;";
    let prev_enabled = tuning::set_parallel_enabled(true);
    let prev_threads = session.set_par_threads(Some(4));
    let prev_rows = tuning::set_par_min_rows(Some(2));
    let prev_morsel = tuning::set_morsel_rows(Some(tuning::DEFAULT_MORSEL_ROWS));
    let eval = |session: &mut machiavelli::Session| {
        session
            .eval_one(q)
            .map(|o| show_value(&o.value))
            .map_err(|e| e.to_string())
    };
    // Warm the cached snapshot, then trace one run over it.
    eval(&mut session).unwrap();
    session.exec_reset();
    let prev_trace = session.set_tracing(Some(true));
    let traced = eval(&mut session);
    session.set_tracing(prev_trace);
    let traces = session.trace_events();
    let scan = traces
        .iter()
        .flat_map(|t| &t.spans)
        .find(|span| span.label.starts_with("Scan"))
        .expect("a scan span");
    assert_eq!(scan.lane, Lane::Seq, "{:?}", scan.label);
    let stats = session.exec_stats();
    assert_eq!(
        (stats.offloads, stats.morsels_executed, stats.morsels_stolen),
        (1, 1, 0),
        "{stats:?}"
    );
    // The inline run never enters the worker fail point.
    let prev_faults = faults::set_fault_config(Some(FaultConfig {
        worker_panic_ppm: 1_000_000,
        seed: 3,
        ..FaultConfig::off()
    }));
    let faulted = eval(&mut session);
    faults::set_fault_config(prev_faults);
    tuning::set_morsel_rows(prev_morsel);
    tuning::set_par_min_rows(prev_rows);
    session.set_par_threads(prev_threads);
    tuning::set_parallel_enabled(prev_enabled);
    assert_eq!(traced.as_deref(), Ok("{20, 30, 40}"));
    assert_eq!(faulted, traced);
}
