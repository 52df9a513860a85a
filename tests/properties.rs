//! Property-based tests (proptest) over the core data structures and the
//! algebraic laws the paper relies on:
//!
//! * `MSet` is a canonical set (union/intersection/difference laws);
//! * value-level `join` is idempotent/commutative/associative on
//!   consistent descriptions and computes an upper bound;
//! * `con` is reflexive and symmetric;
//! * `project` is idempotent and monotone;
//! * type-level `⊔`/`⊓` form lub/glb with respect to `≤`;
//! * join strategies agree on random flat relations;
//! * naive and semi-naive closure agree on random digraphs;
//! * the interpreter's `select`/`join` agree with the native substrate;
//! * the plain-value lane round-trips (`to_plain`/`from_plain`) and its
//!   hash/order agree with the `Rc` lane;
//! * the plain-keyed hash join and `par_hom`-backed folds are
//!   result-equivalent to the sequential planner and `select_loop`
//!   across 1/2/4/8 worker threads (1 = the same lane inline, with the
//!   same lane counters), and non-extractable data falls back.

use machiavelli::eval::set_planner_enabled;
use machiavelli::types::{glb, le, lub, type_eq, Partial};
use machiavelli::value::{con_value, join_value, project_value, value_cmp, MSet, Value};
use machiavelli_bench::scaled_parts_session;
use machiavelli_relational::{
    edges_to_relation, hash_join, naive_closure, nested_loop_join, seminaive_closure,
    sort_merge_join, Relation,
};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher as _;

// ----- generators ---------------------------------------------------------

/// Flat record values over a fixed label universe (so overlaps happen).
fn arb_flat_record() -> impl Strategy<Value = Value> {
    let field = prop_oneof![
        (0i64..5).prop_map(Value::Int),
        "[a-c]{1}".prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
    ];
    proptest::collection::btree_map(
        prop_oneof![
            Just("A".to_string()),
            Just("B".to_string()),
            Just("C".to_string())
        ],
        field,
        0..3,
    )
    .prop_map(|m| Value::record(m.into_iter().map(|(l, v)| (l.into(), v))))
}

/// Nested description values (records of records / base values).
fn arb_desc_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        (0i64..10).prop_map(Value::Int),
        "[a-b]{1,2}".prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
        Just(Value::Unit),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::btree_map(
                prop_oneof![
                    Just("A".to_string()),
                    Just("B".to_string()),
                    Just("C".to_string()),
                    Just("D".to_string())
                ],
                inner.clone(),
                0..3,
            )
            .prop_map(|m| Value::record(m.into_iter().map(|(l, v)| (l.into(), v)))),
            // Sets must be homogeneous to be well-typed (heterogeneous
            // sets are rejected statically, and the join laws only hold
            // for typeable values), so set elements are drawn from one
            // scalar type.
            proptest::collection::vec(0i64..6, 0..4)
                .prop_map(|xs| Value::set(xs.into_iter().map(Value::Int))),
        ]
    })
}

/// Description *types* over a small label universe.
fn arb_desc_type() -> impl Strategy<Value = machiavelli::types::Ty> {
    use machiavelli::types::ty::*;
    let leaf = prop_oneof![Just(t_int()), Just(t_str()), Just(t_bool()), Just(t_unit()),];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            proptest::collection::btree_map(
                prop_oneof![
                    Just("A".to_string()),
                    Just("B".to_string()),
                    Just("C".to_string())
                ],
                inner.clone(),
                0..3,
            )
            .prop_map(|m| t_record(m.into_iter().map(|(l, t)| (l.into(), t)))),
            inner.prop_map(t_set),
        ]
    })
}

fn arb_edges() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..12, 0i64..12), 0..40)
}

// ----- MSet laws ----------------------------------------------------------

proptest! {
    #[test]
    fn mset_canonical(xs in proptest::collection::vec(0i64..20, 0..30)) {
        let s = MSet::from_iter(xs.iter().map(|&x| Value::Int(x)));
        // Sorted and duplicate-free.
        for w in s.as_slice().windows(2) {
            prop_assert!(value_cmp(&w[0], &w[1]) == std::cmp::Ordering::Less);
        }
        // Membership agrees with the source list.
        for x in 0..20 {
            prop_assert_eq!(s.contains(&Value::Int(x)), xs.contains(&x));
        }
    }

    #[test]
    fn mset_algebra(
        xs in proptest::collection::vec(0i64..15, 0..20),
        ys in proptest::collection::vec(0i64..15, 0..20),
    ) {
        let a = MSet::from_iter(xs.iter().map(|&x| Value::Int(x)));
        let b = MSet::from_iter(ys.iter().map(|&x| Value::Int(x)));
        // Commutativity / idempotence.
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        prop_assert_eq!(a.union(&a), a.clone());
        // |A ∪ B| = |A| + |B| − |A ∩ B|.
        prop_assert_eq!(a.union(&b).len() + a.intersect(&b).len(), a.len() + b.len());
        // A \ B and A ∩ B partition A.
        prop_assert_eq!(a.difference(&b).len() + a.intersect(&b).len(), a.len());
        // Subset laws.
        prop_assert!(a.intersect(&b).is_subset(&a));
        prop_assert!(a.is_subset(&a.union(&b)));
    }
}

// ----- value join / con / project laws -------------------------------------

proptest! {
    #[test]
    fn con_reflexive_symmetric(a in arb_desc_value(), b in arb_desc_value()) {
        prop_assert!(con_value(&a, &a));
        prop_assert_eq!(con_value(&a, &b), con_value(&b, &a));
    }

    #[test]
    fn join_laws_on_consistent_values(a in arb_desc_value(), b in arb_desc_value(), c in arb_desc_value()) {
        prop_assert_eq!(join_value(&a, &a).unwrap(), a.clone());
        if con_value(&a, &b) {
            let ab = join_value(&a, &b).unwrap();
            let ba = join_value(&b, &a).unwrap();
            prop_assert_eq!(&ab, &ba);
            // join is increasing: joining again with an operand is a no-op.
            prop_assert_eq!(join_value(&ab, &a).unwrap(), ab.clone());
            // Associativity where all joins are defined.
            if con_value(&b, &c) && con_value(&ab, &c) {
                if let (Ok(bc), Ok(abc1)) = (join_value(&b, &c), join_value(&ab, &c)) {
                    if con_value(&a, &bc) {
                        prop_assert_eq!(join_value(&a, &bc).unwrap(), abc1);
                    }
                }
            }
        } else {
            prop_assert!(join_value(&a, &b).is_err());
        }
    }

    #[test]
    fn project_idempotent(ty in arb_desc_type(), v in arb_desc_value()) {
        if let Ok(p) = project_value(&v, &ty) {
            prop_assert_eq!(project_value(&p, &ty).unwrap(), p);
        }
    }
}

// ----- type ordering laws --------------------------------------------------

proptest! {
    #[test]
    fn le_is_a_partial_order(a in arb_desc_type(), b in arb_desc_type(), c in arb_desc_type()) {
        prop_assert_eq!(le(&a, &a), Partial::Known(true));
        // Antisymmetry.
        if le(&a, &b) == Partial::Known(true) && le(&b, &a) == Partial::Known(true) {
            prop_assert_eq!(type_eq(&a, &b), Partial::Known(true));
        }
        // Transitivity.
        if le(&a, &b) == Partial::Known(true) && le(&b, &c) == Partial::Known(true) {
            prop_assert_eq!(le(&a, &c), Partial::Known(true));
        }
    }

    #[test]
    fn lub_is_least_upper_bound(a in arb_desc_type(), b in arb_desc_type()) {
        if let Ok(Partial::Known(l)) = lub(&a, &b) {
            prop_assert_eq!(le(&a, &l), Partial::Known(true));
            prop_assert_eq!(le(&b, &l), Partial::Known(true));
            // Least: lub(a, lub(a,b)) = lub(a,b).
            let again = lub(&a, &l).unwrap().known().unwrap();
            prop_assert_eq!(type_eq(&again, &l), Partial::Known(true));
        }
    }

    #[test]
    fn glb_is_greatest_lower_bound(a in arb_desc_type(), b in arb_desc_type()) {
        if let Ok(Partial::Known(g)) = glb(&a, &b) {
            prop_assert_eq!(le(&g, &a), Partial::Known(true));
            prop_assert_eq!(le(&g, &b), Partial::Known(true));
            let again = glb(&g, &a).unwrap().known().unwrap();
            prop_assert_eq!(type_eq(&again, &g), Partial::Known(true));
        }
    }

    #[test]
    fn lub_glb_consistency(a in arb_desc_type(), b in arb_desc_type()) {
        // If a ≤ b then a ⊔ b = b and a ⊓ b = a.
        if le(&a, &b) == Partial::Known(true) {
            let l = lub(&a, &b).unwrap().known().unwrap();
            prop_assert_eq!(type_eq(&l, &b), Partial::Known(true));
            let g = glb(&a, &b).unwrap().known().unwrap();
            prop_assert_eq!(type_eq(&g, &a), Partial::Known(true));
        }
    }
}

// ----- algorithm agreement --------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn join_strategies_agree(
        xs in proptest::collection::vec(arb_flat_record(), 0..15),
        ys in proptest::collection::vec(arb_flat_record(), 0..15),
    ) {
        // Restrict to homogeneous flat relations: take the first row's
        // labels as the schema for each side.
        let schema_of = |v: &Value| match v {
            Value::Record(fs) => fs.keys().copied().collect::<Vec<_>>(),
            _ => vec![],
        };
        let homog = |rows: Vec<Value>| -> Relation {
            let Some(first) = rows.first() else { return Relation::new() };
            let schema = schema_of(first);
            Relation::from_rows(rows.iter().filter(|r| schema_of(r) == schema).cloned())
        };
        let r = homog(xs);
        let s = homog(ys);
        let nl = nested_loop_join(&r, &s);
        prop_assert_eq!(&nl, &hash_join(&r, &s));
        prop_assert_eq!(&nl, &sort_merge_join(&r, &s));
    }

    #[test]
    fn closures_agree_and_are_monotone(edges in arb_edges()) {
        let naive = naive_closure(&edges);
        let semi = seminaive_closure(&edges);
        prop_assert_eq!(&naive, &semi);
        for e in &edges {
            prop_assert!(naive.contains(e));
        }
        // Idempotent.
        let again = naive_closure(&naive.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(again, naive);
    }
}

// ----- bulk-merge and structural hashing -------------------------------------

proptest! {
    #[test]
    fn mset_extend_matches_repeated_insert(
        base in proptest::collection::vec(0i64..25, 0..20),
        adds in proptest::collection::vec(0i64..25, 0..20),
    ) {
        let mut bulk = MSet::from_iter(base.iter().map(|&x| Value::Int(x)));
        let mut slow = bulk.clone();
        bulk.extend(adds.iter().map(|&x| Value::Int(x)));
        for &x in &adds {
            slow.insert(Value::Int(x));
        }
        prop_assert_eq!(&bulk, &slow);
        // extend is union with the normalized additions.
        let addset = MSet::from_iter(adds.iter().map(|&x| Value::Int(x)));
        prop_assert_eq!(bulk, MSet::from_iter(base.into_iter().map(Value::Int)).union(&addset));
    }

    #[test]
    fn structural_hash_respects_equality(a in arb_desc_value(), b in arb_desc_value()) {
        let digest = |v: &Value| {
            let mut h = DefaultHasher::new();
            machiavelli::value::hash_value(v, &mut h);
            h.finish()
        };
        // Equal values must hash equal (the HashMap soundness direction).
        if a == b {
            prop_assert_eq!(digest(&a), digest(&b));
        }
        prop_assert_eq!(digest(&a), digest(&a.clone()));
    }
}

// ----- planner vs nested-loop semantics --------------------------------------

/// Build a random 1–3-generator comprehension over the part–supplier
/// schema: sources drawn from `suppliers` / `supplied_by` / `parts` /
/// a dependent `<var>.Suppliers`, equi-join conjuncts between generator
/// pairs, and pushdown-able key filters — the space the planner covers
/// (plus shapes it declines, which exercise classification). Driven by a
/// seed rather than nested strategies so the query shape shrinks simply.
fn random_comprehension(seed: u64, key_space: u64) -> String {
    let mut state = seed | 1;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m.max(1)
    };
    struct Gen {
        var: &'static str,
        source: String,
        key: &'static str,
    }
    let vars = ["x", "y", "z"];
    let n_gens = 1 + next(3) as usize;
    let mut gens: Vec<Gen> = Vec::new();
    for var in vars.iter().take(n_gens) {
        let (source, key) = match next(4) {
            0 => ("suppliers".to_string(), "S#"),
            1 => ("supplied_by".to_string(), "P#"),
            2 => ("parts".to_string(), "P#"),
            _ => match gens.iter().rev().find(|g| g.source == "supplied_by") {
                // Dependent: range over the nested supplier set of an
                // earlier binder.
                Some(prev) => (format!("{}.Suppliers", prev.var), "S#"),
                None => ("suppliers".to_string(), "S#"),
            },
        };
        gens.push(Gen { var, source, key });
    }
    let mut conjuncts: Vec<String> = Vec::new();
    for i in 1..n_gens {
        if next(3) == 0 {
            continue; // cross product with this generator
        }
        let j = next(i as u64) as usize;
        let (a, b) = if next(2) == 0 { (j, i) } else { (i, j) };
        conjuncts.push(format!(
            "{}.{} = {}.{}",
            gens[a].var, gens[a].key, gens[b].var, gens[b].key
        ));
    }
    for g in &gens {
        if next(3) == 0 {
            conjuncts.push(format!("{}.{} > {}", g.var, g.key, next(key_space)));
        }
    }
    if conjuncts.is_empty() {
        conjuncts.push("true".into());
    }
    let result = gens
        .iter()
        .map(|g| format!("{}.{}", g.var, g.key))
        .collect::<Vec<_>>()
        .join(", ");
    let where_clause = gens
        .iter()
        .map(|g| format!("{} <- {}", g.var, g.source))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "select ({result}) where {where_clause} with {};",
        conjuncts.join(" andalso ")
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn planner_matches_select_loop_on_random_comprehensions(
        seed in 0u64..u64::MAX / 2,
        n_parts in 4usize..24,
        n_suppliers in 2usize..10,
    ) {
        let src = random_comprehension(seed, 2 * n_parts as u64);
        let (mut session, _db) = scaled_parts_session(n_parts, n_suppliers, seed ^ 0x9e3779b9);
        let run = |s: &mut machiavelli::Session, on: bool| {
            let prev = set_planner_enabled(on);
            let out = s
                .eval_one(&src)
                .map(|o| machiavelli::value::show_value(&o.value))
                .map_err(|e| e.to_string());
            set_planner_enabled(prev);
            out
        };
        let planned = run(&mut session, true);
        let interpreted = run(&mut session, false);
        // (On mismatch the query shape is recoverable from the seed.)
        prop_assert!(planned == interpreted, "{}: {:?} vs {:?}", src, planned, interpreted);
    }
}

// ----- the plain-value lane ---------------------------------------------------

proptest! {
    #[test]
    fn plain_lane_round_trips_and_agrees(a in arb_desc_value(), b in arb_desc_value()) {
        use machiavelli::value::plain::{from_plain, plain_cmp, plain_hash, to_plain};
        // arb_desc_value produces pure data (no refs/dynamics), so
        // extraction must succeed…
        let pa = to_plain(&a).expect("description data extracts");
        let pb = to_plain(&b).expect("description data extracts");
        // …round-trip structurally…
        prop_assert_eq!(&from_plain(&pa), &a);
        // …order identically…
        prop_assert_eq!(plain_cmp(&pa, &pb), value_cmp(&a, &b));
        // …and hash identically (the plain-lane soundness direction).
        let dv = |v: &Value| {
            let mut h = DefaultHasher::new();
            machiavelli::value::hash_value(v, &mut h);
            h.finish()
        };
        let dp = |p: &machiavelli::value::PlainValue| {
            let mut h = DefaultHasher::new();
            plain_hash(p, &mut h);
            h.finish()
        };
        prop_assert_eq!(dv(&a), dp(&pa));
    }
}

// ----- the parallel lane vs the sequential paths ------------------------------

/// Evaluate `src` in `session` with an explicit execution mode:
/// `planner` toggles plan dispatch, `par` = `Some(t)` forces the
/// plain lane on with `t` worker threads and a 1-row fan-out cutoff
/// (`None` disables the lane). The store is disabled throughout so
/// eligible joins build their own plain table instead of hitting the
/// index cache, and every override is restored before returning.
fn run_in_mode(
    session: &mut machiavelli::Session,
    src: &str,
    planner: bool,
    par: Option<usize>,
) -> Result<String, String> {
    use machiavelli::value::tuning;
    let prev_planner = set_planner_enabled(planner);
    let prev_store = machiavelli::store::set_store_enabled(false);
    let prev_enabled = tuning::set_parallel_enabled(par.is_some());
    let prev_threads = tuning::set_par_threads(par);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The parallel hash join is result-equivalent to the sequential
    // planner and to `select_loop` across 1/2/4/8 worker threads, on
    // the same seeded comprehension space the planner property uses —
    // duplicate keys (tiny key spaces) and sparse groups (fewer
    // distinct keys than rows) arise naturally.
    #[test]
    fn parallel_join_matches_sequential_paths(
        seed in 0u64..u64::MAX / 2,
        n_parts in 4usize..24,
        n_suppliers in 2usize..10,
    ) {
        let src = random_comprehension(seed, 2 * n_parts as u64);
        let (mut session, _db) = scaled_parts_session(n_parts, n_suppliers, seed ^ 0x51c6e1);
        let loop_ref = run_in_mode(&mut session, &src, false, None);
        let seq_ref = run_in_mode(&mut session, &src, true, None);
        prop_assert!(seq_ref == loop_ref, "{src}: {seq_ref:?} vs {loop_ref:?}");
        let mut one_thread = None;
        for threads in [1usize, 2, 4, 8] {
            session.par_reset();
            let par = run_in_mode(&mut session, &src, true, Some(threads));
            prop_assert!(
                par == seq_ref,
                "{src} @ {threads} threads: {par:?} vs {seq_ref:?}"
            );
            // The 1-thread run takes the plain lane inline: it engages
            // (and declines) exactly where the fanned-out runs do.
            let stats = session.par_stats();
            let one = *one_thread.get_or_insert(stats);
            prop_assert!(stats == one, "{src} @ {threads}: {stats:?} vs 1 thread {one:?}");
        }
    }

    // `par_hom`-backed folds (the prelude's `card`/`sum`/`member` and
    // a raw product fold) agree with the sequential interpreter fold
    // across 1/2/4/8 worker threads.
    #[test]
    fn parallel_hom_folds_match_sequential(
        xs in proptest::collection::vec(-50i64..50, 0..60),
        k in -50i64..50,
    ) {
        let mut session = machiavelli::Session::new();
        session
            .bind_external("S", Value::set(xs.iter().map(|&x| Value::Int(x))), "{int}")
            .unwrap();
        let src = format!(
            "(card(S), sum(S), member({k}, S), hom((fn(x) => x), *, 1, S));"
        );
        let seq_ref = run_in_mode(&mut session, &src, true, None);
        prop_assert!(seq_ref.is_ok(), "{seq_ref:?}");
        for threads in [1usize, 2, 4, 8] {
            session.par_reset();
            let par = run_in_mode(&mut session, &src, true, Some(threads));
            prop_assert!(par == seq_ref, "{src} @ {threads} threads: {par:?} vs {seq_ref:?}");
            // All four folds take the plain lane — inline at 1 thread —
            // whenever the set is non-empty (the cutoff is 1 row).
            let stats = session.par_stats();
            let want = if xs.is_empty() { 0 } else { 4 };
            prop_assert!(
                (stats.par_homs, stats.par_hom_fallbacks) == (want, 0),
                "{src} @ {threads} threads: {stats:?}"
            );
        }
    }
}

/// Evaluate `src` with the **composed** store+parallel configuration:
/// store enabled (cacheable builds are served from / inserted into the
/// session index store), plain lane on with `t` threads and a 1-row
/// fan-out cutoff — so store-served plain indexes take the plain
/// probe. `par = None` keeps the store but disables the lane
/// (the sequential cached probe).
fn run_composed(
    session: &mut machiavelli::Session,
    src: &str,
    par: Option<usize>,
) -> Result<String, String> {
    use machiavelli::value::tuning;
    let prev_planner = set_planner_enabled(true);
    let prev_store = machiavelli::store::set_store_enabled(true);
    let prev_enabled = tuning::set_parallel_enabled(par.is_some());
    let prev_threads = tuning::set_par_threads(par);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // The acceptance property of the composed lane: store-served
    // builds probed in parallel agree with the sequential planner and
    // with `select_loop`, across 1/2/4/8 worker threads, cold and warm,
    // and across interleaved mutations (a write to an unrelated ref —
    // which the dependency-tracked invalidation must survive — and a
    // rebind of one relation, which pointer-identity keying must
    // catch).
    #[test]
    fn composed_store_parallel_matches_sequential_paths(
        seed in 0u64..u64::MAX / 2,
        n_parts in 4usize..24,
        n_suppliers in 2usize..10,
    ) {
        let src = random_comprehension(seed, 2 * n_parts as u64);
        let (mut session, _db) = scaled_parts_session(n_parts, n_suppliers, seed ^ 0xa5a5a5);
        session.store_reset();
        session.run("val side = ref(0);").unwrap();
        let loop_ref = run_in_mode(&mut session, &src, false, None);
        let mut one_thread = None;
        for threads in [1usize, 2, 4, 8] {
            session.store_reset();
            session.par_reset();
            // Cold run builds (and caches) the indexes; warm run probes
            // them — in parallel when threads allow.
            let cold = run_composed(&mut session, &src, Some(threads));
            prop_assert!(cold == loop_ref, "{src} cold @ {threads}: {cold:?} vs {loop_ref:?}");
            let warm = run_composed(&mut session, &src, Some(threads));
            prop_assert!(warm == loop_ref, "{src} warm @ {threads}: {warm:?} vs {loop_ref:?}");
            // An unrelated write must not change results (and should
            // leave the cache warm — counter-asserted elsewhere).
            session.eval_one("side := 1;").unwrap();
            let after_write = run_composed(&mut session, &src, Some(threads));
            prop_assert!(
                after_write == loop_ref,
                "{src} after unrelated write @ {threads}: {after_write:?} vs {loop_ref:?}"
            );
            // Lane outcomes do not depend on the thread count: the
            // 1-thread runs engage the plain lane inline exactly where
            // the fanned-out runs do.
            let stats = session.par_stats();
            let one = *one_thread.get_or_insert(stats);
            prop_assert!(stats == one, "{src} @ {threads}: {stats:?} vs 1 thread {one:?}");
            // The sequential cached probe agrees too.
            let seq_cached = run_composed(&mut session, &src, None);
            prop_assert!(seq_cached == loop_ref, "{src} seq cached: {seq_cached:?}");
        }
        // Mutate a relation the queries actually read: the composed
        // path must see fresh rows exactly like `select_loop`.
        session.run("val suppliers = union(suppliers, {[S#=999, Sname=\"x\", City=\"y\"]});").unwrap();
        let loop_after = run_in_mode(&mut session, &src, false, None);
        let par_after = run_composed(&mut session, &src, Some(4));
        prop_assert!(par_after == loop_after, "{src} after rebind: {par_after:?} vs {loop_after:?}");
    }
}

/// Deterministic composed-lane engagement: a warm plain index probed at
/// four threads counts `par_probes` (not uncached-join hits), builds
/// exactly once across runs, and survives unrelated writes.
#[test]
fn cached_parallel_probe_engages_counts_and_survives_writes() {
    let mut session = machiavelli::Session::new();
    session.store_reset();
    let rows = |n: usize, label: &str| -> String {
        (0..n)
            .map(|i| format!("[K={i}, {label}={}]", i * 10))
            .collect::<Vec<_>>()
            .join(", ")
    };
    session
        .run(&format!(
            "val r = {{{}}}; val t = {{{}}}; val side = ref(0);",
            rows(60, "A"),
            rows(40, "B"),
        ))
        .unwrap();
    // Probe side (`r`) larger than the build (`t`): no swap, `t` caches
    // in plain form on the first run.
    let q = "select (x.A, y.B) where x <- r, y <- t with x.K = y.K;";
    let seq = run_composed(&mut session, q, None);
    session.par_reset();
    let par = run_composed(&mut session, q, Some(4));
    assert_eq!(par, seq);
    let stats = session.par_stats();
    assert!(stats.par_probes >= 1, "cached probe engaged: {stats:?}");
    assert_eq!(stats.par_joins, 0, "not an uncached join: {stats:?}");
    assert_eq!(stats.par_probe_fallbacks, 0, "{stats:?}");
    let store = session.store_stats();
    assert_eq!(store.builds, 1, "one build across all runs: {store:?}");
    assert_eq!(store.plain_entries, 1, "{store:?}");
    // Unrelated ref writes leave the cached index warm and the
    // parallel probe running.
    for i in 0..3 {
        session.eval_one(&format!("side := {i};")).unwrap();
        assert_eq!(run_composed(&mut session, q, Some(4)), seq);
    }
    let store = session.store_stats();
    assert_eq!(store.builds, 1, "cache survived the writes: {store:?}");
    assert_eq!((store.invalidated, store.cleared), (0, 0), "{store:?}");
    assert!(session.par_stats().par_probes >= 4);
}

/// Non-extractable **keys** (identity-bearing `ref` values, whose
/// equality plain data cannot represent) force the runtime fallback on
/// whichever side computes them, with the fallback counter recording it
/// and results identical to the sequential paths. Rows merely
/// *containing* refs off the key path still parallelize — only the key
/// tuples cross the lane.
#[test]
fn parallel_join_falls_back_on_unextractable_keys() {
    use machiavelli::value::show_value;
    let mut session = machiavelli::Session::new();
    // `d` is a shared ref: rows of `r` and `t` join on ref identity.
    session
        .run(
            "val d = ref(1);
             val r = {[K=d, A=1], [K=ref(2), A=2], [K=ref(3), A=3]};
             val t = {[K=d, B=10], [K=ref(9), B=90]};
             val p = {[K=1, R=ref(1)], [K=2, R=ref(2)]};
             val q = {[K=1, B=10], [K=2, B=20], [K=9, B=90]};",
        )
        .unwrap();
    // Ref-valued keys on both sides: extraction declines, fallback.
    let ref_keys = "select (x.A, y.B) where x <- r, y <- t with x.K = y.K;";
    // Refs in the rows but int keys: the lane runs (keys extract; rows
    // are matched by index and never cross a thread).
    let refs_off_key_path = "select (x.K, y.B) where x <- p, y <- q with x.K = y.K;";
    for (query, expect_hit) in [(ref_keys, false), (refs_off_key_path, true)] {
        let seq = run_in_mode(&mut session, query, true, None);
        // At 1 thread the same lane runs inline and counts the same.
        for threads in [4usize, 1] {
            session.par_reset();
            let par = run_in_mode(&mut session, query, true, Some(threads));
            assert_eq!(par, seq, "{query}");
            let stats = session.par_stats();
            if expect_hit {
                assert!(stats.par_joins >= 1, "{query}: {stats:?}");
                assert_eq!(stats.par_join_fallbacks, 0, "{query}: {stats:?}");
            } else {
                assert!(stats.par_join_fallbacks >= 1, "{query}: {stats:?}");
                assert_eq!(stats.par_joins, 0, "{query}: {stats:?}");
            }
        }
    }
    // The ref-identity join itself answers correctly: only the shared
    // `d` rows match.
    let out = session.eval_one(ref_keys).unwrap().value;
    assert_eq!(show_value(&out), "{(1, 10)}");
}

/// The probe-drain memory cap: a probe pipeline much larger than the
/// build side (here > 64× with the cutoff overridden to 1) bails to the
/// streaming sequential probe — the drained prefix replays and the
/// live remainder streams, with identical results and a counted
/// fallback.
#[test]
fn parallel_join_caps_probe_materialization() {
    let mut session = machiavelli::Session::new();
    let many: String = (0..200)
        .map(|i| format!("[K={i}]"))
        .collect::<Vec<_>>()
        .join(", ");
    session
        .run(&format!(
            "val many = {{{many}}}; val two = {{[K=1, B=10], [K=199, B=20]}};"
        ))
        .unwrap();
    let q = "select (x.K, y.B) where x <- many, y <- two with x.K = y.K;";
    let seq = run_in_mode(&mut session, q, true, None);
    // The cap bounds the inline 1-thread lane exactly like the fan-out.
    for threads in [4usize, 1] {
        session.par_reset();
        let par = run_in_mode(&mut session, q, true, Some(threads));
        assert_eq!(par, seq);
        let stats = session.par_stats();
        assert!(stats.par_join_fallbacks >= 1, "{stats:?}");
        assert_eq!(stats.par_joins, 0, "{stats:?}");
    }
}

/// Duplicate keys and sparse groups, pinned deterministically: many
/// rows per key on both sides, and a single distinct key on one side.
#[test]
fn parallel_join_handles_duplicates_and_empty_partitions() {
    let mut session = machiavelli::Session::new();
    let dup_rows: String = (0..40)
        .map(|i| format!("[K={}, A={i}]", i % 3))
        .collect::<Vec<_>>()
        .join(", ");
    session
        .run(&format!(
            "val dups = {{{dup_rows}}}; val one = {{[K=1, B=7], [K=1, B=8]}};"
        ))
        .unwrap();
    for query in [
        "select (x.A, y.A) where x <- dups, y <- dups with x.K = y.K;",
        "select (x.A, y.B) where x <- dups, y <- one with x.K = y.K;",
    ] {
        let seq = run_in_mode(&mut session, query, true, None);
        for threads in [1usize, 2, 4, 8] {
            session.par_reset();
            let par = run_in_mode(&mut session, query, true, Some(threads));
            assert_eq!(par, seq, "{query} @ {threads}");
            // The lane engages at every thread count, 1 (inline)
            // included.
            let stats = session.par_stats();
            assert_eq!(
                (stats.par_joins, stats.par_join_fallbacks),
                (1, 0),
                "{query} @ {threads}: {stats:?}"
            );
        }
    }
}

// ----- interpreter vs native ------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn interpreted_join_matches_native(edges in arb_edges(), others in arb_edges()) {
        let mut s = machiavelli::Session::new();
        let r = edges_to_relation(&edges);
        let t = {
            // Rename to B/C so the join is on B.
            let rel = edges_to_relation(&others);
            rel.rename("A", "B2").rename("B", "C").rename("B2", "B")
        };
        s.bind_external("r", r.clone().into_value(), "{[A: int, B: int]}").unwrap();
        s.bind_external("t", t.clone().into_value(), "{[B: int, C: int]}").unwrap();
        let interpreted = s.eval_one("join(r, t);").unwrap().value;
        prop_assert_eq!(interpreted, nested_loop_join(&r, &t).into_value());
    }

    #[test]
    fn interpreted_select_matches_native_filter(edges in arb_edges(), k in 0i64..12) {
        let mut s = machiavelli::Session::new();
        let r = edges_to_relation(&edges);
        s.bind_external("r", r.clone().into_value(), "{[A: int, B: int]}").unwrap();
        let interpreted = s
            .eval_one(&format!("select x where x <- r with x.A > {k};"))
            .unwrap()
            .value;
        let native = r.select(|v| matches!(v, Value::Record(fs) if matches!(fs.get("A"), Some(Value::Int(a)) if *a > k)));
        prop_assert_eq!(interpreted, native.into_value());
    }
}
