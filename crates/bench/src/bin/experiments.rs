//! Regenerate the paper-vs-measured comparison of EXPERIMENTS.md:
//! every figure's inferred types and query results, printed side by side
//! with the paper's output.
//!
//! ```sh
//! cargo run -p machiavelli-bench --bin experiments
//! ```

use machiavelli::value::show_value;
use machiavelli::Session;
use machiavelli_bench::{fig2_session, university_session, FIG5_POLY_SOURCE, FIG5_SOURCE};
use machiavelli_oodb::UniversityParams;

struct Report {
    failures: usize,
}

impl Report {
    fn check(&mut self, what: &str, paper: &str, measured: &str, matches: bool) {
        let status = if matches { "OK " } else { "DIFF" };
        println!("[{status}] {what}");
        println!("       paper    : {paper}");
        println!("       measured : {measured}");
        if !matches {
            self.failures += 1;
        }
    }

    fn exact(&mut self, what: &str, paper_and_expected: &str, measured: &str) {
        let matches = paper_and_expected == measured;
        self.check(what, paper_and_expected, measured, matches);
    }
}

fn as_card(v: &machiavelli::value::Value) -> usize {
    match v {
        machiavelli::value::Value::Set(s) => s.len(),
        _ => 0,
    }
}

fn main() {
    let mut r = Report { failures: 0 };

    println!("== E0: introduction — Wealthy ==");
    let mut s = Session::new();
    let out = s
        .eval_one("fun Wealthy(S) = select x.Name where x <- S with x.Salary > 100000;")
        .unwrap();
    r.exact(
        "Wealthy type",
        "{[(\"a) Name:\"b,Salary:int]} -> {\"b}",
        &out.scheme.show(),
    );
    let out = s
        .eval_one(
            r#"Wealthy({[Name = "Joe", Salary = 22340],
                        [Name = "Fred", Salary = 123456],
                        [Name = "Helen", Salary = 132000]});"#,
        )
        .unwrap();
    r.exact(
        "Wealthy result",
        r#"{"Fred", "Helen"}"#,
        &show_value(&out.value),
    );

    println!("\n== E1: Figure 1 ==");
    let out = s
        .eval_one(
            "fun phone(x) = (case x.Status of Employee of y => y.Extension,
                                              Consultant of y => y.Telephone);",
        )
        .unwrap();
    r.check(
        "phone type (paper names variables differently; α-equivalent)",
        "[('a) Status:<Employee:[('b) Extension:'d], Consultant:[('c) Telephone:'d]>] -> 'd",
        &out.scheme.show(),
        out.scheme.show()
            == "[('a) Status:<Consultant:[('b) Telephone:'c],Employee:[('d) Extension:'c]>] -> 'c",
    );
    s.run(
        r#"val joe = [Name="Joe", Age=21,
                        Status=(Consultant of [Address="Philadelphia", Telephone=2221234])];"#,
    )
    .unwrap();
    let out = s.eval_one("phone(joe);").unwrap();
    r.exact("phone(joe)", "2221234", &show_value(&out.value));
    let out = s
        .eval_one("fun increment_age(x) = modify(x, Age, x.Age + 1);")
        .unwrap();
    r.exact(
        "increment_age type",
        "[('a) Age:int] -> [('a) Age:int]",
        &out.scheme.show(),
    );

    println!("\n== E9: §3.3 — Join3 conditional scheme ==");
    let out = s
        .eval_one("fun Join3(x,y,z) = join(x, join(y,z));")
        .unwrap();
    r.exact(
        "Join3 conditional scheme",
        "(\"a * \"b * \"c) -> \"d where { \"d = \"a lub \"e, \"e = \"b lub \"c }",
        &out.scheme.show(),
    );
    let out = s
        .eval_one(r#"Join3([Name="Joe"],[Age=21],[Office=27]);"#)
        .unwrap();
    r.exact(
        "Join3 application (canonical field order)",
        r#"[Age=21, Name="Joe", Office=27]"#,
        &show_value(&out.value),
    );
    let out = s.eval_one("project(it, [Name: string]);").unwrap();
    r.exact("projection", r#"[Name="Joe"]"#, &show_value(&out.value));

    println!("\n== E2/E3: Figures 2 and 3 ==");
    let mut s = fig2_session();
    let ty = s.type_of("parts;").unwrap();
    r.exact(
        "parts type (canonical field order)",
        "{[P#:int,Pinfo:<BasePart:[Cost:int],CompositePart:[AssemCost:int,SubParts:{[P#:int,Qty:int]}]>,Pname:string]}",
        &ty,
    );
    let out = s
        .eval_one("select x.Pname where x <- join(parts, {[Pinfo=(BasePart of [])]}) with true;")
        .unwrap();
    r.exact("base parts", r#"{"bolt", "nut"}"#, &show_value(&out.value));
    s.run("fun Join3(x,y,z) = join(x, join(y,z));").unwrap();
    let out = s
        .eval_one(
            r#"select x.Pname
               where x <- join(parts, supplied_by)
               with Join3(x.Suppliers, suppliers, {[Sname="Baker"]}) <> {};"#,
        )
        .unwrap();
    r.exact(
        "parts supplied by Baker (paper shows {\"bolt\", ...})",
        r#"{"bolt", "engine"}"#,
        &show_value(&out.value),
    );

    println!("\n== E4: Figure 4 — transitive closure ==");
    let s2 = Session::new();
    r.check(
        "Closure type (paper: {[A:\"a,B:\"b]} -> ...; its own x.B = y.A equates \"a and \"b)",
        "{[A:\"a,B:\"b]} -> {[A:\"a,B:\"b]}",
        &s2.scheme_of("Closure").unwrap().show(),
        s2.scheme_of("Closure").unwrap().show() == "{[A:\"a,B:\"a]} -> {[A:\"a,B:\"a]}",
    );

    println!("\n== E5: Figure 5 — cost and expensive_parts ==");
    let mut s = fig2_session();
    s.run(FIG5_SOURCE).unwrap();
    s.run(FIG5_POLY_SOURCE).unwrap();
    let out = s.eval_one("expensive_parts(parts, 1000);").unwrap();
    r.exact(
        "expensive_parts(parts, 1000) (paper: {\"engine\", ...})",
        r#"{"engine"}"#,
        &show_value(&out.value),
    );
    let out = s
        .eval_one("cost([Pinfo=(BasePart of [Cost=5]), Pname=\"b\", P#=1]);")
        .unwrap();
    r.exact("cost of a base part", "5", &show_value(&out.value));

    println!("\n== E7/E8: Figures 8 and 9 — views ==");
    let (mut s, uni) = university_session(UniversityParams {
        n_people: 100,
        seed: 2026,
        ..Default::default()
    });
    let counts = [
        ("PersonView", uni.objects.len()),
        ("EmployeeView", uni.count_employees()),
        ("StudentView", uni.count_students()),
        ("TFView", uni.count_tfs()),
    ];
    for (view, expected) in counts {
        let out = s.eval_one(&format!("card({view}(persons));")).unwrap();
        r.exact(
            &format!("{view} extent (vs generator ground truth)"),
            &expected.to_string(),
            &show_value(&out.value),
        );
    }
    let both = uni.roles.iter().filter(|x| x.0 && x.1).count();
    let out = s
        .eval_one("card(join(StudentView(persons), EmployeeView(persons)));")
        .unwrap();
    r.exact(
        "join of views = extent intersection",
        &both.to_string(),
        &show_value(&out.value),
    );
    let either = uni.roles.iter().filter(|x| x.0 || x.1).count();
    let out = s
        .eval_one("card(unionc(StudentView(persons), EmployeeView(persons)));")
        .unwrap();
    r.exact(
        "unionc of views = extent union",
        &either.to_string(),
        &show_value(&out.value),
    );

    println!("\n== E11: comprehension planner — plan shapes and agreement ==");
    {
        use machiavelli::eval::set_planner_enabled;
        let (mut s, _db) = machiavelli_bench::scaled_parts_session(400, 40, 11);
        let join_query = "select (p.Pname, sb.P#) where p <- parts, sb <- supplied_by \
                          with p.P# = sb.P#;";
        let tree = s.plan_of(join_query).unwrap();
        println!("{tree}");
        r.check(
            "fig9-shape equi-join plans as hash build/probe",
            "plan contains a HashJoin node",
            if tree.contains("HashJoin") {
                "HashJoin"
            } else {
                "missing"
            },
            tree.contains("HashJoin"),
        );
        let fallback = s
            .plan_of("select x where x <- parts with not(member(x, parts));")
            .unwrap();
        r.check(
            "unsafe predicate falls back to select_loop",
            "Fallback (select_loop): …",
            &fallback,
            fallback.starts_with("Fallback (select_loop)"),
        );
        // Store off: E11 isolates the planner's build/probe win over
        // the nested loop; index *reuse* is measured separately in E12.
        let timed = |s: &mut Session, on: bool, query: &str| {
            let prev = set_planner_enabled(on);
            let prev_store = machiavelli::store::set_store_enabled(false);
            let t0 = std::time::Instant::now();
            let out = s.eval_one(query).unwrap().value;
            let dt = t0.elapsed();
            machiavelli::store::set_store_enabled(prev_store);
            set_planner_enabled(prev);
            (out, dt)
        };
        let (planned, t_plan) = timed(&mut s, true, join_query);
        let (interpreted, t_interp) = timed(&mut s, false, join_query);
        r.check(
            "planner and select_loop agree on the equi-join",
            &format!("{} rows", as_card(&interpreted)),
            &format!("{} rows", as_card(&planned)),
            planned == interpreted,
        );
        let speedup = t_interp.as_secs_f64() / t_plan.as_secs_f64().max(1e-9);
        r.check(
            "hash build/probe beats the nested loop at n=400",
            "≥ 5×",
            &format!("{speedup:.1}× ({t_interp:.2?} vs {t_plan:.2?})"),
            speedup >= 5.0,
        );
    }

    println!("\n== E12: index store — repeated-plan reuse (fig5 cost recursion) ==");
    {
        use machiavelli::eval::set_planner_enabled;
        use machiavelli::store::set_store_enabled;
        let (mut s, _db) = machiavelli_bench::scaled_parts_session(200, 20, 11);
        s.run(machiavelli_bench::FIG5_SOURCE).unwrap();
        let query = "expensive_parts(parts, 0);";
        let reps = 3u32;
        let timed = |s: &mut Session, planner: bool, store: bool| {
            let prev_p = set_planner_enabled(planner);
            let prev_s = set_store_enabled(store);
            s.store_reset();
            let t0 = std::time::Instant::now();
            let mut out = None;
            for _ in 0..reps {
                out = Some(s.eval_one(query).unwrap().value);
            }
            let dt = t0.elapsed();
            set_store_enabled(prev_s);
            set_planner_enabled(prev_p);
            (out.unwrap(), dt)
        };
        let (v_store, t_store) = timed(&mut s, true, true);
        let stats = s.store_stats();
        let (v_rebuild, t_rebuild) = timed(&mut s, true, false);
        let (v_interp, t_interp) = timed(&mut s, false, false);
        r.check(
            "store, always-rebuild and select_loop agree",
            &format!("{} parts", as_card(&v_interp)),
            &format!("{} / {} parts", as_card(&v_store), as_card(&v_rebuild)),
            v_store == v_interp && v_rebuild == v_interp,
        );
        r.check(
            "the whole recursive sweep builds the parts index once",
            "1 build, hits ≥ 1",
            &format!("{} builds, {} hits", stats.builds, stats.hits),
            stats.builds == 1 && stats.hits >= 1,
        );
        let vs_interp = t_interp.as_secs_f64() / t_store.as_secs_f64().max(1e-9);
        let vs_rebuild = t_rebuild.as_secs_f64() / t_store.as_secs_f64().max(1e-9);
        println!(
            "       rebuild-vs-store : {vs_rebuild:.1}× ({t_rebuild:.2?} vs {t_store:.2?}, {reps} reps)"
        );
        r.check(
            "repeated fig5 eval beats the cold interpreted path",
            "≥ 3×",
            &format!("{vs_interp:.1}× ({t_interp:.2?} vs {t_store:.2?})"),
            vs_interp >= 3.0,
        );
    }

    println!("\n== E13: plain lane — plain-keyed join + par_hom folds ==");
    {
        use machiavelli::eval::set_planner_enabled;
        use machiavelli::value::{tuning, Value};
        let _ = set_planner_enabled(true);
        let n = 20_000usize;
        let rows = |offset: usize| {
            Value::set((0..n).map(|i| {
                Value::record([
                    ("K".into(), Value::Int((i + offset) as i64)),
                    ("A".into(), Value::Int(i as i64)),
                ])
            }))
        };
        let mut s = Session::new();
        s.bind_external("r", rows(0), "{[K: int, A: int]}").unwrap();
        s.bind_external("t", rows(n - n / 8), "{[K: int, A: int]}")
            .unwrap();
        s.bind_external(
            "big",
            Value::set((0..n).map(|i| Value::Int(i as i64))),
            "{int}",
        )
        .unwrap();
        let join_q = "card(select (x.A, y.A) where x <- r, y <- t with x.K = y.K);";
        let timed = |s: &mut Session, query: &str, par: Option<usize>| {
            // The store would serve the repeat builds and bypass the
            // lane; disable it so seq-vs-par compare the same work.
            let prev_store = machiavelli::store::set_store_enabled(false);
            let prev_on = tuning::set_parallel_enabled(par.is_some());
            let prev_t = tuning::set_par_threads(par);
            let t0 = std::time::Instant::now();
            let out = s.eval_one(query).unwrap().value;
            let dt = t0.elapsed();
            tuning::set_par_threads(prev_t);
            tuning::set_parallel_enabled(prev_on);
            machiavelli::store::set_store_enabled(prev_store);
            (out, dt)
        };
        // `card` over the join result is itself a proper hom, so one
        // parallel evaluation exercises both halves of the lane.
        tuning::reset_par_stats();
        let (v_seq, t_seq) = timed(&mut s, join_q, None);
        let (v_par, t_par) = timed(&mut s, join_q, Some(4));
        r.check(
            "parallel and sequential join+fold agree",
            &show_value(&v_seq),
            &show_value(&v_par),
            v_par == v_seq,
        );
        let join_speedup = t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9);
        println!(
            "       join seq-vs-par4 : {join_speedup:.2}x ({t_seq:.2?} vs {t_par:.2?}, n={n}; \
             1-core CI runners make this informational — BENCH_PR4.json holds the bar)"
        );
        let (v_hseq, _) = timed(&mut s, "sum(big);", None);
        let (v_hpar, _) = timed(&mut s, "sum(big);", Some(4));
        r.check(
            "par_hom-backed sum agrees",
            &show_value(&v_hseq),
            &show_value(&v_hpar),
            v_hpar == v_hseq,
        );
        let stats = tuning::par_stats();
        r.check(
            "the lane actually engaged (join + hom hits, no fallbacks)",
            "par_joins ≥ 1, par_homs ≥ 1, 0 fallbacks",
            &format!(
                "{} joins, {} homs, {} + {} fallbacks",
                stats.par_joins, stats.par_homs, stats.par_join_fallbacks, stats.par_hom_fallbacks
            ),
            stats.par_joins >= 1
                && stats.par_homs >= 1
                && stats.par_join_fallbacks == 0
                && stats.par_hom_fallbacks == 0,
        );
    }

    println!("\n== E14: composed lane — cached indexes under writes + plain probes ==");
    {
        use machiavelli::eval::set_planner_enabled;
        use machiavelli::value::{tuning, Value};
        let _ = set_planner_enabled(true);

        // Part A — cache survival: the repeated fig5 `cost` sweep mixed
        // with ref writes to an *unrelated* relation. Under PR 4's
        // epoch contract every write dropped the whole store (one
        // rebuild per write); dependency-tracked invalidation must keep
        // the `parts` index warm through all of them.
        let (mut s, _db) = machiavelli_bench::scaled_parts_session(120, 12, 11);
        s.run(machiavelli_bench::FIG5_SOURCE).unwrap();
        s.run("val side = ref({[K=0]});").unwrap();
        s.store_reset();
        let first = s.eval_one("expensive_parts(parts, 0);").unwrap().value;
        let mut stable = true;
        for i in 0..4 {
            s.eval_one(&format!("side := {{[K={i}]}};")).unwrap();
            let again = s.eval_one("expensive_parts(parts, 0);").unwrap().value;
            stable = stable && again == first;
        }
        let stats = s.store_stats();
        r.check(
            "the parts index survives every unrelated ref write",
            "1 build, 0 invalidated, 0 cleared (PR 4 evicted all)",
            &format!(
                "{} builds, {} invalidated, {} cleared, results stable: {stable}",
                stats.builds, stats.invalidated, stats.cleared
            ),
            stats.builds == 1 && stats.invalidated == 0 && stats.cleared == 0 && stable,
        );

        // Part B — the composed store+plain path: a fig9-shaped join
        // served from the warm store, probed sequentially vs on the
        // plain lane (four threads configured), interleaved with more
        // unrelated writes.
        let n = 20_000usize;
        let rows = |offset: usize| {
            Value::set((0..n).map(|i| {
                Value::record([
                    ("K".into(), Value::Int((i + offset) as i64)),
                    ("A".into(), Value::Int(i as i64)),
                ])
            }))
        };
        let mut s = Session::new();
        s.bind_external("r", rows(0), "{[K: int, A: int]}").unwrap();
        s.bind_external("t", rows(n - n / 8), "{[K: int, A: int]}")
            .unwrap();
        s.run("val side = ref(0);").unwrap();
        s.store_reset();
        let q = "card(select (x.A, y.A) where x <- r, y <- t with x.K = y.K);";
        let timed = |s: &mut Session, par: Option<usize>| {
            let prev_on = tuning::set_parallel_enabled(par.is_some());
            let prev_t = tuning::set_par_threads(par);
            let prev_probe = tuning::set_par_min_rows(Some(1));
            let t0 = std::time::Instant::now();
            let out = s.eval_one(q).unwrap().value;
            let dt = t0.elapsed();
            tuning::set_par_min_rows(prev_probe);
            tuning::set_par_threads(prev_t);
            tuning::set_parallel_enabled(prev_on);
            (out, dt)
        };
        let (v_cold, _) = timed(&mut s, None);
        s.eval_one("side := 1;").unwrap();
        tuning::reset_par_stats();
        let (v_seq, t_seq) = timed(&mut s, None);
        s.eval_one("side := 2;").unwrap();
        let (v_par, t_par) = timed(&mut s, Some(4));
        r.check(
            "cached sequential and cached plain probes agree across writes",
            &show_value(&v_cold),
            &format!("{} / {}", show_value(&v_seq), show_value(&v_par)),
            v_seq == v_cold && v_par == v_cold,
        );
        let stats = s.store_stats();
        let ps = tuning::par_stats();
        r.check(
            "one build serves every probe; the plain probe engaged",
            "1 build, ≥ 2 hits, par_probes ≥ 1, 0 probe fallbacks",
            &format!(
                "{} builds, {} hits, {} par_probes, {} fallbacks",
                stats.builds, stats.hits, ps.par_probes, ps.par_probe_fallbacks
            ),
            stats.builds == 1
                && stats.hits >= 2
                && ps.par_probes >= 1
                && ps.par_probe_fallbacks == 0,
        );
        let probe_speedup = t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9);
        println!(
            "       cached probe seq-vs-par4 : {probe_speedup:.2}x ({t_seq:.2?} vs {t_par:.2?}, \
             n={n}; 1-core CI runners make this informational — BENCH_PR5.json holds the bar)"
        );
    }

    println!("\n== E10: §5 — unionc equation, member, dynamics ==");
    let mut s = Session::new();
    let lhs = s
        .eval_one(r#"unionc({[Name="a", Advisor=1]}, {[Name="b", Salary=9]});"#)
        .unwrap();
    let rhs = s
        .eval_one(
            r#"union(project({[Name="a", Advisor=1]}, {[Name: string]}),
                     project({[Name="b", Salary=9]}, {[Name: string]}));"#,
        )
        .unwrap();
    r.check(
        "unionc equation: union(s1,s2) = project(s1,⊓) ∪ project(s2,⊓)",
        &show_value(&rhs.value),
        &show_value(&lhs.value),
        lhs.value == rhs.value,
    );
    let out = s.eval_one("dynamic([A=1]) = dynamic([A=1]);").unwrap();
    r.exact(
        "dynamics equal only per creation",
        "false",
        &show_value(&out.value),
    );

    println!();
    if r.failures == 0 {
        println!("all experiments reproduce the paper (modulo documented display conventions)");
    } else {
        println!("{} experiment(s) diverged", r.failures);
        std::process::exit(1);
    }
}
