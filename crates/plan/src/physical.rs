//! The physical operator pipeline: an executable tree of `Scan` /
//! `IndexScan` / `Filter` / `HashJoin` / `NestedLoop` operators under a
//! `Project`, plus a pull-based executor over [`Value`]/[`MSet`].
//!
//! Operators yield **environments**: each pulled row is the outer
//! evaluation environment extended with one binding per generator
//! (environments are persistent linked lists, so extension is O(1) and
//! shares all tails). Expression evaluation — sources, filters, keys,
//! the result — goes through the [`EvalHook`] callback into the real
//! evaluator, so the pipeline adds strategy, never new semantics.
//!
//! Hash-join and index-scan keys reuse the structural hashing of
//! [`machiavelli_value::hash_value`] with [`value_eq`] equality (the
//! store's [`KeyTuple`]), exactly like the relational substrate's
//! `RowKey` — collision-correct for all description values, no
//! rendering, no reliance on display injectivity.
//!
//! # The index store
//!
//! Operators that group a relation by key — `HashJoin`'s build table,
//! `IndexScan`'s key index — request the grouping from the session's
//! [`machiavelli_store::IndexStore`] before constructing it inline, so
//! repeated plans over the same relation (the fig5 `cost` recursion,
//! re-run REPL queries) build once and probe thereafter. An index is
//! only *cacheable* when its key and pushed-filter expressions are
//! closed under the row binder ([`crate::analysis::closed_under`]) —
//! then its contents are a pure function of the relation's storage
//! identity and the expressions' text (the **fingerprint**), never of
//! the enclosing environment. Groupings hold **row indices** into the
//! relation's canonical slice; the store re-represents fully plain
//! relations in `Send + Sync` form, which is what lets a *cached*
//! index serve the parallel probe (see the parallel execution contract
//! in the crate docs) — and a two-generator join may flip its build
//! side toward an already-cached (or smaller) relation at open
//! ([`SwapInfo`]). Cache consultation is invisible in the results: a
//! hit returns exactly the grouping an inline build would have
//! produced (same rows, same canonical order per group), and the
//! expressions skipped on a hit are planner-safe — pure and total — so
//! not re-evaluating them is unobservable. See `machiavelli-store` for
//! the invalidation contract (pointer-identity keying + dirty-ref
//! tracking).

use crate::analysis::{closed_under, is_safe_expr, mentions_any, stable_source, Conjunct};
use crate::logical::LogicalPlan;
use crate::parallel::{
    build_plain_index, extract_key, par_evaluable, plain_binop, plain_eval, probe_plain,
    PlainBindings, ValueBindings, WorkerCx, CHUNK_TICK_MASK,
};
use machiavelli_exec as exec;
use machiavelli_store::{store_enabled, with_store, CachedIndex, Index, KeyTuple};
use machiavelli_syntax::ast::{BinOp, Expr, ExprKind};
use machiavelli_syntax::pretty::expr_to_string;
use machiavelli_syntax::symbol::Symbol;
use machiavelli_trace::{self as trace, DeclineReason};
use machiavelli_value::plain::{ColumnarRelation, PlainIndex, PlainKey, PlainValue};
use machiavelli_value::tuning::{
    note_offload, note_par_join, note_par_probe, par_min_rows, par_threads, parallel_enabled,
};
use machiavelli_value::{show_value, value_eq, Env, MSet, Value};
use std::rc::Rc;
use std::sync::Arc;

/// Callback into the host evaluator. The executor never interprets
/// expressions itself; it only decides *which* expressions to evaluate
/// *in which* environments.
pub trait EvalHook {
    type Error;
    fn eval(&mut self, env: &Env, expr: &Expr) -> Result<Value, Self::Error>;
}

/// Executor errors: either the hook failed, or a value had the wrong
/// shape at an operator boundary (mirroring the evaluator's own errors
/// so the dispatch layer can convert losslessly).
#[derive(Debug)]
pub enum ExecError<E> {
    /// The evaluator callback failed (raised, unbound, …).
    Eval(E),
    /// A generator source evaluated to a non-set (rendered value).
    NotASet(String),
    /// A strict conjunct (left operand of `andalso`) evaluated to a
    /// non-boolean (rendered value).
    NotABool(String),
    /// The governing [`machiavelli_value::governor::QueryGuard`]
    /// stopped the pipeline (checked after every parallel fan-out and
    /// inside worker chunk loops). Non-generic: the guard is outside
    /// the hook's error space.
    Interrupted(machiavelli_value::governor::Trip),
    /// A parallel worker panicked; caught at the lane boundary and
    /// reported as an error instead of unwinding through the session.
    WorkerPanic(String),
}

impl<E> From<E> for ExecError<E> {
    fn from(e: E) -> Self {
        ExecError::Eval(e)
    }
}

/// Render a caught panic payload (the common `&str`/`String` cases;
/// anything else gets a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Run a parallel driver under the lane's panic trap. A worker panic
/// (injected or real) resumes on the coordinator inside `f`; trapping
/// it here turns a would-be session abort into
/// [`ExecError::WorkerPanic`]. After a clean return the (sticky) query
/// guard is re-checked: workers bail early with truncated results when
/// the guard trips mid-fan-out, so a trip must surface as
/// [`ExecError::Interrupted`] before the result can be used.
fn run_par<T, E>(f: impl FnOnce() -> T) -> Result<T, ExecError<E>> {
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|payload| ExecError::WorkerPanic(panic_message(payload.as_ref())))?;
    if let Some(trip) = machiavelli_value::governor::check_current() {
        return Err(ExecError::Interrupted(trip));
    }
    Ok(out)
}

/// Static eligibility of a [`PhysOp::HashJoin`] for the plain-keyed
/// lane. Present iff the **probe keys** are [`par_evaluable`] under the
/// earlier binders — enough for the plain probe of a *cached* plain
/// index, which needs no build-side evaluation at all. `build_ok`
/// additionally records whether the build keys and pushed filters are
/// `par_evaluable` under the build binder — what an uncached build
/// needs to be keyed into a local plain table. Carries the probe
/// binders the keys actually mention, so the executor extracts only
/// those per input row.
#[derive(Debug)]
pub struct ParInfo {
    pub probe_vars: Vec<Symbol>,
    pub build_ok: bool,
}

/// Static swappability of a two-generator equi-join: the planner keeps
/// generator order, but when the *first* generator's side already has a
/// live cached index — or is the smaller relation while neither side is
/// cached — building on it instead is a pure physical flip. Computed in
/// [`LogicalPlan::physical`] only when the flip is unobservable: both
/// sources independent, the first lowered to a bare `Scan`, the would-be
/// build keys and filters closed under the first binder (so the swapped
/// build is cacheable under `fingerprint`), and the comprehension's
/// result expression planner-safe (a swap enumerates bindings
/// probe-major over the *other* side, so an effectful result could
/// observe the order change; a safe result cannot). The decision itself
/// is taken at open time from store metadata; `explain` renders the
/// prediction as `HashJoin[idx cached, swapped]`.
#[derive(Debug)]
pub struct SwapInfo {
    /// Store fingerprint of the swapped-orientation build table (over
    /// the first generator's relation, keyed by the probe expressions).
    pub fingerprint: String,
    /// Parallel eligibility of the swapped orientation's probe side
    /// (the original build keys under the join binder).
    pub par: Option<ParInfo>,
}

/// One key of an [`PhysOp::IndexScan`]: an equality conjunct
/// `on = probe` split into the indexed side (mentions only the scan's
/// binder) and the probe side (an environment-level expression that
/// mentions the binder not at all).
#[derive(Debug)]
pub struct IndexKey<'a> {
    pub on: &'a Expr,
    pub probe: &'a Expr,
}

/// A physical operator. The tree is left-deep in generator order:
/// generator 0 is the innermost `Scan`/`IndexScan`, each later
/// generator wraps the pipeline in a join operator, and residual
/// conjuncts sit in `Filter` nodes at the level where they become
/// decidable.
#[derive(Debug)]
pub enum PhysOp<'a> {
    /// Materialize an independent source once and stream its elements,
    /// binding `var` (pushed-down conjuncts applied per element).
    Scan {
        var: Symbol,
        source: &'a Expr,
        filters: Vec<Conjunct<'a>>,
    },
    /// Equality-probe scan: group the source by the `on` key
    /// expressions (through the index store), evaluate the `probe`
    /// sides once in the outer environment, and stream only the
    /// matching group. Formed only when the keys are cacheable, so it
    /// always carries a fingerprint.
    IndexScan {
        var: Symbol,
        source: &'a Expr,
        keys: Vec<IndexKey<'a>>,
        filters: Vec<Conjunct<'a>>,
        fingerprint: String,
    },
    /// Cross/“θ” join: for each input row, iterate the source — evaluated
    /// once when independent, per input row when `dependent`.
    NestedLoop {
        input: Box<PhysOp<'a>>,
        var: Symbol,
        source: &'a Expr,
        dependent: bool,
        filters: Vec<Conjunct<'a>>,
    },
    /// Hash build/probe equi-join: build a table over the (independent)
    /// source keyed by `build_keys(var)`, then probe with
    /// `probe_keys(earlier binders)` per input row. `fingerprint` is
    /// `Some` when the build table is cacheable in the index store
    /// (build keys and pushed filters closed under `var`).
    HashJoin {
        input: Box<PhysOp<'a>>,
        var: Symbol,
        source: &'a Expr,
        filters: Vec<Conjunct<'a>>,
        probe_keys: Vec<&'a Expr>,
        build_keys: Vec<&'a Expr>,
        fingerprint: Option<String>,
        /// `Some` when the join's probe side is statically eligible for
        /// the plain-keyed lane (see the parallel execution contract in
        /// the crate docs): a *cached plain* build table is then probed
        /// with extracted keys; `par.build_ok` additionally keys an
        /// uncached build into a local plain table. At open time the
        /// lane must be enabled and every key must extract to plain
        /// data; the probe fans out over worker threads only with >1
        /// configured and a probe side over
        /// [`machiavelli_value::tuning::par_min_rows`].
        par: Option<ParInfo>,
        /// `Some` when the build side may be flipped to the first
        /// generator at open time (see [`SwapInfo`]).
        swap: Option<SwapInfo>,
    },
    /// Residual predicate evaluation over input rows.
    Filter {
        input: Box<PhysOp<'a>>,
        conjuncts: Vec<Conjunct<'a>>,
    },
}

/// The full pipeline: operator tree plus the projected result.
#[derive(Debug)]
pub struct PhysicalPlan<'a> {
    pub root: PhysOp<'a>,
    pub result: &'a Expr,
}

/// The static trace-span label of one operator: the `explain` line
/// minus the display-level markers — a span records the lane and cache
/// outcome that *actually happened* as separate fields, so the label
/// carries only what is fixed at plan time. Only built while a trace is
/// active (the span API takes it as a closure).
fn op_label(op: &PhysOp<'_>) -> String {
    use crate::explain::{filters_suffix, keys_list};
    match op {
        PhysOp::Scan {
            var,
            source,
            filters,
        } => scan_label(*var, source, filters),
        PhysOp::IndexScan {
            var,
            source,
            keys,
            filters,
            ..
        } => {
            let rendered: Vec<String> = keys
                .iter()
                .map(|IndexKey { on, probe }| {
                    format!("{} = {}", expr_to_string(on), expr_to_string(probe))
                })
                .collect();
            format!(
                "IndexScan {var} <- {} key({}){}",
                expr_to_string(source),
                rendered.join(", "),
                filters_suffix(filters)
            )
        }
        PhysOp::NestedLoop {
            var,
            source,
            dependent,
            filters,
            ..
        } => {
            let dep = if *dependent { " (dependent)" } else { "" };
            format!(
                "NestedLoop {var} <- {}{dep}{}",
                expr_to_string(source),
                filters_suffix(filters)
            )
        }
        PhysOp::HashJoin {
            probe_keys,
            build_keys,
            ..
        } => format!(
            "HashJoin probe({}) build({})",
            keys_list(probe_keys),
            keys_list(build_keys)
        ),
        PhysOp::Filter { conjuncts, .. } => {
            let rendered: Vec<String> = conjuncts.iter().map(|c| expr_to_string(c.expr)).collect();
            format!("Filter ({})", rendered.join(" andalso "))
        }
    }
}

/// [`op_label`] for a scan opened outside [`Node::open`]'s dispatch (the
/// hash-join arms destructure their probe `Scan` and open it directly).
fn scan_label(var: Symbol, source: &Expr, filters: &[Conjunct<'_>]) -> String {
    format!(
        "Scan {var} <- {}{}",
        expr_to_string(source),
        crate::explain::filters_suffix(filters)
    )
}

/// Recognize an [`IndexKey`]-shaped conjunct of a single-binder scan:
/// `on = probe` with `on` mentioning only `var` and `probe` not
/// mentioning it (either orientation). Equality is total on all values,
/// so replacing the conjunct by an index probe can neither raise nor
/// change which rows pass.
fn index_key(e: &Expr, var: Symbol) -> Option<IndexKey<'_>> {
    let ExprKind::Binop {
        op: BinOp::Eq,
        left,
        right,
    } = &e.kind
    else {
        return None;
    };
    let binder = [var];
    let is_on = |e: &Expr| mentions_any(e, &binder) && closed_under(e, &binder);
    let is_probe = |e: &Expr| !mentions_any(e, &binder);
    if is_on(left) && is_probe(right) {
        Some(IndexKey {
            on: left,
            probe: right,
        })
    } else if is_on(right) && is_probe(left) {
        Some(IndexKey {
            on: right,
            probe: left,
        })
    } else {
        None
    }
}

/// Render a binder-closed key/filter expression with the binder printed
/// as `_`, so alpha-equivalent queries (`y <- t with … y.K …` vs
/// `z <- t with … z.K …`) produce the *same* fingerprint and share one
/// cached index instead of building the identical grouping twice.
/// Covers exactly the planner-safe class (the only expressions that
/// reach fingerprints); fully parenthesized and with string literals
/// escaped, so the rendering is injective on that class.
fn push_key_expr(e: &Expr, binder: Symbol, out: &mut String) {
    use std::fmt::Write as _;
    use ExprKind::*;
    match &e.kind {
        Var(x) if x.id() == binder.id() => out.push('_'),
        // Closed-under-binder expressions have no other variables; kept
        // for totality (`explain` never calls this on open exprs).
        Var(x) => out.push_str(x.as_str()),
        Unit => out.push_str("()"),
        Int(n) => {
            let _ = write!(out, "{n}");
        }
        // Bit pattern, to agree with `total_cmp`/hash equality on reals.
        Real(r) => {
            let _ = write!(out, "real:{}", r.to_bits());
        }
        Str(s) => {
            let _ = write!(out, "{s:?}");
        }
        Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Field { expr, label } => {
            push_key_expr(expr, binder, out);
            out.push('.');
            out.push_str(label.as_str());
        }
        If {
            cond,
            then_branch,
            else_branch,
        } => {
            out.push_str("(if ");
            push_key_expr(cond, binder, out);
            out.push_str(" then ");
            push_key_expr(then_branch, binder, out);
            out.push_str(" else ");
            push_key_expr(else_branch, binder, out);
            out.push(')');
        }
        Record(fields) => {
            out.push('[');
            for (i, (l, fe)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(l.as_str());
                out.push('=');
                push_key_expr(fe, binder, out);
            }
            out.push(']');
        }
        Set(items) => {
            out.push('{');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_key_expr(item, binder, out);
            }
            out.push('}');
        }
        Union { left, right } | Con { left, right } => {
            out.push_str(if matches!(&e.kind, Union { .. }) {
                "union("
            } else {
                "con("
            });
            push_key_expr(left, binder, out);
            out.push_str(", ");
            push_key_expr(right, binder, out);
            out.push(')');
        }
        Binop { op, left, right } => {
            out.push('(');
            push_key_expr(left, binder, out);
            let _ = write!(out, " {} ", op.symbol());
            push_key_expr(right, binder, out);
            out.push(')');
        }
        Unop { op, expr } => {
            out.push('(');
            out.push_str(match op {
                machiavelli_syntax::ast::UnOp::Neg => "-",
                machiavelli_syntax::ast::UnOp::Not => "not ",
            });
            push_key_expr(expr, binder, out);
            out.push(')');
        }
        // Not planner-safe, so never fingerprinted; render via the
        // pretty-printer for totality.
        _ => out.push_str(&expr_to_string(e)),
    }
}

/// The store fingerprint of an index-scan grouping: the rendered
/// source and (alpha-normalized) key expressions. The executor's cache
/// key already includes the relation's storage identity; the source
/// text is in the fingerprint so the *display* probe (`explain`'s
/// `[idx cached]` marker, which cannot evaluate the source) rarely
/// aliases two different relations.
fn scan_fingerprint(source: &Expr, var: Symbol, keys: &[IndexKey<'_>]) -> String {
    let mut out = format!("scan {} key(", expr_to_string(source));
    for (i, k) in keys.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_key_expr(k.on, var, &mut out);
    }
    out.push(')');
    out
}

/// The store fingerprint of a hash-join build table: rendered source
/// plus (alpha-normalized) build keys plus the pushed filters baked
/// into the table.
fn join_fingerprint(
    source: &Expr,
    var: Symbol,
    build_keys: &[&Expr],
    filters: &[Conjunct<'_>],
) -> String {
    let mut out = format!("join {} build(", expr_to_string(source));
    for (i, k) in build_keys.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_key_expr(k, var, &mut out);
    }
    out.push_str(") filter(");
    for (i, c) in filters.iter().enumerate() {
        if i > 0 {
            out.push_str(" andalso ");
        }
        push_key_expr(c.expr, var, &mut out);
    }
    out.push(')');
    out
}

impl<'a> LogicalPlan<'a> {
    /// Lower to the physical operator tree.
    pub fn physical(self) -> PhysicalPlan<'a> {
        let mut steps = self.steps.into_iter();
        let first = steps.next().expect("compile() guarantees ≥1 generator");
        debug_assert!(first.keys.is_empty(), "first generator cannot equi-join");
        // Split the first generator's pushed filters into equality keys
        // an index can answer and ordinary per-row filters. Plain
        // filter shapes (no equality against the environment) stay a
        // `Scan` and never touch the index store — and so do sources
        // that construct fresh storage per evaluation (view calls,
        // literals): their index could never be looked up again, so
        // caching one would only pin dead clones. With the store
        // disabled (ablation mode) everything stays a `Scan`: plans are
        // recompiled per evaluation, so the toggle is always current,
        // and a grouping nothing will reuse is strictly worse than the
        // filtered scan.
        let mut keys: Vec<IndexKey<'a>> = Vec::new();
        let mut filters: Vec<Conjunct<'a>> = Vec::new();
        if store_enabled() && stable_source(first.source) {
            for c in first.filters {
                match index_key(c.expr, first.var) {
                    Some(k) => keys.push(k),
                    None => filters.push(c),
                }
            }
        } else {
            filters = first.filters;
        }
        let mut root = if keys.is_empty() {
            PhysOp::Scan {
                var: first.var,
                source: first.source,
                filters,
            }
        } else {
            let fingerprint = scan_fingerprint(first.source, first.var, &keys);
            PhysOp::IndexScan {
                var: first.var,
                source: first.source,
                keys,
                filters,
                fingerprint,
            }
        };
        if !first.residual.is_empty() {
            root = PhysOp::Filter {
                input: Box::new(root),
                conjuncts: first.residual,
            };
        }
        // Binders of all earlier generators, for probe-side closure
        // analysis (probe keys are expressions over the input rows).
        let mut earlier: Vec<Symbol> = vec![first.var];
        for step in steps {
            root = if !step.keys.is_empty() {
                let build_keys: Vec<&'a Expr> = step.keys.iter().map(|k| k.build).collect();
                let probe_keys: Vec<&'a Expr> = step.keys.iter().map(|k| k.probe).collect();
                // Cacheable iff the table's contents depend on nothing
                // but the relation and the step's own binder, and the
                // source can actually share storage across evaluations
                // (a fresh-storage source can never hit). The
                // store_enabled() guard also skips rendering the
                // fingerprint entirely when nothing will consult it.
                let binder = [step.var];
                let fingerprint = (store_enabled()
                    && stable_source(step.source)
                    && build_keys.iter().all(|k| closed_under(k, &binder))
                    && step.filters.iter().all(|c| closed_under(c.expr, &binder)))
                .then(|| join_fingerprint(step.source, step.var, &build_keys, &step.filters));
                // Plain-lane eligibility. Probe-key coverage by the
                // plain mini-evaluator is enough to probe a *cached*
                // plain index (no build-side evaluation happens at
                // all); keying an uncached build into a local plain
                // table additionally needs the build keys and pushed
                // filters covered under the build binder (`build_ok`) —
                // the same closure discipline the store uses, plus the
                // mini-evaluator's coverage test.
                let par = probe_keys
                    .iter()
                    .all(|k| par_evaluable(k, &earlier))
                    .then(|| ParInfo {
                        probe_vars: earlier
                            .iter()
                            .copied()
                            .filter(|v| {
                                let v = [*v];
                                probe_keys.iter().any(|k| mentions_any(k, &v))
                            })
                            .collect(),
                        build_ok: build_keys.iter().all(|k| par_evaluable(k, &binder))
                            && step.filters.iter().all(|c| par_evaluable(c.expr, &binder)),
                    });
                // Swappability: a two-generator join over a bare first
                // Scan may flip its build side at open time when the
                // flip is unobservable and the swapped build would be
                // cacheable (see [`SwapInfo`]).
                let swap = if earlier.len() == 1 && store_enabled() && is_safe_expr(self.result) {
                    match &root {
                        PhysOp::Scan {
                            var: pvar,
                            source: psource,
                            filters: pfilters,
                        } => {
                            let pbinder = [*pvar];
                            (stable_source(psource)
                                && probe_keys.iter().all(|k| closed_under(k, &pbinder))
                                && pfilters.iter().all(|c| closed_under(c.expr, &pbinder)))
                            .then(|| SwapInfo {
                                fingerprint: join_fingerprint(
                                    psource,
                                    *pvar,
                                    &probe_keys,
                                    pfilters,
                                ),
                                par: build_keys.iter().all(|k| par_evaluable(k, &binder)).then(
                                    || ParInfo {
                                        probe_vars: vec![step.var],
                                        build_ok: false,
                                    },
                                ),
                            })
                        }
                        _ => None,
                    }
                } else {
                    None
                };
                PhysOp::HashJoin {
                    input: Box::new(root),
                    var: step.var,
                    source: step.source,
                    filters: step.filters,
                    probe_keys,
                    build_keys,
                    fingerprint,
                    par,
                    swap,
                }
            } else {
                PhysOp::NestedLoop {
                    input: Box::new(root),
                    var: step.var,
                    source: step.source,
                    dependent: step.dependent,
                    filters: step.filters,
                }
            };
            earlier.push(step.var);
            if !step.residual.is_empty() {
                root = PhysOp::Filter {
                    input: Box::new(root),
                    conjuncts: step.residual,
                };
            }
        }
        PhysicalPlan {
            root,
            result: self.result,
        }
    }
}

/// Run the pipeline in `env`, returning the canonical result set.
/// Independent sources are evaluated exactly once, in generator order;
/// the result expression runs per surviving binding, in the same order
/// the nested-loop semantics would reach it; deduplication happens once
/// at the end.
pub fn execute<H: EvalHook>(
    plan: &PhysicalPlan<'_>,
    env: &Env,
    hook: &mut H,
) -> Result<Value, ExecError<H::Error>> {
    let mut root = Node::open(&plan.root, env, hook)?;
    let mut out = Vec::new();
    while let Some(binding) = root.next(hook)? {
        out.push(hook.eval(&binding, plan.result)?);
    }
    Ok(Value::Set(MSet::from_iter(out)))
}

/// Check one conjunct against a candidate binding. `Ok(true)` accepts,
/// `Ok(false)` rejects; a strict conjunct evaluating to a non-boolean
/// reproduces the evaluator's `andalso` error.
fn check<H: EvalHook>(
    c: &Conjunct<'_>,
    env: &Env,
    hook: &mut H,
) -> Result<bool, ExecError<H::Error>> {
    match hook.eval(env, c.expr)? {
        Value::Bool(b) => Ok(b),
        other if c.strict => Err(ExecError::NotABool(show_value(&other))),
        _ => Ok(false),
    }
}

fn check_all<H: EvalHook>(
    cs: &[Conjunct<'_>],
    env: &Env,
    hook: &mut H,
) -> Result<bool, ExecError<H::Error>> {
    for c in cs {
        if !check(c, env, hook)? {
            return Ok(false);
        }
    }
    Ok(true)
}

fn as_set<E>(v: Value) -> Result<MSet, ExecError<E>> {
    match v {
        Value::Set(s) => Ok(s),
        other => Err(ExecError::NotASet(show_value(&other))),
    }
}

/// Build a hash-join build table: pushed filters prune rows — on the
/// columnar lane when it is live for this relation ([`columnar_filter`]),
/// sequentially otherwise or on a decline — then each surviving row is
/// keyed in the *outer* environment extended with only its own binding
/// (keys mention only this binder). Groups hold **row indices** into
/// the relation's canonical slice, accumulated in source order (each
/// group's list ascends) — the executor re-binds matches by index, and
/// the store can re-represent the whole grouping in plain form without
/// touching the rows again. The columnar survivors are exactly the rows
/// the sequential filters accept (`plain_eval` agrees with the
/// interpreter on the par-evaluable class), so either way the table is
/// the same and sound to cache through the store.
fn build_join_index<H: EvalHook>(
    items: &MSet,
    var: Symbol,
    filters: &[Conjunct<'_>],
    build_keys: &[&Expr],
    stable: bool,
    env: &Env,
    hook: &mut H,
) -> Result<Index, ExecError<H::Error>> {
    let keep = columnar_filter(var, filters, items, stable)?;
    let rows = items.as_slice();
    #[allow(clippy::mutable_key_type)] // refs hash by identity
    let mut table = Index::with_capacity(keep.as_ref().map_or(rows.len(), Vec::len));
    let mut add = |i: u32, row_env: &Env, hook: &mut H| -> Result<(), ExecError<H::Error>> {
        let key = KeyTuple(
            build_keys
                .iter()
                .map(|k| hook.eval(row_env, k))
                .collect::<Result<_, _>>()?,
        );
        table.entry(key).or_default().push(i);
        Ok(())
    };
    match keep {
        Some(keep) => {
            for i in keep {
                add(i, &env.bind(var, rows[i as usize].clone()), hook)?;
            }
        }
        None => {
            for (i, item) in rows.iter().enumerate() {
                let row_env = env.bind(var, item.clone());
                if check_all(filters, &row_env, hook)? {
                    add(i as u32, &row_env, hook)?;
                }
            }
        }
    }
    Ok(table)
}

/// Build an index-scan grouping: the *whole* relation grouped by the
/// `on` key expressions (filters are applied at probe time, so the
/// index is reusable across queries with different residual filters).
fn build_scan_index<H: EvalHook>(
    items: &MSet,
    var: Symbol,
    keys: &[IndexKey<'_>],
    env: &Env,
    hook: &mut H,
) -> Result<Index, ExecError<H::Error>> {
    #[allow(clippy::mutable_key_type)] // refs hash by identity
    let mut table = Index::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let row_env = env.bind(var, item.clone());
        let key = KeyTuple(
            keys.iter()
                .map(|k| hook.eval(&row_env, k.on))
                .collect::<Result<_, _>>()?,
        );
        table.entry(key).or_default().push(i as u32);
    }
    Ok(table)
}

/// Fetch-or-build an index through the store. The hook is never called
/// while the store is borrowed (a nested query evaluated by the hook
/// may consult the store itself), and a build error caches nothing. The
/// store decides the representation: plain (`Send + Sync`,
/// parallel-probable) when the relation extracts, `Rc`-lane otherwise.
#[allow(clippy::mutable_key_type)] // refs hash by identity
fn obtain_index<H: EvalHook>(
    items: &MSet,
    fingerprint: &str,
    build: impl FnOnce(&mut H) -> Result<Index, ExecError<H::Error>>,
    hook: &mut H,
) -> Result<CachedIndex, ExecError<H::Error>> {
    trace::annotate_fingerprint(trace::current_span(), || fingerprint.to_string());
    if !store_enabled() {
        trace::annotate_cache(trace::current_span(), trace::CacheOutcome::Bypass);
        return Ok(CachedIndex::Local(Rc::new(build(hook)?)));
    }
    if let Some(idx) = with_store(|s| s.lookup(items, fingerprint)) {
        trace::annotate_cache(trace::current_span(), trace::CacheOutcome::Hit);
        return Ok(idx);
    }
    let built = build(hook)?;
    trace::annotate_cache(trace::current_span(), trace::CacheOutcome::Build);
    Ok(with_store(|s| s.insert(items, fingerprint, built)))
}

// --- the columnar scan lane --------------------------------------------------

/// Static columnar eligibility of a scan's pushed filters: non-empty,
/// and every conjunct runnable by the plain mini-evaluator under the
/// row binder alone (binder-closed, pure, total). Computed both at open
/// time (whether to offload) and at render time (`explain`'s
/// `[columnar par n=…]` marker) — a cheap syntactic walk, so nothing
/// needs to be stored in the operator.
pub fn columnar_eligible(filters: &[Conjunct<'_>], var: Symbol) -> bool {
    !filters.is_empty() && filters.iter().all(|c| par_evaluable(c.expr, &[var]))
}

/// The one gate of the columnar lane. A columnar snapshot is a
/// specialisation of a relation that persists across queries, and it
/// pays only when it is reused, so the lane runs only over snapshots the
/// index store caches: the pushed filters are eligible
/// ([`columnar_eligible`]), the source is `stable` (it shares storage
/// across evaluations), the lane and the store are enabled, and the
/// relation has at least [`machiavelli_value::tuning::par_min_rows`]
/// rows and fits the store's row budget. Any thread count qualifies;
/// at one thread the filter runs inline. Every other scan or build
/// filters sequentially and counts as neither an offload nor a fallback.
fn columnar_live(filters: &[Conjunct<'_>], var: Symbol, items: &MSet, stable: bool) -> bool {
    stable
        && parallel_enabled()
        && store_enabled()
        && columnar_eligible(filters, var)
        && items.len() >= par_min_rows()
        && items.len() <= with_store(|s| s.budget_rows())
}

/// One compiled filter conjunct of a columnar scan.
enum ColPred<'p, 's> {
    /// `_.L op constant` (either orientation, non-short-circuit op)
    /// over a decomposed relation: a direct loop over column `L`'s
    /// contiguous values — no per-row field scan, no expression walk.
    Column {
        values: &'s [PlainValue],
        op: BinOp,
        /// The constant operand, evaluated once (pure and total on the
        /// par-evaluable class, so early evaluation is unobservable).
        other: PlainValue,
        /// The column is the *right* operand.
        flipped: bool,
        strict: bool,
    },
    /// Any other eligible conjunct: the plain mini-evaluator per row.
    Row(&'p Conjunct<'p>),
}

impl<'p, 's> ColPred<'p, 's> {
    fn compile(c: &'p Conjunct<'p>, var: Symbol, snap: &'s ColumnarRelation) -> ColPred<'p, 's> {
        if let ExprKind::Binop { op, left, right } = &c.expr.kind {
            // `andalso`/`orelse` short-circuit per row; they stay on the
            // row path where `plain_eval` mirrors that exactly.
            if !matches!(op, BinOp::Andalso | BinOp::Orelse) {
                let col_of = |e: &'p Expr| -> Option<&'s [PlainValue]> {
                    let ExprKind::Field { expr, label } = &e.kind else {
                        return None;
                    };
                    let ExprKind::Var(x) = &expr.kind else {
                        return None;
                    };
                    if x.id() != var.id() {
                        return None;
                    }
                    snap.column(*label).map(|c| &*c.values)
                };
                let empty = PlainBindings {
                    head: None,
                    rest: &[],
                };
                let constant = |e: &'p Expr| {
                    (!mentions_any(e, &[var]))
                        .then(|| plain_eval(e, &empty))
                        .flatten()
                };
                if let Some(values) = col_of(left) {
                    if let Some(other) = constant(right) {
                        return ColPred::Column {
                            values,
                            op: *op,
                            other,
                            flipped: false,
                            strict: c.strict,
                        };
                    }
                }
                if let Some(values) = col_of(right) {
                    if let Some(other) = constant(left) {
                        return ColPred::Column {
                            values,
                            op: *op,
                            other,
                            flipped: true,
                            strict: c.strict,
                        };
                    }
                }
            }
        }
        ColPred::Row(c)
    }
}

/// Evaluate the compiled conjuncts on row `i`. `Some(true)` accepts,
/// `Some(false)` rejects; `None` **declines** — an operand shape the
/// plain lane cannot handle, or a strict conjunct evaluating
/// non-boolean (where the interpreter raises) — and poisons the whole
/// run, so the sequential re-run reproduces the exact behavior.
fn row_passes(
    preds: &[ColPred<'_, '_>],
    snap: &ColumnarRelation,
    var: Symbol,
    i: usize,
) -> Option<bool> {
    for p in preds {
        let (v, strict) = match p {
            ColPred::Column {
                values,
                op,
                other,
                flipped,
                strict,
            } => {
                let v = if *flipped {
                    plain_binop(*op, other, &values[i])
                } else {
                    plain_binop(*op, &values[i], other)
                };
                (v, *strict)
            }
            ColPred::Row(c) => {
                let env = PlainBindings {
                    head: Some((var, &snap.rows[i])),
                    rest: &[],
                };
                (plain_eval(c.expr, &env), c.strict)
            }
        };
        match v {
            Some(PlainValue::Bool(true)) => {}
            Some(PlainValue::Bool(false)) => return Some(false),
            // A lenient (syntactically last) conjunct rejects the row
            // on a non-boolean, like the sequential `check`.
            Some(_) if !strict => return Some(false),
            _ => return None,
        }
    }
    Some(true)
}

/// Run binder-closed pushed filters over `items` on the morsel-driven
/// columnar lane when it is live for this relation ([`columnar_live`]),
/// against the store-cached snapshot of the relation (through the
/// shared tier behind it). `Ok(None)` means the caller takes the
/// sequential path, with zero behavior change: the lane was not live,
/// or it declined — a row with no plain form, or live data a conjunct
/// cannot handle. `Ok(Some(keep))` holds the **ascending** indices of
/// surviving rows.
/// At one thread the morsels run inline on the session thread (no
/// worker fail point); at more they fan out over the scheduler. Either
/// way the loop polls the (sticky) query guard every
/// [`CHUNK_TICK_MASK`]+1 rows; a trip poisons the run and [`run_par`]
/// surfaces it as `Interrupted` before the result can be used — and
/// before a poisoned run is counted as a decline.
fn columnar_filter<E>(
    var: Symbol,
    filters: &[Conjunct<'_>],
    items: &MSet,
    stable: bool,
) -> Result<Option<Vec<u32>>, ExecError<E>> {
    if !columnar_live(filters, var, items, stable) {
        return Ok(None);
    }
    let Some(snap) = with_store(|s| s.snapshot(items)) else {
        note_offload(false);
        trace::note_decline(DeclineReason::ColumnarSnapshotExtract);
        return Ok(None);
    };
    let preds: Vec<ColPred<'_, '_>> = filters
        .iter()
        .map(|c| ColPred::compile(c, var, &snap))
        .collect();
    let threads = par_threads();
    let cx = WorkerCx::capture();
    let keep = run_par(|| {
        let (keep, _) = exec::filter_indices(
            threads,
            &snap,
            || {
                if threads > 1 {
                    cx.enter();
                }
                0u64
            },
            |ticks: &mut u64, i| {
                *ticks += 1;
                if *ticks & CHUNK_TICK_MASK as u64 == 0 && cx.tripped() {
                    return None;
                }
                row_passes(&preds, &snap, var, i)
            },
        );
        keep
    })?;
    if keep.is_none() {
        trace::note_decline(DeclineReason::ColumnarRuntimeDecline);
    }
    note_offload(keep.is_some());
    Ok(keep)
}

/// Open a `Scan` node, filtering on the columnar lane when it is live
/// for this relation ([`columnar_filter`]). On success the surviving rows
/// — an ascending subset of the canonical slice, so itself canonical —
/// become a **filterless** scan over a fresh [`MSet`]: exactly the
/// shape [`open_plain_probe`]'s fast path keys raw rows from, so the
/// whole Scan→Filter→Join pipeline composes onto the lane. Any decline
/// yields the ordinary filtered scan with zero behavior change.
fn open_scan_node<'p, E>(
    var: Symbol,
    filters: &'p [Conjunct<'p>],
    source: &Expr,
    env: &Env,
    items: MSet,
) -> Result<Node<'p>, ExecError<E>> {
    let keep = columnar_filter(var, filters, &items, stable_source(source))?;
    Ok(match keep {
        Some(keep) => {
            // An inline run stayed on the session thread: its span
            // keeps `seq`.
            let threads = par_threads();
            if threads > 1 {
                trace::annotate_lane(trace::current_span(), trace::Lane::Columnar(threads as u32));
            }
            let rows = items.as_slice();
            let filtered = MSet::from_sorted_unchecked(
                keep.iter().map(|&i| rows[i as usize].clone()).collect(),
            );
            Node::Scan {
                var,
                filters: &[],
                base: env.clone(),
                items: filtered,
                idx: 0,
            }
        }
        None => Node::Scan {
            var,
            filters,
            base: env.clone(),
            items,
            idx: 0,
        },
    })
}

/// [`open_scan_node`] under its own trace span, mirroring what
/// [`Node::open`] does for dispatched operators: the swapped hash-join
/// arm destructures its probe `Scan` and opens it directly, so without
/// this twin the probe side would vanish from the trace tree.
fn open_scan_traced<'p, E>(
    var: Symbol,
    filters: &'p [Conjunct<'p>],
    source: &Expr,
    env: &Env,
    items: MSet,
) -> Result<Node<'p>, ExecError<E>> {
    if !trace::active() {
        return open_scan_node(var, filters, source, env, items);
    }
    let sid = trace::open_op_with(|| scan_label(var, source, filters));
    let t0 = trace::now_ns();
    let node = open_scan_node(var, filters, source, env, items);
    trace::close_op(sid, trace::now_ns().saturating_sub(t0));
    Ok(match (sid, node?) {
        (Some(sid), inner) => Node::Traced {
            sid,
            inner: Box::new(inner),
        },
        (None, inner) => inner,
    })
}

/// Open a hash join whose orientation is already fixed: `input` streams
/// the probe side, `items` is the build relation. With the lane enabled
/// and the probe keys covered (`par`), every plain table takes the one
/// plain probe ([`open_plain_probe`]): an uncached build whose keys and
/// filters are covered (`build_ok`) is keyed into a local plain table
/// first, and a store-served build is one whenever its relation
/// extracted. Everything else — and a build that declines the plain
/// keyer — is the sequential build/probe.
#[allow(clippy::too_many_arguments)]
fn open_keyed_join<'p, H: EvalHook>(
    input: Box<Node<'p>>,
    items: MSet,
    var: Symbol,
    build_keys: &'p [&'p Expr],
    filters: &'p [Conjunct<'p>],
    probe_keys: &'p [&'p Expr],
    fingerprint: Option<&str>,
    par: Option<&'p ParInfo>,
    stable: bool,
    env: &Env,
    hook: &mut H,
) -> Result<Node<'p>, ExecError<H::Error>> {
    let par = par.filter(|_| parallel_enabled());
    let table = match (fingerprint, par) {
        // Cacheable build: request it from the index store (hit ⇒ the
        // whole build phase — filters and keys — is skipped; all
        // planner-safe, so unobservable).
        (Some(fp), _) => obtain_index(
            &items,
            fp,
            |hook| build_join_index(&items, var, filters, build_keys, stable, env, hook),
            hook,
        )?,
        // Uncached plain build: key once on the session thread.
        (None, Some(info)) if info.build_ok => {
            match build_plain_index(&items, var, filters, build_keys) {
                Some(index) => {
                    let index = Arc::new(index);
                    return open_plain_probe(
                        input, items, var, probe_keys, index, info, true, hook,
                    );
                }
                None => {
                    note_par_join(false);
                    trace::note_decline(DeclineReason::ParJoinBuildExtract);
                    CachedIndex::Local(Rc::new(build_join_index(
                        &items, var, filters, build_keys, stable, env, hook,
                    )?))
                }
            }
        }
        // Environment-dependent build: construct inline.
        (None, _) => CachedIndex::Local(Rc::new(build_join_index(
            &items, var, filters, build_keys, stable, env, hook,
        )?)),
    };
    match (&table, par) {
        (CachedIndex::Plain(index), Some(info)) => {
            let index = index.clone();
            open_plain_probe(input, items, var, probe_keys, index, info, false, hook)
        }
        _ => Ok(Node::HashJoin {
            input,
            var,
            probe_keys,
            items,
            table,
            cur: None,
        }),
    }
}

/// Count one plain-lane outcome: local tables (uncached joins) count as
/// `par_joins`, store-served ones as `par_probes`.
fn note_plain(local: bool, hit: bool) {
    if local {
        note_par_join(hit)
    } else {
        note_par_probe(hit)
    }
}

/// Probe a plain table with extracted keys — a store-served index, or
/// (`local`) an uncached join's freshly keyed table. Always returns a
/// usable node: [`Node::PlainJoin`] on success, otherwise the
/// sequential probe over the same table — with zero behavior change,
/// since everything evaluated early (the probe pipeline's per-row
/// expressions) is planner-safe. Draining a general probe pipeline is
/// memory-capped ([`machiavelli_value::tuning::par_join_max_probe_rows`]).
#[allow(clippy::too_many_arguments)]
fn open_plain_probe<'p, H: EvalHook>(
    mut input: Box<Node<'p>>,
    items: MSet,
    var: Symbol,
    probe_keys: &'p [&'p Expr],
    index: Arc<PlainIndex>,
    info: &'p ParInfo,
    local: bool,
    hook: &mut H,
) -> Result<Node<'p>, ExecError<H::Error>> {
    let seq = |input: Box<Node<'p>>, items: MSet, index: Arc<PlainIndex>| Node::HashJoin {
        input,
        var,
        probe_keys,
        items,
        table: CachedIndex::Plain(index),
        cur: None,
    };
    // An empty index matches nothing; the sequential node short-circuits
    // without even pulling the input. Not a fallback — there is no probe
    // work to do (a local table still counts: its build ran plain).
    if index.is_empty() {
        if local {
            note_par_join(true);
        }
        return Ok(seq(input, items, index));
    }
    // Peel an active-trace [`Node::Traced`] wrapper so the fast-path
    // shape match below sees exactly the node an untraced run would:
    // lane selection must not depend on whether a trace is recording.
    // The peeled span keeps its accounting — paths that hand the input
    // back rewrap it, paths that drain it set the row count directly
    // (no `next` has run yet, so the span's count starts at zero and a
    // rewrapped remainder adds on top).
    let mut input_sid: Option<u32> = None;
    if let Node::Traced { sid, .. } = input.as_ref() {
        input_sid = Some(*sid);
        let Node::Traced { inner, .. } = *input else {
            unreachable!()
        };
        input = inner;
    }
    let rewrap = |node: Box<Node<'p>>| match input_sid {
        Some(sid) => Box::new(Node::Traced { sid, inner: node }),
        None => node,
    };
    // Fast path for the dominant shape — the probe side is a bare,
    // filterless `Scan` of an already-materialized relation (the
    // two-generator equi-join). Keys extract straight off the relation
    // slice through borrowed bindings: no per-row environment
    // allocation, no `Env` materialization, and match envs bind lazily
    // (only probe rows that actually matched ever get one). The keys
    // and match lists are still per probe row, so the drain cap below
    // bounds this path too.
    let max_probe = machiavelli_value::tuning::par_join_max_probe_rows(items.len());
    if let Node::Scan {
        var: svar,
        filters: sfilters,
        base,
        items: pitems,
        idx: 0,
    } = input.as_ref()
    {
        if sfilters.is_empty() {
            if pitems.len() >= max_probe {
                note_plain(local, false);
                trace::note_decline(DeclineReason::ParProbeDrainCap);
                return Ok(seq(rewrap(input), items, index));
            }
            let keys = extract_keys(pitems.as_slice(), |row| {
                let row_env = ValueBindings {
                    head: Some((*svar, row)),
                    rest: &[],
                };
                extract_key(probe_keys, &row_env)
            });
            let Some(keys) = keys else {
                // Nothing was drained: the untouched Scan replays
                // through the sequential probe.
                note_plain(local, false);
                trace::note_decline(DeclineReason::ParProbeExtract);
                return Ok(seq(rewrap(input), items, index));
            };
            trace::annotate_rows(input_sid, pitems.len() as u64);
            let probe = PlainProbe::Rows {
                base: base.clone(),
                var: *svar,
                items: pitems.clone(),
            };
            return plain_join(var, items, &index, &keys, probe, local);
        }
    }
    // Materialize the probe side (upstream per-row work is planner-safe;
    // evaluating it before the first result row is unobservable),
    // capped relative to the build side.
    let mut probe_rows: Vec<Env> = Vec::new();
    let mut drained_all = true;
    while let Some(row) = input.next(hook)? {
        probe_rows.push(row);
        if probe_rows.len() >= max_probe {
            drained_all = false;
            break;
        }
    }
    // The drain bypassed the peeled span's `next` accounting: set its
    // yielded-row count directly (a rewrapped remainder adds on top).
    trace::annotate_rows(input_sid, probe_rows.len() as u64);
    if !drained_all {
        note_plain(local, false);
        trace::note_decline(DeclineReason::ParProbeDrainCap);
        let drained = Box::new(Node::Materialized {
            rows: probe_rows,
            idx: 0,
            rest: Some(rewrap(input)),
        });
        return Ok(seq(drained, items, index));
    }
    let keys = extract_keys(&probe_rows, |row| {
        let bound = info
            .probe_vars
            .iter()
            .map(|v| row.lookup(*v).map(|val| (*v, val)))
            .collect::<Option<Vec<(Symbol, Value)>>>()?;
        let row_env = ValueBindings {
            head: None,
            rest: &bound,
        };
        extract_key(probe_keys, &row_env)
    });
    let Some(keys) = keys else {
        // A probe key declined extraction (identity-bearing value or an
        // unsupported runtime shape): replay the drained rows through
        // the sequential probe — identical bindings, identical errors.
        note_plain(local, false);
        trace::note_decline(DeclineReason::ParProbeExtract);
        let drained = Box::new(Node::Materialized {
            rows: probe_rows,
            idx: 0,
            rest: None,
        });
        return Ok(seq(drained, items, index));
    };
    plain_join(
        var,
        items,
        &index,
        &keys,
        PlainProbe::Envs(probe_rows),
        local,
    )
}

/// Extract one probe key per row into a vector sized up front; `None`
/// as soon as a row declines.
fn extract_keys<T>(rows: &[T], key_of: impl Fn(&T) -> Option<PlainKey>) -> Option<Vec<PlainKey>> {
    let mut keys = Vec::with_capacity(rows.len());
    for row in rows {
        keys.push(key_of(row)?);
    }
    Some(keys)
}

/// Run the plain probe for extracted `keys` — fanned out over the
/// morsel scheduler when more than one worker is configured and the
/// probe side clears [`machiavelli_value::tuning::par_min_rows`], inline
/// otherwise — and wrap the matches in a [`Node::PlainJoin`].
fn plain_join<'p, E>(
    var: Symbol,
    items: MSet,
    index: &PlainIndex,
    keys: &[PlainKey],
    probe: PlainProbe,
    local: bool,
) -> Result<Node<'p>, ExecError<E>> {
    let threads = if keys.len() >= par_min_rows() {
        par_threads()
    } else {
        1
    };
    let matches = run_par(|| probe_plain(index, keys, threads))?;
    note_plain(local, true);
    // An inline probe ran on the session thread: its span keeps `seq`.
    if threads > 1 {
        trace::annotate_lane(trace::current_span(), trace::Lane::Plain(threads as u32));
    }
    Ok(Node::PlainJoin {
        var,
        rows: items,
        probe,
        matches,
        cursor: (0, 0),
        cur_env: None,
    })
}

/// Runtime state of one operator (same shape as [`PhysOp`]).
enum Node<'p> {
    Scan {
        var: Symbol,
        filters: &'p [Conjunct<'p>],
        base: Env,
        items: MSet,
        idx: usize,
    },
    /// An opened index scan: the matching group was fetched up front;
    /// iteration applies the residual pushed filters per row.
    IndexScan {
        var: Symbol,
        filters: &'p [Conjunct<'p>],
        base: Env,
        matches: Vec<Value>,
        idx: usize,
    },
    NestedLoop {
        input: Box<Node<'p>>,
        var: Symbol,
        source: &'p Expr,
        filters: &'p [Conjunct<'p>],
        /// `Some` when the source is independent (evaluated at open).
        fixed: Option<MSet>,
        /// The in-flight outer binding and its source cursor.
        cur: Option<(Env, MSet, usize)>,
    },
    HashJoin {
        input: Box<Node<'p>>,
        var: Symbol,
        probe_keys: &'p [&'p Expr],
        /// The build relation: match indices resolve into its canonical
        /// slice (the entry's pinned clone shares this storage on a
        /// cache hit, so indices are valid by construction).
        items: MSet,
        /// Build-row indices grouped by key, in source (canonical set)
        /// order — shared with the index store on a cache hit, in plain
        /// or `Rc`-lane form.
        table: CachedIndex,
        /// The in-flight probe binding and its match cursor.
        cur: Option<(Env, Vec<u32>, usize)>,
    },
    /// A (possibly partially) drained input: the plain probe
    /// materializes the probe side before keying it; if it then has
    /// to fall back, the rows replay through the sequential join
    /// unchanged (every per-row upstream expression is planner-safe, so
    /// having evaluated them early is unobservable), followed by
    /// whatever `rest` of the pipeline was never drained (the
    /// probe-drain memory cap stops draining mid-stream).
    Materialized {
        rows: Vec<Env>,
        idx: usize,
        rest: Option<Box<Node<'p>>>,
    },
    /// A completed plain-keyed join: `matches[i]` holds the build-row
    /// indices for probe row `i`, each list ascending (= build-source
    /// canonical order). Yields probe-major with groups in order —
    /// exactly the binding sequence the sequential probe produces.
    PlainJoin {
        var: Symbol,
        rows: MSet,
        probe: PlainProbe,
        matches: Vec<Vec<u32>>,
        cursor: (usize, usize),
        /// The probe row currently being enumerated, bound at most once
        /// (only rows with matches are ever bound at all on the
        /// [`PlainProbe::Rows`] path).
        cur_env: Option<(usize, Env)>,
    },
    Filter {
        input: Box<Node<'p>>,
        conjuncts: &'p [Conjunct<'p>],
    },
    /// A span-wrapped operator, present only while a query trace is
    /// active: `next` adds the inclusive elapsed time and yielded-row
    /// count of the inner node to span `sid`. Lanes that pattern-match
    /// their input's shape (the plain probe fast path) peel this
    /// wrapper first — see [`open_plain_probe`].
    Traced { sid: u32, inner: Box<Node<'p>> },
}

/// The probe side of a completed [`Node::PlainJoin`].
enum PlainProbe {
    /// Materialized probe environments, one per probe row (general
    /// pipelines: the rows were drained through the input node).
    Envs(Vec<Env>),
    /// A bare filterless scan: probe row `i` is `items[i]`, and its
    /// environment (`base` extended with the binder) is built lazily —
    /// only for rows that actually matched.
    Rows { base: Env, var: Symbol, items: MSet },
}

impl<'p> Node<'p> {
    /// Open the pipeline: recurse input-first so independent sources are
    /// evaluated in generator order (matching `select_loop`'s up-front
    /// source pass, including which source errors first).
    ///
    /// With a query trace active, every operator opens under its own
    /// span (children nest through this recursion) and comes back
    /// wrapped in [`Node::Traced`]; with tracing off this is one
    /// predicted-false branch per operator and no wrapper.
    fn open<H: EvalHook>(
        op: &'p PhysOp<'p>,
        env: &Env,
        hook: &mut H,
    ) -> Result<Node<'p>, ExecError<H::Error>> {
        if !trace::active() {
            return Node::open_inner(op, env, hook);
        }
        let sid = trace::open_op_with(|| op_label(op));
        let t0 = trace::now_ns();
        let node = Node::open_inner(op, env, hook);
        trace::close_op(sid, trace::now_ns().saturating_sub(t0));
        Ok(match (sid, node?) {
            (Some(sid), inner) => Node::Traced {
                sid,
                inner: Box::new(inner),
            },
            (None, inner) => inner,
        })
    }

    fn open_inner<H: EvalHook>(
        op: &'p PhysOp<'p>,
        env: &Env,
        hook: &mut H,
    ) -> Result<Node<'p>, ExecError<H::Error>> {
        Ok(match op {
            PhysOp::Scan {
                var,
                source,
                filters,
            } => {
                let items = as_set(hook.eval(env, source)?)?;
                open_scan_node(*var, filters, source, env, items)?
            }
            PhysOp::IndexScan {
                var,
                source,
                keys,
                filters,
                fingerprint,
            } => {
                let items = as_set(hook.eval(env, source)?)?;
                // The probe sides are planner-safe: evaluating them once
                // here (even when the relation is empty) instead of per
                // element is unobservable.
                let probe: Vec<Value> = keys
                    .iter()
                    .map(|k| hook.eval(env, k.probe))
                    .collect::<Result<_, _>>()?;
                // A relation over the whole row budget would be declined
                // by the store: don't build a grouping nothing can ever
                // reuse — stream it like the filtered scan this shape
                // lowered to before the store existed.
                let matches = if items.len() > with_store(|s| s.budget_rows()) {
                    let mut matches = Vec::new();
                    for item in items.iter() {
                        let row_env = env.bind(*var, item.clone());
                        let mut hit = true;
                        for (k, want) in keys.iter().zip(&probe) {
                            if !value_eq(&hook.eval(&row_env, k.on)?, want) {
                                hit = false;
                                break;
                            }
                        }
                        if hit {
                            matches.push(item.clone());
                        }
                    }
                    matches
                } else {
                    let index = obtain_index(
                        &items,
                        fingerprint,
                        |hook| build_scan_index(&items, *var, keys, env, hook),
                        hook,
                    )?;
                    // Re-binding the group is len × O(1) `Rc` bumps;
                    // indices ascend, so rows stay in canonical order,
                    // exactly as a filter scan yields them.
                    index
                        .rows_for(probe)
                        .iter()
                        .map(|&i| items.as_slice()[i as usize].clone())
                        .collect()
                };
                Node::IndexScan {
                    var: *var,
                    filters,
                    base: env.clone(),
                    matches,
                    idx: 0,
                }
            }
            PhysOp::NestedLoop {
                input,
                var,
                source,
                dependent,
                filters,
            } => {
                let input = Box::new(Node::open(input, env, hook)?);
                let fixed = if *dependent {
                    None
                } else {
                    Some(as_set(hook.eval(env, source)?)?)
                };
                Node::NestedLoop {
                    input,
                    var: *var,
                    source,
                    filters,
                    fixed,
                    cur: None,
                }
            }
            PhysOp::HashJoin {
                input,
                var,
                source,
                filters,
                probe_keys,
                build_keys,
                fingerprint,
                par,
                swap,
            } => {
                // Build-side selection for swappable joins: evaluate
                // both sources (in generator order — observable
                // effects/errors stay put), then pick the orientation
                // from store metadata. A live cached index wins over
                // everything; with neither orientation cached, the
                // smaller relation builds, provided it could actually
                // be cached (a build the budget would decline buys
                // nothing). `peek` is exact ((storage, fingerprint))
                // and stats-neutral.
                if let Some(sw) = swap {
                    if let PhysOp::Scan {
                        var: pvar,
                        source: psource,
                        filters: pfilters,
                    } = input.as_ref()
                    {
                        let first = as_set(hook.eval(env, psource)?)?;
                        let second = as_set(hook.eval(env, source)?)?;
                        let (normal_cached, swapped_cached, budget) = with_store(|s| {
                            (
                                fingerprint.as_ref().is_some_and(|fp| s.peek(&second, fp)),
                                s.peek(&first, &sw.fingerprint),
                                s.budget_rows(),
                            )
                        });
                        let do_swap = !normal_cached
                            && (swapped_cached
                                || (first.len() < second.len() && first.len() <= budget));
                        return if do_swap {
                            // Exchanged roles: the first generator's
                            // relation builds (keyed by the old probe
                            // expressions, its pushed filters baked
                            // in), the second streams as the probe.
                            let probe_node =
                                Box::new(open_scan_traced(*var, filters, source, env, second)?);
                            open_keyed_join(
                                probe_node,
                                first,
                                *pvar,
                                probe_keys,
                                pfilters,
                                build_keys,
                                Some(&sw.fingerprint),
                                sw.par.as_ref(),
                                stable_source(psource),
                                env,
                                hook,
                            )
                        } else {
                            let input =
                                Box::new(open_scan_traced(*pvar, pfilters, psource, env, first)?);
                            open_keyed_join(
                                input,
                                second,
                                *var,
                                build_keys,
                                filters,
                                probe_keys,
                                fingerprint.as_deref(),
                                par.as_ref(),
                                stable_source(source),
                                env,
                                hook,
                            )
                        };
                    }
                }
                let input = Box::new(Node::open(input, env, hook)?);
                let items = as_set(hook.eval(env, source)?)?;
                open_keyed_join(
                    input,
                    items,
                    *var,
                    build_keys,
                    filters,
                    probe_keys,
                    fingerprint.as_deref(),
                    par.as_ref(),
                    stable_source(source),
                    env,
                    hook,
                )?
            }
            PhysOp::Filter { input, conjuncts } => Node::Filter {
                input: Box::new(Node::open(input, env, hook)?),
                conjuncts,
            },
        })
    }

    /// Pull the next surviving binding, or `None` when exhausted.
    fn next<H: EvalHook>(&mut self, hook: &mut H) -> Result<Option<Env>, ExecError<H::Error>> {
        match self {
            Node::Scan {
                var,
                filters,
                base,
                items,
                idx,
            } => {
                while *idx < items.len() {
                    let item = items.as_slice()[*idx].clone();
                    *idx += 1;
                    let env = base.bind(*var, item);
                    if check_all(filters, &env, hook)? {
                        return Ok(Some(env));
                    }
                }
                Ok(None)
            }
            Node::IndexScan {
                var,
                filters,
                base,
                matches,
                idx,
            } => {
                while *idx < matches.len() {
                    let item = matches[*idx].clone();
                    *idx += 1;
                    let env = base.bind(*var, item);
                    if check_all(filters, &env, hook)? {
                        return Ok(Some(env));
                    }
                }
                Ok(None)
            }
            Node::NestedLoop {
                input,
                var,
                source,
                filters,
                fixed,
                cur,
            } => loop {
                if let Some((outer, items, idx)) = cur {
                    while *idx < items.len() {
                        let item = items.as_slice()[*idx].clone();
                        *idx += 1;
                        let env = outer.bind(*var, item);
                        if check_all(filters, &env, hook)? {
                            return Ok(Some(env));
                        }
                    }
                    *cur = None;
                }
                let Some(outer) = input.next(hook)? else {
                    return Ok(None);
                };
                let items = match fixed {
                    Some(s) => s.clone(),
                    None => as_set(hook.eval(&outer, source)?)?,
                };
                *cur = Some((outer, items, 0));
            },
            Node::HashJoin {
                input,
                var,
                probe_keys,
                items,
                table,
                cur,
            } => loop {
                if let Some((outer, matches, idx)) = cur {
                    if *idx < matches.len() {
                        let item = items.as_slice()[matches[*idx] as usize].clone();
                        *idx += 1;
                        return Ok(Some(outer.bind(*var, item)));
                    }
                    *cur = None;
                }
                // Empty-build short-circuit: nothing can ever match, so
                // don't even pull. Independent sources were all evaluated
                // at open; what this skips below is only the evaluation
                // of planner-safe dependent sources and pushed filters —
                // pure and total on type-checked programs, so skipping
                // them is unobservable under the crate's contract (an
                // *ill-typed* program driven straight through `eval_expr`
                // could see a NotASet/NotABool here that `select_loop`
                // would have raised).
                if table.is_empty() {
                    return Ok(None);
                }
                let Some(outer) = input.next(hook)? else {
                    return Ok(None);
                };
                let key: Vec<Value> = probe_keys
                    .iter()
                    .map(|k| hook.eval(&outer, k))
                    .collect::<Result<_, _>>()?;
                let matches = table.rows_for(key);
                if !matches.is_empty() {
                    // Copying the index list is a small memcpy; rows
                    // re-bind lazily above (len × O(1) `Rc` bumps).
                    *cur = Some((outer, matches.to_vec(), 0));
                }
            },
            Node::Materialized { rows, idx, rest } => {
                if *idx < rows.len() {
                    let row = rows[*idx].clone();
                    *idx += 1;
                    Ok(Some(row))
                } else if let Some(rest) = rest {
                    rest.next(hook)
                } else {
                    Ok(None)
                }
            }
            Node::PlainJoin {
                var,
                rows,
                probe,
                matches,
                cursor,
                cur_env,
            } => loop {
                let (i, j) = *cursor;
                if i >= matches.len() {
                    return Ok(None);
                }
                let group = &matches[i];
                if j < group.len() {
                    *cursor = (i, j + 1);
                    let item = rows.as_slice()[group[j] as usize].clone();
                    let outer = match probe {
                        PlainProbe::Envs(envs) => envs[i].clone(),
                        PlainProbe::Rows {
                            base,
                            var: svar,
                            items,
                        } => match cur_env {
                            Some((ci, env)) if *ci == i => env.clone(),
                            _ => {
                                let env = base.bind(*svar, items.as_slice()[i].clone());
                                *cur_env = Some((i, env.clone()));
                                env
                            }
                        },
                    };
                    return Ok(Some(outer.bind(*var, item)));
                }
                *cursor = (i + 1, 0);
            },
            Node::Filter { input, conjuncts } => loop {
                let Some(env) = input.next(hook)? else {
                    return Ok(None);
                };
                if check_all(conjuncts, &env, hook)? {
                    return Ok(Some(env));
                }
            },
            Node::Traced { sid, inner } => {
                let t0 = trace::now_ns();
                let r = inner.next(hook);
                let ns = trace::now_ns().saturating_sub(t0);
                let rows = matches!(r, Ok(Some(_))) as u64;
                trace::add_next(*sid, ns, rows);
                r
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::compile;
    use machiavelli_syntax::parse_expr;

    /// A minimal structural evaluator covering the safe-expression class
    /// (the real evaluator lives above this crate; tests only need
    /// variables, fields, literals, `=`/`<`/`>`, sets and records).
    struct MiniEval;

    impl EvalHook for MiniEval {
        type Error = String;
        fn eval(&mut self, env: &Env, expr: &Expr) -> Result<Value, String> {
            Ok(match &expr.kind {
                ExprKind::Int(n) => Value::Int(*n),
                ExprKind::Bool(b) => Value::Bool(*b),
                ExprKind::Str(s) => Value::str(s.as_str()),
                ExprKind::Var(x) => env.lookup(x).ok_or_else(|| format!("unbound {x}"))?,
                ExprKind::Field { expr, label } => match self.eval(env, expr)? {
                    Value::Record(fs) => fs
                        .get(label)
                        .cloned()
                        .ok_or_else(|| format!("no {label}"))?,
                    _ => return Err("not a record".into()),
                },
                ExprKind::Record(fields) => Value::record(
                    fields
                        .iter()
                        .map(|(l, fe)| Ok((*l, self.eval(env, fe)?)))
                        .collect::<Result<Vec<_>, String>>()?,
                ),
                ExprKind::Binop { op, left, right } => {
                    let l = self.eval(env, left)?;
                    let r = self.eval(env, right)?;
                    match op {
                        BinOp::Eq => Value::Bool(l == r),
                        BinOp::Lt => Value::Bool(l < r),
                        BinOp::Gt => Value::Bool(l > r),
                        _ => return Err("mini-eval: unsupported op".into()),
                    }
                }
                _ => return Err("mini-eval: unsupported expr".into()),
            })
        }
    }

    fn rows(label_vals: &[(i64, i64)]) -> Value {
        Value::set(label_vals.iter().map(|(k, a)| {
            Value::record([("K".into(), Value::Int(*k)), ("A".into(), Value::Int(*a))])
        }))
    }

    fn run(src: &str, env: &Env) -> Value {
        let e = parse_expr(src).unwrap();
        let ExprKind::Select {
            result,
            generators,
            pred,
        } = &e.kind
        else {
            panic!()
        };
        let plan = compile(generators, pred, result).unwrap().physical();
        execute(&plan, env, &mut MiniEval).unwrap()
    }

    #[test]
    fn hash_join_pipeline_matches_expected() {
        let env = Env::new()
            .bind("r", rows(&[(1, 10), (2, 20), (3, 30)]))
            .bind("s", rows(&[(2, 200), (3, 300), (3, 301), (9, 900)]));
        let got = run(
            "select (x.A, y.A) where x <- r, y <- s with x.K = y.K",
            &env,
        );
        let want = Value::set([
            Value::tuple([Value::Int(20), Value::Int(200)]),
            Value::tuple([Value::Int(30), Value::Int(300)]),
            Value::tuple([Value::Int(30), Value::Int(301)]),
        ]);
        assert_eq!(got, want);
    }

    #[test]
    fn pushdown_filter_applies_before_join() {
        let env = Env::new()
            .bind("r", rows(&[(1, 1), (2, 2)]))
            .bind("s", rows(&[(1, 5), (2, 6)]));
        let got = run(
            "select y.A where x <- r, y <- s with x.K = y.K andalso x.A > 1",
            &env,
        );
        assert_eq!(got, Value::set([Value::Int(6)]));
    }

    #[test]
    fn empty_build_side_yields_empty() {
        let env = Env::new()
            .bind("r", rows(&[(1, 1)]))
            .bind("s", Value::set([]));
        let got = run("select x where x <- r, y <- s with x.K = y.K", &env);
        assert_eq!(got, Value::set([]));
    }

    #[test]
    fn non_set_source_errors_like_the_evaluator() {
        let env = Env::new().bind("r", Value::Int(3));
        let e = parse_expr("select x where x <- r with true").unwrap();
        let ExprKind::Select {
            result,
            generators,
            pred,
        } = &e.kind
        else {
            panic!()
        };
        let plan = compile(generators, pred, result).unwrap().physical();
        match execute(&plan, &env, &mut MiniEval) {
            Err(ExecError::NotASet(shown)) => assert_eq!(shown, "3"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn index_scan_matches_filter_semantics() {
        let env = Env::new()
            .bind("r", rows(&[(1, 10), (2, 20), (2, 21), (3, 30)]))
            .bind("limit", Value::Int(2));
        let got = run("select x.A where x <- r with x.K = limit", &env);
        assert_eq!(got, Value::set([Value::Int(20), Value::Int(21)]));
        // Swapped orientation and an extra residual filter.
        let got = run(
            "select x.A where x <- r with x.A > 20 andalso limit = x.K",
            &env,
        );
        assert_eq!(got, Value::set([Value::Int(21)]));
    }

    #[test]
    fn index_scan_reuses_the_cached_grouping() {
        with_store(|s| s.reset());
        let env = Env::new()
            .bind("r", rows(&[(1, 10), (2, 20)]))
            .bind("limit", Value::Int(1));
        let q = "select x.A where x <- r with x.K = limit";
        assert_eq!(run(q, &env), Value::set([Value::Int(10)]));
        // Different probe constant, same relation storage: same index.
        let env2 = env.bind("limit", Value::Int(2));
        assert_eq!(run(q, &env2), Value::set([Value::Int(20)]));
        let stats = with_store(|s| s.stats());
        assert_eq!((stats.builds, stats.hits), (1, 1), "{stats:?}");
    }

    #[test]
    fn cacheable_join_builds_once_across_executions() {
        with_store(|s| s.reset());
        let env = Env::new()
            .bind("r", rows(&[(1, 10), (2, 20)]))
            .bind("s", rows(&[(1, 100), (2, 200)]));
        let q = "select (x.A, y.A) where x <- r, y <- s with x.K = y.K";
        let first = run(q, &env);
        let second = run(q, &env);
        assert_eq!(first, second);
        let stats = with_store(|s| s.stats());
        assert_eq!((stats.builds, stats.hits), (1, 1), "{stats:?}");
    }

    #[test]
    fn environment_dependent_build_is_not_cached() {
        with_store(|s| s.reset());
        let env = Env::new()
            .bind("r", rows(&[(1, 10), (2, 20)]))
            .bind("s", rows(&[(1, 100), (2, 200)]))
            .bind("cutoff", Value::Int(150));
        // The build-side filter mentions `cutoff`: correct results, but
        // the table must be rebuilt per execution (no fingerprint).
        let q = "select (x.A, y.A) where x <- r, y <- s \
                 with x.K = y.K andalso y.A > cutoff";
        let got = run(q, &env);
        assert_eq!(
            got,
            Value::set([Value::tuple([Value::Int(20), Value::Int(200)])])
        );
        run(q, &env);
        let stats = with_store(|s| s.stats());
        assert_eq!(stats.builds, 0, "{stats:?}");
        assert_eq!(stats.entries, 0, "{stats:?}");
    }
}
