//! Comprehension query planner: compiles `select … where gens with pred`
//! into a physical operator pipeline.
//!
//! The paper's central database construct is the comprehension over
//! labeled-record sets. Its reference semantics (the evaluator's
//! `select_loop`) is a nested re-evaluation loop, so a two-generator
//! equi-join comprehension is O(n·m) even when the predicate is a plain
//! key equality. This crate is the classic comprehension-calculus route
//! out: analyse the comprehension *statically*, once, and run it as a
//! database-style operator pipeline.
//!
//! # The logical / physical split
//!
//! * [`logical`] — [`compile`](logical::compile) performs
//!   **generator-dependency analysis** (is each generator source
//!   independent of earlier binders, or must it be re-evaluated per
//!   binding?) and **predicate decomposition** (split the `with` clause
//!   into conjuncts, push single-generator filters down to their
//!   generator, detect `x.l = y.k`-style equi-join conjuncts). The
//!   result is a [`LogicalPlan`](logical::LogicalPlan): one
//!   [`Step`](logical::Step) per generator plus the residual conjuncts,
//!   all borrowing the AST (compiling allocates no expression clones).
//! * [`physical`] — [`PhysicalPlan`](physical::PhysicalPlan) is the
//!   executable operator tree (`Scan` / `IndexScan` / `Filter` /
//!   `HashJoin` / `NestedLoop` / `Project`), and
//!   [`execute`](physical::execute) is a
//!   **pull-based** executor over [`machiavelli_value::Value`] /
//!   [`machiavelli_value::MSet`]: operators yield extended environments
//!   one at a time, hash-join build/probe keys reuse the structural
//!   hashing of `machiavelli_value::hash` (no rendering, no per-row key
//!   allocation beyond the key values themselves), and every residual
//!   predicate, source and result expression is evaluated through an
//!   [`EvalHook`](physical::EvalHook) callback into the real evaluator
//!   — the planner never re-implements expression semantics. Operators
//!   that group a relation by key (`HashJoin` build tables, `IndexScan`
//!   groupings) are memoized through the session's **index store**
//!   (`machiavelli-store`) when their key/filter expressions are closed
//!   under the row binder — repeated plans build once and probe
//!   thereafter, and the store's pointer-identity + mutation-epoch
//!   keying guarantees a mutated or rebuilt relation can never serve a
//!   stale index.
//! * [`explain`] — renders the operator tree for `Session::plan_of` and
//!   the REPL's `:plan` command (golden-plan tests pin the output).
//!
//! # The fallback contract
//!
//! The evaluator keeps `select_loop` and uses it whenever
//! [`compile`](logical::compile) declines ([`Unplannable`]), so planning
//! is *transparent*: every comprehension either runs through a plan that
//! is observationally equivalent to the nested loop, or through the
//! nested loop itself. The planner only commits when reordering is
//! unobservable:
//!
//! * every `with` conjunct must be **planner-safe** (see
//!   [`analysis::is_safe_expr`]): a pure, total expression — variables,
//!   literals, field projection, record/set construction, comparisons,
//!   overflow-free arithmetic (`div`/`mod` can raise and are excluded),
//!   `andalso`/`orelse`/`not`, `if`, `union`, `con`. Safe conjuncts
//!   cannot raise or allocate identities, so evaluating them earlier,
//!   later, or not at all (for rows a hash join prunes) is unobservable;
//! * every generator source that *depends on earlier binders* must be
//!   planner-safe too (it is re-evaluated per binding either way, but a
//!   join above it may prune whole outer rows);
//! * independent sources and the result expression are unrestricted:
//!   the pipeline evaluates independent sources exactly once, in
//!   generator order (as `select_loop` does), and evaluates the result
//!   for exactly the bindings that satisfy the predicate, in the same
//!   nested-iteration order — so effects, fresh `ref` identities and
//!   raised errors in them are preserved, including which error
//!   surfaces first;
//! * a comprehension over any empty independent source yields `{}`
//!   without evaluating the predicate (both paths pre-evaluate
//!   independent sources in generator order and never reach the
//!   predicate), and duplicate elimination happens once, at the end,
//!   exactly as in `select_loop`.
//!
//! Shapes the analysis declines — unsafe conjuncts, unsafe dependent
//! sources, duplicate binders — fall back with **zero** behavior change.
//! (As everywhere in the evaluator, the contract assumes the program was
//! type-checked; the `Session` front door always does.)
//!
//! # The parallel execution contract
//!
//! The paper singles out *proper* `hom` applications — associative,
//! commutative `op`; effect-free `f` — as "computable in parallel".
//! Machiavelli values are `Rc`-based and thread-confined, so the
//! parallel lane runs on **extracted plain data**
//! ([`machiavelli_value::plain`]) and only where the static analysis
//! proves the extraction step itself is unobservable. What
//! parallelizes, and what falls back:
//!
//! * **Every equi-join with covered keys runs one build and one
//!   streaming probe.** A hash join whose probe keys are
//!   [`parallel::par_evaluable`] under the earlier binders
//!   (binder-closed planner-safe expressions minus `con`) carries
//!   `PhysOp::HashJoin { par }`. Its build table is plain in one of two
//!   ways. An **uncached** build whose keys and pushed filters are also
//!   covered under the build binder (`build_ok`) is keyed once on the
//!   session thread by [`parallel::safe_eval`] (a direct-dispatch
//!   safe-class evaluator, no interpreter overhead) and
//!   [`parallel::extract_key`] into a local `PlainIndex`
//!   ([`parallel::build_plain_index`]) — any size qualifies. A
//!   **store-served** build is one whenever the store re-represented its
//!   relation in plain form (`Send + Sync`). Either table goes through
//!   the same probe: the join pulls one probe row at a time, extracts
//!   its key from the row's bindings of the binders the keys mention,
//!   looks it up, and yields the row's matches — build-row *indices*,
//!   re-bound to the original `Rc` rows — before it pulls the next. The
//!   binding sequence — probe-major, build groups in canonical source
//!   order — is identical to the sequential probe's, and the result
//!   expression still evaluates sequentially for exactly the same
//!   bindings in the same order. Nothing is drained and nothing fans
//!   out: the probe runs on the session thread at any thread count,
//!   polling the query guard every 1024 rows. At open time the lane
//!   must be enabled ([`machiavelli_value::tuning::parallel_enabled`]).
//!   A build-side key that does not extract via
//!   [`machiavelli_value::to_plain`] (identity-bearing keys — refs,
//!   dynamics — cannot be plain) rebuilds on the `Rc` lane; a probe row
//!   whose key does not extract is keyed by the interpreter alone and
//!   looked up in the same table. Relations with no plain form stay on
//!   the `Rc`-lane entry, probed sequentially.
//! * **Index-aware build-side selection**: a two-generator equi-join
//!   over a bare first `Scan` may *swap* its build side at open time —
//!   preferring the side that already holds a live cached index, or the
//!   smaller relation when neither side is cached (`PhysOp::HashJoin {
//!   swap }`, decided from store metadata via a stats-neutral `peek`,
//!   rendered `HashJoin[idx cached, swapped]`). The flip is admitted
//!   only where it is unobservable: both sources independent and
//!   evaluated in generator order regardless of orientation, the
//!   swapped build's keys/filters closed under the first binder (so it
//!   is cacheable under its own fingerprint), and the comprehension's
//!   **result expression planner-safe** — a swap enumerates the same
//!   binding multiset probe-major over the other side, which only an
//!   effectful result could distinguish.
//! * **The columnar morsel lane** (`machiavelli-exec`): a `Scan` or
//!   hash-join build side whose pushed filters are all
//!   [`parallel::par_evaluable`] under its own binder filters over the
//!   relation's **store-cached** columnar snapshot — a
//!   [`machiavelli_value::plain::ColumnarRelation`], column-major when
//!   every row is a uniform record, row-major otherwise, cached in the
//!   index store under the relation's storage identity and adopted from
//!   the shared tier by content hash. A snapshot pays only when it is
//!   reused, so one gate admits the lane: eligible filters, a stable
//!   source, the lane and the store enabled, and a relation of at least
//!   [`machiavelli_value::tuning::par_min_rows`] rows within the store's
//!   row budget; every other scan or build filters on the interpreter.
//!   The rows split into fixed-size **morsels**, run inline on the
//!   session thread at one worker (one thread configured, or a single
//!   morsel) and drained by work-stealing workers
//!   ([`machiavelli_exec::run_tasks`]) at more. `_.field op
//!   constant` conjuncts compile to per-column comparator loops;
//!   everything else runs [`parallel::plain_eval`] per row. Only the
//!   surviving row *indices* return; the session thread rebuilds a
//!   canonical filterless scan from them (an ascending subset of a
//!   canonical slice), which streams into the join above like any scan
//!   — so a Scan→Filter→HashJoin pipeline keys plainly end to end, with
//!   only binding and the result expression on the interpreter. Each
//!   side of a join filters on its own. A runtime decline (a row with no plain form, a strict
//!   conjunct evaluating non-boolean) falls back to the sequential
//!   filter with zero behavior change — pushed filters are
//!   planner-safe, so the sequential re-run raises the identical first
//!   error. Rendered `Scan[columnar par n=…]` / `Build[columnar par
//!   n=…]` when more than one thread is configured; outcomes counted
//!   in [`machiavelli_value::tuning::exec_stats`].
//! * **Proper `hom` applications** (the evaluator's side of the lane):
//!   `op` one of `+`, `*`, `andalso`, `orelse` with `z` its identity,
//!   and `f` a one-parameter closure whose body is planner-safe, over a
//!   set of at least [`machiavelli_value::tuning::par_min_rows`]
//!   elements. The set and `f`'s captured bindings are extracted to
//!   plain data and folded morsel by morsel through
//!   `machiavelli_relational::par_hom` on the same scheduler (inline at
//!   one thread).
//! * **Everything else falls back sequentially with zero behavior
//!   change**: any value that fails `to_plain` (references, dynamics,
//!   closures — identity- or code-bearing data), any expression the
//!   plain mini-evaluator declines, a sub-threshold `hom` or columnar
//!   scan, a disabled lane. The fallback is exact because everything the
//!   plain attempt may have evaluated (pushed filters, keys) is
//!   planner-safe — pure, total, terminating — so re-running it
//!   sequentially reproduces the same bindings and the same first
//!   error. Hits and fallbacks are counted
//!   per session ([`machiavelli_value::tuning::par_stats`], REPL
//!   `:stats`), store-served probes separately from uncached joins.

pub mod analysis;
pub mod explain;
pub mod logical;
pub mod parallel;
pub mod physical;

pub use analysis::{closed_under, find_select, is_safe_expr, mentions_any, split_conjuncts};
pub use explain::explain;
pub use logical::{compile, LogicalPlan, Step, Unplannable};
pub use parallel::{expr_vars, par_evaluable, plain_eval, PlainBindings};
pub use physical::{
    columnar_eligible, execute, EvalHook, ExecError, IndexKey, ParInfo, PhysOp, PhysicalPlan,
    SwapInfo,
};

use machiavelli_syntax::ast::{Expr, Generator};

/// One-stop compilation: logical plan → physical pipeline. An error
/// means the shape is not covered and the caller must use its fallback
/// path (the reason renders lazily; the hot path never formats it).
pub fn plan_select<'a>(
    generators: &'a [Generator],
    pred: &'a Expr,
    result: &'a Expr,
) -> Result<PhysicalPlan<'a>, Unplannable<'a>> {
    compile(generators, pred, result).map(|l| l.physical())
}
