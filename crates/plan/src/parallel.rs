//! The **plain-data lane**: a mini-evaluator over [`PlainValue`] for
//! the planner-safe expression class, and the plain keying of hash
//! joins built on it.
//!
//! # Why a second evaluator is sound here
//!
//! The real evaluator works on `Rc`-based values and cannot cross
//! threads. The expressions the parallel lane evaluates are exactly the
//! **planner-safe, binder-closed** class (see [`par_evaluable`]): pure,
//! total, terminating, binder-free expressions whose free variables are
//! all row binders. On that class, [`plain_eval`] mirrors the
//! interpreter's dynamic semantics constructor by constructor
//! (wrapping integer arithmetic, IEEE comparisons, `Fields::from_vec`
//! record normalization, canonical set construction, `andalso`/`orelse`
//! short-circuiting) — and **declines** (`None`) on anything else, at
//! which point the caller abandons the parallel attempt and re-runs the
//! sequential path, reproducing byte-for-byte whatever the interpreter
//! would have done (including its errors on ill-typed programs). The
//! lane can therefore be wrong about *nothing*: it either agrees or
//! steps aside.
//!
//! # The plain-keyed join
//!
//! Every equi-join whose keys the lane covers runs **one build and one
//! streaming probe**, both on the session thread. An uncached build is
//! keyed once — [`safe_eval`], a direct-dispatch evaluator with none of
//! the interpreter's environment allocation or depth accounting, then
//! [`extract_key`] — into a local [`PlainIndex`]
//! ([`build_plain_index`]); a store-served build is already one. The
//! hash-join node in `physical.rs` keys each probe row the same way as
//! it streams past and looks the key up directly; matches are build-row
//! **indices**, re-bound to the original rows (never deep-copied).
//! Probing never fans out: the win is keying without interpreter
//! dispatch, and on the measured hosts extra workers never paid for
//! their coordination (`docs/PERFORMANCE.md`).
//!
//! A build that declines the keyer rebuilds on the `Rc` lane; a probe
//! row whose key declines is keyed by the interpreter alone. Each such
//! dynamic fallback is additionally reported as a typed
//! `machiavelli_trace::DeclineReason` by the callers in `physical.rs`
//! (`par-join-build-extract`, `par-probe-extract`), so `:analyze`,
//! `:stats`, and the server's `METRICS` exposition can say *why* a join
//! stayed sequential — see `docs/OBSERVABILITY.md`.

use crate::analysis::Conjunct;
use machiavelli_syntax::ast::{BinOp, Expr, ExprKind, UnOp};
use machiavelli_syntax::symbol::Symbol;
use machiavelli_value::faults::{self, FaultConfig};
use machiavelli_value::governor::{self, QueryGuard};
use machiavelli_value::plain::{plain_cmp, plain_eq, to_plain, PlainIndex, PlainKey, PlainValue};
use machiavelli_value::set::MSet;
use machiavelli_value::value::{value_eq, Fields, Value};
use std::cmp::Ordering;
use std::sync::Arc;

// --- the plain expression class --------------------------------------------

/// Can the plain mini-evaluator run `e` given bindings for `allowed`?
/// A strict subset of the planner-safe class: additionally requires
/// every variable to be among `allowed` (binder-closure) and excludes
/// `con` (whose consistency check is not mirrored). Exact on the safe
/// class — anything outside returns `false` and stays sequential.
pub fn par_evaluable(e: &Expr, allowed: &[Symbol]) -> bool {
    use ExprKind::*;
    match &e.kind {
        Var(x) => allowed.contains(x),
        Unit | Int(_) | Real(_) | Str(_) | Bool(_) => true,
        Record(fields) => fields.iter().all(|(_, fe)| par_evaluable(fe, allowed)),
        Field { expr, .. } | Unop { expr, .. } => par_evaluable(expr, allowed),
        If {
            cond,
            then_branch,
            else_branch,
        } => {
            par_evaluable(cond, allowed)
                && par_evaluable(then_branch, allowed)
                && par_evaluable(else_branch, allowed)
        }
        Set(items) => items.iter().all(|i| par_evaluable(i, allowed)),
        Union { left, right } => par_evaluable(left, allowed) && par_evaluable(right, allowed),
        Binop { op, left, right } => {
            // div/mod raise on zero (also outside the safe class); they
            // can never be reordered, let alone parallelized.
            !matches!(op, BinOp::Div | BinOp::Mod)
                && par_evaluable(left, allowed)
                && par_evaluable(right, allowed)
        }
        // `con` (consistency) is planner-safe but not mirrored in the
        // plain lane; everything else is outside the safe class.
        _ => false,
    }
}

/// Collect every variable mentioned in `e` into `out` (with duplicates;
/// callers dedup). Exact on the safe class, which is binder-free — on
/// it, "mentioned" and "free" coincide.
pub fn expr_vars(e: &Expr, out: &mut Vec<Symbol>) {
    use ExprKind::*;
    match &e.kind {
        Var(x) => out.push(*x),
        Unit | Int(_) | Real(_) | Str(_) | Bool(_) | OpVal(_) | Raise(_) => {}
        Record(fields) => fields.iter().for_each(|(_, fe)| expr_vars(fe, out)),
        Field { expr, .. } | Unop { expr, .. } => expr_vars(expr, out),
        If {
            cond,
            then_branch,
            else_branch,
        } => {
            expr_vars(cond, out);
            expr_vars(then_branch, out);
            expr_vars(else_branch, out);
        }
        Set(items) => items.iter().for_each(|i| expr_vars(i, out)),
        Union { left, right } | Con { left, right } | Binop { left, right, .. } => {
            expr_vars(left, out);
            expr_vars(right, out);
        }
        // Outside the safe class; callers have already declined via
        // `par_evaluable`/`is_safe_expr`. Kept total for robustness.
        _ => {}
    }
}

// --- plain bindings --------------------------------------------------------

/// The environment of a plain evaluation: an optional innermost binding
/// (the per-row/per-element one, so hot loops allocate nothing) over a
/// slice of outer bindings (captured values, probe binders). Innermost
/// wins, then the slice is searched back to front — the same shadowing
/// discipline as [`machiavelli_value::Env`] (irrelevant in practice:
/// the safe class is binder-free and generator variables are distinct).
#[derive(Clone, Copy)]
pub struct PlainBindings<'a> {
    pub head: Option<(Symbol, &'a PlainValue)>,
    pub rest: &'a [(Symbol, PlainValue)],
}

impl<'a> PlainBindings<'a> {
    pub fn lookup(&self, name: Symbol) -> Option<&'a PlainValue> {
        if let Some((n, v)) = self.head {
            if n.id() == name.id() {
                return Some(v);
            }
        }
        self.rest
            .iter()
            .rev()
            .find(|(n, _)| n.id() == name.id())
            .map(|(_, v)| v)
    }
}

// --- the mini-evaluator ----------------------------------------------------

/// Evaluate a planner-safe, binder-closed expression on plain values.
/// `None` means "outside my competence" (unsupported construct, unbound
/// variable, or an operand shape the interpreter would error on) — the
/// caller must abandon the parallel attempt and take the sequential
/// path, which reproduces the interpreter's exact behavior.
pub fn plain_eval(e: &Expr, env: &PlainBindings<'_>) -> Option<PlainValue> {
    use ExprKind::*;
    Some(match &e.kind {
        Unit => PlainValue::Unit,
        Int(n) => PlainValue::Int(*n),
        Real(r) => PlainValue::Real(*r),
        Str(s) => PlainValue::Str(s.as_str().into()),
        Bool(b) => PlainValue::Bool(*b),
        Var(x) => env.lookup(*x)?.clone(),
        Field { expr, label } => {
            let PlainValue::Record(fs) = plain_eval(expr, env)? else {
                return None;
            };
            fs.iter()
                .find(|(l, _)| l.id() == label.id())
                .map(|(_, v)| v.clone())?
        }
        Record(fields) => {
            // Mirror `Fields::from_vec`: label-sort, last duplicate wins.
            let mut entries: Vec<(Symbol, PlainValue)> = Vec::with_capacity(fields.len());
            for (l, fe) in fields {
                entries.push((*l, plain_eval(fe, env)?));
            }
            entries.sort_by_key(|(l, _)| *l);
            let mut out: Vec<(Symbol, PlainValue)> = Vec::with_capacity(entries.len());
            for (l, v) in entries {
                match out.last_mut() {
                    Some((pl, pv)) if pl.id() == l.id() => *pv = v,
                    _ => out.push((l, v)),
                }
            }
            PlainValue::Record(out.into())
        }
        Set(items) => {
            // Mirror `MSet::from_iter`: sort + dedup by the total order.
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(plain_eval(item, env)?);
            }
            out.sort_by(plain_cmp);
            out.dedup_by(|a, b| plain_eq(a, b));
            PlainValue::Set(out.into())
        }
        If {
            cond,
            then_branch,
            else_branch,
        } => match plain_eval(cond, env)? {
            PlainValue::Bool(true) => plain_eval(then_branch, env)?,
            PlainValue::Bool(false) => plain_eval(else_branch, env)?,
            _ => return None,
        },
        Union { left, right } => {
            let (PlainValue::Set(a), PlainValue::Set(b)) =
                (plain_eval(left, env)?, plain_eval(right, env)?)
            else {
                return None;
            };
            PlainValue::Set(merge_union(&a, &b))
        }
        // `andalso`/`orelse` in expression position short-circuit,
        // exactly like the interpreter (the right side is returned
        // unchecked when reached — its value is whatever it is).
        Binop {
            op: BinOp::Andalso,
            left,
            right,
        } => match plain_eval(left, env)? {
            PlainValue::Bool(false) => PlainValue::Bool(false),
            PlainValue::Bool(true) => plain_eval(right, env)?,
            _ => return None,
        },
        Binop {
            op: BinOp::Orelse,
            left,
            right,
        } => match plain_eval(left, env)? {
            PlainValue::Bool(true) => PlainValue::Bool(true),
            PlainValue::Bool(false) => plain_eval(right, env)?,
            _ => return None,
        },
        Binop { op, left, right } => {
            let l = plain_eval(left, env)?;
            let r = plain_eval(right, env)?;
            plain_binop(*op, &l, &r)?
        }
        Unop { op, expr } => match (op, plain_eval(expr, env)?) {
            // `-n` (not wrapping_neg) to mirror the interpreter exactly,
            // including its debug-build overflow behavior on i64::MIN.
            (UnOp::Neg, PlainValue::Int(n)) => PlainValue::Int(-n),
            (UnOp::Neg, PlainValue::Real(r)) => PlainValue::Real(-r),
            (UnOp::Not, PlainValue::Bool(b)) => PlainValue::Bool(!b),
            _ => return None,
        },
        // `con`, applications, folds, binders, references, …: not
        // mirrored (see `par_evaluable`).
        _ => return None,
    })
}

/// Merge union of two canonical slices — mirror of `MSet::union`.
fn merge_union(a: &[PlainValue], b: &[PlainValue]) -> std::sync::Arc<[PlainValue]> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match plain_cmp(&a[i], &b[j]) {
            Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j].clone());
                j += 1;
            }
            Ordering::Equal => {
                out.push(a[i].clone());
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out.into()
}

/// The exact mirror of the interpreter's `apply_binop` on plain
/// operands (minus the short-circuit operators, which never reach here
/// from `plain_eval`, and div/mod, which `par_evaluable` excludes).
/// `None` wherever `apply_binop` would error. Also the columnar scan
/// lane's per-column comparator (`physical::ColPred`).
pub(crate) fn plain_binop(op: BinOp, l: &PlainValue, r: &PlainValue) -> Option<PlainValue> {
    use BinOp::*;
    use PlainValue::*;
    Some(match (op, l, r) {
        (Add, Int(a), Int(b)) => Int(a.wrapping_add(*b)),
        (Sub, Int(a), Int(b)) => Int(a.wrapping_sub(*b)),
        (Mul, Int(a), Int(b)) => Int(a.wrapping_mul(*b)),
        (Add, Real(a), Real(b)) => Real(a + b),
        (Sub, Real(a), Real(b)) => Real(a - b),
        (Mul, Real(a), Real(b)) => Real(a * b),
        (RealDiv, Real(a), Real(b)) => Real(a / b),
        (Concat, Str(a), Str(b)) => Str(format!("{a}{b}").into()),
        (Eq, a, b) => Bool(plain_eq(a, b)),
        (Ne, a, b) => Bool(!plain_eq(a, b)),
        (Lt, Int(a), Int(b)) => Bool(a < b),
        (Gt, Int(a), Int(b)) => Bool(a > b),
        (Le, Int(a), Int(b)) => Bool(a <= b),
        (Ge, Int(a), Int(b)) => Bool(a >= b),
        (Lt, Real(a), Real(b)) => Bool(a < b),
        (Gt, Real(a), Real(b)) => Bool(a > b),
        (Le, Real(a), Real(b)) => Bool(a <= b),
        (Ge, Real(a), Real(b)) => Bool(a >= b),
        (Lt, Str(a), Str(b)) => Bool(a < b),
        (Gt, Str(a), Str(b)) => Bool(a > b),
        (Andalso, Bool(a), Bool(b)) => Bool(*a && *b),
        (Orelse, Bool(a), Bool(b)) => Bool(*a || *b),
        _ => return None,
    })
}

// --- the Rc-lane safe evaluator --------------------------------------------

/// Bindings for [`safe_eval`]: same shape as [`PlainBindings`], over
/// `Rc`-lane values (which never leave the session thread).
#[derive(Clone, Copy)]
pub struct ValueBindings<'a> {
    pub head: Option<(Symbol, &'a Value)>,
    pub rest: &'a [(Symbol, Value)],
}

impl<'a> ValueBindings<'a> {
    fn lookup(&self, name: Symbol) -> Option<&'a Value> {
        if let Some((n, v)) = self.head {
            if n.id() == name.id() {
                return Some(v);
            }
        }
        self.rest
            .iter()
            .rev()
            .find(|(n, _)| n.id() == name.id())
            .map(|(_, v)| v)
    }
}

/// Evaluate a planner-safe, binder-closed expression on `Rc`-lane
/// values *without* the interpreter: no environment allocation, no
/// depth/stack accounting, direct dispatch. Same decline contract as
/// [`plain_eval`] (`None` → caller takes the interpreter path, which
/// reproduces the exact sequential behavior including errors), and the
/// same semantics mirror: `Fields::from_vec` records, canonical sets,
/// wrapping integer arithmetic, short-circuit `andalso`/`orelse`.
///
/// This is what makes extraction cheap enough to win: keying a build
/// row costs a field scan and an `Rc` bump instead of an `EnvNode`
/// allocation plus a full interpreter dispatch per key.
pub fn safe_eval(e: &Expr, env: &ValueBindings<'_>) -> Option<Value> {
    use ExprKind::*;
    Some(match &e.kind {
        Unit => Value::Unit,
        Int(n) => Value::Int(*n),
        Real(r) => Value::Real(*r),
        Str(s) => Value::str(s.as_str()),
        Bool(b) => Value::Bool(*b),
        Var(x) => env.lookup(*x)?.clone(),
        Field { expr, label } => {
            let Value::Record(fs) = safe_eval(expr, env)? else {
                return None;
            };
            fs.get(label).cloned()?
        }
        Record(fields) => {
            let mut entries = Vec::with_capacity(fields.len());
            for (l, fe) in fields {
                entries.push((*l, safe_eval(fe, env)?));
            }
            Value::Record(Fields::from_vec(entries))
        }
        Set(items) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(safe_eval(item, env)?);
            }
            Value::Set(MSet::from_iter(out))
        }
        If {
            cond,
            then_branch,
            else_branch,
        } => match safe_eval(cond, env)? {
            Value::Bool(true) => safe_eval(then_branch, env)?,
            Value::Bool(false) => safe_eval(else_branch, env)?,
            _ => return None,
        },
        Union { left, right } => {
            let (Value::Set(a), Value::Set(b)) = (safe_eval(left, env)?, safe_eval(right, env)?)
            else {
                return None;
            };
            Value::Set(a.union(&b))
        }
        Binop {
            op: BinOp::Andalso,
            left,
            right,
        } => match safe_eval(left, env)? {
            Value::Bool(false) => Value::Bool(false),
            Value::Bool(true) => safe_eval(right, env)?,
            _ => return None,
        },
        Binop {
            op: BinOp::Orelse,
            left,
            right,
        } => match safe_eval(left, env)? {
            Value::Bool(true) => Value::Bool(true),
            Value::Bool(false) => safe_eval(right, env)?,
            _ => return None,
        },
        Binop { op, left, right } => {
            let l = safe_eval(left, env)?;
            let r = safe_eval(right, env)?;
            safe_binop(*op, &l, &r)?
        }
        Unop { op, expr } => match (op, safe_eval(expr, env)?) {
            (UnOp::Neg, Value::Int(n)) => Value::Int(-n),
            (UnOp::Neg, Value::Real(r)) => Value::Real(-r),
            (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
            _ => return None,
        },
        _ => return None,
    })
}

/// Mirror of the interpreter's `apply_binop` on the class
/// [`par_evaluable`] admits; `None` wherever it would error.
fn safe_binop(op: BinOp, l: &Value, r: &Value) -> Option<Value> {
    use BinOp::*;
    Some(match (op, l, r) {
        (Add, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_add(*b)),
        (Sub, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_sub(*b)),
        (Mul, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_mul(*b)),
        (Add, Value::Real(a), Value::Real(b)) => Value::Real(a + b),
        (Sub, Value::Real(a), Value::Real(b)) => Value::Real(a - b),
        (Mul, Value::Real(a), Value::Real(b)) => Value::Real(a * b),
        (RealDiv, Value::Real(a), Value::Real(b)) => Value::Real(a / b),
        (Concat, Value::Str(a), Value::Str(b)) => Value::str(format!("{a}{b}")),
        (Eq, a, b) => Value::Bool(value_eq(a, b)),
        (Ne, a, b) => Value::Bool(!value_eq(a, b)),
        (Lt, Value::Int(a), Value::Int(b)) => Value::Bool(a < b),
        (Gt, Value::Int(a), Value::Int(b)) => Value::Bool(a > b),
        (Le, Value::Int(a), Value::Int(b)) => Value::Bool(a <= b),
        (Ge, Value::Int(a), Value::Int(b)) => Value::Bool(a >= b),
        (Lt, Value::Real(a), Value::Real(b)) => Value::Bool(a < b),
        (Gt, Value::Real(a), Value::Real(b)) => Value::Bool(a > b),
        (Le, Value::Real(a), Value::Real(b)) => Value::Bool(a <= b),
        (Ge, Value::Real(a), Value::Real(b)) => Value::Bool(a >= b),
        (Lt, Value::Str(a), Value::Str(b)) => Value::Bool(a < b),
        (Gt, Value::Str(a), Value::Str(b)) => Value::Bool(a > b),
        (Andalso, Value::Bool(a), Value::Bool(b)) => Value::Bool(*a && *b),
        (Orelse, Value::Bool(a), Value::Bool(b)) => Value::Bool(*a || *b),
        _ => return None,
    })
}

// --- plain keying ---------------------------------------------------------

/// Is `e` a bare binder/field chain (`x`, `x.K`, `x.A.B`)? Such keys —
/// the common equi-join shape — resolve by reference, skipping the
/// owned `safe_eval` clone per row.
fn is_path(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Var(_) => true,
        ExprKind::Field { expr, .. } => is_path(expr),
        _ => false,
    }
}

/// Resolve a binder/field chain to a borrowed value (`None` where the
/// interpreter would error: unbound, non-record, missing field).
fn resolve_path<'v>(e: &Expr, env: &ValueBindings<'v>) -> Option<&'v Value> {
    match &e.kind {
        ExprKind::Var(x) => env.lookup(*x),
        ExprKind::Field { expr, label } => match resolve_path(expr, env)? {
            Value::Record(fs) => fs.get(label),
            _ => None,
        },
        _ => None,
    }
}

fn extract_one(key: &Expr, env: &ValueBindings<'_>) -> Option<PlainValue> {
    if is_path(key) {
        to_plain(resolve_path(key, env)?)
    } else {
        to_plain(&safe_eval(key, env)?)
    }
}

/// Evaluate a key closure on the `Rc` lane and extract the tuple to
/// plain data ([`PlainKey`] — the index store's plain group key, so
/// extracted probe keys look up cached `PlainIndex` groups directly).
/// `None` when the safe evaluator declines or the key value is
/// identity-bearing (a `ref`/`dynamic` key cannot cross the lane — its
/// equality is identity, which plain data cannot represent).
pub fn extract_key(keys: &[&Expr], env: &ValueBindings<'_>) -> Option<PlainKey> {
    if let [single] = keys {
        return extract_one(single, env).map(PlainKey::One);
    }
    keys.iter()
        .map(|k| extract_one(k, env))
        .collect::<Option<Vec<_>>>()
        .map(PlainKey::Tuple)
}

/// Every this many rows a columnar morsel loop or the plain probe's key
/// loop polls the query guard, so cancellation and deadlines reach into
/// a running scan or join instead of waiting for it to drain. A power
/// of two so the gate is a mask.
pub(crate) const CHUNK_TICK_MASK: usize = 1023;

/// Context a parallel worker carries across the thread boundary: the
/// coordinator's query guard (shared, `Sync`) and its effective fault
/// config (thread locals do not inherit, so the coordinator captures
/// both before fanning out). [`WorkerCx::enter`] runs the worker-side
/// fail point; [`WorkerCx::tripped`] is the chunk loop's poll — a
/// tripped guard makes workers bail with a **truncated** result, which
/// is safe because the coordinator re-checks the (sticky) guard after
/// every fan-out and surfaces the trip as an error before any result is
/// used.
#[derive(Clone, Default)]
pub(crate) struct WorkerCx {
    guard: Option<Arc<QueryGuard>>,
    faults: Option<FaultConfig>,
}

impl WorkerCx {
    /// Capture the coordinator's context (call before the fan-out).
    pub(crate) fn capture() -> WorkerCx {
        WorkerCx {
            guard: governor::current(),
            faults: faults::faults_active().then(faults::fault_config),
        }
    }

    /// Worker-side entry: install the fault config on this thread and
    /// run the injected-panic fail point. (Panics cross the scope join
    /// and are trapped by the coordinator's `catch_unwind` in
    /// `physical.rs`.)
    pub(crate) fn enter(&self) {
        if let Some(cfg) = self.faults {
            faults::set_fault_config(Some(cfg));
        }
        faults::maybe_worker_panic();
    }

    /// Chunk-loop poll: should this worker stop early?
    pub(crate) fn tripped(&self) -> bool {
        self.guard.as_ref().is_some_and(|g| g.check().is_some())
    }
}

/// Key an uncached build side into a local plain table on the session
/// thread: pushed filters prune rows (through [`safe_eval`]), survivors
/// are keyed by [`extract_key`], and groups hold ascending row indices
/// (= build-source canonical order, matching the sequential build).
/// `None` on any decline — a filter or key
/// the safe evaluator declines, a strict filter evaluating non-boolean
/// (the sequential build raises it), an identity-bearing key — and the
/// caller rebuilds on the `Rc` lane.
pub fn build_plain_index(
    items: &MSet,
    var: Symbol,
    filters: &[Conjunct<'_>],
    build_keys: &[&Expr],
) -> Option<PlainIndex> {
    let mut index = PlainIndex::local(items.len());
    'rows: for (i, row) in items.iter().enumerate() {
        let env = ValueBindings {
            head: Some((var, row)),
            rest: &[],
        };
        for c in filters {
            match safe_eval(c.expr, &env) {
                Some(Value::Bool(true)) => {}
                Some(Value::Bool(false)) => continue 'rows,
                // A lenient (syntactically last) conjunct rejects the
                // row on a non-boolean, like the sequential `check`; a
                // strict one would error.
                Some(_) if !c.strict => continue 'rows,
                _ => return None,
            }
        }
        index.push(extract_key(build_keys, &env)?, i as u32);
    }
    Some(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use machiavelli_syntax::parse_expr;
    use machiavelli_value::plain::{to_plain, ColumnarRelation};
    use machiavelli_value::Value;

    fn plain_record(pairs: &[(&str, i64)]) -> PlainValue {
        to_plain(&Value::record(
            pairs
                .iter()
                .map(|(l, n)| (Symbol::intern(l), Value::Int(*n))),
        ))
        .unwrap()
    }

    fn eval_str(src: &str, env: &PlainBindings<'_>) -> Option<PlainValue> {
        plain_eval(&parse_expr(src).unwrap(), env)
    }

    #[test]
    fn mini_eval_matches_interpreter_semantics() {
        let row = plain_record(&[("K", 7), ("A", -3)]);
        let env = PlainBindings {
            head: Some((Symbol::intern("x"), &row)),
            rest: &[],
        };
        assert_eq!(eval_str("x.K + 1", &env), Some(PlainValue::Int(8)));
        assert_eq!(eval_str("x.K > x.A", &env), Some(PlainValue::Bool(true)));
        assert_eq!(
            eval_str("if x.A < 0 then 0 - x.A else x.A", &env),
            Some(PlainValue::Int(3))
        );
        assert_eq!(
            eval_str("x.K = 7 andalso not(x.A = 0)", &env),
            Some(PlainValue::Bool(true))
        );
        // Short-circuit: the ill-shaped right side is never reached.
        assert_eq!(
            eval_str("false andalso (x.Missing = 1)", &env),
            Some(PlainValue::Bool(false))
        );
        // Unsupported constructs decline rather than guess.
        assert_eq!(eval_str("x.Missing", &env), None);
        assert_eq!(eval_str("f(x.K)", &env), None);
        assert_eq!(eval_str("1 div x.K = 0", &env), None);
    }

    #[test]
    fn mini_eval_sets_and_records_are_canonical() {
        let env = PlainBindings {
            head: None,
            rest: &[],
        };
        let s = eval_str("union({3, 1}, {2, 3})", &env).unwrap();
        let PlainValue::Set(items) = s else { panic!() };
        let ints: Vec<i64> = items
            .iter()
            .map(|p| match p {
                PlainValue::Int(n) => *n,
                _ => panic!(),
            })
            .collect();
        assert_eq!(ints, vec![1, 2, 3]);
        let r = eval_str("[B=2, A=1]", &env).unwrap();
        let PlainValue::Record(entries) = r else {
            panic!()
        };
        assert_eq!(entries[0].0.as_str(), "A");
    }

    #[test]
    fn par_evaluable_classifies() {
        let x = [Symbol::intern("x")];
        for src in ["x.K", "x.K + 1", "if x.A > 0 then x.B else 0", "{x.K}"] {
            assert!(par_evaluable(&parse_expr(src).unwrap(), &x), "{src}");
        }
        for src in ["y.K", "f(x)", "x.K div 2", "con(x, [A=1])", "!x"] {
            assert!(!par_evaluable(&parse_expr(src).unwrap(), &x), "{src}");
        }
    }

    #[test]
    fn safe_eval_mirrors_interpreter_semantics() {
        let row = Value::record([
            (Symbol::intern("K"), Value::Int(7)),
            (Symbol::intern("A"), Value::Int(-3)),
        ]);
        let env = ValueBindings {
            head: Some((Symbol::intern("x"), &row)),
            rest: &[],
        };
        let ev = |src: &str| safe_eval(&parse_expr(src).unwrap(), &env);
        assert_eq!(ev("x.K + 1"), Some(Value::Int(8)));
        assert_eq!(
            ev("(x.K, x.A)"),
            Some(Value::tuple([Value::Int(7), Value::Int(-3)]))
        );
        assert_eq!(ev("if x.A < 0 then 0 - x.A else x.A"), Some(Value::Int(3)));
        assert_eq!(
            ev("union({x.K}, {1})"),
            Some(Value::set([Value::Int(1), Value::Int(7)]))
        );
        assert_eq!(
            ev("false andalso (x.Missing = 1)"),
            Some(Value::Bool(false))
        );
        assert_eq!(ev("x.Missing"), None);
        assert_eq!(ev("f(x.K)"), None);
        assert_eq!(ev("x.K div 2"), None);
    }

    fn row_k(k: i64, a: i64) -> Value {
        Value::record([
            (Symbol::intern("K"), Value::Int(k)),
            (Symbol::intern("A"), Value::Int(a)),
        ])
    }

    /// Probe keys `y.K` extracted through the production path.
    fn probe_keys(ks: &[i64]) -> Vec<PlainKey> {
        let key = parse_expr("y.K").unwrap();
        ks.iter()
            .map(|&k| {
                let row = row_k(k, 0);
                let env = ValueBindings {
                    head: Some((Symbol::intern("y"), &row)),
                    rest: &[],
                };
                extract_key(&[&key], &env).unwrap()
            })
            .collect()
    }

    /// Look every key up, as the hash-join node does one probe row at a
    /// time.
    fn probe(index: &PlainIndex, keys: &[PlainKey]) -> Vec<Vec<u32>> {
        keys.iter().map(|k| index.get(k).to_vec()).collect()
    }

    /// Build rows K = 1, 2, 2, 9 keyed by `x.K` into a local table.
    fn local_table() -> PlainIndex {
        let build = MSet::from_iter(
            [1, 2, 2, 9]
                .iter()
                .enumerate()
                .map(|(i, &k)| row_k(k, i as i64)),
        );
        let key = parse_expr("x.K").unwrap();
        build_plain_index(&build, Symbol::intern("x"), &[], &[&key]).unwrap()
    }

    #[test]
    fn plain_join_matches_expected_groups() {
        let index = local_table();
        let keys = probe_keys(&[2, 5, 1]);
        assert_eq!(probe(&index, &keys), vec![vec![1, 2], vec![], vec![0]]);
    }

    #[test]
    fn build_filters_prune_the_local_table() {
        let build = MSet::from_iter((0..6).map(|i| row_k(i % 2, i)));
        let x = Symbol::intern("x");
        let key = parse_expr("x.K").unwrap();
        let filter = parse_expr("x.A > 1").unwrap();
        let filters = [Conjunct {
            expr: &filter,
            strict: false,
        }];
        let index = build_plain_index(&build, x, &filters, &[&key]).unwrap();
        let one = probe_keys(&[1]);
        assert_eq!(probe(&index, &one), vec![vec![3, 5]]);
        // A strict filter evaluating non-boolean declines (the
        // sequential build raises it).
        let strict = [Conjunct {
            expr: &key,
            strict: true,
        }];
        assert!(build_plain_index(&build, x, &strict, &[&key]).is_none());
    }

    #[test]
    fn identity_bearing_keys_do_not_extract() {
        use machiavelli_value::value::RefValue;
        let row = Value::record([(
            Symbol::intern("K"),
            Value::Ref(RefValue::new(Value::Int(1))),
        )]);
        let env = ValueBindings {
            head: Some((Symbol::intern("x"), &row)),
            rest: &[],
        };
        let key = parse_expr("x.K").unwrap();
        assert!(extract_key(&[&key], &env).is_none());
        let build = MSet::from_iter([row]);
        assert!(build_plain_index(&build, Symbol::intern("x"), &[], &[&key]).is_none());
    }

    #[test]
    fn empty_sides_are_fine() {
        let empty = MSet::from_iter(Vec::<Value>::new());
        let key = parse_expr("x.K").unwrap();
        let index = build_plain_index(&empty, Symbol::intern("x"), &[], &[&key]).unwrap();
        assert!(index.is_empty());
        assert_eq!(probe(&index, &[]), Vec::<Vec<u32>>::new());
        assert_eq!(probe(&index, &probe_keys(&[1])), vec![Vec::<u32>::new()]);
    }

    #[test]
    fn store_shaped_index_probes_like_a_local_table() {
        // The same grouping assembled the way the store does (with a
        // row snapshot) answers exactly like the local table.
        let rows: Vec<PlainValue> = [1, 2, 2, 9].iter().map(|&k| PlainValue::Int(k)).collect();
        let index = PlainIndex::from_groups(
            rows.into(),
            [
                (PlainKey::One(PlainValue::Int(1)), vec![0]),
                (PlainKey::One(PlainValue::Int(2)), vec![1, 2]),
                (PlainKey::One(PlainValue::Int(9)), vec![3]),
            ],
        );
        let keys = probe_keys(&[2, 5, 1]);
        assert_eq!(probe(&index, &keys), probe(&local_table(), &keys));
    }

    /// Run `f` with a fault config installed on this thread (workers
    /// inherit it through [`WorkerCx::capture`]), restoring after.
    fn with_faults<T>(cfg: FaultConfig, f: impl FnOnce() -> T) -> T {
        let prev = faults::set_fault_config(Some(cfg));
        let out = f();
        faults::set_fault_config(prev);
        out
    }

    /// A columnar filter over the rows 0..8 at four threads and one-row
    /// morsels, so the scheduler really asks for workers, each entering
    /// through [`WorkerCx::enter`] like the production filter's.
    fn filter_on_workers() -> Option<Vec<u32>> {
        let snap = ColumnarRelation::from_set(&MSet::from_iter((0..8).map(Value::Int))).unwrap();
        let prev = machiavelli_value::tuning::set_morsel_rows(Some(1));
        let cx = WorkerCx::capture();
        let (keep, _) =
            machiavelli_exec::filter_indices(4, &snap, || cx.enter(), |_, i| Some(i % 3 == 0));
        machiavelli_value::tuning::set_morsel_rows(prev);
        keep
    }

    #[test]
    fn injected_worker_panic_resumes_on_the_coordinator() {
        // A panic on a fan-out worker must reach the caller as a
        // catchable unwind with the original payload, so the driver in
        // `physical.rs` can turn it into a structured
        // `ExecError::WorkerPanic` instead of aborting the process.
        let cfg = FaultConfig {
            worker_panic_ppm: 1_000_000,
            seed: 11,
            ..FaultConfig::off()
        };
        let caught = with_faults(cfg, || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(filter_on_workers))
        });
        let payload = caught.expect_err("worker panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains(machiavelli_value::faults::INJECTED_PANIC_PREFIX),
            "original payload survives: {msg:?}"
        );
    }

    #[test]
    fn injected_spawn_denial_degrades_to_inline_with_identical_results() {
        let cfg = FaultConfig {
            spawn_fail_ppm: 1_000_000,
            seed: 5,
            ..FaultConfig::off()
        };
        machiavelli_value::faults::reset_injected_faults();
        let keep = with_faults(cfg, filter_on_workers);
        assert_eq!(keep, Some(vec![0, 3, 6]), "inline fallback agrees");
        assert!(
            machiavelli_value::faults::injected_faults().spawn_failures > 0,
            "the denial path actually ran"
        );
    }
}
