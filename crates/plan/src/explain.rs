//! Rendering of physical plans for `Session::plan_of` and the REPL's
//! `:plan` command. One operator per line, children indented two spaces;
//! expressions print in concrete syntax via the syntax crate's pretty
//! printer. Golden-plan tests pin this format.
//!
//! Store-backed operators carry an index marker: `HashJoin[idx cached]`
//! when the session's index store currently holds a live index with the
//! operator's fingerprint (the next execution will probe it),
//! `HashJoin[idx build]` when the next execution will build one, and a
//! bare `HashJoin` when the build table is environment-dependent and
//! never cached. The marker is a *display-level* probe by fingerprint —
//! rendering a plan does not evaluate the source, so the store cannot
//! be asked for the exact (storage, fingerprint) key the executor uses.
//! Whether a join probes on the plain lane is not rendered: the probe
//! always runs inline on the session thread, so the plan looks the
//! same at any thread count, and `:stats` counts the lane's outcomes.
//!
//! A swappable join (see `physical::SwapInfo`) whose *first-generator*
//! side holds the live cached index renders with its sides exchanged as
//! `HashJoin[idx cached, swapped]` — the orientation the executor will
//! choose at open. (The size-based flip for two uncached sides depends
//! on relation cardinalities and cannot be predicted without
//! evaluating; it renders in the unswapped orientation.)
//!
//! A scan or build side whose pushed filters are statically eligible
//! for the **columnar morsel lane** (see the crate docs), over a stable
//! source with the index store enabled, renders `Scan[columnar par n=4]`
//! / `Build[columnar par n=4]` when more than one thread is configured
//! (at one thread the same filter runs inline and renders no marker). Display-level again: an actual offload additionally depends
//! on the relation clearing `MACHIAVELLI_PAR_MIN_ROWS`, fitting the
//! store's row budget, and every row extracting to plain form. Each
//! side of a join filters on its own.

use crate::analysis::{stable_source, Conjunct};
use crate::physical::{columnar_eligible, IndexKey, PhysOp, PhysicalPlan};
use machiavelli_syntax::ast::Expr;
use machiavelli_syntax::pretty::expr_to_string;
use machiavelli_syntax::symbol::Symbol;
use std::fmt::Write as _;

/// The `[idx cached]` / `[idx build]` marker for a cacheable operator.
fn idx_marker(fingerprint: &str) -> &'static str {
    if machiavelli_store::with_store(|s| s.has_fingerprint(fingerprint)) {
        "[idx cached]"
    } else {
        "[idx build]"
    }
}

/// The configured worker count, when the parallel lane is live on this
/// thread (`None` when disabled or single-threaded).
fn live_threads() -> Option<usize> {
    if machiavelli_value::tuning::parallel_enabled() {
        let n = machiavelli_value::tuning::par_threads();
        if n > 1 {
            return Some(n);
        }
    }
    None
}

/// The `[columnar par n=…]` marker for a scan or build side whose
/// pushed filters are statically eligible for the columnar morsel lane
/// over a stable source, with the store enabled (the lane filters only
/// store-cached snapshots). Display-level like the idx marker: an
/// actual offload additionally depends on the relation clearing the
/// row cutoff, fitting the store's budget, and every row extracting to
/// plain form.
fn columnar_marker(filters: &[Conjunct<'_>], var: Symbol, source: &Expr) -> String {
    if columnar_eligible(filters, var)
        && stable_source(source)
        && machiavelli_store::store_enabled()
    {
        if let Some(n) = live_threads() {
            return format!("[columnar par n={n}]");
        }
    }
    String::new()
}

/// Render the operator tree, e.g.:
///
/// ```text
/// Project (x.Pname, y.Sname)
///   HashJoin[idx build] probe(x.S#) build(y.S#)
///     Scan x <- parts
///     Build y <- suppliers filter (y.City = "Paris")
/// ```
pub fn explain(plan: &PhysicalPlan<'_>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Project {}", expr_to_string(plan.result));
    render(&plan.root, 1, &mut out);
    // Drop the trailing newline for easy embedding in REPL output.
    out.truncate(out.trim_end().len());
    out
}

/// The ` filter (…)` suffix of a scan/build line. Shared with the
/// executor's trace-span labels (`physical::op_label`), so `:plan` and
/// `:analyze` render filters identically.
pub(crate) fn filters_suffix(filters: &[Conjunct<'_>]) -> String {
    if filters.is_empty() {
        return String::new();
    }
    let rendered: Vec<String> = filters.iter().map(|c| expr_to_string(c.expr)).collect();
    format!(" filter ({})", rendered.join(" andalso "))
}

/// Comma-joined key expressions for `probe(…)`/`build(…)` lists.
/// Shared with the executor's trace-span labels.
pub(crate) fn keys_list(keys: &[&Expr]) -> String {
    keys.iter()
        .map(|k| expr_to_string(k))
        .collect::<Vec<_>>()
        .join(", ")
}

fn render(op: &PhysOp<'_>, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    match op {
        PhysOp::Scan {
            var,
            source,
            filters,
        } => {
            let _ = writeln!(
                out,
                "{pad}Scan{} {var} <- {}{}",
                columnar_marker(filters, *var, source),
                expr_to_string(source),
                filters_suffix(filters)
            );
        }
        PhysOp::NestedLoop {
            input,
            var,
            source,
            dependent,
            filters,
        } => {
            let dep = if *dependent { " (dependent)" } else { "" };
            let _ = writeln!(
                out,
                "{pad}NestedLoop {var} <- {}{dep}{}",
                expr_to_string(source),
                filters_suffix(filters)
            );
            render(input, depth + 1, out);
        }
        PhysOp::IndexScan {
            var,
            source,
            keys,
            filters,
            fingerprint,
        } => {
            let rendered: Vec<String> = keys
                .iter()
                .map(|IndexKey { on, probe }| {
                    format!("{} = {}", expr_to_string(on), expr_to_string(probe))
                })
                .collect();
            let _ = writeln!(
                out,
                "{pad}IndexScan{} {var} <- {} key({}){}",
                idx_marker(fingerprint),
                expr_to_string(source),
                rendered.join(", "),
                filters_suffix(filters)
            );
        }
        PhysOp::HashJoin {
            input,
            var,
            source,
            filters,
            probe_keys,
            build_keys,
            fingerprint,
            swap,
            ..
        } => {
            // Predict the build-side flip the executor will take at
            // open: the swapped side holds the live cached index and
            // the normal side does not. Mirrors the open-time decision
            // at display level (by fingerprint, not storage).
            let cached = |fp: &str| machiavelli_store::with_store(|s| s.has_fingerprint(fp));
            let normal_cached = fingerprint.as_deref().is_some_and(cached);
            let swapped = !normal_cached && swap.as_ref().is_some_and(|sw| cached(&sw.fingerprint));
            if let (
                true,
                PhysOp::Scan {
                    var: pvar,
                    source: psource,
                    filters: pfilters,
                },
            ) = (swapped, input.as_ref())
            {
                // Sides exchange: the second generator streams, the
                // first builds (its pushed filters baked in).
                let _ = writeln!(
                    out,
                    "{pad}HashJoin[idx cached, swapped] probe({}) build({})",
                    keys_list(build_keys),
                    keys_list(probe_keys)
                );
                let _ = writeln!(
                    out,
                    "{pad}  Scan{} {var} <- {}{}",
                    columnar_marker(filters, *var, source),
                    expr_to_string(source),
                    filters_suffix(filters)
                );
                let _ = writeln!(
                    out,
                    "{pad}  Build{} {pvar} <- {}{}",
                    columnar_marker(pfilters, *pvar, psource),
                    expr_to_string(psource),
                    filters_suffix(pfilters)
                );
                return;
            }
            let marker = match (fingerprint, normal_cached) {
                (Some(_), true) => "[idx cached]",
                (Some(_), false) => "[idx build]",
                (None, _) => "",
            };
            let _ = writeln!(
                out,
                "{pad}HashJoin{marker} probe({}) build({})",
                keys_list(probe_keys),
                keys_list(build_keys)
            );
            render(input, depth + 1, out);
            let _ = writeln!(
                out,
                "{pad}  Build{} {var} <- {}{}",
                columnar_marker(filters, *var, source),
                expr_to_string(source),
                filters_suffix(filters)
            );
        }
        PhysOp::Filter { input, conjuncts } => {
            let rendered: Vec<String> = conjuncts.iter().map(|c| expr_to_string(c.expr)).collect();
            let _ = writeln!(out, "{pad}Filter ({})", rendered.join(" andalso "));
            render(input, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::compile;
    use machiavelli_syntax::ast::ExprKind;
    use machiavelli_syntax::parse_expr;

    fn plan_text(src: &str) -> String {
        // Render against an empty store so the idx marker is
        // deterministic (`[idx build]`), and with one worker thread so
        // no machine-dependent `[columnar par n=…]` marker appears.
        machiavelli_store::with_store(|s| s.reset());
        machiavelli_value::tuning::set_par_threads(Some(1));
        let e = parse_expr(src).unwrap();
        let ExprKind::Select {
            result,
            generators,
            pred,
        } = &e.kind
        else {
            panic!()
        };
        explain(&compile(generators, pred, result).unwrap().physical())
    }

    #[test]
    fn hash_join_rendering() {
        let text =
            plan_text("select (x.A, y.B) where x <- r, y <- s with x.K = y.K andalso y.B > 1");
        assert_eq!(
            text,
            "Project (x.A, y.B)\n  \
             HashJoin[idx build] probe(x.K) build(y.K)\n    \
             Scan x <- r\n    \
             Build y <- s filter (y.B > 1)"
        );
    }

    #[test]
    fn uncached_eligible_join_renders_par_marker() {
        // View-call sources construct fresh storage, so the join is
        // never store-cached. Its keys are covered, so it runs on the
        // plain lane — inline at any thread count, so even a
        // multi-threaded lane renders no `[par n=…]` marker.
        machiavelli_store::with_store(|s| s.reset());
        let prev = machiavelli_value::tuning::set_par_threads(Some(4));
        let e = parse_expr("select (x.A, y.B) where x <- V(r), y <- W(s) with x.K = y.K").unwrap();
        let ExprKind::Select {
            result,
            generators,
            pred,
        } = &e.kind
        else {
            panic!()
        };
        let text = explain(&compile(generators, pred, result).unwrap().physical());
        machiavelli_value::tuning::set_par_threads(prev);
        assert_eq!(
            text,
            "Project (x.A, y.B)\n  \
             HashJoin probe(x.K) build(y.K)\n    \
             Scan x <- V(r)\n    \
             Build y <- W(s)"
        );
    }

    #[test]
    fn independent_generators_render_columnar_markers() {
        // Both generators carry binder-closed, par-evaluable pushed
        // filters, but their sources are view calls: fresh storage per
        // evaluation, so no snapshot could ever be reused and neither
        // side renders the columnar lane.
        machiavelli_store::with_store(|s| s.reset());
        let prev = machiavelli_value::tuning::set_par_threads(Some(4));
        let e = parse_expr(
            "select (x.A, y.B) where x <- V(r), y <- W(s) \
             with x.A > 1 andalso x.K = y.K andalso y.B > 2",
        )
        .unwrap();
        let ExprKind::Select {
            result,
            generators,
            pred,
        } = &e.kind
        else {
            panic!()
        };
        let text = explain(&compile(generators, pred, result).unwrap().physical());
        machiavelli_value::tuning::set_par_threads(prev);
        assert_eq!(
            text,
            "Project (x.A, y.B)\n  \
             HashJoin probe(x.K) build(y.K)\n    \
             Scan x <- V(r) filter (x.A > 1)\n    \
             Build y <- W(s) filter (y.B > 2)"
        );
    }

    #[test]
    fn environment_dependent_join_renders_without_marker() {
        let text =
            plan_text("select (x.A, y.B) where x <- r, y <- s with x.K = y.K andalso y.B > cutoff");
        assert_eq!(
            text,
            "Project (x.A, y.B)\n  \
             HashJoin probe(x.K) build(y.K)\n    \
             Scan x <- r\n    \
             Build y <- s filter (y.B > cutoff)"
        );
    }

    #[test]
    fn index_scan_rendering() {
        let text = plan_text("select x.A where x <- r with x.K = limit andalso x.A > 0");
        assert_eq!(
            text,
            "Project x.A\n  \
             IndexScan[idx build] x <- r key(x.K = limit) filter (x.A > 0)"
        );
    }

    #[test]
    fn nested_loop_and_residual_rendering() {
        let text = plan_text("select x where x <- r, y <- s with x.K < y.K");
        assert_eq!(
            text,
            "Project x\n  \
             Filter (x.K < y.K)\n    \
             NestedLoop y <- s\n      \
             Scan x <- r"
        );
    }

    #[test]
    fn dependent_rendering() {
        let text = plan_text("select s where p <- db, s <- p.Suppliers with true");
        assert_eq!(
            text,
            "Project s\n  \
             NestedLoop s <- p.Suppliers (dependent)\n    \
             Scan p <- db"
        );
    }
}
