//! Parallel `hom`.
//!
//! The paper observes that *proper* applications of `hom` — `op`
//! associative and commutative, `f` side-effect free — "have the property
//! of being computable in parallel". [`par_hom`] realizes the claim:
//! split the set across threads, fold each chunk, and combine the
//! partial results with `op`.
//!
//! Machiavelli's interpreted values are deliberately single-threaded
//! (`Rc`-based), so the parallel path operates on **extracted plain
//! data** (`machiavelli_value::plain`). Since PR 4 this is no longer an
//! ablation-only demonstration: the evaluator classifies proper `hom`
//! applications (known associative-commutative `op` with its identity
//! as `z`, `f` with a planner-safe body), extracts the set through
//! `to_plain`, and folds it here — falling back to the sequential
//! interpreter fold whenever the classification or extraction declines.
//!
//! The fold runs on the workspace's one scheduler,
//! [`machiavelli_exec::run_tasks`]: the set is cut into morsels, each
//! morsel folds sequentially, and the partials combine in morsel order.
//! So worker panics re-raise on the coordinator with their original
//! payload, denied spawns leave their morsels to the surviving workers,
//! and one thread (or one morsel) folds inline — all the scheduler's
//! guarantees, none of them re-implemented here.

/// Sequential `hom(f, op, z, items)` as the paper's right fold.
pub fn seq_hom<T, B>(items: &[T], f: impl Fn(&T) -> B, op: impl Fn(B, B) -> B, z: B) -> B {
    let mut acc = z;
    for x in items.iter().rev() {
        acc = op(f(x), acc);
    }
    acc
}

/// Parallel `hom` for *proper* applications: `op` must be associative
/// and commutative with identity `z` (each morsel is seeded with `z`,
/// so a non-identity `z` would be folded in once per morsel). Folds
/// [`machiavelli_exec::morsels`] of `items` across up to `n_threads`
/// work-stealing workers.
pub fn par_hom<T, B>(
    items: &[T],
    f: impl Fn(&T) -> B + Sync,
    op: impl Fn(B, B) -> B + Sync,
    z: B,
    n_threads: usize,
) -> B
where
    T: Sync,
    B: Send + Clone + Sync,
{
    let (partials, _) = machiavelli_exec::run_tasks(
        n_threads,
        machiavelli_exec::morsels(items.len()),
        || (),
        |_, m: machiavelli_exec::Morsel| seq_hom(&items[m.start..m.end], &f, &op, z.clone()),
    );
    let mut acc = z;
    for p in partials.into_iter().rev() {
        acc = op(p, acc);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_hom_matches_definition() {
        // op(f(x1), op(f(x2), op(f(x3), z)))
        let r = seq_hom(&[1, 2, 3], |&x| x * 10, |a, b| a + b, 0);
        assert_eq!(r, 60);
    }

    #[test]
    fn par_matches_seq_for_proper_applications() {
        let data: Vec<i64> = (0..10_000).collect();
        for threads in [1, 2, 4, 8] {
            assert_eq!(
                par_hom(&data, |&x| x, |a, b| a + b, 0, threads),
                seq_hom(&data, |&x| x, |a, b| a + b, 0)
            );
            assert_eq!(
                par_hom(&data, |&x| x % 97, |a, b| a.max(b), i64::MIN, threads),
                96
            );
        }
    }

    #[test]
    fn par_count_and_filtering_hom() {
        // filter-like hom: count elements above a threshold.
        let data: Vec<i64> = (0..5000).collect();
        let count = par_hom(&data, |&x| i64::from(x > 2499), |a, b| a + b, 0, 4);
        assert_eq!(count, 2500);
    }

    #[test]
    fn many_morsels_combine_in_order() {
        let prev = machiavelli_value::tuning::set_morsel_rows(Some(7));
        let data: Vec<i64> = (0..100).collect();
        for threads in [1, 2, 4] {
            assert_eq!(
                par_hom(&data, |&x| x, |a, b| a + b, 0, threads),
                (0..100).sum::<i64>()
            );
        }
        machiavelli_value::tuning::set_morsel_rows(prev);
    }

    #[test]
    fn small_inputs_fall_back_to_sequential() {
        assert_eq!(par_hom(&[1, 2, 3], |&x| x, |a, b| a + b, 0, 16), 6);
        assert_eq!(par_hom::<i64, i64>(&[], |&x| x, |a, b| a + b, 7, 4), 7);
    }

    #[test]
    fn worker_panic_payload_reaches_the_caller() {
        let data: Vec<i64> = (0..1000).collect();
        let caught = std::panic::catch_unwind(|| {
            par_hom(
                &data,
                |&x| {
                    if x == 777 {
                        panic!("boom at {x}");
                    }
                    x
                },
                |a, b| a + b,
                0,
                4,
            )
        });
        let payload = caught.expect_err("worker panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "boom at 777", "original payload, not a join wrapper");
    }
}
