//! A2 bench — the paper's parallel-`hom` claim: proper applications (op
//! associative-commutative) computed sequentially vs across threads.
//! The parallel fold runs morsels on the workspace scheduler
//! (`machiavelli_exec::run_tasks`); `par1` is the same fold inline.
//! Expected shape: parallel wins once per-element work or volume is
//! large enough to amortize thread startup; sequential wins on small
//! sets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

/// Short measurement windows so the full figure suite runs in minutes;
/// rerun individual benches with Criterion CLI flags for precision.
fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}
use machiavelli_relational::{par_hom, seq_hom};

/// A deliberately non-trivial per-element function (so there is real
/// work to parallelize): a short pseudo-random walk.
fn work(x: &i64) -> i64 {
    let mut v = *x as u64 | 1;
    for _ in 0..64 {
        v = v
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    (v >> 33) as i64
}

fn bench_hom(c: &mut Criterion) {
    let mut group = c.benchmark_group("hom_parallel");
    group.sample_size(15);
    for n in [1_000usize, 100_000, 1_000_000] {
        let data: Vec<i64> = (0..n as i64).collect();
        group.bench_with_input(BenchmarkId::new("seq", n), &data, |b, d| {
            b.iter(|| seq_hom(d, work, |a, b| a.wrapping_add(b), 0))
        });
        for threads in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("par{threads}"), n),
                &data,
                |b, d| b.iter(|| par_hom(d, work, |a, b| a.wrapping_add(b), 0, threads)),
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_hom
}
criterion_main!(benches);
