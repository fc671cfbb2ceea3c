//! SMT-solver microbenchmarks.
//!
//! The paper observes that "the solver time vastly dominates the overall
//! execution time in most tests". These benches characterize the solver on
//! the query shapes the PLIC exploration produces: arithmetic equalities,
//! range constraints, and the interrupt-selection chain, plus the
//! whole-query-cache ablation from DESIGN.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use symsc_smt::blast::Blaster;
use symsc_smt::cnf::{load_aig, CnfResult};
use symsc_smt::sat::SatSolver;
use symsc_smt::{SatResult, Solver, TermId, TermPool, Width};

fn bench_linear_equation(c: &mut Criterion) {
    c.bench_function("solver/linear_equation_w32", |b| {
        b.iter(|| {
            let mut pool = TermPool::new();
            let x = pool.var("x", Width::W32);
            let three = pool.constant(3, Width::W32);
            let product = pool.mul(x, three);
            let target = pool.constant(12345, Width::W32);
            let eq = pool.eq(product, target);
            let mut solver = Solver::without_cache();
            assert!(solver.check(&pool, &[eq]).is_sat());
        })
    });
}

fn bench_range_unsat(c: &mut Criterion) {
    c.bench_function("solver/contradictory_ranges_w32", |b| {
        b.iter(|| {
            let mut pool = TermPool::new();
            let x = pool.var("x", Width::W32);
            let lo = pool.constant(1000, Width::W32);
            let hi = pool.constant(10, Width::W32);
            let c1 = pool.ugt(x, lo);
            let c2 = pool.ult(x, hi);
            let mut solver = Solver::without_cache();
            assert_eq!(solver.check(&pool, &[c1, c2]), SatResult::Unsat);
        })
    });
}

/// The PLIC-shaped selection query: `sources` one-hot entries selected by
/// a symbolic id; prove the selection is never zero (UNSAT query).
fn selection_chain(pool: &mut TermPool, sources: u32) -> Vec<TermId> {
    let w = Width::W32;
    let i = pool.var("i", w);
    let one = pool.constant(1, w);
    let n = pool.constant(u64::from(sources), w);
    let lower = pool.uge(i, one);
    let upper = pool.ule(i, n);

    let zero = pool.constant(0, w);
    let mut best = zero;
    for k in 1..=sources {
        let kc = pool.constant(u64::from(k), w);
        let pending = pool.eq(i, kc);
        let still_zero = pool.eq(best, zero);
        let take = pool.and(pending, still_zero);
        best = pool.ite(take, kc, best);
    }
    let selected = pool.ne(best, zero);
    let failed = pool.not(selected);
    vec![lower, upper, failed]
}

fn bench_selection_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/plic_selection_unsat");
    for sources in [8u32, 16, 32, 51] {
        group.bench_with_input(
            BenchmarkId::from_parameter(sources),
            &sources,
            |b, &sources| {
                b.iter(|| {
                    let mut pool = TermPool::new();
                    let q = selection_chain(&mut pool, sources);
                    let mut solver = Solver::without_cache();
                    assert_eq!(solver.check(&pool, &q), SatResult::Unsat);
                })
            },
        );
    }
    group.finish();
}

/// The CDCL core alone on `sat_diag`'s shape A: the selection chain
/// asking for a selection that differs from the index (UNSAT), blasted
/// and loaded once outside the timed loop, then solved by a fresh core
/// per iteration — the per-call work of the SAT layer without the
/// solver stack above it.
fn bench_sat_core_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat_core/plic_selection_unsat");
    for sources in [24u32, 64, 128] {
        let w = Width::W32;
        let mut pool = TermPool::new();
        let i = pool.var("i", w);
        let one = pool.constant(1, w);
        let n = pool.constant(u64::from(sources), w);
        let lower = pool.uge(i, one);
        let upper = pool.ule(i, n);
        let zero = pool.constant(0, w);
        let mut best = zero;
        for k in 1..=sources {
            let kc = pool.constant(u64::from(k), w);
            let pending = pool.eq(i, kc);
            let still_zero = pool.eq(best, zero);
            let take = pool.and(pending, still_zero);
            best = pool.ite(take, kc, best);
        }
        let selected = pool.eq(best, i);
        let bad = pool.not(selected);
        let mut blaster = Blaster::new();
        let roots: Vec<_> = [lower, upper, bad]
            .iter()
            .map(|&t| blaster.blast(&pool, t)[0])
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(sources), &sources, |b, _| {
            b.iter(|| {
                let mut sat = SatSolver::new();
                match load_aig(blaster.aig(), &roots, &mut sat) {
                    CnfResult::TriviallyUnsat => unreachable!("needs search"),
                    CnfResult::Loaded(_) => assert!(!sat.solve()),
                }
            })
        });
    }
    group.finish();
}

fn bench_query_cache(c: &mut Criterion) {
    // DESIGN.md ablation 5: the whole-query memo cache. Repeated identical
    // queries are the common case under forked re-execution.
    let mut group = c.benchmark_group("solver/query_cache_ablation");
    for cached in [true, false] {
        let name = if cached { "cached" } else { "uncached" };
        group.bench_function(name, |b| {
            let mut pool = TermPool::new();
            let q = selection_chain(&mut pool, 16);
            let mut solver = if cached {
                Solver::new()
            } else {
                Solver::without_cache()
            };
            b.iter(|| {
                assert_eq!(solver.check(&pool, &q), SatResult::Unsat);
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_linear_equation,
    bench_range_unsat,
    bench_selection_chain,
    bench_sat_core_selection,
    bench_query_cache
);
criterion_main!(benches);
