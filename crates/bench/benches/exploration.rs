//! End-to-end exploration throughput (Table 1 scalability).
//!
//! Uses T1/T3-shaped workloads on scaled-down PLIC configurations so a
//! bench iteration stays in the milliseconds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use symsc_plic::PlicConfig;
use symsc_symex::Explorer;
use symsc_testbench::{test_bench, SuiteParams, TestId};

fn scaled(sources: u32) -> PlicConfig {
    let mut cfg = PlicConfig::fe310();
    cfg.sources = sources;
    cfg.max_priority = 7;
    cfg
}

fn bench_t1_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("exploration/t1_by_sources");
    group.sample_size(10);
    for sources in [8u32, 16, 32, 51] {
        group.bench_with_input(
            BenchmarkId::from_parameter(sources),
            &sources,
            |b, &sources| {
                let params = SuiteParams::default();
                b.iter(|| {
                    let report =
                        Explorer::new().explore(test_bench(TestId::T1, scaled(sources), params));
                    assert!(!report.passed());
                })
            },
        );
    }
    group.finish();
}

fn bench_t3_masking(c: &mut Criterion) {
    c.bench_function("exploration/t3_masking_16_sources", |b| {
        let params = SuiteParams::default();
        b.iter(|| {
            let report = Explorer::new().explore(test_bench(TestId::T3, scaled(16), params));
            assert!(report.passed());
        })
    });
}

criterion_group!(benches, bench_t1_scaling, bench_t3_masking);
criterion_main!(benches);
