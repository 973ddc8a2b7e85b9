//! Criterion bench for experiment E10: the family's representative member
//! vs the baselines (hash aggregation, vertex priority, SpGEMM) on each
//! stand-in.

use bfly_bench::{load_datasets, scale_from_env};
use bfly_core::baseline::count_hash_aggregation;
use bfly_core::spec::count_via_spgemm;
use bfly_core::{count, count_priority, Invariant};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_baselines(c: &mut Criterion) {
    let datasets = load_datasets(scale_from_env());
    let mut group = c.benchmark_group("baselines");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    for (d, g) in &datasets {
        let name = d.spec().name;
        group.bench_with_input(BenchmarkId::new("family_inv2", name), g, |b, g| {
            b.iter(|| black_box(count(g, Invariant::Inv2)))
        });
        group.bench_with_input(BenchmarkId::new("hash_aggregation", name), g, |b, g| {
            b.iter(|| black_box(count_hash_aggregation(g)))
        });
        group.bench_with_input(BenchmarkId::new("vertex_priority", name), g, |b, g| {
            b.iter(|| black_box(count_priority(g)))
        });
        group.bench_with_input(BenchmarkId::new("spgemm", name), g, |b, g| {
            b.iter(|| black_box(count_via_spgemm(g)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
