//! Ablation E9: the paper's §VI future-work item — degree sorting. The
//! same stand-in is counted under its natural labelling, a
//! degree-ascending relabelling, and a degree-descending relabelling of
//! the partitioned side; and the vertex-priority baseline (which *needs*
//! the order) is included for reference.

use bfly_core::{count, count_priority, Invariant};
use bfly_graph::ordering::{degree_ascending, degree_descending, relabel};
use bfly_graph::{Side, StandIn};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_ordering(c: &mut Criterion) {
    let g = StandIn::ArxivCondMat.generate_scaled(
        std::env::var("BFLY_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.2),
    );
    let asc = relabel(&g, Side::V2, &degree_ascending(&g, Side::V2));
    let desc = relabel(&g, Side::V2, &degree_descending(&g, Side::V2));
    // Relabelling must not change the answer.
    assert_eq!(count(&g, Invariant::Inv2), count(&asc, Invariant::Inv2));
    assert_eq!(count(&g, Invariant::Inv2), count(&desc, Invariant::Inv2));

    let mut group = c.benchmark_group("ablation_ordering");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    for (label, graph) in [("natural", &g), ("deg_asc", &asc), ("deg_desc", &desc)] {
        group.bench_with_input(BenchmarkId::new("inv2", label), graph, |b, g| {
            b.iter(|| black_box(count(g, Invariant::Inv2)))
        });
    }
    group.bench_function("vertex_priority/natural", |b| {
        b.iter(|| black_box(count_priority(&g)))
    });
    group.finish();
}

criterion_group!(benches, bench_ordering);
criterion_main!(benches);
