//! Pins the counting-sort degree orders against the comparison sorts
//! they replaced.
//!
//! `global_degree_ranks` ranks `V1 ∪ V2` by non-increasing degree, ties
//! by side then id, and `degree_ascending` / `degree_descending` order one
//! side by degree. All three are a stable counting sort now. The
//! references below are the former tuple and key sorts, kept verbatim.
//! The orders must match them exactly: the priority kernels' work
//! counters and every relabelled kernel's cost profile depend on the tie
//! order, not only on the degree order.

use bfly::core::family::{
    count_priority_recorded, count_ranked_recorded, priority_wedge_work, priority_wedge_work_with,
    PriorityRanks,
};
use bfly::core::telemetry::{Counter, InMemoryRecorder};
use bfly::core::testkit::fixture_battery;
use bfly::graph::generators::chung_lu;
use bfly::graph::ordering::{degree_ascending, degree_descending, global_degree_ranks};
use bfly::graph::{BipartiteGraph, Side};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The former `global_degree_ranks`: a comparison sort of
/// `(degree, side, id)` tuples, degree descending.
fn reference_ranks(g: &BipartiteGraph) -> (Vec<u32>, Vec<u32>) {
    let m = g.nv1();
    let n = g.nv2();
    let mut all: Vec<(usize, u8, u32)> = Vec::with_capacity(m + n);
    for u in 0..m {
        all.push((g.deg_v1(u), 0, u as u32));
    }
    for v in 0..n {
        all.push((g.deg_v2(v), 1, v as u32));
    }
    all.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let mut rank_v1 = vec![0u32; m];
    let mut rank_v2 = vec![0u32; n];
    for (rank, &(_, side, id)) in all.iter().enumerate() {
        if side == 0 {
            rank_v1[id as usize] = rank as u32;
        } else {
            rank_v2[id as usize] = rank as u32;
        }
    }
    (rank_v1, rank_v2)
}

/// The former `degree_ascending`: `sort_by_key` on `(degree, id)`.
fn reference_ascending(g: &BipartiteGraph, side: Side) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..g.nvertices(side) as u32).collect();
    match side {
        Side::V1 => perm.sort_by_key(|&u| (g.deg_v1(u as usize), u)),
        Side::V2 => perm.sort_by_key(|&v| (g.deg_v2(v as usize), v)),
    }
    perm
}

/// Degree orders, the priority work formula and both global-order
/// kernels' `wedges_expanded` all agree with the reference ranks.
fn check_against_reference(g: &BipartiteGraph) -> Result<(), String> {
    let (want_v1, want_v2) = reference_ranks(g);
    let (got_v1, got_v2) = global_degree_ranks(g);
    if (&got_v1, &got_v2) != (&want_v1, &want_v2) {
        return Err(format!(
            "global ranks differ: got {got_v1:?} / {got_v2:?}, want {want_v1:?} / {want_v2:?}"
        ));
    }
    for side in [Side::V1, Side::V2] {
        let asc = reference_ascending(g, side);
        let mut desc = asc.clone();
        desc.reverse();
        if degree_ascending(g, side) != asc {
            return Err(format!(
                "{side:?}: degree_ascending differs from sort_by_key"
            ));
        }
        if degree_descending(g, side) != desc {
            return Err(format!(
                "{side:?}: degree_descending differs from sort_by_key"
            ));
        }
    }
    let reference = PriorityRanks {
        rank_v1: want_v1,
        rank_v2: want_v2,
    };
    let want_work = priority_wedge_work_with(g, &reference);
    if priority_wedge_work(g) != want_work {
        return Err(format!(
            "priority_wedge_work {} differs from the reference-rank total {want_work}",
            priority_wedge_work(g)
        ));
    }
    let mut rec = InMemoryRecorder::new();
    count_priority_recorded(g, &mut rec);
    let priority = rec.counter(Counter::WedgesExpanded);
    let mut rec = InMemoryRecorder::new();
    count_ranked_recorded(g, &mut rec);
    let ranked = rec.counter(Counter::WedgesExpanded);
    if (priority, ranked) != (want_work, want_work) {
        return Err(format!(
            "wedges_expanded priority {priority} / ranked {ranked}, want {want_work}"
        ));
    }
    Ok(())
}

/// Shapes the fixture battery leaves out: no vertices at all, isolated
/// vertices on both sides, and degrees equal across both sides so every
/// tie crosses the side boundary.
fn tie_shapes() -> Vec<(&'static str, BipartiteGraph)> {
    let cycle: Vec<(u32, u32)> = (0..6).flat_map(|u| [(u, u), (u, (u + 1) % 6)]).collect();
    vec![
        ("no-vertices", BipartiteGraph::empty(0, 0)),
        ("no-v2", BipartiteGraph::empty(5, 0)),
        (
            "isolated-both-sides",
            BipartiteGraph::from_edges(6, 7, &[(1, 2), (1, 4), (3, 2), (4, 6)]).unwrap(),
        ),
        (
            "all-degree-2",
            BipartiteGraph::from_edges(6, 6, &cycle).unwrap(),
        ),
        (
            "all-degree-1-uneven",
            BipartiteGraph::from_edges(4, 5, &[(0, 4), (1, 0), (2, 3), (3, 1)]).unwrap(),
        ),
        ("k33", BipartiteGraph::complete(3, 3)),
    ]
}

#[test]
fn degree_orders_match_comparison_sorts_on_fixture_battery() {
    let battery = fixture_battery();
    assert_eq!(battery.len(), 15);
    for (name, g) in battery {
        check_against_reference(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn degree_orders_match_comparison_sorts_on_tie_shapes() {
    for (name, g) in tie_shapes() {
        check_against_reference(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn equal_degrees_rank_v1_before_v2_then_by_id() {
    let g = BipartiteGraph::complete(3, 3);
    let (r1, r2) = global_degree_ranks(&g);
    assert_eq!(r1, vec![0, 1, 2]);
    assert_eq!(r2, vec![3, 4, 5]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chung–Lu graphs from near-uniform to heavy-tailed, sparse enough
    /// that many vertices stay isolated.
    #[test]
    fn degree_orders_match_comparison_sorts_on_chung_lu(
        m in 1usize..60,
        n in 1usize..60,
        density in 0u32..100,
        exps in (0u32..100, 0u32..100),
        seed in 0u64..u64::MAX,
    ) {
        let edges = (m * n) * density as usize / 400;
        let (e1, e2) = (0.2 + exps.0 as f64 / 100.0, 0.2 + exps.1 as f64 / 100.0);
        let g = chung_lu(m, n, edges, e1, e2, &mut StdRng::seed_from_u64(seed));
        if let Err(e) = check_against_reference(&g) {
            prop_assert!(false, "{}", e);
        }
    }
}
