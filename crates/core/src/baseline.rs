//! Baseline counting algorithms the paper positions against.
//!
//! * [`count_hash_aggregation`] — the Wang et al. 2014 "rectangle
//!   counting" shape: aggregate wedges per endpoint pair in a hash map
//!   instead of a dense accumulator. Same asymptotics as the family,
//!   different constant factors (the SPA-vs-hash ablation).
//! * degree-ordered vertex-priority counting in the style of Wang et al.
//!   (VLDB'19) lives in the family as
//!   [`count_priority`](crate::family::count_priority): wedges are only
//!   expanded from each butterfly's *minimum-priority* vertex, the
//!   optimisation the paper's §VI names as future work.
//! * [`approx_count_vertex_sampling`] / [`approx_count_edge_sampling`] —
//!   unbiased estimators in the style of Sanei-Mehri et al. (KDD'18),
//!   using exact local counts on sampled vertices/edges.

use crate::edge_support::edge_supports;
use crate::vertex_counts::butterflies_per_vertex;
use bfly_graph::{BipartiteGraph, Side};
use bfly_sparse::choose2;
use rand::Rng;
use std::collections::HashMap;

/// Exact count via per-pair wedge aggregation in a `HashMap` (the
/// work-space-lean variant of Wang et al.; contrast with the SPA used by
/// the family).
pub fn count_hash_aggregation(g: &BipartiteGraph) -> u64 {
    // Aggregate over the smaller side's pairs for the better constant,
    // mirroring the paper's partition-size guidance.
    let (part_adj, other_adj) = if g.nv2() <= g.nv1() {
        (g.biadjacency_t(), g.biadjacency())
    } else {
        (g.biadjacency(), g.biadjacency_t())
    };
    let n = part_adj.nrows();
    let mut total = 0u64;
    let mut counts: HashMap<u32, u64> = HashMap::new();
    for k in 0..n {
        let k32 = k as u32;
        counts.clear();
        for &j in part_adj.row(k) {
            let row = other_adj.row(j as usize);
            let cut = row.partition_point(|&c| c <= k32);
            for &c in &row[cut..] {
                *counts.entry(c).or_insert(0) += 1;
            }
        }
        for &cnt in counts.values() {
            total += choose2(cnt);
        }
    }
    total
}

/// Unbiased estimate by vertex sampling: draw `samples` vertices of `V1`
/// uniformly with replacement, compute each one's exact butterfly count
/// `b_u`, and return `(|V1| / 2) · mean(b_u)` (every butterfly has exactly
/// two V1 vertices, so `E[b_u] = 2Ξ/|V1|`).
pub fn approx_count_vertex_sampling<R: Rng>(
    g: &BipartiteGraph,
    samples: usize,
    rng: &mut R,
) -> f64 {
    assert!(samples > 0, "need at least one sample");
    if g.nv1() == 0 {
        return 0.0;
    }
    // Exact local counts reuse the per-vertex machinery.
    let counts = butterflies_per_vertex(g, Side::V1);
    let mut acc = 0f64;
    for _ in 0..samples {
        let u = rng.random_range(0..g.nv1());
        acc += counts[u] as f64;
    }
    (g.nv1() as f64 / 2.0) * (acc / samples as f64)
}

/// Unbiased estimate by edge sampling: draw `samples` edges uniformly with
/// replacement, compute each one's exact support, and return
/// `(|E| / 4) · mean(supp)` (every butterfly has exactly four edges).
pub fn approx_count_edge_sampling<R: Rng>(g: &BipartiteGraph, samples: usize, rng: &mut R) -> f64 {
    assert!(samples > 0, "need at least one sample");
    if g.nedges() == 0 {
        return 0.0;
    }
    let supports = edge_supports(g);
    let mut acc = 0f64;
    for _ in 0..samples {
        let e = rng.random_range(0..supports.len());
        acc += supports[e] as f64;
    }
    (g.nedges() as f64 / 4.0) * (acc / samples as f64)
}

/// Unbiased estimate by wedge sampling: draw `samples` uniform wedges
/// (random V2 wedge point with probability proportional to `C(deg, 2)`,
/// then a uniform endpoint pair), count the butterflies each wedge closes
/// into (`|N(u) ∩ N(w)| − 1`), and return `W · mean / 2` where `W` is the
/// total wedge count — each butterfly contains exactly two wedges with V2
/// wedge points.
pub fn approx_count_wedge_sampling<R: Rng>(g: &BipartiteGraph, samples: usize, rng: &mut R) -> f64 {
    assert!(samples > 0, "need at least one sample");
    // Cumulative wedge weights over V2 vertices.
    let mut cumulative = Vec::with_capacity(g.nv2());
    let mut total_wedges = 0u64;
    for v in 0..g.nv2() {
        total_wedges += bfly_sparse::choose2(g.deg_v2(v) as u64);
        cumulative.push(total_wedges);
    }
    if total_wedges == 0 {
        return 0.0;
    }
    let a = g.biadjacency();
    let mut acc = 0f64;
    for _ in 0..samples {
        // Wedge point v ∝ C(deg v, 2).
        let t = rng.random_range(0..total_wedges);
        let v = cumulative.partition_point(|&c| c <= t);
        let nv = g.neighbors_v2(v);
        // Uniform endpoint pair u ≠ w from N(v).
        let i = rng.random_range(0..nv.len());
        let mut j = rng.random_range(0..nv.len() - 1);
        if j >= i {
            j += 1;
        }
        let (u, w) = (nv[i] as usize, nv[j] as usize);
        let closures = a.row_intersection_size(u, w) as f64 - 1.0;
        acc += closures;
    }
    total_wedges as f64 * (acc / samples as f64) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::count_via_spgemm;
    use bfly_graph::generators::{chung_lu, uniform_exact};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hash_aggregation_matches_spec() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..5 {
            let g = uniform_exact(40, 25, 180, &mut rng);
            assert_eq!(count_hash_aggregation(&g), count_via_spgemm(&g));
        }
        // Both orientations of the side-selection heuristic.
        let tall = uniform_exact(50, 10, 120, &mut rng);
        assert_eq!(count_hash_aggregation(&tall), count_via_spgemm(&tall));
    }

    #[test]
    fn vertex_priority_matches_spec() {
        let mut rng = StdRng::seed_from_u64(32);
        for _ in 0..5 {
            let g = chung_lu(50, 40, 250, 0.7, 0.7, &mut rng);
            assert_eq!(crate::family::count_priority(&g), count_via_spgemm(&g));
        }
        assert_eq!(
            crate::family::count_priority(&BipartiteGraph::complete(4, 4)),
            36
        );
        assert_eq!(
            crate::family::count_priority(&BipartiteGraph::empty(5, 5)),
            0
        );
    }

    #[test]
    fn vertex_priority_counts_each_butterfly_once_on_regular_graphs() {
        // Degree-regular graphs maximise rank ties; the tie-broken total
        // order must still charge each butterfly exactly once.
        let g = BipartiteGraph::complete(5, 5);
        assert_eq!(crate::family::count_priority(&g), 100); // C(5,2)²
    }

    #[test]
    fn sampling_estimators_are_close_on_moderate_graphs() {
        let mut rng = StdRng::seed_from_u64(33);
        let g = chung_lu(80, 80, 600, 0.6, 0.6, &mut rng);
        let exact = count_via_spgemm(&g) as f64;
        assert!(exact > 0.0);
        let v = approx_count_vertex_sampling(&g, 4000, &mut rng);
        let e = approx_count_edge_sampling(&g, 4000, &mut rng);
        assert!(
            (v - exact).abs() < exact * 0.35,
            "vertex estimate {v} vs exact {exact}"
        );
        assert!(
            (e - exact).abs() < exact * 0.35,
            "edge estimate {e} vs exact {exact}"
        );
    }

    #[test]
    fn sampling_exact_when_sampling_everything_uniformly() {
        // On a vertex-transitive graph every sample is identical, so even
        // one sample is exact.
        let g = BipartiteGraph::complete(4, 4);
        let mut rng = StdRng::seed_from_u64(34);
        let exact = count_via_spgemm(&g) as f64;
        assert_eq!(approx_count_vertex_sampling(&g, 1, &mut rng), exact);
        assert_eq!(approx_count_edge_sampling(&g, 1, &mut rng), exact);
    }

    #[test]
    fn estimators_handle_empty_graphs() {
        let g = BipartiteGraph::empty(0, 0);
        let mut rng = StdRng::seed_from_u64(35);
        assert_eq!(approx_count_vertex_sampling(&g, 10, &mut rng), 0.0);
        assert_eq!(approx_count_edge_sampling(&g, 10, &mut rng), 0.0);
        assert_eq!(approx_count_wedge_sampling(&g, 10, &mut rng), 0.0);
        // Wedge-free but non-empty graph.
        let matching = BipartiteGraph::from_edges(3, 3, &[(0, 0), (1, 1), (2, 2)]).unwrap();
        assert_eq!(approx_count_wedge_sampling(&matching, 10, &mut rng), 0.0);
    }

    #[test]
    fn wedge_sampling_is_exact_on_transitive_graphs() {
        // K_{4,4}: every wedge closes into the same number of butterflies,
        // so a single sample is exact.
        let g = BipartiteGraph::complete(4, 4);
        let mut rng = StdRng::seed_from_u64(36);
        let exact = count_via_spgemm(&g) as f64;
        assert_eq!(approx_count_wedge_sampling(&g, 1, &mut rng), exact);
    }

    #[test]
    fn wedge_sampling_converges() {
        let mut rng = StdRng::seed_from_u64(37);
        let g = chung_lu(60, 60, 420, 0.6, 0.6, &mut rng);
        let exact = count_via_spgemm(&g) as f64;
        assert!(exact > 0.0);
        let est = approx_count_wedge_sampling(&g, 8000, &mut rng);
        assert!(
            (est - exact).abs() < exact * 0.3,
            "estimate {est} vs exact {exact}"
        );
    }
}
