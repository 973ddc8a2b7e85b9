//! Vertex orderings and relabelings.
//!
//! The paper's future-work section (§VI) points at degree sorting [3], [12]
//! as the next optimisation for the derived algorithms, and the
//! vertex-priority baseline (Wang et al., VLDB'19) is built entirely on a
//! degree-based total order. This module produces such orders and applies
//! them as graph relabelings so the ablation benches can measure their
//! effect on every invariant.

use crate::bipartite::{BipartiteGraph, Side};

/// Stable counting sort of vertices by degree in `O(V + max_deg)`.
///
/// The vertices of `sides` are placed in that order, ids ascending within
/// a side, so equal degrees keep exactly that order: earlier side first,
/// then lower id. Returns one position vector per entry of `sides`:
/// `pos[k][id]` is where vertex `id` of `sides[k]` lands in the order of
/// non-decreasing (`descending = false`) or non-increasing degree.
fn degree_positions(g: &BipartiteGraph, sides: &[Side], descending: bool) -> Vec<Vec<u32>> {
    let degrees = |side: Side| {
        (0..g.nvertices(side)).map(move |x| match side {
            Side::V1 => g.deg_v1(x),
            Side::V2 => g.deg_v2(x),
        })
    };
    let max_deg = sides
        .iter()
        .flat_map(|&side| degrees(side))
        .max()
        .unwrap_or(0);
    // Bucket index: the degree itself, or its mirror when descending, so
    // the exclusive prefix sum below always walks buckets in output order.
    let bucket = |d: usize| if descending { max_deg - d } else { d };
    let mut next = vec![0u32; max_deg + 1];
    for &side in sides {
        for d in degrees(side) {
            next[bucket(d)] += 1;
        }
    }
    let mut start = 0u32;
    for slot in &mut next {
        let count = *slot;
        *slot = start;
        start += count;
    }
    sides
        .iter()
        .map(|&side| {
            degrees(side)
                .map(|d| {
                    let slot = &mut next[bucket(d)];
                    let pos = *slot;
                    *slot += 1;
                    pos
                })
                .collect()
        })
        .collect()
}

/// Permutation `perm[new_index] = old_index` sorting one side by
/// non-decreasing degree (ties broken by vertex id for determinism).
pub fn degree_ascending(g: &BipartiteGraph, side: Side) -> Vec<u32> {
    let pos = degree_positions(g, &[side], false);
    invert_permutation(&pos[0])
}

/// Permutation sorting one side by non-increasing degree: the exact
/// reverse of [`degree_ascending`], so ties run by descending id.
pub fn degree_descending(g: &BipartiteGraph, side: Side) -> Vec<u32> {
    let mut perm = degree_ascending(g, side);
    perm.reverse();
    perm
}

/// Invert a permutation: `inv[perm[i]] = i`.
pub fn invert_permutation(perm: &[u32]) -> Vec<u32> {
    let mut inv = vec![0u32; perm.len()];
    for (new, &old) in perm.iter().enumerate() {
        inv[old as usize] = new as u32;
    }
    inv
}

/// Relabel one side of the graph with `perm[new] = old`. The resulting
/// graph is isomorphic (butterfly counts unchanged), but iteration order —
/// and therefore the cost profile of each invariant — changes.
pub fn relabel(g: &BipartiteGraph, side: Side, perm: &[u32]) -> BipartiteGraph {
    match side {
        Side::V1 => {
            let a = g.biadjacency().permute_rows(perm);
            BipartiteGraph::from_biadjacency(a)
        }
        Side::V2 => {
            // Rows of Aᵀ are V2 vertices; permute there, then transpose back.
            let at = g.biadjacency_t().permute_rows(perm);
            BipartiteGraph::from_biadjacency(at.transpose())
        }
    }
}

/// A total priority over *all* `|V1| + |V2|` vertices by non-increasing
/// degree (ties by side, then id). Returns `(rank_v1, rank_v2)`: lower rank
/// = higher priority. This is the order the vertex-priority baseline
/// (BFC-VP) peels wedges in. One counting sort: `O(V + max_deg)`.
pub fn global_degree_ranks(g: &BipartiteGraph) -> (Vec<u32>, Vec<u32>) {
    let mut pos = degree_positions(g, &[Side::V1, Side::V2], true);
    let rank_v2 = pos.pop().expect("one position vector per side");
    let rank_v1 = pos.pop().expect("one position vector per side");
    (rank_v1, rank_v2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BipartiteGraph {
        // degrees V1: [3, 1, 2], V2: [2, 2, 1, 1]
        BipartiteGraph::from_edges(3, 4, &[(0, 0), (0, 1), (0, 2), (1, 0), (2, 1), (2, 3)]).unwrap()
    }

    #[test]
    fn ascending_order_sorts_by_degree() {
        let g = sample();
        let p = degree_ascending(&g, Side::V1);
        let degs: Vec<usize> = p.iter().map(|&u| g.deg_v1(u as usize)).collect();
        assert_eq!(degs, vec![1, 2, 3]);
        let p2 = degree_descending(&g, Side::V2);
        let degs2: Vec<usize> = p2.iter().map(|&v| g.deg_v2(v as usize)).collect();
        assert_eq!(degs2, vec![2, 2, 1, 1]);
    }

    #[test]
    fn invert_roundtrips() {
        let perm = vec![2u32, 0, 3, 1];
        let inv = invert_permutation(&perm);
        for (new, &old) in perm.iter().enumerate() {
            assert_eq!(inv[old as usize], new as u32);
        }
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = sample();
        let p = degree_descending(&g, Side::V1);
        let h = relabel(&g, Side::V1, &p);
        assert_eq!(h.nedges(), g.nedges());
        // New vertex 0 is old highest-degree vertex (old 0, degree 3).
        assert_eq!(h.deg_v1(0), 3);
        // Degree multiset preserved.
        let mut dg: Vec<usize> = (0..3).map(|u| g.deg_v1(u)).collect();
        let mut dh: Vec<usize> = (0..3).map(|u| h.deg_v1(u)).collect();
        dg.sort();
        dh.sort();
        assert_eq!(dg, dh);
    }

    #[test]
    fn relabel_v2_side() {
        let g = sample();
        let p = degree_ascending(&g, Side::V2);
        let h = relabel(&g, Side::V2, &p);
        assert_eq!(h.nedges(), g.nedges());
        let mut dg: Vec<usize> = (0..4).map(|v| g.deg_v2(v)).collect();
        let mut dh: Vec<usize> = (0..4).map(|v| h.deg_v2(v)).collect();
        dg.sort();
        dh.sort();
        assert_eq!(dg, dh);
        // Lowest-degree V2 vertex first after ascending relabel.
        assert_eq!(h.deg_v2(0), 1);
    }

    #[test]
    fn global_ranks_are_a_permutation_and_degree_sorted() {
        let g = sample();
        let (r1, r2) = global_degree_ranks(&g);
        let mut all: Vec<u32> = r1.iter().chain(r2.iter()).copied().collect();
        all.sort();
        let expect: Vec<u32> = (0..(g.nv1() + g.nv2()) as u32).collect();
        assert_eq!(all, expect);
        // Highest-degree vertex (V1 id 0, degree 3) gets rank 0.
        assert_eq!(r1[0], 0);
    }
}
