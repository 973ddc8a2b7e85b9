//! Property-based tests (proptest) over arbitrary bipartite graphs.
//!
//! Graphs come from the shared `bfly_core::testkit` strategies (arbitrary
//! edge lists over bounded vertex sets); the properties are the algebraic
//! identities the paper's derivation rests on, checked end to end on the
//! real implementations.

use bfly::core::baseline::count_hash_aggregation;
use bfly::core::edge_support::{edge_supports, total_from_supports};
use bfly::core::peel::{k_tip, k_wing};
use bfly::core::testkit::{arb_graph, MAX_SIDE};
use bfly::core::vertex_counts::{butterflies_per_vertex, butterflies_per_vertex_algebraic};
use bfly::core::{count, count_brute_force, count_priority, count_via_spgemm, Invariant};
use bfly::graph::{BipartiteGraph, Side};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All eight invariants equal the brute-force definition.
    #[test]
    fn family_agrees_with_definition(g in arb_graph()) {
        let want = count_brute_force(&g);
        for inv in Invariant::ALL {
            prop_assert_eq!(count(&g, inv), want);
        }
    }

    /// The linear-algebra mid-point and the baselines agree too.
    #[test]
    fn spec_and_baselines_agree(g in arb_graph()) {
        let want = count_brute_force(&g);
        prop_assert_eq!(count_via_spgemm(&g), want);
        prop_assert_eq!(count_hash_aggregation(&g), want);
        prop_assert_eq!(count_priority(&g), want);
    }

    /// Ξ(A) = Ξ(Aᵀ): the count cannot depend on which side is called V1.
    #[test]
    fn transpose_invariance(g in arb_graph()) {
        prop_assert_eq!(count_brute_force(&g.swap_sides()), count_brute_force(&g));
    }

    /// Butterflies only ever appear when an edge is added, never vanish.
    #[test]
    fn edge_monotonicity(g in arb_graph(), u in 0..MAX_SIDE, v in 0..MAX_SIDE) {
        let u = u % g.nv1() as u32;
        let v = v % g.nv2() as u32;
        let mut edges: Vec<(u32, u32)> = g.edges().collect();
        edges.push((u, v));
        let g2 = BipartiteGraph::from_edges(g.nv1(), g.nv2(), &edges).unwrap();
        prop_assert!(count_brute_force(&g2) >= count_brute_force(&g));
    }

    /// Disjoint union adds counts exactly.
    #[test]
    fn disjoint_union_additivity(a in arb_graph(), b in arb_graph()) {
        let u = a.disjoint_union(&b);
        prop_assert_eq!(
            count_brute_force(&u),
            count_brute_force(&a) + count_brute_force(&b)
        );
    }

    /// Σ_u b_u = 2Ξ on both sides, and the algebraic per-vertex counts
    /// match the wedge-expansion ones.
    #[test]
    fn vertex_count_identities(g in arb_graph()) {
        let xi = count_brute_force(&g);
        for side in [Side::V1, Side::V2] {
            let b = butterflies_per_vertex(&g, side);
            prop_assert_eq!(b.iter().sum::<u64>(), 2 * xi);
            prop_assert_eq!(&b, &butterflies_per_vertex_algebraic(&g, side));
        }
    }

    /// Σ_e supp(e) = 4Ξ.
    #[test]
    fn edge_support_identity(g in arb_graph()) {
        let s = edge_supports(&g);
        prop_assert_eq!(s.iter().sum::<u64>(), 4 * count_brute_force(&g));
        if !s.is_empty() {
            prop_assert_eq!(total_from_supports(&s), count_brute_force(&g));
        }
    }

    /// k-tip output satisfies its definition and nests with k.
    #[test]
    fn tip_fixed_point_and_nesting(g in arb_graph(), k in 1u64..6) {
        let r = k_tip(&g, Side::V1, k);
        let scores = butterflies_per_vertex(&r.subgraph, Side::V1);
        for (i, &keep) in r.keep.iter().enumerate() {
            if keep {
                prop_assert!(scores[i] >= k);
            }
        }
        let r_higher = k_tip(&g, Side::V1, k + 1);
        for i in 0..g.nv1() {
            if r_higher.keep[i] {
                prop_assert!(r.keep[i]);
            }
        }
    }

    /// k-wing output satisfies its definition and nests with k.
    #[test]
    fn wing_fixed_point_and_nesting(g in arb_graph(), k in 1u64..5) {
        let r = k_wing(&g, k);
        let s = edge_supports(&r.subgraph);
        for &sup in &s {
            prop_assert!(sup >= k);
        }
        let r_higher = k_wing(&g, k + 1);
        for i in 0..g.nedges() {
            if r_higher.keep[i] {
                prop_assert!(r.keep[i]);
            }
        }
    }

    /// Duplicated edges change nothing (simple-graph semantics).
    #[test]
    fn duplicate_edges_are_idempotent(g in arb_graph()) {
        let mut edges: Vec<(u32, u32)> = g.edges().collect();
        let doubled: Vec<(u32, u32)> =
            edges.iter().copied().chain(edges.iter().copied()).collect();
        edges.sort_unstable();
        let g2 = BipartiteGraph::from_edges(g.nv1(), g.nv2(), &doubled).unwrap();
        prop_assert_eq!(&g2, &g);
        prop_assert_eq!(count_brute_force(&g2), count_brute_force(&g));
    }
}
