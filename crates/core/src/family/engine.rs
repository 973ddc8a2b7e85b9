//! The shared loop engine behind all eight derived algorithms.
//!
//! Every member of the family is the same computation parameterised three
//! ways (see the table in [`crate::family`]): which adjacency orientation
//! is iterated, in which direction, and whether the rank-1 update reads
//! `A₀` (indices before the exposed vertex) or `A₂` (indices after it).
//!
//! The update of eq. 18, `½a₁ᵀAₚAₚᵀa₁ − ½Γ(a₁a₁ᵀ ∘ AₚAₚᵀ)`, is evaluated
//! as a wedge expansion: walk every length-2 path from the exposed vertex
//! `k` through an opposite-side vertex `j` to a same-side vertex `c` in the
//! chosen part, accumulate multiplicities `cnt[c] = |N(k) ∩ N(c)|` in a
//! sparse accumulator, and add `Σ_c C(cnt[c], 2)`. Because `C(x, 2)`
//! already excludes the repeated-wedge paths, the subtraction term of
//! eq. 18 never needs to be formed — the "careful implementation" remark
//! closing §III-C.

use bfly_sparse::{choose2, CheckedAccum, Pattern, Spa};
use bfly_telemetry::{Counter, NoopRecorder, Recorder};
use std::time::Instant;

/// How many exposed vertices the checked driver processes between
/// deadline polls. Phase-boundary granularity: coarse enough that the
/// `Instant::now()` syscall is invisible, fine enough that a deadline
/// stops a run within milliseconds on any realistic input.
pub(crate) const DEADLINE_STRIDE: usize = 4096;

/// Direction in which the partitioned vertex set is traversed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Traversal {
    /// L→R over columns (invariants 1–2) / T→B over rows (5–6).
    Forward,
    /// R→L over columns (invariants 3–4) / B→T over rows (7–8).
    Backward,
}

/// Which part of the repartitioning the update statement reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartFilter {
    /// `A₀`: vertices with index *below* the exposed vertex.
    Before,
    /// `A₂`: vertices with index *above* the exposed vertex.
    After,
}

/// Where a kernel's eq. 18 terms `C(cnt, 2)` go. Every per-vertex and
/// per-start kernel body is generic over this, so the plain `u64 +=` of
/// the infallible counters and the overflow-promoting [`CheckedAccum`]
/// of the checked ones monomorphize separately from one body.
pub(crate) trait Accum: Default + Send {
    /// Add one term.
    fn add(&mut self, v: u64);
    /// Fold in another partial sum (a chunk's, in chunk order).
    fn merge(&mut self, other: Self);
}

impl Accum for u64 {
    #[inline]
    fn add(&mut self, v: u64) {
        *self += v;
    }

    #[inline]
    fn merge(&mut self, other: u64) {
        *self += other;
    }
}

impl Accum for CheckedAccum {
    #[inline]
    fn add(&mut self, v: u64) {
        CheckedAccum::add(self, v);
    }

    #[inline]
    fn merge(&mut self, other: CheckedAccum) {
        CheckedAccum::merge(self, other);
    }
}

/// Per-vertex update of eq. 18: butterflies whose wedge-point pair is
/// `{k, c}` with `c` restricted to one side of `k`, added to `acc`.
/// `part_adj.row(k)` must list the opposite-side neighbours of `k`;
/// `other_adj.row(j)` the partitioned-side neighbours of `j`.
///
/// Records wedges expanded, SPA scatters, accumulator entries drained,
/// and the exposed vertex itself. Every recording site is guarded by
/// `R::ENABLED`, a constant after monomorphization, so the
/// [`NoopRecorder`] instantiation is exactly the uninstrumented loop.
#[inline]
pub(crate) fn update_for_vertex<R: Recorder, A: Accum>(
    part_adj: &Pattern,
    other_adj: &Pattern,
    filter: PartFilter,
    k: usize,
    spa: &mut Spa<u64>,
    acc: &mut A,
    rec: &mut R,
) {
    let k32 = k as u32;
    let mut wedges = 0u64;
    for &j in part_adj.row(k) {
        let row = other_adj.row(j as usize);
        // Sorted rows let the A₀/A₂ restriction become a prefix/suffix.
        let slice = match filter {
            PartFilter::Before => {
                let cut = row.partition_point(|&c| c < k32);
                &row[..cut]
            }
            PartFilter::After => {
                let cut = row.partition_point(|&c| c <= k32);
                &row[cut..]
            }
        };
        if R::ENABLED {
            wedges += slice.len() as u64;
        }
        for &c in slice {
            spa.scatter(c, 1);
        }
    }
    if R::ENABLED {
        rec.incr(Counter::VerticesExposed, 1);
        // Each expanded wedge is exactly one scatter into the SPA.
        rec.incr(Counter::WedgesExpanded, wedges);
        rec.incr(Counter::SpaScatters, wedges);
        rec.incr(Counter::AccumEntries, spa.touched_len() as u64);
        rec.hist_record("vertex_wedges", wedges);
    }
    drain_pairs(spa, acc);
}

/// Add `Σ C(cnt, 2)` over the SPA's entries to `acc` and clear the SPA:
/// the drain every kernel body ends with. The terms are summed into a
/// local first; a running total behind `&mut` would be loaded and stored
/// again for every entry, since the loop's bounds-check panic edge keeps
/// the compiler from holding it in a register.
#[inline]
pub(crate) fn drain_pairs<A: Accum>(spa: &mut Spa<u64>, acc: &mut A) {
    let mut sum = A::default();
    for (_, cnt) in spa.entries() {
        sum.add(choose2(cnt));
    }
    spa.clear();
    acc.merge(sum);
}

/// Run [`update_for_vertex`] over the exposed vertices `ks` in order,
/// polling `deadline` every [`DEADLINE_STRIDE`] vertices (never inside a
/// wedge expansion). Returns `false` if the deadline cut the run short;
/// `acc` then holds the exact sum over the vertices processed before it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn update_vertices<R: Recorder, A: Accum>(
    part_adj: &Pattern,
    other_adj: &Pattern,
    filter: PartFilter,
    ks: impl Iterator<Item = usize>,
    spa: &mut Spa<u64>,
    acc: &mut A,
    deadline: Option<Instant>,
    rec: &mut R,
) -> bool {
    for (done, k) in ks.enumerate() {
        if let Some(d) = deadline {
            if done % DEADLINE_STRIDE == DEADLINE_STRIDE - 1 && Instant::now() >= d {
                return false;
            }
        }
        update_for_vertex(part_adj, other_adj, filter, k, spa, acc, rec);
    }
    true
}

/// Overflow-checked, deadline-aware [`count_partitioned_recorded`].
///
/// Accumulates into the caller-supplied `acc` (which may be seeded, e.g.
/// to continue a prior partial sum) and polls `deadline` every
/// [`DEADLINE_STRIDE`] exposed vertices. Returns `true` if the traversal
/// ran to completion, `false` if the deadline cut it short — in which
/// case `acc` holds the exact partial total over the vertices processed
/// so far. Overflow never aborts the traversal; callers inspect
/// [`CheckedAccum::finish`] afterwards.
pub fn count_partitioned_checked_recorded<R: Recorder>(
    part_adj: &Pattern,
    other_adj: &Pattern,
    traversal: Traversal,
    filter: PartFilter,
    acc: &mut CheckedAccum,
    deadline: Option<Instant>,
    rec: &mut R,
) -> bool {
    count_partitioned_into(part_adj, other_adj, traversal, filter, acc, deadline, rec)
}

/// The sequential loop behind [`count_partitioned_recorded`] and
/// [`count_partitioned_checked_recorded`]: one SPA, one `count_partitioned`
/// span, vertices in traversal order.
fn count_partitioned_into<R: Recorder, A: Accum>(
    part_adj: &Pattern,
    other_adj: &Pattern,
    traversal: Traversal,
    filter: PartFilter,
    acc: &mut A,
    deadline: Option<Instant>,
    rec: &mut R,
) -> bool {
    debug_assert_eq!(part_adj.nrows(), other_adj.ncols());
    debug_assert_eq!(part_adj.ncols(), other_adj.nrows());
    let nverts = part_adj.nrows();
    let mut spa = Spa::<u64>::new(nverts);
    bfly_telemetry::timed_span(rec, "count_partitioned", |rec| match traversal {
        Traversal::Forward => {
            let ks = 0..nverts;
            update_vertices(
                part_adj, other_adj, filter, ks, &mut spa, acc, deadline, rec,
            )
        }
        Traversal::Backward => {
            let ks = (0..nverts).rev();
            update_vertices(
                part_adj, other_adj, filter, ks, &mut spa, acc, deadline, rec,
            )
        }
    })
}

/// Run one family member over a partitioned side.
///
/// * `part_adj` — adjacency of the partitioned side (row `k` = sorted
///   opposite-side neighbours of partitioned vertex `k`). For invariants
///   1–4 this is `Aᵀ` (the CSC view of `A`); for 5–8 it is `A`.
/// * `other_adj` — the transpose of `part_adj`.
pub fn count_partitioned(
    part_adj: &Pattern,
    other_adj: &Pattern,
    traversal: Traversal,
    filter: PartFilter,
) -> u64 {
    count_partitioned_recorded(part_adj, other_adj, traversal, filter, &mut NoopRecorder)
}

/// [`count_partitioned`] reporting work counters (and a
/// `count_partitioned` span with a `vertex_wedges` histogram) through
/// `rec`.
pub fn count_partitioned_recorded<R: Recorder>(
    part_adj: &Pattern,
    other_adj: &Pattern,
    traversal: Traversal,
    filter: PartFilter,
    rec: &mut R,
) -> u64 {
    let mut total = 0u64;
    count_partitioned_into(
        part_adj, other_adj, traversal, filter, &mut total, None, rec,
    );
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_graph::BipartiteGraph;

    fn k23() -> BipartiteGraph {
        BipartiteGraph::complete(2, 3)
    }

    fn update(a: &Pattern, at: &Pattern, filter: PartFilter, k: usize, spa: &mut Spa<u64>) -> u64 {
        let mut acc = 0u64;
        update_for_vertex(a, at, filter, k, spa, &mut acc, &mut NoopRecorder);
        acc
    }

    #[test]
    fn before_and_after_partition_the_pairs() {
        // K_{2,3}: 3 butterflies (V2 wedge-point pairs: C(3,2)).
        let g = k23();
        let at = g.biadjacency_t();
        let a = g.biadjacency();
        let mut spa = Spa::<u64>::new(g.nv2());
        // Vertex 1 of V2: pairs {1,0} before, {1,2} after → 1 butterfly each.
        assert_eq!(update(at, a, PartFilter::Before, 1, &mut spa), 1);
        assert_eq!(update(at, a, PartFilter::After, 1, &mut spa), 1);
        // Vertex 0: nothing before, pairs {0,1},{0,2} after.
        assert_eq!(update(at, a, PartFilter::Before, 0, &mut spa), 0);
        assert_eq!(update(at, a, PartFilter::After, 0, &mut spa), 2);
    }

    #[test]
    fn every_parameterisation_totals_the_same() {
        let g = BipartiteGraph::from_edges(
            4,
            4,
            &[
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 0),
                (1, 1),
                (2, 1),
                (2, 2),
                (2, 3),
                (3, 0),
                (3, 3),
            ],
        )
        .unwrap();
        let want = crate::spec::count_brute_force(&g);
        let (a, at) = (g.biadjacency(), g.biadjacency_t());
        for traversal in [Traversal::Forward, Traversal::Backward] {
            for filter in [PartFilter::Before, PartFilter::After] {
                assert_eq!(count_partitioned(at, a, traversal, filter), want);
                assert_eq!(count_partitioned(a, at, traversal, filter), want);
            }
        }
    }

    #[test]
    fn checked_path_matches_unchecked() {
        let g = BipartiteGraph::complete(4, 5);
        let (a, at) = (g.biadjacency(), g.biadjacency_t());
        for traversal in [Traversal::Forward, Traversal::Backward] {
            for filter in [PartFilter::Before, PartFilter::After] {
                let want = count_partitioned(at, a, traversal, filter);
                let mut acc = CheckedAccum::new();
                let complete = count_partitioned_checked_recorded(
                    at,
                    a,
                    traversal,
                    filter,
                    &mut acc,
                    None,
                    &mut NoopRecorder,
                );
                assert!(complete);
                assert_eq!(acc.finish(), Ok(want));
            }
        }
    }

    #[test]
    fn checked_path_reports_seeded_overflow_exactly() {
        // Graph-realisable u64 overflow needs > 2^32 vertices; seeding the
        // accumulator near the ceiling exercises the same promotion path.
        let g = k23();
        let (a, at) = (g.biadjacency(), g.biadjacency_t());
        let true_count = count_partitioned(at, a, Traversal::Forward, PartFilter::After);
        let base = u64::MAX - 1;
        let mut acc = CheckedAccum::with_base(base);
        let complete = count_partitioned_checked_recorded(
            at,
            a,
            Traversal::Forward,
            PartFilter::After,
            &mut acc,
            None,
            &mut NoopRecorder,
        );
        assert!(complete);
        assert_eq!(
            acc.finish(),
            Err(base as u128 + true_count as u128),
            "exact promoted total, never a wrapped u64"
        );
    }

    #[test]
    fn elapsed_deadline_stops_between_vertices() {
        // An already-expired deadline still counts: the poll fires every
        // DEADLINE_STRIDE vertices, so tiny graphs complete regardless.
        let g = BipartiteGraph::complete(3, 3);
        let (a, at) = (g.biadjacency(), g.biadjacency_t());
        let mut acc = CheckedAccum::new();
        let complete = count_partitioned_checked_recorded(
            at,
            a,
            Traversal::Forward,
            PartFilter::After,
            &mut acc,
            Some(Instant::now() - std::time::Duration::from_secs(1)),
            &mut NoopRecorder,
        );
        assert!(complete, "3 vertices < DEADLINE_STRIDE, no poll fires");
        assert_eq!(acc.finish(), Ok(9));
    }

    #[test]
    fn isolated_vertices_contribute_nothing() {
        let g = BipartiteGraph::from_edges(5, 5, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let (a, at) = (g.biadjacency(), g.biadjacency_t());
        assert_eq!(
            count_partitioned(at, a, Traversal::Forward, PartFilter::After),
            1
        );
    }
}
