//! Vertex-priority butterfly counting (the BFC-VP family of Wang et al.,
//! arXiv 1812.00283).
//!
//! The eight derived invariants fix a partitioned *side* and expand every
//! wedge through the opposite side — so one hub on the wrong side forces
//! the whole run through its quadratic neighbourhood. The priority kernel
//! instead assigns a single total order over `V1 ∪ V2` — non-increasing
//! degree, ties broken by side then id ([`global_degree_ranks`]) — and
//! expands the wedge `u – j – w` only from its strict minimum-rank
//! *endpoint*: start `u` processes the wedge iff `rank(j) > rank(u)` and
//! `rank(w) > rank(u)`. Each butterfly is charged exactly once, from its
//! minimum-rank vertex, and high-degree hubs are never wedge-expanded
//! from below.
//!
//! The exact work is known up front, which is what makes the adaptive
//! cost model and the `--progress` forecast exact
//! ([`priority_wedge_work`]): a wedge with centre `j` is expanded iff its
//! minimum-rank vertex is an endpoint, so the kernel expands
//!
//! ```text
//! Σ_{j ∈ V1∪V2}  C(deg(j), 2) − C(g_j, 2)
//! ```
//!
//! wedges, where `g_j` is the number of neighbours of `j` that out-rank
//! `j` (the `C(g_j, 2)` endpoint pairs that both out-rank the centre are
//! the wedges nobody expands). One pass over the edges computes every
//! `g_j`; the property suite pins the formula against the
//! `wedges_expanded` counter and against the best fixed invariant.

use super::engine::{drain_pairs, Accum, DEADLINE_STRIDE};
use super::parallel::{balanced_chunk_bounds, merge_chunks, run_chunks};
use crate::edge_support::csc_edge_ids;
use bfly_graph::ordering::global_degree_ranks;
use bfly_graph::BipartiteGraph;
use bfly_sparse::{choose2, CheckedAccum, Pattern, Spa};
use bfly_telemetry::{timed_phase, timed_span, Counter, NoopRecorder, Recorder};
use std::ops::Range;
use std::time::Instant;

/// The global priority order: `rank_v1[u]` / `rank_v2[v]` is the position
/// of the vertex in the degree-descending total order over `V1 ∪ V2`
/// (rank 0 = highest degree = highest priority; all ranks distinct).
#[derive(Debug, Clone)]
pub struct PriorityRanks {
    /// Rank of every V1 vertex.
    pub rank_v1: Vec<u32>,
    /// Rank of every V2 vertex.
    pub rank_v2: Vec<u32>,
}

impl PriorityRanks {
    /// Counting-sort both degree arrays into the total order
    /// (`O(V + max_deg)`).
    pub fn compute(g: &BipartiteGraph) -> PriorityRanks {
        let (rank_v1, rank_v2) = global_degree_ranks(g);
        PriorityRanks { rank_v1, rank_v2 }
    }
}

/// Exact number of wedges the priority kernel expands on `g`: the
/// closed form `Σ_j [C(deg(j), 2) − C(g_j, 2)]` over both sides, with
/// `g_j` = neighbours of `j` out-ranking `j`. `O(E + V)`; equals
/// the kernel's `wedges_expanded` counter on every graph, which is what
/// lets [`Plan::forecast`](crate::adaptive::Plan::forecast) stay exact
/// for the priority and ranked members.
pub fn priority_wedge_work(g: &BipartiteGraph) -> u64 {
    let ranks = PriorityRanks::compute(g);
    priority_wedge_work_with(g, &ranks)
}

/// [`priority_wedge_work`] reusing already-computed ranks.
pub fn priority_wedge_work_with(g: &BipartiteGraph, ranks: &PriorityRanks) -> u64 {
    let a = g.biadjacency();
    // g_j per vertex in one edge pass: ranks are a total order, so for
    // every edge (u, v) exactly one endpoint out-ranks the other.
    let mut up_v1 = vec![0u64; g.nv1()];
    let mut up_v2 = vec![0u64; g.nv2()];
    for u in 0..g.nv1() {
        let ru = ranks.rank_v1[u];
        for &v in a.row(u) {
            if ranks.rank_v2[v as usize] > ru {
                up_v1[u] += 1;
            } else {
                up_v2[v as usize] += 1;
            }
        }
    }
    let mut total = 0u64;
    for u in 0..g.nv1() {
        total = total.saturating_add(choose2(g.deg_v1(u) as u64) - choose2(up_v1[u]));
    }
    for v in 0..g.nv2() {
        total = total.saturating_add(choose2(g.deg_v2(v) as u64) - choose2(up_v2[v]));
    }
    total
}

/// One side's starts under the priority order: `adj.row(u)` lists start
/// `u`'s opposite-side neighbours (the wedge centres), `adj_mid.row(j)`
/// a centre's neighbours (the far endpoints), with both sides' ranks.
#[derive(Clone, Copy)]
pub(super) struct Starts<'a> {
    adj: &'a Pattern,
    adj_mid: &'a Pattern,
    rank: &'a [u32],
    rank_mid: &'a [u32],
}

impl<'a> Starts<'a> {
    /// The V1 starts (centres in V2) and the V2 starts (centres in V1).
    pub(super) fn both(g: &'a BipartiteGraph, ranks: &'a PriorityRanks) -> [Starts<'a>; 2] {
        let (a, at) = (g.biadjacency(), g.biadjacency_t());
        let (r1, r2) = (&ranks.rank_v1[..], &ranks.rank_v2[..]);
        [
            Starts {
                adj: a,
                adj_mid: at,
                rank: r1,
                rank_mid: r2,
            },
            Starts {
                adj: at,
                adj_mid: a,
                rank: r2,
                rank_mid: r1,
            },
        ]
    }

    /// Call `f(j, w)` for every priority wedge `u – j – w` of start `u`:
    /// the centre `j` and the far endpoint `w ≠ u` both out-rank `u`. The
    /// one wedge-selection rule every priority-order kernel shares.
    #[inline]
    pub(super) fn for_each_wedge(&self, u: usize, mut f: impl FnMut(u32, u32)) {
        self.for_each_wedge_at(u, |j, w, _, _| f(j, w));
    }

    /// [`Self::for_each_wedge`] also passing the wedge's two entry
    /// positions: `f(j, w, p, q)` with `p` the position of `j` in
    /// `adj`'s index array and `q` that of `w` in `adj_mid`'s.
    #[inline]
    fn for_each_wedge_at(&self, u: usize, mut f: impl FnMut(u32, u32, usize, usize)) {
        let ru = self.rank[u];
        let base = self.adj.ptr()[u];
        for (k, &j) in self.adj.row(u).iter().enumerate() {
            if self.rank_mid[j as usize] <= ru {
                continue;
            }
            let mid_base = self.adj_mid.ptr()[j as usize];
            for (l, &w) in self.adj_mid.row(j as usize).iter().enumerate() {
                if w as usize != u && self.rank[w as usize] > ru {
                    f(j, w, base + k, mid_base + l);
                }
            }
        }
    }
}

/// The side and local id of start `s` of the combined index space
/// (`s < nv1` → V1 start `s`, else V2 start `s − nv1`).
#[inline]
pub(super) fn start_of<'s, 'a>(
    starts: &'s [Starts<'a>; 2],
    nv1: usize,
    s: usize,
) -> (&'s Starts<'a>, usize) {
    if s < nv1 {
        (&starts[0], s)
    } else {
        (&starts[1], s - nv1)
    }
}

/// Cheap per-start upper bound on the wedges each start vertex expands —
/// `Σ_{j ∈ N(s), rank(j) > rank(s)} (deg(j) − 1)` — used to place
/// work-balanced chunk boundaries over the combined start space
/// (`0..nv1` = V1 starts, `nv1..nv1+nv2` = V2 starts). An upper bound
/// (it skips the far-endpoint rank filter) but proportional enough to
/// balance chunks; exactness is not required for correctness.
pub fn priority_start_weights(g: &BipartiteGraph, ranks: &PriorityRanks) -> Vec<u64> {
    let mut weights = Vec::with_capacity(g.nv1() + g.nv2());
    for side in Starts::both(g, ranks) {
        weights.extend((0..side.adj.nrows()).map(|u| {
            let ru = side.rank[u];
            side.adj
                .row(u)
                .iter()
                .filter(|&&j| side.rank_mid[j as usize] > ru)
                .map(|&j| (side.adj_mid.row(j as usize).len() as u64).saturating_sub(1))
                .sum::<u64>()
        }));
    }
    weights
}

/// Expand the priority wedges of one start vertex `u` and add the
/// butterflies charged to it to `acc`. Records through the same counter
/// vocabulary as the family engine (`vertices_exposed`,
/// `wedges_expanded`, `spa_scatters`, `accum_entries`, `vertex_wedges`),
/// every site guarded by `R::ENABLED`.
#[inline]
fn expand_start<R: Recorder, A: Accum>(
    side: &Starts,
    u: usize,
    spa: &mut Spa<u64>,
    acc: &mut A,
    rec: &mut R,
) {
    let mut wedges = 0u64;
    side.for_each_wedge(u, |_, w| {
        if R::ENABLED {
            wedges += 1;
        }
        spa.scatter(w, 1);
    });
    if R::ENABLED {
        rec.incr(Counter::VerticesExposed, 1);
        rec.incr(Counter::WedgesExpanded, wedges);
        rec.incr(Counter::SpaScatters, wedges);
        rec.incr(Counter::AccumEntries, spa.touched_len() as u64);
        rec.hist_record("vertex_wedges", wedges);
    }
    drain_pairs(spa, acc);
}

/// Run the starts `starts` of the combined index space (`s < nv1` → V1
/// start, else V2 start `s − nv1`) in order, polling `deadline` every
/// [`DEADLINE_STRIDE`] starts. Returns `false` if the deadline cut the
/// run short; `acc` then holds the exact sum over the starts processed.
fn run_starts<R: Recorder, A: Accum>(
    g: &BipartiteGraph,
    ranks: &PriorityRanks,
    starts: Range<usize>,
    spa: &mut Spa<u64>,
    acc: &mut A,
    deadline: Option<Instant>,
    rec: &mut R,
) -> bool {
    let sides = Starts::both(g, ranks);
    for (done, s) in starts.enumerate() {
        if let Some(d) = deadline {
            if done % DEADLINE_STRIDE == DEADLINE_STRIDE - 1 && Instant::now() >= d {
                return false;
            }
        }
        let (side, u) = start_of(&sides, g.nv1(), s);
        expand_start(side, u, spa, acc, rec);
    }
    true
}

/// The sequential priority loop over every start, inside a
/// `count_priority` span.
fn count_priority_seq<R: Recorder, A: Accum>(
    g: &BipartiteGraph,
    ranks: &PriorityRanks,
    acc: &mut A,
    deadline: Option<Instant>,
    rec: &mut R,
) -> bool {
    let mut spa = Spa::<u64>::new(g.nv1().max(g.nv2()));
    let starts = 0..g.nv1() + g.nv2();
    timed_span(rec, "count_priority", |rec| {
        run_starts(g, ranks, starts, &mut spa, acc, deadline, rec)
    })
}

/// The combined start space cut into `nchunks` contiguous non-empty
/// ranges balanced by [`priority_start_weights`].
fn priority_chunks(g: &BipartiteGraph, ranks: &PriorityRanks, nchunks: usize) -> Vec<Range<usize>> {
    let weights = priority_start_weights(g, ranks);
    balanced_chunk_bounds(&weights, nchunks.max(1))
        .windows(2)
        .map(|w| w[0]..w[1])
        .filter(|r| !r.is_empty())
        .collect()
}

/// Run `chunks` through [`run_chunks`], each on a private SPA and
/// accumulator, merging the partials in chunk order.
fn count_priority_chunks<R: Recorder, A: Accum>(
    g: &BipartiteGraph,
    ranks: &PriorityRanks,
    chunks: Vec<Range<usize>>,
    deadline: Option<Instant>,
    rec: &mut R,
) -> (A, bool) {
    let spa_len = g.nv1().max(g.nv2());
    merge_chunks(run_chunks(chunks, rec, |range, w| {
        let mut spa = Spa::<u64>::new(spa_len);
        let mut acc = A::default();
        let complete = run_starts(g, ranks, range, &mut spa, &mut acc, deadline, w);
        (acc, complete)
    }))
}

/// Count the butterflies of `g` with the vertex-priority kernel
/// (sequential).
pub fn count_priority(g: &BipartiteGraph) -> u64 {
    count_priority_recorded(g, &mut NoopRecorder)
}

/// [`count_priority`] reporting work counters, a `priority_rank` span for
/// the ordering sort, and a `"count"` phase through `rec`.
pub fn count_priority_recorded<R: Recorder>(g: &BipartiteGraph, rec: &mut R) -> u64 {
    let ranks = timed_span(rec, "priority_rank", |_| PriorityRanks::compute(g));
    timed_phase(rec, "count", |rec| {
        let mut total = 0u64;
        count_priority_seq(g, &ranks, &mut total, None, rec);
        total
    })
}

/// Deterministic parallel [`count_priority`]: the combined start space is
/// cut into `nchunks` contiguous ranges balanced by
/// [`priority_start_weights`], each chunk owns a private SPA, and the
/// per-chunk partial sums merge in chunk order — so the total is bitwise
/// identical at any thread count.
pub fn count_priority_parallel(g: &BipartiteGraph, nchunks: usize) -> u64 {
    count_priority_parallel_recorded(g, nchunks, &mut NoopRecorder)
}

/// Instrumented [`count_priority_parallel`]: the family's parallel event
/// stream from [`run_chunks`] (`chunk` spans, the `chunk_us` histogram,
/// the `par_chunk_wedges` series, the `par_imbalance` gauge) inside a
/// `count_parallel` phase.
pub fn count_priority_parallel_recorded<R: Recorder>(
    g: &BipartiteGraph,
    nchunks: usize,
    rec: &mut R,
) -> u64 {
    let ranks = timed_span(rec, "priority_rank", |_| PriorityRanks::compute(g));
    let chunks = priority_chunks(g, &ranks, nchunks);
    timed_phase(rec, "count_parallel", |rec| {
        count_priority_chunks::<R, u64>(g, &ranks, chunks, None, rec).0
    })
}

/// Overflow-checked, deadline-aware priority count with the same
/// recording as the unchecked paths. `nchunks <= 1` runs the sequential
/// loop polling the deadline every [`DEADLINE_STRIDE`] starts; larger
/// `nchunks` runs balanced parallel chunks, each polling independently,
/// with the per-chunk [`CheckedAccum`] partials merged in chunk order.
/// Returns the accumulator and whether every start was processed; a
/// truncated accumulator holds the exact sum over the starts processed
/// before the cut.
pub(crate) fn count_priority_checked_deadline<R: Recorder>(
    g: &BipartiteGraph,
    nchunks: usize,
    deadline: Option<Instant>,
    rec: &mut R,
) -> crate::error::Result<(CheckedAccum, bool)> {
    let ranks = timed_span(rec, "priority_rank", |_| PriorityRanks::compute(g));
    if nchunks <= 1 {
        let mut acc = CheckedAccum::new();
        let complete = count_priority_seq(g, &ranks, &mut acc, deadline, rec);
        return Ok((acc, complete));
    }
    let chunks = priority_chunks(g, &ranks, nchunks);
    Ok(count_priority_chunks(g, &ranks, chunks, deadline, rec))
}

/// Fallible [`count_priority`]: validates the graph up front and runs
/// the overflow-checked kernel.
pub fn try_count_priority(g: &BipartiteGraph) -> crate::error::Result<u64> {
    crate::error::validate_graph(g)?;
    let (acc, _complete) = count_priority_checked_deadline(g, 1, None, &mut NoopRecorder)?;
    acc.finish()
        .map_err(|partial| crate::error::BflyError::CountOverflow {
            partial,
            context: "count_priority",
        })
}

/// Fallible deterministic-parallel [`count_priority_parallel`].
pub fn try_count_priority_parallel(
    g: &BipartiteGraph,
    nchunks: usize,
) -> crate::error::Result<u64> {
    crate::error::validate_graph(g)?;
    let (acc, _complete) =
        count_priority_checked_deadline(g, nchunks.max(2), None, &mut NoopRecorder)?;
    acc.finish()
        .map_err(|partial| crate::error::BflyError::CountOverflow {
            partial,
            context: "count_priority_parallel",
        })
}

/// Per-vertex butterfly counts computed by the priority kernel, returned
/// as `(per_v1, per_v2)`. Attribution per expanded start: an endpoint
/// pair `{u, w}` with multiplicity `cnt` yields `C(cnt, 2)` butterflies
/// charged to both `u` and `w`, and replaying each wedge `u – j – w`
/// credits its centre `j` with the `cnt − 1` butterflies pairing `j`
/// with another centre — every butterfly lands on all four of its
/// vertices exactly once (`Σ b = 4Ξ`). Agrees with
/// [`butterflies_per_vertex`](crate::vertex_counts::butterflies_per_vertex)
/// on both sides (pinned by the differential suites).
pub fn butterflies_per_vertex_priority(g: &BipartiteGraph) -> (Vec<u64>, Vec<u64>) {
    let ranks = PriorityRanks::compute(g);
    let [v1, v2] = Starts::both(g, &ranks);
    let mut b1 = vec![0u64; g.nv1()];
    let mut b2 = vec![0u64; g.nv2()];
    let mut spa = Spa::<u64>::new(g.nv1().max(g.nv2()));
    // V1 starts charge V1 endpoints and V2 centres; V2 starts the mirror.
    for u in 0..g.nv1() {
        charge_vertices(&v1, u, &mut spa, &mut b1, &mut b2);
    }
    for v in 0..g.nv2() {
        charge_vertices(&v2, v, &mut spa, &mut b2, &mut b1);
    }
    (b1, b2)
}

/// One start's share of [`butterflies_per_vertex_priority`]: endpoints
/// in `b_start`, centres in `b_mid`.
fn charge_vertices(
    side: &Starts,
    u: usize,
    spa: &mut Spa<u64>,
    b_start: &mut [u64],
    b_mid: &mut [u64],
) {
    side.for_each_wedge(u, |_, w| spa.scatter(w, 1));
    for (w, cnt) in spa.entries() {
        let b = choose2(cnt);
        b_start[u] += b;
        b_start[w as usize] += b;
    }
    // Replay the wedges to credit the centres.
    side.for_each_wedge(u, |j, w| b_mid[j as usize] += spa.get(w) - 1);
    spa.clear();
}

/// Per-edge butterfly supports computed by the priority kernel, in the
/// row-major edge order of [`BipartiteGraph::edges`] (matching
/// [`edge_supports`](crate::edge_support::edge_supports)). Each expanded
/// wedge `u – j – w` with final multiplicity `cnt[w]` supports its two
/// edges `(u, j)` and `(w, j)` with the `cnt[w] − 1` butterflies closing
/// it — every butterfly lands on all four of its edges exactly once.
pub fn edge_supports_priority(g: &BipartiteGraph) -> Vec<u64> {
    edge_supports_priority_with(g, &csc_edge_ids(g))
}

/// [`edge_supports_priority`] reusing an already-built
/// [`csc_edge_ids`] map. Every wedge edge id is O(1): an entry of `A`
/// is its own edge id, an entry of `Aᵀ` maps through `csc_ids`.
pub(crate) fn edge_supports_priority_with(g: &BipartiteGraph, csc_ids: &[u32]) -> Vec<u64> {
    let ranks = PriorityRanks::compute(g);
    let [v1, v2] = Starts::both(g, &ranks);
    let mut out = vec![0u64; g.nedges()];
    let mut spa = Spa::<u64>::new(g.nv1().max(g.nv2()));
    // V1 starts walk A then Aᵀ; V2 starts walk Aᵀ then A.
    let csr = |p: usize| p;
    let csc = |p: usize| csc_ids[p] as usize;
    for u in 0..g.nv1() {
        support_edges(&v1, u, &mut spa, &mut out, csr, csc);
    }
    for v in 0..g.nv2() {
        support_edges(&v2, v, &mut spa, &mut out, csc, csr);
    }
    out
}

/// One start's share of [`edge_supports_priority`]: `start_edge` maps a
/// position in the start's adjacency to its edge id, `mid_edge` a
/// position in the centre's adjacency.
fn support_edges(
    side: &Starts,
    u: usize,
    spa: &mut Spa<u64>,
    out: &mut [u64],
    start_edge: impl Fn(usize) -> usize,
    mid_edge: impl Fn(usize) -> usize,
) {
    side.for_each_wedge(u, |_, w| spa.scatter(w, 1));
    side.for_each_wedge_at(u, |_, w, p, q| {
        let closures = spa.get(w) - 1;
        out[start_edge(p)] += closures;
        out[mid_edge(q)] += closures;
    });
    spa.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_support::edge_supports;
    use crate::spec::{count_brute_force, count_via_spgemm};
    use crate::vertex_counts::butterflies_per_vertex;
    use bfly_graph::generators::{chung_lu, uniform_exact};
    use bfly_graph::Side;
    use bfly_telemetry::InMemoryRecorder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_graphs() -> Vec<BipartiteGraph> {
        let mut rng = StdRng::seed_from_u64(4001);
        vec![
            BipartiteGraph::complete(5, 5),
            BipartiteGraph::complete(2, 9),
            BipartiteGraph::empty(6, 4),
            BipartiteGraph::from_edges(3, 3, &[(0, 0), (1, 1), (2, 2)]).unwrap(),
            uniform_exact(40, 30, 220, &mut rng),
            chung_lu(60, 25, 320, 0.95, 0.4, &mut rng),
            chung_lu(20, 70, 280, 0.3, 0.9, &mut rng),
        ]
    }

    #[test]
    fn priority_count_matches_spec() {
        for g in sample_graphs() {
            assert_eq!(count_priority(&g), count_via_spgemm(&g));
        }
    }

    #[test]
    fn wedge_work_formula_matches_recorded_counter() {
        for g in sample_graphs() {
            let mut rec = InMemoryRecorder::new();
            let xi = count_priority_recorded(&g, &mut rec);
            assert_eq!(xi, count_brute_force(&g));
            assert_eq!(
                rec.counter(Counter::WedgesExpanded),
                priority_wedge_work(&g),
                "forecast must equal measured wedge work"
            );
            // One scatter per expanded wedge, exactly as in the family.
            assert_eq!(rec.counter(Counter::SpaScatters), priority_wedge_work(&g));
        }
    }

    #[test]
    fn parallel_and_checked_paths_agree() {
        for g in sample_graphs() {
            let want = count_priority(&g);
            for nchunks in [1, 2, 4, 7] {
                assert_eq!(count_priority_parallel(&g, nchunks), want);
            }
            assert_eq!(try_count_priority(&g).unwrap(), want);
            assert_eq!(try_count_priority_parallel(&g, 4).unwrap(), want);
        }
    }

    #[test]
    fn parallel_recorded_preserves_total_wedge_work() {
        let mut rng = StdRng::seed_from_u64(4002);
        let g = chung_lu(80, 40, 400, 0.9, 0.5, &mut rng);
        let mut rec = InMemoryRecorder::new();
        let got = count_priority_parallel_recorded(&g, 4, &mut rec);
        assert_eq!(got, count_via_spgemm(&g));
        assert_eq!(
            rec.counter(Counter::WedgesExpanded),
            priority_wedge_work(&g)
        );
        assert!(rec.counter(Counter::ParChunks) >= 1);
        assert!(rec.spans().iter().any(|s| s.name == "priority_rank"));
    }

    #[test]
    fn hub_recorder_matches_buffered_counters() {
        let mut rng = StdRng::seed_from_u64(4003);
        let g = uniform_exact(50, 50, 360, &mut rng);
        let hub = bfly_telemetry::MetricsHub::new();
        let got = count_priority_parallel_recorded(&g, 4, &mut &hub);
        assert_eq!(got, count_via_spgemm(&g));
        let snap = hub.snapshot();
        assert_eq!(
            snap.counter(Counter::WedgesExpanded),
            priority_wedge_work(&g)
        );
    }

    #[test]
    fn per_vertex_counts_match_oracle_on_both_sides() {
        for g in sample_graphs() {
            let (b1, b2) = butterflies_per_vertex_priority(&g);
            assert_eq!(b1, butterflies_per_vertex(&g, Side::V1));
            assert_eq!(b2, butterflies_per_vertex(&g, Side::V2));
            let four_xi: u64 = b1.iter().chain(b2.iter()).sum();
            assert_eq!(four_xi, 4 * count_priority(&g));
        }
    }

    #[test]
    fn per_edge_supports_match_oracle() {
        for g in sample_graphs() {
            assert_eq!(edge_supports_priority(&g), edge_supports(&g));
        }
    }

    #[test]
    fn wedge_work_ties_regular_and_beats_skewed_fixed_sides() {
        // On degree-regular graphs the global order degenerates to the
        // side tie-break, so priority work equals the cheap fixed side
        // exactly; on heavily skewed graphs it is strictly below it.
        // (On mildly uneven near-uniform graphs it can *exceed* the best
        // fixed side — measured up to ~1.3× — which is why `select_plan`
        // gates the member on the computed advantage instead of assuming
        // one; `tests/priority_order_permutation.rs` pins that gate.)
        for n in [4u64, 7] {
            let g = BipartiteGraph::complete(n as usize, n as usize);
            let best_fixed = g.wedges_through_v1().min(g.wedges_through_v2());
            assert_eq!(priority_wedge_work(&g), best_fixed);
            assert_eq!(best_fixed, n * choose2(n));
        }
        let mut rng = StdRng::seed_from_u64(4004);
        for trial in 0..40 {
            let g = chung_lu(80, 60, 500, 1.0, 1.0, &mut rng);
            let best_fixed = g.wedges_through_v1().min(g.wedges_through_v2());
            let got = priority_wedge_work(&g);
            assert!(
                got < best_fixed,
                "trial {trial}: priority {got} ≥ best fixed {best_fixed}"
            );
        }
    }

    #[test]
    fn seeded_overflow_promotes_exactly() {
        let g = BipartiteGraph::complete(3, 3);
        let want = count_priority(&g);
        let (mut acc, complete) =
            count_priority_checked_deadline(&g, 1, None, &mut NoopRecorder).unwrap();
        assert!(complete);
        acc.merge(CheckedAccum::with_base(u64::MAX - 1));
        assert_eq!(
            acc.finish(),
            Err(u64::MAX as u128 - 1 + want as u128),
            "exact promoted total"
        );
    }
}
