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

use super::engine::DEADLINE_STRIDE;
use super::parallel::balanced_chunk_bounds;
use bfly_graph::ordering::global_degree_ranks;
use bfly_graph::BipartiteGraph;
use bfly_sparse::{choose2, CheckedAccum, Pattern, Spa};
use bfly_telemetry::{
    timed_phase, timed_span, Counter, MetricsHub, NoopRecorder, Recorder, ThreadTrace,
};
use rayon::prelude::*;
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

/// Cheap per-start upper bound on the wedges each start vertex expands —
/// `Σ_{j ∈ N(s), rank(j) > rank(s)} (deg(j) − 1)` — used to place
/// work-balanced chunk boundaries over the combined start space
/// (`0..nv1` = V1 starts, `nv1..nv1+nv2` = V2 starts). An upper bound
/// (it skips the far-endpoint rank filter) but proportional enough to
/// balance chunks; exactness is not required for correctness.
pub fn priority_start_weights(g: &BipartiteGraph, ranks: &PriorityRanks) -> Vec<u64> {
    let a = g.biadjacency();
    let at = g.biadjacency_t();
    let mut weights = Vec::with_capacity(g.nv1() + g.nv2());
    for u in 0..g.nv1() {
        let ru = ranks.rank_v1[u];
        let w: u64 = a
            .row(u)
            .iter()
            .filter(|&&j| ranks.rank_v2[j as usize] > ru)
            .map(|&j| (at.row(j as usize).len() as u64).saturating_sub(1))
            .sum();
        weights.push(w);
    }
    for v in 0..g.nv2() {
        let rv = ranks.rank_v2[v];
        let w: u64 = at
            .row(v)
            .iter()
            .filter(|&&j| ranks.rank_v1[j as usize] > rv)
            .map(|&j| (a.row(j as usize).len() as u64).saturating_sub(1))
            .sum();
        weights.push(w);
    }
    weights
}

/// Expand the priority wedges of one start vertex `u` and return the
/// butterflies charged to it. `adj_start.row(u)` lists `u`'s
/// opposite-side neighbours (wedge midpoints), `adj_mid.row(j)` the far
/// endpoints. Records through the same counter vocabulary as the family
/// engine (`vertices_exposed`, `wedges_expanded`, `spa_scatters`,
/// `accum_entries`, `vertex_wedges`), every site guarded by
/// `R::ENABLED`.
#[inline]
fn expand_start_recorded<R: Recorder>(
    adj_start: &Pattern,
    adj_mid: &Pattern,
    rank_start: &[u32],
    rank_mid: &[u32],
    u: usize,
    spa: &mut Spa<u64>,
    rec: &mut R,
) -> u64 {
    let ru = rank_start[u];
    let mut wedges = 0u64;
    for &j in adj_start.row(u) {
        if rank_mid[j as usize] <= ru {
            continue;
        }
        for &w in adj_mid.row(j as usize) {
            if w as usize != u && rank_start[w as usize] > ru {
                if R::ENABLED {
                    wedges += 1;
                }
                spa.scatter(w, 1);
            }
        }
    }
    if R::ENABLED {
        rec.incr(Counter::VerticesExposed, 1);
        rec.incr(Counter::WedgesExpanded, wedges);
        rec.incr(Counter::SpaScatters, wedges);
        rec.incr(Counter::AccumEntries, spa.touched_len() as u64);
        rec.hist_record("vertex_wedges", wedges);
    }
    let mut acc = 0u64;
    for (_, cnt) in spa.entries() {
        acc += choose2(cnt);
    }
    spa.clear();
    acc
}

/// Overflow-checked [`expand_start_recorded`]: the `Σ C(cnt, 2)` update
/// lands in a [`CheckedAccum`] (promoting to `u128` instead of wrapping).
#[inline]
#[allow(clippy::too_many_arguments)]
fn expand_start_checked_recorded<R: Recorder>(
    adj_start: &Pattern,
    adj_mid: &Pattern,
    rank_start: &[u32],
    rank_mid: &[u32],
    u: usize,
    spa: &mut Spa<u64>,
    acc: &mut CheckedAccum,
    rec: &mut R,
) {
    let ru = rank_start[u];
    let mut wedges = 0u64;
    for &j in adj_start.row(u) {
        if rank_mid[j as usize] <= ru {
            continue;
        }
        for &w in adj_mid.row(j as usize) {
            if w as usize != u && rank_start[w as usize] > ru {
                if R::ENABLED {
                    wedges += 1;
                }
                spa.scatter(w, 1);
            }
        }
    }
    if R::ENABLED {
        rec.incr(Counter::VerticesExposed, 1);
        rec.incr(Counter::WedgesExpanded, wedges);
        rec.incr(Counter::SpaScatters, wedges);
        rec.incr(Counter::AccumEntries, spa.touched_len() as u64);
        rec.hist_record("vertex_wedges", wedges);
    }
    for (_, cnt) in spa.entries() {
        acc.add(choose2(cnt));
    }
    spa.clear();
}

/// Run one start from the combined index space (`s < nv1` → V1 start,
/// else V2 start `s − nv1`).
#[inline]
pub(crate) fn run_start_recorded<R: Recorder>(
    g: &BipartiteGraph,
    ranks: &PriorityRanks,
    s: usize,
    spa: &mut Spa<u64>,
    rec: &mut R,
) -> u64 {
    let (a, at) = (g.biadjacency(), g.biadjacency_t());
    if s < g.nv1() {
        expand_start_recorded(a, at, &ranks.rank_v1, &ranks.rank_v2, s, spa, rec)
    } else {
        expand_start_recorded(at, a, &ranks.rank_v2, &ranks.rank_v1, s - g.nv1(), spa, rec)
    }
}

/// Checked twin of [`run_start_recorded`].
#[inline]
pub(crate) fn run_start_checked_recorded<R: Recorder>(
    g: &BipartiteGraph,
    ranks: &PriorityRanks,
    s: usize,
    spa: &mut Spa<u64>,
    acc: &mut CheckedAccum,
    rec: &mut R,
) {
    let (a, at) = (g.biadjacency(), g.biadjacency_t());
    if s < g.nv1() {
        expand_start_checked_recorded(a, at, &ranks.rank_v1, &ranks.rank_v2, s, spa, acc, rec)
    } else {
        expand_start_checked_recorded(
            at,
            a,
            &ranks.rank_v2,
            &ranks.rank_v1,
            s - g.nv1(),
            spa,
            acc,
            rec,
        )
    }
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
    let nstarts = g.nv1() + g.nv2();
    let mut spa = Spa::<u64>::new(g.nv1().max(g.nv2()));
    timed_phase(rec, "count", |rec| {
        timed_span(rec, "count_priority", |rec| {
            let mut total = 0u64;
            for s in 0..nstarts {
                total += run_start_recorded(g, &ranks, s, &mut spa, rec);
            }
            total
        })
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

/// Instrumented [`count_priority_parallel`]: the same event stream as the
/// family's balanced parallel path — per-worker [`ThreadTrace`]s with
/// `chunk` spans, the `chunk_us` histogram, the `par_chunk_wedges`
/// series, and the `par_imbalance` gauge — inside a `count_parallel`
/// phase.
pub fn count_priority_parallel_recorded<R: Recorder>(
    g: &BipartiteGraph,
    nchunks: usize,
    rec: &mut R,
) -> u64 {
    let ranks = timed_span(rec, "priority_rank", |_| PriorityRanks::compute(g));
    let weights = priority_start_weights(g, &ranks);
    let bounds = balanced_chunk_bounds(&weights, nchunks.max(1));
    let spa_len = g.nv1().max(g.nv2());
    let chunks: Vec<std::ops::Range<usize>> = bounds
        .windows(2)
        .map(|w| w[0]..w[1])
        .filter(|r| !r.is_empty())
        .collect();
    timed_phase(rec, "count_parallel", |rec| {
        if !R::ENABLED {
            return chunks
                .into_par_iter()
                .map(|range| {
                    let mut spa = Spa::<u64>::new(spa_len);
                    range
                        .map(|s| run_start_recorded(g, &ranks, s, &mut spa, &mut NoopRecorder))
                        .sum::<u64>()
                })
                .sum();
        }
        let per_chunk: Vec<(u64, ThreadTrace)> = chunks
            .into_par_iter()
            .map(|range| {
                let mut spa = Spa::<u64>::new(spa_len);
                let mut trace = ThreadTrace::new();
                let t0 = Instant::now();
                trace.span_enter("chunk");
                let mut sum = 0u64;
                for s in range {
                    sum += run_start_recorded(g, &ranks, s, &mut spa, &mut trace);
                }
                trace.span_exit("chunk");
                trace.hist_record("chunk_us", t0.elapsed().as_micros() as u64);
                (sum, trace)
            })
            .collect();
        rec.incr(Counter::ParChunks, per_chunk.len() as u64);
        let nchunks_run = per_chunk.len();
        let mut total = 0u64;
        let mut max_wedges = 0u64;
        let mut sum_wedges = 0u64;
        for (i, (sub, trace)) in per_chunk.into_iter().enumerate() {
            total += sub;
            let w = trace.tally().get(Counter::WedgesExpanded);
            rec.series_push("par_chunk_wedges", w as f64);
            max_wedges = max_wedges.max(w);
            sum_wedges += w;
            rec.merge_thread(i as u32 + 1, trace);
        }
        if nchunks_run > 0 && sum_wedges > 0 {
            let mean = sum_wedges as f64 / nchunks_run as f64;
            rec.gauge("par_imbalance", max_wedges as f64 / mean);
        }
        total
    })
}

/// Shared-hub [`count_priority_parallel`]: workers record live into the
/// concurrent [`MetricsHub`] as they go, so a mid-run observer sees
/// `wedges_expanded` advance against the exact
/// [`priority_wedge_work`] forecast. Totals are bitwise identical to the
/// buffered path.
pub fn count_priority_shared(g: &BipartiteGraph, nchunks: usize, hub: &MetricsHub) -> u64 {
    let mut rec: &MetricsHub = hub;
    let ranks = timed_span(&mut rec, "priority_rank", |_| PriorityRanks::compute(g));
    let weights = priority_start_weights(g, &ranks);
    let bounds = balanced_chunk_bounds(&weights, nchunks.max(1));
    let spa_len = g.nv1().max(g.nv2());
    let chunks: Vec<std::ops::Range<usize>> = bounds
        .windows(2)
        .map(|w| w[0]..w[1])
        .filter(|r| !r.is_empty())
        .collect();
    let nchunks_run = chunks.len();
    timed_phase(&mut rec, "count_parallel", |_| {
        let total: u64 = chunks
            .into_par_iter()
            .map(|range| {
                let mut spa = Spa::<u64>::new(spa_len);
                let mut rec: &MetricsHub = hub;
                let t0 = Instant::now();
                hub.enter_span("chunk");
                let mut sum = 0u64;
                for s in range {
                    sum += run_start_recorded(g, &ranks, s, &mut spa, &mut rec);
                }
                hub.exit_span("chunk");
                hub.record_hist("chunk_us", t0.elapsed().as_micros() as u64);
                sum
            })
            .sum();
        hub.incr(Counter::ParChunks, nchunks_run as u64);
        total
    })
}

/// Overflow-checked, deadline-aware priority count. `nchunks <= 1` runs
/// the sequential loop polling the deadline every [`DEADLINE_STRIDE`]
/// starts; larger `nchunks` runs balanced parallel chunks, each polling
/// independently, with the per-chunk [`CheckedAccum`] partials merged in
/// chunk order. Returns the accumulator and whether every start was
/// processed; a truncated accumulator holds the exact sum over the
/// starts processed before the cut.
pub(crate) fn count_priority_checked_deadline(
    g: &BipartiteGraph,
    nchunks: usize,
    deadline: Option<Instant>,
) -> crate::error::Result<(CheckedAccum, bool)> {
    let ranks = PriorityRanks::compute(g);
    let nstarts = g.nv1() + g.nv2();
    let spa_len = g.nv1().max(g.nv2());
    if nchunks <= 1 {
        let mut spa = Spa::<u64>::new(spa_len);
        let mut acc = CheckedAccum::new();
        for s in 0..nstarts {
            if s % DEADLINE_STRIDE == DEADLINE_STRIDE - 1 {
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return Ok((acc, false));
                    }
                }
            }
            run_start_checked_recorded(g, &ranks, s, &mut spa, &mut acc, &mut NoopRecorder);
        }
        return Ok((acc, true));
    }
    let weights = priority_start_weights(g, &ranks);
    let bounds = balanced_chunk_bounds(&weights, nchunks);
    let chunks: Vec<std::ops::Range<usize>> = bounds
        .windows(2)
        .map(|w| w[0]..w[1])
        .filter(|r| !r.is_empty())
        .collect();
    let partials: Vec<(CheckedAccum, bool)> = chunks
        .into_par_iter()
        .map(|range| {
            let mut spa = Spa::<u64>::new(spa_len);
            let mut acc = CheckedAccum::new();
            for (done, s) in range.enumerate() {
                if done % DEADLINE_STRIDE == DEADLINE_STRIDE - 1 {
                    if let Some(d) = deadline {
                        if Instant::now() >= d {
                            return (acc, false);
                        }
                    }
                }
                run_start_checked_recorded(g, &ranks, s, &mut spa, &mut acc, &mut NoopRecorder);
            }
            (acc, true)
        })
        .collect();
    let mut total = CheckedAccum::new();
    let mut complete = true;
    for (p, c) in partials {
        total.merge(p);
        complete &= c;
    }
    Ok((total, complete))
}

/// Fallible [`count_priority`]: validates the graph up front and runs
/// the overflow-checked kernel.
pub fn try_count_priority(g: &BipartiteGraph) -> crate::error::Result<u64> {
    crate::error::validate_graph(g)?;
    let (acc, _complete) = count_priority_checked_deadline(g, 1, None)?;
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
    let (acc, _complete) = count_priority_checked_deadline(g, nchunks.max(2), None)?;
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
    let (a, at) = (g.biadjacency(), g.biadjacency_t());
    let mut b1 = vec![0u64; g.nv1()];
    let mut b2 = vec![0u64; g.nv2()];
    let mut spa = Spa::<u64>::new(g.nv1().max(g.nv2()));

    // V1 starts: far endpoints in V1, centres in V2.
    for u in 0..g.nv1() {
        let ru = ranks.rank_v1[u];
        for &j in a.row(u) {
            if ranks.rank_v2[j as usize] <= ru {
                continue;
            }
            for &w in at.row(j as usize) {
                if w as usize != u && ranks.rank_v1[w as usize] > ru {
                    spa.scatter(w, 1);
                }
            }
        }
        for (w, cnt) in spa.entries() {
            let b = choose2(cnt);
            b1[u] += b;
            b1[w as usize] += b;
        }
        // Replay the wedges to credit the centres.
        for &j in a.row(u) {
            if ranks.rank_v2[j as usize] <= ru {
                continue;
            }
            for &w in at.row(j as usize) {
                if w as usize != u && ranks.rank_v1[w as usize] > ru {
                    b2[j as usize] += spa.get(w) - 1;
                }
            }
        }
        spa.clear();
    }
    // V2 starts: far endpoints in V2, centres in V1.
    for v in 0..g.nv2() {
        let rv = ranks.rank_v2[v];
        for &j in at.row(v) {
            if ranks.rank_v1[j as usize] <= rv {
                continue;
            }
            for &w in a.row(j as usize) {
                if w as usize != v && ranks.rank_v2[w as usize] > rv {
                    spa.scatter(w, 1);
                }
            }
        }
        for (w, cnt) in spa.entries() {
            let b = choose2(cnt);
            b2[v] += b;
            b2[w as usize] += b;
        }
        for &j in at.row(v) {
            if ranks.rank_v1[j as usize] <= rv {
                continue;
            }
            for &w in a.row(j as usize) {
                if w as usize != v && ranks.rank_v2[w as usize] > rv {
                    b1[j as usize] += spa.get(w) - 1;
                }
            }
        }
        spa.clear();
    }
    (b1, b2)
}

/// Per-edge butterfly supports computed by the priority kernel, in the
/// row-major edge order of [`BipartiteGraph::edges`] (matching
/// [`edge_supports`](crate::edge_support::edge_supports)). Each expanded
/// wedge `u – j – w` with final multiplicity `cnt[w]` supports its two
/// edges `(u, j)` and `(w, j)` with the `cnt[w] − 1` butterflies closing
/// it — every butterfly lands on all four of its edges exactly once.
pub fn edge_supports_priority(g: &BipartiteGraph) -> Vec<u64> {
    let ranks = PriorityRanks::compute(g);
    let (a, at) = (g.biadjacency(), g.biadjacency_t());
    let ptr = a.ptr();
    let mut out = vec![0u64; g.nedges()];
    let mut spa = Spa::<u64>::new(g.nv1().max(g.nv2()));
    // Edge index of (u ∈ V1, v ∈ V2): CSR offset of u plus the position
    // of v in u's sorted row.
    let edge_index = |u: usize, v: u32| -> usize {
        let pos = a.row(u).binary_search(&v).expect("edge exists");
        ptr[u] + pos
    };

    // V1 starts: wedge u – j – w has edges (u, j) and (w, j).
    for u in 0..g.nv1() {
        let ru = ranks.rank_v1[u];
        for &j in a.row(u) {
            if ranks.rank_v2[j as usize] <= ru {
                continue;
            }
            for &w in at.row(j as usize) {
                if w as usize != u && ranks.rank_v1[w as usize] > ru {
                    spa.scatter(w, 1);
                }
            }
        }
        for &j in a.row(u) {
            if ranks.rank_v2[j as usize] <= ru {
                continue;
            }
            for &w in at.row(j as usize) {
                if w as usize != u && ranks.rank_v1[w as usize] > ru {
                    let closures = spa.get(w) - 1;
                    out[edge_index(u, j)] += closures;
                    out[edge_index(w as usize, j)] += closures;
                }
            }
        }
        spa.clear();
    }
    // V2 starts: wedge v – j – w has edges (j, v) and (j, w).
    for v in 0..g.nv2() {
        let rv = ranks.rank_v2[v];
        for &j in at.row(v) {
            if ranks.rank_v1[j as usize] <= rv {
                continue;
            }
            for &w in a.row(j as usize) {
                if w as usize != v && ranks.rank_v2[w as usize] > rv {
                    spa.scatter(w, 1);
                }
            }
        }
        for &j in at.row(v) {
            if ranks.rank_v1[j as usize] <= rv {
                continue;
            }
            for &w in a.row(j as usize) {
                if w as usize != v && ranks.rank_v2[w as usize] > rv {
                    let closures = spa.get(w) - 1;
                    out[edge_index(j as usize, v as u32)] += closures;
                    out[edge_index(j as usize, w)] += closures;
                }
            }
        }
        spa.clear();
    }
    out
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
    fn shared_hub_path_matches_and_is_live() {
        let mut rng = StdRng::seed_from_u64(4003);
        let g = uniform_exact(50, 50, 360, &mut rng);
        let hub = MetricsHub::new();
        let got = count_priority_shared(&g, 4, &hub);
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
        let (mut acc, complete) = count_priority_checked_deadline(&g, 1, None).unwrap();
        assert!(complete);
        acc.merge(CheckedAccum::with_base(u64::MAX - 1));
        assert_eq!(
            acc.finish(),
            Err(u64::MAX as u128 - 1 + want as u128),
            "exact promoted total"
        );
    }
}
