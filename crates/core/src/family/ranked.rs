//! Ranked wedge aggregation (the ParButterfly shape of Shi & Shun,
//! arXiv 1907.08607).
//!
//! Same wedge set as the vertex-priority kernel
//! ([`super::priority`]): a wedge `u – j – w` belongs to its strict
//! minimum-rank endpoint under the global degree-descending order. Where
//! the priority kernel drains its accumulator after every start vertex,
//! the ranked kernel processes starts **in rank order**, grouped into
//! buckets of bounded wedge work: each bucket first *materialises* its
//! wedges into one flat batch (far endpoint per wedge, with per-start
//! segment boundaries), then *replays* the batch through a single SPA,
//! draining at segment boundaries. Splitting expansion from aggregation
//! is what makes the parallel path deterministic for free — buckets are
//! placed with [`balanced_chunk_bounds`] over the per-start wedge
//! weights, processed independently, and the per-bucket partials merge
//! in bucket order (via [`CheckedAccum::merge`] on the checked path) —
//! and it trades the priority kernel's per-start cache churn for
//! streaming writes into a batch that fits in L2.
//!
//! Counters: `wedges_expanded` advances during materialisation and
//! `spa_scatters` during replay; both total exactly
//! [`priority_wedge_work`](super::priority::priority_wedge_work), so the
//! adaptive forecast is exact for this member too.

use super::engine::{drain_pairs, Accum, DEADLINE_STRIDE};
use super::parallel::{balanced_chunk_bounds, merge_chunks, run_chunks};
use super::priority::{priority_start_weights, start_of, PriorityRanks, Starts};
use bfly_graph::BipartiteGraph;
use bfly_sparse::{CheckedAccum, Spa};
use bfly_telemetry::{timed_phase, timed_span, Counter, NoopRecorder, Recorder};
use std::time::Instant;

/// Target wedge work per bucket. Calibrated from the `vertex_wedges` /
/// `chunk_us` histograms on the stand-in datasets: 2¹⁴ wedges ≈ 64 KiB
/// of batch (one `u32` per wedge) — inside L2 on every target machine —
/// while a median start contributes well under 2⁶ wedges, so buckets
/// still amortise the segment bookkeeping a few hundred times over.
pub const RANKED_BUCKET_WEDGES: u64 = 1 << 14;

/// Starts ordered by ascending rank (the "ranked" in ranked
/// aggregation), as combined indices (`s < nv1` → V1 vertex `s`, else V2
/// vertex `s − nv1`).
fn starts_by_rank(g: &BipartiteGraph, ranks: &PriorityRanks) -> Vec<usize> {
    let nstarts = g.nv1() + g.nv2();
    let mut order = vec![0usize; nstarts];
    for (u, &r) in ranks.rank_v1.iter().enumerate() {
        order[r as usize] = u;
    }
    for (v, &r) in ranks.rank_v2.iter().enumerate() {
        order[r as usize] = g.nv1() + v;
    }
    order
}

/// Bucket boundaries over `order`: balanced by per-start wedge weight,
/// with at least `min_buckets` buckets and roughly
/// [`RANKED_BUCKET_WEDGES`] of work each.
fn bucket_bounds(weights_in_order: &[u64], min_buckets: usize) -> Vec<usize> {
    let total: u64 = weights_in_order.iter().sum();
    let by_work = total.div_ceil(RANKED_BUCKET_WEDGES.max(1)) as usize;
    let nbuckets = by_work
        .max(min_buckets)
        .max(1)
        .min(weights_in_order.len().max(1));
    balanced_chunk_bounds(weights_in_order, nbuckets)
}

/// One run's bucket layout: the ranks, the starts in rank order, and the
/// bucket boundaries over them.
struct Buckets {
    ranks: PriorityRanks,
    order: Vec<usize>,
    bounds: Vec<usize>,
}

impl Buckets {
    /// Rank `g` (inside a `priority_rank` span) and cut at least
    /// `min_buckets` buckets, recording their number as the
    /// `ranked_buckets` gauge.
    fn plan<R: Recorder>(g: &BipartiteGraph, min_buckets: usize, rec: &mut R) -> Buckets {
        let ranks = timed_span(rec, "priority_rank", |_| PriorityRanks::compute(g));
        let order = starts_by_rank(g, &ranks);
        let weights_by_start = priority_start_weights(g, &ranks);
        let weights: Vec<u64> = order.iter().map(|&s| weights_by_start[s]).collect();
        let bounds = bucket_bounds(&weights, min_buckets.max(1));
        if R::ENABLED {
            rec.gauge("ranked_buckets", (bounds.len() - 1) as f64);
        }
        Buckets {
            ranks,
            order,
            bounds,
        }
    }

    /// The buckets' starts, in rank order.
    fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.bounds.windows(2).map(|w| &self.order[w[0]..w[1]])
    }

    /// Every bucket in turn through one SPA and batch. Stops at the
    /// first bucket the deadline cut short and returns `false`.
    fn count_seq<R: Recorder, A: Accum>(
        &self,
        g: &BipartiteGraph,
        acc: &mut A,
        deadline: Option<Instant>,
        rec: &mut R,
    ) -> bool {
        let mut spa = Spa::<u64>::new(g.nv1().max(g.nv2()));
        let mut batch = Vec::new();
        let mut segs = Vec::new();
        self.iter().all(|starts| {
            let (spa, batch, segs) = (&mut spa, &mut batch, &mut segs);
            process_bucket(g, &self.ranks, starts, spa, batch, segs, acc, deadline, rec)
        })
    }

    /// The non-empty buckets through [`run_chunks`], each on a private
    /// SPA, batch and accumulator, partials merged in bucket order.
    fn count_par<R: Recorder, A: Accum>(
        &self,
        g: &BipartiteGraph,
        deadline: Option<Instant>,
        rec: &mut R,
    ) -> (A, bool) {
        let spa_len = g.nv1().max(g.nv2());
        let buckets: Vec<&[usize]> = self.iter().filter(|b| !b.is_empty()).collect();
        merge_chunks(run_chunks(buckets, rec, |starts, w| {
            let mut spa = Spa::<u64>::new(spa_len);
            let mut batch = Vec::new();
            let mut segs = Vec::new();
            let mut acc = A::default();
            let complete = process_bucket(
                g,
                &self.ranks,
                starts,
                &mut spa,
                &mut batch,
                &mut segs,
                &mut acc,
                deadline,
                w,
            );
            (acc, complete)
        }))
    }
}

/// Materialise the priority wedges of one start into `batch`, recording
/// `wedges_expanded` (+ `vertices_exposed`, `vertex_wedges`). Far
/// endpoints only — the segment boundary is the caller's job.
#[inline]
fn materialise_start<R: Recorder>(
    sides: &[Starts; 2],
    nv1: usize,
    s: usize,
    batch: &mut Vec<u32>,
    rec: &mut R,
) {
    let before = batch.len();
    let (side, u) = start_of(sides, nv1, s);
    side.for_each_wedge(u, |_, w| batch.push(w));
    if R::ENABLED {
        let wedges = (batch.len() - before) as u64;
        rec.incr(Counter::VerticesExposed, 1);
        rec.incr(Counter::WedgesExpanded, wedges);
        rec.hist_record("vertex_wedges", wedges);
    }
}

/// Replay one start's batch segment through the SPA and add its
/// butterfly contribution to `acc`.
#[inline]
fn replay_segment<R: Recorder, A: Accum>(
    segment: &[u32],
    spa: &mut Spa<u64>,
    acc: &mut A,
    rec: &mut R,
) {
    for &w in segment {
        spa.scatter(w, 1);
    }
    if R::ENABLED {
        rec.incr(Counter::SpaScatters, segment.len() as u64);
        rec.incr(Counter::AccumEntries, spa.touched_len() as u64);
    }
    drain_pairs(spa, acc);
}

/// Process one bucket of rank-ordered starts: materialise the flat wedge
/// batch, then replay it segment by segment through `spa`. The deadline
/// is polled every [`DEADLINE_STRIDE`] starts during materialisation; on
/// expiry the bucket replays what it materialised and returns `false`,
/// so `acc` still gains the exact sum over the starts fully processed.
#[allow(clippy::too_many_arguments)]
fn process_bucket<R: Recorder, A: Accum>(
    g: &BipartiteGraph,
    ranks: &PriorityRanks,
    starts: &[usize],
    spa: &mut Spa<u64>,
    batch: &mut Vec<u32>,
    segs: &mut Vec<usize>,
    acc: &mut A,
    deadline: Option<Instant>,
    rec: &mut R,
) -> bool {
    batch.clear();
    segs.clear();
    let sides = Starts::both(g, ranks);
    let mut complete = true;
    for (done, &s) in starts.iter().enumerate() {
        if let Some(d) = deadline {
            if done % DEADLINE_STRIDE == DEADLINE_STRIDE - 1 && Instant::now() >= d {
                complete = false;
                break;
            }
        }
        materialise_start(&sides, g.nv1(), s, batch, rec);
        segs.push(batch.len());
    }
    let mut lo = 0usize;
    for &hi in segs.iter() {
        replay_segment(&batch[lo..hi], spa, acc, rec);
        lo = hi;
    }
    complete
}

/// Count the butterflies of `g` by ranked wedge aggregation
/// (sequential, buckets processed in rank order).
pub fn count_ranked(g: &BipartiteGraph) -> u64 {
    count_ranked_recorded(g, &mut NoopRecorder)
}

/// [`count_ranked`] reporting work counters, a `priority_rank` span for
/// the ordering sort, a `ranked_buckets` gauge, and a `"count"` phase
/// through `rec`.
pub fn count_ranked_recorded<R: Recorder>(g: &BipartiteGraph, rec: &mut R) -> u64 {
    let buckets = Buckets::plan(g, 1, rec);
    timed_phase(rec, "count", |rec| {
        timed_span(rec, "count_ranked", |rec| {
            let mut total = 0u64;
            buckets.count_seq(g, &mut total, None, rec);
            total
        })
    })
}

/// Deterministic parallel [`count_ranked`]: buckets (at least `nchunks`
/// of them, balanced by wedge weight) are processed concurrently, each
/// with a private SPA and batch, and the per-bucket partial sums merge
/// in bucket order — bitwise identical totals at any thread count.
pub fn count_ranked_parallel(g: &BipartiteGraph, nchunks: usize) -> u64 {
    count_ranked_parallel_recorded(g, nchunks, &mut NoopRecorder)
}

/// Instrumented [`count_ranked_parallel`]: the family's parallel event
/// stream from [`run_chunks`] (one `chunk` span per bucket, `chunk_us`
/// histogram, `par_chunk_wedges` series, `par_imbalance` gauge) inside a
/// `count_parallel` phase.
pub fn count_ranked_parallel_recorded<R: Recorder>(
    g: &BipartiteGraph,
    nchunks: usize,
    rec: &mut R,
) -> u64 {
    let buckets = Buckets::plan(g, nchunks, rec);
    timed_phase(rec, "count_parallel", |rec| {
        buckets.count_par::<R, u64>(g, None, rec).0
    })
}

/// Overflow-checked, deadline-aware ranked count with the same recording
/// as the unchecked paths: sequential buckets when `nchunks <= 1`, else
/// the parallel bucket runner. Each bucket polls the deadline as
/// [`process_bucket`] describes, so a truncated accumulator still holds
/// the exact sum over the starts fully processed. Bucket partials merge
/// in order via [`CheckedAccum::merge`].
pub(crate) fn count_ranked_checked_deadline<R: Recorder>(
    g: &BipartiteGraph,
    nchunks: usize,
    deadline: Option<Instant>,
    rec: &mut R,
) -> crate::error::Result<(CheckedAccum, bool)> {
    let buckets = Buckets::plan(g, nchunks, rec);
    if nchunks <= 1 {
        let mut acc = CheckedAccum::new();
        let complete = buckets.count_seq(g, &mut acc, deadline, rec);
        return Ok((acc, complete));
    }
    Ok(buckets.count_par(g, deadline, rec))
}

/// Fallible [`count_ranked`]: validates the graph up front and runs the
/// overflow-checked kernel.
pub fn try_count_ranked(g: &BipartiteGraph) -> crate::error::Result<u64> {
    crate::error::validate_graph(g)?;
    let (acc, _complete) = count_ranked_checked_deadline(g, 1, None, &mut NoopRecorder)?;
    acc.finish()
        .map_err(|partial| crate::error::BflyError::CountOverflow {
            partial,
            context: "count_ranked",
        })
}

/// Fallible deterministic-parallel [`count_ranked_parallel`].
pub fn try_count_ranked_parallel(g: &BipartiteGraph, nchunks: usize) -> crate::error::Result<u64> {
    crate::error::validate_graph(g)?;
    let (acc, _complete) =
        count_ranked_checked_deadline(g, nchunks.max(2), None, &mut NoopRecorder)?;
    acc.finish()
        .map_err(|partial| crate::error::BflyError::CountOverflow {
            partial,
            context: "count_ranked_parallel",
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::priority::{count_priority, priority_wedge_work};
    use crate::spec::count_via_spgemm;
    use bfly_graph::generators::{chung_lu, uniform_exact};
    use bfly_telemetry::InMemoryRecorder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_graphs() -> Vec<BipartiteGraph> {
        let mut rng = StdRng::seed_from_u64(5001);
        vec![
            BipartiteGraph::complete(5, 5),
            BipartiteGraph::complete(9, 2),
            BipartiteGraph::empty(4, 6),
            uniform_exact(45, 35, 260, &mut rng),
            chung_lu(70, 20, 340, 0.9, 0.4, &mut rng),
        ]
    }

    #[test]
    fn ranked_matches_spec_and_priority() {
        for g in sample_graphs() {
            let want = count_via_spgemm(&g);
            assert_eq!(count_ranked(&g), want);
            assert_eq!(count_ranked(&g), count_priority(&g));
        }
    }

    #[test]
    fn ranked_wedge_work_equals_priority_forecast() {
        for g in sample_graphs() {
            let mut rec = InMemoryRecorder::new();
            count_ranked_recorded(&g, &mut rec);
            let want = priority_wedge_work(&g);
            assert_eq!(rec.counter(Counter::WedgesExpanded), want);
            // Replay scatters exactly what materialisation expanded.
            assert_eq!(rec.counter(Counter::SpaScatters), want);
        }
    }

    #[test]
    fn parallel_and_checked_paths_agree() {
        for g in sample_graphs() {
            let want = count_ranked(&g);
            for nchunks in [1, 2, 4, 5] {
                assert_eq!(
                    count_ranked_parallel(&g, nchunks),
                    want,
                    "nchunks={nchunks}"
                );
            }
            assert_eq!(try_count_ranked(&g).unwrap(), want);
            assert_eq!(try_count_ranked_parallel(&g, 3).unwrap(), want);
        }
    }

    #[test]
    fn bucket_bounds_honour_minimum_and_cover() {
        let weights = vec![3u64; 100];
        let b = bucket_bounds(&weights, 4);
        assert!(b.len() > 4, "at least 4 buckets (bounds = buckets + 1)");
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), 100);
        // Heavy total splits into multiple buckets even with min 1.
        let heavy = vec![RANKED_BUCKET_WEDGES; 8];
        assert!(bucket_bounds(&heavy, 1).len() > 8);
    }

    #[test]
    fn hub_recorder_matches_buffered() {
        let mut rng = StdRng::seed_from_u64(5002);
        let g = uniform_exact(60, 40, 320, &mut rng);
        let hub = bfly_telemetry::MetricsHub::new();
        let got = count_ranked_parallel_recorded(&g, 4, &mut &hub);
        assert_eq!(got, count_via_spgemm(&g));
        assert_eq!(
            hub.snapshot().counter(Counter::WedgesExpanded),
            priority_wedge_work(&g)
        );
    }

    #[test]
    fn recorded_parallel_reports_buckets() {
        let mut rng = StdRng::seed_from_u64(5003);
        let g = chung_lu(90, 30, 420, 0.9, 0.5, &mut rng);
        let mut rec = InMemoryRecorder::new();
        let got = count_ranked_parallel_recorded(&g, 4, &mut rec);
        assert_eq!(got, count_via_spgemm(&g));
        assert!(rec.gauge_value("ranked_buckets").unwrap_or(0.0) >= 1.0);
        assert!(rec.counter(Counter::ParChunks) >= 1);
    }
}
