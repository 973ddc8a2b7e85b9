//! Parallel members of the family (the paper's Fig. 11 measurements).
//!
//! Each loop iteration of a derived algorithm touches a disjoint slice of
//! the output (one exposed vertex's butterfly contribution), so the loop
//! parallelises directly: the partitioned vertices are cut into chunks,
//! each chunk owns a private sparse accumulator (allocated once per chunk
//! rather than once per vertex), and the per-chunk sums merge in chunk
//! order. The paper used 6 OpenMP threads; [`count_parallel_with_threads`]
//! pins the pool size to reproduce that configuration exactly.
//!
//! Every parallel counting member — the fixed invariants here, the
//! priority and ranked kernels — runs its chunks through one runner,
//! [`run_chunks`]. How a chunk records is the caller's recorder's choice
//! ([`Recorder::worker`]): the buffering recorders give each chunk a
//! private [`ThreadTrace`](bfly_telemetry::ThreadTrace) merged onto its
//! own track after the join, a shared
//! [`MetricsHub`](bfly_telemetry::MetricsHub) records every chunk live,
//! and [`NoopRecorder`] records nothing and reads no clock.

use super::engine::{update_vertices, Accum, PartFilter, Traversal};
use super::Invariant;
use bfly_graph::{BipartiteGraph, Side};
use bfly_sparse::{CheckedAccum, Pattern, Spa};
use bfly_telemetry::{Counter, NoopRecorder, Recorder, ThreadTrace, WorkTally};
use rayon::prelude::*;
use std::time::Instant;

/// One chunk's recorder inside [`run_chunks`]: the caller's worker
/// recorder, plus the chunk's own `wedges_expanded` total, which feeds
/// the `par_chunk_wedges` series whatever the worker keeps.
pub(crate) struct ChunkRecorder<W> {
    worker: W,
    wedges: u64,
}

impl<W: Recorder> Recorder for ChunkRecorder<W> {
    const ENABLED: bool = W::ENABLED;
    type Worker = W::Worker;

    fn worker(&self) -> W::Worker {
        self.worker.worker()
    }

    fn join_worker(&mut self, track: u32, worker: W::Worker) {
        self.worker.join_worker(track, worker);
    }

    #[inline]
    fn incr(&mut self, c: Counter, n: u64) {
        if c == Counter::WedgesExpanded {
            self.wedges += n;
        }
        self.worker.incr(c, n);
    }

    fn gauge(&mut self, name: &'static str, value: f64) {
        self.worker.gauge(name, value);
    }

    fn series_push(&mut self, name: &'static str, value: f64) {
        self.worker.series_push(name, value);
    }

    fn phase_start(&mut self, name: &'static str) {
        self.worker.phase_start(name);
    }

    fn phase_end(&mut self, name: &'static str) {
        self.worker.phase_end(name);
    }

    fn span_enter(&mut self, name: &'static str) {
        self.worker.span_enter(name);
    }

    fn span_exit(&mut self, name: &'static str) {
        self.worker.span_exit(name);
    }

    #[inline]
    fn hist_record(&mut self, name: &'static str, value: u64) {
        self.worker.hist_record(name, value);
    }

    fn merge(&mut self, tally: &WorkTally) {
        self.wedges += tally.get(Counter::WedgesExpanded);
        self.worker.merge(tally);
    }

    fn merge_thread(&mut self, thread: u32, trace: ThreadTrace) {
        self.wedges += trace.tally().get(Counter::WedgesExpanded);
        self.worker.merge_thread(thread, trace);
    }
}

/// The one chunk runner behind every parallel counting member: runs
/// `body` on each chunk over rayon's current pool and returns the
/// results in chunk order. Each chunk records into its own worker
/// recorder from [`Recorder::worker`], handed back through
/// [`Recorder::join_worker`] on track `i + 1` after the join (track 0 is
/// the caller's own stream). An enabled recorder also gets a `chunk`
/// span and a `chunk_us` latency sample per chunk, the `par_chunks`
/// counter, the per-chunk `par_chunk_wedges` series, and the
/// `par_imbalance` gauge (max over mean chunk wedges; 1.0 = perfectly
/// balanced). With [`NoopRecorder`] none of that exists, not even a
/// clock read.
pub(crate) fn run_chunks<R, C, T, F>(chunks: Vec<C>, rec: &mut R, body: F) -> Vec<T>
where
    R: Recorder,
    C: Send,
    T: Send,
    F: Fn(C, &mut ChunkRecorder<R::Worker>) -> T + Sync,
{
    let jobs: Vec<(C, ChunkRecorder<R::Worker>)> = chunks
        .into_iter()
        .map(|c| {
            let worker = rec.worker();
            (c, ChunkRecorder { worker, wedges: 0 })
        })
        .collect();
    let done: Vec<(T, ChunkRecorder<R::Worker>)> = jobs
        .into_par_iter()
        .map(|(chunk, mut w)| {
            if !R::ENABLED {
                return (body(chunk, &mut w), w);
            }
            let t0 = Instant::now();
            w.span_enter("chunk");
            let out = body(chunk, &mut w);
            w.span_exit("chunk");
            w.hist_record("chunk_us", t0.elapsed().as_micros() as u64);
            (out, w)
        })
        .collect();
    let nchunks = done.len();
    rec.incr(Counter::ParChunks, nchunks as u64);
    let mut max_wedges = 0u64;
    let mut sum_wedges = 0u64;
    let mut out = Vec::with_capacity(nchunks);
    for (i, (result, w)) in done.into_iter().enumerate() {
        if R::ENABLED {
            rec.series_push("par_chunk_wedges", w.wedges as f64);
            max_wedges = max_wedges.max(w.wedges);
            sum_wedges += w.wedges;
        }
        rec.join_worker(i as u32 + 1, w.worker);
        out.push(result);
    }
    if nchunks > 0 && sum_wedges > 0 {
        let mean = sum_wedges as f64 / nchunks as f64;
        rec.gauge("par_imbalance", max_wedges as f64 / mean);
    }
    out
}

/// Fold per-chunk partials in chunk order; complete iff every chunk ran
/// to completion.
pub(crate) fn merge_chunks<A: Accum>(parts: Vec<(A, bool)>) -> (A, bool) {
    let mut total = A::default();
    let mut complete = true;
    for (part, done) in parts {
        total.merge(part);
        complete &= done;
    }
    (total, complete)
}

/// The partitioned vertices in traversal order. Work distribution makes
/// the order immaterial for the total, but cutting chunks from it keeps
/// per-invariant scheduling comparable to the sequential versions.
fn traversal_order(nverts: usize, traversal: Traversal) -> Vec<usize> {
    match traversal {
        Traversal::Forward => (0..nverts).collect(),
        Traversal::Backward => (0..nverts).rev().collect(),
    }
}

/// Count chunks of partitioned vertices through [`run_chunks`]: each
/// chunk runs the engine's vertex loop on a private SPA and
/// accumulator, polling `deadline` every
/// [`DEADLINE_STRIDE`](super::engine::DEADLINE_STRIDE) of its own
/// vertices.
fn count_vertex_chunks<R: Recorder, A: Accum>(
    part_adj: &Pattern,
    other_adj: &Pattern,
    filter: PartFilter,
    chunks: Vec<&[usize]>,
    deadline: Option<Instant>,
    rec: &mut R,
) -> (A, bool) {
    let nverts = part_adj.nrows();
    merge_chunks(run_chunks(chunks, rec, |chunk, w| {
        let mut spa = Spa::<u64>::new(nverts);
        let mut acc = A::default();
        let ks = chunk.iter().copied();
        let complete = update_vertices(
            part_adj, other_adj, filter, ks, &mut spa, &mut acc, deadline, w,
        );
        (acc, complete)
    }))
}

/// Parallel counterpart of [`crate::family::count_partitioned`].
pub fn count_partitioned_parallel(
    part_adj: &Pattern,
    other_adj: &Pattern,
    traversal: Traversal,
    filter: PartFilter,
) -> u64 {
    count_partitioned_parallel_recorded(part_adj, other_adj, traversal, filter, &mut NoopRecorder)
}

/// Instrumented [`count_partitioned_parallel`]: the partitioned vertices
/// are processed as one equal-length chunk per worker through
/// [`run_chunks`], so chunk imbalance is visible span-by-span (each
/// chunk's `chunk` span carries its counter deltas and the engine's
/// `vertex_wedges` histogram), not just as the `par_imbalance` gauge.
pub fn count_partitioned_parallel_recorded<R: Recorder>(
    part_adj: &Pattern,
    other_adj: &Pattern,
    traversal: Traversal,
    filter: PartFilter,
    rec: &mut R,
) -> u64 {
    let order = traversal_order(part_adj.nrows(), traversal);
    let nthreads = rayon::current_num_threads().max(1);
    let chunk_len = order.len().div_ceil(nthreads).max(1);
    let chunks = order.chunks(chunk_len).collect();
    count_vertex_chunks::<R, u64>(part_adj, other_adj, filter, chunks, None, rec).0
}

/// Exact wedge work each partitioned vertex will trigger: vertex `k`'s
/// update scans `Σ_{j ∈ N(k)} deg_other(j)` adjacency entries (its wedge
/// midpoints), which is what the `chunk_us` histogram showed to be wildly
/// unequal across equal-length vertex ranges on skewed graphs.
pub fn wedge_weights(part_adj: &Pattern, other_adj: &Pattern) -> Vec<u64> {
    (0..part_adj.nrows())
        .map(|k| {
            part_adj
                .row(k)
                .iter()
                .map(|&j| other_adj.row(j as usize).len() as u64)
                .sum()
        })
        .collect()
}

/// Chunk boundaries that equalise *work*, not vertex count: boundary `c`
/// is placed at the first index whose weight prefix sum reaches
/// `total · c / nchunks`. Returns `nchunks + 1` monotone bounds with
/// `bounds[0] == 0` and `bounds[nchunks] == weights.len()`; chunks may be
/// empty on degenerate inputs (all weight in one vertex). With all-zero
/// weights this degrades to equal vertex ranges.
pub fn balanced_chunk_bounds(weights: &[u64], nchunks: usize) -> Vec<usize> {
    let n = weights.len();
    let nchunks = nchunks.max(1);
    let total: u64 = weights.iter().sum();
    let mut bounds = Vec::with_capacity(nchunks + 1);
    bounds.push(0);
    if total == 0 {
        for c in 1..=nchunks {
            bounds.push(n * c / nchunks);
        }
        return bounds;
    }
    let mut prefix = 0u64;
    let mut i = 0usize;
    for c in 1..nchunks {
        // u64·usize can overflow u64 only past ~2^64 wedges; use u128.
        let target = (total as u128 * c as u128).div_ceil(nchunks as u128) as u64;
        while i < n && prefix < target {
            prefix += weights[i];
            i += 1;
        }
        bounds.push(i);
    }
    bounds.push(n);
    bounds
}

/// The p90 of the nonzero entries of a wedge-weight array — the statistic
/// the `vertex_wedges` histogram records per run, computed here directly
/// from the weights so chunk sizing can use it before any run exists.
/// Zero weights are excluded (most vertices of a sparse graph trigger no
/// wedges at all; including them collapses every percentile to 0).
/// Returns 0 when all weights are zero.
pub fn weight_p90(weights: &[u64]) -> u64 {
    let mut nz: Vec<u64> = weights.iter().copied().filter(|&w| w > 0).collect();
    if nz.is_empty() {
        return 0;
    }
    let k = (nz.len() - 1) * 9 / 10;
    *nz.select_nth_unstable(k).1
}

/// Measured-distribution chunk sizing: replaces the fixed
/// one-chunk-per-worker constant with a count derived from the wedge
/// weights themselves. The per-chunk work target is
/// `max(total / (4·workers), p90 nonzero vertex weight)` — four chunks
/// per worker gives the scheduler slack to absorb stragglers (the
/// `chunk_us` histograms show p90/p50 ratios of 3–8 on the skewed
/// stand-ins), while the p90 floor stops the target from dropping below
/// what a single heavy vertex forces into one chunk anyway
/// ([`balanced_chunk_bounds`] cannot split a vertex). The result is
/// clamped to `[workers, 64·workers]` — never fewer chunks than workers,
/// never so many that per-chunk accumulator setup dominates — and to the
/// vertex count.
pub fn tuned_chunk_count(weights: &[u64], workers: usize) -> usize {
    let workers = workers.max(1);
    let total: u64 = weights.iter().sum();
    if total == 0 {
        return workers.min(weights.len().max(1));
    }
    let target = (total / (4 * workers as u64))
        .max(weight_p90(weights))
        .max(1);
    let chunks = (total / target).max(1) as usize;
    chunks
        .clamp(workers, 64 * workers)
        .min(weights.len().max(1))
}

/// Latency-feedback chunk sizing for repeated runs: scale the previous
/// chunk count by how far the measured `chunk_us` p90 overshoots the
/// target per-chunk latency (perf-history replays feed the prior run's
/// histogram in). A p90 at twice the target doubles the chunks; an
/// undershoot merges them, never below 1. Clamped to 64× the previous
/// count to keep a corrupt history from exploding the chunk table.
pub fn tuned_chunk_count_from_latency(prev_chunks: usize, p90_us: u64, target_us: u64) -> usize {
    let prev = prev_chunks.max(1);
    if p90_us == 0 || target_us == 0 {
        return prev;
    }
    let scaled = (prev as u128 * p90_us as u128).div_ceil(target_us as u128);
    scaled.clamp(1, prev as u128 * 64) as usize
}

/// [`count_partitioned_parallel`] with degree-balanced chunk boundaries:
/// the partitioned vertices are split into `nchunks` contiguous ranges of
/// roughly equal *wedge work* (per [`balanced_chunk_bounds`]) rather than
/// equal length, fixing the chunk imbalance the `chunk_us` histogram
/// exposes on skewed graphs.
pub fn count_partitioned_parallel_balanced(
    part_adj: &Pattern,
    other_adj: &Pattern,
    traversal: Traversal,
    filter: PartFilter,
    nchunks: usize,
) -> u64 {
    count_partitioned_parallel_balanced_recorded(
        part_adj,
        other_adj,
        traversal,
        filter,
        nchunks,
        &mut NoopRecorder,
    )
}

/// Instrumented [`count_partitioned_parallel_balanced`]. Emits the same
/// stream as [`count_partitioned_parallel_recorded`], so balanced and
/// equal-range runs diff directly in `bfly report diff`.
pub fn count_partitioned_parallel_balanced_recorded<R: Recorder>(
    part_adj: &Pattern,
    other_adj: &Pattern,
    traversal: Traversal,
    filter: PartFilter,
    nchunks: usize,
    rec: &mut R,
) -> u64 {
    let order = traversal_order(part_adj.nrows(), traversal);
    let chunks = balanced_vertex_chunks(&order, part_adj, other_adj, nchunks);
    count_vertex_chunks::<R, u64>(part_adj, other_adj, filter, chunks, None, rec).0
}

/// The non-empty chunks of `order` under [`balanced_chunk_bounds`].
/// Weights follow traversal order so boundaries balance the order
/// actually processed (weights are direction-independent per vertex).
fn balanced_vertex_chunks<'a>(
    order: &'a [usize],
    part_adj: &Pattern,
    other_adj: &Pattern,
    nchunks: usize,
) -> Vec<&'a [usize]> {
    let weights_by_vertex = wedge_weights(part_adj, other_adj);
    let weights: Vec<u64> = order.iter().map(|&k| weights_by_vertex[k]).collect();
    balanced_chunk_bounds(&weights, nchunks)
        .windows(2)
        .map(|w| &order[w[0]..w[1]])
        .filter(|c| !c.is_empty())
        .collect()
}

/// Overflow-checked [`count_partitioned_parallel_balanced`]: each chunk
/// accumulates its eq. 18 updates into a private [`CheckedAccum`]
/// (promoting to `u128` instead of wrapping), and the per-chunk partials
/// merge exactly. Fails with
/// [`BflyError::CountOverflow`](crate::error::BflyError) carrying the
/// exact promoted total when the sum exceeds `u64`; shape-mismatched
/// pattern pairs fail with `InvalidGraph` instead of the debug-only
/// assertion the infallible path relies on.
pub fn try_count_partitioned_parallel(
    part_adj: &Pattern,
    other_adj: &Pattern,
    traversal: Traversal,
    filter: PartFilter,
    nchunks: usize,
) -> crate::error::Result<u64> {
    let (acc, _complete) = count_partitioned_parallel_checked_deadline(
        part_adj,
        other_adj,
        traversal,
        filter,
        nchunks,
        None,
        &mut NoopRecorder,
    )?;
    acc.finish()
        .map_err(|partial| crate::error::BflyError::CountOverflow {
            partial,
            context: "count_partitioned_parallel",
        })
}

/// The deadline-aware engine behind [`try_count_partitioned_parallel`]
/// and the budgeted adaptive count: the balanced chunks of
/// [`count_partitioned_parallel_balanced_recorded`], each polling the
/// deadline every [`DEADLINE_STRIDE`](super::engine::DEADLINE_STRIDE) of
/// its own vertices (never inside a wedge expansion) and stopping early
/// when it has passed. Returns the merged accumulator and whether
/// **every** chunk ran to completion; a truncated accumulator holds the
/// exact sum over the vertices processed before the cut.
pub(crate) fn count_partitioned_parallel_checked_deadline<R: Recorder>(
    part_adj: &Pattern,
    other_adj: &Pattern,
    traversal: Traversal,
    filter: PartFilter,
    nchunks: usize,
    deadline: Option<Instant>,
    rec: &mut R,
) -> crate::error::Result<(CheckedAccum, bool)> {
    if part_adj.nrows() != other_adj.ncols() || part_adj.ncols() != other_adj.nrows() {
        return Err(crate::error::BflyError::InvalidGraph {
            reason: format!(
                "pattern pair does not transpose: {}x{} vs {}x{}",
                part_adj.nrows(),
                part_adj.ncols(),
                other_adj.nrows(),
                other_adj.ncols()
            ),
        });
    }
    let order = traversal_order(part_adj.nrows(), traversal);
    let chunks = balanced_vertex_chunks(&order, part_adj, other_adj, nchunks);
    Ok(count_vertex_chunks(
        part_adj, other_adj, filter, chunks, deadline, rec,
    ))
}

/// Count butterflies with the given invariant using rayon's current pool.
pub fn count_parallel(g: &BipartiteGraph, inv: Invariant) -> u64 {
    count_parallel_recorded(g, inv, &mut NoopRecorder)
}

/// [`count_parallel`] reporting work counters through `rec`.
pub fn count_parallel_recorded<R: Recorder>(
    g: &BipartiteGraph,
    inv: Invariant,
    rec: &mut R,
) -> u64 {
    let (part_adj, other_adj) = match inv.partitioned_side() {
        Side::V2 => (g.biadjacency_t(), g.biadjacency()),
        Side::V1 => (g.biadjacency(), g.biadjacency_t()),
    };
    bfly_telemetry::timed_phase(rec, "count_parallel", |rec| {
        count_partitioned_parallel_recorded(
            part_adj,
            other_adj,
            inv.traversal(),
            inv.update_part(),
            rec,
        )
    })
}

/// Count with a dedicated pool of `nthreads` workers (Fig. 11 uses 6).
pub fn count_parallel_with_threads(g: &BipartiteGraph, inv: Invariant, nthreads: usize) -> u64 {
    count_parallel_with_threads_recorded(g, inv, nthreads, &mut NoopRecorder)
}

/// [`count_parallel_with_threads`] reporting work counters through `rec`.
pub fn count_parallel_with_threads_recorded<R: Recorder>(
    g: &BipartiteGraph,
    inv: Invariant,
    nthreads: usize,
    rec: &mut R,
) -> u64 {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(nthreads)
        .build()
        .expect("thread pool construction");
    if R::ENABLED {
        rec.gauge("threads", nthreads as f64);
    }
    pool.install(|| count_parallel_recorded(g, inv, rec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::count;
    use crate::spec::count_via_spgemm;
    use bfly_graph::generators::{chung_lu, uniform_exact};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Liveness pin for the runner: a shared hub's workers record live,
    /// so chunk 0 can observe chunk 1's counter while both still run. A
    /// runner that buffered hub workers and merged them at the join
    /// would leave chunk 0 waiting until its timeout.
    #[test]
    fn hub_workers_publish_while_other_chunks_run() {
        use bfly_telemetry::MetricsHub;
        use std::time::Duration;
        let hub = MetricsHub::new();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let mut rec: &MetricsHub = &hub;
        let seen = pool.install(|| {
            run_chunks(vec![0usize, 1], &mut rec, |chunk, w| {
                if chunk == 1 {
                    w.incr(Counter::WedgesExpanded, 7);
                    return true;
                }
                let t0 = Instant::now();
                while hub.snapshot().counter(Counter::WedgesExpanded) < 7 {
                    if t0.elapsed() > Duration::from_secs(10) {
                        return false;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                true
            })
        });
        assert_eq!(
            seen,
            vec![true, true],
            "chunk 0 never saw chunk 1's counter"
        );
        let snap = hub.snapshot();
        assert_eq!(snap.counter(Counter::ParChunks), 2);
        assert_eq!(snap.counter(Counter::WedgesExpanded), 7);
    }

    #[test]
    fn runner_returns_results_in_chunk_order_at_any_width() {
        for threads in [1, 2, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let out =
                pool.install(|| run_chunks((0..7u64).collect(), &mut NoopRecorder, |c, _| c * 10));
            assert_eq!(out, (0..7u64).map(|c| c * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn weight_p90_ignores_zeros_and_orders_correctly() {
        assert_eq!(weight_p90(&[]), 0);
        assert_eq!(weight_p90(&[0, 0, 0]), 0);
        assert_eq!(weight_p90(&[7]), 7);
        // Ten nonzero values 1..=10: index (10-1)*9/10 = 8 → value 9.
        let w: Vec<u64> = (1..=10).collect();
        assert_eq!(weight_p90(&w), 9);
        // Zeros interleaved must not shift the percentile.
        let w: Vec<u64> = (1..=10).flat_map(|v| [0, v]).collect();
        assert_eq!(weight_p90(&w), 9);
    }

    #[test]
    fn tuned_chunk_count_stays_within_clamp() {
        // Uniform weights: total/(4w) dominates → ~4 chunks per worker.
        let uniform = vec![10u64; 1000];
        let c = tuned_chunk_count(&uniform, 8);
        assert!((8..=512).contains(&c), "{c}");
        assert!(c >= 8, "never fewer chunks than workers");
        // One massive vertex: the p90 floor keeps the count small rather
        // than slicing around an unsplittable vertex.
        let mut skewed = vec![1u64; 100];
        skewed[0] = 1_000_000;
        let c = tuned_chunk_count(&skewed, 4);
        assert!((4..=100).contains(&c), "{c}");
        // Degenerate inputs: never more chunks than vertices.
        assert_eq!(tuned_chunk_count(&[], 6), 1);
        assert_eq!(tuned_chunk_count(&[0, 0], 6), 2);
        assert_eq!(
            tuned_chunk_count(&uniform, 0),
            tuned_chunk_count(&uniform, 1)
        );
    }

    #[test]
    fn tuned_chunk_counts_still_count_exactly() {
        let mut rng = StdRng::seed_from_u64(515);
        let g = chung_lu(80, 60, 700, 1.0, 0.6, &mut rng);
        let want = count_via_spgemm(&g);
        let (part_adj, other_adj) = (g.biadjacency_t(), g.biadjacency());
        let weights = wedge_weights(part_adj, other_adj);
        for workers in [1, 2, 4] {
            let chunks = tuned_chunk_count(&weights, workers);
            let inv = Invariant::Inv1;
            let got = count_partitioned_parallel_balanced(
                part_adj,
                other_adj,
                inv.traversal(),
                inv.update_part(),
                chunks,
            );
            assert_eq!(got, want, "workers {workers} chunks {chunks}");
        }
    }

    #[test]
    fn latency_feedback_scales_chunks_proportionally() {
        // p90 at twice the target doubles the chunks.
        assert_eq!(tuned_chunk_count_from_latency(8, 2000, 1000), 16);
        // Undershoot merges, never below 1.
        assert_eq!(tuned_chunk_count_from_latency(8, 100, 1000), 1);
        // Missing measurements leave the count alone.
        assert_eq!(tuned_chunk_count_from_latency(8, 0, 1000), 8);
        assert_eq!(tuned_chunk_count_from_latency(8, 1000, 0), 8);
        // A corrupt history cannot explode the chunk table.
        assert_eq!(tuned_chunk_count_from_latency(2, u64::MAX, 1), 128);
    }

    #[test]
    fn parallel_matches_sequential_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(4242);
        for _ in 0..5 {
            let g = uniform_exact(60, 40, 300, &mut rng);
            let want = count_via_spgemm(&g);
            for inv in Invariant::ALL {
                assert_eq!(count_parallel(&g, inv), want, "{inv}");
                assert_eq!(count(&g, inv), want, "{inv}");
            }
        }
    }

    #[test]
    fn parallel_matches_on_skewed_graphs() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = chung_lu(150, 100, 900, 0.8, 0.8, &mut rng);
        let want = count_via_spgemm(&g);
        for inv in Invariant::ALL {
            assert_eq!(count_parallel(&g, inv), want, "{inv}");
        }
    }

    #[test]
    fn pinned_pool_gives_same_answer() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = uniform_exact(50, 50, 250, &mut rng);
        let want = count(&g, Invariant::Inv2);
        for threads in [1, 2, 6] {
            assert_eq!(
                count_parallel_with_threads(&g, Invariant::Inv2, threads),
                want
            );
            assert_eq!(
                count_parallel_with_threads(&g, Invariant::Inv7, threads),
                want
            );
        }
    }

    #[test]
    fn balanced_bounds_are_monotone_and_cover() {
        let weights = [0u64, 10, 0, 0, 50, 1, 1, 1, 200, 0];
        for nchunks in 1..=6 {
            let b = balanced_chunk_bounds(&weights, nchunks);
            assert_eq!(b.len(), nchunks + 1);
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().unwrap(), weights.len());
            assert!(b.windows(2).all(|w| w[0] <= w[1]), "{b:?}");
        }
        // All-zero weights fall back to equal vertex ranges.
        assert_eq!(balanced_chunk_bounds(&[0, 0, 0, 0], 2), vec![0, 2, 4]);
        assert_eq!(balanced_chunk_bounds(&[], 3), vec![0, 0, 0, 0]);
    }

    #[test]
    fn balanced_bounds_equalise_heavy_prefix() {
        // All weight up front: the first chunk must not also swallow the
        // light tail.
        let weights = [100u64, 100, 1, 1, 1, 1];
        let b = balanced_chunk_bounds(&weights, 2);
        assert_eq!(b, vec![0, 2, 6]);
    }

    #[test]
    fn balanced_parallel_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(99);
        for g in [
            uniform_exact(60, 40, 300, &mut rng),
            chung_lu(120, 30, 600, 0.95, 0.3, &mut rng),
        ] {
            let want = count_via_spgemm(&g);
            for inv in Invariant::ALL {
                let (part_adj, other_adj) = match inv.partitioned_side() {
                    Side::V2 => (g.biadjacency_t(), g.biadjacency()),
                    Side::V1 => (g.biadjacency(), g.biadjacency_t()),
                };
                for nchunks in [1, 3, 8] {
                    assert_eq!(
                        count_partitioned_parallel_balanced(
                            part_adj,
                            other_adj,
                            inv.traversal(),
                            inv.update_part(),
                            nchunks,
                        ),
                        want,
                        "{inv} nchunks={nchunks}"
                    );
                }
            }
        }
    }

    #[test]
    fn balanced_recorded_preserves_total_wedge_work() {
        use bfly_telemetry::InMemoryRecorder;
        let mut rng = StdRng::seed_from_u64(17);
        let g = chung_lu(100, 40, 500, 0.9, 0.5, &mut rng);
        let want = count_via_spgemm(&g);
        let mut rec = InMemoryRecorder::new();
        let got = count_partitioned_parallel_balanced_recorded(
            g.biadjacency_t(),
            g.biadjacency(),
            Traversal::Forward,
            PartFilter::After,
            4,
            &mut rec,
        );
        assert_eq!(got, want);
        // Wedge-work conservation: chunking never changes total work.
        assert_eq!(rec.counter(Counter::WedgesExpanded), g.wedges_through_v1());
        assert!(rec.counter(Counter::ParChunks) >= 1);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let empty = BipartiteGraph::empty(10, 10);
        let single = BipartiteGraph::from_edges(1, 1, &[(0, 0)]).unwrap();
        for inv in Invariant::ALL {
            assert_eq!(count_parallel(&empty, inv), 0);
            assert_eq!(count_parallel(&single, inv), 0);
        }
    }
}
