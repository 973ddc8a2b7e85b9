//! Workloads, their set-up, and the jobs they run.
//!
//! A job makes the public calls one user command makes (for example
//! `bfly count --adaptive --parallel --threads 2 FILE`) and nothing else.
//! Each call runs inside a [`Tracer`] span named after the layer it
//! enters; with tracing on, the calls record into an `InMemoryRecorder`
//! whose counters and gauges are harvested at the span boundary.

use crate::shapes::{self, SHAPES};
use crate::trace::{Tracer, JOB};
use bfly_core::adaptive::{execute_plan_recorded, select_peel_plan, GraphProfile};
use bfly_core::family::{
    count_priority_parallel_recorded, count_priority_recorded, count_ranked_parallel_recorded,
    count_ranked_recorded, count_segmented_budgeted_recorded,
    count_segmented_checkpointed_recorded, count_segmented_sharded_recorded,
};
use bfly_core::peel::{
    tip_numbers_with_chunks, wing_numbers_with_chunks, TipDecomposition, WingDecomposition,
};
use bfly_core::telemetry::{Counter, InMemoryRecorder, NoopRecorder, Recorder};
use bfly_core::{
    count, count_parallel_with_threads_recorded, count_priority, count_recorded, count_via_spgemm,
    select_plan, tune_plan_chunks, validate_graph, BflyError, CheckpointConfig, Invariant,
    ResourceBudget,
};
use bfly_graph::io::read_konect_file;
use bfly_graph::{convert_to_bfly, BipartiteGraph, SegmentedGraph, Side, TextFormat};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// File to count: load, validate, plan and execute `count --adaptive`.
    CountCold,
    /// Every fixed member on resident graphs (the Fig. 10/11 sweep).
    FamilySweep,
    /// Tip and wing decompositions on resident graphs.
    Decompose,
    /// `.bfly` conversion, sharded, capped and checkpointed counting.
    OutOfCore,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::CountCold,
        Workload::FamilySweep,
        Workload::Decompose,
        Workload::OutOfCore,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CountCold => "count-cold",
            Workload::FamilySweep => "family-sweep",
            Workload::Decompose => "decompose",
            Workload::OutOfCore => "out-of-core",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Fewest whole cycles an end-to-end pass runs. The latency quantiles
    /// are taken over each job's mean across the cycles, so decompose (8
    /// long jobs per cycle) and out-of-core (35 jobs in about 11 s) run
    /// several: a single run of a job swings by a fifth with the host's
    /// speed, and with one or two cycles the out-of-core figures swung
    /// by a quarter to two fifths between runs.
    pub fn min_cycles(self) -> usize {
        match self {
            Workload::Decompose => 4,
            Workload::OutOfCore => 3,
            _ => 1,
        }
    }

    /// How many times set-up runs by default: three, but two for
    /// decompose, whose sequential reference peels take about 8 s.
    pub fn default_setups(self) -> usize {
        match self {
            Workload::Decompose => 2,
            _ => 3,
        }
    }
}

/// A counting member of the family-sweep: one of the eight invariants or
/// one of the two global-order kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Member {
    /// A fixed loop invariant.
    Inv(Invariant),
    /// The vertex-priority kernel.
    Priority,
    /// Ranked wedge aggregation.
    Ranked,
}

/// The ten members, in metric order.
pub const MEMBERS: [Member; 10] = [
    Member::Inv(Invariant::Inv1),
    Member::Inv(Invariant::Inv2),
    Member::Inv(Invariant::Inv3),
    Member::Inv(Invariant::Inv4),
    Member::Inv(Invariant::Inv5),
    Member::Inv(Invariant::Inv6),
    Member::Inv(Invariant::Inv7),
    Member::Inv(Invariant::Inv8),
    Member::Priority,
    Member::Ranked,
];

impl Member {
    /// Metric suffix: `inv1` … `inv8`, `priority`, `ranked`.
    pub fn name(self) -> &'static str {
        const INV: [&str; 8] = [
            "inv1", "inv2", "inv3", "inv4", "inv5", "inv6", "inv7", "inv8",
        ];
        match self {
            Member::Inv(inv) => INV[inv.number() - 1],
            Member::Priority => "priority",
            Member::Ranked => "ranked",
        }
    }

    fn of_plan(plan: &bfly_core::Plan) -> Member {
        match plan.member {
            bfly_core::Member::Fixed(inv) => Member::Inv(inv),
            bfly_core::Member::Priority => Member::Priority,
            bfly_core::Member::Ranked => Member::Ranked,
        }
    }
}

/// Shard counts of the out-of-core sharded jobs; the checkpointed pair
/// uses [`CKPT_SHARDS`] so its cost compares with the plain job.
pub const OOC_SHARDS: [usize; 3] = [1, 4, 16];
/// Shards of the checkpointed and resumed jobs.
pub const CKPT_SHARDS: usize = 4;
/// Shapes whose wing decomposition is in the decompose workload
/// (arXiv, Producers, Record Labels).
pub const WING_SHAPES: usize = 3;
/// The one shape (Occupations) the sharded tier refuses under a byte cap
/// of resident − 1: its sharded floor is above its resident size.
pub const CAP_REFUSED_SHAPE: usize = 3;

/// One unit of closed-loop work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// `bfly count --adaptive [--parallel --threads 2] FILE`.
    Cold { shape: usize, threads: usize },
    /// One family member on a resident graph.
    Sweep {
        shape: usize,
        member: Member,
        threads: usize,
    },
    /// `bfly tip --decompose --threads 2` on a resident graph.
    Tip { shape: usize },
    /// `bfly wing --decompose --threads 2` on a resident graph.
    Wing { shape: usize },
    /// `bfly convert FILE OUT.bfly`.
    Convert { shape: usize },
    /// Sharded out-of-core count.
    Sharded { shape: usize, shards: usize },
    /// Out-of-core count under a byte cap of resident − 1.
    Capped { shape: usize },
    /// Sharded count persisting each shard into a fresh directory.
    Checkpoint { shape: usize },
    /// Resume of the checkpointed count (every shard skipped).
    Resume { shape: usize },
}

impl Job {
    /// Shape the job reads.
    pub fn shape(&self) -> usize {
        match *self {
            Job::Cold { shape, .. }
            | Job::Sweep { shape, .. }
            | Job::Tip { shape }
            | Job::Wing { shape }
            | Job::Convert { shape }
            | Job::Sharded { shape, .. }
            | Job::Capped { shape }
            | Job::Checkpoint { shape }
            | Job::Resume { shape } => shape,
        }
    }

    fn label(&self) -> &'static str {
        match self {
            Job::Cold { .. } => "count-adaptive",
            Job::Sweep { .. } => "count-member",
            Job::Tip { .. } => "tip-decompose",
            Job::Wing { .. } => "wing-decompose",
            Job::Convert { .. } => "convert",
            Job::Sharded { .. } => "count-sharded",
            Job::Capped { .. } => "count-capped",
            Job::Checkpoint { .. } => "count-checkpoint",
            Job::Resume { .. } => "count-resume",
        }
    }
}

/// The jobs of one cycle of `w`, over `nshapes` shapes.
pub fn cycle(w: Workload, nshapes: usize) -> Vec<Job> {
    let mut jobs = Vec::new();
    for shape in 0..nshapes {
        match w {
            Workload::CountCold => {
                for threads in [1, 2] {
                    jobs.push(Job::Cold { shape, threads });
                }
            }
            Workload::FamilySweep => {
                for member in MEMBERS {
                    for threads in [1, 2] {
                        jobs.push(Job::Sweep {
                            shape,
                            member,
                            threads,
                        });
                    }
                }
            }
            Workload::Decompose => {
                jobs.push(Job::Tip { shape });
                if shape < WING_SHAPES {
                    jobs.push(Job::Wing { shape });
                }
            }
            Workload::OutOfCore => {
                jobs.push(Job::Convert { shape });
                for shards in OOC_SHARDS {
                    jobs.push(Job::Sharded { shape, shards });
                }
                jobs.push(Job::Capped { shape });
                jobs.push(Job::Checkpoint { shape });
                jobs.push(Job::Resume { shape });
            }
        }
    }
    jobs
}

/// Everything set-up leaves for the jobs of one shape.
pub struct ShapeState {
    /// Input edges (the unit of `edges_per_s`).
    pub edges: u64,
    /// Resident graph (family-sweep, decompose); `None` for workloads
    /// that start from files.
    pub graph: Option<BipartiteGraph>,
    /// KONECT text file (count-cold, out-of-core).
    pub text: PathBuf,
    /// Size of the text file in bytes.
    pub text_bytes: u64,
    /// Count by a fixed invariant whose loop differs from the one the
    /// planner would run: the reference for adaptive, priority, ranked
    /// and every `.bfly` job.
    pub fixed_ref: u64,
    /// Count by SpGEMM (or the priority kernel where SpGEMM is slow):
    /// the reference for fixed-invariant jobs.
    pub indep_ref: u64,
    /// Peel side chosen by `select_peel_plan` and the sequential tip
    /// numbers on it.
    pub tip_ref: Option<(Side, Vec<u64>)>,
    /// Sequential wing numbers.
    pub wing_ref: Option<Vec<u64>>,
    /// Byte cap of the capped job: the resident size − 1.
    pub cap: u64,
    /// `.bfly` file the convert job writes.
    pub bfly: PathBuf,
    /// Checkpoint directory of the checkpoint/resume pair.
    pub ckpt: PathBuf,
}

/// How the run is set up and what it is told to break on purpose.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Workload seed.
    pub seed: u64,
    /// Size factor of every shape (1.0 = the paper's sizes).
    pub scale: f64,
    /// Directory for files the run writes.
    pub dir: PathBuf,
    /// Add one to every reference of shape 0 (tests the checker).
    pub corrupt_reference: bool,
    /// Run shape 0's first sharded job under a 1-byte cap (tests typed
    /// refusals).
    pub force_refusal: bool,
}

/// Where SpGEMM is cheap enough to serve as a set-up reference (the
/// two smallest shapes); elsewhere the priority kernel does.
const SPGEMM_SHAPES: usize = 2;

/// The fixed invariant on the planner's cheaper side whose loop runs the
/// other way and reads the other part: Inv. 4 for Inv. 1, Inv. 8 for
/// Inv. 5.
fn reference_invariant(g: &BipartiteGraph) -> Invariant {
    match select_plan(&GraphProfile::compute(g), false, 0)
        .invariant
        .partitioned_side()
    {
        Side::V2 => Invariant::Inv4,
        Side::V1 => Invariant::Inv8,
    }
}

/// Generate the graphs, write the files and compute the reference
/// answers for workload `w`.
pub fn setup(w: Workload, s: &Setup) -> Result<Vec<ShapeState>, String> {
    std::fs::create_dir_all(&s.dir).map_err(|e| format!("{}: {e}", s.dir.display()))?;
    let mut out = Vec::new();
    for (idx, &(name, _)) in SHAPES.iter().enumerate() {
        let g = shapes::generate(idx, s.seed, s.scale);
        let text = s.dir.join(format!("{name}.konect"));
        let mut st = ShapeState {
            edges: g.nedges() as u64,
            graph: None,
            text_bytes: 0,
            fixed_ref: 0,
            indep_ref: 0,
            tip_ref: None,
            wing_ref: None,
            cap: bfly_core::graph_resident_bytes(g.nv1(), g.nv2(), g.nedges()) - 1,
            bfly: s.dir.join(format!("{name}.bfly")),
            ckpt: s.dir.join(format!("{name}.ckpt")),
            text,
        };
        match w {
            Workload::CountCold | Workload::OutOfCore => {
                st.text_bytes = shapes::write_konect(&g, &st.text)
                    .map_err(|e| format!("{}: {e}", st.text.display()))?;
                st.fixed_ref = count(&g, reference_invariant(&g));
            }
            Workload::FamilySweep => {
                st.fixed_ref = count(&g, reference_invariant(&g));
                st.indep_ref = if idx < SPGEMM_SHAPES {
                    count_via_spgemm(&g)
                } else {
                    count_priority(&g)
                };
                if st.fixed_ref != st.indep_ref {
                    return Err(format!(
                        "{name}: references disagree ({} vs {})",
                        st.fixed_ref, st.indep_ref
                    ));
                }
                st.graph = Some(g);
            }
            Workload::Decompose => {
                let plan = select_peel_plan(&GraphProfile::compute(&g), 2);
                let tip = TipDecomposition::compute(&g, plan.side);
                st.tip_ref = Some((plan.side, tip.numbers().to_vec()));
                if idx < WING_SHAPES {
                    st.wing_ref = Some(WingDecomposition::compute(&g).numbers().to_vec());
                }
                st.graph = Some(g);
            }
        }
        out.push(st);
    }
    if s.corrupt_reference {
        let st = &mut out[0];
        st.fixed_ref += 1;
        st.indep_ref += 1;
        if let Some((_, t)) = &mut st.tip_ref {
            t[0] += 1;
        }
        if let Some(wn) = &mut st.wing_ref {
            wn[0] += 1;
        }
    }
    Ok(out)
}

/// How a job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The result equals the reference.
    Correct,
    /// The result differs from the reference.
    Wrong(String),
    /// A typed budget refusal. `accepted` for the capped job on
    /// [`CAP_REFUSED_SHAPE`], where a refusal is one of its two valid
    /// answers.
    Refused { accepted: bool, msg: String },
    /// Any other error.
    Error(String),
}

/// What one job returns to the loop.
#[derive(Debug)]
pub struct JobOutcome {
    /// Correctness verdict (checked after the clock stopped).
    pub verdict: Verdict,
    /// Wall time of the job's calls.
    pub latency: Duration,
    /// Wall time of the job's load call (zero for jobs that load nothing).
    pub load: Duration,
    /// Family member that counted, when one did.
    pub member: Option<Member>,
}

/// A recorder the jobs can run with: the no-op recorder (end-to-end
/// runs) or an in-memory one whose counters are read back (traced runs).
pub trait BenchRecorder: Recorder {
    /// A fresh recorder.
    fn fresh() -> Self;
    /// Current value of a counter (0 for the no-op recorder).
    fn read_counter(&self, c: Counter) -> u64;
    /// Last value of a gauge.
    fn read_gauge(&self, name: &str) -> Option<f64>;
    /// Library spans on the calling thread: name, start, end.
    fn lib_spans(&self, epoch: Instant) -> Vec<(String, Instant, Instant)>;
    /// Serialize the run report and write it to `path`.
    fn write_report(&mut self, path: &std::path::Path, label: &str) -> std::io::Result<()>;
}

impl BenchRecorder for NoopRecorder {
    fn fresh() -> Self {
        NoopRecorder
    }
    fn read_counter(&self, _: Counter) -> u64 {
        0
    }
    fn read_gauge(&self, _: &str) -> Option<f64> {
        None
    }
    fn lib_spans(&self, _: Instant) -> Vec<(String, Instant, Instant)> {
        Vec::new()
    }
    fn write_report(&mut self, _: &std::path::Path, _: &str) -> std::io::Result<()> {
        Ok(())
    }
}

impl BenchRecorder for InMemoryRecorder {
    fn fresh() -> Self {
        InMemoryRecorder::new()
    }
    fn read_counter(&self, c: Counter) -> u64 {
        self.counter(c)
    }
    fn read_gauge(&self, name: &str) -> Option<f64> {
        self.gauge_value(name)
    }
    fn lib_spans(&self, epoch: Instant) -> Vec<(String, Instant, Instant)> {
        self.spans()
            .iter()
            .filter(|r| r.thread == 0)
            .map(|r| {
                let start = epoch + Duration::from_micros(r.start_us);
                (
                    r.name.clone(),
                    start,
                    start + Duration::from_micros(r.dur_us),
                )
            })
            .collect()
    }
    fn write_report(&mut self, path: &std::path::Path, label: &str) -> std::io::Result<()> {
        use bfly_core::telemetry::Json;
        let meta = vec![("command".to_string(), Json::Str(label.to_string()))];
        std::fs::write(path, self.report(meta).to_json().pretty())
    }
}

/// Counters harvested onto every layer span, under these names.
const HARVESTED: [(Counter, &str); 7] = [
    (Counter::WedgesExpanded, "wedges_expanded"),
    (Counter::AccumEntries, "accum_entries"),
    (Counter::PeelRounds, "peel_rounds"),
    (Counter::SupportsRecomputed, "supports_recomputed"),
    (Counter::IoRetries, "io_retries"),
    (Counter::CheckpointsWritten, "checkpoints_written"),
    (Counter::ShardsSkippedResume, "shards_skipped_resume"),
];

/// Library spans re-parented under the benchmark's call spans, with the
/// layer they time.
const IMPORTED: [(&str, &str, &str); 2] = [
    (
        "priority_rank",
        "core.family.priority",
        "PriorityRanks::compute",
    ),
    ("degree_order", "graph.ordering", "relabel"),
];

/// A job in progress: the tracer, the job's recorder and the instant
/// the recorder's span timeline starts at.
struct Ctx<'a, R> {
    tr: &'a mut Tracer,
    rec: R,
    epoch: Instant,
}

impl<R: BenchRecorder> Ctx<'_, R> {
    /// Run one public call as a span of `layer`, harvesting counter
    /// deltas onto the span when tracing. Returns the span index.
    fn call<T>(
        &mut self,
        layer: &'static str,
        call: &'static str,
        f: impl FnOnce(&mut R) -> T,
    ) -> (T, usize) {
        let traced = self.tr.enabled();
        let before: [u64; HARVESTED.len()] = if traced {
            HARVESTED.map(|(c, _)| self.rec.read_counter(c))
        } else {
            [0; HARVESTED.len()]
        };
        let idx = self.tr.enter(layer, call);
        let out = f(&mut self.rec);
        self.tr.exit();
        if traced {
            for (i, (c, name)) in HARVESTED.iter().enumerate() {
                let d = self.rec.read_counter(*c) - before[i];
                if d > 0 {
                    self.tr.attr(idx, name, d as f64);
                }
            }
        }
        (out, idx)
    }
}

fn two_threads() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("thread pool")
}

fn check(got: u64, want: u64) -> Verdict {
    if got == want {
        Verdict::Correct
    } else {
        Verdict::Wrong(format!("count {got}, reference {want}"))
    }
}

fn check_numbers(got: &[u64], want: &[u64]) -> Verdict {
    if got == want {
        Verdict::Correct
    } else {
        let first = got.iter().zip(want).position(|(a, b)| a != b);
        Verdict::Wrong(format!(
            "numbers differ (len {} vs {}, first at {first:?})",
            got.len(),
            want.len()
        ))
    }
}

/// Whether a typed budget refusal is a valid answer of `job`: only the
/// capped job on [`CAP_REFUSED_SHAPE`]. Anywhere else it is a failure.
fn refusal_allowed(job: Job) -> bool {
    job == Job::Capped {
        shape: CAP_REFUSED_SHAPE,
    }
}

fn classify(e: BflyError, allowed: bool) -> Verdict {
    match e {
        BflyError::BudgetExceeded { .. } => Verdict::Refused {
            accepted: allowed,
            msg: e.to_string(),
        },
        other => Verdict::Error(other.to_string()),
    }
}

/// Run one job with recorder type `R`. The job's root span, its layer
/// spans and (when tracing) its report write land in `tr`.
pub fn run_job<R: BenchRecorder>(
    job: Job,
    st: &[ShapeState],
    tr: &mut Tracer,
    setup: &Setup,
) -> JobOutcome {
    let traced = tr.enabled();
    tr.enter(JOB, job.label());
    let t0 = Instant::now();
    let mut cx = Ctx {
        tr,
        rec: R::fresh(),
        epoch: Instant::now(),
    };
    let mut member = None;
    let mut load = Duration::ZERO;
    let s = &st[job.shape()];
    // Each arm returns a closure that checks the result once the clock
    // has stopped.
    let mut verdict: Box<dyn FnOnce(&ShapeState) -> Verdict> = match job {
        Job::Cold { threads, .. } => {
            let l0 = Instant::now();
            let (loaded, _) = cx.call("graph.io", "read_konect_file", |_| {
                read_konect_file(&s.text)
            });
            load = l0.elapsed();
            match loaded {
                Err(e) => {
                    let msg = e.to_string();
                    Box::new(move |_| Verdict::Error(msg))
                }
                Ok(g) => {
                    let (valid, _) =
                        cx.call("core.validate", "validate_graph", |_| validate_graph(&g));
                    match valid {
                        Err(e) => Box::new(move |_| classify(e, false)),
                        Ok(()) => {
                            let pool = (threads > 1).then(two_threads);
                            let (plan, _) = cx.call("core.adaptive", "select_plan", |rec| {
                                let profile = GraphProfile::compute(&g);
                                let mut plan = select_plan(&profile, threads > 1, threads);
                                if threads > 1 {
                                    tune_plan_chunks(&g, &mut plan, rec);
                                }
                                plan
                            });
                            let (xi, k) =
                                cx.call(
                                    "core.family",
                                    "execute_plan_recorded",
                                    |rec| match &pool {
                                        Some(p) => {
                                            p.install(|| execute_plan_recorded(&g, &plan, rec))
                                        }
                                        None => execute_plan_recorded(&g, &plan, rec),
                                    },
                                );
                            member = Some(Member::of_plan(&plan));
                            if traced {
                                cx.tr.attr(k, "est_work", plan.est_work as f64);
                                cx.tr.attr(k, "threads", threads as f64);
                                if let Some(v) = cx.rec.read_gauge("par_imbalance") {
                                    cx.tr.attr(k, "par_imbalance", v);
                                }
                            }
                            Box::new(move |s| check(xi, s.fixed_ref))
                        }
                    }
                }
            }
        }
        Job::Sweep {
            member: m, threads, ..
        } => {
            let g = s.graph.as_ref().expect("resident graph");
            member = Some(m);
            let pool = (threads > 1).then(two_threads);
            let (xi, k) = cx.call("core.family", m.name(), |rec| match (m, &pool) {
                (Member::Inv(inv), None) => count_recorded(g, inv, rec),
                (Member::Inv(inv), Some(_)) => count_parallel_with_threads_recorded(g, inv, 2, rec),
                (Member::Priority, None) => count_priority_recorded(g, rec),
                (Member::Priority, Some(p)) => {
                    p.install(|| count_priority_parallel_recorded(g, 2, rec))
                }
                (Member::Ranked, None) => count_ranked_recorded(g, rec),
                (Member::Ranked, Some(p)) => {
                    p.install(|| count_ranked_parallel_recorded(g, 2, rec))
                }
            });
            if traced {
                cx.tr.attr(k, "threads", threads as f64);
                if let Some(v) = cx.rec.read_gauge("par_imbalance") {
                    cx.tr.attr(k, "par_imbalance", v);
                }
            }
            Box::new(move |s| match m {
                Member::Inv(_) => check(xi, s.indep_ref),
                _ => check(xi, s.fixed_ref),
            })
        }
        Job::Tip { .. } | Job::Wing { .. } => {
            let g = s.graph.as_ref().expect("resident graph");
            let pool = two_threads();
            let (plan, _) = cx.call("core.adaptive", "select_peel_plan", |_| {
                select_peel_plan(&GraphProfile::compute(g), 2)
            });
            if let Job::Tip { .. } = job {
                let (numbers, k) = cx.call("core.peel", "tip", |rec| {
                    pool.install(|| tip_numbers_with_chunks(g, plan.side, plan.chunks, rec))
                });
                cx.tr.attr(k, "items", g.nvertices(plan.side) as f64);
                Box::new(move |s| match &s.tip_ref {
                    Some((side, want)) if *side == plan.side => check_numbers(&numbers, want),
                    _ => Verdict::Wrong("peel side differs from set-up".into()),
                })
            } else {
                let (numbers, k) = cx.call("core.peel", "wing", |rec| {
                    pool.install(|| wing_numbers_with_chunks(g, plan.chunks, rec))
                });
                cx.tr.attr(k, "items", g.nedges() as f64);
                Box::new(move |s| check_numbers(&numbers, s.wing_ref.as_deref().unwrap_or(&[])))
            }
        }
        Job::Convert { .. } => {
            let (r, _) = cx.call("graph.bfly_format", "convert_to_bfly", |_| {
                convert_to_bfly(&s.text, TextFormat::Konect, &s.bfly)
            });
            match r {
                Ok(stats) => Box::new(move |s| check(stats.nedges, s.edges)),
                Err(e) => {
                    let msg = e.to_string();
                    Box::new(move |_| Verdict::Error(msg))
                }
            }
        }
        // Like `bfly count FILE.bfly --shards N`, every out-of-core count
        // opens the file itself.
        Job::Sharded { .. } | Job::Capped { .. } | Job::Checkpoint { .. } | Job::Resume { .. } => {
            let (opened, _) = cx.call("graph.bfly_format", "SegmentedGraph::open", |_| {
                SegmentedGraph::open(&s.bfly)
            });
            match opened {
                Err(e) => {
                    let msg = e.to_string();
                    Box::new(move |_| Verdict::Error(msg))
                }
                Ok(sg) => {
                    let sg = &sg;
                    let (retries0, _) = sg.retry_stats();
                    let forced = setup.force_refusal
                        && job
                            == Job::Sharded {
                                shape: 0,
                                shards: 1,
                            };
                    let (r, k) = match job {
                        Job::Sharded { shards, .. } if !forced => {
                            cx.call("core.family.sharded", "count_segmented_sharded", |rec| {
                                count_segmented_sharded_recorded(sg, shards, rec)
                            })
                        }
                        Job::Sharded { shards, .. } => {
                            cx.call("core.family.sharded", "count_segmented_budgeted", |rec| {
                                let budget = ResourceBudget::unlimited().with_max_bytes(1);
                                count_segmented_budgeted_recorded(
                                    sg,
                                    Some(shards),
                                    None,
                                    &budget,
                                    rec,
                                )
                                .map(|p| p.value.0)
                            })
                        }
                        Job::Capped { .. } => {
                            cx.call("core.family.sharded", "count_segmented_budgeted", |rec| {
                                let budget = ResourceBudget::unlimited().with_max_bytes(s.cap);
                                count_segmented_budgeted_recorded(sg, None, None, &budget, rec)
                                    .map(|p| p.value.0)
                            })
                        }
                        _ => {
                            let resume = matches!(job, Job::Resume { .. });
                            if !resume {
                                let _ = std::fs::remove_dir_all(&s.ckpt);
                            }
                            let cfg = if resume {
                                CheckpointConfig::resume(&s.ckpt)
                            } else {
                                CheckpointConfig::new(&s.ckpt)
                            };
                            let call = if resume { "resume" } else { "write" };
                            cx.call("core.checkpoint", call, |rec| {
                                count_segmented_checkpointed_recorded(
                                    sg,
                                    Some(CKPT_SHARDS),
                                    None,
                                    &ResourceBudget::unlimited(),
                                    Some(&cfg),
                                    rec,
                                )
                                .map(|p| p.value.0)
                            })
                        }
                    };
                    if traced {
                        let retries = sg.retry_stats().0 - retries0;
                        cx.tr.attr(k, "io_retries", retries as f64);
                        if let Some(v) = cx.rec.read_gauge("shards_planned") {
                            cx.tr.attr(k, "shards", v);
                        }
                    }
                    match r {
                        Ok(xi) => Box::new(move |s| check(xi, s.fixed_ref)),
                        Err(e) => Box::new(move |_| classify(e, refusal_allowed(job))),
                    }
                }
            }
        }
    };
    if traced {
        let path = setup.dir.join("report.json");
        let label = job.label();
        let (written, _) = cx.call("telemetry", "RunReport::to_json+write", |rec| {
            rec.write_report(&path, label)
        });
        if let Err(e) = written {
            let msg = format!("report write: {e}");
            verdict = Box::new(move |_| Verdict::Error(msg));
        }
        for (name, start, end) in cx.rec.lib_spans(cx.epoch) {
            if let Some(&(_, layer, call)) = IMPORTED.iter().find(|(n, _, _)| *n == name) {
                cx.tr.import(layer, call, start, end);
            }
        }
    }
    let latency = t0.elapsed();
    cx.tr.exit();
    JobOutcome {
        verdict: verdict(&st[job.shape()]),
        latency,
        load,
        member,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_capped_occupations_job_may_refuse() {
        assert_eq!(SHAPES[CAP_REFUSED_SHAPE].0, "occupations");
        for w in Workload::ALL {
            for job in cycle(w, SHAPES.len()) {
                let want = matches!(job, Job::Capped { shape: 3 });
                assert_eq!(refusal_allowed(job), want, "{job:?}");
            }
        }
    }
}
