//! Wall-clock benchmark of the butterfly-counting libraries.
//!
//! One command runs one workload for one seed as a closed loop: one
//! client, one job at a time, at most two worker threads. Every job's
//! result is checked against a reference computed during set-up on a
//! different code path. The end-to-end mode prints the user-visible
//! metrics; the traced mode wraps every call into a library layer in a
//! span and prints per-layer metrics. The libraries are used only
//! through their public functions.

mod env;
pub mod jobs;
mod layers;
mod shapes;
mod stats;
mod trace;

use bfly_core::telemetry::{InMemoryRecorder, NoopRecorder};
use jobs::{run_job, BenchRecorder, Job, JobOutcome, Setup, ShapeState, Verdict, Workload};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// One invocation of the benchmark.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Target length of the timed phase. The loop runs whole cycles of
    /// the workload's jobs and stops at the cycle boundary nearest this
    /// once it has run [`Workload::min_cycles`].
    pub seconds: f64,
    /// Traced mode: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Seed, input size, scratch directory and fault switches.
    pub setup: Setup,
    /// Directory the traced mode writes its spans to.
    pub out_dir: PathBuf,
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run prints.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No job returned a wrong result.
    pub correct: bool,
    /// Jobs attempted in the reported pass.
    pub attempted: u64,
    /// Jobs that returned a wrong result, an error or an unexpected
    /// refusal.
    pub failed: u64,
    /// The metrics of the chosen mode.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

impl Outcome {
    /// The single-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; print them as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Totals of one pass of the closed loop.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the loop.
    pub wall: Duration,
    /// Whole cycles run.
    pub cycles: usize,
    /// Jobs attempted.
    pub attempted: u64,
    /// Wrong results.
    pub wrong: u64,
    /// Wrong results, errors and unexpected refusals.
    pub failed: u64,
    /// Typed budget refusals, accepted or not.
    pub refusals: u64,
    /// Input edges of jobs that completed correctly.
    pub edges: u64,
    /// Every job with its outcome, in run order.
    pub jobs: Vec<(Job, JobOutcome)>,
    /// First few failure messages.
    pub failures: Vec<String>,
}

impl Pass {
    fn record(&mut self, job: Job, st: &[ShapeState], out: JobOutcome) {
        self.attempted += 1;
        match &out.verdict {
            Verdict::Correct => self.edges += st[job.shape()].edges,
            Verdict::Refused { accepted, msg } => {
                self.refusals += 1;
                if !accepted {
                    self.failed += 1;
                    self.note(job, msg);
                }
            }
            Verdict::Wrong(msg) => {
                self.wrong += 1;
                self.failed += 1;
                self.note(job, msg);
            }
            Verdict::Error(msg) => {
                self.failed += 1;
                self.note(job, msg);
            }
        }
        self.jobs.push((job, out));
    }

    /// Mean latency in ms of each job of the cycle over the cycles in
    /// which it completed correctly; a job that never did is left out.
    /// Host speed drifts both ways from one second to the next, so a
    /// job's mean over the cycles is steadier than any single run of it.
    pub fn job_means_ms(&self, cycle_len: usize) -> Vec<f64> {
        (0..cycle_len)
            .filter_map(|pos| {
                let ms: Vec<f64> = self
                    .jobs
                    .iter()
                    .skip(pos)
                    .step_by(cycle_len)
                    .filter(|(_, out)| out.verdict == Verdict::Correct)
                    .map(|(_, out)| out.latency.as_secs_f64() * 1e3)
                    .collect();
                (!ms.is_empty()).then(|| ms.iter().sum::<f64>() / ms.len() as f64)
            })
            .collect()
    }

    fn note(&mut self, job: Job, msg: &str) {
        if self.failures.len() < 8 {
            self.failures.push(format!("{job:?}: {msg}"));
        }
    }
}

/// Run whole cycles of `jobs`, at least `min_cycles`, and stop at the
/// cycle boundary nearest `seconds` after that.
fn run_pass<R: BenchRecorder>(
    jobs: &[Job],
    st: &[ShapeState],
    setup: &Setup,
    tr: &mut Tracer,
    seconds: f64,
    min_cycles: usize,
) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    loop {
        let c0 = Instant::now();
        for &job in jobs {
            let out = run_job::<R>(job, st, tr, setup);
            pass.record(job, st, out);
        }
        pass.cycles += 1;
        if pass.cycles >= min_cycles
            && start.elapsed().as_secs_f64() + c0.elapsed().as_secs_f64() / 2.0 >= seconds
        {
            break;
        }
    }
    pass.wall = start.elapsed();
    pass
}

/// Run the benchmark.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut lines = vec![
        format!(
            "perfbench workload={} seed={} seconds={} trace={} scale={}",
            cfg.workload.name(),
            cfg.setup.seed,
            cfg.seconds,
            u8::from(cfg.trace),
            cfg.setup.scale
        ),
        env::stamp(),
    ];
    // Set up several times and keep the last; the median is setup_s.
    let mut setup_times = Vec::new();
    let mut st = Vec::new();
    for _ in 0..cfg.workload.default_setups() {
        drop(std::mem::take(&mut st));
        let t = Instant::now();
        st = jobs::setup(cfg.workload, &cfg.setup)?;
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let setup_s = stats::median(&setup_times);
    let jobs = jobs::cycle(cfg.workload, st.len());
    env::reset_peak_rss();

    let mut off = Tracer::new(false);
    let plain = run_pass::<NoopRecorder>(
        &jobs,
        &st,
        &cfg.setup,
        &mut off,
        cfg.seconds,
        cfg.workload.min_cycles(),
    );
    let peak_rss_mb = env::peak_rss_mb();
    lines.extend(failure_lines(&plain));

    if !cfg.trace {
        let job_ms = plain.job_means_ms(jobs.len());
        let metrics = vec![
            metric(
                "edges_per_s",
                plain.edges as f64 / plain.wall.as_secs_f64(),
                "edges/s",
            ),
            metric("job_ms.p50", stats::hd_quantile(&job_ms, 0.5), "ms"),
            metric("job_ms.p90", stats::hd_quantile(&job_ms, 0.9), "ms"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
            metric("setup_s", setup_s, "s"),
        ];
        for m in &metrics {
            let extra = match m.name.as_str() {
                "job_ms.p50" | "job_ms.p90" => format!(
                    "  (n={} jobs, each the mean of {} cycles)",
                    job_ms.len(),
                    plain.cycles
                ),
                "setup_s" => format!("  (median of {})", setup_times.len()),
                _ => String::new(),
            };
            lines.push(format!(
                "{:<14} {:>14.4} {}{extra}",
                m.name, m.value, m.unit
            ));
        }
        lines.push(format!(
            "{:<14} {:>14.4} ratio  ({} of {} jobs failed; {} typed refusals; {} cycles in {:.2} s)",
            "failed_ratio",
            plain.failed as f64 / plain.attempted.max(1) as f64,
            plain.failed,
            plain.attempted,
            plain.refusals,
            plain.cycles,
            plain.wall.as_secs_f64()
        ));
        return Ok(Outcome {
            correct: plain.wrong == 0,
            attempted: plain.attempted,
            failed: plain.failed,
            metrics,
            lines,
        });
    }

    // Traced mode: the same number of cycles again, with spans on and
    // recording recorders, so the wall ratio is the tracing overhead.
    let mut tr = Tracer::new(true);
    let traced = run_pass::<InMemoryRecorder>(&jobs, &st, &cfg.setup, &mut tr, 0.0, plain.cycles);
    lines.extend(failure_lines(&traced));
    let spans_path = cfg.out_dir.join(format!(
        "spans-{}-seed{}.ndjson",
        cfg.workload.name(),
        cfg.setup.seed
    ));
    std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|_| tr.write_ndjson(&spans_path))
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    lines.push(format!(
        "spans: {} written to {}",
        tr.spans().len(),
        spans_path.display()
    ));

    let fixed_ms = if cfg.workload == Workload::CountCold {
        fixed_member_times(&mut st, &cfg.setup, plain.cycles)?
    } else {
        Vec::new()
    };
    let overhead = traced.wall.as_secs_f64() / plain.wall.as_secs_f64();
    let report = layers::per_layer(&tr, &traced, &plain, &st, &fixed_ms, overhead)?;
    lines.extend(report.lines);
    Ok(Outcome {
        correct: plain.wrong == 0 && traced.wrong == 0,
        attempted: traced.attempted,
        failed: traced.failed,
        metrics: report.metrics,
        lines,
    })
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn failure_lines(p: &Pass) -> Vec<String> {
    p.failures.iter().map(|f| format!("FAILED {f}")).collect()
}

/// A fixed member whose single screening sample is more than this many
/// times the fastest one on its shape and thread count is not timed
/// again: it cannot be the fastest member.
const SCREEN_FACTOR: f64 = 2.0;

/// Time the family members on every count-cold shape at 1 and 2
/// threads, untraced, with the family-sweep job and the same seed's
/// graphs (read back from the set-up files): the comparison for the
/// planner's regret. One screening sample of every member picks the
/// candidates within [`SCREEN_FACTOR`] of the fastest; each candidate
/// then runs `repeats` times, interleaved with the others, as often as
/// each adaptive cell ran in the untraced pass. Returns
/// `(shape, threads, member, median ms)` for the candidates.
fn fixed_member_times(
    st: &mut [ShapeState],
    setup: &Setup,
    repeats: usize,
) -> Result<Vec<(usize, usize, jobs::Member, f64)>, String> {
    for s in st.iter_mut() {
        let g = bfly_graph::io::read_konect_file(&s.text).map_err(|e| e.to_string())?;
        // Count-cold set-up computes only the fixed-invariant reference;
        // these timings are a comparison, not timed jobs, so it checks
        // the fixed members too.
        s.indep_ref = s.fixed_ref;
        s.graph = Some(g);
    }
    let mut off = Tracer::new(false);
    let mut time = |job: Job| -> Result<f64, String> {
        let r = run_job::<NoopRecorder>(job, st, &mut off, setup);
        if r.verdict != Verdict::Correct {
            return Err(format!("regret sweep {job:?}: {:?}", r.verdict));
        }
        Ok(r.latency.as_secs_f64() * 1e3)
    };
    // (job, shape, threads, member, screening ms) of every sweep job.
    let mut screened = Vec::new();
    for job in jobs::cycle(Workload::FamilySweep, st.len()) {
        if let Job::Sweep {
            shape,
            member,
            threads,
        } = job
        {
            screened.push((job, shape, threads, member, time(job)?));
        }
    }
    let fastest = |shape: usize, threads: usize| {
        screened
            .iter()
            .filter(|c| (c.1, c.2) == (shape, threads))
            .map(|c| c.4)
            .fold(f64::INFINITY, f64::min)
    };
    let candidates: Vec<_> = screened
        .iter()
        .filter(|c| c.4 <= SCREEN_FACTOR * fastest(c.1, c.2))
        .collect();
    let mut samples = vec![Vec::new(); candidates.len()];
    for _ in 0..repeats.max(1) {
        for (c, ms) in candidates.iter().zip(samples.iter_mut()) {
            ms.push(time(c.0)?);
        }
    }
    let out = candidates
        .iter()
        .zip(&samples)
        .map(|(c, ms)| (c.1, c.2, c.3, stats::median(ms)))
        .collect();
    for s in st.iter_mut() {
        s.graph = None;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_means_skip_failed_runs_and_jobs_that_never_succeed() {
        let outcome = |ms: u64, verdict: Verdict| JobOutcome {
            verdict,
            latency: Duration::from_millis(ms),
            load: Duration::ZERO,
            member: None,
        };
        let job = Job::Convert { shape: 0 };
        let mut pass = Pass::default();
        // A cycle of three jobs run three times; the second job is wrong
        // once and the third is always refused.
        for (a, b) in [(10, 100), (30, 300), (20, 200)] {
            pass.jobs.push((job, outcome(a, Verdict::Correct)));
            let vb = if b == 300 {
                Verdict::Wrong("off by one".into())
            } else {
                Verdict::Correct
            };
            pass.jobs.push((job, outcome(b, vb)));
            let refused = Verdict::Refused {
                accepted: true,
                msg: String::new(),
            };
            pass.jobs.push((job, outcome(1, refused)));
        }
        assert_eq!(pass.job_means_ms(3), vec![20.0, 150.0]);
    }
}
