//! Per-layer metrics of a traced pass: self time per layer, work
//! counters harvested from the recorders, and the planner report.

use crate::jobs::{Job, Member, ShapeState, Verdict, MEMBERS};
use crate::shapes::SHAPES;
use crate::stats::median;
use crate::trace::{Span, Tracer, JOB};
use crate::{Metric, Pass};

/// Per-layer metrics plus the tables printed beside them.
pub struct LayerReport {
    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Layer self-time table and planner report.
    pub lines: Vec<String>,
}

/// Order the self-time table lists layers in (pipeline order).
const LAYERS: [&str; 12] = [
    "graph.io",
    "core.validate",
    "core.adaptive",
    "core.family.priority",
    "graph.ordering",
    "core.family",
    "core.peel",
    "graph.bfly_format",
    "core.family.sharded",
    "core.checkpoint",
    "telemetry",
    JOB,
];

struct View<'a> {
    spans: &'a [Span],
    self_ns: Vec<i64>,
    pass: &'a Pass,
}

impl View<'_> {
    fn job(&self, s: &Span) -> &Job {
        &self.pass.jobs[s.job as usize].0
    }

    fn ok(&self, s: &Span) -> bool {
        self.pass.jobs[s.job as usize].1.verdict == Verdict::Correct
    }

    fn select<'b>(
        &'b self,
        layer: &'b str,
        keep: impl Fn(&Span) -> bool + 'b,
    ) -> impl Iterator<Item = (usize, &'b Span)> + 'b {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.layer == layer && keep(s))
    }

    /// Mean self time in seconds of the matching spans (0 when none).
    fn mean_self(&self, layer: &str, keep: impl Fn(&Span) -> bool) -> f64 {
        let (n, ns) = self
            .select(layer, keep)
            .fold((0u64, 0i64), |(n, t), (i, _)| (n + 1, t + self.self_ns[i]));
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e9
        }
    }

    /// Total self seconds and attribute sum of the matching spans.
    fn sums(&self, layer: &str, attr: &str, keep: impl Fn(&Span) -> bool) -> (f64, f64, u64) {
        self.select(layer, keep)
            .fold((0.0, 0.0, 0), |(t, a, n), (i, s)| {
                (t + self.self_ns[i] as f64 / 1e9, a + s.attr(attr), n + 1)
            })
    }
}

/// One row of the planner report: the adaptive count-cold jobs of one
/// shape and thread count against the fastest fixed member there.
struct Cell {
    shape: &'static str,
    threads: usize,
    chose: Option<Member>,
    est_work: f64,
    wedges: f64,
    /// Median untraced job wall without load.
    adaptive_ms: f64,
    best: Option<(Member, f64)>,
}

impl Cell {
    fn regret(&self) -> f64 {
        self.best.map_or(0.0, |(_, ms)| ratio(self.adaptive_ms, ms))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Compute every per-layer metric from the traced pass `pass` recorded
/// in `tr`. The planner's adaptive times come from the untraced pass
/// `plain`, like the untraced comparison times `fixed_ms`
/// `(shape, threads, member, ms)`; `overhead` is traced / untraced wall.
pub fn per_layer(
    tr: &Tracer,
    pass: &Pass,
    plain: &Pass,
    st: &[ShapeState],
    fixed_ms: &[(usize, usize, Member, f64)],
    overhead: f64,
) -> Result<LayerReport, String> {
    let v = View {
        spans: tr.spans(),
        self_ns: tr.self_times(),
        pass,
    };
    let mut lines = Vec::new();

    // Every span lies inside its parent and no two siblings overlap, so
    // no self time is negative and no time is counted twice. The layer
    // spans of a job cover no more than its latency, timed apart from
    // the spans in `run_job`, and its root span covers all of it. The
    // layer self times plus the root's (`unattributed_s`) are then the
    // job's wall time.
    tr.check_nesting()?;
    let njobs = pass.jobs.len();
    let mut wall = vec![0i64; njobs];
    let mut covered = vec![0i64; njobs];
    for (i, s) in v.spans.iter().enumerate() {
        if s.layer == JOB {
            wall[s.job as usize] = s.dur_ns() as i64;
        } else {
            covered[s.job as usize] += v.self_ns[i];
        }
    }
    for (j, (_, out)) in pass.jobs.iter().enumerate() {
        let latency = out.latency.as_nanos() as i64;
        if covered[j] > latency || wall[j] < latency {
            return Err(format!(
                "job {j}: layer spans cover {} ns and the root span {} ns of a {latency} ns job",
                covered[j], wall[j]
            ));
        }
    }

    let total_wall: i64 = wall.iter().sum();
    lines.push(format!(
        "{:<22} {:>7} {:>12} {:>10} {:>7}",
        "layer (self time)", "calls", "total_s", "mean_ms", "share"
    ));
    for layer in LAYERS {
        let (n, ns) = v
            .select(layer, |_| true)
            .fold((0u64, 0i64), |(n, t), (i, _)| (n + 1, t + v.self_ns[i]));
        let name = if layer == JOB { "unattributed" } else { layer };
        lines.push(format!(
            "{:<22} {:>7} {:>12.6} {:>10.4} {:>6.2}%",
            name,
            n,
            ns as f64 / 1e9,
            ratio(ns as f64 / 1e6, n as f64),
            ratio(100.0 * ns as f64, total_wall as f64)
        ));
    }

    let mut m = Vec::new();
    let mut put = |name: String, value: f64, unit: &'static str| {
        m.push(Metric { name, value, unit });
    };
    let all = |_: &Span| true;

    // Load.
    let (load_s, _, _) = v.sums("graph.io", "", all);
    let load_bytes: u64 = v
        .select("graph.io", all)
        .map(|(_, s)| st[v.job(s).shape()].text_bytes)
        .sum();
    put("graph.io.load_s".into(), v.mean_self("graph.io", all), "s");
    put(
        "graph.io.mb_per_s".into(),
        ratio(load_bytes as f64 / 1e6, load_s),
        "MB/s",
    );
    put(
        "core.validate_s".into(),
        v.mean_self("core.validate", all),
        "s",
    );

    // Planner: untraced adaptive wall without load against the fastest
    // fixed member on the same shape and thread count.
    put(
        "core.adaptive.select_s".into(),
        v.mean_self("core.adaptive", all),
        "s",
    );
    let mut cells = Vec::new();
    for (shape, &(name, _)) in SHAPES.iter().enumerate().take(st.len()) {
        for threads in [1usize, 2] {
            let mut cell = Cell {
                shape: name,
                threads,
                chose: None,
                est_work: 0.0,
                wedges: 0.0,
                adaptive_ms: 0.0,
                best: fixed_ms
                    .iter()
                    .filter(|&&(s, t, _, _)| s == shape && t == threads)
                    .min_by(|a, b| a.3.total_cmp(&b.3))
                    .map(|&(_, _, m, ms)| (m, ms)),
            };
            for (i, root) in v.spans.iter().enumerate() {
                if root.layer != JOB
                    || *v.job(root) != (Job::Cold { shape, threads })
                    || !v.ok(root)
                {
                    continue;
                }
                for s in v.spans.iter().filter(|s| s.parent == Some(i)) {
                    if s.layer == "core.family" {
                        cell.est_work += s.attr("est_work");
                        cell.wedges += s.attr("wedges_expanded");
                    }
                }
            }
            let mut ms = Vec::new();
            for (job, out) in &plain.jobs {
                if *job == (Job::Cold { shape, threads }) && out.verdict == Verdict::Correct {
                    ms.push((out.latency - out.load).as_secs_f64() * 1e3);
                    cell.chose = out.member;
                }
            }
            cell.adaptive_ms = median(&ms);
            cells.push(cell);
        }
    }
    put(
        "core.adaptive.work_est_ratio".into(),
        ratio(
            cells.iter().map(|c| c.est_work).sum(),
            cells.iter().map(|c| c.wedges).sum(),
        ),
        "ratio",
    );
    put(
        "core.adaptive.regret".into(),
        cells.iter().map(Cell::regret).fold(0.0, f64::max),
        "ratio",
    );
    for c in &cells {
        put(
            format!("core.adaptive.regret.{}.{}t", c.shape, c.threads),
            c.regret(),
            "ratio",
        );
    }
    for c in &cells {
        put(
            format!("core.adaptive.work_est_ratio.{}.{}t", c.shape, c.threads),
            ratio(c.est_work, c.wedges),
            "ratio",
        );
    }
    if !fixed_ms.is_empty() {
        lines.push(format!(
            "{:<14} {:>2} {:>9} {:>14} {:>14} {:>8} {:>11} {:>9} {:>9} {:>7}",
            "planner",
            "t",
            "chose",
            "est_work",
            "wedges",
            "est/meas",
            "adaptive_ms",
            "best",
            "best_ms",
            "regret"
        ));
        for c in &cells {
            let (best, best_ms) = c.best.map_or(("-", 0.0), |(m, ms)| (m.name(), ms));
            lines.push(format!(
                "{:<14} {:>2} {:>9} {:>14.0} {:>14.0} {:>8.3} {:>11.3} {:>9} {:>9.3} {:>7.3}",
                c.shape,
                c.threads,
                c.chose.map_or("-", Member::name),
                c.est_work,
                c.wedges,
                ratio(c.est_work, c.wedges),
                c.adaptive_ms,
                best,
                best_ms,
                c.regret()
            ));
        }
    }

    // Ranking and relabelling, measured inside the kernels.
    put(
        "core.family.priority.rank_s".into(),
        v.mean_self("core.family.priority", all),
        "s",
    );
    put(
        "graph.ordering.relabel_s".into(),
        v.mean_self("graph.ordering", all),
        "s",
    );

    // Kernels, per member.
    let of = |mem: Member| move |s: &Span| v.pass.jobs[s.job as usize].1.member == Some(mem);
    let mut per_member = Vec::new();
    for mem in MEMBERS {
        let (secs, wedges, n) = v.sums("core.family", "wedges_expanded", of(mem));
        let (_, accum, _) = v.sums("core.family", "accum_entries", of(mem));
        per_member.push((mem.name(), secs, wedges, accum, n));
    }
    for (name, secs, _, _, n) in &per_member {
        put(
            format!("core.family.kernel_s.{name}"),
            ratio(*secs, *n as f64),
            "s",
        );
    }
    for (name, _, wedges, _, n) in &per_member {
        put(
            format!("core.family.wedges_expanded.{name}"),
            ratio(*wedges, *n as f64),
            "count",
        );
    }
    for (name, _, _, accum, n) in &per_member {
        put(
            format!("core.family.accum_entries.{name}"),
            ratio(*accum, *n as f64),
            "count",
        );
    }
    for (name, secs, wedges, _, _) in &per_member {
        put(
            format!("core.family.ns_per_wedge.{name}"),
            ratio(secs * 1e9, *wedges),
            "ns",
        );
    }
    let threads = |t: f64| move |s: &Span| s.attr("threads") == t;
    let (one, _, _) = v.sums("core.family", "", threads(1.0));
    let (two, _, _) = v.sums("core.family", "", threads(2.0));
    put(
        "core.family.par_speedup_2t".into(),
        ratio(one, two),
        "ratio",
    );
    let (_, imb, nimb) = v.sums("core.family", "par_imbalance", |s| {
        s.attr("par_imbalance") > 0.0
    });
    put(
        "core.family.par_imbalance".into(),
        ratio(imb, nimb as f64),
        "ratio",
    );

    // Peeling.
    let call = |c: &'static str| move |s: &Span| s.call == c;
    put(
        "core.peel.tip_s".into(),
        v.mean_self("core.peel", call("tip")),
        "s",
    );
    put(
        "core.peel.wing_s".into(),
        v.mean_self("core.peel", call("wing")),
        "s",
    );
    let (peel_s, rounds, npeel) = v.sums("core.peel", "peel_rounds", all);
    let (_, supports, _) = v.sums("core.peel", "supports_recomputed", all);
    let (_, items, _) = v.sums("core.peel", "items", all);
    put(
        "core.peel.rounds".into(),
        ratio(rounds, npeel as f64),
        "count",
    );
    put(
        "core.peel.supports_recomputed".into(),
        ratio(supports, npeel as f64),
        "count",
    );
    put("core.peel.items_per_s".into(), ratio(items, peel_s), "1/s");

    // Out-of-core.
    put(
        "graph.bfly_format.convert_s".into(),
        v.mean_self("graph.bfly_format", call("convert_to_bfly")),
        "s",
    );
    put(
        "graph.bfly_format.open_s".into(),
        v.mean_self("graph.bfly_format", call("SegmentedGraph::open")),
        "s",
    );
    let retries: f64 = v.spans.iter().map(|s| s.attr("io_retries")).sum();
    put("graph.bfly_format.io_retries".into(), retries, "count");
    let done = |s: &Span| v.ok(s);
    let (sh_s, sh_w, nsh) = v.sums("core.family.sharded", "wedges_expanded", done);
    let (_, shards, _) = v.sums("core.family.sharded", "shards", done);
    put(
        "core.family.sharded.count_s".into(),
        ratio(sh_s, nsh as f64),
        "s",
    );
    put(
        "core.family.sharded.ns_per_wedge".into(),
        ratio(sh_s * 1e9, sh_w),
        "ns",
    );
    put(
        "core.family.sharded.shards".into(),
        ratio(shards, nsh as f64),
        "count",
    );
    let plain4 = v.mean_self("core.family.sharded", |s| {
        matches!(v.job(s), Job::Sharded { shards: 4, .. }) && v.ok(s)
    });
    let write = v.mean_self("core.checkpoint", call("write"));
    put(
        "core.checkpoint.write_s".into(),
        if write > 0.0 { write - plain4 } else { 0.0 },
        "s",
    );
    put(
        "core.checkpoint.resume_s".into(),
        v.mean_self("core.checkpoint", call("resume")),
        "s",
    );
    let (_, written, _) = v.sums("core.checkpoint", "checkpoints_written", all);
    let (_, skipped, _) = v.sums("core.checkpoint", "shards_skipped_resume", all);
    put("core.checkpoint.written".into(), written, "count");
    put("core.checkpoint.skipped".into(), skipped, "count");
    put("core.budget.refusals".into(), pass.refusals as f64, "count");

    // Tracing itself and what no span covers.
    put(
        "telemetry.report_s".into(),
        v.mean_self("telemetry", all),
        "s",
    );
    put("telemetry.overhead_ratio".into(), overhead, "ratio");
    put("unattributed_s".into(), v.mean_self(JOB, all), "s");

    Ok(LayerReport { metrics: m, lines })
}
