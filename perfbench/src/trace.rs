//! Spans recorded by the benchmark around each call into a library
//! layer. Spans stay in memory during the run and are written once at
//! the end; with tracing off every method is a single branch.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the root span every job opens; its self time is the part of
/// the job no layer span covers.
pub const JOB: &str = "job";

/// One finished span. Times are nanoseconds from the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call belongs to (module path, e.g. `graph.io`), or
    /// [`JOB`] for a job's root span.
    pub layer: &'static str,
    /// Which public call inside the layer (`read_konect_file`, `tip`, …).
    pub call: &'static str,
    /// Job the span belongs to.
    pub job: u32,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Start, ns from the epoch.
    pub start_ns: u64,
    /// End, ns from the epoch.
    pub end_ns: u64,
    /// Work counters and gauges harvested at the span's boundary.
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Value of a harvested attribute, 0 when absent.
    pub fn attr(&self, name: &str) -> f64 {
        self.attrs
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// In-memory span collector.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u32,
    jobs: u32,
}

impl Tracer {
    /// A tracer that records (`on`) or does nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
            jobs: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Every span recorded so far, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span and return its index (`usize::MAX` when off).
    pub fn enter(&mut self, layer: &'static str, call: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        if layer == JOB {
            self.job = self.jobs;
            self.jobs += 1;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            call,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            attrs: Vec::new(),
        });
        self.open.push(idx);
        idx
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx].end_ns = self.ns(Instant::now());
    }

    /// Attach an attribute to span `idx` (ignored when off).
    pub fn attr(&mut self, idx: usize, name: &'static str, value: f64) {
        if self.on {
            self.spans[idx].attrs.push((name, value));
        }
    }

    /// Add a finished span measured inside the library (a recorder
    /// span row) as a child of the innermost open-or-closed span of the
    /// current job that contains its midpoint, clipped to that parent.
    pub fn import(
        &mut self,
        layer: &'static str,
        call: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let (s, e) = (self.ns(start), self.ns(end));
        let mid = s + (e.saturating_sub(s)) / 2;
        let parent = (0..self.spans.len()).rev().find(|&i| {
            let sp = &self.spans[i];
            sp.job == self.job && sp.layer != JOB && sp.start_ns <= mid && mid <= sp.end_ns
        });
        let Some(p) = parent else { return };
        let (ps, pe) = (self.spans[p].start_ns, self.spans[p].end_ns);
        let start_ns = s.clamp(ps, pe);
        self.spans.push(Span {
            layer,
            call,
            job: self.job,
            parent: Some(p),
            start_ns,
            end_ns: e.clamp(start_ns, pe),
            attrs: Vec::new(),
        });
    }

    /// Self time of every span: its duration minus its direct children's
    /// durations, in ns, indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<i64> {
        let mut out: Vec<i64> = self.spans.iter().map(|s| s.dur_ns() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.dur_ns() as i64;
            }
        }
        out
    }

    /// Check that every span lies inside its parent and that no two
    /// children of one span overlap.
    pub fn check_nesting(&self) -> Result<(), String> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            let Some(p) = s.parent else { continue };
            let ps = &self.spans[p];
            if s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                return Err(format!(
                    "span {i} ({}.{}) leaves its parent {p}",
                    s.layer, s.call
                ));
            }
            children[p].push(i);
        }
        for (p, mut kids) in children.into_iter().enumerate() {
            kids.sort_by_key(|&i| self.spans[i].start_ns);
            if let Some(w) = kids
                .windows(2)
                .find(|w| self.spans[w[1]].start_ns < self.spans[w[0]].end_ns)
            {
                return Err(format!(
                    "spans {} and {} under span {p} overlap",
                    w[0], w[1]
                ));
            }
        }
        Ok(())
    }

    /// Write every span as one NDJSON line: name, start, end, parent, job.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "{{\"id\":{i},\"name\":\"{}.{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}",
                s.layer, s.call, s.job, s.start_ns, s.end_ns
            )?;
            for (k, v) in &s.attrs {
                write!(w, ",\"{k}\":{v}")?;
            }
            writeln!(w, "}}")?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer: "core.family",
            call: "x",
            job: 0,
            parent,
            start_ns,
            end_ns,
            attrs: Vec::new(),
        }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer {
            spans,
            ..Tracer::new(true)
        }
    }

    #[test]
    fn nesting_check_catches_overlap_and_escape() {
        let root = span(None, 0, 100);
        let ok = tracer(vec![
            root.clone(),
            span(Some(0), 10, 40),
            span(Some(0), 40, 90),
        ]);
        assert!(ok.check_nesting().is_ok());
        assert_eq!(ok.self_times(), vec![20, 30, 50]);
        let overlap = tracer(vec![
            root.clone(),
            span(Some(0), 50, 90),
            span(Some(0), 10, 60),
        ]);
        assert!(overlap.check_nesting().is_err());
        let escape = tracer(vec![root, span(Some(0), 90, 110)]);
        assert!(escape.check_nesting().is_err());
    }
}
