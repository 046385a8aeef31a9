//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each of its own calls into a crate's public
//! functions in a span named `<layer>.<call>`. Spans nest: every span
//! opened while another is open records it as its parent, and each
//! top-level span starts a new run id. Nothing is written until
//! [`Tracer::write_jsonl`] at the end of the run.

use std::io::Write;
use std::time::Instant;

/// No parent: a root span.
const ROOT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    run: u64,
}

/// Collects spans; see the module docs.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), run: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a root span for run `run` and runs `f` inside it.
    pub fn root<T>(&mut self, name: &'static str, run: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        assert!(self.open.is_empty(), "root span {name} opened inside another span");
        self.run = run;
        self.span(name, f)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, run: self.run });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Durations in ns of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Coverage of root spans by their direct children: `(total, min)`,
    /// where `total` is the summed child time over the summed root time
    /// and `min` the lowest ratio of any single root named `only` (all
    /// roots when `None`).
    pub fn child_coverage(&self, only: Option<&str>) -> (f64, f64) {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let (mut covered, mut total, mut min) = (0u64, 0u64, f64::INFINITY);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != ROOT {
                continue;
            }
            let dur = (s.end_ns - s.start_ns).max(1);
            covered += child[i];
            total += dur;
            if only.is_none_or(|n| n == s.name) {
                min = min.min(child[i] as f64 / dur as f64);
            }
        }
        (covered as f64 / total.max(1) as f64, if min.is_finite() { min } else { 0.0 })
    }

    /// Summed duration of every root span, ns.
    pub fn root_ns(&self) -> u64 {
        self.spans.iter().filter(|s| s.parent == ROOT).map(|s| s.end_ns - s.start_ns).sum()
    }

    /// Writes one JSON object per span: `name`, `start_ns`, `end_ns`
    /// (from the tracer's creation), `parent` (index of the parent line,
    /// or -1) and `run`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.run
            )?;
        }
        out.flush()
    }
}

/// Host ns that recording one span costs, from a throwaway tracer.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 100_000;
    let mut tr = Tracer::new();
    let t = Instant::now();
    for i in 0..N {
        tr.root("cost", u64::from(i), |tr| tr.span("cost", |_| ()));
    }
    t.elapsed().as_nanos() as f64 / f64::from(2 * N)
}
