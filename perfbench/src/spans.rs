//! In-memory span recorder for traced runs.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer: name, start, end, the enclosing span, and the id of the point
//! (one unit of a request) they belong to. They stay in memory until the
//! run ends and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    point: u64,
}

/// A stack of open spans plus every closed one.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, point: u64) {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            point,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let id = self.open.pop().expect("end() without an open span");
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Record an already-timed span under the innermost open one; returns
    /// its id for [`Tracer::child`].
    pub fn leaf(&mut self, name: &'static str, point: u64, start: Instant, end: Instant) -> usize {
        let parent = self.open.last().copied();
        self.push(name, point, start, end, parent)
    }

    /// Record an already-timed span under the span `parent`.
    pub fn child(
        &mut self,
        parent: usize,
        name: &'static str,
        point: u64,
        start: Instant,
        end: Instant,
    ) {
        self.push(name, point, start, end, Some(parent));
    }

    fn push(
        &mut self,
        name: &'static str,
        point: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            point,
        });
        self.spans.len() - 1
    }

    /// Record `ns` of time spread over many short intervals (the contact
    /// sessions of one run) as one child of the innermost open span,
    /// anchored at that span's start.
    pub fn aggregate(&mut self, name: &'static str, point: u64, ns: u64) {
        let parent = *self.open.last().expect("aggregate() needs an open span");
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + ns,
            parent: Some(parent),
            point,
        });
    }

    /// Self time in milliseconds summed per span name: each span's
    /// duration minus the durations of its direct children.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-6;
        }
        out
    }

    /// Total duration in milliseconds of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-6)
            .sum()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"point\":{}}}",
                s.name, s.start_ns, s.end_ns, s.point
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        t.begin("outer", 0);
        let a = Instant::now();
        std::thread::sleep(Duration::from_millis(5));
        let b = Instant::now();
        t.leaf("inner", 0, a, b);
        t.end();
        let own = t.self_ms();
        let inner = own["inner"];
        assert!(inner >= 5.0);
        assert!((t.total_ms("outer") - own["outer"] - inner).abs() < 1e-6);
    }
}
