//! In-memory span recording for the traced run.
//!
//! A span is one timed call into a layer: its name, start and end (ns
//! since the run's time base), the span that caused it and the request it
//! belongs to. Each thread records into its own [`Tracer`]; the spans are
//! merged and written out when the run ends, so recording costs two clock
//! reads and a `Vec` push.

use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. Ids are unique across threads: the thread
/// tag fills the high bits.
pub struct Tracer {
    base: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(base: Instant, thread: u64) -> Self {
        Self {
            base,
            next_id: thread << 48,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the time base.
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the time base to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Record a span measured by the caller; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        self.next_id += 1;
        self.spans.push(Span {
            name,
            id: self.next_id,
            parent,
            request,
            start_ns,
            end_ns,
        });
        self.next_id
    }

    /// Time `f` as a span; returns its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let r = f();
        let end = self.now();
        self.record(name, request, parent, start, end);
        r
    }
}

/// Durations (in `scale` units per ns, e.g. `1e-6` for ms) of every span
/// named `name`.
pub fn durations(spans: &[Span], name: &str, scale: f64) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 * scale)
        .collect()
}

/// Write a traced run's spans as JSON lines to
/// `out/<workload>-seed<seed>-spans.jsonl` next to the benchmark.
pub fn write(workload: &str, seed: u64, spans: &[Span]) {
    let dir = crate::out_dir();
    let path = dir.join(format!("{workload}-seed{seed}-spans.jsonl"));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for s in spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, parent, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    });
    match written {
        Ok(()) => println!(
            "{workload}: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!(
            "{workload}: could not write spans to {}: {e}",
            path.display()
        ),
    }
}
