//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as JSON lines when the run ends.
//!
//! The program under test carries no tracing: a span covers one call the
//! benchmark makes into a layer's public function (or, for a served
//! request, the interval from its due time to its response).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An opened span; its id can parent child spans before it closes.
pub struct Open {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    start_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, next_id: AtomicU32::new(0), spans: Mutex::new(Vec::new()) }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn open(&self, name: &'static str, parent: Option<u32>) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open { id, parent, name, start_ns: self.ns(Instant::now()) }
    }

    pub fn close(&self, open: Open) {
        let end_ns = self.ns(Instant::now());
        self.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, parent: Option<u32>, f: impl FnOnce(u32) -> T) -> T {
        let open = self.open(name, parent);
        let out = f(open.id);
        self.close(open);
        out
    }

    /// Adds spans a thread buffered locally (ids from [`Tracer::reserve`]).
    pub fn extend(&self, spans: Vec<Span>) {
        self.spans.lock().expect("span buffer poisoned").extend(spans);
    }

    pub fn reserve(&self, count: u32) -> u32 {
        self.next_id.fetch_add(count, Ordering::Relaxed)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span buffer poisoned").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals: span count and summed duration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
}

impl LayerTime {
    pub fn mean_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6 / self.count.max(1) as f64
    }
}

pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += s.end_ns.saturating_sub(s.start_ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, start_ns, end_ns }
    }

    #[test]
    fn layer_times_sum_per_name() {
        let spans = vec![
            span(0, None, "solve", 0, 100),
            span(1, Some(0), "kernel", 10, 50),
            span(2, Some(0), "kernel", 40, 60),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["solve"], LayerTime { count: 1, total_ns: 100 });
        assert_eq!(t["kernel"], LayerTime { count: 2, total_ns: 60 });
        assert_eq!(t["kernel"].mean_ms(), 30e-6);
    }

    #[test]
    fn tracer_links_children_to_parents() {
        let tracer = Tracer::new(Instant::now());
        tracer.span("outer", None, |id| tracer.span("inner", Some(id), |_| ()));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
