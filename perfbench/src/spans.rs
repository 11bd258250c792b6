//! In-memory spans recorded by the benchmark around its calls into
//! the program's layers, written out once at exit.
//!
//! Each thread owns one [`Tracer`]; a span names the layer it wraps,
//! its parent span (on the same thread) and the operation it belongs
//! to. A layer's self time is its spans' durations minus the parts
//! covered by their child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Span names, one per layer the benchmark calls into, each with the
/// per-layer metric that reports its total self time in ms.
pub const LAYERS: [(&str, &str); 13] = [
    ("bench.op", "self_ms.bench.op"),
    ("bench.setup", "self_ms.bench.setup"),
    ("bench.check", "self_ms.bench.check"),
    ("runtime.microbatch", "self_ms.runtime.microbatch"),
    ("runtime.fleet", "self_ms.runtime.fleet"),
    ("runtime.registry", "self_ms.runtime.registry"),
    ("runtime.serve", "self_ms.runtime.serve"),
    ("core.model", "self_ms.core.model"),
    ("core.fastpath", "self_ms.core.fastpath"),
    ("core.online", "self_ms.core.online"),
    ("distill", "self_ms.distill"),
    ("trace.gen", "self_ms.trace.gen"),
    ("sim", "self_ms.sim"),
];

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
struct Rec {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: SpanId,
    op: u64,
}

/// Per-thread span recorder. When off, every call is a no-op.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    spans: Vec<Rec>,
}

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
        }
    }

    /// Opens a span of layer `name` that started at `start`.
    pub fn open(&mut self, name: &'static str, start: Instant, parent: SpanId, op: u64) -> SpanId {
        if !self.on {
            return None;
        }
        debug_assert!(
            LAYERS.iter().any(|(l, _)| *l == name),
            "unknown layer {name}"
        );
        self.spans.push(Rec {
            name,
            start,
            end: start,
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes `id` at `end`.
    pub fn close(&mut self, id: SpanId, end: Instant) {
        if let Some(i) = id {
            self.spans[i].end = end;
        }
    }

    /// Runs `f` inside a span of layer `name` opened now.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, Instant::now(), parent, op);
        let out = f();
        self.close(id, Instant::now());
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Appends `other`'s spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut r| {
            r.parent = r.parent.map(|p| p + base);
            r
        }));
    }

    /// Total self time in milliseconds per layer, keyed by the layer's
    /// metric name: each span's duration minus the durations of its
    /// children (children of one parent run on its thread, one after
    /// another).
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u128; self.spans.len()];
        for r in &self.spans {
            if let Some(p) = r.parent {
                child_ns[p] += (r.end - r.start).as_nanos();
            }
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&(_, m)| (m, 0.0)).collect();
        for (r, child) in self.spans.iter().zip(child_ns) {
            let own = (r.end - r.start).as_nanos().saturating_sub(child);
            if let Some((_, metric)) = LAYERS.iter().find(|(l, _)| *l == r.name) {
                *out.entry(metric).or_default() += own as f64 / 1e6;
            }
        }
        out
    }

    /// Writes every span as one JSON object per line: id, name, start
    /// and end in ns since `epoch`, parent id (or null) and operation
    /// id.
    pub fn write(&self, path: &Path, epoch: Instant) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, r) in self.spans.iter().enumerate() {
            let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos();
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                r.name,
                ns(r.start),
                ns(r.end),
                r.op
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_absorb_keeps_links() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut a = Tracer::new(true);
        let root = a.open("bench.op", t0, None, 7);
        let child = a.open("runtime.fleet", t0 + ms(2), root, 7);
        a.close(child, t0 + ms(9));
        a.close(root, t0 + ms(10));
        let mut b = Tracer::new(true);
        let other = b.open("bench.op", t0, None, 8);
        let inner = b.open("runtime.fleet", t0 + ms(1), other, 8);
        b.close(inner, t0 + ms(2));
        b.close(other, t0 + ms(4));
        a.absorb(b);
        let s = a.self_ms();
        assert_eq!(s["self_ms.bench.op"], 3.0 + 3.0);
        assert_eq!(s["self_ms.runtime.fleet"], 7.0 + 1.0);
        assert_eq!(s["self_ms.sim"], 0.0);
        assert_eq!(a.len(), 4);

        let mut off = Tracer::new(false);
        assert_eq!(off.open("sim", t0, None, 0), None);
        assert_eq!(off.len(), 0);
    }
}
