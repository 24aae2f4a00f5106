//! Outside spans: the harness times its own calls into each layer and
//! keeps the spans in memory until the run ends. One root span per rep;
//! a span's *self time* is its duration minus what its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Items the span covered (instances, subscriptions, records).
    pub count: u64,
}

/// A span that has been opened and not yet closed.
pub struct OpenSpan {
    id: u32,
    name: &'static str,
    start: Instant,
}

pub struct Tracer {
    origin: Instant,
    /// Whether spans are stored; timing works either way, so the
    /// untraced pass runs the same code without the memory.
    keep: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
    next_id: u32,
}

impl Tracer {
    pub fn new(keep: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            keep,
            spans: Vec::new(),
            stack: Vec::new(),
            next_id: 0,
        }
    }

    pub fn open(&mut self, name: &'static str) -> OpenSpan {
        let id = self.next_id;
        self.next_id += 1;
        if self.keep {
            self.stack.push(id);
        }
        OpenSpan {
            id,
            name,
            start: Instant::now(),
        }
    }

    /// Closes `open` (the innermost open span) and returns its seconds.
    pub fn close(&mut self, open: OpenSpan, count: u64) -> f64 {
        let end = Instant::now();
        if self.keep {
            let top = self.stack.pop();
            assert_eq!(top, Some(open.id), "spans must close innermost first");
            self.spans.push(Span {
                id: open.id,
                parent: self.stack.last().copied(),
                name: open.name,
                start_ns: (open.start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
                count,
            });
        }
        (end - open.start).as_secs_f64()
    }

    /// Times one call as a leaf span under the innermost open span.
    pub fn time<T>(&mut self, name: &'static str, count: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.open(name);
        let out = f();
        let secs = self.close(open, count);
        (out, secs)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines, in closing order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}

/// Self time per span name, with the number of spans and their items.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub self_ns: u64,
    pub spans: u64,
    pub count: u64,
}

/// Aggregates self time by span name. Children never overlap (the
/// harness is single-threaded around its spans), so a span's self time
/// is its duration minus the sum of its direct children's durations.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *child_ns.entry(parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let covered = child_ns.get(&s.id).copied().unwrap_or(0);
        let entry = out.entry(s.name).or_default();
        entry.self_ns += (s.end_ns - s.start_ns).saturating_sub(covered);
        entry.spans += 1;
        entry.count += s.count;
    }
    out
}

/// Total duration of the root spans: what a layer's share is a share of.
pub fn root_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Prints each layer's self time (span names are `layer.what`) and its
/// share of the reps.
pub fn print_summary(spans: &[Span]) {
    let total = root_ns(spans).max(1);
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    let by_name = self_times(spans);
    for (name, st) in &by_name {
        let layer = name.split('.').next().unwrap_or(name);
        *by_layer.entry(layer).or_default() += st.self_ns;
    }
    println!("\nself time by layer (share of all reps' root spans)");
    for (layer, ns) in &by_layer {
        println!(
            "  {layer:<8} {:>10.3} ms  {:>5.1}%",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / total as f64
        );
    }
    println!("self time by span");
    for (name, st) in &by_name {
        println!(
            "  {name:<28} {:>10.3} ms  {:>5.1}%  spans {:>6}  items {}",
            st.self_ns as f64 / 1e6,
            100.0 * st.self_ns as f64 / total as f64,
            st.spans,
            st.count
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // rep [0,100) > ingest [10,60) > route [20,30); rep > finish [60,90)
        let spans = vec![
            span(2, Some(1), "engine.route", 20, 30),
            span(1, Some(0), "engine.ingest", 10, 60),
            span(3, Some(0), "engine.finish", 60, 90),
            span(0, None, "rep.closed", 0, 100),
        ];
        let st = self_times(&spans);
        assert_eq!(st["engine.route"].self_ns, 10);
        assert_eq!(st["engine.ingest"].self_ns, 40);
        assert_eq!(st["engine.finish"].self_ns, 30);
        assert_eq!(st["rep.closed"].self_ns, 20);
        assert_eq!(root_ns(&spans), 100);
        let total: u64 = st.values().map(|s| s.self_ns).sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn tracer_nests_and_closes_innermost_first() {
        let mut t = Tracer::new(true);
        let root = t.open("rep.x");
        let ((), _) = t.time("engine.a", 3, || ());
        let ((), _) = t.time("engine.b", 4, || ());
        t.close(root, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "rep.x").unwrap();
        assert_eq!(root.parent, None);
        for child in spans.iter().filter(|s| s.name != "rep.x") {
            assert_eq!(child.parent, Some(root.id));
            assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
        }
    }

    #[test]
    fn untraced_tracer_times_but_stores_nothing() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.time("engine.a", 1, || 5);
        assert_eq!(v, 5);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
