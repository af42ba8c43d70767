//! In-memory span recorder for the traced run.
//!
//! A span brackets one call into a layer's public API, as seen from the
//! benchmark: its name, start, end, the span that caused it and the id of
//! the job, request or round it belongs to. Nothing is written while the
//! workload runs; [`Tracer::write`] dumps every span and the per-name
//! self-time summary once the run is over. With tracing off every call is
//! a branch on a bool, so the untraced run pays nothing measurable.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name (`wasm.parse`, `runtime.invoke`, ...).
    pub name: &'static str,
    /// 1-based span id.
    pub id: u32,
    /// Id of the enclosing span (0 = a root span).
    pub parent: u32,
    /// Job, request or round id shared by every span of one operation.
    pub op: u64,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span, returned by [`Tracer::begin`] and closed by [`Tracer::end`].
#[must_use]
pub struct Open(u32);

/// The recorder. Spans nest: a span begun while another is open is its
/// child.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for operation `op`.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(0);
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes `span`, and with it any span still open inside it (one a
    /// panic unwound past).
    pub fn end(&mut self, span: Open) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        while let Some(id) = self.open.pop() {
            self.spans[id as usize - 1].end_ns = end;
            if id == span.0 {
                break;
            }
        }
    }

    /// Closes `span` under `name`, for calls whose kind is only known once
    /// they return (a spawn turns out warm or cold).
    pub fn end_as(&mut self, span: Open, name: &'static str) {
        if self.on {
            self.spans[span.0 as usize - 1].name = name;
        }
        self.end(span);
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name, op);
        let out = f();
        self.end(s);
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Total time of every span named `name`, in s.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Per-name `(count, total ns, self ns)`. Self time is a span's
    /// duration minus the time its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(child_ns[s.id as usize]);
        }
        out
    }

    /// The self-time summary as text, one line per span name.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{:<26} {:>9} {:>12} {:>12} {:>7}\n",
            "span", "count", "total_ms", "self_ms", "self%"
        );
        let rows = self.self_times();
        let all_self: u64 = rows.values().map(|r| r.2).sum();
        for (name, (count, total, own)) in &rows {
            let _ = writeln!(
                out,
                "{name:<26} {count:>9} {:>12.3} {:>12.3} {:>6.2}%",
                *total as f64 / 1e6,
                *own as f64 / 1e6,
                100.0 * *own as f64 / all_self.max(1) as f64
            );
        }
        out
    }

    /// Writes every span (JSON lines) and the self-time summary under
    /// `dir`, named after `stem`. Returns the two paths.
    pub fn write(&self, dir: &str, stem: &str) -> std::io::Result<(String, String)> {
        std::fs::create_dir_all(dir)?;
        let spans_path = format!("{dir}/{stem}.spans.jsonl");
        let summary_path = format!("{dir}/{stem}.selftime.txt");
        let mut body = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                body,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.op, s.start_ns, s.end_ns
            );
        }
        std::fs::write(&spans_path, body)?;
        std::fs::write(&summary_path, self.summary())?;
        Ok((spans_path, summary_path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", 1);
        let child = t.begin("child", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let rows = t.self_times();
        let (_, root_total, root_self) = rows["root"];
        let (_, child_total, _) = rows["child"];
        assert_eq!(root_self, root_total - child_total);
        assert_eq!(t.spans[1].parent, 1);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x", 0);
        t.end(s);
        assert!(t.spans.is_empty());
    }
}
