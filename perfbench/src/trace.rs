//! In-memory span recorder for the traced pass.
//!
//! Spans are opened and closed by the benchmark around each call it makes
//! into a layer; nothing inside the crates is instrumented. Each span has
//! a name, start, end, parent, and the id of the op or request it belongs
//! to. Spans stay in memory until the run ends and are then written out
//! as one JSON document.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span; times are nanoseconds since the
/// tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-thread span recorder. Threads each own one; [`Tracer::absorb`]
/// merges them when the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the op id carried by spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span nested under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn exit(&mut self, idx: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.enter(name);
        let r = f();
        self.exit(s);
        r
    }

    /// Appends another tracer's spans (re-indexing their parents).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: every span's duration and self time (duration minus
    /// the time its children cover; children of one span never overlap,
    /// because each tracer records one thread's nested calls).
    pub fn by_name(&self) -> BTreeMap<&'static str, Durations> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Durations> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let d = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            d.total_us.push(dur as f64 / 1e3);
            d.self_us.push(dur.saturating_sub(child_ns[i]) as f64 / 1e3);
        }
        out
    }

    /// Sum over the spans named `parent` of the time their direct
    /// children cover, divided by their own total: how much of a span
    /// the recorded stages account for.
    pub fn coverage(&self, parent: &str) -> f64 {
        let (mut whole, mut covered) = (0u64, 0u64);
        for s in &self.spans {
            match s.parent {
                Some(p) if self.spans[p].name == parent => covered += s.end_ns - s.start_ns,
                _ => {}
            }
            if s.name == parent {
                whole += s.end_ns - s.start_ns;
            }
        }
        covered as f64 / whole.max(1) as f64
    }

    /// The spans as a JSON document (`perfbench-trace/v1`), with `env`
    /// spliced in verbatim as the environment record.
    pub fn to_json(&self, env: &str) -> String {
        let mut out = format!("{{\"schema\":\"perfbench-trace/v1\",\"env\":{env},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Durations of every span sharing one name, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct Durations {
    pub total_us: Vec<f64>,
    pub self_us: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        t.set_op(9);
        let root = t.enter("root");
        t.span("leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(root);
        let by = t.by_name();
        let (root, leaf) = (&by["root"], &by["leaf"]);
        assert!(leaf.total_us[0] >= 2000.0);
        assert!(root.total_us[0] >= leaf.total_us[0]);
        assert!((root.self_us[0] - (root.total_us[0] - leaf.total_us[0])).abs() < 1e-6);
        assert!(t.spans().iter().all(|s| s.op == 9));
        assert!(t.coverage("root") > 0.5);
    }

    #[test]
    fn absorb_reindexes_parents() {
        let mut a = Tracer::new(Instant::now());
        a.span("x", || ());
        let mut b = Tracer::new(Instant::now());
        let p = b.enter("p");
        b.span("c", || ());
        b.exit(p);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[1].name, "p");
    }
}
