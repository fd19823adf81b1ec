//! In-memory spans recorded around calls into the program's public API.
//!
//! A span has a name, start and end (ns since the tracer started), the
//! span that caused it, the FL round it belongs to, and how many items it
//! covered (updates encoded, envelopes sealed, ...). Spans stay in memory
//! until the run ends, then [`Tracer::to_json`] renders them for writing out.

use crate::json;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Layer-qualified name, e.g. `core.codec.encode`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (equal to start while open).
    pub end_ns: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// The FL round the span belongs to.
    pub round: u64,
    /// Items the span covered.
    pub items: u64,
}

impl SpanRecord {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRecord>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, round: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(SpanRecord {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            round,
            items: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, recording how many items it covered.
    pub fn close(&mut self, id: usize, items: u64) {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.items = items;
    }

    /// Runs `f` inside a span of `items` items and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        round: u64,
        items: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, round);
        let out = f();
        self.close(id, items);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Total duration (ns) and total items over every span named `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, items), s| {
                (ns + s.duration_ns(), items + s.items)
            })
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Share of the summed duration of spans named `root` that their
    /// direct children do not cover.
    pub fn unattributed_frac(&self, root: &str) -> f64 {
        let mut root_ns = 0u64;
        let mut covered_ns = 0u64;
        for (id, span) in self.spans.iter().enumerate() {
            if span.name != root {
                continue;
            }
            root_ns += span.duration_ns();
            covered_ns += self
                .spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(SpanRecord::duration_ns)
                .sum::<u64>();
        }
        if root_ns == 0 {
            0.0
        } else {
            1.0 - covered_ns as f64 / root_ns as f64
        }
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str("{\"id\":");
            json::push_num(&mut out, i as f64);
            out.push_str(",\"name\":");
            json::push_str(&mut out, s.name);
            out.push_str(",\"start_ns\":");
            json::push_num(&mut out, s.start_ns as f64);
            out.push_str(",\"end_ns\":");
            json::push_num(&mut out, s.end_ns as f64);
            out.push_str(",\"parent\":");
            match s.parent {
                Some(p) => json::push_num(&mut out, p as f64),
                None => out.push_str("null"),
            }
            out.push_str(",\"round\":");
            json::push_num(&mut out, s.round as f64);
            out.push_str(",\"items\":");
            json::push_num(&mut out, s.items as f64);
            out.push('}');
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_cover_their_root() {
        let mut t = Tracer::default();
        let root = t.open("round", None, 0);
        t.span("child", Some(root), 0, 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root, 1);
        assert_eq!(t.totals("child").1, 3);
        let frac = t.unattributed_frac("round");
        assert!((0.0..0.5).contains(&frac), "{frac}");
        assert!(json::parse(&t.to_json()).is_ok());
    }
}
