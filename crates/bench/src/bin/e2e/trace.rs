//! In-memory span recorder for the traced run.
//!
//! The harness opens a span around each call it makes into a layer, from its
//! own code: tracing inside the engine is a later change. Spans stay in memory
//! and are written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer and call, e.g. `sql.exec.train`.
    pub name: &'static str,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Spans of one statement (or probe) share this identifier.
    pub stmt: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans while enabled; a disabled tracer records nothing, so the same
/// code path serves the untraced run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off; used to alternate traced and untraced
    /// cycles inside one traced run so the overhead is measured in-process.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. Returns a token for
    /// [`Tracer::exit`]; `None` while disabled.
    pub fn enter(&mut self, name: &'static str, stmt: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            stmt,
            start_ns: now,
            end_ns: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Close the span `token` names (and any span left open inside it).
    pub fn exit(&mut self, token: Option<usize>) {
        let Some(id) = token else {
            return;
        };
        let now = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = now;
            if open == id {
                break;
            }
        }
    }

    /// Record an interval measured elsewhere (on another thread) as a child
    /// of the innermost open span.
    pub fn record(&mut self, name: &'static str, stmt: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let since_origin = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            stmt,
            start_ns: since_origin(start),
            end_ns: since_origin(end).max(since_origin(start)),
        });
    }

    /// Write the spans as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"spans\": [")?;
        let self_ns = self_times_ns(&self.spans);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "  {{\"id\": {id}, \"parent\": {parent}, \"stmt\": {}, \"name\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{}",
                span.stmt,
                json::quote(span.name),
                span.start_ns,
                span.end_ns,
                self_ns[id],
                if id + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// direct children cover. Overlapping children (two threads under one parent)
/// are merged first, so shared time is subtracted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            children[parent].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            parent,
            stmt: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_covered_time() {
        let spans = [
            span(None, 0, 100),     // root
            span(Some(0), 10, 40),  // child a
            span(Some(0), 30, 60),  // child b overlaps a: union is 10..60
            span(Some(0), 80, 90),  // child c
            span(Some(1), 15, 20),  // grandchild: does not count against root
            span(Some(0), 95, 130), // child running past the parent is clipped
        ];
        assert_eq!(self_times_ns(&spans), [35, 25, 30, 10, 5, 35]);
    }

    #[test]
    fn tracer_nests_spans_and_records_nothing_while_disabled() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.enter("outer", 7);
        let inner = tracer.enter("inner", 7);
        tracer.exit(inner);
        tracer.set_enabled(false);
        let ignored = tracer.enter("ignored", 8);
        assert_eq!(ignored, None);
        tracer.exit(ignored);
        tracer.set_enabled(true);
        tracer.exit(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
