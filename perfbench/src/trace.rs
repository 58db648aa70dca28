//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent, request id)`, timed on one
//! shared clock origin. Spans stay in memory while the benchmark runs and
//! are written out once, at the end, as JSON lines. A disabled tracer
//! records nothing, so the same code paths serve the untraced runs.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span plus one; 0 means "no span" (a root).
pub type SpanId = u32;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called (`connect`, `send`, `recv`, `submit`, …).
    pub name: &'static str,
    /// Start, nanoseconds after the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer's origin (0 while open).
    pub end_ns: u64,
    /// The enclosing span, 0 for a root.
    pub parent: SpanId,
    /// The request the span belongs to (0 when it serves several).
    pub req: u64,
}

/// A span recorder. Cheap to carry when disabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer timing against `origin`; records only when `enabled`.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span offsets are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            req,
        });
        self.spans.len() as SpanId
    }

    /// Closes an open span now.
    pub fn close(&mut self, id: SpanId) {
        if id == 0 {
            return;
        }
        let end = self.ns(Instant::now());
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Records a finished span with explicit bounds.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        req: u64,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        };
        self.spans.push(span);
        self.spans.len() as SpanId
    }

    /// Moves another tracer's spans (same origin) into this one,
    /// re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.req
            )?;
        }
        out.flush()
    }
}
