//! The traced run's span recorder. Spans are opened and closed by the
//! benchmark around its calls into each layer's public functions (no
//! span lives inside the program), kept in memory, and written out when
//! the run ends.

use std::io::Write;
use std::time::Instant;

/// Index of a span in the recorder.
pub type SpanId = u32;

/// The parent of a top-level span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer-qualified call name, e.g. `core.freeze`.
    pub name: &'static str,
    /// The enclosing span, or [`NO_PARENT`].
    pub parent: SpanId,
    /// The request the call served: the check iteration, or
    /// [`line_request`] of a tenant and line.
    pub request: u64,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Request id of line `line` of tenant `tenant`.
pub fn line_request(tenant: usize, line: usize) -> u64 {
    ((tenant as u64) << 32) | line as u64
}

/// Spans in start order.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Close a span opened by [`Tracer::begin`]; returns its seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.secs()
    }

    /// Time one call that opens no spans of its own.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Durations, in seconds, of every span with this name.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Seconds of every span with this name, summed per request, in
    /// first-seen request order.
    pub fn per_request(&self, name: &str) -> Vec<f64> {
        let mut rows: Vec<(u64, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match rows.iter_mut().rev().find(|r| r.0 == s.request) {
                Some(r) => r.1 += s.secs(),
                None => rows.push((s.request, s.secs())),
            }
        }
        rows.into_iter().map(|r| r.1).collect()
    }

    /// Rename a span once its outcome is known (a tenant ingest that
    /// turned out to seal).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id as usize].name = name;
    }

    /// Each span's self time: its duration minus the time its child
    /// spans cover (children never overlap: one thread opens them in
    /// sequence).
    pub fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                own[s.parent as usize] -= s.secs();
            }
        }
        own
    }

    /// Per-name count, total and self seconds, in first-seen order.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let own = self.self_secs();
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, self_s) in self.spans.iter().zip(own) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.secs();
                    r.3 += self_s;
                }
                None => rows.push((s.name, 1, s.secs(), self_s)),
            }
        }
        rows
    }

    /// Write every span as CSV: id, parent, name, request, start and end
    /// in nanoseconds since the run's trace origin, self nanoseconds.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let own = self.self_secs();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,name,request,start_ns,end_ns,self_ns")?;
        for (i, (s, self_s)) in self.spans.iter().zip(own).enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i},{parent},{},{},{},{},{}",
                s.name,
                s.request,
                s.start_ns,
                s.end_ns,
                (self_s * 1e9).round() as i64
            )?;
        }
        out.flush()
    }
}
