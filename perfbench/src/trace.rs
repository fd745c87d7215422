//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a public function of a BDLFI layer:
//! its name, start and end (seconds since the recorder was created), the
//! span it ran inside, and the op it belongs to. Counts are named numbers
//! recorded at the same points (flips per config, journal bytes, ...).
//! Nothing is written while the run measures; [`Tracer::write_jsonl`]
//! dumps the whole record once the run has ended.
//!
//! A disabled recorder still runs every closure but records nothing, so
//! the untraced run pays one branch per call site.

use serde::{Number, Value};
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Identifies an open or closed span (its index in the record).
pub type SpanId = usize;

/// One recorded span: a dotted `layer.call` name, the op it belongs to,
/// the span it ran inside, and its start and end in seconds since the
/// recorder's origin (`NaN` while open).
struct Span {
    name: &'static str,
    op: usize,
    parent: Option<SpanId>,
    start: f64,
    end: f64,
}

impl Span {
    fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// One recorded count: a dotted name, its op and the counted value.
struct Count {
    name: &'static str,
    op: usize,
    value: f64,
}

#[derive(Default)]
struct Record {
    spans: Vec<Span>,
    counts: Vec<Count>,
}

/// The span and count recorder of one benchmark process.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    record: Mutex<Record>,
}

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            record: Mutex::new(Record::default()),
        }
    }

    /// Whether spans and counts are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's
    /// id to hand to its children. Returns what `f` returns.
    pub fn span<T>(
        &self,
        name: &'static str,
        op: usize,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut rec = self.record.lock().unwrap_or_else(PoisonError::into_inner);
            rec.spans.push(Span {
                name,
                op,
                parent,
                start: f64::NAN,
                end: f64::NAN,
            });
            rec.spans.len() - 1
        };
        let start = self.now();
        let out = f(Some(id));
        let end = self.now();
        let mut rec = self.record.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(span) = rec.spans.get_mut(id) {
            span.start = start;
            span.end = end;
        }
        out
    }

    /// Records an already-measured interval as a closed span; returns its
    /// id for children.
    pub fn interval(
        &self,
        name: &'static str,
        op: usize,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        let mut rec = self.record.lock().unwrap_or_else(PoisonError::into_inner);
        rec.spans.push(Span {
            name,
            op,
            parent,
            start: at(start),
            end: at(end),
        });
        Some(rec.spans.len() - 1)
    }

    /// Records one named count.
    pub fn count(&self, name: &'static str, op: usize, value: f64) {
        if !self.enabled {
            return;
        }
        let mut rec = self.record.lock().unwrap_or_else(PoisonError::into_inner);
        rec.counts.push(Count { name, op, value });
    }

    /// Self time (span minus the time its direct children cover) of every
    /// closed span named `name`, in seconds.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let rec = self.record.lock().unwrap_or_else(PoisonError::into_inner);
        rec.spans
            .iter()
            .zip(self_times_of(&rec.spans))
            .filter(|(s, _)| s.name == name && s.end.is_finite())
            .map(|(_, t)| t)
            .collect()
    }

    /// Every recorded value of the count `name`.
    pub fn counts(&self, name: &str) -> Vec<f64> {
        let rec = self.record.lock().unwrap_or_else(PoisonError::into_inner);
        rec.counts
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .collect()
    }

    /// Writes every span (with its self time) and count as one JSON
    /// object per line.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let rec = self.record.lock().unwrap_or_else(PoisonError::into_inner);
        let num = |x: f64| Value::Number(Number::F(x));
        let uint = |x: usize| Value::Number(Number::U(x as u64));
        let mut out = String::new();
        for (id, (s, self_s)) in rec.spans.iter().zip(self_times_of(&rec.spans)).enumerate() {
            let line = Value::Object(vec![
                ("span".to_string(), Value::String(s.name.to_string())),
                ("id".to_string(), uint(id)),
                ("op".to_string(), uint(s.op)),
                ("parent".to_string(), s.parent.map_or(Value::Null, uint)),
                ("start_s".to_string(), num(s.start)),
                ("end_s".to_string(), num(s.end)),
                ("self_s".to_string(), num(self_s)),
            ]);
            push_line(&mut out, &line)?;
        }
        for c in &rec.counts {
            let line = Value::Object(vec![
                ("count".to_string(), Value::String(c.name.to_string())),
                ("op".to_string(), uint(c.op)),
                ("value".to_string(), num(c.value)),
            ]);
            push_line(&mut out, &line)?;
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Self time of every span: its duration minus its direct children's.
fn self_times_of(spans: &[Span]) -> Vec<f64> {
    let mut children = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(slot) = s.parent.and_then(|p| children.get_mut(p)) {
            *slot += s.duration();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.duration() - c)
        .collect()
}

fn push_line(out: &mut String, v: &Value) -> Result<(), String> {
    let text = serde_json::to_string(v).map_err(|e| format!("cannot encode trace line: {e}"))?;
    out.push_str(&text);
    out.push('\n');
    Ok(())
}
