//! The benchmark's own spans, recorded around every call into a layer.
//!
//! Timing is always taken (the untraced run needs the same durations
//! for its end-to-end numbers); *recording* happens only in the traced
//! run. Spans stay in memory and are written out once, at the end.

use std::sync::Mutex;
use std::time::Instant;

use gscalar_metrics::json::Json;

/// One recorded span. `parent` is the id of the enclosing span (0 for
/// a root); spans of one serve request share `req`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span recorder shared by every thread of one benchmark run.
pub struct Spans {
    record: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(record: bool) -> Spans {
        Spans {
            record,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the elapsed seconds. `f` receives the new span's id, to pass as
    /// `parent` to nested calls.
    pub fn time<R>(&self, name: &str, parent: u64, req: u64, f: impl FnOnce(u64) -> R) -> (R, f64) {
        let start = Instant::now();
        if !self.record {
            let r = f(0);
            return (r, start.elapsed().as_secs_f64());
        }
        let id = {
            let mut spans = self.spans.lock().expect("span table poisoned");
            let id = spans.len() as u64 + 1;
            spans.push(Span {
                id,
                parent,
                req,
                name: name.to_string(),
                start_ns: self.ns_since_start(start),
                end_ns: 0,
            });
            id
        };
        let r = f(id);
        let end = Instant::now();
        let mut spans = self.spans.lock().expect("span table poisoned");
        spans[id as usize - 1].end_ns = self.ns_since_start(end);
        (r, end.duration_since(start).as_secs_f64())
    }

    fn ns_since_start(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    /// All spans as JSON lines (`{"id":..,"parent":..,"req":..,"name":..,
    /// "start_ns":..,"end_ns":..}`).
    pub fn to_ndjson(&self) -> String {
        let spans = self.spans.lock().expect("span table poisoned");
        let mut out = String::new();
        for s in spans.iter() {
            let line = Json::obj([
                ("id".to_string(), Json::Num(s.id as f64)),
                ("parent".to_string(), Json::Num(s.parent as f64)),
                ("req".to_string(), Json::Num(s.req as f64)),
                ("name".to_string(), Json::Str(s.name.clone())),
                ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let spans = Spans::new(true);
        let (inner_id, _) = spans.time("outer", 0, 7, |outer| {
            assert_eq!(outer, 1);
            spans.time("inner", outer, 7, |inner| inner).0
        });
        assert_eq!(inner_id, 2);
        let text = spans.to_ndjson();
        assert!(
            text.contains(r#""name":"inner","parent":1,"req":7"#),
            "{text}"
        );
    }

    #[test]
    fn untraced_spans_time_but_record_nothing() {
        let spans = Spans::new(false);
        let (v, s) = spans.time("x", 0, 0, |_| 3);
        assert_eq!(v, 3);
        assert!(s >= 0.0);
        assert!(spans.to_ndjson().is_empty());
    }
}
