//! The harness's own spans: name, start, end and parent of every layer
//! call the traced pass times, kept in memory and written as JSON once
//! the pass ends. No instrumentation inside the program is involved.

use cfp_trace::json::Json;
use std::time::Instant;

struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder; spans nest by call order.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) {
        let span = Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn exit(&mut self) -> f64 {
        let id = self.open.pop().expect("exit without a matching enter");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span named `name`; returns its value and seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name);
        let value = f();
        (value, self.exit())
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a JSON document: one object per span with its id,
    /// parent id (null at the top), name, start and end in nanoseconds
    /// since the recorder started, and self time (duration minus the
    /// part its direct children cover).
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let dur = s.end_ns - s.start_ns;
                Json::Obj(vec![
                    ("id".into(), Json::u64(id as u64)),
                    ("parent".into(), s.parent.map_or(Json::Null, |p| Json::u64(p as u64))),
                    ("name".into(), Json::str(s.name.clone())),
                    ("start_ns".into(), Json::u64(s.start_ns)),
                    ("end_ns".into(), Json::u64(s.end_ns)),
                    ("self_ns".into(), Json::u64(dur.saturating_sub(child_ns[id]))),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::str("perfbench-spans/1")),
            ("workload".into(), Json::str(workload)),
            ("seed".into(), Json::u64(seed)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_report_self_time() {
        let mut spans = Spans::new();
        spans.enter("outer");
        let ((), inner) =
            spans.time("inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
        let outer = spans.exit();
        assert!(outer >= inner && inner > 0.0);
        let doc = spans.to_json("w", 7);
        let list = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[1].get("parent").and_then(Json::as_u64), Some(0));
        assert!(matches!(list[0].get("parent"), Some(Json::Null)));
    }
}
