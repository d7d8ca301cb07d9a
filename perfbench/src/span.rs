//! In-memory spans around the benchmark's calls into the program.
//!
//! A span has a name, a start, an end, the span that opened it and the
//! id of the operation it belongs to. Spans are kept in memory while the
//! workload runs and written out once, at exit.

use std::fmt::Write as _;
use std::time::Instant;

use crate::report::json_str;

/// One timed interval, in nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (trial or checker pass) the span belongs to.
    pub run: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to operation `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn open(&mut self, name: impl Into<String>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id` and every span still open inside it (a panic
    /// that unwound through them left them open), returning its length
    /// in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
        self.spans[id].duration_ns() as f64 * 1e-9
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's length in seconds.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let id = self.open(name);
        let out = f(self);
        (out, self.close(id))
    }

    /// JSON array of every span, self time included.
    pub fn to_json(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n  {{\"id\": {i}, \"name\": {}, \"run\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                json_str(&s.name),
                s.run,
                s.start_ns,
                s.end_ns,
                selfs[i]
            );
        }
        out.push_str("\n]");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap one another (work timed
/// on several threads) or stick out of the parent; only their union
/// inside the parent's interval is subtracted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: String::new(),
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two concurrent children covering [10, 50) and [30, 70).
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span(20, 80, None),
            span(0, 30, Some(0)),
            span(70, 200, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn grandchildren_belong_to_their_own_parent() {
        let spans = [
            span(0, 100, None),
            span(0, 50, Some(0)),
            span(10, 40, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn close_ends_spans_left_open_inside() {
        let mut rec = Recorder::new();
        let outer = rec.open("outer");
        let inner = rec.open("inner");
        rec.close(outer);
        let s = &rec.spans;
        assert!(s[inner].end_ns >= s[inner].start_ns);
        assert_eq!(s[inner].parent, Some(outer));
        assert_eq!(s[inner].end_ns, s[outer].end_ns);
        // A new span opened afterwards is a root again.
        let next = rec.open("next");
        assert_eq!(rec.spans[next].parent, None);
    }
}
