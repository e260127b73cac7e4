//! In-memory wall-clock spans for the traced pass.
//!
//! One span per call into a layer: name, start, end, the span that caused
//! it and the statement it belongs to. Spans stay in memory and are
//! written out when the run ends. Pool workers record concurrently, so a
//! parent's children may overlap; self time subtracts the *union* of the
//! children's intervals, not their sum.

use crate::json::Json;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Statement index; every span of one statement shares it.
    pub stmt: usize,
    /// Units of work the call handled (rows, values, bytes — per name).
    pub work: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a span recorder never panics while locked")
    }

    pub fn start(&self, name: &'static str, parent: Option<SpanId>, stmt: usize) -> SpanId {
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            stmt,
            work: 0,
        });
        let id = spans.len() - 1;
        // Stamp last, so taking the lock is not billed to the span.
        spans[id].start_ns = self.now_ns();
        id
    }

    pub fn end(&self, id: SpanId, work: u64) {
        let at = self.now_ns();
        let mut spans = self.lock();
        spans[id].end_ns = at;
        spans[id].work = work;
    }

    /// Times one call. `work` sizes the result for per-unit rates.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        stmt: usize,
        call: impl FnOnce() -> T,
        work: impl FnOnce(&T) -> u64,
    ) -> T {
        let id = self.start(name, parent, stmt);
        let out = call();
        let w = work(&out);
        self.end(id, w);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time per span: its duration minus the part of its interval that
/// its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            // Clip to the parent: a child may not cover time outside it.
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Int(id as u64)),
                    ("name", Json::str(s.name)),
                    ("stmt", Json::Int(s.stmt as u64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                    ),
                    ("start_ns", Json::Int(s.start_ns)),
                    ("end_ns", Json::Int(s.end_ns)),
                    ("work", Json::Int(s.work)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns: start,
            end_ns: end,
            parent,
            stmt: 0,
            work: 0,
        }
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        // root 0..100 > a 10..60 > b 20..30
        let spans = vec![
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn sibling_children_subtract_their_union() {
        // Disjoint siblings add; overlapping ones (pool workers) count the
        // covered interval once; a child reaching past its parent is clipped.
        let spans = vec![
            span(0, 100, None),
            span(10, 20, Some(0)),
            span(30, 60, Some(0)),
            span(50, 70, Some(0)),
            span(90, 120, Some(0)),
        ];
        // covered: 10 + (30..70 = 40) + (90..100 = 10) = 60
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn recorder_orders_and_nests() {
        let rec = Recorder::default();
        let root = rec.start("root", None, 7);
        let v = rec.time("child", Some(root), 7, || 41 + 1, |v| *v as u64);
        rec.end(root, 0);
        let spans = rec.spans();
        assert_eq!(v, 42);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].work, 42);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert!(spans.iter().all(|s| s.stmt == 7));
    }
}
