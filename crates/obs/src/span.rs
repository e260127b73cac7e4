//! Lightweight span recording on the simulated clock.
//!
//! Spans carry explicit simulated instants ([`SpanRecorder::start`] /
//! [`SpanRecorder::end`], or [`SpanRecorder::record`] in one call). The
//! engine accounts per-node time with a serialized-time model rather than
//! letting the clock tick during execution, so leaf/stem spans are
//! recorded after the fact from those accounts. The result is one flat
//! arena of spans per query that [`SpanRecorder::tree`] folds into a
//! nested, time-ordered [`SpanTree`]. Names, keys and string values are
//! `Cow<'static, str>`: the engine's are literals, so recording a span
//! and folding the tree copy none of them. A node id and a shared string
//! are values of their own, rendered when the tree is, and the attributes
//! of every span sit in one buffer until the fold: attaching one
//! allocates nothing.

use feisu_common::{ByteSize, NodeId, SimDuration, SimInstant};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Index of a span within its recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(usize);

/// Typed attribute values so renders stay human-readable (byte sizes and
/// durations format with units, not raw integers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrValue {
    U64(u64),
    I64(i64),
    Str(Cow<'static, str>),
    /// A string its owner shares, such as a storage domain's name.
    Shared(Arc<str>),
    Node(NodeId),
    Duration(SimDuration),
    Size(ByteSize),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::I64(v) => write!(f, "{v}"),
            AttrValue::Str(s) => write!(f, "{s}"),
            AttrValue::Shared(s) => write!(f, "{s}"),
            AttrValue::Node(n) => write!(f, "{n}"),
            AttrValue::Duration(d) => write!(f, "{d}"),
            AttrValue::Size(s) => write!(f, "{s}"),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Str(Cow::Borrowed(v))
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(Cow::Owned(v))
    }
}

impl From<Arc<str>> for AttrValue {
    fn from(v: Arc<str>) -> Self {
        AttrValue::Shared(v)
    }
}

impl From<NodeId> for AttrValue {
    fn from(v: NodeId) -> Self {
        AttrValue::Node(v)
    }
}

impl From<SimDuration> for AttrValue {
    fn from(v: SimDuration) -> Self {
        AttrValue::Duration(v)
    }
}

impl From<ByteSize> for AttrValue {
    fn from(v: ByteSize) -> Self {
        AttrValue::Size(v)
    }
}

/// A span name or attribute key.
pub type Name = Cow<'static, str>;

#[derive(Debug, Clone)]
struct SpanData {
    name: Name,
    parent: Option<SpanId>,
    start: SimInstant,
    end: Option<SimInstant>,
}

/// The spans and, in recording order, every span's attributes.
#[derive(Debug, Default)]
struct Arena {
    spans: Vec<SpanData>,
    attrs: Vec<(SpanId, Name, AttrValue)>,
}

/// Arena of spans for one query (or one subsystem session).
#[derive(Debug, Default)]
pub struct SpanRecorder {
    arena: Mutex<Arena>,
}

impl SpanRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a span at an explicit simulated instant.
    pub fn start(&self, name: impl Into<Name>, parent: Option<SpanId>, at: SimInstant) -> SpanId {
        let spans = &mut self.arena.lock().spans;
        let id = SpanId(spans.len());
        spans.push(SpanData {
            name: name.into(),
            parent,
            start: at,
            end: None,
        });
        id
    }

    /// Closes a span at an explicit simulated instant.
    pub fn end(&self, id: SpanId, at: SimInstant) {
        let span = &mut self.arena.lock().spans[id.0];
        debug_assert!(span.end.is_none(), "span {:?} ended twice", span.name);
        span.end = Some(at);
    }

    /// Records a fully-known span in one call — how the engine attaches
    /// analytically-accounted leaf/stem time after a scan completes.
    pub fn record(
        &self,
        name: impl Into<Name>,
        parent: Option<SpanId>,
        start: SimInstant,
        end: SimInstant,
    ) -> SpanId {
        let id = self.start(name, parent, start);
        self.end(id, end);
        id
    }

    /// Attaches a key/value attribute to an open or closed span.
    pub fn attr(&self, id: SpanId, key: impl Into<Name>, value: impl Into<AttrValue>) {
        let (key, value) = (key.into(), value.into());
        self.arena.lock().attrs.push((id, key, value));
    }

    /// Reparents a span. Stems are grouped after their leaves complete,
    /// so leaf spans are recorded first and adopted by the stem later.
    pub fn set_parent(&self, id: SpanId, parent: Option<SpanId>) {
        debug_assert!(
            parent.is_none_or(|p| p.0 != id.0),
            "span cannot parent itself"
        );
        self.arena.lock().spans[id.0].parent = parent;
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.arena.lock().spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.arena.lock().spans.is_empty()
    }

    /// Count of spans with the given name.
    pub fn count_named(&self, name: &str) -> usize {
        let spans = &self.arena.lock().spans;
        spans.iter().filter(|s| s.name == name).count()
    }

    /// Count of spans with the given name carrying the given attribute key.
    pub fn count_named_with_attr(&self, name: &str, attr_key: &str) -> usize {
        let arena = self.arena.lock();
        let mut carrying: Vec<usize> = (arena.attrs.iter())
            .filter(|(id, k, _)| k == attr_key && arena.spans[id.0].name == name)
            .map(|(id, _, _)| id.0)
            .collect();
        carrying.sort_unstable();
        carrying.dedup();
        carrying.len()
    }

    /// Folds the arena into a nested tree, moving every span into it,
    /// each with its attributes in recording order. Children sort by start
    /// instant (ties broken by recording order); unclosed spans render
    /// with zero duration. Spans whose parent id is unset are roots.
    pub fn tree(self) -> SpanTree {
        let Arena { spans, attrs } = self.arena.into_inner();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            match s.parent {
                Some(p) => children[p.0].push(i),
                None => roots.push(i),
            }
        }
        let sort_key = |&i: &usize| (spans[i].start, i);
        roots.sort_by_key(sort_key);
        for c in &mut children {
            c.sort_by_key(sort_key);
        }

        type Attrs = Vec<(Name, AttrValue)>;
        fn build(
            i: usize,
            spans: &mut [Option<(SpanData, Attrs)>],
            children: &[Vec<usize>],
        ) -> SpanNode {
            let (s, attrs) = spans[i].take().expect("a span has one parent");
            SpanNode {
                name: s.name,
                start: s.start,
                end: s.end.unwrap_or(s.start),
                attrs,
                children: children[i]
                    .iter()
                    .map(|&c| build(c, spans, children))
                    .collect(),
            }
        }

        // Each span's attributes, sized once.
        let mut counts = vec![0usize; spans.len()];
        attrs.iter().for_each(|(id, _, _)| counts[id.0] += 1);
        let mut own: Vec<Attrs> = counts.into_iter().map(Vec::with_capacity).collect();
        for (id, k, v) in attrs {
            own[id.0].push((k, v));
        }
        let mut spans: Vec<Option<(SpanData, Attrs)>> =
            spans.into_iter().zip(own).map(Some).collect();
        SpanTree {
            roots: (roots.iter())
                .map(|&r| build(r, &mut spans, &children))
                .collect(),
        }
    }
}

/// One node of the folded tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    pub name: Name,
    pub start: SimInstant,
    pub end: SimInstant,
    pub attrs: Vec<(Name, AttrValue)>,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }

    /// First attribute with the given key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Depth-first search for the first descendant (or self) by name.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    fn render_into(&self, out: &mut String, prefix: &str, last: bool, is_root: bool) {
        use std::fmt::Write as _;
        let (branch, next_prefix) = if is_root {
            (String::new(), String::new())
        } else if last {
            (format!("{prefix}└─ "), format!("{prefix}   "))
        } else {
            (format!("{prefix}├─ "), format!("{prefix}│  "))
        };
        let _ = write!(
            out,
            "{branch}{}  [{} +{}]",
            self.name,
            SimDuration(self.start.as_nanos()),
            self.duration()
        );
        for (k, v) in &self.attrs {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        let n = self.children.len();
        for (i, child) in self.children.iter().enumerate() {
            child.render_into(out, &next_prefix, i + 1 == n, false);
        }
    }
}

/// The nested, time-ordered spans of one query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTree {
    pub roots: Vec<SpanNode>,
}

impl SpanTree {
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        self.roots.iter().find_map(|r| r.find(name))
    }

    /// All nodes matching `name`, depth-first.
    pub fn find_all(&self, name: &str) -> Vec<&SpanNode> {
        fn walk<'a>(node: &'a SpanNode, name: &str, out: &mut Vec<&'a SpanNode>) {
            if node.name == name {
                out.push(node);
            }
            for c in &node.children {
                walk(c, name, out);
            }
        }
        let mut out = Vec::new();
        for r in &self.roots {
            walk(r, name, &mut out);
        }
        out
    }

    pub fn max_depth(&self) -> usize {
        fn depth(node: &SpanNode) -> usize {
            1 + node.children.iter().map(depth).max().unwrap_or(0)
        }
        self.roots.iter().map(depth).max().unwrap_or(0)
    }

    /// ASCII rendering, one span per line:
    /// `name  [start +duration] key=value ...`
    pub fn render(&self) -> String {
        let mut out = String::new();
        for root in &self.roots {
            root.render_into(&mut out, "", true, true);
        }
        out
    }
}

impl fmt::Display for SpanTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_order_by_start_instant_not_recording_order() {
        let rec = SpanRecorder::new();
        let root = rec.record("master", None, SimInstant(0), SimInstant(100));
        // Recorded out of order on purpose.
        let late = rec.record("leaf_b", Some(root), SimInstant(50), SimInstant(80));
        let early = rec.record("leaf_a", Some(root), SimInstant(10), SimInstant(30));
        rec.attr(late, "n", 2u64);
        rec.attr(early, "n", 1u64);
        let tree = rec.tree();
        let names: Vec<&str> = tree.roots[0].children.iter().map(|c| &*c.name).collect();
        assert_eq!(names, ["leaf_a", "leaf_b"]);
    }

    #[test]
    fn reparenting_moves_subtrees() {
        let rec = SpanRecorder::new();
        let leaf = rec.record("leaf", None, SimInstant(5), SimInstant(9));
        let stem = rec.record("stem", None, SimInstant(0), SimInstant(10));
        rec.set_parent(leaf, Some(stem));
        let tree = rec.tree();
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].name, "stem");
        assert_eq!(tree.roots[0].children[0].name, "leaf");
    }

    #[test]
    fn render_shows_hierarchy_and_attrs() {
        let rec = SpanRecorder::new();
        let root = rec.record("master", None, SimInstant(0), SimInstant(2_000_000));
        let stem = rec.record("stem", Some(root), SimInstant(0), SimInstant(1_500_000));
        let l1 = rec.record("leaf", Some(stem), SimInstant(0), SimInstant(1_000_000));
        rec.attr(l1, "bytes_read", ByteSize::kib(64));
        rec.record("leaf", Some(stem), SimInstant(200_000), SimInstant(900_000));
        let text = rec.tree().render();
        assert!(text.contains("master"));
        assert!(text.contains("└─ stem"));
        assert!(text.contains("├─ leaf"));
        assert!(text.contains("bytes_read=64.00 KiB"));
    }

    #[test]
    fn counting_helpers() {
        let rec = SpanRecorder::new();
        let a = rec.record("leaf_task", None, SimInstant(0), SimInstant(1));
        rec.record("leaf_task", None, SimInstant(0), SimInstant(1));
        rec.attr(a, "abandoned", 1u64);
        assert_eq!(rec.count_named("leaf_task"), 2);
        assert_eq!(rec.count_named_with_attr("leaf_task", "abandoned"), 1);
        assert_eq!(rec.count_named("stem"), 0);
    }
}
