//! What a protocol instance is born with. The paper's control block is
//! created *with* its `ritas_t` context and chained to its parent in the
//! same act (§3.1–3.3), and so is ours: who the process is, its keys,
//! where it counts and where it sits in the span tree all arrive through
//! one [`Ctx`], and a parent hands each child the context it derived.

use crate::config::Group;
use crate::ProcessId;
use ritas_crypto::ProcessKeys;
use ritas_metrics::{Layer, Metrics, SpanAnnotation};
use std::fmt;
use std::sync::Arc;

/// The context of one protocol instance. Whether it has a span is settled
/// when the context is made: an instance made while tracing was off, or
/// below a spanless parent, has none, and neither has anything it creates.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub(crate) group: Group,
    pub(crate) me: ProcessId,
    pub(crate) keys: Arc<ProcessKeys>,
    pub(crate) metrics: Metrics,
    /// `Some("")` is the root, whose children get one-segment paths.
    span: Option<Arc<str>>,
}

impl Ctx {
    /// The context of a free-standing instance: a registry of its own and
    /// no span.
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside `group` or `keys` is not `me`'s view of a
    /// key table for `group`.
    pub fn new(group: Group, me: ProcessId, keys: Arc<ProcessKeys>) -> Self {
        assert!(group.contains(me), "me out of group");
        assert_eq!(keys.me(), me, "key table view belongs to another process");
        assert_eq!(keys.len(), group.n(), "key table size mismatch");
        let (metrics, span) = (Metrics::default(), None);
        Ctx {
            group,
            me,
            keys,
            metrics,
            span,
        }
    }

    /// The same context counting into `metrics`.
    pub fn with_metrics(self, metrics: Metrics) -> Self {
        Ctx { metrics, ..self }
    }

    /// The same context as the root of a span tree.
    pub(crate) fn root(self) -> Self {
        let span = Some("".into());
        Ctx { span, ..self }
    }

    fn with_span(&self, span: Option<Arc<str>>) -> Ctx {
        let ctx = self.clone();
        Ctx { span, ..ctx }
    }

    /// The context of a sub-instance that gets no span of its own.
    pub fn spanless(&self) -> Ctx {
        self.with_span(None)
    }

    /// The path `segment` names below this span — the only place one is
    /// built. `None`, with `segment` not called, when there is no span
    /// here or (unless `always`) tracing is off right now.
    fn path(
        &self,
        always: bool,
        segment: impl FnOnce(&mut String) -> fmt::Result,
    ) -> Option<String> {
        let parent = self.span.as_deref()?;
        if !always && !self.metrics.tracing_enabled() {
            return None;
        }
        let mut path = String::with_capacity(parent.len() + 24);
        if !parent.is_empty() {
            path.push_str(parent);
            path.push('/');
        }
        segment(&mut path).expect("writing to a String cannot fail");
        Some(path)
    }

    fn below(&self, path: Option<String>, layer: Layer) -> Ctx {
        if let Some(path) = &path {
            self.metrics.span_open(path.as_str(), layer);
        }
        self.with_span(path.map(Arc::from))
    }

    /// The context of a child instance, its span opened at `segment`
    /// below this one.
    pub fn child(&self, layer: Layer, segment: impl FnOnce(&mut String) -> fmt::Result) -> Ctx {
        self.below(self.path(false, segment), layer)
    }

    /// [`Ctx::child`] for a long-lived session: it keeps its path even if
    /// tracing is off now, so that what it creates after tracing is
    /// switched on is recorded.
    pub fn session(&self, layer: Layer, segment: impl FnOnce(&mut String) -> fmt::Result) -> Ctx {
        self.below(self.path(true, segment), layer)
    }

    /// Opens a span that is a milestone, not an instance, at `segment`
    /// below this one.
    pub fn open_at(&self, layer: Layer, segment: impl FnOnce(&mut String) -> fmt::Result) {
        if let Some(path) = self.path(false, segment) {
            self.metrics.span_open(path, layer);
        }
    }

    /// Annotates the span at `segment` below this one.
    pub fn annotate_at(
        &self,
        segment: impl FnOnce(&mut String) -> fmt::Result,
        kind: SpanAnnotation,
        value: u64,
    ) {
        if let Some(path) = self.path(false, segment) {
            self.metrics.span_annotate(&path, kind, value);
        }
    }

    /// Closes the span at `segment` below this one.
    pub fn close_at(&self, segment: impl FnOnce(&mut String) -> fmt::Result) {
        if let Some(path) = self.path(false, segment) {
            self.metrics.span_close(&path);
        }
    }

    /// Annotates this instance's span.
    pub fn annotate(&self, kind: SpanAnnotation, value: u64) {
        if let Some(path) = &self.span {
            self.metrics.span_annotate(path, kind, value);
        }
    }

    /// Closes this instance's span.
    pub fn close(&self) {
        if let Some(path) = &self.span {
            self.metrics.span_close(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::ctx;
    use std::fmt::Write as _;

    /// A root context counting into a registry of the test's own.
    fn root(tracing: bool) -> (Ctx, Metrics) {
        let metrics = Metrics::new();
        metrics.set_tracing(tracing);
        (ctx(4, 0, 1).with_metrics(metrics.clone()).root(), metrics)
    }

    fn unbuilt(_: &mut String) -> fmt::Result {
        panic!("a segment was built that nothing records")
    }

    fn paths(metrics: &Metrics) -> Vec<String> {
        let mut paths: Vec<String> = metrics.spans().into_iter().map(|s| s.path).collect();
        paths.sort();
        paths
    }

    #[test]
    fn tracing_off_builds_no_path_and_opens_no_span() {
        let (root, metrics) = root(false);
        let child = root.child(Layer::Rb, unbuilt);
        root.open_at(Layer::Ab, unbuilt);
        root.annotate_at(unbuilt, SpanAnnotation::Phase, 1);
        root.close_at(unbuilt);
        // Made without a span, the instance keeps none once tracing is on.
        metrics.set_tracing(true);
        child.annotate(SpanAnnotation::QuorumMet, 1);
        child.close();
        assert!(metrics.spans().is_empty());
        assert_eq!(metrics.span_orphan_closed.get(), 0);
    }

    #[test]
    fn child_opens_its_segment_below_the_parent() {
        let (root, metrics) = root(true);
        let ab = root.child(Layer::Ab, |f| write!(f, "ab:{}", 0));
        let round = ab.child(Layer::Ab, |f| write!(f, "r:{}", 3));
        assert_eq!(paths(&metrics), ["ab:0", "ab:0/r:3"]);
        round.annotate(SpanAnnotation::VectCollected, 3);
        round.close();
        ab.open_at(Layer::Ab, |f| f.write_str("m:1:2"));
        ab.annotate_at(|f| f.write_str("m:1:2"), SpanAnnotation::Phase, 64);
        ab.close_at(|f| f.write_str("m:1:2"));
        let spans = metrics.spans();
        for (path, closed, notes) in [
            ("ab:0/r:3", true, 1),
            ("ab:0/m:1:2", true, 1),
            ("ab:0", false, 0),
        ] {
            let span = spans.iter().find(|s| s.path == path).expect(path);
            assert_eq!(
                (span.close.is_some(), span.annotations.len()),
                (closed, notes),
                "{path}"
            );
        }
        assert_eq!(metrics.span_orphan_closed.get(), 0);
    }

    #[test]
    fn a_spanless_parent_keeps_its_subtree_spanless() {
        // Free-standing, explicitly spanless, or made while tracing was
        // off: switching tracing on afterwards changes nothing below.
        let (root, metrics) = root(false);
        let made_off = root.child(Layer::Mvc, unbuilt);
        metrics.set_tracing(true);
        let free = ctx(4, 0, 1).with_metrics(metrics.clone());
        for parent in [made_off, free, root.spanless()] {
            parent.child(Layer::Rb, unbuilt).child(Layer::Rb, unbuilt);
            parent.open_at(Layer::Ab, unbuilt);
        }
        assert!(metrics.spans().is_empty());
    }

    #[test]
    fn a_session_made_while_tracing_was_off_traces_what_it_creates_later() {
        let (root, metrics) = root(false);
        let session = root.session(Layer::Ab, |f| f.write_str("ab:0"));
        session.child(Layer::Rb, unbuilt);
        assert!(metrics.spans().is_empty(), "its own span is not opened");
        metrics.set_tracing(true);
        session.child(Layer::Mvc, |f| f.write_str("r:7/mvc"));
        session.open_at(Layer::Ab, |f| f.write_str("r:7"));
        assert_eq!(paths(&metrics), ["ab:0/r:7", "ab:0/r:7/mvc"]);
    }

    #[test]
    #[should_panic(expected = "me out of group")]
    fn a_stranger_gets_no_context() {
        let keys = ritas_crypto::KeyTable::dealer(5, 1).view_of(4);
        Ctx::new(Group::new(4).unwrap(), 4, Arc::new(keys));
    }

    #[test]
    #[should_panic(expected = "key table view belongs to another process")]
    fn another_process_s_keys_are_refused() {
        let keys = ritas_crypto::KeyTable::dealer(4, 1).view_of(2);
        Ctx::new(Group::new(4).unwrap(), 1, Arc::new(keys));
    }
}
