//! Structured tracing spans: per-thread span stacks, cross-thread context
//! propagation, and a bounded ring-buffer sink of finished spans.
//!
//! A span brackets one stage of work. [`span`] pushes onto the calling
//! thread's stack (the current top becomes the parent); dropping the
//! returned [`SpanGuard`] pops it and publishes a finished [`SpanRecord`]
//! into the global sink. Timestamps are nanoseconds since a process-wide
//! monotonic epoch, so records from different threads order causally.
//!
//! Parentage crosses threads explicitly: capture [`current_context`] on
//! the submitting thread and wrap the worker's body in [`with_context`] —
//! the runtime's `par_for` workers and `Background` jobs do this, so a
//! trace started in `apply_delta` keeps its identity through pool
//! workers and deferred compactions.
//!
//! The sink holds the most recent [`SPAN_SINK_CAPACITY`] records; older
//! ones are dropped (tracing must never grow unbounded in a server), and
//! every eviction increments the `pscc_trace_spans_dropped_total` counter
//! so the loss is visible in exposition dumps. Tests read the sink with
//! [`snapshot_spans`] or [`drain_spans`].

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Maximum number of finished spans retained by the global sink.
pub const SPAN_SINK_CAPACITY: usize = 4096;

/// Identity a span hands to work running on another thread: the trace it
/// belongs to and the span that should become the remote work's parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace identifier shared by every span of one causal chain.
    pub trace: u64,
    /// Span id the next child should claim as its parent.
    pub parent: u64,
}

/// One finished span, as published to the sink.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Unique span id (process-global, never reused).
    pub id: u64,
    /// Parent span id, or `0` for a root span.
    pub parent: u64,
    /// Trace id shared with ancestors and descendants.
    pub trace: u64,
    /// Stage name, e.g. `"apply_delta"` or `"plan"`.
    pub name: &'static str,
    /// Start time in nanoseconds since the process epoch.
    pub start_ns: u64,
    /// End time in nanoseconds since the process epoch.
    pub end_ns: u64,
    /// `key=value` attributes set while the span was open.
    pub attrs: Vec<(&'static str, String)>,
}

impl SpanRecord {
    /// Wall-clock duration of the span in nanoseconds.
    pub fn duration_nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Value of attribute `key`, if set.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_str())
    }
}

struct ActiveSpan {
    id: u64,
    parent: u64,
    trace: u64,
    name: &'static str,
    start_ns: u64,
    attrs: Vec<(&'static str, String)>,
}

thread_local! {
    static STACK: RefCell<Vec<ActiveSpan>> = const { RefCell::new(Vec::new()) };
    static REMOTE: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// Monotonically increasing id source for spans and traces (0 = none).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn alloc_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Nanoseconds since the process-wide monotonic epoch.
pub fn now_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn sink() -> &'static Mutex<VecDeque<SpanRecord>> {
    static SINK: OnceLock<Mutex<VecDeque<SpanRecord>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(VecDeque::new()))
}

/// Cached handle for the `pscc_trace_spans_dropped_total` counter: spans
/// evicted unread because the sink was full. A nonzero value in an
/// exposition dump means the trace window is shorter than the retention
/// the reader assumed.
fn spans_dropped_counter() -> &'static std::sync::Arc<crate::metrics::Counter> {
    static C: OnceLock<std::sync::Arc<crate::metrics::Counter>> = OnceLock::new();
    C.get_or_init(|| crate::metrics::counter("pscc_trace_spans_dropped_total"))
}

/// Starts a span named `name` on this thread and returns the guard that
/// ends it on drop.
///
/// The parent is the innermost open span on this thread, else the context
/// installed by [`with_context`], else the span starts a fresh trace.
/// When telemetry is disabled the guard is inert (no clock read, nothing
/// published).
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { live: false, id: 0 };
    }
    let (trace, parent) = STACK.with(|s| {
        if let Some(top) = s.borrow().last() {
            (top.trace, top.id)
        } else if let Some(ctx) = REMOTE.get() {
            (ctx.trace, ctx.parent)
        } else {
            (alloc_id(), 0)
        }
    });
    let id = alloc_id();
    let start_ns = now_nanos();
    STACK.with(|s| {
        s.borrow_mut().push(ActiveSpan { id, parent, trace, name, start_ns, attrs: Vec::new() })
    });
    SpanGuard { live: true, id }
}

/// Ends its span on drop. Created by [`span`].
#[derive(Debug)]
pub struct SpanGuard {
    live: bool,
    id: u64,
}

impl SpanGuard {
    /// Attaches a `key=value` attribute to this span.
    ///
    /// No-op if the guard is inert or (defensively) no longer on top of a
    /// well-nested stack.
    pub fn set_attr(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if !self.live {
            return;
        }
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(entry) = stack.iter_mut().rev().find(|e| e.id == self.id) {
                entry.attrs.push((key, value.to_string()));
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let finished = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards drop in reverse creation order, so this span is the
            // top; tolerate a mismatch rather than corrupting the stack.
            match stack.last() {
                Some(top) if top.id == self.id => stack.pop(),
                _ => None,
            }
        });
        if let Some(a) = finished {
            let record = SpanRecord {
                id: a.id,
                parent: a.parent,
                trace: a.trace,
                name: a.name,
                start_ns: a.start_ns,
                end_ns: now_nanos(),
                attrs: a.attrs,
            };
            let mut q = sink().lock().expect("span sink poisoned");
            if q.len() >= SPAN_SINK_CAPACITY {
                q.pop_front();
                spans_dropped_counter().inc();
            }
            q.push_back(record);
        }
    }
}

/// The identity spans started *now* on this thread would inherit: the
/// innermost open span, else the installed remote context.
pub fn current_context() -> Option<TraceContext> {
    if !crate::enabled() {
        return None;
    }
    STACK
        .with(|s| s.borrow().last().map(|top| TraceContext { trace: top.trace, parent: top.id }))
        .or_else(|| REMOTE.with(Cell::get))
}

/// Runs `f` with `ctx` installed as this thread's ambient parent, so spans
/// started inside (with an empty local stack) join the captured trace.
///
/// The previous ambient context is restored on exit, even on panic.
pub fn with_context<R>(ctx: Option<TraceContext>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<TraceContext>);
    impl Drop for Restore {
        fn drop(&mut self) {
            REMOTE.with(|r| r.set(self.0));
        }
    }
    let prev = REMOTE.with(|r| r.replace(ctx));
    let _restore = Restore(prev);
    f()
}

/// Copies every retained finished span out of the sink (oldest first)
/// without clearing it.
pub fn snapshot_spans() -> Vec<SpanRecord> {
    sink().lock().expect("span sink poisoned").iter().cloned().collect()
}

/// Removes and returns every retained finished span (oldest first).
pub fn drain_spans() -> Vec<SpanRecord> {
    sink().lock().expect("span sink poisoned").drain(..).collect()
}

#[cfg(test)]
#[cfg(not(feature = "telemetry-off"))]
mod tests {
    use super::*;

    /// Serializes the tests that read or flood the global sink: the
    /// overflow test evicts everything, so it must not interleave with a
    /// test that snapshots its own freshly finished spans.
    fn sink_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn sink_overflow_is_counted_and_surfaced() {
        let _serial = sink_test_lock();
        let before = crate::TelemetrySnapshot::capture().counter("pscc_trace_spans_dropped_total");
        // One more span than the capacity guarantees at least one
        // eviction even against an empty sink.
        for _ in 0..=SPAN_SINK_CAPACITY {
            let _s = span("test_overflow_filler");
        }
        let snap = crate::TelemetrySnapshot::capture();
        let dropped = snap.counter("pscc_trace_spans_dropped_total");
        assert!(dropped > before, "evictions must be counted ({dropped} <= {before})");
        assert_eq!(snapshot_spans().len(), SPAN_SINK_CAPACITY, "sink stays bounded");
        assert!(snap.render_text().contains("pscc_trace_spans_dropped_total"));
        assert!(snap.render_json().contains("pscc_trace_spans_dropped_total"));
    }

    #[test]
    fn nested_spans_share_a_trace_and_parent_correctly() {
        let _serial = sink_test_lock();
        let (root_id, root_trace) = {
            let mut root = span("test_trace_root");
            root.set_attr("graph", "t1");
            {
                let _inner = span("test_trace_inner");
                assert!(current_context().is_some(), "inner span visible");
            }
            let ctx = current_context().expect("root still open");
            (ctx.parent, ctx.trace)
        };
        let spans = snapshot_spans();
        let root = spans
            .iter()
            .rev()
            .find(|s| s.name == "test_trace_root" && s.id == root_id)
            .expect("root span recorded");
        assert_eq!(root.trace, root_trace);
        assert_eq!(root.parent, 0);
        assert_eq!(root.attr("graph"), Some("t1"));
        let inner = spans
            .iter()
            .rev()
            .find(|s| s.name == "test_trace_inner" && s.trace == root_trace)
            .expect("inner span recorded");
        assert_eq!(inner.parent, root.id);
        assert!(inner.start_ns >= root.start_ns);
        assert!(inner.end_ns <= root.end_ns);
        assert!(root.duration_nanos() >= inner.duration_nanos());
    }

    #[test]
    fn context_propagates_across_threads() {
        let _serial = sink_test_lock();
        let (ctx, root_id) = {
            let _root = span("test_ctx_root");
            let ctx = current_context().expect("root open");
            (ctx, ctx.parent)
        };
        let child_trace = std::thread::scope(|scope| {
            scope
                .spawn(move || {
                    with_context(Some(ctx), || {
                        let _child = span("test_ctx_remote_child");
                        current_context().expect("child open").trace
                    })
                })
                .join()
                .expect("worker")
        });
        assert_eq!(child_trace, ctx.trace);
        let spans = snapshot_spans();
        let child = spans
            .iter()
            .rev()
            .find(|s| s.name == "test_ctx_remote_child" && s.trace == ctx.trace)
            .expect("remote child recorded");
        assert_eq!(child.parent, root_id);
    }

    #[test]
    fn context_is_restored_after_with_context() {
        let fake = Some(TraceContext { trace: 999_999, parent: 1 });
        with_context(fake, || {
            assert_eq!(current_context(), fake);
            with_context(None, || assert_eq!(current_context(), None));
            assert_eq!(current_context(), fake);
        });
    }
}

#[cfg(test)]
#[cfg(feature = "telemetry-off")]
mod off_tests {
    use super::*;

    #[test]
    fn spans_are_inert_when_compiled_out() {
        let before = snapshot_spans().len();
        {
            let mut s = span("test_off_span");
            s.set_attr("k", 1);
        }
        assert_eq!(snapshot_spans().len(), before);
        assert_eq!(current_context(), None);
    }
}
