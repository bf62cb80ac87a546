//! The benchmark's own spans: one per call it makes into a layer, kept in
//! memory and written out when the run ends. Off unless the run is
//! traced, so untraced runs pay one relaxed load per call site.
//!
//! Program spans (`apply_delta ▸ normalize/fsync/execute(plan)/swap`,
//! `index_build`, `store_recovery`, ...) come from the program's own
//! sink. Each program root span is adopted by the innermost benchmark
//! span that encloses it in time and caused it (request spans of the
//! concurrent read traffic never adopt), so a delta's client span, its
//! server-side stages and its store work share one trace id.

use crate::stats::self_time;
use pscc_telemetry::trace::now_nanos;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Parent span id, `0` for a root.
    pub parent: u64,
    /// Shared by every span of one request, delta or set-up step.
    pub trace: u64,
    /// Layer the time is charged to (repository module names).
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Whether program spans inside it are its children.
    pub adopts: bool,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Program span ids are shifted past every benchmark id.
const PROGRAM_ID_BASE: u64 = 1 << 48;

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Monotonic nanoseconds on the program's span clock.
pub fn now() -> u64 {
    now_nanos()
}

/// Ends its span on drop.
pub struct Guard {
    live: Option<(u64, u64, u64, &'static str, &'static str, u64)>,
}

/// Opens a span around a call into `layer`; nests under the innermost
/// open span of this thread.
pub fn span(layer: &'static str, name: &'static str) -> Guard {
    if !enabled() {
        return Guard { live: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, trace) = STACK.with(|s| s.borrow().last().copied().unwrap_or((0, id)));
    STACK.with(|s| s.borrow_mut().push((id, trace)));
    Guard { live: Some((id, parent, trace, layer, name, now())) }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, trace, layer, name, start_ns)) = self.live.take() {
            STACK.with(|s| s.borrow_mut().pop());
            push(Span { id, parent, trace, layer, name, start_ns, end_ns: now(), adopts: true });
        }
    }
}

/// Records finished root spans timed elsewhere (requests whose send and
/// receive happen on different threads), one lock for all. They never
/// adopt.
pub fn record_many(layer: &'static str, name: &'static str, intervals: &[(u64, u64)]) {
    if !enabled() {
        return;
    }
    let mut spans = SPANS.lock().expect("span sink lock");
    for &(start_ns, end_ns) in intervals {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        spans.push(Span { id, parent: 0, trace: id, layer, name, start_ns, end_ns, adopts: false });
    }
}

fn push(span: Span) {
    SPANS.lock().expect("span sink lock").push(span);
}

/// Takes every benchmark span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span sink lock"))
}

static PROGRAM: Mutex<Vec<pscc_telemetry::SpanRecord>> = Mutex::new(Vec::new());
static TELEMETRY: Mutex<Vec<(String, String)>> = Mutex::new(Vec::new());

/// Moves the program's finished spans out of its bounded sink, before it
/// wraps. Workloads call this at phase ends; a no-op when untraced.
pub fn collect_program_spans() -> Vec<pscc_telemetry::SpanRecord> {
    if !enabled() {
        return Vec::new();
    }
    let drained = pscc_telemetry::drain_spans();
    PROGRAM.lock().expect("program span lock").extend(drained.iter().cloned());
    drained
}

pub fn take_program_spans() -> Vec<pscc_telemetry::SpanRecord> {
    std::mem::take(&mut *PROGRAM.lock().expect("program span lock"))
}

/// Keeps a phase's telemetry window for the trace file.
pub fn note_telemetry(phase: &str, window: &pscc_telemetry::TelemetrySnapshot) {
    if enabled() {
        let json = window.render_json().replace('\n', "");
        TELEMETRY.lock().expect("telemetry note lock").push((phase.to_string(), json));
    }
}

pub fn take_telemetry() -> Vec<(String, String)> {
    std::mem::take(&mut *TELEMETRY.lock().expect("telemetry note lock"))
}

/// Layer a program span's time is charged to.
pub fn program_layer(name: &str) -> &'static str {
    match name {
        "apply_delta" | "normalize" | "execute" | "swap" => "engine.catalog",
        "plan" => "engine.planner",
        "fsync" | "snapshot_write" | "store_recovery" | "compaction" => "store",
        "index_build" => "engine.index",
        "answer_batch" | "answer_batch_explained" => "engine.batch",
        _ => "other",
    }
}

/// Merges drained program spans into the benchmark's spans: ids are
/// shifted, and each program root joins the trace of the innermost
/// adopting benchmark span that encloses it.
pub fn merge(bench: &mut Vec<Span>, program: &[pscc_telemetry::SpanRecord]) {
    let adopters: Vec<(u64, u64, u64, u64)> =
        bench.iter().filter(|s| s.adopts).map(|s| (s.start_ns, s.end_ns, s.id, s.trace)).collect();
    let present: std::collections::HashSet<u64> = program.iter().map(|p| p.id).collect();
    let mut root_of: HashMap<u64, (u64, u64)> = HashMap::new();
    for p in program.iter().filter(|p| p.parent == 0 || !present.contains(&p.parent)) {
        let adopter = adopters
            .iter()
            .filter(|&&(s, e, _, _)| s <= p.start_ns && p.end_ns <= e)
            .max_by_key(|&&(s, _, _, _)| s);
        if let Some(&(_, _, id, trace)) = adopter {
            root_of.insert(p.trace, (id, trace));
        }
    }
    for p in program {
        let adopted = root_of.get(&p.trace).copied();
        let is_root = p.parent == 0 || !present.contains(&p.parent);
        let parent = match (is_root, adopted) {
            (true, Some((id, _))) => id,
            (true, None) => 0,
            (false, _) => p.parent + PROGRAM_ID_BASE,
        };
        bench.push(Span {
            id: p.id + PROGRAM_ID_BASE,
            parent,
            trace: adopted.map(|(_, t)| t).unwrap_or(p.trace + PROGRAM_ID_BASE),
            layer: program_layer(p.name),
            name: p.name,
            start_ns: p.start_ns,
            end_ns: p.end_ns,
            adopts: false,
        });
    }
}

/// Seconds of self time per layer: each span's duration minus the part
/// its children cover, summed by layer.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        *out.entry(s.layer).or_default() += self_time(s.start_ns, s.end_ns, kids) as f64 * 1e-9;
    }
    out
}

/// Writes spans as one JSON array per line:
/// `[id, parent, trace, "layer", "name", start_ns, end_ns]`.
pub fn write_spans(out: &mut String, spans: &[Span]) {
    use std::fmt::Write as _;
    for s in spans {
        let _ = writeln!(
            out,
            "[{},{},{},\"{}\",\"{}\",{},{}]",
            s.id, s.parent, s.trace, s.layer, s.name, s.start_ns, s.end_ns
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_span(id: u64, parent: u64, layer: &'static str, s: u64, e: u64, adopts: bool) -> Span {
        Span { id, parent, trace: id, layer, name: "x", start_ns: s, end_ns: e, adopts }
    }

    fn program_span(
        id: u64,
        parent: u64,
        trace: u64,
        name: &'static str,
        s: u64,
        e: u64,
    ) -> pscc_telemetry::SpanRecord {
        pscc_telemetry::SpanRecord {
            id,
            parent,
            trace,
            name,
            start_ns: s,
            end_ns: e,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn program_roots_are_adopted_and_self_time_splits_by_layer() {
        // A delta request [0, 100) whose server side ran apply_delta
        // [10, 90) ▸ fsync [20, 30) + execute [30, 80) ▸ plan [40, 50);
        // a concurrent read request [5, 95) must not adopt it.
        let mut spans = vec![
            bench_span(1, 0, "client", 0, 100, true),
            bench_span(2, 0, "client.read", 5, 95, false),
        ];
        let program = vec![
            program_span(10, 0, 10, "apply_delta", 10, 90),
            program_span(11, 10, 10, "fsync", 20, 30),
            program_span(12, 10, 10, "execute", 30, 80),
            program_span(13, 12, 10, "plan", 40, 50),
        ];
        merge(&mut spans, &program);
        let root = spans.iter().find(|s| s.name == "apply_delta").expect("merged");
        assert_eq!(root.parent, 1);
        assert!(spans.iter().filter(|s| s.id > PROGRAM_ID_BASE).all(|s| s.trace == 1));
        let t = self_times(&spans);
        let ns = |layer: &str| (t[layer] * 1e9).round() as u64;
        assert_eq!(ns("client"), 20); // 100 − apply_delta's 80
        assert_eq!(ns("client.read"), 90);
        assert_eq!(ns("engine.catalog"), 20 + 40); // apply_delta + execute self time
        assert_eq!(ns("store"), 10);
        assert_eq!(ns("engine.planner"), 10);
    }
}
