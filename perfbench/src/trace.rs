//! The benchmark's own spans, recorded around its calls into the program,
//! and the per-layer counts read from what those calls return.
//!
//! Spans and counts are kept in memory and written out as JSON when the run ends.
//! Nothing is recorded inside the program: a span covers one public call
//! (or a group of them) made from this benchmark. When tracing is off,
//! [`span`] only calls its closure.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (ids start at 1; 0 means "no parent").
    pub id: u64,
    /// The enclosing span, or 0.
    pub parent: u64,
    /// What was called, e.g. `sem.check`.
    pub name: &'static str,
    /// A detail such as the rewrite or kernel name.
    pub label: String,
    /// The operation (round of timed work) the span belongs to.
    pub op: u64,
    /// Start, in nanoseconds since the trace epoch.
    pub start: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static OP: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// One recorded count: metric name, label, operation id, value.
static COUNTS: Mutex<Vec<(&'static str, String, u64, u64)>> = Mutex::new(Vec::new());

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

fn now() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ON.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::SeqCst)
}

/// Sets the operation id stamped on spans opened from now on.
pub fn set_op(op: u64) {
    OP.store(op, Ordering::SeqCst);
}

/// The operation id spans are stamped with now.
pub fn current_op() -> u64 {
    OP.load(Ordering::SeqCst)
}

/// The span open on this thread (0 if none); hand it to [`within`] on a
/// worker thread so the worker's spans nest under it.
pub fn current() -> u64 {
    CURRENT.with(Cell::get)
}

/// Runs `f` with `parent` as this thread's open span.
pub fn within<R>(parent: u64, f: impl FnOnce() -> R) -> R {
    let saved = CURRENT.with(|c| c.replace(parent));
    let r = f();
    CURRENT.with(|c| c.set(saved));
    r
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, label: &str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(id));
    let op = OP.load(Ordering::SeqCst);
    let start = now();
    let r = f();
    let end = now();
    CURRENT.with(|c| c.set(parent));
    let s = Span { id, parent, name, label: label.to_string(), op, start, end };
    SPANS.lock().expect("span buffer poisoned by a panicking thread").push(s);
    r
}

/// Takes every span recorded so far, in order of id.
pub fn take() -> Vec<Span> {
    let mut v =
        std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned by a panicking thread"));
    v.sort_by_key(|s| s.id);
    v
}

/// Records a per-layer count against the current operation (no-op when
/// tracing is off).
pub fn count(name: &'static str, label: &str, value: u64) {
    if enabled() {
        let op = current_op();
        COUNTS.lock().expect("count buffer poisoned by a panicking thread").push((
            name,
            label.to_string(),
            op,
            value,
        ));
    }
}

/// Takes every count recorded so far.
pub fn take_counts() -> Vec<(&'static str, String, u64, u64)> {
    std::mem::take(&mut *COUNTS.lock().expect("count buffer poisoned by a panicking thread"))
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children on worker threads may overlap, so
/// the covered part is the union of their intervals).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Renders spans as a JSON document (times in nanoseconds).
pub fn to_json(spans: &[Span], self_ns: &[u64]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .zip(self_ns)
        .map(|(s, own)| {
            format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"label\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                s.parent,
                s.name,
                graphiti_bench::json::escape(&s.label),
                s.op,
                s.start,
                s.end,
                own
            )
        })
        .collect();
    format!("{{\"spans\":[\n{}\n]}}\n", rows.join(",\n"))
}
