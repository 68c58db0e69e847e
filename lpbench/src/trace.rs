//! Spans recorded in the benchmark's own code around each call into a
//! workspace crate: name, start, end, parent and request id. Spans stay in
//! memory and are written as JSON lines when the run ends, together with
//! the self time of each span name (a span's duration minus the part its
//! children cover). Tracing is off unless the run was started with
//! `--trace 1` (and then switched off for the untraced passes that
//! measure its overhead); when off, [`span`] is one relaxed atomic load.

use crate::stats::{jstr, num};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: Mutex<Option<Instant>> = Mutex::new(None);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// Parent span id (0 for a root).
    pub parent: u64,
    /// Layer boundary, e.g. `core.linbp`.
    pub name: &'static str,
    /// Request id the span belongs to (0 when not request-scoped).
    pub req: u64,
    /// Start, seconds since tracing was enabled.
    pub start: f64,
    /// End, seconds since tracing was enabled.
    pub end: f64,
}

/// Switches span recording on or off. The clock starts the first time it
/// is switched on.
pub fn set(on: bool) {
    EPOCH
        .lock()
        .expect("trace epoch lock poisoned")
        .get_or_insert_with(Instant::now);
    ON.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

fn clock() -> f64 {
    EPOCH
        .lock()
        .expect("trace epoch lock poisoned")
        .map(|t| t.elapsed().as_secs_f64())
        .unwrap_or(0.0)
}

/// Runs `f` inside a span named `name` for request `req`.
pub fn span<T>(name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let p = s.last().copied().unwrap_or(0);
        s.push(id);
        p
    });
    let start = clock();
    let out = f();
    let end = clock();
    STACK.with(|s| s.borrow_mut().pop());
    SPANS.lock().expect("trace span lock poisoned").push(Span {
        id,
        parent,
        name,
        req,
        start,
        end,
    });
    out
}

/// Self time per span name, in seconds: duration minus the time covered by
/// direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_cover: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_cover.entry(s.parent).or_default() += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = (s.end - s.start) - child_cover.get(&s.id).copied().unwrap_or(0.0);
        *out.entry(s.name).or_default() += own.max(0.0);
    }
    out
}

/// Writes every span as a JSON line to `path`, followed by one
/// `{"self_time_s": {...}}` line, and returns the self times.
pub fn flush(path: &std::path::Path) -> std::io::Result<BTreeMap<&'static str, f64>> {
    let spans = std::mem::take(&mut *SPANS.lock().expect("trace span lock poisoned"));
    let selfs = self_times(&spans);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &spans {
        writeln!(
            w,
            "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"req\": {}, \"start\": {}, \"end\": {}}}",
            s.id,
            s.parent,
            jstr(s.name),
            s.req,
            num(s.start),
            num(s.end)
        )?;
    }
    let body: Vec<String> = selfs
        .iter()
        .map(|(k, v)| format!("{}: {}", jstr(k), num(*v)))
        .collect();
    writeln!(w, "{{\"self_time_s\": {{{}}}}}", body.join(", "))?;
    w.flush()?;
    Ok(selfs)
}
