//! Observability: a std-only metric registry and structured trace layer.
//!
//! Serving many fits from one long-lived engine process makes "where did
//! the time go?" a first-class question. This
//! module answers it twice over, with the same always-compiled /
//! near-zero-when-disabled discipline as [`faults`](crate::faults):
//!
//! * **Metric registry** — named [`Counter`]s, [`Gauge`]s and fixed-bucket
//!   latency [`Histogram`]s, snapshotable at any time as a stable JSON
//!   tree ([`MetricsSnapshot`], the payload a future `/metrics` endpoint
//!   serves verbatim). Counters and gauges are *instance cells* registered
//!   under a shared name: each `JobQueue`/`Engine` owns its cell (so its
//!   per-instance stats view stays exact under concurrent engines), while
//!   [`snapshot`] reports the process-wide sum of live cells plus the
//!   retired totals of dropped ones. A cell update is one relaxed atomic
//!   RMW — the registry lock is only taken at registration, drop, and
//!   snapshot time, never on the hot path.
//!
//! * **Structured spans and events** — [`span`] returns a scope guard
//!   recording `(name, parent, thread, start, duration, fields)`;
//!   [`event`] records a point-in-time mark. Records land in per-thread
//!   buffers and drain to a JSON-lines sink when a thread's top-level
//!   span closes, when the buffer fills, or at thread exit. The whole
//!   layer sits behind one relaxed atomic load: with no sink installed a
//!   [`span`] call constructs an inert guard and touches nothing else, so
//!   production binaries pay nothing for carrying the instrumentation.
//!
//! # Configuration
//!
//! Set `TWOVIEW_TRACE=/path/to/trace.jsonl` to enable tracing for the
//! process (read lazily on the first probe), or
//! install a sink programmatically with [`trace_to_path`] /
//! [`trace_to_writer`]; [`trace_off`] flushes and uninstalls. The metric
//! registry needs no switch — its hot-path cost is the atomic add that
//! *is* the statistic.
//!
//! # Invariants
//!
//! Instrumentation is purely observational: no model byte may depend on
//! whether tracing is enabled. Span ids come from a process-wide sequence
//! (never from time or randomness), so a single-threaded run emits an
//! identical span tree — modulo timestamps — on every execution.
//!
//! # Trace schema
//!
//! One JSON object per line:
//!
//! ```text
//! {"kind":"span","id":7,"parent":3,"thread":1,"name":"job.run",
//!  "start_us":1234,"dur_us":56,"fields":{"lane":"interactive"}}
//! {"kind":"event","id":8,"parent":7,"thread":1,"name":"engine.degraded",
//!  "start_us":1290,"fields":{"reason":"seed_tidsets_unavailable"}}
//! ```
//!
//! `parent` is `0` for top-level records; `start_us` counts from an
//! arbitrary process epoch; spans are emitted when they *close*, so a
//! parent's line appears after its children's.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

use crate::sync::PoisonTolerantMutex;

// ---------------------------------------------------------------------------
// Metric registry
// ---------------------------------------------------------------------------

/// Histogram bucket upper bounds in nanoseconds (the last bucket is the
/// `+inf` overflow): 1µs, 10µs, 100µs, 1ms, 10ms, 100ms, 1s, 10s.
pub const BUCKET_BOUNDS_NS: [u64; 8] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

const N_BUCKETS: usize = BUCKET_BOUNDS_NS.len() + 1;

#[derive(Default)]
struct ScalarMetric {
    /// Totals folded in from dropped counter cells (counters only —
    /// a dropped gauge's value simply disappears).
    retired: u64,
    cells: Vec<Weak<AtomicU64>>,
}

struct HistogramCore {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, ScalarMetric>,
    gauges: BTreeMap<String, ScalarMetric>,
    histograms: BTreeMap<String, Arc<HistogramCore>>,
}

fn registry() -> &'static Mutex<RegistryInner> {
    static METRICS: OnceLock<Mutex<RegistryInner>> = OnceLock::new();
    METRICS.get_or_init(|| Mutex::new(RegistryInner::default()))
}

/// A named monotone counter: one instance cell registered in the
/// process-wide registry. [`Counter::get`] reads *this* cell (the
/// per-instance stats view); [`snapshot`] sums every cell ever
/// registered under the name, so process totals survive instance drops.
#[derive(Debug)]
pub struct Counter {
    cell: Arc<AtomicU64>,
    name: String,
}

impl Counter {
    /// Adds `n`. One relaxed atomic RMW; never locks.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// This cell's value (the owning instance's count, not the process
    /// total — see [`snapshot`] for the latter).
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

impl Drop for Counter {
    fn drop(&mut self) {
        // Fold the final value into the name's retired total so the
        // process-wide sum stays monotone across instance lifetimes.
        let value = self.cell.load(Ordering::Relaxed);
        let mut reg = registry().plock();
        let metric = reg
            .counters
            .entry(std::mem::take(&mut self.name))
            .or_default();
        metric.retired += value;
        metric.cells.retain(|w| w.strong_count() > 0);
    }
}

/// A named gauge cell (a point-in-time level, e.g. a queue depth).
/// [`snapshot`] reports the sum of live cells under the name.
#[derive(Debug)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the level. One relaxed atomic store.
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Reads this cell's level.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A named fixed-bucket latency histogram, shared process-wide: every
/// [`histogram`] call under one name observes into the same buckets
/// ([`BUCKET_BOUNDS_NS`] plus an overflow bucket).
#[derive(Clone, Debug)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl std::fmt::Debug for HistogramCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramCore").finish_non_exhaustive()
    }
}

impl Histogram {
    /// Records one observation of `ns` nanoseconds: three relaxed RMWs
    /// and a branchless-ish bucket scan over eight bounds.
    #[inline]
    pub fn observe_ns(&self, ns: u64) {
        let idx = BUCKET_BOUNDS_NS
            .iter()
            .position(|&b| ns <= b)
            .unwrap_or(N_BUCKETS - 1);
        self.core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        self.core.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one observation of a [`Duration`].
    #[inline]
    pub fn observe(&self, d: Duration) {
        self.observe_ns(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }
}

/// Registers a fresh counter cell under `name` (see [`Counter`]).
pub fn counter(name: &str) -> Counter {
    let cell = Arc::new(AtomicU64::new(0));
    let mut reg = registry().plock();
    let metric = reg.counters.entry(name.to_string()).or_default();
    metric.cells.retain(|w| w.strong_count() > 0);
    metric.cells.push(Arc::downgrade(&cell));
    Counter {
        cell,
        name: name.to_string(),
    }
}

/// Registers a fresh gauge cell under `name` (see [`Gauge`]).
pub fn gauge(name: &str) -> Gauge {
    let cell = Arc::new(AtomicU64::new(0));
    let mut reg = registry().plock();
    let metric = reg.gauges.entry(name.to_string()).or_default();
    metric.cells.retain(|w| w.strong_count() > 0);
    metric.cells.push(Arc::downgrade(&cell));
    Gauge { cell }
}

/// Returns the process-wide histogram registered under `name`, creating
/// it on first use (see [`Histogram`]).
pub fn histogram(name: &str) -> Histogram {
    let mut reg = registry().plock();
    let core = reg
        .histograms
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(HistogramCore::new()));
    Histogram { core: core.clone() }
}

/// One histogram's state inside a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, nanoseconds.
    pub sum_ns: u64,
    /// `(upper_bound_ns, count)` per bucket; the final bucket's bound is
    /// `u64::MAX` (overflow).
    pub buckets: Vec<(u64, u64)>,
}

/// A stable, point-in-time view of the whole registry: counter and gauge
/// process totals plus every histogram, all sorted by name. This is the
/// payload the ROADMAP's `/metrics` endpoint serves; [`MetricsSnapshot::
/// to_json`] renders it deterministically.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, process total)` — live cells plus retired totals.
    pub counters: Vec<(String, u64)>,
    /// `(name, sum of live cells)`.
    pub gauges: Vec<(String, u64)>,
    /// Every registered histogram.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The counter total under `name`, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The gauge level under `name`, or 0 when absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Renders the snapshot as a stable JSON tree (keys sorted, fixed
    /// field order) — identical input state always yields identical
    /// bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, &h.name);
            out.push_str(&format!(
                ":{{\"count\":{},\"sum_ns\":{},\"buckets\":[",
                h.count, h.sum_ns
            ));
            for (j, (le, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                if *le == u64::MAX {
                    out.push_str(&format!("{{\"le\":\"+inf\",\"count\":{n}}}"));
                } else {
                    out.push_str(&format!("{{\"le\":{le},\"count\":{n}}}"));
                }
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

/// Takes a [`MetricsSnapshot`] of the whole registry.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry().plock();
    let scalar_rows = |map: &BTreeMap<String, ScalarMetric>, with_retired: bool| {
        map.iter()
            .map(|(name, m)| {
                let live: u64 = m
                    .cells
                    .iter()
                    .filter_map(|w| w.upgrade())
                    .map(|c| c.load(Ordering::Relaxed))
                    .sum();
                (
                    name.clone(),
                    live + if with_retired { m.retired } else { 0 },
                )
            })
            .collect()
    };
    let histograms = reg
        .histograms
        .iter()
        .map(|(name, core)| {
            let buckets = core
                .buckets
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    let le = BUCKET_BOUNDS_NS.get(i).copied().unwrap_or(u64::MAX);
                    (le, b.load(Ordering::Relaxed))
                })
                .collect();
            HistogramSnapshot {
                name: name.clone(),
                count: core.count.load(Ordering::Relaxed),
                sum_ns: core.sum_ns.load(Ordering::Relaxed),
                buckets,
            }
        })
        .collect();
    MetricsSnapshot {
        counters: scalar_rows(&reg.counters, true),
        gauges: scalar_rows(&reg.gauges, false),
        histograms,
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Trace layer: spans and events
// ---------------------------------------------------------------------------

const GATE_UNINIT: u8 = 0;
const GATE_OFF: u8 = 1;
const GATE_ON: u8 = 2;

/// Three-state gate: `UNINIT` (env not yet consulted), `OFF`, `ON`.
static TRACE_GATE: AtomicU8 = AtomicU8::new(GATE_UNINIT);
static TRACE_SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Whether a trace sink is installed. The `false` path is one relaxed
/// atomic load once the gate has initialised.
#[inline]
pub fn trace_enabled() -> bool {
    match TRACE_GATE.load(Ordering::Relaxed) {
        GATE_ON => true,
        GATE_OFF => false,
        _ => trace_init_from_env(),
    }
}

#[cold]
fn trace_init_from_env() -> bool {
    let mut sink = TRACE_SINK.plock();
    // Another thread may have initialised while we waited for the lock.
    match TRACE_GATE.load(Ordering::Acquire) {
        GATE_ON => return true,
        GATE_OFF => return false,
        _ => {}
    }
    match std::env::var("TWOVIEW_TRACE") {
        Ok(path) if !path.trim().is_empty() => match std::fs::File::create(path.trim()) {
            Ok(file) => {
                *sink = Some(Box::new(std::io::BufWriter::new(file)));
                TRACE_GATE.store(GATE_ON, Ordering::Release);
                true
            }
            Err(e) => {
                eprintln!("TWOVIEW_TRACE: cannot create {path:?}: {e}");
                TRACE_GATE.store(GATE_OFF, Ordering::Release);
                false
            }
        },
        _ => {
            TRACE_GATE.store(GATE_OFF, Ordering::Release);
            false
        }
    }
}

/// Installs a JSON-lines trace sink at `path` (truncating), overriding
/// `TWOVIEW_TRACE`.
pub fn trace_to_path(path: &str) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    trace_to_writer(Box::new(std::io::BufWriter::new(file)));
    Ok(())
}

/// Installs an arbitrary writer as the trace sink (tests).
pub fn trace_to_writer(writer: Box<dyn Write + Send>) {
    let mut sink = TRACE_SINK.plock();
    *sink = Some(writer);
    TRACE_GATE.store(GATE_ON, Ordering::Release);
}

/// Flushes and uninstalls the trace sink; subsequent [`span`]/[`event`]
/// calls take the one-load disabled path again.
pub fn trace_off() {
    flush_thread_buffer();
    let mut sink = TRACE_SINK.plock();
    if let Some(w) = sink.as_mut() {
        let _ = w.flush();
    }
    *sink = None;
    TRACE_GATE.store(GATE_OFF, Ordering::Release);
}

/// Drains the calling thread's buffer and flushes the sink. Buffers of
/// *other* threads drain when their own top-level span closes (executor
/// threads do this after every job) and at thread exit.
pub fn flush_trace() {
    flush_thread_buffer();
    let mut sink = TRACE_SINK.plock();
    if let Some(w) = sink.as_mut() {
        let _ = w.flush();
    }
}

/// A field value on a span or event.
#[derive(Clone, Debug)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rendered with enough digits to round-trip).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Static string.
    Str(&'static str),
    /// Owned string.
    Owned(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(v)
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Owned(v)
    }
}

struct ThreadTrace {
    /// Small sequential id assigned on a thread's first record.
    thread_id: u64,
    /// Open span ids, innermost last.
    stack: Vec<u64>,
    /// Formatted lines awaiting the sink.
    buf: String,
    lines: usize,
}

impl ThreadTrace {
    fn new() -> Self {
        ThreadTrace {
            thread_id: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            stack: Vec::new(),
            buf: String::new(),
            lines: 0,
        }
    }
}

impl Drop for ThreadTrace {
    fn drop(&mut self) {
        drain(&mut self.buf, &mut self.lines);
    }
}

thread_local! {
    static TLS: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::new());
}

const DRAIN_EVERY_LINES: usize = 64;

fn drain(buf: &mut String, lines: &mut usize) {
    if buf.is_empty() {
        return;
    }
    let mut sink = TRACE_SINK.plock();
    if let Some(w) = sink.as_mut() {
        let _ = w.write_all(buf.as_bytes());
        // The sink lives in a static, which never drops: without a flush
        // here a buffered writer would lose its tail at process exit and
        // leave the file truncated mid-record. Drains are batched (64
        // lines or a top-level span close), so this is one syscall each.
        let _ = w.flush();
    }
    buf.clear();
    *lines = 0;
}

fn flush_thread_buffer() {
    let _ = TLS.try_with(|tls| {
        if let Ok(mut t) = tls.try_borrow_mut() {
            let t = &mut *t;
            drain(&mut t.buf, &mut t.lines);
        }
    });
}

struct ActiveSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    start_us: u64,
    fields: Vec<(&'static str, FieldValue)>,
}

/// Scope guard for an open span; created by [`span`], recorded at drop.
/// When tracing is disabled the guard is inert and [`SpanGuard::field`]
/// is a no-op, so call sites need no `if enabled` of their own.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

/// Opens a span named `name` under the calling thread's innermost open
/// span. Cost when tracing is disabled: one relaxed atomic load.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !trace_enabled() {
        return SpanGuard { active: None };
    }
    span_slow(name)
}

#[cold]
fn span_slow(name: &'static str) -> SpanGuard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let start = Instant::now();
    let start_us = start.duration_since(epoch()).as_micros() as u64;
    let parent = TLS
        .try_with(|tls| {
            let mut t = tls.borrow_mut();
            let parent = t.stack.last().copied().unwrap_or(0);
            t.stack.push(id);
            parent
        })
        .unwrap_or(0);
    SpanGuard {
        active: Some(ActiveSpan {
            id,
            parent,
            name,
            start,
            start_us,
            fields: Vec::new(),
        }),
    }
}

impl SpanGuard {
    /// Attaches a field to the span (no-op when tracing is disabled).
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) -> &mut Self {
        if let Some(a) = &mut self.active {
            a.fields.push((key, value.into()));
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        let dur_us = a.start.elapsed().as_micros() as u64;
        let _ = TLS.try_with(|tls| {
            let Ok(mut t) = tls.try_borrow_mut() else {
                return;
            };
            let t = &mut *t;
            // Pop this span (tolerating missed pops if a guard leaked).
            while let Some(top) = t.stack.pop() {
                if top == a.id {
                    break;
                }
            }
            write_record(
                &mut t.buf,
                "span",
                a.id,
                a.parent,
                t.thread_id,
                a.name,
                a.start_us,
                Some(dur_us),
                &a.fields,
            );
            t.lines += 1;
            if t.stack.is_empty() || t.lines >= DRAIN_EVERY_LINES {
                drain(&mut t.buf, &mut t.lines);
            }
        });
    }
}

/// Records a point-in-time event under the innermost open span. Cost
/// when tracing is disabled: one relaxed atomic load (plus constructing
/// the borrowed `fields` slice, which for numeric values is free).
#[inline]
pub fn event(name: &'static str, fields: &[(&'static str, FieldValue)]) {
    if !trace_enabled() {
        return;
    }
    event_slow(name, fields);
}

#[cold]
fn event_slow(name: &'static str, fields: &[(&'static str, FieldValue)]) {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let start_us = Instant::now().duration_since(epoch()).as_micros() as u64;
    let _ = TLS.try_with(|tls| {
        let Ok(mut t) = tls.try_borrow_mut() else {
            return;
        };
        let t = &mut *t;
        let parent = t.stack.last().copied().unwrap_or(0);
        write_record(
            &mut t.buf,
            "event",
            id,
            parent,
            t.thread_id,
            name,
            start_us,
            None,
            fields,
        );
        t.lines += 1;
        if t.stack.is_empty() || t.lines >= DRAIN_EVERY_LINES {
            drain(&mut t.buf, &mut t.lines);
        }
    });
}

#[allow(clippy::too_many_arguments)]
fn write_record(
    buf: &mut String,
    kind: &str,
    id: u64,
    parent: u64,
    thread: u64,
    name: &'static str,
    start_us: u64,
    dur_us: Option<u64>,
    fields: &[(&'static str, FieldValue)],
) {
    use std::fmt::Write as _;
    let _ = write!(
        buf,
        "{{\"kind\":\"{kind}\",\"id\":{id},\"parent\":{parent},\"thread\":{thread},\"name\":"
    );
    push_json_str(buf, name);
    let _ = write!(buf, ",\"start_us\":{start_us}");
    if let Some(d) = dur_us {
        let _ = write!(buf, ",\"dur_us\":{d}");
    }
    if !fields.is_empty() {
        buf.push_str(",\"fields\":{");
        for (i, (key, value)) in fields.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            push_json_str(buf, key);
            buf.push(':');
            match value {
                FieldValue::U64(v) => {
                    let _ = write!(buf, "{v}");
                }
                FieldValue::I64(v) => {
                    let _ = write!(buf, "{v}");
                }
                FieldValue::F64(v) if v.is_finite() => {
                    let _ = write!(buf, "{v}");
                }
                FieldValue::F64(_) => buf.push_str("null"),
                FieldValue::Bool(v) => {
                    let _ = write!(buf, "{v}");
                }
                FieldValue::Str(s) => push_json_str(buf, s),
                FieldValue::Owned(s) => push_json_str(buf, s),
            }
        }
        buf.push('}');
    }
    buf.push_str("}\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    // The trace sink is process-global; tests that install one serialise
    // on this mutex (same pattern as the faults tests).
    static EXCLUSIVE: Mutex<()> = Mutex::new(());

    /// A Write that appends into a shared Vec, for sink assertions.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.plock().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn counter_cells_sum_and_survive_drop() {
        let a = counter("unit.obs.sum");
        let b = counter("unit.obs.sum");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 3, "per-instance view reads the own cell");
        assert_eq!(snapshot().counter("unit.obs.sum"), 7);
        drop(a);
        assert_eq!(
            snapshot().counter("unit.obs.sum"),
            7,
            "dropped cells retire into the total"
        );
        drop(b);
        assert_eq!(snapshot().counter("unit.obs.sum"), 7);
    }

    #[test]
    fn gauges_report_live_levels_only() {
        let g = gauge("unit.obs.level");
        g.set(5);
        assert_eq!(snapshot().gauge("unit.obs.level"), 5);
        drop(g);
        assert_eq!(snapshot().gauge("unit.obs.level"), 0);
    }

    #[test]
    fn histogram_buckets_and_totals() {
        let h = histogram("unit.obs.lat");
        h.observe_ns(500); // ≤ 1µs
        h.observe_ns(5_000_000); // ≤ 10ms
        h.observe_ns(u64::MAX); // overflow
        let snap = snapshot();
        let hs = snap
            .histograms
            .iter()
            .find(|h| h.name == "unit.obs.lat")
            .expect("registered");
        assert_eq!(hs.count, 3);
        assert_eq!(hs.buckets[0], (1_000, 1));
        assert_eq!(hs.buckets.last().unwrap().0, u64::MAX);
        assert_eq!(hs.buckets.last().unwrap().1, 1);
        assert_eq!(histogram("unit.obs.lat").count(), 3, "same core by name");
    }

    #[test]
    fn snapshot_json_is_stable_and_parseable_shape() {
        counter("unit.obs.json.b").incr();
        counter("unit.obs.json.a").incr();
        let a = snapshot().to_json();
        let b = snapshot().to_json();
        assert_eq!(a, b, "identical state renders identical bytes");
        assert!(a.starts_with("{\"counters\":{"));
        assert!(a.contains("\"unit.obs.json.a\":"));
        let ia = a.find("unit.obs.json.a").unwrap();
        let ib = a.find("unit.obs.json.b").unwrap();
        assert!(ia < ib, "keys sorted");
        assert!(a.ends_with("}}"));
    }

    #[test]
    fn spans_nest_record_and_drain_at_top_level_close() {
        let _guard = EXCLUSIVE.plock();
        let sink = SharedBuf::default();
        trace_to_writer(Box::new(sink.clone()));
        {
            let mut outer = span("unit.outer");
            outer.field("k", 7u64).field("s", "v");
            {
                let _inner = span("unit.inner");
                event("unit.mark", &[("flag", true.into())]);
            }
        }
        trace_off();
        let bytes = sink.0.plock().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "event + inner + outer: {text}");
        // Emission order: event first, then inner close, then outer close.
        assert!(lines[0].contains("\"kind\":\"event\"") && lines[0].contains("unit.mark"));
        assert!(lines[1].contains("unit.inner"));
        assert!(lines[2].contains("unit.outer") && lines[2].contains("\"k\":7"));
        // The event's parent is the inner span; inner's parent is outer.
        let id_of = |line: &str, key: &str| -> u64 {
            let at = line.find(key).unwrap() + key.len();
            line[at..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .unwrap()
        };
        let inner_id = id_of(lines[1], "\"id\":");
        let outer_id = id_of(lines[2], "\"id\":");
        assert_eq!(id_of(lines[0], "\"parent\":"), inner_id);
        assert_eq!(id_of(lines[1], "\"parent\":"), outer_id);
        assert_eq!(id_of(lines[2], "\"parent\":"), 0);
    }

    #[test]
    fn disabled_paths_are_inert() {
        let _guard = EXCLUSIVE.plock();
        trace_off();
        assert!(!trace_enabled());
        let mut s = span("unit.disabled");
        s.field("ignored", 1u64);
        drop(s);
        event("unit.disabled.event", &[]);
        // Nothing panics, nothing is buffered: installing a sink now must
        // see an empty stream until new records arrive.
        let sink = SharedBuf::default();
        trace_to_writer(Box::new(sink.clone()));
        flush_trace();
        assert!(sink.0.plock().is_empty());
        trace_off();
    }
}
