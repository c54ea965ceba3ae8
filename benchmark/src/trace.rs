//! The traced run's instruments, kept in the benchmark's own files: an
//! in-memory span recorder around calls into each layer, and counter
//! deltas read from the library's `obs` registry around those calls.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use twoview_runtime::obs;

/// One recorded span: a call into a layer, nested under the call that
/// caused it.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Instant,
    pub dur: Duration,
}

/// Spans of one traced round, kept in memory.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: Instant::now(),
            dur: Duration::ZERO,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one).
    pub fn exit(&mut self, id: usize) {
        let end = Instant::now();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        self.spans[id].dur = end - self.spans[id].start;
    }

    /// Times `f` as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Total duration of every span named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur.as_secs_f64() * 1e3)
            .sum()
    }

    /// Total duration of the root spans (the end-to-end operations).
    pub fn roots_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur.as_secs_f64() * 1e3)
            .sum()
    }

    /// Total duration of the leaf spans (the layer calls).
    pub fn leaves_ms(&self) -> f64 {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        self.spans
            .iter()
            .zip(&has_child)
            .filter(|(_, &c)| !c)
            .map(|(s, _)| s.dur.as_secs_f64() * 1e3)
            .sum()
    }
}

/// Per-name sums of `obs` counter deltas over the traced calls.
#[derive(Default)]
pub struct CounterDeltas {
    sums: BTreeMap<&'static str, u64>,
}

/// The counters the per-layer metrics read.
pub const COUNTERS: &[&str] = &[
    "mine.candidates",
    "select.iterations",
    "select.refreshes",
    "select.rub_prunes",
    "greedy.candidates_seen",
    "greedy.qub_skips",
    "exact.nodes",
    "exact.rub_prunes",
    "exact.qub_prunes",
    "pool.tasks_spawned",
    "pool.tasks_stolen_worker",
    "pool.tasks_run_caller",
    "engine.fit_mine_ns",
];

impl CounterDeltas {
    /// Runs `f` and adds the counter movement it caused. The cold
    /// workloads have one client, so the movement is `f`'s alone.
    pub fn around<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = obs::snapshot();
        let out = f();
        let after = obs::snapshot();
        for &name in COUNTERS {
            let d = after.counter(name).saturating_sub(before.counter(name));
            *self.sums.entry(name).or_default() += d;
        }
        out
    }

    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0) as f64
    }
}
