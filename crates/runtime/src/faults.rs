//! Deterministic fault injection for chaos testing.
//!
//! The serving stack's answers to real failures — "a seed-tidset warm
//! that runs out of memory budget degrades instead of erroring", "a
//! failed, torn or corrupt snapshot write is refused and healed by
//! re-mining" — are untestable unless the failures can be provoked on
//! demand, *repeatably*. This module threads named **fault points**
//! through the sites where those failures arise — the seed-tidset warm
//! and the snapshot write (see [`points`]) — each firing with a
//! configured probability drawn from a **seeded counter-based hash**, so
//! a given `(seed, point, hit-index)` triple always produces the same
//! decision: a chaos run is bit-reproducible, and a failure seen in CI
//! replays locally from the seed alone.
//!
//! # Configuration
//!
//! Plans are installed programmatically (tests and drills):
//!
//! ```
//! use twoview_runtime::faults::{self, FaultPlan};
//! faults::configure(FaultPlan::new().point("demo.fault", 1.0, 42));
//! assert!(faults::should_fire("demo.fault"));
//! faults::clear();
//! assert!(!faults::should_fire("demo.fault"));
//! ```
//!
//! A process that never calls [`configure`] never fires a fault.
//!
//! # Cost when disabled
//!
//! The harness is compiled in unconditionally, but the whole disabled
//! path is **one relaxed atomic load** — no lock, no hash, no branch on
//! configuration data. Every point is probed once per seed setup or
//! snapshot write, never inside a solver loop (`tests/engine_chaos.rs`
//! pins the hit counts of one fit of each algorithm).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::sync::PoisonTolerantMutex;

/// Names of the fault points wired through the workspace. Any string
/// works as a point name; these are the ones production code probes.
pub mod points {
    /// Seed-tidset cache warm reports failure, as when the tidsets
    /// outgrow their memory budget (callers degrade to the uncached
    /// recompute path instead of erroring).
    pub const CACHE_WARM_FAIL: &str = "cache.warm_fail";
    /// Snapshot write fails with an injected I/O error before any
    /// bytes reach disk (the temp file is never created).
    pub const SNAPSHOT_WRITE_FAIL: &str = "snapshot.write_fail";
    /// Snapshot write is torn: the file is truncated at a seeded
    /// offset, simulating a crash mid-write.
    pub const SNAPSHOT_TORN: &str = "snapshot.torn";
    /// Snapshot write is corrupted: a single bit at a seeded offset is
    /// flipped, simulating at-rest bit rot.
    pub const SNAPSHOT_CORRUPT: &str = "snapshot.corrupt";
}

/// Whether a non-empty plan is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Option<HashMap<String, PointState>>> = Mutex::new(None);

#[derive(Debug)]
struct PointState {
    probability: f64,
    seed: u64,
    /// Times this point was probed (the deterministic draw counter).
    hits: u64,
    /// Times the probe decided to fire.
    fired: u64,
}

/// A set of fault points with probabilities and seeds. Build one with
/// [`FaultPlan::point`], then install it with [`configure`].
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    entries: Vec<(String, f64, u64)>,
}

impl FaultPlan {
    /// An empty plan (installing it disables all faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or overrides) a fault point firing with `probability`
    /// (clamped to `[0, 1]`) under `seed`.
    pub fn point(mut self, name: &str, probability: f64, seed: u64) -> Self {
        self.entries
            .push((name.to_string(), probability.clamp(0.0, 1.0), seed));
        self
    }

    /// Whether the plan holds no points.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Installs `plan` process-wide, resetting all hit/fired counters.
/// An empty plan turns the harness off.
pub fn configure(plan: FaultPlan) {
    let mut registry = REGISTRY.plock();
    let enabled = !plan.is_empty();
    *registry = enabled.then(|| {
        plan.entries
            .into_iter()
            .map(|(name, probability, seed)| {
                let state = PointState {
                    probability,
                    seed,
                    hits: 0,
                    fired: 0,
                };
                (name, state)
            })
            .collect()
    });
    ENABLED.store(enabled, Ordering::Release);
}

/// Disables all fault points (equivalent to installing an empty plan).
pub fn clear() {
    configure(FaultPlan::new());
}

/// Whether any fault point is active: one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Probes fault point `point`: returns `true` when it should fire this
/// time. Deterministic in `(seed, point, hit index)` — the n-th probe
/// of a point under a given seed always returns the same answer,
/// regardless of thread interleaving elsewhere.
#[inline]
pub fn should_fire(point: &str) -> bool {
    if !enabled() {
        return false;
    }
    probe_slow(point).is_some()
}

/// Probes `point` like [`should_fire`], but when the point fires
/// returns the deterministic 64-bit draw behind the decision (`None`
/// when it does not fire). Fault sites use the value to derive seeded
/// *parameters* from the same counter-based stream — e.g. the offset
/// where a torn snapshot write truncates, or which bit a corruption
/// flips — so a chaos run's damage pattern replays from the seed alone.
#[inline]
pub fn fire_value(point: &str) -> Option<u64> {
    if !enabled() {
        return None;
    }
    probe_slow(point)
}

#[cold]
fn probe_slow(point: &str) -> Option<u64> {
    let mut registry = REGISTRY.plock();
    let map = registry.as_mut()?;
    let state = map.get_mut(point)?;
    let hit = state.hits;
    state.hits += 1;
    let draw = draw_u64(state.seed, point, hit);
    let fire = if state.probability >= 1.0 {
        true
    } else if state.probability <= 0.0 {
        false
    } else {
        to_fraction(draw) < state.probability
    };
    if fire {
        state.fired += 1;
        Some(draw)
    } else {
        None
    }
}

/// How many times `point` has fired since the last [`configure`].
pub fn fired(point: &str) -> u64 {
    REGISTRY
        .plock()
        .as_ref()
        .and_then(|map| map.get(point))
        .map_or(0, |state| state.fired)
}

/// `(point, hits, fired)` for every configured point, sorted by name.
pub fn snapshot() -> Vec<(String, u64, u64)> {
    let registry = REGISTRY.plock();
    let mut rows: Vec<_> = registry
        .as_ref()
        .map(|map| {
            map.iter()
                .map(|(name, s)| (name.clone(), s.hits, s.fired))
                .collect()
        })
        .unwrap_or_default();
    rows.sort();
    rows
}

/// Counter-based deterministic draw: splitmix64 over the seed, an
/// FNV-1a hash of the point name, and the hit index.
fn draw_u64(seed: u64, point: &str, hit: u64) -> u64 {
    let mut x = seed ^ fnv1a(point.as_bytes()) ^ hit.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // splitmix64 finalizer.
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

fn to_fraction(draw: u64) -> f64 {
    (draw >> 11) as f64 / (1u64 << 53) as f64
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    // Unit tests use only synthetic point names so concurrent tests in
    // other modules (which probe real points) cannot interfere; tests
    // that install plans serialise on a local mutex because the
    // registry is process-global.
    use super::*;

    static EXCLUSIVE: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_by_default_and_after_clear() {
        let _guard = EXCLUSIVE.plock();
        clear();
        assert!(!enabled());
        assert!(!should_fire("unit.synthetic.never"));
    }

    #[test]
    fn certain_fault_always_fires_and_counts() {
        let _guard = EXCLUSIVE.plock();
        configure(FaultPlan::new().point("unit.synthetic.sure", 1.0, 7));
        for _ in 0..5 {
            assert!(should_fire("unit.synthetic.sure"));
        }
        assert!(!should_fire("unit.synthetic.other"));
        assert_eq!(fired("unit.synthetic.sure"), 5);
        let snap = snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0], ("unit.synthetic.sure".to_string(), 5, 5));
        clear();
    }

    #[test]
    fn draws_are_deterministic_in_seed_and_hit_index() {
        let _guard = EXCLUSIVE.plock();
        let sequence = |seed: u64| -> Vec<bool> {
            configure(FaultPlan::new().point("unit.synthetic.prob", 0.3, seed));
            (0..64)
                .map(|_| should_fire("unit.synthetic.prob"))
                .collect()
        };
        let a = sequence(42);
        let b = sequence(42);
        let c = sequence(43);
        assert_eq!(a, b, "same seed must reproduce the same decisions");
        assert_ne!(a, c, "different seeds should diverge");
        let hits = a.iter().filter(|&&f| f).count();
        assert!(hits > 0 && hits < 64, "p=0.3 over 64 draws: got {hits}");
        clear();
    }

    #[test]
    fn fire_value_is_deterministic_and_gated() {
        let _guard = EXCLUSIVE.plock();
        clear();
        assert_eq!(fire_value("unit.synthetic.value"), None);
        let draws = |seed: u64| -> Vec<Option<u64>> {
            configure(FaultPlan::new().point("unit.synthetic.value", 1.0, seed));
            (0..8).map(|_| fire_value("unit.synthetic.value")).collect()
        };
        let a = draws(11);
        let b = draws(11);
        let c = draws(12);
        assert_eq!(a, b, "same seed must reproduce the same draw values");
        assert_ne!(a, c, "different seeds should diverge");
        assert!(a.iter().all(|v| v.is_some()), "p=1.0 always fires");
        let distinct: std::collections::HashSet<_> = a.iter().flatten().collect();
        assert!(distinct.len() > 1, "hit index must vary the draw");
        configure(FaultPlan::new().point("unit.synthetic.value", 0.0, 11));
        assert_eq!(fire_value("unit.synthetic.value"), None);
        clear();
    }

    #[test]
    fn probability_is_roughly_honoured() {
        let _guard = EXCLUSIVE.plock();
        configure(FaultPlan::new().point("unit.synthetic.rate", 0.5, 9));
        let fired_count = (0..1000)
            .filter(|_| should_fire("unit.synthetic.rate"))
            .count();
        assert!(
            (350..=650).contains(&fired_count),
            "p=0.5 over 1000 draws fired {fired_count}"
        );
        clear();
    }
}
