//! The seeded serving storm shared by `engine_chaos.rs` and
//! `obs_trace.rs`: every failure the engine answers, provoked on one
//! engine at once.
//!
//! * a seed-tidset warm that always fails (`cache.warm_fail` at 1.0), so
//!   every base-minsup SELECT fit takes the degraded path;
//! * custom jobs with panicking bodies on `engine.queue()`, between the
//!   fits (panic containment);
//! * seeded cancellations and zero queue-wait deadlines;
//! * one-slot lanes, and one submission that a full lane turns away.
//!
//! Every choice comes from `TWOVIEW_CHAOS_SEED`. The storm checks each
//! handle as it resolves: within [`JOIN_BOUND`], every `Ok` fit
//! bit-identical to the fault-free model, `Panicked` only from the custom
//! jobs. Afterwards the queue must drain clean.

use std::sync::mpsc;
use std::time::Duration;

use twoview::prelude::*;
use twoview::runtime::faults::{self, points, FaultPlan};
use twoview::runtime::obs::MetricsSnapshot;

/// How long any one handle may take to resolve.
pub const JOIN_BOUND: Duration = Duration::from_secs(120);

/// Seeded operations after the fixed opening.
const STORM_OPS: usize = 16;

/// The message every custom job panics with.
const PANIC_MSG: &str = "chaos: custom job body panicked";

pub fn chaos_seed() -> u64 {
    std::env::var("TWOVIEW_CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(1)
}

/// What a storm operation is, and so how its handle may resolve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// A plain fit: `Ok`.
    Fit,
    /// A fit cancelled right after submission: `Cancelled`, or `Ok` if
    /// it raced to completion.
    Cancelled,
    /// A fit that may not wait in its lane at all: `DeadlineExceeded`.
    ZeroWait,
    /// A fit submitted to a full lane: `Rejected`.
    Turned,
    /// A custom job whose body panics: `Panicked`.
    Panicking,
}

/// How the storm's handles resolved.
#[derive(Debug, Default)]
pub struct Tally {
    /// Jobs submitted on `engine.queue()`, which `jobs_submitted` does
    /// not count.
    pub custom_jobs: u64,
    pub ok_fits: u64,
    pub cancelled: u64,
    pub timed_out: u64,
    pub rejected: u64,
    pub panicked: u64,
}

impl Tally {
    /// The engine's own counters must match what its handles reported.
    pub fn check(&self, stats: &EngineStats) {
        println!(
            "chaos storm: {} ok fits, {} cancelled, {} timed out, {} rejected, \
             {} panicked, {} custom jobs, {} degraded",
            self.ok_fits,
            self.cancelled,
            self.timed_out,
            self.rejected,
            self.panicked,
            self.custom_jobs,
            stats.fits_degraded
        );
        assert_eq!(stats.fits_completed, self.ok_fits, "{self:?}");
        assert_eq!(stats.jobs_timed_out, self.timed_out, "{self:?}");
        assert_eq!(stats.jobs_rejected, self.rejected, "{self:?}");
        assert_eq!(stats.jobs_retried, 0);
        assert!(!stats.seed_cache_warm, "the warm was made to fail");
        assert!(
            stats.fits_degraded >= 1,
            "base-minsup SELECT fits must have taken the degraded path"
        );
        assert_eq!(self.rejected, 1, "only the opening's lane is ever full");
        assert!(self.panicked >= 1 && self.timed_out >= 1, "{self:?}");
    }
}

/// `EngineStats` is a view over the registry cells `obs::snapshot`
/// reads: over the storm, the two agree on every counter they share.
pub fn check_registry(before: &MetricsSnapshot, after: &MetricsSnapshot, stats: &EngineStats) {
    let delta = |name: &str| after.counter(name) - before.counter(name);
    for (name, view) in [
        ("engine.fits_degraded", stats.fits_degraded),
        ("engine.fits_completed", stats.fits_completed),
        ("engine.jobs_submitted", stats.jobs_submitted),
        ("queue.jobs_rejected", stats.jobs_rejected),
        ("queue.jobs_timed_out", stats.jobs_timed_out),
    ] {
        assert_eq!(delta(name), view, "registry delta vs EngineStats: {name}");
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn submit_panicking(engine: &Engine, priority: Priority) -> JobHandle<TranslatorModel> {
    engine
        .queue()
        .submit(priority, |_ctx| -> Result<TranslatorModel, JobError> {
            panic!("{PANIC_MSG}")
        })
}

/// Runs the storm on a fresh engine over `d` (minsup 2, three executors,
/// one-slot lanes) and returns the engine with faults cleared.
pub fn run(d: &TwoViewDataset, seed: u64) -> (Engine, Tally) {
    // Fault-free references, computed before any fault is configured.
    faults::clear();
    let clean = Engine::builder()
        .dataset(d.clone())
        .minsup(2)
        .build()
        .unwrap();
    let cands = clean.candidates().to_vec();
    assert!(!cands.is_empty());
    drop(clean);
    let select_cfgs: Vec<SelectConfig> = (1..=3)
        .map(|k| SelectConfig::builder().k(k).minsup(2).build())
        .collect();
    let greedy_cfg = GreedyConfig::builder().minsup(2).build();
    let mut refs: Vec<TranslatorModel> = select_cfgs
        .iter()
        .map(|cfg| twoview::core::select::translator_select_candidates(d, cfg, &cands))
        .collect();
    refs.push(twoview::core::greedy::translator_greedy_candidates(
        d,
        &greedy_cfg,
        &cands,
    ));
    let alg = |which: usize| match select_cfgs.get(which) {
        Some(cfg) => Algorithm::Select(cfg.clone()),
        None => Algorithm::Greedy(greedy_cfg.clone()),
    };

    faults::configure(FaultPlan::new().point(points::CACHE_WARM_FAIL, 1.0, seed));
    let engine = Engine::builder()
        .dataset(d.clone())
        .minsup(2)
        .job_executors(3)
        .lane_capacity(1)
        .build()
        .unwrap();
    let mut tally = Tally::default();
    let mut jobs: Vec<(Kind, usize, JobHandle<TranslatorModel>)> = Vec::new();

    // Opening: hold every executor on a gated custom job. A fit that may
    // not wait then fills the one-slot batch lane, the next batch fit is
    // turned away, and a panicking job queues in the interactive lane.
    let mut gates = Vec::new();
    let mut blockers = Vec::new();
    for _ in 0..engine.job_executors() {
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let blocker = engine.queue().submit(Priority::Batch, move |_ctx| {
            gate_rx.recv().ok();
            Ok(())
        });
        blocker.wait_started();
        gates.push(gate_tx);
        blockers.push(blocker);
    }
    tally.custom_jobs += blockers.len() as u64;
    let zero_wait = Deadline::queue_wait(Duration::ZERO);
    jobs.push((
        Kind::ZeroWait,
        0,
        engine.fit_opts(alg(0), Priority::Batch, zero_wait),
    ));
    jobs.push((Kind::Turned, 1, engine.fit_with(alg(1), Priority::Batch)));
    jobs.push((
        Kind::Panicking,
        0,
        submit_panicking(&engine, Priority::Interactive),
    ));
    tally.custom_jobs += 1;
    drop(gates);
    for blocker in blockers {
        blocker
            .join_timeout(JOIN_BOUND)
            .unwrap_or_else(|_| panic!("blocker hung past {JOIN_BOUND:?}"))
            .expect("blocker completes");
    }
    for (_, _, handle) in &jobs {
        handle.wait_started();
    }

    // Seeded storm. Each job is submitted once the one before it has left
    // its lane, so up to three run at once and no lane is ever full.
    let mut rng = seed;
    for i in 0..STORM_OPS {
        let draw = splitmix(&mut rng);
        let which = (draw % 4) as usize;
        let priority = if (draw >> 8) & 1 == 0 {
            Priority::Interactive
        } else {
            Priority::Batch
        };
        let kind = match (i, (draw >> 16) % 8) {
            (0, _) | (_, 0..=3) => Kind::Fit,
            (_, 4 | 5) => Kind::Cancelled,
            (_, 6) => Kind::ZeroWait,
            _ => Kind::Panicking,
        };
        let handle = match kind {
            Kind::ZeroWait => engine.fit_opts(alg(which), priority, zero_wait),
            Kind::Panicking => {
                tally.custom_jobs += 1;
                submit_panicking(&engine, priority)
            }
            _ => engine.fit_with(alg(which), priority),
        };
        if kind == Kind::Cancelled {
            handle.cancel();
        }
        handle.wait_started();
        jobs.push((kind, which, handle));
    }

    for (kind, which, handle) in jobs {
        let result = handle
            .join_timeout(JOIN_BOUND)
            .unwrap_or_else(|_| panic!("{kind:?} handle hung past {JOIN_BOUND:?}"));
        match (kind, result) {
            (Kind::Fit | Kind::Cancelled, Ok(model)) => {
                let reference = &refs[which];
                assert_eq!(
                    model.table, reference.table,
                    "fit {which} differs from the fault-free model"
                );
                assert_eq!(
                    model.score.l_total.to_bits(),
                    reference.score.l_total.to_bits()
                );
                tally.ok_fits += 1;
            }
            (Kind::Cancelled, Err(JobError::Cancelled)) => tally.cancelled += 1,
            (Kind::ZeroWait, Err(JobError::DeadlineExceeded)) => tally.timed_out += 1,
            (Kind::Turned, Err(JobError::Rejected)) => tally.rejected += 1,
            (Kind::Panicking, Err(JobError::Panicked(msg))) if msg.contains(PANIC_MSG) => {
                tally.panicked += 1
            }
            (kind, other) => panic!(
                "{kind:?} job resolved to {:?}",
                other.map(|model| model.table.len())
            ),
        }
    }

    // The queue drains clean: faults off, one more fit and one more
    // custom job, on executors that have contained every panic above.
    faults::clear();
    let model = engine
        .fit(alg(0))
        .join_timeout(JOIN_BOUND)
        .expect("drain fit resolves")
        .expect("drain fit succeeds");
    assert_eq!(model.table, refs[0].table);
    tally.ok_fits += 1;
    let custom = engine
        .queue()
        .submit(Priority::Batch, |_ctx| Ok(7))
        .join_timeout(JOIN_BOUND)
        .expect("drain job resolves")
        .expect("drain job succeeds");
    assert_eq!(custom, 7);
    tally.custom_jobs += 1;
    (engine, tally)
}
