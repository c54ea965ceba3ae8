//! Engine job-queue behaviour: N concurrent fits with mixed priorities
//! (one cancelled mid-run) must produce models **bit-identical** to serial
//! runs, and an Interactive job enqueued behind a wall of Batch jobs must
//! start before them. (The runtime crate's unit tests prove the raw
//! scheduling contract with a controlled gate; these tests prove it holds
//! end-to-end through `Engine::fit`.) Jobs that start from the engine's
//! shared empty-model state match the free functions that build their
//! own, field for field.

use twoview::core::TraceStep;
use twoview::data::synthetic::{self, StructureSpec, SyntheticSpec};
use twoview::prelude::*;

fn corpus(n: usize, seed: u64) -> TwoViewDataset {
    let spec = SyntheticSpec {
        name: format!("engine-jobs-{seed}"),
        n_transactions: n,
        n_left: 12,
        n_right: 10,
        density_left: 0.3,
        density_right: 0.3,
        structure: StructureSpec::strong(3),
        seed,
    };
    synthetic::generate(&spec).expect("valid spec").dataset
}

/// The mixed-priority concurrency property: submit a batch of fits (SELECT
/// at several k, GREEDY, EXACT) from multiple threads at alternating
/// priorities, cancel one mid-run, and require every completed job to be
/// bit-identical to the corresponding serial `*_candidates` run over the
/// engine's cached candidate set — and the engine to have re-mined nothing.
#[test]
fn concurrent_mixed_priority_fits_are_bit_identical_to_serial() {
    let d = corpus(400, 11);
    let engine = Engine::builder()
        .dataset(d.clone())
        .minsup(2)
        .job_executors(3)
        .build()
        .unwrap();
    let cands = engine.candidates().to_vec();
    assert!(!cands.is_empty());

    let select_ks = [1usize, 2, 3, 25];
    let algorithms: Vec<Algorithm> = select_ks
        .iter()
        .map(|&k| Algorithm::Select(SelectConfig::builder().k(k).minsup(2).build()))
        .chain([
            Algorithm::Greedy(GreedyConfig::builder().minsup(2).build()),
            Algorithm::Exact(
                ExactConfig::builder()
                    .max_nodes(20_000)
                    .max_rules(2)
                    .seed_minsup(Some(2))
                    .threads(2)
                    .build(),
            ),
        ])
        .collect();

    // Submit everything concurrently from one thread per job, priorities
    // alternating, plus one victim fit cancelled as soon as it starts.
    let (handles, victim) = std::thread::scope(|s| {
        let engine = &engine;
        let submitters: Vec<_> = algorithms
            .iter()
            .enumerate()
            .map(|(i, alg)| {
                let alg = alg.clone();
                s.spawn(move || {
                    let priority = if i % 2 == 0 {
                        Priority::Interactive
                    } else {
                        Priority::Batch
                    };
                    engine.fit_with(alg, priority)
                })
            })
            .collect();
        let victim = engine.fit(Algorithm::Select(SelectConfig::builder().minsup(2).build()));
        victim.wait_started();
        victim.cancel();
        let handles: Vec<_> = submitters.into_iter().map(|t| t.join().unwrap()).collect();
        (handles, victim)
    });

    // The cancelled job either wound down cooperatively (no partial model
    // exists anywhere) or raced to completion — in which case it too must
    // be bit-identical to serial.
    match victim.join() {
        Err(JobError::Cancelled) => {}
        Ok(model) => {
            let serial = twoview::core::select::translator_select_candidates(
                &d,
                &SelectConfig::builder().minsup(2).build(),
                &cands,
            );
            assert_eq!(model.table, serial.table, "raced-to-completion victim");
        }
        Err(other) => panic!("victim neither cancelled nor completed: {other:?}"),
    }

    for (alg, handle) in algorithms.iter().zip(handles) {
        let model = handle.join().unwrap_or_else(|e| {
            panic!("{} failed: {e}", alg.label());
        });
        let serial = match alg {
            Algorithm::Select(cfg) => {
                twoview::core::select::translator_select_candidates(&d, cfg, &cands)
            }
            Algorithm::Greedy(cfg) => {
                twoview::core::greedy::translator_greedy_candidates(&d, cfg, &cands)
            }
            Algorithm::Exact(cfg) => translator_exact_seeded(&d, cfg, &cands),
        };
        assert_eq!(model.table, serial.table, "{} differs", alg.label());
        assert!(
            (model.score.l_total - serial.score.l_total).abs() < 1e-9,
            "{} score differs",
            alg.label()
        );
    }

    let stats = engine.stats();
    assert_eq!(
        stats.fit_mine_ms, 0.0,
        "every fit must reuse the cached candidates (no re-mining)"
    );
    assert!(stats.fits_completed >= algorithms.len() as u64);
}

/// The scheduling property end-to-end: with a single executor occupied by
/// a long-running batch fit, an Interactive fit submitted *after* K Batch
/// fits must start before every one of them.
#[test]
fn interactive_fit_starts_before_earlier_batch_fits() {
    // A corpus large enough that the occupying fit is still running while
    // the rest of the submissions (microseconds) land in the queue.
    let d = corpus(600, 5);
    let engine = Engine::builder()
        .dataset(d)
        .minsup(2)
        .job_executors(1)
        .build()
        .unwrap();

    let occupier = engine.fit(Algorithm::Select(
        SelectConfig::builder().k(1).minsup(2).build(),
    ));
    let batch: Vec<_> = (0..4)
        .map(|_| {
            engine.fit_with(
                Algorithm::Select(SelectConfig::builder().k(2).minsup(2).build()),
                Priority::Batch,
            )
        })
        .collect();
    let interactive = engine.fit_with(
        Algorithm::Select(SelectConfig::builder().k(3).minsup(2).build()),
        Priority::Interactive,
    );

    occupier.join().unwrap();
    interactive.wait();
    let i_start = interactive
        .start_index()
        .expect("interactive fit must have started");
    interactive.join().unwrap();
    for (k, handle) in batch.into_iter().enumerate() {
        handle.wait();
        let b_start = handle.start_index().expect("batch fit must have started");
        assert!(
            i_start < b_start,
            "interactive started at {i_start}, batch job {k} at {b_start}"
        );
        handle.join().unwrap();
    }
}

fn score_bits(s: &ModelScore) -> ([u64; 5], [usize; 2]) {
    let lengths = [
        s.l_empty,
        s.l_total,
        s.l_table,
        s.l_correction_left,
        s.l_correction_right,
    ];
    (
        lengths.map(f64::to_bits),
        [s.correction_ones, s.total_cells],
    )
}

fn assert_same_model(served: &TranslatorModel, direct: &TranslatorModel, what: &str) {
    assert_eq!(served.table, direct.table, "{what}: table");
    assert_eq!(
        score_bits(&served.score),
        score_bits(&direct.score),
        "{what}: score"
    );
    assert_eq!(
        served.trace.len(),
        direct.trace.len(),
        "{what}: trace steps"
    );
    for (a, b) in served.trace.iter().zip(&direct.trace) {
        let lengths = |s: &TraceStep| {
            [
                s.gain,
                s.l_total,
                s.l_table,
                s.l_correction_left,
                s.l_correction_right,
            ]
        };
        let counts = |s: &TraceStep| {
            [
                s.rule_index,
                s.uncovered_left,
                s.uncovered_right,
                s.errors_left,
                s.errors_right,
            ]
        };
        assert_eq!(a.rule, b.rule, "{what}: step {}", a.rule_index);
        assert_eq!(
            lengths(a).map(f64::to_bits),
            lengths(b).map(f64::to_bits),
            "{what}: step {} lengths",
            a.rule_index
        );
        assert_eq!(counts(a), counts(b), "{what}: step {} counts", a.rule_index);
    }
    assert_eq!(
        (served.n_candidates, served.truncated),
        (direct.n_candidates, direct.truncated),
        "{what}: candidates"
    );
}

/// Served fits and scores start from the engine's one empty-model state
/// (base-minsup SELECT and EXACT also from its base gain table), which
/// the free functions build for themselves. Each served job must equal
/// its free function bit for bit: SELECT(1) at the base minsup, SELECT(25)
/// and GREEDY at twice the base, node-capped EXACT seeded at the base,
/// and `evaluate` of every fitted table.
#[test]
fn served_jobs_match_their_free_functions_bit_for_bit() {
    let d = corpus(400, 17);
    let base = 3;
    let engine = Engine::builder()
        .dataset(d.clone())
        .minsup(base)
        .build()
        .unwrap();
    let select1 = SelectConfig::builder().k(1).minsup(base).build();
    let select25 = SelectConfig::builder().k(25).minsup(2 * base).build();
    let greedy = GreedyConfig::builder().minsup(2 * base).build();
    let exact = ExactConfig::builder()
        .max_nodes(20_000)
        .max_rules(3)
        .seed_minsup(Some(base))
        .threads(2)
        .build();
    let fits = [
        Algorithm::Select(select1.clone()),
        Algorithm::Select(select25.clone()),
        Algorithm::Greedy(greedy.clone()),
        Algorithm::Exact(exact.clone()),
    ];
    // Submitted together, so the first jobs race for the shared state.
    let handles: Vec<_> = fits.iter().map(|a| engine.fit(a.clone())).collect();
    let served: Vec<TranslatorModel> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let direct = [
        translator_select(&d, &select1),
        translator_select(&d, &select25),
        translator_greedy(&d, &greedy),
        translator_exact_with(&d, &exact),
    ];
    for ((alg, served), direct) in fits.iter().zip(&served).zip(&direct) {
        assert!(
            !served.table.is_empty(),
            "{}: an empty table checks little",
            alg.label()
        );
        assert_same_model(served, direct, &alg.label());
    }
    let scores: Vec<_> = served
        .iter()
        .map(|m| engine.evaluate(m.table.clone()))
        .collect();
    for (model, score) in served.iter().zip(scores) {
        let score = score.join().unwrap();
        assert_eq!(
            score_bits(&score),
            score_bits(&evaluate_table(&d, &model.table)),
            "evaluate"
        );
        assert_eq!(
            score_bits(&score),
            score_bits(&model.score),
            "evaluate vs fit"
        );
    }
    assert_eq!(engine.stats().fit_mine_ms, 0.0, "every fit was served");
}
