//! `serve-open`: one long-lived `Engine` over Adult, warm-started from a
//! snapshot, serving an open-loop stream of fits (writes) and queries
//! (reads) submitted on a fixed schedule by one generator thread.

use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use twoview_core::engine::{Algorithm, Engine};
use twoview_core::{persist, ModelScore, TranslationTable, TranslatorModel};
use twoview_data::corpus::PaperDataset;
use twoview_data::{Bitmap, Side, TwoViewDataset};
use twoview_runtime::{Deadline, JobError, JobHandle, JobTimings};

use crate::cold::{put_pool_metrics, put_solver_metrics};
use crate::fits;
use crate::inputs::{self, Input, Rng};
use crate::pins::Checker;
use crate::stats::{median, ms, percentile, ratio, Metrics};
use crate::trace::CounterDeltas;
use crate::{Opts, Outcome};

/// Out-of-sample rows every `predict` query carries.
pub const HELD_OUT: usize = 1000;
/// Parse + warm starts `setup_s` takes the median of.
const SETUP_REPS: usize = 7;
/// Offered load, operations per second (well below the engine's
/// capacity, so latency reflects the work more than the queue).
const RATE: f64 = 40.0;
/// Length of one open-loop window; a run is a series of windows.
const WINDOW: Duration = Duration::from_secs(10);
/// No operation may take longer than this; expiry counts as a failure.
const DEADLINE: Duration = Duration::from_secs(30);

/// The fit configurations and their count per block of `BLOCK` ops:
/// SELECT(1) at the base minsup is the clear majority; GREEDY and
/// SELECT(25) at twice the base share the rest.
fn fit_configs(base: usize) -> [(&'static str, usize, Algorithm); 3] {
    [
        ("fit/select1", 16, fits::select(1, base)),
        ("fit/greedy_2x", 2, fits::greedy(2 * base)),
        ("fit/select25_2x", 2, fits::select(25, 2 * base)),
    ]
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Query {
    Predict,
    TranslateLeft,
    TranslateRight,
    Evaluate,
}

/// Queries per block of `BLOCK` ops: `predict` on held-out rows is the
/// clear majority. The 90th percentile of query latency then falls
/// inside one kind (`evaluate`), not on the edge between two.
const QUERIES: [(Query, usize); 4] = [
    (Query::Predict, 50),
    (Query::TranslateLeft, 2),
    (Query::TranslateRight, 2),
    (Query::Evaluate, 6),
];

/// Ops per block: every block holds exactly the mix above, in a seeded
/// random order, so every window offers the same mix.
const BLOCK: usize = 80;

impl Query {
    fn label(self) -> &'static str {
        match self {
            Query::Predict => "predict",
            Query::TranslateLeft => "translate/left",
            Query::TranslateRight => "translate/right",
            Query::Evaluate => "evaluate",
        }
    }

    /// The layer the query's job body runs in.
    fn layer(self) -> &'static str {
        match self {
            Query::Predict => "predict",
            Query::TranslateLeft | Query::TranslateRight => "translate",
            Query::Evaluate => "encode",
        }
    }
}

/// One block of ops in a seeded random order (Fisher-Yates).
fn block(configs: &[(&'static str, usize, Algorithm); 3], rng: &mut Rng) -> Vec<Op> {
    let mut ops: Vec<Op> = configs
        .iter()
        .enumerate()
        .flat_map(|(i, c)| std::iter::repeat_n(i, c.1).map(Op::Fit))
        .chain(
            QUERIES
                .iter()
                .flat_map(|&(q, n)| std::iter::repeat_n(q, n).map(Op::Query)),
        )
        .collect();
    debug_assert_eq!(ops.len(), BLOCK);
    for i in (1..ops.len()).rev() {
        let j = ((rng.next_f64() * (i + 1) as f64) as usize).min(i);
        ops.swap(i, j);
    }
    ops
}

enum Op {
    Fit(usize),
    Query(Query),
}

enum Handle {
    Fit(JobHandle<TranslatorModel>),
    Rows(JobHandle<Vec<Bitmap>>),
    Score(JobHandle<ModelScore>),
}

enum Output {
    Model(TranslatorModel),
    Rows(Vec<Bitmap>),
    Score(ModelScore),
}

impl Handle {
    fn wait(&self) {
        match self {
            Handle::Fit(h) => h.wait(),
            Handle::Rows(h) => h.wait(),
            Handle::Score(h) => h.wait(),
        }
    }

    fn timings(&self) -> JobTimings {
        match self {
            Handle::Fit(h) => h.timings(),
            Handle::Rows(h) => h.timings(),
            Handle::Score(h) => h.timings(),
        }
    }

    fn join(self) -> Result<Output, JobError> {
        match self {
            Handle::Fit(h) => h.join().map(Output::Model),
            Handle::Rows(h) => h.join().map(Output::Rows),
            Handle::Score(h) => h.join().map(Output::Score),
        }
    }
}

/// One completed operation as the client saw it.
struct Done {
    op: Op,
    due: Instant,
    submitted: Instant,
    done: Instant,
    timings: JobTimings,
    result: Result<Output, JobError>,
}

/// What one open-loop window measured.
#[derive(Default)]
struct Window {
    fit_ms: Vec<f64>,
    query_ms: Vec<f64>,
    late_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    run_ms: Vec<f64>,
    /// `(layer, run ms)` of every job.
    layer_run_ms: Vec<(&'static str, f64)>,
    fits_done: usize,
    span_s: f64,
}

impl Window {
    fn layer_ms(&self, layer: &str) -> f64 {
        self.layer_run_ms
            .iter()
            .filter(|(l, _)| *l == layer)
            .map(|(_, v)| v)
            .sum()
    }

    fn e2e_ms(&self) -> f64 {
        self.fit_ms.iter().sum::<f64>() + self.query_ms.iter().sum::<f64>()
    }
}

/// Everything the served operations are checked against.
struct Serving<'a> {
    engine: &'a Engine,
    configs: &'a [(&'static str, usize, Algorithm); 3],
    table: &'a TranslationTable,
    held_out: &'a [Bitmap],
}

fn submit(s: &Serving<'_>, op: &Op) -> Handle {
    match *op {
        Op::Fit(i) => Handle::Fit(s.engine.fit(s.configs[i].2.clone())),
        Op::Query(q) => match q {
            Query::Predict => Handle::Rows(s.engine.predict(
                s.table.clone(),
                Side::Left,
                s.held_out.to_vec(),
            )),
            Query::TranslateLeft => Handle::Rows(s.engine.translate(s.table.clone(), Side::Left)),
            Query::TranslateRight => Handle::Rows(s.engine.translate(s.table.clone(), Side::Right)),
            Query::Evaluate => Handle::Score(s.engine.evaluate(s.table.clone())),
        },
    }
}

/// Checks one served output against the one-shot reference.
fn check_done(s: &Serving<'_>, checker: &mut Checker, op: &Op, result: Result<Output, JobError>) {
    let (label, output) = match op {
        Op::Fit(i) => (s.configs[*i].0, result),
        Op::Query(q) => (q.label(), result),
    };
    match output {
        Err(e) => checker.fail(&format!("{label}: {e:?}")),
        Ok(Output::Model(m)) => {
            let written = fits::write(s.engine.dataset(), &m.table);
            checker.check(label, fits::fit_pin(&m, &written));
        }
        Ok(Output::Rows(rows)) => {
            checker.check(label, fits::rows_pin(&rows));
        }
        Ok(Output::Score(score)) => {
            checker.check(label, fits::score_pin(s.table.len(), &score));
        }
    }
}

/// Runs the open loop for `len`, submitting on schedule from this thread;
/// one waiter thread per operation notes when its result can be joined.
fn window(s: &Serving<'_>, checker: &mut Checker, rng: &mut Rng, len: Duration) -> Window {
    let mut ops = Vec::new();
    let (tx, rx) = mpsc::channel::<Done>();
    let start = Instant::now();
    let mut out = Window::default();
    std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            let mut w = Window::default();
            let mut last = start;
            for d in rx {
                let lat = ms(d.done - d.due);
                let (wait, run) = (
                    d.timings.queue_wait.unwrap_or_default(),
                    d.timings.run.unwrap_or_default(),
                );
                w.late_ms.push(ms(d.submitted - d.due));
                w.queue_wait_ms.push(ms(wait));
                w.run_ms.push(ms(run));
                let layer = match &d.op {
                    Op::Fit(i) => fits::layer(&s.configs[*i].2),
                    Op::Query(q) => q.layer(),
                };
                w.layer_run_ms.push((layer, ms(run)));
                last = last.max(d.done);
                match d.op {
                    Op::Fit(_) => {
                        w.fit_ms.push(lat);
                        if d.result.is_ok() {
                            w.fits_done += 1;
                        }
                    }
                    Op::Query(_) => w.query_ms.push(lat),
                }
                check_done(s, checker, &d.op, d.result);
            }
            w.span_s = (last - start).as_secs_f64();
            w
        });
        let mut i = 0u64;
        loop {
            let due = start + Duration::from_secs_f64(i as f64 / RATE);
            if due - start >= len {
                break;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if ops.is_empty() {
                ops = block(s.configs, rng);
            }
            let op = ops.pop().expect("a block is never empty");
            let submitted = Instant::now();
            let handle = submit(s, &op);
            let tx = tx.clone();
            scope.spawn(move || {
                handle.wait();
                let done = Instant::now();
                let timings = handle.timings();
                let result = handle.join();
                // The collector outlives every waiter.
                let _ = tx.send(Done {
                    op,
                    due,
                    submitted,
                    done,
                    timings,
                    result,
                });
            });
            i += 1;
        }
        drop(tx);
        out = collector
            .join()
            .expect("the collector thread does not panic");
    });
    out
}

/// Parse both inputs and warm-start the engine from `snap_dir`.
fn start_engine(
    served: &Input,
    held: &Input,
    base: usize,
    snap_dir: &Path,
) -> (Engine, TwoViewDataset, Duration, Duration) {
    let t0 = Instant::now();
    let data = inputs::parse(served);
    let held_out = inputs::parse(held);
    let parse = t0.elapsed();
    let engine = Engine::builder()
        .dataset(data)
        .minsup(base)
        .threads(fits::THREADS)
        .snapshot_dir(snap_dir)
        .default_deadline(Deadline::total(DEADLINE))
        .build()
        .expect("the engine starts");
    (engine, held_out, parse, t0.elapsed())
}

pub fn run(opts: &Opts) -> Outcome {
    let base = PaperDataset::Adult.paper().minsup;
    let picked = inputs::adult_family(HELD_OUT).pick(opts.seed);
    let (_, held_data) = inputs::adult_split(picked.generator_seed, HELD_OUT);
    let served = inputs::write_input(&opts.work, "adult", &picked.data, base);
    let held = inputs::write_input(&opts.work, "adult-held-out", &held_data, base);
    drop((picked, held_data));
    let mut checker = Checker::load(&opts.workload, opts.seed, opts.write_pins);
    let configs = fit_configs(base);

    // Untimed preparation: a cold engine writes the snapshot the timed
    // set-up warm-starts from, and the one-shot path computes every
    // reference output.
    let snap_dir = opts.work.join("snapshot");
    std::fs::create_dir_all(&snap_dir).expect("create the snapshot directory");
    let data = inputs::parse(&served);
    let held_rows: Vec<Bitmap> = {
        let h = inputs::parse(&held);
        (0..h.n_transactions())
            .map(|t| h.row(Side::Left, t).clone())
            .collect()
    };
    {
        let cold = Engine::builder()
            .dataset(data.clone())
            .minsup(base)
            .threads(fits::THREADS)
            .snapshot_dir(&snap_dir)
            .build()
            .expect("the cold engine builds");
        inputs::describe(&served, &data, cold.candidates().len());
    }
    let mut table = TranslationTable::new();
    for (label, _, alg) in &configs {
        let fitted = fits::one_shot(&data, alg);
        checker.check(label, fits::fit_pin(&fitted.model, &fitted.written));
        if *label == "fit/select1" {
            table = fitted.model.table;
        }
    }
    let expected_rows = [
        (
            Query::TranslateLeft,
            twoview_core::translate::translate_view(&data, &table, Side::Left),
        ),
        (
            Query::TranslateRight,
            twoview_core::translate::translate_view(&data, &table, Side::Right),
        ),
        (
            Query::Predict,
            held_rows
                .iter()
                .map(|r| twoview_core::predict_row(&data, &table, Side::Left, r))
                .collect(),
        ),
    ];
    for (q, rows) in &expected_rows {
        checker.check(q.label(), fits::rows_pin(rows));
    }
    let score = twoview_core::evaluate_table(&data, &table);
    checker.check(
        Query::Evaluate.label(),
        fits::score_pin(table.len(), &score),
    );
    eprintln!(
        "serve-open: {} rules in the served table, pins {}",
        table.len(),
        if checker.has_pins() {
            "present"
        } else {
            "absent for this seed"
        }
    );
    if opts.write_pins {
        checker.save().expect("write pins.tsv");
        return Outcome::from_checker(Metrics::default(), &checker);
    }

    // Timed set-up: parse + warm start, several times; serve the last.
    let mut setup = Vec::new();
    let mut parse_s = Vec::new();
    let mut engine = None;
    let mut held_out = None;
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        let (e, h, parse, total) = start_engine(&served, &held, base, &snap_dir);
        if e.stats().snapshots_loaded != 1 {
            checker.fail("set-up did not warm-start from the snapshot");
        }
        parse_s.push(parse.as_secs_f64());
        setup.push(total.as_secs_f64());
        engine = Some(e);
        held_out = Some(h);
    }
    let engine = engine.expect("SETUP_REPS >= 1");
    let held_out: Vec<Bitmap> = {
        let h = held_out.expect("SETUP_REPS >= 1");
        (0..h.n_transactions())
            .map(|t| h.row(Side::Left, t).clone())
            .collect()
    };
    let serving = Serving {
        engine: &engine,
        configs: &configs,
        table: &table,
        held_out: &held_out,
    };
    let mut rng = Rng::new(inputs::mix(opts.seed ^ 0x5e17_e0fe));
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut metrics = Metrics::default();
    let before = engine.stats();

    let len = WINDOW.min(budget);
    let n_windows = ((opts.seconds / len.as_secs_f64()).round() as usize).max(1);
    if !opts.trace {
        let windows: Vec<Window> = (0..n_windows)
            .map(|_| window(&serving, &mut checker, &mut rng, len))
            .collect();
        // Each window's percentiles, then the quietest window's: the
        // host's speed drifts by about 20% over minutes, and the least
        // disturbed window keeps runs comparable.
        let best = |f: &dyn Fn(&Window) -> f64| -> f64 {
            windows.iter().map(f).fold(f64::INFINITY, f64::min)
        };
        for w in &windows {
            eprintln!(
                "  window: {} fits p50 {:.2} p90 {:.2} ms, {} queries p50 {:.3} p90 {:.3} ms",
                w.fit_ms.len(),
                median(&w.fit_ms),
                percentile(&w.fit_ms, 0.9),
                w.query_ms.len(),
                median(&w.query_ms),
                percentile(&w.query_ms, 0.9),
            );
        }
        metrics.put("setup_s", median(&setup), "s");
        metrics.put("fit_ms.p50", best(&|w| median(&w.fit_ms)), "ms");
        metrics.put("fit_ms.p90", best(&|w| percentile(&w.fit_ms, 0.9)), "ms");
        let rates: Vec<f64> = windows
            .iter()
            .map(|w| ratio(w.fits_done as f64, w.span_s))
            .collect();
        metrics.put("fits_per_s", median(&rates), "1/s");
        metrics.put("query_ms.p50", best(&|w| median(&w.query_ms)), "ms");
        metrics.put(
            "query_ms.p90",
            best(&|w| percentile(&w.query_ms, 0.9)),
            "ms",
        );
        metrics.put("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
    } else {
        // Untraced and traced windows alternate; the traced ones also
        // read the registry's counters around themselves.
        let mut untraced = Vec::new();
        let mut traced = Vec::new();
        let mut counts = CounterDeltas::default();
        for _ in 0..n_windows.div_ceil(2) {
            untraced.push(window(&serving, &mut checker, &mut rng, len));
            traced.push(counts.around(|| window(&serving, &mut checker, &mut rng, len)));
        }
        let rounds = traced.len() as f64;
        let per_window = |f: &dyn Fn(&Window) -> f64| -> f64 {
            median(&traced.iter().map(f).collect::<Vec<_>>())
        };
        let all = |f: &dyn Fn(&Window) -> &Vec<f64>| -> Vec<f64> {
            traced.iter().flat_map(|w| f(w).iter().copied()).collect()
        };

        let parse = median(&parse_s);
        metrics.put("data.parse_ms", parse * 1e3, "ms");
        metrics.put(
            "data.parse_mb_per_s",
            ratio((served.bytes + held.bytes) as f64 / 1e6, parse),
            "MB/s",
        );
        let mut mix = crate::cold::TidsetMix::default();
        mix.add_dataset(engine.dataset(), engine.candidates());
        mix.put(&mut metrics);
        // Mining must not run while serving.
        let mine_ms = counts.get("engine.fit_mine_ns") / 1e6 / rounds;
        let mined = counts.get("mine.candidates") / rounds;
        metrics.put("mining.mine_ms", mine_ms, "ms");
        metrics.put("mining.candidates", mined, "count");
        metrics.put("mining.candidates_per_ms", ratio(mined, mine_ms), "1/ms");
        put_solver_metrics(&mut metrics, &counts, rounds, &|layer| {
            per_window(&|w| w.layer_ms(layer))
        });
        metrics.put("encode.ms", per_window(&|w| w.layer_ms("encode")), "ms");
        metrics.put("table_io.write_ms", 0.0, "ms");
        metrics.put(
            "translate.ms",
            per_window(&|w| w.layer_ms("translate")),
            "ms",
        );
        let predicted: f64 = traced
            .iter()
            .map(|w| {
                w.layer_run_ms
                    .iter()
                    .filter(|(l, _)| *l == "predict")
                    .count()
            })
            .sum::<usize>() as f64
            * HELD_OUT as f64;
        let predict_ms: f64 = traced.iter().map(|w| w.layer_ms("predict")).sum();
        metrics.put("predict.rows_per_ms", ratio(predicted, predict_ms), "1/ms");

        // Persistence, timed by direct calls into the layer.
        let snap = snap_dir.join(persist::ENGINE_SNAPSHOT_FILE);
        let save = opts.work.join("save");
        std::fs::create_dir_all(&save).expect("create the save directory");
        let save_path = save.join(persist::ENGINE_SNAPSHOT_FILE);
        let mut load_ms = Vec::new();
        let mut save_ms = Vec::new();
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            let parts = persist::read_engine_snapshot(&snap, engine.dataset());
            load_ms.push(ms(t.elapsed()));
            if parts.is_err() {
                checker.fail("the snapshot does not load");
            }
            let t = Instant::now();
            let saved = engine.save_snapshot(&save_path);
            save_ms.push(ms(t.elapsed()));
            if saved.is_err() {
                checker.fail("the snapshot does not save");
            }
        }
        metrics.put("persist.load_ms", median(&load_ms), "ms");
        metrics.put("persist.save_ms", median(&save_ms), "ms");
        let snap_bytes = std::fs::metadata(&snap).map_or(0, |m| m.len());
        metrics.put("persist.snapshot_mb", snap_bytes as f64 / 1e6, "MB");

        let waits = all(&|w| &w.queue_wait_ms);
        metrics.put("jobs.queue_wait_ms.p50", median(&waits), "ms");
        metrics.put("jobs.queue_wait_ms.p90", percentile(&waits, 0.9), "ms");
        metrics.put("jobs.run_ms.p50", median(&all(&|w| &w.run_ms)), "ms");
        let after = engine.stats();
        metrics.put(
            "engine.fit_mine_ms",
            after.fit_mine_ms - before.fit_mine_ms,
            "ms",
        );
        metrics.put(
            "jobs.retried",
            (after.jobs_retried - before.jobs_retried) as f64,
            "count",
        );
        metrics.put(
            "jobs.rejected",
            (after.jobs_rejected - before.jobs_rejected) as f64,
            "count",
        );
        put_pool_metrics(&mut metrics, &counts, rounds);
        metrics.put(
            "harness.late_ms.p90",
            percentile(&all(&|w| &w.late_ms), 0.9),
            "ms",
        );
        // Time from due to joined that neither the generator's lateness,
        // the queue wait nor the job body accounts for.
        metrics.put(
            "unattributed_ms",
            per_window(&|w| {
                w.e2e_ms()
                    - w.late_ms.iter().sum::<f64>()
                    - w.queue_wait_ms.iter().sum::<f64>()
                    - w.run_ms.iter().sum::<f64>()
            }),
            "ms",
        );
        let p50 = |ws: &[Window]| {
            median(
                &ws.iter()
                    .flat_map(|w| w.fit_ms.iter().chain(&w.query_ms).copied())
                    .collect::<Vec<_>>(),
            )
        };
        let (t, u) = (p50(&traced), p50(&untraced));
        metrics.put("trace_overhead_pct", 100.0 * ratio(t - u, u), "%");
    }
    Outcome::from_checker(metrics, &checker)
}
