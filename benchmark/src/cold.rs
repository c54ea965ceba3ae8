//! The cold workloads, `paper-cold` and `sparse-cold`: one analyst runs
//! `twoview fit` per cell (parse → mine → solve → encode → write) and then
//! `twoview stats` on the dataset, in a closed loop.

use std::time::{Duration, Instant};

use twoview_core::engine::Algorithm;
use twoview_data::corpus::PaperDataset;
use twoview_data::{ItemId, Tidset, TwoViewDataset};
use twoview_mining::CandidateSet;

use crate::fits::{self, Fitted};
use crate::inputs::{self, Input};
use crate::pins::Checker;
use crate::stats::{median, ms, percentile, ratio, Metrics};
use crate::trace::{CounterDeltas, Tracer};
use crate::{Opts, Outcome};

/// Parses of the whole input set `setup_s` takes the median of.
const SETUP_REPS: usize = 15;

/// One fit configuration on one input.
struct Cell {
    label: String,
    input: usize,
    alg: Algorithm,
}

/// The inputs and cells of one cold workload.
struct Plan {
    inputs: Vec<Input>,
    /// Each input's closed candidates at its minsup (untimed).
    candidates: Vec<CandidateSet>,
    cells: Vec<Cell>,
}

impl Plan {
    fn add_input(&mut self, opts: &Opts, name: &str, picked: inputs::Picked) -> usize {
        self.inputs.push(inputs::write_input(
            &opts.work,
            name,
            &picked.data,
            picked.minsup,
        ));
        self.candidates.push(picked.candidates);
        self.inputs.len() - 1
    }
}

fn paper_plan(opts: &Opts) -> Plan {
    let mut plan = Plan {
        inputs: Vec::new(),
        candidates: Vec::new(),
        cells: Vec::new(),
    };
    for (ds, family) in inputs::paper_families() {
        let picked = family.pick(opts.seed);
        let minsup = picked.minsup;
        let i = plan.add_input(opts, ds.name(), picked);
        let mut algs = vec![
            ("select1", fits::select(1, minsup)),
            ("select25", fits::select(25, minsup)),
            ("greedy", fits::greedy(minsup)),
        ];
        if PaperDataset::SMALL.contains(&ds) {
            algs.push(("exact", fits::exact()));
        }
        for (name, alg) in algs {
            plan.cells.push(Cell {
                label: format!("{}/{name}", ds.name()),
                input: i,
                alg,
            });
        }
    }
    plan
}

fn sparse_plan(opts: &Opts) -> Plan {
    let mut plan = Plan {
        inputs: Vec::new(),
        candidates: Vec::new(),
        cells: Vec::new(),
    };
    for family in inputs::sparse_families() {
        let (name, picked) = (family.name, family.pick(opts.seed));
        let minsup = picked.minsup;
        let i = plan.add_input(opts, name, picked);
        for (alg_name, alg) in [
            ("select1", fits::select(1, minsup)),
            ("select25", fits::select(25, minsup)),
            ("greedy", fits::greedy(minsup)),
        ] {
            plan.cells.push(Cell {
                label: format!("{name}/{alg_name}"),
                input: i,
                alg,
            });
        }
    }
    plan
}

/// Timings of one untraced pass, indexed like `Plan::cells`.
#[derive(Default)]
struct PassTimes {
    fit_ms: Vec<f64>,
    query_ms: Vec<f64>,
}

impl PassTimes {
    fn total_ms(&self) -> f64 {
        self.fit_ms.iter().sum::<f64>() + self.query_ms.iter().sum::<f64>()
    }
}

/// Each cell's fastest repetition across passes. The host's speed drifts
/// by about 20% over minutes; a cell's best repetition is the one least
/// disturbed by it, which keeps runs comparable.
fn best_per_cell(passes: &[PassTimes], pick: impl Fn(&PassTimes) -> &Vec<f64>) -> Vec<f64> {
    let n = pick(&passes[0]).len();
    (0..n)
        .map(|c| {
            passes
                .iter()
                .map(|p| pick(p)[c])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Checks a fit, the score of its written table (untimed) and the query.
fn check_cell(
    checker: &mut Checker,
    cell: &Cell,
    d: &TwoViewDataset,
    fitted: &Fitted,
    stats: [f64; 3],
) {
    checker.check(&cell.label, fits::fit_pin(&fitted.model, &fitted.written));
    checker.check(&format!("{}/stats", cell.label), fits::stats_pin(stats));
    let scored = fits::score(d, &fitted.written);
    if fits::encode_agrees(&fitted.model, &scored.1) {
        checker.check(
            &format!("{}/score", cell.label),
            fits::score_pin(scored.0, &scored.1),
        );
    } else {
        checker.fail(&format!("{}: re-encoded length differs", cell.label));
    }
}

fn untraced_pass(plan: &Plan, data: &[TwoViewDataset], checker: &mut Checker) -> PassTimes {
    let mut times = PassTimes::default();
    for cell in &plan.cells {
        let d = &data[cell.input];
        let start = Instant::now();
        let fitted = fits::one_shot(d, &cell.alg);
        times.fit_ms.push(ms(start.elapsed()));
        let start = Instant::now();
        let stats = fits::stats(d);
        times.query_ms.push(ms(start.elapsed()));
        check_cell(checker, cell, d, &fitted, stats);
    }
    eprintln!("  pass: {:.1} ms", times.total_ms());
    times
}

/// Per-layer totals of one traced pass.
struct TracedPass {
    tracer: Tracer,
    candidates: usize,
    /// The same cells untraced, each run just before its traced twin.
    untraced_ms: f64,
}

fn traced_pass(
    plan: &Plan,
    data: &[TwoViewDataset],
    checker: &mut Checker,
    counts: &mut CounterDeltas,
) -> TracedPass {
    let mut tr = Tracer::default();
    let mut candidates = 0;
    let mut untraced_ms = 0.0;
    for cell in &plan.cells {
        let d = &data[cell.input];
        let start = Instant::now();
        let fitted = fits::one_shot(d, &cell.alg);
        let stats = fits::stats(d);
        untraced_ms += ms(start.elapsed());
        check_cell(checker, cell, d, &fitted, stats);
        let (fitted, stats) = counts.around(|| {
            let root = tr.enter("fit");
            let mined: CandidateSet = tr.time("mining", || fits::mine(d, &cell.alg));
            let model = tr.time(fits::layer(&cell.alg), || fits::solve(d, &cell.alg, &mined));
            let written = tr.time("table_io.write", || fits::write(d, &model.table));
            tr.exit(root);
            candidates += mined.candidates.len();

            let root = tr.enter("query");
            let stats = tr.time("encode", || fits::stats(d));
            tr.exit(root);
            (Fitted { model, written }, stats)
        });
        check_cell(checker, cell, d, &fitted, stats);
    }
    TracedPass {
        tracer: tr,
        candidates,
        untraced_ms,
    }
}

/// Tidset representation counts over the dataset columns and the seed
/// tidsets of every candidate the cells mine.
#[derive(Default)]
pub struct TidsetMix {
    dense: usize,
    sparse: usize,
    runs: usize,
    bytes: usize,
}

impl TidsetMix {
    fn add(&mut self, t: &Tidset) {
        if t.is_runs() {
            self.runs += 1;
        } else if t.is_sparse() {
            self.sparse += 1;
        } else {
            self.dense += 1;
        }
        self.bytes += t.heap_bytes();
    }

    pub fn add_dataset(&mut self, d: &TwoViewDataset, cands: &[twoview_mining::TwoViewCandidate]) {
        for item in 0..d.vocab().n_items() as ItemId {
            self.add(d.tidset(item));
        }
        for c in cands {
            self.add(&d.support_set(&c.left));
            self.add(&d.support_set(&c.right));
        }
    }

    pub fn put(&self, m: &mut Metrics) {
        let total = (self.dense + self.sparse + self.runs) as f64;
        m.put(
            "data.tidset_dense_share",
            ratio(self.dense as f64, total),
            "ratio",
        );
        m.put(
            "data.tidset_sparse_share",
            ratio(self.sparse as f64, total),
            "ratio",
        );
        m.put(
            "data.tidset_runs_share",
            ratio(self.runs as f64, total),
            "ratio",
        );
        m.put("data.tidset_mb", self.bytes as f64 / 1e6, "MB");
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let plan = if opts.workload == "paper-cold" {
        paper_plan(opts)
    } else {
        sparse_plan(opts)
    };
    let mut checker = Checker::load(&opts.workload, opts.seed, opts.write_pins);

    // Set-up: parse every input, several times; the last parse is served.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut data = Vec::new();
    for _ in 0..SETUP_REPS {
        let (parsed, took) = inputs::parse_all(&plan.inputs);
        setup.push(took.as_secs_f64());
        data = parsed;
    }

    for ((input, d), cands) in plan.inputs.iter().zip(&data).zip(&plan.candidates) {
        inputs::describe(input, d, cands.candidates.len());
    }
    eprintln!(
        "{}: {} cells over {} inputs, pins {}",
        opts.workload,
        plan.cells.len(),
        plan.inputs.len(),
        if checker.has_pins() {
            "present"
        } else {
            "absent for this seed"
        }
    );

    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut metrics = Metrics::default();
    if opts.write_pins {
        untraced_pass(&plan, &data, &mut checker);
        checker.save().expect("write pins.tsv");
    } else if !opts.trace {
        let mut passes = Vec::new();
        while passes.is_empty() || start.elapsed() < budget {
            passes.push(untraced_pass(&plan, &data, &mut checker));
        }
        let fit_ms = best_per_cell(&passes, |p| &p.fit_ms);
        let query_ms = best_per_cell(&passes, |p| &p.query_ms);
        for ((cell, fit), query) in plan.cells.iter().zip(&fit_ms).zip(&query_ms) {
            eprintln!(
                "  {:<28} best fit {fit:>10.3} ms  query {query:>8.3} ms",
                cell.label
            );
        }
        eprintln!(
            "{} passes; metrics over each of the {} cells' best repetition",
            passes.len(),
            fit_ms.len()
        );
        let total_s = (fit_ms.iter().sum::<f64>() + query_ms.iter().sum::<f64>()) / 1e3;
        metrics.put("setup_s", median(&setup), "s");
        metrics.put("fit_ms.p50", median(&fit_ms), "ms");
        metrics.put("fit_ms.p90", percentile(&fit_ms, 0.9), "ms");
        metrics.put("fits_per_s", ratio(fit_ms.len() as f64, total_s), "1/s");
        metrics.put("query_ms.p50", median(&query_ms), "ms");
        metrics.put("query_ms.p90", percentile(&query_ms, 0.9), "ms");
        metrics.put("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
    } else {
        let mut traced = Vec::new();
        let mut counts = CounterDeltas::default();
        while traced.is_empty() || start.elapsed() < budget {
            traced.push(traced_pass(&plan, &data, &mut checker, &mut counts));
        }
        let per_pass = |f: &dyn Fn(&TracedPass) -> f64| -> f64 {
            median(&traced.iter().map(f).collect::<Vec<_>>())
        };
        let n_passes = traced.len() as f64;
        let parse_s = median(&setup);
        let bytes: u64 = plan.inputs.iter().map(|i| i.bytes).sum();
        metrics.put("data.parse_ms", parse_s * 1e3, "ms");
        metrics.put(
            "data.parse_mb_per_s",
            ratio(bytes as f64 / 1e6, parse_s),
            "MB/s",
        );
        let mut mix = TidsetMix::default();
        for (d, cands) in data.iter().zip(&plan.candidates) {
            mix.add_dataset(d, &cands.candidates);
        }
        mix.put(&mut metrics);

        let mine_ms = per_pass(&|p| p.tracer.total_ms("mining"));
        let cands = per_pass(&|p| p.candidates as f64);
        metrics.put("mining.mine_ms", mine_ms, "ms");
        metrics.put("mining.candidates", cands, "count");
        metrics.put("mining.candidates_per_ms", ratio(cands, mine_ms), "1/ms");
        put_solver_metrics(&mut metrics, &counts, n_passes, &|name| {
            per_pass(&|p| p.tracer.total_ms(name))
        });
        metrics.put(
            "encode.ms",
            per_pass(&|p| p.tracer.total_ms("encode")),
            "ms",
        );
        metrics.put(
            "table_io.write_ms",
            per_pass(&|p| p.tracer.total_ms("table_io.write")),
            "ms",
        );
        // No translate/predict queries, persistence, queue, engine or
        // open-loop generator on the cold path.
        for (name, unit) in [
            ("translate.ms", "ms"),
            ("predict.rows_per_ms", "1/ms"),
            ("persist.load_ms", "ms"),
            ("persist.save_ms", "ms"),
            ("persist.snapshot_mb", "MB"),
            ("jobs.queue_wait_ms.p50", "ms"),
            ("jobs.queue_wait_ms.p90", "ms"),
            ("jobs.run_ms.p50", "ms"),
            ("engine.fit_mine_ms", "ms"),
            ("jobs.retried", "count"),
            ("jobs.rejected", "count"),
            ("harness.late_ms.p90", "ms"),
        ] {
            metrics.put(name, 0.0, unit);
        }
        put_pool_metrics(&mut metrics, &counts, n_passes);
        // Each cell runs untraced and then traced back to back, so both
        // see the same host state.
        let untraced_ms = per_pass(&|p| p.untraced_ms);
        let leaves_ms = per_pass(&|p| p.tracer.leaves_ms());
        let roots_ms = per_pass(&|p| p.tracer.roots_ms());
        metrics.put("unattributed_ms", untraced_ms - leaves_ms, "ms");
        metrics.put(
            "trace_overhead_pct",
            100.0 * ratio(roots_ms - untraced_ms, untraced_ms),
            "%",
        );
    }
    Outcome::from_checker(metrics, &checker)
}

/// SELECT, GREEDY and EXACT metrics; `layer_ms(name)` is the time per
/// round spent in that solver layer, counters are per round.
pub fn put_solver_metrics(
    m: &mut Metrics,
    counts: &CounterDeltas,
    rounds: f64,
    layer_ms: &dyn Fn(&str) -> f64,
) {
    let per = |name: &str| counts.get(name) / rounds;
    m.put("select.ms", layer_ms("select"), "ms");
    m.put("select.iterations", per("select.iterations"), "count");
    let (refreshes, prunes) = (per("select.refreshes"), per("select.rub_prunes"));
    m.put("select.refreshes", refreshes, "count");
    m.put("select.rub_prunes", prunes, "count");
    m.put(
        "select.prune_ratio",
        ratio(prunes, prunes + refreshes),
        "ratio",
    );
    m.put("greedy.ms", layer_ms("greedy"), "ms");
    m.put(
        "greedy.qub_skip_ratio",
        ratio(per("greedy.qub_skips"), per("greedy.candidates_seen")),
        "ratio",
    );
    m.put("exact.ms", layer_ms("exact"), "ms");
    let nodes = per("exact.nodes");
    let exact_prunes = per("exact.rub_prunes") + per("exact.qub_prunes");
    m.put("exact.nodes", nodes, "count");
    m.put(
        "exact.prune_ratio",
        ratio(exact_prunes, exact_prunes + nodes),
        "ratio",
    );
}

/// Worker-pool metrics, per round.
pub fn put_pool_metrics(m: &mut Metrics, counts: &CounterDeltas, rounds: f64) {
    let tasks = counts.get("pool.tasks_spawned");
    m.put("pool.tasks", tasks / rounds, "count");
    m.put(
        "pool.stolen_share",
        ratio(counts.get("pool.tasks_stolen_worker"), tasks),
        "ratio",
    );
    m.put(
        "pool.caller_share",
        ratio(counts.get("pool.tasks_run_caller"), tasks),
        "ratio",
    );
}
