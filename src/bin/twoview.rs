//! `twoview` — command-line interface to the library.
//!
//! ```text
//! twoview generate <dataset> [--rows N] [--out data.2v]
//! twoview stats    <data.2v> [--metrics]
//! twoview fit      <data.2v> [--method select|greedy|exact] [--k K]
//!                  [--minsup M] [--retries N] [--timeout-ms T]
//!                  [--snapshot-dir DIR] [--trace trace.jsonl] [--quiet]
//!                  [--out rules.txt]
//! twoview score    <data.2v> <rules.txt>
//! twoview translate <data.2v> <rules.txt> [--from left|right] [--limit N]
//! twoview snapshot --inspect <file.snap>
//! ```
//!
//! Persistence: `fit --snapshot-dir DIR` warm-starts the serving Engine
//! from `DIR/engine.snap` when a valid snapshot is present (falling back
//! to mining on any damage or mismatch) and writes one back after a cold
//! build; `snapshot --inspect FILE` prints a JSON integrity report
//! (header, per-section checksums, identity) without requiring the file
//! to be valid.
//!
//! Observability: `--trace <path>` streams a JSON-lines span/event trace
//! of the run to `path` (equivalent to setting `TWOVIEW_TRACE`); `stats
//! --metrics` runs a fit and prints the process metric registry as JSON;
//! `--quiet` routes informational chatter to stderr so stdout carries
//! only the model (or metrics JSON) — traces never interleave with model
//! output because they go to their own file.

#![forbid(unsafe_code)]

use std::fs::File;
use std::process::ExitCode;

use twoview::core::{table_io, translate};
use twoview::data::corpus::PaperDataset;
use twoview::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  twoview generate <dataset> [--rows N] [--out data.2v]
  twoview stats    <data.2v> [--metrics] [--method select|greedy|exact]
                   [--k K] [--minsup M]
  twoview fit      <data.2v> [--method select|greedy|exact] [--k K] [--minsup M]
                   [--retries N] [--timeout-ms T] [--snapshot-dir DIR]
                   [--trace trace.jsonl] [--quiet] [--out rules.txt]
  twoview score    <data.2v> <rules.txt>
  twoview translate <data.2v> <rules.txt> [--from left|right] [--limit N]
  twoview snapshot --inspect <file.snap>

persistence: fit --snapshot-dir DIR warm-starts the Engine from
DIR/engine.snap when a valid, matching snapshot exists (any damage,
version skew or dataset mismatch falls back to mining; never an error)
and saves one after a cold build; snapshot --inspect FILE prints a JSON
integrity report of a snapshot file (works on damaged files too).

fit robustness: --retries N re-runs a transiently failing fit up to N extra
times (deterministic exponential backoff); --timeout-ms T bounds the fit's
total time (an expired fit reports 'deadline exceeded', never a partial
model). Either flag routes the fit through the serving Engine and prints
its robustness counters.

observability: fit --trace PATH streams a JSON-lines span/event trace of
the run to PATH (same as TWOVIEW_TRACE=PATH); stats --metrics runs a fit
through the Engine and prints the metric-registry snapshot as JSON on
stdout; --quiet sends informational chatter to stderr so stdout carries
only the model / metrics payload.

datasets: abalone adult cal500 car chesskrvk crime elections emotions
          house mammals nursery tictactoe wine yeast";

struct Flags {
    positional: Vec<String>,
    rows: Option<usize>,
    out: Option<String>,
    method: String,
    k: usize,
    minsup: Option<usize>,
    retries: Option<u32>,
    timeout_ms: Option<u64>,
    trace: Option<String>,
    snapshot_dir: Option<String>,
    inspect: Option<String>,
    quiet: bool,
    metrics: bool,
    from: Side,
    limit: usize,
}

impl Flags {
    /// Informational output: stdout normally, stderr under `--quiet` so
    /// stdout carries only the model / metrics payload.
    fn info(&self, line: std::fmt::Arguments<'_>) {
        if self.quiet {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, Error> {
    let mut f = Flags {
        positional: Vec::new(),
        rows: None,
        out: None,
        method: "select".into(),
        k: 1,
        minsup: None,
        retries: None,
        timeout_ms: None,
        trace: None,
        snapshot_dir: None,
        inspect: None,
        quiet: false,
        metrics: false,
        from: Side::Left,
        limit: 10,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<String, Error> {
            it.next()
                .cloned()
                .ok_or_else(|| Error::config(format!("{name} needs a value")))
        };
        match a.as_str() {
            "--rows" => {
                f.rows = Some(
                    value("--rows")?
                        .parse()
                        .map_err(|e| Error::config(format!("--rows: {e}")))?,
                )
            }
            "--out" => f.out = Some(value("--out")?),
            "--method" => f.method = value("--method")?,
            "--k" => {
                f.k = value("--k")?
                    .parse()
                    .map_err(|e| Error::config(format!("--k: {e}")))?
            }
            "--minsup" => {
                f.minsup = Some(
                    value("--minsup")?
                        .parse()
                        .map_err(|e| Error::config(format!("--minsup: {e}")))?,
                )
            }
            "--retries" => {
                f.retries = Some(
                    value("--retries")?
                        .parse()
                        .map_err(|e| Error::config(format!("--retries: {e}")))?,
                )
            }
            "--timeout-ms" => {
                f.timeout_ms = Some(
                    value("--timeout-ms")?
                        .parse()
                        .map_err(|e| Error::config(format!("--timeout-ms: {e}")))?,
                )
            }
            "--trace" => f.trace = Some(value("--trace")?),
            "--snapshot-dir" => f.snapshot_dir = Some(value("--snapshot-dir")?),
            "--inspect" => f.inspect = Some(value("--inspect")?),
            "--quiet" => f.quiet = true,
            "--metrics" => f.metrics = true,
            "--from" => {
                f.from = match value("--from")?.as_str() {
                    "left" => Side::Left,
                    "right" => Side::Right,
                    other => {
                        return Err(Error::config(format!(
                            "--from must be left|right, got {other}"
                        )))
                    }
                }
            }
            "--limit" => {
                f.limit = value("--limit")?
                    .parse()
                    .map_err(|e| Error::config(format!("--limit: {e}")))?
            }
            other if other.starts_with("--") => {
                return Err(Error::config(format!("unknown flag {other}")))
            }
            other => f.positional.push(other.to_string()),
        }
    }
    Ok(f)
}

/// Parses a `.2v` file inside a `data.parse` span that records the file's
/// `bytes` and the parsed `rows`.
fn load(path: &str) -> Result<TwoViewDataset, Error> {
    let mut span = twoview::runtime::obs::span("data.parse");
    let file = File::open(path).map_err(|e| Error::config(format!("open {path}: {e}")))?;
    if let Ok(meta) = file.metadata() {
        span.field("bytes", meta.len());
    }
    let data = twoview::data::io::read_dataset(file)?;
    span.field("rows", data.n_transactions());
    Ok(data)
}

fn algorithm_from(flags: &Flags, minsup: usize) -> Result<Algorithm, Error> {
    match flags.method.as_str() {
        "select" => Ok(Algorithm::Select(
            SelectConfig::builder().k(flags.k).minsup(minsup).build(),
        )),
        "greedy" => Ok(Algorithm::Greedy(
            GreedyConfig::builder().minsup(minsup).build(),
        )),
        "exact" => Ok(Algorithm::Exact(ExactConfig {
            max_nodes: Some(20_000_000),
            ..ExactConfig::default()
        })),
        other => Err(Error::config(format!(
            "unknown method {other} (select|greedy|exact)"
        ))),
    }
}

fn run(args: &[String]) -> Result<(), Error> {
    let Some(cmd) = args.first() else {
        return Err(Error::config("missing command"));
    };
    let flags = parse_flags(&args[1..])?;
    match cmd.as_str() {
        "generate" => {
            let name = flags
                .positional
                .first()
                .ok_or_else(|| Error::config("generate needs a dataset name"))?;
            let ds = PaperDataset::by_name(name)
                .ok_or_else(|| Error::config(format!("unknown dataset {name:?}")))?;
            let data = ds.generate_scaled(flags.rows.unwrap_or(usize::MAX)).dataset;
            let path = flags
                .out
                .unwrap_or_else(|| format!("{}.2v", name.to_ascii_lowercase()));
            let file =
                File::create(&path).map_err(|e| Error::config(format!("create {path}: {e}")))?;
            twoview::data::io::write_dataset(&data, file)?;
            println!(
                "wrote {path}: {} transactions, {}+{} items",
                data.n_transactions(),
                data.vocab().n_left(),
                data.vocab().n_right()
            );
            Ok(())
        }
        "stats" => {
            let path = flags
                .positional
                .first()
                .ok_or_else(|| Error::config("stats needs a .2v file"))?;
            let data = load(path)?;
            if flags.metrics {
                // Run one fit through the serving Engine and print the
                // process metric registry as JSON (the exact payload a
                // /metrics endpoint would serve). Only the JSON goes to
                // stdout; the fit summary is informational.
                let minsup = flags.minsup.unwrap_or(1);
                let algorithm = algorithm_from(&flags, minsup)?;
                let engine = twoview::Engine::builder()
                    .dataset(data)
                    .minsup(minsup)
                    .build()?;
                let model = engine.fit(algorithm).join()?;
                flags.info(format_args!(
                    "fitted {} rules, L% = {:.2}",
                    model.table.len(),
                    model.compression_pct()
                ));
                println!("{}", twoview::runtime::obs::snapshot().to_json());
                return Ok(());
            }
            let codes = CodeLengths::new(&data);
            println!("name       : {}", data.name());
            println!("|D|        : {}", data.n_transactions());
            println!(
                "|IL|, |IR| : {}, {}",
                data.vocab().n_left(),
                data.vocab().n_right()
            );
            println!(
                "density    : {:.3} / {:.3}",
                data.density(Side::Left),
                data.density(Side::Right)
            );
            println!("L(D,0)     : {:.0} bits", codes.empty_model(&data));
            Ok(())
        }
        "fit" => {
            let path = flags
                .positional
                .first()
                .ok_or_else(|| Error::config("fit needs a .2v file"))?;
            // Open the sink first, so the trace holds the parse too.
            if let Some(trace_path) = &flags.trace {
                twoview::runtime::obs::trace_to_path(trace_path)
                    .map_err(|e| Error::config(format!("open trace {trace_path}: {e}")))?;
            }
            let data = load(path)?;
            let minsup = flags.minsup.unwrap_or(1);
            let algorithm = algorithm_from(&flags, minsup)?;
            let robust = flags.retries.is_some() || flags.timeout_ms.is_some();
            let model = if robust || flags.snapshot_dir.is_some() {
                // Robustness / persistence flags route through the
                // serving Engine: retries, deadlines and snapshots are
                // engine-layer features.
                let mut builder = twoview::Engine::builder()
                    .dataset(data.clone())
                    .minsup(minsup)
                    .retry_policy(twoview::RetryPolicy::new(
                        flags.retries.unwrap_or(0) + 1,
                        std::time::Duration::from_millis(50),
                    ));
                if let Some(ms) = flags.timeout_ms {
                    builder = builder.default_deadline(twoview::Deadline::total(
                        std::time::Duration::from_millis(ms),
                    ));
                }
                if let Some(dir) = &flags.snapshot_dir {
                    builder = builder.snapshot_dir(dir);
                }
                let engine = builder.build()?;
                let handle = engine.fit(algorithm);
                let model = handle.join()?;
                let stats = engine.stats();
                if flags.snapshot_dir.is_some() {
                    flags.info(format_args!(
                        "snapshot: {}, build mine {:.1} ms (loaded {}, rejected {})",
                        if stats.snapshots_loaded > 0 {
                            "warm start"
                        } else {
                            "cold start"
                        },
                        stats.build_mine_ms,
                        stats.snapshots_loaded,
                        stats.snapshots_rejected
                    ));
                }
                if robust {
                    flags.info(format_args!(
                        "robustness: retried {}, degraded {}, timed out {}, rejected {}",
                        stats.jobs_retried,
                        stats.fits_degraded,
                        stats.jobs_timed_out,
                        stats.jobs_rejected
                    ));
                }
                model
            } else {
                twoview::core::engine::fit(&data, &algorithm)
            };
            if flags.trace.is_some() {
                // Flush and close the trace sink so the file is complete
                // before the model is reported.
                twoview::runtime::obs::trace_off();
            }
            flags.info(format_args!(
                "fitted {} rules, L% = {:.2} (|C|% = {:.2})",
                model.table.len(),
                model.compression_pct(),
                model.score.correction_pct()
            ));
            match &flags.out {
                Some(out) => {
                    // Render first, so a table the format refuses leaves
                    // any existing file at `out` as it was.
                    let mut rules = Vec::new();
                    table_io::write_table(&model.table, data.vocab(), &mut rules)?;
                    std::fs::write(out, rules)
                        .map_err(|e| Error::config(format!("write {out}: {e}")))?;
                    flags.info(format_args!("rules written to {out}"));
                }
                None => print!("{}", model.table.display(data.vocab())),
            }
            Ok(())
        }
        "score" => {
            let [data_path, rules_path] = flags.positional.as_slice() else {
                return Err(Error::config("score needs <data.2v> <rules.txt>"));
            };
            let data = load(data_path)?;
            let file = File::open(rules_path)
                .map_err(|e| Error::config(format!("open {rules_path}: {e}")))?;
            let table = table_io::read_table(data.vocab(), file)?;
            let score = evaluate_table(&data, &table);
            println!("|T|   : {}", table.len());
            println!("L%    : {:.2}", score.compression_pct());
            println!("|C|%  : {:.2}", score.correction_pct());
            println!("L(T)  : {:.1} bits", score.l_table);
            println!("L(C_L): {:.1} bits", score.l_correction_left);
            println!("L(C_R): {:.1} bits", score.l_correction_right);
            Ok(())
        }
        "translate" => {
            let [data_path, rules_path] = flags.positional.as_slice() else {
                return Err(Error::config("translate needs <data.2v> <rules.txt>"));
            };
            let data = load(data_path)?;
            let file = File::open(rules_path)
                .map_err(|e| Error::config(format!("open {rules_path}: {e}")))?;
            let table = table_io::read_table(data.vocab(), file)?;
            let target = flags.from.opposite();
            // Preview rows: the correction is predicted ⊕ actual, derived
            // from the prediction we already hold — no whole-dataset pass
            // for a --limit-row preview (the quality summary below does
            // its own batched full pass).
            for t in 0..data.n_transactions().min(flags.limit) {
                let predicted = translate::translate_transaction(&data, &table, flags.from, t);
                let names: Vec<&str> = predicted
                    .iter()
                    .map(|l| data.vocab().name(data.vocab().global_id(target, l)))
                    .collect();
                let correction = translate::apply_correction(&predicted, data.row(target, t));
                println!(
                    "t{t}: predicted {{{}}} ({} corrections)",
                    names.join(", "),
                    correction.len()
                );
            }
            let q = twoview::core::predict::prediction_quality(&data, &table, flags.from);
            println!(
                "overall: precision {:.3}, recall {:.3}, F1 {:.3}, {} exact rows",
                q.precision, q.recall, q.f1, q.exact_matches
            );
            Ok(())
        }
        "snapshot" => {
            // Accept the file either via --inspect (the documented form)
            // or as a bare positional.
            let path = flags
                .inspect
                .as_deref()
                .or_else(|| flags.positional.first().map(String::as_str))
                .ok_or_else(|| Error::config("snapshot needs --inspect <file.snap>"))?;
            let report = twoview::core::persist::inspect(std::path::Path::new(path))
                .map_err(twoview::core::Error::from)?;
            println!("{}", report.to_json());
            Ok(())
        }
        other => Err(Error::config(format!("unknown command {other}"))),
    }
}
