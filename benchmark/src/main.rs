//! `twoview-benchmark` — runs one workload of the repository benchmark
//! under a seed and prints its metrics.
//!
//! ```text
//! twoview-benchmark --workload <paper-cold|sparse-cold|serve-open>
//!                   --seed <n> --seconds <s> --trace <0|1> [--write-pins]
//! ```
//!
//! Inputs are generated from the seed and written as `.2v` files before
//! any timing. `--trace 0` measures the end-to-end metrics; `--trace 1`
//! calls the layers one at a time and reports the per-layer metrics.
//! Every output is checked (see `pins.rs`). Progress goes to stderr; the
//! last line of stdout is the result object:
//!
//! ```text
//! {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//! ```
//!
//! `--write-pins` instead runs one pass and records the outputs as the
//! pins of that workload and seed.

#![forbid(unsafe_code)]

mod cold;
mod fits;
mod inputs;
mod pins;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use pins::Checker;
use stats::Metrics;

const WORKLOADS: [&str; 3] = ["paper-cold", "sparse-cold", "serve-open"];

/// Parsed command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub write_pins: bool,
    /// Scratch directory for the generated inputs, removed at exit.
    pub work: PathBuf,
}

/// What a run reports.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn from_checker(metrics: Metrics, checker: &Checker) -> Outcome {
        Outcome {
            metrics,
            attempted: checker.attempted,
            failed: checker.failed,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut write_pins = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--write-pins" => write_pins = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("{workload}-{}", std::process::id()));
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        write_pins,
        work,
    })
}

/// Prints the vetted generator seeds of every input family, as the table
/// `inputs::vetted` holds.
fn vet() {
    let families = inputs::paper_families()
        .into_iter()
        .map(|(_, f)| f)
        .chain(inputs::sparse_families())
        .chain([inputs::adult_family(serve::HELD_OUT)]);
    for family in families {
        let pool = family.vet(5000);
        if pool.len() < inputs::POOL {
            eprintln!(
                "warning: only {} vetted seeds for {}",
                pool.len(),
                family.name
            );
        }
        println!("        {:?} => &{pool:?},", family.name);
    }
}

fn main() -> ExitCode {
    // Size the library's worker pool like the fits' pinned thread count,
    // whatever the machine's core count (read once, on first pool use).
    std::env::set_var("TWOVIEW_RUNTIME_THREADS", fits::THREADS.to_string());
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--vet"] {
        vet();
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work) {
        eprintln!("error: cannot create {}: {e}", opts.work.display());
        return ExitCode::from(2);
    }
    let outcome = std::panic::catch_unwind(|| match opts.workload.as_str() {
        "serve-open" => serve::run(&opts),
        _ => cold::run(&opts),
    });
    let _ = std::fs::remove_dir_all(&opts.work);
    let Ok(outcome) = outcome else {
        eprintln!("error: the {} workload panicked", opts.workload);
        return ExitCode::from(1);
    };
    eprintln!(
        "{} seed {}: {} ops attempted, {} failed, error_rate {:.6} ratio \
         ({} worker threads, {} available)",
        opts.workload,
        opts.seed,
        outcome.attempted,
        outcome.failed,
        stats::ratio(outcome.failed as f64, outcome.attempted as f64),
        fits::THREADS,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for (name, value, unit) in outcome.metrics.rows() {
        eprintln!("  {name:<28} {value:>14.4} {unit}");
    }
    if opts.write_pins {
        return ExitCode::SUCCESS;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.to_json()
    );
    ExitCode::SUCCESS
}
