//! Output checks. Every fit is reduced to `|T|`, `l_total.to_bits()` and
//! a digest of its written table, and every query to a digest of its
//! output. The reductions are pinned per workload, seed and cell in
//! `pins.tsv` next to this package; they change only through
//! `--write-pins`. Within a run each cell must also repeat exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The pinned reduction of one output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pin {
    /// `|T|` for a fit, the output length for a query.
    pub n: u64,
    /// `l_total.to_bits()` for a fit or evaluate, `0` otherwise.
    pub bits: u64,
    /// Digest of the written table or of the query output.
    pub digest: u64,
}

type Key = (String, u64, String);

/// Pins file contents plus this run's first observation of every cell.
pub struct Checker {
    path: PathBuf,
    workload: String,
    seed: u64,
    pinned: BTreeMap<Key, Pin>,
    seen: BTreeMap<String, Pin>,
    write: bool,
    pub attempted: u64,
    pub failed: u64,
}

fn pins_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("pins.tsv")
}

fn parse_line(line: &str) -> Option<(Key, Pin)> {
    let f: Vec<&str> = line.split('\t').collect();
    if f.len() != 6 {
        return None;
    }
    let hex = |s: &str| u64::from_str_radix(s, 16).ok();
    Some((
        (f[0].to_string(), f[1].parse().ok()?, f[2].to_string()),
        Pin {
            n: f[3].parse().ok()?,
            bits: hex(f[4])?,
            digest: hex(f[5])?,
        },
    ))
}

impl Checker {
    /// Loads the pins; with `write` set, observations replace them.
    pub fn load(workload: &str, seed: u64, write: bool) -> Checker {
        let path = pins_path();
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let pinned = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .filter_map(parse_line)
            .collect();
        Checker {
            path,
            workload: workload.to_string(),
            seed,
            pinned,
            seen: BTreeMap::new(),
            write,
            attempted: 0,
            failed: 0,
        }
    }

    /// Whether this workload and seed have pins at all.
    pub fn has_pins(&self) -> bool {
        self.pinned
            .keys()
            .any(|(w, s, _)| *w == self.workload && *s == self.seed)
    }

    /// Counts one attempted operation and checks its output against the
    /// pin and against the cell's earlier outputs in this run.
    pub fn check(&mut self, cell: &str, got: Pin) {
        self.attempted += 1;
        let mut ok = match self.seen.get(cell) {
            Some(first) => *first == got,
            None => {
                self.seen.insert(cell.to_string(), got);
                true
            }
        };
        if !self.write {
            let key = (self.workload.clone(), self.seed, cell.to_string());
            if let Some(pin) = self.pinned.get(&key) {
                ok &= *pin == got;
            }
        }
        if !ok {
            self.failed += 1;
            eprintln!(
                "MISMATCH {}/{}/{cell}: got {got:?}",
                self.workload, self.seed
            );
        }
    }

    /// Counts one operation that failed before producing an output.
    pub fn fail(&mut self, what: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("FAILED {}/{}: {what}", self.workload, self.seed);
    }

    /// Replaces this workload and seed's pins with this run's outputs.
    pub fn save(&mut self) -> std::io::Result<()> {
        let (workload, seed) = (self.workload.clone(), self.seed);
        self.pinned
            .retain(|(w, s, _), _| !(*w == workload && *s == seed));
        for (cell, pin) in &self.seen {
            self.pinned
                .insert((workload.clone(), seed, cell.clone()), *pin);
        }
        let mut out = String::from(
            "# workload\tseed\tcell\tn\tl_total_bits\tdigest (regenerate with --write-pins)\n",
        );
        for ((w, s, c), p) in &self.pinned {
            let _ = writeln!(
                out,
                "{w}\t{s}\t{c}\t{}\t{:016x}\t{:016x}",
                p.n, p.bits, p.digest
            );
        }
        std::fs::write(&self.path, out)
    }
}
