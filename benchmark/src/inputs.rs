//! Seeded inputs. Every dataset comes from the library's own generators
//! with the run's seed mixed into the generator seed, and reaches the
//! program under test only as `.2v` bytes written before any timing.
//!
//! A generator seed alone moves the amount of work a lot (clustered-runs
//! ranges from 14k to 171k closed candidates over ten seeds, House@300
//! from 135k to 211k). So each dataset family has a pool of vetted
//! generator seeds whose closed-candidate count at the family's minsup
//! lies within 3% of its nominal count, and the run seed picks one: the
//! seed varies the data, not the size of the workload.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use twoview_data::corpus::PaperDataset;
use twoview_data::synthetic::{self, StructureSpec, SyntheticSpec};
use twoview_data::{io, TwoViewDataset};
use twoview_mining::{mine_closed_twoview, CandidateSet, MinerConfig};

/// splitmix64: mixes the run seed into a generator seed.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic stream of uniform draws in `[0, 1)` (splitmix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        (mix(self.0) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How far from its family's nominal count a vetted dataset's
/// closed-candidate count may lie.
const BAND: f64 = 0.03;

/// Vetted generator seeds kept per family.
pub const POOL: usize = 8;

/// A generated dataset with the closed candidates mined at its minsup.
pub struct Picked {
    pub data: TwoViewDataset,
    pub minsup: usize,
    pub candidates: CandidateSet,
    pub generator_seed: u64,
}

/// Mines the closed candidates of `data` at `minsup`, stopping at `valve`
/// enumerated itemsets.
fn candidates(data: &TwoViewDataset, minsup: usize, valve: usize) -> CandidateSet {
    let mut cfg = MinerConfig::builder().minsup(minsup).build();
    cfg.max_itemsets = valve;
    cfg.n_threads = Some(crate::fits::THREADS);
    mine_closed_twoview(data, &cfg)
}

/// One generated input: its generator for any generator seed, the
/// minsup its cells mine at, and its nominal closed-candidate count.
pub struct Family {
    pub name: &'static str,
    base: u64,
    minsup: usize,
    target: usize,
    generate: Box<dyn Fn(u64) -> TwoViewDataset>,
}

impl Family {
    /// Generator seed number `k` of this family: `k` mixed into the
    /// library's own generator seed for the dataset.
    fn generator_seed(&self, k: u64) -> u64 {
        self.base ^ mix(k)
    }

    /// The run seed picks one of the family's vetted generator seeds.
    pub fn pick(&self, seed: u64) -> Picked {
        let pool = vetted(self.name);
        let k = pool[(mix(seed) % pool.len() as u64) as usize];
        let generator_seed = self.generator_seed(k);
        let data = (self.generate)(generator_seed);
        let candidates = candidates(&data, self.minsup, 2_000_000);
        Picked {
            data,
            minsup: self.minsup,
            candidates,
            generator_seed,
        }
    }

    /// Scans generator seeds `0..limit` and returns the first `POOL`
    /// whose closed-candidate count lies within `BAND` of the nominal.
    pub fn vet(&self, limit: u64) -> Vec<u64> {
        (0..limit)
            .filter(|&k| {
                let data = (self.generate)(self.generator_seed(k));
                let mined = candidates(&data, self.minsup, 2_000_000);
                let n = mined.candidates.len() as f64;
                !mined.truncated && (n / self.target as f64 - 1.0).abs() <= BAND
            })
            .take(POOL)
            .collect()
    }
}

/// Generator seeds whose datasets `Family::vet` accepted (regenerate
/// with `--vet`). The seed of a run selects one of them, so seeds vary
/// the data while every run does about the same amount of work.
fn vetted(name: &str) -> &'static [u64] {
    match name {
        "Abalone" => &[1, 7, 8, 21, 36, 40, 44, 51],
        "Adult" => &[0, 6, 20, 24, 32, 36, 40, 41],
        "CAL500" => &[2, 3, 13, 15, 17, 54, 59, 73],
        "Car" => &[0, 1, 5, 11, 14, 16, 33, 44],
        "ChessKRvK" => &[7, 10, 13, 17, 21, 27, 31, 33],
        "Crime" => &[3, 4, 7, 9, 16, 22, 28, 30],
        "Elections" => &[2, 3, 7, 20, 27, 34, 41, 51],
        "Emotions" => &[3, 4, 9, 18, 19, 21, 26, 40],
        "House" => &[12, 21, 25, 30, 33, 49, 51, 54],
        "Mammals" => &[3, 5, 16, 39, 44, 70, 78, 88],
        "Nursery" => &[3, 7, 9, 11, 12, 13, 15, 20],
        "Tictactoe" => &[5, 6, 15, 22, 24, 25, 27, 31],
        "Wine" => &[0, 1, 2, 9, 26, 29, 34, 37],
        "Yeast" => &[1, 2, 5, 6, 9, 17, 19, 23],
        "wide-sparse" => &[0, 2, 3, 4, 5, 6, 7, 9],
        "tall-sparse" => &[22, 24, 28, 40, 42, 48, 59, 61],
        "clustered-runs" => &[45, 59, 70, 138, 185, 186, 233, 240],
        "Adult-full" => &[20, 37, 59, 110, 125, 142, 152, 159],
        // A family without a pool uses unvetted generator seeds.
        _ => &[0, 1, 2, 3, 4, 5, 6, 7],
    }
}

/// One generated dataset, serialised to a `.2v` file.
pub struct Input {
    pub name: String,
    pub path: PathBuf,
    pub bytes: u64,
    /// Minimum support its fits mine at.
    pub minsup: usize,
}

/// Serialises `data` to `dir/<name>.2v`.
pub fn write_input(dir: &Path, name: &str, data: &TwoViewDataset, minsup: usize) -> Input {
    let path = dir.join(format!("{name}.2v"));
    let file = File::create(&path).expect("create an input file in the work directory");
    io::write_dataset(data, file).expect("write a .2v input");
    let bytes = std::fs::metadata(&path)
        .expect("stat a written input")
        .len();
    Input {
        name: name.to_string(),
        path,
        bytes,
        minsup,
    }
}

/// Parses one `.2v` input the way `twoview fit` does.
pub fn parse(input: &Input) -> TwoViewDataset {
    let file = File::open(&input.path).expect("open a .2v input");
    io::read_dataset(file).expect("a generated input parses")
}

/// Parses every input; returns the datasets and the time taken.
pub fn parse_all(inputs: &[Input]) -> (Vec<TwoViewDataset>, Duration) {
    let start = Instant::now();
    let data = inputs.iter().map(parse).collect();
    (data, start.elapsed())
}

/// Prints an input's shape, so a seed that changes it is visible.
pub fn describe(input: &Input, data: &TwoViewDataset, candidates: usize) {
    eprintln!(
        "input {:<16} rows {:>6}  items {:>3}+{:<3}  bytes {:>9}  minsup {:>5}  candidates {:>7}",
        input.name,
        data.n_transactions(),
        data.vocab().n_left(),
        data.vocab().n_right(),
        input.bytes,
        input.minsup,
        candidates
    );
}

/// Nominal closed-candidate count of each paper analogue at 300 rows:
/// the median over generator seeds 0–9 of this benchmark.
fn paper_target(ds: PaperDataset) -> usize {
    match ds {
        PaperDataset::Abalone => 5100,
        PaperDataset::Adult => 380,
        PaperDataset::Cal500 => 4900,
        PaperDataset::Car => 6600,
        PaperDataset::ChessKrVk => 2850,
        PaperDataset::Crime => 5000,
        PaperDataset::Elections => 350,
        PaperDataset::Emotions => 7100,
        PaperDataset::House => 155_000,
        PaperDataset::Mammals => 175,
        PaperDataset::Nursery => 17_100,
        PaperDataset::Tictactoe => 39_800,
        PaperDataset::Wine => 14_700,
        PaperDataset::Yeast => 8800,
    }
}

/// The 14 paper analogues at the smoke scale of `eval::tables::table2`
/// (at most 300 rows, `minsup_for(n)`).
pub fn paper_families() -> Vec<(PaperDataset, Family)> {
    PaperDataset::ALL
        .into_iter()
        .map(|ds| {
            let spec = ds.spec().scaled_to(300);
            let family = Family {
                name: ds.name(),
                base: spec.seed,
                minsup: ds.minsup_for(spec.n_transactions),
                target: paper_target(ds),
                generate: Box::new(move |s| {
                    let spec = SyntheticSpec {
                        seed: s,
                        ..spec.clone()
                    };
                    synthetic::generate_with_vocab(&spec, ds.vocabulary())
                        .expect("paper specs are valid")
                        .dataset
                }),
            };
            (ds, family)
        })
        .collect()
}

/// One sparse cell, at the full size of the repository's perfsuite matrix.
struct SparseCell {
    name: &'static str,
    n: usize,
    n_left: usize,
    n_right: usize,
    density: f64,
    concepts: usize,
    occurrence: f64,
    minsup_div: usize,
    burst_len: usize,
    /// Nominal closed-candidate count (median over seeds 0–9).
    target: usize,
}

const SPARSE_CELLS: [SparseCell; 3] = [
    SparseCell {
        name: "wide-sparse",
        n: 20_000,
        n_left: 150,
        n_right: 120,
        density: 0.01,
        concepts: 10,
        occurrence: 0.02,
        minsup_div: 10_000,
        burst_len: 1,
        target: 12_100,
    },
    SparseCell {
        name: "tall-sparse",
        n: 20_000,
        n_left: 48,
        n_right: 36,
        density: 0.008,
        concepts: 8,
        occurrence: 0.02,
        minsup_div: 10_000,
        burst_len: 1,
        target: 1130,
    },
    SparseCell {
        name: "clustered-runs",
        n: 8000,
        n_left: 32,
        n_right: 24,
        density: 0.02,
        concepts: 6,
        occurrence: 0.35,
        minsup_div: 20,
        burst_len: 48,
        target: 60_000,
    },
];

/// The wide-sparse, tall-sparse and clustered-runs cells.
pub fn sparse_families() -> Vec<Family> {
    SPARSE_CELLS
        .iter()
        .map(|c| {
            let mut structure = if c.burst_len > 1 {
                StructureSpec::bursty(c.concepts, c.burst_len)
            } else {
                StructureSpec::strong(c.concepts)
            };
            structure.occurrence = c.occurrence;
            let spec = SyntheticSpec {
                name: c.name.into(),
                n_transactions: c.n,
                n_left: c.n_left,
                n_right: c.n_right,
                density_left: c.density,
                density_right: c.density,
                structure,
                seed: 7,
            };
            Family {
                name: c.name,
                base: spec.seed,
                minsup: (c.n / c.minsup_div).max(1),
                target: c.target,
                generate: Box::new(move |s| {
                    let spec = SyntheticSpec {
                        seed: s,
                        ..spec.clone()
                    };
                    synthetic::generate(&spec)
                        .expect("sparse specs are valid")
                        .dataset
                }),
            }
        })
        .collect()
}

/// Adult at paper scale followed by `held_out` more rows from the same
/// generator: the served dataset and the held-out rows.
pub fn adult_split(generator_seed: u64, held_out: usize) -> (TwoViewDataset, TwoViewDataset) {
    let ds = PaperDataset::Adult;
    let vocab = ds.vocabulary();
    let mut spec = ds.spec();
    let n = spec.n_transactions;
    spec.n_transactions = n + held_out;
    spec.seed = generator_seed;
    let all = synthetic::generate_with_vocab(&spec, vocab.clone())
        .expect("the Adult spec is valid")
        .dataset;
    let rows = |range: std::ops::Range<usize>| -> Vec<Vec<twoview_data::ItemId>> {
        range
            .map(|t| all.transaction_items(t).iter().collect())
            .collect()
    };
    (
        TwoViewDataset::from_transactions(vocab.clone(), &rows(0..n)).with_name("Adult"),
        TwoViewDataset::from_transactions(vocab, &rows(n..n + held_out))
            .with_name("Adult-held-out"),
    )
}

/// The served Adult dataset at paper scale and minsup.
pub fn adult_family(held_out: usize) -> Family {
    let ds = PaperDataset::Adult;
    Family {
        name: "Adult-full",
        base: ds.spec().seed,
        minsup: ds.paper().minsup,
        target: 420,
        generate: Box::new(move |s| adult_split(s, held_out).0),
    }
}
