//! The one-shot fit path of `twoview fit` and its layers, called through
//! the library's public entry points only.

use std::hint::black_box;

use twoview_core::engine::{fit, Algorithm};
use twoview_core::exact::translator_exact_seeded;
use twoview_core::greedy::translator_greedy_candidates;
use twoview_core::select::translator_select_candidates;
use twoview_core::{
    evaluate_table, table_io, CodeLengths, ExactConfig, GreedyConfig, ModelScore, SelectConfig,
    TranslationTable, TranslatorModel,
};
use twoview_data::{Bitmap, Side, TwoViewDataset};
use twoview_mining::{mine_closed_twoview, CandidateSet, MinerConfig};

use crate::pins::Pin;
use crate::stats::{digest, digest_rows};

/// Worker threads every fit pins (the machine this was tuned on has 2).
pub const THREADS: usize = 2;

/// EXACT's per-iteration node cap, as in `RunScale::smoke`.
pub const EXACT_NODE_CAP: u64 = 200_000;

pub fn select(k: usize, minsup: usize) -> Algorithm {
    Algorithm::Select(
        SelectConfig::builder()
            .k(k)
            .minsup(minsup)
            .threads(THREADS)
            .build(),
    )
}

pub fn greedy(minsup: usize) -> Algorithm {
    Algorithm::Greedy(
        GreedyConfig::builder()
            .minsup(minsup)
            .threads(THREADS)
            .build(),
    )
}

pub fn exact() -> Algorithm {
    Algorithm::Exact(
        ExactConfig::builder()
            .max_nodes(EXACT_NODE_CAP)
            .threads(THREADS)
            .build(),
    )
}

/// The solver layer an algorithm runs in (the span and metric prefix).
pub fn layer(alg: &Algorithm) -> &'static str {
    match alg {
        Algorithm::Select(_) => "select",
        Algorithm::Greedy(_) => "greedy",
        Algorithm::Exact(_) => "exact",
    }
}

/// The candidate mining the one-shot fit of `alg` performs.
pub fn miner_config(alg: &Algorithm) -> MinerConfig {
    let (minsup, valve, threads) = match alg {
        Algorithm::Select(c) => (c.minsup, c.max_candidates, c.n_threads),
        Algorithm::Greedy(c) => (c.minsup, c.max_candidates, c.n_threads),
        Algorithm::Exact(c) => (c.candidate_seed_minsup.unwrap_or(1), 2_000_000, c.n_threads),
    };
    let mut cfg = MinerConfig::builder().minsup(minsup).build();
    cfg.max_itemsets = valve;
    cfg.n_threads = threads;
    cfg
}

/// Mining layer of the one-shot fit.
pub fn mine(data: &TwoViewDataset, alg: &Algorithm) -> CandidateSet {
    mine_closed_twoview(data, &miner_config(alg))
}

/// Solver layer of the one-shot fit, over pre-mined candidates.
pub fn solve(data: &TwoViewDataset, alg: &Algorithm, mined: &CandidateSet) -> TranslatorModel {
    let mut model = match alg {
        Algorithm::Select(c) => translator_select_candidates(data, c, &mined.candidates),
        Algorithm::Greedy(c) => translator_greedy_candidates(data, c, &mined.candidates),
        Algorithm::Exact(c) => translator_exact_seeded(data, c, &mined.candidates),
    };
    model.truncated |= mined.truncated;
    model
}

/// Writes a table as `twoview fit --out` does, into memory.
pub fn write(data: &TwoViewDataset, table: &TranslationTable) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 * table.len() + 16);
    table_io::write_table(table, data.vocab(), &mut buf).expect("writing to memory succeeds");
    buf
}

/// Reads a written table back, as `twoview score` does.
pub fn read(data: &TwoViewDataset, buf: &[u8]) -> TranslationTable {
    table_io::read_table(data.vocab(), buf).expect("a written table reads back")
}

/// What one fit produced.
pub struct Fitted {
    pub model: TranslatorModel,
    pub written: Vec<u8>,
}

/// The untraced one-shot fit, as `twoview fit --out`: mine → solve (the
/// solver encodes the model) → write the table.
pub fn one_shot(data: &TwoViewDataset, alg: &Algorithm) -> Fitted {
    let model = fit(data, alg);
    let written = write(data, &model.table);
    black_box(Fitted { model, written })
}

/// Reads the written table back and re-encodes it, as `twoview score`
/// does (the output check of every fit). Returns `|T|` and the score.
pub fn score(data: &TwoViewDataset, written: &[u8]) -> (usize, ModelScore) {
    let table = read(data, written);
    (table.len(), evaluate_table(data, &table))
}

/// The query after a fit, as `twoview stats`: the dataset's uncompressed
/// length `L(D, ∅)` and view densities. Its cost depends on the shape of
/// the dataset only, so it does not swing with the size of the fitted
/// table from seed to seed.
pub fn stats(data: &TwoViewDataset) -> [f64; 3] {
    let codes = CodeLengths::new(data);
    black_box([
        codes.empty_model(data),
        data.density(Side::Left),
        data.density(Side::Right),
    ])
}

/// The pinned reduction of a `stats` query.
pub fn stats_pin(stats: [f64; 3]) -> Pin {
    Pin {
        n: 0,
        bits: stats[0].to_bits(),
        digest: stats[1].to_bits() ^ stats[2].to_bits().rotate_left(32),
    }
}

/// A fit's pinned reduction.
pub fn fit_pin(model: &TranslatorModel, written: &[u8]) -> Pin {
    Pin {
        n: model.table.len() as u64,
        bits: model.score.l_total.to_bits(),
        digest: digest(written),
    }
}

/// A query output's pinned reduction.
pub fn rows_pin(rows: &[Bitmap]) -> Pin {
    Pin {
        n: rows.len() as u64,
        bits: 0,
        digest: digest_rows(rows),
    }
}

/// A score's pinned reduction.
pub fn score_pin(n_rules: usize, score: &ModelScore) -> Pin {
    Pin {
        n: n_rules as u64,
        bits: score.l_total.to_bits(),
        digest: 0,
    }
}

/// Whether re-encoding the fitted table reproduces the model's length.
pub fn encode_agrees(model: &TranslatorModel, score: &ModelScore) -> bool {
    let (a, b) = (model.score.l_total, score.l_total);
    (a - b).abs() <= 1e-9 * a.abs().max(1.0)
}
