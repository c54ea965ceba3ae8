//! Golden pins: the exact bits of SELECT(1), SELECT(25), GREEDY and
//! node-capped EXACT models on three seeded inputs, plus the two
//! depth-first searches beneath them: the closed-itemset enumeration and
//! the capped EXACT best-rule search, step by step.
//!
//! Every identity check elsewhere compares two modes of one build; these
//! pins compare against numbers recorded once, so a change that moves
//! every path the same way (an encoding-length slip, a tie-break change,
//! a gain computed in a different float order) still fails here. Each pin
//! holds the rule count `|T|`, `L(D, T).to_bits()` and an FNV-1a digest of
//! the table (rules in order: direction, left items, right items).
//!
//! The search pins hold what the models hide: the closed miner's
//! itemsets in enumeration order (count, truncation, FNV-1a over items
//! and supports), and for each EXACT step the visited node count, the
//! truncation flag, the gain bits and the rule. A change that makes
//! either search visit a different node set fails here even when the
//! models happen to agree.
//!
//! The inputs are small enough for debug-mode test runs: a dense paper
//! analogue, a wide sparse cell and a bursty clustered-runs cell. A pin
//! may only be re-recorded together with a stated reason for the change
//! in model output.

use twoview::core::exact::best_rule;
use twoview::core::CoverState;
use twoview::data::corpus::PaperDataset;
use twoview::data::synthetic::{self, StructureSpec, SyntheticSpec};
use twoview::mining::mine_closed;
use twoview::prelude::*;

/// Worker threads for every pinned fit: the fanned-out EXACT structure
/// (identical for any count above one) and the parallel SELECT paths.
const THREADS: usize = 2;

/// EXACT's per-iteration node cap.
const EXACT_NODE_CAP: u64 = 20_000;

struct Pin {
    input: &'static str,
    method: &'static str,
    rules: usize,
    l_bits: u64,
    digest: u64,
}

const PINS: &[Pin] = &[
    Pin {
        input: "dense-paper",
        method: "select1",
        rules: 8,
        l_bits: 0x40b3_cf04_e0e4_8c8d,
        digest: 0x6dec_3488_f4ff_d524,
    },
    Pin {
        input: "dense-paper",
        method: "select25",
        rules: 8,
        l_bits: 0x40b3_d597_9bf1_ee60,
        digest: 0x3db6_db0b_1760_fac5,
    },
    Pin {
        input: "dense-paper",
        method: "exact",
        rules: 8,
        l_bits: 0x40b3_ccb8_11a2_0c58,
        digest: 0x1ff3_4877_11c8_08a9,
    },
    Pin {
        input: "dense-paper",
        method: "greedy",
        rules: 11,
        l_bits: 0x40b4_342a_7b31_5982,
        digest: 0xb292_11ab_9600_8464,
    },
    Pin {
        input: "sparse",
        method: "select1",
        rules: 33,
        l_bits: 0x40d2_9758_7610_a773,
        digest: 0xdd27_68b8_a90a_e854,
    },
    Pin {
        input: "sparse",
        method: "select25",
        rules: 33,
        l_bits: 0x40d2_9758_7610_a773,
        digest: 0xec4b_b540_eec7_cef4,
    },
    Pin {
        input: "sparse",
        method: "exact",
        rules: 33,
        l_bits: 0x40d2_9758_7610_a773,
        digest: 0xdd27_68b8_a90a_e854,
    },
    Pin {
        input: "sparse",
        method: "greedy",
        rules: 76,
        l_bits: 0x40da_40a7_3f9e_77f6,
        digest: 0x0ea2_efc0_8b24_6f2a,
    },
    Pin {
        input: "clustered-runs",
        method: "select1",
        rules: 24,
        l_bits: 0x40c3_ebb7_e04f_d26b,
        digest: 0xd025_3951_63fa_296d,
    },
    Pin {
        input: "clustered-runs",
        method: "select25",
        rules: 24,
        l_bits: 0x40c3_ebb7_e04f_d26b,
        digest: 0x9f98_87ef_a4f8_3e0d,
    },
    Pin {
        input: "clustered-runs",
        method: "exact",
        rules: 24,
        l_bits: 0x40c3_ebb7_e04f_d26b,
        digest: 0xd025_3951_63fa_296d,
    },
    Pin {
        input: "clustered-runs",
        method: "greedy",
        rules: 89,
        l_bits: 0x40cf_63c0_9254_1ab2,
        digest: 0x8d00_ecb8_32a9_cb25,
    },
];

/// `mine_closed` at the input's minsup with [`THREADS`] workers.
struct MinePin {
    input: &'static str,
    itemsets: usize,
    truncated: bool,
    digest: u64,
}

const MINE_PINS: &[MinePin] = &[
    MinePin {
        input: "dense-paper",
        itemsets: 5_861,
        truncated: false,
        digest: 0xbeb1_da03_1353_27f2,
    },
    MinePin {
        input: "sparse",
        itemsets: 1_531,
        truncated: false,
        digest: 0xe001_2d75_c843_e241,
    },
    MinePin {
        input: "clustered-runs",
        itemsets: 12_908,
        truncated: false,
        digest: 0x25f1_cbd6_b1a3_d6d2,
    },
];

/// Capped EXACT search steps: `best_rule` with [`EXACT_NODE_CAP`] at the
/// empty table and after each rule of the pinned EXACT model, serially
/// and fanned out. `nodes` is the total over the steps; the digest covers
/// each step's nodes, truncation flag, gain bits and rule.
struct StepPin {
    input: &'static str,
    threads: usize,
    steps: usize,
    nodes: u64,
    digest: u64,
}

const STEP_PINS: &[StepPin] = &[
    StepPin {
        input: "dense-paper",
        threads: 1,
        steps: 9,
        nodes: 180_009,
        digest: 0x7ecb_98b5_2f05_8432,
    },
    StepPin {
        input: "dense-paper",
        threads: THREADS,
        steps: 9,
        nodes: 111_186,
        digest: 0xa83f_f38a_9738_75db,
    },
    StepPin {
        input: "sparse",
        threads: 1,
        steps: 34,
        nodes: 680_034,
        digest: 0x82a8_0aca_4528_7297,
    },
    StepPin {
        input: "sparse",
        threads: THREADS,
        steps: 34,
        nodes: 387_381,
        digest: 0x6e18_5276_e899_77c5,
    },
];

/// The Car analogue at 200 rows and the paper's minsup rule for that size.
fn dense_paper() -> (TwoViewDataset, usize) {
    let ds = PaperDataset::Car;
    let spec = ds.spec().scaled_to(200);
    let minsup = ds.minsup_for(spec.n_transactions);
    let data = synthetic::generate_with_vocab(&spec, ds.vocabulary())
        .expect("paper spec is valid")
        .dataset;
    (data, minsup)
}

/// A wide, sparse cell: many items, ~2% density, planted concepts.
fn sparse() -> (TwoViewDataset, usize) {
    let spec = SyntheticSpec {
        name: "pin-sparse".into(),
        n_transactions: 3000,
        n_left: 60,
        n_right: 50,
        density_left: 0.02,
        density_right: 0.02,
        structure: StructureSpec {
            occurrence: 0.04,
            ..StructureSpec::strong(8)
        },
        seed: 17,
    };
    (synthetic::generate(&spec).expect("valid spec").dataset, 3)
}

/// A smaller clustered-runs cell: concepts fire in bursts of adjacent
/// transactions, the shape where SELECT refreshes the most candidates.
fn clustered_runs() -> (TwoViewDataset, usize) {
    let n = 1200;
    let spec = SyntheticSpec {
        name: "pin-clustered".into(),
        n_transactions: n,
        n_left: 20,
        n_right: 16,
        density_left: 0.02,
        density_right: 0.02,
        structure: StructureSpec {
            occurrence: 0.35,
            ..StructureSpec::bursty(4, 24)
        },
        seed: 45,
    };
    (
        synthetic::generate(&spec).expect("valid spec").dataset,
        n / 20,
    )
}

/// FNV-1a over a stream of `u64` words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn eat_rule(&mut self, rule: &TranslationRule) {
        self.eat(match rule.direction {
            Direction::Forward => 1,
            Direction::Backward => 2,
            Direction::Both => 3,
        });
        for item in rule.left.iter() {
            self.eat(u64::from(item));
        }
        self.eat(u64::MAX);
        for item in rule.right.iter() {
            self.eat(u64::from(item));
        }
        self.eat(u64::MAX - 1);
    }
}

/// FNV-1a over the rules in table order.
fn table_digest(table: &TranslationTable) -> u64 {
    let mut h = Fnv::new();
    for rule in table.iter() {
        h.eat_rule(rule);
    }
    h.0
}

fn fit_method(data: &TwoViewDataset, minsup: usize, method: &str) -> TranslatorModel {
    match method {
        "select1" | "select25" => {
            let k = if method == "select1" { 1 } else { 25 };
            let cfg = SelectConfig::builder()
                .k(k)
                .minsup(minsup)
                .threads(THREADS)
                .build();
            translator_select(data, &cfg)
        }
        "greedy" => {
            let cfg = GreedyConfig::builder()
                .minsup(minsup)
                .threads(THREADS)
                .build();
            translator_greedy(data, &cfg)
        }
        "exact" => {
            let cfg = ExactConfig::builder()
                .max_nodes(EXACT_NODE_CAP)
                .seed_minsup(Some(minsup))
                .threads(THREADS)
                .build();
            translator_exact_with(data, &cfg)
        }
        other => panic!("unknown method {other}"),
    }
}

fn check_input(name: &str, (data, minsup): (TwoViewDataset, usize)) {
    let mut failures = Vec::new();
    for pin in PINS.iter().filter(|p| p.input == name) {
        let model = fit_method(&data, minsup, pin.method);
        let got = (
            model.table.len(),
            model.score.l_total.to_bits(),
            table_digest(&model.table),
        );
        if got != (pin.rules, pin.l_bits, pin.digest) {
            failures.push(format!(
                "{name}/{}: got rules {} l_bits {:#018x} digest {:#018x} (L = {}), \
                 pinned rules {} l_bits {:#018x} digest {:#018x}",
                pin.method,
                got.0,
                got.1,
                got.2,
                model.score.l_total,
                pin.rules,
                pin.l_bits,
                pin.digest
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden pins drifted:\n{}",
        failures.join("\n")
    );
}

/// `(itemsets, truncated, digest)` of `mine_closed` on one input.
fn mine_fingerprint(data: &TwoViewDataset, minsup: usize) -> (usize, bool, u64) {
    let cfg = MinerConfig::builder()
        .minsup(minsup)
        .threads(THREADS)
        .build();
    let res = mine_closed(data, &cfg);
    let mut h = Fnv::new();
    for f in &res.itemsets {
        for item in f.items.iter() {
            h.eat(u64::from(item));
        }
        h.eat(u64::MAX);
        h.eat(f.support as u64);
    }
    (res.itemsets.len(), res.truncated, h.0)
}

fn check_mining(name: &str, (data, minsup): (TwoViewDataset, usize)) {
    let pin = MINE_PINS
        .iter()
        .find(|p| p.input == name)
        .expect("pinned input");
    let got = mine_fingerprint(&data, minsup);
    assert_eq!(
        got,
        (pin.itemsets, pin.truncated, pin.digest),
        "{name}: closed mining drifted: got itemsets {} truncated {} digest {:#018x}",
        got.0,
        got.1,
        got.2
    );
}

/// `(steps, total nodes, digest)` of the capped EXACT search at every
/// prefix of the pinned EXACT model's table.
fn exact_steps_fingerprint(
    data: &TwoViewDataset,
    model: &TranslatorModel,
    threads: usize,
) -> (usize, u64, u64) {
    let cfg = ExactConfig::builder()
        .max_nodes(EXACT_NODE_CAP)
        .threads(threads)
        .build();
    let mut state = CoverState::new(data);
    let mut h = Fnv::new();
    let mut nodes = 0;
    let mut steps = 0;
    for k in 0..=model.table.len() {
        if k > 0 {
            state.apply_rule(model.table.rules()[k - 1].clone());
        }
        let out = best_rule(&state, &cfg);
        steps += 1;
        nodes += out.nodes;
        h.eat(out.nodes);
        h.eat(u64::from(out.truncated));
        match &out.best {
            Some((rule, gain)) => {
                h.eat(gain.to_bits());
                h.eat_rule(rule);
            }
            None => h.eat(u64::MAX),
        }
    }
    (steps, nodes, h.0)
}

fn check_exact_steps(name: &str, (data, minsup): (TwoViewDataset, usize)) {
    let model = fit_method(&data, minsup, "exact");
    let mut failures = Vec::new();
    for pin in STEP_PINS.iter().filter(|p| p.input == name) {
        let got = exact_steps_fingerprint(&data, &model, pin.threads);
        if got != (pin.steps, pin.nodes, pin.digest) {
            failures.push(format!(
                "{name}/threads {}: got steps {} nodes {} digest {:#018x}, \
                 pinned steps {} nodes {} digest {:#018x}",
                pin.threads, got.0, got.1, got.2, pin.steps, pin.nodes, pin.digest
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "EXACT search pins drifted:\n{}",
        failures.join("\n")
    );
}

#[test]
fn dense_paper_models_match_pins() {
    check_input("dense-paper", dense_paper());
}

#[test]
fn sparse_models_match_pins() {
    check_input("sparse", sparse());
}

#[test]
fn clustered_runs_models_match_pins() {
    check_input("clustered-runs", clustered_runs());
}

#[test]
fn dense_paper_mining_matches_pins() {
    check_mining("dense-paper", dense_paper());
}

#[test]
fn sparse_mining_matches_pins() {
    check_mining("sparse", sparse());
}

#[test]
fn clustered_runs_mining_matches_pins() {
    check_mining("clustered-runs", clustered_runs());
}

#[test]
fn dense_paper_exact_steps_match_pins() {
    check_exact_steps("dense-paper", dense_paper());
}

#[test]
fn sparse_exact_steps_match_pins() {
    check_exact_steps("sparse", sparse());
}
