//! Golden pins: the exact bits of SELECT(1), SELECT(25), GREEDY and
//! node-capped EXACT models on three seeded inputs.
//!
//! Every identity check elsewhere compares two modes of one build; these
//! pins compare against numbers recorded once, so a change that moves
//! every path the same way (an encoding-length slip, a tie-break change,
//! a gain computed in a different float order) still fails here. Each pin
//! holds the rule count `|T|`, `L(D, T).to_bits()` and an FNV-1a digest of
//! the table (rules in order: direction, left items, right items).
//!
//! The inputs are small enough for debug-mode test runs: a dense paper
//! analogue, a wide sparse cell and a bursty clustered-runs cell. A pin
//! may only be re-recorded together with a stated reason for the change
//! in model output.

use twoview::data::corpus::PaperDataset;
use twoview::data::synthetic::{self, StructureSpec, SyntheticSpec};
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

/// FNV-1a over the rules in table order.
fn table_digest(table: &TranslationTable) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for rule in table.iter() {
        eat(match rule.direction {
            Direction::Forward => 1,
            Direction::Backward => 2,
            Direction::Both => 3,
        });
        for item in rule.left.iter() {
            eat(u64::from(item));
        }
        eat(u64::MAX);
        for item in rule.right.iter() {
            eat(u64::from(item));
        }
        eat(u64::MAX - 1);
    }
    h
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
