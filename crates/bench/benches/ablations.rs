//! Ablation benchmarks for the design choices called out in DESIGN.md §6:
//!
//! 1. EXACT bound effectiveness (`rub` / `qub` on vs off);
//! 2. SELECT candidate class (closed vs all frequent itemsets);
//! 3. SELECT k sweep;
//! 4. SELECT's maintained gain table vs recomputing every gain each round;
//! 5. GREEDY candidate ordering.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use twoview_bench::bench_dataset;
use twoview_core::exact::best_rule;
use twoview_core::{
    translator_greedy, translator_select, translator_select_candidates, CandidateOrder, CoverState,
    Direction, ExactConfig, GreedyConfig, SelectConfig, TranslationRule, TranslationTable,
};
use twoview_data::corpus::PaperDataset;
use twoview_data::TwoViewDataset;
use twoview_mining::{mine_closed_twoview, MinerConfig, TwoViewCandidate};

fn ablate_exact_bounds(c: &mut Criterion) {
    // Tiny data: the unpruned search is exponential.
    let data = bench_dataset(PaperDataset::Wine, 60);
    let state = CoverState::new(&data);
    let mut g = c.benchmark_group("ablation/exact-bounds");
    g.sample_size(10);
    let variants = [
        ("rub+qub", true, true),
        ("rub-only", true, false),
        ("qub-only", false, true),
    ];
    for (name, use_rub, use_qub) in variants {
        let cfg = ExactConfig {
            use_rub,
            use_qub,
            max_nodes: Some(3_000_000),
            candidate_seed_minsup: None,
            ..ExactConfig::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| black_box(best_rule(&state, cfg)));
        });
    }
    g.finish();
}

fn ablate_select_candidates(c: &mut Criterion) {
    let data = bench_dataset(PaperDataset::Wine, 178);
    let mut g = c.benchmark_group("ablation/select-candidates");
    g.sample_size(10);
    g.bench_function("closed", |b| {
        b.iter(|| {
            black_box(translator_select(
                &data,
                &SelectConfig::builder().k(1).minsup(2).build(),
            ))
        });
    });
    g.bench_function("all-frequent", |b| {
        let cfg = SelectConfig {
            closed_candidates: false,
            ..SelectConfig::builder().k(1).minsup(2).build()
        };
        b.iter(|| black_box(translator_select(&data, &cfg)));
    });
    g.finish();
}

fn ablate_select_k(c: &mut Criterion) {
    let data = bench_dataset(PaperDataset::House, 250);
    let mut g = c.benchmark_group("ablation/select-k");
    g.sample_size(10);
    for k in [1usize, 5, 25, 100] {
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                black_box(translator_select(
                    &data,
                    &SelectConfig::builder().k(k).minsup(5).build(),
                ))
            });
        });
    }
    g.finish();
}

/// SELECT(1) with no gain table: every round recomputes all three gains
/// of every candidate from scratch (`CoverState::pair_gains`), then adds
/// the best rule. The ablation baseline for the maintained table.
fn select1_recomputed(data: &TwoViewDataset, cands: &[TwoViewCandidate]) -> TranslationTable {
    let tids: Vec<_> = cands
        .iter()
        .map(|c| (data.support_set(&c.left), data.support_set(&c.right)))
        .collect();
    let mut state = CoverState::new(data);
    loop {
        let mut best: Option<(f64, usize, Direction)> = None;
        for (idx, (c, (lt, rt))) in cands.iter().zip(&tids).enumerate() {
            let gains = state.pair_gains(&c.left, &c.right, lt, rt);
            for (gain, dir) in gains.into_iter().zip(Direction::ALL) {
                if gain > 0.0 && best.is_none_or(|(g, _, _)| gain > g) {
                    best = Some((gain, idx, dir));
                }
            }
        }
        let Some((_, idx, dir)) = best else { break };
        let c = &cands[idx];
        state.apply_rule(TranslationRule::new(c.left.clone(), c.right.clone(), dir));
    }
    state.into_table()
}

fn ablate_gain_table(c: &mut Criterion) {
    let data = bench_dataset(PaperDataset::House, 250);
    let cands = mine_closed_twoview(&data, &MinerConfig::builder().minsup(5).build()).candidates;
    let cfg = SelectConfig::builder().k(1).minsup(5).build();
    assert_eq!(
        translator_select_candidates(&data, &cfg, &cands).table,
        select1_recomputed(&data, &cands),
        "the maintained table and per-round recomputation pick the same rules"
    );
    let mut g = c.benchmark_group("ablation/gain-table");
    g.sample_size(10);
    g.bench_function("maintained", |b| {
        b.iter(|| black_box(translator_select_candidates(&data, &cfg, &cands)));
    });
    g.bench_function("recomputed", |b| {
        b.iter(|| black_box(select1_recomputed(&data, &cands)));
    });
    g.finish();
}

fn ablate_greedy_order(c: &mut Criterion) {
    let data = bench_dataset(PaperDataset::Yeast, 400);
    let mut g = c.benchmark_group("ablation/greedy-order");
    g.sample_size(10);
    for (name, order) in [
        ("length-support", CandidateOrder::LengthThenSupport),
        ("support-length", CandidateOrder::SupportThenLength),
    ] {
        let cfg = GreedyConfig {
            order,
            ..GreedyConfig::builder().minsup(2).build()
        };
        g.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| black_box(translator_greedy(&data, cfg)));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    ablate_exact_bounds,
    ablate_select_candidates,
    ablate_select_k,
    ablate_gain_table,
    ablate_greedy_order
);
criterion_main!(benches);
