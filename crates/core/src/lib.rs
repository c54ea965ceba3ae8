//! # twoview-core
//!
//! The paper's primary contribution: **translation tables** for Boolean
//! two-view data, selected with the **Minimum Description Length** (MDL)
//! principle, induced by the three **TRANSLATOR** algorithms
//! (van Leeuwen & Galbrun, *Association Discovery in Two-View Data*, IEEE
//! TKDE 27(12), 2015).
//!
//! * [`rule`], [`table`] — translation rules `X → Y` / `X ← Y` / `X ↔ Y`
//!   and tables thereof (paper §3);
//! * [`translate`] — the TRANSLATE scheme and lossless XOR-correction
//!   reconstruction (Algorithm 1);
//! * [`encoding`] — per-item Shannon codes and all encoded lengths (§4);
//! * [`cover`] — the incremental `U`/`E` cover state in a columnar
//!   (per-item tidset) layout with fused-kernel rule-gain evaluation (§5.1);
//! * [`cover_rows`] — the row-major reference cover state (differential
//!   testing + benchmark baseline);
//! * [`bounds`] — the shared `qub`/`rub` gain bounds (§5.2);
//! * [`exact`] — TRANSLATOR-EXACT: per-iteration optimal rule search with
//!   `tub`/`rub`/`qub` pruning (§5.2, Algorithm 2);
//! * [`select`] — TRANSLATOR-SELECT(k) over closed frequent two-view
//!   candidates (§5.3, Algorithm 3), scored from an exact gain table that
//!   delta-updates only the cells each rule changes (shared with EXACT's
//!   seed incumbent);
//! * [`greedy`] — TRANSLATOR-GREEDY single-pass filtering (§5.4);
//! * [`model`] — fitted models, scores (`L%`, `|C|%`), construction traces.
//!
//! ## Quick example
//!
//! ```
//! use twoview_data::prelude::*;
//! use twoview_core::select::{translator_select, SelectConfig};
//!
//! let vocab = Vocabulary::new(["rainy", "windy"], ["umbrella", "kite"]);
//! let data = TwoViewDataset::from_transactions(
//!     vocab,
//!     &[vec![0, 2], vec![0, 2], vec![0, 2], vec![1, 3], vec![1, 3], vec![0, 1, 2, 3]],
//! );
//! let model = translator_select(&data, &SelectConfig::builder().k(1).minsup(1).build());
//! assert!(model.compression_pct() <= 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod bounds;
pub mod cover;
pub mod cover_rows;
pub mod encoding;
pub mod engine;
pub mod error;
pub mod exact;
pub mod fit;
mod gains;
pub mod greedy;
pub mod model;
pub mod multiview;
pub mod persist;
pub mod predict;
pub mod rule;
pub mod select;
pub mod table;
pub mod table_io;
pub mod translate;

pub use analysis::{rule_set_redundancy, rule_stats, summarize, RuleStats, TableSummary};
pub use cover::{CellDelta, CoverState};
pub use cover_rows::RowCoverState;
pub use encoding::{correction_encoding_gap, CodeLengths};
pub use engine::{Engine, EngineBuilder, EngineStats};
pub use error::Error;
pub use exact::{
    translator_exact, translator_exact_seeded, translator_exact_with, ExactConfig,
    ExactConfigBuilder,
};
pub use fit::{fit, Algorithm};
pub use greedy::{translator_greedy, CandidateOrder, GreedyConfig, GreedyConfigBuilder};
pub use model::{evaluate_table, ModelScore, TraceStep, TranslatorModel};
pub use persist::{EngineSnapshotParts, InspectReport, SnapshotError};
pub use predict::{predict_row, prediction_quality, PredictionQuality};
pub use rule::{Direction, TranslationRule};
pub use select::{
    translator_select, translator_select_candidates, translator_select_candidates_with_stats,
    SelectConfig, SelectConfigBuilder, SelectStats,
};
pub use table::TranslationTable;
