//! # twoview-data
//!
//! Boolean **two-view dataset** substrate for the TRANSLATOR reproduction
//! (van Leeuwen & Galbrun, *Association Discovery in Two-View Data*).
//!
//! A two-view dataset is a bag of transactions `t = (t_L, t_R)` over two
//! disjoint item vocabularies `I_L` and `I_R`. This crate provides:
//!
//! * [`bitmap::Bitmap`] — dense bitsets used for transaction rows and as
//!   the dense half of every tidset;
//! * [`tidset::Tidset`] — adaptive sparse/dense transaction-id sets, the
//!   representation behind mining, the cover state and all seed caches;
//! * [`items`] — items, views ([`items::Side`]), vocabularies and itemsets;
//! * [`dataset::TwoViewDataset`] — the immutable dataset with both a row
//!   store (for translation) and per-item tidsets (for mining);
//! * [`io`] — a plain-text `.2v` persistence format;
//! * [`synthetic`] — a generator that plants cross-view concepts into
//!   noise, with ground truth returned for testing;
//! * [`corpus`] — synthetic analogues of the paper's 14 evaluation
//!   datasets, matched on the statistics of the paper's Table 1.
//!
//! ## Quick example
//!
//! ```
//! use twoview_data::prelude::*;
//!
//! let vocab = Vocabulary::new(["rainy", "cold"], ["umbrella", "coat"]);
//! let data = TwoViewDataset::from_transactions(
//!     vocab,
//!     &[vec![0, 2], vec![0, 1, 2, 3], vec![1, 3]],
//! );
//! assert_eq!(data.n_transactions(), 3);
//! assert_eq!(data.support(0), 2); // "rainy"
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod codec;
pub mod corpus;
pub mod dataset;
pub mod discretize;
pub mod error;
pub mod io;
pub mod items;
pub mod multiview;
pub mod sample;
pub mod split;
pub mod stats;
pub mod synthetic;
pub mod tidset;

/// Convenience re-exports of the most used types.
pub mod prelude {
    pub use crate::bitmap::Bitmap;
    pub use crate::corpus::PaperDataset;
    pub use crate::dataset::TwoViewDataset;
    pub use crate::error::DataError;
    pub use crate::items::{ItemId, ItemSet, Side, Vocabulary};
    pub use crate::synthetic::{
        generate, generate_with_vocab, StructureSpec, SyntheticDataset, SyntheticSpec,
    };
    pub use crate::tidset::{set_tidset_mode, tidset_mode, Tidset, TidsetMode};
}

pub use prelude::*;
