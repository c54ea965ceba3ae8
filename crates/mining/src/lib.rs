//! # twoview-mining
//!
//! Itemset-mining substrate for the TRANSLATOR reproduction:
//!
//! * [`eclat`] — depth-first frequent itemset mining over tidsets;
//! * [`closed`] — closed frequent itemset mining (DCI-Closed-style
//!   order-preserving enumeration, no subsumption table);
//! * [`twoview`] — the candidate class used by TRANSLATOR-SELECT/-GREEDY:
//!   (closed) frequent itemsets that span both views, pre-split into their
//!   view projections.
//!
//! Every miner is deterministic and is cross-checked against brute-force
//! enumeration in the test-suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apriori;
pub mod closed;
pub mod eclat;
pub mod twoview;

pub use apriori::mine_apriori;
pub use closed::mine_closed;
pub use eclat::{mine_frequent, FrequentItemset, MinerConfig, MinerConfigBuilder, MiningResult};
pub use twoview::{
    mine_closed_twoview, mine_frequent_twoview, seed_tidsets_where, CandidateCache, CandidateSet,
    SeedBudget, SeedTidsets, TwoViewCandidate, PARALLEL_MIN_CANDIDATES, TIDSET_CACHE_BUDGET_BYTES,
};
