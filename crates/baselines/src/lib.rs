//! # twoview-baselines
//!
//! The four comparison methods of the paper's evaluation (§6.3), each
//! implemented from its original publication:
//!
//! * [`assoc`] — classic cross-view association rule mining (Agrawal et
//!   al., SIGMOD'93): demonstrates the pattern explosion;
//! * [`magnum`] — significant rule discovery à la Magnum Opus (Webb, ML
//!   2007): Fisher exact tests with Bonferroni-style correction and a
//!   productivity filter;
//! * [`reremi`] — redescription mining à la ReReMi (Galbrun & Miettinen,
//!   SADM 2012), restricted to monotone conjunctions;
//! * [`krimp`](mod@krimp) — KRIMP (Vreeken et al., DMKD 2011) on the joint
//!   data, with the code-table→translation-table conversion the paper
//!   uses;
//! * [`fisher`] — exact hypergeometric testing shared by the above.
//!
//! Every baseline exposes a `to_translation_table` conversion so its output
//! can be scored with the paper's MDL criteria (`L%`, `|C|%`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assoc;
pub mod fisher;
pub mod krimp;
pub mod magnum;
pub mod reremi;

pub use assoc::{mine_association_rules, AssocConfig, AssocResult, AssociationRule};
pub use krimp::{krimp, KrimpConfig, KrimpModel};
pub use magnum::{
    magnum_opus_rules, magnum_opus_rules_holdout, MagnumConfig, MagnumResult, SignificantRule,
};
pub use reremi::{reremi_redescriptions, Redescription, ReremiConfig, ReremiResult};
