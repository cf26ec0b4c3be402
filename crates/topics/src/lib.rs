//! # nd-topics
//!
//! Topic modeling (paper §3.2). The production algorithm is
//! [Non-Negative Matrix Factorization](nmf) with the Frobenius
//! objective and Lee–Seung multiplicative updates — exactly Eq. (6)–(8)
//! of the paper. Three comparators from the paper's related-work
//! discussion are implemented for the design-choice ablation
//! ([`lda`] by collapsed Gibbs sampling, [`lsa`] by truncated SVD,
//! and [`plsi`] by EM), along with a [topic-coherence metric](coherence)
//! (UMass) to compare them quantitatively.
//!
//! All algorithms consume the weighted document-term matrix produced
//! by `nd-vectorize` and emit a common [`TopicModel`]: per-topic term
//! distributions plus per-document topic memberships.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coherence;
pub mod lda;
pub mod lsa;
pub mod model;
pub mod nmf;
pub mod plsi;

pub use model::{Topic, TopicModel};
pub use nmf::{Nmf, NmfConfig, WarmStart};
