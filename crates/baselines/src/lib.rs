//! # baselines
//!
//! Baseline subgraph-isomorphism matchers used for correctness cross-checks
//! and for the Table-1-style comparison experiments:
//!
//! * [`ullmann`](mod@ullmann) — Ullmann's 1976 backtracking algorithm with candidate
//!   refinement (Table 1, group 1);
//! * [`vf2`](mod@vf2) — a VF2-style state-space matcher (Cordella et al. 2004, also
//!   group 1);
//! * [`edge_join`](mod@edge_join) — an RDF-3X/BitMat-style edge-index join matcher
//!   (Table 1, group 2), the strategy §3 of the paper argues against;
//! * [`signature`] — a GraphQL/Zhao-Han-style neighborhood-signature index
//!   matcher (Table 1, group 4), whose index is the super-linear structure
//!   the paper rules out at billion-node scale.
//!
//! All baselines operate on the whole memory cloud as if it were a single
//! in-memory graph (they ignore partitioning), which is exactly the setting
//! the paper's Table 1 assumes for the competing approaches.

#![warn(missing_docs)]

pub mod common;
pub mod edge_join;
pub mod signature;
pub mod ullmann;
pub mod vf2;

pub use edge_join::{edge_join, EdgeJoinStats};
pub use signature::{signature_match, SignatureIndex};
pub use ullmann::ullmann;
pub use vf2::vf2;
