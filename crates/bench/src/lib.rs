//! # bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation section (§6) on the simulated substrate, plus the
//! ablation studies listed in DESIGN.md and the serving-layer sweeps.
//!
//! Each experiment is a function returning a vector of [`Row`]s, listed by
//! name in [`experiments::EXPERIMENTS`]; the `experiments` binary prints them
//! as CSV. Graph sizes are scaled down from the paper's cluster-scale
//! numbers (see DESIGN.md, substitutions) and are controlled by [`Scale`].

#![warn(missing_docs)]

pub mod ablations;
pub mod experiments;
pub mod harness;
pub mod serving;

pub use harness::{Row, Scale};
