//! The repo benchmark: see `README.md`.

#![warn(missing_docs)]

pub mod alloc;
pub mod check;
pub mod digest;
pub mod e2e;
pub mod host;
pub mod layers;
pub mod repeat;
pub mod report;
pub mod rng;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workload;
