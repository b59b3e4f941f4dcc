//! # graph-gen
//!
//! Workload generation for the STwig reproduction: synthetic graph models
//! (R-MAT, Erdős–Rényi, preferential attachment), label-assignment models
//! (uniform and Zipf, parameterized by label density), dataset profiles that
//! stand in for the paper's real datasets (US Patents, WordNet, Facebook),
//! and the two query generators used in the evaluation (DFS queries and
//! random queries).

#![warn(missing_docs)]

pub mod datasets;
pub mod erdos_renyi;
pub mod labels;
pub mod power_law;
pub mod query_gen;
pub mod rmat;
pub mod rmat_stream;
pub mod synthetic;
pub mod update_stream;

pub use datasets::{facebook_like, patents_like, synthetic_experiment_graph, wordnet_like};
pub use labels::LabelModel;
pub use query_gen::{dfs_query, query_batch, random_query, zipf_workload};
pub use rmat::{rmat, RmatConfig};
pub use rmat_stream::{stream_cloud_with, RmatStream, StreamingLabels};
pub use synthetic::SyntheticGraph;
pub use update_stream::{update_stream, GraphMirror, UpdateStreamConfig};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::datasets::{
        facebook_like, patents_like, synthetic_experiment_graph, wordnet_like,
    };
    pub use crate::erdos_renyi::gnm;
    pub use crate::labels::LabelModel;
    pub use crate::power_law::preferential_attachment;
    pub use crate::query_gen::{dfs_query, query_batch, random_query, zipf_workload};
    pub use crate::rmat::{rmat, RmatConfig};
    pub use crate::rmat_stream::{stream_cloud_with, RmatStream, StreamingLabels};
    pub use crate::synthetic::SyntheticGraph;
    pub use crate::update_stream::{update_stream, GraphMirror, UpdateStreamConfig};
}
