//! # stwig
//!
//! A from-scratch Rust reproduction of the STwig subgraph-matching system of
//! *Efficient Subgraph Matching on Billion Node Graphs* (Sun, Wang, Wang,
//! Shao, Li — PVLDB 5(9), 2012), running on the simulated Trinity memory
//! cloud provided by the [`trinity_sim`] crate.
//!
//! The approach uses **no structural index** — only the linear-size string
//! index mapping labels to vertex ids. A query is decomposed into two-level
//! tree units (*STwigs*), matched by in-memory graph exploration with binding
//! propagation between STwigs, and assembled by a pipelined multi-way join.
//! A head-STwig / load-set optimizer keeps the distributed execution's
//! per-machine answers disjoint while bounding communication.
//!
//! ## Module map (paper section → module)
//!
//! | Paper | Module |
//! |---|---|
//! | §2.1 query model | [`query`] |
//! | §4.1 STwig + Algorithm 1 | [`stwig`], [`matcher`] |
//! | §4.2 exploration & bindings | [`bindings`], [`distributed`] |
//! | §4.2 step 3 joins | [`table`], [`join`], [`pipeline`] |
//! | §5.1–5.2 decomposition + ordering (Algorithm 2) | [`decompose`] |
//! | §5.3 head STwig & load sets | [`head`] |
//! | §4.3 distributed execution | [`distributed`] |
//! | — | [`config`], [`metrics`], [`verify`], [`error`] |
//!
//! ## Quick start
//!
//! ```
//! use trinity_sim::prelude::*;
//! use stwig::prelude::*;
//!
//! // Build a small labeled graph partitioned over 2 logical machines.
//! let mut gb = GraphBuilder::default();
//! gb.add_vertex(VertexId(1), "person");
//! gb.add_vertex(VertexId(2), "person");
//! gb.add_vertex(VertexId(3), "city");
//! gb.add_edge(VertexId(1), VertexId(2));
//! gb.add_edge(VertexId(1), VertexId(3));
//! gb.add_edge(VertexId(2), VertexId(3));
//! let cloud = gb.build(2, CostModel::default());
//!
//! // Query: two persons that know each other and live in the same city.
//! let mut qb = QueryGraph::builder();
//! let p1 = qb.vertex_by_name(&cloud, "person").unwrap();
//! let p2 = qb.vertex_by_name(&cloud, "person").unwrap();
//! let c = qb.vertex_by_name(&cloud, "city").unwrap();
//! qb.edge(p1, p2).edge(p1, c).edge(p2, c);
//! let query = qb.build().unwrap();
//!
//! let out = match_query(&cloud, &query, &MatchConfig::default(), Run::default()).unwrap();
//! assert_eq!(out.num_matches(), 2); // (1,2,3) and (2,1,3)
//! ```

#![warn(missing_docs)]

pub mod bindings;
pub mod cache;
#[doc(hidden)]
pub mod compat;
pub mod config;
pub mod decompose;
pub mod distributed;
pub mod engine;
pub mod error;
pub mod head;
pub mod join;
pub mod matcher;
pub mod metrics;
pub mod pattern;
pub mod pipeline;
pub mod query;
pub mod retry;
pub mod serve;
pub mod stream;
pub mod stwig;
pub mod table;
pub mod verify;

pub use cache::{CacheConfig, CacheLookup, StwigCache};
pub use config::{MatchConfig, ResultMode, TransportMode};
pub use distributed::{match_query, plan_query, MatchOutput, QueryPlan, Run, StwigTableSet};
pub use engine::{EngineConfig, QueryEngine};
pub use error::StwigError;
pub use metrics::{
    CacheStats, EngineStats, FaultCounters, MetricsSnapshot, PhaseTraffic, QueryMetrics,
    QueryOutcome, SchedulerStats,
};
pub use pattern::parse_pattern;
pub use query::{QVid, QueryGraph, QueryGraphBuilder};
pub use retry::{FailurePolicy, Faults, RetryPolicy};
pub use serve::{
    AdmissionConfig, QueryHandle, QueryRequest, QueryResponse, QueryStatus, RejectReason,
    ServeConfig, Submit, TenantId, TenantStats,
};
pub use stream::{CancelToken, ChannelSink, QueryOptions, ResultSink, RowBatch, RowStream};
pub use stwig::STwig;
pub use table::ResultTable;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::cache::{CacheConfig, CacheLookup, StwigCache, StwigShape};
    #[doc(hidden)]
    pub use crate::compat::{
        join_stwig_tables, match_query_distributed, match_query_distributed_with_cache,
        plan_query_with_config, produce_stwig_tables,
    };
    pub use crate::config::{MatchConfig, ResultMode, TransportMode};
    pub use crate::decompose::{
        decompose_ordered, decompose_random, LabelStatistics, UniformStats,
    };
    pub use crate::distributed::{
        match_query, plan_query, MatchOutput, QueryPlan, Run, StwigTableSet,
    };
    pub use crate::engine::{EngineConfig, QueryEngine};
    pub use crate::error::StwigError;
    pub use crate::head::{load_set, HeadSelection};
    pub use crate::metrics::{
        CacheStats, EngineStats, FaultCounters, MetricsSnapshot, PhaseTraffic, QueryMetrics,
        QueryOutcome, SchedulerStats,
    };
    pub use crate::pattern::parse_pattern;
    pub use crate::query::{QVid, QueryGraph, QueryGraphBuilder};
    pub use crate::retry::{FailurePolicy, Faults, RetryPolicy};
    pub use crate::serve::{
        AdmissionConfig, QueryHandle, QueryRequest, QueryResponse, QueryStatus, RejectReason,
        ServeConfig, Submit, TenantId, TenantStats,
    };
    pub use crate::stream::{
        CancelToken, ChannelSink, QueryOptions, ResultSink, RowBatch, RowStream,
    };
    pub use crate::stwig::STwig;
    pub use crate::table::ResultTable;
    pub use crate::verify::{canonical_rows, same_answer, verify_all};
}
