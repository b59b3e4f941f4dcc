//! What only the frozen repo benchmark (`benchmark/`) still calls, kept as
//! thin wrappers so its `prelude` imports keep resolving. The library's one
//! query entry point is [`crate::match_query`]; the next `[benchmark]` PR
//! moves the benchmark onto it and deletes this file.

use crate::cache::StwigCache;
use crate::config::MatchConfig;
use crate::distributed::{
    self, match_query, plan_query, MatchOutput, QueryPlan, Run, StwigTableSet,
};
use crate::error::StwigError;
use crate::metrics::{MachineMetrics, QueryMetrics};
use crate::query::QueryGraph;
use crate::stream::QueryControl;
use crate::table::ResultTable;
use trinity_sim::MemoryCloud;

/// [`match_query`] with `Run::default()`.
pub fn match_query_distributed(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    config: &MatchConfig,
) -> Result<MatchOutput, StwigError> {
    match_query(cloud, query, config, Run::default())
}

/// [`match_query`] with `cache` and nothing else.
pub fn match_query_distributed_with_cache(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    config: &MatchConfig,
    cache: Option<&StwigCache>,
) -> Result<MatchOutput, StwigError> {
    let run = Run {
        cache,
        ..Run::default()
    };
    match_query(cloud, query, config, run)
}

/// [`plan_query`]; the config plans nothing.
pub fn plan_query_with_config(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    _config: &MatchConfig,
) -> Result<QueryPlan, StwigError> {
    plan_query(cloud, query)
}

/// The exploration phase on its own: every machine matches every STwig in
/// plan order with binding synchronization between STwigs, optionally
/// consulting `cache`. `Ok(None)` proves the query has no answer unless
/// `control` interrupted it.
#[allow(clippy::too_many_arguments)]
pub fn produce_stwig_tables(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    plan: &QueryPlan,
    config: &MatchConfig,
    cache: Option<&StwigCache>,
    control: Option<&QueryControl>,
    metrics: &mut QueryMetrics,
    machine_metrics: &mut [MachineMetrics],
) -> Result<Option<StwigTableSet>, StwigError> {
    distributed::produce_stwig_tables(
        cloud,
        query,
        plan,
        config,
        cache,
        control,
        metrics,
        machine_metrics,
    )
}

/// The join phase on its own: the executor's join pass over `tables`, into a
/// table in canonical column order.
pub fn join_stwig_tables(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    plan: &QueryPlan,
    tables: &StwigTableSet,
    config: &MatchConfig,
    metrics: &mut QueryMetrics,
    machine_metrics: &mut [MachineMetrics],
) -> Result<ResultTable, StwigError> {
    distributed::join_stwig_tables(cloud, query, plan, tables, config, metrics, machine_metrics)
}
