//! What only the frozen repo benchmark (`benchmark/`) still calls, kept as
//! thin wrappers so its `prelude` imports keep resolving. The library's one
//! query entry point is [`crate::match_query`]; the next `[benchmark]` PR
//! moves the benchmark onto it and deletes this file.

use crate::cache::StwigCache;
use crate::config::MatchConfig;
use crate::distributed::{
    check_cache, check_faults, join_pass, match_query, plan_query, produce_tables, retire, Link,
    MatchOutput, QueryPlan, Run, StreamState, StwigTableSet,
};
use crate::error::StwigError;
use crate::metrics::{MachineMetrics, QueryMetrics};
use crate::query::{QVid, QueryGraph};
use crate::stream::{QueryControl, QueryOptions};
use crate::table::ResultTable;
use std::time::Instant;
use trinity_sim::network::Network;
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
    check_cache(cloud, cache)?;
    check_faults(config, control)?;
    let ledger = Network::new(cloud.num_machines());
    let link = Link::new(
        cloud,
        &ledger,
        config,
        control.and_then(QueryControl::faults),
    );
    // No slab: the config's own row cap bounds exploration.
    let cap = config.max_stwig_rows;
    let (tables, answerable) = produce_tables(
        cloud,
        query,
        plan,
        config,
        cap,
        cache,
        control,
        &link,
        metrics,
        machine_metrics,
    )?;
    metrics.fault.duplicates_suppressed += link.duplicates_suppressed();
    retire(cloud, &ledger, metrics);
    Ok(answerable.then_some(tables))
}

/// The join phase on its own: the executor's join pass over `tables`, into a
/// table in canonical column order, under the config's result limit.
pub fn join_stwig_tables(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    plan: &QueryPlan,
    tables: &StwigTableSet,
    config: &MatchConfig,
    metrics: &mut QueryMetrics,
    machine_metrics: &mut [MachineMetrics],
) -> Result<ResultTable, StwigError> {
    let started = Instant::now();
    let control = QueryControl::new(&QueryOptions::none(), started);
    let canonical: Vec<QVid> = query.vertices().collect();
    let limit = config.result_limit();
    let mut state = StreamState::begin(None, &canonical, started);
    let ledger = Network::new(cloud.num_machines());
    let link = Link::new(cloud, &ledger, config, control.faults());
    let pass = join_pass(
        cloud,
        plan,
        None,
        tables,
        config,
        limit,
        &control,
        &canonical,
        &link,
        metrics,
        machine_metrics,
        &mut state,
    )?;
    metrics.fault.duplicates_suppressed += link.duplicates_suppressed();
    retire(cloud, &ledger, metrics);
    metrics.truncated = limit.is_some() && !pass.exhausted;
    Ok(state
        .finish(metrics)
        .expect("the table output hands its table back"))
}
