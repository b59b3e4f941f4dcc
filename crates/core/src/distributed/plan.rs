//! The proxy's step (§4.3, step 1): decompose and order the query, build its
//! cluster graph and select the head STwig, once, centrally.

use crate::decompose::decompose_ordered;
use crate::error::StwigError;
use crate::head::{select_head, HeadSelection};
use crate::query::QueryGraph;
use crate::stwig::STwig;
use trinity_sim::cluster_graph::ClusterGraph;
use trinity_sim::MemoryCloud;

/// The centrally-computed query plan broadcast to every machine.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Ordered STwig decomposition (Algorithm 2).
    pub stwigs: Vec<STwig>,
    /// The query-specific cluster graph.
    pub cluster: ClusterGraph,
    /// Head STwig selection and root distances.
    pub head: HeadSelection,
}

/// Builds the query plan: decomposition + ordering by f-values
/// (`deg(v) / freq(label(v))`, Algorithm 2), cluster graph, head STwig and
/// the data needed for load sets.
pub fn plan_query(cloud: &MemoryCloud, query: &QueryGraph) -> Result<QueryPlan, StwigError> {
    let stwigs = decompose_ordered(query, cloud)?;
    let cluster = ClusterGraph::build(cloud.catalog(), &query.label_edges());
    if stwigs.is_empty() {
        return Err(StwigError::Internal(
            "plan_query requires a query with at least one edge".into(),
        ));
    }
    let head = select_head(query, &stwigs, &cluster);
    Ok(QueryPlan {
        stwigs,
        cluster,
        head,
    })
}
