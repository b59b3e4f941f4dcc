//! Seeded update-stream generation for dynamic-graph experiments.
//!
//! A dynamic workload is a sequence of [`UpdateBatch`]es replayed against a
//! [`trinity_sim::epoch::GraphEpochs`] manager. This module generates such
//! streams deterministically from a seed, guaranteed valid against the
//! evolving graph: the generator maintains a [`GraphMirror`] — a plain
//! adjacency-map replica of the cloud — and only emits operations the mirror
//! proves legal (no edge to an unknown vertex, no removal of an absent
//! vertex). Differential tests reuse the same mirror as the reference graph
//! for VF2 and rebuild it into a fresh [`MemoryCloud`] at any point of the
//! stream with [`GraphMirror::build_cloud`].
//!
//! Determinism matters here for the same reason it does everywhere else in
//! this reproduction: the stream is a pure function of `(cloud, config)`, so
//! a failing interleaving replays exactly from its seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use trinity_sim::builder::GraphBuilder;
use trinity_sim::epoch::{UpdateBatch, UpdateOp};
use trinity_sim::ids::VertexId;
use trinity_sim::network::CostModel;
use trinity_sim::MemoryCloud;

/// Configuration for [`update_stream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateStreamConfig {
    /// Number of batches to generate.
    pub num_batches: usize,
    /// Approximate operations per batch (vertex inserts may carry one
    /// attachment edge, so batches can run slightly over).
    pub ops_per_batch: usize,
    /// RNG seed; the stream is a pure function of `(cloud, config)`.
    pub seed: u64,
    /// Probability an operation targets an edge rather than a vertex.
    pub edge_bias: f64,
    /// Probability a structural operation inserts rather than deletes.
    pub insert_bias: f64,
    /// Probability a vertex insertion becomes a relabel of an existing
    /// vertex instead (exercises the touched-entry log).
    pub relabel_bias: f64,
}

impl Default for UpdateStreamConfig {
    fn default() -> Self {
        UpdateStreamConfig {
            num_batches: 8,
            ops_per_batch: 16,
            seed: 42,
            edge_bias: 0.7,
            insert_bias: 0.5,
            relabel_bias: 0.2,
        }
    }
}

/// A plain single-process replica of a graph, used both to validate
/// generated update streams and as the reference graph in differential
/// tests.
///
/// `apply` mirrors [`trinity_sim::epoch::GraphEpochs::apply`] semantics
/// exactly: `AddVertex` of an existing id relabels it, `RemoveVertex`
/// cascades over incident edges, self-loop `AddEdge` and absent-edge
/// `RemoveEdge` are silent no-ops.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphMirror {
    /// Vertex id → label name. `BTreeMap` so iteration (and therefore
    /// sampling by index) is deterministic.
    vertices: BTreeMap<u64, String>,
    /// Undirected edges, stored with `u < v`.
    edges: BTreeSet<(u64, u64)>,
    /// First id guaranteed unused by any vertex ever seen (inserts allocate
    /// from here; removals never recycle, matching fresh-id semantics).
    next_id: u64,
    /// Distinct label names observed, in first-seen order — the pool new
    /// vertices draw from.
    label_pool: Vec<String>,
}

fn ekey(u: u64, v: u64) -> (u64, u64) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

impl GraphMirror {
    /// Replicates `cloud` (vertices, labels, edges) into a mirror. The label
    /// pool is seeded in the cloud's interning order so that
    /// [`GraphMirror::build_cloud`] assigns the exact same `LabelId`s —
    /// queries built against one cloud stay valid against the other.
    pub fn from_cloud(cloud: &MemoryCloud) -> Self {
        let mut mirror = GraphMirror::default();
        for i in 0..cloud.labels().len() {
            let name = cloud
                .labels()
                .name(trinity_sim::ids::LabelId(i as u32))
                .expect("interner ids are dense");
            mirror.label_pool.push(name.to_string());
        }
        for id in cloud.iter_vertices() {
            let label = cloud
                .label_of_global(id)
                .and_then(|l| cloud.labels().name(l))
                .expect("every cloud vertex has an interned label");
            mirror.insert_vertex(id.raw(), label);
        }
        for id in cloud.iter_vertices() {
            for n in cloud.neighbors_global(id) {
                mirror.edges.insert(ekey(id.raw(), n.raw()));
            }
        }
        mirror
    }

    fn insert_vertex(&mut self, id: u64, label: &str) {
        if !self.label_pool.iter().any(|l| l == label) {
            self.label_pool.push(label.to_string());
        }
        self.vertices.insert(id, label.to_string());
        self.next_id = self.next_id.max(id + 1);
    }

    /// Number of vertices currently present.
    pub(crate) fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of undirected edges currently present.
    pub(crate) fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The label name of `id`, if present.
    pub fn label_of(&self, id: VertexId) -> Option<&str> {
        self.vertices.get(&id.raw()).map(String::as_str)
    }

    /// Whether the undirected edge `{u, v}` is present.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edges.contains(&ekey(u.raw(), v.raw()))
    }

    /// Applies `batch` with the same semantics as
    /// [`trinity_sim::epoch::GraphEpochs::apply`]. Panics on an invalid
    /// operation (unknown vertex) — generated streams are valid by
    /// construction, so a panic here is a bug in the caller's bookkeeping.
    pub fn apply(&mut self, batch: &UpdateBatch) {
        for op in batch.ops() {
            match op {
                UpdateOp::AddVertex { id, label } => {
                    self.insert_vertex(id.raw(), label);
                }
                UpdateOp::RemoveVertex { id } => {
                    assert!(
                        self.vertices.remove(&id.raw()).is_some(),
                        "RemoveVertex of unknown vertex {id:?}"
                    );
                    let raw = id.raw();
                    self.edges.retain(|&(a, b)| a != raw && b != raw);
                }
                UpdateOp::AddEdge { u, v } => {
                    if u == v {
                        continue;
                    }
                    for end in [u, v] {
                        assert!(
                            self.vertices.contains_key(&end.raw()),
                            "AddEdge endpoint {end:?} unknown"
                        );
                    }
                    self.edges.insert(ekey(u.raw(), v.raw()));
                }
                UpdateOp::RemoveEdge { u, v } => {
                    self.edges.remove(&ekey(u.raw(), v.raw()));
                }
            }
        }
    }

    /// Builds a fresh static [`MemoryCloud`] with the mirror's exact
    /// vertex/edge/label content — the reference graph a differential test
    /// compares the epoch overlay against.
    pub fn build_cloud(&self, num_machines: usize, cost: CostModel) -> MemoryCloud {
        let mut gb = GraphBuilder::default();
        // Intern the pool first, in order, so LabelIds match the source
        // cloud's regardless of which vertices survived.
        for label in &self.label_pool {
            gb.intern_label(label);
        }
        for (&id, label) in &self.vertices {
            gb.add_vertex(VertexId(id), label);
        }
        for &(u, v) in &self.edges {
            gb.add_edge(VertexId(u), VertexId(v));
        }
        gb.build(num_machines, cost)
    }

    fn nth_vertex(&self, index: usize) -> u64 {
        *self
            .vertices
            .keys()
            .nth(index)
            .expect("index bounded by num_vertices")
    }

    fn nth_edge(&self, index: usize) -> (u64, u64) {
        *self
            .edges
            .iter()
            .nth(index)
            .expect("index bounded by num_edges")
    }
}

/// Generates a deterministic stream of valid update batches for `cloud`.
///
/// Each batch is valid against the graph as mutated by every batch before
/// it, so the whole stream replays through
/// [`trinity_sim::epoch::GraphEpochs::apply`] without errors. Panics if the
/// cloud has no vertices (there is nothing to churn).
pub fn update_stream(cloud: &MemoryCloud, config: &UpdateStreamConfig) -> Vec<UpdateBatch> {
    let mut mirror = GraphMirror::from_cloud(cloud);
    assert!(
        mirror.num_vertices() > 0,
        "update streams need a non-empty base graph"
    );
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut batches = Vec::with_capacity(config.num_batches);
    for _ in 0..config.num_batches {
        let mut batch = UpdateBatch::new();
        for _ in 0..config.ops_per_batch {
            // `next_op` validates against mirror + the ops already queued,
            // so intra-batch dependencies (edge to a vertex added earlier in
            // the same batch) stay legal.
            batch = next_op(&mirror, &mut rng, config, batch);
        }
        mirror.apply(&batch);
        batches.push(batch);
    }
    batches
}

/// Appends one (occasionally two, for vertex-insert attachment) valid
/// operations to `batch`, consulting `mirror` for current state plus the
/// ops already in `batch`.
fn next_op(
    mirror: &GraphMirror,
    rng: &mut SmallRng,
    config: &UpdateStreamConfig,
    batch: UpdateBatch,
) -> UpdateBatch {
    // Pending view: mirror + the ops already queued in this batch.
    let mut pending = mirror.clone();
    pending.apply(&batch);

    let edge_op = rng.gen_bool(config.edge_bias.clamp(0.0, 1.0));
    let insert = rng.gen_bool(config.insert_bias.clamp(0.0, 1.0));

    if edge_op && insert && pending.num_vertices() >= 2 {
        // Try a few times for a non-edge between existing vertices.
        for _ in 0..8 {
            let u = pending.nth_vertex(rng.gen_range(0..pending.num_vertices()));
            let v = pending.nth_vertex(rng.gen_range(0..pending.num_vertices()));
            if u != v && !pending.edges.contains(&ekey(u, v)) {
                return batch.add_edge(VertexId(u), VertexId(v));
            }
        }
        // Dense pocket: fall through to vertex insertion below.
    } else if edge_op && !insert && pending.num_edges() > 0 {
        let (u, v) = pending.nth_edge(rng.gen_range(0..pending.num_edges()));
        return batch.remove_edge(VertexId(u), VertexId(v));
    } else if !edge_op && !insert && pending.num_vertices() > 1 {
        // Keep at least one vertex so sampling never starves.
        let id = pending.nth_vertex(rng.gen_range(0..pending.num_vertices()));
        return batch.remove_vertex(VertexId(id));
    }

    // Vertex insertion (also the fallback when deletions have nothing to
    // delete). With `relabel_bias`, flip an existing vertex's label instead.
    if rng.gen_bool(config.relabel_bias.clamp(0.0, 1.0)) && pending.num_vertices() > 0 {
        let id = pending.nth_vertex(rng.gen_range(0..pending.num_vertices()));
        let label = &pending.label_pool[rng.gen_range(0..pending.label_pool.len())];
        return batch.add_vertex(VertexId(id), label);
    }
    let id = pending.next_id;
    let label = pending.label_pool[rng.gen_range(0..pending.label_pool.len())].clone();
    let batch = batch.add_vertex(VertexId(id), &label);
    if pending.num_vertices() > 0 {
        // Attach the newcomer so it can participate in matches.
        let anchor = pending.nth_vertex(rng.gen_range(0..pending.num_vertices()));
        return batch.add_edge(VertexId(id), VertexId(anchor));
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinity_sim::epoch::GraphEpochs;

    fn small_cloud() -> MemoryCloud {
        let mut gb = GraphBuilder::default();
        for i in 0..12u64 {
            gb.add_vertex(VertexId(i), if i % 3 == 0 { "a" } else { "b" });
        }
        for i in 0..12u64 {
            gb.add_edge(VertexId(i), VertexId((i + 1) % 12));
        }
        gb.build(2, CostModel::default())
    }

    #[test]
    fn stream_is_deterministic_for_a_seed() {
        let cloud = small_cloud();
        let config = UpdateStreamConfig::default();
        let a = update_stream(&cloud, &config);
        let b = update_stream(&cloud, &config);
        assert_eq!(a, b);
        let other = update_stream(&cloud, &UpdateStreamConfig { seed: 43, ..config });
        assert_ne!(a, other);
    }

    #[test]
    fn stream_replays_cleanly_through_graph_epochs() {
        let cloud = small_cloud();
        let config = UpdateStreamConfig {
            num_batches: 12,
            ops_per_batch: 8,
            ..UpdateStreamConfig::default()
        };
        let batches = update_stream(&cloud, &config);
        assert_eq!(batches.len(), 12);
        let epochs = GraphEpochs::new(cloud);
        for batch in &batches {
            epochs.apply(batch).expect("generated batches are valid");
        }
    }

    #[test]
    fn mirror_tracks_the_epoch_overlay_exactly() {
        let cloud = small_cloud();
        let mut mirror = GraphMirror::from_cloud(&cloud);
        let config = UpdateStreamConfig {
            num_batches: 6,
            ops_per_batch: 10,
            seed: 7,
            ..UpdateStreamConfig::default()
        };
        let batches = update_stream(&cloud, &config);
        let epochs = GraphEpochs::new(cloud);
        for batch in &batches {
            epochs.apply(batch).unwrap();
            mirror.apply(batch);
        }
        let snap = epochs.pin();
        assert_eq!(snap.num_vertices(), mirror.num_vertices() as u64);
        assert_eq!(snap.num_edges(), mirror.num_edges() as u64);
        for id in snap.iter_vertices() {
            let name = snap.labels().name(snap.label_of_global(id).unwrap());
            assert_eq!(name, mirror.label_of(id));
            for n in snap.neighbors_global(id) {
                assert!(mirror.has_edge(id, n));
            }
        }
    }

    #[test]
    fn rebuilt_cloud_matches_the_mirror() {
        let cloud = small_cloud();
        let config = UpdateStreamConfig::default();
        let batches = update_stream(&cloud, &config);
        let mut mirror = GraphMirror::from_cloud(&cloud);
        for batch in &batches {
            mirror.apply(batch);
        }
        let rebuilt = mirror.build_cloud(3, CostModel::default());
        assert_eq!(rebuilt.num_vertices(), mirror.num_vertices() as u64);
        assert_eq!(rebuilt.num_edges(), mirror.num_edges() as u64);
    }
}
