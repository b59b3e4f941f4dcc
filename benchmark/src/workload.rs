//! The four pinned workloads and the seeded inputs of one run.
//!
//! A workload pins its *data set* — graph, labels, query pool, how often
//! each query is asked and the update log, all generated from
//! [`DATASET_SEED`] — and its serving configuration; the `--seed` of a run
//! decides the *order* the requests arrive in, and with it which query meets
//! which cache and graph state. The split is deliberate. Between two R-MAT
//! instances or two samples of 240 queries the mean query cost differs by
//! 12–15 %, and between two random Zipf draws of 1000 requests a pass's
//! work differs by 10 % (measured; see README.md), which would drown a
//! regression bound of that size, whereas two orderings of the same requests
//! cost the same. The program under test receives only the generated inputs.

use crate::digest::Digest;
use crate::rng::{derive, fold, SplitMix};
use baselines::vf2;
use graph_gen::prelude::*;
use stwig::prelude::*;
use trinity_sim::epoch::{UpdateBatch, UpdateOp};
use trinity_sim::ids::VertexId;
use trinity_sim::loader::StreamLoader;
use trinity_sim::prelude::{CostModel, StorageTier};
use trinity_sim::MemoryCloud;

/// Seed of every workload's graph, labels and query pool.
pub const DATASET_SEED: u64 = 0x5157_1612;
/// Logical machines of every workload's cloud.
pub const MACHINES: usize = 4;
/// The paper's serving cut-off: the first 1024 matches.
pub const FIRST_K: usize = 1024;
/// Per-STwig, per-machine exploration cap of the paper's serving config.
pub const MAX_STWIG_ROWS: usize = 65_536;

/// How the client receives rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// `submit()`: the table is materialized and handed over by `wait()`.
    Collect,
    /// `submit_streaming()`: rows arrive on a channel while the query runs.
    Stream,
}

/// Update churn interleaved with the query stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Churn {
    /// An `apply_updates` batch precedes every `every`-th query.
    pub every: usize,
    /// Operations per batch.
    pub ops_per_batch: usize,
    /// A `seal_epoch` precedes every `seal_every`-th query.
    pub seal_every: usize,
}

/// One pinned workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line; copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// R-MAT vertex count.
    pub vertices: u64,
    /// R-MAT average degree.
    pub avg_degree: f64,
    /// Size of the uniform label alphabet.
    pub labels: usize,
    /// Whether the cloud is built by the streaming loader (no edge list in
    /// memory) or by `GraphBuilder` from a materialized edge list.
    pub streamed: bool,
    /// Vertices per DFS query.
    pub query_nodes: usize,
    /// Distinct queries generated.
    pub pool: usize,
    /// Queries per pass. With `zipf: None` this equals `pool` and every
    /// query is asked once per pass.
    pub draws: usize,
    /// Zipf exponent of the popularity draw over the pool.
    pub zipf: Option<f64>,
    /// Tenants the requests are spread over (round robin).
    pub tenants: usize,
    /// Row delivery.
    pub delivery: Delivery,
    /// Result mode of the engine's match config.
    pub result_mode: ResultMode,
    /// Whether the engine runs with the default 64 MB STwig cache.
    pub cache: bool,
    /// Transport mode of the match config.
    pub transport: TransportMode,
    /// Update churn, for the dynamic workload.
    pub churn: Option<Churn>,
    /// Enumerating workloads only: sampled queries with more matches than
    /// this are dropped. Their STwig tables outgrow the 65,536-row
    /// exploration cap, so the engine's table would be truncated and could
    /// not be checked against VF2, and one such query costs as much as a
    /// hundred others.
    pub max_matches: usize,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "explore_128k",
        why: "streamed 2^17-vertex R-MAT beyond L2, first-1024 over Messages, cache off: exploration, storage decode and transport dominate; join and cache are bypassed",
        vertices: 1 << 17,
        avg_degree: 16.0,
        labels: 256,
        streamed: true,
        query_nodes: 6,
        pool: 240,
        draws: 240,
        zipf: None,
        tenants: 1,
        delivery: Delivery::Collect,
        result_mode: ResultMode::FirstK(FIRST_K),
        cache: false,
        transport: TransportMode::Messages,
        churn: None,
        max_matches: usize::MAX,
    },
    Spec {
        name: "join_dense",
        why: "20k-vertex R-MAT inside L2, full enumeration (10^4 rows a query) through the materialized executor, DirectRead, cache off: join and table memory weigh most here; transport is bypassed",
        vertices: 20_000,
        avg_degree: 16.0,
        labels: 40,
        streamed: false,
        query_nodes: 5,
        pool: 200,
        draws: 200,
        zipf: None,
        tenants: 1,
        delivery: Delivery::Collect,
        result_mode: ResultMode::All,
        cache: false,
        transport: TransportMode::DirectRead,
        churn: None,
        max_matches: 100_000,
    },
    Spec {
        name: "serve_zipf",
        why: "Zipf(1.1) repeats of a 64-query pool, two tenants, streamed first-1024, warm 64 MB cache: cache hits, scheduler hand-off and row delivery dominate; exploration is bypassed",
        vertices: 20_000,
        avg_degree: 16.0,
        labels: 40,
        streamed: false,
        query_nodes: 5,
        pool: 64,
        draws: 1000,
        zipf: Some(1.1),
        tenants: 2,
        delivery: Delivery::Stream,
        result_mode: ResultMode::FirstK(FIRST_K),
        cache: true,
        transport: TransportMode::DirectRead,
        churn: None,
        max_matches: usize::MAX,
    },
    Spec {
        name: "churn_mix",
        why: "the serve_zipf stream on a dynamic engine with an update batch every 16 queries and a seal every 256: cache revalidation, overlay reads and seals, so a read-side gain that costs writes shows",
        vertices: 20_000,
        avg_degree: 16.0,
        labels: 40,
        streamed: false,
        query_nodes: 5,
        pool: 64,
        draws: 400,
        zipf: Some(1.1),
        tenants: 2,
        delivery: Delivery::Stream,
        result_mode: ResultMode::FirstK(FIRST_K),
        cache: true,
        transport: TransportMode::DirectRead,
        churn: Some(Churn {
            every: 16,
            ops_per_batch: 16,
            seal_every: 256,
        }),
        max_matches: usize::MAX,
    },
];

/// Looks a workload up by name.
pub fn spec_by_name(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// Rows after which the VF2 oracle stops: one past what the workload can
    /// deliver, which is enough to tell whether the cut-off was reached.
    pub fn oracle_limit(&self) -> usize {
        match self.result_mode {
            ResultMode::All => self.max_matches.saturating_add(1),
            ResultMode::FirstK(k) => k + 1,
            ResultMode::Exists => 2,
        }
    }

    /// The per-query match configuration. Every mode switch is set here, in
    /// code, so no `STWIG_*` variable can change what is measured.
    pub fn match_config(&self) -> MatchConfig {
        MatchConfig {
            result_mode: self.result_mode,
            max_stwig_rows: Some(MAX_STWIG_ROWS),
            num_threads: Some(1),
            transport_mode: self.transport,
            fault_plan: None,
            pruning: false,
            ..MatchConfig::default()
        }
    }

    /// The engine configuration: one serving worker, one executor thread.
    pub fn engine_config(&self) -> EngineConfig {
        self.engine_config_with_cache(self.cache.then(CacheConfig::default))
    }

    /// [`Spec::engine_config`] with an explicit cache configuration.
    pub fn engine_config_with_cache(&self, cache: Option<CacheConfig>) -> EngineConfig {
        EngineConfig {
            workers: Some(1),
            cache,
            match_config: self.match_config(),
            serve: ServeConfig::default(),
        }
    }
}

/// The graph of a run, held the way the loader under test consumes it.
#[derive(Debug, Clone)]
pub enum GraphInput {
    /// Counter-based edge stream plus hashed labels (nothing materialized).
    Streamed {
        /// The R-MAT edge stream.
        stream: RmatStream,
        /// The label assignment.
        labels: StreamingLabels,
    },
    /// A labeled edge list in memory.
    Materialized(SyntheticGraph),
}

impl GraphInput {
    /// Generates the workload's pinned graph.
    pub fn generate(spec: &Spec) -> GraphInput {
        let seed = DATASET_SEED;
        let config = RmatConfig::with_avg_degree(spec.vertices, spec.avg_degree, derive(seed, 1));
        let model = LabelModel::Uniform {
            num_labels: spec.labels,
        };
        if spec.streamed {
            GraphInput::Streamed {
                stream: RmatStream::new(config),
                labels: StreamingLabels::new(model, derive(seed, 2)),
            }
        } else {
            let labels = model.assign(spec.vertices, derive(seed, 2));
            GraphInput::Materialized(rmat(&config).with_labels(labels, spec.labels))
        }
    }

    /// Loads the graph into a cloud on `tier` — the loader layer's work.
    pub fn build_cloud(&self, tier: StorageTier) -> MemoryCloud {
        match self {
            GraphInput::Streamed { stream, labels } => stream_cloud_with(
                stream,
                labels,
                StreamLoader::new(MACHINES, CostModel::default()).with_storage_tier(tier),
            )
            .expect("the generated stream names only its own vertices"),
            GraphInput::Materialized(graph) => graph
                .to_builder()
                .with_storage_tier(tier)
                .build(MACHINES, CostModel::default()),
        }
    }
}

/// One step of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Ask query `query` of the pool on behalf of tenant `tenant`.
    Query {
        /// Index into [`Inputs::queries`].
        query: usize,
        /// Tenant index.
        tenant: usize,
    },
    /// Apply update batch `0` of [`Inputs::batches`], then the next, ….
    Update(usize),
    /// Seal the current epoch.
    Seal,
}

/// Everything a pass replays, derived from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The distinct queries.
    pub queries: Vec<QueryGraph>,
    /// `baselines::vf2`'s answer to each query on the unchanged graph: the
    /// whole table's digest when enumerating, else only `rows` is meaningful
    /// (VF2 stops one past the first-k cut-off).
    pub oracle: Vec<Digest>,
    /// Update batches, in application order (empty without churn).
    pub batches: Vec<UpdateBatch>,
    /// The request sequence of one pass.
    pub ops: Vec<Op>,
    /// Hash of graph parameters, queries, batches and sequence: equal for
    /// equal seeds, different otherwise.
    pub sequence_hash: u64,
}

impl Inputs {
    /// Generates the query pool, and from `seed` the update stream and the
    /// request sequence, for `spec` against `cloud` (the workload's graph,
    /// already loaded — DFS queries are sampled from the data graph, as in
    /// §6.1 of the paper).
    pub fn generate(spec: &Spec, seed: u64, cloud: &MemoryCloud) -> Inputs {
        let (queries, oracle) = sample_queries(spec, derive(DATASET_SEED, 3), cloud);
        // How often each query is asked per pass is pinned (once each, or
        // its exact Zipf share); the seed decides the order.
        let mut draws: Vec<usize> = match spec.zipf {
            Some(exponent) => zipf_counts(queries.len(), spec.draws, exponent)
                .into_iter()
                .enumerate()
                .flat_map(|(query, count)| std::iter::repeat_n(query, count))
                .collect(),
            None => (0..queries.len()).collect(),
        };
        let mut rng = SplitMix(derive(seed, 4));
        for i in (1..draws.len()).rev() {
            draws.swap(i, rng.below(i + 1));
        }
        // The update log is part of the pinned data set.
        let batches = match spec.churn {
            Some(churn) => update_stream(
                cloud,
                &UpdateStreamConfig {
                    num_batches: draws.len() / churn.every,
                    ops_per_batch: churn.ops_per_batch,
                    seed: derive(DATASET_SEED, 5),
                    ..UpdateStreamConfig::default()
                },
            ),
            None => Vec::new(),
        };
        let mut ops = Vec::with_capacity(draws.len() + batches.len() + 2);
        let mut next_batch = 0;
        for (i, &query) in draws.iter().enumerate() {
            if let Some(churn) = spec.churn {
                if i > 0 && i % churn.seal_every == 0 {
                    ops.push(Op::Seal);
                }
                if i % churn.every == churn.every - 1 && next_batch < batches.len() {
                    ops.push(Op::Update(next_batch));
                    next_batch += 1;
                }
            }
            ops.push(Op::Query {
                query,
                tenant: i % spec.tenants,
            });
        }
        let sequence_hash = hash_inputs(spec, &queries, &batches, &ops);
        Inputs {
            queries,
            oracle,
            batches,
            ops,
            sequence_hash,
        }
    }
}

/// How often each of `pool` queries is asked among `draws` requests when
/// query `i` has probability ∝ `1 / (i + 1)^exponent`: the exact shares,
/// rounded by largest remainder so they sum to `draws`. Random draws would
/// give the same counts on average, but a pass's total work would then
/// differ by 10 % between seeds (the rare queries are the expensive ones).
pub fn zipf_counts(pool: usize, draws: usize, exponent: f64) -> Vec<usize> {
    let weights: Vec<f64> = (0..pool)
        .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w / total * draws as f64).collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..pool).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (shares[a].fract(), shares[b].fract());
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let missing = draws - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(missing) {
        counts[i] += 1;
    }
    counts
}

/// Samples `spec.pool` DFS queries from `cloud`, with VF2's answer to each.
fn sample_queries(spec: &Spec, seed: u64, cloud: &MemoryCloud) -> (Vec<QueryGraph>, Vec<Digest>) {
    let mut queries = Vec::with_capacity(spec.pool);
    let mut oracle = Vec::with_capacity(spec.pool);
    let mut attempt = 0u64;
    while queries.len() < spec.pool {
        assert!(
            attempt < 64 * spec.pool as u64,
            "query sampling degenerated"
        );
        let query = dfs_query(cloud, spec.query_nodes, derive(seed, attempt));
        attempt += 1;
        let Some(query) = query.filter(|q| q.num_vertices() == spec.query_nodes) else {
            continue;
        };
        // The independent matcher's answer, computed once here and compared
        // with the system's first answer before anything is timed.
        let table = vf2(cloud, &query, Some(spec.oracle_limit()));
        if table.num_rows() >= spec.oracle_limit() && spec.result_mode == ResultMode::All {
            // Beyond `max_matches`: see the field's documentation.
            continue;
        }
        oracle.push(Digest::of_table(&table));
        queries.push(query);
    }
    (queries, oracle)
}

fn hash_inputs(spec: &Spec, queries: &[QueryGraph], batches: &[UpdateBatch], ops: &[Op]) -> u64 {
    let mut h = fold(spec.vertices, spec.labels as u64);
    for query in queries {
        h = fold(h, query.num_vertices() as u64);
        for v in query.vertices() {
            h = fold(h, u64::from(query.label(v).raw()));
        }
        for (u, v) in query.edges() {
            h = fold(h, (u.index() as u64) << 16 | v.index() as u64);
        }
    }
    let vid = |v: &VertexId| v.raw();
    for batch in batches {
        h = fold(h, batch.len() as u64);
        for op in batch.ops() {
            h = match op {
                UpdateOp::AddVertex { id, label } => label
                    .bytes()
                    .fold(fold(h, 1 ^ vid(id)), |h, b| fold(h, u64::from(b))),
                UpdateOp::RemoveVertex { id } => fold(h, 2 ^ vid(id).rotate_left(8)),
                UpdateOp::AddEdge { u, v } => fold(fold(h, 3 ^ vid(u)), vid(v)),
                UpdateOp::RemoveEdge { u, v } => fold(fold(h, 4 ^ vid(u)), vid(v)),
            };
        }
    }
    for op in ops {
        h = match *op {
            Op::Query { query, tenant } => fold(h, (query as u64) << 8 | tenant as u64),
            Op::Update(i) => fold(h, 0xA000_0000 | i as u64),
            Op::Seal => fold(h, 0xB000_0000),
        };
    }
    h
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A workload shaped like `base` on a graph small enough for a unit test.
    pub(crate) fn small(base: &Spec) -> Spec {
        Spec {
            vertices: 2_000,
            labels: 12,
            pool: 12,
            draws: if base.zipf.is_some() { 48 } else { 12 },
            ..base.clone()
        }
    }

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        for base in &WORKLOADS {
            let spec = small(base);
            let cloud = GraphInput::generate(&spec).build_cloud(StorageTier::Compact);
            let a = Inputs::generate(&spec, 7, &cloud);
            let b = Inputs::generate(&spec, 7, &cloud);
            let c = Inputs::generate(&spec, 8, &cloud);
            assert_eq!(a.sequence_hash, b.sequence_hash, "{}", spec.name);
            assert_eq!(a.ops, b.ops);
            assert_eq!(a.batches, b.batches);
            assert_ne!(a.sequence_hash, c.sequence_hash, "{}", spec.name);
            // The data set is pinned: only the order follows the seed.
            assert_eq!(a.queries, c.queries);
            assert_eq!(a.batches, c.batches);
            let asked = |inputs: &Inputs| {
                let mut counts = vec![0; inputs.queries.len()];
                for op in &inputs.ops {
                    if let Op::Query { query, .. } = op {
                        counts[*query] += 1;
                    }
                }
                counts
            };
            assert_eq!(asked(&a), asked(&c), "{}", spec.name);
            assert_eq!(asked(&a).iter().sum::<usize>(), spec.draws);
        }
    }

    #[test]
    fn zipf_counts_are_exact_shares() {
        let counts = zipf_counts(64, 1000, 1.1);
        assert_eq!(counts.iter().sum::<usize>(), 1000);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        let harmonic: f64 = (1..=64).map(|i| (i as f64).powf(-1.1)).sum();
        assert!((counts[0] as f64 - 1000.0 / harmonic).abs() < 1.0);
        assert!(counts[63] >= 2, "every query of the pool is asked");
        assert_eq!(zipf_counts(3, 3, 0.0), vec![1, 1, 1]);
    }

    #[test]
    fn churn_interleaves_updates_and_seals() {
        let spec = Spec {
            churn: Some(Churn {
                every: 4,
                ops_per_batch: 3,
                seal_every: 16,
            }),
            ..small(&WORKLOADS[3])
        };
        let cloud = GraphInput::generate(&spec).build_cloud(StorageTier::Compact);
        let inputs = Inputs::generate(&spec, 1, &cloud);
        let updates = inputs.ops.iter().filter(|op| matches!(op, Op::Update(_)));
        assert_eq!(updates.count(), 12);
        assert_eq!(inputs.batches.len(), 12);
        let seals = inputs.ops.iter().filter(|op| matches!(op, Op::Seal));
        assert_eq!(seals.count(), 2, "before queries 16 and 32 of 48");
        // Every batch is used once, in order.
        let order: Vec<usize> = inputs
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Update(i) => Some(*i),
                _ => None,
            })
            .collect();
        assert_eq!(order, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn every_mode_switch_is_pinned_in_code() {
        for spec in &WORKLOADS {
            let config = spec.engine_config();
            assert_eq!(config.workers, Some(1));
            assert_eq!(config.cache.is_some(), spec.cache);
            let m = config.match_config;
            assert_eq!(m.num_threads, Some(1));
            assert_eq!(m.transport_mode, spec.transport);
            assert_eq!(m.fault_plan, None);
            assert!(!m.pruning);
            assert_eq!(m.max_stwig_rows, Some(MAX_STWIG_ROWS));
            assert!(
                spec.draws >= 200,
                "{} needs 200 latency positions",
                spec.name
            );
        }
    }
}
