//! Ablation micro-benchmarks: pieces of the pipeline in isolation —
//! decomposition strategies, binding-aware exploration versus naive
//! exploration, and join-order selection.

use criterion::{criterion_group, criterion_main, Criterion};
use graph_gen::prelude::*;
use std::time::Duration;
use stwig::decompose::{decompose_ordered, decompose_random, UniformStats};
use stwig::join::{multiway_join, select_join_order};
use stwig::metrics::JoinCounters;
use stwig::MatchConfig;
use trinity_sim::network::CostModel;

fn bench_decomposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_decomposition");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let cloud = patents_like(2_000, 0xA11CE).build_cloud(4, CostModel::default());
    let queries = query_batch(&cloud, 10, 12, Some(24), 0xAB1);
    group.bench_function("algorithm2_with_stats", |b| {
        b.iter(|| {
            for q in &queries {
                let _ = decompose_ordered(q, &cloud).unwrap();
            }
        })
    });
    group.bench_function("algorithm2_uniform_stats", |b| {
        b.iter(|| {
            for q in &queries {
                let _ = decompose_ordered(q, &UniformStats).unwrap();
            }
        })
    });
    group.bench_function("random_cover", |b| {
        b.iter(|| {
            for (i, q) in queries.iter().enumerate() {
                let _ = decompose_random(q, i as u64).unwrap();
            }
        })
    });
    group.finish();
}

fn bench_bindings_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_bindings");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let cloud = wordnet_like(2_000, 0xB0B).build_cloud(4, CostModel::default());
    let queries = query_batch(&cloud, 3, 6, Some(9), 0xAB3);
    let with = MatchConfig::paper_default();
    let without = MatchConfig::paper_default().with_bindings(false);
    group.bench_function("with_bindings", |b| {
        b.iter(|| {
            for q in &queries {
                let _ = stwig::match_query_distributed(&cloud, q, &with).unwrap();
            }
        })
    });
    group.bench_function("no_bindings", |b| {
        b.iter(|| {
            for q in &queries {
                let _ = stwig::match_query_distributed(&cloud, q, &without).unwrap();
            }
        })
    });
    group.finish();
}

fn bench_join_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_join");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let cloud = patents_like(3_000, 0xA11CE).build_cloud(4, CostModel::default());
    let queries = query_batch(&cloud, 5, 8, Some(12), 0xAB4);
    let optimized = MatchConfig::paper_default();
    let unoptimized = MatchConfig::paper_default().with_join_order_optimization(false);
    group.bench_function("join_order_optimized", |b| {
        b.iter(|| {
            for q in &queries {
                let _ = stwig::match_query_distributed(&cloud, q, &optimized).unwrap();
            }
        })
    });
    group.bench_function("join_order_naive", |b| {
        b.iter(|| {
            for q in &queries {
                let _ = stwig::match_query_distributed(&cloud, q, &unoptimized).unwrap();
            }
        })
    });
    // Micro: multiway join on synthetic chain tables.
    let tables = synthetic_chain_tables(2_000);
    group.bench_function("multiway_join_chain", |b| {
        b.iter(|| {
            let order = select_join_order(&tables, 64);
            let mut counters = JoinCounters::default();
            multiway_join(&tables, &order, Some(1024), &mut counters)
        })
    });
    group.finish();
}

fn synthetic_chain_tables(rows: u64) -> Vec<stwig::ResultTable> {
    use stwig::QVid;
    use trinity_sim::VertexId;
    let mut t1 = stwig::ResultTable::new(vec![QVid(0), QVid(1)]);
    let mut t2 = stwig::ResultTable::new(vec![QVid(1), QVid(2)]);
    let mut t3 = stwig::ResultTable::new(vec![QVid(2), QVid(3)]);
    for i in 0..rows {
        t1.push_row(&[VertexId(i), VertexId(1_000_000 + i)]);
        t2.push_row(&[VertexId(1_000_000 + i), VertexId(2_000_000 + i)]);
        t3.push_row(&[VertexId(2_000_000 + i), VertexId(3_000_000 + i)]);
    }
    vec![t1, t2, t3]
}

criterion_group!(
    benches,
    bench_decomposition,
    bench_bindings_ablation,
    bench_join_strategies
);
criterion_main!(benches);
