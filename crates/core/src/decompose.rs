//! Query decomposition and STwig order selection (§5.1–5.2, Algorithm 2).
//!
//! Finding the minimum STwig cover is NP-hard (Theorem 1: it is polynomially
//! equivalent to minimum vertex cover). The paper uses a revised
//! 2-approximation that simultaneously decides a *processing order* such
//! that, except for the first STwig, every STwig's root is already bound by a
//! previously-processed STwig. Edge selection is guided by *f-values*
//! `f(v) = deg(v) / freq(label(v))`: prefer roots with many (residual) query
//! edges and rare labels.

use crate::error::StwigError;
use crate::query::{QVid, QueryGraph};
use crate::stwig::STwig;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;
use trinity_sim::ids::LabelId;
use trinity_sim::MemoryCloud;

/// Source of label-frequency statistics used by the f-value ranking.
///
/// The paper assumes no data statistics are required but uses `freq(l)` when
/// available; [`UniformStats`] reproduces the statistics-free behaviour where
/// only the query-vertex degrees drive edge selection.
pub trait LabelStatistics {
    /// Number of data vertices carrying `label`.
    fn frequency(&self, label: LabelId) -> u64;
}

impl LabelStatistics for MemoryCloud {
    fn frequency(&self, label: LabelId) -> u64 {
        self.label_frequency(label)
    }
}

/// Statistics-free fallback: every label is assumed equally frequent.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformStats;

impl LabelStatistics for UniformStats {
    fn frequency(&self, _label: LabelId) -> u64 {
        1
    }
}

/// Residual query graph used during decomposition.
struct Residual {
    adjacency: Vec<HashSet<u16>>,
    edges_left: usize,
}

impl Residual {
    fn new(query: &QueryGraph) -> Self {
        let mut adjacency = vec![HashSet::new(); query.num_vertices()];
        for (u, v) in query.edges() {
            adjacency[u.index()].insert(v.0);
            adjacency[v.index()].insert(u.0);
        }
        Residual {
            adjacency,
            edges_left: query.num_edges(),
        }
    }

    fn degree(&self, v: QVid) -> usize {
        self.adjacency[v.index()].len()
    }

    fn neighbors(&self, v: QVid) -> Vec<QVid> {
        let mut out: Vec<QVid> = self.adjacency[v.index()].iter().map(|&i| QVid(i)).collect();
        out.sort_unstable();
        out
    }

    /// Removes all residual edges incident to `v`, returning the neighbors
    /// they connected to (the STwig children).
    fn extract_stwig(&mut self, v: QVid) -> Vec<QVid> {
        let children = self.neighbors(v);
        for &c in &children {
            self.adjacency[c.index()].remove(&v.0);
            self.edges_left -= 1;
        }
        self.adjacency[v.index()].clear();
        children
    }

    fn has_edges(&self) -> bool {
        self.edges_left > 0
    }

    /// All residual edges as (u, v) pairs with u < v.
    fn edges(&self) -> Vec<(QVid, QVid)> {
        let mut out = Vec::new();
        for (i, ns) in self.adjacency.iter().enumerate() {
            for &j in ns {
                if (i as u16) < j {
                    out.push((QVid(i as u16), QVid(j)));
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// f-value of a query vertex on the residual graph:
/// `deg_residual(v) / freq(label(v))`.
fn f_value<S: LabelStatistics>(query: &QueryGraph, residual: &Residual, stats: &S, v: QVid) -> f64 {
    let freq = stats.frequency(query.label(v)).max(1) as f64;
    residual.degree(v) as f64 / freq
}

/// Decomposes `query` into an ordered STwig cover using Algorithm 2.
///
/// The returned STwigs, processed in order, guarantee (for connected queries)
/// that every STwig after the first has its root bound by an earlier STwig.
/// The cover size is at most twice the minimum STwig cover (Theorem 2).
/// Every STwig lists its children in canonical `(label, id)` order.
pub fn decompose_ordered<S: LabelStatistics>(
    query: &QueryGraph,
    stats: &S,
) -> Result<Vec<STwig>, StwigError> {
    Ok(with_canonical_children(query, ordered_cover(query, stats)?))
}

/// Algorithm 2 proper: which STwigs, in which order.
fn ordered_cover<S: LabelStatistics>(
    query: &QueryGraph,
    stats: &S,
) -> Result<Vec<STwig>, StwigError> {
    if query.num_vertices() == 0 {
        return Err(StwigError::EmptyQuery);
    }
    if query.num_edges() == 0 {
        // Single-vertex query: no STwig can cover it; callers special-case this.
        return Ok(Vec::new());
    }

    let mut residual = Residual::new(query);
    // S in Algorithm 2: vertices bound by processed STwigs that still have
    // residual edges.
    let mut bound: HashSet<QVid> = HashSet::new();
    let mut order: Vec<STwig> = Vec::new();

    while residual.has_edges() {
        // Pick the edge (v, u): if any residual edge touches a bound vertex,
        // restrict to those and require v ∈ bound; otherwise pick globally.
        let candidate_edges: Vec<(QVid, QVid)> = {
            let touching: Vec<(QVid, QVid)> = residual
                .edges()
                .into_iter()
                .filter(|&(a, b)| bound.contains(&a) || bound.contains(&b))
                .collect();
            if touching.is_empty() {
                residual.edges()
            } else {
                touching
            }
        };
        debug_assert!(!candidate_edges.is_empty());

        // Choose the edge maximizing f(u) + f(v); root the first STwig at the
        // endpoint with the larger f-value, preferring a bound endpoint.
        let (&(a, b), _) = candidate_edges
            .iter()
            .map(|e| {
                let score =
                    f_value(query, &residual, stats, e.0) + f_value(query, &residual, stats, e.1);
                (e, score)
            })
            .fold(None::<(&(QVid, QVid), f64)>, |best, (e, s)| match best {
                None => Some((e, s)),
                Some((_, bs)) if s > bs => Some((e, s)),
                Some(best) => Some(best),
            })
            .ok_or_else(|| StwigError::Internal("no candidate edge".into()))?;

        let (v, u) = pick_root_order(query, &residual, stats, &bound, a, b);

        // T_v: STwig rooted at v with all residual edges incident to v.
        let children_v = residual.extract_stwig(v);
        debug_assert!(!children_v.is_empty());
        for &c in &children_v {
            bound.insert(c);
        }
        bound.insert(v);
        order.push(STwig::new(v, children_v));

        // If u still has residual edges, immediately emit T_u as well (its
        // root u is bound: it was a child of T_v).
        if residual.degree(u) > 0 {
            let children_u = residual.extract_stwig(u);
            for &c in &children_u {
                bound.insert(c);
            }
            order.push(STwig::new(u, children_u));
        }

        // Drop vertices with no residual edges from the bound set; they can
        // no longer serve as roots.
        bound.retain(|&x| residual.degree(x) > 0);
    }

    Ok(order)
}

/// The last step of every decomposition: each STwig lists its children by
/// `(label, query-vertex id)`, the one order the executors and the
/// cross-query cache agree on (see [`STwig::sort_children_canonically`]).
/// Which edges an STwig covers, and the order of the STwigs, are untouched.
fn with_canonical_children(query: &QueryGraph, mut stwigs: Vec<STwig>) -> Vec<STwig> {
    for stwig in &mut stwigs {
        stwig.sort_children_canonically(query);
    }
    stwigs
}

/// Decides which endpoint of the selected edge becomes the root `v` of the
/// first STwig of this round: a bound endpoint wins (Algorithm 2 requires
/// `v ∈ S`), otherwise the endpoint with the larger f-value.
fn pick_root_order<S: LabelStatistics>(
    query: &QueryGraph,
    residual: &Residual,
    stats: &S,
    bound: &HashSet<QVid>,
    a: QVid,
    b: QVid,
) -> (QVid, QVid) {
    match (bound.contains(&a), bound.contains(&b)) {
        (true, false) => (a, b),
        (false, true) => (b, a),
        _ => {
            if f_value(query, residual, stats, a) >= f_value(query, residual, stats, b) {
                (a, b)
            } else {
                (b, a)
            }
        }
    }
}

/// The plain randomized 2-approximate STwig cover of §5.1 (no ordering rules,
/// no f-values), children in canonical order like [`decompose_ordered`]'s.
/// Used as the ablation baseline for the ordering strategy.
pub fn decompose_random(query: &QueryGraph, seed: u64) -> Result<Vec<STwig>, StwigError> {
    Ok(with_canonical_children(query, random_cover(query, seed)?))
}

fn random_cover(query: &QueryGraph, seed: u64) -> Result<Vec<STwig>, StwigError> {
    if query.num_vertices() == 0 {
        return Err(StwigError::EmptyQuery);
    }
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut residual = Residual::new(query);
    let mut order = Vec::new();
    while residual.has_edges() {
        let edges = residual.edges();
        let &(u, v) = edges.choose(&mut rng).expect("edges_left > 0");
        let children_u = residual.extract_stwig(u);
        if !children_u.is_empty() {
            order.push(STwig::new(u, children_u));
        }
        if residual.degree(v) > 0 {
            let children_v = residual.extract_stwig(v);
            order.push(STwig::new(v, children_v));
        }
    }
    Ok(order)
}

/// Exact minimum STwig cover size by brute force over vertex subsets
/// (exponential; only for small queries in tests — Theorem 1 links the STwig
/// cover to vertex cover, so we search vertex covers).
pub fn minimum_cover_size_bruteforce(query: &QueryGraph) -> usize {
    let n = query.num_vertices();
    assert!(n <= 20, "brute force only supports small queries");
    let edges: Vec<(usize, usize)> = query.edges().map(|(u, v)| (u.index(), v.index())).collect();
    if edges.is_empty() {
        return 0;
    }
    let mut best = n;
    for mask in 0u32..(1u32 << n) {
        let size = mask.count_ones() as usize;
        if size >= best {
            continue;
        }
        let covers = edges
            .iter()
            .all(|&(u, v)| mask & (1 << u) != 0 || mask & (1 << v) != 0);
        if covers {
            best = size;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stwig::validate_cover;

    fn l(x: u32) -> LabelId {
        LabelId(x)
    }

    /// The paper's Figure 6(a) query: vertices a,b,c,d,e,f with edges
    /// d-b, d-c, d-e, d-f, c-a, c-f, b-a, b-e.
    fn fig6_query() -> (QueryGraph, Vec<QVid>) {
        let mut builder = QueryGraph::builder();
        let a = builder.vertex(l(0));
        let b = builder.vertex(l(1));
        let c = builder.vertex(l(2));
        let d = builder.vertex(l(3));
        let e = builder.vertex(l(4));
        let f = builder.vertex(l(5));
        builder
            .edge(d, b)
            .edge(d, c)
            .edge(d, e)
            .edge(d, f)
            .edge(c, a)
            .edge(c, f)
            .edge(b, a)
            .edge(b, e);
        (builder.build().unwrap(), vec![a, b, c, d, e, f])
    }

    struct FixedStats(u64);
    impl LabelStatistics for FixedStats {
        fn frequency(&self, _label: LabelId) -> u64 {
            self.0
        }
    }

    #[test]
    fn algorithm2_reproduces_paper_example() {
        // With every label matching 10 vertices, the paper derives the cover
        // T1 = {d, (b,c,e,f)}, T2 = {c, (a,f)}, T3 = {b, (a,e)}: three STwigs
        // with T1 first. Tie-breaking between the equally-scored edges (d,b)
        // and (d,c) may swap the order of T2 and T3, so we check the cover as
        // a set plus the head position.
        let (q, v) = fig6_query();
        let (a, b, c, d, e, f) = (v[0], v[1], v[2], v[3], v[4], v[5]);
        let cover = decompose_ordered(&q, &FixedStats(10)).unwrap();
        assert_eq!(cover.len(), 3);
        assert_eq!(cover[0], STwig::new(d, vec![b, c, e, f]));
        assert!(cover.contains(&STwig::new(c, vec![a, f])));
        assert!(cover.contains(&STwig::new(b, vec![a, e])));
        validate_cover(&q, &cover).unwrap();
    }

    #[test]
    fn ordered_cover_roots_are_bound() {
        let (q, _) = fig6_query();
        let cover = decompose_ordered(&q, &UniformStats).unwrap();
        validate_cover(&q, &cover).unwrap();
        // Every STwig after the first must have its root bound by an earlier one.
        let mut seen: HashSet<QVid> = HashSet::new();
        for (i, t) in cover.iter().enumerate() {
            if i > 0 {
                assert!(
                    seen.contains(&t.root),
                    "root {} of STwig {} not bound by earlier STwigs",
                    t.root,
                    i
                );
            }
            seen.extend(t.vertices());
        }
    }

    #[test]
    fn cover_respects_two_approximation_bound() {
        let (q, _) = fig6_query();
        let opt = minimum_cover_size_bruteforce(&q);
        let cover = decompose_ordered(&q, &UniformStats).unwrap();
        assert!(cover.len() <= 2 * opt, "|T|={} > 2*{}", cover.len(), opt);
        let random = decompose_random(&q, 7).unwrap();
        assert!(random.len() <= 2 * opt);
    }

    #[test]
    fn single_edge_query() {
        let mut b = QueryGraph::builder();
        let x = b.vertex(l(0));
        let y = b.vertex(l(1));
        b.edge(x, y);
        let q = b.build().unwrap();
        let cover = decompose_ordered(&q, &UniformStats).unwrap();
        assert_eq!(cover.len(), 1);
        assert_eq!(cover[0].num_edges(), 1);
        validate_cover(&q, &cover).unwrap();
    }

    #[test]
    fn star_query_is_one_stwig() {
        let mut b = QueryGraph::builder();
        let hub = b.vertex(l(0));
        let leaves: Vec<QVid> = (1..5).map(|i| b.vertex(l(i))).collect();
        for &leaf in &leaves {
            b.edge(hub, leaf);
        }
        let q = b.build().unwrap();
        let cover = decompose_ordered(&q, &UniformStats).unwrap();
        assert_eq!(cover.len(), 1);
        assert_eq!(cover[0].root, hub);
        assert_eq!(cover[0].num_edges(), 4);
    }

    #[test]
    fn rare_labels_attract_roots() {
        // Path x - y - z where y's label is very frequent: the decomposition
        // should prefer rooting at the rare-label endpoints when degrees tie.
        struct SkewStats;
        impl LabelStatistics for SkewStats {
            fn frequency(&self, label: LabelId) -> u64 {
                if label == LabelId(1) {
                    1_000_000
                } else {
                    10
                }
            }
        }
        let mut b = QueryGraph::builder();
        let x = b.vertex(l(0));
        let y = b.vertex(l(1)); // frequent label
        let z = b.vertex(l(2));
        b.edge(x, y).edge(y, z);
        let q = b.build().unwrap();
        let cover = decompose_ordered(&q, &SkewStats).unwrap();
        validate_cover(&q, &cover).unwrap();
        // The first STwig should not be rooted at the frequent-label vertex
        // unless its degree advantage dominates — here degrees are 1 vs 2, so
        // y (degree 2) still has f = 2/1e6 << 1/10, hence root is x or z.
        assert_ne!(cover[0].root, y);
    }

    #[test]
    fn random_decomposition_is_a_valid_cover() {
        let (q, _) = fig6_query();
        for seed in 0..20 {
            let cover = decompose_random(&q, seed).unwrap();
            validate_cover(&q, &cover).unwrap();
        }
    }

    /// A connected random labelled query: a random spanning tree plus a few
    /// extra edges, labels drawn from few enough values that children share
    /// labels and numbering runs against label order.
    fn random_query(rng: &mut rand::rngs::SmallRng) -> QueryGraph {
        use rand::Rng;
        let n = rng.gen_range(2..9usize);
        let mut b = QueryGraph::builder();
        let vs: Vec<QVid> = (0..n)
            .map(|_| b.vertex(l(rng.gen_range(0..4u32))))
            .collect();
        for i in 1..n {
            b.edge(vs[i], vs[rng.gen_range(0..i)]);
        }
        for _ in 0..rng.gen_range(0..n) {
            let (x, y) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if x != y {
                b.edge(vs[x], vs[y]);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn canonical_child_order_moves_nothing_but_the_order_inside_children() {
        // `ordered_cover` / `random_cover` are the decompositions as they
        // were before children were put in canonical order: the public
        // functions must return the same roots in the same sequence, each
        // with the same child *set*, sorted by (label, id).
        struct SkewStats;
        impl LabelStatistics for SkewStats {
            fn frequency(&self, label: LabelId) -> u64 {
                1 + 7 * u64::from(label.0)
            }
        }
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xC0FFEE);
        let mut reordered = 0;
        for seed in 0..300u64 {
            let q = random_query(&mut rng);
            for (raw, public) in [
                (
                    ordered_cover(&q, &UniformStats).unwrap(),
                    decompose_ordered(&q, &UniformStats).unwrap(),
                ),
                (
                    ordered_cover(&q, &SkewStats).unwrap(),
                    decompose_ordered(&q, &SkewStats).unwrap(),
                ),
                (
                    random_cover(&q, seed).unwrap(),
                    decompose_random(&q, seed).unwrap(),
                ),
            ] {
                validate_cover(&q, &public).unwrap();
                assert_eq!(raw.len(), public.len());
                for (before, after) in raw.iter().zip(&public) {
                    assert!(after.has_canonical_children(&q), "{after} in {q:?}");
                    assert_eq!(before.root, after.root);
                    assert_eq!(
                        *before,
                        STwig::new(after.root, after.children.clone()),
                        "child set changed"
                    );
                    reordered += usize::from(before != after);
                }
            }
        }
        assert!(reordered > 100, "the sample must exercise reordering");
    }

    #[test]
    fn single_vertex_query_has_empty_cover() {
        let mut b = QueryGraph::builder();
        b.vertex(l(0));
        let q = b.build().unwrap();
        assert!(decompose_ordered(&q, &UniformStats).unwrap().is_empty());
    }

    #[test]
    fn bruteforce_cover_sizes() {
        // Triangle: minimum vertex cover = 2.
        let mut b = QueryGraph::builder();
        let x = b.vertex(l(0));
        let y = b.vertex(l(1));
        let z = b.vertex(l(2));
        b.edge(x, y).edge(y, z).edge(z, x);
        let q = b.build().unwrap();
        assert_eq!(minimum_cover_size_bruteforce(&q), 2);

        // Star: minimum vertex cover = 1.
        let mut b = QueryGraph::builder();
        let hub = b.vertex(l(0));
        for i in 1..5 {
            let leaf = b.vertex(l(i));
            b.edge(hub, leaf);
        }
        let q = b.build().unwrap();
        assert_eq!(minimum_cover_size_bruteforce(&q), 1);
    }
}
