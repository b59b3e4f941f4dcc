//! The exploration phase (§4.2, §4.3 step 2): every machine matches each
//! STwig in plan order from the roots it owns, with binding synchronization
//! between STwigs, or takes the STwig's complete tables from the cross-query
//! cache. The output is a [`StwigTableSet`], the join phase's input.

use super::link::Link;
use super::plan::QueryPlan;
use crate::bindings::Bindings;
use crate::bindings::VertexSet;
use crate::cache::{
    canonicalize_table, splice_roots, CacheLookup, CachedStwig, CachedTables, StwigCache,
    StwigShape,
};
use crate::config::MatchConfig;
use crate::error::StwigError;
use crate::matcher::{explore, Resolution, SharedPostings};
use crate::metrics::{ExploreCounters, FaultCounters, MachineMetrics, QueryMetrics};
use crate::query::{QVid, QueryGraph};
use crate::retry::degraded_loss;
use crate::stream::QueryControl;
use crate::stwig::STwig;
use crate::table::ResultTable;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use trinity_sim::ids::{MachineId, VertexId};
use trinity_sim::MemoryCloud;

/// Runs `work` once per index in `0..num_items`, fanning the items out over
/// `threads` worker threads with dynamic work-stealing (an atomic cursor over
/// the item list, so unevenly-sized items balance). Results are returned in
/// item order regardless of scheduling, which is what lets callers merge
/// them deterministically. `threads <= 1` runs inline on the calling thread —
/// the exact serial execution.
///
/// Exploration fans the machines of one step out with it.
///
/// A panic on any worker propagates to the caller.
fn run_work_stealing<R, F>(num_items: usize, threads: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 || num_items <= 1 {
        return (0..num_items).map(work).collect();
    }
    let workers = threads.min(num_items);
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(num_items);
    slots.resize_with(num_items, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let work = &work;
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= num_items {
                            break;
                        }
                        done.push((i, work(i)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index was processed"))
        .collect()
}

/// Per-machine output of one exploration step.
struct MachineExplore {
    table: ResultTable,
    work: MachineWork,
}

/// What one machine spent on one exploration step.
#[derive(Default)]
struct MachineWork {
    counters: ExploreCounters,
    faults: FaultCounters,
    resolution: Resolution,
    compute_us: f64,
}

impl MachineWork {
    /// Adds the step to the query's totals and the machine's.
    fn merge_into(&self, metrics: &mut QueryMetrics, machine: &mut MachineMetrics) {
        metrics.explore.merge(&self.counters);
        metrics.fault.merge(&self.faults);
        metrics.explore_from_postings += u64::from(self.resolution.from_postings);
        metrics.explore_by_probing += u64::from(!self.resolution.from_postings);
        metrics.explore_postings_entries += self.resolution.postings_entries;
        machine.compute_us += self.compute_us;
    }
}

/// The per-machine STwig result tables of the exploration phase: G_k(q_t),
/// machine `k`'s matches of STwig `t`, for every STwig the phase completed
/// (in plan order). An explored STwig's tables are the query's own, under
/// its column names; one the cache served lends the cache's complete unbound
/// tables — shared, under the cache's positional column names (column `i` is
/// the `i`-th of the STwig's `vertices()`), with the entry riding along so
/// the join phase can take the indexes the cache filed with it.
#[derive(Debug, Clone)]
pub struct StwigTableSet {
    stwigs: Vec<StwigTables>,
}

/// One STwig's tables, one per machine.
#[derive(Debug, Clone)]
enum StwigTables {
    /// Exploration output under the bindings and row cap of the moment.
    Explored(Vec<ResultTable>),
    /// A cache entry (see [`crate::cache`], "What a served STwig
    /// contributes").
    Served(CachedTables),
}

impl StwigTables {
    fn table(&self, machine: usize) -> &ResultTable {
        match self {
            StwigTables::Explored(tables) => &tables[machine],
            StwigTables::Served(entry) => &entry[machine],
        }
    }

    /// The query's own tables; `None` for ones the cache lends.
    fn explored(&self) -> Option<&[ResultTable]> {
        match self {
            StwigTables::Explored(tables) => Some(tables),
            StwigTables::Served(_) => None,
        }
    }
}

impl StwigTableSet {
    /// How many STwigs (a prefix of the plan's) the set holds tables for.
    pub fn num_stwigs(&self) -> usize {
        self.stwigs.len()
    }

    /// G_k(q_t): the rows `machine` contributes for STwig `stwig`.
    pub fn table(&self, machine: usize, stwig: usize) -> &ResultTable {
        self.stwigs[stwig].table(machine)
    }

    /// The cache entry STwig `stwig`'s tables are lent from, if any.
    pub(super) fn served(&self, stwig: usize) -> Option<&CachedStwig> {
        match &self.stwigs[stwig] {
            StwigTables::Served(entry) => Some(entry),
            StwigTables::Explored(_) => None,
        }
    }

    /// Every table exploration produced for this query — the ones its row
    /// cap bounds and the query holds; a served table is complete and lent.
    pub(super) fn explored(&self) -> impl Iterator<Item = &ResultTable> {
        (self.stwigs.iter())
            .filter_map(StwigTables::explored)
            .flatten()
    }
}

/// The bit of query vertex `v` in a vertex mask
/// ([`crate::query::MAX_QUERY_VERTICES`] is 64).
fn vertex_bit(v: QVid) -> u64 {
    1 << v.0
}

/// The vertices of `stwig` as a mask.
fn vertex_mask(stwig: &STwig) -> u64 {
    stwig.vertices().map(vertex_bit).fold(0, |m, b| m | b)
}

/// The exploration phase: every machine matches every STwig in plan order
/// with binding synchronization between STwigs (§4.2/§4.3), optionally
/// consulting a cross-query [`StwigCache`]. `explore_cap` is the
/// exploration row cap of the round (the first-k slab, never above the
/// user's cap); `config`'s `max_stwig_rows` stays the user's — the bound on
/// what the cache may serve. Returns the tables of the STwigs it completed
/// and whether the query can still have an answer (`false`: the last of
/// them matched nowhere). Every exchange goes over `link`, the query's one
/// link. The caller has passed `cache` through `check_cache`.
///
/// `control` is checked at every superstep flush inside exploration and at
/// every STwig barrier; a pending interrupt ends the phase early with the
/// tables it completed, and an empty one may then mean only that.
#[allow(clippy::too_many_arguments)]
pub(crate) fn produce_tables(
    cloud: &MemoryCloud,
    query: &QueryGraph,
    plan: &QueryPlan,
    config: &MatchConfig,
    explore_cap: Option<usize>,
    cache: Option<&StwigCache>,
    control: Option<&QueryControl>,
    link: &Link<'_>,
    metrics: &mut QueryMetrics,
    machine_metrics: &mut [MachineMetrics],
) -> Result<(StwigTableSet, bool), StwigError> {
    let threads = config.resolved_num_threads();
    // In `Messages` mode all exploration-phase communication — batched cell
    // loads and binding deltas — travels over the link's transport;
    // machines never dereference each other's partitions.
    let mut set = StwigTableSet {
        stwigs: Vec::with_capacity(plan.stwigs.len()),
    };
    let mut bindings = Bindings::new(query.num_vertices());
    // Counters accumulate into `metrics` (the executor calls this once per
    // slab round); the per-STwig row totals describe this call alone.
    metrics.stwig_rows.clear();

    // A binding set is only ever read while exploring a *later* STwig, so
    // vertices that never appear again need no set built (and no broadcast):
    // `needed_after[t]` is the union of the vertices of stwigs t+1.. — for
    // the last STwig the whole synchronization barrier is skipped.
    let mut needed_after = vec![0u64; plan.stwigs.len()];
    for t in (1..plan.stwigs.len()).rev() {
        needed_after[t - 1] = needed_after[t] | vertex_mask(&plan.stwigs[t]);
    }
    // STwigs `..synced` have had their columns folded into `bindings`. An
    // explored table is synchronized at once, as the algorithm has it; a
    // served one waits until a later STwig has to explore (if one ever
    // does) — see `crate::cache`, "What a served STwig contributes".
    let mut synced = 0usize;
    // The config exploration runs under, made when a first STwig explores.
    let mut explore_cfg: Option<MatchConfig> = None;

    // The vertices of the STwigs before the current one.
    let mut earlier = 0u64;

    let mut answerable = true;
    for (t, stwig) in plan.stwigs.iter().enumerate() {
        // Cooperative check at the STwig barrier: an interrupted query stops
        // producing tables (the caller decides what to do with the partial
        // set).
        if control.is_some_and(QueryControl::interrupted) {
            break;
        }
        // Every machine produces this STwig's table in parallel — from the
        // cache when one is supplied and can serve the shape, by exploration
        // against the bindings of the STwigs before it otherwise; counters
        // and tables come back thread-locally and are merged in machine
        // order.
        let via_cache = match cache {
            Some(cache) => {
                explore_via_cache(cloud, link, query, stwig, config, cache, control, threads)?
            }
            None => ViaCache::Unserved,
        };
        let tables = match via_cache {
            ViaCache::Served(entry, work) => {
                for (mm, work) in machine_metrics.iter_mut().zip(&work) {
                    work.merge_into(metrics, mm);
                }
                StwigTables::Served(entry)
            }
            unserved => {
                // A populate that hit its row cap stands in for bound
                // exploration when nothing would distinguish the two: no
                // earlier STwig binds one of this one's vertices, and the
                // caps agree.
                let unbound_is_bound = (!config.use_bindings || earlier & vertex_mask(stwig) == 0)
                    && cache.is_some_and(|c| c.populate_row_cap() == explore_cap);
                let results = match unserved {
                    ViaCache::Capped(results) if unbound_is_bound => results,
                    _ => {
                        // Fold in the served tables still waiting, in plan
                        // order, then explore under the bindings.
                        let waiting = (plan.stwigs[synced..t].iter())
                            .zip(&needed_after[synced..t])
                            .zip(&set.stwigs[synced..t]);
                        for ((served, &needed), tables) in waiting {
                            sync_bindings(
                                cloud,
                                link,
                                served,
                                needed,
                                tables,
                                config,
                                control,
                                &mut metrics.fault,
                                &mut bindings,
                            )?;
                        }
                        let explore_cfg = explore_cfg.get_or_insert_with(|| MatchConfig {
                            max_stwig_rows: explore_cap,
                            ..config.clone()
                        });
                        explore_bound(
                            cloud,
                            link,
                            query,
                            stwig,
                            &bindings,
                            explore_cfg,
                            control,
                            threads,
                        )?
                    }
                };
                let mut tables = Vec::with_capacity(results.len());
                for (mm, result) in machine_metrics.iter_mut().zip(results) {
                    result.work.merge_into(metrics, mm);
                    tables.push(result.table);
                }
                let tables = StwigTables::Explored(tables);
                // Synchronize bindings (barrier): the global binding of each
                // STwig vertex that a later STwig will read is the union of
                // what every machine discovered, intersected (by `bind`)
                // with what previous STwigs already established for shared
                // vertices.
                sync_bindings(
                    cloud,
                    link,
                    stwig,
                    needed_after[t],
                    &tables,
                    config,
                    control,
                    &mut metrics.fault,
                    &mut bindings,
                )?;
                synced = t + 1;
                tables
            }
        };
        let mut total_rows = 0u64;
        for (k, mm) in machine_metrics.iter_mut().enumerate() {
            let rows = tables.table(k).num_rows() as u64;
            mm.rows_produced += rows;
            total_rows += rows;
        }
        metrics.stwig_rows.push(total_rows);
        set.stwigs.push(tables);
        earlier |= vertex_mask(stwig);
        // What the query holds of its own: explored tables, not lent ones.
        let resident: u64 = set.explored().map(|t| t.memory_bytes() as u64).sum();
        metrics.peak_table_bytes = metrics.peak_table_bytes.max(resident);
        if total_rows == 0 {
            // No machine found a match for this STwig: the query has no answer.
            answerable = false;
            break;
        }
    }
    Ok((set, answerable))
}

/// Binding synchronization for one STwig's per-machine `tables`: each of its
/// vertices a later STwig reads (`needed`, a vertex mask) is bound to the
/// union over machines of the column's values, and the broadcast that makes
/// every machine's view that union is charged to the query's ledger.
///
/// A served table is the *unbound* one, so only its rows the bindings so far
/// admit take part — the rows bound exploration would have emitted; an
/// explored table holds nothing else. A machine that crashed since the last
/// exchange is settled first ([`Link::settle_crashes`]) under `control`'s
/// policy, into `faults`.
#[allow(clippy::too_many_arguments)]
fn sync_bindings(
    cloud: &MemoryCloud,
    link: &Link<'_>,
    stwig: &STwig,
    needed: u64,
    tables: &StwigTables,
    config: &MatchConfig,
    control: Option<&QueryControl>,
    faults: &mut FaultCounters,
    bindings: &mut Bindings,
) -> Result<(), StwigError> {
    if !config.use_bindings {
        return Ok(());
    }
    // (vertex, column, the set it will be bound to) of every synchronized
    // column, by ascending vertex.
    let mut synced_cols: Vec<(QVid, usize, VertexSet)> = (stwig.vertices().enumerate())
        .filter(|&(_, v)| needed & vertex_bit(v) != 0)
        .map(|(ci, v)| (v, ci, VertexSet::default()))
        .collect();
    if synced_cols.is_empty() {
        return Ok(());
    }
    synced_cols.sort_unstable_by_key(|&(v, ..)| v);
    // The binding filter of a served table: a set probe per bound column.
    // `None`: every row takes part, and the column scans keep their exact
    // size hints.
    let admit: Option<Vec<Option<&VertexSet>>> = match tables {
        StwigTables::Served(_) => Some(stwig.vertices().map(|v| bindings.get(v)).collect()),
        StwigTables::Explored(_) => None,
    }
    .filter(|sets: &Vec<_>| sets.iter().any(Option::is_some));
    fn admitted<'a>(
        table: &'a ResultTable,
        sets: &'a [Option<&VertexSet>],
    ) -> impl Iterator<Item = &'a [VertexId]> {
        (table.rows()).filter(move |row| {
            (sets.iter().zip(*row)).all(|(set, v)| set.is_none_or(|s| s.contains(v)))
        })
    }
    // Adds column `ci` of machine `k`'s admitted rows to `set`.
    let extend = |set: &mut VertexSet, k: usize, ci: usize| match &admit {
        None => set.extend(tables.table(k).rows().map(|row| row[ci])),
        Some(sets) => set.extend(admitted(tables.table(k), sets).map(|row| row[ci])),
    };
    let rows = |k: usize| match &admit {
        None => tables.table(k).num_rows(),
        Some(sets) => admitted(tables.table(k), sets).count(),
    };
    link.settle_crashes(cloud, control, faults)?;
    link.broadcast_bindings(cloud, &mut synced_cols, extend, rows)?;
    for (col, _, set) in synced_cols {
        bindings.bind(col, set);
    }
    Ok(())
}

/// Every machine's exploration of `stwig` from the roots `roots(k)` collects
/// — its own — under `bindings` and `config`'s row cap, fanned out over
/// `threads` in the link's mode ([`Link::explore_mode`]). Both modes emit
/// bit-identical tables and counters. A machine's `compute_us` covers
/// collecting its roots.
///
/// Only the transport path can fail (protocol violations), and the first
/// failure in machine order fails the step, unless it is the loss of a
/// machine the query goes on without ([`degraded_loss`]: `Degrade`): that
/// machine gets an empty table with the STwig's columns (so the join schema
/// stays intact) and is recorded lost — the safety net behind the
/// chunk-level degradation inside the matcher.
#[allow(clippy::too_many_arguments)]
fn explore_machines(
    cloud: &MemoryCloud,
    link: &Link<'_>,
    query: &QueryGraph,
    stwig: &STwig,
    bindings: &Bindings,
    config: &MatchConfig,
    control: Option<&QueryControl>,
    threads: usize,
    roots: impl Fn(MachineId) -> Vec<VertexId> + Sync,
) -> Result<Vec<MachineExplore>, StwigError> {
    let shared = SharedPostings::new();
    let results = run_work_stealing(cloud.num_machines(), threads, |ki| {
        let k = MachineId(ki as u16);
        let started = Instant::now();
        let roots = roots(k);
        let mut work = MachineWork::default();
        let mode = link.explore_mode(&shared, &mut work.faults);
        let counters = &mut work.counters;
        let (table, resolution) = explore(
            cloud, mode, k, query, stwig, &roots, bindings, config, control, counters,
        )?;
        work.resolution = resolution;
        work.compute_us = started.elapsed().as_secs_f64() * 1e6;
        Ok(MachineExplore { table, work })
    });
    (results.into_iter())
        .map(|r| {
            let err = match r {
                Err(err) => err,
                ok => return ok,
            };
            let machine = degraded_loss(&err, control).ok_or(err)?;
            let mut faults = FaultCounters::default();
            faults.record_lost(machine);
            Ok(MachineExplore {
                table: ResultTable::new(stwig.vertices().collect()),
                work: MachineWork {
                    faults,
                    ..MachineWork::default()
                },
            })
        })
        .collect()
}

/// One STwig's per-machine tables by bound exploration: every machine
/// matches it from its own roots under `bindings` and `config`'s row cap.
#[allow(clippy::too_many_arguments)]
fn explore_bound(
    cloud: &MemoryCloud,
    link: &Link<'_>,
    query: &QueryGraph,
    stwig: &STwig,
    bindings: &Bindings,
    config: &MatchConfig,
    control: Option<&QueryControl>,
    threads: usize,
) -> Result<Vec<MachineExplore>, StwigError> {
    let roots = |k| local_roots(cloud, k, query, stwig, bindings, config);
    explore_machines(
        cloud, link, query, stwig, bindings, config, control, threads, roots,
    )
}

/// What asking the cache for one STwig came to.
enum ViaCache {
    /// The entry whose complete tables stand for the STwig's (resident, just
    /// inserted, or — degraded — shared for this query only), and what
    /// populating or repairing it cost each machine (nothing on a hit).
    Served(CachedTables, Vec<MachineWork>),
    /// A populate that reached its row cap (the shape is tombstoned): the
    /// capped unbound tables — bound exploration's own output when nothing
    /// binds the STwig and the two row caps agree.
    Capped(Vec<MachineExplore>),
    /// The STwig must be explored under the bindings.
    Unserved,
}

/// One STwig by way of the cache: the resident entry on a hit; on a miss or
/// a repair, the entry made of unbound exploration and inserted for the next
/// query. A miss explores every local root into an empty table; a repair
/// explores only the touched roots and splices their rows into the resident
/// tables — one path, a populate being the repair of nothing — and all three
/// serve the same tables. [`ViaCache::Unserved`] hands the STwig back to
/// bound exploration: its children are not in the planner's canonical order
/// (a hand-built STwig — the cache is not even probed), the shape is
/// uncacheable (tombstoned before, or found too large just now), some table
/// exceeds the user's row cap (`config`'s), a repair grew past the populate
/// row cap, or the run hit an interrupt.
#[allow(clippy::too_many_arguments)]
fn explore_via_cache(
    cloud: &MemoryCloud,
    link: &Link<'_>,
    query: &QueryGraph,
    stwig: &STwig,
    config: &MatchConfig,
    cache: &StwigCache,
    control: Option<&QueryControl>,
    threads: usize,
) -> Result<ViaCache, StwigError> {
    if !stwig.has_canonical_children(query) {
        return Ok(ViaCache::Unserved);
    }
    // A table the user's row cap would have cut is not served whole.
    let within_user_cap = |entry: &CachedStwig| {
        (config.max_stwig_rows).is_none_or(|cap| entry.iter().all(|t| t.num_rows() <= cap))
    };
    let num_machines = cloud.num_machines();
    let shape = StwigShape::of(query, stwig, false);
    // On a repair: the resident tables and, per machine, the touched roots
    // it owns (ascending, like the log's answer).
    let stale = match cache.lookup(&shape, cloud) {
        CacheLookup::Hit(entry) if within_user_cap(&entry) => {
            return Ok(ViaCache::Served(entry, Vec::new()));
        }
        CacheLookup::Hit(_) | CacheLookup::Bypass => return Ok(ViaCache::Unserved),
        CacheLookup::Miss => None,
        CacheLookup::Repair { tables, touched } => {
            let mut owned = vec![Vec::new(); num_machines];
            for root in touched {
                owned[cloud.machine_of(root).index()].push(root);
            }
            Some((tables, owned))
        }
    };
    // Explore unbound and untruncated (up to the populate row cap), so the
    // result is reusable under any binding context.
    let root_label = query.label(stwig.root);
    let populate_cfg = MatchConfig {
        max_stwig_rows: cache.populate_row_cap(),
        ..config.clone()
    };
    let unbound_bindings = Bindings::new(query.num_vertices());
    let roots = |k: MachineId| match &stale {
        None => cloud.get_ids(k, root_label).to_vec(),
        // A touched root that was removed or relabelled away has no rows
        // left; its old ones go in the splice.
        Some((_, owned)) => (owned[k.index()].iter().copied())
            .filter(|&root| cloud.label_of_local(k, root) == Some(root_label))
            .collect(),
    };
    let unbound = explore_machines(
        cloud,
        link,
        query,
        stwig,
        &unbound_bindings,
        &populate_cfg,
        control,
        threads,
        roots,
    )?;
    // An interrupted run may hold truncated tables; do not let them into the
    // cache or stand in for bound exploration — which the interrupt will
    // also cut short, letting the caller abort.
    if control.is_some_and(QueryControl::interrupted) {
        return Ok(ViaCache::Unserved);
    }
    // A run that lost a machine holds *degraded* tables — sound for this
    // query under `Degrade`, but poison for the cache, which must only ever
    // hold fault-free exploration output. Use them once, cache nothing (and
    // do not trust a row-cap verdict a lost machine may have shrunk).
    let degraded = (unbound.iter()).any(|r| !r.work.faults.machines_lost.is_empty());
    let reached_cap = |rows: usize| cache.populate_row_cap().is_some_and(|cap| rows >= cap);
    if stale.is_none() && unbound.iter().any(|r| reached_cap(r.table.num_rows())) {
        // The unbound table reached the populate cap (a potentially
        // pathological cross product): remember the shape as uncacheable so
        // future queries skip the attempt entirely.
        if !degraded {
            cache.mark_uncacheable(shape, cloud);
        }
        return Ok(ViaCache::Capped(unbound));
    }
    let (fresh, work): (Vec<_>, Vec<_>) = unbound.into_iter().map(|r| (r.table, r.work)).unzip();
    let canonical: Vec<Arc<ResultTable>> = fresh
        .into_iter()
        .enumerate()
        .map(|(ki, fresh)| {
            let fresh = canonicalize_table(fresh, query, stwig);
            match &stale {
                // No touched root here: the repaired entry shares the table.
                Some((old, owned)) if owned[ki].is_empty() => Arc::clone(&old[ki]),
                Some((old, owned)) => Arc::new(splice_roots(&old[ki], &owned[ki], &fresh)),
                None => Arc::new(fresh),
            }
        })
        .collect();
    if canonical.iter().any(|t| reached_cap(t.num_rows())) {
        // A repair grew the shape past the cap: tombstone it likewise.
        if !degraded {
            cache.mark_uncacheable(shape, cloud);
        }
        return Ok(ViaCache::Unserved);
    }
    let entry = if degraded {
        Some(CachedStwig::detached(canonical))
    } else {
        cache.insert(shape, canonical, cloud)
    };
    Ok(match entry {
        Some(entry) if within_user_cap(&entry) => ViaCache::Served(entry, work),
        _ => ViaCache::Unserved,
    })
}

/// Root candidates for `stwig` on machine `k`: locally-owned vertices with
/// the root label, filtered by the (global) binding set when bound.
fn local_roots(
    cloud: &MemoryCloud,
    k: MachineId,
    query: &QueryGraph,
    stwig: &STwig,
    bindings: &Bindings,
    config: &MatchConfig,
) -> Vec<VertexId> {
    let mut roots = cloud.get_ids(k, query.label(stwig.root)).to_vec();
    if config.use_bindings {
        if let Some(bound) = bindings.get(stwig.root) {
            roots.retain(|v| bound.contains(v));
        }
    }
    roots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransportMode;
    use crate::distributed::tests::{abc_query, churned_triangle, sample_cloud, v};
    use crate::distributed::{match_query, plan_query, Run};
    use trinity_sim::builder::GraphBuilder;
    use trinity_sim::network::{CostModel, Network};

    /// A `DirectRead` link charging `ledger`.
    fn in_place<'c>(cloud: &'c MemoryCloud, ledger: &'c Network) -> Link<'c> {
        let direct = MatchConfig::default().with_transport_mode(TransportMode::DirectRead);
        Link::new(cloud, ledger, &direct, None)
    }

    #[test]
    fn direct_read_machines_share_one_postings_map() {
        // Four machines, and an id's owner is its residue mod 4. Nine a-roots,
        // none on machine 0; each sees two of four b's and four d's of its
        // own: 4 carriers against 18 neighbors per machine with roots.
        let mut gb = GraphBuilder::default();
        let roots: Vec<u64> = (1..12).filter(|i| i % 4 != 0).collect();
        for &i in &roots {
            gb.add_vertex(v(i), "a");
            gb.add_edge(v(i), v(100 + i % 4));
            gb.add_edge(v(i), v(100 + (i + 1) % 4));
            for d in 0..4 {
                gb.add_vertex(v(200 + 4 * i + d), "d");
                gb.add_edge(v(i), v(200 + 4 * i + d));
            }
        }
        for b in 100..104 {
            gb.add_vertex(v(b), "b");
        }
        let cloud = gb.build(4, CostModel::default());
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "a").unwrap();
        let b = qb.vertex_by_name(&cloud, "b").unwrap();
        qb.edge(a, b);
        let query = qb.build().unwrap();
        let stwig = STwig::new(a, vec![b]);
        let bindings = Bindings::new(2);
        let config = MatchConfig::default().with_transport_mode(TransportMode::DirectRead);
        let run = |threads| {
            let explored = explore_bound(
                &cloud,
                &in_place(&cloud, &Network::new(cloud.num_machines())),
                &query,
                &stwig,
                &bindings,
                &config,
                None,
                threads,
            );
            let explored = explored.unwrap();
            let sides: Vec<Resolution> = explored.iter().map(|r| r.work.resolution).collect();
            let tables: Vec<ResultTable> = explored.into_iter().map(|r| r.table).collect();
            (tables, sides)
        };
        let (serial, sides) = run(1);
        assert_eq!(serial.iter().map(ResultTable::num_rows).sum::<usize>(), 18);
        // Machine 0 collects nothing and reads in place; machine 1 builds the
        // map, and machines 2 and 3 find it built.
        let postings = sides.iter().map(|s| (s.from_postings, s.postings_entries));
        assert_eq!(
            postings.collect::<Vec<_>>(),
            [(false, 0), (true, 4), (true, 0), (true, 0)]
        );
        for _ in 0..8 {
            let (parallel, sides) = run(4);
            assert_eq!(parallel, serial);
            let entries: u64 = sides.iter().map(|s| s.postings_entries).sum();
            assert_eq!(entries, 4, "built once: {sides:?}");
            assert!(sides[1..].iter().all(|s| s.from_postings));
        }
    }

    #[test]
    fn run_work_stealing_orders_results_and_balances() {
        // Results come back in item order for any thread count, even with
        // skewed per-item work.
        for threads in [1usize, 2, 3, 8] {
            let out = run_work_stealing(13, threads, |i| {
                if i % 3 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                i * 10
            });
            assert_eq!(out, (0..13).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn hand_built_non_canonical_stwig_is_explored_and_never_cached() {
        use crate::cache::{CacheConfig, StwigCache};
        for machines in [1usize, 3] {
            let cloud = sample_cloud(machines);
            // q1 is "c", q2 is "b": `STwig::new` lists them by id, against
            // the label order the planner would use.
            let query = abc_query(&cloud, ["a", "c", "b"], false);
            let config = MatchConfig::default().with_num_threads(Some(1));
            let planned = plan_query(&cloud, &query).unwrap().stwigs;
            assert_eq!(
                planned,
                [STwig {
                    root: QVid(0),
                    children: vec![QVid(2), QVid(1)],
                }]
            );
            let hand_built = STwig::new(QVid(0), vec![QVid(1), QVid(2)]);
            assert!(!hand_built.has_canonical_children(&query));
            let via_cache = |stwig: &STwig, cache: &StwigCache| {
                explore_via_cache(
                    &cloud,
                    &in_place(&cloud, &Network::new(cloud.num_machines())),
                    &query,
                    stwig,
                    &config,
                    cache,
                    None,
                    1,
                )
                .unwrap()
            };
            let cache = StwigCache::new(&cloud, CacheConfig::default());
            // Cold cache: handed back for exploration, not probed, nothing
            // inserted.
            assert!(matches!(via_cache(&hand_built, &cache), ViaCache::Unserved));
            assert_eq!(cache.stats(), crate::metrics::CacheStats::default());
            // Warm cache (its planned twin's entry is resident): still
            // explored — a served entry would carry the "b" column first.
            let ViaCache::Served(twin, _) = via_cache(&planned[0], &cache) else {
                panic!("the planned twin populates and is served");
            };
            let warm = cache.stats();
            assert_eq!((warm.misses, warm.insertions), (1, 1));
            assert!(matches!(via_cache(&hand_built, &cache), ViaCache::Unserved));
            assert_eq!(cache.stats(), warm);
            let unbound = Bindings::new(query.num_vertices());
            let uncached: Vec<ResultTable> = explore_bound(
                &cloud,
                &in_place(&cloud, &Network::new(cloud.num_machines())),
                &query,
                &hand_built,
                &unbound,
                &config,
                None,
                1,
            )
            .unwrap()
            .into_iter()
            .map(|r| r.table)
            .collect();
            let c_label = query.label(QVid(1));
            for (table, twin) in uncached.iter().zip(twin.iter()) {
                assert_eq!(table.columns(), &[QVid(0), QVid(1), QVid(2)]);
                assert_eq!(table.num_rows(), twin.num_rows());
                for row in table.rows() {
                    assert_eq!(cloud.label_of_global(row[1]), Some(c_label));
                }
            }
        }
    }

    #[test]
    fn interrupted_repair_inserts_nothing() {
        use crate::cache::{CacheConfig, StwigCache};
        use crate::stream::{CancelToken, QueryOptions};
        let (epochs, query, batch) = churned_triangle(3);
        let config = MatchConfig::default().with_num_threads(Some(1));
        let cache = StwigCache::new(epochs.base_cloud(), CacheConfig::default());
        match_query(
            &epochs.pin(),
            &query,
            &config,
            Run {
                cache: Some(&cache),
                ..Run::default()
            },
        )
        .unwrap();
        epochs.apply(&batch).unwrap();
        let snap = epochs.pin();
        let plan = plan_query(&snap, &query).unwrap();
        let stwig = &plan.stwigs[0];
        let shape = StwigShape::of(&query, stwig, false);
        let cancel = CancelToken::new();
        cancel.cancel();
        let control = QueryControl::new(&QueryOptions::none().with_cancel(cancel), Instant::now());
        let insertions = cache.stats().insertions;
        let repaired = explore_via_cache(
            &snap,
            &in_place(&snap, &Network::new(snap.num_machines())),
            &query,
            stwig,
            &config,
            &cache,
            Some(&control),
            1,
        )
        .unwrap();
        assert!(matches!(repaired, ViaCache::Unserved));
        assert_eq!(cache.stats().insertions, insertions);
        assert!(
            matches!(cache.lookup(&shape, &snap), CacheLookup::Repair { .. }),
            "the stale entry must still be waiting for an uninterrupted repair"
        );
    }
}
