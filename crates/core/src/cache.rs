//! Cross-query STwig-result caching.
//!
//! The paper's setting is a *static* billion-node graph answering a heavy
//! stream of queries. STwigs are tiny two-level trees, so distinct queries
//! constantly share them: every query containing an `a → {b, c}` STwig
//! explores exactly the same per-machine candidate tables. This module
//! caches those tables across queries — the same insight that makes
//! label-pair neighborhood indexes pay off in CNI (Nabti & Seba 2017) and
//! l2Match (Cheng et al. 2023), applied to the exploration output instead of
//! a precomputed index.
//!
//! ## Key canonicalization
//!
//! An STwig's *unbound* exploration output is fully determined by
//! `(root label, multiset of child labels)` and the (static) graph
//! partitioning:
//!
//! * root candidates come from the per-machine label postings, which are
//!   sorted by vertex id;
//! * child candidates are the root's neighbors with the child label, also
//!   sorted by vertex id;
//! * the emitted cross product is therefore in ascending lexicographic row
//!   order, and the *data* is invariant under renaming the query vertices.
//!
//! The cache key is the canonical shape — root label plus **sorted** child
//! labels — and the stored value is the per-machine table in canonical
//! column order: root, then children by ascending `(label, query-vertex id)`.
//! That is the order the planner gives every STwig's children
//! (`STwig::sort_children_canonically`), so the table exploration emits
//! *is* the canonical table — same columns, same lexicographic row order —
//! and two queries that number the same shape's vertices differently plan
//! STwigs whose tables are equal up to the column names. Populating files
//! the explored table under placeholder names (`canonicalize_table`, a
//! rename, not a copy); column `i` of a served table is the `i`-th of the
//! STwig's `vertices()`. Children with equal labels need no rule beyond the id tie-break: their
//! unbound candidate lists are the same list, so the table is symmetric
//! under swapping their columns and whichever of them the query numbered
//! lower may take the first. A hand-built STwig whose children are in some
//! other order is explored, never cached
//! ([`STwig::has_canonical_children`]).
//!
//! A cache serves the cloud it was built from, known by address, and the
//! snapshots of that cloud's lineage; it refuses every other cloud, an equal
//! rebuild included, so no check ever reads the graph.
//!
//! ## What a served STwig contributes (the contract)
//!
//! An STwig the cache serves — a hit, a repair, or the populate a miss
//! performs — contributes its **complete unbound per-machine tables, shared
//! (`Arc`), to the join**: no per-query copy (each machine's join reads them
//! in place, as the row runs of its R_k; only under `Messages` does a
//! load-set table travel, as a `JoinRows` payload — the simulated wire), no
//! binding filter, no row cap, and no binding synchronization for it.
//! Bindings (§4.2 step 2) exist to prune *exploration*, and a served STwig
//! has none left to prune; the first-k slab and `max_stwig_rows` bound
//! exploration too, and none happens. Hit,
//! repair and populate hand the join the same tables, so at one cache state
//! a query returns the same rows every time. Two guards keep older promises:
//! a table with more rows than the *user's* `max_stwig_rows` is not served
//! (that STwig explores bound, as without a cache), and the executor counts
//! only explored tables when it asks whether a slab round was cut short.
//!
//! Binding sets are folded **lazily**: only when a later STwig of the same
//! query must actually explore (hand-built child order, uncacheable
//! tombstone, interrupted populate, user cap) are the served tables before
//! it run through the binding filter — in plan order, reading the rows in
//! place — and their columns a later STwig reads unioned into the bindings,
//! charged as the synchronization it is. An explored STwig of a mixed query
//! is therefore pruned exactly as hard as without a cache.
//!
//! What callers may rely on: `ResultMode::All` returns the same row *set* as
//! the cache-free executor; `FirstK(k)` / `Exists` return `min(k, |answer|)`
//! distinct valid embeddings. Not promised: that a cached and a cache-free
//! run pick the same k witnesses, or the same row order.
//!
//! ## The join-index memo
//!
//! The join indexes every rest table R_k(q_t) on the columns it shares with
//! the rows before it ([`crate::join`]). When R_k(q_t)'s row runs are one
//! entry's tables alone — read in place, numbered end to end — that index is
//! a function of the entry, the destination machine `k`, the machines whose
//! tables follow `k`'s (the load set) and the key columns — so it is built once and filed in the
//! book with the entry, under that key (`RkMemo`). It is built on first use
//! with no lock held, its key map sized to the distinct keys (a slot per row
//! would be 41 B a row; this is about 6), and filed only if the entry it was
//! built over — named by its serial — is still resident and has the room;
//! it is charged to the budget like the tables are (evicting
//! least-recently-used entries if that overflows it) and dropped with the
//! entry. An index that is not filed is used once. A repair makes a new
//! entry with no indexes, so only repaired shapes index again, lazily.
//!
//! ## The plan and join-order memo
//!
//! Before its first row a query is optimized twice: the plan (STwig
//! decomposition and order, cluster graph, head STwig — §5.1–5.3) and, on
//! every machine, a sampled join order over its R_k tables (§4.2 step 3).
//! For a query the cache serves both are functions of inputs that do not
//! change, so the cache keeps them (`StwigCache::plan`, `PlanMemo`):
//!
//! * **Key** — the query as submitted (vertex labels and edge list, in the
//!   order given: no canonicalization). No config field plans or orders:
//!   the join always selects from fixed-size samples
//!   (`pipeline::join_order`).
//! * **Plan validity** — a plan holds for the snapshot epoch it was made at:
//!   the label statistics it reads are fixed within an epoch, and a seal
//!   keeps both the epoch and the statistics. A request at a later epoch
//!   plans again and replaces the memo; one pinned to an older epoch plans
//!   fresh and leaves it resident (as `lookup` treats tables).
//! * **Orders** — machine `k`'s order is filed in the memo's slot with the
//!   R_k(q_t) tables it was selected over, named by each one's entry
//!   *serial* (unique within the cache, assigned when an entry is made,
//!   never an address — a repair or re-populate is a new entry with a new
//!   serial) and the machines whose tables followed `k`'s. It is consulted
//!   only when every R_k(q_t) is one entry's tables (all its `RkMemo`s
//!   present), and selected again only when those differ. A
//!   re-plan at a later epoch moves the orders to its slot when its STwigs
//!   are the old ones: an order is a function of the tables alone.
//! * **Bound** — a memo is charged to the budget (its orders at their
//!   largest, up front), counts in `bytes_resident`, is evicted
//!   least-recently-used-first with the tables, and is dropped with the
//!   cache. One larger than the budget is used once, not kept.
//!
//! The contract: the memo never changes which plan or order runs, only
//! whether it is computed again — every answer is the one the same cache
//! state gives without it.
//!
//! ## Epochs
//!
//! Against a dynamic cloud (one managed by
//! [`trinity_sim::epoch::GraphEpochs`]) every entry is tagged with the epoch
//! it was explored under, and probes carry the probing snapshot. An entry
//! whose epoch differs from the snapshot's is *never served as-is*:
//!
//! * entry epoch **older** than the snapshot — exploration of shape
//!   `(r; c1..ck)` reads the graph only as adjacency entries "root labelled
//!   `r` → neighbour labelled `ci`", and a root's rows are a function of its
//!   own such entries alone. The lineage's
//!   [`trinity_sim::epoch::EpochTouchLog`] records, per epoch, every entry
//!   that appeared or disappeared keyed by exactly that ordered pair, so
//!   the probe asks it for the roots touched under the shape's pairs since
//!   the entry's epoch. *None*: the canonical tables are bit-identical at
//!   both epochs, the tag advances and the probe hits — a touched pair that
//!   is not one of the shape's (the same labels in another combination)
//!   costs nothing. *Some*: the probe reports [`CacheLookup::Repair`] — the
//!   resident tables plus the touched roots — and the caller re-explores
//!   just those roots against its pinned snapshot and splices their rows
//!   into the old tables (`splice_roots`); every other row is provably
//!   unchanged, so the result equals a fresh populate. Machines owning no
//!   touched root keep sharing their `Arc`'d table. A repaired probe counts
//!   as a miss plus a `repairs`. *Unknown* (the log's ring no longer covers
//!   the range, no log, or the entry is an uncacheable tombstone with a
//!   touched pair): the entry is lazily evicted (`stale_evictions`) and the
//!   probe misses.
//! * entry epoch **newer** than the snapshot — a reader still pinned to an
//!   old epoch; the probe misses but the entry stays resident for
//!   current-epoch queries.
//!
//! Static clouds sit permanently at epoch 0, so every entry tags 0, every
//! probe compares 0 == 0, and none of this costs anything.
//!
//! ## Concurrency and eviction
//!
//! The cache keeps one book under one mutex: the entries with their join
//! indexes, the plan memos with their join orders, one LRU index over both,
//! the bytes they hold against the whole budget, and every counter. So any
//! entry up to the whole budget can be cached, eviction takes the least
//! recently used entry or memo of the whole cache, and [`StwigCache::stats`]
//! reads one state. The lock is held only to look up, file, count and
//! evict: exploration, planning, index builds and order selection run
//! outside it. Entries hand out `CachedTables`, so eviction never
//! invalidates a table a concurrent query is still reading — the reader's
//! `Arc` keeps the data alive and the book simply drops its reference.

use crate::distributed::QueryPlan;
use crate::error::StwigError;
use crate::join::BuildIndex;
use crate::metrics::CacheStats;
use crate::query::{QVid, QueryGraph};
use crate::stwig::STwig;
use crate::table::ResultTable;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use trinity_sim::hash::{FxHashMap, FxHasher};
use trinity_sim::ids::{LabelId, MachineId, VertexId};
use trinity_sim::MemoryCloud;

/// Tuning knobs of the [`StwigCache`].
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Total byte budget: tables, join indexes and plan memos. When a filing
    /// pushes the cache over it, least-recently-used entries and memos are
    /// evicted.
    pub budget_bytes: usize,
    /// Row cap per machine when populating an entry: an unbound exploration
    /// that reaches this many rows is considered pathological, is *not*
    /// cached, and the query falls back to plain (bound) exploration for
    /// that STwig. `None` removes the guard.
    pub populate_row_cap: Option<usize>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            budget_bytes: 64 << 20,
            // Matches the paper config's per-STwig exploration cap: shapes
            // whose *unbound* table exceeds it (hub-rooted cross products on
            // skewed graphs) are marked uncacheable instead of churning the
            // budget with multi-MB entries.
            populate_row_cap: Some(1 << 16),
        }
    }
}

impl CacheConfig {
    /// Sets the byte budget.
    pub fn with_budget_bytes(mut self, bytes: usize) -> Self {
        self.budget_bytes = bytes;
        self
    }
}

/// The canonical shape of an STwig: root label plus sorted child labels.
/// Two planned STwigs with the same shape have identical unbound
/// exploration output up to the column names (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StwigShape {
    root_label: LabelId,
    /// Child labels, sorted ascending.
    child_labels: Vec<LabelId>,
}

impl StwigShape {
    /// The canonical shape of `stwig` within `query`. The third argument is
    /// ignored: a shim for the frozen benchmark, which passes
    /// `MatchConfig::pruning`; the next `[benchmark]` PR deletes it with
    /// `compat.rs`.
    pub fn of(query: &QueryGraph, stwig: &STwig, _: bool) -> StwigShape {
        let (root_label, mut child_labels) = stwig.labels(query);
        child_labels.sort_unstable();
        StwigShape {
            root_label,
            child_labels,
        }
    }

    /// Payload bytes attributed to the key itself.
    fn key_bytes(&self) -> usize {
        std::mem::size_of::<LabelId>() * (1 + self.child_labels.len())
    }
}

/// One entry's canonical tables, one per machine (it derefs to them). The
/// tables are shared individually so a repair can keep the machines it did
/// not touch; the join indexes built over them are filed in the book.
pub struct CachedStwig {
    tables: Vec<Arc<ResultTable>>,
    /// Where the tables are resident. `None` for tables that are shared for
    /// one query and never offered to a cache (degraded): their indexes are
    /// per-query, and no join order is memoized over them.
    home: Option<Home>,
}

/// The cache an entry's tables were made for — where its indexes are filed
/// — its key there, and its serial.
struct Home {
    book: Weak<Mutex<Book>>,
    shape: StwigShape,
    /// Unique within the cache and assigned when the entry is made, so it
    /// names these tables for as long as the cache lives (a filed index and
    /// a memoized join order are keyed by it; an address could be reused).
    serial: u64,
}

/// A shared handle on one entry.
pub(crate) type CachedTables = Arc<CachedStwig>;

/// What a filed index was built over and on: the tables of `dest` then of
/// each of `senders`, keyed on columns `key_cols`.
struct IndexKey {
    dest: MachineId,
    senders: Vec<MachineId>,
    key_cols: Vec<usize>,
}

impl CachedStwig {
    /// Tables that belong to no cache: shared for one query.
    pub(crate) fn detached(tables: Vec<Arc<ResultTable>>) -> CachedTables {
        Arc::new(CachedStwig { tables, home: None })
    }

    /// The entry's serial in its cache; `None` for detached tables.
    fn serial(&self) -> Option<u64> {
        self.home.as_ref().map(|home| home.serial)
    }
}

impl std::ops::Deref for CachedStwig {
    type Target = [Arc<ResultTable>];

    fn deref(&self) -> &Self::Target {
        &self.tables
    }
}

/// Entries are equal when their tables are.
impl PartialEq for CachedStwig {
    fn eq(&self, other: &Self) -> bool {
        self.tables == other.tables
    }
}

impl std::fmt::Debug for CachedStwig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(&self.tables).finish()
    }
}

/// The indexes filed with the entry whose tables are an R_k(q_t)'s row
/// runs, addressed by those runs: `dest`'s table, then each sender's.
pub(crate) struct RkMemo<'a> {
    entry: &'a CachedStwig,
    dest: MachineId,
    senders: Vec<MachineId>,
}

impl<'a> RkMemo<'a> {
    pub(crate) fn new(entry: &'a CachedStwig, dest: MachineId, senders: Vec<MachineId>) -> Self {
        RkMemo {
            entry,
            dest,
            senders,
        }
    }

    /// What names the R_k(q_t) rows for a memoized join order: the
    /// entry's serial and the senders (`dest` is the order's machine).
    /// `None` for detached tables.
    fn rows(&self) -> Option<(u64, &[MachineId])> {
        Some((self.entry.serial()?, &self.senders))
    }

    /// The index of these runs on `key_cols`, and whether this call
    /// had to `build` it. `build` runs with no lock held; the index is filed
    /// if the entry is still resident and the budget has room (of two racing
    /// builders the second adopts the first's).
    pub(crate) fn index(
        &self,
        key_cols: &[usize],
        build: impl FnOnce() -> BuildIndex,
    ) -> (Arc<BuildIndex>, bool) {
        let home = self.entry.home.as_ref();
        let Some((home, book)) = home.and_then(|home| Some((home, home.book.upgrade()?))) else {
            return (Arc::new(build()), true);
        };
        let find = |entry: &Entry| {
            (entry.indexes.iter())
                .find(|(key, _)| {
                    key.dest == self.dest && key.senders == self.senders && key.key_cols == key_cols
                })
                .map(|(_, index)| Arc::clone(index))
        };
        {
            let mut book = lock(&book);
            if let Some(index) = book.resident(home).and_then(|entry| find(entry)) {
                book.counts.index_hits += 1;
                return (index, false);
            }
        }
        let built = Arc::new(build());
        let mut book = lock(&book);
        let budget = book.budget;
        let bytes = built.memory_bytes();
        let Some(entry) = book.resident(home) else {
            return (built, true);
        };
        if let Some(index) = find(entry) {
            return (index, true);
        }
        if entry.bytes + bytes > budget {
            return (built, true);
        }
        let key = IndexKey {
            dest: self.dest,
            senders: self.senders.clone(),
            key_cols: key_cols.to_vec(),
        };
        entry.indexes.push((key, Arc::clone(&built)));
        entry.bytes += bytes;
        entry.index_bytes += bytes;
        book.bytes += bytes;
        book.index_bytes += bytes;
        book.counts.index_builds += 1;
        book.evict_to_budget();
        (built, true)
    }
}

/// A plan memo's key: the query as submitted — vertex labels and edge list,
/// in the order given.
struct PlanKey {
    labels: Vec<LabelId>,
    edges: Vec<(QVid, QVid)>,
}

impl PlanKey {
    fn of(query: &QueryGraph) -> Self {
        PlanKey {
            labels: query.vertices().map(|v| query.label(v)).collect(),
            edges: query.edges().collect(),
        }
    }

    /// The hash `query` is filed under, computed without building its key.
    fn hash(query: &QueryGraph) -> u64 {
        let mut hasher = FxHasher::default();
        query
            .vertices()
            .for_each(|v| query.label(v).hash(&mut hasher));
        query.edges().for_each(|e| e.hash(&mut hasher));
        hasher.finish()
    }

    fn matches(&self, query: &QueryGraph) -> bool {
        (self.labels.iter().copied()).eq(query.vertices().map(|v| query.label(v)))
            && self.edges.iter().copied().eq(query.edges())
    }
}

/// Bytes charged for memoizing `plan` under `key` on `machines` machines: the
/// key, the plan (its cluster graph a distance matrix over the machines) and
/// every machine's order slot at its largest — per STwig a serial, a load
/// set of every machine and a position.
fn plan_bytes(key: &PlanKey, plan: &QueryPlan, machines: usize) -> usize {
    let key_bytes = key.labels.len() * size_of::<LabelId>()
        + key.edges.len() * size_of::<(QVid, QVid)>()
        + size_of::<PlanSlot>();
    let stwigs: usize = (plan.stwigs.iter())
        .map(|s| size_of::<STwig>() + s.children.len() * size_of::<QVid>())
        .sum();
    let cluster = machines * machines * size_of::<u32>();
    let head = plan.head.root_distances.len() * size_of::<u32>();
    let n = plan.stwigs.len();
    let order = size_of::<Option<OrderMemo>>()
        + n * (size_of::<(u64, Vec<MachineId>)>() + machines * size_of::<MachineId>())
        + n * size_of::<usize>();
    key_bytes + size_of::<PlanMemo>() + stwigs + cluster + head + machines * order
}

/// A memoized [`QueryPlan`], made for one query at one snapshot epoch. Its
/// machines' join orders are filed in its slot in the book (see the module
/// docs, "The plan and join-order memo"). Readers share it; evicting it
/// drops only the book's reference.
pub(crate) struct PlanMemo {
    plan: QueryPlan,
    epoch: u64,
    /// The book its slot is filed in, and the hash it is filed under.
    book: Weak<Mutex<Book>>,
    hash: u64,
}

/// One machine's memoized join order and the R_k tables it was selected
/// over: per STwig, what [`RkMemo::rows`] names.
struct OrderMemo {
    over: Vec<(u64, Vec<MachineId>)>,
    order: Arc<[usize]>,
}

impl PlanMemo {
    /// The plan.
    pub(crate) fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Machine `k`'s join order over R_k tables each of whose runs are one
    /// entry of this cache's tables, as `memos` describe them: the memoized one when
    /// it was selected over the same tables (an `order_hits`), otherwise the
    /// one `select` makes, filed while this memo is resident (an
    /// `order_misses`). `None` — `select` not called, nothing counted — when
    /// some R_k(q_t) is not one entry's rows, or the cache is gone.
    pub(crate) fn join_order(
        &self,
        k: usize,
        memos: &[Option<RkMemo<'_>>],
        select: impl FnOnce() -> Vec<usize>,
    ) -> Option<Arc<[usize]>> {
        fn rows<'m>(memo: &'m Option<RkMemo<'_>>) -> Option<(u64, &'m [MachineId])> {
            memo.as_ref()?.rows()
        }
        if memos.len() != self.plan.stwigs.len() || memos.iter().any(|m| rows(m).is_none()) {
            return None;
        }
        let book = self.book.upgrade()?;
        let same = |memo: &&OrderMemo| {
            (memo.over.len() == memos.len())
                && (memo.over.iter().zip(memos))
                    .all(|((serial, senders), m)| rows(m) == Some((*serial, &senders[..])))
        };
        {
            let mut book = lock(&book);
            let memoized = (book.slot_of(self))
                .and_then(|slot| slot.orders[k].as_ref())
                .filter(same)
                .map(|m| Arc::clone(&m.order));
            if let Some(order) = memoized {
                book.counts.order_hits += 1;
                return Some(order);
            }
        }
        let order: Arc<[usize]> = select().into();
        let over = (memos.iter().filter_map(rows))
            .map(|(serial, senders)| (serial, senders.to_vec()))
            .collect();
        let mut book = lock(&book);
        book.counts.order_misses += 1;
        if let Some(slot) = book.slot_of(self) {
            slot.orders[k] = Some(OrderMemo {
                over,
                order: Arc::clone(&order),
            });
        }
        Some(order)
    }
}

/// The outcomes of a cache probe.
#[derive(Debug, Clone)]
pub enum CacheLookup {
    /// The canonical per-machine tables are resident.
    Hit(CachedTables),
    /// Nothing is known about this shape; the caller should populate.
    Miss,
    /// The shape is marked uncacheable (its unbound exploration exceeded the
    /// populate row cap); the caller should run plain bound exploration and
    /// not attempt to populate again.
    Bypass,
    /// The resident tables are exact for the probing snapshot except at the
    /// `touched` roots (sorted ascending): the caller re-explores those and
    /// inserts the spliced tables.
    Repair {
        /// The resident, older-epoch canonical tables.
        tables: CachedTables,
        /// Roots whose rows may have changed since the tables' epoch.
        touched: Vec<VertexId>,
    },
}

/// One cached entry: the canonical per-machine tables — or an uncacheable
/// tombstone — the join indexes filed over them, and bookkeeping.
struct Entry {
    /// `None` marks an uncacheable shape (negative entry). Tombstones are
    /// tiny but participate in LRU so a budget squeeze can reclaim them.
    tables: Option<CachedTables>,
    /// The join indexes built over the tables (see the module docs, "The
    /// join-index memo").
    indexes: Vec<(IndexKey, Arc<BuildIndex>)>,
    /// Everything charged for the entry: key, tables and `index_bytes`.
    bytes: usize,
    /// The indexes' share of `bytes`.
    index_bytes: usize,
    last_used: u64,
    /// The cloud epoch the entry was explored under. Always 0 against a
    /// static cloud; against a dynamic lineage, a probe from a different
    /// epoch revalidates, asks for a repair, misses, or lazily evicts — it
    /// never serves the tables across an epoch boundary unproven (see the
    /// module docs).
    epoch: u64,
}

/// One memoized plan in the book: the full key (the map is keyed by its
/// hash), the memo, its machines' join orders, and bookkeeping.
struct PlanSlot {
    key: PlanKey,
    memo: Arc<PlanMemo>,
    /// One per machine.
    orders: Vec<Option<OrderMemo>>,
    /// Everything charged for the slot (see [`plan_bytes`]).
    bytes: usize,
    last_used: u64,
}

/// What an LRU stamp names: an entry, or a plan memo by its key's hash.
#[derive(Clone)]
enum Resident {
    Stwig(StwigShape),
    Plan(u64),
}

/// Everything the cache knows, under its one lock (see the module docs,
/// "Concurrency and eviction").
#[derive(Default)]
struct Book {
    entries: FxHashMap<StwigShape, Entry>,
    plans: FxHashMap<u64, PlanSlot>,
    /// LRU side index: `last_used` stamp → key. Stamps are unique (one
    /// `tick` per lookup and filing), so eviction pops the smallest stamp in
    /// O(log n) instead of scanning the maps.
    lru: BTreeMap<u64, Resident>,
    budget: usize,
    bytes: usize,
    index_bytes: usize,
    tick: u64,
    /// The next entry's serial.
    serials: u64,
    /// Every counter; `stats` fills in the resident sizes.
    counts: CacheStats,
}

fn lock(book: &Mutex<Book>) -> MutexGuard<'_, Book> {
    book.lock().expect("cache book poisoned")
}

impl Book {
    /// The next LRU stamp.
    fn stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Takes `shape`'s entry out of the map, the LRU index and the byte
    /// counts.
    fn remove(&mut self, shape: &StwigShape) -> Option<Entry> {
        let entry = self.entries.remove(shape)?;
        self.lru
            .remove(&entry.last_used)
            .expect("LRU index out of sync");
        self.bytes -= entry.bytes;
        self.index_bytes -= entry.index_bytes;
        Some(entry)
    }

    /// The entry `home` names, while it is the resident one.
    fn resident(&mut self, home: &Home) -> Option<&mut Entry> {
        (self.entries.get_mut(&home.shape))
            .filter(|entry| entry.tables.as_ref().and_then(|t| t.serial()) == Some(home.serial))
    }

    /// The plan memo of `query`, filed under its `hash`.
    fn plan_slot(&mut self, hash: u64, query: &QueryGraph) -> Option<&mut PlanSlot> {
        (self.plans.get_mut(&hash)).filter(|slot| slot.key.matches(query))
    }

    /// The slot `memo` is filed in, while it is resident.
    fn slot_of(&mut self, memo: &PlanMemo) -> Option<&mut PlanSlot> {
        (self.plans.get_mut(&memo.hash)).filter(|slot| std::ptr::eq(Arc::as_ptr(&slot.memo), memo))
    }

    /// Takes the plan memo filed under `hash` out of the map, the LRU index
    /// and the byte count.
    fn remove_plan(&mut self, hash: u64) -> Option<PlanSlot> {
        let slot = self.plans.remove(&hash)?;
        self.lru
            .remove(&slot.last_used)
            .expect("LRU index out of sync");
        self.bytes -= slot.bytes;
        Some(slot)
    }

    /// Moves what was stamped `previous` to `stamp`.
    fn touch(&mut self, previous: u64, stamp: u64) {
        let key = self.lru.remove(&previous).expect("LRU index out of sync");
        self.lru.insert(stamp, key);
    }

    /// Evicts LRU-first (smallest stamp) until the book fits its budget.
    fn evict_to_budget(&mut self) {
        while self.bytes > self.budget {
            let Some(victim) = self.lru.values().next().cloned() else {
                break;
            };
            match victim {
                Resident::Stwig(shape) => {
                    self.remove(&shape);
                }
                Resident::Plan(hash) => {
                    self.remove_plan(hash);
                }
            }
            self.counts.evictions += 1;
        }
    }

    /// Files the entry unless one of the same or a newer epoch is resident;
    /// returns that one's tables when it is of the *same* epoch.
    fn file(
        &mut self,
        shape: StwigShape,
        tables: Option<CachedTables>,
        bytes: usize,
        epoch: u64,
    ) -> Option<CachedTables> {
        if let Some(resident) = self.entries.get(&shape) {
            if resident.epoch >= epoch {
                // Same or newer version already resident: it wins (at equal
                // epochs both entries were derived from identical
                // exploration; a newer one must not be clobbered by a
                // pinned straggler).
                return (resident.epoch == epoch)
                    .then(|| resident.tables.clone())
                    .flatten();
            }
            // The resident entry is from an older epoch than the incoming
            // one (typically its own repair) — replace it.
            self.remove(&shape);
        }
        let stamp = self.stamp();
        self.bytes += bytes;
        self.lru.insert(stamp, Resident::Stwig(shape.clone()));
        let entry = Entry {
            tables,
            indexes: Vec::new(),
            bytes,
            index_bytes: 0,
            last_used: stamp,
            epoch,
        };
        self.entries.insert(shape, entry);
        self.counts.insertions += 1;
        // `insert` tombstones data entries larger than the whole budget up
        // front, so the entry just filed is only its own victim in the
        // degenerate case of a budget smaller than a tombstone.
        self.evict_to_budget();
        None
    }
}

/// A byte-budgeted LRU cache of per-machine STwig result tables, shared
/// read-mostly across the concurrent queries of a
/// [`crate::engine::QueryEngine`].
///
/// The cache borrows the cloud it was built for, so the cloud provably
/// outlives it — which is what makes the pointer fast path in
/// `StwigCache::matches_cloud` sound.
pub struct StwigCache<'c> {
    cloud: &'c MemoryCloud,
    /// Entries and plan memos reach it through a `Weak`, so entries a reader
    /// still holds do not keep a dropped cache's other entries alive.
    book: Arc<Mutex<Book>>,
    populate_row_cap: Option<usize>,
    /// Lineage of the cloud this cache serves: nonzero when the cloud is a
    /// [`trinity_sim::epoch::GraphEpochs`] snapshot, in which case every
    /// same-lineage snapshot (any epoch) is accepted — the per-entry epoch
    /// tags carry the version discipline.
    lineage: u64,
    num_machines: usize,
}

impl std::fmt::Debug for StwigCache<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let budget = lock(&self.book).budget;
        f.debug_struct("StwigCache")
            .field("budget", &budget)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<'c> StwigCache<'c> {
    /// Creates a cache bound to `cloud` (borrowed for the cache's lifetime).
    pub fn new(cloud: &'c MemoryCloud, config: CacheConfig) -> Self {
        StwigCache {
            cloud,
            book: Arc::new(Mutex::new(Book {
                budget: config.budget_bytes,
                ..Book::default()
            })),
            populate_row_cap: config.populate_row_cap,
            lineage: cloud.lineage(),
            num_machines: cloud.num_machines(),
        }
    }

    /// Whether this cache serves `cloud`: the cloud it was built from, by
    /// address (sound: the borrow keeps it alive, so no other cloud can
    /// occupy its address), or a snapshot of the same dynamic lineage — any
    /// epoch — by lineage id (sound: per-entry epoch tags keep versions from
    /// ever aliasing, see `lookup`). Any other cloud is refused, an equal
    /// rebuild included: build the cache from the cloud you intend to query.
    pub(crate) fn matches_cloud(&self, cloud: &MemoryCloud) -> bool {
        std::ptr::eq(self.cloud, cloud) || (self.lineage != 0 && cloud.lineage() == self.lineage)
    }

    /// The populate-time row cap per machine (see [`CacheConfig`]).
    pub(crate) fn populate_row_cap(&self) -> Option<usize> {
        self.populate_row_cap
    }

    /// Probes the cache for `shape` on behalf of a query pinned to `cloud`,
    /// counting exactly one of hit, miss or bypass. The entry's epoch tag is
    /// compared to the snapshot's epoch; see the module docs for the
    /// revalidate / repair / lazy-evict / leave-resident cases.
    pub fn lookup(&self, shape: &StwigShape, cloud: &MemoryCloud) -> CacheLookup {
        let epoch = cloud.epoch();
        let mut book = lock(&self.book);
        let book = &mut *book;
        let stamp = book.stamp();
        let Some(entry) = book.entries.get_mut(shape) else {
            book.counts.misses += 1;
            return CacheLookup::Miss;
        };
        if entry.epoch > epoch {
            // The probing query is pinned to an epoch older than the entry.
            // Serving would leak the future into the snapshot; evicting
            // would punish current-epoch queries. Miss, leave it resident.
            book.counts.misses += 1;
            return CacheLookup::Miss;
        }
        if entry.epoch < epoch {
            // Stale tag: which roots did (entry.epoch, epoch] touch under the
            // shape's (root, child) pairs? A childless shape would read the
            // postings alone, which the log does not describe.
            let touched = cloud
                .epoch_touch_log()
                .filter(|_| !shape.child_labels.is_empty())
                .and_then(|log| {
                    log.touched_roots(entry.epoch, epoch, shape.root_label, &shape.child_labels)
                });
            match (touched, &entry.tables) {
                // Proof that nothing the shape reads moved: the tables (or
                // the uncacheable verdict) hold at `epoch` too.
                (Some(touched), _) if touched.is_empty() => entry.epoch = epoch,
                // Exact everywhere but at the touched roots. The entry stays
                // resident until the caller's repair replaces it.
                (Some(touched), Some(tables)) => {
                    book.counts.misses += 1;
                    book.counts.repairs += 1;
                    return CacheLookup::Repair {
                        tables: Arc::clone(tables),
                        touched,
                    };
                }
                // Nothing can be proved (range not covered, no log) or
                // nothing to repair (a tombstone): lazily evict and miss, so
                // the caller repopulates against the pinned snapshot.
                _ => {
                    book.remove(shape);
                    book.counts.stale_evictions += 1;
                    book.counts.misses += 1;
                    return CacheLookup::Miss;
                }
            }
        }
        let result = match &entry.tables {
            Some(tables) => {
                book.counts.hits += 1;
                CacheLookup::Hit(Arc::clone(tables))
            }
            None => {
                book.counts.bypasses += 1;
                CacheLookup::Bypass
            }
        };
        let previous = std::mem::replace(&mut entry.last_used, stamp);
        book.touch(previous, stamp);
        result
    }

    /// Inserts the canonical per-machine tables for `shape`, explored
    /// against `cloud`, evicting least-recently-used entries if the cache
    /// exceeds its byte budget, and returns the entry to read them through.
    /// If another query populated or repaired the same shape first at the
    /// same epoch, the resident entry wins and is the one returned (both
    /// were derived from identical exploration, and it may already hold
    /// indexes); a resident entry from an older epoch is replaced — the
    /// shape stays resident, so that is not an eviction.
    ///
    /// An entry larger than the whole budget is recorded as an uncacheable
    /// tombstone instead, and `None` comes back: re-populating it on every
    /// occurrence (unbound exploration + canonicalization, instantly
    /// evicted) would be strictly slower than running without the cache, so
    /// this query explores the STwig bound like every later one will.
    pub(crate) fn insert(
        &self,
        shape: StwigShape,
        tables: Vec<Arc<ResultTable>>,
        cloud: &MemoryCloud,
    ) -> Option<CachedTables> {
        assert_eq!(
            tables.len(),
            self.num_machines,
            "cache entries hold one table per machine"
        );
        let bytes = tables.iter().map(|t| t.memory_bytes()).sum::<usize>() + shape.key_bytes();
        let mut book = lock(&self.book);
        if bytes > book.budget {
            drop(book);
            self.mark_uncacheable(shape, cloud);
            return None;
        }
        let home = Home {
            book: Arc::downgrade(&self.book),
            shape: shape.clone(),
            serial: book.serials,
        };
        book.serials += 1;
        let entry = Arc::new(CachedStwig {
            tables,
            home: Some(home),
        });
        let resident = book.file(shape, Some(Arc::clone(&entry)), bytes, cloud.epoch());
        Some(resident.unwrap_or(entry))
    }

    /// Marks `shape` uncacheable: its unbound exploration exceeded the
    /// populate row cap, so future queries skip straight to plain bound
    /// exploration instead of re-attempting (and re-paying) the populate.
    pub(crate) fn mark_uncacheable(&self, shape: StwigShape, cloud: &MemoryCloud) {
        let bytes = shape.key_bytes() + size_of::<Entry>();
        lock(&self.book).file(shape, None, bytes, cloud.epoch());
    }

    /// The plan of `query` for a request pinned to `cloud`,
    /// counting one of `plan_hits` or `plan_misses`: the memo made at
    /// `cloud`'s epoch, or — on a miss — a memo of the plan `plan` makes,
    /// filed for later requests unless the resident one is newer (this
    /// request is pinned to an older epoch: it stays) or the memo is larger
    /// than the budget. See the module docs, "The plan and join-order memo".
    pub(crate) fn plan(
        &self,
        query: &QueryGraph,
        cloud: &MemoryCloud,
        plan: impl FnOnce() -> Result<QueryPlan, StwigError>,
    ) -> Result<Arc<PlanMemo>, StwigError> {
        let hash = PlanKey::hash(query);
        let epoch = cloud.epoch();
        {
            let mut book = lock(&self.book);
            let stamp = book.stamp();
            let slot = book.plan_slot(hash, query);
            if let Some(slot) = slot.filter(|slot| slot.memo.epoch == epoch) {
                let previous = std::mem::replace(&mut slot.last_used, stamp);
                let memo = Arc::clone(&slot.memo);
                book.touch(previous, stamp);
                book.counts.plan_hits += 1;
                return Ok(memo);
            }
            book.counts.plan_misses += 1;
        }
        let memo = Arc::new(PlanMemo {
            plan: plan()?,
            epoch,
            book: Arc::downgrade(&self.book),
            hash,
        });
        let key = PlanKey::of(query);
        let bytes = plan_bytes(&key, &memo.plan, self.num_machines);
        let mut book = lock(&self.book);
        if bytes > book.budget {
            return Ok(memo);
        }
        let resident = book.plan_slot(hash, query);
        if let Some(slot) = resident.filter(|slot| slot.memo.epoch >= epoch) {
            // A request racing this one filed the same epoch's plan first —
            // the same plan: it wins — or this request is pinned to an epoch
            // older than the resident memo's.
            let same_epoch = slot.memo.epoch == epoch;
            return Ok(if same_epoch {
                Arc::clone(&slot.memo)
            } else {
                memo
            });
        }
        // An earlier epoch's memo, or another query's under the same hash.
        // The same STwigs keep the earlier memo's orders: an order is a
        // function of the tables its key names, whatever the epoch.
        let orders = match book.remove_plan(hash) {
            Some(old) if old.key.matches(query) && old.memo.plan.stwigs == memo.plan.stwigs => {
                old.orders
            }
            _ => (0..self.num_machines).map(|_| None).collect(),
        };
        let stamp = book.stamp();
        book.bytes += bytes;
        book.lru.insert(stamp, Resident::Plan(hash));
        let slot = PlanSlot {
            key,
            memo: Arc::clone(&memo),
            orders,
            bytes,
            last_used: stamp,
        };
        book.plans.insert(hash, slot);
        book.evict_to_budget();
        Ok(memo)
    }

    /// Snapshot of the cache counters, read in one state of the book.
    pub fn stats(&self) -> CacheStats {
        let book = lock(&self.book);
        CacheStats {
            entries: book.entries.len() as u64,
            bytes_resident: book.bytes as u64,
            index_bytes: book.index_bytes as u64,
            ..book.counts
        }
    }
}

/// Files one machine's *unbound, untruncated* exploration table for `stwig`
/// in canonical form. The planner's child order is the canonical column
/// order and exploration emits rows lexicographically, so this is the same
/// table under placeholder column names.
pub(crate) fn canonicalize_table(
    table: ResultTable,
    query: &QueryGraph,
    stwig: &STwig,
) -> ResultTable {
    debug_assert!(
        stwig.has_canonical_children(query),
        "only STwigs in canonical child order are offered to the cache"
    );
    debug_assert!(
        table.rows_are_sorted(),
        "unbound exploration must emit lexicographically sorted rows"
    );
    let placeholder = (0..table.width() as u16).map(QVid).collect();
    table.with_columns(placeholder)
}

/// Repairs one machine's canonical table: the rows of every root in
/// `touched` (sorted ascending) are dropped from `old` and `fresh` — the
/// canonical rows re-explored for those roots, possibly none — takes their
/// place. Canonical rows are sorted root-major and the two inputs then share
/// no root, so one linear merge on the root column keeps the order.
pub(crate) fn splice_roots(
    old: &ResultTable,
    touched: &[VertexId],
    fresh: &ResultTable,
) -> ResultTable {
    debug_assert!(touched.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(old.rows_are_sorted() && fresh.rows_are_sorted());
    let mut out =
        ResultTable::with_capacity(old.columns().to_vec(), old.num_rows() + fresh.num_rows());
    let mut fresh_rows = fresh.rows().peekable();
    let mut next_touched = 0;
    for row in old.rows() {
        while touched.get(next_touched).is_some_and(|&t| t < row[0]) {
            next_touched += 1;
        }
        if touched.get(next_touched) == Some(&row[0]) {
            continue;
        }
        while let Some(fresh_row) = fresh_rows.next_if(|f| f[0] < row[0]) {
            out.push_row(fresh_row);
        }
        out.push_row(row);
    }
    for fresh_row in fresh_rows {
        out.push_row(fresh_row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::produce_stwig_tables;
    use crate::config::{MatchConfig, ResultMode, TransportMode};
    use crate::decompose::{decompose_ordered, UniformStats};
    use crate::distributed::{check_cache, match_query, plan_query, Link, Run};
    use crate::engine::{EngineConfig, QueryEngine};
    use crate::metrics::{MachineMetrics, QueryMetrics};
    use crate::pipeline::join_order;
    use crate::query::QVid;
    use crate::serve::QueryRequest;
    use crate::verify::canonical_rows;
    use trinity_sim::builder::GraphBuilder;
    use trinity_sim::epoch::{GraphEpochs, UpdateBatch};
    use trinity_sim::network::{CostModel, Network};

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }
    fn q(x: u16) -> QVid {
        QVid(x)
    }

    fn table(cols: &[u16], rows: &[&[u64]]) -> ResultTable {
        let mut t = ResultTable::new(cols.iter().map(|&c| q(c)).collect());
        for r in rows {
            let row: Vec<VertexId> = r.iter().map(|&x| v(x)).collect();
            t.push_row(&row);
        }
        t
    }

    fn shared<const N: usize>(tables: [ResultTable; N]) -> Vec<Arc<ResultTable>> {
        tables.into_iter().map(Arc::new).collect()
    }

    fn small_cloud() -> MemoryCloud {
        let mut gb = GraphBuilder::default();
        gb.add_vertex(v(0), "a");
        gb.add_vertex(v(1), "b");
        gb.add_vertex(v(2), "c");
        gb.add_edge(v(0), v(1));
        gb.add_edge(v(0), v(2));
        gb.build(2, CostModel::free())
    }

    /// The star query q0 ("a") with one leaf per name in `leaves`, numbered
    /// q1, q2 in that order, and the planner's one STwig for it.
    fn star_query(leaves: [&str; 2]) -> (QueryGraph, STwig) {
        let cloud = small_cloud();
        let mut qb = QueryGraph::builder();
        let r = qb.vertex_by_name(&cloud, "a").unwrap();
        for name in leaves {
            let leaf = qb.vertex_by_name(&cloud, name).unwrap();
            qb.edge(r, leaf);
        }
        let query = qb.build().unwrap();
        let mut cover = decompose_ordered(&query, &UniformStats).unwrap();
        assert_eq!(cover.len(), 1, "a star is one STwig");
        (query, cover.pop().unwrap())
    }

    /// A query whose vertex numbering runs against its labels: q1 is "c" and
    /// q2 is "b", so the planned STwig lists its children as [q2, q1].
    fn unsorted_query() -> (QueryGraph, STwig) {
        let (query, stwig) = star_query(["c", "b"]);
        assert_eq!(stwig.children, vec![q(2), q(1)]);
        (query, stwig)
    }

    #[test]
    fn shape_sorts_child_labels_of_any_stwig() {
        let (query, planned) = unsorted_query();
        // `STwig::new` orders by id: labels [c, b].
        let hand_built = STwig::new(planned.root, planned.children.clone());
        assert!(planned.has_canonical_children(&query));
        assert!(!hand_built.has_canonical_children(&query));
        let shape = StwigShape::of(&query, &hand_built, false);
        assert!(shape.child_labels.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(shape.root_label, query.label(planned.root));
        assert_eq!(shape, StwigShape::of(&query, &planned, false));
    }

    #[test]
    fn renumbered_queries_share_one_canonical_table() {
        // (a; b, c) numbered both ways round. Either plan explores the "b"
        // child first, so both emit the same rows — under different names.
        let (reversed, stwig_r) = unsorted_query();
        let (forward, stwig_f) = star_query(["b", "c"]);
        assert_eq!(stwig_f.children, vec![q(1), q(2)]);
        assert_eq!(
            StwigShape::of(&reversed, &stwig_r, false),
            StwigShape::of(&forward, &stwig_f, false)
        );
        let rows: [&[u64]; 3] = [&[10, 20, 31], &[10, 21, 31], &[11, 22, 30]];
        let explored_r = table(&[0, 2, 1], &rows);
        let explored_f = table(&[0, 1, 2], &rows);
        // Filing renames; the rows — which column holds which label — stay.
        let canonical = canonicalize_table(explored_r.clone(), &reversed, &stwig_r);
        assert_eq!(
            canonical,
            canonicalize_table(explored_f, &forward, &stwig_f)
        );
        assert_eq!(canonical.columns(), &[q(0), q(1), q(2)]);
        assert!(canonical.rows().eq(explored_r.rows()));
        // Served back, column `i` is the `i`-th of each STwig's vertices.
        assert!(stwig_r.vertices().eq(explored_r.columns().iter().copied()));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "canonical child order")]
    fn cache_functions_refuse_a_non_canonical_stwig() {
        let (query, planned) = unsorted_query();
        let hand_built = STwig::new(planned.root, planned.children);
        canonicalize_table(table(&[0, 1, 2], &[]), &query, &hand_built);
    }

    #[test]
    fn lookup_insert_and_stats() {
        let cloud = small_cloud();
        let cache = StwigCache::new(&cloud, CacheConfig::default());
        let (query, stwig) = unsorted_query();
        let shape = StwigShape::of(&query, &stwig, false);
        assert!(matches!(cache.lookup(&shape, &cloud), CacheLookup::Miss));
        let tables = shared([table(&[0, 1, 2], &[&[1, 2, 3]]), table(&[0, 1, 2], &[])]);
        let arc = cache.insert(shape.clone(), tables, &cloud).unwrap();
        assert_eq!(arc.len(), 2);
        let CacheLookup::Hit(hit) = cache.lookup(&shape, &cloud) else {
            panic!("entry must be resident after insert");
        };
        assert!(Arc::ptr_eq(&arc, &hit));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes_resident > 0);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn double_insert_keeps_the_resident_entry() {
        let cloud = small_cloud();
        let cache = StwigCache::new(&cloud, CacheConfig::default());
        let (query, stwig) = unsorted_query();
        let shape = StwigShape::of(&query, &stwig, false);
        let entry = || shared([table(&[0], &[&[1]]), table(&[0], &[&[2]])]);
        let first = cache.insert(shape.clone(), entry(), &cloud).unwrap();
        // The loser reads through the resident entry — and its index memo.
        let second = cache.insert(shape.clone(), entry(), &cloud).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.stats().insertions, 1, "resident entry wins the race");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn uncacheable_shapes_bypass() {
        let cloud = small_cloud();
        let cache = StwigCache::new(&cloud, CacheConfig::default());
        let (query, stwig) = unsorted_query();
        let shape = StwigShape::of(&query, &stwig, false);
        assert!(matches!(cache.lookup(&shape, &cloud), CacheLookup::Miss));
        cache.mark_uncacheable(shape.clone(), &cloud);
        assert!(matches!(cache.lookup(&shape, &cloud), CacheLookup::Bypass));
        let stats = cache.stats();
        assert_eq!(stats.bypasses, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn eviction_respects_budget_and_readers_keep_their_tables() {
        let cloud = small_cloud();
        // A budget small enough that a handful of entries forces eviction.
        let config = CacheConfig {
            budget_bytes: 600,
            populate_row_cap: None,
        };
        let cache = StwigCache::new(&cloud, config);
        let mut held = Vec::new();
        for i in 0..8u32 {
            let shape = StwigShape {
                root_label: LabelId(i),
                child_labels: vec![LabelId(i + 100)],
            };
            let rows: Vec<Vec<u64>> = (0..10u64).map(|r| vec![r, r + 1]).collect();
            let refs: Vec<&[u64]> = rows.iter().map(|r| r.as_slice()).collect();
            let t = table(&[0, 1], &refs);
            held.push(cache.insert(shape, shared([t.clone(), t]), &cloud).unwrap());
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "tiny budget must evict");
        assert!(
            stats.bytes_resident <= 600,
            "resident bytes {} exceed the budget",
            stats.bytes_resident
        );
        // Evicted or not, every Arc handed out remains fully readable.
        for tables in &held {
            assert_eq!(tables[0].num_rows(), 10);
            assert_eq!(tables[0].row(9), &[v(9), v(10)]);
        }
    }

    /// Two equal ten-row machine tables over five keys in column 0, the
    /// R_0 their two runs make, and a shape numbered `i` to file them under.
    fn keyed_entry(i: u32) -> (StwigShape, Vec<Arc<ResultTable>>, ResultTable) {
        let shape = StwigShape {
            root_label: LabelId(i),
            child_labels: vec![LabelId(i + 100)],
        };
        let rows: Vec<Vec<u64>> = (0..10u64).map(|r| vec![r / 2, r]).collect();
        let refs: Vec<&[u64]> = rows.iter().map(|r| r.as_slice()).collect();
        let t = table(&[0, 1], &refs);
        let mut rk = t.clone();
        rk.append(&t);
        (shape, shared([t.clone(), t]), rk)
    }

    fn one_shard(budget_bytes: usize) -> CacheConfig {
        CacheConfig {
            budget_bytes,
            populate_row_cap: None,
        }
    }

    #[test]
    fn index_memo_builds_once_per_key_and_is_charged_to_the_shard() {
        let cloud = small_cloud();
        let cache = StwigCache::new(&cloud, one_shard(1 << 20));
        let (shape, tables, rk) = keyed_entry(0);
        let entry = cache.insert(shape, tables, &cloud).unwrap();
        let tables_only = cache.stats().bytes_resident;
        let rk = &rk;
        let on = |cols: &'static [usize]| move || BuildIndex::build(&rk.into(), cols, true);
        let memo = RkMemo::new(&entry, MachineId(0), vec![MachineId(1)]);
        let (first, built) = memo.index(&[0], on(&[0]));
        assert!(built);
        let (again, built) = memo.index(&[0], || unreachable!("memoized"));
        assert!(!built && Arc::ptr_eq(&first, &again));
        // Other key columns, another destination or another sender list are
        // other rows or another order: each its own index.
        assert!(memo.index(&[1], on(&[1])).1);
        let alone = RkMemo::new(&entry, MachineId(0), Vec::new());
        assert!(alone.index(&[0], on(&[0])).1);
        let elsewhere = RkMemo::new(&entry, MachineId(1), vec![MachineId(0)]);
        assert!(elsewhere.index(&[0], on(&[0])).1);
        let stats = cache.stats();
        assert_eq!((stats.index_builds, stats.index_hits), (4, 1));
        assert!(stats.index_bytes >= 4 * first.memory_bytes() as u64);
        assert_eq!(stats.bytes_resident, tables_only + stats.index_bytes);
        assert_eq!((stats.entries, stats.evictions), (1, 0));
    }

    #[test]
    fn an_index_that_overflows_the_shard_evicts_lru_entries_not_readers() {
        let cloud = small_cloud();
        let (shape_a, tables_a, _) = keyed_entry(0);
        let (shape_b, tables_b, rk) = keyed_entry(1);
        let index_bytes = BuildIndex::build(&(&rk).into(), &[0], true).memory_bytes();
        assert!(index_bytes > 0);
        let entry_bytes = {
            let probe = StwigCache::new(&cloud, one_shard(1 << 20));
            probe.insert(shape_a.clone(), tables_a.clone(), &cloud);
            probe.stats().bytes_resident as usize
        };
        // Room for both entries, not for an index on top of them.
        let budget = 2 * entry_bytes + index_bytes - 1;
        let cache = StwigCache::new(&cloud, one_shard(budget));
        let a = cache.insert(shape_a.clone(), tables_a, &cloud).unwrap();
        let b = cache.insert(shape_b.clone(), tables_b, &cloud).unwrap();
        assert_eq!((cache.stats().entries, cache.stats().evictions), (2, 0));
        let memo = RkMemo::new(&b, MachineId(0), vec![MachineId(1)]);
        assert!(
            memo.index(&[0], || BuildIndex::build(&(&rk).into(), &[0], true))
                .1
        );
        let stats = cache.stats();
        assert_eq!(
            (stats.entries, stats.evictions, stats.index_builds),
            (1, 1, 1)
        );
        assert!(stats.bytes_resident as usize <= budget);
        assert_eq!(stats.index_bytes as usize, index_bytes);
        // The least recently used entry went; its reader keeps the tables.
        assert!(matches!(cache.lookup(&shape_a, &cloud), CacheLookup::Miss));
        assert_eq!(a[1].row(9), &[v(4), v(9)]);
        // The charged index stayed with its entry.
        assert!(!memo.index(&[0], || unreachable!("memoized")).1);
        assert!(matches!(
            cache.lookup(&shape_b, &cloud),
            CacheLookup::Hit(_)
        ));

        // An index its own entry has no room for is used once, never kept —
        // and one built over tables that are no longer resident likewise.
        let tight = StwigCache::new(&cloud, one_shard(entry_bytes + index_bytes - 1));
        let (shape, tables, _) = keyed_entry(2);
        let only = tight.insert(shape, tables, &cloud).unwrap();
        for memo in [
            RkMemo::new(&only, MachineId(0), vec![MachineId(1)]),
            RkMemo::new(&a, MachineId(0), vec![MachineId(1)]),
        ] {
            for _ in 0..2 {
                assert!(
                    memo.index(&[0], || BuildIndex::build(&(&rk).into(), &[0], true))
                        .1
                );
            }
        }
        let stats = tight.stats();
        assert_eq!((stats.index_builds, stats.index_bytes), (0, 0));
        assert_eq!((stats.entries, stats.evictions), (1, 0));
        assert_eq!(cache.stats().index_builds, 1);
    }

    #[test]
    fn an_entry_up_to_the_whole_budget_is_served_not_tombstoned() {
        let cloud = small_cloud();
        let (shape, tables, _) = keyed_entry(0);
        let bytes = tables.iter().map(|t| t.memory_bytes()).sum::<usize>() + shape.key_bytes();
        // The entry fills half the budget.
        let config = CacheConfig::default().with_budget_bytes(2 * bytes);
        let cache = StwigCache::new(&cloud, config);
        let entry = cache.insert(shape.clone(), tables, &cloud);
        let CacheLookup::Hit(hit) = cache.lookup(&shape, &cloud) else {
            panic!("an entry within the budget must be served");
        };
        assert!(entry.is_some_and(|entry| Arc::ptr_eq(&entry, &hit)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.bypasses, stats.entries), (1, 0, 1));
        assert_eq!(stats.bytes_resident as usize, bytes);
    }

    #[test]
    fn the_entry_evicted_is_the_least_recently_used_in_the_whole_cache() {
        let cloud = small_cloud();
        let entries: Vec<_> = (0..17).map(keyed_entry).collect();
        let (shape, tables, _) = &entries[0];
        let entry_bytes =
            tables.iter().map(|t| t.memory_bytes()).sum::<usize>() + shape.key_bytes();
        // Room for sixteen entries, not for a seventeenth.
        let budget = 17 * entry_bytes - 1;
        let cache = StwigCache::new(&cloud, CacheConfig::default().with_budget_bytes(budget));
        for (shape, tables, _) in &entries[..16] {
            assert!(cache
                .insert(shape.clone(), tables.clone(), &cloud)
                .is_some());
        }
        assert_eq!((cache.stats().entries, cache.stats().evictions), (16, 0));
        // The first entry is used again, so the second is the least recent.
        assert!(matches!(
            cache.lookup(&entries[0].0, &cloud),
            CacheLookup::Hit(_)
        ));
        let (shape, tables, _) = &entries[16];
        cache.insert(shape.clone(), tables.clone(), &cloud);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (16, 1));
        for (i, (shape, _, _)) in entries.iter().enumerate() {
            let hit = matches!(cache.lookup(shape, &cloud), CacheLookup::Hit(_));
            assert_eq!(hit, i != 1, "entry {i}");
        }
    }

    #[test]
    fn racing_builders_of_one_index_file_one_and_share_it() {
        let cloud = small_cloud();
        let cache = StwigCache::new(&cloud, CacheConfig::default());
        let (shape, tables, rk) = keyed_entry(0);
        let entry = cache.insert(shape, tables, &cloud).unwrap();
        let memo = RkMemo::new(&entry, MachineId(0), vec![MachineId(1)]);
        // Both builders are past the lookup before either files its index.
        let barrier = std::sync::Barrier::new(2);
        let build = || {
            memo.index(&[0], || {
                barrier.wait();
                BuildIndex::build(&(&rk).into(), &[0], true)
            })
        };
        let (a, b) = std::thread::scope(|s| {
            let (a, b) = (s.spawn(build), s.spawn(build));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(a.1 && b.1, "both built");
        assert!(Arc::ptr_eq(&a.0, &b.0), "the second adopts the first's");
        let stats = cache.stats();
        assert_eq!((stats.index_builds, stats.index_hits), (1, 0));
        assert_eq!(stats.index_bytes as usize, a.0.memory_bytes());
        let (again, built) = memo.index(&[0], || unreachable!("filed"));
        assert!(!built && Arc::ptr_eq(&again, &a.0));
    }

    #[test]
    fn stale_entry_with_a_touched_pair_is_repaired_not_served() {
        let epochs = GraphEpochs::new(small_cloud());
        let cache = StwigCache::new(epochs.base_cloud(), CacheConfig::default());
        let (query, stwig) = unsorted_query();
        let shape = StwigShape::of(&query, &stwig, false);
        let snap0 = epochs.pin();
        let stale = cache
            .insert(
                shape.clone(),
                shared([table(&[0], &[&[1]]), table(&[0], &[&[2]])]),
                &snap0,
            )
            .unwrap();
        // Touch pair (a, b) at root 0: add a b-vertex and wire it to the
        // a-root.
        let batch = UpdateBatch::new()
            .add_vertex(v(10), "b")
            .add_edge(v(0), v(10));
        epochs.apply(&batch).unwrap();
        let snap1 = epochs.pin();
        assert!(cache.matches_cloud(&snap1), "same lineage must match");
        let CacheLookup::Repair { tables, touched } = cache.lookup(&shape, &snap1) else {
            panic!("an epoch-0 entry with a touched pair must not serve epoch 1 as-is");
        };
        assert!(Arc::ptr_eq(&tables, &stale));
        assert_eq!(touched, vec![v(0)], "only the a-root's rows can have moved");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.repairs), (0, 1, 1));
        assert_eq!(stats.stale_evictions, 0);
        assert_eq!(stats.entries, 1, "resident until its repair replaces it");
        // The repair lands at epoch 1 and is what later probes hit; taking
        // the place of the entry it repaired is not an eviction.
        let repaired = cache
            .insert(
                shape.clone(),
                shared([table(&[0], &[&[7]]), table(&[0], &[&[2]])]),
                &snap1,
            )
            .unwrap();
        let CacheLookup::Hit(hit) = cache.lookup(&shape, &snap1) else {
            panic!("the repaired entry must be resident");
        };
        assert!(Arc::ptr_eq(&hit, &repaired));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.stale_evictions), (1, 0));
    }

    #[test]
    fn touched_pair_outside_the_shape_still_hits() {
        let epochs = GraphEpochs::new(small_cloud());
        let cache = StwigCache::new(epochs.base_cloud(), CacheConfig::default());
        let (query, stwig) = unsorted_query();
        // Shape (a; b, c) reads pairs (a, b) and (a, c). A b–c edge touches
        // both child labels, but only as pairs (b, c) and (c, b).
        let shape = StwigShape::of(&query, &stwig, false);
        let snap0 = epochs.pin();
        let arc = cache
            .insert(
                shape.clone(),
                shared([table(&[0], &[&[1]]), table(&[0], &[&[2]])]),
                &snap0,
            )
            .unwrap();
        epochs
            .apply(&UpdateBatch::new().add_edge(v(1), v(2)))
            .unwrap();
        let CacheLookup::Hit(hit) = cache.lookup(&shape, &epochs.pin()) else {
            panic!("same labels in another combination must not cost the entry");
        };
        assert!(Arc::ptr_eq(&arc, &hit));
        assert_eq!(cache.stats().repairs, 0);
    }

    #[test]
    fn tombstone_with_a_touched_pair_is_evicted_not_repaired() {
        let epochs = GraphEpochs::new(small_cloud());
        let cache = StwigCache::new(epochs.base_cloud(), CacheConfig::default());
        let (query, stwig) = unsorted_query();
        let shape = StwigShape::of(&query, &stwig, false);
        cache.mark_uncacheable(shape.clone(), &epochs.pin());
        // Untouched pairs: the verdict carries over.
        epochs
            .apply(&UpdateBatch::new().add_edge(v(1), v(2)))
            .unwrap();
        let snap1 = epochs.pin();
        assert!(matches!(cache.lookup(&shape, &snap1), CacheLookup::Bypass));
        // Touched pair (a, b): nothing to repair, so it goes.
        epochs
            .apply(&UpdateBatch::new().remove_edge(v(0), v(1)))
            .unwrap();
        assert!(matches!(
            cache.lookup(&shape, &epochs.pin()),
            CacheLookup::Miss
        ));
        let stats = cache.stats();
        assert_eq!(
            (stats.stale_evictions, stats.repairs, stats.entries),
            (1, 0, 0)
        );
        assert_eq!((stats.hits, stats.misses, stats.bypasses), (0, 1, 1));
    }

    #[test]
    fn splice_replaces_touched_roots_rows_in_order() {
        let old = table(
            &[0, 1],
            &[&[1, 10], &[2, 10], &[2, 11], &[3, 12], &[5, 13], &[6, 14]],
        );
        // Root 2 changed, root 4 appeared, root 5 lost its rows, root 9 was
        // touched but never had any.
        let fresh = table(&[0, 1], &[&[2, 11], &[2, 19], &[4, 10]]);
        let spliced = splice_roots(&old, &[v(2), v(4), v(5), v(9)], &fresh);
        let want = table(
            &[0, 1],
            &[&[1, 10], &[2, 11], &[2, 19], &[3, 12], &[4, 10], &[6, 14]],
        );
        assert_eq!(spliced, want);
        // Nothing resident is a populate; nothing fresh is a deletion.
        assert_eq!(
            splice_roots(&table(&[0, 1], &[]), &[v(2), v(4)], &fresh),
            fresh
        );
        assert_eq!(
            splice_roots(&want, &[v(2), v(4)], &table(&[0, 1], &[])),
            table(&[0, 1], &[&[1, 10], &[3, 12], &[6, 14]])
        );
    }

    #[test]
    fn entry_untouched_update_revalidates_entry_in_place() {
        let epochs = GraphEpochs::new(small_cloud());
        let cache = StwigCache::new(epochs.base_cloud(), CacheConfig::default());
        let (query, stwig) = unsorted_query();
        let shape = StwigShape::of(&query, &stwig, false);
        let snap0 = epochs.pin();
        let arc = cache
            .insert(
                shape.clone(),
                shared([table(&[0], &[&[1]]), table(&[0], &[&[2]])]),
                &snap0,
            )
            .unwrap();
        // An isolated vertex changes no adjacency entry — even one carrying
        // a label the shape reads roots no row and is nobody's child.
        epochs
            .apply(&UpdateBatch::new().add_vertex(v(10), "b"))
            .unwrap();
        let snap1 = epochs.pin();
        let CacheLookup::Hit(hit) = cache.lookup(&shape, &snap1) else {
            panic!("an epoch that touched none of the shape's pairs must keep the entry servable");
        };
        assert!(Arc::ptr_eq(&arc, &hit));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.stale_evictions, 0);
        // The tag advanced: a second probe is a plain same-epoch hit.
        assert!(matches!(cache.lookup(&shape, &snap1), CacheLookup::Hit(_)));
    }

    #[test]
    fn older_pinned_snapshot_misses_newer_entry_without_evicting() {
        let epochs = GraphEpochs::new(small_cloud());
        let cache = StwigCache::new(epochs.base_cloud(), CacheConfig::default());
        let (query, stwig) = unsorted_query();
        let shape = StwigShape::of(&query, &stwig, false);
        let snap0 = epochs.pin();
        epochs
            .apply(&UpdateBatch::new().add_vertex(v(10), "d"))
            .unwrap();
        let snap1 = epochs.pin();
        cache.insert(
            shape.clone(),
            shared([table(&[0], &[&[7]]), table(&[0], &[&[8]])]),
            &snap1,
        );
        assert!(
            matches!(cache.lookup(&shape, &snap0), CacheLookup::Miss),
            "a query pinned to epoch 0 must never be served an epoch-1 entry"
        );
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "the newer entry stays resident");
        assert_eq!(stats.stale_evictions, 0);
        assert!(matches!(cache.lookup(&shape, &snap1), CacheLookup::Hit(_)));
    }

    #[test]
    fn insert_replaces_older_epoch_resident_and_keeps_newer() {
        let epochs = GraphEpochs::new(small_cloud());
        let cache = StwigCache::new(epochs.base_cloud(), CacheConfig::default());
        let (query, stwig) = unsorted_query();
        let shape = StwigShape::of(&query, &stwig, false);
        let snap0 = epochs.pin();
        cache.insert(
            shape.clone(),
            shared([table(&[0], &[&[1]]), table(&[0], &[&[2]])]),
            &snap0,
        );
        epochs
            .apply(&UpdateBatch::new().add_vertex(v(10), "d"))
            .unwrap();
        let snap1 = epochs.pin();
        // The epoch-1 populate replaces the epoch-0 resident …
        cache.insert(
            shape.clone(),
            shared([table(&[0], &[&[7]]), table(&[0], &[&[8]])]),
            &snap1,
        );
        let CacheLookup::Hit(hit) = cache.lookup(&shape, &snap1) else {
            panic!("replacement entry must be resident");
        };
        assert_eq!(hit[0].row(0), &[v(7)]);
        assert_eq!(
            cache.stats().stale_evictions,
            0,
            "the shape stayed resident: a replacement is not an eviction"
        );
        // … and an epoch-0 straggler does not clobber it back.
        cache.insert(
            shape.clone(),
            shared([table(&[0], &[&[1]]), table(&[0], &[&[2]])]),
            &snap0,
        );
        let CacheLookup::Hit(hit) = cache.lookup(&shape, &snap1) else {
            panic!("newer entry must survive the straggler insert");
        };
        assert_eq!(hit[0].row(0), &[v(7)]);
    }

    #[test]
    fn a_foreign_cloud_is_refused() {
        let cloud = small_cloud();
        let cache = StwigCache::new(&cloud, CacheConfig::default());
        assert!(cache.matches_cloud(&cloud));
        let mut gb = GraphBuilder::default();
        gb.add_vertex(v(0), "a");
        gb.add_vertex(v(1), "b");
        gb.add_edge(v(0), v(1));
        let other = gb.build(2, CostModel::free());
        assert!(!cache.matches_cloud(&other));
    }

    #[test]
    fn an_identical_rebuild_is_refused() {
        let cloud = small_cloud();
        let cache = StwigCache::new(&cloud, CacheConfig::default());
        assert!(cache.matches_cloud(&cloud), "its own cloud, by address");
        assert!(!cache.matches_cloud(&small_cloud()), "an equal rebuild");
        assert!(!cache.matches_cloud(&cloud.clone()), "a copy");
        let err = check_cache(&small_cloud(), Some(&cache));
        assert!(err.is_err(), "refused like any foreign cloud");
    }

    // The plan and join-order memo.

    /// The memo tests' graph as lists, so the graph an update stream made
    /// can be rebuilt to check answers on: twenty chains d – e – f – g with
    /// a second d on every e, and a copy of them under p, r, s, t.
    #[derive(Clone)]
    struct Mirror {
        vertices: Vec<(u64, &'static str)>,
        edges: Vec<(u64, u64)>,
    }

    impl Mirror {
        fn chains() -> Self {
            let mut mirror = Mirror {
                vertices: Vec::new(),
                edges: Vec::new(),
            };
            for (labels, base) in [(["d", "e", "f", "g"], 0u64), (["p", "r", "s", "t"], 10_000)] {
                for i in 0..20 {
                    let [d, e, f, g] = [0, 1_000, 2_000, 3_000].map(|row| base + row + i);
                    let d2 = base + 500 + i;
                    let ids = [d, e, f, g, d2];
                    (mirror.vertices)
                        .extend(ids.into_iter().zip(labels.into_iter().chain([labels[0]])));
                    mirror.edges.extend([(d, e), (d2, e), (e, f), (f, g)]);
                }
            }
            mirror
        }

        fn build(&self, machines: usize) -> MemoryCloud {
            let mut gb = GraphBuilder::default();
            for &(id, label) in &self.vertices {
                gb.add_vertex(v(id), label);
            }
            for &(a, b) in &self.edges {
                gb.add_edge(v(a), v(b));
            }
            gb.build(machines, CostModel::free())
        }

        /// Adds vertex `id`, labelled `label` and wired to `to`: here, and
        /// as the batch that makes the same change.
        fn grow(&mut self, id: u64, label: &'static str, to: u64) -> UpdateBatch {
            self.vertices.push((id, label));
            self.edges.push((id, to));
            UpdateBatch::new()
                .add_vertex(v(id), label)
                .add_edge(v(id), v(to))
        }

        /// Every embedding of `query`, by plain backtracking over a rebuild —
        /// the oracle an engine's answer is held to.
        fn embeddings(&self, query: &QueryGraph) -> Vec<Vec<VertexId>> {
            fn extend(
                cloud: &MemoryCloud,
                query: &QueryGraph,
                row: &mut Vec<VertexId>,
                out: &mut Vec<Vec<VertexId>>,
            ) {
                if row.len() == query.num_vertices() {
                    out.push(row.clone());
                    return;
                }
                let next = QVid(row.len() as u16);
                for x in cloud.iter_vertices() {
                    let fits = cloud.label_of_global(x) == Some(query.label(next))
                        && !row.contains(&x)
                        && (query.neighbors(next).filter(|u| u.index() < row.len()))
                            .all(|u| cloud.has_edge_global(row[u.index()], x));
                    if fits {
                        row.push(x);
                        extend(cloud, query, row, out);
                        row.pop();
                    }
                }
            }
            let mut out = Vec::new();
            extend(&self.build(1), query, &mut Vec::new(), &mut out);
            out.sort_unstable();
            out
        }
    }

    /// The path query over four labels, in the order given.
    fn path(cloud: &MemoryCloud, labels: [&str; 4]) -> QueryGraph {
        let mut qb = QueryGraph::builder();
        let [a, b, c, d] = labels.map(|l| qb.vertex_by_name(cloud, l).unwrap());
        qb.edge(a, b).edge(b, c).edge(c, d);
        qb.build().unwrap()
    }

    fn direct() -> MatchConfig {
        MatchConfig::exhaustive()
            .with_num_threads(Some(1))
            .with_transport_mode(TransportMode::DirectRead)
    }

    /// The memo's four counters: plan hits and misses, order hits and misses.
    fn memo_counts(s: &CacheStats) -> [u64; 4] {
        [s.plan_hits, s.plan_misses, s.order_hits, s.order_misses]
    }

    #[test]
    fn a_warm_repeat_through_the_door_takes_its_plan_and_orders_from_the_memo() {
        let cloud = Mirror::chains().build(3);
        let query = path(&cloud, ["d", "e", "f", "g"]);
        let engine = QueryEngine::new(
            &cloud,
            EngineConfig::default()
                .with_workers(Some(1))
                .with_match_config(direct()),
        );
        let ask = || {
            let handle = engine
                .submit(QueryRequest::new(query.clone()))
                .expect_accepted();
            engine.drain();
            let table = handle.wait().unwrap().table.expect("a table output");
            (table, engine.cache_stats().unwrap())
        };
        let (cold, planned) = ask();
        let (warm, memoized) = ask();
        assert_eq!(warm, cold, "bit for bit");
        assert!(cold.num_rows() > 0);
        // Every machine with head rows joined, over served tables alone.
        let joins = planned.order_misses;
        assert!(joins > 1, "{planned:?}");
        assert_eq!(memo_counts(&planned), [0, 1, 0, joins]);
        // The repeat moves the memo's hit counters and nothing else of it.
        assert_eq!(memo_counts(&memoized), [1, 1, joins, joins]);
        let unchanged = |s: &CacheStats| (s.misses, s.insertions, s.index_builds, s.bytes_resident);
        assert_eq!(unchanged(&memoized), unchanged(&planned));
    }

    #[test]
    fn memoized_orders_equal_a_fresh_selection_on_every_machine() {
        let cloud = Mirror::chains().build(3);
        for labels in [["d", "e", "f", "g"], ["g", "f", "e", "d"]] {
            let query = path(&cloud, labels);
            let config = direct();
            let cache = StwigCache::new(&cloud, CacheConfig::default());
            match_query(
                &cloud,
                &query,
                &config,
                Run {
                    cache: Some(&cache),
                    ..Run::default()
                },
            )
            .unwrap();
            let memo = (cache.plan(&query, &cloud, || unreachable!("memoized"))).unwrap();
            let plan = memo.plan();
            assert!(plan.stwigs.len() > 1, "a join to order");
            let mut metrics = QueryMetrics::default();
            let mut machines: Vec<MachineMetrics> = (0..cloud.num_machines())
                .map(|_| MachineMetrics::default())
                .collect();
            let cached = Some(&cache);
            let tables = (produce_stwig_tables(
                &cloud,
                &query,
                plan,
                &config,
                cached,
                None,
                &mut metrics,
                &mut machines,
            ))
            .unwrap()
            .expect("an answer");
            let mut checked = 0;
            // Load sets fetched in place, as `DirectRead` does.
            let in_place = MatchConfig::default().with_transport_mode(TransportMode::DirectRead);
            let ledger = Network::new(cloud.num_machines());
            let link = Link::new(&cloud, &ledger, &in_place, None);
            for k in 0..cloud.num_machines() {
                let rk = link.assemble_rk(plan, &tables, k).unwrap();
                if rk.tables[plan.head.head_index].is_empty() {
                    continue; // the machine never joined
                }
                let fresh = join_order(&rk.tables);
                let memoized = memo.join_order(k, &rk.memos, || unreachable!("memoized"));
                assert_eq!(memoized.as_deref(), Some(&fresh[..]), "machine {k}");
                checked += 1;
            }
            assert!(checked > 1, "{labels:?}");
        }
    }

    #[test]
    fn a_plan_is_made_once_per_epoch_and_a_seal_keeps_it() {
        let mut mirror = Mirror::chains();
        let epochs = GraphEpochs::new(mirror.build(2));
        let query = path(epochs.base_cloud(), ["d", "e", "f", "g"]);
        let engine = QueryEngine::for_epochs(
            &epochs,
            EngineConfig::default()
                .with_workers(Some(1))
                .with_match_config(direct()),
        );
        let ask = |mirror: &Mirror| {
            let handle = engine
                .submit(QueryRequest::new(query.clone()))
                .expect_accepted();
            engine.drain();
            let table = handle.wait().unwrap().table.unwrap();
            assert_eq!(canonical_rows(&query, &table), mirror.embeddings(&query));
            let stats = engine.cache_stats().unwrap();
            (stats.plan_hits, stats.plan_misses)
        };
        ask(&mirror);
        assert_eq!(ask(&mirror), (1, 1));
        // An update moves the epoch: the next request plans again …
        engine
            .apply_updates(mirror.grow(3_500, "g", 2_000))
            .expect_accepted();
        engine.drain();
        assert_eq!(ask(&mirror), (1, 2));
        // … and a seal keeps the epoch and the statistics: the plan stays.
        assert_eq!(engine.seal_epoch(), Some(1));
        assert_eq!(ask(&mirror), (2, 2));

        // A request pinned to an older snapshot than the memo plans fresh,
        // answers for its snapshot and leaves the newer memo resident.
        let cache = StwigCache::new(epochs.base_cloud(), CacheConfig::default());
        let config = direct();
        let run = |snap: &MemoryCloud| {
            let out = match_query(
                snap,
                &query,
                &config,
                Run {
                    cache: Some(&cache),
                    ..Run::default()
                },
            );
            canonical_rows(&query, &out.unwrap().table)
        };
        let (old, before) = (epochs.pin(), mirror.clone());
        epochs.apply(&mirror.grow(3_501, "g", 2_001)).unwrap();
        let new = epochs.pin();
        assert_eq!(run(&new), mirror.embeddings(&query));
        assert_eq!(run(&old), before.embeddings(&query));
        assert_eq!(memo_counts(&cache.stats())[..2], [0, 2]);
        run(&new);
        assert_eq!(
            memo_counts(&cache.stats())[..2],
            [1, 2],
            "the newer memo stayed"
        );
    }

    #[test]
    fn a_repair_reselects_only_the_orders_that_joined_it() {
        let mut mirror = Mirror::chains();
        let epochs = GraphEpochs::new(mirror.build(2));
        let base = epochs.base_cloud();
        let churned = path(base, ["d", "e", "f", "g"]);
        let quiet = path(base, ["p", "r", "s", "t"]);
        // An order is a function of its tables, so a re-plan with the same
        // STwigs keeps the orders.
        let config = direct();
        let cache = StwigCache::new(base, CacheConfig::default());
        let ask = |query: &QueryGraph, mirror: &Mirror| {
            let out = match_query(
                &epochs.pin(),
                query,
                &config,
                Run {
                    cache: Some(&cache),
                    ..Run::default()
                },
            );
            assert_eq!(
                canonical_rows(query, &out.unwrap().table),
                mirror.embeddings(query)
            );
            cache.stats()
        };
        let churned_joins = ask(&churned, &mirror).order_misses;
        let all_joins = ask(&quiet, &mirror).order_misses;
        let quiet_joins = all_joins - churned_joins;
        assert!(churned_joins > 1 && quiet_joins > 1);
        ask(&churned, &mirror);
        let warm = ask(&quiet, &mirror);
        assert_eq!(memo_counts(&warm), [2, 2, all_joins, all_joins]);

        // A new f – g edge touches one of the churned query's shapes.
        epochs.apply(&mirror.grow(3_500, "g", 2_000)).unwrap();
        let repaired = ask(&churned, &mirror);
        assert_eq!(repaired.repairs, 1);
        assert_eq!(
            memo_counts(&repaired),
            [2, 3, all_joins, all_joins + churned_joins],
            "every machine that joined the repaired entry selects again"
        );
        let kept = ask(&quiet, &mirror);
        assert_eq!(
            memo_counts(&kept),
            [2, 4, all_joins + quiet_joins, all_joins + churned_joins],
            "the new epoch plans again, and keeps the orders over unrepaired entries"
        );
    }

    #[test]
    fn configs_share_one_plan_memo_and_one_order_selection_per_machine() {
        let cloud = Mirror::chains().build(2);
        let query = path(&cloud, ["d", "e", "f", "g"]);
        // No config field plans or orders: each of these differs from the
        // first in one field, and each runs on the first one's memo.
        let configs = [
            direct(),
            direct().with_result_mode(ResultMode::FirstK(5)),
            MatchConfig {
                block_rows: 3,
                ..direct()
            },
            direct().with_max_stwig_rows(Some(1 << 20)),
            direct().with_transport_mode(TransportMode::Messages),
        ];
        let cache = StwigCache::new(&cloud, CacheConfig::default());
        let mut first = None;
        let mut selected = 0;
        for (i, config) in configs.iter().enumerate() {
            let before = cache.stats();
            match_query(
                &cloud,
                &query,
                config,
                Run {
                    cache: Some(&cache),
                    ..Run::default()
                },
            )
            .unwrap();
            let after = cache.stats();
            let memo = (cache.plan(&query, &cloud, || unreachable!("memoized"))).unwrap();
            let first = first.get_or_insert_with(|| Arc::clone(&memo));
            assert!(
                Arc::ptr_eq(first, &memo),
                "config {i} has a memo of its own"
            );
            let (hits, misses) = (
                after.order_hits - before.order_hits,
                after.order_misses - before.order_misses,
            );
            if i == 0 {
                // Every machine that joined selected its order once.
                assert!(misses > 1 && hits == 0, "{after:?}");
                selected = misses;
            } else {
                // Later configs select nothing: every join takes the memo's
                // order (a first-k join may stop before the last machine).
                assert_eq!(misses, 0, "config {i} selected an order again");
                assert!(hits > 0 && hits <= selected, "config {i}: {hits} hits");
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.plan_misses, 1, "one plan for every config");
        assert_eq!(stats.order_misses, selected);
    }

    #[test]
    fn plan_memos_are_evicted_lru_first_with_the_tables() {
        let cloud = small_cloud();
        let (query, _) = star_query(["b", "c"]);
        let plan = |cache: &StwigCache| {
            let make = || plan_query(&cloud, &query);
            cache.plan(&query, &cloud, make).unwrap()
        };
        let (shape_a, tables_a, _) = keyed_entry(0);
        let (shape_b, tables_b, _) = keyed_entry(1);
        let probe = StwigCache::new(&cloud, one_shard(1 << 20));
        plan(&probe);
        let plan_bytes = probe.stats().bytes_resident as usize;
        probe.insert(shape_a.clone(), tables_a.clone(), &cloud);
        let entry_bytes = probe.stats().bytes_resident as usize - plan_bytes;
        // Room for the memo and one entry, not for a second entry as well.
        let budget = plan_bytes + 2 * entry_bytes - 1;
        let cache = StwigCache::new(&cloud, one_shard(budget));
        let held = plan(&cache);
        cache.insert(shape_a.clone(), tables_a.clone(), &cloud);
        cache.insert(shape_b.clone(), tables_b, &cloud);
        // The memo was the least recently used: it went, the entries stayed,
        // and its reader keeps it.
        let stats = cache.stats();
        assert_eq!((stats.evictions, stats.entries), (1, 2));
        assert!(stats.bytes_resident as usize <= budget);
        assert_eq!(held.plan().stwigs.len(), 1);
        // Planned again, it evicts the least recently used entry …
        let again = plan(&cache);
        assert!(!Arc::ptr_eq(&again, &held));
        assert!(matches!(cache.lookup(&shape_a, &cloud), CacheLookup::Miss));
        // … and a hit keeps it ahead of the entry inserted before the hit.
        assert!(Arc::ptr_eq(&plan(&cache), &again));
        cache.insert(shape_a, tables_a, &cloud);
        assert!(matches!(cache.lookup(&shape_b, &cloud), CacheLookup::Miss));
        assert!(Arc::ptr_eq(&plan(&cache), &again));
        let stats = cache.stats();
        assert_eq!((stats.evictions, stats.entries), (3, 1));
        assert_eq!(memo_counts(&stats)[..2], [2, 2]);
        assert!(stats.bytes_resident as usize <= budget);
    }
}
