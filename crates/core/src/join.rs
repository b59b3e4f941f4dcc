//! Join processing (§4.2 step 3): hash joins over STwig result tables,
//! sample-based join-cardinality estimation and greedy join-order selection.
//!
//! The join is the per-row hot path of the whole matcher, so the build and
//! probe sides avoid heap allocation: the shared-column key is a bare `u64`
//! when one column is shared (the common case for STwig decompositions), a
//! stack-allocated [`InlineKey`] for 2–4 shared columns, and only degrades to
//! a `Vec` key beyond that. The build index is a chained hash index —
//! one pre-sized map from key to chain head/tail plus one pre-sized `next`
//! array — so building it performs no per-row allocation either.
//!
//! An index is a pure function of the build side's rows and key columns, so
//! a build side concatenated from cache-resident STwig tables takes its
//! index from the memo kept beside those tables (`RkMemo`) instead of
//! building one per query.

use crate::cache::RkMemo;
use crate::hash::{FxHashMap, InlineKey, INLINE_KEY_COLUMNS};
use crate::metrics::JoinCounters;
use crate::query::QVid;
use crate::stream::{QueryControl, ResultSink};
use crate::table::ResultTable;
use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::sync::Arc;
use trinity_sim::ids::VertexId;

/// Output rows between cooperative deadline/cancel checks inside one probe
/// pass: a single block can fan out into millions of rows, so the join must
/// observe interrupts without waiting for the round boundary. The check is
/// an atomic load; with no control in play the cost is one predictable
/// branch.
const CONTROL_CHECK_JOIN_ROWS: u64 = 256;

/// Sentinel terminating a row chain in [`ChainedIndex`].
const NO_ROW: u32 = u32::MAX;

/// A chained hash index over the rows of a build-side table: `map` points at
/// the first and last row of each key's chain and `next` links rows with the
/// same key in insertion (ascending) order.
pub(crate) struct ChainedIndex<K> {
    map: FxHashMap<K, (u32, u32)>,
    next: Vec<u32>,
}

impl<K: Hash + Eq> ChainedIndex<K> {
    /// An empty index over `rows` rows whose key map starts with room for
    /// `keys` keys. An index used once is sized for a key per row, so that
    /// inserting never rehashes; one that stays resident starts empty and
    /// grows to its distinct keys — a slot per row would cost 41 B a row
    /// where most rows share their key with others.
    fn with_rows(rows: usize, keys: usize) -> Self {
        assert!(
            rows < NO_ROW as usize,
            "build side exceeds u32 row indexing"
        );
        ChainedIndex {
            map: FxHashMap::with_capacity_and_hasher(keys, Default::default()),
            next: vec![NO_ROW; rows],
        }
    }

    /// Heap bytes held: the chain links plus the key map's buckets (entry
    /// and control byte each; `capacity` is 7/8 of the buckets).
    fn memory_bytes(&self) -> usize {
        let bucket = std::mem::size_of::<(K, (u32, u32))>() + 1;
        self.next.len() * std::mem::size_of::<u32>() + self.map.capacity() * 8 / 7 * bucket
    }

    #[inline]
    fn insert(&mut self, key: K, row: u32) {
        match self.map.entry(key) {
            Entry::Occupied(mut e) => {
                let (_, tail) = e.get_mut();
                self.next[*tail as usize] = row;
                *tail = row;
            }
            Entry::Vacant(e) => {
                e.insert((row, row));
            }
        }
    }

    /// Iterates the rows stored under `key` in insertion order.
    #[inline]
    fn probe(&self, key: &K) -> ChainIter<'_> {
        ChainIter {
            next: &self.next,
            cur: self.map.get(key).map_or(NO_ROW, |&(head, _)| head),
        }
    }
}

struct ChainIter<'a> {
    next: &'a [u32],
    cur: u32,
}

impl Iterator for ChainIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.cur == NO_ROW {
            return None;
        }
        let row = self.cur as usize;
        self.cur = self.next[row];
        Some(row)
    }
}

/// The shared columns of a left schema and a right table as
/// `(left_index, right_index)` pairs.
fn shared_columns(left_columns: &[QVid], right: &ResultTable) -> Vec<(usize, usize)> {
    left_columns
        .iter()
        .enumerate()
        .filter_map(|(li, lc)| right.column_index(*lc).map(|ri| (li, ri)))
        .collect()
}

/// The build-side hash index, pre-built over the shared columns at one of
/// the three key widths [`hash_join`] monomorphizes over.
pub(crate) enum BuildIndex {
    /// No shared column: cartesian product, nothing to index.
    Cross,
    Single(ChainedIndex<u64>),
    Inline(ChainedIndex<InlineKey>),
    Wide(ChainedIndex<Vec<VertexId>>),
}

impl BuildIndex {
    /// Indexes `right` on `key_cols` (its positions of the shared columns).
    /// `resident` says the index will outlive the query (see
    /// [`ChainedIndex::with_rows`]).
    pub(crate) fn build(right: &ResultTable, key_cols: &[usize], resident: bool) -> BuildIndex {
        match key_cols {
            [] => BuildIndex::Cross,
            &[rc] => BuildIndex::Single(build_index(right, resident, |row| row[rc].0)),
            _ if key_cols.len() <= INLINE_KEY_COLUMNS => {
                BuildIndex::Inline(build_index(right, resident, |row| {
                    InlineKey::from_row(row, key_cols)
                }))
            }
            _ => BuildIndex::Wide(build_index(right, resident, |row| wide_key(row, key_cols))),
        }
    }

    /// Heap bytes held (a `Vec` key's own buffer is not counted).
    pub(crate) fn memory_bytes(&self) -> usize {
        match self {
            BuildIndex::Cross => 0,
            BuildIndex::Single(index) => index.memory_bytes(),
            BuildIndex::Inline(index) => index.memory_bytes(),
            BuildIndex::Wide(index) => index.memory_bytes(),
        }
    }
}

/// A hash join whose build side has been indexed once and is probed by left
/// rows of one column schema.
///
/// This is the shape of the block-based pipelined join (§4.2 step 3): every
/// driver row probes the *same* rest tables, so rebuilding (or worse,
/// cloning) the build side per round would make per-round work proportional
/// to the rest tables instead of the block. Prepare once against the left
/// schema, then extend rows through a `ProbeChain`.
pub struct PreparedJoin<'a> {
    right: &'a ResultTable,
    /// Left-row positions of the shared columns, in left-schema order.
    left_cols: Vec<usize>,
    /// Right-side columns that are not shared (appended to the output).
    right_extra: Vec<usize>,
    index: IndexRef,
}

/// A build index: made for this join (held inline — a query that builds its
/// own indexes allocates no handle for them), or shared with every query
/// whose build side holds the same rows ([`PreparedJoin::with_memo`]).
enum IndexRef {
    Own(BuildIndex),
    Memo(Arc<BuildIndex>),
}

impl std::ops::Deref for IndexRef {
    type Target = BuildIndex;

    fn deref(&self) -> &BuildIndex {
        match self {
            IndexRef::Own(index) => index,
            IndexRef::Memo(index) => index,
        }
    }
}

impl<'a> PreparedJoin<'a> {
    /// Indexes `right` for natural joins against left rows whose columns
    /// are exactly `left_columns`, counting the rows indexed in
    /// `counters.build_rows` (none for a cross product).
    pub fn new(left_columns: &[QVid], right: &'a ResultTable, counters: &mut JoinCounters) -> Self {
        Self::with_memo(left_columns, right, None, counters)
    }

    /// [`PreparedJoin::new`] for a `right` whose rows `memo` vouches for:
    /// the index comes from the memo when it holds one for these key
    /// columns, and is built for it otherwise. `counters.build_rows` counts
    /// only rows this call indexed.
    pub(crate) fn with_memo(
        left_columns: &[QVid],
        right: &'a ResultTable,
        memo: Option<&RkMemo<'_>>,
        counters: &mut JoinCounters,
    ) -> Self {
        let shared = shared_columns(left_columns, right);
        let right_extra: Vec<usize> = (0..right.width())
            .filter(|ri| !shared.iter().any(|&(_, r)| r == *ri))
            .collect();
        let (left_cols, right_cols): (Vec<usize>, Vec<usize>) = shared.into_iter().unzip();
        let (index, built) = match memo {
            Some(memo) if !right_cols.is_empty() => {
                let (index, built) =
                    memo.index(&right_cols, || BuildIndex::build(right, &right_cols, true));
                (IndexRef::Memo(index), built)
            }
            _ => (
                IndexRef::Own(BuildIndex::build(right, &right_cols, false)),
                !right_cols.is_empty(),
            ),
        };
        if built {
            counters.build_rows += right.num_rows() as u64;
        }
        PreparedJoin {
            right,
            left_cols,
            right_extra,
            index,
        }
    }

    /// The columns the join output will have for a left table with
    /// `left_columns`: the left columns followed by the right table's
    /// non-shared columns.
    pub fn output_columns(&self, left_columns: &[QVid]) -> Vec<QVid> {
        let mut columns = left_columns.to_vec();
        columns.extend(self.right_extra.iter().map(|&ri| self.right.columns()[ri]));
        columns
    }
}

/// The `Vec` key of a join on more than [`INLINE_KEY_COLUMNS`] columns.
fn wide_key(row: &[VertexId], columns: &[usize]) -> Vec<VertexId> {
    columns.iter().map(|&c| row[c]).collect()
}

/// One depth-first probe chain through prepared joins: a single row buffer
/// of output width starts as a driver row, level *d* probes `levels[d]` with
/// the prefix built so far, appends each matching right row's extra values
/// in place and recurses; the last level hands the finished row to the sink.
/// A partial row is extended one match at a time, so the row budget and an
/// interrupt stop *every* level at once and nothing is materialized between
/// levels. Output order is lexicographic in (driver row, chain position at
/// level 0, at level 1, …) — what joining level by level over whole tables
/// produces.
pub(crate) struct ProbeChain<'a, S: ?Sized> {
    levels: &'a [PreparedJoin<'a>],
    /// The row under construction: a driver row, then each level's extras.
    row: Vec<VertexId>,
    /// Finished rows the chain may still emit.
    pub(crate) budget: usize,
    control: Option<&'a QueryControl>,
    pub(crate) counters: &'a mut JoinCounters,
    pub(crate) sink: &'a mut S,
    /// Levels probed since the caller last reset this.
    pub(crate) deepest: u64,
    /// Whether a cooperative deadline/cancel check stopped the chain.
    pub(crate) interrupted: bool,
}

impl<'a, S: ResultSink + ?Sized> ProbeChain<'a, S> {
    /// A chain over `levels` (at least one) emitting rows of `width` values
    /// — the driver's columns plus every level's extras — to `sink`, at most
    /// `limit` of them.
    pub(crate) fn new(
        levels: &'a [PreparedJoin<'a>],
        width: usize,
        limit: Option<usize>,
        control: Option<&'a QueryControl>,
        counters: &'a mut JoinCounters,
        sink: &'a mut S,
    ) -> Self {
        ProbeChain {
            levels,
            row: vec![VertexId(0); width],
            budget: limit.unwrap_or(usize::MAX),
            control,
            counters,
            sink,
            deepest: 0,
            interrupted: false,
        }
    }

    /// Extends one driver row through every level. `false` once the chain
    /// must stop: the budget — not zero on entry — is spent, or an interrupt
    /// was observed.
    pub(crate) fn drive(&mut self, driver_row: &[VertexId]) -> bool {
        debug_assert!(
            !ResultTable::row_has_duplicates(driver_row),
            "the left row of a join must be injective"
        );
        self.counters.driver_rows += 1;
        self.row[..driver_row.len()].copy_from_slice(driver_row);
        self.probe(0, driver_row.len())
    }

    /// Probes level `depth` with the `len`-value prefix of the row buffer.
    /// The key is taken before the buffer is extended, and the chain it
    /// selects borrows the level, not the buffer.
    fn probe(&mut self, depth: usize, len: usize) -> bool {
        let join = &self.levels[depth];
        self.deepest = self.deepest.max(depth as u64 + 1);
        let right = join.right;
        match &*join.index {
            BuildIndex::Cross => right.rows().all(|rrow| self.extend(depth, len, rrow)),
            BuildIndex::Single(index) => {
                let key = self.row[join.left_cols[0]].0;
                (index.probe(&key)).all(|ri| self.extend(depth, len, right.row(ri)))
            }
            BuildIndex::Inline(index) => {
                let key = InlineKey::from_row(&self.row, &join.left_cols);
                (index.probe(&key)).all(|ri| self.extend(depth, len, right.row(ri)))
            }
            BuildIndex::Wide(index) => {
                let key = wide_key(&self.row, &join.left_cols);
                (index.probe(&key)).all(|ri| self.extend(depth, len, right.row(ri)))
            }
        }
    }

    /// Appends `rrow`'s extra values to the `len`-value prefix — unless one
    /// repeats a value already in the row, which a valid embedding forbids —
    /// then observes an interrupt, counts the row and passes it on: to the
    /// next level, or finished to the sink. Only the appended values are
    /// tested, each against everything before it: the driver row is
    /// injective, as every row exploration emits or a join keeps is.
    #[inline]
    fn extend(&mut self, depth: usize, len: usize, rrow: &[VertexId]) -> bool {
        let mut end = len;
        for &rc in &self.levels[depth].right_extra {
            let value = rrow[rc];
            if self.row[..end].contains(&value) {
                self.counters.rows_pruned_injective += 1;
                return true;
            }
            self.row[end] = value;
            end += 1;
        }
        if (self.counters.intermediate_rows).is_multiple_of(CONTROL_CHECK_JOIN_ROWS)
            && self.control.is_some_and(QueryControl::interrupted)
        {
            self.interrupted = true;
            return false;
        }
        self.counters.intermediate_rows += 1;
        if depth + 1 < self.levels.len() {
            return self.probe(depth + 1, end);
        }
        self.sink.row(&self.row);
        self.budget -= 1;
        self.budget > 0
    }
}

/// Builds a chained hash index over `right`.
fn build_index<K, F>(right: &ResultTable, resident: bool, key: F) -> ChainedIndex<K>
where
    K: Hash + Eq,
    F: Fn(&[VertexId]) -> K,
{
    let rows = right.num_rows();
    let mut index = ChainedIndex::with_rows(rows, if resident { 0 } else { rows });
    for (ri, row) in right.rows().enumerate() {
        index.insert(key(row), ri as u32);
    }
    index
}

/// Hash-joins two tables on their shared columns (natural join).
///
/// * Output columns are `left`'s columns followed by `right`'s non-shared
///   columns.
/// * Rows that map two different query vertices to the same data vertex are
///   dropped (`enforce injectivity`): a valid embedding is a bijection.
/// * If the tables share no column the result is the (injectivity-filtered)
///   cartesian product.
/// * `limit` caps the number of output rows; `Some(0)` yields none.
///
/// **Precondition:** every row of `left` is injective, as every row that
/// exploration emits or a join returns is. Only the values the join appends
/// are tested against the row they extend, so a repeat *within* a left row
/// goes unnoticed (debug builds assert it).
///
/// With exactly one shared column the key is a bare `u64` and neither side
/// allocates per row; 2–4 shared columns use a stack [`InlineKey`]; only a
/// wider overlap falls back to `Vec` keys. This is a one-level `ProbeChain`;
/// the pipelined join runs one chain through all its [`PreparedJoin`]s.
pub fn hash_join(
    left: &ResultTable,
    right: &ResultTable,
    limit: Option<usize>,
    counters: &mut JoinCounters,
) -> ResultTable {
    let join = PreparedJoin::new(left.columns(), right, counters);
    let mut out = ResultTable::new(join.output_columns(left.columns()));
    out.reserve_rows(left.num_rows().min(limit.unwrap_or(usize::MAX)));
    counters.joins_performed += 1;
    let levels = std::slice::from_ref(&join);
    let mut chain = ProbeChain::new(levels, out.width(), limit, None, counters, &mut out);
    if limit != Some(0) {
        for row in left.rows() {
            if !chain.drive(row) {
                break;
            }
        }
    }
    out
}

/// Estimates the number of rows `left ⨝ right` would produce, by sampling up
/// to `sample_size` rows of `left` and probing a per-key count table of
/// `right` built on the shared columns (the sample-based method of
/// [Garcia-Molina et al.]). Uses the same fixed-width keys as [`hash_join`].
pub fn estimate_join_size(left: &ResultTable, right: &ResultTable, sample_size: usize) -> f64 {
    if left.is_empty() || right.is_empty() {
        return 0.0;
    }
    let shared = shared_columns(left.columns(), right);
    match shared.len() {
        0 => {
            // Cartesian product.
            left.num_rows() as f64 * right.num_rows() as f64
        }
        1 => {
            let (lc, rc) = shared[0];
            estimate_keyed(left, right, sample_size, |row| row[lc].0, |row| row[rc].0)
        }
        2..=INLINE_KEY_COLUMNS => {
            let left_cols: Vec<usize> = shared.iter().map(|&(lc, _)| lc).collect();
            let right_cols: Vec<usize> = shared.iter().map(|&(_, rc)| rc).collect();
            estimate_keyed(
                left,
                right,
                sample_size,
                |row| InlineKey::from_row(row, &left_cols),
                |row| InlineKey::from_row(row, &right_cols),
            )
        }
        _ => {
            let left_cols: Vec<usize> = shared.iter().map(|&(lc, _)| lc).collect();
            let right_cols: Vec<usize> = shared.iter().map(|&(_, rc)| rc).collect();
            estimate_keyed(
                left,
                right,
                sample_size,
                |row| wide_key(row, &left_cols),
                |row| wide_key(row, &right_cols),
            )
        }
    }
}

fn estimate_keyed<K, LK, RK>(
    left: &ResultTable,
    right: &ResultTable,
    sample_size: usize,
    left_key: LK,
    right_key: RK,
) -> f64
where
    K: Hash + Eq,
    LK: Fn(&[VertexId]) -> K,
    RK: Fn(&[VertexId]) -> K,
{
    // Count right rows per key — over a stratified sample of the right side
    // when it is large (estimation sits on the per-machine join path of
    // every query, so a full build per candidate pair would cost more than
    // the joins it orders). Sampled counts are scaled back up by the
    // sampling fraction.
    //
    // Strides are computed with a *ceiling* division so the sampled rows
    // span the whole table: a floored `n / sample` stride with a
    // sampled-count stop reads only the first `sample` rows whenever
    // `n < 2 * sample` — a pure prefix, which is systematically biased
    // because exploration tables are lexicographically sorted (low-id
    // vertices first, and on power-law graphs id correlates with degree).
    let rn = right.num_rows();
    let build_cap = sample_size.max(1).saturating_mul(8).max(512);
    let rstep = rn.div_ceil(build_cap).max(1);
    let mut key_counts: FxHashMap<K, u64> =
        FxHashMap::with_capacity_and_hasher(rn.min(build_cap) + 1, Default::default());
    let mut rsampled = 0u64;
    let mut ri = 0usize;
    while ri < rn {
        *key_counts.entry(right_key(right.row(ri))).or_insert(0) += 1;
        rsampled += 1;
        ri += rstep;
    }
    if rsampled == 0 {
        return 0.0;
    }
    let rscale = rn as f64 / rsampled as f64;
    let n = left.num_rows();
    let sample = sample_size.max(1).min(n);
    // Deterministic stratified sample: every ceil(n / sample)-th row, first
    // to last — at most `sample` rows by construction, no prefix clustering.
    let step = n.div_ceil(sample).max(1);
    let mut total_matches = 0u64;
    let mut sampled = 0u64;
    let mut i = 0usize;
    while i < n {
        let key = left_key(left.row(i));
        total_matches += key_counts.get(&key).copied().unwrap_or(0);
        sampled += 1;
        i += step;
    }
    if sampled == 0 {
        return 0.0;
    }
    (total_matches as f64 / sampled as f64) * n as f64 * rscale
}

/// Greedy left-deep join-order selection: start from the smallest table, then
/// repeatedly pick the table whose estimated join with the accumulated
/// intermediate result is cheapest, preferring tables that share at least one
/// column with it.
///
/// The intermediate is never materialized here, so each candidate is
/// estimated against the *joined-columns set*: the per-key fanout is measured
/// from the already-ordered table sharing the most columns with the
/// candidate, then scaled to the current intermediate-size estimate (see
/// `estimate_step`).
///
/// Returns a permutation of `0..tables.len()`.
pub fn select_join_order(tables: &[ResultTable], sample_size: usize) -> Vec<usize> {
    let n = tables.len();
    if n <= 1 {
        return (0..n).collect();
    }
    let mut remaining: Vec<usize> = (0..n).collect();
    // Start from the smallest table (stable sort: ties keep index order).
    remaining.sort_by_key(|&i| tables[i].num_rows());
    let first = remaining.remove(0);
    let mut order = vec![first];
    let mut joined_columns: Vec<QVid> = tables[first].columns().to_vec();
    let mut current_size = tables[first].num_rows() as f64;

    // The last position is decided once one table remains: no estimate.
    while remaining.len() > 1 {
        let mut best: Option<(usize, f64, bool)> = None; // (pos in remaining, est, shares)
        for (pos, &ti) in remaining.iter().enumerate() {
            let shares = tables[ti]
                .columns()
                .iter()
                .any(|c| joined_columns.contains(c));
            let est = estimate_step(tables, &order, ti, current_size, shares, sample_size);
            let better = match best {
                None => true,
                Some((_, be, bshares)) => (shares && !bshares) || (shares == bshares && est < be),
            };
            if better {
                best = Some((pos, est, shares));
            }
        }
        let (pos, est, _) = best.expect("remaining not empty");
        let ti = remaining.remove(pos);
        for c in tables[ti].columns() {
            if !joined_columns.contains(c) {
                joined_columns.push(*c);
            }
        }
        current_size = est;
        order.push(ti);
    }
    order.extend(remaining);
    order
}

/// Estimates `|acc ⨝ tables[ti]|` where `acc` is the (unmaterialized)
/// intermediate of the tables already in `order`, holding an estimated
/// `current_size` rows over the union of their columns.
///
/// `shares` says whether `ti` shares any column with that union. If not, the
/// join is a cartesian product of the intermediate with `ti`. Otherwise the
/// per-row fanout of `acc ⨝ ti` is approximated by the fanout of
/// `tables[base] ⨝ ti` for the already-ordered table `base` sharing the most
/// columns with `ti` (the best available proxy for the intermediate on the
/// join key), scaled from `|base|` rows to `current_size` rows.
fn estimate_step(
    tables: &[ResultTable],
    order: &[usize],
    ti: usize,
    current_size: f64,
    shares: bool,
    sample_size: usize,
) -> f64 {
    if !shares {
        return current_size.max(1.0) * tables[ti].num_rows() as f64;
    }
    // The already-ordered table sharing the most columns with the candidate;
    // earliest ordered table wins ties for determinism.
    let mut base = order[0];
    let mut base_shared = 0usize;
    for &tj in order {
        let cnt = tables[tj]
            .columns()
            .iter()
            .filter(|c| tables[ti].column_index(**c).is_some())
            .count();
        if cnt > base_shared {
            base = tj;
            base_shared = cnt;
        }
    }
    let pair = estimate_join_size(&tables[base], &tables[ti], sample_size).max(1.0);
    pair * (current_size.max(1.0) / tables[base].num_rows().max(1) as f64)
}

/// Joins all tables in the given order, applying a result limit.
pub fn multiway_join(
    tables: &[ResultTable],
    order: &[usize],
    limit: Option<usize>,
    counters: &mut JoinCounters,
) -> ResultTable {
    assert!(!tables.is_empty(), "cannot join zero tables");
    assert_eq!(tables.len(), order.len());
    let mut acc = tables[order[0]].clone();
    if tables.len() == 1 {
        if let Some(l) = limit {
            acc.truncate(l);
        }
        return acc;
    }
    for &ti in &order[1..] {
        // No limit on intermediate joins: a limit is only safe on the final
        // output (earlier truncation could drop rows that would survive).
        let is_last = ti == order[order.len() - 1];
        let step_limit = if is_last { limit } else { None };
        acc = hash_join(&acc, &tables[ti], step_limit, counters);
        if acc.is_empty() {
            break;
        }
    }
    if let Some(l) = limit {
        acc.truncate(l);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QVid;

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

    #[test]
    fn join_on_shared_column() {
        let a = table(&[0, 1], &[&[1, 10], &[2, 20], &[3, 30]]);
        let b = table(&[1, 2], &[&[10, 100], &[10, 101], &[30, 300]]);
        let mut c = JoinCounters::default();
        let joined = hash_join(&a, &b, None, &mut c);
        assert_eq!(joined.columns(), &[q(0), q(1), q(2)]);
        assert_eq!(joined.num_rows(), 3);
        assert_eq!(c.joins_performed, 1);
        assert_eq!(c.intermediate_rows, 3);
    }

    #[test]
    fn single_key_fast_path_preserves_row_order() {
        // Multiple build rows per key: the chained index must yield them in
        // insertion order, so the output matches a nested-loop join.
        let a = table(&[0, 1], &[&[1, 10], &[2, 10], &[3, 30]]);
        let b = table(&[1, 2], &[&[10, 100], &[10, 101], &[10, 102], &[30, 300]]);
        let mut c = JoinCounters::default();
        let joined = hash_join(&a, &b, None, &mut c);
        assert_eq!(joined.num_rows(), 7);
        // Probe row (1, 10) matches build rows in build order: 100, 101, 102.
        assert_eq!(joined.row(0), &[v(1), v(10), v(100)]);
        assert_eq!(joined.row(1), &[v(1), v(10), v(101)]);
        assert_eq!(joined.row(2), &[v(1), v(10), v(102)]);
        assert_eq!(joined.row(3), &[v(2), v(10), v(100)]);
        assert_eq!(joined.row(6), &[v(3), v(30), v(300)]);
    }

    #[test]
    fn multi_column_inline_key_join() {
        // Two shared columns (1 and 2) exercise the InlineKey path.
        let a = table(&[0, 1, 2], &[&[1, 10, 20], &[2, 10, 21], &[3, 11, 20]]);
        let b = table(&[1, 2, 3], &[&[10, 20, 90], &[11, 20, 91], &[10, 22, 92]]);
        let mut c = JoinCounters::default();
        let joined = hash_join(&a, &b, None, &mut c);
        assert_eq!(joined.columns(), &[q(0), q(1), q(2), q(3)]);
        assert_eq!(joined.num_rows(), 2);
        assert_eq!(joined.row(0), &[v(1), v(10), v(20), v(90)]);
        assert_eq!(joined.row(1), &[v(3), v(11), v(20), v(91)]);
    }

    #[test]
    fn wide_key_join_falls_back_to_vec_keys() {
        // Five shared columns exceed INLINE_KEY_COLUMNS.
        let a = table(
            &[0, 1, 2, 3, 4, 5],
            &[&[1, 2, 3, 4, 5, 100], &[1, 2, 3, 4, 6, 101]],
        );
        let b = table(
            &[0, 1, 2, 3, 4, 6],
            &[&[1, 2, 3, 4, 5, 200], &[9, 2, 3, 4, 5, 201]],
        );
        let mut c = JoinCounters::default();
        let joined = hash_join(&a, &b, None, &mut c);
        assert_eq!(joined.num_rows(), 1);
        assert_eq!(
            joined.row(0),
            &[v(1), v(2), v(3), v(4), v(5), v(100), v(200)]
        );
    }

    #[test]
    fn join_enforces_injectivity() {
        // Row would map q0 and q2 to the same data vertex 10.
        let a = table(&[0, 1], &[&[10, 5]]);
        let b = table(&[1, 2], &[&[5, 10], &[5, 11]]);
        let mut c = JoinCounters::default();
        let joined = hash_join(&a, &b, None, &mut c);
        assert_eq!(joined.num_rows(), 1);
        assert_eq!(joined.row(0), &[v(10), v(5), v(11)]);
        assert_eq!(c.rows_pruned_injective, 1);
    }

    #[test]
    fn join_without_shared_columns_is_cross_product() {
        let a = table(&[0], &[&[1], &[2]]);
        let b = table(&[1], &[&[3], &[4]]);
        let mut c = JoinCounters::default();
        let joined = hash_join(&a, &b, None, &mut c);
        assert_eq!(joined.num_rows(), 4);
    }

    #[test]
    fn join_respects_limit() {
        let a = table(&[0], &[&[1], &[2], &[3]]);
        let b = table(&[1], &[&[7], &[8], &[9]]);
        let mut c = JoinCounters::default();
        let joined = hash_join(&a, &b, Some(4), &mut c);
        assert_eq!(joined.num_rows(), 4);
    }

    #[test]
    fn limit_is_spent_before_a_row_is_produced_on_every_path() {
        // Two left rows, each matching a chain of three right rows, over
        // `shared` key columns: 1 is the bare-u64 path, 2 the inline key,
        // 5 the `Vec` key, 0 the cross product (one chain of three for all).
        for shared in [1u16, 2, 5, 0] {
            let key = |base: u64| (0..shared).map(move |j| base + u64::from(j));
            let mut left = ResultTable::new((0..shared).chain([50]).map(q).collect());
            let mut right = ResultTable::new((0..shared).chain([60]).map(q).collect());
            for (base, own) in [(1000, 10), (2000, 11)] {
                let row: Vec<VertexId> = key(base).chain([own]).map(v).collect();
                left.push_row(&row);
                for extra in 0..3 {
                    if shared == 0 && base == 2000 {
                        break;
                    }
                    let row: Vec<VertexId> = key(base).chain([base + 100 + extra]).map(v).collect();
                    right.push_row(&row);
                }
            }
            let full = hash_join(&left, &right, None, &mut JoinCounters::default());
            assert_eq!(full.num_rows(), 6, "{shared} shared columns");
            // Nothing, one row, inside the first chain, at its end, inside
            // the second, everything, more than everything.
            for limit in [0usize, 1, 2, 3, 4, 6, 9] {
                let mut c = JoinCounters::default();
                let out = hash_join(&left, &right, Some(limit), &mut c);
                assert!(out.rows().eq(full.rows().take(limit)), "limit {limit}");
                assert_eq!(c.intermediate_rows, limit.min(6) as u64);
                assert_eq!(c.joins_performed, 1);
                // The chain stops at the left row that fills the budget.
                let consumed = [0, 1, 1, 1, 2, 2, 2][limit.min(6)];
                assert_eq!(c.driver_rows, consumed, "limit {limit}");
                let indexed = if shared == 0 { 0 } else { 6 };
                assert_eq!(c.build_rows, indexed);
            }
        }
    }

    #[test]
    fn an_interrupted_chain_keeps_no_half_accepted_row() {
        use crate::stream::{CancelToken, QueryOptions};
        let token = CancelToken::new();
        token.cancel();
        let options = QueryOptions::none().with_cancel(token);
        let control = QueryControl::new(&options, std::time::Instant::now());
        // The first pair is pruned (and counted) before the interrupt is
        // seen at the first row that would have been kept — at the first
        // level, so the second is never reached.
        let a = table(&[0, 1], &[&[10, 5], &[11, 5]]);
        let b = table(&[1, 2], &[&[5, 10], &[5, 12]]);
        let d = table(&[2, 3], &[&[12, 13]]);
        let mut c = JoinCounters::default();
        let levels = [
            PreparedJoin::new(a.columns(), &b, &mut c),
            PreparedJoin::new(&[q(0), q(1), q(2)], &d, &mut c),
        ];
        let mut out = ResultTable::new(vec![q(0), q(1), q(2), q(3)]);
        let mut chain = ProbeChain::new(&levels, 4, None, Some(&control), &mut c, &mut out);
        assert!(!chain.drive(a.row(0)));
        assert!(chain.interrupted);
        assert_eq!(chain.deepest, 1);
        assert!(out.is_empty());
        assert_eq!((c.intermediate_rows, c.rows_pruned_injective), (0, 1));
        // Uninterrupted, the same chain finishes both left rows.
        let mut chain = ProbeChain::new(&levels, 4, None, None, &mut c, &mut out);
        assert!(a.rows().all(|row| chain.drive(row)));
        assert_eq!(chain.deepest, 2);
        let rows = [[10, 5, 12, 13], [11, 5, 12, 13]];
        assert_eq!(out, table(&[0, 1, 2, 3], &[&rows[0], &rows[1]]));
    }

    #[test]
    fn estimate_matches_exact_for_uniform_keys() {
        let a = table(&[0, 1], &[&[1, 10], &[2, 10], &[3, 20]]);
        let b = table(&[1, 2], &[&[10, 100], &[20, 200]]);
        let est = estimate_join_size(&a, &b, 100);
        let mut c = JoinCounters::default();
        let exact = hash_join(&a, &b, None, &mut c).num_rows();
        assert!((est - exact as f64).abs() < 1.0, "est={est}, exact={exact}");
    }

    #[test]
    fn estimate_multi_column_key() {
        let a = table(&[0, 1, 2], &[&[1, 10, 20], &[2, 10, 21]]);
        let b = table(&[1, 2, 3], &[&[10, 20, 90], &[10, 20, 91], &[10, 21, 92]]);
        let est = estimate_join_size(&a, &b, 100);
        let mut c = JoinCounters::default();
        let exact = hash_join(&a, &b, None, &mut c).num_rows();
        assert!((est - exact as f64).abs() < 1.0, "est={est}, exact={exact}");
    }

    #[test]
    fn estimate_sample_spans_the_whole_table() {
        // Regression for the floored-stride prefix bias: with `sample = 8`
        // and `n = 15` (i.e. `sample <= n < 2 * sample`), the old
        // `step = n / sample = 1` with a `sampled < sample` stop read rows
        // 0..8 only. Here the first 8 left rows match nothing and all the
        // join fanout hides in the tail — exactly the layout sorted
        // exploration tables produce — so the old estimate was 0.0 while
        // the true join yields 7 rows. The ceil stride (step = 2, rows
        // 0,2,..,14) must see the tail.
        let sample = 8usize;
        let left_rows: Vec<Vec<u64>> = (0..15u64)
            .map(|i| {
                if i < 8 {
                    vec![i, 500 + i]
                } else {
                    vec![100, 500 + i]
                }
            })
            .collect();
        let left = {
            let refs: Vec<&[u64]> = left_rows.iter().map(|r| r.as_slice()).collect();
            table(&[0, 1], &refs)
        };
        let right = table(&[0, 2], &[&[100, 900]]);
        let est = estimate_join_size(&left, &right, sample);
        assert!(est > 0.0, "tail matches must be sampled, got {est}");
        let mut c = JoinCounters::default();
        let exact = hash_join(&left, &right, None, &mut c).num_rows() as f64;
        // The stratified estimate cannot be exact, but it must be the right
        // order of magnitude instead of a systematic zero.
        assert!(
            est >= exact / 4.0 && est <= exact * 4.0,
            "est = {est}, exact = {exact}"
        );
    }

    #[test]
    fn estimate_right_side_stride_spans_the_build_table() {
        // The right side had the same flooring: for `rn` up to
        // `2 * build_cap - 1` the floored stride stayed 1 and the "sample"
        // silently built counts for *every* row (up to 2x the cap). The
        // ceil stride keeps the build sample within its cap — and this
        // pins that striding still spans the table: keys that appear only
        // in the build tail must contribute to the estimate.
        let sample = 1usize; // build_cap = 512
        let build_cap = 512usize;
        let rn = build_cap + build_cap / 2;
        let right_rows: Vec<Vec<u64>> = (0..rn as u64)
            .map(|i| {
                if (i as usize) < build_cap {
                    vec![i + 10_000, 900] // keys matching nothing
                } else {
                    vec![7, 900 + i] // the joinable key, tail only
                }
            })
            .collect();
        let right = {
            let refs: Vec<&[u64]> = right_rows.iter().map(|r| r.as_slice()).collect();
            table(&[0, 2], &refs)
        };
        let left = table(&[0, 1], &[&[7, 1]]);
        let est = estimate_join_size(&left, &right, sample);
        assert!(est > 0.0, "build-side tail keys must be sampled, got {est}");
    }

    #[test]
    fn estimate_empty_tables_is_zero() {
        let a = table(&[0], &[]);
        let b = table(&[0], &[&[1]]);
        assert_eq!(estimate_join_size(&a, &b, 10), 0.0);
    }

    #[test]
    fn order_selection_starts_with_smallest_and_prefers_shared_columns() {
        let big = table(&[0, 1], &[&[1, 2], &[3, 4], &[5, 6], &[7, 8]]);
        let small = table(&[2, 3], &[&[9, 10]]);
        let linking = table(&[1, 2], &[&[2, 9], &[4, 9]]);
        let tables = vec![big, small, linking];
        let order = select_join_order(&tables, 16);
        assert_eq!(order.len(), 3);
        assert_eq!(order[0], 1, "smallest table first");
        assert_eq!(order[1], 2, "then the table sharing a column");
    }

    #[test]
    fn order_selection_estimates_against_accumulated_columns() {
        // Regression for the old behaviour of estimating every candidate
        // against tables[order[0]] instead of the accumulated intermediate:
        //
        //   t0 [0]    : 1 row   (smallest → picked first)
        //   t1 [0, 1] : 1 row   (selective against t0 → picked second)
        //   t2 [1, 2] : 100 rows, exactly 1 matching the intermediate's col 1
        //   t3 [0, 3] : 50 rows, ALL matching the intermediate's col 0
        //
        // After [t0, t1] the intermediate has columns {0, 1}. Joining t2 next
        // keeps it at 1 row; joining t3 next blows it up to 50 rows. The old
        // code estimated both candidates against t0 only: t2 shares no column
        // with t0, so it was scored as a 100-row cartesian product and t3
        // (estimate 50) won — the provably worse order.
        let t0 = table(&[0], &[&[1]]);
        let t1 = table(&[0, 1], &[&[1, 10]]);
        let t2_rows: Vec<Vec<u64>> = std::iter::once(vec![10u64, 200])
            .chain((0..99u64).map(|i| vec![300 + i, 500 + i]))
            .collect();
        let t2 = {
            let refs: Vec<&[u64]> = t2_rows.iter().map(|r| r.as_slice()).collect();
            table(&[1, 2], &refs)
        };
        let t3_rows: Vec<Vec<u64>> = (0..50u64).map(|i| vec![1, 1000 + i]).collect();
        let t3 = {
            let refs: Vec<&[u64]> = t3_rows.iter().map(|r| r.as_slice()).collect();
            table(&[0, 3], &refs)
        };
        let tables = vec![t0, t1, t2, t3];

        let order = select_join_order(&tables, 256);
        assert_eq!(order, vec![0, 1, 2, 3], "selective table must come third");

        // The fixed order is provably cheaper: count intermediate rows.
        let mut c_good = JoinCounters::default();
        multiway_join(&tables, &order, None, &mut c_good);
        let mut c_bad = JoinCounters::default();
        multiway_join(&tables, &[0, 1, 3, 2], None, &mut c_bad);
        assert!(
            c_good.intermediate_rows < c_bad.intermediate_rows,
            "good = {}, bad = {}",
            c_good.intermediate_rows,
            c_bad.intermediate_rows
        );
    }

    #[test]
    fn multiway_join_produces_full_embeddings() {
        // q0-q1 pairs, q1-q2 pairs, q2-q3 pairs chained.
        let t1 = table(&[0, 1], &[&[1, 2], &[10, 20]]);
        let t2 = table(&[1, 2], &[&[2, 3], &[20, 30]]);
        let t3 = table(&[2, 3], &[&[3, 4], &[30, 40]]);
        let tables = vec![t1, t2, t3];
        let order = select_join_order(&tables, 8);
        let mut c = JoinCounters::default();
        let result = multiway_join(&tables, &order, None, &mut c);
        assert_eq!(result.num_rows(), 2);
        assert_eq!(result.width(), 4);
        assert_eq!(c.joins_performed, 2);
    }

    #[test]
    fn multiway_join_limit_truncates() {
        let t1 = table(&[0], &[&[1], &[2], &[3]]);
        let t2 = table(&[1], &[&[4], &[5]]);
        let tables = vec![t1, t2];
        let mut c = JoinCounters::default();
        let result = multiway_join(&tables, &[0, 1], Some(2), &mut c);
        assert_eq!(result.num_rows(), 2);
    }

    #[test]
    fn multiway_join_single_table() {
        let t1 = table(&[0], &[&[1], &[2], &[3]]);
        let mut c = JoinCounters::default();
        let result = multiway_join(&[t1], &[0], Some(2), &mut c);
        assert_eq!(result.num_rows(), 2);
        assert_eq!(c.joins_performed, 0);
    }

    #[test]
    fn empty_join_short_circuits() {
        let t1 = table(&[0, 1], &[&[1, 2]]);
        let t2 = table(&[1, 2], &[]);
        let t3 = table(&[2, 3], &[&[5, 6]]);
        let tables = vec![t1, t2, t3];
        let mut c = JoinCounters::default();
        let result = multiway_join(&tables, &[0, 1, 2], None, &mut c);
        assert!(result.is_empty());
    }
}
