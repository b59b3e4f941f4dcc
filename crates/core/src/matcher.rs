//! `MatchSTwig` (Algorithm 1): match one STwig against the memory cloud by
//! graph exploration, its roots pruned on their neighborhood signatures and,
//! optionally, by binding information from previously-processed STwigs.
//!
//! One core (`explore`) serves both transport modes in three steps:
//! `Frontier::collect` decodes every live root's adjacency into one flat
//! arena, one resolution labels it, and the emission core (`explore_roots`)
//! replays it, so the modes' tables are bit-identical row for row. They
//! differ only in loading — [`match_stwig`] (`DirectRead`) reads any root in
//! place, [`match_stwig_batched`] (`Messages`) only its own — in resolution,
//! about the smaller side either way (`DirectRead`: a postings map shared by
//! the STwig's machines, or in place; `Messages`: postings fetched, or the
//! owners asked), and in charging (Algorithm 1's estimate as each root is
//! replayed, or the envelopes sent).

use crate::bindings::Bindings;
use crate::config::MatchConfig;
use crate::error::StwigError;
use crate::hash::FxHashMap;
use crate::metrics::{ExploreCounters, FaultCounters};
use crate::query::QueryGraph;
use crate::retry::{exchange_or_skip, fetch_postings};
use crate::stream::QueryControl;
use crate::stwig::STwig;
use crate::table::ResultTable;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::OnceLock;
use trinity_sim::compact::Neighbors;
use trinity_sim::ids::{LabelId, MachineId, VertexId};
use trinity_sim::network::Network;
use trinity_sim::partition::Cell;
use trinity_sim::transport::{Message, Transport, NOT_OWNED};
use trinity_sim::MemoryCloud;

/// Matches one STwig from the given root candidates.
///
/// For every root candidate `n` (the caller decides whether these come from
/// the local string index or from a binding set, see §4.2):
///
/// 1. `Cloud.Load(n)` fetches the cell (label + neighbors), and a root whose
///    degree or neighborhood signature rules the children out is dropped
///    (`RootFilter::admit`);
/// 2. for each child query vertex, candidate children are the neighbors of
///    `n` that carry the child's label (`Index.hasLabel`, a possibly-remote
///    probe) and are admitted by the child's binding set;
/// 3. the cross product of child candidate sets is emitted, skipping rows
///    that map two query vertices to the same data vertex (a valid embedding
///    is injective).
///
/// The output table's columns are `[root, child_1, .., child_k]`.
///
/// Steps 1–2 are *charged* to the cloud's traffic aggregate as written — a
/// remote root's `Cloud.Load`, one [`MemoryCloud::has_label`] probe per
/// (child scanned, neighbor) — as emission reaches each root, the probes
/// tallied per owner and flushed once ([`Network::charge_label_probes`]): a
/// capped or interrupted exploration charges exactly what it probed, however
/// far it prefetched.
#[allow(clippy::too_many_arguments)]
pub fn match_stwig(
    cloud: &MemoryCloud,
    machine: MachineId,
    query: &QueryGraph,
    stwig: &STwig,
    roots: &[VertexId],
    bindings: &Bindings,
    config: &MatchConfig,
    control: Option<&QueryControl>,
    counters: &mut ExploreCounters,
) -> ResultTable {
    let shared = SharedPostings::new();
    let mode = Mode::InPlace(&shared, cloud.network());
    let explored = explore(
        cloud, mode, machine, query, stwig, roots, bindings, config, control, counters,
    );
    // Only a transport exchange can fail an exploration.
    explored.map_or_else(|e| unreachable!("{e}"), |(table, _)| table)
}

/// One STwig's child-label carriers, `id → label`, built once per phase.
pub(crate) type SharedPostings = OnceLock<FxHashMap<VertexId, u32>>;

/// How an exploration meets the cloud: all the transport modes differ in.
pub(crate) enum Mode<'a> {
    /// `DirectRead`, over the STwig's shared postings, charging the ledger.
    InPlace(&'a SharedPostings, &'a Network),
    /// `Messages`, tallying what the retry layer absorbed, with `Load`
    /// envelopes of at most the given number of ids.
    Messages(&'a dyn Transport, &'a mut FaultCounters, usize),
}

/// Which side of its resolution rule one exploration took. Observability
/// only — [`ExploreCounters`] are equal on either side.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Resolution {
    /// Labels came from postings: a shared map, or fetched.
    pub(crate) from_postings: bool,
    /// Carriers this exploration inserted into a postings map.
    pub(crate) postings_entries: u64,
}

/// [`match_stwig`] or [`match_stwig_batched`] by `mode`, telling which side
/// labeled the arena. `DirectRead` builds the shared map when the STwig's
/// child-label carriers are fewer than the neighbors collected times the
/// machine count, and uses it whenever it is built; else it reads in place.
#[allow(clippy::too_many_arguments)]
pub(crate) fn explore(
    cloud: &MemoryCloud,
    mode: Mode<'_>,
    machine: MachineId,
    query: &QueryGraph,
    stwig: &STwig,
    roots: &[VertexId],
    bindings: &Bindings,
    config: &MatchConfig,
    control: Option<&QueryControl>,
    counters: &mut ExploreCounters,
) -> Result<(ResultTable, Resolution), StwigError> {
    with_scratch(|scratch| {
        let filter = RootFilter::new(query, stwig);
        let frontier = &mut scratch.frontier;
        let in_place = matches!(mode, Mode::InPlace(..));
        // Where `DirectRead`'s estimate is charged; `Messages` charges itself.
        let mut ledger = None;
        frontier.collect(
            cloud, machine, stwig, &filter, roots, bindings, config, control, in_place,
        );
        let child_labels = &mut scratch.child_labels;
        child_labels.clear();
        child_labels.extend(stwig.children.iter().map(|&c| query.label(c)));
        child_labels.sort_unstable();
        child_labels.dedup();
        let carriers: u64 = child_labels.iter().map(|&l| cloud.label_frequency(l)).sum();
        let (child_labels, neighbors) = (&child_labels[..], frontier.ids.len() as u64);
        let mut resolution = Resolution::default();
        match mode {
            Mode::InPlace(shared, charged) => {
                ledger = Some(charged);
                let postings = match shared.get() {
                    None if carriers >= neighbors * cloud.num_machines() as u64 => None,
                    _ => Some(shared.get_or_init(|| {
                        let mut map = FxHashMap::default();
                        map.reserve(carriers as usize);
                        for owner in cloud.machines() {
                            for &label in child_labels {
                                let carrying = cloud.get_ids(owner, label);
                                map.extend(carrying.iter().map(|id| (id, label.0)));
                            }
                        }
                        resolution.postings_entries = map.len() as u64;
                        map
                    })),
                };
                resolution.from_postings = postings.is_some();
                let (slots, ids) = (&mut frontier.slots, &frontier.ids);
                let read = |m| cloud.partition(cloud.machine_of(m)).label_of(m);
                match postings {
                    Some(map) => label_slots(slots, ids, |m| map.get(&m).copied()),
                    None => label_slots(slots, ids, |m| read(m).map(|l| l.0)),
                }
            }
            // Ask about the smaller side; both counts are exact and already here.
            Mode::Messages(tp, faults, _) if carriers < neighbors => {
                let labels = child_labels;
                frontier.resolve_from_postings(cloud, tp, machine, labels, control, faults)?;
                resolution.from_postings = true;
                resolution.postings_entries = frontier.slot_of.len() as u64;
            }
            Mode::Messages(tp, faults, cap) => {
                frontier.resolve_by_asking(cloud, tp, machine, cap, control, faults)?
            }
        }
        let table = explore_roots(
            query,
            stwig,
            roots,
            bindings,
            config,
            control,
            counters,
            &mut scratch.child_candidates,
            &mut scratch.row,
            &mut Replay {
                cloud,
                ledger,
                machine,
                frontier,
                span: 0..0,
            },
        );
        if let Some(ledger) = ledger {
            for (owner, &probes) in frontier.probes.iter().enumerate() {
                ledger.charge_label_probes(machine, MachineId(owner as u16), probes);
            }
        }
        Ok((table, resolution))
    })
}

/// One loaded root as the emission core reads it, `(neighbors, labels,
/// probed)`: `labels[i]` is the label of `neighbors[i]`, or [`NO_LABEL`] when
/// it is unknown or `neighbors[i]` is the root itself (not its own child);
/// `probed` is how many neighbors are not the root — one child scan's probes.
type RootRun<'r> = (&'r [VertexId], &'r [u32], u64);

/// Where [`explore_roots`] gets its roots.
trait RootSource {
    /// Loads binding-admitted root `n`, or says why it emits nothing.
    fn load(&mut self, n: VertexId) -> Result<RootRun<'_>, Skip>;

    /// The core scanned the run last loaded once for each of `children`
    /// children — what a per-probe traffic estimate charges for.
    fn scanned(&mut self, _children: u64) {}
}

/// A labeled [`Frontier`] replayed in the order it was collected (the core
/// applies the same binding admission, so the sequences line up), charging
/// Algorithm 1's estimate to `DirectRead`'s ledger.
struct Replay<'a> {
    cloud: &'a MemoryCloud,
    /// `None` under `Messages`, whose envelopes charge themselves.
    ledger: Option<&'a Network>,
    machine: MachineId,
    frontier: &'a mut Frontier,
    /// The span of the root last loaded.
    span: Range<usize>,
}

impl RootSource for Replay<'_> {
    fn load(&mut self, n: VertexId) -> Result<RootRun<'_>, Skip> {
        let frontier = &mut *self.frontier;
        // An interrupted collection stops short of `roots`; the interrupt is
        // latched, so emission stops before it gets here.
        let entry = frontier.roots.get(frontier.replayed).cloned();
        frontier.replayed += 1;
        let span = entry.unwrap_or(Err(Skip::Missing));
        let owner = self.cloud.machine_of(n);
        let remote = self
            .ledger
            .filter(|_| owner != self.machine && span != Err(Skip::Missing));
        if let Some(ledger) = remote {
            // The remote root's `Cloud.Load`, charged as emission reaches it.
            let cell = self.cloud.partition(owner).load(n);
            ledger.charge_load(self.machine, owner, cell.map_or(0, |c| c.neighbors.len()));
        }
        // `collect` left the root itself out of its span: all of it is probed.
        self.span = span?;
        let span = self.span.clone();
        let (ids, slots) = (&frontier.ids[span.clone()], &frontier.slots[span]);
        Ok((ids, slots, ids.len() as u64))
    }

    fn scanned(&mut self, children: u64) {
        let frontier = &mut *self.frontier;
        if self.ledger.is_some() {
            for &m in &frontier.ids[self.span.clone()] {
                frontier.probes[self.cloud.machine_of(m).index()] += children;
            }
        }
    }
}

/// Why a binding-admitted root candidate emits nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Skip {
    /// No such vertex on the loading machine: nothing was loaded.
    Missing,
    /// Loaded, but it does not carry the STwig root's label.
    WrongLabel,
    /// Loaded, but the signature prune proved it emits no row.
    Pruned,
}

/// The root-level filter of one STwig exploration — the one place a loaded
/// root is judged, for the frontier pass and the emission core alike.
#[derive(Clone, Copy)]
struct RootFilter {
    root_label: LabelId,
    num_children: usize,
    /// Signature bits a root must have to cover every child label.
    required: u64,
}

impl RootFilter {
    fn new(query: &QueryGraph, stwig: &STwig) -> Self {
        let child_labels = stwig.children.iter().map(|&c| query.label(c));
        RootFilter {
            root_label: query.label(stwig.root),
            num_children: stwig.children.len(),
            required: trinity_sim::neighbor_index::required_mask(child_labels),
        }
    }

    /// The neighbor run of a loaded root worth exploring, or why it is not.
    ///
    /// Every exploration prunes, before a single neighbor is decoded or
    /// probed, the roots that provably cannot satisfy the STwig: one with
    /// fewer neighbors than the STwig has children admits no injective child
    /// assignment, and one whose signature misses a required child-label bit
    /// has no neighbor carrying that label (a clear bit is exact). A root
    /// without a signature (`None`) is never pruned on labels. A pruned root
    /// would have emitted no row, so tables and every counter but
    /// `label_probes`/`roots_pruned` are what Algorithm 1 unpruned gives.
    fn admit<'a>(
        &self,
        cell: Option<Cell<'a>>,
        signature: impl FnOnce() -> Option<u64>,
    ) -> Result<Neighbors<'a>, Skip> {
        let cell = cell.ok_or(Skip::Missing)?;
        if cell.label != self.root_label {
            return Err(Skip::WrongLabel);
        }
        if cell.neighbors.len() < self.num_children
            || signature().is_some_and(|s| s & self.required != self.required)
        {
            return Err(Skip::Pruned);
        }
        Ok(cell.neighbors)
    }
}

/// [`match_stwig`] over the explicit message transport: frontier/superstep
/// exploration that never dereferences a remote partition.
///
/// Differences from [`match_stwig`]:
///
/// * `roots` must be **owned by `machine`** (the distributed executor's root
///   candidates always are — `Index.getID` is a local index); unowned roots
///   are skipped exactly like nonexistent vertices.
/// * Neighbor labels are resolved in one superstep of at most one
///   round-trip per owning machine, **about the smaller side**: the child
///   labels' postings (`Index.getID`, one `GetIdsRequest` per other owner)
///   when their carriers are fewer than the neighbors collected, else the
///   distinct remote neighbors (`Index.hasLabel`, batched into projected
///   `LoadRequest`s of at most `batch_ids` ids). Postings
///   traffic is therefore bounded by 8 B × neighbors collected.
///
/// A transport protocol violation (a peer answering with the wrong variant,
/// the wrong number of labels or runs, or postings it does not own) fails
/// this exploration with [`StwigError::Transport`] — the malformed peer
/// degrades one query, never the process. A pending `control` interrupt is
/// honored before every envelope: outstanding ones are skipped and the
/// emission pass runs against whatever labels already arrived (missing
/// labels only suppress rows, so every emitted row stays a valid partial
/// match).
///
/// Every exchange runs under the fault stack `control` carries
/// ([`exchange_or_skip`]); what the retry layer absorbed is tallied into
/// `faults`. A machine that stays unreachable after the budget fails the
/// exploration with [`StwigError::MachineUnavailable`] under
/// [`crate::retry::FailurePolicy::Fail`]; under `Degrade` the machine is
/// recorded in `faults.machines_lost` and the labels of its vertices stay
/// unknown — rows needing them are pruned, so every emitted row remains a
/// verified partial match over the surviving machines.
#[allow(clippy::too_many_arguments)]
pub fn match_stwig_batched(
    cloud: &MemoryCloud,
    transport: &dyn Transport,
    machine: MachineId,
    query: &QueryGraph,
    stwig: &STwig,
    roots: &[VertexId],
    bindings: &Bindings,
    config: &MatchConfig,
    batch_ids: usize,
    control: Option<&QueryControl>,
    counters: &mut ExploreCounters,
    faults: &mut FaultCounters,
) -> Result<ResultTable, StwigError> {
    let mode = Mode::Messages(transport, faults, batch_ids);
    let explored = explore(
        cloud, mode, machine, query, stwig, roots, bindings, config, control, counters,
    );
    explored.map(|(table, _)| table)
}

/// Labels `ids` into `slots` with `label_of`; an id it knows no label for —
/// from postings: one that carries no child label — gets [`NO_LABEL`].
fn label_slots(slots: &mut Vec<u32>, ids: &[VertexId], label_of: impl Fn(VertexId) -> Option<u32>) {
    slots.clear();
    slots.extend(ids.iter().map(|&m| label_of(m).unwrap_or(NO_LABEL)));
}

/// Label slot of a neighbor that is no child candidate as far as this
/// exploration knows: a dangling edge, a vertex whose owner never answered
/// (interrupt, `Degrade`) or disowned it, or — on the postings side — one
/// that carries none of the child labels. Equal to no real label, so it
/// never matches a child.
const NO_LABEL: u32 = NOT_OWNED.0;

/// Tag bit of a label slot that still holds a remote neighbor's dense slot
/// number rather than a label. Labels are dense small integers, far below.
const REMOTE_SLOT: u32 = 1 << 31;

/// The neighbor arena of one exploration, labeled by one resolution and
/// replayed by the emission core. The resolutions agree on every position
/// any gives a child label; elsewhere one may say [`NO_LABEL`] where another
/// names a label no child carries, which no comparison in the core can see.
#[derive(Default)]
struct Frontier {
    /// Neighbor ids of every live root, one contiguous span per root.
    ids: Vec<VertexId>,
    /// Parallel to `ids` once resolved: the neighbor's label.
    slots: Vec<u32>,
    /// One entry per binding-admitted root, in root order: its span of
    /// `ids`/`slots`, or why it has none.
    roots: Vec<Result<Range<usize>, Skip>>,
    /// Entries of `roots` the emission pass has consumed.
    replayed: usize,
    /// `DirectRead`: the label probes replay charged, per owner.
    probes: Vec<u64>,
    /// The resolution's one hash table. Postings side: label of every
    /// vertex, cloud-wide, that carries a child label. Asking side: dense
    /// slot of each distinct remote neighbor, in first-appearance order —
    /// the dedup insert.
    slot_of: FxHashMap<VertexId, u32>,
    /// Asking side: label per remote slot; [`NO_LABEL`] until its owner
    /// answers.
    slot_labels: Vec<u32>,
    /// Asking side, per owning machine: the ids to request and the slot each
    /// answer fills, in first-appearance order. That order is a pure function
    /// of the root order, so envelopes are deterministic without a sort.
    per_owner: Vec<OwnerBatch>,
}

#[derive(Default)]
struct OwnerBatch {
    ids: Vec<VertexId>,
    slots: Vec<u32>,
}

impl Frontier {
    /// Step 1, nothing but decoding: every live root's adjacency goes into
    /// the arena once, ids only — from any owner when `in_place`, else only
    /// `machine`'s own (another root is [`Skip::Missing`]). The root-level
    /// filters are the emission core's (binding admission here,
    /// [`RootFilter::admit`] for the rest), so a root pruned here is pruned
    /// there and no row can need a label that was never resolved; counting
    /// is left to the emission pass. The `max_stwig_rows` early exit
    /// deliberately is not mirrored — a prefetch cannot know where the cap
    /// will land before the labels arrive, so capped configs resolve roots
    /// the emission pass may never reach (extra prefetch work only; rows and
    /// `DirectRead` charges stay identical).
    #[allow(clippy::too_many_arguments)]
    fn collect(
        &mut self,
        cloud: &MemoryCloud,
        machine: MachineId,
        stwig: &STwig,
        filter: &RootFilter,
        roots: &[VertexId],
        bindings: &Bindings,
        config: &MatchConfig,
        control: Option<&QueryControl>,
        in_place: bool,
    ) {
        self.ids.clear();
        self.roots.clear();
        self.replayed = 0;
        self.probes.clear();
        self.probes.resize(cloud.num_machines(), 0);
        for (root_idx, &n) in roots.iter().enumerate() {
            if root_idx % CONTROL_CHECK_ROOTS == 0 && control.is_some_and(QueryControl::interrupted)
            {
                // Resolve only what was collected; the emission pass (and
                // the caller) observe the same interrupt.
                break;
            }
            if config.use_bindings && !bindings.admits(stwig.root, n) {
                continue;
            }
            let cell = if in_place {
                cloud.partition(cloud.machine_of(n)).load(n)
            } else {
                cloud.load_local(machine, n)
            };
            let loaded = filter.admit(cell, || cloud.signature_of(n));
            let entry = loaded.map(|neighbors| {
                let start = self.ids.len();
                // The root itself is never probed: it is not its own child.
                neighbors.decode_into(&mut self.ids, n);
                start..self.ids.len()
            });
            self.roots.push(entry);
        }
    }

    /// Step 2 of `Messages`, the postings side (`Index.getID`): gathers, for every
    /// child label, who carries it — this machine's own postings from its
    /// index, every other live owner's in one validated round-trip
    /// ([`fetch_postings`]) — and labels the arena from that in one linear
    /// pass. An owner that is lost or not asked any more (interrupt) leaves
    /// its vertices out, hence unknown.
    #[allow(clippy::too_many_arguments)]
    fn resolve_from_postings(
        &mut self,
        cloud: &MemoryCloud,
        transport: &dyn Transport,
        machine: MachineId,
        child_labels: &[LabelId],
        control: Option<&QueryControl>,
        faults: &mut FaultCounters,
    ) -> Result<(), StwigError> {
        self.slot_of.clear();
        for owner in cloud.machines() {
            if control.is_some_and(QueryControl::interrupted) {
                break;
            }
            if owner == machine {
                for &label in child_labels {
                    let local = cloud.get_ids(machine, label);
                    self.slot_of.extend(local.iter().map(|id| (id, label.0)));
                }
                continue;
            }
            let fetched = fetch_postings(
                transport,
                cloud,
                machine,
                owner,
                child_labels,
                control,
                faults,
            )?;
            for (label, run) in child_labels.iter().zip(fetched.into_iter().flatten()) {
                self.slot_of.extend(run.into_iter().map(|id| (id, label.0)));
            }
        }
        label_slots(&mut self.slots, &self.ids, |m| {
            self.slot_of.get(&m).copied()
        });
        Ok(())
    }

    /// Step 2 of `Messages`, the asking side (`Index.hasLabel`, batched): a second
    /// pass over the arena reads local labels in place and gives each
    /// *distinct* remote neighbor a dense slot (hubs are many roots'
    /// neighbor, so the distinct set stays far smaller than the scan); one
    /// projected `Load` per owning machine (split into envelopes of at most
    /// `cap` ids) brings their labels, and one
    /// linear pass writes them into the arena. STwig matching only consumes
    /// the frontier's *labels* (children are depth-1), so the owners keep
    /// their adjacency at home. Every attempt of an envelope carries the
    /// same ids in the same order, which keeps retries idempotent.
    fn resolve_by_asking(
        &mut self,
        cloud: &MemoryCloud,
        transport: &dyn Transport,
        machine: MachineId,
        cap: usize,
        control: Option<&QueryControl>,
        faults: &mut FaultCounters,
    ) -> Result<(), StwigError> {
        self.slot_of.clear();
        self.slot_labels.clear();
        self.per_owner
            .resize_with(cloud.num_machines(), OwnerBatch::default);
        for batch in &mut self.per_owner {
            batch.ids.clear();
            batch.slots.clear();
        }
        self.slots.clear();
        for &m in &self.ids {
            let owner = cloud.machine_of(m);
            let slot = if owner == machine {
                cloud.label_of_local(machine, m).map_or(NO_LABEL, |l| l.0)
            } else {
                let next = self.slot_labels.len() as u32;
                assert!(next < REMOTE_SLOT, "frontier exceeds 2^31 vertices");
                let slot = *self.slot_of.entry(m).or_insert(next);
                if slot == next {
                    self.slot_labels.push(NO_LABEL);
                    let batch = &mut self.per_owner[owner.index()];
                    batch.ids.push(m);
                    batch.slots.push(slot);
                }
                REMOTE_SLOT | slot
            };
            self.slots.push(slot);
        }

        let cap = cap.max(1);
        'flush: for (owner, batch) in self.per_owner.iter().enumerate() {
            let owner = MachineId(owner as u16);
            for (ids, slots) in batch.ids.chunks(cap).zip(batch.slots.chunks(cap)) {
                // Cooperative check at every superstep flush: a cancelled or
                // deadline-expired query stops issuing envelopes immediately.
                if control.is_some_and(QueryControl::interrupted) {
                    break 'flush;
                }
                let request = || Message::LoadRequest {
                    ids: ids.to_vec(),
                    with_neighbors: false,
                };
                let Some(reply) =
                    exchange_or_skip(transport, machine, owner, &request, control, faults)?
                else {
                    // Graceful degradation: this owner's slots stay unknown,
                    // which only suppresses rows needing them. (After an
                    // interrupt the next flush check ends the superstep.)
                    continue 'flush;
                };
                let labels = reply
                    .into_labels(ids.len())
                    .map_err(StwigError::Transport)?;
                for (&slot, label) in slots.iter().zip(labels) {
                    self.slot_labels[slot as usize] = label.0;
                }
            }
        }
        if !self.slot_labels.is_empty() {
            for slot in &mut self.slots {
                if *slot != NO_LABEL && *slot & REMOTE_SLOT != 0 {
                    *slot = self.slot_labels[(*slot ^ REMOTE_SLOT) as usize];
                }
            }
        }
        Ok(())
    }
}

/// Everything an exploration allocates besides its output table, kept per
/// thread between explorations.
#[derive(Default)]
struct ExploreScratch {
    /// Candidate data vertices per STwig child, rebuilt per root.
    child_candidates: Vec<Vec<VertexId>>,
    /// The row under construction: `[root, child_1, ..]`.
    row: Vec<VertexId>,
    frontier: Frontier,
    /// The STwig's distinct child labels, sorted.
    child_labels: Vec<LabelId>,
}

/// Elements a scratch buffer may hold and still be kept for the next
/// exploration: enough for ordinary explorations to run warm, small enough
/// that a worker thread's idle scratch stays around a megabyte.
const SCRATCH_RETAIN: usize = 1 << 15;

thread_local! {
    static SCRATCH: RefCell<ExploreScratch> = RefCell::default();
}

/// Runs `f` with this thread's exploration scratch. The scratch is taken out
/// of its slot for the duration, so a re-entrant call (or one after a panic
/// mid-exploration) simply starts from an empty scratch; one that a
/// hub-heavy exploration grew past [`SCRATCH_RETAIN`] is freed instead of
/// kept, so resident memory cannot creep.
fn with_scratch<R>(f: impl FnOnce(&mut ExploreScratch) -> R) -> R {
    let mut scratch = SCRATCH.take();
    let out = f(&mut scratch);
    // `ids` bounds every other frontier buffer except the root entries.
    let frontier = &scratch.frontier;
    let largest = (scratch.child_candidates.iter().map(Vec::capacity))
        .chain([frontier.ids.capacity(), frontier.roots.capacity()])
        .max();
    if largest.unwrap_or(0) <= SCRATCH_RETAIN {
        SCRATCH.set(scratch);
    }
    out
}

/// How many roots are processed between cooperative `control` checks: small
/// enough to stay responsive, large enough that the clock read disappears
/// next to the per-root cell load.
const CONTROL_CHECK_ROOTS: usize = 32;

/// How many emitted rows between cooperative `control` checks *inside* the
/// cross-product emission — one hub root can emit millions of rows, so the
/// root-granularity check alone would let a single root blow through a
/// deadline.
const CONTROL_CHECK_ROWS: u64 = 256;

/// The emission core of [`match_stwig`] / [`match_stwig_batched`]:
/// the root loop, child-candidate construction and injective cross-product
/// emission of Algorithm 1. One contract with its [`RootSource`]: `load(n)`
/// hands back root `n`'s neighbor run and a label slice aligned with it
/// ([`RootRun`]), and the child scans only compare `labels[i] == label`.
/// Sources that present the same runs and labels therefore produce the same
/// table and counters — exactly what every resolution guarantees.
/// `label_probes` is what Algorithm 1 would have probed: every
/// neighbor but the root, once per child scanned.
#[allow(clippy::too_many_arguments)]
fn explore_roots(
    query: &QueryGraph,
    stwig: &STwig,
    roots: &[VertexId],
    bindings: &Bindings,
    config: &MatchConfig,
    control: Option<&QueryControl>,
    counters: &mut ExploreCounters,
    child_candidates: &mut Vec<Vec<VertexId>>,
    row_buf: &mut Vec<VertexId>,
    source: &mut impl RootSource,
) -> ResultTable {
    let mut columns = Vec::with_capacity(1 + stwig.children.len());
    columns.push(stwig.root);
    columns.extend(stwig.children.iter().copied());
    let mut table = ResultTable::new(columns);
    // Rows the table may still take under `max_stwig_rows`.
    let mut budget = config.max_stwig_rows.unwrap_or(usize::MAX);

    if child_candidates.len() < stwig.children.len() {
        child_candidates.resize_with(stwig.children.len(), Vec::new);
    }
    let child_candidates = &mut child_candidates[..stwig.children.len()];

    for (root_idx, &n) in roots.iter().enumerate() {
        if budget == 0 {
            break;
        }
        if root_idx % CONTROL_CHECK_ROOTS == 0 && control.is_some_and(QueryControl::interrupted) {
            // Stop exploring; every row already emitted is a valid partial
            // match, and the caller aborts the query at its next check.
            break;
        }
        counters.roots_scanned += 1;
        // The root itself must be admitted by its own binding (when the
        // caller passes a broader candidate list than the binding set).
        if config.use_bindings && !bindings.admits(stwig.root, n) {
            counters.rows_pruned_by_bindings += 1;
            continue;
        }
        let (neighbors, labels, probed) = match source.load(n) {
            Err(Skip::Missing) => continue,
            Err(skip) => {
                counters.cells_loaded += 1;
                if skip == Skip::Pruned {
                    counters.roots_pruned += 1;
                }
                continue;
            }
            Ok(run) => {
                counters.cells_loaded += 1;
                run
            }
        };

        // Candidate children per child query vertex, up to the first dead one.
        let (mut scanned, mut dead) = (0, false);
        for (cands, &child) in child_candidates.iter_mut().zip(&stwig.children) {
            let label = query.label(child).0;
            scanned += 1;
            cands.clear();
            for (&m, &l) in neighbors.iter().zip(labels) {
                if l != label {
                    continue;
                }
                if config.use_bindings && !bindings.admits(child, m) {
                    counters.rows_pruned_by_bindings += 1;
                    continue;
                }
                cands.push(m);
            }
            if cands.is_empty() {
                dead = true;
                break;
            }
        }
        counters.label_probes += scanned * probed;
        source.scanned(scanned);
        if dead {
            counters.roots_admitted_empty += 1;
            continue;
        }

        // Emit the cross product with injectivity among the STwig's vertices.
        row_buf.clear();
        row_buf.push(n);
        let before = counters.rows_emitted;
        emit_rows(
            child_candidates,
            0,
            row_buf,
            &mut table,
            &mut budget,
            control,
            counters,
        );
        if counters.rows_emitted == before {
            counters.roots_admitted_empty += 1;
        }
    }
    table
}

/// Recursively enumerates the cross product of child candidate lists,
/// skipping assignments that reuse a data vertex already in the row.
/// `budget` counts down the rows the table may still take. Returns `false`
/// when emission must stop entirely — the budget ran out, or an interrupt
/// was observed (a hub root mid-emission must not outlive the deadline; rows
/// already emitted remain valid partial matches).
fn emit_rows(
    child_candidates: &[Vec<VertexId>],
    depth: usize,
    row: &mut Vec<VertexId>,
    table: &mut ResultTable,
    budget: &mut usize,
    control: Option<&QueryControl>,
    counters: &mut ExploreCounters,
) -> bool {
    if *budget == 0 {
        return false;
    }
    if depth == child_candidates.len() {
        if counters.rows_emitted.is_multiple_of(CONTROL_CHECK_ROWS)
            && control.is_some_and(QueryControl::interrupted)
        {
            return false;
        }
        table.push_row(row);
        counters.rows_emitted += 1;
        *budget -= 1;
        return true;
    }
    for &cand in &child_candidates[depth] {
        if row.contains(&cand) {
            continue;
        }
        row.push(cand);
        let keep_going = emit_rows(
            child_candidates,
            depth + 1,
            row,
            table,
            budget,
            control,
            counters,
        );
        row.pop();
        if !keep_going {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::LOAD_BATCH_IDS;
    use crate::query::QVid;
    use crate::retry::{FailurePolicy, Faults};
    use trinity_sim::builder::GraphBuilder;
    use trinity_sim::network::CostModel;

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    /// Builds the paper's Figure 5 data graph (a1..a3, b1..b4, c1..c3, d, e, f
    /// vertices with the edges needed for the q1 = (a, {b, c}) example).
    fn fig5_like_cloud(machines: usize) -> MemoryCloud {
        let mut b = GraphBuilder::new_undirected();
        // a-nodes: 0..3 → a1, a2, a3
        for i in 0..3u64 {
            b.add_vertex(v(i), "a");
        }
        // b-nodes: 10..14 → b1..b4
        for i in 10..14u64 {
            b.add_vertex(v(i), "b");
        }
        // c-nodes: 20..23 → c1..c3
        for i in 20..23u64 {
            b.add_vertex(v(i), "c");
        }
        // a1: b1, b4, c1
        b.add_edge(v(0), v(10));
        b.add_edge(v(0), v(13));
        b.add_edge(v(0), v(20));
        // a2: b1, b2, c1, c2, c3
        b.add_edge(v(1), v(10));
        b.add_edge(v(1), v(11));
        b.add_edge(v(1), v(20));
        b.add_edge(v(1), v(21));
        b.add_edge(v(1), v(22));
        // a3: b2, c2, c3
        b.add_edge(v(2), v(11));
        b.add_edge(v(2), v(21));
        b.add_edge(v(2), v(22));
        b.build(machines, CostModel::default())
    }

    fn simple_query(cloud: &MemoryCloud) -> (QueryGraph, QVid, QVid, QVid) {
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(cloud, "a").unwrap();
        let b = qb.vertex_by_name(cloud, "b").unwrap();
        let c = qb.vertex_by_name(cloud, "c").unwrap();
        qb.edge(a, b).edge(a, c).edge(b, c);
        (qb.build().unwrap(), a, b, c)
    }

    #[test]
    fn match_stwig_finds_all_root_child_combinations() {
        let cloud = fig5_like_cloud(1);
        let (query, a, b, c) = simple_query(&cloud);
        let stwig = STwig::new(a, vec![b, c]);
        let roots = cloud.all_ids_with_label(query.label(a));
        let bindings = Bindings::new(query.num_vertices());
        let mut counters = ExploreCounters::default();
        let table = match_stwig(
            &cloud,
            MachineId(0),
            &query,
            &stwig,
            &roots,
            &bindings,
            &MatchConfig::default(),
            None,
            &mut counters,
        );
        // a1 pairs: (b1|b4) x (c1) = 2; a2: (b1|b2) x (c1|c2|c3) = 6;
        // a3: (b2) x (c2|c3) = 2 → 10 rows, matching the paper's G(q1).
        assert_eq!(table.num_rows(), 10);
        assert_eq!(counters.rows_emitted, 10);
        assert_eq!(counters.cells_loaded, 3);
        assert!(counters.label_probes > 0);
        assert_eq!(table.columns(), &[a, b, c]);
    }

    #[test]
    fn bindings_prune_candidates() {
        let cloud = fig5_like_cloud(1);
        let (query, a, b, c) = simple_query(&cloud);
        let stwig = STwig::new(a, vec![b, c]);
        let roots = cloud.all_ids_with_label(query.label(a));
        let mut bindings = Bindings::new(query.num_vertices());
        // Restrict b to b1 only.
        bindings.bind(b, [v(10)].into_iter().collect());
        let mut counters = ExploreCounters::default();
        let table = match_stwig(
            &cloud,
            MachineId(0),
            &query,
            &stwig,
            &roots,
            &bindings,
            &MatchConfig::default(),
            None,
            &mut counters,
        );
        // a1 with b1: c1 → 1; a2 with b1: c1,c2,c3 → 3; a3 has no b1 → 0.
        assert_eq!(table.num_rows(), 4);
        assert!(counters.rows_pruned_by_bindings > 0);
    }

    #[test]
    fn disabled_bindings_ignore_filters() {
        let cloud = fig5_like_cloud(1);
        let (query, a, b, c) = simple_query(&cloud);
        let stwig = STwig::new(a, vec![b, c]);
        let roots = cloud.all_ids_with_label(query.label(a));
        let mut bindings = Bindings::new(query.num_vertices());
        bindings.bind(b, [v(10)].into_iter().collect());
        let mut counters = ExploreCounters::default();
        let cfg = MatchConfig::default().with_bindings(false);
        let table = match_stwig(
            &cloud,
            MachineId(0),
            &query,
            &stwig,
            &roots,
            &bindings,
            &cfg,
            None,
            &mut counters,
        );
        assert_eq!(table.num_rows(), 10);
    }

    #[test]
    fn row_limit_truncates_output() {
        let cloud = fig5_like_cloud(1);
        let (query, a, b, c) = simple_query(&cloud);
        let stwig = STwig::new(a, vec![b, c]);
        let roots = cloud.all_ids_with_label(query.label(a));
        let bindings = Bindings::new(query.num_vertices());
        let mut counters = ExploreCounters::default();
        let cfg = MatchConfig {
            max_stwig_rows: Some(3),
            ..Default::default()
        };
        let table = match_stwig(
            &cloud,
            MachineId(0),
            &query,
            &stwig,
            &roots,
            &bindings,
            &cfg,
            None,
            &mut counters,
        );
        assert_eq!(table.num_rows(), 3);
    }

    #[test]
    fn wrong_label_roots_are_skipped() {
        let cloud = fig5_like_cloud(1);
        let (query, a, b, c) = simple_query(&cloud);
        let stwig = STwig::new(a, vec![b, c]);
        // Pass b-labeled vertices as roots: none match the root label.
        let roots = cloud.all_ids_with_label(query.label(b));
        let bindings = Bindings::new(query.num_vertices());
        let mut counters = ExploreCounters::default();
        let table = match_stwig(
            &cloud,
            MachineId(0),
            &query,
            &stwig,
            &roots,
            &bindings,
            &MatchConfig::default(),
            None,
            &mut counters,
        );
        assert!(table.is_empty());
    }

    #[test]
    fn remote_probes_are_charged_to_the_network() {
        let cloud = fig5_like_cloud(4);
        let (query, a, b, c) = simple_query(&cloud);
        let stwig = STwig::new(a, vec![b, c]);
        let bindings = Bindings::new(query.num_vertices());
        cloud.network().reset();
        let mut counters = ExploreCounters::default();
        let mut total_rows = 0;
        for m in cloud.machines() {
            let roots = cloud.get_ids(m, query.label(a)).to_vec();
            let t = match_stwig(
                &cloud,
                m,
                &query,
                &stwig,
                &roots,
                &bindings,
                &MatchConfig::default(),
                None,
                &mut counters,
            );
            total_rows += t.num_rows();
        }
        assert_eq!(total_rows, 10);
        assert!(cloud.traffic().total_messages() > 0);
    }

    #[test]
    fn batched_matcher_is_bit_identical_and_partition_local() {
        use trinity_sim::transport::ChannelTransport;
        for machines in [1usize, 2, 4] {
            let cloud = fig5_like_cloud(machines);
            let (query, a, b, c) = simple_query(&cloud);
            let stwig = STwig::new(a, vec![b, c]);
            let transport = ChannelTransport::new(&cloud);
            // Sweep tiny batch caps so multi-envelope splitting is covered.
            for batch in [1usize, 2, 4096] {
                let cfg = MatchConfig::default();
                let mut total = 0usize;
                for k in cloud.machines() {
                    let roots = cloud.get_ids(k, query.label(a)).to_vec();
                    let bindings = Bindings::new(query.num_vertices());
                    let mut direct_counters = ExploreCounters::default();
                    let direct = match_stwig(
                        &cloud,
                        k,
                        &query,
                        &stwig,
                        &roots,
                        &bindings,
                        &cfg,
                        None,
                        &mut direct_counters,
                    );
                    cloud.network().reset();
                    let mut batched_counters = ExploreCounters::default();
                    let mut faults = FaultCounters::default();
                    let batched = match_stwig_batched(
                        &cloud,
                        &transport,
                        k,
                        &query,
                        &stwig,
                        &roots,
                        &bindings,
                        &cfg,
                        batch,
                        None,
                        &mut batched_counters,
                        &mut faults,
                    )
                    .unwrap();
                    assert!(!faults.any(), "fault-free run must count nothing");
                    assert_eq!(direct, batched, "machine {k}, batch {batch}");
                    assert_eq!(direct_counters, batched_counters);
                    assert_eq!(
                        cloud.direct_remote_reads(),
                        0,
                        "batched matching must never dereference a remote partition"
                    );
                    total += batched.num_rows();
                }
                assert_eq!(total, 10, "the G(q1) rows of the paper's Fig. 5");
            }
        }
    }

    #[test]
    fn smaller_transport_batches_send_more_envelopes() {
        use trinity_sim::transport::ChannelTransport;
        let cloud = fig5_like_cloud(4);
        let (query, a, b, c) = simple_query(&cloud);
        let stwig = STwig::new(a, vec![b, c]);
        let transport = ChannelTransport::new(&cloud);
        let bindings = Bindings::new(query.num_vertices());
        let mut messages = Vec::new();
        for batch in [1usize, 64] {
            let cfg = MatchConfig::default();
            cloud.network().reset();
            for k in cloud.machines() {
                let roots = cloud.get_ids(k, query.label(a)).to_vec();
                let mut counters = ExploreCounters::default();
                let _ = match_stwig_batched(
                    &cloud,
                    &transport,
                    k,
                    &query,
                    &stwig,
                    &roots,
                    &bindings,
                    &cfg,
                    batch,
                    None,
                    &mut counters,
                    &mut FaultCounters::default(),
                )
                .unwrap();
            }
            messages.push(cloud.traffic().total_messages());
        }
        assert!(
            messages[0] > messages[1],
            "1-id envelopes ({}) must outnumber 64-id envelopes ({})",
            messages[0],
            messages[1]
        );
    }

    /// A peer that lies: `lie` answers the requests it cares about with a
    /// reply made up from the request, everything else is served honestly.
    struct LyingTransport<'c> {
        honest: trinity_sim::transport::ChannelTransport<'c>,
        lie: fn(&Message) -> Option<Message>,
    }

    impl<'c> LyingTransport<'c> {
        fn new(cloud: &'c MemoryCloud, lie: fn(&Message) -> Option<Message>) -> Self {
            let honest = trinity_sim::transport::ChannelTransport::new(cloud);
            LyingTransport { honest, lie }
        }
    }

    impl Transport for LyingTransport<'_> {
        fn exchange(
            &self,
            src: MachineId,
            dst: MachineId,
            msg: Message,
        ) -> Result<Message, trinity_sim::transport::TransportError> {
            match (self.lie)(&msg) {
                Some(reply) => Ok(reply),
                None => self.honest.exchange(src, dst, msg),
            }
        }
        fn alloc_seq(&self, _src: MachineId, _dst: MachineId) -> u64 {
            0
        }
        fn post_envelope(&self, _dst: MachineId, _env: trinity_sim::transport::Envelope) {}
        fn drain(&self, _dst: MachineId) -> Vec<trinity_sim::transport::Envelope> {
            Vec::new()
        }
    }

    #[test]
    fn malformed_peer_reply_degrades_the_query_not_the_process() {
        use trinity_sim::transport::TransportError;
        // A peer that answers every projected load with whatever `lie` makes
        // of the request: the batched matcher must surface a typed
        // `StwigError::Transport` instead of panicking the worker.
        fn requested(msg: &Message) -> Option<usize> {
            match msg {
                Message::LoadRequest { ids, .. } => Some(ids.len()),
                _ => None,
            }
        }
        let cloud = fig5_like_cloud(4);
        let (query, a, b, c) = simple_query(&cloud);
        let stwig = STwig::new(a, vec![b, c]);
        let bindings = Bindings::new(query.num_vertices());
        let explore = |transport: &dyn Transport, k: MachineId| {
            let roots = cloud.get_ids(k, query.label(a)).to_vec();
            match_stwig_batched(
                &cloud,
                transport,
                k,
                &query,
                &stwig,
                &roots,
                &bindings,
                &MatchConfig::default(),
                LOAD_BATCH_IDS,
                None,
                &mut ExploreCounters::default(),
                &mut FaultCounters::default(),
            )
        };
        let honest = LyingTransport::new(&cloud, |_| None);

        let wrong_variant = LyingTransport::new(&cloud, |msg| {
            requested(msg).map(|_| Message::GetIdsReply { runs: vec![] })
        });
        // One label short, one label long: every label after the gap would
        // land on the wrong vertex, so neither may be accepted.
        let short = LyingTransport::new(&cloud, |msg| {
            let labels = vec![LabelId(0); requested(msg)? - 1];
            Some(Message::LabelReply { labels })
        });
        let long = LyingTransport::new(&cloud, |msg| {
            let labels = vec![LabelId(0); requested(msg)? + 1];
            Some(Message::LabelReply { labels })
        });
        for liar in [&wrong_variant, &short, &long] {
            // Find a machine that asks an owner about its neighbors.
            let mut saw_error = false;
            for k in cloud.machines() {
                match explore(liar, k) {
                    Err(StwigError::Transport(TransportError::UnexpectedReply {
                        expected,
                        got,
                    })) => {
                        assert_eq!((expected, got), ("LabelReply", "GetIdsReply"));
                        saw_error = true;
                    }
                    Err(StwigError::Transport(TransportError::MalformedPayload { detail })) => {
                        assert!(detail.contains("requested ids"), "{detail}");
                        saw_error = true;
                    }
                    Err(other) => panic!("unexpected error kind: {other}"),
                    Ok(_) => {} // nothing asked: no remote neighbor, or the postings side
                }
            }
            assert!(saw_error, "some machine must need a remote exchange");
            // The process serves on: the next query on this very thread (and
            // its scratch) gets every row.
            let rows: usize = cloud
                .machines()
                .map(|k| explore(&honest, k).unwrap().num_rows())
                .sum();
            assert_eq!(rows, 10);
        }
    }

    /// Eight "a" roots, six "b", four "c" and ten "d" vertices: every root is
    /// adjacent to three b's, one c and two d's (19 carriers of a child label
    /// of the star a → {b, b, c}, 48 neighbors in all).
    fn star_cloud(machines: usize) -> MemoryCloud {
        let mut g = GraphBuilder::new_undirected();
        for (name, ids) in [("a", 0..8u64), ("b", 10..16), ("c", 20..24), ("d", 30..40)] {
            for i in ids {
                g.add_vertex(v(i), name);
            }
        }
        for i in 0..8u64 {
            for j in 0..3 {
                g.add_edge(v(i), v(10 + (i + j) % 6));
            }
            g.add_edge(v(i), v(20 + i % 4));
            g.add_edge(v(i), v(30 + i));
            g.add_edge(v(i), v(30 + (i + 1) % 10));
        }
        g.build(machines, CostModel::default())
    }

    /// The star a → {b, b, c} over [`star_cloud`]: a duplicate child label.
    fn star_query(cloud: &MemoryCloud) -> (QueryGraph, STwig) {
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(cloud, "a").unwrap();
        let b1 = qb.vertex_by_name(cloud, "b").unwrap();
        let b2 = qb.vertex_by_name(cloud, "b").unwrap();
        let c = qb.vertex_by_name(cloud, "c").unwrap();
        qb.edge(a, b1).edge(a, b2).edge(a, c);
        (qb.build().unwrap(), STwig::new(a, vec![b1, b2, c]))
    }

    #[test]
    fn a_lying_postings_reply_fails_the_query_typed() {
        use trinity_sim::transport::TransportError;
        // Postings decide child labels (and, for single-vertex queries, the
        // answer itself): a reply listing a vertex its sender does not own,
        // or not one run per requested label, must not be believed.
        fn asked(msg: &Message) -> Option<usize> {
            match msg {
                Message::GetIdsRequest { labels } => Some(labels.len()),
                _ => None,
            }
        }
        let cloud = star_cloud(3);
        let (query, stwig) = star_query(&cloud);
        let child_labels = [
            query.label(stwig.children[0]),
            query.label(stwig.children[2]),
        ];
        let machine = MachineId(0);
        let roots = cloud.get_ids(machine, query.label(stwig.root)).to_vec();
        assert!(roots.len() * 6 > 10, "the postings side of the rule");
        let explore = |transport: &dyn Transport| {
            match_stwig_batched(
                &cloud,
                transport,
                machine,
                &query,
                &stwig,
                &roots,
                &Bindings::new(query.num_vertices()),
                &MatchConfig::default(),
                LOAD_BATCH_IDS,
                None,
                &mut ExploreCounters::default(),
                &mut FaultCounters::default(),
            )
        };
        let fetch = |transport: &dyn Transport| {
            fetch_postings(
                transport,
                &cloud,
                machine,
                MachineId(1),
                &child_labels,
                None,
                &mut FaultCounters::default(),
            )
        };
        // Vertex 0 is an "a" owned by machine 0 — the asker itself.
        assert_eq!(cloud.machine_of(v(0)), machine);
        let foreign = LyingTransport::new(&cloud, |msg| {
            let mut runs = vec![Vec::new(); asked(msg)?];
            runs[0].push(v(0));
            Some(Message::GetIdsReply { runs })
        });
        let short = LyingTransport::new(&cloud, |msg| {
            let runs = vec![Vec::new(); asked(msg)? - 1];
            Some(Message::GetIdsReply { runs })
        });
        let wrong_variant = LyingTransport::new(&cloud, |msg| {
            asked(msg).map(|_| Message::LabelReply { labels: vec![] })
        });
        let honest = LyingTransport::new(&cloud, |_| None);
        let want = explore(&honest).unwrap();
        assert!(!want.is_empty());
        for (liar, needle) in [(&foreign, "does not own"), (&short, "requested labels")] {
            for err in [explore(liar).unwrap_err(), fetch(liar).unwrap_err()] {
                let StwigError::Transport(TransportError::MalformedPayload { detail }) = err else {
                    panic!("unexpected error kind: {err}");
                };
                assert!(detail.contains(needle), "{detail}");
            }
        }
        for err in [
            explore(&wrong_variant).unwrap_err(),
            fetch(&wrong_variant).unwrap_err(),
        ] {
            let want = TransportError::UnexpectedReply {
                expected: "GetIdsReply",
                got: "LabelReply",
            };
            assert_eq!(err, StwigError::Transport(want));
        }
        // The process serves on, on this very thread and its scratch.
        assert_eq!(explore(&honest).unwrap(), want);
        assert_eq!(fetch(&honest).unwrap().map(|runs| runs.len()), Some(2));
    }

    /// What each resolution must leave in `slots`, position by position.
    /// `known(m)` says whether `m`'s owner could be consulted at all.
    fn check_resolution(
        cloud: &MemoryCloud,
        frontier: &Frontier,
        child_labels: &[LabelId],
        from_postings: bool,
        known: impl Fn(VertexId) -> bool,
    ) {
        assert_eq!(frontier.slots.len(), frontier.ids.len());
        for (&m, &slot) in frontier.ids.iter().zip(&frontier.slots) {
            let label = cloud.label_of_global(m).filter(|_| known(m));
            let want = match label {
                // The postings side only ever learns child labels.
                Some(l) if !from_postings || child_labels.contains(&l) => l.0,
                _ => NO_LABEL,
            };
            assert_eq!(slot, want, "neighbor {m}, from_postings = {from_postings}");
        }
    }

    #[test]
    fn both_resolutions_label_the_same_arena_alike() {
        use crate::stream::{CancelToken, QueryOptions};
        use std::time::Instant;
        use trinity_sim::fault::{FaultPlan, FaultyTransport};
        use trinity_sim::transport::ChannelTransport;
        let token = CancelToken::new();
        token.cancel();
        let cancelled = QueryControl::new(&QueryOptions::none().with_cancel(token), Instant::now());

        for machines in 1..=4usize {
            let cloud = star_cloud(machines);
            let (query, stwig) = star_query(&cloud);
            let child_labels = [
                query.label(stwig.children[0]),
                query.label(stwig.children[2]),
            ];
            let transport = ChannelTransport::new(&cloud);
            let mut unbound = Bindings::new(query.num_vertices());
            let mut bound = unbound.clone();
            bound.bind(stwig.root, (0..6).map(v).collect());
            bound.bind(stwig.children[0], (10..13).map(v).collect());
            unbound.bind(stwig.children[2], (20..24).map(v).collect()); // admits every c
            let config = MatchConfig::default();
            for bindings in [&unbound, &bound] {
                for k in cloud.machines() {
                    let roots = cloud.get_ids(k, query.label(stwig.root)).to_vec();
                    let filter = RootFilter::new(&query, &stwig);
                    let mut frontier = Frontier::default();
                    frontier.collect(
                        &cloud, k, &stwig, &filter, &roots, bindings, &config, None, false,
                    );
                    // A dangling neighbor — an id no machine has a vertex for
                    // — in the last root's span.
                    if let Some(Ok(span)) = frontier.roots.last_mut() {
                        span.end += 1;
                        frontier.ids.push(v(999));
                    }
                    let down = MachineId(((k.0 as usize + 1) % machines) as u16);
                    let asks_down = frontier.ids.iter().any(|&m| cloud.machine_of(m) == down);
                    let crash = FaultPlan::default().with_crash(down.0, 0);
                    let crashed =
                        FaultyTransport::new(ChannelTransport::new(&cloud), crash.clone());
                    let under = |faults: Faults| {
                        QueryControl::new(&QueryOptions::none().with_faults(faults), Instant::now())
                    };
                    let failing = under(Faults::new(crash.clone()));
                    let degrading = under(Faults {
                        on_loss: FailurePolicy::Degrade,
                        ..Faults::new(crash)
                    });

                    for from_postings in [true, false] {
                        let resolve =
                            |frontier: &mut Frontier,
                             tp: &dyn Transport,
                             control: Option<&QueryControl>,
                             faults: &mut FaultCounters| {
                                if from_postings {
                                    let labels = &child_labels;
                                    frontier.resolve_from_postings(
                                        &cloud, tp, k, labels, control, faults,
                                    )
                                } else {
                                    let cap = LOAD_BATCH_IDS;
                                    frontier.resolve_by_asking(&cloud, tp, k, cap, control, faults)
                                }
                            };
                        let mut faults = FaultCounters::default();
                        resolve(&mut frontier, &transport, None, &mut faults).unwrap();
                        assert!(!faults.any());
                        check_resolution(&cloud, &frontier, &child_labels, from_postings, |_| true);

                        // A pre-set cancel: no envelope leaves, and only what
                        // is read in place (asking: local labels) is known.
                        cloud.network().reset();
                        resolve(&mut frontier, &transport, Some(&cancelled), &mut faults).unwrap();
                        assert_eq!(cloud.traffic().total_messages(), 0);
                        check_resolution(&cloud, &frontier, &child_labels, from_postings, |m| {
                            !from_postings && cloud.machine_of(m) == k
                        });

                        if down == k {
                            continue; // one machine: nobody else to lose
                        }
                        // The postings side asks every other owner, the
                        // asking side only owners of a collected neighbor.
                        let asked = from_postings || asks_down;
                        let degrade = Some(&degrading);
                        resolve(&mut frontier, &crashed, degrade, &mut faults).unwrap();
                        resolve(&mut frontier, &crashed, degrade, &mut faults).unwrap();
                        assert_eq!(
                            faults.machines_lost,
                            if asked { vec![down.0] } else { vec![] }
                        );
                        check_resolution(&cloud, &frontier, &child_labels, from_postings, |m| {
                            cloud.machine_of(m) != down
                        });
                        let failed = resolve(
                            &mut frontier,
                            &crashed,
                            Some(&failing),
                            &mut FaultCounters::default(),
                        );
                        match failed {
                            Err(StwigError::MachineUnavailable { machine, .. }) if asked => {
                                assert_eq!(machine, down.0)
                            }
                            Ok(()) if !asked => {}
                            other => panic!("asked = {asked}: {other:?}"),
                        }
                    }
                }
            }
            // The whole exploration under the pre-set cancel: no row, no
            // envelope, nothing counted.
            cloud.network().reset();
            let mut counters = ExploreCounters::default();
            let table = match_stwig_batched(
                &cloud,
                &transport,
                MachineId(0),
                &query,
                &stwig,
                &cloud
                    .get_ids(MachineId(0), query.label(stwig.root))
                    .to_vec(),
                &unbound,
                &MatchConfig::default(),
                LOAD_BATCH_IDS,
                Some(&cancelled),
                &mut counters,
                &mut FaultCounters::default(),
            )
            .unwrap();
            assert!(table.is_empty());
            assert_eq!(counters, ExploreCounters::default());
            assert_eq!(cloud.traffic().total_messages(), 0);
        }
    }

    /// Fig-5-like cloud plus two dead "a" roots: one with only b-neighbors
    /// (label prune) and one with a single neighbor (degree prune).
    fn fig5_with_dead_roots(machines: usize) -> MemoryCloud {
        let mut b = GraphBuilder::new_undirected();
        for i in 0..3u64 {
            b.add_vertex(v(i), "a");
        }
        b.add_vertex(v(3), "a"); // b-neighbors only: fails the c-label bit
        b.add_vertex(v(4), "a"); // one neighbor: fails the degree check
        for i in 10..14u64 {
            b.add_vertex(v(i), "b");
        }
        for i in 20..23u64 {
            b.add_vertex(v(i), "c");
        }
        b.add_edge(v(0), v(10));
        b.add_edge(v(0), v(13));
        b.add_edge(v(0), v(20));
        b.add_edge(v(1), v(10));
        b.add_edge(v(1), v(11));
        b.add_edge(v(1), v(20));
        b.add_edge(v(1), v(21));
        b.add_edge(v(1), v(22));
        b.add_edge(v(2), v(11));
        b.add_edge(v(2), v(21));
        b.add_edge(v(2), v(22));
        b.add_edge(v(3), v(12));
        b.add_edge(v(3), v(13));
        b.add_edge(v(4), v(10));
        b.build(machines, CostModel::default())
    }

    /// The unpruned reference of [`fig5_with_dead_roots`] is the same graph
    /// without its dead roots: a pruned root must cost its cell load and
    /// nothing else.
    #[test]
    fn pruning_skips_dead_roots_without_changing_rows() {
        let run = |cloud: &MemoryCloud| {
            let (query, a, b, c) = simple_query(cloud);
            let stwig = STwig::new(a, vec![b, c]);
            let roots = cloud.all_ids_with_label(query.label(a));
            let mut counters = ExploreCounters::default();
            let table = match_stwig(
                cloud,
                MachineId(0),
                &query,
                &stwig,
                &roots,
                &Bindings::new(query.num_vertices()),
                &MatchConfig::default(),
                None,
                &mut counters,
            );
            (table, counters)
        };
        let (table, pruned) = run(&fig5_with_dead_roots(1));
        let (want, live) = run(&fig5_like_cloud(1));

        assert_eq!(table, want, "pruning must never change rows");
        assert_eq!(table.num_rows(), 10);
        assert_eq!((pruned.roots_pruned, live.roots_pruned), (2, 0));
        // Pruning happens after the cell load: the dead roots are scanned
        // and loaded, and not one of their neighbors is probed.
        assert_eq!(pruned.roots_scanned, live.roots_scanned + 2);
        assert_eq!(pruned.cells_loaded, live.cells_loaded + 2);
        assert_eq!(pruned.label_probes, live.label_probes);
        assert_eq!(pruned.rows_emitted, live.rows_emitted);
    }

    #[test]
    fn dead_roots_add_no_batched_frontier_traffic() {
        use trinity_sim::transport::ChannelTransport;
        // The dead roots sit on machines 3 and 0, each with a remote
        // neighbor it would ask about unpruned; pruned, their neighbors never
        // enter the frontier, so the cloud ships what it ships without them.
        let explore_all = |cloud: &MemoryCloud| {
            let (query, a, b, c) = simple_query(cloud);
            let stwig = STwig::new(a, vec![b, c]);
            let transport = ChannelTransport::new(cloud);
            let bindings = Bindings::new(query.num_vertices());
            cloud.network().reset();
            let mut total = 0usize;
            for k in cloud.machines() {
                let roots = cloud.get_ids(k, query.label(a)).to_vec();
                let t = match_stwig_batched(
                    cloud,
                    &transport,
                    k,
                    &query,
                    &stwig,
                    &roots,
                    &bindings,
                    &MatchConfig::default(),
                    LOAD_BATCH_IDS,
                    None,
                    &mut ExploreCounters::default(),
                    &mut FaultCounters::default(),
                )
                .unwrap();
                total += t.num_rows();
            }
            (total, cloud.traffic().total_bytes())
        };
        let dead = fig5_with_dead_roots(4);
        for (root, neighbor) in [(3, 12), (4, 10)] {
            assert_ne!(dead.machine_of(v(root)), dead.machine_of(v(neighbor)));
        }
        let (rows, bytes) = explore_all(&dead);
        assert!(bytes > 0, "the live roots ask about remote neighbors");
        assert_eq!((rows, bytes), explore_all(&fig5_like_cloud(4)));
    }

    #[test]
    fn a_self_loop_is_neither_a_child_nor_a_probe() {
        // Every graph builder drops self-loops, so no cloud can present one;
        // hand the core a run that contains its own root directly. The label
        // contract gives that position `NO_LABEL` and leaves it out of
        // `probed`.
        struct OneRoot {
            neighbors: Vec<VertexId>,
            labels: Vec<u32>,
            scans: u64,
        }
        impl RootSource for OneRoot {
            fn load(&mut self, _n: VertexId) -> Result<RootRun<'_>, Skip> {
                Ok((&self.neighbors, &self.labels, 2))
            }
            fn scanned(&mut self, children: u64) {
                self.scans += children;
            }
        }
        let cloud = fig5_like_cloud(1);
        let (query, a, b, c) = simple_query(&cloud);
        let stwig = STwig::new(a, vec![b, c]);
        let mut source = OneRoot {
            neighbors: vec![v(0), v(10), v(20)],
            labels: vec![NO_LABEL, query.label(b).0, query.label(c).0],
            scans: 0,
        };
        let mut counters = ExploreCounters::default();
        let table = explore_roots(
            &query,
            &stwig,
            &[v(0)],
            &Bindings::new(query.num_vertices()),
            &MatchConfig::default(),
            None,
            &mut counters,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut source,
        );
        assert_eq!(table.rows().collect::<Vec<_>>(), [&[v(0), v(10), v(20)]]);
        assert_eq!(counters.label_probes, 4, "two neighbors, two children");
        assert_eq!(source.scans, 2);
    }

    /// The hub star of `tests/frontier_equivalence.rs`: six a-hubs (0..6),
    /// each adjacent to all six b-vertices (6..12), over three machines, plus
    /// `extra_b` isolated b-vertices (12..), and the star a → b.
    fn hub_star(extra_b: u64) -> (MemoryCloud, QueryGraph, STwig) {
        let mut g = GraphBuilder::new_undirected();
        for i in 0..12 + extra_b {
            g.add_vertex(v(i), if i < 6 { "a" } else { "b" });
        }
        for hub in 0..6 {
            for m in 6..12 {
                g.add_edge(v(hub), v(m));
            }
        }
        let cloud = g.build(3, CostModel::default());
        let mut qb = QueryGraph::builder();
        let a = qb.vertex_by_name(&cloud, "a").unwrap();
        let b = qb.vertex_by_name(&cloud, "b").unwrap();
        qb.edge(a, b);
        (cloud, qb.build().unwrap(), STwig::new(a, vec![b]))
    }

    /// Algorithm 1 for a one-child STwig, unbound and uncapped: one
    /// `Index.hasLabel` per neighbor.
    fn probe_each_neighbor(
        cloud: &MemoryCloud,
        machine: MachineId,
        query: &QueryGraph,
        stwig: &STwig,
        roots: &[VertexId],
        counters: &mut ExploreCounters,
    ) -> ResultTable {
        let mut table = ResultTable::new(stwig.vertices().collect());
        let child = query.label(stwig.children[0]);
        for &n in roots {
            counters.roots_scanned += 1;
            let Some(cell) = cloud.load(machine, n) else {
                continue;
            };
            counters.cells_loaded += 1;
            if cell.label != query.label(stwig.root) {
                continue;
            }
            for m in cell.neighbors.iter() {
                counters.label_probes += 1;
                if cloud.has_label(machine, m, child) {
                    table.push_row(&[n, m]);
                    counters.rows_emitted += 1;
                }
            }
        }
        table
    }

    #[test]
    fn direct_read_takes_either_side_and_accounts_alike() {
        use trinity_sim::transport::ChannelTransport;
        type Observed = (
            ResultTable,
            ExploreCounters,
            trinity_sim::network::TrafficSnapshot,
            u64,
        );
        fn observe(
            cloud: &MemoryCloud,
            explore: impl FnOnce(&mut ExploreCounters) -> ResultTable,
        ) -> Observed {
            cloud.network().reset();
            let mut counters = ExploreCounters::default();
            let table = explore(&mut counters);
            (
                table,
                counters,
                cloud.traffic(),
                cloud.direct_remote_reads(),
            )
        }
        // 6 carriers: fewer than any machine's neighbors × 3. 36: fewer only
        // than those of the machine with three hubs (it owns 1, 2 or 3).
        for extra_b in [0, 30] {
            let (cloud, query, stwig) = hub_star(extra_b);
            let transport = ChannelTransport::new(&cloud);
            let (bindings, config) = (Bindings::new(2), MatchConfig::default());
            let mut sides = Vec::new();
            for k in cloud.machines() {
                let roots = cloud.get_ids(k, query.label(stwig.root)).to_vec();
                let mut resolution = Resolution::default();
                let direct = observe(&cloud, |c| {
                    let shared = SharedPostings::new();
                    let mode = Mode::InPlace(&shared, cloud.network());
                    let explored = explore(
                        &cloud, mode, k, &query, &stwig, &roots, &bindings, &config, None, c,
                    );
                    let (table, side) = explored.unwrap();
                    resolution = side;
                    table
                });
                let reference = observe(&cloud, |c| {
                    probe_each_neighbor(&cloud, k, &query, &stwig, &roots, c)
                });
                let batched = observe(&cloud, |c| {
                    let mut faults = FaultCounters::default();
                    match_stwig_batched(
                        &cloud,
                        &transport,
                        k,
                        &query,
                        &stwig,
                        &roots,
                        &bindings,
                        &config,
                        LOAD_BATCH_IDS,
                        None,
                        c,
                        &mut faults,
                    )
                    .unwrap()
                });
                assert_eq!(direct, reference, "{extra_b} extra b's, machine {k}");
                assert_eq!((&direct.0, direct.1), (&batched.0, batched.1));
                assert!(direct.3 > 0 && batched.3 == 0);
                let carriers = 6 + extra_b;
                let looked_up = 6 * roots.len() as u64 * 3;
                assert_eq!(resolution.from_postings, carriers < looked_up);
                let entries = if carriers < looked_up { carriers } else { 0 };
                assert_eq!(resolution.postings_entries, entries);
                sides.push(resolution.from_postings);
            }
            if extra_b == 0 {
                assert!(sides.iter().all(|&postings| postings), "{sides:?}");
            } else {
                assert!(sides.contains(&false) && sides.contains(&true), "{sides:?}");
            }
        }
    }

    #[test]
    fn injectivity_within_stwig() {
        // Graph: x labeled "p" connected to y labeled "q"; query STwig has a
        // root "p" with two children both labeled "q": only one data vertex
        // matches, so no injective assignment exists.
        let mut gb = GraphBuilder::new_undirected();
        gb.add_vertex(v(1), "p");
        gb.add_vertex(v(2), "q");
        gb.add_edge(v(1), v(2));
        let cloud = gb.build(1, CostModel::free());
        let mut qb = QueryGraph::builder();
        let r = qb.vertex_by_name(&cloud, "p").unwrap();
        let c1 = qb.vertex_by_name(&cloud, "q").unwrap();
        let c2 = qb.vertex_by_name(&cloud, "q").unwrap();
        qb.edge(r, c1).edge(r, c2).edge(c1, c2);
        let query = qb.build().unwrap();
        let stwig = STwig::new(r, vec![c1, c2]);
        let bindings = Bindings::new(query.num_vertices());
        let mut counters = ExploreCounters::default();
        let table = match_stwig(
            &cloud,
            MachineId(0),
            &query,
            &stwig,
            &[v(1)],
            &bindings,
            &MatchConfig::default(),
            None,
            &mut counters,
        );
        assert!(table.is_empty());
    }
}
