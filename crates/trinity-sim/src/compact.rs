//! The partition store's one representation: block-packed adjacency,
//! succinct label postings, width-picked labels and an id index that is
//! arithmetic on a full range.
//!
//! Trinity's cells live in flat memory trunks precisely because per-object
//! overhead is what kills billion-node graphs (PAPER.md §3); the Compact
//! Neighborhood Index line of work (PAPERS.md) goes further and shows that
//! adjacency structure compresses to a few bits per edge without giving up
//! sequential access. This module applies both ideas to the partition store:
//!
//! * [`CompactCsr`] — a vertex's record is `varint(degree)`, then its run:
//!   `varint(first id)`, then its gaps in blocks of [`BLOCK`]. A vertex of
//!   degree 0 costs the one byte `varint(0)`. Runs are sorted and
//!   deduplicated, so every gap is ≥ 1; a gap block stores one width byte `w` (0–64) and its gaps minus one
//!   packed LSB-first at `w` bits each, in `⌈n·w/8⌉` bytes. A block of
//!   consecutive ids is its width byte alone. Each gap of a block is one
//!   unaligned word read, a shift and a mask, independent of the others, so
//!   decoding has no byte-serial chain the way LEB128 does (each varint's
//!   length gates the next).
//!   Records are found through two-level offsets: the vertices go in blocks
//!   of [`OFFSET_BLOCK`], and each block keeps one base (`u32`, or `u64`
//!   once the buffer passes 4 GiB) pointing at a header in the record
//!   buffer: one width byte, then the offsets of the block's records 2..32
//!   from the end of the header at 1, 2 or 4 B, the narrowest that the
//!   block's span fits. The first record starts right after the header.
//!   Finding a record is one read of the small base array and one of the
//!   header, next to the record itself.
//! * [`Neighbors`] — a zero-copy view over either an encoded run or a
//!   sorted `&[VertexId]` slice (an overlay's merged list). Exploration
//!   decodes it without allocating: one block at a time through
//!   [`NeighborIter`], or whole into a caller's buffer through
//!   [`Neighbors::decode_into`]; both run the same block kernel.
//! * [`IdIndex`] — the partition's ids in both directions, over slots
//!   `(id - base) >> shift`. Ids that fill their range (a power-of-two
//!   machine count gives each partition one residue class) keep only
//!   `base`, `shift` and the count: 0 B, `id → local` is a range check, a
//!   stride check and a shift. A range with holes adds a presence bitmap
//!   with a `u32` rank per word (12 B per 64 slots, ~0.19 B a vertex when
//!   few slots are empty), and `id → local` is a rank. `slot → id` is a
//!   shift and an add either way. Sparse ids fall back to the sorted id
//!   array plus a [`CompactIdMap`] (16 B a vertex).
//! * [`LabelArray`] — one label per local vertex at the narrowest width the
//!   interned label count allows: 1 B up to 256 labels, 2 B up to 65,536,
//!   else 4 B.
//! * [`CompactLabelIndex`] — per-label postings over the id index's
//!   *slots*, stored as whichever of a dense bitmap or a delta-varint list
//!   is smaller for that label. [`Postings`] decodes a slot straight to its
//!   global id ([`IdIndex::id_at`]), so no posting needs a `select`.
//! * [`CompactIdMap`] — an open-addressed slot array mapping global ids to
//!   local indices in 4 bytes per slot (~8 bytes per vertex at 50% load)
//!   instead of `HashMap`'s ~50 bytes per vertex; the sparse-id arm of
//!   [`IdIndex`].

use crate::ids::{LabelId, VertexId};
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Varint primitives (LEB128)
// ---------------------------------------------------------------------------

/// Appends `x` to `buf` as an LEB128 varint (7 data bits per byte, high bit
/// set on continuation bytes).
#[inline]
pub fn push_varint(buf: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Number of bytes [`push_varint`] emits for `x`.
#[inline]
pub fn varint_len(x: u64) -> usize {
    // ceil(bits/7), with 0 taking one byte.
    (64 - x.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Reads one varint starting at `*pos`, advancing `*pos` past it.
///
/// # Panics
/// Panics (via slice indexing) on a truncated buffer — encoded runs are
/// produced and consumed inside this crate, so truncation is a logic error.
#[inline]
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        x |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return x;
        }
        shift += 7;
    }
}

// ---------------------------------------------------------------------------
// Two-level record offsets
// ---------------------------------------------------------------------------

/// Vertices one offset block covers. A block pays a base and a width byte,
/// and each of its records but the first one offset at the width its span
/// needs: a wider block pays its base less often, and a narrower one keeps
/// more spans under 256 B (DESIGN.md, "Compact storage").
pub const OFFSET_BLOCK: usize = 32;

/// One base per offset block: where the block's header sits in the record
/// buffer. Stored 4 bytes a block while every base fits in `u32` (4 GiB of
/// encoded adjacency per partition) and 8 bytes otherwise.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum OffsetArray {
    U32(Vec<u32>),
    U64(Vec<u64>),
}

impl OffsetArray {
    /// Narrows `bases`, which ascend, to `u32` when the last one fits.
    fn from_u64s(bases: Vec<u64>) -> Self {
        match bases.last() {
            Some(&last) if last > u64::from(u32::MAX) => OffsetArray::U64(bases),
            _ => OffsetArray::U32(bases.into_iter().map(|o| o as u32).collect()),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> usize {
        match self {
            OffsetArray::U32(v) => v[i] as usize,
            OffsetArray::U64(v) => v[i] as usize,
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            OffsetArray::U32(v) => v.len() * 4,
            OffsetArray::U64(v) => v.len() * 8,
        }
    }
}

impl Default for OffsetArray {
    fn default() -> Self {
        OffsetArray::U32(Vec::new())
    }
}

/// Bytes an offset takes in a block whose last record starts `span` bytes
/// after its first: 1, 2 or 4, or 8 for a block past 4 GiB.
fn offset_width(span: u64) -> usize {
    match span {
        0..=0xff => 1,
        0x100..=0xffff => 2,
        0x1_0000..=0xffff_ffff => 4,
        _ => 8,
    }
}

/// Appends the header of an offset block whose records start at `starts`,
/// counted from the first (so `starts[0]` is 0 and is not stored): the width
/// byte, then `starts[1..]` little-endian at that width.
fn push_header(buf: &mut Vec<u8>, starts: &[u64]) {
    let w = offset_width(starts.last().copied().unwrap_or(0));
    buf.push(w as u8);
    for &start in &starts[1..] {
        buf.extend_from_slice(&start.to_le_bytes()[..w]);
    }
}

/// Where record `k` of an offset block starts: the block of `count` records
/// whose header is at `data[base]`.
#[inline]
fn record_start(data: &[u8], base: usize, count: usize, k: usize) -> usize {
    let w = usize::from(data[base]);
    let first = base + 1 + (count - 1) * w;
    if k == 0 {
        return first;
    }
    let at = base + 1 + (k - 1) * w;
    first
        + match w {
            1 => usize::from(data[at]),
            2 => usize::from(u16::from_le_bytes([data[at], data[at + 1]])),
            4 => u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes")) as usize,
            _ => u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes")) as usize,
        }
}

// ---------------------------------------------------------------------------
// Label array with build-time width selection
// ---------------------------------------------------------------------------

/// Per-vertex labels, stored at the narrowest width that holds every label
/// of the label space: `u8` when it has at most 256 labels, `u16` up to
/// 65,536, `u32` beyond. The width is picked once from the interned label
/// count `L`, the way [`CompactCsr`] picks its offset width, so a vertex
/// pays one byte for its label on every workload whose `L ≤ 256`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum LabelArray {
    /// At most 256 labels.
    U8(Vec<u8>),
    /// At most 65,536 labels.
    U16(Vec<u16>),
    /// Any label.
    U32(Vec<u32>),
}

impl LabelArray {
    /// An empty array for a label space of `num_labels`, with room for
    /// `capacity` labels.
    pub fn with_capacity(num_labels: usize, capacity: usize) -> Self {
        if num_labels <= 1 << 8 {
            LabelArray::U8(Vec::with_capacity(capacity))
        } else if num_labels <= 1 << 16 {
            LabelArray::U16(Vec::with_capacity(capacity))
        } else {
            LabelArray::U32(Vec::with_capacity(capacity))
        }
    }

    /// `labels` for a label space of `num_labels`.
    #[cfg(test)]
    pub(crate) fn from_labels(num_labels: usize, labels: &[LabelId]) -> Self {
        let mut array = LabelArray::with_capacity(num_labels, labels.len());
        for &label in labels {
            array.push(label);
        }
        array
    }

    /// Appends `label`. A label outside the space the width was picked for
    /// widens the array rather than wrap, so a read never returns a label
    /// that was not pushed.
    pub fn push(&mut self, label: LabelId) {
        match self {
            LabelArray::U8(v) => match u8::try_from(label.0) {
                Ok(x) => v.push(x),
                Err(_) => self.widen_and_push(label),
            },
            LabelArray::U16(v) => match u16::try_from(label.0) {
                Ok(x) => v.push(x),
                Err(_) => self.widen_and_push(label),
            },
            LabelArray::U32(v) => v.push(label.0),
        }
    }

    #[cold]
    fn widen_and_push(&mut self, label: LabelId) {
        let mut wide: Vec<u32> = self.iter().map(|l| l.0).collect();
        wide.push(label.0);
        *self = LabelArray::U32(wide);
    }

    /// The label of local vertex `i`.
    #[inline]
    pub fn get(&self, i: usize) -> LabelId {
        LabelId(match self {
            LabelArray::U8(v) => u32::from(v[i]),
            LabelArray::U16(v) => u32::from(v[i]),
            LabelArray::U32(v) => v[i],
        })
    }

    /// Number of labels stored.
    pub fn len(&self) -> usize {
        match self {
            LabelArray::U8(v) => v.len(),
            LabelArray::U16(v) => v.len(),
            LabelArray::U32(v) => v.len(),
        }
    }

    /// Whether no label is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes a label takes: 1, 2 or 4.
    pub fn width(&self) -> usize {
        match self {
            LabelArray::U8(_) => 1,
            LabelArray::U16(_) => 2,
            LabelArray::U32(_) => 4,
        }
    }

    /// The labels in local-index order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = LabelId> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Resident bytes: the width times the count.
    pub fn memory_bytes(&self) -> usize {
        self.len() * self.width()
    }
}

// ---------------------------------------------------------------------------
// Gap blocks
// ---------------------------------------------------------------------------

/// Gaps one block of an encoded run holds; a run's last block may hold
/// fewer. A block's width fits its widest gap, so a wider block pays for
/// one outlier at more gaps, and a narrower one pays its width byte more
/// often: on R-MAT runs 8 stores the fewest bytes of 4, 8, 16, 32 and 64
/// (DESIGN.md, "Compact storage").
pub const BLOCK: usize = 8;

/// Widest gap, in bits, the one-word read serves: seven whole bytes. A gap
/// may start at any bit of its first byte, so up to 7 bits of the word lie
/// before it and any width up to 57 would fit; wider ones take
/// [`decode_wide`].
const WORD_BITS: u32 = 56;

/// Bytes of run a block's word reads may look at past its width byte: the
/// last read of a full block of [`WORD_BITS`]-bit gaps starts at byte 49.
const WINDOW: usize = 64;

/// Bytes the gaps of a block of `n` take at `w` bits each.
#[inline]
fn packed_len(n: usize, w: u32) -> usize {
    (n * w as usize).div_ceil(8)
}

/// Appends one block: its width byte, the bits of its widest entry, then
/// `gaps` (each a gap minus one) packed LSB-first at that width.
fn push_block(buf: &mut Vec<u8>, gaps: &[u64]) {
    let w = 64 - gaps.iter().fold(0, |acc, &g| acc | g).leading_zeros();
    buf.push(w as u8);
    let (mut acc, mut bits) = (0u128, 0u32);
    for &g in gaps {
        acc |= u128::from(g) << bits;
        bits += w;
        if bits >= 64 {
            buf.extend_from_slice(&(acc as u64).to_le_bytes());
            acc >>= 64;
            bits -= 64;
        }
    }
    buf.extend_from_slice(&acc.to_le_bytes()[..bits.div_ceil(8) as usize]);
}

/// The block kernel: decodes the block whose width byte is `data[pos]`
/// into `out` — its `out.len()` (1 to [`BLOCK`]) gaps, as the ids that
/// follow `prev` — and returns the position after it.
///
/// Gap `k` sits at bit `k·w` of the packed bytes and is one little-endian
/// word read at its byte, a shift by the bit within it and a mask to `w`
/// bits. The reads do not depend on each other; only the prefix sum that
/// turns gaps into ids is serial. A read may run past the block, into the
/// next block or run, whose bits the mask drops; within [`WINDOW`] bytes of
/// the end of `data` the reads see a zero-padded copy of the block instead.
///
/// # Panics
/// On a truncated block — encoded runs are produced and consumed inside
/// this crate, so truncation is a logic error.
#[inline(always)]
fn decode_block(data: &[u8], pos: usize, prev: u64, out: &mut [VertexId]) -> usize {
    let w = u32::from(data[pos]);
    let body = pos + 1;
    let end = body + packed_len(out.len(), w);
    let mut gaps = [0u64; BLOCK];
    if w <= WORD_BITS {
        let mask = (1u64 << w) - 1;
        let mut pad;
        let window: &[u8; WINDOW] = match data.get(body..body + WINDOW) {
            Some(window) => window.try_into().expect("a WINDOW-byte slice"),
            None => {
                let block = &data[body..end];
                pad = [0u8; WINDOW];
                pad[..block.len()].copy_from_slice(block);
                &pad
            }
        };
        // All lanes, so the loop unrolls; those past `out.len()` go unread.
        // The `min` never binds (`at ≤ 49`); it lets the compiler drop the
        // bounds checks.
        for (k, gap) in gaps.iter_mut().enumerate() {
            let bit = k * w as usize;
            let at = (bit / 8).min(WINDOW - 8);
            let word = u64::from_le_bytes(window[at..at + 8].try_into().expect("8 bytes"));
            *gap = (word >> (bit % 8)) & mask;
        }
    } else {
        decode_wide(&data[body..end], w, &mut gaps[..out.len()]);
    }
    let mut id = prev;
    for (slot, gap) in out.iter_mut().zip(gaps) {
        id += gap + 1;
        *slot = VertexId(id);
    }
    end
}

/// The gaps of a block wider than [`WORD_BITS`]: each may span nine bytes,
/// so it is read as a 128-bit word from a zero-padded copy of the block.
#[cold]
fn decode_wide(packed: &[u8], w: u32, gaps: &mut [u64]) {
    let mut pad = [0u8; 8 * BLOCK + 16];
    pad[..packed.len()].copy_from_slice(packed);
    let mask = u64::MAX >> (64 - w);
    for (k, gap) in gaps.iter_mut().enumerate() {
        let bit = k * w as usize;
        let word = u128::from_le_bytes(pad[bit / 8..bit / 8 + 16].try_into().expect("16 bytes"));
        *gap = (word >> (bit % 8)) as u64 & mask;
    }
}

/// Bytes the encoded run of `len` ids at the start of `data` takes: the
/// first id's varint, then each block's width byte and packed gaps.
fn run_len(data: &[u8], len: u32) -> usize {
    if len == 0 {
        return 0;
    }
    let mut pos = 0;
    read_varint(data, &mut pos);
    let mut left = len as usize - 1;
    while left > 0 {
        let n = left.min(BLOCK);
        pos += 1 + packed_len(n, u32::from(data[pos]));
        left -= n;
    }
    pos
}

// ---------------------------------------------------------------------------
// Zero-copy neighbor views
// ---------------------------------------------------------------------------

/// A zero-copy view of one vertex's sorted neighbor run.
///
/// A sealed partition hands out the encoded bytes and decodes on iteration;
/// an overlay hands out its merged list as a slice. Either way the
/// exploration hot path never materializes a `Vec` of its own.
#[derive(Clone, Copy)]
pub enum Neighbors<'a> {
    /// A sorted slice: an overlay's merged adjacency, or the empty run.
    Slice(&'a [VertexId]),
    /// A block-packed run of `len` ids (its record's degree varint
    /// stripped).
    Compact {
        /// `varint(first)`, then `⌈(len − 1)/8⌉` gap blocks (a width byte
        /// `w`, then each gap minus one at `w` bits), then whatever follows
        /// the run in its partition's buffer: a block's word reads may run
        /// into those bytes, and mask them off.
        data: &'a [u8],
        /// Number of ids in the run.
        len: u32,
    },
}

impl<'a> Neighbors<'a> {
    /// The empty run.
    pub fn empty() -> Neighbors<'static> {
        Neighbors::Slice(&[])
    }

    /// Number of neighbors in the run.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Neighbors::Slice(s) => s.len(),
            Neighbors::Compact { len, .. } => *len as usize,
        }
    }

    /// Whether the run is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the run in ascending id order without allocating.
    #[inline]
    pub fn iter(&self) -> NeighborIter<'a> {
        match *self {
            Neighbors::Slice(s) => NeighborIter::Slice(s.iter()),
            Neighbors::Compact { data, len } => NeighborIter::Compact(BlockIter::new(data, len)),
        }
    }

    /// Appends the run to `out` in ascending order, leaving out `skip`.
    #[inline]
    pub fn decode_into(&self, out: &mut Vec<VertexId>, skip: VertexId) {
        let start = out.len();
        self.append_to(out);
        if let Ok(at) = out[start..].binary_search(&skip) {
            out.remove(start + at);
        }
    }

    /// Appends the run to `out`. An encoded run grows `out` once by its
    /// length and decodes each block in place.
    #[inline]
    fn append_to(&self, out: &mut Vec<VertexId>) {
        match *self {
            Neighbors::Slice(s) => out.extend_from_slice(s),
            Neighbors::Compact { len: 0, .. } => {}
            Neighbors::Compact { data, len } => {
                let start = out.len();
                out.resize(start + len as usize, VertexId(0));
                let (first, rest) = out[start..].split_at_mut(1);
                let mut pos = 0;
                let mut prev = read_varint(data, &mut pos);
                first[0] = VertexId(prev);
                for block in rest.chunks_mut(BLOCK) {
                    pos = decode_block(data, pos, prev, block);
                    prev = block[block.len() - 1].0;
                }
            }
        }
    }

    /// Whether `target` is in the run. Binary search on a slice; an
    /// early-exit scan on an encoded run (runs are sorted, so the scan
    /// stops at the first id past `target`).
    pub fn contains(&self, target: VertexId) -> bool {
        match *self {
            Neighbors::Slice(s) => s.binary_search(&target).is_ok(),
            Neighbors::Compact { .. } => {
                for n in self.iter() {
                    if n >= target {
                        return n == target;
                    }
                }
                false
            }
        }
    }

    /// Decodes into an owned `Vec`.
    pub fn to_vec(&self) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.len());
        self.append_to(&mut out);
        out
    }
}

impl Default for Neighbors<'_> {
    fn default() -> Self {
        Neighbors::Slice(&[])
    }
}

impl<'a> IntoIterator for Neighbors<'a> {
    type Item = VertexId;
    type IntoIter = NeighborIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Neighbors<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Neighbors<'_> {}

impl PartialEq<&[VertexId]> for Neighbors<'_> {
    fn eq(&self, other: &&[VertexId]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl<const N: usize> PartialEq<&[VertexId; N]> for Neighbors<'_> {
    fn eq(&self, other: &&[VertexId; N]) -> bool {
        self.len() == N && self.iter().eq(other.iter().copied())
    }
}

impl PartialEq<Vec<VertexId>> for Neighbors<'_> {
    fn eq(&self, other: &Vec<VertexId>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl std::fmt::Debug for Neighbors<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a [`Neighbors`] run.
#[derive(Clone)]
pub enum NeighborIter<'a> {
    /// Slice iteration.
    Slice(std::slice::Iter<'a, VertexId>),
    /// Block decode-on-iterate.
    Compact(BlockIter<'a>),
}

/// Decode-on-iterate over an encoded run: the block kernel fills a buffer
/// of [`BLOCK`] ids, which `next` hands out before decoding the next block.
#[derive(Clone)]
pub struct BlockIter<'a> {
    /// The run's bytes, as [`Neighbors::Compact`] holds them.
    data: &'a [u8],
    /// Position of the next block's width byte.
    pos: usize,
    /// Gaps not yet decoded.
    gaps_left: u32,
    /// The ids decoded last; `block[at..filled]` are still to be returned.
    block: [VertexId; BLOCK],
    at: u8,
    filled: u8,
}

impl<'a> BlockIter<'a> {
    /// Starts on a run of `len` ids: the first id is decoded here.
    #[inline]
    fn new(data: &'a [u8], len: u32) -> Self {
        let mut it = BlockIter {
            data,
            pos: 0,
            gaps_left: len.saturating_sub(1),
            block: [VertexId(0); BLOCK],
            at: 0,
            filled: 0,
        };
        if len > 0 {
            it.block[0] = VertexId(read_varint(data, &mut it.pos));
            it.filled = 1;
        }
        it
    }

    /// Decodes the next block into the buffer, or says the run is done.
    /// Kept out of `next`, so that stays small enough to inline.
    #[inline(never)]
    fn refill(&mut self) -> bool {
        if self.gaps_left == 0 {
            return false;
        }
        let n = (self.gaps_left as usize).min(BLOCK);
        let prev = self.block[usize::from(self.filled) - 1].0;
        self.pos = decode_block(self.data, self.pos, prev, &mut self.block[..n]);
        self.gaps_left -= n as u32;
        (self.at, self.filled) = (0, n as u8);
        true
    }
}

impl Iterator for BlockIter<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        if self.at == self.filled && !self.refill() {
            return None;
        }
        let id = self.block[usize::from(self.at)];
        self.at += 1;
        Some(id)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.gaps_left as usize + usize::from(self.filled - self.at);
        (n, Some(n))
    }
}

impl ExactSizeIterator for BlockIter<'_> {}

impl Iterator for NeighborIter<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        match self {
            NeighborIter::Slice(it) => it.next().copied(),
            NeighborIter::Compact(it) => it.next(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            NeighborIter::Slice(it) => it.size_hint(),
            NeighborIter::Compact(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for NeighborIter<'_> {}

// ---------------------------------------------------------------------------
// Compact CSR
// ---------------------------------------------------------------------------

/// Block-packed CSR adjacency over one partition's local vertices.
///
/// Layout: one byte buffer holding, per block of [`OFFSET_BLOCK`] local
/// vertices, the block's offset header and then each vertex's record —
/// `varint(degree)` and the encoded run (`varint(first id)`, then the gaps
/// in blocks of [`BLOCK`]; see the module doc) — plus one base a block,
/// `u32` or `u64` as the buffer's size picks.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CompactCsr {
    /// Where each offset block's header starts in `data`.
    bases: OffsetArray,
    /// Each offset block's header, then its records.
    data: Vec<u8>,
    /// Number of local vertices.
    num_vertices: usize,
    /// Total neighbor entries across all runs.
    num_entries: u64,
}

impl CompactCsr {
    /// Number of local vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Total number of stored neighbor entries.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.num_entries as usize
    }

    /// Where local vertex `local`'s record starts in the buffer.
    #[inline]
    fn record(&self, local: usize) -> usize {
        let (block, k) = (local / OFFSET_BLOCK, local % OFFSET_BLOCK);
        let count = (self.num_vertices - block * OFFSET_BLOCK).min(OFFSET_BLOCK);
        record_start(&self.data, self.bases.get(block), count, k)
    }

    /// The encoded neighbor run of local vertex `local`.
    #[inline]
    pub fn neighbors(&self, local: usize) -> Neighbors<'_> {
        let mut pos = self.record(local);
        let degree = read_varint(&self.data, &mut pos) as u32;
        Neighbors::Compact {
            data: &self.data[pos..],
            len: degree,
        }
    }

    /// Degree of local vertex `local` (decodes one varint).
    #[inline]
    pub fn degree(&self, local: usize) -> usize {
        let mut pos = self.record(local);
        read_varint(&self.data, &mut pos) as usize
    }

    /// Whether `target` is among `local`'s neighbors (early-exit scan).
    #[inline]
    pub fn has_neighbor(&self, local: usize, target: VertexId) -> bool {
        self.neighbors(local).contains(target)
    }

    /// Resident bytes: the bases plus the buffer.
    pub fn memory_bytes(&self) -> usize {
        self.bases.memory_bytes() + self.data.len()
    }

    /// Iterates `(local_index, neighbors)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Neighbors<'_>)> {
        (0..self.num_vertices()).map(move |i| (i, self.neighbors(i)))
    }
}

/// Incremental [`CompactCsr`] builder: push one sorted, deduplicated run per
/// local vertex, then [`CompactCsrBuilder::finish`].
/// Used by the streaming bulk loader so no `Vec<Vec<VertexId>>` staging ever
/// exists. The records of the offset block being filled wait in a buffer of
/// their own until the block's header, which their sizes pick, is written.
#[derive(Debug, Default)]
pub struct CompactCsrBuilder {
    bases: Vec<u64>,
    data: Vec<u8>,
    /// Records of the offset block being filled.
    block: Vec<u8>,
    /// Where each of them starts in `block`.
    starts: Vec<u64>,
    num_vertices: usize,
    num_entries: u64,
}

impl CompactCsrBuilder {
    /// A builder expecting about `num_vertices` runs.
    pub fn with_capacity(num_vertices: usize) -> Self {
        CompactCsrBuilder {
            bases: Vec::with_capacity(num_vertices.div_ceil(OFFSET_BLOCK)),
            starts: Vec::with_capacity(OFFSET_BLOCK),
            ..CompactCsrBuilder::default()
        }
    }

    /// Appends the next local vertex's neighbor run, which must be sorted
    /// ascending and free of duplicates. Its ids are [`VertexId`]s or a
    /// narrower form of them, as the loader stages ids below 2^32.
    pub fn push_run<T: Copy + Ord + Into<u64>>(&mut self, run: &[T]) {
        debug_assert!(
            run.windows(2).all(|w| w[0] < w[1]),
            "compact CSR runs must be strictly ascending"
        );
        let degree = u32::try_from(run.len()).expect("a run of at most u32::MAX ids");
        self.begin_record(degree);
        if let Some((&first, rest)) = run.split_first() {
            let mut prev: u64 = first.into();
            push_varint(&mut self.block, prev);
            let mut gaps = [0u64; BLOCK];
            for chunk in rest.chunks(BLOCK) {
                for (gap, &id) in gaps.iter_mut().zip(chunk) {
                    let id: u64 = id.into();
                    *gap = id - prev - 1;
                    prev = id;
                }
                push_block(&mut self.block, &gaps[..chunk.len()]);
            }
        }
        self.end_record();
    }

    /// Appends the next local vertex's run from a [`Neighbors`] view. An
    /// encoded run already is what [`CompactCsrBuilder::push_run`] would
    /// write for it, so exactly its bytes are copied; a plain slice is
    /// encoded.
    pub fn push_neighbors(&mut self, run: Neighbors<'_>) {
        match run {
            Neighbors::Slice(ids) => self.push_run(ids),
            Neighbors::Compact { data, len } => {
                self.begin_record(len);
                self.block.extend_from_slice(&data[..run_len(data, len)]);
                self.end_record();
            }
        }
    }

    /// Starts a record of `degree` neighbors with its degree.
    fn begin_record(&mut self, degree: u32) {
        self.starts.push(self.block.len() as u64);
        push_varint(&mut self.block, u64::from(degree));
        self.num_entries += u64::from(degree);
        self.num_vertices += 1;
    }

    /// Ends a record, and with the last record of an offset block, the
    /// block.
    fn end_record(&mut self) {
        if self.starts.len() == OFFSET_BLOCK {
            self.flush_block();
        }
    }

    /// Writes the pending offset block: its base, its header, its records.
    fn flush_block(&mut self) {
        if self.starts.is_empty() {
            return;
        }
        self.bases.push(self.data.len() as u64);
        push_header(&mut self.data, &self.starts);
        self.data.extend_from_slice(&self.block);
        self.block.clear();
        self.starts.clear();
    }

    /// Finalizes the CSR, narrowing the base width where possible.
    pub fn finish(mut self) -> CompactCsr {
        self.flush_block();
        self.data.shrink_to_fit();
        CompactCsr {
            bases: OffsetArray::from_u64s(self.bases),
            data: self.data,
            num_vertices: self.num_vertices,
            num_entries: self.num_entries,
        }
    }
}

// ---------------------------------------------------------------------------
// Compact id map
// ---------------------------------------------------------------------------

/// Open-addressed global-id → local-index map storing only 4-byte local
/// slots; the global ids themselves are read back from the id array of
/// [`IdIndex::Hashed`] during probing, so the map adds no key storage at all.
///
/// Capacity is a power of two at ≤ 50% load, giving ~8 bytes per vertex —
/// better than 4× below the ~50 bytes per entry `HashMap<VertexId, u32>`
/// costs. Probing is Fibonacci hash + linear scan; the `u32::MAX` slot value
/// marks "empty".
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CompactIdMap {
    slots: Vec<u32>,
    mask: u64,
    shift: u32,
}

const EMPTY_SLOT: u32 = u32::MAX;

impl CompactIdMap {
    /// Builds the map over `ids` (the partition's local-index → global-id
    /// array). Local indices must fit `u32::MAX - 1`.
    pub fn build(ids: &[VertexId]) -> Self {
        assert!(
            ids.len() < EMPTY_SLOT as usize,
            "partition too large for a u32 id map"
        );
        let capacity = (ids.len() * 2).next_power_of_two().max(2);
        let mut map = CompactIdMap {
            slots: vec![EMPTY_SLOT; capacity],
            mask: capacity as u64 - 1,
            shift: 64 - capacity.trailing_zeros(),
        };
        for (local, &id) in ids.iter().enumerate() {
            let mut slot = map.probe_start(id);
            while map.slots[slot] != EMPTY_SLOT {
                debug_assert!(
                    ids[map.slots[slot] as usize] != id,
                    "duplicate vertex id {id} in partition"
                );
                slot = (slot + 1) & map.mask as usize;
            }
            map.slots[slot] = local as u32;
        }
        map
    }

    #[inline]
    fn probe_start(&self, id: VertexId) -> usize {
        // Fibonacci multiplicative hash, taking the *top* bits so that the
        // low-bit patterns `machine_for` leaves behind do not cluster.
        ((id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) & self.mask) as usize
    }

    /// Looks up the local index of `id`. `ids` must be the same array the
    /// map was built over.
    #[inline]
    pub fn get(&self, ids: &[VertexId], id: VertexId) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mut slot = self.probe_start(id);
        loop {
            let local = self.slots[slot];
            if local == EMPTY_SLOT {
                return None;
            }
            if ids[local as usize] == id {
                return Some(local);
            }
            slot = (slot + 1) & self.mask as usize;
        }
    }

    /// Resident bytes of the slot array.
    pub fn memory_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<u32>()
    }
}

// ---------------------------------------------------------------------------
// Id index: a full strided range, a rank bitmap over one with holes, or
// hashed slots over sparse ids
// ---------------------------------------------------------------------------

/// Resident bytes of one [`IdIndex::Ranked`] word: the bitmap word plus its
/// `u32` rank.
const RANKED_WORD_BYTES: u128 = 12;

/// One partition's vertex ids, in both directions: global id → local index
/// ([`IdIndex::local_of`]) and posting slot → global id
/// ([`IdIndex::id_at`]). Local indices follow ascending id order.
///
/// Postings address vertices by *slot* rather than by local index, so
/// decoding one is [`IdIndex::id_at`] — arithmetic on a strided index, an
/// array read on a hashed one — and never a `select`. Slot order is id
/// order in every variant; when a partition holds every id of its range,
/// slot and local index coincide.
///
/// The data picks the variant ([`IdIndex::build`]): [`IdIndex::Full`] when
/// the ids fill their strided range (a power-of-two machine count gives
/// each partition one residue class, so every loaded workload partition
/// is full); else the rank bitmap whenever it is no larger than the id
/// array it replaces. Under a non-power-of-two machine count `m` a
/// partition holds about one id in `m` of its range, so the bitmap costs
/// about `0.19·m` B a vertex and gives way to the hashed arm above
/// `m ≈ 42`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum IdIndex {
    /// Ids that fill their range: exactly the `len` slots
    /// `base + (s << shift)`, `s < len`. No heap at all.
    Full {
        /// The smallest id.
        base: u64,
        /// Trailing-zero count of the OR of every `id - base`.
        shift: u32,
        /// Number of ids, which is the number of slots.
        len: usize,
    },
    /// Ids with holes in their range: one presence bit per slot
    /// `(id - base) >> shift`.
    Ranked {
        /// The smallest id.
        base: u64,
        /// Trailing-zero count of the OR of every `id - base`: all ids
        /// share one residue modulo `1 << shift`.
        shift: u32,
        /// Bit `s` set ⇔ `base + (s << shift)` is a member.
        words: Vec<u64>,
        /// Number of set bits before each word.
        ranks: Vec<u32>,
    },
    /// Sparse ids: the sorted id array, with an open-addressed map over it.
    /// A slot is a local index.
    Hashed {
        /// Global ids in local-index order (ascending).
        ids: Vec<VertexId>,
        /// Global id → local index.
        map: CompactIdMap,
    },
}

impl Default for IdIndex {
    fn default() -> Self {
        IdIndex::build(Vec::new())
    }
}

/// The slot of `id` in the strided range from `base`, or `None` when `id`
/// is below `base` or off the stride. Membership is the caller's check.
#[inline]
fn strided_slot(base: u64, shift: u32, id: VertexId) -> Option<u64> {
    let offset = id.0.checked_sub(base)?;
    (offset & ((1u64 << shift) - 1) == 0).then_some(offset >> shift)
}

impl IdIndex {
    /// Indexes `ids`, which must be strictly ascending. Keeps nothing but
    /// the range when the ids fill it, a rank bitmap when
    /// `12 B × ⌈slots / 64⌉ ≤ 8 B × ids.len()`, and the array with a
    /// [`CompactIdMap`] over it otherwise.
    pub fn build(mut ids: Vec<VertexId>) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids must be strictly ascending"
        );
        assert!(
            ids.len() < u32::MAX as usize,
            "partition too large for a u32 id index"
        );
        let (base, last) = match (ids.first(), ids.last()) {
            (Some(first), Some(last)) => (first.0, last.0),
            _ => (0, 0),
        };
        let stride_bits = ids.iter().fold(0u64, |acc, id| acc | (id.0 - base));
        let shift = if stride_bits == 0 {
            0
        } else {
            stride_bits.trailing_zeros()
        };
        let num_slots = match ids.len() {
            0 => 0,
            _ => u128::from((last - base) >> shift) + 1,
        };
        // Distinct ids of one residue class fill their range exactly when
        // there are as many as it has slots.
        if num_slots == ids.len() as u128 {
            return IdIndex::Full {
                base,
                shift,
                len: ids.len(),
            };
        }
        let num_words = num_slots.div_ceil(64);
        if RANKED_WORD_BYTES * num_words > 8 * ids.len() as u128 {
            ids.shrink_to_fit();
            let map = CompactIdMap::build(&ids);
            return IdIndex::Hashed { ids, map };
        }
        let mut words = vec![0u64; num_words as usize];
        for id in &ids {
            let slot = (id.0 - base) >> shift;
            words[(slot / 64) as usize] |= 1 << (slot % 64);
        }
        drop(ids);
        let mut ranks = Vec::with_capacity(words.len());
        let mut rank = 0u32;
        for word in &words {
            ranks.push(rank);
            rank += word.count_ones();
        }
        IdIndex::Ranked {
            base,
            shift,
            words,
            ranks,
        }
    }

    /// Number of indexed ids.
    pub fn len(&self) -> usize {
        match self {
            IdIndex::Full { len, .. } => *len,
            IdIndex::Ranked { words, ranks, .. } => match (words.last(), ranks.last()) {
                (Some(word), Some(&rank)) => rank as usize + word.count_ones() as usize,
                _ => 0,
            },
            IdIndex::Hashed { ids, .. } => ids.len(),
        }
    }

    /// Whether no id is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One past the highest slot: the span a bitmap posting list covers.
    pub fn slot_space(&self) -> usize {
        match self {
            IdIndex::Full { len, .. } => *len,
            IdIndex::Ranked { words, .. } => words.last().map_or(0, |last| {
                (words.len() - 1) * 64 + 64 - last.leading_zeros() as usize
            }),
            IdIndex::Hashed { ids, .. } => ids.len(),
        }
    }

    /// The local index of `id`, or `None` when it is not indexed.
    #[inline]
    pub fn local_of(&self, id: VertexId) -> Option<usize> {
        match self {
            IdIndex::Full { base, shift, len } => {
                let slot = strided_slot(*base, *shift, id)?;
                (slot < *len as u64).then_some(slot as usize)
            }
            IdIndex::Ranked {
                base,
                shift,
                words,
                ranks,
            } => {
                let slot = strided_slot(*base, *shift, id)?;
                let w = usize::try_from(slot / 64).ok()?;
                let (word, bit) = (*words.get(w)?, slot % 64);
                if (word >> bit) & 1 == 0 {
                    return None;
                }
                let below = word & ((1u64 << bit) - 1);
                Some(ranks[w] as usize + below.count_ones() as usize)
            }
            IdIndex::Hashed { ids, map } => map.get(ids, id).map(|local| local as usize),
        }
    }

    /// The global id at posting slot `slot`, which must be a member's.
    #[inline]
    pub fn id_at(&self, slot: usize) -> VertexId {
        match self {
            IdIndex::Full { base, shift, .. } | IdIndex::Ranked { base, shift, .. } => {
                VertexId(base + ((slot as u64) << shift))
            }
            IdIndex::Hashed { ids, .. } => ids[slot],
        }
    }

    /// The members' slots in ascending order (one per local index).
    pub fn slots(&self) -> Slots<'_> {
        match self {
            IdIndex::Full { len, .. } => Slots::Range(0..*len),
            IdIndex::Ranked { words, .. } => Slots::Bits(SetBits::new(words)),
            IdIndex::Hashed { ids, .. } => Slots::Range(0..ids.len()),
        }
    }

    /// The indexed ids in ascending (local-index) order.
    pub fn iter(&self) -> Ids<'_> {
        Ids {
            index: self,
            slots: self.slots(),
        }
    }

    /// Resident bytes: none for a full range, bitmap words plus ranks, or
    /// ids plus map slots.
    pub fn memory_bytes(&self) -> usize {
        match self {
            IdIndex::Full { .. } => 0,
            IdIndex::Ranked { words, ranks, .. } => {
                words.len() * std::mem::size_of::<u64>() + ranks.len() * std::mem::size_of::<u32>()
            }
            IdIndex::Hashed { ids, map } => {
                ids.len() * std::mem::size_of::<VertexId>() + map.memory_bytes()
            }
        }
    }
}

/// The positions of the set bits of a bitmap, lowest first.
#[derive(Clone)]
pub struct SetBits<'a> {
    words: &'a [u64],
    /// Index of the word `current` was loaded from.
    word_idx: usize,
    /// Unvisited bits of that word.
    current: u64,
}

impl<'a> SetBits<'a> {
    fn new(words: &'a [u64]) -> Self {
        SetBits {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * 64 + bit)
    }
}

/// The member slots of an [`IdIndex`], ascending.
#[derive(Clone)]
pub enum Slots<'a> {
    /// A ranked index's set bits.
    Bits(SetBits<'a>),
    /// A full or hashed index's local indices.
    Range(std::ops::Range<usize>),
}

impl Iterator for Slots<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            Slots::Bits(bits) => bits.next(),
            Slots::Range(range) => range.next(),
        }
    }
}

/// The ids of an [`IdIndex`], ascending.
#[derive(Clone)]
pub struct Ids<'a> {
    index: &'a IdIndex,
    slots: Slots<'a>,
}

impl Iterator for Ids<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        self.slots.next().map(|slot| self.index.id_at(slot))
    }
}

// ---------------------------------------------------------------------------
// Succinct label postings
// ---------------------------------------------------------------------------

/// One label's posting list over [`IdIndex`] slots, stored as whichever
/// representation is smaller for this label: a dense bitmap over the slot
/// space (cheap for frequent labels) or a delta-varint list (cheap for
/// rare ones). Slots are in ascending global-id order, so decoding yields
/// sorted global ids.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PostingList {
    /// No local vertex carries this label.
    Empty,
    /// Bit `s` set ⇔ the vertex at slot `s` carries the label.
    Bitmap {
        /// `ceil(slot_space / 64)` words.
        words: Vec<u64>,
        /// Number of set bits (the label's local frequency).
        count: u32,
    },
    /// `varint(first slot)`, then `varint(delta ≥ 1)` per subsequent slot.
    Deltas {
        /// Encoded slots.
        bytes: Vec<u8>,
        /// Number of encoded indices.
        count: u32,
    },
}

impl PostingList {
    fn count(&self) -> usize {
        match self {
            PostingList::Empty => 0,
            PostingList::Bitmap { count, .. } | PostingList::Deltas { count, .. } => {
                *count as usize
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            PostingList::Empty => 0,
            PostingList::Bitmap { words, .. } => words.len() * 8,
            PostingList::Deltas { bytes, .. } => bytes.len(),
        }
    }
}

/// The per-machine string index (the paper's `Index.getID`): label →
/// succinct posting list over id-index slots. It is the only index
/// the approach needs besides adjacency, linear in the local vertex count
/// and built in one pass.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CompactLabelIndex {
    lists: Vec<PostingList>,
}

impl CompactLabelIndex {
    /// Builds the index from the partition's per-local-vertex label array
    /// (`labels[local]` is the label of local vertex `local`) and its id
    /// index, whose slots the postings address. `num_labels` is the global
    /// label-space size. A label outside it is dropped — the vertex is not
    /// indexed under it, and the label space never grows with the data —
    /// and flagged with a `debug_assert`.
    pub fn build(labels: &LabelArray, num_labels: usize, ids: &IdIndex) -> Self {
        debug_assert_eq!(labels.len(), ids.len(), "one label per indexed id");
        // Pass 1: per-label frequency and exact delta-encoded size.
        let mut counts = vec![0u32; num_labels];
        let mut delta_bytes = vec![0usize; num_labels];
        let mut last_slot = vec![u64::MAX; num_labels];
        for (slot, l) in ids.slots().zip(labels.iter()) {
            let Some(c) = counts.get_mut(l.index()) else {
                debug_assert!(
                    false,
                    "label {l:?} of the vertex at slot {slot} is outside the declared label space ({num_labels} labels)"
                );
                continue;
            };
            let prev = last_slot[l.index()];
            delta_bytes[l.index()] += if prev == u64::MAX {
                varint_len(slot as u64)
            } else {
                varint_len(slot as u64 - prev)
            };
            last_slot[l.index()] = slot as u64;
            *c += 1;
        }
        // Pass 2: pick the smaller representation per label and fill it.
        let num_words = ids.slot_space().div_ceil(64);
        let bitmap_bytes = num_words * 8;
        let mut lists: Vec<PostingList> = counts
            .iter()
            .zip(&delta_bytes)
            .map(|(&count, &dbytes)| {
                if count == 0 {
                    PostingList::Empty
                } else if bitmap_bytes < dbytes {
                    PostingList::Bitmap {
                        words: vec![0u64; num_words],
                        count,
                    }
                } else {
                    PostingList::Deltas {
                        bytes: Vec::with_capacity(dbytes),
                        count,
                    }
                }
            })
            .collect();
        let mut prev = vec![0u64; num_labels];
        let mut seen = vec![false; num_labels];
        for (slot, l) in ids.slots().zip(labels.iter()) {
            let Some(list) = lists.get_mut(l.index()) else {
                continue;
            };
            match list {
                PostingList::Bitmap { words, .. } => {
                    words[slot / 64] |= 1u64 << (slot % 64);
                }
                PostingList::Deltas { bytes, .. } => {
                    let delta = if seen[l.index()] {
                        slot as u64 - prev[l.index()]
                    } else {
                        slot as u64
                    };
                    push_varint(bytes, delta);
                    prev[l.index()] = slot as u64;
                    seen[l.index()] = true;
                }
                PostingList::Empty => unreachable!("counted label has a list"),
            }
        }
        CompactLabelIndex { lists }
    }

    /// The postings of `label`, decoded against `ids` (the id index the
    /// postings were built over) to sorted global vertex ids.
    #[inline]
    pub fn get<'a>(&'a self, label: LabelId, ids: &'a IdIndex) -> Postings<'a> {
        match self.lists.get(label.index()) {
            None | Some(PostingList::Empty) => Postings::Slice(&[]),
            Some(PostingList::Bitmap { words, count }) => Postings::Bitmap {
                words,
                ids,
                count: *count,
            },
            Some(PostingList::Deltas { bytes, count }) => Postings::Deltas {
                bytes,
                ids,
                count: *count,
            },
        }
    }

    /// Number of local vertices carrying `label`.
    #[inline]
    pub fn frequency(&self, label: LabelId) -> usize {
        self.lists.get(label.index()).map_or(0, PostingList::count)
    }

    /// Global label-space size this index was built for.
    pub fn num_labels(&self) -> usize {
        self.lists.len()
    }

    /// Total postings across all labels.
    pub fn total_postings(&self) -> usize {
        self.lists.iter().map(PostingList::count).sum()
    }

    /// Resident bytes: posting payloads plus the per-label enum headers.
    pub fn memory_bytes(&self) -> usize {
        self.lists.len() * std::mem::size_of::<PostingList>()
            + self
                .lists
                .iter()
                .map(PostingList::memory_bytes)
                .sum::<usize>()
    }
}

/// A zero-copy view of one label's local postings, decoded to sorted global
/// vertex ids on iteration. The type a partition answers `Index.getID` with.
#[derive(Clone, Copy)]
pub enum Postings<'a> {
    /// A sorted slice of global ids: an overlay's merged list, or empty.
    Slice(&'a [VertexId]),
    /// A bitmap over slots, mapped through `ids`.
    Bitmap {
        /// Bit `s` set ⇔ the vertex at slot `s` carries the label.
        words: &'a [u64],
        /// Slot → global id.
        ids: &'a IdIndex,
        /// Number of set bits.
        count: u32,
    },
    /// Delta-varint slots, mapped through `ids`.
    Deltas {
        /// Encoded slots.
        bytes: &'a [u8],
        /// Slot → global id.
        ids: &'a IdIndex,
        /// Number of encoded indices.
        count: u32,
    },
}

impl<'a> Postings<'a> {
    /// The empty postings.
    pub fn empty() -> Postings<'static> {
        Postings::Slice(&[])
    }

    /// Number of ids in the posting list.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Postings::Slice(s) => s.len(),
            Postings::Bitmap { count, .. } | Postings::Deltas { count, .. } => *count as usize,
        }
    }

    /// Whether the posting list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates global ids in ascending order without allocating.
    pub fn iter(&self) -> PostingsIter<'a> {
        match *self {
            Postings::Slice(s) => PostingsIter::Slice(s.iter()),
            Postings::Bitmap { words, ids, count } => PostingsIter::Bitmap {
                slots: SetBits::new(words),
                ids,
                remaining: count,
            },
            Postings::Deltas { bytes, ids, count } => PostingsIter::Deltas {
                bytes,
                ids,
                pos: 0,
                prev: 0,
                remaining: count,
            },
        }
    }

    /// Decodes into an owned `Vec`.
    pub fn to_vec(&self) -> Vec<VertexId> {
        match *self {
            Postings::Slice(s) => s.to_vec(),
            _ => self.iter().collect(),
        }
    }
}

impl<'a> IntoIterator for Postings<'a> {
    type Item = VertexId;
    type IntoIter = PostingsIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Postings<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Postings<'_> {}

impl PartialEq<&[VertexId]> for Postings<'_> {
    fn eq(&self, other: &&[VertexId]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl<const N: usize> PartialEq<&[VertexId; N]> for Postings<'_> {
    fn eq(&self, other: &&[VertexId; N]) -> bool {
        self.len() == N && self.iter().eq(other.iter().copied())
    }
}

impl PartialEq<Vec<VertexId>> for Postings<'_> {
    fn eq(&self, other: &Vec<VertexId>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl std::fmt::Debug for Postings<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a [`Postings`] view.
#[derive(Clone)]
pub enum PostingsIter<'a> {
    /// Slice iteration.
    Slice(std::slice::Iter<'a, VertexId>),
    /// Bitmap scan (lowest set bit first).
    Bitmap {
        /// The bitmap's set bits.
        slots: SetBits<'a>,
        /// Slot → global id.
        ids: &'a IdIndex,
        /// Set bits left to visit.
        remaining: u32,
    },
    /// Varint decode.
    Deltas {
        /// Encoded slots.
        bytes: &'a [u8],
        /// Slot → global id.
        ids: &'a IdIndex,
        /// Cursor into `bytes`.
        pos: usize,
        /// Last decoded slot.
        prev: u64,
        /// Slots left to decode.
        remaining: u32,
    },
}

impl Iterator for PostingsIter<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        match self {
            PostingsIter::Slice(it) => it.next().copied(),
            PostingsIter::Bitmap {
                slots,
                ids,
                remaining,
            } => {
                if *remaining == 0 {
                    return None;
                }
                *remaining -= 1;
                slots.next().map(|slot| ids.id_at(slot))
            }
            PostingsIter::Deltas {
                bytes,
                ids,
                pos,
                prev,
                remaining,
            } => {
                if *remaining == 0 {
                    return None;
                }
                *remaining -= 1;
                let at_start = *pos == 0;
                let raw = read_varint(bytes, pos);
                let slot = if at_start { raw } else { *prev + raw };
                *prev = slot;
                Some(ids.id_at(slot as usize))
            }
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            PostingsIter::Slice(it) => it.len(),
            PostingsIter::Bitmap { remaining, .. } | PostingsIter::Deltas { remaining, .. } => {
                *remaining as usize
            }
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for PostingsIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u64) -> VertexId {
        VertexId(x)
    }
    fn l(x: u32) -> LabelId {
        LabelId(x)
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        for &x in &values {
            buf.clear();
            push_varint(&mut buf, x);
            assert_eq!(buf.len(), varint_len(x), "len of {x}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), x);
            assert_eq!(pos, buf.len());
        }
    }

    /// Encodes sorted, deduplicated runs through the builder.
    fn csr_of(runs: &[Vec<VertexId>]) -> CompactCsr {
        let mut b = CompactCsrBuilder::with_capacity(runs.len());
        for run in runs {
            b.push_run(run);
        }
        b.finish()
    }

    #[test]
    fn compact_csr_answers_reads() {
        let c = csr_of(&[vec![v(1), v(3), v(100)], vec![], vec![v(0)], vec![v(7)]]);
        assert_eq!(c.num_vertices(), 4);
        assert_eq!(c.num_entries(), 5);
        assert_eq!(c.neighbors(0), &[v(1), v(3), v(100)]);
        assert_eq!(c.neighbors(1), &[] as &[VertexId]);
        assert_eq!(c.neighbors(2), &[v(0)]);
        assert_eq!(c.degree(0), 3);
        assert_eq!(c.degree(1), 0);
        assert!(c.has_neighbor(0, v(3)));
        assert!(!c.has_neighbor(0, v(2)));
        assert!(!c.has_neighbor(0, v(101)));
        assert_eq!(c.iter().count(), 4);
        let empty = csr_of(&[]);
        assert_eq!((empty.num_vertices(), empty.num_entries()), (0, 0));
    }

    #[test]
    fn compact_csr_is_half_a_flat_csr_for_small_ids() {
        // 1000 vertices with ~8 neighbors each drawn from a 1000-id space:
        // deltas fit in 1-2 bytes vs 8 bytes per entry in a flat `Vec` CSR
        // (8-byte offsets plus 8-byte ids).
        let lists: Vec<Vec<VertexId>> = (0..1000u64)
            .map(|i| {
                let mut run: Vec<VertexId> = (0..8).map(|j| v((i * 37 + j * 131) % 1000)).collect();
                run.sort_unstable();
                run
            })
            .collect();
        let flat_bytes: usize = lists.iter().map(|l| l.len() * 8).sum::<usize>() + 1001 * 8;
        let c = csr_of(&lists);
        assert!(
            c.memory_bytes() * 2 <= flat_bytes,
            "compact {} vs flat {flat_bytes}",
            c.memory_bytes()
        );
    }

    #[test]
    fn neighbors_equality_and_debug() {
        let run: Vec<VertexId> = vec![v(2), v(5), v(9)];
        let c = csr_of(std::slice::from_ref(&run));
        let compact = c.neighbors(0);
        assert_eq!(compact, Neighbors::Slice(&run));
        assert_eq!(compact, run.clone());
        assert_eq!(format!("{compact:?}"), format!("{run:?}"));
        assert_ne!(compact, &[v(2), v(5)]);
    }

    #[test]
    fn id_map_round_trips_and_misses() {
        let ids: Vec<VertexId> = (0..257u64).map(|i| v(i * 7 + 3)).collect();
        let m = CompactIdMap::build(&ids);
        for (local, &id) in ids.iter().enumerate() {
            assert_eq!(m.get(&ids, id), Some(local as u32));
        }
        assert_eq!(m.get(&ids, v(1)), None);
        assert_eq!(m.get(&ids, v(u64::MAX)), None);
        // ≤ 50% load at 4 bytes per slot.
        assert!(m.memory_bytes() <= ids.len() * 4 * 4);
    }

    #[test]
    fn id_map_empty() {
        let m = CompactIdMap::build(&[]);
        assert_eq!(m.get(&[], v(0)), None);
    }

    /// Builds an [`IdIndex`] over `ids` (strictly ascending) and checks
    /// every promise it makes: the variant rule, `local_of` of members and
    /// of non-members around them, `id_at` of every slot (directly and
    /// through postings over the slots), and iteration order.
    fn check_id_index(ids: &[u64]) -> IdIndex {
        let ids: Vec<VertexId> = ids.iter().copied().map(v).collect();
        let index = IdIndex::build(ids.clone());
        assert_eq!(index.len(), ids.len());
        assert_eq!(index.is_empty(), ids.is_empty());
        assert_eq!(index.iter().collect::<Vec<_>>(), ids, "iteration order");

        // The variant rule: nothing but the range when the ids fill it, else
        // the bitmap whenever it is no larger than the id array.
        let (base, last) = (
            ids.first().map_or(0, |x| x.0),
            ids.last().map_or(0, |x| x.0),
        );
        let stride = ids.iter().fold(0u64, |acc, x| acc | (x.0 - base));
        let shift = if stride == 0 {
            0
        } else {
            stride.trailing_zeros()
        };
        let slots = if ids.is_empty() {
            0
        } else {
            u128::from((last - base) >> shift) + 1
        };
        let words = slots.div_ceil(64);
        let full = slots == ids.len() as u128;
        let ranked = !full && 12 * words <= 8 * ids.len() as u128;
        assert_eq!(matches!(index, IdIndex::Full { .. }), full, "variant");
        assert_eq!(matches!(index, IdIndex::Ranked { .. }), ranked, "variant");
        if let IdIndex::Full { shift: s, .. } | IdIndex::Ranked { shift: s, .. } = index {
            assert_eq!(s, shift);
        }
        let bytes = index.memory_bytes();
        match index {
            IdIndex::Full { .. } => assert_eq!(bytes, 0),
            IdIndex::Ranked { .. } => assert_eq!(bytes as u128, 12 * words),
            IdIndex::Hashed { ref map, .. } => {
                assert_eq!(bytes, ids.len() * 8 + map.memory_bytes())
            }
        }

        let members: std::collections::HashSet<u64> = ids.iter().map(|x| x.0).collect();
        for (local, &id) in ids.iter().enumerate() {
            assert_eq!(index.local_of(id), Some(local), "member {id}");
        }
        let mut outsiders = vec![0, 1, u64::MAX, u64::MAX - 1];
        for &id in &ids {
            outsiders.extend([id.0.wrapping_sub(1), id.0.wrapping_add(1)]);
            // Off the stride, when there is one.
            outsiders.push(id.0.wrapping_add(1 << shift.saturating_sub(1)));
        }
        outsiders.extend([base.wrapping_sub(1), base / 2, last.wrapping_add(1)]);
        outsiders.push(last.wrapping_add(1 << shift));
        for id in outsiders {
            let want = ids.iter().position(|x| x.0 == id);
            assert_eq!(members.contains(&id), want.is_some());
            assert_eq!(index.local_of(v(id)), want, "probe {id}");
        }

        // Slots ascend, stay inside the slot space, and decode to the ids.
        let slots: Vec<usize> = index.slots().collect();
        assert_eq!(slots.len(), ids.len());
        assert!(slots.windows(2).all(|w| w[0] < w[1]));
        assert!(slots.last().map_or(0, |s| s + 1) == index.slot_space());
        for (&slot, &id) in slots.iter().zip(&ids) {
            assert_eq!(index.id_at(slot), id, "slot {slot}");
        }
        // Postings over the slots, both representations, decode to the
        // members carrying each label.
        let labels: Vec<LabelId> = (0..ids.len())
            .map(|i| l(if i % 97 == 0 { 1 } else { 0 }))
            .collect();
        let postings = CompactLabelIndex::build(&LabelArray::from_labels(2, &labels), 2, &index);
        for lab in 0..2 {
            let want: Vec<VertexId> = ids
                .iter()
                .zip(&labels)
                .filter(|(_, &x)| x == l(lab))
                .map(|(&id, _)| id)
                .collect();
            assert_eq!(postings.get(l(lab), &index).to_vec(), want, "label {lab}");
        }
        index
    }

    #[test]
    fn id_index_answers_both_directions_on_every_shape() {
        let arm = |ids: &[u64], want: &str| {
            let index = check_id_index(ids);
            let got = match index {
                IdIndex::Full { .. } => "full",
                IdIndex::Ranked { .. } => "ranked",
                IdIndex::Hashed { .. } => "hashed",
            };
            assert_eq!(got, want, "{ids:?}");
            index
        };
        assert_eq!(arm(&[], "full").memory_bytes(), 0);
        // A single id fills its one-slot range.
        arm(&[0], "full");
        arm(&[42], "full");
        arm(&[u64::MAX], "full");
        arm(&[u64::MAX - 1, u64::MAX], "full");
        // Ids near the top of the space: no overflow in slots or decoding.
        arm(&(u64::MAX - 300..=u64::MAX).collect::<Vec<_>>(), "full");
        let top: Vec<u64> = (0..100).map(|i| u64::MAX - 4 * i).rev().collect();
        arm(&top, "full");
        // All even ids: shift 1, no heap.
        let evens = arm(&(0..2_000).map(|i| 2 * i).collect::<Vec<_>>(), "full");
        assert!(matches!(
            evens,
            IdIndex::Full {
                shift: 1,
                len: 2_000,
                ..
            }
        ));
        assert_eq!(evens.memory_bytes(), 0);
        // Stride 2^k from an odd base, with holes.
        let strided: Vec<u64> = (0..3_000u64)
            .filter(|i| i % 5 != 3)
            .map(|i| 7 + (i << 4))
            .collect();
        assert!(matches!(
            arm(&strided, "ranked"),
            IdIndex::Ranked { shift: 4, .. }
        ));
        // Exactly at the switch point: 4 words (48 B) for 6 ids (48 B) stay
        // ranked; one id fewer is 40 B of array and hashes.
        arm(&[0, 1, 2, 3, 4, 255], "ranked");
        arm(&[0, 1, 2, 3, 255], "hashed");
        // One hole is enough to leave the full arm.
        arm(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 10], "ranked");
        // Random sparse ids hash; a random dense subset of a range ranks.
        let mut x = 0x1D_1D3Au64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..8 {
            let mut sparse: Vec<u64> = (0..500 + round * 50).map(|_| next()).collect();
            sparse.sort_unstable();
            sparse.dedup();
            arm(&sparse, "hashed");
            let base = next() >> 8;
            let subset: Vec<u64> = (0..4_000u64)
                .filter(|_| next() % 4 != 0)
                .map(|i| base + (i << round))
                .collect();
            arm(&subset, "ranked");
            let whole: Vec<u64> = (0..1_000u64).map(|i| base + (i << round)).collect();
            arm(&whole, "full");
        }
    }

    /// A full index answers every read exactly as a ranked index over the
    /// same ids does, on members and on every kind of outsider.
    #[test]
    fn a_full_index_reads_like_a_ranked_one() {
        let (base, shift, n) = (1_000u64, 3u32, 700u64);
        let ids: Vec<VertexId> = (0..n).map(|i| v(base + (i << shift))).collect();
        let full = IdIndex::build(ids.clone());
        assert!(matches!(full, IdIndex::Full { len: 700, .. }));
        // The same ids as a bitmap (the build would never pick it here).
        let mut words = vec![0u64; (n as usize).div_ceil(64)];
        for i in 0..n {
            words[(i / 64) as usize] |= 1 << (i % 64);
        }
        let ranks = (0..words.len())
            .map(|w| words[..w].iter().map(|x| x.count_ones()).sum())
            .collect();
        let ranked = IdIndex::Ranked {
            base,
            shift,
            words,
            ranks,
        };
        assert_eq!(full.len(), ranked.len());
        assert_eq!(full.slot_space(), ranked.slot_space());
        assert_eq!(
            full.slots().collect::<Vec<_>>(),
            ranked.slots().collect::<Vec<_>>()
        );
        assert_eq!(
            full.iter().collect::<Vec<_>>(),
            ranked.iter().collect::<Vec<_>>()
        );
        assert_eq!(full.iter().collect::<Vec<_>>(), ids);
        for slot in 0..n as usize {
            assert_eq!(full.id_at(slot), ranked.id_at(slot));
        }
        let last = base + ((n - 1) << shift);
        let mut probes = vec![0, base - 1, base - (1 << shift), base + 1, base + 4];
        probes.extend([last, last + 1, last + (1 << shift), last + (2 << shift)]);
        probes.extend([u64::MAX, u64::MAX - 7, base + (n << shift)]);
        probes.extend((base..last + 20).step_by(3));
        for id in probes {
            let id = v(id);
            assert_eq!(full.local_of(id), ranked.local_of(id), "local_of {id}");
        }
        assert_eq!(full.memory_bytes(), 0);
        assert!(ranked.memory_bytes() > 0);
    }

    #[test]
    fn label_index_picks_representation_per_label() {
        // Label 0 on every vertex (bitmap wins), label 1 on one vertex
        // (deltas win), label 2 absent (Empty).
        let n = 1000usize;
        let labels: Vec<LabelId> = (0..n).map(|i| if i == 500 { l(1) } else { l(0) }).collect();
        let ids = IdIndex::build((0..n as u64).map(v).collect());
        let idx = CompactLabelIndex::build(&LabelArray::from_labels(3, &labels), 3, &ids);
        assert!(matches!(idx.lists[0], PostingList::Bitmap { .. }));
        assert!(matches!(idx.lists[1], PostingList::Deltas { .. }));
        assert!(matches!(idx.lists[2], PostingList::Empty));
        assert_eq!(idx.frequency(l(0)), n - 1);
        assert_eq!(idx.frequency(l(1)), 1);
        assert_eq!(idx.frequency(l(2)), 0);
        assert_eq!(idx.total_postings(), n);
        assert_eq!(idx.num_labels(), 3);
    }

    #[test]
    fn postings_decode_sorted_global_ids() {
        let ids: Vec<VertexId> = (0..200u64).map(|i| v(i * 5 + 2)).collect();
        let labels: Vec<LabelId> = (0..200).map(|i| l((i % 3) as u32)).collect();
        let index = IdIndex::build(ids.clone());
        let idx = CompactLabelIndex::build(&LabelArray::from_labels(3, &labels), 3, &index);
        for lab in 0..3u32 {
            let expect: Vec<VertexId> = (0..200usize)
                .filter(|i| (i % 3) as u32 == lab)
                .map(|i| ids[i])
                .collect();
            let got = idx.get(l(lab), &index);
            assert_eq!(got.len(), expect.len());
            assert_eq!(got.to_vec(), expect);
            assert_eq!(got, expect);
        }
        assert_eq!(idx.get(l(99), &index).len(), 0);
    }

    #[test]
    fn out_of_space_labels_are_dropped_not_grown() {
        // A label id beyond `num_labels` must not grow the label space:
        // debug builds flag it, release builds leave the vertex unindexed.
        if cfg!(debug_assertions) {
            let labels = LabelArray::from_labels(2, &[l(5)]);
            let build = || CompactLabelIndex::build(&labels, 2, &IdIndex::build(vec![v(1)]));
            assert!(std::panic::catch_unwind(build).is_err());
        } else {
            let ids = IdIndex::build(vec![v(1), v(2)]);
            let labels = LabelArray::from_labels(2, &[l(5), l(1)]);
            let idx = CompactLabelIndex::build(&labels, 2, &ids);
            assert_eq!(idx.num_labels(), 2, "label space must not grow");
            assert_eq!(idx.frequency(l(5)), 0);
            assert_eq!(idx.get(l(1), &ids), &[v(2)]);
            assert_eq!(idx.total_postings(), 1);
        }
    }

    #[test]
    fn label_width_follows_the_label_count() {
        let labels: Vec<LabelId> = [0, 7, 255, 3].map(l).to_vec();
        for (num_labels, width) in [(1, 1), (256, 1), (257, 2), (65_536, 2), (65_537, 4)] {
            let array = LabelArray::from_labels(num_labels, &labels);
            assert_eq!(array.width(), width, "{num_labels} labels");
            assert_eq!(array.memory_bytes(), labels.len() * width);
            assert_eq!(array.iter().collect::<Vec<_>>(), labels);
        }
        // The u32 arm holds what no narrower width can.
        let wide = [l(65_536), l(0), l(u32::MAX - 1)];
        let array = LabelArray::from_labels(65_537, &wide);
        assert!(matches!(array, LabelArray::U32(_)));
        assert_eq!((0..3).map(|i| array.get(i)).collect::<Vec<_>>(), wide);
        assert_eq!(array.memory_bytes(), 12);
        // A label past the width widens the array instead of wrapping.
        let mut narrow = LabelArray::from_labels(2, &[l(1), l(0)]);
        narrow.push(l(300));
        assert_eq!(narrow.width(), 4);
        assert_eq!(narrow.iter().collect::<Vec<_>>(), [l(1), l(0), l(300)]);
    }

    #[test]
    fn bases_narrow_to_u32_until_one_passes_4_gib() {
        let c = csr_of(&[vec![v(1)], vec![v(2)]]);
        assert!(matches!(c.bases, OffsetArray::U32(_)));
        assert_eq!(c.memory_bytes(), c.bases.memory_bytes() + c.data.len());
        // Synthetic bases, no buffer behind them: the last one decides.
        let max32 = u64::from(u32::MAX);
        for (bases, wide) in [
            (vec![], false),
            (vec![0, 1_000, max32], false),
            (vec![0, max32 + 1], true),
            (vec![0, max32 - 5, max32, 1 << 32, (1 << 40) + 17], true),
        ] {
            let array = OffsetArray::from_u64s(bases.clone());
            assert_eq!(matches!(array, OffsetArray::U64(_)), wide, "{bases:?}");
            assert_eq!(array.memory_bytes(), bases.len() * if wide { 8 } else { 4 });
            for (i, &base) in bases.iter().enumerate() {
                assert_eq!(array.get(i) as u64, base, "{bases:?} at {i}");
            }
        }
    }

    /// Every width the header codec picks, on synthetic record starts
    /// (no records behind them): a block whose last record starts `span`
    /// bytes after its first, at each count of records, with the span
    /// exactly at each width's edge and past 4 GiB.
    #[test]
    fn offset_headers_take_the_narrowest_width_the_span_fits() {
        let edges = [
            (0, 1),
            (255, 1),
            (256, 2),
            (65_535, 2),
            (65_536, 4),
            (u64::from(u32::MAX), 4),
            (1 << 32, 8),
            ((1 << 45) + 3, 8),
        ];
        for (span, width) in edges {
            assert_eq!(offset_width(span), width, "span {span}");
            for count in 1..=OFFSET_BLOCK {
                let span = if count == 1 { 0 } else { span };
                // Starts ascend to `span`; the one before it sits a third in.
                let starts: Vec<u64> = (0..count as u64)
                    .map(|k| match k {
                        0 => 0,
                        k if k + 1 == count as u64 => span,
                        k => span / 3 * k / count as u64,
                    })
                    .collect();
                let mut buf = vec![0xEE; 3];
                push_header(&mut buf, &starts);
                let w = offset_width(span);
                assert_eq!(buf[3] as usize, w);
                let header = 1 + (count - 1) * w;
                assert_eq!(buf.len(), 3 + header, "span {span}, {count} records");
                buf.extend_from_slice(&[0xEE; 8]);
                for (k, &start) in starts.iter().enumerate() {
                    let got = record_start(&buf, 3, count, k) as u64;
                    assert_eq!(got, 3 + header as u64 + start, "span {span}, record {k}");
                }
            }
        }
    }

    /// Where each record of `records` (their byte lengths, in order) starts
    /// in a buffer laid out block by block: a flat prefix sum over the
    /// records with each block's header in front of its first.
    fn flat_starts(records: &[usize]) -> (Vec<usize>, usize) {
        let mut starts = Vec::with_capacity(records.len());
        let mut pos = 0;
        for block in records.chunks(OFFSET_BLOCK) {
            let span: usize = block[..block.len() - 1].iter().sum();
            pos += 1 + (block.len() - 1) * offset_width(span as u64);
            for &len in block {
                starts.push(pos);
                pos += len;
            }
        }
        (starts, pos)
    }

    /// Builds a CSR over `runs` and holds every record to the flat layout
    /// and to its run: the start, the run and its degree.
    fn check_offsets(runs: &[Vec<VertexId>]) -> CompactCsr {
        let c = csr_of(runs);
        let lens: Vec<usize> = runs
            .iter()
            .map(|r| spec_len(&r.iter().map(|x| x.0).collect::<Vec<_>>()))
            .collect();
        let (starts, total) = flat_starts(&lens);
        assert_eq!(c.data.len(), total);
        assert_eq!(c.num_vertices(), runs.len());
        assert_eq!(
            c.bases.memory_bytes(),
            4 * runs.len().div_ceil(OFFSET_BLOCK)
        );
        for (local, run) in runs.iter().enumerate() {
            assert_eq!(c.record(local), starts[local], "record {local}");
            assert_eq!(c.neighbors(local), Neighbors::Slice(run));
            assert_eq!(c.degree(local), run.len());
        }
        c
    }

    #[test]
    fn offset_blocks_round_trip_at_every_count_and_width() {
        let run = |len: u64, step: u64, from: u64| -> Vec<VertexId> {
            (0..len).map(|i| v(from + i * step)).collect()
        };
        // Counts either side of each block boundary: n mod 32 ∈ {0, 1, 31},
        // a single partial block, and a last block only partly full.
        for n in [0, 1, 2, 31, 32, 33, 63, 64, 65, 95, 96, 97, 100] {
            // No neighbors anywhere: one byte a record, 1-byte offsets.
            check_offsets(&vec![vec![]; n]);
            // Small runs: every block's span fits 1 or 2 bytes.
            let small: Vec<Vec<VertexId>> = (0..n as u64).map(|i| run(i % 7, 3, i)).collect();
            check_offsets(&small);
            // A hub early in each block widens that block to 2 B (its run
            // is ~1 KB) or 4 B (~100 KB); blocks without one stay narrow.
            for hub_len in [300, 20_000] {
                let runs: Vec<Vec<VertexId>> = (0..n as u64)
                    .map(|i| match i % 64 {
                        3 => run(hub_len, (1 << 30) + i, 17),
                        _ => run(i % 3, 2, i),
                    })
                    .collect();
                let c = check_offsets(&runs);
                for (block, records) in runs.chunks(OFFSET_BLOCK).enumerate() {
                    let w = usize::from(c.data[c.bases.get(block)]);
                    let hub = records.len() > 4 && block % 2 == 0;
                    let want = match (hub, hub_len) {
                        (false, _) => 1,
                        (true, 300) => 2,
                        (true, _) => 4,
                    };
                    assert_eq!(w, want, "n {n}, block {block}, hub {hub_len}");
                }
            }
        }
    }

    #[test]
    fn a_vertex_without_neighbors_costs_one_byte() {
        // One block: its width byte, then one offset byte a later record.
        let empty = csr_of(&[vec![]]);
        assert_eq!(empty.data, [1, 0]);
        let three = csr_of(&[vec![], vec![], vec![]]);
        assert_eq!(three.data, [1, 1, 2, 0, 0, 0]);
        // A neighbor: the degree and the first id.
        let one = csr_of(&[vec![v(5)], vec![]]);
        assert_eq!(one.data, [1, 2, 1, 5, 0]);
        assert_eq!(one.neighbors(0), &[v(5)]);
    }

    /// Bytes the record format spells out for `run`: the degree's and the
    /// first id's varints, then per block of up to eight gaps a width byte
    /// and each gap minus one at the width of the block's widest.
    fn spec_len(run: &[u64]) -> usize {
        let Some((&first, _)) = run.split_first() else {
            return varint_len(0);
        };
        let gaps: Vec<u64> = run.windows(2).map(|w| w[1] - w[0] - 1).collect();
        let blocks: usize = gaps
            .chunks(BLOCK)
            .map(|b| {
                let w = 64 - b.iter().fold(0, |a, &g| a | g).leading_zeros() as usize;
                1 + (b.len() * w).div_ceil(8)
            })
            .sum();
        varint_len(run.len() as u64) + varint_len(first) + blocks
    }

    /// Encodes each run twice — once followed by a long run, so its block
    /// reads overrun into that run's bytes, and once last in the buffer,
    /// where they read a padded copy — and checks everything a run answers
    /// against the input: the iterator (with its exact length at every
    /// step), the bulk decode (skipping an id, for each id probed, and
    /// none), the degree, membership of each id probed and of its
    /// neighbors in id space,
    /// the byte count the format spells out, and the seal's byte copy.
    fn check_runs(runs: &[Vec<u64>]) {
        let filler: Vec<u64> = (0..200).map(|i| i * 1_000_003).collect();
        for run in runs {
            let ids: Vec<VertexId> = run.iter().copied().map(v).collect();
            let c = csr_of(&[
                ids.clone(),
                filler.iter().copied().map(v).collect(),
                ids.clone(),
            ]);
            let (_, total) = flat_starts(&[spec_len(run), spec_len(&filler), spec_len(run)]);
            assert_eq!(c.data.len(), total, "{run:?}");
            for local in [0, 2] {
                let nb = c.neighbors(local);
                assert_eq!(nb.len(), run.len());
                assert_eq!(c.degree(local), run.len());
                let mut it = nb.iter();
                for (i, &want) in ids.iter().enumerate() {
                    assert_eq!(it.len(), run.len() - i, "{run:?} at {i}");
                    assert_eq!(it.next(), Some(want), "{run:?} at {i}");
                }
                assert_eq!((it.len(), it.next()), (0, None));
                // Every id of a short run; a hub's first and last blocks
                // and a stride through the rest.
                let probed: Vec<u64> = (run.iter().enumerate())
                    .filter(|&(i, _)| i < 40 || i % 97 == 0 || i + 20 >= run.len())
                    .map(|(_, &id)| id)
                    .collect();
                let skips = probed.iter().copied().map(v).chain([v(u64::MAX ^ 0x5A5A)]);
                for skip in skips {
                    let mut out = vec![v(7)];
                    nb.decode_into(&mut out, skip);
                    let want: Vec<VertexId> = std::iter::once(v(7))
                        .chain(ids.iter().copied().filter(|&m| m != skip))
                        .collect();
                    assert_eq!(out, want, "{run:?} skipping {skip}");
                }
                for &id in &probed {
                    assert!(c.has_neighbor(local, v(id)), "{run:?} has {id}");
                    for probe in [id.wrapping_sub(1), id.wrapping_add(1)] {
                        let member = run.binary_search(&probe).is_ok();
                        assert_eq!(
                            c.has_neighbor(local, v(probe)),
                            member,
                            "{run:?} probe {probe}"
                        );
                    }
                }
            }
            // The seal copies an encoded run byte for byte.
            let mut sealed = CompactCsrBuilder::with_capacity(3);
            for local in 0..3 {
                sealed.push_neighbors(c.neighbors(local));
            }
            let sealed = sealed.finish();
            assert_eq!(sealed.data, c.data, "{run:?}");
            assert_eq!(sealed.num_entries(), c.num_entries());
            assert_eq!(sealed.neighbors(2).to_vec(), ids);
        }
    }

    #[test]
    fn block_runs_round_trip_at_every_length_and_width() {
        // Lengths around the block boundary (1 + 8k gaps), and a hub.
        let mut runs: Vec<Vec<u64>> = [1, 2, 3, 8, 9, 10, 16, 17, 18, 25]
            .iter()
            .map(|&n| (0..n).map(|i| 3 + i * i * 37).collect())
            .collect();
        runs.push((0..5_000).map(|i| i * 3 + (i * i) % 3).collect());
        // Consecutive ids: every block is its width byte alone.
        runs.push((40..57).collect());
        runs.push((u64::MAX - 16..=u64::MAX).collect());
        // Each width 0..=64 in each lane: one gap minus one of exactly `w`
        // bits among small ones, in full and partial blocks.
        for w in 0..=64u32 {
            for lane in 0..BLOCK {
                for gaps in [BLOCK, lane + 1] {
                    let mut run = vec![5u64];
                    for k in 0..gaps {
                        let minus_one = match (k == lane, w) {
                            (true, 0) => 0,
                            (true, w) => (1u64 << (w - 1)) | (k as u64 & 1),
                            (false, _) => (k as u64 * 7) & ((1u64 << w.min(6)) - 1),
                        };
                        let last = *run.last().unwrap();
                        run.push(last + minus_one + 1);
                    }
                    runs.push(run);
                }
            }
        }
        // Gaps of 2^56 and more, and the ends of the id space.
        runs.push(vec![
            0,
            1 << 56,
            (1 << 56) + (1 << 57) + 1,
            u64::MAX - 1,
            u64::MAX,
        ]);
        runs.push(vec![0, u64::MAX]);
        runs.push(vec![u64::MAX]);
        runs.push((0..20).map(|i| i << 59).chain([u64::MAX]).collect());
        check_runs(&runs);
    }

    #[test]
    fn consecutive_ids_cost_a_width_byte_a_block() {
        let c = csr_of(&[(100..117).map(v).collect()]);
        // The offset header's width byte, the degree, the first id, and two
        // width-0 blocks of 8 gaps.
        assert_eq!(c.data, [1, 17, 100, 0, 0]);
        assert_eq!(
            c.neighbors(0).to_vec(),
            (100..117).map(v).collect::<Vec<_>>()
        );
    }

    #[test]
    fn hub_vertex_round_trips() {
        let hub: Vec<VertexId> = (0..10_000u64).map(|i| v(i * 2)).collect();
        let c = csr_of(std::slice::from_ref(&hub));
        assert_eq!(c.neighbors(0).to_vec(), hub);
        assert_eq!(c.degree(0), 10_000);
        assert!(c.has_neighbor(0, v(19_998)));
        assert!(!c.has_neighbor(0, v(19_999)));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 64, ..Default::default() })]

        /// The two-level offsets find every record where a flat prefix sum
        /// over the records puts it.
        #[test]
        fn two_level_offsets_equal_a_flat_prefix_sum(
            gaps in proptest::collection::vec(
                (proptest::collection::vec(1u64..1_000, 0..40), 0u32..40),
                0..150,
            )
        ) {
            let runs: Vec<Vec<VertexId>> = gaps
                .iter()
                .map(|(gaps, shift)| {
                    let mut id = 0;
                    gaps.iter().map(|g| { id += g << shift; v(id) }).collect()
                })
                .collect();
            check_offsets(&runs);
        }
    }
}
