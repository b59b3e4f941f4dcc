//! What only the frozen repo benchmark (`benchmark/`) still names, kept so
//! its `prelude` imports and calls keep resolving: a storage-tier type with
//! one representation, the setters that accept it and store nothing, a
//! traffic reset with nothing to reset, and an uncharged `load` of any
//! cell. The next `[benchmark]` PR deletes this file.

use crate::builder::GraphBuilder;
use crate::cloud::MemoryCloud;
use crate::ids::{MachineId, VertexId};
use crate::loader::StreamLoader;
use crate::partition::Cell;

/// The physical representation a partition stores its graph in. There is
/// one, [`StorageTier::Compact`] (`crate::compact`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageTier {
    /// Block-packed CSR, label postings in the same codec, width-picked
    /// labels and the id index.
    Compact,
}

impl StorageTier {
    /// The spelling of [`StorageTier::Compact`] from when an uncompressed
    /// tier existed.
    #[allow(non_upper_case_globals)]
    pub const Plain: StorageTier = StorageTier::Compact;
}

impl StreamLoader {
    /// Accepts a [`StorageTier`] and stores nothing.
    pub fn with_storage_tier(self, _tier: StorageTier) -> Self {
        self
    }
}

impl GraphBuilder {
    /// Accepts a [`StorageTier`] and stores nothing.
    pub fn with_storage_tier(self, _tier: StorageTier) -> Self {
        self
    }
}

impl MemoryCloud {
    /// Does nothing: the cloud keeps no traffic. Every query charges a
    /// ledger of its own ([`crate::network::Network`]).
    pub fn reset_traffic(&self) {}

    /// The cell of `id`, read in place from whichever partition owns it;
    /// charges nothing. `_caller` names the reading machine.
    pub fn load(&self, _caller: MachineId, id: VertexId) -> Option<Cell<'_>> {
        self.partition(self.machine_of(id)).load(id)
    }
}
