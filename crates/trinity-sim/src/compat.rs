//! What only the frozen repo benchmark (`benchmark/`) still names, kept so
//! its `prelude` imports keep resolving: a storage-tier type with one
//! representation, the setters that accept it and store nothing, and a
//! reset of the cloud's traffic aggregate. The next `[benchmark]` PR
//! deletes this file.

use crate::builder::GraphBuilder;
use crate::cloud::MemoryCloud;
use crate::loader::StreamLoader;

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
    /// Zeroes the traffic aggregate ([`crate::network::Network::reset`]).
    /// Queries never do: each charges a ledger of its own and adds it here
    /// when it retires.
    pub fn reset_traffic(&self) {
        self.network().reset();
    }
}
