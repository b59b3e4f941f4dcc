//! Simulated cluster interconnect: per-machine-pair traffic counters.
//!
//! The paper runs on a real Gigabit / InfiniBand cluster; here the "network"
//! is an accounting layer. A [`Network`] is a ledger: every envelope a
//! [`crate::transport::Transport`] sends and every remote partition a
//! direct-read operator dereferences records a message and its payload size
//! in a per-machine-pair matrix and, off the diagonal, under the [`Phase`]
//! the charge names. The distributed executor gives each query a ledger of
//! its own and adds it to the cloud's aggregate once, when the query retires.
//! Pricing is not the ledger's: the cloud keeps the [`CostModel`].
//!
//! The matrix additionally tallies **direct remote reads**: accesses where a
//! caller dereferenced another machine's partition in place (`Cloud.Load` /
//! `Index.hasLabel` with a remote owner) instead of going through a
//! transport. Message-passing execution must keep this counter at zero — the
//! distributed executor's tests enforce it.

use crate::cloud::{PROBE_BYTES, VERTEX_ID_BYTES};
use crate::ids::MachineId;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

pub use crate::cost::CostModel;

/// The step of a query (§4.3) a charge belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// STwig exploration: remote cell loads, label probes, postings.
    Explore,
    /// Binding synchronization between STwigs.
    Sync,
    /// Load-set shipping for the distributed join (Theorem 4).
    Join,
}

/// Per-machine-pair traffic counters.
///
/// Counters are atomic so that logical machines can run concurrently on a
/// thread pool while sharing one `Network`.
#[derive(Debug)]
pub struct Network {
    machines: usize,
    /// messages[src * machines + dst]
    messages: Vec<AtomicU64>,
    /// bytes[src * machines + dst]
    bytes: Vec<AtomicU64>,
    /// Cross-machine `[messages, bytes]`, indexed by [`Phase`].
    phases: [[AtomicU64; 2]; 3],
    /// Cross-partition accesses that bypassed the transport (see module docs).
    direct_remote_reads: AtomicU64,
}

/// A snapshot of the traffic counters, suitable for reporting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficSnapshot {
    /// Number of logical machines.
    pub machines: usize,
    /// Row-major `machines x machines` message counts.
    pub messages: Vec<u64>,
    /// Row-major `machines x machines` byte counts.
    pub bytes: Vec<u64>,
}

impl TrafficSnapshot {
    /// Total number of cross-machine messages (diagonal excluded).
    pub fn total_messages(&self) -> u64 {
        self.iter_offdiag().map(|(_, _, m, _)| m).sum()
    }

    /// Total number of cross-machine bytes (diagonal excluded).
    pub fn total_bytes(&self) -> u64 {
        self.iter_offdiag().map(|(_, _, _, b)| b).sum()
    }

    /// Messages sent by machine `src` to remote machines.
    pub fn messages_from(&self, src: MachineId) -> u64 {
        (0..self.machines)
            .filter(|&d| d != src.index())
            .map(|d| self.messages[src.index() * self.machines + d])
            .sum()
    }

    /// Bytes sent by machine `src` to remote machines.
    pub fn bytes_from(&self, src: MachineId) -> u64 {
        (0..self.machines)
            .filter(|&d| d != src.index())
            .map(|d| self.bytes[src.index() * self.machines + d])
            .sum()
    }

    fn iter_offdiag(&self) -> impl Iterator<Item = (usize, usize, u64, u64)> + '_ {
        let n = self.machines;
        (0..n).flat_map(move |s| {
            (0..n).filter_map(move |d| {
                if s == d {
                    None
                } else {
                    Some((s, d, self.messages[s * n + d], self.bytes[s * n + d]))
                }
            })
        })
    }
}

impl Network {
    /// Creates a ledger connecting `machines` logical machines.
    pub fn new(machines: usize) -> Self {
        let cells = machines * machines;
        Network {
            machines,
            messages: (0..cells).map(|_| AtomicU64::new(0)).collect(),
            bytes: (0..cells).map(|_| AtomicU64::new(0)).collect(),
            phases: Default::default(),
            direct_remote_reads: AtomicU64::new(0),
        }
    }

    /// Every counter, in one fixed order.
    fn counters(&self) -> impl Iterator<Item = &AtomicU64> {
        (self.messages.iter().chain(&self.bytes))
            .chain(self.phases.iter().flatten())
            .chain([&self.direct_remote_reads])
    }

    /// Records `count` messages totalling `bytes` from `src` to `dst`.
    ///
    /// Messages from a machine to itself are recorded (on the diagonal) but do
    /// not contribute to cross-machine traffic totals or simulated time.
    #[inline]
    pub(crate) fn record(
        &self,
        src: MachineId,
        dst: MachineId,
        count: u64,
        bytes: u64,
        phase: Phase,
    ) {
        let cell = src.index() * self.machines + dst.index();
        self.messages[cell].fetch_add(count, Ordering::Relaxed);
        self.bytes[cell].fetch_add(bytes, Ordering::Relaxed);
        if src != dst {
            let [m, b] = &self.phases[phase as usize];
            m.fetch_add(count, Ordering::Relaxed);
            b.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Charges `caller`'s in-place `Cloud.Load` of a cell `owner` holds: one
    /// direct remote read, a `PROBE_BYTES` request and a reply carrying
    /// `neighbors` ids. Free when `owner` is the caller.
    pub fn charge_load(&self, caller: MachineId, owner: MachineId, neighbors: usize) {
        if owner != caller {
            self.direct_remote_reads.fetch_add(1, Ordering::Relaxed);
            self.record(caller, owner, 1, PROBE_BYTES, Phase::Explore);
            let reply = neighbors as u64 * VERTEX_ID_BYTES;
            self.record(owner, caller, 1, reply, Phase::Explore);
        }
    }

    /// Charges `probes` `Index.hasLabel` probes by `caller` against vertices
    /// owned by `owner`, exactly as that many
    /// [`crate::cloud::MemoryCloud::has_label`] calls would: per probe one
    /// direct remote read, one `PROBE_BYTES` request and one 1-byte reply.
    /// Free when `owner` is the caller.
    pub fn charge_label_probes(&self, caller: MachineId, owner: MachineId, probes: u64) {
        if owner != caller && probes > 0 {
            self.direct_remote_reads
                .fetch_add(probes, Ordering::Relaxed);
            let request = probes * PROBE_BYTES;
            self.record(caller, owner, probes, request, Phase::Explore);
            self.record(owner, caller, probes, probes, Phase::Explore);
        }
    }

    /// Ships `rows` result rows of `width` vertex ids each from machine `src`
    /// to machine `dst` as one message: `DirectRead`'s estimate of a binding
    /// broadcast or a load-set table.
    pub fn ship_rows(&self, src: MachineId, dst: MachineId, rows: u64, width: u64, phase: Phase) {
        if src != dst && rows > 0 {
            self.record(src, dst, 1, rows * width * VERTEX_ID_BYTES, phase);
        }
    }

    /// Cross-machine `(messages, bytes)` charged to `phase`.
    pub fn phase_totals(&self, phase: Phase) -> (u64, u64) {
        let [m, b] = &self.phases[phase as usize];
        (m.load(Ordering::Relaxed), b.load(Ordering::Relaxed))
    }

    /// Adds every counter of `ledger` (over as many machines) to this one:
    /// how a retired query's ledger reaches the cloud's aggregate.
    pub fn absorb(&self, ledger: &Network) {
        for (total, part) in self.counters().zip(ledger.counters()) {
            total.fetch_add(part.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Number of direct remote reads charged since creation or the last
    /// [`Network::reset`].
    pub(crate) fn direct_remote_reads(&self) -> u64 {
        self.direct_remote_reads.load(Ordering::Relaxed)
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.counters().for_each(|c| c.store(0, Ordering::Relaxed));
    }

    /// Takes a snapshot of the matrix.
    pub fn snapshot(&self) -> TrafficSnapshot {
        let load = |cells: &[AtomicU64]| cells.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        TrafficSnapshot {
            machines: self.machines,
            messages: load(&self.messages),
            bytes: load(&self.bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(x: u16) -> MachineId {
        MachineId(x)
    }

    #[test]
    fn record_and_snapshot() {
        let net = Network::new(3);
        net.record(m(0), m(1), 1, 100, Phase::Explore);
        net.record(m(0), m(1), 1, 50, Phase::Explore);
        net.record(m(1), m(2), 1, 10, Phase::Sync);
        net.record(m(2), m(2), 1, 999, Phase::Join); // local, excluded from totals
        let snap = net.snapshot();
        assert_eq!(snap.total_messages(), 3);
        assert_eq!(snap.total_bytes(), 160);
        assert_eq!(snap.messages_from(m(0)), 2);
        assert_eq!(snap.bytes_from(m(0)), 150);
        assert_eq!(snap.messages_from(m(2)), 0);
    }

    #[test]
    fn bulk_record() {
        let net = Network::new(2);
        net.record(m(0), m(1), 10, 1000, Phase::Join);
        let snap = net.snapshot();
        assert_eq!(snap.total_messages(), 10);
        assert_eq!(snap.total_bytes(), 1000);
    }

    #[test]
    fn phases_partition_the_cross_machine_totals() {
        let net = Network::new(3);
        net.record(m(0), m(1), 1, 100, Phase::Explore);
        net.charge_label_probes(m(0), m(2), 3);
        net.charge_load(m(1), m(0), 4);
        net.charge_load(m(1), m(1), 4); // local: free
        net.ship_rows(m(1), m(2), 5, 2, Phase::Sync);
        net.ship_rows(m(2), m(0), 7, 3, Phase::Join);
        net.ship_rows(m(2), m(2), 7, 3, Phase::Join); // local: free
        net.record(m(2), m(2), 1, 999, Phase::Join);
        let explore = (1 + 6 + 2, 100 + 3 * (PROBE_BYTES + 1) + PROBE_BYTES + 4 * 8);
        assert_eq!(net.phase_totals(Phase::Explore), explore);
        assert_eq!(net.phase_totals(Phase::Sync), (1, 5 * 2 * 8));
        assert_eq!(net.phase_totals(Phase::Join), (1, 7 * 3 * 8));
        let snap = net.snapshot();
        assert_eq!(snap.total_messages(), explore.0 + 2);
        assert_eq!(snap.total_bytes(), explore.1 + 80 + 168);
        assert_eq!(net.direct_remote_reads(), 3 + 1);
    }

    #[test]
    fn absorb_adds_every_counter() {
        let (total, ledger) = (Network::new(2), Network::new(2));
        total.record(m(1), m(0), 1, 7, Phase::Sync);
        ledger.record(m(0), m(1), 1, 10, Phase::Join);
        ledger.charge_label_probes(m(1), m(0), 2);
        total.absorb(&ledger);
        total.absorb(&ledger);
        let snap = total.snapshot();
        assert_eq!(snap.total_messages(), 1 + 2 * 5);
        assert_eq!(snap.messages_from(m(0)), 2 * 3);
        assert_eq!(total.phase_totals(Phase::Join), (2, 20));
        assert_eq!(total.phase_totals(Phase::Sync), (1, 7));
        assert_eq!(total.direct_remote_reads(), 4);
        // The ledger itself is left as it was.
        assert_eq!(ledger.snapshot().total_messages(), 5);
    }

    #[test]
    fn reset_clears_counters() {
        let net = Network::new(2);
        net.record(m(0), m(1), 1, 10, Phase::Explore);
        net.charge_load(m(1), m(0), 2);
        net.reset();
        assert_eq!(net.snapshot().total_messages(), 0);
        assert_eq!(net.phase_totals(Phase::Explore), (0, 0));
        assert_eq!(net.direct_remote_reads(), 0);
    }

    #[test]
    fn direct_remote_reads_tally() {
        let net = Network::new(2);
        assert_eq!(net.direct_remote_reads(), 0);
        net.charge_load(m(0), m(1), 3);
        net.charge_load(m(0), m(0), 3); // local: no remote read
        assert_eq!(net.direct_remote_reads(), 1);
        net.charge_label_probes(m(1), m(0), 5);
        net.charge_label_probes(m(1), m(0), 0);
        assert_eq!(net.direct_remote_reads(), 6);
        // One message each way per access.
        assert_eq!(net.snapshot().total_messages(), 2 + 10);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        use std::sync::Arc;
        let net = Arc::new(Network::new(2));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let net = Arc::clone(&net);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        net.record(m(0), m(1), 1, 8, Phase::Explore);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(net.snapshot().total_messages(), 4000);
        assert_eq!(net.snapshot().total_bytes(), 32000);
        assert_eq!(net.phase_totals(Phase::Explore), (4000, 32000));
    }
}
