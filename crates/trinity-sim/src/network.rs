//! Simulated cluster interconnect: per-machine-pair traffic counters.
//!
//! The paper runs on a real Gigabit / InfiniBand cluster; here the "network"
//! is an accounting layer: every cross-machine access performed through the
//! [`crate::cloud::MemoryCloud`] — and every envelope sent over a
//! [`crate::transport::Transport`] — records a message (and its payload size)
//! in a per-machine-pair counter matrix. The [`CostModel`] (see
//! [`crate::cost`]) converts these counters into simulated communication
//! time, which the distributed executor combines with per-machine compute
//! time to produce the simulated-wall-clock numbers reported by the speed-up
//! experiments.
//!
//! The matrix additionally tallies **direct remote reads**: accesses where a
//! caller dereferenced another machine's partition in place (`Cloud.Load` /
//! `Index.hasLabel` with a remote owner) instead of going through a
//! transport. Message-passing execution must keep this counter at zero — the
//! distributed executor's tests enforce it.

use crate::ids::MachineId;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

pub use crate::cost::CostModel;

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
    /// Cross-partition accesses that bypassed the transport (see module docs).
    direct_remote_reads: AtomicU64,
    cost: CostModel,
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
    /// Creates a network connecting `machines` logical machines with the given
    /// cost model.
    pub fn new(machines: usize, cost: CostModel) -> Self {
        let cells = machines * machines;
        Network {
            machines,
            messages: (0..cells).map(|_| AtomicU64::new(0)).collect(),
            bytes: (0..cells).map(|_| AtomicU64::new(0)).collect(),
            direct_remote_reads: AtomicU64::new(0),
            cost,
        }
    }

    /// Number of logical machines.
    pub fn num_machines(&self) -> usize {
        self.machines
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    #[inline]
    fn cell(&self, src: MachineId, dst: MachineId) -> usize {
        src.index() * self.machines + dst.index()
    }

    /// Records one message of `payload_bytes` from `src` to `dst`.
    ///
    /// Messages from a machine to itself are recorded (on the diagonal) but do
    /// not contribute to cross-machine traffic totals or simulated time.
    #[inline]
    pub fn record(&self, src: MachineId, dst: MachineId, payload_bytes: u64) {
        let cell = self.cell(src, dst);
        self.messages[cell].fetch_add(1, Ordering::Relaxed);
        self.bytes[cell].fetch_add(payload_bytes, Ordering::Relaxed);
    }

    /// Records `count` messages totalling `payload_bytes` from `src` to `dst`.
    #[inline]
    pub fn record_bulk(&self, src: MachineId, dst: MachineId, count: u64, payload_bytes: u64) {
        let cell = self.cell(src, dst);
        self.messages[cell].fetch_add(count, Ordering::Relaxed);
        self.bytes[cell].fetch_add(payload_bytes, Ordering::Relaxed);
    }

    /// Tallies `count` accesses that dereferenced a remote partition in place
    /// (without a transport round-trip): one per remote `load`, an
    /// exploration's label probes in bulk. Called by the cloud's
    /// `DirectRead`-style operators; message-passing execution must never
    /// trigger it.
    #[inline]
    pub fn record_direct_remote_reads(&self, count: u64) {
        self.direct_remote_reads.fetch_add(count, Ordering::Relaxed);
    }

    /// Number of direct remote reads since the last [`Network::reset`].
    pub fn direct_remote_reads(&self) -> u64 {
        self.direct_remote_reads.load(Ordering::Relaxed)
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        for c in &self.messages {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.bytes {
            c.store(0, Ordering::Relaxed);
        }
        self.direct_remote_reads.store(0, Ordering::Relaxed);
    }

    /// Takes a snapshot of all counters.
    pub fn snapshot(&self) -> TrafficSnapshot {
        TrafficSnapshot {
            machines: self.machines,
            messages: self
                .messages
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            bytes: self
                .bytes
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Total simulated communication time across the cluster in microseconds.
    pub fn simulated_total_time_us(&self) -> f64 {
        let snap = self.snapshot();
        self.cost.time_us(snap.total_messages(), snap.total_bytes())
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
        let net = Network::new(3, CostModel::default());
        net.record(m(0), m(1), 100);
        net.record(m(0), m(1), 50);
        net.record(m(1), m(2), 10);
        net.record(m(2), m(2), 999); // local, excluded from totals
        let snap = net.snapshot();
        assert_eq!(snap.total_messages(), 3);
        assert_eq!(snap.total_bytes(), 160);
        assert_eq!(snap.messages_from(m(0)), 2);
        assert_eq!(snap.bytes_from(m(0)), 150);
        assert_eq!(snap.messages_from(m(2)), 0);
    }

    #[test]
    fn bulk_record() {
        let net = Network::new(2, CostModel::default());
        net.record_bulk(m(0), m(1), 10, 1000);
        let snap = net.snapshot();
        assert_eq!(snap.total_messages(), 10);
        assert_eq!(snap.total_bytes(), 1000);
    }

    #[test]
    fn reset_clears_counters() {
        let net = Network::new(2, CostModel::default());
        net.record(m(0), m(1), 10);
        net.record_direct_remote_reads(1);
        net.reset();
        assert_eq!(net.snapshot().total_messages(), 0);
        assert_eq!(net.direct_remote_reads(), 0);
    }

    #[test]
    fn direct_remote_reads_tally() {
        let net = Network::new(2, CostModel::default());
        assert_eq!(net.direct_remote_reads(), 0);
        net.record_direct_remote_reads(1);
        net.record_direct_remote_reads(1);
        assert_eq!(net.direct_remote_reads(), 2);
        net.record_direct_remote_reads(5);
        assert_eq!(net.direct_remote_reads(), 7);
        // The tally is separate from the message matrix.
        assert_eq!(net.snapshot().total_messages(), 0);
    }

    #[test]
    fn simulated_times_scale_with_traffic() {
        let net = Network::new(2, CostModel::default());
        net.record_bulk(m(0), m(1), 100, 10_000_000);
        let t1 = net.simulated_total_time_us();
        net.record_bulk(m(0), m(1), 100, 10_000_000);
        let t2 = net.simulated_total_time_us();
        assert!(t2 > t1);
        // All of it is charged to the sender.
        let (snap, cost) = (net.snapshot(), net.cost_model());
        assert_eq!(
            cost.time_us(snap.messages_from(m(0)), snap.bytes_from(m(0))),
            t2
        );
        assert_eq!(
            cost.time_us(snap.messages_from(m(1)), snap.bytes_from(m(1))),
            0.0
        );
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        use std::sync::Arc;
        let net = Arc::new(Network::new(2, CostModel::default()));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let net = Arc::clone(&net);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        net.record(m(0), m(1), 8);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(net.snapshot().total_messages(), 4000);
        assert_eq!(net.snapshot().total_bytes(), 32000);
    }
}
