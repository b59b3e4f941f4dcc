//! Admission control: bounded queueing with backpressure, and a learned
//! cost model that rejects queries which cannot meet their deadline.
//!
//! An open-loop stream offered faster than the engine can serve must be
//! refused *at the door* — once the queue is deep enough that a query's
//! predicted wait exceeds its deadline, executing it only widens everyone
//! else's tail. Admission therefore makes two checks in O(query) time,
//! before any exploration work or transport envelope is spent:
//!
//! 1. **Backpressure**: the total queue depth is bounded
//!    ([`AdmissionConfig::queue_capacity`]); a submit over the bound is
//!    [`crate::serve::RejectReason::QueueFull`].
//! 2. **Deadline feasibility**: per-query work is estimated from label
//!    frequencies (the same statistics the join-order estimator samples —
//!    see `CostEstimator`) and converted to predicted µs by an EWMA over
//!    *observed* (work → wall-clock) ratios of completed queries. The
//!    predicted wait is the queued work's price divided by the threads
//!    serving the queue at that moment (inside
//!    [`crate::engine::QueryEngine::serve`] or
//!    [`crate::engine::QueryEngine::drain`]; at least one). If predicted
//!    wait + service exceeds the request's deadline, the submit is
//!    [`crate::serve::RejectReason::EstimatedTooLate`]. The estimator
//!    admits optimistically until it has seen enough completions to
//!    calibrate.
//!
//! The same estimate prices queries for the deficit-round-robin scheduler
//! (a heavy query debits more of its tenant's quantum) and backs the
//! dispatch-time shed check. The estimator is a field of the scheduler's
//! book, read and taught under its lock.

use crate::query::QueryGraph;
use serde::{Deserialize, Serialize};
use trinity_sim::MemoryCloud;

/// Completed queries the estimator must observe before its predictions are
/// trusted for rejection/shedding decisions.
const CALIBRATION_SAMPLES: u64 = 8;

/// Smoothing factor of the µs-per-work-unit EWMA.
const EWMA_ALPHA: f64 = 0.2;

/// Configuration of the admission controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Maximum queries queued across all tenants; a submit beyond this is
    /// rejected with [`crate::serve::RejectReason::QueueFull`].
    pub queue_capacity: usize,
    /// Whether to reject deadline-carrying queries whose predicted
    /// wait + service time exceeds the deadline. Disable to shed only at
    /// dispatch.
    pub reject_estimated_late: bool,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: 1024,
            reject_estimated_late: true,
        }
    }
}

impl AdmissionConfig {
    /// Sets the queue capacity (floored at 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Enables or disables estimated-too-late rejection.
    pub fn with_reject_estimated_late(mut self, on: bool) -> Self {
        self.reject_estimated_late = on;
        self
    }
}

/// Prices a query in abstract *work units* before execution, and learns the
/// wall-clock value of a unit from completed queries.
///
/// The unit price of a query is Σ over its vertices of
/// `label_frequency × (1 + degree)` — the count of candidate roots the
/// exploration phase must consider per STwig, weighted by how many children
/// each root fans out to. It deliberately reuses the label-frequency
/// statistics behind `decompose`'s f-value ranking and the join-order
/// estimator's sampling, so admission prices and execution costs move
/// together; it is O(query vertices) and touches no partition data.
/// A new estimator is uncalibrated: it admits everything.
#[derive(Debug, Default)]
pub(crate) struct CostEstimator {
    /// EWMA of observed µs per work unit.
    us_per_unit: f64,
    /// Completions observed so far.
    pub(crate) samples: u64,
}

impl CostEstimator {
    /// The work-unit price of `query` on `cloud`.
    pub(crate) fn units(cloud: &MemoryCloud, query: &QueryGraph) -> f64 {
        let mut units = 0.0;
        for v in query.vertices() {
            let freq = cloud.label_frequency(query.label(v)) as f64;
            units += freq * (1.0 + query.degree(v) as f64);
        }
        units.max(1.0)
    }

    /// Records an observed execution: `units` of estimated work took
    /// `wall_us` µs. Call only for runs that went to completion —
    /// interrupted queries under-report their true cost.
    pub(crate) fn observe(&mut self, units: f64, wall_us: f64) {
        // NaN-safe guard: refuse non-positive units and negative durations.
        if units.is_nan() || units <= 0.0 || wall_us.is_nan() || wall_us < 0.0 {
            return;
        }
        let ratio = wall_us / units;
        if self.samples == 0 {
            self.us_per_unit = ratio;
        } else {
            self.us_per_unit += EWMA_ALPHA * (ratio - self.us_per_unit);
        }
        self.samples += 1;
    }

    /// Predicted service time for `units` of work, in µs. `None` until the
    /// estimator has observed `CALIBRATION_SAMPLES` completions — an
    /// uncalibrated estimator must not reject anything.
    pub(crate) fn estimate_us(&self, units: f64) -> Option<f64> {
        (self.samples >= CALIBRATION_SAMPLES).then_some(units * self.us_per_unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinity_sim::builder::GraphBuilder;
    use trinity_sim::ids::VertexId;
    use trinity_sim::network::CostModel;

    fn small_cloud() -> MemoryCloud {
        let mut gb = GraphBuilder::default();
        for i in 0..8u64 {
            gb.add_vertex(VertexId(i), "a");
        }
        gb.add_vertex(VertexId(8), "b");
        for i in 0..8u64 {
            gb.add_edge(VertexId(i), VertexId(8));
        }
        gb.build(2, CostModel::default())
    }

    fn query(cloud: &MemoryCloud, labels: &[&str]) -> QueryGraph {
        let mut qb = QueryGraph::builder();
        let vs: Vec<_> = labels
            .iter()
            .map(|l| qb.vertex_by_name(cloud, l).unwrap())
            .collect();
        for w in vs.windows(2) {
            qb.edge(w[0], w[1]);
        }
        qb.build().unwrap()
    }

    #[test]
    fn units_grow_with_label_frequency() {
        let cloud = small_cloud();
        let frequent = query(&cloud, &["a", "b"]);
        let rare = query(&cloud, &["b", "b"]);
        assert!(
            CostEstimator::units(&cloud, &frequent) > CostEstimator::units(&cloud, &rare),
            "a-rooted query must be priced above the b-only query"
        );
    }

    #[test]
    fn units_price_partition_local_labels_by_global_frequency() {
        // "c" lives on exactly one machine (vertex 9 lands in one partition
        // of the 2-machine split); "z" exists in the label space but has no
        // vertices at all. Pricing must use the *global* frequency — a
        // partition-local label counts once, not zero and not once per
        // machine — and an empty-posting label must contribute exactly zero
        // units, so it cannot skew the µs-per-unit EWMA through systematic
        // over-pricing.
        let mut gb = GraphBuilder::default();
        for i in 0..8u64 {
            gb.add_vertex(VertexId(i), "a");
        }
        gb.add_vertex(VertexId(8), "b");
        gb.add_vertex(VertexId(9), "c");
        for i in 0..8u64 {
            gb.add_edge(VertexId(i), VertexId(8));
        }
        gb.add_edge(VertexId(9), VertexId(8));
        let cloud = gb.build(2, CostModel::default());
        let c = cloud.labels().get("c").unwrap();
        let on_one_machine = cloud
            .machines()
            .filter(|&m| {
                cloud
                    .all_ids_with_label(c)
                    .iter()
                    .any(|&id| cloud.machine_of(id) == m)
            })
            .count();
        assert_eq!(on_one_machine, 1, "fixture: c must be partition-local");

        // c-b path: both degree 1, so units = freq(c)*2 + freq(b)*2 = 2 + 2.
        let local = query(&cloud, &["c", "b"]);
        assert_eq!(CostEstimator::units(&cloud, &local), 4.0);

        // A query vertex whose label has an empty posting everywhere: same
        // shape, but the absent label adds zero units.
        let mut qb = QueryGraph::builder();
        let b = qb.vertex_by_name(&cloud, "b").unwrap();
        let z = qb.vertex(trinity_sim::ids::LabelId(1_000)); // no such data label
        qb.edge(z, b);
        let absent = qb.build().unwrap();
        assert_eq!(
            CostEstimator::units(&cloud, &absent),
            2.0,
            "empty-posting label must contribute zero units"
        );
    }

    #[test]
    fn estimator_calibrates_after_enough_samples() {
        let mut est = CostEstimator::default();
        assert_eq!(est.estimate_us(100.0), None, "uncalibrated estimator");
        for _ in 0..CALIBRATION_SAMPLES {
            est.observe(10.0, 50.0); // 5 µs per unit
        }
        let predicted = est.estimate_us(100.0).expect("calibrated");
        assert!(
            (predicted - 500.0).abs() < 1e-6,
            "steady ratio must predict exactly: {predicted}"
        );
        assert_eq!(est.samples, CALIBRATION_SAMPLES);
    }

    #[test]
    fn estimator_tracks_a_ratio_shift() {
        let mut est = CostEstimator::default();
        for _ in 0..20 {
            est.observe(1.0, 10.0);
        }
        for _ in 0..60 {
            est.observe(1.0, 100.0);
        }
        let predicted = est.estimate_us(1.0).unwrap();
        assert!(
            predicted > 90.0,
            "EWMA must converge towards the new ratio, got {predicted}"
        );
    }

    #[test]
    fn degenerate_observations_are_ignored() {
        let mut est = CostEstimator::default();
        est.observe(0.0, 100.0);
        est.observe(-1.0, 100.0);
        est.observe(1.0, f64::NAN);
        assert_eq!(est.samples, 0);
    }

    #[test]
    fn admission_config_builders_floor_inputs() {
        let c = AdmissionConfig::default()
            .with_queue_capacity(0)
            .with_reject_estimated_late(false);
        assert_eq!(c.queue_capacity, 1);
        assert!(!c.reject_estimated_late);
    }
}
