//! Request coalescing and micro-batching.
//!
//! Admitted requests are grouped by *batch key* — the `(method, heads,
//! seq_len, embed)` shape of the attention they ask for. Requests sharing a
//! key within a batching window are merged into one device launch whose
//! workload has the summed batch dimension: identical requests coalesce
//! outright, and compatible shapes micro-batch (the `(batch, head)` slices
//! of the merged workload are independent, so the dataflows execute them in
//! one schedule). A batch is dispatched when it fills
//! ([`BatchPolicy::max_batch`] member requests) or when its window
//! ([`BatchPolicy::window_s`] seconds after its first member's arrival)
//! expires, whichever comes first.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use mas_dataflow::AttentionWorkload;
use mas_sim::HardwareConfig;

pub use crate::key::BatchKey;
use crate::queue::{AdmissionPolicy, BacklogEstimator, RejectReason};
use crate::request::ServeRequest;

/// Micro-batching configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchPolicy {
    /// Maximum number of member requests per batch; a batch dispatches as
    /// soon as it reaches this size.
    pub max_batch: usize,
    /// Batching window in seconds: a batch dispatches at
    /// `first_arrival + window_s` at the latest. `0.0` disables coalescing
    /// (every request is its own batch).
    pub window_s: f64,
}

impl BatchPolicy {
    /// How full a launch of `members` requests is relative to `max_batch`,
    /// in `[0, 1]` (clamped above; `max_batch == 0` yields `0.0`). The
    /// batch-fill gauge telemetry and reports express launch efficiency in
    /// this unit.
    #[must_use]
    pub fn fill_fraction(&self, members: usize) -> f64 {
        if self.max_batch == 0 {
            return 0.0;
        }
        (members as f64 / self.max_batch as f64).min(1.0)
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 8,
            window_s: 2e-3,
        }
    }
}

/// One dispatched micro-batch.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Batch {
    /// Creation-order id (deterministic for a given request stream).
    pub id: u64,
    /// The coalescing key shared by every member.
    pub key: BatchKey,
    /// Virtual time at which the batch became ready to launch: the arrival
    /// of the member that filled it, or the end of its batching window.
    pub ready_s: f64,
    /// Member requests in arrival order.
    pub requests: Vec<ServeRequest>,
}

impl Batch {
    /// Total batch dimension of the merged workload (sum of member batches).
    #[must_use]
    pub fn total_batch(&self) -> usize {
        self.requests.iter().map(|r| r.workload.batch).sum()
    }

    /// The merged workload this batch launches as one schedule.
    #[must_use]
    pub fn merged_workload(&self) -> AttentionWorkload {
        self.key
            .merged_workload(self.requests.len(), self.total_batch())
    }
}

/// Result of the admission + batching pass over one request stream.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CoalesceOutcome {
    /// Dispatched batches, sorted by `(ready_s, id)` — device launch order.
    pub batches: Vec<Batch>,
    /// Rejected requests with their reasons, in arrival order.
    pub rejected: Vec<(ServeRequest, RejectReason)>,
}

struct OpenBatch {
    id: u64,
    first_arrival_s: f64,
    requests: Vec<ServeRequest>,
}

/// Screens a request stream through admission control and groups the
/// admitted requests into micro-batches.
///
/// `devices` is the number of virtual devices batches will replay across
/// (used to estimate the launch-queue delay that backs
/// [`AdmissionPolicy::max_est_queue_s`]). Requests are processed in
/// `(arrival_s, id)` order regardless of input order; the result is a pure
/// function of the inputs.
#[must_use]
pub fn coalesce(
    requests: &[ServeRequest],
    policy: BatchPolicy,
    admission: &AdmissionPolicy,
    hw: &HardwareConfig,
    devices: usize,
) -> CoalesceOutcome {
    let mut stream: Vec<&ServeRequest> = requests.iter().collect();
    stream.sort_by(|a, b| {
        a.arrival_s
            .partial_cmp(&b.arrival_s)
            .expect("arrival times are finite")
            .then(a.id.cmp(&b.id))
    });

    let max_batch = policy.max_batch.max(1);
    let mut open: HashMap<BatchKey, OpenBatch> = HashMap::new();
    let mut closed: Vec<Batch> = Vec::new();
    let mut rejected: Vec<(ServeRequest, RejectReason)> = Vec::new();
    let mut next_id: u64 = 0;
    let mut backlog_est = BacklogEstimator::new(devices);

    let dispatch = |batch: Batch, closed: &mut Vec<Batch>, backlog_est: &mut BacklogEstimator| {
        backlog_est.feed(
            batch.ready_s,
            crate::queue::service_time_lower_bound_s(&batch.merged_workload(), hw),
        );
        closed.push(batch);
    };

    for &request in &stream {
        let now_s = request.arrival_s;

        // Dispatch every open batch whose window ended at or before `now`,
        // in creation (= window-expiry) order: map discovery order is
        // arbitrary, but the backlog estimator consumes dispatches, so the
        // order must be deterministic. Launch order is additionally fixed by
        // the final `(ready_s, id)` sort.
        let mut expired: Vec<(u64, BatchKey)> = open
            .iter()
            .filter(|(_, b)| now_s >= b.first_arrival_s + policy.window_s)
            .map(|(k, b)| (b.id, *k))
            .collect();
        expired.sort_unstable_by_key(|(id, _)| *id);
        for (_, key) in expired {
            let b = open.remove(&key).expect("key collected from the map");
            dispatch(
                Batch {
                    id: b.id,
                    key,
                    ready_s: b.first_arrival_s + policy.window_s,
                    requests: b.requests,
                },
                &mut closed,
                &mut backlog_est,
            );
        }

        // Admission against the post-expiry backlog: open members plus the
        // estimated delay of the already-dispatched launch queue.
        let backlog: usize = open.values().map(|b| b.requests.len()).sum();
        if let Err(reason) = admission.admit(
            request.method,
            &request.workload,
            request.deadline_s,
            backlog,
            backlog_est.queue_delay_s(now_s),
            hw,
        ) {
            rejected.push((request.clone(), reason));
            continue;
        }

        // Join (or open) the batch for this key. If the merged workload
        // would outgrow the device (operands over DRAM, or even the naive
        // tiling over L1), dispatch the current batch first — per-request
        // feasibility is preserved under merging.
        let key = BatchKey::of(request);
        if let Some(b) = open.get(&key) {
            let prospective = AttentionWorkload::new(
                "prospective",
                b.requests.iter().map(|r| r.workload.batch).sum::<usize>() + request.workload.batch,
                key.heads,
                key.seq_len,
                key.embed,
            );
            if !crate::queue::workload_is_feasible(key.method, &prospective, hw) {
                let b = open.remove(&key).expect("present");
                dispatch(
                    Batch {
                        id: b.id,
                        key,
                        ready_s: now_s,
                        requests: b.requests,
                    },
                    &mut closed,
                    &mut backlog_est,
                );
            }
        }
        let batch = open.entry(key).or_insert_with(|| {
            let b = OpenBatch {
                id: next_id,
                first_arrival_s: now_s,
                requests: Vec::new(),
            };
            next_id += 1;
            b
        });
        batch.requests.push(request.clone());
        if batch.requests.len() >= max_batch {
            let b = open.remove(&key).expect("just inserted");
            dispatch(
                Batch {
                    id: b.id,
                    key,
                    ready_s: now_s,
                    requests: b.requests,
                },
                &mut closed,
                &mut backlog_est,
            );
        }
    }

    // Dispatch the stragglers at their window ends.
    for (key, b) in open.drain() {
        closed.push(Batch {
            id: b.id,
            key,
            ready_s: b.first_arrival_s + policy.window_s,
            requests: b.requests,
        });
    }

    closed.sort_by(|a, b| {
        a.ready_s
            .partial_cmp(&b.ready_s)
            .expect("ready times are finite")
            .then(a.id.cmp(&b.id))
    });
    CoalesceOutcome {
        batches: closed,
        rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mas_dataflow::DataflowKind;

    #[test]
    fn fill_fraction_is_clamped_and_zero_safe() {
        let p = BatchPolicy {
            max_batch: 8,
            window_s: 0.0,
        };
        assert_eq!(p.fill_fraction(0), 0.0);
        assert_eq!(p.fill_fraction(2), 0.25);
        assert_eq!(p.fill_fraction(8), 1.0);
        assert_eq!(p.fill_fraction(20), 1.0, "overfull launches clamp to 1");
        let degenerate = BatchPolicy {
            max_batch: 0,
            window_s: 0.0,
        };
        assert_eq!(degenerate.fill_fraction(3), 0.0);
    }

    fn hw() -> HardwareConfig {
        HardwareConfig::edge_default()
    }

    fn req(id: u64, arrival_s: f64, heads: usize, seq: usize) -> ServeRequest {
        ServeRequest::new(
            id,
            arrival_s,
            DataflowKind::MasAttention,
            AttentionWorkload::new(format!("r{id}"), 1, heads, seq, 64),
            None,
        )
    }

    fn policy(max_batch: usize, window_s: f64) -> BatchPolicy {
        BatchPolicy {
            max_batch,
            window_s,
        }
    }

    #[test]
    fn identical_shapes_coalesce_within_the_window() {
        let reqs = vec![
            req(0, 0.0, 8, 256),
            req(1, 0.0005, 8, 256),
            req(2, 0.001, 8, 256),
        ];
        let out = coalesce(
            &reqs,
            policy(8, 0.002),
            &AdmissionPolicy::admit_all(),
            &hw(),
            1,
        );
        assert_eq!(out.batches.len(), 1);
        assert_eq!(out.batches[0].requests.len(), 3);
        assert_eq!(out.batches[0].total_batch(), 3);
        let merged = out.batches[0].merged_workload();
        assert_eq!((merged.batch, merged.heads, merged.seq_len), (3, 8, 256));
        assert!(out.rejected.is_empty());
    }

    #[test]
    fn different_shapes_never_merge() {
        let reqs = vec![
            req(0, 0.0, 8, 256),
            req(1, 0.0, 12, 256),
            req(2, 0.0, 8, 512),
        ];
        let out = coalesce(
            &reqs,
            policy(8, 0.01),
            &AdmissionPolicy::admit_all(),
            &hw(),
            1,
        );
        assert_eq!(out.batches.len(), 3);
        assert!(out.batches.iter().all(|b| b.requests.len() == 1));
    }

    #[test]
    fn a_full_batch_dispatches_at_the_filling_arrival() {
        let reqs: Vec<ServeRequest> = (0..5).map(|i| req(i, i as f64 * 1e-4, 8, 256)).collect();
        let out = coalesce(
            &reqs,
            policy(4, 1.0),
            &AdmissionPolicy::admit_all(),
            &hw(),
            1,
        );
        assert_eq!(out.batches.len(), 2);
        // First four fill a batch at the fourth arrival.
        assert_eq!(out.batches[0].requests.len(), 4);
        assert!((out.batches[0].ready_s - 3e-4).abs() < 1e-12);
        // The fifth waits out its own window.
        assert_eq!(out.batches[1].requests.len(), 1);
        assert!((out.batches[1].ready_s - (4e-4 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn window_expiry_dispatches_before_a_late_arrival_joins() {
        let reqs = vec![req(0, 0.0, 8, 256), req(1, 0.5, 8, 256)];
        let out = coalesce(
            &reqs,
            policy(8, 0.001),
            &AdmissionPolicy::admit_all(),
            &hw(),
            1,
        );
        assert_eq!(out.batches.len(), 2, "the late request starts a new batch");
        assert!((out.batches[0].ready_s - 0.001).abs() < 1e-12);
    }

    #[test]
    fn zero_window_disables_coalescing() {
        let reqs = vec![req(0, 0.0, 8, 256), req(1, 0.0, 8, 256)];
        let out = coalesce(
            &reqs,
            policy(8, 0.0),
            &AdmissionPolicy::admit_all(),
            &hw(),
            1,
        );
        assert_eq!(out.batches.len(), 2);
    }

    #[test]
    fn queue_full_rejections_surface_in_order() {
        let admission = AdmissionPolicy {
            max_queue_depth: Some(2),
            ..AdmissionPolicy::default()
        };
        // Three simultaneous arrivals, depth 2: the third is shed.
        let reqs = vec![
            req(0, 0.0, 8, 256),
            req(1, 0.0, 8, 256),
            req(2, 0.0, 8, 256),
        ];
        let out = coalesce(&reqs, policy(8, 1.0), &admission, &hw(), 1);
        assert_eq!(
            out.batches.iter().map(|b| b.requests.len()).sum::<usize>(),
            2
        );
        assert_eq!(out.rejected.len(), 1);
        assert_eq!(out.rejected[0].0.id, 2);
        assert_eq!(out.rejected[0].1, RejectReason::QueueFull);
    }

    #[test]
    fn merging_never_outgrows_the_device() {
        // Each request alone fits DRAM (~0.94 GB of operands), but eight
        // merged copies (~7.5 GB) would not: the batcher must split instead
        // of building an infeasible launch.
        let hw = hw();
        let big = AttentionWorkload::new("big", 1, 32, 28672, 128);
        assert!(crate::queue::workload_is_feasible(
            DataflowKind::MasAttention,
            &big,
            &hw
        ));
        let reqs: Vec<ServeRequest> = (0..8)
            .map(|i| ServeRequest::new(i, 0.0, DataflowKind::MasAttention, big.clone(), None))
            .collect();
        let out = coalesce(&reqs, policy(8, 1.0), &AdmissionPolicy::admit_all(), &hw, 1);
        assert!(
            out.batches.len() > 1,
            "an infeasible 8-way merge must split into several batches"
        );
        assert_eq!(
            out.batches.iter().map(|b| b.requests.len()).sum::<usize>(),
            8,
            "splitting must not drop requests"
        );
        for b in &out.batches {
            assert!(
                crate::queue::workload_is_feasible(
                    DataflowKind::MasAttention,
                    &b.merged_workload(),
                    &hw
                ),
                "every dispatched batch must fit the device"
            );
        }
    }

    #[test]
    fn coalesce_is_input_order_independent() {
        let mut reqs = vec![
            req(0, 0.0, 8, 256),
            req(1, 0.01, 12, 256),
            req(2, 0.02, 8, 256),
        ];
        let a = coalesce(
            &reqs,
            policy(8, 0.05),
            &AdmissionPolicy::admit_all(),
            &hw(),
            1,
        );
        reqs.reverse();
        let b = coalesce(
            &reqs,
            policy(8, 0.05),
            &AdmissionPolicy::admit_all(),
            &hw(),
            1,
        );
        assert_eq!(a, b);
    }
}
