//! # mas-serve
//!
//! A streaming attention-serving runtime on top of the MAS-Attention
//! reproduction: the paper's memory-aware stream processing overlaps tile
//! compute with DMA inside one kernel; this crate sustains a *request
//! stream* across kernels, turning the one-shot `Planner::run` pipeline
//! into a serving system with admission control, micro-batching and a
//! shared, persistable schedule cache.
//!
//! ## Request lifecycle
//!
//! ```text
//!        ┌────────┐   ┌─────────┐   ┌──────────────┐   ┌──────────┐   ┌────────┐
//! req ──▶│ admit  │──▶│  batch  │──▶│ plan / cache │──▶│ simulate │──▶│ report │
//!        └────────┘   └─────────┘   └──────────────┘   └──────────┘   └────────┘
//!         shed load    coalesce +     tune once,         device         per-request
//!         (queue.rs)   micro-batch    replay forever     timeline       latency/energy/
//!                      (batcher.rs)   (cache.rs)         (engine.rs)    deadline (metrics.rs)
//! ```
//!
//! 1. **Admit** ([`queue`]) — each arrival is screened: infeasible
//!    workloads (operands over DRAM, no valid tiling) and deadlines below
//!    the device's physical service-time lower bound are rejected up front;
//!    load is shed at a batcher depth bound and — the bound that engages
//!    under sustained overload — at an estimated launch-queue delay bound.
//! 2. **Batch** ([`batcher`]) — admitted requests coalesce by `(method,
//!    heads, seq_len, embed)` key: identical requests merge outright and
//!    compatible shapes micro-batch into one merged workload (summed batch
//!    dimension), dispatched when full, when the batching window expires,
//!    or when growing further would outrun the device's memory (per-request
//!    feasibility is preserved under merging).
//! 3. **Plan / cache** ([`cache`]) — each batch key is looked up in the
//!    shared [`ScheduleCache`]; misses run the planner (heuristic tiling or
//!    MCTS + GA search) plus one simulation and are memoized. Distinct
//!    misses plan concurrently on the persistent worker pool. Caches
//!    serialize to a versioned text format and merge commutatively and
//!    associatively, so sharded tuning sweeps combine into one cache equal
//!    to the jointly built one.
//! 4. **Simulate** ([`engine`]) — batches launch in ready order across
//!    virtual devices; the deterministic timeline yields per-request start,
//!    completion and queueing delay.
//! 5. **Report** ([`metrics`]) — a [`ServeReport`] with per-request
//!    latency, energy share and deadline verdicts, plus aggregate
//!    throughput, p50/p99 latency, deadline-miss rate and cache hit rate.
//! 6. **Observe** ([`telemetry`], opt-in) — with
//!    [`EngineConfig::telemetry`](engine::EngineConfig::telemetry) set,
//!    every lifecycle transition (arrival, admission verdict, batch join,
//!    dispatch, completion, budget charge/release) is appended to a typed
//!    [`EngineEvent`](telemetry::EngineEvent) timeline alongside streaming
//!    log-bucketed latency histograms; post-hoc analysis reconstructs the
//!    engine report bit-for-bit from events alone, attributes memory peaks
//!    and device utilization, and exports Chrome trace-event JSON
//!    (Perfetto) and Prometheus text snapshots.
//!
//! Reports are a pure function of the trace and the configuration: pooled
//! and serial planning produce bit-identical [`ServeReport`]s (pinned by
//! test), and a warm cache changes wall-clock planning cost only, never
//! results.
//!
//! ## Autoregressive decode ([`decode`])
//!
//! The pipeline above serves *prefill* requests — independent fixed-shape
//! attention layers. Decode traffic (one generated token per step, the
//! dominant shape in LLM serving) flows through the decode-aware variant
//! instead:
//!
//! ```text
//!          ┌───────────────┐   ┌──────────────────┐   ┌───────────────┐
//! session ─▶ admit session │──▶│ batch steps      │──▶│ launch + report│
//!  + steps │ (KV budget)   │   │ (cross-session)  │   │ (decode cost)  │
//!          └───────────────┘   └──────────────────┘   └───────────────┘
//! ```
//!
//! * Sessions hold *block-granular KV residency* by default: they charge
//!   the shared budget for the fixed-size token blocks their context
//!   actually occupies (vLLM-style paged allocation), growing one block at
//!   a time as they decode; a step that cannot get a block is shed as a
//!   pool overflow while its session keeps decoding. Grouped-query
//!   sessions (`kv_heads < heads`) charge proportionally less. The legacy
//!   max-context reservation policy remains available for comparison
//!   ([`DecodePolicy`]).
//! * Step requests from different sessions sharing a
//!   `(heads, kv_heads, embed)` shape
//!   coalesce into one batched launch within a window, amortizing the
//!   per-launch issue overhead that dominates single-token kernels.
//! * Launch cost comes from the closed-form decode model
//!   ([`mas_dataflow::decode::DecodeStep`], lowered into the same
//!   [`mas_dataflow::TrackDemand`] prefill launches are costed with):
//!   per-step work linear in the context length, DRAM traffic of the cache
//!   stream plus only the new-token operand rows. The numerical kernel this models —
//!   `mas_tensor::decode::decode_attention` over a per-session
//!   `mas_tensor::decode::KvCache` — is pinned step-by-step against the
//!   full-prefill oracle by the differential `decode_vs_prefill` test
//!   harness.
//!
//! Replaying a deterministic [`mas_workloads::DecodeTrace`] yields a
//! [`DecodeReport`] with per-step latency, batching factor, deadline
//! verdicts and peak KV residency.
//!
//! ## The unified engine ([`engine`])
//!
//! Both pipelines above run in [`ServeEngine`], the one serving entry
//! point, which admits, batches and replays a **mixed** prefill+decode
//! stream on one earliest-free device timeline with one shared memory
//! budget:
//!
//! ```text
//! prefill ──┐   ┌───────────────────────┐   ┌──────────────────────────┐
//!           ├──▶│ unified WorkItem queue │──▶│ one device timeline      │
//! decode  ──┘   │ (LaunchKey coalescing, │   │ (policy-ordered slots,   │
//!               │  shared memory budget) │   │  shared schedule cache)  │
//!               └───────────────────────┘   └──────────────────────────┘
//! ```
//!
//! Every unit of work is a [`engine::WorkItem`] coalescing under a typed
//! [`LaunchKey`]; a configurable iteration-level [`SchedulePolicy`]
//! (decode-priority / prefill-priority / fair-share) decides which class
//! feeds each launch slot when both are ready; and prefill activation
//! footprints plus decode KV residency charge one budget, so a prefill
//! burst can shed decode block growth (pool overflows) and a heavy decode
//! residency can shed prefill arrivals
//! ([`RejectReason::MemoryPressure`]). An [`EngineReport`] breaks a replay
//! down per class ([`ServeReport`] for prefill, [`DecodeReport`] for
//! decode) with shared [`LatencyStats`]; a single-class stream leaves the
//! other class's report at its default.
//!
//! Each device is one [`DeviceTracks`]: four per-device FIFO tracks
//! ([`TrackKind`]: DMA-in / MAC / VEC / writeback). With the default
//! `tracks: None` every launch occupies the whole device for its scalar
//! service time. With [`EngineConfig::tracks`](engine::EngineConfig::tracks)
//! set, the **overlap-aware track executor** splits each launch's
//! closed-form cost per tile/chunk stage into track demands
//! ([`mas_dataflow::TrackDemand`]) and flow-shop schedules them, so stage
//! `k+1`'s DMA streams under stage `k`'s compute — the paper's
//! intra-kernel overlap, recovered at the serving layer. A launch commits
//! the overlapped placement only when it strictly beats the scalar one
//! (never-worse by construction).
//!
//! ## Example
//!
//! ```
//! use mas_dataflow::DataflowKind;
//! use mas_serve::{EngineConfig, ServeEngine, ServeRequest};
//! use mas_workloads::{request_trace, DecodeTrace, Network, TraceConfig};
//!
//! let trace = request_trace(&TraceConfig::poisson(
//!     vec![Network::BertSmall, Network::VitB16],
//!     16,   // requests
//!     500.0, // arrival rate (req/s)
//!     42,   // seed
//! ));
//! let stream = ServeRequest::stream_from_trace(&trace, DataflowKind::MasAttention, Some(0.05));
//! let mut engine = ServeEngine::new(EngineConfig::default());
//! let report = engine.run(&stream, &DecodeTrace::empty()).unwrap().prefill;
//! assert_eq!(report.completed() + report.rejected.len(), 16);
//! assert!(report.throughput_rps() > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod batcher;
pub mod cache;
pub mod decode;
pub mod engine;
pub mod key;
pub mod metrics;
pub mod queue;
pub mod request;
pub mod telemetry;

pub use batcher::{Batch, BatchPolicy};
pub use cache::{
    hardware_fingerprint, planning_fingerprint, CacheError, CacheKey, CachedPlan, ScheduleCache,
};
pub use decode::{
    decode_step_lower_bound_s, launch_service_s, DecodePolicy, DecodeRejectReason, DecodeReport,
    DecodeStepOutcome, RejectedDecodeStep,
};
pub use engine::{
    ChunkPolicy, DecodeStepItem, DeviceUtil, EngineConfig, EngineReport, PreemptMode,
    SchedulePolicy, ServeEngine, WorkItem,
};
pub use key::{BatchKey, ChunkKey, DecodeKey, LaunchKey, WorkClass};
pub use mas_dataflow::KvDtype;
pub use mas_sim::{DeviceTracks, TrackConfig, TrackKind, TRACK_COUNT};
pub use metrics::{
    percentile, percentile_sorted, LatencyStats, RejectedRequest, RequestOutcome, ServeReport,
};
pub use queue::{AdmissionPolicy, RejectReason};
pub use request::ServeRequest;
pub use telemetry::{
    chrome_trace_from_sim, validate_chrome_trace, ChromeTraceStats, ConservationStats, EngineEvent,
    EventKind, LogHistogram, MemOwner, PeakAttribution, PreemptVictim, SealCause, Telemetry,
    TelemetryConfig, TimeSeries, Track,
};
