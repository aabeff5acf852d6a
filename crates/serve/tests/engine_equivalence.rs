//! Policy invariance of the engine on single-class streams.
//!
//! What this suite pins:
//!
//! * **Policy invariance**: every `SchedulePolicy` produces bit-identical
//!   reports on single-class streams (the policy only reorders *mixed*
//!   launch queues), under serial and pooled planning, both decode charging
//!   policies, deadline screening and multiple devices.
//! * **Per-class collapse**: on a single-class stream the other class's
//!   report stays at its default, and the shared launch count, makespan and
//!   budget figures collapse onto the present class.
//!
//! The absolute behavior (exact latencies, orderings, shed counts) is
//! pinned by the behavioral suites in `decode.rs`, `e2e.rs` and
//! `paged_admission.rs`.

use mas_dataflow::DataflowKind;
use mas_serve::{
    DecodePolicy, DecodeReport, EngineConfig, EngineReport, SchedulePolicy, ServeEngine,
    ServeRequest,
};
use mas_workloads::{
    decode_trace, request_trace, DecodeTrace, DecodeTraceConfig, Network, TraceConfig,
};

const POLICIES: [SchedulePolicy; 3] = [
    SchedulePolicy::FairShare,
    SchedulePolicy::DecodePriority,
    SchedulePolicy::PrefillPriority,
];

fn nets() -> Vec<Network> {
    vec![Network::BertSmall, Network::VitB16, Network::T5Mini]
}

fn prefill_stream(count: usize, seed: u64) -> Vec<ServeRequest> {
    let trace = request_trace(&TraceConfig::poisson(nets(), count, 2000.0, seed));
    ServeRequest::stream_from_trace(&trace, DataflowKind::MasAttention, Some(0.05))
}

/// Replays `prefill` + `decode` once per scheduling policy (in
/// [`POLICIES`] order) with `config`'s other settings.
fn run_under_every_policy(
    config: &EngineConfig,
    prefill: &[ServeRequest],
    decode: &DecodeTrace,
) -> Vec<EngineReport> {
    POLICIES
        .iter()
        .map(|&policy| {
            ServeEngine::new(EngineConfig {
                policy,
                ..config.clone()
            })
            .run(prefill, decode)
            .unwrap()
        })
        .collect()
}

#[test]
fn prefill_only_stream_is_policy_invariant_and_collapses_onto_the_prefill_class() {
    let configs = [
        (prefill_stream(60, 11), EngineConfig::default()),
        (
            prefill_stream(40, 29),
            EngineConfig {
                devices: 3,
                parallel_planning: false,
                ..EngineConfig::default()
            },
        ),
    ];
    for (requests, config) in configs {
        let reports = run_under_every_policy(&config, &requests, &DecodeTrace::empty());
        let reference = &reports[0].prefill;
        assert!(reference.completed() > 0);
        for (policy, report) in POLICIES.iter().zip(&reports) {
            assert_eq!(
                &report.prefill, reference,
                "prefill-only engine run under {policy} must be bit-identical to fair share"
            );
            // The decode side of a prefill-only run is empty, and the shared
            // figures collapse onto the prefill class.
            assert_eq!(report.decode, DecodeReport::default());
            assert_eq!(report.launches, reference.batches);
            assert_eq!(report.makespan_s, reference.makespan_s);
            assert_eq!(report.mem_peak_decode_bytes, 0);
            assert!(report.mem_peak_bytes <= report.mem_budget_bytes);
            assert_eq!(report.mem_peak_bytes, report.mem_peak_prefill_bytes);
        }
    }
}

#[test]
fn decode_only_trace_is_policy_invariant_and_collapses_onto_the_decode_class() {
    let trace = decode_trace(&DecodeTraceConfig::poisson(
        vec![Network::BertSmall, Network::T5Mini, Network::Llama3_8B],
        20,
        200.0,
        9,
    ));
    // Paged (default), legacy max-context charging, and a deadline-screened
    // variant, on one and two devices.
    let decode_policies = [
        DecodePolicy::default(),
        DecodePolicy {
            kv_block_tokens: None,
            ..DecodePolicy::default()
        },
        DecodePolicy {
            step_deadline_s: Some(5e-4),
            ..DecodePolicy::default()
        },
    ];
    for decode_policy in decode_policies {
        for devices in [1usize, 2] {
            let config = EngineConfig {
                decode: decode_policy,
                devices,
                ..EngineConfig::default()
            };
            let reports = run_under_every_policy(&config, &[], &trace);
            let reference = &reports[0].decode;
            assert_eq!(
                reference.completed() + reference.rejected.len(),
                trace.total_steps()
            );
            for (policy, report) in POLICIES.iter().zip(&reports) {
                assert_eq!(
                    &report.decode, reference,
                    "decode-only engine run under {policy} ({devices} devices) must be \
                     bit-identical to fair share"
                );
                assert_eq!(report.prefill.completed(), 0);
                assert_eq!(report.launches, reference.launches);
                assert_eq!(report.makespan_s, reference.makespan_s);
                // The shared-budget peak of a decode-only run is exactly the
                // decode KV peak.
                assert_eq!(report.mem_peak_bytes, reference.kv_peak_bytes);
                assert_eq!(report.mem_peak_prefill_bytes, 0);
            }
        }
    }
}

#[test]
fn empty_streams_produce_empty_reports() {
    let mut engine = ServeEngine::new(EngineConfig::default());
    let report = engine.run(&[], &DecodeTrace::empty()).unwrap();
    assert_eq!(report.completed(), 0);
    assert_eq!(report.rejected(), 0);
    assert_eq!(report.launches, 0);
    assert_eq!(report.makespan_s, 0.0);
    assert_eq!(report.mem_peak_bytes, 0);
    assert!(report.prefill_latency().is_none());
    assert!(report.decode_latency().is_none());
}
