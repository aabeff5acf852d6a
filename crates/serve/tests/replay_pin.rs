//! Exact pin of representative engine replays: for each configuration, an
//! FNV-1a hash of the full `EngineReport` debug rendering, plus — when the
//! track executor is on — every device's per-track busy seconds (as f64
//! bits) and its overlap/scalar commit counts. One configuration also
//! records telemetry and pins the hash of its whole event log. Any change
//! to the engine's placement, accounting or event order shows up here as
//! an exact mismatch rather than a drifted latency.
//!
//! The traces are small and seeded, so the suite stays fast in debug
//! builds. On a mismatch the test prints every current line in the layout
//! of `EXPECTED`, ready to paste once a change is meant to move a replay.

use mas_dataflow::DataflowKind;
use mas_serve::{
    AdmissionPolicy, ChunkPolicy, DecodePolicy, EngineConfig, EngineReport, KvDtype, PreemptMode,
    SchedulePolicy, ServeEngine, ServeRequest, TelemetryConfig, TrackConfig,
};
use mas_workloads::{
    decode_trace, mixed_trace, overload_burst_trace, request_trace, DecodeSessionSpec,
    DecodeStepEvent, DecodeTrace, DecodeTraceConfig, MixedTraceConfig, Network,
    OverloadBurstConfig, TraceConfig, MIXED_DECODE_SEED_SALT,
};

/// FNV-1a over a string's bytes.
fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A seeded Poisson mixed trace over two small networks.
fn mixed(prefill: usize, sessions: usize, seed: u64) -> (Vec<ServeRequest>, DecodeTrace) {
    let trace = mixed_trace(&MixedTraceConfig::poisson(
        vec![Network::BertSmall, Network::T5Mini],
        prefill,
        2000.0,
        sessions,
        300.0,
        seed,
    ));
    let stream =
        ServeRequest::stream_from_trace(&trace.prefill, DataflowKind::MasAttention, Some(0.05));
    (stream, trace.decode)
}

/// `sessions` lockstep decode sessions with one-token prompts (the
/// DRAM-bound shape on which the track executor commits overlap
/// placements) plus a few BERT-Small prefills.
fn overlap_mix() -> (Vec<ServeRequest>, DecodeTrace) {
    let (sessions, steps) = (12u64, 16usize);
    let specs = (0..sessions)
        .map(|id| DecodeSessionSpec {
            id,
            network: Network::BertSmall,
            start_s: 0.0,
            heads: 8,
            kv_heads: 8,
            embed: 64,
            prompt_len: 1,
            steps,
            prefix_group: None,
            shared_prefix_len: 0,
        })
        .collect();
    let mut events = Vec::new();
    for step_index in 0..steps {
        for session_id in 0..sessions {
            events.push(DecodeStepEvent {
                session_id,
                step_index,
                arrival_s: step_index as f64 * 1e-7 + 1e-9,
            });
        }
    }
    let prefill = (0..4u64)
        .map(|i| {
            ServeRequest::new(
                i,
                i as f64 * 1e-5,
                DataflowKind::MasAttention,
                Network::BertSmall.attention_workload(1),
                None,
            )
        })
        .collect();
    (
        prefill,
        DecodeTrace {
            sessions: specs,
            steps: events,
        },
    )
}

/// The benchmark's full-feature configuration: decode priority, f16 KV,
/// prefix sharing, a 4 ms step deadline, 64-token chunks, `Hold`
/// preemption and the track executor.
fn full_config() -> EngineConfig {
    EngineConfig {
        policy: SchedulePolicy::DecodePriority,
        decode: DecodePolicy {
            kv_dtype: Some(KvDtype::F16),
            prefix_share: true,
            step_deadline_s: Some(0.004),
            ..DecodePolicy::default()
        },
        chunked_prefill: Some(ChunkPolicy::new(64)),
        preempt: Some(PreemptMode::Hold),
        tracks: Some(TrackConfig::default()),
        ..EngineConfig::default()
    }
}

/// The benchmark's trace shape at a small size: Poisson prefill over three
/// networks at an overloading `rate_rps`, plus shared-system-prompt decode
/// sessions.
fn full_trace(rate_rps: f64, seed: u64) -> (Vec<ServeRequest>, DecodeTrace) {
    let events = request_trace(&TraceConfig::poisson(
        vec![Network::BertSmall, Network::VitB16, Network::T5Mini],
        160,
        rate_rps,
        seed,
    ));
    let stream = ServeRequest::stream_from_trace(&events, DataflowKind::MasAttention, Some(0.05));
    let decode = decode_trace(&DecodeTraceConfig {
        prompt_len: (128, 128),
        steps_per_session: (16, 16),
        ..DecodeTraceConfig::poisson(
            vec![Network::BertSmall],
            12,
            1000.0,
            seed ^ MIXED_DECODE_SEED_SALT,
        )
        .with_system_prompt(64)
    });
    (stream, decode)
}

/// The overload-burst engine config: decode priority with a 4 ms step
/// deadline, 64-token chunked prefill and `Hold` preemption.
fn overload_config() -> EngineConfig {
    EngineConfig {
        policy: SchedulePolicy::DecodePriority,
        decode: DecodePolicy {
            step_deadline_s: Some(0.004),
            ..DecodePolicy::default()
        },
        chunked_prefill: Some(ChunkPolicy::new(64)),
        preempt: Some(PreemptMode::Hold),
        ..EngineConfig::default()
    }
}

/// Replays one configuration and renders its pin line.
fn line(
    name: &str,
    config: EngineConfig,
    prefill: &[ServeRequest],
    decode: &DecodeTrace,
) -> String {
    let mut engine = ServeEngine::new(config);
    let report: EngineReport = engine.run(prefill, decode).unwrap();
    let mut out = format!(
        "{name} | launches {} | rejected {} | preempted {}/{} | report {:#018x}",
        report.launches,
        report.rejected(),
        report.preemptions_prefill,
        report.preemptions_decode,
        fnv1a(&format!("{report:?}"))
    );
    if let Some(tracks) = engine.track_stats() {
        for (d, dev) in tracks.iter().enumerate() {
            let busy: Vec<String> = dev
                .busy_s()
                .iter()
                .map(|b| format!("{:#018x}", b.to_bits()))
                .collect();
            out.push_str(&format!(
                " | d{d} busy {} overlap {} scalar {}",
                busy.join(" "),
                dev.overlap_launches,
                dev.scalar_launches
            ));
        }
    }
    if let Some(telemetry) = engine.telemetry() {
        out.push_str(&format!(
            " | events {} {:#018x}",
            telemetry.events().len(),
            fnv1a(&format!("{:?}", telemetry.events()))
        ));
    }
    out
}

fn measure() -> Vec<String> {
    let mut lines = Vec::new();
    let (prefill, decode) = mixed(40, 6, 7);
    lines.push(line("default", EngineConfig::default(), &prefill, &decode));

    let (prefill, decode) = full_trace(16000.0, 1);
    lines.push(line("full-feature", full_config(), &prefill, &decode));
    // A heavier rate and a 1 ms step deadline make decode launches displace
    // staged prefill launches while the track executor commits overlap
    // placements; telemetry pins the event log of that run.
    let (prefill, decode) = full_trace(32000.0, 1);
    let mut pressed = EngineConfig {
        telemetry: Some(TelemetryConfig::default()),
        ..full_config()
    };
    pressed.decode.step_deadline_s = Some(0.001);
    lines.push(line(
        "full-feature-1ms+telemetry",
        pressed,
        &prefill,
        &decode,
    ));

    // A tight estimated-backlog bound sheds prefill arrivals, so admission
    // depends on every launch's backlog feed, monolithic and chunked.
    let (prefill, decode) = full_trace(32000.0, 2);
    for (name, chunked_prefill) in [
        ("backlog-shed", None),
        ("backlog-shed+chunks", Some(ChunkPolicy::new(64))),
    ] {
        let config = EngineConfig {
            admission: AdmissionPolicy {
                max_est_queue_s: Some(0.001),
                ..AdmissionPolicy::default()
            },
            chunked_prefill,
            ..EngineConfig::default()
        };
        lines.push(line(name, config, &prefill, &decode));
    }

    let (prefill, decode) = overlap_mix();
    let one_device = EngineConfig {
        shared_budget_bytes: Some(3_000_000_000),
        ..EngineConfig::default()
    };
    lines.push(line("tracks-off", one_device.clone(), &prefill, &decode));
    let tracks_on = EngineConfig {
        tracks: Some(TrackConfig::default()),
        ..one_device
    };
    lines.push(line("tracks-on", tracks_on, &prefill, &decode));

    let (prefill, decode) = mixed(40, 6, 42);
    let two = EngineConfig {
        devices: 2,
        ..EngineConfig::default()
    };
    lines.push(line("devices-2", two.clone(), &prefill, &decode));
    let two_tracks = EngineConfig {
        tracks: Some(TrackConfig::default()),
        ..two
    };
    lines.push(line("devices-2+tracks", two_tracks, &prefill, &decode));

    let (prefill, decode) = mixed(24, 8, 1234);
    for (name, block_tokens) in [("kv-legacy", None), ("kv-paged", Some(16))] {
        let config = EngineConfig {
            decode: DecodePolicy {
                kv_block_tokens: block_tokens,
                ..DecodePolicy::default()
            },
            shared_budget_bytes: Some(16_000_000),
            ..EngineConfig::default()
        };
        lines.push(line(name, config, &prefill, &decode));
    }

    let trace = overload_burst_trace(&OverloadBurstConfig::new(Network::Llama3_8B));
    let stream = ServeRequest::stream_from_trace(&trace.prefill, DataflowKind::MasAttention, None);
    lines.push(line(
        "overload-chunk-hold",
        overload_config(),
        &stream,
        &trace.decode,
    ));
    let overload_tracks = EngineConfig {
        tracks: Some(TrackConfig::default()),
        ..overload_config()
    };
    lines.push(line(
        "overload-chunk-hold+tracks",
        overload_tracks,
        &stream,
        &trace.decode,
    ));
    lines
}

/// One line per configuration. Recorded before the engine's scalar device
/// clock was folded into the per-device track state.
const EXPECTED: &str = "\
default | launches 141 | rejected 0 | preempted 0/0 | report 0x5bd1b5f5c8c8e383
full-feature | launches 206 | rejected 0 | preempted 0/0 | report 0x0f59fcfe84a74179 | d0 busy 0x3fed9e035d430151 0x3f7d8cf5630aadf0 0x3f71c93aa2e76bcc 0x3f7ad11362c6394f overlap 62 scalar 144
full-feature-1ms+telemetry | launches 206 | rejected 0 | preempted 2/0 | report 0x9966461659719f89 | d0 busy 0x3fed9e035d43014f 0x3f7d8cf5630aadf0 0x3f71c93aa2e76bcc 0x3f7ad11362c63944 overlap 62 scalar 144 | events 2313 0x42c10f6eb7cdda6b
backlog-shed | launches 77 | rejected 78 | preempted 0/0 | report 0xbffbbc9d7088579c
backlog-shed+chunks | launches 194 | rejected 14 | preempted 0/0 | report 0xfdb9dd8aa2b95254
tracks-off | launches 13 | rejected 0 | preempted 0/0 | report 0x09ad677001ccad43
tracks-on | launches 13 | rejected 0 | preempted 0/0 | report 0x4f09eceb2e70882a | d0 busy 0x3f36a47ce491966a 0x3f42c5359bf1a23f 0x3f32c4c7a8723ae0 0x3f17e4088ed60267 overlap 12 scalar 1
devices-2 | launches 188 | rejected 0 | preempted 0/0 | report 0xda2a89e9e1d1c205
devices-2+tracks | launches 188 | rejected 0 | preempted 0/0 | report 0x0b7b1e292e2fd817 | d0 busy 0x3f56adb442f4cb40 0x3f58119c8d6cbd71 0x3f547ceeb29a3b22 0x3f2962b70b42c9f3 overlap 87 scalar 7 | d1 busy 0x3f5dc2ee953fc191 0x3f671b8a6907d2fa 0x3f5b4801438021d1 0x3f37bd97edcb5ec2 overlap 86 scalar 8
kv-legacy | launches 165 | rejected 0 | preempted 0/0 | report 0xa4be8ccbeb4af232
kv-paged | launches 165 | rejected 0 | preempted 0/0 | report 0xb32ff83dd9a0a0fb
overload-chunk-hold | launches 344 | rejected 0 | preempted 23/0 | report 0x882524997273763e
overload-chunk-hold+tracks | launches 344 | rejected 0 | preempted 23/0 | report 0x882524997273763e | d0 busy 0x401a7025ed98c631 0x3fab1476d67aadb1 0x3f8b14462958f13b 0x3f807b60391edbf6 overlap 0 scalar 344
";

#[test]
fn engine_replays_match_the_recorded_pins() {
    let current = measure();
    let expected: Vec<&str> = EXPECTED.lines().collect();
    if current != expected {
        println!("current replay pins:");
        for l in &current {
            println!("{l}");
        }
        panic!(
            "{} of {} replay pins differ from EXPECTED (current lines printed above)",
            current
                .iter()
                .zip(&expected)
                .filter(|(c, e)| c.as_str() != **e)
                .count()
                + current.len().abs_diff(expected.len()),
            current.len()
        );
    }
}
