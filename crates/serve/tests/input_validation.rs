//! `ServeEngine::run` rejects inputs it cannot order, judge or cost with a
//! typed error before doing any work, instead of panicking mid-replay: a
//! non-finite or negative arrival time on a prefill request or a decode
//! step, a non-finite or negative prefill deadline, a prefill workload with
//! a zero dimension, and a decode session with a zero embedding size.

use mas_dataflow::{AttentionWorkload, DataflowKind};
use mas_serve::{EngineConfig, ServeEngine, ServeRequest};
use mas_sim::SimError;
use mas_workloads::{DecodeSessionSpec, DecodeStepEvent, DecodeTrace, Network};

const BAD_TIMES: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-3];

fn requests(n: u64) -> Vec<ServeRequest> {
    (0..n)
        .map(|i| {
            ServeRequest::new(
                i,
                i as f64 * 1e-4,
                DataflowKind::MasAttention,
                AttentionWorkload::new("toy", 1, 2, 128, 64),
                Some(0.05),
            )
        })
        .collect()
}

fn decode(steps: usize) -> DecodeTrace {
    DecodeTrace {
        sessions: vec![DecodeSessionSpec {
            id: 0,
            network: Network::BertSmall,
            start_s: 0.0,
            heads: 8,
            kv_heads: 8,
            embed: 64,
            prompt_len: 16,
            steps,
            prefix_group: None,
            shared_prefix_len: 0,
        }],
        steps: (0..steps)
            .map(|step_index| DecodeStepEvent {
                session_id: 0,
                step_index,
                arrival_s: step_index as f64 * 1e-3,
            })
            .collect(),
    }
}

/// Runs the inputs on a fresh engine, asserts the typed rejection, and
/// asserts nothing was planned (the check precedes the pre-planning pass).
fn assert_rejected(prefill: &[ServeRequest], decode: &DecodeTrace, what: &str) {
    let mut engine = ServeEngine::new(EngineConfig::default());
    match engine.run(prefill, decode) {
        Err(SimError::InvalidConfig { reason }) => {
            assert!(reason.contains(what), "reason {reason:?} names {what:?}");
        }
        other => panic!("expected an InvalidConfig error, got {other:?}"),
    }
    assert!(engine.cache().is_empty(), "rejected inputs never plan");
}

#[test]
fn non_finite_or_negative_prefill_arrival_is_a_typed_error() {
    let mut engine = ServeEngine::new(EngineConfig::default());
    assert!(engine.run(&requests(3), &decode(2)).is_ok());
    for bad in BAD_TIMES {
        let mut stream = requests(3);
        stream[1].arrival_s = bad;
        assert_rejected(&stream, &DecodeTrace::empty(), "prefill request 1 arrives");
        assert_rejected(&stream, &decode(2), "prefill request 1 arrives");
    }
}

#[test]
fn non_finite_or_negative_decode_arrival_is_a_typed_error() {
    for bad in BAD_TIMES {
        let mut trace = decode(3);
        trace.steps[2].arrival_s = bad;
        assert_rejected(&[], &trace, "decode step 2 of session 0 arrives");
        assert_rejected(&requests(2), &trace, "decode step 2 of session 0 arrives");
    }
}

#[test]
fn non_finite_or_negative_prefill_deadline_is_a_typed_error() {
    for bad in BAD_TIMES {
        let mut stream = requests(3);
        stream[2].deadline_s = Some(bad);
        assert_rejected(
            &stream,
            &DecodeTrace::empty(),
            "prefill request 2 has deadline",
        );
    }
    // A zero deadline is valid input (admission rejects it as impossible).
    let mut stream = requests(1);
    stream[0].deadline_s = Some(0.0);
    let report = ServeEngine::new(EngineConfig::default())
        .run(&stream, &DecodeTrace::empty())
        .unwrap();
    assert_eq!(report.prefill.rejected.len(), 1);
}

/// `requests(3)` with one dimension of request 1's workload set by `zero`
/// (the workload fields are public, so a zero can reach the engine even
/// though `AttentionWorkload::new` rejects it).
fn with_zeroed(zero: impl Fn(&mut AttentionWorkload)) -> Vec<ServeRequest> {
    let mut stream = requests(3);
    zero(&mut stream[1].workload);
    stream
}

#[test]
fn zero_batch_or_heads_prefill_workload_is_a_typed_error() {
    let zeroes: [fn(&mut AttentionWorkload); 2] = [|w| w.batch = 0, |w| w.heads = 0];
    for zero in zeroes {
        let stream = with_zeroed(zero);
        assert_rejected(
            &stream,
            &DecodeTrace::empty(),
            "prefill request 1 has batch",
        );
        assert_rejected(&stream, &decode(2), "dimensions must be non-zero");
    }
}

#[test]
fn zero_seq_len_or_embed_prefill_workload_is_a_typed_error() {
    let zeroes: [fn(&mut AttentionWorkload); 2] = [|w| w.seq_len = 0, |w| w.embed = 0];
    for zero in zeroes {
        let stream = with_zeroed(zero);
        assert_rejected(
            &stream,
            &DecodeTrace::empty(),
            "prefill request 1 has batch",
        );
        assert_rejected(&stream, &decode(2), "dimensions must be non-zero");
    }
}

#[test]
fn zero_embed_decode_session_is_a_typed_error() {
    let mut trace = decode(2);
    trace.sessions[0].embed = 0;
    assert_rejected(&[], &trace, "decode session 0 has embed 0");
    assert_rejected(&requests(2), &trace, "decode session 0 has embed 0");
}
