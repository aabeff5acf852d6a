//! `serve-mixed`: warm replays of seeded prefill + decode traces over an
//! offered-rate ladder, under two engine configurations.
//!
//! Set-up generates one trace per ladder rate and fills each engine's
//! `ScheduleCache` with one cold replay, so cold planning lands in
//! `setup_s`. One op is a warm `ServeEngine::run` at every ladder rate under
//! `EngineConfig::default()` and under the full feature set. The engine
//! loop, batcher and KV accounting do all the timed work; `sim` does none.
//! Arrivals are open-loop in simulated time; host replays are closed-loop.

use mas_dataflow::DataflowKind;
use mas_serve::{
    ChunkPolicy, DecodePolicy, EngineConfig, EngineReport, KvDtype, PreemptMode, SchedulePolicy,
    ServeEngine, ServeRequest, TelemetryConfig, TrackConfig,
};
use mas_workloads::{
    decode_trace, request_trace, DecodeTrace, DecodeTraceConfig, Network, TraceConfig,
    MIXED_DECODE_SEED_SALT,
};

use crate::host::{peak_rss_mib, MIB};
use crate::spans::Tracer;
use crate::stats::median;
use crate::{timed, timed_loop, Clock, Metric, WorkloadRun, SETUP_REPS};

/// Offered prefill rates, req/s: from batching-window-bound light load to
/// past saturation.
pub const LADDER_RPS: [f64; 5] = [1000.0, 2000.0, 4000.0, 8000.0, 16000.0];
/// The rung (2000 req/s) the `sim_*` p99 and KV-peak metrics are read at.
const NOMINAL_RUNG: usize = 1;
/// Prefill p99 limit of `sim_goodput_rps`, ms.
pub const PREFILL_P99_LIMIT_MS: f64 = 8.0;
/// Decode p99 limit of `sim_goodput_rps`, ms.
pub const DECODE_P99_LIMIT_MS: f64 = 5.0;

/// Prefill requests per ladder rate.
const PREFILL_REQUESTS: usize = 4000;
/// Relative prefill deadline, seconds.
const PREFILL_DEADLINE_S: f64 = 0.05;
/// Decode sessions: one network, a fixed prompt and step count, opening
/// fast enough that all are resident at once, so the KV peak depends on
/// the code rather than on which shapes the seed happened to draw.
const DECODE_NETWORK: Network = Network::BertSmall;
const SESSIONS: usize = 48;
const SESSION_RATE_RPS: f64 = 1000.0;
const PROMPT_TOKENS: usize = 128;
const STEPS_PER_SESSION: usize = 32;
/// Per-step decode deadline of the full-feature configuration, seconds:
/// tight enough that decode launches queued behind prefill under overload
/// displace staged prefill launches.
const DECODE_DEADLINE_S: f64 = 0.004;
/// Shared system-prompt tokens per network (prefix sharing).
const SYSTEM_PROMPT_TOKENS: usize = 64;
/// Chunked-prefill token budget of the full-feature configuration.
const CHUNK_TOKENS: usize = 64;
/// Networks the prefill requests draw from.
const PREFILL_NETWORKS: [Network; 3] = [Network::BertSmall, Network::VitB16, Network::T5Mini];

/// Unit of work: prefill requests plus decode steps replayed.
pub const WORK_UNIT: &str = "events";

/// Per-rate counters reported in a traced run, with their units.
pub const RATE_FIELDS: [(&str, &str); 7] = [
    ("launches", "count"),
    ("steps_per_launch", "ratio"),
    ("preemptions", "count"),
    ("kv_evictions", "count"),
    ("rejected", "count"),
    ("deadline_misses", "count"),
    ("device_busy_frac", "ratio"),
];

/// Name of a per-rate metric.
pub fn rate_metric(rate: f64, field: &str) -> String {
    format!("serve.r{}.{field}", rate as u64)
}

/// The full feature set: decode priority, f16 KV, prefix sharing, chunked
/// prefill, preemption with swap-out hold, and the track executor.
fn full_config() -> EngineConfig {
    EngineConfig {
        policy: SchedulePolicy::DecodePriority,
        decode: DecodePolicy {
            kv_dtype: Some(KvDtype::F16),
            prefix_share: true,
            step_deadline_s: Some(DECODE_DEADLINE_S),
            ..DecodePolicy::default()
        },
        chunked_prefill: Some(ChunkPolicy::new(CHUNK_TOKENS)),
        preempt: Some(PreemptMode::Hold),
        tracks: Some(TrackConfig::default()),
        ..EngineConfig::default()
    }
}

/// The ladder's inputs.
struct Traces {
    prefill: Vec<Vec<ServeRequest>>,
    decode: DecodeTrace,
}

impl Traces {
    fn generate(seed: u64) -> Self {
        let prefill = LADDER_RPS
            .iter()
            .map(|&rate| {
                let events = request_trace(&TraceConfig::poisson(
                    PREFILL_NETWORKS.to_vec(),
                    PREFILL_REQUESTS,
                    rate,
                    seed,
                ));
                ServeRequest::stream_from_trace(
                    &events,
                    DataflowKind::MasAttention,
                    Some(PREFILL_DEADLINE_S),
                )
            })
            .collect();
        let decode = decode_trace(&DecodeTraceConfig {
            prompt_len: (PROMPT_TOKENS, PROMPT_TOKENS),
            steps_per_session: (STEPS_PER_SESSION, STEPS_PER_SESSION),
            ..DecodeTraceConfig::poisson(
                vec![DECODE_NETWORK],
                SESSIONS,
                SESSION_RATE_RPS,
                seed ^ MIXED_DECODE_SEED_SALT,
            )
            .with_system_prompt(SYSTEM_PROMPT_TOKENS)
        });
        Self { prefill, decode }
    }

    fn events(&self, rung: usize) -> usize {
        self.prefill[rung].len() + self.decode.total_steps()
    }
}

/// Checks one replay's conservation and budget invariants.
fn check_report(report: &EngineReport, traces: &Traces, rung: usize) -> Result<(), String> {
    let sent_prefill = traces.prefill[rung].len();
    let prefill = report.prefill.completed() + report.prefill.rejected.len();
    let decode = report.decode.completed() + report.decode.rejected.len();
    if prefill != sent_prefill || decode != traces.decode.total_steps() {
        return Err(format!(
            "rate {}: completed + rejected = {prefill} prefill / {decode} decode, sent {sent_prefill} / {}",
            LADDER_RPS[rung],
            traces.decode.total_steps()
        ));
    }
    if report.mem_peak_bytes > report.mem_budget_bytes {
        return Err(format!(
            "rate {}: memory peak {} exceeds the budget {}",
            LADDER_RPS[rung], report.mem_peak_bytes, report.mem_budget_bytes
        ));
    }
    Ok(())
}

fn deadline_misses(report: &EngineReport) -> usize {
    report.prefill.deadline_missed() + report.decode.deadline_missed()
}

/// Modeled serve figures of the full-feature configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeModel {
    /// Prefill p99 at the nominal rung, ms.
    pub prefill_p99_ms: f64,
    /// Decode p99 at the nominal rung, ms.
    pub decode_p99_ms: f64,
    /// Highest ladder rate meeting both p99 limits with nothing rejected or
    /// late, req/s.
    pub goodput_rps: f64,
    /// Decode KV peak at the nominal rung, MiB.
    pub kv_peak_mib: f64,
    /// Per rate: prefill p99, decode p99 (ms), rejected, late.
    pub ladder: Vec<(f64, f64, f64, usize, usize)>,
}

impl ServeModel {
    fn of(reports: &[EngineReport]) -> Self {
        let p99_ms =
            |s: Option<mas_serve::LatencyStats>| s.map_or(f64::INFINITY, |s| s.p99_s * 1e3);
        let ladder: Vec<(f64, f64, f64, usize, usize)> = LADDER_RPS
            .iter()
            .zip(reports)
            .map(|(&rate, r)| {
                (
                    rate,
                    p99_ms(r.prefill_latency()),
                    p99_ms(r.decode_latency()),
                    r.rejected(),
                    deadline_misses(r),
                )
            })
            .collect();
        let goodput_rps = ladder
            .iter()
            .filter(|(_, pf, dc, rejected, late)| {
                *pf <= PREFILL_P99_LIMIT_MS
                    && *dc <= DECODE_P99_LIMIT_MS
                    && *rejected == 0
                    && *late == 0
            })
            .map(|l| l.0)
            .fold(0.0, f64::max);
        Self {
            prefill_p99_ms: ladder[NOMINAL_RUNG].1,
            decode_p99_ms: ladder[NOMINAL_RUNG].2,
            goodput_rps,
            kv_peak_mib: reports[NOMINAL_RUNG].decode.kv_peak_bytes as f64 / MIB,
            ladder,
        }
    }

    /// The gated modeled metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("sim_prefill_p99_ms", self.prefill_p99_ms, "ms"),
            Metric::new("sim_decode_p99_ms", self.decode_p99_ms, "ms"),
            Metric::new("sim_goodput_rps", self.goodput_rps, "req/s"),
            Metric::new("sim_kv_peak_mib", self.kv_peak_mib, "MiB"),
        ]
    }

    /// Prints the ladder and the limits behind the goodput.
    pub fn print(&self) {
        println!(
            "modeled serve-mixed (full features; limits prefill p99 <= {PREFILL_P99_LIMIT_MS} ms, \
             decode p99 <= {DECODE_P99_LIMIT_MS} ms, nothing rejected or late):"
        );
        for (rate, pf, dc, rejected, late) in &self.ladder {
            println!(
                "  {rate:>7} req/s: prefill p99 {pf:.4} ms, decode p99 {dc:.4} ms, rejected {rejected}, late {late}"
            );
        }
        println!(
            "  goodput {} req/s; at {} req/s decode KV peak {:.4} MiB",
            self.goodput_rps, LADDER_RPS[NOMINAL_RUNG], self.kv_peak_mib
        );
    }
}

/// One engine per configuration, warm after set-up.
struct Engines {
    default: ServeEngine,
    full: ServeEngine,
}

impl Engines {
    fn each(&mut self) -> [(&'static str, &mut ServeEngine); 2] {
        [("default", &mut self.default), ("full", &mut self.full)]
    }
}

/// Replays every rung under both configurations, returning the reports in
/// (config, rung) order.
fn ladder(
    engines: &mut Engines,
    traces: &Traces,
    tracer: &mut Tracer,
) -> Result<Vec<EngineReport>, String> {
    let mut reports = Vec::with_capacity(2 * LADDER_RPS.len());
    for (name, engine) in engines.each() {
        for (rung, stream) in traces.prefill.iter().enumerate() {
            let report = tracer
                .span("serve.run", |_| engine.run(stream, &traces.decode))
                .map_err(|e| format!("{name} config at {} req/s: {e}", LADDER_RPS[rung]))?;
            check_report(&report, traces, rung)?;
            reports.push(report);
        }
    }
    Ok(reports)
}

/// The modeled serve figures for `seed`.
pub fn modeled(seed: u64) -> ServeModel {
    let traces = Traces::generate(seed);
    let mut engine = ServeEngine::new(full_config());
    let reports: Vec<EngineReport> = traces
        .prefill
        .iter()
        .map(|stream| {
            engine
                .run(stream, &traces.decode)
                .expect("the ladder replays")
        })
        .collect();
    ServeModel::of(&reports)
}

/// What one set-up produced.
struct Setup {
    traces: Traces,
    engines: Engines,
    reference: Vec<EngineReport>,
    cold_ms: f64,
    misses: usize,
    warm_ms: f64,
}

fn set_up(seed: u64, tracer: &mut Tracer) -> Result<Setup, String> {
    let traces = tracer.span("workloads.trace_gen", |_| Traces::generate(seed));
    let mut engines = Engines {
        default: ServeEngine::new(EngineConfig::default()),
        full: ServeEngine::new(full_config()),
    };
    let mut quiet = Tracer::new(false);
    let (cold, cold_s) = timed(|| ladder(&mut engines, &traces, &mut quiet));
    let misses = cold?.iter().map(|r| r.prefill.cache_misses).sum();
    let (reference, warm_s) = timed(|| ladder(&mut engines, &traces, &mut quiet));
    Ok(Setup {
        traces,
        engines,
        reference: reference?,
        cold_ms: cold_s * 1e3,
        misses,
        warm_ms: warm_s * 1e3,
    })
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer, clock: &mut Clock) -> WorkloadRun {
    let mut setup = Vec::new();
    let mut setup_failures = Vec::new();
    let mut last = None;
    let (mut cold_ms, mut plan_ms_per_miss) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let (s, sample) = clock.time(|_| set_up(seed, tracer));
        setup.push(sample);
        match s {
            Ok(s) => {
                cold_ms.push(s.cold_ms);
                plan_ms_per_miss.push((s.cold_ms - s.warm_ms) / s.misses.max(1) as f64);
                last = Some(s);
            }
            Err(e) => setup_failures.push(e),
        }
    }
    let Some(Setup {
        traces,
        mut engines,
        reference,
        ..
    }) = last
    else {
        return WorkloadRun::failed(setup, setup_failures, WORK_UNIT);
    };
    let events_per_op: usize = 2
        * (0..LADDER_RPS.len())
            .map(|r| traces.events(r))
            .sum::<usize>();

    let timed = timed_loop(seconds, tracer, clock, |tr, _| {
        let reports = ladder(&mut engines, &traces, tr)?;
        if reports != reference {
            return Err("a warm replay's report differs from the first warm replay's".into());
        }
        Ok(())
    });
    let peak = peak_rss_mib().unwrap_or(0.0);

    let mut layers = Vec::new();
    if tracer.enabled() {
        let warm = tracer.per_op_ns("serve.run");
        let hits: usize = reference.iter().map(|r| r.prefill.cache_hits).sum();
        let lookups: usize = reference
            .iter()
            .map(|r| r.prefill.cache_hits + r.prefill.cache_misses)
            .sum();
        let telemetry_ns = telemetry_ns_per_event(&mut engines.full, &traces, NOMINAL_RUNG);
        if let Err(e) = &telemetry_ns {
            setup_failures.push(e.clone());
        }
        layers.extend([
            Metric::new(
                "workloads.trace_gen_ms",
                median(&tracer.durations("workloads.trace_gen")) / 1e6,
                "ms",
            ),
            Metric::new("serve.cold_replay_ms", median(&cold_ms), "ms"),
            Metric::new("serve.plan_ms_per_miss", median(&plan_ms_per_miss), "ms"),
            Metric::new(
                "serve.ns_per_event",
                median(&warm) / events_per_op as f64,
                "ns",
            ),
            Metric::new(
                "serve.cache_hit_ratio",
                hits as f64 / lookups.max(1) as f64,
                "ratio",
            ),
            Metric::new(
                "serve.telemetry_ns_per_event",
                telemetry_ns.unwrap_or(0.0),
                "ns",
            ),
        ]);
        let full = &reference[LADDER_RPS.len()..];
        for (&rate, r) in LADDER_RPS.iter().zip(full) {
            let busy = r
                .device_util
                .first()
                .map_or(0.0, |u| u.busy_fraction(r.makespan_s));
            let values = [
                r.launches as f64,
                r.decode.mean_launch_size(),
                r.preemptions_prefill as f64,
                r.preemptions_decode as f64,
                r.rejected() as f64,
                deadline_misses(r) as f64,
                busy,
            ];
            for ((field, unit), v) in RATE_FIELDS.iter().zip(values) {
                layers.push(Metric::new(rate_metric(rate, field), v, unit));
            }
        }
    }
    WorkloadRun {
        setup,
        timed,
        work_per_op: events_per_op as f64,
        work_unit: WORK_UNIT,
        peak_rss_mib: peak,
        setup_failures,
        layers,
    }
}

/// Rounds of the telemetry-cost probe.
const TELEMETRY_ROUNDS: usize = 30;

/// Marginal cost of recording telemetry, ns per recorded event: the median
/// warm nominal replay with `TelemetryConfig::default()` minus the median
/// without, interleaved, over the events one replay records (the unit of
/// the telemetry overhead contract). Recording must not change the report.
fn telemetry_ns_per_event(
    plain: &mut ServeEngine,
    traces: &Traces,
    rung: usize,
) -> Result<f64, String> {
    let mut recorded = ServeEngine::new(EngineConfig {
        telemetry: Some(TelemetryConfig::default()),
        ..full_config()
    });
    let stream = &traces.prefill[rung];
    let expected = plain
        .run(stream, &traces.decode)
        .map_err(|e| e.to_string())?;
    recorded
        .run(stream, &traces.decode)
        .map_err(|e| e.to_string())?;
    let (mut off_ns, mut on_ns) = (Vec::new(), Vec::new());
    for _ in 0..TELEMETRY_ROUNDS {
        let (_, off) = timed(|| plain.run(stream, &traces.decode));
        let (on, on_s) = timed(|| recorded.run(stream, &traces.decode));
        if on.map_err(|e| e.to_string())? != expected {
            return Err("recording telemetry changed the report".into());
        }
        off_ns.push(off * 1e9);
        on_ns.push(on_s * 1e9);
    }
    let recorded_events = recorded.telemetry().map_or(0, |t| t.events().len()).max(1);
    Ok((median(&on_ns) - median(&off_ns)) / recorded_events as f64)
}
