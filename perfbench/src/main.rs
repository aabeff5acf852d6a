//! The repository benchmark.
//!
//! ```text
//! mas-perfbench --workload <plan-search|serve-mixed|decode-kernels>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. A single closed-loop caller times calls
//! into the crates' public functions from outside: it sets the workload up
//! several times (the median is `setup_s`), then runs ops back to back for
//! `--seconds`, checking every op's outputs. Inputs derive from `--seed`
//! only. The rayon pool width is pinned to [`POOL_WIDTH`]. Every timing is
//! reported through order statistics (sample count, quartiles, tail),
//! never a mean.
//!
//! Host times are wall times scaled to a reference host speed by a
//! calibration kernel timed after every segment of work ([`Clock`]); the
//! wall times are printed beside them.
//!
//! With `--trace 0` the last stdout line is a JSON object carrying every
//! end-to-end metric; with `--trace 1` it carries every per-layer metric
//! instead. A traced run alternates traced and untraced ops, so the tracing
//! overhead is measured within one process. Layers a workload never calls
//! report 0 in a traced run.
//!
//! Modeled (`sim_*`) metrics are simulated cycles, latencies and bytes of
//! the edge accelerator model. They are exact functions of the seed and the
//! code: every workload and every run with the same seed reports the same
//! values. The repository holds no
//! hardware reference, so no modeling error is given.

mod decode_kernels;
mod host;
mod plan_search;
mod serve_mixed;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use host::{Fingerprint, Roofline};
use spans::Tracer;
use stats::Summary;

/// Worker-pool width every crate fans out on. One lane keeps host times
/// free of the neighbour-dependent scheduling of a shared pool.
const POOL_WIDTH: usize = 1;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest ops per run, so the tail statistic has ten ops beyond it.
const MIN_OPS: usize = 12;
/// Seconds the calibration kernel takes on the reference host. Host times
/// are reported in reference seconds (see [`Clock`]).
const CAL_REF_S: f64 = 0.004;
/// Calibrations on each side of a segment whose median sets its speed.
const CAL_WINDOW: usize = 5;
/// The workloads.
const WORKLOADS: [&str; 3] = ["plan-search", "serve-mixed", "decode-kernels"];

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` ({})",
            WORKLOADS.join("|")
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One named metric value.
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// One timed piece of work: its wall-time segments, each followed by a
/// calibration (index into [`Clock::cal_s`]).
#[derive(Debug, Clone, Default)]
pub struct Sample {
    segments: Vec<(f64, usize)>,
}

impl Sample {
    /// Wall seconds.
    #[must_use]
    pub fn raw_s(&self) -> f64 {
        self.segments.iter().map(|(raw, _)| raw).sum()
    }
}

/// Times work relative to the host's speed at that moment.
///
/// On a shared 2-vCPU cloud VM (Xeon, other tenants on the same physical
/// cores) the same op's median wall time was measured to drift by up to
/// 1.7x over minutes, far more than any bound a regression check could use,
/// while steal time stayed near zero. So the harness runs a fixed
/// calibration kernel of its own ([`host::Calibration`]) after every timed
/// segment of work, and scales each segment's wall time by [`CAL_REF_S`]
/// over the median of the calibrations within [`CAL_WINDOW`] of it (one
/// calibration is noisy; a window tracks the host's speed). The result
/// reads as seconds on a host where the kernel takes [`CAL_REF_S`]. Long
/// ops split themselves into segments ([`Clock::split`]) so the speed is
/// sampled often. Wall times are printed beside the scaled ones.
pub struct Clock {
    cal: host::Calibration,
    /// Every calibration, in seconds.
    pub cal_s: Vec<f64>,
    segment_start: Instant,
    segments: Vec<(f64, usize)>,
}

impl Clock {
    fn new() -> Self {
        let mut cal = host::Calibration::new();
        let first = cal.time();
        Self {
            cal,
            cal_s: vec![first],
            segment_start: Instant::now(),
            segments: Vec::new(),
        }
    }

    /// Runs `f` as one timed piece of work, returning its result and its
    /// timing. `f` may call [`Clock::split`] on the clock it is given.
    pub fn time<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> (R, Sample) {
        self.segments.clear();
        self.segment_start = Instant::now();
        let out = f(self);
        self.split();
        let segments = std::mem::take(&mut self.segments);
        (out, Sample { segments })
    }

    /// Ends the running segment with a calibration and starts the next one.
    pub fn split(&mut self) {
        let raw = self.segment_start.elapsed().as_secs_f64();
        self.cal_s.push(self.cal.time());
        self.segments.push((raw, self.cal_s.len() - 1));
        self.segment_start = Instant::now();
    }

    /// `sample`'s seconds at the reference speed.
    #[must_use]
    pub fn norm_s(&self, sample: &Sample) -> f64 {
        let last = self.cal_s.len() - 1;
        sample
            .segments
            .iter()
            .map(|&(raw, k)| {
                let window = &self.cal_s[k.saturating_sub(CAL_WINDOW)..=(k + CAL_WINDOW).min(last)];
                raw * CAL_REF_S / stats::median(window)
            })
            .sum()
    }
}

/// The timed part of a run: op timings and failures.
#[derive(Default)]
pub struct Timed {
    /// Untraced ops.
    pub plain: Vec<Sample>,
    /// Traced ops (traced runs only).
    pub traced: Vec<Sample>,
    /// Ops attempted.
    pub attempted: usize,
    /// Ops whose checks failed.
    pub failed: usize,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

/// Runs `op` back to back for `seconds` (and at least [`MIN_OPS`] times).
/// In a traced run every second op is traced; each op gets its own id.
pub fn timed_loop(
    seconds: f64,
    tracer: &mut Tracer,
    clock: &mut Clock,
    mut op: impl FnMut(&mut Tracer, &mut Clock) -> Result<(), String>,
) -> Timed {
    let traced_run = tracer.enabled();
    let mut timed = Timed::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || timed.attempted < MIN_OPS {
        let traced = traced_run && timed.attempted % 2 == 1;
        tracer.set_enabled(traced);
        tracer.set_op(u32::try_from(timed.attempted + 1).unwrap_or(u32::MAX));
        let (outcome, sample) = clock.time(|clk| tracer.span("op", |tr| op(tr, clk)));
        if traced {
            timed.traced.push(sample);
        } else {
            timed.plain.push(sample);
        }
        timed.attempted += 1;
        if let Err(e) = outcome {
            timed.failed += 1;
            if timed.errors.len() < 5 {
                timed.errors.push(e);
            }
        }
    }
    tracer.set_enabled(traced_run);
    tracer.set_op(0);
    timed
}

/// Times `f` once in wall seconds (for per-layer figures).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Order statistics of the wall and the reference-speed times.
fn summaries(samples: &[Sample], clock: &Clock) -> Option<(Summary, Summary)> {
    let raw: Vec<f64> = samples.iter().map(Sample::raw_s).collect();
    let norm: Vec<f64> = samples.iter().map(|s| clock.norm_s(s)).collect();
    Some((Summary::of(&raw)?, Summary::of(&norm)?))
}

/// What a workload reports back to the harness.
pub struct WorkloadRun {
    /// The set-up repetitions.
    pub setup: Vec<Sample>,
    /// The timed loop.
    pub timed: Timed,
    /// Units of work one op performs.
    pub work_per_op: f64,
    /// Name of the unit of work.
    pub work_unit: &'static str,
    /// Peak resident memory at the end of the timed loop, in MiB.
    pub peak_rss_mib: f64,
    /// Failures found outside the timed loop (set-up and golden checks).
    pub setup_failures: Vec<String>,
    /// Per-layer metrics measured by this workload (traced runs).
    pub layers: Vec<Metric>,
}

impl WorkloadRun {
    /// A run whose set-up failed every time, so nothing was timed.
    pub fn failed(
        setup: Vec<Sample>,
        setup_failures: Vec<String>,
        work_unit: &'static str,
    ) -> Self {
        Self {
            setup,
            timed: Timed::default(),
            work_per_op: 0.0,
            work_unit,
            peak_rss_mib: 0.0,
            setup_failures,
            layers: Vec::new(),
        }
    }
}

/// Per-layer metrics every traced run reports, with their units. Layers
/// the workload does not call report 0.
fn layer_catalogue() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("host.copy_gbps", "GB/s"),
        ("host.dot_gflops", "GFLOP/s"),
        ("trace.overhead_frac", "ratio"),
        ("planner.compare_all_ms", "ms"),
        ("planner.self_ms", "ms"),
        ("dataflow.build_ms", "ms"),
        ("dataflow.tasks_per_plan", "count"),
        ("dataflow.self_ms", "ms"),
        ("sim.run_ms", "ms"),
        ("sim.ns_per_task", "ns"),
        ("sim.self_ms", "ms"),
        ("search.tune_ms", "ms"),
        ("search.evaluations", "count"),
        ("search.valid_ratio", "ratio"),
        ("search.best_over_naive", "ratio"),
        ("search.self_ms", "ms"),
        ("workloads.trace_gen_ms", "ms"),
        ("serve.cold_replay_ms", "ms"),
        ("serve.plan_ms_per_miss", "ms"),
        ("serve.ns_per_event", "ns"),
        ("serve.cache_hit_ratio", "ratio"),
        ("serve.telemetry_ns_per_event", "ns"),
        ("serve.self_ms", "ms"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_owned(), u))
    .collect();
    for rate in serve_mixed::LADDER_RPS {
        for (field, unit) in serve_mixed::RATE_FIELDS {
            names.push((serve_mixed::rate_metric(rate, field), unit));
        }
    }
    for kernel in decode_kernels::KERNELS {
        names.push((
            format!("tensor.{}.{}", kernel.name, kernel.rate_unit_name()),
            kernel.rate_unit(),
        ));
        names.push((format!("tensor.{}.roofline_frac", kernel.name), "ratio"));
    }
    names.push(("tensor.golden_max_abs_err".to_owned(), "abs"));
    names.push(("tensor.self_ms".to_owned(), "ms"));
    names
}

/// Renders a number for JSON (non-finite values, which would be invalid
/// JSON, become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: mas-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Pinned before any crate touches the pool (the pool reads it once).
    std::env::set_var("MAS_RAYON_THREADS", POOL_WIDTH.to_string());

    let fingerprint = Fingerprint::read();
    let roof_start = Roofline::probe();
    println!(
        "# mas-perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("host start: {fingerprint} {roof_start}");

    let mut tracer = Tracer::new(args.trace);
    let mut clock = Clock::new();
    let run = match args.workload.as_str() {
        "plan-search" => plan_search::run(args.seed, args.seconds, &mut tracer, &mut clock),
        "serve-mixed" => serve_mixed::run(args.seed, args.seconds, &mut tracer, &mut clock),
        _ => decode_kernels::run(
            args.seed,
            args.seconds,
            &mut tracer,
            &mut clock,
            &roof_start,
        ),
    };
    // The modeled scorecard is computed after the timed loop so it adds
    // nothing to the host metrics; every workload reports the same values.
    let plan_model = plan_search::modeled(args.seed);
    let serve_model = serve_mixed::modeled(args.seed);
    let roof_end = Roofline::probe();
    println!("host end:   {} {roof_end}", Fingerprint::read());

    let timed = &run.timed;
    for e in run.setup_failures.iter().chain(&timed.errors) {
        println!("FAILED: {e}");
    }
    if timed.plain.is_empty() {
        println!("FAILED: set-up never succeeded, nothing was timed");
        return ExitCode::FAILURE;
    }
    let failed = timed.failed + run.setup_failures.len();
    let attempted = timed.attempted + run.setup_failures.len();
    let correct = failed == 0;

    let (setup_raw, setup) = summaries(&run.setup, &clock).expect("at least one set-up");
    println!("setup wall: {}", setup_raw.line(1.0, "s"));
    println!("setup at reference speed: {}", setup.line(1.0, "s"));
    let cal = Summary::of(&clock.cal_s).expect("calibrations");
    println!(
        "calibration kernel: {} (reference {} ms)",
        cal.line(1e3, "ms"),
        CAL_REF_S * 1e3
    );
    let (ops_raw, ops) = summaries(&timed.plain, &clock).expect("at least one untraced op");
    println!("op wall: {}", ops_raw.line(1e3, "ms"));
    println!("op at reference speed: {}", ops.line(1e3, "ms"));
    let work_per_s = run.work_per_op / ops.median;
    println!(
        "work: {} {} per op; {:.1} {}/s at the median op (reference speed), {:.1} at the median wall op",
        run.work_per_op,
        run.work_unit,
        work_per_s,
        run.work_unit,
        run.work_per_op / ops_raw.median,
    );
    plan_model.print();
    serve_model.print();

    let metrics: Vec<Metric> = if args.trace {
        let (_, traced) = summaries(&timed.traced, &clock).expect("traced ops");
        println!("traced op at reference speed: {}", traced.line(1e3, "ms"));
        let mut measured = run.layers;
        measured.push(Metric::new("host.copy_gbps", roof_start.copy_gbps, "GB/s"));
        measured.push(Metric::new(
            "host.dot_gflops",
            roof_start.dot_gflops,
            "GFLOP/s",
        ));
        measured.push(Metric::new(
            "trace.overhead_frac",
            traced.median / ops.median - 1.0,
            "ratio",
        ));
        for (layer, name) in [
            ("planner", "planner.self_ms"),
            ("dataflow", "dataflow.self_ms"),
            ("sim", "sim.self_ms"),
            ("search", "search.self_ms"),
            ("serve", "serve.self_ms"),
            ("tensor", "tensor.self_ms"),
        ] {
            let per_op = tracer.layer_self_per_op(layer);
            if !per_op.is_empty() {
                measured.push(Metric::new(name, stats::median(&per_op) / 1e6, "ms"));
            }
        }
        write_spans(&args, &tracer);
        layer_catalogue()
            .into_iter()
            .map(|(name, unit)| {
                let value = measured
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                Metric::new(name, value, unit)
            })
            .collect()
    } else {
        let ok_ratio = (attempted - failed) as f64 / attempted as f64;
        let mut m = vec![
            Metric::new("setup_s", setup.median, "s"),
            Metric::new("peak_rss_mib", run.peak_rss_mib, "MiB"),
            Metric::new("work_per_s", work_per_s, "work/s"),
            Metric::new("op_ms_tail", ops.tail * 1e3, "ms"),
            Metric::new("ok_ratio", ok_ratio, "ratio"),
        ];
        m.extend(plan_model.metrics());
        m.extend(serve_model.metrics());
        m
    };
    for m in &metrics {
        println!("metric {} = {} {}", m.name, json_number(m.value), m.unit);
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the traced run's spans as JSON lines under the benchmark's own
/// `out/` directory. Best effort: a read-only tree only loses the file.
fn write_spans(args: &Args, tracer: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json_lines()))
    {
        Ok(()) => println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => println!("spans: {} kept, not written ({e})", tracer.spans().len()),
    }
}
