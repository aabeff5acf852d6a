//! Host fingerprint, the L0 roofline probe and process memory.

use std::hint::black_box;
use std::time::Instant;

use mas_tensor::simd;

/// Bytes in one MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Copy-probe buffer: twice the 2 MiB per-core L2, so the probe streams
/// through the outer cache level, like the decode sweeps it is the roof of;
/// small enough that the probe does not set the process's peak memory.
const COPY_BYTES: usize = 4 << 20;
/// Dot-probe operands: one 64-wide query against 256 rows (64 KiB, cache
/// resident), so the probe measures arithmetic, not memory.
const DOT_EMBED: usize = 64;
const DOT_ROWS: usize = 256;
/// Repetitions per probe; the probe reports the fastest.
const PROBE_REPS: usize = 7;

/// What the run's numbers depend on besides the code.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Logical CPUs the process may use.
    pub nproc: usize,
    /// Width of the worker pool every crate fans out on.
    pub pool_width: usize,
    /// The dispatched SIMD backend.
    pub simd_backend: &'static str,
    /// Toolchain the benchmark was built with.
    pub rustc: &'static str,
    /// Source revision ("unknown" outside a git checkout).
    pub git_sha: &'static str,
}

impl Fingerprint {
    /// Reads the fingerprint of this process.
    #[must_use]
    pub fn read() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            pool_width: rayon::current_num_threads(),
            simd_backend: simd::backend(),
            rustc: env!("PERFBENCH_RUSTC"),
            git_sha: env!("PERFBENCH_GIT_SHA"),
        }
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nproc={} pool_width={} simd={} rustc=\"{}\" git={}",
            self.nproc, self.pool_width, self.simd_backend, self.rustc, self.git_sha
        )
    }
}

/// The host's own roofline: streaming copy bandwidth and 8-lane dot rate.
#[derive(Debug, Clone, Copy)]
pub struct Roofline {
    /// Copy bandwidth, counting bytes read plus bytes written, in GB/s.
    pub copy_gbps: f64,
    /// `simd::dot_many` rate in GFLOP/s (a multiply and an add per element).
    pub dot_gflops: f64,
}

impl Roofline {
    /// Measures both probes, best of [`PROBE_REPS`] each.
    #[must_use]
    pub fn probe() -> Self {
        let words = COPY_BYTES / 4;
        let src: Vec<f32> = (0..words).map(|i| (i % 1024) as f32).collect();
        let mut dst = vec![0.0f32; words];
        let mut best_copy = f64::INFINITY;
        for _ in 0..PROBE_REPS {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            best_copy = best_copy.min(t.elapsed().as_secs_f64());
        }

        let x: Vec<f32> = (0..DOT_EMBED).map(|i| i as f32 * 1e-3).collect();
        let rows: Vec<f32> = (0..DOT_EMBED * DOT_ROWS)
            .map(|i| (i % 97) as f32 * 1e-3)
            .collect();
        let mut out = vec![0.0f32; DOT_ROWS];
        const INNER: usize = 2000;
        let mut best_dot = f64::INFINITY;
        for _ in 0..PROBE_REPS {
            let t = Instant::now();
            for _ in 0..INNER {
                simd::dot_many(black_box(&x), black_box(&rows), &mut out);
                black_box(&mut out);
            }
            best_dot = best_dot.min(t.elapsed().as_secs_f64());
        }
        Self {
            copy_gbps: 2.0 * COPY_BYTES as f64 / best_copy / 1e9,
            dot_gflops: 2.0 * (DOT_EMBED * DOT_ROWS * INNER) as f64 / best_dot / 1e9,
        }
    }
}

impl std::fmt::Display for Roofline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "copy={:.2} GB/s dot_many={:.2} GFLOP/s",
            self.copy_gbps, self.dot_gflops
        )
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / MIB)
}

/// A fixed piece of work owned by the harness, timed next to every op so
/// the op's cost can be read relative to the host's speed at that moment.
/// It mixes what the workloads do: sorting, tree-map pointer chasing, a
/// cache-sized copy and SIMD dot products.
pub struct Calibration {
    keys: Vec<u64>,
    src: Vec<u8>,
    dst: Vec<u8>,
    x: Vec<f32>,
    rows: Vec<f32>,
    out: Vec<f32>,
}

const CAL_SORT: usize = 32 * 1024;
const CAL_MAP: usize = 4 * 1024;
const CAL_COPY: usize = 2 << 20;
const CAL_DOTS: usize = 100;

impl Calibration {
    /// Allocates the kernel's buffers.
    #[must_use]
    pub fn new() -> Self {
        Self {
            keys: vec![0; CAL_SORT],
            src: (0..CAL_COPY).map(|i| i as u8).collect(),
            dst: vec![0; CAL_COPY],
            x: (0..DOT_EMBED).map(|i| i as f32 * 1e-3).collect(),
            rows: (0..DOT_EMBED * DOT_ROWS)
                .map(|i| (i % 89) as f32 * 1e-3)
                .collect(),
            out: vec![0.0; DOT_ROWS],
        }
    }

    /// Runs the kernel once, returning its duration in seconds.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for k in &mut self.keys {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *k = state >> 11;
        }
        self.keys.sort_unstable();
        let mut map = std::collections::BTreeMap::new();
        for (i, k) in self.keys.iter().step_by(CAL_SORT / CAL_MAP).enumerate() {
            map.insert(k.rotate_left(17), i);
        }
        let hits = self
            .keys
            .iter()
            .filter(|k| map.contains_key(&k.rotate_left(17)))
            .count();
        self.dst.copy_from_slice(black_box(&self.src));
        for _ in 0..CAL_DOTS {
            simd::dot_many(black_box(&self.x), black_box(&self.rows), &mut self.out);
        }
        black_box((hits, &self.dst, &self.out));
        t.elapsed().as_secs_f64()
    }
}
