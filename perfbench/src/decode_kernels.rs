//! `decode-kernels`: the host numerics of `mas_tensor`.
//!
//! One op is a fixed round of kernel calls on BERT-Small shapes (8 heads,
//! embed 64): contiguous f32 and paged f16 `decode_attention` at a context
//! whose KV fits the 2 MiB per-core L2 (256 tokens) and at one that exceeds
//! it (2048 tokens), then `fused_online_attention` and `matmul_nt` on one
//! 512×64 head. Decode sweeps are memory-bound and prefill is
//! compute-bound, so a change trading one for the other shows. This is the
//! only workload that runs host numerics.

use mas_tensor::decode::{decode_attention, KvCache};
use mas_tensor::golden::{golden_check, Tolerance};
use mas_tensor::half::KvDtype;
use mas_tensor::init::{random_qkv, random_tensor};
use mas_tensor::matmul::matmul_nt;
use mas_tensor::paged::{decode_attention_paged, KvBlockPool, PagedKvCache};
use mas_tensor::tiled::{fused_online_attention, TileSizes};
use mas_tensor::{Shape, Tensor};

use crate::host::{peak_rss_mib, Roofline};
use crate::spans::Tracer;
use crate::stats::median;
use crate::{timed_loop, Clock, Metric, WorkloadRun, SETUP_REPS};

const HEADS: usize = 8;
const EMBED: usize = 64;
const BLOCK_TOKENS: usize = 16;
/// Decode contexts: KV inside and beyond the per-core L2.
const CONTEXTS: [usize; 2] = [256, 2048];
/// Prefill head shape and its tiles.
const SEQ: usize = 512;
const TILE: usize = 64;

/// Unit of work: attention scores (query × key × head) computed.
pub const WORK_UNIT: &str = "scores";

/// What a kernel computes, for its work and rate figures.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// One decode step over `ctx` cached tokens of `elem_bytes`-wide KV.
    Decode {
        /// Context length.
        ctx: usize,
        /// Bytes per stored KV element.
        elem_bytes: usize,
    },
    /// Fused online-softmax attention on one `SEQ × EMBED` head.
    Fused,
    /// `Q · Kᵀ` on one `SEQ × EMBED` head.
    Matmul,
}

/// One timed kernel call.
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    /// Metric stem, `tensor.<name>.*`.
    pub name: &'static str,
    /// Span name.
    pub span: &'static str,
    /// What it computes.
    pub kind: Kind,
}

impl Kernel {
    /// Attention scores one call computes.
    #[must_use]
    pub fn scores(&self) -> usize {
        match self.kind {
            Kind::Decode { ctx, .. } => HEADS * ctx,
            Kind::Fused | Kind::Matmul => SEQ * SEQ,
        }
    }

    /// Bytes streamed (decode) or floating-point operations (prefill) per
    /// call: the numerator of the kernel's rate.
    #[must_use]
    pub fn work(&self) -> f64 {
        match self.kind {
            Kind::Decode { ctx, elem_bytes } => (2 * ctx * HEADS * EMBED * elem_bytes) as f64,
            Kind::Fused => (4 * SEQ * SEQ * EMBED) as f64,
            Kind::Matmul => (2 * SEQ * SEQ * EMBED) as f64,
        }
    }

    /// Metric suffix of the rate.
    #[must_use]
    pub fn rate_unit_name(&self) -> &'static str {
        match self.kind {
            Kind::Decode { .. } => "gbps",
            Kind::Fused | Kind::Matmul => "gflops",
        }
    }

    /// Unit of the rate.
    #[must_use]
    pub fn rate_unit(&self) -> &'static str {
        match self.kind {
            Kind::Decode { .. } => "GB/s",
            Kind::Fused | Kind::Matmul => "GFLOP/s",
        }
    }

    /// The kernel's rate as a fraction of the host's roofline.
    fn roofline_frac(&self, rate: f64, roof: &Roofline) -> f64 {
        match self.kind {
            Kind::Decode { .. } => rate / roof.copy_gbps,
            Kind::Fused | Kind::Matmul => rate / roof.dot_gflops,
        }
    }
}

/// The round, in call order.
pub const KERNELS: [Kernel; 6] = [
    Kernel {
        name: "decode_contig_f32.ctx256",
        span: "tensor.decode_contig_f32.ctx256",
        kind: Kind::Decode {
            ctx: CONTEXTS[0],
            elem_bytes: 4,
        },
    },
    Kernel {
        name: "decode_contig_f32.ctx2048",
        span: "tensor.decode_contig_f32.ctx2048",
        kind: Kind::Decode {
            ctx: CONTEXTS[1],
            elem_bytes: 4,
        },
    },
    Kernel {
        name: "decode_paged_f16.ctx256",
        span: "tensor.decode_paged_f16.ctx256",
        kind: Kind::Decode {
            ctx: CONTEXTS[0],
            elem_bytes: 2,
        },
    },
    Kernel {
        name: "decode_paged_f16.ctx2048",
        span: "tensor.decode_paged_f16.ctx2048",
        kind: Kind::Decode {
            ctx: CONTEXTS[1],
            elem_bytes: 2,
        },
    },
    Kernel {
        name: "prefill_fused",
        span: "tensor.prefill_fused",
        kind: Kind::Fused,
    },
    Kernel {
        name: "matmul_nt",
        span: "tensor.matmul_nt",
        kind: Kind::Matmul,
    },
];

/// Inputs, caches and the reference outputs every op must reproduce.
struct Kernels {
    q_step: Vec<f32>,
    contig: Vec<KvCache>,
    pool: KvBlockPool,
    paged: Vec<PagedKvCache>,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    tiles: TileSizes,
    /// Reference output of each kernel, flattened.
    expected: Vec<Vec<f32>>,
    /// Largest deviation found by the golden checks.
    golden_max_abs_err: f64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Kernels {
    /// Generates the inputs, fills the caches and runs the golden checks:
    /// paged f16 decode equals contiguous f16 decode bitwise, f16 decode is
    /// within `Tolerance::half_precision` of f32, the fused prefill matches
    /// the reference attention, and `matmul_nt` matches an f64 dot.
    fn new(seed: u64) -> Result<Self, String> {
        let tokens = CONTEXTS[1];
        let kv_shape = Shape::new(1, 1, tokens, HEADS * EMBED).map_err(err)?;
        let keys = random_tensor(kv_shape, 1.0, seed.wrapping_mul(5).wrapping_add(1));
        let values = random_tensor(kv_shape, 1.0, seed.wrapping_mul(5).wrapping_add(2));
        let q_shape = Shape::new(1, 1, 1, HEADS * EMBED).map_err(err)?;
        let q_step = random_tensor(q_shape, 0.125, seed.wrapping_mul(5).wrapping_add(3))
            .data()
            .to_vec();
        let row = |t: &Tensor, i: usize| t.row(0, 0, i).to_vec();

        let mut contig = Vec::new();
        let mut contig_f16 = Vec::new();
        let mut pool = KvBlockPool::new(BLOCK_TOKENS, HEADS, EMBED).with_dtype(KvDtype::F16);
        let mut paged = Vec::new();
        for ctx in CONTEXTS {
            let mut c32 = KvCache::new(HEADS, EMBED);
            let mut c16 = KvCache::new(HEADS, EMBED).with_dtype(KvDtype::F16);
            let mut p16 = PagedKvCache::new(HEADS, HEADS, EMBED, BLOCK_TOKENS).map_err(err)?;
            for i in 0..ctx {
                let (k, v) = (row(&keys, i), row(&values, i));
                c32.append(&k, &v).map_err(err)?;
                c16.append(&k, &v).map_err(err)?;
                p16.append(&mut pool, &k, &v).map_err(err)?;
            }
            contig.push(c32);
            contig_f16.push(c16);
            paged.push(p16);
        }

        let (q, k, v) = random_qkv(1, 1, SEQ, EMBED, seed);
        let tiles = TileSizes::new(TILE, TILE, SEQ).map_err(err)?;
        let mut bench = Self {
            q_step,
            contig,
            pool,
            paged,
            q,
            k,
            v,
            tiles,
            expected: Vec::new(),
            golden_max_abs_err: 0.0,
        };
        bench.expected = (0..KERNELS.len())
            .map(|i| bench.call(i))
            .collect::<Result<_, _>>()?;

        let half = Tolerance::half_precision();
        for (c, ctx) in CONTEXTS.iter().enumerate() {
            let mut out16 = vec![0.0f32; HEADS * EMBED];
            decode_attention(&contig_f16[c], &bench.q_step, &mut out16).map_err(err)?;
            let paged_out = &bench.expected[2 + c];
            if out16
                .iter()
                .zip(paged_out)
                .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                return Err(format!(
                    "ctx {ctx}: paged f16 decode differs from contiguous f16"
                ));
            }
            for (a, b) in paged_out.iter().zip(&bench.expected[c]) {
                bench.golden_max_abs_err = bench.golden_max_abs_err.max(f64::from((a - b).abs()));
                if !half.matches(*a, *b) {
                    return Err(format!(
                        "ctx {ctx}: f16 decode {a} vs f32 {b} beyond half precision"
                    ));
                }
            }
        }
        let reference = mas_tensor::attention::reference_attention(&bench.q, &bench.k, &bench.v)
            .map_err(err)?;
        let fused = Tensor::from_vec(*reference.shape(), bench.expected[4].clone()).map_err(err)?;
        let report = golden_check(&fused, &reference, Tolerance::default()).map_err(err)?;
        bench.golden_max_abs_err = bench.golden_max_abs_err.max(f64::from(report.max_abs_diff));
        if !report.passed {
            return Err(format!("fused prefill fails the golden check: {report:?}"));
        }
        let scores = &bench.expected[5];
        for i in 0..SEQ {
            for j in 0..SEQ {
                let exact: f64 = bench
                    .q
                    .row(0, 0, i)
                    .iter()
                    .zip(bench.k.row(0, 0, j))
                    .map(|(a, b)| f64::from(*a) * f64::from(*b))
                    .sum();
                let got = scores[i * SEQ + j];
                bench.golden_max_abs_err =
                    bench.golden_max_abs_err.max((f64::from(got) - exact).abs());
                if !Tolerance::default().matches(got, exact as f32) {
                    return Err(format!("matmul_nt[{i},{j}] = {got}, exact {exact}"));
                }
            }
        }
        Ok(bench)
    }

    /// Calls kernel `i` of [`KERNELS`], returning its output.
    fn call(&self, i: usize) -> Result<Vec<f32>, String> {
        let mut out = vec![0.0f32; HEADS * EMBED];
        match i {
            0 | 1 => decode_attention(&self.contig[i], &self.q_step, &mut out).map_err(err)?,
            2 | 3 => decode_attention_paged(&self.pool, &self.paged[i - 2], &self.q_step, &mut out)
                .map_err(err)?,
            4 => {
                out = fused_online_attention(&self.q, &self.k, &self.v, self.tiles)
                    .map_err(err)?
                    .data()
                    .to_vec();
            }
            _ => out = matmul_nt(&self.q, &self.k).map_err(err)?.data().to_vec(),
        }
        Ok(out)
    }

    /// One op: every kernel once, each output bitwise equal to set-up's.
    fn round(&self, tracer: &mut Tracer) -> Result<(), String> {
        for (i, kernel) in KERNELS.iter().enumerate() {
            let out = tracer.span(kernel.span, |_| self.call(i))?;
            if out
                .iter()
                .zip(&self.expected[i])
                .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                return Err(format!(
                    "{} output differs from the set-up output",
                    kernel.name
                ));
            }
        }
        Ok(())
    }
}

/// Runs the workload.
pub fn run(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    clock: &mut Clock,
    roof: &Roofline,
) -> WorkloadRun {
    let mut setup = Vec::new();
    let mut setup_failures = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (bench, sample) = clock.time(|_| Kernels::new(seed));
        setup.push(sample);
        match bench {
            Ok(b) => last = Some(b),
            Err(e) => setup_failures.push(e),
        }
    }
    let Some(bench) = last else {
        return WorkloadRun::failed(setup, setup_failures, WORK_UNIT);
    };
    let timed = timed_loop(seconds, tracer, clock, |tr, _| bench.round(tr));
    let peak = peak_rss_mib().unwrap_or(0.0);

    let mut layers = Vec::new();
    if tracer.enabled() {
        for kernel in KERNELS {
            let rate = kernel.work() / median(&tracer.durations(kernel.span));
            layers.push(Metric::new(
                format!("tensor.{}.{}", kernel.name, kernel.rate_unit_name()),
                rate,
                kernel.rate_unit(),
            ));
            layers.push(Metric::new(
                format!("tensor.{}.roofline_frac", kernel.name),
                kernel.roofline_frac(rate, roof),
                "ratio",
            ));
        }
        layers.push(Metric::new(
            "tensor.golden_max_abs_err",
            bench.golden_max_abs_err,
            "abs",
        ));
    }
    WorkloadRun {
        setup,
        timed,
        work_per_op: KERNELS.iter().map(Kernel::scores).sum::<usize>() as f64,
        work_unit: WORK_UNIT,
        peak_rss_mib: peak,
        setup_failures,
        layers,
    }
}
