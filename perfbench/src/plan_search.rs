//! `plan-search`: the paper's Table 2 sweep plus one quick autotune.
//!
//! One op runs [`Planner::compare_all`] on all 12 Table 1 networks (72
//! heuristic plans built and simulated), then one quick-budget autotune of
//! MAS-Attention on ViT-B/14. The seed drives the tuner. `dataflow`, `sim`
//! and `search` do almost all the work; `serve` and `tensor` do none.
//!
//! A traced op makes the same calls `compare_all` makes, one level down
//! (`plan_tiling`, `build_dataflow`, `Executor::run`), so the spans split
//! planner, dataflow and simulator time. Its results must equal the
//! untraced op's.

use mas_attention::{ComparisonReport, Method, Planner, PlannerConfig, RunResult};
use mas_dataflow::{build_dataflow, AttentionWorkload};
use mas_search::tuner::{AutoTuner, TunerConfig};
use mas_sim::{Executor, SimReport};
use mas_workloads::Network;

use crate::host::{peak_rss_mib, MIB};
use crate::spans::Tracer;
use crate::stats::{geomean, median};
use crate::{timed_loop, Clock, Metric, WorkloadRun, SETUP_REPS};

/// The Table 1 shape the quick autotune runs on.
const TUNE_NETWORK: Network = Network::VitB14;

/// Unit of work: the 72 heuristic plans one sweep builds and simulates.
/// The autotune's evaluation count depends on the seed while its time
/// barely does, so it is part of each op's cost but not counted as work.
pub const WORK_UNIT: &str = "plans";

/// Modeled figures of one sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanModel {
    /// Geomean over the 12 networks of MAS-Attention Mcycles (heuristic
    /// tiling).
    pub mas_mcycles_geomean: f64,
    /// Geomean over the 12 networks of MAS-Attention DRAM read+write MiB.
    pub mas_dram_mib_geomean: f64,
    /// Best Mcycles the quick autotune found on [`TUNE_NETWORK`].
    pub tuned_mcycles: f64,
    /// Table 2 geomean speedup of MAS-Attention over Layer-Wise.
    pub speedup_vs_layerwise: f64,
    /// Table 2 geomean speedup of MAS-Attention over FLAT.
    pub speedup_vs_flat: f64,
}

impl PlanModel {
    /// The gated modeled metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new(
                "sim_mas_mcycles_geomean",
                self.mas_mcycles_geomean,
                "Mcycle",
            ),
            Metric::new("sim_mas_dram_mib_geomean", self.mas_dram_mib_geomean, "MiB"),
            Metric::new("sim_tuned_mcycles", self.tuned_mcycles, "Mcycle"),
        ]
    }

    /// Prints the modeled figures, with the Table 2 speedups as information.
    pub fn print(&self) {
        println!(
            "modeled plan-search: MAS {:.4} Mcycles and {:.4} DRAM MiB (geomean of 12), \
             tuned {} {:.4} Mcycles; Table 2 geomean speedup (information, not gated): \
             {:.2}x vs LayerWise, {:.2}x vs FLAT; no hardware reference in the repository, \
             so no modeling error is given",
            self.mas_mcycles_geomean,
            self.mas_dram_mib_geomean,
            TUNE_NETWORK.name(),
            self.tuned_mcycles,
            self.speedup_vs_layerwise,
            self.speedup_vs_flat,
        )
    }
}

/// Everything one op produced that must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
struct Round {
    /// Per network and method: cycles, DRAM read bytes, DRAM write bytes.
    rows: Vec<(Method, u64, u64, u64)>,
    tuned_cycles: u64,
    naive_over_best: f64,
    evaluations: usize,
    valid: usize,
    distinct: usize,
}

struct PlanSearch {
    planner: Planner,
    networks: Vec<AttentionWorkload>,
    tune: AttentionWorkload,
    seed: u64,
}

impl PlanSearch {
    fn new(seed: u64) -> Self {
        Self {
            planner: Planner::new(PlannerConfig {
                seed,
                ..PlannerConfig::default()
            }),
            networks: Network::all()
                .iter()
                .map(|n| n.attention_workload(1))
                .collect(),
            tune: TUNE_NETWORK.attention_workload(1),
            seed,
        }
    }

    /// One op. Traced ops split `compare_all` into its public steps.
    /// `split` runs after each network (the timed loop passes
    /// [`Clock::split`], so the host's speed is sampled every few tens of
    /// milliseconds of a long op).
    fn round(
        &self,
        tracer: &mut Tracer,
        split: &mut dyn FnMut(),
    ) -> Result<(Round, Vec<ComparisonReport>), String> {
        let mut reports = Vec::with_capacity(self.networks.len());
        for w in &self.networks {
            let report = if tracer.enabled() {
                tracer.span("planner.compare_all", |tr| self.compare_traced(w, tr))
            } else {
                self.planner.compare_all(w)
            };
            reports.push(report.map_err(|e| format!("{}: {e}", w.name))?);
            split();
        }
        let hw = self.planner.hardware();
        let (tuned, cache) = tracer.span("search.tune", |_| {
            AutoTuner::new(TunerConfig::quick(), self.seed).tune_with_cache(
                Method::MasAttention,
                &self.tune,
                hw,
                &[],
            )
        });
        let tuned = tuned.ok_or("the autotune found no valid tiling")?;
        let mut rows = Vec::new();
        for r in &reports {
            for m in r.methods() {
                let row = r.row(m).expect("listed method");
                rows.push((m, row.cycles, row.dram_read_bytes, row.dram_write_bytes));
            }
        }
        let round = Round {
            rows,
            tuned_cycles: tuned.best_cost.cycles,
            naive_over_best: tuned.improvement_over_naive().unwrap_or(0.0),
            evaluations: tuned.evaluations,
            valid: cache.iter().filter(|(_, c)| c.is_some()).count(),
            distinct: cache.len(),
        };
        Ok((round, reports))
    }

    /// `Planner::compare_all`, made of the same public calls, with a span
    /// around each.
    fn compare_traced(
        &self,
        w: &AttentionWorkload,
        tracer: &mut Tracer,
    ) -> mas_sim::Result<ComparisonReport> {
        let hw = self.planner.hardware();
        let config = self.planner.config();
        let mut report = ComparisonReport::new(w.clone());
        for method in Method::all() {
            let tiling = tracer.span("planner.plan_tiling", |_| {
                self.planner.plan_tiling(method, w)
            });
            let schedule =
                tracer.span("dataflow.build", |_| build_dataflow(method, w, &tiling, hw))?;
            let sim: SimReport = tracer.span("sim.run", |_| {
                Executor::new(hw.clone(), config.energy).run(schedule.graph())
            })?;
            report.add(RunResult {
                method,
                tiling,
                build: schedule.stats().clone(),
                report: sim,
            });
        }
        Ok(report)
    }

    fn model(&self, round: &Round, reports: &[ComparisonReport]) -> PlanModel {
        let mas: Vec<&mas_attention::MethodRow> = reports
            .iter()
            .map(|r| r.row(Method::MasAttention).expect("MAS row"))
            .collect();
        let cycles: Vec<f64> = mas.iter().map(|r| r.cycles as f64 / 1e6).collect();
        let dram: Vec<f64> = mas
            .iter()
            .map(|r| (r.dram_read_bytes + r.dram_write_bytes) as f64 / MIB)
            .collect();
        let speedup = |base| mas_attention::report::geomean_speedup(reports, base).unwrap_or(0.0);
        PlanModel {
            mas_mcycles_geomean: geomean(&cycles).unwrap_or(0.0),
            mas_dram_mib_geomean: geomean(&dram).unwrap_or(0.0),
            tuned_mcycles: round.tuned_cycles as f64 / 1e6,
            speedup_vs_layerwise: speedup(Method::LayerWise),
            speedup_vs_flat: speedup(Method::Flat),
        }
    }

    /// Tuned cycles must not exceed the heuristic plan's on the same shape.
    fn check_tuned(&self, round: &Round, reports: &[ComparisonReport]) -> Result<(), String> {
        let heuristic = reports
            .iter()
            .find(|r| r.workload.name == self.tune.name)
            .and_then(|r| r.cycles(Method::MasAttention))
            .ok_or("no heuristic MAS plan for the tuned shape")?;
        if round.tuned_cycles > heuristic {
            return Err(format!(
                "tuned cycles {} exceed the heuristic plan's {heuristic}",
                round.tuned_cycles
            ));
        }
        Ok(())
    }
}

/// The modeled plan-search figures for `seed`.
pub fn modeled(seed: u64) -> PlanModel {
    let bench = PlanSearch::new(seed);
    let (round, reports) = bench
        .round(&mut Tracer::new(false), &mut || {})
        .expect("the Table 1 sweep plans and simulates");
    bench.model(&round, &reports)
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer, clock: &mut Clock) -> WorkloadRun {
    let mut setup = Vec::new();
    let mut setup_failures = Vec::new();
    let mut reference = None;
    for _ in 0..SETUP_REPS {
        // Construction plus one cold op (the warm-up).
        let ((bench, first), sample) = clock.time(|_| {
            let bench = PlanSearch::new(seed);
            let first = bench.round(&mut Tracer::new(false), &mut || {});
            (bench, first)
        });
        setup.push(sample);
        match first {
            Ok((round, reports)) => {
                if let Err(e) = bench.check_tuned(&round, &reports) {
                    setup_failures.push(e);
                }
                if reference.as_ref().is_some_and(|(_, r)| *r != round) {
                    setup_failures.push("set-up rounds disagree".to_owned());
                }
                reference = Some((bench, round));
            }
            Err(e) => setup_failures.push(e),
        }
    }
    let Some((bench, reference)) = reference else {
        return WorkloadRun::failed(setup, setup_failures, WORK_UNIT);
    };

    let timed = timed_loop(seconds, tracer, clock, |tr, clk| {
        let (round, _) = bench.round(tr, &mut || clk.split())?;
        if round != reference {
            return Err("a round's cycles, traffic or tuning differ from the first round's".into());
        }
        Ok(())
    });
    let peak = peak_rss_mib().unwrap_or(0.0);

    let mut layers = Vec::new();
    if tracer.enabled() {
        let per_op_ms = |name: &str| median(&tracer.per_op_ns(name)) / 1e6;
        let plans = (bench.networks.len() * Method::all().len()) as f64;
        // Task counts are a property of the plans; take them from one
        // schedule build per plan.
        let tasks: usize = bench
            .networks
            .iter()
            .flat_map(|w| Method::all().map(move |m| (w, m)))
            .map(|(w, m)| {
                let tiling = bench.planner.plan_tiling(m, w);
                build_dataflow(m, w, &tiling, bench.planner.hardware())
                    .map_or(0, |s| s.graph().len())
            })
            .sum();
        let sim_ms = per_op_ms("sim.run");
        layers.extend([
            Metric::new(
                "planner.compare_all_ms",
                per_op_ms("planner.compare_all"),
                "ms",
            ),
            Metric::new("dataflow.build_ms", per_op_ms("dataflow.build"), "ms"),
            Metric::new("dataflow.tasks_per_plan", tasks as f64 / plans, "count"),
            Metric::new("sim.run_ms", sim_ms, "ms"),
            Metric::new("sim.ns_per_task", sim_ms * 1e6 / tasks as f64, "ns"),
            Metric::new(
                "search.tune_ms",
                median(&tracer.durations("search.tune")) / 1e6,
                "ms",
            ),
            Metric::new("search.evaluations", reference.evaluations as f64, "count"),
            Metric::new(
                "search.valid_ratio",
                reference.valid as f64 / reference.distinct.max(1) as f64,
                "ratio",
            ),
            Metric::new("search.best_over_naive", reference.naive_over_best, "ratio"),
        ]);
    }
    WorkloadRun {
        setup,
        timed,
        work_per_op: reference.rows.len() as f64,
        work_unit: WORK_UNIT,
        peak_rss_mib: peak,
        setup_failures,
        layers,
    }
}
