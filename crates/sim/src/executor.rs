//! Event-driven list-scheduling executor.
//!
//! The executor assigns each task of a [`TaskGraph`] to its required
//! [`Resource`] as soon as (a) every dependency has finished and (b) the
//! resource is idle, breaking ties by priority and then program order
//! (insertion order; see the determinism contract below). This mirrors how
//! the paper's dataflows are issued on the device: each compute unit
//! processes its stream of tiled tasks in order, and the semi-synchronous
//! dependencies between the MAC and VEC streams are expressed as edges in
//! the graph.
//!
//! The result is a [`SimReport`] containing the makespan, energy breakdown,
//! DRAM traffic, per-resource busy time and MAC/VEC overlap.
//!
//! # Determinism contract
//!
//! The start order fixes every figure of the report, including the f64
//! energy sums (accumulated in start order) and the order of trace entries.
//! It is defined by three rules:
//!
//! 1. **Slots in display-name order.** At each event time the scheduler
//!    visits the resources the graph uses sorted by their display name
//!    (`"DMA-in" < "DMA-out" < "MAC0" < "MAC1" < "MAC10" < "MAC2" < … <
//!    "VEC0" < …`; the order is lexicographic, not numeric).
//! 2. **`(priority, program order)` within a slot.** An idle slot starts its
//!    ready task with the smallest `(priority, index)` key. Compute tasks have
//!    priority = their index; DMA tasks take their earliest dependent's index,
//!    or `usize::MAX - n + index` when nothing depends on them.
//! 3. **One start per slot per pass.** A pass starts at most one task on each
//!    idle slot; passes repeat while any slot started one, so a zero-duration
//!    task frees its slot for the next pass at the same cycle. Dependents
//!    become ready only when time advances past their last dependency's end.
//!
//! # Cost
//!
//! Each run resolves every task's [`Resource`] once into a dense slot index
//! (slots sorted once by name) and keeps one binary-heap ready queue, one
//! busy-until time and one busy-cycle counter per slot; the dependency edges
//! are held in compressed rows. The scheduling loop allocates nothing per
//! task beyond the trace entry itself, and the report's name-keyed
//! `busy_cycles` map is built once at the end. On a 2-vCPU x86-64 host a
//! run costs about 0.1–0.15 µs per task without a trace (BERT-Base graphs of
//! 504–890 tasks) and about 0.25 µs per task with one (the Table 2 sweep).
//!
//! # Track scheduling (continuous time)
//!
//! Alongside the cycle-level list scheduler, this module hosts the
//! continuous-time *track executor*, the serve engine's one device
//! timeline: [`DeviceTracks`], a set of per-queue clocks ([`TrackKind`]:
//! DMA-in, MAC, VEC, writeback) over which a launch's per-tile stage
//! demands are flow-shop scheduled. A device is free at its largest track
//! clock ([`DeviceTracks::free_s`]). Its invariants:
//!
//! - **Ready rule.** Stage `k`'s work on track `t` starts no earlier than
//!   (a) the launch's ready time, (b) the completion of stage `k`'s work on
//!   track `t − 1` (dataflow order: a tile must be streamed in before it is
//!   multiplied, reduced before it is written back), and (c) the track's own
//!   clock.
//! - **Per-track FIFO.** Each track serializes the work placed on it in
//!   placement order; placements never reorder and never preempt. Spans on
//!   one track therefore never overlap, while spans on *different* tracks
//!   of the same device may — that is the overlap the scalar model forbids.
//! - **Overlap bound.** A flow-shop schedule's makespan is at least the
//!   largest single-track total (no queue can be beaten) and at most the
//!   sum of all stage durations (the fully serialized schedule); it is
//!   monotone in every stage duration.
//! - **Scalar clamp.** [`DeviceTracks::place`] is the one placement rule.
//!   Every launch also has a scalar span: the whole device from
//!   `max(free, ready)` for its scalar service time. The flow-shop schedule
//!   commits only when it finishes strictly earlier than that span;
//!   otherwise the launch takes the scalar span, which moves every clock to
//!   its completion, and its stage seconds still count toward the per-track
//!   busy figures. Placed makespans are therefore never worse than the
//!   scalar model's on any launch sequence, and a launch placed without
//!   stage demands is exactly the scalar model.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::config::HardwareConfig;
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::error::{Result, SimError};
use crate::graph::TaskGraph;
use crate::report::SimReport;
use crate::task::{Resource, Task, TrackKind, TRACK_COUNT};
use crate::timing::TimingModel;
use crate::trace::{Trace, TraceEntry};

/// Simulates task graphs on a configured device.
#[derive(Debug, Clone)]
pub struct Executor {
    timing: TimingModel,
    energy: EnergyModel,
    record_trace: bool,
}

impl Executor {
    /// Creates an executor for the given hardware and energy model.
    #[must_use]
    pub fn new(hw: HardwareConfig, energy: EnergyModel) -> Self {
        Self {
            timing: TimingModel::new(hw),
            energy,
            record_trace: true,
        }
    }

    /// Creates an executor with the default edge device and energy model.
    #[must_use]
    pub fn edge_default() -> Self {
        Self::new(HardwareConfig::edge_default(), EnergyModel::edge_16nm())
    }

    /// Disables trace recording (saves memory for very large sweeps).
    #[must_use]
    pub fn without_trace(mut self) -> Self {
        self.record_trace = false;
        self
    }

    /// The hardware configuration used by this executor.
    #[must_use]
    pub fn hardware(&self) -> &HardwareConfig {
        self.timing.hardware()
    }

    /// The timing model used by this executor.
    #[must_use]
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Runs a task graph to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyGraph`] for an empty graph, graph validation
    /// errors ([`SimError::UnknownDependency`], [`SimError::CyclicGraph`]),
    /// [`SimError::UnknownResource`] if a task names a core the device does
    /// not have, or [`SimError::InvalidConfig`] for a bad configuration.
    pub fn run(&self, graph: &TaskGraph) -> Result<SimReport> {
        let hw = self.timing.hardware();
        hw.validate()?;
        if graph.is_empty() {
            return Err(SimError::EmptyGraph);
        }
        let dependents = graph.checked_dependents()?;
        for task in graph.iter() {
            if let Some(core) = task.resource.core() {
                if core >= hw.cores {
                    return Err(SimError::UnknownResource {
                        resource: task.resource,
                        cores: hw.cores,
                    });
                }
            }
        }

        let n = graph.len();
        let tasks = graph.tasks();
        let mut remaining_deps: Vec<usize> = tasks.iter().map(|t| t.deps.len()).collect();

        // Scheduling priority. Compute units issue their stream in program
        // order (the order the dataflow intends). DMA channels are
        // demand-driven: transfers whose consumer comes earliest in program
        // order are served first, which models double-buffered prefetching
        // that follows the compute streams instead of blindly following the
        // order requests were queued.
        let priority: Vec<usize> = tasks
            .iter()
            .enumerate()
            .map(|(i, task)| match task.resource {
                Resource::DmaIn | Resource::DmaOut => dependents
                    .of(i)
                    .iter()
                    .copied()
                    .min()
                    .unwrap_or(usize::MAX - n + i),
                _ => i,
            })
            .collect();

        // Resolve every task's resource to a dense slot, slots ordered by
        // display name.
        let slots = Slots::resolve(tasks, hw.cores);
        let slot_count = slots.resources.len();

        // Per-slot ready heaps keyed by (priority, program order); the keys
        // are unique, so each pop is deterministic.
        let mut ready: Vec<BinaryHeap<Reverse<(usize, usize)>>> =
            vec![BinaryHeap::new(); slot_count];
        for (i, &deps) in remaining_deps.iter().enumerate() {
            if deps == 0 {
                ready[slots.of_task[i]].push(Reverse((priority[i], i)));
            }
        }

        // Running tasks by (end cycle, program order), earliest first.
        let mut running: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let mut busy_until = vec![0u64; slot_count];
        let mut busy_cycles = vec![0u64; slot_count];
        let mut trace = Trace::new();
        let mut energy = EnergyBreakdown::zero();
        let mut completed = 0usize;
        let mut now: u64 = 0;
        let mut mac_intervals: Vec<(u64, u64)> = Vec::new();
        let mut vec_intervals: Vec<(u64, u64)> = Vec::new();
        let mut finished: Vec<usize> = Vec::new();

        while completed < n {
            // Start every task that can start at the current time: one start
            // per idle slot per pass, repeated while any slot started one
            // (a zero-duration task frees its slot within the same cycle).
            let mut started_any = true;
            while started_any {
                started_any = false;
                for slot in 0..slot_count {
                    if busy_until[slot] > now {
                        continue;
                    }
                    let Some(Reverse((_, index))) = ready[slot].pop() else {
                        continue;
                    };
                    let task = &tasks[index];
                    let duration = self.timing.task_cycles(&task.kind);
                    let start = now;
                    let end = start + duration;
                    busy_until[slot] = end;
                    busy_cycles[slot] += duration;
                    running.push(Reverse((end, index)));
                    energy.accumulate(&self.energy.task_energy(
                        &task.kind,
                        hw.element_bytes,
                        hw.softmax_ops_per_element,
                    ));
                    if duration > 0 {
                        match task.resource {
                            Resource::Mac { .. } => mac_intervals.push((start, end)),
                            Resource::Vec { .. } => vec_intervals.push((start, end)),
                            _ => {}
                        }
                    }
                    if self.record_trace {
                        trace.push(TraceEntry {
                            task: task.id,
                            label: task.label.clone(),
                            resource: task.resource,
                            start_cycle: start,
                            end_cycle: end,
                        });
                    }
                    started_any = true;
                }
            }

            // Advance time to the next completion.
            let Some(Reverse((end, index))) = running.pop() else {
                // No running tasks and nothing could start: the graph was
                // validated acyclic, so this indicates an internal error.
                return Err(SimError::CyclicGraph {
                    unscheduled: n - completed,
                });
            };
            now = now.max(end);
            finished.clear();
            finished.push(index);
            while let Some(&Reverse((end, index))) = running.peek() {
                if end > now {
                    break;
                }
                running.pop();
                finished.push(index);
            }
            for &index in &finished {
                completed += 1;
                for &dep_index in dependents.of(index) {
                    remaining_deps[dep_index] -= 1;
                    if remaining_deps[dep_index] == 0 {
                        ready[slots.of_task[dep_index]]
                            .push(Reverse((priority[dep_index], dep_index)));
                    }
                }
            }
        }

        let total_cycles = busy_until.iter().copied().max().unwrap_or(0);
        let overlap = interval_overlap(&mut mac_intervals, &mut vec_intervals);
        let busy_cycles = slots
            .resources
            .iter()
            .zip(busy_cycles)
            .map(|(resource, cycles)| (resource.to_string(), cycles))
            .collect();

        Ok(SimReport {
            total_cycles,
            total_seconds: hw.cycles_to_seconds(total_cycles),
            energy,
            dram_read_bytes: graph.dram_read_bytes(),
            dram_write_bytes: graph.dram_write_bytes(),
            mac_ops: graph.total_mac_ops(),
            vec_ops: graph.total_vec_ops(hw.softmax_ops_per_element),
            busy_cycles,
            tasks_executed: n,
            mac_vec_overlap_cycles: overlap,
            trace: if self.record_trace { Some(trace) } else { None },
        })
    }
}

/// The dense resource slots of one run: the distinct resources a graph
/// uses, sorted by display name, and each task's slot index.
struct Slots {
    /// Slot → resource, in display-name order (`"DMA-in" < "DMA-out" <
    /// "MAC0" < "MAC10" < "MAC2" < … < "VEC0"`).
    resources: Vec<Resource>,
    /// Task index → slot index.
    of_task: Vec<usize>,
}

impl Slots {
    /// Resolves every task's resource to a slot. `cores` bounds the core
    /// index of every compute resource (checked by the caller).
    fn resolve(tasks: &[Task], cores: usize) -> Self {
        // Direct-mapped key per resource: DMA-in, DMA-out, then MAC/VEC
        // pairs per core.
        let key = |resource: Resource| match resource {
            Resource::DmaIn => 0,
            Resource::DmaOut => 1,
            Resource::Mac { core } => 2 + 2 * core,
            Resource::Vec { core } => 3 + 2 * core,
        };
        let mut present: Vec<Option<Resource>> = vec![None; 2 + 2 * cores];
        for task in tasks {
            present[key(task.resource)] = Some(task.resource);
        }
        let mut resources: Vec<Resource> = present.into_iter().flatten().collect();
        resources.sort_by_cached_key(Resource::to_string);
        let mut slot_of_key = vec![usize::MAX; 2 + 2 * cores];
        for (slot, &resource) in resources.iter().enumerate() {
            slot_of_key[key(resource)] = slot;
        }
        let of_task = tasks.iter().map(|t| slot_of_key[key(t.resource)]).collect();
        Self { resources, of_task }
    }
}

/// Computes the number of cycles covered by both interval sets (union of set A
/// intersected with union of set B). Sorts both slices in place.
pub(crate) fn interval_overlap(a: &mut [(u64, u64)], b: &mut [(u64, u64)]) -> u64 {
    let merged_a = merge_intervals(a);
    let merged_b = merge_intervals(b);
    let mut i = 0;
    let mut j = 0;
    let mut total = 0u64;
    while i < merged_a.len() && j < merged_b.len() {
        let (sa, ea) = merged_a[i];
        let (sb, eb) = merged_b[j];
        let start = sa.max(sb);
        let end = ea.min(eb);
        if end > start {
            total += end - start;
        }
        if ea < eb {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

fn merge_intervals(v: &mut [(u64, u64)]) -> Vec<(u64, u64)> {
    v.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(v.len());
    for &(s, e) in v.iter() {
        if let Some(last) = out.last_mut() {
            if s <= last.1 {
                last.1 = last.1.max(e);
                continue;
            }
        }
        out.push((s, e));
    }
    out
}

/// Configuration of the overlap-aware track executor: how a launch's
/// demand is tiled into pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackConfig {
    /// Number of pipeline stages (tiles) a launch's demand is split into.
    /// More stages expose more cross-stage overlap (tile `k+1`'s DMA under
    /// tile `k`'s compute) at zero modeled cost; clamped to ≥ 1.
    pub stages: usize,
}

impl Default for TrackConfig {
    /// Four pipeline stages: enough tiling to hide the issue/stream
    /// latencies without fragmenting the trace.
    fn default() -> Self {
        Self { stages: 4 }
    }
}

/// One scheduled stage span of a committed track placement, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSpan {
    /// The queue the span occupies.
    pub track: TrackKind,
    /// Pipeline stage index, `0..stages`.
    pub stage: usize,
    /// Span start time (seconds).
    pub start_s: f64,
    /// Span end time (seconds).
    pub end_s: f64,
}

/// Where [`DeviceTracks::place`] put one launch.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackPlacement {
    /// When the launch begins (≥ its ready time).
    pub start_s: f64,
    /// When the launch ends.
    pub completion_s: f64,
    /// The launch's service time: the scalar service on a scalar commit,
    /// `completion_s − start_s` on a flow-shop commit.
    pub service_s: f64,
    /// Every non-empty stage span, in schedule order, when the flow-shop
    /// schedule was committed; `None` for a scalar commit.
    pub stages: Option<Vec<StageSpan>>,
}

/// A flow-shop schedule of one launch, computed by [`DeviceTracks::plan`]
/// and applied by [`DeviceTracks::commit`].
#[derive(Debug, Clone, PartialEq)]
struct FlowShop {
    start_s: f64,
    completion_s: f64,
    /// Track clocks after the placement (what `commit` installs).
    clocks_after: [f64; TRACK_COUNT],
    /// Per-track busy seconds this placement adds.
    busy_added: [f64; TRACK_COUNT],
    stages: Vec<StageSpan>,
}

/// Per-device continuous-time track state: one FIFO clock per queue plus
/// busy accounting. See the module docs for the scheduling invariants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceTracks {
    /// Next-free time of each track (seconds).
    clocks: [f64; TRACK_COUNT],
    /// Cumulative busy seconds per track.
    busy_s: [f64; TRACK_COUNT],
    /// Launches committed through the flow-shop (overlap won the clamp).
    pub overlap_launches: u64,
    /// Launches committed as whole-device scalar spans.
    pub scalar_launches: u64,
}

impl Default for DeviceTracks {
    fn default() -> Self {
        Self::new()
    }
}

impl DeviceTracks {
    /// A device with all tracks idle at `t = 0`.
    #[must_use]
    pub fn new() -> Self {
        Self {
            clocks: [0.0; TRACK_COUNT],
            busy_s: [0.0; TRACK_COUNT],
            overlap_launches: 0,
            scalar_launches: 0,
        }
    }

    /// The track clocks (next-free times), indexed by [`TrackKind::index`].
    #[must_use]
    pub fn clocks(&self) -> [f64; TRACK_COUNT] {
        self.clocks
    }

    /// When the whole device is next free: its largest track clock.
    #[must_use]
    pub fn free_s(&self) -> f64 {
        self.clocks.iter().copied().fold(0.0f64, f64::max)
    }

    /// Cumulative work seconds attributed to each track, indexed by
    /// [`TrackKind::index`]. Flow-shop commits add their scheduled span
    /// durations; scalar commits add their stage seconds per track — so
    /// the figure answers "which queue is this workload loading?" for
    /// *every* launch, and the busiest track exposes the
    /// memory-bound/compute-bound regime per queue regardless of which
    /// candidate won the clamp.
    #[must_use]
    pub fn busy_s(&self) -> [f64; TRACK_COUNT] {
        self.busy_s
    }

    /// Places one launch ready at `ready_s` whose scalar service time is
    /// `service_s`, with optional per-stage, per-track seconds `stage_s`
    /// (see the module docs' scalar clamp). The flow-shop schedule of
    /// `stage_s` commits only when it completes strictly before the scalar
    /// span `[max(free, ready), +service_s)`; otherwise, or without stage
    /// seconds, the launch takes the scalar span: every clock moves to its
    /// completion and the stage seconds are attributed to their tracks.
    pub fn place(
        &mut self,
        ready_s: f64,
        service_s: f64,
        stage_s: Option<&[[f64; TRACK_COUNT]]>,
    ) -> TrackPlacement {
        let start_s = self.free_s().max(ready_s);
        let completion_s = start_s + service_s;
        if let Some(stage_s) = stage_s {
            let shop = self.plan(ready_s, stage_s);
            if shop.completion_s < completion_s {
                self.commit(&shop);
                return TrackPlacement {
                    start_s: shop.start_s,
                    completion_s: shop.completion_s,
                    service_s: shop.completion_s - shop.start_s,
                    stages: Some(shop.stages),
                };
            }
            let mut seconds = [0.0; TRACK_COUNT];
            for durs in stage_s {
                for (sum, d) in seconds.iter_mut().zip(durs) {
                    *sum += d;
                }
            }
            self.attribute(seconds);
        }
        self.barrier(completion_s);
        TrackPlacement {
            start_s,
            completion_s,
            service_s,
            stages: None,
        }
    }

    /// Flow-shop schedules `stage_s` (per stage, per track, seconds) onto
    /// this device's tracks for a launch ready at `ready_s`, without
    /// mutating any state. Stage `k`'s span on track `t` starts at
    /// `max(track clock, ready, completion of stage k on track t−1)`.
    fn plan(&self, ready_s: f64, stage_s: &[[f64; TRACK_COUNT]]) -> FlowShop {
        let mut clocks = self.clocks;
        let mut busy_added = [0.0; TRACK_COUNT];
        let mut stages = Vec::new();
        let mut start_s = f64::INFINITY;
        let mut completion_s = ready_s;
        for (k, durs) in stage_s.iter().enumerate() {
            // The dataflow dependency: this stage's span on track t waits
            // for its own span on track t-1 (stream → mac → vec → write).
            let mut dep_done = ready_s;
            for t in 0..TRACK_COUNT {
                let d = durs[t];
                if d <= 0.0 {
                    // No span to place; the dependency time passes through
                    // so e.g. a vec-free stage chains mac → writeback
                    // directly.
                    continue;
                }
                let s = clocks[t].max(dep_done);
                let e = s + d;
                clocks[t] = e;
                busy_added[t] += d;
                start_s = start_s.min(s);
                completion_s = completion_s.max(e);
                dep_done = e;
                stages.push(StageSpan {
                    track: TrackKind::ALL[t],
                    stage: k,
                    start_s: s,
                    end_s: e,
                });
            }
        }
        if !start_s.is_finite() {
            // All-empty demand: a zero-length span at the ready point.
            start_s = ready_s;
        }
        FlowShop {
            start_s,
            completion_s,
            clocks_after: clocks,
            busy_added,
            stages,
        }
    }

    /// Applies a schedule produced by [`DeviceTracks::plan`]: installs the
    /// post-placement clocks and accounts the busy time.
    fn commit(&mut self, shop: &FlowShop) {
        self.clocks = shop.clocks_after;
        for t in 0..TRACK_COUNT {
            self.busy_s[t] += shop.busy_added[t];
        }
        self.overlap_launches += 1;
    }

    /// Serializes the device behind a scalar commit: every track is busy
    /// until `until_s` (a scalar span occupies the whole device), so no
    /// later flow-shop placement can start under it.
    fn barrier(&mut self, until_s: f64) {
        for c in &mut self.clocks {
            *c = c.max(until_s);
        }
        self.scalar_launches += 1;
    }

    /// Accounts a scalar-committed launch's per-track demand seconds
    /// without occupying any clock: the launch held the whole device, but
    /// its work still belongs to specific queues for utilization
    /// attribution ([`DeviceTracks::busy_s`]).
    fn attribute(&mut self, seconds: [f64; TRACK_COUNT]) {
        for (busy, s) in self.busy_s.iter_mut().zip(seconds) {
            *busy += s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskKind;

    fn executor() -> Executor {
        Executor::new(HardwareConfig::edge_default(), EnergyModel::edge_16nm())
    }

    #[test]
    fn empty_graph_is_an_error() {
        let g = TaskGraph::new();
        assert!(matches!(executor().run(&g), Err(SimError::EmptyGraph)));
    }

    #[test]
    fn single_task_makespan_matches_timing_model() {
        let mut g = TaskGraph::new();
        let kind = TaskKind::MatMul {
            m: 64,
            k: 64,
            n: 64,
        };
        g.add_task("mm", Resource::Mac { core: 0 }, kind, &[]);
        let exec = executor();
        let report = exec.run(&g).unwrap();
        assert_eq!(report.total_cycles, exec.timing().task_cycles(&kind));
        assert_eq!(report.tasks_executed, 1);
        assert!(report.total_seconds > 0.0);
    }

    #[test]
    fn independent_tasks_on_different_resources_overlap() {
        let mut g = TaskGraph::new();
        let mm = TaskKind::MatMul {
            m: 64,
            k: 512,
            n: 64,
        };
        let sm = TaskKind::Softmax {
            rows: 64,
            cols: 512,
        };
        g.add_task("mm", Resource::Mac { core: 0 }, mm, &[]);
        g.add_task("sm", Resource::Vec { core: 0 }, sm, &[]);
        let exec = executor();
        let report = exec.run(&g).unwrap();
        let mm_cycles = exec.timing().task_cycles(&mm);
        let sm_cycles = exec.timing().task_cycles(&sm);
        assert_eq!(report.total_cycles, mm_cycles.max(sm_cycles));
        assert_eq!(report.mac_vec_overlap_cycles, mm_cycles.min(sm_cycles));
    }

    #[test]
    fn dependent_tasks_serialize() {
        let mut g = TaskGraph::new();
        let mm = TaskKind::MatMul {
            m: 64,
            k: 512,
            n: 64,
        };
        let sm = TaskKind::Softmax {
            rows: 64,
            cols: 512,
        };
        let a = g.add_task("mm", Resource::Mac { core: 0 }, mm, &[]);
        g.add_task("sm", Resource::Vec { core: 0 }, sm, &[a]);
        let exec = executor();
        let report = exec.run(&g).unwrap();
        let expected = exec.timing().task_cycles(&mm) + exec.timing().task_cycles(&sm);
        assert_eq!(report.total_cycles, expected);
        assert_eq!(report.mac_vec_overlap_cycles, 0);
    }

    #[test]
    fn same_resource_tasks_serialize_even_without_deps() {
        let mut g = TaskGraph::new();
        let mm = TaskKind::MatMul {
            m: 64,
            k: 64,
            n: 64,
        };
        g.add_task("a", Resource::Mac { core: 0 }, mm, &[]);
        g.add_task("b", Resource::Mac { core: 0 }, mm, &[]);
        let exec = executor();
        let report = exec.run(&g).unwrap();
        assert_eq!(report.total_cycles, 2 * exec.timing().task_cycles(&mm));
    }

    #[test]
    fn two_cores_double_throughput() {
        let mm = TaskKind::MatMul {
            m: 64,
            k: 64,
            n: 64,
        };
        let mut one_core = TaskGraph::new();
        one_core.add_task("a", Resource::Mac { core: 0 }, mm, &[]);
        one_core.add_task("b", Resource::Mac { core: 0 }, mm, &[]);
        let mut two_cores = TaskGraph::new();
        two_cores.add_task("a", Resource::Mac { core: 0 }, mm, &[]);
        two_cores.add_task("b", Resource::Mac { core: 1 }, mm, &[]);
        let exec = executor();
        let serial = exec.run(&one_core).unwrap();
        let parallel = exec.run(&two_cores).unwrap();
        assert_eq!(serial.total_cycles, 2 * parallel.total_cycles);
    }

    #[test]
    fn unknown_core_is_rejected() {
        let mut g = TaskGraph::new();
        g.add_task(
            "mm",
            Resource::Mac { core: 9 },
            TaskKind::MatMul { m: 1, k: 1, n: 1 },
            &[],
        );
        assert!(matches!(
            executor().run(&g),
            Err(SimError::UnknownResource { .. })
        ));
    }

    #[test]
    fn dram_traffic_and_energy_are_reported() {
        let mut g = TaskGraph::new();
        let ld = g.add_task(
            "ld",
            Resource::DmaIn,
            TaskKind::DramLoad { bytes: 4096 },
            &[],
        );
        let mm = g.add_task(
            "mm",
            Resource::Mac { core: 0 },
            TaskKind::MatMul {
                m: 16,
                k: 16,
                n: 16,
            },
            &[ld],
        );
        g.add_task(
            "st",
            Resource::DmaOut,
            TaskKind::DramStore { bytes: 512 },
            &[mm],
        );
        let report = executor().run(&g).unwrap();
        assert_eq!(report.dram_read_bytes, 4096);
        assert_eq!(report.dram_write_bytes, 512);
        assert!(report.energy.dram_pj > 0.0);
        assert!(report.energy.mac_pe_pj > 0.0);
        assert_eq!(report.mac_ops, 16 * 16 * 16);
    }

    #[test]
    fn trace_can_be_disabled() {
        let mut g = TaskGraph::new();
        g.add_task(
            "mm",
            Resource::Mac { core: 0 },
            TaskKind::MatMul { m: 4, k: 4, n: 4 },
            &[],
        );
        let with = executor().run(&g).unwrap();
        let without = executor().without_trace().run(&g).unwrap();
        assert!(with.trace.is_some());
        assert!(without.trace.is_none());
        assert_eq!(with.total_cycles, without.total_cycles);
    }

    #[test]
    fn program_order_breaks_ties_on_a_resource() {
        let mut g = TaskGraph::new();
        let mm = TaskKind::MatMul {
            m: 16,
            k: 16,
            n: 16,
        };
        g.add_task("first", Resource::Mac { core: 0 }, mm, &[]);
        g.add_task("second", Resource::Mac { core: 0 }, mm, &[]);
        let report = executor().run(&g).unwrap();
        let trace = report.trace.unwrap();
        let entries = trace.on_resource(Resource::Mac { core: 0 });
        assert_eq!(entries[0].label, "first");
        assert_eq!(entries[1].label, "second");
    }

    #[test]
    fn interval_overlap_helper() {
        let mut a = vec![(0u64, 10u64), (20, 30)];
        let mut b = vec![(5u64, 25u64)];
        assert_eq!(interval_overlap(&mut a, &mut b), 10);
        let mut c = vec![(0u64, 5u64), (3, 8)];
        let mut d = vec![(0u64, 8u64)];
        assert_eq!(interval_overlap(&mut c, &mut d), 8);
    }

    // ---- track executor ----

    /// Two equal stages: [dma 1s, mac 1s, vec 0, wb 1s] each.
    fn two_stage_demo() -> Vec<[f64; TRACK_COUNT]> {
        vec![[1.0, 1.0, 0.0, 1.0]; 2]
    }

    #[test]
    fn flow_shop_overlaps_successive_stages() {
        let dev = DeviceTracks::new();
        let p = dev.plan(0.0, &two_stage_demo());
        // Stage 0: dma 0-1, mac 1-2, wb 2-3. Stage 1: dma 1-2 (hides under
        // stage 0's mac), mac 2-3, wb 3-4. Serial would be 6.
        assert_eq!(p.start_s, 0.0);
        assert_eq!(p.completion_s, 4.0);
        assert_eq!(p.stages.len(), 6);
        let dma1 = p
            .stages
            .iter()
            .find(|s| s.track == TrackKind::DmaIn && s.stage == 1)
            .unwrap();
        assert_eq!((dma1.start_s, dma1.end_s), (1.0, 2.0));
    }

    #[test]
    fn place_commits_the_flow_shop_only_when_strictly_earlier() {
        // The flow-shop finishes at 4.0; a 4.5 s scalar span loses the
        // clamp and the stage spans commit.
        let mut dev = DeviceTracks::new();
        let p = dev.place(0.0, 4.5, Some(&two_stage_demo()));
        assert_eq!((p.start_s, p.completion_s, p.service_s), (0.0, 4.0, 4.0));
        assert_eq!(p.stages.as_ref().map(Vec::len), Some(6));
        assert_eq!(dev.overlap_launches, 1);
        assert_eq!(dev.free_s(), 4.0);
        // A tie goes to the scalar span: the whole device is busy for the
        // scalar service, and the stage seconds still count per track.
        let mut dev = DeviceTracks::new();
        let p = dev.place(1.0, 4.0, Some(&two_stage_demo()));
        assert_eq!((p.start_s, p.completion_s, p.service_s), (1.0, 5.0, 4.0));
        assert!(p.stages.is_none());
        assert_eq!(dev.scalar_launches, 1);
        assert!(dev.clocks().iter().all(|&c| c == 5.0));
        assert_eq!(dev.busy_s(), [2.0, 2.0, 0.0, 2.0]);
    }

    #[test]
    fn scalar_place_is_the_scalar_service_model() {
        // Without stage seconds every placement is `[max(free, ready),
        // +service)` and moves all four clocks to its completion.
        let mut dev = DeviceTracks::new();
        let mut free = 0.0f64;
        for (ready, service) in [(0.5, 1.25), (0.75, 0.5), (4.0, 0.0), (3.0, 2.0)] {
            let p = dev.place(ready, service, None);
            let start = free.max(ready);
            assert_eq!(
                (p.start_s, p.completion_s, p.service_s),
                (start, start + service, service)
            );
            assert!(p.stages.is_none());
            free = start + service;
            assert!(dev.clocks().iter().all(|&c| c == free));
            assert_eq!(dev.free_s(), free);
        }
        assert_eq!(dev.scalar_launches, 4);
        assert_eq!(dev.busy_s(), [0.0; TRACK_COUNT]);
    }

    #[test]
    fn placement_bounds_and_monotonicity() {
        let dev = DeviceTracks::new();
        let stages = vec![[3.0, 2.0, 1.0, 0.5], [1.0, 4.0, 0.0, 0.25]];
        let p = dev.plan(0.0, &stages);
        let per_track: Vec<f64> = (0..TRACK_COUNT)
            .map(|t| stages.iter().map(|s| s[t]).sum())
            .collect();
        let max_track = per_track.iter().copied().fold(0.0f64, f64::max);
        let total: f64 = per_track.iter().sum();
        assert!(p.completion_s >= max_track);
        assert!(p.completion_s <= total);
        // Growing any one duration never shrinks the makespan.
        for k in 0..stages.len() {
            for t in 0..TRACK_COUNT {
                let mut grown = stages.clone();
                grown[k][t] += 0.5;
                assert!(dev.plan(0.0, &grown).completion_s >= p.completion_s);
            }
        }
    }

    #[test]
    fn commit_installs_clocks_and_busy_time() {
        let mut dev = DeviceTracks::new();
        let p = dev.plan(0.0, &two_stage_demo());
        dev.commit(&p);
        assert_eq!(dev.overlap_launches, 1);
        let busy = dev.busy_s();
        assert_eq!(busy[TrackKind::DmaIn.index()], 2.0);
        assert_eq!(busy[TrackKind::Mac.index()], 2.0);
        assert_eq!(busy[TrackKind::Vec.index()], 0.0);
        assert_eq!(busy[TrackKind::Writeback.index()], 2.0);
        // The next launch's DMA can start at the dma clock (2.0), well
        // before the previous completion (4.0) — cross-launch overlap.
        assert_eq!(dev.clocks()[TrackKind::DmaIn.index()], 2.0);
        let next = dev.plan(0.0, &two_stage_demo());
        assert!(next.start_s < p.completion_s);
    }

    #[test]
    fn barrier_serializes_all_tracks() {
        let mut dev = DeviceTracks::new();
        dev.barrier(7.0);
        assert_eq!(dev.scalar_launches, 1);
        assert!(dev.clocks().iter().all(|&c| c == 7.0));
        let p = dev.plan(0.0, &two_stage_demo());
        assert_eq!(p.start_s, 7.0);
    }

    #[test]
    fn empty_demand_places_a_zero_span_at_ready() {
        let dev = DeviceTracks::new();
        let p = dev.plan(3.0, &[[0.0; TRACK_COUNT]]);
        assert_eq!(p.start_s, 3.0);
        assert_eq!(p.completion_s, 3.0);
        assert!(p.stages.is_empty());
    }

    #[test]
    fn track_recurrence_matches_the_cycle_executor() {
        // The continuous-time flow-shop and the event-driven cycle-level
        // list scheduler agree exactly on a stage pipeline when issue and
        // fill/drain overheads are zeroed (the continuous model prices
        // those separately).
        let mut hw = HardwareConfig::tiny_test();
        hw.issue_overhead_cycles = 0;
        hw.mac_fill_drain_cycles = 0;
        let bpc = hw.dram_bytes_per_cycle() as usize;
        // Per-stage durations in whole cycles; tiny_test has a 4×4 MAC
        // array and 8 VEC lanes, so construct kinds with exact cycle costs.
        let stage_cycles: [[usize; TRACK_COUNT]; 3] = [[6, 9, 2, 3], [4, 12, 1, 2], [8, 3, 5, 1]];
        let stages: Vec<[Option<TaskKind>; TRACK_COUNT]> = stage_cycles
            .iter()
            .map(|cyc| {
                [
                    Some(TaskKind::DramLoad {
                        bytes: cyc[0] * bpc,
                    }),
                    Some(TaskKind::MatMul {
                        m: 4,
                        k: cyc[1],
                        n: 4,
                    }),
                    Some(TaskKind::VecOp {
                        elements: cyc[2] * 8,
                        passes: 1,
                    }),
                    Some(TaskKind::DramStore {
                        bytes: cyc[3] * bpc,
                    }),
                ]
            })
            .collect();
        let mut g = TaskGraph::new();
        let ids = g.stage_pipeline("pipe", &stages);
        assert_eq!(ids.len(), 3 * TRACK_COUNT);
        let exec = Executor::new(hw.clone(), EnergyModel::edge_16nm());
        let report = exec.run(&g).unwrap();
        // The closed-form flow-shop recurrence agrees with the event-driven
        // list scheduler on the lowered graph...
        assert_eq!(
            report.total_cycles,
            exec.timing().pipeline_makespan_cycles(&stages)
        );
        // ...and the continuous-time planner agrees with both.
        let stage_s: Vec<[f64; TRACK_COUNT]> = stage_cycles
            .iter()
            .map(|cyc| {
                let mut s = [0.0; TRACK_COUNT];
                for t in 0..TRACK_COUNT {
                    s[t] = hw.cycles_to_seconds(cyc[t] as u64);
                }
                s
            })
            .collect();
        let p = DeviceTracks::new().plan(0.0, &stage_s);
        let expect_cycles = (p.completion_s * hw.frequency_hz).round() as u64;
        assert_eq!(report.total_cycles, expect_cycles);
    }
}
