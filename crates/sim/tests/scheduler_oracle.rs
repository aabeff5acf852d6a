//! Differential test of the executor's list scheduler against a reference.
//!
//! `reference_run` below is the original scheduling loop, kept verbatim as
//! an oracle: per-resource `VecDeque` ready queues with sorted insertion,
//! resources re-sorted by display name on every pass, busy time keyed by
//! resource name. `Executor::run` replaced those with dense slots and heap
//! ready queues; on random DAGs both must produce the same `SimReport`
//! field by field — energy compared bit for bit, and the whole trace
//! (task, label, resource, start, end) in the same order.
//!
//! The generator covers what decides the start order: 1–12 cores (so
//! `"MAC10" < "MAC2"` name ordering matters), zero-duration barriers and
//! zero-byte transfers, DMA loads and stores with and without dependents
//! (the `usize::MAX - n + i` priority), and many tasks becoming ready in the
//! same cycle (durations drawn from a handful of values).

use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mas_sim::energy::{EnergyBreakdown, EnergyModel};
use mas_sim::task::Task;
use mas_sim::timing::TimingModel;
use mas_sim::trace::{Trace, TraceEntry};
use mas_sim::{Executor, HardwareConfig, Resource, SimReport, TaskGraph, TaskId, TaskKind};

/// The original `Executor::run` scheduling loop (after validation), with
/// `self` fields passed as arguments and tasks looked up by index.
fn reference_run(
    timing: &TimingModel,
    energy_model: &EnergyModel,
    record_trace: bool,
    graph: &TaskGraph,
) -> SimReport {
    let hw = timing.hardware();
    let tasks: Vec<&Task> = graph.iter().collect();

    let n = graph.len();
    let mut remaining_deps = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for task in graph.iter() {
        remaining_deps[task.id.index()] = task.deps.len();
        for dep in &task.deps {
            dependents[dep.index()].push(task.id.index());
        }
    }

    let mut priority = vec![0usize; n];
    for task in graph.iter() {
        let i = task.id.index();
        priority[i] = match task.resource {
            Resource::DmaIn | Resource::DmaOut => dependents[i]
                .iter()
                .copied()
                .min()
                .unwrap_or(usize::MAX - n + i),
            _ => i,
        };
    }

    // Ready queues per resource, ordered by (priority, program order).
    let mut ready: HashMap<Resource, VecDeque<usize>> = HashMap::new();
    for task in graph.iter() {
        ready.entry(task.resource).or_default();
    }
    let enqueue = |queue: &mut VecDeque<usize>, priority: &[usize], index: usize| {
        let key = (priority[index], index);
        let pos = queue
            .iter()
            .position(|&other| (priority[other], other) > key)
            .unwrap_or(queue.len());
        queue.insert(pos, index);
    };
    // Seed initially-ready tasks.
    for task in graph.iter() {
        if remaining_deps[task.id.index()] == 0 {
            let queue = ready
                .get_mut(&task.resource)
                .expect("queue exists for every resource");
            enqueue(queue, &priority, task.id.index());
        }
    }

    // Min-heap of running tasks by end cycle (reverse ordering on a max-heap).
    #[derive(PartialEq, Eq)]
    struct Running {
        end: u64,
        index: usize,
    }
    impl Ord for Running {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other.end.cmp(&self.end).then(other.index.cmp(&self.index))
        }
    }
    impl PartialOrd for Running {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut running: BinaryHeap<Running> = BinaryHeap::new();
    let mut resource_busy_until: HashMap<Resource, u64> = HashMap::new();
    let mut busy_cycles: BTreeMap<String, u64> = BTreeMap::new();
    let mut trace = Trace::new();
    let mut energy = EnergyBreakdown::zero();
    let mut completed = 0usize;
    let mut now: u64 = 0;
    let mut mac_intervals: Vec<(u64, u64)> = Vec::new();
    let mut vec_intervals: Vec<(u64, u64)> = Vec::new();

    while completed < n {
        // Start every task that can start at the current time.
        let mut started_any = true;
        while started_any {
            started_any = false;
            // Iterate resources deterministically (sorted by display name).
            let mut resources: Vec<Resource> = ready.keys().copied().collect();
            resources.sort_by_key(|r| r.to_string());
            for resource in resources {
                let busy_until = resource_busy_until.get(&resource).copied().unwrap_or(0);
                if busy_until > now {
                    continue;
                }
                let queue = ready.get_mut(&resource).expect("resource queue exists");
                if let Some(&index) = queue.front() {
                    queue.pop_front();
                    let task = tasks[index];
                    let duration = timing.task_cycles(&task.kind);
                    let start = now;
                    let end = start + duration;
                    resource_busy_until.insert(resource, end);
                    running.push(Running { end, index });
                    *busy_cycles.entry(resource.to_string()).or_insert(0) += duration;
                    energy.accumulate(&energy_model.task_energy(
                        &task.kind,
                        hw.element_bytes,
                        hw.softmax_ops_per_element,
                    ));
                    if duration > 0 {
                        match resource {
                            Resource::Mac { .. } => mac_intervals.push((start, end)),
                            Resource::Vec { .. } => vec_intervals.push((start, end)),
                            _ => {}
                        }
                    }
                    if record_trace {
                        trace.push(TraceEntry {
                            task: task.id,
                            label: task.label.clone(),
                            resource,
                            start_cycle: start,
                            end_cycle: end,
                        });
                    }
                    started_any = true;
                }
            }
        }

        // Advance time to the next completion.
        match running.pop() {
            Some(first) => {
                now = now.max(first.end);
                let mut finished = vec![first.index];
                while let Some(next) = running.peek() {
                    if next.end <= now {
                        finished.push(running.pop().expect("peeked element exists").index);
                    } else {
                        break;
                    }
                }
                for index in finished {
                    completed += 1;
                    for &dep_index in &dependents[index] {
                        remaining_deps[dep_index] -= 1;
                        if remaining_deps[dep_index] == 0 {
                            let task = tasks[dep_index];
                            let queue = ready
                                .get_mut(&task.resource)
                                .expect("resource queue exists");
                            enqueue(queue, &priority, dep_index);
                        }
                    }
                }
            }
            None => panic!("reference scheduler stalled on a valid graph"),
        }
    }

    let total_cycles = resource_busy_until.values().copied().max().unwrap_or(0);
    let overlap = interval_overlap(&mut mac_intervals, &mut vec_intervals);

    SimReport {
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
        trace: if record_trace { Some(trace) } else { None },
    }
}

/// Computes the number of cycles covered by both interval sets (union of set A
/// intersected with union of set B).
fn interval_overlap(a: &mut [(u64, u64)], b: &mut [(u64, u64)]) -> u64 {
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

/// A random valid DAG over `cores` cores with `len` tasks. Each task depends
/// on up to three earlier tasks (occasionally the same one twice); sizes are
/// drawn from a few values so that many tasks finish, and become ready, in
/// the same cycle.
fn random_graph(rng: &mut StdRng, cores: usize, len: usize) -> TaskGraph {
    let mut g = TaskGraph::new();
    let mut ids: Vec<TaskId> = Vec::with_capacity(len);
    for i in 0..len {
        let core = rng.gen_range(0usize..cores);
        let dim = [1usize, 4, 16][rng.gen_range(0usize..3)];
        let bytes = [0usize, 8, 64, 256][rng.gen_range(0usize..4)];
        let (resource, kind) = match rng.gen_range(0usize..6) {
            0 => (Resource::DmaIn, TaskKind::DramLoad { bytes }),
            1 => (Resource::DmaOut, TaskKind::DramStore { bytes }),
            2 => (
                Resource::Mac { core },
                TaskKind::MatMul {
                    m: dim,
                    k: dim,
                    n: 16,
                },
            ),
            3 => (
                Resource::Vec { core },
                TaskKind::Softmax {
                    rows: dim,
                    cols: 16,
                },
            ),
            4 => (
                Resource::Vec { core },
                TaskKind::VecOp {
                    elements: dim * 16,
                    passes: 2,
                },
            ),
            _ => {
                let resource = if rng.gen_bool(0.5) {
                    Resource::Mac { core }
                } else {
                    Resource::Vec { core }
                };
                (resource, TaskKind::Barrier)
            }
        };
        let mut deps = Vec::new();
        if i > 0 {
            for _ in 0..rng.gen_range(0usize..4) {
                deps.push(ids[rng.gen_range(0usize..i)]);
            }
        }
        ids.push(g.add_task(format!("t{i}"), resource, kind, &deps));
    }
    g
}

fn assert_reports_equal(got: &SimReport, want: &SimReport) {
    assert_eq!(got.total_cycles, want.total_cycles);
    assert_eq!(got.total_seconds.to_bits(), want.total_seconds.to_bits());
    let bits = |r: &SimReport| r.energy.components().map(|(_, pj)| pj.to_bits());
    assert_eq!(bits(got), bits(want));
    assert_eq!(got.dram_read_bytes, want.dram_read_bytes);
    assert_eq!(got.dram_write_bytes, want.dram_write_bytes);
    assert_eq!(got.mac_ops, want.mac_ops);
    assert_eq!(got.vec_ops, want.vec_ops);
    assert_eq!(got.busy_cycles, want.busy_cycles);
    assert_eq!(got.tasks_executed, want.tasks_executed);
    assert_eq!(got.mac_vec_overlap_cycles, want.mac_vec_overlap_cycles);
    match (&got.trace, &want.trace) {
        (Some(g), Some(w)) => assert_eq!(g.entries(), w.entries()),
        (None, None) => {}
        _ => panic!("trace presence differs"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn executor_matches_the_reference_scheduler(
        seed in 0u64..u64::MAX,
        cores in 1usize..13,
        len in 1usize..120,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = random_graph(&mut rng, cores, len);
        let mut hw = HardwareConfig::edge_default();
        hw.cores = cores;
        let energy = EnergyModel::edge_16nm();
        let exec = Executor::new(hw, energy);
        let want = reference_run(exec.timing(), &energy, true, &graph);
        assert_reports_equal(&exec.run(&graph).unwrap(), &want);
        let untraced = exec.clone().without_trace().run(&graph).unwrap();
        prop_assert!(untraced.trace.is_none());
        assert_reports_equal(&untraced, &reference_run(exec.timing(), &energy, false, &graph));
    }
}
