//! Dependency graphs of tasks.
//!
//! A [`TaskGraph`] is an append-only DAG: tasks are added in program order
//! with explicit dependency edges, the way the dataflow builders in
//! `mas-dataflow` lower Algorithm 1's rounds into MAC-stream and VEC-stream
//! work items. The executor schedules a graph without mutating it, so one
//! graph can be simulated under several hardware configurations.

use serde::{Deserialize, Serialize};

use crate::error::{Result, SimError};
use crate::task::{Resource, Task, TaskId, TaskKind, TrackKind, TRACK_COUNT};

/// An append-only directed acyclic graph of [`Task`]s.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TaskGraph {
    tasks: Vec<Task>,
}

impl TaskGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a task and returns its id.
    ///
    /// Dependencies on ids not yet in the graph are allowed at insertion time
    /// (they are validated by [`TaskGraph::validate`] and by the executor),
    /// but by construction the dataflow builders only reference earlier
    /// tasks, which also guarantees acyclicity.
    pub fn add_task(
        &mut self,
        label: impl Into<String>,
        resource: Resource,
        kind: TaskKind,
        deps: &[TaskId],
    ) -> TaskId {
        let id = TaskId(self.tasks.len());
        self.tasks.push(Task {
            id,
            label: label.into(),
            resource,
            kind,
            deps: deps.to_vec(),
        });
        id
    }

    /// Appends a per-tile stage pipeline: for each stage, one task per
    /// present track kind placed on that track's resource
    /// ([`TrackKind::resource`]), dependency-chained in dataflow order
    /// within the stage (DMA-in → MAC → VEC → writeback). Across stages the
    /// only ordering is per-resource FIFO (program order), which is exactly
    /// what lets stage `k+1`'s DMA run under stage `k`'s compute — this is
    /// the cycle-level lowering of the continuous-time track executor
    /// (`DeviceTracks::plan`), and the two agree on the makespan when issue
    /// and fill/drain overheads are zero.
    ///
    /// Returns the ids of the appended tasks in insertion order.
    pub fn stage_pipeline(
        &mut self,
        label_prefix: &str,
        stages: &[[Option<TaskKind>; TRACK_COUNT]],
    ) -> Vec<TaskId> {
        let mut ids = Vec::new();
        for (k, stage) in stages.iter().enumerate() {
            let mut prev: Option<TaskId> = None;
            for (t, kind) in stage.iter().enumerate() {
                let Some(kind) = kind else { continue };
                let track = TrackKind::ALL[t];
                let deps: Vec<TaskId> = prev.into_iter().collect();
                let id = self.add_task(
                    format!("{label_prefix}/s{k}-{track}"),
                    track.resource(),
                    *kind,
                    &deps,
                );
                prev = Some(id);
                ids.push(id);
            }
        }
        ids
    }

    /// Number of tasks in the graph.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph has no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Iterates over tasks in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Task> {
        self.tasks.iter()
    }

    /// All tasks in insertion order, indexed by [`TaskId::index`].
    pub(crate) fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Returns the task with the given id, if present.
    #[must_use]
    pub fn get(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(id.0)
    }

    /// Total bytes read from DRAM across all tasks.
    #[must_use]
    pub fn dram_read_bytes(&self) -> u64 {
        self.tasks.iter().map(|t| t.kind.dram_read_bytes()).sum()
    }

    /// Total bytes written to DRAM across all tasks.
    #[must_use]
    pub fn dram_write_bytes(&self) -> u64 {
        self.tasks.iter().map(|t| t.kind.dram_write_bytes()).sum()
    }

    /// Total multiply-accumulate operations across all tasks.
    #[must_use]
    pub fn total_mac_ops(&self) -> u64 {
        self.tasks.iter().map(|t| t.kind.mac_ops()).sum()
    }

    /// Total VEC-lane operations across all tasks for a given softmax cost.
    #[must_use]
    pub fn total_vec_ops(&self, softmax_ops_per_element: usize) -> u64 {
        self.tasks
            .iter()
            .map(|t| t.kind.vec_ops(softmax_ops_per_element))
            .sum()
    }

    /// Validates that every dependency refers to an existing task and that
    /// the graph is acyclic.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownDependency`] or [`SimError::CyclicGraph`].
    pub fn validate(&self) -> Result<()> {
        self.checked_dependents().map(drop)
    }

    /// Validates the graph like [`TaskGraph::validate`] and returns its
    /// reverse edges, which the executor schedules from.
    pub(crate) fn checked_dependents(&self) -> Result<Dependents> {
        let n = self.tasks.len();
        let mut offsets = vec![0usize; n + 1];
        for task in &self.tasks {
            for dep in &task.deps {
                if dep.0 >= n {
                    return Err(SimError::UnknownDependency {
                        task: task.id,
                        dependency: *dep,
                    });
                }
                offsets[dep.0 + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets[..n].to_vec();
        let mut targets = vec![0usize; offsets[n]];
        for task in &self.tasks {
            for dep in &task.deps {
                targets[fill[dep.0]] = task.id.0;
                fill[dep.0] += 1;
            }
        }
        let dependents = Dependents { offsets, targets };

        // Kahn's algorithm to detect cycles.
        let mut indegree: Vec<usize> = self.tasks.iter().map(|t| t.deps.len()).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut visited = 0usize;
        while let Some(i) = queue.pop() {
            visited += 1;
            for &d in dependents.of(i) {
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    queue.push(d);
                }
            }
        }
        if visited != n {
            return Err(SimError::CyclicGraph {
                unscheduled: n - visited,
            });
        }
        Ok(dependents)
    }

    /// The length (in tasks) of the longest dependency chain. Barrier tasks
    /// count like any other node; this is a structural measure used by tests,
    /// not a timing quantity.
    #[must_use]
    pub fn critical_path_len(&self) -> usize {
        let n = self.tasks.len();
        let mut depth = vec![0usize; n];
        for task in &self.tasks {
            let d = task
                .deps
                .iter()
                .filter_map(|dep| depth.get(dep.0))
                .copied()
                .max()
                .unwrap_or(0);
            depth[task.id.0] = d + 1;
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

/// The reverse edges of a [`TaskGraph`] in compressed rows: the dependents
/// of task `i` are `targets[offsets[i]..offsets[i + 1]]`, in program order
/// (a task that lists a dependency twice appears twice).
pub(crate) struct Dependents {
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl Dependents {
    /// The tasks that depend on task `index`.
    pub(crate) fn of(&self, index: usize) -> &[usize] {
        &self.targets[self.offsets[index]..self.offsets[index + 1]]
    }
}

impl<'a> IntoIterator for &'a TaskGraph {
    type Item = &'a Task;
    type IntoIter = std::slice::Iter<'a, Task>;

    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm(m: usize) -> TaskKind {
        TaskKind::MatMul { m, k: 4, n: 4 }
    }

    #[test]
    fn empty_graph_properties() {
        let g = TaskGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
        assert_eq!(g.critical_path_len(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn add_and_lookup_tasks() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", Resource::Mac { core: 0 }, mm(4), &[]);
        let b = g.add_task("b", Resource::Vec { core: 0 }, TaskKind::Barrier, &[a]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.get(a).unwrap().label, "a");
        assert_eq!(g.get(b).unwrap().deps, vec![a]);
        assert!(g.get(TaskId(5)).is_none());
    }

    #[test]
    fn traffic_and_op_totals() {
        let mut g = TaskGraph::new();
        g.add_task(
            "ld",
            Resource::DmaIn,
            TaskKind::DramLoad { bytes: 100 },
            &[],
        );
        g.add_task(
            "st",
            Resource::DmaOut,
            TaskKind::DramStore { bytes: 40 },
            &[],
        );
        g.add_task("mm", Resource::Mac { core: 0 }, mm(2), &[]);
        g.add_task(
            "sm",
            Resource::Vec { core: 0 },
            TaskKind::Softmax { rows: 2, cols: 4 },
            &[],
        );
        assert_eq!(g.dram_read_bytes(), 100);
        assert_eq!(g.dram_write_bytes(), 40);
        assert_eq!(g.total_mac_ops(), 2 * 4 * 4);
        assert_eq!(g.total_vec_ops(10), 80);
    }

    #[test]
    fn validate_rejects_unknown_dependency() {
        let mut g = TaskGraph::new();
        g.add_task("a", Resource::Mac { core: 0 }, mm(1), &[TaskId(7)]);
        assert!(matches!(
            g.validate(),
            Err(SimError::UnknownDependency { .. })
        ));
    }

    #[test]
    fn validate_rejects_cycles() {
        // Construct a cycle by hand: task 0 depends on task 1, task 1 on task 0.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", Resource::Mac { core: 0 }, mm(1), &[TaskId(1)]);
        let _b = g.add_task("b", Resource::Mac { core: 0 }, mm(1), &[a]);
        assert!(matches!(g.validate(), Err(SimError::CyclicGraph { .. })));
    }

    #[test]
    fn critical_path_counts_longest_chain() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", Resource::Mac { core: 0 }, mm(1), &[]);
        let b = g.add_task("b", Resource::Mac { core: 0 }, mm(1), &[a]);
        let _c = g.add_task("c", Resource::Mac { core: 0 }, mm(1), &[b]);
        let _d = g.add_task("d", Resource::Vec { core: 0 }, TaskKind::Barrier, &[a]);
        assert_eq!(g.critical_path_len(), 3);
    }

    #[test]
    fn iteration_preserves_insertion_order() {
        let mut g = TaskGraph::new();
        for i in 0..5 {
            g.add_task(format!("t{i}"), Resource::Mac { core: 0 }, mm(1), &[]);
        }
        let labels: Vec<_> = g.iter().map(|t| t.label.clone()).collect();
        assert_eq!(labels, vec!["t0", "t1", "t2", "t3", "t4"]);
    }
}
