//! Cluster configuration and status snapshots.
//!
//! [`ClusterStatus`] is the framework-side knowledge an Input Provider
//! receives at each evaluation (paper Section III): total capacity in map
//! slots (`TS` in Table I), current availability (`AS`), and load. The
//! paper notes that "collection and reporting of these statistics is an
//! existing feature in Hadoop" — here it falls out of the runtime state.

use incmr_dfs::ClusterTopology;

/// How many host worker threads the *data plane* may use for map-task
/// record work. This is a host-execution knob, not a modelling one:
/// simulated time is byte-identical at every setting (see
/// `crate::parallel`); only wall-clock time changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker threads; `1` means serial in-loop execution (no pool).
    pub threads: u32,
}

impl Parallelism {
    /// Serial execution — the default, and the reference behaviour the
    /// parallel path must reproduce exactly.
    pub const SERIAL: Parallelism = Parallelism { threads: 1 };

    /// A pool of `threads` workers (clamped to at least 1).
    pub fn threads(threads: u32) -> Self {
        Parallelism {
            threads: threads.max(1),
        }
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::SERIAL
    }
}

/// Static configuration of the simulated cluster.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Hardware shape (nodes, disks, cores).
    pub topology: ClusterTopology,
    /// Concurrent map tasks allowed per node. The paper uses 4 for
    /// single-user experiments and 16 for multi-user throughput runs.
    pub map_slots_per_node: u32,
    /// Concurrent reduce tasks allowed per node ("the number of reduce
    /// slots required by a job is typically small", Section II-C; Hadoop's
    /// default is 2 per TaskTracker).
    pub reduce_slots_per_node: u32,
    /// Host-side data-plane parallelism (does not affect simulated time).
    pub parallelism: Parallelism,
}

impl ClusterConfig {
    /// The paper's single-user configuration: 10 nodes × 4 map slots.
    pub fn paper_single_user() -> Self {
        ClusterConfig {
            topology: ClusterTopology::paper_cluster(),
            map_slots_per_node: 4,
            reduce_slots_per_node: 2,
            parallelism: Parallelism::SERIAL,
        }
    }

    /// The paper's multi-user configuration: 10 nodes × 16 map slots
    /// ("the number 16 was arrived at by trying different settings with the
    /// objective of achieving maximum throughput", Section V-D).
    pub fn paper_multi_user() -> Self {
        ClusterConfig {
            topology: ClusterTopology::paper_cluster(),
            map_slots_per_node: 16,
            reduce_slots_per_node: 2,
            parallelism: Parallelism::SERIAL,
        }
    }

    /// The same configuration with a different data-plane parallelism.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Total map slots across the cluster (`TS`).
    pub fn total_map_slots(&self) -> u32 {
        self.topology.num_nodes() as u32 * self.map_slots_per_node
    }
}

/// A point-in-time snapshot of cluster load, as reported to Input Providers
/// and schedulers.
///
/// Under a cluster fault plan (`crate::MrRuntime::inject_cluster_faults`),
/// dead nodes drop out of the snapshot entirely: `total_map_slots` counts
/// only alive nodes, so Input Providers observe lost capacity as a smaller
/// `TS` rather than as phantom occupied slots, and `AS` stays honest while
/// nodes are down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterStatus {
    /// Total map slots (`TS`).
    pub total_map_slots: u32,
    /// Map slots currently running a task.
    pub occupied_map_slots: u32,
    /// Jobs not yet completed.
    pub running_jobs: u32,
    /// Map tasks waiting for a slot, across all jobs.
    pub queued_map_tasks: u32,
}

impl ClusterStatus {
    /// Available map slots (`AS` in Table I). Saturating: a node death
    /// between a snapshot's construction and its consumption can leave
    /// `occupied > total` transiently, and a garbage wrap-around here
    /// would hand Input Providers an absurd grab limit.
    pub fn available_map_slots(&self) -> u32 {
        self.total_map_slots.saturating_sub(self.occupied_map_slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs() {
        assert_eq!(ClusterConfig::paper_single_user().total_map_slots(), 40);
        assert_eq!(ClusterConfig::paper_multi_user().total_map_slots(), 160);
    }

    #[test]
    fn available_slots_is_ts_minus_occupied() {
        let s = ClusterStatus {
            total_map_slots: 40,
            occupied_map_slots: 25,
            running_jobs: 3,
            queued_map_tasks: 100,
        };
        assert_eq!(s.available_map_slots(), 15);
    }

    #[test]
    fn available_slots_saturates_when_occupied_exceeds_total() {
        // A node death can shrink `total` before `occupied` catches up;
        // the snapshot must degrade to 0 free slots, never wrap.
        let s = ClusterStatus {
            total_map_slots: 36,
            occupied_map_slots: 40,
            running_jobs: 1,
            queued_map_tasks: 0,
        };
        assert_eq!(s.available_map_slots(), 0);
    }
}
