//! The cluster-level fault model: node outages, stragglers, per-attempt
//! faults, speculative execution, and blacklisting — configuration and the
//! pure decision logic, all deterministic.
//!
//! Real Hadoop clusters lose TaskTrackers, host slow disks and hot CPUs,
//! and re-execute work; the paper's Input Providers observe cluster
//! statistics shaped by exactly those effects. This module defines the
//! simulated counterparts:
//!
//! * [`ClusterFaultPlan`] — the model: [`NodeOutage`] schedules
//!   (TaskTracker death and rejoin on simulated time), per-node speed
//!   factors (stragglers), separate map and reduce attempt fault
//!   probabilities, [`SpeculationConfig`], and a per-job blacklist
//!   threshold. Per-map-attempt failure injection alone is the plan
//!   with only `map_fault_probability`, `max_attempts` and `seed` set;
//! * [`FaultConfigError`] — typed validation, replacing the old
//!   `assert!`-at-submit checks.
//!
//! Everything here is configuration plus pure functions; the runtime
//! ([`crate::MrRuntime::inject_cluster_faults`]) owns the state machine.
//! See DESIGN.md §8 for the Hadoop semantics preserved and the shuffle
//! rules that keep results fault-schedule-invariant.

use std::fmt;

use incmr_dfs::NodeId;
use incmr_simkit::SimTime;

/// One scheduled TaskTracker outage: the node dies at `down_at` (killing
/// every attempt it hosts and stranding the map output it stored) and
/// optionally rejoins at `up_at` with full slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeOutage {
    /// The node that goes down.
    pub node: NodeId,
    /// Simulated instant of death.
    pub down_at: SimTime,
    /// Simulated instant of rejoin (`None` = stays dead).
    pub up_at: Option<SimTime>,
}

/// When to launch a speculative attempt for a laggard map task (Hadoop's
/// speculative execution, `mapred.map.tasks.speculative.execution`).
#[derive(Debug, Clone, Copy)]
pub struct SpeculationConfig {
    /// An attempt is a laggard once its age exceeds `slowdown_threshold ×`
    /// the mean duration of the job's completed maps.
    pub slowdown_threshold: f64,
    /// Completed maps required before the mean is trusted.
    pub min_completed: u32,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        // Hadoop flags a task whose progress trails the average by more
        // than 20%; with uniform splits that is an age threshold.
        SpeculationConfig {
            slowdown_threshold: 1.2,
            min_completed: 3,
        }
    }
}

/// The full cluster fault model, injected once per runtime before any job
/// is submitted ([`crate::MrRuntime::inject_cluster_faults`]).
#[derive(Debug, Clone, Default)]
pub struct ClusterFaultPlan {
    /// Scheduled node deaths and rejoins, on simulated time.
    pub outages: Vec<NodeOutage>,
    /// Per-node CPU speed factors in `(0, 1]`, indexed by `NodeId.0`
    /// (missing entries default to 1.0). A 0.5 node computes map records
    /// at half speed — the straggler knob.
    pub node_speed: Vec<f64>,
    /// Per-map-attempt failure probability in `[0, 1)`.
    pub map_fault_probability: f64,
    /// Per-reduce-attempt failure probability in `[0, 1)`.
    pub reduce_fault_probability: f64,
    /// Counted failures allowed per task before its job fails (killed
    /// attempts — node death, speculation losers — do not count, matching
    /// Hadoop's failed-vs-killed distinction). `0` means the Hadoop
    /// default of 4.
    pub max_attempts: u32,
    /// Speculative execution of laggard map attempts; `None` disables it.
    pub speculation: Option<SpeculationConfig>,
    /// Counted failures on one node before a job blacklists that node
    /// (Hadoop's `mapred.max.tracker.failures`, default 4); `None`
    /// disables blacklisting.
    pub blacklist_threshold: Option<u32>,
    /// Seed for the fault draws (map and reduce streams are forked from
    /// it independently).
    pub seed: u64,
}

impl ClusterFaultPlan {
    /// The attempt budget with the Hadoop default applied.
    pub fn effective_max_attempts(&self) -> u32 {
        if self.max_attempts == 0 {
            4
        } else {
            self.max_attempts
        }
    }

    /// Check the plan against a cluster of `num_nodes` nodes.
    pub fn validate(&self, num_nodes: usize) -> Result<(), FaultConfigError> {
        if !(0.0..1.0).contains(&self.map_fault_probability) {
            return Err(FaultConfigError::Probability {
                what: "map attempt fault",
                value: self.map_fault_probability,
            });
        }
        if !(0.0..1.0).contains(&self.reduce_fault_probability) {
            return Err(FaultConfigError::Probability {
                what: "reduce attempt fault",
                value: self.reduce_fault_probability,
            });
        }
        for outage in &self.outages {
            if outage.node.0 as usize >= num_nodes {
                return Err(FaultConfigError::UnknownNode { node: outage.node });
            }
            if let Some(up) = outage.up_at {
                if up <= outage.down_at {
                    return Err(FaultConfigError::RejoinBeforeDeath { node: outage.node });
                }
            }
        }
        if self.node_speed.len() > num_nodes {
            return Err(FaultConfigError::UnknownNode {
                node: NodeId(num_nodes as u16),
            });
        }
        for (i, &speed) in self.node_speed.iter().enumerate() {
            if !(speed > 0.0 && speed <= 1.0) {
                return Err(FaultConfigError::Speed {
                    node: NodeId(i as u16),
                    value: speed,
                });
            }
        }
        if let Some(spec) = &self.speculation {
            // NaN must be rejected too, hence the explicit partial_cmp.
            if spec.slowdown_threshold.partial_cmp(&1.0) != Some(std::cmp::Ordering::Greater) {
                return Err(FaultConfigError::SpeculationThreshold {
                    value: spec.slowdown_threshold,
                });
            }
        }
        if self.blacklist_threshold == Some(0) {
            return Err(FaultConfigError::ZeroBlacklistThreshold);
        }
        Ok(())
    }
}

/// A rejected fault configuration: which knob is out of range and why.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultConfigError {
    /// A probability outside `[0, 1)`.
    Probability {
        /// Which probability knob.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// An outage or speed entry referencing a node outside the topology.
    UnknownNode {
        /// The out-of-range node.
        node: NodeId,
    },
    /// An outage whose rejoin is not after its death.
    RejoinBeforeDeath {
        /// The node with the inverted schedule.
        node: NodeId,
    },
    /// A speed factor outside `(0, 1]`.
    Speed {
        /// The node with the bad factor.
        node: NodeId,
        /// The rejected value.
        value: f64,
    },
    /// A speculation slowdown threshold not above 1.0 (would speculate
    /// every attempt immediately).
    SpeculationThreshold {
        /// The rejected value.
        value: f64,
    },
    /// A blacklist threshold of zero (every node banned up front).
    ZeroBlacklistThreshold,
    /// A re-replication interval of zero (the repair tick would spin the
    /// event loop without advancing simulated time).
    ZeroRepairInterval,
}

impl fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultConfigError::Probability { what, value } => {
                write!(f, "{what} probability {value} is outside [0, 1)")
            }
            FaultConfigError::UnknownNode { node } => {
                write!(f, "{node} is outside the cluster topology")
            }
            FaultConfigError::RejoinBeforeDeath { node } => {
                write!(f, "{node} rejoins before (or at) its death")
            }
            FaultConfigError::Speed { node, value } => {
                write!(f, "{node} speed factor {value} is outside (0, 1]")
            }
            FaultConfigError::SpeculationThreshold { value } => {
                write!(f, "speculation slowdown threshold {value} must exceed 1.0")
            }
            FaultConfigError::ZeroBlacklistThreshold => {
                write!(f, "blacklist threshold must be at least 1")
            }
            FaultConfigError::ZeroRepairInterval => {
                write!(f, "re-replication interval must be positive")
            }
        }
    }
}

impl std::error::Error for FaultConfigError {}

/// Scheduler-agnostic view of one unfinished map task, as fed to
/// [`pick_speculative`].
#[derive(Debug, Clone, Copy)]
pub struct SpecCandidate {
    /// The task's id within its job.
    pub task: u32,
    /// Attempts currently in flight (0 = queued, waiting for a slot).
    pub attempts_in_flight: u32,
    /// Whether one of those attempts is already speculative.
    pub speculative_in_flight: bool,
    /// When the oldest in-flight attempt started.
    pub started: SimTime,
}

/// Choose at most one laggard task to speculate, or `None`.
///
/// Hadoop semantics: a speculative attempt launches only when the job has
/// no pending (queued) tasks, enough maps have completed to trust the mean
/// duration, and exactly one attempt of the candidate is in flight — so at
/// most one speculative attempt per task ever runs. Ties break on the
/// lowest task id for determinism. The scheduler-level invariants are
/// proptested in `scheduler/proptests.rs`.
pub fn pick_speculative(
    candidates: &[SpecCandidate],
    now: SimTime,
    mean_completed_ms: f64,
    completed: u32,
    cfg: &SpeculationConfig,
) -> Option<u32> {
    if completed < cfg.min_completed || mean_completed_ms <= 0.0 {
        return None;
    }
    let threshold_ms = cfg.slowdown_threshold * mean_completed_ms;
    candidates
        .iter()
        .filter(|c| {
            c.attempts_in_flight == 1
                && !c.speculative_in_flight
                && (now - c.started).as_millis() as f64 > threshold_ms
        })
        .map(|c| c.task)
        .min()
}

/// Scan an exported trace for speculative races that never resolved.
///
/// Every `SpeculativeLaunch` must be followed by either an `AttemptKilled`
/// on the same task (one racer lost) or the task's `MapFinished` commit;
/// a job that fails mid-race tears its attempts down without further
/// events, so `JobCompleted` also settles that job's races. Returns the
/// `(job, task)` pairs still open at the end of the trace — an empty
/// result is the invariant the chaos suite asserts.
pub fn unresolved_speculations(
    events: &[crate::trace::TraceEvent],
) -> Vec<(crate::job::JobId, crate::job::TaskId)> {
    use crate::trace::TraceKind;
    let mut open: Vec<(crate::job::JobId, crate::job::TaskId)> = Vec::new();
    for e in events {
        match e.kind {
            TraceKind::SpeculativeLaunch { job, task, .. } if !open.contains(&(job, task)) => {
                open.push((job, task));
            }
            TraceKind::AttemptKilled { job, task, .. }
            | TraceKind::MapFinished { job, task, .. } => {
                open.retain(|&(j, t)| (j, t) != (job, task));
            }
            TraceKind::JobCompleted { job, .. } => {
                open.retain(|&(j, _)| j != job);
            }
            _ => {}
        }
    }
    open
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_plan() -> ClusterFaultPlan {
        ClusterFaultPlan {
            outages: vec![NodeOutage {
                node: NodeId(2),
                down_at: SimTime::from_secs(30),
                up_at: Some(SimTime::from_secs(90)),
            }],
            node_speed: vec![1.0, 0.5],
            map_fault_probability: 0.1,
            reduce_fault_probability: 0.05,
            max_attempts: 4,
            speculation: Some(SpeculationConfig::default()),
            blacklist_threshold: Some(3),
            seed: 7,
        }
    }

    #[test]
    fn speculation_pairing_scans_the_trace() {
        use crate::job::{JobId, TaskId};
        use crate::trace::{TraceEvent, TraceKind};
        let at = |s: u64, kind: TraceKind| TraceEvent {
            time: SimTime::from_secs(s),
            kind,
        };
        let launch = |j: u32, t: u32| TraceKind::SpeculativeLaunch {
            job: JobId(j),
            task: TaskId(t),
            node: NodeId(0),
        };
        // Race 1 resolves by a kill, race 2 by its commit, race 3 by the
        // job failing mid-race; race 4 stays open.
        let events = vec![
            at(1, launch(0, 1)),
            at(2, launch(0, 2)),
            at(3, launch(1, 3)),
            at(4, launch(0, 4)),
            at(
                5,
                TraceKind::AttemptKilled {
                    job: JobId(0),
                    task: TaskId(1),
                    node: NodeId(0),
                },
            ),
            at(
                6,
                TraceKind::MapFinished {
                    job: JobId(0),
                    task: TaskId(2),
                    attempt_ms: 5,
                },
            ),
            at(
                7,
                TraceKind::JobCompleted {
                    job: JobId(1),
                    failed: true,
                },
            ),
        ];
        assert_eq!(
            unresolved_speculations(&events),
            vec![(JobId(0), TaskId(4))]
        );
        assert!(unresolved_speculations(&events[..3]).len() == 3);
    }

    #[test]
    fn valid_plan_passes() {
        assert_eq!(ok_plan().validate(10), Ok(()));
        assert_eq!(ClusterFaultPlan::default().validate(10), Ok(()));
    }

    #[test]
    fn default_max_attempts_is_hadoops_four() {
        assert_eq!(ClusterFaultPlan::default().effective_max_attempts(), 4);
        assert_eq!(ok_plan().effective_max_attempts(), 4);
    }

    #[test]
    fn probabilities_outside_unit_interval_are_rejected() {
        let mut p = ok_plan();
        p.map_fault_probability = 1.0;
        assert!(matches!(
            p.validate(10),
            Err(FaultConfigError::Probability {
                what: "map attempt fault",
                ..
            })
        ));
        let mut p = ok_plan();
        p.reduce_fault_probability = -0.1;
        assert!(matches!(
            p.validate(10),
            Err(FaultConfigError::Probability {
                what: "reduce attempt fault",
                ..
            })
        ));
    }

    #[test]
    fn outage_on_unknown_node_is_rejected() {
        let mut p = ok_plan();
        p.outages[0].node = NodeId(10);
        assert_eq!(
            p.validate(10),
            Err(FaultConfigError::UnknownNode { node: NodeId(10) })
        );
    }

    #[test]
    fn rejoin_must_follow_death() {
        let mut p = ok_plan();
        p.outages[0].up_at = Some(p.outages[0].down_at);
        assert_eq!(
            p.validate(10),
            Err(FaultConfigError::RejoinBeforeDeath { node: NodeId(2) })
        );
    }

    #[test]
    fn speed_factors_must_be_positive_and_at_most_one() {
        for bad in [0.0, -1.0, 1.5] {
            let mut p = ok_plan();
            p.node_speed = vec![bad];
            assert!(matches!(
                p.validate(10),
                Err(FaultConfigError::Speed { .. })
            ));
        }
        let mut p = ok_plan();
        p.node_speed = vec![1.0; 11];
        assert!(matches!(
            p.validate(10),
            Err(FaultConfigError::UnknownNode { .. })
        ));
    }

    #[test]
    fn degenerate_speculation_and_blacklist_are_rejected() {
        let mut p = ok_plan();
        p.speculation = Some(SpeculationConfig {
            slowdown_threshold: 1.0,
            min_completed: 3,
        });
        assert!(matches!(
            p.validate(10),
            Err(FaultConfigError::SpeculationThreshold { .. })
        ));
        let mut p = ok_plan();
        p.blacklist_threshold = Some(0);
        assert_eq!(
            p.validate(10),
            Err(FaultConfigError::ZeroBlacklistThreshold)
        );
    }

    #[test]
    fn fault_plan_validation_matches_old_asserts() {
        // The per-attempt model: only the map fault knobs set.
        let per_attempt = |probability: f64, max_attempts: u32| ClusterFaultPlan {
            map_fault_probability: probability,
            max_attempts,
            ..ClusterFaultPlan::default()
        };
        assert!(per_attempt(0.5, 4).validate(10).is_ok());
        assert!(matches!(
            per_attempt(1.0, 4).validate(10),
            Err(FaultConfigError::Probability { .. })
        ));
        // A zero budget is Hadoop's default, not an error.
        assert!(per_attempt(0.0, 0).validate(10).is_ok());
        assert_eq!(per_attempt(0.0, 0).effective_max_attempts(), 4);
    }

    #[test]
    fn errors_render_their_knob() {
        let e = FaultConfigError::Speed {
            node: NodeId(3),
            value: 2.0,
        };
        assert!(e.to_string().contains("node3"));
        assert!(e.to_string().contains("2"));
    }

    fn cand(task: u32, in_flight: u32, spec: bool, started_s: u64) -> SpecCandidate {
        SpecCandidate {
            task,
            attempts_in_flight: in_flight,
            speculative_in_flight: spec,
            started: SimTime::from_secs(started_s),
        }
    }

    #[test]
    fn speculation_picks_the_lowest_laggard() {
        let cfg = SpeculationConfig {
            slowdown_threshold: 1.5,
            min_completed: 3,
        };
        let now = SimTime::from_secs(100);
        // Mean 20 s → threshold 30 s → attempts started before t=70 lag.
        let cands = [
            cand(5, 1, false, 60),
            cand(2, 1, false, 50),
            cand(7, 1, false, 90),
        ];
        assert_eq!(pick_speculative(&cands, now, 20_000.0, 5, &cfg), Some(2));
    }

    #[test]
    fn speculation_needs_completed_maps_and_a_mean() {
        let cfg = SpeculationConfig::default();
        let cands = [cand(0, 1, false, 0)];
        let now = SimTime::from_secs(1_000);
        assert_eq!(pick_speculative(&cands, now, 20_000.0, 2, &cfg), None);
        assert_eq!(pick_speculative(&cands, now, 0.0, 10, &cfg), None);
    }

    #[test]
    fn speculation_never_doubles_up() {
        let cfg = SpeculationConfig {
            slowdown_threshold: 1.2,
            min_completed: 1,
        };
        let now = SimTime::from_secs(500);
        // Already speculating, already dual-attempt, or queued: all skipped.
        let cands = [
            cand(0, 1, true, 0),
            cand(1, 2, true, 0),
            cand(2, 0, false, 0),
        ];
        assert_eq!(pick_speculative(&cands, now, 1_000.0, 4, &cfg), None);
    }
}
