//! The Fair Scheduler with delay scheduling ("developed by researchers at
//! U.C Berkeley and Facebook", paper Section V-F).
//!
//! Two behaviours distinguish it from FIFO:
//!
//! 1. **Fair sharing** — slots go to the job that is furthest below its
//!    fair share (fewest running tasks), not to the oldest job.
//! 2. **Delay scheduling** — a job offered a slot on a node where it has no
//!    local data *declines* and waits (up to the configured
//!    `locality_delay`) for a slot on a node that does hold its data.
//!
//! Delay scheduling trades slot occupancy for locality: the paper measured
//! 88% locality at only 18% occupancy (vs FIFO's 57% / 44%), with lower
//! overall throughput — the trend Figure 8 documents and our Figure 8
//! regenerator reproduces.

use std::collections::HashMap;

use incmr_dfs::NodeId;
use incmr_simkit::{SimDuration, SimTime};

use crate::job::JobId;

use super::{Assignment, Claims, SchedJob, SchedView, TaskScheduler, ViewPolicy};

/// The Fair Scheduler.
#[derive(Debug, Clone)]
pub struct FairScheduler {
    locality_delay: SimDuration,
    /// When each job first declined a non-local slot (cleared on any
    /// launch).
    waiting_since: HashMap<JobId, SimTime>,
}

impl FairScheduler {
    /// A fair scheduler that waits at most `locality_delay` for a local
    /// slot before accepting a non-local one.
    pub fn new(locality_delay: SimDuration) -> Self {
        FairScheduler {
            locality_delay,
            waiting_since: HashMap::new(),
        }
    }

    /// The configuration used in the paper-shaped experiments: 15 s — five
    /// heartbeats at the default cadence, within the range Zaharia et al.
    /// recommend (a fraction of the mean task length per locality level).
    pub fn paper_default() -> Self {
        FairScheduler::new(SimDuration::from_secs(15))
    }
}

impl TaskScheduler for FairScheduler {
    fn name(&self) -> &'static str {
        "fair"
    }

    fn maps_per_heartbeat(&self) -> Option<u32> {
        // `mapred.fairscheduler.assignmultiple = false` in the 0.20 era.
        Some(1)
    }

    fn view_policy(&self) -> ViewPolicy {
        ViewPolicy::ShareOrder
    }

    // The index is also used to mutate `free` mid-loop; an iterator would
    // fight the borrow checker for no clarity gain.
    #[allow(clippy::needless_range_loop)]
    fn assign(&mut self, view: &SchedView) -> Vec<Assignment> {
        // Drop wait clocks for jobs no longer contending (completed, or
        // momentarily without pending work) — otherwise the map grows with
        // every job a long workload ever ran. Only a complete view can
        // prove absence; a share-order prefix omits well-fed jobs that are
        // still very much contending.
        if view.complete {
            self.waiting_since
                .retain(|j, _| view.jobs.iter().any(|sj| sj.job == *j));
        }
        let mut assignments = Vec::new();
        let mut free = view.free_slots.clone();
        let mut running: HashMap<JobId, u32> =
            view.jobs.iter().map(|j| (j.job, j.running)).collect();
        let mut claims = Claims::new();

        // One pass over the nodes; each slot is offered to jobs in fairness
        // order. Wait clocks only mature between scheduling points, so a
        // single pass reaches the fixpoint for this call.
        for node_idx in 0..free.len() {
            while free[node_idx] > 0 {
                let node = NodeId(node_idx as u16);
                // Jobs with unclaimed pending work, most-starved first
                // (ties broken by submission order for determinism).
                let mut order: Vec<&SchedJob> = view
                    .jobs
                    .iter()
                    .filter(|j| j.unclaimed(&claims) > 0)
                    .collect();
                if order.is_empty() {
                    return assignments;
                }
                order.sort_by_key(|j| (running[&j.job], j.submit_seq));

                let mut launched = false;
                for job in order {
                    // A blacklisted node is not a locality decline: skip
                    // the job here without touching its wait clock.
                    if job.banned_on(node) {
                        continue;
                    }
                    // Local launch when possible; non-local only for
                    // replica-less head tasks or once the wait clock has
                    // exceeded the configured delay.
                    let local = job.local_candidate(node, &claims);
                    let task = match local {
                        Some(t) => Some(t),
                        None => {
                            let head = job.head_candidate_flagged(&claims);
                            let waited = self
                                .waiting_since
                                .get(&job.job)
                                .map(|&since| view.now - since >= self.locality_delay)
                                .unwrap_or(false);
                            match head {
                                Some((t, replica_less)) if replica_less || waited => Some(t),
                                _ => None,
                            }
                        }
                    };
                    if let Some(task) = task {
                        claims.claim(job.job, task);
                        assignments.push(Assignment {
                            job: job.job,
                            task,
                            node,
                        });
                        free[node_idx] -= 1;
                        *running.get_mut(&job.job).expect("registered") += 1;
                        self.waiting_since.remove(&job.job);
                        launched = true;
                        break;
                    }
                    // Decline: start (or continue) the wait clock.
                    self.waiting_since.entry(job.job).or_insert(view.now);
                }
                if !launched {
                    // Every job declined this node; try the next one.
                    break;
                }
            }
        }
        assignments
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{sched_job, validate};
    use super::super::SchedView;
    use super::*;
    use crate::job::TaskId;

    fn view(now: SimTime, free: Vec<u32>, jobs: Vec<SchedJob>) -> SchedView {
        SchedView {
            now,
            free_slots: free,
            jobs,
            complete: true,
        }
    }

    #[test]
    fn starved_job_wins_over_older_job() {
        let v = view(
            SimTime::ZERO,
            vec![1],
            vec![
                sched_job(0, 0, 5, &[(0, &[0])], 1),
                sched_job(1, 1, 0, &[(0, &[0])], 1),
            ],
        );
        let a = FairScheduler::paper_default().assign(&v);
        validate(&v, &a);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].job, JobId(1), "fewest running tasks wins the slot");
    }

    #[test]
    fn declines_non_local_slot_within_delay() {
        // The job's only task is local to node 1, but only node 0 has a slot.
        let v = view(
            SimTime::ZERO,
            vec![1, 0],
            vec![sched_job(0, 0, 0, &[(0, &[1])], 2)],
        );
        let mut s = FairScheduler::paper_default();
        assert!(
            s.assign(&v).is_empty(),
            "delay scheduling leaves the slot idle at first"
        );
    }

    #[test]
    fn accepts_non_local_after_delay_expires() {
        let mut s = FairScheduler::paper_default();
        let v0 = view(
            SimTime::ZERO,
            vec![1, 0],
            vec![sched_job(0, 0, 0, &[(0, &[1])], 2)],
        );
        assert!(s.assign(&v0).is_empty());
        // 16 seconds later the wait exceeds the 15 s delay.
        let v1 = view(
            SimTime::from_secs(16),
            vec![1, 0],
            vec![sched_job(0, 0, 0, &[(0, &[1])], 2)],
        );
        let a = s.assign(&v1);
        validate(&v1, &a);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].node, NodeId(0));
    }

    #[test]
    fn local_launch_resets_the_wait_clock() {
        let mut s = FairScheduler::paper_default();
        // Decline at t=0.
        let v0 = view(
            SimTime::ZERO,
            vec![1, 0],
            vec![sched_job(0, 0, 0, &[(0, &[1])], 2)],
        );
        assert!(s.assign(&v0).is_empty());
        // At t=3 a local slot appears; the job launches locally.
        let v1 = view(
            SimTime::from_secs(3),
            vec![0, 1],
            vec![sched_job(0, 0, 0, &[(0, &[1]), (1, &[1])], 2)],
        );
        let a = s.assign(&v1);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].task, TaskId(0));
        // A new decline at t=4 restarts the clock: at t=8 only 4 s have
        // passed since the reset, so still declined.
        let v2 = view(
            SimTime::from_secs(4),
            vec![1, 0],
            vec![sched_job(0, 0, 1, &[(1, &[1])], 2)],
        );
        assert!(s.assign(&v2).is_empty());
        let v3 = view(
            SimTime::from_secs(8),
            vec![1, 0],
            vec![sched_job(0, 0, 1, &[(1, &[1])], 2)],
        );
        assert!(
            s.assign(&v3).is_empty(),
            "clock was reset by the local launch"
        );
    }

    #[test]
    fn replica_less_tasks_launch_anywhere_immediately() {
        let v = view(
            SimTime::ZERO,
            vec![1],
            vec![sched_job(0, 0, 0, &[(0, &[])], 1)],
        );
        let a = FairScheduler::paper_default().assign(&v);
        validate(&v, &a);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn local_task_preferred_over_head_of_queue() {
        let v = view(
            SimTime::ZERO,
            vec![0, 1],
            vec![sched_job(0, 0, 0, &[(0, &[0]), (1, &[1])], 2)],
        );
        let a = FairScheduler::paper_default().assign(&v);
        validate(&v, &a);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].task, TaskId(1), "the node-1-local task runs on node 1");
    }

    #[test]
    fn blacklisted_node_is_skipped_without_starting_the_wait_clock() {
        let mut s = FairScheduler::paper_default();
        let mut banned = sched_job(0, 0, 0, &[(0, &[0])], 2);
        banned.banned_nodes = vec![true, false];
        let v0 = view(SimTime::ZERO, vec![1, 0], vec![banned.clone()]);
        assert!(s.assign(&v0).is_empty(), "job may not run on node 0");
        // Much later, node 0 is still off-limits: the skip never matured a
        // wait clock into a non-local launch there.
        let v1 = view(SimTime::from_secs(100), vec![1, 0], vec![banned.clone()]);
        assert!(s.assign(&v1).is_empty());
        // An unbanned node with the job's data serves it immediately.
        let mut allowed = sched_job(0, 0, 0, &[(0, &[1])], 2);
        allowed.banned_nodes = vec![true, false];
        let v2 = view(SimTime::from_secs(100), vec![0, 1], vec![allowed]);
        let a = s.assign(&v2);
        validate(&v2, &a);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].node, NodeId(1));
    }

    #[test]
    fn incomplete_view_keeps_wait_clocks_alive() {
        let mut s = FairScheduler::paper_default();
        // Decline at t=0 starts job 0's wait clock.
        let v0 = view(
            SimTime::ZERO,
            vec![1, 0],
            vec![sched_job(0, 0, 0, &[(0, &[1])], 2)],
        );
        assert!(s.assign(&v0).is_empty());
        // An incomplete prefix view that omits job 0 must NOT drop its
        // clock...
        let mut v1 = view(
            SimTime::from_secs(5),
            vec![0, 0],
            vec![sched_job(7, 7, 0, &[(0, &[0])], 2)],
        );
        v1.complete = false;
        let _ = s.assign(&v1);
        // ...so at t=16 the matured clock still launches non-locally.
        let v2 = view(
            SimTime::from_secs(16),
            vec![1, 0],
            vec![sched_job(0, 0, 0, &[(0, &[1])], 2)],
        );
        let a = s.assign(&v2);
        assert_eq!(a.len(), 1, "wait clock survived the incomplete view");
    }

    #[test]
    fn complete_view_gcs_departed_jobs() {
        let mut s = FairScheduler::paper_default();
        let v0 = view(
            SimTime::ZERO,
            vec![1, 0],
            vec![sched_job(0, 0, 0, &[(0, &[1])], 2)],
        );
        assert!(s.assign(&v0).is_empty());
        assert_eq!(s.waiting_since.len(), 1);
        // A complete view without job 0 proves it left; the clock is GCed.
        let v1 = view(SimTime::from_secs(5), vec![0], vec![]);
        let _ = s.assign(&v1);
        assert!(s.waiting_since.is_empty(), "departed job's clock dropped");
    }

    #[test]
    fn spreads_slots_fairly_across_jobs() {
        let tasks: Vec<(u32, &[u16])> = (0..4).map(|i| (i, &[0u16][..])).collect();
        let v = view(
            SimTime::ZERO,
            vec![4],
            vec![sched_job(0, 0, 0, &tasks, 1), sched_job(1, 1, 0, &tasks, 1)],
        );
        let a = FairScheduler::paper_default().assign(&v);
        validate(&v, &a);
        assert_eq!(a.len(), 4);
        assert_eq!(a.iter().filter(|x| x.job == JobId(0)).count(), 2);
        assert_eq!(a.iter().filter(|x| x.job == JobId(1)).count(), 2);
    }
}
