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
        let mut claims = Claims::new();

        // Each free launch is offered to jobs in fairness order. Wait
        // clocks only mature between heartbeats, so one offer per launch
        // reaches the fixpoint for this call.
        'launch: for _ in 0..view.free {
            // Jobs with unclaimed pending work, most-starved first (running
            // tasks, counting this call's launches; ties broken by
            // submission order for determinism). A blacklisted node is not
            // a locality decline: a banned job is skipped without touching
            // its wait clock.
            let mut order: Vec<&SchedJob> = view
                .jobs
                .iter()
                .filter(|j| !j.banned && j.unclaimed(&claims) > 0)
                .collect();
            order.sort_by_key(|j| (j.running + claims.claimed(j.job), j.submit_seq));
            for job in order {
                // Local launch when possible; non-local only for
                // replica-less head tasks or once the wait clock has
                // exceeded the configured delay.
                let local = job.local_candidate(&claims);
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
                    assignments.push(Assignment { job: job.job, task });
                    self.waiting_since.remove(&job.job);
                    continue 'launch;
                }
                // Decline: start (or continue) the wait clock.
                self.waiting_since.entry(job.job).or_insert(view.now);
            }
            // Every job declined this launch.
            break;
        }
        assignments
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{
        sched_job, validate,
        Locality::{Elsewhere, Here, Nowhere},
    };
    use super::*;
    use crate::job::TaskId;

    fn view(now: SimTime, free: u32, jobs: Vec<SchedJob>) -> SchedView {
        SchedView {
            now,
            free,
            jobs,
            complete: true,
        }
    }

    /// A job whose only task is stored on another node.
    fn remote_job() -> SchedJob {
        sched_job(0, 0, 0, &[(0, Elsewhere)])
    }

    #[test]
    fn starved_job_wins_over_older_job() {
        let v = view(
            SimTime::ZERO,
            1,
            vec![
                sched_job(0, 0, 5, &[(0, Here)]),
                sched_job(1, 1, 0, &[(0, Here)]),
            ],
        );
        let a = FairScheduler::paper_default().assign(&v);
        validate(&v, &a);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].job, JobId(1), "fewest running tasks wins the slot");
    }

    #[test]
    fn declines_non_local_slot_within_delay() {
        let v = view(SimTime::ZERO, 1, vec![remote_job()]);
        let mut s = FairScheduler::paper_default();
        assert!(
            s.assign(&v).is_empty(),
            "delay scheduling leaves the slot idle at first"
        );
    }

    #[test]
    fn accepts_non_local_after_delay_expires() {
        let mut s = FairScheduler::paper_default();
        assert!(s
            .assign(&view(SimTime::ZERO, 1, vec![remote_job()]))
            .is_empty());
        // 16 seconds later the wait exceeds the 15 s delay.
        let v1 = view(SimTime::from_secs(16), 1, vec![remote_job()]);
        let a = s.assign(&v1);
        validate(&v1, &a);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].task, TaskId(0));
    }

    #[test]
    fn local_launch_resets_the_wait_clock() {
        let mut s = FairScheduler::paper_default();
        // Decline at t=0.
        assert!(s
            .assign(&view(SimTime::ZERO, 1, vec![remote_job()]))
            .is_empty());
        // At t=3 a node holding task 0 heartbeats; the job launches
        // locally.
        let v1 = view(
            SimTime::from_secs(3),
            1,
            vec![sched_job(0, 0, 0, &[(0, Here), (1, Elsewhere)])],
        );
        let a = s.assign(&v1);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].task, TaskId(0));
        // A new decline at t=4 restarts the clock: at t=8 only 4 s have
        // passed since the reset, so still declined.
        let rest = || vec![sched_job(0, 0, 1, &[(1, Elsewhere)])];
        assert!(s.assign(&view(SimTime::from_secs(4), 1, rest())).is_empty());
        assert!(
            s.assign(&view(SimTime::from_secs(8), 1, rest())).is_empty(),
            "clock was reset by the local launch"
        );
    }

    #[test]
    fn replica_less_tasks_launch_anywhere_immediately() {
        let v = view(SimTime::ZERO, 1, vec![sched_job(0, 0, 0, &[(0, Nowhere)])]);
        let a = FairScheduler::paper_default().assign(&v);
        validate(&v, &a);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn local_task_preferred_over_head_of_queue() {
        let v = view(
            SimTime::ZERO,
            1,
            vec![sched_job(0, 0, 0, &[(0, Elsewhere), (1, Here)])],
        );
        let a = FairScheduler::paper_default().assign(&v);
        validate(&v, &a);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].task, TaskId(1), "the local task runs here");
    }

    #[test]
    fn blacklisted_node_is_skipped_without_starting_the_wait_clock() {
        let mut s = FairScheduler::paper_default();
        let mut banned = sched_job(0, 0, 0, &[(0, Here)]);
        banned.banned = true;
        let v0 = view(SimTime::ZERO, 1, vec![banned]);
        assert!(s.assign(&v0).is_empty(), "job may not run on this node");
        assert!(s.waiting_since.is_empty(), "a ban is not a decline");
        // At t=16 an unbanned node without the job's data declines it:
        // had the skip at t=0 started the clock, it would have matured.
        let v1 = view(SimTime::from_secs(16), 1, vec![remote_job()]);
        assert!(s.assign(&v1).is_empty());
        // An unbanned node with the job's data serves it immediately.
        let v2 = view(
            SimTime::from_secs(17),
            1,
            vec![sched_job(0, 0, 0, &[(0, Here)])],
        );
        let a = s.assign(&v2);
        validate(&v2, &a);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn incomplete_view_keeps_wait_clocks_alive() {
        let mut s = FairScheduler::paper_default();
        // Decline at t=0 starts job 0's wait clock.
        assert!(s
            .assign(&view(SimTime::ZERO, 1, vec![remote_job()]))
            .is_empty());
        // An incomplete prefix view that omits job 0 must NOT drop its
        // clock...
        let mut v1 = view(
            SimTime::from_secs(5),
            0,
            vec![sched_job(7, 7, 0, &[(0, Here)])],
        );
        v1.complete = false;
        let _ = s.assign(&v1);
        // ...so at t=16 the matured clock still launches non-locally.
        let a = s.assign(&view(SimTime::from_secs(16), 1, vec![remote_job()]));
        assert_eq!(a.len(), 1, "wait clock survived the incomplete view");
    }

    #[test]
    fn complete_view_gcs_departed_jobs() {
        let mut s = FairScheduler::paper_default();
        assert!(s
            .assign(&view(SimTime::ZERO, 1, vec![remote_job()]))
            .is_empty());
        assert_eq!(s.waiting_since.len(), 1);
        // A complete view without job 0 proves it left; the clock is GCed.
        let _ = s.assign(&view(SimTime::from_secs(5), 0, vec![]));
        assert!(s.waiting_since.is_empty(), "departed job's clock dropped");
    }

    #[test]
    fn spreads_slots_fairly_across_jobs() {
        let tasks: Vec<(u32, _)> = (0..4).map(|i| (i, Here)).collect();
        let v = view(
            SimTime::ZERO,
            4,
            vec![sched_job(0, 0, 0, &tasks), sched_job(1, 1, 0, &tasks)],
        );
        let a = FairScheduler::paper_default().assign(&v);
        validate(&v, &a);
        assert_eq!(a.len(), 4);
        assert_eq!(a.iter().filter(|x| x.job == JobId(0)).count(), 2);
        assert_eq!(a.iter().filter(|x| x.job == JobId(1)).count(), 2);
    }
}
