//! Hadoop's default scheduler: strict job-submission order ("slots being
//! assigned in order of a job's submission timestamp", Section V-F).
//!
//! Each free launch goes to the earliest-submitted job with pending work.
//! The scheduler prefers a node-local task of that job when one exists,
//! but will happily run a non-local task rather than leave the slot idle
//! — which is why its locality is mediocre (the paper measured 57%)
//! while its slot occupancy is high (44%).

use super::{Assignment, Claims, SchedJob, SchedView, TaskScheduler, ViewPolicy};

/// The FIFO scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoScheduler;

impl FifoScheduler {
    /// Create a FIFO scheduler.
    pub fn new() -> Self {
        FifoScheduler
    }
}

impl TaskScheduler for FifoScheduler {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn view_policy(&self) -> ViewPolicy {
        ViewPolicy::SubmitOrder
    }

    fn assign(&mut self, view: &SchedView) -> Vec<Assignment> {
        let mut assignments = Vec::new();
        let mut claims = Claims::new();
        // A job that blacklisted this node is never served here.
        let mut order: Vec<&SchedJob> = view.jobs.iter().filter(|j| !j.banned).collect();
        order.sort_by_key(|j| j.submit_seq);
        for _ in 0..view.free {
            // Earliest job with unclaimed pending work.
            let Some(job) = order.iter().find(|j| j.unclaimed(&claims) > 0) else {
                break;
            };
            // Prefer a task local to this node; otherwise take the head.
            let Some(task) = job
                .local_candidate(&claims)
                .or_else(|| job.head_candidate(&claims))
            else {
                // The view's capped indexes are exhausted for this job
                // even though more tasks pend; stop — the next heartbeat
                // sees a fresh view.
                break;
            };
            claims.claim(job.job, task);
            assignments.push(Assignment { job: job.job, task });
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
    use crate::job::{JobId, TaskId};
    use incmr_simkit::SimTime;

    fn view(free: u32, jobs: Vec<SchedJob>) -> SchedView {
        SchedView {
            now: SimTime::ZERO,
            free,
            jobs,
            complete: true,
        }
    }

    #[test]
    fn earliest_job_is_served_first() {
        let v = view(
            1,
            vec![
                sched_job(1, 10, 0, &[(0, Here)]),
                sched_job(0, 5, 0, &[(0, Here)]),
            ],
        );
        let a = FifoScheduler::new().assign(&v);
        validate(&v, &a);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].job, JobId(0), "lower submit_seq wins");
    }

    #[test]
    fn prefers_local_tasks_per_node() {
        // The job's task 1 is local to the offered node; task 0 heads the
        // queue but is stored elsewhere.
        let v = view(1, vec![sched_job(0, 0, 0, &[(0, Elsewhere), (1, Here)])]);
        let a = FifoScheduler::new().assign(&v);
        validate(&v, &a);
        assert_eq!(
            a,
            vec![Assignment {
                job: JobId(0),
                task: TaskId(1),
            }]
        );
    }

    #[test]
    fn falls_back_to_non_local_rather_than_idling() {
        let v = view(1, vec![sched_job(0, 0, 0, &[(0, Elsewhere)])]);
        let a = FifoScheduler::new().assign(&v);
        validate(&v, &a);
        assert_eq!(a.len(), 1, "FIFO never leaves a slot idle while work pends");
        assert_eq!(a[0].task, TaskId(0));
    }

    #[test]
    fn fills_all_slots_across_nodes() {
        // Three heartbeats, one per node, each offering two launches over
        // what the earlier heartbeats left pending.
        let mut pending: Vec<(u32, _)> = (0..6).map(|i| (i, Nowhere)).collect();
        for _node in 0..3 {
            let v = view(2, vec![sched_job(0, 0, 0, &pending)]);
            let a = FifoScheduler::new().assign(&v);
            validate(&v, &a);
            assert_eq!(a.len(), 2, "every free launch is filled");
            pending.retain(|(t, _)| a.iter().all(|x| x.task != TaskId(*t)));
        }
        assert!(pending.is_empty());
    }

    #[test]
    fn later_jobs_get_leftovers() {
        let v = view(
            3,
            vec![
                sched_job(0, 0, 0, &[(0, Nowhere), (1, Nowhere)]),
                sched_job(1, 1, 0, &[(0, Nowhere)]),
            ],
        );
        let a = FifoScheduler::new().assign(&v);
        validate(&v, &a);
        assert_eq!(a.len(), 3);
        assert_eq!(a.iter().filter(|x| x.job == JobId(0)).count(), 2);
        assert_eq!(a.iter().filter(|x| x.job == JobId(1)).count(), 1);
    }

    #[test]
    fn no_work_no_assignments() {
        let v = view(4, vec![]);
        assert!(FifoScheduler::new().assign(&v).is_empty());
    }

    #[test]
    fn blacklisted_node_serves_the_next_job_instead() {
        let mut banned = sched_job(0, 0, 0, &[(0, Here), (1, Here)]);
        banned.banned = true;
        let v = view(2, vec![banned, sched_job(1, 1, 0, &[(0, Nowhere)])]);
        let a = FifoScheduler::new().assign(&v);
        validate(&v, &a);
        assert_eq!(a.len(), 1, "only the unbanned job may use this node");
        assert_eq!(a[0].job, JobId(1));
    }

    #[test]
    fn same_task_in_head_and_local_index_assigned_once() {
        // Task 0 is both the head task and local to the offered node.
        let v = view(2, vec![sched_job(0, 0, 0, &[(0, Here)])]);
        let a = FifoScheduler::new().assign(&v);
        validate(&v, &a);
        assert_eq!(a.len(), 1);
    }
}
