//! Task schedulers: how a heartbeat's free map slots are matched to
//! pending map tasks.
//!
//! "In Hadoop, the task of assigning empty slots to the pending tasks is
//! handled by the TaskScheduler. The default implementation provided by
//! Hadoop is based on FIFO … One of the prominently used alternate
//! scheduler implementations is the Fair Scheduler" (paper Section V-F).
//! Both are provided: [`fifo::FifoScheduler`] and [`fair::FairScheduler`]
//! (the latter with delay scheduling, which is what produces the paper's
//! high-locality / low-occupancy behaviour).
//!
//! ## The scheduling view
//!
//! As in Hadoop, the scheduler answers a TaskTracker heartbeat: a
//! [`SchedView`] offers one live node's free launches to a prefix of the
//! runnable jobs. A throughput experiment runs hundreds of thousands of
//! heartbeats against jobs with hundreds of queued tasks, so each job's
//! pending tasks are *indexed*, not flat — mirroring Hadoop's per-node
//! task caches:
//!
//! * [`SchedJob::head`] — the front of the job's pending queue in addition
//!   order (enough tasks to fill every free launch), used for non-local
//!   launches;
//! * [`SchedJob::local`] — pending tasks whose input split is stored on
//!   the offered node, used for data-local launches.
//!
//! A scheduler must never assign the same task twice or more tasks than
//! the view's free launches; the runtime validates both in debug builds.
//! A job that has blacklisted the offered node is flagged
//! [`SchedJob::banned`] — no task of that job may be assigned.

pub mod fair;
pub mod fifo;
#[cfg(test)]
mod proptests;

pub use fair::FairScheduler;
pub use fifo::FifoScheduler;

use std::collections::{HashMap, HashSet};

use incmr_simkit::SimTime;

use crate::job::{JobId, TaskId};

/// Tasks claimed so far within one heartbeat, with a per-job count
/// so [`SchedJob::unclaimed`] is O(1) instead of a scan over every claim.
///
/// At 10k queued jobs the old `HashSet<(JobId, TaskId)>`-only bookkeeping
/// made `unclaimed` — called once per job per free slot — an O(claims)
/// filter, which dominated dispatch cost. `Claims` keeps the same
/// membership set plus a per-job counter, both updated in O(1).
#[derive(Debug, Clone, Default)]
pub struct Claims {
    taken: HashSet<(JobId, TaskId)>,
    per_job: HashMap<JobId, u32>,
}

impl Claims {
    /// An empty claim set.
    pub fn new() -> Self {
        Claims::default()
    }

    /// Claim `task` of `job`. Returns `false` (and changes nothing) if it
    /// was already claimed.
    pub fn claim(&mut self, job: JobId, task: TaskId) -> bool {
        let fresh = self.taken.insert((job, task));
        if fresh {
            *self.per_job.entry(job).or_insert(0) += 1;
        }
        fresh
    }

    /// Whether `task` of `job` has been claimed this round.
    pub fn contains(&self, job: JobId, task: TaskId) -> bool {
        self.taken.contains(&(job, task))
    }

    /// How many tasks of `job` have been claimed this round (O(1)).
    pub fn claimed(&self, job: JobId) -> u32 {
        self.per_job.get(&job).copied().unwrap_or(0)
    }
}

/// What subset of runnable jobs a scheduler needs in its [`SchedView`].
///
/// The runtime keeps every runnable job in ordered indexes; at a
/// heartbeat it materialises only a *prefix* of the matching order —
/// enough jobs to fill every free launch plus [`VIEW_JOB_SLACK`] for
/// bans — instead of the whole queue. Which order the prefix is cut from
/// depends on the scheduler's dispatch rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewPolicy {
    /// A prefix in submission order (FIFO-family: only the oldest jobs
    /// with pending work can win a slot).
    SubmitOrder,
    /// A prefix in (running tasks, submission order) — fair-share order:
    /// only the most-starved jobs can win a slot.
    ShareOrder,
}

/// Extra jobs (beyond the free launches) included in a prefix scheduling
/// view (see [`ViewPolicy`]). One heartbeat launches at most `free`
/// tasks, so a prefix this deep decides identically to the full walk in
/// all but pathological blacklist patterns — while keeping the per-
/// heartbeat view cost independent of the total queued-job count.
pub const VIEW_JOB_SLACK: usize = 64;

/// Scheduler-visible state of one job.
#[derive(Debug, Clone)]
pub struct SchedJob {
    /// The job.
    pub job: JobId,
    /// Monotone submission sequence (FIFO order).
    pub submit_seq: u64,
    /// Map tasks currently running (fair-share accounting).
    pub running: u32,
    /// Total pending tasks (may exceed what the indexes expose).
    pub pending_total: u32,
    /// Front of the pending queue, in addition order (capped).
    pub head: Vec<TaskId>,
    /// For each head task, whether it has **no** replica anywhere (such
    /// tasks have no locality to wait for). Parallel to `head`.
    pub head_replica_less: Vec<bool>,
    /// Pending tasks whose input split is stored on the offered node
    /// (capped).
    pub local: Vec<TaskId>,
    /// Whether this job has blacklisted the offered node. Schedulers must
    /// assign it nothing.
    pub banned: bool,
}

impl SchedJob {
    /// A pending task local to the offered node, excluding those already
    /// claimed. Allocation-free: a bounded walk over the capped local
    /// index with O(1) membership checks.
    pub fn local_candidate(&self, claims: &Claims) -> Option<TaskId> {
        self.local
            .iter()
            .copied()
            .find(|t| !claims.contains(self.job, *t))
    }

    /// The first head task not yet claimed this round, with its
    /// replica-less flag.
    pub fn head_candidate_flagged(&self, claims: &Claims) -> Option<(TaskId, bool)> {
        self.head
            .iter()
            .zip(&self.head_replica_less)
            .find(|(t, _)| !claims.contains(self.job, **t))
            .map(|(t, r)| (*t, *r))
    }

    /// The first head task not yet claimed this round.
    pub fn head_candidate(&self, claims: &Claims) -> Option<TaskId> {
        self.head_candidate_flagged(claims).map(|(t, _)| t)
    }

    /// Pending tasks not yet claimed this round. O(1): the per-job claim
    /// counter replaces the old scan over every claim of every job.
    pub fn unclaimed(&self, claims: &Claims) -> u32 {
        self.pending_total.saturating_sub(claims.claimed(self.job))
    }
}

/// Everything a scheduler sees at one node's heartbeat.
#[derive(Debug, Clone)]
pub struct SchedView {
    /// Current time (drives delay scheduling).
    pub now: SimTime,
    /// Launches the offered node takes this heartbeat: its free map
    /// slots, capped at the maps-per-heartbeat limit.
    pub free: u32,
    /// Jobs with pending work, in submission order.
    pub jobs: Vec<SchedJob>,
    /// Whether `jobs` holds **every** runnable job, or only the prefix the
    /// scheduler's [`ViewPolicy`] asked for. Stateful schedulers must not
    /// garbage-collect per-job state (e.g. delay-scheduling wait clocks)
    /// based on absence from an incomplete view.
    pub complete: bool,
}

/// One launch on the offered node, decided by a scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// The job owning the task.
    pub job: JobId,
    /// The assigned task.
    pub task: TaskId,
}

/// A task-scheduling policy.
pub trait TaskScheduler {
    /// Human-readable name. Besides reports, this keys the runtime's
    /// per-scheduler queue-wait histograms
    /// ([`MetricsRegistry::queue_wait`](crate::obs::MetricsRegistry::queue_wait)),
    /// so two runs are comparable only if their schedulers report stable
    /// names.
    fn name(&self) -> &'static str;
    /// Decide this heartbeat's launches on the offered node, in order.
    fn assign(&mut self, view: &SchedView) -> Vec<Assignment>;
    /// Scheduler-imposed cap on map launches per tracker heartbeat, if it
    /// overrides the cluster default. Hadoop's Fair Scheduler assigned one
    /// task per heartbeat (`assignmultiple` defaulted off), which is the
    /// launch-rate ceiling behind its low measured slot occupancy.
    fn maps_per_heartbeat(&self) -> Option<u32> {
        None
    }
    /// The order this scheduler's dispatch rule consumes jobs in, from
    /// which the runtime cuts its O(free launches) view prefix.
    fn view_policy(&self) -> ViewPolicy;
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Where a test task's split is stored, relative to the offered node.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Locality {
        /// On the offered node.
        Here,
        /// Only on other nodes.
        Elsewhere,
        /// Nowhere: the task has no replica, so no locality to wait for.
        Nowhere,
    }

    /// Build a `SchedJob` from `(task, locality)` pairs, computing the
    /// head and local indexes the way the runtime does.
    pub fn sched_job(job: u32, seq: u64, running: u32, tasks: &[(u32, Locality)]) -> SchedJob {
        let mut local = Vec::new();
        let mut head = Vec::new();
        let mut head_replica_less = Vec::new();
        for &(task, locality) in tasks {
            head.push(TaskId(task));
            head_replica_less.push(locality == Locality::Nowhere);
            if locality == Locality::Here {
                local.push(TaskId(task));
            }
        }
        SchedJob {
            job: JobId(job),
            submit_seq: seq,
            running,
            pending_total: tasks.len() as u32,
            head,
            head_replica_less,
            local,
            banned: false,
        }
    }

    /// Check an assignment list against a view: at most `free` launches,
    /// no task twice, only offered tasks, and none for a banned job.
    pub fn validate(view: &SchedView, assignments: &[Assignment]) {
        assert!(
            assignments.len() <= view.free as usize,
            "{} launches for {} free",
            assignments.len(),
            view.free
        );
        let mut seen = HashSet::new();
        for a in assignments {
            assert!(seen.insert((a.job, a.task)), "task assigned twice: {a:?}");
            let job = view
                .jobs
                .iter()
                .find(|j| j.job == a.job)
                .expect("job exists");
            assert!(
                job.head.contains(&a.task) || job.local.contains(&a.task),
                "assigned task was not offered in the view"
            );
            assert!(!job.banned, "task of a job banned here: {a:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{sched_job, Locality::Here};
    use super::*;

    #[test]
    fn candidates_respect_claims() {
        let j = sched_job(0, 0, 0, &[(1, Here), (2, Here)]);
        let mut claims = Claims::new();
        assert_eq!(j.local_candidate(&claims), Some(TaskId(1)));
        assert!(claims.claim(JobId(0), TaskId(1)));
        assert!(!claims.claim(JobId(0), TaskId(1)), "double claim rejected");
        assert_eq!(j.local_candidate(&claims), Some(TaskId(2)));
        assert_eq!(j.head_candidate(&claims), Some(TaskId(2)));
        assert_eq!(j.unclaimed(&claims), 1);
        claims.claim(JobId(0), TaskId(2));
        assert_eq!(j.local_candidate(&claims), None);
        assert_eq!(j.unclaimed(&claims), 0);
    }

    #[test]
    fn claims_count_per_job() {
        let mut claims = Claims::new();
        claims.claim(JobId(3), TaskId(0));
        claims.claim(JobId(3), TaskId(1));
        claims.claim(JobId(4), TaskId(0));
        assert_eq!(claims.claimed(JobId(3)), 2);
        assert_eq!(claims.claimed(JobId(4)), 1);
        assert_eq!(claims.claimed(JobId(5)), 0);
        assert!(claims.contains(JobId(3), TaskId(1)));
        assert!(!claims.contains(JobId(4), TaskId(1)));
    }
}
