//! Task schedulers: how free map slots are matched to pending map tasks.
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
//! A throughput experiment runs hundreds of thousands of scheduling points
//! against jobs with hundreds of queued tasks, so the view handed to
//! schedulers is *indexed*, not flat — mirroring Hadoop's per-node task
//! caches:
//!
//! * [`SchedJob::head`] — the front of the job's pending queue in addition
//!   order (enough tasks to fill every free slot), used for non-local
//!   launches;
//! * [`SchedJob::local_by_node`] — for each node that currently has free
//!   slots, pending tasks whose input split is stored on that node, used
//!   for data-local launches.
//!
//! A scheduler must never assign the same task twice or exceed a node's
//! free slots; the runtime validates both in debug builds. Dead nodes
//! never appear with free slots (the runtime zeroes them), and a job that
//! has blacklisted a node flags it in [`SchedJob::banned_nodes`] — no task
//! of that job may be assigned there.

pub mod fair;
pub mod fifo;
#[cfg(test)]
mod proptests;

pub use fair::FairScheduler;
pub use fifo::FifoScheduler;

use std::collections::{HashMap, HashSet};

use incmr_dfs::NodeId;
use incmr_simkit::SimTime;

use crate::job::{JobId, TaskId};

/// Tasks claimed so far within one scheduling point, with a per-job count
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
/// scheduling point it materialises only a *prefix* of the matching order
/// — enough jobs to fill every free slot plus slack for bans — instead of
/// the whole queue. Which order the prefix is cut from depends on the
/// scheduler's dispatch rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewPolicy {
    /// Offer every runnable job (custom or test schedulers; no prefix
    /// optimisation).
    Complete,
    /// A prefix in submission order (FIFO-family: only the oldest jobs
    /// with pending work can win a slot).
    SubmitOrder,
    /// A prefix in (running tasks, submission order) — fair-share order:
    /// only the most-starved jobs can win a slot.
    ShareOrder,
}

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
    /// Per-node local pending candidates, indexed by `NodeId.0` (only
    /// populated for nodes with free slots; capped per node).
    pub local_by_node: Vec<Vec<TaskId>>,
    /// Nodes this job has blacklisted, indexed by `NodeId.0` (empty when
    /// the job bans nothing). Schedulers must skip this job on such nodes.
    pub banned_nodes: Vec<bool>,
}

impl SchedJob {
    /// Whether this job has blacklisted `node`.
    pub fn banned_on(&self, node: NodeId) -> bool {
        self.banned_nodes
            .get(node.0 as usize)
            .copied()
            .unwrap_or(false)
    }

    /// A pending task local to `node`, excluding those already claimed.
    /// Allocation-free: a bounded walk over the capped per-node index with
    /// O(1) membership checks.
    pub fn local_candidate(&self, node: NodeId, claims: &Claims) -> Option<TaskId> {
        self.local_by_node
            .get(node.0 as usize)?
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

/// Everything a scheduler sees at a scheduling point.
#[derive(Debug, Clone)]
pub struct SchedView {
    /// Current time (drives delay scheduling).
    pub now: SimTime,
    /// Free map slots per node (indexed by `NodeId.0`).
    pub free_slots: Vec<u32>,
    /// Jobs with pending work, in submission order.
    pub jobs: Vec<SchedJob>,
    /// Whether `jobs` holds **every** runnable job, or only the prefix the
    /// scheduler's [`ViewPolicy`] asked for. Stateful schedulers must not
    /// garbage-collect per-job state (e.g. delay-scheduling wait clocks)
    /// based on absence from an incomplete view.
    pub complete: bool,
}

impl SchedView {
    /// Total free slots across the cluster.
    pub fn total_free(&self) -> u32 {
        self.free_slots.iter().sum()
    }
}

/// One slot-to-task binding decided by a scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// The job owning the task.
    pub job: JobId,
    /// The assigned task.
    pub task: TaskId,
    /// The node whose slot it takes.
    pub node: NodeId,
}

/// A task-scheduling policy.
pub trait TaskScheduler {
    /// Human-readable name. Besides reports, this keys the runtime's
    /// per-scheduler queue-wait histograms
    /// ([`MetricsRegistry::queue_wait`](crate::obs::MetricsRegistry::queue_wait)),
    /// so two runs are comparable only if their schedulers report stable
    /// names.
    fn name(&self) -> &'static str;
    /// Decide assignments for this scheduling point.
    fn assign(&mut self, view: &SchedView) -> Vec<Assignment>;
    /// Scheduler-imposed cap on map launches per tracker heartbeat, if it
    /// overrides the cluster default. Hadoop's Fair Scheduler assigned one
    /// task per heartbeat (`assignmultiple` defaulted off), which is the
    /// launch-rate ceiling behind its low measured slot occupancy.
    fn maps_per_heartbeat(&self) -> Option<u32> {
        None
    }
    /// Which subset of runnable jobs this scheduler needs offered in its
    /// view. The default — every runnable job — is always correct; the
    /// built-in schedulers declare the order their dispatch rule consumes
    /// so the runtime can hand them an O(free slots) prefix instead of the
    /// whole queue.
    fn view_policy(&self) -> ViewPolicy {
        ViewPolicy::Complete
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Build a `SchedJob` from `(task, local_nodes)` pairs, computing the
    /// head and per-node indexes the way the runtime does.
    pub fn sched_job(
        job: u32,
        seq: u64,
        running: u32,
        tasks: &[(u32, &[u16])],
        nodes: usize,
    ) -> SchedJob {
        let mut local_by_node = vec![Vec::new(); nodes];
        let mut head = Vec::new();
        let mut head_replica_less = Vec::new();
        for (task, locals) in tasks {
            head.push(TaskId(*task));
            head_replica_less.push(locals.is_empty());
            for &n in *locals {
                local_by_node[n as usize].push(TaskId(*task));
            }
        }
        SchedJob {
            job: JobId(job),
            submit_seq: seq,
            running,
            pending_total: tasks.len() as u32,
            head,
            head_replica_less,
            local_by_node,
            banned_nodes: Vec::new(),
        }
    }

    /// Sanity-check an assignment list against a view: slot limits and
    /// task uniqueness.
    pub fn validate(view: &SchedView, assignments: &[Assignment]) {
        let mut free = view.free_slots.clone();
        let mut seen = HashSet::new();
        for a in assignments {
            assert!(
                free[a.node.0 as usize] > 0,
                "node {:?} over-assigned",
                a.node
            );
            free[a.node.0 as usize] -= 1;
            assert!(seen.insert((a.job, a.task)), "task assigned twice: {a:?}");
            let job = view
                .jobs
                .iter()
                .find(|j| j.job == a.job)
                .expect("job exists");
            let known =
                job.head.contains(&a.task) || job.local_by_node.iter().any(|l| l.contains(&a.task));
            assert!(known, "assigned task was not offered in the view");
            assert!(
                !job.banned_on(a.node),
                "task assigned to a node its job blacklisted: {a:?}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::sched_job;
    use super::*;

    #[test]
    fn candidates_respect_claims() {
        let j = sched_job(0, 0, 0, &[(1, &[2]), (2, &[2])], 4);
        let mut claims = Claims::new();
        assert_eq!(j.local_candidate(NodeId(2), &claims), Some(TaskId(1)));
        assert!(claims.claim(JobId(0), TaskId(1)));
        assert!(!claims.claim(JobId(0), TaskId(1)), "double claim rejected");
        assert_eq!(j.local_candidate(NodeId(2), &claims), Some(TaskId(2)));
        assert_eq!(j.head_candidate(&claims), Some(TaskId(2)));
        assert_eq!(j.unclaimed(&claims), 1);
        claims.claim(JobId(0), TaskId(2));
        assert_eq!(j.local_candidate(NodeId(2), &claims), None);
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

    #[test]
    fn local_candidate_out_of_range_node_is_none() {
        let j = sched_job(0, 0, 0, &[(1, &[0])], 2);
        assert_eq!(j.local_candidate(NodeId(7), &Claims::new()), None);
    }

    #[test]
    fn banned_on_defaults_to_open() {
        let mut j = sched_job(0, 0, 0, &[(1, &[0])], 2);
        assert!(!j.banned_on(NodeId(0)));
        assert!(!j.banned_on(NodeId(9)), "out of range = not banned");
        j.banned_nodes = vec![false, true];
        assert!(j.banned_on(NodeId(1)));
        assert!(!j.banned_on(NodeId(0)));
    }

    #[test]
    fn view_total_free() {
        let v = SchedView {
            now: SimTime::ZERO,
            free_slots: vec![2, 0, 3],
            jobs: vec![],
            complete: true,
        };
        assert_eq!(v.total_free(), 5);
    }
}
