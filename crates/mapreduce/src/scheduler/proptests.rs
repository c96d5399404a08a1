//! Property-based tests of the scheduler contract: for *any* heartbeat
//! view, both schedulers launch at most the node's free launches, never
//! assign a task twice, only assign offered tasks, never dispatch a job
//! that blacklisted the node, and are deterministic. The speculation
//! picker's one-backup-per-task rule is proptested alongside.

use proptest::prelude::*;

use incmr_simkit::SimTime;

use super::testutil::validate;
use super::{FairScheduler, FifoScheduler, SchedJob, SchedView, TaskScheduler};
use crate::faults::{pick_speculative, SpecCandidate, SpeculationConfig};
use crate::job::{JobId, TaskId};

/// Strategy: a random heartbeat view. Each task is stored on the offered
/// node, only elsewhere, or nowhere; each job may have banned the node.
fn arb_view(max_jobs: usize, max_tasks: usize) -> impl Strategy<Value = SchedView> {
    let job = (
        0u32..8,
        prop::collection::vec((any::<bool>(), any::<bool>()), 0..=max_tasks),
        any::<bool>(),
    );
    (0u32..4, prop::collection::vec(job, 0..=max_jobs)).prop_map(|(free, jobs)| {
        let jobs = jobs
            .into_iter()
            .enumerate()
            .map(|(j, (running, tasks, banned))| {
                let mut local = Vec::new();
                let mut head = Vec::new();
                let mut head_replica_less = Vec::new();
                for (t, &(stored, here)) in tasks.iter().enumerate() {
                    let id = TaskId(t as u32);
                    head.push(id);
                    head_replica_less.push(!stored);
                    if stored && here {
                        local.push(id);
                    }
                }
                SchedJob {
                    job: JobId(j as u32),
                    submit_seq: j as u64,
                    running,
                    pending_total: head.len() as u32,
                    head,
                    head_replica_less,
                    local,
                    banned,
                }
            })
            .collect();
        SchedView {
            now: SimTime::from_secs(100),
            free,
            jobs,
            complete: true,
        }
    })
}

/// One job with `tasks` pending tasks, none stored on the offered node;
/// `replica_less` says whether they are stored anywhere at all.
fn one_job(tasks: usize, replica_less: bool) -> SchedJob {
    SchedJob {
        job: JobId(0),
        submit_seq: 0,
        running: 0,
        pending_total: tasks as u32,
        head: (0..tasks as u32).map(TaskId).collect(),
        head_replica_less: vec![replica_less; tasks],
        local: Vec::new(),
        banned: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fifo_respects_the_contract(view in arb_view(5, 8)) {
        let assignments = FifoScheduler::new().assign(&view);
        validate(&view, &assignments);
    }

    #[test]
    fn fair_respects_the_contract(view in arb_view(5, 8)) {
        let assignments = FairScheduler::paper_default().assign(&view);
        validate(&view, &assignments);
    }

    #[test]
    fn schedulers_are_deterministic(view in arb_view(5, 8)) {
        prop_assert_eq!(FifoScheduler::new().assign(&view), FifoScheduler::new().assign(&view));
        prop_assert_eq!(
            FairScheduler::paper_default().assign(&view),
            FairScheduler::paper_default().assign(&view)
        );
    }

    /// FIFO is work-conserving: if any job offers a task every node can
    /// take (replica-less head), no launch stays free.
    #[test]
    fn fifo_fills_slots_when_tasks_are_unconstrained(free in 0u32..4, tasks in 1usize..12) {
        let view = SchedView {
            now: SimTime::ZERO,
            free,
            jobs: vec![one_job(tasks, true)],
            complete: true,
        };
        let assignments = FifoScheduler::new().assign(&view);
        prop_assert_eq!(assignments.len() as u32, free.min(tasks as u32));
        validate(&view, &assignments);
    }

    /// The Fair Scheduler never assigns a replicated task non-locally on
    /// the first offer (the delay must mature first).
    #[test]
    fn fair_first_offer_is_never_non_local(free in 1u32..4, tasks in 1usize..6) {
        let view = SchedView {
            now: SimTime::from_secs(5),
            free,
            jobs: vec![one_job(tasks, false)],
            complete: true,
        };
        let assignments = FairScheduler::paper_default().assign(&view);
        prop_assert!(assignments.is_empty(), "fresh fair scheduler must decline: {assignments:?}");
    }

    /// A job banned on the offered node gets nothing, no matter the offer
    /// — and other jobs still fill the launches (bans must not wedge a
    /// scheduler).
    #[test]
    fn banned_everywhere_job_is_never_dispatched(view in arb_view(5, 8)) {
        let mut view = view;
        if let Some(first) = view.jobs.first_mut() {
            first.banned = true;
        }
        let banned_job = view.jobs.first().map(|j| j.job);
        for assignments in [
            FifoScheduler::new().assign(&view),
            FairScheduler::paper_default().assign(&view),
        ] {
            validate(&view, &assignments);
            prop_assert!(
                assignments.iter().all(|a| Some(a.job) != banned_job),
                "banned job was dispatched: {assignments:?}"
            );
        }
    }

    /// The speculation picker launches at most one backup per task: it
    /// never picks a task that is already speculating, already has two
    /// attempts in flight, or is still queued.
    #[test]
    fn speculation_never_exceeds_one_backup_per_task(
        cands in prop::collection::vec(
            (0u32..3, any::<bool>(), 0u64..1_000),
            0..24,
        ),
        now_s in 0u64..2_000,
        mean_ms in 1.0f64..100_000.0,
        completed in 0u32..20,
    ) {
        let cands: Vec<SpecCandidate> = cands
            .into_iter()
            .enumerate()
            .map(|(task, (attempts_in_flight, speculative_in_flight, started_s))| SpecCandidate {
                task: task as u32,
                attempts_in_flight,
                speculative_in_flight,
                started: SimTime::from_secs(started_s),
            })
            .collect();
        let cfg = SpeculationConfig::default();
        let picked = pick_speculative(&cands, SimTime::from_secs(now_s), mean_ms, completed, &cfg);
        if let Some(task) = picked {
            prop_assert!(completed >= cfg.min_completed);
            let c = cands.iter().find(|c| c.task == task).expect("picked from candidates");
            prop_assert_eq!(c.attempts_in_flight, 1, "backup beside exactly one running attempt");
            prop_assert!(!c.speculative_in_flight, "second backup for one task");
            // Re-asking after the launch (the task now has 2 attempts, one
            // speculative) must not pick the same task again.
            let after: Vec<SpecCandidate> = cands
                .iter()
                .map(|c| if c.task == task {
                    SpecCandidate { attempts_in_flight: 2, speculative_in_flight: true, ..*c }
                } else {
                    *c
                })
                .collect();
            prop_assert_ne!(
                pick_speculative(&after, SimTime::from_secs(now_s), mean_ms, completed, &cfg),
                Some(task)
            );
        }
    }
}
