//! Property-based tests of the scheduler contract: for *any* view, both
//! schedulers produce assignments that respect slot limits, never assign a
//! task twice, only assign offered tasks, never dispatch to a dead (zero
//! free slots) or blacklisted node, and are deterministic. The speculation
//! picker's one-backup-per-task rule is proptested alongside.

use proptest::prelude::*;
use std::collections::HashSet;

use incmr_dfs::NodeId;
use incmr_simkit::SimTime;

use super::{FairScheduler, FifoScheduler, SchedJob, SchedView, TaskScheduler};
use crate::faults::{pick_speculative, SpecCandidate, SpeculationConfig};
use crate::job::{JobId, TaskId};

/// Strategy: a random scheduling view over `nodes` nodes.
fn arb_view(
    max_nodes: usize,
    max_jobs: usize,
    max_tasks: usize,
) -> impl Strategy<Value = SchedView> {
    (1..=max_nodes, 0..=max_jobs).prop_flat_map(move |(nodes, jobs)| {
        let free = prop::collection::vec(0u32..4, nodes);
        let job = (
            0u32..8,
            prop::collection::vec(
                (any::<u8>(), prop::collection::vec(0..nodes as u16, 0..3)),
                0..=max_tasks,
            ),
            prop::collection::vec(any::<bool>(), nodes),
        );
        let jobs = prop::collection::vec(job, jobs);
        (free, jobs).prop_map(move |(free_slots, jobs)| {
            let jobs = jobs
                .into_iter()
                .enumerate()
                .map(|(j, (running, tasks, banned_nodes))| {
                    let mut local_by_node = vec![Vec::new(); free_slots.len()];
                    let mut head = Vec::new();
                    let mut head_replica_less = Vec::new();
                    for (t, (_tag, locals)) in tasks.iter().enumerate() {
                        let id = TaskId(t as u32);
                        head.push(id);
                        head_replica_less.push(locals.is_empty());
                        for &n in locals {
                            local_by_node[n as usize].push(id);
                        }
                    }
                    SchedJob {
                        job: JobId(j as u32),
                        submit_seq: j as u64,
                        running,
                        pending_total: head.len() as u32,
                        head,
                        head_replica_less,
                        local_by_node,
                        banned_nodes,
                    }
                })
                .collect();
            SchedView {
                now: SimTime::from_secs(100),
                free_slots,
                jobs,
                complete: true,
            }
        })
    })
}

fn check_contract(view: &SchedView, assignments: &[super::Assignment]) {
    let mut free = view.free_slots.clone();
    let mut seen = HashSet::new();
    for a in assignments {
        assert!(
            free[a.node.0 as usize] > 0,
            "over-assigned node {:?}",
            a.node
        );
        free[a.node.0 as usize] -= 1;
        assert!(seen.insert((a.job, a.task)), "double assignment {a:?}");
        let job = view
            .jobs
            .iter()
            .find(|j| j.job == a.job)
            .expect("known job");
        let offered =
            job.head.contains(&a.task) || job.local_by_node.iter().any(|l| l.contains(&a.task));
        assert!(offered, "assigned a task that was never offered");
        assert!(
            !job.banned_on(a.node),
            "dispatched to a node the job blacklisted: {a:?}"
        );
        assert!(
            view.free_slots[a.node.0 as usize] > 0,
            "dispatched to a node with no free slots (dead): {a:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fifo_respects_the_contract(view in arb_view(6, 5, 8)) {
        let assignments = FifoScheduler::new().assign(&view);
        check_contract(&view, &assignments);
    }

    #[test]
    fn fair_respects_the_contract(view in arb_view(6, 5, 8)) {
        let assignments = FairScheduler::paper_default().assign(&view);
        check_contract(&view, &assignments);
    }

    #[test]
    fn schedulers_are_deterministic(view in arb_view(6, 5, 8)) {
        prop_assert_eq!(FifoScheduler::new().assign(&view), FifoScheduler::new().assign(&view));
        prop_assert_eq!(
            FairScheduler::paper_default().assign(&view),
            FairScheduler::paper_default().assign(&view)
        );
    }

    /// FIFO is work-conserving: if any job offers a task every node can
    /// take (replica-less head), no slot stays free.
    #[test]
    fn fifo_fills_slots_when_tasks_are_unconstrained(free in prop::collection::vec(0u32..4, 1..6), tasks in 1usize..12) {
        let head: Vec<TaskId> = (0..tasks as u32).map(TaskId).collect();
        let view = SchedView {
            now: SimTime::ZERO,
            free_slots: free.clone(),
            jobs: vec![SchedJob {
                job: JobId(0),
                submit_seq: 0,
                running: 0,
                pending_total: tasks as u32,
                head,
                head_replica_less: vec![true; tasks],
                local_by_node: vec![Vec::new(); free.len()],
                banned_nodes: Vec::new(),
            }],
            complete: true,
        };
        let assignments = FifoScheduler::new().assign(&view);
        let total_free: u32 = free.iter().sum();
        prop_assert_eq!(assignments.len() as u32, total_free.min(tasks as u32));
        check_contract(&view, &assignments);
    }

    /// The Fair Scheduler never assigns a replicated task non-locally on
    /// the first offer (the delay must mature first).
    #[test]
    fn fair_first_offer_is_never_non_local(nodes in 2usize..6, tasks in 1usize..6) {
        // All tasks local only to node 0; free slots only elsewhere.
        let head: Vec<TaskId> = (0..tasks as u32).map(TaskId).collect();
        let mut local_by_node = vec![Vec::new(); nodes];
        local_by_node[0] = head.clone();
        let mut free = vec![1u32; nodes];
        free[0] = 0;
        let view = SchedView {
            now: SimTime::from_secs(5),
            free_slots: free,
            jobs: vec![SchedJob {
                job: JobId(0),
                submit_seq: 0,
                running: 0,
                pending_total: tasks as u32,
                head,
                head_replica_less: vec![false; tasks],
                local_by_node,
                banned_nodes: Vec::new(),
            }],
            complete: true,
        };
        let assignments = FairScheduler::paper_default().assign(&view);
        prop_assert!(assignments.is_empty(), "fresh fair scheduler must decline: {assignments:?}");
        let _ = NodeId(0);
    }

    /// A job banned everywhere gets nothing, no matter the offer — and
    /// other jobs still fill the slots (bans must not wedge a scheduler).
    #[test]
    fn banned_everywhere_job_is_never_dispatched(view in arb_view(6, 5, 8)) {
        let mut view = view;
        if let Some(first) = view.jobs.first_mut() {
            first.banned_nodes = vec![true; view.free_slots.len()];
        }
        let banned_job = view.jobs.first().map(|j| j.job);
        for assignments in [
            FifoScheduler::new().assign(&view),
            FairScheduler::paper_default().assign(&view),
        ] {
            check_contract(&view, &assignments);
            prop_assert!(
                assignments.iter().all(|a| Some(a.job) != banned_job),
                "banned-everywhere job was dispatched: {assignments:?}"
            );
        }
    }

    /// Dead nodes are presented as zero free slots; nothing may land there
    /// even when every other node is saturated.
    #[test]
    fn dead_nodes_receive_nothing(view in arb_view(6, 5, 8), dead in prop::collection::vec(any::<bool>(), 6)) {
        let mut view = view;
        for (n, free) in view.free_slots.iter_mut().enumerate() {
            if dead[n] {
                *free = 0;
            }
        }
        for assignments in [
            FifoScheduler::new().assign(&view),
            FairScheduler::paper_default().assign(&view),
        ] {
            check_contract(&view, &assignments);
            prop_assert!(
                assignments.iter().all(|a| !dead[a.node.0 as usize]),
                "dispatched to a dead node: {assignments:?}"
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
