//! Deterministic chaos suite: the cluster fault plane under ~50 seeded
//! schedules of node deaths, rejoins, stragglers, map/reduce attempt
//! faults, speculation, and blacklisting.
//!
//! Two properties are pinned for every schedule:
//!
//! 1. **Thread invariance** — the simulated run (result scalars, reduce
//!    output, full event trace, fault counters) is byte-identical at 1, 4,
//!    and 8 data-plane threads.
//! 2. **Fault-schedule invariance of output** — map output is a pure
//!    function of its block and the shuffle merges in task-id order, so
//!    every job that *survives* its schedule produces exactly the
//!    fault-free output; doomed jobs fail identically everywhere.

use std::sync::Arc;

use incmr::mapreduce::faults::unresolved_speculations;
use incmr::mapreduce::{
    ClusterFaultPlan, FaultMetrics, MemoMetrics, NodeOutage, SpeculationConfig, TraceEvent,
    TraceKind,
};
use incmr::prelude::*;

#[path = "support/replay.rs"]
mod replay;
use replay::assert_replay_matches_live;

/// `ClusterTopology::paper_cluster()` node count.
const NODES: u64 = 10;

#[derive(Clone, Copy)]
enum Kind {
    /// The paper's dynamic sampling job (MA policy, FirstK, k = 15).
    Sampling,
    /// A static full scan of the dataset.
    Scan,
}

/// Run one job under one fault schedule and return everything observable
/// about the simulated run.
fn run_sized(
    kind: Kind,
    threads: u32,
    plan: Option<&ClusterFaultPlan>,
    splits: u32,
    records: u64,
) -> (JobResult, Vec<TraceEvent>, FaultMetrics) {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(17);
    let spec = DatasetSpec::small("t", splits, records, SkewLevel::Moderate, 17);
    let ds = Arc::new(Dataset::build(
        &mut ns,
        spec,
        &mut EvenRoundRobin::new(),
        &mut rng,
    ));
    let mut rt = MrRuntime::new(
        ClusterConfig::paper_single_user().with_parallelism(Parallelism::threads(threads)),
        CostModel::paper_default(),
        ns,
        Box::new(FifoScheduler::new()),
    );
    rt.enable_tracing();
    if let Some(plan) = plan {
        rt.inject_cluster_faults(plan.clone())
            .expect("valid chaos plan");
    }
    let (job, driver): (JobSpec, Box<dyn incmr::mapreduce::GrowthDriver>) = match kind {
        Kind::Sampling => {
            let (job, driver) = build_sampling_job(
                &ds,
                15,
                Policy::ma(),
                ScanMode::Planted,
                SampleMode::FirstK,
                23,
            );
            (job, driver)
        }
        Kind::Scan => {
            let (job, driver) = build_scan_job(&ds, ScanMode::Planted);
            (job, driver)
        }
    };
    let id = rt.submit(job, driver);
    rt.run_until_idle();
    let result = rt.job_result(id).clone();
    let events = rt.take_trace();
    let faults = rt.metrics().faults();
    assert_obs_invariants(&result, &events, &rt);
    (result, events, faults)
}

/// Observability invariants checked on *every* chaos run, whatever the
/// schedule or thread count:
///
/// * trace timestamps never go backwards;
/// * every `SpeculativeLaunch` resolves — an `AttemptKilled` on the task,
///   the task's `MapFinished` commit, or the job's completion;
/// * every counter and every histogram replayed from the exported trace
///   equals the runtime's live one;
/// * the job's own registry is the fold of the job's own events.
fn assert_obs_invariants(result: &JobResult, events: &[TraceEvent], rt: &MrRuntime) {
    for w in events.windows(2) {
        assert!(
            w[0].time <= w[1].time,
            "trace timestamps must be nondecreasing: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    assert_eq!(
        unresolved_speculations(events),
        Vec::new(),
        "an exported trace must leave no speculative race unresolved"
    );
    assert_replay_matches_live(events, rt, "fifo");
    let own: Vec<TraceEvent> = events
        .iter()
        .filter(|e| e.kind.job() == Some(result.job))
        .cloned()
        .collect();
    assert_eq!(
        MetricsRegistry::from_trace(&own, "fifo"),
        result.histograms,
        "a job's registry is the fold of its own events"
    );
}

fn run(
    kind: Kind,
    threads: u32,
    plan: Option<&ClusterFaultPlan>,
) -> (JobResult, Vec<TraceEvent>, FaultMetrics) {
    run_sized(kind, threads, plan, 24, 3_000)
}

/// splitmix64: independent schedule knobs from one seed, without touching
/// the simulation's own rng streams.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derive one fault schedule from a seed: up to two outages timed inside
/// the fault-free run (`horizon_ms`, with a 1-in-4 chance of never
/// rejoining), up to three straggler nodes at 0.4–1.0 speed, and modest
/// map/reduce attempt fault probabilities, with speculation and
/// blacklisting armed throughout.
fn chaos_plan(seed: u64, horizon_ms: u64) -> ClusterFaultPlan {
    let h = |i: u64| mix(seed.wrapping_mul(1_000_003).wrapping_add(i));
    let outages = (0..h(0) % 3)
        .map(|i| {
            let down = horizon_ms / 8 + h(10 + i) % horizon_ms;
            let up = down + horizon_ms / 4 + h(20 + i) % horizon_ms;
            NodeOutage {
                node: NodeId((h(30 + i) % NODES) as u16),
                down_at: SimTime::from_millis(down),
                up_at: (h(40 + i) % 4 != 0).then(|| SimTime::from_millis(up)),
            }
        })
        .collect();
    let node_speed = (0..h(1) % 4)
        .map(|i| 0.4 + (h(50 + i) % 61) as f64 / 100.0)
        .collect();
    ClusterFaultPlan {
        outages,
        node_speed,
        map_fault_probability: (h(2) % 12) as f64 / 100.0,
        reduce_fault_probability: (h(3) % 8) as f64 / 100.0,
        max_attempts: 4,
        speculation: Some(SpeculationConfig::default()),
        blacklist_threshold: Some(3),
        seed,
    }
}

/// The chaos matrix for one job kind: 50 seeded schedules, each at 1, 4,
/// and 8 threads.
fn chaos_matrix(kind: Kind) {
    let (baseline, _, _) = run(kind, 1, None);
    assert!(!baseline.failed, "the fault-free baseline must complete");
    let horizon = baseline.response_time().as_millis();
    let mut survived = 0u32;
    for seed in 0..50u64 {
        let plan = chaos_plan(seed, horizon);
        let (r1, t1, m1) = run(kind, 1, Some(&plan));
        for threads in [4, 8] {
            let (r, t, m) = run(kind, threads, Some(&plan));
            assert_eq!(
                r.failed, r1.failed,
                "job fate diverged at {threads} threads (schedule {seed})"
            );
            assert_eq!(
                r.response_time(),
                r1.response_time(),
                "simulated time diverged at {threads} threads (schedule {seed})"
            );
            assert_eq!(
                r.output, r1.output,
                "output diverged at {threads} threads (schedule {seed})"
            );
            assert_eq!(
                t, t1,
                "event timeline diverged at {threads} threads (schedule {seed})"
            );
            assert_eq!(
                m, m1,
                "fault counters diverged at {threads} threads (schedule {seed})"
            );
        }
        if !r1.failed {
            survived += 1;
            assert_eq!(
                r1.output, baseline.output,
                "a surviving job diverged from the fault-free output (schedule {seed})"
            );
        }
    }
    assert!(
        survived > 0,
        "every schedule doomed its job — the matrix proves nothing"
    );
}

#[test]
fn sampling_job_survives_fifty_chaos_schedules_exactly() {
    chaos_matrix(Kind::Sampling);
}

#[test]
fn full_scan_survives_fifty_chaos_schedules_exactly() {
    chaos_matrix(Kind::Scan);
}

/// The headline Hadoop semantic: killing a node *after* its map tasks
/// completed destroys their locally-stored output, so those maps must
/// re-execute — and the job must still produce the fault-free output.
#[test]
fn losing_a_node_after_its_maps_complete_forces_reexecution() {
    // 96 splits over 40 map slots gives several waves, so by mid-run the
    // dead node has completed maps whose output the shuffle still needs.
    let (baseline, _, _) = run_sized(Kind::Scan, 1, None, 96, 2_000);
    assert!(!baseline.failed);
    let plan = ClusterFaultPlan {
        outages: vec![NodeOutage {
            node: NodeId(3),
            down_at: SimTime::from_millis(baseline.response_time().as_millis() / 2),
            up_at: None,
        }],
        seed: 11,
        ..ClusterFaultPlan::default()
    };
    let (r, trace, m) = run_sized(Kind::Scan, 1, Some(&plan), 96, 2_000);
    assert!(!r.failed, "nine surviving nodes must finish the job");
    assert_eq!(m.nodes_lost, 1);
    assert!(
        m.maps_reexecuted > 0,
        "completed maps on the dead node must re-execute: {m:?}"
    );
    assert!(trace
        .iter()
        .any(|e| matches!(e.kind, TraceKind::NodeLost { node, .. } if node == NodeId(3))));
    assert_eq!(
        r.output, baseline.output,
        "re-execution must reproduce the fault-free output exactly"
    );
}

/// A node that rejoins gets fresh slots and hosts new attempts.
#[test]
fn a_rejoined_node_hosts_attempts_again() {
    let (baseline, _, _) = run_sized(Kind::Scan, 1, None, 96, 2_000);
    let half = baseline.response_time().as_millis() / 2;
    let plan = ClusterFaultPlan {
        outages: vec![NodeOutage {
            node: NodeId(7),
            down_at: SimTime::from_millis(half / 2),
            up_at: Some(SimTime::from_millis(half)),
        }],
        seed: 3,
        ..ClusterFaultPlan::default()
    };
    let (r, trace, m) = run_sized(Kind::Scan, 1, Some(&plan), 96, 2_000);
    assert!(!r.failed);
    assert_eq!((m.nodes_lost, m.nodes_rejoined), (1, 1));
    let rejoined_at = trace
        .iter()
        .find(|e| matches!(e.kind, TraceKind::NodeRejoined { .. }))
        .map(|e| e.time)
        .expect("rejoin must be traced");
    assert!(
        trace.iter().any(|e| e.time > rejoined_at
            && matches!(e.kind, TraceKind::MapStarted { node, .. } if node == NodeId(7))),
        "the rejoined node must host map attempts again"
    );
    assert_eq!(r.output, baseline.output);
}

/// A quarter-speed straggler node triggers speculative execution once the
/// pending queue drains, and the backup attempts change nothing about the
/// output.
#[test]
fn a_straggler_node_draws_speculative_attempts() {
    // 200k records per split makes maps CPU-bound (~5 s of CPU against
    // ~1 s of fixed overhead), so a quarter-speed node genuinely lags.
    let (baseline, _, _) = run_sized(Kind::Scan, 1, None, 48, 200_000);
    let plan = ClusterFaultPlan {
        node_speed: vec![0.25],
        speculation: Some(SpeculationConfig::default()),
        seed: 5,
        ..ClusterFaultPlan::default()
    };
    let (r, trace, m) = run_sized(Kind::Scan, 1, Some(&plan), 48, 200_000);
    assert!(!r.failed);
    assert!(
        m.speculative_launched > 0,
        "a quarter-speed node must trip the slowdown threshold: {m:?}"
    );
    assert!(trace
        .iter()
        .any(|e| matches!(e.kind, TraceKind::SpeculativeLaunch { .. })));
    assert_eq!(
        r.output, baseline.output,
        "speculation must never change the output"
    );
}

/// Reduce attempts fault and retry on fresh slots without perturbing the
/// committed output.
#[test]
fn reduce_attempt_faults_retry_without_corrupting_output() {
    let (baseline, _, _) = run(Kind::Scan, 1, None);
    let plan = ClusterFaultPlan {
        reduce_fault_probability: 0.7,
        max_attempts: 10,
        seed: 19,
        ..ClusterFaultPlan::default()
    };
    let (r, trace, m) = run(Kind::Scan, 1, Some(&plan));
    assert!(!r.failed);
    assert!(
        m.reduce_failures > 0,
        "a 0.7 fault rate must fail at least one reduce attempt: {m:?}"
    );
    assert!(trace
        .iter()
        .any(|e| matches!(e.kind, TraceKind::ReduceFailed { .. })));
    assert_eq!(r.output, baseline.output);
}

/// Repeated counted failures on one node blacklist it for the job; the
/// job routes around the ban and still commits the exact output.
#[test]
fn repeated_failures_blacklist_a_node_without_corrupting_output() {
    let (baseline, _, _) = run(Kind::Scan, 1, None);
    let plan = ClusterFaultPlan {
        map_fault_probability: 0.3,
        max_attempts: 20,
        blacklist_threshold: Some(2),
        seed: 13,
        ..ClusterFaultPlan::default()
    };
    let (r, trace, m) = run(Kind::Scan, 1, Some(&plan));
    assert!(!r.failed);
    assert!(
        m.nodes_blacklisted > 0,
        "a 0.3 fault rate against threshold 2 must ban a node: {m:?}"
    );
    assert!(trace
        .iter()
        .any(|e| matches!(e.kind, TraceKind::NodeBlacklisted { .. })));
    assert_eq!(r.output, baseline.output);
}

/// A schedule hostile enough to doom the job fails it deterministically:
/// same fate, same timeline, same counters at every thread count.
#[test]
fn doomed_schedules_fail_identically_at_every_thread_count() {
    let plan = ClusterFaultPlan {
        map_fault_probability: 0.9,
        max_attempts: 2,
        seed: 41,
        ..ClusterFaultPlan::default()
    };
    let (r1, t1, m1) = run(Kind::Scan, 1, Some(&plan));
    assert!(
        r1.failed,
        "0.9 per-attempt faults against a 2-attempt budget must doom the job"
    );
    for threads in [4, 8] {
        let (r, t, m) = run(Kind::Scan, threads, Some(&plan));
        assert!(r.failed);
        assert_eq!(r.response_time(), r1.response_time());
        assert_eq!(t, t1, "failure timeline diverged at {threads} threads");
        assert_eq!(m, m1);
    }
}

/// The observability invariants (`assert_obs_invariants`, run inside every
/// chaos execution above — all 50 schedules at 1/4/8 threads for both job
/// kinds) are only worth their keep if the schedules actually exercise
/// them. This directed schedule guarantees the interesting paths fire:
/// speculation (so the race-resolution scan has races to settle), map and
/// reduce faults (so re-dispatch hits the queue-wait and attempt-latency
/// accounting), and it restates the headline counter equalities visibly.
#[test]
fn obs_invariants_are_not_vacuous_under_an_eventful_schedule() {
    let plan = ClusterFaultPlan {
        node_speed: vec![1.0, 1.0, 0.25],
        map_fault_probability: 0.2,
        reduce_fault_probability: 0.5,
        max_attempts: 8,
        speculation: Some(SpeculationConfig::default()),
        blacklist_threshold: Some(2),
        seed: 9,
        ..ClusterFaultPlan::default()
    };
    let (r, trace, m) = run_sized(Kind::Scan, 1, Some(&plan), 48, 200_000);
    assert!(!r.failed);
    assert!(
        m.speculative_launched > 0,
        "the straggler must draw speculative attempts: {m:?}"
    );
    let count = |f: &dyn Fn(&TraceKind) -> bool| trace.iter().filter(|e| f(&e.kind)).count() as u64;
    assert!(count(&|k| matches!(k, TraceKind::SpeculativeLaunch { .. })) > 0);
    assert!(count(&|k| matches!(k, TraceKind::MapFailed { .. })) > 0);
    assert!(count(&|k| matches!(k, TraceKind::ReduceFailed { .. })) > 0);
    // The headline equalities, restated on the returned per-job registry:
    // latency samples are recomputable from the exported trace alone.
    assert_eq!(
        r.histograms.map_attempt().count(),
        count(&|k| matches!(k, TraceKind::MapFinished { .. }))
    );
    assert_eq!(
        r.histograms.queue_wait_total().count(),
        count(&|k| matches!(k, TraceKind::MapStarted { .. }))
            - count(&|k| matches!(k, TraceKind::SpeculativeLaunch { .. }))
    );
    assert_eq!(
        r.histograms.reduce().count(),
        count(&|k| matches!(k, TraceKind::ReduceFinished { .. }))
    );
}

/// An Input Provider's view of the cluster must track node death: dead
/// nodes drop out of `total_map_slots` entirely (no phantom capacity, no
/// wrap-around from the occupied/total race), and the provider keeps
/// being consulted on the shrunken cluster until it gathers its sample.
#[test]
fn provider_observes_only_alive_node_capacity_after_a_node_dies() {
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Wraps the real sampling provider and records every cluster
    /// snapshot it is shown.
    struct Observing {
        inner: SamplingInputProvider,
        seen: Rc<RefCell<Vec<ClusterStatus>>>,
    }

    impl InputProvider for Observing {
        fn initial_input(&mut self, cluster: &ClusterStatus, grab: u64) -> Vec<BlockId> {
            self.seen.borrow_mut().push(*cluster);
            self.inner.initial_input(cluster, grab)
        }

        fn next_input(&mut self, ctx: EvalContext<'_>) -> InputResponse {
            self.seen.borrow_mut().push(*ctx.cluster);
            self.inner.next_input(ctx)
        }

        fn remaining(&self) -> usize {
            self.inner.remaining()
        }
    }

    // Same seed twice → two identical worlds (the dataset layout is a pure
    // function of the seed); the first gives the fault-free horizon.
    let make_world = || {
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let mut rng = DetRng::seed_from(17);
        let spec = DatasetSpec::small("t", 40, 10_000, SkewLevel::Zero, 17);
        let ds = Arc::new(Dataset::build(
            &mut ns,
            spec,
            &mut EvenRoundRobin::new(),
            &mut rng,
        ));
        let rt = MrRuntime::new(
            ClusterConfig::paper_single_user(),
            CostModel::paper_default(),
            ns,
            Box::new(FifoScheduler::new()),
        );
        (rt, ds)
    };
    let k = 150;
    let horizon = {
        let (mut rt, ds) = make_world();
        let (job, driver) = build_sampling_job(
            &ds,
            k,
            Policy::la(),
            ScanMode::Planted,
            SampleMode::FirstK,
            23,
        );
        let id = rt.submit(job, driver);
        rt.run_until_idle();
        assert!(!rt.job_result(id).failed);
        rt.job_result(id).response_time().as_millis()
    };

    let (mut rt, ds) = make_world();
    rt.inject_cluster_faults(ClusterFaultPlan {
        outages: vec![NodeOutage {
            node: NodeId(4),
            down_at: SimTime::from_millis(horizon / 4),
            up_at: None, // never rejoins: all later snapshots see 9 nodes
        }],
        seed: 29,
        ..ClusterFaultPlan::default()
    })
    .expect("valid plan");
    let (job, _discarded) = build_sampling_job(
        &ds,
        k,
        Policy::la(),
        ScanMode::Planted,
        SampleMode::FirstK,
        23,
    );
    let blocks: Vec<_> = ds.splits().iter().map(|p| p.block).collect();
    let total = blocks.len() as u32;
    let seen = Rc::new(RefCell::new(Vec::new()));
    let driver = Box::new(DynamicDriver::new(
        Box::new(Observing {
            inner: SamplingInputProvider::new(blocks, k, 23),
            seen: Rc::clone(&seen),
        }),
        Policy::la(),
        total,
    ));
    let id = rt.submit(job, driver);
    rt.run_until_idle();
    let r = rt.job_result(id);
    assert!(!r.failed, "nine nodes still gather the sample");
    assert_eq!(r.output.len() as u64, k);

    let seen = seen.borrow();
    assert!(seen.len() >= 2, "provider consulted across the outage");
    for s in seen.iter() {
        assert!(
            s.total_map_slots == 40 || s.total_map_slots == 36,
            "TS must be 10 or 9 alive nodes' worth, got {}",
            s.total_map_slots
        );
        assert!(
            s.available_map_slots() <= s.total_map_slots,
            "AS can never exceed TS"
        );
    }
    assert!(
        seen.iter().any(|s| s.total_map_slots == 36),
        "at least one consultation must see the shrunken cluster"
    );
}

// ---------------------------------------------------------------------------
// Incremental mode under chaos
// ---------------------------------------------------------------------------

/// A sample target no dataset here can satisfy, so the requery consumes
/// every split (the Hadoop policy grabs the whole pool upfront) and
/// materialises every matching row — output that actually reflects split
/// content, unlike the unmaterialised scan. Every submission shares one
/// explicit signature, so the warm requery reuses the priming run's splits.
fn sample_everything(ds: &Arc<Dataset>) -> (JobSpec, Box<dyn incmr::mapreduce::GrowthDriver>) {
    let (mut job, driver) = build_sampling_job(
        ds,
        1 << 40,
        Policy::hadoop(),
        ScanMode::Planted,
        SampleMode::FirstK,
        23,
    );
    job.settings.signature = Some(7_003);
    (job, driver)
}

/// The fixed evolve schedule for the incremental chaos runs: rewrite a
/// spread of initial splits, then append fresh ones.
fn evolve_world(
    rt: &mut MrRuntime,
    ds: &Arc<Dataset>,
    placement: &mut EvenRoundRobin,
    rng: &mut DetRng,
) {
    let splits = ds.splits();
    let blocks: Vec<BlockId> = [1usize, 5, 9, 14]
        .iter()
        .map(|&i| splits[i].block)
        .collect();
    rt.evolve(|ns| ds.mutate(ns, &blocks, placement, rng));
    rt.evolve(|ns| ds.append(ns, 3, placement, rng));
}

/// One incremental session under one fault schedule: a priming run to
/// populate the memo store, the evolve schedule, then the warm requery.
/// Returns the warm result, whether the priming run survived, and
/// everything observable about the whole session.
fn run_incremental(
    threads: u32,
    plan: Option<&ClusterFaultPlan>,
) -> (JobResult, bool, Vec<TraceEvent>, FaultMetrics, MemoMetrics) {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(17);
    let mut placement = EvenRoundRobin::new();
    let spec = DatasetSpec::small("t", 24, 3_000, SkewLevel::Moderate, 17);
    let ds = Arc::new(Dataset::build(&mut ns, spec, &mut placement, &mut rng));
    let mut rt = MrRuntime::new(
        ClusterConfig::paper_single_user().with_parallelism(Parallelism::threads(threads)),
        CostModel::paper_default(),
        ns,
        Box::new(FifoScheduler::new()),
    );
    rt.enable_tracing();
    rt.enable_memoization();
    if let Some(plan) = plan {
        rt.inject_cluster_faults(plan.clone())
            .expect("valid chaos plan");
    }
    let (job, driver) = sample_everything(&ds);
    let prime = rt.submit(job, driver);
    rt.run_until_idle();
    evolve_world(&mut rt, &ds, &mut placement, &mut rng);
    let (job, driver) = sample_everything(&ds);
    let warm = rt.submit(job, driver);
    rt.run_until_idle();
    let result = rt.job_result(warm).clone();
    let primed = !rt.job_result(prime).failed;
    let events = rt.take_trace();
    assert_replay_matches_live(&events, &rt, "fifo");
    (
        result,
        primed,
        events,
        rt.metrics().faults(),
        rt.metrics().memo(),
    )
}

/// The fault-free cold truth on the *final* dataset state: same build,
/// same evolve schedule, one job, no memoization anywhere.
fn incremental_baseline() -> JobResult {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(17);
    let mut placement = EvenRoundRobin::new();
    let spec = DatasetSpec::small("t", 24, 3_000, SkewLevel::Moderate, 17);
    let ds = Arc::new(Dataset::build(&mut ns, spec, &mut placement, &mut rng));
    let mut rt = MrRuntime::new(
        ClusterConfig::paper_single_user(),
        CostModel::paper_default(),
        ns,
        Box::new(FifoScheduler::new()),
    );
    evolve_world(&mut rt, &ds, &mut placement, &mut rng);
    let (job, driver) = sample_everything(&ds);
    let id = rt.submit(job, driver);
    rt.run_until_idle();
    rt.job_result(id).clone()
}

/// Seeded chaos schedules against incremental sessions: the whole session
/// (priming run, evolve, warm requery) is byte-identical at 1/4/8 threads
/// — traces, fault counters, *and memo counters* — and every warm requery
/// that survives its schedule produces exactly the fault-free cold output
/// on the final dataset state, cached entries or not.
#[test]
fn incremental_warm_runs_survive_chaos_schedules_exactly() {
    let baseline = incremental_baseline();
    assert!(!baseline.failed, "the fault-free baseline must complete");
    let (free, _, free_trace, _, free_memo) = run_incremental(1, None);
    assert!(!free.failed);
    assert_eq!(
        free.output, baseline.output,
        "fault-free warm requery must equal the cold baseline"
    );
    assert!(
        free_memo.splits_reused > 0,
        "the fault-free warm run must actually reuse: {free_memo:?}"
    );
    let horizon = (free_trace.last().expect("nonempty trace").time - SimTime::ZERO).as_millis();
    let mut survived = 0u32;
    for seed in 0..10u64 {
        let plan = chaos_plan(seed, horizon);
        let (r1, p1, t1, f1, m1) = run_incremental(1, Some(&plan));
        for threads in [4, 8] {
            let (r, p, t, f, m) = run_incremental(threads, Some(&plan));
            assert_eq!(
                (r.failed, p),
                (r1.failed, p1),
                "job fates diverged at {threads} threads (schedule {seed})"
            );
            assert_eq!(
                r.output, r1.output,
                "warm output diverged at {threads} threads (schedule {seed})"
            );
            assert_eq!(
                t, t1,
                "event timeline diverged at {threads} threads (schedule {seed})"
            );
            assert_eq!(
                f, f1,
                "fault counters diverged at {threads} threads (schedule {seed})"
            );
            assert_eq!(
                m, m1,
                "memo counters diverged at {threads} threads (schedule {seed})"
            );
        }
        if !r1.failed {
            survived += 1;
            assert_eq!(
                r1.output, baseline.output,
                "a surviving warm requery diverged from the fault-free cold \
                 output (schedule {seed})"
            );
        }
    }
    assert!(
        survived > 0,
        "every schedule doomed its warm requery — the matrix proves nothing"
    );
}

/// The headline invalidation semantic: cached map output lives on the
/// node that computed it, so killing that node mid-requery destroys its
/// entries and the affected splits must fall back to real recomputation —
/// and the requery still commits the exact fault-free output.
#[test]
fn node_death_destroys_cached_output_and_the_warm_requery_recomputes() {
    let (free, _, free_trace, _, free_memo) = run_incremental(1, None);
    assert!(!free.failed);
    let at = |pred: &dyn Fn(&TraceKind) -> bool| {
        free_trace
            .iter()
            .find(|e| pred(&e.kind))
            .expect("event present in the fault-free trace")
            .time
    };
    let submit = at(&|k| matches!(k, TraceKind::JobSubmitted { job } if *job == JobId(1)));
    let done = at(&|k| matches!(k, TraceKind::JobCompleted { job, .. } if *job == JobId(1)));
    // A quarter of the way into the warm window: reused splits are still
    // being replayed when the node dies.
    let s_ms = (submit - SimTime::ZERO).as_millis();
    let d_ms = (done - SimTime::ZERO).as_millis();
    let plan = ClusterFaultPlan {
        outages: vec![NodeOutage {
            node: NodeId(3),
            down_at: SimTime::from_millis(s_ms + (d_ms - s_ms) / 4),
            up_at: None,
        }],
        seed: 11,
        ..ClusterFaultPlan::default()
    };
    let (r, primed, _, faults, memo) = run_incremental(1, Some(&plan));
    assert!(primed, "the outage must postdate the priming run");
    assert!(!r.failed, "nine surviving nodes must finish the requery");
    assert_eq!(faults.nodes_lost, 1);
    assert!(
        memo.entries_invalidated > 0,
        "the dead node's cached map output must be discarded: {memo:?}"
    );
    assert!(
        memo.splits_computed > free_memo.splits_computed,
        "invalidated splits must fall back to recomputation \
         (fault-free computed {}, got {:?})",
        free_memo.splits_computed,
        memo
    );
    assert_eq!(
        r.output, free.output,
        "recomputation must reproduce the fault-free output exactly"
    );
}
