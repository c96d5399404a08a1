//! The guard-rail plane end-to-end: configuration validation, deadlines,
//! graceful partial-sample degradation, and their determinism across
//! data-plane thread counts and fault schedules.

use std::sync::Arc;

use incmr::mapreduce::{
    ClusterFaultPlan, GuardrailMetrics, JobConfigError, NodeOutage, TraceEvent, TraceKind,
};
use incmr::prelude::*;

fn world(threads: u32, partitions: u32, records: u64) -> (MrRuntime, Arc<Dataset>) {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(31);
    let spec = DatasetSpec::small("gr", partitions, records, SkewLevel::Zero, 31);
    let ds = Arc::new(Dataset::build(
        &mut ns,
        spec,
        &mut EvenRoundRobin::new(),
        &mut rng,
    ));
    let rt = MrRuntime::new(
        ClusterConfig::paper_single_user().with_parallelism(Parallelism::threads(threads)),
        CostModel::paper_default(),
        ns,
        Box::new(FifoScheduler::new()),
    );
    (rt, ds)
}

// ---------------------------------------------------------------------------
// Configuration validation
// ---------------------------------------------------------------------------

#[test]
fn try_submit_rejects_bad_guardrail_configuration() {
    let (mut rt, ds) = world(1, 4, 500);
    // A zero deadline is a config error, not "no deadline".
    let (mut spec, driver) = build_sampling_job(
        &ds,
        5,
        Policy::ha(),
        ScanMode::Planted,
        SampleMode::FirstK,
        1,
    );
    spec.settings.deadline = Some(SimDuration::ZERO);
    assert!(matches!(
        rt.try_submit(spec, driver),
        Err(JobConfigError::ZeroDeadline)
    ));

    // Rejection leaves the runtime reusable: a valid job still runs, and
    // so does one at the widest idle-evaluation count.
    let (mut spec, driver) = build_sampling_job(
        &ds,
        5,
        Policy::ha(),
        ScanMode::Planted,
        SampleMode::FirstK,
        1,
    );
    spec.settings.max_idle_evaluations = u32::MAX;
    let id = rt.try_submit(spec, driver).expect("u32::MAX submits");
    rt.run_until_idle();
    assert!(!rt.job_result(id).failed);
    let (spec, driver) = build_sampling_job(
        &ds,
        5,
        Policy::ha(),
        ScanMode::Planted,
        SampleMode::FirstK,
        1,
    );
    let id = rt.try_submit(spec, driver).expect("valid spec submits");
    rt.run_until_idle();
    assert!(!rt.job_result(id).failed);
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

/// Fault-free response time of the full sampling job, for sizing deadlines.
fn horizon_ms(partitions: u32, records: u64, k: u64) -> u64 {
    let (mut rt, ds) = world(1, partitions, records);
    let (spec, driver) = build_sampling_job(
        &ds,
        k,
        Policy::la(),
        ScanMode::Planted,
        SampleMode::FirstK,
        8,
    );
    let id = rt.submit(spec, driver);
    rt.run_until_idle();
    assert!(!rt.job_result(id).failed);
    rt.job_result(id).response_time().as_millis()
}

type Observation = (JobResult, Vec<TraceEvent>, GuardrailMetrics);

/// One deadline-bearing sampling run. `k` is set to the dataset's total
/// match count so the job genuinely needs every split — a mid-run deadline
/// always cuts it short.
fn deadline_run(
    threads: u32,
    deadline_ms: u64,
    allow_partial: bool,
    plan: Option<&ClusterFaultPlan>,
) -> Observation {
    let (mut rt, ds) = world(threads, 40, 10_000);
    rt.enable_tracing();
    if let Some(plan) = plan {
        rt.inject_cluster_faults(plan.clone()).expect("valid plan");
    }
    let k = ds.total_matching();
    let (mut spec, driver) = build_sampling_job(
        &ds,
        k,
        Policy::la(),
        ScanMode::Planted,
        SampleMode::FirstK,
        8,
    );
    spec.settings.deadline = Some(SimDuration::from_millis(deadline_ms));
    spec.settings.allow_partial = allow_partial;
    let id = rt.submit(spec, driver);
    rt.run_until_idle();
    (
        rt.job_result(id).clone(),
        rt.take_trace(),
        rt.metrics().guardrails(),
    )
}

#[test]
fn hard_deadline_fails_the_job_with_a_typed_error() {
    let deadline = horizon_ms(40, 10_000, 200) / 2;
    let (r, trace, g) = deadline_run(1, deadline, false, None);
    assert!(r.failed);
    assert_eq!(r.error, Some(JobError::DeadlineExceeded));
    assert_eq!(g.deadlines_exceeded, 1);
    assert!(trace.iter().any(|e| matches!(
        e.kind,
        TraceKind::DeadlineExceeded {
            graceful: false,
            ..
        }
    )));
}

#[test]
fn graceful_deadline_completes_with_a_partial_sample() {
    let full = horizon_ms(40, 10_000, 200);
    let (r, trace, g) = deadline_run(1, full / 2, true, None);
    assert!(
        !r.failed,
        "allow_partial turns the deadline into completion"
    );
    assert_eq!(r.error, None);
    assert!(
        !r.output.is_empty() && (r.output.len() as u64) < 200,
        "a mid-run cut yields a nonempty partial sample: {}",
        r.output.len()
    );
    assert!(r.splits_processed < 40, "input intake was cut short");
    assert_eq!(g.deadlines_exceeded, 1);
    assert_eq!(g.partial_samples, 1);
    assert!(trace
        .iter()
        .any(|e| matches!(e.kind, TraceKind::DeadlineExceeded { graceful: true, .. })));
    let found = r.output.len() as u64;
    assert!(trace.iter().any(|e| matches!(
        e.kind,
        TraceKind::PartialSample { found: f, requested: 200, .. } if f == found
    )));
}

#[test]
fn partial_sample_is_byte_identical_across_thread_counts() {
    let deadline = horizon_ms(40, 10_000, 200) / 2;
    let (r1, t1, g1) = deadline_run(1, deadline, true, None);
    for threads in [4, 8] {
        let (r, t, g) = deadline_run(threads, deadline, true, None);
        assert_eq!(
            r.output, r1.output,
            "partial rows diverged at {threads} threads"
        );
        assert_eq!(
            r.response_time(),
            r1.response_time(),
            "simulated time diverged at {threads} threads"
        );
        assert_eq!(t, t1, "trace diverged at {threads} threads");
        assert_eq!(g, g1, "guard-rail counters diverged at {threads} threads");
    }
}

#[test]
fn partial_sample_is_thread_invariant_under_fault_schedules_too() {
    let full = horizon_ms(40, 10_000, 200);
    for seed in [2u64, 9] {
        let plan = ClusterFaultPlan {
            outages: vec![NodeOutage {
                node: NodeId((seed % 10) as u16),
                down_at: SimTime::from_millis(full / 8),
                up_at: (seed % 2 == 0).then(|| SimTime::from_millis(full / 2)),
            }],
            map_fault_probability: 0.05,
            max_attempts: 4,
            seed,
            ..ClusterFaultPlan::default()
        };
        let (r1, t1, g1) = deadline_run(1, full / 2, true, Some(&plan));
        assert!(!r1.failed, "graceful deadline survives schedule {seed}");
        for threads in [4, 8] {
            let (r, t, g) = deadline_run(threads, full / 2, true, Some(&plan));
            assert_eq!(
                r.output, r1.output,
                "partial rows diverged at {threads} threads (schedule {seed})"
            );
            assert_eq!(
                t, t1,
                "trace diverged at {threads} threads (schedule {seed})"
            );
            assert_eq!(g, g1, "counters diverged (schedule {seed})");
        }
    }
}

// ---------------------------------------------------------------------------
// SampleOutcome classification
// ---------------------------------------------------------------------------

#[test]
fn sample_outcome_classifies_full_partial_failed_and_non_sampling() {
    // Full: k is comfortably available.
    let (mut rt, ds) = world(1, 40, 10_000);
    let (spec, driver) = build_sampling_job(
        &ds,
        60,
        Policy::la(),
        ScanMode::Planted,
        SampleMode::FirstK,
        7,
    );
    let id = rt.submit(spec, driver);
    rt.run_until_idle();
    assert_eq!(
        sample_outcome(rt.job_spec(id).settings.sample_k, rt.job_result(id)),
        Some(SampleOutcome::Full { requested: 60 })
    );

    // Partial by input exhaustion: only 10 matches exist, k = 500 — the
    // job *completes* (this is not an error) with a small sample, and the
    // runtime still counts and traces it.
    let (mut rt, ds) = world(1, 10, 2_000);
    rt.enable_tracing();
    assert_eq!(ds.total_matching(), 10);
    let (spec, driver) = build_sampling_job(
        &ds,
        500,
        Policy::ha(),
        ScanMode::Planted,
        SampleMode::FirstK,
        3,
    );
    let id = rt.submit(spec, driver);
    rt.run_until_idle();
    let r = rt.job_result(id);
    assert!(!r.failed);
    assert_eq!(
        sample_outcome(rt.job_spec(id).settings.sample_k, r),
        Some(SampleOutcome::Partial {
            found: 10,
            requested: 500
        })
    );
    assert_eq!(rt.metrics().guardrails().partial_samples, 1);
    assert!(rt.take_trace().iter().any(|e| matches!(
        e.kind,
        TraceKind::PartialSample {
            found: 10,
            requested: 500,
            ..
        }
    )));

    // Failed jobs classify as None regardless of k.
    let (mut rt, ds) = world(1, 4, 500);
    let (mut spec, driver) = build_sampling_job(
        &ds,
        5,
        Policy::ha(),
        ScanMode::Planted,
        SampleMode::FirstK,
        1,
    );
    spec.settings.deadline = Some(SimDuration::from_millis(1)); // expires before anything runs
    let id = rt.submit(spec, driver);
    rt.run_until_idle();
    assert!(rt.job_result(id).failed);
    assert_eq!(
        sample_outcome(rt.job_spec(id).settings.sample_k, rt.job_result(id)),
        None
    );

    // Non-sampling jobs (no `sample_k`) classify as None.
    let (mut rt, ds) = world(1, 8, 1_000);
    let (spec, driver) = build_scan_job(&ds, ScanMode::Planted);
    let id = rt.submit(spec, driver);
    rt.run_until_idle();
    assert!(!rt.job_result(id).failed);
    assert_eq!(
        sample_outcome(rt.job_spec(id).settings.sample_k, rt.job_result(id)),
        None
    );
}
