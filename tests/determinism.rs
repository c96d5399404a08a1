//! Whole-stack determinism: simulation results are pure functions of their
//! seeds. This is load-bearing — the experiment harness reproduces the
//! paper's "averages over 5 runs" as averages over 5 seeds, which is only
//! meaningful if nothing else varies.

use std::sync::Arc;

use incmr::core::ScanMapper;
use incmr::data::lineitem::col;
use incmr::data::{CmpOp, RecordFactory, SplitGenerator};
use incmr::mapreduce::{
    ClusterFaultPlan, DatasetInputFormat, MapResult, Mapper, ShuffleMetrics, SplitData,
    StaticDriver, TraceEvent,
};
use incmr::prelude::*;

fn single_job_fingerprint(seed: u64, policy: Policy) -> (u64, u32, u64, usize) {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(seed);
    let spec = DatasetSpec::small("t", 24, 3_000, SkewLevel::Moderate, seed);
    let ds = Arc::new(Dataset::build(
        &mut ns,
        spec,
        &mut EvenRoundRobin::new(),
        &mut rng,
    ));
    let mut rt = MrRuntime::new(
        ClusterConfig::paper_single_user(),
        CostModel::paper_default(),
        ns,
        Box::new(FifoScheduler::new()),
    );
    let (job, driver) = build_sampling_job(
        &ds,
        12,
        policy,
        ScanMode::Planted,
        SampleMode::FirstK,
        seed ^ 7,
    );
    let id = rt.submit(job, driver);
    rt.run_until_idle();
    let r = rt.job_result(id);
    (
        r.response_time().as_millis(),
        r.splits_processed,
        r.records_processed,
        r.output.len(),
    )
}

#[test]
fn identical_seeds_identical_runs() {
    for policy in Policy::table1() {
        let a = single_job_fingerprint(41, policy.clone());
        let b = single_job_fingerprint(41, policy.clone());
        assert_eq!(
            a, b,
            "policy {} diverged across identical runs",
            policy.name
        );
    }
}

#[test]
fn different_seeds_differ_somewhere() {
    // Not every field must differ, but the fingerprints should not be
    // universally identical across seeds for a dynamic policy (random
    // split selection must matter).
    let fingerprints: Vec<_> = (0..5)
        .map(|s| single_job_fingerprint(s, Policy::la()))
        .collect();
    let all_same = fingerprints.windows(2).all(|w| w[0] == w[1]);
    assert!(
        !all_same,
        "five different seeds produced identical dynamics: {fingerprints:?}"
    );
}

#[test]
fn workload_runs_are_reproducible() {
    let run = || {
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let root = DetRng::seed_from(3);
        let datasets: Vec<Arc<Dataset>> = (0..3)
            .map(|u| {
                let mut rng = root.fork(u);
                let spec = DatasetSpec::small(&format!("c{u}"), 16, 50_000, SkewLevel::Zero, 3 + u);
                Arc::new(Dataset::build(
                    &mut ns,
                    spec,
                    &mut EvenRoundRobin::starting_at(u as u32),
                    &mut rng,
                ))
            })
            .collect();
        let mut rt = MrRuntime::new(
            ClusterConfig::paper_multi_user(),
            CostModel::paper_default(),
            ns,
            Box::new(FairScheduler::paper_default()),
        );
        let spec = WorkloadSpec::heterogeneous(
            datasets,
            1,
            1_000,
            Policy::ma(),
            SimDuration::from_mins(2),
            SimDuration::from_mins(10),
            9,
        );
        let report = run_workload(&mut rt, &spec);
        (
            report.sampling_completed,
            report.non_sampling_completed,
            report.metrics.locality_pct.to_bits(),
            report.metrics.slot_occupancy_pct.to_bits(),
        )
    };
    assert_eq!(run(), run(), "bit-identical workload reports across runs");
}

/// The dataset [`scan_mode_fingerprint`] samples, placed on `ns`.
fn scan_mode_dataset(ns: &mut Namespace) -> Arc<Dataset> {
    let mut rng = DetRng::seed_from(17);
    let spec = DatasetSpec::small("t", 32, 4_000, SkewLevel::Moderate, 17);
    Arc::new(Dataset::build(
        ns,
        spec,
        &mut EvenRoundRobin::new(),
        &mut rng,
    ))
}

/// Run the same dynamic sampling job with a given data-plane thread count
/// and scan mode; return everything observable about the simulated run:
/// the result scalars, the full reduce output, and the complete trace
/// timeline.
fn scan_mode_fingerprint(
    threads: u32,
    faults: Option<&ClusterFaultPlan>,
    mode: ScanMode,
) -> (JobResult, Vec<TraceEvent>) {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let ds = scan_mode_dataset(&mut ns);
    let mut rt = MrRuntime::new(
        ClusterConfig::paper_single_user().with_parallelism(Parallelism::threads(threads)),
        CostModel::paper_default(),
        ns,
        Box::new(FifoScheduler::new()),
    );
    rt.enable_tracing();
    if let Some(plan) = faults {
        rt.inject_cluster_faults(plan.clone()).expect("valid plan");
    }
    let (job, driver) = build_sampling_job(&ds, 15, Policy::ma(), mode, SampleMode::FirstK, 23);
    let id = rt.submit(job, driver);
    rt.run_until_idle();
    (rt.job_result(id).clone(), rt.take_trace())
}

fn parallel_fingerprint(
    threads: u32,
    faults: Option<&ClusterFaultPlan>,
) -> (JobResult, Vec<TraceEvent>) {
    scan_mode_fingerprint(threads, faults, ScanMode::Planted)
}

/// The planted scan is an *implementation* of the full scan, not a
/// different scan: switching a job between the two modes must leave every
/// observable — sampled output, counters, and the full trace timeline —
/// byte-identical, at every thread count, and every sampled row must be
/// one the row oracle accepts (the generator's records filtered by the
/// scalar predicate). Batch boundaries must not leak into sampling
/// decisions.
#[test]
fn full_and_planted_scan_modes_agree_with_the_row_oracle() {
    let (reference, ref_trace) = scan_mode_fingerprint(1, None, ScanMode::Full);
    assert!(!ref_trace.is_empty());
    assert!(!reference.output.is_empty());
    for mode in [ScanMode::Full, ScanMode::Planted] {
        for threads in [1, 4, 8] {
            let (result, trace) = scan_mode_fingerprint(threads, None, mode);
            assert_eq!(
                result.output, reference.output,
                "{mode:?}@{threads} threads diverged from Full@1"
            );
            assert_eq!(result.response_time(), reference.response_time());
            assert_eq!(result.records_processed, reference.records_processed);
            assert_eq!(result.splits_processed, reference.splits_processed);
            assert_eq!(
                trace, ref_trace,
                "{mode:?}@{threads} threads: timeline diverged from Full@1"
            );
        }
    }

    let ds = scan_mode_dataset(&mut Namespace::new(ClusterTopology::paper_cluster()));
    let factory = ds.factory();
    let predicate = factory.predicate();
    let oracle: Vec<Record> = ds
        .splits()
        .iter()
        .flat_map(|plan| {
            SplitGenerator::new(&factory, plan.spec)
                .full_iter()
                .filter(|r| predicate.eval(r))
                .collect::<Vec<_>>()
        })
        .collect();
    for (_, row) in &reference.output {
        assert!(oracle.contains(row), "{row:?} is no oracle match");
    }
}

/// The two-plane contract: data-plane parallelism must never leak into
/// simulated behaviour. Serial execution is the reference; 4- and 8-thread
/// pools must reproduce it byte for byte — same response time, same splits,
/// same sampled records, same event timeline.
#[test]
fn parallel_data_plane_reproduces_serial_results_exactly() {
    let (serial_result, serial_trace) = parallel_fingerprint(1, None);
    assert!(!serial_trace.is_empty());
    for threads in [4, 8] {
        let (result, trace) = parallel_fingerprint(threads, None);
        assert_eq!(
            result.response_time(),
            serial_result.response_time(),
            "simulated time diverged at {threads} threads"
        );
        assert_eq!(result.splits_processed, serial_result.splits_processed);
        assert_eq!(result.records_processed, serial_result.records_processed);
        assert_eq!(result.local_tasks, serial_result.local_tasks);
        assert_eq!(
            result.output, serial_result.output,
            "sampled records diverged at {threads} threads"
        );
        assert_eq!(
            trace, serial_trace,
            "event timeline diverged at {threads} threads"
        );
    }
}

/// Fault injection draws from a deterministic stream keyed by dispatch
/// order; the worker pool must not perturb it.
#[test]
fn fault_injection_is_thread_count_invariant() {
    let plan = ClusterFaultPlan {
        map_fault_probability: 0.25,
        max_attempts: 10,
        seed: 99,
        ..ClusterFaultPlan::default()
    };
    let (serial_result, serial_trace) = parallel_fingerprint(1, Some(&plan));
    assert!(
        serial_result.task_failures > 0,
        "the plan must actually inject failures"
    );
    for threads in [4, 8] {
        let (result, trace) = parallel_fingerprint(threads, Some(&plan));
        assert_eq!(result.task_failures, serial_result.task_failures);
        assert_eq!(result.response_time(), serial_result.response_time());
        assert_eq!(result.output, serial_result.output);
        assert_eq!(trace, serial_trace);
    }
}

/// A mapper that fans records out across five keys, so multi-partition
/// shuffle and several reduce tasks all carry real data.
struct FanOutMapper;

impl Mapper for FanOutMapper {
    fn run(&self, data: SplitData) -> MapResult {
        let total_records = data.total_records();
        let (SplitData::Full(matches) | SplitData::Planted { matches, .. }) = data;
        MapResult {
            pairs: matches
                .to_records()
                .into_iter()
                .enumerate()
                .map(|(i, r)| (Key::from(format!("g{}", i % 5)), r))
                .collect(),
            records_read: total_records,
            ..MapResult::default()
        }
    }
}

/// A combiner with a visible effect: drop every third pair of a map task's
/// output. Deterministic per task, so simulated results must still be
/// thread-count invariant.
struct DropEveryThird;

impl Combiner for DropEveryThird {
    fn combine(&self, pairs: Vec<(Key, incmr::data::Record)>) -> Vec<(Key, incmr::data::Record)> {
        pairs
            .into_iter()
            .enumerate()
            .filter_map(|(i, p)| (i % 3 != 2).then_some(p))
            .collect()
    }
}

/// Run the static job `job` builds over a 24-split table (seed 29) with a
/// given data-plane thread count and fault plan; return its result, the
/// complete trace timeline and the shuffle counters.
fn static_job_fingerprint(
    threads: u32,
    faults: Option<&ClusterFaultPlan>,
    job: impl FnOnce(&Arc<Dataset>) -> JobSpec,
) -> (JobResult, Vec<TraceEvent>, ShuffleMetrics) {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(29);
    let spec = DatasetSpec::small("t", 24, 4_000, SkewLevel::Moderate, 29);
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
    if let Some(plan) = faults {
        rt.inject_cluster_faults(plan.clone()).expect("valid plan");
    }
    let blocks = ds.splits().iter().map(|p| p.block).collect();
    let id = rt.submit(job(&ds), Box::new(StaticDriver::new(blocks)));
    rt.run_until_idle();
    let shuffle = rt.metrics().shuffle();
    (rt.job_result(id).clone(), rt.take_trace(), shuffle)
}

/// Like [`parallel_fingerprint`], but exercising the paths the sampling job
/// does not: a combiner that actually removes records, a reducer over many
/// keys, and the shuffle counters.
fn reduce_plane_fingerprint(
    threads: u32,
    faults: Option<&ClusterFaultPlan>,
) -> (JobResult, Vec<TraceEvent>, ShuffleMetrics) {
    static_job_fingerprint(threads, faults, |ds| {
        JobSpec::builder()
            .input(DatasetInputFormat::new(Arc::clone(ds), ScanMode::Planted))
            .mapper(FanOutMapper)
            .combiner(DropEveryThird)
            .build()
    })
}

/// A materialised scan (`SELECT L_ORDERKEY, L_PARTKEY, L_QUANTITY WHERE
/// L_QUANTITY <= 5`, about 10% of rows): the reduce groups the `r{i}` keys
/// that every map task clones out of the mapper's one key table.
fn materialised_scan_fingerprint(
    threads: u32,
    faults: Option<&ClusterFaultPlan>,
) -> (JobResult, Vec<TraceEvent>, ShuffleMetrics) {
    static_job_fingerprint(threads, faults, |ds| {
        let predicate = Predicate::Compare {
            column: col::QUANTITY,
            op: CmpOp::Le,
            literal: Value::Int(5),
        };
        let projection = vec![col::ORDERKEY, col::PARTKEY, col::QUANTITY];
        JobSpec::builder()
            .input(DatasetInputFormat::new(Arc::clone(ds), ScanMode::Full))
            .mapper(ScanMapper::new(predicate, projection, true))
            .build()
    })
}

/// The fault plan the reduce-plane suites run under.
fn reduce_plane_faults() -> ClusterFaultPlan {
    ClusterFaultPlan {
        map_fault_probability: 0.2,
        max_attempts: 10,
        seed: 31,
        ..ClusterFaultPlan::default()
    }
}

/// The reduce plane and the combiner run on the worker pool too; their
/// results, traces, and shuffle counters must be identical at any thread
/// count, with and without fault injection.
#[test]
fn reduce_plane_and_combiner_are_thread_count_invariant() {
    for faults in [None, Some(reduce_plane_faults())] {
        let faults = faults.as_ref();
        let (serial_result, serial_trace, serial_shuffle) = reduce_plane_fingerprint(1, faults);
        assert!(
            serial_shuffle.combined_away() > 0,
            "the combiner must actually drop records"
        );
        assert!(
            !serial_result.output.is_empty(),
            "reduce output must be materialised"
        );
        if faults.is_some() {
            assert!(serial_result.task_failures > 0);
        }
        for threads in [4, 8] {
            let (result, trace, shuffle) = reduce_plane_fingerprint(threads, faults);
            assert_eq!(
                result.output,
                serial_result.output,
                "reduce output diverged at {threads} threads (faults: {})",
                faults.is_some()
            );
            assert_eq!(result.response_time(), serial_result.response_time());
            assert_eq!(result.map_output_records, serial_result.map_output_records);
            assert_eq!(result.task_failures, serial_result.task_failures);
            assert_eq!(trace, serial_trace);
            assert_eq!(shuffle, serial_shuffle, "shuffle counters diverged");
        }
    }
}

/// Map tasks share the scan mapper's key table from worker threads; the
/// rows, their order, the trace and the shuffle counters must not depend
/// on how many threads there are, with and without fault injection. The
/// rows must not depend on the faults either, since maps merge in task-id
/// order.
#[test]
fn materialised_scan_is_thread_count_invariant() {
    let (fault_free, _, _) = materialised_scan_fingerprint(1, None);
    assert!(fault_free.output.iter().any(|(key, _)| &**key == "r400"));
    for faults in [None, Some(reduce_plane_faults())] {
        let faults = faults.as_ref();
        let (serial_result, serial_trace, serial_shuffle) =
            materialised_scan_fingerprint(1, faults);
        assert_eq!(serial_result.output, fault_free.output);
        if faults.is_some() {
            assert!(serial_result.task_failures > 0);
        }
        for threads in [4, 8] {
            let (result, trace, shuffle) = materialised_scan_fingerprint(threads, faults);
            assert_eq!(
                result.output,
                serial_result.output,
                "scan rows diverged at {threads} threads (faults: {})",
                faults.is_some()
            );
            assert_eq!(result.response_time(), serial_result.response_time());
            assert_eq!(result.task_failures, serial_result.task_failures);
            assert_eq!(trace, serial_trace);
            assert_eq!(shuffle, serial_shuffle, "shuffle counters diverged");
        }
    }
}

#[test]
fn dataset_content_is_stable_across_processes() {
    // A pinned fingerprint guards against silent generator changes that
    // would invalidate recorded experiment numbers. If this fails after an
    // intentional generator change, update EXPERIMENTS.md alongside it.
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(1234);
    let spec = DatasetSpec::small("t", 8, 100, SkewLevel::High, 1234);
    let ds = Dataset::build(&mut ns, spec, &mut EvenRoundRobin::new(), &mut rng);
    let counts = ds.matching_counts();
    assert_eq!(
        counts.iter().sum::<u64>(),
        0,
        "8×100 records at 0.05% rounds to zero matches"
    );
    let spec = DatasetSpec::small("u", 8, 10_000, SkewLevel::High, 1234);
    let ds = Dataset::build(&mut ns, spec, &mut EvenRoundRobin::new(), &mut rng);
    assert_eq!(ds.total_matching(), 40, "0.05% of 80k records");
}
