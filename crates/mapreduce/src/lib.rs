//! # incmr-mapreduce
//!
//! A from-scratch MapReduce execution framework in the mould of Hadoop
//! 0.20, running on the `incmr-simkit` discrete-event kernel. This is the
//! substrate the paper's Input Provider mechanism (in `incmr-core`) plugs
//! into.
//!
//! What is modelled (because the paper's evaluation depends on it):
//!
//! * jobs → map tasks over DFS input splits, one map slot per task, a
//!   configurable slot count per node (4 single-user / 16 multi-user);
//! * pluggable [`scheduler::TaskScheduler`]s — [`scheduler::FifoScheduler`]
//!   (Hadoop default) and [`scheduler::FairScheduler`] (delay scheduling);
//! * a physical cost model ([`cost::CostModel`]): task start-up overhead,
//!   processor-shared disks, per-node CPU sharing, network penalty for
//!   non-local reads;
//! * the **growth hook** ([`job::GrowthDriver`]): a job consumes input
//!   incrementally, the runtime re-evaluates the driver on a fixed
//!   interval, and the reduce phase starts only after end-of-input *and*
//!   all scheduled maps complete (paper Section III-A);
//! * cluster metrics matching the paper's instrumentation: CPU %, disk
//!   KB/s, locality %, slot occupancy %;
//! * the fault-tolerance plane ([`faults`]): TaskTracker death and rejoin
//!   on a simulated schedule, map/reduce attempt faults, stragglers,
//!   speculative execution, per-job blacklisting — with Hadoop's
//!   re-execution semantics, deterministically (see DESIGN.md §8);
//! * a **columnar data plane** (DESIGN.md §12): every split arrives as a
//!   shared `Arc<RecordBatch>` ([`exec::SplitData`]), mappers read it
//!   through one selection ([`exec::SplitData::select`]) and may emit
//!   [`exec::KeyedBatch`] selection-vector handles instead of pairs, and
//!   the shuffle carries them unmaterialised ([`shuffle::ValueSeq`])
//!   until the reduce boundary;
//! * the **replication plane** (DESIGN.md §14): opt-in DataNode-death
//!   semantics ([`runtime::MrRuntime::enable_data_loss`]) over rack-aware
//!   replica placement, read failover, typed input-loss handling
//!   ([`job::JobError::InputLost`]), and a simulated-time re-replication
//!   daemon ([`runtime::MrRuntime::enable_re_replication`]).
//!
//! What is deliberately not modelled: more than one reduce task per job.
//! The paper's jobs run a single reduce (Algorithm 2 takes `k` of every
//! candidate under one dummy key), so every job here runs exactly one, and
//! map output is merged into one reduce input without partitioning.

pub mod approx;
pub mod cluster;
pub mod cost;
pub mod exec;
pub mod faults;
pub mod job;
pub mod memo;
pub mod metrics;
pub mod obs;
pub mod parallel;
pub mod runtime;
pub mod scheduler;
pub mod shuffle;
pub mod trace;

pub use approx::{
    decode_group_part, encode_group_part, evaluate_bound, fold_parts, z_quantile, AggKind,
    AggOutcome, AggPlan, AggProbe, AggReport, BoundEval, ErrorBound, GroupAccum, SplitAggPart,
    DEFAULT_AGG_ROUNDS,
};
pub use cluster::{ClusterConfig, ClusterStatus, Parallelism};
pub use cost::CostModel;
pub use exec::{
    batches_to_pairs, Combiner, DatasetInputFormat, IdentityReducer, InputFormat, Key, KeyedBatch,
    MapResult, Mapper, ReduceOutput, Reducer, ScanMode, SplitData,
};
pub use faults::{
    ClusterFaultPlan, FaultConfigError, NodeOutage, SpecCandidate, SpeculationConfig,
};
pub use job::{
    EvalContext, GrowthDirective, GrowthDriver, GrowthOutcome, JobConfigError, JobError, JobId,
    JobProgress, JobResult, JobSettings, JobSpec, JobSpecBuilder, ProviderError, ProviderStage,
    StaticDriver, TaskId,
};
pub use memo::{MemoEntry, MemoProbe, MemoStore};
pub use metrics::{
    ClusterMetrics, FaultMetrics, GuardrailMetrics, HostPhaseNanos, MemoMetrics, MetricsReport,
    ReplicaMetrics, ShuffleMetrics,
};
pub use obs::{
    audited_splits_added, encode_event, encode_trace, parse_event, parse_trace, render_audit,
    render_swimlanes, AuditDirective, AuditRecord, MetricsRegistry, TraceParseError,
};
pub use parallel::{
    MapTaskResult, MapUnit, ParallelExecutor, ReduceTaskResult, ReduceUnit, UnitHandle, WorkUnit,
};
pub use runtime::{MrRuntime, DEFAULT_MAX_IDLE_EVALUATIONS};
pub use scheduler::{
    Assignment, Claims, FairScheduler, FifoScheduler, SchedJob, SchedView, TaskScheduler,
    ViewPolicy,
};
pub use shuffle::{fnv1a, KeyGroups, MapOutput, PartitionBuffer, ShuffleState, ValueSeq};
pub use trace::{job_timeline, JobTimeline, TraceEvent, TraceKind};

/// One-line import for framework users: `use incmr_mapreduce::prelude::*;`
/// brings in the types almost every job-building call site needs.
pub mod prelude {
    pub use crate::cluster::{ClusterConfig, ClusterStatus, Parallelism};
    pub use crate::cost::CostModel;
    pub use crate::exec::{
        Combiner, DatasetInputFormat, IdentityReducer, InputFormat, Key, KeyedBatch, MapResult,
        Mapper, Reducer, ScanMode, SplitData,
    };
    pub use crate::job::{
        EvalContext, GrowthDirective, GrowthDriver, GrowthOutcome, JobError, JobId, JobProgress,
        JobResult, JobSpec, ProviderError, ProviderStage, StaticDriver, TaskId,
    };
    pub use crate::obs::{AuditRecord, MetricsRegistry};
    pub use crate::runtime::MrRuntime;
    pub use crate::scheduler::{FairScheduler, FifoScheduler, TaskScheduler};
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;
    use std::sync::Arc;

    use incmr_data::{Dataset, DatasetSpec, Record, SkewLevel, Value};
    use incmr_dfs::{ClusterTopology, EvenRoundRobin, Namespace};
    use incmr_simkit::rng::DetRng;
    use incmr_simkit::{SimDuration, SimTime};

    use crate::cluster::ClusterConfig;
    use crate::cost::CostModel;
    use crate::exec::{DatasetInputFormat, Key, MapResult, Mapper, ScanMode, SplitData};
    use crate::job::{EvalContext, GrowthDirective, GrowthDriver, JobSpec, StaticDriver};
    use crate::runtime::MrRuntime;
    use crate::scheduler::{FairScheduler, FifoScheduler};
    use crate::ClusterStatus;
    use incmr_dfs::BlockId;

    /// A mapper that emits a planted split's matches under one dummy key,
    /// zero-copy, and only counts a full split's records.
    struct MatchAllMapper;

    impl Mapper for MatchAllMapper {
        fn run(&self, data: SplitData) -> MapResult {
            match data {
                SplitData::Planted {
                    total_records,
                    matches,
                } => MapResult {
                    batches: vec![crate::exec::KeyedBatch {
                        key: Key::from("k"),
                        rows: incmr_data::BatchSelection::all(matches),
                    }],
                    records_read: total_records,
                    ..MapResult::default()
                },
                full => MapResult {
                    records_read: full.total_records(),
                    ..MapResult::default()
                },
            }
        }
    }

    fn small_world(partitions: u32, records: u64) -> (MrRuntime, Arc<Dataset>) {
        world_with_cost(partitions, records, CostModel::paper_default())
    }

    fn world_with_cost(
        partitions: u32,
        records: u64,
        cost: CostModel,
    ) -> (MrRuntime, Arc<Dataset>) {
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let mut rng = DetRng::seed_from(5);
        let spec = DatasetSpec::small("t", partitions, records, SkewLevel::Zero, 5);
        let ds = Arc::new(Dataset::build(
            &mut ns,
            spec,
            &mut EvenRoundRobin::new(),
            &mut rng,
        ));
        let rt = MrRuntime::new(
            ClusterConfig::paper_single_user(),
            cost,
            ns,
            Box::new(FifoScheduler::new()),
        );
        (rt, ds)
    }

    fn static_job(ds: &Arc<Dataset>) -> (JobSpec, Box<StaticDriver>) {
        let spec = JobSpec::builder()
            .input(DatasetInputFormat::new(Arc::clone(ds), ScanMode::Planted))
            .mapper(MatchAllMapper)
            .build();
        let blocks = ds.splits().iter().map(|p| p.block).collect();
        (spec, Box::new(StaticDriver::new(blocks)))
    }

    #[test]
    fn static_job_processes_all_splits_and_finds_all_matches() {
        let (mut rt, ds) = small_world(12, 2_000);
        let (spec, driver) = static_job(&ds);
        let id = rt.submit(spec, driver);
        rt.run_until_idle();
        assert!(rt.is_complete(id));
        let r = rt.job_result(id);
        assert_eq!(r.splits_processed, 12);
        assert_eq!(r.records_processed, 24_000);
        assert_eq!(r.map_output_records, ds.total_matching());
        assert_eq!(r.output.len() as u64, ds.total_matching());
        assert!(r.response_time() > SimDuration::ZERO);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let (mut rt, ds) = small_world(12, 2_000);
            let (spec, driver) = static_job(&ds);
            let id = rt.submit(spec, driver);
            rt.run_until_idle();
            (rt.job_result(id).response_time(), rt.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn response_time_grows_with_input_size() {
        let time_for = |partitions| {
            let (mut rt, ds) = small_world(partitions, 20_000);
            let (spec, driver) = static_job(&ds);
            let id = rt.submit(spec, driver);
            rt.run_until_idle();
            rt.job_result(id).response_time()
        };
        let small = time_for(40);
        let large = time_for(160);
        assert!(
            large > small * 2,
            "4x the input should take much longer on 40 slots: {small} vs {large}"
        );
    }

    #[test]
    fn concurrent_jobs_share_the_cluster() {
        let (mut rt, ds) = small_world(40, 5_000);
        let (spec_a, driver_a) = static_job(&ds);
        let (spec_b, driver_b) = static_job(&ds);
        let a = rt.submit(spec_a, driver_a);
        let b = rt.submit(spec_b, driver_b);
        rt.run_until_idle();
        assert!(rt.is_complete(a) && rt.is_complete(b));
        // Cluster status is quiescent at the end.
        let s = rt.cluster_status();
        assert_eq!(s.occupied_map_slots, 0);
        assert_eq!(s.running_jobs, 0);
        assert_eq!(s.queued_map_tasks, 0);
    }

    #[test]
    fn metrics_record_assignments_and_locality() {
        let (mut rt, ds) = small_world(40, 2_000);
        let (spec, driver) = static_job(&ds);
        rt.submit(spec, driver);
        rt.run_until_idle();
        let report = rt.metrics().report(rt.now());
        assert_eq!(rt.metrics().assignments(), 40);
        assert!(report.locality_pct > 0.0);
        assert!(report.slot_occupancy_pct > 0.0);
    }

    #[test]
    fn fair_scheduler_runs_jobs_to_completion_too() {
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let mut rng = DetRng::seed_from(5);
        let spec = DatasetSpec::small("t", 20, 1_000, SkewLevel::Zero, 5);
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
            Box::new(FairScheduler::paper_default()),
        );
        let (spec, driver) = static_job(&ds);
        let id = rt.submit(spec, driver);
        rt.run_until_idle();
        assert!(rt.is_complete(id));
        assert_eq!(rt.job_result(id).splits_processed, 20);
    }

    /// A driver that adds splits in fixed-size increments, ending input when
    /// exhausted — exercises the incremental path without `incmr-core`.
    struct DripDriver {
        splits: Vec<BlockId>,
        step: usize,
        calls: Rc<Cell<u32>>,
    }

    impl GrowthDriver for DripDriver {
        fn initial_input(&mut self, _c: &ClusterStatus) -> Vec<BlockId> {
            let n = self.step.min(self.splits.len());
            self.splits.drain(..n).collect()
        }

        fn evaluate(&mut self, _ctx: EvalContext<'_>) -> GrowthDirective {
            self.calls.set(self.calls.get() + 1);
            if self.splits.is_empty() {
                GrowthDirective::EndOfInput
            } else {
                let n = self.step.min(self.splits.len());
                GrowthDirective::AddInput(self.splits.drain(..n).collect())
            }
        }

        fn evaluation_interval(&self) -> SimDuration {
            SimDuration::from_secs(4)
        }
    }

    #[test]
    fn incremental_driver_is_reevaluated_until_end_of_input() {
        let (mut rt, ds) = small_world(10, 1_000);
        let (spec, _) = static_job(&ds);
        let calls = Rc::new(Cell::new(0u32));
        let driver = Box::new(DripDriver {
            splits: ds.splits().iter().map(|p| p.block).collect(),
            step: 3,
            calls: Rc::clone(&calls),
        });
        let id = rt.submit(spec, driver);
        rt.run_until_idle();
        assert!(rt.is_complete(id));
        let r = rt.job_result(id);
        assert_eq!(r.splits_processed, 10, "all drip-fed splits processed");
        // initial 3, then +3, +3, +1, then EndOfInput — at least 4 evaluations.
        assert!(calls.get() >= 4, "driver evaluated {} times", calls.get());
    }

    #[test]
    fn run_until_any_completion_interleaves_with_submission() {
        let (mut rt, ds) = small_world(8, 500);
        let (spec, driver) = static_job(&ds);
        let a = rt.submit(spec.clone(), driver);
        let done = rt.run_until_any_completion();
        assert_eq!(done, Some(a));
        // Submit a follow-up job at the current (advanced) time.
        let blocks = ds.splits().iter().map(|p| p.block).collect();
        let b = rt.submit(spec, Box::new(StaticDriver::new(blocks)));
        let done = rt.run_until_any_completion();
        assert_eq!(done, Some(b));
        let ra = rt.job_result(a);
        let rb = rt.job_result(b);
        assert!(rb.submit_time >= ra.finish_time);
    }

    #[test]
    fn run_until_respects_time_limit() {
        let (mut rt, ds) = small_world(40, 50_000);
        let (spec, driver) = static_job(&ds);
        let id = rt.submit(spec, driver);
        rt.run_until(SimTime::from_secs(2));
        assert!(!rt.is_complete(id), "a 40-split job cannot finish in 2 s");
        assert_eq!(rt.now(), SimTime::from_secs(2));
        rt.run_until_idle();
        assert!(rt.is_complete(id));
    }

    #[test]
    fn reset_metrics_discards_warmup() {
        let (mut rt, ds) = small_world(20, 2_000);
        let (spec, driver) = static_job(&ds);
        rt.submit(spec.clone(), driver);
        rt.run_until_idle();
        let before = rt.metrics().assignments();
        assert_eq!(before, 20);
        rt.reset_metrics();
        assert_eq!(rt.metrics().assignments(), 0);
        let blocks = ds.splits().iter().map(|p| p.block).collect();
        rt.submit(spec, Box::new(StaticDriver::new(blocks)));
        rt.run_until_idle();
        assert_eq!(rt.metrics().assignments(), 20);
    }

    #[test]
    fn full_scan_mode_executes_real_predicate() {
        // Same job in Full mode: mapper sees raw records; we use a mapper
        // that filters with the dataset's real predicate.
        struct FilterMapper {
            pred: incmr_data::Predicate,
        }
        impl Mapper for FilterMapper {
            fn run(&self, data: SplitData) -> MapResult {
                let SplitData::Full(batch) = data else {
                    panic!("expected full batch mode")
                };
                let records_read = batch.len() as u64;
                let sel = self.pred.select(&batch, usize::MAX);
                MapResult {
                    batches: vec![crate::exec::KeyedBatch {
                        key: Key::from("k"),
                        rows: incmr_data::BatchSelection::new(batch, sel, Arc::from([])),
                    }],
                    records_read,
                    ..MapResult::default()
                }
            }
        }
        let (mut rt, ds) = small_world(6, 800);
        use incmr_data::generator::RecordFactory;
        let pred = ds.factory().predicate();
        let spec = JobSpec::builder()
            .input(DatasetInputFormat::new(Arc::clone(&ds), ScanMode::Full))
            .mapper(FilterMapper { pred })
            .build();
        let blocks = ds.splits().iter().map(|p| p.block).collect();
        let id = rt.submit(spec, Box::new(StaticDriver::new(blocks)));
        rt.run_until_idle();
        assert_eq!(rt.job_result(id).map_output_records, ds.total_matching());
    }

    #[test]
    fn pinned_placement_forces_remote_reads_and_slows_the_job() {
        use incmr_dfs::{DiskId, PinnedPlacement};
        let run = |pinned: bool| {
            let mut ns = Namespace::new(ClusterTopology::paper_cluster());
            let mut rng = DetRng::seed_from(5);
            let spec = DatasetSpec::small("t", 40, 200_000, SkewLevel::Zero, 5);
            let ds = Arc::new(if pinned {
                Dataset::build(
                    &mut ns,
                    spec,
                    &mut PinnedPlacement::new(DiskId(0)),
                    &mut rng,
                )
            } else {
                Dataset::build(&mut ns, spec, &mut EvenRoundRobin::new(), &mut rng)
            });
            let mut rt = MrRuntime::new(
                ClusterConfig::paper_single_user(),
                CostModel::paper_default(),
                ns,
                Box::new(FifoScheduler::new()),
            );
            let (spec, driver) = static_job(&ds);
            let id = rt.submit(spec, driver);
            rt.run_until_idle();
            (
                rt.job_result(id).locality(),
                rt.job_result(id).response_time(),
            )
        };
        let (even_locality, even_time) = run(false);
        let (pinned_locality, pinned_time) = run(true);
        assert!(
            even_locality > 0.9,
            "even layout is almost fully local: {even_locality}"
        );
        assert!(
            pinned_locality < 0.25,
            "everything on node 0 leaves 36 of 40 slots remote: {pinned_locality}"
        );
        assert!(
            pinned_time > even_time,
            "remote reads + one hot disk must cost time: {pinned_time} vs {even_time}"
        );
    }

    #[test]
    fn fault_injection_retries_and_still_completes() {
        let (mut rt, ds) = small_world(12, 2_000);
        rt.inject_cluster_faults(crate::ClusterFaultPlan {
            map_fault_probability: 0.3,
            max_attempts: 10,
            seed: 5,
            ..Default::default()
        })
        .expect("valid plan");
        let (spec, driver) = static_job(&ds);
        let id = rt.submit(spec, driver);
        rt.run_until_idle();
        let r = rt.job_result(id);
        assert!(!r.failed);
        assert!(
            r.task_failures > 0,
            "a 30% fault rate over 12 tasks should fail at least once"
        );
        assert_eq!(r.splits_processed, 12, "every split eventually completes");
        assert_eq!(
            r.map_output_records,
            ds.total_matching(),
            "retries do not duplicate output"
        );
    }

    #[test]
    fn exhausted_attempts_fail_the_job() {
        let (mut rt, ds) = small_world(4, 500);
        rt.inject_cluster_faults(crate::ClusterFaultPlan {
            map_fault_probability: 0.999,
            max_attempts: 2,
            seed: 7,
            ..Default::default()
        })
        .expect("valid plan");
        let (spec, driver) = static_job(&ds);
        let id = rt.submit(spec, driver);
        rt.run_until_idle();
        let r = rt.job_result(id);
        assert!(r.failed);
        assert!(r.output.is_empty());
        assert!(r.task_failures >= 2);
        // The cluster is quiescent and reusable after a job failure.
        let s = rt.cluster_status();
        assert_eq!(s.occupied_map_slots, 0);
        let (spec2, driver2) = static_job(&ds);
        rt.faults_off_for_test();
        let id2 = rt.submit(spec2, driver2);
        rt.run_until_idle();
        assert!(!rt.job_result(id2).failed);
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let run = || {
            let (mut rt, ds) = small_world(10, 1_000);
            rt.inject_cluster_faults(crate::ClusterFaultPlan {
                map_fault_probability: 0.4,
                max_attempts: 8,
                seed: 11,
                ..Default::default()
            })
            .expect("valid plan");
            let (spec, driver) = static_job(&ds);
            let id = rt.submit(spec, driver);
            rt.run_until_idle();
            let r = rt.job_result(id);
            (r.task_failures, r.response_time())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reduce_slot_contention_serialises_excess_reduces() {
        // 25 one-split jobs submitted at once on a 20-reduce-slot cluster,
        // with reduces long enough to outlast the spread of the maps: a
        // reduce launches one per node heartbeat into a free slot, so the
        // slots fill, never overfill, and the last five reduces wait for
        // a running one to commit — and every job still completes exactly.
        use crate::trace::TraceKind;
        let cost = CostModel {
            reduce_overhead_ms: 600_000,
            ..CostModel::paper_default()
        };
        let (mut rt, ds) = world_with_cost(25, 20_000, cost);
        rt.enable_tracing();
        let jobs: Vec<_> = ds
            .splits()
            .iter()
            .map(|p| {
                let (spec, _) = static_job(&ds);
                rt.submit(spec, Box::new(StaticDriver::new(vec![p.block])))
            })
            .collect();
        rt.run_until_idle();
        let matches: u64 = jobs
            .iter()
            .map(|&id| rt.job_result(id).output.len() as u64)
            .sum();
        assert_eq!(matches, ds.total_matching());
        let cfg = rt.config();
        let slots = cfg.topology.num_nodes() as u32 * cfg.reduce_slots_per_node;
        assert_eq!(slots, 20);
        let (mut running, mut peak, mut committed, mut waited) = (0u32, 0u32, 0u32, 0u32);
        for event in rt.take_trace() {
            match event.kind {
                TraceKind::ReduceStarted { .. } => {
                    running += 1;
                    peak = peak.max(running);
                    waited += u32::from(committed > 0);
                }
                TraceKind::ReduceFinished { .. } => {
                    running -= 1;
                    committed += 1;
                }
                _ => {}
            }
        }
        assert_eq!(committed, 25);
        assert_eq!(peak, slots, "the reduce slots fill and never overfill");
        assert!(
            waited >= 25 - slots,
            "{waited} reduces launched after another committed"
        );
    }

    #[test]
    fn release_job_result_keeps_scalars_drops_bulk() {
        let (mut rt, ds) = small_world(8, 2_000);
        let (spec, driver) = static_job(&ds);
        let id = rt.submit(spec, driver);
        rt.run_until_idle();
        let before = rt.job_result(id).clone();
        assert!(!before.output.is_empty());
        rt.release_job_result(id);
        let after = rt.job_result(id);
        assert!(after.output.is_empty(), "bulk rows dropped");
        assert_eq!(after.splits_processed, before.splits_processed);
        assert_eq!(after.records_processed, before.records_processed);
        assert_eq!(after.response_time(), before.response_time());
        // Idempotent.
        rt.release_job_result(id);
    }

    #[test]
    #[should_panic(expected = "cannot release a live job")]
    fn release_of_live_job_panics() {
        let (mut rt, ds) = small_world(4, 500);
        let (spec, driver) = static_job(&ds);
        let id = rt.submit(spec, driver);
        rt.release_job_result(id);
    }

    #[test]
    fn tracing_records_the_whole_job_lifecycle() {
        use crate::obs::render_swimlanes;
        use crate::trace::{job_timeline, TraceKind};
        let (mut rt, ds) = small_world(6, 2_000);
        rt.enable_tracing();
        let (spec, driver) = static_job(&ds);
        let id = rt.submit(spec, driver);
        rt.run_until_idle();
        let trace = rt.take_trace();
        assert!(matches!(
            trace.first().unwrap().kind,
            TraceKind::JobSubmitted { .. }
        ));
        assert!(matches!(
            trace.last().unwrap().kind,
            TraceKind::JobCompleted { failed: false, .. }
        ));
        let t = job_timeline(&trace, id).expect("traced job has a timeline");
        assert_eq!(t.maps, (6, 6, 0));
        assert_eq!(t.reduces, (1, 1));
        assert_eq!(t.growth, vec![(t.submitted, 6)]);
        assert!(t.end_of_input.is_some());
        // The clock runs on briefly (heartbeat chains drain); the traced
        // completion matches the job result exactly.
        assert_eq!(t.completed, Some(rt.job_result(id).finish_time));
        let chart = render_swimlanes(&trace, 20);
        assert!(chart.contains('=') && chart.contains('R'), "{chart}");
        // Taking the trace leaves tracing enabled with a fresh buffer.
        assert!(rt.take_trace().is_empty());
    }

    #[test]
    fn trace_is_empty_without_enable() {
        let (mut rt, ds) = small_world(3, 500);
        let (spec, driver) = static_job(&ds);
        rt.submit(spec, driver);
        rt.run_until_idle();
        assert!(rt.take_trace().is_empty());
    }

    #[test]
    fn trace_records_failures() {
        use crate::trace::TraceKind;
        let (mut rt, ds) = small_world(4, 500);
        rt.enable_tracing();
        rt.inject_cluster_faults(crate::ClusterFaultPlan {
            map_fault_probability: 0.999,
            max_attempts: 2,
            seed: 3,
            ..Default::default()
        })
        .expect("valid plan");
        let (spec, driver) = static_job(&ds);
        rt.submit(spec, driver);
        rt.run_until_idle();
        let trace = rt.take_trace();
        assert!(trace
            .iter()
            .any(|e| matches!(e.kind, TraceKind::MapFailed { .. })));
        assert!(trace
            .iter()
            .any(|e| matches!(e.kind, TraceKind::JobCompleted { failed: true, .. })));
    }

    #[test]
    fn reducer_sees_groups_in_first_seen_key_order() {
        struct TwoKeyMapper;
        impl Mapper for TwoKeyMapper {
            fn run(&self, data: SplitData) -> MapResult {
                MapResult {
                    pairs: vec![
                        ("b".into(), Record::new(vec![Value::Int(1)])),
                        ("a".into(), Record::new(vec![Value::Int(2)])),
                    ],
                    records_read: data.total_records(),
                    ..MapResult::default()
                }
            }
        }
        let (mut rt, ds) = small_world(1, 100);
        let spec = JobSpec::builder()
            .input(DatasetInputFormat::new(Arc::clone(&ds), ScanMode::Planted))
            .mapper(TwoKeyMapper)
            .build();
        let blocks = ds.splits().iter().map(|p| p.block).collect();
        let id = rt.submit(spec, Box::new(StaticDriver::new(blocks)));
        rt.run_until_idle();
        let keys: Vec<&str> = rt.job_result(id).output.iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["b", "a"], "first-seen key reduces first");
    }

    /// A combiner keeping at most `limit` pairs per map task.
    struct TruncateCombiner {
        limit: usize,
    }
    impl crate::exec::Combiner for TruncateCombiner {
        fn combine(&self, mut pairs: Vec<(Key, Record)>) -> Vec<(Key, Record)> {
            pairs.truncate(self.limit);
            pairs
        }
    }

    #[test]
    fn combiner_shrinks_shuffle_and_is_traced() {
        use crate::trace::TraceKind;
        // 12 splits; the combiner keeps 2 pairs per map task.
        let (mut rt, ds) = small_world(12, 20_000);
        rt.enable_tracing();
        let (mut spec, driver) = static_job(&ds);
        spec.combiner = Some(Arc::new(TruncateCombiner { limit: 2 }));
        let id = rt.submit(spec, driver);
        rt.run_until_idle();
        let r = rt.job_result(id);
        assert_eq!(r.output.len(), 24, "2 survivors × 12 maps");
        assert_eq!(
            r.map_output_records, 24,
            "post-combine records are what the job accounts"
        );
        let shuffle = rt.metrics().shuffle();
        assert_eq!(shuffle.combiner_input_records, ds.total_matching());
        assert_eq!(shuffle.combiner_output_records, 24);
        let trace = rt.take_trace();
        let ready = trace
            .iter()
            .find_map(|e| match e.kind {
                TraceKind::ShuffleReady {
                    combiner_in,
                    combiner_out,
                    ..
                } => Some((combiner_in, combiner_out)),
                _ => None,
            })
            .expect("shuffle-ready event traced");
        assert_eq!(ready, (ds.total_matching(), 24));
    }

    #[test]
    fn host_phase_timers_observe_data_plane_work() {
        let (mut rt, ds) = small_world(8, 2_000);
        let (spec, driver) = static_job(&ds);
        rt.submit(spec, driver);
        rt.run_until_idle();
        let host = rt.metrics().host_phase_nanos();
        assert!(host.map_ns > 0, "map units timed");
        assert!(host.reduce_ns > 0, "reduce units timed");
    }
}
