//! Replication chaos suite: DataNode-death semantics under one directed
//! fault schedule, swept across replication factors and thread counts.
//!
//! The property pinned here is the **survival cliff**: with the identical
//! node death,
//!
//! * `r = 1` loses input blocks with the node and fails with the typed
//!   [`JobError::InputLost`] — never a wedge or a panic — after first
//!   re-executing the completed maps it could still hope to recover;
//! * `r >= 2` survives, produces output byte-identical to the fault-free
//!   run at 1, 4, and 8 data-plane threads, and re-executes strictly
//!   fewer maps than `r = 1` because completed maps whose block survives
//!   on another replica are spared.

use std::sync::Arc;

use incmr::dfs::ReplicatedPlacement;
use incmr::mapreduce::{ClusterFaultPlan, FaultMetrics, NodeOutage, ReplicaMetrics};
use incmr::prelude::*;

#[path = "support/replay.rs"]
mod replay;
use replay::assert_replay_matches_live;

/// Re-replication daemon period for every armed run.
const REPAIR: SimDuration = SimDuration::from_secs(5);

/// Splits in the chaos dataset — 96 over 40 map slots gives several
/// waves, so a mid-run death finds both completed and pending maps.
const SPLITS: u32 = 96;

/// Run the full scan once on a rack-aware replicated world with data-loss
/// semantics (and the repair daemon) armed, under an optional outage.
fn run_replicated(
    replication: u8,
    threads: u32,
    outage: Option<NodeOutage>,
    allow_partial: bool,
) -> (JobResult, Vec<TraceEvent>, ReplicaMetrics, FaultMetrics) {
    let topology = ClusterTopology::paper_cluster().with_racks(2);
    let mut ns = Namespace::new(topology);
    let mut rng = DetRng::seed_from(17);
    let spec = DatasetSpec::small("t", SPLITS, 2_000, SkewLevel::Moderate, 17);
    let mut placement = ReplicatedPlacement::try_rack_aware(replication, &topology)
        .expect("factor fits the 2-rack paper cluster");
    let ds = Arc::new(Dataset::build(&mut ns, spec, &mut placement, &mut rng));
    let mut cfg =
        ClusterConfig::paper_single_user().with_parallelism(Parallelism::threads(threads));
    cfg.topology = topology;
    let mut rt = MrRuntime::new(
        cfg,
        CostModel::paper_default(),
        ns,
        Box::new(FifoScheduler::new()),
    );
    rt.enable_data_loss();
    rt.enable_re_replication(REPAIR).expect("nonzero interval");
    rt.enable_tracing();
    if let Some(outage) = outage {
        rt.inject_cluster_faults(ClusterFaultPlan {
            outages: vec![outage],
            seed: 11,
            ..ClusterFaultPlan::default()
        })
        .expect("valid plan");
    }
    // A sampling job needing every match in the dataset: it must process
    // all splits, and its reduce output is real rows — so fault-free vs
    // chaos output comparisons are byte-meaningful.
    let (mut job, driver) = build_sampling_job(
        &ds,
        ds.total_matching(),
        Policy::hadoop(),
        ScanMode::Planted,
        SampleMode::FirstK,
        23,
    );
    if allow_partial {
        job.settings.allow_partial = true;
    }
    let id = rt.submit(job, driver);
    rt.run_until_idle();
    let result = rt.job_result(id).clone();
    let events = rt.take_trace();
    let replica = rt.metrics().replica();
    let faults = rt.metrics().faults();
    for w in events.windows(2) {
        assert!(
            w[0].time <= w[1].time,
            "trace timestamps must be nondecreasing"
        );
    }
    assert_replay_matches_live(&events, &rt, "fifo");
    (result, events, replica, faults)
}

/// The one death every test below injects: node 0 (primary holder of
/// every `block % 10 == 0`) dies at 60% of the r=1 fault-free horizon
/// and never rejoins.
fn directed_outage() -> NodeOutage {
    let (baseline, _, _, _) = run_replicated(1, 1, None, false);
    assert!(!baseline.failed, "fault-free r=1 run must complete");
    NodeOutage {
        node: NodeId(0),
        down_at: SimTime::from_millis(baseline.response_time().as_millis() * 6 / 10),
        up_at: None,
    }
}

#[test]
fn survival_cliff_sits_between_r1_and_r2() {
    let outage = directed_outage();

    // r = 1: the death takes the only copy of pending blocks with it.
    let (r1, trace1, replica1, faults1) = run_replicated(1, 1, Some(outage), false);
    assert!(r1.failed, "r=1 cannot survive losing a DataNode");
    let Some(JobError::InputLost { ref blocks }) = r1.error else {
        panic!("expected the typed InputLost error, got {:?}", r1.error);
    };
    assert!(!blocks.is_empty(), "the error names the lost blocks");
    assert!(r1.output.is_empty(), "a failed job materialises nothing");
    assert_eq!(replica1.input_lost_jobs, 1);
    assert!(replica1.blocks_lost > 0);
    assert!(
        faults1.maps_reexecuted > 0,
        "completed maps on the dead node re-execute before the loss is fatal: {faults1:?}"
    );
    assert!(trace1.iter().any(|e| matches!(
        e.kind,
        TraceKind::InputLost {
            graceful: false,
            ..
        }
    )));

    // r = 2 and r = 3: the same death is survivable, byte-identically to
    // the fault-free run, at every thread count.
    for replication in [2, 3] {
        let (baseline, _, _, _) = run_replicated(replication, 1, None, false);
        assert!(!baseline.failed);
        let (survivor, _, replica, faults) = run_replicated(replication, 1, Some(outage), false);
        assert!(!survivor.failed, "r={replication} must survive the death");
        assert_eq!(
            survivor.output, baseline.output,
            "r={replication}: recovery must reproduce the fault-free output exactly"
        );
        assert_eq!(
            faults.maps_reexecuted, 0,
            "r={replication}: no completed map should re-execute — its block survives"
        );
        assert!(
            faults.maps_reexecuted < faults1.maps_reexecuted,
            "r={replication} must re-execute strictly fewer maps than r=1"
        );
        assert!(
            replica.reexecutions_avoided > 0,
            "r={replication}: the replica fast path must spare completed maps: {replica:?}"
        );
        assert_eq!(replica.blocks_lost, 0, "every block keeps a live copy");
        assert_eq!(replica.input_lost_jobs, 0);
        assert!(
            replica.replicas_restored > 0,
            "the daemon must repair under-replication: {replica:?}"
        );

        // Thread invariance of the chaos run itself.
        let scalars = |r: &JobResult| {
            (
                r.splits_processed,
                r.records_processed,
                r.map_output_records,
                r.failed,
                r.finish_time,
            )
        };
        for threads in [4, 8] {
            let (rt_n, trace_n, replica_n, faults_n) =
                run_replicated(replication, threads, Some(outage), false);
            assert_eq!(
                scalars(&rt_n),
                scalars(&survivor),
                "r={replication}: scalars differ at {threads} threads"
            );
            assert_eq!(rt_n.output, survivor.output);
            assert_eq!(replica_n, replica);
            assert_eq!(faults_n, faults);
            let (_, trace_1, _, _) = run_replicated(replication, 1, Some(outage), false);
            assert_eq!(
                trace_n, trace_1,
                "r={replication}: trace differs at {threads} threads"
            );
        }
    }
}

#[test]
fn r1_with_allow_partial_degrades_instead_of_failing() {
    let outage = directed_outage();
    let (baseline, _, _, _) = run_replicated(1, 1, None, false);
    let (partial, trace, replica, _) = run_replicated(1, 1, Some(outage), true);
    assert!(
        !partial.failed,
        "allow_partial turns input loss into a degraded completion"
    );
    assert!(partial.error.is_none());
    assert!(
        partial.splits_processed < baseline.splits_processed,
        "the lost splits are abandoned, not processed: {} vs {}",
        partial.splits_processed,
        baseline.splits_processed
    );
    assert!(
        !partial.output.is_empty() && partial.output.len() < baseline.output.len(),
        "the surviving splits' matches are kept as a partial sample: {} of {}",
        partial.output.len(),
        baseline.output.len()
    );
    assert_eq!(replica.input_lost_jobs, 1);
    assert!(trace
        .iter()
        .any(|e| matches!(e.kind, TraceKind::InputLost { graceful: true, .. })));
}

/// A rejoined DataNode comes back empty (its replicas died with it): only
/// the re-replication daemon restores copies, and the job still finishes
/// with the fault-free output.
#[test]
fn a_rejoined_datanode_comes_back_empty_and_is_repaired() {
    let mut outage = directed_outage();
    outage.up_at = Some(SimTime::from_millis(outage.down_at.as_millis() * 3 / 2));
    let (baseline, _, _, _) = run_replicated(2, 1, None, false);
    let (r, trace, replica, _) = run_replicated(2, 1, Some(outage), false);
    assert!(!r.failed);
    assert_eq!(r.output, baseline.output);
    assert!(replica.replicas_lost > 0);
    assert!(
        replica.replicas_restored > 0,
        "repair must refill the cluster: {replica:?}"
    );
    let rejoined_at = trace
        .iter()
        .find(|e| matches!(e.kind, TraceKind::NodeRejoined { .. }))
        .map(|e| e.time)
        .expect("rejoin must be traced");
    assert!(
        trace.iter().any(|e| e.time >= rejoined_at
            && matches!(e.kind, TraceKind::ReplicaRestored { node, .. } if node == NodeId(0))),
        "the empty rejoined node is a valid re-replication target"
    );
}
