//! Golden-trace regression for the replication plane: one fixed world,
//! one fixed DataNode death + rejoin, one exact event timeline committed
//! to the repository.
//!
//! The scenario exercises every replication event kind:
//!
//! * **ReplicaLost** — node 0 dies with data-loss semantics armed, so
//!   every replica it hosted is stripped from the namespace;
//! * **ReadFailover** — dataset A is pinned to node 0's first disk with a
//!   hand-placed second replica on node 1, so the death catches remote
//!   map attempts mid-startup and their reads fail over;
//! * **ReplicaRestored** — dataset C is rack-aware r = 2, so the death
//!   leaves it under-replicated and the repair daemon recreates copies;
//! * **InputLost (FATAL / partial)** — dataset B is unreplicated; a job
//!   needing it after the death fails typed, and the same job with
//!   `settings.allow_partial` degrades to a partial sample.
//!
//! After an *intentional* behaviour change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_replication
//! ```
//!
//! and review the diff like any other code change.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use incmr::dfs::{DiskId, PinnedPlacement, ReplicatedPlacement};
use incmr::mapreduce::{ClusterFaultPlan, NodeOutage};
use incmr::prelude::*;

#[path = "support/golden_kinds.rs"]
mod golden_kinds;
#[path = "support/replay.rs"]
mod replay;
use golden_kinds::assert_plane_kinds;
use replay::assert_replay_matches_live;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/replication_trace.txt")
}

/// The fixed replication scenario's trace; every counter and histogram
/// must replay from it.
fn run() -> Vec<TraceEvent> {
    let topology = ClusterTopology::paper_cluster().with_racks(2);
    let mut ns = Namespace::new(topology);
    let mut rng = DetRng::seed_from(31);

    // Dataset A: every block pinned to node 0's first disk, with a second
    // replica hand-placed on node 1 — so node 0's death catches remote
    // readers mid-startup and forces read failover, while the block
    // itself survives.
    let spec_a = DatasetSpec::small("a", 24, 2_000, SkewLevel::Moderate, 31);
    let ds_a = Arc::new(Dataset::build(
        &mut ns,
        spec_a,
        &mut PinnedPlacement::new(DiskId(0)),
        &mut rng,
    ));
    let node1_disk = topology
        .disks_of(NodeId(1))
        .next()
        .expect("node 1 has disks");
    for split in ds_a.splits() {
        ns.add_replica(split.block, node1_disk);
    }

    // Dataset B: unreplicated, spread across the cluster — the death
    // takes its node-0 blocks' only copies with it.
    let spec_b = DatasetSpec::small("b", 12, 2_000, SkewLevel::Moderate, 32);
    let ds_b = Arc::new(Dataset::build(
        &mut ns,
        spec_b,
        &mut EvenRoundRobin::new(),
        &mut rng,
    ));

    // Dataset C: rack-aware r = 2 — the death leaves it under-replicated
    // with a live copy to repair from.
    let spec_c = DatasetSpec::small("c", 20, 2_000, SkewLevel::Moderate, 33);
    let ds_c = Arc::new(Dataset::build(
        &mut ns,
        spec_c,
        &mut ReplicatedPlacement::try_rack_aware(2, &topology).expect("2 fits"),
        &mut rng,
    ));
    drop(ds_c); // no job reads C; only the repair daemon touches it

    let mut cfg = ClusterConfig::paper_single_user();
    cfg.topology = topology;
    let mut rt = MrRuntime::new(
        cfg,
        CostModel::paper_default(),
        ns,
        Box::new(FifoScheduler::new()),
    );
    rt.enable_data_loss();
    rt.enable_re_replication(SimDuration::from_secs(5))
        .expect("nonzero interval");
    rt.enable_tracing();
    rt.inject_cluster_faults(ClusterFaultPlan {
        // Heartbeats are staggered 0.3 s per node, so by 1.3 s nodes 2–3
        // host remote attempts still inside task startup whose intended
        // read disk is node 0's — the death makes them fail over.
        outages: vec![NodeOutage {
            node: NodeId(0),
            down_at: SimTime::from_millis(1_300),
            up_at: Some(SimTime::from_secs(15)),
        }],
        seed: 13,
        ..ClusterFaultPlan::default()
    })
    .expect("valid plan");

    let sampling = |ds: &Arc<Dataset>| {
        build_sampling_job(
            ds,
            ds.total_matching(),
            Policy::hadoop(),
            ScanMode::Planted,
            SampleMode::FirstK,
            31,
        )
    };

    // Job 0: dataset A, spanning the death — survives via read failover.
    let (job, driver) = sampling(&ds_a);
    let id = rt.submit(job, driver);
    rt.run_until_idle();
    assert!(!rt.job_result(id).failed, "job 0 must survive the death");

    // Job 1: dataset B after the death — its lost blocks are fatal.
    let (job, driver) = sampling(&ds_b);
    let id = rt.submit(job, driver);
    rt.run_until_idle();
    let r = rt.job_result(id);
    assert!(r.failed, "job 1 must lose input");
    assert!(matches!(r.error, Some(JobError::InputLost { .. })));

    // Job 2: dataset B again with allow_partial — degrades gracefully.
    let (mut job, driver) = sampling(&ds_b);
    job.settings.allow_partial = true;
    let id = rt.submit(job, driver);
    rt.run_until_idle();
    assert!(!rt.job_result(id).failed, "job 2 must degrade, not fail");

    let events = rt.take_trace();
    assert_replay_matches_live(&events, &rt, "fifo");
    events
}

#[test]
fn replication_trace_matches_golden_file() {
    let got: String = run().iter().map(|e| format!("{e}\n")).collect();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, &got).expect("write golden replication trace");
        return;
    }
    let want = fs::read_to_string(&path)
        .expect("tests/golden/replication_trace.txt missing — generate it with UPDATE_GOLDEN=1");
    assert_eq!(
        got, want,
        "replication trace diverged from tests/golden/replication_trace.txt; \
         if the behaviour change is intentional, regenerate with UPDATE_GOLDEN=1 \
         and review the diff"
    );
}

/// Coverage guard: the golden scenario must keep producing every
/// replication event kind — a schedule that quietly stops exercising the
/// plane would still "match" while guarding nothing.
#[test]
fn golden_schedule_exercises_every_replication_event_kind() {
    let events = run();
    assert_plane_kinds("replication", &events);
    // Both outcomes of input loss: the fatal job and the degraded one.
    for graceful in [false, true] {
        assert!(
            events.iter().any(|e| matches!(
                e.kind,
                TraceKind::InputLost { graceful: g, .. } if g == graceful
            )),
            "golden replication scenario has no InputLost with graceful={graceful}"
        );
    }
}
