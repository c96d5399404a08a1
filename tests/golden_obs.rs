//! Golden observability report: one fixed-seed *dynamic sampling* job
//! under the eventful cluster-fault schedule produces one exact swimlane
//! timeline, provider-decision audit log, and histogram snapshot,
//! committed to the repository — and the whole report is byte-identical
//! at 1, 4, and 8 data-plane threads.
//!
//! After an *intentional* behaviour change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_obs
//! ```
//!
//! and review the diff like any other code change.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use incmr::mapreduce::{ClusterFaultPlan, NodeOutage, SpeculationConfig};
use incmr::prelude::*;

#[path = "support/replay.rs"]
mod replay;
use replay::assert_replay_matches_live;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/obs_timeline.txt")
}

/// The same schedule the fault-plane golden trace pins (node death and
/// rejoin, a 0.3× straggler, frequent map faults, flaky reduces), so the
/// observability report covers retries, speculation, and blacklisting.
fn eventful_plan() -> ClusterFaultPlan {
    ClusterFaultPlan {
        outages: vec![NodeOutage {
            node: NodeId(5),
            down_at: SimTime::from_secs(10),
            up_at: Some(SimTime::from_secs(25)),
        }],
        node_speed: vec![1.0, 1.0, 0.3],
        map_fault_probability: 0.18,
        reduce_fault_probability: 0.7,
        max_attempts: 8,
        speculation: Some(SpeculationConfig::default()),
        blacklist_threshold: Some(2),
        seed: 9,
    }
}

struct GoldenRun {
    report: String,
    audited_splits: u32,
    trace_splits_added: u32,
    splits_processed: u32,
}

/// One dynamic sampling job whose `k` exceeds the planted matches: the
/// provider walks the entire 48-split pool incrementally (many audited
/// evaluations) and the job completes with a partial sample.
fn render_run_at(threads: u32) -> GoldenRun {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(17);
    let spec = DatasetSpec::small("t", 48, 200_000, SkewLevel::Moderate, 17);
    let ds = Arc::new(Dataset::build(
        &mut ns,
        spec,
        &mut EvenRoundRobin::new(),
        &mut rng,
    ));
    let total_matches = ds.total_matching();
    let mut rt = MrRuntime::new(
        ClusterConfig::paper_single_user().with_parallelism(Parallelism::threads(threads)),
        CostModel::paper_default(),
        ns,
        Box::new(FifoScheduler::new()),
    );
    rt.enable_tracing();
    rt.enable_audit();
    rt.inject_cluster_faults(eventful_plan())
        .expect("valid plan");
    let (job, driver) = incmr::core::build_sampling_job(
        &ds,
        total_matches + 1_000, // unreachable k: the pool must exhaust
        Policy::ma(),
        ScanMode::Planted,
        SampleMode::FirstK,
        17,
    );
    let id = rt.submit(job, driver);
    rt.run_until_idle();
    let (failed, output_len, splits_processed) = {
        let result = rt.job_result(id);
        (result.failed, result.output.len(), result.splits_processed)
    };
    assert!(!failed, "the golden run must complete");
    assert!(
        (output_len as u64) < total_matches + 1_000,
        "the golden run must end as a partial sample"
    );

    let events = rt.take_trace();
    assert_replay_matches_live(&events, &rt, "fifo");
    let audit = rt.audit_log();
    let report = format!(
        "{}\nPROVIDER DECISIONS ({} evaluations)\n{}\n{}",
        render_swimlanes(&events, 64),
        audit.len(),
        render_audit(audit),
        rt.histograms().render(),
    );
    let trace_splits_added = events
        .iter()
        .map(|e| match e.kind {
            TraceKind::InputAdded { splits, .. } => splits,
            _ => 0,
        })
        .sum();
    GoldenRun {
        report,
        audited_splits: audited_splits_added(audit, id),
        trace_splits_added,
        splits_processed,
    }
}

#[test]
fn obs_report_matches_golden_file_at_every_thread_count() {
    let runs: Vec<GoldenRun> = [1u32, 4, 8].iter().map(|&t| render_run_at(t)).collect();
    for (run, threads) in runs.iter().zip([1, 4, 8]).skip(1) {
        assert_eq!(
            runs[0].report, run.report,
            "observability report differs at {threads} data-plane threads"
        );
    }
    let got = &runs[0].report;
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, got).expect("write golden obs report");
        return;
    }
    let want = fs::read_to_string(&path)
        .expect("tests/golden/obs_timeline.txt missing — generate it with UPDATE_GOLDEN=1");
    assert_eq!(
        got, &want,
        "observability report diverged from tests/golden/obs_timeline.txt; \
         if the behaviour change is intentional, regenerate with UPDATE_GOLDEN=1 \
         and review the diff"
    );
}

/// The audit log is the job's growth history: splits granted per
/// evaluation must sum to exactly what the runtime added (trace view) and
/// processed (result view). A drift here means the audit lies.
#[test]
fn audited_splits_match_runtime_progress_exactly() {
    let run = render_run_at(1);
    assert!(run.audited_splits > 0);
    assert_eq!(run.audited_splits, run.trace_splits_added);
    assert_eq!(run.audited_splits, run.splits_processed);
}

/// Coverage guard: the golden scenario must keep populating every
/// histogram family and every audit-line field — a "matching" golden file
/// that lost its coverage would guard nothing.
#[test]
fn golden_report_covers_every_family_and_audit_field() {
    let got = render_run_at(1).report;
    for family in [
        "map_attempt_ms",
        "shuffle_merge_ms",
        "reduce_ms",
        "provider_eval_interval_ms",
        "queue_wait_ms[fifo]",
        "split_wait_ms",
    ] {
        assert!(got.contains(family), "family {family} missing from report");
        assert!(
            !got.contains(&format!("{family}: count=0")),
            "family {family} recorded nothing"
        );
    }
    for field in [
        "stage=",
        "added=",
        "completed=",
        "running=",
        "pending=",
        "records=",
        "matches=",
        "slots=",
        "busy=",
        "jobs=",
        "queued=",
        "grab_limit=",
        "directive=",
        "requested=",
        "granted=",
        "clamped=",
        "dups=",
        "retried=",
    ] {
        assert!(
            got.contains(field),
            "audit field {field} missing from report"
        );
    }
    // Both provider stages appear: the submission-time initial grab and
    // the periodic evaluations.
    assert!(got.contains("initial_input") || got.contains("InitialInput"));
    assert!(got.contains("evaluate") || got.contains("Evaluate"));
}
