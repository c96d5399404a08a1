//! Golden evolve-trace regression: one fixed-seed timeline over an
//! evolving dataset — cold requery, append, warm requery, in-place
//! mutation, warm requery, then a parked standing query woken by arriving
//! data — committed to the repository line for line.
//!
//! Any change to the memoization plane (probe order, invalidation,
//! wakeup scheduling) or to the evolve path shows up here as a readable
//! diff instead of a silent drift. After an *intentional* behaviour
//! change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_evolve
//! ```
//!
//! and review the diff like any other code change.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use incmr::core::ContinuousSampling;
use incmr::prelude::*;

#[path = "support/golden_kinds.rs"]
mod golden_kinds;
#[path = "support/replay.rs"]
mod replay;
use golden_kinds::assert_plane_kinds;
use replay::assert_replay_matches_live;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/evolve_trace.txt")
}

/// A full-consumption requery: `k` equal to the dataset's total planted
/// matches under the Hadoop policy grabs every split upfront and
/// completes exactly at the target — no partial-sample tail in the trace.
fn requery(ds: &Arc<Dataset>, rt: &mut MrRuntime) -> JobId {
    let (mut job, driver) = build_sampling_job(
        ds,
        ds.total_matching(),
        Policy::hadoop(),
        ScanMode::Planted,
        SampleMode::FirstK,
        23,
    );
    // A job without a signature is not memoized. Per-split map output is
    // independent of `k`, which grows with the dataset, so the requeries
    // pin one shared semantic signature (as hiveql does for its compiled
    // queries).
    job.settings.signature = Some(7_001);
    let id = rt.submit(job, driver);
    rt.run_until_idle();
    assert!(!rt.job_result(id).failed, "golden requery must complete");
    id
}

/// The fixed-seed evolve timeline; every counter and histogram must
/// replay from it.
fn run() -> Vec<TraceEvent> {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(23);
    let mut placement = EvenRoundRobin::new();
    let spec = DatasetSpec::small("e", 10, 3_000, SkewLevel::Zero, 23);
    let ds = Arc::new(Dataset::build(&mut ns, spec, &mut placement, &mut rng));
    let mut rt = MrRuntime::new(
        ClusterConfig::paper_single_user(),
        CostModel::paper_default(),
        ns,
        Box::new(FifoScheduler::new()),
    );
    rt.enable_tracing();
    rt.enable_memoization();

    // Job 0: the cold requery — populates the memo store.
    requery(&ds, &mut rt);

    // Four fresh splits arrive; job 1 reuses the original ten and
    // computes only the arrivals.
    rt.evolve(|ns| ds.append(ns, 4, &mut placement, &mut rng));
    requery(&ds, &mut rt);

    // Three splits are rewritten in place; job 2 sees them dirty at the
    // bumped block version and recomputes exactly those.
    let splits = ds.splits();
    let rewritten: Vec<BlockId> = [0usize, 3, 7].iter().map(|&i| splits[i].block).collect();
    rt.evolve(|ns| ds.mutate(ns, &rewritten, &mut placement, &mut rng));
    requery(&ds, &mut rt);

    // Job 3: a standing query targeting one more match than the dataset
    // holds — it drains its pool, parks, and is woken by the arrival of
    // two more splits, completing with the full sample.
    let k = ds.total_matching() + 1;
    let (mut job, _) = build_sampling_job(
        &ds,
        k,
        Policy::ma(),
        ScanMode::Planted,
        SampleMode::FirstK,
        23,
    );
    job.settings.continuous = true;
    let blocks: Vec<BlockId> = ds.splits().iter().map(|p| p.block).collect();
    let total = blocks.len() as u32;
    let driver = Box::new(DynamicDriver::new(
        Box::new(ContinuousSampling::new(blocks, k, 23)),
        Policy::ma(),
        total,
    ));
    let id = rt.submit(job, driver);
    rt.run_until_idle();
    assert!(!rt.is_complete(id), "the standing query must park");
    rt.evolve(|ns| ds.append(ns, 2, &mut placement, &mut rng));
    rt.run_until_idle();
    assert!(rt.is_complete(id), "arriving data must wake the query");
    assert!(!rt.job_result(id).failed);
    assert_eq!(rt.job_result(id).output.len() as u64, k);

    let events = rt.take_trace();
    assert_replay_matches_live(&events, &rt, "fifo");
    events
}

#[test]
fn evolve_trace_matches_golden_file() {
    let got: String = run().iter().map(|e| format!("{e}\n")).collect();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, &got).expect("write golden evolve trace");
        return;
    }
    let want = fs::read_to_string(&path)
        .expect("tests/golden/evolve_trace.txt missing — generate it with UPDATE_GOLDEN=1");
    assert_eq!(
        got, want,
        "evolve trace diverged from tests/golden/evolve_trace.txt; \
         if the behaviour change is intentional, regenerate with UPDATE_GOLDEN=1 \
         and review the diff"
    );
}

/// Coverage guard: the golden timeline must keep producing every event
/// kind the incremental plane emits — split reuse, staleness, and data
/// arrival — plus the wakeup arrival that un-parks the standing query.
/// Without this the trace could quietly stop exercising the memo plane
/// while still "matching".
#[test]
fn golden_timeline_exercises_every_incremental_event_kind() {
    let events = run();
    assert_plane_kinds("evolve", &events);
    for splits in [4, 2] {
        assert!(
            events
                .iter()
                .any(|e| e.kind == TraceKind::InputArrived { splits }),
            "golden evolve timeline no longer delivers a {splits}-block arrival"
        );
    }
    let count = |f: fn(&TraceKind) -> bool| events.iter().filter(|e| f(&e.kind)).count();
    let reused = count(|k| matches!(k, TraceKind::SplitReused { .. }));
    let dirty = count(|k| matches!(k, TraceKind::SplitDirty { .. }));
    assert_eq!(
        dirty, 3,
        "job 2 must see exactly the three rewritten splits as dirty"
    );
    assert!(
        reused >= 10 + 11,
        "jobs 1 and 2 must reuse the bulk of their splits, got {reused}"
    );
}
