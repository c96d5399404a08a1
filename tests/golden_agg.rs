//! Golden-trace regression for the error-bounded aggregation plane:
//! one fixed-seed grow–probe–stop timeline, committed to the repository.
//!
//! The scenario runs two estimating jobs on one traced runtime:
//!
//! * a **bulk** `SUM/COUNT … GROUP BY` whose uniform per-split totals let
//!   the CLT bound resolve early — the trace ends in a `bound met` event
//!   and the job classifies `BoundMet`;
//! * a **budget-starved** run (`SET mapred.agg.rounds = 1`) over a
//!   Zipf-placed predicate whose split-total variance cannot resolve in
//!   one growth round — the probes never report `(met)` and the job
//!   classifies `BudgetExhausted` (there is deliberately no trace event
//!   for exhaustion: the classification lives in the job's report).
//!
//! Any change to the growth schedule, the probe cadence, or the
//! estimator's stopping rule shows up here as a readable diff. After an
//! *intentional* behaviour change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_agg
//! ```
//!
//! and review the diff like any other code change.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use incmr::hiveql::{Session, Submitted};
use incmr::mapreduce::{AggOutcome, AggReport};
use incmr::prelude::*;
use incmr_data::queries::PaperPredicate;

#[path = "support/golden_kinds.rs"]
mod golden_kinds;
#[path = "support/replay.rs"]
mod replay;
use golden_kinds::assert_plane_kinds;
use replay::assert_replay_matches_live;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/agg_trace.txt")
}

fn session_over(skew: SkewLevel, seed: u64) -> Session {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(seed);
    let mut spec = DatasetSpec::small("lineitem", 24, 1_000, skew, seed);
    // Well-populated groups: far above the paper's 0.05% selectivity.
    spec.selectivity = 0.05;
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
    Session::builder()
        .runtime(rt)
        .table("lineitem", ds)
        .scan_mode(ScanMode::Full)
        .try_build()
        .expect("golden session")
}

fn submit_and_wait(s: &mut Session, sql: &str) -> AggReport {
    let Submitted::Pending(handle) = s.submit(sql).expect("estimating plan") else {
        panic!("estimating plan must submit a job: {sql}")
    };
    let result = handle.wait(s);
    assert!(!result.failed, "golden run failed: {sql}");
    result.agg.expect("estimating plans attach a report")
}

/// One traced session, two estimating jobs: a bound-met finish and a
/// budget-exhausted one. Every counter and histogram must replay from the
/// trace.
fn run() -> Vec<TraceEvent> {
    let mut s = session_over(SkewLevel::High, 41);
    s.runtime_mut().enable_tracing();

    // Job 0: bulk group totals are near-uniform across splits — the
    // stopping rule fires well before the full scan.
    let met = submit_and_wait(
        &mut s,
        "SELECT SUM(L_QUANTITY), COUNT(*) FROM lineitem GROUP BY L_RETURNFLAG \
         WITH ERROR 0.05 CONFIDENCE 0.95",
    );
    assert!(
        matches!(met.outcome, AggOutcome::BoundMet),
        "the golden bulk run must classify BoundMet: {met:?}"
    );
    assert!(
        met.completed < met.total,
        "the golden bulk run must stop early: {met:?}"
    );

    // Job 1: one growth round against Zipf-placed matches cannot resolve
    // a 5% bound — the budget runs dry first.
    s.execute("SET mapred.agg.rounds = 1").expect("SET rounds");
    let starved = submit_and_wait(
        &mut s,
        &format!(
            "SELECT SUM(L_QUANTITY) FROM lineitem WHERE {} GROUP BY L_RETURNFLAG \
             WITH ERROR 0.05 CONFIDENCE 0.95",
            PaperPredicate::for_skew(SkewLevel::High).sql
        ),
    );
    assert!(
        matches!(starved.outcome, AggOutcome::BudgetExhausted),
        "the golden starved run must classify BudgetExhausted: {starved:?}"
    );

    let events = s.runtime_mut().take_trace();
    assert_replay_matches_live(&events, s.runtime(), "fifo");
    events
}

#[test]
fn agg_trace_matches_golden_file() {
    let got: String = run().iter().map(|e| format!("{e}\n")).collect();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, &got).expect("write agg golden trace");
        return;
    }
    let want = fs::read_to_string(&path)
        .expect("tests/golden/agg_trace.txt missing — generate it with UPDATE_GOLDEN=1");
    assert_eq!(
        got, want,
        "error-bound trace diverged from tests/golden/agg_trace.txt; \
         if the behaviour change is intentional, regenerate with UPDATE_GOLDEN=1 \
         and review the diff"
    );
}

/// The golden scenario must keep exercising the whole grow–probe–stop
/// cycle: if a future change quietly stops probing (or stops meeting the
/// bound), the trace would still "match" while guarding nothing.
#[test]
fn golden_schedule_exercises_every_agg_event_kind() {
    let events = run();
    assert_plane_kinds("agg", &events);
    // The starved job probes without ever meeting the bound: both probe
    // outcomes must appear.
    for met in [false, true] {
        assert!(
            events.iter().any(|e| matches!(
                e.kind,
                TraceKind::ErrorBoundProbe { bound_met, .. } if bound_met == met
            )),
            "golden agg schedule has no probe with bound_met={met}"
        );
    }
}
