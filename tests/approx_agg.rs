//! Statistical-correctness suite for error-bounded approximate
//! aggregation (EARL-style early results).
//!
//! 1. **Coverage** — across ≥30 seeded datasets, the scaled estimate of
//!    every (group, aggregate) lands within the requested relative error
//!    for at least the requested confidence fraction of runs.
//! 2. **Determinism** — an estimating run is byte-identical at 1, 4, and
//!    8 data-plane threads, and under a PR-3 fault schedule.
//! 3. **Incrementality** — a warm re-run of a bound-met job replays map
//!    output from the memo store and stays byte-identical to the cold
//!    run.

use std::sync::Arc;

use incmr::hiveql::{QueryOutput, Session, Submitted};
use incmr::mapreduce::{AggOutcome, AggReport, ClusterFaultPlan, Parallelism};
use incmr::prelude::*;
use incmr_data::Value;

const ERROR: f64 = 0.05;
const CONFIDENCE: f64 = 0.95;

/// Build a session over a fresh world. `threads` sets data-plane
/// parallelism; `memo` arms the memoization plane.
fn session_over(
    skew: SkewLevel,
    seed: u64,
    threads: u32,
    memo: bool,
    faults: Option<ClusterFaultPlan>,
) -> Session {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(seed);
    let mut spec = DatasetSpec::small("lineitem", 32, 1_000, skew, seed);
    // Well-populated groups: far above the paper's 0.05% selectivity.
    spec.selectivity = 0.05;
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
    if memo {
        rt.enable_memoization();
    }
    if let Some(plan) = faults {
        rt.inject_cluster_faults(plan).expect("valid fault plan");
    }
    Session::builder()
        .runtime(rt)
        .table("lineitem", ds)
        .scan_mode(ScanMode::Full)
        .try_build()
        .expect("session")
}

const TRUTH_SQL: &str =
    "SELECT SUM(L_QUANTITY), COUNT(*), AVG(L_EXTENDEDPRICE) FROM lineitem GROUP BY L_RETURNFLAG";

fn estimate_sql() -> String {
    format!("{TRUTH_SQL} WITH ERROR {ERROR} CONFIDENCE {CONFIDENCE}")
}

/// Group key → (sum, count, avg) from a grouped three-aggregate result.
fn by_group(rows: &[incmr_data::Record]) -> Vec<(String, f64, f64, f64)> {
    rows.iter()
        .map(|row| {
            let Value::Str(g) = row.get(0) else {
                panic!("grouped rows lead with the group value: {row:?}")
            };
            let Value::Float(sum) = row.get(1) else {
                panic!("SUM is a float: {row:?}")
            };
            let Value::Int(n) = row.get(2) else {
                panic!("COUNT is an integer: {row:?}")
            };
            let Value::Float(avg) = row.get(3) else {
                panic!("AVG is a float: {row:?}")
            };
            (g.clone(), *sum, *n as f64, *avg)
        })
        .collect()
}

/// Run truth + estimate on one seeded world; returns per-(group, agg)
/// relative errors and the estimator's report.
fn one_run(seed: u64) -> (Vec<f64>, AggReport, u32, u32) {
    let skew = SkewLevel::all()[(seed % 3) as usize];
    let mut s = session_over(skew, seed, 1, false, None);
    let QueryOutput::Rows { rows: truth, .. } = s.execute(TRUTH_SQL).expect("exact plan") else {
        panic!("exact plan must return rows")
    };
    let Submitted::Pending(handle) = s.submit(&estimate_sql()).expect("estimating plan") else {
        panic!("estimating plan must submit")
    };
    let result = handle.wait(&mut s);
    assert!(!result.failed, "seed {seed}: estimating job failed");
    let report = result.agg.expect("estimating plans attach a report");

    let t = by_group(&truth);
    let e = by_group(&result.rows);
    assert_eq!(
        t.iter().map(|(g, ..)| g).collect::<Vec<_>>(),
        e.iter().map(|(g, ..)| g).collect::<Vec<_>>(),
        "seed {seed}: estimate must cover the same groups in the same order"
    );
    let mut errs = Vec::new();
    for ((_, ts, tn, ta), (_, es, en, ea)) in t.iter().zip(e.iter()) {
        for (truth_v, est_v) in [(ts, es), (tn, en), (ta, ea)] {
            assert!(*truth_v != 0.0, "seed {seed}: degenerate ground truth");
            errs.push((est_v - truth_v).abs() / truth_v.abs());
        }
    }
    (errs, report, result.splits_processed, 32)
}

#[test]
fn coverage_holds_across_thirty_seeded_datasets() {
    let mut within = 0u32;
    let mut total = 0u32;
    let mut early_stops = 0u32;
    let mut runs = 0u32;
    for seed in 0..30u64 {
        let (errs, report, splits, total_splits) = one_run(seed);
        // Only bound-met finishes promise the bound; exact finishes are
        // trivially covered. Neither class may be silently absent.
        match report.outcome {
            AggOutcome::BoundMet | AggOutcome::Exact => {}
            AggOutcome::BudgetExhausted => panic!(
                "seed {seed}: uniform group totals must resolve within the \
                 default round budget, got {report:?}"
            ),
        }
        if splits < total_splits {
            early_stops += 1;
        }
        for err in errs {
            total += 1;
            if err <= ERROR {
                within += 1;
            }
        }
        runs += 1;
    }
    let coverage = within as f64 / total as f64;
    assert!(
        coverage >= CONFIDENCE,
        "{within}/{total} (group, aggregate) estimates within e={ERROR}: \
         coverage {coverage:.3} < c={CONFIDENCE}"
    );
    assert!(
        early_stops * 2 > runs,
        "early stopping must be the norm on uniform group totals: \
         only {early_stops}/{runs} runs stopped before the full scan"
    );
}

/// Everything observable about one estimating run, rendered to bytes.
fn run_fingerprint(threads: u32, faults: Option<ClusterFaultPlan>) -> (String, AggReport, u32) {
    let mut s = session_over(SkewLevel::Moderate, 77, threads, false, faults);
    let Submitted::Pending(handle) = s.submit(&estimate_sql()).expect("plan") else {
        panic!()
    };
    let result = handle.wait(&mut s);
    assert!(!result.failed);
    (
        format!("{:?}", result.rows),
        result.agg.expect("report"),
        result.splits_processed,
    )
}

#[test]
fn estimating_runs_are_byte_identical_across_data_plane_threads() {
    let baseline = run_fingerprint(1, None);
    for threads in [4, 8] {
        let run = run_fingerprint(threads, None);
        assert_eq!(
            baseline, run,
            "estimating run diverged at {threads} data-plane threads"
        );
    }
}

#[test]
fn fault_schedules_do_not_change_estimating_output() {
    let clean = run_fingerprint(1, None);
    for fault_seed in [11, 12, 13] {
        let faulted = run_fingerprint(
            4,
            Some(ClusterFaultPlan {
                map_fault_probability: 0.3,
                max_attempts: 10,
                seed: fault_seed,
                ..ClusterFaultPlan::default()
            }),
        );
        assert_eq!(
            clean, faulted,
            "fault schedule {fault_seed} leaked into the estimate"
        );
    }
}

#[test]
fn warm_rerun_of_a_bound_met_job_is_byte_identical_to_cold() {
    let mut s = session_over(SkewLevel::Moderate, 55, 1, true, None);
    let run = |s: &mut Session| {
        // Pin the session's per-query seed so both submissions draw the
        // same split sequence — the memo identity requires it.
        s.state_mut().set_seed(9);
        let Submitted::Pending(handle) = s.submit(&estimate_sql()).expect("plan") else {
            panic!()
        };
        let result = handle.wait(s);
        assert!(!result.failed);
        let report = result.agg.expect("report");
        assert!(
            matches!(report.outcome, AggOutcome::BoundMet),
            "this configuration meets its bound early: {report:?}"
        );
        (
            format!("{:?}", result.rows),
            report,
            result.splits_processed,
        )
    };
    let cold = run(&mut s);
    let reused_before = s.runtime().metrics().memo().splits_reused;
    let warm = run(&mut s);
    let reused = s.runtime().metrics().memo().splits_reused - reused_before;
    assert_eq!(cold, warm, "warm re-run diverged from the cold run");
    assert_eq!(
        reused,
        u64::from(cold.2),
        "every split of the warm run must replay from the memo store"
    );
}
