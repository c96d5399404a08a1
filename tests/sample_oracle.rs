//! Sampling and scan statements checked against an independent oracle.
//!
//! Each statement runs end to end through a full-mode `Session`: the
//! compiler, `SamplingMapper`/`SamplingReducer` or `ScanMapper`, the
//! dynamic input provider and the runtime's columnar scan. The oracle is
//! each split's `SplitGenerator::full_iter()` filtered row at a time by a
//! hand-built `Predicate::eval`, with no MapReduce, no batch kernel and no
//! query compiler.

use std::sync::Arc;

use incmr::core::SampleOutcome;
use incmr::data::generator::SplitGenerator;
use incmr::data::lineitem::col;
use incmr::data::predicate::CmpOp;
use incmr::hiveql::{QueryResult, Session, Submitted};
use incmr::prelude::*;

/// The table: 8 splits of 2,000 rows whose planted `L_TAX = 0.77`
/// matches are highly skewed.
fn table(ns: &mut Namespace) -> Arc<Dataset> {
    let mut rng = DetRng::seed_from(47);
    let spec = DatasetSpec::small("lineitem", 8, 2_000, SkewLevel::High, 47);
    Arc::new(Dataset::build(
        ns,
        spec,
        &mut EvenRoundRobin::new(),
        &mut rng,
    ))
}

/// A full-mode session sampling with `mode`, and its table.
fn session(mode: SampleMode) -> (Session, Arc<Dataset>) {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let ds = table(&mut ns);
    let rt = MrRuntime::new(
        ClusterConfig::paper_single_user(),
        CostModel::paper_default(),
        ns,
        Box::new(FifoScheduler::new()),
    );
    let session = Session::builder()
        .runtime(rt)
        .table("lineitem", Arc::clone(&ds))
        .scan_mode(ScanMode::Full)
        .sample_mode(mode)
        .try_build()
        .expect("well-formed session");
    (session, ds)
}

fn cmp(column: usize, op: CmpOp, literal: Value) -> Predicate {
    Predicate::Compare {
        column,
        op,
        literal,
    }
}

/// `WHERE` clauses matching many rows, some in most splits, a few in a
/// few splits, and none, each with the same predicate built by hand.
fn predicates() -> Vec<(&'static str, Predicate)> {
    vec![
        (
            "L_QUANTITY < 25",
            cmp(col::QUANTITY, CmpOp::Lt, Value::Int(25)),
        ),
        (
            "L_QUANTITY = 7 AND L_SHIPMODE = 'AIR'",
            Predicate::And(
                Box::new(cmp(col::QUANTITY, CmpOp::Eq, Value::Int(7))),
                Box::new(cmp(col::SHIPMODE, CmpOp::Eq, Value::Str("AIR".into()))),
            ),
        ),
        ("L_TAX = 0.77", cmp(col::TAX, CmpOp::Eq, Value::Float(0.77))),
        // Quantities run 1..=50: nothing matches.
        (
            "L_QUANTITY > 1000",
            cmp(col::QUANTITY, CmpOp::Gt, Value::Int(1000)),
        ),
    ]
}

/// Each split's matches in scan order: the generator's rows filtered by
/// the scalar predicate.
fn oracle(ds: &Dataset, predicate: &Predicate) -> Vec<Vec<Record>> {
    let factory = ds.factory();
    ds.splits()
        .iter()
        .map(|plan| {
            SplitGenerator::new(&factory, plan.spec)
                .full_iter()
                .filter(|r| predicate.eval(r))
                .collect()
        })
        .collect()
}

fn run(session: &mut Session, sql: &str) -> QueryResult {
    let Submitted::Pending(handle) = session.submit(sql).expect("compiles") else {
        panic!("{sql}: a SELECT runs as a job")
    };
    let result = handle.wait(session);
    assert!(!result.failed, "{sql}");
    result
}

/// The `LIMIT` values: one row, a few, and more than the table holds.
fn limits(ds: &Dataset) -> [u64; 3] {
    let rows: u64 = ds.splits().iter().map(|p| p.spec.records).sum();
    [1, 7, rows + 1]
}

/// Split `rows` into runs, each the first rows of one split's oracle
/// matches, and return `(split, run length)` in output order. Panics if a
/// row starts no unused split's matches.
fn runs(rows: &[Record], oracle: &[Vec<Record>], k: usize, sql: &str) -> Vec<(usize, usize)> {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let mut at = 0;
    while at < rows.len() {
        let split = (0..oracle.len())
            .find(|&s| runs.iter().all(|&(u, _)| u != s) && oracle[s].first() == Some(&rows[at]))
            .unwrap_or_else(|| panic!("{sql}: row {at} starts no split's matches"));
        let len = rows[at..]
            .iter()
            .zip(oracle[split].iter().take(k))
            .take_while(|(got, want)| got == want)
            .count();
        runs.push((split, len));
        at += len;
    }
    runs
}

#[test]
fn first_k_samples_are_per_split_prefixes_of_the_oracle() {
    let (mut session, ds) = session(SampleMode::FirstK);
    let mut multi_run = 0;
    for (clause, predicate) in predicates() {
        let oracle = oracle(&ds, &predicate);
        let total: usize = oracle.iter().map(Vec::len).sum();
        for k in limits(&ds) {
            let sql = format!("SELECT * FROM lineitem WHERE {clause} LIMIT {k}");
            let result = run(&mut session, &sql);
            let (rows, k) = (&result.rows, k as usize);
            match result.outcome.expect("a sampling plan reports its outcome") {
                SampleOutcome::Full { requested } => {
                    assert_eq!(requested, k as u64, "{sql}");
                    assert_eq!(rows.len(), k.min(total), "{sql}");
                }
                // No deadline is set, so a short sample means the input
                // ran out: every split was scanned and every match kept.
                SampleOutcome::Partial { found, requested } => {
                    assert_eq!(requested, k as u64, "{sql}");
                    assert_eq!(found, rows.len() as u64, "{sql}");
                    assert_eq!(rows.len(), total, "{sql}");
                    assert!(total < k, "{sql}");
                    assert_eq!(result.splits_processed as usize, oracle.len(), "{sql}");
                }
            }
            let runs = runs(rows, &oracle, k, &sql);
            if let Some((_, head)) = runs.split_last() {
                for &(split, len) in head {
                    assert_eq!(len, k.min(oracle[split].len()), "{sql}: split {split}");
                }
            }
            multi_run += usize::from(runs.len() > 1);
        }
    }
    assert!(multi_run >= 2, "some samples span several splits");
}

#[test]
fn random_k_samples_are_distinct_oracle_matches() {
    let (mut first, _) = session(SampleMode::FirstK);
    let (mut random, ds) = session(SampleMode::RandomK { seed: 5 });
    for (clause, predicate) in predicates() {
        let matches: Vec<Record> = oracle(&ds, &predicate).concat();
        for k in limits(&ds) {
            let sql = format!("SELECT * FROM lineitem WHERE {clause} LIMIT {k}");
            let want = run(&mut first, &sql).rows.len();
            let rows = run(&mut random, &sql).rows;
            assert_eq!(rows.len(), want, "{sql}: as many rows as FirstK");
            for (i, row) in rows.iter().enumerate() {
                assert!(matches.contains(row), "{sql}: {row:?} is no match");
                assert!(!rows[..i].contains(row), "{sql}: {row:?} repeats");
            }
        }
    }
}

#[test]
fn projected_scans_return_the_oracle_matches() {
    let (mut session, ds) = session(SampleMode::FirstK);
    let projection = [col::ORDERKEY, col::SHIPMODE, col::EXTENDEDPRICE];
    for (clause, predicate) in predicates() {
        let sql =
            format!("SELECT L_ORDERKEY, L_SHIPMODE, L_EXTENDEDPRICE FROM lineitem WHERE {clause}");
        // Compared as multisets: the shuffle groups a scan's rows by key,
        // not in scan order.
        let render = |rows: Vec<Record>| {
            let mut rows: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows
        };
        let want: Vec<Record> = oracle(&ds, &predicate)
            .concat()
            .iter()
            .map(|r| r.project(&projection))
            .collect();
        let got = run(&mut session, &sql).rows;
        assert_eq!(render(got), render(want), "{sql}");
    }
}
