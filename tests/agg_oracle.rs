//! Exact aggregates checked against an independent oracle.
//!
//! Each statement runs end to end through `Session::execute`: the
//! compiler, `GroupAggMapper`/`GroupAggReducer`, the runtime and its
//! columnar scan. The oracle folds `SplitGenerator::full_iter()` row at a
//! time under a hand-built `Predicate::eval`, with no MapReduce, no batch
//! kernel and no query compiler. COUNT, MIN and MAX must match exactly;
//! SUM and AVG within 1e-9 relative, because the two sides add in
//! different orders.

use std::collections::BTreeMap;
use std::sync::Arc;

use incmr::data::generator::SplitGenerator;
use incmr::data::lineitem::col;
use incmr::data::predicate::CmpOp;
use incmr::hiveql::{AggFunc, QueryOutput, Session, Submitted};
use incmr::mapreduce::{AggOutcome, AggReport};
use incmr::prelude::*;

/// A full-mode session over an 8×2000 table, and the table itself.
fn session() -> (Session, Arc<Dataset>) {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(31);
    let spec = DatasetSpec::small("lineitem", 8, 2_000, SkewLevel::High, 31);
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
    let session = Session::builder()
        .runtime(rt)
        .table("lineitem", Arc::clone(&ds))
        .scan_mode(ScanMode::Full)
        .try_build()
        .expect("well-formed session");
    (session, ds)
}

/// The SELECT list of every statement: each function, over Int, Float
/// and Date arguments. `AGGS` is the same list, resolved by hand.
const SELECT: &str = "COUNT(*), SUM(L_EXTENDEDPRICE), AVG(L_QUANTITY), AVG(L_SHIPDATE), \
                      MIN(L_EXTENDEDPRICE), MIN(L_SHIPDATE), MAX(L_QUANTITY), MAX(L_DISCOUNT)";

const AGGS: [(AggFunc, usize); 8] = [
    (AggFunc::Count, col::ORDERKEY),
    (AggFunc::Sum, col::EXTENDEDPRICE),
    (AggFunc::Avg, col::QUANTITY),
    (AggFunc::Avg, col::SHIPDATE),
    (AggFunc::Min, col::EXTENDEDPRICE),
    (AggFunc::Min, col::SHIPDATE),
    (AggFunc::Max, col::QUANTITY),
    (AggFunc::Max, col::DISCOUNT),
];

fn cmp(column: usize, op: CmpOp, literal: Value) -> Predicate {
    Predicate::Compare {
        column,
        op,
        literal,
    }
}

/// `WHERE` clauses, each with the same predicate built by hand.
fn predicates() -> Vec<(&'static str, Predicate)> {
    vec![
        ("", Predicate::True),
        (
            "WHERE L_QUANTITY < 10",
            cmp(col::QUANTITY, CmpOp::Lt, Value::Int(10)),
        ),
        (
            "WHERE L_SHIPMODE = 'AIR' OR L_DISCOUNT > 0.08",
            Predicate::Or(
                Box::new(cmp(col::SHIPMODE, CmpOp::Eq, Value::Str("AIR".into()))),
                Box::new(cmp(col::DISCOUNT, CmpOp::Gt, Value::Float(0.08))),
            ),
        ),
        (
            "WHERE L_SHIPDATE BETWEEN 100 AND 400",
            Predicate::Between {
                column: col::SHIPDATE,
                low: Value::Date(100),
                high: Value::Date(400),
            },
        ),
        // Quantities run 1..=50: nothing matches.
        (
            "WHERE L_QUANTITY > 1000",
            cmp(col::QUANTITY, CmpOp::Gt, Value::Int(1000)),
        ),
    ]
}

/// `GROUP BY` clauses: none, then a Str, an Int and a Date column.
const GROUPINGS: [Option<(&str, usize)>; 4] = [
    None,
    Some(("L_RETURNFLAG", col::RETURNFLAG)),
    Some(("L_LINENUMBER", col::LINENUMBER)),
    Some(("L_SHIPDATE", col::SHIPDATE)),
];

fn number(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        Value::Date(d) => f64::from(*d),
        Value::Str(s) => panic!("not a number: {s}"),
    }
}

fn render(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Date(d) => d.to_string(),
    }
}

/// The oracle: the matching rows of `table` per rendered group value (the
/// empty string for no group, which exists even when nothing matches),
/// each group's aggregates computed over its rows directly.
fn oracle(
    table: &[Record],
    predicate: &Predicate,
    group: Option<usize>,
) -> BTreeMap<String, Vec<Value>> {
    let mut groups: BTreeMap<String, Vec<&Record>> = BTreeMap::new();
    if group.is_none() {
        groups.insert(String::new(), Vec::new());
    }
    for record in table.iter().filter(|r| predicate.eval(r)) {
        let key = group.map_or_else(String::new, |g| render(record.get(g)));
        groups.entry(key).or_default().push(record);
    }
    groups
        .into_iter()
        .map(|(key, rows)| {
            let n = rows.len();
            let row = AGGS
                .iter()
                .map(|&(func, column)| {
                    let values = rows.iter().map(|r| number(r.get(column)));
                    Value::Float(match func {
                        AggFunc::Count => return Value::Int(n as i64),
                        _ if n == 0 => 0.0,
                        AggFunc::Sum => values.sum(),
                        AggFunc::Avg => values.sum::<f64>() / n as f64,
                        AggFunc::Min => {
                            values.fold(f64::INFINITY, |m, v| if v < m { v } else { m })
                        }
                        AggFunc::Max => {
                            values.fold(f64::NEG_INFINITY, |m, v| if v > m { v } else { m })
                        }
                    })
                })
                .collect();
            (key, row)
        })
        .collect()
}

fn rows_of(session: &mut Session, sql: &str) -> Vec<Record> {
    match session.execute(sql) {
        Ok(QueryOutput::Rows { rows, .. }) => rows,
        other => panic!("{sql}: {other:?}"),
    }
}

#[test]
fn exact_aggregates_match_a_row_at_a_time_oracle() {
    let (mut session, ds) = session();
    let factory = ds.factory();
    let table: Vec<Record> = ds
        .splits()
        .iter()
        .flat_map(|plan| {
            SplitGenerator::new(&factory, plan.spec)
                .full_iter()
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(table.len(), 16_000);
    for (clause, predicate) in predicates() {
        for grouping in GROUPINGS {
            let group_clause =
                grouping.map_or(String::new(), |(name, _)| format!("GROUP BY {name}"));
            let sql = format!("SELECT {SELECT} FROM lineitem {clause} {group_clause}");
            let want = oracle(&table, &predicate, grouping.map(|(_, c)| c));
            // Grouped rows lead with the group value; whole-table rows
            // carry the aggregates only.
            let rows = rows_of(&mut session, &sql);
            assert_eq!(rows.len(), want.len(), "{sql}: one row per group");
            let got: BTreeMap<String, Vec<Value>> = rows
                .into_iter()
                .map(|row| {
                    let mut values = row.values().to_vec();
                    let key = match grouping {
                        Some(_) => match values.remove(0) {
                            Value::Str(key) => key,
                            other => panic!("{sql}: group value {other:?}"),
                        },
                        None => String::new(),
                    };
                    (key, values)
                })
                .collect();
            assert_eq!(
                got.keys().collect::<Vec<_>>(),
                want.keys().collect::<Vec<_>>(),
                "{sql}"
            );
            for ((key, got), want) in got.iter().zip(want.values()) {
                assert_eq!(got.len(), AGGS.len(), "{sql}: {got:?}");
                for ((got, want), (func, _)) in got.iter().zip(want).zip(AGGS) {
                    match (func, got, want) {
                        (AggFunc::Sum | AggFunc::Avg, Value::Float(g), Value::Float(w)) => {
                            assert!(
                                (g - w).abs() <= 1e-9 * w.abs(),
                                "{sql}, group {key:?}, {func:?}: got {g}, oracle {w}"
                            );
                        }
                        _ => assert_eq!(got, want, "{sql}, group {key:?}, {func:?}"),
                    }
                }
            }
        }
    }
}

/// A whole-table statement that matches nothing returns one zero row,
/// exact or error-bounded alike. Both report an exact finish over every
/// split; the estimator of the bounded run observed no group, and the
/// exact run counts its one output row.
#[test]
fn zero_match_whole_table_returns_one_zero_row() {
    let (mut session, _) = session();
    let sql = "SELECT COUNT(*), SUM(L_QUANTITY) FROM lineitem WHERE L_QUANTITY > 1000";
    for (sql, groups) in [(sql.to_string(), 1), (format!("{sql} WITH ERROR 0.1"), 0)] {
        let Submitted::Pending(handle) = session.submit(&sql).expect("compiles") else {
            panic!("{sql}: aggregates run as jobs")
        };
        let result = handle.wait(&mut session);
        assert!(!result.failed, "{sql}");
        let rows: Vec<&[Value]> = result.rows.iter().map(|r| r.values()).collect();
        assert_eq!(rows, vec![&[Value::Int(0), Value::Float(0.0)][..]], "{sql}");
        let exact = AggReport {
            outcome: AggOutcome::Exact,
            completed: 8,
            total: 8,
            groups,
            worst_rel: 0.0,
        };
        assert_eq!(result.agg, Some(exact), "{sql}");
    }
}
