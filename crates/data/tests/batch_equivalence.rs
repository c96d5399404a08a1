//! Property tests pinning the columnar path to the row path.
//!
//! Two families of invariants:
//!
//! 1. **Predicate equivalence** — for arbitrary batches (including NaN
//!    floats and type-mismatched literals, and lengths either side of the
//!    kernel's chunk boundaries), arbitrary predicate trees and arbitrary
//!    limits, `Predicate::select` selects exactly the first `limit` rows
//!    the scalar `Predicate::eval` accepts.
//! 2. **Generation equivalence** — for arbitrary split specs and every
//!    sentinel kind, `SplitGenerator::full_batch` / `planted_batch` equal
//!    the batches `RecordBatch::from_records` builds from `full_iter` /
//!    `planted_matches`, dictionary order included, i.e. the columnar
//!    generator consumes the RNG streams identically.
//! 3. **Boundary kernels** — for arbitrary batches, selections and
//!    projections, the row kernel builds exactly the projected input rows
//!    and the width kernel counts exactly their bytes.

use std::sync::Arc;

use proptest::prelude::*;

use incmr_data::batch::{BatchSelection, RecordBatch};
use incmr_data::generator::{RecordFactory, SplitGenerator, SplitSpec};
use incmr_data::lineitem::{col, LineItemFactory};
use incmr_data::predicate::{CmpOp, Predicate, SELECT_CHUNK};
use incmr_data::schema::{ColumnType, Schema};
use incmr_data::value::{Record, Value};

/// Test schema: one column of each type.
fn schema() -> Schema {
    Schema::new(vec![
        ("q", ColumnType::Int),
        ("p", ColumnType::Float),
        ("m", ColumnType::Str),
        ("d", ColumnType::Date),
    ])
}

/// String values, including one whose bytes outnumber its characters:
/// widths count bytes.
const MODES: [&str; 5] = ["AIR", "SHIP", "RAIL", "", "FLÜG✈"];

/// One row of the test schema. Floats include NaN and infinities.
fn arb_row() -> impl Strategy<Value = (i64, f64, usize, u32)> {
    (
        -5i64..5,
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0f64),
            -2.0f64..2.0,
        ],
        0usize..MODES.len(),
        0u32..8,
    )
}

/// Batch lengths that put the selection kernel's chunk boundaries under
/// test: short batches, one row either side of a chunk, and several
/// chunks.
fn arb_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..80,
        Just(0),
        Just(1),
        Just(SELECT_CHUNK - 1),
        Just(SELECT_CHUNK),
        Just(SELECT_CHUNK + 1),
        2 * SELECT_CHUNK..4 * SELECT_CHUNK + 2,
    ]
}

/// Limits for `Predicate::select`: none kept, one, any count up to two
/// chunks' worth, or unbounded.
fn arb_limit() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0),
        Just(1),
        0usize..2 * SELECT_CHUNK + 2,
        Just(usize::MAX),
    ]
}

fn to_batch(rows: &[(i64, f64, usize, u32)]) -> (RecordBatch, Vec<Record>) {
    let records: Vec<Record> = rows
        .iter()
        .map(|&(q, p, m, d)| {
            Record::new(vec![
                Value::Int(q),
                Value::Float(p),
                Value::Str(MODES[m].to_string()),
                Value::Date(d),
            ])
        })
        .collect();
    (RecordBatch::from_records(&schema(), &records), records)
}

/// Literals of every type, deliberately including values that mismatch
/// whichever column they get compared against.
fn arb_literal() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-5i64..5).prop_map(Value::Int),
        prop_oneof![Just(f64::NAN), -2.0f64..2.0].prop_map(Value::Float),
        (0usize..MODES.len()).prop_map(|i| Value::Str(MODES[i].to_string())),
        (0u32..8).prop_map(Value::Date),
    ]
}

fn arb_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

/// Arbitrary predicate trees over the test schema, up to depth 3.
fn arb_predicate() -> impl Strategy<Value = Predicate> {
    let leaf = prop_oneof![
        Just(Predicate::True),
        (0usize..4, arb_op(), arb_literal()).prop_map(|(column, op, literal)| {
            Predicate::Compare {
                column,
                op,
                literal,
            }
        }),
        (0usize..4, arb_literal(), arb_literal())
            .prop_map(|(column, low, high)| { Predicate::Between { column, low, high } }),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Predicate::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Predicate::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|a| Predicate::Not(Box::new(a))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The selection kernel selects exactly the first `limit` rows scalar
    /// evaluation accepts, for arbitrary batches, predicate trees and
    /// limits.
    #[test]
    fn select_equals_per_record_eval(
        rows in arb_len().prop_flat_map(|n| proptest::collection::vec(arb_row(), n)),
        pred in arb_predicate(),
        limit in arb_limit(),
    ) {
        let (batch, records) = to_batch(&rows);
        let expect: Vec<u32> = records
            .iter()
            .enumerate()
            .filter_map(|(i, r)| pred.eval(r).then_some(i as u32))
            .collect();
        let first = &expect[..limit.min(expect.len())];
        prop_assert_eq!(pred.select(&batch, limit), first.to_vec());
        prop_assert_eq!(pred.eval_batch_scalar(&batch), expect);
    }

    /// Batch materialisation round-trips rows byte-for-byte, and the row
    /// and width kernels agree with the input rows under any ascending
    /// selection and any projection: empty (every column), a subset, or
    /// one that repeats a column.
    #[test]
    fn batch_roundtrips_records(
        rows in proptest::collection::vec(arb_row(), 0..60),
        keep in proptest::collection::vec(any::<bool>(), 60),
        projection in prop_oneof![
            Just(Vec::new()),
            proptest::collection::vec(any::<bool>(), 4).prop_map(|cols| {
                (0..4).filter(|&c| cols[c]).collect::<Vec<usize>>()
            }),
            proptest::collection::vec(0usize..4, 1..5).prop_map(|mut cols| {
                cols.push(cols[0]);
                cols
            }),
        ],
    ) {
        let (batch, records) = to_batch(&rows);
        prop_assert_eq!(bits(&batch.to_records()), bits(&records));

        let sel: Vec<u32> = (0..records.len() as u32).filter(|&r| keep[r as usize]).collect();
        let columns: Vec<usize> = if projection.is_empty() {
            (0..schema().arity()).collect()
        } else {
            projection.clone()
        };
        let expect: Vec<Record> = sel
            .iter()
            .map(|&r| records[r as usize].project(&columns))
            .collect();
        let rows = BatchSelection::new(Arc::new(batch), sel, projection.into());
        let built: Vec<Record> = rows.iter_records().collect();
        prop_assert_eq!(bits(&built), bits(&expect));
        prop_assert!(built.iter().all(|r| r.values().len() == columns.len()));
        prop_assert_eq!(rows.total_width(), expect.iter().map(Record::width).sum::<u64>());
    }

    /// Columnar split generation consumes the RNG streams exactly as the
    /// row path does: full scans agree byte-for-byte, and so do whole
    /// batches, whose dictionaries `to_records` cannot see...
    #[test]
    fn full_batch_equals_full_iter(
        records in 1u64..600,
        frac in 0.0f64..1.0,
        seed in any::<u64>(),
        sentinel in 0usize..4,
    ) {
        let factory = sentinel_factory(sentinel);
        let matching = (records as f64 * frac) as u64;
        let g = SplitGenerator::new(&factory, SplitSpec::new(records, matching, seed));
        let rows: Vec<Record> = g.full_iter().collect();
        let batch = g.full_batch();
        prop_assert_eq!(batch.to_records(), rows.clone());
        prop_assert_eq!(batch, RecordBatch::from_records(&factory.schema(), &rows));
    }

    /// ...and so do planted scans, with `select` recovering exactly
    /// the planted positions from the full batch.
    #[test]
    fn planted_batch_and_selection_agree(
        records in 1u64..600,
        frac in 0.0f64..1.0,
        seed in any::<u64>(),
        sentinel in 0usize..4,
    ) {
        let factory = sentinel_factory(sentinel);
        let matching = (records as f64 * frac) as u64;
        let g = SplitGenerator::new(&factory, SplitSpec::new(records, matching, seed));
        let planted = g.planted_matches();
        let batch = g.planted_batch();
        prop_assert_eq!(batch.to_records(), planted.clone());
        prop_assert_eq!(batch, RecordBatch::from_records(&factory.schema(), &planted));
        let sel = factory.predicate().select(&g.full_batch(), usize::MAX);
        let expect: Vec<u32> = g.matching_positions().iter().map(|&p| p as u32).collect();
        prop_assert_eq!(sel, expect);
    }
}

/// Rows as comparable, type-tagged keys: floats by bit pattern, because
/// NaN != NaN under `Value`'s `PartialEq`, and strings by content.
fn bits(rows: &[Record]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            r.values()
                .iter()
                .map(|v| match v {
                    Value::Int(i) => format!("i{i}"),
                    Value::Float(f) => format!("f{:016x}", f.to_bits()),
                    Value::Date(d) => format!("d{d}"),
                    Value::Str(s) => format!("s{s}"),
                })
                .collect()
        })
        .collect()
}

fn sentinel_factory(which: usize) -> LineItemFactory {
    match which {
        0 => LineItemFactory::new(col::QUANTITY, Value::Int(200)),
        1 => LineItemFactory::new(col::DISCOUNT, Value::Float(0.99)),
        2 => LineItemFactory::new(col::TAX, Value::Float(0.77)),
        _ => LineItemFactory::new(col::SHIPMODE, Value::Str("WARP".into())),
    }
}
