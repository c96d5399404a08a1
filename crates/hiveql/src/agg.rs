//! Aggregate execution: `SELECT COUNT(*)/SUM/AVG/MIN/MAX … FROM t WHERE p
//! [GROUP BY g]` as one MapReduce job.
//!
//! Each map task emits **one partial per group per split**, in the wire
//! format `incmr_mapreduce::encode_group_part` defines (`[Int n, Float
//! acc_0, …]`); the single reducer merges each group's partials and emits
//! one row per group. Without `GROUP BY` the one group is [`AGG_KEY`],
//! and its partial is emitted on every split, even one where nothing
//! matched, so a whole-table statement always returns one row. Exact and
//! error-bounded plans run the same pair; under a bound the runtime's
//! estimator also folds the parts (see `DESIGN.md` §15.2).
//!
//! Zero-match semantics (this subset has no NULL): `COUNT` and `SUM`
//! produce 0 / 0.0; `AVG`, `MIN`, and `MAX` produce 0.0.

use std::collections::{BTreeMap, HashMap};

use incmr_data::{ColumnData, Predicate, Record, RecordBatch, Value};
use incmr_mapreduce::{
    decode_group_part, encode_group_part, Key, MapResult, Mapper, Reducer, SplitData,
};

use crate::ast::AggFunc;

/// Key shared by all partial-aggregate map outputs.
pub const AGG_KEY: &str = "__agg__";

/// A resolved aggregate: function plus column index (`None` = `COUNT(*)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedAgg {
    /// The function.
    pub func: AggFunc,
    /// Resolved argument column.
    pub column: Option<usize>,
}

/// The accumulator of `func` before any value is folded in.
fn identity(func: AggFunc) -> f64 {
    match func {
        AggFunc::Min => f64::INFINITY,
        AggFunc::Max => f64::NEG_INFINITY,
        AggFunc::Count | AggFunc::Sum | AggFunc::Avg => 0.0,
    }
}

/// Fold `v` into an accumulator of `func`. The mapper, the reducer and
/// the tests' row-at-a-time reference fold all go through this one
/// function. Rust leaves the sign of a NaN sum, and which of two equal
/// zeros `f64::min`/`f64::max` return, to code generation, so a NaN sum is
/// made canonical and MIN/MAX keep the accumulator on a tie (and skip NaN,
/// as `f64::min` does): two folds over the same values in the same order
/// then agree to the bit in every build profile.
fn combine(func: AggFunc, acc: f64, v: f64) -> f64 {
    let keep_v = match func {
        AggFunc::Min => v < acc,
        AggFunc::Max => v > acc,
        AggFunc::Count | AggFunc::Sum | AggFunc::Avg => {
            let sum = acc + v;
            return if sum.is_nan() { f64::NAN } else { sum };
        }
    };
    if keep_v {
        v
    } else {
        acc
    }
}

/// Render a group value as its map-output key. Strings stay as-is
/// (unquoted); everything else uses a canonical numeric rendering.
fn group_key(v: &Value) -> Key {
    match v {
        Value::Str(s) => Key::from(s.as_str()),
        Value::Int(i) => Key::from(i.to_string()),
        Value::Float(f) => Key::from(f.to_string()),
        Value::Date(d) => Key::from(d.to_string()),
    }
}

/// One group's partial over one split: the matching-row count and one
/// accumulator per aggregate (`COUNT` folds 1.0 per row, so its
/// accumulator *is* the count).
struct GroupObs {
    n: u64,
    accs: Vec<f64>,
}

impl GroupObs {
    fn new(aggs: &[ResolvedAgg]) -> GroupObs {
        GroupObs {
            n: 0,
            accs: aggs.iter().map(|a| identity(a.func)).collect(),
        }
    }
}

/// Map side of every aggregate plan: emit **one partial per group per
/// split**, keyed by the rendered group value (or [`AGG_KEY`] for a
/// whole-table aggregate) — the `encode_group_part` wire format, which
/// the runtime's estimator also decodes into its per-group accumulator
/// plane.
#[derive(Debug, Clone)]
pub struct GroupAggMapper {
    predicate: Predicate,
    group: Option<usize>,
    aggs: Vec<ResolvedAgg>,
}

impl GroupAggMapper {
    /// Aggregate `aggs` per `group` column (`None` = one whole-table
    /// group under [`AGG_KEY`]) over records matching `predicate`.
    pub fn new(predicate: Predicate, group: Option<usize>, aggs: Vec<ResolvedAgg>) -> Self {
        assert!(!aggs.is_empty());
        GroupAggMapper {
            predicate,
            group,
            aggs,
        }
    }

    /// Columnar absorb: give each selected row a dense group slot, then
    /// sweep each aggregate's column vector into the slots. No `Record` is
    /// built and each group's key is rendered once. Every slot folds its
    /// rows in selection order, so the accumulators are bit-identical to a
    /// row-at-a-time fold.
    fn absorb_batch(&self, batch: &RecordBatch, sel: &[u32]) -> BTreeMap<Key, GroupObs> {
        let (slots, keys) = match self.group.map(|g| batch.column(g)) {
            None => (vec![0; sel.len()], vec![Key::from(AGG_KEY)]),
            // One slot per dictionary code. A batch dictionary holds each
            // string once, and its entries are already `Key`s.
            Some(ColumnData::Str(c)) => (
                sel.iter().map(|&r| c.codes[r as usize]).collect(),
                c.dict.clone(),
            ),
            Some(ColumnData::Int(v)) => value_slots(sel.iter().map(|&r| Value::Int(v[r as usize]))),
            Some(ColumnData::Float(v)) => {
                value_slots(sel.iter().map(|&r| Value::Float(v[r as usize])))
            }
            Some(ColumnData::Date(v)) => {
                value_slots(sel.iter().map(|&r| Value::Date(v[r as usize])))
            }
        };
        let mut obs: Vec<GroupObs> = keys.iter().map(|_| GroupObs::new(&self.aggs)).collect();
        for &s in &slots {
            obs[s as usize].n += 1;
        }
        for (j, agg) in self.aggs.iter().enumerate() {
            if agg.func == AggFunc::Count {
                // Folding 1.0 per row sums exactly to n.
                for o in &mut obs {
                    o.accs[j] = o.n as f64;
                }
                continue;
            }
            let c = agg.column.expect("only COUNT takes *");
            let rows = sel.iter().map(|&r| r as usize);
            let (func, obs) = (agg.func, &mut obs);
            match batch.column(c) {
                ColumnData::Int(v) => fold_slots(obs, j, func, &slots, rows.map(|r| v[r] as f64)),
                ColumnData::Float(v) => fold_slots(obs, j, func, &slots, rows.map(|r| v[r])),
                ColumnData::Date(v) => fold_slots(obs, j, func, &slots, rows.map(|r| v[r] as f64)),
                ColumnData::Str(_) => unreachable!("compiler rejects string aggregates"),
            }
        }
        // A dictionary code no selected row holds is no group of this
        // split; the whole-table partial is emitted on every split.
        keys.into_iter()
            .zip(obs)
            .filter(|(_, o)| o.n > 0 || self.group.is_none())
            .collect()
    }
}

/// Fold the `i`-th value into aggregate `j` of the `i`-th row's slot.
fn fold_slots(
    obs: &mut [GroupObs],
    j: usize,
    func: AggFunc,
    slots: &[u32],
    values: impl Iterator<Item = f64>,
) {
    for (&s, v) in slots.iter().zip(values) {
        let acc = &mut obs[s as usize].accs[j];
        *acc = combine(func, *acc, v);
    }
}

/// Dense group slots for a numeric group column: the first row holding a
/// value opens its slot and renders its key. Values are looked up by bit
/// pattern, with every NaN as one, so the slots are exactly the distinct
/// rendered keys.
fn value_slots(values: impl Iterator<Item = Value>) -> (Vec<u32>, Vec<Key>) {
    let mut index: HashMap<u64, u32> = HashMap::new();
    let mut keys = Vec::new();
    let slots = values
        .map(|v| {
            let raw = match v {
                Value::Int(i) => i as u64,
                Value::Float(f) if f.is_nan() => f64::NAN.to_bits(),
                Value::Float(f) => f.to_bits(),
                Value::Date(d) => u64::from(d),
                Value::Str(_) => unreachable!("string groups use dictionary codes"),
            };
            *index.entry(raw).or_insert_with(|| {
                keys.push(group_key(&v));
                (keys.len() - 1) as u32
            })
        })
        .collect();
    (slots, keys)
}

impl Mapper for GroupAggMapper {
    fn run(&self, data: SplitData) -> MapResult {
        let records_read = data.total_records();
        let (batch, sel) = data.select(&self.predicate, usize::MAX);
        let groups = self.absorb_batch(&batch, &sel);
        // BTreeMap iteration: pairs come out key-sorted, so the map output
        // is a pure function of the split's contents.
        MapResult {
            pairs: groups
                .into_iter()
                .map(|(key, obs)| (key, encode_group_part(obs.n, &obs.accs)))
                .collect(),
            records_read,
            ..MapResult::default()
        }
    }
}

/// Reduce side of every aggregate plan: merge each group's per-split
/// partials and emit one output row per group. When `grouped`, the row
/// leads with the group value (as a string — the key rendering);
/// whole-table rows carry the aggregates only.
///
/// For error-bounded jobs the emitted totals cover only the **sampled**
/// splits; the session layer scales SUM/COUNT by the expansion factor
/// from the job's [`incmr_mapreduce::AggReport`] (AVG is a ratio and
/// needs no scaling).
#[derive(Debug, Clone)]
pub struct GroupAggReducer {
    aggs: Vec<ResolvedAgg>,
    grouped: bool,
}

impl GroupAggReducer {
    /// Reducer matching a [`GroupAggMapper`]'s aggregate list.
    pub fn new(aggs: Vec<ResolvedAgg>, grouped: bool) -> Self {
        assert!(!aggs.is_empty());
        GroupAggReducer { aggs, grouped }
    }
}

impl Reducer for GroupAggReducer {
    fn reduce(&self, key: &Key, values: &[Record], output: &mut Vec<(Key, Record)>) {
        let mut total = GroupObs::new(&self.aggs);
        // A record that is not a partial of this aggregate list is skipped,
        // as the runtime's estimator skips it.
        for part in values
            .iter()
            .filter_map(|r| decode_group_part(key, r, self.aggs.len()))
        {
            total.n += part.n;
            for ((acc, agg), v) in total.accs.iter_mut().zip(&self.aggs).zip(part.sums) {
                *acc = combine(agg.func, *acc, v);
            }
        }
        let n = total.n;
        let mut row = Vec::with_capacity(self.grouped as usize + self.aggs.len());
        if self.grouped {
            row.push(Value::Str(key.to_string()));
        }
        row.extend(
            total
                .accs
                .into_iter()
                .zip(&self.aggs)
                .map(|(acc, agg)| match agg.func {
                    AggFunc::Count => Value::Int(n as i64),
                    AggFunc::Sum => Value::Float(acc),
                    _ if n == 0 => Value::Float(0.0),
                    AggFunc::Avg => Value::Float(acc / n as f64),
                    AggFunc::Min | AggFunc::Max => Value::Float(acc),
                }),
        );
        output.push((Key::clone(key), Record::new(row)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incmr_data::generator::{RecordFactory, SplitGenerator, SplitSpec};
    use incmr_data::lineitem::{col, LineItemFactory};
    use incmr_data::schema::{ColumnType, Schema};
    use incmr_data::Predicate;
    use std::sync::Arc;

    fn rec(q: i64, price: f64) -> Record {
        // Minimal two-column record standing in for (quantity, price).
        Record::new(vec![Value::Int(q), Value::Float(price)])
    }

    /// A full split of two-column rows, typed after the first row:
    /// `rec`'s (quantity, price) or `grec`'s (group, price).
    fn split(records: &[Record]) -> SplitData {
        let first = match records[0].get(0) {
            Value::Str(_) => ColumnType::Str,
            _ => ColumnType::Int,
        };
        let schema = Schema::new(vec![("a", first), ("price", ColumnType::Float)]);
        SplitData::Full(Arc::new(RecordBatch::from_records(&schema, records)))
    }

    /// The row-at-a-time reference for [`GroupAggMapper::run`]: filter
    /// `records` with the scalar predicate and fold each survivor into its
    /// group through one ordered-map lookup.
    fn fold_rows(mapper: &GroupAggMapper, records: &[Record]) -> Vec<(Key, Record)> {
        let mut groups = BTreeMap::new();
        if mapper.group.is_none() {
            // The whole-table partial exists on every split, matches or not.
            groups.insert(Key::from(AGG_KEY), GroupObs::new(&mapper.aggs));
        }
        for record in records.iter().filter(|r| mapper.predicate.eval(r)) {
            let key = match mapper.group {
                Some(g) => group_key(record.get(g)),
                None => Key::from(AGG_KEY),
            };
            let obs = groups
                .entry(key)
                .or_insert_with(|| GroupObs::new(&mapper.aggs));
            obs.n += 1;
            for (acc, agg) in obs.accs.iter_mut().zip(&mapper.aggs) {
                let v = match (agg.func, agg.column.map(|c| record.get(c))) {
                    (AggFunc::Count, _) => 1.0,
                    (_, Some(Value::Int(i))) => *i as f64,
                    (_, Some(Value::Float(f))) => *f,
                    (_, Some(Value::Date(d))) => *d as f64,
                    (_, other) => unreachable!("not an aggregate argument: {other:?}"),
                };
                *acc = combine(agg.func, *acc, v);
            }
        }
        groups
            .into_iter()
            .map(|(key, obs)| (key, encode_group_part(obs.n, &obs.accs)))
            .collect()
    }

    fn aggs() -> Vec<ResolvedAgg> {
        vec![
            ResolvedAgg {
                func: AggFunc::Count,
                column: None,
            },
            ResolvedAgg {
                func: AggFunc::Sum,
                column: Some(1),
            },
            ResolvedAgg {
                func: AggFunc::Avg,
                column: Some(0),
            },
            ResolvedAgg {
                func: AggFunc::Min,
                column: Some(0),
            },
            ResolvedAgg {
                func: AggFunc::Max,
                column: Some(0),
            },
        ]
    }

    #[test]
    fn map_reduce_agg_round_trip() {
        let mapper = GroupAggMapper::new(Predicate::True, None, aggs());
        let out_a = mapper.run(split(&[rec(2, 10.0), rec(4, 20.0)]));
        let out_b = mapper.run(split(&[rec(6, 30.0)]));
        assert_eq!(out_a.pairs.len(), 1);
        let reducer = GroupAggReducer::new(aggs(), false);
        let mut rows = Vec::new();
        let partials = vec![out_a.pairs[0].1.clone(), out_b.pairs[0].1.clone()];
        reducer.reduce(&Key::from(AGG_KEY), &partials, &mut rows);
        assert_eq!(rows.len(), 1);
        let row = &rows[0].1;
        assert_eq!(row.get(0), &Value::Int(3)); // COUNT(*)
        assert_eq!(row.get(1), &Value::Float(60.0)); // SUM(price)
        assert_eq!(row.get(2), &Value::Float(4.0)); // AVG(q)
        assert_eq!(row.get(3), &Value::Float(2.0)); // MIN(q)
        assert_eq!(row.get(4), &Value::Float(6.0)); // MAX(q)
    }

    #[test]
    fn predicate_filters_before_aggregation() {
        let p = Predicate::Compare {
            column: 0,
            op: incmr_data::predicate::CmpOp::Ge,
            literal: Value::Int(4),
        };
        let mapper = GroupAggMapper::new(
            p,
            None,
            vec![ResolvedAgg {
                func: AggFunc::Count,
                column: None,
            }],
        );
        let out = mapper.run(split(&[rec(2, 1.0), rec(4, 1.0), rec(9, 1.0)]));
        assert_eq!(out.records_read, 3);
        let reducer = GroupAggReducer::new(
            vec![ResolvedAgg {
                func: AggFunc::Count,
                column: None,
            }],
            false,
        );
        let mut rows = Vec::new();
        reducer.reduce(&Key::from(AGG_KEY), &[out.pairs[0].1.clone()], &mut rows);
        assert_eq!(rows[0].1.get(0), &Value::Int(2));
    }

    #[test]
    fn zero_matches_produce_zeros() {
        let mapper = GroupAggMapper::new(Predicate::Not(Box::new(Predicate::True)), None, aggs());
        let out = mapper.run(split(&[rec(1, 1.0)]));
        let reducer = GroupAggReducer::new(aggs(), false);
        let mut rows = Vec::new();
        reducer.reduce(&Key::from(AGG_KEY), &[out.pairs[0].1.clone()], &mut rows);
        let row = &rows[0].1;
        assert_eq!(row.get(0), &Value::Int(0));
        assert_eq!(row.get(1), &Value::Float(0.0));
        assert_eq!(
            row.get(2),
            &Value::Float(0.0),
            "AVG of nothing is 0 in this subset"
        );
        assert_eq!(row.get(3), &Value::Float(0.0));
    }

    /// A generated split in each scan mode.
    fn full_and_planted(gen: &SplitGenerator<'_, LineItemFactory>) -> [SplitData; 2] {
        [
            SplitData::Full(Arc::new(gen.full_batch())),
            SplitData::Planted {
                total_records: gen.spec().records,
                matches: Arc::new(gen.planted_batch()),
            },
        ]
    }

    #[test]
    fn planted_mode_aggregates_the_matches() {
        let factory = LineItemFactory::new(col::TAX, Value::Float(0.77));
        let gen = SplitGenerator::new(&factory, SplitSpec::new(2_000, 13, 5));
        let mapper = GroupAggMapper::new(
            factory.predicate(),
            None,
            vec![ResolvedAgg {
                func: AggFunc::Count,
                column: None,
            }],
        );
        let [full, planted] = full_and_planted(&gen).map(|data| mapper.run(data));
        assert_eq!(
            full.pairs[0].1, planted.pairs[0].1,
            "identical partials in both modes"
        );
        assert_eq!(full.pairs[0].1.get(0), &Value::Int(13));
    }

    #[test]
    fn batch_aggregation_matches_row_aggregation() {
        let factory = LineItemFactory::new(col::QUANTITY, Value::Int(200));
        let gen = SplitGenerator::new(&factory, SplitSpec::new(2_000, 13, 5));
        let mut all = vec![ResolvedAgg {
            func: AggFunc::Count,
            column: None,
        }];
        for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
            all.push(ResolvedAgg {
                func,
                column: Some(col::EXTENDEDPRICE),
            });
        }
        let mapper = GroupAggMapper::new(factory.predicate(), None, all);
        let rows = fold_rows(&mapper, &gen.full_iter().collect::<Vec<_>>());
        for data in full_and_planted(&gen) {
            let batch = mapper.run(data);
            assert_eq!(batch.pairs, rows, "batch ≡ row fold");
            assert_eq!(batch.records_read, 2_000);
        }
    }

    fn grouped_aggs() -> Vec<ResolvedAgg> {
        vec![
            ResolvedAgg {
                func: AggFunc::Count,
                column: None,
            },
            ResolvedAgg {
                func: AggFunc::Sum,
                column: Some(1),
            },
            ResolvedAgg {
                func: AggFunc::Avg,
                column: Some(1),
            },
        ]
    }

    fn grec(g: &str, price: f64) -> Record {
        Record::new(vec![Value::Str(g.into()), Value::Float(price)])
    }

    #[test]
    fn grouped_map_emits_one_part_per_group_in_key_order() {
        let mapper = GroupAggMapper::new(Predicate::True, Some(0), grouped_aggs());
        let out = mapper.run(split(&[grec("b", 2.0), grec("a", 1.0), grec("b", 4.0)]));
        assert_eq!(out.pairs.len(), 2);
        assert_eq!(&*out.pairs[0].0, "a");
        assert_eq!(&*out.pairs[1].0, "b");
        // Part format: [Int n, Float acc_count, Float acc_sum, Float acc_avg].
        assert_eq!(out.pairs[1].1.get(0), &Value::Int(2));
        assert_eq!(out.pairs[1].1.get(1), &Value::Float(2.0));
        assert_eq!(out.pairs[1].1.get(2), &Value::Float(6.0));
    }

    #[test]
    fn grouped_map_reduce_round_trip() {
        let mapper = GroupAggMapper::new(Predicate::True, Some(0), grouped_aggs());
        let a = mapper.run(split(&[grec("x", 1.0), grec("y", 10.0)]));
        let b = mapper.run(split(&[grec("x", 3.0)]));
        let reducer = GroupAggReducer::new(grouped_aggs(), true);
        let mut rows = Vec::new();
        let x_parts = vec![a.pairs[0].1.clone(), b.pairs[0].1.clone()];
        reducer.reduce(&Key::from("x"), &x_parts, &mut rows);
        reducer.reduce(&Key::from("y"), &[a.pairs[1].1.clone()], &mut rows);
        assert_eq!(rows.len(), 2);
        let x = &rows[0].1;
        assert_eq!(x.get(0), &Value::Str("x".into()), "group value leads");
        assert_eq!(x.get(1), &Value::Int(2));
        assert_eq!(x.get(2), &Value::Float(4.0));
        assert_eq!(x.get(3), &Value::Float(2.0));
        let y = &rows[1].1;
        assert_eq!(y.get(1), &Value::Int(1));
        assert_eq!(y.get(2), &Value::Float(10.0));
    }

    #[test]
    fn ungrouped_mapper_uses_the_shared_key_and_reducer_omits_it() {
        let mapper = GroupAggMapper::new(Predicate::True, None, grouped_aggs());
        let out = mapper.run(split(&[grec("x", 1.0), grec("y", 2.0)]));
        assert_eq!(out.pairs.len(), 1);
        assert_eq!(&*out.pairs[0].0, AGG_KEY);
        let reducer = GroupAggReducer::new(grouped_aggs(), false);
        let mut rows = Vec::new();
        reducer.reduce(&Key::from(AGG_KEY), &[out.pairs[0].1.clone()], &mut rows);
        assert_eq!(rows[0].1.arity(), 3, "no group column");
        assert_eq!(rows[0].1.get(0), &Value::Int(2));
    }

    #[test]
    fn grouped_batch_matches_grouped_rows() {
        let factory = LineItemFactory::new(col::QUANTITY, Value::Int(200));
        let gen = SplitGenerator::new(&factory, SplitSpec::new(2_000, 13, 5));
        let aggs = vec![
            ResolvedAgg {
                func: AggFunc::Count,
                column: None,
            },
            ResolvedAgg {
                func: AggFunc::Sum,
                column: Some(col::EXTENDEDPRICE),
            },
            ResolvedAgg {
                func: AggFunc::Avg,
                column: Some(col::QUANTITY),
            },
        ];
        let mapper = GroupAggMapper::new(factory.predicate(), Some(col::RETURNFLAG), aggs);
        let rows = fold_rows(&mapper, &gen.full_iter().collect::<Vec<_>>());
        assert!(rows.len() > 1, "the matches fall into several groups");
        for data in full_and_planted(&gen) {
            assert_eq!(mapper.run(data).pairs, rows, "batch ≡ row fold");
        }
    }

    /// The part's key, then the bits of every value, for an exact
    /// comparison (`-0.0` and NaN payloads included).
    fn part_bits(pairs: &[(Key, Record)]) -> Vec<(String, Vec<u64>)> {
        pairs
            .iter()
            .map(|(k, r)| {
                let bits = r
                    .values()
                    .iter()
                    .map(|v| match v {
                        Value::Int(i) => *i as u64,
                        Value::Float(f) => f.to_bits(),
                        other => panic!("group parts hold numbers only: {other:?}"),
                    })
                    .collect();
                (k.to_string(), bits)
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The columnar grouped map equals the row-at-a-time fold over the
        /// same records: the same keys in the same order, and counts and
        /// accumulators of every function with the same bits (MIN over
        /// ±0.0 and NaN included), for a group column of every type and
        /// for no group.
        #[test]
        fn grouped_batch_matches_rows_bit_for_bit(
            rows in proptest::collection::vec(
                (0i64..5, 0usize..6, 0u32..4, 0usize..3, 0usize..6, -1_000i64..1_000),
                0..60,
            ),
            group in 0usize..5,
            threshold in proptest::option::of(0i64..5),
        ) {
            use incmr_data::predicate::CmpOp;

            let floats = [0.0, -0.0, f64::NAN, -f64::NAN, 1.5, 0.1];
            let strs = ["A", "N", "R"];
            let schema = Schema::new(vec![
                ("gi", ColumnType::Int),
                ("gf", ColumnType::Float),
                ("gd", ColumnType::Date),
                ("gs", ColumnType::Str),
                ("v", ColumnType::Float),
                ("w", ColumnType::Int),
            ]);
            let records: Vec<Record> = rows
                .iter()
                .map(|&(i, f, d, s, v, w)| {
                    Record::new(vec![
                        Value::Int(i),
                        Value::Float(floats[f]),
                        Value::Date(d),
                        Value::Str(strs[s].into()),
                        Value::Float(floats[v] * w as f64),
                        Value::Int(w),
                    ])
                })
                .collect();
            let predicate = match threshold {
                Some(t) => Predicate::Compare {
                    column: 0,
                    op: CmpOp::Ge,
                    literal: Value::Int(t),
                },
                None => Predicate::True,
            };
            let aggs = vec![
                ResolvedAgg { func: AggFunc::Count, column: None },
                ResolvedAgg { func: AggFunc::Sum, column: Some(4) },
                ResolvedAgg { func: AggFunc::Avg, column: Some(5) },
                ResolvedAgg { func: AggFunc::Sum, column: Some(2) },
                ResolvedAgg { func: AggFunc::Min, column: Some(4) },
                ResolvedAgg { func: AggFunc::Max, column: Some(5) },
            ];
            let mapper = GroupAggMapper::new(predicate, (group < 4).then_some(group), aggs);
            let split = SplitData::Full(Arc::new(RecordBatch::from_records(&schema, &records)));
            let batch = mapper.run(split);
            let rows = fold_rows(&mapper, &records);
            proptest::prop_assert_eq!(part_bits(&batch.pairs), part_bits(&rows));
            proptest::prop_assert_eq!(batch.records_read, records.len() as u64);
        }
    }

    #[test]
    fn group_parts_decode_into_the_estimator_plane() {
        let mapper = GroupAggMapper::new(Predicate::True, Some(0), grouped_aggs());
        let out = mapper.run(split(&[grec("g", 5.0), grec("g", 7.0)]));
        let part = incmr_mapreduce::decode_group_part(&out.pairs[0].0, &out.pairs[0].1, 3)
            .expect("mapper output is the estimator wire format");
        assert_eq!(&*part.group, "g");
        assert_eq!(part.n, 2);
        assert_eq!(part.sums, vec![2.0, 12.0, 12.0]);
    }
}
