//! The independent oracle every answer is checked against.
//!
//! Full-mode truth comes from [`SplitGenerator::full_iter`] and
//! [`Predicate::eval`] alone — row at a time, never through MapReduce or
//! the columnar kernels — and is cached per block *content* (the split's
//! seed, size and planted count), so a block that reappears in a later
//! episode or survives an evolve is answered once. Planted-mode truth is
//! [`Dataset::total_matching`].

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use incmr_data::generator::RecordFactory;
use incmr_data::{Dataset, Predicate, Record, SplitGenerator, SplitSpec, Value};

use crate::stats::row_fingerprint;
use crate::workload::{Agg, Question, Questions, Shape};

/// Per-group running totals: the matching-row count and one sum per
/// aggregate column.
#[derive(Debug, Clone, Default, PartialEq)]
struct GroupAcc {
    n: u64,
    sums: Vec<f64>,
}

/// One question's answer over one block.
#[derive(Debug, Clone)]
enum Answer {
    Rows {
        /// Matching rows.
        count: u64,
        /// Wrapping sum of projected-row fingerprints (a multiset digest).
        digest: u64,
        /// Fingerprints of every projected matching row.
        members: HashSet<u64>,
    },
    Groups(BTreeMap<String, GroupAcc>),
}

/// Every question's answer over one block content.
type BlockTruth = Vec<Answer>;

/// A question's answer over a whole table (all its current blocks).
#[derive(Debug, Clone)]
pub enum TableAnswer {
    /// Rows questions.
    Rows {
        /// Matching rows in the table.
        count: u64,
        /// Multiset digest of the projected matching rows.
        digest: u64,
        /// Fingerprints of every projected matching row.
        members: HashSet<u64>,
    },
    /// Group questions: group value → (count, one final value per aggregate).
    Groups(BTreeMap<String, (u64, Vec<f64>)>),
}

/// The full-mode oracle for one run's question pool.
pub struct FullOracle {
    questions: Questions,
    predicates: Vec<Predicate>,
    blocks: HashMap<(u64, u64, u64), Arc<BlockTruth>>,
}

fn group_key(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Date(d) => d.to_string(),
    }
}

fn numeric(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        Value::Date(d) => *d as f64,
        Value::Str(_) => f64::NAN,
    }
}

fn agg_column(agg: Agg) -> Option<usize> {
    match agg {
        Agg::Count => None,
        Agg::Sum(c) | Agg::Avg(c) => Some(c),
    }
}

impl FullOracle {
    /// An oracle answering `questions`.
    pub fn new(questions: Questions) -> FullOracle {
        let predicates = questions
            .all
            .iter()
            .map(|q| q.pred.predicate(|c| c))
            .collect();
        FullOracle {
            questions,
            predicates,
            blocks: HashMap::new(),
        }
    }

    /// The question pool.
    pub fn questions(&self) -> &Questions {
        &self.questions
    }

    fn block_truth(&mut self, dataset: &Dataset, spec: SplitSpec) -> Arc<BlockTruth> {
        let key = (spec.seed, spec.records, spec.matching);
        if let Some(hit) = self.blocks.get(&key) {
            return Arc::clone(hit);
        }
        let factory = dataset.factory();
        let mut truth: BlockTruth = self
            .questions
            .all
            .iter()
            .map(|q| match q.shape {
                Shape::Rows { .. } => Answer::Rows {
                    count: 0,
                    digest: 0,
                    members: HashSet::new(),
                },
                Shape::Groups { .. } => Answer::Groups(BTreeMap::new()),
            })
            .collect();
        for record in SplitGenerator::new(&factory, spec).full_iter() {
            for ((question, pred), answer) in self
                .questions
                .all
                .iter()
                .zip(&self.predicates)
                .zip(truth.iter_mut())
            {
                if pred.eval(&record) {
                    absorb(question, &record, answer);
                }
            }
        }
        let truth = Arc::new(truth);
        self.blocks.insert(key, Arc::clone(&truth));
        truth
    }

    /// Answer every question over `dataset` as it stands now.
    pub fn table(&mut self, dataset: &Dataset) -> Vec<TableAnswer> {
        debug_assert_eq!(
            dataset.factory().schema().arity(),
            incmr_data::lineitem::schema().arity()
        );
        let blocks: Vec<Arc<BlockTruth>> = dataset
            .splits()
            .iter()
            .map(|plan| self.block_truth(dataset, plan.spec))
            .collect();
        (0..self.questions.all.len())
            .map(|i| merge(&self.questions.all[i], blocks.iter().map(|b| &b[i])))
            .collect()
    }
}

fn absorb(question: &Question, record: &Record, answer: &mut Answer) {
    match (&question.shape, answer) {
        (
            Shape::Rows { projection },
            Answer::Rows {
                count,
                digest,
                members,
            },
        ) => {
            let fp = row_fingerprint(projection.iter().map(|&c| record.get(c)));
            *count += 1;
            *digest = digest.wrapping_add(fp);
            members.insert(fp);
        }
        (Shape::Groups { group, aggs }, Answer::Groups(groups)) => {
            let acc = groups
                .entry(group_key(record.get(*group)))
                .or_insert_with(|| GroupAcc {
                    n: 0,
                    sums: vec![0.0; aggs.len()],
                });
            acc.n += 1;
            for (sum, agg) in acc.sums.iter_mut().zip(aggs) {
                if let Some(c) = agg_column(*agg) {
                    *sum += numeric(record.get(c));
                }
            }
        }
        _ => unreachable!("answers are built from their question's shape"),
    }
}

fn merge<'a>(question: &Question, blocks: impl Iterator<Item = &'a Answer>) -> TableAnswer {
    match &question.shape {
        Shape::Rows { .. } => {
            let (mut total, mut sum, mut all) = (0, 0u64, HashSet::new());
            for answer in blocks {
                let Answer::Rows {
                    count,
                    digest,
                    members,
                } = answer
                else {
                    unreachable!("rows question")
                };
                total += count;
                sum = sum.wrapping_add(*digest);
                all.extend(members.iter().copied());
            }
            TableAnswer::Rows {
                count: total,
                digest: sum,
                members: all,
            }
        }
        Shape::Groups { aggs, .. } => {
            let mut merged: BTreeMap<String, GroupAcc> = BTreeMap::new();
            for answer in blocks {
                let Answer::Groups(groups) = answer else {
                    unreachable!("groups question")
                };
                for (key, acc) in groups {
                    let m = merged.entry(key.clone()).or_insert_with(|| GroupAcc {
                        n: 0,
                        sums: vec![0.0; aggs.len()],
                    });
                    m.n += acc.n;
                    for (a, b) in m.sums.iter_mut().zip(&acc.sums) {
                        *a += b;
                    }
                }
            }
            TableAnswer::Groups(
                merged
                    .into_iter()
                    .map(|(key, acc)| {
                        let finals = aggs
                            .iter()
                            .zip(&acc.sums)
                            .map(|(agg, sum)| match agg {
                                Agg::Count => acc.n as f64,
                                Agg::Sum(_) => *sum,
                                Agg::Avg(_) => *sum / acc.n as f64,
                            })
                            .collect();
                        (key, (acc.n, finals))
                    })
                    .collect(),
            )
        }
    }
}

/// Relative closeness for sums whose addition order differs between the
/// system and the oracle.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn numeric_cell(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// A `LIMIT k` sample: `min(k, matches)` rows, each satisfying `pred`.
/// When `members` is given, each row must also be one of the table's
/// matching rows.
pub fn check_sample(
    rows: &[Record],
    k: u64,
    matches: u64,
    pred: &Predicate,
    members: Option<&HashSet<u64>>,
) -> Result<(), String> {
    let want = k.min(matches);
    if rows.len() as u64 != want {
        return Err(format!(
            "sample returned {} rows, expected min({k}, {matches}) = {want}",
            rows.len()
        ));
    }
    for row in rows {
        if !pred.eval(row) {
            return Err(format!("sampled row {row} fails the predicate"));
        }
        if let Some(members) = members {
            if !members.contains(&row_fingerprint(row.values())) {
                return Err(format!("sampled row {row} is not a row of the table"));
            }
        }
    }
    Ok(())
}

/// A full select-project scan: exactly the matching rows, as a multiset.
pub fn check_scan(rows: &[Record], answer: &TableAnswer) -> Result<(), String> {
    let TableAnswer::Rows { count, digest, .. } = answer else {
        return Err("rows statement checked against a groups answer".into());
    };
    if rows.len() as u64 != *count {
        return Err(format!(
            "scan returned {} rows, expected {count}",
            rows.len()
        ));
    }
    let got = rows
        .iter()
        .fold(0u64, |acc, r| acc.wrapping_add(row_fingerprint(r.values())));
    if got != *digest {
        return Err("scan rows differ from the matching rows".into());
    }
    Ok(())
}

/// An exact `GROUP BY`: the same groups, the same counts, and every
/// aggregate equal to the oracle's (sums up to addition order).
pub fn check_groups(rows: &[Record], answer: &TableAnswer, aggs: &[Agg]) -> Result<(), String> {
    let TableAnswer::Groups(truth) = answer else {
        return Err("groups statement checked against a rows answer".into());
    };
    if rows.len() != truth.len() {
        return Err(format!(
            "{} groups returned, expected {}",
            rows.len(),
            truth.len()
        ));
    }
    for row in rows {
        let Some(Value::Str(key)) = row.values().first() else {
            return Err(format!("group row {row} does not lead with its group"));
        };
        let Some((_, finals)) = truth.get(key) else {
            return Err(format!("unexpected group {key:?}"));
        };
        if row.arity() != 1 + aggs.len() {
            return Err(format!("group row {row} has the wrong arity"));
        }
        for (j, (agg, want)) in aggs.iter().zip(finals).enumerate() {
            let got = numeric_cell(row.get(1 + j));
            let ok = match (agg, got) {
                (Agg::Count, Some(g)) => g == *want,
                (_, Some(g)) => close(g, *want),
                (_, None) => false,
            };
            if !ok {
                return Err(format!(
                    "group {key:?} aggregate {j}: got {}, expected {want}",
                    row.get(1 + j)
                ));
            }
        }
    }
    Ok(())
}

/// Cells of an error-bounded answer within `error` of the truth, out of
/// all the truth's cells (a group the estimate misses counts as outside).
pub fn bounded_cells(rows: &[Record], answer: &TableAnswer, error: f64) -> (u64, u64) {
    let TableAnswer::Groups(truth) = answer else {
        return (0, 0);
    };
    let by_key: HashMap<&str, &Record> = rows
        .iter()
        .filter_map(|r| match r.values().first() {
            Some(Value::Str(k)) => Some((k.as_str(), r)),
            _ => None,
        })
        .collect();
    let mut within = 0;
    let mut total = 0;
    for (key, (_, finals)) in truth {
        for (j, want) in finals.iter().enumerate() {
            total += 1;
            let got = by_key
                .get(key.as_str())
                .filter(|r| r.arity() == 1 + finals.len())
                .and_then(|r| numeric_cell(r.get(1 + j)));
            if got.is_some_and(|g| (g - want).abs() <= error * want.abs()) {
                within += 1;
            }
        }
    }
    (within, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use incmr_data::{DatasetSpec, SkewLevel};
    use incmr_dfs::{ClusterTopology, EvenRoundRobin, Namespace};
    use incmr_simkit::rng::DetRng;

    fn dataset() -> Dataset {
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        Dataset::build(
            &mut ns,
            DatasetSpec::small("t", 4, 3_000, SkewLevel::High, 3),
            &mut EvenRoundRobin::new(),
            &mut DetRng::seed_from(3),
        )
    }

    #[test]
    fn planted_question_counts_the_planted_matches() {
        let ds = dataset();
        let mut oracle = FullOracle::new(Questions::for_run(Workload::ScanFull, 1));
        let answers = oracle.table(&ds);
        // Class 0, template 0 is the table's planted predicate.
        let TableAnswer::Rows { count, members, .. } = &answers[oracle.questions().by_class[0][0]]
        else {
            panic!()
        };
        assert_eq!(*count, ds.total_matching());
        assert!(members.len() as u64 <= *count);
    }

    #[test]
    fn checks_reject_wrong_answers() {
        let pred = Predicate::eq(0, Value::Int(1));
        let good = vec![Record::new(vec![Value::Int(1)])];
        assert!(check_sample(&good, 5, 1, &pred, None).is_ok());
        assert!(
            check_sample(&good, 5, 2, &pred, None).is_err(),
            "too few rows"
        );
        let bad = vec![Record::new(vec![Value::Int(2)])];
        assert!(
            check_sample(&bad, 1, 1, &pred, None).is_err(),
            "predicate fails"
        );
        let members = HashSet::from([row_fingerprint(&[Value::Int(3)])]);
        assert!(
            check_sample(&good, 1, 1, &pred, Some(&members)).is_err(),
            "not a table row"
        );
        let answer = TableAnswer::Groups(BTreeMap::from([("A".to_string(), (2, vec![2.0, 7.5]))]));
        let row = |n: i64, s: f64| {
            vec![Record::new(vec![
                Value::Str("A".into()),
                Value::Int(n),
                Value::Float(s),
            ])]
        };
        let aggs = [Agg::Count, Agg::Sum(4)];
        assert!(check_groups(&row(2, 7.5), &answer, &aggs).is_ok());
        assert!(check_groups(&row(3, 7.5), &answer, &aggs).is_err());
        assert!(check_groups(&row(2, 7.6), &answer, &aggs).is_err());
        assert_eq!(bounded_cells(&row(2, 7.6), &answer, 0.05), (2, 2));
        assert_eq!(bounded_cells(&row(2, 9.0), &answer, 0.05), (1, 2));
    }
}
