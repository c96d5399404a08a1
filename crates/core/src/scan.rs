//! The select-project scan mapper — the *Non-Sampling* job class of the
//! paper's heterogeneous-workload experiment ("Non-Sampling users submit
//! basic select-project queries with a selectivity of 0.05%", Section V-E).
//!
//! A scan job is a conventional static job: it processes its entire input.
//! Its outputs exist for accounting (output counts and shuffle bytes) but
//! nothing downstream inspects their contents, so in planted mode they are
//! reported unmaterialised — which is what lets a 600M-row scan job run in
//! the simulator without holding 300k records in memory.

use std::sync::Arc;

use incmr_data::{BatchSelection, Predicate, Record, RecordBatch, SelectionVector};
use incmr_mapreduce::{Key, MapResult, Mapper, SplitData};

/// A select-project mapper: `SELECT columns FROM t WHERE predicate`.
#[derive(Debug, Clone)]
pub struct ScanMapper {
    predicate: Predicate,
    /// Shared, so a split's selection takes it without a copy.
    projection: Arc<[usize]>,
    materialize: bool,
}

impl ScanMapper {
    /// A scan with the given predicate and projected column indices.
    /// `materialize` controls whether matching records are carried as real
    /// pairs (small jobs, examples) or as counters only (simulated load).
    pub fn new(predicate: Predicate, projection: Vec<usize>, materialize: bool) -> Self {
        ScanMapper {
            predicate,
            projection: projection.into(),
            materialize,
        }
    }

    fn project(&self, r: &Record) -> Record {
        if self.projection.is_empty() {
            r.clone()
        } else {
            r.project(&self.projection)
        }
    }

    fn emit(&self, matches: &[&Record], total: u64) -> MapResult {
        if self.materialize {
            MapResult {
                pairs: matches
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (Key::from(format!("r{i}")), self.project(r)))
                    .collect(),
                records_read: total,
                ..MapResult::default()
            }
        } else {
            let bytes: u64 = matches.iter().map(|r| self.project(r).width() + 8).sum();
            MapResult {
                records_read: total,
                unmaterialized_outputs: matches.len() as u64,
                unmaterialized_bytes: bytes,
                ..MapResult::default()
            }
        }
    }

    /// The columnar scan: widths and counts come straight off the column
    /// vectors. Records are only built in the (small-job) materialised
    /// path, where per-row keys force real pairs; the simulated-load path
    /// never constructs a `Record` at all.
    fn emit_batch(&self, batch: Arc<RecordBatch>, sel: SelectionVector, total: u64) -> MapResult {
        let rows = BatchSelection::new(batch, sel, Arc::clone(&self.projection));
        if self.materialize {
            MapResult {
                pairs: rows
                    .iter_records()
                    .enumerate()
                    .map(|(i, r)| (Key::from(format!("r{i}")), r))
                    .collect(),
                records_read: total,
                ..MapResult::default()
            }
        } else {
            MapResult {
                records_read: total,
                unmaterialized_outputs: rows.len() as u64,
                unmaterialized_bytes: rows.total_width() + 8 * rows.len() as u64,
                ..MapResult::default()
            }
        }
    }
}

impl Mapper for ScanMapper {
    fn run(&self, data: SplitData) -> MapResult {
        match data {
            SplitData::Batch(batch) => {
                let sel = self.predicate.eval_batch(&batch);
                let total = batch.len() as u64;
                self.emit_batch(batch, sel, total)
            }
            SplitData::PlantedBatch {
                total_records,
                matches,
            } => {
                debug_assert_eq!(self.predicate.eval_batch(&matches).len(), matches.len());
                let sel = (0..matches.len() as u32).collect();
                self.emit_batch(matches, sel, total_records)
            }
            SplitData::Records(records) => {
                let matches: Vec<&Record> =
                    records.iter().filter(|r| self.predicate.eval(r)).collect();
                self.emit(&matches, records.len() as u64)
            }
            SplitData::Planted {
                total_records,
                matches,
            } => {
                debug_assert!(matches.iter().all(|r| self.predicate.eval(r)));
                let refs: Vec<&Record> = matches.iter().collect();
                self.emit(&refs, total_records)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incmr_data::generator::{RecordFactory, SplitGenerator, SplitSpec};
    use incmr_data::lineitem::{col, LineItemFactory};
    use incmr_data::Value;

    fn factory() -> LineItemFactory {
        LineItemFactory::new(col::TAX, Value::Float(0.77))
    }

    #[test]
    fn materialized_scan_projects_and_filters() {
        let f = factory();
        let g = SplitGenerator::new(&f, SplitSpec::new(500, 9, 2));
        let data = SplitData::Records(g.full_iter().collect());
        let m = ScanMapper::new(f.predicate(), vec![col::ORDERKEY, col::PARTKEY], true);
        let out = m.run(data);
        assert_eq!(out.pairs.len(), 9);
        assert_eq!(out.records_read, 500);
        assert_eq!(out.unmaterialized_outputs, 0);
        assert!(
            out.pairs.iter().all(|(_, r)| r.arity() == 2),
            "projection applied"
        );
    }

    #[test]
    fn unmaterialized_scan_counts_without_pairs() {
        let f = factory();
        let g = SplitGenerator::new(&f, SplitSpec::new(500, 9, 2));
        let data = SplitData::Planted {
            total_records: 500,
            matches: g.planted_matches(),
        };
        let m = ScanMapper::new(f.predicate(), vec![col::ORDERKEY], false);
        let out = m.run(data);
        assert!(out.pairs.is_empty());
        assert_eq!(out.unmaterialized_outputs, 9);
        assert!(out.unmaterialized_bytes > 0);
        assert_eq!(out.total_outputs(), 9);
    }

    #[test]
    fn full_and_planted_agree_on_counts() {
        let f = factory();
        let g = SplitGenerator::new(&f, SplitSpec::new(800, 13, 5));
        let full = SplitData::Records(g.full_iter().collect());
        let planted = SplitData::Planted {
            total_records: 800,
            matches: g.planted_matches(),
        };
        let m = ScanMapper::new(f.predicate(), vec![], false);
        let a = m.run(full);
        let b = m.run(planted);
        assert_eq!(a.total_outputs(), b.total_outputs());
        assert_eq!(a.unmaterialized_bytes, b.unmaterialized_bytes);
    }

    #[test]
    fn batch_scan_matches_row_scan_in_both_modes() {
        let f = factory();
        let g = SplitGenerator::new(&f, SplitSpec::new(800, 13, 5));
        for projection in [vec![], vec![col::ORDERKEY, col::PARTKEY]] {
            for materialize in [false, true] {
                let m = ScanMapper::new(f.predicate(), projection.clone(), materialize);
                let rows = m.run(SplitData::Records(g.full_iter().collect()));
                let batch = m.run(SplitData::Batch(Arc::new(g.full_batch())));
                assert_eq!(batch.pairs, rows.pairs);
                assert_eq!(batch.records_read, rows.records_read);
                assert_eq!(batch.total_outputs(), rows.total_outputs());
                assert_eq!(batch.unmaterialized_bytes, rows.unmaterialized_bytes);

                let rows = m.run(SplitData::Planted {
                    total_records: 800,
                    matches: g.planted_matches(),
                });
                let pbatch = m.run(SplitData::PlantedBatch {
                    total_records: 800,
                    matches: Arc::new(g.planted_batch()),
                });
                assert_eq!(pbatch.pairs, rows.pairs);
                assert_eq!(pbatch.total_outputs(), rows.total_outputs());
                assert_eq!(pbatch.unmaterialized_bytes, rows.unmaterialized_bytes);
            }
        }
    }

    #[test]
    fn empty_projection_keeps_whole_record() {
        let f = factory();
        let g = SplitGenerator::new(&f, SplitSpec::new(100, 5, 1));
        let data = SplitData::Records(g.full_iter().collect());
        let m = ScanMapper::new(f.predicate(), vec![], true);
        let out = m.run(data);
        assert!(out
            .pairs
            .iter()
            .all(|(_, r)| r.arity() == f.schema().arity()));
    }
}
