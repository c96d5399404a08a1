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

use incmr_data::{BatchSelection, Predicate};
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
}

impl Mapper for ScanMapper {
    /// Select every match of the split. Widths and counts come straight
    /// off the column vectors. Records are only built in the (small-job)
    /// materialised path, where per-row keys force real pairs; the
    /// simulated-load path never constructs a `Record` at all.
    fn run(&self, data: SplitData) -> MapResult {
        let records_read = data.total_records();
        let (batch, sel) = data.select(&self.predicate, usize::MAX);
        let rows = BatchSelection::new(batch, sel, Arc::clone(&self.projection));
        if self.materialize {
            MapResult {
                pairs: rows
                    .iter_records()
                    .enumerate()
                    .map(|(i, r)| (Key::from(format!("r{i}")), r))
                    .collect(),
                records_read,
                ..MapResult::default()
            }
        } else {
            MapResult {
                records_read,
                unmaterialized_outputs: rows.len() as u64,
                unmaterialized_bytes: rows.total_width() + 8 * rows.len() as u64,
                ..MapResult::default()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incmr_data::generator::{RecordFactory, SplitGenerator, SplitSpec};
    use incmr_data::lineitem::{col, LineItemFactory};
    use incmr_data::{Record, Value};

    fn factory() -> LineItemFactory {
        LineItemFactory::new(col::TAX, Value::Float(0.77))
    }

    fn full(g: &SplitGenerator<'_, LineItemFactory>) -> SplitData {
        SplitData::Full(Arc::new(g.full_batch()))
    }

    fn planted(g: &SplitGenerator<'_, LineItemFactory>) -> SplitData {
        SplitData::Planted {
            total_records: g.spec().records,
            matches: Arc::new(g.planted_batch()),
        }
    }

    #[test]
    fn materialized_scan_projects_and_filters() {
        let f = factory();
        let g = SplitGenerator::new(&f, SplitSpec::new(500, 9, 2));
        let m = ScanMapper::new(f.predicate(), vec![col::ORDERKEY, col::PARTKEY], true);
        let out = m.run(full(&g));
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
        let m = ScanMapper::new(f.predicate(), vec![col::ORDERKEY], false);
        let out = m.run(planted(&g));
        assert!(out.pairs.is_empty());
        assert_eq!(out.unmaterialized_outputs, 9);
        assert!(out.unmaterialized_bytes > 0);
        assert_eq!(out.total_outputs(), 9);
    }

    #[test]
    fn full_and_planted_agree_on_counts() {
        let f = factory();
        let g = SplitGenerator::new(&f, SplitSpec::new(800, 13, 5));
        let m = ScanMapper::new(f.predicate(), vec![], false);
        let a = m.run(full(&g));
        let b = m.run(planted(&g));
        assert_eq!(a.records_read, b.records_read);
        assert_eq!(a.total_outputs(), b.total_outputs());
        assert_eq!(a.unmaterialized_bytes, b.unmaterialized_bytes);
    }

    /// Both scan modes agree with the row reference: the generator's
    /// records filtered by the scalar predicate, projected, keyed by
    /// position, and counted at `width + 8` bytes apiece when unmaterialised.
    #[test]
    fn batch_scan_matches_row_scan_in_both_modes() {
        let f = factory();
        let p = f.predicate();
        let g = SplitGenerator::new(&f, SplitSpec::new(800, 13, 5));
        for projection in [vec![], vec![col::ORDERKEY, col::PARTKEY]] {
            let rows: Vec<Record> = g
                .full_iter()
                .filter(|r| p.eval(r))
                .map(|r| {
                    if projection.is_empty() {
                        r
                    } else {
                        r.project(&projection)
                    }
                })
                .collect();
            let bytes: u64 = rows.iter().map(|r| r.width() + 8).sum();
            let pairs: Vec<(Key, Record)> = rows
                .iter()
                .enumerate()
                .map(|(i, r)| (Key::from(format!("r{i}")), r.clone()))
                .collect();
            for materialize in [false, true] {
                let m = ScanMapper::new(p.clone(), projection.clone(), materialize);
                for out in [m.run(full(&g)), m.run(planted(&g))] {
                    assert_eq!(out.records_read, 800);
                    assert_eq!(out.total_outputs(), rows.len() as u64);
                    if materialize {
                        assert_eq!(out.pairs, pairs);
                    } else {
                        assert!(out.pairs.is_empty());
                        assert_eq!(out.unmaterialized_bytes, bytes);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_projection_keeps_whole_record() {
        let f = factory();
        let g = SplitGenerator::new(&f, SplitSpec::new(100, 5, 1));
        let m = ScanMapper::new(f.predicate(), vec![], true);
        let out = m.run(full(&g));
        assert!(out
            .pairs
            .iter()
            .all(|(_, r)| r.arity() == f.schema().arity()));
    }
}
