//! The select-project scan mapper — the *Non-Sampling* job class of the
//! paper's heterogeneous-workload experiment ("Non-Sampling users submit
//! basic select-project queries with a selectivity of 0.05%", Section V-E).
//!
//! A scan job is a conventional static job: it processes its entire input.
//! Its outputs exist for accounting (output counts and shuffle bytes) but
//! nothing downstream inspects their contents, so in planted mode they are
//! reported unmaterialised — which is what lets a 600M-row scan job run in
//! the simulator without holding 300k records in memory.
//!
//! A materialised scan (full mode) emits each returned row under its
//! position in the split's selection: `r0`, `r1`, …, restarting at every
//! split. Those keys are observable — they set shuffle bytes and the
//! reduce's key groups, and so the result's row order — so they are
//! exactly these strings. Each mapper builds them once, into one grow-only
//! table, and a map task clones its keys out of it: an `Arc` bump per row
//! where formatting a `String` and interning it cost two allocations.

use std::fmt::{self, Write};
use std::sync::{Arc, Mutex};

use incmr_data::{BatchSelection, Predicate};
use incmr_mapreduce::{Key, MapResult, Mapper, SplitData};

/// A select-project mapper: `SELECT columns FROM t WHERE predicate`.
#[derive(Debug, Clone)]
pub struct ScanMapper {
    predicate: Predicate,
    /// Shared, so a split's selection takes it without a copy.
    projection: Arc<[usize]>,
    materialize: bool,
    /// The materialised path's row keys. Clones share one table; it lives
    /// as long as the job's spec holds the mapper.
    keys: Arc<RowKeys>,
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
            keys: Arc::default(),
        }
    }
}

/// The row keys `r0 … r(n−1)` of a materialised scan, built once per
/// mapper. Map tasks run on the worker pool, so the table sits behind a
/// lock that each task takes once, never once per row.
#[derive(Default)]
struct RowKeys(Mutex<Arc<[Key]>>);

impl RowKeys {
    /// A table of at least `n` keys. A shorter table grows geometrically,
    /// keeping the keys it already holds; otherwise this is one `Arc` bump.
    fn at_least(&self, n: usize) -> Arc<[Key]> {
        let mut keys = self
            .0
            .lock()
            .expect("no map task panics holding the key table");
        if keys.len() < n {
            let built = keys.len();
            // One buffer renders every new key; each key is one `Arc<str>`.
            let mut name = String::from("r");
            let new = (built..n.max(2 * built)).map(|i| {
                name.truncate(1);
                write!(name, "{i}").expect("writing to a String");
                Key::from(name.as_str())
            });
            *keys = keys.iter().cloned().chain(new).collect();
        }
        Arc::clone(&keys)
    }
}

/// The table is a cache of `r{i}` strings, so `Debug` omits it.
impl fmt::Debug for RowKeys {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RowKeys").finish_non_exhaustive()
    }
}

impl Mapper for ScanMapper {
    /// Select every match of the split. Widths and counts come straight
    /// off the column vectors. Records are only built in the (small-job)
    /// materialised path, where per-row keys force real pairs: row `i`
    /// of the selection goes out under key `r{i}`, cloned from the
    /// mapper's key table. The simulated-load path never constructs a
    /// `Record` or a key at all.
    fn run(&self, data: SplitData) -> MapResult {
        let records_read = data.total_records();
        let (batch, sel) = data.select(&self.predicate, usize::MAX);
        let rows = BatchSelection::new(batch, sel, Arc::clone(&self.projection));
        if self.materialize {
            let keys = self.keys.at_least(rows.len());
            MapResult {
                pairs: keys[..rows.len()]
                    .iter()
                    .cloned()
                    .zip(rows.iter_records())
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
    /// One mapper scans splits whose match counts rise and then fall, so its
    /// key table grows over the keys it holds and then serves shorter
    /// splits from its prefix; every split's keys must still be exactly the
    /// formatted `r{i}`.
    #[test]
    fn batch_scan_matches_row_scan_in_both_modes() {
        let f = factory();
        let p = f.predicate();
        let matches = [5, 13, 40, 90, 30, 0, 13];
        for projection in [vec![], vec![col::ORDERKEY, col::PARTKEY]] {
            for materialize in [false, true] {
                let m = ScanMapper::new(p.clone(), projection.clone(), materialize);
                for (seed, &n) in matches.iter().enumerate() {
                    let g = SplitGenerator::new(&f, SplitSpec::new(800, n, seed as u64 + 5));
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
                    assert_eq!(rows.len() as u64, n);
                    let bytes: u64 = rows.iter().map(|r| r.width() + 8).sum();
                    let pairs: Vec<(Key, Record)> = rows
                        .iter()
                        .enumerate()
                        .map(|(i, r)| (Key::from(format!("r{i}")), r.clone()))
                        .collect();
                    for out in [m.run(full(&g)), m.run(planted(&g))] {
                        assert_eq!(out.records_read, 800);
                        assert_eq!(out.total_outputs(), n);
                        if materialize {
                            assert_eq!(out.pairs, pairs, "{n} matches");
                        } else {
                            assert!(out.pairs.is_empty());
                            assert_eq!(out.unmaterialized_bytes, bytes);
                        }
                    }
                }
            }
        }
    }

    /// Clones share one key table, and a task never takes the lock more
    /// than once: the table grows geometrically and keeps its keys.
    #[test]
    fn key_table_grows_geometrically_and_keeps_its_keys() {
        let m = ScanMapper::new(Predicate::True, vec![], true);
        let first = m.keys.at_least(3);
        assert_eq!(&*first, [Key::from("r0"), Key::from("r1"), Key::from("r2")]);
        let clone = m.clone();
        let grown = clone.keys.at_least(4);
        assert_eq!(grown.len(), 6, "doubles rather than growing by one");
        assert!(Arc::ptr_eq(&first[2], &grown[2]), "kept, not rebuilt");
        assert!(Arc::ptr_eq(&m.keys.at_least(1), &grown), "one shared table");
        assert_eq!(
            format!("{m:?}").matches("r0").count(),
            0,
            "Debug omits keys"
        );
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
