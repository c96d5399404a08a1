//! Execution interfaces: what user code plugs into the framework.
//!
//! Mirrors Hadoop's black-box contract (paper Section II-A): the framework
//! knows nothing about what a [`Mapper`] or [`Reducer`] does — it feeds the
//! mapper a split's data and collects `(key, value)` pairs. Keys are
//! strings (the sampling job uses a single dummy key so all candidates meet
//! in one reduce group); values are [`Record`]s.
//!
//! [`InputFormat`] abstracts where split data comes from.
//! [`DatasetInputFormat`] binds it to an `incmr-data` dataset with a chosen
//! [`ScanMode`] — `Full` hands over every record, `Planted` only the
//! predicate-matching ones (see the `incmr-data::generator` docs for why
//! the two are interchangeable). Either way a split is one shared columnar
//! batch, and every mapper reads it through [`SplitData::select`], the one
//! place that knows a planted split needs no predicate pass.
//!
//! All traits here are `Send + Sync`: the runtime's data plane executes
//! map- and reduce-task record work on a persistent worker pool (see
//! `crate::parallel`), so user logic must be shareable across threads.
//! Implementations take `&self` and the built-ins hold only immutable
//! state, so this costs nothing in practice.
//!
//! Keys are interned as [`Key`] (`Arc<str>`) end-to-end — mappers typically
//! emit many pairs under few distinct keys (the sampling job uses a single
//! dummy key), so sharing one allocation per distinct key instead of one
//! `String` per pair removes the dominant allocation on the shuffle path.

use std::sync::Arc;

use incmr_data::{BatchSelection, Dataset, Predicate, Record, RecordBatch, SelectionVector};
use incmr_dfs::BlockId;

pub use incmr_data::ScanMode;

use crate::shuffle::ValueSeq;

/// An interned map-output key. Cloning is a reference-count bump, so a
/// mapper emitting a million pairs under one key performs one allocation.
pub type Key = Arc<str>;

/// The contents of one input split as handed to a mapper: a shared
/// columnar [`RecordBatch`] (an `Arc` bump per read once stored). A mapper
/// reads it through [`SplitData::select`] and answers with selection
/// vectors into the batch instead of materialised records.
#[derive(Debug, Clone)]
pub enum SplitData {
    /// Every record, in position order.
    Full(Arc<RecordBatch>),
    /// Only the records known to match the dataset's planted predicate,
    /// plus the total count the split holds.
    Planted {
        /// Total records in the split (matching + filler).
        total_records: u64,
        /// The matching records, in scan order.
        matches: Arc<RecordBatch>,
    },
}

impl SplitData {
    /// Total records this split represents.
    pub fn total_records(&self) -> u64 {
        match self {
            SplitData::Full(batch) => batch.len() as u64,
            SplitData::Planted { total_records, .. } => *total_records,
        }
    }

    /// The map side's scan (paper Algorithm 1): the first `limit` rows
    /// satisfying `predicate`, in scan order, as a selection into the
    /// split's shared batch. A full split runs the selection kernel
    /// ([`Predicate::select`]), which stops after the chunk that reaches
    /// `limit`; the split still counts every record it holds
    /// ([`SplitData::total_records`]). A planted split holds only matches,
    /// because the compiler admits no other predicate in planted mode, so
    /// its selection is the prefix `0..min(limit, n)`: O(limit) rather
    /// than O(n).
    pub fn select(
        self,
        predicate: &Predicate,
        limit: usize,
    ) -> (Arc<RecordBatch>, SelectionVector) {
        match self {
            SplitData::Full(batch) => {
                let sel = predicate.select(&batch, limit);
                (batch, sel)
            }
            SplitData::Planted { matches, .. } => {
                debug_assert_eq!(
                    predicate.select(&matches, usize::MAX).len(),
                    matches.len(),
                    "planted contract violated"
                );
                let keep = limit.min(matches.len()) as u32;
                (matches, (0..keep).collect())
            }
        }
    }
}

/// Source of split contents, keyed by DFS block. `Send + Sync` so reads can
/// run on the data-plane worker pool.
pub trait InputFormat: Send + Sync {
    /// Materialise the contents of `block`.
    fn read(&self, block: BlockId) -> SplitData;
}

/// Reads splits from a planned [`Dataset`].
///
/// Both scan modes hand out the dataset's stored [`RecordBatch`] for the
/// block's current version ([`Dataset::batch`]): the first read of a split
/// version anywhere generates it, and every later read — by this job, a
/// re-execution, or any other job over the same dataset — is a
/// reference-count bump.
pub struct DatasetInputFormat {
    dataset: Arc<Dataset>,
    mode: ScanMode,
}

impl DatasetInputFormat {
    /// Bind to a dataset with the given scan mode.
    pub fn new(dataset: Arc<Dataset>, mode: ScanMode) -> Self {
        DatasetInputFormat { dataset, mode }
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }
}

impl InputFormat for DatasetInputFormat {
    fn read(&self, block: BlockId) -> SplitData {
        let (plan, batch) = self.dataset.batch(block, self.mode);
        match self.mode {
            ScanMode::Full => SplitData::Full(batch),
            ScanMode::Planted => SplitData::Planted {
                total_records: plan.spec.records,
                matches: batch,
            },
        }
    }
}

/// A keyed run of batch rows: the zero-copy counterpart of a run of
/// `(Key, Record)` pairs sharing one key. Emitting one of these costs a
/// selection vector — no per-record clones, no per-record key interning.
#[derive(Debug, Clone)]
pub struct KeyedBatch {
    /// The key every selected row is emitted under.
    pub key: Key,
    /// The selected (optionally projected) rows.
    pub rows: BatchSelection,
}

impl KeyedBatch {
    /// Serialized bytes this run contributes to shuffle volume — identical
    /// to the row path's per-record `key.len() + record.width()` sum.
    pub fn shuffle_bytes(&self) -> u64 {
        self.rows.len() as u64 * self.key.len() as u64 + self.rows.total_width()
    }

    /// Materialise into classic pairs (the compatibility boundary).
    pub fn into_pairs(self, out: &mut Vec<(Key, Record)>) {
        let key = &self.key;
        out.extend(self.rows.iter_records().map(|r| (Key::clone(key), r)));
    }
}

/// Materialise a batch-emitting map output into classic pairs, in emission
/// order.
pub fn batches_to_pairs(batches: Vec<KeyedBatch>) -> Vec<(Key, Record)> {
    let mut out = Vec::with_capacity(batches.iter().map(|b| b.rows.len()).sum());
    for b in batches {
        b.into_pairs(&mut out);
    }
    out
}

/// Output of one map task.
///
/// Besides materialised pairs, a mapper may report *unmaterialised* output:
/// records that exist for accounting purposes (output counts, shuffle
/// volume) but whose contents nobody downstream will look at. Large scan
/// jobs use this so that simulating them does not hold millions of records
/// in memory; the reduce phase still sees the correct record counts and
/// byte volumes.
#[derive(Debug, Clone, Default)]
pub struct MapResult {
    /// Emitted `(key, value)` pairs.
    pub pairs: Vec<(Key, Record)>,
    /// Emitted zero-copy batch-row runs. Emission order is defined as all
    /// of `pairs` first, then every batch's rows in batch order — mappers
    /// emit one kind or the other in practice.
    pub batches: Vec<KeyedBatch>,
    /// Records scanned (feeds selectivity estimation).
    pub records_read: u64,
    /// Output records accounted but not materialised.
    pub unmaterialized_outputs: u64,
    /// Bytes of unmaterialised output (for shuffle-volume modelling).
    pub unmaterialized_bytes: u64,
}

/// Records in a run of map output: its pairs plus its batch rows.
pub(crate) fn output_records(pairs: &[(Key, Record)], batches: &[KeyedBatch]) -> u64 {
    pairs.len() as u64 + batches.iter().map(|b| b.rows.len() as u64).sum::<u64>()
}

/// Shuffle bytes of a run of map output, with the same per-record
/// `key.len() + width` model for pairs and batch rows.
pub(crate) fn output_bytes(pairs: &[(Key, Record)], batches: &[KeyedBatch]) -> u64 {
    let pair_bytes: u64 = pairs.iter().map(|(k, v)| k.len() as u64 + v.width()).sum();
    pair_bytes + batches.iter().map(KeyedBatch::shuffle_bytes).sum::<u64>()
}

impl MapResult {
    /// Materialised output records (pairs plus batch rows).
    pub fn materialized_records(&self) -> u64 {
        output_records(&self.pairs, &self.batches)
    }

    /// Materialised output bytes (pairs plus batch rows), computed with
    /// the same per-record `key.len() + width` model either way.
    pub fn materialized_bytes(&self) -> u64 {
        output_bytes(&self.pairs, &self.batches)
    }

    /// Total output records, materialised or not.
    pub fn total_outputs(&self) -> u64 {
        self.materialized_records() + self.unmaterialized_outputs
    }
}

/// User map logic. Invoked once per split, potentially from a worker
/// thread — implementations must be pure with respect to `&self`.
///
/// `run` takes the split data *by value*, so a mapper keeps the shared
/// `Arc<RecordBatch>` that [`SplitData::select`] hands back and emits
/// selections into it.
pub trait Mapper: Send + Sync {
    /// Process a split and return emitted pairs plus counters.
    fn run(&self, data: SplitData) -> MapResult;
}

/// Optional map-side aggregation, Hadoop's classic combiner: folds one map
/// task's emitted pairs *before* they are shuffled. Runs on the data-plane
/// worker right after the mapper, so whatever it removes is never
/// materialised, merged, or counted as shuffle volume.
///
/// The contract matches Hadoop's: a combiner must be an optimisation only.
/// The reducer sees combined pairs in emission order, so for any job output
/// to remain well-defined the combiner must preserve the reducer's result
/// (e.g. pre-truncate for a LIMIT, pre-sum for a sum). The framework does
/// not verify this.
pub trait Combiner: Send + Sync {
    /// Fold one map task's output. Called at most once per map attempt,
    /// with pairs in emission order; returns the pairs to shuffle.
    fn combine(&self, pairs: Vec<(Key, Record)>) -> Vec<(Key, Record)>;

    /// Batch-native fold of a map task's zero-copy output. Return
    /// `Ok(folded)` to keep the output columnar; the default hands the
    /// batches back via `Err`, telling the framework to materialise them
    /// into pairs and fall back to [`Combiner::combine`]. An `Ok` result
    /// must represent the same logical record stream the pair path would
    /// produce.
    fn combine_batches(
        &self,
        batches: Vec<KeyedBatch>,
    ) -> Result<Vec<KeyedBatch>, Vec<KeyedBatch>> {
        Err(batches)
    }
}

/// Reduce output: the rows in emission order, plus one key per run of
/// rows emitted under equal keys. A reduce emits its rows group by group,
/// so a sampling reduce's thousands of rows share one key entry and the
/// rows leave as one vector ([`ReduceOutput::into_rows`]).
///
/// Runs are canonical: no run is empty and adjacent runs have different
/// keys. Two outputs are therefore equal exactly when their `(key, row)`
/// sequences ([`ReduceOutput::iter`]) are.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReduceOutput {
    rows: Vec<Record>,
    /// Each run's key and the end of its rows in `rows`.
    runs: Vec<(Key, usize)>,
}

impl ReduceOutput {
    /// Append one row under `key`.
    pub fn push(&mut self, key: &Key, row: Record) {
        self.rows.push(row);
        self.close_run(key);
    }

    /// Append the rows `build` pushes, all under `key`, straight into the
    /// row vector.
    pub fn fill(&mut self, key: &Key, build: impl FnOnce(&mut Vec<Record>)) {
        let start = self.rows.len();
        build(&mut self.rows);
        if self.rows.len() > start {
            self.close_run(key);
        }
    }

    /// Extend the last run to the end of `rows`, or open a new one when
    /// its key differs.
    fn close_run(&mut self, key: &Key) {
        let end = self.rows.len();
        match self.runs.last_mut() {
            Some((last, last_end)) if last == key => *last_end = end,
            _ => self.runs.push((Key::clone(key), end)),
        }
    }

    /// Rows output.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing was output.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `(key, row)` pairs in emission order.
    pub fn iter(&self) -> ReduceOutputIter<'_> {
        ReduceOutputIter {
            output: self,
            run: 0,
            row: 0,
        }
    }

    /// The rows in emission order, without their keys.
    pub fn into_rows(self) -> Vec<Record> {
        self.rows
    }
}

impl<'a> IntoIterator for &'a ReduceOutput {
    type Item = (&'a Key, &'a Record);
    type IntoIter = ReduceOutputIter<'a>;

    fn into_iter(self) -> ReduceOutputIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`ReduceOutput`]'s `(key, row)` pairs.
#[derive(Debug, Clone)]
pub struct ReduceOutputIter<'a> {
    output: &'a ReduceOutput,
    run: usize,
    row: usize,
}

impl<'a> Iterator for ReduceOutputIter<'a> {
    type Item = (&'a Key, &'a Record);

    fn next(&mut self) -> Option<Self::Item> {
        let row = self.output.rows.get(self.row)?;
        // Runs are never empty, so this steps over at most one run end.
        if self.output.runs[self.run].1 == self.row {
            self.run += 1;
        }
        self.row += 1;
        Some((&self.output.runs[self.run].0, row))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.output.rows.len() - self.row;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ReduceOutputIter<'_> {}

/// User reduce logic. Invoked once per distinct key with all of that key's
/// values, in map-completion order.
///
/// The reduce unit calls [`Reducer::reduce_group`], handing over the
/// shuffled group by value. Its default materialises the group and calls
/// [`Reducer::reduce`], so a reducer that implements only `reduce` works
/// unchanged; a reducer that outputs some of its input rows overrides
/// `reduce_group` to build only those, once, straight into the output.
pub trait Reducer: Send + Sync {
    /// Produce output pairs for one key group.
    fn reduce(&self, key: &Key, values: &[Record], output: &mut Vec<(Key, Record)>);

    /// Produce output for one key group, owning its values.
    /// `output.iter()` must then yield exactly the pairs
    /// [`Reducer::reduce`] outputs for `values.to_rows()`.
    fn reduce_group(&self, key: &Key, values: ValueSeq, output: &mut ReduceOutput) {
        let mut rows = Vec::with_capacity(values.len());
        values.into_records(usize::MAX, |r| rows.push(r));
        let mut pairs = Vec::new();
        self.reduce(key, &rows, &mut pairs);
        for (key, row) in pairs {
            output.push(&key, row);
        }
    }
}

/// The identity reducer: passes every value through unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityReducer;

impl Reducer for IdentityReducer {
    fn reduce(&self, key: &Key, values: &[Record], output: &mut Vec<(Key, Record)>) {
        output.extend(values.iter().map(|v| (Key::clone(key), v.clone())));
    }

    /// Moves materialised rows through and builds each batch row once,
    /// all under one key entry.
    fn reduce_group(&self, key: &Key, values: ValueSeq, output: &mut ReduceOutput) {
        output.fill(key, |rows| {
            rows.reserve(values.len());
            values.into_records(usize::MAX, |v| rows.push(v));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incmr_data::generator::RecordFactory;
    use incmr_data::predicate::SELECT_CHUNK;
    use incmr_data::{ColumnType, DatasetSpec, Schema, SkewLevel, SplitGenerator, Value};
    use incmr_dfs::{ClusterTopology, EvenRoundRobin, Namespace};
    use incmr_simkit::rng::DetRng;

    fn dataset(splits: u32, records: u64) -> (Namespace, Arc<Dataset>) {
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let mut rng = DetRng::seed_from(11);
        let spec = DatasetSpec::small("t", splits, records, SkewLevel::Moderate, 11);
        let ds = Dataset::build(&mut ns, spec, &mut EvenRoundRobin::new(), &mut rng);
        (ns, Arc::new(ds))
    }

    fn small_dataset() -> (Namespace, Arc<Dataset>) {
        dataset(8, 500)
    }

    /// The rows `select` keeps, built once.
    fn selected(data: SplitData, predicate: &Predicate, limit: usize) -> Vec<Record> {
        let (batch, sel) = data.select(predicate, limit);
        BatchSelection::new(batch, sel, Arc::from([]))
            .iter_records()
            .collect()
    }

    #[test]
    fn full_and_planted_modes_agree_on_matches() {
        let (_, ds) = small_dataset();
        let p = ds.factory().predicate();
        let full = DatasetInputFormat::new(Arc::clone(&ds), ScanMode::Full);
        let planted = DatasetInputFormat::new(Arc::clone(&ds), ScanMode::Planted);
        for plan in ds.splits() {
            let (a, b) = (full.read(plan.block), planted.read(plan.block));
            assert!(matches!(a, SplitData::Full(_)));
            assert!(matches!(b, SplitData::Planted { .. }));
            assert_eq!(a.total_records(), b.total_records());
            assert_eq!(selected(a, &p, usize::MAX), selected(b, &p, usize::MAX));
        }
    }

    /// `select` in either mode keeps exactly the first `limit` rows of
    /// the row-at-a-time reference scan: the generator's rows filtered by
    /// the scalar predicate.
    #[test]
    fn select_matches_the_row_oracle_in_both_modes() {
        // Splits of 2,500 rows span three kernel chunks, and the negated
        // planted predicate matches most rows, so the limits either side
        // of a chunk boundary stop the walk there.
        let (_, ds) = dataset(4, 2_500);
        let factory = ds.factory();
        let p = factory.predicate();
        let not_p = Predicate::Not(Box::new(p.clone()));
        let chunk = SELECT_CHUNK;
        let limits = [0, 1, 3, chunk - 1, chunk, chunk + 1, 2 * chunk, usize::MAX];
        let mut matched = 0;
        for (mode, pred) in [
            (ScanMode::Full, &p),
            (ScanMode::Full, &not_p),
            (ScanMode::Planted, &p),
        ] {
            let input = DatasetInputFormat::new(Arc::clone(&ds), mode);
            for plan in ds.splits() {
                let gen = SplitGenerator::new(&factory, plan.spec);
                let oracle: Vec<Record> = gen.full_iter().filter(|r| pred.eval(r)).collect();
                matched += oracle.len();
                for limit in limits {
                    let data = input.read(plan.block);
                    assert_eq!(data.total_records(), plan.spec.records, "{mode:?}");
                    let got = selected(data, pred, limit);
                    let want = &oracle[..limit.min(oracle.len())];
                    assert_eq!(got, want, "{mode:?} {pred:?} limit {limit}");
                }
            }
        }
        assert!(matched > 2 * chunk, "the walk crosses chunk boundaries");
    }

    #[test]
    fn batch_reads_share_one_generation() {
        let (_, ds) = small_dataset();
        let block = ds.splits()[0].block;
        let format = |mode| DatasetInputFormat::new(Arc::clone(&ds), mode);
        assert_eq!(ds.stored_batches(), 0, "nothing read yet");

        // Two formats over one dataset, as two statements' jobs hold.
        let (first, second) = (format(ScanMode::Full), format(ScanMode::Full));
        let (SplitData::Full(a), SplitData::Full(b)) = (first.read(block), second.read(block))
        else {
            panic!()
        };
        assert!(Arc::ptr_eq(&a, &b), "full reads share one generation");
        let (first, second) = (format(ScanMode::Planted), format(ScanMode::Planted));
        let (SplitData::Planted { matches: c, .. }, SplitData::Planted { matches: d, .. }) =
            (first.read(block), second.read(block))
        else {
            panic!()
        };
        assert!(Arc::ptr_eq(&c, &d), "planted reads share one generation");
        assert_eq!(ds.stored_batches(), 2, "one batch per block and kind");
    }

    #[test]
    fn split_data_total_records() {
        let schema = Schema::new(vec![("v", ColumnType::Int)]);
        let one = RecordBatch::from_records(&schema, &[Record::new(vec![Value::Int(1)])]);
        assert_eq!(SplitData::Full(Arc::new(one)).total_records(), 1);
        assert_eq!(SplitData::Full(Arc::default()).total_records(), 0);
        let d = SplitData::Planted {
            total_records: 7,
            matches: Arc::default(),
        };
        assert_eq!(d.total_records(), 7);
    }

    #[test]
    fn keyed_batch_accounting_matches_materialised_pairs() {
        let (_, ds) = small_dataset();
        let input = DatasetInputFormat::new(Arc::clone(&ds), ScanMode::Full);
        let SplitData::Full(batch) = input.read(ds.splits()[0].block) else {
            panic!()
        };
        let kb = KeyedBatch {
            key: Key::from("__k__"),
            rows: BatchSelection::all(batch),
        };
        let expect: u64 = {
            let mut pairs = Vec::new();
            kb.clone().into_pairs(&mut pairs);
            pairs.iter().map(|(k, v)| k.len() as u64 + v.width()).sum()
        };
        assert_eq!(kb.shuffle_bytes(), expect);
    }

    #[test]
    fn identity_reducer_passes_values_through() {
        let r = IdentityReducer;
        let vals = vec![
            Record::new(vec![Value::Int(1)]),
            Record::new(vec![Value::Int(2)]),
        ];
        let mut out = Vec::new();
        r.reduce(&Key::from("k"), &vals, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|(k, _)| &**k == "k"));
    }
}
