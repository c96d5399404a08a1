//! The predicate-based-sampling map and reduce logic — Algorithms 1 and 2
//! of the paper.
//!
//! * **Map** (Algorithm 1): scan every record of the split; while fewer
//!   than `k` matches have been found *by this task*, emit each record
//!   satisfying the predicate under a dummy key. Each map task caps at `k`
//!   because "it is possible that none of the other map tasks output any
//!   desirable results".
//! * **Reduce** (Algorithm 2): the single reduce task receives every
//!   emitted value under the dummy key and outputs the first `k` (or all,
//!   if fewer). The footnote's "random k instead, to get more random
//!   results" variant is [`SampleMode::RandomK`], implemented as a
//!   reservoir sample.
//!
//! These two functions are the only places `k` is enforced. The shuffle
//! hands the reducer every candidate the maps emitted, so a random-k
//! sample keeps each of `n` candidates with probability `k/n`
//! (`tests/sample_oracle.rs` checks this with a chi-square test over
//! seeds).

use std::sync::Arc;

use incmr_data::{BatchSelection, Predicate, Record};
use incmr_mapreduce::{
    Combiner, Key, KeyedBatch, MapResult, Mapper, ReduceOutput, Reducer, SplitData, ValueSeq,
};
use incmr_simkit::rng::DetRng;
use rand::Rng;

/// The dummy key all sampling map outputs share, forcing a single reduce
/// group.
pub const DUMMY_KEY: &str = "__k_dummy__";

/// How the reducer trims an over-full candidate list down to `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleMode {
    /// Take the first `k` values (paper Algorithm 2).
    FirstK,
    /// Reservoir-sample `k` values with the given seed (paper footnote 1).
    RandomK {
        /// Seed for the reservoir's RNG.
        seed: u64,
    },
}

/// Algorithm 1: the sampling map function.
#[derive(Debug, Clone)]
pub struct SamplingMapper {
    predicate: Predicate,
    k: u64,
    projection: Arc<[usize]>,
    dummy: Key,
}

impl SamplingMapper {
    /// A mapper emitting up to `k` records matching `predicate` per split.
    pub fn new(predicate: Predicate, k: u64) -> Self {
        Self::with_projection(predicate, k, Vec::new())
    }

    /// Like [`SamplingMapper::new`], additionally projecting each emitted
    /// record down to the given column indices (map-side projection, as the
    /// paper's `SELECT ORDERKEY, PARTKEY, SUPPKEY` template implies). An
    /// empty projection keeps whole records.
    pub fn with_projection(predicate: Predicate, k: u64, projection: Vec<usize>) -> Self {
        assert!(k > 0, "sample size must be positive");
        SamplingMapper {
            predicate,
            k,
            projection: projection.into(),
            dummy: Key::from(DUMMY_KEY),
        }
    }

    /// The predicate being evaluated.
    pub fn predicate(&self) -> &Predicate {
        &self.predicate
    }
}

impl Mapper for SamplingMapper {
    /// The Algorithm 1 loop: select the split's first `k` matches in scan
    /// order and emit them as one keyed batch under the dummy key. The
    /// payload is an `Arc` bump plus the selection indices; no `Record` is
    /// built until the reduce boundary.
    fn run(&self, data: SplitData) -> MapResult {
        let records_read = data.total_records();
        let (batch, sel) = data.select(&self.predicate, self.k as usize);
        MapResult {
            batches: vec![KeyedBatch {
                key: Key::clone(&self.dummy),
                rows: BatchSelection::new(batch, sel, Arc::clone(&self.projection)),
            }],
            records_read,
            ..MapResult::default()
        }
    }
}

/// Algorithm 2: the sampling reduce function.
#[derive(Debug, Clone)]
pub struct SamplingReducer {
    k: u64,
    mode: SampleMode,
}

/// Which values of a group the sample keeps, in output order.
enum Kept {
    /// The first `n` values.
    Prefix(usize),
    /// The values at these positions.
    Picks(Vec<usize>),
}

impl SamplingReducer {
    /// A reducer producing a sample of at most `k` values.
    pub fn new(k: u64, mode: SampleMode) -> Self {
        assert!(k > 0, "sample size must be positive");
        SamplingReducer { k, mode }
    }

    /// The values a group of `len` keeps: all of them when they fit, else
    /// the first `k`, or the `k` winners of Vitter's Algorithm R drawn
    /// over positions.
    fn kept(&self, len: usize) -> Kept {
        let k = self.k as usize;
        if len <= k {
            return Kept::Prefix(len);
        }
        match self.mode {
            SampleMode::FirstK => Kept::Prefix(k),
            SampleMode::RandomK { seed } => {
                let mut rng = DetRng::seed_from(seed);
                let mut reservoir: Vec<usize> = (0..k).collect();
                for i in k..len {
                    let j = rng.gen_range(0..=i);
                    if j < k {
                        reservoir[j] = i;
                    }
                }
                Kept::Picks(reservoir)
            }
        }
    }
}

impl Reducer for SamplingReducer {
    fn reduce(&self, key: &Key, values: &[Record], output: &mut Vec<(Key, Record)>) {
        let pair = |v: &Record| (Key::clone(key), v.clone());
        match self.kept(values.len()) {
            Kept::Prefix(n) => output.extend(values[..n].iter().map(pair)),
            Kept::Picks(positions) => output.extend(positions.iter().map(|&i| pair(&values[i]))),
        }
    }

    /// Builds only the kept rows, straight into the output under one key
    /// entry.
    fn reduce_group(&self, key: &Key, values: ValueSeq, output: &mut ReduceOutput) {
        output.fill(key, |rows| match self.kept(values.len()) {
            Kept::Prefix(n) => {
                rows.reserve(n);
                values.into_records(n, |v| rows.push(v));
            }
            Kept::Picks(positions) => {
                rows.reserve(positions.len());
                values.select(&positions, |v| rows.push(v));
            }
        });
    }
}

/// The sampling job's map-side combiner: a per-task LIMIT push-down. No
/// task can contribute more than `k` values to the final sample, so
/// anything past the first `k` pairs a map task emits is dead weight in
/// the shuffle. [`SamplingMapper`] already caps its own emission at `k`,
/// so for the standard sampling job this combiner is a
/// behaviour-preserving no-op — it exists to guard uncapped mappers (and
/// to demonstrate the combiner plumbing end to end; see
/// `benches/shuffle.rs`). It bounds each task, never the job: the
/// reducer still receives every task's candidates.
#[derive(Debug, Clone)]
pub struct SampleCombiner {
    k: u64,
}

impl SampleCombiner {
    /// Keep at most `k` pairs per map task.
    pub fn new(k: u64) -> Self {
        assert!(k > 0, "sample size must be positive");
        SampleCombiner { k }
    }
}

impl Combiner for SampleCombiner {
    fn combine(&self, mut pairs: Vec<(Key, Record)>) -> Vec<(Key, Record)> {
        pairs.truncate(self.k as usize);
        pairs
    }

    /// LIMIT push-down stays columnar: truncating a selection vector is
    /// the whole combine, so batches never need materialising.
    fn combine_batches(
        &self,
        mut batches: Vec<KeyedBatch>,
    ) -> Result<Vec<KeyedBatch>, Vec<KeyedBatch>> {
        let mut budget = self.k as usize;
        batches.retain_mut(|b| {
            let take = budget.min(b.rows.len());
            b.rows.truncate(take);
            budget -= take;
            take > 0
        });
        Ok(batches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incmr_data::{
        generator::{RecordFactory, SplitGenerator, SplitSpec},
        lineitem::{col, LineItemFactory},
        Value,
    };

    fn factory() -> LineItemFactory {
        LineItemFactory::new(col::QUANTITY, Value::Int(200))
    }

    fn generator(
        f: &LineItemFactory,
        records: u64,
        matching: u64,
        seed: u64,
    ) -> SplitGenerator<'_, LineItemFactory> {
        SplitGenerator::new(f, SplitSpec::new(records, matching, seed))
    }

    fn full_split(records: u64, matching: u64, seed: u64) -> SplitData {
        let f = factory();
        SplitData::Full(Arc::new(
            generator(&f, records, matching, seed).full_batch(),
        ))
    }

    fn planted_split(records: u64, matching: u64, seed: u64) -> SplitData {
        let f = factory();
        SplitData::Planted {
            total_records: records,
            matches: Arc::new(generator(&f, records, matching, seed).planted_batch()),
        }
    }

    /// The row reference: the split's records, generated one at a time and
    /// filtered by the scalar predicate, in scan order.
    fn oracle(records: u64, matching: u64, seed: u64) -> Vec<Record> {
        let f = factory();
        let p = f.predicate();
        generator(&f, records, matching, seed)
            .full_iter()
            .filter(|r| p.eval(r))
            .collect()
    }

    /// Flatten a MapResult (pairs then batch rows) into concrete pairs.
    fn all_pairs(out: &MapResult) -> Vec<(Key, Record)> {
        let mut pairs = out.pairs.clone();
        for b in &out.batches {
            pairs.extend(b.rows.iter_records().map(|r| (Key::clone(&b.key), r)));
        }
        pairs
    }

    #[test]
    fn full_mode_emits_matches_under_dummy_key() {
        let m = SamplingMapper::new(factory().predicate(), 100);
        let out = m.run(full_split(1_000, 17, 3));
        let pairs = all_pairs(&out);
        assert_eq!(pairs.len(), 17);
        assert_eq!(out.records_read, 1_000, "Algorithm 1 scans the whole split");
        assert!(pairs.iter().all(|(k, _)| &**k == DUMMY_KEY));
        assert!(pairs.iter().all(|(_, r)| m.predicate().eval(r)));
    }

    #[test]
    fn map_output_caps_at_k_per_task() {
        let m = SamplingMapper::new(factory().predicate(), 5);
        let out = m.run(full_split(1_000, 17, 3));
        assert_eq!(out.materialized_records(), 5);
        assert_eq!(out.records_read, 1_000);
    }

    #[test]
    fn projection_is_applied_map_side() {
        let m = SamplingMapper::with_projection(
            factory().predicate(),
            100,
            vec![col::ORDERKEY, col::SUPPKEY],
        );
        for data in [full_split(1_000, 9, 4), planted_split(1_000, 9, 4)] {
            let pairs = all_pairs(&m.run(data));
            assert_eq!(pairs.len(), 9);
            assert!(pairs.iter().all(|(_, r)| r.arity() == 2));
        }
    }

    #[test]
    fn planted_mode_matches_full_mode() {
        let m = SamplingMapper::new(factory().predicate(), 8);
        let a = m.run(full_split(2_000, 30, 7));
        let b = m.run(planted_split(2_000, 30, 7));
        assert_eq!(a.records_read, b.records_read);
        assert_eq!(all_pairs(&a), all_pairs(&b));
        assert_eq!(a.materialized_bytes(), b.materialized_bytes());
    }

    #[test]
    fn batch_modes_match_the_row_oracle() {
        // The vectorised map over a columnar split must agree with the
        // scalar row reference pair-for-pair, including the per-task cap
        // and the shuffle-byte accounting, in both scan modes.
        let projected = vec![col::ORDERKEY, col::SUPPKEY];
        for (k, projection, label) in [
            (8, vec![], "capped"),
            (1_000, vec![], "uncapped"),
            (8, projected, "projected"),
        ] {
            let m = SamplingMapper::with_projection(factory().predicate(), k, projection.clone());
            let want: Vec<(Key, Record)> = oracle(2_000, 30, 7)
                .into_iter()
                .take(k as usize)
                .map(|r| {
                    if projection.is_empty() {
                        r
                    } else {
                        r.project(&projection)
                    }
                })
                .map(|r| (Key::from(DUMMY_KEY), r))
                .collect();
            let want_bytes: u64 = want.iter().map(|(k, r)| k.len() as u64 + r.width()).sum();
            for (data, mode) in [
                (full_split(2_000, 30, 7), "full"),
                (planted_split(2_000, 30, 7), "planted"),
            ] {
                let out = m.run(data);
                assert_eq!(all_pairs(&out), want, "{mode}/{label}");
                assert_eq!(out.records_read, 2_000, "{mode}/{label}");
                assert_eq!(out.materialized_bytes(), want_bytes, "{mode}/{label}");
            }
        }
    }

    #[test]
    fn combiner_batch_path_truncates_without_materialising() {
        let m = SamplingMapper::new(factory().predicate(), 1_000);
        let out = m.run(full_split(2_000, 30, 7));
        let c = SampleCombiner::new(9);
        let combined = c
            .combine_batches(out.batches)
            .expect("sampling combiner keeps batches columnar");
        let total: usize = combined.iter().map(|b| b.rows.len()).sum();
        assert_eq!(total, 9);
        // Same survivors the row combine would keep: the selection prefix.
        let key = Key::from(DUMMY_KEY);
        let rows = oracle(2_000, 30, 7)
            .into_iter()
            .map(|r| (Key::clone(&key), r))
            .collect();
        let expect = c.combine(rows);
        let got: Vec<(Key, Record)> = combined
            .iter()
            .flat_map(|b| b.rows.iter_records().map(|r| (Key::clone(&b.key), r)))
            .collect();
        assert_eq!(got, expect[..9].to_vec());
    }

    fn recs(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(vec![Value::Int(i as i64)]))
            .collect()
    }

    #[test]
    fn reduce_passes_small_lists_through() {
        let r = SamplingReducer::new(10, SampleMode::FirstK);
        let mut out = Vec::new();
        r.reduce(&Key::from(DUMMY_KEY), &recs(4), &mut out);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn reduce_first_k_takes_a_prefix() {
        let r = SamplingReducer::new(3, SampleMode::FirstK);
        let mut out = Vec::new();
        r.reduce(&Key::from(DUMMY_KEY), &recs(10), &mut out);
        let got: Vec<i64> = out
            .iter()
            .map(|(_, rec)| match rec.get(0) {
                Value::Int(v) => *v,
                _ => panic!(),
            })
            .collect();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn reduce_random_k_is_seeded_and_k_sized() {
        let r = SamplingReducer::new(5, SampleMode::RandomK { seed: 9 });
        let values = recs(100);
        let mut a = Vec::new();
        let mut b = Vec::new();
        r.reduce(&Key::from(DUMMY_KEY), &values, &mut a);
        r.reduce(&Key::from(DUMMY_KEY), &values, &mut b);
        assert_eq!(a.len(), 5);
        assert_eq!(a, b, "same seed, same sample");
        let r2 = SamplingReducer::new(5, SampleMode::RandomK { seed: 10 });
        let mut c = Vec::new();
        r2.reduce(&Key::from(DUMMY_KEY), &values, &mut c);
        assert_ne!(a, c, "different seed, different sample");
    }

    /// A reduce stores one key per run of rows, not one per row: after
    /// `ReduceUnit::compute` over a 10,000-row dummy-key group, the
    /// group's key is held by this test and by the output's one run. The
    /// allocation guard cannot see this, because cloning a key bumps a
    /// refcount and allocates nothing.
    #[test]
    fn a_reduce_holds_its_key_once_not_per_row() {
        use incmr_mapreduce::{IdentityReducer, KeyGroups, ReduceUnit, WorkUnit};

        const ROWS: u64 = 10_000;
        let key = Key::from(DUMMY_KEY);
        let SplitData::Full(batch) = full_split(ROWS, 0, 5) else {
            unreachable!("a full split")
        };
        let mut group = ValueSeq::default();
        group.push_batch(BatchSelection::new(
            batch,
            (0..ROWS as u32).collect(),
            Arc::from([]),
        ));
        let cases: [(Arc<dyn Reducer>, usize); 3] = [
            (
                Arc::new(SamplingReducer::new(ROWS, SampleMode::FirstK)),
                10_000,
            ),
            (
                Arc::new(SamplingReducer::new(4_000, SampleMode::RandomK { seed: 3 })),
                4_000,
            ),
            (Arc::new(IdentityReducer), 10_000),
        ];
        for (reducer, kept) in cases {
            let mut groups = KeyGroups::default();
            groups.insert(Key::clone(&key), group.clone());
            let unit = ReduceUnit {
                reducer,
                key_order: vec![Key::clone(&key)],
                groups,
            };
            let result = unit.compute();
            assert_eq!(result.output.len(), kept);
            assert!(result.output.iter().all(|(k, _)| Arc::ptr_eq(k, &key)));
            assert_eq!(
                Arc::strong_count(&key),
                2,
                "the test's key and the output's one run; a key per row reads {}",
                kept + 1
            );
        }
    }

    #[test]
    fn combiner_truncates_to_k_and_keeps_prefix_order() {
        let c = SampleCombiner::new(3);
        let key = Key::from(DUMMY_KEY);
        let pairs: Vec<(Key, Record)> = recs(10)
            .into_iter()
            .map(|r| (Key::clone(&key), r))
            .collect();
        let out = c.combine(pairs.clone());
        assert_eq!(out.len(), 3);
        assert_eq!(out[..], pairs[..3]);
        assert_eq!(c.combine(pairs[..2].to_vec()).len(), 2, "short lists pass");
    }

    #[test]
    fn reservoir_is_approximately_uniform() {
        // Sample 1 of 4 many times; each element should appear ~25%.
        let values = recs(4);
        let mut counts = [0u32; 4];
        for seed in 0..4_000 {
            let r = SamplingReducer::new(1, SampleMode::RandomK { seed });
            let mut out = Vec::new();
            r.reduce(&Key::from(DUMMY_KEY), &values, &mut out);
            let Value::Int(v) = out[0].1.get(0) else {
                panic!()
            };
            counts[*v as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (800..=1_200).contains(&c),
                "reservoir badly skewed: {counts:?}"
            );
        }
    }
}
