//! Deterministic per-split record streams.
//!
//! Each input split's contents are a pure function of `(seed, records,
//! matching)` and a [`RecordFactory`]. Matching records are planted at
//! seeded random positions; every other position holds a filler record that
//! is guaranteed not to satisfy the factory's predicate.
//!
//! Two access paths exist:
//!
//! * **Full scan** ([`SplitGenerator::full_iter`]) materialises every record
//!   in position order — this is what unit tests, property tests, and small
//!   examples run the real predicate over.
//! * **Planted scan** ([`SplitGenerator::planted_matches`]) materialises
//!   only the matching records (same contents, same order as the full scan's
//!   matches) — this is what large simulated map tasks use, so simulating a
//!   600M-row dataset never generates 600M rows.
//!
//! The two paths share RNG streams by construction (separate forks for
//! positions, matching contents, and filler contents), so *planted ≡
//! filter(full)* exactly; `tests/` pins that with a property test.
//!
//! Production reads neither row path. [`SplitGenerator::full_batch`] and
//! [`SplitGenerator::planted_batch`] hand the same streams to the factory's
//! one split-level method, [`RecordFactory::split_batch`], which writes the
//! rows straight into typed columns. `full_batch` tells planted rows from
//! fillers with a cursor over the sorted
//! [`SplitGenerator::matching_positions`]. The row paths stay as the
//! reference the batch ≡ row proptests (`tests/batch_equivalence.rs`)
//! compare whole batches against.

use std::collections::HashSet;

use incmr_simkit::rng::DetRng;
use rand::Rng;

use crate::batch::RecordBatch;
use crate::predicate::Predicate;
use crate::schema::Schema;
use crate::value::Record;

/// Produces the records of a dataset: planted matches and natural fillers.
pub trait RecordFactory {
    /// The schema all produced records conform to.
    fn schema(&self) -> Schema;
    /// The predicate that exactly the matching records satisfy.
    fn predicate(&self) -> Predicate;
    /// Generate one predicate-matching record.
    fn matching(&self, rng: &mut DetRng) -> Record;
    /// Generate one record guaranteed not to match.
    fn filler(&self, rng: &mut DetRng) -> Record;

    /// Generate `rows` records straight into one columnar batch. Row `pos`
    /// is a matching record drawn from `match_rng` when `is_match(pos)`,
    /// else a filler drawn from `fill_rng`; `is_match` is called once per
    /// row, in ascending `pos` order.
    ///
    /// The batch must equal [`RecordBatch::from_records`] over the records
    /// the same sequence of [`RecordFactory::matching`] and
    /// [`RecordFactory::filler`] calls returns, dictionary order included.
    fn split_batch(
        &self,
        rows: u64,
        is_match: impl FnMut(u64) -> bool,
        match_rng: &mut DetRng,
        fill_rng: &mut DetRng,
    ) -> RecordBatch;
}

/// Size and seed of one split's contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitSpec {
    /// Total records in the split.
    pub records: u64,
    /// How many of them match the predicate.
    pub matching: u64,
    /// Seed for this split's streams.
    pub seed: u64,
}

impl SplitSpec {
    /// Validated constructor.
    ///
    /// # Panics
    /// Panics if `matching > records`.
    pub fn new(records: u64, matching: u64, seed: u64) -> Self {
        assert!(
            matching <= records,
            "cannot plant {matching} matches into {records} records"
        );
        SplitSpec {
            records,
            matching,
            seed,
        }
    }
}

/// Generator for one split's record stream.
pub struct SplitGenerator<'f, F: RecordFactory> {
    factory: &'f F,
    spec: SplitSpec,
}

impl<'f, F: RecordFactory> SplitGenerator<'f, F> {
    /// Bind a factory to a split spec.
    pub fn new(factory: &'f F, spec: SplitSpec) -> Self {
        SplitGenerator { factory, spec }
    }

    /// The spec this generator was built from.
    pub fn spec(&self) -> SplitSpec {
        self.spec
    }

    fn root(&self) -> DetRng {
        DetRng::seed_from(self.spec.seed)
    }

    /// The positions (ascending) at which matching records sit, chosen by
    /// Floyd's algorithm — `O(matching)` regardless of split size.
    pub fn matching_positions(&self) -> Vec<u64> {
        let mut rng = self.root().fork_named("positions");
        let n = self.spec.records;
        let k = self.spec.matching;
        let mut chosen: HashSet<u64> = HashSet::with_capacity(k as usize);
        for j in (n - k)..n {
            let t = rng.gen_range(0..=j);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        let mut positions: Vec<u64> = chosen.into_iter().collect();
        positions.sort_unstable();
        positions
    }

    /// Every record of the split, in position order.
    pub fn full_iter(&self) -> impl Iterator<Item = Record> + '_ {
        let positions: HashSet<u64> = self.matching_positions().into_iter().collect();
        let mut match_rng = self.root().fork_named("matching");
        let mut fill_rng = self.root().fork_named("filler");
        (0..self.spec.records).map(move |pos| {
            if positions.contains(&pos) {
                self.factory.matching(&mut match_rng)
            } else {
                self.factory.filler(&mut fill_rng)
            }
        })
    }

    /// The whole split as one columnar batch, rows in position order.
    /// Consumes the RNG streams exactly as [`SplitGenerator::full_iter`]
    /// does, so `full_batch().to_records() == full_iter().collect()`
    /// byte-for-byte (pinned by a test below). A cursor walks the sorted
    /// [`SplitGenerator::matching_positions`] alongside the rows, so
    /// telling a planted row from a filler is one comparison.
    pub fn full_batch(&self) -> RecordBatch {
        let mut planted = self.matching_positions().into_iter().peekable();
        self.factory.split_batch(
            self.spec.records,
            |pos| planted.next_if_eq(&pos).is_some(),
            &mut self.root().fork_named("matching"),
            &mut self.root().fork_named("filler"),
        )
    }

    /// Only the matching records as a columnar batch — the batched
    /// counterpart of [`SplitGenerator::planted_matches`].
    pub fn planted_batch(&self) -> RecordBatch {
        self.factory.split_batch(
            self.spec.matching,
            |_| true,
            &mut self.root().fork_named("matching"),
            &mut self.root().fork_named("filler"),
        )
    }

    /// Only the matching records, in the same order the full scan would
    /// encounter them. `O(matching)` time and space.
    pub fn planted_matches(&self) -> Vec<Record> {
        let mut match_rng = self.root().fork_named("matching");
        (0..self.spec.matching)
            .map(|_| self.factory.matching(&mut match_rng))
            .collect()
    }

    /// Run the real predicate over a full scan and count matches — test
    /// helper asserting the planted construction.
    pub fn count_matches_full(&self) -> u64 {
        let p = self.factory.predicate();
        self.full_iter().filter(|r| p.eval(r)).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineitem::{col, LineItemFactory};
    use crate::value::Value;

    fn factory() -> LineItemFactory {
        LineItemFactory::new(col::QUANTITY, Value::Int(200))
    }

    #[test]
    fn full_scan_contains_exactly_the_planted_matches() {
        let f = factory();
        let g = SplitGenerator::new(&f, SplitSpec::new(2_000, 37, 99));
        assert_eq!(g.count_matches_full(), 37);
        assert_eq!(g.full_iter().count(), 2_000);
    }

    #[test]
    fn planted_equals_filtered_full_scan() {
        let f = factory();
        let g = SplitGenerator::new(&f, SplitSpec::new(1_500, 25, 7));
        let p = f.predicate();
        let from_full: Vec<Record> = g.full_iter().filter(|r| p.eval(r)).collect();
        let planted = g.planted_matches();
        assert_eq!(from_full, planted);
    }

    #[test]
    fn zero_matches_and_all_matches_edge_cases() {
        let f = factory();
        let none = SplitGenerator::new(&f, SplitSpec::new(100, 0, 1));
        assert_eq!(none.count_matches_full(), 0);
        assert!(none.planted_matches().is_empty());
        let all = SplitGenerator::new(&f, SplitSpec::new(50, 50, 1));
        assert_eq!(all.count_matches_full(), 50);
        assert_eq!(all.planted_matches().len(), 50);
    }

    #[test]
    fn positions_are_distinct_sorted_in_range() {
        let f = factory();
        let g = SplitGenerator::new(&f, SplitSpec::new(500, 100, 3));
        let pos = g.matching_positions();
        assert_eq!(pos.len(), 100);
        assert!(pos.windows(2).all(|w| w[0] < w[1]));
        assert!(pos.iter().all(|&p| p < 500));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let f = factory();
        let a: Vec<Record> = SplitGenerator::new(&f, SplitSpec::new(200, 10, 5))
            .full_iter()
            .collect();
        let b: Vec<Record> = SplitGenerator::new(&f, SplitSpec::new(200, 10, 5))
            .full_iter()
            .collect();
        let c: Vec<Record> = SplitGenerator::new(&f, SplitSpec::new(200, 10, 6))
            .full_iter()
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "cannot plant")]
    fn overfull_split_panics() {
        let _ = SplitSpec::new(10, 11, 0);
    }

    #[test]
    fn full_batch_equals_full_iter_byte_for_byte() {
        let f = factory();
        let g = SplitGenerator::new(&f, SplitSpec::new(1_200, 31, 42));
        let rows: Vec<Record> = g.full_iter().collect();
        let batch = g.full_batch();
        assert_eq!(batch.len(), rows.len());
        assert_eq!(batch.to_records(), rows);
    }

    #[test]
    fn planted_batch_equals_planted_matches() {
        for sentinel in [
            LineItemFactory::new(col::QUANTITY, Value::Int(200)),
            LineItemFactory::new(col::SHIPMODE, Value::Str("WARP".into())),
        ] {
            let g = SplitGenerator::new(&sentinel, SplitSpec::new(800, 40, 9));
            assert_eq!(g.planted_batch().to_records(), g.planted_matches());
        }
    }

    #[test]
    fn batched_scan_predicate_agrees_with_planted_positions() {
        let f = factory();
        let g = SplitGenerator::new(&f, SplitSpec::new(2_000, 55, 17));
        let batch = g.full_batch();
        let sel = f.predicate().select(&batch, usize::MAX);
        let expect: Vec<u32> = g.matching_positions().iter().map(|&p| p as u32).collect();
        assert_eq!(sel, expect);
    }
}
