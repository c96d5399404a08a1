//! End-to-end dataset construction: place a partitioned LINEITEM file on the
//! DFS and plan, per split, how many predicate-matching records it holds.
//!
//! Mirrors Table II of the paper: LINEITEM generated at scales 5–100, evenly
//! distributed across the 40 disks with no replication; a scale unit is
//! 6 M rows (TPC-H SF1 ≈ 6.0 M LINEITEM rows) in 8 partitions, so 5× → 30 M
//! rows in 40 partitions, 100× → 600 M rows in 800 partitions.
//!
//! A dataset also owns its splits' generated contents ([`Dataset::batch`]):
//! each split version is generated on its first read and shared by every
//! later reader, whichever job or input format asks.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use incmr_dfs::{BlockId, BlockSpec, FileId, Namespace, PlacementPolicy};
use incmr_simkit::rng::DetRng;

use crate::batch::RecordBatch;
use crate::generator::{SplitGenerator, SplitSpec};
use crate::lineitem::LineItemFactory;
use crate::queries::{PaperPredicate, SkewLevel, PAPER_SELECTIVITY};
use crate::skew;

/// LINEITEM rows per scale unit (TPC-H SF1).
pub const ROWS_PER_SCALE: u64 = 6_000_000;

/// Input partitions per scale unit (5× → 40 partitions, matching the paper's
/// "5x input gets partitioned into 40 partitions when stored in HDFS").
pub const PARTITIONS_PER_SCALE: u32 = 8;

/// Modelled on-disk bytes per LINEITEM row (dbgen text rows average ≈126 B).
pub const ROW_BYTES: u64 = 126;

/// Everything needed to lay a dataset out and plant its matches.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// DFS file name (unique per dataset copy).
    pub name: String,
    /// Number of input partitions (= splits = blocks).
    pub partitions: u32,
    /// Records per partition.
    pub records_per_partition: u64,
    /// Skew of the matching-record distribution.
    pub skew: SkewLevel,
    /// Overall fraction of records that match the predicate.
    pub selectivity: f64,
    /// Root seed for this dataset's contents.
    pub seed: u64,
}

impl DatasetSpec {
    /// The paper's configuration at a given TPC-H scale (5, 10, 20, 40,
    /// 100), with selectivity 0.05%.
    pub fn paper_scale(name: &str, scale: u32, skew: SkewLevel, seed: u64) -> Self {
        assert!(scale > 0);
        DatasetSpec {
            name: name.to_string(),
            partitions: scale * PARTITIONS_PER_SCALE,
            records_per_partition: ROWS_PER_SCALE / PARTITIONS_PER_SCALE as u64,
            skew,
            selectivity: PAPER_SELECTIVITY,
            seed,
        }
    }

    /// A small configuration for tests and examples.
    pub fn small(
        name: &str,
        partitions: u32,
        records_per_partition: u64,
        skew: SkewLevel,
        seed: u64,
    ) -> Self {
        assert!(partitions > 0 && records_per_partition > 0);
        DatasetSpec {
            name: name.to_string(),
            partitions,
            records_per_partition,
            skew,
            selectivity: PAPER_SELECTIVITY,
            seed,
        }
    }

    /// Total records across all partitions.
    pub fn total_records(&self) -> u64 {
        self.partitions as u64 * self.records_per_partition
    }

    /// Total matching records implied by the selectivity (rounded).
    pub fn total_matching(&self) -> u64 {
        (self.total_records() as f64 * self.selectivity).round() as u64
    }
}

/// One split's plan: which DFS block it is and what it contains.
#[derive(Debug, Clone, Copy)]
pub struct SplitPlan {
    /// The DFS block backing this split.
    pub block: BlockId,
    /// Its contents (records, planted matches, seed).
    pub spec: SplitSpec,
    /// Content version, mirroring the DFS block's counter: 0 as built,
    /// bumped by every [`Dataset::mutate`]. The memoization plane keys
    /// cached map output on this.
    pub version: u32,
}

/// The evolving half of a dataset: per-split plans, indexed by block.
/// Behind a lock because [`Dataset`] is shared as `Arc<Dataset>` with the
/// data plane while append/mutate schedules rewrite it between jobs.
#[derive(Debug)]
struct PlanState {
    plans: Vec<SplitPlan>,
    by_block: HashMap<BlockId, usize>,
}

/// How a scan reads a split: which generated form of it
/// [`Dataset::batch`] hands out. Either way the split is a shared columnar
/// batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScanMode {
    /// Every record, in position order ([`SplitGenerator::full_batch`]):
    /// the default full-scan path.
    Full,
    /// Only the planted matches ([`SplitGenerator::planted_batch`]): large
    /// simulated runs.
    Planted,
}

/// Generated split batches keyed by `(block, mode)`, each tagged with the
/// plan version it was generated from.
type BatchMap = HashMap<(BlockId, ScanMode), (u32, Arc<RecordBatch>)>;

/// A dataset's generated batches: at most one per `(block, mode)`, always
/// of the block's current version.
#[derive(Default)]
struct BatchStore(Mutex<BatchMap>);

impl BatchStore {
    fn entries(&self) -> MutexGuard<'_, BatchMap> {
        self.0.lock().expect("batch store")
    }
}

/// Batches are whole splits: too large to print, so `Debug` omits them.
impl fmt::Debug for BatchStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchStore").finish_non_exhaustive()
    }
}

/// A materialised (planned) dataset: the DFS file plus per-split plans.
///
/// Plans are interior-mutable so an `Arc<Dataset>` handed to the runtime's
/// input format stays valid while the dataset evolves ([`Dataset::append`] /
/// [`Dataset::mutate`]) between job runs. Generated split contents live in
/// a store shared by every reader of the dataset ([`Dataset::batch`]).
#[derive(Debug)]
pub struct Dataset {
    spec: DatasetSpec,
    file: FileId,
    state: RwLock<PlanState>,
    batches: BatchStore,
}

/// A clone copies the plans; its batch store starts empty.
impl Clone for Dataset {
    fn clone(&self) -> Self {
        let state = self.state.read().expect("dataset plans");
        Dataset {
            spec: self.spec.clone(),
            file: self.file,
            state: RwLock::new(PlanState {
                plans: state.plans.clone(),
                by_block: state.by_block.clone(),
            }),
            batches: BatchStore::default(),
        }
    }
}

impl Dataset {
    /// Create the DFS file and plant matching records per the skew spec.
    ///
    /// # Panics
    /// Panics if the DFS file name already exists (datasets are created once
    /// per experiment) — construction errors here are programming bugs, not
    /// runtime conditions.
    pub fn build(
        namespace: &mut Namespace,
        spec: DatasetSpec,
        placement: &mut dyn PlacementPolicy,
        rng: &mut DetRng,
    ) -> Dataset {
        let mut skew_rng = rng.fork_named("skew");
        let counts = skew::assign_matching(
            spec.total_matching(),
            spec.partitions as usize,
            spec.skew.z(),
            &mut skew_rng,
        );
        let capacity = vec![spec.records_per_partition; spec.partitions as usize];
        let counts = skew::cap_to_capacity(counts, &capacity, &mut skew_rng);

        let block_specs: Vec<BlockSpec> = (0..spec.partitions)
            .map(|_| BlockSpec {
                bytes: spec.records_per_partition * ROW_BYTES,
                records: spec.records_per_partition,
            })
            .collect();
        let mut place_rng = rng.fork_named("placement");
        let file = namespace
            .create_file(&spec.name, &block_specs, placement, &mut place_rng)
            .expect("dataset file name must be unique");

        let seed_root = DetRng::seed_from(spec.seed);
        let plans: Vec<SplitPlan> = namespace
            .blocks_of(file)
            .iter()
            .enumerate()
            .map(|(i, &block)| SplitPlan {
                block,
                spec: SplitSpec::new(
                    spec.records_per_partition,
                    counts[i],
                    seed_root.fork(i as u64).seed(),
                ),
                version: 0,
            })
            .collect();
        let by_block = plans
            .iter()
            .enumerate()
            .map(|(i, p)| (p.block, i))
            .collect();
        Dataset {
            spec,
            file,
            state: RwLock::new(PlanState { plans, by_block }),
            batches: BatchStore::default(),
        }
    }

    /// Append `partitions` fresh splits to the dataset's DFS file.
    ///
    /// Appended splits carry the same record count and bytes as the
    /// original partitions, plant `records_per_partition × selectivity`
    /// matches each (arriving data is unskewed), and derive their content
    /// seed from the file-local index by the same formula as
    /// [`Dataset::build`]. Every field is a pure function of the spec and
    /// the split's index, so replaying an identical append/mutate
    /// schedule against a fresh build reproduces the plans exactly — the
    /// determinism contract the warm-vs-cold replay suite leans on.
    /// Returns the new block ids.
    pub fn append(
        &self,
        namespace: &mut Namespace,
        partitions: u32,
        placement: &mut dyn PlacementPolicy,
        rng: &mut DetRng,
    ) -> Vec<BlockId> {
        let block_specs: Vec<BlockSpec> = (0..partitions)
            .map(|_| BlockSpec {
                bytes: self.spec.records_per_partition * ROW_BYTES,
                records: self.spec.records_per_partition,
            })
            .collect();
        let new = namespace.append_blocks(self.file, &block_specs, placement, rng);
        let matching =
            (self.spec.records_per_partition as f64 * self.spec.selectivity).round() as u64;
        let seed_root = DetRng::seed_from(self.spec.seed);
        let mut state = self.state.write().expect("dataset plans");
        for &block in &new {
            let index = namespace.block(block).index as u64;
            let plan = SplitPlan {
                block,
                spec: SplitSpec::new(
                    self.spec.records_per_partition,
                    matching,
                    seed_root.fork(index).seed(),
                ),
                version: 0,
            };
            let slot = state.plans.len();
            state.by_block.insert(block, slot);
            state.plans.push(plan);
        }
        new
    }

    /// Rewrite the given blocks in place: bump each block's DFS version,
    /// re-place its replicas, and re-seed its contents.
    ///
    /// The rewritten split keeps its record and matching counts (total
    /// matching stays invariant across mutations) but draws a fresh
    /// content seed forked from `(index, version)`, so version `v ≥ 1` of
    /// a split generates different rows than version `v−1` — which is
    /// what makes stale memoized map output observably wrong if it were
    /// ever reused. The batch store drops the rewritten blocks' old
    /// batches. Returns the new versions, in argument order.
    ///
    /// # Panics
    /// Panics if a block does not belong to this dataset.
    pub fn mutate(
        &self,
        namespace: &mut Namespace,
        blocks: &[BlockId],
        placement: &mut dyn PlacementPolicy,
        rng: &mut DetRng,
    ) -> Vec<u32> {
        let versions = namespace.mutate_blocks(blocks, placement, rng);
        let seed_root = DetRng::seed_from(self.spec.seed);
        let mut state = self.state.write().expect("dataset plans");
        for (&block, &version) in blocks.iter().zip(&versions) {
            let index = namespace.block(block).index as u64;
            let slot = state.by_block[&block];
            let plan = &mut state.plans[slot];
            plan.version = version;
            plan.spec = SplitSpec::new(
                plan.spec.records,
                plan.spec.matching,
                seed_root.fork(index).fork(version as u64).seed(),
            );
        }
        drop(state);
        self.batches
            .entries()
            .retain(|(block, _), _| !blocks.contains(block));
        versions
    }

    /// The current plan of `block` and its contents as a shared columnar
    /// batch of the given mode.
    ///
    /// The first read of a split version generates the batch and keeps it
    /// in the dataset's store; every later read — from any job or input
    /// format over this dataset — is a reference-count bump. Generation
    /// runs outside the store's lock: readers racing on one block each
    /// build a copy, the first to land is kept and the rest are dropped,
    /// which is harmless because a batch is a pure function of its plan's
    /// [`SplitSpec`].
    ///
    /// # Panics
    /// Panics if the block does not belong to this dataset.
    pub fn batch(&self, block: BlockId, mode: ScanMode) -> (SplitPlan, Arc<RecordBatch>) {
        let plan = self.plan(block);
        let key = (block, mode);
        if let Some((version, hit)) = self.batches.entries().get(&key) {
            if *version == plan.version {
                return (plan, Arc::clone(hit));
            }
        }
        let factory = self.factory();
        let generator = SplitGenerator::new(&factory, plan.spec);
        let built = Arc::new(match mode {
            ScanMode::Full => generator.full_batch(),
            ScanMode::Planted => generator.planted_batch(),
        });
        let mut store = self.batches.entries();
        let held = store
            .entry(key)
            .or_insert_with(|| (plan.version, Arc::clone(&built)));
        if held.0 == plan.version {
            return (plan, Arc::clone(&held.1));
        }
        // This read raced a rewrite: keep whichever version is newer.
        if held.0 < plan.version {
            *held = (plan.version, Arc::clone(&built));
        }
        (plan, built)
    }

    /// How many generated batches the store currently holds, across
    /// blocks and kinds.
    pub fn stored_batches(&self) -> usize {
        self.batches.entries().len()
    }

    /// The spec this dataset was built from.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// The backing DFS file.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// A snapshot of all split plans, in block order.
    pub fn splits(&self) -> Vec<SplitPlan> {
        self.state.read().expect("dataset plans").plans.clone()
    }

    /// The current plan for a specific block.
    ///
    /// # Panics
    /// Panics if the block does not belong to this dataset.
    pub fn plan(&self, block: BlockId) -> SplitPlan {
        let state = self.state.read().expect("dataset plans");
        state.plans[state.by_block[&block]]
    }

    /// Whether a block belongs to this dataset.
    pub fn contains(&self, block: BlockId) -> bool {
        self.state
            .read()
            .expect("dataset plans")
            .by_block
            .contains_key(&block)
    }

    /// Matching-record count per partition (Figure 4's series).
    pub fn matching_counts(&self) -> Vec<u64> {
        self.state
            .read()
            .expect("dataset plans")
            .plans
            .iter()
            .map(|p| p.spec.matching)
            .collect()
    }

    /// Total planted matching records.
    pub fn total_matching(&self) -> u64 {
        self.state
            .read()
            .expect("dataset plans")
            .plans
            .iter()
            .map(|p| p.spec.matching)
            .sum()
    }

    /// The record factory for this dataset's experiment predicate.
    pub fn factory(&self) -> LineItemFactory {
        PaperPredicate::for_skew(self.spec.skew).factory()
    }
}

/// One row of Table II: properties of a generated dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// TPC-H scale.
    pub scale: u32,
    /// Total LINEITEM rows.
    pub rows: u64,
    /// Total bytes.
    pub bytes: u64,
    /// Number of input partitions in the DFS.
    pub partitions: u32,
}

/// Compute Table II for the paper's scales (5, 10, 20, 40, 100).
pub fn table2(scales: &[u32]) -> Vec<Table2Row> {
    scales
        .iter()
        .map(|&scale| {
            let rows = scale as u64 * ROWS_PER_SCALE;
            Table2Row {
                scale,
                rows,
                bytes: rows * ROW_BYTES,
                partitions: scale * PARTITIONS_PER_SCALE,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use incmr_dfs::{ClusterTopology, EvenRoundRobin};

    fn build(skew: SkewLevel, seed: u64) -> (Namespace, Dataset) {
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let mut rng = DetRng::seed_from(seed);
        let spec = DatasetSpec::paper_scale("lineitem_5x", 5, skew, seed);
        let ds = Dataset::build(&mut ns, spec, &mut EvenRoundRobin::new(), &mut rng);
        (ns, ds)
    }

    #[test]
    fn paper_scale_5x_matches_table2() {
        let spec = DatasetSpec::paper_scale("t", 5, SkewLevel::Zero, 1);
        assert_eq!(spec.partitions, 40);
        assert_eq!(spec.total_records(), 30_000_000);
        assert_eq!(spec.total_matching(), 15_000);
    }

    #[test]
    fn table2_rows() {
        let t = table2(&[5, 10, 20, 40, 100]);
        assert_eq!(t.len(), 5);
        assert_eq!(t[0].rows, 30_000_000);
        assert_eq!(t[0].partitions, 40);
        assert_eq!(t[4].rows, 600_000_000);
        assert_eq!(t[4].partitions, 800);
        assert!(
            t[4].bytes > 70 * 1024 * 1024 * 1024u64,
            "100x should be ~75 GB"
        );
    }

    #[test]
    fn build_places_one_block_per_disk_at_5x() {
        let (ns, ds) = build(SkewLevel::Zero, 1);
        assert_eq!(ds.splits().len(), 40);
        assert!(ns.blocks_per_disk().iter().all(|&c| c == 1));
    }

    #[test]
    fn zero_skew_plants_evenly() {
        let (_, ds) = build(SkewLevel::Zero, 1);
        assert_eq!(ds.matching_counts(), vec![375u64; 40]);
        assert_eq!(ds.total_matching(), 15_000);
    }

    #[test]
    fn high_skew_plants_a_heavy_partition() {
        let (_, ds) = build(SkewLevel::High, 2);
        let counts = ds.matching_counts();
        assert_eq!(counts.iter().sum::<u64>(), 15_000);
        let max = *counts.iter().max().unwrap();
        assert!(
            max > 8_000,
            "z=2 heavy partition holds most matches, got {max}"
        );
    }

    #[test]
    fn plan_lookup_by_block() {
        let (_, ds) = build(SkewLevel::Moderate, 3);
        for p in ds.splits() {
            assert!(ds.contains(p.block));
            assert_eq!(ds.plan(p.block).block, p.block);
        }
        assert_eq!(ds.total_matching(), 15_000);
    }

    #[test]
    fn split_seeds_are_distinct() {
        let (_, ds) = build(SkewLevel::Zero, 4);
        let mut seeds: Vec<u64> = ds.splits().iter().map(|p| p.spec.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 40);
    }

    #[test]
    fn same_seed_same_plan_different_seed_different_plan() {
        let (_, a) = build(SkewLevel::High, 7);
        let (_, b) = build(SkewLevel::High, 7);
        let (_, c) = build(SkewLevel::High, 8);
        assert_eq!(a.matching_counts(), b.matching_counts());
        assert_ne!(a.matching_counts(), c.matching_counts());
    }

    #[test]
    fn append_extends_plans_with_fresh_versioned_splits() {
        let (mut ns, ds) = build(SkewLevel::Zero, 9);
        let mut rng = DetRng::seed_from(9);
        let new = ds.append(&mut ns, 3, &mut EvenRoundRobin::starting_at(40), &mut rng);
        assert_eq!(new.len(), 3);
        assert_eq!(ds.splits().len(), 43);
        for &b in &new {
            let p = ds.plan(b);
            assert_eq!(p.version, 0);
            assert_eq!(p.spec.records, ds.spec().records_per_partition);
            assert_eq!(p.spec.matching, 375, "unskewed arrival: 750k × 0.05%");
            assert!(ds.contains(b));
        }
        // Appended seeds follow the build formula for their indexes.
        let root = DetRng::seed_from(9);
        assert_eq!(ds.plan(new[0]).spec.seed, root.fork(40).seed());
    }

    #[test]
    fn mutate_reseeds_and_bumps_plan_version() {
        let (mut ns, ds) = build(SkewLevel::Zero, 10);
        let target = ds.splits()[5].block;
        let before = ds.plan(target);
        let mut rng = DetRng::seed_from(10);
        let versions = ds.mutate(&mut ns, &[target], &mut EvenRoundRobin::new(), &mut rng);
        assert_eq!(versions, vec![1]);
        let after = ds.plan(target);
        assert_eq!(after.version, 1);
        assert_eq!(after.spec.records, before.spec.records);
        assert_eq!(after.spec.matching, before.spec.matching);
        assert_ne!(after.spec.seed, before.spec.seed, "rewrite draws new rows");
        assert_eq!(ds.total_matching(), 15_000, "matching total is invariant");
        assert_eq!(ns.version_of(target), 1, "DFS counter stays in lockstep");
    }

    #[test]
    fn mutate_releases_the_stored_batch_and_the_next_read_regenerates() {
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let mut rng = DetRng::seed_from(12);
        let spec = DatasetSpec::small("t", 4, 300, SkewLevel::High, 12);
        let ds = Dataset::build(&mut ns, spec, &mut EvenRoundRobin::new(), &mut rng);
        let block = ds.splits()[2].block;
        let (_, held) = ds.batch(block, ScanMode::Full);
        let (_, again) = ds.batch(block, ScanMode::Full);
        assert!(Arc::ptr_eq(&held, &again), "a repeated read is a store hit");
        drop(again);
        assert_eq!(ds.clone().stored_batches(), 0, "a clone starts empty");

        ds.mutate(&mut ns, &[block], &mut EvenRoundRobin::new(), &mut rng);
        let (plan, fresh) = ds.batch(block, ScanMode::Full);
        assert_eq!(plan.version, 1);
        let factory = ds.factory();
        assert_eq!(
            *fresh,
            SplitGenerator::new(&factory, plan.spec).full_batch()
        );
        assert_ne!(*fresh, *held, "the rewrite generates different rows");
        assert_eq!(Arc::strong_count(&held), 1, "the store released it");
        assert_eq!(ds.stored_batches(), 1);
    }

    #[test]
    fn replayed_evolve_schedule_reproduces_plans_exactly() {
        let run = || {
            let (mut ns, ds) = build(SkewLevel::Moderate, 11);
            let mut rng = DetRng::seed_from(77);
            ds.append(&mut ns, 2, &mut EvenRoundRobin::starting_at(40), &mut rng);
            let blocks: Vec<BlockId> = vec![ds.splits()[3].block, ds.splits()[41].block];
            ds.mutate(&mut ns, &blocks, &mut EvenRoundRobin::new(), &mut rng);
            ds.splits()
                .iter()
                .map(|p| (p.block, p.spec.seed, p.spec.matching, p.version))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
