//! Shuffle micro-benchmark: the host cost of map-side partitioning, the
//! optional combiner, the streaming merge into per-reduce buffers, and the
//! reduce unit that turns a merged partition into output rows.
//!
//! Map side (`shuffle/map_partition_merge_24x5k/*`). Two workload shapes
//! bracket the partitioning spectrum:
//!
//! * **wide keys** — every record under one of 1 000 distinct keys, spread
//!   across 4 reduce partitions (the general MapReduce shape);
//! * **dummy key** — every record under one shared key into a single
//!   partition (the paper's sampling job shape, Algorithm 1).
//!
//! The mapper emits `KeyedBatch` runs — selection vectors into the split's
//! shared batch — as `SamplingMapper` does, so these rows time the batch
//! path production runs. Each shape runs with and without a
//! `SampleCombiner(k)`, a map-side LIMIT push-down: with it, no task ships
//! more than `k` rows, so the merged shuffle holds at most `k × maps` rows
//! however large the input is. The bench prints both totals so that bound
//! is visible.
//!
//! A third shape, `materialised_scan`, is a full-mode select-project
//! statement: `ScanMapper` over `L_QUANTITY <= 5` (about 10% of rows),
//! projected to `L_ORDERKEY, L_PARTKEY, L_QUANTITY`, materialising each
//! match as a `(r{i}, row)` pair into one reduce partition. The mapper is
//! built fresh every iteration, as every statement compiles one, so its
//! row-key table is rebuilt each time too.
//!
//! Reduce side (`shuffle/reduce_*`): `ReduceUnit::compute` over one merged
//! partition.
//!
//! * `reduce_sampling_k{100,10000}` — `SamplingReducer` (first k, paper
//!   Algorithm 2) over the dummy-key shuffle: 120k batch rows in one group,
//!   every row unprojected (all twelve LINEITEM columns);
//! * `reduce_sampling_k10000_proj3` — the same over rows projected to
//!   `L_ORDERKEY, L_PARTKEY, L_SUPPKEY`, the shape a sampling statement
//!   builds;
//! * `reduce_identity_scan` — `IdentityReducer` over scan-shaped row pairs:
//!   every row of every split, projected to three columns, under the
//!   per-row keys `r0, r1, …` that `ScanMapper` emits for a materialised
//!   scan (5 000 groups of 24 rows).
//!
//! `compute` consumes its unit, so every iteration first clones the merged
//! partition into a fresh one. The `reduce_input_clone/*` rows time that
//! clone alone; subtract them to get the reduce itself.
//!
//! Every row builds its own input inside its closure, so a filtered run
//! (`cargo bench --bench shuffle -- shuffle/reduce_sampling_k10000`) builds
//! only what the rows it times read, and the first row it times runs in a
//! process of its own, free of the heap state other rows leave behind.
//!
//! A full run writes its timings to `BENCH_shuffle.json`; a filtered run
//! leaves the file as it is.

use std::sync::Arc;

use criterion::{black_box, Criterion, Throughput};

use incmr_core::{SampleCombiner, SampleMode, SamplingReducer, ScanMapper};
use incmr_data::lineitem::col;
use incmr_data::{BatchSelection, CmpOp, Dataset, DatasetSpec, Predicate, SkewLevel, Value};
use incmr_dfs::{ClusterTopology, EvenRoundRobin, Namespace};
use incmr_mapreduce::{
    Combiner, DatasetInputFormat, IdentityReducer, InputFormat, Key, KeyedBatch, MapResult,
    MapUnit, Mapper, ParallelExecutor, Parallelism, PartitionBuffer, ReduceUnit, Reducer, ScanMode,
    ShuffleState, SplitData, WorkUnit,
};
use incmr_simkit::rng::DetRng;

const MAPS: u32 = 24;
const RECORDS_PER_SPLIT: u64 = 5_000;
const COMBINER_K: u64 = 100;

/// An *uncapped* mapper: emits every record of the split as keyed batch
/// runs, row `i` under key `k{i mod distinct_keys}` (1 key = the sampling
/// job's dummy key), projected to `projection` (empty = every column).
/// This is the shape that makes a combiner matter — `SamplingMapper`
/// already caps its own output, so it never ships more than `k` rows per
/// task.
struct FanOutMapper {
    distinct_keys: usize,
    projection: Arc<[usize]>,
}

impl FanOutMapper {
    fn unprojected(distinct_keys: usize) -> Self {
        FanOutMapper {
            distinct_keys,
            projection: Arc::from([]),
        }
    }
}

impl Mapper for FanOutMapper {
    fn run(&self, data: SplitData) -> MapResult {
        let SplitData::Full(batch) = data else {
            unreachable!("the bench reads ScanMode::Full splits")
        };
        let rows = batch.len();
        let batches = (0..self.distinct_keys.min(rows))
            .map(|j| KeyedBatch {
                key: Key::from(format!("k{j}")),
                rows: BatchSelection::new(
                    Arc::clone(&batch),
                    (j as u32..rows as u32)
                        .step_by(self.distinct_keys)
                        .collect(),
                    Arc::clone(&self.projection),
                ),
            })
            .collect();
        MapResult {
            batches,
            records_read: rows as u64,
            ..MapResult::default()
        }
    }
}

fn dataset() -> Arc<Dataset> {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(7);
    let spec = DatasetSpec::small("shufbench", MAPS, RECORDS_PER_SPLIT, SkewLevel::Zero, 7);
    Arc::new(Dataset::build(
        &mut ns,
        spec,
        &mut EvenRoundRobin::new(),
        &mut rng,
    ))
}

fn map_units(
    ds: &Arc<Dataset>,
    mapper: Arc<dyn Mapper>,
    reduce_tasks: u32,
    combiner: Option<Arc<dyn Combiner>>,
) -> Vec<MapUnit> {
    let input: Arc<dyn InputFormat> =
        Arc::new(DatasetInputFormat::new(Arc::clone(ds), ScanMode::Full));
    ds.splits()
        .iter()
        .map(|plan| MapUnit {
            input_format: Arc::clone(&input),
            mapper: Arc::clone(&mapper),
            combiner: combiner.clone(),
            block: plan.block,
            reduce_tasks,
        })
        .collect()
}

/// Run one batch end to end — map, combine, partition on the executor,
/// then stream-merge every task's partitions.
fn merge_batch(
    executor: &mut ParallelExecutor,
    units: Vec<MapUnit>,
    reduce_tasks: u32,
) -> ShuffleState {
    let mut shuffle = ShuffleState::new(reduce_tasks);
    for result in executor.run(units) {
        shuffle.merge(result.pairs);
    }
    shuffle
}

/// Records merged across every reduce partition.
fn merged_records(shuffle: &ShuffleState) -> u64 {
    shuffle.buffers().iter().map(|b| b.input_records).sum()
}

fn bench_map_side(c: &mut Criterion, ds: &Arc<Dataset>, executor: &mut ParallelExecutor) {
    let mut g = c.benchmark_group("shuffle/map_partition_merge_24x5k");
    g.throughput(Throughput::Elements(MAPS as u64 * RECORDS_PER_SPLIT));
    for (shape, distinct_keys, reduce_tasks) in
        [("wide_keys", 1_000usize, 4u32), ("dummy_key", 1, 1)]
    {
        for with_combiner in [false, true] {
            let suffix = if with_combiner {
                "combiner"
            } else {
                "no_combiner"
            };
            g.bench_function(format!("{shape}/{suffix}"), |b| {
                let combiner: Option<Arc<dyn Combiner>> =
                    with_combiner.then(|| Arc::new(SampleCombiner::new(COMBINER_K)) as _);
                let mapper = Arc::new(FanOutMapper::unprojected(distinct_keys));
                let units = map_units(ds, mapper, reduce_tasks, combiner);
                let merged = merged_records(&merge_batch(executor, units.clone(), reduce_tasks));
                if with_combiner {
                    assert!(
                        merged <= COMBINER_K * MAPS as u64,
                        "combiner bound violated: {merged} > k×maps"
                    );
                } else {
                    assert_eq!(merged, MAPS as u64 * RECORDS_PER_SPLIT);
                }
                println!(
                    "{shape}/{suffix}: {merged} records merged \
                     (bound: {}, k×maps = {})",
                    MAPS as u64 * RECORDS_PER_SPLIT,
                    COMBINER_K * MAPS as u64,
                );
                b.iter(|| {
                    black_box(merged_records(&merge_batch(
                        executor,
                        units.clone(),
                        reduce_tasks,
                    )))
                })
            });
        }
    }
    let scan = || -> Arc<dyn Mapper> {
        let predicate = Predicate::Compare {
            column: col::QUANTITY,
            op: CmpOp::Le,
            literal: Value::Int(5),
        };
        let projection = vec![col::ORDERKEY, col::PARTKEY, col::QUANTITY];
        Arc::new(ScanMapper::new(predicate, projection, true))
    };
    g.bench_function("materialised_scan", |b| {
        let merged = merged_records(&merge_batch(executor, map_units(ds, scan(), 1, None), 1));
        println!("materialised_scan: {merged} records merged");
        b.iter(|| {
            black_box(merged_records(&merge_batch(
                executor,
                map_units(ds, scan(), 1, None),
                1,
            )))
        })
    });
    g.finish();
}

/// A fresh reduce unit over a copy of `buffer`'s groups.
fn reduce_unit(reducer: &Arc<dyn Reducer>, buffer: &PartitionBuffer) -> ReduceUnit {
    ReduceUnit {
        reducer: Arc::clone(reducer),
        key_order: buffer.key_order.clone(),
        groups: buffer.groups.clone(),
    }
}

fn bench_reduce_side(c: &mut Criterion, ds: &Arc<Dataset>, executor: &mut ParallelExecutor) {
    let one_partition = |mapper: Arc<dyn Mapper>, executor: &mut ParallelExecutor| {
        let units = map_units(ds, mapper, 1, None);
        let mut buffers = merge_batch(executor, units, 1).into_buffers();
        buffers.pop().expect("one reduce partition")
    };
    let projection = vec![col::ORDERKEY, col::PARTKEY, col::SUPPKEY];
    let sample: Arc<dyn Mapper> = Arc::new(FanOutMapper::unprojected(1));
    let sample_proj3: Arc<dyn Mapper> = Arc::new(FanOutMapper {
        distinct_keys: 1,
        projection: Arc::from(projection.as_slice()),
    });
    let scan: Arc<dyn Mapper> = Arc::new(ScanMapper::new(Predicate::True, projection, true));
    let all_rows = MAPS as usize * RECORDS_PER_SPLIT as usize;

    // Name, reducer, the mapper whose merged output is its input, rows out.
    type Case = (&'static str, Arc<dyn Reducer>, Arc<dyn Mapper>, usize);
    let cases: [Case; 4] = [
        (
            "reduce_sampling_k100",
            Arc::new(SamplingReducer::new(100, SampleMode::FirstK)),
            Arc::clone(&sample),
            100,
        ),
        (
            "reduce_sampling_k10000",
            Arc::new(SamplingReducer::new(10_000, SampleMode::FirstK)),
            Arc::clone(&sample),
            10_000,
        ),
        (
            "reduce_sampling_k10000_proj3",
            Arc::new(SamplingReducer::new(10_000, SampleMode::FirstK)),
            sample_proj3,
            10_000,
        ),
        (
            "reduce_identity_scan",
            Arc::new(IdentityReducer),
            Arc::clone(&scan),
            all_rows,
        ),
    ];
    for (name, reducer, mapper, rows) in cases {
        c.bench_function(format!("shuffle/{name}"), |b| {
            let input = one_partition(Arc::clone(&mapper), executor);
            let out = reduce_unit(&reducer, &input).compute().output.len();
            assert_eq!(out, rows, "{name}");
            b.iter(|| black_box(reduce_unit(&reducer, &input).compute().output.len()))
        });
    }
    for (name, mapper) in [("sampling", sample), ("identity_scan", scan)] {
        let reducer: Arc<dyn Reducer> = Arc::new(IdentityReducer);
        c.bench_function(format!("shuffle/reduce_input_clone/{name}"), |b| {
            let input = one_partition(Arc::clone(&mapper), executor);
            b.iter(|| black_box(reduce_unit(&reducer, &input).groups.len()))
        });
    }
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    let ds = dataset();
    let mut executor = ParallelExecutor::new(Parallelism::threads(1));
    bench_map_side(&mut c, &ds, &mut executor);
    bench_reduce_side(&mut c, &ds, &mut executor);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shuffle.json");
    c.write_json(out).expect("write BENCH_shuffle.json");
}
