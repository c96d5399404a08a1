//! Data-plane scan micro-benchmark: how fast the host computes a batch of
//! scan map tasks at different worker-pool sizes.
//!
//! Variants of the same 40 × 20k workload, all in `ScanMode::Full`:
//!
//! * `scan/select_40x20k/*` — the predicate kernel alone: one
//!   `SplitData::select` per split over the 40 stored batches, for four
//!   predicate shapes (see `bench_select`). No map unit, no executor.
//! * `scan/full_batch_40x20k` — each split is a shared `Arc<RecordBatch>`
//!   from the dataset's batch store, and the mapper selects from it with
//!   `SplitData::select`. The same map units run every iteration.
//! * `scan/full_batch_40x20k_fresh_format` — the same wave, but every
//!   iteration builds a new `DatasetInputFormat` over the same `Dataset`,
//!   as every HiveQL statement does. **This is the row production
//!   matches**: once any statement has read a split version, every later
//!   statement's read of it is a store hit.
//! * `scan/full_batch_40x20k_cold` — a new `Dataset` every iteration, so
//!   every read generates its split: the cost each split version pays
//!   once, on its first read.
//!
//! This measures the *host* wall clock of the two-plane split (see
//! `incmr-mapreduce::parallel`): simulated results are identical at every
//! thread count, so the only thing parallelism can buy is wall time. The
//! fresh-format and cold rows run on one thread only.
//! Results are written to `BENCH_scan.json` (name, mean_ns, iterations)
//! so speedups can be compared across machines; each row's line ends with
//! its records/sec (the group's `Throughput::Elements`). No speedup is
//! asserted here because the ratio is a property of the host's core
//! count, not of the code.

use std::sync::Arc;

use criterion::{black_box, Criterion, Throughput};

use incmr_data::lineitem::col;
use incmr_data::{CmpOp, Dataset, DatasetSpec, Predicate, RecordFactory, SkewLevel, Value};
use incmr_dfs::{ClusterTopology, EvenRoundRobin, Namespace};
use incmr_mapreduce::{
    DatasetInputFormat, InputFormat, MapResult, MapUnit, Mapper, ParallelExecutor, Parallelism,
    ScanMode, SplitData,
};
use incmr_simkit::rng::DetRng;

/// The paper's scan-side map logic in miniature: select every record the
/// planted predicate accepts and count them.
struct PredicateCountMapper {
    predicate: incmr_data::Predicate,
}

impl Mapper for PredicateCountMapper {
    fn run(&self, data: SplitData) -> MapResult {
        let records_read = data.total_records();
        let matches = data.select(&self.predicate, usize::MAX).1.len() as u64;
        MapResult {
            records_read,
            unmaterialized_outputs: matches,
            unmaterialized_bytes: matches * 24,
            ..MapResult::default()
        }
    }
}

/// 40 splits × 20k records: one full scheduling wave on the paper's
/// 40-slot cluster, heavy enough for per-batch thread dispatch to be noise.
fn scan_dataset() -> Arc<Dataset> {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(42);
    let spec = DatasetSpec::small("scanbench", 40, 20_000, SkewLevel::Moderate, 42);
    Arc::new(Dataset::build(
        &mut ns,
        spec,
        &mut EvenRoundRobin::new(),
        &mut rng,
    ))
}

/// One map unit per split, all sharing a new full-scan input format over
/// `ds`.
fn scan_units(ds: &Arc<Dataset>) -> Vec<MapUnit> {
    let predicate = ds.factory().predicate();
    let input: Arc<dyn InputFormat> =
        Arc::new(DatasetInputFormat::new(Arc::clone(ds), ScanMode::Full));
    let mapper: Arc<dyn Mapper> = Arc::new(PredicateCountMapper { predicate });
    ds.splits()
        .iter()
        .map(|plan| MapUnit {
            input_format: Arc::clone(&input),
            mapper: Arc::clone(&mapper),
            combiner: None,
            block: plan.block,
        })
        .collect()
}

const RECORDS_TOTAL: u64 = 40 * 20_000;

/// The predicate kernel over every split of the 40 × 20k table, once per
/// predicate shape: an AND of three conjuncts (the first ~2% selective,
/// one on a string), a ~2% date `BETWEEN`, an OR with a NOT, and a
/// `LIMIT 100` sample of a ~2% predicate, which stops early. Each row
/// reads the stored batches inside its closure, so a filtered run
/// generates the table only for the rows it times.
fn bench_select(c: &mut Criterion) {
    let cmp = |column, op, literal| Predicate::Compare {
        column,
        op,
        literal,
    };
    let and = |a, b| Predicate::And(Box::new(a), Box::new(b));
    let and3 = and(
        and(
            Predicate::eq(col::QUANTITY, Value::Int(7)),
            Predicate::eq(col::SHIPMODE, Value::Str("AIR".into())),
        ),
        cmp(col::DISCOUNT, CmpOp::Le, Value::Float(0.05)),
    );
    let date_between = Predicate::Between {
        column: col::SHIPDATE,
        low: Value::Date(1_000),
        high: Value::Date(1_050),
    };
    let or_not = Predicate::Or(
        Box::new(Predicate::eq(col::TAX, Value::Float(0.02))),
        Box::new(Predicate::Not(Box::new(cmp(
            col::QUANTITY,
            CmpOp::Le,
            Value::Int(47),
        )))),
    );
    let sample = Predicate::eq(col::QUANTITY, Value::Int(7));
    let rows = [
        ("and3_str", and3, usize::MAX),
        ("date_between", date_between, usize::MAX),
        ("or_not", or_not, usize::MAX),
        ("limit100", sample, 100),
    ];
    let mut g = c.benchmark_group("scan/select_40x20k");
    g.throughput(Throughput::Elements(RECORDS_TOTAL));
    for (name, predicate, limit) in rows {
        g.bench_function(name, |b| {
            let splits = stored_splits(&scan_dataset());
            b.iter(|| {
                splits
                    .iter()
                    .map(|split| split.clone().select(&predicate, limit).1.len())
                    .sum::<usize>()
            })
        });
    }
    g.finish();
}

/// Every split of `ds` as a full-mode read, each batch generated once.
fn stored_splits(ds: &Arc<Dataset>) -> Vec<SplitData> {
    let input = DatasetInputFormat::new(Arc::clone(ds), ScanMode::Full);
    ds.splits()
        .iter()
        .map(|plan| input.read(plan.block))
        .collect()
}

fn bench_scan_wave(c: &mut Criterion, group: &str) {
    let units = scan_units(&scan_dataset());
    let mut g = c.benchmark_group(group);
    g.throughput(Throughput::Elements(RECORDS_TOTAL));
    for threads in [1u32, 2, 4, 8] {
        let mut executor = ParallelExecutor::new(Parallelism::threads(threads));
        g.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| black_box(executor.run(units.clone()).len()))
        });
    }
    g.finish();
}

/// A single-thread wave whose map units `units` rebuilds every iteration.
fn bench_rebuilt_wave(c: &mut Criterion, group: &str, units: impl Fn() -> Vec<MapUnit>) {
    let mut g = c.benchmark_group(group);
    g.throughput(Throughput::Elements(RECORDS_TOTAL));
    let mut executor = ParallelExecutor::new(Parallelism::threads(1));
    g.bench_function("threads_1", |b| {
        b.iter(|| black_box(executor.run(units()).len()))
    });
    g.finish();
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    bench_select(&mut c);
    bench_scan_wave(&mut c, "scan/full_batch_40x20k");
    let shared = scan_dataset();
    bench_rebuilt_wave(&mut c, "scan/full_batch_40x20k_fresh_format", || {
        scan_units(&shared)
    });
    // Free the warm dataset's ~80 MB of batches before the cold wave
    // builds its own.
    drop(shared);
    bench_rebuilt_wave(&mut c, "scan/full_batch_40x20k_cold", || {
        scan_units(&scan_dataset())
    });
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host parallelism: {host_threads} (speedup is bounded by this)");
    // Cargo runs benches from the package dir; anchor the report at the
    // workspace root where tooling expects it.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scan.json");
    c.write_json(out).expect("write BENCH_scan.json");
}
