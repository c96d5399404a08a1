//! Data-plane scan micro-benchmark: how fast the host computes a batch of
//! scan map tasks at different worker-pool sizes.
//!
//! Variants of the same 40 × 20k workload, all in `ScanMode::Full`:
//!
//! * `scan/full_batch_40x20k` — each split is a shared `Arc<RecordBatch>`
//!   from the dataset's batch store, and the mapper's `SplitData::select`
//!   runs the vectorised `eval_batch` kernel over the column vectors. The
//!   same map units run every iteration.
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
//! so speedups can be compared across machines; records/sec per variant
//! is printed for quick reading. No speedup is asserted here because the
//! ratio is a property of the host's core count, not of the code.

use std::sync::Arc;

use criterion::{black_box, Criterion, Throughput};

use incmr_data::{Dataset, DatasetSpec, RecordFactory, SkewLevel};
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
            reduce_tasks: 1,
        })
        .collect()
}

const RECORDS_TOTAL: u64 = 40 * 20_000;

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
    for r in c.results() {
        let recs_per_sec = RECORDS_TOTAL as f64 / (r.mean_ns / 1e9);
        println!("{:<56} {:>12.0} records/sec", r.name, recs_per_sec);
    }
    // Cargo runs benches from the package dir; anchor the report at the
    // workspace root where tooling expects it.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scan.json");
    c.write_json(out).expect("write BENCH_scan.json");
}
