//! Allocation guard for the columnar scan hot path.
//!
//! The point of record batches is that a repeated scan read is an `Arc`
//! bump plus a couple of working vectors — not a per-record allocation
//! storm. This test pins that property with a counting global allocator:
//! if someone reintroduces per-record `Record` construction (or per-value
//! string interning) into the batch path, the count jumps by four orders
//! of magnitude and the guard trips.
//!
//! The file holds exactly one `#[test]` so no concurrent test can perturb
//! the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use incmr::data::{Dataset, DatasetSpec, RecordFactory, SkewLevel, SplitGenerator};
use incmr::mapreduce::{DatasetInputFormat, InputFormat, Mapper, ScanMode};
use incmr::prelude::*;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations performed by `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn batched_scan_reads_allocate_orders_of_magnitude_less_than_row_reads() {
    const RECORDS: u64 = 20_000;
    const ITERS: u64 = 10;

    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(11);
    let spec = DatasetSpec::small("alloc", 1, RECORDS, SkewLevel::Zero, 11);
    let ds = Arc::new(Dataset::build(
        &mut ns,
        spec,
        &mut EvenRoundRobin::new(),
        &mut rng,
    ));
    let plan = &ds.splits()[0];
    let factory = ds.factory();
    let predicate = factory.predicate();
    let mapper = incmr::core::SamplingMapper::new(predicate.clone(), 100);
    let batch_input = DatasetInputFormat::new(Arc::clone(&ds), ScanMode::Full);
    // The row baseline: generate the split a record at a time and run
    // Algorithm 1's scalar loop over it.
    let row_scan = || {
        let rows: Vec<Record> = SplitGenerator::new(&factory, plan.spec)
            .full_iter()
            .collect();
        let kept: Vec<&Record> = rows
            .iter()
            .filter(|r| predicate.eval(r))
            .take(100)
            .collect();
        (rows.len() as u64, kept.len())
    };

    // Warm the batch cache (first read generates the batch) and page in
    // any lazily-initialised state on both paths.
    let warm = mapper.run(batch_input.read(plan.block));
    assert_eq!(warm.records_read, RECORDS);
    let (read, kept) = row_scan();
    assert_eq!(read, RECORDS);
    assert_eq!(kept as u64, warm.materialized_records());

    let batch_allocs = allocations_during(|| {
        for _ in 0..ITERS {
            std::hint::black_box(mapper.run(batch_input.read(plan.block)));
        }
    });
    let row_allocs = allocations_during(|| {
        for _ in 0..ITERS {
            std::hint::black_box(row_scan());
        }
    });

    // Row reads materialise 20k records per iteration, so they sit in the
    // hundreds of thousands of allocations. A cached batch read plus a
    // vectorised map is a handful of working vectors.
    assert!(
        batch_allocs <= 100 * ITERS,
        "batched scan allocated {batch_allocs} times in {ITERS} reads \
         (expected ≤ {} — per-record work crept back into the hot path?)",
        100 * ITERS
    );
    assert!(
        row_allocs >= RECORDS * ITERS,
        "row reference path allocated only {row_allocs} times — did the \
         comparison baseline change?"
    );
    assert!(
        batch_allocs * 50 <= row_allocs,
        "batched scan ({batch_allocs}) is not meaningfully cheaper than \
         row scan ({row_allocs})"
    );
}
