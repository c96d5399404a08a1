//! Allocation guard for the result path.
//!
//! A sampled row should be built once: when the reducer keeps it, at the
//! client boundary. The shuffle hands each key group to the reducer by
//! value, the reducer builds only the rows it outputs, straight into the
//! reduce output's row vector, and collecting the result hands that vector
//! to the caller by move. Grouped aggregation likewise accumulates into one
//! slot per group and renders each group's key once, not once per row.
//! A materialised scan clones each row's key `r{i}` out of its mapper's
//! key table instead of formatting and interning one per row. This test
//! pins all three with a counting global allocator: a reintroduced per-row
//! copy or per-row key costs one allocation per row or more and trips the
//! guard. Cloning the sample's shared key per row allocates nothing, so
//! that is guarded by refcount instead
//! (`incmr-core`'s `a_reduce_holds_its_key_once_not_per_row`).
//!
//! The file holds exactly one `#[test]` so no concurrent test can perturb
//! the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use incmr::data::lineitem::col;
use incmr::hiveql::{AggFunc, GroupAggMapper, ResolvedAgg};
use incmr::mapreduce::{DatasetInputFormat, InputFormat, Mapper, SplitData};
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

/// Allocations performed by `f`, and its result.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

fn dataset(spec: DatasetSpec, ns: &mut Namespace) -> Arc<Dataset> {
    let mut rng = DetRng::seed_from(spec.seed);
    Arc::new(Dataset::build(
        ns,
        spec,
        &mut EvenRoundRobin::new(),
        &mut rng,
    ))
}

#[test]
fn result_rows_and_group_keys_are_built_once() {
    // A planted LIMIT 10000 sample of three numeric columns: each returned
    // row is one `Record` holding one `Vec` of values.
    const K: u64 = 10_000;
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    // 40 splits × 750k rows at 0.05% plants 15,000 matches.
    let table = dataset(
        DatasetSpec::paper_scale("lineitem", 5, SkewLevel::Zero, 17),
        &mut ns,
    );
    let runtime = MrRuntime::new(
        ClusterConfig::paper_single_user(),
        CostModel::paper_default(),
        ns,
        Box::new(FifoScheduler::new()),
    );
    let mut session = Session::builder()
        .runtime(runtime)
        .table("lineitem", table)
        .try_build()
        .expect("a valid session");
    let sql = format!(
        "SELECT L_ORDERKEY, L_PARTKEY, L_SUPPKEY FROM lineitem WHERE L_QUANTITY = 200 LIMIT {K}"
    );
    let mut sample = || {
        let Submitted::Pending(handle) = session.submit(&sql).expect("valid SQL") else {
            panic!("a SELECT runs as a job")
        };
        let (allocs, result) = allocations_during(|| handle.wait(&mut session));
        assert!(!result.failed);
        assert_eq!(result.rows.len() as u64, K);
        assert!(result.rows.iter().all(|r| r.arity() == 3));
        allocs
    };
    // The first statement generates each split version it reads; later
    // statements share the stored batches.
    sample();
    let allocs = sample();
    let per_row = allocs as f64 / K as f64;
    assert!(
        per_row <= 1.5,
        "a LIMIT {K} sample allocated {allocs} times ({per_row:.2} per returned row; \
         expected ≤ 1.5 — is a result row copied on its way out again?)"
    );

    // A materialised full-mode scan of three numeric columns at about 10%
    // selectivity over 8 × 20k rows. Each returned row is one `Record`, one
    // `Vec` of values and a share of the map and reduce output vectors; its
    // key is an `Arc` bump. Formatting a key per row cost about 4.5
    // allocations per row.
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let table = dataset(
        DatasetSpec::small("lineitem", 8, 20_000, SkewLevel::Zero, 17),
        &mut ns,
    );
    let runtime = MrRuntime::new(
        ClusterConfig::paper_single_user(),
        CostModel::paper_default(),
        ns,
        Box::new(FifoScheduler::new()),
    );
    let mut session = Session::builder()
        .runtime(runtime)
        .table("lineitem", table)
        .scan_mode(ScanMode::Full)
        .try_build()
        .expect("a valid session");
    let sql = "SELECT L_ORDERKEY, L_PARTKEY, L_QUANTITY FROM lineitem WHERE L_QUANTITY <= 5";
    let mut scan = || {
        let Submitted::Pending(handle) = session.submit(sql).expect("valid SQL") else {
            panic!("a SELECT runs as a job")
        };
        let (allocs, result) = allocations_during(|| handle.wait(&mut session));
        assert!(!result.failed);
        assert!(result.rows.iter().all(|r| r.arity() == 3));
        (allocs, result.rows.len() as u64)
    };
    scan();
    let (allocs, rows) = scan();
    assert!(rows > 12_000, "about 10% of 160k rows match, got {rows}");
    let per_row = allocs as f64 / rows as f64;
    assert!(
        per_row <= 2.25,
        "a materialised scan returning {rows} rows allocated {allocs} times \
         ({per_row:.2} per returned row; expected ≤ 2.25 — is a row key \
         formatted per row again?)"
    );

    // Grouped aggregation over one 20k-row batch, by an Int column with 7
    // distinct values: a handful of working vectors plus a few per group.
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let spec = DatasetSpec::small("groups", 1, 20_000, SkewLevel::Zero, 11);
    let table = dataset(spec, &mut ns);
    let input = DatasetInputFormat::new(Arc::clone(&table), ScanMode::Full);
    let SplitData::Full(batch) = input.read(table.splits()[0].block) else {
        panic!("a full scan reads a columnar batch")
    };
    let aggs = vec![
        ResolvedAgg {
            func: AggFunc::Count,
            column: None,
        },
        ResolvedAgg {
            func: AggFunc::Sum,
            column: Some(col::EXTENDEDPRICE),
        },
        ResolvedAgg {
            func: AggFunc::Avg,
            column: Some(col::QUANTITY),
        },
    ];
    let mapper = GroupAggMapper::new(Predicate::True, Some(col::LINENUMBER), aggs);
    let (allocs, out) = allocations_during(|| mapper.run(SplitData::Full(Arc::clone(&batch))));
    assert_eq!(out.pairs.len(), 7, "L_LINENUMBER takes 7 values");
    assert_eq!(out.records_read, 20_000);
    assert!(
        allocs <= 100,
        "grouping 20k rows into 7 groups allocated {allocs} times \
         (expected ≤ 100 — is a group key rendered per row again?)"
    );
}
