//! Incremental recomputation over evolving data, pinned by byte-equality
//! replay.
//!
//! The contract under test: with memoization enabled, re-submitting a job
//! after the dataset evolved (appends, in-place mutations) re-executes
//! **only** the new and dirty splits — every unchanged split is satisfied
//! from the memo store — and yet the warm re-run is *indistinguishable*
//! from a cold run against the final dataset state:
//!
//! * identical reduce output, byte for byte;
//! * identical simulated response time;
//! * an identical normalized event timeline (job id rewritten to 0, times
//!   rebased to the job's submission, memo-plane annotations stripped);
//! * and all of the above byte-identical at 1, 4, and 8 data-plane
//!   threads.
//!
//! The accounting is exact, not approximate: over a warm run,
//! `splits_reused + splits_computed == total splits`, with
//! `splits_computed` equal to the appended-plus-dirtied count derived
//! independently from the evolve schedule.

use std::collections::BTreeSet;
use std::sync::Arc;

use incmr::core::ContinuousSampling;
use incmr::data::lineitem::col;
use incmr::mapreduce::{MemoMetrics, ReduceOutput};
use incmr::prelude::*;

/// Initial dataset size for the replay matrix.
const INITIAL_SPLITS: u32 = 24;
const RECORDS: u64 = 3_000;

/// A sample target far above anything the datasets here can hold, so the
/// requery job consumes **every** split (the Hadoop policy grabs the
/// whole pool upfront) and materialises **every** matching row — a scan
/// whose output actually reflects split content, which is what the
/// byte-equality and stale-cache assertions bite on.
const EVERYTHING: u64 = 1 << 40;

/// The job the replay suite re-submits: a full-consumption sampling job,
/// byte-deterministic, under one explicit signature across submissions
/// (a job without one is never memoized).
fn requery(ds: &Arc<Dataset>) -> (JobSpec, Box<dyn incmr::mapreduce::GrowthDriver>) {
    let (mut job, driver) = build_sampling_job(
        ds,
        EVERYTHING,
        Policy::hadoop(),
        ScanMode::Planted,
        SampleMode::FirstK,
        23,
    );
    job.settings.signature = Some(7_002);
    (job, driver)
}

/// One evolve step of a schedule.
#[derive(Clone, Debug)]
enum Op {
    /// Append this many fresh splits.
    Append(u32),
    /// Rewrite these splits in place (indices into the dataset's split
    /// snapshot, which lists initial splits first, appends after).
    Mutate(Vec<usize>),
}

/// A runtime plus the evolving dataset and the placement/content streams
/// that must be replayed identically for a cold world to reproduce a warm
/// world's final state.
struct World {
    rt: MrRuntime,
    ds: Arc<Dataset>,
    placement: EvenRoundRobin,
    rng: DetRng,
}

fn world(threads: u32) -> World {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(17);
    let mut placement = EvenRoundRobin::new();
    let spec = DatasetSpec::small("t", INITIAL_SPLITS, RECORDS, SkewLevel::Moderate, 17);
    let ds = Arc::new(Dataset::build(&mut ns, spec, &mut placement, &mut rng));
    let mut rt = MrRuntime::new(
        ClusterConfig::paper_single_user().with_parallelism(Parallelism::threads(threads)),
        CostModel::paper_default(),
        ns,
        Box::new(FifoScheduler::new()),
    );
    rt.enable_tracing();
    World {
        rt,
        ds,
        placement,
        rng,
    }
}

/// Apply an evolve schedule through the runtime (so live standing queries
/// would be woken and `InputArrived` is traced).
fn apply(w: &mut World, ops: &[Op]) {
    let World {
        rt,
        ds,
        placement,
        rng,
    } = w;
    for op in ops {
        match op {
            Op::Append(n) => {
                rt.evolve(|ns| ds.append(ns, *n, placement, rng));
            }
            Op::Mutate(indices) => {
                let splits = ds.splits();
                let blocks: Vec<BlockId> = indices.iter().map(|&i| splits[i].block).collect();
                rt.evolve(|ns| ds.mutate(ns, &blocks, placement, rng));
            }
        }
    }
}

/// splitmix64: independent schedule knobs from one seed, without touching
/// the simulation's own rng streams.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derive an arbitrary evolve schedule from a seed: 1–3 steps, each an
/// append of 1–3 splits or an in-place mutation of up to 3 distinct
/// splits drawn from whatever exists at that point of the schedule.
fn schedule(seed: u64) -> Vec<Op> {
    let h = |i: u64| mix(seed.wrapping_mul(1_000_003).wrapping_add(i));
    let steps = 1 + h(0) % 3;
    let mut ops = Vec::new();
    let mut count = INITIAL_SPLITS as usize;
    for s in 0..steps {
        if h(10 + s) % 2 == 0 {
            let n = 1 + (h(20 + s) % 3) as u32;
            ops.push(Op::Append(n));
            count += n as usize;
        } else {
            let m = 1 + h(30 + s) % 3;
            let set: BTreeSet<usize> = (0..m)
                .map(|j| (h(40 + 7 * s + j) as usize) % count)
                .collect();
            ops.push(Op::Mutate(set.into_iter().collect()));
        }
    }
    ops
}

/// What the memo plane must do for a schedule, derived independently of
/// the runtime: appended splits (never memoized) and dirtied *initial*
/// splits recompute; every other initial split is reused. A mutation of a
/// split appended earlier in the same schedule stays a plain computation
/// — there is no memo entry to dirty.
struct Expect {
    total: u32,
    appended: u32,
    dirty: u32,
}

fn expect(ops: &[Op]) -> Expect {
    let mut appended = 0u32;
    let mut dirty: BTreeSet<usize> = BTreeSet::new();
    for op in ops {
        match op {
            Op::Append(n) => appended += n,
            Op::Mutate(indices) => {
                dirty.extend(indices.iter().filter(|&&i| i < INITIAL_SPLITS as usize));
            }
        }
    }
    Expect {
        total: INITIAL_SPLITS + appended,
        appended,
        dirty: dirty.len() as u32,
    }
}

/// Normalize one job's slice of a trace for warm-vs-cold comparison:
/// keep only that job's events, rebase times to its first event, rewrite
/// the job id to 0, and strip the memo-plane annotations (`SplitReused`,
/// `SplitDirty`, `SplitMissed`) — those *describe* how the run was
/// produced, while everything left *is* the run.
fn fingerprint(events: &[TraceEvent], job: JobId) -> String {
    let filtered: Vec<TraceEvent> = events
        .iter()
        .filter(|e| e.kind.job() == Some(job))
        .filter(|e| {
            !matches!(
                e.kind,
                TraceKind::SplitReused { .. }
                    | TraceKind::SplitDirty { .. }
                    | TraceKind::SplitMissed { .. }
            )
        })
        .cloned()
        .collect();
    let base = filtered.first().map(|e| e.time).unwrap_or(SimTime::ZERO);
    let rebased: Vec<TraceEvent> = filtered
        .into_iter()
        .map(|e| TraceEvent {
            time: SimTime::ZERO + (e.time - base),
            kind: e.kind,
        })
        .collect();
    // Every "job" field in the filtered slice carries this job's id, so a
    // plain textual rewrite is exact.
    encode_trace(&rebased).replace(&format!("\"job\":{}", job.0), &format!("\"job\":{}", 0))
}

/// Deltas between two memo counter snapshots.
fn delta(before: MemoMetrics, after: MemoMetrics) -> MemoMetrics {
    MemoMetrics {
        splits_reused: after.splits_reused - before.splits_reused,
        splits_dirty: after.splits_dirty - before.splits_dirty,
        splits_computed: after.splits_computed - before.splits_computed,
        input_arrivals: after.input_arrivals - before.input_arrivals,
        records_saved: after.records_saved - before.records_saved,
        entries_invalidated: after.entries_invalidated - before.entries_invalidated,
    }
}

/// Cold world: build, replay the schedule, run the scan once (no
/// memoization anywhere). Returns the result and the normalized timeline.
fn cold_run(threads: u32, ops: &[Op]) -> (JobResult, String) {
    let mut w = world(threads);
    apply(&mut w, ops);
    let (job, driver) = requery(&w.ds);
    let id = w.rt.submit(job, driver);
    w.rt.run_until_idle();
    let result = w.rt.job_result(id).clone();
    let events = w.rt.take_trace();
    (result, fingerprint(&events, id))
}

/// Warm world: run the scan cold to populate the memo store, replay the
/// schedule, re-submit the identical scan. Returns the warm result, its
/// normalized timeline, and the warm run's memo-counter deltas.
fn warm_run(threads: u32, ops: &[Op]) -> (JobResult, String, MemoMetrics) {
    let mut w = world(threads);
    w.rt.enable_memoization();
    let (job, driver) = requery(&w.ds);
    let cold_id = w.rt.submit(job, driver);
    w.rt.run_until_idle();
    assert!(
        !w.rt.job_result(cold_id).failed,
        "the priming run must pass"
    );
    apply(&mut w, ops);
    let before = w.rt.metrics().memo();
    let (job, driver) = requery(&w.ds);
    let warm_id = w.rt.submit(job, driver);
    w.rt.run_until_idle();
    let result = w.rt.job_result(warm_id).clone();
    let events = w.rt.take_trace();
    let fp = fingerprint(&events, warm_id);
    (result, fp, delta(before, w.rt.metrics().memo()))
}

/// The replay matrix: arbitrary append/mutate schedules, warm re-runs at
/// 1, 4, and 8 threads, each compared byte-for-byte against a cold run on
/// the final dataset state — plus the exact reuse arithmetic.
#[test]
fn warm_reruns_replay_cold_runs_byte_for_byte() {
    let (mut reused, mut dirtied, mut appended) = (0u64, 0u64, 0u64);
    for seed in 0..8u64 {
        let ops = schedule(seed);
        let exp = expect(&ops);
        let (cold, cold_fp) = cold_run(1, &ops);
        assert!(!cold.failed, "cold run must pass (schedule {seed})");
        let mut first: Option<(JobResult, String, MemoMetrics)> = None;
        for threads in [1u32, 4, 8] {
            let (r, fp, d) = warm_run(threads, &ops);
            assert!(!r.failed, "warm run must pass (schedule {seed})");
            assert_eq!(
                r.output, cold.output,
                "warm output != cold output (schedule {seed}, {threads} threads)"
            );
            assert_eq!(
                r.response_time(),
                cold.response_time(),
                "warm response time != cold (schedule {seed}, {threads} threads)"
            );
            assert_eq!(
                fp, cold_fp,
                "normalized warm timeline != cold (schedule {seed}, {threads} threads)"
            );
            assert_eq!(
                d.splits_reused,
                (INITIAL_SPLITS - exp.dirty) as u64,
                "every untouched initial split must be reused (schedule {seed})"
            );
            assert_eq!(d.splits_dirty, exp.dirty as u64, "schedule {seed}");
            assert_eq!(
                d.splits_computed,
                (exp.appended + exp.dirty) as u64,
                "only new and dirty splits may recompute (schedule {seed})"
            );
            assert_eq!(
                d.splits_reused + d.splits_computed,
                exp.total as u64,
                "reused + recomputed must cover every split exactly (schedule {seed})"
            );
            if let Some((r0, fp0, d0)) = &first {
                assert_eq!(&r.output, &r0.output, "thread divergence ({seed})");
                assert_eq!(&fp, fp0, "thread divergence ({seed})");
                assert_eq!(&d, d0, "thread divergence ({seed})");
            } else {
                first = Some((r, fp, d));
            }
        }
        reused += (INITIAL_SPLITS - exp.dirty) as u64;
        dirtied += exp.dirty as u64;
        appended += exp.appended as u64;
    }
    assert!(
        reused > 0 && dirtied > 0 && appended > 0,
        "the schedule pool must exercise reuse ({reused}), dirtiness ({dirtied}), \
         and arrival ({appended}) or the matrix proves nothing"
    );
}

/// An unchanged dataset is the degenerate schedule: the warm re-run
/// reuses every split, computes none, and skips every input record.
#[test]
fn unchanged_dataset_reuses_every_split() {
    let (r, _, d) = warm_run(1, &[]);
    assert!(!r.failed);
    assert_eq!(d.splits_reused, INITIAL_SPLITS as u64);
    assert_eq!(d.splits_computed, 0);
    assert_eq!(d.splits_dirty, 0);
    assert_eq!(
        d.records_saved,
        INITIAL_SPLITS as u64 * RECORDS,
        "a full-reuse run must skip exactly the whole dataset's records"
    );
}

/// Mutation visibility: rewriting splits re-seeds their content, so the
/// warm output must *differ* from the pre-mutation output (stale cache
/// was provably not served) while still matching the cold run.
#[test]
fn stale_cache_is_never_served_after_mutation() {
    let ops = vec![Op::Mutate(vec![0, 5, 11])];
    let mut w = world(1);
    w.rt.enable_memoization();
    let (job, driver) = requery(&w.ds);
    let id0 = w.rt.submit(job, driver);
    w.rt.run_until_idle();
    let before = w.rt.job_result(id0).output.clone();
    apply(&mut w, &ops);
    let (job, driver) = requery(&w.ds);
    let id1 = w.rt.submit(job, driver);
    w.rt.run_until_idle();
    let warm = w.rt.job_result(id1).output.clone();
    let (cold, _) = cold_run(1, &ops);
    assert_eq!(warm, cold.output, "warm must equal cold on the new data");
    assert_ne!(
        warm, before,
        "mutated splits generate different rows — identical output would \
         mean stale memoized map output was served"
    );
    let m = w.rt.metrics().memo();
    assert_eq!(m.splits_dirty, 3, "exactly the three rewritten splits");
}

/// The memo key is (job signature, block): a job with a different
/// signature shares nothing, even over an identical dataset.
#[test]
fn a_different_signature_shares_no_cached_output() {
    let mut w = world(1);
    w.rt.enable_memoization();
    let (job, driver) = requery(&w.ds);
    let id0 = w.rt.submit(job, driver);
    w.rt.run_until_idle();
    let before = w.rt.metrics().memo();
    let (mut job, driver) = requery(&w.ds);
    job.settings.signature = Some(12_345);
    let id1 = w.rt.submit(job, driver);
    w.rt.run_until_idle();
    let d = delta(before, w.rt.metrics().memo());
    assert_eq!(d.splits_reused, 0, "foreign signature must never hit");
    assert_eq!(d.splits_computed, INITIAL_SPLITS as u64);
    assert_eq!(
        w.rt.job_result(id1).output,
        w.rt.job_result(id0).output,
        "same computation either way"
    );
}

/// A job that sets no signature bypasses the memo plane: no probe, no
/// insert, no memo event or counter. Two full-mode sampling jobs that
/// differ only in their predicate therefore answer the same with the memo
/// on as with it off; a guessed identity that ignored the predicate would
/// serve the first job's map output to the second.
#[test]
fn a_job_without_a_signature_bypasses_the_memo_plane() {
    let answers = |memoize: bool| {
        let mut w = world(1);
        if memoize {
            w.rt.enable_memoization();
        }
        let outputs = ["R", "A"].map(|flag| {
            let predicate = Predicate::eq(col::RETURNFLAG, Value::Str(flag.into()));
            let (job, driver) = build_sampling_job_with(
                &w.ds,
                predicate,
                Vec::new(),
                EVERYTHING,
                Policy::hadoop(),
                ScanMode::Full,
                SampleMode::FirstK,
                23,
            );
            assert_eq!(job.settings.signature, None);
            let id = w.rt.submit(job, driver);
            w.rt.run_until_idle();
            assert!(!w.rt.job_result(id).failed, "L_RETURNFLAG = '{flag}'");
            w.rt.job_result(id).output.clone()
        });
        if memoize {
            let store = w.rt.memo_store().expect("memoization enabled");
            assert_eq!(store.len(), 0, "nothing is cached without a signature");
            assert_eq!(w.rt.metrics().memo(), MemoMetrics::default());
        }
        outputs
    };
    let [cold_r, cold_a] = answers(false);
    assert!(cold_r != cold_a, "the two predicates select different rows");
    let [memo_r, memo_a] = answers(true);
    assert!(memo_r == cold_r, "L_RETURNFLAG = 'R'");
    assert!(
        memo_a == cold_a,
        "the memo served another job's map output: {} rows memoized, {} without the memo",
        memo_a.len(),
        cold_a.len()
    );
}

/// Growth is traced and counted once per evolve step, and the memo store
/// holds exactly one entry per (signature, block).
#[test]
fn arrivals_are_traced_and_counted_once() {
    let mut w = world(1);
    w.rt.enable_memoization();
    let (job, driver) = requery(&w.ds);
    let id = w.rt.submit(job, driver);
    w.rt.run_until_idle();
    assert!(!w.rt.job_result(id).failed);
    apply(&mut w, &[Op::Append(2), Op::Append(3)]);
    let events = w.rt.take_trace();
    let arrivals: Vec<u32> = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::InputArrived { splits } => Some(splits),
            _ => None,
        })
        .collect();
    assert_eq!(arrivals, vec![2, 3], "one event per evolve step");
    assert_eq!(w.rt.metrics().memo().input_arrivals, 2);
    assert_eq!(
        w.rt.memo_store().expect("memoization enabled").len(),
        INITIAL_SPLITS as usize,
        "one entry per computed split, none for blocks no job has read"
    );
}

/// The standing-query protocol end to end: a continuous sampling job
/// whose pool drains below `k` parks (the runtime goes idle without
/// completing it), is woken by arriving data, folds the new blocks into
/// its pool, and completes with the full sample — identically at every
/// thread count.
#[test]
fn a_standing_query_parks_and_is_woken_by_arriving_data() {
    let outputs: Vec<(ReduceOutput, String)> = [1u32, 4, 8]
        .iter()
        .map(|&threads| {
            let mut ns = Namespace::new(ClusterTopology::paper_cluster());
            let mut rng = DetRng::seed_from(7);
            let mut placement = EvenRoundRobin::new();
            let spec = DatasetSpec::small("s", 8, RECORDS, SkewLevel::Zero, 7);
            let ds = Arc::new(Dataset::build(&mut ns, spec, &mut placement, &mut rng));
            let mut rt = MrRuntime::new(
                ClusterConfig::paper_single_user().with_parallelism(Parallelism::threads(threads)),
                CostModel::paper_default(),
                ns,
                Box::new(FifoScheduler::new()),
            );
            rt.enable_tracing();
            // One more match than the whole initial dataset holds: the
            // query *cannot* complete until data arrives.
            let k = ds.total_matching() + 1;
            let (mut job, _) = build_sampling_job(
                &ds,
                k,
                Policy::ma(),
                ScanMode::Planted,
                SampleMode::FirstK,
                23,
            );
            job.settings.continuous = true;
            let blocks: Vec<BlockId> = ds.splits().iter().map(|p| p.block).collect();
            let total = blocks.len() as u32;
            let driver = Box::new(DynamicDriver::new(
                Box::new(ContinuousSampling::new(blocks, k, 23)),
                Policy::ma(),
                total,
            ));
            let id = rt.submit(job, driver);
            rt.run_until_idle();
            assert!(
                !rt.is_complete(id),
                "pool exhausted below k: the standing query must park, not finish"
            );
            rt.evolve(|ns| ds.append(ns, 4, &mut placement, &mut rng));
            rt.run_until_idle();
            assert!(rt.is_complete(id), "arriving data must wake the query");
            let r = rt.job_result(id).clone();
            assert!(!r.failed);
            assert_eq!(r.output.len() as u64, k, "the full sample, eventually");
            let events = rt.take_trace();
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e.kind, TraceKind::InputArrived { splits: 4 })),
                "the wakeup must be traced"
            );
            (r.output.clone(), encode_trace(&events))
        })
        .collect();
    for (i, other) in outputs.iter().enumerate().skip(1) {
        assert_eq!(
            outputs[0],
            *other,
            "standing query diverged at {} threads",
            [1, 4, 8][i]
        );
    }
}

/// A full-mode HiveQL session over an 8×2000 table, memoized or not.
fn sql_session(memoize: bool) -> Session {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(31);
    let spec = DatasetSpec::small("lineitem", 8, 2_000, SkewLevel::High, 31);
    let ds = Arc::new(Dataset::build(
        &mut ns,
        spec,
        &mut EvenRoundRobin::new(),
        &mut rng,
    ));
    let mut rt = MrRuntime::new(
        ClusterConfig::paper_single_user(),
        CostModel::paper_default(),
        ns,
        Box::new(FifoScheduler::new()),
    );
    if memoize {
        rt.enable_memoization();
    }
    Session::builder()
        .runtime(rt)
        .table("lineitem", ds)
        .scan_mode(ScanMode::Full)
        .try_build()
        .expect("well-formed session")
}

/// Statement pairs whose map outputs differ only in the predicate, the
/// grouping column, or an aggregate's column. One pair per plan shape.
const DISTINCT_QUESTIONS: [(&str, &str); 4] = [
    (
        "SELECT L_QUANTITY FROM lineitem WHERE L_QUANTITY < 3",
        "SELECT L_QUANTITY FROM lineitem WHERE L_QUANTITY > 48",
    ),
    (
        "SELECT COUNT(*) FROM lineitem WHERE L_QUANTITY < 3",
        "SELECT COUNT(*) FROM lineitem WHERE L_QUANTITY > 48",
    ),
    (
        "SELECT COUNT(*), SUM(L_QUANTITY) FROM lineitem GROUP BY L_RETURNFLAG",
        "SELECT COUNT(*), SUM(L_QUANTITY) FROM lineitem GROUP BY L_LINESTATUS",
    ),
    (
        "SELECT SUM(L_QUANTITY) FROM lineitem GROUP BY L_RETURNFLAG \
         WITH ERROR 0.05 CONFIDENCE 0.95",
        "SELECT SUM(L_EXTENDEDPRICE) FROM lineitem GROUP BY L_RETURNFLAG \
         WITH ERROR 0.05 CONFIDENCE 0.95",
    ),
];

/// Memoization is an optimisation only: a statement answers the same with
/// the memo on as with it off, even right after a different statement of
/// the same plan shape over the same table.
#[test]
fn memoized_answers_equal_unmemoized_answers() {
    let answers = |memoize: bool, first: &str, second: &str| {
        let mut s = sql_session(memoize);
        [first, second].map(|sql| match s.execute(sql).expect("statement runs") {
            QueryOutput::Rows { rows, .. } => rows,
            other => panic!("{sql}: expected rows, got {other:?}"),
        })
    };
    for (first, second) in DISTINCT_QUESTIONS {
        let [cold_first, cold_second] = answers(false, first, second);
        assert!(cold_first != cold_second, "the pair must differ: {second}");
        let [memo_first, memo_second] = answers(true, first, second);
        assert!(memo_first == cold_first, "{first}");
        assert!(
            memo_second == cold_second,
            "the memo served another statement's map output to `{second}`: \
             {} rows memoized, {} without the memo",
            memo_second.len(),
            cold_second.len()
        );
    }
}
