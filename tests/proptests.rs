//! Property-based tests of the stack's core invariants.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use incmr::core::policy_file::{parse_grab_limit, parse_policy_file};
use incmr::data::generator::{RecordFactory, SplitGenerator, SplitSpec};
use incmr::data::lineitem::{col, LineItemFactory};
use incmr::data::skew::assign_matching;
use incmr::mapreduce::{TaskScheduler, TraceEvent, TraceKind, ValueSeq};
use incmr::prelude::*;
use incmr::simkit::dist::Zipf;
use incmr::simkit::resource::PsResource;
use incmr::simkit::Sim;

/// Run one fault-free dynamic sampling job with tracing on; the exported
/// trace is the oracle for the scheduler properties below.
fn traced_sampling_run(
    partitions: u32,
    records: u64,
    k: u64,
    policy_idx: usize,
    fair: bool,
    seed: u64,
) -> (Vec<TraceEvent>, JobResult) {
    let policy = Policy::table1()[policy_idx].clone();
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(seed);
    let spec = DatasetSpec::small("t", partitions, records, SkewLevel::Moderate, seed);
    let ds = Arc::new(Dataset::build(
        &mut ns,
        spec,
        &mut EvenRoundRobin::new(),
        &mut rng,
    ));
    let scheduler: Box<dyn TaskScheduler> = if fair {
        Box::new(FairScheduler::paper_default())
    } else {
        Box::new(FifoScheduler::new())
    };
    let mut rt = MrRuntime::new(
        ClusterConfig::paper_single_user(),
        CostModel::paper_default(),
        ns,
        scheduler,
    );
    rt.enable_tracing();
    let (job, driver) = build_sampling_job(
        &ds,
        k,
        policy,
        ScanMode::Planted,
        SampleMode::FirstK,
        seed ^ 1,
    );
    let id = rt.submit(job, driver);
    rt.run_until_idle();
    let result = rt.job_result(id).clone();
    (rt.take_trace(), result)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The planted fast path is exactly the predicate-filtered full scan.
    #[test]
    fn planted_equals_filtered_full_scan(
        records in 1u64..2_000,
        frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let matching = (records as f64 * frac) as u64;
        let factory = LineItemFactory::new(col::QUANTITY, Value::Int(200));
        let gen = SplitGenerator::new(&factory, SplitSpec::new(records, matching, seed));
        let predicate = factory.predicate();
        let filtered: Vec<Record> = gen.full_iter().filter(|r| predicate.eval(r)).collect();
        prop_assert_eq!(filtered.len() as u64, matching);
        prop_assert_eq!(filtered, gen.planted_matches());
    }

    /// Zipf planting conserves the total and covers every partition index.
    #[test]
    fn skew_assignment_conserves_total(
        total in 0u64..30_000,
        partitions in 1usize..200,
        z in 0.0f64..3.0,
        seed in any::<u64>(),
    ) {
        let mut rng = DetRng::seed_from(seed);
        let counts = assign_matching(total, partitions, z, &mut rng);
        prop_assert_eq!(counts.len(), partitions);
        prop_assert_eq!(counts.iter().sum::<u64>(), total);
    }

    /// Zipf pmf is a probability distribution for any exponent.
    #[test]
    fn zipf_pmf_sums_to_one(n in 1usize..500, z in 0.0f64..4.0) {
        let d = Zipf::new(n, z);
        let total: f64 = (1..=n).map(|k| d.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
    }

    /// The event queue delivers in nondecreasing time order, FIFO within a
    /// timestamp, regardless of the schedule.
    #[test]
    fn event_queue_orders_any_schedule(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut sim: Sim<usize> = Sim::new();
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(SimTime::from_millis(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((at, idx)) = sim.pop() {
            if let Some((prev_at, prev_idx)) = last {
                prop_assert!(at >= prev_at);
                if at == prev_at {
                    prop_assert!(idx > prev_idx, "FIFO within a timestamp");
                }
            }
            prop_assert_eq!(SimTime::from_millis(times[idx]), at);
            last = Some((at, idx));
        }
    }

    /// Processor sharing conserves work: injected = drained + remaining.
    #[test]
    fn ps_resource_conserves_work(
        flows in prop::collection::vec((0u64..5_000, 1.0f64..10_000.0), 1..40),
        horizon in 1u64..20_000,
    ) {
        let mut r = PsResource::new(1_000.0);
        let mut injected = 0.0;
        let mut ids = Vec::new();
        let mut sorted = flows.clone();
        sorted.sort_by_key(|(t, _)| *t);
        for (t, amount) in &sorted {
            ids.push(r.add_flow(SimTime::from_millis(*t), *amount));
            injected += amount;
        }
        let end = SimTime::from_millis(10_000_000.min(sorted.last().unwrap().0 + horizon));
        r.advance(end);
        let remaining: f64 = ids.iter().filter_map(|&id| r.remaining(id)).sum();
        let drained = r.drained_total(end);
        prop_assert!(
            (injected - remaining - drained).abs() < 1e-3 * injected.max(1.0),
            "injected {injected} != drained {drained} + remaining {remaining}"
        );
    }

    /// Grab-limit expressions round-trip through render → parse.
    #[test]
    fn grab_limit_display_parses_back(ts in 1u32..1000, avail in 0u32..1000) {
        for policy in Policy::table1() {
            let rendered = policy.grab_limit.to_string();
            let reparsed = parse_grab_limit(&rendered).unwrap();
            prop_assert_eq!(
                reparsed.evaluate(ts, avail.min(ts)),
                policy.grab_limit.evaluate(ts, avail.min(ts))
            );
        }
    }

    /// A sampling job returns exactly min(k, planted matches), never
    /// anything else, across sizes, skews, and policies.
    #[test]
    fn sample_size_invariant(
        partitions in 2u32..24,
        records in 500u64..4_000,
        k in 1u64..200,
        skew_idx in 0usize..3,
        policy_idx in 0usize..5,
        seed in any::<u64>(),
    ) {
        let skew = SkewLevel::all()[skew_idx];
        let policy = Policy::table1()[policy_idx].clone();
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let mut rng = DetRng::seed_from(seed);
        let spec = DatasetSpec::small("t", partitions, records, skew, seed);
        let ds = Arc::new(Dataset::build(&mut ns, spec, &mut EvenRoundRobin::new(), &mut rng));
        let total_matches = ds.total_matching();
        let mut rt = MrRuntime::new(
            ClusterConfig::paper_single_user(),
            CostModel::paper_default(),
            ns,
            Box::new(FifoScheduler::new()),
        );
        let (job, driver) = build_sampling_job(&ds, k, policy, ScanMode::Planted, SampleMode::FirstK, seed ^ 1);
        let id = rt.submit(job, driver);
        rt.run_until_idle();
        let result = rt.job_result(id);
        prop_assert_eq!(result.output.len() as u64, k.min(total_matches));
        // Every output satisfies the predicate.
        let predicate = ds.factory().predicate();
        prop_assert!(result.output.iter().all(|(_, r)| predicate.eval(r)));
        // No partition is processed twice and none are invented.
        prop_assert!(result.splits_processed <= partitions);
    }

    /// Policy files render → parse → identical policies (full round trip).
    #[test]
    fn policy_file_round_trip(wt in 0.0f64..50.0, frac in 0.01f64..1.0, interval in 100u64..60_000) {
        let text = format!(
            "<policies><policy name=\"p\"><workThreshold>{wt}</workThreshold>\
             <grabLimit>{frac}*AS</grabLimit><evaluationInterval>{interval}</evaluationInterval>\
             </policy></policies>"
        );
        let parsed = parse_policy_file(&text).unwrap();
        prop_assert_eq!(parsed.len(), 1);
        prop_assert_eq!(parsed[0].work_threshold_pct, wt);
        prop_assert_eq!(parsed[0].evaluation_interval.as_millis(), interval);
    }

    /// The exported trace as a causal oracle: whatever the dataset, policy,
    /// or scheduler, no event precedes its cause — tasks only start after
    /// the provider added their splits, the shuffle only closes once every
    /// started map committed, reduces only run after the shuffle, and the
    /// job completes exactly once, at the very end.
    #[test]
    fn trace_has_no_event_before_its_cause(
        partitions in 2u32..20,
        records in 500u64..3_000,
        k in 1u64..120,
        policy_idx in 0usize..5,
        fair in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (trace, _) = traced_sampling_run(partitions, records, k, policy_idx, fair, seed);
        prop_assert!(matches!(trace.first().map(|e| &e.kind), Some(TraceKind::JobSubmitted { .. })));
        prop_assert!(matches!(trace.last().map(|e| &e.kind), Some(TraceKind::JobCompleted { .. })));
        let mut splits_added = 0u64;
        let mut started = BTreeSet::new();
        let mut finished = BTreeSet::new();
        let mut reduce_started = false;
        let mut shuffle_ready_at: Option<SimTime> = None;
        let mut completions = 0usize;
        for w in trace.windows(2) {
            prop_assert!(w[0].time <= w[1].time, "timestamps must be nondecreasing");
        }
        for e in &trace {
            prop_assert_eq!(completions, 0, "no event may follow JobCompleted");
            match e.kind {
                TraceKind::InputAdded { splits, .. } => {
                    prop_assert!(
                        shuffle_ready_at.is_none(),
                        "input added after the shuffle closed"
                    );
                    splits_added += splits as u64;
                }
                TraceKind::MapStarted { task, .. } => {
                    prop_assert!(
                        (task.0 as u64) < splits_added,
                        "task {} started before its split was added ({} known)",
                        task.0,
                        splits_added
                    );
                    started.insert(task);
                }
                TraceKind::MapFinished { task, .. } => {
                    prop_assert!(started.contains(&task), "finish before start");
                    finished.insert(task);
                }
                TraceKind::ShuffleReady { .. } => {
                    prop_assert_eq!(
                        &started, &finished,
                        "the shuffle closed with maps still in flight"
                    );
                    prop_assert!(!finished.is_empty());
                    shuffle_ready_at = Some(e.time);
                }
                TraceKind::ReduceStarted { .. } => {
                    let ready = shuffle_ready_at.expect("reduce before ShuffleReady");
                    prop_assert!(e.time >= ready);
                    reduce_started = true;
                }
                TraceKind::ReduceFinished { .. } => {
                    prop_assert!(reduce_started, "commit before start");
                }
                TraceKind::JobCompleted { .. } => completions += 1,
                _ => {}
            }
        }
        prop_assert_eq!(completions, 1);
    }

    /// Slot discipline, with the trace as the oracle: at no simulated
    /// instant does a node host more concurrent map attempts than its map
    /// slots or more reduces than its reduce slots — attempt spans never
    /// overlap on one slot — and the per-job queue-wait histogram carries
    /// exactly one sample per dispatch, keyed by the scheduler that made it.
    #[test]
    fn no_node_overcommits_its_slots(
        partitions in 2u32..20,
        records in 500u64..3_000,
        k in 1u64..120,
        policy_idx in 0usize..5,
        fair in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (trace, result) = traced_sampling_run(partitions, records, k, policy_idx, fair, seed);
        // `paper_single_user()`: 4 map + 2 reduce slots per node; a clean
        // run has exactly one attempt per task (asserted below), so spans
        // are delimited by Started/Finished pairs.
        let mut maps_on: BTreeMap<u16, u32> = BTreeMap::new();
        let mut task_node = BTreeMap::new();
        let mut reduces_on: BTreeMap<u16, u32> = BTreeMap::new();
        let mut reduce_node = None;
        let mut dispatches = 0u64;
        for e in &trace {
            match e.kind {
                TraceKind::MapStarted { task, node, .. } => {
                    dispatches += 1;
                    prop_assert!(
                        task_node.insert(task, node).is_none(),
                        "a fault-free run re-ran task {}",
                        task.0
                    );
                    let n = maps_on.entry(node.0).or_insert(0);
                    *n += 1;
                    prop_assert!(*n <= 4, "node {} over its 4 map slots", node.0);
                }
                TraceKind::MapFinished { task, .. } => {
                    let node = task_node.get(&task).expect("finish before start");
                    *maps_on.get_mut(&node.0).unwrap() -= 1;
                }
                TraceKind::ReduceStarted { node, .. } => {
                    prop_assert!(reduce_node.replace(node).is_none());
                    let n = reduces_on.entry(node.0).or_insert(0);
                    *n += 1;
                    prop_assert!(*n <= 2, "node {} over its 2 reduce slots", node.0);
                }
                TraceKind::ReduceFinished { .. } => {
                    let node = reduce_node.expect("commit before start");
                    *reduces_on.get_mut(&node.0).unwrap() -= 1;
                }
                TraceKind::MapFailed { .. }
                | TraceKind::ReduceFailed { .. }
                | TraceKind::AttemptKilled { .. }
                | TraceKind::SpeculativeLaunch { .. }
                | TraceKind::NodeLost { .. } => {
                    prop_assert!(false, "fault event in a fault-free run: {:?}", e.kind);
                }
                _ => {}
            }
        }
        prop_assert!(maps_on.values().all(|&n| n == 0), "a map span never closed");
        prop_assert!(reduces_on.values().all(|&n| n == 0), "a reduce span never closed");
        let expected = if fair { "fair" } else { "fifo" };
        let waits = result.histograms.queue_wait(expected).expect("scheduler-keyed waits");
        prop_assert_eq!(waits.count(), dispatches, "one queue-wait sample per dispatch");
        prop_assert_eq!(result.histograms.queue_wait_total().count(), dispatches);
    }
}

/// A key group built from `segments`, each a run of rows carried either
/// materialised or as a selection into a batch of its own (with one
/// unselected leading row), and the rows it holds, built value by value.
/// `projected` keeps columns 2 and 3 of every row.
fn value_seq(segments: &[(bool, Vec<(i64, i64)>)], projected: bool) -> (ValueSeq, Vec<Record>) {
    use incmr::data::schema::{ColumnType, Schema};
    use incmr::data::{BatchSelection, RecordBatch};

    let schema = Schema::new(vec![
        ("a", ColumnType::Float),
        ("b", ColumnType::Int),
        ("c", ColumnType::Float),
        ("d", ColumnType::Int),
    ]);
    let projection: Vec<usize> = if projected { vec![2, 3] } else { vec![] };
    let row = |&(x, y): &(i64, i64)| {
        Record::new(vec![
            Value::Float(x as f64 / 4.0),
            Value::Int(y),
            Value::Float(y as f64),
            Value::Int(x),
        ])
    };
    let project = |record: Record| {
        if projected {
            record.project(&projection)
        } else {
            record
        }
    };
    let mut seq = ValueSeq::default();
    let mut expect = Vec::new();
    for (as_batch, rows) in segments {
        expect.extend(rows.iter().map(row).map(project));
        if *as_batch {
            let records: Vec<Record> = std::iter::once(&(0, 0)).chain(rows).map(row).collect();
            let batch = Arc::new(RecordBatch::from_records(&schema, &records));
            let sel = (1..records.len() as u32).collect();
            seq.push_batch(BatchSelection::new(batch, sel, projection.clone().into()));
        } else {
            for r in rows {
                seq.push(project(row(r)));
            }
        }
    }
    (seq, expect)
}

/// A reducer that implements only `reduce`, so `reduce_group` runs the
/// provided default. It echoes the group in reverse, so its output pins
/// every row and their order.
struct ReverseReducer;

impl incmr::mapreduce::Reducer for ReverseReducer {
    fn reduce(&self, key: &Key, values: &[Record], output: &mut Vec<(Key, Record)>) {
        output.extend(values.iter().rev().map(|r| (Key::clone(key), r.clone())));
    }
}

/// A reduce-only reducer that emits each row under its group key when the
/// row's last value is even and under a key of its own when it is odd, so
/// the default `reduce_group` splits its output into runs of random
/// length.
struct AlternatingReducer;

impl incmr::mapreduce::Reducer for AlternatingReducer {
    fn reduce(&self, key: &Key, values: &[Record], output: &mut Vec<(Key, Record)>) {
        let other = Key::from("odd");
        output.extend(values.iter().map(|r| {
            let odd = matches!(r.values().last(), Some(Value::Int(v)) if v % 2 != 0);
            (Key::clone(if odd { &other } else { key }), r.clone())
        }));
    }
}

/// Owned copies of an output's `(key, row)` pairs.
fn pairs_of(output: &incmr::mapreduce::ReduceOutput) -> Vec<(Key, Record)> {
    output
        .iter()
        .map(|(k, r)| (Key::clone(k), r.clone()))
        .collect()
}

/// A `(key, row)` sequence over three keys, each pair's key a fresh
/// allocation so equality cannot lean on pointer identity.
fn keyed_rows(spec: &[(u8, i64)]) -> Vec<(Key, Record)> {
    spec.iter()
        .map(|&(k, v)| (Key::from(format!("k{k}")), Record::new(vec![Value::Int(v)])))
        .collect()
}

/// Build a `ReduceOutput` holding `pairs`, cutting the sequence into
/// chunks that enter by `push` or by the run builder (`fill`, one call per
/// stretch of equal keys, plus an empty fill under a stray key).
fn build_output(pairs: &[(Key, Record)], cuts: &[(u8, usize)]) -> incmr::mapreduce::ReduceOutput {
    use incmr::mapreduce::ReduceOutput;

    fn fill_runs(out: &mut ReduceOutput, chunk: &[(Key, Record)]) {
        for run in chunk.chunk_by(|a, b| a.0 == b.0) {
            out.fill(&run[0].0, |rows| {
                rows.extend(run.iter().map(|(_, r)| r.clone()))
            });
        }
        out.fill(&Key::from("stray"), |_| {});
    }

    let mut out = ReduceOutput::default();
    let mut rest = pairs;
    let mut cuts = cuts.iter().cycle();
    while !rest.is_empty() {
        let &(how, size) = cuts.next().unwrap_or(&(0, usize::MAX));
        let (chunk, tail) = rest.split_at(size.min(rest.len()));
        rest = tail;
        match how {
            0 => chunk.iter().for_each(|(k, r)| out.push(k, r.clone())),
            _ => fill_runs(&mut out, chunk),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The output `Reducer::reduce_group` builds from an owned group
    /// iterates exactly the pairs `reduce` outputs over the materialised
    /// group: for the identity reducer, for first-k and random-k sampling
    /// with k below, at and above the group size, and for two reducers
    /// that keep the default, one of them splitting its output across two
    /// keys. The materialised group itself equals the rows built value by
    /// value, so the row kernel is checked against rows it did not build.
    #[test]
    fn reduce_group_matches_reduce_over_rows(
        segments in prop::collection::vec(
            (any::<bool>(), prop::collection::vec((0i64..50, 0i64..1_000), 0..8)),
            0..6,
        ),
        projected in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use incmr::mapreduce::{IdentityReducer, ReduceOutput, Reducer};

        let (seq, expect) = value_seq(&segments, projected);
        let len = seq.len() as u64;
        let mut reducers: Vec<Box<dyn Reducer>> = vec![
            Box::new(IdentityReducer),
            Box::new(ReverseReducer),
            Box::new(AlternatingReducer),
        ];
        for k in [len.saturating_sub(1).max(1), len.max(1), len + 1] {
            reducers.push(Box::new(SamplingReducer::new(k, SampleMode::FirstK)));
            reducers.push(Box::new(SamplingReducer::new(k, SampleMode::RandomK { seed })));
        }
        let key = Key::from("g");
        let rows = seq.to_rows();
        prop_assert_eq!(&rows, &expect);
        for reducer in &reducers {
            let mut by_group = ReduceOutput::default();
            reducer.reduce_group(&key, seq.clone(), &mut by_group);
            let mut by_rows = Vec::new();
            reducer.reduce(&key, &rows, &mut by_rows);
            prop_assert_eq!(by_group.len(), by_rows.len());
            prop_assert_eq!(pairs_of(&by_group), by_rows);
        }
    }

    /// However a `(key, row)` sequence enters a `ReduceOutput` — pair by
    /// pair or a run at a time — `iter()` returns
    /// exactly that sequence, and two outputs compare equal exactly when
    /// their sequences do.
    #[test]
    fn reduce_output_holds_its_sequence_however_it_was_built(
        a in prop::collection::vec((0u8..3, 0i64..4), 0..40),
        edit in prop::option::of((0usize..40, 0u8..3, 0i64..4)),
        cuts_a in prop::collection::vec((0u8..2, 1usize..8), 1..8),
        cuts_b in prop::collection::vec((0u8..2, 1usize..8), 1..8),
    ) {
        let mut b = a.clone();
        if let Some((i, k, v)) = edit {
            match b.len() {
                0 => b.push((k, v)),
                n => b[i % n] = (k, v),
            }
        }
        let (pairs_a, pairs_b) = (keyed_rows(&a), keyed_rows(&b));
        let (out_a, out_b) = (build_output(&pairs_a, &cuts_a), build_output(&pairs_b, &cuts_b));
        prop_assert_eq!(pairs_of(&out_a), pairs_a.clone());
        prop_assert_eq!(pairs_of(&out_b), pairs_b.clone());
        prop_assert_eq!(out_a.len(), a.len());
        prop_assert_eq!(out_a.iter().len(), a.len());
        prop_assert_eq!((&out_a).into_iter().count(), a.len());
        prop_assert_eq!(out_a.is_empty(), a.is_empty());
        prop_assert_eq!(out_a == out_b, a == b);
        let rows: Vec<Record> = pairs_a.into_iter().map(|(_, r)| r).collect();
        prop_assert_eq!(out_a.into_rows(), rows);
    }
}
