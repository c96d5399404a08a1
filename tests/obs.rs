//! Observability-plane invariants: lossless trace round-trips, histogram
//! algebra, and byte-identical output across data-plane thread counts.
//!
//! The codec is generated from the one `TraceKind` table, so the
//! round-trip suite walks [`TraceKind::NAMES`]: a kind added to the table
//! but not to the hand-written generator [`kind_from`] fails it.

use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use incmr::mapreduce::{encode_event, parse_event, TaskId, TraceParseError};
use incmr::prelude::*;
use incmr::simkit::stats::LogHistogram;

use incmr::dfs::DiskId;

/// Build the kind named `TraceKind::NAMES[which]` with payloads drawn
/// from four arbitrary words, covering every field's full width and both
/// states of an `Option` field.
fn kind_from(which: usize, a: u64, b: u64, c: u64, d: u64) -> TraceKind {
    let job = JobId(a as u32);
    let task = TaskId(b as u32);
    let node = NodeId(c as u16);
    let flag = d.is_multiple_of(2);
    match which {
        0 => TraceKind::JobSubmitted { job },
        1 => TraceKind::InputAdded {
            job,
            splits: b as u32,
        },
        2 => TraceKind::EndOfInput { job },
        3 => TraceKind::MapStarted {
            job,
            task,
            node,
            local: flag,
            queue_wait_ms: flag.then_some(c),
            split_wait_ms: (!flag).then_some(d),
        },
        4 => TraceKind::MapFinished {
            job,
            task,
            attempt_ms: c,
        },
        5 => TraceKind::MapFailed {
            job,
            task,
            attempt: c as u32,
        },
        6 => TraceKind::ShuffleReady {
            job,
            combiner_in: c,
            combiner_out: d,
            bytes: a | b,
            merge_ms: b,
        },
        7 => TraceKind::ReduceStarted { job, node },
        8 => TraceKind::ReduceFinished { job, reduce_ms: b },
        9 => TraceKind::JobCompleted { job, failed: flag },
        10 => TraceKind::ReduceFailed {
            job,
            attempt: c as u32,
        },
        11 => TraceKind::NodeLost {
            node,
            memo_dropped: d,
        },
        12 => TraceKind::NodeRejoined { node },
        13 => TraceKind::SpeculativeLaunch { job, task, node },
        14 => TraceKind::AttemptKilled { job, task, node },
        15 => TraceKind::NodeBlacklisted { job, node },
        16 => TraceKind::ProviderFault {
            job,
            fatal: flag,
            panicked: flag,
            unknown_block: !flag,
        },
        17 => TraceKind::GrabLimitClamped {
            job,
            requested: b as u32,
            granted: c as u32,
        },
        18 => TraceKind::DuplicateInputDropped {
            job,
            splits: b as u32,
        },
        19 => TraceKind::JobWedged {
            job,
            idle_evaluations: b as u32,
        },
        20 => TraceKind::DeadlineExceeded {
            job,
            graceful: flag,
        },
        21 => TraceKind::PartialSample {
            job,
            found: c,
            requested: d,
        },
        22 => TraceKind::QueryAdmitted {
            tenant: b as u32,
            job,
            wait_ms: c,
        },
        23 => TraceKind::QueryRejected {
            tenant: b as u32,
            queued: c as u32,
        },
        24 => TraceKind::QuotaDeferred {
            tenant: b as u32,
            depth: c as u32,
        },
        25 => TraceKind::SplitReused {
            job,
            task,
            records: c,
        },
        26 => TraceKind::SplitDirty { job, task },
        27 => TraceKind::InputArrived { splits: b as u32 },
        28 => TraceKind::ReplicaLost {
            block: BlockId(b as u32),
            node,
            last: flag,
        },
        29 => TraceKind::ReplicaRestored {
            block: BlockId(b as u32),
            node,
        },
        30 => TraceKind::ReadFailover {
            job,
            task,
            from: DiskId(c as u32),
            to: DiskId(d as u32),
        },
        31 => TraceKind::InputLost {
            job,
            blocks: b as u32,
            graceful: flag,
        },
        32 => TraceKind::ErrorBoundProbe {
            job,
            completed: b as u32,
            groups: c as u32,
            worst_ppm: d,
            bound_met: flag,
            gap_ms: a,
        },
        33 => TraceKind::BoundMet {
            job,
            completed: b as u32,
            total: c as u32,
        },
        34 => TraceKind::ProviderEvaluated { job, gap_ms: d },
        35 => TraceKind::SplitMissed { job, task },
        36 => TraceKind::MapOutputLost {
            job,
            task,
            rerun: flag,
        },
        other => panic!("kind_from cannot build {}", TraceKind::NAMES[other]),
    }
}

#[test]
fn all_kinds_are_generated_distinct_and_round_trip() {
    // Variant names are unique, so matching `NAMES[which]` also makes
    // every generated kind distinct.
    for (which, &name) in TraceKind::NAMES.iter().enumerate() {
        let kind = kind_from(which, 7, 11, 3, 2);
        assert_eq!(kind.name(), name, "generator covers index {which}");
        let event = TraceEvent {
            time: SimTime::from_millis(1_000 * which as u64 + 1),
            kind,
        };
        let line = encode_event(&event);
        assert_eq!(parse_event(&line).unwrap(), event, "kind {which}: {line}");
    }
}

/// Pins the JSONL bytes of every kind at two payload widths: small
/// values, and every field at its maximum. Regenerate after an
/// intentional wire-format change with
/// `UPDATE_GOLDEN=1 cargo test --test obs jsonl_bytes`.
#[test]
fn jsonl_bytes_of_every_kind_match_golden_file() {
    let events: Vec<TraceEvent> = (0..TraceKind::NAMES.len())
        .flat_map(|which| {
            [(which as u64 + 1, [7, 11, 3, 2]), (u64::MAX, [u64::MAX; 4])].map(
                |(t, [a, b, c, d])| TraceEvent {
                    time: SimTime::from_millis(t),
                    kind: kind_from(which, a, b, c, d),
                },
            )
        })
        .collect();
    let got = encode_trace(&events);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/jsonl_kinds.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, &got).expect("write golden JSONL kinds");
        return;
    }
    let want = fs::read_to_string(&path)
        .expect("tests/golden/jsonl_kinds.txt missing — generate it with UPDATE_GOLDEN=1");
    assert_eq!(
        got, want,
        "JSONL encoding diverged from tests/golden/jsonl_kinds.txt"
    );
    assert_eq!(parse_trace(&want).unwrap(), events);
}

#[test]
fn parse_rejects_garbage_and_unknown_kinds() {
    assert!(matches!(
        parse_event("not json at all"),
        Err(TraceParseError::Malformed(_))
    ));
    assert!(matches!(
        parse_event("{\"t\":3,\"kind\":\"NoSuchKind\",\"job\":1}"),
        Err(TraceParseError::UnknownKind(_))
    ));
    // A known kind with a missing payload field.
    assert!(parse_event("{\"t\":3,\"kind\":\"InputAdded\",\"job\":1}").is_err());
    // Bad literals and repeated keys are malformed, not guessed at.
    for line in [
        "{\"t\":3,\"kind\":\"MapStarted\",\"job\":1,\"task\":2,\"node\":3,\"local\":txyz}",
        "{\"t\":3,\"kind\":\"JobCompleted\",\"job\":1,\"failed\":fals!}",
        "{\"t\":3,\"kind\":\"JobSubmitted\",\"job\":1,\"job\":2}",
    ] {
        assert!(
            matches!(parse_event(line), Err(TraceParseError::Malformed(_))),
            "{line}"
        );
    }
    // A value too wide for its field is rejected, not truncated.
    for (line, field) in [
        ("{\"t\":3,\"kind\":\"NodeLost\",\"node\":70000}", "node"),
        (
            "{\"t\":3,\"kind\":\"JobSubmitted\",\"job\":4294967297}",
            "job",
        ),
    ] {
        assert!(
            matches!(
                parse_event(line),
                Err(TraceParseError::MissingField { field: f, .. }) if f == field
            ),
            "{line}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// TraceEvent → JSONL line → TraceEvent is the identity for every
    /// kind and arbitrary payloads.
    #[test]
    fn any_event_round_trips(
        which in 0..TraceKind::NAMES.len(),
        t in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
        d in any::<u64>(),
    ) {
        let event = TraceEvent {
            time: SimTime::from_millis(t),
            kind: kind_from(which, a, b, c, d),
        };
        prop_assert_eq!(parse_event(&encode_event(&event)).unwrap(), event);
    }

    /// Whole traces survive encode → parse with ordering intact.
    #[test]
    fn whole_traces_round_trip(
        raws in prop::collection::vec(
            (0..TraceKind::NAMES.len(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            0..64,
        ),
    ) {
        let events: Vec<TraceEvent> = raws
            .iter()
            .map(|&(w, t, a, b, c, d)| TraceEvent {
                time: SimTime::from_millis(t),
                kind: kind_from(w, a, b, c, d),
            })
            .collect();
        prop_assert_eq!(parse_trace(&encode_trace(&events)).unwrap(), events);
    }

    /// Merging histograms is exact (same multiset as recording everything
    /// into one) and commutative, bucket for bucket.
    #[test]
    fn histogram_merge_is_exact_and_commutative(
        xs in prop::collection::vec(any::<u64>(), 0..200),
        ys in prop::collection::vec(any::<u64>(), 0..200),
    ) {
        let fill = |vals: &[u64]| {
            let mut h = LogHistogram::new();
            vals.iter().for_each(|&v| h.record(v));
            h
        };
        let (a, b) = (fill(&xs), fill(&ys));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba, "merge order must not matter");
        let all: Vec<u64> = xs.iter().chain(ys.iter()).copied().collect();
        prop_assert_eq!(&ab, &fill(&all), "merge must equal one-shot recording");
        prop_assert_eq!(ab.count(), (xs.len() + ys.len()) as u64);
    }

    /// Quantiles never decrease in `p`, every quantile is bounded by the
    /// observed maximum, and p100 *is* the exact maximum.
    #[test]
    fn histogram_quantiles_are_monotone(xs in prop::collection::vec(any::<u64>(), 1..300)) {
        let mut h = LogHistogram::new();
        xs.iter().for_each(|&v| h.record(v));
        let ps = [0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0];
        let qs: Vec<u64> = ps.iter().map(|&p| h.quantile(p).unwrap()).collect();
        for w in qs.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles must be monotone: {qs:?}");
        }
        prop_assert!(qs.iter().all(|&q| q <= h.max()));
        prop_assert_eq!(h.quantile(100.0), Some(h.max()));
        prop_assert_eq!(h.p50(), h.quantile(50.0));
        // Merging an empty histogram is the identity.
        let before = h.clone();
        h.merge(&LogHistogram::new());
        prop_assert_eq!(h, before);
    }

    /// Registry merging commutes across all seven families, including the
    /// scheduler-keyed queue-wait map. Each registry is the fold of
    /// arbitrary events, half of them under each of two scheduler names.
    #[test]
    fn registry_merge_is_commutative(
        xs in prop::collection::vec((0..TraceKind::NAMES.len(), any::<u64>(), any::<bool>()), 0..120),
        ys in prop::collection::vec((0..TraceKind::NAMES.len(), any::<u64>(), any::<bool>()), 0..120),
    ) {
        let fill = |entries: &[(usize, u64, bool)]| {
            let mut r = MetricsRegistry::new();
            for (scheduler, fifo) in [("fifo", true), ("fair", false)] {
                let events: Vec<TraceEvent> = entries
                    .iter()
                    .filter(|e| e.2 == fifo)
                    .map(|&(which, v, _)| TraceEvent {
                        time: SimTime::ZERO,
                        kind: kind_from(which, v, v, v, v),
                    })
                    .collect();
                r.merge(&MetricsRegistry::from_trace(&events, scheduler));
            }
            r
        };
        let (a, b) = (fill(&xs), fill(&ys));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.render(), ba.render(), "rendered snapshots agree too");
        let count = |r: &MetricsRegistry| -> u64 {
            r.families().iter().map(|(_, h)| h.count()).sum()
        };
        prop_assert_eq!(count(&ab), count(&a) + count(&b));
    }
}

// ---------------------------------------------------------------------------
// Integration: sinks and determinism on a real run
// ---------------------------------------------------------------------------

fn sampling_world(threads: u32) -> (MrRuntime, Arc<Dataset>) {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(29);
    let spec = DatasetSpec::small("obs", 24, 20_000, SkewLevel::Moderate, 29);
    let ds = Arc::new(Dataset::build(
        &mut ns,
        spec,
        &mut EvenRoundRobin::new(),
        &mut rng,
    ));
    let rt = MrRuntime::new(
        ClusterConfig::paper_single_user().with_parallelism(Parallelism::threads(threads)),
        CostModel::paper_default(),
        ns,
        Box::new(FifoScheduler::new()),
    );
    (rt, ds)
}

fn run_sampling(rt: &mut MrRuntime, ds: &Arc<Dataset>) -> JobId {
    let (job, driver) = incmr::core::build_sampling_job(
        ds,
        40,
        Policy::ma(),
        ScanMode::Planted,
        SampleMode::FirstK,
        5,
    );
    let id = rt.submit(job, driver);
    rt.run_until_idle();
    assert!(!rt.job_result(id).failed);
    id
}

/// A real run's JSONL export (`encode_trace` of the taken trace) parses
/// back into the identical event sequence, one line per event.
#[test]
fn jsonl_sink_agrees_with_memory_trace() {
    let (mut rt, ds) = sampling_world(1);
    rt.enable_tracing();
    run_sampling(&mut rt, &ds);
    let events = rt.take_trace();
    assert!(!events.is_empty());
    let jsonl = encode_trace(&events);
    assert_eq!(jsonl.lines().count(), events.len());
    assert_eq!(parse_trace(&jsonl).unwrap(), events);
}

/// Every error-bound probe leaves exactly one trace event and one
/// `agg_probe_ms` observation — and the pair survives the JSONL codec.
#[test]
fn probe_trace_events_reconcile_with_the_metrics_registry() {
    use incmr::hiveql::{Session, Submitted};

    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(31);
    let mut spec = DatasetSpec::small("lineitem", 24, 1_000, SkewLevel::Moderate, 31);
    spec.selectivity = 0.05;
    let ds = Arc::new(Dataset::build(
        &mut ns,
        spec,
        &mut EvenRoundRobin::new(),
        &mut rng,
    ));
    let rt = MrRuntime::new(
        ClusterConfig::paper_single_user(),
        CostModel::paper_default(),
        ns,
        Box::new(FifoScheduler::new()),
    );
    let mut s = Session::builder()
        .runtime(rt)
        .table("lineitem", ds)
        .scan_mode(ScanMode::Full)
        .try_build()
        .expect("session");
    s.runtime_mut().enable_tracing();
    let Submitted::Pending(handle) = s
        .submit(
            "SELECT SUM(L_QUANTITY) FROM lineitem GROUP BY L_RETURNFLAG \
             WITH ERROR 0.05 CONFIDENCE 0.95",
        )
        .expect("estimating plan")
    else {
        panic!("estimating plan must submit a job")
    };
    let result = handle.wait(&mut s);
    assert!(!result.failed);

    let events = s.runtime_mut().take_trace();
    let probes = events
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::ErrorBoundProbe { .. }))
        .count();
    let met = events
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::BoundMet { .. }))
        .count();
    assert!(probes > 0, "an estimating run must probe at least once");
    assert_eq!(
        s.runtime().histograms().agg_probe().count(),
        probes as u64,
        "one agg_probe_ms observation per probe event"
    );
    assert!(met <= 1, "the bound is met at most once");
    // The new kinds also survive the JSONL codec on a real trace.
    assert_eq!(parse_trace(&encode_trace(&events)).unwrap(), events);
}

/// Traces, histogram quantiles, and the audit log are byte-identical at
/// 1, 4, and 8 data-plane threads.
#[test]
fn obs_output_is_byte_identical_across_thread_counts() {
    let outputs: Vec<(String, String, String)> = [1u32, 4, 8]
        .iter()
        .map(|&threads| {
            let (mut rt, ds) = sampling_world(threads);
            rt.enable_tracing();
            rt.enable_audit();
            run_sampling(&mut rt, &ds);
            let trace = encode_trace(&rt.take_trace());
            let hist = rt.histograms().render();
            let audit = incmr::mapreduce::render_audit(rt.audit_log());
            (trace, hist, audit)
        })
        .collect();
    assert!(!outputs[0].0.is_empty() && !outputs[0].2.is_empty());
    assert!(outputs[0].1.contains("map_attempt_ms"));
    for (i, other) in outputs.iter().enumerate().skip(1) {
        assert_eq!(
            outputs[0].0,
            other.0,
            "trace differs at {} threads",
            [1, 4, 8][i]
        );
        assert_eq!(
            outputs[0].1,
            other.1,
            "histograms differ at {} threads",
            [1, 4, 8][i]
        );
        assert_eq!(
            outputs[0].2,
            other.2,
            "audit differs at {} threads",
            [1, 4, 8][i]
        );
    }
}
