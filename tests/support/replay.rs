//! Replay check shared by the golden and chaos suites: every counter and
//! every latency histogram is the fold of the recorded trace.

use incmr::mapreduce::{ClusterMetrics, MetricsRegistry, MrRuntime, TraceEvent};

/// Replaying `events`, the whole trace of `rt`'s run, reproduces the
/// runtime's live state: `ClusterMetrics::from_trace` gives locality and
/// all five counter families, and `MetricsRegistry::from_trace` (queue
/// waits keyed by `scheduler`, the run's `TaskScheduler::name`) gives
/// every histogram family.
pub fn assert_replay_matches_live(events: &[TraceEvent], rt: &MrRuntime, scheduler: &str) {
    let (replay, live) = (ClusterMetrics::from_trace(events), rt.metrics());
    assert_eq!(replay.faults(), live.faults(), "fault counters");
    assert_eq!(
        replay.guardrails(),
        live.guardrails(),
        "guard-rail counters"
    );
    assert_eq!(replay.memo(), live.memo(), "memo counters");
    assert_eq!(replay.replica(), live.replica(), "replica counters");
    assert_eq!(replay.shuffle(), live.shuffle(), "shuffle counters");
    assert_eq!(replay.assignments(), live.assignments());
    let locality = |m: &ClusterMetrics| m.report(m.start()).locality_pct;
    assert_eq!(locality(&replay), locality(live), "locality");
    assert_eq!(
        MetricsRegistry::from_trace(events, scheduler),
        *rt.histograms(),
        "histograms replayed from the trace must match the runtime's"
    );
}
