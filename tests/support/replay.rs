//! Replay check shared by the golden and chaos suites: every
//! event-backed counter is the fold of the recorded trace.

use incmr::mapreduce::{
    ClusterMetrics, FaultMetrics, GuardrailMetrics, MemoMetrics, ReplicaMetrics, TraceEvent,
};

/// Replaying `events` through `ClusterMetrics::from_trace` reproduces the
/// runtime's live counters on every event-backed field — locality and all
/// five counter families. The eight live-only counters, which have no
/// event of their own, are masked here.
pub fn assert_replay_matches_live(events: &[TraceEvent], live: &ClusterMetrics) {
    let replay = ClusterMetrics::from_trace(events);
    assert_eq!(
        replay.faults(),
        FaultMetrics {
            maps_reexecuted: 0,
            ..live.faults()
        },
        "fault counters replayed from the trace must match the runtime"
    );
    assert_eq!(
        replay.guardrails(),
        GuardrailMetrics {
            provider_panics: 0,
            unknown_blocks: 0,
            ..live.guardrails()
        },
        "guard-rail counters replayed from the trace must match the runtime"
    );
    assert_eq!(
        replay.memo(),
        MemoMetrics {
            splits_computed: 0,
            records_saved: 0,
            entries_invalidated: 0,
            ..live.memo()
        },
        "memo counters replayed from the trace must match the runtime"
    );
    assert_eq!(
        replay.replica(),
        ReplicaMetrics {
            blocks_lost: 0,
            reexecutions_avoided: 0,
            ..live.replica()
        },
        "replica counters replayed from the trace must match the runtime"
    );
    assert_eq!(
        replay.shuffle(),
        live.shuffle(),
        "shuffle counters replayed from the trace must match the runtime"
    );
    assert_eq!(replay.assignments(), live.assignments());
    let locality = |m: &ClusterMetrics| m.report(m.start()).locality_pct;
    assert_eq!(
        locality(&replay),
        locality(live),
        "locality replayed from the trace must match the runtime"
    );
}
