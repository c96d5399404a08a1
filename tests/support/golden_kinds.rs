//! The trace kinds each golden scenario must keep producing, by plane.
//! Each golden suite checks its own plane's list against its run, and
//! `golden_trace::golden_kind_lists_cover_every_trace_kind` checks that
//! the lists together name every [`TraceKind`]: a new kind without a
//! golden scenario fails it.
//!
//! [`TraceKind`]: incmr::mapreduce::TraceKind

use std::collections::BTreeSet;

use incmr::mapreduce::TraceEvent;

/// `(plane, kinds its golden scenario produces)`.
pub const GOLDEN_KINDS: &[(&str, &[&str])] = &[
    (
        "fault",
        &[
            "JobSubmitted",
            "InputAdded",
            "EndOfInput",
            "MapStarted",
            "MapFinished",
            "MapFailed",
            "ShuffleReady",
            "ReduceStarted",
            "ReduceFinished",
            "ReduceFailed",
            "JobCompleted",
            "NodeLost",
            "NodeRejoined",
            "SpeculativeLaunch",
            "AttemptKilled",
            "NodeBlacklisted",
            "MapOutputLost",
        ],
    ),
    (
        "guardrail",
        &[
            "ProviderFault",
            "GrabLimitClamped",
            "DuplicateInputDropped",
            "JobWedged",
            "DeadlineExceeded",
            "PartialSample",
            "ProviderEvaluated",
        ],
    ),
    (
        "evolve",
        &["SplitReused", "SplitDirty", "SplitMissed", "InputArrived"],
    ),
    (
        "replication",
        &[
            "ReplicaLost",
            "ReplicaRestored",
            "ReadFailover",
            "InputLost",
            "NodeLost",
            "NodeRejoined",
        ],
    ),
    ("agg", &["ErrorBoundProbe", "BoundMet"]),
    (
        "service",
        &["QueryAdmitted", "QueryRejected", "QuotaDeferred"],
    ),
];

/// The golden run of `plane` produced every kind its list names.
pub fn assert_plane_kinds(plane: &str, events: &[TraceEvent]) {
    let (_, kinds) = GOLDEN_KINDS
        .iter()
        .find(|(p, _)| *p == plane)
        .unwrap_or_else(|| panic!("no golden kind list for plane {plane:?}"));
    let seen: BTreeSet<&str> = events.iter().map(|e| e.kind.name()).collect();
    for kind in *kinds {
        assert!(
            seen.contains(kind),
            "the {plane} golden scenario no longer produces a {kind} event"
        );
    }
}
