//! Execution tracing: a timeline of scheduling decisions and task
//! lifecycles, for debugging policies and visualising runs.
//!
//! The events are also the runtime's one source of numbers: every
//! counter ([`crate::ClusterMetrics`]) and every latency histogram
//! ([`crate::MetricsRegistry`]) is a fold over them, run on each event as
//! it is recorded, so each value a view reports travels on an event.
//! Buffering them is off by default (hot paths stay allocation-free);
//! enable it with [`crate::MrRuntime::enable_tracing`] and collect the
//! events with [`crate::MrRuntime::take_trace`]. [`JobTimeline`]
//! summarises one job's phases; [`crate::obs::render_swimlanes`] draws
//! the per-node occupancy chart.

use std::fmt;

use incmr_dfs::{BlockId, DiskId, NodeId};
use incmr_simkit::SimTime;

use crate::job::{JobId, TaskId};
use crate::obs::{FieldReader, TraceParseError, WireField};

/// One traced occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub time: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

/// Declares [`TraceKind`] once and derives everything that lists its
/// kinds from that one declaration: the enum itself, [`TraceKind::NAMES`]
/// (each variant's name is its stable wire name), [`TraceKind::job`] (the
/// payload's `JobId` field, if it has one), and the JSONL payload codec
/// behind [`crate::obs::encode_event`] and [`crate::obs::parse_event`]
/// (fields in declaration order, each written and read by its
/// [`WireField`] impl), and the compact `Display` line given after each
/// variant's `=>` (a format string over its fields). Adding a kind is one
/// entry here.
macro_rules! trace_kinds {
    (
        $(#[$meta:meta])*
        pub enum TraceKind {
            $(
                $(#[$variant_meta:meta])*
                $variant:ident {
                    $( $(#[$field_meta:meta])* $field:ident: $ty:ty, )*
                } => $fmt:literal $(, $arg:expr)*;
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum TraceKind {
            $(
                $(#[$variant_meta])*
                $variant {
                    $( $(#[$field_meta])* $field: $ty, )*
                },
            )*
        }

        impl TraceKind {
            /// Every kind's stable wire name, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($variant)),*];

            /// The job this event belongs to (`None` for cluster-level events
            /// such as node loss).
            pub fn job(&self) -> Option<JobId> {
                match self {
                    $(TraceKind::$variant { $($field),* } => None$(.or($field.as_job()))*,)*
                }
            }

            /// This kind's stable wire name: its entry in [`TraceKind::NAMES`].
            pub fn name(&self) -> &'static str {
                match self {
                    $(TraceKind::$variant { .. } => stringify!($variant),)*
                }
            }

            /// Append `,"field":value` for every payload field.
            pub(crate) fn encode_payload(&self, out: &mut String) {
                match self {
                    $(TraceKind::$variant { $($field),* } => {
                        $(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            $field.encode(out);
                        )*
                    })*
                }
            }

            /// Rebuild the kind named `name` from its decoded payload fields.
            pub(crate) fn decode_payload(
                name: &str,
                fields: &FieldReader<'_>,
            ) -> Result<Self, TraceParseError> {
                Ok(match name {
                    $(stringify!($variant) => TraceKind::$variant {
                        $($field: fields.read(stringify!($field))?,)*
                    },)*
                    other => return Err(TraceParseError::UnknownKind(other.to_string())),
                })
            }
        }

        /// One compact line per event, as the golden traces hold them.
        impl fmt::Display for TraceKind {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    $(TraceKind::$variant { $($field),* } => write!(f, $fmt $(, $arg)*),)*
                }
            }
        }
    };
}

trace_kinds! {
    /// The kinds of traced occurrences.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TraceKind {
        /// A job was submitted.
        JobSubmitted {
            /// The job.
            job: JobId,
        } => "{job} submitted";
        /// A growth driver added input splits.
        InputAdded {
            /// The job.
            job: JobId,
            /// Number of splits added in this step.
            splits: u32,
        } => "{job} +{splits} splits";
        /// The driver declared end-of-input.
        EndOfInput {
            /// The job.
            job: JobId,
        } => "{job} end-of-input";
        /// A map attempt was dispatched to a slot.
        MapStarted {
            /// The job.
            job: JobId,
            /// The task.
            task: TaskId,
            /// The node whose slot it took.
            node: NodeId,
            /// Whether the read is data-local.
            local: bool,
            /// Time since the task last entered the pending queue (`None`
            /// for a speculative backup, which never queued).
            queue_wait_ms: Option<u64>,
            /// Time since the split was added (`None` after the task's
            /// first dispatch).
            split_wait_ms: Option<u64>,
        } => "{job}/{task} -> {node}{}{}{}",
            if *local { "" } else { " (remote)" },
            queue_wait_ms.map(|ms| format!(" queued {ms}ms")).unwrap_or_default(),
            split_wait_ms.map(|ms| format!(" split-wait {ms}ms")).unwrap_or_default();
        /// A map attempt completed successfully.
        MapFinished {
            /// The job.
            job: JobId,
            /// The task.
            task: TaskId,
            /// The winning attempt's dispatch-to-completion time.
            attempt_ms: u64,
        } => "{job}/{task} done in {attempt_ms}ms";
        /// A map attempt failed (fault injection).
        MapFailed {
            /// The job.
            job: JobId,
            /// The task.
            task: TaskId,
            /// Which attempt failed (1-based).
            attempt: u32,
        } => "{job}/{task} FAILED (attempt {attempt})";
        /// The shuffle closed: every map completed and the job's reduce
        /// buffer is final. Carries only deterministic counters
        /// (records/bytes), so traces stay thread-count-invariant.
        ShuffleReady {
            /// The job.
            job: JobId,
            /// Records fed to the map-side combiner (0 when the job has none).
            combiner_in: u64,
            /// Records surviving the combiner.
            combiner_out: u64,
            /// The job's shuffle bytes: its one reduce's input.
            bytes: u64,
            /// First map completion to now (0 for a job that ran no map).
            merge_ms: u64,
        } => "{job} shuffle ready: {bytes} B, combiner {combiner_in}->{combiner_out}, \
             merged over {merge_ms}ms";
        /// The job's reduce task started on a reduce slot.
        ReduceStarted {
            /// The job.
            job: JobId,
            /// Host node.
            node: NodeId,
        } => "{job} reduce -> {node}";
        /// The job's reduce task committed.
        ReduceFinished {
            /// The job.
            job: JobId,
            /// The committed attempt's slot-to-commit time.
            reduce_ms: u64,
        } => "{job} reduce done in {reduce_ms}ms";
        /// The job finished (successfully or not).
        JobCompleted {
            /// The job.
            job: JobId,
            /// True if the job was aborted.
            failed: bool,
        } => "{job} {}", if *failed { "FAILED" } else { "completed" };
        /// A reduce attempt failed (fault injection).
        ReduceFailed {
            /// The job.
            job: JobId,
            /// Which attempt failed (1-based).
            attempt: u32,
        } => "{job} reduce FAILED (attempt {attempt})";
        /// A node (TaskTracker) died; its slots, running attempts, and stored
        /// map output are gone.
        NodeLost {
            /// The dead node.
            node: NodeId,
            /// Memo entries dropped because their cached output died with
            /// the node (0 without the memo plane).
            memo_dropped: u64,
        } => "{node} LOST, {memo_dropped} memo entries dropped";
        /// A dead node rejoined the cluster with fresh slots.
        NodeRejoined {
            /// The recovered node.
            node: NodeId,
        } => "{node} rejoined";
        /// A speculative attempt of a laggard map task was launched.
        SpeculativeLaunch {
            /// The job.
            job: JobId,
            /// The task being speculated.
            task: TaskId,
            /// The node hosting the backup attempt.
            node: NodeId,
        } => "{job}/{task} speculative -> {node}";
        /// A running attempt was killed (node death or losing a speculative
        /// race) — killed, not failed: it does not count against the task's
        /// attempt budget.
        AttemptKilled {
            /// The job.
            job: JobId,
            /// The task.
            task: TaskId,
            /// The node the attempt was running on.
            node: NodeId,
        } => "{job}/{task} killed on {node}";
        /// A job blacklisted a node after repeated counted failures on it.
        NodeBlacklisted {
            /// The job.
            job: JobId,
            /// The banned node.
            node: NodeId,
        } => "{job} blacklists {node}";
        /// The job's Input Provider (or growth driver) misbehaved — a caught
        /// panic or an invalid directive. Non-fatal occurrences consumed one
        /// unit of the job's retry budget; fatal ones failed the job.
        ProviderFault {
            /// The job.
            job: JobId,
            /// True if the fault failed the job (retry budget exhausted).
            fatal: bool,
            /// The provider panicked (caught by the sandbox).
            panicked: bool,
            /// An `AddInput` directive named a block outside the namespace.
            unknown_block: bool,
        } => "{job} provider fault{}{}{}",
            if *panicked { ": panic" } else { "" },
            if *unknown_block { ": unknown block" } else { "" },
            if *fatal { " (FATAL)" } else { " (retrying)" };
        /// An `AddInput` directive exceeded the driver's grab limit and was
        /// truncated to it.
        GrabLimitClamped {
            /// The job.
            job: JobId,
            /// Splits the directive asked for.
            requested: u32,
            /// Splits actually granted (the grab limit).
            granted: u32,
        } => "{job} grab clamped {requested}->{granted}";
        /// `AddInput` entries naming splits the job already claimed were
        /// dropped (dedup within and across directives).
        DuplicateInputDropped {
            /// The job.
            job: JobId,
            /// Number of duplicate entries dropped.
            splits: u32,
        } => "{job} dropped {splits} duplicate splits";
        /// The livelock watchdog terminated the job: too many consecutive
        /// unproductive evaluations with nothing running or pending.
        JobWedged {
            /// The job.
            job: JobId,
            /// Consecutive idle evaluations observed at termination.
            idle_evaluations: u32,
        } => "{job} WEDGED after {idle_evaluations} idle evaluations";
        /// The job's simulated-time deadline expired.
        DeadlineExceeded {
            /// The job.
            job: JobId,
            /// True if the job degrades to a partial result
            /// (`settings.allow_partial`) instead of failing.
            graceful: bool,
        } => "{job} deadline exceeded{}", if *graceful { " (partial)" } else { " (FATAL)" };
        /// A sampling job completed with fewer than its requested `k` matches
        /// (paper semantics: the answer set is still correct, just smaller).
        PartialSample {
            /// The job.
            job: JobId,
            /// Matches actually produced.
            found: u64,
            /// The configured sample size `k`.
            requested: u64,
        } => "{job} partial sample {found}/{requested}";
        /// A query service admitted a tenant's query to the cluster (recorded
        /// by the front end via [`crate::MrRuntime::record_event`]).
        QueryAdmitted {
            /// The tenant that submitted the query.
            tenant: u32,
            /// The job it became.
            job: JobId,
            /// Time the query waited in its tenant's queue.
            wait_ms: u64,
        } => "tenant{tenant} admitted -> {job} after {wait_ms}ms";
        /// Admission control rejected a tenant's query: its per-tenant queue
        /// was already at its depth cap.
        QueryRejected {
            /// The tenant whose query bounced.
            tenant: u32,
            /// Queue depth observed at rejection (the cap).
            queued: u32,
        } => "tenant{tenant} REJECTED (queue at {queued})";
        /// A tenant's query was accepted but parked in its queue — the tenant
        /// is at its in-flight quota (or the service at its global cap) and
        /// must wait for the weighted-fair release.
        QuotaDeferred {
            /// The tenant whose query waits.
            tenant: u32,
            /// Queue depth after parking this query.
            depth: u32,
        } => "tenant{tenant} deferred (queue depth {depth})";
        /// The memo store satisfied a map task from cached output: the attempt
        /// kept its simulated schedule but skipped host recomputation.
        SplitReused {
            /// The job.
            job: JobId,
            /// The reused task.
            task: TaskId,
            /// Input records whose re-scan the hit avoided.
            records: u64,
        } => "{job}/{task} reused from memo ({records} records)";
        /// A memo entry for this split existed but at a stale block version —
        /// the split was rewritten since it was cached and must recompute.
        SplitDirty {
            /// The job.
            job: JobId,
            /// The dirty task.
            task: TaskId,
        } => "{job}/{task} dirty (stale memo version)";
        /// New blocks landed on the DFS while the cluster was live; parked
        /// standing queries were woken to consider them. Cluster-level: the
        /// arrival precedes any job claiming the splits.
        InputArrived {
            /// Number of blocks that arrived in this evolve step.
            splits: u32,
        } => "+{splits} blocks arrived";
        /// A node death destroyed a stored replica of a block (data-loss mode).
        /// Cluster-level: replica loss precedes any job-level consequence.
        ReplicaLost {
            /// The block that lost a copy.
            block: BlockId,
            /// The dead node that hosted it.
            node: NodeId,
            /// It was the block's last replica: the block is unreadable
            /// until rewritten.
            last: bool,
        } => "{block} replica on {node} LOST{}", if *last { " (last replica)" } else { "" };
        /// The re-replication daemon restored a copy of an under-replicated
        /// block onto a live node. Cluster-level.
        ReplicaRestored {
            /// The block that regained a copy.
            block: BlockId,
            /// The node now hosting the new replica.
            node: NodeId,
        } => "{block} re-replicated -> {node}";
        /// A dispatched map attempt's intended replica died before the read
        /// began; the read failed over to a surviving replica.
        ReadFailover {
            /// The job.
            job: JobId,
            /// The task whose read moved.
            task: TaskId,
            /// The (now dead) disk the attempt was dispatched against.
            from: DiskId,
            /// The live replica the read failed over to.
            to: DiskId,
        } => "{job}/{task} read failover {from} -> {to}";
        /// Every replica of one or more of the job's input blocks is gone. The
        /// job either fails with `JobError::InputLost` or, with
        /// `settings.allow_partial`, abandons those splits and degrades to a
        /// partial sample.
        InputLost {
            /// The job.
            job: JobId,
            /// Number of distinct lost blocks.
            blocks: u32,
            /// True if the job degrades to a partial result instead of failing.
            graceful: bool,
        } => "{job} input lost: {blocks} block(s){}",
            if *graceful { " (partial)" } else { " (FATAL)" };
        /// Estimating aggregate job: the runtime folded per-group accumulators
        /// from completed map output and probed the CLT stopping rule ahead of
        /// a driver evaluation.
        ErrorBoundProbe {
            /// The job.
            job: JobId,
            /// Completed splits folded into this probe.
            completed: u32,
            /// Distinct groups observed so far.
            groups: u32,
            /// Worst per-group/per-aggregate relative half-width, in parts
            /// per million (`u64::MAX` when a group is still unresolved).
            worst_ppm: u64,
            /// True if every group and aggregate met the error bound.
            bound_met: bool,
            /// Time since the previous probe (or since submission, for the
            /// first).
            gap_ms: u64,
        } => "{job} error-bound probe: {completed} splits, {groups} groups, \
             worst {worst_ppm} ppm{}, {gap_ms}ms since last",
            if *bound_met { " (met)" } else { "" };
        /// Estimating aggregate job: the error bound held at the requested
        /// confidence, so the provider stopped growing the job early.
        BoundMet {
            /// The job.
            job: JobId,
            /// Splits processed when the bound was met.
            completed: u32,
            /// Candidate splits a full scan would have processed.
            total: u32,
        } => "{job} bound met at {completed}/{total} splits";
        /// The job's growth driver was consulted again, every
        /// `EvaluationInterval` (paper Section III-A). The consultation at
        /// submission, which has no predecessor, records none.
        ProviderEvaluated {
            /// The job.
            job: JobId,
            /// Time since the previous consultation.
            gap_ms: u64,
        } => "{job} provider evaluated, {gap_ms}ms since last";
        /// The memo store had no entry for this split under the job's
        /// signature: the mapper runs and its output is cached.
        SplitMissed {
            /// The job.
            job: JobId,
            /// The task.
            task: TaskId,
        } => "{job}/{task} memo miss";
        /// A completed map's stored output died with its node while the job
        /// was still mapping.
        MapOutputLost {
            /// The job.
            job: JobId,
            /// The task.
            task: TaskId,
            /// True if the task re-executes; false if a live replica of its
            /// input block survives and the merged output is kept.
            rerun: bool,
        } => "{job}/{task} output lost with its node{}",
            if *rerun { ", re-executing" } else { "; a replica survives" };
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.time, self.kind)
    }
}

/// Phase summary of one job, derived from a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTimeline {
    /// The job.
    pub job: JobId,
    /// Submission instant.
    pub submitted: SimTime,
    /// When the driver declared end-of-input (if it did).
    pub end_of_input: Option<SimTime>,
    /// Completion instant (if the job finished inside the trace).
    pub completed: Option<SimTime>,
    /// Input-addition steps `(time, splits)` — the job's growth curve.
    pub growth: Vec<(SimTime, u32)>,
    /// Map attempts started / finished / failed.
    pub maps: (u32, u32, u32),
    /// Reduce tasks started / finished.
    pub reduces: (u32, u32),
}

/// Summarise one job's phases from a trace.
pub fn job_timeline(events: &[TraceEvent], job: JobId) -> Option<JobTimeline> {
    let mut timeline: Option<JobTimeline> = None;
    for e in events.iter().filter(|e| e.kind.job() == Some(job)) {
        match &e.kind {
            TraceKind::JobSubmitted { .. } => {
                timeline = Some(JobTimeline {
                    job,
                    submitted: e.time,
                    end_of_input: None,
                    completed: None,
                    growth: Vec::new(),
                    maps: (0, 0, 0),
                    reduces: (0, 0),
                });
            }
            kind => {
                let t = timeline.as_mut()?;
                match kind {
                    TraceKind::InputAdded { splits, .. } => t.growth.push((e.time, *splits)),
                    TraceKind::EndOfInput { .. } => t.end_of_input = Some(e.time),
                    TraceKind::MapStarted { .. } => t.maps.0 += 1,
                    TraceKind::MapFinished { .. } => t.maps.1 += 1,
                    TraceKind::MapFailed { .. } => t.maps.2 += 1,
                    TraceKind::ReduceStarted { .. } => t.reduces.0 += 1,
                    TraceKind::ReduceFinished { .. } => t.reduces.1 += 1,
                    TraceKind::JobCompleted { .. } => t.completed = Some(e.time),
                    TraceKind::JobSubmitted { .. } => unreachable!(),
                    // Fault-plane and shuffle bookkeeping events don't
                    // shift the phase summary.
                    _ => {}
                }
            }
        }
    }
    timeline
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ms: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_millis(ms),
            kind,
        }
    }

    fn sample_trace() -> Vec<TraceEvent> {
        let job = JobId(0);
        vec![
            ev(0, TraceKind::JobSubmitted { job }),
            ev(0, TraceKind::InputAdded { job, splits: 2 }),
            ev(
                100,
                TraceKind::MapStarted {
                    job,
                    task: TaskId(0),
                    node: NodeId(0),
                    local: true,
                    queue_wait_ms: Some(100),
                    split_wait_ms: Some(100),
                },
            ),
            ev(
                100,
                TraceKind::MapStarted {
                    job,
                    task: TaskId(1),
                    node: NodeId(1),
                    local: false,
                    queue_wait_ms: Some(100),
                    split_wait_ms: Some(100),
                },
            ),
            ev(
                500,
                TraceKind::MapFailed {
                    job,
                    task: TaskId(1),
                    attempt: 1,
                },
            ),
            ev(
                600,
                TraceKind::MapFinished {
                    job,
                    task: TaskId(0),
                    attempt_ms: 500,
                },
            ),
            ev(700, TraceKind::EndOfInput { job }),
            ev(
                700,
                TraceKind::MapStarted {
                    job,
                    task: TaskId(1),
                    node: NodeId(2),
                    local: false,
                    queue_wait_ms: Some(200),
                    split_wait_ms: None,
                },
            ),
            ev(
                900,
                TraceKind::MapFinished {
                    job,
                    task: TaskId(1),
                    attempt_ms: 200,
                },
            ),
            ev(
                1000,
                TraceKind::ReduceStarted {
                    job,
                    node: NodeId(0),
                },
            ),
            ev(
                1500,
                TraceKind::ReduceFinished {
                    job,
                    reduce_ms: 500,
                },
            ),
            ev(1500, TraceKind::JobCompleted { job, failed: false }),
        ]
    }

    #[test]
    fn timeline_summarises_phases() {
        let t = job_timeline(&sample_trace(), JobId(0)).unwrap();
        assert_eq!(t.submitted, SimTime::ZERO);
        assert_eq!(t.end_of_input, Some(SimTime::from_millis(700)));
        assert_eq!(t.completed, Some(SimTime::from_millis(1500)));
        assert_eq!(t.growth, vec![(SimTime::ZERO, 2)]);
        assert_eq!(t.maps, (3, 2, 1), "3 attempts, 2 finishes, 1 failure");
        assert_eq!(t.reduces, (1, 1));
    }

    #[test]
    fn timeline_of_unknown_job_is_none() {
        assert!(job_timeline(&sample_trace(), JobId(9)).is_none());
    }

    #[test]
    fn events_display_compactly() {
        let e = ev(
            100,
            TraceKind::MapStarted {
                job: JobId(1),
                task: TaskId(2),
                node: NodeId(3),
                local: false,
                queue_wait_ms: Some(40),
                split_wait_ms: None,
            },
        );
        assert_eq!(
            e.to_string(),
            "t+0.100s job_0001/m_000002 -> node3 (remote) queued 40ms"
        );
        let e = ev(
            0,
            TraceKind::JobCompleted {
                job: JobId(1),
                failed: true,
            },
        );
        assert!(e.to_string().ends_with("FAILED"));
    }
}
