//! The observability plane: structured trace export, latency histograms,
//! and the provider-decision audit log.
//!
//! Everything in this module is derived from **simulated** time and
//! deterministic integer counters, so all of its output — JSONL traces,
//! histogram quantiles, audit lines, swimlane charts — is byte-identical
//! across data-plane thread counts (see `crate::parallel`) and across
//! runs.
//!
//! * [`encode_event`] / [`parse_event`] — a stable, hand-rolled JSONL
//!   codec for [`TraceEvent`] (no serde; the build is offline). The
//!   payload half is generated from the one [`TraceKind`] declaration in
//!   `trace.rs`, so every kind has an encoding by construction.
//!   A run's JSONL export is `encode_trace(&rt.take_trace())`.
//! * [`MetricsRegistry`] — simulated-time latency histograms
//!   ([`LogHistogram`]) for the seven families DESIGN.md §10 documents,
//!   mergeable across jobs. Each family is the fold of one event field,
//!   so [`MetricsRegistry::from_trace`] rebuilds a run's registry (or one
//!   job's) from its trace.
//! * [`AuditRecord`] — one entry per `GrowthDriver` consultation: the
//!   inputs the driver saw (`JobProgress`, `ClusterStatus`, grab limit),
//!   the directive it returned, and every guard-rail rewrite (clamp,
//!   dedup, retry) applied to it. A job's growth history is fully
//!   reconstructable from its audit lines.
//! * [`render_swimlanes`] — a per-node/per-slot occupancy chart from an
//!   exported trace, used by `incmr-experiments` to explain runs.

use std::collections::BTreeMap;
use std::fmt;

use incmr_dfs::{BlockId, DiskId, NodeId};
use incmr_simkit::stats::LogHistogram;
use incmr_simkit::SimTime;

use crate::cluster::ClusterStatus;
use crate::job::{JobId, JobProgress, ProviderStage, TaskId};
use crate::trace::{TraceEvent, TraceKind};

// ---------------------------------------------------------------------------
// JSONL codec
// ---------------------------------------------------------------------------

/// Encode one event as a single JSON object (one JSONL line, no trailing
/// newline). Key order is fixed: `t`, `kind`, then the payload fields in
/// declaration order, so encodings are byte-stable.
pub fn encode_event(event: &TraceEvent) -> String {
    let mut s = format!(
        "{{\"t\":{},\"kind\":\"{}\"",
        event.time.as_millis(),
        event.kind.name()
    );
    event.kind.encode_payload(&mut s);
    s.push('}');
    s
}

/// Encode a whole trace as JSONL (one event per line, trailing newline).
pub fn encode_trace(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&encode_event(e));
        out.push('\n');
    }
    out
}

/// Why a JSONL line failed to parse back into a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// The line is not a well-formed flat JSON object.
    Malformed(String),
    /// The `kind` field names no known [`TraceKind`].
    UnknownKind(String),
    /// A payload field required by the kind is absent or mistyped (a
    /// number too wide for the field counts as mistyped).
    MissingField {
        /// The event kind being decoded.
        kind: String,
        /// The absent field.
        field: &'static str,
    },
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceParseError::Malformed(m) => write!(f, "malformed trace line: {m}"),
            TraceParseError::UnknownKind(k) => write!(f, "unknown trace kind {k:?}"),
            TraceParseError::MissingField { kind, field } => {
                write!(f, "{kind} event missing field {field:?}")
            }
        }
    }
}

impl std::error::Error for TraceParseError {}

/// One decoded JSON value.
pub(crate) enum JsonValue<'a> {
    Num(u64),
    Bool(bool),
    Str(&'a str),
    Null,
}

/// Parse the flat JSON objects [`encode_event`] emits: quoted keys mapping
/// to unsigned integers, `true`/`false`, `null`, or strings without
/// escapes, commas or quotes. Anything else, a repeated key included, is
/// [`TraceParseError::Malformed`].
fn parse_flat_object(line: &str) -> Result<Vec<(&str, JsonValue<'_>)>, TraceParseError> {
    let bad = |m: &str| malformed(m, line);
    let body = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| bad("not a JSON object"))?;
    let mut fields: Vec<(&str, JsonValue)> = Vec::new();
    for member in body.split(',') {
        let (key, value) = member.split_once(':').ok_or_else(|| bad("expected ':'"))?;
        let key = quoted(key).ok_or_else(|| bad("expected a quoted key"))?;
        let value = match value {
            "true" => JsonValue::Bool(true),
            "false" => JsonValue::Bool(false),
            "null" => JsonValue::Null,
            v if !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()) => {
                JsonValue::Num(v.parse().map_err(|_| bad("number overflows u64"))?)
            }
            v => JsonValue::Str(quoted(v).ok_or_else(|| bad("unsupported value"))?),
        };
        if fields.iter().any(|(k, _)| *k == key) {
            return Err(bad(&format!("duplicate key {key:?}")));
        }
        fields.push((key, value));
    }
    Ok(fields)
}

fn malformed(problem: &str, line: &str) -> TraceParseError {
    TraceParseError::Malformed(format!("{problem} in {line:?}"))
}

/// The inside of a `"..."` token that holds no other quote.
fn quoted(token: &str) -> Option<&str> {
    token
        .strip_prefix('"')?
        .strip_suffix('"')
        .filter(|s| !s.contains('"'))
}

/// One payload field's JSONL value. Every field type in the
/// [`TraceKind`] table implements it, so the table plus these impls are
/// the whole payload codec.
pub(crate) trait WireField: Sized {
    /// Append the value.
    fn encode(&self, out: &mut String);
    /// Read the value back: `None` if it is mistyped or too wide for `Self`.
    fn decode(value: &JsonValue<'_>) -> Option<Self>;
    /// The job this field names, if it is one; [`TraceKind::job`] reads it.
    fn as_job(&self) -> Option<JobId> {
        None
    }
}

impl WireField for u64 {
    fn encode(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }

    fn decode(value: &JsonValue<'_>) -> Option<Self> {
        match value {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }
}

impl WireField for bool {
    fn encode(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn decode(value: &JsonValue<'_>) -> Option<Self> {
        match value {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Narrower integers travel as `u64` and refuse values they cannot hold
/// rather than truncate them.
macro_rules! narrow_wire_field {
    ($($int:ty),*) => {$(
        impl WireField for $int {
            fn encode(&self, out: &mut String) {
                u64::from(*self).encode(out);
            }

            fn decode(value: &JsonValue<'_>) -> Option<Self> {
                u64::decode(value)?.try_into().ok()
            }
        }
    )*};
}

narrow_wire_field!(u16, u32);

/// An absent value travels as `null`, which only an `Option` field
/// accepts.
impl<T: WireField> WireField for Option<T> {
    fn encode(&self, out: &mut String) {
        match self {
            Some(v) => v.encode(out),
            None => out.push_str("null"),
        }
    }

    fn decode(value: &JsonValue<'_>) -> Option<Self> {
        match value {
            JsonValue::Null => Some(None),
            v => T::decode(v).map(Some),
        }
    }
}

/// Id newtypes travel as their bare integer.
macro_rules! id_wire_field {
    ($($id:ident),*) => {$(
        impl WireField for $id {
            fn encode(&self, out: &mut String) {
                self.0.encode(out);
            }

            fn decode(value: &JsonValue<'_>) -> Option<Self> {
                WireField::decode(value).map($id)
            }
        }
    )*};
}

id_wire_field!(TaskId, NodeId, BlockId, DiskId);

impl WireField for JobId {
    fn encode(&self, out: &mut String) {
        self.0.encode(out);
    }

    fn decode(value: &JsonValue<'_>) -> Option<Self> {
        WireField::decode(value).map(JobId)
    }

    fn as_job(&self) -> Option<JobId> {
        Some(*self)
    }
}

/// Looks up a decoded event's payload fields by name.
pub(crate) struct FieldReader<'a> {
    kind: &'a str,
    fields: &'a [(&'a str, JsonValue<'a>)],
}

impl FieldReader<'_> {
    /// Decode `field`. Absent, mistyped and too-wide values are all
    /// [`TraceParseError::MissingField`].
    pub(crate) fn read<T: WireField>(&self, field: &'static str) -> Result<T, TraceParseError> {
        self.fields
            .iter()
            .find(|(k, _)| *k == field)
            .and_then(|(_, v)| T::decode(v))
            .ok_or_else(|| TraceParseError::MissingField {
                kind: self.kind.to_string(),
                field,
            })
    }
}

/// Parse one JSONL line produced by [`encode_event`] back into the event.
pub fn parse_event(line: &str) -> Result<TraceEvent, TraceParseError> {
    let fields = parse_flat_object(line)?;
    let Some((_, JsonValue::Str(kind))) = fields.iter().find(|(k, _)| *k == "kind") else {
        return Err(malformed("no \"kind\" field", line));
    };
    let r = FieldReader {
        kind,
        fields: &fields,
    };
    let time = SimTime::from_millis(r.read("t").map_err(|_| malformed("no \"t\" field", line))?);
    Ok(TraceEvent {
        time,
        kind: TraceKind::decode_payload(kind, &r)?,
    })
}

/// Parse a whole JSONL document (blank lines are skipped).
pub fn parse_trace(jsonl: &str) -> Result<Vec<TraceEvent>, TraceParseError> {
    jsonl
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_event)
        .collect()
}

// ---------------------------------------------------------------------------
// Latency histograms
// ---------------------------------------------------------------------------

/// The fixed set of latency families the runtime keeps, all in
/// simulated milliseconds (see DESIGN.md §10 for exact semantics). Each
/// is a fold over one event field ([`MetricsRegistry::from_trace`]):
///
/// | family | folds | measures |
/// |--------|-------|----------|
/// | `map_attempt_ms` | `MapFinished::attempt_ms` | dispatch → completion |
/// | `shuffle_merge_ms` | `ShuffleReady::merge_ms` | first merged map output → shuffle closed |
/// | `reduce_ms` | `ReduceFinished::reduce_ms` | reduce start → commit |
/// | `provider_eval_interval_ms` | `ProviderEvaluated::gap_ms` | gap between consecutive driver consultations |
/// | `queue_wait_ms[scheduler]` | `MapStarted::queue_wait_ms` | (re)queue → dispatch, keyed by scheduler |
/// | `split_wait_ms` | `MapStarted::split_wait_ms` | split added → first attempt dispatched |
/// | `agg_probe_ms` | `ErrorBoundProbe::gap_ms` | gap since the previous probe (or submission) |
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    map_attempt_ms: LogHistogram,
    shuffle_merge_ms: LogHistogram,
    reduce_ms: LogHistogram,
    provider_eval_interval_ms: LogHistogram,
    queue_wait_ms: BTreeMap<String, LogHistogram>,
    split_wait_ms: LogHistogram,
    agg_probe_ms: LogHistogram,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Replay a trace through `MetricsRegistry::absorb`, queue waits
    /// keyed by `scheduler` (the run's `TaskScheduler::name`). The whole
    /// trace of a run gives [`crate::MrRuntime::histograms`]; the events
    /// whose [`TraceKind::job`] is one job give that job's
    /// `JobResult::histograms`.
    pub fn from_trace(events: &[TraceEvent], scheduler: &str) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        for e in events {
            r.absorb(&e.kind, scheduler);
        }
        r
    }

    /// Fold one recorded event's latency fields into their families — the
    /// only writer of every family. Only a scheduler's first queue wait
    /// allocates its name.
    pub(crate) fn absorb(&mut self, kind: &TraceKind, scheduler: &str) {
        match *kind {
            TraceKind::MapStarted {
                queue_wait_ms,
                split_wait_ms,
                ..
            } => {
                if let Some(ms) = queue_wait_ms {
                    match self.queue_wait_ms.get_mut(scheduler) {
                        Some(h) => h.record(ms),
                        None => self
                            .queue_wait_ms
                            .entry(scheduler.to_string())
                            .or_default()
                            .record(ms),
                    }
                }
                if let Some(ms) = split_wait_ms {
                    self.split_wait_ms.record(ms);
                }
            }
            TraceKind::MapFinished { attempt_ms, .. } => self.map_attempt_ms.record(attempt_ms),
            TraceKind::ShuffleReady { merge_ms, .. } => self.shuffle_merge_ms.record(merge_ms),
            TraceKind::ReduceFinished { reduce_ms, .. } => self.reduce_ms.record(reduce_ms),
            TraceKind::ProviderEvaluated { gap_ms, .. } => {
                self.provider_eval_interval_ms.record(gap_ms)
            }
            TraceKind::ErrorBoundProbe { gap_ms, .. } => self.agg_probe_ms.record(gap_ms),
            _ => {}
        }
    }

    /// Committed-map-attempt latencies.
    pub fn map_attempt(&self) -> &LogHistogram {
        &self.map_attempt_ms
    }

    /// Shuffle-merge spans.
    pub fn shuffle_merge(&self) -> &LogHistogram {
        &self.shuffle_merge_ms
    }

    /// Committed-reduce latencies.
    pub fn reduce(&self) -> &LogHistogram {
        &self.reduce_ms
    }

    /// Driver evaluation intervals.
    pub fn provider_eval_interval(&self) -> &LogHistogram {
        &self.provider_eval_interval_ms
    }

    /// Queue waits for one scheduler (`None` if it never dispatched).
    pub fn queue_wait(&self, scheduler: &str) -> Option<&LogHistogram> {
        self.queue_wait_ms.get(scheduler)
    }

    /// All queue waits merged across schedulers.
    pub fn queue_wait_total(&self) -> LogHistogram {
        let mut h = LogHistogram::new();
        for q in self.queue_wait_ms.values() {
            h.merge(q);
        }
        h
    }

    /// Split wait-to-first-dispatch latencies.
    pub fn split_wait(&self) -> &LogHistogram {
        &self.split_wait_ms
    }

    /// Error-bound probe intervals (one observation per probe).
    pub fn agg_probe(&self) -> &LogHistogram {
        &self.agg_probe_ms
    }

    /// Every family with its stable display name, queue-wait families
    /// keyed as `queue_wait_ms[<scheduler>]`.
    pub fn families(&self) -> Vec<(String, &LogHistogram)> {
        let mut out = vec![
            ("map_attempt_ms".to_string(), &self.map_attempt_ms),
            ("shuffle_merge_ms".to_string(), &self.shuffle_merge_ms),
            ("reduce_ms".to_string(), &self.reduce_ms),
            (
                "provider_eval_interval_ms".to_string(),
                &self.provider_eval_interval_ms,
            ),
        ];
        for (sched, h) in &self.queue_wait_ms {
            out.push((format!("queue_wait_ms[{sched}]"), h));
        }
        out.push(("split_wait_ms".to_string(), &self.split_wait_ms));
        out.push(("agg_probe_ms".to_string(), &self.agg_probe_ms));
        out
    }

    /// True when no family holds any observation.
    pub fn is_empty(&self) -> bool {
        self.families().iter().all(|(_, h)| h.is_empty())
    }

    /// Fold another registry into this one (exact: fixed bucket layout).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        self.map_attempt_ms.merge(&other.map_attempt_ms);
        self.shuffle_merge_ms.merge(&other.shuffle_merge_ms);
        self.reduce_ms.merge(&other.reduce_ms);
        self.provider_eval_interval_ms
            .merge(&other.provider_eval_interval_ms);
        for (sched, h) in &other.queue_wait_ms {
            self.queue_wait_ms
                .entry(sched.clone())
                .or_default()
                .merge(h);
        }
        self.split_wait_ms.merge(&other.split_wait_ms);
        self.agg_probe_ms.merge(&other.agg_probe_ms);
    }

    /// A stable plain-text snapshot: one line per family with count,
    /// quantiles, max, and sum, followed by its non-empty buckets.
    pub fn render(&self) -> String {
        let mut out = String::from("latency histograms (simulated ms)\n");
        for (name, h) in self.families() {
            if h.is_empty() {
                out.push_str(&format!("  {name}: count=0\n"));
                continue;
            }
            out.push_str(&format!(
                "  {name}: count={} p50={} p95={} p99={} max={} sum={}\n",
                h.count(),
                h.p50().unwrap(),
                h.p95().unwrap(),
                h.p99().unwrap(),
                h.max(),
                h.sum()
            ));
            for (i, &c) in h.buckets().iter().enumerate() {
                if c > 0 {
                    let (lo, hi) = LogHistogram::bucket_range(i);
                    out.push_str(&format!("    [{lo}..{hi}] {c}\n"));
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Provider-decision audit log
// ---------------------------------------------------------------------------

/// The directive a driver consultation produced, as audited — `AddInput`
/// keeps only the *requested* split count (the splits themselves are in
/// the trace); provider faults appear as their own directive so a job's
/// growth history stays gap-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditDirective {
    /// The driver asked for more splits.
    AddInput {
        /// Splits the directive named, before any guard-rail rewrite.
        requested: u32,
    },
    /// The driver declared the input complete.
    EndOfInput,
    /// The driver chose to wait.
    Wait,
    /// The consultation faulted (panic or invalid directive).
    Fault {
        /// True if the fault failed the job; false if a retry absorbed it.
        fatal: bool,
    },
}

impl fmt::Display for AuditDirective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditDirective::AddInput { .. } => write!(f, "AddInput"),
            AuditDirective::EndOfInput => write!(f, "EndOfInput"),
            AuditDirective::Wait => write!(f, "Wait"),
            AuditDirective::Fault { .. } => write!(f, "Fault"),
        }
    }
}

/// One audited `GrowthDriver` consultation: everything the driver saw and
/// everything that happened to its answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditRecord {
    /// Simulated time of the consultation.
    pub time: SimTime,
    /// The job whose driver was consulted.
    pub job: JobId,
    /// Which hook ran (`initial_input` or `evaluate`).
    pub stage: ProviderStage,
    /// The job progress snapshot the driver received.
    pub progress: JobProgress,
    /// The cluster load snapshot the driver received.
    pub cluster: ClusterStatus,
    /// The grab limit in force (`u64::MAX` = unlimited).
    pub grab_limit: u64,
    /// What the driver answered.
    pub directive: AuditDirective,
    /// Splits actually admitted after guard-rail rewrites.
    pub granted: u32,
    /// True if the grab-limit clamp truncated the directive.
    pub clamped: bool,
    /// Duplicate split entries the dedup guard dropped.
    pub duplicates_dropped: u32,
    /// True if a provider fault was absorbed by the retry budget.
    pub retried: bool,
}

/// Splits admitted across all audited consultations of `job` — by
/// construction this equals the job's final `JobProgress::splits_added`,
/// which is what makes the audit log a full reconstruction of the job's
/// growth history.
pub fn audited_splits_added(records: &[AuditRecord], job: JobId) -> u32 {
    records
        .iter()
        .filter(|r| r.job == job)
        .map(|r| r.granted)
        .sum()
}

/// Render audit records as stable one-line-per-decision text. Every field
/// appears as `key=value` on every line, so format drift is caught by the
/// golden coverage guard.
pub fn render_audit(records: &[AuditRecord]) -> String {
    let mut out = String::from("provider-decision audit log\n");
    for r in records {
        let grab = if r.grab_limit == u64::MAX {
            "unlimited".to_string()
        } else {
            r.grab_limit.to_string()
        };
        let requested = match r.directive {
            AuditDirective::AddInput { requested } => requested,
            _ => 0,
        };
        out.push_str(&format!(
            "  {} {} stage={} added={} completed={} running={} pending={} \
             records={} matches={} slots={} busy={} jobs={} queued={} \
             grab_limit={} directive={} requested={} granted={} clamped={} \
             dups={} retried={}\n",
            r.time,
            r.job,
            r.stage,
            r.progress.splits_added,
            r.progress.splits_completed,
            r.progress.splits_running,
            r.progress.splits_pending,
            r.progress.records_processed,
            r.progress.map_output_records,
            r.cluster.total_map_slots,
            r.cluster.occupied_map_slots,
            r.cluster.running_jobs,
            r.cluster.queued_map_tasks,
            grab,
            r.directive,
            requested,
            r.granted,
            if r.clamped { "yes" } else { "no" },
            r.duplicates_dropped,
            if r.retried { "yes" } else { "no" },
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Swimlane timeline
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneKind {
    Map,
    Reduce,
}

#[derive(Debug, Clone, Copy)]
struct Span {
    node: NodeId,
    kind: LaneKind,
    start: SimTime,
    end: SimTime,
    ch: char,
}

#[derive(Debug, Clone, Copy)]
struct OpenAttempt {
    node: NodeId,
    start: SimTime,
    speculative: bool,
}

/// Reconstruct per-attempt occupancy spans from an exported trace.
///
/// Convention for the one genuinely ambiguous case (two live attempts of
/// the same task when one fails or commits without a node in its event):
/// the **oldest** open attempt is closed. `AttemptKilled` carries its
/// node, so speculative losers always close the right lane.
fn collect_spans(events: &[TraceEvent]) -> (Vec<Span>, Vec<(NodeId, SimTime, SimTime)>) {
    let mut spans = Vec::new();
    let mut open_maps: BTreeMap<(u32, u32), Vec<OpenAttempt>> = BTreeMap::new();
    let mut open_reduces: BTreeMap<u32, OpenAttempt> = BTreeMap::new();
    let mut down_since: BTreeMap<u16, SimTime> = BTreeMap::new();
    let mut downs: Vec<(NodeId, SimTime, SimTime)> = Vec::new();
    let mut pending_spec: Option<(u32, u32)> = None;
    let end_time = events.last().map(|e| e.time).unwrap_or(SimTime::ZERO);

    let close = |spans: &mut Vec<Span>, a: OpenAttempt, end: SimTime, kind: LaneKind| {
        spans.push(Span {
            node: a.node,
            kind,
            start: a.start,
            end,
            ch: match kind {
                LaneKind::Map if a.speculative => 'S',
                LaneKind::Map => '=',
                LaneKind::Reduce => 'R',
            },
        });
    };

    for e in events {
        match &e.kind {
            TraceKind::SpeculativeLaunch { job, task, .. } => {
                pending_spec = Some((job.0, task.0));
            }
            TraceKind::MapStarted {
                job, task, node, ..
            } => {
                let speculative = pending_spec.take() == Some((job.0, task.0));
                open_maps
                    .entry((job.0, task.0))
                    .or_default()
                    .push(OpenAttempt {
                        node: *node,
                        start: e.time,
                        speculative,
                    });
            }
            TraceKind::AttemptKilled { job, task, node } => {
                if let Some(attempts) = open_maps.get_mut(&(job.0, task.0)) {
                    if let Some(i) = attempts.iter().position(|a| a.node == *node) {
                        close(&mut spans, attempts.remove(i), e.time, LaneKind::Map);
                    }
                }
            }
            TraceKind::MapFinished { job, task, .. } | TraceKind::MapFailed { job, task, .. } => {
                if let Some(attempts) = open_maps.get_mut(&(job.0, task.0)) {
                    if !attempts.is_empty() {
                        close(&mut spans, attempts.remove(0), e.time, LaneKind::Map);
                    }
                }
            }
            TraceKind::ReduceStarted { job, node } => {
                open_reduces.insert(
                    job.0,
                    OpenAttempt {
                        node: *node,
                        start: e.time,
                        speculative: false,
                    },
                );
            }
            TraceKind::ReduceFinished { job, .. } | TraceKind::ReduceFailed { job, .. } => {
                if let Some(a) = open_reduces.remove(&job.0) {
                    close(&mut spans, a, e.time, LaneKind::Reduce);
                }
            }
            TraceKind::NodeLost { node, .. } => {
                down_since.insert(node.0, e.time);
                // Map attempts on a dead node get explicit AttemptKilled
                // events; reduces are restarted without one, so close any
                // open reduce lane here.
                let stranded: Vec<_> = open_reduces
                    .iter()
                    .filter(|(_, a)| a.node == *node)
                    .map(|(k, _)| *k)
                    .collect();
                for k in stranded {
                    let a = open_reduces.remove(&k).unwrap();
                    close(&mut spans, a, e.time, LaneKind::Reduce);
                }
            }
            TraceKind::NodeRejoined { node } => {
                if let Some(start) = down_since.remove(&node.0) {
                    downs.push((*node, start, e.time));
                }
            }
            _ => {}
        }
    }
    for (job_task, attempts) in open_maps {
        let _ = job_task;
        for a in attempts {
            close(&mut spans, a, end_time, LaneKind::Map);
        }
    }
    for (_, a) in open_reduces {
        close(&mut spans, a, end_time, LaneKind::Reduce);
    }
    for (node, start) in down_since {
        downs.push((NodeId(node), start, end_time));
    }
    downs.sort_by_key(|(n, s, _)| (n.0, s.as_millis()));
    (spans, downs)
}

/// Render an exported trace as a per-node/per-slot swimlane chart.
///
/// Each row is one slot-lane of one node (`m` lanes run map attempts,
/// `r` lanes run reduces); time flows left to right across `buckets`
/// columns. Cells: `=` map attempt, `S` speculative attempt, `R` reduce,
/// `x` node down, `.` idle. Lane assignment is first-fit in event order,
/// so the chart is a pure function of the trace.
pub fn render_swimlanes(events: &[TraceEvent], buckets: usize) -> String {
    assert!(buckets > 0, "need at least one bucket");
    if events.is_empty() {
        return String::from("swimlanes: (no events)\n");
    }
    let (spans, downs) = collect_spans(events);
    let t0 = events.first().unwrap().time.as_millis();
    let t1 = events.last().unwrap().time.as_millis().max(t0 + 1);
    let width_ms = (t1 - t0).div_ceil(buckets as u64).max(1);
    let col = |t: u64| (((t.max(t0) - t0) / width_ms) as usize).min(buckets - 1);

    // First-fit lane assignment per (node, lane kind).
    struct Lane {
        kind: LaneKind,
        busy_until: u64,
        cells: Vec<char>,
    }
    let mut lanes: BTreeMap<u16, Vec<Lane>> = BTreeMap::new();
    for s in &spans {
        let node_lanes = lanes.entry(s.node.0).or_default();
        let start = s.start.as_millis();
        let end = s.end.as_millis().max(start);
        let lane = match node_lanes
            .iter_mut()
            .find(|l| l.kind == s.kind && l.busy_until <= start)
        {
            Some(l) => l,
            None => {
                node_lanes.push(Lane {
                    kind: s.kind,
                    busy_until: 0,
                    cells: vec!['.'; buckets],
                });
                node_lanes.last_mut().unwrap()
            }
        };
        lane.busy_until = end.max(start + 1);
        for c in col(start)..=col(end.saturating_sub(1).max(start)) {
            lane.cells[c] = s.ch;
        }
    }
    // Node-down intervals cover every lane of the node where it is idle.
    for (node, from, to) in &downs {
        if let Some(node_lanes) = lanes.get_mut(&node.0) {
            for lane in node_lanes.iter_mut() {
                for c in col(from.as_millis())..=col(to.as_millis().saturating_sub(1)) {
                    if lane.cells[c] == '.' {
                        lane.cells[c] = 'x';
                    }
                }
            }
        }
    }

    let mut out = format!(
        "swimlanes: {} .. {}, {} buckets x {}ms \
         ('=' map, 'S' speculative, 'R' reduce, 'x' down)\n",
        SimTime::from_millis(t0),
        SimTime::from_millis(t1),
        buckets,
        width_ms
    );
    for (node, node_lanes) in &lanes {
        let mut m = 0usize;
        let mut r = 0usize;
        for lane in node_lanes {
            let label = match lane.kind {
                LaneKind::Map => {
                    m += 1;
                    format!("node{node} m{}", m - 1)
                }
                LaneKind::Reduce => {
                    r += 1;
                    format!("node{node} r{}", r - 1)
                }
            };
            out.push_str(&format!(
                "  {label:<10} |{}|\n",
                lane.cells.iter().collect::<String>()
            ));
        }
    }
    out
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

    #[test]
    fn encode_is_stable_and_parses_back() {
        let e = ev(
            1234,
            TraceKind::MapStarted {
                job: JobId(7),
                task: TaskId(12),
                node: NodeId(3),
                local: false,
                queue_wait_ms: Some(40),
                split_wait_ms: None,
            },
        );
        let line = encode_event(&e);
        assert_eq!(
            line,
            "{\"t\":1234,\"kind\":\"MapStarted\",\"job\":7,\"task\":12,\"node\":3,\"local\":false,\"queue_wait_ms\":40,\"split_wait_ms\":null}"
        );
        assert_eq!(parse_event(&line).unwrap(), e);
    }

    #[test]
    fn null_decodes_only_into_an_option_field() {
        let line = "{\"t\":1,\"kind\":\"MapFinished\",\"job\":0,\"task\":1,\"attempt_ms\":null}";
        assert!(matches!(
            parse_event(line),
            Err(TraceParseError::MissingField {
                field: "attempt_ms",
                ..
            })
        ));
        let line = "{\"t\":1,\"kind\":\"MapStarted\",\"job\":0,\"task\":1,\"node\":2,\"local\":true,\"queue_wait_ms\":true,\"split_wait_ms\":null}";
        assert!(matches!(
            parse_event(line),
            Err(TraceParseError::MissingField {
                field: "queue_wait_ms",
                ..
            })
        ));
    }

    #[test]
    fn whole_trace_round_trips() {
        let events = vec![
            ev(0, TraceKind::JobSubmitted { job: JobId(0) }),
            ev(
                0,
                TraceKind::InputAdded {
                    job: JobId(0),
                    splits: 4,
                },
            ),
            ev(
                5,
                TraceKind::ShuffleReady {
                    job: JobId(0),
                    combiner_in: 100,
                    combiner_out: 10,
                    bytes: 4096,
                    merge_ms: 3,
                },
            ),
            ev(
                9,
                TraceKind::NodeLost {
                    node: NodeId(5),
                    memo_dropped: 2,
                },
            ),
            ev(
                11,
                TraceKind::JobCompleted {
                    job: JobId(0),
                    failed: true,
                },
            ),
        ];
        let jsonl = encode_trace(&events);
        assert_eq!(parse_trace(&jsonl).unwrap(), events);
    }

    #[test]
    fn replication_events_round_trip() {
        use incmr_dfs::{BlockId, DiskId};
        let events = vec![
            ev(
                10,
                TraceKind::ReplicaLost {
                    block: BlockId(7),
                    node: NodeId(1),
                    last: false,
                },
            ),
            ev(
                20,
                TraceKind::ReadFailover {
                    job: JobId(0),
                    task: TaskId(3),
                    from: DiskId(4),
                    to: DiskId(9),
                },
            ),
            ev(
                30,
                TraceKind::ReplicaRestored {
                    block: BlockId(7),
                    node: NodeId(2),
                },
            ),
            ev(
                40,
                TraceKind::InputLost {
                    job: JobId(1),
                    blocks: 3,
                    graceful: false,
                },
            ),
        ];
        let jsonl = encode_trace(&events);
        assert_eq!(parse_trace(&jsonl).unwrap(), events);
        assert!(jsonl.contains("\"kind\":\"ReplicaLost\",\"block\":7,\"node\":1,\"last\":false"));
        assert!(jsonl.contains("\"kind\":\"InputLost\",\"job\":1,\"blocks\":3,\"graceful\":false"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(matches!(
            parse_event("not json"),
            Err(TraceParseError::Malformed(_))
        ));
        assert!(matches!(
            parse_event("{\"t\":1,\"kind\":\"NoSuchKind\"}"),
            Err(TraceParseError::UnknownKind(_))
        ));
        assert!(matches!(
            parse_event("{\"t\":1,\"kind\":\"MapFinished\",\"job\":0}"),
            Err(TraceParseError::MissingField { field: "task", .. })
        ));
        assert!(matches!(
            parse_event("{\"kind\":\"EndOfInput\",\"job\":0}"),
            Err(TraceParseError::Malformed(_))
        ));
        assert!(matches!(
            parse_event("{\"t\":1,\"kind\":\"EndOfInput\",\"job\":0} extra"),
            Err(TraceParseError::Malformed(_))
        ));
    }

    #[test]
    fn registry_families_render_and_merge() {
        let (job, task, node) = (JobId(0), TaskId(0), NodeId(0));
        let waits = |queue_wait_ms, split_wait_ms| TraceKind::MapStarted {
            job,
            task,
            node,
            local: true,
            queue_wait_ms,
            split_wait_ms,
        };
        let events = [
            waits(Some(30), Some(30)),
            waits(None, None),
            TraceKind::MapFinished {
                job,
                task,
                attempt_ms: 1000,
            },
            TraceKind::ProviderEvaluated { job, gap_ms: 4000 },
            TraceKind::ReduceFinished {
                job,
                reduce_ms: 900,
            },
        ]
        .map(|kind| ev(0, kind));
        let a = MetricsRegistry::from_trace(&events, "fifo");
        assert_eq!(a.queue_wait("fifo").unwrap().sum(), 30);
        assert_eq!(a.queue_wait_total().count(), 1, "a backup never queued");
        assert_eq!(a.split_wait().count(), 1);
        assert_eq!(a.map_attempt().sum(), 1000);
        assert_eq!(a.provider_eval_interval().sum(), 4000);
        assert_eq!(a.reduce().sum(), 900);
        assert!(a.shuffle_merge().is_empty() && a.agg_probe().is_empty());
        let b = MetricsRegistry::from_trace(&events[2..3], "fair");
        assert!(b.queue_wait("fair").is_none(), "no wait, no family");
        let b = MetricsRegistry::from_trace(&events[..1], "fair");
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.queue_wait("fifo").unwrap().count(), 1);
        assert_eq!(merged.queue_wait("fair").unwrap().count(), 1);
        assert_eq!(merged.queue_wait_total().count(), 2);
        let text = merged.render();
        for needle in [
            "map_attempt_ms",
            "shuffle_merge_ms",
            "reduce_ms",
            "provider_eval_interval_ms",
            "queue_wait_ms[fifo]",
            "queue_wait_ms[fair]",
            "split_wait_ms",
            "agg_probe_ms",
        ] {
            assert!(text.contains(needle), "render lacks {needle}:\n{text}");
        }
    }

    #[test]
    fn audit_render_carries_every_field_and_sums_grants() {
        let progress = JobProgress {
            job: JobId(2),
            splits_added: 6,
            splits_completed: 4,
            splits_running: 2,
            splits_pending: 0,
            records_processed: 4000,
            map_output_records: 17,
        };
        let cluster = ClusterStatus {
            total_map_slots: 40,
            occupied_map_slots: 12,
            running_jobs: 2,
            queued_map_tasks: 1,
        };
        let records = vec![
            AuditRecord {
                time: SimTime::ZERO,
                job: JobId(2),
                stage: ProviderStage::InitialInput,
                progress,
                cluster,
                grab_limit: 4,
                directive: AuditDirective::AddInput { requested: 4 },
                granted: 4,
                clamped: false,
                duplicates_dropped: 0,
                retried: false,
            },
            AuditRecord {
                time: SimTime::from_secs(4),
                job: JobId(2),
                stage: ProviderStage::Evaluate,
                progress,
                cluster,
                grab_limit: u64::MAX,
                directive: AuditDirective::AddInput { requested: 9 },
                granted: 2,
                clamped: true,
                duplicates_dropped: 3,
                retried: false,
            },
        ];
        assert_eq!(audited_splits_added(&records, JobId(2)), 6);
        assert_eq!(audited_splits_added(&records, JobId(3)), 0);
        let text = render_audit(&records);
        for needle in [
            "stage=initial_input",
            "stage=evaluate",
            "added=6",
            "grab_limit=4",
            "grab_limit=unlimited",
            "directive=AddInput",
            "requested=9",
            "granted=2",
            "clamped=yes",
            "dups=3",
            "retried=no",
        ] {
            assert!(text.contains(needle), "audit lacks {needle}:\n{text}");
        }
    }

    #[test]
    fn swimlanes_chart_is_deterministic_and_marks_kinds() {
        let job = JobId(0);
        let events = vec![
            ev(0, TraceKind::JobSubmitted { job }),
            ev(
                0,
                TraceKind::MapStarted {
                    job,
                    task: TaskId(0),
                    node: NodeId(1),
                    local: true,
                    queue_wait_ms: Some(0),
                    split_wait_ms: Some(0),
                },
            ),
            ev(
                100,
                TraceKind::SpeculativeLaunch {
                    job,
                    task: TaskId(0),
                    node: NodeId(2),
                },
            ),
            ev(
                100,
                TraceKind::MapStarted {
                    job,
                    task: TaskId(0),
                    node: NodeId(2),
                    local: false,
                    queue_wait_ms: None,
                    split_wait_ms: None,
                },
            ),
            ev(
                200,
                TraceKind::AttemptKilled {
                    job,
                    task: TaskId(0),
                    node: NodeId(2),
                },
            ),
            ev(
                200,
                TraceKind::MapFinished {
                    job,
                    task: TaskId(0),
                    attempt_ms: 200,
                },
            ),
            ev(
                300,
                TraceKind::NodeLost {
                    node: NodeId(1),
                    memo_dropped: 0,
                },
            ),
            ev(400, TraceKind::NodeRejoined { node: NodeId(1) }),
            ev(
                500,
                TraceKind::ReduceStarted {
                    job,
                    node: NodeId(3),
                },
            ),
            ev(
                600,
                TraceKind::ReduceFinished {
                    job,
                    reduce_ms: 100,
                },
            ),
            ev(600, TraceKind::JobCompleted { job, failed: false }),
        ];
        let chart = render_swimlanes(&events, 12);
        assert_eq!(chart, render_swimlanes(&events, 12));
        assert!(chart.contains("node1 m0"), "{chart}");
        assert!(chart.contains('='), "{chart}");
        assert!(chart.contains('S'), "{chart}");
        assert!(chart.contains('R'), "{chart}");
        assert!(chart.contains('x'), "{chart}");
        assert_eq!(render_swimlanes(&[], 8), "swimlanes: (no events)\n");
    }
}
