//! Per-layer tracing from outside the program.
//!
//! A traced run wraps the public trait objects a job is built from
//! (`InputFormat`, `Mapper`, `Combiner`, `Reducer`, `GrowthDriver`,
//! `TaskScheduler`) and the entry points the benchmark calls, and records
//! a span at each boundary: statement id, layer, start, end and parent.
//! Self time — a span minus the time its child spans cover — is folded
//! into per-layer totals as each span closes, so totals stay exact while
//! only the first spans are kept for the JSONL file.
//!
//! The recorder is thread-local: the benchmark keeps the data plane at
//! `Parallelism::SERIAL`, so every wrapped call runs on the driving
//! thread.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use incmr_data::Record;
use incmr_dfs::BlockId;
use incmr_mapreduce::{
    Assignment, ClusterStatus, Combiner, EvalContext, GrowthDirective, GrowthDriver, GrowthOutcome,
    InputFormat, JobSpec, Key, KeyedBatch, MapResult, Mapper, ProviderError, Reducer, SchedView,
    SplitData, TaskScheduler, ViewPolicy,
};
use incmr_simkit::SimDuration;

/// A traced boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One `SELECT`, prepare to collected result (a root span).
    Statement,
    /// `SessionState::prepare`: parse and compile.
    Prepare,
    /// `MrRuntime::submit`.
    Submit,
    /// One `MrRuntime::step` of the event loop.
    Step,
    /// `collect_result`: result rows out of the runtime.
    Collect,
    /// `InputFormat::read`: split generation or cache hit.
    Read,
    /// `Mapper::run`.
    Map,
    /// `Combiner::combine` / `Combiner::combine_batches`.
    Combine,
    /// `Reducer::reduce`, one key group.
    Reduce,
    /// `GrowthDriver::try_initial_input` / `try_evaluate`.
    Provider,
    /// `TaskScheduler::assign`.
    Assign,
    /// `MrRuntime::evolve` (a root span).
    Evolve,
    /// One open-loop arrival: advance to its due time and submit it (a
    /// root span).
    Arrival,
    /// `QueryService::run_until` / `run_until_idle`.
    ServiceLoop,
    /// `QueryService::submit`.
    ServiceSubmit,
}

impl Layer {
    /// Every layer, indexed by `layer as usize`.
    pub const ALL: [Layer; 15] = [
        Layer::Statement,
        Layer::Prepare,
        Layer::Submit,
        Layer::Step,
        Layer::Collect,
        Layer::Read,
        Layer::Map,
        Layer::Combine,
        Layer::Reduce,
        Layer::Provider,
        Layer::Assign,
        Layer::Evolve,
        Layer::Arrival,
        Layer::ServiceLoop,
        Layer::ServiceSubmit,
    ];

    /// The span name written to the JSONL file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Statement => "statement",
            Layer::Prepare => "hiveql.prepare",
            Layer::Submit => "mapreduce.runtime.submit",
            Layer::Step => "mapreduce.runtime.step",
            Layer::Collect => "hiveql.collect",
            Layer::Read => "mapreduce.exec.read",
            Layer::Map => "mapreduce.exec.map",
            Layer::Combine => "mapreduce.exec.combine",
            Layer::Reduce => "mapreduce.exec.reduce",
            Layer::Provider => "core.provider.eval",
            Layer::Assign => "mapreduce.scheduler.assign",
            Layer::Evolve => "dfs.evolve",
            Layer::Arrival => "service.arrival",
            Layer::ServiceLoop => "service.loop",
            Layer::ServiceSubmit => "service.submit",
        }
    }
}

/// Call and time totals per layer, plus the record counts the wrappers see.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Spans closed, per layer.
    pub calls: [u64; Layer::ALL.len()],
    /// Span durations, per layer.
    pub total_ns: [u64; Layer::ALL.len()],
    /// Span durations minus child spans, per layer.
    pub self_ns: [u64; Layer::ALL.len()],
    /// Records in the splits read.
    pub read_records: u64,
    /// Records handed to mappers.
    pub map_in: u64,
    /// Records mappers emitted (materialised or not).
    pub map_out: u64,
    /// Records handed to combiners.
    pub combine_in: u64,
    /// Records combiners kept.
    pub combine_out: u64,
    /// Values handed to reducers.
    pub reduce_values: u64,
    /// Splits providers added.
    pub provider_splits: u64,
    /// Slot assignments schedulers made.
    pub assignments: u64,
}

impl Totals {
    /// Calls of `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Self nanoseconds of `layer`.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    /// Total nanoseconds of `layer`.
    pub fn total_ns(&self, layer: Layer) -> u64 {
        self.total_ns[layer as usize]
    }

    /// Accumulate another set of totals.
    pub fn add(&mut self, other: &Totals) {
        for i in 0..Layer::ALL.len() {
            self.calls[i] += other.calls[i];
            self.total_ns[i] += other.total_ns[i];
            self.self_ns[i] += other.self_ns[i];
        }
        self.read_records += other.read_records;
        self.map_in += other.map_in;
        self.map_out += other.map_out;
        self.combine_in += other.combine_in;
        self.combine_out += other.combine_out;
        self.reduce_values += other.reduce_values;
        self.provider_splits += other.provider_splits;
        self.assignments += other.assignments;
    }
}

/// One kept span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Statement (or arrival) the span belongs to.
    pub stmt: u64,
    /// Its layer.
    pub layer: Layer,
    /// Start, nanoseconds since the recorder started.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the parent span, if it was kept.
    pub parent: Option<usize>,
}

struct Open {
    layer: Layer,
    start: Instant,
    child_ns: u64,
    kept: Option<usize>,
}

struct Recorder {
    origin: Instant,
    stmt: u64,
    stack: Vec<Open>,
    totals: Totals,
    spans: Vec<SpanRecord>,
    keep: usize,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread, keeping at most `keep` spans for the
/// JSONL file (totals cover every span regardless).
pub fn start(keep: usize) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            stmt: 0,
            stack: Vec::new(),
            totals: Totals::default(),
            spans: Vec::new(),
            keep,
        })
    });
}

/// Stop recording; returns the kept spans.
pub fn stop() -> Vec<SpanRecord> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Tag the following spans with statement id `stmt`.
pub fn set_statement(stmt: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.stmt = stmt;
        }
    });
}

/// Take the totals accumulated since the last call (or `start`).
pub fn take_totals() -> Totals {
    RECORDER.with(|r| {
        r.borrow_mut()
            .as_mut()
            .map(|rec| std::mem::take(&mut rec.totals))
            .unwrap_or_default()
    })
}

fn count(f: impl FnOnce(&mut Totals)) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(&mut rec.totals);
        }
    });
}

/// Closes its span on drop, so a panic unwinding through a wrapped call
/// (the runtime sandboxes provider panics) leaves the stack consistent.
struct Guard;

impl Drop for Guard {
    fn drop(&mut self) {
        let end = Instant::now();
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let Some(rec) = r.as_mut() else { return };
            let Some(open) = rec.stack.pop() else { return };
            let dur = end.duration_since(open.start).as_nanos() as u64;
            let i = open.layer as usize;
            rec.totals.calls[i] += 1;
            rec.totals.total_ns[i] += dur;
            rec.totals.self_ns[i] += dur.saturating_sub(open.child_ns);
            if let Some(parent) = rec.stack.last_mut() {
                parent.child_ns += dur;
            }
            if let Some(k) = open.kept {
                rec.spans[k].end_ns = end.duration_since(rec.origin).as_nanos() as u64;
            }
        });
    }
}

/// Run `f` inside a span of `layer` (just `f` when not recording).
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let recording = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else { return false };
        let start = Instant::now();
        let kept = (rec.spans.len() < rec.keep).then(|| {
            let start_ns = start.duration_since(rec.origin).as_nanos() as u64;
            rec.spans.push(SpanRecord {
                stmt: rec.stmt,
                layer,
                start_ns,
                end_ns: start_ns,
                parent: rec.stack.last().and_then(|p| p.kept),
            });
            rec.spans.len() - 1
        });
        rec.stack.push(Open {
            layer,
            start,
            child_ns: 0,
            kept,
        });
        true
    });
    if !recording {
        return f();
    }
    let _guard = Guard;
    f()
}

/// Write kept spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"stmt\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.stmt,
            s.layer.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

/// Replace every trait object of `spec` with its traced wrapper.
pub fn wrap_spec(mut spec: JobSpec) -> JobSpec {
    spec.input_format = Arc::new(TracedInput(spec.input_format));
    spec.mapper = Arc::new(TracedMapper(spec.mapper));
    spec.combiner = spec
        .combiner
        .map(|c| Arc::new(TracedCombiner(c)) as Arc<dyn Combiner>);
    spec.reducer = Arc::new(TracedReducer(spec.reducer));
    spec
}

/// Traced [`InputFormat`].
pub struct TracedInput(pub Arc<dyn InputFormat>);

impl InputFormat for TracedInput {
    fn read(&self, block: BlockId) -> SplitData {
        let data = span(Layer::Read, || self.0.read(block));
        count(|t| t.read_records += data.total_records());
        data
    }
}

/// Traced [`Mapper`].
pub struct TracedMapper(pub Arc<dyn Mapper>);

impl Mapper for TracedMapper {
    fn run(&self, data: SplitData) -> MapResult {
        let records = data.total_records();
        let result = span(Layer::Map, || self.0.run(data));
        count(|t| {
            t.map_in += records;
            t.map_out += result.total_outputs();
        });
        result
    }
}

/// Traced [`Combiner`], both the pair and the batch arm.
pub struct TracedCombiner(pub Arc<dyn Combiner>);

impl Combiner for TracedCombiner {
    fn combine(&self, pairs: Vec<(Key, Record)>) -> Vec<(Key, Record)> {
        let before = pairs.len() as u64;
        let out = span(Layer::Combine, || self.0.combine(pairs));
        count(|t| {
            t.combine_in += before;
            t.combine_out += out.len() as u64;
        });
        out
    }

    fn combine_batches(
        &self,
        batches: Vec<KeyedBatch>,
    ) -> Result<Vec<KeyedBatch>, Vec<KeyedBatch>> {
        let rows = |bs: &[KeyedBatch]| bs.iter().map(|b| b.rows.len() as u64).sum::<u64>();
        let before = rows(&batches);
        let out = span(Layer::Combine, || self.0.combine_batches(batches));
        if let Ok(folded) = &out {
            let after = rows(folded);
            count(|t| {
                t.combine_in += before;
                t.combine_out += after;
            });
        }
        out
    }
}

/// Traced [`Reducer`].
pub struct TracedReducer(pub Arc<dyn Reducer>);

impl Reducer for TracedReducer {
    fn reduce(&self, key: &Key, values: &[Record], output: &mut Vec<(Key, Record)>) {
        span(Layer::Reduce, || self.0.reduce(key, values, output));
        count(|t| t.reduce_values += values.len() as u64);
    }
}

/// Traced [`GrowthDriver`]: times the sandboxed entry points the runtime
/// calls and delegates everything else.
pub struct TracedDriver(pub Box<dyn GrowthDriver>);

impl GrowthDriver for TracedDriver {
    fn initial_input(&mut self, cluster: &ClusterStatus) -> Vec<BlockId> {
        self.0.initial_input(cluster)
    }

    fn evaluate(&mut self, ctx: EvalContext<'_>) -> GrowthDirective {
        self.0.evaluate(ctx)
    }

    fn evaluation_interval(&self) -> SimDuration {
        self.0.evaluation_interval()
    }

    fn try_initial_input(
        &mut self,
        cluster: &ClusterStatus,
    ) -> Result<Vec<BlockId>, ProviderError> {
        let out = span(Layer::Provider, || self.0.try_initial_input(cluster));
        if let Ok(splits) = &out {
            count(|t| t.provider_splits += splits.len() as u64);
        }
        out
    }

    fn try_evaluate(&mut self, ctx: EvalContext<'_>) -> GrowthOutcome {
        let out = span(Layer::Provider, || self.0.try_evaluate(ctx));
        if let Ok(GrowthDirective::AddInput(splits)) = &out {
            count(|t| t.provider_splits += splits.len() as u64);
        }
        out
    }

    fn grab_limit(&self, cluster: &ClusterStatus) -> u64 {
        self.0.grab_limit(cluster)
    }
}

/// Traced [`TaskScheduler`].
pub struct TracedScheduler(pub Box<dyn TaskScheduler>);

impl TaskScheduler for TracedScheduler {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn assign(&mut self, view: &SchedView) -> Vec<Assignment> {
        let out = span(Layer::Assign, || self.0.assign(view));
        count(|t| t.assignments += out.len() as u64);
        out
    }

    fn maps_per_heartbeat(&self) -> Option<u32> {
        self.0.maps_per_heartbeat()
    }

    fn view_policy(&self) -> ViewPolicy {
        self.0.view_policy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        start(10);
        set_statement(7);
        span(Layer::Statement, || {
            span(Layer::Prepare, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let totals = take_totals();
        let spans = stop();
        assert_eq!(totals.calls(Layer::Statement), 1);
        assert!(totals.self_ns(Layer::Prepare) >= 2_000_000);
        assert_eq!(
            totals.total_ns(Layer::Statement),
            totals.self_ns(Layer::Statement) + totals.total_ns(Layer::Prepare)
        );
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].stmt, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn spans_outside_a_recording_cost_nothing_but_the_call() {
        assert_eq!(span(Layer::Map, || 5), 5);
        assert_eq!(take_totals(), Totals::default());
    }
}
