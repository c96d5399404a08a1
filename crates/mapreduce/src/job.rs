//! Job-level public types: identifiers, specs, progress reports, growth
//! drivers, and results.
//!
//! The key extension over stock Hadoop is the [`GrowthDriver`] hook — the
//! runtime-side half of the paper's *Input Provider* mechanism (Section
//! III-A). A job is submitted together with a driver; the driver supplies
//! the initial splits and is then re-evaluated at its chosen interval until
//! it declares end-of-input. Stock Hadoop behaviour ("all input up front")
//! is the trivial [`StaticDriver`].

use std::fmt;
use std::sync::Arc;

use incmr_dfs::BlockId;
use incmr_simkit::SimDuration;

use crate::approx::{agg_plan_of, AggPlan};
use crate::cluster::ClusterStatus;
use crate::conf::{keys, ConfError, JobConf};
use crate::exec::{Combiner, IdentityReducer, InputFormat, Key, Mapper, Reducer};
use crate::memo::signature_of_conf;
use incmr_data::Record;

/// Identifier of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

/// Identifier of a map task within its job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job_{:04}", self.0)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m_{:06}", self.0)
    }
}

/// Everything needed to run a job: configuration plus the user's black-box
/// logic. Cloning is cheap (shared `Arc`s); the `Arc`s make the spec
/// `Send + Sync` so map work can run on the data-plane worker pool.
///
/// Construct specs with [`JobSpec::builder`] rather than struct literals —
/// the builder defaults the configuration and reducer and keeps call sites
/// stable as fields are added.
#[derive(Clone)]
pub struct JobSpec {
    /// Job configuration.
    pub conf: JobConf,
    /// Source of split contents.
    pub input_format: Arc<dyn InputFormat>,
    /// Map logic.
    pub mapper: Arc<dyn Mapper>,
    /// Optional map-side aggregation (Hadoop's combiner), applied to each
    /// map task's output on the data plane before partitioning.
    pub combiner: Option<Arc<dyn Combiner>>,
    /// Reduce logic.
    pub reducer: Arc<dyn Reducer>,
}

impl JobSpec {
    /// Start building a job spec. Input format and mapper are mandatory;
    /// the configuration defaults to empty, the combiner to none, and the
    /// reducer to [`IdentityReducer`].
    pub fn builder() -> JobSpecBuilder {
        JobSpecBuilder {
            conf: JobConf::new(),
            input_format: None,
            mapper: None,
            combiner: None,
            reducer: Arc::new(IdentityReducer),
        }
    }
}

/// Builder for [`JobSpec`] (see [`JobSpec::builder`]).
pub struct JobSpecBuilder {
    conf: JobConf,
    input_format: Option<Arc<dyn InputFormat>>,
    mapper: Option<Arc<dyn Mapper>>,
    combiner: Option<Arc<dyn Combiner>>,
    reducer: Arc<dyn Reducer>,
}

impl JobSpecBuilder {
    /// Replace the whole configuration (defaults to empty).
    pub fn conf(mut self, conf: JobConf) -> Self {
        self.conf = conf;
        self
    }

    /// Set one configuration key (applied on top of [`JobSpecBuilder::conf`]).
    pub fn set(mut self, key: &str, value: impl fmt::Display) -> Self {
        self.conf.set(key, value);
        self
    }

    /// Source of split contents (mandatory).
    pub fn input(mut self, input_format: impl InputFormat + 'static) -> Self {
        self.input_format = Some(Arc::new(input_format));
        self
    }

    /// Source of split contents from an existing shared handle.
    pub fn input_arc(mut self, input_format: Arc<dyn InputFormat>) -> Self {
        self.input_format = Some(input_format);
        self
    }

    /// Map logic (mandatory).
    pub fn mapper(mut self, mapper: impl Mapper + 'static) -> Self {
        self.mapper = Some(Arc::new(mapper));
        self
    }

    /// Map logic from an existing shared handle.
    pub fn mapper_arc(mut self, mapper: Arc<dyn Mapper>) -> Self {
        self.mapper = Some(mapper);
        self
    }

    /// Map-side combiner (defaults to none). Also records the combiner
    /// under [`keys::COMBINER_CLASS`] for observability, mirroring
    /// Hadoop's `mapred.combiner.class`.
    pub fn combiner(mut self, combiner: impl Combiner + 'static) -> Self {
        self.conf
            .set(keys::COMBINER_CLASS, std::any::type_name_of_val(&combiner));
        self.combiner = Some(Arc::new(combiner));
        self
    }

    /// Reduce logic (defaults to [`IdentityReducer`]).
    pub fn reducer(mut self, reducer: impl Reducer + 'static) -> Self {
        self.reducer = Arc::new(reducer);
        self
    }

    /// Number of reduce tasks (sets [`keys::NUM_REDUCE_TASKS`]).
    pub fn reduces(mut self, n: u32) -> Self {
        self.conf.set(keys::NUM_REDUCE_TASKS, n);
        self
    }

    /// How many recoverable Input Provider failures (caught panics,
    /// invalid directives) the job absorbs before failing — each one is
    /// treated as a `Wait` and the provider is re-consulted at the next
    /// evaluation (sets [`keys::PROVIDER_RETRY_BUDGET`]; default 0).
    pub fn provider_retry_budget(mut self, retries: u32) -> Self {
        self.conf.set(keys::PROVIDER_RETRY_BUDGET, retries);
        self
    }

    /// Livelock watchdog threshold: consecutive unproductive evaluations
    /// (no new splits, nothing running or pending) before the job is
    /// failed as wedged. `0` disables the watchdog (sets
    /// [`keys::MAX_IDLE_EVALUATIONS`]; the runtime defaults to
    /// `crate::runtime::DEFAULT_MAX_IDLE_EVALUATIONS`).
    pub fn max_idle_evaluations(mut self, evaluations: u32) -> Self {
        self.conf.set(keys::MAX_IDLE_EVALUATIONS, evaluations);
        self
    }

    /// Simulated-time deadline, measured from submission. On expiry the
    /// job fails with `JobError::DeadlineExceeded`, or degrades to its
    /// partial output under [`JobSpecBuilder::allow_partial`] (sets
    /// [`keys::JOB_DEADLINE_MS`]; must be nonzero).
    pub fn deadline(mut self, deadline: SimDuration) -> Self {
        self.conf.set(keys::JOB_DEADLINE_MS, deadline.as_millis());
        self
    }

    /// On deadline expiry, stop growing, abandon unstarted splits, and
    /// complete with the output gathered so far instead of failing (sets
    /// [`keys::ALLOW_PARTIAL`]).
    pub fn allow_partial(mut self, allow: bool) -> Self {
        self.conf.set(keys::ALLOW_PARTIAL, allow);
        self
    }

    /// Target replica count for the job's input dataset (sets
    /// [`keys::DFS_REPLICATION`]; must be nonzero). Informational at the
    /// job level — placement happens when the dataset is built.
    pub fn replication(mut self, r: u8) -> Self {
        self.conf.set(keys::DFS_REPLICATION, r);
        self
    }

    /// Error-bounded approximate aggregation: grow the job only until the
    /// relative error bound `error` holds at `confidence` for every group
    /// and aggregate (sets [`keys::AGG_ERROR`] and
    /// [`keys::AGG_CONFIDENCE`]; both must lie strictly inside (0, 1)).
    /// An estimating spec also needs [`keys::AGG_FUNCS`] and
    /// [`keys::AGG_TOTAL_SPLITS`], which the query compiler writes.
    pub fn error_bound(mut self, error: f64, confidence: f64) -> Self {
        self.conf.set(keys::AGG_ERROR, error);
        self.conf.set(keys::AGG_CONFIDENCE, confidence);
        self
    }

    /// Growth-round budget for an estimating aggregate job: how many
    /// input-drawing rounds the provider may spend before stopping with
    /// `AggOutcome::BudgetExhausted` (sets [`keys::AGG_ROUNDS`]; must be
    /// ≥ 1).
    pub fn agg_rounds(mut self, rounds: u64) -> Self {
        self.conf.set(keys::AGG_ROUNDS, rounds);
        self
    }

    /// Finish building, returning a typed error for incomplete or
    /// malformed specs: a missing input format or mapper, or any
    /// configuration key [`MrRuntime::try_submit`] would reject (see
    /// `parse_conf`).
    ///
    /// [`MrRuntime::try_submit`]: crate::MrRuntime::try_submit
    pub fn try_build(self) -> Result<JobSpec, JobConfigError> {
        parse_conf(&self.conf)?;
        Ok(JobSpec {
            conf: self.conf,
            input_format: self.input_format.ok_or(JobConfigError::MissingInput)?,
            mapper: self.mapper.ok_or(JobConfigError::MissingMapper)?,
            combiner: self.combiner,
            reducer: self.reducer,
        })
    }

    /// Finish building.
    ///
    /// # Panics
    /// Panics if the spec is incomplete or malformed — see
    /// [`JobSpecBuilder::try_build`] for the checked variant.
    pub fn build(self) -> JobSpec {
        match self.try_build() {
            Ok(spec) => spec,
            Err(JobConfigError::MissingInput) => panic!("JobSpec::builder requires .input(...)"),
            Err(JobConfigError::MissingMapper) => panic!("JobSpec::builder requires .mapper(...)"),
            Err(e) => panic!("invalid job configuration: {e}"),
        }
    }
}

/// The typed values of a job's configuration, parsed by [`parse_conf`].
pub(crate) struct ParsedConf {
    /// `mapred.reduce.tasks`, at least 1.
    pub(crate) reduce_tasks: u32,
    /// [`keys::PROVIDER_RETRY_BUDGET`].
    pub(crate) provider_retries: u32,
    /// [`keys::MAX_IDLE_EVALUATIONS`] (`0` disables the watchdog).
    pub(crate) max_idle_evaluations: u32,
    /// [`keys::JOB_DEADLINE_MS`] (`u64::MAX` = no deadline; never 0).
    pub(crate) deadline_ms: u64,
    /// [`keys::JOB_SIGNATURE`] when set, else a hash of the full conf (so
    /// distinct queries never share memoized map output by accident).
    pub(crate) signature: u64,
    /// The `mapred.agg.*` plan (`Some` only for estimating jobs).
    pub(crate) agg_plan: Option<AggPlan>,
}

/// Parse and validate every typed configuration key a job is submitted
/// with — the one parse behind both [`JobSpecBuilder::try_build`] (which
/// discards the values) and `MrRuntime::try_submit` (which uses them).
/// Rejects unparseable numbers, counts wider than `u32`, a zero deadline,
/// a malformed or zero `dfs.replication` (informational at job level, but
/// caught here rather than mid-chaos) and a malformed `mapred.agg.*` set.
pub(crate) fn parse_conf(conf: &JobConf) -> Result<ParsedConf, JobConfigError> {
    let bad = JobConfigError::BadConf;
    let reduce_tasks = conf
        .get_u32_or(keys::NUM_REDUCE_TASKS, 1)
        .map_err(bad)?
        .max(1);
    let provider_retries = conf
        .get_u32_or(keys::PROVIDER_RETRY_BUDGET, 0)
        .map_err(bad)?;
    let max_idle_evaluations = conf
        .get_u32_or(
            keys::MAX_IDLE_EVALUATIONS,
            crate::runtime::DEFAULT_MAX_IDLE_EVALUATIONS,
        )
        .map_err(bad)?;
    let deadline_ms = conf
        .get_u64_or(keys::JOB_DEADLINE_MS, u64::MAX)
        .map_err(bad)?;
    if deadline_ms == 0 {
        return Err(JobConfigError::ZeroDeadline);
    }
    let rejected = |key: &str, value: &str, wanted| {
        JobConfigError::BadConf(ConfError {
            key: key.to_string(),
            value: value.to_string(),
            wanted,
        })
    };
    if let Some(v) = conf.get(keys::DFS_REPLICATION) {
        if !matches!(v.parse::<u8>(), Ok(r) if r > 0) {
            return Err(rejected(
                keys::DFS_REPLICATION,
                v,
                "replication factor (1..=255)",
            ));
        }
    }
    let signature = match conf.get(keys::JOB_SIGNATURE) {
        Some(v) => v
            .parse()
            .map_err(|_| rejected(keys::JOB_SIGNATURE, v, "u64"))?,
        None => signature_of_conf(conf.iter(), reduce_tasks),
    };
    Ok(ParsedConf {
        reduce_tasks,
        provider_retries,
        max_idle_evaluations,
        deadline_ms,
        signature,
        agg_plan: agg_plan_of(conf).map_err(bad)?,
    })
}

/// A rejected job spec: what was missing or malformed at build time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobConfigError {
    /// No input format was supplied.
    MissingInput,
    /// No mapper was supplied.
    MissingMapper,
    /// A numeric configuration key failed to parse.
    BadConf(ConfError),
    /// A deadline of zero milliseconds was requested — it would expire at
    /// submission; omit the key to mean "no deadline".
    ZeroDeadline,
}

impl fmt::Display for JobConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobConfigError::MissingInput => write!(f, "job spec has no input format"),
            JobConfigError::MissingMapper => write!(f, "job spec has no mapper"),
            JobConfigError::BadConf(e) => write!(f, "{e}"),
            JobConfigError::ZeroDeadline => {
                write!(f, "job deadline must be nonzero (omit the key for none)")
            }
        }
    }
}

impl std::error::Error for JobConfigError {}

/// Which provider hook was running when a guard-rail fault was caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProviderStage {
    /// `initial_input`, at submission time.
    InitialInput,
    /// `evaluate` / `next_input`, at an evaluation.
    Evaluate,
}

impl fmt::Display for ProviderStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProviderStage::InitialInput => write!(f, "initial_input"),
            ProviderStage::Evaluate => write!(f, "evaluate"),
        }
    }
}

/// A misbehaving Input Provider or growth driver, caught by the runtime's
/// guard-rail plane instead of poisoning the event loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProviderError {
    /// The provider panicked; the sandbox caught it.
    Panicked {
        /// Which hook was running.
        stage: ProviderStage,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// An `AddInput` directive named a block outside the namespace.
    UnknownBlock {
        /// The offending block id.
        block: BlockId,
    },
}

impl ProviderError {
    /// Build a `Panicked` error from a payload caught by
    /// `std::panic::catch_unwind`.
    pub fn from_panic(stage: ProviderStage, payload: Box<dyn std::any::Any + Send>) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            String::from("<non-string panic payload>")
        };
        ProviderError::Panicked { stage, message }
    }
}

impl fmt::Display for ProviderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProviderError::Panicked { stage, message } => {
                write!(f, "input provider panicked in {stage}: {message}")
            }
            ProviderError::UnknownBlock { block } => {
                write!(f, "input provider requested unknown {block}")
            }
        }
    }
}

impl std::error::Error for ProviderError {}

/// Why a job was aborted, recorded on its [`JobResult`]. `None` there
/// means the job completed (possibly with a partial sample — see
/// `TraceKind::PartialSample`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The Input Provider misbehaved past the retry budget.
    Provider(ProviderError),
    /// The livelock watchdog fired: too many consecutive unproductive
    /// evaluations with nothing running or pending.
    Wedged {
        /// Consecutive idle evaluations observed at termination.
        idle_evaluations: u32,
    },
    /// The job's simulated-time deadline expired without
    /// `mapred.job.allow.partial`.
    DeadlineExceeded,
    /// A map task exhausted its attempt budget.
    TaskAttemptsExhausted {
        /// The failing task.
        task: TaskId,
    },
    /// A reduce task exhausted its attempt budget.
    ReduceAttemptsExhausted {
        /// The failing reduce partition.
        reduce: u32,
    },
    /// Every node in the cluster is blacklisted for this job.
    AllNodesBlacklisted,
    /// Under DataNode-death semantics every replica of one or more of the
    /// job's input blocks was lost, and the job does not allow a partial
    /// result (`mapred.job.allow.partial`).
    InputLost {
        /// The unreadable blocks, in ascending id order.
        blocks: Vec<BlockId>,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Provider(e) => write!(f, "{e}"),
            JobError::Wedged { idle_evaluations } => {
                write!(f, "job wedged after {idle_evaluations} idle evaluations")
            }
            JobError::DeadlineExceeded => write!(f, "job deadline exceeded"),
            JobError::TaskAttemptsExhausted { task } => {
                write!(f, "map task {task} exhausted its attempts")
            }
            JobError::ReduceAttemptsExhausted { reduce } => {
                write!(f, "reduce task r{reduce} exhausted its attempts")
            }
            JobError::AllNodesBlacklisted => write!(f, "every node is blacklisted for this job"),
            JobError::InputLost { blocks } => {
                write!(f, "{} input block(s) lost every replica", blocks.len())
            }
        }
    }
}

impl std::error::Error for JobError {}

/// Outcome of one sandboxed driver evaluation: a directive, or a typed
/// provider failure for the runtime's guard-rail plane to absorb.
pub type GrowthOutcome = Result<GrowthDirective, ProviderError>;

/// Progress statistics for one job, as passed to its [`GrowthDriver`] at
/// each evaluation (paper: "statistics about the output produced by
/// finished mappers, the status of the job").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobProgress {
    /// The job being reported on.
    pub job: JobId,
    /// Splits added to the job so far (scheduled or done).
    pub splits_added: u32,
    /// Splits whose map task has completed.
    pub splits_completed: u32,
    /// Map tasks currently executing.
    pub splits_running: u32,
    /// Map tasks waiting for a slot.
    pub splits_pending: u32,
    /// Records scanned by completed map tasks.
    pub records_processed: u64,
    /// Output pairs produced by completed map tasks.
    pub map_output_records: u64,
}

/// A growth driver's directive after an evaluation (Figure 3 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrowthDirective {
    /// "End of input": no further input will be added; once the scheduled
    /// maps finish, the job proceeds to the reduce phase.
    EndOfInput,
    /// "Input available": schedule these additional splits.
    AddInput(Vec<BlockId>),
    /// "No input available": wait and reassess at the next evaluation.
    Wait,
}

/// Everything an evaluation hook gets to look at, bundled so future
/// statistics (the paper's cluster-load extensions) extend this struct
/// instead of every implementor's signature.
#[derive(Debug, Clone, Copy)]
pub struct EvalContext<'a> {
    /// Progress of the job under evaluation.
    pub progress: &'a JobProgress,
    /// Cluster-wide status at evaluation time.
    pub cluster: &'a ClusterStatus,
    /// Upper bound on splits the callee may request in this round. The
    /// runtime evaluates drivers with `u64::MAX` (drivers own their policy);
    /// policy layers such as `DynamicDriver` tighten it before delegating to
    /// their Input Provider.
    pub grab_limit: u64,
    /// Blocks that landed in the namespace since the last consultation
    /// (`MrRuntime::evolve` growth, delivered exactly once). Standing
    /// queries fold these into their candidate pool; ordinary drivers may
    /// ignore them. Empty outside the evolve path.
    pub arrived: &'a [BlockId],
    /// For estimating aggregate jobs: the runtime's latest error-bound
    /// probe, folded from completed map output just before this
    /// evaluation. `None` for ordinary jobs (and before any map task has
    /// completed on an estimating one).
    pub agg: Option<&'a crate::approx::AggProbe>,
}

impl<'a> EvalContext<'a> {
    /// A context with no grab restriction (as the runtime hands to drivers).
    pub fn unlimited(progress: &'a JobProgress, cluster: &'a ClusterStatus) -> Self {
        EvalContext {
            progress,
            cluster,
            grab_limit: u64::MAX,
            arrived: &[],
            agg: None,
        }
    }

    /// The same context with a tightened grab limit.
    pub fn with_grab_limit(self, grab_limit: u64) -> Self {
        EvalContext { grab_limit, ..self }
    }

    /// The same context carrying newly arrived blocks.
    pub fn with_arrived(self, arrived: &'a [BlockId]) -> Self {
        EvalContext { arrived, ..self }
    }

    /// The same context carrying an error-bound probe.
    pub fn with_agg(self, agg: Option<&'a crate::approx::AggProbe>) -> Self {
        EvalContext { agg, ..self }
    }
}

/// Runtime-side hook controlling a job's intake of input.
///
/// The runtime invokes drivers only through the fallible `try_*` entry
/// points, under a panic sandbox: a panicking or misbehaving driver fails
/// (or, with a retry budget, re-consults) its own job instead of the
/// whole simulated cluster. The defaults delegate to the infallible
/// methods, so plain drivers implement only those.
pub trait GrowthDriver {
    /// Splits to schedule at submission time.
    fn initial_input(&mut self, cluster: &ClusterStatus) -> Vec<BlockId>;

    /// Periodic evaluation. The runtime calls this every
    /// [`GrowthDriver::evaluation_interval`] until it returns
    /// [`GrowthDirective::EndOfInput`].
    fn evaluate(&mut self, ctx: EvalContext<'_>) -> GrowthDirective;

    /// How often to evaluate.
    fn evaluation_interval(&self) -> SimDuration;

    /// Fallible submission hook, what the runtime actually calls. Layered
    /// drivers (e.g. `DynamicDriver`) override this to sandbox their
    /// embedded Input Provider and surface typed failures.
    fn try_initial_input(
        &mut self,
        cluster: &ClusterStatus,
    ) -> Result<Vec<BlockId>, ProviderError> {
        Ok(self.initial_input(cluster))
    }

    /// Fallible evaluation hook, what the runtime actually calls.
    fn try_evaluate(&mut self, ctx: EvalContext<'_>) -> GrowthOutcome {
        Ok(self.evaluate(ctx))
    }

    /// The most splits one `AddInput` directive may carry right now. The
    /// runtime truncates over-long directives to this bound (tracing a
    /// `GrabLimitClamped` event), so a buggy or hostile provider cannot
    /// flood the job. Policy-bearing drivers override this with their
    /// grab-limit formula; the default is unbounded.
    fn grab_limit(&self, _cluster: &ClusterStatus) -> u64 {
        u64::MAX
    }
}

/// The stock-Hadoop driver: all splits up front, immediately end-of-input.
pub struct StaticDriver {
    splits: Vec<BlockId>,
}

impl StaticDriver {
    /// Drive a job over exactly these splits.
    pub fn new(splits: Vec<BlockId>) -> Self {
        StaticDriver { splits }
    }
}

impl GrowthDriver for StaticDriver {
    fn initial_input(&mut self, _cluster: &ClusterStatus) -> Vec<BlockId> {
        std::mem::take(&mut self.splits)
    }

    fn evaluate(&mut self, _ctx: EvalContext<'_>) -> GrowthDirective {
        GrowthDirective::EndOfInput
    }

    fn evaluation_interval(&self) -> SimDuration {
        // Immaterial: the first evaluation already ends input.
        SimDuration::from_secs(1)
    }
}

/// Final accounting for a completed job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job.
    pub job: JobId,
    /// When it was submitted.
    pub submit_time: incmr_simkit::SimTime,
    /// When its reduce committed.
    pub finish_time: incmr_simkit::SimTime,
    /// Splits (partitions) actually processed — the paper's Figure 5(d)
    /// resource-usage metric.
    pub splits_processed: u32,
    /// Records scanned across all map tasks.
    pub records_processed: u64,
    /// Map output pairs fed to the reduce phase.
    pub map_output_records: u64,
    /// Map tasks that read their split from a local disk.
    pub local_tasks: u32,
    /// Failed map-task attempts (nonzero only under fault injection).
    pub task_failures: u32,
    /// True if the job was aborted; `output` is empty and `error` says
    /// why in that case.
    pub failed: bool,
    /// Why the job was aborted (`None` for completed jobs, including
    /// partial-sample completions).
    pub error: Option<JobError>,
    /// Final reduce output.
    pub output: Vec<(Key, Record)>,
    /// This job's latency histograms (always collected). Merging these
    /// across jobs reproduces the runtime-wide registry exactly.
    pub histograms: crate::obs::MetricsRegistry,
    /// For aggregate jobs (`mapred.agg.*`): how the estimator classified
    /// the finish — bound met early, growth budget exhausted, or exact
    /// full scan. `None` for ordinary jobs and failed jobs.
    pub agg: Option<crate::approx::AggReport>,
}

impl JobResult {
    /// Submission-to-completion latency.
    pub fn response_time(&self) -> SimDuration {
        self.finish_time - self.submit_time
    }

    /// Fraction of map tasks that were data-local.
    pub fn locality(&self) -> f64 {
        if self.splits_processed == 0 {
            0.0
        } else {
            self.local_tasks as f64 / self.splits_processed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incmr_simkit::SimTime;

    fn status() -> ClusterStatus {
        ClusterStatus {
            total_map_slots: 40,
            occupied_map_slots: 0,
            running_jobs: 0,
            queued_map_tasks: 0,
        }
    }

    #[test]
    fn static_driver_hands_over_everything_then_ends() {
        let blocks = vec![BlockId(0), BlockId(1), BlockId(2)];
        let mut d = StaticDriver::new(blocks.clone());
        assert_eq!(d.initial_input(&status()), blocks);
        let p = JobProgress {
            job: JobId(0),
            splits_added: 3,
            splits_completed: 0,
            splits_running: 3,
            splits_pending: 0,
            records_processed: 0,
            map_output_records: 0,
        };
        assert_eq!(
            d.evaluate(EvalContext::unlimited(&p, &status())),
            GrowthDirective::EndOfInput
        );
    }

    #[test]
    fn builder_defaults_and_overrides() {
        struct NullInput;
        impl InputFormat for NullInput {
            fn read(&self, _block: BlockId) -> crate::exec::SplitData {
                crate::exec::SplitData::Full(Arc::default())
            }
        }
        struct NullMapper;
        impl Mapper for NullMapper {
            fn run(&self, _data: crate::exec::SplitData) -> crate::exec::MapResult {
                crate::exec::MapResult::default()
            }
        }
        let spec = JobSpec::builder()
            .input(NullInput)
            .mapper(NullMapper)
            .set(keys::JOB_NAME, "t")
            .reduces(3)
            .build();
        assert_eq!(spec.conf.get(keys::JOB_NAME), Some("t"));
        assert_eq!(spec.conf.get(keys::NUM_REDUCE_TASKS), Some("3"));
        // Default reducer is the identity; default combiner is none.
        let mut out = Vec::new();
        spec.reducer.reduce(&Key::from("k"), &[], &mut out);
        assert!(out.is_empty());
        assert!(spec.combiner.is_none());
        assert_eq!(spec.conf.get(keys::COMBINER_CLASS), None);
    }

    #[test]
    fn builder_records_combiner_class() {
        struct NullInput;
        impl InputFormat for NullInput {
            fn read(&self, _block: BlockId) -> crate::exec::SplitData {
                crate::exec::SplitData::Full(Arc::default())
            }
        }
        struct NullMapper;
        impl Mapper for NullMapper {
            fn run(&self, _data: crate::exec::SplitData) -> crate::exec::MapResult {
                crate::exec::MapResult::default()
            }
        }
        struct Passthrough;
        impl Combiner for Passthrough {
            fn combine(&self, pairs: Vec<(Key, Record)>) -> Vec<(Key, Record)> {
                pairs
            }
        }
        let spec = JobSpec::builder()
            .input(NullInput)
            .mapper(NullMapper)
            .combiner(Passthrough)
            .build();
        assert!(spec.combiner.is_some());
        assert!(spec
            .conf
            .get(keys::COMBINER_CLASS)
            .expect("combiner class recorded")
            .contains("Passthrough"));
    }

    #[test]
    #[should_panic(expected = "requires .mapper")]
    fn builder_without_mapper_panics() {
        struct NullInput;
        impl InputFormat for NullInput {
            fn read(&self, _block: BlockId) -> crate::exec::SplitData {
                crate::exec::SplitData::Full(Arc::default())
            }
        }
        let _ = JobSpec::builder().input(NullInput).build();
    }

    struct NullInput2;
    impl InputFormat for NullInput2 {
        fn read(&self, _block: BlockId) -> crate::exec::SplitData {
            crate::exec::SplitData::Full(Arc::default())
        }
    }
    struct NullMapper2;
    impl Mapper for NullMapper2 {
        fn run(&self, _data: crate::exec::SplitData) -> crate::exec::MapResult {
            crate::exec::MapResult::default()
        }
    }

    #[test]
    fn try_build_rejects_missing_parts_with_typed_errors() {
        assert!(matches!(
            JobSpec::builder().mapper(NullMapper2).try_build(),
            Err(JobConfigError::MissingInput)
        ));
        assert!(matches!(
            JobSpec::builder().input(NullInput2).try_build(),
            Err(JobConfigError::MissingMapper)
        ));
        assert!(JobSpec::builder()
            .input(NullInput2)
            .mapper(NullMapper2)
            .try_build()
            .is_ok());
    }

    #[test]
    fn try_build_rejects_malformed_numeric_conf() {
        let err = JobSpec::builder()
            .input(NullInput2)
            .mapper(NullMapper2)
            .set(keys::NUM_REDUCE_TASKS, "several")
            .try_build()
            .err()
            .expect("malformed reduce count must be rejected");
        match err {
            JobConfigError::BadConf(e) => {
                assert_eq!(e.key, keys::NUM_REDUCE_TASKS);
                assert_eq!(e.value, "several");
            }
            other => panic!("expected BadConf, got {other:?}"),
        }
        let err = JobSpec::builder()
            .input(NullInput2)
            .mapper(NullMapper2)
            .set(keys::JOB_DEADLINE_MS, "-3")
            .try_build()
            .err()
            .expect("malformed deadline must be rejected");
        assert!(matches!(err, JobConfigError::BadConf(_)));
        assert!(err.to_string().contains("not a valid u64"), "{err}");
    }

    /// `try_build` and `MrRuntime::try_submit` share one parse, so a spec
    /// that builds also submits: a signature `submit` would reject is
    /// rejected here first.
    #[test]
    fn try_build_rejects_a_non_numeric_signature() {
        let err = JobSpec::builder()
            .input(NullInput2)
            .mapper(NullMapper2)
            .set(keys::JOB_SIGNATURE, "x")
            .try_build()
            .err()
            .expect("a non-numeric signature must be rejected");
        match err {
            JobConfigError::BadConf(e) => {
                assert_eq!(e.key, keys::JOB_SIGNATURE);
                assert_eq!(e.value, "x");
            }
            other => panic!("expected BadConf, got {other:?}"),
        }
    }

    #[test]
    fn guardrail_knobs_land_in_conf_and_validate() {
        let spec = JobSpec::builder()
            .input(NullInput2)
            .mapper(NullMapper2)
            .provider_retry_budget(3)
            .max_idle_evaluations(16)
            .deadline(SimDuration::from_secs(30))
            .allow_partial(true)
            .build();
        assert_eq!(spec.conf.get(keys::PROVIDER_RETRY_BUDGET), Some("3"));
        assert_eq!(spec.conf.get(keys::MAX_IDLE_EVALUATIONS), Some("16"));
        assert_eq!(spec.conf.get(keys::JOB_DEADLINE_MS), Some("30000"));
        assert!(spec.conf.get_bool(keys::ALLOW_PARTIAL));

        assert_eq!(
            JobSpec::builder()
                .input(NullInput2)
                .mapper(NullMapper2)
                .deadline(SimDuration::ZERO)
                .try_build()
                .err(),
            Some(JobConfigError::ZeroDeadline)
        );
        assert!(matches!(
            JobSpec::builder()
                .input(NullInput2)
                .mapper(NullMapper2)
                .set(keys::PROVIDER_RETRY_BUDGET, "lots")
                .try_build(),
            Err(JobConfigError::BadConf(_))
        ));
        assert!(matches!(
            JobSpec::builder()
                .input(NullInput2)
                .mapper(NullMapper2)
                .set(keys::MAX_IDLE_EVALUATIONS, "-1")
                .try_build(),
            Err(JobConfigError::BadConf(_))
        ));
    }

    #[test]
    fn try_build_rejects_counts_wider_than_u32() {
        let build = |key: &str, value: u64| {
            JobSpec::builder()
                .input(NullInput2)
                .mapper(NullMapper2)
                .set(key, value)
                .try_build()
        };
        for key in [
            keys::NUM_REDUCE_TASKS,
            keys::PROVIDER_RETRY_BUDGET,
            keys::MAX_IDLE_EVALUATIONS,
        ] {
            match build(key, 1 << 32).err() {
                Some(JobConfigError::BadConf(e)) => {
                    assert_eq!(e.key, key);
                    assert_eq!(e.value, "4294967296");
                    assert_eq!(e.wanted, "u32");
                }
                other => panic!("{key}: expected BadConf, got {other:?}"),
            }
        }
        assert!(build(keys::MAX_IDLE_EVALUATIONS, u64::from(u32::MAX)).is_ok());
    }

    #[test]
    fn replication_knob_lands_in_conf_and_validates() {
        let spec = JobSpec::builder()
            .input(NullInput2)
            .mapper(NullMapper2)
            .replication(3)
            .build();
        assert_eq!(spec.conf.get(keys::DFS_REPLICATION), Some("3"));
        for bad in ["0", "-1", "300", "lots"] {
            let err = JobSpec::builder()
                .input(NullInput2)
                .mapper(NullMapper2)
                .set(keys::DFS_REPLICATION, bad)
                .try_build()
                .err()
                .expect("bad replication must be rejected");
            match err {
                JobConfigError::BadConf(e) => {
                    assert_eq!(e.key, keys::DFS_REPLICATION);
                    assert_eq!(e.value, bad);
                }
                other => panic!("expected BadConf, got {other:?}"),
            }
        }
    }

    #[test]
    fn provider_error_from_panic_extracts_string_payloads() {
        let p = std::panic::catch_unwind(|| panic!("boom")).unwrap_err();
        assert_eq!(
            ProviderError::from_panic(ProviderStage::Evaluate, p),
            ProviderError::Panicked {
                stage: ProviderStage::Evaluate,
                message: "boom".into()
            }
        );
        let p = std::panic::catch_unwind(|| panic!("{} {}", "formatted", 7)).unwrap_err();
        let e = ProviderError::from_panic(ProviderStage::InitialInput, p);
        assert!(e.to_string().contains("formatted 7"), "{e}");
        assert!(e.to_string().contains("initial_input"), "{e}");
        let p = std::panic::catch_unwind(|| std::panic::panic_any(17u32)).unwrap_err();
        let e = ProviderError::from_panic(ProviderStage::Evaluate, p);
        assert!(e.to_string().contains("<non-string panic payload>"), "{e}");
    }

    #[test]
    fn job_result_derivations() {
        let r = JobResult {
            job: JobId(1),
            submit_time: SimTime::from_secs(10),
            finish_time: SimTime::from_secs(70),
            splits_processed: 10,
            records_processed: 1000,
            map_output_records: 5,
            local_tasks: 7,
            task_failures: 0,
            failed: false,
            error: None,
            output: vec![],
            histograms: crate::obs::MetricsRegistry::new(),
            agg: None,
        };
        assert_eq!(r.response_time(), SimDuration::from_secs(60));
        assert!((r.locality() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn locality_of_empty_job_is_zero() {
        let r = JobResult {
            job: JobId(1),
            submit_time: SimTime::ZERO,
            finish_time: SimTime::ZERO,
            splits_processed: 0,
            records_processed: 0,
            map_output_records: 0,
            local_tasks: 0,
            task_failures: 0,
            failed: false,
            error: None,
            output: vec![],
            histograms: crate::obs::MetricsRegistry::new(),
            agg: None,
        };
        assert_eq!(r.locality(), 0.0);
    }

    #[test]
    fn ids_display() {
        assert_eq!(JobId(7).to_string(), "job_0007");
        assert_eq!(TaskId(12).to_string(), "m_000012");
    }
}
