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

use crate::approx::AggPlan;
use crate::cluster::ClusterStatus;
use crate::exec::{Combiner, IdentityReducer, InputFormat, Mapper, ReduceOutput, Reducer};

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

/// Everything needed to run a job: the typed settings the runtime acts
/// on and the user's black-box logic. Cloning is cheap (shared `Arc`s);
/// the `Arc`s make the spec `Send + Sync` so map work can run on the
/// data-plane worker pool.
///
/// Construct specs with [`JobSpec::builder`] rather than struct literals —
/// the builder defaults the settings and reducer and keeps call sites
/// stable as fields are added.
#[derive(Clone)]
pub struct JobSpec {
    /// What the runtime acts on: guard rails, standing query, memo
    /// identity and sample size.
    pub settings: JobSettings,
    /// Source of split contents.
    pub input_format: Arc<dyn InputFormat>,
    /// Map logic.
    pub mapper: Arc<dyn Mapper>,
    /// Optional map-side aggregation (Hadoop's combiner), applied to each
    /// map task's output on the data plane before the shuffle.
    pub combiner: Option<Arc<dyn Combiner>>,
    /// Reduce logic.
    pub reducer: Arc<dyn Reducer>,
    /// An aggregate job's plan: its split total and, under an error
    /// bound, the bound and estimated functions (`None` for other jobs).
    pub agg_plan: Option<AggPlan>,
}

impl JobSpec {
    /// Start building a job spec. Input format and mapper are mandatory;
    /// the settings default to [`JobSettings::default`], the combiner to
    /// none, and the reducer to [`IdentityReducer`].
    pub fn builder() -> JobSpecBuilder {
        JobSpecBuilder {
            settings: JobSettings::default(),
            input_format: None,
            mapper: None,
            combiner: None,
            reducer: Arc::new(IdentityReducer),
            agg_plan: None,
        }
    }
}

/// Builder for [`JobSpec`] (see [`JobSpec::builder`]).
pub struct JobSpecBuilder {
    settings: JobSettings,
    input_format: Option<Arc<dyn InputFormat>>,
    mapper: Option<Arc<dyn Mapper>>,
    combiner: Option<Arc<dyn Combiner>>,
    reducer: Arc<dyn Reducer>,
    agg_plan: Option<AggPlan>,
}

impl JobSpecBuilder {
    /// Source of split contents (mandatory).
    pub fn input(mut self, input_format: impl InputFormat + 'static) -> Self {
        self.input_format = Some(Arc::new(input_format));
        self
    }

    /// Map logic (mandatory).
    pub fn mapper(mut self, mapper: impl Mapper + 'static) -> Self {
        self.mapper = Some(Arc::new(mapper));
        self
    }

    /// Map-side combiner (defaults to none).
    pub fn combiner(mut self, combiner: impl Combiner + 'static) -> Self {
        self.combiner = Some(Arc::new(combiner));
        self
    }

    /// Reduce logic (defaults to [`IdentityReducer`]).
    pub fn reducer(mut self, reducer: impl Reducer + 'static) -> Self {
        self.reducer = Arc::new(reducer);
        self
    }

    /// How many recoverable Input Provider failures (caught panics,
    /// invalid directives) the job absorbs before failing — each one is
    /// treated as a `Wait` and the provider is re-consulted at the next
    /// evaluation (sets [`JobSettings::provider_retry_budget`]).
    pub fn provider_retry_budget(mut self, retries: u32) -> Self {
        self.settings.provider_retry_budget = retries;
        self
    }

    /// Livelock watchdog threshold (sets
    /// [`JobSettings::max_idle_evaluations`]).
    pub fn max_idle_evaluations(mut self, evaluations: u32) -> Self {
        self.settings.max_idle_evaluations = evaluations;
        self
    }

    /// Simulated-time deadline, measured from submission. On expiry the
    /// job fails with `JobError::DeadlineExceeded`, or degrades to its
    /// partial output under [`JobSpecBuilder::allow_partial`] (sets
    /// [`JobSettings::deadline`]; must be nonzero).
    pub fn deadline(mut self, deadline: SimDuration) -> Self {
        self.settings.deadline = Some(deadline);
        self
    }

    /// On deadline expiry, stop growing, abandon unstarted splits, and
    /// complete with the output gathered so far instead of failing (sets
    /// [`JobSettings::allow_partial`]).
    pub fn allow_partial(mut self, allow: bool) -> Self {
        self.settings.allow_partial = allow;
        self
    }

    /// Make this an aggregate job: its result reports an `AggReport`
    /// over `plan.total_splits`, and a plan with a bound grows the job
    /// only until the bound holds for every group and aggregate (see
    /// `check_settings` for what the plan must satisfy).
    pub fn agg_plan(mut self, plan: AggPlan) -> Self {
        self.agg_plan = Some(plan);
        self
    }

    /// Finish building, returning a typed error for incomplete or
    /// malformed specs: a missing input format or mapper, or any setting
    /// or aggregate plan [`MrRuntime::try_submit`] would reject (see
    /// `check_settings`).
    ///
    /// [`MrRuntime::try_submit`]: crate::MrRuntime::try_submit
    pub fn try_build(self) -> Result<JobSpec, JobConfigError> {
        check_settings(&self.settings, self.agg_plan.as_ref())?;
        Ok(JobSpec {
            settings: self.settings,
            input_format: self.input_format.ok_or(JobConfigError::MissingInput)?,
            mapper: self.mapper.ok_or(JobConfigError::MissingMapper)?,
            combiner: self.combiner,
            reducer: self.reducer,
            agg_plan: self.agg_plan,
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

/// The values the runtime acts on for one job, typed. The
/// [`JobSpecBuilder`] methods fill them; a caller may also set a field on
/// a built spec before submitting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSettings {
    /// Recoverable Input Provider failures the job absorbs before it
    /// fails (default 0 — fail on the first fault).
    pub provider_retry_budget: u32,
    /// Livelock watchdog threshold: consecutive unproductive driver
    /// evaluations (no new splits, nothing running or pending) before the
    /// job fails as wedged. `0` disables the watchdog; the default is
    /// [`DEFAULT_MAX_IDLE_EVALUATIONS`](crate::DEFAULT_MAX_IDLE_EVALUATIONS).
    pub max_idle_evaluations: u32,
    /// Simulated-time deadline for the whole job, from submission (`None`
    /// = no deadline; a zero deadline is rejected).
    pub deadline: Option<SimDuration>,
    /// On deadline expiry or lost input, complete with the output
    /// gathered so far instead of failing.
    pub allow_partial: bool,
    /// Run this dynamic job as a standing query: instead of declaring
    /// end-of-input when the provider's pool drains, the job parks and is
    /// woken when new blocks arrive through `MrRuntime::evolve`.
    pub continuous: bool,
    /// Memoization plane: stable identity of the job's computation
    /// (mapper, predicate, projection, `k` — not the submission). Jobs
    /// sharing a signature share memoized per-split map output, so two
    /// jobs whose map output differs must not share one. `None` (the
    /// default) keeps the job out of the memo plane: it neither reads nor
    /// writes cached output.
    pub signature: Option<u64>,
    /// A sampling job's requested sample size `k`. A completed job with
    /// fewer rows is traced and counted as a partial sample.
    pub sample_k: Option<u64>,
}

impl Default for JobSettings {
    fn default() -> Self {
        JobSettings {
            provider_retry_budget: 0,
            max_idle_evaluations: crate::runtime::DEFAULT_MAX_IDLE_EVALUATIONS,
            deadline: None,
            allow_partial: false,
            continuous: false,
            signature: None,
            sample_k: None,
        }
    }
}

/// The one check behind both [`JobSpecBuilder::try_build`] and
/// `MrRuntime::try_submit`: rejects a zero deadline, and an aggregate
/// plan with a zero split total or, under a bound, an error or
/// confidence outside (0, 1) or no functions.
pub(crate) fn check_settings(
    settings: &JobSettings,
    agg_plan: Option<&AggPlan>,
) -> Result<(), JobConfigError> {
    if settings.deadline == Some(SimDuration::ZERO) {
        return Err(JobConfigError::ZeroDeadline);
    }
    if let Some(plan) = agg_plan {
        let bad_plan = JobConfigError::BadAggPlan;
        let open_unit = |v: f64| v > 0.0 && v < 1.0;
        if plan.total_splits == 0 {
            return Err(bad_plan("split total must be nonzero"));
        }
        if let Some(bound) = plan.bound {
            if !open_unit(bound.error) {
                return Err(bad_plan("error must be strictly between 0 and 1"));
            }
            if !open_unit(bound.confidence) {
                return Err(bad_plan("confidence must be strictly between 0 and 1"));
            }
            if plan.funcs.is_empty() {
                return Err(bad_plan("a bound needs at least one COUNT, SUM or AVG"));
            }
        }
    }
    Ok(())
}

/// A rejected job spec: what was missing or malformed at build time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobConfigError {
    /// No input format was supplied.
    MissingInput,
    /// No mapper was supplied.
    MissingMapper,
    /// A deadline of zero milliseconds was requested — it would expire at
    /// submission; leave it `None` to mean "no deadline".
    ZeroDeadline,
    /// The aggregate plan cannot run; says which rule it breaks.
    BadAggPlan(&'static str),
}

impl fmt::Display for JobConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobConfigError::MissingInput => write!(f, "job spec has no input format"),
            JobConfigError::MissingMapper => write!(f, "job spec has no mapper"),
            JobConfigError::ZeroDeadline => {
                write!(f, "job deadline must be nonzero (leave it unset for none)")
            }
            JobConfigError::BadAggPlan(rule) => write!(f, "invalid aggregate plan: {rule}"),
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
    /// [`JobSettings::allow_partial`].
    DeadlineExceeded,
    /// A map task exhausted its attempt budget.
    TaskAttemptsExhausted {
        /// The failing task.
        task: TaskId,
    },
    /// The job's reduce task exhausted its attempt budget.
    ReduceAttemptsExhausted,
    /// Every node in the cluster is blacklisted for this job.
    AllNodesBlacklisted,
    /// Under DataNode-death semantics every replica of one or more of the
    /// job's input blocks was lost, and the job does not allow a partial
    /// result ([`JobSettings::allow_partial`]).
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
            JobError::ReduceAttemptsExhausted => {
                write!(f, "the reduce task exhausted its attempts")
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
    /// The reduce task's output.
    pub output: ReduceOutput,
    /// This job's latency histograms (always collected). Merging these
    /// across jobs reproduces the runtime-wide registry exactly. A
    /// collected job's registry has moved out with its output
    /// (`MrRuntime::take_job_output`), leaving this one empty.
    pub histograms: crate::obs::MetricsRegistry,
    /// For aggregate jobs (a spec with an [`AggPlan`]): how the estimator
    /// classified the finish — bound met early, growth budget exhausted,
    /// or exact full scan. `None` for ordinary jobs and failed jobs.
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
    use crate::exec::Key;
    use incmr_data::Record;
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
            .provider_retry_budget(3)
            .build();
        assert_eq!(
            spec.settings,
            JobSettings {
                provider_retry_budget: 3,
                ..JobSettings::default()
            }
        );
        assert_eq!(
            JobSettings::default().max_idle_evaluations,
            crate::runtime::DEFAULT_MAX_IDLE_EVALUATIONS,
            "the one default that is not zero, false or None"
        );
        // Default reducer is the identity; default combiner is none.
        let mut out = Vec::new();
        spec.reducer.reduce(&Key::from("k"), &[], &mut out);
        assert!(out.is_empty());
        assert!(spec.combiner.is_none());
    }

    /// The builder records the combiner (Hadoop's combiner class) on the
    /// spec.
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

    /// `try_build` and `MrRuntime::try_submit` share the plan check:
    /// each invalid plan gets the same typed error from both.
    #[test]
    fn try_build_and_try_submit_reject_invalid_agg_plans() {
        use crate::approx::{AggKind, ErrorBound};
        let plan = |error: f64, confidence: f64| AggPlan {
            total_splits: 8,
            bound: Some(ErrorBound { error, confidence }),
            funcs: vec![AggKind::Sum],
        };
        let mut invalid = Vec::new();
        for v in [0.0, 1.0, f64::NAN] {
            invalid.push((plan(v, 0.95), "error must be strictly between 0 and 1"));
            invalid.push((plan(0.05, v), "confidence must be strictly between 0 and 1"));
        }
        invalid.push((
            AggPlan {
                total_splits: 0,
                ..plan(0.05, 0.95)
            },
            "split total must be nonzero",
        ));
        invalid.push((
            AggPlan {
                funcs: Vec::new(),
                ..plan(0.05, 0.95)
            },
            "a bound needs at least one COUNT, SUM or AVG",
        ));
        let builder = || JobSpec::builder().input(NullInput2).mapper(NullMapper2);
        let mut rt = crate::MrRuntime::new(
            crate::ClusterConfig::paper_single_user(),
            crate::CostModel::paper_default(),
            incmr_dfs::Namespace::new(incmr_dfs::ClusterTopology::paper_cluster()),
            Box::new(crate::FifoScheduler::new()),
        );
        for (bad, rule) in invalid {
            let want = Some(JobConfigError::BadAggPlan(rule));
            assert_eq!(
                builder().agg_plan(bad.clone()).try_build().err(),
                want,
                "{bad:?}"
            );
            let mut spec = builder().build();
            spec.agg_plan = Some(bad.clone());
            let driver = Box::new(StaticDriver::new(Vec::new()));
            assert_eq!(rt.try_submit(spec, driver).err(), want, "{bad:?}");
        }
        let exact = AggPlan {
            bound: None,
            funcs: Vec::new(),
            ..plan(0.05, 0.95)
        };
        for good in [plan(0.05, 0.95), exact] {
            let spec = builder()
                .agg_plan(good)
                .try_build()
                .expect("a valid plan builds");
            let driver = Box::new(StaticDriver::new(Vec::new()));
            assert!(rt.try_submit(spec, driver).is_ok());
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
        assert_eq!(spec.settings.provider_retry_budget, 3);
        assert_eq!(spec.settings.max_idle_evaluations, 16);
        assert_eq!(spec.settings.deadline, Some(SimDuration::from_secs(30)));
        assert!(spec.settings.allow_partial);

        // `try_build` and `MrRuntime::try_submit` share the check: a zero
        // deadline is rejected by both.
        let builder = || JobSpec::builder().input(NullInput2).mapper(NullMapper2);
        assert_eq!(
            builder().deadline(SimDuration::ZERO).try_build().err(),
            Some(JobConfigError::ZeroDeadline)
        );
        let mut rt = crate::MrRuntime::new(
            crate::ClusterConfig::paper_single_user(),
            crate::CostModel::paper_default(),
            incmr_dfs::Namespace::new(incmr_dfs::ClusterTopology::paper_cluster()),
            Box::new(crate::FifoScheduler::new()),
        );
        let mut spec = builder().build();
        spec.settings.deadline = Some(SimDuration::ZERO);
        let driver = Box::new(StaticDriver::new(Vec::new()));
        assert_eq!(
            rt.try_submit(spec, driver).err(),
            Some(JobConfigError::ZeroDeadline)
        );
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
            output: ReduceOutput::default(),
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
            output: ReduceOutput::default(),
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
