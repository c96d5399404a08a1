//! Non-blocking query submission: [`QueryHandle`] names a submitted job
//! and can be polled or awaited; [`QueryResult`] is the typed completion
//! record, carrying the [`SampleOutcome`] and per-query latency
//! histograms instead of the monolithic blocking `QueryOutput`.

use incmr_core::SampleOutcome;
use incmr_data::{Record, Value};
use incmr_mapreduce::{AggKind, AggReport, JobError, JobId, MetricsRegistry, MrRuntime};
use incmr_simkit::{SimDuration, SimTime};

use crate::session::{QueryOutput, Session};

/// What [`Session::submit`](crate::Session::submit) produced.
#[derive(Debug)]
pub enum Submitted {
    /// A `SELECT` entered the job queue; poll or await the handle.
    Pending(QueryHandle),
    /// The statement completed immediately (`SET` / `SHOW` / `EXPLAIN`).
    Done(QueryOutput),
}

/// A submitted query: a typed name for an in-flight job. Collecting the
/// result consumes the handle, so a job's rows are handed out once.
#[derive(Debug, PartialEq, Eq)]
pub struct QueryHandle {
    job: JobId,
    requested_k: Option<u64>,
    submitted_at: SimTime,
}

impl QueryHandle {
    pub(crate) fn new(job: JobId, requested_k: Option<u64>, submitted_at: SimTime) -> Self {
        QueryHandle {
            job,
            requested_k,
            submitted_at,
        }
    }

    /// The underlying job.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// The requested sample size `k` (dynamic sampling plans only).
    pub fn requested_k(&self) -> Option<u64> {
        self.requested_k
    }

    /// Simulated time at submission.
    pub fn submitted_at(&self) -> SimTime {
        self.submitted_at
    }

    /// Whether the job has completed (does not advance the runtime).
    pub fn poll(&self, session: &Session) -> bool {
        session.job_is_complete(self.job)
    }

    /// The result, if the job has completed (does not advance the
    /// runtime); otherwise the handle comes back to poll again.
    pub fn try_result(self, session: &mut Session) -> Result<QueryResult, QueryHandle> {
        if !self.poll(session) {
            return Err(self);
        }
        Ok(collect_result(
            session.runtime_mut(),
            self.job,
            self.requested_k,
        ))
    }

    /// Drive the runtime until this job completes and collect its
    /// result (the awaiting shape of the API).
    pub fn wait(self, session: &mut Session) -> QueryResult {
        session.drive_to_completion(self)
    }
}

/// Typed completion record for one query.
#[derive(Debug)]
pub struct QueryResult {
    /// The completed job.
    pub job: JobId,
    /// Result rows (values only; the dummy key is dropped).
    pub rows: Vec<Record>,
    /// Input partitions actually processed.
    pub splits_processed: u32,
    /// Records scanned across all map tasks.
    pub records_processed: u64,
    /// Map tasks that read their split from a local disk.
    pub local_tasks: u32,
    /// Submission-to-completion latency in simulated time.
    pub response_time: SimDuration,
    /// Whether the requested sample size was reached (`None` for
    /// non-sampling plans and failed jobs).
    pub outcome: Option<SampleOutcome>,
    /// For aggregate plans: how the estimator classified the finish
    /// (bound met / budget exhausted / exact) plus the coverage counters.
    /// `None` for non-aggregate plans and failed jobs.
    pub agg: Option<AggReport>,
    /// This query's latency histograms (mergeable across queries).
    pub histograms: MetricsRegistry,
    /// True if the job was aborted.
    pub failed: bool,
    /// Why the job was aborted (`None` for completed jobs, including
    /// partial samples).
    pub error: Option<JobError>,
}

/// Build a [`QueryResult`] from a completed job, moving its row vector
/// and histograms out of the runtime ([`MrRuntime::take_job_output`]):
/// collect each job once. Shared by [`QueryHandle`] and the multi-tenant
/// query service (which drives its own runtime).
pub fn collect_result(
    runtime: &mut MrRuntime,
    job: JobId,
    requested_k: Option<u64>,
) -> QueryResult {
    let (output, histograms) = runtime.take_job_output(job);
    let result = runtime.job_result(job);
    let outcome = requested_k
        .filter(|_| !result.failed)
        .map(|requested| SampleOutcome::classify(output.len() as u64, requested));
    let mut rows = output.into_rows();
    // Aggregate estimates cover only the sampled splits: expand SUM/COUNT
    // by the report's M/m scale (AVG is a ratio estimate and is already
    // unbiased). Exact finishes have scale 1.0, so this is a no-op there.
    if let (Some(report), Some(plan)) = (&result.agg, &runtime.job_spec(job).agg_plan) {
        scale_estimates(&mut rows, report, &plan.funcs);
    }
    QueryResult {
        job,
        rows,
        splits_processed: result.splits_processed,
        records_processed: result.records_processed,
        local_tasks: result.local_tasks,
        response_time: result.response_time(),
        outcome,
        agg: result.agg,
        histograms,
        failed: result.failed,
        error: result.error.clone(),
    }
}

/// Expand sampled aggregate rows to whole-table estimates: SUM scales by
/// `M/m`, COUNT scales and rounds back to an integer, AVG stays as-is.
/// Grouped rows lead with the group value; the offset is inferred from
/// the row arity against the aggregate list.
fn scale_estimates(rows: &mut [Record], report: &AggReport, funcs: &[AggKind]) {
    let scale = report.scale();
    if scale == 1.0 {
        return;
    }
    for row in rows.iter_mut() {
        let offset = row.arity().saturating_sub(funcs.len());
        let values: Vec<Value> = row
            .values()
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let scaled = i
                    .checked_sub(offset)
                    .and_then(|j| funcs.get(j))
                    .map(|f| matches!(f, AggKind::Count | AggKind::Sum))
                    .unwrap_or(false);
                match (scaled, v) {
                    (true, Value::Float(x)) => Value::Float(x * scale),
                    (true, Value::Int(x)) => Value::Int((*x as f64 * scale).round() as i64),
                    _ => v.clone(),
                }
            })
            .collect();
        *row = Record::new(values);
    }
}
