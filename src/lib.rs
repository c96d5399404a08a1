//! # incmr — Incremental Map-Reduce for Efficient Predicate-Based Sampling
//!
//! A from-scratch Rust reproduction of *"Extending Map-Reduce for Efficient
//! Predicate-Based Sampling"* (Grover & Carey, ICDE 2012): a MapReduce
//! execution model in which a job consumes input **incrementally**, guided
//! by a job-supplied **Input Provider** and a configurable growth
//! **policy**, so that a `SELECT … WHERE p LIMIT k` sampling query's cost
//! depends on `k` — not on the size of the dataset.
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`simkit`] — deterministic discrete-event simulation kernel;
//! * [`dfs`] — simulated distributed filesystem (blocks, placement,
//!   locality);
//! * [`data`] — TPC-H LINEITEM-style datasets with Zipf-planted matches;
//! * [`mapreduce`] — the MapReduce framework (jobs, slots, FIFO/Fair
//!   schedulers, cost model, metrics, and the observability plane: trace
//!   export, latency histograms, decision audit, timeline rendering);
//! * [`core`] — the paper's contribution (Input Provider, policies,
//!   selectivity estimation, sampling operators);
//! * [`hiveql`] — a mini HiveQL front end compiling to dynamic jobs;
//! * [`workload`] — closed-loop multi-user workload generation;
//! * [`experiments`] — regenerators for every table and figure of the
//!   paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use incmr::prelude::*;
//!
//! // A small LINEITEM-style dataset on a simulated 10-node cluster.
//! let mut ns = Namespace::new(ClusterTopology::paper_cluster());
//! let mut rng = DetRng::seed_from(7);
//! let spec = DatasetSpec::small("lineitem", 20, 5_000, SkewLevel::Moderate, 7);
//! let dataset = Arc::new(Dataset::build(&mut ns, spec, &mut EvenRoundRobin::new(), &mut rng));
//!
//! // A cluster runtime and a dynamic sampling job under the LA policy.
//! let mut rt = MrRuntime::new(
//!     ClusterConfig::paper_single_user(),
//!     CostModel::paper_default(),
//!     ns,
//!     Box::new(FifoScheduler::new()),
//! );
//! let (job, driver) = build_sampling_job(
//!     &dataset, 25, Policy::la(), ScanMode::Planted, SampleMode::FirstK, 1,
//! );
//! let id = rt.submit(job, driver);
//! rt.run_until_idle();
//!
//! let result = rt.job_result(id);
//! assert_eq!(result.output.len(), 25); // exactly k sampled records
//! assert!(result.splits_processed < 20); // without scanning everything
//! ```

pub use incmr_core as core;
pub use incmr_data as data;
pub use incmr_dfs as dfs;
pub use incmr_experiments as experiments;
pub use incmr_hiveql as hiveql;
pub use incmr_mapreduce as mapreduce;
pub use incmr_service as service;
pub use incmr_simkit as simkit;
pub use incmr_workload as workload;

/// The most common imports, for examples and downstream users.
pub mod prelude {
    pub use incmr_core::{
        build_sampling_job, build_sampling_job_with, build_scan_job, sample_outcome, DynamicDriver,
        GrabLimit, InputProvider, InputResponse, Policy, SampleMode, SampleOutcome,
        SamplingInputProvider, SamplingMapper, SamplingReducer,
    };
    pub use incmr_data::{Dataset, DatasetSpec, Predicate, Record, SkewLevel, Value};
    pub use incmr_dfs::{BlockId, ClusterTopology, EvenRoundRobin, Namespace, NodeId};
    pub use incmr_hiveql::{
        Catalog, QueryHandle, QueryOutput, QueryResult, Session, SessionBuilder, SessionState,
        Submitted, TenantProfile,
    };
    pub use incmr_mapreduce::{
        audited_splits_added, encode_trace, parse_trace, render_audit, render_swimlanes,
        AuditDirective, AuditRecord, ClusterConfig, ClusterStatus, Combiner, CostModel,
        EvalContext, FairScheduler, FifoScheduler, JobError, JobId, JobResult, JobSpec, Key,
        MetricsRegistry, MrRuntime, Parallelism, ProviderError, ScanMode, TraceEvent, TraceKind,
    };
    pub use incmr_service::{
        QueryService, ServiceConfig, ServiceError, ServiceReply, TenantId, Ticket,
    };
    pub use incmr_simkit::rng::DetRng;
    pub use incmr_simkit::{SimDuration, SimTime};
    pub use incmr_workload::{run_workload, WorkloadSpec};
}
