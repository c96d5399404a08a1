//! # incmr-core
//!
//! The paper's primary contribution, as a library: **incremental job
//! expansion for MapReduce**, applied to efficient predicate-based
//! sampling (Grover & Carey, ICDE 2012).
//!
//! The pieces map one-to-one onto the paper:
//!
//! * [`input_provider::InputProvider`] — the pluggable, client-side logic
//!   that decides a dynamic job's intake of input (Section III-A), with the
//!   three responses of Figure 3 (`EndOfInput` / `InputAvailable` /
//!   `NoInputAvailable`);
//! * [`policy::Policy`] — EvaluationInterval, WorkThreshold, and GrabLimit
//!   (Section III-B), with the five built-ins of Table I (`Hadoop`, `HA`,
//!   `MA`, `LA`, `C`) and a small expression language for grab limits;
//! * [`policy_file`] — a `policy.xml`-style registry so deployments can
//!   define their own policies (Section IV);
//! * [`estimator`] — runtime selectivity and records-per-split estimation
//!   (Section IV's "expected output from pending map tasks" arithmetic);
//! * [`sampling_provider::SamplingInputProvider`] — the Input Provider for
//!   predicate-based sampling;
//! * [`continuous::ContinuousSampling`] — its standing-query variant:
//!   instead of ending input when the pool drains short of `k`, the job
//!   parks and is re-awoken when new blocks land (`MrRuntime::evolve`);
//! * [`dynamic_driver::DynamicDriver`] — the JobClient-side evaluation loop
//!   that gates provider invocations by the work threshold and caps intake
//!   by the grab limit, optionally re-selecting its policy from a ladder
//!   as cluster load changes (the paper's future work);
//! * [`sampling`] — Algorithms 1 and 2 (the sampling mapper and reducer,
//!   plus the footnote's reservoir-sampling "random k" variant);
//! * [`scan`] — the select-project mapper used by the *Non-Sampling* job
//!   class in the heterogeneous-workload experiments;
//! * [`sampling_job`] — convenience assembly of a complete dynamic
//!   sampling job from a dataset, a policy, and `k`.

pub mod continuous;
pub mod dynamic_driver;
pub mod estimating_provider;
pub mod estimator;
pub mod input_provider;
pub mod policy;
pub mod policy_file;
pub mod sampling;
pub mod sampling_job;
pub mod sampling_provider;
pub mod scan;

pub use continuous::ContinuousSampling;
pub use dynamic_driver::{AdaptiveThresholds, DynamicDriver};
pub use estimating_provider::{EstimatingInputProvider, INITIAL_AGG_SPLITS};
pub use estimator::{ProgressEstimate, SelectivityEstimator};
pub use input_provider::{InputProvider, InputResponse};
pub use policy::{GrabLimit, Policy};
pub use policy_file::{parse_policy_file, PolicyFileError};
pub use sampling::{SampleCombiner, SampleMode, SamplingMapper, SamplingReducer, DUMMY_KEY};
pub use sampling_job::{
    build_adaptive_sampling_job, build_sampling_job, build_sampling_job_with, build_scan_job,
    sample_outcome, SampleOutcome,
};
pub use sampling_provider::SamplingInputProvider;
pub use scan::ScanMapper;
