//! # incmr-e2ebench
//!
//! The end-to-end benchmark: seeded HiveQL workloads driven through the
//! entry points users call — `Session::submit`/`QueryHandle::wait` and
//! `QueryService::submit`/`run_until` — with every answer checked against
//! an independent oracle ([`oracle`]), host and simulated metrics per
//! statement, and a traced replay that times each layer from outside
//! ([`trace`]). See `README.md` for the workloads, metrics and layer map.

pub mod oracle;
pub mod report;
pub mod run;
pub mod service;
pub mod session;
pub mod stats;
pub mod trace;
pub mod workload;

pub use run::{run, Metric, Options, Report};
pub use workload::{Sizes, Workload};
