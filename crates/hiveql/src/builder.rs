//! Typed session construction, mirroring `JobSpec::builder()`: collect
//! the runtime, catalog, policy file, scan and sample modes, and seed,
//! then validate everything at once in [`SessionBuilder::try_build`].

use std::fmt;
use std::sync::Arc;

use incmr_core::{PolicyFileError, SampleMode};
use incmr_data::Dataset;
use incmr_mapreduce::{MrRuntime, ScanMode};

use crate::catalog::Catalog;
use crate::session::{Session, SessionState};

/// Tenant identity and quota knobs a multi-tenant query service registers
/// per tenant (`QueryService::add_tenant`): its weighted fair share and
/// its admission-control caps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantProfile {
    /// Human-readable tenant name (also keys per-tenant metrics).
    pub name: String,
    /// Weighted-fair-share weight (≥ 1; higher = more dispatch slots).
    pub weight: u32,
    /// Maximum jobs this tenant may have running at once (≥ 1).
    pub max_in_flight: u32,
    /// Maximum statements waiting in this tenant's queue before the
    /// service rejects new submissions (≥ 1).
    pub queue_cap: u32,
}

impl Default for TenantProfile {
    fn default() -> Self {
        TenantProfile {
            name: "default".to_string(),
            weight: 1,
            max_in_flight: 4,
            queue_cap: 16,
        }
    }
}

/// Typed configuration failures from [`SessionBuilder::try_build`].
#[derive(Debug)]
pub enum SessionConfigError {
    /// No runtime was supplied.
    MissingRuntime,
    /// The policy-file text failed to parse.
    PolicyFile(PolicyFileError),
    /// `active_policy` named a policy absent from the registry.
    UnknownPolicy {
        /// The requested name.
        requested: String,
        /// Names that are registered.
        available: Vec<String>,
    },
}

impl fmt::Display for SessionConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionConfigError::MissingRuntime => {
                write!(f, "session builder needs a runtime (call .runtime(rt))")
            }
            SessionConfigError::PolicyFile(e) => write!(f, "policy file: {e}"),
            SessionConfigError::UnknownPolicy {
                requested,
                available,
            } => write!(
                f,
                "active policy {requested:?} is not registered; available: {}",
                available.join(", ")
            ),
        }
    }
}

impl std::error::Error for SessionConfigError {}

impl From<PolicyFileError> for SessionConfigError {
    fn from(e: PolicyFileError) -> Self {
        SessionConfigError::PolicyFile(e)
    }
}

/// Builder for [`Session`]; obtain one via [`Session::builder`].
#[derive(Default)]
pub struct SessionBuilder {
    runtime: Option<MrRuntime>,
    catalog: Catalog,
    policy_file: Option<String>,
    active_policy: Option<String>,
    scan_mode: Option<ScanMode>,
    sample_mode: Option<SampleMode>,
    seed: Option<u64>,
}

impl SessionBuilder {
    /// An empty builder (equivalent to [`Session::builder`]).
    pub fn new() -> Self {
        SessionBuilder::default()
    }

    /// The runtime the session drives. Required.
    pub fn runtime(mut self, runtime: MrRuntime) -> Self {
        self.runtime = Some(runtime);
        self
    }

    /// Replace the whole catalog.
    pub fn catalog(mut self, catalog: Catalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Register one table (may be called repeatedly).
    pub fn table(mut self, name: &str, dataset: Arc<Dataset>) -> Self {
        self.catalog.register(name, dataset);
        self
    }

    /// Replace the policy registry from a policy-file text (the
    /// `policy.xml` equivalent); parsed and validated in `try_build`.
    pub fn policy_file(mut self, text: &str) -> Self {
        self.policy_file = Some(text.to_string());
        self
    }

    /// Activate the named policy (validated against the registry in
    /// `try_build`).
    pub fn active_policy(mut self, name: &str) -> Self {
        self.active_policy = Some(name.to_string());
        self
    }

    /// Scan mode (default `Planted`).
    pub fn scan_mode(mut self, mode: ScanMode) -> Self {
        self.scan_mode = Some(mode);
        self
    }

    /// Sample-selection mode (default `FirstK`).
    pub fn sample_mode(mut self, mode: SampleMode) -> Self {
        self.sample_mode = Some(mode);
        self
    }

    /// Seed for the per-query RNG counter.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Validate the configuration and build the session.
    pub fn try_build(self) -> Result<Session, SessionConfigError> {
        let runtime = self.runtime.ok_or(SessionConfigError::MissingRuntime)?;
        let mut state = SessionState::new();
        if let Some(text) = &self.policy_file {
            state.load_policies(text)?;
        }
        if let Some(name) = &self.active_policy {
            state.set_active_policy(name).map_err(|e| match e {
                crate::SessionError::UnknownPolicy {
                    requested,
                    available,
                } => SessionConfigError::UnknownPolicy {
                    requested,
                    available,
                },
                other => unreachable!("set_active_policy only fails with UnknownPolicy: {other}"),
            })?;
        }
        if let Some(mode) = self.scan_mode {
            state.set_scan_mode(mode);
        }
        if let Some(mode) = self.sample_mode {
            state.set_sample_mode(mode);
        }
        if let Some(seed) = self.seed {
            state.set_seed(seed);
        }
        Ok(Session::from_parts(runtime, self.catalog, state))
    }

    /// Build, panicking on configuration errors (tests / examples).
    pub fn build(self) -> Session {
        self.try_build().expect("invalid session configuration")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incmr_data::{DatasetSpec, SkewLevel};
    use incmr_dfs::{ClusterTopology, EvenRoundRobin, Namespace};
    use incmr_mapreduce::{ClusterConfig, CostModel, FifoScheduler};
    use incmr_simkit::rng::DetRng;

    fn runtime() -> (MrRuntime, Arc<Dataset>) {
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let mut rng = DetRng::seed_from(3);
        let ds = Arc::new(Dataset::build(
            &mut ns,
            DatasetSpec::small("t", 4, 100, SkewLevel::High, 3),
            &mut EvenRoundRobin::new(),
            &mut rng,
        ));
        let rt = MrRuntime::new(
            ClusterConfig::paper_single_user(),
            CostModel::paper_default(),
            ns,
            Box::new(FifoScheduler::new()),
        );
        (rt, ds)
    }

    #[test]
    fn missing_runtime_is_a_typed_error() {
        let err = SessionBuilder::new().try_build().unwrap_err();
        assert!(matches!(err, SessionConfigError::MissingRuntime));
        assert!(err.to_string().contains("runtime"));
    }

    #[test]
    fn builder_wires_policy_file_and_active_policy() {
        let (rt, ds) = runtime();
        let s = Session::builder()
            .runtime(rt)
            .table("lineitem", ds)
            .policy_file(
                r#"<policies>
                     <policy name="a"><workThreshold>1</workThreshold><grabLimit>1</grabLimit></policy>
                     <policy name="b"><workThreshold>2</workThreshold><grabLimit>2</grabLimit></policy>
                   </policies>"#,
            )
            .active_policy("b")
            .try_build()
            .unwrap();
        assert_eq!(s.active_policy().name, "b");
        assert_eq!(s.catalog().table_names(), vec!["lineitem"]);
    }

    #[test]
    fn unknown_active_policy_is_rejected() {
        let (rt, _) = runtime();
        let err = Session::builder()
            .runtime(rt)
            .active_policy("nope")
            .try_build()
            .unwrap_err();
        let SessionConfigError::UnknownPolicy { available, .. } = err else {
            panic!()
        };
        assert!(available.contains(&"LA".into()));
    }

    #[test]
    fn bad_policy_file_is_rejected() {
        let (rt, _) = runtime();
        let err = Session::builder()
            .runtime(rt)
            .policy_file("<policies></policies>")
            .try_build()
            .unwrap_err();
        assert!(matches!(err, SessionConfigError::PolicyFile(_)));
    }
}
