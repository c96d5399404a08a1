//! An interactive-style session: the moral equivalent of the Hive CLI in
//! the paper's deployment.
//!
//! "Hive does allow setting of configuration parameters explicitly from the
//! command line interface. The end-user is currently required to choose
//! amongst the configured policies (which are listed in the policy.xml
//! file) by setting the dynamic.job.policy parameter accordingly."
//!
//! ```text
//! SET dynamic.job.policy = LA;
//! SELECT L_ORDERKEY FROM LINEITEM WHERE L_TAX = 0.77 LIMIT 10000;
//! ```
//!
//! Two layers live here:
//!
//! * [`SessionState`] — per-client settings (policy registry, active
//!   policy, scan/sample mode, seed counter) plus statement preparation.
//!   It owns **no runtime**, so a multi-tenant service can keep one state
//!   per tenant over a single shared cluster.
//! * [`Session`] — a state bound to its own [`MrRuntime`] and catalog:
//!   the single-user CLI shape. Build one with [`Session::builder`];
//!   submit with [`Session::submit`] (non-blocking, returns a
//!   [`QueryHandle`]) or [`Session::execute`]
//!   (blocking shim).

use std::fmt;

use incmr_core::{parse_policy_file, Policy, SampleMode};
use incmr_data::Record;
use incmr_mapreduce::{JobError, JobId, MrRuntime, ScanMode};
use incmr_simkit::SimDuration;

use crate::ast::{ShowKind, Statement};
use crate::builder::SessionBuilder;
use crate::catalog::Catalog;
use crate::compile::{compile_query, CompileError, CompiledQuery};
use crate::handle::{collect_result, QueryHandle, Submitted};
use crate::parser::{parse, ParseError};

/// Errors surfaced to the session user.
#[derive(Debug)]
pub enum SessionError {
    /// Syntax error.
    Parse(ParseError),
    /// Semantic/compilation error.
    Compile(CompileError),
    /// `SET dynamic.job.policy` named an unregistered policy.
    UnknownPolicy {
        /// The requested name.
        requested: String,
        /// Names that are registered.
        available: Vec<String>,
    },
    /// `SET` named a key no session reads; nothing changed.
    UnknownSetting {
        /// The key as written.
        key: String,
    },
    /// `SET mapred.agg.rounds` had a malformed or zero value.
    BadAggRounds {
        /// The rejected value.
        value: String,
    },
    /// The statement's job was aborted ([`Session::execute`] only; a
    /// [`QueryHandle`] reports it as `QueryResult::failed`).
    Job(JobError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Parse(e) => write!(f, "{e}"),
            SessionError::Compile(e) => write!(f, "{e}"),
            SessionError::UnknownPolicy {
                requested,
                available,
            } => {
                write!(
                    f,
                    "unknown policy {requested:?}; available: {}",
                    available.join(", ")
                )
            }
            SessionError::UnknownSetting { key } => {
                let settable: Vec<&str> = SETTABLE.iter().map(|(k, _)| *k).collect();
                write!(
                    f,
                    "unknown setting {key:?}; SET accepts {}",
                    settable.join(", ")
                )
            }
            SessionError::BadAggRounds { value } => {
                write!(
                    f,
                    "mapred.agg.rounds must be a positive integer, got {value:?}"
                )
            }
            SessionError::Job(e) => write!(f, "job failed: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ParseError> for SessionError {
    fn from(e: ParseError) -> Self {
        SessionError::Parse(e)
    }
}

impl From<CompileError> for SessionError {
    fn from(e: CompileError) -> Self {
        SessionError::Compile(e)
    }
}

/// The outcome of executing one statement.
#[derive(Debug)]
pub enum QueryOutput {
    /// A query ran to completion.
    Rows {
        /// The completed job.
        job: JobId,
        /// Result rows (values only; the dummy key is dropped).
        rows: Vec<Record>,
        /// Input partitions actually processed.
        splits_processed: u32,
        /// Records scanned across all map tasks.
        records_processed: u64,
        /// Submission-to-completion latency in simulated time.
        response_time: SimDuration,
    },
    /// `EXPLAIN` output.
    Explained(String),
    /// `SHOW …` output: one line per item.
    Listing(Vec<String>),
    /// A `SET` was applied.
    SetOk {
        /// The key.
        key: String,
        /// The value.
        value: String,
    },
}

/// What a prepared statement turned into: a job that still needs runtime
/// submission, or an answer computed locally from session state.
#[derive(Debug)]
pub enum Prepared {
    /// A `SELECT` compiled to a submit-ready job (boxed: a job spec is
    /// several times the size of an immediate answer).
    Submit(Box<CompiledQuery>),
    /// `SET` / `SHOW` / `EXPLAIN` completed against the session state.
    Immediate(QueryOutput),
}

/// The session's policy key (paper Section IV): which registered policy
/// the next dynamic job runs under.
const DYNAMIC_JOB_POLICY: &str = "dynamic.job.policy";

/// The session's growth-round budget key for error-bounded plans: how
/// many times the estimating Input Provider may draw another batch of
/// splits before it stops with `BudgetExhausted`. Must be ≥ 1.
const AGG_ROUNDS: &str = "mapred.agg.rounds";

/// Applies one `SET` value to the state, or rejects it unchanged.
type Setter = fn(&mut SessionState, &str) -> Result<(), SessionError>;

/// The keys `SET` accepts — the only two a session reads — in lower
/// case, each with how it applies a value.
const SETTABLE: [(&str, Setter); 2] = [
    (DYNAMIC_JOB_POLICY, SessionState::set_active_policy),
    (AGG_ROUNDS, SessionState::set_agg_rounds),
];

/// Per-client session settings, independent of any runtime: policy
/// registry, active policy, scan/sample mode, the growth-round budget of
/// error-bounded plans, and the seed counter that differentiates
/// successive sampling jobs. `SET` changes only the active policy
/// (`dynamic.job.policy`) and the round budget (`mapred.agg.rounds`); it
/// rejects every other key.
///
/// A [`Session`] owns one; a multi-tenant query service owns one **per
/// tenant** over a single shared runtime.
#[derive(Debug, Clone)]
pub struct SessionState {
    policies: Vec<Policy>,
    policy: Policy,
    scan_mode: ScanMode,
    sample_mode: SampleMode,
    agg_rounds: u64,
    next_seed: u64,
}

impl Default for SessionState {
    fn default() -> Self {
        SessionState::new()
    }
}

impl SessionState {
    /// Fresh state: the built-in Table I policies registered, `LA` (the
    /// paper's best all-rounder) active, planted scan mode.
    pub fn new() -> Self {
        SessionState {
            policies: Policy::table1(),
            policy: Policy::la(),
            scan_mode: ScanMode::Planted,
            sample_mode: SampleMode::FirstK,
            agg_rounds: incmr_mapreduce::DEFAULT_AGG_ROUNDS,
            next_seed: 0x5E55_10F1,
        }
    }

    /// Replace the policy registry from a policy-file text (the
    /// `policy.xml` equivalent). The active policy is reset to the first
    /// entry.
    pub fn load_policies(&mut self, file_text: &str) -> Result<(), incmr_core::PolicyFileError> {
        let policies = parse_policy_file(file_text)?;
        self.policy = policies[0].clone();
        self.policies = policies;
        Ok(())
    }

    /// Activate a registered policy by name.
    pub fn set_active_policy(&mut self, name: &str) -> Result<(), SessionError> {
        match self.policies.iter().find(|p| p.name == name).cloned() {
            Some(p) => {
                self.policy = p;
                Ok(())
            }
            None => Err(SessionError::UnknownPolicy {
                requested: name.to_string(),
                available: self.policies.iter().map(|p| p.name.clone()).collect(),
            }),
        }
    }

    /// The currently active policy.
    pub fn active_policy(&self) -> &Policy {
        &self.policy
    }

    /// Set the scan mode (`Planted` = experiment predicates only, `Full`
    /// = materialise records, arbitrary predicates).
    pub fn set_scan_mode(&mut self, mode: ScanMode) {
        self.scan_mode = mode;
    }

    /// Set the sample-selection mode.
    pub fn set_sample_mode(&mut self, mode: SampleMode) {
        self.sample_mode = mode;
    }

    /// Seed the per-query RNG counter (each `SELECT` increments it).
    pub fn set_seed(&mut self, seed: u64) {
        self.next_seed = seed;
    }

    /// The growth-round budget error-bounded aggregate plans compile
    /// with: `SET mapred.agg.rounds` (validated at SET time), or the
    /// framework default.
    pub fn agg_rounds(&self) -> u64 {
        self.agg_rounds
    }

    /// `SET mapred.agg.rounds`: a positive integer, else `BadAggRounds`.
    fn set_agg_rounds(&mut self, value: &str) -> Result<(), SessionError> {
        match value.parse() {
            Ok(rounds) if rounds > 0 => {
                self.agg_rounds = rounds;
                Ok(())
            }
            _ => Err(SessionError::BadAggRounds {
                value: value.to_string(),
            }),
        }
    }

    /// Prepare one statement against a catalog: `SELECT` compiles to a
    /// submit-ready job; everything else resolves immediately from
    /// session state.
    pub fn prepare(&mut self, sql: &str, catalog: &Catalog) -> Result<Prepared, SessionError> {
        match parse(sql)? {
            Statement::Set { key, value } => {
                // Keys are case-insensitive; the table holds lower case.
                let lower = key.to_ascii_lowercase();
                let Some((_, apply)) = SETTABLE.iter().find(|(k, _)| *k == lower) else {
                    return Err(SessionError::UnknownSetting { key });
                };
                apply(self, &value)?;
                Ok(Prepared::Immediate(QueryOutput::SetOk {
                    key: lower,
                    value,
                }))
            }
            Statement::Show(kind) => {
                let items = match kind {
                    ShowKind::Tables => catalog.table_names(),
                    ShowKind::Policies => self
                        .policies
                        .iter()
                        .map(|p| {
                            format!(
                                "{p}{}",
                                if p.name == self.policy.name {
                                    "  (active)"
                                } else {
                                    ""
                                }
                            )
                        })
                        .collect(),
                };
                Ok(Prepared::Immediate(QueryOutput::Listing(items)))
            }
            Statement::Explain(query) => {
                let compiled = compile_query(
                    &query,
                    catalog,
                    &self.policy,
                    self.scan_mode,
                    self.sample_mode,
                    self.next_seed,
                    self.agg_rounds(),
                )?;
                Ok(Prepared::Immediate(QueryOutput::Explained(
                    compiled.explain(),
                )))
            }
            Statement::Select(query) => {
                self.next_seed = self.next_seed.wrapping_add(1);
                let compiled = compile_query(
                    &query,
                    catalog,
                    &self.policy,
                    self.scan_mode,
                    self.sample_mode,
                    self.next_seed,
                    self.agg_rounds,
                )?;
                Ok(Prepared::Submit(Box::new(compiled)))
            }
        }
    }
}

/// A session: catalog + runtime + per-client [`SessionState`].
pub struct Session {
    runtime: MrRuntime,
    catalog: Catalog,
    state: SessionState,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Start configuring a session: runtime, catalog/tables, policy file,
    /// scan and sample modes, and seed, with typed validation via
    /// `try_build`.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    pub(crate) fn from_parts(runtime: MrRuntime, catalog: Catalog, state: SessionState) -> Self {
        Session {
            runtime,
            catalog,
            state,
        }
    }

    /// Replace the policy registry from a policy-file text (the
    /// `policy.xml` equivalent). The active policy is reset to the first
    /// entry.
    pub fn load_policies(&mut self, file_text: &str) -> Result<(), incmr_core::PolicyFileError> {
        self.state.load_policies(file_text)
    }

    /// The currently active policy.
    pub fn active_policy(&self) -> &Policy {
        self.state.active_policy()
    }

    /// This session's per-client state (policy registry, modes, seed).
    pub fn state(&self) -> &SessionState {
        &self.state
    }

    /// Mutable access to the per-client state.
    pub fn state_mut(&mut self) -> &mut SessionState {
        &mut self.state
    }

    /// Mutable access to the underlying runtime (metrics, clock).
    pub fn runtime_mut(&mut self) -> &mut MrRuntime {
        &mut self.runtime
    }

    /// Read access to the underlying runtime.
    pub fn runtime(&self) -> &MrRuntime {
        &self.runtime
    }

    /// The table catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Submit one statement **without blocking**. `SELECT` statements
    /// enter the runtime's job queue and return a [`QueryHandle`] to
    /// poll or await; everything else completes immediately.
    pub fn submit(&mut self, sql: &str) -> Result<Submitted, SessionError> {
        match self.state.prepare(sql, &self.catalog)? {
            Prepared::Immediate(out) => Ok(Submitted::Done(out)),
            Prepared::Submit(compiled) => {
                let requested_k = compiled.requested_k();
                let submitted_at = self.runtime.now();
                let job = self.runtime.submit(compiled.spec, compiled.driver);
                Ok(Submitted::Pending(QueryHandle::new(
                    job,
                    requested_k,
                    submitted_at,
                )))
            }
        }
    }

    /// Whether a submitted query's job has completed.
    pub(crate) fn job_is_complete(&self, job: JobId) -> bool {
        self.runtime.is_complete(job)
    }

    /// Drive the runtime until `job` completes, then collect its result.
    pub(crate) fn drive_to_completion(&mut self, handle: QueryHandle) -> crate::QueryResult {
        while !self.runtime.is_complete(handle.job()) {
            assert!(self.runtime.step(), "runtime drained before job completion");
        }
        collect_result(&mut self.runtime, handle.job(), handle.requested_k())
    }

    /// Execute one statement to completion (blocking shim over
    /// [`Session::submit`] + [`QueryHandle::wait`]). A job that was
    /// aborted is [`SessionError::Job`], never an empty answer.
    pub fn execute(&mut self, sql: &str) -> Result<QueryOutput, SessionError> {
        match self.submit(sql)? {
            Submitted::Done(out) => Ok(out),
            Submitted::Pending(handle) => {
                let result = handle.wait(self);
                if let Some(error) = result.error {
                    return Err(SessionError::Job(error));
                }
                Ok(QueryOutput::Rows {
                    job: result.job,
                    rows: result.rows,
                    splits_processed: result.splits_processed,
                    records_processed: result.records_processed,
                    response_time: result.response_time,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use incmr_core::SampleOutcome;
    use incmr_data::{Dataset, DatasetSpec, SkewLevel};
    use incmr_dfs::{ClusterTopology, EvenRoundRobin, Namespace};
    use incmr_mapreduce::{ClusterConfig, CostModel, FifoScheduler};
    use incmr_simkit::rng::DetRng;

    fn session_with(skew: SkewLevel, full_scan: bool) -> Session {
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let mut rng = DetRng::seed_from(9);
        let ds = Arc::new(Dataset::build(
            &mut ns,
            DatasetSpec::small("lineitem", 20, 2_000, skew, 9),
            &mut EvenRoundRobin::new(),
            &mut rng,
        ));
        let rt = MrRuntime::new(
            ClusterConfig::paper_single_user(),
            CostModel::paper_default(),
            ns,
            Box::new(FifoScheduler::new()),
        );
        let mut b = Session::builder().runtime(rt).table("lineitem", ds);
        if full_scan {
            b = b.scan_mode(ScanMode::Full);
        }
        b.try_build().unwrap()
    }

    fn session(skew: SkewLevel) -> Session {
        session_with(skew, false)
    }

    #[test]
    fn sampling_query_returns_k_rows() {
        // 20×2000 records at 0.05% → 20 matches; ask for 10.
        let mut s = session(SkewLevel::High);
        let out = s
            .execute(
                "SELECT L_ORDERKEY, L_PARTKEY, L_SUPPKEY FROM LINEITEM WHERE L_TAX = 0.77 LIMIT 10",
            )
            .unwrap();
        let QueryOutput::Rows { rows, .. } = out else {
            panic!()
        };
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|r| r.arity() == 3), "projection applied");
    }

    #[test]
    fn submit_returns_a_pollable_handle() {
        let mut s = session(SkewLevel::High);
        let Submitted::Pending(handle) = s
            .submit(
                "SELECT L_ORDERKEY, L_PARTKEY, L_SUPPKEY FROM LINEITEM WHERE L_TAX = 0.77 LIMIT 10",
            )
            .unwrap()
        else {
            panic!("SELECT must be pending")
        };
        assert_eq!(handle.requested_k(), Some(10));
        assert!(!handle.poll(&s), "job cannot be complete before stepping");
        let handle = handle
            .try_result(&mut s)
            .expect_err("an incomplete job hands the handle back");
        // Step the runtime to completion by hand.
        while !handle.poll(&s) {
            assert!(s.runtime_mut().step());
        }
        let job = handle.job();
        let result = handle.try_result(&mut s).expect("complete");
        assert_eq!(result.rows.len(), 10);
        assert!(
            s.runtime().job_result(job).output.is_empty(),
            "the rows moved into the result; none are left to hand out again"
        );
        assert!(!result.failed);
        assert_eq!(result.outcome, Some(SampleOutcome::Full { requested: 10 }));
        assert!(result.response_time > SimDuration::ZERO);
        assert!(
            result
                .histograms
                .families()
                .iter()
                .any(|(_, h)| h.count() > 0),
            "per-query histograms recorded"
        );
    }

    #[test]
    fn handle_wait_reports_partial_samples() {
        // Zero skew plants 0.002% → only 0.8 expected matches in 40k;
        // asking for 1000 must come back Partial.
        let mut s = session(SkewLevel::Zero);
        let Submitted::Pending(handle) = s
            .submit("SELECT * FROM LINEITEM WHERE L_QUANTITY = 200 LIMIT 1000")
            .unwrap()
        else {
            panic!()
        };
        let result = handle.wait(&mut s);
        let Some(SampleOutcome::Partial { found, requested }) = result.outcome else {
            panic!("expected a partial sample: {:?}", result.outcome)
        };
        assert_eq!(requested, 1000);
        assert_eq!(found, result.rows.len() as u64);
        assert!(found < requested);
    }

    #[test]
    fn non_select_statements_complete_immediately() {
        let mut s = session(SkewLevel::High);
        assert!(matches!(
            s.submit("SET mapred.agg.rounds = 4").unwrap(),
            Submitted::Done(QueryOutput::SetOk { .. })
        ));
        assert!(matches!(
            s.submit("SHOW TABLES").unwrap(),
            Submitted::Done(QueryOutput::Listing(_))
        ));
        assert!(matches!(
            s.submit("EXPLAIN SELECT * FROM LINEITEM WHERE L_TAX = 0.77 LIMIT 5")
                .unwrap(),
            Submitted::Done(QueryOutput::Explained(_))
        ));
    }

    #[test]
    fn set_policy_changes_compilation() {
        let mut s = session(SkewLevel::High);
        assert_eq!(s.active_policy().name, "LA");
        let out = s.execute("SET dynamic.job.policy = C;").unwrap();
        assert!(matches!(out, QueryOutput::SetOk { .. }));
        assert_eq!(s.active_policy().name, "C");
        let QueryOutput::Explained(plan) = s
            .execute("EXPLAIN SELECT * FROM LINEITEM WHERE L_TAX = 0.77 LIMIT 5")
            .unwrap()
        else {
            panic!()
        };
        assert!(plan.contains("policy: C"), "{plan}");
        assert!(plan.contains("first k of the candidate list"), "{plan}");
        // A RandomK session says so, with the reservoir's seed.
        s.state_mut()
            .set_sample_mode(SampleMode::RandomK { seed: 11 });
        let QueryOutput::Explained(plan) = s
            .execute("EXPLAIN SELECT * FROM LINEITEM WHERE L_TAX = 0.77 LIMIT 5")
            .unwrap()
        else {
            panic!()
        };
        assert!(
            plan.contains(
                "reduce: SamplingReducer (random k of the candidate list, reservoir seed 11)"
            ),
            "{plan}"
        );
    }

    #[test]
    fn set_policy_reaches_the_bounded_explain() {
        // An error-bounded plan grows its input under the session's
        // policy too, and its EXPLAIN says which one.
        let mut s = session_with(SkewLevel::High, true);
        s.execute("SET dynamic.job.policy = HA").unwrap();
        let QueryOutput::Explained(plan) = s
            .execute("EXPLAIN SELECT SUM(L_QUANTITY) FROM lineitem WITH ERROR 0.05")
            .unwrap()
        else {
            panic!()
        };
        assert!(plan.contains("error-bounded"), "{plan}");
        assert!(plan.contains("policy: HA"), "{plan}");
    }

    #[test]
    fn unknown_policy_lists_available() {
        let mut s = session(SkewLevel::High);
        let err = s.execute("SET dynamic.job.policy = turbo").unwrap_err();
        let SessionError::UnknownPolicy { available, .. } = err else {
            panic!()
        };
        assert!(available.contains(&"Hadoop".into()));
    }

    #[test]
    fn set_rejects_keys_nothing_reads() {
        let mut s = session(SkewLevel::High);
        s.execute("SET dynamic.job.policy = HA").unwrap();
        s.execute("SET mapred.agg.rounds = 3").unwrap();
        for key in [
            "dfs.replication",
            "mapred.agg.error",
            "sampling.size.k",
            "a.b",
        ] {
            for key in [key.to_string(), key.to_ascii_uppercase()] {
                let err = s.execute(&format!("SET {key} = 2")).unwrap_err();
                assert!(
                    matches!(err, SessionError::UnknownSetting { key: ref k } if *k == key),
                    "{key}: {err:?}"
                );
                let message = err.to_string();
                assert!(
                    message.contains("dynamic.job.policy") && message.contains("mapred.agg.rounds"),
                    "the error names the settable keys: {message}"
                );
                assert_eq!(s.active_policy().name, "HA", "{key} changed nothing");
                assert_eq!(s.state().agg_rounds(), 3, "{key} changed nothing");
            }
        }
        // A settable key applies and echoes in lower case, however written.
        let Submitted::Done(QueryOutput::SetOk { key, value }) =
            s.submit("SET DYNAMIC.JOB.POLICY = MA").unwrap()
        else {
            panic!("SET completes immediately")
        };
        assert_eq!((key.as_str(), value.as_str()), ("dynamic.job.policy", "MA"));
        assert_eq!(s.active_policy().name, "MA");
    }

    #[test]
    fn full_mode_supports_ad_hoc_predicates() {
        let mut s = session_with(SkewLevel::High, true);
        let out = s
            .execute("SELECT L_ORDERKEY FROM LINEITEM WHERE L_QUANTITY <= 25 AND L_SHIPMODE = 'AIR' LIMIT 7")
            .unwrap();
        let QueryOutput::Rows { rows, .. } = out else {
            panic!()
        };
        assert_eq!(rows.len(), 7, "plenty of natural records satisfy this");
    }

    #[test]
    fn a_failed_job_is_an_error_not_an_empty_answer() {
        let mut s = session_with(SkewLevel::High, true);
        s.runtime_mut()
            .inject_cluster_faults(incmr_mapreduce::ClusterFaultPlan {
                map_fault_probability: 0.9,
                max_attempts: 1,
                seed: 7,
                ..Default::default()
            })
            .expect("valid plan");
        let err = s
            .execute("SELECT COUNT(*) FROM lineitem WHERE L_QUANTITY > 10")
            .unwrap_err();
        assert!(
            matches!(
                err,
                SessionError::Job(JobError::TaskAttemptsExhausted { .. })
            ),
            "{err:?}"
        );
        assert!(err.to_string().starts_with("job failed: "), "{err}");
    }

    #[test]
    fn scan_without_limit_reads_everything() {
        let mut s = session(SkewLevel::Zero);
        let out = s
            .execute("SELECT * FROM LINEITEM WHERE L_QUANTITY = 200")
            .unwrap();
        let QueryOutput::Rows {
            splits_processed,
            records_processed,
            ..
        } = out
        else {
            panic!()
        };
        assert_eq!(splits_processed, 20);
        assert_eq!(records_processed, 40_000);
    }

    #[test]
    fn custom_policy_file_can_be_loaded() {
        let mut s = session(SkewLevel::High);
        s.load_policies(
            r#"<policies>
                 <policy name="tiny"><workThreshold>1</workThreshold><grabLimit>1</grabLimit></policy>
               </policies>"#,
        )
        .unwrap();
        assert_eq!(s.active_policy().name, "tiny");
        let err = s.execute("SET dynamic.job.policy = LA").unwrap_err();
        assert!(
            matches!(err, SessionError::UnknownPolicy { .. }),
            "registry was replaced"
        );
    }

    #[test]
    fn aggregate_query_returns_one_row() {
        // 20×2000 records; count matches of the planted predicate.
        let mut s = session(SkewLevel::High);
        let out = s
            .execute("SELECT COUNT(*), AVG(L_QUANTITY), MIN(L_TAX), MAX(L_TAX) FROM lineitem WHERE L_TAX = 0.77")
            .unwrap();
        let QueryOutput::Rows {
            rows,
            splits_processed,
            ..
        } = out
        else {
            panic!()
        };
        assert_eq!(rows.len(), 1);
        assert_eq!(splits_processed, 20, "aggregates scan everything");
        let row = &rows[0];
        assert_eq!(
            row.get(0),
            &incmr_data::Value::Int(20),
            "0.05% of 40k records"
        );
        let incmr_data::Value::Float(avg_q) = row.get(1) else {
            panic!()
        };
        assert!(
            (1.0..=50.0).contains(avg_q),
            "average quantity in domain: {avg_q}"
        );
        assert_eq!(row.get(2), &incmr_data::Value::Float(0.77));
        assert_eq!(row.get(3), &incmr_data::Value::Float(0.77));
    }

    #[test]
    fn aggregate_explain_and_errors() {
        let mut s = session(SkewLevel::High);
        let QueryOutput::Explained(plan) = s
            .execute("EXPLAIN SELECT COUNT(*) FROM lineitem WHERE L_TAX = 0.77")
            .unwrap()
        else {
            panic!()
        };
        assert!(plan.contains("whole-table aggregation"), "{plan}");
        let err = s
            .execute("SELECT COUNT(*) FROM lineitem WHERE L_TAX = 0.77 LIMIT 5")
            .unwrap_err();
        assert!(err.to_string().contains("LIMIT with aggregates"));
        let err = s
            .execute("SELECT SUM(L_SHIPMODE) FROM lineitem WHERE L_TAX = 0.77")
            .unwrap_err();
        assert!(err.to_string().contains("numeric"));
    }

    #[test]
    fn grouped_aggregate_returns_one_row_per_group() {
        let mut s = session_with(SkewLevel::High, true);
        let out = s
            .execute("SELECT COUNT(*), SUM(L_QUANTITY) FROM lineitem GROUP BY L_RETURNFLAG")
            .unwrap();
        let QueryOutput::Rows {
            rows,
            splits_processed,
            ..
        } = out
        else {
            panic!()
        };
        assert_eq!(splits_processed, 20, "exact grouped plans scan everything");
        assert_eq!(rows.len(), 3, "R/A/N return flags");
        let mut groups = Vec::new();
        let mut total = 0i64;
        for row in &rows {
            let incmr_data::Value::Str(g) = row.get(0) else {
                panic!("grouped rows lead with the group value: {row:?}")
            };
            groups.push(g.clone());
            let incmr_data::Value::Int(n) = row.get(1) else {
                panic!()
            };
            total += n;
            let incmr_data::Value::Float(sum_q) = row.get(2) else {
                panic!()
            };
            assert!(*sum_q >= *n as f64, "quantity is at least 1 per record");
        }
        assert_eq!(total, 40_000, "group counts partition the table");
        let mut sorted = groups.clone();
        sorted.sort();
        assert_eq!(groups, sorted, "rows arrive in group-key order");
    }

    #[test]
    fn error_bounded_aggregate_reports_and_scales() {
        let mut s = session_with(SkewLevel::High, true);
        // Exact ground truth from the whole-table plan.
        let QueryOutput::Rows { rows: exact, .. } = s
            .execute("SELECT SUM(L_QUANTITY), COUNT(*) FROM lineitem")
            .unwrap()
        else {
            panic!()
        };
        let incmr_data::Value::Float(true_sum) = exact[0].get(0) else {
            panic!()
        };
        let true_sum = *true_sum;

        let Submitted::Pending(handle) = s
            .submit("SELECT SUM(L_QUANTITY), COUNT(*) FROM lineitem WITH ERROR 0.05")
            .unwrap()
        else {
            panic!()
        };
        let result = handle.wait(&mut s);
        assert!(!result.failed);
        let report = result.agg.expect("estimating plans attach a report");
        assert_eq!(
            report.completed, result.splits_processed,
            "the report counts the splits that were actually folded"
        );
        assert!(
            !matches!(report.outcome, incmr_mapreduce::AggOutcome::Exact),
            "this run meets its bound well before consuming everything, so \
             it must not classify as Exact: {report:?}"
        );
        // The scaled estimate lands near the truth even when the job
        // stopped before scanning everything.
        let incmr_data::Value::Float(est_sum) = result.rows[0].get(0) else {
            panic!()
        };
        let rel = (est_sum - true_sum).abs() / true_sum;
        assert!(rel < 0.15, "estimate off by {rel:.3} (truth {true_sum})");
        let incmr_data::Value::Int(est_n) = result.rows[0].get(1) else {
            panic!("scaled COUNT stays integral: {:?}", result.rows[0])
        };
        let rel_n = (*est_n as f64 - 40_000.0).abs() / 40_000.0;
        assert!(rel_n < 0.15, "count estimate off by {rel_n:.3}");
    }

    #[test]
    fn set_agg_rounds_is_validated_and_plumbed() {
        let mut s = session_with(SkewLevel::High, true);
        for bad in ["0", "-3", "many"] {
            for key in ["mapred.agg.rounds", "MAPRED.AGG.ROUNDS"] {
                let err = s.execute(&format!("SET {key} = {bad}")).unwrap_err();
                assert!(
                    err.to_string().contains("positive integer"),
                    "{key} = {bad}: {err}"
                );
            }
        }
        s.execute("SET MAPRED.AGG.ROUNDS = 1").unwrap();
        assert_eq!(s.state().agg_rounds(), 1, "keys are case-insensitive");
        s.execute("SET mapred.agg.rounds = 5").unwrap();
        assert_eq!(s.state().agg_rounds(), 5);
        // The budget reaches the estimating provider: one growth round
        // stops a statement that the default budget lets grow further.
        let splits = |rounds: Option<u64>| {
            let mut s = session_with(SkewLevel::High, true);
            if let Some(r) = rounds {
                s.execute(&format!("SET mapred.agg.rounds = {r}")).unwrap();
            }
            let out = s
                .execute(
                    "SELECT SUM(L_QUANTITY), COUNT(*) FROM lineitem \
                     WHERE L_QUANTITY > 48 WITH ERROR 0.01",
                )
                .unwrap();
            let QueryOutput::Rows {
                splits_processed, ..
            } = out
            else {
                panic!("a SELECT returns rows")
            };
            splits_processed
        };
        let starved = splits(Some(1));
        let default = splits(None);
        assert!(
            starved < default,
            "{starved} splits under one round, {default} under the default budget"
        );
    }

    #[test]
    fn collect_moves_the_jobs_histograms() {
        let mut s = session(SkewLevel::High);
        let Submitted::Pending(handle) = s
            .submit("SELECT L_ORDERKEY FROM LINEITEM WHERE L_TAX = 0.77 LIMIT 10")
            .unwrap()
        else {
            panic!("SELECT must be pending")
        };
        let job = handle.job();
        let result = handle.wait(&mut s);
        // The only job recorded every sample of the runtime-wide registry.
        assert_eq!(&result.histograms, s.runtime().histograms());
        assert!(result
            .histograms
            .families()
            .iter()
            .any(|(_, h)| h.count() > 0));
        assert_eq!(
            s.runtime().job_result(job).histograms,
            incmr_mapreduce::MetricsRegistry::new(),
            "the registry moved into the result; no copy stays behind"
        );
    }

    #[test]
    fn show_statements_list_tables_and_policies() {
        let mut s = session(SkewLevel::High);
        let QueryOutput::Listing(tables) = s.execute("SHOW TABLES").unwrap() else {
            panic!()
        };
        assert_eq!(tables, vec!["lineitem"]);
        let QueryOutput::Listing(policies) = s.execute("SHOW POLICIES;").unwrap() else {
            panic!()
        };
        assert_eq!(policies.len(), 5);
        assert!(policies
            .iter()
            .any(|p| p.starts_with("LA") && p.ends_with("(active)")));
        assert!(s.execute("SHOW NONSENSE").is_err());
    }

    #[test]
    fn parse_errors_surface() {
        let mut s = session(SkewLevel::High);
        assert!(matches!(s.execute("SELEKT *"), Err(SessionError::Parse(_))));
        assert!(matches!(
            s.execute("SELECT * FROM nope LIMIT 1"),
            Err(SessionError::Compile(_))
        ));
    }

    #[test]
    fn successive_queries_share_the_simulated_cluster() {
        let mut s = session(SkewLevel::Zero);
        let QueryOutput::Rows {
            response_time: t1, ..
        } = s
            .execute("SELECT * FROM LINEITEM WHERE L_QUANTITY = 200 LIMIT 5")
            .unwrap()
        else {
            panic!()
        };
        let now_after_first = s.runtime().now();
        assert!(now_after_first.as_millis() > 0);
        let QueryOutput::Rows { .. } = s
            .execute("SELECT * FROM LINEITEM WHERE L_QUANTITY = 200 LIMIT 5")
            .unwrap()
        else {
            panic!()
        };
        assert!(
            s.runtime().now() > now_after_first,
            "clock advances across queries"
        );
        assert!(t1 > SimDuration::ZERO);
    }
}
