//! Open-loop arrival generation over the multi-tenant query service.
//!
//! The closed-loop runner ([`crate::run_workload`]) models the paper's 10
//! users with one in-flight query each. This module scales the other
//! axis: **millions of simulated users** per tenant class, each thinking
//! for an exponentially-distributed time between submissions, without
//! materialising any per-user state. The superposition of `u` Poisson
//! users with mean think time `z` is itself a Poisson process with mean
//! inter-arrival gap `z / u`, so one aggregated arrival stream per class
//! is exact and O(1) per arrival.
//!
//! Arrivals do **not** wait for completions (open loop): under
//! saturation the tenant queues fill, admission control rejects, and the
//! weighted-fair dispatcher decides who drains first — precisely the
//! multi-user regime of the paper's Sections V-D/V-E, at a scale its
//! 10-user testbed could not reach.

use std::sync::Arc;

use incmr_data::{Dataset, PaperPredicate, SkewLevel};
use incmr_hiveql::{SessionState, TenantProfile};
use incmr_mapreduce::MrRuntime;
use incmr_service::{QueryService, ServiceConfig, ServiceError, ServiceReply, Ticket};
use incmr_simkit::dist::exponential_millis;
use incmr_simkit::rng::DetRng;
use incmr_simkit::stats::{LogHistogram, OnlineStats};
use incmr_simkit::{SimDuration, SimTime};

/// One tenant class: a user population submitting one query shape
/// against its own dataset copy (registered as a table named after the
/// class).
#[derive(Clone)]
pub struct OpenLoopClass {
    /// Class/tenant/table name.
    pub name: String,
    /// Simulated user population size (can be millions; arrivals are
    /// aggregated, so memory is O(1) in this number).
    pub users: u64,
    /// Per-user mean think time between submissions.
    pub think_mean: SimDuration,
    /// The statement every user of this class submits.
    pub sql: String,
    /// Growth policy to activate (a built-in Table I name), if any.
    pub policy: Option<String>,
    /// Quota knobs and fair-share weight.
    pub profile: TenantProfile,
    /// The class's own dataset copy.
    pub dataset: Arc<Dataset>,
}

impl OpenLoopClass {
    /// A sampling class: `SELECT … WHERE p LIMIT k` with the Table III
    /// predicate for `skew` (which must match the dataset's planting).
    pub fn sampling(
        name: &str,
        dataset: Arc<Dataset>,
        skew: SkewLevel,
        k: u64,
        users: u64,
        think_mean: SimDuration,
    ) -> Self {
        let pred = PaperPredicate::for_skew(skew).sql;
        OpenLoopClass {
            name: name.to_string(),
            users,
            think_mean,
            sql: format!(
                "SELECT L_ORDERKEY, L_PARTKEY, L_SUPPKEY FROM {name} WHERE {pred} LIMIT {k}"
            ),
            policy: None,
            profile: TenantProfile {
                name: name.to_string(),
                ..TenantProfile::default()
            },
            dataset,
        }
    }

    /// A non-sampling class: the same select-project query without a
    /// `LIMIT`, compiled to a static full scan.
    pub fn scanning(
        name: &str,
        dataset: Arc<Dataset>,
        skew: SkewLevel,
        users: u64,
        think_mean: SimDuration,
    ) -> Self {
        let pred = PaperPredicate::for_skew(skew).sql;
        OpenLoopClass {
            name: name.to_string(),
            users,
            think_mean,
            sql: format!("SELECT L_ORDERKEY, L_PARTKEY, L_SUPPKEY FROM {name} WHERE {pred}"),
            policy: None,
            profile: TenantProfile {
                name: name.to_string(),
                ..TenantProfile::default()
            },
            dataset,
        }
    }

    /// Activate a built-in policy (Table I name) for this class.
    pub fn with_policy(mut self, name: &str) -> Self {
        self.policy = Some(name.to_string());
        self
    }

    /// Set the weighted-fair-share weight.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.profile.weight = weight;
        self
    }

    /// Set the admission quota knobs.
    pub fn with_quota(mut self, max_in_flight: u32, queue_cap: u32) -> Self {
        self.profile.max_in_flight = max_in_flight;
        self.profile.queue_cap = queue_cap;
        self
    }
}

/// A complete open-loop scenario.
#[derive(Clone)]
pub struct OpenLoopSpec {
    /// The tenant classes.
    pub classes: Vec<OpenLoopClass>,
    /// Arrivals stop after this horizon; the run then drains.
    pub horizon: SimDuration,
    /// Service-wide cap on concurrently running jobs.
    pub service_cap: u32,
    /// Root seed for all arrival randomness.
    pub seed: u64,
}

/// Per-tenant results of one open-loop run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Class name.
    pub name: String,
    /// Simulated user population.
    pub users: u64,
    /// Statements offered to the service (admitted + rejected).
    pub submitted: u64,
    /// Queries that ran to completion.
    pub completed: u64,
    /// Submissions refused at the queue-depth cap.
    pub rejected: u64,
    /// Admitted submissions that could not start immediately.
    pub deferred: u64,
    /// Submission-to-completion latency, seconds.
    pub response_secs: OnlineStats,
    /// Partitions processed per completed query.
    pub splits_per_query: OnlineStats,
    /// Fraction of completed map tasks that ran data-local.
    pub locality: f64,
    /// Submission-to-launch wait (the admission queue), milliseconds.
    pub queue_wait: LogHistogram,
}

/// Aggregated results of one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// One report per class, in spec order.
    pub tenants: Vec<TenantReport>,
    /// The arrival horizon.
    pub horizon: SimDuration,
}

impl OpenLoopReport {
    /// Total simulated user population.
    pub fn total_users(&self) -> u64 {
        self.tenants.iter().map(|t| t.users).sum()
    }

    /// Total completed queries.
    pub fn total_completed(&self) -> u64 {
        self.tenants.iter().map(|t| t.completed).sum()
    }

    /// Completed queries per hour across all tenants.
    pub fn jobs_per_hour(&self) -> f64 {
        self.total_completed() as f64 / (self.horizon.as_millis() as f64 / 3_600_000.0)
    }
}

struct ClassRun {
    next_arrival: SimTime,
    rng: DetRng,
    tickets: Vec<Ticket>,
    submitted: u64,
}

/// Run an open-loop scenario over `runtime` (whose scheduler choice is
/// the experiment variable: FIFO vs Fair at scale).
pub fn run_open_loop(spec: &OpenLoopSpec, runtime: MrRuntime) -> OpenLoopReport {
    assert!(!spec.classes.is_empty(), "need at least one class");
    let mut svc = QueryService::new(
        runtime,
        ServiceConfig {
            max_in_flight_jobs: spec.service_cap,
        },
    );
    let root = DetRng::seed_from(spec.seed);
    let mut runs: Vec<ClassRun> = Vec::with_capacity(spec.classes.len());
    let mut tenants = Vec::with_capacity(spec.classes.len());
    for class in &spec.classes {
        assert!(class.users > 0, "class {} has no users", class.name);
        svc.register_table(&class.name, Arc::clone(&class.dataset));
        let mut state = SessionState::new();
        if let Some(policy) = &class.policy {
            state
                .set_active_policy(policy)
                .expect("open-loop policies are built-in Table I names");
        }
        let tenant = svc.add_tenant_with_state(class.profile.clone(), state);
        tenants.push(tenant);
        runs.push(ClassRun {
            next_arrival: SimTime::ZERO,
            rng: root.fork_named(&class.name),
            tickets: Vec::new(),
            submitted: 0,
        });
    }
    let horizon = SimTime::ZERO + spec.horizon;

    // Merge the per-class aggregated Poisson streams in time order.
    while let Some(idx) = (0..runs.len())
        .filter(|&i| runs[i].next_arrival <= horizon)
        .min_by_key(|&i| (runs[i].next_arrival, i))
    {
        let at = runs[idx].next_arrival;
        svc.run_until(at);
        let class = &spec.classes[idx];
        let run = &mut runs[idx];
        run.submitted += 1;
        match svc.submit(tenants[idx], &class.sql) {
            Ok(ServiceReply::Admitted(ticket)) => run.tickets.push(ticket),
            Ok(ServiceReply::Immediate(_)) => unreachable!("open-loop statements are SELECTs"),
            Err(ServiceError::Rejected { .. }) => {} // counted by the service
            Err(e) => panic!("open-loop submission failed: {e}"),
        }
        // Superposed Poisson: gap mean is think_mean / users.
        let mean_gap = class.think_mean.as_millis() as f64 / class.users as f64;
        let gap = exponential_millis(mean_gap, &mut run.rng);
        run.next_arrival = at + SimDuration::from_millis(gap.max(1));
    }
    svc.run_until_idle();

    let tenants_out = spec
        .classes
        .iter()
        .zip(&tenants)
        .zip(runs)
        .map(|((class, &tenant), run)| {
            let stats = svc.tenant_stats(tenant).clone();
            let mut response_secs = OnlineStats::new();
            let mut splits_per_query = OnlineStats::new();
            let mut completed = 0u64;
            for ticket in &run.tickets {
                let result = svc
                    .take_result(ticket)
                    .expect("drained service has every admitted result");
                assert!(!result.failed, "open-loop query failed");
                completed += 1;
                response_secs.push(result.response_time.as_secs_f64());
                splits_per_query.push(result.splits_processed as f64);
            }
            assert_eq!(completed, stats.completed, "every admitted query completed");
            let locality = if stats.splits_processed == 0 {
                0.0
            } else {
                stats.local_tasks as f64 / stats.splits_processed as f64
            };
            TenantReport {
                name: class.name.clone(),
                users: class.users,
                submitted: run.submitted,
                completed,
                rejected: stats.rejected,
                deferred: stats.deferred,
                response_secs,
                splits_per_query,
                locality,
                queue_wait: stats.queue_wait,
            }
        })
        .collect();
    OpenLoopReport {
        tenants: tenants_out,
        horizon: spec.horizon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incmr_data::DatasetSpec;
    use incmr_dfs::{ClusterTopology, EvenRoundRobin, Namespace};
    use incmr_mapreduce::{ClusterConfig, CostModel, FairScheduler, MrRuntime};

    fn world(copies: usize) -> (MrRuntime, Vec<Arc<Dataset>>) {
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let mut rng = DetRng::seed_from(77);
        let datasets = (0..copies)
            .map(|i| {
                Arc::new(Dataset::build(
                    &mut ns,
                    DatasetSpec::small(&format!("copy{i}"), 10, 1_000, SkewLevel::High, 77),
                    &mut EvenRoundRobin::starting_at(i as u32),
                    &mut rng,
                ))
            })
            .collect();
        let rt = MrRuntime::new(
            ClusterConfig::paper_multi_user(),
            CostModel::paper_default(),
            ns,
            Box::new(FairScheduler::paper_default()),
        );
        (rt, datasets)
    }

    #[test]
    fn million_user_population_runs_in_constant_memory() {
        // 1M users × 1000s think time → one aggregated stream with a
        // 1ms mean gap ... scaled here: 1M users, ~16-minute mean think
        // time → 1 arrival/second for a 30-second horizon.
        let (rt, ds) = world(1);
        let spec = OpenLoopSpec {
            classes: vec![OpenLoopClass::sampling(
                "mega",
                Arc::clone(&ds[0]),
                SkewLevel::High,
                5,
                1_000_000,
                SimDuration::from_millis(1_000_000),
            )
            .with_quota(8, 64)],
            horizon: SimDuration::from_secs(30),
            service_cap: 16,
            seed: 5,
        };
        let report = run_open_loop(&spec, rt);
        assert_eq!(report.total_users(), 1_000_000);
        let t = &report.tenants[0];
        assert!(
            t.submitted >= 10,
            "expected ~30 arrivals, got {}",
            t.submitted
        );
        assert_eq!(t.completed + t.rejected, t.submitted);
        assert!(t.completed > 0);
        assert_eq!(t.queue_wait.count(), t.completed);
        assert!(t.response_secs.mean() > 0.0);
    }

    #[test]
    fn saturation_rejects_and_defers_deterministically() {
        let (rt, ds) = world(1);
        let class = OpenLoopClass::sampling(
            "burst",
            Arc::clone(&ds[0]),
            SkewLevel::High,
            5,
            50_000,
            SimDuration::from_millis(50_000), // ~1 arrival/ms: instant saturation
        )
        .with_quota(1, 2);
        let spec = OpenLoopSpec {
            classes: vec![class],
            horizon: SimDuration::from_secs(1),
            service_cap: 1,
            seed: 9,
        };
        let (rt2, ds2) = world(1);
        let mut spec2 = spec.clone();
        spec2.classes[0].dataset = Arc::clone(&ds2[0]);
        let a = run_open_loop(&spec, rt);
        let b = run_open_loop(&spec2, rt2);
        let t = &a.tenants[0];
        assert!(
            t.rejected > 0,
            "queue cap 2 must reject under a 1ms gap flood"
        );
        assert!(t.deferred > 0, "quota 1 must defer queued arrivals");
        assert_eq!(t.completed + t.rejected, t.submitted);
        // Same seed, same world → identical outcome (determinism).
        assert_eq!(t.submitted, b.tenants[0].submitted);
        assert_eq!(t.completed, b.tenants[0].completed);
        assert_eq!(t.rejected, b.tenants[0].rejected);
    }

    #[test]
    fn per_class_policies_and_weights_apply() {
        let (rt, ds) = world(2);
        let spec = OpenLoopSpec {
            classes: vec![
                OpenLoopClass::sampling(
                    "gold",
                    Arc::clone(&ds[0]),
                    SkewLevel::High,
                    5,
                    100,
                    SimDuration::from_secs(200),
                )
                .with_policy("C")
                .with_weight(3)
                .with_quota(4, 32),
                OpenLoopClass::scanning(
                    "scan",
                    Arc::clone(&ds[1]),
                    SkewLevel::High,
                    100,
                    SimDuration::from_secs(400),
                )
                .with_quota(4, 32),
            ],
            horizon: SimDuration::from_secs(60),
            service_cap: 8,
            seed: 11,
        };
        let report = run_open_loop(&spec, rt);
        assert_eq!(report.tenants.len(), 2);
        assert!(report.total_completed() > 0);
        let scan = &report.tenants[1];
        if scan.completed > 0 {
            // Scans read every partition of their 10-split copy.
            assert_eq!(scan.splits_per_query.mean(), 10.0);
        }
    }
}
