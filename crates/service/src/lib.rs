//! # incmr-service
//!
//! A long-running **multi-tenant query service** over the simulated
//! cluster: the shape the paper's deployment takes when many users share
//! one Hadoop installation through Hive sessions, instead of one CLI
//! user owning the cluster.
//!
//! Each tenant gets its own HiveQL session state (policy registry,
//! active policy, scan mode, seed counter) and a
//! [`TenantProfile`](incmr_hiveql::TenantProfile) of
//! quota knobs; the service multiplexes all of them onto one
//! [`MrRuntime`](incmr_mapreduce::MrRuntime) with:
//!
//! * **admission control** — per-tenant queue-depth caps with typed
//!   [`ServiceError::Rejected`] and a global in-flight job cap;
//! * **weighted fair dispatch** — start-time fair queueing over an
//!   indexed run queue, `O(log tenants)` per decision;
//! * **full observability** — `QueryAdmitted` / `QueryRejected` /
//!   `QuotaDeferred` trace events and a queue-wait histogram in each
//!   tenant's [`TenantStats`].
//!
//! ```
//! use std::sync::Arc;
//! use incmr_data::{Dataset, DatasetSpec, SkewLevel};
//! use incmr_dfs::{ClusterTopology, EvenRoundRobin, Namespace};
//! use incmr_hiveql::TenantProfile;
//! use incmr_mapreduce::{ClusterConfig, CostModel, FairScheduler, MrRuntime};
//! use incmr_service::{QueryService, ServiceConfig, ServiceReply};
//! use incmr_simkit::rng::DetRng;
//!
//! let mut ns = Namespace::new(ClusterTopology::paper_cluster());
//! let mut rng = DetRng::seed_from(7);
//! let ds = Arc::new(Dataset::build(
//!     &mut ns,
//!     DatasetSpec::small("lineitem", 20, 2_000, SkewLevel::High, 7),
//!     &mut EvenRoundRobin::new(),
//!     &mut rng,
//! ));
//! let rt = MrRuntime::new(
//!     ClusterConfig::paper_multi_user(),
//!     CostModel::paper_default(),
//!     ns,
//!     Box::new(FairScheduler::paper_default()),
//! );
//! let mut svc = QueryService::new(rt, ServiceConfig::default());
//! svc.register_table("lineitem", ds);
//! let alice = svc.add_tenant(TenantProfile {
//!     name: "alice".into(),
//!     ..TenantProfile::default()
//! });
//! let ServiceReply::Admitted(ticket) = svc
//!     .submit(alice, "SELECT * FROM lineitem WHERE L_TAX = 0.77 LIMIT 5")
//!     .unwrap()
//! else {
//!     panic!()
//! };
//! let result = svc.wait(ticket);
//! assert_eq!(result.rows.len(), 5);
//! ```

pub mod config;
pub mod service;

pub use config::{ServiceConfig, ServiceError, TenantId, Ticket};
pub use service::{QueryService, ServiceReply, TenantStats};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use incmr_data::{Dataset, DatasetSpec, SkewLevel};
    use incmr_dfs::{ClusterTopology, EvenRoundRobin, Namespace};
    use incmr_hiveql::{QueryOutput, TenantProfile};
    use incmr_mapreduce::{
        ClusterConfig, CostModel, FairScheduler, MrRuntime, ScanMode, TraceKind,
    };
    use incmr_simkit::rng::DetRng;

    const SAMPLE: &str = "SELECT L_ORDERKEY FROM lineitem WHERE L_TAX = 0.77 LIMIT 5";

    fn service(cfg: ServiceConfig) -> QueryService {
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let mut rng = DetRng::seed_from(21);
        let ds = Arc::new(Dataset::build(
            &mut ns,
            DatasetSpec::small("lineitem", 20, 2_000, SkewLevel::High, 21),
            &mut EvenRoundRobin::new(),
            &mut rng,
        ));
        let rt = MrRuntime::new(
            ClusterConfig::paper_multi_user(),
            CostModel::paper_default(),
            ns,
            Box::new(FairScheduler::paper_default()),
        );
        let mut svc = QueryService::new(rt, cfg);
        svc.register_table("lineitem", ds);
        svc
    }

    fn tenant(name: &str, weight: u32, max_in_flight: u32, queue_cap: u32) -> TenantProfile {
        TenantProfile {
            name: name.into(),
            weight,
            max_in_flight,
            queue_cap,
        }
    }

    #[test]
    #[should_panic(expected = "tenant weight must be at least 1")]
    fn zero_weight_tenant_is_refused() {
        service(ServiceConfig::default()).add_tenant(tenant("a", 0, 4, 16));
    }

    #[test]
    #[should_panic(expected = "tenant max_in_flight must be at least 1")]
    fn zero_in_flight_tenant_is_refused() {
        service(ServiceConfig::default()).add_tenant(tenant("a", 1, 0, 16));
    }

    #[test]
    #[should_panic(expected = "tenant queue_cap must be at least 1")]
    fn zero_queue_cap_tenant_is_refused() {
        service(ServiceConfig::default()).add_tenant(tenant("a", 1, 4, 0));
    }

    #[test]
    fn single_tenant_query_completes() {
        let mut svc = service(ServiceConfig::default());
        let a = svc.add_tenant(TenantProfile::default());
        let ServiceReply::Admitted(ticket) = svc.submit(a, SAMPLE).unwrap() else {
            panic!()
        };
        let result = svc.wait(ticket);
        assert_eq!(result.rows.len(), 5);
        assert!(!result.failed);
        assert_eq!(svc.tenant_stats(a).completed, 1);
        assert_eq!(svc.in_flight(), 0);
    }

    #[test]
    fn immediate_statements_use_per_tenant_state() {
        let mut svc = service(ServiceConfig::default());
        let a = svc.add_tenant(tenant("a", 1, 4, 16));
        let b = svc.add_tenant(tenant("b", 1, 4, 16));
        let ServiceReply::Immediate(QueryOutput::SetOk { .. }) =
            svc.submit(a, "SET dynamic.job.policy = C").unwrap()
        else {
            panic!()
        };
        assert_eq!(svc.session_state_mut(a).active_policy().name, "C");
        // Tenant b's session is untouched.
        assert_eq!(svc.session_state_mut(b).active_policy().name, "LA");
        // EXPLAIN resolves against a's (changed) policy.
        let ServiceReply::Immediate(QueryOutput::Explained(plan)) =
            svc.submit(a, &format!("EXPLAIN {SAMPLE}")).unwrap()
        else {
            panic!()
        };
        assert!(plan.contains("policy: C"), "{plan}");
    }

    #[test]
    fn queue_cap_rejects_with_typed_error_and_trace() {
        let mut svc = service(ServiceConfig {
            max_in_flight_jobs: 1,
        });
        svc.runtime_mut().enable_tracing();
        let a = svc.add_tenant(tenant("a", 1, 1, 2));
        // One launches, two queue (cap), the fourth is refused.
        for _ in 0..3 {
            assert!(matches!(
                svc.submit(a, SAMPLE),
                Ok(ServiceReply::Admitted(_))
            ));
        }
        let err = svc.submit(a, SAMPLE).unwrap_err();
        let ServiceError::Rejected {
            tenant: who,
            queued,
            cap,
        } = err
        else {
            panic!("wrong error")
        };
        assert_eq!((who, queued, cap), (a, 2, 2));
        assert_eq!(svc.tenant_stats(a).rejected, 1);
        let trace = svc.runtime_mut().take_trace();
        assert!(trace.iter().any(|e| matches!(
            e.kind,
            TraceKind::QueryRejected {
                tenant: 0,
                queued: 2
            }
        )));
        svc.run_until_idle();
        assert_eq!(svc.tenant_stats(a).completed, 3);
    }

    #[test]
    fn quota_deferral_is_traced_and_counted() {
        let mut svc = service(ServiceConfig::default());
        svc.runtime_mut().enable_tracing();
        let a = svc.add_tenant(tenant("a", 1, 1, 8));
        svc.submit(a, SAMPLE).unwrap(); // launches
        svc.submit(a, SAMPLE).unwrap(); // deferred: quota of 1
        assert_eq!(svc.tenant_stats(a).deferred, 1);
        assert_eq!(svc.tenant_stats(a).queued, 0); // stats snapshot lags
        assert_eq!(svc.backlog(), 1);
        let trace = svc.runtime_mut().take_trace();
        assert!(trace.iter().any(|e| matches!(
            e.kind,
            TraceKind::QuotaDeferred {
                tenant: 0,
                depth: 1
            }
        )));
        svc.run_until_idle();
        assert_eq!(svc.tenant_stats(a).completed, 2);
    }

    #[test]
    fn unknown_tenant_and_bad_sql_are_typed() {
        let mut svc = service(ServiceConfig::default());
        assert!(matches!(
            svc.submit(TenantId(9), SAMPLE),
            Err(ServiceError::UnknownTenant(TenantId(9)))
        ));
        let a = svc.add_tenant(TenantProfile::default());
        assert!(matches!(
            svc.submit(a, "SELEKT nope"),
            Err(ServiceError::Session(_))
        ));
    }

    #[test]
    fn weighted_dispatch_favours_heavier_tenants() {
        // Global capacity 1 serialises launches; with backlogs of 8 each,
        // the launch order must interleave 3:1 for weights 3 and 1.
        let mut svc = service(ServiceConfig {
            max_in_flight_jobs: 1,
        });
        svc.runtime_mut().enable_tracing();
        let heavy = svc.add_tenant(tenant("heavy", 3, 8, 16));
        let light = svc.add_tenant(tenant("light", 1, 8, 16));
        for _ in 0..8 {
            svc.submit(heavy, SAMPLE).unwrap();
            svc.submit(light, SAMPLE).unwrap();
        }
        svc.run_until_idle();
        let admits: Vec<u32> = svc
            .runtime_mut()
            .take_trace()
            .into_iter()
            .filter_map(|e| match e.kind {
                TraceKind::QueryAdmitted { tenant, .. } => Some(tenant),
                _ => None,
            })
            .collect();
        assert_eq!(admits.len(), 16);
        // In any prefix long enough, heavy must lead light by ~3x.
        let heavy_in_first_8 = admits[..8].iter().filter(|&&t| t == heavy.0 as u32).count();
        assert!(
            (5..=7).contains(&heavy_in_first_8),
            "weight-3 tenant got {heavy_in_first_8}/8 of the first launches: {admits:?}"
        );
        assert_eq!(svc.tenant_stats(heavy).completed, 8);
        assert_eq!(svc.tenant_stats(light).completed, 8);
    }

    #[test]
    fn queue_wait_histograms_are_keyed_by_tenant() {
        let mut svc = service(ServiceConfig {
            max_in_flight_jobs: 1,
        });
        let a = svc.add_tenant(tenant("analytics", 1, 4, 16));
        let idle = svc.add_tenant(tenant("idle", 1, 4, 16));
        for _ in 0..4 {
            svc.submit(a, SAMPLE).unwrap();
        }
        svc.run_until_idle();
        let hist = &svc.tenant_stats(a).queue_wait;
        assert_eq!(hist.count(), 4);
        // With capacity 1, later queries waited a nonzero time.
        assert!(hist.max() > 0);
        assert!(svc.tenant_stats(idle).queue_wait.is_empty());
        assert!(
            svc.runtime().histograms().queue_wait("analytics").is_none(),
            "the scheduler-keyed family holds no tenant"
        );
    }

    #[test]
    fn per_tenant_session_state_isolates_scan_modes() {
        let mut svc = service(ServiceConfig::default());
        let strict = svc.add_tenant(tenant("strict", 1, 4, 16));
        let mut full = incmr_hiveql::SessionState::new();
        full.set_scan_mode(ScanMode::Full);
        let relaxed = svc.add_tenant_with_state(tenant("relaxed", 1, 4, 16), full);
        // Ad-hoc predicate: rejected for the planted-mode tenant,
        // admitted for the full-scan tenant.
        let adhoc = "SELECT L_ORDERKEY FROM lineitem WHERE L_QUANTITY <= 25 LIMIT 3";
        assert!(matches!(
            svc.submit(strict, adhoc),
            Err(ServiceError::Session(_))
        ));
        let ServiceReply::Admitted(ticket) = svc.submit(relaxed, adhoc).unwrap() else {
            panic!()
        };
        assert_eq!(svc.wait(ticket).rows.len(), 3);
    }

    /// A failed query's result says why it failed, not only that it did.
    #[test]
    fn a_failed_query_carries_its_error() {
        let mut svc = service(ServiceConfig::default());
        svc.runtime_mut()
            .inject_cluster_faults(incmr_mapreduce::ClusterFaultPlan {
                map_fault_probability: 0.9,
                max_attempts: 1,
                seed: 7,
                ..Default::default()
            })
            .expect("valid plan");
        let a = svc.add_tenant(TenantProfile::default());
        let ServiceReply::Admitted(ticket) = svc.submit(a, SAMPLE).unwrap() else {
            panic!()
        };
        let result = svc.wait(ticket);
        assert!(result.failed && result.rows.is_empty());
        assert!(
            matches!(
                result.error,
                Some(incmr_mapreduce::JobError::TaskAttemptsExhausted { .. })
            ),
            "{:?}",
            result.error
        );
    }
}
