//! The multi-tenant query service, end to end: open-loop populations in
//! the thousands of users flow through admission control and weighted-
//! fair dispatch onto one shared cluster, and everything observable —
//! per-tenant queue-wait histograms, rejection counters, the admission
//! trace, sampled records — is a pure function of the seeds.

use std::sync::Arc;

use incmr::prelude::*;
use incmr::simkit::stats::LogHistogram;
use incmr::workload::{run_open_loop, OpenLoopClass, OpenLoopReport, OpenLoopSpec};

/// Build a cluster plus per-class dataset copies: one heavyweight copy
/// for the scan class (it reads everything) and lighter copies for the
/// sampling classes, all with planted Moderate-skew matches.
fn open_loop_world(
    scheduler: Box<dyn incmr::mapreduce::TaskScheduler>,
) -> (MrRuntime, Vec<Arc<Dataset>>) {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(41);
    let specs = [
        DatasetSpec::small("interactive", 12, 100_000, SkewLevel::Moderate, 41),
        DatasetSpec::small("reporting", 12, 100_000, SkewLevel::Moderate, 43),
        DatasetSpec::small("batch", 8, 200_000, SkewLevel::Moderate, 47),
    ];
    let datasets = specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            Arc::new(Dataset::build(
                &mut ns,
                spec,
                &mut EvenRoundRobin::starting_at(i as u32),
                &mut rng,
            ))
        })
        .collect();
    let rt = MrRuntime::new(
        ClusterConfig::paper_single_user(),
        CostModel::paper_default(),
        ns,
        scheduler,
    );
    (rt, datasets)
}

/// The acceptance-scale scenario: 1,100 heterogeneous open-loop users in
/// three tenant classes (interactive samplers, a weighted reporting
/// class, and full-table batch scans) against a 40-slot cluster.
fn run_at_scale(scheduler: Box<dyn incmr::mapreduce::TaskScheduler>) -> OpenLoopReport {
    let (rt, ds) = open_loop_world(scheduler);
    let spec = OpenLoopSpec {
        classes: vec![
            OpenLoopClass::sampling(
                "interactive",
                Arc::clone(&ds[0]),
                SkewLevel::Moderate,
                8,
                700,
                SimDuration::from_secs(1_400),
            )
            .with_quota(8, 32),
            OpenLoopClass::sampling(
                "reporting",
                Arc::clone(&ds[1]),
                SkewLevel::Moderate,
                25,
                300,
                SimDuration::from_secs(3_000),
            )
            .with_policy("C")
            .with_weight(3)
            .with_quota(4, 16),
            OpenLoopClass::scanning(
                "batch",
                Arc::clone(&ds[2]),
                SkewLevel::Moderate,
                100,
                SimDuration::from_secs(2_000),
            )
            .with_quota(2, 8),
        ],
        horizon: SimDuration::from_secs(300),
        service_cap: 12,
        seed: 4242,
    };
    run_open_loop(&spec, rt)
}

/// Aggregate data-locality fraction across every tenant's completed
/// queries (splits weighted, so the scan class counts at its true size).
fn aggregate_locality(report: &OpenLoopReport) -> f64 {
    let (mut local, mut total) = (0.0, 0.0);
    for t in &report.tenants {
        let splits = t.splits_per_query.mean() * t.completed as f64;
        local += t.locality * splits;
        total += splits;
    }
    assert!(total > 0.0, "no splits processed at all");
    local / total
}

/// ≥1000 heterogeneous open-loop users complete through the service with
/// per-tenant queue-wait histograms, and the paper's FIFO-vs-Fair trade
/// (Section V-F: delay scheduling buys locality) reproduces at a scale
/// the 10-user testbed could not reach.
#[test]
fn thousand_user_open_loop_reproduces_the_fifo_vs_fair_trade() {
    let fifo = run_at_scale(Box::new(FifoScheduler::new()));
    let fair = run_at_scale(Box::new(FairScheduler::paper_default()));

    for report in [&fifo, &fair] {
        assert_eq!(report.total_users(), 1_100);
        assert!(report.total_completed() > 0);
        assert_eq!(report.tenants.len(), 3);
        for t in &report.tenants {
            assert!(t.completed > 0, "class {} completed nothing", t.name);
            assert_eq!(
                t.queue_wait.count(),
                t.completed,
                "class {} queue-wait histogram must cover every launch",
                t.name
            );
            assert!(t.response_secs.mean() > 0.0);
            assert_eq!(t.completed + t.rejected, t.submitted);
        }
        // The scan class reads its whole 8-partition copy every time.
        assert_eq!(report.tenants[2].splits_per_query.mean(), 8.0);
        // Sampling classes stop early: k records need < the full copy.
        assert!(report.tenants[0].splits_per_query.mean() < 12.0);
    }

    // Determinism at scale: the same seeds give the same report.
    let again = run_at_scale(Box::new(FairScheduler::paper_default()));
    for (a, b) in fair.tenants.iter().zip(&again.tenants) {
        assert_eq!(a.submitted, b.submitted);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.deferred, b.deferred);
        assert_eq!(
            a.response_secs.mean().to_bits(),
            b.response_secs.mean().to_bits()
        );
    }

    // The trade: the Fair Scheduler's delay scheduling achieves higher
    // data locality than FIFO's greedy slot-filling under contention.
    let (fifo_loc, fair_loc) = (aggregate_locality(&fifo), aggregate_locality(&fair));
    assert!(
        fair_loc > fifo_loc,
        "fair locality {:.3} !> fifo locality {:.3}",
        fair_loc,
        fifo_loc
    );
}

fn small_world(threads: u32) -> (MrRuntime, Arc<Dataset>) {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(7);
    let spec = DatasetSpec::small("lineitem", 10, 5_000, SkewLevel::Moderate, 7);
    let ds = Arc::new(Dataset::build(
        &mut ns,
        spec,
        &mut EvenRoundRobin::new(),
        &mut rng,
    ));
    let rt = MrRuntime::new(
        ClusterConfig::paper_multi_user().with_parallelism(Parallelism::threads(threads)),
        CostModel::paper_default(),
        ns,
        Box::new(FairScheduler::paper_default()),
    );
    (rt, ds)
}

const SAMPLE: &str = "SELECT L_ORDERKEY FROM lineitem WHERE L_DISCOUNT = 0.99 LIMIT 12";

/// Admission control rejects at the queue-depth cap with a typed error
/// carrying the tenant, the observed depth, and the cap — and the
/// rejection lands on the trace plane.
#[test]
fn queue_depth_cap_rejects_with_typed_error_and_trace_event() {
    let (rt, ds) = small_world(1);
    let mut svc = QueryService::new(
        rt,
        ServiceConfig {
            max_in_flight_jobs: 1,
        },
    );
    svc.runtime_mut().enable_tracing();
    svc.register_table("lineitem", Arc::clone(&ds));
    let tenant = svc.add_tenant(TenantProfile {
        name: "capped".into(),
        max_in_flight: 1,
        queue_cap: 3,
        ..TenantProfile::default()
    });
    // 1 launches, 3 fill the queue to its cap, the 5th must bounce.
    for _ in 0..4 {
        assert!(matches!(
            svc.submit(tenant, SAMPLE),
            Ok(ServiceReply::Admitted(_))
        ));
    }
    let err = svc.submit(tenant, SAMPLE).unwrap_err();
    match err {
        ServiceError::Rejected {
            tenant: t,
            queued,
            cap,
        } => {
            assert_eq!(t, tenant);
            assert_eq!(queued, 3);
            assert_eq!(cap, 3);
        }
        other => panic!("expected Rejected, got {other}"),
    }
    assert_eq!(svc.tenant_stats(tenant).rejected, 1);
    svc.run_until_idle();
    let trace = svc.runtime_mut().take_trace();
    assert!(trace.iter().any(|e| matches!(
        e.kind,
        TraceKind::QueryRejected {
            tenant: 0,
            queued: 3
        }
    )));
    assert_eq!(svc.tenant_stats(tenant).completed, 4);
}

/// Under saturation the weighted-fair release converges to the
/// configured 3:1 share: of the first 24 admissions, the weight-3 tenant
/// gets 18 and the weight-1 tenant 6, in virtual-pass order.
#[test]
fn weighted_share_converges_to_three_to_one_under_saturation() {
    let (rt, ds) = small_world(1);
    let mut svc = QueryService::new(
        rt,
        ServiceConfig {
            max_in_flight_jobs: 1,
        },
    );
    svc.runtime_mut().enable_tracing();
    svc.register_table("lineitem", Arc::clone(&ds));
    let heavy = svc.add_tenant(TenantProfile {
        name: "heavy".into(),
        weight: 3,
        max_in_flight: 64,
        queue_cap: 64,
    });
    let light = svc.add_tenant(TenantProfile {
        name: "light".into(),
        weight: 1,
        max_in_flight: 64,
        queue_cap: 64,
    });
    // Saturate both backlogs before anything beyond the first job runs.
    for _ in 0..30 {
        svc.submit(heavy, SAMPLE).unwrap();
        svc.submit(light, SAMPLE).unwrap();
    }
    assert_eq!(svc.backlog(), 59); // one launched immediately
    svc.run_until_idle();
    let waits: Vec<(u32, u64)> = svc
        .runtime_mut()
        .take_trace()
        .into_iter()
        .filter_map(|e| match e.kind {
            TraceKind::QueryAdmitted {
                tenant, wait_ms, ..
            } => Some((tenant, wait_ms)),
            _ => None,
        })
        .collect();
    let admitted: Vec<u32> = waits.iter().map(|&(t, _)| t).collect();
    assert_eq!(admitted.len(), 60, "every admitted query launches");
    let heavy_share = admitted
        .iter()
        .take(24)
        .filter(|&&t| t == heavy.0 as u32)
        .count();
    assert_eq!(
        heavy_share, 18,
        "weight 3:1 must admit 18 of the first 24 from the heavy tenant, got {heavy_share}"
    );
    // Once the heavy backlog drains the light tenant gets everything.
    assert_eq!(svc.tenant_stats(heavy).completed, 30);
    assert_eq!(svc.tenant_stats(light).completed, 30);
    // Each tenant's queue waits are the `wait_ms` of its admissions.
    let mean = |h: &LogHistogram| h.sum() as f64 / h.count() as f64;
    let heavy_wait = &svc.tenant_stats(heavy).queue_wait;
    let light_wait = &svc.tenant_stats(light).queue_wait;
    assert_eq!(heavy_wait.count() + light_wait.count(), 60);
    let traced_sum = |tenant: TenantId| -> u64 {
        let admits = waits.iter().filter(|&&(t, _)| t == tenant.0 as u32);
        admits.map(|&(_, ms)| ms).sum()
    };
    assert_eq!(heavy_wait.sum(), traced_sum(heavy));
    assert_eq!(light_wait.sum(), traced_sum(light));
    assert!(
        mean(light_wait) > mean(heavy_wait),
        "the weight-1 tenant queues longer: {:.0}ms !> {:.0}ms",
        mean(light_wait),
        mean(heavy_wait)
    );
}

/// Everything observable about a multi-tenant service run at a given
/// data-plane thread count: results in ticket order, final counters, and
/// the full trace encoded to bytes.
fn service_fingerprint(threads: u32) -> (String, Vec<(u64, u64, u64)>, Vec<String>) {
    let (rt, ds) = small_world(threads);
    let mut svc = QueryService::new(
        rt,
        ServiceConfig {
            max_in_flight_jobs: 2,
        },
    );
    svc.runtime_mut().enable_tracing();
    svc.register_table("lineitem", Arc::clone(&ds));
    let a = svc.add_tenant(TenantProfile {
        name: "a".into(),
        weight: 2,
        max_in_flight: 2,
        queue_cap: 4,
    });
    let b = svc.add_tenant(TenantProfile {
        name: "b".into(),
        max_in_flight: 1,
        queue_cap: 2,
        ..TenantProfile::default()
    });
    let scan = "SELECT L_ORDERKEY FROM lineitem WHERE L_DISCOUNT = 0.99";
    let mut tickets = Vec::new();
    for _ in 0..4 {
        if let Ok(ServiceReply::Admitted(t)) = svc.submit(a, SAMPLE) {
            tickets.push(t);
        }
        if let Ok(ServiceReply::Admitted(t)) = svc.submit(b, scan) {
            tickets.push(t);
        }
    }
    // Tenant b's cap is 2: at least one of its submissions was rejected.
    assert!(svc.tenant_stats(b).rejected > 0);
    svc.run_until_idle();
    let rows: Vec<String> = tickets
        .iter()
        .map(|t| {
            let r = svc.take_result(t).expect("drained service has results");
            assert!(!r.failed);
            format!(
                "{:?}|{}ms|{}splits|{:?}",
                r.rows,
                r.response_time.as_millis(),
                r.splits_processed,
                r.outcome
            )
        })
        .collect();
    let stats: Vec<(u64, u64, u64)> = [a, b]
        .iter()
        .map(|&t| {
            let s = svc.tenant_stats(t);
            (s.completed, s.rejected, s.deferred)
        })
        .collect();
    let trace = encode_trace(&svc.runtime_mut().take_trace());
    (trace, stats, rows)
}

/// The service inherits the runtime's two-plane contract: admitted
/// results, counters, and the byte-encoded trace are identical at 1, 4,
/// and 8 data-plane threads.
#[test]
fn service_runs_are_byte_identical_across_thread_counts() {
    let serial = service_fingerprint(1);
    assert!(!serial.0.is_empty());
    for threads in [4, 8] {
        let run = service_fingerprint(threads);
        assert_eq!(
            run.0, serial.0,
            "service trace bytes diverged at {threads} threads"
        );
        assert_eq!(
            run.1, serial.1,
            "tenant counters diverged at {threads} threads"
        );
        assert_eq!(
            run.2, serial.2,
            "query results diverged at {threads} threads"
        );
    }
}
