//! Golden admission trace: one fixed-seed multi-tenant schedule — three
//! tenants with 3:1:1 weights and tight quotas flooding a two-job
//! service — produces one exact JSONL admission log (every
//! `QueryAdmitted` / `QueryRejected` / `QuotaDeferred` decision plus the
//! job lifecycle events they interleave with), committed to the
//! repository and byte-identical at 1, 4, and 8 data-plane threads.
//!
//! After an *intentional* behaviour change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_service
//! ```
//!
//! and review the diff like any other code change.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use incmr::prelude::*;

#[path = "support/golden_kinds.rs"]
mod golden_kinds;
#[path = "support/replay.rs"]
mod replay;
use golden_kinds::assert_plane_kinds;
use replay::assert_replay_matches_live;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/service_trace.txt")
}

/// The fixed multi-tenant schedule: three tenants submit interleaved
/// bursts that overflow both the per-tenant quotas (deferrals) and the
/// queue-depth caps (rejections), then the weighted-fair release drains
/// everything through a service capped at two concurrent jobs.
fn render_run_at(threads: u32) -> String {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(23);
    let ds = Arc::new(Dataset::build(
        &mut ns,
        DatasetSpec::small("lineitem", 6, 2_000, SkewLevel::Moderate, 23),
        &mut EvenRoundRobin::new(),
        &mut rng,
    ));
    let rt = MrRuntime::new(
        ClusterConfig::paper_multi_user().with_parallelism(Parallelism::threads(threads)),
        CostModel::paper_default(),
        ns,
        Box::new(FairScheduler::paper_default()),
    );
    let mut svc = QueryService::new(
        rt,
        ServiceConfig {
            max_in_flight_jobs: 2,
        },
    );
    svc.runtime_mut().enable_tracing();
    svc.register_table("lineitem", Arc::clone(&ds));
    let profiles = [("gold", 3u32), ("silver", 1), ("bronze", 1)];
    let tenants: Vec<TenantId> = profiles
        .iter()
        .map(|&(name, weight)| {
            svc.add_tenant(TenantProfile {
                name: name.into(),
                weight,
                max_in_flight: 1,
                queue_cap: 2,
            })
        })
        .collect();
    // Five rounds of round-robin submissions against queue caps of two:
    // round 1 launches or queues, rounds 2-3 defer, rounds 4-5 reject.
    for _ in 0..5 {
        for &tenant in &tenants {
            let _ = svc.submit(
                tenant,
                "SELECT L_ORDERKEY FROM lineitem WHERE L_DISCOUNT = 0.99 LIMIT 10",
            );
        }
    }
    svc.run_until_idle();
    let events = svc.runtime_mut().take_trace();
    assert_replay_matches_live(&events, svc.runtime(), "fair");
    let events: Vec<TraceEvent> = events
        .into_iter()
        .filter(|e| {
            matches!(
                e.kind,
                TraceKind::QueryAdmitted { .. }
                    | TraceKind::QueryRejected { .. }
                    | TraceKind::QuotaDeferred { .. }
                    | TraceKind::JobSubmitted { .. }
                    | TraceKind::JobCompleted { .. }
            )
        })
        .collect();
    encode_trace(&events)
}

#[test]
fn admission_trace_matches_golden_file_at_every_thread_count() {
    let runs: Vec<String> = [1u32, 4, 8].iter().map(|&t| render_run_at(t)).collect();
    for (run, threads) in runs.iter().zip([1, 4, 8]).skip(1) {
        assert_eq!(
            &runs[0], run,
            "admission trace differs at {threads} data-plane threads"
        );
    }
    let got = &runs[0];
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, got).expect("write golden service trace");
        return;
    }
    let want = fs::read_to_string(&path)
        .expect("tests/golden/service_trace.txt missing — generate it with UPDATE_GOLDEN=1");
    assert_eq!(
        got, &want,
        "admission trace diverged from tests/golden/service_trace.txt; \
         if the behaviour change is intentional, regenerate with UPDATE_GOLDEN=1 \
         and review the diff"
    );
}

/// Coverage guard: the golden schedule must keep exercising every
/// admission event kind — a "matching" trace that stopped rejecting or
/// deferring would pin nothing.
#[test]
fn golden_schedule_covers_every_admission_event_kind() {
    let got = render_run_at(1);
    let events = parse_trace(&got).expect("golden trace is valid JSONL");
    assert_plane_kinds("service", &events);
    let admitted = events
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::QueryAdmitted { .. }))
        .count();
    let completed = events
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::JobCompleted { .. }))
        .count();
    assert_eq!(
        admitted, completed,
        "every admitted query must complete in the golden schedule"
    );
    // Every tenant appears among the admissions (the weighted release
    // serves all three), and rejections hit the tight-quota tenants.
    let mut tenants_admitted: Vec<u32> = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::QueryAdmitted { tenant, .. } => Some(tenant),
            _ => None,
        })
        .collect();
    tenants_admitted.sort_unstable();
    tenants_admitted.dedup();
    assert_eq!(tenants_admitted, vec![0, 1, 2]);
}
