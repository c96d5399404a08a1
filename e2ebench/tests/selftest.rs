//! Self-test of the benchmark at smoke size. Every workload must answer
//! every statement correctly, replay to the same digest and simulated
//! metrics traced and untraced and across two runs of one seed, and
//! account for at least 95% of its traced time through layer self times.

use incmr_e2ebench::report::PER_LAYER;
use incmr_e2ebench::{run, Options, Report, Sizes, Workload};

const SIMULATED: [&str; 3] = ["sim_response_s_p50", "sim_response_s_p95", "scan_fraction"];

fn smoke(workload: Workload, trace: bool) -> Report {
    run(&Options {
        workload,
        seed: 5,
        seconds: 0.0,
        trace,
        sizes: Sizes::smoke(workload),
        keep_spans: 1_000,
    })
}

fn check(workload: Workload) {
    let traced = smoke(workload, true);
    assert!(traced.correct, "{}: {:?}", workload.name(), traced.errors);
    assert!(traced.attempted > 0);
    assert_eq!(traced.metric("failed_frac"), Some(0.0));

    let again = smoke(workload, false);
    assert!(again.correct, "{}: {:?}", workload.name(), again.errors);
    assert_eq!(again.digest, traced.digest, "{}: digest", workload.name());
    for name in SIMULATED {
        assert_eq!(
            again.metric(name),
            traced.metric(name),
            "{}: {name}",
            workload.name()
        );
        assert!(
            again.metric(name).is_some_and(|v| v > 0.0),
            "{name} reads 0"
        );
    }

    let unattributed = traced.metric("trace.unattributed_frac").expect("traced");
    assert!(
        (0.0..=0.05).contains(&unattributed),
        "{}: {unattributed} of the traced time is unattributed",
        workload.name()
    );
    for name in PER_LAYER {
        assert!(traced.metric(name).is_some(), "{name} missing");
    }
    assert!(!traced.spans.is_empty(), "spans kept");
}

#[test]
fn sample_planted_replays_and_accounts() {
    check(Workload::SamplePlanted);
}

#[test]
fn scan_full_replays_and_accounts() {
    check(Workload::ScanFull);
}

#[test]
fn agg_evolve_replays_and_accounts() {
    check(Workload::AggEvolve);
}

#[test]
fn service_mixed_replays_and_accounts() {
    check(Workload::ServiceMixed);
}

/// `BENCHMARK.json` at the repository root names exactly the workloads
/// and metrics this benchmark prints.
#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let report = smoke(Workload::SamplePlanted, false);
    let names: Vec<&str> = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(report.end_to_end.iter().map(|m| m.name))
        .chain(PER_LAYER)
        .collect();
    for name in &names {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "BENCHMARK.json lacks {name}"
        );
    }
    assert_eq!(
        json.matches("\"name\":").count(),
        names.len(),
        "BENCHMARK.json names something the benchmark does not print"
    );
}
