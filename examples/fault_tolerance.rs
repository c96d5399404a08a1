//! Fault tolerance and runtime policy adaptation.
//!
//! Two capabilities beyond the paper's evaluation:
//!
//! 1. **Fault injection** — map-task attempts fail with a configurable
//!    probability; Hadoop-style retries (`mapred.map.max.attempts`) keep
//!    the sample exact while the job slows down.
//! 2. **Adaptive policies** — the paper's future work: one driver that
//!    behaves like HA on an idle cluster and backs off toward LA as
//!    co-tenants arrive.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use std::sync::Arc;

use incmr::core::build_adaptive_sampling_job;
use incmr::mapreduce::ClusterFaultPlan;
use incmr::prelude::*;

fn world() -> (MrRuntime, Arc<Dataset>) {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(61);
    let spec = DatasetSpec::small("lineitem", 60, 200_000, SkewLevel::Zero, 61);
    let ds = Arc::new(Dataset::build(
        &mut ns,
        spec,
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

fn main() {
    println!("-- fault injection: the same sampling job at rising failure rates --\n");
    println!(
        "{:>10} {:>10} {:>14} {:>12}",
        "fail rate", "retries", "response (s)", "sample"
    );
    for probability in [0.0, 0.1, 0.3, 0.5] {
        let (mut rt, ds) = world();
        if probability > 0.0 {
            rt.inject_cluster_faults(ClusterFaultPlan {
                map_fault_probability: probability,
                max_attempts: 10,
                seed: 99,
                ..ClusterFaultPlan::default()
            })
            .expect("valid plan");
        }
        let (job, driver) = build_sampling_job(
            &ds,
            800,
            Policy::ha(),
            ScanMode::Planted,
            SampleMode::FirstK,
            2,
        );
        let id = rt.submit(job, driver);
        rt.run_until_idle();
        let r = rt.job_result(id);
        assert!(!r.failed);
        println!(
            "{:>10} {:>10} {:>14.1} {:>12}",
            format!("{:.0}%", probability * 100.0),
            r.task_failures,
            r.response_time().as_secs_f64(),
            r.output.len(),
        );
    }
    println!("\nretries cost time, never correctness: the sample stays exactly k.\n");

    println!("-- adaptive policy: same job on an idle vs a busy cluster --\n");
    for busy in [false, true] {
        let (mut rt, ds) = world();
        if busy {
            // Occupy the cluster with a competing full scan first.
            let (scan, scan_driver) = incmr::core::build_scan_job(&ds, ScanMode::Planted);
            rt.submit(scan, scan_driver);
            rt.run_until(SimTime::from_secs(8));
        }
        let (job, driver) =
            build_adaptive_sampling_job(&ds, 800, ScanMode::Planted, SampleMode::FirstK, 3);
        let id = rt.submit(job, driver);
        while !rt.is_complete(id) {
            assert!(rt.step(), "runtime drained");
        }
        let r = rt.job_result(id);
        println!(
            "{:<13} -> {:>3} of 60 partitions, {:>7.1}s response",
            if busy { "busy cluster" } else { "idle cluster" },
            r.splits_processed,
            r.response_time().as_secs_f64(),
        );
    }
    println!("\nthe adaptive driver grabs aggressively when slots are free and");
    println!("drip-feeds when they are not — the paper's future-work behaviour.");
}
