//! Visualise incremental job expansion: trace one sampling job per policy
//! and print its growth curve and per-node slot swimlanes.
//!
//! ```text
//! cargo run --release --example job_timeline
//! ```
//!
//! The Hadoop policy's lanes fill at once (all input up front); the
//! dynamic policies grow in steps as their Input Provider reacts to
//! arriving statistics.

use std::sync::Arc;

use incmr::mapreduce::{job_timeline, render_swimlanes};
use incmr::prelude::*;

fn main() {
    for policy in [
        Policy::hadoop(),
        Policy::ha(),
        Policy::la(),
        Policy::conservative(),
    ] {
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let mut rng = DetRng::seed_from(9);
        let spec = DatasetSpec::small("lineitem", 80, 750_000, SkewLevel::Moderate, 9);
        let ds = Arc::new(Dataset::build(
            &mut ns,
            spec,
            &mut EvenRoundRobin::new(),
            &mut rng,
        ));
        let mut rt = MrRuntime::new(
            ClusterConfig::paper_single_user(),
            CostModel::paper_default(),
            ns,
            Box::new(FifoScheduler::new()),
        );
        rt.enable_tracing();
        let name = policy.name.clone();
        let (job, driver) =
            build_sampling_job(&ds, 2_000, policy, ScanMode::Planted, SampleMode::FirstK, 4);
        let id = rt.submit(job, driver);
        rt.run_until_idle();
        let trace = rt.take_trace();
        let t = job_timeline(&trace, id).expect("traced");

        println!("== policy {name} ==");
        let growth: Vec<String> = t
            .growth
            .iter()
            .map(|(at, splits)| format!("+{splits} @ {at}"))
            .collect();
        println!(
            "growth: {}  (end-of-input @ {})",
            growth.join(", "),
            t.end_of_input
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".into()),
        );
        println!(
            "maps: {} started / {} finished; response {:.1}s; {} of 80 partitions",
            t.maps.0,
            t.maps.1,
            rt.job_result(id).response_time().as_secs_f64(),
            rt.job_result(id).splits_processed,
        );
        print!("{}", render_swimlanes(&trace, 64));
        println!();
    }
}
