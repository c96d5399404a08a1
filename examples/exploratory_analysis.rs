//! The statistician scenario from the paper's introduction: estimate an
//! aggregate from a fixed-size predicate-based sample instead of scanning
//! the whole dataset.
//!
//! Here: "what is the mean quantity of line items shipped by AIR with at
//! most a 2% discount?" — answered from a 400-record sample, then checked
//! against the exact full-scan answer the sample is standing in for.
//!
//! ```text
//! cargo run --release --example exploratory_analysis
//! ```

use std::sync::Arc;

use incmr::data::lineitem::col;
use incmr::data::predicate::CmpOp;
use incmr::mapreduce::ReduceOutput;
use incmr::prelude::*;

fn mean_quantity(rows: &ReduceOutput) -> f64 {
    let sum: i64 = rows
        .iter()
        .map(|(_, r)| match r.get(col::QUANTITY) {
            Value::Int(q) => *q,
            other => panic!("unexpected value {other}"),
        })
        .sum();
    sum as f64 / rows.len() as f64
}

fn main() {
    // 60 partitions x 30k records = 1.8M rows of real generated data.
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(23);
    let spec = DatasetSpec::small("lineitem", 60, 30_000, SkewLevel::Zero, 23);
    let dataset = Arc::new(Dataset::build(
        &mut ns,
        spec,
        &mut EvenRoundRobin::new(),
        &mut rng,
    ));

    // An ad-hoc analysis predicate (nothing to do with the planted one),
    // so the job runs in Full mode over real records.
    let predicate = Predicate::And(
        Box::new(Predicate::eq(col::SHIPMODE, Value::Str("AIR".into()))),
        Box::new(Predicate::Compare {
            column: col::DISCOUNT,
            op: CmpOp::Le,
            literal: Value::Float(0.02),
        }),
    );

    let mut rt = MrRuntime::new(
        ClusterConfig::paper_single_user(),
        CostModel::paper_default(),
        ns,
        Box::new(FifoScheduler::new()),
    );

    // The sampling run: 400 records, LA policy, random-k for an unbiased
    // reservoir over the collected candidates.
    let (job, driver) = build_sampling_job_with(
        &dataset,
        predicate.clone(),
        Vec::new(),
        400,
        Policy::la(),
        ScanMode::Full,
        SampleMode::RandomK { seed: 99 },
        5,
    );
    let id = rt.submit(job, driver);
    rt.run_until_idle();
    let sample = rt.job_result(id).clone();
    let estimate = mean_quantity(&sample.output);

    // Ground truth by scanning every record of every split directly.
    use incmr::data::generator::SplitGenerator;
    let factory = dataset.factory();
    let (mut sum, mut count) = (0i64, 0u64);
    for plan in dataset.splits() {
        for record in SplitGenerator::new(&factory, plan.spec).full_iter() {
            if predicate.eval(&record) {
                if let Value::Int(q) = record.get(col::QUANTITY) {
                    sum += q;
                    count += 1;
                }
            }
        }
    }
    let truth = sum as f64 / count as f64;

    println!("analysis: mean L_QUANTITY where L_SHIPMODE='AIR' AND L_DISCOUNT<=0.02\n");
    println!(
        "sample estimate : {estimate:.2}  (from {} records, {} of 60 partitions, {:.1}s simulated)",
        sample.output.len(),
        sample.splits_processed,
        sample.response_time().as_secs_f64()
    );
    println!("exact answer    : {truth:.2}  (from {count} matching records in a full scan)");
    let err_pct = 100.0 * (estimate - truth).abs() / truth;
    println!("relative error  : {err_pct:.2}%");
    assert!(err_pct < 10.0, "a 400-record sample should land within 10%");
}
