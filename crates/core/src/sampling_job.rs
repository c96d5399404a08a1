//! Assembly of complete jobs: the dynamic predicate-based-sampling job
//! (what the modified Hive compiler of Section IV emits) and the static
//! select-project scan job (the Non-Sampling class of Section V-E).

use std::sync::Arc;

use incmr_data::lineitem::col;
use incmr_data::{Dataset, Predicate};
use incmr_mapreduce::{
    keys, DatasetInputFormat, JobConf, JobResult, JobSpec, ScanMode, StaticDriver,
};

use crate::dynamic_driver::DynamicDriver;
use crate::input_provider::InputProvider;
use crate::policy::Policy;
use crate::sampling::{SampleCombiner, SampleMode, SamplingMapper, SamplingReducer};
use crate::sampling_provider::SamplingInputProvider;
use crate::scan::ScanMapper;

/// The projection used by the paper's query template:
/// `SELECT ORDERKEY, PARTKEY, SUPPKEY FROM LINEITEM WHERE … LIMIT 10000`.
pub fn paper_projection() -> Vec<usize> {
    vec![col::ORDERKEY, col::PARTKEY, col::SUPPKEY]
}

/// How a *completed* sampling job ended relative to its target `k`.
///
/// A sampling job can legitimately finish with fewer than `k` records —
/// the candidate input ran out of matches, or a graceful deadline
/// (`keys::JOB_DEADLINE_MS` with `keys::ALLOW_PARTIAL`) cut input intake
/// short. Both are *successful completions*: the sample it did gather is
/// valid, just smaller than requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleOutcome {
    /// The sample reached the requested size.
    Full {
        /// The requested sample size `k`.
        requested: u64,
    },
    /// The job completed with fewer than `k` matches.
    Partial {
        /// Records actually gathered (`< requested`).
        found: u64,
        /// The requested sample size `k`.
        requested: u64,
    },
}

/// Classify a finished sampling job's result against its configured `k`.
///
/// Returns `None` when the job failed (a failed job has no sample at all —
/// inspect [`JobResult::error`]) or when the conf carries no
/// `keys::SAMPLING_K` (not a sampling job). Call this on the result while
/// its output rows are still materialised (i.e. before
/// `MrRuntime::release_job_result`).
pub fn sample_outcome(conf: &JobConf, result: &JobResult) -> Option<SampleOutcome> {
    if result.failed {
        return None;
    }
    let requested = conf
        .get_u64_or(keys::SAMPLING_K, 0)
        .ok()
        .filter(|&k| k > 0)?;
    let found = result.output.len() as u64;
    Some(if found < requested {
        SampleOutcome::Partial { found, requested }
    } else {
        SampleOutcome::Full { requested }
    })
}

/// Build a dynamic predicate-based-sampling job over `dataset`.
///
/// Returns the job spec (conf + mapper + reducer) and the dynamic driver
/// (Input Provider under `policy`). `seed` drives the provider's random
/// split selection (vary it across runs to average, as the paper does).
pub fn build_sampling_job(
    dataset: &Arc<Dataset>,
    k: u64,
    policy: Policy,
    scan_mode: ScanMode,
    sample_mode: SampleMode,
    seed: u64,
) -> (JobSpec, Box<DynamicDriver>) {
    build_sampling_job_with(
        dataset,
        planted_predicate(dataset),
        Vec::new(),
        k,
        policy,
        scan_mode,
        sample_mode,
        seed,
    )
}

/// Like [`build_sampling_job`], with an explicit predicate and map-side
/// projection — the entry point the HiveQL compiler targets.
#[allow(clippy::too_many_arguments)]
pub fn build_sampling_job_with(
    dataset: &Arc<Dataset>,
    predicate: Predicate,
    projection: Vec<usize>,
    k: u64,
    policy: Policy,
    scan_mode: ScanMode,
    sample_mode: SampleMode,
    seed: u64,
) -> (JobSpec, Box<DynamicDriver>) {
    let name = policy.name.clone();
    sampling_job(
        dataset,
        predicate,
        projection,
        k,
        &name,
        scan_mode,
        sample_mode,
        seed,
        |provider, total| DynamicDriver::new(provider, policy, total),
    )
}

/// Like [`build_sampling_job`] but under the paper ladder
/// ([`DynamicDriver::paper_ladder`], the paper's future-work runtime
/// policy adaptation) instead of a fixed policy.
pub fn build_adaptive_sampling_job(
    dataset: &Arc<Dataset>,
    k: u64,
    scan_mode: ScanMode,
    sample_mode: SampleMode,
    seed: u64,
) -> (JobSpec, Box<DynamicDriver>) {
    sampling_job(
        dataset,
        planted_predicate(dataset),
        Vec::new(),
        k,
        "adaptive",
        scan_mode,
        sample_mode,
        seed,
        DynamicDriver::paper_ladder,
    )
}

/// The dataset's planted predicate, the one a planted-mode split can
/// answer.
fn planted_predicate(dataset: &Dataset) -> Predicate {
    use incmr_data::generator::RecordFactory;
    dataset.factory().predicate()
}

/// The one sampling-job body behind the builders above: Algorithm 1 caps
/// each split at `k` matches and Algorithm 2 keeps `k` of the merged
/// candidates. `policy` names the growth policy in the conf and the job
/// name; `driver` wraps the Input Provider and the split count.
#[allow(clippy::too_many_arguments)]
fn sampling_job(
    dataset: &Arc<Dataset>,
    predicate: Predicate,
    projection: Vec<usize>,
    k: u64,
    policy: &str,
    scan_mode: ScanMode,
    sample_mode: SampleMode,
    seed: u64,
    driver: impl FnOnce(Box<dyn InputProvider>, u32) -> DynamicDriver,
) -> (JobSpec, Box<DynamicDriver>) {
    let conf = JobConf::new()
        .with(
            keys::JOB_NAME,
            format!("sample-{}-{policy}", dataset.spec().name),
        )
        .with(keys::DYNAMIC_JOB, true)
        .with(keys::DYNAMIC_JOB_POLICY, policy)
        .with(keys::DYNAMIC_INPUT_PROVIDER, "SamplingInputProvider")
        .with(keys::SAMPLING_K, k);
    let spec = JobSpec::builder()
        .conf(conf)
        .reduces(1)
        .input(DatasetInputFormat::new(Arc::clone(dataset), scan_mode))
        .mapper(SamplingMapper::with_projection(predicate, k, projection))
        .combiner(SampleCombiner::new(k))
        .reducer(SamplingReducer::new(k, sample_mode))
        .build();
    let blocks: Vec<_> = dataset.splits().iter().map(|p| p.block).collect();
    let total = blocks.len() as u32;
    let provider = SamplingInputProvider::new(blocks, k, seed);
    (spec, Box::new(driver(Box::new(provider), total)))
}

/// Build the static select-project scan job (selectivity 0.05% via the
/// dataset's planted predicate). Its outputs are unmaterialised — only
/// counts and shuffle bytes matter for throughput experiments.
pub fn build_scan_job(dataset: &Arc<Dataset>, scan_mode: ScanMode) -> (JobSpec, Box<StaticDriver>) {
    let predicate = planted_predicate(dataset);
    let spec = JobSpec::builder()
        .set(keys::JOB_NAME, format!("scan-{}", dataset.spec().name))
        .reduces(1)
        .input(DatasetInputFormat::new(Arc::clone(dataset), scan_mode))
        .mapper(ScanMapper::new(predicate, paper_projection(), false))
        .build();
    let blocks: Vec<_> = dataset.splits().iter().map(|p| p.block).collect();
    (spec, Box::new(StaticDriver::new(blocks)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use incmr_data::{DatasetSpec, SkewLevel};
    use incmr_dfs::{ClusterTopology, EvenRoundRobin, Namespace};
    use incmr_mapreduce::{ClusterConfig, CostModel, FifoScheduler, MrRuntime};
    use incmr_simkit::rng::DetRng;

    fn world(partitions: u32, records: u64, skew: SkewLevel) -> (MrRuntime, Arc<Dataset>) {
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let mut rng = DetRng::seed_from(21);
        let spec = DatasetSpec::small("li", partitions, records, skew, 21);
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

    #[test]
    fn end_to_end_dynamic_sampling_produces_k_records() {
        // 40 partitions × 10_000 records, 0.05% → 200 matches total; ask
        // for 60: the dynamic job must stop early with exactly 60.
        let (mut rt, ds) = world(40, 10_000, SkewLevel::Zero);
        assert_eq!(ds.total_matching(), 200);
        let (spec, driver) = build_sampling_job(
            &ds,
            60,
            Policy::la(),
            ScanMode::Planted,
            SampleMode::FirstK,
            77,
        );
        let id = rt.submit(spec, driver);
        rt.run_until_idle();
        let r = rt.job_result(id);
        assert_eq!(r.output.len(), 60, "sample is exactly k");
        assert!(
            r.splits_processed < 40,
            "dynamic job stopped early: {} splits",
            r.splits_processed
        );
        // Every sampled record satisfies the predicate.
        use incmr_data::generator::RecordFactory;
        let p = ds.factory().predicate();
        assert!(r.output.iter().all(|(_, rec)| p.eval(rec)));
    }

    #[test]
    fn sample_smaller_than_k_when_matches_run_out() {
        let (mut rt, ds) = world(10, 2_000, SkewLevel::Zero);
        assert_eq!(ds.total_matching(), 10);
        let (spec, driver) = build_sampling_job(
            &ds,
            500,
            Policy::ha(),
            ScanMode::Planted,
            SampleMode::FirstK,
            3,
        );
        let id = rt.submit(spec, driver);
        rt.run_until_idle();
        let r = rt.job_result(id);
        assert_eq!(r.output.len(), 10, "all matches found, sample < k");
        assert_eq!(r.splits_processed, 10, "whole input needed");
    }

    #[test]
    fn hadoop_policy_processes_everything_dynamic_does_not() {
        let run = |policy: Policy| {
            let (mut rt, ds) = world(40, 10_000, SkewLevel::Zero);
            let (spec, driver) =
                build_sampling_job(&ds, 60, policy, ScanMode::Planted, SampleMode::FirstK, 7);
            let id = rt.submit(spec, driver);
            rt.run_until_idle();
            rt.job_result(id).splits_processed
        };
        assert_eq!(run(Policy::hadoop()), 40);
        assert!(run(Policy::la()) < 40);
    }

    #[test]
    fn random_k_mode_yields_k_predicate_matching_records() {
        let (mut rt, ds) = world(40, 10_000, SkewLevel::Moderate);
        let (spec, driver) = build_sampling_job(
            &ds,
            50,
            Policy::ma(),
            ScanMode::Planted,
            SampleMode::RandomK { seed: 5 },
            9,
        );
        let id = rt.submit(spec, driver);
        rt.run_until_idle();
        let r = rt.job_result(id);
        assert_eq!(r.output.len(), 50);
    }

    #[test]
    fn scan_job_reads_everything_and_counts_matches() {
        let (mut rt, ds) = world(20, 5_000, SkewLevel::Zero);
        let (spec, driver) = build_scan_job(&ds, ScanMode::Planted);
        let id = rt.submit(spec, driver);
        rt.run_until_idle();
        let r = rt.job_result(id);
        assert_eq!(r.splits_processed, 20);
        assert_eq!(r.records_processed, 100_000);
        assert_eq!(r.map_output_records, ds.total_matching());
        assert!(r.output.is_empty(), "scan outputs are unmaterialised");
    }

    #[test]
    fn adaptive_job_samples_correctly_and_adapts_to_idle_cluster() {
        let (mut rt, ds) = world(40, 10_000, SkewLevel::Zero);
        let (spec, driver) =
            build_adaptive_sampling_job(&ds, 60, ScanMode::Planted, SampleMode::FirstK, 4);
        let id = rt.submit(spec, driver);
        rt.run_until_idle();
        let r = rt.job_result(id);
        assert_eq!(r.output.len(), 60);
        // On an otherwise-idle cluster the adaptive ladder behaves like HA:
        // one aggressive grab, so roughly the HA partition count.
        let (mut rt2, ds2) = world(40, 10_000, SkewLevel::Zero);
        let (spec2, driver2) = build_sampling_job(
            &ds2,
            60,
            Policy::ha(),
            ScanMode::Planted,
            SampleMode::FirstK,
            4,
        );
        let id2 = rt2.submit(spec2, driver2);
        rt2.run_until_idle();
        let ha_parts = rt2.job_result(id2).splits_processed;
        assert!(
            r.splits_processed <= ha_parts + 8,
            "adaptive ({}) should not grossly exceed HA ({ha_parts}) when idle",
            r.splits_processed
        );
    }

    #[test]
    fn conf_keys_mirror_the_paper() {
        let (_, ds) = world(4, 100, SkewLevel::Zero);
        let (spec, driver) = build_sampling_job(
            &ds,
            10,
            Policy::la(),
            ScanMode::Planted,
            SampleMode::FirstK,
            1,
        );
        assert!(spec.conf.get_bool(keys::DYNAMIC_JOB));
        assert_eq!(spec.conf.get(keys::DYNAMIC_JOB_POLICY), Some("LA"));
        assert_eq!(
            spec.conf.get(keys::DYNAMIC_INPUT_PROVIDER),
            Some("SamplingInputProvider")
        );
        assert_eq!(spec.conf.get_u64_or(keys::SAMPLING_K, 0).unwrap(), 10);
        assert_eq!(driver.policy().name, "LA");
    }
}
