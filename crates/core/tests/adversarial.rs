//! Adversarial Input Providers against the runtime's guard-rail plane.
//!
//! Every hostile behaviour here must terminate *deterministically* with a
//! documented typed error (or a documented recovery) — no runtime panic,
//! no infinite event loop — and behave byte-identically at 1, 4, and 8
//! data-plane threads (the guard rails live entirely in the control
//! plane, which parallelism must not perturb).

use std::fmt::Debug;
use std::sync::Arc;

use incmr_core::{DynamicDriver, InputProvider, InputResponse, Policy};
use incmr_data::{Dataset, DatasetSpec, SkewLevel};
use incmr_dfs::{BlockId, ClusterTopology, EvenRoundRobin, Namespace};
use incmr_mapreduce::{
    ClusterConfig, ClusterStatus, CostModel, DatasetInputFormat, EvalContext, FifoScheduler,
    GuardrailMetrics, JobError, JobSpec, Key, MapResult, Mapper, MrRuntime, Parallelism,
    ProviderError, ProviderStage, ScanMode, SplitData,
};

struct MatchAllMapper;

impl Mapper for MatchAllMapper {
    fn run(&self, data: SplitData) -> MapResult {
        let total_records = data.total_records();
        let (SplitData::Full(matches) | SplitData::Planted { matches, .. }) = data;
        let key = Key::from("k");
        MapResult {
            pairs: matches
                .to_records()
                .into_iter()
                .map(|r| (Key::clone(&key), r))
                .collect(),
            records_read: total_records,
            ..MapResult::default()
        }
    }
}

fn world(threads: u32, partitions: u32) -> (MrRuntime, Arc<Dataset>) {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = incmr_simkit::rng::DetRng::seed_from(13);
    let spec = DatasetSpec::small("adv", partitions, 2_000, SkewLevel::Zero, 13);
    let ds = Arc::new(Dataset::build(
        &mut ns,
        spec,
        &mut EvenRoundRobin::new(),
        &mut rng,
    ));
    let rt = MrRuntime::new(
        ClusterConfig::paper_single_user().with_parallelism(Parallelism::threads(threads)),
        CostModel::paper_default(),
        ns,
        Box::new(FifoScheduler::new()),
    );
    (rt, ds)
}

/// Run `f` at 1, 4, and 8 threads and insist the observable outcome is
/// identical; return the 1-thread outcome for further assertions.
fn pinned<T: PartialEq + Debug>(f: impl Fn(u32) -> T) -> T {
    let serial = f(1);
    for threads in [4, 8] {
        let t = f(threads);
        assert_eq!(serial, t, "outcome diverged at {threads} threads");
    }
    serial
}

/// What a run leaves behind, for cross-thread-count comparison.
fn observe(
    rt: &MrRuntime,
    id: incmr_mapreduce::JobId,
) -> (
    bool,
    Option<JobError>,
    u32,
    GuardrailMetrics,
    incmr_simkit::SimTime,
) {
    let r = rt.job_result(id);
    (
        r.failed,
        r.error.clone(),
        r.splits_processed,
        rt.metrics().guardrails(),
        rt.now(),
    )
}

// ---------------------------------------------------------------------------
// Panicking providers
// ---------------------------------------------------------------------------

/// Panics on its `n`th provider call (0 = `initial_input`), once.
struct PanicAt {
    blocks: Vec<BlockId>,
    calls: u32,
    panic_on: u32,
}

impl PanicAt {
    fn maybe_detonate(&mut self) {
        let call = self.calls;
        self.calls += 1;
        if call == self.panic_on {
            panic!("provider exploded at call {call}");
        }
    }
}

impl InputProvider for PanicAt {
    fn initial_input(&mut self, _c: &ClusterStatus, grab: u64) -> Vec<BlockId> {
        self.maybe_detonate();
        let n = (grab as usize).min(self.blocks.len());
        self.blocks.drain(..n).collect()
    }

    fn next_input(&mut self, ctx: EvalContext<'_>) -> InputResponse {
        self.maybe_detonate();
        if self.blocks.is_empty() {
            return InputResponse::EndOfInput;
        }
        let n = (ctx.grab_limit as usize).min(self.blocks.len());
        InputResponse::InputAvailable(self.blocks.drain(..n).collect())
    }

    fn remaining(&self) -> usize {
        self.blocks.len()
    }
}

fn job_for(ds: &Arc<Dataset>) -> incmr_mapreduce::JobSpecBuilder {
    JobSpec::builder()
        .input(DatasetInputFormat::new(Arc::clone(ds), ScanMode::Planted))
        .mapper(MatchAllMapper)
}

fn driver_with(
    provider: impl InputProvider + 'static,
    policy: Policy,
    total: u32,
) -> Box<DynamicDriver> {
    Box::new(DynamicDriver::new(Box::new(provider), policy, total))
}

#[test]
fn panic_in_initial_input_fails_the_job_with_a_typed_error() {
    let (failed, error, splits, g, _) = pinned(|threads| {
        let (mut rt, ds) = world(threads, 8);
        let blocks = ds.splits().iter().map(|p| p.block).collect();
        let driver = driver_with(
            PanicAt {
                blocks,
                calls: 0,
                panic_on: 0,
            },
            Policy::ha(),
            8,
        );
        let id = rt.submit(job_for(&ds).build(), driver);
        rt.run_until_idle();
        observe(&rt, id)
    });
    assert!(failed);
    assert_eq!(splits, 0);
    assert_eq!(g.provider_panics, 1);
    assert_eq!(g.provider_errors, 1);
    match error {
        Some(JobError::Provider(ProviderError::Panicked { stage, message })) => {
            assert_eq!(stage, ProviderStage::InitialInput);
            assert!(message.contains("exploded at call 0"), "{message}");
        }
        other => panic!("expected a Panicked provider error, got {other:?}"),
    }
}

#[test]
fn panic_during_evaluation_fails_the_job_mid_flight() {
    let (failed, error, _, g, _) = pinned(|threads| {
        let (mut rt, ds) = world(threads, 12);
        let blocks = ds.splits().iter().map(|p| p.block).collect();
        // Survives initial_input, detonates on the first next_input.
        let driver = driver_with(
            PanicAt {
                blocks,
                calls: 0,
                panic_on: 1,
            },
            Policy::conservative(),
            12,
        );
        let id = rt.submit(job_for(&ds).build(), driver);
        rt.run_until_idle();
        observe(&rt, id)
    });
    assert!(failed);
    assert_eq!(g.provider_panics, 1);
    assert!(matches!(
        error,
        Some(JobError::Provider(ProviderError::Panicked {
            stage: ProviderStage::Evaluate,
            ..
        }))
    ));
}

#[test]
fn retry_budget_absorbs_a_single_panic_and_the_job_completes() {
    let (failed, error, splits, g, _) = pinned(|threads| {
        let (mut rt, ds) = world(threads, 6);
        let blocks = ds.splits().iter().map(|p| p.block).collect();
        let driver = driver_with(
            PanicAt {
                blocks,
                calls: 0,
                panic_on: 1,
            },
            Policy::ha(),
            6,
        );
        let id = rt.submit(job_for(&ds).provider_retry_budget(2).build(), driver);
        rt.run_until_idle();
        observe(&rt, id)
    });
    assert!(!failed, "one panic is inside the retry budget");
    assert_eq!(error, None);
    assert_eq!(splits, 6, "job recovered and drained its input");
    assert_eq!(g.provider_panics, 1);
    assert_eq!(g.provider_retries, 1);
}

// ---------------------------------------------------------------------------
// Duplicate-returning provider
// ---------------------------------------------------------------------------

/// Hands out overlapping batches: the same splits twice, then ends.
struct DuplicateProvider {
    blocks: Vec<BlockId>,
    calls: u32,
}

impl InputProvider for DuplicateProvider {
    fn initial_input(&mut self, _c: &ClusterStatus, _grab: u64) -> Vec<BlockId> {
        self.blocks[..6].to_vec()
    }

    fn next_input(&mut self, _ctx: EvalContext<'_>) -> InputResponse {
        self.calls += 1;
        match self.calls {
            // Overlaps blocks 3..6 with the initial batch, and repeats
            // block 7 inside its own batch.
            1 => InputResponse::InputAvailable(
                self.blocks[3..8]
                    .iter()
                    .copied()
                    .chain([self.blocks[7]])
                    .collect(),
            ),
            _ => InputResponse::EndOfInput,
        }
    }

    fn remaining(&self) -> usize {
        0
    }
}

#[test]
fn duplicate_splits_are_dropped_not_rerun() {
    let (failed, error, splits, g, _) = pinned(|threads| {
        let (mut rt, ds) = world(threads, 10);
        let blocks: Vec<_> = ds.splits().iter().map(|p| p.block).collect();
        let driver = driver_with(DuplicateProvider { blocks, calls: 0 }, Policy::ha(), 10);
        let id = rt.submit(job_for(&ds).build(), driver);
        rt.run_until_idle();
        observe(&rt, id)
    });
    assert!(
        !failed,
        "duplicates are a correctness hazard, not fatal: {error:?}"
    );
    // Initial 0..6 plus the fresh 6,7 from the overlapping batch.
    assert_eq!(splits, 8, "each split runs exactly once");
    // 3 duplicates against already-claimed splits + 1 intra-batch repeat.
    assert_eq!(g.duplicate_splits_dropped, 4);
}

// ---------------------------------------------------------------------------
// Over-grabbing provider
// ---------------------------------------------------------------------------

/// Ignores the grab limit entirely and dumps its whole candidate set.
struct OverGrabber {
    blocks: Vec<BlockId>,
    handed_out: bool,
}

impl InputProvider for OverGrabber {
    fn initial_input(&mut self, _c: &ClusterStatus, _grab: u64) -> Vec<BlockId> {
        self.handed_out = true;
        self.blocks.clone()
    }

    fn next_input(&mut self, _ctx: EvalContext<'_>) -> InputResponse {
        InputResponse::EndOfInput
    }

    fn remaining(&self) -> usize {
        if self.handed_out {
            0
        } else {
            self.blocks.len()
        }
    }
}

#[test]
fn over_grab_is_clamped_to_the_policy_limit() {
    let (failed, _, splits, g, _) = pinned(|threads| {
        let (mut rt, ds) = world(threads, 40);
        let blocks: Vec<_> = ds.splits().iter().map(|p| p.block).collect();
        // Conservative policy on an idle 40-slot cluster: grab = 0.1*TS = 4.
        let driver = driver_with(
            OverGrabber {
                blocks,
                handed_out: false,
            },
            Policy::conservative(),
            40,
        );
        let id = rt.submit(job_for(&ds).build(), driver);
        rt.run_until_idle();
        observe(&rt, id)
    });
    assert!(!failed);
    assert_eq!(splits, 4, "the 40-split dump was clamped to the grab limit");
    assert_eq!(g.grab_limit_clamps, 1);
}

// ---------------------------------------------------------------------------
// Forever-waiting provider (livelock)
// ---------------------------------------------------------------------------

/// Returns `NoInputAvailable` on every consultation, forever.
struct ForeverWait;

impl InputProvider for ForeverWait {
    fn initial_input(&mut self, _c: &ClusterStatus, _grab: u64) -> Vec<BlockId> {
        Vec::new()
    }

    fn next_input(&mut self, _ctx: EvalContext<'_>) -> InputResponse {
        InputResponse::NoInputAvailable
    }

    fn remaining(&self) -> usize {
        1 // claims there is more coming; there never is
    }
}

#[test]
fn forever_waiting_provider_trips_the_wedge_watchdog() {
    let (failed, error, splits, g, now) = pinned(|threads| {
        let (mut rt, ds) = world(threads, 4);
        let driver = driver_with(ForeverWait, Policy::ha(), 4);
        let id = rt.submit(job_for(&ds).max_idle_evaluations(8).build(), driver);
        rt.run_until_idle(); // must return: the watchdog breaks the loop
        observe(&rt, id)
    });
    assert!(failed);
    assert_eq!(splits, 0);
    assert_eq!(
        error,
        Some(JobError::Wedged {
            idle_evaluations: 8
        })
    );
    assert_eq!(g.jobs_wedged, 1);
    assert!(
        now > incmr_simkit::SimTime::ZERO,
        "watchdog needed simulated time"
    );
}

#[test]
fn default_watchdog_catches_wedges_without_any_configuration() {
    // No knobs set: the built-in limit still terminates the loop.
    let (failed, error, _, g, _) = pinned(|threads| {
        let (mut rt, ds) = world(threads, 4);
        let driver = driver_with(ForeverWait, Policy::ha(), 4);
        let id = rt.submit(job_for(&ds).build(), driver);
        rt.run_until_idle();
        observe(&rt, id)
    });
    assert!(failed);
    assert_eq!(
        error,
        Some(JobError::Wedged {
            idle_evaluations: incmr_mapreduce::DEFAULT_MAX_IDLE_EVALUATIONS
        })
    );
    assert_eq!(g.jobs_wedged, 1);
}

// ---------------------------------------------------------------------------
// Unknown-block provider
// ---------------------------------------------------------------------------

/// Requests a block id far outside the namespace, then behaves.
struct UnknownBlockProvider {
    blocks: Vec<BlockId>,
    calls: u32,
}

impl InputProvider for UnknownBlockProvider {
    fn initial_input(&mut self, _c: &ClusterStatus, _grab: u64) -> Vec<BlockId> {
        vec![self.blocks[0]]
    }

    fn next_input(&mut self, _ctx: EvalContext<'_>) -> InputResponse {
        self.calls += 1;
        match self.calls {
            1 => InputResponse::InputAvailable(vec![BlockId(u32::MAX)]),
            2 => InputResponse::InputAvailable(self.blocks[1..].to_vec()),
            _ => InputResponse::EndOfInput,
        }
    }

    fn remaining(&self) -> usize {
        self.blocks.len()
    }
}

#[test]
fn unknown_block_without_retries_is_fatal() {
    let (failed, error, _, g, _) = pinned(|threads| {
        let (mut rt, ds) = world(threads, 6);
        let blocks: Vec<_> = ds.splits().iter().map(|p| p.block).collect();
        let driver = driver_with(UnknownBlockProvider { blocks, calls: 0 }, Policy::ha(), 6);
        let id = rt.submit(job_for(&ds).build(), driver);
        rt.run_until_idle();
        observe(&rt, id)
    });
    assert!(failed);
    assert_eq!(
        error,
        Some(JobError::Provider(ProviderError::UnknownBlock {
            block: BlockId(u32::MAX)
        }))
    );
    assert_eq!(g.unknown_blocks, 1);
    assert_eq!(g.provider_panics, 0, "a bad directive is not a panic");
}

#[test]
fn unknown_block_inside_the_retry_budget_reconsults_and_completes() {
    let (failed, error, splits, g, _) = pinned(|threads| {
        let (mut rt, ds) = world(threads, 6);
        let blocks: Vec<_> = ds.splits().iter().map(|p| p.block).collect();
        let driver = driver_with(UnknownBlockProvider { blocks, calls: 0 }, Policy::ha(), 6);
        let id = rt.submit(job_for(&ds).provider_retry_budget(1).build(), driver);
        rt.run_until_idle();
        observe(&rt, id)
    });
    assert!(!failed, "one bad directive is inside the budget: {error:?}");
    assert_eq!(splits, 6, "re-consultation recovered the full input");
    assert_eq!(g.unknown_blocks, 1);
    assert_eq!(g.provider_retries, 1);
}
