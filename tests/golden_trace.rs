//! Golden-trace regression: one fixed seed and one fixed fault schedule
//! produce one exact event timeline, committed to the repository.
//!
//! Any change to scheduling, the cost model, the fault plane, or event
//! ordering shows up here as a readable diff instead of a silent drift.
//! After an *intentional* behaviour change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```
//!
//! and review the diff like any other code change.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use incmr::mapreduce::{ClusterFaultPlan, NodeOutage, SpeculationConfig};
use incmr::prelude::*;

#[path = "support/golden_kinds.rs"]
mod golden_kinds;
#[path = "support/replay.rs"]
mod replay;
use golden_kinds::{assert_plane_kinds, GOLDEN_KINDS};
use replay::assert_replay_matches_live;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fault_trace.txt")
}

/// A schedule chosen to exercise every event kind the fault plane emits:
/// a mid-run outage with rejoin, a straggler slow enough to speculate,
/// map faults frequent enough to blacklist a node, and reduce faults.
fn eventful_plan() -> ClusterFaultPlan {
    ClusterFaultPlan {
        outages: vec![NodeOutage {
            node: NodeId(5),
            down_at: SimTime::from_secs(10),
            up_at: Some(SimTime::from_secs(25)),
        }],
        node_speed: vec![1.0, 1.0, 0.3],
        map_fault_probability: 0.18,
        reduce_fault_probability: 0.7,
        max_attempts: 8,
        speculation: Some(SpeculationConfig::default()),
        blacklist_threshold: Some(2),
        seed: 9,
    }
}

/// One line per event, as the golden files hold them.
fn render(events: &[TraceEvent]) -> String {
    events.iter().map(|e| format!("{e}\n")).collect()
}

/// The golden fault-plane run's trace; every counter and histogram must
/// replay from it.
fn run() -> Vec<TraceEvent> {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(17);
    // CPU-bound maps (~5 s of CPU per split) so the 0.3-speed node lags
    // far enough past the slowdown threshold to draw speculation.
    let spec = DatasetSpec::small("t", 48, 200_000, SkewLevel::Moderate, 17);
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
    rt.inject_cluster_faults(eventful_plan())
        .expect("valid plan");
    let (job, driver) = build_scan_job(&ds, ScanMode::Planted);
    let id = rt.submit(job, driver);
    rt.run_until_idle();
    assert!(!rt.job_result(id).failed, "the golden run must complete");
    let events = rt.take_trace();
    assert_replay_matches_live(&events, &rt, "fifo");
    events
}

#[test]
fn fault_trace_matches_golden_file() {
    let got = render(&run());
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, &got).expect("write golden trace");
        return;
    }
    let want = fs::read_to_string(&path)
        .expect("tests/golden/fault_trace.txt missing — generate it with UPDATE_GOLDEN=1");
    assert_eq!(
        got, want,
        "fault-plane trace diverged from tests/golden/fault_trace.txt; \
         if the behaviour change is intentional, regenerate with UPDATE_GOLDEN=1 \
         and review the diff"
    );
}

/// The golden schedule must keep exercising the whole fault plane: if a
/// future change makes it quietly stop (no deaths, no speculation, no
/// blacklisting), the trace would still "match" while guarding nothing.
#[test]
fn golden_schedule_exercises_every_event_kind() {
    assert_plane_kinds("fault", &run());
}

/// The per-plane kind lists together name every trace kind, and nothing
/// else: a kind added to `TraceKind` needs a golden scenario producing it.
#[test]
fn golden_kind_lists_cover_every_trace_kind() {
    let listed: BTreeSet<&str> = GOLDEN_KINDS
        .iter()
        .flat_map(|(_, kinds)| kinds.iter().copied())
        .collect();
    let all: BTreeSet<&str> = TraceKind::NAMES.iter().copied().collect();
    assert_eq!(listed, all, "golden kind lists vs TraceKind::NAMES");
}

// ---------------------------------------------------------------------------
// Guard-rail plane golden trace
// ---------------------------------------------------------------------------

fn guardrail_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/guardrail_trace.txt")
}

/// Ignores its grab limit and repeats splits across batches.
struct OverGrabDup {
    blocks: Vec<BlockId>,
    calls: u32,
}

impl InputProvider for OverGrabDup {
    fn initial_input(&mut self, _c: &ClusterStatus, _grab: u64) -> Vec<BlockId> {
        self.blocks.clone() // the whole candidate set, limit be damned
    }

    fn next_input(&mut self, _ctx: EvalContext<'_>) -> InputResponse {
        self.calls += 1;
        match self.calls {
            1 => InputResponse::InputAvailable(self.blocks[2..8].to_vec()),
            _ => InputResponse::EndOfInput,
        }
    }

    fn remaining(&self) -> usize {
        self.blocks.len()
    }
}

/// Answers `NoInputAvailable` forever.
struct Stonewall;

impl InputProvider for Stonewall {
    fn initial_input(&mut self, _c: &ClusterStatus, _grab: u64) -> Vec<BlockId> {
        Vec::new()
    }

    fn next_input(&mut self, _ctx: EvalContext<'_>) -> InputResponse {
        InputResponse::NoInputAvailable
    }

    fn remaining(&self) -> usize {
        1
    }
}

/// Panics on one specific call (0 = `initial_input`), then behaves.
struct PanicOn {
    blocks: Vec<BlockId>,
    calls: u32,
    panic_on: u32,
}

impl InputProvider for PanicOn {
    fn initial_input(&mut self, _c: &ClusterStatus, grab: u64) -> Vec<BlockId> {
        let call = self.calls;
        self.calls += 1;
        if call == self.panic_on {
            panic!("golden provider panic (call {call})");
        }
        let n = (grab as usize).min(self.blocks.len());
        self.blocks.drain(..n).collect()
    }

    fn next_input(&mut self, ctx: EvalContext<'_>) -> InputResponse {
        let call = self.calls;
        self.calls += 1;
        if call == self.panic_on {
            panic!("golden provider panic (call {call})");
        }
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

/// One deterministic runtime, six jobs, every guard-rail event kind:
/// grab-limit clamping, duplicate dropping, the wedge watchdog, retried
/// and fatal provider faults, and graceful/fatal deadlines with a
/// partial sample.
fn guardrail_run() -> Vec<TraceEvent> {
    let make_world = || {
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let mut rng = DetRng::seed_from(23);
        let spec = DatasetSpec::small("g", 20, 5_000, SkewLevel::Zero, 23);
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
    };
    let k = 50; // == total matches: the full job needs every split
    let sampling_spec = |ds: &Arc<Dataset>| {
        build_sampling_job(
            ds,
            k,
            Policy::conservative(),
            ScanMode::Planted,
            SampleMode::FirstK,
            23,
        )
    };
    // Fault-free horizon of the full sampling job, to size the deadlines.
    let horizon = {
        let (mut rt, ds) = make_world();
        let (job, driver) = sampling_spec(&ds);
        let id = rt.submit(job, driver);
        rt.run_until_idle();
        assert!(!rt.job_result(id).failed);
        rt.job_result(id).response_time().as_millis()
    };

    let (mut rt, ds) = make_world();
    rt.enable_tracing();
    let blocks: Vec<_> = ds.splits().iter().map(|p| p.block).collect();
    let dyn_driver = |provider: Box<dyn InputProvider>| {
        Box::new(DynamicDriver::new(provider, Policy::conservative(), 20))
    };

    // Job 0: over-grabs and repeats splits — clamped and deduplicated.
    let (job, _) = sampling_spec(&ds);
    let id = rt.submit(
        job,
        dyn_driver(Box::new(OverGrabDup {
            blocks: blocks.clone(),
            calls: 0,
        })),
    );
    rt.run_until_idle();
    assert!(!rt.job_result(id).failed);

    // Job 1: stonewalls until the wedge watchdog fires.
    let (mut job, _) = sampling_spec(&ds);
    job.settings.max_idle_evaluations = 3;
    let id = rt.submit(job, dyn_driver(Box::new(Stonewall)));
    rt.run_until_idle();
    assert!(rt.job_result(id).failed);

    // Job 2: panics at submission with no retry budget — fatal.
    let (job, _) = sampling_spec(&ds);
    let id = rt.submit(
        job,
        dyn_driver(Box::new(PanicOn {
            blocks: blocks.clone(),
            calls: 0,
            panic_on: 0,
        })),
    );
    rt.run_until_idle();
    assert!(rt.job_result(id).failed);

    // Job 3: panics once mid-flight, inside a retry budget — recovers.
    let (mut job, _) = sampling_spec(&ds);
    job.settings.provider_retry_budget = 1;
    let id = rt.submit(
        job,
        dyn_driver(Box::new(PanicOn {
            blocks: blocks.clone(),
            calls: 0,
            panic_on: 1,
        })),
    );
    rt.run_until_idle();
    assert!(!rt.job_result(id).failed);

    // Job 4: graceful deadline at half the fault-free horizon — completes
    // with a partial sample.
    let (mut job, driver) = sampling_spec(&ds);
    job.settings.deadline = Some(SimDuration::from_millis(horizon / 2));
    job.settings.allow_partial = true;
    let id = rt.submit(job, driver);
    rt.run_until_idle();
    let r = rt.job_result(id);
    assert!(!r.failed && (r.output.len() as u64) < k);

    // Job 5: the same deadline without allow_partial — fatal.
    let (mut job, driver) = sampling_spec(&ds);
    job.settings.deadline = Some(SimDuration::from_millis(horizon / 2));
    let id = rt.submit(job, driver);
    rt.run_until_idle();
    assert!(rt.job_result(id).failed);

    let events = rt.take_trace();
    assert_replay_matches_live(&events, &rt, "fifo");
    events
}

#[test]
fn guardrail_trace_matches_golden_file() {
    let got = render(&guardrail_run());
    let path = guardrail_golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, &got).expect("write guardrail golden trace");
        return;
    }
    let want = fs::read_to_string(&path)
        .expect("tests/golden/guardrail_trace.txt missing — generate it with UPDATE_GOLDEN=1");
    assert_eq!(
        got, want,
        "guard-rail trace diverged from tests/golden/guardrail_trace.txt; \
         if the behaviour change is intentional, regenerate with UPDATE_GOLDEN=1 \
         and review the diff"
    );
}

/// Coverage guard for the guard-rail plane: the golden scenario must keep
/// producing every one of its event kinds.
#[test]
fn guardrail_schedule_exercises_every_guardrail_event_kind() {
    let events = guardrail_run();
    assert_plane_kinds("guardrail", &events);
    // Both outcomes of the two kinds that carry one.
    for fatal in [false, true] {
        assert!(
            events.iter().any(|e| matches!(
                e.kind,
                TraceKind::ProviderFault { fatal: f, .. } if f == fatal
            )),
            "no ProviderFault with fatal={fatal}"
        );
    }
    for graceful in [false, true] {
        assert!(
            events.iter().any(|e| matches!(
                e.kind,
                TraceKind::DeadlineExceeded { graceful: g, .. } if g == graceful
            )),
            "no DeadlineExceeded with graceful={graceful}"
        );
    }
}
