//! Scheduler dispatch cost at multi-tenant scale.
//!
//! Two views of the same question — what does one scheduling decision
//! cost when thousands of dynamic jobs are queued?
//!
//! * `assign/*` — the FIFO and Fair schedulers alone, with 1k / 10k
//!   runnable jobs queued, each handed the view the runtime builds for
//!   it: the first `free slots + VIEW_JOB_SLACK` jobs in the order its
//!   [`ViewPolicy`] names, marked incomplete. Its cost should not depend
//!   on how many jobs are queued behind that prefix.
//! * `heartbeat/*` — the whole runtime: one `MrRuntime::step()` with a
//!   steady backlog of 1k / 10k queued sampling jobs (completed jobs are
//!   resubmitted, so the backlog never drains). This is the number the
//!   query service pays per event; with the runnable-prefix views and
//!   per-node pending indexes it must grow sub-linearly from 1k to 10k.
//!
//! Results are written to `BENCH_sched.json` (name, mean_ns, iterations)
//! and the 1k→10k heartbeat growth ratio is printed for the gate.

use std::sync::Arc;

use criterion::{black_box, Criterion, Throughput};

use incmr_core::{build_sampling_job, Policy, SampleMode};
use incmr_data::{Dataset, DatasetSpec, SkewLevel};
use incmr_dfs::{ClusterTopology, EvenRoundRobin, Namespace};
use incmr_mapreduce::{
    ClusterConfig, CostModel, FairScheduler, FifoScheduler, JobId, MrRuntime, ScanMode, SchedJob,
    SchedView, TaskId, TaskScheduler, ViewPolicy,
};
use incmr_simkit::rng::DetRng;
use incmr_simkit::SimTime;

const NODES: usize = 10;

/// Jobs a prefix view holds beyond the free-slot count; the runtime's
/// `VIEW_JOB_SLACK` (`crates/mapreduce/src/runtime.rs`).
const VIEW_JOB_SLACK: usize = 64;

/// `jobs` runnable jobs, four pending tasks each with two local
/// replicas, over a 10-node cluster — the shape a heartbeat sees under a
/// deep backlog.
fn synthetic_jobs(jobs: u32) -> Vec<SchedJob> {
    (0..jobs)
        .map(|j| {
            let tasks: Vec<TaskId> = (0..4).map(TaskId).collect();
            let mut local_by_node = vec![Vec::new(); NODES];
            for (i, &t) in tasks.iter().enumerate() {
                local_by_node[(j as usize + i) % NODES].push(t);
                local_by_node[(j as usize + i + 3) % NODES].push(t);
            }
            SchedJob {
                job: JobId(j),
                submit_seq: j as u64,
                running: j % 3,
                pending_total: tasks.len() as u32,
                head_replica_less: vec![false; tasks.len()],
                head: tasks,
                local_by_node,
                banned_nodes: Vec::new(),
            }
        })
        .collect()
}

/// The view the runtime hands `scheduler` at a heartbeat with one free
/// slot per node: the first `free + VIEW_JOB_SLACK` jobs in submit or
/// share order, presented in submit order.
fn runtime_view(scheduler: &dyn TaskScheduler, mut jobs: Vec<SchedJob>) -> SchedView {
    let free_slots = vec![1; NODES];
    let cap = free_slots.iter().sum::<u32>() as usize + VIEW_JOB_SLACK;
    let total = jobs.len();
    match scheduler.view_policy() {
        ViewPolicy::Complete => {}
        ViewPolicy::SubmitOrder => jobs.truncate(cap),
        ViewPolicy::ShareOrder => {
            jobs.sort_by_key(|j| (j.running, j.submit_seq));
            jobs.truncate(cap);
            jobs.sort_by_key(|j| j.submit_seq);
        }
    }
    SchedView {
        now: SimTime::from_secs(30),
        free_slots,
        complete: jobs.len() == total,
        jobs,
    }
}

fn bench_assign(c: &mut Criterion) {
    let mut g = c.benchmark_group("assign");
    for &jobs in &[1_000u32, 10_000] {
        let mut cases: Vec<(String, Box<dyn TaskScheduler>)> = vec![
            (
                format!("fifo_{jobs}_queued"),
                Box::new(FifoScheduler::new()),
            ),
            (
                format!("fair_{jobs}_queued"),
                Box::new(FairScheduler::paper_default()),
            ),
        ];
        for (name, scheduler) in &mut cases {
            let view = runtime_view(scheduler.as_ref(), synthetic_jobs(jobs));
            g.throughput(Throughput::Elements(NODES as u64));
            g.bench_function(name.as_str(), |b| {
                b.iter(|| black_box(scheduler.assign(&view).len()))
            });
        }
    }
    g.finish();
}

/// A runtime with `jobs` queued dynamic sampling jobs over one shared
/// dataset copy — the multi-tenant service's cluster at saturation.
fn queued_world(jobs: u32) -> (MrRuntime, Arc<Dataset>) {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(42);
    let spec = DatasetSpec::small("schedbench", 8, 1_000, SkewLevel::Moderate, 42);
    let ds = Arc::new(Dataset::build(
        &mut ns,
        spec,
        &mut EvenRoundRobin::new(),
        &mut rng,
    ));
    let mut rt = MrRuntime::new(
        ClusterConfig::paper_multi_user(),
        CostModel::paper_default(),
        ns,
        Box::new(FifoScheduler::new()),
    );
    for seed in 0..jobs {
        submit_one(&mut rt, &ds, seed as u64);
    }
    (rt, ds)
}

fn submit_one(rt: &mut MrRuntime, ds: &Arc<Dataset>, seed: u64) {
    let (spec, driver) = build_sampling_job(
        ds,
        5,
        Policy::la(),
        ScanMode::Planted,
        SampleMode::FirstK,
        seed,
    );
    rt.submit(spec, driver);
}

fn bench_heartbeat(c: &mut Criterion) {
    let mut g = c.benchmark_group("heartbeat");
    for &jobs in &[1_000u32, 10_000] {
        let (mut rt, ds) = queued_world(jobs);
        let mut seed = jobs as u64;
        g.bench_function(format!("step_{jobs}_queued"), |b| {
            b.iter(|| {
                let progressed = rt.step();
                // Hold the backlog at `jobs`: resubmit every completion.
                for id in rt.take_completed() {
                    rt.release_job_result(id);
                    seed += 1;
                    submit_one(&mut rt, &ds, seed);
                }
                black_box(progressed)
            })
        });
        // The backlog really was held at scale throughout the run.
        assert!(
            rt.cluster_status().running_jobs >= jobs.saturating_sub(1),
            "backlog drained mid-measurement"
        );
    }
    g.finish();
}

/// The mean of a row, if the run's name filter let it run.
fn mean_of(c: &Criterion, name: &str) -> Option<f64> {
    c.results()
        .iter()
        .find(|r| r.name == name)
        .map(|r| r.mean_ns)
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    bench_assign(&mut c);
    bench_heartbeat(&mut c);
    if let (Some(step_1k), Some(step_10k)) = (
        mean_of(&c, "heartbeat/step_1000_queued"),
        mean_of(&c, "heartbeat/step_10000_queued"),
    ) {
        println!(
            "heartbeat growth 1k -> 10k queued jobs: {:.2}x (linear would be ~10x)",
            step_10k / step_1k
        );
    }
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched.json");
    c.write_json(out).expect("write BENCH_sched.json");
}
