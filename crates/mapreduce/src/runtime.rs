//! The discrete-event MapReduce runtime: JobTracker, TaskTrackers, and the
//! physical model, in one deterministic event loop.
//!
//! ## Execution model
//!
//! A submitted job's [`GrowthDriver`] supplies its initial splits; each
//! split becomes a pending map task. At every *scheduling point* (submit,
//! input added, task finished, heartbeat) the pluggable [`TaskScheduler`]
//! matches free map slots to pending tasks. A running map task passes
//! through three stages, each modelled on shared resources:
//!
//! 1. **start-up overhead** — fixed delay (Hadoop task launch),
//! 2. **disk read** — a flow of `split-bytes` on the source disk's
//!    processor-sharing resource; non-local reads add a network transfer,
//! 3. **CPU** — a flow of `records × cost` core-µs on the node's shared
//!    CPU resource.
//!
//! Map *semantics* (the user's mapper over real records, plus the optional
//! combiner and the hash partitioning into `mapred.reduce.tasks` buckets)
//! execute on the data-plane worker pool, submitted at dispatch; the
//! stages only decide *when* the results land. Each completed map's
//! pre-partitioned output is merged into the per-reduce shuffle buffers at
//! its simulated completion (streaming shuffle — see [`crate::shuffle`]),
//! so entering the reduce phase costs O(`reduce_tasks`). Dynamic jobs are
//! re-evaluated every `EvaluationInterval`; once the driver declares
//! end-of-input and all scheduled maps finish, the buffered reduce tasks
//! (one for the paper's sampling jobs) queue for per-node reduce slots,
//! run the user reducer on the data plane, and complete the job when the
//! last one commits.
//!
//! Everything — including the schedulers' tie-breaking — is deterministic,
//! so a run is a pure function of configuration and seeds.
//!
//! ## Fault tolerance
//!
//! [`MrRuntime::inject_cluster_faults`] arms the cluster-level fault model
//! (see [`crate::faults`] and DESIGN.md §8): nodes die and rejoin on a
//! simulated schedule, map and reduce attempts fail with seeded
//! probabilities, slow nodes straggle, and the runtime answers with
//! Hadoop's semantics — killed attempts are cancelled mid-stage, completed
//! maps whose host died are re-executed (their stored output is gone),
//! laggard attempts get speculative backups, and jobs blacklist nodes that
//! repeatedly fail their attempts. Map output is merged into the shuffle
//! in *task-id order* ([`ShuffleState::merge_task`]), so the surviving
//! output is a pure function of the task set — identical across thread
//! counts and, for completed jobs, identical to the fault-free run.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

use incmr_dfs::{BlockId, DiskId, Namespace, NodeId, RackId};
use incmr_simkit::resource::{FlowId, PsResource};
use incmr_simkit::rng::DetRng;
use incmr_simkit::{EventId, Sim, SimDuration, SimTime};

use crate::approx::{rel_to_ppm, AggOutcome, AggProbe, AggReport, Estimator};
use crate::cluster::{ClusterConfig, ClusterStatus};
use crate::conf::keys;
use crate::cost::CostModel;
use crate::exec::Key;
use crate::faults::{pick_speculative, ClusterFaultPlan, FaultConfigError, SpecCandidate};
use crate::job::{
    parse_conf, EvalContext, GrowthDirective, GrowthDriver, JobConfigError, JobError, JobId,
    JobProgress, JobResult, JobSpec, ProviderError, ProviderStage, TaskId,
};
use crate::memo::{MemoProbe, MemoStore};
use crate::metrics::{ClusterMetrics, METRICS_INTERVAL};
use crate::obs::{AuditDirective, AuditRecord, MetricsRegistry};
use crate::parallel::{
    MapTaskResult, MapUnit, ParallelExecutor, ReduceTaskResult, ReduceUnit, UnitHandle,
};
use crate::scheduler::{SchedJob, SchedView, TaskScheduler, ViewPolicy};
use crate::shuffle::ShuffleState;
use crate::trace::{TraceEvent, TraceKind};
use incmr_data::Record;

/// Default livelock-watchdog threshold: a job whose driver produces this
/// many consecutive unproductive evaluations (no new splits) while nothing
/// is running or pending is failed as wedged instead of spinning its
/// evaluation tick forever. Override per job with
/// `dynamic.job.max.idle.evaluations` (`0` disables). The default is
/// generous: an honest provider with nothing outstanding either ends its
/// input or asks for work within a handful of evaluations.
pub const DEFAULT_MAX_IDLE_EVALUATIONS: u32 = 256;

/// Extra jobs (beyond the free-slot count) included in a prefix scheduling
/// view (see [`ViewPolicy`]). One heartbeat launches at most `free_total`
/// tasks, so a prefix this deep decides identically to the full walk in
/// all but pathological blacklist patterns — while keeping the per-
/// heartbeat view cost independent of the total queued-job count.
const VIEW_JOB_SLACK: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Heartbeat {
        node: u16,
    },
    OverheadDone {
        job: JobId,
        task: TaskId,
        attempt: u32,
    },
    DiskWake {
        disk: u32,
    },
    NetworkDone {
        job: JobId,
        task: TaskId,
        attempt: u32,
    },
    CpuWake {
        node: u16,
    },
    EvalTick {
        job: JobId,
    },
    ReduceDone {
        job: JobId,
        reduce: u32,
    },
    NodeDown {
        node: u16,
    },
    NodeUp {
        node: u16,
    },
    Deadline {
        job: JobId,
    },
    RepairTick,
}

/// What the guard rails did to one validated `AddInput` batch (the audit
/// log records it alongside the directive).
#[derive(Debug, Clone, Copy, Default)]
struct AddOutcome {
    /// Genuinely new splits scheduled.
    granted: u32,
    /// The grab-limit clamp truncated the batch.
    clamped: bool,
    /// Duplicate splits dropped by the dedup guard.
    duplicates: u32,
}

/// A completed job's output pairs and, for an aggregate job, the
/// estimator's verdict.
type JobOutput = (Vec<(Key, Record)>, Option<AggReport>);

/// Which modelled stage a running map attempt is in, holding the pending
/// event or resource flow so the attempt can be cancelled mid-stage when
/// its node dies or it loses a speculative race.
#[derive(Debug, Clone, Copy)]
enum AttemptStage {
    /// Start-up overhead or a remote transfer: a timer event.
    Timer(EventId),
    /// Disk read or CPU: a flow on `MrRuntime::stations[station]`.
    Flow { station: usize, flow: FlowId },
}

/// Where a map attempt's output comes from: freshly submitted data-plane
/// work, or a result replayed from the memo store. A memoized attempt
/// keeps its *full* simulated schedule (slot, overhead, disk, CPU) so warm
/// runs stay byte-identical to cold ones; only the host recomputation is
/// skipped.
enum MapWork {
    Computed(UnitHandle<MapTaskResult>),
    Cached(MapTaskResult),
}

/// One in-flight attempt of a map task. Ordinarily a task has at most one;
/// speculative execution adds a second racing attempt on another node.
struct MapAttempt {
    /// Attempt ordinal within its task (0-based start order).
    id: u32,
    node: NodeId,
    local: bool,
    speculative: bool,
    /// Dispatch instant (drives the laggard test for speculation).
    started: SimTime,
    stage: AttemptStage,
    /// Claim on the attempt's data-plane result: submitted (or replayed
    /// from the memo store) at dispatch, consumed at simulated completion.
    /// Dropped (not joined) on a failed or killed attempt — the next
    /// attempt submits afresh.
    result: Option<MapWork>,
    /// The replica this attempt intends to read, fixed at dispatch —
    /// only under DataNode-death semantics, where a death before the
    /// read starts is an observable failover (`None` otherwise).
    read_disk: Option<DiskId>,
}

struct TaskEntry {
    block: BlockId,
    /// When the split was first admitted (drives the wait-to-dispatch
    /// histogram, measured once per task).
    added_at: SimTime,
    /// When the task last entered the pending queue (admission or requeue;
    /// drives the per-scheduler queue-wait histogram, measured per
    /// non-speculative dispatch).
    enqueued_at: SimTime,
    /// The wait-to-dispatch sample was already taken for this task.
    first_dispatched: bool,
    /// In the job's pending queue, waiting for a slot.
    queued: bool,
    /// Completed (a non-done, non-queued task has ≥ 1 running attempt).
    done: bool,
    /// The shuffle already holds this task's output. Stays true across
    /// node-loss re-execution: map output is a pure function of the block,
    /// so the re-run's identical output is dropped instead of re-merged.
    merged: bool,
    /// Where the winning attempt ran — re-executed if that node dies
    /// while the job is still mapping (its stored map output is lost).
    completed_node: Option<NodeId>,
    attempts_started: u32,
    /// Counted (non-killed) failures, against the attempt budget.
    failures: u32,
    running: Vec<MapAttempt>,
    /// Dropped by a graceful deadline: never (re)queued again. The split's
    /// output, if any was merged, stays in the shuffle.
    abandoned: bool,
    /// Key under which this task sits in the job's `spec_candidates` index
    /// (`None` = not a speculation candidate right now).
    spec_key: Option<SimTime>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReduceState {
    Pending,
    Running { node: NodeId },
    Done,
}

/// One reduce task: its streamed-in shuffle partition (see
/// [`crate::shuffle`]) plus its in-flight data-plane work and output.
struct ReduceEntry {
    state: ReduceState,
    /// When the current attempt took its slot (reduce-latency histogram).
    started_at: SimTime,
    buffer: crate::shuffle::PartitionBuffer,
    /// Claim on the reduce's data-plane result: submitted when the task
    /// is assigned a slot, joined at its simulated completion.
    pending: Option<UnitHandle<ReduceTaskResult>>,
    /// The scheduled `ReduceDone` event, cancelled if the host dies.
    timer: Option<EventId>,
    /// Attempts consumed (counted failures; kills are free).
    attempts: u32,
    output: Vec<(Key, Record)>,
}

/// The armed cluster fault model: the plan plus independent deterministic
/// streams for map- and reduce-attempt fault draws.
struct ClusterFaultState {
    plan: ClusterFaultPlan,
    map_rng: DetRng,
    reduce_rng: DetRng,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobPhase {
    Map,
    Reduce,
    Done,
}

struct JobEntry {
    id: JobId,
    spec: JobSpec,
    driver: Box<dyn GrowthDriver>,
    tasks: Vec<TaskEntry>,
    known_blocks: HashSet<BlockId>,
    pending: Vec<TaskId>,
    /// Per-node index of pending tasks whose split has a replica on that
    /// node (lazily cleaned — entries may reference dispatched tasks;
    /// stale entries are popped from the front as they surface).
    pending_by_node: Vec<VecDeque<TaskId>>,
    running: u32,
    completed: u32,
    end_of_input: bool,
    phase: JobPhase,
    submit_seq: u64,
    submit_time: SimTime,
    records_processed: u64,
    map_output_records: u64,
    shuffle_bytes: u64,
    local_tasks: u32,
    task_failures: u32,
    /// Per-reduce shuffle buffers, merged into incrementally as maps
    /// complete.
    shuffle: ShuffleState,
    combiner_input_records: u64,
    combiner_output_records: u64,
    reduce_tasks: u32,
    reduces: Vec<ReduceEntry>,
    reduces_done: u32,
    /// Sum and count of completed-map attempt durations (ms), feeding the
    /// speculation laggard threshold.
    map_ms_sum: u64,
    map_ms_count: u32,
    /// Counted attempt failures per node, toward the blacklist threshold.
    node_failures: Vec<u32>,
    /// Nodes this job refuses to run on (Hadoop per-job blacklist).
    banned_nodes: Vec<bool>,
    /// Recoverable provider failures this job may still absorb
    /// (`dynamic.provider.retry.budget`).
    provider_retries_left: u32,
    /// Livelock watchdog threshold (`0` = disabled) and its running count
    /// of consecutive unproductive evaluations with nothing outstanding.
    max_idle_evaluations: u32,
    idle_evaluations: u32,
    /// Degrade to partial output on deadline expiry instead of failing.
    allow_partial: bool,
    /// A graceful deadline fired: input is closed and unfinished splits
    /// are abandoned rather than retried.
    deadline_hit: bool,
    /// Per-job latency histograms (see [`crate::obs`]).
    hist: MetricsRegistry,
    /// Last driver consultation (submission counts), feeding the
    /// provider-evaluation-interval histogram.
    last_eval_at: Option<SimTime>,
    /// First map completion — start of the streaming shuffle-merge window
    /// closed at `ShuffleReady`.
    first_merge_at: Option<SimTime>,
    /// The `running` value under which this job sits in the runtime's
    /// runnable indexes (`None` = not runnable: no pending map work).
    share_key: Option<u32>,
    /// This job's contribution to the runtime's `queued_map_tasks`
    /// counter (pending map tasks while in the map phase, else 0).
    counted_pending: u32,
    /// Speculation candidates — tasks with exactly one non-speculative
    /// attempt in flight — keyed by attempt start time (oldest first).
    spec_candidates: BTreeSet<(SimTime, u32)>,
    /// Stable identity of the job's computation (memo-sharing key):
    /// `mapred.job.signature` when set, else a hash of the full conf.
    signature: u64,
    /// Standing query (`dynamic.job.continuous`): instead of wedging when
    /// its provider has nothing to do, the job parks and `evolve` wakes it.
    continuous: bool,
    /// A parked standing query: no EvalTick in flight; `evolve` re-arms.
    parked: bool,
    /// Blocks that arrived via `evolve` since the last driver consultation
    /// (delivered once through `EvalContext::arrived`).
    arrived: Vec<BlockId>,
    /// Approximate-aggregation plane: `Some` only for estimating jobs
    /// (`mapred.agg.error` set).
    estimator: Option<Estimator>,
    result: Option<JobResult>,
}

impl JobEntry {
    fn progress(&self) -> JobProgress {
        JobProgress {
            job: self.id,
            splits_added: self.tasks.len() as u32,
            splits_completed: self.completed,
            splits_running: self.running,
            splits_pending: self.pending.len() as u32,
            records_processed: self.records_processed,
            map_output_records: self.map_output_records,
        }
    }
}

struct NodeState {
    free_slots: u32,
    free_reduce_slots: u32,
    /// False between a scheduled death and rejoin: no slots, no heartbeats,
    /// and every attempt the node hosted is killed. The node's *disks* keep
    /// serving (TaskTracker death, not DataNode death) — what dies with the
    /// tracker is its locally stored map output.
    alive: bool,
    /// Whether this node's self-perpetuating heartbeat chain is running.
    chain_live: bool,
}

/// A processor-sharing station — a disk or a node's CPU: the shared
/// resource, the map attempt each flow serves, and the wake-up event
/// pending at its next completion.
struct Station {
    res: PsResource,
    flows: HashMap<FlowId, (JobId, TaskId, u32)>,
    wake: Option<EventId>,
    /// The event that wakes this station.
    on_wake: Event,
}

impl Station {
    fn new(capacity_per_sec: f64, on_wake: Event) -> Station {
        Station {
            res: PsResource::new(capacity_per_sec),
            flows: HashMap::new(),
            wake: None,
            on_wake,
        }
    }

    /// Start a flow of `amount` for an attempt and re-arm the wake-up.
    fn start(&mut self, sim: &mut Sim<Event>, amount: f64, owner: (JobId, TaskId, u32)) -> FlowId {
        let flow = self.res.add_flow(sim.now(), amount);
        self.flows.insert(flow, owner);
        self.rearm(sim);
        flow
    }

    /// Abort a killed attempt's flow and re-arm the wake-up.
    fn cancel(&mut self, sim: &mut Sim<Event>, flow: FlowId) {
        self.res.cancel_flow(sim.now(), flow);
        self.flows.remove(&flow);
        self.rearm(sim);
    }

    /// At the wake-up: advance to `now` and take the completed flows. The
    /// caller removes each flow's owner as it handles it, so an attempt
    /// killed meanwhile is skipped, then re-arms.
    fn drain(&mut self, now: SimTime) -> Vec<FlowId> {
        self.wake = None;
        self.res.advance(now);
        self.res.take_completed()
    }

    /// Replace the pending wake-up with one at the next completion.
    fn rearm(&mut self, sim: &mut Sim<Event>) {
        if let Some(old) = self.wake.take() {
            sim.cancel(old);
        }
        if let Some(at) = self.res.next_completion(sim.now()) {
            self.wake = Some(sim.schedule_at(at, self.on_wake));
        }
    }
}

/// The simulated MapReduce cluster: submit jobs, run the clock, collect
/// results and metrics.
pub struct MrRuntime {
    cfg: ClusterConfig,
    cost: CostModel,
    namespace: Namespace,
    scheduler: Box<dyn TaskScheduler>,
    sim: Sim<Event>,
    jobs: Vec<JobEntry>,
    nodes: Vec<NodeState>,
    /// Every disk (indexed by `DiskId`), then every node's CPU.
    stations: Vec<Station>,
    completed: VecDeque<JobId>,
    /// Runnable jobs (map phase, pending work) by `(submit_seq, index)` —
    /// the FIFO dispatch order. Maintained by `refresh_sched_index`.
    runnable_by_seq: BTreeSet<(u64, u32)>,
    /// The same jobs by `(running, submit_seq, index)` — the fair-share
    /// deficit order the Fair scheduler dispatches in.
    runnable_by_share: BTreeSet<(u32, u64, u32)>,
    /// Jobs worth offering speculative backups: map phase, no pending
    /// work, at least one speculation candidate.
    spec_jobs: BTreeSet<u32>,
    /// Cluster-wide pending map tasks, kept O(1) for `cluster_status`.
    queued_map_tasks: u64,
    /// Reduce tasks waiting for a reduce slot, in creation order.
    pending_reduces: VecDeque<(JobId, u32)>,
    metrics: ClusterMetrics,
    /// Resource totals snapshotted at the last `reset_metrics`, subtracted
    /// from cumulative counters so metrics windows restart cleanly.
    metrics_base: (f64, f64),
    /// Number of per-node heartbeat chains currently self-perpetuating.
    heartbeats_live: u32,
    active_jobs: u32,
    cluster_faults: Option<ClusterFaultState>,
    trace: Option<Vec<TraceEvent>>,
    /// Cluster-wide latency histograms, merged across all jobs.
    obs_registry: MetricsRegistry,
    /// Provider-decision audit log, recording every driver consultation
    /// (`None` until `enable_audit`).
    audit: Option<Vec<AuditRecord>>,
    /// Data-plane worker pool (see [`crate::parallel`]); serial at
    /// `Parallelism::SERIAL`. Never touches simulated time.
    executor: ParallelExecutor,
    /// The memoization plane (`None` until `enable_memoization`): cached
    /// per-split map output keyed by `(job signature, block, version)`.
    memo: Option<MemoStore>,
    /// Standing queries currently parked (no EvalTick in flight). When
    /// every active job is parked, heartbeat chains expire so the event
    /// queue can drain; `evolve` restarts them.
    parked_jobs: u32,
    /// DataNode-death semantics armed (`enable_data_loss`): a node outage
    /// strips its replicas from the namespace instead of leaving its
    /// disks serving. Off by default — the PR-3 fault model is
    /// TaskTracker death, where only stored map output dies.
    data_loss: bool,
    /// Re-replication daemon period (`enable_re_replication`); `None`
    /// leaves lost replicas lost.
    repair_interval: Option<SimDuration>,
    /// A `RepairTick` is in flight. Ticks are armed only while
    /// under-replicated blocks exist, so `run_until_idle` can drain.
    repair_scheduled: bool,
    /// Blocks below their placement-time replication target that still
    /// have a live replica to copy from.
    under_replicated: BTreeSet<BlockId>,
}

impl MrRuntime {
    /// Build a runtime over a populated namespace.
    pub fn new(
        cfg: ClusterConfig,
        cost: CostModel,
        namespace: Namespace,
        scheduler: Box<dyn TaskScheduler>,
    ) -> Self {
        let topo = cfg.topology;
        assert_eq!(
            topo,
            *namespace.topology(),
            "namespace must be laid out on the runtime's topology"
        );
        let nodes = (0..topo.num_nodes())
            .map(|_| NodeState {
                free_slots: cfg.map_slots_per_node,
                free_reduce_slots: cfg.reduce_slots_per_node,
                alive: true,
                chain_live: false,
            })
            .collect();
        let disks = (0..topo.num_disks())
            .map(|disk| Station::new(cost.disk_bw_bytes_per_sec, Event::DiskWake { disk }));
        let cpus = (0..topo.num_nodes())
            .map(|node| Station::new(topo.cores_per_node() as f64 * 1e6, Event::CpuWake { node }));
        let metrics = ClusterMetrics::new(
            SimTime::ZERO,
            topo.num_cores(),
            topo.num_disks(),
            cfg.total_map_slots(),
            METRICS_INTERVAL,
        );
        MrRuntime {
            cfg,
            cost,
            namespace,
            scheduler,
            sim: Sim::new(),
            jobs: Vec::new(),
            nodes,
            stations: disks.chain(cpus).collect(),
            completed: VecDeque::new(),
            runnable_by_seq: BTreeSet::new(),
            runnable_by_share: BTreeSet::new(),
            spec_jobs: BTreeSet::new(),
            queued_map_tasks: 0,
            pending_reduces: VecDeque::new(),
            metrics,
            metrics_base: (0.0, 0.0),
            heartbeats_live: 0,
            active_jobs: 0,
            cluster_faults: None,
            trace: None,
            obs_registry: MetricsRegistry::new(),
            audit: None,
            executor: ParallelExecutor::new(cfg.parallelism),
            memo: None,
            parked_jobs: 0,
            data_loss: false,
            repair_interval: None,
            repair_scheduled: false,
            under_replicated: BTreeSet::new(),
        }
    }

    /// Arm DataNode-death semantics: a node outage permanently strips the
    /// dead node's replicas from the namespace (recording a
    /// [`TraceKind::ReplicaLost`] per block), reads fail over to surviving
    /// replicas, and a block that loses its last replica makes dependent
    /// jobs fail with [`JobError::InputLost`] — or degrade to a partial
    /// result under `mapred.job.allow.partial`. A rejoining node comes
    /// back *empty*; only re-replication restores its data. Off by
    /// default: the stock fault model is TaskTracker death, where disks
    /// keep serving (see DESIGN.md §14).
    pub fn enable_data_loss(&mut self) {
        assert!(
            self.jobs.is_empty(),
            "arm data-loss semantics before submitting jobs"
        );
        self.data_loss = true;
    }

    /// Arm the re-replication daemon (implies [`MrRuntime::enable_data_loss`]):
    /// every `interval` of simulated time while under-replicated blocks
    /// exist, one pass restores at most one replica per block towards its
    /// placement-time target, preferring racks the block does not cover
    /// yet. A zero interval is rejected (the tick would livelock the
    /// event loop).
    pub fn enable_re_replication(&mut self, interval: SimDuration) -> Result<(), FaultConfigError> {
        if interval == SimDuration::ZERO {
            return Err(FaultConfigError::ZeroRepairInterval);
        }
        self.enable_data_loss();
        self.repair_interval = Some(interval);
        Ok(())
    }

    /// Turn on the memoization plane: completed map tasks cache their
    /// output keyed by `(job signature, block, version)`, and later jobs
    /// with the same signature replay cached splits instead of recomputing
    /// them (the attempt keeps its full simulated schedule, so results and
    /// traces stay byte-identical to a cold run). See DESIGN.md §13.
    pub fn enable_memoization(&mut self) {
        if self.memo.is_none() {
            self.memo = Some(MemoStore::new());
        }
    }

    /// The memo store, when memoization is enabled (read access for tests
    /// and tooling).
    pub fn memo_store(&self) -> Option<&MemoStore> {
        self.memo.as_ref()
    }

    /// Start recording a [`TraceEvent`] timeline (see [`crate::trace`]).
    pub fn enable_tracing(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// Drain the recorded trace (empty if tracing was never enabled);
    /// tracing stays enabled with a fresh buffer.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        match self.trace.take() {
            Some(events) => {
                self.trace = Some(Vec::new());
                events
            }
            None => Vec::new(),
        }
    }

    /// Start recording the provider-decision audit log (see
    /// [`crate::obs::AuditRecord`]). Only consultations after this call
    /// are audited, so enable it before submitting the jobs of interest.
    pub fn enable_audit(&mut self) {
        if self.audit.is_none() {
            self.audit = Some(Vec::new());
        }
    }

    /// The audit log so far (empty if auditing was never enabled).
    pub fn audit_log(&self) -> &[AuditRecord] {
        self.audit.as_deref().unwrap_or(&[])
    }

    /// Drain the audit log; auditing stays enabled with a fresh buffer.
    pub fn take_audit(&mut self) -> Vec<AuditRecord> {
        match self.audit.take() {
            Some(records) => {
                self.audit = Some(Vec::new());
                records
            }
            None => Vec::new(),
        }
    }

    /// The cluster-wide latency histograms, merged across every job
    /// (always collected — simulated-time arithmetic only, so the cost is
    /// a few integer increments per task).
    pub fn histograms(&self) -> &MetricsRegistry {
        &self.obs_registry
    }

    /// Record a trace event on behalf of an embedding layer (a query
    /// service front end, a workload harness): the event lands in the
    /// runtime's trace buffer and counters exactly like the runtime's
    /// own, so admission decisions interleave with task events in one
    /// timeline.
    pub fn record_event(&mut self, kind: TraceKind) {
        self.record(kind);
    }

    /// Record one event: fold it into the counters
    /// (`ClusterMetrics::absorb`, the only writer of every event-backed
    /// counter) and, when tracing is on, append it to the trace.
    fn record(&mut self, kind: TraceKind) {
        self.metrics.absorb(&kind);
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent {
                time: self.sim.now(),
                kind,
            });
        }
    }

    /// Record one latency sample into the cluster-wide registry and the
    /// job's own.
    fn obs_record(&mut self, id: JobId, f: impl Fn(&mut MetricsRegistry)) {
        f(&mut self.obs_registry);
        f(&mut self.job_mut(id).hist);
    }

    fn audit_push(&mut self, record: AuditRecord) {
        if let Some(audit) = &mut self.audit {
            audit.push(record);
        }
    }

    /// Disarm the cluster fault model (test helper).
    #[doc(hidden)]
    pub fn faults_off_for_test(&mut self) {
        self.cluster_faults = None;
    }

    /// Arm the cluster-level fault model (node outages, stragglers, map and
    /// reduce attempt faults, speculation, blacklisting — see
    /// [`crate::faults`]). Must be called before any job is submitted.
    pub fn inject_cluster_faults(
        &mut self,
        plan: ClusterFaultPlan,
    ) -> Result<(), FaultConfigError> {
        plan.validate(self.nodes.len())?;
        assert!(
            self.jobs.is_empty(),
            "inject cluster faults before submitting jobs"
        );
        // Stragglers: a slow node's CPU drains map work proportionally
        // slower (CPU dominates simulated map time, so speed ≈ slowdown).
        let cores_us = self.cfg.topology.cores_per_node() as f64 * 1e6;
        for (i, &speed) in plan.node_speed.iter().enumerate() {
            let cpu = self.cpu_station(i as u16);
            self.stations[cpu].res = PsResource::new(cores_us * speed);
        }
        for outage in &plan.outages {
            self.sim.schedule_at(
                outage.down_at,
                Event::NodeDown {
                    node: outage.node.0,
                },
            );
            if let Some(up) = outage.up_at {
                self.sim.schedule_at(
                    up,
                    Event::NodeUp {
                        node: outage.node.0,
                    },
                );
            }
        }
        let root = DetRng::seed_from(plan.seed);
        let map_rng = root.fork_named("map-faults");
        let reduce_rng = root.fork_named("reduce-faults");
        self.cluster_faults = Some(ClusterFaultState {
            plan,
            map_rng,
            reduce_rng,
        });
        Ok(())
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The namespace (read access for callers building job inputs).
    pub fn namespace(&self) -> &Namespace {
        &self.namespace
    }

    /// The evolve API: mutate the namespace in place — append blocks,
    /// rewrite blocks ([`Namespace::append_blocks`] /
    /// [`Namespace::mutate_blocks`], typically via `Dataset::append` /
    /// `Dataset::mutate`) — at the current simulated time.
    ///
    /// If new blocks appeared, the runtime records a job-less
    /// [`TraceKind::InputArrived`] event, hands the new block ids to every
    /// live standing query (`dynamic.job.continuous`) through
    /// [`EvalContext::arrived`], and wakes parked ones with an immediate
    /// re-evaluation. In-place mutations need no wakeup: they bump block
    /// versions, and the memo plane's next probe sees the staleness.
    pub fn evolve<R>(&mut self, f: impl FnOnce(&mut Namespace) -> R) -> R {
        let before = self.namespace.num_blocks();
        let out = f(&mut self.namespace);
        let after = self.namespace.num_blocks();
        if after > before {
            let arrived: Vec<BlockId> = (before as u32..after as u32).map(BlockId).collect();
            self.record(TraceKind::InputArrived {
                splits: arrived.len() as u32,
            });
            let ids: Vec<JobId> = self
                .jobs
                .iter()
                .filter(|j| j.continuous && j.phase == JobPhase::Map && !j.end_of_input)
                .map(|j| j.id)
                .collect();
            let mut woke = false;
            for id in ids {
                self.job_mut(id).arrived.extend(arrived.iter().copied());
                if self.job(id).parked {
                    self.unpark(id);
                    self.sim
                        .schedule_after(SimDuration::ZERO, Event::EvalTick { job: id });
                    woke = true;
                }
            }
            if woke {
                // Chains may have expired while every active job was
                // parked; the woken query's AddInputs need them back.
                self.ensure_heartbeats();
            }
        }
        out
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Point-in-time cluster load snapshot (what Input Providers receive).
    /// Dead nodes drop out of both totals: Input Providers see the lost
    /// capacity, exactly as a JobTracker stops counting an expired tracker.
    pub fn cluster_status(&self) -> ClusterStatus {
        let alive = self.nodes.iter().filter(|n| n.alive).count() as u32;
        let total = alive * self.cfg.map_slots_per_node;
        let free: u32 = self
            .nodes
            .iter()
            .filter(|n| n.alive)
            .map(|n| n.free_slots)
            .sum();
        // O(1): maintained by `refresh_sched_index` at every mutation of a
        // job's pending queue or phase (Input Providers call this on every
        // evaluation, so a per-job walk would be quadratic at scale).
        let queued = self.queued_map_tasks.min(u32::MAX as u64) as u32;
        ClusterStatus {
            total_map_slots: total,
            occupied_map_slots: total.saturating_sub(free),
            running_jobs: self.active_jobs,
            queued_map_tasks: queued,
        }
    }

    /// Submit a job with its growth driver. Takes effect immediately (at
    /// the current simulated time).
    ///
    /// # Panics
    /// Panics on a malformed configuration — see [`MrRuntime::try_submit`]
    /// for the checked variant. A misbehaving *driver* never panics the
    /// runtime: provider faults are sandboxed and fail only their job.
    pub fn submit(&mut self, spec: JobSpec, driver: Box<dyn GrowthDriver>) -> JobId {
        match self.try_submit(spec, driver) {
            Ok(id) => id,
            Err(e) => panic!("invalid job configuration: {e}"),
        }
    }

    /// Submit a job, rejecting a malformed configuration (the checks of
    /// [`JobSpecBuilder::try_build`](crate::JobSpecBuilder::try_build))
    /// with a typed error instead of panicking. The driver's
    /// `initial_input` runs under the provider sandbox: a panic or invalid
    /// directive there consumes the job's retry budget or fails the job,
    /// but always yields a valid `JobId`.
    pub fn try_submit(
        &mut self,
        spec: JobSpec,
        driver: Box<dyn GrowthDriver>,
    ) -> Result<JobId, JobConfigError> {
        let id = JobId(self.jobs.len() as u32);
        let conf = parse_conf(&spec.conf)?;
        let allow_partial = spec.conf.get_bool(keys::ALLOW_PARTIAL);
        let continuous = spec.conf.get_bool(keys::CONTINUOUS);
        // Snapshot before this job is registered, so the provider's first
        // look at the cluster excludes its own (not yet running) job.
        let status = self.cluster_status();
        let interval = driver.evaluation_interval();
        let num_nodes = self.cfg.topology.num_nodes() as usize;
        let entry = JobEntry {
            id,
            spec,
            driver,
            tasks: Vec::new(),
            known_blocks: HashSet::new(),
            pending: Vec::new(),
            pending_by_node: vec![VecDeque::new(); num_nodes],
            running: 0,
            completed: 0,
            end_of_input: false,
            phase: JobPhase::Map,
            submit_seq: id.0 as u64,
            submit_time: self.sim.now(),
            records_processed: 0,
            map_output_records: 0,
            shuffle_bytes: 0,
            local_tasks: 0,
            task_failures: 0,
            shuffle: ShuffleState::new(conf.reduce_tasks),
            combiner_input_records: 0,
            combiner_output_records: 0,
            reduce_tasks: conf.reduce_tasks,
            reduces: Vec::new(),
            reduces_done: 0,
            map_ms_sum: 0,
            map_ms_count: 0,
            node_failures: vec![0; num_nodes],
            banned_nodes: vec![false; num_nodes],
            provider_retries_left: conf.provider_retries,
            max_idle_evaluations: conf.max_idle_evaluations,
            idle_evaluations: 0,
            allow_partial,
            deadline_hit: false,
            hist: MetricsRegistry::new(),
            last_eval_at: None,
            first_merge_at: None,
            share_key: None,
            counted_pending: 0,
            spec_candidates: BTreeSet::new(),
            signature: conf.signature,
            continuous,
            parked: false,
            arrived: Vec::new(),
            estimator: conf.agg_plan.map(Estimator::new),
            result: None,
        };
        self.jobs.push(entry);
        self.active_jobs += 1;
        self.record(TraceKind::JobSubmitted { job: id });
        if conf.deadline_ms != u64::MAX {
            self.sim.schedule_after(
                SimDuration::from_millis(conf.deadline_ms),
                Event::Deadline { job: id },
            );
        }
        // Sandboxed initial input: a panicking provider costs its job (or
        // a retry), never the runtime.
        self.consult(id, ProviderStage::InitialInput, status, None, &[]);
        // First evaluation happens immediately (a no-op for a job the
        // consultation failed): static drivers end their input here;
        // dynamic providers typically wait for statistics. The initial
        // tasks launch at the nodes' next heartbeats, as in Hadoop.
        self.evaluate_job(id);
        let job = self.job(id);
        if job.phase != JobPhase::Done && !job.end_of_input {
            self.sim
                .schedule_after(interval, Event::EvalTick { job: id });
        }
        self.ensure_heartbeats();
        Ok(id)
    }

    /// Process a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((_, ev)) = self.sim.pop() else {
            return false;
        };
        self.handle(ev);
        true
    }

    /// Run until no events remain (all submitted jobs completed).
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Run until the clock passes `limit` or the queue drains.
    pub fn run_until(&mut self, limit: SimTime) {
        while let Some(t) = self.sim.peek_time() {
            if t > limit {
                break;
            }
            self.step();
        }
        self.sim.advance_to(limit);
    }

    /// Run until some job completes; returns it, or `None` if the queue
    /// drained first.
    pub fn run_until_any_completion(&mut self) -> Option<JobId> {
        loop {
            if let Some(done) = self.completed.pop_front() {
                return Some(done);
            }
            if !self.step() {
                return None;
            }
        }
    }

    /// Drain the completed-jobs queue.
    pub fn take_completed(&mut self) -> Vec<JobId> {
        self.completed.drain(..).collect()
    }

    /// The result of a completed job.
    ///
    /// # Panics
    /// Panics if the job has not completed.
    pub fn job_result(&self, id: JobId) -> &JobResult {
        self.job(id).result.as_ref().expect("job not yet complete")
    }

    /// Move a completed job's output pairs out of its [`JobResult`],
    /// leaving the output empty. The result rows are handed out once this
    /// way instead of copied; every scalar in the result stays readable.
    ///
    /// # Panics
    /// Panics if the job has not completed.
    pub fn take_job_output(&mut self, id: JobId) -> Vec<(Key, Record)> {
        let result = self
            .job_mut(id)
            .result
            .as_mut()
            .expect("job not yet complete");
        std::mem::take(&mut result.output)
    }

    /// A submitted job's configuration (readable for the job's whole
    /// lifetime, including after completion).
    pub fn job_conf(&self, id: JobId) -> &crate::conf::JobConf {
        &self.job(id).spec.conf
    }

    /// Whether a job has completed.
    pub fn is_complete(&self, id: JobId) -> bool {
        self.job(id).phase == JobPhase::Done
    }

    /// Release a completed job's bulky state (result output records, task
    /// tables, reduce buffers, per-split group parts), keeping only the
    /// scalar accounting in its [`JobResult`]. Long-running closed-loop
    /// drivers call this after reading a result so memory stays bounded by
    /// *active* jobs.
    ///
    /// # Panics
    /// Panics if the job has not completed.
    pub fn release_job_result(&mut self, id: JobId) {
        let job = self.job_mut(id);
        assert!(job.phase == JobPhase::Done, "cannot release a live job");
        if let Some(result) = &mut job.result {
            result.output = Vec::new();
        }
        job.tasks = Vec::new();
        job.pending_by_node = Vec::new();
        job.known_blocks = HashSet::new();
        job.reduces = Vec::new();
        job.shuffle = ShuffleState::default();
        // Read only while the job runs and by `finalize_job`; the final
        // fold already lives in the result's `AggReport`.
        job.estimator = None;
        // The task table is gone; the speculation index over it goes too
        // (a Done job is already absent from every runnable index).
        job.spec_candidates = BTreeSet::new();
    }

    /// Live progress for a job (any phase).
    pub fn job_progress(&self, id: JobId) -> JobProgress {
        self.job(id).progress()
    }

    /// The metrics collector.
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// Restart metrics collection at the current instant (used to discard
    /// a workload's warm-up phase). Slot occupancy restarts at the current
    /// occupancy level; locality counters restart at zero.
    pub fn reset_metrics(&mut self) {
        let now = self.sim.now();
        let occupied: f64 = self
            .nodes
            .iter()
            .filter(|n| n.alive)
            .map(|n| (self.cfg.map_slots_per_node - n.free_slots) as f64)
            .sum();
        // Note the resource cumulative totals restart too: we snapshot the
        // current totals and subtract them at observe time.
        let mut fresh = ClusterMetrics::new(
            now,
            self.cfg.topology.num_cores(),
            self.cfg.topology.num_disks(),
            self.cfg.total_map_slots(),
            METRICS_INTERVAL,
        );
        fresh.slots_delta(now, occupied);
        self.metrics_base = self.resource_totals();
        self.metrics = fresh;
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    fn job(&self, id: JobId) -> &JobEntry {
        &self.jobs[id.0 as usize]
    }

    fn job_mut(&mut self, id: JobId) -> &mut JobEntry {
        &mut self.jobs[id.0 as usize]
    }

    /// Leave the parked state (no-op when not parked). Every transition
    /// out of parked — evolve wakeup, deadline, failure — goes through
    /// here so the parked-jobs counter stays exact.
    fn unpark(&mut self, id: JobId) {
        let job = &mut self.jobs[id.0 as usize];
        if job.parked {
            job.parked = false;
            self.parked_jobs -= 1;
        }
    }

    /// Re-key one job in the runnable indexes, the queued-task counter,
    /// and the speculation job set after any mutation of its pending
    /// queue, running count, or phase. O(log jobs); idempotent.
    fn refresh_sched_index(&mut self, id: JobId) {
        let idx = id.0;
        let (seq, new_key, new_counted, spec_live) = {
            let job = &self.jobs[idx as usize];
            let runnable = job.phase == JobPhase::Map && !job.pending.is_empty();
            let counted = if job.phase == JobPhase::Map {
                job.pending.len() as u32
            } else {
                0
            };
            let spec_live = job.phase == JobPhase::Map
                && job.pending.is_empty()
                && !job.spec_candidates.is_empty();
            (
                job.submit_seq,
                runnable.then_some(job.running),
                counted,
                spec_live,
            )
        };
        let old_key = self.jobs[idx as usize].share_key;
        match (old_key, new_key) {
            (None, None) => {}
            (None, Some(r)) => {
                self.runnable_by_seq.insert((seq, idx));
                self.runnable_by_share.insert((r, seq, idx));
            }
            (Some(r), None) => {
                self.runnable_by_seq.remove(&(seq, idx));
                self.runnable_by_share.remove(&(r, seq, idx));
            }
            (Some(r0), Some(r1)) if r0 != r1 => {
                self.runnable_by_share.remove(&(r0, seq, idx));
                self.runnable_by_share.insert((r1, seq, idx));
            }
            _ => {}
        }
        let job = &mut self.jobs[idx as usize];
        job.share_key = new_key;
        self.queued_map_tasks =
            self.queued_map_tasks - job.counted_pending as u64 + new_counted as u64;
        job.counted_pending = new_counted;
        if spec_live {
            self.spec_jobs.insert(idx);
        } else {
            self.spec_jobs.remove(&idx);
        }
    }

    /// Re-key one task in its job's speculation-candidate index after any
    /// change to its attempt list or `done` flag. A candidate is a task
    /// with exactly one non-speculative attempt in flight, keyed by that
    /// attempt's start time.
    fn refresh_spec_candidate(&mut self, id: JobId, task: TaskId) {
        let spec_live = {
            let job = &mut self.jobs[id.0 as usize];
            let t = &mut job.tasks[task.0 as usize];
            let new_key = (!t.done && t.running.len() == 1 && !t.running[0].speculative)
                .then(|| t.running[0].started);
            if t.spec_key != new_key {
                if let Some(k) = t.spec_key {
                    job.spec_candidates.remove(&(k, task.0));
                }
                if let Some(k) = new_key {
                    job.spec_candidates.insert((k, task.0));
                }
                t.spec_key = new_key;
            }
            job.phase == JobPhase::Map && job.pending.is_empty() && !job.spec_candidates.is_empty()
        };
        if spec_live {
            self.spec_jobs.insert(id.0);
        } else {
            self.spec_jobs.remove(&id.0);
        }
    }

    /// Ground-truth check of every incremental index against a recompute.
    /// Debug builds only, and skipped for large fleets (it is O(total
    /// tasks) — exactly the walk the indexes exist to avoid).
    #[cfg(debug_assertions)]
    fn debug_check_indexes(&self) {
        let mut by_seq = BTreeSet::new();
        let mut by_share = BTreeSet::new();
        let mut spec_jobs = BTreeSet::new();
        let mut queued = 0u64;
        for (i, job) in self.jobs.iter().enumerate() {
            let i = i as u32;
            if job.phase == JobPhase::Map {
                queued += job.pending.len() as u64;
            }
            if job.phase == JobPhase::Map && !job.pending.is_empty() {
                by_seq.insert((job.submit_seq, i));
                by_share.insert((job.running, job.submit_seq, i));
            }
            let mut cands = BTreeSet::new();
            for (t, entry) in job.tasks.iter().enumerate() {
                if !entry.done && entry.running.len() == 1 && !entry.running[0].speculative {
                    cands.insert((entry.running[0].started, t as u32));
                }
            }
            assert_eq!(cands, job.spec_candidates, "job {i} spec candidates");
            if job.phase == JobPhase::Map && job.pending.is_empty() && !cands.is_empty() {
                spec_jobs.insert(i);
            }
        }
        assert_eq!(by_seq, self.runnable_by_seq, "runnable_by_seq diverged");
        assert_eq!(
            by_share, self.runnable_by_share,
            "runnable_by_share diverged"
        );
        assert_eq!(spec_jobs, self.spec_jobs, "spec_jobs diverged");
        assert_eq!(queued, self.queued_map_tasks, "queued counter diverged");
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::Heartbeat { node } => self.on_heartbeat(node),
            Event::OverheadDone { job, task, attempt } => self.on_overhead_done(job, task, attempt),
            Event::DiskWake { disk } => self.on_station_wake(disk as usize),
            Event::NetworkDone { job, task, attempt } => self.start_cpu(job, task, attempt),
            Event::CpuWake { node } => self.on_station_wake(self.cpu_station(node)),
            Event::EvalTick { job } => self.on_eval_tick(job),
            Event::ReduceDone { job, reduce } => self.on_reduce_done(job, reduce),
            Event::NodeDown { node } => self.on_node_down(node),
            Event::NodeUp { node } => self.on_node_up(node),
            Event::Deadline { job } => self.on_deadline(job),
            Event::RepairTick => self.on_repair_tick(),
        }
    }

    /// The job's simulated-time deadline expired. Without
    /// `mapred.job.allow.partial` the job fails; with it, input is
    /// closed, unstarted splits are abandoned, and the job completes with
    /// whatever its finished maps produced (paper semantics: the sample
    /// is still correct, just smaller).
    fn on_deadline(&mut self, id: JobId) {
        if self.job(id).phase == JobPhase::Done {
            return;
        }
        // A deadline is the one event that can reach a parked standing
        // query; leaving the parked state here keeps the counter exact.
        self.unpark(id);
        let graceful = self.job(id).allow_partial;
        self.record(TraceKind::DeadlineExceeded { job: id, graceful });
        if !graceful {
            self.complete_job(id, Err(JobError::DeadlineExceeded));
            return;
        }
        let job = self.job_mut(id);
        job.deadline_hit = true;
        if job.phase == JobPhase::Reduce {
            // The reduce inputs are final; let the reduces commit.
            return;
        }
        job.end_of_input = true;
        let pending = std::mem::take(&mut job.pending);
        for t in &pending {
            let e = &mut job.tasks[t.0 as usize];
            e.queued = false;
            e.abandoned = true;
        }
        for list in &mut job.pending_by_node {
            list.clear();
        }
        self.refresh_sched_index(id);
        // Running attempts are left to finish — their output is already
        // paid for; the job reduces once the last one lands.
        self.maybe_begin_reduce(id);
        // A formerly parked job may have let the heartbeat chains expire;
        // its queued reduces need them back.
        self.ensure_heartbeats();
    }

    /// Start a self-perpetuating heartbeat chain on every live node that
    /// lacks one (staggered, as real TaskTrackers are). A node's chain
    /// expires when no jobs remain active or the node dies; rejoining
    /// restarts only that node's chain.
    fn ensure_heartbeats(&mut self) {
        let n = self.nodes.len() as u64;
        for node in 0..self.nodes.len() as u16 {
            let state = &self.nodes[node as usize];
            if !state.alive || state.chain_live {
                continue;
            }
            self.nodes[node as usize].chain_live = true;
            self.heartbeats_live += 1;
            let stagger = self.cost.heartbeat_ms * (node as u64 + 1) / n;
            self.sim
                .schedule_after(SimDuration::from_millis(stagger), Event::Heartbeat { node });
        }
    }

    /// Work drained so far by every CPU and by every disk.
    fn resource_totals(&mut self) -> (f64, f64) {
        let now = self.sim.now();
        let first_cpu = self.cpu_station(0);
        let (disks, cpus) = self.stations.split_at_mut(first_cpu);
        let drained =
            |s: &mut [Station]| -> f64 { s.iter_mut().map(|s| s.res.drained_total(now)).sum() };
        (drained(cpus), drained(disks))
    }

    fn observe_metrics(&mut self) {
        let now = self.sim.now();
        let (cpu, disk) = self.resource_totals();
        let (cpu0, disk0) = self.metrics_base;
        self.metrics.observe(now, cpu - cpu0, disk - disk0);
    }

    fn on_heartbeat(&mut self, node: u16) {
        // Chains expire when nothing needs them: no active jobs, or every
        // active job is a parked standing query (`evolve` restarts them).
        if self.active_jobs == self.parked_jobs || !self.nodes[node as usize].alive {
            self.nodes[node as usize].chain_live = false;
            self.heartbeats_live -= 1;
            return;
        }
        // Exactly one live node samples the metrics window per beat.
        if self.nodes.iter().position(|n| n.alive) == Some(node as usize) {
            self.observe_metrics();
        }
        self.schedule_node(node);
        self.assign_reduce(node);
        self.maybe_speculate(node);
        self.sim.schedule_after(
            SimDuration::from_millis(self.cost.heartbeat_ms),
            Event::Heartbeat { node },
        );
    }

    /// Vet one `AddInput` batch and queue what survives as map tasks: a
    /// block outside the namespace is a typed provider error, an over-long
    /// batch is truncated to the driver's grab limit, and splits the job
    /// already claimed (within or across directives) are dropped. Returns
    /// what the guard rails did to the batch (feeding the audit log).
    fn validate_and_add_input(
        &mut self,
        id: JobId,
        mut blocks: Vec<BlockId>,
        limit: u64,
    ) -> Result<AddOutcome, ProviderError> {
        let num_blocks = self.namespace.num_blocks();
        if let Some(&bad) = blocks.iter().find(|b| b.0 as usize >= num_blocks) {
            self.metrics.guardrails_mut().unknown_blocks += 1;
            return Err(ProviderError::UnknownBlock { block: bad });
        }
        let mut clamped = false;
        if blocks.len() as u64 > limit {
            let requested = blocks.len() as u32;
            blocks.truncate(limit as usize);
            clamped = true;
            self.record(TraceKind::GrabLimitClamped {
                job: id,
                requested,
                granted: blocks.len() as u32,
            });
        }
        let fresh: Vec<BlockId> = {
            let job = self.job(id);
            let mut batch = HashSet::new();
            blocks
                .iter()
                .copied()
                .filter(|b| !job.known_blocks.contains(b) && batch.insert(*b))
                .collect()
        };
        let dupes = (blocks.len() - fresh.len()) as u32;
        if dupes > 0 {
            self.record(TraceKind::DuplicateInputDropped {
                job: id,
                splits: dupes,
            });
        }
        let now = self.sim.now();
        let added = fresh.len() as u32;
        if added > 0 {
            self.record(TraceKind::InputAdded {
                job: id,
                splits: added,
            });
        }
        debug_assert!(
            self.job(id).phase == JobPhase::Map,
            "input added after map phase"
        );
        for block in fresh {
            let job = self.job_mut(id);
            job.known_blocks.insert(block);
            let task = TaskId(job.tasks.len() as u32);
            job.tasks.push(TaskEntry {
                block,
                added_at: now,
                enqueued_at: now,
                first_dispatched: false,
                queued: false,
                done: false,
                merged: false,
                completed_node: None,
                attempts_started: 0,
                failures: 0,
                running: Vec::new(),
                abandoned: false,
                spec_key: None,
            });
            self.enqueue_task(id, task);
        }
        // A provider can hand over a block that already lost every replica
        // (e.g. a split grabbed after the death that stripped it): settle
        // the job's fate immediately rather than wedging on a replica-less
        // pending task.
        if self.data_loss {
            self.handle_lost_input(id);
        }
        Ok(AddOutcome {
            granted: added,
            clamped,
            duplicates: dupes,
        })
    }

    /// Absorb or escalate a provider failure: with retry budget left the
    /// evaluation is treated as a `Wait` and the provider is re-consulted
    /// at the next tick; otherwise the job fails with the typed error.
    fn provider_failed(&mut self, id: JobId, err: ProviderError) {
        if matches!(err, ProviderError::Panicked { .. }) {
            self.metrics.guardrails_mut().provider_panics += 1;
        }
        if self.job(id).provider_retries_left > 0 {
            self.job_mut(id).provider_retries_left -= 1;
            self.record(TraceKind::ProviderFault {
                job: id,
                fatal: false,
            });
        } else {
            self.record(TraceKind::ProviderFault {
                job: id,
                fatal: true,
            });
            self.complete_job(id, Err(JobError::Provider(err)));
        }
    }

    /// One sandboxed consultation of a job's driver — its submission-time
    /// `initial_input` (blocks arrive as `AddInput`) or a periodic
    /// evaluation: a panic becomes a typed provider error, the directive
    /// is applied under the guard rails, and the decision is audited.
    /// Returns whether new splits were granted.
    fn consult(
        &mut self,
        id: JobId,
        stage: ProviderStage,
        status: ClusterStatus,
        probe: Option<&AggProbe>,
        arrived: &[BlockId],
    ) -> bool {
        let progress = self.job(id).progress();
        let outcome = {
            let driver = &mut self.job_mut(id).driver;
            catch_unwind(AssertUnwindSafe(|| match stage {
                ProviderStage::InitialInput => driver
                    .try_initial_input(&status)
                    .map(GrowthDirective::AddInput),
                ProviderStage::Evaluate => driver.try_evaluate(
                    EvalContext::unlimited(&progress, &status)
                        .with_arrived(arrived)
                        .with_agg(probe),
                ),
            }))
            .unwrap_or_else(|p| Err(ProviderError::from_panic(stage, p)))
        };
        // The grab limit is read *after* the consultation so policy ladders
        // that re-select a policy inside `evaluate` are clamped against
        // the limit their provider actually saw.
        let limit = self.job(id).driver.grab_limit(&status);
        let now = self.sim.now();
        if let Some(last) = self.job(id).last_eval_at {
            let interval = (now - last).as_millis();
            self.obs_record(id, |r| r.record_provider_eval_interval(interval));
        }
        self.job_mut(id).last_eval_at = Some(now);
        let mut added = AddOutcome::default();
        let applied = match outcome {
            Ok(GrowthDirective::EndOfInput) => {
                // An estimating job ending input with the bound met and
                // splits left unscanned stopped *early* — the headline
                // EARL event.
                if let Some(p) = probe.filter(|p| p.bound_met && p.completed < p.total) {
                    self.record(TraceKind::BoundMet {
                        job: id,
                        completed: p.completed,
                        total: p.total,
                    });
                }
                self.job_mut(id).end_of_input = true;
                self.record(TraceKind::EndOfInput { job: id });
                self.maybe_begin_reduce(id);
                Ok(AuditDirective::EndOfInput)
            }
            // New tasks launch at upcoming node heartbeats.
            Ok(GrowthDirective::AddInput(blocks)) => {
                let requested = blocks.len() as u32;
                self.validate_and_add_input(id, blocks, limit).map(|a| {
                    added = a;
                    AuditDirective::AddInput { requested }
                })
            }
            Ok(GrowthDirective::Wait) => Ok(AuditDirective::Wait),
            Err(e) => Err(e),
        };
        let retried = applied.is_err() && self.job(id).provider_retries_left > 0;
        let directive = applied.unwrap_or_else(|e| {
            self.provider_failed(id, e);
            AuditDirective::Fault { fatal: !retried }
        });
        self.audit_push(AuditRecord {
            time: now,
            job: id,
            stage,
            progress,
            cluster: status,
            grab_limit: limit,
            directive,
            granted: added.granted,
            clamped: added.clamped,
            duplicates_dropped: added.duplicates,
            retried,
        });
        added.granted > 0
    }

    fn evaluate_job(&mut self, id: JobId) {
        let job = self.job(id);
        if job.phase != JobPhase::Map || job.end_of_input {
            return;
        }
        let status = self.cluster_status();
        // Blocks that landed via `evolve` since the last consultation are
        // delivered exactly once, then the buffer resets.
        let arrived = std::mem::take(&mut self.job_mut(id).arrived);
        // Approximate-aggregation plane: probe the CLT stopping rule over
        // the completed splits ahead of the driver consultation, so the
        // estimating provider decides on fresh statistics.
        let now = self.sim.now();
        let job = self.job_mut(id);
        let probe = job
            .estimator
            .as_mut()
            .map(|e| e.probe(id, now, job.submit_time));
        if let Some((p, gap)) = &probe {
            self.obs_record(id, |r| r.record_agg_probe(*gap));
            self.record(TraceKind::ErrorBoundProbe {
                job: id,
                completed: p.completed,
                groups: p.groups,
                worst_ppm: rel_to_ppm(p.worst_rel),
                bound_met: p.bound_met,
            });
        }
        let probe = probe.map(|(p, _)| p);
        let productive = self.consult(
            id,
            ProviderStage::Evaluate,
            status,
            probe.as_ref(),
            &arrived,
        );
        // Livelock watchdog: a driver that keeps producing nothing while
        // the job has nothing running or pending can never make progress
        // on its own — count such evaluations and cut the job loose at the
        // threshold instead of ticking forever.
        let job = self.job_mut(id);
        if job.phase != JobPhase::Map || job.end_of_input {
            return;
        }
        if productive || job.running > 0 || !job.pending.is_empty() {
            job.idle_evaluations = 0;
            return;
        }
        if job.continuous {
            // A standing query with nothing to do is idle by design, not
            // wedged: it parks at the next tick and `evolve` wakes it.
            job.idle_evaluations = 0;
            return;
        }
        job.idle_evaluations += 1;
        let idle = job.idle_evaluations;
        if job.max_idle_evaluations > 0 && idle >= job.max_idle_evaluations {
            self.record(TraceKind::JobWedged {
                job: id,
                idle_evaluations: idle,
            });
            let error = JobError::Wedged {
                idle_evaluations: idle,
            };
            self.complete_job(id, Err(error));
        }
    }

    fn on_eval_tick(&mut self, id: JobId) {
        self.evaluate_job(id);
        let job = self.job(id);
        if job.phase != JobPhase::Map || job.end_of_input {
            return;
        }
        if job.continuous && job.running == 0 && job.pending.is_empty() && job.arrived.is_empty() {
            // Standing query with nothing outstanding: park instead of
            // spinning the tick. `evolve` re-arms the tick when input
            // lands; with every active job parked, heartbeat chains
            // expire too, so the event queue can drain.
            self.job_mut(id).parked = true;
            self.parked_jobs += 1;
            return;
        }
        let interval = job.driver.evaluation_interval();
        self.sim
            .schedule_after(interval, Event::EvalTick { job: id });
    }

    /// Offer one node's heartbeat to the scheduler: at most
    /// `maps_per_heartbeat` launches on that node (Hadoop 0.20 semantics).
    fn schedule_node(&mut self, node: u16) {
        if !self.nodes[node as usize].alive {
            return;
        }
        let per_heartbeat = self
            .scheduler
            .maps_per_heartbeat()
            .unwrap_or(self.cost.maps_per_heartbeat);
        let free_total = self.nodes[node as usize].free_slots.min(per_heartbeat);
        if free_total == 0 {
            return;
        }
        let mut free_slots = vec![0u32; self.nodes.len()];
        free_slots[node as usize] = free_total;
        #[cfg(debug_assertions)]
        if self.jobs.len() <= 512 {
            self.debug_check_indexes();
        }
        // Pick which runnable jobs the scheduler sees. A `Complete` policy
        // gets every runnable job (submission order, as before); prefix
        // policies get the `free_total + slack` front of the matching
        // index — O(prefix), independent of the total queued-job count.
        let runnable_total = self.runnable_by_seq.len();
        if runnable_total == 0 {
            return;
        }
        let cap = free_total as usize + VIEW_JOB_SLACK;
        let selected: Vec<u32> = match self.scheduler.view_policy() {
            ViewPolicy::Complete => self.runnable_by_seq.iter().map(|&(_, i)| i).collect(),
            ViewPolicy::SubmitOrder => self
                .runnable_by_seq
                .iter()
                .take(cap)
                .map(|&(_, i)| i)
                .collect(),
            ViewPolicy::ShareOrder => {
                let mut v: Vec<u32> = self
                    .runnable_by_share
                    .iter()
                    .take(cap)
                    .map(|&(_, _, i)| i)
                    .collect();
                // Present the prefix in submission order — the order the
                // full walk offered jobs in (schedulers re-sort anyway).
                v.sort_unstable();
                v
            }
        };
        let complete = selected.len() == runnable_total;
        // The head window only needs enough tasks to fill every free slot;
        // the small margin keeps behaviour stable when lists race.
        let head_cap = free_total as usize + 8;
        let mut sched_jobs = Vec::with_capacity(selected.len());
        let namespace = &self.namespace;
        let jobs = &mut self.jobs;
        for &idx in &selected {
            let job = &mut jobs[idx as usize];
            debug_assert!(job.phase == JobPhase::Map && !job.pending.is_empty());
            let head: Vec<TaskId> = job.pending.iter().copied().take(head_cap).collect();
            let head_replica_less: Vec<bool> = head
                .iter()
                .map(|t| {
                    namespace
                        .block(job.tasks[t.0 as usize].block)
                        .locations
                        .is_empty()
                })
                .collect();
            let mut local_by_node = vec![Vec::new(); free_slots.len()];
            for (node_idx, &free) in free_slots.iter().enumerate() {
                if free == 0 {
                    continue;
                }
                // Pop dispatched tasks off the front of this node's index,
                // then scan (skipping mid-list stale entries) just far
                // enough to fill its slots.
                let list = &mut job.pending_by_node[node_idx];
                while let Some(&t) = list.front() {
                    if job.tasks[t.0 as usize].queued {
                        break;
                    }
                    list.pop_front();
                }
                let want = free as usize + 4;
                let mut locals = Vec::with_capacity(want.min(list.len()));
                for &t in list.iter() {
                    if locals.len() == want {
                        break;
                    }
                    if job.tasks[t.0 as usize].queued {
                        locals.push(t);
                    }
                }
                local_by_node[node_idx] = locals;
            }
            sched_jobs.push(SchedJob {
                job: job.id,
                submit_seq: job.submit_seq,
                running: job.running,
                pending_total: job.pending.len() as u32,
                head,
                head_replica_less,
                local_by_node,
                banned_nodes: if job.banned_nodes.iter().any(|&b| b) {
                    job.banned_nodes.clone()
                } else {
                    Vec::new()
                },
            });
        }
        let view = SchedView {
            now: self.sim.now(),
            free_slots,
            jobs: sched_jobs,
            complete,
        };
        let assignments = self.scheduler.assign(&view);
        #[cfg(debug_assertions)]
        {
            let mut free = view.free_slots.clone();
            let mut seen = HashSet::new();
            for a in &assignments {
                assert!(
                    free[a.node.0 as usize] > 0,
                    "scheduler over-assigned {:?}",
                    a.node
                );
                free[a.node.0 as usize] -= 1;
                assert!(seen.insert((a.job, a.task)), "duplicate assignment");
                let job = view
                    .jobs
                    .iter()
                    .find(|j| j.job == a.job)
                    .expect("assignment references an offered job");
                assert!(
                    !job.banned_on(a.node),
                    "scheduler dispatched to a blacklisted node"
                );
            }
        }
        // Data plane: submit every assigned task's map work (read + map +
        // combine + partition) to the worker pool in assignment order. The
        // handles are joined at each task's *simulated* completion, so the
        // event loop overlaps with host computation; results are pure
        // functions of the unit, so simulated state and event ordering are
        // identical at any thread count.
        //
        // Memoization probe: with the memo plane on, a split whose cached
        // output matches the block's current version replays the cached
        // result instead of submitting host work. The attempt's simulated
        // schedule is untouched either way, so warm runs stay
        // byte-identical to cold ones.
        for a in assignments {
            let (block, signature) = {
                let job = self.job(a.job);
                (job.tasks[a.task.0 as usize].block, job.signature)
            };
            let version = self.namespace.version_of(block);
            let probe = self
                .memo
                .as_ref()
                .map(|m| m.probe(signature, block, version))
                .unwrap_or(MemoProbe::Miss);
            let work = match probe {
                MemoProbe::Hit => {
                    let result = self
                        .memo
                        .as_ref()
                        .expect("probe hit implies a store")
                        .get(signature, block, version)
                        .expect("probe hit implies an entry")
                        .result
                        .clone();
                    self.record(TraceKind::SplitReused {
                        job: a.job,
                        task: a.task,
                    });
                    self.metrics.memo_mut().records_saved += result.records_read;
                    MapWork::Cached(result)
                }
                probe => {
                    if probe == MemoProbe::Stale {
                        self.record(TraceKind::SplitDirty {
                            job: a.job,
                            task: a.task,
                        });
                    }
                    if self.memo.is_some() {
                        self.metrics.memo_mut().splits_computed += 1;
                    }
                    MapWork::Computed(self.submit_map(a.job, a.task))
                }
            };
            self.dispatch(a.job, a.task, a.node, work, false);
        }
    }

    /// Submit one map task's data-plane work to the worker pool.
    fn submit_map(&mut self, id: JobId, task: TaskId) -> UnitHandle<MapTaskResult> {
        let job = self.job(id);
        let unit = MapUnit {
            input_format: std::sync::Arc::clone(&job.spec.input_format),
            mapper: std::sync::Arc::clone(&job.spec.mapper),
            combiner: job.spec.combiner.clone(),
            block: job.tasks[task.0 as usize].block,
            reduce_tasks: job.reduce_tasks,
        };
        self.executor.submit(unit)
    }

    fn dispatch(
        &mut self,
        id: JobId,
        task: TaskId,
        node: NodeId,
        work: MapWork,
        speculative: bool,
    ) {
        let now = self.sim.now();
        let block = self.job(id).tasks[task.0 as usize].block;
        let local = self.namespace.is_local(block, node);
        // Under DataNode-death semantics the read source is fixed here, so
        // a death before the read starts is an observable failover. (The
        // dead-node set is empty by construction: `on_node_down` strips
        // dead holders from the namespace, so `locations` is the live set.)
        let read_disk = if self.data_loss {
            if local {
                self.namespace.local_replica(block, node)
            } else {
                self.namespace.primary_replica(block, &BTreeSet::new()).ok()
            }
        } else {
            None
        };
        // The map function's work is already queued on the data plane (see
        // `schedule_node`); its result is claimed when the modelled stages
        // complete.
        let (attempt, queue_wait, split_wait) = {
            let job = self.job_mut(id);
            if !speculative {
                // Invariant, not user-reachable: the scheduler was offered
                // only this job's pending head (`schedule_node` builds it
                // from `job.pending`), and the debug pass above rejects
                // duplicate assignments.
                let pos = job
                    .pending
                    .iter()
                    .position(|&t| t == task)
                    .expect("dispatched task must be pending");
                job.pending.remove(pos);
            }
            let entry = &mut job.tasks[task.0 as usize];
            debug_assert_eq!(entry.queued, !speculative);
            entry.queued = false;
            // Queue wait covers every pass through the pending queue
            // (speculative backups never queued); split wait is measured
            // once, admission to first dispatch.
            let queue_wait = (!speculative).then(|| (now - entry.enqueued_at).as_millis());
            let split_wait = (!entry.first_dispatched).then(|| (now - entry.added_at).as_millis());
            entry.first_dispatched = true;
            let aid = entry.attempts_started;
            entry.attempts_started += 1;
            job.running += 1;
            (aid, queue_wait, split_wait)
        };
        self.refresh_sched_index(id);
        let sched = self.scheduler.name();
        if let Some(ms) = queue_wait {
            self.obs_record(id, |reg| reg.record_queue_wait(sched, ms));
        }
        if let Some(ms) = split_wait {
            self.obs_record(id, |reg| reg.record_split_wait(ms));
        }
        let n = &mut self.nodes[node.0 as usize];
        // Invariants: `schedule_node`/`maybe_speculate` only offer slots
        // on alive nodes with free capacity (proptested in scheduler.rs).
        assert!(n.alive, "dispatch to a dead node");
        assert!(n.free_slots > 0, "dispatch to a full node");
        n.free_slots -= 1;
        self.metrics.slots_delta(now, 1.0);
        self.record(TraceKind::MapStarted {
            job: id,
            task,
            node,
            local,
        });
        let ev = self.sim.schedule_after(
            SimDuration::from_millis(self.cost.map_task_overhead_ms),
            Event::OverheadDone {
                job: id,
                task,
                attempt,
            },
        );
        self.job_mut(id).tasks[task.0 as usize]
            .running
            .push(MapAttempt {
                id: attempt,
                node,
                local,
                speculative,
                started: now,
                stage: AttemptStage::Timer(ev),
                result: Some(work),
                read_disk,
            });
        self.refresh_spec_candidate(id, task);
    }

    fn on_overhead_done(&mut self, id: JobId, task: TaskId, attempt: u32) {
        let (block, node, local, read_disk) = {
            let entry = &self.job(id).tasks[task.0 as usize];
            let Some(a) = entry.running.iter().find(|a| a.id == attempt) else {
                return; // attempt was killed; its timer raced the cancel
            };
            (entry.block, a.node, a.local, a.read_disk)
        };
        let disk = if !self.data_loss {
            if local {
                // Invariant: `local` was computed by `Namespace::is_local`
                // at dispatch and, without DataNode-death semantics, the
                // namespace never drops replicas mid-run.
                self.namespace
                    .local_replica(block, node)
                    .expect("local task has a local replica")
            } else {
                // TaskTracker-death semantics: disks of dead nodes keep
                // serving, so the head replica is always readable.
                self.namespace
                    .primary_replica(block, &BTreeSet::new())
                    .expect("block has a replica")
            }
        } else {
            // The intended replica still exists iff it survived every
            // death since dispatch (`locations` is the live set).
            let intended = read_disk.filter(|d| self.namespace.block(block).locations.contains(d));
            match intended {
                Some(d) => d,
                None => match self.namespace.primary_replica(block, &BTreeSet::new()) {
                    Ok(to) => {
                        if let Some(from) = read_disk {
                            self.record(TraceKind::ReadFailover {
                                job: id,
                                task,
                                from,
                                to,
                            });
                        }
                        to
                    }
                    Err(_) => {
                        // Every replica is gone: the attempt cannot read its
                        // input. Kill it; `handle_lost_input` (invoked from
                        // the death that stripped the last replica) settles
                        // the job's fate.
                        let idx = self.job(id).tasks[task.0 as usize]
                            .running
                            .iter()
                            .position(|a| a.id == attempt)
                            .expect("attempt checked above");
                        self.kill_attempt(id, task, idx, true);
                        return;
                    }
                },
            }
        };
        let bytes = self.namespace.block(block).bytes as f64;
        self.start_flow(id, task, attempt, disk.0 as usize, bytes);
    }

    /// The `stations` index of a node's CPU (every disk comes first).
    fn cpu_station(&self, node: u16) -> usize {
        self.cfg.topology.num_disks() as usize + node as usize
    }

    /// Put a running attempt's next stage on a station as a flow of
    /// `amount`.
    fn start_flow(&mut self, id: JobId, task: TaskId, attempt: u32, station: usize, amount: f64) {
        let owner = (id, task, attempt);
        let flow = self.stations[station].start(&mut self.sim, amount, owner);
        self.set_stage(id, task, attempt, AttemptStage::Flow { station, flow });
    }

    fn set_stage(&mut self, id: JobId, task: TaskId, attempt: u32, stage: AttemptStage) {
        let entry = &mut self.job_mut(id).tasks[task.0 as usize];
        let a = entry
            .running
            .iter_mut()
            .find(|a| a.id == attempt)
            .expect("attempt is running");
        a.stage = stage;
    }

    /// A station's earliest flow finished: hand every attempt whose flow
    /// completed to its next stage (a disk read to the network or CPU, a
    /// CPU flow to completion), then re-arm the station.
    fn on_station_wake(&mut self, station: usize) {
        let now = self.sim.now();
        let cpu = station >= self.cpu_station(0);
        for flow in self.stations[station].drain(now) {
            let Some((id, task, attempt)) = self.stations[station].flows.remove(&flow) else {
                continue; // attempt killed after the flow completed
            };
            if cpu {
                self.finish_map_task(id, task, attempt);
            } else {
                self.finish_read(id, task, attempt);
            }
        }
        self.stations[station].rearm(&mut self.sim);
    }

    /// A disk read finished: a local attempt computes next, a remote one
    /// first transfers its split over the network.
    fn finish_read(&mut self, id: JobId, task: TaskId, attempt: u32) {
        let (block, local) = {
            let entry = &self.job(id).tasks[task.0 as usize];
            let Some(a) = entry.running.iter().find(|a| a.id == attempt) else {
                return;
            };
            (entry.block, a.local)
        };
        if local {
            self.start_cpu(id, task, attempt);
        } else {
            let bytes = self.namespace.block(block).bytes;
            let transfer = self.cost.remote_transfer_ms(bytes);
            let ev = self.sim.schedule_after(
                SimDuration::from_millis(transfer),
                Event::NetworkDone {
                    job: id,
                    task,
                    attempt,
                },
            );
            self.set_stage(id, task, attempt, AttemptStage::Timer(ev));
        }
    }

    fn start_cpu(&mut self, id: JobId, task: TaskId, attempt: u32) {
        let (block, node) = {
            let entry = &self.job(id).tasks[task.0 as usize];
            let Some(a) = entry.running.iter().find(|a| a.id == attempt) else {
                return; // attempt was killed
            };
            (entry.block, a.node)
        };
        let work = self
            .cost
            .map_cpu_work_us(self.namespace.block(block).records);
        self.start_flow(id, task, attempt, self.cpu_station(node.0), work);
    }

    fn finish_map_task(&mut self, id: JobId, task: TaskId, attempt: u32) {
        let now = self.sim.now();
        let Some(idx) = self.job(id).tasks[task.0 as usize]
            .running
            .iter()
            .position(|a| a.id == attempt)
        else {
            return; // attempt killed between flow completion and this call
        };
        // Fault injection: decide whether this attempt fails before its
        // results are applied. Every completion draws (in simulated-time
        // order), so the stream is identical at any thread count.
        let fault_budget = self.cluster_faults.as_mut().and_then(|cf| {
            use rand::Rng;
            let roll = cf.map_rng.gen_range(0.0..1.0);
            (roll < cf.plan.map_fault_probability).then_some(cf.plan.effective_max_attempts())
        });
        if let Some(max) = fault_budget {
            self.fail_map_attempt(id, task, idx, max);
            return;
        }
        let a = self.job_mut(id).tasks[task.0 as usize].running.remove(idx);
        self.refresh_spec_candidate(id, task);
        self.nodes[a.node.0 as usize].free_slots += 1;
        self.metrics.slots_delta(now, -1.0);
        if self.job(id).phase == JobPhase::Done {
            // The job already failed; late attempts just release their slot
            // (dropping the handle — nobody wants the result).
            return;
        }
        // Invariant: every attempt is created with `result: Some(work)`
        // and the work is only taken here, at its single completion.
        let work = a.result.expect("work submitted at dispatch");
        let attempt_ms = (now - a.started).as_millis();
        self.obs_record(id, |reg| reg.record_map_attempt(attempt_ms));
        if self.job(id).first_merge_at.is_none() {
            self.job_mut(id).first_merge_at = Some(now);
        }
        let already_merged = {
            let job = self.job_mut(id);
            let entry = &mut job.tasks[task.0 as usize];
            entry.done = true;
            entry.completed_node = Some(a.node);
            job.running -= 1;
            job.completed += 1;
            job.map_ms_sum += attempt_ms;
            job.map_ms_count += 1;
            entry.merged
        };
        self.refresh_spec_candidate(id, task);
        self.refresh_sched_index(id);
        if already_merged {
            // Node-loss re-execution: map output is a pure function of the
            // block, so the shuffle already holds byte-identical output.
            // Drop the duplicate and skip the job counters — counting the
            // records twice would fool drivers into an early EndOfInput.
            drop(work);
        } else {
            // Claim the result — joined from the data plane (blocks only
            // if a worker is still on it), or replayed from the memo store
            // (the attempt kept its full simulated schedule; only the host
            // recomputation was skipped) — and merge its pre-partitioned
            // output into the per-reduce shuffle buffers — the streaming
            // half of the shuffle. Merging by task id keeps the merged
            // content a pure function of the task set, whatever order
            // faults impose.
            let (result, replayed) = match work {
                MapWork::Computed(handle) => {
                    let result = handle.join();
                    self.metrics.add_host_map_ns(result.host_ns);
                    (result, false)
                }
                MapWork::Cached(result) => (result, true),
            };
            if let Some(memo) = &mut self.memo {
                let job = &self.jobs[id.0 as usize];
                let block = job.tasks[task.0 as usize].block;
                if replayed {
                    // The replaying node now holds a live copy of the map
                    // output; invalidation tracks the latest holder.
                    memo.rehome(job.signature, block, a.node);
                } else {
                    memo.insert(
                        job.signature,
                        block,
                        self.namespace.version_of(block),
                        a.node,
                        result.clone(),
                    );
                }
            }
            // Approximate-aggregation plane: lift the task's per-group
            // accumulator parts before the shuffle consumes the pairs.
            if let Some(estimator) = &mut self.job_mut(id).estimator {
                estimator.absorb(task.0, &result.pairs);
            }
            let merge_start = std::time::Instant::now();
            {
                let job = self.job_mut(id);
                job.records_processed += result.records_read;
                job.map_output_records += result.total_outputs();
                job.shuffle_bytes += result.total_output_bytes();
                job.combiner_input_records += result.combiner_input_records;
                job.combiner_output_records += result.combiner_output_records;
                if a.local {
                    job.local_tasks += 1;
                }
                job.shuffle.merge_task(task.0, result.pairs);
                job.tasks[task.0 as usize].merged = true;
            }
            self.metrics
                .add_host_shuffle_merge_ns(merge_start.elapsed().as_nanos() as u64);
        }
        // The speculative race (if any) has its winner: kill the siblings.
        while !self.job(id).tasks[task.0 as usize].running.is_empty() {
            self.kill_attempt(id, task, 0, true);
        }
        self.record(TraceKind::MapFinished { job: id, task });
        self.maybe_begin_reduce(id);
        // Note: no scheduling here. As in Hadoop, freed slots are re-assigned
        // at the next TaskTracker heartbeat, so slots are observably free in
        // between — which is what lets Input Providers ever see `AS > 0` on
        // a busy cluster.
    }

    /// A map attempt *failed* (counted, unlike a kill): release its slot,
    /// charge the task's attempt budget and the host node's blacklist
    /// tally, and requeue the task — or, past the budget, fail the job.
    fn fail_map_attempt(&mut self, id: JobId, task: TaskId, idx: usize, max_attempts: u32) {
        let now = self.sim.now();
        let a = self.job_mut(id).tasks[task.0 as usize].running.remove(idx);
        self.refresh_spec_candidate(id, task);
        self.nodes[a.node.0 as usize].free_slots += 1;
        self.metrics.slots_delta(now, -1.0);
        self.record(TraceKind::MapFailed {
            job: id,
            task,
            attempt: a.id + 1,
        });
        if self.job(id).phase == JobPhase::Done {
            return; // job already failed; nothing more to do
        }
        let failures = {
            let job = self.job_mut(id);
            job.running -= 1;
            job.task_failures += 1;
            let entry = &mut job.tasks[task.0 as usize];
            entry.failures += 1;
            entry.failures
        };
        self.refresh_sched_index(id);
        if failures >= max_attempts {
            self.complete_job(id, Err(JobError::TaskAttemptsExhausted { task }));
            return;
        }
        // Per-job blacklisting (cluster fault model only): repeated counted
        // failures on one node ban the job from that node.
        if let Some(threshold) = self
            .cluster_faults
            .as_ref()
            .and_then(|cf| cf.plan.blacklist_threshold)
        {
            let node = a.node.0 as usize;
            let newly_banned = {
                let job = self.job_mut(id);
                job.node_failures[node] += 1;
                let trip = job.node_failures[node] >= threshold && !job.banned_nodes[node];
                if trip {
                    job.banned_nodes[node] = true;
                }
                trip
            };
            if newly_banned {
                self.record(TraceKind::NodeBlacklisted {
                    job: id,
                    node: a.node,
                });
                if self.job(id).banned_nodes.iter().all(|&b| b) {
                    // Nowhere left to run: fail rather than wedge forever.
                    self.complete_job(id, Err(JobError::AllNodesBlacklisted));
                    return;
                }
            }
        }
        let entry = &self.job(id).tasks[task.0 as usize];
        if entry.running.is_empty() && !entry.done {
            if self.job(id).deadline_hit {
                // Past a graceful deadline no new attempts launch; the
                // split is abandoned and the partial result shrinks.
                self.job_mut(id).tasks[task.0 as usize].abandoned = true;
                self.maybe_begin_reduce(id);
            } else {
                // Requeue for another attempt (back of the queue, like
                // Hadoop).
                self.enqueue_task(id, task);
            }
        }
    }

    /// Put a task with no attempts in flight at the back of the pending
    /// queue and of the locality index of every node holding its split.
    fn enqueue_task(&mut self, id: JobId, task: TaskId) {
        let now = self.sim.now();
        let block = self.job(id).tasks[task.0 as usize].block;
        let replica_nodes: Vec<NodeId> = self
            .namespace
            .block(block)
            .locations
            .iter()
            .map(|&d| self.namespace.topology().node_of(d))
            .collect();
        let job = self.job_mut(id);
        let entry = &mut job.tasks[task.0 as usize];
        debug_assert!(!entry.queued && !entry.done && entry.running.is_empty() && !entry.abandoned);
        entry.queued = true;
        entry.enqueued_at = now;
        job.pending.push(task);
        for n in replica_nodes {
            job.pending_by_node[n.0 as usize].push_back(task);
        }
        self.refresh_sched_index(id);
    }

    /// Cancel a running attempt mid-stage (speculative-race loser or node
    /// death). Kills are free: they charge neither the task's attempt
    /// budget nor the node's blacklist tally, matching Hadoop's
    /// failed-vs-killed distinction. `free_slot` is false when the host
    /// node died with the attempt (there is no slot to give back).
    fn kill_attempt(&mut self, id: JobId, task: TaskId, idx: usize, free_slot: bool) {
        let now = self.sim.now();
        let a = self.job_mut(id).tasks[task.0 as usize].running.remove(idx);
        match a.stage {
            AttemptStage::Timer(ev) => {
                self.sim.cancel(ev);
            }
            AttemptStage::Flow { station, flow } => {
                self.stations[station].cancel(&mut self.sim, flow)
            }
        }
        if free_slot {
            self.nodes[a.node.0 as usize].free_slots += 1;
        }
        self.metrics.slots_delta(now, -1.0);
        self.record(TraceKind::AttemptKilled {
            job: id,
            task,
            node: a.node,
        });
        self.job_mut(id).running -= 1;
        self.refresh_spec_candidate(id, task);
        self.refresh_sched_index(id);
        // `a.result` drops here: the claim is abandoned, never joined.
    }

    /// A TaskTracker dies: every attempt it hosts is killed, its slots
    /// vanish, and — Hadoop's signature response — *completed* map tasks
    /// that ran on it are re-executed while their job still maps, because
    /// the tracker stored their output and reducers can no longer fetch
    /// it. Its disks keep serving (TaskTracker death, not DataNode death).
    fn on_node_down(&mut self, node: u16) {
        if !self.nodes[node as usize].alive {
            return;
        }
        self.nodes[node as usize].alive = false;
        self.record(TraceKind::NodeLost { node: NodeId(node) });
        // DataNode-death semantics: the node's replicas die with it. Strip
        // them from the namespace (keeping `locations` the live set), tally
        // blocks now under-replicated or gone, and arm the repair daemon.
        let mut any_block_lost = false;
        if self.data_loss {
            let affected = self.namespace.drop_node_replicas(NodeId(node));
            for &block in &affected {
                self.record(TraceKind::ReplicaLost {
                    block,
                    node: NodeId(node),
                });
                let b = self.namespace.block(block);
                if b.locations.is_empty() {
                    self.metrics.replica_mut().blocks_lost += 1;
                    any_block_lost = true;
                } else if (b.locations.len() as u8) < b.replication {
                    self.under_replicated.insert(block);
                }
            }
            self.schedule_repair();
        }
        if let Some(memo) = &mut self.memo {
            if self.data_loss {
                // A cached map output can be re-derived by any surviving
                // holder of its input block: re-home the entry instead of
                // recomputing; drop it only when no replica survives.
                let namespace = &self.namespace;
                let (_, dropped) = memo.rehome_or_drop_node(NodeId(node), |b| {
                    namespace
                        .block(b)
                        .locations
                        .first()
                        .map(|&d| namespace.topology().node_of(d))
                });
                self.metrics.memo_mut().entries_invalidated += dropped;
            } else {
                // Cached map output lives on the node that produced (or
                // last replayed) it and dies with the tracker — drop its
                // memo entries so later probes recompute instead of
                // replaying lost output.
                let dropped = memo.invalidate_node(NodeId(node));
                self.metrics.memo_mut().entries_invalidated += dropped;
            }
        }
        let job_ids: Vec<JobId> = self.jobs.iter().map(|j| j.id).collect();
        for id in job_ids {
            let ntasks = self.job(id).tasks.len();
            for t in 0..ntasks {
                let task = TaskId(t as u32);
                while let Some(idx) = self.job(id).tasks[t]
                    .running
                    .iter()
                    .position(|a| a.node.0 == node)
                {
                    self.kill_attempt(id, task, idx, false);
                }
            }
            if self.job(id).phase == JobPhase::Done {
                continue;
            }
            for t in 0..ntasks {
                let task = TaskId(t as u32);
                let entry = &self.job(id).tasks[t];
                if !entry.done && !entry.queued && entry.running.is_empty() && !entry.abandoned {
                    if self.job(id).deadline_hit {
                        // Past a graceful deadline, a stranded task is
                        // abandoned instead of retried.
                        self.job_mut(id).tasks[t].abandoned = true;
                    } else {
                        // Stranded by the kills above: back in the queue.
                        self.enqueue_task(id, task);
                    }
                } else if entry.done
                    && entry.completed_node == Some(NodeId(node))
                    && self.job(id).phase == JobPhase::Map
                    && !self.job(id).deadline_hit
                {
                    // Completed on the dead tracker: its map output is
                    // gone, so the task re-executes. (Once the job is
                    // reducing, the merged buffers model output the
                    // reducers already fetched — no re-execution, as in
                    // Hadoop once all reducers pass the copy phase.)
                    if self.data_loss && !self.namespace.block(entry.block).locations.is_empty() {
                        // Replica fast path: the task's output is already
                        // merged (the shuffle is job state), and a re-run
                        // from a surviving replica would only reproduce
                        // bytes the dup-merge guard drops — skip it.
                        self.metrics.replica_mut().reexecutions_avoided += 1;
                    } else {
                        {
                            let job = self.job_mut(id);
                            let e = &mut job.tasks[t];
                            e.done = false;
                            e.completed_node = None;
                            job.completed -= 1;
                        }
                        self.metrics.faults_mut().maps_reexecuted += 1;
                        self.enqueue_task(id, task);
                    }
                }
            }
            // A block that lost its last replica makes some not-yet-done
            // splits unreadable: settle the job's fate now (typed failure,
            // or graceful partial under `allow_partial`).
            if any_block_lost {
                self.handle_lost_input(id);
            }
            // Reduce attempts running on the node restart elsewhere; their
            // input buffers are intact (the shuffle is job state, and
            // `assign_reduce` keeps a copy under the fault model).
            let nreduces = self.job(id).reduces.len();
            for r in 0..nreduces {
                let running_here = matches!(
                    self.job(id).reduces[r].state,
                    ReduceState::Running { node: n } if n.0 == node
                );
                if !running_here {
                    continue;
                }
                let timer = {
                    let entry = &mut self.job_mut(id).reduces[r];
                    entry.state = ReduceState::Pending;
                    entry.pending = None;
                    entry.timer.take()
                };
                if let Some(timer) = timer {
                    self.sim.cancel(timer);
                }
                self.pending_reduces.push_back((id, r as u32));
            }
            // Abandonment above (graceful deadline) can leave end-of-input
            // with nothing running or pending — enter the reduce phase now
            // rather than wedging. A no-op in every other state.
            self.maybe_begin_reduce(id);
        }
        self.nodes[node as usize].free_slots = 0;
        self.nodes[node as usize].free_reduce_slots = 0;
    }

    /// A dead TaskTracker rejoins with full, empty slots and a fresh
    /// heartbeat chain. Per-job blacklists persist across the rejoin.
    fn on_node_up(&mut self, node: u16) {
        if self.nodes[node as usize].alive {
            return;
        }
        let n = &mut self.nodes[node as usize];
        n.alive = true;
        n.free_slots = self.cfg.map_slots_per_node;
        n.free_reduce_slots = self.cfg.reduce_slots_per_node;
        self.record(TraceKind::NodeRejoined { node: NodeId(node) });
        // A rejoined DataNode comes back empty but is a fresh placement
        // candidate for blocks the repair daemon previously had no home
        // for (e.g. replication target > alive nodes).
        self.schedule_repair();
        if self.active_jobs > 0 {
            self.ensure_heartbeats();
        }
    }

    /// Arm the re-replication daemon: at most one `RepairTick` is in
    /// flight, and only while some block sits below its replication
    /// target. No-op unless `enable_re_replication` configured a period.
    fn schedule_repair(&mut self) {
        let Some(interval) = self.repair_interval else {
            return;
        };
        if self.repair_scheduled || self.under_replicated.is_empty() {
            return;
        }
        self.repair_scheduled = true;
        self.sim.schedule_after(interval, Event::RepairTick);
    }

    /// One pass of the re-replication daemon: every under-replicated block
    /// gains at most one replica per tick, copied from a surviving holder
    /// onto the lowest-numbered live node not already holding it, with
    /// uncovered racks preferred (the same spread rule as initial
    /// placement). Restored replicas re-enter the locality indexes of
    /// still-mapping jobs. The daemon re-arms only when a pass made
    /// progress; otherwise it waits for a rejoin to supply candidates.
    fn on_repair_tick(&mut self) {
        self.repair_scheduled = false;
        let blocks: Vec<BlockId> = self.under_replicated.iter().copied().collect();
        let mut restored: Vec<(BlockId, NodeId)> = Vec::new();
        for block in blocks {
            let b = self.namespace.block(block);
            let target = b.replication;
            let live = b.locations.len() as u8;
            if live >= target || live == 0 {
                // Back at target, or gone entirely — repair cannot
                // resurrect a block with zero surviving sources.
                self.under_replicated.remove(&block);
                continue;
            }
            let topo = self.namespace.topology();
            let holders: BTreeSet<NodeId> = b.locations.iter().map(|&d| topo.node_of(d)).collect();
            let covered: BTreeSet<RackId> = holders.iter().map(|&n| topo.rack_of(n)).collect();
            let pick = topo
                .nodes()
                .filter(|n| self.nodes[n.0 as usize].alive && !holders.contains(n))
                .min_by_key(|&n| (covered.contains(&topo.rack_of(n)), n.0));
            let Some(node) = pick else {
                continue; // every live node already holds one: wait for a rejoin
            };
            let disk = topo
                .disks_of(node)
                .nth(block.0 as usize % topo.disks_per_node() as usize)
                .expect("node has at least one disk");
            self.namespace.add_replica(block, disk);
            self.record(TraceKind::ReplicaRestored { block, node });
            if self.namespace.block(block).locations.len() as u8 >= target {
                self.under_replicated.remove(&block);
            }
            restored.push((block, node));
        }
        if restored.is_empty() {
            return;
        }
        // A restored replica makes its block local to a new node: refresh
        // the per-node locality lists of every job still mapping it, so
        // the schedulers can win back data-local dispatches.
        let njobs = self.jobs.len();
        for j in 0..njobs {
            let id = self.jobs[j].id;
            if self.job(id).phase != JobPhase::Map {
                continue;
            }
            for &(block, node) in &restored {
                let to_add: Vec<TaskId> = {
                    let job = self.job(id);
                    job.pending
                        .iter()
                        .copied()
                        .filter(|&t| {
                            job.tasks[t.0 as usize].block == block
                                && !job.pending_by_node[node.0 as usize].contains(&t)
                        })
                        .collect()
                };
                let job = self.job_mut(id);
                for t in to_add {
                    job.pending_by_node[node.0 as usize].push_back(t);
                }
            }
            self.refresh_sched_index(id);
        }
        self.schedule_repair();
    }

    /// Settle a job some of whose input blocks have no surviving replica:
    /// fail it with the typed [`JobError::InputLost`], or — under
    /// `mapred.job.allow.partial` — abandon exactly the unreadable splits
    /// (the graceful-deadline machinery) and let the rest commit.
    fn handle_lost_input(&mut self, id: JobId) {
        if self.job(id).phase == JobPhase::Done {
            return;
        }
        let lost: Vec<TaskId> = self
            .job(id)
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                !e.done && !e.abandoned && self.namespace.block(e.block).locations.is_empty()
            })
            .map(|(t, _)| TaskId(t as u32))
            .collect();
        if lost.is_empty() {
            return;
        }
        let mut blocks: Vec<BlockId> = lost
            .iter()
            .map(|&t| self.job(id).tasks[t.0 as usize].block)
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        // Kill surviving attempts of unreadable tasks (attempts on the
        // dead node itself were already killed, slotless, by the caller).
        for &t in &lost {
            while !self.job(id).tasks[t.0 as usize].running.is_empty() {
                self.kill_attempt(id, t, 0, true);
            }
        }
        let graceful = self.job(id).allow_partial;
        self.record(TraceKind::InputLost {
            job: id,
            blocks: blocks.len() as u32,
            graceful,
        });
        if !graceful {
            self.complete_job(id, Err(JobError::InputLost { blocks }));
            return;
        }
        let lost_set: HashSet<TaskId> = lost.iter().copied().collect();
        let job = self.job_mut(id);
        for &t in &lost {
            let e = &mut job.tasks[t.0 as usize];
            e.queued = false;
            e.abandoned = true;
        }
        // Per-node lists are cleaned lazily through the `queued` flag.
        job.pending.retain(|t| !lost_set.contains(t));
        self.refresh_sched_index(id);
        // Abandonment can leave end-of-input with nothing running or
        // pending; enter the reduce phase rather than wedging.
        self.maybe_begin_reduce(id);
    }

    /// At a node's heartbeat, consider launching one speculative backup of
    /// a laggard map attempt there (Hadoop launches speculative tasks
    /// through the same slot offers as ordinary ones, once a job has no
    /// pending work left).
    fn maybe_speculate(&mut self, node: u16) {
        let Some(cfg) = self
            .cluster_faults
            .as_ref()
            .and_then(|cf| cf.plan.speculation)
        else {
            return;
        };
        if self.nodes[node as usize].free_slots == 0 {
            return;
        }
        let now = self.sim.now();
        let mut launch = None;
        // Only jobs that have drained their pending queue and still have a
        // solo non-speculative attempt in flight are scanned — `spec_jobs`
        // is maintained incrementally, so an idle heartbeat costs O(1)
        // instead of a walk over every job's whole task table.
        for &idx in &self.spec_jobs {
            let job = &self.jobs[idx as usize];
            debug_assert!(job.phase == JobPhase::Map && job.pending.is_empty());
            if job.banned_nodes[node as usize] || job.map_ms_count < cfg.min_completed {
                continue;
            }
            let mean = job.map_ms_sum as f64 / job.map_ms_count as f64;
            // Membership in `spec_candidates` already guarantees exactly
            // one non-speculative attempt; only the per-heartbeat "not on
            // this node" filter remains.
            let candidates: Vec<SpecCandidate> = job
                .spec_candidates
                .iter()
                .filter(|&&(_, t)| job.tasks[t as usize].running[0].node.0 != node)
                .map(|&(started, t)| SpecCandidate {
                    task: t,
                    attempts_in_flight: 1,
                    speculative_in_flight: false,
                    started,
                })
                .collect();
            if let Some(task) = pick_speculative(&candidates, now, mean, job.map_ms_count, &cfg) {
                launch = Some((job.id, TaskId(task)));
                break;
            }
        }
        let Some((id, task)) = launch else {
            return;
        };
        // Speculative backups always submit real work (no memo probe): a
        // backup exists because the primary is suspect, and the dup-merge
        // guard absorbs whichever copy loses.
        let handle = self.submit_map(id, task);
        self.record(TraceKind::SpeculativeLaunch {
            job: id,
            task,
            node: NodeId(node),
        });
        self.dispatch(id, task, NodeId(node), MapWork::Computed(handle), true);
    }

    /// Close a job, failed (`Err`) or with its output and estimator
    /// verdict: store its result, record `JobCompleted`, and queue it on
    /// the completed list.
    fn complete_job(&mut self, id: JobId, outcome: Result<JobOutput, JobError>) {
        let now = self.sim.now();
        self.unpark(id);
        let job = self.job_mut(id);
        debug_assert!(job.phase != JobPhase::Done);
        job.phase = JobPhase::Done;
        // Drop any shuffle state still buffered; late attempts see the
        // Done phase and never merge.
        job.shuffle = ShuffleState::default();
        let failed = outcome.is_err();
        let (output, agg, error) = match outcome {
            Ok((output, agg)) => (output, agg, None),
            Err(error) => (Vec::new(), None, Some(error)),
        };
        job.result = Some(JobResult {
            job: id,
            submit_time: job.submit_time,
            finish_time: now,
            splits_processed: job.completed,
            records_processed: job.records_processed,
            map_output_records: job.map_output_records,
            local_tasks: job.local_tasks,
            task_failures: job.task_failures,
            failed,
            error,
            output,
            histograms: job.hist.clone(),
            agg,
        });
        self.record(TraceKind::JobCompleted { job: id, failed });
        // Late attempts of a failed job keep their spec-index entries
        // consistent through `kill_attempt`/`finish_map_task`; the job
        // itself leaves every runnable index now.
        self.refresh_sched_index(id);
        self.active_jobs -= 1;
        self.completed.push_back(id);
    }

    /// Transition to the reduce phase once end-of-input is declared and
    /// every scheduled map has finished.
    ///
    /// The heavy lifting already happened: map output was partitioned on
    /// the data-plane workers and merged into the per-reduce buffers at
    /// each map's completion (`finish_map_task`). This step only spreads
    /// the unmaterialised remainder across partitions, records skew
    /// statistics, and queues the reduce tasks — O(`reduce_tasks`), no
    /// map-output pair is visited.
    fn maybe_begin_reduce(&mut self, id: JobId) {
        let job = self.job(id);
        if job.phase != JobPhase::Map
            || !job.end_of_input
            || job.running > 0
            || !job.pending.is_empty()
        {
            return;
        }
        let job = self.job_mut(id);
        job.phase = JobPhase::Reduce;
        let r = job.reduce_tasks;
        let buffers = std::mem::take(&mut job.shuffle).into_buffers();
        debug_assert_eq!(buffers.len(), r as usize);
        let mut reduces: Vec<ReduceEntry> = buffers
            .into_iter()
            .map(|buffer| ReduceEntry {
                state: ReduceState::Pending,
                started_at: SimTime::ZERO,
                buffer,
                pending: None,
                timer: None,
                attempts: 0,
                output: Vec::new(),
            })
            .collect();
        // Unmaterialised output (counts/bytes only) spreads evenly.
        let materialized_bytes: u64 = reduces.iter().map(|e| e.buffer.shuffle_bytes).sum();
        let materialized_records: u64 = reduces.iter().map(|e| e.buffer.input_records).sum();
        let extra_bytes = job.shuffle_bytes.saturating_sub(materialized_bytes);
        let extra_records = job.map_output_records.saturating_sub(materialized_records);
        for (i, entry) in reduces.iter_mut().enumerate() {
            let i = i as u64;
            entry.buffer.shuffle_bytes +=
                extra_bytes / r as u64 + u64::from(i < extra_bytes % r as u64);
            entry.buffer.input_records +=
                extra_records / r as u64 + u64::from(i < extra_records % r as u64);
        }
        let max_partition_bytes = reduces
            .iter()
            .map(|e| e.buffer.shuffle_bytes)
            .max()
            .unwrap_or(0);
        let min_partition_bytes = reduces
            .iter()
            .map(|e| e.buffer.shuffle_bytes)
            .min()
            .unwrap_or(0);
        let combiner_in = job.combiner_input_records;
        let combiner_out = job.combiner_output_records;
        job.reduces = reduces;
        // Shuffle-merge window: first map completion to shuffle-ready
        // (zero for a job that never ran a map).
        let merge_ms = self
            .job(id)
            .first_merge_at
            .map(|t0| (self.sim.now() - t0).as_millis())
            .unwrap_or(0);
        self.obs_record(id, |reg| reg.record_shuffle_merge(merge_ms));
        self.record(TraceKind::ShuffleReady {
            job: id,
            partitions: r,
            combiner_in,
            combiner_out,
            max_partition_bytes,
            min_partition_bytes,
        });
        for i in 0..r {
            self.pending_reduces.push_back((id, i));
        }
    }

    /// Offer one reduce launch on `node` (one per heartbeat, like maps in
    /// stock Hadoop). Reduce placement is not locality-sensitive — inputs
    /// arrive over the network from every mapper anyway.
    fn assign_reduce(&mut self, node: u16) {
        if !self.nodes[node as usize].alive || self.nodes[node as usize].free_reduce_slots == 0 {
            return;
        }
        // Skip stale queue entries whose job already finished (a failed
        // job's reduces never launch).
        let (id, r) = loop {
            let Some((id, r)) = self.pending_reduces.pop_front() else {
                return;
            };
            if self.job(id).phase == JobPhase::Reduce {
                break (id, r);
            }
        };
        self.nodes[node as usize].free_reduce_slots -= 1;
        let now = self.sim.now();
        let cost = self.cost;
        let keep_backup = self.cluster_faults.is_some();
        // Submit the partition's record work (the user reducer over its
        // groups) to the data plane now; the simulated duration below
        // models the same work, so the handle is ripe by `ReduceDone`.
        let (duration, unit) = {
            let job = self.job_mut(id);
            let reducer = std::sync::Arc::clone(&job.spec.reducer);
            let entry = &mut job.reduces[r as usize];
            debug_assert_eq!(entry.state, ReduceState::Pending);
            entry.state = ReduceState::Running { node: NodeId(node) };
            entry.started_at = now;
            let duration =
                cost.reduce_duration_ms(entry.buffer.shuffle_bytes, entry.buffer.input_records);
            // Under the cluster fault model the buffer keeps its data (a
            // clone feeds the attempt) so a failed or killed attempt can
            // re-execute from the same input; fault-free runs move it.
            let (key_order, groups) = if keep_backup {
                (entry.buffer.key_order.clone(), entry.buffer.groups.clone())
            } else {
                (
                    std::mem::take(&mut entry.buffer.key_order),
                    std::mem::take(&mut entry.buffer.groups),
                )
            };
            let unit = ReduceUnit {
                reducer,
                key_order,
                groups,
            };
            (duration, unit)
        };
        let handle = self.executor.submit(unit);
        let ev = self.sim.schedule_after(
            SimDuration::from_millis(duration),
            Event::ReduceDone { job: id, reduce: r },
        );
        {
            let entry = &mut self.job_mut(id).reduces[r as usize];
            entry.pending = Some(handle);
            entry.timer = Some(ev);
        }
        self.record(TraceKind::ReduceStarted {
            job: id,
            reduce: r,
            node: NodeId(node),
        });
    }

    fn on_reduce_done(&mut self, id: JobId, r: u32) {
        let now = self.sim.now();
        // Claim the data-plane result (the user reducer ran on a worker,
        // submitted at slot assignment).
        let (node, handle) = {
            let job = self.job_mut(id);
            let entry = &mut job.reduces[r as usize];
            let ReduceState::Running { node } = entry.state else {
                panic!("reduce completed while not running");
            };
            entry.timer = None;
            // Invariant: `assign_reduce` stores the handle with the timer
            // whose expiry delivered this event; node death cancels the
            // timer when it clears the handle.
            (
                node,
                entry
                    .pending
                    .take()
                    .expect("reduce submitted at assignment"),
            )
        };
        self.nodes[node.0 as usize].free_reduce_slots += 1;
        if self.job(id).phase == JobPhase::Done {
            drop(handle); // job already failed; nobody wants the result
            return;
        }
        // Reduce-attempt fault draw (cluster fault model only; drawn at
        // every completion so the stream stays aligned).
        if let Some(cf) = &mut self.cluster_faults {
            use rand::Rng;
            let roll = cf.reduce_rng.gen_range(0.0..1.0);
            if roll < cf.plan.reduce_fault_probability {
                let max = cf.plan.effective_max_attempts();
                drop(handle);
                let attempts = {
                    let entry = &mut self.job_mut(id).reduces[r as usize];
                    entry.state = ReduceState::Pending;
                    entry.attempts += 1;
                    entry.attempts
                };
                self.record(TraceKind::ReduceFailed {
                    job: id,
                    reduce: r,
                    attempt: attempts,
                });
                if attempts >= max {
                    self.complete_job(id, Err(JobError::ReduceAttemptsExhausted { reduce: r }));
                } else {
                    self.pending_reduces.push_back((id, r));
                }
                return;
            }
        }
        let result = handle.join();
        self.metrics.add_host_reduce_ns(result.host_ns);
        let (reduce_ms, all_done) = {
            let job = self.job_mut(id);
            let entry = &mut job.reduces[r as usize];
            entry.state = ReduceState::Done;
            entry.output = result.output;
            // Release the re-execution backup the fault model retained.
            entry.buffer.key_order = Default::default();
            entry.buffer.groups = Default::default();
            let reduce_ms = (now - entry.started_at).as_millis();
            job.reduces_done += 1;
            (reduce_ms, job.reduces_done == job.reduce_tasks)
        };
        self.obs_record(id, |reg| reg.record_reduce(reduce_ms));
        self.record(TraceKind::ReduceFinished { job: id, reduce: r });
        if all_done {
            self.finalize_job(id);
        }
    }

    fn finalize_job(&mut self, id: JobId) {
        let job = self.job_mut(id);
        // Concatenate in reduce order. The first reduce's output moves as
        // is (most jobs have one reduce); later ones append to it.
        let mut outputs = job
            .reduces
            .iter_mut()
            .map(|e| std::mem::take(&mut e.output));
        let mut output = outputs.next().unwrap_or_default();
        for mut more in outputs {
            output.append(&mut more);
        }
        // A sampling job that ran out of matching input (or hit a graceful
        // deadline) below its `k` still completes: the paper's answer set
        // is correct, just smaller. Surface that as a typed trace event
        // and counter rather than a failure.
        let partial = sample_size_of(&job.spec.conf)
            .map(|k| (output.len() as u64, k))
            .filter(|&(found, k)| found < k);
        // Approximate-aggregation plane: classify the finish. Estimating
        // jobs re-fold at the final task set (deterministic, so a warm
        // re-run reports byte-identical statistics); exact aggregates
        // (`mapred.agg.total.splits` without an error bound) are always
        // `Exact`.
        let agg = match &job.estimator {
            Some(estimator) => Some(estimator.report()),
            None => job
                .spec
                .conf
                .get(keys::AGG_TOTAL_SPLITS)
                .and_then(|v| v.parse::<u32>().ok())
                .map(|total| AggReport {
                    outcome: AggOutcome::Exact,
                    completed: job.completed,
                    total,
                    groups: output.len() as u32,
                    worst_rel: 0.0,
                }),
        };
        if let Some((found, requested)) = partial {
            self.record(TraceKind::PartialSample {
                job: id,
                found,
                requested,
            });
        }
        self.complete_job(id, Ok((output, agg)));
    }
}

/// Convenience: read the configured sample size `k` from a job's conf.
pub fn sample_size_of(conf: &crate::conf::JobConf) -> Option<u64> {
    conf.get(keys::SAMPLING_K).and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use incmr_data::{Dataset, DatasetSpec, SkewLevel};
    use incmr_dfs::{ClusterTopology, EvenRoundRobin};

    use super::*;
    use crate::approx::{encode_funcs, encode_group_part, AggKind};
    use crate::exec::{DatasetInputFormat, MapResult, Mapper, ScanMode, SplitData};
    use crate::job::{JobSpec, StaticDriver};
    use crate::scheduler::FifoScheduler;

    /// Emits one group part per split: the split's record count, under
    /// one group.
    struct CountPartMapper;

    impl Mapper for CountPartMapper {
        fn run(&self, data: SplitData) -> MapResult {
            let n = data.total_records();
            MapResult {
                pairs: vec![(Key::from("g"), encode_group_part(n, &[n as f64]))],
                records_read: n,
                ..MapResult::default()
            }
        }
    }

    #[test]
    fn release_drops_an_estimating_jobs_group_parts() {
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let mut rng = DetRng::seed_from(3);
        let spec = DatasetSpec::small("t", 8, 500, SkewLevel::Zero, 3);
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
        let blocks: Vec<BlockId> = ds.splits().iter().map(|p| p.block).collect();
        let spec = JobSpec::builder()
            .input(DatasetInputFormat::new(Arc::clone(&ds), ScanMode::Planted))
            .mapper(CountPartMapper)
            .error_bound(0.05, 0.95)
            .set(keys::AGG_FUNCS, encode_funcs(&[AggKind::Count]))
            .set(keys::AGG_TOTAL_SPLITS, blocks.len())
            .build();
        let id = rt.submit(spec, Box::new(StaticDriver::new(blocks)));
        rt.run_until_idle();
        let report = rt.job_result(id).agg.expect("an estimating job reports");
        let live = rt.job(id).estimator.as_ref().map(|e| e.report());
        assert_eq!(live, Some(report), "every split's parts still held");
        assert_eq!(report.completed, 8, "one entry per split");
        rt.release_job_result(id);
        assert!(rt.job(id).estimator.is_none(), "parts released");
        assert_eq!(rt.job_result(id).agg, Some(report), "report kept");
    }

    /// Deliver every queued event by hand, tallying deliveries per
    /// `Event` variant.
    fn drive(rt: &mut MrRuntime, tally: &mut BTreeMap<String, u64>) {
        while let Some((_, ev)) = rt.sim.pop() {
            let name = format!("{ev:?}");
            let variant = name.split([' ', '{']).next().unwrap_or_default();
            *tally.entry(variant.to_string()).or_default() += 1;
            rt.handle(ev);
        }
    }

    /// One line per run: deliveries per variant, then `Sim::counters()`.
    fn traffic(rt: &MrRuntime, tally: &BTreeMap<String, u64>) -> String {
        let (scheduled, delivered, cancelled) = rt.sim.counters();
        let kinds: Vec<String> = tally.iter().map(|(k, n)| format!("{k}={n}")).collect();
        format!(
            "{} | scheduled={scheduled} delivered={delivered} cancelled={cancelled}",
            kinds.join(" ")
        )
    }

    fn dataset(
        ns: &mut Namespace,
        splits: u32,
        records: u64,
        placement: &mut dyn incmr_dfs::PlacementPolicy,
        seed: u64,
    ) -> Arc<Dataset> {
        let name = format!("t{seed}");
        let spec = DatasetSpec::small(&name, splits, records, SkewLevel::Moderate, seed);
        Arc::new(Dataset::build(
            ns,
            spec,
            placement,
            &mut DetRng::seed_from(seed),
        ))
    }

    fn runtime(ns: Namespace) -> MrRuntime {
        let mut cfg = ClusterConfig::paper_single_user();
        cfg.topology = *ns.topology();
        MrRuntime::new(
            cfg,
            CostModel::paper_default(),
            ns,
            Box::new(FifoScheduler::new()),
        )
    }

    fn scan(ds: &Arc<Dataset>) -> JobSpec {
        JobSpec::builder()
            .input(DatasetInputFormat::new(Arc::clone(ds), ScanMode::Planted))
            .mapper(CountPartMapper)
            .build()
    }

    fn all_blocks(ds: &Dataset) -> Vec<BlockId> {
        ds.splits().iter().map(|p| p.block).collect()
    }

    /// Hands out `step` splits per consultation (submission included)
    /// until its pool runs dry, then ends input; consultation `bad_at`
    /// instead names a block outside the namespace.
    struct Trickle {
        blocks: Vec<BlockId>,
        step: usize,
        calls: u32,
        bad_at: u32,
    }

    impl Trickle {
        fn next(&mut self) -> Vec<BlockId> {
            self.calls += 1;
            if self.calls == self.bad_at {
                return vec![BlockId(u32::MAX)];
            }
            let n = self.step.min(self.blocks.len());
            self.blocks.drain(..n).collect()
        }
    }

    impl GrowthDriver for Trickle {
        fn initial_input(&mut self, _cluster: &ClusterStatus) -> Vec<BlockId> {
            self.next()
        }

        fn evaluate(&mut self, _ctx: EvalContext<'_>) -> GrowthDirective {
            if self.blocks.is_empty() {
                GrowthDirective::EndOfInput
            } else {
                GrowthDirective::AddInput(self.next())
            }
        }

        fn evaluation_interval(&self) -> SimDuration {
            SimDuration::from_secs(2)
        }
    }

    /// The event loop's traffic for four fixed shapes: how many events of
    /// each kind are delivered, and how many are scheduled and cancelled
    /// in total. Disk and CPU wakes are not traced, so no golden file pins
    /// them; this does. A change that moves these counts on purpose (one
    /// that elides idle heartbeats, say) updates the table and says why.
    #[test]
    fn event_loop_traffic_is_pinned() {
        let mut got = Vec::new();

        // A static job.
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let ds = dataset(&mut ns, 12, 2_000, &mut EvenRoundRobin::new(), 1);
        let mut rt = runtime(ns);
        let mut tally = BTreeMap::new();
        rt.submit(scan(&ds), Box::new(StaticDriver::new(all_blocks(&ds))));
        drive(&mut rt, &mut tally);
        got.push(traffic(&rt, &tally));

        // A growth driver that adds splits over several evaluations and
        // absorbs one bad directive, beside one whose first consultation
        // fails its job at submission.
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let ds = dataset(&mut ns, 12, 2_000, &mut EvenRoundRobin::new(), 2);
        let mut rt = runtime(ns);
        let mut tally = BTreeMap::new();
        let trickle = |bad_at| Trickle {
            blocks: all_blocks(&ds),
            step: 3,
            calls: 0,
            bad_at,
        };
        let mut retrying = scan(&ds);
        retrying.conf.set(keys::PROVIDER_RETRY_BUDGET, 1);
        let grows = rt.submit(retrying, Box::new(trickle(3)));
        let fails = rt.submit(scan(&ds), Box::new(trickle(1)));
        drive(&mut rt, &mut tally);
        assert!(!rt.job_result(grows).failed && rt.job_result(fails).failed);
        got.push(traffic(&rt, &tally));

        // The cluster fault model: an outage and rejoin, a straggler that
        // draws speculation, map and reduce faults, blacklisting.
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let ds = dataset(&mut ns, 24, 200_000, &mut EvenRoundRobin::new(), 3);
        let mut rt = runtime(ns);
        rt.inject_cluster_faults(ClusterFaultPlan {
            outages: vec![crate::faults::NodeOutage {
                node: NodeId(5),
                down_at: SimTime::from_secs(10),
                up_at: Some(SimTime::from_secs(25)),
            }],
            node_speed: vec![1.0, 1.0, 0.3],
            map_fault_probability: 0.18,
            reduce_fault_probability: 0.5,
            max_attempts: 8,
            speculation: Some(crate::faults::SpeculationConfig::default()),
            blacklist_threshold: Some(2),
            seed: 9,
        })
        .expect("valid plan");
        let mut tally = BTreeMap::new();
        let id = rt.submit(scan(&ds), Box::new(StaticDriver::new(all_blocks(&ds))));
        drive(&mut rt, &mut tally);
        let faults = rt.metrics().faults();
        assert!(rt.job_result(id).task_failures > 0 && faults.reduce_failures > 0);
        assert!(faults.speculative_launched > 0 && faults.nodes_rejoined == 1);
        got.push(traffic(&rt, &tally));

        // DataNode death with re-replication: a rack-aware r = 2 table
        // survives the death and is repaired; an unreplicated one loses
        // input and fails its job.
        let topology = ClusterTopology::paper_cluster().with_racks(2);
        let mut ns = Namespace::new(topology);
        let replicated = incmr_dfs::ReplicatedPlacement::try_rack_aware(2, &topology);
        let ds = dataset(&mut ns, 20, 2_000, &mut replicated.expect("fits"), 4);
        let lossy = dataset(&mut ns, 12, 2_000, &mut EvenRoundRobin::new(), 5);
        let mut rt = runtime(ns);
        rt.enable_re_replication(SimDuration::from_secs(5))
            .expect("nonzero interval");
        rt.inject_cluster_faults(ClusterFaultPlan {
            outages: vec![crate::faults::NodeOutage {
                node: NodeId(0),
                down_at: SimTime::from_millis(1_300),
                up_at: Some(SimTime::from_secs(15)),
            }],
            seed: 13,
            ..ClusterFaultPlan::default()
        })
        .expect("valid plan");
        let mut tally = BTreeMap::new();
        let survives = rt.submit(scan(&ds), Box::new(StaticDriver::new(all_blocks(&ds))));
        drive(&mut rt, &mut tally);
        let lost = rt.submit(
            scan(&lossy),
            Box::new(StaticDriver::new(all_blocks(&lossy))),
        );
        drive(&mut rt, &mut tally);
        assert!(!rt.job_result(survives).failed && rt.job_result(lost).failed);
        assert!(rt.metrics().replica().replicas_restored > 0);
        got.push(traffic(&rt, &tally));

        let want = [
            "CpuWake=3 DiskWake=12 Heartbeat=23 OverheadDone=12 ReduceDone=1 \
             | scheduled=60 delivered=51 cancelled=9",
            "CpuWake=4 DiskWake=12 EvalTick=4 Heartbeat=43 NetworkDone=6 OverheadDone=12 \
             ReduceDone=1 | scheduled=90 delivered=82 cancelled=8",
            "CpuWake=14 DiskWake=37 Heartbeat=96 NetworkDone=12 NodeDown=1 NodeUp=1 \
             OverheadDone=37 ReduceDone=2 | scheduled=226 delivered=200 cancelled=26",
            "CpuWake=8 DiskWake=20 Heartbeat=35 NetworkDone=16 NodeDown=1 NodeUp=1 \
             OverheadDone=20 ReduceDone=1 RepairTick=1 | scheduled=122 delivered=103 cancelled=19",
        ];
        assert_eq!(got, want);
    }
}
