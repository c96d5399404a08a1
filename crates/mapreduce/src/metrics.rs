//! Cluster-wide resource metrics, mirroring the instrumentation of the
//! paper's multi-user experiments: "we monitored the CPU utilization (%)
//! and disk reads (Kbs/sec) at 30 second intervals on each node of the
//! cluster … averaged over the 40 cores and 40 disks" (Section V-D), plus
//! the locality % and slot-occupancy % measurements of Section V-F.
//!
//! Every counter is a fold over the recorded events:
//! `ClusterMetrics::absorb` is its only writer (the runtime calls it on
//! each event it records, traced or not), and
//! [`ClusterMetrics::from_trace`] replays an exported trace through the
//! same fold. The latency histograms are the same kind of fold
//! ([`crate::MetricsRegistry::from_trace`]).
//!
//! Two extra counter families instrument the streaming shuffle:
//! [`ShuffleMetrics`] (deterministic record counters — the combiner's
//! effect) and [`HostPhaseNanos`] (host wall-clock
//! spent on the data plane per phase). Host timings never feed the trace
//! or any simulated quantity — they vary run to run and across thread
//! counts, while traces must not.

use incmr_simkit::stats::{Sampled, TimeWeighted};
use incmr_simkit::{SimDuration, SimTime};

use crate::trace::{TraceEvent, TraceKind};

/// Interval at which resource counters are folded into metrics series (the
/// paper samples at 30 s).
pub(crate) const METRICS_INTERVAL: SimDuration = SimDuration::from_secs(30);

/// Deterministic shuffle counters, aggregated across jobs whose shuffle
/// closed inside the metrics window (one `ShuffleReady` event each).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShuffleMetrics {
    /// Jobs whose shuffle completed (reduce phase began).
    pub jobs: u64,
    /// Records fed to map-side combiners (0 for jobs without one).
    pub combiner_input_records: u64,
    /// Records surviving map-side combiners.
    pub combiner_output_records: u64,
}

impl ShuffleMetrics {
    /// Records the combiner removed (`input − output`).
    pub fn combined_away(&self) -> u64 {
        self.combiner_input_records
            .saturating_sub(self.combiner_output_records)
    }
}

/// Deterministic fault-plane counters: node churn and the Hadoop-semantics
/// responses (re-execution, speculation, blacklisting). All driven by
/// simulated time and seeded draws, so they are identical across thread
/// counts for a fixed fault schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultMetrics {
    /// Nodes that died (`NodeLost`).
    pub nodes_lost: u64,
    /// Nodes that rejoined after dying (`NodeRejoined`).
    pub nodes_rejoined: u64,
    /// Completed map tasks re-executed because their node (and its stored
    /// map output) was lost (`MapOutputLost` with `rerun`).
    pub maps_reexecuted: u64,
    /// Speculative attempts launched for laggard maps (`SpeculativeLaunch`).
    pub speculative_launched: u64,
    /// Reduce attempts failed by fault injection (`ReduceFailed`).
    pub reduce_failures: u64,
    /// (job, node) blacklist entries created (`NodeBlacklisted`).
    pub nodes_blacklisted: u64,
}

/// Deterministic guard-rail counters: how often the runtime had to defend
/// itself against misbehaving job-supplied logic (Input Providers, growth
/// drivers) or enforce job deadlines. Like [`FaultMetrics`], these are
/// driven purely by simulated time, so they are identical across thread
/// counts for a fixed schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardrailMetrics {
    /// Provider/driver invocations that panicked (caught by the sandbox;
    /// `ProviderFault` with `panicked`).
    pub provider_panics: u64,
    /// Provider failures of any kind, panics plus invalid directives
    /// (`ProviderFault`).
    pub provider_errors: u64,
    /// `AddInput` directives naming a block outside the namespace
    /// (`ProviderFault` with `unknown_block`).
    pub unknown_blocks: u64,
    /// Provider failures absorbed by the job's retry budget (non-fatal
    /// `ProviderFault`).
    pub provider_retries: u64,
    /// Splits dropped because the job already claimed them (duplicate
    /// `AddInput` entries, within or across directives;
    /// `DuplicateInputDropped`).
    pub duplicate_splits_dropped: u64,
    /// `AddInput` directives truncated to the driver's grab limit
    /// (`GrabLimitClamped`).
    pub grab_limit_clamps: u64,
    /// Jobs terminated by the idle-evaluation (livelock) watchdog
    /// (`JobWedged`).
    pub jobs_wedged: u64,
    /// Jobs whose simulated-time deadline expired (failed or degraded to
    /// a partial result, depending on `settings.allow_partial`;
    /// `DeadlineExceeded`).
    pub deadlines_exceeded: u64,
    /// Sampling jobs that completed with fewer than `k` matches
    /// (`PartialSample`).
    pub partial_samples: u64,
}

/// Deterministic memoization-plane counters: how the incremental
/// recomputation machinery classified splits and what reuse saved. Driven
/// purely by simulated scheduling, so they are identical across thread
/// counts for a fixed evolve schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoMetrics {
    /// Map attempts satisfied from the memo store (host recomputation
    /// skipped; the simulated schedule was preserved; `SplitReused`).
    pub splits_reused: u64,
    /// Splits whose memo entry existed at a stale block version and were
    /// recomputed (`SplitDirty`).
    pub splits_dirty: u64,
    /// Map attempts of jobs with a signature that ran the mapper for real
    /// while memoization was enabled (`SplitMissed` for new splits and
    /// invalidated entries, plus `SplitDirty`). A job without a signature
    /// is never counted.
    pub splits_computed: u64,
    /// Evolve steps that delivered new blocks while jobs were live
    /// (`InputArrived`).
    pub input_arrivals: u64,
    /// Input records whose re-scan a memo hit avoided
    /// (`SplitReused::records`).
    pub records_saved: u64,
    /// Memo entries discarded because the node holding the cached map
    /// output died (`NodeLost::memo_dropped`).
    pub entries_invalidated: u64,
}

/// Deterministic replication-plane counters: replica loss under
/// DataNode-death semantics, read failover, re-replication repair, and the
/// survival accounting the chaos suite asserts on. Driven purely by
/// simulated time and the fault schedule, so they are identical across
/// thread counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaMetrics {
    /// Individual replicas stripped because their DataNode died
    /// (`ReplicaLost`).
    pub replicas_lost: u64,
    /// Replicas recreated by the re-replication daemon
    /// (`ReplicaRestored`).
    pub replicas_restored: u64,
    /// Map reads that failed over from their intended replica to a
    /// surviving one (`ReadFailover`).
    pub read_failovers: u64,
    /// Blocks that lost their *last* replica (unreadable until rewritten;
    /// `ReplicaLost` with `last`).
    pub blocks_lost: u64,
    /// Jobs that hit the input-lost path (failed, or degraded to a partial
    /// result under `settings.allow_partial`; `InputLost`).
    pub input_lost_jobs: u64,
    /// Completed maps on a dead node whose re-execution was skipped
    /// because a live replica of their input block survives (the merged
    /// shuffle output is retained; `MapOutputLost` without `rerun`).
    pub reexecutions_avoided: u64,
}

/// Host-side wall-clock nanoseconds spent on data-plane work, by phase.
/// Pure observability: these depend on the host and thread count, so they
/// are kept out of traces and all simulated accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostPhaseNanos {
    /// Inside map units (read + map + combine + count), summed across
    /// workers.
    pub map_ns: u64,
    /// Control-plane time merging completed maps into the shuffle.
    pub shuffle_merge_ns: u64,
    /// Inside reduce units (user reducer over groups), summed across
    /// workers.
    pub reduce_ns: u64,
}

/// Collects resource-usage series during a run.
#[derive(Debug, Clone)]
pub struct ClusterMetrics {
    start: SimTime,
    cpu: Sampled,
    disk: Sampled,
    occupied_slots: TimeWeighted,
    total_cores: u32,
    total_disks: u32,
    total_slots: u32,
    local_assignments: u64,
    total_assignments: u64,
    shuffle: ShuffleMetrics,
    host: HostPhaseNanos,
    faults: FaultMetrics,
    guardrails: GuardrailMetrics,
    memo: MemoMetrics,
    replica: ReplicaMetrics,
}

/// Aggregated report at the end of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsReport {
    /// Mean CPU utilisation across all cores, percent.
    pub cpu_util_pct: f64,
    /// Mean disk-read rate per disk, KB/s.
    pub disk_kb_per_sec: f64,
    /// Percent of map tasks that read their split locally.
    pub locality_pct: f64,
    /// Mean percent of map slots occupied.
    pub slot_occupancy_pct: f64,
}

impl ClusterMetrics {
    /// Start collecting at `start` on a cluster with the given capacities,
    /// sampling resource counters every `interval` (the paper uses 30 s).
    pub fn new(
        start: SimTime,
        total_cores: u32,
        total_disks: u32,
        total_slots: u32,
        interval: SimDuration,
    ) -> Self {
        ClusterMetrics {
            start,
            cpu: Sampled::new(start, interval),
            disk: Sampled::new(start, interval),
            occupied_slots: TimeWeighted::new(start, 0.0),
            total_cores,
            total_disks,
            total_slots,
            local_assignments: 0,
            total_assignments: 0,
            shuffle: ShuffleMetrics::default(),
            host: HostPhaseNanos::default(),
            faults: FaultMetrics::default(),
            guardrails: GuardrailMetrics::default(),
            memo: MemoMetrics::default(),
            replica: ReplicaMetrics::default(),
        }
    }

    /// Replay an exported trace through `ClusterMetrics::absorb`: the
    /// result holds exactly the counters (locality and every counter
    /// family) a runtime that recorded these events holds. It has no
    /// cluster capacities and no resource series, so only its counters
    /// are meaningful.
    pub fn from_trace(events: &[TraceEvent]) -> ClusterMetrics {
        let mut m = ClusterMetrics::new(SimTime::ZERO, 0, 0, 0, METRICS_INTERVAL);
        for e in events {
            m.absorb(&e.kind);
        }
        m
    }

    /// Fold one recorded event into the counters it backs — the only
    /// writer of every counter. The runtime calls it on each event it
    /// records, whether or not tracing is on.
    pub(crate) fn absorb(&mut self, kind: &TraceKind) {
        match *kind {
            TraceKind::MapStarted { local, .. } => {
                self.total_assignments += 1;
                self.local_assignments += u64::from(local);
            }
            TraceKind::ShuffleReady {
                combiner_in,
                combiner_out,
                ..
            } => {
                let s = &mut self.shuffle;
                s.combiner_input_records += combiner_in;
                s.combiner_output_records += combiner_out;
                s.jobs += 1;
            }
            TraceKind::NodeLost { memo_dropped, .. } => {
                self.faults.nodes_lost += 1;
                self.memo.entries_invalidated += memo_dropped;
            }
            TraceKind::NodeRejoined { .. } => self.faults.nodes_rejoined += 1,
            TraceKind::SpeculativeLaunch { .. } => self.faults.speculative_launched += 1,
            TraceKind::ReduceFailed { .. } => self.faults.reduce_failures += 1,
            TraceKind::NodeBlacklisted { .. } => self.faults.nodes_blacklisted += 1,
            TraceKind::ProviderFault {
                fatal,
                panicked,
                unknown_block,
                ..
            } => {
                let g = &mut self.guardrails;
                g.provider_errors += 1;
                g.provider_retries += u64::from(!fatal);
                g.provider_panics += u64::from(panicked);
                g.unknown_blocks += u64::from(unknown_block);
            }
            TraceKind::GrabLimitClamped { .. } => self.guardrails.grab_limit_clamps += 1,
            TraceKind::DuplicateInputDropped { splits, .. } => {
                self.guardrails.duplicate_splits_dropped += u64::from(splits)
            }
            TraceKind::JobWedged { .. } => self.guardrails.jobs_wedged += 1,
            TraceKind::DeadlineExceeded { .. } => self.guardrails.deadlines_exceeded += 1,
            TraceKind::PartialSample { .. } => self.guardrails.partial_samples += 1,
            TraceKind::SplitReused { records, .. } => {
                self.memo.splits_reused += 1;
                self.memo.records_saved += records;
            }
            TraceKind::SplitDirty { .. } => {
                self.memo.splits_dirty += 1;
                self.memo.splits_computed += 1;
            }
            TraceKind::SplitMissed { .. } => self.memo.splits_computed += 1,
            TraceKind::InputArrived { .. } => self.memo.input_arrivals += 1,
            TraceKind::MapOutputLost { rerun: true, .. } => self.faults.maps_reexecuted += 1,
            TraceKind::MapOutputLost { rerun: false, .. } => self.replica.reexecutions_avoided += 1,
            TraceKind::ReplicaLost { last, .. } => {
                self.replica.replicas_lost += 1;
                self.replica.blocks_lost += u64::from(last);
            }
            TraceKind::ReplicaRestored { .. } => self.replica.replicas_restored += 1,
            TraceKind::ReadFailover { .. } => self.replica.read_failovers += 1,
            TraceKind::InputLost { .. } => self.replica.input_lost_jobs += 1,
            _ => {}
        }
    }

    /// Report cumulative resource totals (core-µs of CPU work drained,
    /// bytes read from disk) as of `now`.
    pub fn observe(&mut self, now: SimTime, cpu_core_us_total: f64, disk_bytes_total: f64) {
        self.cpu.observe(now, cpu_core_us_total);
        self.disk.observe(now, disk_bytes_total);
    }

    /// Record a change in the number of occupied map slots.
    pub fn slots_delta(&mut self, now: SimTime, delta: f64) {
        self.occupied_slots.add(now, delta);
    }

    /// Number of map dispatches (`MapStarted` events) recorded so far.
    pub fn assignments(&self) -> u64 {
        self.total_assignments
    }

    /// Shuffle counters accumulated so far.
    pub fn shuffle(&self) -> ShuffleMetrics {
        self.shuffle
    }

    /// Add host nanoseconds spent inside a map unit.
    pub fn add_host_map_ns(&mut self, ns: u64) {
        self.host.map_ns += ns;
    }

    /// Add host nanoseconds spent merging a map's output into the shuffle
    /// buffers.
    pub fn add_host_shuffle_merge_ns(&mut self, ns: u64) {
        self.host.shuffle_merge_ns += ns;
    }

    /// Add host nanoseconds spent inside a reduce unit.
    pub fn add_host_reduce_ns(&mut self, ns: u64) {
        self.host.reduce_ns += ns;
    }

    /// Host data-plane time by phase (observability only — nondeterministic
    /// across hosts and thread counts by nature).
    pub fn host_phase_nanos(&self) -> HostPhaseNanos {
        self.host
    }

    /// Fault-plane counters accumulated so far.
    pub fn faults(&self) -> FaultMetrics {
        self.faults
    }

    /// Guard-rail counters accumulated so far.
    pub fn guardrails(&self) -> GuardrailMetrics {
        self.guardrails
    }

    /// Memoization counters accumulated so far.
    pub fn memo(&self) -> MemoMetrics {
        self.memo
    }

    /// Replication-plane counters accumulated so far.
    pub fn replica(&self) -> ReplicaMetrics {
        self.replica
    }

    /// Produce the aggregate report as of `now`.
    pub fn report(&self, now: SimTime) -> MetricsReport {
        let cpu_capacity_us_per_sec = self.total_cores as f64 * 1e6;
        MetricsReport {
            cpu_util_pct: 100.0 * self.cpu.mean_rate() / cpu_capacity_us_per_sec,
            disk_kb_per_sec: self.disk.mean_rate() / 1024.0 / self.total_disks as f64,
            locality_pct: if self.total_assignments == 0 {
                0.0
            } else {
                100.0 * self.local_assignments as f64 / self.total_assignments as f64
            },
            slot_occupancy_pct: 100.0 * self.occupied_slots.mean(now) / self.total_slots as f64,
        }
    }

    /// When collection started.
    pub fn start(&self) -> SimTime {
        self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, TaskId};
    use incmr_dfs::{BlockId, DiskId, NodeId};

    fn metrics() -> ClusterMetrics {
        ClusterMetrics::new(SimTime::ZERO, 4, 4, 4, SimDuration::from_secs(30))
    }

    /// Replay `kinds`, in order, through `ClusterMetrics::from_trace`.
    fn fold(kinds: Vec<TraceKind>) -> ClusterMetrics {
        let event = |kind| TraceEvent {
            time: SimTime::ZERO,
            kind,
        };
        ClusterMetrics::from_trace(&kinds.into_iter().map(event).collect::<Vec<_>>())
    }

    fn map_started(task: u32, local: bool) -> TraceKind {
        TraceKind::MapStarted {
            job: JobId(0),
            task: TaskId(task),
            node: NodeId(0),
            local,
            queue_wait_ms: Some(0),
            split_wait_ms: Some(0),
        }
    }

    #[test]
    fn cpu_and_disk_rates_normalise_to_capacity() {
        let mut m = ClusterMetrics::new(SimTime::ZERO, 40, 40, 40, SimDuration::from_secs(30));
        // 60 s at 20 cores fully busy = 20 × 60 × 1e6 core-us.
        // 60 s of disk reads at 10 MB/s aggregate.
        m.observe(
            SimTime::from_secs(60),
            20.0 * 60.0 * 1e6,
            10.0 * 1024.0 * 1024.0 * 60.0,
        );
        let r = m.report(SimTime::from_secs(60));
        assert!(
            (r.cpu_util_pct - 50.0).abs() < 1e-6,
            "20 of 40 cores = 50%, got {}",
            r.cpu_util_pct
        );
        assert!(
            (r.disk_kb_per_sec - 256.0).abs() < 1e-6,
            "10MB/s over 40 disks = 256KB/s/disk"
        );
    }

    #[test]
    fn locality_percent() {
        let mut m = metrics();
        for i in 0..10 {
            m.absorb(&map_started(i, i < 7));
        }
        assert!((m.report(SimTime::from_secs(1)).locality_pct - 70.0).abs() < 1e-9);
        assert_eq!(m.assignments(), 10);
    }

    #[test]
    fn locality_of_no_assignments_is_zero() {
        assert_eq!(metrics().report(SimTime::from_secs(1)).locality_pct, 0.0);
    }

    #[test]
    fn shuffle_counters_aggregate_across_jobs() {
        let mut m = metrics();
        for (job, (combiner_in, combiner_out, bytes)) in
            [(100, 10, 800), (50, 50, 1000)].into_iter().enumerate()
        {
            m.absorb(&TraceKind::ShuffleReady {
                job: JobId(job as u32),
                combiner_in,
                combiner_out,
                bytes,
                merge_ms: 0,
            });
        }
        let s = m.shuffle();
        assert_eq!(s.jobs, 2);
        assert_eq!(s.combiner_input_records, 150);
        assert_eq!(s.combiner_output_records, 60);
        assert_eq!(s.combined_away(), 90);
    }

    #[test]
    fn host_phase_nanos_accumulate() {
        let mut m = metrics();
        m.add_host_map_ns(10);
        m.add_host_map_ns(5);
        m.add_host_shuffle_merge_ns(3);
        m.add_host_reduce_ns(2);
        assert_eq!(
            m.host_phase_nanos(),
            HostPhaseNanos {
                map_ns: 15,
                shuffle_merge_ns: 3,
                reduce_ns: 2
            }
        );
    }

    #[test]
    fn fault_counters_accumulate() {
        assert_eq!(metrics().faults(), FaultMetrics::default());
        let lost = |rerun| TraceKind::MapOutputLost {
            job: JobId(0),
            task: TaskId(0),
            rerun,
        };
        let m = fold(vec![lost(true), lost(true), lost(false)]);
        assert_eq!(m.faults().maps_reexecuted, 2);
        assert_eq!(m.faults().speculative_launched, 0);
        assert_eq!(m.replica().reexecutions_avoided, 1);
    }

    #[test]
    fn guardrail_counters_accumulate() {
        assert_eq!(metrics().guardrails(), GuardrailMetrics::default());
        let fault = |fatal| TraceKind::ProviderFault {
            job: JobId(0),
            fatal,
            panicked: fatal,
            unknown_block: !fatal,
        };
        let g = fold(vec![
            fault(false),
            fault(true),
            TraceKind::DuplicateInputDropped {
                job: JobId(0),
                splits: 5,
            },
            TraceKind::PartialSample {
                job: JobId(0),
                found: 3,
                requested: 5,
            },
        ])
        .guardrails();
        assert_eq!(g.provider_panics, 1);
        assert_eq!(g.unknown_blocks, 1);
        assert_eq!(g.provider_errors, 2);
        assert_eq!(g.provider_retries, 1);
        assert_eq!(g.duplicate_splits_dropped, 5);
        assert_eq!(g.partial_samples, 1);
        assert_eq!(g.jobs_wedged, 0);
    }

    #[test]
    fn counters_recompute_from_trace_events() {
        let events = vec![
            TraceKind::NodeLost {
                node: NodeId(3),
                memo_dropped: 0,
            },
            TraceKind::SpeculativeLaunch {
                job: JobId(0),
                task: TaskId(1),
                node: NodeId(2),
            },
            map_started(1, false),
            TraceKind::NodeRejoined { node: NodeId(3) },
            TraceKind::ProviderFault {
                job: JobId(0),
                fatal: false,
                panicked: false,
                unknown_block: false,
            },
            TraceKind::DuplicateInputDropped {
                job: JobId(0),
                splits: 4,
            },
            TraceKind::ProviderFault {
                job: JobId(1),
                fatal: true,
                panicked: false,
                unknown_block: true,
            },
            TraceKind::GrabLimitClamped {
                job: JobId(0),
                requested: 9,
                granted: 4,
            },
        ];
        let m = fold(events);
        assert_eq!(
            m.faults(),
            FaultMetrics {
                nodes_lost: 1,
                nodes_rejoined: 1,
                speculative_launched: 1,
                ..FaultMetrics::default()
            }
        );
        assert_eq!(
            m.guardrails(),
            GuardrailMetrics {
                provider_errors: 2,
                unknown_blocks: 1,
                provider_retries: 1,
                duplicate_splits_dropped: 4,
                grab_limit_clamps: 1,
                ..GuardrailMetrics::default()
            }
        );
        assert_eq!(m.assignments(), 1);
        assert_eq!(m.report(SimTime::ZERO).locality_pct, 0.0);
    }

    #[test]
    fn memo_counters_accumulate_and_recompute_from_trace() {
        assert_eq!(metrics().memo(), MemoMetrics::default());
        let (job, task) = (JobId(0), TaskId(0));
        let events = vec![
            TraceKind::InputArrived { splits: 3 },
            TraceKind::SplitReused {
                job,
                task,
                records: 300,
            },
            TraceKind::SplitReused {
                job,
                task,
                records: 200,
            },
            TraceKind::SplitDirty { job, task },
            TraceKind::SplitMissed { job, task },
            TraceKind::NodeLost {
                node: NodeId(1),
                memo_dropped: 3,
            },
        ];
        assert_eq!(
            fold(events).memo(),
            MemoMetrics {
                splits_reused: 2,
                splits_dirty: 1,
                splits_computed: 2,
                input_arrivals: 1,
                records_saved: 500,
                entries_invalidated: 3,
            }
        );
    }

    #[test]
    fn replica_counters_accumulate_and_recompute_from_trace() {
        assert_eq!(metrics().replica(), ReplicaMetrics::default());
        let events = vec![
            TraceKind::ReplicaLost {
                block: BlockId(0),
                node: NodeId(1),
                last: false,
            },
            TraceKind::ReplicaLost {
                block: BlockId(1),
                node: NodeId(1),
                last: true,
            },
            TraceKind::MapOutputLost {
                job: JobId(0),
                task: TaskId(2),
                rerun: false,
            },
            TraceKind::ReadFailover {
                job: JobId(0),
                task: TaskId(3),
                from: DiskId(4),
                to: DiskId(0),
            },
            TraceKind::ReplicaRestored {
                block: BlockId(0),
                node: NodeId(2),
            },
            TraceKind::InputLost {
                job: JobId(1),
                blocks: 2,
                graceful: false,
            },
        ];
        assert_eq!(
            fold(events).replica(),
            ReplicaMetrics {
                replicas_lost: 2,
                replicas_restored: 1,
                read_failovers: 1,
                blocks_lost: 1,
                input_lost_jobs: 1,
                reexecutions_avoided: 1,
            }
        );
    }

    #[test]
    fn slot_occupancy_is_time_weighted() {
        let mut m = ClusterMetrics::new(SimTime::ZERO, 4, 4, 10, SimDuration::from_secs(30));
        m.slots_delta(SimTime::ZERO, 10.0); // full from t=0
        m.slots_delta(SimTime::from_secs(50), -10.0); // idle from t=50
        let r = m.report(SimTime::from_secs(100));
        assert!((r.slot_occupancy_pct - 50.0).abs() < 1e-9);
    }
}
