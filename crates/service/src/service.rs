//! The multi-tenant query service.
//!
//! One [`QueryService`] fronts one shared [`MrRuntime`] for many tenants.
//! Each tenant owns a HiveQL [`SessionState`] (its own policy registry,
//! active policy, scan mode, and seed counter) plus a
//! [`TenantProfile`]'s quota knobs. Statements flow through three gates:
//!
//! 1. **Admission control** — a statement whose tenant queue is at its
//!    depth cap is refused with a typed
//!    [`ServiceError::Rejected`](crate::ServiceError) and a
//!    `QueryRejected` trace event; an accepted statement that cannot
//!    start immediately (tenant at its in-flight quota, or the service
//!    at its global cap) records `QuotaDeferred`.
//! 2. **Weighted fair dispatch** — queued statements launch in virtual-
//!    pass order (start-time fair queueing): each launch advances the
//!    tenant's pass by `PASS_SCALE / weight`, so a weight-3 tenant
//!    drains its backlog three times as fast as a weight-1 tenant under
//!    saturation. Dispatch pops the minimum of an indexed run queue —
//!    `O(log tenants)` per decision, independent of backlog depth.
//! 3. **The cluster scheduler** — admitted jobs compete for map slots
//!    under whichever `TaskScheduler` the runtime was built with.
//!
//! Every admission decision is observable: `QueryAdmitted` (carrying the
//! query's queue wait, submission to job launch) / `QueryRejected` /
//! `QuotaDeferred` trace events on the runtime's trace plane, and each
//! tenant's queue-wait histogram in its [`TenantStats`].

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use incmr_data::Dataset;
use incmr_hiveql::{
    collect_result, Catalog, CompiledQuery, Prepared, QueryOutput, QueryResult, SessionState,
    TenantProfile,
};
use incmr_mapreduce::{JobId, MrRuntime, TraceKind};
use incmr_simkit::stats::LogHistogram;
use incmr_simkit::SimTime;

use crate::config::{ServiceConfig, ServiceError, TenantId, Ticket};

/// Virtual-pass scale: one launch advances a weight-`w` tenant's pass by
/// `PASS_SCALE / w`, so relative drain rates follow the weights exactly.
const PASS_SCALE: u64 = 1 << 20;

/// What a submission produced.
#[derive(Debug)]
pub enum ServiceReply {
    /// A `SELECT` was admitted (queued or launched); redeem the ticket
    /// with [`QueryService::wait`] or [`QueryService::take_result`].
    Admitted(Ticket),
    /// The statement completed immediately (`SET` / `SHOW` / `EXPLAIN`),
    /// against this tenant's own session state.
    Immediate(QueryOutput),
}

struct QueuedQuery {
    seq: u64,
    compiled: CompiledQuery,
    enqueued_at: SimTime,
}

struct ActiveQuery {
    seq: u64,
    requested_k: Option<u64>,
}

/// Point-in-time public counters for one tenant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TenantStats {
    /// Queries that ran to completion.
    pub completed: u64,
    /// Submissions refused at the queue-depth cap.
    pub rejected: u64,
    /// Admitted submissions that could not start immediately.
    pub deferred: u64,
    /// Jobs currently on the cluster.
    pub in_flight: u32,
    /// Statements waiting in the tenant queue.
    pub queued: u32,
    /// Sum of map tasks that ran data-local, across completed queries.
    pub local_tasks: u64,
    /// Sum of splits processed across completed queries.
    pub splits_processed: u64,
    /// Submission-to-launch wait of every launched query, in simulated
    /// ms (the `wait_ms` of its `QueryAdmitted`).
    pub queue_wait: LogHistogram,
}

struct TenantState {
    profile: TenantProfile,
    session: SessionState,
    queue: VecDeque<QueuedQuery>,
    /// Finished queries awaiting pickup, by ticket sequence number.
    finished: HashMap<u64, QueryResult>,
    active: HashMap<JobId, ActiveQuery>,
    /// Weighted-fair virtual pass; the run queue is ordered by it.
    pass: u64,
    in_flight: u32,
    stats: TenantStats,
}

impl TenantState {
    fn eligible(&self) -> bool {
        !self.queue.is_empty() && self.in_flight < self.profile.max_in_flight
    }
}

/// A long-running, multi-tenant query service over one simulated cluster.
pub struct QueryService {
    runtime: MrRuntime,
    catalog: Catalog,
    cfg: ServiceConfig,
    tenants: Vec<TenantState>,
    /// Eligible tenants (queued work + spare quota), ordered by
    /// `(virtual pass, tenant id)`: dispatch pops the minimum.
    run_queue: BTreeSet<(u64, u16)>,
    /// Jobs on the cluster, mapped back to their tenant.
    active_jobs: HashMap<JobId, TenantId>,
    in_flight_total: u32,
    next_seq: u64,
    /// Virtual clock: the pass of the most recent dispatch. Tenants
    /// going from idle to backlogged restart here, not at their stale
    /// pass, so an idle tenant cannot bank credit.
    vclock: u64,
}

impl QueryService {
    /// A service over a runtime with the given global admission config.
    ///
    /// # Panics
    /// If `cfg.max_in_flight_jobs` is zero (nothing could ever launch).
    pub fn new(runtime: MrRuntime, cfg: ServiceConfig) -> Self {
        assert!(
            cfg.max_in_flight_jobs > 0,
            "max_in_flight_jobs must be at least 1"
        );
        QueryService {
            runtime,
            catalog: Catalog::new(),
            cfg,
            tenants: Vec::new(),
            run_queue: BTreeSet::new(),
            active_jobs: HashMap::new(),
            in_flight_total: 0,
            next_seq: 0,
            vclock: 0,
        }
    }

    /// Register a table every tenant can query.
    pub fn register_table(&mut self, name: &str, dataset: Arc<Dataset>) {
        self.catalog.register(name, dataset);
    }

    /// Register a tenant with default session state.
    ///
    /// # Panics
    /// As [`QueryService::add_tenant_with_state`].
    pub fn add_tenant(&mut self, profile: TenantProfile) -> TenantId {
        self.add_tenant_with_state(profile, SessionState::new())
    }

    /// Register a tenant with a pre-configured session state (policy
    /// file already loaded, scan mode chosen, …).
    ///
    /// # Panics
    /// If the profile's `weight`, `max_in_flight` or `queue_cap` is zero
    /// (a zero weight has no fair share, and a zero quota or queue could
    /// never run a statement).
    pub fn add_tenant_with_state(
        &mut self,
        profile: TenantProfile,
        session: SessionState,
    ) -> TenantId {
        for (knob, value) in [
            ("weight", profile.weight),
            ("max_in_flight", profile.max_in_flight),
            ("queue_cap", profile.queue_cap),
        ] {
            assert!(value > 0, "tenant {knob} must be at least 1");
        }
        let id = TenantId(self.tenants.len() as u16);
        self.tenants.push(TenantState {
            profile,
            session,
            queue: VecDeque::new(),
            finished: HashMap::new(),
            active: HashMap::new(),
            pass: self.vclock,
            in_flight: 0,
            stats: TenantStats::default(),
        });
        id
    }

    /// The underlying runtime (trace, metrics, clock).
    pub fn runtime(&self) -> &MrRuntime {
        &self.runtime
    }

    /// Mutable runtime access (enable tracing, inject faults, …).
    pub fn runtime_mut(&mut self) -> &mut MrRuntime {
        &mut self.runtime
    }

    /// A tenant's session state (to adjust policies or modes directly).
    pub fn session_state_mut(&mut self, tenant: TenantId) -> &mut SessionState {
        &mut self.tenants[tenant.0 as usize].session
    }

    /// A tenant's public counters.
    pub fn tenant_stats(&self, tenant: TenantId) -> &TenantStats {
        &self.tenants[tenant.0 as usize].stats
    }

    /// Jobs currently running across all tenants.
    pub fn in_flight(&self) -> u32 {
        self.in_flight_total
    }

    /// Statements waiting across all tenant queues.
    pub fn backlog(&self) -> u32 {
        self.tenants.iter().map(|t| t.queue.len() as u32).sum()
    }

    /// Submit one statement for `tenant`. `SET`/`SHOW`/`EXPLAIN` resolve
    /// immediately against the tenant's session state; `SELECT` goes
    /// through admission control and weighted-fair dispatch.
    pub fn submit(&mut self, tenant: TenantId, sql: &str) -> Result<ServiceReply, ServiceError> {
        let idx = tenant.0 as usize;
        if idx >= self.tenants.len() {
            return Err(ServiceError::UnknownTenant(tenant));
        }
        let t = &mut self.tenants[idx];
        let prepared = t.session.prepare(sql, &self.catalog)?;
        let compiled = match prepared {
            Prepared::Immediate(out) => return Ok(ServiceReply::Immediate(out)),
            Prepared::Submit(compiled) => *compiled,
        };
        let queued = t.queue.len() as u32;
        if queued >= t.profile.queue_cap {
            t.stats.rejected += 1;
            self.runtime.record_event(TraceKind::QueryRejected {
                tenant: tenant.0 as u32,
                queued,
            });
            return Err(ServiceError::Rejected {
                tenant,
                queued,
                cap: t.profile.queue_cap,
            });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let enqueued_at = self.runtime.now();
        let was_eligible = t.eligible();
        t.queue.push_back(QueuedQuery {
            seq,
            compiled,
            enqueued_at,
        });
        if !was_eligible && t.eligible() {
            // Idle → backlogged: restart the pass at the virtual clock.
            t.pass = t.pass.max(self.vclock);
            self.run_queue.insert((t.pass, tenant.0));
        }
        self.dispatch();
        // Deferred iff still queued after dispatch (this statement was
        // pushed at the back, so it is the back entry if still waiting).
        let t = &mut self.tenants[idx];
        if t.queue.back().is_some_and(|q| q.seq == seq) {
            let depth = t.queue.len() as u32;
            t.stats.deferred += 1;
            self.runtime.record_event(TraceKind::QuotaDeferred {
                tenant: tenant.0 as u32,
                depth,
            });
        }
        Ok(ServiceReply::Admitted(Ticket { tenant, seq }))
    }

    /// Launch queued statements in weighted-fair order while capacity
    /// allows. Each decision is one `BTreeSet` pop + reinsert.
    fn dispatch(&mut self) -> u32 {
        let mut launched = 0;
        while self.in_flight_total < self.cfg.max_in_flight_jobs {
            let Some(&(pass, tid)) = self.run_queue.iter().next() else {
                break;
            };
            self.run_queue.remove(&(pass, tid));
            self.vclock = pass;
            let t = &mut self.tenants[tid as usize];
            debug_assert!(t.eligible(), "run queue held an ineligible tenant");
            let q = t.queue.pop_front().expect("eligible tenants have work");
            let requested_k = q.compiled.requested_k();
            let job = self.runtime.submit(q.compiled.spec, q.compiled.driver);
            let wait_ms = self.runtime.now().since(q.enqueued_at).as_millis();
            t.stats.queue_wait.record(wait_ms);
            t.active.insert(
                job,
                ActiveQuery {
                    seq: q.seq,
                    requested_k,
                },
            );
            t.in_flight += 1;
            t.pass = pass + PASS_SCALE / t.profile.weight as u64;
            let eligible = t.eligible();
            let new_pass = t.pass;
            self.in_flight_total += 1;
            self.active_jobs.insert(job, TenantId(tid));
            self.runtime.record_event(TraceKind::QueryAdmitted {
                tenant: tid as u32,
                job,
                wait_ms,
            });
            if eligible {
                self.run_queue.insert((new_pass, tid));
            }
            launched += 1;
        }
        launched
    }

    /// Collect finished jobs, release their bulky runtime state, and
    /// refill freed capacity. Returns jobs launched.
    fn reap(&mut self) -> u32 {
        for job in self.runtime.take_completed() {
            let Some(tenant) = self.active_jobs.remove(&job) else {
                // Not ours (submitted directly on the runtime).
                continue;
            };
            let t = &mut self.tenants[tenant.0 as usize];
            let active = t.active.remove(&job).expect("active job tracked");
            let result = collect_result(&mut self.runtime, job, active.requested_k);
            self.runtime.release_job_result(job);
            let t = &mut self.tenants[tenant.0 as usize];
            t.stats.completed += 1;
            t.stats.local_tasks += result.local_tasks as u64;
            t.stats.splits_processed += result.splits_processed as u64;
            t.finished.insert(active.seq, result);
            let was_eligible = t.eligible();
            t.in_flight -= 1;
            self.in_flight_total -= 1;
            let t = &self.tenants[tenant.0 as usize];
            if !was_eligible && t.eligible() {
                self.run_queue.insert((t.pass, tenant.0));
            }
        }
        self.dispatch()
    }

    /// Advance the service by one simulation event. Returns false once
    /// the cluster is idle and no dispatch refilled it.
    pub fn step(&mut self) -> bool {
        let progressed = self.runtime.step();
        let launched = self.reap();
        progressed || launched > 0
    }

    /// Run until every queue is drained and every job has completed.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
        debug_assert_eq!(self.in_flight_total, 0);
        debug_assert_eq!(self.backlog(), 0);
    }

    /// Run until the simulated clock passes `limit` (or everything
    /// drains first).
    pub fn run_until(&mut self, limit: SimTime) {
        while self.runtime.now() < limit && self.step() {}
    }

    /// Take a completed query's result, if it has finished.
    pub fn take_result(&mut self, ticket: &Ticket) -> Option<QueryResult> {
        self.tenants[ticket.tenant.0 as usize]
            .finished
            .remove(&ticket.seq)
    }

    /// Drive the service until `ticket`'s query completes, then return
    /// its result.
    pub fn wait(&mut self, ticket: Ticket) -> QueryResult {
        loop {
            if let Some(result) = self.take_result(&ticket) {
                return result;
            }
            assert!(self.step(), "service went idle before {ticket:?} finished");
        }
    }
}
