//! Episodes of `service_mixed`: three weighted tenants on one
//! `QueryService` under an open-loop Poisson arrival stream.
//!
//! Arrivals do not wait for completions. Each is submitted once
//! `QueryService::run_until` brings the clock to its simulated due time
//! (an idle cluster's clock is advanced to it), which can overshoot by one
//! event; that lateness is reported. Response time is counted from the due
//! time, so both the lateness and the queueing in the service count.

use std::sync::Arc;
use std::time::Instant;

use incmr_data::{Dataset, DatasetSpec, SkewLevel};
use incmr_dfs::{ClusterTopology, EvenRoundRobin, Namespace};
use incmr_hiveql::{QueryResult, TenantProfile};
use incmr_mapreduce::{
    ClusterConfig, CostModel, FairScheduler, HostPhaseNanos, MrRuntime, TaskScheduler,
};
use incmr_service::{QueryService, ServiceConfig, ServiceError, ServiceReply, TenantId, Ticket};
use incmr_simkit::dist::exponential_millis;
use incmr_simkit::{SimDuration, SimTime};

use crate::oracle::check_sample;
use crate::run::{Episode, RunCtx};
use crate::stats::{rows_digest, Fnv};
use crate::trace::{self, Layer, TracedScheduler};
use crate::workload::{
    episode_rng, planted_table, service_arrivals, Expect, TENANT_POLICIES, TENANT_WEIGHTS,
};

/// Global cap on concurrently running jobs.
const MAX_IN_FLIGHT_JOBS: u32 = 64;
/// Per-tenant running-job quota.
const TENANT_MAX_IN_FLIGHT: u32 = 32;
/// Per-tenant queue depth before admission control rejects.
const TENANT_QUEUE_CAP: u32 = 256;

struct Outstanding {
    arrival: usize,
    ticket: Ticket,
    due: SimTime,
    expect: Expect,
    measured: bool,
}

fn phase_delta(now: HostPhaseNanos, base: HostPhaseNanos) -> HostPhaseNanos {
    HostPhaseNanos {
        map_ns: now.map_ns - base.map_ns,
        shuffle_merge_ns: now.shuffle_merge_ns - base.shuffle_merge_ns,
        reduce_ns: now.reduce_ns - base.reduce_ns,
    }
}

fn check(
    svc: &QueryService,
    tables: &[Arc<Dataset>],
    expect: &Expect,
    result: &QueryResult,
) -> Result<(), String> {
    if result.failed {
        let error = &svc.runtime().job_result(result.job).error;
        return Err(format!("job failed: {error:?}"));
    }
    match expect {
        Expect::PlantedSample { table, k, pred } => check_sample(
            &result.rows,
            *k,
            tables[*table].total_matching(),
            pred,
            None,
        ),
        Expect::PlantedScan { table } => {
            let ds = &tables[*table];
            let matched = svc.runtime().job_result(result.job).map_output_records;
            if result.splits_processed as usize != ds.splits().len() {
                Err(format!(
                    "scan read {} of {} splits",
                    result.splits_processed,
                    ds.splits().len()
                ))
            } else if matched != ds.total_matching() {
                Err(format!(
                    "scan matched {matched} records, expected {}",
                    ds.total_matching()
                ))
            } else if !result.rows.is_empty() {
                Err("planted scan materialised its rows".into())
            } else {
                Ok(())
            }
        }
        _ => Err("full-mode statement on the planted service".into()),
    }
}

/// Take every finished result, check it, and record the measured ones.
fn poll(
    svc: &mut QueryService,
    tables: &[Arc<Dataset>],
    outstanding: &mut Vec<Outstanding>,
    digests: &mut [u64],
    ep: &mut Episode,
) {
    outstanding.retain(|o| {
        let Some(result) = svc.take_result(&o.ticket) else {
            return true;
        };
        if let Err(e) = check(svc, tables, &o.expect, &result) {
            ep.fail(format!("arrival {}: {e}", o.arrival));
        }
        digests[o.arrival] = rows_digest(&result.rows);
        if o.measured {
            let finish = svc.runtime().job_result(result.job).finish_time;
            ep.sim_response_s.push(finish.since(o.due).as_secs_f64());
            ep.scan_fraction
                .push(result.splits_processed as f64 / tables[0].splits().len() as f64);
            ep.splits += result.splits_processed as u64;
            ep.records += result.records_processed;
            ep.rows += result.rows.len() as u64;
        }
        false
    });
}

/// Run `service_mixed` episode `episode`.
pub fn episode(ctx: &mut RunCtx, episode: u64, traced: bool) -> Episode {
    let sizes = &ctx.sizes;
    let warm_end = SimTime::ZERO + sizes.service_warmup;
    let horizon = warm_end + sizes.service_window;
    let mut gaps = episode_rng(ctx.seed, episode, "gaps");
    let mut dues = Vec::new();
    let mut at = SimTime::ZERO;
    loop {
        let gap = exponential_millis(sizes.service_mean_gap.as_millis() as f64, &mut gaps);
        at += SimDuration::from_millis(gap.max(1));
        if at > horizon {
            break;
        }
        dues.push(at);
    }
    let arrivals = service_arrivals(dues.len(), ctx.seed, episode);

    let mut ep = Episode::default();
    let start = Instant::now();
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = episode_rng(ctx.seed, episode, "data");
    let tables: Vec<Arc<Dataset>> = SkewLevel::all()
        .into_iter()
        .enumerate()
        .map(|(i, skew)| {
            let spec = DatasetSpec::paper_scale(
                &planted_table(i),
                sizes.planted_scale,
                skew,
                rng.fork(i as u64).seed(),
            );
            Arc::new(Dataset::build(
                &mut ns,
                spec,
                &mut EvenRoundRobin::starting_at(13 * i as u32),
                &mut rng,
            ))
        })
        .collect();
    let fair: Box<dyn TaskScheduler> = Box::new(FairScheduler::paper_default());
    let scheduler: Box<dyn TaskScheduler> = if traced {
        Box::new(TracedScheduler(fair))
    } else {
        fair
    };
    let runtime = MrRuntime::new(
        ClusterConfig::paper_multi_user(),
        CostModel::paper_default(),
        ns,
        scheduler,
    );
    let mut svc = QueryService::new(
        runtime,
        ServiceConfig {
            max_in_flight_jobs: MAX_IN_FLIGHT_JOBS,
        },
    );
    for (i, ds) in tables.iter().enumerate() {
        svc.register_table(&planted_table(i), Arc::clone(ds));
    }
    let tenants: Vec<TenantId> = TENANT_WEIGHTS
        .iter()
        .zip(TENANT_POLICIES)
        .enumerate()
        .map(|(i, (&weight, policy))| {
            let tenant = svc.add_tenant(TenantProfile {
                name: format!("tenant{i}"),
                weight,
                max_in_flight: TENANT_MAX_IN_FLIGHT,
                queue_cap: TENANT_QUEUE_CAP,
            });
            if !matches!(
                svc.submit(tenant, &format!("SET dynamic.job.policy = {policy}")),
                Ok(ServiceReply::Immediate(_))
            ) {
                ep.fail(format!("tenant{i}: SET dynamic.job.policy failed"));
            }
            tenant
        })
        .collect();
    ep.setup_ns = start.elapsed().as_nanos() as u64;

    let completed = |svc: &QueryService| -> u64 {
        tenants.iter().map(|&t| svc.tenant_stats(t).completed).sum()
    };
    let mut digests = vec![0u64; arrivals.len()];
    let mut outstanding: Vec<Outstanding> = Vec::new();
    let mut measuring = false;
    let mut completed_base = 0;
    let mut phase_base = HostPhaseNanos::default();

    for (i, (due, arrival)) in dues.iter().copied().zip(arrivals).enumerate() {
        if !measuring && due >= warm_end {
            measuring = true;
            completed_base = completed(&svc);
            phase_base = svc.runtime().metrics().host_phase_nanos();
            if traced {
                trace::take_totals();
            }
        }
        trace::set_statement(ctx.next_statement());
        let tenant = tenants[arrival.tenant];
        let t0 = Instant::now();
        let reply = trace::span(Layer::Arrival, || {
            trace::span(Layer::ServiceLoop, || {
                svc.run_until(due);
                if svc.runtime().now() < due {
                    // Idle cluster: nothing is pending before the due time.
                    svc.runtime_mut().run_until(due);
                }
            });
            trace::span(Layer::ServiceSubmit, || {
                svc.submit(tenant, &arrival.select.sql)
            })
        });
        let arrival_ns = t0.elapsed().as_nanos() as u64;
        let lateness = svc.runtime().now().since(due).as_millis();
        ep.lateness_ms_max = ep.lateness_ms_max.max(lateness);
        ep.attempted += 1;
        if measuring {
            ep.host_ns += arrival_ns;
            ep.stmt_ns.push(arrival_ns);
        }
        match reply {
            Ok(ServiceReply::Admitted(ticket)) => outstanding.push(Outstanding {
                arrival: i,
                ticket,
                due,
                expect: arrival.select.expect,
                measured: measuring,
            }),
            Ok(ServiceReply::Immediate(_)) => {
                ep.fail(format!("arrival {i}: SELECT ran immediately"))
            }
            Err(ServiceError::Rejected { .. }) => {
                ep.rejected += 1;
                digests[i] = u64::MAX;
            }
            Err(e) => ep.fail(format!("arrival {i}: {e}")),
        }
        poll(&mut svc, &tables, &mut outstanding, &mut digests, &mut ep);
    }
    ep.backlog_at_horizon = (svc.backlog() + svc.in_flight()) as u64;
    let t0 = Instant::now();
    trace::span(Layer::Arrival, || {
        trace::span(Layer::ServiceLoop, || svc.run_until_idle())
    });
    ep.host_ns += t0.elapsed().as_nanos() as u64;
    poll(&mut svc, &tables, &mut outstanding, &mut digests, &mut ep);
    for o in &outstanding {
        ep.fail(format!("arrival {} never completed", o.arrival));
    }

    ep.completed = completed(&svc) - completed_base;
    ep.host_phase = phase_delta(svc.runtime().metrics().host_phase_nanos(), phase_base);
    ep.deferred = tenants.iter().map(|&t| svc.tenant_stats(t).deferred).sum();
    let mut h = Fnv::default();
    for d in digests {
        h.write_u64(d);
    }
    ep.digest = h.finish();
    if traced {
        ep.totals = trace::take_totals();
    }
    ep
}
