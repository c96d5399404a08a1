//! Episodes of the three `Session` workloads: a closed loop in which one
//! client issues the next statement when the previous one returns.

use std::sync::Arc;
use std::time::Instant;

use incmr_data::{Dataset, DatasetSpec, SkewLevel};
use incmr_dfs::{BlockId, ClusterTopology, EvenRoundRobin, Namespace};
use incmr_hiveql::{collect_result, Catalog, Prepared, QueryResult, Session, Submitted};
use incmr_mapreduce::{
    ClusterConfig, CostModel, FifoScheduler, GrowthDriver, MrRuntime, ScanMode, TaskScheduler,
};
use incmr_simkit::rng::DetRng;
use rand::Rng;

use crate::oracle::{bounded_cells, check_groups, check_sample, check_scan, TableAnswer};
use crate::run::{Episode, RunCtx};
use crate::trace::{self, Layer, TracedDriver, TracedScheduler};
use crate::workload::{
    agg_episode, episode_rng, planted_episode, planted_table, scan_episode, Evolve, Expect, Shape,
    Sizes, Step, Workload, FULL_TABLE,
};

/// A session with its tables, set up from scratch for one episode.
struct World {
    session: Session,
    /// The same tables as the session's catalog, for the traced path's
    /// `SessionState::prepare` (the session lends out its state and its
    /// catalog only one at a time).
    catalog: Catalog,
    tables: Vec<Arc<Dataset>>,
    /// Placement and rewrite choices of `agg_evolve`'s evolves.
    evolve_rng: DetRng,
}

impl World {
    fn build(workload: Workload, sizes: &Sizes, seed: u64, episode: u64, traced: bool) -> World {
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let tables: Vec<(String, Arc<Dataset>)> = if workload == Workload::SamplePlanted {
            let mut rng = episode_rng(seed, episode, "data");
            SkewLevel::all()
                .into_iter()
                .enumerate()
                .map(|(i, skew)| {
                    let name = planted_table(i);
                    let spec = DatasetSpec::paper_scale(
                        &name,
                        sizes.planted_scale,
                        skew,
                        rng.fork(i as u64).seed(),
                    );
                    let ds = Dataset::build(
                        &mut ns,
                        spec,
                        &mut EvenRoundRobin::starting_at(13 * i as u32),
                        &mut rng,
                    );
                    (name, Arc::new(ds))
                })
                .collect()
        } else {
            // One table per run: the oracle answers its blocks once.
            let mut rng = DetRng::seed_from(seed).fork_named("data");
            let spec = DatasetSpec::small(
                FULL_TABLE,
                sizes.full_partitions,
                sizes.full_records,
                SkewLevel::High,
                rng.fork(0).seed(),
            );
            let ds = Dataset::build(&mut ns, spec, &mut EvenRoundRobin::new(), &mut rng);
            vec![(FULL_TABLE.to_string(), Arc::new(ds))]
        };
        let fifo: Box<dyn TaskScheduler> = Box::new(FifoScheduler::new());
        let scheduler: Box<dyn TaskScheduler> = if traced {
            Box::new(TracedScheduler(fifo))
        } else {
            fifo
        };
        let mut runtime = MrRuntime::new(
            ClusterConfig::paper_single_user(),
            CostModel::paper_default(),
            ns,
            scheduler,
        );
        if workload == Workload::AggEvolve {
            runtime.enable_memoization();
        }
        let mut builder = Session::builder()
            .runtime(runtime)
            .seed(episode_rng(seed, episode, "session").seed());
        if workload != Workload::SamplePlanted {
            builder = builder.scan_mode(ScanMode::Full);
        }
        let mut catalog = Catalog::new();
        for (name, ds) in &tables {
            builder = builder.table(name, Arc::clone(ds));
            catalog.register(name, Arc::clone(ds));
        }
        World {
            session: builder
                .try_build()
                .expect("benchmark sessions are well-formed"),
            catalog,
            tables: tables.into_iter().map(|(_, ds)| ds).collect(),
            evolve_rng: episode_rng(seed, episode, "evolve"),
        }
    }

    /// Apply one evolve to the (single) table; returns the blocks changed.
    fn evolve(&mut self, op: Evolve) -> u64 {
        let ds = Arc::clone(&self.tables[0]);
        let rng = &mut self.evolve_rng;
        let runtime = self.session.runtime_mut();
        trace::span(Layer::Evolve, || match op {
            Evolve::Append(n) => {
                let mut placement = EvenRoundRobin::starting_at(ds.splits().len() as u32);
                runtime
                    .evolve(|ns| ds.append(ns, n, &mut placement, &mut *rng))
                    .len() as u64
            }
            Evolve::Mutate(n) => {
                let blocks: Vec<BlockId> = ds.splits().iter().map(|p| p.block).collect();
                let chosen = rng.sample_without_replacement(&blocks, n);
                let mut placement = EvenRoundRobin::starting_at(rng.gen_range(0..u32::MAX));
                runtime
                    .evolve(|ns| ds.mutate(ns, &chosen, &mut placement, &mut *rng))
                    .len() as u64
            }
        })
    }

    /// A `SELECT` through the public blocking path: `Session::submit` and
    /// `QueryHandle::wait`, what `Session::execute` runs.
    fn execute(&mut self, sql: &str) -> Result<QueryResult, String> {
        match self.session.submit(sql).map_err(|e| e.to_string())? {
            Submitted::Pending(handle) => Ok(handle.wait(&mut self.session)),
            Submitted::Done(_) => Err("SELECT completed without a job".into()),
        }
    }

    /// The same statement taken apart at each layer boundary, with the
    /// job's trait objects wrapped: prepare, submit, step to completion,
    /// collect — exactly the calls `Session::submit` and
    /// `QueryHandle::wait` make.
    fn execute_traced(&mut self, sql: &str) -> Result<QueryResult, String> {
        trace::span(Layer::Statement, || {
            let prepared = trace::span(Layer::Prepare, || {
                self.session.state_mut().prepare(sql, &self.catalog)
            })
            .map_err(|e| e.to_string())?;
            let Prepared::Submit(compiled) = prepared else {
                return Err("SELECT completed without a job".into());
            };
            let requested_k = compiled.requested_k();
            let spec = trace::wrap_spec(compiled.spec);
            let driver: Box<dyn GrowthDriver> = Box::new(TracedDriver(compiled.driver));
            let runtime = self.session.runtime_mut();
            let job = trace::span(Layer::Submit, || runtime.submit(spec, driver));
            while !runtime.is_complete(job) {
                if !trace::span(Layer::Step, || runtime.step()) {
                    return Err("runtime drained before job completion".into());
                }
            }
            Ok(trace::span(Layer::Collect, || {
                collect_result(runtime, job, requested_k)
            }))
        })
    }
}

/// Check one result against the oracle. Returns bounded-aggregate cells
/// `(within, total)` (zero for other statements).
fn check(
    ctx: &RunCtx,
    world: &World,
    answers: &[TableAnswer],
    expect: &Expect,
    result: &QueryResult,
) -> Result<(u64, u64), String> {
    if result.failed {
        let error = &world.session.runtime().job_result(result.job).error;
        return Err(format!("job failed: {error:?}"));
    }
    let rows = &result.rows;
    let questions = ctx.oracle.as_ref().map(|o| o.questions());
    let question = |q: usize| &questions.expect("full-mode workloads have an oracle").all[q];
    match expect {
        Expect::PlantedSample { table, k, pred } => {
            check_sample(rows, *k, world.tables[*table].total_matching(), pred, None)?
        }
        Expect::PlantedScan { .. } => return Err("planted scans run only on the service".into()),
        Expect::Rows { question: q, limit } => {
            let Shape::Rows { projection } = &question(*q).shape else {
                return Err("rows statement over a groups question".into());
            };
            match (limit, &answers[*q]) {
                (Some(k), TableAnswer::Rows { count, members, .. }) => check_sample(
                    rows,
                    *k,
                    *count,
                    &question(*q).pred.projected(projection),
                    Some(members),
                )?,
                (None, answer) => check_scan(rows, answer)?,
                _ => return Err("rows statement over a groups answer".into()),
            }
        }
        Expect::Groups { question: q } => {
            let Shape::Groups { aggs, .. } = &question(*q).shape else {
                return Err("groups statement over a rows question".into());
            };
            check_groups(rows, &answers[*q], aggs)?
        }
        Expect::Bounded { question: q, error } => {
            if result.agg.is_none() {
                return Err("error-bounded result carries no AggReport".into());
            }
            return Ok(bounded_cells(rows, &answers[*q], *error));
        }
    }
    Ok((0, 0))
}

/// Run `sample_planted`, `scan_full` or `agg_evolve` episode `episode`.
pub fn episode(ctx: &mut RunCtx, episode: u64, traced: bool) -> Episode {
    let steps = match ctx.workload {
        Workload::SamplePlanted => planted_episode(&ctx.sizes, ctx.seed, episode),
        Workload::ScanFull => scan_episode(&ctx.sizes, ctx.questions(), ctx.seed, episode),
        Workload::AggEvolve => agg_episode(&ctx.sizes, ctx.questions(), ctx.seed, episode),
        Workload::ServiceMixed => unreachable!("service episodes run in crate::service"),
    };
    let mut ep = Episode::default();
    let start = Instant::now();
    let mut world = World::build(ctx.workload, &ctx.sizes, ctx.seed, episode, traced);
    ep.setup_ns = start.elapsed().as_nanos() as u64;

    let mut answers = match &mut ctx.oracle {
        Some(oracle) => oracle.table(&world.tables[0]),
        None => Vec::new(),
    };
    for step in steps {
        match step {
            Step::Set(sql) => {
                if let Err(e) = world.session.execute(&sql) {
                    ep.fail(format!("{sql}: {e}"));
                }
            }
            Step::Evolve(op) => {
                ep.evolve_blocks += world.evolve(op);
                if let Some(oracle) = &mut ctx.oracle {
                    answers = oracle.table(&world.tables[0]);
                }
            }
            Step::Select(select) => {
                ep.attempted += 1;
                trace::set_statement(ctx.next_statement());
                let table_splits = match &select.expect {
                    Expect::PlantedSample { table, .. } => world.tables[*table].splits().len(),
                    _ => world.tables[0].splits().len(),
                };
                let t = Instant::now();
                let result = if traced {
                    world.execute_traced(&select.sql)
                } else {
                    world.execute(&select.sql)
                };
                let ns = t.elapsed().as_nanos() as u64;
                let result = match result {
                    Ok(result) => result,
                    Err(e) => {
                        ep.fail(format!("{}: {e}", select.sql));
                        continue;
                    }
                };
                match check(ctx, &world, &answers, &select.expect, &result) {
                    Ok((within, cells)) => {
                        ep.bounded_within += within;
                        ep.bounded_cells += cells;
                    }
                    Err(e) => ep.fail(format!("{}: {e}", select.sql)),
                }
                ep.record(&result, ns, table_splits);
                world.session.runtime_mut().release_job_result(result.job);
            }
        }
    }
    let runtime = world.session.runtime();
    ep.host_phase = runtime.metrics().host_phase_nanos();
    let memo = runtime.metrics().memo();
    ep.memo_reused = memo.splits_reused;
    ep.memo_computed = memo.splits_computed;
    if traced {
        ep.totals = trace::take_totals();
    }
    ep
}
