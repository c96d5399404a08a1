//! A run: the warm-up episode, the measured episodes under the time
//! budget, an optional traced replay, and the metrics they add up to.

use std::time::Instant;

use incmr_hiveql::QueryResult;
use incmr_mapreduce::HostPhaseNanos;

use crate::oracle::FullOracle;
use crate::stats::{median, peak_rss_mib, quantile, rows_digest, Fnv};
use crate::trace::{self, Layer, SpanRecord, Totals};
use crate::workload::{Questions, Sizes, Workload};
use crate::{service, session};

/// What stays fixed across a run's episodes.
pub struct RunCtx {
    /// The workload.
    pub workload: Workload,
    /// The run's seed: datasets, statement mix, arrivals.
    pub seed: u64,
    /// Sizes of everything.
    pub sizes: Sizes,
    /// Full-mode oracle (`scan_full`, `agg_evolve`).
    pub oracle: Option<FullOracle>,
    statements: u64,
}

impl RunCtx {
    /// Context for one run.
    pub fn new(workload: Workload, seed: u64, sizes: Sizes) -> RunCtx {
        let oracle = matches!(workload, Workload::ScanFull | Workload::AggEvolve)
            .then(|| FullOracle::new(Questions::for_run(workload, seed)));
        RunCtx {
            workload,
            seed,
            sizes,
            oracle,
            statements: 0,
        }
    }

    /// The full-mode question pool.
    ///
    /// # Panics
    /// On a planted workload, which has none.
    pub fn questions(&self) -> &Questions {
        self.oracle
            .as_ref()
            .expect("full-mode workloads have an oracle")
            .questions()
    }

    /// A fresh id for the next statement's spans.
    pub fn next_statement(&mut self) -> u64 {
        self.statements += 1;
        self.statements
    }

    /// Run episode `episode`, traced or not.
    pub fn episode(&mut self, episode: u64, traced: bool) -> Episode {
        if self.workload.is_service() {
            service::episode(self, episode, traced)
        } else {
            session::episode(self, episode, traced)
        }
    }
}

/// What one episode measured.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    /// Host time to set the system up.
    pub setup_ns: u64,
    /// Host latency of each measured statement: `Session::submit` to the
    /// collected result; on the service, advancing to the arrival's due
    /// time and submitting it.
    pub stmt_ns: Vec<u64>,
    /// Host time the throughput divides by: the statements' time
    /// (`Session`), or every service call after the warm-up (service).
    pub host_ns: u64,
    /// Statements the throughput counts.
    pub completed: u64,
    /// Simulated response time of each measured statement, seconds.
    pub sim_response_s: Vec<f64>,
    /// Splits processed over splits in the table, per measured statement.
    pub scan_fraction: Vec<f64>,
    /// `SELECT`s issued.
    pub attempted: u64,
    /// Errors, failed jobs and oracle mismatches.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Digest of every result's rows, in statement order.
    pub digest: u64,
    /// Splits processed by measured statements.
    pub splits: u64,
    /// Records scanned by measured statements.
    pub records: u64,
    /// Result rows of measured statements.
    pub rows: u64,
    /// Error-bounded cells within their bound.
    pub bounded_within: u64,
    /// Error-bounded cells checked.
    pub bounded_cells: u64,
    /// Blocks appended or rewritten.
    pub evolve_blocks: u64,
    /// Memo hits.
    pub memo_reused: u64,
    /// Map attempts computed with the memo on.
    pub memo_computed: u64,
    /// Submissions refused by admission control.
    pub rejected: u64,
    /// Admitted submissions that had to queue.
    pub deferred: u64,
    /// Queued plus running statements when arrivals stop.
    pub backlog_at_horizon: u64,
    /// Largest simulated delay between an arrival's due time and its
    /// submission.
    pub lateness_ms_max: u64,
    /// Data-plane host time over the measured part.
    pub host_phase: HostPhaseNanos,
    /// Traced layer totals over the measured part.
    pub totals: Totals,
}

impl Episode {
    pub(crate) fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }

    /// Account one completed `Session` statement.
    pub(crate) fn record(&mut self, result: &QueryResult, host_ns: u64, table_splits: usize) {
        self.stmt_ns.push(host_ns);
        self.host_ns += host_ns;
        self.completed += 1;
        self.sim_response_s.push(result.response_time.as_secs_f64());
        self.scan_fraction
            .push(result.splits_processed as f64 / table_splits as f64);
        self.splits += result.splits_processed as u64;
        self.records += result.records_processed;
        self.rows += result.rows.len() as u64;
        let mut h = Fnv::default();
        h.write_u64(self.digest);
        h.write_u64(rows_digest(&result.rows));
        self.digest = h.finish();
    }
}

/// A named, measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// How to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
    /// Time budget for measured episodes, seconds (the first
    /// `sizes.sim_episodes` always run).
    pub seconds: f64,
    /// Replay the measured prefix traced.
    pub trace: bool,
    /// Sizes.
    pub sizes: Sizes,
    /// Spans kept for the JSONL file.
    pub keep_spans: usize,
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every check passed, and the traced replay matched.
    pub correct: bool,
    /// `SELECT`s issued.
    pub attempted: u64,
    /// Errors, failed jobs, oracle mismatches and traced divergences.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Digest of every result of the warm-up and simulated-metric
    /// episodes: a pure function of the seed.
    pub digest: u64,
    /// Measured episodes (untraced).
    pub episodes: usize,
    /// Measured statements (untraced).
    pub statements: u64,
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub end_to_end: Vec<Metric>,
    /// Every per-layer metric of the traced replay (empty untraced).
    pub layers: Vec<Metric>,
    /// Counts that are not metrics: failures, rejections, bound coverage.
    pub notes: Vec<Metric>,
    /// Kept spans of the traced replay.
    pub spans: Vec<SpanRecord>,
}

impl Report {
    /// Look a metric up by name among the end-to-end and layer metrics.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.layers)
            .chain(&self.notes)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn sum(eps: &[Episode], f: impl Fn(&Episode) -> u64) -> u64 {
    eps.iter().map(f).sum()
}

fn flat(eps: &[Episode], f: impl Fn(&Episode) -> &[f64]) -> Vec<f64> {
    eps.iter().flat_map(|e| f(e).iter().copied()).collect()
}

/// Run one workload.
pub fn run(opts: &Options) -> Report {
    let mut ctx = RunCtx::new(opts.workload, opts.seed, opts.sizes.clone());
    let sim_episodes = opts.sizes.sim_episodes;
    let warm = ctx.episode(0, false);
    let mut measured: Vec<Episode> = Vec::new();
    let start = Instant::now();
    while measured.len() < sim_episodes
        || (!opts.trace && start.elapsed().as_secs_f64() < opts.seconds)
    {
        measured.push(ctx.episode(measured.len() as u64 + 1, false));
    }
    let mut traced: Vec<Episode> = Vec::new();
    let mut spans = Vec::new();
    if opts.trace {
        trace::start(opts.keep_spans);
        for e in 1..=sim_episodes {
            traced.push(ctx.episode(e as u64, true));
        }
        spans = trace::stop();
    }

    let all = || std::iter::once(&warm).chain(&measured).chain(&traced);
    let mut failed: u64 = all().map(|e| e.failed).sum();
    let mut errors: Vec<String> = all()
        .flat_map(|e| e.errors.iter().cloned())
        .take(5)
        .collect();
    for (i, (t, u)) in traced.iter().zip(&measured).enumerate() {
        if t.digest != u.digest
            || t.sim_response_s != u.sim_response_s
            || t.scan_fraction != u.scan_fraction
        {
            failed += 1;
            errors.push(format!(
                "traced episode {} diverged from its untraced run",
                i + 1
            ));
        }
    }
    let mut digest = Fnv::default();
    for e in std::iter::once(&warm).chain(&measured[..sim_episodes]) {
        digest.write_u64(e.digest);
    }

    let sim = &measured[..sim_episodes];
    let response = flat(sim, |e| &e.sim_response_s);
    let stmt_ms: Vec<f64> = measured
        .iter()
        .flat_map(|e| e.stmt_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    let throughput: Vec<f64> = measured
        .iter()
        .map(|e| e.completed as f64 / (e.host_ns.max(1) as f64 / 1e9))
        .collect();
    let setups: Vec<f64> = std::iter::once(&warm)
        .chain(&measured)
        .map(|e| e.setup_ns as f64 / 1e9)
        .collect();
    let end_to_end = vec![
        metric("stmts_per_host_s", median(&throughput), "1/s"),
        metric("stmt_host_ms_p50", quantile(&stmt_ms, 0.5), "ms"),
        metric("stmt_host_ms_p95", quantile(&stmt_ms, 0.95), "ms"),
        metric("sim_response_s_p50", quantile(&response, 0.5), "s"),
        metric("sim_response_s_p95", quantile(&response, 0.95), "s"),
        metric(
            "scan_fraction",
            crate::stats::mean(&flat(sim, |e| &e.scan_fraction)),
            "ratio",
        ),
        metric("setup_s", median(&setups), "s"),
        metric("peak_rss_mb", peak_rss_mib(), "MiB"),
    ];

    let attempted: u64 = all().map(|e| e.attempted).sum();
    let submitted = sum(&measured, |e| e.attempted);
    let notes = vec![
        metric(
            "statements",
            sum(&measured, |e| e.completed) as f64,
            "count",
        ),
        metric(
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        metric(
            "rejected_frac",
            sum(&measured, |e| e.rejected) as f64 / submitted.max(1) as f64,
            "ratio",
        ),
        metric(
            "bounded_cells_within",
            sum(&measured, |e| e.bounded_within) as f64,
            "count",
        ),
        metric(
            "bounded_cells",
            sum(&measured, |e| e.bounded_cells) as f64,
            "count",
        ),
        metric(
            "service.lateness_ms_max",
            measured
                .iter()
                .map(|e| e.lateness_ms_max)
                .max()
                .unwrap_or(0) as f64,
            "ms",
        ),
    ];
    let layers = if opts.trace {
        layer_metrics(opts.workload, &traced, sum(sim, |e| e.host_ns))
    } else {
        Vec::new()
    };

    Report {
        correct: failed == 0,
        attempted,
        failed,
        errors,
        digest: digest.finish(),
        episodes: measured.len(),
        statements: sum(&measured, |e| e.completed),
        end_to_end,
        layers,
        notes,
        spans,
    }
}

/// The per-layer breakdown of the traced replay. `untraced_ns` is the same
/// episodes' host time untraced, for the tracing overhead.
fn layer_metrics(workload: Workload, eps: &[Episode], untraced_ns: u64) -> Vec<Metric> {
    let mut t = Totals::default();
    let mut phase = HostPhaseNanos::default();
    for e in eps {
        t.add(&e.totals);
        phase.map_ns += e.host_phase.map_ns;
        phase.shuffle_merge_ns += e.host_phase.shuffle_merge_ns;
        phase.reduce_ns += e.host_phase.reduce_ns;
    }
    let n = sum(eps, |e| e.completed).max(1) as f64;
    let per = |v: u64| v as f64 / n;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let s = |l: Layer| t.self_ns(l);
    let (map_unit, merge, reduce_unit) = (phase.map_ns, phase.shuffle_merge_ns, phase.reduce_ns);

    // The data-plane counters sit inside the event loop's self time (and,
    // on the session path, around the wrapped read/map/combine/reduce
    // calls): split them out so the loop keeps only its own work. The
    // service compiles its jobs where no wrapper reaches, so there the
    // whole map and reduce units stay unsplit.
    let (frontend, loop_self, partition, materialize) = if workload.is_service() {
        (
            s(Layer::ServiceSubmit),
            s(Layer::ServiceLoop) as f64 - (map_unit + merge + reduce_unit) as f64,
            0,
            0,
        )
    } else {
        let partition = map_unit.saturating_sub(s(Layer::Read) + s(Layer::Map) + s(Layer::Combine));
        let materialize = reduce_unit.saturating_sub(s(Layer::Reduce));
        (
            s(Layer::Prepare) + s(Layer::Submit),
            s(Layer::Step) as f64 - (partition + merge + materialize) as f64,
            partition,
            materialize,
        )
    };
    let roots =
        t.total_ns(Layer::Statement) + t.total_ns(Layer::Arrival) + t.total_ns(Layer::Evolve);
    let unattributed = s(Layer::Statement) + s(Layer::Arrival);
    let traced_ns = sum(eps, |e| e.host_ns);

    vec![
        metric("frontend.ns_per_stmt", per(frontend), "ns"),
        metric(
            "mapreduce.parallel.map_unit.ns_per_stmt",
            per(map_unit),
            "ns",
        ),
        metric("mapreduce.shuffle.merge.ns_per_stmt", per(merge), "ns"),
        metric(
            "mapreduce.parallel.reduce_unit.ns_per_stmt",
            per(reduce_unit),
            "ns",
        ),
        metric(
            "mapreduce.scheduler.assign.ns_per_stmt",
            per(s(Layer::Assign)),
            "ns",
        ),
        metric(
            "mapreduce.runtime.loop_self.ns_per_stmt",
            loop_self / n,
            "ns",
        ),
        metric(
            "mapreduce.scheduler.assign.calls_per_stmt",
            per(t.calls(Layer::Assign)),
            "count",
        ),
        metric(
            "mapreduce.scheduler.assignments_per_call",
            ratio(t.assignments, t.calls(Layer::Assign)),
            "count",
        ),
        metric(
            "mapreduce.splits_per_stmt",
            per(sum(eps, |e| e.splits)),
            "count",
        ),
        metric(
            "mapreduce.records_read_per_stmt",
            per(sum(eps, |e| e.records)),
            "count",
        ),
        metric("hiveql.rows_per_stmt", per(sum(eps, |e| e.rows)), "count"),
        metric(
            "mapreduce.memo.reuse_ratio",
            ratio(
                sum(eps, |e| e.memo_reused),
                sum(eps, |e| e.memo_reused + e.memo_computed),
            ),
            "ratio",
        ),
        metric(
            "trace.overhead_frac",
            traced_ns as f64 / untraced_ns.max(1) as f64 - 1.0,
            "ratio",
        ),
        metric(
            "trace.unattributed_frac",
            ratio(unattributed, roots),
            "ratio",
        ),
        // Session-path layers (zero on the service, which compiles its
        // jobs internally where no wrapper can reach).
        metric("hiveql.prepare.ns_per_stmt", per(s(Layer::Prepare)), "ns"),
        metric(
            "mapreduce.runtime.submit.ns_per_stmt",
            per(s(Layer::Submit)),
            "ns",
        ),
        metric("hiveql.collect.ns_per_stmt", per(s(Layer::Collect)), "ns"),
        metric("mapreduce.exec.read.ns_per_stmt", per(s(Layer::Read)), "ns"),
        metric(
            "mapreduce.exec.read.calls_per_stmt",
            per(t.calls(Layer::Read)),
            "count",
        ),
        metric(
            "mapreduce.exec.read.records_per_stmt",
            per(t.read_records),
            "count",
        ),
        metric("mapreduce.exec.map.ns_per_stmt", per(s(Layer::Map)), "ns"),
        metric(
            "mapreduce.exec.map.records_in_per_stmt",
            per(t.map_in),
            "count",
        ),
        metric(
            "mapreduce.exec.map.records_out_per_stmt",
            per(t.map_out),
            "count",
        ),
        metric(
            "mapreduce.exec.map.selectivity",
            ratio(t.map_out, t.map_in),
            "ratio",
        ),
        metric(
            "mapreduce.exec.combine.ns_per_stmt",
            per(s(Layer::Combine)),
            "ns",
        ),
        metric(
            "mapreduce.exec.combine.records_in_per_stmt",
            per(t.combine_in),
            "count",
        ),
        metric(
            "mapreduce.exec.combine.records_out_per_stmt",
            per(t.combine_out),
            "count",
        ),
        metric(
            "mapreduce.shuffle.partition.ns_per_stmt",
            per(partition),
            "ns",
        ),
        metric(
            "mapreduce.exec.reduce.ns_per_stmt",
            per(s(Layer::Reduce)),
            "ns",
        ),
        metric(
            "mapreduce.exec.reduce.groups_per_stmt",
            per(t.calls(Layer::Reduce)),
            "count",
        ),
        metric(
            "mapreduce.exec.reduce.values_in_per_stmt",
            per(t.reduce_values),
            "count",
        ),
        metric(
            "mapreduce.shuffle.materialize.ns_per_stmt",
            per(materialize),
            "ns",
        ),
        metric(
            "core.provider.eval.ns_per_stmt",
            per(s(Layer::Provider)),
            "ns",
        ),
        metric(
            "core.provider.eval.calls_per_stmt",
            per(t.calls(Layer::Provider)),
            "count",
        ),
        metric(
            "core.provider.eval.splits_added_per_stmt",
            per(t.provider_splits),
            "count",
        ),
        metric(
            "mapreduce.runtime.step.calls_per_stmt",
            per(t.calls(Layer::Step)),
            "count",
        ),
        metric(
            "mapreduce.memo.splits_reused",
            sum(eps, |e| e.memo_reused) as f64,
            "count",
        ),
        metric(
            "mapreduce.memo.splits_computed",
            sum(eps, |e| e.memo_computed) as f64,
            "count",
        ),
        metric(
            "dfs.evolve.ns_per_call",
            ratio(s(Layer::Evolve), t.calls(Layer::Evolve)),
            "ns",
        ),
        metric("dfs.evolve.calls", t.calls(Layer::Evolve) as f64, "count"),
        metric(
            "dfs.evolve.blocks_changed",
            sum(eps, |e| e.evolve_blocks) as f64,
            "count",
        ),
        metric(
            "service.submitted",
            if workload.is_service() {
                sum(eps, |e| e.attempted) as f64
            } else {
                0.0
            },
            "count",
        ),
        metric("service.rejected", sum(eps, |e| e.rejected) as f64, "count"),
        metric("service.deferred", sum(eps, |e| e.deferred) as f64, "count"),
        metric(
            "service.backlog_at_horizon",
            sum(eps, |e| e.backlog_at_horizon) as f64 / eps.len().max(1) as f64,
            "count",
        ),
        metric("trace.statements", n, "count"),
    ]
}
