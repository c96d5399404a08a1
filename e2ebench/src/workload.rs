//! The four workloads: their sizes, the seeded statement streams they
//! issue, and the questions the oracle answers for them.
//!
//! A run is a sequence of *episodes*. Each episode sets the system up from
//! scratch and issues one seeded statement stream, so no episode inherits
//! caches, memo entries or evolved data from the one before. Episode 0 is
//! the warm-up; episodes `1..=sim_episodes` always run and carry every
//! simulated metric, so those are a pure function of the seed; further
//! episodes run while the time budget lasts and only add host samples.

use incmr_data::lineitem::{self, col};
use incmr_data::{PaperPredicate, Predicate, SkewLevel, Value};
use incmr_simkit::rng::DetRng;
use incmr_simkit::SimDuration;
use rand::Rng;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Planted-mode `LIMIT k` sampling through `Session`, rotating policies.
    SamplePlanted,
    /// Full-mode ad-hoc sampling and select-project scans through `Session`.
    ScanFull,
    /// Full-mode exact and error-bounded `GROUP BY` over evolving data with
    /// memoization on.
    AggEvolve,
    /// Three weighted tenants on `QueryService` under an open-loop Poisson
    /// arrival stream.
    ServiceMixed,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 4] = [
        Workload::SamplePlanted,
        Workload::ScanFull,
        Workload::AggEvolve,
        Workload::ServiceMixed,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SamplePlanted => "sample_planted",
            Workload::ScanFull => "scan_full",
            Workload::AggEvolve => "agg_evolve",
            Workload::ServiceMixed => "service_mixed",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload drives `QueryService` (otherwise `Session`).
    pub fn is_service(self) -> bool {
        self == Workload::ServiceMixed
    }
}

/// Every size a run depends on. [`Sizes::bench`] is the benchmark;
/// [`Sizes::smoke`] is the same shape shrunk for the self-test.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// TPC-H scale of each planted table (20 → 160 splits × 750k records).
    pub planted_scale: u32,
    /// Splits in the full-mode table.
    pub full_partitions: u32,
    /// Records per split of the full-mode table.
    pub full_records: u64,
    /// `SET policy` blocks of twelve samples per `sample_planted` episode.
    pub planted_blocks: usize,
    /// Blocks of twelve statements per `scan_full` episode.
    pub scan_blocks: usize,
    /// Rounds of five statements plus one evolve per `agg_evolve` episode.
    pub agg_rounds: usize,
    /// Simulated warm-up at the start of each `service_mixed` episode.
    pub service_warmup: SimDuration,
    /// Simulated arrival window after the warm-up.
    pub service_window: SimDuration,
    /// Mean Poisson inter-arrival gap.
    pub service_mean_gap: SimDuration,
    /// Measured episodes that always run; simulated metrics cover exactly
    /// these.
    pub sim_episodes: usize,
}

impl Sizes {
    /// The benchmark's sizes for `workload`.
    pub fn bench(workload: Workload) -> Sizes {
        let sim_episodes = match workload {
            Workload::SamplePlanted => 4,
            Workload::ScanFull => 12,
            Workload::AggEvolve => 10,
            Workload::ServiceMixed => 16,
        };
        Sizes {
            planted_scale: 20,
            full_partitions: 40,
            full_records: 5_000,
            planted_blocks: 24,
            scan_blocks: 4,
            agg_rounds: 8,
            service_warmup: SimDuration::from_mins(30),
            service_window: SimDuration::from_mins(120),
            service_mean_gap: SimDuration::from_millis(28_000),
            sim_episodes,
        }
    }

    /// Self-test sizes: every code path of the benchmark, in seconds.
    pub fn smoke(workload: Workload) -> Sizes {
        Sizes {
            planted_scale: 2,
            full_partitions: 12,
            full_records: 2_000,
            planted_blocks: 1,
            scan_blocks: 1,
            agg_rounds: 2,
            service_warmup: SimDuration::from_mins(5),
            service_window: SimDuration::from_mins(10),
            sim_episodes: 2,
            ..Sizes::bench(workload)
        }
    }
}

/// The built-in policies `sample_planted` rotates through.
pub const POLICIES: [&str; 4] = ["HA", "MA", "LA", "C"];

/// Sample sizes the sampling statements draw from.
pub const SAMPLE_KS: [u64; 4] = [10, 100, 1_000, 10_000];

/// Name of planted table `i` (skew level `i`: z = 0, 1, 2).
pub fn planted_table(i: usize) -> String {
    format!("lineitem_z{i}")
}

/// The full-mode table's name.
pub const FULL_TABLE: &str = "lineitem";

/// One conjunct of a generated `WHERE` clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// `column = literal`
    Eq(usize, Value),
    /// `column BETWEEN low AND high`
    Between(usize, Value, Value),
}

impl Cond {
    fn column(&self) -> usize {
        match self {
            Cond::Eq(c, _) | Cond::Between(c, _, _) => *c,
        }
    }
}

/// A conjunction of [`Cond`]s: renders to SQL for the system under test
/// and to an [`incmr_data::Predicate`] for the oracle. An empty
/// conjunction is the absent `WHERE` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct PredSpec(pub Vec<Cond>);

impl PredSpec {
    /// The `WHERE` clause body (empty for no predicate).
    pub fn sql(&self) -> String {
        let name = |c: usize| lineitem::schema().field(c).name.clone();
        self.0
            .iter()
            .map(|cond| match cond {
                Cond::Eq(c, v) => format!("{} = {}", name(*c), literal(v)),
                Cond::Between(c, lo, hi) => {
                    format!("{} BETWEEN {} AND {}", name(*c), literal(lo), literal(hi))
                }
            })
            .collect::<Vec<_>>()
            .join(" AND ")
    }

    /// ` WHERE …`, or nothing for an empty conjunction.
    pub fn where_clause(&self) -> String {
        if self.0.is_empty() {
            String::new()
        } else {
            format!(" WHERE {}", self.sql())
        }
    }

    /// The columns the predicate reads, in first-use order.
    pub fn columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        for c in self.0.iter().map(Cond::column) {
            if !cols.contains(&c) {
                cols.push(c);
            }
        }
        cols
    }

    /// The predicate over rows whose column `c` sits at `position(c)`.
    pub fn predicate(&self, position: impl Fn(usize) -> usize) -> Predicate {
        self.0
            .iter()
            .map(|cond| match cond {
                Cond::Eq(c, v) => Predicate::eq(position(*c), v.clone()),
                Cond::Between(c, lo, hi) => Predicate::Between {
                    column: position(*c),
                    low: lo.clone(),
                    high: hi.clone(),
                },
            })
            .reduce(|a, b| Predicate::And(Box::new(a), Box::new(b)))
            .unwrap_or(Predicate::True)
    }

    /// The predicate over rows projected to `projection`.
    pub fn projected(&self, projection: &[usize]) -> Predicate {
        self.predicate(|c| {
            projection
                .iter()
                .position(|&p| p == c)
                .expect("projections include every predicate column")
        })
    }
}

/// SQL literal for a generated value (dates are integer day offsets).
fn literal(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Str(s) => format!("'{s}'"),
        Value::Date(d) => d.to_string(),
    }
}

fn column_list(cols: &[usize]) -> String {
    cols.iter()
        .map(|&c| lineitem::schema().field(c).name.clone())
        .collect::<Vec<_>>()
        .join(", ")
}

/// An aggregate in a generated `GROUP BY` statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// `COUNT(*)`
    Count,
    /// `SUM(column)`
    Sum(usize),
    /// `AVG(column)`
    Avg(usize),
}

impl Agg {
    fn sql(self) -> String {
        let name = |c: usize| lineitem::schema().field(c).name.clone();
        match self {
            Agg::Count => "COUNT(*)".to_string(),
            Agg::Sum(c) => format!("SUM({})", name(c)),
            Agg::Avg(c) => format!("AVG({})", name(c)),
        }
    }
}

/// What a full-mode question returns.
#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    /// Select-project rows.
    Rows {
        /// Projected columns (every predicate column included).
        projection: Vec<usize>,
    },
    /// One row per group: the group value, then each aggregate.
    Groups {
        /// The grouping column.
        group: usize,
        /// The aggregate list.
        aggs: Vec<Agg>,
    },
}

/// A full-mode question: a predicate plus what to return. Statements name
/// questions by index into the run's [`Questions`], so the oracle answers
/// each one once per block content.
#[derive(Debug, Clone, PartialEq)]
pub struct Question {
    /// The `WHERE` clause.
    pub pred: PredSpec,
    /// Rows or groups.
    pub shape: Shape,
}

impl Question {
    /// `SELECT … FROM lineitem [WHERE …]` (rows) or
    /// `SELECT aggs FROM lineitem [WHERE …] GROUP BY g` (groups).
    pub fn sql(&self) -> String {
        match &self.shape {
            Shape::Rows { projection } => format!(
                "SELECT {} FROM {FULL_TABLE}{}",
                column_list(projection),
                self.pred.where_clause()
            ),
            Shape::Groups { group, aggs } => format!(
                "SELECT {} FROM {FULL_TABLE}{} GROUP BY {}",
                aggs.iter().map(|a| a.sql()).collect::<Vec<_>>().join(", "),
                self.pred.where_clause(),
                lineitem::schema().field(*group).name
            ),
        }
    }
}

/// The answer a statement must produce, checked against the oracle.
#[derive(Debug, Clone)]
pub enum Expect {
    /// `LIMIT k` over a planted table: `min(k, planted matches)` rows, each
    /// satisfying `pred` (already mapped onto the projected columns).
    PlantedSample {
        /// Planted table index.
        table: usize,
        /// Requested sample size.
        k: u64,
        /// The predicate over projected rows.
        pred: Predicate,
    },
    /// Planted select-project scan: every split read and every planted
    /// match counted (the rows themselves are not materialised).
    PlantedScan {
        /// Planted table index.
        table: usize,
    },
    /// Full-mode rows question, sampled under `limit` or scanned whole.
    Rows {
        /// Question index.
        question: usize,
        /// `Some(k)` for `LIMIT k`.
        limit: Option<u64>,
    },
    /// Exact `GROUP BY`.
    Groups {
        /// Question index.
        question: usize,
    },
    /// `GROUP BY … WITH ERROR e`.
    Bounded {
        /// Question index.
        question: usize,
        /// Relative error bound `e`.
        error: f64,
    },
}

/// A generated `SELECT` and its expected answer.
#[derive(Debug, Clone)]
pub struct Select {
    /// The statement text, all the system receives.
    pub sql: String,
    /// What the oracle checks.
    pub expect: Expect,
}

/// A data change between `agg_evolve` rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evolve {
    /// Append this many fresh splits.
    Append(u32),
    /// Rewrite this many distinct existing splits.
    Mutate(usize),
}

/// One step of a `Session` episode.
#[derive(Debug, Clone)]
pub enum Step {
    /// An untimed `SET`.
    Set(String),
    /// A timed, checked `SELECT`.
    Select(Select),
    /// An evolve between rounds.
    Evolve(Evolve),
}

/// One `service_mixed` arrival, before its due time is drawn.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Tenant index (weights 3, 2, 1).
    pub tenant: usize,
    /// The statement.
    pub select: Select,
}

/// Tenant weights of `service_mixed`, heaviest first.
pub const TENANT_WEIGHTS: [u32; 3] = [3, 2, 1];

/// The policy each `service_mixed` tenant sets before submitting.
pub const TENANT_POLICIES: [&str; 3] = ["LA", "MA", "HA"];

/// The run's full-mode question pool, drawn once from the seed.
#[derive(Debug, Clone, Default)]
pub struct Questions {
    /// Every question, indexed by [`Expect`] variants.
    pub all: Vec<Question>,
    /// `scan_full`: question indices per selectivity class (≈0.05%, ≈2%,
    /// ≈10%).
    pub by_class: [Vec<usize>; 3],
    /// `agg_evolve`: the two exact `GROUP BY` questions.
    pub exact: Vec<usize>,
    /// `agg_evolve`: the two error-bounded questions with `(error,
    /// confidence)`.
    pub bounded: Vec<(usize, f64, f64)>,
    /// `agg_evolve`: the `LIMIT` questions.
    pub samples: Vec<usize>,
}

const RETURN_FLAGS: [&str; 3] = ["R", "A", "N"];
const LINE_STATUS: [&str; 2] = ["O", "F"];
const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

fn pick(rng: &mut DetRng, items: &[&str]) -> Value {
    Value::Str(items[rng.gen_range(0..items.len())].to_string())
}

fn hundredths(rng: &mut DetRng, max: i64) -> Value {
    Value::Float(rng.gen_range(0..=max) as f64 / 100.0)
}

/// A predicate of selectivity class `class` (0: ≈0.05%, 1: ≈2%, 2: ≈10%
/// over the natural LINEITEM domains), template `template` of four.
fn class_predicate(class: usize, template: usize, rng: &mut DetRng) -> PredSpec {
    let q = |rng: &mut DetRng, hi: i64| Value::Int(rng.gen_range(1..=hi));
    let date = |rng: &mut DetRng, width: u32| {
        let a = rng.gen_range(0..2557 - width);
        Cond::Between(col::SHIPDATE, Value::Date(a), Value::Date(a + width))
    };
    let conds = match (class, template) {
        // The z = 2 table's planted predicate: exactly 0.05%.
        (0, 0) => vec![Cond::Eq(col::TAX, Value::Float(0.77))],
        (0, 1) => vec![
            Cond::Eq(col::QUANTITY, q(rng, 50)),
            Cond::Eq(col::SHIPMODE, pick(rng, &SHIP_MODES)),
            Cond::Eq(col::RETURNFLAG, pick(rng, &RETURN_FLAGS)),
        ],
        (0, 2) => vec![
            Cond::Eq(col::QUANTITY, q(rng, 50)),
            Cond::Eq(col::DISCOUNT, hundredths(rng, 10)),
            Cond::Eq(col::LINESTATUS, pick(rng, &LINE_STATUS)),
        ],
        (0, _) => vec![
            Cond::Eq(col::QUANTITY, q(rng, 50)),
            Cond::Eq(col::TAX, hundredths(rng, 8)),
            Cond::Eq(col::RETURNFLAG, pick(rng, &RETURN_FLAGS)),
        ],
        (1, 0) => vec![Cond::Eq(col::QUANTITY, q(rng, 50))],
        (1, 1) => vec![date(rng, 50)],
        (1, 2) => vec![
            Cond::Eq(col::DISCOUNT, hundredths(rng, 10)),
            Cond::Eq(col::SHIPMODE, pick(rng, &SHIP_MODES)),
        ],
        (1, _) => {
            let lo = rng.gen_range(1..=48);
            vec![
                Cond::Between(col::QUANTITY, Value::Int(lo), Value::Int(lo + 2)),
                Cond::Eq(col::LINESTATUS, pick(rng, &LINE_STATUS)),
            ]
        }
        (_, 0) => {
            let lo = rng.gen_range(1..=46);
            vec![Cond::Between(
                col::QUANTITY,
                Value::Int(lo),
                Value::Int(lo + 4),
            )]
        }
        (_, 1) => vec![Cond::Eq(col::DISCOUNT, hundredths(rng, 10))],
        (_, 2) => vec![Cond::Eq(col::TAX, hundredths(rng, 8))],
        (_, _) => vec![date(rng, 255)],
    };
    PredSpec(conds)
}

/// `L_ORDERKEY`, `L_PARTKEY`, then the predicate's columns: every
/// projection carries what the oracle needs to re-check the predicate on a
/// returned row, and its width depends only on the predicate.
fn projection(pred: &PredSpec) -> Vec<usize> {
    let mut cols = vec![col::ORDERKEY, col::PARTKEY];
    for c in pred.columns() {
        if !cols.contains(&c) {
            cols.push(c);
        }
    }
    cols
}

fn shuffle<T>(rng: &mut DetRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

impl Questions {
    /// Draw the pool for `workload` from the run's seed. Planted workloads
    /// need none.
    pub fn for_run(workload: Workload, seed: u64) -> Questions {
        let mut rng = DetRng::seed_from(seed).fork_named("questions");
        let mut qs = Questions::default();
        let push = |qs: &mut Questions, q: Question| {
            qs.all.push(q);
            qs.all.len() - 1
        };
        match workload {
            Workload::ScanFull => {
                for class in 0..3 {
                    for template in 0..4 {
                        let pred = class_predicate(class, template, &mut rng);
                        let projection = projection(&pred);
                        let id = push(
                            &mut qs,
                            Question {
                                pred,
                                shape: Shape::Rows { projection },
                            },
                        );
                        qs.by_class[class].push(id);
                    }
                }
            }
            Workload::AggEvolve => {
                // The exact pair differs in its aggregate list: the memo
                // plane keys exact grouped plans on the job conf, which
                // names the aggregates but not the predicate or grouping.
                // Each class's first template keeps the selectivity, and
                // so the cost, the same on every seed.
                let exact = [
                    (
                        class_predicate(2, 0, &mut rng),
                        col::RETURNFLAG,
                        vec![Agg::Count, Agg::Sum(col::QUANTITY)],
                    ),
                    (
                        class_predicate(1, 0, &mut rng),
                        col::SHIPMODE,
                        vec![
                            Agg::Sum(col::EXTENDEDPRICE),
                            Agg::Avg(col::DISCOUNT),
                            Agg::Count,
                        ],
                    ),
                ];
                for (pred, group, aggs) in exact {
                    let id = push(
                        &mut qs,
                        Question {
                            pred,
                            shape: Shape::Groups { group, aggs },
                        },
                    );
                    qs.exact.push(id);
                }
                let bounded = [
                    (
                        PredSpec(Vec::new()),
                        col::SHIPMODE,
                        vec![Agg::Sum(col::QUANTITY), Agg::Count],
                        0.05,
                        0.95,
                    ),
                    (
                        class_predicate(2, 0, &mut rng),
                        col::RETURNFLAG,
                        vec![Agg::Avg(col::EXTENDEDPRICE)],
                        0.05,
                        0.9,
                    ),
                ];
                for (pred, group, aggs, error, confidence) in bounded {
                    let id = push(
                        &mut qs,
                        Question {
                            pred,
                            shape: Shape::Groups { group, aggs },
                        },
                    );
                    qs.bounded.push((id, error, confidence));
                }
                // ≈10% selectivity: every sample fills in the first wave,
                // so the simulated tail stays the aggregates' and does not
                // step with the provider's growth rounds.
                for template in 0..4 {
                    let pred = class_predicate(2, template, &mut rng);
                    let projection = projection(&pred);
                    let id = push(
                        &mut qs,
                        Question {
                            pred,
                            shape: Shape::Rows { projection },
                        },
                    );
                    qs.samples.push(id);
                }
            }
            Workload::SamplePlanted | Workload::ServiceMixed => {}
        }
        qs
    }
}

/// The stream of episode `episode` of a run with seed `seed`.
pub fn episode_rng(seed: u64, episode: u64, domain: &str) -> DetRng {
    DetRng::seed_from(seed).fork(episode).fork_named(domain)
}

fn planted_select(rng: &mut DetRng, table: usize, limit: Option<u64>) -> Select {
    let planted = PaperPredicate::for_skew(SkewLevel::all()[table]);
    let pred = PredSpec(vec![Cond::Eq(planted.column, planted.value.clone())]);
    let mut cols = vec![col::ORDERKEY];
    let extra = [col::PARTKEY, col::SUPPKEY, col::SHIPDATE, col::SHIPMODE];
    cols.push(extra[rng.gen_range(0..extra.len())]);
    cols.push(planted.column);
    shuffle(rng, &mut cols);
    let base = format!(
        "SELECT {} FROM {} WHERE {}",
        column_list(&cols),
        planted_table(table),
        pred.sql()
    );
    match limit {
        Some(k) => Select {
            sql: format!("{base} LIMIT {k}"),
            expect: Expect::PlantedSample {
                table,
                k,
                pred: pred.projected(&cols),
            },
        },
        None => Select {
            sql: base,
            expect: Expect::PlantedScan { table },
        },
    }
}

/// `sample_planted`: blocks of `SET policy` + every (table, k) pair once,
/// shuffled, so each episode carries the same mix.
pub fn planted_episode(sizes: &Sizes, seed: u64, episode: u64) -> Vec<Step> {
    let mut rng = episode_rng(seed, episode, "statements");
    let mut steps = Vec::new();
    for block in 0..sizes.planted_blocks {
        let policy = POLICIES[(block + episode as usize) % POLICIES.len()];
        steps.push(Step::Set(format!("SET dynamic.job.policy = {policy}")));
        let mut pairs: Vec<(usize, u64)> = (0..3)
            .flat_map(|t| SAMPLE_KS.into_iter().map(move |k| (t, k)))
            .collect();
        shuffle(&mut rng, &mut pairs);
        for (table, k) in pairs {
            steps.push(Step::Select(planted_select(&mut rng, table, Some(k))));
        }
    }
    steps
}

/// `scan_full`: blocks of twelve — per selectivity class, `LIMIT` 100,
/// 1000 and 10000 on a random template of the class plus one scan without
/// `LIMIT` on the class's first template — shuffled. The scans are the
/// costliest statements and carry the p95, so they keep one selectivity
/// per class instead of adding the templates' spread to it.
pub fn scan_episode(sizes: &Sizes, qs: &Questions, seed: u64, episode: u64) -> Vec<Step> {
    let mut rng = episode_rng(seed, episode, "statements");
    let mut steps = Vec::new();
    for _ in 0..sizes.scan_blocks {
        let mut block = Vec::new();
        for class in &qs.by_class {
            for limit in [Some(100), Some(1_000), Some(10_000), None] {
                let question = match limit {
                    Some(_) => class[rng.gen_range(0..class.len())],
                    None => class[0],
                };
                let sql = match limit {
                    Some(k) => format!("{} LIMIT {k}", qs.all[question].sql()),
                    None => qs.all[question].sql(),
                };
                block.push(Step::Select(Select {
                    sql,
                    expect: Expect::Rows { question, limit },
                }));
            }
        }
        shuffle(&mut rng, &mut block);
        steps.extend(block);
    }
    steps
}

/// `agg_evolve`: per round, the two exact and two bounded `GROUP BY`s, one
/// `LIMIT` sample, shuffled; then an evolve alternating between appending
/// one split and rewriting three.
pub fn agg_episode(sizes: &Sizes, qs: &Questions, seed: u64, episode: u64) -> Vec<Step> {
    let mut rng = episode_rng(seed, episode, "statements");
    let mut steps = Vec::new();
    for round in 0..sizes.agg_rounds {
        let mut block = Vec::new();
        for &question in &qs.exact {
            block.push(Step::Select(Select {
                sql: qs.all[question].sql(),
                expect: Expect::Groups { question },
            }));
        }
        for &(question, error, confidence) in &qs.bounded {
            block.push(Step::Select(Select {
                sql: format!(
                    "{} WITH ERROR {error} CONFIDENCE {confidence}",
                    qs.all[question].sql()
                ),
                expect: Expect::Bounded { question, error },
            }));
        }
        let question = qs.samples[rng.gen_range(0..qs.samples.len())];
        let k = [100u64, 1_000][rng.gen_range(0..2usize)];
        block.push(Step::Select(Select {
            sql: format!("{} LIMIT {k}", qs.all[question].sql()),
            expect: Expect::Rows {
                question,
                limit: Some(k),
            },
        }));
        shuffle(&mut rng, &mut block);
        steps.extend(block);
        steps.push(Step::Evolve(if round % 2 == 0 {
            Evolve::Append(1)
        } else {
            Evolve::Mutate(3)
        }));
    }
    steps
}

/// `service_mixed`: arrivals in blocks of ten — four samples from the
/// weight-3 tenant, three from the weight-2 tenant, two samples and one
/// planted scan from the weight-1 tenant — shuffled, each sample on a
/// random table with a random `k`.
pub fn service_arrivals(count: usize, seed: u64, episode: u64) -> Vec<Arrival> {
    let mut rng = episode_rng(seed, episode, "arrivals");
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut block: Vec<(usize, bool)> = [0, 0, 0, 0, 1, 1, 1, 2, 2]
            .into_iter()
            .map(|t| (t, true))
            .chain([(2, false)])
            .collect();
        shuffle(&mut rng, &mut block);
        for (tenant, sample) in block {
            let table = rng.gen_range(0..3);
            let limit = sample.then(|| SAMPLE_KS[rng.gen_range(0..SAMPLE_KS.len())]);
            out.push(Arrival {
                tenant,
                select: planted_select(&mut rng, table, limit),
            });
        }
    }
    out.truncate(count);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn generated_sql_parses_and_projects_predicate_columns() {
        for w in [Workload::ScanFull, Workload::AggEvolve] {
            let qs = Questions::for_run(w, 7);
            for q in &qs.all {
                let stmt = incmr_hiveql::parse(&q.sql()).expect("generated SQL parses");
                assert!(matches!(stmt, incmr_hiveql::Statement::Select(_)));
                if let Shape::Rows { projection } = &q.shape {
                    for c in q.pred.columns() {
                        assert!(projection.contains(&c));
                    }
                }
            }
        }
        for a in service_arrivals(30, 3, 1) {
            incmr_hiveql::parse(&a.select.sql).expect("arrival SQL parses");
        }
    }

    #[test]
    fn streams_are_seeded() {
        let sizes = Sizes::bench(Workload::SamplePlanted);
        let sql = |seed, episode| {
            planted_episode(&sizes, seed, episode)
                .into_iter()
                .map(|s| format!("{s:?}"))
                .collect::<Vec<_>>()
        };
        assert_eq!(sql(1, 1), sql(1, 1));
        assert_ne!(sql(1, 1), sql(2, 1));
        assert_ne!(sql(1, 1), sql(1, 2));
    }
}
