//! The query compiler: AST → (dynamic) MapReduce job.
//!
//! This is the paper's Hive modification (Section IV): "We have modified
//! the Hive compiler so that the constructed JobConf has the dynamic.job
//! flag set to true and the dynamic.input.provider parameter set to the
//! class name for the class that implements the Input Provider interface."
//!
//! Plan selection:
//!
//! * `SELECT … WHERE p LIMIT k` → a **dynamic sampling job** (Algorithms
//!   1–2, `SamplingInputProvider`, the session's configured policy);
//! * `SELECT … [WHERE p]` without `LIMIT` → a **static scan job** over the
//!   entire table;
//! * `SELECT <aggregates> … [GROUP BY g]` → a **static aggregate job**
//!   (`GroupAggMapper`/`GroupAggReducer`), or under `WITH ERROR e` a
//!   dynamic estimating job running the same pair.
//!
//! In `Planted` scan mode, only the table's planted experiment predicate
//! can be evaluated (the data generator materialises matches for that
//! predicate alone); the compiler rejects any other `WHERE` clause with
//! [`CompileError::PredicateNotPlanted`]. `Full` mode evaluates arbitrary
//! predicates over real records.

use std::fmt;
use std::sync::Arc;

use incmr_core::scan::ScanMapper;
use incmr_core::{
    build_sampling_job_with, DynamicDriver, EstimatingInputProvider, Policy, SampleMode,
};
use incmr_data::generator::RecordFactory;
use incmr_data::{predicate, ColumnType, Dataset, Schema, Value};
use incmr_mapreduce::{
    encode_funcs, keys, AggKind, GrowthDriver, JobConf, JobSpec, ScanMode, StaticDriver,
};

use crate::agg::{GroupAggMapper, GroupAggReducer, ResolvedAgg};
use crate::ast::{AggExpr, AggFunc, CmpOp, Expr, Literal, Projection, Query};
use crate::catalog::Catalog;

/// Compilation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The `FROM` table is not in the catalog.
    UnknownTable(String),
    /// A column is not in the table schema.
    UnknownColumn(String),
    /// A literal's type does not match its column's type.
    TypeMismatch {
        /// The column involved.
        column: String,
        /// Its declared type.
        expected: ColumnType,
        /// The literal that failed.
        literal: String,
    },
    /// In planted scan mode, only the table's experiment predicate is
    /// evaluable.
    PredicateNotPlanted {
        /// The predicate the dataset was planted with.
        planted: String,
    },
    /// An aggregate function was applied to a non-numeric column.
    NonNumericAggregate {
        /// The aggregate expression.
        agg: String,
    },
    /// `LIMIT` with aggregates is meaningless in this subset (the result
    /// is always a single row).
    AggregateWithLimit,
    /// `GROUP BY` on a non-aggregate projection.
    GroupByWithoutAggregates,
    /// `WITH ERROR` on a non-aggregate projection.
    ErrorBoundWithoutAggregates,
    /// `MIN`/`MAX` cannot run under an error bound: the estimator's
    /// accumulator plane carries running moments only.
    UnsupportedGroupedAggregate {
        /// The offending aggregate expression.
        agg: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            CompileError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            CompileError::TypeMismatch {
                column,
                expected,
                literal,
            } => write!(f, "column {column} is {expected}, literal {literal} does not fit"),
            CompileError::PredicateNotPlanted { planted } => write!(
                f,
                "planted scan mode can only evaluate the dataset's experiment predicate ({planted}); \
                 use Full scan mode for ad-hoc predicates"
            ),
            CompileError::NonNumericAggregate { agg } => {
                write!(f, "{agg} requires a numeric column")
            }
            CompileError::AggregateWithLimit => {
                write!(f, "LIMIT with aggregates is not supported (the result is one row)")
            }
            CompileError::GroupByWithoutAggregates => {
                write!(f, "GROUP BY requires an aggregate SELECT list")
            }
            CompileError::ErrorBoundWithoutAggregates => {
                write!(f, "WITH ERROR requires an aggregate SELECT list")
            }
            CompileError::UnsupportedGroupedAggregate { agg } => {
                write!(f, "{agg} cannot run error-bounded; only COUNT/SUM/AVG")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// What kind of job a query compiled to.
#[derive(Debug, Clone, PartialEq)]
pub enum JobPlan {
    /// Dynamic predicate-based sampling with the given `k`, policy name
    /// and reducer mode.
    DynamicSampling {
        /// Required sample size.
        k: u64,
        /// Policy controlling growth.
        policy: String,
        /// Which `k` of the candidates the reducer keeps.
        mode: SampleMode,
    },
    /// A conventional full-input scan.
    StaticScan,
    /// A full-input scan feeding exact aggregates.
    AggregateScan {
        /// Rendered aggregate list, e.g. `COUNT(*), AVG(L_QUANTITY)`.
        aggregates: String,
        /// The grouping column, if any.
        group_by: Option<String>,
    },
    /// Error-bounded approximate aggregation: a dynamic job growing its
    /// input in rounds until the CLT bound holds (EARL-style early
    /// results).
    ApproxAggregate {
        /// Rendered aggregate list.
        aggregates: String,
        /// The grouping column, if any.
        group_by: Option<String>,
        /// Target relative error.
        error: f64,
        /// Target confidence.
        confidence: f64,
    },
}

/// A compiled, ready-to-submit job.
pub struct CompiledQuery {
    /// The job spec (conf, mapper, reducer, input format).
    pub spec: JobSpec,
    /// The growth driver to submit alongside.
    pub driver: Box<dyn GrowthDriver>,
    /// What was planned (for `EXPLAIN` and tests).
    pub plan: JobPlan,
    /// Resolved projection column indices (empty = all columns).
    pub projection: Vec<usize>,
}

impl fmt::Debug for CompiledQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledQuery")
            .field("plan", &self.plan)
            .field("projection", &self.projection)
            .finish_non_exhaustive()
    }
}

impl CompiledQuery {
    /// The requested sample size for dynamic sampling plans (`None` for
    /// static scans and aggregates).
    pub fn requested_k(&self) -> Option<u64> {
        match &self.plan {
            JobPlan::DynamicSampling { k, .. } => Some(*k),
            _ => None,
        }
    }

    /// Human-readable plan description (the `EXPLAIN` output).
    pub fn explain(&self) -> String {
        match &self.plan {
            JobPlan::DynamicSampling { k, policy, mode } => format!(
                "Dynamic MapReduce job: predicate-based sampling\n  sample size (k): {k}\n  policy: {policy}\n  input provider: SamplingInputProvider\n  map: SamplingMapper (emit ≤ k matches per split under dummy key)\n  reduce: SamplingReducer ({})",
                match mode {
                    SampleMode::FirstK => "first k of the candidate list".to_string(),
                    SampleMode::RandomK { seed } =>
                        format!("random k of the candidate list, reservoir seed {seed}"),
                }
            ),
            JobPlan::StaticScan => "Static MapReduce job: full select-project scan\n  map: ScanMapper\n  reduce: identity".to_string(),
            JobPlan::AggregateScan {
                aggregates,
                group_by,
            } => format!(
                "Static MapReduce job: {} aggregation\n  aggregates: {aggregates}\n  group by: {}\n  map: GroupAggMapper (one partial per group per split)\n  reduce: GroupAggReducer (merge partials, emit one row per group)",
                if group_by.is_some() { "grouped" } else { "whole-table" },
                group_by.as_deref().unwrap_or("(whole table)")
            ),
            JobPlan::ApproxAggregate {
                aggregates,
                group_by,
                error,
                confidence,
            } => format!(
                "Dynamic MapReduce job: error-bounded approximate aggregation\n  aggregates: {aggregates}\n  group by: {}\n  error bound: {error} at confidence {confidence}\n  input provider: EstimatingInputProvider (random splits, grown in rounds)\n  map: GroupAggMapper (one partial per group per split)\n  reduce: GroupAggReducer (merge partials; session scales by M/m)",
                group_by.as_deref().unwrap_or("(whole table)")
            ),
        }
    }
}

fn resolve_column(schema: &Schema, name: &str) -> Result<usize, CompileError> {
    schema
        .index_of(name)
        .ok_or_else(|| CompileError::UnknownColumn(name.to_string()))
}

fn lower_literal(
    schema: &Schema,
    column: usize,
    lit: &Literal,
    column_name: &str,
) -> Result<Value, CompileError> {
    let ty = schema.field(column).ty;
    let value = match (ty, lit) {
        (ColumnType::Int, Literal::Int(v)) => Some(Value::Int(*v)),
        (ColumnType::Float, Literal::Float(v)) => Some(Value::Float(*v)),
        (ColumnType::Float, Literal::Int(v)) => Some(Value::Float(*v as f64)),
        (ColumnType::Str, Literal::Str(s)) => Some(Value::Str(s.clone())),
        // Dates are written as integer day offsets from the TPC-H epoch;
        // an offset outside `u32` (negative or too large) matches no date.
        (ColumnType::Date, Literal::Int(v)) => u32::try_from(*v).ok().map(Value::Date),
        _ => None,
    };
    value.ok_or_else(|| CompileError::TypeMismatch {
        column: column_name.to_string(),
        expected: ty,
        literal: lit.to_string(),
    })
}

fn lower_cmp_op(op: CmpOp) -> predicate::CmpOp {
    match op {
        CmpOp::Eq => predicate::CmpOp::Eq,
        CmpOp::Ne => predicate::CmpOp::Ne,
        CmpOp::Lt => predicate::CmpOp::Lt,
        CmpOp::Le => predicate::CmpOp::Le,
        CmpOp::Gt => predicate::CmpOp::Gt,
        CmpOp::Ge => predicate::CmpOp::Ge,
    }
}

/// Lower a surface expression to an executable predicate against a schema.
pub fn lower_expr(schema: &Schema, expr: &Expr) -> Result<predicate::Predicate, CompileError> {
    Ok(match expr {
        Expr::Cmp {
            column,
            op,
            literal,
        } => {
            let idx = resolve_column(schema, column)?;
            predicate::Predicate::Compare {
                column: idx,
                op: lower_cmp_op(*op),
                literal: lower_literal(schema, idx, literal, column)?,
            }
        }
        Expr::Between { column, low, high } => {
            let idx = resolve_column(schema, column)?;
            predicate::Predicate::Between {
                column: idx,
                low: lower_literal(schema, idx, low, column)?,
                high: lower_literal(schema, idx, high, column)?,
            }
        }
        Expr::And(a, b) => predicate::Predicate::And(
            Box::new(lower_expr(schema, a)?),
            Box::new(lower_expr(schema, b)?),
        ),
        Expr::Or(a, b) => predicate::Predicate::Or(
            Box::new(lower_expr(schema, a)?),
            Box::new(lower_expr(schema, b)?),
        ),
        Expr::Not(a) => predicate::Predicate::Not(Box::new(lower_expr(schema, a)?)),
    })
}

fn resolve_projection(
    schema: &Schema,
    projection: &Projection,
) -> Result<Vec<usize>, CompileError> {
    match projection {
        Projection::Star | Projection::Aggregates(_) => Ok(Vec::new()),
        Projection::Columns(names) => names.iter().map(|n| resolve_column(schema, n)).collect(),
    }
}

/// Map a surface aggregate onto the estimator plane's function kind
/// (`None` for MIN/MAX, which have no moment-based estimator).
fn agg_kind(func: AggFunc) -> Option<AggKind> {
    match func {
        AggFunc::Count => Some(AggKind::Count),
        AggFunc::Sum => Some(AggKind::Sum),
        AggFunc::Avg => Some(AggKind::Avg),
        AggFunc::Min | AggFunc::Max => None,
    }
}

fn resolve_aggregates(schema: &Schema, aggs: &[AggExpr]) -> Result<Vec<ResolvedAgg>, CompileError> {
    aggs.iter()
        .map(|a| {
            let column = match &a.column {
                None => None,
                Some(name) => {
                    let idx = resolve_column(schema, name)?;
                    let numeric = matches!(
                        schema.field(idx).ty,
                        ColumnType::Int | ColumnType::Float | ColumnType::Date
                    );
                    if a.func != AggFunc::Count && !numeric {
                        return Err(CompileError::NonNumericAggregate { agg: a.to_string() });
                    }
                    Some(idx)
                }
            };
            Ok(ResolvedAgg {
                func: a.func,
                column,
            })
        })
        .collect()
}

/// The memoization plane's identity for a plan: a signature over the
/// semantic parts of the query. Jobs sharing a signature share cached
/// per-split map output, so `parts` must name everything the map output
/// depends on — and nothing else, so re-plans still hit.
fn semantic_signature(parts: &[(&str, &str)]) -> u64 {
    incmr_mapreduce::signature_of_conf(parts.iter().copied(), 1)
}

/// Compile a query against a catalog under the session's policy, scan mode,
/// and sample mode. `seed` drives the sampling/estimating provider's random
/// split selection; `agg_rounds` bounds the growth loop of error-bounded
/// aggregate plans (`SET mapred.agg.rounds`, default
/// [`incmr_mapreduce::DEFAULT_AGG_ROUNDS`]).
#[allow(clippy::too_many_arguments)]
pub fn compile_query(
    query: &Query,
    catalog: &Catalog,
    policy: &Policy,
    scan_mode: ScanMode,
    sample_mode: SampleMode,
    seed: u64,
    agg_rounds: u64,
) -> Result<CompiledQuery, CompileError> {
    let dataset: &Arc<Dataset> = catalog
        .resolve(&query.table)
        .ok_or_else(|| CompileError::UnknownTable(query.table.clone()))?;
    let schema = catalog
        .schema(&query.table)
        .expect("resolved tables have schemas");
    let projection = resolve_projection(&schema, &query.projection)?;
    let predicate = match &query.predicate {
        Some(expr) => lower_expr(&schema, expr)?,
        None => predicate::Predicate::True,
    };
    // Planted-mode evaluability check: a planted split holds only the
    // planted predicate's matches, so `SplitData::select` skips its pass.
    if scan_mode == ScanMode::Planted {
        let planted = dataset.factory().predicate();
        if predicate != planted {
            return Err(CompileError::PredicateNotPlanted {
                planted: planted.display(&schema).to_string(),
            });
        }
    }

    let Projection::Aggregates(aggs) = &query.projection else {
        // GROUP BY / WITH ERROR only make sense over an aggregate list.
        if query.group_by.is_some() {
            return Err(CompileError::GroupByWithoutAggregates);
        }
        if query.error_bound.is_some() {
            return Err(CompileError::ErrorBoundWithoutAggregates);
        }
        return compile_scan_or_sample(
            query,
            dataset,
            predicate,
            projection,
            policy,
            scan_mode,
            sample_mode,
            seed,
        );
    };
    // Aggregate queries, grouped or not: a static scan-aggregate job, or
    // (under WITH ERROR) a dynamic estimating job. Both run
    // GroupAggMapper/GroupAggReducer.
    if query.limit.is_some() {
        return Err(CompileError::AggregateWithLimit);
    }
    let resolved = resolve_aggregates(&schema, aggs)?;
    let rendered = aggs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let group_idx = match &query.group_by {
        Some(g) => Some(resolve_column(&schema, g)?),
        None => None,
    };

    // Memo identity: the semantic computation — table, predicate,
    // grouping, aggregate list (and a bound, below), rendered from
    // resolved columns so spelling variants of one query share a
    // signature. No AGG_TOTAL_SPLITS: per-split map output does not
    // depend on it, so the cache survives appends.
    let pred_rendered = predicate.display(&schema).to_string();
    let group_rendered = format!("{group_idx:?}");
    let aggs_rendered = format!("{resolved:?}");
    let mut identity = vec![
        ("query.table", query.table.as_str()),
        ("query.predicate", &pred_rendered),
        ("query.group", &group_rendered),
        ("query.aggs", &aggs_rendered),
    ];
    let blocks: Vec<_> = dataset.splits().iter().map(|p| p.block).collect();
    let total = blocks.len() as u64;
    let spec = |conf: JobConf| {
        JobSpec::builder()
            .conf(conf.with(keys::AGG_TOTAL_SPLITS, total))
            .reduces(1)
            .input(incmr_mapreduce::DatasetInputFormat::new(
                Arc::clone(dataset),
                scan_mode,
            ))
            .mapper(GroupAggMapper::new(predicate, group_idx, resolved.clone()))
            .reducer(GroupAggReducer::new(resolved, group_idx.is_some()))
            .build()
    };

    let Some(bound) = &query.error_bound else {
        let conf = JobConf::new()
            .with(keys::JOB_NAME, format!("agg-{}", query.table))
            .with(keys::JOB_SIGNATURE, semantic_signature(&identity));
        return Ok(CompiledQuery {
            spec: spec(conf),
            driver: Box::new(StaticDriver::new(blocks)),
            plan: JobPlan::AggregateScan {
                aggregates: rendered,
                group_by: query.group_by.clone(),
            },
            projection,
        });
    };
    // Only COUNT/SUM/AVG have moment-based estimators.
    let funcs: Vec<AggKind> = aggs
        .iter()
        .map(|a| {
            agg_kind(a.func)
                .ok_or_else(|| CompileError::UnsupportedGroupedAggregate { agg: a.to_string() })
        })
        .collect::<Result<_, _>>()?;
    // The bound joins the identity: warm re-runs of the same bounded
    // statement share cached per-split map output.
    let bound_rendered = format!("{}@{}", bound.error, bound.confidence);
    identity.push(("query.bound", &bound_rendered));
    let conf = JobConf::new()
        .with(keys::JOB_NAME, format!("approx-{}", query.table))
        .with(keys::DYNAMIC_JOB, true)
        .with(keys::DYNAMIC_JOB_POLICY, &policy.name)
        .with(keys::DYNAMIC_INPUT_PROVIDER, "EstimatingInputProvider")
        .with(keys::AGG_ERROR, bound.error)
        .with(keys::AGG_CONFIDENCE, bound.confidence)
        .with(keys::AGG_ROUNDS, agg_rounds)
        .with(keys::AGG_FUNCS, encode_funcs(&funcs))
        .with(keys::JOB_SIGNATURE, semantic_signature(&identity));
    let provider = EstimatingInputProvider::new(blocks, agg_rounds, seed);
    Ok(CompiledQuery {
        spec: spec(conf),
        driver: Box::new(DynamicDriver::new(
            Box::new(provider),
            policy.clone(),
            total as u32,
        )),
        plan: JobPlan::ApproxAggregate {
            aggregates: rendered,
            group_by: query.group_by.clone(),
            error: bound.error,
            confidence: bound.confidence,
        },
        projection,
    })
}

/// The non-aggregate plans: dynamic predicate-based sampling (`LIMIT k`)
/// or a static select-project scan.
#[allow(clippy::too_many_arguments)]
fn compile_scan_or_sample(
    query: &Query,
    dataset: &Arc<Dataset>,
    predicate: predicate::Predicate,
    projection: Vec<usize>,
    policy: &Policy,
    scan_mode: ScanMode,
    sample_mode: SampleMode,
    seed: u64,
) -> Result<CompiledQuery, CompileError> {
    let schema = dataset.factory().schema();
    // Memoization plane: a semantic signature over the query's
    // computation. Re-running the same query (however the
    // submission-level conf varies) shares cached per-split map output
    // under this identity.
    let pred_rendered = predicate.display(&schema).to_string();
    let proj_rendered = format!("{projection:?}");

    match query.limit {
        Some(k) => {
            let (mut spec, driver) = build_sampling_job_with(
                dataset,
                predicate,
                projection.clone(),
                k,
                policy.clone(),
                scan_mode,
                sample_mode,
                seed,
            );
            let k_rendered = k.to_string();
            let signature = semantic_signature(&[
                ("query.table", &query.table),
                ("query.predicate", &pred_rendered),
                ("query.projection", &proj_rendered),
                ("query.k", &k_rendered),
            ]);
            spec.conf.set(keys::JOB_SIGNATURE, signature);
            Ok(CompiledQuery {
                spec,
                driver,
                plan: JobPlan::DynamicSampling {
                    k,
                    policy: policy.name.clone(),
                    mode: sample_mode,
                },
                projection,
            })
        }
        None => {
            let materialize = scan_mode == ScanMode::Full;
            let signature = semantic_signature(&[
                ("query.table", &query.table),
                ("query.predicate", &pred_rendered),
                ("query.projection", &proj_rendered),
                ("query.materialize", &materialize.to_string()),
            ]);
            let spec = JobSpec::builder()
                .set(keys::JOB_NAME, format!("scan-{}", query.table))
                .set(keys::JOB_SIGNATURE, signature)
                .input(incmr_mapreduce::DatasetInputFormat::new(
                    Arc::clone(dataset),
                    scan_mode,
                ))
                .mapper(ScanMapper::new(predicate, projection.clone(), materialize))
                .build();
            let blocks = dataset.splits().iter().map(|p| p.block).collect();
            Ok(CompiledQuery {
                spec,
                driver: Box::new(StaticDriver::new(blocks)),
                plan: JobPlan::StaticScan,
                projection,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::Statement;
    use incmr_data::{DatasetSpec, SkewLevel};
    use incmr_dfs::{ClusterTopology, EvenRoundRobin, Namespace};
    use incmr_simkit::rng::DetRng;

    fn catalog() -> Catalog {
        let mut ns = Namespace::new(ClusterTopology::paper_cluster());
        let mut rng = DetRng::seed_from(1);
        // SkewLevel::High plants on L_TAX = 0.77.
        let ds = Arc::new(Dataset::build(
            &mut ns,
            DatasetSpec::small("li", 8, 200, SkewLevel::High, 1),
            &mut EvenRoundRobin::new(),
            &mut rng,
        ));
        let mut c = Catalog::new();
        c.register("lineitem", ds);
        c
    }

    fn query(sql: &str) -> Query {
        match parse(sql).unwrap() {
            Statement::Select(q) => q,
            _ => panic!(),
        }
    }

    fn compile(sql: &str, mode: ScanMode) -> Result<CompiledQuery, CompileError> {
        compile_query(
            &query(sql),
            &catalog(),
            &Policy::la(),
            mode,
            SampleMode::FirstK,
            1,
            incmr_mapreduce::DEFAULT_AGG_ROUNDS,
        )
    }

    #[test]
    fn limit_query_compiles_to_dynamic_sampling() {
        let c = compile(
            "SELECT L_ORDERKEY, L_PARTKEY, L_SUPPKEY FROM LINEITEM WHERE L_TAX = 0.77 LIMIT 100",
            ScanMode::Planted,
        )
        .unwrap();
        assert_eq!(
            c.plan,
            JobPlan::DynamicSampling {
                k: 100,
                policy: "LA".into(),
                mode: SampleMode::FirstK,
            }
        );
        assert!(c.spec.conf.get_bool(keys::DYNAMIC_JOB));
        assert_eq!(c.spec.conf.get(keys::DYNAMIC_JOB_POLICY), Some("LA"));
        assert_eq!(c.projection.len(), 3);
        assert!(c.explain().contains("SamplingInputProvider"));
    }

    #[test]
    fn no_limit_compiles_to_static_scan() {
        let c = compile(
            "SELECT * FROM LINEITEM WHERE L_TAX = 0.77",
            ScanMode::Planted,
        )
        .unwrap();
        assert_eq!(c.plan, JobPlan::StaticScan);
        assert!(!c.spec.conf.get_bool(keys::DYNAMIC_JOB));
        assert!(c.explain().contains("full select-project scan"));
    }

    #[test]
    fn unknown_table_and_column_errors() {
        assert_eq!(
            compile("SELECT * FROM nope LIMIT 1", ScanMode::Full).unwrap_err(),
            CompileError::UnknownTable("nope".into())
        );
        assert_eq!(
            compile("SELECT bogus FROM lineitem LIMIT 1", ScanMode::Full).unwrap_err(),
            CompileError::UnknownColumn("bogus".into())
        );
        assert!(matches!(
            compile(
                "SELECT * FROM lineitem WHERE bogus = 1 LIMIT 1",
                ScanMode::Full
            )
            .unwrap_err(),
            CompileError::UnknownColumn(_)
        ));
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let err = compile(
            "SELECT * FROM lineitem WHERE L_QUANTITY = 'x' LIMIT 1",
            ScanMode::Full,
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::TypeMismatch { .. }));
        assert!(err.to_string().contains("L_QUANTITY"));
    }

    #[test]
    fn out_of_range_date_literal_is_rejected() {
        // A DATE is a `u32` day offset: 2^32 and negative offsets do not fit.
        for sql in [
            "SELECT COUNT(*) FROM lineitem WHERE L_SHIPDATE = 4294967296",
            "SELECT COUNT(*) FROM lineitem WHERE L_SHIPDATE > 4294967296",
            "SELECT COUNT(*) FROM lineitem WHERE L_SHIPDATE < -1",
        ] {
            let err = compile(sql, ScanMode::Full).unwrap_err();
            assert!(
                matches!(err, CompileError::TypeMismatch { .. }),
                "{sql}: {err}"
            );
        }
        assert!(compile(
            "SELECT COUNT(*) FROM lineitem WHERE L_SHIPDATE = 4294967295",
            ScanMode::Full
        )
        .is_ok());
    }

    #[test]
    fn int_coerces_to_float_column() {
        let c = compile(
            "SELECT * FROM lineitem WHERE L_DISCOUNT = 0 LIMIT 1",
            ScanMode::Full,
        )
        .unwrap();
        assert!(matches!(c.plan, JobPlan::DynamicSampling { .. }));
    }

    #[test]
    fn planted_mode_rejects_foreign_predicates() {
        let err = compile(
            "SELECT * FROM lineitem WHERE L_QUANTITY = 200 LIMIT 10",
            ScanMode::Planted,
        )
        .unwrap_err();
        let CompileError::PredicateNotPlanted { planted } = err else {
            panic!("wrong error: {err:?}")
        };
        assert!(
            planted.contains("L_TAX"),
            "planted predicate named: {planted}"
        );
        // The planted predicate itself is fine.
        assert!(compile(
            "SELECT * FROM lineitem WHERE L_TAX = 0.77 LIMIT 10",
            ScanMode::Planted
        )
        .is_ok());
        // Full mode takes anything well-typed.
        assert!(compile(
            "SELECT * FROM lineitem WHERE L_QUANTITY = 200 LIMIT 10",
            ScanMode::Full
        )
        .is_ok());
    }

    #[test]
    fn between_and_connectives_lower() {
        let c = compile(
            "SELECT * FROM lineitem WHERE L_QUANTITY BETWEEN 1 AND 10 AND NOT L_SHIPMODE = 'AIR' LIMIT 5",
            ScanMode::Full,
        )
        .unwrap();
        assert!(matches!(c.plan, JobPlan::DynamicSampling { .. }));
    }

    #[test]
    fn date_columns_take_integer_day_offsets() {
        assert!(compile(
            "SELECT * FROM lineitem WHERE L_SHIPDATE < 100 LIMIT 5",
            ScanMode::Full
        )
        .is_ok());
        assert!(compile(
            "SELECT * FROM lineitem WHERE L_SHIPDATE = 'x' LIMIT 5",
            ScanMode::Full
        )
        .is_err());
    }

    #[test]
    fn grouped_aggregate_compiles_to_exact_grouped_scan() {
        let c = compile(
            "SELECT SUM(L_QUANTITY), COUNT(*) FROM lineitem GROUP BY L_RETURNFLAG",
            ScanMode::Full,
        )
        .unwrap();
        assert_eq!(
            c.plan,
            JobPlan::AggregateScan {
                aggregates: "SUM(L_QUANTITY), COUNT(*)".into(),
                group_by: Some("L_RETURNFLAG".into()),
            }
        );
        assert!(!c.spec.conf.get_bool(keys::DYNAMIC_JOB));
        // Only estimating jobs read the function list; exact runs never
        // scale their rows.
        assert_eq!(c.spec.conf.get(keys::AGG_FUNCS), None);
        assert_eq!(c.spec.conf.get(keys::AGG_TOTAL_SPLITS), Some("8"));
        assert!(c.explain().contains("group by: L_RETURNFLAG"));
    }

    #[test]
    fn error_bound_compiles_to_estimating_provider() {
        let c = compile(
            "SELECT AVG(L_TAX) FROM lineitem GROUP BY L_RETURNFLAG \
             WITH ERROR 0.05 CONFIDENCE 0.9",
            ScanMode::Full,
        )
        .unwrap();
        assert_eq!(
            c.plan,
            JobPlan::ApproxAggregate {
                aggregates: "AVG(L_TAX)".into(),
                group_by: Some("L_RETURNFLAG".into()),
                error: 0.05,
                confidence: 0.9,
            }
        );
        assert!(c.spec.conf.get_bool(keys::DYNAMIC_JOB));
        assert_eq!(
            c.spec.conf.get(keys::DYNAMIC_INPUT_PROVIDER),
            Some("EstimatingInputProvider")
        );
        assert_eq!(c.spec.conf.get(keys::AGG_ERROR), Some("0.05"));
        assert_eq!(c.spec.conf.get(keys::AGG_CONFIDENCE), Some("0.9"));
        assert!(c.spec.conf.get(keys::JOB_SIGNATURE).is_some());
        assert!(c.explain().contains("EstimatingInputProvider"));
    }

    #[test]
    fn error_bound_signature_is_semantic() {
        let sql = "SELECT SUM(L_QUANTITY) FROM lineitem WITH ERROR 0.1";
        let a = compile(sql, ScanMode::Full).unwrap();
        let b = compile(sql, ScanMode::Full).unwrap();
        assert_eq!(
            a.spec.conf.get(keys::JOB_SIGNATURE),
            b.spec.conf.get(keys::JOB_SIGNATURE),
        );
        let c = compile(
            "SELECT SUM(L_QUANTITY) FROM lineitem WITH ERROR 0.2",
            ScanMode::Full,
        )
        .unwrap();
        assert_ne!(
            a.spec.conf.get(keys::JOB_SIGNATURE),
            c.spec.conf.get(keys::JOB_SIGNATURE),
        );
    }

    #[test]
    fn grouped_and_bounded_plans_reject_min_max() {
        for sql in [
            "SELECT MIN(L_TAX) FROM lineitem GROUP BY L_RETURNFLAG WITH ERROR 0.05",
            "SELECT MAX(L_TAX) FROM lineitem WITH ERROR 0.05",
        ] {
            let err = compile(sql, ScanMode::Full).unwrap_err();
            assert!(
                matches!(err, CompileError::UnsupportedGroupedAggregate { .. }),
                "{sql}: {err:?}"
            );
            assert!(err.to_string().contains("COUNT/SUM/AVG"));
        }
        // Exact plans, grouped or not, run MIN/MAX.
        for sql in [
            "SELECT MIN(L_TAX) FROM lineitem GROUP BY L_RETURNFLAG",
            "SELECT MAX(L_TAX) FROM lineitem",
        ] {
            let c = compile(sql, ScanMode::Full).unwrap();
            assert!(matches!(c.plan, JobPlan::AggregateScan { .. }), "{sql}");
        }
    }

    #[test]
    fn group_by_and_error_bound_require_aggregates() {
        assert_eq!(
            compile(
                "SELECT L_ORDERKEY FROM lineitem GROUP BY L_RETURNFLAG",
                ScanMode::Full
            )
            .unwrap_err(),
            CompileError::GroupByWithoutAggregates
        );
        assert_eq!(
            compile("SELECT * FROM lineitem WITH ERROR 0.05", ScanMode::Full).unwrap_err(),
            CompileError::ErrorBoundWithoutAggregates
        );
    }

    #[test]
    fn agg_rounds_flows_into_the_estimating_conf() {
        let c = compile_query(
            &query("SELECT COUNT(*) FROM lineitem WITH ERROR 0.05"),
            &catalog(),
            &Policy::la(),
            ScanMode::Full,
            SampleMode::FirstK,
            1,
            3,
        )
        .unwrap();
        assert_eq!(c.spec.conf.get(keys::AGG_ROUNDS), Some("3"));
    }
}
