//! Error-bounded approximate aggregation (EARL-style early results).
//!
//! The paper's dynamic Input Provider grows a sampling job until `LIMIT k`
//! matches exist. This module supplies the arithmetic for the natural
//! generalisation (`SELECT agg(...) GROUP BY ... WITH ERROR e CONFIDENCE
//! c`): the job's splits are treated as the units of a **uniform cluster
//! sample without replacement**, map tasks emit one per-group observation
//! per split, the runtime folds those observations into per-group
//! accumulators (count / sum / sum-of-squares — see DESIGN.md §15), and a
//! CLT-based probe decides after every completed round whether the
//! configured relative-error bound already holds for *every* group and
//! aggregate at the requested confidence.
//!
//! An aggregate job states what the runtime needs in one typed
//! [`AggPlan`] on its `JobSpec`: the split total, and under a bound the
//! [`ErrorBound`] and the estimated functions. The query compiler builds
//! it from the parsed query; `JobSpecBuilder::try_build` and
//! `MrRuntime::try_submit` check it.
//!
//! Everything here is pure arithmetic over deterministic inputs: the fold
//! visits splits in ascending task-id order, so estimates are
//! byte-identical across data-plane thread counts, across warm (memoized)
//! and cold runs, and under fault-induced re-execution.

use std::collections::BTreeMap;

use incmr_simkit::SimTime;

use crate::exec::Key;
use crate::job::JobId;
use crate::shuffle::MapOutput;
use incmr_data::{Record, Value};

/// Splits a probe must see before it may declare the bound met: variance
/// estimates over fewer clusters are too noisy to trust (a lucky first
/// split would otherwise stop the job immediately).
pub const MIN_PROBE_SPLITS: u32 = 4;

/// Default growth-round budget when a session sets no `mapred.agg.rounds`.
pub const DEFAULT_AGG_ROUNDS: u64 = 16;

/// An estimable aggregate function, as listed in [`AggPlan::funcs`].
///
/// This deliberately mirrors the estimable subset of the HiveQL
/// `AggFunc` — `MIN`/`MAX` have no CLT error bound and are rejected by
/// the compiler before a job is ever built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// `COUNT(*)` / `COUNT(col)` — estimated like a SUM of ones.
    Count,
    /// `SUM(col)` — expansion estimator `T̂ = (M/m)·ΣY_i`.
    Sum,
    /// `AVG(col)` — ratio estimator `R̂ = ΣY_i / Σn_i`.
    Avg,
}

// ---------------------------------------------------------------------------
// Per-split observations and their wire encoding
// ---------------------------------------------------------------------------

/// One map task's observation for one group: how many predicate-matching
/// rows of the group the split held (`n`) and the split-local total of
/// each aggregate's argument (`sums[j]`; `COUNT`'s total is `n` itself).
#[derive(Debug, Clone, PartialEq)]
pub struct SplitAggPart {
    /// The group key (the rendered `GROUP BY` value).
    pub group: Key,
    /// Matching rows of this group in this split.
    pub n: u64,
    /// Per-aggregate split totals, aligned with [`AggPlan::funcs`].
    pub sums: Vec<f64>,
}

/// Encode one group observation as the map-output [`Record`] the
/// aggregate mapper emits (`[Int n, Float acc_0, …, Float acc_{k-1}]`).
/// Each accumulator is the split total of its aggregate's argument, or
/// for an exact plan's `MIN`/`MAX` the split's minimum or maximum.
pub fn encode_group_part(n: u64, sums: &[f64]) -> Record {
    let mut values = Vec::with_capacity(1 + sums.len());
    values.push(Value::Int(n as i64));
    values.extend(sums.iter().map(|&s| Value::Float(s)));
    Record::new(values)
}

/// Decode a map-output record produced by [`encode_group_part`]. Returns
/// `None` when the record does not carry `1 + n_aggs` fields of the
/// expected types (a foreign record — the caller skips it).
pub fn decode_group_part(group: &Key, record: &Record, n_aggs: usize) -> Option<SplitAggPart> {
    if record.arity() != 1 + n_aggs {
        return None;
    }
    let Value::Int(n) = record.get(0) else {
        return None;
    };
    let mut sums = Vec::with_capacity(n_aggs);
    for j in 0..n_aggs {
        let Value::Float(s) = record.get(1 + j) else {
            return None;
        };
        sums.push(*s);
    }
    Some(SplitAggPart {
        group: Key::clone(group),
        n: *n as u64,
        sums,
    })
}

// ---------------------------------------------------------------------------
// Accumulators (the per-group plane DESIGN.md §15 documents)
// ---------------------------------------------------------------------------

/// Per-group accumulator over the splits folded so far: the five running
/// moments the CLT probe needs. A split where the group is absent is a
/// *zero observation* — it contributes nothing to any sum, so folding
/// only the present entries while counting every folded split (`m` in
/// [`evaluate_bound`]) is exact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupAccum {
    /// Σ n_i — matching rows (cluster sizes).
    pub c1: f64,
    /// Σ n_i² — for the ratio-estimator variance.
    pub c2: f64,
    /// Σ y_ij per aggregate — split totals.
    pub s1: Vec<f64>,
    /// Σ y_ij² per aggregate — split-total sums of squares.
    pub s2: Vec<f64>,
    /// Σ n_i·y_ij per aggregate — the cross moment.
    pub xy: Vec<f64>,
    /// Splits in which the group actually appeared (diagnostics only).
    pub present: u32,
}

impl GroupAccum {
    fn sized(n_aggs: usize) -> GroupAccum {
        GroupAccum {
            s1: vec![0.0; n_aggs],
            s2: vec![0.0; n_aggs],
            xy: vec![0.0; n_aggs],
            ..GroupAccum::default()
        }
    }

    fn absorb(&mut self, part: &SplitAggPart) {
        let n = part.n as f64;
        self.c1 += n;
        self.c2 += n * n;
        for (j, &y) in part.sums.iter().enumerate() {
            self.s1[j] += y;
            self.s2[j] += y * y;
            self.xy[j] += n * y;
        }
        self.present += 1;
    }
}

/// Fold per-split observations into per-group accumulators.
///
/// The outer `BTreeMap` is keyed by task id, so iteration is ascending —
/// the floating-point accumulation order is a pure function of *which*
/// splits completed, never of when or where their attempts ran.
pub fn fold_parts(
    parts: &BTreeMap<u32, Vec<SplitAggPart>>,
    n_aggs: usize,
) -> BTreeMap<Key, GroupAccum> {
    let mut accums: BTreeMap<Key, GroupAccum> = BTreeMap::new();
    for split_parts in parts.values() {
        for part in split_parts {
            accums
                .entry(Key::clone(&part.group))
                .or_insert_with(|| GroupAccum::sized(n_aggs))
                .absorb(part);
        }
    }
    accums
}

// ---------------------------------------------------------------------------
// The CLT probe
// ---------------------------------------------------------------------------

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9 — far below anything the stopping rule can
/// resolve). `p` must lie strictly inside (0, 1).
pub fn z_quantile(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -z_quantile(1.0 - p)
    }
}

/// The result of one stopping-rule evaluation over the folded accumulators.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundEval {
    /// True when every group's every aggregate meets the relative bound.
    pub bound_met: bool,
    /// The worst relative half-width `z·SE/|estimate|` across all groups
    /// and aggregates (0 when no data yet gives a zero SE everywhere;
    /// `f64::INFINITY` when an estimate is 0 with nonzero SE).
    pub worst_rel: f64,
    /// Additional splits projected to bring the worst group under the
    /// bound (`0` once met; at least 1 otherwise).
    pub suggested_splits: u64,
    /// Distinct groups observed so far.
    pub groups: u32,
}

/// Evaluate the stopping rule: with `m` of `total` splits folded into
/// `accums`, does `z(confidence)·SE ≤ error·|estimate|` hold for every
/// group and aggregate?
///
/// Estimators (cluster sampling without replacement, DESIGN.md §15):
/// * `SUM`/`COUNT`: expansion `T̂ = (M/m)·S1`; `SE = M·√(s²_y/m)·√(1−m/M)`
///   with `s²_y = (S2 − S1²/m)/(m−1)`.
/// * `AVG`: ratio `R̂ = S1/C1`; residual variance
///   `s²_d = (S2 − 2R̂·XY + R̂²·C2)/(m−1)`, `SE = √(s²_d/m)·√(1−m/M)/x̄`
///   with `x̄ = C1/m`.
///
/// The finite-population correction `√(1−m/M)` makes a full scan (`m=M`)
/// meet any bound exactly (SE = 0), so the rule degrades gracefully to
/// the exact answer when sampling cannot help.
pub fn evaluate_bound(
    accums: &BTreeMap<Key, GroupAccum>,
    m: u32,
    total: u32,
    funcs: &[AggKind],
    error: f64,
    confidence: f64,
) -> BoundEval {
    let groups = accums.len() as u32;
    let exhausted = m >= total;
    if m < MIN_PROBE_SPLITS.min(total.max(1)) || accums.is_empty() {
        return BoundEval {
            bound_met: exhausted && !accums.is_empty(),
            worst_rel: if exhausted { 0.0 } else { f64::INFINITY },
            suggested_splits: u64::from(MIN_PROBE_SPLITS.saturating_sub(m)).max(1),
            groups,
        };
    }
    let z = z_quantile((1.0 + confidence) / 2.0);
    let mf = m as f64;
    let total_f = total as f64;
    let fpc = (1.0 - mf / total_f).max(0.0);
    let mut worst_rel: f64 = 0.0;
    for acc in accums.values() {
        for (j, &func) in funcs.iter().enumerate() {
            let rel = match func {
                AggKind::Sum | AggKind::Count => {
                    let s1 = acc.s1[j];
                    let var = ((acc.s2[j] - s1 * s1 / mf) / (mf - 1.0)).max(0.0);
                    let se = total_f * (var / mf * fpc).sqrt();
                    let estimate = (total_f / mf) * s1;
                    rel_half_width(z * se, estimate)
                }
                AggKind::Avg => {
                    if acc.c1 <= 0.0 {
                        // No matching rows yet: the group exists in
                        // `accums` only via other aggregates; treat as
                        // unresolved.
                        f64::INFINITY
                    } else {
                        let r = acc.s1[j] / acc.c1;
                        let var = ((acc.s2[j] - 2.0 * r * acc.xy[j] + r * r * acc.c2) / (mf - 1.0))
                            .max(0.0);
                        let xbar = acc.c1 / mf;
                        let se = (var / mf * fpc).sqrt() / xbar;
                        rel_half_width(z * se, r)
                    }
                }
            };
            if rel > worst_rel {
                worst_rel = rel;
            }
        }
    }
    let bound_met = worst_rel <= error;
    let suggested_splits = if bound_met {
        0
    } else if worst_rel.is_finite() {
        // Ignoring the FPC, SE ∝ 1/√m, so m' ≈ m·(rel/e)² splits bring the
        // worst aggregate under the bound.
        let needed = (mf * (worst_rel / error) * (worst_rel / error)).ceil();
        let needed = if needed.is_finite() {
            (needed as u64).min(total as u64)
        } else {
            total as u64
        };
        needed.saturating_sub(m as u64).max(1)
    } else {
        // An unresolved estimate (0 with spread, or an AVG group with no
        // rows): grow by another round and re-probe.
        u64::from(MIN_PROBE_SPLITS)
    };
    BoundEval {
        bound_met,
        worst_rel,
        suggested_splits,
        groups,
    }
}

fn rel_half_width(half: f64, estimate: f64) -> f64 {
    if half == 0.0 {
        0.0
    } else if estimate == 0.0 {
        f64::INFINITY
    } else {
        half / estimate.abs()
    }
}

/// Clamp a relative half-width into the parts-per-million integer carried
/// by `ErrorBoundProbe` trace events (keeps `TraceKind: Eq`).
pub fn rel_to_ppm(rel: f64) -> u64 {
    if !rel.is_finite() {
        return u64::MAX;
    }
    (rel * 1e6).round().min(9.0e18) as u64
}

// ---------------------------------------------------------------------------
// Job-level plumbing: the plan, probes, reports
// ---------------------------------------------------------------------------

/// A `WITH ERROR e CONFIDENCE c` bound: every group's every aggregate is
/// within relative error `error` with probability at least `confidence`.
/// Both lie strictly inside (0, 1); the SQL parser and the job checks
/// reject anything else.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBound {
    /// Maximum relative error, e.g. `0.05`.
    pub error: f64,
    /// Confidence level, e.g. `0.95` (the default when the clause omits
    /// `CONFIDENCE`).
    pub confidence: f64,
}

impl ErrorBound {
    /// Confidence used when the clause names only the error.
    pub const DEFAULT_CONFIDENCE: f64 = 0.95;
}

/// What the runtime needs to know about an aggregate job. Every
/// aggregate plan carries the split total, so its result reports an
/// [`AggReport`]; a plan with a bound also makes the job *estimating*:
/// the runtime folds per-group accumulators from map output and probes
/// the stopping rule before every driver evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct AggPlan {
    /// Candidate input size `M`: the table's split count, which the
    /// expansion estimator scales against. Nonzero.
    pub total_splits: u32,
    /// The `WITH ERROR` bound; `None` for an exact aggregate.
    pub bound: Option<ErrorBound>,
    /// The estimated functions, in projection order. Read only under a
    /// bound, where it must not be empty.
    pub funcs: Vec<AggKind>,
}

/// One estimator probe, as handed to the growth driver through
/// [`EvalContext::with_agg`](crate::job::EvalContext::with_agg): the
/// runtime evaluates the stopping rule over its folded accumulators just
/// before each driver consultation, so the estimating Input Provider sees
/// a fresh verdict every round.
#[derive(Debug, Clone, PartialEq)]
pub struct AggProbe {
    /// The job probed.
    pub job: JobId,
    /// Splits folded into the estimate (`m`).
    pub completed: u32,
    /// The candidate input size (`M`).
    pub total: u32,
    /// Distinct groups observed.
    pub groups: u32,
    /// True when the configured bound holds for every group/aggregate.
    pub bound_met: bool,
    /// Worst relative half-width across groups/aggregates.
    pub worst_rel: f64,
    /// Additional splits the probe projects are needed (0 once met).
    pub suggested_splits: u64,
    /// When the probe ran (simulated time).
    pub at: SimTime,
}

/// How a *completed* error-bounded aggregate job stopped, mirroring
/// `SampleOutcome` for the sampling path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOutcome {
    /// The error bound was met before the input ran out: early result.
    BoundMet,
    /// The growth-round budget (or the input pool) ran out first; the
    /// estimate stands but its achieved bound is wider than requested.
    BudgetExhausted,
    /// Every split was processed — the answer is exact, not an estimate.
    Exact,
}

impl std::fmt::Display for AggOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggOutcome::BoundMet => write!(f, "bound-met"),
            AggOutcome::BudgetExhausted => write!(f, "budget-exhausted"),
            AggOutcome::Exact => write!(f, "exact"),
        }
    }
}

/// The final estimator verdict attached to a completed aggregate job's
/// [`JobResult`](crate::job::JobResult).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggReport {
    /// How the job stopped.
    pub outcome: AggOutcome,
    /// Splits actually processed (`m`).
    pub completed: u32,
    /// Candidate input size (`M`).
    pub total: u32,
    /// Distinct groups in the final fold.
    pub groups: u32,
    /// Achieved worst relative half-width at completion (0 when exact).
    pub worst_rel: f64,
}

impl AggReport {
    /// The expansion factor `M/m` that scales raw sampled `SUM`/`COUNT`
    /// totals up to full-population estimates (1 for an exact run).
    pub fn scale(&self) -> f64 {
        if self.completed == 0 {
            1.0
        } else {
            self.total as f64 / self.completed as f64
        }
    }
}

/// One estimating job's estimator state inside the runtime: its plan's
/// bound, functions and split total, the group observations of every
/// completed split, and when the last probe ran. The observations are
/// keyed by map task id, so every fold is a pure function of the
/// completed task set — identical across thread counts and fault
/// schedules.
pub(crate) struct Estimator {
    bound: ErrorBound,
    funcs: Vec<AggKind>,
    total_splits: u32,
    parts: BTreeMap<u32, Vec<SplitAggPart>>,
    last_probe_at: Option<SimTime>,
}

impl Estimator {
    /// The estimator of a plan with a bound; `None` for an exact plan.
    pub(crate) fn new(plan: &AggPlan) -> Option<Estimator> {
        Some(Estimator {
            bound: plan.bound?,
            funcs: plan.funcs.clone(),
            total_splits: plan.total_splits,
            parts: BTreeMap::new(),
            last_probe_at: None,
        })
    }

    /// Lift one completed map task's group parts out of its output. An
    /// empty entry still counts the split as a zero observation for every
    /// group, so a part with n = 0 (the whole-table partial of a split
    /// with no match) is dropped: it is the same zero observation.
    pub(crate) fn absorb(&mut self, task: u32, pairs: &MapOutput) {
        let n_aggs = self.funcs.len();
        let parts = pairs
            .iter_pairs()
            .filter_map(|(k, r)| decode_group_part(k, r, n_aggs))
            .filter(|p| p.n > 0)
            .collect();
        self.parts.insert(task, parts);
    }

    /// The stopping rule over every split absorbed so far.
    fn evaluate(&self) -> BoundEval {
        evaluate_bound(
            &fold_parts(&self.parts, self.funcs.len()),
            self.parts.len() as u32,
            self.total_splits,
            &self.funcs,
            self.bound.error,
            self.bound.confidence,
        )
    }

    /// Probe the stopping rule at `now`, for the growth driver. Also
    /// returns the milliseconds since the previous probe (the first
    /// counts from `submitted`).
    pub(crate) fn probe(
        &mut self,
        job: JobId,
        now: SimTime,
        submitted: SimTime,
    ) -> (AggProbe, u64) {
        let eval = self.evaluate();
        let gap = (now - self.last_probe_at.unwrap_or(submitted)).as_millis();
        self.last_probe_at = Some(now);
        let probe = AggProbe {
            job,
            completed: self.parts.len() as u32,
            total: self.total_splits,
            groups: eval.groups,
            bound_met: eval.bound_met,
            worst_rel: eval.worst_rel,
            suggested_splits: eval.suggested_splits,
            at: now,
        };
        (probe, gap)
    }

    /// The completed job's verdict: exact once every split ran, else
    /// whether the bound was met before the budget ran out.
    pub(crate) fn report(&self) -> AggReport {
        let eval = self.evaluate();
        let completed = self.parts.len() as u32;
        let outcome = if completed >= self.total_splits {
            AggOutcome::Exact
        } else if eval.bound_met {
            AggOutcome::BoundMet
        } else {
            AggOutcome::BudgetExhausted
        };
        AggReport {
            outcome,
            completed,
            total: self.total_splits,
            groups: eval.groups,
            worst_rel: eval.worst_rel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(group: &str, n: u64, sums: &[f64]) -> SplitAggPart {
        SplitAggPart {
            group: Key::from(group),
            n,
            sums: sums.to_vec(),
        }
    }

    #[test]
    fn group_part_record_round_trips() {
        let rec = encode_group_part(7, &[1.5, -2.0]);
        let back = decode_group_part(&Key::from("g"), &rec, 2).unwrap();
        assert_eq!(back.n, 7);
        assert_eq!(back.sums, vec![1.5, -2.0]);
        assert!(decode_group_part(&Key::from("g"), &rec, 3).is_none());
    }

    #[test]
    fn fold_is_order_invariant_across_task_ids() {
        let mut a = BTreeMap::new();
        a.insert(0, vec![part("x", 2, &[4.0])]);
        a.insert(1, vec![part("x", 3, &[9.0]), part("y", 1, &[1.0])]);
        let mut b = BTreeMap::new();
        b.insert(1, vec![part("x", 3, &[9.0]), part("y", 1, &[1.0])]);
        b.insert(0, vec![part("x", 2, &[4.0])]);
        assert_eq!(fold_parts(&a, 1), fold_parts(&b, 1));
        let acc = &fold_parts(&a, 1)[&Key::from("x")];
        assert_eq!(acc.c1, 5.0);
        assert_eq!(acc.c2, 13.0);
        assert_eq!(acc.s1, vec![13.0]);
        assert_eq!(acc.s2, vec![97.0]);
        assert_eq!(acc.xy, vec![35.0]);
        assert_eq!(acc.present, 2);
    }

    #[test]
    fn z_quantile_matches_known_values() {
        assert!((z_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((z_quantile(0.95) - 1.644854).abs() < 1e-4);
        assert!((z_quantile(0.5)).abs() < 1e-9);
        assert!((z_quantile(0.025) + 1.959964).abs() < 1e-4);
        assert!((z_quantile(0.005) + 2.575829).abs() < 1e-4);
    }

    #[test]
    fn identical_splits_meet_any_bound() {
        // Every split contributes the same total → zero variance → SE 0.
        let mut parts = BTreeMap::new();
        for t in 0..6 {
            parts.insert(t, vec![part("g", 10, &[100.0])]);
        }
        let accums = fold_parts(&parts, 1);
        let eval = evaluate_bound(&accums, 6, 100, &[AggKind::Sum], 0.01, 0.99);
        assert!(eval.bound_met);
        assert_eq!(eval.worst_rel, 0.0);
        assert_eq!(eval.suggested_splits, 0);
        assert_eq!(eval.groups, 1);
    }

    #[test]
    fn too_few_splits_never_meet_the_bound() {
        let mut parts = BTreeMap::new();
        parts.insert(0, vec![part("g", 10, &[100.0])]);
        let accums = fold_parts(&parts, 1);
        let eval = evaluate_bound(&accums, 1, 100, &[AggKind::Sum], 0.5, 0.5);
        assert!(!eval.bound_met, "one split is never enough");
        assert!(eval.suggested_splits >= 1);
    }

    #[test]
    fn full_scan_meets_any_bound_via_fpc() {
        // High variance, but m == M → FPC zeroes the SE.
        let mut parts = BTreeMap::new();
        for t in 0..8u32 {
            parts.insert(t, vec![part("g", 1, &[f64::from(t) * 1000.0])]);
        }
        let accums = fold_parts(&parts, 1);
        let eval = evaluate_bound(&accums, 8, 8, &[AggKind::Sum], 0.001, 0.999);
        assert!(eval.bound_met);
        assert_eq!(eval.worst_rel, 0.0);
    }

    #[test]
    fn variance_widens_the_bound_and_suggests_growth() {
        let mut parts = BTreeMap::new();
        for t in 0..5u32 {
            // Wildly varying split totals.
            parts.insert(
                t,
                vec![part("g", 10, &[if t % 2 == 0 { 10.0 } else { 1000.0 }])],
            );
        }
        let accums = fold_parts(&parts, 1);
        let eval = evaluate_bound(&accums, 5, 1000, &[AggKind::Sum], 0.05, 0.95);
        assert!(!eval.bound_met);
        assert!(eval.worst_rel > 0.05);
        assert!(eval.suggested_splits >= 1);
    }

    #[test]
    fn avg_ratio_estimator_is_tight_when_ratio_is_stable() {
        // Split sizes differ but per-row mean is constant → residuals 0.
        let mut parts = BTreeMap::new();
        for (t, n) in [(0u32, 5u64), (1, 50), (2, 17), (3, 8)] {
            parts.insert(t, vec![part("g", n, &[n as f64 * 3.5])]);
        }
        let accums = fold_parts(&parts, 1);
        let eval = evaluate_bound(&accums, 4, 1000, &[AggKind::Avg], 0.01, 0.99);
        assert!(eval.bound_met, "constant ratio has zero residual variance");
        let acc = &accums[&Key::from("g")];
        assert!((acc.s1[0] / acc.c1 - 3.5).abs() < 1e-12);
    }

    #[test]
    fn zero_estimate_with_spread_is_unresolved() {
        let mut parts = BTreeMap::new();
        parts.insert(0, vec![part("g", 1, &[5.0])]);
        parts.insert(1, vec![part("g", 1, &[-5.0])]);
        parts.insert(2, vec![part("g", 1, &[5.0])]);
        parts.insert(3, vec![part("g", 1, &[-5.0])]);
        let accums = fold_parts(&parts, 1);
        let eval = evaluate_bound(&accums, 4, 100, &[AggKind::Sum], 0.1, 0.95);
        assert!(!eval.bound_met);
        assert_eq!(eval.worst_rel, f64::INFINITY);
        assert_eq!(rel_to_ppm(eval.worst_rel), u64::MAX);
    }

    #[test]
    fn report_scale_is_m_over_m() {
        let report = AggReport {
            outcome: AggOutcome::BoundMet,
            completed: 10,
            total: 40,
            groups: 3,
            worst_rel: 0.02,
        };
        assert_eq!(report.scale(), 4.0);
        assert_eq!(report.outcome.to_string(), "bound-met");
        assert_eq!(AggOutcome::Exact.to_string(), "exact");
        assert_eq!(AggOutcome::BudgetExhausted.to_string(), "budget-exhausted");
    }
}
