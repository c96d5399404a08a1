//! Growth policies (paper Section III-B, Table I).
//!
//! A policy is three parameters:
//!
//! * **EvaluationInterval** — how often the Input Provider is consulted
//!   (4 s in all the paper's experiments);
//! * **WorkThreshold** — the minimum *new* work (completed partitions, as a
//!   percent of the job's total input partitions) between consecutive
//!   provider invocations;
//! * **GrabLimit** — an upper bound on partitions added in one step,
//!   expressed over `TS` (total map slots) and `AS` (available map slots).
//!
//! Table I, as implemented (the paper's `(AS < 0)` guard is a typo for
//! `AS > 0` — the prose reads "one-half of the available map slots (AS) or
//! one-fifth of the total map slots (TS)"):
//!
//! | Policy | Work Threshold | Grab Limit |
//! |--------|----------------|------------|
//! | Hadoop | –              | ∞ |
//! | HA     | 0%             | `max(0.5*TS, AS)` |
//! | MA     | 5%             | `AS > 0 ? 0.5*AS : 0.2*TS` |
//! | LA     | 10%            | `AS > 0 ? 0.2*AS : 0.1*TS` |
//! | C      | 15%            | `0.1*AS` |

use std::fmt;

use incmr_simkit::SimDuration;

/// A grab-limit expression over cluster capacity (`TS`) and availability
/// (`AS`). Evaluated with `ceil`, so a positive expression never rounds
/// down to a zero grab.
#[derive(Debug, Clone, PartialEq)]
pub enum GrabLimit {
    /// No bound — the Hadoop policy.
    Infinity,
    /// A constant number of partitions.
    Const(f64),
    /// `frac * TS`.
    FracTotal(f64),
    /// `frac * AS`.
    FracAvailable(f64),
    /// `max(a, b)`.
    Max(Box<GrabLimit>, Box<GrabLimit>),
    /// `min(a, b)`.
    Min(Box<GrabLimit>, Box<GrabLimit>),
    /// `AS > 0 ? then : else` — the conditional form of MA and LA.
    IfAvailable(Box<GrabLimit>, Box<GrabLimit>),
}

impl GrabLimit {
    /// Evaluate to a concrete partition bound given `TS` and `AS`.
    pub fn evaluate(&self, total_slots: u32, available_slots: u32) -> u64 {
        let v = self.eval_f(total_slots as f64, available_slots as f64);
        if v.is_infinite() {
            u64::MAX
        } else {
            v.max(0.0).ceil() as u64
        }
    }

    fn eval_f(&self, ts: f64, avail: f64) -> f64 {
        match self {
            GrabLimit::Infinity => f64::INFINITY,
            GrabLimit::Const(c) => *c,
            GrabLimit::FracTotal(f) => f * ts,
            GrabLimit::FracAvailable(f) => f * avail,
            GrabLimit::Max(a, b) => a.eval_f(ts, avail).max(b.eval_f(ts, avail)),
            GrabLimit::Min(a, b) => a.eval_f(ts, avail).min(b.eval_f(ts, avail)),
            GrabLimit::IfAvailable(t, e) => {
                if avail > 0.0 {
                    t.eval_f(ts, avail)
                } else {
                    e.eval_f(ts, avail)
                }
            }
        }
    }
}

impl fmt::Display for GrabLimit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrabLimit::Infinity => write!(f, "Infinity"),
            GrabLimit::Const(c) => write!(f, "{c}"),
            GrabLimit::FracTotal(x) if *x == 1.0 => write!(f, "TS"),
            GrabLimit::FracTotal(x) => write!(f, "{x}*TS"),
            GrabLimit::FracAvailable(x) if *x == 1.0 => write!(f, "AS"),
            GrabLimit::FracAvailable(x) => write!(f, "{x}*AS"),
            GrabLimit::Max(a, b) => write!(f, "max({a}, {b})"),
            GrabLimit::Min(a, b) => write!(f, "min({a}, {b})"),
            GrabLimit::IfAvailable(t, e) => write!(f, "(AS > 0) ? {t} : {e}"),
        }
    }
}

/// A named growth policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    /// Name (chosen with `SET dynamic.job.policy`).
    pub name: String,
    /// Time between Input Provider evaluations.
    pub evaluation_interval: SimDuration,
    /// Minimum new completed partitions between provider invocations, as a
    /// percent of the job's total input partitions.
    pub work_threshold_pct: f64,
    /// Bound on partitions added per step.
    pub grab_limit: GrabLimit,
}

/// The evaluation interval the paper fixes for all non-Hadoop policies.
pub const PAPER_EVALUATION_INTERVAL: SimDuration = SimDuration::from_secs(4);

impl Policy {
    /// Hadoop's default behaviour modelled as a policy: unbounded grab, so
    /// all input is added in a single step.
    pub fn hadoop() -> Policy {
        Policy {
            name: "Hadoop".into(),
            evaluation_interval: PAPER_EVALUATION_INTERVAL,
            work_threshold_pct: 0.0,
            grab_limit: GrabLimit::Infinity,
        }
    }

    /// Highly Aggressive: WT 0%, grab `max(0.5*TS, AS)`.
    pub fn ha() -> Policy {
        Policy {
            name: "HA".into(),
            evaluation_interval: PAPER_EVALUATION_INTERVAL,
            work_threshold_pct: 0.0,
            grab_limit: GrabLimit::Max(
                Box::new(GrabLimit::FracTotal(0.5)),
                Box::new(GrabLimit::FracAvailable(1.0)),
            ),
        }
    }

    /// Mid Aggressive: WT 5%, grab `AS > 0 ? 0.5*AS : 0.2*TS`.
    pub fn ma() -> Policy {
        Policy {
            name: "MA".into(),
            evaluation_interval: PAPER_EVALUATION_INTERVAL,
            work_threshold_pct: 5.0,
            grab_limit: GrabLimit::IfAvailable(
                Box::new(GrabLimit::FracAvailable(0.5)),
                Box::new(GrabLimit::FracTotal(0.2)),
            ),
        }
    }

    /// Less Aggressive: WT 10%, grab `AS > 0 ? 0.2*AS : 0.1*TS`.
    pub fn la() -> Policy {
        Policy {
            name: "LA".into(),
            evaluation_interval: PAPER_EVALUATION_INTERVAL,
            work_threshold_pct: 10.0,
            grab_limit: GrabLimit::IfAvailable(
                Box::new(GrabLimit::FracAvailable(0.2)),
                Box::new(GrabLimit::FracTotal(0.1)),
            ),
        }
    }

    /// Conservative: WT 15%, grab `0.1*AS`.
    pub fn conservative() -> Policy {
        Policy {
            name: "C".into(),
            evaluation_interval: PAPER_EVALUATION_INTERVAL,
            work_threshold_pct: 15.0,
            grab_limit: GrabLimit::FracAvailable(0.1),
        }
    }

    /// Look up a built-in policy by its Table I name.
    pub fn builtin(name: &str) -> Option<Policy> {
        match name {
            "Hadoop" => Some(Policy::hadoop()),
            "HA" => Some(Policy::ha()),
            "MA" => Some(Policy::ma()),
            "LA" => Some(Policy::la()),
            "C" => Some(Policy::conservative()),
            _ => None,
        }
    }

    /// All of Table I, in the paper's order.
    pub fn table1() -> Vec<Policy> {
        vec![
            Policy::hadoop(),
            Policy::ha(),
            Policy::ma(),
            Policy::la(),
            Policy::conservative(),
        ]
    }

    /// The work threshold expressed in partitions for a job of
    /// `total_partitions` total input partitions (ceil, so any nonzero
    /// percentage demands at least one completed partition).
    pub fn work_threshold_splits(&self, total_partitions: u32) -> u32 {
        (self.work_threshold_pct / 100.0 * total_partitions as f64).ceil() as u32
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: WT={}% grab={} eval={}",
            self.name, self.work_threshold_pct, self.grab_limit, self.evaluation_interval
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_names_and_order() {
        let names: Vec<String> = Policy::table1().into_iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["Hadoop", "HA", "MA", "LA", "C"]);
    }

    #[test]
    fn builtin_lookup() {
        assert_eq!(Policy::builtin("LA"), Some(Policy::la()));
        assert!(Policy::builtin("nope").is_none());
    }

    #[test]
    fn hadoop_grab_is_unbounded() {
        assert_eq!(Policy::hadoop().grab_limit.evaluate(40, 0), u64::MAX);
    }

    #[test]
    fn ha_on_idle_cluster_grabs_all_slots() {
        // max(0.5*40, 40) = 40.
        assert_eq!(Policy::ha().grab_limit.evaluate(40, 40), 40);
        // Under load AS=0: max(20, 0) = 20 — HA keeps demanding.
        assert_eq!(Policy::ha().grab_limit.evaluate(40, 0), 20);
    }

    #[test]
    fn ma_la_use_available_else_total() {
        assert_eq!(Policy::ma().grab_limit.evaluate(40, 10), 5); // 0.5*10
        assert_eq!(Policy::ma().grab_limit.evaluate(40, 0), 8); // 0.2*40
        assert_eq!(Policy::la().grab_limit.evaluate(40, 10), 2); // 0.2*10
        assert_eq!(Policy::la().grab_limit.evaluate(40, 0), 4); // 0.1*40
    }

    #[test]
    fn conservative_scales_with_available_only() {
        assert_eq!(Policy::conservative().grab_limit.evaluate(40, 40), 4);
        assert_eq!(Policy::conservative().grab_limit.evaluate(40, 0), 0);
        // ceil: a sliver of availability still grants one partition.
        assert_eq!(Policy::conservative().grab_limit.evaluate(40, 1), 1);
    }

    #[test]
    fn aggressiveness_ordering_on_idle_cluster() {
        // On an idle 40-slot cluster, grab limits order Hadoop ≥ HA ≥ MA ≥ LA ≥ C.
        let grabs: Vec<u64> = Policy::table1()
            .iter()
            .map(|p| p.grab_limit.evaluate(40, 40))
            .collect();
        assert!(
            grabs.windows(2).all(|w| w[0] >= w[1]),
            "grabs not monotone: {grabs:?}"
        );
    }

    #[test]
    fn work_threshold_in_splits() {
        assert_eq!(Policy::ma().work_threshold_splits(40), 2); // 5% of 40
        assert_eq!(Policy::la().work_threshold_splits(40), 4);
        assert_eq!(Policy::conservative().work_threshold_splits(40), 6);
        assert_eq!(Policy::ha().work_threshold_splits(40), 0);
        // ceil: 5% of 10 partitions is 0.5 → 1.
        assert_eq!(Policy::ma().work_threshold_splits(10), 1);
    }

    #[test]
    fn grab_limit_expression_combinators() {
        let e = GrabLimit::Min(
            Box::new(GrabLimit::Const(10.0)),
            Box::new(GrabLimit::FracTotal(0.5)),
        );
        assert_eq!(e.evaluate(40, 0), 10);
        assert_eq!(e.evaluate(10, 0), 5);
        assert_eq!(GrabLimit::Const(2.5).evaluate(0, 0), 3, "ceil applies");
    }

    #[test]
    fn display_round_trips_names() {
        assert_eq!(
            Policy::ma().grab_limit.to_string(),
            "(AS > 0) ? 0.5*AS : 0.2*TS"
        );
        assert_eq!(Policy::hadoop().grab_limit.to_string(), "Infinity");
        assert!(Policy::la().to_string().contains("WT=10%"));
    }
}
