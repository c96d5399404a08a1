//! `JobConf` — the primary interface for describing a job, mirroring
//! Hadoop's `JobConf` (paper Section IV).
//!
//! A `JobConf` is a string key→value map with typed accessors. The paper
//! extends Hadoop's parameter set with three keys, re-exported here as
//! constants: [`keys::DYNAMIC_JOB`], [`keys::DYNAMIC_JOB_POLICY`], and
//! [`keys::DYNAMIC_INPUT_PROVIDER`].
//!
//! An aggregate job's facts (split total, error bound, function list)
//! are not conf keys: they travel typed, as the
//! [`AggPlan`](crate::approx::AggPlan) on the job's `JobSpec`.

use std::collections::BTreeMap;
use std::fmt;

/// Well-known configuration keys.
pub mod keys {
    /// Human-readable job name.
    pub const JOB_NAME: &str = "mapred.job.name";
    /// Boolean flag, set true for dynamic jobs (paper Section IV).
    pub const DYNAMIC_JOB: &str = "dynamic.job";
    /// Name of the policy controlling a dynamic job's growth.
    pub const DYNAMIC_JOB_POLICY: &str = "dynamic.job.policy";
    /// Class name of the Input Provider implementation.
    pub const DYNAMIC_INPUT_PROVIDER: &str = "dynamic.input.provider";
    /// Required sample size `k` for sampling jobs.
    pub const SAMPLING_K: &str = "sampling.size.k";
    /// Number of reduce tasks (the sampling job uses 1).
    pub const NUM_REDUCE_TASKS: &str = "mapred.reduce.tasks";
    /// Type name of the map-side combiner, when one is set (mirrors
    /// Hadoop's `mapred.combiner.class`; informational — the actual
    /// combiner travels in the `JobSpec`).
    pub const COMBINER_CLASS: &str = "mapred.combiner.class";
    /// Guard-rail plane: extra provider consultations a job may spend on
    /// recoverable Input Provider failures before the job is failed
    /// (default 0 — fail on the first fault).
    pub const PROVIDER_RETRY_BUDGET: &str = "dynamic.provider.retry.budget";
    /// Guard-rail plane: consecutive unproductive driver evaluations (no
    /// new splits, nothing running or pending) before the job is declared
    /// wedged; `0` disables the watchdog.
    pub const MAX_IDLE_EVALUATIONS: &str = "dynamic.job.max.idle.evaluations";
    /// Guard-rail plane: wall-clock deadline for the whole job, in
    /// simulated milliseconds from submission; absent means no deadline.
    pub const JOB_DEADLINE_MS: &str = "mapred.job.deadline.ms";
    /// Guard-rail plane: boolean — on deadline expiry, finish with the
    /// output gathered so far instead of failing the job.
    pub const ALLOW_PARTIAL: &str = "mapred.job.allow.partial";
    /// Memoization plane: stable identity of the job's *computation*
    /// (mapper, predicate, projection, `k` — not the submission). Jobs
    /// sharing a signature share memoized per-split map output. Absent,
    /// the runtime derives one by hashing the full conf, so distinct
    /// queries never collide by default.
    pub const JOB_SIGNATURE: &str = "mapred.job.signature";
    /// Memoization plane: boolean — run this dynamic job as a standing
    /// query. Instead of declaring end-of-input when the provider's pool
    /// drains, the job parks and is re-awoken when new blocks arrive
    /// (`Namespace` evolve through [`MrRuntime::evolve`]).
    ///
    /// [`MrRuntime::evolve`]: crate::MrRuntime::evolve
    pub const CONTINUOUS: &str = "dynamic.job.continuous";
    /// Replication plane: target replica count for the job's input
    /// dataset (mirrors Hadoop's `dfs.replication`). Informational at
    /// job level — placement itself happens when the dataset is built
    /// (see `incmr_dfs`'s `ReplicatedPlacement`) — but a malformed or
    /// zero value is rejected at build/submit time.
    pub const DFS_REPLICATION: &str = "dfs.replication";
    /// Approximate-aggregation plane: the session `SET` key for the
    /// growth-round budget of error-bounded plans — how many times the
    /// estimating Input Provider may draw another batch of splits before
    /// it must stop with `BudgetExhausted`. Must be ≥ 1. The compiler
    /// hands the value to the provider; it never enters a job conf.
    pub const AGG_ROUNDS: &str = "mapred.agg.rounds";
}

/// A job's configuration: an ordered string map with typed accessors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobConf {
    entries: BTreeMap<String, String>,
}

/// Error returned when a typed accessor cannot parse a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfError {
    /// The key being read.
    pub key: String,
    /// The raw value that failed to parse.
    pub value: String,
    /// The type that was requested.
    pub wanted: &'static str,
}

impl fmt::Display for ConfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conf key {}={:?} is not a valid {}",
            self.key, self.value, self.wanted
        )
    }
}

impl std::error::Error for ConfError {}

impl JobConf {
    /// An empty configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a key (builder style).
    pub fn with(mut self, key: &str, value: impl fmt::Display) -> Self {
        self.set(key, value);
        self
    }

    /// Set a key.
    pub fn set(&mut self, key: &str, value: impl fmt::Display) {
        self.entries.insert(key.to_string(), value.to_string());
    }

    /// Raw string lookup.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    /// Boolean lookup; absent keys default to `false`, matching Hadoop's
    /// `getBoolean` semantics for flags like `dynamic.job`.
    pub fn get_bool(&self, key: &str) -> bool {
        self.get(key)
            .map(|v| v.eq_ignore_ascii_case("true"))
            .unwrap_or(false)
    }

    /// Integer lookup with a default for absent keys.
    pub fn get_u64_or(&self, key: &str, default: u64) -> Result<u64, ConfError> {
        self.parse_or(key, default, "u64")
    }

    /// 32-bit count lookup with a default for absent keys. A value wider
    /// than `u32` is an error, not a truncation.
    pub fn get_u32_or(&self, key: &str, default: u32) -> Result<u32, ConfError> {
        self.parse_or(key, default, "u32")
    }

    /// Float lookup with a default for absent keys.
    pub fn get_f64_or(&self, key: &str, default: f64) -> Result<f64, ConfError> {
        self.parse_or(key, default, "f64")
    }

    fn parse_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        wanted: &'static str,
    ) -> Result<T, ConfError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ConfError {
                key: key.to_string(),
                value: v.to_string(),
                wanted,
            }),
        }
    }

    /// Iterate entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of set keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no keys are set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for JobConf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{k}={v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let conf = JobConf::new()
            .with(keys::JOB_NAME, "sample")
            .with(keys::DYNAMIC_JOB, true)
            .with(keys::SAMPLING_K, 10_000);
        assert_eq!(conf.get(keys::JOB_NAME), Some("sample"));
        assert!(conf.get_bool(keys::DYNAMIC_JOB));
        assert_eq!(conf.get_u64_or(keys::SAMPLING_K, 0).unwrap(), 10_000);
        assert_eq!(conf.len(), 3);
        assert!(!conf.is_empty());
    }

    #[test]
    fn absent_keys_use_defaults() {
        let conf = JobConf::new();
        assert!(!conf.get_bool(keys::DYNAMIC_JOB));
        assert_eq!(conf.get_u64_or("x", 7).unwrap(), 7);
        assert_eq!(conf.get_f64_or("y", 0.5).unwrap(), 0.5);
        assert!(conf.is_empty());
    }

    #[test]
    fn bad_values_report_errors() {
        let conf = JobConf::new().with("n", "abc");
        let err = conf.get_u64_or("n", 0).unwrap_err();
        assert_eq!(err.key, "n");
        assert_eq!(err.wanted, "u64");
        assert!(err.to_string().contains("abc"));
        assert!(conf.get_f64_or("n", 0.0).is_err());
    }

    #[test]
    fn u32_counts_reject_wider_values() {
        let conf = JobConf::new()
            .with("max", u32::MAX)
            .with("wide", 1u64 << 32)
            .with("neg", -1);
        assert_eq!(conf.get_u32_or("max", 0).unwrap(), u32::MAX);
        assert_eq!(conf.get_u32_or("absent", 7).unwrap(), 7);
        for key in ["wide", "neg"] {
            let err = conf.get_u32_or(key, 0).unwrap_err();
            assert_eq!(err.key, key);
            assert_eq!(err.wanted, "u32");
        }
    }

    #[test]
    fn bool_parsing_is_case_insensitive_and_strict() {
        let conf = JobConf::new().with("a", "TRUE").with("b", "1");
        assert!(conf.get_bool("a"));
        assert!(!conf.get_bool("b"), "only the literal 'true' counts");
    }

    #[test]
    fn overwrite_replaces() {
        let mut conf = JobConf::new().with("k", "1");
        conf.set("k", "2");
        assert_eq!(conf.get("k"), Some("2"));
        assert_eq!(conf.len(), 1);
    }

    #[test]
    fn display_renders_sorted_lines() {
        let conf = JobConf::new().with("b", 2).with("a", 1);
        assert_eq!(conf.to_string(), "a=1\nb=2");
    }
}
