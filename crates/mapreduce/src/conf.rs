//! `JobConf` — the descriptive half of a job's configuration, mirroring
//! Hadoop's `JobConf` (paper Section IV).
//!
//! A `JobConf` is a string key→value map. The paper extends Hadoop's
//! parameter set with three keys, re-exported here as constants:
//! [`keys::DYNAMIC_JOB`], [`keys::DYNAMIC_JOB_POLICY`], and
//! [`keys::DYNAMIC_INPUT_PROVIDER`]. No runtime path reads an entry: the
//! conf names and describes a job, and its entries enter only the
//! fallback memo identity of a job without a signature.
//!
//! What the runtime acts on travels typed on the job's `JobSpec`: the
//! [`JobSettings`](crate::JobSettings) (reduce count, guard rails,
//! standing-query flag, memo signature, sample size) and, for an
//! aggregate job, the [`AggPlan`](crate::approx::AggPlan).

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
    /// Type name of the map-side combiner, when one is set (mirrors
    /// Hadoop's `mapred.combiner.class`; informational — the actual
    /// combiner travels in the `JobSpec`).
    pub const COMBINER_CLASS: &str = "mapred.combiner.class";
}

/// A job's descriptive configuration: an ordered string map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobConf {
    entries: BTreeMap<String, String>,
}

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
            .with(keys::DYNAMIC_JOB_POLICY, "LA");
        assert_eq!(conf.get(keys::JOB_NAME), Some("sample"));
        assert_eq!(conf.get(keys::DYNAMIC_JOB), Some("true"));
        assert_eq!(conf.get(keys::DYNAMIC_JOB_POLICY), Some("LA"));
        assert_eq!(conf.get(keys::DYNAMIC_INPUT_PROVIDER), None);
        assert_eq!(conf.len(), 3);
        assert!(!conf.is_empty());
        assert!(JobConf::new().is_empty());
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
