//! The memoization plane: per-split map-output caching keyed by
//! `(job signature, block, version)`, the machinery behind incremental
//! recomputation over evolving data (DESIGN.md §13).
//!
//! A [`MemoStore`] remembers, for each `(signature, block)` pair, the
//! [`MapTaskResult`] the data plane produced at a specific block version,
//! plus the node whose local disk notionally holds that map output. The
//! signature is the job's
//! [`JobSettings::signature`](crate::JobSettings::signature); a job
//! without one never touches the store. A re-submitted job with the same
//! signature probes the store per split:
//!
//! * **hit** — same version: the attempt keeps its full simulated schedule
//!   (slot, overhead, disk, CPU stages) but skips host recomputation and
//!   merges the cached output through the shuffle's idempotent
//!   `merge_task` path, so warm results stay byte-identical to cold ones;
//! * **stale** — the block was rewritten since caching: the entry is dead,
//!   the split recomputes, and the trace records `SplitDirty`;
//! * **miss** — never computed under this signature: plain execution.
//!
//! Invalidation is by node death: cached map output lives on the node
//! that produced it (Hadoop semantics — completed-map output dies with
//! the TaskTracker), so [`MemoStore::invalidate_node`] drops every entry
//! the dead node held and the next probe recomputes.

use std::collections::HashMap;

use incmr_dfs::{BlockId, NodeId};

use crate::parallel::MapTaskResult;

/// One cached map output: the result, the block version it was computed
/// at, and the node holding it.
#[derive(Debug, Clone)]
pub struct MemoEntry {
    /// The block version the mapper saw.
    pub version: u32,
    /// The node whose local disk holds the cached map output.
    pub node: NodeId,
    /// The complete map-task result (pairs, counters) to replay.
    pub result: MapTaskResult,
}

/// Outcome of probing the store for one split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoProbe {
    /// Cached at the probed version — reusable.
    Hit,
    /// Cached, but at an older version: the split is dirty.
    Stale,
    /// Never cached under this signature.
    Miss,
}

/// Map-output memo store, shared across jobs of one runtime.
#[derive(Debug, Clone, Default)]
pub struct MemoStore {
    entries: HashMap<(u64, BlockId), MemoEntry>,
}

impl MemoStore {
    /// An empty store.
    pub fn new() -> Self {
        MemoStore::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Classify a probe for `block` at `version` under `signature`.
    pub fn probe(&self, signature: u64, block: BlockId, version: u32) -> MemoProbe {
        match self.entries.get(&(signature, block)) {
            Some(e) if e.version == version => MemoProbe::Hit,
            Some(_) => MemoProbe::Stale,
            None => MemoProbe::Miss,
        }
    }

    /// The cached entry for `block` at exactly `version`, if any.
    pub fn get(&self, signature: u64, block: BlockId, version: u32) -> Option<&MemoEntry> {
        self.entries
            .get(&(signature, block))
            .filter(|e| e.version == version)
    }

    /// Cache (or refresh) the map output for `block` at `version`,
    /// held by `node`. A newer version replaces an older entry.
    pub fn insert(
        &mut self,
        signature: u64,
        block: BlockId,
        version: u32,
        node: NodeId,
        result: MapTaskResult,
    ) {
        self.entries.insert(
            (signature, block),
            MemoEntry {
                version,
                node,
                result,
            },
        );
    }

    /// Record that a cached entry was replayed by `node`: the replaying
    /// attempt's node now holds a live copy of the map output, so
    /// subsequent invalidation tracks the most recent holder.
    pub fn rehome(&mut self, signature: u64, block: BlockId, node: NodeId) {
        if let Some(e) = self.entries.get_mut(&(signature, block)) {
            e.node = node;
        }
    }

    /// Drop every entry whose holding node died (its stored map output is
    /// gone). Returns how many entries were invalidated.
    pub fn invalidate_node(&mut self, node: NodeId) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.node != node);
        (before - self.entries.len()) as u64
    }

    /// Node death under DataNode-death semantics: each entry the dead node
    /// held either moves to a surviving replica holder of its input block
    /// (`new_home(block)` — the holder can re-derive the cached output
    /// from its local replica) or, when no replica survives, is dropped.
    /// Returns `(rehomed, dropped)` counts; per-entry and therefore
    /// independent of iteration order.
    pub fn rehome_or_drop_node(
        &mut self,
        node: NodeId,
        mut new_home: impl FnMut(BlockId) -> Option<NodeId>,
    ) -> (u64, u64) {
        let mut rehomed = 0;
        let mut dropped = 0;
        self.entries.retain(|&(_, block), e| {
            if e.node != node {
                return true;
            }
            match new_home(block) {
                Some(survivor) => {
                    e.node = survivor;
                    rehomed += 1;
                    true
                }
                None => {
                    dropped += 1;
                    false
                }
            }
        });
        (rehomed, dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(records: u64) -> MapTaskResult {
        MapTaskResult {
            records_read: records,
            ..MapTaskResult::default()
        }
    }

    #[test]
    fn probe_classifies_hit_stale_miss() {
        let mut store = MemoStore::new();
        assert_eq!(store.probe(1, BlockId(0), 0), MemoProbe::Miss);
        store.insert(1, BlockId(0), 0, NodeId(2), result(10));
        assert_eq!(store.probe(1, BlockId(0), 0), MemoProbe::Hit);
        assert_eq!(store.probe(1, BlockId(0), 1), MemoProbe::Stale);
        assert_eq!(
            store.probe(2, BlockId(0), 0),
            MemoProbe::Miss,
            "per-signature"
        );
        assert!(store.get(1, BlockId(0), 1).is_none());
        assert_eq!(store.get(1, BlockId(0), 0).unwrap().result.records_read, 10);
    }

    #[test]
    fn newer_version_replaces_older_entry() {
        let mut store = MemoStore::new();
        store.insert(1, BlockId(3), 0, NodeId(0), result(10));
        store.insert(1, BlockId(3), 2, NodeId(1), result(20));
        assert_eq!(store.len(), 1, "one live entry per (signature, block)");
        assert_eq!(store.probe(1, BlockId(3), 0), MemoProbe::Stale);
        assert_eq!(store.probe(1, BlockId(3), 2), MemoProbe::Hit);
    }

    #[test]
    fn node_death_invalidates_exactly_its_entries() {
        let mut store = MemoStore::new();
        store.insert(1, BlockId(0), 0, NodeId(0), result(1));
        store.insert(1, BlockId(1), 0, NodeId(1), result(2));
        store.insert(2, BlockId(2), 0, NodeId(0), result(3));
        assert_eq!(store.invalidate_node(NodeId(0)), 2);
        assert_eq!(store.len(), 1);
        assert_eq!(store.probe(1, BlockId(0), 0), MemoProbe::Miss);
        assert_eq!(store.probe(1, BlockId(1), 0), MemoProbe::Hit);
        assert_eq!(store.invalidate_node(NodeId(9)), 0);
    }

    #[test]
    fn rehome_moves_the_invalidation_target() {
        let mut store = MemoStore::new();
        store.insert(1, BlockId(0), 0, NodeId(0), result(1));
        store.rehome(1, BlockId(0), NodeId(5));
        assert_eq!(store.invalidate_node(NodeId(0)), 0, "old holder irrelevant");
        assert_eq!(store.invalidate_node(NodeId(5)), 1);
    }

    #[test]
    fn rehome_or_drop_moves_survivors_and_drops_the_rest() {
        let mut store = MemoStore::new();
        store.insert(1, BlockId(0), 0, NodeId(0), result(1)); // replica survives
        store.insert(1, BlockId(1), 0, NodeId(0), result(2)); // last replica lost
        store.insert(1, BlockId(2), 0, NodeId(3), result(3)); // other holder
        let (rehomed, dropped) =
            store.rehome_or_drop_node(NodeId(0), |b| (b == BlockId(0)).then_some(NodeId(7)));
        assert_eq!((rehomed, dropped), (1, 1));
        assert_eq!(store.len(), 2);
        assert_eq!(store.probe(1, BlockId(0), 0), MemoProbe::Hit);
        assert_eq!(store.probe(1, BlockId(1), 0), MemoProbe::Miss);
        assert_eq!(store.invalidate_node(NodeId(7)), 1, "entry moved home");
    }
}
