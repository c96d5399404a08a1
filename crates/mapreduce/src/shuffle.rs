//! The streaming shuffle: one map task's counted output and the
//! incremental merge into a job's one reduce input.
//!
//! Stock Hadoop sorts and spills map output on the map side and the
//! reducer pulls each map's finished output as soon as the map commits.
//! This module reproduces that shape for the simulated runtime, with one
//! reduce task per job, as the paper's jobs run (Algorithm 2 takes `k` of
//! every candidate under one dummy key):
//!
//! * [`MapOutput`] is built *inside the map task on the data-plane
//!   worker* (`parallel::MapUnit::compute`): its records and shuffle bytes
//!   are counted there, once, so the control plane never re-walks a map's
//!   output.
//! * [`ShuffleState`] lives on the control plane, one per job. As each map
//!   completes (in scheduler-assignment order), its output is merged into
//!   the job's [`PartitionBuffer`] — grouping by key and recording
//!   first-seen key order. Reduce-begin then hands the buffer over whole:
//!   it *is* the reduce input.
//!
//! Batch runs stay selection vectors through both halves. Their bytes
//! come from [`KeyedBatch::shuffle_bytes`], which sums a run a column at
//! a time ([`BatchSelection::total_width`]): a numeric column costs one
//! multiply, a string column one pass over its selected codes, and no
//! row is walked. Their rows are built only at the reduce boundary, by
//! [`ValueSeq`], through the one row kernel in `incmr_data::batch`.
//!
//! Every emitted record reaches the reducer: the shuffle never drops
//! output. A sample's size is bounded where the paper bounds it, by the
//! mapper (Algorithm 1, at most `k` matches per split) and the reducer
//! (Algorithm 2, `k` of the merged candidates). The proptest below pins
//! the streaming merge against a monolithic reference grouping for
//! arbitrary key distributions and task shapes.
//!
//! ## Merge order and fault tolerance
//!
//! Maps *complete* in an order that depends on scheduling, stragglers, and
//! re-executed attempts — but the merged shuffle content must not. The
//! runtime therefore merges through [`ShuffleState::merge_task`], which
//! enforces **task-id order**: a map that completes ahead of a lower-id
//! task is parked and merged only once the frontier reaches it. The merged
//! buffer (key order and each group's value order) is then a pure
//! function of the task *set* and each task's output — identical whether
//! a node died mid-job, a straggler finished last, or nothing failed at
//! all. This is what lets `tests/chaos.rs` assert that a surviving job's
//! output fingerprint matches the fault-free run, schedule for schedule.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use incmr_data::{BatchSelection, Record};

use crate::exec::{output_bytes, output_records, Key, KeyedBatch};

/// FNV-1a over a key's bytes: the hash [`FnvHasher`] computes,
/// deterministic across platforms.
pub fn fnv1a(key: &str) -> u64 {
    let mut h = FnvHasher::default();
    h.write(key.as_bytes());
    h.finish()
}

/// The FNV-1a step as a [`Hasher`]: the crate's one key hash, for
/// indexing key groups ([`KeyGroups`]) and for memo signatures.
/// Keys are short strings, which FNV-1a hashes in one multiply per byte
/// where SipHash runs its full rounds.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A reduce input's values per key, indexed by FNV-1a. Nothing
/// iterates the map — reducers visit groups in first-seen key order — so
/// the hash can never move an output. Keys come from the job's own
/// mappers, not from outside the program, so the map needs none of
/// SipHash's resistance to crafted collisions.
pub type KeyGroups = HashMap<Key, ValueSeq, BuildHasherDefault<FnvHasher>>;

/// One map task's output, counted on the data-plane worker. Holds classic
/// pairs and/or zero-copy [`KeyedBatch`] runs; the task's emission order
/// is all pairs first, then every batch's rows in batch order (matching
/// `MapResult`'s contract).
#[derive(Debug, Clone, Default)]
pub struct MapOutput {
    /// Pairs, in emission order.
    pairs: Vec<(Key, Record)>,
    /// Keyed batch runs, in emission order.
    batches: Vec<KeyedBatch>,
    /// Records: pairs plus batch rows.
    records: u64,
    /// Shuffle bytes: each record's `key.len() + width`.
    bytes: u64,
}

impl MapOutput {
    /// Wrap `pairs` (in emission order).
    pub fn build(pairs: Vec<(Key, Record)>) -> Self {
        Self::build_with_batches(pairs, Vec::new())
    }

    /// Wrap pairs and batch runs (in emission order: pairs first),
    /// counting their records and shuffle bytes. Batch runs move as
    /// selection-vector handles — their rows are never materialised here.
    pub fn build_with_batches(pairs: Vec<(Key, Record)>, batches: Vec<KeyedBatch>) -> Self {
        MapOutput {
            records: output_records(&pairs, &batches),
            bytes: output_bytes(&pairs, &batches),
            pairs,
            batches,
        }
    }

    /// Visit every materialised pair in emission order. Zero-copy batch
    /// runs are not visited. This is how the runtime's
    /// approximate-aggregation plane reads a map task's per-group
    /// accumulator parts without consuming the output before the shuffle
    /// merge.
    pub fn iter_pairs(&self) -> impl Iterator<Item = &(Key, Record)> {
        self.pairs.iter()
    }

    /// Records (pairs plus batch rows).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Shuffle bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// One shuffle segment of a key group: either materialised rows or a
/// zero-copy batch selection. Segments keep arrival order; the batch kind
/// is only materialised at the reduce boundary.
#[derive(Debug, Clone)]
enum ValueSeg {
    /// Individually materialised records (the classic pair path).
    Rows(Vec<Record>),
    /// A shared-batch selection (the zero-copy path).
    Batch(BatchSelection),
}

impl ValueSeg {
    fn len(&self) -> usize {
        match self {
            ValueSeg::Rows(rows) => rows.len(),
            ValueSeg::Batch(sel) => sel.len(),
        }
    }
}

/// One key group's values: an ordered run of segments totalling `len`
/// records. Grows row-by-row from classic pairs and run-at-a-time from
/// [`KeyedBatch`]es. The reduce unit hands each group to its reducer by
/// value ([`Reducer::reduce_group`](crate::exec::Reducer::reduce_group)),
/// which builds only the rows it outputs: [`ValueSeq::into_records`] moves
/// materialised rows and builds a prefix of batch rows, and
/// [`ValueSeq::select`] builds rows at chosen positions. Every batch row
/// is built by the one row kernel behind
/// [`BatchSelection::iter_records`], a segment at a time. Equality (used
/// by the shuffle equivalence proptests) compares the materialised record
/// streams, so a batch segment equals the rows it would produce.
#[derive(Debug, Clone, Default)]
pub struct ValueSeq {
    segs: Vec<ValueSeg>,
    len: usize,
}

impl ValueSeq {
    /// Append one materialised record.
    pub fn push(&mut self, value: Record) {
        if let Some(ValueSeg::Rows(rows)) = self.segs.last_mut() {
            rows.push(value);
        } else {
            self.segs.push(ValueSeg::Rows(vec![value]));
        }
        self.len += 1;
    }

    /// Append a whole batch selection without materialising it.
    pub fn push_batch(&mut self, rows: BatchSelection) {
        self.len += rows.len();
        self.segs.push(ValueSeg::Batch(rows));
    }

    /// Records in the group.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no records have arrived.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Materialise every record, in arrival order, leaving the group
    /// intact (a copy of each row).
    pub fn to_rows(&self) -> Vec<Record> {
        let mut rows = Vec::with_capacity(self.len);
        self.clone().into_records(usize::MAX, |r| rows.push(r));
        rows
    }

    /// Consume the group, handing its first `limit` records to `emit` in
    /// arrival order (`usize::MAX` for all of them). Materialised rows
    /// move out; batch rows are built a segment at a time, and only as
    /// far as the prefix reaches.
    pub fn into_records(self, limit: usize, mut emit: impl FnMut(Record)) {
        let mut left = limit.min(self.len);
        for seg in self.segs {
            if left == 0 {
                break;
            }
            let n = left.min(seg.len());
            match seg {
                ValueSeg::Rows(rows) => rows.into_iter().take(n).for_each(&mut emit),
                ValueSeg::Batch(sel) => sel.iter_records().take(n).for_each(&mut emit),
            }
            left -= n;
        }
    }

    /// Build the records at `positions` (arrival-order indices, each below
    /// [`ValueSeq::len`]), handing them to `emit` in the order given. Only
    /// those rows are built.
    ///
    /// # Panics
    /// Panics if a position is out of range.
    pub fn select(&self, positions: &[usize], mut emit: impl FnMut(Record)) {
        let mut starts = Vec::with_capacity(self.segs.len());
        let mut start = 0;
        for seg in &self.segs {
            starts.push(start);
            start += seg.len();
        }
        for &p in positions {
            assert!(p < self.len, "position {p} out of a group of {}", self.len);
            let s = starts.partition_point(|&st| st <= p) - 1;
            emit(match &self.segs[s] {
                ValueSeg::Rows(rows) => rows[p - starts[s]].clone(),
                ValueSeg::Batch(sel) => sel.record(p - starts[s]),
            });
        }
    }
}

impl PartialEq for ValueSeq {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.to_rows() == other.to_rows()
    }
}

impl FromIterator<Record> for ValueSeq {
    fn from_iter<I: IntoIterator<Item = Record>>(iter: I) -> Self {
        let rows: Vec<Record> = iter.into_iter().collect();
        let len = rows.len();
        ValueSeq {
            segs: vec![ValueSeg::Rows(rows)],
            len,
        }
    }
}

/// A job's accumulated reduce input: the framework-side half of the
/// shuffle, grown incrementally as maps complete.
#[derive(Debug, Clone, Default)]
pub struct PartitionBuffer {
    /// Distinct keys in first-seen order (reducers iterate groups in this
    /// order, as the old monolithic partitioner did).
    pub key_order: Vec<Key>,
    /// Values per key, in arrival order — batch runs stay zero-copy until
    /// the reduce boundary.
    pub groups: KeyGroups,
}

impl PartitionBuffer {
    /// Absorb one map task's output, in emission order: pairs first,
    /// then batch runs. An empty run registers no key.
    fn absorb(&mut self, output: MapOutput) {
        for (key, value) in output.pairs {
            self.add_to_group(key, |group| group.push(value));
        }
        for kb in output.batches {
            if !kb.rows.is_empty() {
                self.add_to_group(kb.key, |group| group.push_batch(kb.rows));
            }
        }
    }

    /// Add to `key`'s group, registering the key in first-seen order when
    /// the group is new; the key is cloned only then.
    fn add_to_group(&mut self, key: Key, add: impl FnOnce(&mut ValueSeq)) {
        match self.groups.get_mut(&key) {
            Some(group) => add(group),
            None => {
                let mut group = ValueSeq::default();
                add(&mut group);
                self.key_order.push(Key::clone(&key));
                self.groups.insert(key, group);
            }
        }
    }
}

/// Per-job streaming shuffle state: the job's one [`PartitionBuffer`] and
/// the in-order merge frontier.
#[derive(Debug, Clone, Default)]
pub struct ShuffleState {
    buffer: PartitionBuffer,
    /// Next task id the in-order frontier will merge.
    next_seq: u32,
    /// Completed-but-early task outputs, waiting for the frontier.
    parked: BTreeMap<u32, MapOutput>,
}

impl ShuffleState {
    /// Merge one completed map's output whole. The merge order fixes the
    /// buffer's key order and each group's value order.
    pub fn merge(&mut self, output: MapOutput) {
        self.buffer.absorb(output);
    }

    /// Merge the output of map task `seq`, enforcing task-id order: the
    /// frontier advances one task at a time, and an out-of-order completion
    /// is parked until every lower-id task has merged. Each task id must be
    /// merged exactly once — re-executed attempts of an already-merged task
    /// must not call this again (their output is byte-identical anyway; see
    /// the module docs on fault tolerance).
    pub fn merge_task(&mut self, seq: u32, output: MapOutput) {
        debug_assert!(
            seq >= self.next_seq && !self.parked.contains_key(&seq),
            "task {seq} merged twice (frontier at {})",
            self.next_seq
        );
        if seq != self.next_seq {
            self.parked.insert(seq, output);
            return;
        }
        self.merge(output);
        self.next_seq += 1;
        while let Some(parked) = self.parked.remove(&self.next_seq) {
            self.merge(parked);
            self.next_seq += 1;
        }
    }

    /// Task ids merged through the in-order frontier so far.
    pub fn merged_tasks(&self) -> u32 {
        self.next_seq
    }

    /// True when no out-of-order completions are waiting on the frontier.
    pub fn is_settled(&self) -> bool {
        self.parked.is_empty()
    }

    /// Completed-but-early task outputs currently parked behind the
    /// in-order frontier (observability: a large value means stragglers
    /// are holding up the streaming merge).
    pub fn parked_tasks(&self) -> usize {
        self.parked.len()
    }

    /// Read access to the merged reduce input.
    pub fn buffer(&self) -> &PartitionBuffer {
        &self.buffer
    }

    /// Hand the merged input over to the reduce phase.
    pub fn into_buffer(self) -> PartitionBuffer {
        self.buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incmr_data::Value;
    use proptest::prelude::*;

    fn pair(key: &str, v: i64) -> (Key, Record) {
        (Key::from(key), Record::new(vec![Value::Int(v)]))
    }

    /// Records merged into a buffer, across every group.
    fn merged_records(buffer: &PartitionBuffer) -> usize {
        buffer.groups.values().map(ValueSeq::len).sum()
    }

    /// The old monolithic path: concatenate every task's pairs in
    /// completion order, then group them in one pass.
    fn reference_merge(tasks: &[Vec<(Key, Record)>]) -> PartitionBuffer {
        let mut buffer = PartitionBuffer::default();
        for (key, value) in tasks.iter().flatten().cloned() {
            buffer.add_to_group(key, |group| group.push(value));
        }
        buffer
    }

    fn streaming_merge(tasks: &[Vec<(Key, Record)>]) -> PartitionBuffer {
        let mut state = ShuffleState::default();
        for task in tasks {
            state.merge(MapOutput::build(task.clone()));
        }
        state.into_buffer()
    }

    fn assert_buffers_equal(a: &PartitionBuffer, b: &PartitionBuffer) {
        assert_eq!(a.key_order, b.key_order);
        assert_eq!(a.groups, b.groups);
    }

    /// The one key hash is FNV-1a 64: memo signatures and group indexing
    /// depend on these exact values.
    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn single_partition_groups_in_first_seen_order() {
        let mut state = ShuffleState::default();
        state.merge(MapOutput::build(vec![
            pair("b", 1),
            pair("a", 2),
            pair("b", 3),
        ]));
        state.merge(MapOutput::build(vec![pair("a", 4)]));
        let buffer = state.into_buffer();
        let keys: Vec<&str> = buffer.key_order.iter().map(|k| &**k).collect();
        assert_eq!(keys, ["b", "a"]);
        assert_eq!(buffer.groups[&Key::from("a")].len(), 2);
        assert_eq!(merged_records(&buffer), 4);
    }

    #[test]
    fn frontier_merge_parks_out_of_order_tasks() {
        let mut state = ShuffleState::default();
        state.merge_task(2, MapOutput::build(vec![pair("c", 2)]));
        state.merge_task(1, MapOutput::build(vec![pair("b", 1)]));
        assert_eq!(state.merged_tasks(), 0, "frontier blocked on task 0");
        assert!(!state.is_settled());
        assert_eq!(state.parked_tasks(), 2);
        state.merge_task(0, MapOutput::build(vec![pair("a", 0)]));
        assert_eq!(state.merged_tasks(), 3, "frontier drained the parked tasks");
        assert!(state.is_settled());
        assert_eq!(state.parked_tasks(), 0);
        let buffer = state.into_buffer();
        let keys: Vec<&str> = buffer.key_order.iter().map(|k| &**k).collect();
        assert_eq!(
            keys,
            ["a", "b", "c"],
            "merged in task order, not arrival order"
        );
    }

    /// Build a keyed batch over a one-column Int schema, one row per value.
    fn keyed_batch(key: &str, vals: &[i64]) -> KeyedBatch {
        use incmr_data::schema::{ColumnType, Schema};
        use incmr_data::{BatchSelection, RecordBatch};
        let schema = Schema::new(vec![("v", ColumnType::Int)]);
        let records: Vec<Record> = vals
            .iter()
            .map(|&v| Record::new(vec![Value::Int(v)]))
            .collect();
        KeyedBatch {
            key: Key::from(key),
            rows: BatchSelection::all(std::sync::Arc::new(RecordBatch::from_records(
                &schema, &records,
            ))),
        }
    }

    #[test]
    fn batch_runs_group_identically_to_their_flattened_pairs() {
        // One shuffle fed batches, one fed the equivalent pairs: the
        // outputs must agree on record and byte counts, and the buffers
        // on key order and groups.
        let tasks: Vec<Vec<KeyedBatch>> = vec![
            vec![keyed_batch("b", &[1, 2]), keyed_batch("a", &[3])],
            vec![keyed_batch("a", &[4]), keyed_batch("c", &[])],
        ];
        let mut batched = ShuffleState::default();
        let mut rows = ShuffleState::default();
        for task in &tasks {
            let as_batches = MapOutput::build_with_batches(Vec::new(), task.clone());
            let as_pairs = MapOutput::build(crate::exec::batches_to_pairs(task.clone()));
            assert_eq!(as_batches.records(), as_pairs.records());
            assert_eq!(as_batches.bytes(), as_pairs.bytes());
            batched.merge(as_batches);
            rows.merge(as_pairs);
        }
        assert_buffers_equal(&batched.into_buffer(), &rows.into_buffer());
    }

    #[test]
    fn empty_batch_runs_register_no_key() {
        // Task emits 2 pairs, a 3-row batch and an empty batch: every row
        // arrives, and the empty batch never registers its key.
        let pairs = vec![pair("p", 0), pair("p", 1)];
        let batches = vec![keyed_batch("b", &[10, 11, 12]), keyed_batch("z", &[])];
        let output = MapOutput::build_with_batches(pairs, batches);
        assert_eq!(output.records(), 5);
        let mut state = ShuffleState::default();
        state.merge(output);
        let buffer = state.into_buffer();
        let keys: Vec<&str> = buffer.key_order.iter().map(|k| &**k).collect();
        assert_eq!(keys, ["p", "b"], "an empty run adds no key");
        assert_eq!(buffer.groups[&Key::from("b")].len(), 3);
        assert_eq!(merged_records(&buffer), 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Streaming per-map-completion merge is byte-identical to the
        /// monolithic grouping of the flat output stream, for arbitrary
        /// key distributions and task shapes.
        #[test]
        fn streaming_merge_matches_monolithic_reference(
            tasks in prop::collection::vec(
                prop::collection::vec((0u8..12, any::<i64>()), 0..40),
                0..12,
            ),
        ) {
            let tasks: Vec<Vec<(Key, Record)>> = tasks
                .iter()
                .map(|t| {
                    t.iter()
                        .map(|(k, v)| pair(&format!("key-{k}"), *v))
                        .collect()
                })
                .collect();
            let streamed = streaming_merge(&tasks);
            let reference = reference_merge(&tasks);
            prop_assert_eq!(&streamed.key_order, &reference.key_order);
            prop_assert_eq!(&streamed.groups, &reference.groups);
            let emitted: usize = tasks.iter().map(Vec::len).sum();
            prop_assert_eq!(merged_records(&streamed), emitted);
        }

        /// Batch-run shuffling is byte-identical to shuffling the same
        /// rows as pairs, under arbitrary task shapes — the invariant that
        /// lets mappers emit selection-vector handles without perturbing
        /// anything downstream: equal record and byte counts per task, and
        /// equal merged buffers.
        #[test]
        fn batched_merge_matches_pair_merge(
            tasks in prop::collection::vec(
                prop::collection::vec(
                    (0u8..6, prop::collection::vec(any::<i64>(), 0..6)),
                    0..6,
                ),
                0..8,
            ),
        ) {
            let tasks: Vec<Vec<KeyedBatch>> = tasks
                .iter()
                .map(|t| {
                    t.iter()
                        .map(|(k, vals)| keyed_batch(&format!("key-{k}"), vals))
                        .collect()
                })
                .collect();
            let mut batched = ShuffleState::default();
            let mut rows = ShuffleState::default();
            for task in &tasks {
                let as_batches = MapOutput::build_with_batches(Vec::new(), task.clone());
                let as_pairs = MapOutput::build(crate::exec::batches_to_pairs(task.clone()));
                prop_assert_eq!(as_batches.records(), as_pairs.records());
                prop_assert_eq!(as_batches.bytes(), as_pairs.bytes());
                batched.merge(as_batches);
                rows.merge(as_pairs);
            }
            let a = batched.into_buffer();
            let b = rows.into_buffer();
            prop_assert_eq!(&a.key_order, &b.key_order);
            prop_assert_eq!(&a.groups, &b.groups);
        }

        /// The frontier merge is completion-order invariant: feeding tasks
        /// through `merge_task` in an arbitrary permutation produces a
        /// byte-identical buffer to the in-order merge — the property the
        /// fault plane's re-executions and stragglers rely on.
        #[test]
        fn frontier_merge_is_arrival_order_invariant(
            tasks in prop::collection::vec(
                prop::collection::vec((0u8..10, any::<i64>()), 0..20),
                1..10,
            ),
            perm_seed in any::<u64>(),
        ) {
            let tasks: Vec<Vec<(Key, Record)>> = tasks
                .iter()
                .map(|t| t.iter().map(|(k, v)| pair(&format!("k{k}"), *v)).collect())
                .collect();
            let mut in_order = ShuffleState::default();
            for (seq, task) in tasks.iter().enumerate() {
                in_order.merge_task(seq as u32, MapOutput::build(task.clone()));
            }
            // A deterministic Fisher–Yates permutation of the arrival order.
            let mut order: Vec<usize> = (0..tasks.len()).collect();
            let mut state = perm_seed | 1;
            for i in (1..order.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }
            let mut shuffled = ShuffleState::default();
            for &seq in &order {
                shuffled.merge_task(seq as u32, MapOutput::build(tasks[seq].clone()));
            }
            prop_assert!(shuffled.is_settled());
            prop_assert_eq!(shuffled.merged_tasks(), tasks.len() as u32);
            let a = in_order.into_buffer();
            let b = shuffled.into_buffer();
            prop_assert_eq!(&a.key_order, &b.key_order);
            prop_assert_eq!(&a.groups, &b.groups);
        }
    }
}
