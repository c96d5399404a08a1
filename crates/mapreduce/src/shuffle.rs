//! The streaming shuffle: partitioned map output and incremental merge.
//!
//! Stock Hadoop partitions map output on the map side (`Partitioner.
//! getPartition` inside the map task's sort/spill path) and reducers pull
//! each map's finished partition as soon as the map commits. This module
//! reproduces that shape for the simulated runtime:
//!
//! * [`PartitionedPairs`] is built *inside the map task on the data-plane
//!   worker* (`parallel::MapUnit::compute`): emitted pairs are hashed with
//!   [`fnv1a`] into `reduce_tasks` buckets while still on the worker
//!   thread, so the control plane never re-walks a map's output.
//! * [`ShuffleState`] lives on the control plane, one per job. As each map
//!   completes (in scheduler-assignment order), its partitions are merged
//!   into per-reduce [`PartitionBuffer`]s — grouping by key, recording
//!   first-seen key order and exact byte/record shares. Reduce-begin is
//!   then O(`reduce_tasks`): the buffers *are* the reduce inputs.
//!
//! Batch runs stay selection vectors through both halves. Their bytes
//! come from [`KeyedBatch::shuffle_bytes`], which sums a run a column at
//! a time ([`BatchSelection::total_width`]): a numeric column costs one
//! multiply, a string column one pass over its selected codes, and no
//! row is walked. Their rows are built only at the reduce boundary, by
//! [`ValueSeq`], through the one row kernel in `incmr_data::batch`.
//!
//! Every emitted record reaches its reducer: the shuffle never drops
//! output. A sample's size is bounded where the paper bounds it, by the
//! mapper (Algorithm 1, at most `k` matches per split) and the reducer
//! (Algorithm 2, `k` of the merged candidates). The proptest below pins
//! the streaming merge against a monolithic reference re-partition for
//! arbitrary key distributions, task shapes and `reduce_tasks` counts.
//!
//! ## Merge order and fault tolerance
//!
//! Maps *complete* in an order that depends on scheduling, stragglers, and
//! re-executed attempts — but the merged shuffle content must not. The
//! runtime therefore merges through [`ShuffleState::merge_task`], which
//! enforces **task-id order**: a map that completes ahead of a lower-id
//! task is parked and merged only once the frontier reaches it. The merged
//! buffers (key order and each group's value order) are then a pure
//! function of the task *set* and each task's output — identical whether
//! a node died mid-job, a straggler finished last, or nothing failed at
//! all. This is what lets `tests/chaos.rs` assert that a surviving job's
//! output fingerprint matches the fault-free run, schedule for schedule.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use incmr_data::{BatchSelection, Record};

use crate::exec::{Key, KeyedBatch};

/// FNV-1a, the key-partitioning hash (Hadoop uses `key.hashCode() % R`;
/// any stable hash serves, and FNV-1a is deterministic across platforms).
pub fn fnv1a(key: &str) -> u64 {
    let mut h = FnvHasher::default();
    h.write(key.as_bytes());
    h.finish()
}

/// The FNV-1a step as a [`Hasher`]: the crate's one key hash, for
/// partitioning ([`fnv1a`]) and for indexing key groups ([`KeyGroups`]).
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

/// One reduce partition's values per key, indexed by FNV-1a. Nothing
/// iterates the map — reducers visit groups in first-seen key order — so
/// the hash can never move an output. Keys come from the job's own
/// mappers, not from outside the program, so the map needs none of
/// SipHash's resistance to crafted collisions.
pub type KeyGroups = HashMap<Key, ValueSeq, BuildHasherDefault<FnvHasher>>;

/// Which of `reduce_tasks` partitions `key` belongs to.
pub fn partition_of(key: &str, reduce_tasks: u32) -> usize {
    (fnv1a(key) % u64::from(reduce_tasks.max(1))) as usize
}

/// One map task's output, pre-partitioned by reduce task on the data-plane
/// worker. Holds classic pairs and/or zero-copy [`KeyedBatch`] runs; the
/// task's emission order is all pairs first, then every batch's rows in
/// batch order (matching `MapResult`'s contract).
#[derive(Debug, Clone, Default)]
pub struct PartitionedPairs {
    /// `partitions[p]` holds the pairs destined for reduce task `p`, in
    /// emission order.
    partitions: Vec<Vec<(Key, Record)>>,
    /// `batch_partitions[p]` holds the keyed batch runs destined for
    /// reduce task `p`, in emission order. A run is never split across
    /// partitions — all its rows share one key.
    batch_partitions: Vec<Vec<KeyedBatch>>,
}

impl PartitionedPairs {
    /// Partition `pairs` (in emission order) across `reduce_tasks` buckets.
    pub fn build(pairs: Vec<(Key, Record)>, reduce_tasks: u32) -> Self {
        Self::build_with_batches(pairs, Vec::new(), reduce_tasks)
    }

    /// Partition pairs and batch runs (in emission order: pairs first)
    /// across `reduce_tasks` buckets. Batch runs move as selection-vector
    /// handles — their rows are never materialised here.
    pub fn build_with_batches(
        pairs: Vec<(Key, Record)>,
        batches: Vec<KeyedBatch>,
        reduce_tasks: u32,
    ) -> Self {
        let r = reduce_tasks.max(1);
        if r == 1 {
            return PartitionedPairs {
                partitions: vec![pairs],
                batch_partitions: vec![batches],
            };
        }
        let mut partitions: Vec<Vec<(Key, Record)>> = (0..r).map(|_| Vec::new()).collect();
        let mut batch_partitions: Vec<Vec<KeyedBatch>> = (0..r).map(|_| Vec::new()).collect();
        for (key, value) in pairs {
            partitions[partition_of(&key, r)].push((key, value));
        }
        for batch in batches {
            batch_partitions[partition_of(&batch.key, r)].push(batch);
        }
        PartitionedPairs {
            partitions,
            batch_partitions,
        }
    }

    /// Number of partitions (= the job's `reduce_tasks`).
    pub fn reduce_tasks(&self) -> usize {
        self.partitions.len()
    }

    /// Visit every materialised pair across all partitions, in partition
    /// order then emission order within a partition. Zero-copy batch runs
    /// are not visited. This is how the runtime's approximate-aggregation
    /// plane reads a map task's per-group accumulator parts without
    /// consuming the output before the shuffle merge.
    pub fn iter_pairs(&self) -> impl Iterator<Item = &(Key, Record)> {
        self.partitions.iter().flatten()
    }

    /// Total records (pairs plus batch rows) across all partitions.
    pub fn len(&self) -> usize {
        let pairs: usize = self.partitions.iter().map(Vec::len).sum();
        let rows: usize = self
            .batch_partitions
            .iter()
            .flatten()
            .map(|b| b.rows.len())
            .sum();
        pairs + rows
    }

    /// True when the task emitted nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

/// One reduce task's accumulated input: the framework-side half of the
/// shuffle, grown incrementally as maps complete.
#[derive(Debug, Clone, Default)]
pub struct PartitionBuffer {
    /// Distinct keys in first-seen order (reducers iterate groups in this
    /// order, as the old monolithic partitioner did).
    pub key_order: Vec<Key>,
    /// Values per key, in arrival order — batch runs stay zero-copy until
    /// the reduce boundary.
    pub groups: KeyGroups,
    /// Exact bytes of materialised input merged into this partition.
    pub shuffle_bytes: u64,
    /// Exact count of materialised input records merged in.
    pub input_records: u64,
}

impl PartitionBuffer {
    /// Absorb one map's share of pairs, in emission order.
    fn absorb(&mut self, pairs: Vec<(Key, Record)>) {
        for (key, value) in pairs {
            self.shuffle_bytes += key.len() as u64 + value.width();
            self.input_records += 1;
            let group = self.groups.entry(Key::clone(&key)).or_default();
            if group.is_empty() {
                self.key_order.push(key);
            }
            group.push(value);
        }
    }

    /// Absorb one map's share of batch runs, in emission order. An empty
    /// run registers no key. Byte and record accounting matches what
    /// `absorb` would charge for the materialised pairs.
    fn absorb_batches(&mut self, batches: Vec<KeyedBatch>) {
        for kb in batches {
            if kb.rows.is_empty() {
                continue;
            }
            self.shuffle_bytes += kb.shuffle_bytes();
            self.input_records += kb.rows.len() as u64;
            let group = self.groups.entry(Key::clone(&kb.key)).or_default();
            if group.is_empty() {
                self.key_order.push(Key::clone(&kb.key));
            }
            group.push_batch(kb.rows);
        }
    }
}

/// Per-job streaming shuffle state: one [`PartitionBuffer`] per reduce
/// task and the in-order merge frontier.
#[derive(Debug, Clone, Default)]
pub struct ShuffleState {
    buffers: Vec<PartitionBuffer>,
    /// Next task id the in-order frontier will merge.
    next_seq: u32,
    /// Completed-but-early task outputs, waiting for the frontier.
    parked: BTreeMap<u32, PartitionedPairs>,
}

impl ShuffleState {
    /// Fresh state for a job with `reduce_tasks` reducers.
    pub fn new(reduce_tasks: u32) -> Self {
        ShuffleState {
            buffers: (0..reduce_tasks.max(1))
                .map(|_| PartitionBuffer::default())
                .collect(),
            next_seq: 0,
            parked: BTreeMap::new(),
        }
    }

    /// Merge one completed map's partitioned output, every partition
    /// whole. The merge order fixes each partition's key order and each
    /// group's value order.
    pub fn merge(&mut self, pairs: PartitionedPairs) {
        debug_assert_eq!(pairs.reduce_tasks(), self.buffers.len());
        for (buffer, (part, batches)) in self
            .buffers
            .iter_mut()
            .zip(pairs.partitions.into_iter().zip(pairs.batch_partitions))
        {
            // Within a partition, emission order is pairs first, then
            // batch rows (the task-level contract).
            buffer.absorb(part);
            buffer.absorb_batches(batches);
        }
    }

    /// Merge the output of map task `seq`, enforcing task-id order: the
    /// frontier advances one task at a time, and an out-of-order completion
    /// is parked until every lower-id task has merged. Each task id must be
    /// merged exactly once — re-executed attempts of an already-merged task
    /// must not call this again (their output is byte-identical anyway; see
    /// the module docs on fault tolerance).
    pub fn merge_task(&mut self, seq: u32, pairs: PartitionedPairs) {
        debug_assert!(
            seq >= self.next_seq && !self.parked.contains_key(&seq),
            "task {seq} merged twice (frontier at {})",
            self.next_seq
        );
        if seq != self.next_seq {
            self.parked.insert(seq, pairs);
            return;
        }
        self.merge(pairs);
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

    /// Read access to the per-reduce buffers.
    pub fn buffers(&self) -> &[PartitionBuffer] {
        &self.buffers
    }

    /// Hand the buffers over to the reduce phase.
    pub fn into_buffers(self) -> Vec<PartitionBuffer> {
        self.buffers
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

    /// The old monolithic path: concatenate every task's pairs in
    /// completion order, then partition and group in one pass.
    fn reference_partition(
        tasks: &[Vec<(Key, Record)>],
        reduce_tasks: u32,
    ) -> Vec<PartitionBuffer> {
        let r = reduce_tasks.max(1);
        let mut buffers: Vec<PartitionBuffer> =
            (0..r).map(|_| PartitionBuffer::default()).collect();
        for (key, value) in tasks.iter().flatten().cloned() {
            buffers[partition_of(&key, r)].absorb(vec![(key, value)]);
        }
        buffers
    }

    fn streaming_partition(
        tasks: &[Vec<(Key, Record)>],
        reduce_tasks: u32,
    ) -> Vec<PartitionBuffer> {
        let mut state = ShuffleState::new(reduce_tasks);
        for task in tasks {
            state.merge(PartitionedPairs::build(task.clone(), reduce_tasks));
        }
        state.into_buffers()
    }

    fn assert_buffers_equal(a: &[PartitionBuffer], b: &[PartitionBuffer]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.key_order, y.key_order);
            assert_eq!(x.groups, y.groups);
            assert_eq!(x.shuffle_bytes, y.shuffle_bytes);
            assert_eq!(x.input_records, y.input_records);
        }
    }

    /// The one key hash is FNV-1a 64: partitions, memo signatures and
    /// recorded outputs depend on these exact values.
    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn single_partition_groups_in_first_seen_order() {
        let mut state = ShuffleState::new(1);
        state.merge(PartitionedPairs::build(
            vec![pair("b", 1), pair("a", 2), pair("b", 3)],
            1,
        ));
        state.merge(PartitionedPairs::build(vec![pair("a", 4)], 1));
        let buffers = state.into_buffers();
        let keys: Vec<&str> = buffers[0].key_order.iter().map(|k| &**k).collect();
        assert_eq!(keys, ["b", "a"]);
        assert_eq!(buffers[0].groups[&Key::from("a")].len(), 2);
        assert_eq!(buffers[0].input_records, 4);
    }

    #[test]
    fn frontier_merge_parks_out_of_order_tasks() {
        let mut state = ShuffleState::new(1);
        state.merge_task(2, PartitionedPairs::build(vec![pair("c", 2)], 1));
        state.merge_task(1, PartitionedPairs::build(vec![pair("b", 1)], 1));
        assert_eq!(state.merged_tasks(), 0, "frontier blocked on task 0");
        assert!(!state.is_settled());
        assert_eq!(state.parked_tasks(), 2);
        state.merge_task(0, PartitionedPairs::build(vec![pair("a", 0)], 1));
        assert_eq!(state.merged_tasks(), 3, "frontier drained the parked tasks");
        assert!(state.is_settled());
        assert_eq!(state.parked_tasks(), 0);
        let buffers = state.into_buffers();
        let keys: Vec<&str> = buffers[0].key_order.iter().map(|k| &**k).collect();
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
        // buffers must agree on key order, groups, byte and record counts.
        let tasks: Vec<Vec<KeyedBatch>> = vec![
            vec![keyed_batch("b", &[1, 2]), keyed_batch("a", &[3])],
            vec![keyed_batch("a", &[4]), keyed_batch("c", &[])],
        ];
        for r in [1u32, 2, 3] {
            let mut batched = ShuffleState::new(r);
            let mut rows = ShuffleState::new(r);
            for task in &tasks {
                batched.merge(PartitionedPairs::build_with_batches(
                    Vec::new(),
                    task.clone(),
                    r,
                ));
                rows.merge(PartitionedPairs::build(
                    crate::exec::batches_to_pairs(task.clone()),
                    r,
                ));
            }
            assert_buffers_equal(&batched.into_buffers(), &rows.into_buffers());
        }
    }

    #[test]
    fn empty_batch_runs_register_no_key() {
        // Task emits 2 pairs, a 3-row batch and an empty batch: every row
        // arrives, and the empty batch never registers its key.
        let pairs = vec![pair("p", 0), pair("p", 1)];
        let batches = vec![keyed_batch("b", &[10, 11, 12]), keyed_batch("z", &[])];
        let mut state = ShuffleState::new(1);
        state.merge(PartitionedPairs::build_with_batches(pairs, batches, 1));
        let buffers = state.into_buffers();
        let keys: Vec<&str> = buffers[0].key_order.iter().map(|k| &**k).collect();
        assert_eq!(keys, ["p", "b"], "an empty run adds no key");
        assert_eq!(buffers[0].groups[&Key::from("b")].len(), 3);
        assert_eq!(buffers[0].input_records, 5);
    }

    #[test]
    fn zero_reduce_tasks_is_clamped_to_one() {
        let state = ShuffleState::new(0);
        assert_eq!(state.buffers().len(), 1);
        assert_eq!(
            PartitionedPairs::build(vec![pair("x", 1)], 0).reduce_tasks(),
            1
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Streaming per-map-completion merge is byte-identical to the
        /// monolithic re-partition of the flat output stream, for
        /// arbitrary key distributions, task shapes and `reduce_tasks`
        /// counts.
        #[test]
        fn streaming_merge_matches_monolithic_reference(
            tasks in prop::collection::vec(
                prop::collection::vec((0u8..12, any::<i64>()), 0..40),
                0..12,
            ),
            reduce_tasks in 1u32..8,
        ) {
            let tasks: Vec<Vec<(Key, Record)>> = tasks
                .iter()
                .map(|t| {
                    t.iter()
                        .map(|(k, v)| pair(&format!("key-{k}"), *v))
                        .collect()
                })
                .collect();
            let streamed = streaming_partition(&tasks, reduce_tasks);
            let reference = reference_partition(&tasks, reduce_tasks);
            prop_assert_eq!(streamed.len(), reference.len());
            for (s, r) in streamed.iter().zip(&reference) {
                prop_assert_eq!(&s.key_order, &r.key_order);
                prop_assert_eq!(&s.groups, &r.groups);
                prop_assert_eq!(s.shuffle_bytes, r.shuffle_bytes);
                prop_assert_eq!(s.input_records, r.input_records);
            }
            let materialized: u64 = streamed.iter().map(|b| b.input_records).sum();
            let emitted: u64 = tasks.iter().map(|t| t.len() as u64).sum();
            prop_assert_eq!(materialized, emitted);
        }

        /// Batch-run shuffling is byte-identical to shuffling the same
        /// rows as pairs, under arbitrary task shapes and partition
        /// counts — the invariant that lets mappers emit selection-vector
        /// handles without perturbing anything downstream.
        #[test]
        fn batched_merge_matches_pair_merge(
            tasks in prop::collection::vec(
                prop::collection::vec(
                    (0u8..6, prop::collection::vec(any::<i64>(), 0..6)),
                    0..6,
                ),
                0..8,
            ),
            reduce_tasks in 1u32..6,
        ) {
            let tasks: Vec<Vec<KeyedBatch>> = tasks
                .iter()
                .map(|t| {
                    t.iter()
                        .map(|(k, vals)| keyed_batch(&format!("key-{k}"), vals))
                        .collect()
                })
                .collect();
            let mut batched = ShuffleState::new(reduce_tasks);
            let mut rows = ShuffleState::new(reduce_tasks);
            for task in &tasks {
                batched.merge(PartitionedPairs::build_with_batches(
                    Vec::new(),
                    task.clone(),
                    reduce_tasks,
                ));
                rows.merge(PartitionedPairs::build(
                    crate::exec::batches_to_pairs(task.clone()),
                    reduce_tasks,
                ));
            }
            let a = batched.into_buffers();
            let b = rows.into_buffers();
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(&x.key_order, &y.key_order);
                prop_assert_eq!(&x.groups, &y.groups);
                prop_assert_eq!(x.shuffle_bytes, y.shuffle_bytes);
                prop_assert_eq!(x.input_records, y.input_records);
            }
        }

        /// The frontier merge is completion-order invariant: feeding tasks
        /// through `merge_task` in an arbitrary permutation produces
        /// byte-identical buffers to the in-order merge — the property the
        /// fault plane's re-executions and stragglers rely on.
        #[test]
        fn frontier_merge_is_arrival_order_invariant(
            tasks in prop::collection::vec(
                prop::collection::vec((0u8..10, any::<i64>()), 0..20),
                1..10,
            ),
            reduce_tasks in 1u32..6,
            perm_seed in any::<u64>(),
        ) {
            let tasks: Vec<Vec<(Key, Record)>> = tasks
                .iter()
                .map(|t| t.iter().map(|(k, v)| pair(&format!("k{k}"), *v)).collect())
                .collect();
            let mut in_order = ShuffleState::new(reduce_tasks);
            for (seq, task) in tasks.iter().enumerate() {
                in_order.merge_task(seq as u32, PartitionedPairs::build(task.clone(), reduce_tasks));
            }
            // A deterministic Fisher–Yates permutation of the arrival order.
            let mut order: Vec<usize> = (0..tasks.len()).collect();
            let mut state = perm_seed | 1;
            for i in (1..order.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }
            let mut shuffled = ShuffleState::new(reduce_tasks);
            for &seq in &order {
                shuffled.merge_task(seq as u32, PartitionedPairs::build(tasks[seq].clone(), reduce_tasks));
            }
            prop_assert!(shuffled.is_settled());
            prop_assert_eq!(shuffled.merged_tasks(), tasks.len() as u32);
            let a = in_order.into_buffers();
            let b = shuffled.into_buffers();
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(&x.key_order, &y.key_order);
                prop_assert_eq!(&x.groups, &y.groups);
                prop_assert_eq!(x.shuffle_bytes, y.shuffle_bytes);
                prop_assert_eq!(x.input_records, y.input_records);
            }
        }
    }
}
