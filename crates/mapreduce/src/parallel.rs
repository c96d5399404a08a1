//! The data-plane worker pool: parallel execution of map and reduce
//! record work on persistent workers.
//!
//! # Two planes, one clock
//!
//! The runtime separates *when* things happen from *what* they compute:
//!
//! * The **control plane** — the simkit discrete-event loop, heartbeats,
//!   schedulers, growth-driver evaluations — stays single-threaded and
//!   deterministic. Simulated time is a pure function of the seed.
//! * The **data plane** — `InputFormat::read` + `Mapper::run` for each
//!   dispatched split, combining, and `Reducer::reduce_group` over the
//!   job's merged groups — is pure host computation whose *result*
//!   feeds the simulation but whose *duration on the host* is irrelevant
//!   to simulated time (task durations come from the cost model, not wall
//!   clock).
//!
//! That split makes parallelism safe: a [`WorkUnit`] is a pure function of
//! its captured inputs, so the control plane submits units as tasks are
//! dispatched, lets the event loop race ahead, and joins each unit's
//! [`UnitHandle`] only at the task's *simulated* completion — always in
//! scheduler order. The event queue therefore sees byte-identical state
//! and ordering at any thread count — `threads = 8` only changes how fast
//! the host gets there. `tests/determinism.rs` locks this in.
//!
//! # Pool lifecycle
//!
//! Workers are spawned once, lazily, on the first submission that needs
//! them (never for `threads = 1`, which computes inline — the serial
//! reference path with zero thread machinery). They block on a shared
//! channel of boxed jobs and live until the executor is dropped, so a
//! scheduling wave costs one channel send per unit instead of a
//! `thread::scope` spawn/join cycle — the per-wave overhead that made
//! extra threads a net loss on small hosts in the PR 1 `BENCH_scan.json`.
//! Each unit delivers its result through its own one-shot channel (no
//! whole-batch `Mutex<Vec<…>>`), so a finished worker never contends with
//! the others, and results are consumed per-slot in whatever order the
//! control plane asks for them.
//!
//! Within a split there is no further chunking: record generation is a
//! sequential PRNG stream (see `incmr-data::generator`), so the unit of
//! parallelism is the split.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use incmr_dfs::BlockId;

use crate::cluster::Parallelism;
use crate::exec::{batches_to_pairs, Combiner, InputFormat, Key, Mapper, ReduceOutput, Reducer};
use crate::shuffle::{KeyGroups, MapOutput};

/// A self-contained piece of data-plane work: consumed once, produces a
/// sendable result. Implementations must be pure functions of their
/// captured state — the control plane relies on a unit computing the same
/// output whether it runs inline, immediately, or long after submission.
pub trait WorkUnit: Send + 'static {
    /// What the unit produces.
    type Output: Send + 'static;
    /// Do the work.
    fn compute(self) -> Self::Output;
}

/// One map task's data-plane work: read a split, run the mapper, apply
/// the optional combiner, and count the output — all on the worker, so
/// the control plane only merges.
pub struct MapUnit {
    /// Source of the split's contents.
    pub input_format: Arc<dyn InputFormat>,
    /// Map logic to apply.
    pub mapper: Arc<dyn Mapper>,
    /// Optional map-side aggregation applied before the shuffle.
    pub combiner: Option<Arc<dyn Combiner>>,
    /// The split to process.
    pub block: BlockId,
}

impl Clone for MapUnit {
    fn clone(&self) -> Self {
        MapUnit {
            input_format: Arc::clone(&self.input_format),
            mapper: Arc::clone(&self.mapper),
            combiner: self.combiner.as_ref().map(Arc::clone),
            block: self.block,
        }
    }
}

/// Everything a finished map task hands back to the control plane.
#[derive(Debug, Clone, Default)]
pub struct MapTaskResult {
    /// Post-combine output, counted on the worker.
    pub pairs: MapOutput,
    /// Records scanned (feeds selectivity estimation).
    pub records_read: u64,
    /// Output records accounted but not materialised.
    pub unmaterialized_outputs: u64,
    /// Bytes of unmaterialised output (for shuffle-volume modelling).
    pub unmaterialized_bytes: u64,
    /// Records fed to the combiner (0 when the job has none).
    pub combiner_input_records: u64,
    /// Records surviving the combiner (0 when the job has none).
    pub combiner_output_records: u64,
    /// Host nanoseconds spent computing this unit (observability only —
    /// never feeds simulated time or the trace).
    pub host_ns: u64,
}

impl MapTaskResult {
    /// Materialised output records (post-combine), counted on the worker.
    pub fn materialized_records(&self) -> u64 {
        self.pairs.records()
    }

    /// Materialised output bytes (post-combine), counted on the worker.
    pub fn materialized_bytes(&self) -> u64 {
        self.pairs.bytes()
    }

    /// Total output records, materialised or not (post-combine).
    pub fn total_outputs(&self) -> u64 {
        self.materialized_records() + self.unmaterialized_outputs
    }

    /// Total output bytes, materialised or not (post-combine).
    pub fn total_output_bytes(&self) -> u64 {
        self.materialized_bytes() + self.unmaterialized_bytes
    }
}

impl WorkUnit for MapUnit {
    type Output = MapTaskResult;

    fn compute(self) -> MapTaskResult {
        let start = Instant::now();
        let data = self.input_format.read(self.block);
        let mut result = self.mapper.run(data);
        let (combiner_input_records, combiner_output_records) = match &self.combiner {
            Some(combiner) => {
                let before = result.materialized_records();
                if result.pairs.is_empty() && !result.batches.is_empty() {
                    // Pure batch output: try the combiner's zero-copy fold
                    // first; a combiner without one hands the batches back
                    // and we materialise into the classic pair path.
                    match combiner.combine_batches(std::mem::take(&mut result.batches)) {
                        Ok(folded) => result.batches = folded,
                        Err(batches) => {
                            result.pairs = combiner.combine(batches_to_pairs(batches));
                        }
                    }
                } else {
                    // Row (or mixed) output: flatten any batches into the
                    // pair stream in emission order and fold once.
                    let mut pairs = std::mem::take(&mut result.pairs);
                    if !result.batches.is_empty() {
                        pairs.extend(batches_to_pairs(std::mem::take(&mut result.batches)));
                    }
                    result.pairs = combiner.combine(pairs);
                }
                (before, result.materialized_records())
            }
            None => (0, 0),
        };
        MapTaskResult {
            pairs: MapOutput::build_with_batches(result.pairs, result.batches),
            records_read: result.records_read,
            unmaterialized_outputs: result.unmaterialized_outputs,
            unmaterialized_bytes: result.unmaterialized_bytes,
            combiner_input_records,
            combiner_output_records,
            host_ns: start.elapsed().as_nanos() as u64,
        }
    }
}

/// A job's reduce task on the data plane: run the user reducer over every
/// key group of the merged shuffle, in first-seen key order.
pub struct ReduceUnit {
    /// Reduce logic to apply.
    pub reducer: Arc<dyn Reducer>,
    /// Distinct keys in first-seen order.
    pub key_order: Vec<Key>,
    /// Values per key, in arrival order. Each group is handed to
    /// [`Reducer::reduce_group`] by value, so batch segments stay
    /// zero-copy until the reducer builds the rows it outputs.
    pub groups: KeyGroups,
}

/// What a finished reduce task hands back.
#[derive(Debug, Clone, Default)]
pub struct ReduceTaskResult {
    /// The reducer's output, in key-group order.
    pub output: ReduceOutput,
    /// Host nanoseconds spent computing this unit (observability only).
    pub host_ns: u64,
}

impl WorkUnit for ReduceUnit {
    type Output = ReduceTaskResult;

    fn compute(self) -> ReduceTaskResult {
        let start = Instant::now();
        let mut output = ReduceOutput::default();
        let mut groups = self.groups;
        for key in &self.key_order {
            let values = groups.remove(key).expect("every ordered key has a group");
            self.reducer.reduce_group(key, values, &mut output);
        }
        ReduceTaskResult {
            output,
            host_ns: start.elapsed().as_nanos() as u64,
        }
    }
}

/// A claim on one submitted unit's result.
///
/// Serial executors resolve the handle at submission (the unit ran
/// inline); pooled executors hold the receiving end of the unit's
/// one-shot result channel. Either way, [`join`](UnitHandle::join) yields
/// the result exactly once, blocking only if a worker is still computing.
#[derive(Debug)]
pub struct UnitHandle<T>(HandleState<T>);

#[derive(Debug)]
enum HandleState<T> {
    Ready(T),
    Pending(mpsc::Receiver<T>),
}

impl<T> UnitHandle<T> {
    fn ready(value: T) -> Self {
        UnitHandle(HandleState::Ready(value))
    }

    fn pending(rx: mpsc::Receiver<T>) -> Self {
        UnitHandle(HandleState::Pending(rx))
    }

    /// Wait for and take the unit's result.
    pub fn join(self) -> T {
        match self.0 {
            HandleState::Ready(value) => value,
            HandleState::Pending(rx) => rx.recv().expect("data-plane worker delivers its result"),
        }
    }
}

type Job = Box<dyn FnOnce() + Send>;

/// The persistent workers: spawned once, fed over a shared channel, joined
/// on drop.
struct WorkerPool {
    sender: Option<mpsc::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    fn spawn(threads: usize) -> Self {
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("incmr-data-plane-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only while waiting for the next
                        // job, never while running one.
                        let job = receiver
                            .lock()
                            .expect("data-plane queue never poisoned")
                            .recv();
                        match job {
                            Ok(job) => job(),
                            Err(_) => break, // executor dropped: retire
                        }
                    })
                    .expect("spawn data-plane worker")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
        }
    }

    fn execute(&self, job: Job) {
        self.sender
            .as_ref()
            .expect("pool sender live until drop")
            .send(job)
            .expect("data-plane workers alive");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.sender.take(); // disconnect: workers drain the queue and exit
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Executes [`WorkUnit`]s, inline (`threads = 1`) or on the persistent
/// worker pool.
///
/// Results come back through per-unit [`UnitHandle`]s, so callers join
/// them in whatever (deterministic) order the control plane needs,
/// regardless of which worker finished first.
pub struct ParallelExecutor {
    threads: usize,
    pool: Option<WorkerPool>,
}

impl std::fmt::Debug for ParallelExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelExecutor")
            .field("threads", &self.threads)
            .field("pool_spawned", &self.pool.is_some())
            .finish()
    }
}

impl ParallelExecutor {
    /// An executor honouring the given parallelism knob.
    pub fn new(parallelism: Parallelism) -> Self {
        ParallelExecutor {
            threads: parallelism.threads.max(1) as usize,
            pool: None,
        }
    }

    /// Configured worker count (1 = serial).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Submit one unit for computation.
    ///
    /// With `threads = 1` the unit is computed inline before this returns
    /// and the handle is already resolved. Otherwise it is queued on the
    /// pool (spawned on first use) and the handle's `join` blocks until a
    /// worker delivers the result.
    pub fn submit<U: WorkUnit>(&mut self, unit: U) -> UnitHandle<U::Output> {
        if self.threads == 1 {
            return UnitHandle::ready(unit.compute());
        }
        let threads = self.threads;
        let pool = self.pool.get_or_insert_with(|| WorkerPool::spawn(threads));
        let (tx, rx) = mpsc::channel();
        pool.execute(Box::new(move || {
            // The control plane may have dropped the handle (failed task
            // attempt); a closed channel is fine.
            let _ = tx.send(unit.compute());
        }));
        UnitHandle::pending(rx)
    }

    /// Compute a whole batch and return the results in input order.
    pub fn run<U: WorkUnit>(&mut self, units: Vec<U>) -> Vec<U::Output> {
        let handles: Vec<UnitHandle<U::Output>> =
            units.into_iter().map(|u| self.submit(u)).collect();
        handles.into_iter().map(UnitHandle::join).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{MapResult, SplitData};
    use incmr_data::{ColumnType, Record, RecordBatch, Schema, Value};

    /// Yields `block.0` synthetic records for any block.
    struct CountingInput;

    impl InputFormat for CountingInput {
        fn read(&self, block: BlockId) -> SplitData {
            let records: Vec<Record> = (0..block.0)
                .map(|i| Record::new(vec![Value::Int(i as i64)]))
                .collect();
            let schema = Schema::new(vec![("i", ColumnType::Int)]);
            SplitData::Full(Arc::new(RecordBatch::from_records(&schema, &records)))
        }
    }

    /// Emits one pair per record, tagged with the record count.
    struct CountMapper;

    impl Mapper for CountMapper {
        fn run(&self, data: SplitData) -> MapResult {
            let SplitData::Full(batch) = data else {
                panic!()
            };
            let rs = batch.to_records();
            let key = Key::from(format!("n{}", rs.len()));
            let records_read = rs.len() as u64;
            MapResult {
                pairs: rs.into_iter().map(|r| (Key::clone(&key), r)).collect(),
                records_read,
                ..MapResult::default()
            }
        }
    }

    /// Keeps only the first pair of a task's output.
    struct FirstOnly;

    impl Combiner for FirstOnly {
        fn combine(&self, mut pairs: Vec<(Key, Record)>) -> Vec<(Key, Record)> {
            pairs.truncate(1);
            pairs
        }
    }

    fn units(blocks: &[u32]) -> Vec<MapUnit> {
        let input: Arc<dyn InputFormat> = Arc::new(CountingInput);
        let mapper: Arc<dyn Mapper> = Arc::new(CountMapper);
        blocks
            .iter()
            .map(|&b| MapUnit {
                input_format: Arc::clone(&input),
                mapper: Arc::clone(&mapper),
                combiner: None,
                block: BlockId(b),
            })
            .collect()
    }

    fn flat_pairs(r: &MapTaskResult) -> Vec<(Key, Record)> {
        let mut state = crate::shuffle::ShuffleState::default();
        state.merge(r.pairs.clone());
        let buffer = state.into_buffer();
        let mut groups = buffer.groups;
        let mut out = Vec::new();
        for key in buffer.key_order {
            for v in groups.remove(&key).unwrap().to_rows() {
                out.push((Key::clone(&key), v));
            }
        }
        out
    }

    #[test]
    fn serial_and_parallel_agree_in_order_and_content() {
        let batch = units(&[5, 0, 17, 3, 9, 12, 1, 8]);
        let serial = ParallelExecutor::new(Parallelism::SERIAL).run(batch.clone());
        for threads in [2, 4, 8] {
            let parallel = ParallelExecutor::new(Parallelism::threads(threads)).run(batch.clone());
            assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.records_read, p.records_read);
                assert_eq!(flat_pairs(s), flat_pairs(p));
            }
        }
    }

    #[test]
    fn results_are_indexed_by_unit_not_completion() {
        // Heavily skewed sizes: late units finish long before unit 0 when
        // run concurrently; order must still match the input.
        let batch = units(&[40_000, 1, 2, 3]);
        let out = ParallelExecutor::new(Parallelism::threads(4)).run(batch);
        assert_eq!(out[0].records_read, 40_000);
        assert_eq!(out[1].records_read, 1);
        assert_eq!(out[2].records_read, 2);
        assert_eq!(out[3].records_read, 3);
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(ParallelExecutor::new(Parallelism::threads(8))
            .run(Vec::<MapUnit>::new())
            .is_empty());
    }

    #[test]
    fn more_threads_than_units_is_fine() {
        let out = ParallelExecutor::new(Parallelism::threads(64)).run(units(&[2, 4]));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn pool_survives_across_batches() {
        let mut exec = ParallelExecutor::new(Parallelism::threads(4));
        for round in 0..5 {
            let out = exec.run(units(&[round, round + 1, round + 2]));
            assert_eq!(out[0].records_read, u64::from(round));
        }
    }

    #[test]
    fn combiner_runs_on_the_worker_and_shrinks_accounting() {
        let mut batch = units(&[10]);
        batch[0].combiner = Some(Arc::new(FirstOnly));
        let out = ParallelExecutor::new(Parallelism::SERIAL).run(batch);
        assert_eq!(out[0].combiner_input_records, 10);
        assert_eq!(out[0].combiner_output_records, 1);
        assert_eq!(out[0].materialized_records(), 1);
        assert_eq!(out[0].total_outputs(), 1);
        assert_eq!(out[0].pairs.iter_pairs().count(), 1);
    }

    #[test]
    fn reduce_unit_runs_groups_in_key_order() {
        let key_b = Key::from("b");
        let key_a = Key::from("a");
        let mut groups = KeyGroups::default();
        groups.insert(
            Key::clone(&key_b),
            vec![
                Record::new(vec![Value::Int(1)]),
                Record::new(vec![Value::Int(2)]),
            ]
            .into_iter()
            .collect(),
        );
        groups.insert(
            Key::clone(&key_a),
            std::iter::once(Record::new(vec![Value::Int(3)])).collect(),
        );
        let unit = ReduceUnit {
            reducer: Arc::new(crate::exec::IdentityReducer),
            key_order: vec![key_b, key_a],
            groups,
        };
        let result = ParallelExecutor::new(Parallelism::threads(2)).run(vec![unit]);
        let keys: Vec<&str> = result[0].output.iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["b", "b", "a"]);
    }

    #[test]
    fn dropped_handles_do_not_wedge_the_pool() {
        let mut exec = ParallelExecutor::new(Parallelism::threads(2));
        // Submit and immediately drop (a failed task attempt does this).
        for unit in units(&[1_000, 1_000]) {
            drop(exec.submit(unit));
        }
        // The pool must still serve later submissions.
        let out = exec.run(units(&[7]));
        assert_eq!(out[0].records_read, 7);
    }
}
