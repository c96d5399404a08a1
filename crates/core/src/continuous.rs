//! Standing-query mode for dynamic sampling jobs (DESIGN.md §13).
//!
//! A [`ContinuousSampling`] provider behaves exactly like the paper's
//! [`SamplingInputProvider`] — random uniform draws, selectivity-driven
//! increments — with one difference at the boundary: when the unprocessed
//! pool drains *before* the sample target `k` is met, it answers
//! `NoInputAvailable` instead of `EndOfInput`. Under
//! `settings.continuous`, the runtime then **parks** the job (no
//! evaluation tick, no heartbeats once nothing else is active) and
//! re-awakens it from `MrRuntime::evolve` when new blocks land in the
//! namespace; those blocks arrive through [`EvalContext::arrived`] and are
//! folded into the pool here. The query completes — reduce phase, sample
//! delivered — only once `k` matches have been produced.
//!
//! The wakeup protocol end to end:
//!
//! 1. provider drains its pool below `k` → `NoInputAvailable`;
//! 2. runtime sees a continuous job with nothing running, pending, or
//!    arrived → parks it (and lets heartbeat chains expire when every
//!    active job is parked);
//! 3. `MrRuntime::evolve` appends blocks → records `InputArrived`, pushes
//!    the new ids into the job's arrival buffer, schedules an immediate
//!    re-evaluation;
//! 4. the evaluation's context carries the arrivals (exactly once) → this
//!    provider extends its pool and the draw cycle resumes.

use incmr_dfs::BlockId;
use incmr_mapreduce::{ClusterStatus, EvalContext};

use crate::input_provider::{InputProvider, InputResponse};
use crate::sampling_provider::SamplingInputProvider;

/// A [`SamplingInputProvider`] that stands instead of ending input when
/// its pool drains short of `k`. Pair with `settings.continuous = true`
/// so the runtime parks and wakes the job rather than wedging it.
pub struct ContinuousSampling {
    inner: SamplingInputProvider,
}

impl ContinuousSampling {
    /// A standing sampling query over an initial candidate pool (possibly
    /// empty — the query can start before any data exists), targeting `k`
    /// sample records. `seed` drives the random split selection.
    pub fn new(initial_splits: Vec<BlockId>, k: u64, seed: u64) -> Self {
        ContinuousSampling {
            inner: SamplingInputProvider::new(initial_splits, k, seed),
        }
    }

    /// The target sample size.
    pub fn sample_size(&self) -> u64 {
        self.inner.sample_size()
    }

    /// Splits handed out so far (initial grab plus every increment).
    pub fn splits_granted(&self) -> u64 {
        self.inner.splits_granted()
    }
}

impl InputProvider for ContinuousSampling {
    fn initial_input(&mut self, cluster: &ClusterStatus, grab_limit: u64) -> Vec<BlockId> {
        self.inner.initial_input(cluster, grab_limit)
    }

    fn next_input(&mut self, ctx: EvalContext<'_>) -> InputResponse {
        if !ctx.arrived.is_empty() {
            self.inner.extend_pool(ctx.arrived.iter().copied());
        }
        match self.inner.next_input(ctx) {
            // The pool drained below `k`: stand (park) rather than end the
            // query — `evolve` growth refills the pool. `k` already met
            // still ends input, completing the standing query.
            InputResponse::EndOfInput
                if ctx.progress.map_output_records < self.inner.sample_size() =>
            {
                InputResponse::NoInputAvailable
            }
            response => response,
        }
    }

    fn remaining(&self) -> usize {
        self.inner.remaining()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incmr_mapreduce::{JobId, JobProgress};

    fn blocks(range: std::ops::Range<u32>) -> Vec<BlockId> {
        range.map(BlockId).collect()
    }

    fn status() -> ClusterStatus {
        ClusterStatus {
            total_map_slots: 40,
            occupied_map_slots: 0,
            running_jobs: 1,
            queued_map_tasks: 0,
        }
    }

    fn progress(added: u32, completed: u32, records: u64, matches: u64) -> JobProgress {
        JobProgress {
            job: JobId(0),
            splits_added: added,
            splits_completed: completed,
            splits_running: added - completed,
            splits_pending: 0,
            records_processed: records,
            map_output_records: matches,
        }
    }

    #[test]
    fn drained_pool_below_k_stands_instead_of_ending() {
        let mut p = ContinuousSampling::new(blocks(0..4), 100, 1);
        assert_eq!(p.initial_input(&status(), 4).len(), 4);
        assert_eq!(p.remaining(), 0);
        let r = p.next_input(EvalContext::unlimited(
            &progress(4, 4, 4_000, 10),
            &status(),
        ));
        assert_eq!(
            r,
            InputResponse::NoInputAvailable,
            "pool empty, k unmet: stand"
        );
    }

    #[test]
    fn k_met_still_ends_input() {
        let mut p = ContinuousSampling::new(blocks(0..4), 10, 1);
        p.initial_input(&status(), 4);
        let r = p.next_input(EvalContext::unlimited(
            &progress(4, 4, 4_000, 10),
            &status(),
        ));
        assert_eq!(r, InputResponse::EndOfInput, "target met: query completes");
    }

    #[test]
    fn arrived_blocks_refill_the_pool_and_are_drawn() {
        let mut p = ContinuousSampling::new(blocks(0..2), 1_000, 1);
        p.initial_input(&status(), 2);
        assert_eq!(p.remaining(), 0);
        let fresh = blocks(2..6);
        let prog = progress(2, 2, 2_000, 5);
        let st = status();
        let ctx = EvalContext::unlimited(&prog, &st).with_arrived(&fresh);
        let r = p.next_input(ctx);
        let InputResponse::InputAvailable(drawn) = r else {
            panic!("arrivals should be drawable: {r:?}");
        };
        assert!(!drawn.is_empty());
        assert!(drawn.iter().all(|b| b.0 >= 2), "drawn from the arrivals");
        assert_eq!(p.remaining() + drawn.len(), 4, "nothing lost");
    }

    #[test]
    fn empty_initial_pool_is_allowed() {
        let mut p = ContinuousSampling::new(Vec::new(), 10, 1);
        assert!(p.initial_input(&status(), 8).is_empty());
        let r = p.next_input(EvalContext::unlimited(&progress(0, 0, 0, 0), &status()));
        assert_eq!(r, InputResponse::NoInputAvailable);
    }
}
