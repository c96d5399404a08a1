//! The Input Provider for error-bounded approximate aggregation
//! (DESIGN.md §15): the EARL-style generalisation of predicate-based
//! sampling where the job grows until a CLT error bound holds instead of
//! until `k` matches are found.
//!
//! Behaviour, step by step:
//!
//! * splits are drawn **uniformly at random** from the unprocessed pool
//!   (the same randomisation argument as sampling — the estimator treats
//!   splits as cluster-sampling units, so the draw must be unbiased);
//! * the runtime folds per-group accumulators from completed map output
//!   and hands the provider its latest probe through
//!   [`EvalContext::agg`]; when the probe reports the bound met, respond
//!   **end of input** — the early stop;
//! * the provider grabs splits in **rounds**: while any scheduled split
//!   is still running or pending it responds *no input available*, so
//!   every draw is sized by statistics over a completed round;
//! * each round draws the probe's suggested split count (the CLT growth
//!   projection), capped by the policy's grab limit, never fewer than
//!   one split;
//! * a configurable round budget bounds the growth loop: once spent, the
//!   provider ends input and the runtime classifies the finish as
//!   `BudgetExhausted`.

use incmr_dfs::BlockId;
use incmr_mapreduce::{ClusterStatus, EvalContext};
use incmr_simkit::rng::DetRng;
use rand::Rng;

use crate::input_provider::{InputProvider, InputResponse};

/// Splits the initial grab always reaches for (matching the estimator's
/// minimum probe size: fewer completed splits than this can never resolve
/// a variance estimate).
pub const INITIAL_AGG_SPLITS: u64 = 4;

/// Input Provider implementing the error-bounded growth loop.
pub struct EstimatingInputProvider {
    pool: Vec<BlockId>,
    rng: DetRng,
    granted: u64,
    rounds_budget: u64,
    rounds_used: u64,
}

impl EstimatingInputProvider {
    /// Create a provider over the job's complete candidate input. `seed`
    /// drives the random split selection; `rounds_budget` bounds how many
    /// growth rounds `next_input` may spend (≥ 1; see
    /// [`DEFAULT_AGG_ROUNDS`](incmr_mapreduce::DEFAULT_AGG_ROUNDS)).
    pub fn new(all_splits: Vec<BlockId>, rounds_budget: u64, seed: u64) -> Self {
        assert!(rounds_budget >= 1, "round budget must be positive");
        EstimatingInputProvider {
            pool: all_splits,
            rng: DetRng::seed_from(seed),
            granted: 0,
            rounds_budget,
            rounds_used: 0,
        }
    }

    /// Total splits handed out so far (initial grab plus every round).
    pub fn splits_granted(&self) -> u64 {
        self.granted
    }

    /// Growth rounds spent so far (the initial grab is round zero and
    /// does not count against the budget).
    pub fn rounds_used(&self) -> u64 {
        self.rounds_used
    }

    /// Draw up to `n` splits uniformly at random from the unprocessed pool.
    fn draw(&mut self, n: u64) -> Vec<BlockId> {
        let take = (n.min(self.pool.len() as u64)) as usize;
        for i in 0..take {
            let j = self.rng.gen_range(i..self.pool.len());
            self.pool.swap(i, j);
        }
        self.granted += take as u64;
        self.pool.drain(..take).collect()
    }
}

impl InputProvider for EstimatingInputProvider {
    fn initial_input(&mut self, _cluster: &ClusterStatus, grab_limit: u64) -> Vec<BlockId> {
        // Seed the estimator: at least the minimum probe size, or the
        // first rounds would be spent below the variance threshold.
        self.draw(grab_limit.max(INITIAL_AGG_SPLITS))
    }

    fn next_input(&mut self, ctx: EvalContext<'_>) -> InputResponse {
        // The runtime's probe is the sole stopping authority. A missing
        // probe means this provider was attached to a job without a
        // bounded `AggPlan` — treat it as "no statistics yet".
        if let Some(probe) = ctx.agg {
            if probe.bound_met {
                return InputResponse::EndOfInput;
            }
        }
        if self.pool.is_empty() {
            return InputResponse::EndOfInput;
        }
        // Clean rounds: grow only over completed statistics, so each
        // draw's size is a pure function of a finished round.
        let outstanding = ctx.progress.splits_running + ctx.progress.splits_pending;
        if outstanding > 0 {
            return InputResponse::NoInputAvailable;
        }
        let Some(probe) = ctx.agg else {
            return InputResponse::NoInputAvailable;
        };
        if probe.completed == 0 {
            // Nothing completed and nothing outstanding: the initial grab
            // was lost (fault plane); re-seed.
            let drawn = self.draw(ctx.grab_limit.max(INITIAL_AGG_SPLITS));
            return InputResponse::InputAvailable(drawn);
        }
        if self.rounds_used >= self.rounds_budget {
            // Budget spent: settle for the estimate at hand.
            return InputResponse::EndOfInput;
        }
        self.rounds_used += 1;
        let want = probe.suggested_splits.min(ctx.grab_limit).max(1);
        let drawn = self.draw(want);
        if drawn.is_empty() {
            InputResponse::NoInputAvailable
        } else {
            InputResponse::InputAvailable(drawn)
        }
    }

    fn remaining(&self) -> usize {
        self.pool.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incmr_mapreduce::{AggProbe, JobId, JobProgress};
    use incmr_simkit::SimTime;

    fn blocks(n: u32) -> Vec<BlockId> {
        (0..n).map(BlockId).collect()
    }

    fn status() -> ClusterStatus {
        ClusterStatus {
            total_map_slots: 40,
            occupied_map_slots: 0,
            running_jobs: 1,
            queued_map_tasks: 0,
        }
    }

    fn progress(added: u32, completed: u32) -> JobProgress {
        JobProgress {
            job: JobId(0),
            splits_added: added,
            splits_completed: completed,
            splits_running: added - completed,
            splits_pending: 0,
            records_processed: 1_000 * completed as u64,
            map_output_records: completed as u64,
        }
    }

    fn probe(completed: u32, bound_met: bool, suggested: u64) -> AggProbe {
        AggProbe {
            job: JobId(0),
            completed,
            total: 100,
            groups: 3,
            bound_met,
            worst_rel: if bound_met { 0.01 } else { 0.2 },
            suggested_splits: suggested,
            at: SimTime::ZERO,
        }
    }

    #[test]
    fn initial_grab_reaches_minimum_probe_size() {
        let mut p = EstimatingInputProvider::new(blocks(100), 8, 1);
        assert_eq!(p.initial_input(&status(), 0).len(), 4);
        let mut q = EstimatingInputProvider::new(blocks(100), 8, 1);
        assert_eq!(q.initial_input(&status(), 10).len(), 10);
    }

    #[test]
    fn bound_met_ends_input_immediately() {
        let mut p = EstimatingInputProvider::new(blocks(100), 8, 1);
        p.initial_input(&status(), 4);
        let pr = probe(4, true, 0);
        let r = p.next_input(
            EvalContext::unlimited(&progress(4, 4), &status())
                .with_grab_limit(8)
                .with_agg(Some(&pr)),
        );
        assert_eq!(r, InputResponse::EndOfInput);
        assert_eq!(p.remaining(), 96, "no splits drawn past the bound");
    }

    #[test]
    fn waits_for_a_clean_round() {
        let mut p = EstimatingInputProvider::new(blocks(100), 8, 1);
        p.initial_input(&status(), 4);
        let pr = probe(2, false, 10);
        let r = p.next_input(
            EvalContext::unlimited(&progress(4, 2), &status())
                .with_grab_limit(8)
                .with_agg(Some(&pr)),
        );
        assert_eq!(r, InputResponse::NoInputAvailable);
    }

    #[test]
    fn grows_by_suggested_splits_capped_by_grab_limit() {
        let mut p = EstimatingInputProvider::new(blocks(100), 8, 1);
        p.initial_input(&status(), 4);
        let pr = probe(4, false, 20);
        let r = p.next_input(
            EvalContext::unlimited(&progress(4, 4), &status())
                .with_grab_limit(6)
                .with_agg(Some(&pr)),
        );
        let InputResponse::InputAvailable(got) = r else {
            panic!("expected growth");
        };
        assert_eq!(got.len(), 6, "20 suggested, 6 allowed");
        assert_eq!(p.rounds_used(), 1);
    }

    #[test]
    fn budget_exhaustion_ends_input() {
        let mut p = EstimatingInputProvider::new(blocks(100), 2, 1);
        p.initial_input(&status(), 4);
        for round in 1..=2u32 {
            let pr = probe(4 * round, false, 4);
            let r = p.next_input(
                EvalContext::unlimited(&progress(4 * round, 4 * round), &status())
                    .with_grab_limit(8)
                    .with_agg(Some(&pr)),
            );
            assert!(matches!(r, InputResponse::InputAvailable(_)));
        }
        let pr = probe(12, false, 4);
        let r = p.next_input(
            EvalContext::unlimited(&progress(12, 12), &status())
                .with_grab_limit(8)
                .with_agg(Some(&pr)),
        );
        assert_eq!(r, InputResponse::EndOfInput, "budget of 2 rounds spent");
    }

    #[test]
    fn exhausted_pool_ends_input() {
        let mut p = EstimatingInputProvider::new(blocks(4), 8, 1);
        p.initial_input(&status(), 10);
        assert_eq!(p.remaining(), 0);
        let pr = probe(4, false, 10);
        let r = p.next_input(
            EvalContext::unlimited(&progress(4, 4), &status())
                .with_grab_limit(8)
                .with_agg(Some(&pr)),
        );
        assert_eq!(r, InputResponse::EndOfInput);
    }

    #[test]
    fn missing_probe_waits() {
        let mut p = EstimatingInputProvider::new(blocks(100), 8, 1);
        p.initial_input(&status(), 4);
        let r = p.next_input(EvalContext::unlimited(&progress(4, 4), &status()).with_grab_limit(8));
        assert_eq!(r, InputResponse::NoInputAvailable);
    }

    #[test]
    fn lost_initial_grab_reseeds() {
        let mut p = EstimatingInputProvider::new(blocks(100), 8, 1);
        p.initial_input(&status(), 4);
        let pr = probe(0, false, 0);
        let r = p.next_input(
            EvalContext::unlimited(&progress(0, 0), &status())
                .with_grab_limit(0)
                .with_agg(Some(&pr)),
        );
        let InputResponse::InputAvailable(got) = r else {
            panic!("expected a re-seed");
        };
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn draws_never_repeat_and_are_seed_deterministic() {
        let run = |seed| {
            let mut p = EstimatingInputProvider::new(blocks(50), 16, seed);
            let mut seen = Vec::new();
            seen.extend(p.initial_input(&status(), 5));
            let mut completed = 5u32;
            loop {
                let pr = probe(completed, false, 7);
                match p.next_input(
                    EvalContext::unlimited(&progress(completed, completed), &status())
                        .with_grab_limit(7)
                        .with_agg(Some(&pr)),
                ) {
                    InputResponse::InputAvailable(bs) => {
                        completed += bs.len() as u32;
                        seen.extend(bs);
                    }
                    _ => break,
                }
            }
            seen
        };
        let a = run(9);
        let mut uniq = std::collections::HashSet::new();
        for b in &a {
            assert!(uniq.insert(*b), "split handed out twice");
        }
        assert_eq!(a, run(9), "same seed, same draws");
        assert_ne!(a, run(10), "different seed, different order");
    }

    #[test]
    #[should_panic(expected = "round budget must be positive")]
    fn zero_budget_panics() {
        let _ = EstimatingInputProvider::new(blocks(1), 0, 1);
    }
}
