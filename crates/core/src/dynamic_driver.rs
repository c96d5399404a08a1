//! The JobClient-side evaluation loop for dynamic jobs (paper Section IV).
//!
//! "As the job progresses, the JobClient, at regular intervals of time
//! (EvaluationInterval), retrieves all information regarding the status of
//! the job and the load on the cluster from the JobTracker. If the job has
//! made sufficient progress, as required by the policy, the JobClient
//! invokes the Input Provider…"
//!
//! [`DynamicDriver`] adapts an [`InputProvider`] plus a [`Policy`] to the
//! framework's [`GrowthDriver`] hook:
//!
//! * the **evaluation interval** comes from the policy;
//! * the **work threshold** gates provider invocations — if fewer new
//!   partitions completed since the last invocation than the threshold
//!   requires, the driver waits without consulting the provider;
//! * the **grab limit** is evaluated against the live cluster status
//!   (`TS`, `AS`) and passed to the provider to bound each increment.
//!
//! The driver may also hold a *ladder* of policies, ordered from most to
//! least aggressive, and re-select a rung at every evaluation from the
//! observed cluster utilisation — the paper's future work: "it could be
//! interesting to implement a more flexible model wherein a job could
//! decide and change the policy at runtime, based on the discovered
//! characteristics of the input data together with the existing load on
//! the cluster" (Section VII). A mostly-idle cluster gets the aggressive
//! rung (the single-user result: aggressive wins when resources would
//! otherwise idle), a busy one the conservative rung (the multi-user
//! result: conservative policies maximise shared throughput), and the
//! middle rung sits in between. The three knobs always come from the
//! *current* rung, so a job that started aggressively on an idle cluster
//! backs off as co-tenants arrive — and vice versa. A single policy is
//! the one-rung ladder.

use incmr_dfs::BlockId;
use incmr_mapreduce::{ClusterStatus, EvalContext, GrowthDirective, GrowthDriver};
use incmr_simkit::SimDuration;

use crate::input_provider::{InputProvider, InputResponse};
use crate::policy::Policy;

/// Utilisation thresholds separating a policy ladder's rungs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveThresholds {
    /// Below this busy-slot fraction the aggressive rung is used.
    pub idle_below: f64,
    /// At or above this busy-slot fraction the conservative rung is used.
    pub busy_above: f64,
}

impl Default for AdaptiveThresholds {
    fn default() -> Self {
        AdaptiveThresholds {
            idle_below: 1.0 / 3.0,
            busy_above: 2.0 / 3.0,
        }
    }
}

/// Adapter: `InputProvider` + a ladder of policies → `GrowthDriver`.
pub struct DynamicDriver {
    provider: Box<dyn InputProvider>,
    ladder: Vec<Policy>,
    thresholds: AdaptiveThresholds,
    total_input_splits: u32,
    completed_at_last_invocation: u32,
    invocations: u64,
    gated: u64,
    current_rung: usize,
    switches: u64,
}

impl DynamicDriver {
    /// Wrap a provider under a policy. `total_input_splits` is the size of
    /// the job's complete candidate input (the base for the work-threshold
    /// percentage).
    pub fn new(provider: Box<dyn InputProvider>, policy: Policy, total_input_splits: u32) -> Self {
        DynamicDriver::with_ladder(
            provider,
            vec![policy],
            AdaptiveThresholds::default(),
            total_input_splits,
        )
    }

    /// Wrap a provider under a ladder of policies ordered most- to
    /// least-aggressive, re-selecting a rung at every evaluation.
    ///
    /// # Panics
    /// Panics on an empty ladder.
    pub fn with_ladder(
        provider: Box<dyn InputProvider>,
        ladder: Vec<Policy>,
        thresholds: AdaptiveThresholds,
        total_input_splits: u32,
    ) -> Self {
        assert!(
            !ladder.is_empty(),
            "adaptive ladder needs at least one policy"
        );
        DynamicDriver {
            provider,
            ladder,
            thresholds,
            total_input_splits,
            completed_at_last_invocation: 0,
            invocations: 0,
            gated: 0,
            current_rung: 0,
            switches: 0,
        }
    }

    /// The paper-flavoured default ladder: HA on an idle cluster, MA in the
    /// mid range, LA under load.
    pub fn paper_ladder(provider: Box<dyn InputProvider>, total_input_splits: u32) -> Self {
        DynamicDriver::with_ladder(
            provider,
            vec![Policy::ha(), Policy::ma(), Policy::la()],
            AdaptiveThresholds::default(),
            total_input_splits,
        )
    }

    /// The policy in force (the current rung of the ladder).
    pub fn policy(&self) -> &Policy {
        &self.ladder[self.current_rung]
    }

    /// How many times the rung changed so far (always 0 for one policy).
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// How many times the Input Provider has actually been consulted
    /// (excluding threshold-gated skips).
    pub fn provider_invocations(&self) -> u64 {
        self.invocations
    }

    /// Evaluations the work-threshold gate answered with `Wait` without
    /// consulting the provider. Together with `provider_invocations` this
    /// explains every `Wait` entry in the runtime's decision audit log:
    /// audited `Wait`s = gated skips + provider `NoInputAvailable`s.
    pub fn gated_evaluations(&self) -> u64 {
        self.gated
    }

    fn select_rung(&self, cluster: &ClusterStatus) -> usize {
        let busy = if cluster.total_map_slots == 0 {
            1.0
        } else {
            cluster.occupied_map_slots as f64 / cluster.total_map_slots as f64
        };
        let last = self.ladder.len() - 1;
        if busy < self.thresholds.idle_below {
            0
        } else if busy >= self.thresholds.busy_above {
            last
        } else {
            last / 2
        }
    }

    fn adapt(&mut self, cluster: &ClusterStatus) {
        let rung = self.select_rung(cluster);
        if rung != self.current_rung {
            self.current_rung = rung;
            self.switches += 1;
        }
    }
}

impl GrowthDriver for DynamicDriver {
    fn initial_input(&mut self, cluster: &ClusterStatus) -> Vec<BlockId> {
        self.adapt(cluster);
        let grab = self.grab_limit(cluster);
        self.provider.initial_input(cluster, grab)
    }

    /// The current rung's grab-limit formula over the live cluster status
    /// — no re-adaptation here, so when the runtime clamps an `AddInput`
    /// directive it uses exactly the limit the provider was handed during
    /// the evaluation that produced it, and a provider that ignores its
    /// `EvalContext::grab_limit` cannot over-grab.
    fn grab_limit(&self, cluster: &ClusterStatus) -> u64 {
        self.policy()
            .grab_limit
            .evaluate(cluster.total_map_slots, cluster.available_map_slots())
    }

    fn evaluate(&mut self, ctx: EvalContext<'_>) -> GrowthDirective {
        self.adapt(ctx.cluster);
        // Work-threshold gate: "Between successive evaluations, if a job
        // has not done enough new work in terms of finishing new map tasks,
        // it may not be worthwhile for the input provider to re-evaluate."
        let progress = ctx.progress;
        let threshold = self.policy().work_threshold_splits(self.total_input_splits);
        let new_work = progress
            .splits_completed
            .saturating_sub(self.completed_at_last_invocation);
        // The gate applies between invocations, not before the first one —
        // and never blocks once the target could already be met (checking
        // that is the provider's job, which is cheap; the paper's gate
        // exists to avoid pointless re-estimation). Newly arrived blocks
        // bypass it too: the runtime delivers them exactly once, so a
        // gated skip here would drop them on the floor.
        if self.invocations > 0
            && new_work < threshold
            && progress.splits_running + progress.splits_pending > 0
            && ctx.arrived.is_empty()
        {
            self.gated += 1;
            return GrowthDirective::Wait;
        }
        self.invocations += 1;
        self.completed_at_last_invocation = progress.splits_completed;
        // Respect an already-tightened context (min), not just the policy.
        let grab = self.grab_limit(ctx.cluster).min(ctx.grab_limit);
        match self.provider.next_input(ctx.with_grab_limit(grab)) {
            InputResponse::EndOfInput => GrowthDirective::EndOfInput,
            InputResponse::InputAvailable(blocks) => GrowthDirective::AddInput(blocks),
            InputResponse::NoInputAvailable => GrowthDirective::Wait,
        }
    }

    fn evaluation_interval(&self) -> SimDuration {
        self.policy().evaluation_interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::ContinuousSampling;
    use crate::sampling_provider::SamplingInputProvider;
    use incmr_mapreduce::{JobId, JobProgress};

    fn blocks(n: u32) -> Vec<BlockId> {
        (0..n).map(BlockId).collect()
    }

    fn status(total: u32, available: u32) -> ClusterStatus {
        ClusterStatus {
            total_map_slots: total,
            occupied_map_slots: total - available,
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

    fn driver(policy: Policy, n_splits: u32, k: u64) -> DynamicDriver {
        DynamicDriver::new(
            Box::new(SamplingInputProvider::new(blocks(n_splits), k, 1)),
            policy,
            n_splits,
        )
    }

    #[test]
    fn initial_grab_follows_policy_and_cluster() {
        // C on an idle 40-slot cluster: 0.1*40 = 4 splits.
        let mut d = driver(Policy::conservative(), 40, 100);
        assert_eq!(d.initial_input(&status(40, 40)).len(), 4);
        // Hadoop: everything.
        let mut d = driver(Policy::hadoop(), 40, 100);
        assert_eq!(d.initial_input(&status(40, 40)).len(), 40);
        // HA under full load: max(0.5*40, 0) = 20.
        let mut d = driver(Policy::ha(), 40, 100);
        assert_eq!(d.initial_input(&status(40, 0)).len(), 20);
    }

    #[test]
    fn work_threshold_gates_provider_invocations() {
        // LA: 10% of 40 splits = 4 completions required between invocations.
        let mut d = driver(Policy::la(), 40, 1_000_000);
        let _ = d.initial_input(&status(40, 40)); // 8 splits (0.2*40)
                                                  // First evaluation always consults the provider.
        let _ = d.evaluate(EvalContext::unlimited(
            &progress(8, 1, 1_000, 1),
            &status(40, 32),
        ));
        assert_eq!(d.provider_invocations(), 1);
        // Only 2 new completions since: gated.
        let dir = d.evaluate(EvalContext::unlimited(
            &progress(8, 3, 3_000, 3),
            &status(40, 32),
        ));
        assert_eq!(dir, GrowthDirective::Wait);
        assert_eq!(d.provider_invocations(), 1);
        assert_eq!(d.gated_evaluations(), 1, "the skip is accounted for");
        // 5 new completions: invoked again.
        let _ = d.evaluate(EvalContext::unlimited(
            &progress(8, 6, 6_000, 6),
            &status(40, 34),
        ));
        assert_eq!(d.provider_invocations(), 2);
        assert_eq!(d.gated_evaluations(), 1);
    }

    #[test]
    fn gate_lifts_when_nothing_is_outstanding() {
        // Even below the threshold, a job with no running/pending maps must
        // consult the provider or it would stall forever.
        let mut d = driver(Policy::conservative(), 40, 1_000_000);
        let _ = d.initial_input(&status(40, 40));
        let _ = d.evaluate(EvalContext::unlimited(
            &progress(4, 1, 1_000, 1),
            &status(40, 40),
        ));
        let before = d.provider_invocations();
        let dir = d.evaluate(EvalContext::unlimited(
            &progress(4, 4, 4_000, 4),
            &status(40, 40),
        ));
        assert_eq!(d.provider_invocations(), before + 1);
        assert!(matches!(dir, GrowthDirective::AddInput(_)));
    }

    #[test]
    fn k_reached_propagates_end_of_input() {
        let mut d = driver(Policy::ha(), 40, 10);
        let _ = d.initial_input(&status(40, 40));
        let dir = d.evaluate(EvalContext::unlimited(
            &progress(40, 10, 10_000, 50),
            &status(40, 30),
        ));
        assert_eq!(dir, GrowthDirective::EndOfInput);
    }

    #[test]
    fn evaluation_interval_comes_from_policy() {
        let d = driver(Policy::ma(), 40, 10);
        assert_eq!(d.evaluation_interval(), Policy::ma().evaluation_interval);
    }

    #[test]
    fn hadoop_policy_ends_input_immediately_after_grabbing_all() {
        let mut d = driver(Policy::hadoop(), 40, 10);
        assert_eq!(d.initial_input(&status(40, 40)).len(), 40);
        let dir = d.evaluate(EvalContext::unlimited(
            &progress(40, 0, 0, 0),
            &status(40, 0),
        ));
        assert_eq!(dir, GrowthDirective::EndOfInput, "pool exhausted");
    }

    fn ladder_driver(n: u32, k: u64) -> DynamicDriver {
        DynamicDriver::paper_ladder(Box::new(SamplingInputProvider::new(blocks(n), k, 1)), n)
    }

    #[test]
    fn rung_selection_tracks_utilisation() {
        let d = ladder_driver(40, 100);
        assert_eq!(d.select_rung(&status(40, 40)), 0, "idle → aggressive");
        assert_eq!(d.select_rung(&status(40, 20)), 1, "half busy → middle");
        assert_eq!(d.select_rung(&status(40, 0)), 2, "saturated → conservative");
        assert_eq!(
            d.select_rung(&status(0, 0)),
            2,
            "degenerate cluster counts as busy"
        );
    }

    #[test]
    fn initial_grab_matches_selected_rung() {
        // Idle: HA grab = max(0.5*40, 40) = 40 → all 30 splits.
        let mut d = ladder_driver(30, 1_000_000);
        assert_eq!(d.initial_input(&status(40, 40)).len(), 30);
        assert_eq!(d.policy().name, "HA");
        // Saturated: LA grab = 0.1*TS = 4 (AS = 0).
        let mut d = ladder_driver(30, 1_000_000);
        assert_eq!(d.initial_input(&status(40, 0)).len(), 4);
        assert_eq!(d.policy().name, "LA");
    }

    #[test]
    fn rung_switches_are_counted() {
        let mut d = ladder_driver(40, 1_000_000);
        let _ = d.initial_input(&status(40, 40)); // HA
        assert_eq!(d.switches(), 0, "starting rung is not a switch");
        let p = progress(40, 10, 10_000, 10);
        let _ = d.evaluate(EvalContext::unlimited(&p, &status(40, 0))); // now saturated → LA
        assert_eq!(d.policy().name, "LA");
        assert_eq!(d.switches(), 1);
        let _ = d.evaluate(EvalContext::unlimited(&p, &status(40, 40))); // idle again → HA
        assert_eq!(d.switches(), 2);
    }

    #[test]
    fn interval_follows_the_current_rung() {
        let mut ladder = vec![Policy::ha(), Policy::la()];
        ladder[0].evaluation_interval = SimDuration::from_secs(2);
        ladder[1].evaluation_interval = SimDuration::from_secs(8);
        let mut d = DynamicDriver::with_ladder(
            Box::new(SamplingInputProvider::new(blocks(10), 5, 1)),
            ladder,
            AdaptiveThresholds::default(),
            10,
        );
        let _ = d.initial_input(&status(40, 40));
        assert_eq!(d.evaluation_interval(), SimDuration::from_secs(2));
        let _ = d.evaluate(EvalContext::unlimited(
            &progress(10, 1, 100, 0),
            &status(40, 0),
        ));
        assert_eq!(d.evaluation_interval(), SimDuration::from_secs(8));
    }

    #[test]
    #[should_panic(expected = "at least one policy")]
    fn empty_ladder_panics() {
        let _ = DynamicDriver::with_ladder(
            Box::new(SamplingInputProvider::new(blocks(1), 1, 1)),
            vec![],
            AdaptiveThresholds::default(),
            1,
        );
    }

    /// Arrivals are delivered exactly once, so the work-threshold gate
    /// must let them through on a ladder too: a standing query whose
    /// evaluation carries new blocks consults its provider even when too
    /// little work completed since the last invocation.
    #[test]
    fn arrivals_bypass_the_gate_on_a_ladder() {
        let mut d = DynamicDriver::with_ladder(
            Box::new(ContinuousSampling::new(blocks(40), 1_000_000, 1)),
            vec![Policy::ha(), Policy::la()],
            AdaptiveThresholds::default(),
            40,
        );
        let _ = d.initial_input(&status(40, 0)); // saturated → LA
        let _ = d.evaluate(EvalContext::unlimited(
            &progress(4, 1, 1_000, 1),
            &status(40, 0),
        ));
        assert_eq!(d.provider_invocations(), 1);
        // One more completion, below LA's 4-split threshold, with maps
        // still running — but two blocks arrived.
        let arrived = [BlockId(40), BlockId(41)];
        let _ = d.evaluate(
            EvalContext::unlimited(&progress(4, 2, 2_000, 2), &status(40, 0))
                .with_arrived(&arrived),
        );
        assert_eq!(d.policy().name, "LA");
        assert_eq!(d.gated_evaluations(), 0, "arrivals must reach the provider");
        assert_eq!(d.provider_invocations(), 2);
    }
}
