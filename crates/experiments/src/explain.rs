//! Observability-backed explanations for the multi-user figures.
//!
//! The figure modules report *aggregates* — jobs/hour, utilisation,
//! locality. When a cell looks off (why did LA's throughput dip at this
//! fraction? what was the cluster doing?), re-run the cell through these
//! helpers: they execute the identical configuration with the runtime's
//! trace buffer, decision audit log, and latency histograms enabled, and
//! render a per-node swimlane timeline plus the provider decisions and
//! latency quantiles behind the aggregate numbers.

use incmr_core::Policy;
use incmr_data::SkewLevel;
use incmr_mapreduce::{render_audit, render_swimlanes, FifoScheduler, MrRuntime, TaskScheduler};
use incmr_workload::{run_workload, WorkloadReport, WorkloadSpec};

use crate::calibration::Calibration;

/// How many time buckets the swimlane renderer collapses a run into.
const SWIMLANE_BUCKETS: usize = 64;

/// Everything the observability plane captured about one re-run cell.
#[derive(Debug, Clone)]
pub struct RunExplanation {
    /// What the cell was, e.g. `fig6 skew=0 policy=LA`.
    pub label: String,
    /// The workload report of the explanatory re-run (identical to the
    /// figure's own numbers for the same calibration).
    pub report: WorkloadReport,
    /// Per-node/per-slot swimlane timeline of the whole run.
    pub swimlanes: String,
    /// The provider-decision audit log, one line per evaluation.
    pub audit: String,
    /// Rendered latency histograms (map, shuffle, reduce, queue waits…).
    pub histograms: String,
    /// Number of audited evaluations (lines in `audit`).
    pub evaluations: usize,
}

impl RunExplanation {
    /// One report: swimlanes, then decisions, then latency quantiles.
    pub fn render(&self) -> String {
        format!(
            "EXPLAIN {}\n\n{}\nPROVIDER DECISIONS ({} evaluations)\n{}\nLATENCY HISTOGRAMS\n{}",
            self.label, self.swimlanes, self.evaluations, self.audit, self.histograms
        )
    }
}

fn explain_workload(label: String, mut rt: MrRuntime, spec: &WorkloadSpec) -> RunExplanation {
    rt.enable_tracing();
    rt.enable_audit();
    let report = run_workload(&mut rt, spec);
    let events = rt.take_trace();
    let audit = rt.take_audit();
    RunExplanation {
        label,
        report,
        swimlanes: render_swimlanes(&events, SWIMLANE_BUCKETS),
        audit: render_audit(&audit),
        histograms: rt.histograms().render(),
        evaluations: audit.len(),
    }
}

/// Re-run one Figure 6 cell (homogeneous workload: every user samples
/// under `policy` against a copy with `skew`) with observability on.
pub fn explain_fig6_cell(cal: &Calibration, skew: SkewLevel, policy: &Policy) -> RunExplanation {
    let (ns, datasets) = cal.build_copies(skew, 7_000 + skew.z() as u64);
    let rt = MrRuntime::new(
        cal.cluster_multi,
        cal.cost,
        ns,
        Box::new(FifoScheduler::new()),
    );
    let spec =
        WorkloadSpec::homogeneous(datasets, cal.k, policy.clone(), cal.warmup, cal.measure, 11);
    explain_workload(
        format!("fig6 skew={skew} policy={}", policy.name),
        rt,
        &spec,
    )
}

/// Re-run one Figure 7/8 cell (heterogeneous workload at `fraction`
/// sampling users under `policy`) with observability on. Pass the same
/// scheduler the figure used (FIFO for Figure 7, Fair for Figure 8).
pub fn explain_hetero_cell(
    cal: &Calibration,
    fraction: f64,
    policy: &Policy,
    scheduler: Box<dyn TaskScheduler>,
) -> RunExplanation {
    let sampling_users = ((cal.users as f64) * fraction).round() as usize;
    let (ns, datasets) = cal.build_copies(SkewLevel::Zero, 9_000 + (fraction * 10.0) as u64);
    let name = scheduler.name();
    let rt = MrRuntime::new(cal.cluster_multi, cal.cost, ns, scheduler);
    let spec = WorkloadSpec::heterogeneous(
        datasets,
        sampling_users,
        cal.k,
        policy.clone(),
        cal.warmup,
        cal.measure,
        13,
    );
    explain_workload(
        format!(
            "fig7 fraction={fraction} policy={} scheduler={name}",
            policy.name
        ),
        rt,
        &spec,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Calibration {
        let mut cal = Calibration::quick();
        // One user and a short window: the explanation's value is its
        // detail, not its statistical weight.
        cal.users = 2;
        cal.warmup = incmr_simkit::SimDuration::from_mins(1);
        cal.measure = incmr_simkit::SimDuration::from_mins(6);
        cal
    }

    #[test]
    fn fig6_explanation_reconstructs_the_cell() {
        let cal = tiny();
        let e = explain_fig6_cell(&cal, SkewLevel::Zero, &Policy::la());
        assert!(e.report.sampling_completed > 0);
        assert!(e.evaluations > 0, "audited provider decisions");
        let out = e.render();
        assert!(out.contains("EXPLAIN fig6"));
        assert!(out.contains("node0"), "swimlane lanes present");
        assert!(out.contains("directive="), "audit lines present");
        assert!(out.contains("map_attempt_ms"), "histograms present");
        assert!(out.contains("queue_wait_ms[fifo]"), "scheduler-keyed waits");
    }

    #[test]
    fn hetero_explanation_names_its_scheduler() {
        let cal = tiny();
        let e = explain_hetero_cell(&cal, 0.5, &Policy::la(), Box::new(FifoScheduler::new()));
        assert!(e.label.contains("scheduler=fifo"));
        assert!(e.report.sampling_completed + e.report.non_sampling_completed > 0);
        assert!(e.render().contains("PROVIDER DECISIONS"));
    }
}
