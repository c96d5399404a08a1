//! Output: the human-readable summary, the full layer breakdown, and the
//! one-line JSON result that ends standard output.

use std::fmt::Write as _;

use crate::run::{Metric, Report};

/// The per-layer metrics the JSON line carries: those every workload
/// exercises, so each reads a measured value on every workload. The rest
/// of the breakdown goes to the layer report file.
pub const PER_LAYER: [&str; 14] = [
    "frontend.ns_per_stmt",
    "mapreduce.parallel.map_unit.ns_per_stmt",
    "mapreduce.shuffle.merge.ns_per_stmt",
    "mapreduce.parallel.reduce_unit.ns_per_stmt",
    "mapreduce.scheduler.assign.ns_per_stmt",
    "mapreduce.runtime.loop_self.ns_per_stmt",
    "mapreduce.scheduler.assign.calls_per_stmt",
    "mapreduce.scheduler.assignments_per_call",
    "mapreduce.splits_per_stmt",
    "mapreduce.records_read_per_stmt",
    "hiveql.rows_per_stmt",
    "mapreduce.memo.reuse_ratio",
    "trace.overhead_frac",
    "trace.unattributed_frac",
];

fn json_number(v: f64) -> String {
    // `{}` prints the shortest representation that reads back exactly.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_metrics<'a>(metrics: impl Iterator<Item = &'a Metric>) -> String {
    metrics
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// The result line: end-to-end metrics untraced, [`PER_LAYER`] traced.
pub fn json_line(report: &Report, traced: bool) -> String {
    let metrics = if traced {
        json_metrics(PER_LAYER.iter().map(|name| {
            report
                .layers
                .iter()
                .find(|m| m.name == *name)
                .expect("every per-layer metric is computed")
        }))
    } else {
        json_metrics(report.end_to_end.iter())
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct, report.attempted, report.failed
    )
}

/// Every layer metric as a JSON object, for the layer report file.
pub fn layers_json(report: &Report) -> String {
    format!("{{{}}}\n", json_metrics(report.layers.iter()))
}

/// The summary printed above the result line.
pub fn human(report: &Report, workload: &str, seed: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "e2ebench {workload} seed {seed}: {} measured episodes, {} statements, digest {:016x}",
        report.episodes, report.statements, report.digest
    );
    for m in report
        .end_to_end
        .iter()
        .chain(&report.notes)
        .chain(&report.layers)
    {
        let _ = writeln!(out, "  {:<48} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for e in &report.errors {
        let _ = writeln!(out, "  FAILED: {e}");
    }
    out
}
