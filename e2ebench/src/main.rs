//! Command line: run one workload and print its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload sample_planted --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the JSON result. Exit status 0
//! means every answer matched the oracle, 1 that one did not, 2 a usage
//! error.

use std::path::PathBuf;
use std::process::ExitCode;

use incmr_e2ebench::report::{human, json_line, layers_json};
use incmr_e2ebench::trace::write_spans;
use incmr_e2ebench::{run, Options, Sizes, Workload};

const USAGE: &str =
    "usage: incmr-e2ebench --workload <sample_planted|scan_full|agg_evolve|service_mixed> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Spans kept for the JSONL file; layer totals cover every span.
const KEEP_SPANS: usize = 200_000;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--bench" {
            continue; // appended by `cargo bench`
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        sizes: Sizes::bench(workload),
        keep_spans: KEEP_SPANS,
    })
}

/// `<target dir>/bench-e2e`, next to the build this binary came from.
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("bench-e2e")))
        .unwrap_or_else(|| PathBuf::from("target/bench-e2e"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    let name = opts.workload.name();
    print!("{}", human(&report, name, opts.seed));
    if opts.trace {
        let dir = out_dir();
        let stem = format!("{name}-{}", opts.seed);
        let spans = dir.join(format!("{stem}.spans.jsonl"));
        let layers = dir.join(format!("{stem}.layers.json"));
        let written = write_spans(&spans, &report.spans)
            .and_then(|()| std::fs::write(&layers, layers_json(&report)));
        match written {
            Ok(()) => println!(
                "  spans: {}\n  layers: {}",
                spans.display(),
                layers.display()
            ),
            Err(e) => eprintln!("could not write the trace files: {e}"),
        }
    }
    println!("{}", json_line(&report, opts.trace));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_documented_command_line() {
        let o = parse(&args(
            "--workload scan_full --seed 7 --seconds 12 --trace 1 --bench",
        ))
        .unwrap();
        assert_eq!(o.workload, Workload::ScanFull);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 12.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload scan_full --trace 2",
            "--workload scan_full --seconds -1",
            "--workload scan_full --seed",
            "--workload scan_full --frobnicate 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
