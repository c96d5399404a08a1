//! `incmr` — an interactive HiveQL shell over a simulated cluster.
//!
//! ```text
//! cargo run --release --bin incmr -- --partitions 40 --records 20000 --skew 2 --full-scan
//! cargo run --release --bin incmr -- -e "SELECT COUNT(*) FROM lineitem WHERE L_TAX = 0.77"
//! ```
//!
//! Builds a LINEITEM-style dataset on the paper's 10-node cluster, registers
//! it as `lineitem`, and executes statements — from `-e` arguments or,
//! without them, a line-oriented REPL on stdin.

use std::io::{BufRead, Write};
use std::sync::Arc;

use incmr::prelude::*;

#[derive(Debug)]
struct Options {
    partitions: u32,
    records: u64,
    skew: SkewLevel,
    seed: u64,
    full_scan: bool,
    statements: Vec<String>,
}

const USAGE: &str = "usage: incmr [--partitions N] [--records N] [--skew 0|1|2] [--seed N] [--full-scan] [-e SQL]...\n\
     without -e, reads statements from stdin (one per line; 'quit' exits)";

/// A count that must be at least 1: the dataset needs partitions and
/// records to plant its matches in.
fn positive<T: std::str::FromStr + PartialEq + From<u8>>(
    flag: &str,
    value: &str,
) -> Result<T, String> {
    match value.parse::<T>() {
        Ok(n) if n != T::from(0) => Ok(n),
        Ok(_) => Err(format!("{flag} must be at least 1")),
        Err(_) => Err(format!("bad {flag} {value:?}")),
    }
}

/// Parse the arguments after the program name. `Err` carries the message
/// to print above the usage text (empty for `--help`).
fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        partitions: 40,
        records: 20_000,
        skew: SkewLevel::High,
        seed: 7,
        full_scan: false,
        statements: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--partitions" => opts.partitions = positive("--partitions", value("--partitions")?)?,
            "--records" => opts.records = positive("--records", value("--records")?)?,
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--skew" => {
                opts.skew = match value("--skew")?.as_str() {
                    "0" => SkewLevel::Zero,
                    "1" => SkewLevel::Moderate,
                    "2" => SkewLevel::High,
                    other => return Err(format!("--skew takes 0, 1 or 2, got {other:?}")),
                }
            }
            "--full-scan" => opts.full_scan = true,
            "-e" => opts.statements.push(value("-e")?.clone()),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn execute(session: &mut Session, sql: &str) -> bool {
    match session.execute(sql) {
        Ok(QueryOutput::Rows {
            rows,
            splits_processed,
            records_processed,
            response_time,
            ..
        }) => {
            for r in rows.iter().take(20) {
                println!("{r}");
            }
            if rows.len() > 20 {
                println!("… {} rows total", rows.len());
            }
            println!(
                "-- {} row(s); {splits_processed} partition(s), {records_processed} record(s) scanned; {:.1}s simulated",
                rows.len(),
                response_time.as_secs_f64()
            );
        }
        Ok(QueryOutput::Explained(plan)) => println!("{plan}"),
        Ok(QueryOutput::Listing(items)) => {
            for item in items {
                println!("{item}");
            }
        }
        Ok(QueryOutput::SetOk { key, value }) => println!("-- set {key} = {value}"),
        Err(e) => {
            eprintln!("error: {e}");
            return false;
        }
    }
    true
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args).unwrap_or_else(|e| {
        if !e.is_empty() {
            eprintln!("{e}");
        }
        eprintln!("{USAGE}");
        std::process::exit(2);
    });
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(opts.seed);
    let spec = DatasetSpec::small(
        "lineitem",
        opts.partitions,
        opts.records,
        opts.skew,
        opts.seed,
    );
    let dataset = Arc::new(Dataset::build(
        &mut ns,
        spec,
        &mut EvenRoundRobin::new(),
        &mut rng,
    ));
    let planted = incmr::data::PaperPredicate::for_skew(opts.skew).sql;
    let mut catalog = Catalog::new();
    catalog.register("lineitem", dataset);
    let rt = MrRuntime::new(
        ClusterConfig::paper_single_user(),
        CostModel::paper_default(),
        ns,
        Box::new(FifoScheduler::new()),
    );
    let mut builder = Session::builder().runtime(rt).catalog(catalog);
    if opts.full_scan {
        builder = builder.scan_mode(ScanMode::Full);
    }
    let mut session = builder.try_build().expect("valid session configuration");

    if !opts.statements.is_empty() {
        let mut ok = true;
        for sql in &opts.statements {
            ok &= execute(&mut session, sql);
        }
        // Scripted mode: a failed statement fails the invocation.
        std::process::exit(if ok { 0 } else { 1 });
    }

    println!(
        "incmr shell — table `lineitem`: {} partitions x {} records, planted predicate {planted}{}",
        opts.partitions,
        opts.records,
        if opts.full_scan {
            " (full-scan mode: ad-hoc predicates allowed)"
        } else {
            " (planted mode: WHERE must match the planted predicate)"
        }
    );
    println!("policies: Hadoop HA MA LA C — e.g. SET dynamic.job.policy = LA;\n");
    let stdin = std::io::stdin();
    loop {
        print!("incmr> ");
        std::io::stdout().flush().expect("stdout");
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line.eq_ignore_ascii_case("quit") || line.eq_ignore_ascii_case("exit") {
            break;
        }
        execute(&mut session, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &[&str]) -> Vec<String> {
        line.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_the_documented_command_lines() {
        let o = parse(&args(&[
            "--partitions",
            "40",
            "--records",
            "20000",
            "--skew",
            "2",
            "--full-scan",
        ]))
        .unwrap();
        assert_eq!(
            (o.partitions, o.records, o.skew),
            (40, 20_000, SkewLevel::High)
        );
        assert!(o.full_scan && o.statements.is_empty());
        let sql = "SELECT COUNT(*) FROM lineitem WHERE L_TAX = 0.77";
        let o = parse(&args(&["-e", sql])).unwrap();
        assert_eq!(o.statements, vec![sql.to_string()]);
        assert!(!o.full_scan);
    }

    #[test]
    fn rejects_zero_sizes() {
        for flag in ["--records", "--partitions"] {
            let e = parse(&args(&[flag, "0"])).unwrap_err();
            assert_eq!(e, format!("{flag} must be at least 1"));
        }
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--records", "x"][..],
            &["--partitions", "-1"],
            &["--skew", "3"],
            &["--seed"],
            &["--frobnicate"],
            &["--help"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
