//! `spoofwatch-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints diagnostics on stderr and, as the last line of stdout, one
//! JSON object: `correct`, `attempted`, `failed` and the metrics. Any
//! failure, a failed correctness gate included, exits non-zero without
//! printing a result.

use spoofwatch_perfbench::{run, Request, Size};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Request, String> {
    let mut req = Request {
        workload: String::new(),
        seed: 7,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        // Relative and short: shard sockets live under it.
        work_dir: PathBuf::from(format!(".perfbench-work/{}", std::process::id())),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => req.workload = value.clone(),
            "--seed" => req.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => req.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                req.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if req.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(req)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|req| run(&req));
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
