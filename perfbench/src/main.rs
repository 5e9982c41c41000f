//! Command line:
//!
//! ```text
//! perfbench --workload <offline-int|serve-int|serve-frontend> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <base-report.json> <new-report.json>
//! ```
//!
//! A run prints its report, writes `.bench_out/report-*.json` (with the
//! host fingerprint) and, with `--trace 1`, `.bench_out/trace-*.jsonl`;
//! its last stdout line is the one-line JSON result. It exits non-zero
//! when any output is wrong or a measurement is invalid.

use perfbench::{offline, report, serving};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <offline-int|serve-int|serve-frontend> --seed <n> --seconds <s> --trace <0|1>\n       perfbench compare <base.json> <new.json>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, base, new] = args.as_slice() else {
            return usage();
        };
        return match report::compare(base, new) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(3)
            }
        };
    }
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(workload), Some(seed), Some(seconds)) = (
        flag("--workload"),
        flag("--seed").and_then(|s| s.parse::<u64>().ok()),
        flag("--seconds").and_then(|s| s.parse::<f64>().ok()),
    ) else {
        return usage();
    };
    let trace = match flag("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage(),
    };
    if !(seconds > 0.0 && seconds <= 120.0) {
        return usage();
    }
    let mut out = match workload.as_str() {
        "offline-int" => offline::run(seed, seconds, trace),
        "serve-int" => serving::run_int(seed, seconds, trace),
        "serve-frontend" => serving::run_frontend(seed, seconds, trace),
        _ => return usage(),
    };
    if trace {
        perfbench::layers::fill_bypassed(&mut out);
    }
    let (line, correct) = report::finish(&workload, seed, trace, &mut out);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
