//! `gnna-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--short]`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. Exits
//! non-zero when any output was wrong or the run could not measure.

use gnna_perfbench::{result_json, run, Options};
use std::path::Path;
use std::process::ExitCode;

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: gnna_perfbench::DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        short: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--short" {
            opts.short = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

/// The commit being measured, read from `.git` in the working directory
/// when the tree is a git checkout.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                l.strip_suffix(reference)?
                    .strip_suffix(' ')
                    .map(str::to_string)
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("gnna-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut workload = String::new();
    gnna_telemetry::json::escape_into(&mut workload, &opts.workload);
    println!(
        "{{\"run\":{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"commit\":\"{}\",\"nproc\":{nproc},\"rustc\":\"{}\"}}}}",
        opts.seed,
        opts.seconds,
        opts.trace,
        commit(),
        env!("PERFBENCH_RUSTC"),
    );
    let out = match run(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("gnna-perfbench: {}: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    for e in &out.errors {
        eprintln!("gnna-perfbench: check failed: {e}");
    }
    if opts.trace {
        if let Some(spans) = &out.spans {
            let path = Path::new(".bench_out")
                .join(format!("spans-{}-{}.jsonl", opts.workload, opts.seed));
            if let Err(e) = spans.write_jsonl(&path) {
                eprintln!("gnna-perfbench: writing {}: {e}", path.display());
            }
        }
    }
    match result_json(&opts, &out) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("gnna-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
