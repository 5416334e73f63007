//! `partstm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! for `--trace 0`, the per-layer metrics for `--trace 1`. Host facts,
//! checks and counts go to the lines before it and, with the metrics, to
//! `.bench_results/`; a traced run writes its spans to `.bench_trace/`
//! (the latest traced run of each workload).

use std::process::ExitCode;

use partstm_perfbench::harness::RunCfg;
use partstm_perfbench::metrics::{host_facts, END_TO_END, PER_LAYER};
use partstm_perfbench::{trace, workloads};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: partstm-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("every flag is required, with a valid value");
    };
    if !workloads::NAMES.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload}"));
    }
    // End-to-end and traced runs alike leave engine telemetry off; the
    // traced run's spans come from the benchmark's own code.
    partstm_core::telemetry::set_enabled(false);
    partstm_perfbench::harness::retain_freed_memory();
    let host = host_facts(&workload, seed, seconds, trace);
    println!("# host {host}");

    let cfg = RunCfg {
        seed,
        seconds,
        trace,
    };
    let mut out = workloads::run(&workload, &cfg).expect("workload name checked above");
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.metrics.set("fail_ratio", fail_ratio);
    for (check, ok) in &out.checks {
        println!("# check {}: {check}", if *ok { "ok" } else { "FAILED" });
    }
    for note in &out.notes {
        println!("# {note}");
    }
    let correct = out.failed == 0;
    let list = if trace { PER_LAYER } else { END_TO_END };
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        out.metrics.to_json(list)
    );
    let stem = format!("{workload}-seed{seed}-trace{}", u8::from(trace));
    let stored = format!("{{\"host\": {host}, \"result\": {result}}}\n");
    if let Err(e) = std::fs::create_dir_all(".bench_results")
        .and_then(|_| std::fs::write(format!(".bench_results/{stem}.json"), stored))
    {
        eprintln!("warning: could not store the result: {e}");
    }
    if trace {
        let path = std::path::PathBuf::from(format!(".bench_trace/{workload}.tsv"));
        if let Err(e) = trace::write_spans(&path, &out.driven.spans()) {
            eprintln!("warning: could not write spans: {e}");
        }
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
