//! Command line: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`.
//!
//! Prints a host and run fingerprint, one line per metric (value, unit
//! and how it was obtained), and as the last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits non-zero when
//! any output differed from its reference.

use perfbench::fleet::{self, Kind};
use perfbench::{layer_metrics, table1, Outcome, RunConfig, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value:?}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unavailable".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "# host: nproc={nproc} cpu={:?} rustc={:?} commit={} source={}",
        cpu_model(),
        env!("PERFBENCH_RUSTC"),
        git_commit(),
        env!("PERFBENCH_SOURCE_DIGEST"),
    );
    println!(
        "# run: workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let cfg = RunConfig {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        traced: args.trace,
    };
    let mut outcome: Outcome = match args.workload.as_str() {
        "table1" => table1::run(cfg),
        "fleet-sharded" => fleet::run(Kind::Sharded, cfg),
        _ => fleet::run(Kind::Remote, cfg),
    };
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let on_path = layer_metrics(&args.workload);
    for &(name, _) in wanted {
        if outcome.metrics.iter().any(|m| m.name == name && m.value.is_finite()) {
            continue;
        }
        if !args.trace || on_path.contains(&name) {
            outcome.fail(1, format!("{name} has no samples"));
            if !outcome.metrics.iter().any(|m| m.name == name) {
                outcome.metric(name, f64::NAN, "no samples");
            }
        } else {
            outcome.metrics.retain(|m| m.name != name);
            outcome.metric(name, 0.0, "not on this workload's path");
        }
    }
    for line in &outcome.notes {
        println!("# {line}");
    }
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let m = outcome.metrics.iter().find(|m| m.name == name).expect("filled above");
        println!("{name:<46} {:>16.4} {unit:<6} {}", m.value, m.note);
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(m.value),
            json_str(unit)
        ));
    }
    let attempted = outcome.attempted.max(1);
    println!(
        "fail_ratio {:.6} ({} failed of {attempted} attempted)",
        outcome.failed as f64 / attempted as f64,
        outcome.failed
    );
    for (what, n) in &outcome.failures {
        println!("# FAILED: {n} x {what}");
    }
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
