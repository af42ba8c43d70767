//! Host wall-time benchmark of the lab.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload kernel_batch|tenant_churn|fleet_rounds|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! One process, one thread. The seed fixes every input; `--seconds` bounds
//! the untraced measurement. Every operation's output is checked against a
//! reference that does not come from the code under test. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the workload once
//! untraced and once with spans around every call into a layer, writes the
//! spans and a self-time summary under `.bench_out/`, and reports the
//! per-layer metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod fleet_rounds;
mod kernel_batch;
mod probe;
mod report;
mod stats;
mod tenant_churn;
mod trace;

use report::{peak_rss_mb, result_json, Checks, Outcome, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Where a traced run writes its spans and self-time summary.
const OUT_DIR: &str = ".bench_out";

const WORKLOADS: [&str; 3] = ["kernel_batch", "tenant_churn", "fleet_rounds"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, args: &Args) -> (Outcome, Option<Tracer>) {
    match name {
        "kernel_batch" => kernel_batch::run(args.seed, args.seconds, args.trace),
        "tenant_churn" => tenant_churn::run(args.seed, args.seconds, args.trace),
        "fleet_rounds" => fleet_rounds::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("workload names are checked in parse_args"),
    }
}

/// Runs one workload, prints its summary lines, and returns its checks and
/// the metrics the result line carries.
fn report_workload(name: &str, args: &Args) -> (Checks, Vec<(String, f64, &'static str)>) {
    let (mut out, tracer) = run_workload(name, args);
    let rss = peak_rss_mb();
    let error_rate = out.checks.failed as f64 / out.checks.attempted.max(1) as f64;
    println!(
        "hostbench {name} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("  {:<24} {error_rate:>16} ratio", "error_rate");
    println!(
        "  {:<24} {:>16.4} (host times are scaled by this; see probe.rs)",
        "host_factor",
        probe::run_factor()
    );
    for (metric, value, unit) in &out.headline {
        println!("  {metric:<24} {value:>16.4} {unit}");
    }
    let metrics: Vec<(String, f64, &'static str)> = if let Some(tr) = tracer {
        // Per-layer host times are corrected by the run's mean probe factor.
        let f = probe::run_factor();
        for (name, unit) in PER_LAYER {
            if let Some(v) = out.layers.get_mut(name) {
                match unit {
                    "s" | "ms" | "us" | "ns" => *v *= f,
                    u if u.ends_with("/s") => *v /= f,
                    _ => {}
                }
            }
        }
        for (metric, value, _) in &out.headline {
            let key = format!("bench.{metric}");
            if let Some((k, _)) = PER_LAYER.iter().find(|(k, _)| *k == key) {
                out.layers.insert(k, *value);
            }
        }
        let stem = format!("{name}-seed{}", args.seed);
        match tr.write(OUT_DIR, &stem) {
            Ok((spans, summary)) => println!("  spans: {spans}\n  self time: {summary}"),
            Err(e) => {
                eprintln!("writing spans: {e}");
                out.checks.expect("span output written", false);
            }
        }
        print!("{}", tr.summary());
        PER_LAYER
            .iter()
            .map(|(k, u)| (k.to_string(), out.layers.get(k).copied().unwrap_or(0.0), *u))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(k, u)| {
                let v = match *k {
                    "setup_s" => out.setup_s,
                    "peak_rss_mb" => rss,
                    _ => out.e2e.get(k).copied().unwrap_or(0.0),
                };
                (k.to_string(), v, *u)
            })
            .collect()
    };
    for (metric, value, unit) in &metrics {
        println!("  {metric:<28} {value:>16.6} {unit}");
    }
    (out.checks, metrics)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload != "all" {
        let (checks, metrics) = report_workload(&args.workload, &args);
        println!("{}", result_json(&checks, &metrics));
        return;
    }
    let mut checks = Checks::default();
    let mut metrics = Vec::new();
    for name in WORKLOADS {
        let (c, m) = report_workload(name, &args);
        checks.merge(c);
        metrics.extend(m.into_iter().map(|(k, v, u)| (format!("{name}.{k}"), v, u)));
    }
    println!("{}", result_json(&checks, &metrics));
}
