//! # sfi-bench: the evaluation harness
//!
//! One binary per table/figure of the paper (see `src/bin/`). This library
//! holds the shared measurement plumbing: compile a corpus workload under a
//! strategy, run it on the deterministic emulator, and report modeled
//! cycles, instruction counts and code size. It also holds what the binaries
//! share beyond that: command-line parsing, the serve binaries' scrape
//! client and driver loop, and reading fields back out of `BENCH_*.json`
//! rows.
//!
//! Reproduce everything with:
//!
//! ```text
//! cargo run --release -p sfi-bench --bin fig3_spec2006
//! cargo run --release -p sfi-bench --bin table2_binsize
//! cargo run --release -p sfi-bench --bin fig4_sightglass
//! cargo run --release -p sfi-bench --bin sec61_firefox
//! cargo run --release -p sfi-bench --bin sec62_wamr_suites
//! cargo run --release -p sfi-bench --bin fig5_lfi_spec2017
//! cargo run --release -p sfi-bench --bin sec641_transitions
//! cargo run --release -p sfi-bench --bin sec642_scaling
//! cargo run --release -p sfi-bench --bin fig6_throughput
//! cargo run --release -p sfi-bench --bin fig7_ctx_dtlb
//! cargo run --release -p sfi-bench --bin table1_invariants
//! cargo run --release -p sfi-bench --bin sec7_mte
//! ```

#![forbid(unsafe_code)]

use std::io::Write;
use std::net::TcpListener;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use sfi_core::{compile, CompiledModule, CompilerConfig, Strategy};
use sfi_telemetry::{http_get_retry_with_timeout, RetryPolicy};
use sfi_workloads::Workload;
use sfi_x86::cost::RunStats;

/// One measured execution.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Modeled cycles.
    pub cycles: f64,
    /// Retired instructions.
    pub insts: u64,
    /// Encoded code bytes.
    pub code_bytes: usize,
    /// The checksum the workload returned (for cross-strategy agreement).
    pub result: u64,
    /// Full counters.
    pub stats: RunStats,
}

/// Builds the compiler configuration for a module of `mem_pages` pages.
pub fn config_for(strategy: Strategy, mem_pages: u32, vectorize: bool) -> CompilerConfig {
    CompilerConfig { vectorize, ..CompilerConfig::for_module(strategy, mem_pages) }
}

/// Compiles a workload under `strategy` (the `Native` strategy uses the
/// 64-bit-pointer variant of the module where one exists).
pub fn compile_workload(w: &Workload, strategy: Strategy, vectorize: bool) -> CompiledModule {
    let module = if strategy == Strategy::Native { w.native_module() } else { w.module() };
    let cfg = config_for(strategy, module.mem_min_pages, vectorize);
    compile(&module, &cfg).unwrap_or_else(|e| panic!("{} under {strategy}: {e}", w.name))
}

/// Compiles and runs a workload under `strategy`.
pub fn measure(w: &Workload, strategy: Strategy, vectorize: bool) -> Measured {
    let cm = compile_workload(w, strategy, vectorize);
    run_compiled(w, &cm)
}

/// Runs an already-compiled workload.
pub fn run_compiled(w: &Workload, cm: &CompiledModule) -> Measured {
    let out = sfi_core::harness::execute_export(cm, "run", &[])
        .unwrap_or_else(|e| panic!("{} under {}: {e}", w.name, cm.config.strategy));
    Measured {
        cycles: out.stats.cycles,
        insts: out.stats.insts,
        code_bytes: cm.code_size(),
        result: out.result.map(|r| r & 0xFFFF_FFFF).unwrap_or(0),
        stats: out.stats,
    }
}

/// Formats a ratio as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    sfi_faas::stats::geomean(xs)
}

/// Prints a crude fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{c:>w$}  ", w = *w));
    }
    println!("{}", line.trim_end());
}

/// The value after `flag` on the command line, if both are there.
pub fn arg_after(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

/// A numeric field of one JSON row (`"field": <number>`), as the `--check`
/// gates read their `BENCH_*.json` rows back.
pub fn json_field(row: &str, field: &str) -> Option<f64> {
    let pat = format!("\"{field}\": ");
    let start = row.find(&pat)? + pat.len();
    let rest = &row[start..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The serve binaries' `--get ADDR PATH [--timeout-ms N]` mode, a one-shot
/// scrape client (the CI smoke steps use it instead of curl). Returns when
/// `--get` is absent; otherwise prints the body and exits 0 on HTTP 200, 1
/// otherwise. Refused connections and timeouts are retried with bounded
/// backoff; `--timeout-ms` (default 10000) bounds each attempt's connect,
/// read and write, so a server that accepts and hangs cannot wedge it.
pub fn get_mode() {
    let args: Vec<String> = std::env::args().collect();
    let Some(i) = args.iter().position(|a| a == "--get") else { return };
    let addr = args.get(i + 1).expect("--get ADDR PATH");
    let path = args.get(i + 2).expect("--get ADDR PATH");
    let timeout = Duration::from_millis(
        arg_after("--timeout-ms").map(|t| t.parse().expect("numeric timeout")).unwrap_or(10_000),
    );
    let (status, body, _attempts) =
        http_get_retry_with_timeout(addr, path, &RetryPolicy::default(), timeout)
            .expect("request failed");
    // Rust ignores SIGPIPE, so a downstream `| head` surfaces as EPIPE on
    // the write — the exit code must still reflect the HTTP status.
    if let Err(e) = std::io::stdout().write_all(body.as_bytes()) {
        assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "write body: {e}");
    }
    std::process::exit(if status == 200 { 0 } else { 1 });
}

/// Serves `owner` on `listener` with `serve` (`sfi_faas::serve_blocking`)
/// until `/quit`, while this thread runs `round` back to back until then,
/// or at most `max_rounds` times.
pub fn serve_and_drive<O: Send + 'static, R>(
    listener: TcpListener,
    owner: &Arc<Mutex<O>>,
    max_rounds: Option<u64>,
    round: fn(&mut O) -> R,
    serve: fn(&TcpListener, &Mutex<O>, Instant) -> std::io::Result<()>,
) {
    let server = {
        let owner = Arc::clone(owner);
        let started = Instant::now();
        std::thread::spawn(move || serve(&listener, &owner, started))
    };
    let mut rounds = 0u64;
    while !server.is_finished() && max_rounds.is_none_or(|m| rounds < m) {
        round(&mut owner.lock().unwrap_or_else(PoisonError::into_inner));
        rounds += 1;
    }
    server.join().expect("server thread").expect("serve loop");
}

/// Keeps the default panic hook from printing the chaos layer's injected
/// mid-round panics, which the fleet supervisor catches; every other panic
/// still prints.
pub fn silence_injected_panics() {
    std::panic::set_hook(Box::new(|info| {
        let msg = info.payload().downcast_ref::<String>().map(String::as_str).unwrap_or_default();
        if !msg.starts_with("chaos: injected") {
            eprintln!("{info}");
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategies_agree_on_fast_workloads() {
        let sg = sfi_workloads::sightglass();
        let fib = sg.iter().find(|w| w.name == "fib2").expect("corpus has fib2");
        let nested = sg.iter().find(|w| w.name == "nestedloop").expect("corpus has nestedloop");
        for w in [fib, nested] {
            let native = measure(w, Strategy::Native, false);
            let guard = measure(w, Strategy::GuardRegion, false);
            let segue = measure(w, Strategy::Segue, false);
            assert_eq!(native.result, guard.result, "{}", w.name);
            assert_eq!(guard.result, segue.result, "{}", w.name);
            assert!(native.cycles > 0.0);
        }
    }

    #[test]
    fn segue_beats_guard_on_matrix() {
        let sg = sfi_workloads::sightglass();
        let matrix = sg.iter().find(|w| w.name == "matrix").expect("corpus has matrix");
        let native = measure(matrix, Strategy::Native, false);
        let guard = measure(matrix, Strategy::GuardRegion, false);
        let segue = measure(matrix, Strategy::Segue, false);
        assert_eq!(guard.result, segue.result);
        assert!(guard.cycles > native.cycles, "SFI costs something");
        assert!(segue.cycles < guard.cycles, "Segue reduces the cost");
    }
}
