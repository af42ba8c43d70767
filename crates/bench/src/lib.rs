//! # sfi-bench: the evaluation harness
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus the
//! Criterion microbenchmarks in `benches/`. This library holds the shared
//! measurement plumbing: compile a corpus workload under a strategy, run it
//! on the deterministic emulator, and report modeled cycles, instruction
//! counts and code size.
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

use sfi_core::{compile, CompiledModule, CompilerConfig, Strategy};
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
