//! Metric names, correctness bookkeeping and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics every workload reports in an untraced run. What an
/// "operation" is depends on the workload (see `README.md`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run reports. A layer the workload never
/// calls reads 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("wasm.parse_us", "us"),
    ("wasm.parse_mb_per_s", "MB/s"),
    ("wasm.validate_us", "us"),
    ("core.compile_us.baseline", "us"),
    ("core.compile_us.optimized", "us"),
    ("core.emitted_insts", "count"),
    ("core.code_bytes", "B"),
    ("core.opt_rewrites", "count"),
    ("x86.emulate_s", "s"),
    ("x86.minst_per_s", "Minst/s"),
    ("x86.spec_minst_per_s", "Minst/s"),
    ("x86.ns_per_inst", "ns"),
    ("x86.insts", "count"),
    ("x86.spec_uops", "count"),
    ("x86.spec_flushes", "count"),
    ("x86.spec_leaks", "count"),
    ("x86.icache_misses", "count"),
    ("x86.dcache_misses", "count"),
    ("x86.modeled_cycles", "cycles"),
    ("runtime.spawn_warm_us", "us"),
    ("runtime.spawn_cold_us", "us"),
    ("runtime.invoke_us", "us"),
    ("runtime.terminate_us", "us"),
    ("runtime.recycle_us", "us"),
    ("runtime.restart_us", "us"),
    ("runtime.cache_hit_ratio", "ratio"),
    ("runtime.cache_evictions", "count"),
    ("runtime.promotions", "count"),
    ("runtime.traps", "count"),
    ("runtime.restarts", "count"),
    ("runtime.transition_cycles", "cycles"),
    ("runtime.guest_cycles", "cycles"),
    ("faas.des_ms", "ms"),
    ("faas.probe_ms", "ms"),
    ("faas.serve_self_ms", "ms"),
    ("faas.fleet_self_ms", "ms"),
    ("faas.modeled_offered", "count"),
    ("faas.goodput", "ratio"),
    ("faas.shed_rate", "ratio"),
    ("faas.ls_p99_ms", "ms"),
    ("telemetry.metrics_us", "us"),
    ("telemetry.snapshot_us", "us"),
    ("telemetry.profile_us", "us"),
    ("telemetry.series", "count"),
    ("telemetry.metrics_bytes", "B"),
    ("bench.trace_overhead", "ratio"),
    ("bench.minst_per_s", "Minst/s"),
    ("bench.spec_minst_per_s", "Minst/s"),
    ("bench.modeled_cycles_geomean", "cycles"),
    ("bench.code_bytes_geomean", "B"),
    ("bench.req_p50_us", "us"),
    ("bench.req_tail_us", "us"),
    ("bench.req_per_s", "req/s"),
    ("bench.round_p50_ms", "ms"),
    ("bench.round_tail_ms", "ms"),
    ("bench.poll_p50_ms", "ms"),
];

/// Correctness bookkeeping: every checked operation is attempted once and
/// failed at most once.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    reported: u32,
}

impl Checks {
    /// Records one operation; `problems` lists what went wrong (empty = ok).
    pub fn record(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.reported < 20 {
                self.reported += 1;
                eprintln!("FAILED {what}: {}", problems.join("; "));
            }
        }
    }

    /// Records a check that is not tied to one operation (a determinism
    /// comparison, an end-of-run invariant).
    pub fn expect(&mut self, what: &str, ok: bool) {
        let problems = if ok {
            Vec::new()
        } else {
            vec!["check failed".to_owned()]
        };
        self.record(what, &problems);
    }

    /// Folds another set of checks into this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness bookkeeping.
    pub checks: Checks,
    /// Median set-up time over the set-up repetitions, s.
    pub setup_s: f64,
    /// The workload's `ops_per_s`, `op_p50_ms` and `op_tail_ms`.
    pub e2e: BTreeMap<&'static str, f64>,
    /// The workload's own headline metrics `(name, value, unit)`, printed on
    /// the summary lines.
    pub headline: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
}

/// Masks a compiled result to 32 bits when the interpreter's value fits,
/// as `sfi_core::harness::assert_matches_interpreter` does.
pub fn comparable(expected: Option<u64>, actual: Option<u64>) -> Option<u64> {
    match expected {
        Some(e) if e <= u64::from(u32::MAX) => actual.map(|r| r & 0xFFFF_FFFF),
        _ => actual,
    }
}

/// Runs `setup` `reps` times (at least once) and keeps the last state.
/// Returns it with the median corrected set-up time and whether every repetition
/// produced the same `fingerprint`. Earlier states are dropped before the
/// next set-up starts, so they do not inflate the peak RSS.
pub fn timed_setups<S, F: PartialEq>(
    reps: usize,
    mut setup: impl FnMut() -> S,
    fingerprint: impl Fn(&S) -> F,
) -> (S, f64, bool) {
    let mut times = Vec::with_capacity(reps);
    let mut first: Option<F> = None;
    let mut last: Option<S> = None;
    let mut repeated = true;
    for _ in 0..reps.max(1) {
        drop(last.take());
        crate::probe::sample();
        let (at, t) = (crate::probe::now(), Instant::now());
        let state = setup();
        times.push((at, t.elapsed().as_secs_f64()));
        crate::probe::sample();
        let f = fingerprint(&state);
        match &first {
            None => first = Some(f),
            Some(f0) => repeated &= *f0 == f,
        }
        last = Some(state);
    }
    let state = last.expect("ran at least once");
    (
        state,
        crate::stats::median(&crate::probe::correct(&times)),
        repeated,
    )
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A finite JSON number (non-finite values would make the line invalid).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(checks: &Checks, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}
