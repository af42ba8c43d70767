//! Multi-core sharded-engine sweep: 1–8 cores × {cold, warm-cache} ×
//! {multiprocess, ColorGuard}, on the hash-load-balance workload. Emits
//! `BENCH_multicore.json` (byte-identical across same-seed runs).
//!
//! Also emits `TRACE_multicore.json` — the headline run's flight-recorder
//! rings rendered as a chrome://tracing (`about:tracing`) event stream.
//!
//! `--check` re-runs the sweep and asserts the acceptance criteria:
//! warm-cache ColorGuard throughput scales ≥ 3× from 1→4 cores, a warm
//! spawn is ≥ 5× cheaper than a cold compile, warm-cache throughput beats
//! the cold path at 1 core, and two same-seed runs are byte-identical.
//! It then gates the telemetry layer itself: the embedded snapshot must be
//! present and parse, tracing on-vs-off must not change a single modeled
//! number, measured self-overhead must stay within the §8 budget (≤ 35 %
//! wall-clock, best-of-3), and the runtime metric schema must register
//! without a name collision.

use std::time::Instant;

use sfi_bench::{json_field, row};
use sfi_faas::{multicore_sweep_json, simulate_multicore, CacheMode, MultiCoreConfig, ScalingMode};
use sfi_runtime::RuntimeTelemetry;
use sfi_telemetry::{chrome_trace, json_is_valid};

/// Documented telemetry self-overhead budget (DESIGN.md §8): tracing on may
/// cost at most this factor over tracing off, best-of-3 wall clock.
const OVERHEAD_BUDGET: f64 = 1.35;

const SEED: u64 = 0x5E65E9;
const DURATION_MS: u64 = 400;
const CORES: [u32; 4] = [1, 2, 4, 8];

fn check(json: &str) {
    let rerun = multicore_sweep_json(SEED, DURATION_MS, &CORES);
    assert_eq!(json, rerun, "same seed must reproduce BENCH_multicore.json byte-identically");

    let throughput = |cores: u32, mode: &str, cache: &str| -> f64 {
        let tag = format!("\"cores\": {cores}, \"mode\": \"{mode}\", \"cache\": \"{cache}\"");
        let line = json.lines().find(|l| l.contains(&tag)).expect("sweep row present");
        json_field(line, "throughput_rps").expect("throughput field")
    };
    let warm1 = throughput(1, "colorguard", "warm");
    let cold1 = throughput(1, "colorguard", "cold");
    let warm4 = throughput(4, "colorguard", "warm");
    assert!(
        warm1 >= cold1,
        "warm-cache throughput must beat the cold path at 1 core: {warm1:.0} vs {cold1:.0}"
    );
    let scaling = warm4 / warm1;
    assert!(scaling >= 3.0, "warm ColorGuard 1→4 core scaling {scaling:.2}× (need ≥ 3×)");

    let derived = json.lines().find(|l| l.contains("cold_over_warm_spawn_cost")).expect("derived");
    let ratio = json_field(derived, "cold_over_warm_spawn_cost").expect("ratio field");
    assert!(ratio >= 5.0, "warm spawn must be ≥ 5× cheaper than cold compile: {ratio:.2}×");

    check_telemetry(json);

    println!(
        "check OK: scaling 1→4 = {scaling:.2}x, cold/warm spawn = {ratio:.1}x, \
         warm {warm1:.0} rps >= cold {cold1:.0} rps at 1 core, output reproducible"
    );
}

/// The telemetry acceptance gates (ISSUE §tentpole): snapshot embedded and
/// parseable, observation is free of observer effects, self-overhead within
/// the documented budget, and the metric schema collision-free.
fn check_telemetry(json: &str) {
    // 1. The sweep JSON embeds a parseable metrics snapshot.
    assert!(json.contains("\"telemetry\""), "sweep JSON must embed a telemetry section");
    assert!(json.contains("sfi_shard_completed_total"), "snapshot must carry shard counters");
    assert!(json_is_valid(json), "BENCH_multicore.json must parse as JSON");

    // 2. Tracing must not perturb the model: the same run with the flight
    // recorder disabled reports identical numbers everywhere but the trace
    // fields themselves.
    let headline = |trace_capacity: usize| {
        let mut cfg = MultiCoreConfig::paper_rig(
            sfi_faas::FaasWorkload::HashLoadBalance,
            ScalingMode::ColorGuard,
            CacheMode::Warm,
            4,
        );
        cfg.seed = SEED;
        cfg.duration_ms = DURATION_MS;
        cfg.trace_capacity = trace_capacity;
        cfg
    };
    let on = simulate_multicore(&headline(512));
    let off = simulate_multicore(&headline(0));
    assert!(off.traces.iter().all(Vec::is_empty), "capacity 0 must disable tracing");
    assert_eq!(on.completed, off.completed, "tracing changed completions");
    assert_eq!(on.totals, off.totals, "tracing changed aggregate counters");
    assert_eq!(on.per_core, off.per_core, "tracing changed per-core counters");
    assert_eq!(on.throughput_rps, off.throughput_rps, "tracing changed throughput");
    assert_eq!(on.mean_latency_ms, off.mean_latency_ms, "tracing changed mean latency");
    assert_eq!(on.p99_latency_ms, off.p99_latency_ms, "tracing changed p99 latency");

    // 3. Self-overhead gate: best-of-3 wall clock, tracing on vs off.
    let time = |capacity: usize| {
        (0..3)
            .map(|_| {
                let cfg = headline(capacity);
                let t0 = Instant::now();
                let r = simulate_multicore(&cfg);
                assert!(r.completed > 0);
                t0.elapsed()
            })
            .min()
            .expect("three timed runs")
    };
    let off_t = time(0);
    let on_t = time(512);
    let factor = on_t.as_secs_f64() / off_t.as_secs_f64().max(1e-9);
    assert!(
        factor <= OVERHEAD_BUDGET,
        "telemetry self-overhead {factor:.2}x exceeds the {OVERHEAD_BUDGET:.2}x budget \
         (on {on_t:?} vs off {off_t:?})"
    );

    // 4. Metric-name collision gate: registering the full runtime schema
    // panics on any duplicate series, so constructing it IS the check.
    let rt = RuntimeTelemetry::new(16, 0);
    assert!(json_is_valid(&sfi_telemetry::json_snapshot(rt.registry())));

    println!(
        "telemetry OK: snapshot embedded, zero observer effect, overhead {factor:.2}x \
         (budget {OVERHEAD_BUDGET:.2}x), runtime schema collision-free"
    );
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    let json = multicore_sweep_json(SEED, DURATION_MS, &CORES);
    std::fs::write("BENCH_multicore.json", &json).expect("write BENCH_multicore.json");

    println!("Figure X: sharded multi-core engine, {DURATION_MS} ms, hash load-balance\n");
    let widths = [6, 14, 6, 12, 14, 8, 12, 12];
    row(
        &[
            "cores".into(),
            "mode".into(),
            "cache".into(),
            "throughput".into(),
            "rps/core".into(),
            "steals".into(),
            "cold spawns".into(),
            "warm spawns".into(),
        ],
        &widths,
    );
    for &cores in &CORES {
        for mode in [ScalingMode::ColorGuard, ScalingMode::MultiProcess { processes: 15 }] {
            for cache in [CacheMode::Cold, CacheMode::Warm] {
                let mut cfg = MultiCoreConfig::paper_rig(
                    sfi_faas::FaasWorkload::HashLoadBalance,
                    mode,
                    cache,
                    cores,
                );
                cfg.seed = SEED;
                cfg.duration_ms = DURATION_MS;
                let r = simulate_multicore(&cfg);
                row(
                    &[
                        format!("{cores}"),
                        match mode {
                            ScalingMode::ColorGuard => "colorguard".into(),
                            ScalingMode::MultiProcess { .. } => "multiproc".into(),
                        },
                        cache.name().into(),
                        format!("{:.0}", r.throughput_rps),
                        format!("{:.0}", r.throughput_rps / f64::from(cores)),
                        format!("{}", r.totals.steals),
                        format!("{}", r.totals.cold_spawns),
                        format!("{}", r.totals.warm_spawns),
                    ],
                    &widths,
                );
            }
        }
    }
    // Render the headline run's flight-recorder rings for about:tracing.
    let mut cfg = MultiCoreConfig::paper_rig(
        sfi_faas::FaasWorkload::HashLoadBalance,
        ScalingMode::ColorGuard,
        CacheMode::Warm,
        *CORES.iter().max().expect("core list"),
    );
    cfg.seed = SEED;
    cfg.duration_ms = DURATION_MS;
    let headline = simulate_multicore(&cfg);
    let events: Vec<_> = headline.traces.iter().flatten().copied().collect();
    // Trace ticks are already simulated nanoseconds.
    let trace = chrome_trace(&events, 1.0);
    std::fs::write("TRACE_multicore.json", &trace).expect("write TRACE_multicore.json");

    println!("\nwrote BENCH_multicore.json, TRACE_multicore.json ({} events)", events.len());

    if check_mode {
        check(&json);
    }
}
