//! Figure X (profile): the cycle-attribution profiler.
//!
//! Builds the attribution matrix of DESIGN.md §14 — every non-Native
//! protection strategy × both compiler tiers over the fig6 FaaS hot
//! modules — from the emulator's per-provenance cycle buckets, then
//! drives the pooled runtime to measure each strategy's transition-cycle
//! share end-to-end. The matrix, the per-strategy shares, a folded-stack
//! rendering of the whole matrix (flamegraph input) and the runtime's
//! profile telemetry land in `BENCH_profile.json`.
//!
//! `--check` additionally runs the profiler gates:
//!
//! 1. **exact attribution**: for every matrix cell the six provenance
//!    buckets plus the three penalty buckets sum to the run's modeled
//!    cycle total bit-for-bit (`RunStats::attributed_cycles`),
//! 2. **determinism**: rebuilding the whole artifact from scratch is
//!    byte-identical,
//! 3. **zero observer effect**: request spans on vs off changes no
//!    benchmark result field of the multi-core simulation,
//! 4. **self-overhead**: spans + exemplars may cost at most 1.35× over
//!    the profiler-off configuration (best-of-3 wall clock), and
//! 5. the per-strategy transition shares are printed for the DESIGN.md
//!    §14 calibration record (CI watches them for drift).

use std::time::Instant;

use sfi_bench::{compile_workload, row, run_compiled};
use sfi_core::{CompilerConfig, Strategy};
use sfi_faas::{simulate_multicore, CacheMode, FaasWorkload, MultiCoreConfig, ScalingMode};
use sfi_runtime::{Engine, Runtime, RuntimeConfig, PENALTY_NAMES};
use sfi_telemetry::{
    json_escape, json_is_valid, json_snapshot, AlertEngine, FoldedStacks, RecordingRule,
    RuleSource, Selector, Tsdb,
};
use sfi_x86::Provenance;

/// The profiler's self-overhead budget (DESIGN.md §14, same 1.35× bar as
/// the §8 tracing budget): spans + exemplars + tracing on vs all off.
const OVERHEAD_BUDGET: f64 = 1.35;

/// The strategies the matrix covers — everything except `Native`, which
/// has no protection cycles to attribute and cannot be pooled.
const PROFILED: [Strategy; 6] = [
    Strategy::GuardRegion,
    Strategy::Segue,
    Strategy::SegueLoads,
    Strategy::BoundsCheck,
    Strategy::BoundsCheckSegue,
    Strategy::Masking,
];

const TIERS: [&str; 2] = ["baseline", "optimized"];

/// One matrix cell: cycles by provenance and penalty, aggregated over the
/// fig6 hot modules under one (strategy, tier).
struct Cell {
    strategy: Strategy,
    tier: &'static str,
    cycles: f64,
    prov: [f64; Provenance::COUNT],
    penalty: [f64; 3],
}

/// Builds the full attribution matrix, asserting the exact-sum invariant
/// for every underlying run.
fn build_matrix() -> Vec<Cell> {
    let mut cells = Vec::new();
    for strategy in PROFILED {
        for (t, tier) in TIERS.iter().enumerate() {
            let mut cell = Cell {
                strategy,
                tier,
                cycles: 0.0,
                prov: [0.0; Provenance::COUNT],
                penalty: [0.0; 3],
            };
            for w in sfi_workloads::faas() {
                let mut cm = compile_workload(&w, strategy, false);
                if t == 1 {
                    cm = sfi_core::compile(
                        &w.module(),
                        &cm.config.clone().optimized(),
                    )
                    .expect("optimized tier compiles");
                }
                let m = run_compiled(&w, &cm);
                assert_eq!(
                    m.stats.cycles.to_bits(),
                    m.stats.attributed_cycles().to_bits(),
                    "{} under {strategy}/{tier}: buckets must sum to the cycle total bit-for-bit",
                    w.name
                );
                cell.cycles += m.stats.cycles;
                for (i, c) in m.stats.prov_cycles.iter().enumerate() {
                    cell.prov[i] += c;
                }
                cell.penalty[0] += m.stats.icache_penalty_cycles;
                cell.penalty[1] += m.stats.dcache_penalty_cycles;
                cell.penalty[2] += m.stats.branch_penalty_cycles;
            }
            cells.push(cell);
        }
    }
    cells
}

/// Folds the matrix into flamegraph input: one stack per non-zero bucket,
/// rooted `strategy;tier;provenance` (penalties under `…;penalty;kind`).
fn fold_matrix(cells: &[Cell]) -> FoldedStacks {
    let mut folded = FoldedStacks::new();
    for cell in cells {
        for (p, cycles) in Provenance::ALL.iter().zip(&cell.prov) {
            if *cycles > 0.0 {
                folded.add(&[cell.strategy.name(), cell.tier, p.name()], cycles.round() as u64);
            }
        }
        for (name, cycles) in PENALTY_NAMES.iter().zip(&cell.penalty) {
            if *cycles > 0.0 {
                folded.add(&[cell.strategy.name(), cell.tier, "penalty", name], cycles.round() as u64);
            }
        }
    }
    folded
}

/// Drives each strategy through the pooled runtime — cold spawn plus four
/// invocations of each fig6 kernel — and returns the raw per-strategy
/// `(strategy, transition_cycles, total_cycles)` triples plus the final
/// runtime registry snapshot (profile counters included). The share is
/// `transition / total`.
fn transition_shares() -> (Vec<(Strategy, f64, f64)>, String) {
    // FaaS-granularity instances of the fig6 kernels: short enough that
    // the per-invoke transition protocol is a visible share of the total
    // (the population the near-zero-cost-transitions work targets).
    let hot = [
        sfi_workloads::kernels::hash_lb(100, 128, 1),
        sfi_workloads::kernels::regex_filter(500, 1),
        sfi_workloads::kernels::html_template(400, 1),
    ];
    let mut rt = Runtime::new(RuntimeConfig::small_test(true)).expect("runtime");
    let mut engine = Engine::new(64);
    let mut shares = Vec::new();
    for strategy in PROFILED {
        let (mut transition, mut total) = (0.0f64, 0.0f64);
        for wat in &hot {
            let module = sfi_wasm::wat::parse(wat).expect("kernel parses");
            let cfg = CompilerConfig::for_strategy(strategy);
            let id = rt.spawn(&mut engine, &module, &cfg).expect("spawn");
            for _ in 0..4 {
                let out = rt.invoke(id, "run", &[]).expect("runs");
                let b = out.breakdown;
                assert_eq!(
                    b.guest_cycles().to_bits(),
                    out.stats.cycles.to_bits(),
                    "{strategy}: breakdown must match the emulator total bit-for-bit"
                );
                transition += b.transition_cycles;
                total += b.total_cycles();
            }
            rt.terminate(id).expect("terminate");
        }
        shares.push((strategy, transition, total));
    }
    (shares, json_snapshot(rt.telemetry().registry()))
}

/// Builds the entire artifact. Pure function of the (fixed) inputs — the
/// determinism gate calls it twice and byte-compares.
fn build_report() -> String {
    let cells = build_matrix();
    let folded = fold_matrix(&cells);
    let (shares, telemetry) = transition_shares();

    let mut rows_json = Vec::new();
    for cell in &cells {
        let prov = Provenance::ALL
            .iter()
            .zip(&cell.prov)
            .map(|(p, c)| format!("\"{}\": {c:.3}", p.name()))
            .collect::<Vec<_>>()
            .join(", ");
        let pen = PENALTY_NAMES
            .iter()
            .zip(&cell.penalty)
            .map(|(n, c)| format!("\"{n}\": {c:.3}"))
            .collect::<Vec<_>>()
            .join(", ");
        rows_json.push(format!(
            "    {{\"strategy\": \"{}\", \"tier\": \"{}\", \"cycles\": {:.3}, \
             \"provenance\": {{{prov}}}, \"penalty\": {{{pen}}}}}",
            cell.strategy.name(),
            cell.tier,
            cell.cycles,
        ));
    }
    let shares_json = shares
        .iter()
        .map(|(s, tr, tot)| format!("\"{}\": {:.4}", s.name(), tr / tot))
        .collect::<Vec<_>>()
        .join(", ");
    let folded_json = folded
        .render()
        .lines()
        .map(|l| format!("\"{}\"", json_escape(l)))
        .collect::<Vec<_>>()
        .join(",\n    ");
    format!(
        "{{\n  \"bench\": \"figX_profile\",\n  \"matrix\": [\n{}\n  ],\n  \
         \"transition_share\": {{{shares_json}}},\n  \"profile\": [\n    {folded_json}\n  ],\n  \
         \"telemetry\": {telemetry}\n}}\n",
        rows_json.join(",\n"),
    )
}

/// The spans-on/off observer-effect rig: the fig6 hash workload on the
/// ColorGuard warm path, big enough that every span level fires.
fn span_rig(trace_capacity: usize, spans: bool) -> MultiCoreConfig {
    let mut cfg = MultiCoreConfig::paper_rig(
        FaasWorkload::HashLoadBalance,
        ScalingMode::ColorGuard,
        CacheMode::Warm,
        4,
    );
    cfg.duration_ms = 200;
    cfg.trace_capacity = trace_capacity;
    cfg.spans = spans;
    cfg
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    println!("Figure X (profile): cycle attribution by provenance, strategy and tier\n");

    let cells = build_matrix();
    let widths = [14, 10, 12, 8, 8, 8, 8, 8, 9];
    row(
        &[
            "strategy".into(),
            "tier".into(),
            "cycles".into(),
            "guest".into(),
            "guard".into(),
            "addr".into(),
            "trunc".into(),
            "glue".into(),
            "penalty".into(),
        ],
        &widths,
    );
    for cell in &cells {
        let pctof = |c: f64| format!("{:.1}%", 100.0 * c / cell.cycles);
        row(
            &[
                cell.strategy.name().into(),
                cell.tier.into(),
                format!("{:.0}", cell.cycles),
                pctof(cell.prov[Provenance::GuestCompute.index()]),
                pctof(cell.prov[Provenance::BoundsGuard.index()]),
                pctof(cell.prov[Provenance::SegueAddressing.index()]),
                pctof(cell.prov[Provenance::Truncation.index()]),
                pctof(cell.prov[Provenance::TransitionGlue.index()]),
                pctof(cell.penalty.iter().sum()),
            ],
            &widths,
        );
    }

    let (shares, _) = transition_shares();
    println!("\npooled runtime: transition-cycle share of total attributed cycles\n");
    let widths2 = [14, 10];
    row(&["strategy".into(), "share".into()], &widths2);
    for (s, tr, tot) in &shares {
        row(&[s.name().into(), format!("{:.2}%", tr / tot * 100.0)], &widths2);
    }

    let report = build_report();
    assert!(json_is_valid(&report), "BENCH_profile.json must be valid JSON");
    std::fs::write("BENCH_profile.json", &report).expect("write BENCH_profile.json");
    println!("\nwrote BENCH_profile.json");

    if !check {
        return;
    }

    // ---- Gate 1: exact attribution ---------------------------------------
    // build_matrix asserted `cycles == attributed_cycles()` bit-for-bit on
    // every underlying run; summarize the coverage here.
    println!(
        "\n[check] attribution exact: {} cells × {} modules, buckets sum bit-for-bit ✓",
        cells.len(),
        sfi_workloads::faas().len()
    );

    // ---- Gate 2: determinism ---------------------------------------------
    let rerun = build_report();
    assert_eq!(report, rerun, "rebuilding BENCH_profile.json must be byte-identical");
    println!("[check] artifact deterministic: rebuild byte-identical ✓");

    // ---- Gate 3: zero observer effect ------------------------------------
    // Request spans change no benchmark result field: the only new series
    // is `sfi_shard_span_events_total`, and that lives in the telemetry
    // export, not in the report.
    let off = simulate_multicore(&span_rig(65_536, false));
    let on = simulate_multicore(&span_rig(65_536, true));
    assert_eq!(off.offered, on.offered);
    assert_eq!(off.completed, on.completed);
    assert_eq!(off.throughput_rps.to_bits(), on.throughput_rps.to_bits());
    assert_eq!(off.mean_latency_ms.to_bits(), on.mean_latency_ms.to_bits());
    assert_eq!(off.p99_latency_ms.to_bits(), on.p99_latency_ms.to_bits());
    assert_eq!(off.occupancy.to_bits(), on.occupancy.to_bits());
    assert_eq!(off.totals, on.totals);
    assert_eq!(off.per_core, on.per_core);
    assert_eq!(off.latency_per_core, on.latency_per_core);
    assert!(on.completed > 0, "the rig must complete work");
    println!("[check] spans on vs off: every benchmark result field identical ✓");

    // ---- Gate 4: self-overhead -------------------------------------------
    let time = |capacity: usize, spans: bool| {
        (0..3)
            .map(|_| {
                let cfg = span_rig(capacity, spans);
                let t0 = Instant::now();
                let r = simulate_multicore(&cfg);
                assert!(r.completed > 0);
                t0.elapsed()
            })
            .min()
            .expect("three timed runs")
    };
    // Profiler on vs profiler off at the production ring size (512, the
    // paper_rig default) — tracing's own cost is budgeted separately by
    // the §8 gate in figX_multicore.
    let off_t = time(512, false);
    let on_t = time(512, true);
    let factor = on_t.as_secs_f64() / off_t.as_secs_f64().max(1e-9);
    assert!(
        factor <= OVERHEAD_BUDGET,
        "profiler self-overhead {factor:.2}x exceeds the {OVERHEAD_BUDGET:.2}x budget \
         (on {on_t:?} vs off {off_t:?})"
    );
    println!(
        "[check] self-overhead {factor:.2}x (budget {OVERHEAD_BUDGET:.2}x, spans + exemplars vs profiler off) ✓"
    );

    // ---- Gate 5: the calibration record ----------------------------------
    // The drift-watch value flows through the telemetry plane itself: a
    // per-strategy RatioPermille recording rule over the raw profiler
    // counters in a scratch tsdb, verified here against the direct
    // computation. CI's awk comparison against the DESIGN.md §14 record
    // stays as the grep fallback (drift > 25% fails).
    let mut tsdb = Tsdb::new(8, 64);
    let mut rules = AlertEngine::new(16);
    for (s, _, _) in &shares {
        rules.add_recording(RecordingRule {
            record: "sfi_profile_transition_share_permille",
            labels: vec![("strategy", s.name().to_owned())],
            source: RuleSource::RatioPermille {
                num: format!(
                    "increase(sfi_profile_transition_cycles_total{{strategy=\"{}\"}}[2r])",
                    s.name()
                ),
                den: format!(
                    "increase(sfi_profile_attributed_cycles_total{{strategy=\"{}\"}}[2r])",
                    s.name()
                ),
            },
        });
    }
    for round in 1..=2u64 {
        // Round 1 is the zero baseline; round 2 carries the cumulative
        // cycle counters, so increase[2r] is exactly the per-strategy run.
        let scale = (round - 1) as f64;
        for (s, tr, tot) in &shares {
            tsdb.store_counter(
                &format!("sfi_profile_transition_cycles_total{{strategy=\"{}\"}}", s.name()),
                round,
                (tr * scale).round() as u64,
            );
            tsdb.store_counter(
                &format!("sfi_profile_attributed_cycles_total{{strategy=\"{}\"}}", s.name()),
                round,
                (tot * scale).round() as u64,
            );
        }
        rules.evaluate(round, &mut tsdb);
    }
    for (s, tr, tot) in &shares {
        let sel = format!("sfi_profile_transition_share_permille{{strategy=\"{}\"}}", s.name());
        let rows = tsdb.latest(&Selector::parse(&sel).expect("share selector"));
        assert_eq!(rows.len(), 1, "{}: recording rule must publish one series", s.name());
        let direct = 1000.0 * tr / tot;
        assert!(
            (rows[0].1 - direct).abs() <= 1.0,
            "{}: recorded share {} vs direct {direct:.3} permille",
            s.name(),
            rows[0].1
        );
    }
    println!("[check] transition shares recomputed by recording rules agree (±1 permille) ✓");
    let line = shares
        .iter()
        .map(|(s, tr, tot)| format!("{}={}", s.name(), (tr / tot * 10_000.0).round() as u64))
        .collect::<Vec<_>>()
        .join(" ");
    println!("[check] calibration: profile transition_share_bp {line}");
    println!("\nfigX_profile --check: all gates passed");
}
