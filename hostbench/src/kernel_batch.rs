//! `kernel_batch`: a closed-loop batch of seeded compile-and-run jobs.
//!
//! Each job takes one kernel through parse → validate → compile → execute →
//! check, in a seeded (strategy, tier) cell. Every corpus kernel runs once
//! per pass. A few cells per protected strategy, and every Spectre gadget,
//! also run with the speculation window on, always in a declared-safe
//! (strategy, mitigation) cell. Emulation is nearly all of the host time
//! here, so this workload is what an emulator change moves. It never
//! reaches `sfi-runtime`, `sfi-faas` or `sfi-telemetry`.
//!
//! An operation is one million retired guest instructions: `ops_per_s` is
//! the guest Minst per host second of the speculation-off jobs, and
//! `op_p50_ms`/`op_tail_ms` are per-job host ms per guest Minst over every
//! job, speculation on or off.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use sfi_core::harness::{execute_export, execute_speculative, spec_config_for, ExecOutcome};
use sfi_core::{compile, CompilerConfig, MitigationLevel, OptLevel, Strategy};
use sfi_wasm::interp::Interpreter;

use crate::probe;
use crate::report::{comparable, timed_setups, Checks, Outcome};
use crate::stats::{fnv, geomean, median, tail, Rng, FNV_SEED};
use crate::trace::Tracer;

/// Corpus kernels per protected strategy whose cell also runs with the
/// speculation window on.
const WINDOW_CELLS_PER_STRATEGY: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// What the reference interpreter computed for one kernel.
#[derive(Debug, Clone, PartialEq)]
struct Reference {
    result: Option<u64>,
    heap: u64,
    heap_len: usize,
}

struct Kernel {
    name: &'static str,
    wat: String,
    reference: Reference,
}

struct Job {
    kernel: usize,
    strategy: Strategy,
    tier: OptLevel,
    mitigation: MitigationLevel,
    /// Run with the speculation window on (always in a declared-safe cell).
    window: bool,
    /// For a window job: the speculation-off job of the same cell, whose
    /// architectural outcome it must reproduce.
    twin: Option<usize>,
}

/// The outputs of one job that are modeled, not measured: identical on
/// every repetition.
#[derive(Debug, Clone, PartialEq)]
struct Modeled {
    result: Option<u64>,
    heap: u64,
    cycles_bits: u64,
    insts: u64,
    icache_misses: u64,
    dcache_misses: u64,
    spec_uops: u64,
    spec_flushes: u64,
    spec_leaks: u64,
    code_bytes: usize,
    emitted_insts: usize,
    opt_rewrites: u64,
}

struct Batch {
    /// The corpus, then the gadgets.
    kernels: Vec<Kernel>,
    /// Index of the first gadget in `kernels`.
    gadgets_from: usize,
    jobs: Vec<Job>,
    /// The order one pass runs the jobs in.
    order: Vec<usize>,
}

struct JobRun {
    /// Start, on the probe's clock.
    at: f64,
    host_s: f64,
    modeled: Option<Modeled>,
    problems: Vec<String>,
}

fn config(job: &Job, mem_pages: u32) -> CompilerConfig {
    let mut cfg = sfi_bench::config_for(job.strategy, mem_pages, false);
    cfg.opt_level = job.tier;
    cfg.mitigation = job.mitigation;
    cfg
}

fn reference(wat: &str) -> Reference {
    let module = sfi_wasm::wat::parse(wat).expect("corpus kernel parses");
    let mut interp = Interpreter::new(&module).expect("corpus kernel instantiates");
    let result = interp
        .invoke_export("run", &[])
        .expect("corpus kernel runs in the interpreter");
    Reference {
        result,
        heap: fnv(FNV_SEED, &interp.memory),
        heap_len: interp.memory.len(),
    }
}

fn setup(seed: u64) -> Batch {
    let mut rng = Rng::new(seed, 0x4B42);
    let corpus = sfi_workloads::all();
    let gadgets_from = corpus.len();
    let kernels: Vec<Kernel> = corpus
        .iter()
        .chain(sfi_workloads::gadgets::gadgets().iter())
        .map(|w| Kernel {
            name: w.name,
            wat: w.wat.clone(),
            reference: reference(&w.wat),
        })
        .collect();

    // Every corpus kernel runs once per pass. Strategies and tiers are
    // dealt round-robin over a seeded order, so each strategy gets the
    // same number of kernels and each tier half of them.
    let mut order: Vec<usize> = (0..gadgets_from).collect();
    rng.shuffle(&mut order);
    let n_strategies = Strategy::ALL.len();
    let mut jobs: Vec<Job> = order
        .iter()
        .enumerate()
        .map(|(i, &kernel)| Job {
            kernel,
            strategy: Strategy::ALL[i % n_strategies],
            tier: if (i / n_strategies).is_multiple_of(2) {
                OptLevel::Baseline
            } else {
                OptLevel::Optimized
            },
            mitigation: MitigationLevel::None,
            window: false,
            twin: None,
        })
        .collect();
    let protected: Vec<Strategy> = Strategy::ALL
        .iter()
        .copied()
        .filter(|s| *s != Strategy::Native)
        .collect();
    let safe_level = |rng: &mut Rng, s: Strategy| {
        let levels: Vec<MitigationLevel> = MitigationLevel::ALL
            .iter()
            .copied()
            .filter(|l| l.declared_safe(s))
            .collect();
        levels[rng.below(levels.len())]
    };
    // The first kernels of each protected strategy are hardened at a
    // seeded declared-safe level and rerun with the window on.
    let mut twins = Vec::new();
    for &s in &protected {
        let cells: Vec<usize> = (0..jobs.len())
            .filter(|&j| jobs[j].strategy == s)
            .take(WINDOW_CELLS_PER_STRATEGY)
            .collect();
        for j in cells {
            jobs[j].mitigation = safe_level(&mut rng, s);
            twins.push(j);
        }
    }
    // Every gadget runs in a seeded declared-safe cell, with and without
    // the window.
    for kernel in gadgets_from..kernels.len() {
        let strategy = protected[rng.below(protected.len())];
        let tier = if rng.below(2) == 0 {
            OptLevel::Baseline
        } else {
            OptLevel::Optimized
        };
        let mitigation = safe_level(&mut rng, strategy);
        twins.push(jobs.len());
        jobs.push(Job {
            kernel,
            strategy,
            tier,
            mitigation,
            window: false,
            twin: None,
        });
    }
    for twin in twins {
        let off = &jobs[twin];
        let window = Job {
            window: true,
            twin: Some(twin),
            ..*off
        };
        jobs.push(window);
    }
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    rng.shuffle(&mut order);
    Batch {
        kernels,
        gadgets_from,
        jobs,
        order,
    }
}

/// Runs job `j` end to end and checks it.
fn run_job(batch: &Batch, j: usize, tr: &mut Tracer, op: u64) -> JobRun {
    let job = &batch.jobs[j];
    let kernel = &batch.kernels[job.kernel];
    let at = probe::now();
    let start = Instant::now();
    let root = tr.begin("kernel.job", op);
    let run = catch_unwind(AssertUnwindSafe(
        || -> Result<(ExecOutcome, Modeled), String> {
            let module = tr
                .span("wasm.parse", op, || sfi_wasm::wat::parse(&kernel.wat))
                .map_err(|e| format!("parse: {e}"))?;
            tr.span("wasm.validate", op, || sfi_wasm::validate(&module))
                .map_err(|e| format!("validate: {e}"))?;
            let cfg = config(job, module.mem_min_pages);
            let name = match job.tier {
                OptLevel::Baseline => "core.compile.baseline",
                OptLevel::Optimized => "core.compile.optimized",
            };
            let cm = tr
                .span(name, op, || compile(&module, &cfg))
                .map_err(|e| format!("compile: {e}"))?;
            let out = if job.window {
                tr.span("x86.emulate_spec", op, || {
                    let spec =
                        spec_config_for(&cm).expect("default secret placement fits the layout");
                    execute_speculative(&cm, "run", &[], spec)
                })
            } else {
                tr.span("x86.emulate", op, || execute_export(&cm, "run", &[]))
            }
            .map_err(|e| format!("execute: {e}"))?;
            let s = &out.stats;
            // The harness's heap view runs to the end of its flat memory; the
            // linear memory is its first `heap_len` bytes.
            let heap_len = kernel.reference.heap_len.min(out.heap.len());
            let modeled = Modeled {
                result: out.result,
                heap: fnv(FNV_SEED, &out.heap[..heap_len]),
                cycles_bits: s.cycles.to_bits(),
                insts: s.insts,
                icache_misses: s.icache_misses,
                dcache_misses: s.dcache_misses,
                spec_uops: s.spec_uops,
                spec_flushes: s.spec_flushes,
                spec_leaks: s.spec_leaks,
                code_bytes: cm.code_size(),
                emitted_insts: cm.inst_count(),
                opt_rewrites: cm.opt_stats.total() as u64,
            };
            Ok((out, modeled))
        },
    ));
    let mut problems = Vec::new();
    let mut modeled = None;
    match run {
        Err(_) => problems.push("panicked".to_owned()),
        Ok(Err(e)) => problems.push(e),
        Ok(Ok((out, m))) => {
            let check = tr.begin("bench.check", op);
            let want = &kernel.reference;
            if let Some(e) = want.result {
                if comparable(want.result, out.result) != Some(e) {
                    problems.push(format!("result {:?}, interpreter {e}", out.result));
                }
            }
            if m.heap != want.heap {
                problems.push("final heap differs from the interpreter's".to_owned());
            }
            if out.stats.cycles != out.stats.attributed_cycles() {
                problems.push(format!(
                    "attributed cycles {} != cycles {}",
                    out.stats.attributed_cycles(),
                    out.stats.cycles
                ));
            }
            if job.window && out.stats.spec_leaks != 0 {
                problems.push(format!(
                    "{} leaks in a declared-safe cell",
                    out.stats.spec_leaks
                ));
            }
            tr.end(check);
            modeled = Some(m);
        }
    }
    tr.end(root);
    JobRun {
        at,
        host_s: start.elapsed().as_secs_f64(),
        modeled,
        problems,
    }
}

fn job_label(batch: &Batch, j: usize) -> String {
    let job = &batch.jobs[j];
    let window = if job.window {
        " with the window on"
    } else {
        ""
    };
    format!(
        "{} {}/{}/{}{window}",
        batch.kernels[job.kernel].name, job.strategy, job.tier, job.mitigation
    )
}

/// Accumulates one pass (or a time-bounded run) of jobs.
#[derive(Default)]
struct Tally {
    /// `(start, host s)` of every job that ran to completion.
    timed: Vec<(f64, f64)>,
    /// Which job each entry of `timed` is.
    job: Vec<usize>,
    insts: Vec<u64>,
    spec: Vec<bool>,
    jobs: u64,
}

impl Tally {
    fn add(&mut self, j: usize, job: &Job, run: &JobRun) {
        self.jobs += 1;
        let Some(m) = &run.modeled else { return };
        self.timed.push((run.at, run.host_s));
        self.job.push(j);
        self.insts.push(m.insts);
        self.spec.push(job.window);
    }

    /// Corrected speculation-off and speculation-on Minst/s, and each
    /// job's corrected host ms per guest Minst, averaged over its runs.
    /// One value per job keeps the sample set the same however many passes
    /// a run completes.
    fn rates(&self) -> (f64, f64, Vec<f64>) {
        let mut off = (0u64, 0.0);
        let mut on = (0u64, 0.0);
        let mut per_job: BTreeMap<usize, (f64, u32)> = BTreeMap::new();
        let corrected = probe::correct(&self.timed);
        for (((secs, insts), spec), j) in corrected
            .iter()
            .zip(&self.insts)
            .zip(&self.spec)
            .zip(&self.job)
        {
            let acc = if *spec { &mut on } else { &mut off };
            acc.0 += insts;
            acc.1 += secs;
            let e = per_job.entry(*j).or_default();
            e.0 += secs * 1e3 / ((*insts).max(1) as f64 / 1e6);
            e.1 += 1;
        }
        let rate = |(insts, secs): (u64, f64)| insts as f64 / 1e6 / f64::max(secs, 1e-12);
        (
            rate(off),
            rate(on),
            per_job
                .values()
                .map(|(sum, n)| sum / f64::from(*n))
                .collect(),
        )
    }
}

/// Per-job modeled outputs, checked for identity on every repetition.
struct Determinism {
    first: Vec<Option<Modeled>>,
}

impl Determinism {
    fn observe(&mut self, checks: &mut Checks, batch: &Batch, j: usize, m: &Option<Modeled>) {
        let Some(m) = m else { return };
        match &self.first[j] {
            None => self.first[j] = Some(m.clone()),
            Some(f) => checks.expect(
                &format!("{} repeats its modeled outputs", job_label(batch, j)),
                f == m,
            ),
        }
    }
}

/// Runs the jobs of `batch` in order, pass after pass, until `stop` says so
/// (checked after every job; at least one full pass always runs).
fn drive(
    batch: &Batch,
    tr: &mut Tracer,
    checks: &mut Checks,
    det: &mut Determinism,
    mut stop: impl FnMut(usize) -> bool,
) -> (Tally, f64) {
    let start = Instant::now();
    let mut tally = Tally::default();
    let n = batch.jobs.len();
    for op in 0.. {
        let j = batch.order[op % n];
        let run = run_job(batch, j, tr, op as u64);
        checks.record(&job_label(batch, j), &run.problems);
        det.observe(checks, batch, j, &run.modeled);
        tally.add(j, &batch.jobs[j], &run);
        probe::tick();
        if op + 1 >= n && stop(op + 1) {
            break;
        }
    }
    (tally, start.elapsed().as_secs_f64())
}

/// Every window job reproduces its speculation-off twin's architectural
/// outcome: return value, final heap and committed instructions.
fn check_twins(batch: &Batch, det: &Determinism, checks: &mut Checks) {
    for (j, job) in batch.jobs.iter().enumerate() {
        let Some(twin) = job.twin else { continue };
        let arch = |m: &Option<Modeled>| m.as_ref().map(|m| (m.result, m.heap, m.insts));
        checks.expect(
            &format!("{} matches its speculation-off run", job_label(batch, j)),
            arch(&det.first[j]).is_some() && arch(&det.first[j]) == arch(&det.first[twin]),
        );
    }
}

fn headline(out: &mut Outcome, tally: &Tally, det: &Determinism, batch: &Batch) {
    let (minst, spec_minst, _) = tally.rates();
    // Speculation-off corpus jobs at `MitigationLevel::None`: a fixed set
    // per seed, so these geomeans are deterministic.
    let off: Vec<&Modeled> = batch
        .jobs
        .iter()
        .zip(&det.first)
        .filter(|(job, _)| !job.window && job.mitigation == MitigationLevel::None)
        .filter(|(job, _)| job.kernel < batch.gadgets_from)
        .filter_map(|(_, m)| m.as_ref())
        .collect();
    let cycles: Vec<f64> = off.iter().map(|m| f64::from_bits(m.cycles_bits)).collect();
    let bytes: Vec<f64> = off.iter().map(|m| m.code_bytes as f64).collect();
    out.headline = vec![
        ("minst_per_s", minst, "Minst/s"),
        ("spec_minst_per_s", spec_minst, "Minst/s"),
        ("modeled_cycles_geomean", geomean(&cycles), "cycles"),
        ("code_bytes_geomean", geomean(&bytes), "B"),
        ("jobs", tally.jobs as f64, "count"),
    ];
}

/// Runs the workload: an untraced time-bounded run, or (traced) one
/// untraced and one traced pass over the same batch.
pub fn run(seed: u64, seconds: f64, traced: bool) -> (Outcome, Option<Tracer>) {
    let refs =
        |b: &Batch| -> Vec<Reference> { b.kernels.iter().map(|k| k.reference.clone()).collect() };
    let (batch, setup_s, repeated) = timed_setups(SETUP_REPS, || setup(seed), refs);
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    out.checks.expect("set-up repeats its references", repeated);

    let mut det = Determinism {
        first: vec![None; batch.jobs.len()],
    };
    let mut plain = Tracer::new(false);
    if !traced {
        let start = Instant::now();
        let (tally, _) = drive(&batch, &mut plain, &mut out.checks, &mut det, |_| {
            start.elapsed().as_secs_f64() >= seconds
        });
        check_twins(&batch, &det, &mut out.checks);
        let (minst, _, per_minst) = tally.rates();
        out.e2e.insert("ops_per_s", minst);
        out.e2e.insert("op_p50_ms", median(&per_minst));
        out.e2e.insert("op_tail_ms", tail(&per_minst).value);
        headline(&mut out, &tally, &det, &batch);
        return (out, None);
    }

    let n = batch.jobs.len();
    let (tally, plain_s) = drive(&batch, &mut plain, &mut out.checks, &mut det, |done| {
        done >= n
    });
    check_twins(&batch, &det, &mut out.checks);
    headline(&mut out, &tally, &det, &batch);
    let mut tr = Tracer::new(true);
    let (_, traced_s) = drive(&batch, &mut tr, &mut out.checks, &mut det, |done| done >= n);

    let l = &mut out.layers;
    let parse_s = tr.total_s("wasm.parse");
    let wat_bytes: usize = batch
        .jobs
        .iter()
        .map(|j| batch.kernels[j.kernel].wat.len())
        .sum();
    for (metric, span) in [
        ("wasm.parse_us", "wasm.parse"),
        ("wasm.validate_us", "wasm.validate"),
        ("core.compile_us.baseline", "core.compile.baseline"),
        ("core.compile_us.optimized", "core.compile.optimized"),
    ] {
        l.insert(metric, median(&tr.durations_us(span)));
    }
    l.insert(
        "wasm.parse_mb_per_s",
        wat_bytes as f64 / 1e6 / parse_s.max(1e-12),
    );
    let all: Vec<&Modeled> = det.first.iter().flatten().collect();
    let sum = |f: &dyn Fn(&Modeled) -> u64| all.iter().map(|m| f(m)).sum::<u64>() as f64;
    l.insert("core.emitted_insts", sum(&|m| m.emitted_insts as u64));
    l.insert("core.code_bytes", sum(&|m| m.code_bytes as u64));
    l.insert("core.opt_rewrites", sum(&|m| m.opt_rewrites));
    let (emu_s, spec_s) = (tr.total_s("x86.emulate"), tr.total_s("x86.emulate_spec"));
    let insts_of = |spec: bool| -> f64 {
        batch
            .jobs
            .iter()
            .zip(&det.first)
            .filter(|(job, _)| job.window == spec)
            .filter_map(|(_, m)| m.as_ref())
            .map(|m| m.insts as f64)
            .sum()
    };
    l.insert("x86.emulate_s", emu_s + spec_s);
    l.insert("x86.minst_per_s", insts_of(false) / 1e6 / emu_s.max(1e-12));
    l.insert(
        "x86.spec_minst_per_s",
        insts_of(true) / 1e6 / spec_s.max(1e-12),
    );
    l.insert(
        "x86.ns_per_inst",
        (emu_s + spec_s) * 1e9 / sum(&|m| m.insts).max(1.0),
    );
    l.insert("x86.insts", sum(&|m| m.insts));
    l.insert("x86.spec_uops", sum(&|m| m.spec_uops));
    l.insert("x86.spec_flushes", sum(&|m| m.spec_flushes));
    l.insert("x86.spec_leaks", sum(&|m| m.spec_leaks));
    l.insert("x86.icache_misses", sum(&|m| m.icache_misses));
    l.insert("x86.dcache_misses", sum(&|m| m.dcache_misses));
    l.insert(
        "x86.modeled_cycles",
        all.iter().map(|m| f64::from_bits(m.cycles_bits)).sum(),
    );
    l.insert("bench.trace_overhead", traced_s / plain_s.max(1e-12));

    // The anchor the ROADMAP re-anchor recorded: uncorrected emulator
    // Minst/s of the speculation-off Segue jobs.
    let mut segue = (0u64, 0.0);
    for span in tr.spans().iter().filter(|s| s.name == "x86.emulate") {
        let j = batch.order[span.op as usize % n];
        if batch.jobs[j].strategy == Strategy::Segue {
            segue.0 += det.first[j].as_ref().map_or(0, |m| m.insts);
            segue.1 += span.dur_ns() as f64 / 1e9;
        }
    }
    out.headline.push((
        "segue_emulate_minst_per_s_uncorrected",
        segue.0 as f64 / 1e6 / segue.1.max(1e-12),
        "Minst/s",
    ));
    (out, Some(tr))
}
