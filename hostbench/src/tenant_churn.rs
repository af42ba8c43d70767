//! `tenant_churn`: one closed-loop client driving a FaaS worker.
//!
//! The worker runs a Segue + ColorGuard [`Runtime`] behind an [`Engine`]
//! code cache with tiering. Each request spawns a tenant instance, invokes
//! its `run` export and tears it down. Most requests go to already
//! deployed tenants with Zipf popularity over a population twice the cache
//! capacity, so unpopular tenants miss and recompile; a seeded share are
//! the first request of a newly deployed tenant, whose WAT source is
//! parsed, validated and compiled on the request path. A stated share of
//! tenants trap (as the reference interpreter does too); their slots go
//! through quarantine, and once quarantine has retired every slot the
//! refused spawn is served by replacing the runtime inside that request.
//!
//! Compile, parse and runtime entry/exit do most of the work; each invoke
//! retires only about a hundred guest instructions. An operation is one
//! request.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use sfi_core::{compile, CompilerConfig, OptLevel, Strategy};
use sfi_runtime::{Engine, InstanceId, Runtime, RuntimeConfig, RuntimeError, Tier, TierPolicy};
use sfi_wasm::interp::{Interpreter, Limits};
use sfi_wasm::{Module, WasmTrap};

use crate::probe;
use crate::report::{comparable, timed_setups, Checks, Outcome};
use crate::stats::{fnv, median, tail, Rng, FNV_SEED};
use crate::trace::Tracer;

/// Deployed tenants; twice the code-cache capacity.
const POPULATION: usize = 96;
/// Engine code-cache capacity (entries; each tier of a module is one).
const CACHE_CAPACITY: usize = 48;
/// Spawns at the baseline tier before a tenant is recompiled optimized.
const PROMOTE_AFTER: u64 = 16;
/// Zipf exponent of tenant popularity.
const ZIPF_S: f64 = 1.0;
/// Share of requests that are a new tenant's first request.
const NEW_TENANT_SHARE: f64 = 0.02;
/// New tenants generated at set-up (reused round-robin if a run needs
/// more; a reused one hits the code cache like a redeploy would).
const NEW_TENANTS: usize = 2048;
/// Deployed tenants at popularity ranks 5, 15, 25, ... trap (8.3% of
/// requests under Zipf(1) over 96); one new tenant in ten traps.
const TRAP_RANK_PERIOD: usize = 10;
/// Requests served during set-up, so caches and tiers are warm.
const WARMUP_REQUESTS: u64 = 1000;
/// Requests in each pass of a traced run.
const TRACED_REQUESTS: u64 = 15_000;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Interpreter instructions a tenant's `run` may execute. Generated
/// programs are heavy-tailed (median about 90 emulated instructions, the
/// longest over 50 000); the cap keeps each request fine-grained and keeps
/// a seed's few longest programs from setting the tail.
const TENANT_FUEL: u64 = 1500;

/// What the reference interpreter does with a tenant's `run`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    Value(Option<u64>),
    Trap,
    /// Runs past [`TENANT_FUEL`]: not used as a tenant.
    TooLong,
}

struct Deployed {
    module: Module,
    expect: Expect,
}

struct Fresh {
    source: String,
    expect: Expect,
}

/// What one request did, for the tallies and the traced run's layers.
#[derive(Default)]
struct Served {
    latency_s: f64,
    parsed_bytes: usize,
    insts: u64,
    icache_misses: u64,
    dcache_misses: u64,
    cycles: f64,
    transition_cycles: f64,
    guest_cycles: f64,
    trapped: bool,
    /// The module and tier compiled on this request's spawn, if it missed.
    compiled: Option<(Module, OptLevel)>,
}

struct State {
    deployed: Vec<Deployed>,
    zipf_cdf: Vec<f64>,
    fresh: Vec<Fresh>,
    next_fresh: usize,
    engine: Engine,
    rt: Runtime,
    cfg: CompilerConfig,
    rng: Rng,
    requests: u64,
    restarts: u64,
    /// Digest of every request's modeled outcome so far.
    digest: u64,
    /// The checks of the warm-up requests.
    warmup: Checks,
}

fn reference(module: &Module) -> Expect {
    let mut interp = Interpreter::new(module).expect("generated programs instantiate");
    interp.set_limits(Limits {
        fuel: TENANT_FUEL,
        ..Limits::default()
    });
    match interp.invoke_export("run", &[]) {
        Ok(v) => Expect::Value(v),
        Err(WasmTrap::FuelExhausted) => Expect::TooLong,
        Err(_) => Expect::Trap,
    }
}

/// Whether the deployed tenant of popularity rank `rank` (1-based) traps.
fn traps_at_rank(rank: usize) -> bool {
    rank % TRAP_RANK_PERIOD == 5
}

/// Whether new tenant `i` traps.
fn fresh_traps_at(i: usize) -> bool {
    i.is_multiple_of(TRAP_RANK_PERIOD)
}

/// Takes `m` programs out of `pool`: the k-th taken is the one whose
/// source size sits at quantile `vdc(k + 1)` of the whole pool, where `vdc`
/// is the base-2 van der Corput sequence (the median, then the quartiles,
/// then the octiles, ...). The pool is a few thousand programs, so its
/// quantiles, and with them the sizes taken, barely move from seed to
/// seed. The rest of the pool keeps its order.
fn take_stratified<T>(pool: &mut Vec<(String, T, Expect)>, m: usize) -> Vec<(String, T, Expect)> {
    let n = pool.len();
    let mut by_size: Vec<usize> = (0..n).collect();
    by_size.sort_by_key(|&i| pool[i].0.len());
    let mut taken = vec![false; n];
    let mut picks = Vec::with_capacity(m);
    for k in 1..=m {
        let (mut vdc, mut bit, mut i) = (0.0, 0.5, k);
        while i > 0 {
            if i & 1 == 1 {
                vdc += bit;
            }
            bit /= 2.0;
            i >>= 1;
        }
        let target = vdc * n as f64;
        let rank = (0..n)
            .filter(|&r| !taken[r])
            .min_by(|&a, &b| {
                (a as f64 - target)
                    .abs()
                    .total_cmp(&(b as f64 - target).abs())
            })
            .expect("the pool holds at least m programs");
        taken[rank] = true;
        picks.push(by_size[rank]);
    }
    let mut slots: Vec<Option<(String, T, Expect)>> = pool.drain(..).map(Some).collect();
    let out = picks
        .iter()
        .map(|&i| slots[i].take().expect("picked once"))
        .collect();
    pool.extend(slots.into_iter().flatten());
    out
}

fn runtime() -> Runtime {
    Runtime::new(RuntimeConfig::small_test(true)).expect("the small test runtime builds")
}

fn setup(seed: u64) -> State {
    // Classify generated programs until both lists are long enough.
    let deployed_traps = (1..=POPULATION).filter(|r| traps_at_rank(*r)).count();
    let fresh_traps = (0..NEW_TENANTS).filter(|i| fresh_traps_at(*i)).count();
    let value_needed = POPULATION + NEW_TENANTS - deployed_traps - fresh_traps;
    let trap_needed = deployed_traps + fresh_traps;
    // Every tenant is deployed as WAT source. The reference is the
    // interpreter on the module that source parses to (see README.md on
    // why that is not the generated module itself).
    let (mut values, mut traps) = (Vec::new(), Vec::new());
    let mut program_seed = seed.wrapping_mul(0x1_0000_0001);
    while values.len() < value_needed || traps.len() < trap_needed {
        let source =
            sfi_wasm::print::print(&sfi_workloads::genprog::generate(program_seed).module());
        program_seed = program_seed.wrapping_add(1);
        let module = sfi_wasm::wat::parse(&source).expect("printed programs parse");
        match reference(&module) {
            Expect::Trap if traps.len() < trap_needed => traps.push((source, module, Expect::Trap)),
            e @ Expect::Value(_) if values.len() < value_needed => values.push((source, module, e)),
            _ => {}
        }
    }
    // Deployed tenants are taken from the whole pool by a fixed
    // size-quantile schedule, so every seed puts programs of about the same
    // size at each popularity rank. New tenants keep generation order.
    let mut value_ranks = take_stratified(&mut values, POPULATION - deployed_traps);
    let mut trap_ranks = take_stratified(&mut traps, deployed_traps);
    value_ranks.reverse();
    trap_ranks.reverse();
    let mut deployed = Vec::with_capacity(POPULATION);
    for rank in 1..=POPULATION {
        let (_, module, expect) = if traps_at_rank(rank) {
            trap_ranks.pop()
        } else {
            value_ranks.pop()
        }
        .expect("classified enough");
        deployed.push(Deployed { module, expect });
    }
    values.reverse();
    traps.reverse();
    let fresh = (0..NEW_TENANTS)
        .map(|i| {
            let (source, _, expect) = if fresh_traps_at(i) {
                traps.pop()
            } else {
                values.pop()
            }
            .expect("classified enough");
            Fresh { source, expect }
        })
        .collect();
    let weights: Vec<f64> = (1..=POPULATION)
        .map(|k| 1.0 / (k as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let zipf_cdf = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let mut state = State {
        deployed,
        zipf_cdf,
        fresh,
        next_fresh: 0,
        engine: Engine::with_tier_policy(
            CACHE_CAPACITY,
            TierPolicy {
                promote_after: PROMOTE_AFTER,
            },
        ),
        rt: runtime(),
        cfg: CompilerConfig::for_strategy(Strategy::Segue),
        rng: Rng::new(seed, 0x5E),
        requests: 0,
        restarts: 0,
        digest: FNV_SEED,
        warmup: Checks::default(),
    };
    let mut off = Tracer::new(false);
    let mut warmup = Checks::default();
    for _ in 0..WARMUP_REQUESTS {
        state.request(&mut off, &mut warmup);
    }
    state.warmup = warmup;
    state
}

impl State {
    /// Serves one request end to end and checks it.
    fn request(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Served {
        let op = self.requests;
        self.requests += 1;
        let fresh = self.rng.unit() < NEW_TENANT_SHARE;
        let tenant = if fresh {
            let i = self.next_fresh % self.fresh.len();
            self.next_fresh += 1;
            i
        } else {
            let u = self.rng.unit();
            self.zipf_cdf
                .partition_point(|c| *c < u)
                .min(POPULATION - 1)
        };
        let start = Instant::now();
        let root = tr.begin("tenant.request", op);
        let mut problems = Vec::new();
        let served = catch_unwind(AssertUnwindSafe(|| {
            self.serve(tr, op, fresh, tenant, &mut problems)
        }));
        tr.end(root);
        let latency_s = start.elapsed().as_secs_f64();
        let served = served.unwrap_or_else(|_| {
            problems.push("panicked".to_owned());
            None
        });
        let label = match (problems.is_empty(), fresh) {
            (true, _) => String::new(),
            (false, true) => format!("request {op}: new tenant {tenant}"),
            (false, false) => format!("request {op}: tenant of rank {}", tenant + 1),
        };
        checks.record(&label, &problems);
        Served {
            latency_s,
            ..served.unwrap_or_default()
        }
    }

    fn serve(
        &mut self,
        tr: &mut Tracer,
        op: u64,
        fresh: bool,
        tenant: usize,
        problems: &mut Vec<String>,
    ) -> Option<Served> {
        let State {
            deployed,
            fresh: fresh_tenants,
            engine,
            rt,
            cfg,
            restarts,
            digest,
            ..
        } = self;
        let parsed;
        let mut parsed_bytes = 0;
        let (module, expect) = if fresh {
            let f = &fresh_tenants[tenant];
            let m = match tr.span("wasm.parse", op, || sfi_wasm::wat::parse(&f.source)) {
                Ok(m) => m,
                Err(e) => {
                    problems.push(format!("parse: {e}"));
                    return None;
                }
            };
            if let Err(e) = tr.span("wasm.validate", op, || sfi_wasm::validate(&m)) {
                problems.push(format!("validate: {e}"));
                return None;
            }
            parsed = m;
            parsed_bytes = f.source.len();
            (&parsed, f.expect)
        } else {
            let d = &deployed[tenant];
            (&d.module, d.expect)
        };

        let misses = engine.cache().stats().misses;
        let mut spawned = spawn(rt, engine, cfg, tr, op, module);
        if matches!(spawned, Err(RuntimeError::Pool(_))) {
            // Quarantine retired every slot: replace the runtime. The code
            // cache survives, keyed by the same slot-layout contract.
            let s = tr.begin("runtime.restart", op);
            *rt = runtime();
            tr.end(s);
            *restarts += 1;
            spawned = spawn(rt, engine, cfg, tr, op, module);
        }
        let (id, tier) = match spawned {
            Ok(x) => x,
            Err(e) => {
                problems.push(format!("spawn: {e}"));
                return None;
            }
        };
        let cold = engine.cache().stats().misses > misses;

        let invoked = tr.span("runtime.invoke", op, || rt.invoke(id, "run", &[]));
        if rt.host_pkru() != 0 || rt.host_gs_base() != 0 {
            problems.push(format!(
                "host state not restored: pkru {:#x}, gs base {:#x}",
                rt.host_pkru(),
                rt.host_gs_base()
            ));
        }
        let mut served = Served {
            parsed_bytes,
            compiled: (cold && tr.on()).then(|| {
                let level = match tier {
                    Tier::Baseline => OptLevel::Baseline,
                    Tier::Optimized => OptLevel::Optimized,
                };
                (module.clone(), level)
            }),
            ..Served::default()
        };
        let outcome_bits = match (&invoked, expect) {
            (Ok(out), Expect::Value(want)) => {
                let got = comparable(want, out.result);
                if got != want {
                    problems.push(format!("result {got:?}, interpreter {want:?}"));
                }
                served.insts = out.stats.insts;
                served.icache_misses = out.stats.icache_misses;
                served.dcache_misses = out.stats.dcache_misses;
                served.cycles = out.stats.cycles;
                served.transition_cycles = out.breakdown.transition_cycles;
                served.guest_cycles = out.breakdown.guest_cycles();
                [
                    got.unwrap_or(u64::MAX),
                    out.stats.cycles.to_bits(),
                    out.transition_cycles.to_bits(),
                ]
            }
            (Err(RuntimeError::Trapped(_)), Expect::Trap) => {
                served.trapped = true;
                [u64::MAX - 1, 0, 0]
            }
            (got, want) => {
                problems.push(format!(
                    "invoke {:?}, interpreter {want:?}",
                    got.as_ref().map(|o| o.result)
                ));
                [u64::MAX - 2, 0, 0]
            }
        };
        for v in [
            tenant as u64,
            u64::from(fresh),
            u64::from(cold),
            outcome_bits[0],
            outcome_bits[1],
            outcome_bits[2],
        ] {
            *digest = fnv(*digest, &v.to_le_bytes());
        }

        let torn_down = if rt.is_poisoned(id) == Some(true) {
            tr.span("runtime.recycle", op, || rt.recycle(id).map(|_| ()))
        } else {
            tr.span("runtime.terminate", op, || rt.terminate(id))
        };
        if let Err(e) = torn_down {
            problems.push(format!("teardown: {e}"));
        }
        Some(served)
    }
}

/// Spawns `module` through the engine, tracing the call as a warm or a
/// cold spawn.
fn spawn(
    rt: &mut Runtime,
    engine: &mut Engine,
    cfg: &CompilerConfig,
    tr: &mut Tracer,
    op: u64,
    module: &Module,
) -> Result<(InstanceId, Tier), RuntimeError> {
    let misses = engine.cache().stats().misses;
    let s = tr.begin("runtime.spawn", op);
    let out = rt.spawn_tiered(engine, module, cfg);
    let cold = engine.cache().stats().misses > misses;
    tr.end_as(
        s,
        if cold {
            "runtime.spawn_cold"
        } else {
            "runtime.spawn_warm"
        },
    );
    out
}

/// Request tallies of one pass.
#[derive(Default)]
struct Tally {
    /// `(start, latency s)` of every request.
    timed: Vec<(f64, f64)>,
    parsed_bytes: usize,
    insts: u64,
    icache_misses: u64,
    dcache_misses: u64,
    cycles: f64,
    transition_cycles: f64,
    guest_cycles: f64,
    traps: u64,
    /// Runtimes replaced during the pass.
    restarts: u64,
}

fn drive(
    state: &mut State,
    tr: &mut Tracer,
    checks: &mut Checks,
    mut stop: impl FnMut(u64) -> bool,
    mut on_compiled: impl FnMut(&mut Tracer, u64, Module, OptLevel),
) -> Tally {
    let mut t = Tally::default();
    let restarts = state.restarts;
    let mut n = 0u64;
    while !stop(n) {
        let op = state.requests;
        let at = probe::now();
        let s = state.request(tr, checks);
        probe::tick();
        n += 1;
        t.timed.push((at, s.latency_s));
        t.insts += s.insts;
        t.icache_misses += s.icache_misses;
        t.dcache_misses += s.dcache_misses;
        t.parsed_bytes += s.parsed_bytes;
        t.cycles += s.cycles;
        t.transition_cycles += s.transition_cycles;
        t.guest_cycles += s.guest_cycles;
        t.traps += u64::from(s.trapped);
        if let Some((module, level)) = s.compiled {
            on_compiled(tr, op, module, level);
        }
    }
    t.restarts = state.restarts - restarts;
    t
}

fn headline(out: &mut Outcome, t: &Tally) {
    let lat_us: Vec<f64> = probe::correct(&t.timed).iter().map(|s| s * 1e6).collect();
    let tl = tail(&lat_us);
    out.headline = vec![
        ("req_p50_us", median(&lat_us), "us"),
        ("req_tail_us", tl.value, "us"),
        ("req_tail_pct", tl.pct, "%"),
        ("req_tail_beyond", tl.beyond as f64, "count"),
        (
            "req_per_s",
            1e6 * lat_us.len() as f64 / lat_us.iter().sum::<f64>().max(1e-12),
            "req/s",
        ),
        ("requests", lat_us.len() as f64, "count"),
        (
            "trap_share",
            t.traps as f64 / lat_us.len().max(1) as f64,
            "ratio",
        ),
        ("restarts", t.restarts as f64, "count"),
    ];
}

/// Runs the workload: an untraced time-bounded run, or (traced) the same
/// fixed request sequence untraced and then traced, from identical
/// set-ups.
pub fn run(seed: u64, seconds: f64, traced: bool) -> (Outcome, Option<Tracer>) {
    let (mut state, setup_s, repeated) = timed_setups(SETUP_REPS, || setup(seed), |s| s.digest);
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    out.checks
        .expect("warm-up repeats its modeled outcomes", repeated);
    out.checks.merge(std::mem::take(&mut state.warmup));
    let mut off = Tracer::new(false);

    if !traced {
        let start = Instant::now();
        let t = drive(
            &mut state,
            &mut off,
            &mut out.checks,
            |_| start.elapsed().as_secs_f64() >= seconds,
            |_, _, _, _| {},
        );
        let lat_ms: Vec<f64> = probe::correct(&t.timed).iter().map(|s| s * 1e3).collect();
        // Closed loop: throughput is requests over the time spent serving them.
        out.e2e.insert(
            "ops_per_s",
            1e3 * lat_ms.len() as f64 / lat_ms.iter().sum::<f64>().max(1e-12),
        );
        out.e2e.insert("op_p50_ms", median(&lat_ms));
        out.e2e.insert("op_tail_ms", tail(&lat_ms).value);
        headline(&mut out, &t);
        return (out, None);
    }

    let plain = drive(
        &mut state,
        &mut off,
        &mut out.checks,
        |n| n >= TRACED_REQUESTS,
        |_, _, _, _| {},
    );
    headline(&mut out, &plain);
    let plain_digest = state.digest;
    drop(state);
    let mut state = setup(seed);
    let cache0 = state.engine.cache().stats();
    let promotions0 = state.engine.tier_stats().promotions;
    let mut tr = Tracer::new(true);
    let cfg = state.cfg.clone();
    let mut compiled_stats = (0u64, 0u64, 0u64);
    let traced_tally = drive(
        &mut state,
        &mut tr,
        &mut out.checks,
        |n| n >= TRACED_REQUESTS,
        |tr, op, module, level| {
            // A replica of the compile the spawn ran, timed on its own.
            let cfg = match level {
                OptLevel::Baseline => cfg.clone(),
                OptLevel::Optimized => cfg.clone().optimized(),
            };
            let name = match level {
                OptLevel::Baseline => "core.compile.baseline",
                OptLevel::Optimized => "core.compile.optimized",
            };
            if let Ok(cm) = tr.span(name, op, || compile(&module, &cfg)) {
                compiled_stats.0 += cm.inst_count() as u64;
                compiled_stats.1 += cm.code_size() as u64;
                compiled_stats.2 += cm.opt_stats.total() as u64;
            }
        },
    );
    out.checks.expect(
        "traced and untraced runs serve identical modeled outcomes",
        state.digest == plain_digest,
    );

    let cache = state.engine.cache().stats();
    let l = &mut out.layers;
    for (metric, span) in [
        ("wasm.parse_us", "wasm.parse"),
        ("wasm.validate_us", "wasm.validate"),
        ("core.compile_us.baseline", "core.compile.baseline"),
        ("core.compile_us.optimized", "core.compile.optimized"),
        ("runtime.spawn_warm_us", "runtime.spawn_warm"),
        ("runtime.spawn_cold_us", "runtime.spawn_cold"),
        ("runtime.invoke_us", "runtime.invoke"),
        ("runtime.terminate_us", "runtime.terminate"),
        ("runtime.recycle_us", "runtime.recycle"),
        ("runtime.restart_us", "runtime.restart"),
    ] {
        l.insert(metric, median(&tr.durations_us(span)));
    }
    l.insert(
        "wasm.parse_mb_per_s",
        traced_tally.parsed_bytes as f64 / 1e6 / tr.total_s("wasm.parse").max(1e-12),
    );
    l.insert("core.emitted_insts", compiled_stats.0 as f64);
    l.insert("core.code_bytes", compiled_stats.1 as f64);
    l.insert("core.opt_rewrites", compiled_stats.2 as f64);
    l.insert("x86.insts", traced_tally.insts as f64);
    l.insert("x86.icache_misses", traced_tally.icache_misses as f64);
    l.insert("x86.dcache_misses", traced_tally.dcache_misses as f64);
    l.insert("x86.modeled_cycles", traced_tally.cycles);
    let (hits, misses) = (cache.hits - cache0.hits, cache.misses - cache0.misses);
    l.insert(
        "runtime.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    l.insert(
        "runtime.cache_evictions",
        (cache.evictions - cache0.evictions) as f64,
    );
    l.insert(
        "runtime.promotions",
        (state.engine.tier_stats().promotions - promotions0) as f64,
    );
    l.insert("runtime.traps", traced_tally.traps as f64);
    l.insert("runtime.restarts", traced_tally.restarts as f64);
    l.insert("runtime.transition_cycles", traced_tally.transition_cycles);
    l.insert("runtime.guest_cycles", traced_tally.guest_cycles);
    // Request time only: the compile replicas run outside the requests.
    let busy = |t: &Tally| t.timed.iter().map(|(_, s)| s).sum::<f64>();
    l.insert(
        "bench.trace_overhead",
        busy(&traced_tally) / busy(&plain).max(1e-12),
    );
    (out, Some(tr))
}
