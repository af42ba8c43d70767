//! `fleet_rounds`: one fleet supervisor advancing its serving surface.
//!
//! Three static members, one per FaaS workload: hash load-balancing runs
//! closed-loop; regex filtering and HTML templating run open-loop Poisson
//! with QoS at a rate that fires no alert and no scale event. Alerting is
//! on, so every round ingests the federated registry into the tsdb and
//! evaluates the rules. After each round a dashboard poll reads
//! `/metrics`, `/snapshot` and `/profile` through the in-process router.
//! The DES, its request-stream engines and the telemetry layer do all the
//! work; nothing is compiled or emulated. An operation is one round.
//!
//! Members are private to the supervisor, so the traced run times
//! standalone replicas of each member — its `ServeEngine`, and the
//! `simulate_multicore` and `simulate` calls a member round makes — and
//! takes serve and fleet self time from the differences. Membership is
//! static, so each replica runs exactly its member's configuration.

use std::time::Instant;

use sfi_faas::{
    round_seed, simulate, simulate_multicore, ArrivalModel, FaasWorkload, FleetAlertPolicy,
    FleetConfig, FleetSupervisor, MemberState, QosConfig, ServeConfig, ServeEngine,
};
use sfi_telemetry::{json_is_valid, HttpRequest};

use crate::probe;
use crate::report::{timed_setups, Checks, Outcome};
use crate::stats::{fnv, median, tail, FNV_SEED};
use crate::trace::Tracer;

/// Simulated cores per member.
const CORES: u32 = 2;
/// Simulated ms per member round, and per health-probe round.
const ROUND_MS: u64 = 50;
const PROBE_MS: u64 = 25;
/// Host-wide offered load of the open-loop members (requests/s); well
/// under saturation, so no burn alert fires.
const QOS_RATE_RPS: f64 = 20_000.0;
/// Rounds (each with its poll) run during set-up.
const WARMUP_ROUNDS: u64 = 2;
/// Rounds in each pass of a traced run.
const TRACED_ROUNDS: u64 = 24;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The dashboard's endpoints, with the span each poll is traced under.
const POLL: [(&str, &str); 3] = [
    ("/metrics", "telemetry.metrics"),
    ("/snapshot", "telemetry.snapshot"),
    ("/profile", "telemetry.profile"),
];

fn member_configs(seed: u64) -> Vec<ServeConfig> {
    let mut fleet = FleetConfig::paper_rig(FaasWorkload::ALL.len() as u32, CORES);
    for (m, workload) in fleet.members.iter_mut().zip(FaasWorkload::ALL) {
        m.engine.workload = workload;
        m.probe.workload = workload;
        m.engine.duration_ms = ROUND_MS;
        m.probe.duration_ms = PROBE_MS;
        m.engine.seed = round_seed(m.engine.seed, seed);
        m.probe.seed = round_seed(m.probe.seed, seed);
        if workload != FaasWorkload::HashLoadBalance {
            m.engine.qos = Some(QosConfig::paper_rig());
            m.engine.arrivals = ArrivalModel::Poisson {
                rate_rps: QOS_RATE_RPS,
            };
        }
    }
    fleet.members
}

fn fleet_config(seed: u64) -> FleetConfig {
    let members = member_configs(seed);
    let mut cfg = FleetConfig::paper_rig(members.len() as u32, CORES);
    cfg.alerting = Some(FleetAlertPolicy::paper_rig(members[0].clone()));
    cfg.members = members;
    cfg
}

struct State {
    fleet: FleetSupervisor,
    requests: Vec<HttpRequest>,
    started: Instant,
}

fn setup(seed: u64) -> State {
    let requests = POLL
        .iter()
        .map(|(path, _)| {
            HttpRequest::parse(&format!("GET {path} HTTP/1.1")).expect("request line parses")
        })
        .collect();
    let mut state = State {
        fleet: FleetSupervisor::new(fleet_config(seed)),
        requests,
        started: Instant::now(),
    };
    let mut off = Tracer::new(false);
    for _ in 0..WARMUP_ROUNDS {
        state.fleet.run_round();
        state.poll(&mut off, 0);
    }
    state
}

/// What one dashboard poll read.
struct Poll {
    problems: Vec<String>,
    metrics_bytes: usize,
}

impl State {
    /// One dashboard poll: every endpoint once, each body checked.
    fn poll(&mut self, tr: &mut Tracer, op: u64) -> Poll {
        let mut poll = Poll {
            problems: Vec::new(),
            metrics_bytes: 0,
        };
        let uptime = self.started.elapsed().as_secs_f64();
        let s = tr.begin("bench.poll", op);
        for ((path, span), req) in POLL.iter().zip(&self.requests) {
            let (resp, quit) = tr.span(span, op, || self.fleet.route(req, uptime));
            let ok = match *path {
                "/metrics" => {
                    poll.metrics_bytes = resp.body.len();
                    !resp.body.is_empty()
                }
                _ => json_is_valid(&resp.body),
            };
            if resp.status != 200 || quit || !ok {
                poll.problems.push(format!(
                    "{path}: status {}, {} body bytes",
                    resp.status,
                    resp.body.len()
                ));
            }
        }
        tr.end(s);
        poll
    }

    fn snapshot_digest(&self) -> u64 {
        fnv(FNV_SEED, self.fleet.snapshot_json().as_bytes())
    }
}

/// Host times of one pass.
#[derive(Default)]
struct Tally {
    /// `(start, s)` of every round and of every poll.
    rounds: Vec<(f64, f64)>,
    polls: Vec<(f64, f64)>,
    metrics_bytes: usize,
}

/// Runs rounds, each followed by a poll, until `stop` says so.
fn drive(
    state: &mut State,
    tr: &mut Tracer,
    checks: &mut Checks,
    mut stop: impl FnMut(u64) -> bool,
) -> Tally {
    let mut t = Tally::default();
    let members = FaasWorkload::ALL.len();
    while !stop(t.rounds.len() as u64) {
        let op = state.fleet.rounds();
        let (at, r) = (probe::now(), Instant::now());
        tr.span("faas.fleet_round", op, || state.fleet.run_round());
        t.rounds.push((at, r.elapsed().as_secs_f64()));
        let (at, p) = (probe::now(), Instant::now());
        let mut poll = state.poll(tr, op);
        t.polls.push((at, p.elapsed().as_secs_f64()));
        probe::tick();
        t.metrics_bytes = poll.metrics_bytes;
        if state.fleet.members_live() != members {
            poll.problems.push(format!(
                "{} of {members} members live",
                state.fleet.members_live()
            ));
        }
        let label = if poll.problems.is_empty() {
            String::new()
        } else {
            format!("round {op}")
        };
        checks.record(&label, &poll.problems);
    }
    t
}

/// End-of-run invariants: the membership never changed and nobody retired.
fn check_members(state: &State, checks: &mut Checks) {
    let members = state.fleet.members();
    checks.expect(
        "the fleet keeps its three members live",
        members.len() == FaasWorkload::ALL.len()
            && members.iter().all(|m| m.state == MemberState::Live),
    );
}

/// Corrected host ms of `(start, s)` measurements.
fn corrected_ms(timed: &[(f64, f64)]) -> Vec<f64> {
    probe::correct(timed).iter().map(|s| s * 1e3).collect()
}

fn headline(out: &mut Outcome, t: &Tally) {
    let round_ms = corrected_ms(&t.rounds);
    let tl = tail(&round_ms);
    out.headline = vec![
        ("round_p50_ms", median(&round_ms), "ms"),
        ("round_tail_ms", tl.value, "ms"),
        ("round_tail_pct", tl.pct, "%"),
        ("round_tail_beyond", tl.beyond as f64, "count"),
        ("poll_p50_ms", median(&corrected_ms(&t.polls)), "ms"),
        ("rounds", round_ms.len() as f64, "count"),
    ];
}

/// Runs the workload: an untraced time-bounded run, or (traced) the same
/// number of rounds untraced and then traced alongside member replicas.
pub fn run(seed: u64, seconds: f64, traced: bool) -> (Outcome, Option<Tracer>) {
    let (mut state, setup_s, repeated) =
        timed_setups(SETUP_REPS, || setup(seed), State::snapshot_digest);
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    out.checks
        .expect("warm-up repeats the fleet snapshot", repeated);
    let mut off = Tracer::new(false);

    if !traced {
        let start = Instant::now();
        let t = drive(&mut state, &mut off, &mut out.checks, |_| {
            start.elapsed().as_secs_f64() >= seconds
        });
        check_members(&state, &mut out.checks);
        let round_ms = corrected_ms(&t.rounds);
        // Each operation is a round and the poll after it.
        let busy_ms: f64 = round_ms.iter().chain(&corrected_ms(&t.polls)).sum();
        out.e2e.insert(
            "ops_per_s",
            1e3 * round_ms.len() as f64 / busy_ms.max(1e-12),
        );
        out.e2e.insert("op_p50_ms", median(&round_ms));
        out.e2e.insert("op_tail_ms", tail(&round_ms).value);
        headline(&mut out, &t);
        return (out, None);
    }

    let plain = drive(&mut state, &mut off, &mut out.checks, |n| {
        n >= TRACED_ROUNDS
    });
    check_members(&state, &mut out.checks);
    headline(&mut out, &plain);
    let plain_digest = state.snapshot_digest();
    drop(state);

    let mut state = setup(seed);
    let configs = member_configs(seed);
    let mut replicas: Vec<ServeEngine> = configs
        .iter()
        .map(|c| ServeEngine::new(c.clone()))
        .collect();
    for r in &mut replicas {
        for _ in 0..WARMUP_ROUNDS {
            r.run_round();
        }
    }
    let mut tr = Tracer::new(true);
    let (mut serve_self, mut fleet_self, mut des, mut probe, mut ls_p99) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut offered, mut completed, mut qos_offered, mut shed) = (0u64, 0u64, 0u64, 0u64);
    let mut traced_ms = Vec::new();
    for _ in 0..TRACED_ROUNDS {
        let round = drive(&mut state, &mut tr, &mut out.checks, |n| n >= 1);
        traced_ms.push((round.rounds[0].1 + round.polls[0].1) * 1e3);
        let op = state.fleet.rounds() - 1;
        let fleet_ms = round.rounds[0].1 * 1e3;
        let (mut serve_sum, mut serve_own, mut des_sum, mut probe_sum, mut ls) =
            (0.0, 0.0, 0.0, 0.0, 0.0f64);
        for (cfg, replica) in configs.iter().zip(&mut replicas) {
            let t = Instant::now();
            let report = tr.span("faas.serve_round", op, || replica.run_round());
            let serve_ms = t.elapsed().as_secs_f64() * 1e3;
            let r = replica.rounds() - 1;
            let mut engine = cfg.engine.clone();
            engine.seed = round_seed(cfg.engine.seed, r);
            let t = Instant::now();
            let des_report = tr.span("faas.des", op, || simulate_multicore(&engine));
            let des_ms = t.elapsed().as_secs_f64() * 1e3;
            let mut probe_cfg = cfg.probe.clone();
            probe_cfg.seed = round_seed(cfg.probe.seed, r);
            let t = Instant::now();
            tr.span("faas.probe", op, || simulate(&probe_cfg));
            let probe_ms = t.elapsed().as_secs_f64() * 1e3;
            out.checks.expect(
                "a member's DES replica reproduces its serve round",
                des_report.offered == report.offered && des_report.completed == report.completed,
            );
            offered += report.offered;
            completed += report.completed;
            if let Some(q) = &report.qos {
                qos_offered += report.offered;
                shed += q.shed_total;
                ls = ls.max(q.per_class[0].p99_ms);
            }
            serve_sum += serve_ms;
            serve_own += serve_ms - des_ms - probe_ms;
            des_sum += des_ms;
            probe_sum += probe_ms;
        }
        serve_self.push(serve_own);
        fleet_self.push(fleet_ms - serve_sum);
        des.push(des_sum);
        probe.push(probe_sum);
        ls_p99.push(ls);
        out.layers
            .insert("telemetry.metrics_bytes", round.metrics_bytes as f64);
    }
    check_members(&state, &mut out.checks);
    out.checks.expect(
        "traced and untraced runs end on the same fleet snapshot",
        state.snapshot_digest() == plain_digest,
    );
    for (id, replica) in replicas.iter().enumerate() {
        out.checks.expect(
            "each replica ends on its member's snapshot",
            state.fleet.member_snapshot(id as u64).as_deref()
                == Some(replica.snapshot_json().as_str()),
        );
    }

    let plain_ms: f64 = plain
        .rounds
        .iter()
        .chain(&plain.polls)
        .map(|(_, s)| s * 1e3)
        .sum();
    let l = &mut out.layers;
    l.insert("faas.des_ms", median(&des));
    l.insert("faas.probe_ms", median(&probe));
    l.insert("faas.serve_self_ms", median(&serve_self));
    l.insert("faas.fleet_self_ms", median(&fleet_self));
    l.insert("faas.modeled_offered", offered as f64);
    l.insert("faas.goodput", completed as f64 / offered.max(1) as f64);
    l.insert("faas.shed_rate", shed as f64 / qos_offered.max(1) as f64);
    l.insert("faas.ls_p99_ms", median(&ls_p99));
    for (metric, span) in [
        ("telemetry.metrics_us", "telemetry.metrics"),
        ("telemetry.snapshot_us", "telemetry.snapshot"),
        ("telemetry.profile_us", "telemetry.profile"),
    ] {
        l.insert(metric, median(&tr.durations_us(span)));
    }
    l.insert("telemetry.series", state.fleet.tsdb().series_count() as f64);
    l.insert(
        "bench.trace_overhead",
        traced_ms.iter().sum::<f64>() / plain_ms.max(1e-12),
    );
    (out, Some(tr))
}
