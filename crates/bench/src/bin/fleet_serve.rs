//! `fleet_serve`: a supervised multi-engine fleet behind one federated
//! scrape surface (DESIGN.md §11).
//!
//! Runs a [`sfi_faas::FleetSupervisor`] — N in-process `ServeEngine`
//! members with engine-level fault budgets, deterministic crash-recovery
//! by checkpoint replay, and seeded engine-grade chaos — on a driver
//! thread, while the std-only HTTP/1.1 loop serves the fleet surface:
//!
//! - `GET /metrics`  — Prometheus text: member registries merged under
//!   `engine="<id>"` labels, plus the fleet supervision meta registry
//! - `GET /snapshot` — the federated modeled registry as JSON (no meta:
//!   equal to the label-disambiguated sum of member snapshots)
//! - `GET /trace?since=<cursor>` — the supervision trace (member crashes,
//!   restarts, retirements, poll attempts; gap-marked on overflow)
//! - `GET /fleet`    — per-member liveness, restart and quarantine state
//! - `GET /healthz`  — fleet availability (503 once no member is live)
//! - `GET /alerts?since=<cursor>` — fleet alert states + transition log
//! - `GET /query?expr=<expr>` — one query over the fleet tsdb
//! - `GET /quit`     — answer, then shut down cleanly
//!
//! Modes:
//!
//! - `fleet_serve [--port N] [--members N] [--rounds N] [--chaos RATE]` —
//!   serve until `/quit`.
//! - `fleet_serve --get ADDR PATH [--timeout-ms N]` — scrape client with
//!   the hardened bounded-retry policy (the same client as `faas_serve`'s);
//!   exits nonzero on a non-200 answer or once the budget is spent.
//! - `fleet_serve --check` — the federation acceptance gate: K=3 seeded
//!   member kills out of N=4 engines, fleet availability ≥ 0.75, every
//!   recovered member byte-equal to an uninterrupted same-seed replay, the
//!   merged fleet `/snapshot` equal to the label-disambiguated sum of
//!   member snapshots, chaos on/off differing only in injected-fault
//!   series, and the TCP surface live end-to-end.

use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sfi_bench::{arg_after, get_mode, serve_and_drive, silence_injected_panics};
use sfi_faas::{serve_blocking, FleetConfig, FleetSupervisor, MemberState};
use sfi_telemetry::{http_get_retry, json_is_valid, json_snapshot, Registry, RetryPolicy};
use sfi_vm::{EngineFault, FaultPlan};

/// Fleet size for `--check` (N engines, K=3 of them killed).
const CHECK_MEMBERS: u32 = 4;

/// Rounds per `--check` run — enough that every scheduled kill lands and
/// every victim serves recovered rounds afterwards.
const CHECK_ROUNDS: u64 = 6;

/// The availability floor the killed fleet must stay above.
const AVAILABILITY_FLOOR: f64 = 0.75;

/// A small check-scale fleet: short rounds, N members.
fn check_fleet(members: u32) -> FleetConfig {
    let mut cfg = FleetConfig::paper_rig(members, 2);
    for m in &mut cfg.members {
        m.engine.duration_ms = 20;
        m.probe.duration_ms = 10;
    }
    cfg
}

/// The K=3 scheduled kills for `--check`: one of each engine-grade fault
/// kind, on three different members, in three different rounds.
fn check_kills() -> [(u64, u64, EngineFault); 3] {
    [
        (0, 1, EngineFault::MidRoundPanic),
        (1, 2, EngineFault::HangOnAccept),
        (2, 3, EngineFault::TornResponse),
    ]
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        check();
        return;
    }
    get_mode();

    silence_injected_panics();
    let port: u16 = arg_after("--port").map(|p| p.parse().expect("numeric port")).unwrap_or(9200);
    let members: u32 =
        arg_after("--members").map(|m| m.parse().expect("numeric members")).unwrap_or(4);
    let max_rounds: Option<u64> = arg_after("--rounds").map(|r| r.parse().expect("numeric rounds"));
    let chaos_rate: f64 =
        arg_after("--chaos").map(|c| c.parse().expect("numeric chaos rate")).unwrap_or(0.0);

    let mut cfg = FleetConfig::paper_rig(members, 2);
    if chaos_rate > 0.0 {
        cfg.chaos = FaultPlan::seeded(
            0xF1EE7,
            sfi_vm::ChaosConfig { engine_fault_rate: chaos_rate, ..Default::default() },
        );
    }
    let listener = TcpListener::bind(("127.0.0.1", port)).expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let fleet = Arc::new(Mutex::new(FleetSupervisor::new(cfg)));
    println!(
        "fleet_serve: listening on http://{addr}  ({members} members; \
         GET /metrics /snapshot /trace /fleet /healthz /alerts /query /quit)"
    );
    serve_and_drive(listener, &fleet, max_rounds, FleetSupervisor::run_round, serve_blocking);
    let sup = fleet.lock().unwrap_or_else(|p| p.into_inner());
    println!(
        "fleet_serve: quit after {} rounds, availability {:.4}, {}/{} members live",
        sup.rounds(),
        sup.availability(),
        sup.members_live(),
        sup.members().len(),
    );
}

fn check() {
    silence_injected_panics();

    // Chaos-off reference: the same fleet, nothing injected.
    let mut quiet = FleetSupervisor::new(check_fleet(CHECK_MEMBERS));
    for _ in 0..CHECK_ROUNDS {
        quiet.run_round();
    }
    let quiet_snapshot = quiet.snapshot_json();
    assert_eq!(quiet.availability(), 1.0, "chaos-off fleet must be fully available");

    // Chaos-on run: K=3 scheduled member kills, one per fault kind.
    let mut cfg = check_fleet(CHECK_MEMBERS);
    for (member, round, fault) in check_kills() {
        cfg.chaos = cfg.chaos.engine_fail_at(member, round, fault);
    }
    let mut fleet = FleetSupervisor::new(cfg);
    for _ in 0..CHECK_ROUNDS {
        fleet.run_round();
    }

    // 1. The fleet survives: availability above the floor, every member
    //    live again (all three kills recovered within budget).
    let availability = fleet.availability();
    assert!(
        availability >= AVAILABILITY_FLOOR,
        "availability {availability:.4} under the {AVAILABILITY_FLOOR} floor"
    );
    assert_eq!(fleet.members_live(), CHECK_MEMBERS as usize, "every member must recover");
    let statuses = fleet.members();
    assert_eq!(statuses[0].restarts, 1, "member 0's panic must force a checkpoint restart");
    assert!(statuses.iter().all(|s| s.state == MemberState::Live));
    assert!(statuses.iter().all(|s| s.rounds == CHECK_ROUNDS), "no round may be skipped");

    // 2. Every recovered member is byte-equal to an uninterrupted
    //    same-seed replay of its (config, rounds) checkpoint.
    for s in &statuses {
        let (mcfg, rounds) = fleet.member_checkpoint(s.id).expect("member exists");
        let mut replay = sfi_faas::ServeEngine::new(mcfg);
        for _ in 0..rounds {
            replay.run_round();
        }
        assert_eq!(
            fleet.member_snapshot(s.id).expect("member exists"),
            replay.snapshot_json(),
            "member {} diverged from its uninterrupted replay",
            s.id
        );
    }

    // 3. The merged fleet /snapshot equals the label-disambiguated sum of
    //    the member snapshots.
    let mut manual = Registry::new();
    for s in &statuses {
        let (mcfg, rounds) = fleet.member_checkpoint(s.id).expect("member exists");
        let mut replay = sfi_faas::ServeEngine::new(mcfg);
        for _ in 0..rounds {
            replay.run_round();
        }
        manual.merge_labeled_from(replay.registry(), "engine", &s.id.to_string());
    }
    let snapshot = fleet.snapshot_json();
    assert_eq!(snapshot, json_snapshot(&manual), "fleet snapshot != sum of member snapshots");
    assert!(json_is_valid(&snapshot));

    // 4. Zero observer effect, fleet-grade: chaos on vs off differ only in
    //    the injected-fault series (modeled snapshots byte-equal; the meta
    //    fault counters differ).
    assert_eq!(snapshot, quiet_snapshot, "chaos leaked into the modeled snapshot");
    let chaos_metrics = fleet.metrics_text();
    let quiet_metrics = quiet.metrics_text();
    for kind in ["mid_round_panic", "hang_on_accept", "torn_response"] {
        let series = format!("sfi_fleet_member_faults_total{{kind=\"{kind}\"}}");
        assert!(chaos_metrics.contains(&format!("{series} 1")), "{series} missing");
        assert!(quiet_metrics.contains(&format!("{series} 0")), "quiet {series} not zero");
    }
    assert!(chaos_metrics.contains("sfi_fleet_restarts_total 1"));
    assert!(quiet_metrics.contains("sfi_fleet_restarts_total 0"));

    // 5. The recovery timeline is byte-reproducible: a second chaos run
    //    with the same plan replays the identical supervision trace.
    let mut cfg2 = check_fleet(CHECK_MEMBERS);
    for (member, round, fault) in check_kills() {
        cfg2.chaos = cfg2.chaos.engine_fail_at(member, round, fault);
    }
    let mut rerun = FleetSupervisor::new(cfg2);
    for _ in 0..CHECK_ROUNDS {
        rerun.run_round();
    }
    assert_eq!(
        rerun.surface().trace_batch(),
        fleet.surface().trace_batch(),
        "recovery trace not reproducible"
    );
    assert_eq!(rerun.clock().now(), fleet.clock().now(), "virtual timelines diverged");

    // 6. The TCP surface serves the federation end-to-end: run the same
    //    chaos fleet behind a live listener, scrape every endpoint with the
    //    hardened client, quit cleanly.
    let mut cfg3 = check_fleet(CHECK_MEMBERS);
    for (member, round, fault) in check_kills() {
        cfg3.chaos = cfg3.chaos.engine_fail_at(member, round, fault);
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let live = Arc::new(Mutex::new(FleetSupervisor::new(cfg3)));
    let started = Instant::now();
    let server = {
        let live = Arc::clone(&live);
        std::thread::spawn(move || {
            serve_blocking(&listener, &live, started).expect("serve")
        })
    };
    for _ in 0..CHECK_ROUNDS {
        live.lock().unwrap_or_else(|p| p.into_inner()).run_round();
    }
    let policy = RetryPolicy::default();
    let (status, body, _) = http_get_retry(&addr, "/fleet", &policy).expect("/fleet");
    assert_eq!(status, 200);
    assert!(json_is_valid(&body), "{body}");
    assert!(body.contains("\"members_live\": 4"), "{body}");
    let (status, body, _) = http_get_retry(&addr, "/snapshot", &policy).expect("/snapshot");
    assert_eq!(status, 200);
    assert_eq!(body, snapshot, "served snapshot must equal the in-process run");
    let (status, body, _) = http_get_retry(&addr, "/metrics", &policy).expect("/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("engine=\"3\""), "member labels must survive the wire");
    assert!(body.contains("sfi_fleet_polls_total"));
    let (status, body, _) = http_get_retry(&addr, "/healthz", &policy).expect("/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"availability\""), "{body}");
    let (status, body, _) =
        http_get_retry(&addr, "/trace?since=0", &policy).expect("/trace");
    assert_eq!(status, 200);
    assert!(body.starts_with("{\"next\": "), "{body}");
    let (status, body, _) = http_get_retry(&addr, "/alerts?since=0", &policy).expect("/alerts");
    assert_eq!(status, 200);
    assert!(json_is_valid(&body), "{body}");
    assert!(body.contains("\"states\""), "{body}");
    let (status, body, _) =
        http_get_retry(&addr, "/query?expr=sfi_fleet_members_live", &policy).expect("/query");
    assert_eq!(status, 200);
    assert!(json_is_valid(&body), "{body}");
    assert!(body.contains("\"results\""), "{body}");
    let (status, _, _) = http_get_retry(&addr, "/query?expr=%ZZ", &policy).expect("bad expr");
    assert_eq!(status, 400, "/query with malformed percent-encoding must 400");
    let (status, _, _) = http_get_retry(&addr, "/quit", &policy).expect("/quit");
    assert_eq!(status, 200);
    server.join().expect("server thread");

    println!(
        "check OK: {} members survived {} kills (availability {availability:.4} ≥ \
         {AVAILABILITY_FLOOR}), recovered members == uninterrupted replays, fleet snapshot == \
         labeled member sum, chaos on/off modeled-identical, TCP surface live",
        CHECK_MEMBERS,
        check_kills().len(),
    );
}
