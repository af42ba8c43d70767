//! Incident-detection bench for the deterministic alerting plane: seeded
//! incidents (overload burn, admission-control shedding, a member fault
//! storm) driven through the serve- and fleet-level rule engines with the
//! closed loop (alert-driven scale-out and quarantine) on. Emits
//! `BENCH_alerts.json` — byte-identical across same-seed runs; wall times
//! stay on stdout.
//!
//! `--check` asserts the alerting contract (DESIGN.md §15):
//!
//! 1. **Zero false positives** — two clean seeds at half saturation log no
//!    alert transitions at all.
//! 2. **Bounded detection** — every injected incident fires its alert
//!    within [`DETECT_BUDGET`] rounds of onset, and the closed loop acts:
//!    the burn alert scales the fleet out, the availability alert
//!    quarantines the failing member.
//! 3. **Byte-identical timelines** — the alert log replays byte-for-byte
//!    across reruns and through a mid-round kill recovered from
//!    checkpoint, and the whole artifact reproduces byte-identically.
//! 4. **Bounded self-overhead** — driving the same overloaded fleet with
//!    alerting on costs at most [`OVERHEAD_BUDGET`]× the alerting-off run
//!    (best of [`OVERHEAD_REPS`] each).

use std::time::Instant;

use sfi_bench::{json_field, silence_injected_panics};
use sfi_faas::{
    ArrivalModel, FleetAlertPolicy, FleetConfig, FleetSupervisor, QosConfig, RetireReason,
    ServeConfig, ServeEngine, FLEET_BURN_RULE, MEMBER_AVAILABILITY_RULE,
};
use sfi_pool::QuarantinePolicy;
use sfi_telemetry::{json_is_valid, AlertEvent, AlertTransition, RetryPolicy};
use sfi_vm::{EngineFault, FaultPlan};

const CORES: u32 = 2;
const CLEAN_ROUNDS: u64 = 8;
const INCIDENT_ROUNDS: u64 = 6;
/// Rounds an injected incident may take to reach `firing` (incidents start
/// at round 0, so this is also the firing round's ceiling).
const DETECT_BUDGET: u64 = 6;
/// Alerting-on over alerting-off wall-time budget.
const OVERHEAD_BUDGET: f64 = 1.35;
const OVERHEAD_REPS: usize = 3;
/// Burn threshold tuned under the 10 ms-round ceiling: modeled p999 never
/// exceeds the round duration, so burn tops out near 200 permille of the
/// 50 ms latency-sensitive target. Clean 20 krps seeds peak at 106 in any
/// single round (so no averaging window can reach 115), while sustained
/// overload holds ~135.
const BURN_THRESHOLD: f64 = 115.0;

fn shape(c: &mut ServeConfig, rate_rps: f64) {
    c.engine.duration_ms = 10;
    c.probe.duration_ms = 5;
    c.engine.qos = Some(QosConfig::paper_rig());
    c.engine.arrivals = ArrivalModel::Poisson { rate_rps };
}

/// A QoS fleet with the closed alerting loop on: `members` members at
/// `rate_rps` each, seeds decorrelated by `salt`.
fn alerting_fleet(members: u32, rate_rps: f64, salt: u64) -> FleetConfig {
    let mut cfg = FleetConfig::paper_rig(members, CORES);
    for m in &mut cfg.members {
        shape(m, rate_rps);
        m.engine.seed = sfi_faas::round_seed(m.engine.seed, salt);
        m.probe.seed = sfi_faas::round_seed(m.probe.seed, salt);
    }
    let mut policy = FleetAlertPolicy::paper_rig(cfg.members[0].clone());
    policy.burn_threshold_permille = BURN_THRESHOLD;
    policy.max_members = 3;
    cfg.alerting = Some(policy);
    cfg
}

/// The fault-storm fleet: member 1's polls hang every incident round and
/// the aggregator probes one-shot, so each storm round is a failed poll.
/// Burn scale-out is off to isolate the quarantine loop.
fn storm_fleet() -> FleetConfig {
    let mut cfg = alerting_fleet(2, 20_000.0, 0x570F);
    cfg.retry = RetryPolicy::one_shot();
    cfg.policy = QuarantinePolicy { ring_capacity: 2, max_faults: 32 };
    let mut chaos = FaultPlan::new();
    for r in 0..INCIDENT_ROUNDS {
        chaos = chaos.engine_fail_at(1, r, EngineFault::HangOnAccept);
    }
    cfg.chaos = chaos;
    if let Some(p) = &mut cfg.alerting {
        p.scale_out_on_burn = false;
    }
    cfg
}

fn run_fleet(cfg: FleetConfig, rounds: u64) -> FleetSupervisor {
    let mut fleet = FleetSupervisor::new(cfg);
    for _ in 0..rounds {
        fleet.run_round();
    }
    fleet
}

/// Round of the first `firing` transition of `rule` in an alert log.
fn first_firing(events: &[&AlertEvent], rule: &str) -> Option<u64> {
    events
        .iter()
        .find(|e| e.rule == rule && e.transition == AlertTransition::Firing)
        .map(|e| e.round)
}

fn opt_json(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_owned(), |n| n.to_string())
}

/// Runs every deterministic scenario and renders `BENCH_alerts.json`.
/// Returns `(json, fleet-burn timeline)`; the timeline is the rerun /
/// kill-recovery byte-equality unit.
fn build() -> (String, String) {
    let mut scenarios: Vec<String> = Vec::new();

    // 1. Clean seeds: no transitions of any kind allowed.
    for (i, salt) in [0xC1EA_0001u64, 0xC1EA_0002].iter().enumerate() {
        let fleet = run_fleet(alerting_fleet(2, 20_000.0, *salt), CLEAN_ROUNDS);
        scenarios.push(format!(
            "{{\"scenario\": \"clean_{i}\", \"rounds\": {CLEAN_ROUNDS}, \"transitions\": {}, \
             \"firing\": {}}}",
            fleet.surface().alerts().next_seq(),
            fleet.surface().alerts().firing().len(),
        ));
    }

    // 2. Serve-level shed incident: one overloaded engine, the built-in
    // shed-rate rule must fire.
    let mut cfg = ServeConfig::paper_rig(CORES);
    shape(&mut cfg, 200_000.0);
    let mut eng = ServeEngine::new(cfg);
    for _ in 0..INCIDENT_ROUNDS {
        eng.run_round();
    }
    let (events, _, _) = eng.surface().alerts().log_since(0);
    let shed_detect = first_firing(&events, "shed_rate");
    scenarios.push(format!(
        "{{\"scenario\": \"serve_shed\", \"rule\": \"shed_rate\", \"detect_round\": {}, \
         \"budget\": {DETECT_BUDGET}}}",
        opt_json(shed_detect),
    ));

    // 3. Fleet burn incident: 2.5× overload, the burn alert must fire and
    // scale the fleet out.
    let burn = run_fleet(alerting_fleet(1, 200_000.0, 0xB00_0001), INCIDENT_ROUNDS);
    let (events, _, _) = burn.surface().alerts().log_since(0);
    let burn_detect = first_firing(&events, FLEET_BURN_RULE);
    let timeline = burn.surface().alerts_body(0);
    scenarios.push(format!(
        "{{\"scenario\": \"fleet_burn\", \"rule\": \"{FLEET_BURN_RULE}\", \
         \"detect_round\": {}, \"budget\": {DETECT_BUDGET}, \"members_live\": {}}}",
        opt_json(burn_detect),
        burn.members_live(),
    ));

    // 4. Fault storm: the availability alert must fire and quarantine the
    // failing member.
    let storm = run_fleet(storm_fleet(), INCIDENT_ROUNDS);
    let (events, _, _) = storm.surface().alerts().log_since(0);
    let storm_detect = first_firing(&events, MEMBER_AVAILABILITY_RULE);
    let quarantined = storm
        .members()
        .iter()
        .filter(|m| m.retire_reason == Some(RetireReason::Quarantined))
        .count();
    scenarios.push(format!(
        "{{\"scenario\": \"fault_storm\", \"rule\": \"{MEMBER_AVAILABILITY_RULE}\", \
         \"detect_round\": {}, \"budget\": {DETECT_BUDGET}, \"quarantined\": {quarantined}}}",
        opt_json(storm_detect),
    ));

    // Determinism: the fleet-burn timeline through a rerun and through a
    // mid-round kill recovered from checkpoint.
    let rerun = run_fleet(alerting_fleet(1, 200_000.0, 0xB00_0001), INCIDENT_ROUNDS);
    let rerun_ok = rerun.surface().alerts_body(0) == timeline
        && rerun.snapshot_json() == burn.snapshot_json();
    let mut killed_cfg = alerting_fleet(1, 200_000.0, 0xB00_0001);
    killed_cfg.chaos = FaultPlan::new().engine_fail_at(0, 2, EngineFault::MidRoundPanic);
    let killed = run_fleet(killed_cfg, INCIDENT_ROUNDS);
    let kill_ok = killed.members()[0].restarts == 1
        && killed.surface().alerts_body(0) == timeline
        && killed.snapshot_json() == burn.snapshot_json();

    let json = format!(
        "{{\n\"bench\": \"alerts\",\n\"budget_rounds\": {DETECT_BUDGET},\n\
         \"overhead_budget\": {OVERHEAD_BUDGET},\n\"scenarios\": [\n{}\n],\n\
         \"determinism\": {{\"rerun_timeline_identical\": {rerun_ok}, \
         \"kill_recovery_timeline_identical\": {kill_ok}}},\n\"telemetry\": {}\n}}\n",
        scenarios.join(",\n"),
        timeline.trim_end(),
    );
    (json, timeline)
}

/// Gate 4: wall-time of the clean fleet with alerting on vs off, best of
/// [`OVERHEAD_REPS`] each. The clean fleet never fires, so this isolates
/// the pure observation cost (ingest + rule evaluation) from the closed
/// loop legitimately growing the fleet on incidents.
fn check_overhead() {
    let time = |alerting: bool| {
        let mut best = f64::INFINITY;
        for _ in 0..OVERHEAD_REPS {
            let mut cfg = alerting_fleet(2, 20_000.0, 0xC1EA_0001);
            if !alerting {
                cfg.alerting = None;
            }
            let t = Instant::now();
            let fleet = run_fleet(cfg, CLEAN_ROUNDS);
            assert!(fleet.rounds() == CLEAN_ROUNDS);
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        best
    };
    let off = time(false).max(1e-6);
    let on = time(true);
    let ratio = on / off;
    assert!(
        ratio <= OVERHEAD_BUDGET,
        "alerting overhead {ratio:.3}x exceeds {OVERHEAD_BUDGET}x ({on:.2} ms vs {off:.2} ms)"
    );
    println!("[check] overhead OK: alerting on {on:.2} ms vs off {off:.2} ms ({ratio:.3}x)");
}

fn field(json: &str, scenario: &str, key: &str) -> Option<f64> {
    let line = json.lines().find(|l| l.contains(&format!("\"scenario\": \"{scenario}\"")))?;
    json_field(line, key)
}

fn check(json: &str, timeline: &str) {
    assert!(json_is_valid(json), "BENCH_alerts.json must parse as JSON");

    // Gate 1: zero false positives on clean seeds.
    for s in ["clean_0", "clean_1"] {
        let transitions = field(json, s, "transitions").expect("transitions field");
        assert_eq!(transitions, 0.0, "{s}: clean seeds must log no alert transitions");
    }

    // Gate 2: bounded detection plus closed-loop actions.
    for s in ["serve_shed", "fleet_burn", "fault_storm"] {
        let detect = field(json, s, "detect_round")
            .unwrap_or_else(|| panic!("{s}: incident was never detected"));
        assert!(
            detect <= DETECT_BUDGET as f64,
            "{s}: detected at round {detect}, budget {DETECT_BUDGET}"
        );
    }
    let live = field(json, "fleet_burn", "members_live").expect("members_live");
    assert!(live > 1.0, "burn alert must scale the fleet out, got {live} live");
    let quarantined = field(json, "fault_storm", "quarantined").expect("quarantined");
    assert_eq!(quarantined, 1.0, "availability alert must quarantine the storm member");

    // Gate 3: byte-identical timelines and artifact.
    assert!(
        json.contains("\"rerun_timeline_identical\": true"),
        "rerun timeline diverged"
    );
    assert!(
        json.contains("\"kill_recovery_timeline_identical\": true"),
        "kill/recovery timeline diverged"
    );
    let (rebuilt, timeline2) = build();
    assert_eq!(json, rebuilt, "BENCH_alerts.json must reproduce byte-identically");
    assert_eq!(timeline, timeline2, "alert timeline must reproduce byte-identically");
    println!("[check] detection OK: all incidents within {DETECT_BUDGET} rounds, timelines byte-identical");

    // Gate 4: self-overhead.
    check_overhead();
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    // Injected panics are caught by the supervisor; keep the default hook
    // from spraying backtraces over the bench output.
    silence_injected_panics();
    let (json, timeline) = build();
    let _ = std::panic::take_hook();

    std::fs::write("BENCH_alerts.json", &json).expect("write BENCH_alerts.json");
    println!("Figure X (alerts): seeded incidents through the deterministic alerting plane\n");
    for line in json.lines().filter(|l| l.contains("\"scenario\"")) {
        println!("  {}", line.trim_end_matches(','));
    }
    println!("\nwrote BENCH_alerts.json");

    if check_mode {
        silence_injected_panics();
        check(&json, &timeline);
        let _ = std::panic::take_hook();
    }
}
