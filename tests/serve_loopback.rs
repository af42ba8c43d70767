//! Live-serving integration: the `faas_serve` loop on a loopback ephemeral
//! port (DESIGN.md §8).
//!
//! Starts the exact server the `faas_serve` binary runs —
//! [`serve_blocking`] over a shared [`ServeEngine`] — drives engine rounds,
//! and scrapes it over real TCP: `/metrics` twice (observer effect must be
//! confined to the scrape-meta series), `/trace?since=<cursor>`
//! incrementally (the drained stream must concatenate byte-identically to
//! the post-mortem batch export), `/snapshot` (byte-equal to a server-off
//! replay), `/healthz`, and `/quit` for clean shutdown. The federated
//! fleet surface is scraped the same way, and one table of requests runs
//! in-process through both owners' route tables: status codes, JSON
//! validity, per-endpoint scrape counters and `/snapshot` invariance.

use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use segue_colorguard::faas::{
    serve_blocking, FailureModel, FleetConfig, FleetSupervisor, ServeConfig, ServeEngine,
};
use segue_colorguard::telemetry::{
    chrome_trace_wrap, http_get, http_get_retry, json_is_valid, HttpRequest, HttpResponse,
    Registry, RetryPolicy,
};
use segue_colorguard::vm::{EngineFault, FaultPlan};

const ROUNDS: u64 = 3;

fn small_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::paper_rig(2);
    cfg.engine.duration_ms = 20;
    cfg.probe.duration_ms = 10;
    cfg
}

#[test]
fn loopback_scrapes_match_postmortem_exports() {
    // Server-off reference: replay the same config and round count.
    let mut offline = ServeEngine::new(small_cfg());
    for _ in 0..ROUNDS {
        offline.run_round();
    }
    let offline_snapshot = offline.snapshot_json();
    let offline_trace = offline.surface().trace_batch();

    // Live server on an ephemeral loopback port.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("addr").to_string();
    let engine = Arc::new(Mutex::new(ServeEngine::new(small_cfg())));
    let server = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            serve_blocking(&listener, &engine, Instant::now()).expect("serve loop")
        })
    };

    // Drive rounds, draining /trace incrementally after each.
    let mut cursor = 0u64;
    let mut streamed: Vec<String> = Vec::new();
    for _ in 0..ROUNDS {
        engine.lock().unwrap().run_round();
        let (status, body) = http_get(&addr, &format!("/trace?since={cursor}")).expect("trace");
        assert_eq!(status, 200);
        let mut lines = body.lines();
        let head = lines.next().expect("metadata line");
        assert!(head.contains("\"dropped\": 0"), "{head}");
        cursor = head
            .split("\"next\": ")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.parse().ok())
            .expect("next cursor in metadata");
        streamed.extend(lines.map(str::to_owned));
    }

    // Scrape /metrics twice: both succeed, modeled series identical, and
    // only the scrape-meta counter differs between the two bodies.
    let (s1, m1) = http_get(&addr, "/metrics").expect("first metrics scrape");
    let (s2, m2) = http_get(&addr, "/metrics").expect("second metrics scrape");
    assert_eq!((s1, s2), (200, 200));
    assert!(m1.contains("sfi_shard_completed_total"));
    assert!(m1.contains("sfi_shard_dtlb_events_total{sample_rate=\"64\"}"), "{m1}");
    assert!(m1.contains("sfi_serve_scrapes_total{endpoint=\"metrics\"} 1"), "{m1}");
    assert!(m2.contains("sfi_serve_scrapes_total{endpoint=\"metrics\"} 2"), "{m2}");
    let modeled = |m: &str| -> String {
        m.lines().filter(|l| !l.contains("sfi_serve_scrapes_total")).collect::<Vec<_>>().join("\n")
    };
    assert_eq!(modeled(&m1), modeled(&m2), "scraping must not move modeled series");

    // The incremental drains re-wrap to the byte-identical batch export,
    // which in turn equals the server-off replay.
    let rewrapped = chrome_trace_wrap(&streamed);
    assert_eq!(rewrapped, engine.lock().unwrap().surface().trace_batch());
    assert_eq!(rewrapped, offline_trace);

    // /snapshot is modeled-only and byte-equal to the offline replay.
    let (ss, snapshot) = http_get(&addr, "/snapshot").expect("snapshot");
    assert_eq!(ss, 200);
    assert!(json_is_valid(&snapshot));
    assert_eq!(snapshot, offline_snapshot, "serving must have zero observer effect");
    assert!(!snapshot.contains("sfi_serve_scrapes_total"), "meta must stay out of /snapshot");

    // /healthz answers with availability; unknown paths 404; /quit stops.
    let (hs, health) = http_get(&addr, "/healthz").expect("healthz");
    assert_eq!(hs, 200);
    assert!(json_is_valid(&health), "{health}");
    assert!(health.contains("\"availability\""));
    assert!(health.contains("\"quarantined_instances\""));
    let (nf, _) = http_get(&addr, "/no-such-endpoint").expect("404 path");
    assert_eq!(nf, 404);
    let (qs, _) = http_get(&addr, "/quit").expect("quit");
    assert_eq!(qs, 200);
    server.join().expect("server thread exits after /quit");
}

#[test]
fn wrapped_trace_stream_flags_the_gap_and_stays_valid() {
    // A stream ring far smaller than one round's event volume: the first
    // scrape after two rounds must observe dropped > 0 — and the response
    // must still re-wrap to valid chrome-trace JSON with the gap flagged.
    let mut cfg = small_cfg();
    cfg.stream_capacity = 32;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("addr").to_string();
    let engine = Arc::new(Mutex::new(ServeEngine::new(cfg)));
    let server = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            serve_blocking(&listener, &engine, Instant::now()).expect("serve loop")
        })
    };
    for _ in 0..2 {
        engine.lock().unwrap().run_round();
    }
    {
        let eng = engine.lock().unwrap();
        assert!(
            eng.surface().stream().total_recorded() > 32 + 32,
            "rounds must overflow the ring decisively (got {})",
            eng.surface().stream().total_recorded()
        );
    }
    let (status, body) = http_get(&addr, "/trace?since=0").expect("trace");
    assert_eq!(status, 200);
    let mut lines = body.lines();
    let head = lines.next().expect("metadata line");
    assert!(!head.contains("\"dropped\": 0"), "wraparound must be reported: {head}");
    let streamed: Vec<String> = lines.map(str::to_owned).collect();
    // The gap marker leads the event lines, carries the drop count, and the
    // re-wrapped document is still valid chrome-trace JSON.
    assert!(streamed[0].contains("\"name\": \"trace_gap\""), "{}", streamed[0]);
    assert!(streamed[0].contains("\"dropped\": "), "{}", streamed[0]);
    let dropped: u64 = head
        .split("\"dropped\": ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.trim_end_matches('}').parse().ok())
        .expect("dropped count in metadata");
    assert!(streamed[0].contains(&format!("\"dropped\": {dropped}")), "gap != metadata");
    let rewrapped = chrome_trace_wrap(&streamed);
    assert!(json_is_valid(&rewrapped), "gap-bearing stream must re-wrap to valid JSON");
    // The line count in the metadata includes the gap marker.
    assert!(head.contains(&format!("\"lines\": {}", streamed.len())), "{head}");
    let (qs, _) = http_get(&addr, "/quit").expect("quit");
    assert_eq!(qs, 200);
    server.join().expect("server thread exits after /quit");
}

#[test]
fn saturated_dead_letters_serve_a_floored_healthz() {
    // FailureModel edge over the wire: every probe attempt traps with no
    // retry budget, so dead-letters saturate. /healthz must serve exactly
    // 0.0 availability — a parseable number, not NaN and not a panic.
    let mut cfg = small_cfg();
    cfg.probe.failures = FailureModel { trap_prob: 1.0, max_retries: 0, ..Default::default() };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("addr").to_string();
    let engine = Arc::new(Mutex::new(ServeEngine::new(cfg)));
    let server = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            serve_blocking(&listener, &engine, Instant::now()).expect("serve loop")
        })
    };
    for _ in 0..2 {
        engine.lock().unwrap().run_round();
    }
    let (status, health) = http_get(&addr, "/healthz").expect("healthz");
    assert_eq!(status, 200, "a saturated engine still answers");
    assert!(json_is_valid(&health), "{health}");
    assert!(health.contains("\"availability\": 0.000000"), "floored, not NaN: {health}");
    assert!(health.contains("\"status\": \"degraded\""), "{health}");
    assert!(!health.contains("NaN") && !health.contains("nan"), "{health}");
    let dead: u64 = health
        .split("\"dead_lettered\": ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.parse().ok())
        .expect("dead_lettered in healthz");
    assert!(dead > 0, "saturation must dead-letter: {health}");
    let (qs, _) = http_get(&addr, "/quit").expect("quit");
    assert_eq!(qs, 200);
    server.join().expect("server thread exits after /quit");
}

#[test]
fn fleet_loopback_serves_the_federated_surface() {
    // A two-member fleet with one injected kill, scraped over real TCP
    // with the hardened retry client: the federated /snapshot must equal a
    // manual label-disambiguated merge of uninterrupted member replays.
    let mut cfg = small_fleet();
    cfg.chaos = FaultPlan::new().engine_fail_at(0, 1, EngineFault::MidRoundPanic);
    let member_cfgs: Vec<ServeConfig> = cfg.members.clone();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("addr").to_string();
    let fleet = Arc::new(Mutex::new(FleetSupervisor::new(cfg)));
    let server = {
        let fleet = Arc::clone(&fleet);
        std::thread::spawn(move || {
            serve_blocking(&listener, &fleet, Instant::now()).expect("fleet serve")
        })
    };
    const ROUNDS: u64 = 3;
    for _ in 0..ROUNDS {
        fleet.lock().unwrap_or_else(|p| p.into_inner()).run_round();
    }
    let policy = RetryPolicy::default();
    let (fs, fleet_body, _) = http_get_retry(&addr, "/fleet", &policy).expect("fleet");
    assert_eq!(fs, 200);
    assert!(json_is_valid(&fleet_body), "{fleet_body}");
    assert!(fleet_body.contains("\"restarts\": 1"), "the kill must recover: {fleet_body}");
    assert!(fleet_body.contains("\"members_live\": 2"), "{fleet_body}");
    let (ss, snapshot, _) = http_get_retry(&addr, "/snapshot", &policy).expect("snapshot");
    assert_eq!(ss, 200);
    let mut manual = Registry::new();
    for (id, mcfg) in member_cfgs.iter().enumerate() {
        let mut replay = ServeEngine::new(mcfg.clone());
        for _ in 0..ROUNDS {
            replay.run_round();
        }
        manual.merge_labeled_from(replay.registry(), "engine", &id.to_string());
    }
    assert_eq!(
        snapshot,
        segue_colorguard::telemetry::json_snapshot(&manual),
        "federated snapshot != labeled sum of uninterrupted member replays"
    );
    let (ms, metrics, _) = http_get_retry(&addr, "/metrics", &policy).expect("metrics");
    assert_eq!(ms, 200);
    assert!(metrics.contains("engine=\"0\"") && metrics.contains("engine=\"1\""), "{metrics}");
    assert!(metrics.contains("sfi_fleet_member_faults_total{kind=\"mid_round_panic\"} 1"));
    let (qs, _, _) = http_get_retry(&addr, "/quit", &policy).expect("quit");
    assert_eq!(qs, 200);
    server.join().expect("server thread exits after /quit");
}

/// A small two-member fleet with short rounds.
fn small_fleet() -> FleetConfig {
    let mut cfg = FleetConfig::paper_rig(2, 2);
    for m in &mut cfg.members {
        m.engine.duration_ms = 10;
        m.probe.duration_ms = 5;
    }
    cfg
}

/// One request line through an owner's route table.
type Route<T> = fn(&mut T, &HttpRequest, f64) -> (HttpResponse, bool);

fn get<T>(owner: &mut T, route: Route<T>, line: &str) -> (HttpResponse, bool) {
    route(owner, &HttpRequest::parse(line).expect("request line parses"), 0.0)
}

/// Every `<series>{endpoint="…"} N` scrape count in a `/metrics` body.
fn scrape_counts(metrics: &str, series: &str) -> Vec<(String, u64)> {
    metrics
        .lines()
        .filter_map(|l| {
            let rest = l.strip_prefix(series)?.strip_prefix("{endpoint=\"")?;
            let (endpoint, n) = rest.split_once("\"} ")?;
            Some((endpoint.to_owned(), n.parse().ok()?))
        })
        .collect()
}

/// Runs the conformance table against one owner: every endpoint, the
/// malformed-input 400s, 405, 404 and `/quit`. Each request must answer its
/// status, every 200 JSON body must be valid, each request must bump exactly
/// its own endpoint's scrape counter, and `/snapshot` must not move.
fn conform<T>(
    owner: &mut T,
    route: Route<T>,
    metrics: fn(&T) -> String,
    snapshot: fn(&T) -> String,
    series: &str,
    endpoints: &[&'static str],
    query_series: &str,
) {
    let mut table: Vec<(String, u16, Option<&str>)> = endpoints
        .iter()
        .map(|&ep| {
            let target =
                if ep == "query" { format!("query?expr={query_series}") } else { ep.into() };
            (format!("GET /{target} HTTP/1.1"), 200, Some(ep))
        })
        .collect();
    for (line, status, endpoint) in [
        ("GET /trace?since=x HTTP/1.1", 400, Some("trace")),
        ("GET /alerts?since=-1 HTTP/1.1", 400, Some("alerts")),
        ("GET /query HTTP/1.1", 400, Some("query")),
        ("GET /query?expr=%ZZ HTTP/1.1", 400, Some("query")),
        ("POST /metrics HTTP/1.1", 405, None),
        ("GET /no-such-endpoint HTTP/1.1", 404, None),
        ("GET /quit HTTP/1.1", 200, None),
    ] {
        table.push((line.to_owned(), status, endpoint));
    }
    let counted: Vec<String> =
        scrape_counts(&metrics(owner), series).into_iter().map(|(ep, _)| ep).collect();
    let mut listed: Vec<String> = endpoints.iter().map(|ep| ep.to_string()).collect();
    listed.sort();
    assert_eq!(counted, listed, "{series} must count exactly the listed endpoints");
    for (line, status, endpoint) in table {
        let (snap, before) = (snapshot(owner), scrape_counts(&metrics(owner), series));
        let (resp, stop) = get(owner, route, &line);
        assert_eq!(resp.status, status, "{line}: {}", resp.body);
        assert_eq!(stop, line.starts_with("GET /quit "), "{line}: stop flag");
        if resp.status == 200 && resp.content_type == "application/json" {
            assert!(json_is_valid(&resp.body), "{line}: {}", resp.body);
        }
        let after = scrape_counts(&metrics(owner), series);
        for ((ep, n0), (_, n1)) in before.iter().zip(&after) {
            let bump = u64::from(endpoint == Some(ep.as_str()));
            assert_eq!(*n1, n0 + bump, "{line}: {series}{{endpoint=\"{ep}\"}}");
        }
        assert_eq!(snapshot(owner), snap, "{line} moved /snapshot");
    }
}

#[test]
fn both_surfaces_answer_one_route_table() {
    let mut engine = ServeEngine::new(small_cfg());
    engine.run_round();
    conform(
        &mut engine,
        ServeEngine::route,
        ServeEngine::metrics_text,
        ServeEngine::snapshot_json,
        "sfi_serve_scrapes_total",
        &["metrics", "snapshot", "trace", "healthz", "profile", "alerts", "query"],
        "sfi_shard_completed_total",
    );
    let mut fleet = FleetSupervisor::new(small_fleet());
    fleet.run_round();
    conform(
        &mut fleet,
        FleetSupervisor::route,
        FleetSupervisor::metrics_text,
        FleetSupervisor::snapshot_json,
        "sfi_fleet_scrapes_total",
        &["metrics", "snapshot", "trace", "healthz", "fleet", "profile", "alerts", "query"],
        "sfi_fleet_rounds_total",
    );
}

#[test]
fn query_bodies_escape_control_characters_on_both_surfaces() {
    // A decoded `expr` may carry a tab or a newline (the query parser trims
    // them); echoing it raw into the JSON string made the 200 body invalid.
    fn check<T>(owner: &mut T, route: Route<T>, series: &str) {
        for expr in [format!("{series}%09"), format!("%0A{series}")] {
            let (resp, _) = get(owner, route, &format!("GET /query?expr={expr} HTTP/1.1"));
            assert_eq!(resp.status, 200, "{expr}: {}", resp.body);
            assert!(json_is_valid(&resp.body), "{expr}: {}", resp.body);
        }
    }
    let mut engine = ServeEngine::new(small_cfg());
    engine.run_round();
    check(&mut engine, ServeEngine::route, "sfi_shard_completed_total");
    let mut fleet = FleetSupervisor::new(small_fleet());
    fleet.run_round();
    check(&mut fleet, FleetSupervisor::route, "sfi_fleet_rounds_total");
}
