//! Live telemetry serving: the sharded engine driven in rounds behind the
//! std-only HTTP loop from `sfi-telemetry`.
//!
//! Post-mortem artifacts (`BENCH_*.json`, TRACE dumps) answer "what
//! happened"; operators also need "what is happening" — a Prometheus scrape
//! of `/metrics`, a trace viewer tailing `/trace`. This module is the
//! engine-side half of that: a [`ServeEngine`] that runs the multi-core
//! simulation in back-to-back **rounds** (each a full
//! [`simulate_multicore`] pass with a per-round seed), folds every round's
//! registry into one cumulative modeled registry, and appends the round's
//! flight-recorder events — restamped onto one continuous virtual
//! timeline — into a single cumulative stream recorder that scrapers drain
//! with cursors. Requests are answered by the route table and accept loop
//! the fleet shares ([`crate::surface`]); this module supplies only the
//! engine's own `/metrics`, `/snapshot`, `/profile` and `/healthz` bodies.
//!
//! The determinism contract survives serving (DESIGN.md §8):
//!
//! - Everything *modeled* — the `/snapshot` registry, the trace stream —
//!   is a pure function of `(config, rounds run)`. A second engine given
//!   the same config replays byte-identical bytes; `faas_serve --check`
//!   gates exactly that (server on vs off).
//! - Scrape bookkeeping (`sfi_serve_scrapes_total`) lives in a separate
//!   meta registry that appears in `/metrics` only, so observing the
//!   engine never changes `/snapshot` — zero observer effect.
//! - Wall time appears in exactly one place: the `/healthz` uptime field.
//!
//! `/healthz` reports availability and quarantine counts from a
//! [`FailureModel`](crate::FailureModel)-bearing single-core probe
//! simulation run alongside each round.

use sfi_telemetry::{
    json_escape, json_snapshot, pack_span, AlertEngine, AlertRule, BucketExemplars, CompareOp,
    FoldedStacks, GaugeId, HttpRequest, HttpResponse, RecordingRule, Registry, RuleSource,
    SpanLevel, TraceEvent, TraceKind,
};

use crate::qos::SloClass;
use crate::shard::{simulate_multicore, trace_id, CacheMode, MultiCoreConfig, MultiCoreReport};
use crate::sim::{simulate, FailureModel, ScalingMode, SimConfig};
use crate::surface::{route, ScrapeOwner, ScrapeSurface};
use crate::FaasWorkload;

/// The faas rig's virtual ticks are simulated nanoseconds.
pub const NS_PER_TICK: f64 = 1.0;

/// Rounds of history the in-memory tsdb retains per series (the ceiling on
/// query windows; older samples age out per series, keeping the store
/// bounded regardless of how long the engine serves).
pub const TSDB_WINDOW: u64 = 64;

/// Series-count admission bound of the tsdb. Excess series are dropped
/// (counted honestly in `dropped_writes`) rather than growing without
/// bound — cardinality explosions degrade queries, never the engine.
pub const TSDB_MAX_SERIES: usize = 4096;

/// Entries the bounded alert log retains (drops are reported in the
/// `/alerts` cursor bookkeeping, mirroring the flight recorder).
pub const ALERT_LOG_CAPACITY: usize = 1024;

/// Burn-rate threshold (permille of the SLO target) both alert windows
/// must breach: 1000 = observed p99.9 exactly at target.
pub const BURN_ALERT_THRESHOLD: f64 = 1000.0;

/// Shed-rate threshold in requests per round: sustained admission-control
/// shedding at or above this rate alerts.
pub const SHED_ALERT_THRESHOLD: f64 = 1.0;

/// The default QoS rule set installed when the engine config enables QoS:
/// per-class goodput recording rules (permille of offered requests
/// completed over the trailing 8 rounds) plus the two paper-rig burn
/// alerts — multi-window SLO burn on the latency-sensitive class and a
/// per-class sustained shed-rate alert. Both alerts pair a 2-round fast
/// window with an 8-round slow window and require one extra sustained
/// evaluation (`for_rounds: 1`) so single-round blips stay silent.
pub fn default_qos_rules(alerts: &mut AlertEngine) {
    for class in SloClass::ALL {
        alerts.add_recording(RecordingRule {
            record: "sfi_qos_goodput_permille",
            labels: vec![("class", class.name().to_owned())],
            source: RuleSource::RatioPermille {
                num: format!("increase(sfi_qos_completed_total{{class=\"{}\"}}[8r])", class.name()),
                den: format!("increase(sfi_qos_offered_total{{class=\"{}\"}}[8r])", class.name()),
            },
        });
    }
    alerts.add_alert(AlertRule {
        name: "slo_burn_ls",
        fast: "avg_over_time(sfi_qos_slo_burn_permille{class=\"latency_sensitive\"}[2r])"
            .to_owned(),
        slow: "avg_over_time(sfi_qos_slo_burn_permille{class=\"latency_sensitive\"}[8r])"
            .to_owned(),
        op: CompareOp::Ge,
        threshold: BURN_ALERT_THRESHOLD,
        for_rounds: 1,
    });
    alerts.add_alert(AlertRule {
        name: "shed_rate",
        fast: "rate(sfi_qos_shed_total[2r])".to_owned(),
        slow: "rate(sfi_qos_shed_total[8r])".to_owned(),
        op: CompareOp::Ge,
        threshold: SHED_ALERT_THRESHOLD,
        for_rounds: 1,
    });
}

/// Configuration for a serving engine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The multi-core engine config run every round. `engine.seed` is the
    /// *base* seed; round `r` runs with [`round_seed`]`(seed, r)`.
    pub engine: MultiCoreConfig,
    /// The single-core probe simulation behind `/healthz` (carries the
    /// [`FailureModel`]; its seed advances per round like the engine's).
    pub probe: SimConfig,
    /// Capacity of the cumulative stream recorder scraped via `/trace`, and
    /// of its separate fault ring (events beyond either age out and are
    /// reported as `dropped`).
    pub stream_capacity: usize,
}

impl ServeConfig {
    /// A serving rig sized for interactive scraping: short engine rounds
    /// (50 ms), a short fault-injecting health probe, and a stream deep
    /// enough that a scraper polling once per round never drops events.
    pub fn paper_rig(cores: u32) -> ServeConfig {
        let mut engine = MultiCoreConfig::paper_rig(
            FaasWorkload::HashLoadBalance,
            ScalingMode::ColorGuard,
            CacheMode::Warm,
            cores,
        );
        engine.duration_ms = 50;
        let mut probe = SimConfig::paper_rig(FaasWorkload::HashLoadBalance, ScalingMode::ColorGuard);
        probe.duration_ms = 25;
        probe.failures = FailureModel::with_trap_rate(0.02);
        ServeConfig { engine, probe, stream_capacity: 65_536 }
    }
}

/// The seed round `r` runs with: a splitmix-style mix of the base seed and
/// the round index, so rounds are decorrelated but the whole serving
/// session stays a pure function of the base seed.
pub fn round_seed(base: u64, round: u64) -> u64 {
    let mut z = base ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Flattens per-core flight-recorder dumps onto one timeline: cores are
/// chained in index order, then stably sorted by tick — ties keep core
/// order, so the result is deterministic.
pub fn flatten_traces(traces: &[Vec<TraceEvent>]) -> Vec<TraceEvent> {
    let mut all: Vec<TraceEvent> = traces.iter().flatten().copied().collect();
    all.sort_by_key(|e| e.tick);
    all
}

/// The live serving engine: cumulative modeled state plus scrape
/// bookkeeping. Drive it with [`ServeEngine::run_round`]; read it through
/// the endpoint renderers (all `&self` — scraping mutates nothing modeled).
#[derive(Debug)]
pub struct ServeEngine {
    cfg: ServeConfig,
    rounds: u64,
    /// Cumulative modeled registry (merge of every round's report
    /// registry). This — and nothing else — backs `/snapshot`.
    registry: Registry,
    /// Poisoned instances quarantined+recycled by the health probe so far.
    quarantined: u64,
    /// Probe requests dead-lettered so far.
    dead_lettered: u64,
    /// The most recent probe's availability (1.0 before the first round).
    availability: f64,
    /// The most recent engine round's occupancy (0.0 before the first
    /// round). Modeled state: a pure function of `(config, rounds)`, which
    /// is what lets autoscale decisions replay byte-identically.
    occupancy: f64,
    /// Cumulative per-bucket latency exemplars (populated only when the
    /// engine config enables spans), served via `/profile`.
    exemplars: BucketExemplars,
    /// SLO burn gauges (`sfi_qos_slo_burn_permille{class=…}`), present iff
    /// the engine config enables QoS. Kept in their own registry and
    /// `set()` after every round: gauges *add* under [`Registry::merge_from`],
    /// so folding them into the cumulative modeled registry would
    /// accumulate across rounds instead of tracking the current burn.
    burn: Registry,
    burn_ids: Option<[GaugeId; 3]>,
    /// The scrape surface: the cumulative event stream on the continuous
    /// timeline, the tsdb over the modeled and burn registries (ingested
    /// once per round), the rules evaluated over it, and the
    /// `sfi_serve_scrapes_total` counters.
    surface: ScrapeSurface,
}

impl ServeEngine {
    /// A fresh engine; no rounds run yet. The stream recorder keeps fault
    /// events in a ring of their own
    /// ([`sfi_telemetry::Retention::PinFaults`]): enter/exit chatter never
    /// ages out the traps and quarantine recycles a post-mortem needs, and
    /// the newest `stream_capacity` of those are kept, so a long-serving
    /// engine's memory stays bounded.
    pub fn new(cfg: ServeConfig) -> ServeEngine {
        let mut surface = ScrapeSurface::new(
            cfg.stream_capacity,
            "sfi_serve_scrapes_total",
            &["metrics", "snapshot", "trace", "healthz", "profile", "alerts", "query"],
        );
        if cfg.engine.qos.is_some() {
            default_qos_rules(&mut surface.alerts);
        }
        let mut burn = Registry::new();
        let burn_ids = cfg.engine.qos.as_ref().map(|_| {
            SloClass::ALL.map(|c| {
                burn.try_gauge("sfi_qos_slo_burn_permille", &[("class", c.name())])
                    .expect("one burn registry per engine")
            })
        });
        ServeEngine {
            cfg,
            rounds: 0,
            registry: Registry::new(),
            quarantined: 0,
            dead_lettered: 0,
            availability: 1.0,
            occupancy: 0.0,
            exemplars: BucketExemplars::new(),
            burn,
            burn_ids,
            surface,
        }
    }

    /// Runs one engine round plus one health-probe round, folds both into
    /// the cumulative state, and returns the round's report.
    pub fn run_round(&mut self) -> MultiCoreReport {
        let mut engine = self.cfg.engine.clone();
        engine.seed = round_seed(self.cfg.engine.seed, self.rounds);
        let report = simulate_multicore(&engine);
        self.registry.merge_from(&report.registry);
        self.exemplars.merge_from(&report.exemplars);
        // Each round models [0, duration) ns; restamp onto the session
        // timeline so the stream's ticks are monotone across rounds.
        let offset = self.rounds * self.cfg.engine.duration_ms * 1_000_000;
        // With spans on, the round itself is a level-1 span bracketing its
        // requests' queue-wait/admission/invoke edges on the timeline.
        let round_tid = trace_id(self.cfg.engine.seed ^ 0x0E11_6120, self.rounds);
        if self.cfg.engine.spans {
            self.surface.stream.record(TraceEvent {
                tick: offset,
                core: 0,
                sandbox: round_tid,
                kind: TraceKind::Flow,
                arg: pack_span(SpanLevel::EngineRound, true, false, self.rounds),
            });
        }
        for ev in flatten_traces(&report.traces) {
            self.surface.stream.record(TraceEvent { tick: ev.tick + offset, ..ev });
        }
        if self.cfg.engine.spans {
            self.surface.stream.record(TraceEvent {
                tick: offset + self.cfg.engine.duration_ms * 1_000_000,
                core: 0,
                sandbox: round_tid,
                kind: TraceKind::Flow,
                arg: pack_span(SpanLevel::EngineRound, false, true, self.rounds),
            });
        }
        let mut probe = self.cfg.probe.clone();
        probe.seed = round_seed(self.cfg.probe.seed, self.rounds);
        let health = simulate(&probe);
        self.quarantined += health.faults + health.infra_faults;
        self.dead_lettered += health.dead_lettered;
        self.availability = health.availability;
        self.occupancy = report.occupancy;
        self.rounds += 1;
        self.update_burn();
        // Ingest this round's cumulative levels, then evaluate the rules;
        // transitions land on the stream at the round's closing tick.
        self.surface.tsdb.ingest(self.rounds, &self.registry);
        self.surface.tsdb.ingest(self.rounds, &self.burn);
        let end_tick = self.rounds * self.cfg.engine.duration_ms * 1_000_000;
        self.surface.evaluate(self.rounds, end_tick);
        report
    }

    /// Re-derives the SLO burn gauges from the cumulative per-class latency
    /// histograms: `1000 × observed p99.9 ÷ target` (1000 = exactly at
    /// target). `set()` each round, never merged cumulatively.
    fn update_burn(&mut self) {
        let (Some(ids), Some(q)) = (self.burn_ids, self.cfg.engine.qos.as_ref()) else {
            return;
        };
        for (i, class) in SloClass::ALL.iter().enumerate() {
            let key = format!("sfi_qos_request_latency_ns{{class=\"{}\"}}", class.name());
            let p999_ms = self
                .registry
                .histogram_values(&key)
                .map_or(0.0, |h| h.p999() as f64 / 1e6);
            let target = q.slo_p999_ms[i].max(f64::MIN_POSITIVE);
            self.burn.set(ids[i], (1000.0 * p999_ms / target).round() as i64);
        }
    }

    /// Rounds completed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The most recent round's engine occupancy (the autoscale signal);
    /// 0.0 before any round has run.
    pub fn occupancy(&self) -> f64 {
        self.occupancy
    }

    /// Probe requests dead-lettered so far (cumulative).
    pub fn dead_lettered(&self) -> u64 {
        self.dead_lettered
    }

    /// The cumulative modeled registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The scrape surface: the cumulative event stream, the tsdb and the
    /// rules, and the `/trace`, `/alerts` and `/query` bodies.
    pub fn surface(&self) -> &ScrapeSurface {
        &self.surface
    }

    /// The cumulative per-bucket latency exemplars (empty unless the engine
    /// config enables spans).
    pub fn exemplars(&self) -> &BucketExemplars {
        &self.exemplars
    }

    /// `/metrics`: Prometheus text of the modeled registry and the burn
    /// gauges, plus the scrape counters and the rules' derived series.
    pub fn metrics_text(&self) -> String {
        let mut series = self.registry.clone();
        series.merge_from(&self.burn);
        self.surface.metrics_text(series)
    }

    /// The per-class SLO burn gauge registry (empty without QoS). Exposed
    /// so the fleet supervisor can fold member burn levels into its own
    /// federated tsdb under `engine="<id>"` labels.
    pub fn burn_registry(&self) -> &Registry {
        &self.burn
    }

    /// The host-side cycle-attribution flamegraph of the cumulative run:
    /// where engine time went (guest compute vs. spawn vs. scheduling), in
    /// the `flamegraph.pl` collapse format. Pure function of the modeled
    /// registry.
    pub fn profile_folded(&self) -> FoldedStacks {
        let mut f = FoldedStacks::new();
        let c = |key: &str| self.registry.counter_value(key).unwrap_or(0);
        let busy = c("sfi_shard_busy_ns_total");
        let spawn = c("sfi_shard_spawn_ns_total");
        let overhead = c("sfi_shard_overhead_ns_total");
        f.add(&["engine", "guest_compute"], busy);
        f.add(&["engine", "overhead", "spawn"], spawn);
        f.add(&["engine", "overhead", "sched"], overhead.saturating_sub(spawn));
        f
    }

    /// `/profile`: the folded-stack flamegraph (one collapse line per array
    /// element), the per-bucket latency exemplars keyed by bucket upper
    /// bound, and — when QoS is on — the per-class SLO burn gauges.
    /// Deterministic: a pure function of `(config, rounds run)`.
    pub fn profile_body(&self) -> String {
        let folded = self.profile_folded();
        let lines: Vec<String> =
            folded.render().lines().map(|l| format!("\"{}\"", json_escape(l))).collect();
        let mut body = format!(
            "{{\"rounds\": {}, \"folded\": [{}], \"exemplars\": {}",
            self.rounds,
            lines.join(", "),
            self.exemplars.render_json(),
        );
        if let (Some(_), Some(q)) = (self.burn_ids, self.cfg.engine.qos.as_ref()) {
            body.push_str(", \"slo_burn_permille\": {");
            for (i, class) in SloClass::ALL.iter().enumerate() {
                if i > 0 {
                    body.push_str(", ");
                }
                let key = format!("sfi_qos_slo_burn_permille{{class=\"{}\"}}", class.name());
                body.push_str(&format!(
                    "\"{}\": {{\"burn\": {}, \"target_p999_ms\": {:.3}}}",
                    class.name(),
                    self.burn.gauge_value(&key).unwrap_or(0),
                    q.slo_p999_ms[i],
                ));
            }
            body.push('}');
        }
        body.push_str("}\n");
        body
    }

    /// `/snapshot`: the modeled registry as JSON — byte-identical to what
    /// an offline replay of the same config and round count exports.
    pub fn snapshot_json(&self) -> String {
        json_snapshot(&self.registry)
    }

    /// `/healthz`: availability and quarantine state from the failure-model
    /// probe. `uptime_seconds` is the one place wall time is allowed.
    pub fn healthz_body(&self, uptime_seconds: f64) -> String {
        let status = if self.availability >= 0.9 { "ok" } else { "degraded" };
        format!(
            "{{\"status\": \"{}\", \"rounds\": {}, \"availability\": {:.6}, \
             \"quarantined_instances\": {}, \"dead_lettered\": {}, \"uptime_seconds\": {:.3}}}\n",
            status, self.rounds, self.availability, self.quarantined, self.dead_lettered,
            uptime_seconds
        )
    }

    /// Dispatches one request through the shared route table. Returns the
    /// response plus the stop flag (`/quit` answers then stops the accept
    /// loop — the clean shutdown path CI exercises). GET only.
    pub fn route(&mut self, req: &HttpRequest, uptime_seconds: f64) -> (HttpResponse, bool) {
        route(self, req, uptime_seconds)
    }
}

impl ScrapeOwner for ServeEngine {
    fn surface_mut(&mut self) -> &mut ScrapeSurface {
        &mut self.surface
    }

    fn respond(&self, endpoint: &str, uptime_seconds: f64) -> HttpResponse {
        match endpoint {
            "metrics" => HttpResponse::prometheus(self.metrics_text()),
            "snapshot" => HttpResponse::json(self.snapshot_json()),
            "profile" => HttpResponse::json(self.profile_body()),
            "healthz" => HttpResponse::json(self.healthz_body(uptime_seconds)),
            _ => HttpResponse::not_found(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_telemetry::chrome_trace_wrap;

    fn small_cfg() -> ServeConfig {
        let mut cfg = ServeConfig::paper_rig(2);
        cfg.engine.duration_ms = 20;
        cfg.probe.duration_ms = 10;
        cfg
    }

    #[test]
    fn replay_reproduces_modeled_state_byte_for_byte() {
        let run = |scrapes: u32| {
            let mut eng = ServeEngine::new(small_cfg());
            for _ in 0..3 {
                eng.run_round();
                // Scraping between rounds must not perturb anything modeled.
                for _ in 0..scrapes {
                    let _ = eng.metrics_text();
                    let _ = eng.surface().trace_body(0);
                }
            }
            (eng.snapshot_json(), eng.surface().trace_batch())
        };
        let (snap_quiet, trace_quiet) = run(0);
        let (snap_scraped, trace_scraped) = run(5);
        assert_eq!(snap_quiet, snap_scraped, "scraping changed the modeled snapshot");
        assert_eq!(trace_quiet, trace_scraped, "scraping changed the trace stream");
        assert!(snap_quiet.contains("sfi_shard_completed_total"));
        assert!(snap_quiet.contains("sfi_shard_request_latency_ns"));
    }

    #[test]
    fn incremental_drains_concatenate_to_the_batch_export() {
        let mut eng = ServeEngine::new(small_cfg());
        let mut cursor = 0u64;
        let mut lines: Vec<String> = Vec::new();
        for _ in 0..3 {
            eng.run_round();
            let body = eng.surface().trace_body(cursor);
            let mut it = body.lines();
            let head = it.next().unwrap();
            assert!(head.contains("\"dropped\": 0"), "{head}");
            let next_str =
                head.split("\"next\": ").nth(1).unwrap().split(',').next().unwrap();
            cursor = next_str.parse().unwrap();
            lines.extend(it.map(str::to_owned));
        }
        assert_eq!(cursor, eng.surface().stream().total_recorded());
        assert_eq!(chrome_trace_wrap(&lines), eng.surface().trace_batch());
        // A fully drained cursor yields an empty incremental body.
        let empty = eng.surface().trace_body(cursor);
        assert!(empty.contains("\"lines\": 0"), "{empty}");
    }

    #[test]
    fn rounds_restamp_onto_a_monotone_timeline() {
        let mut eng = ServeEngine::new(small_cfg());
        eng.run_round();
        eng.run_round();
        let events = eng.surface().stream().events();
        assert!(!events.is_empty());
        assert!(events.windows(2).all(|w| w[0].tick <= w[1].tick), "ticks regressed");
        let round_ns = 20 * 1_000_000;
        assert!(events.last().unwrap().tick >= round_ns, "round 2 not offset");
    }

    #[test]
    fn profile_endpoint_serves_flamegraph_exemplars_and_burn() {
        use crate::qos::QosConfig;
        use sfi_telemetry::{json_is_valid, unpack_span};
        let mut cfg = small_cfg();
        cfg.engine.spans = true;
        cfg.engine.qos = Some(QosConfig::paper_rig());
        let mut eng = ServeEngine::new(cfg);
        eng.run_round();
        eng.run_round();

        let req = HttpRequest::parse("GET /profile HTTP/1.1").unwrap();
        let (resp, stop) = eng.route(&req, 0.0);
        assert!(!stop);
        assert_eq!(resp.status, 200);
        assert!(json_is_valid(&resp.body), "{}", resp.body);
        assert!(resp.body.contains("engine;guest_compute"), "{}", resp.body);
        assert!(resp.body.contains("engine;overhead;spawn"));
        assert!(resp.body.contains("\"exemplars\""));
        assert!(resp.body.contains("\"trace_id\""), "completions must leave exemplars");
        assert!(resp.body.contains("\"slo_burn_permille\""));
        assert!(resp.body.contains("\"latency_sensitive\""));

        // The burn gauges ride /metrics but never the modeled snapshot.
        assert!(eng.metrics_text().contains("sfi_qos_slo_burn_permille"));
        assert!(!eng.snapshot_json().contains("sfi_qos_slo_burn_permille"));

        // Each round brackets its requests with a level-1 engine-round span.
        let rounds: Vec<_> = eng
            .surface()
            .stream()
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::Flow)
            .filter_map(|e| unpack_span(e.arg))
            .filter(|s| s.level == SpanLevel::EngineRound)
            .collect();
        assert_eq!(rounds.len(), 4, "2 rounds × (start + end)");
        assert!(eng.surface().stream().events().iter().any(|e| {
            e.kind == TraceKind::Flow
                && unpack_span(e.arg).is_some_and(|s| s.level == SpanLevel::Invoke)
        }));

        // Profile scraping is replay-invariant like every other endpoint.
        let rebuild = |scrapes: u32| {
            let mut cfg = small_cfg();
            cfg.engine.spans = true;
            cfg.engine.qos = Some(QosConfig::paper_rig());
            let mut eng = ServeEngine::new(cfg);
            for _ in 0..2 {
                eng.run_round();
                for _ in 0..scrapes {
                    let _ = eng.profile_body();
                }
            }
            (eng.profile_body(), eng.snapshot_json())
        };
        assert_eq!(rebuild(0), rebuild(3), "profile scrapes must not perturb modeled state");
    }

    #[test]
    fn alerts_and_query_endpoints_serve_the_tsdb() {
        use crate::qos::QosConfig;
        use sfi_telemetry::json_is_valid;
        let mk = || {
            let mut cfg = small_cfg();
            cfg.engine.qos = Some(QosConfig::paper_rig());
            cfg
        };
        let mut eng = ServeEngine::new(mk());
        for _ in 0..3 {
            eng.run_round();
        }

        // The store saw the modeled registry: counters, burn gauges, and
        // the goodput recording-rule outputs are all queryable.
        assert!(eng.surface().tsdb().series_count() > 0);
        let burn = eng.surface().query_body("sfi_qos_slo_burn_permille").unwrap();
        assert!(burn.contains("latency_sensitive"), "{burn}");
        let good = eng.surface().query_body("sfi_qos_goodput_permille").unwrap();
        assert!(good.contains("\"results\": [{"), "{good}");

        let (resp, _) = eng.route(&HttpRequest::parse("GET /alerts HTTP/1.1").unwrap(), 0.0);
        assert_eq!((resp.status, resp.content_type), (200, "application/json"));
        assert!(json_is_valid(resp.body.trim_end()), "{}", resp.body);
        assert!(resp.body.contains("\"states\""), "{}", resp.body);
        let (resp, _) = eng
            .route(&HttpRequest::parse("GET /query?expr=rate(sfi_shard_completed_total[4r]) HTTP/1.1").unwrap(), 0.0);
        assert_eq!(resp.status, 200);
        assert!(json_is_valid(resp.body.trim_end()), "{}", resp.body);
        assert!(resp.body.contains("\"value\""), "{}", resp.body);

        // Hygiene: malformed cursors and expressions answer 400, not 200.
        for path in [
            "/alerts?since=abc",
            "/trace?since=-1",
            "/query?expr=%ZZ",
            "/query",
            "/query?expr=rate(sfi_shard_completed_total[0r)",
        ] {
            let req = HttpRequest::parse(&format!("GET {path} HTTP/1.1")).unwrap();
            let (resp, _) = eng.route(&req, 0.0);
            assert_eq!(resp.status, 400, "{path} must 400: {}", resp.body);
        }

        // Derived goodput gauges ride /metrics, never the modeled snapshot.
        assert!(eng.metrics_text().contains("sfi_qos_goodput_permille"));
        assert!(!eng.snapshot_json().contains("sfi_qos_goodput_permille"));

        // Alert/query scraping is observer-effect-free and the alert state
        // replays byte-identically from (config, rounds).
        let rebuild = |scrapes: u32| {
            let mut eng = ServeEngine::new(mk());
            for _ in 0..3 {
                eng.run_round();
                for _ in 0..scrapes {
                    let _ = eng.surface().alerts_body(0);
                    let _ = eng.surface().query_body("sfi_qos_slo_burn_permille").unwrap();
                }
            }
            (eng.surface().alerts_body(0), eng.snapshot_json(), eng.surface().trace_batch())
        };
        assert_eq!(rebuild(0), rebuild(4), "alert scrapes perturbed modeled state");
    }

    #[test]
    fn meta_counters_show_in_metrics_but_not_snapshot() {
        let mut eng = ServeEngine::new(small_cfg());
        eng.run_round();
        let req = HttpRequest::parse("GET /metrics HTTP/1.1").unwrap();
        let (resp, stop) = eng.route(&req, 0.0);
        assert!(!stop);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("sfi_serve_scrapes_total{endpoint=\"metrics\"} 1"));
        assert!(!eng.snapshot_json().contains("sfi_serve_scrapes_total"));

        let (health, _) = eng.route(&HttpRequest::parse("GET /healthz HTTP/1.1").unwrap(), 1.5);
        assert!(health.body.contains("\"status\""), "{}", health.body);
        assert!(health.body.contains("\"uptime_seconds\": 1.500"));
        let (resp, stop) = eng.route(&HttpRequest::parse("GET /quit HTTP/1.1").unwrap(), 0.0);
        assert_eq!((resp.status, stop), (200, true));
        let (resp, _) = eng.route(&HttpRequest::parse("GET /nope HTTP/1.1").unwrap(), 0.0);
        assert_eq!(resp.status, 404);
    }
}
