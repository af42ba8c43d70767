//! The one scrape surface both serving owners answer through: the
//! per-engine [`ServeEngine`](crate::ServeEngine) (DESIGN.md §8) and the
//! federated [`FleetSupervisor`](crate::FleetSupervisor) (§11).
//!
//! Both own a [`ScrapeSurface`]: the cursor-drained trace stream, a bounded
//! tsdb, the rule engine and the scrape counters. One route table answers
//! every request — the GET-only check, `/quit`, the scrape-counter bump,
//! the `since` cursor, `expr` decoding, and the `/trace`, `/alerts` and
//! `/query` bodies — and asks the owner only for what differs: its
//! `/metrics`, `/snapshot`, `/profile` and `/healthz` bodies, plus the
//! fleet's `/fleet`. [`serve_blocking`] is the one accept loop for either.

use std::net::TcpListener;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use sfi_telemetry::{
    chrome_trace, chrome_trace_drain, json_escape, percent_decode, prometheus_text, AlertEngine,
    CounterId, Cursor, FlightRecorder, HttpRequest, HttpResponse, Registry, Retention, TraceEvent,
    TraceKind, Tsdb,
};

use crate::serve::{ALERT_LOG_CAPACITY, NS_PER_TICK, TSDB_MAX_SERIES, TSDB_WINDOW};

/// The state and renderers every scrape surface shares. All of it but the
/// scrape counters is a pure function of the owner's `(config, rounds)`;
/// the counters ride `/metrics` only, never `/snapshot`, so scraping has
/// zero observer effect on modeled series.
#[derive(Debug)]
pub struct ScrapeSurface {
    /// The stream `/trace` drains; faults keep a ring of their own
    /// ([`Retention::PinFaults`]), so enter/exit chatter never ages out the
    /// traps and recycles a post-mortem needs.
    pub(crate) stream: FlightRecorder,
    /// The bounded time-series store behind `/query` and the rules.
    pub(crate) tsdb: Tsdb,
    /// The rules behind `/alerts`; their derived series ride `/metrics`.
    pub(crate) alerts: AlertEngine,
    meta: Registry,
    /// The owner's endpoints (path without `/`) and their scrape counters.
    scrapes: Vec<(&'static str, CounterId)>,
}

impl ScrapeSurface {
    /// A surface whose stream keeps `stream_capacity` events (and as many
    /// faults), counting scrapes of each of `endpoints` in the `series`
    /// counter under an `endpoint` label.
    pub(crate) fn new(
        stream_capacity: usize,
        series: &'static str,
        endpoints: &[&'static str],
    ) -> ScrapeSurface {
        let mut meta = Registry::new();
        let scrapes = endpoints
            .iter()
            .map(|&ep| (ep, meta.counter_with(series, &[("endpoint", ep)])))
            .collect();
        ScrapeSurface {
            stream: FlightRecorder::with_retention(stream_capacity, Retention::PinFaults),
            tsdb: Tsdb::new(TSDB_WINDOW, TSDB_MAX_SERIES),
            alerts: AlertEngine::new(ALERT_LOG_CAPACITY),
            meta,
            scrapes,
        }
    }

    /// Evaluates the rules over the tsdb as of `round`, then mirrors each
    /// transition into the stream as a [`TraceKind::Alert`] event at `tick`
    /// (sandbox = rule index, arg = transition code), so alert history shows
    /// on the trace timeline.
    pub(crate) fn evaluate(&mut self, round: u64, tick: u64) {
        for t in self.alerts.evaluate(round, &mut self.tsdb) {
            self.stream.record(TraceEvent {
                tick,
                core: 0,
                sandbox: t.rule_idx as u64,
                kind: TraceKind::Alert,
                arg: t.transition.code(),
            });
        }
    }

    /// `/metrics`: Prometheus text of the owner's `series` plus the scrape
    /// counters and the rules' derived series.
    pub(crate) fn metrics_text(&self, mut series: Registry) -> String {
        series.merge_from(&self.meta);
        series.merge_from(self.alerts.derived());
        prometheus_text(&series)
    }

    /// The event stream `/trace` drains.
    pub fn stream(&self) -> &FlightRecorder {
        &self.stream
    }

    /// The time-series store behind `/query` and the rules.
    pub fn tsdb(&self) -> &Tsdb {
        &self.tsdb
    }

    /// The rule engine behind `/alerts`.
    pub fn alerts(&self) -> &AlertEngine {
        &self.alerts
    }

    /// `/trace?since=<cursor>`: one incremental drain of the stream
    /// ([`sfi_telemetry::chrome_trace_drain`]); the event lines of
    /// successive drains re-wrap to [`ScrapeSurface::trace_batch`].
    pub fn trace_body(&self, since: u64) -> String {
        chrome_trace_drain(&self.stream, since, NS_PER_TICK)
    }

    /// The post-mortem batch export of the retained stream.
    pub fn trace_batch(&self) -> String {
        chrome_trace(&self.stream.events(), NS_PER_TICK)
    }

    /// `/alerts?since=<cursor>`: alert states plus the logged transitions at
    /// or after `since`, byte-identical across replays of the same rounds.
    pub fn alerts_body(&self, since: u64) -> String {
        self.alerts.alerts_json(since) + "\n"
    }

    /// `/query?expr=<expr>`: one tsdb query (`sel`, `rate(sel[Nr])`,
    /// `increase(sel[Nr])`, `avg_over_time`, `max_over_time`) over the
    /// retained window, as JSON. `Err` carries the parse error.
    pub fn query_body(&self, expr: &str) -> Result<String, String> {
        let rows = self.tsdb.query(expr)?;
        let results: Vec<String> = rows
            .iter()
            .map(|(k, v)| format!("{{\"series\": \"{}\", \"value\": {v:.6}}}", json_escape(k)))
            .collect();
        Ok(format!(
            "{{\"expr\": \"{}\", \"round\": {}, \"results\": [{}]}}\n",
            json_escape(expr),
            self.tsdb.last_round(),
            results.join(", ")
        ))
    }
}

/// What an owner supplies to the route table. Implemented by
/// [`ServeEngine`](crate::ServeEngine) and
/// [`FleetSupervisor`](crate::FleetSupervisor).
pub trait ScrapeOwner {
    /// The owner's surface.
    fn surface_mut(&mut self) -> &mut ScrapeSurface;
    /// Answers one of the owner's own endpoints: `metrics`, `snapshot`,
    /// `profile`, `healthz` (whose `uptime_seconds` is the one wall-clock
    /// field), and the fleet's `fleet`.
    fn respond(&self, endpoint: &str, uptime_seconds: f64) -> HttpResponse;
}

/// The one route table. GET only (405 otherwise); `/quit` answers and sets
/// the stop flag; every other path must be one of the owner's endpoints
/// (404 otherwise), whose scrape counter is bumped before the body renders —
/// a request answered 400 still counts.
pub(crate) fn route<O: ScrapeOwner>(
    owner: &mut O,
    req: &HttpRequest,
    uptime_seconds: f64,
) -> (HttpResponse, bool) {
    if req.method != "GET" {
        return (HttpResponse::method_not_allowed(), false);
    }
    if req.path == "/quit" {
        return (HttpResponse::ok("text/plain", "bye\n".to_owned()), true);
    }
    let surface = owner.surface_mut();
    let path = req.path.strip_prefix('/');
    let Some(&(endpoint, id)) = surface.scrapes.iter().find(|(ep, _)| path == Some(*ep)) else {
        return (HttpResponse::not_found(), false);
    };
    surface.meta.inc(id);
    let response = match endpoint {
        "trace" | "alerts" => {
            let since = match req.cursor("since") {
                Cursor::Absent => 0,
                Cursor::At(since) => since,
                Cursor::Malformed => {
                    return (HttpResponse::bad_request("malformed since cursor"), false)
                }
            };
            HttpResponse::json(match endpoint {
                "trace" => surface.trace_body(since),
                _ => surface.alerts_body(since),
            })
        }
        "query" => match req.query_str("expr").map(percent_decode) {
            None => HttpResponse::bad_request("missing expr parameter"),
            Some(None) => HttpResponse::bad_request("malformed percent-encoding"),
            Some(Some(expr)) => match surface.query_body(&expr) {
                Ok(body) => HttpResponse::json(body),
                Err(e) => HttpResponse::bad_request(&e),
            },
        },
        own => owner.respond(own, uptime_seconds),
    };
    (response, false)
}

/// The blocking accept loop for a shared [`ServeEngine`](crate::ServeEngine)
/// or [`FleetSupervisor`](crate::FleetSupervisor): each request locks the
/// owner, routes, answers; returns once `/quit` is served. `started` anchors
/// the `/healthz` uptime (the only wall-clock reading). A poisoned lock (a
/// driver thread that panicked mid-round) is recovered, not propagated: the
/// scrape surface must outlive member crashes.
pub fn serve_blocking<O: ScrapeOwner>(
    listener: &TcpListener,
    owner: &Mutex<O>,
    started: Instant,
) -> std::io::Result<()> {
    sfi_telemetry::serve(listener, |req| {
        let mut owner = owner.lock().unwrap_or_else(PoisonError::into_inner);
        route(&mut *owner, req, started.elapsed().as_secs_f64())
    })
}
