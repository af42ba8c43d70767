//! Exporters: Prometheus text, JSON snapshot, chrome://tracing.
//!
//! All three are deterministic — series sorted by key, fixed float
//! precision — so same-seed runs export byte-identical artifacts and the
//! snapshots embedded in `BENCH_*.json` diff cleanly.

use crate::histogram::{CycleHistogram, HISTOGRAM_BUCKETS};
use crate::recorder::{FlightRecorder, TraceEvent, TraceKind};
use crate::registry::Registry;
use crate::span::unpack_span;

/// Renders the registry in the Prometheus text exposition format:
/// `# TYPE` headers, series sorted by key, label values escaped. Histograms
/// export Prometheus-conformant cumulative `_bucket{le="…"}` series (one
/// per occupied power-of-two bucket up to the recorded maximum, plus
/// `le="+Inf"`), the nearest-rank p50/p95/p99 as `{quantile="…"}` series,
/// and `_sum`/`_count` — the pair that makes `rate(sum)/rate(count)`
/// window means computable by the tsdb ([`crate::tsdb::Tsdb::ingest`]).
///
/// The exact byte layout is pinned by a golden test: a change here is a
/// deliberate, test-updating event, never an accident — the serve/fleet
/// `--check` byte-identity gates depend on that.
pub fn prometheus_text(r: &Registry) -> String {
    let mut out = String::new();
    for (key, v) in r.sorted_counters() {
        let name = base_name(&key);
        out.push_str(&format!("# TYPE {name} counter\n{key} {v}\n"));
    }
    for (key, v) in r.sorted_gauges() {
        let name = base_name(&key);
        out.push_str(&format!("# TYPE {name} gauge\n{key} {v}\n"));
    }
    for (key, h) in r.sorted_histograms() {
        let name = base_name(&key);
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let bucket_key = format!("{name}_bucket{}", label_suffix(&key));
        let mut cum = 0u64;
        if h.count() > 0 {
            // Buckets up to the one holding the recorded max; everything
            // above is redundant with +Inf and stays un-emitted.
            let top = CycleHistogram::bucket_of(h.max()).min(HISTOGRAM_BUCKETS - 2);
            for (i, &c) in h.buckets().iter().enumerate().take(top + 1) {
                cum += c;
                let le = CycleHistogram::bucket_upper_bound(i).to_string();
                out.push_str(&format!("{} {cum}\n", with_label(&bucket_key, "le", &le)));
            }
        }
        out.push_str(&format!("{} {}\n", with_label(&bucket_key, "le", "+Inf"), h.count()));
        for (q, v) in [("0.5", h.p50()), ("0.95", h.p95()), ("0.99", h.p99())] {
            out.push_str(&format!("{} {v}\n", with_label(&key, "quantile", q)));
        }
        out.push_str(&format!("{name}_sum{} {}\n", label_suffix(&key), h.sum()));
        out.push_str(&format!("{name}_count{} {}\n", label_suffix(&key), h.count()));
    }
    out
}

/// The metric name part of a series key (`name{labels}` → `name`).
fn base_name(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

/// The `{labels}` part of a series key, or `""`.
fn label_suffix(key: &str) -> &str {
    match key.find('{') {
        Some(i) => &key[i..],
        None => "",
    }
}

/// Adds one more label to a series key (used for `quantile`).
fn with_label(key: &str, label: &str, value: &str) -> String {
    match key.find('{') {
        Some(i) => format!("{}{{{label}=\"{value}\",{}", &key[..i], &key[i + 1..]),
        None => format!("{key}{{{label}=\"{value}\"}}"),
    }
}

/// Escapes a string for embedding as a JSON string value: `"`, `\` and
/// every control character (`\n`, `\r`, `\t` by name, the rest as
/// `\u00XX`), so any input yields a [`json_is_valid`] string.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the registry as one deterministic JSON object:
/// `{"counters": {…}, "gauges": {…}, "histograms": {key: {count, sum, mean,
/// p50, p95, p99, max}}}` with keys sorted. Suitable for embedding in
/// `BENCH_*.json`.
pub fn json_snapshot(r: &Registry) -> String {
    let mut out = String::from("{");
    out.push_str("\"counters\": {");
    let counters = r.sorted_counters();
    for (i, (k, v)) in counters.iter().enumerate() {
        out.push_str(&format!("\"{}\": {v}", json_escape(k)));
        if i + 1 < counters.len() {
            out.push_str(", ");
        }
    }
    out.push_str("}, \"gauges\": {");
    let gauges = r.sorted_gauges();
    for (i, (k, v)) in gauges.iter().enumerate() {
        out.push_str(&format!("\"{}\": {v}", json_escape(k)));
        if i + 1 < gauges.len() {
            out.push_str(", ");
        }
    }
    out.push_str("}, \"histograms\": {");
    let hists = r.sorted_histograms();
    for (i, (k, h)) in hists.iter().enumerate() {
        out.push_str(&format!(
            "\"{}\": {{\"count\": {}, \"sum\": {}, \"mean\": {:.3}, \
             \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
            json_escape(k),
            h.count(),
            h.sum(),
            h.mean(),
            h.p50(),
            h.p95(),
            h.p99(),
            h.max()
        ));
        if i + 1 < hists.len() {
            out.push_str(", ");
        }
    }
    out.push_str("}}");
    out
}

/// Renders one trace event as its chrome://tracing line (no separator):
/// the unit of incremental streaming. A `/trace?since=` response carries
/// these lines; [`chrome_trace_wrap`] joins any concatenation of them back
/// into the exact batch document, which is what makes a drained stream
/// byte-identical to the post-mortem export.
///
/// [`TraceKind::Flow`] events render as chrome flow events instead of
/// instants: `ph` is `"s"` (span start), `"f"` (span finish) or `"t"`
/// (step / instantaneous), `id` is the request's trace id (from the
/// event's `sandbox` field) so the viewer draws arrows connecting every
/// station of one request, and the span level and detail (unpacked per
/// [`crate::span`]) land in the name and args. The mapping is stateless —
/// one event, one line — so streamed and batch exports stay byte-identical.
pub fn chrome_trace_line(e: &TraceEvent, ns_per_tick: f64) -> String {
    let ts_us = e.tick as f64 * ns_per_tick / 1000.0;
    if e.kind == TraceKind::Flow {
        if let Some(edge) = unpack_span(e.arg) {
            let ph = match (edge.start, edge.end) {
                (true, false) => "s",
                (false, true) => "f",
                _ => "t",
            };
            return format!(
                "  {{\"name\": \"span:{}\", \"cat\": \"request\", \"ph\": \"{ph}\", \
                 \"id\": {}, \"ts\": {ts_us:.3}, \"pid\": 0, \"tid\": {}, \
                 \"args\": {{\"detail\": {}}}}}",
                edge.level.name(),
                e.sandbox,
                e.core,
                edge.detail,
            );
        }
        // A Flow event whose arg doesn't decode falls through to the
        // instant-event shape: visible on the timeline rather than dropped.
    }
    format!(
        "  {{\"name\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {ts_us:.3}, \
         \"pid\": 0, \"tid\": {}, \"args\": {{\"sandbox\": {}, \"arg\": {}}}}}",
        e.kind.name(),
        e.core,
        if e.sandbox == u64::MAX { -1i64 } else { e.sandbox as i64 },
        e.arg,
    )
}

/// [`chrome_trace_line`] over a batch, one line per event, in order.
pub fn chrome_trace_lines(events: &[TraceEvent], ns_per_tick: f64) -> Vec<String> {
    events.iter().map(|e| chrome_trace_line(e, ns_per_tick)).collect()
}

/// Wraps [`chrome_trace_line`]s into the complete chrome://tracing
/// document. `chrome_trace(events) == chrome_trace_wrap(&chrome_trace_lines(events))`
/// by construction, so a client that concatenates streamed lines and wraps
/// them reproduces the batch export byte-for-byte.
pub fn chrome_trace_wrap(lines: &[String]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    out.push_str(&lines.join(",\n"));
    if !lines.is_empty() {
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// A gap marker for a trace stream that lost events to ring wraparound:
/// one global-scope instant event named `trace_gap`, placed at the tick of
/// the first event *after* the gap, carrying the drop count in its args.
/// It is a [`chrome_trace_line`]-shaped line, so a client that interleaves
/// it with streamed event lines and calls [`chrome_trace_wrap`] still gets
/// a valid chrome://tracing document — the gap is visible on the timeline
/// instead of silently absent.
fn chrome_trace_gap_line(dropped: u64, next_tick: u64, ns_per_tick: f64) -> String {
    let ts_us = next_tick as f64 * ns_per_tick / 1000.0;
    format!(
        "  {{\"name\": \"trace_gap\", \"ph\": \"i\", \"s\": \"g\", \"ts\": {ts_us:.3}, \
         \"pid\": 0, \"tid\": 0, \"args\": {{\"dropped\": {dropped}}}}}"
    )
}

/// One incremental drain of `rec` from cursor `since` — the body of a
/// `/trace?since=<cursor>` scrape. The first line is metadata (`next`
/// cursor, events `dropped` before the cursor, line count); one
/// [`chrome_trace_line`] per event follows, each ending in `\n`. A drain
/// that observed `dropped > 0` leads with a `trace_gap` marker line. A
/// client that concatenates the event lines of successive drains and calls
/// [`chrome_trace_wrap`] gets [`chrome_trace`] of the retained events
/// byte-for-byte, and a gap-marked stream still wraps to valid JSON.
pub fn chrome_trace_drain(rec: &FlightRecorder, since: u64, ns_per_tick: f64) -> String {
    let d = rec.events_since(since);
    let mut lines = Vec::with_capacity(d.events.len() + 1);
    if d.dropped > 0 {
        let next_tick = d.events.first().map_or(0, |e| e.tick);
        lines.push(chrome_trace_gap_line(d.dropped, next_tick, ns_per_tick));
    }
    lines.extend(chrome_trace_lines(&d.events, ns_per_tick));
    let mut body = format!(
        "{{\"next\": {}, \"dropped\": {}, \"lines\": {}}}\n",
        d.next,
        d.dropped,
        lines.len()
    );
    for l in &lines {
        body.push_str(l);
        body.push('\n');
    }
    body
}

/// Renders trace events as chrome://tracing "trace event format" JSON
/// (load the file at `chrome://tracing` or <https://ui.perfetto.dev> to see
/// the run as a timeline). Each event becomes an instant event (`"ph":
/// "i"`); `tid` is the core, `ts` is the virtual tick converted to µs via
/// `ns_per_tick`.
pub fn chrome_trace(events: &[TraceEvent], ns_per_tick: f64) -> String {
    chrome_trace_wrap(&chrome_trace_lines(events, ns_per_tick))
}

/// A minimal JSON syntax validator (no third-party crates in this
/// workspace). Checks string/escape/number/literal syntax and
/// bracket/brace balance — enough for the CI gate's "the exported snapshot
/// parses" check, not a full RFC 8259 parser.
pub fn json_is_valid(s: &str) -> bool {
    let mut stack: Vec<u8> = Vec::new();
    let b = s.as_bytes();
    let mut i = 0usize;
    let mut saw_value = false;
    while i < b.len() {
        match b[i] {
            b'{' => stack.push(b'}'),
            b'[' => stack.push(b']'),
            b'}' | b']' => {
                if stack.pop() != Some(b[i]) {
                    return false;
                }
                saw_value = true;
            }
            b'"' => {
                // Consume the string, honouring escapes.
                i += 1;
                loop {
                    if i >= b.len() {
                        return false;
                    }
                    match b[i] {
                        b'\\' => {
                            i += 1;
                            match b.get(i) {
                                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {}
                                Some(b'u') => {
                                    if i + 4 >= b.len()
                                        || !b[i + 1..i + 5]
                                            .iter()
                                            .all(|c| c.is_ascii_hexdigit())
                                    {
                                        return false;
                                    }
                                    i += 4;
                                }
                                _ => return false,
                            }
                        }
                        b'"' => break,
                        c if c < 0x20 => return false,
                        _ => {}
                    }
                    i += 1;
                }
                saw_value = true;
            }
            b' ' | b'\t' | b'\n' | b'\r' | b':' | b',' => {}
            b't' => {
                if !s[i..].starts_with("true") {
                    return false;
                }
                i += 3;
                saw_value = true;
            }
            b'f' => {
                if !s[i..].starts_with("false") {
                    return false;
                }
                i += 4;
                saw_value = true;
            }
            b'n' => {
                if !s[i..].starts_with("null") {
                    return false;
                }
                i += 3;
                saw_value = true;
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                i += 1;
                while i < b.len()
                    && matches!(b[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    i += 1;
                }
                if s[start..i].parse::<f64>().is_err() {
                    return false;
                }
                saw_value = true;
                continue;
            }
            _ => return false,
        }
        i += 1;
    }
    stack.is_empty() && saw_value
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TraceKind;

    fn sample() -> Registry {
        let mut r = Registry::new();
        let c = r.counter_with("sfi_transitions_total", &[("kind", "wrpkru")]);
        let g = r.gauge("sfi_pool_slots_in_use");
        let h = r.histogram("sfi_transition_cycles");
        r.add(c, 42);
        r.set(g, 7);
        for v in [60u64, 67, 113, 113, 813] {
            r.observe(h, v);
        }
        r
    }

    #[test]
    fn prometheus_text_format() {
        let text = prometheus_text(&sample());
        assert!(text.contains("# TYPE sfi_transitions_total counter\n"));
        assert!(text.contains("sfi_transitions_total{kind=\"wrpkru\"} 42\n"));
        assert!(text.contains("# TYPE sfi_pool_slots_in_use gauge\nsfi_pool_slots_in_use 7\n"));
        assert!(text.contains("# TYPE sfi_transition_cycles histogram\n"));
        assert!(text.contains("sfi_transition_cycles{quantile=\"0.5\"}"));
        assert!(text.contains("sfi_transition_cycles_count 5\n"));
        assert!(text.contains("sfi_transition_cycles_sum 1166\n"));
        // Cumulative bucket series: monotone, capped by +Inf = count.
        assert!(text.contains("sfi_transition_cycles_bucket{le=\"+Inf\"} 5\n"), "{text}");
        assert!(text.contains("sfi_transition_cycles_bucket{le=\"127\"} 4\n"), "{text}");
    }

    #[test]
    fn quantile_label_composes_with_existing_labels() {
        let mut r = Registry::new();
        let h = r.try_histogram("sfi_h", &[("core", "0")]).unwrap();
        r.observe(h, 5);
        let text = prometheus_text(&r);
        assert!(text.contains("sfi_h{quantile=\"0.5\",core=\"0\"} 5\n"), "{text}");
        assert!(text.contains("sfi_h_count{core=\"0\"} 1\n"), "{text}");
        assert!(text.contains("sfi_h_bucket{le=\"7\",core=\"0\"} 1\n"), "{text}");
        assert!(text.contains("sfi_h_bucket{le=\"+Inf\",core=\"0\"} 1\n"), "{text}");
    }

    #[test]
    fn prometheus_text_golden_layout_is_deliberate() {
        // The full exposition layout, byte for byte. The serve/fleet
        // `--check` gates byte-compare `/metrics` bodies; if this test
        // needs updating, those artifacts change too — update both in the
        // same commit or not at all.
        let mut r = Registry::new();
        let c = r.counter("sfi_g_total");
        let h = r.histogram("sfi_h");
        r.add(c, 3);
        for v in [0u64, 1, 5] {
            r.observe(h, v);
        }
        assert_eq!(
            prometheus_text(&r),
            "# TYPE sfi_g_total counter\n\
             sfi_g_total 3\n\
             # TYPE sfi_h histogram\n\
             sfi_h_bucket{le=\"0\"} 1\n\
             sfi_h_bucket{le=\"1\"} 2\n\
             sfi_h_bucket{le=\"3\"} 2\n\
             sfi_h_bucket{le=\"7\"} 3\n\
             sfi_h_bucket{le=\"+Inf\"} 3\n\
             sfi_h{quantile=\"0.5\"} 1\n\
             sfi_h{quantile=\"0.95\"} 5\n\
             sfi_h{quantile=\"0.99\"} 5\n\
             sfi_h_sum 6\n\
             sfi_h_count 3\n"
        );
        // An empty histogram still exports a well-formed +Inf bucket.
        let mut e = Registry::new();
        e.histogram("sfi_empty");
        let text = prometheus_text(&e);
        assert!(text.contains("sfi_empty_bucket{le=\"+Inf\"} 0\n"), "{text}");
        assert!(!text.contains("le=\"0\""), "no per-bucket lines for an empty histogram");
    }

    #[test]
    fn json_snapshot_is_valid_and_deterministic() {
        let a = json_snapshot(&sample());
        let b = json_snapshot(&sample());
        assert_eq!(a, b);
        assert!(json_is_valid(&a), "{a}");
        assert!(a.contains("\"sfi_transitions_total{kind=\\\"wrpkru\\\"}\": 42"));
        assert!(a.contains("\"count\": 5"));
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let events = vec![
            TraceEvent { tick: 100, core: 0, sandbox: 1, kind: TraceKind::Enter, arg: 2 },
            TraceEvent { tick: 250, core: 1, sandbox: u64::MAX, kind: TraceKind::Steal, arg: 0 },
        ];
        let t = chrome_trace(&events, 1.0);
        assert!(json_is_valid(&t), "{t}");
        assert!(t.contains("\"name\": \"enter\""));
        assert!(t.contains("\"tid\": 1"));
        assert!(t.contains("\"sandbox\": -1"), "absent sandbox renders as -1");
    }

    #[test]
    fn streamed_lines_rewrap_to_the_batch_document() {
        let events: Vec<TraceEvent> = (0..7)
            .map(|i| TraceEvent {
                tick: i * 10,
                core: (i % 2) as u32,
                sandbox: i,
                kind: TraceKind::Enter,
                arg: i,
            })
            .collect();
        let batch = chrome_trace(&events, 1.0);
        // Stream in uneven chunks, concatenate, wrap: must be byte-identical.
        let mut lines = Vec::new();
        for chunk in [&events[..2], &events[2..3], &events[3..]] {
            lines.extend(chrome_trace_lines(chunk, 1.0));
        }
        assert_eq!(chrome_trace_wrap(&lines), batch);
        assert!(json_is_valid(&chrome_trace_wrap(&lines)));
        // The empty stream wraps to the empty document.
        assert_eq!(chrome_trace_wrap(&[]), chrome_trace(&[], 1.0));
        assert!(json_is_valid(&chrome_trace_wrap(&[])));
    }

    #[test]
    fn flow_events_render_as_chrome_flow_phases() {
        use crate::span::{pack_span, SpanLevel};
        let mk = |arg: u64, tick: u64| TraceEvent {
            tick,
            core: 3,
            sandbox: 0xBEEF,
            kind: TraceKind::Flow,
            arg,
        };
        let start = chrome_trace_line(&mk(pack_span(SpanLevel::QueueWait, true, false, 7), 10), 1.0);
        assert!(start.contains("\"name\": \"span:queue_wait\""), "{start}");
        assert!(start.contains("\"ph\": \"s\""), "{start}");
        assert!(start.contains("\"id\": 48879"), "trace id from the sandbox field: {start}");
        assert!(start.contains("\"detail\": 7"), "{start}");
        let end = chrome_trace_line(&mk(pack_span(SpanLevel::QueueWait, false, true, 7), 20), 1.0);
        assert!(end.contains("\"ph\": \"f\""), "{end}");
        let instant =
            chrome_trace_line(&mk(pack_span(SpanLevel::Admission, true, true, 1), 20), 1.0);
        assert!(instant.contains("\"ph\": \"t\""), "{instant}");
        // All of them wrap into a valid document alongside plain instants.
        let lines = vec![start, end, instant];
        assert!(json_is_valid(&chrome_trace_wrap(&lines)));
        // A Flow event with an undecodable arg degrades to an instant line.
        let broken = chrome_trace_line(&mk(0xFF << 56, 30), 1.0);
        assert!(broken.contains("\"ph\": \"i\""), "{broken}");
        assert!(broken.contains("\"name\": \"flow\""), "{broken}");
    }

    #[test]
    fn gap_marker_wraps_into_a_valid_document() {
        let events = vec![
            TraceEvent { tick: 500, core: 0, sandbox: 9, kind: TraceKind::Exit, arg: 1 },
        ];
        let mut lines = vec![chrome_trace_gap_line(42, 500, 1.0)];
        lines.extend(chrome_trace_lines(&events, 1.0));
        let doc = chrome_trace_wrap(&lines);
        assert!(json_is_valid(&doc), "{doc}");
        assert!(doc.contains("\"name\": \"trace_gap\""));
        assert!(doc.contains("\"dropped\": 42"));
        assert!(doc.contains("\"s\": \"g\""), "gap marker is global-scope");
        // A gap-only stream is also valid (everything readable was lost).
        assert!(json_is_valid(&chrome_trace_wrap(&[chrome_trace_gap_line(7, 0, 1.0)])));
    }

    #[test]
    fn drains_rewrap_to_the_batch_and_mark_their_gaps() {
        let ev = |tick| TraceEvent { tick, core: 0, sandbox: 1, kind: TraceKind::Enter, arg: 0 };
        // The event lines of successive drains re-wrap to the batch export.
        let mut rec = FlightRecorder::new(16);
        let (mut cursor, mut lines) = (0u64, Vec::new());
        for tick in 0..6 {
            rec.record(ev(tick * 10));
            let body = chrome_trace_drain(&rec, cursor, 1.0);
            let mut it = body.lines();
            let head = format!("{{\"next\": {}, \"dropped\": 0, \"lines\": 1}}", tick + 1);
            assert_eq!(it.next(), Some(head.as_str()));
            lines.extend(it.map(str::to_owned));
            cursor = tick + 1;
        }
        assert_eq!(chrome_trace_wrap(&lines), chrome_trace(&rec.events(), 1.0));
        let drained = chrome_trace_drain(&rec, cursor, 1.0);
        assert_eq!(drained, "{\"next\": 6, \"dropped\": 0, \"lines\": 0}\n");
        // A ring that wrapped leads with a gap marker at the next retained tick.
        let mut small = FlightRecorder::new(3);
        (0..5).for_each(|tick| small.record(ev(tick * 1000)));
        let body = chrome_trace_drain(&small, 0, 1.0);
        let mut it = body.lines();
        assert_eq!(it.next(), Some("{\"next\": 5, \"dropped\": 2, \"lines\": 4}"));
        assert_eq!(it.next(), Some(chrome_trace_gap_line(2, 2000, 1.0).as_str()));
        assert!(json_is_valid(&chrome_trace_wrap(&it.map(str::to_owned).collect::<Vec<_>>())));
    }

    #[test]
    fn json_validator_rejects_malformed() {
        for bad in [
            "{", "}", "{]", "[}", "{\"a\": }x", "{\"a\"", "\"unterminated", "{\"a\": 1e}",
            "nope", "{\"bad\\q\": 1}", "",
        ] {
            assert!(!json_is_valid(bad), "{bad:?} accepted");
        }
        for good in ["{}", "[]", "{\"a\": [1, 2.5, -3e4, true, false, null, \"s\\n\"]}"] {
            assert!(json_is_valid(good), "{good:?} rejected");
        }
    }

    #[test]
    fn empty_registry_exports_cleanly() {
        let r = Registry::new();
        assert_eq!(prometheus_text(&r), "");
        let j = json_snapshot(&r);
        assert!(json_is_valid(&j));
        assert_eq!(j, "{\"counters\": {}, \"gauges\": {}, \"histograms\": {}}");
    }
}
