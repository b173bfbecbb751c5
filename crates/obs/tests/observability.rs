//! Integration tests for the observability layer: the chrome-trace
//! exporter (file round-trip through the crate's own JSON parser),
//! exact-sum/exact-merge property tests for the sharded registry and
//! its latency histograms, the flight recorder (ring wraparound and
//! anomaly detection), and the `/metrics` endpoint.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ebtrain_obs::flight::{
    clear_flight, flight_records, set_flight_capacity, ANOMALY_LOSS_SPIKE, ANOMALY_RATIO_COLLAPSE,
    ANOMALY_STEP_TIME, DEFAULT_CAPACITY,
};
use ebtrain_obs::{
    clear_trace, counter_add, flight_step, gauge_remove, gauge_set, hist_record, json, serve,
    set_metrics_enabled, set_trace_enabled, snapshot, span, write_trace, FlightRecord, Histogram,
};
use proptest::prelude::*;

/// Tests that flip the global trace switch or open spans (spans emit
/// trace events while it is on) serialize through this lock so the
/// exporter never observes another test's half-open span.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// The flight ring and its detectors are process-global; tests that
/// resize or clear them serialize through this lock.
static FLIGHT_LOCK: Mutex<()> = Mutex::new(());

fn leaked_name(prefix: &str) -> &'static str {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    Box::leak(format!("{prefix}#{id}").into_boxed_str())
}

#[test]
fn exporter_emits_valid_chrome_trace() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    set_metrics_enabled(true);
    set_trace_enabled(true);
    clear_trace();

    // A tiny multi-threaded workload with nested spans.
    {
        let _outer = ebtrain_obs::span!("test.outer", bytes = 128);
        let handles: Vec<_> = (0..3)
            .map(|i| {
                std::thread::Builder::new()
                    .name(format!("obs-test-{i}"))
                    .spawn(|| {
                        for _ in 0..5 {
                            let _inner = span("test.worker");
                        }
                    })
                    .unwrap()
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
    set_trace_enabled(false);

    let mut out = Vec::new();
    write_trace(&mut out).unwrap();
    clear_trace();
    let text = String::from_utf8(out).unwrap();
    let doc = json::parse(&text).expect("trace must be valid JSON");
    let events = doc.as_array().expect("trace must be a JSON array");
    assert!(!events.is_empty());

    // Validate every event, B/E pairing per (tid, name-stack), and
    // per-thread timestamp monotonicity.
    let mut stacks: HashMap<u64, Vec<&str>> = HashMap::new();
    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    let mut durations = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(|v| v.as_str()).expect("ph");
        let tid = ev.get("tid").and_then(|v| v.as_f64()).expect("tid");
        assert!(tid >= 1.0 && tid.fract() == 0.0, "invalid tid {tid}");
        let tid = tid as u64;
        let name = ev.get("name").and_then(|v| v.as_str()).expect("name");
        match ph {
            "M" => continue,
            "B" | "E" => {}
            other => panic!("unexpected phase {other:?}"),
        }
        let ts = ev.get("ts").and_then(|v| v.as_f64()).expect("ts");
        let prev = last_ts.entry(tid).or_insert(ts);
        assert!(ts >= *prev, "timestamps regress on tid {tid}");
        *prev = ts;
        if ph == "B" {
            stacks.entry(tid).or_default().push(name);
        } else {
            let open = stacks.get_mut(&tid).and_then(|s| s.pop());
            assert_eq!(open, Some(name), "E without matching B on tid {tid}");
            durations += 1;
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans {stack:?} on tid {tid}");
    }
    // 1 outer + 3 threads * 5 inner spans completed.
    assert!(
        durations >= 16,
        "expected >=16 closed spans, saw {durations}"
    );
    let names: Vec<_> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|v| v.as_str()))
        .collect();
    assert!(names.contains(&"test.outer"));
    assert!(names.contains(&"test.worker"));
    // The outer span's byte attribution rides on its E event.
    let outer_close = events
        .iter()
        .find(|e| {
            e.get("name").and_then(|v| v.as_str()) == Some("test.outer")
                && e.get("ph").and_then(|v| v.as_str()) == Some("E")
        })
        .expect("closing event for test.outer");
    assert_eq!(
        outer_close
            .get("args")
            .and_then(|a| a.get("bytes"))
            .and_then(|b| b.as_f64()),
        Some(128.0)
    );
}

fn flight_rec(source: &'static str, step: u64, loss: f64) -> FlightRecord {
    FlightRecord {
        source,
        step,
        loss,
        step_nanos: 1_000,
        comm_bytes: 0,
        compression_ratio: 1.0,
        queue_depth_peak: 0,
        anomalies: 0,
    }
}

#[test]
fn flight_ring_wraps_at_capacity() {
    let _guard = FLIGHT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    set_metrics_enabled(true);
    clear_flight();
    set_flight_capacity(8);
    let source = leaked_name("obs.test.flight.wrap");
    for step in 0..20u64 {
        // A bogus incoming flag must be overwritten by the detector.
        let mut rec = flight_rec(source, step, 1.0);
        rec.anomalies = 0xff;
        flight_step(rec);
    }
    let recs = flight_records();
    assert_eq!(recs.len(), 8, "ring must hold exactly its capacity");
    let steps: Vec<u64> = recs.iter().map(|r| r.step).collect();
    assert_eq!(steps, (12..20).collect::<Vec<_>>(), "oldest records evict");
    assert!(recs.iter().all(|r| r.source == source && r.anomalies == 0));
    set_flight_capacity(DEFAULT_CAPACITY);
    clear_flight();
}

#[test]
fn injected_loss_spike_trips_anomaly_detector() {
    let _guard = FLIGHT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    set_metrics_enabled(true);
    clear_flight();
    set_flight_capacity(DEFAULT_CAPACITY);
    let source = leaked_name("obs.test.flight.spike");
    let before = snapshot();
    // Steady warm-up: small loss wobble, constant step time and ratio.
    for step in 0..8u64 {
        let wobble = 1.0 + (step % 2) as f64 * 0.01;
        assert_eq!(flight_step(flight_rec(source, step, wobble)), 0);
    }
    // A 10x loss spike against the EWMA baseline.
    let flags = flight_step(flight_rec(source, 8, 10.0));
    assert_ne!(flags & ANOMALY_LOSS_SPIKE, 0, "loss spike must trip");
    assert_eq!(flags & (ANOMALY_STEP_TIME | ANOMALY_RATIO_COLLAPSE), 0);
    let d = snapshot().delta_since(&before);
    assert_eq!(d.counter("obs.anomaly.loss_spike"), 1);
    let marked = flight_records()
        .into_iter()
        .find(|r| r.source == source && r.step == 8)
        .expect("spike record in the ring");
    assert_eq!(marked.anomaly_names(), vec!["loss_spike"]);

    // A step-time regression on the same stream (loss back to normal-ish;
    // the detector folded the spike in, so 1.0 is within bounds).
    let mut slow = flight_rec(source, 9, 1.0);
    slow.step_nanos = 100_000;
    let flags = flight_step(slow);
    assert_ne!(flags & ANOMALY_STEP_TIME, 0, "3x step time must trip");
    assert_eq!(
        snapshot()
            .delta_since(&before)
            .counter("obs.anomaly.step_time"),
        1
    );
    clear_flight();
}

#[test]
fn spans_feed_latency_histograms() {
    set_metrics_enabled(true);
    let name = leaked_name("obs.test.hist.span");
    let before = snapshot();
    for _ in 0..10 {
        let _g = span(name);
    }
    let d = snapshot().delta_since(&before);
    let h = d.histogram(name).expect("span key gains a histogram");
    assert_eq!(h.count(), d.span_stats(name).count);
    assert_eq!(h.count(), 10);
    let q = d.quantiles(name).expect("quantiles for recorded span");
    assert!(q.p50 <= q.p90 && q.p90 <= q.p99 && q.p99 <= q.max);
}

#[test]
fn metrics_endpoint_exposes_counters_and_histograms() {
    set_metrics_enabled(true);
    let server = serve::serve("127.0.0.1:0").expect("bind ephemeral port");
    let counter = leaked_name("obs.test.endpoint.counter");
    let lat = leaked_name("obs.test.endpoint.lat");
    counter_add(counter, 7);
    for v in [100u64, 200, 400, 800, 1600] {
        hist_record(lat, v);
    }
    // A real decode, so its per-chunk stage spans reach the scrape.
    let chunks = {
        use ebtrain_sz::{compress, decompress, DataLayout, SzConfig};
        let _guard = TRACE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let data: Vec<f32> = (0..16 * 32 * 32).map(|i| (i as f32 * 0.01).sin()).collect();
        let mut cfg = SzConfig::with_error_bound(1e-3);
        cfg.chunk_planes = Some(4);
        let buf = compress(&data, DataLayout::D3(16, 32, 32), &cfg).unwrap();
        decompress(&buf).unwrap();
        buf.num_chunks() as f64
    };
    let snap = snapshot();

    let body = serve::fetch(server.addr(), "/metrics").expect("fetch /metrics");
    let series = serve::parse_exposition(&body).expect("exposition must parse");
    let get = |n: &str| series.iter().find(|(s, _)| s == n).map(|&(_, v)| v);
    // Same sanitization rule the exporter documents: ebtrain_ prefix,
    // non-[a-zA-Z0-9_:] characters become '_'.
    let sanitized = |key: &str| {
        let mut out = String::from("ebtrain_");
        out.extend(key.chars().map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        }));
        out
    };

    // Counter series cross-checked against the registry snapshot.
    let cname = format!("{}_total", sanitized(counter));
    assert_eq!(get(&cname), Some(snap.counter(counter) as f64));
    assert_eq!(get(&cname), Some(7.0));

    // Histogram series: +Inf bucket == _count == recorded count, and
    // _sum matches the snapshot's total.
    let h = snap.histogram(lat).expect("snapshot histogram");
    let hname = format!("{}_nanos", sanitized(lat));
    assert_eq!(get(&format!("{hname}_count")), Some(h.count() as f64));
    assert_eq!(get(&format!("{hname}_count")), Some(5.0));
    assert_eq!(get(&format!("{hname}_sum")), Some(3100.0));
    assert_eq!(
        get(&format!("{hname}_bucket{{le=\"+Inf\"}}")),
        Some(h.count() as f64)
    );

    // Decode time splits into its two per-chunk stages, one span each
    // per decoded chunk (no other test in this binary runs the codec).
    for span_key in ["sz.entropy_decode", "sz.reconstruct"] {
        let count = get(&format!("{}_nanos_count", sanitized(span_key)));
        assert_eq!(
            count,
            Some(snap.span_stats(span_key).count as f64),
            "{span_key}"
        );
        assert_eq!(count, Some(chunks), "{span_key}");
    }

    // The flight-recorder report route serves crate-parseable JSON with
    // the same counter value.
    let report = serve::fetch(server.addr(), "/report.json").expect("fetch /report.json");
    let doc = json::parse(&report).expect("report must be valid JSON");
    for key in ["reason", "steps", "counters", "gauges", "spans"] {
        assert!(doc.get(key).is_some(), "report missing {key:?}");
    }
    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get(counter))
            .and_then(|v| v.as_f64()),
        Some(7.0)
    );
    // A value histogram is a record like any span: count, sum, exact
    // extrema and its raw buckets in one entry.
    let rec = doc
        .get("spans")
        .and_then(|s| s.get(lat))
        .expect("lat record");
    let num = |k: &str| rec.get(k).and_then(|v| v.as_f64());
    assert_eq!(num("count"), Some(5.0));
    assert_eq!(num("total_nanos"), Some(3100.0));
    assert_eq!(
        (num("min_nanos"), num("max_nanos")),
        (Some(100.0), Some(1600.0))
    );
    let buckets = rec
        .get("buckets")
        .and_then(|b| b.as_array())
        .expect("buckets");
    let bucket_sum: f64 = buckets
        .iter()
        .filter_map(|b| b.as_array()?.get(1)?.as_f64())
        .sum();
    assert_eq!(bucket_sum, 5.0);

    assert!(serve::fetch(server.addr(), "/nope").is_err(), "404 route");
    server.shutdown();
}

/// Pins the `/metrics` exposition of a fixed script over its
/// `delta_since`: every TYPE line, every series name, and every value
/// that does not depend on timing. Span durations pick their buckets
/// and `_sum`, so those series are only checked for shape.
#[test]
fn exposition_of_a_fixed_script_is_pinned() {
    set_metrics_enabled(true);
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    // Activity before the window must not reach the delta.
    counter_add("obs.pin.before", 3);
    drop(span("obs.pin.span_before"));
    let before = snapshot();
    counter_add("obs.pin.counter", 5);
    counter_add("obs.pin.counter", 2);
    counter_add("obs.pin.zero", 0);
    gauge_set("obs.pin.gauge#7", 42);
    for v in [0u64, 1, 5, 31, 32, 33, 100, 100, 1000, 1_000_000] {
        hist_record("obs.pin.values", v);
    }
    for _ in 0..3 {
        let _g = span!("obs.pin.span_bytes", bytes = 256);
    }
    for _ in 0..2 {
        let _g = span("obs.pin.span_plain");
    }
    let d = snapshot().delta_since(&before);
    gauge_remove("obs.pin.gauge#7");

    let text = serve::render_prometheus(&d);
    let prefix = "ebtrain_obs_pin_";
    let mut types: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with(&format!("# TYPE {prefix}")))
        .collect();
    types.sort_unstable();
    assert_eq!(
        types,
        [
            "# TYPE ebtrain_obs_pin_counter_total counter",
            "# TYPE ebtrain_obs_pin_gauge gauge",
            "# TYPE ebtrain_obs_pin_span_bytes_bytes_total counter",
            "# TYPE ebtrain_obs_pin_span_bytes_nanos histogram",
            "# TYPE ebtrain_obs_pin_span_plain_nanos histogram",
            "# TYPE ebtrain_obs_pin_values_nanos histogram",
        ]
    );

    let series = serve::parse_exposition(&text).expect("exposition must parse");
    let mut exact: Vec<(String, f64)> = Vec::new();
    let mut span_sums = Vec::new();
    let mut span_buckets: HashMap<String, Vec<(u64, f64)>> = HashMap::new();
    for (name, v) in series.into_iter().filter(|(n, _)| n.starts_with(prefix)) {
        let timed = name.starts_with("ebtrain_obs_pin_span_");
        let finite_bucket = name.split_once("_bucket{le=\"").and_then(|(base, le)| {
            let le = le.trim_end_matches("\"}").parse::<u64>().ok()?;
            Some((base.to_string(), le))
        });
        match (timed, finite_bucket) {
            (true, Some((base, le))) => span_buckets.entry(base).or_default().push((le, v)),
            (true, None) if name.ends_with("_nanos_sum") => span_sums.push(name),
            _ => exact.push((name, v)),
        }
    }
    exact.sort_by(|a, b| a.0.cmp(&b.0));
    let expected: Vec<(String, f64)> = [
        ("ebtrain_obs_pin_counter_total", 7.0),
        ("ebtrain_obs_pin_gauge{instance=\"7\"}", 42.0),
        ("ebtrain_obs_pin_span_bytes_bytes_total", 768.0),
        ("ebtrain_obs_pin_span_bytes_nanos_bucket{le=\"+Inf\"}", 3.0),
        ("ebtrain_obs_pin_span_bytes_nanos_count", 3.0),
        ("ebtrain_obs_pin_span_plain_nanos_bucket{le=\"+Inf\"}", 2.0),
        ("ebtrain_obs_pin_span_plain_nanos_count", 2.0),
        ("ebtrain_obs_pin_values_nanos_bucket{le=\"+Inf\"}", 10.0),
        ("ebtrain_obs_pin_values_nanos_bucket{le=\"0\"}", 1.0),
        ("ebtrain_obs_pin_values_nanos_bucket{le=\"1\"}", 2.0),
        ("ebtrain_obs_pin_values_nanos_bucket{le=\"1007\"}", 9.0),
        ("ebtrain_obs_pin_values_nanos_bucket{le=\"101\"}", 8.0),
        ("ebtrain_obs_pin_values_nanos_bucket{le=\"1015807\"}", 10.0),
        ("ebtrain_obs_pin_values_nanos_bucket{le=\"31\"}", 4.0),
        ("ebtrain_obs_pin_values_nanos_bucket{le=\"32\"}", 5.0),
        ("ebtrain_obs_pin_values_nanos_bucket{le=\"33\"}", 6.0),
        ("ebtrain_obs_pin_values_nanos_bucket{le=\"5\"}", 3.0),
        ("ebtrain_obs_pin_values_nanos_count", 10.0),
        ("ebtrain_obs_pin_values_nanos_sum", 1_001_302.0),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect();
    assert_eq!(exact, expected);

    span_sums.sort_unstable();
    assert_eq!(
        span_sums,
        [
            "ebtrain_obs_pin_span_bytes_nanos_sum",
            "ebtrain_obs_pin_span_plain_nanos_sum",
        ]
    );
    // Finite span buckets are cumulative in ascending `le` and end at
    // the span count.
    let mut bases: Vec<_> = span_buckets.keys().cloned().collect();
    bases.sort_unstable();
    assert_eq!(
        bases,
        [
            "ebtrain_obs_pin_span_bytes_nanos",
            "ebtrain_obs_pin_span_plain_nanos",
        ]
    );
    for (base, count) in [
        ("ebtrain_obs_pin_span_bytes_nanos", 3.0),
        ("ebtrain_obs_pin_span_plain_nanos", 2.0),
    ] {
        let buckets = &span_buckets[base];
        assert!(
            buckets
                .windows(2)
                .all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1),
            "{base}: {buckets:?}"
        );
        assert_eq!(buckets.last().map(|b| b.1), Some(count), "{base}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Merging two histograms is exactly equivalent to recording every
    /// value into one — the property the retired-shard accumulator
    /// relies on for exactly-once snapshots.
    #[test]
    fn histogram_merge_equals_single_pass(
        a in prop::collection::vec(0u64..(1u64 << 40), 0..100),
        b in prop::collection::vec(0u64..(1u64 << 40), 0..100),
    ) {
        let mut ha = Histogram::default();
        for &v in &a {
            ha.record(v);
        }
        let mut hb = Histogram::default();
        for &v in &b {
            hb.record(v);
        }
        let mut merged = ha.clone();
        merged.merge(&hb);
        let mut single = Histogram::default();
        for &v in a.iter().chain(&b) {
            single.record(v);
        }
        prop_assert_eq!(merged, single);
    }

    /// Quantile estimates stay within the documented relative-error
    /// bound of the exact nearest-rank value (bucket width <= lower/32,
    /// plus integer rounding).
    #[test]
    fn histogram_quantile_bounded_relative_error(
        mut values in prop::collection::vec(1u64..100_000_000, 1..200),
        q in 0.0f64..1.0,
    ) {
        let mut h = Histogram::default();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact = values[rank - 1];
        let approx = h.quantile(q);
        let err = approx.abs_diff(exact);
        prop_assert!(
            err <= exact / 32 + 1,
            "q={} exact={} approx={}", q, exact, approx
        );
    }

    /// Increments racing across threads — including threads that exit
    /// before the snapshot — merge to the exact sum.
    #[test]
    fn concurrent_shard_increments_merge_exactly(
        per_thread in prop::collection::vec(prop::collection::vec(1u64..1000, 1..20), 1..8),
    ) {
        set_metrics_enabled(true);
        let name = leaked_name("obs.prop.sum");
        let before = snapshot();
        let expected: u64 = per_thread.iter().flatten().sum();
        let handles: Vec<_> = per_thread
            .into_iter()
            .map(|vals| {
                std::thread::spawn(move || {
                    for v in vals {
                        counter_add(name, v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let d = snapshot().delta_since(&before);
        prop_assert_eq!(d.counter(name), expected);
    }
}
