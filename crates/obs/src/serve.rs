//! A dependency-free metrics endpoint over `std::net` — the first
//! brick of the `ebtrain-serve` front door.
//!
//! [`serve`] binds a TCP listener and answers two routes from a
//! background thread:
//!
//! * `GET /metrics` — the registry snapshot in Prometheus text
//!   exposition format 0.0.4: counters (`_total`), gauges (instance
//!   keys like `membudget.resident.hot#3` become an `instance` label),
//!   and histograms as cumulative `_bucket{le="…"}` series with `_sum`
//!   and `_count`.
//! * `GET /report.json` — the flight-recorder dump
//!   ([`crate::flight::write_flight`]): ring, counters, gauges, and
//!   per-name statistics with quantiles and raw buckets.
//!
//! The protocol is deliberately minimal — HTTP/1.0, one request per
//! connection, `Connection: close` — which is all `curl`, Prometheus
//! scrapers, and the tests need. [`crate::init_from_env`] starts a
//! process-lifetime server when `EBTRAIN_METRICS_ADDR` is set
//! (conventionally `127.0.0.1:9184`).

use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use crate::netutil::{self, http_response, TcpServer};
use crate::Snapshot;

/// Sanitize a registry key into a Prometheus metric name:
/// `[a-zA-Z0-9_:]` pass through, everything else becomes `_`, and the
/// whole name gains the `ebtrain_` namespace prefix.
fn metric_name(key: &str) -> String {
    let mut out = String::with_capacity(key.len() + 8);
    out.push_str("ebtrain_");
    for c in key.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Split an instance-keyed gauge name (`base#id`) into base + label.
fn gauge_parts(key: &str) -> (String, String) {
    match key.split_once('#') {
        Some((base, id)) => (metric_name(base), format!("{{instance=\"{id}\"}}")),
        None => (metric_name(key), String::new()),
    }
}

/// Render a snapshot as Prometheus text exposition (format 0.0.4).
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (key, v) in snap.counters() {
        let name = metric_name(key);
        out.push_str(&format!("# TYPE {name}_total counter\n"));
        out.push_str(&format!("{name}_total {v}\n"));
    }
    // Instance-keyed gauges share a base name; emit one TYPE line per
    // base (keys are sorted, so instances of a base are adjacent).
    let mut last_base = String::new();
    for (key, v) in snap.gauges() {
        let (base, labels) = gauge_parts(key);
        if base != last_base {
            out.push_str(&format!("# TYPE {base} gauge\n"));
            last_base = base.clone();
        }
        out.push_str(&format!("{base}{labels} {v}\n"));
    }
    for (key, r) in snap.records() {
        let (base, h) = (metric_name(key), &r.hist);
        let name = format!("{base}_nanos");
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cum = 0u64;
        for (upper, count) in h.buckets() {
            cum += count;
            out.push_str(&format!("{name}_bucket{{le=\"{upper}\"}} {cum}\n"));
        }
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
        out.push_str(&format!("{name}_sum {}\n", h.total()));
        out.push_str(&format!("{name}_count {}\n", h.count()));
        // Byte attribution as a counter, so scrapers can rate() bytes
        // per span key.
        if r.bytes > 0 {
            let name = format!("{base}_bytes_total");
            out.push_str(&format!("# TYPE {name} counter\n"));
            out.push_str(&format!("{name} {}\n", r.bytes));
        }
    }
    out
}

/// Parse Prometheus text exposition into `(series_name, value)` pairs,
/// where `series_name` includes any `{label}` block. Rejects lines
/// that are neither comments nor `name value` samples — the tests and
/// `fig10`'s CI self-probe use this to assert the exposition is
/// well-formed.
pub fn parse_exposition(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if !(rest.starts_with("TYPE ") || rest.starts_with("HELP ")) {
                return Err(format!("line {}: malformed comment {line:?}", i + 1));
            }
            continue;
        }
        // The name may contain a {label} block with spaces inside
        // quotes; the value is the token after the closing brace or
        // the first space.
        let (name, value) = match line.find('}') {
            Some(end) => (&line[..=end], line[end + 1..].trim()),
            None => line
                .split_once(' ')
                .ok_or(format!("line {}: no value in {line:?}", i + 1))?,
        };
        let v: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("line {}: bad value {value:?}", i + 1))?;
        out.push((name.trim().to_string(), v));
    }
    Ok(out)
}

fn handle_conn(stream: TcpStream) -> io::Result<()> {
    let mut reader = BufReader::new(stream);
    // Bounded request-line read (netutil): a hostile peer cannot grow
    // the line buffer without limit.
    let request_line = netutil::read_line_limited(&mut reader, 8 * 1024)?.unwrap_or_default();
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let response = match path {
        "/metrics" => http_response(
            "200 OK",
            "text/plain; version=0.0.4",
            &render_prometheus(&crate::snapshot()),
        ),
        "/report.json" => {
            let mut buf = Vec::new();
            crate::flight::write_flight(&mut buf, "report")?;
            http_response("200 OK", "application/json", &String::from_utf8_lossy(&buf))
        }
        "/" => http_response(
            "200 OK",
            "text/plain",
            "ebtrain-obs: /metrics (Prometheus), /report.json (flight recorder)\n",
        ),
        _ => http_response("404 Not Found", "text/plain", "not found\n"),
    };
    let mut stream = reader.into_inner();
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Handle to a running metrics listener; the accept loop runs on a
/// background thread (a [`netutil::TcpServer`]) until
/// [`shutdown`](Self::shutdown).
pub struct MetricsServer {
    server: TcpServer,
}

impl MetricsServer {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stop the accept loop and join the server thread.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:9184"`, port 0 for ephemeral) and
/// serve `/metrics` + `/report.json` from a background thread.
pub fn serve(addr: &str) -> io::Result<MetricsServer> {
    // One request per connection, handled inline on the accept thread —
    // scrapes are short and serializing them is fine. A broken scrape
    // must not kill the server, hence the swallowed handler result.
    let server = TcpServer::spawn(
        "obs-serve",
        addr,
        false,
        Arc::new(|stream: TcpStream| {
            let _ = handle_conn(stream);
        }),
    )?;
    Ok(MetricsServer { server })
}

/// Start a server on `EBTRAIN_METRICS_ADDR` when set (bind failures
/// are reported on stderr, never fatal — observability must not take
/// the process down).
pub fn serve_from_env() -> Option<MetricsServer> {
    let addr = std::env::var("EBTRAIN_METRICS_ADDR").ok()?;
    if addr.is_empty() {
        return None;
    }
    match serve(&addr) {
        Ok(s) => {
            eprintln!("[obs] metrics endpoint on http://{}/metrics", s.addr());
            Some(s)
        }
        Err(e) => {
            eprintln!("[obs] failed to bind metrics endpoint {addr}: {e}");
            None
        }
    }
}

/// Fetch a path from a running server and return the response body —
/// the client half the tests and `fig10`'s CI self-probe use.
pub fn fetch(addr: SocketAddr, path: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n")?;
    stream.shutdown(std::net::Shutdown::Write)?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header/body split"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("non-200 status line {status:?} for {path}"),
        ));
    }
    Ok(body.to_string())
}
