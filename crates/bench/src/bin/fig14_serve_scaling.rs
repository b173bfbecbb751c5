//! **Figure 14 (new experiment)** — serving-latency scaling of the
//! `ebtrain-serve` multi-tenant compressed-tensor daemon.
//!
//! Spawns the daemon in-process, then sweeps concurrent clients
//! {1, 4, 16} (smoke) / {1, 4, 16, 64} (full). Each client is its own
//! tenant on its own connection, driving a working set sized to **2×
//! its tenant budget** so the arena's tier ladder engages: every round
//! re-stores and re-fetches the whole set, forcing hot→warm demotions
//! and warm/cold decodes on the serving path. Per-RPC wall times are
//! recorded for `store` and `fetch` separately; the table prints their
//! p50/p99 plus the aggregate tensor throughput (raw MiB/s moved through
//! the protocol).
//!
//! The run **asserts** the daemon's contract while under fire:
//!
//! * zero protocol errors across every client (typed rejections would
//!   surface here — the sweep is provisioned to need none);
//! * per-tenant budgets never exceeded, checked two ways: the
//!   `serve.tenant.resident#t<id>` gauge high-water mark and the
//!   arena-measured `peak_resident_bytes` from the `stats` RPC
//!   (the latter includes transients inside a single call);
//! * the global resident mirror stays ≤ Σ tenant budgets;
//! * the process's peak OS-thread count during a sweep (sampled from
//!   `/proc/self/status`) stays ≤ client threads + session threads +
//!   every pool worker alive (`pool.threads`: the daemon's RPC workers
//!   and the one global pool all codec regions run on) + a small
//!   constant — parallel regions beneath an RPC create no threads.
//!
//! With `EBTRAIN_METRICS_ADDR` set, the run self-probes the live
//! `/metrics` endpoint before exiting and hard-fails unless the
//! `serve.store` span histogram appears in the scraped exposition —
//! the CI proof that RPC spans feed the observability stack.
//!
//! Knobs: `--smoke`/`EBTRAIN_SMOKE=1` (CI shape), `EBTRAIN_SERVE_ROUNDS`
//! (load rounds per client, default 3 smoke / 8 full),
//! `EBTRAIN_SERVE_TENANT_KIB` (tenant budget, default 512 KiB).

use ebtrain_bench::table::Table;
use ebtrain_bench::{env_flag, env_usize, fmt_bytes};
use ebtrain_codec::{BoundSpec, Codec, SzCodec};
use ebtrain_serve::{ColdPolicy, DataLayout, ServeClient, ServeConfig, ServeDaemon, TaggedStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Threads outside the client/session/pool accounting: main, the accept
/// loop, the sampler, the metrics endpoint and its connection handlers.
const OTHER_THREADS: usize = 8;

/// OS threads of this process right now (`None` off Linux).
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

/// One client's share of the load: timing samples and byte counts.
#[derive(Default)]
struct ClientRun {
    store_ns: Vec<f64>,
    fetch_ns: Vec<f64>,
    raw_bytes: u64,
    errors: Vec<String>,
}

/// Tensors per tenant working set; sized against the budget so the
/// set is ~2× the tenant budget (tier ladder engaged every round).
fn working_set(budget_bytes: usize, plane_w: usize) -> (usize, DataLayout) {
    let layout = DataLayout::D2(64, plane_w);
    let raw = layout.len() * 4;
    ((budget_bytes * 2).div_ceil(raw).max(2), layout)
}

fn drive_client(
    addr: std::net::SocketAddr,
    tenant: u32,
    tensors: usize,
    layout: DataLayout,
    rounds: usize,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut fail = |what: &str, e: &dyn std::fmt::Display| {
        run.errors.push(format!("tenant {tenant} {what}: {e}"));
    };
    let mut client = match ServeClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            fail("connect", &e);
            return run;
        }
    };
    let raw = (layout.len() * 4) as u64;
    // Pre-compress the working set once: the sweep measures the
    // *daemon's* RPC latency, not client-side SZ throughput. Each
    // tensor gets distinct smooth content so compression is honest.
    let streams: Vec<TaggedStream> = (0..tensors)
        .map(|k| {
            let data: Vec<f32> = (0..layout.len())
                .map(|i| ((i + k * 37) as f32 * 0.013).sin() * (1.0 + k as f32 * 0.1))
                .collect();
            SzCodec::dual_quant()
                .compress(&data, layout, &BoundSpec::Abs(1e-3))
                .expect("client-side compress")
        })
        .collect();
    for round in 0..rounds {
        for (k, stream) in streams.iter().enumerate() {
            let t0 = Instant::now();
            match client.store_stream(tenant, k as u64, layout, 1e-3, stream) {
                Ok(_) => {
                    run.store_ns.push(t0.elapsed().as_nanos() as f64);
                    run.raw_bytes += raw;
                }
                Err(e) => fail("store", &e),
            }
        }
        // Round 0 only populates; later rounds read the set back, so
        // fetches hit whatever tier the budget demoted each entry to.
        if round == 0 {
            continue;
        }
        for k in 0..streams.len() {
            let t0 = Instant::now();
            match client.fetch(tenant, k as u64) {
                Ok((vals, got_layout)) => {
                    run.fetch_ns.push(t0.elapsed().as_nanos() as f64);
                    run.raw_bytes += raw;
                    if got_layout != layout || vals.len() != layout.len() {
                        fail("fetch shape", &"layout/length mismatch");
                    }
                }
                Err(e) => fail("fetch", &e),
            }
        }
        // A couple of partial decodes per round keep the plane-range
        // path (and its span) on the serving profile.
        for k in [0usize, streams.len() / 2] {
            if let Err(e) = client.fetch_planes(tenant, k as u64, 0..8) {
                fail("fetch_planes", &e);
            } else {
                run.raw_bytes += 8
                    * 4
                    * match layout {
                        DataLayout::D2(_, w) => w as u64,
                        _ => 0,
                    };
            }
        }
    }
    run
}

fn pctl(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn main() {
    let metrics_addr = ebtrain_obs::init_from_env();
    let smoke = std::env::args().any(|a| a == "--smoke") || env_flag("EBTRAIN_SMOKE");
    let client_counts: Vec<usize> = if smoke {
        vec![1, 4, 16]
    } else {
        vec![1, 4, 16, 64]
    };
    let rounds = env_usize("EBTRAIN_SERVE_ROUNDS", if smoke { 3 } else { 8 });
    let tenant_budget = env_usize("EBTRAIN_SERVE_TENANT_KIB", 512) << 10;
    let max_clients = *client_counts.last().unwrap();
    let (tensors, layout) = working_set(tenant_budget, 512);

    // One daemon for the whole sweep; each sweep uses a fresh tenant-id
    // range so per-tenant peaks are scoped to their own run. Ceilings
    // are provisioned for the largest sweep — this binary measures
    // serving latency, not admission pressure (the integration suite
    // covers Busy/OverBudget).
    let cfg = ServeConfig {
        tenant_budget_bytes: tenant_budget,
        max_resident_bytes: max_clients * tenant_budget * (client_counts.len() + 1),
        max_raw_bytes: usize::MAX / 4,
        max_inflight: 4 * max_clients.max(64),
        cold: ColdPolicy::HostMigrate,
        ..ServeConfig::default()
    };
    let sum_budgets_cap = cfg.max_resident_bytes;
    let daemon = ServeDaemon::spawn(cfg).expect("spawn daemon");
    let addr = daemon.addr();
    println!(
        "fig14_serve_scaling{}: daemon at {addr}, tenant budget {}, working set {} x {} \
         ({} raw, ~2x budget), {rounds} rounds/client",
        if smoke { " [smoke]" } else { "" },
        fmt_bytes(tenant_budget as u64),
        tensors,
        fmt_bytes((layout.len() * 4) as u64),
        fmt_bytes((tensors * layout.len() * 4) as u64),
    );

    let mut table = Table::new(&[
        "clients",
        "rpcs",
        "errors",
        "store_p50",
        "store_p99",
        "fetch_p50",
        "fetch_p99",
        "agg MiB/s",
    ]);
    for (sweep, &n) in client_counts.iter().enumerate() {
        let tenant_base = (sweep as u32 + 1) * 1000;
        eprintln!("[fig14] {n} concurrent client(s) ...");
        let t0 = Instant::now();
        let done = AtomicBool::new(false);
        let (runs, peak_threads): (Vec<ClientRun>, usize) = std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let mut peak = 0;
                while !done.load(Ordering::Relaxed) {
                    peak = peak.max(process_threads().unwrap_or(0));
                    std::thread::sleep(Duration::from_millis(2));
                }
                peak
            });
            let handles: Vec<_> = (0..n)
                .map(|c| {
                    let tenant = tenant_base + c as u32;
                    s.spawn(move || drive_client(addr, tenant, tensors, layout, rounds))
                })
                .collect();
            let runs = handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect();
            done.store(true, Ordering::Relaxed);
            (runs, sampler.join().expect("sampler thread"))
        });
        let elapsed = t0.elapsed().as_secs_f64();

        // One substrate: n client threads (in-process here), n session
        // threads, the pools' persistent workers — and nothing per region.
        let pool_threads = ebtrain_pool::live_threads();
        assert!(
            peak_threads <= 2 * n + pool_threads + OTHER_THREADS,
            "{peak_threads} threads at {n} clients: more than 2 x {n} client/session threads \
             + {pool_threads} pool workers + {OTHER_THREADS}"
        );

        // Contract asserts, while the tenants of this sweep are fresh.
        let errors: Vec<&String> = runs.iter().flat_map(|r| &r.errors).collect();
        assert!(
            errors.is_empty(),
            "{} protocol errors at {n} clients; first: {}",
            errors.len(),
            errors[0]
        );
        for c in 0..n {
            let tenant = tenant_base + c as u32;
            let stats = daemon
                .tenant_stats(tenant)
                .expect("tenant existed after load");
            assert!(
                stats.peak_resident_bytes <= stats.budget_bytes,
                "tenant {tenant} peak {} exceeded budget {}",
                stats.peak_resident_bytes,
                stats.budget_bytes
            );
            // Same invariant read from the observability side: the
            // gauge's high-water mark over the whole sweep.
            let gauge_peak =
                ebtrain_obs::gauge_peak_take(&format!("serve.tenant.resident#t{tenant}"));
            assert!(
                gauge_peak as u64 <= stats.budget_bytes,
                "tenant {tenant} resident gauge peaked at {gauge_peak} over budget {}",
                stats.budget_bytes
            );
        }
        assert!(
            daemon.resident_total() <= sum_budgets_cap,
            "global resident mirror over the provisioned ceiling"
        );

        let mut store_ns: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.store_ns.iter().copied())
            .collect();
        let mut fetch_ns: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.fetch_ns.iter().copied())
            .collect();
        let raw_bytes: u64 = runs.iter().map(|r| r.raw_bytes).sum();
        let rpcs = store_ns.len() + fetch_ns.len();
        let mibs = raw_bytes as f64 / elapsed / (1 << 20) as f64;
        store_ns.sort_by(|a, b| a.total_cmp(b));
        fetch_ns.sort_by(|a, b| a.total_cmp(b));
        let ms = |ns: f64| format!("{:.2}ms", ns / 1e6);
        table.row(vec![
            format!("{n}"),
            format!("{rpcs}"),
            "0".into(),
            ms(pctl(&store_ns, 0.5)),
            ms(pctl(&store_ns, 0.99)),
            ms(pctl(&fetch_ns, 0.5)),
            ms(pctl(&fetch_ns, 0.99)),
            format!("{mibs:.1}"),
        ]);
        println!(
            "threads at c{n}: peak {peak_threads} = {n} clients + {n} sessions + \
             {pool_threads} pool workers (pool.threads) + {} other",
            peak_threads.saturating_sub(2 * n + pool_threads)
        );
    }
    table.print("Fig 14: serve daemon scaling, concurrent clients vs RPC latency");

    // CI self-probe: the RPC spans must surface as histogram series on
    // the live Prometheus endpoint.
    if let Some(maddr) = metrics_addr {
        let body = ebtrain_obs::serve::fetch(maddr, "/metrics").expect("scrape /metrics");
        let series = ebtrain_obs::serve::parse_exposition(&body).expect("parse exposition");
        for span in [
            "ebtrain_serve_store_nanos_bucket",
            "ebtrain_serve_fetch_nanos_bucket",
        ] {
            assert!(
                series.iter().any(|(name, _)| name.starts_with(span)),
                "no {span} series in /metrics"
            );
        }
        println!("metrics self-probe OK: serve.store / serve.fetch histograms live on {maddr}");
    }
    let ok_clients = client_counts.iter().copied().max().unwrap();
    println!(
        "OK: sustained {ok_clients} concurrent clients with zero protocol errors; \
         every tenant peak <= budget (stats + gauge)."
    );
    daemon.shutdown();
}
