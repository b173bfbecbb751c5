//! Integration suite for the `ebtrain-serve` daemon: protocol
//! hardening against a live listener (adversarial bytes on real
//! sockets, in the spirit of the codec conformance tests) and
//! concurrency contracts (budgets held under parallel fire, typed
//! admission rejections with no residue).
//!
//! Tenant-id ranges are disjoint per test: the obs registry is
//! process-global and `cargo test` runs these in parallel, so each
//! test owns its `serve.tenant.resident#t<id>` gauges outright.

use ebtrain_codec::{
    BoundSpec, Codec, CodecId, CodecRegistry, LosslessCodec, SzCodec, TaggedStream,
};
use ebtrain_serve::{
    frame, ClientError, ColdPolicy, DataLayout, ErrorCode, ServeClient, ServeConfig, ServeDaemon,
    Tier,
};
use ebtrain_sz::SzConfig;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A small daemon with test-friendly ceilings; callers override fields.
fn test_config() -> ServeConfig {
    ServeConfig {
        tenant_budget_bytes: 128 << 10,
        max_resident_bytes: 16 << 20,
        max_raw_bytes: 64 << 20,
        workers: 2,
        ..ServeConfig::default()
    }
}

fn connect_raw(daemon: &ServeDaemon) -> TcpStream {
    let s = TcpStream::connect(daemon.addr()).expect("connect");
    // A hung read is a test bug; fail it instead of stalling the suite.
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// Hand-rolled request bytes — unlike `frame::write_request`, this can
/// emit arbitrary tag/version/magic bytes.
fn raw_request(magic: [u8; 2], version: u8, tag: u8, tenant: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&magic);
    out.push(version);
    out.push(tag);
    out.extend_from_slice(&tenant.to_be_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

fn smooth(n: usize, phase: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i + phase * 31) as f32 * 0.017).sin())
        .collect()
}

#[test]
fn every_truncation_closes_cleanly_and_daemon_survives() {
    let daemon = ServeDaemon::spawn(test_config()).expect("spawn");
    let valid = raw_request(frame::MAGIC, frame::VERSION, 5, 9_000, &42u64.to_be_bytes());
    for cut in 0..valid.len() {
        let mut s = connect_raw(&daemon);
        s.write_all(&valid[..cut]).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        // A truncated frame gets no response — there is no coherent
        // frame to answer — just a close. Never a panic, never a hang.
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).expect("daemon closed cleanly");
        assert!(rest.is_empty(), "cut {cut}: unexpected bytes {rest:?}");
    }
    // The listener took 20 hostile connections and still serves.
    let mut client = ServeClient::connect(daemon.addr()).expect("connect");
    client
        .ping(9_000)
        .expect("daemon survives truncation storm");
    daemon.shutdown();
}

#[test]
fn corrupt_magic_version_and_oversize_get_typed_errors() {
    let daemon = ServeDaemon::spawn(test_config()).expect("spawn");
    let cases: Vec<(Vec<u8>, ErrorCode)> = vec![
        (
            raw_request([0x00, 0x5E], frame::VERSION, 6, 9_100, &[]),
            ErrorCode::Malformed,
        ),
        (
            raw_request(frame::MAGIC, 77, 6, 9_100, &[]),
            ErrorCode::Version,
        ),
        (
            {
                // Header declaring a u32::MAX payload, nothing behind it:
                // rejected on the declared length, before any allocation.
                let mut req = raw_request(frame::MAGIC, frame::VERSION, 6, 9_100, &[]);
                let len_off = frame::REQUEST_HEADER_LEN - 4;
                req[len_off..].copy_from_slice(&u32::MAX.to_be_bytes());
                req
            },
            ErrorCode::TooLarge,
        ),
    ];
    for (bytes, expect) in cases {
        let mut s = connect_raw(&daemon);
        s.write_all(&bytes).unwrap();
        let resp = frame::read_response(&mut s, frame::DEFAULT_MAX_PAYLOAD)
            .expect("typed error response before close");
        assert_eq!(ErrorCode::from_byte(resp.status), Some(expect));
        assert!(!resp.payload.is_empty(), "error carries a message");
        // After a framing desync the daemon closes the connection.
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
    }
    daemon.shutdown();
}

#[test]
fn unknown_tag_and_malformed_bodies_keep_the_session_alive() {
    let daemon = ServeDaemon::spawn(test_config()).expect("spawn");
    let mut s = connect_raw(&daemon);
    // Unassigned tag: typed error, session continues (the frame itself
    // was coherent).
    s.write_all(&raw_request(frame::MAGIC, frame::VERSION, 99, 9_200, &[]))
        .unwrap();
    let resp = frame::read_response(&mut s, frame::DEFAULT_MAX_PAYLOAD).unwrap();
    assert_eq!(
        ErrorCode::from_byte(resp.status),
        Some(ErrorCode::UnknownTag)
    );
    // Store body that doesn't parse: typed error, session continues.
    s.write_all(&raw_request(
        frame::MAGIC,
        frame::VERSION,
        1,
        9_200,
        &[1, 2, 3],
    ))
    .unwrap();
    let resp = frame::read_response(&mut s, frame::DEFAULT_MAX_PAYLOAD).unwrap();
    assert_eq!(
        ErrorCode::from_byte(resp.status),
        Some(ErrorCode::Malformed)
    );
    // Garbage TaggedStream inside a well-formed store body: Codec error.
    let body = frame::store_payload(1, DataLayout::D1(4096), 0.0, &[0xDE, 0xAD, 0xBE, 0xEF]);
    s.write_all(&raw_request(frame::MAGIC, frame::VERSION, 1, 9_200, &body))
        .unwrap();
    let resp = frame::read_response(&mut s, frame::DEFAULT_MAX_PAYLOAD).unwrap();
    assert_eq!(ErrorCode::from_byte(resp.status), Some(ErrorCode::Codec));
    // A fetch body with a trailing mode byte (`key | mode`): Malformed.
    let mut body = 1u64.to_be_bytes().to_vec();
    body.push(2);
    s.write_all(&raw_request(frame::MAGIC, frame::VERSION, 2, 9_200, &body))
        .unwrap();
    let resp = frame::read_response(&mut s, frame::DEFAULT_MAX_PAYLOAD).unwrap();
    assert_eq!(
        ErrorCode::from_byte(resp.status),
        Some(ErrorCode::Malformed)
    );
    // Same socket, valid RPC: still served.
    s.write_all(&raw_request(frame::MAGIC, frame::VERSION, 6, 9_200, &[]))
        .unwrap();
    let resp = frame::read_response(&mut s, frame::DEFAULT_MAX_PAYLOAD).unwrap();
    assert_eq!(resp.status, 0, "session survived four typed errors");
    daemon.shutdown();
}

#[test]
fn lifecycle_store_fetch_planes_stats_evict() {
    let daemon = ServeDaemon::spawn(test_config()).expect("spawn");
    let mut c = ServeClient::connect(daemon.addr()).expect("connect");
    let tenant = 9_300;
    let layout = DataLayout::D2(64, 256);
    let data = smooth(layout.len(), 1);
    c.store_f32(tenant, 5, &data, layout, 1e-3).expect("store");
    let (got, got_layout) = c.fetch(tenant, 5).expect("fetch");
    assert_eq!(got_layout, layout);
    assert!(got
        .iter()
        .zip(&data)
        .all(|(a, b)| (a - b).abs() <= 1e-3 + 1e-6));
    // Plane range: rows 8..16 of the D2.
    let planes = c.fetch_planes(tenant, 5, 8..16).expect("fetch planes");
    assert_eq!(planes.len(), 8 * 256);
    assert_eq!(planes[..256], got[8 * 256..9 * 256]);
    // Out-of-range is a typed BadRange, not a hangup.
    let err = c.fetch_planes(tenant, 5, 0..65).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::BadRange));
    // So is one past the wire's u32, never a wrapped plane 0.
    let err = c
        .fetch_planes(tenant, 5, 1 << 32..(1 << 32) + 1)
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::BadRange));
    let stats = c.stats(tenant).expect("stats");
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.stores, 1);
    assert_eq!(stats.fetches, 2); // fetch + planes
    assert_eq!(stats.raw_bytes, (layout.len() * 4) as u64);
    c.evict(tenant, 5).expect("evict");
    let err = c.fetch(tenant, 5).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::Missing));
    let err = c.evict(tenant, 5).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::Missing));
    let stats = c.stats(tenant).expect("stats after evict");
    assert_eq!(
        (stats.entries, stats.resident_bytes, stats.raw_bytes),
        (0, 0, 0)
    );
    daemon.shutdown();
}

#[test]
fn concurrent_clients_one_tenant_never_break_the_budget() {
    let mut cfg = test_config();
    cfg.tenant_budget_bytes = 96 << 10;
    let budget = cfg.tenant_budget_bytes;
    let daemon = ServeDaemon::spawn(cfg).expect("spawn");
    let addr = daemon.addr();
    let tenant = 9_400u32;
    let gauge_key = format!("serve.tenant.resident#t{tenant}");
    let done = Arc::new(AtomicBool::new(false));
    // Sampler: the budget must hold at *every* observable instant, not
    // just at the end — polled through the tenant's residency gauge.
    let sampler = {
        let done = Arc::clone(&done);
        let gauge_key = gauge_key.clone();
        std::thread::spawn(move || {
            let mut max_seen = 0i64;
            while !done.load(Ordering::SeqCst) {
                max_seen = max_seen.max(ebtrain_obs::gauge_value(&gauge_key));
                std::thread::sleep(Duration::from_micros(200));
            }
            max_seen
        })
    };
    let layout = DataLayout::D1(8 << 10); // 32 KiB raw per tensor
    std::thread::scope(|s| {
        for t in 0..8u64 {
            s.spawn(move || {
                let mut c = ServeClient::connect(addr).expect("connect");
                for i in 0..12u64 {
                    let key = t * 100 + (i % 4); // keys churn: stores replace
                    let data = smooth(layout.len(), (t * 17 + i) as usize);
                    c.store_f32(tenant, key, &data, layout, 1e-3)
                        .expect("store");
                    let (got, _) = c.fetch(tenant, key).expect("fetch own key");
                    assert_eq!(got.len(), layout.len());
                }
            });
        }
    });
    done.store(true, Ordering::SeqCst);
    let max_gauge = sampler.join().expect("sampler");
    assert!(
        max_gauge as usize <= budget,
        "resident gauge hit {max_gauge} over budget {budget} during concurrent load"
    );
    let stats = daemon.tenant_stats(tenant).expect("tenant exists");
    assert!(
        stats.peak_resident_bytes <= stats.budget_bytes,
        "arena peak {} (transients included) over budget {}",
        stats.peak_resident_bytes,
        stats.budget_bytes
    );
    assert_eq!(stats.stores, 8 * 12);
    daemon.shutdown();
}

#[test]
fn parallel_tenants_are_isolated_and_individually_budgeted() {
    let mut cfg = test_config();
    cfg.tenant_budget_bytes = 64 << 10;
    let daemon = ServeDaemon::spawn(cfg).expect("spawn");
    let addr = daemon.addr();
    let base = 9_500u32;
    let layout = DataLayout::D1(8 << 10); // 32 KiB raw; 5 tensors = 2.5x budget
    std::thread::scope(|s| {
        for m in 0..6u32 {
            s.spawn(move || {
                let tenant = base + m;
                let mut c = ServeClient::connect(addr).expect("connect");
                for k in 0..5u64 {
                    let data = smooth(layout.len(), (m as u64 * 7 + k) as usize);
                    c.store_f32(tenant, k, &data, layout, 1e-3).expect("store");
                }
                // Every key remains fetchable (HostMigrate cold tier)
                // and round-trips within the bound.
                for k in 0..5u64 {
                    let expect = smooth(layout.len(), (m as u64 * 7 + k) as usize);
                    let (got, _) = c.fetch(tenant, k).expect("fetch");
                    assert!(
                        got.iter()
                            .zip(&expect)
                            .all(|(a, b)| (a - b).abs() <= 1e-3 + 1e-6),
                        "tenant {tenant} key {k} values drifted"
                    );
                }
            });
        }
    });
    for m in 0..6u32 {
        let tenant = base + m;
        let stats = daemon.tenant_stats(tenant).expect("tenant exists");
        assert_eq!(stats.entries, 5, "tenant {tenant}");
        assert!(stats.peak_resident_bytes <= stats.budget_bytes);
        let peak = ebtrain_obs::gauge_peak_take(&format!("serve.tenant.resident#t{tenant}"));
        assert!(
            peak as u64 <= stats.budget_bytes,
            "tenant {tenant} gauge peak {peak} over budget"
        );
    }
    // Evicting one tenant's world leaves the neighbours untouched.
    let mut c = ServeClient::connect(addr).expect("connect");
    for k in 0..5u64 {
        c.evict(base, k).expect("evict");
    }
    assert_eq!(daemon.tenant_stats(base).unwrap().entries, 0);
    for m in 1..6u32 {
        assert_eq!(daemon.tenant_stats(base + m).unwrap().entries, 5);
    }
    daemon.shutdown();
}

#[test]
fn busy_rejection_is_immediate_and_typed() {
    let mut cfg = test_config();
    cfg.max_inflight = 0; // every request is one past the ceiling
    let daemon = ServeDaemon::spawn(cfg).expect("spawn");
    let mut c = ServeClient::connect(daemon.addr()).expect("connect");
    let t0 = std::time::Instant::now();
    for _ in 0..16 {
        let err = c.ping(9_600).unwrap_err();
        assert_eq!(err.server_code(), Some(ErrorCode::Busy));
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "busy rejection must answer immediately, never queue"
    );
    daemon.shutdown();
}

#[test]
fn over_budget_rejections_leave_no_residue() {
    // Arm 1: the global raw ceiling — a store bigger than the whole
    // allowance is rejected before touching the arena.
    let mut cfg = test_config();
    cfg.max_raw_bytes = 64 << 10;
    let daemon = ServeDaemon::spawn(cfg).expect("spawn");
    let mut c = ServeClient::connect(daemon.addr()).expect("connect");
    let tenant = 9_700;
    let layout = DataLayout::D1(32 << 10); // 128 KiB raw > 64 KiB ceiling
    let err = c
        .store_f32(tenant, 1, &smooth(layout.len(), 3), layout, 1e-3)
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::OverBudget));
    let stats = c.stats(tenant).expect("stats");
    assert_eq!(
        (
            stats.entries,
            stats.resident_bytes,
            stats.raw_bytes,
            stats.rejected
        ),
        (0, 0, 0, 1),
        "rejection left residue"
    );
    assert_eq!(
        ebtrain_obs::gauge_value(&format!("serve.tenant.resident#t{tenant}")),
        0,
        "rejection leaked resident bytes into the gauge"
    );
    assert_eq!(daemon.raw_total(), 0);
    daemon.shutdown();

    // Arm 2: a drop-policy tenant fed incompressible noise past its
    // budget — the arena's Dropped tier becomes a typed OverBudget with
    // the tombstone removed.
    let mut cfg = test_config();
    cfg.tenant_budget_bytes = 16 << 10;
    cfg.cold = ColdPolicy::DropForRecompute;
    let daemon = ServeDaemon::spawn(cfg).expect("spawn");
    let mut c = ServeClient::connect(daemon.addr()).expect("connect");
    let tenant = 9_701;
    let layout = DataLayout::D1(32 << 10);
    // Pseudo-random noise at a tight bound compresses ~1x: nothing any
    // tier can hold under a 16 KiB budget.
    let noise: Vec<f32> = (0..layout.len())
        .map(|i| {
            let x = (i as u32).wrapping_mul(2_654_435_761);
            (x as f32 / u32::MAX as f32) * 2.0 - 1.0
        })
        .collect();
    let err = c.store_f32(tenant, 1, &noise, layout, 1e-7).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::OverBudget));
    let stats = c.stats(tenant).expect("stats");
    assert_eq!(
        (stats.entries, stats.resident_bytes, stats.raw_bytes),
        (0, 0, 0)
    );
    assert_eq!(stats.rejected, 1);
    let err = c.fetch(tenant, 1).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::Missing));
    daemon.shutdown();
}

/// LEB128, as the codec headers encode counts.
fn leb128(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return out;
        }
        out.push(byte | 0x80);
    }
}

#[test]
fn hostile_declared_count_is_rejected_before_any_allocation() {
    let daemon = ServeDaemon::spawn(test_config()).expect("spawn");
    let mut s = connect_raw(&daemon);
    let tenant = 9_900;
    let layout = DataLayout::D1(1024);
    // A byte-plane stream whose header claims 2^60 elements and carries
    // nothing else. The count disagrees with the request layout, so the
    // daemon must answer Malformed from the header probe alone — before
    // the fix, the claimed count sized the decode allocation and a
    // 40-byte frame could drive an exabyte-scale reservation.
    let byteplane = |count: u64| {
        let mut body = vec![0x42, 0x31]; // B1 magic
        body.extend_from_slice(&leb128(count));
        TaggedStream::tag(CodecId::BYTEPLANE, body).into_bytes()
    };
    let body = frame::store_payload(1, layout, 0.0, &byteplane(1u64 << 60));
    s.write_all(&raw_request(frame::MAGIC, frame::VERSION, 1, tenant, &body))
        .unwrap();
    let resp = frame::read_response(&mut s, frame::DEFAULT_MAX_PAYLOAD).unwrap();
    assert_eq!(
        ErrorCode::from_byte(resp.status),
        Some(ErrorCode::Malformed),
        "hostile count must be a typed mismatch, got {:?}",
        String::from_utf8_lossy(&resp.payload)
    );
    // A count that *matches* the layout but a body that is not there:
    // past the probe, the decoder itself reports corruption.
    let body = frame::store_payload(2, layout, 0.0, &byteplane(layout.len() as u64));
    s.write_all(&raw_request(frame::MAGIC, frame::VERSION, 1, tenant, &body))
        .unwrap();
    let resp = frame::read_response(&mut s, frame::DEFAULT_MAX_PAYLOAD).unwrap();
    assert_eq!(ErrorCode::from_byte(resp.status), Some(ErrorCode::Codec));
    // Nothing was stored, and the daemon still serves real traffic.
    let mut c = ServeClient::connect(daemon.addr()).expect("connect");
    let stats = c.stats(tenant).expect("stats");
    assert_eq!((stats.entries, stats.raw_bytes), (0, 0));
    c.store_f32(tenant, 3, &smooth(layout.len(), 5), layout, 1e-3)
        .expect("daemon healthy after hostile headers");
    daemon.shutdown();
}

#[test]
fn bare_and_retired_sz_streams_are_codec_errors() {
    let daemon = ServeDaemon::spawn(test_config()).expect("spawn");
    let mut s = connect_raw(&daemon);
    let tenant = 9_905;
    let layout = DataLayout::D1(1024);
    let cfg = ebtrain_sz::SzConfig::with_error_bound(1e-3);
    let current = ebtrain_sz::compress(&smooth(layout.len(), 2), layout, &cfg).unwrap();
    // A current-format SZ body without the container, and a format-1
    // body inside it: neither reaches a decoder.
    let z1 = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/golden/z1_classic.bin"
    ))
    .expect("reject fixture");
    let streams = [
        current.as_bytes().to_vec(),
        TaggedStream::tag(CodecId::SZ, z1).into_bytes(),
    ];
    for (key, stream) in streams.iter().enumerate() {
        let body = frame::store_payload(key as u64, layout, 0.0, stream);
        s.write_all(&raw_request(frame::MAGIC, frame::VERSION, 1, tenant, &body))
            .unwrap();
        let resp = frame::read_response(&mut s, frame::DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(
            ErrorCode::from_byte(resp.status),
            Some(ErrorCode::Codec),
            "stream {key}: {:?}",
            String::from_utf8_lossy(&resp.payload)
        );
    }
    let mut c = ServeClient::connect(daemon.addr()).expect("connect");
    assert_eq!(c.stats(tenant).expect("stats").entries, 0);
    // The same session still stores the same body once it is tagged.
    let tagged = TaggedStream::tag(CodecId::SZ, current.into_bytes()).into_bytes();
    let body = frame::store_payload(7, layout, 0.0, &tagged);
    s.write_all(&raw_request(frame::MAGIC, frame::VERSION, 1, tenant, &body))
        .unwrap();
    let resp = frame::read_response(&mut s, frame::DEFAULT_MAX_PAYLOAD).unwrap();
    assert_eq!(resp.status, 0, "session survived both codec errors");
    assert_eq!(c.stats(tenant).expect("stats").entries, 1);
    daemon.shutdown();
}

#[test]
fn rejected_replacement_preserves_the_previous_entry() {
    let mut cfg = test_config();
    cfg.tenant_budget_bytes = 16 << 10;
    cfg.cold = ColdPolicy::DropForRecompute;
    let daemon = ServeDaemon::spawn(cfg).expect("spawn");
    let mut c = ServeClient::connect(daemon.addr()).expect("connect");
    let tenant = 9_910;
    let layout = DataLayout::D1(8 << 10); // 32 KiB raw > 16 KiB budget
    let original = smooth(layout.len(), 9); // compressible: fits warm
    c.store_f32(tenant, 1, &original, layout, 1e-3)
        .expect("original store");
    // Replace with incompressible noise at a tight bound: nothing any
    // tier can hold, so the replacement is rejected OverBudget.
    let noise: Vec<f32> = (0..layout.len())
        .map(|i| {
            let x = (i as u32).wrapping_mul(2_654_435_761);
            (x as f32 / u32::MAX as f32) * 2.0 - 1.0
        })
        .collect();
    let err = c.store_f32(tenant, 1, &noise, layout, 1e-7).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::OverBudget));
    // The previous entry survives the failed replacement: its identity
    // and accounting are intact — before the fix the rejection had
    // already destroyed it, and a fetch answered Missing with the
    // tenant's raw accounting zeroed.
    let stats = c.stats(tenant).expect("stats");
    assert_eq!(stats.entries, 1, "old entry destroyed by failed replace");
    assert_eq!(stats.raw_bytes, (layout.len() * 4) as u64);
    assert_eq!(stats.rejected, 1);
    match c.fetch(tenant, 1) {
        // Insert pressure from the attempt may have dropped the payload
        // (DropForRecompute), but the entry itself must still be there.
        Err(e) => assert_eq!(e.server_code(), Some(ErrorCode::Dropped)),
        Ok((got, _)) => assert!(got
            .iter()
            .zip(&original)
            .all(|(a, b)| (a - b).abs() <= 1e-3 + 1e-6)),
    }
    daemon.shutdown();
}

#[test]
fn stats_probe_never_mints_tenant_state() {
    let daemon = ServeDaemon::spawn(test_config()).expect("spawn");
    let mut c = ServeClient::connect(daemon.addr()).expect("connect");
    // Scan a spread of never-seen tenant ids: each answers the zero
    // snapshot (with the daemon's budget template) and none of them
    // becomes a live tenant with an arena and gauges.
    for tenant in (9_920..9_980).step_by(7) {
        let stats = c.stats(tenant).expect("stats");
        assert_eq!(stats.budget_bytes, (128 << 10) as u64);
        assert_eq!(
            (stats.entries, stats.resident_bytes, stats.raw_bytes),
            (0, 0, 0)
        );
    }
    assert_eq!(daemon.tenant_count(), 0, "stats scan minted tenants");
    // A real store still creates the tenant, and stats then reflect it.
    let layout = DataLayout::D1(1024);
    c.store_f32(9_920, 1, &smooth(layout.len(), 2), layout, 1e-3)
        .expect("store");
    assert_eq!(daemon.tenant_count(), 1);
    assert_eq!(c.stats(9_920).expect("stats").entries, 1);
    daemon.shutdown();
}

#[test]
fn concurrent_stores_never_overshoot_the_global_ceiling() {
    let mut cfg = test_config();
    cfg.tenant_budget_bytes = 64 << 10;
    cfg.max_resident_bytes = 160 << 10; // room for ~2.5 of 8 tenants' budgets
    let ceiling = cfg.max_resident_bytes;
    let daemon = ServeDaemon::spawn(cfg).expect("spawn");
    let addr = daemon.addr();
    let base = 9_990u32;
    let layout = DataLayout::D1(8 << 10); // 32 KiB raw per tensor
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Sampler: the global ceiling is an *every-instant* invariant
        // now that admission reserves headroom atomically — before the
        // fix, concurrent stores on different tenants could each pass
        // the check and overshoot together.
        let sampler = s.spawn(|| {
            let mut max_seen = 0usize;
            while !done.load(Ordering::SeqCst) {
                max_seen = max_seen.max(daemon.resident_total());
                std::thread::sleep(Duration::from_micros(200));
            }
            max_seen
        });
        let workers: Vec<_> = (0..8u32)
            .map(|m| {
                s.spawn(move || {
                    let tenant = base + m;
                    let mut c = ServeClient::connect(addr).expect("connect");
                    for k in 0..10u64 {
                        let data = smooth(layout.len(), (m as u64 * 13 + k) as usize);
                        // OverBudget is a legal answer when reclaim
                        // cannot make room under concurrent fire;
                        // overshoot is not.
                        match c.store_f32(tenant, k, &data, layout, 1e-3) {
                            Ok(_) => {}
                            Err(e) => {
                                assert_eq!(e.server_code(), Some(ErrorCode::OverBudget))
                            }
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        done.store(true, Ordering::SeqCst);
        let max_seen = sampler.join().expect("sampler");
        assert!(
            max_seen <= ceiling,
            "resident total hit {max_seen} over the global ceiling {ceiling}"
        );
    });
    assert!(daemon.resident_total() <= ceiling);
    daemon.shutdown();
}

#[test]
fn global_ceiling_triggers_cross_tenant_reclaim_not_rejection() {
    let mut cfg = test_config();
    cfg.tenant_budget_bytes = 256 << 10;
    cfg.max_resident_bytes = 320 << 10; // < 2 tenants' budgets
    let ceiling = cfg.max_resident_bytes;
    let daemon = ServeDaemon::spawn(cfg).expect("spawn");
    let addr = daemon.addr();
    let (a, b) = (9_800u32, 9_801u32);
    let layout = DataLayout::D2(64, 512); // 128 KiB raw
    let mut ca = ServeClient::connect(addr).expect("connect");
    ca.store_f32(a, 1, &smooth(layout.len(), 1), layout, 1e-3)
        .expect("a1");
    ca.store_f32(a, 2, &smooth(layout.len(), 2), layout, 1e-3)
        .expect("a2");
    // Tenant B's first store pushes past the global ceiling: the tiered
    // eviction pass reclaims from A (the over-fair-share tenant) and
    // the store is *admitted*, not rejected.
    let mut cb = ServeClient::connect(addr).expect("connect");
    cb.store_f32(b, 1, &smooth(layout.len(), 3), layout, 1e-3)
        .expect("reclaim makes room instead of rejecting");
    assert!(
        daemon.resident_total() <= ceiling,
        "resident {} over the global ceiling {ceiling}",
        daemon.resident_total()
    );
    // Reclaim demoted A's entries but lost nothing (HostMigrate).
    for (k, phase) in [(1u64, 1usize), (2, 2)] {
        let (got, _) = ca.fetch(a, k).expect("A's data survived reclaim");
        let expect = smooth(layout.len(), phase);
        assert!(got
            .iter()
            .zip(&expect)
            .all(|(x, y)| (x - y).abs() <= 1e-3 + 1e-6));
    }
    let (got, _) = cb.fetch(b, 1).expect("B's store served");
    assert_eq!(got.len(), layout.len());
    daemon.shutdown();
}

/// Smooth waves plus seeded noise: a tensor whose streams are a few
/// times smaller than raw.
fn noisy(n: usize, seed: u32) -> Vec<f32> {
    let mut s = seed.wrapping_mul(2_654_435_761) | 1;
    (0..n)
        .map(|i| {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let noise = (s >> 8) as f32 / (1u32 << 24) as f32 - 0.5;
            ((i as f32 + seed as f32 * 37.0) * 0.011).sin() + 0.1 * noise
        })
        .collect()
}

/// One fetch over a raw socket; the success body.
fn raw_fetch(s: &mut TcpStream, tenant: u32, key: u64) -> Vec<u8> {
    let body = key.to_be_bytes();
    s.write_all(&raw_request(frame::MAGIC, frame::VERSION, 2, tenant, &body))
        .unwrap();
    let resp = frame::read_response(s, frame::DEFAULT_MAX_PAYLOAD).unwrap();
    assert_eq!(resp.status, 0, "{}", String::from_utf8_lossy(&resp.payload));
    resp.payload
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn stored_form_fetch_is_a_server_decode_in_every_tier() {
    let layout = DataLayout::D2(64, 256);
    let raw = layout.len() * 4;
    let streams: Vec<TaggedStream> = (0..4)
        .map(|k| {
            SzCodec::classic()
                .compress(&noisy(layout.len(), k), layout, &BoundSpec::Abs(1e-3))
                .unwrap()
        })
        .collect();
    let len = |k: usize| streams[k].compressed_byte_len();
    // Room for one hot pair and two streams, not three: the fourth store
    // sends the first stream to host.
    let mut cfg = test_config();
    cfg.tenant_budget_bytes = raw + len(1) + len(2) + len(3) + len(0) / 2;
    let daemon = ServeDaemon::spawn(cfg).expect("spawn");
    let mut c = ServeClient::connect(daemon.addr()).expect("connect");
    let mut s = connect_raw(&daemon);
    let tenant = 9_930;
    for (k, stream) in streams.iter().enumerate() {
        let tier = c.store_stream(tenant, k as u64, layout, 1e-3, stream);
        assert_eq!(tier.expect("store"), Tier::Hot);
    }
    // Key 3 is hot beside its stream, keys 1 and 2 warm, key 0 on host.
    let stats = c.stats(tenant).expect("stats");
    assert_eq!(
        stats.resident_bytes as usize,
        raw + len(3) + len(1) + len(2)
    );
    let registry = CodecRegistry::standard();
    for (k, stream) in streams.iter().enumerate() {
        let want = bits(&registry.decompress(stream).unwrap());
        let stored = raw_fetch(&mut s, tenant, k as u64);
        let (form, body) = (stored[13], &stored[14..]);
        if k == 3 {
            assert_eq!(form, 0, "a hot entry ships its values");
        } else {
            assert_eq!(
                (form, body),
                (1, stream.as_bytes()),
                "key {k} ships as sent"
            );
        }
        let (got, got_layout) = c.fetch(tenant, k as u64).expect("fetch");
        assert_eq!((bits(&got), got_layout), (want, layout), "key {k}");
    }
    // A stream that does not compress is held raw and fetched bit-exact.
    let random: Vec<f32> = (0..layout.len() as u64)
        .map(|i| {
            // SplitMix64: every bit pattern, NaNs included.
            let mut z = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            f32::from_bits((z ^ (z >> 31)) as u32)
        })
        .collect();
    let lossless = LosslessCodec
        .compress(&random, layout, &BoundSpec::Lossless)
        .unwrap();
    assert!(lossless.compressed_byte_len() >= raw);
    c.store_stream(tenant, 9, layout, 0.0, &lossless)
        .expect("store");
    let (got, _) = c.fetch(tenant, 9).expect("fetch");
    assert_eq!(bits(&got), bits(&random));
    daemon.shutdown();
}

#[test]
fn a_stream_of_another_layout_serves_the_requests_planes_in_every_tier() {
    let layout = DataLayout::D2(64, 256);
    let raw = layout.len() * 4;
    // Same element count, other geometry: the header's frames index
    // planes of 64 and of the D1 chunking, not the request's 256.
    let held = [
        DataLayout::D2(256, 64),
        DataLayout::D1(layout.len()),
        layout,
    ];
    let streams: Vec<TaggedStream> = held
        .iter()
        .zip(0..)
        .map(|(&l, k)| {
            SzCodec::dual_quant()
                .compress(&noisy(layout.len(), k), l, &BoundSpec::Abs(1e-3))
                .unwrap()
        })
        .collect();
    let len = |k: usize| streams[k].compressed_byte_len();
    // One hot pair and two streams: the third store sends key 1 warm and
    // key 0 to host.
    let mut cfg = test_config();
    cfg.tenant_budget_bytes = raw + len(1) + len(2) + len(0) / 2;
    let daemon = ServeDaemon::spawn(cfg).expect("spawn");
    let mut c = ServeClient::connect(daemon.addr()).expect("connect");
    let mut s = connect_raw(&daemon);
    let tenant = 9_945;
    let mut hot = Vec::new();
    for (k, stream) in streams.iter().enumerate() {
        let tier = c.store_stream(tenant, k as u64, layout, 1e-3, stream);
        assert_eq!(tier.expect("store"), Tier::Hot);
        hot.push(c.fetch_planes(tenant, k as u64, 8..16).expect("hot planes"));
        assert_eq!(hot[k].len(), 8 * 256);
    }
    let stats = c.stats(tenant).expect("stats");
    assert_eq!(stats.resident_bytes as usize, raw + len(2) + len(1));
    for (k, want) in hot.iter().enumerate().take(2) {
        assert_eq!(
            raw_fetch(&mut s, tenant, k as u64)[13],
            1,
            "key {k} not hot"
        );
        let got = c.fetch_planes(tenant, k as u64, 8..16).expect("planes");
        assert_eq!(bits(&got), bits(want), "key {k}");
        let (whole, _) = c.fetch(tenant, k as u64).expect("fetch");
        assert_eq!(bits(&whole[8 * 256..16 * 256]), bits(want), "key {k}");
        assert!(c.fetch_planes(tenant, k as u64, 8..65).is_err());
    }
    daemon.shutdown();
}

#[test]
fn hostile_fetch_stream_is_refused_before_any_decode() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let layout = DataLayout::D1(1024);
    let byteplane = |count: u64| {
        let mut body = vec![0x42, 0x31]; // B1 magic
        body.extend_from_slice(&leb128(count));
        TaggedStream::tag(CodecId::BYTEPLANE, body).into_bytes()
    };
    let longer = SzCodec::dual_quant()
        .compress(
            &smooth(2048, 1),
            DataLayout::D1(2048),
            &BoundSpec::Abs(1e-3),
        )
        .unwrap()
        .into_bytes();
    let mut short = Vec::new();
    frame::put_f32_body(&mut short, &smooth(1023, 1));
    // Form-1 answers: a header claiming 2^60 elements, a real stream of
    // twice the layout, and a count that matches over a missing body.
    // Then a form-0 answer one value short of the layout.
    let answers = [
        (1, byteplane(1 << 60)),
        (1, longer),
        (1, byteplane(1024)),
        (0, short),
    ];
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        for (form, answer) in answers {
            frame::read_request(&mut s, frame::DEFAULT_MAX_PAYLOAD).unwrap();
            let mut body = Vec::new();
            frame::put_layout(&mut body, layout);
            body.push(form);
            body.extend_from_slice(&answer);
            frame::write_response(&mut s, 0, &body).unwrap();
        }
    });
    let mut c = ServeClient::connect(addr).expect("connect");
    for want in [
        "fetch stream's element count",
        "fetch stream's element count",
        "fetch stream decode",
        "fetch body",
    ] {
        match c.fetch(1, 1) {
            Err(ClientError::BadResponse(what)) => assert_eq!(what, want),
            other => panic!("expected BadResponse({want}), got {other:?}"),
        }
    }
    server.join().unwrap();
}

#[test]
fn every_truncation_and_bit_flip_of_a_stored_stream_is_refused_or_served_whole() {
    // Four one-plane frames, so plane fetches read the frame index.
    let layout = DataLayout::D3(4, 8, 8);
    let raw = layout.len() * 4;
    let data: Vec<f32> = noisy(layout.len(), 3).iter().map(|v| v.max(0.0)).collect();
    let codecs = [SzConfig::classic(1e-3), SzConfig::with_error_bound(1e-3)].map(|cfg| {
        SzCodec::new(SzConfig {
            chunk_planes: Some(1),
            ..cfg
        })
    });
    // A budget of one raw tensor: every kept stream lands warm, so a
    // fetch ships it and the client decodes it.
    let mut cfg = test_config();
    cfg.tenant_budget_bytes = raw;
    let daemon = ServeDaemon::spawn(cfg).expect("spawn");
    let mut c = ServeClient::connect(daemon.addr()).expect("connect");
    let mut s = connect_raw(&daemon);
    let tenant = 9_940;
    let registry = CodecRegistry::standard();
    let (mut refused, mut served) = (0, 0);
    for codec in &codecs {
        let stream = codec
            .compress(&data, layout, &BoundSpec::Abs(1e-3))
            .unwrap();
        let bytes = stream.as_bytes();
        let cuts = (0..bytes.len()).map(|cut| bytes[..cut].to_vec());
        let flips = (0..bytes.len() * 8).map(|bit| {
            let mut m = bytes.to_vec();
            m[bit / 8] ^= 1 << (bit % 8);
            m
        });
        for mutant in cuts.chain(flips) {
            let body = frame::store_payload(1, layout, 0.0, &mutant);
            s.write_all(&raw_request(frame::MAGIC, frame::VERSION, 1, tenant, &body))
                .unwrap();
            let resp = frame::read_response(&mut s, frame::DEFAULT_MAX_PAYLOAD).unwrap();
            if resp.status != 0 {
                let code = ErrorCode::from_byte(resp.status);
                assert!(
                    matches!(code, Some(ErrorCode::Codec | ErrorCode::Malformed)),
                    "mutant refused with {code:?}: {}",
                    String::from_utf8_lossy(&resp.payload)
                );
                refused += 1;
                continue;
            }
            // Accepted: the values seen at store are its decode, and
            // every later read serves exactly those.
            let (want, _) = registry.decompress_any(&mutant).expect("store decoded it");
            let want = bits(&want);
            let (got, _) = c.fetch(tenant, 1).expect("client decode");
            assert_eq!(bits(&got), want);
            let plane = want.len() / 4;
            for p in 0..4 {
                let got = c.fetch_planes(tenant, 1, p..p + 1).expect("plane fetch");
                assert_eq!(bits(&got), want[p * plane..(p + 1) * plane], "plane {p}");
            }
            served += 1;
        }
    }
    assert!(
        refused > 0 && served > 0,
        "refused {refused}, served {served}"
    );
    daemon.shutdown();
}
