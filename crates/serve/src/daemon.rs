//! The daemon: accept loop, session framing, admission control, RPC
//! dispatch on the worker pool, and the cross-tenant eviction pass.
//!
//! Concurrency model: each connection gets an OS thread (blocking
//! frame I/O via [`ebtrain_obs::netutil::TcpServer`]), but every parsed RPC
//! *executes* as an `ebtrain-pool` task that the session thread joins.
//! The pool's inline-claim join means a saturated pool can never
//! starve a session — the joiner runs its own task — so sessions
//! multiplex compute on a bounded worker set while keeping per-session
//! request ordering.
//!
//! Admission control happens in two places, both answering with a
//! typed error instead of a hang:
//!
//! * **queue depth** — an in-flight counter checked before a request
//!   is submitted; past `max_inflight` the session answers
//!   [`ErrorCode::Busy`] immediately.
//! * **byte budgets** — per-tenant budgets are the arenas' own hard
//!   invariant; on top of that, a global resident ceiling triggers the
//!   tiered cross-tenant eviction pass (`global_reclaim`) and, if
//!   reclaim cannot make room, the store is rejected
//!   [`ErrorCode::OverBudget`] with nothing stored (no residual bytes,
//!   no counted entry, gauges unchanged).

use crate::frame::{
    self, ErrorCode, RequestFrame, RequestTag, DEFAULT_MAX_PAYLOAD, REQUEST_HEADER_LEN,
    RESPONSE_HEADER_LEN,
};
use crate::tenant::{Tenant, TenantStats};
use crate::{tier_to_byte, ServeError};
use ebtrain_codec::{BoundSpec, CodecRegistry};
use ebtrain_membudget::{BudgetConfig, ColdPolicy, Stored};
use ebtrain_obs::netutil::{get_u32, get_u64, TcpServer};
use ebtrain_obs::{counter_add, gauge_add, gauge_remove, gauge_set};
use ebtrain_pool::WorkerPool;
use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Daemon configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`, port 0 for ephemeral).
    pub addr: String,
    /// RPC worker-pool threads (0 = available parallelism, capped at 8).
    pub workers: usize,
    /// Hard device-byte budget per tenant arena.
    pub tenant_budget_bytes: usize,
    /// Global device-resident ceiling across all tenants. A store that
    /// would cross it triggers the cross-tenant eviction pass; if
    /// reclaim cannot make room the store is rejected `OverBudget`.
    pub max_resident_bytes: usize,
    /// Global all-tier ceiling on the sum of raw (uncompressed) sizes
    /// of live entries — bounds host memory under `HostMigrate`.
    pub max_raw_bytes: usize,
    /// In-flight request ceiling; past it sessions answer `Busy`.
    pub max_inflight: usize,
    /// Per-frame payload ceiling (bytes), enforced before allocation.
    pub max_payload: usize,
    /// Cold-tier behaviour for tenant arenas.
    pub cold: ColdPolicy,
    /// Demotion bound of raw-held tensors (a store's `eb > 0` overrides).
    pub bound: BoundSpec,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            tenant_budget_bytes: 8 << 20,
            max_resident_bytes: 32 << 20,
            max_raw_bytes: 256 << 20,
            max_inflight: 256,
            max_payload: DEFAULT_MAX_PAYLOAD,
            cold: ColdPolicy::HostMigrate,
            bound: BoundSpec::Abs(1e-3),
        }
    }
}

/// One tenant plus lock-free mirrors of its byte totals, so admission
/// and the eviction pass can sum/sort residency without taking every
/// tenant lock.
struct TenantSlot {
    tenant: Mutex<Tenant>,
    resident: AtomicUsize,
    raw: AtomicUsize,
}

struct Shared {
    cfg: ServeConfig,
    registry: CodecRegistry,
    tenants: Mutex<HashMap<u32, Arc<TenantSlot>>>,
    /// Σ slot.resident — maintained under each tenant's lock, read
    /// lock-free by admission.
    resident_total: AtomicUsize,
    /// Σ slot.raw.
    raw_total: AtomicUsize,
    /// Worst-case device bytes of stores admitted but not yet mirrored
    /// into `resident_total`. Admission reserves here with a CAS before
    /// letting a store proceed, so concurrent stores on different
    /// tenants cannot each pass the ceiling check and overshoot it
    /// together.
    resident_pending: AtomicUsize,
    /// Same, for the raw ceiling.
    raw_pending: AtomicUsize,
    inflight: AtomicUsize,
    pool: WorkerPool,
}

/// CAS-reserve `amount` against `ceiling`, counting both the settled
/// total and other requests' outstanding reservations. Returns whether
/// the reservation was taken; the caller must release it (via
/// [`Reservation`]) once the settled total reflects the store.
fn try_reserve(total: &AtomicUsize, pending: &AtomicUsize, amount: usize, ceiling: usize) -> bool {
    let mut cur = pending.load(Ordering::SeqCst);
    loop {
        let used = total.load(Ordering::SeqCst).saturating_add(cur);
        if used.saturating_add(amount) > ceiling {
            return false;
        }
        match pending.compare_exchange(cur, cur + amount, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return true,
            Err(now) => cur = now,
        }
    }
}

/// A held admission reservation; releases on drop (panic-safe — a
/// leaked reservation would permanently shrink the ceiling).
struct Reservation<'a> {
    pending: &'a AtomicUsize,
    amount: usize,
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.pending.fetch_sub(self.amount, Ordering::SeqCst);
    }
}

impl Drop for Shared {
    fn drop(&mut self) {
        gauge_remove("serve.inflight");
        gauge_remove("serve.tenants");
    }
}

/// The running daemon. Dropping (or [`shutdown`](ServeDaemon::shutdown))
/// stops the accept loop; live sessions wind down when their clients
/// disconnect, and per-tenant gauges retire with the last session's
/// reference to the shared state.
pub struct ServeDaemon {
    server: TcpServer,
    shared: Arc<Shared>,
}

impl ServeDaemon {
    /// Bind and start serving.
    pub fn spawn(cfg: ServeConfig) -> io::Result<ServeDaemon> {
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8)
        } else {
            cfg.workers
        };
        let addr = cfg.addr.clone();
        let shared = Arc::new(Shared {
            cfg,
            registry: CodecRegistry::standard(),
            tenants: Mutex::new(HashMap::new()),
            resident_total: AtomicUsize::new(0),
            raw_total: AtomicUsize::new(0),
            resident_pending: AtomicUsize::new(0),
            raw_pending: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            pool: WorkerPool::new(workers),
        });
        gauge_set("serve.inflight", 0);
        gauge_set("serve.tenants", 0);
        let session_shared = Arc::clone(&shared);
        let server = TcpServer::spawn(
            "ebtrain-serve",
            &addr,
            true,
            Arc::new(move |stream| session(&session_shared, stream)),
        )?;
        Ok(ServeDaemon { server, shared })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stop accepting connections.
    pub fn shutdown(self) {
        self.server.shutdown();
    }

    /// Device-resident bytes across all tenants (test/bench probe).
    pub fn resident_total(&self) -> usize {
        self.shared.resident_total.load(Ordering::SeqCst)
    }

    /// Sum of raw sizes of live entries across all tenants.
    pub fn raw_total(&self) -> usize {
        self.shared.raw_total.load(Ordering::SeqCst)
    }

    /// Live tenant count.
    pub fn tenant_count(&self) -> usize {
        self.shared.tenants.lock().expect("tenants poisoned").len()
    }

    /// In-process stats snapshot for one tenant (None if it never
    /// issued a request).
    pub fn tenant_stats(&self, tenant: u32) -> Option<TenantStats> {
        let slot = {
            let map = self.shared.tenants.lock().expect("tenants poisoned");
            map.get(&tenant).cloned()?
        };
        let t = slot.tenant.lock().expect("tenant poisoned");
        Some(t.stats())
    }
}

fn lock_tenant(slot: &TenantSlot) -> MutexGuard<'_, Tenant> {
    slot.tenant.lock().expect("tenant poisoned")
}

/// Re-mirror one tenant's byte totals into the slot atomics and the
/// global sums. Called under the tenant's lock after every mutation.
fn sync_slot(shared: &Shared, slot: &TenantSlot, t: &Tenant) {
    update_mirror(&slot.resident, &shared.resident_total, t.resident());
    update_mirror(&slot.raw, &shared.raw_total, t.raw_total());
}

fn update_mirror(cell: &AtomicUsize, total: &AtomicUsize, now: usize) {
    let old = cell.swap(now, Ordering::SeqCst);
    if now >= old {
        total.fetch_add(now - old, Ordering::SeqCst);
    } else {
        total.fetch_sub(old - now, Ordering::SeqCst);
    }
}

/// Look up a tenant slot, creating it (with the daemon's budget
/// template) when `create` is set.
fn tenant_slot(shared: &Shared, tenant: u32, create: bool) -> Result<Arc<TenantSlot>, ServeError> {
    let mut map = shared.tenants.lock().expect("tenants poisoned");
    if let Some(s) = map.get(&tenant) {
        return Ok(Arc::clone(s));
    }
    if !create {
        return Err(ServeError::new(
            ErrorCode::Missing,
            format!("tenant {tenant} holds nothing"),
        ));
    }
    let mut bc = BudgetConfig::with_budget(shared.cfg.tenant_budget_bytes);
    bc.cold = shared.cfg.cold;
    bc.bound = shared.cfg.bound;
    let slot = Arc::new(TenantSlot {
        tenant: Mutex::new(Tenant::new(tenant, bc)),
        resident: AtomicUsize::new(0),
        raw: AtomicUsize::new(0),
    });
    map.insert(tenant, Arc::clone(&slot));
    gauge_set("serve.tenants", map.len() as i64);
    Ok(slot)
}

/// One connection's lifetime: read frames, admit, dispatch on the
/// pool, answer. A framing error answers with a typed error frame
/// where the stream is still coherent enough to carry one, then
/// closes — after a desync there is no way to find the next frame
/// boundary.
fn session(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    loop {
        let req = match frame::read_request(&mut reader, shared.cfg.max_payload) {
            Ok(None) => return,
            Ok(Some(req)) => req,
            Err(e) => {
                counter_add("serve.frame_errors", 1);
                let code = match &e {
                    frame::FrameError::BadMagic(_) => Some(ErrorCode::Malformed),
                    frame::FrameError::BadVersion(_) => Some(ErrorCode::Version),
                    frame::FrameError::TooLarge { .. } => Some(ErrorCode::TooLarge),
                    frame::FrameError::Truncated | frame::FrameError::Io(_) => None,
                };
                if let Some(code) = code {
                    let _ =
                        frame::write_response(&mut writer, code as u8, e.to_string().as_bytes());
                    let _ = writer.flush();
                }
                return;
            }
        };
        counter_add("serve.requests", 1);
        counter_add(
            "serve.bytes_in",
            (REQUEST_HEADER_LEN + req.payload.len()) as u64,
        );
        // Queue-depth admission: count ourselves in, answer Busy past
        // the ceiling. The gauge's high-water mark is the observable
        // queue-depth peak.
        let depth = shared.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        gauge_add("serve.inflight", 1);
        let (status, payload) = if depth > shared.cfg.max_inflight {
            counter_add("serve.rejected.busy", 1);
            (
                ErrorCode::Busy as u8,
                format!(
                    "{depth} requests in flight (ceiling {})",
                    shared.cfg.max_inflight
                )
                .into_bytes(),
            )
        } else {
            let task_shared = Arc::clone(shared);
            let handle = shared.pool.submit(move || dispatch(&task_shared, req));
            match handle.join_result() {
                Ok(resp) => resp,
                Err(_) => {
                    // Panic stays isolated to this one request.
                    counter_add("serve.panics", 1);
                    (
                        ErrorCode::Internal as u8,
                        b"request handler panicked".to_vec(),
                    )
                }
            }
        };
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        gauge_add("serve.inflight", -1);
        counter_add(
            "serve.bytes_out",
            (RESPONSE_HEADER_LEN + payload.len()) as u64,
        );
        let sent =
            frame::write_response(&mut writer, status, &payload).and_then(|()| writer.flush());
        if sent.is_err() {
            return;
        }
    }
}

/// Execute one admitted request (runs on a pool worker).
fn dispatch(shared: &Arc<Shared>, req: RequestFrame) -> (u8, Vec<u8>) {
    let Some(tag) = RequestTag::from_byte(req.tag) else {
        return (
            ErrorCode::UnknownTag as u8,
            format!("unassigned request tag {}", req.tag).into_bytes(),
        );
    };
    let _span = ebtrain_obs::span(tag.span_name());
    let out = match tag {
        RequestTag::Ping => Ok(Vec::new()),
        RequestTag::Store => rpc_store(shared, req.tenant, req.payload),
        RequestTag::Fetch => rpc_fetch(shared, req.tenant, &req.payload),
        RequestTag::FetchPlanes => rpc_fetch_planes(shared, req.tenant, &req.payload),
        RequestTag::Stats => rpc_stats(shared, req.tenant, &req.payload),
        RequestTag::Evict => rpc_evict(shared, req.tenant, &req.payload),
    };
    match out {
        Ok(payload) => (0, payload),
        Err(e) => {
            counter_add("serve.rpc_errors", 1);
            if e.code == ErrorCode::OverBudget {
                counter_add("serve.rejected.over_budget", 1);
            }
            (e.code as u8, e.message.into_bytes())
        }
    }
}

fn malformed(what: &str) -> ServeError {
    ServeError::new(ErrorCode::Malformed, format!("{what} failed to parse"))
}

/// Ceiling on a fetch response body: the frame length field is a u32,
/// and `write_response` errors (closing the session) rather than
/// truncate — answer `TooLarge` instead, keeping the session alive.
/// Slack covers the layout prefix.
const MAX_RESPONSE_BODY: usize = u32::MAX as usize - 64;

fn check_response_elems(n: usize) -> Result<(), ServeError> {
    if n.saturating_mul(4) > MAX_RESPONSE_BODY {
        return Err(ServeError::new(
            ErrorCode::TooLarge,
            format!("{n} f32 elems exceed the response frame's u32 length field"),
        ));
    }
    Ok(())
}

fn rpc_store(shared: &Arc<Shared>, tenant: u32, mut body: Vec<u8>) -> Result<Vec<u8>, ServeError> {
    let (key, layout, eb, stream) =
        frame::parse_store_payload(&body).ok_or_else(|| malformed("store body"))?;
    let stream_len = stream.len();
    // `checked_len` only proves the element product fits a usize; the
    // byte size can still wrap, and a wrapped `raw` would sail under
    // both ceilings.
    let raw = layout.len().checked_mul(4).ok_or_else(|| {
        ServeError::new(
            ErrorCode::TooLarge,
            format!("layout of {} elems overflows a byte count", layout.len()),
        )
    })?;
    let slot = tenant_slot(shared, tenant, true)?;
    let mut t = lock_tenant(&slot);
    // Global raw ceiling (all tiers, replacement-aware). The CAS
    // reservation serializes concurrent stores on *different* tenants:
    // each holds its worst-case bytes as pending until its own bytes
    // are mirrored into the settled total, so two stores cannot both
    // read a ceiling with room for only one.
    let raw_delta = raw.saturating_sub(t.raw_of(key));
    if !try_reserve(
        &shared.raw_total,
        &shared.raw_pending,
        raw_delta,
        shared.cfg.max_raw_bytes,
    ) {
        t.count_rejected();
        return Err(ServeError::new(
            ErrorCode::OverBudget,
            format!(
                "store of {raw} raw bytes would cross the global raw ceiling ({} of {} used)",
                shared.raw_total.load(Ordering::SeqCst),
                shared.cfg.max_raw_bytes
            ),
        ));
    }
    let _raw_hold = Reservation {
        pending: &shared.raw_pending,
        amount: raw_delta,
    };
    // Global resident ceiling: worst case the store lands hot with its
    // stream, adding min(raw + stream, tenant budget). Try the tiered
    // eviction pass before giving up. (Reclaim takes other tenants'
    // locks, so release ours around it — one tenant lock at a time.)
    let worst = raw.saturating_add(stream_len);
    let worst = worst.min(shared.cfg.tenant_budget_bytes);
    let mut reserved = try_reserve(
        &shared.resident_total,
        &shared.resident_pending,
        worst,
        shared.cfg.max_resident_bytes,
    );
    if !reserved {
        drop(t);
        global_reclaim(shared, worst);
        t = lock_tenant(&slot);
        reserved = try_reserve(
            &shared.resident_total,
            &shared.resident_pending,
            worst,
            shared.cfg.max_resident_bytes,
        );
    }
    if !reserved {
        t.count_rejected();
        return Err(ServeError::new(
            ErrorCode::OverBudget,
            format!(
                "no room under the global resident ceiling ({} of {} used after reclaim)",
                shared.resident_total.load(Ordering::SeqCst),
                shared.cfg.max_resident_bytes
            ),
        ));
    }
    let _resident_hold = Reservation {
        pending: &shared.resident_pending,
        amount: worst,
    };
    body.drain(..body.len() - stream_len); // the tenant keeps the frame's buffer
    let out = t.store(&shared.registry, key, layout, eb, body);
    // Mirror before the holds drop: totals then cover the stored bytes,
    // so total + pending never understates real usage.
    sync_slot(shared, &slot, &t);
    out.map(|tier| vec![tier_to_byte(tier)])
}

fn rpc_fetch(shared: &Arc<Shared>, tenant: u32, payload: &[u8]) -> Result<Vec<u8>, ServeError> {
    let mut off = 0;
    let key = get_u64(payload, &mut off).ok_or_else(|| malformed("fetch body"))?;
    if off != payload.len() {
        return Err(malformed("fetch body (trailing bytes)"));
    }
    let slot = tenant_slot(shared, tenant, false)?;
    let mut t = lock_tenant(&slot);
    let (layout, stored) = t.fetch_stored(key)?;
    let mut out = Vec::new();
    frame::put_layout(&mut out, layout);
    match stored {
        Stored::Stream(stream) => {
            out.push(1);
            out.extend_from_slice(stream.as_bytes());
        }
        Stored::F32(vals) | Stored::Decoded(vals, _) => {
            check_response_elems(vals.len())?;
            out.push(0);
            frame::put_f32_body(&mut out, vals);
        }
    }
    Ok(out)
}

fn rpc_fetch_planes(
    shared: &Arc<Shared>,
    tenant: u32,
    payload: &[u8],
) -> Result<Vec<u8>, ServeError> {
    let mut off = 0;
    let key = get_u64(payload, &mut off).ok_or_else(|| malformed("fetch_planes body"))?;
    let start = get_u32(payload, &mut off).ok_or_else(|| malformed("fetch_planes body"))? as usize;
    let end = get_u32(payload, &mut off).ok_or_else(|| malformed("fetch_planes body"))? as usize;
    if off != payload.len() {
        return Err(malformed("fetch_planes body (trailing bytes)"));
    }
    let slot = tenant_slot(shared, tenant, false)?;
    let mut t = lock_tenant(&slot);
    let vals = t.fetch_planes(key, start, end)?;
    sync_slot(shared, &slot, &t);
    drop(t);
    check_response_elems(vals.len())?;
    let mut out = Vec::new();
    frame::put_f32_body(&mut out, &vals);
    Ok(out)
}

fn rpc_stats(shared: &Arc<Shared>, tenant: u32, payload: &[u8]) -> Result<Vec<u8>, ServeError> {
    if !payload.is_empty() {
        return Err(malformed("stats body (expected empty)"));
    }
    // Read-only: a stats probe must not mint tenant state, or scanning
    // tenant ids would grow arenas and gauges without bound. Unknown
    // tenants get the zero snapshot they would have as newcomers.
    match tenant_slot(shared, tenant, false) {
        Ok(slot) => {
            let t = lock_tenant(&slot);
            Ok(t.stats().encode())
        }
        Err(_) => Ok(TenantStats {
            budget_bytes: shared.cfg.tenant_budget_bytes as u64,
            ..TenantStats::default()
        }
        .encode()),
    }
}

fn rpc_evict(shared: &Arc<Shared>, tenant: u32, payload: &[u8]) -> Result<Vec<u8>, ServeError> {
    let mut off = 0;
    let key = get_u64(payload, &mut off).ok_or_else(|| malformed("evict body"))?;
    if off != payload.len() {
        return Err(malformed("evict body (trailing bytes)"));
    }
    let slot = tenant_slot(shared, tenant, false)?;
    let mut t = lock_tenant(&slot);
    let out = t.evict(key);
    sync_slot(shared, &slot, &t);
    out.map(|()| Vec::new())
}

/// The tiered cross-tenant eviction pass. Tier one shrinks tenants
/// holding more than their fair share (ceiling / tenant count) back to
/// it, largest overshoot first; tier two — only if still over — spills
/// everyone toward zero residency, largest first. One tenant lock at a
/// time, so the pass can never deadlock against in-flight RPCs.
/// Callers must not hold any tenant lock.
fn global_reclaim(shared: &Shared, need: usize) {
    counter_add("serve.reclaim.passes", 1);
    let slots: Vec<Arc<TenantSlot>> = {
        let map = shared.tenants.lock().expect("tenants poisoned");
        map.values().cloned().collect()
    };
    let ceiling = shared.cfg.max_resident_bytes;
    let fair = ceiling / slots.len().max(1);
    // Room must cover other stores' outstanding reservations too, or
    // the caller's retry would steal bytes they already hold.
    let fits = |shared: &Shared| {
        shared
            .resident_total
            .load(Ordering::SeqCst)
            .saturating_add(shared.resident_pending.load(Ordering::SeqCst))
            .saturating_add(need)
            <= ceiling
    };
    let mut freed_total = 0usize;
    for target in [fair, 0] {
        if fits(shared) {
            break;
        }
        let mut over: Vec<(usize, &Arc<TenantSlot>)> = slots
            .iter()
            .map(|s| (s.resident.load(Ordering::SeqCst), s))
            .filter(|(r, _)| *r > target)
            .collect();
        over.sort_by_key(|(r, _)| std::cmp::Reverse(*r));
        for (_, slot) in over {
            if fits(shared) {
                break;
            }
            let mut t = lock_tenant(slot);
            freed_total += t.reclaim_to(target);
            sync_slot(shared, slot, &t);
        }
    }
    counter_add("serve.reclaim.bytes", freed_total as u64);
}
