//! The budgeted arena: tiered residency under a hard byte budget.

use crate::policy::{Candidate, EvictionPolicy};
use crate::{MembudgetError, Result};
use ebtrain_codec::{BoundSpec, Codec, SzCodec, TaggedStream};
use ebtrain_pool::{TaskHandle, WorkerPool};
use ebtrain_sz::DataLayout;
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Simulated host interconnect bandwidth in bytes/second (PCIe 3.0 x16
/// ≈ 12e9): what the host tier's transfer-time accounting charges, and
/// the link of `ebtrain-dnn`'s fixed migration comparator.
pub const HOST_LINK_BPS: f64 = 12.0e9;

/// What happens to payloads that cannot stay on-device even compressed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColdPolicy {
    /// Ship the payload to host memory over a simulated interconnect
    /// (vDNN-class migration; compressed entries travel compressed, so
    /// the effective bandwidth is multiplied by the ratio — the paper's
    /// §6 "orthogonal methods" point). Loads always succeed.
    HostMigrate,
    /// Drop the payload; a later load returns
    /// [`MembudgetError::Dropped`] and the caller must regenerate it by
    /// re-running forward (gradient-checkpointing fallback).
    DropForRecompute,
}

/// Arena configuration.
#[derive(Clone)]
pub struct BudgetConfig {
    /// Hard cap on device-resident bytes. The arena never exceeds it —
    /// not between calls and not transiently inside one.
    pub budget_bytes: usize,
    /// Codec for hot → warm demotion. Per-entry codecs (from the
    /// per-layer routing plan) override it.
    pub codec: Arc<dyn Codec>,
    /// Fallback demotion bound; per-entry bounds override it.
    pub bound: BoundSpec,
    /// Cold-tier behaviour.
    pub cold: ColdPolicy,
    /// How many scheduled entries ahead of the cursor to decode on
    /// worker threads (0 disables prefetch).
    pub prefetch_depth: usize,
}

impl BudgetConfig {
    /// Config with paper-ish defaults: given budget, the dual-quant SZ
    /// framework codec at a 1e-3 absolute bound, host migration,
    /// prefetch depth 2.
    pub fn with_budget(budget_bytes: usize) -> BudgetConfig {
        BudgetConfig {
            budget_bytes,
            codec: Arc::new(SzCodec::dual_quant()),
            bound: BoundSpec::Abs(1e-3),
            cold: ColdPolicy::HostMigrate,
            prefetch_depth: 2,
        }
    }
}

impl Debug for BudgetConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BudgetConfig")
            .field("budget_bytes", &self.budget_bytes)
            .field("codec", &self.codec.name())
            .field("bound", &self.bound)
            .field("cold", &self.cold)
            .field("prefetch_depth", &self.prefetch_depth)
            .finish()
    }
}

/// Tier an insert landed in (also the load-side hit counter key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Raw on device.
    Hot,
    /// Compressed on device.
    Warm,
    /// Off-device (host).
    Cold,
    /// Discarded for recompute.
    Dropped,
}

/// A payload handed back by [`BudgetedArena::load`].
#[derive(Debug, Clone, PartialEq)]
pub enum Fetched {
    /// Float tensor data.
    F32(Vec<f32>),
    /// Opaque bytes (bit-masks, index tensors — the store layer owns the
    /// encoding).
    Bytes(Vec<u8>),
}

/// An f32 entry's payload as it is held ([`BudgetedArena::stored`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stored<'a> {
    /// Raw values (hot, or migrated to host raw).
    F32(&'a [f32]),
    /// Values beside the stream they decode from (hot).
    Decoded(&'a [f32], &'a TaggedStream),
    /// A stream alone (warm, or migrated to host compressed).
    Stream(&'a TaggedStream),
}

/// Cumulative arena counters (cleared by
/// [`BudgetedArena::reset_metrics`]).
#[derive(Debug, Clone, Default)]
pub struct ArenaMetrics {
    /// Payloads inserted.
    pub inserts: u64,
    /// Payloads loaded (removed).
    pub loads: u64,
    /// Hot → warm demotions (compression under pressure).
    pub demotions: u64,
    /// Warm/hot → host evictions.
    pub evictions_host: u64,
    /// Payloads dropped for recompute.
    pub drops: u64,
    /// Prefetch decodes issued to worker threads.
    pub prefetch_issued: u64,
    /// Loads served by a completed (or joined) prefetch.
    pub prefetch_hits: u64,
    /// Loads served raw from device.
    pub hot_hits: u64,
    /// Loads that paid an inline decompression.
    pub warm_hits: u64,
    /// Loads that paid a host round-trip.
    pub host_hits: u64,
    /// Time spent compressing (demotion + cold path).
    pub compress_nanos: u64,
    /// Time spent decompressing on the caller's thread (inline, i.e.
    /// *not* hidden by prefetch).
    pub decompress_nanos: u64,
    /// Simulated host interconnect time.
    pub transfer_nanos: u64,
    /// Raw bytes that went through the demotion compressor.
    pub bytes_compressed_raw: u64,
    /// Compressed bytes the demotion compressor produced.
    pub bytes_compressed_out: u64,
    /// Times a charge would have pushed residency past the budget
    /// (always 0 — kept as a release-mode tripwire).
    pub over_budget_events: u64,
    /// Plane-range fetches served from warm/host-warm entries via the
    /// frame-indexed range decoder.
    pub partial_fetches: u64,
    /// Frame-body bytes actually decoded by partial fetches.
    pub partial_bytes_decoded: u64,
    /// Frame-body bytes the fetched streams hold in total (the
    /// denominator proving partial fetches skip most of the stream).
    pub partial_bytes_total: u64,
}

impl ArenaMetrics {
    /// Count a non-destructive read of `moved` bytes from `tier`.
    fn count_read(&mut self, tier: Tier, moved: usize) {
        match tier {
            Tier::Cold => {
                self.transfer_nanos += transfer_nanos(moved);
                self.host_hits += 1;
            }
            Tier::Warm => self.warm_hits += 1,
            _ => self.hot_hits += 1,
        }
    }
}

/// Background decode of one compressed payload, running on the shared
/// persistent [`WorkerPool`] (no per-decode OS-thread spawn; joining a
/// not-yet-started decode runs it inline, so a saturated pool degrades
/// to the non-prefetched cost instead of deadlocking).
struct DecodeJob {
    handle: TaskHandle<ebtrain_sz::Result<Vec<f32>>>,
}

impl DecodeJob {
    fn spawn(codec: Arc<dyn Codec>, stream: TaggedStream) -> DecodeJob {
        DecodeJob {
            handle: WorkerPool::global().submit(move || codec.decompress(&stream)),
        }
    }

    fn join(self) -> ebtrain_sz::Result<Vec<f32>> {
        self.handle.join_result().unwrap_or_else(|_| {
            Err(ebtrain_sz::SzError::Corrupt(
                "decode worker panicked".into(),
            ))
        })
    }
}

/// What an entry holds, wherever it is held.
enum Payload {
    F32(Vec<f32>),
    Bytes(Vec<u8>),
    /// A compressed f32 payload.
    Stream(TaggedStream),
    /// An f32 payload together with the stream it was decoded from;
    /// stepping down drops the values and keeps the stream.
    Decoded(Vec<f32>, TaggedStream),
}

impl Payload {
    fn byte_len(&self) -> usize {
        match self {
            Payload::F32(d) => d.len() * 4,
            Payload::Bytes(b) => b.len(),
            Payload::Stream(s) => s.compressed_byte_len(),
            Payload::Decoded(d, s) => d.len() * 4 + s.compressed_byte_len(),
        }
    }
}

/// Where an entry's payload lives. Device payloads are charged their
/// [`Payload::byte_len`]; host and dropped entries are charged nothing.
enum Repr {
    Device(Payload),
    /// Prefetch in progress; charged conservatively for *both* the
    /// compressed source and the raw result while in flight.
    InFlight(DecodeJob),
    Host(Payload),
    Dropped,
}

impl Repr {
    /// A settled (not in-flight) f32 entry's payload as [`Stored`].
    fn stored(&self) -> Result<Stored<'_>> {
        match self {
            Repr::Device(p) | Repr::Host(p) => match p {
                Payload::F32(values) => Ok(Stored::F32(values)),
                Payload::Decoded(values, stream) => Ok(Stored::Decoded(values, stream)),
                Payload::Stream(stream) => Ok(Stored::Stream(stream)),
                Payload::Bytes(_) => Err(MembudgetError::Codec(ebtrain_sz::SzError::Corrupt(
                    "f32 read of a byte entry".into(),
                ))),
            },
            Repr::Dropped => Err(MembudgetError::Dropped),
            Repr::InFlight(_) => unreachable!("in-flight joined by the caller"),
        }
    }
}

struct Entry {
    repr: Repr,
    /// Layout under which an f32 payload compresses.
    layout: DataLayout,
    /// Demotion bound (entry-specific override of the config).
    bound: BoundSpec,
    /// Codec this entry demotes through (per-layer routing override of
    /// the config codec).
    codec: Arc<dyn Codec>,
    /// Bytes of the decoded payload (what a prefetch decode adds).
    raw_bytes: usize,
    /// Device bytes currently charged for this entry.
    resident: usize,
    last_touch: u64,
}

impl Entry {
    fn tier(&self) -> Tier {
        match self.repr {
            Repr::Device(Payload::Stream(_)) => Tier::Warm,
            Repr::Device(_) | Repr::InFlight(_) => Tier::Hot,
            Repr::Host(_) => Tier::Cold,
            Repr::Dropped => Tier::Dropped,
        }
    }
}

/// Simulated host-link time for `bytes`.
fn transfer_nanos(bytes: usize) -> u64 {
    (bytes as f64 / HOST_LINK_BPS * 1e9) as u64
}

/// Run one decode of `stream` on the caller's thread, timed into
/// `nanos` under the `membudget.decompress` span.
fn decode<T>(
    nanos: &mut u64,
    stream: &TaggedStream,
    f: impl FnOnce(&TaggedStream) -> ebtrain_sz::Result<T>,
) -> Result<T> {
    let _span = ebtrain_obs::span!("membudget.decompress", bytes = stream.compressed_byte_len());
    let t0 = Instant::now();
    let out = f(stream).map_err(MembudgetError::Codec);
    *nanos += t0.elapsed().as_nanos() as u64;
    out
}

/// Element range `[lo, hi)` of `planes` in an `n`-element payload.
fn plane_elems(layout: DataLayout, planes: &Range<usize>, n: usize) -> Result<(usize, usize)> {
    let pe = layout.plane_elems();
    if planes.start > planes.end || planes.end > layout.plane_count() {
        return Err(MembudgetError::Codec(ebtrain_sz::SzError::Corrupt(
            "plane range out of bounds".into(),
        )));
    }
    // Both ends clamp to the element count: the final D1 plane may be
    // partial, so `start * pe` can exceed `n` for an empty range at the
    // tail (`plane_count..plane_count`).
    Ok(((planes.start * pe).min(n), (planes.end * pe).min(n)))
}

/// Tiered activation arena under a hard device-byte budget; see the
/// crate docs for the design.
pub struct BudgetedArena<K> {
    cfg: BudgetConfig,
    policy: Box<dyn EvictionPolicy>,
    entries: HashMap<K, Entry>,
    resident: usize,
    peak: usize,
    clock: u64,
    /// Expected future access order (the backward schedule) and the
    /// cursor of how far into it loads have progressed.
    schedule: Vec<K>,
    sched_pos: HashMap<K, usize>,
    cursor: usize,
    metrics: ArenaMetrics,
    /// Metric values as of the last registry publish; the diff is what
    /// [`publish_obs`](Self::publish_obs) mirrors into the process-wide
    /// counters.
    last_obs: ArenaMetrics,
    /// Process-unique arena id; instance-keys this arena's gauges
    /// (`membudget.resident.hot#<id>`) so concurrently-live arenas (e.g.
    /// parallel tests, per-replica arenas) never mix their residency.
    obs_id: u64,
    /// Precomputed gauge keys: hot / warm / cold residency.
    obs_keys: [String; 3],
}

impl<K: Copy + Eq + Hash + Debug> BudgetedArena<K> {
    /// Arena with the given configuration and eviction policy.
    pub fn new(cfg: BudgetConfig, policy: Box<dyn EvictionPolicy>) -> BudgetedArena<K> {
        let obs_id = ebtrain_obs::next_instance_id();
        BudgetedArena {
            cfg,
            policy,
            entries: HashMap::new(),
            resident: 0,
            peak: 0,
            clock: 0,
            schedule: Vec::new(),
            sched_pos: HashMap::new(),
            cursor: 0,
            metrics: ArenaMetrics::default(),
            last_obs: ArenaMetrics::default(),
            obs_id,
            obs_keys: [
                format!("membudget.resident.hot#{obs_id}"),
                format!("membudget.resident.warm#{obs_id}"),
                format!("membudget.resident.cold#{obs_id}"),
            ],
        }
    }

    /// This arena's instance id — the `#<id>` suffix of its registry
    /// gauges (`membudget.resident.{hot,warm,cold}#<id>`).
    pub fn obs_id(&self) -> u64 {
        self.obs_id
    }

    /// Mirror the counter deltas since the last publish into the
    /// process-wide registry and set the per-tier residency gauges.
    /// Called after every public mutation, so the registry view lags a
    /// public call at most.
    fn publish_obs(&mut self) {
        if !ebtrain_obs::metrics_enabled() {
            return;
        }
        macro_rules! mirror {
            ($name:literal, $field:ident) => {
                ebtrain_obs::counter_add(
                    $name,
                    self.metrics.$field.saturating_sub(self.last_obs.$field),
                );
            };
        }
        mirror!("membudget.demotions", demotions);
        mirror!("membudget.evictions_host", evictions_host);
        mirror!("membudget.drops", drops);
        mirror!("membudget.prefetch.issued", prefetch_issued);
        mirror!("membudget.prefetch.hits", prefetch_hits);
        mirror!("membudget.hits.hot", hot_hits);
        mirror!("membudget.hits.warm", warm_hits);
        mirror!("membudget.hits.host", host_hits);
        mirror!("membudget.partial.bytes_decoded", partial_bytes_decoded);
        mirror!("membudget.partial.bytes_total", partial_bytes_total);
        self.last_obs = self.metrics.clone();
        // Hot/warm gauges carry device-charged bytes (their sum can
        // never exceed the budget — the proptests assert this from the
        // registry side); cold carries the bytes actually held on host.
        let (mut hot, mut warm, mut cold) = (0i64, 0i64, 0i64);
        for e in self.entries.values() {
            match (e.tier(), &e.repr) {
                (Tier::Hot, _) => hot += e.resident as i64,
                (Tier::Warm, _) => warm += e.resident as i64,
                (_, Repr::Host(p)) => cold += p.byte_len() as i64,
                _ => {}
            }
        }
        ebtrain_obs::gauge_set(&self.obs_keys[0], hot);
        ebtrain_obs::gauge_set(&self.obs_keys[1], warm);
        ebtrain_obs::gauge_set(&self.obs_keys[2], cold);
    }

    /// The hard budget in bytes.
    pub fn budget_bytes(&self) -> usize {
        self.cfg.budget_bytes
    }

    /// Bytes currently charged against the budget.
    pub fn resident_bytes(&self) -> usize {
        self.resident
    }

    /// High-water mark of [`resident_bytes`](Self::resident_bytes) since
    /// the last [`reset_peak`](Self::reset_peak). The enforcement proof:
    /// `peak ≤ budget` holds after any call sequence.
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak
    }

    /// Reset the high-water mark to the current residency.
    pub fn reset_peak(&mut self) {
        self.peak = self.resident;
    }

    /// Number of live entries (all tiers).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cumulative counters.
    pub fn metrics(&self) -> ArenaMetrics {
        self.metrics.clone()
    }

    /// Zero the cumulative counters. The registry mirror's baseline
    /// resets with them (registry counters are process-cumulative and
    /// never rewind).
    pub fn reset_metrics(&mut self) {
        self.metrics = ArenaMetrics::default();
        self.last_obs = ArenaMetrics::default();
    }

    /// Current residency tier of `key`, if live.
    pub fn tier_of(&self, key: K) -> Option<Tier> {
        self.entries.get(&key).map(|e| e.tier())
    }

    /// Device bytes currently charged for `key`, if live.
    pub fn resident_of(&self, key: K) -> Option<usize> {
        self.entries.get(&key).map(|e| e.resident)
    }

    /// Declare the expected future access order (the backward schedule).
    /// Drives [`FarthestNextUse`](crate::policy::FarthestNextUse) and the
    /// prefetch pipeline; resets the
    /// schedule cursor.
    pub fn set_schedule(&mut self, order: Vec<K>) {
        self.sched_pos = order.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        self.schedule = order;
        self.cursor = 0;
    }

    /// Drop every entry and any in-flight prefetches. Metrics and peak
    /// survive (use [`reset_metrics`](Self::reset_metrics) /
    /// [`reset_peak`](Self::reset_peak)).
    pub fn clear(&mut self) {
        for (_, e) in self.entries.drain() {
            if let Repr::InFlight(job) = e.repr {
                let _ = job.join();
            }
        }
        self.resident = 0;
        self.schedule.clear();
        self.sched_pos.clear();
        self.cursor = 0;
        self.publish_obs();
    }

    fn charge(&mut self, bytes: usize) {
        self.resident += bytes;
        if self.resident > self.cfg.budget_bytes {
            // Unreachable by construction; counted rather than panicking
            // so release builds surface the bug in reports.
            self.metrics.over_budget_events += 1;
        }
        self.peak = self.peak.max(self.resident);
    }

    fn uncharge(&mut self, bytes: usize) {
        self.resident = self.resident.saturating_sub(bytes);
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Next scheduled access of `key` at or after the cursor.
    fn next_use(&self, key: K) -> Option<usize> {
        self.sched_pos
            .get(&key)
            .copied()
            .filter(|&p| p >= self.cursor)
    }

    /// Pick a victim among live entries of `tier` (excluding `exclude`).
    fn pick_victim(&mut self, tier: Tier, exclude: Option<K>) -> Option<K> {
        let mut keys: Vec<K> = Vec::new();
        let mut cands: Vec<Candidate> = Vec::new();
        for (&k, e) in &self.entries {
            if e.tier() != tier || Some(k) == exclude {
                continue;
            }
            // In-flight prefetches are pinned: their worker owns the
            // payload until joined.
            if matches!(e.repr, Repr::InFlight(_)) {
                continue;
            }
            keys.push(k);
            cands.push(Candidate {
                last_touch: e.last_touch,
                next_use: self.next_use(k),
            });
        }
        self.policy.victim(&cands).map(|i| keys[i])
    }

    /// Compress an f32 payload through the entry's codec under its
    /// bound; `None` when the codec rejects the request (degenerate
    /// bound, unsupported spec).
    fn compress(&mut self, data: &[f32], e: &Entry) -> Option<TaggedStream> {
        let _span = ebtrain_obs::span!("membudget.compress", bytes = data.len() * 4);
        let t0 = Instant::now();
        let out = e.codec.compress(data, e.layout, &e.bound).ok();
        self.metrics.compress_nanos += t0.elapsed().as_nanos() as u64;
        if let Some(stream) = &out {
            self.metrics.bytes_compressed_raw += (data.len() * 4) as u64;
            self.metrics.bytes_compressed_out += stream.compressed_byte_len() as u64;
        }
        out
    }

    /// The cold path for a payload leaving the device: migrate it to
    /// host (compressed payloads travel compressed) or drop it.
    fn send_cold(&mut self, payload: Payload) -> Repr {
        match self.cfg.cold {
            ColdPolicy::HostMigrate => {
                self.metrics.transfer_nanos += transfer_nanos(payload.byte_len());
                self.metrics.evictions_host += 1;
                Repr::Host(payload)
            }
            ColdPolicy::DropForRecompute => {
                self.metrics.drops += 1;
                Repr::Dropped
            }
        }
    }

    /// Move one device entry a rung down the ladder: a raw f32 payload
    /// compresses to warm when that shrinks it, a decoded one keeps only
    /// its stream; anything else (bytes, warm streams, f32 the codec
    /// cannot shrink) leaves the device.
    fn step_down(&mut self, key: K) {
        let Some(mut e) = self.entries.remove(&key) else {
            return;
        };
        let warm = match std::mem::replace(&mut e.repr, Repr::Dropped) {
            Repr::Device(Payload::F32(data)) => match self.compress(&data, &e) {
                // Compression must actually help; an inflating stream
                // sends the raw payload cold instead.
                Some(stream) if stream.compressed_byte_len() < e.resident => Ok(stream),
                _ => Err(Payload::F32(data)),
            },
            Repr::Device(Payload::Decoded(_, stream)) => Ok(stream),
            Repr::Device(payload) => Err(payload),
            other => {
                e.repr = other; // not on device; nothing to do
                self.entries.insert(key, e);
                return;
            }
        };
        self.uncharge(e.resident);
        match warm {
            Ok(stream) => {
                e.resident = stream.compressed_byte_len();
                self.charge(e.resident);
                e.repr = Repr::Device(Payload::Stream(stream));
                self.metrics.demotions += 1;
            }
            Err(payload) => {
                e.resident = 0;
                e.repr = self.send_cold(payload);
            }
        }
        self.entries.insert(key, e);
    }

    /// Step entries down — hot ones first, then warm — until `need`
    /// more bytes fit under `target`. Stops (without erroring) when only
    /// pinned in-flight entries remain; callers re-check the headroom.
    fn shed(&mut self, need: usize, target: usize, exclude: Option<K>) {
        while self.resident + need > target {
            let victim = self
                .pick_victim(Tier::Hot, exclude)
                .or_else(|| self.pick_victim(Tier::Warm, exclude));
            match victim {
                Some(k) => self.step_down(k),
                None => return,
            }
        }
    }

    /// Shrink device residency to at most `target` bytes by walking the
    /// same ladder as insertion pressure: demote hot entries to warm
    /// first, then evict warm entries cold. Returns the bytes actually
    /// freed — less than requested when only pinned (in-flight) entries
    /// remain. This is the cross-arena reclaim hook: a controller
    /// holding several arenas (one per tenant, `ebtrain-serve`) calls it
    /// on the over-fair-share arena to make room under a *global*
    /// ceiling, without inserting anything.
    pub fn reclaim_to(&mut self, target: usize) -> usize {
        let before = self.resident;
        self.shed(0, target, None);
        self.publish_obs();
        before - self.resident
    }

    /// Insert an f32 payload. Lands hot if the budget allows, else warm
    /// (compressed under `eb` / the config bound), else cold. Returns
    /// the tier it landed in.
    pub fn insert_f32(
        &mut self,
        key: K,
        data: Vec<f32>,
        layout: DataLayout,
        eb: Option<f32>,
    ) -> Tier {
        self.insert_f32_with(key, data, layout, eb.map(BoundSpec::Abs), None)
    }

    /// [`insert_f32`](Self::insert_f32) with full routing control: an
    /// explicit [`BoundSpec`] and/or a per-entry codec override (the
    /// per-layer plan's choice) instead of the config defaults.
    pub fn insert_f32_with(
        &mut self,
        key: K,
        data: Vec<f32>,
        layout: DataLayout,
        bound: Option<BoundSpec>,
        codec: Option<Arc<dyn Codec>>,
    ) -> Tier {
        let bound = bound.unwrap_or(self.cfg.bound);
        let codec = codec.unwrap_or_else(|| Arc::clone(&self.cfg.codec));
        self.insert(key, Payload::F32(data), layout, bound, codec)
    }

    /// Insert f32 `values` beside the `stream` they were decoded from by
    /// `codec`: hot and charged both while they fit, else (and when
    /// stepped down) the stream alone, which is never compressed again.
    pub fn insert_stream(
        &mut self,
        key: K,
        values: Vec<f32>,
        stream: TaggedStream,
        layout: DataLayout,
        codec: Arc<dyn Codec>,
    ) -> Tier {
        let bound = self.cfg.bound;
        self.insert(key, Payload::Decoded(values, stream), layout, bound, codec)
    }

    /// Insert an opaque byte payload (masks, index tensors). Never
    /// compressed; evicts to host / drops under pressure like any other
    /// entry.
    pub fn insert_bytes(&mut self, key: K, bytes: Vec<u8>) -> Tier {
        let (bound, codec) = (self.cfg.bound, Arc::clone(&self.cfg.codec));
        self.insert(key, Payload::Bytes(bytes), DataLayout::D1(0), bound, codec)
    }

    /// Place a new payload: on device raw if room can be made, else (an
    /// f32 payload) compressed if that fits, else down the cold path —
    /// under `HostMigrate` a compressed payload travels compressed.
    fn insert(
        &mut self,
        key: K,
        payload: Payload,
        layout: DataLayout,
        bound: BoundSpec,
        codec: Arc<dyn Codec>,
    ) -> Tier {
        self.remove(key);
        self.metrics.inserts += 1;
        let need = payload.byte_len();
        let raw_bytes = match &payload {
            Payload::Decoded(values, _) => values.len() * 4,
            _ => need,
        };
        let mut e = Entry {
            repr: Repr::Dropped,
            layout,
            bound,
            codec,
            raw_bytes,
            resident: 0,
            last_touch: self.tick(),
        };
        let budget = self.cfg.budget_bytes;
        self.shed(need, budget, Some(key));
        // A raw payload that still does not fit has nothing left to shed
        // against, so its stream is placed without shedding again.
        let payload = match payload {
            _ if self.resident + need <= budget => payload,
            Payload::F32(data) => self
                .compress(&data, &e)
                .map_or(Payload::F32(data), Payload::Stream),
            Payload::Decoded(_, stream) => Payload::Stream(stream),
            other => other,
        };
        if self.resident + payload.byte_len() <= budget {
            if matches!(payload, Payload::Stream(_)) {
                self.metrics.demotions += 1;
            }
            e.resident = payload.byte_len();
            self.charge(e.resident);
            e.repr = Repr::Device(payload);
        } else {
            e.repr = self.send_cold(payload);
        }
        let tier = e.tier();
        self.entries.insert(key, e);
        self.publish_obs();
        tier
    }

    /// Move the entry under `old` to `new` without touching its payload,
    /// tier, or budget charge; any existing entry under `new` is removed
    /// first. Returns `false` (and does nothing) when `old` is not live.
    /// The schedule is not rewritten — a renamed key simply stops
    /// matching its scheduled slot, so prefetch skips it. This is the
    /// atomic-replacement hook: a caller stages a new payload under a
    /// scratch key, and only on success renames it over the real one
    /// (`ebtrain-serve`'s store path), so a failed insert never destroys
    /// the previous value.
    pub fn rename(&mut self, old: K, new: K) -> bool {
        if old == new {
            return self.entries.contains_key(&old);
        }
        let Some(e) = self.entries.remove(&old) else {
            return false;
        };
        self.remove(new);
        self.entries.insert(new, e);
        self.publish_obs();
        true
    }

    /// Remove an entry without fetching it (joins an in-flight decode).
    pub fn remove(&mut self, key: K) {
        if let Some(e) = self.entries.remove(&key) {
            self.uncharge(e.resident);
            if let Repr::InFlight(job) = e.repr {
                let _ = job.join();
            }
            self.publish_obs();
        }
    }

    /// Hand a payload back as loaded, decoding a compressed one.
    fn open(&mut self, codec: &Arc<dyn Codec>, payload: Payload) -> Result<Fetched> {
        match payload {
            Payload::F32(data) | Payload::Decoded(data, _) => Ok(Fetched::F32(data)),
            Payload::Bytes(bytes) => Ok(Fetched::Bytes(bytes)),
            Payload::Stream(stream) => decode(&mut self.metrics.decompress_nanos, &stream, |s| {
                codec.decompress(s)
            })
            .map(Fetched::F32),
        }
    }

    /// Fetch (and remove) a payload. Advances the schedule cursor and —
    /// when a schedule is set — issues prefetch decodes for upcoming
    /// warm entries before returning, so they overlap the caller's
    /// compute.
    pub fn load(&mut self, key: K) -> Result<Fetched> {
        let entry = self.entries.remove(&key).ok_or(MembudgetError::Missing)?;
        self.uncharge(entry.resident);
        self.metrics.loads += 1;
        if let Some(pos) = self.sched_pos.get(&key).copied() {
            if pos >= self.cursor {
                self.cursor = pos + 1;
            }
        }
        let tier = entry.tier();
        let fetched = match entry.repr {
            Repr::Device(payload) => {
                match tier {
                    Tier::Warm => self.metrics.warm_hits += 1,
                    _ => self.metrics.hot_hits += 1,
                }
                self.open(&entry.codec, payload)
            }
            Repr::InFlight(job) => {
                self.metrics.prefetch_hits += 1;
                job.join().map(Fetched::F32).map_err(MembudgetError::Codec)
            }
            Repr::Host(payload) => {
                self.metrics.transfer_nanos += transfer_nanos(payload.byte_len());
                self.metrics.host_hits += 1;
                self.open(&entry.codec, payload)
            }
            Repr::Dropped => Err(MembudgetError::Dropped),
        };
        self.prefetch_ahead();
        self.publish_obs();
        fetched
    }

    /// Fetch a **plane range** of an f32 entry *without* removing it —
    /// the partial-fetch path for very large layers whose consumers only
    /// need a slice (plane units are the stream's leading-dimension
    /// slices; see [`ebtrain_sz::DataLayout::plane_elems`]).
    ///
    /// Warm and host-warm entries are served by the entry codec's
    /// [`Codec::decompress_planes`]: frame-capable codecs decode only
    /// the frames covering the range (and, for host entries, only those
    /// bytes pay transfer) — the `partial_bytes_decoded` /
    /// `partial_bytes_total` metrics prove what the fetch touched, and
    /// for codecs without a frame index they honestly report the
    /// documented whole-decode fallback. Raw entries return a plain
    /// slice copy (a host one pays the slice's transfer). An in-flight
    /// prefetch is joined and kept hot.
    pub fn fetch_planes(&mut self, key: K, planes: Range<usize>) -> Result<Vec<f32>> {
        let e = self.settle(key)?;
        let result = self.read_planes(&e, planes);
        self.entries.insert(key, e);
        self.publish_obs();
        result
    }

    /// Borrow an f32 entry's payload as it is held, without removing or
    /// decoding it; counted as a read of its tier, like a plane fetch.
    /// Its hit reaches the obs counters at the next public call.
    pub fn stored(&mut self, key: K) -> Result<Stored<'_>> {
        let e = self.settle(key)?;
        self.entries.insert(key, e);
        self.publish_obs();
        let e = &self.entries[&key];
        let stored = e.repr.stored()?;
        let moved = match &e.repr {
            Repr::Host(p) => p.byte_len(),
            _ => 0,
        };
        self.metrics.count_read(e.tier(), moved);
        Ok(stored)
    }

    /// Take `key`'s entry out for a non-destructive read, touched, with
    /// an in-flight decode joined and kept hot (uncharging the stream the
    /// worker consumed). The caller puts it back.
    fn settle(&mut self, key: K) -> Result<Entry> {
        let touch = self.tick();
        let mut e = self.entries.remove(&key).ok_or(MembudgetError::Missing)?;
        e.repr = match std::mem::replace(&mut e.repr, Repr::Dropped) {
            Repr::InFlight(job) => match job.join() {
                Ok(data) => {
                    self.uncharge(e.resident.saturating_sub(e.raw_bytes));
                    e.resident = e.raw_bytes;
                    self.metrics.prefetch_hits += 1;
                    Repr::Device(Payload::F32(data))
                }
                Err(err) => {
                    // The entry is gone; release its budget charge like
                    // load()/remove() do on removal.
                    self.uncharge(e.resident);
                    return Err(MembudgetError::Codec(err));
                }
            },
            settled => settled,
        };
        e.last_touch = touch;
        Ok(e)
    }

    /// The plane read behind [`fetch_planes`](Self::fetch_planes), on a
    /// settled (not in-flight) entry.
    fn read_planes(&mut self, e: &Entry, planes: Range<usize>) -> Result<Vec<f32>> {
        let (vals, moved) = match e.repr.stored()? {
            Stored::F32(data) | Stored::Decoded(data, _) => {
                let (lo, hi) = plane_elems(e.layout, &planes, data.len())?;
                (data[lo..hi].to_vec(), (hi - lo) * 4)
            }
            Stored::Stream(stream) => {
                // Codecs with a frame index decode only the covering
                // frames; others pay the documented whole-decode
                // fallback (and the byte counters say so honestly).
                let (vals, stats) = decode(&mut self.metrics.decompress_nanos, stream, |s| {
                    e.codec.decompress_planes(s, e.layout, planes)
                })?;
                self.metrics.partial_fetches += 1;
                self.metrics.partial_bytes_decoded += stats.bytes_decoded as u64;
                self.metrics.partial_bytes_total += stats.bytes_total as u64;
                (vals, stats.bytes_decoded)
            }
        };
        self.metrics.count_read(e.tier(), moved);
        Ok(vals)
    }

    /// Issue background decodes for the next scheduled warm entries, up
    /// to the configured depth — but never past the budget: an in-flight
    /// decode is charged for both its compressed source and its raw
    /// result, and prefetch is skipped (not forced via eviction) when
    /// that would not fit.
    fn prefetch_ahead(&mut self) {
        if self.cfg.prefetch_depth == 0 {
            return;
        }
        let mut in_flight = self
            .entries
            .values()
            .filter(|e| matches!(e.repr, Repr::InFlight(_)))
            .count();
        let mut pos = self.cursor;
        while in_flight < self.cfg.prefetch_depth && pos < self.schedule.len() {
            let key = self.schedule[pos];
            pos += 1;
            let Some(e) = self.entries.get_mut(&key) else {
                continue;
            };
            let extra = e.raw_bytes;
            if e.tier() != Tier::Warm || self.resident + extra > self.cfg.budget_bytes {
                continue; // not warm, or would over-commit: served inline later
            }
            if let Repr::Device(Payload::Stream(stream)) =
                std::mem::replace(&mut e.repr, Repr::Dropped)
            {
                e.repr = Repr::InFlight(DecodeJob::spawn(Arc::clone(&e.codec), stream));
                e.resident += extra;
                self.charge(extra);
                self.metrics.prefetch_issued += 1;
                in_flight += 1;
            }
        }
    }
}

impl<K> Drop for BudgetedArena<K> {
    fn drop(&mut self) {
        for (_, e) in self.entries.drain() {
            if let Repr::InFlight(job) = e.repr {
                let _ = job.join();
            }
        }
        // Retire this arena's instance-keyed gauges so snapshots only
        // ever show live arenas.
        for key in &self.obs_keys {
            ebtrain_obs::gauge_remove(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FarthestNextUse, Lru};

    fn volume(n: usize, seed: u64) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32 + seed as f32) * 0.013).sin())
            .collect()
    }

    fn arena(budget: usize) -> BudgetedArena<u32> {
        BudgetedArena::new(BudgetConfig::with_budget(budget), Box::new(Lru))
    }

    #[test]
    fn fits_hot_when_budget_allows() {
        let mut a = arena(1 << 20);
        let data = volume(1000, 0);
        let tier = a.insert_f32(7, data.clone(), DataLayout::D1(1000), None);
        assert_eq!(tier, Tier::Hot);
        assert_eq!(a.resident_bytes(), 4000);
        match a.load(7).unwrap() {
            Fetched::F32(v) => assert_eq!(v, data),
            _ => panic!("wrong payload"),
        }
        assert_eq!(a.resident_bytes(), 0);
        assert!(a.is_empty());
    }

    #[test]
    fn pressure_demotes_then_evicts_and_budget_holds() {
        // Budget fits ~1.5 raw volumes: the second insert must demote the
        // first to warm; repeated inserts push old entries to host.
        use rand::{Rng, SeedableRng};
        let n = 64 * 64;
        let raw = n * 4;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let noisy = |rng: &mut rand::rngs::StdRng| -> Vec<f32> {
            (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
        };
        let mut originals = Vec::new();
        let mut a = arena(raw + raw / 2);
        for k in 0..6u32 {
            let data = noisy(&mut rng);
            originals.push(data.clone());
            a.insert_f32(k, data, DataLayout::D2(64, 64), Some(1e-2));
            assert!(
                a.peak_resident_bytes() <= a.budget_bytes(),
                "peak {} > budget {} after insert {k}",
                a.peak_resident_bytes(),
                a.budget_bytes()
            );
        }
        let m = a.metrics();
        assert!(m.demotions > 0, "no demotions under pressure");
        assert!(m.evictions_host > 0, "no evictions under pressure");
        assert_eq!(m.over_budget_events, 0);
        // Every payload still loads (host tier keeps everything).
        for k in 0..6u32 {
            let Fetched::F32(v) = a.load(k).unwrap() else {
                panic!("wrong payload")
            };
            for (x, y) in originals[k as usize].iter().zip(&v) {
                assert!((x - y).abs() <= 1e-2 + 1e-6);
            }
        }
    }

    #[test]
    fn drop_policy_loses_overflow_and_reports_it() {
        let n = 64 * 64;
        let mut cfg = BudgetConfig::with_budget(100); // absurdly tight
        cfg.cold = ColdPolicy::DropForRecompute;
        let mut a: BudgetedArena<u32> = BudgetedArena::new(cfg, Box::new(Lru));
        let tier = a.insert_f32(1, volume(n, 1), DataLayout::D2(64, 64), Some(1e-2));
        assert_eq!(tier, Tier::Dropped);
        assert_eq!(a.metrics().drops, 1);
        assert!(matches!(a.load(1), Err(MembudgetError::Dropped)));
        assert!(matches!(a.load(99), Err(MembudgetError::Missing)));
    }

    #[test]
    fn bytes_payloads_roundtrip_and_migrate() {
        let mut a = arena(64);
        assert_eq!(a.insert_bytes(1, vec![0xAB; 48]), Tier::Hot);
        // Second insert exceeds the budget; the first must leave for host.
        assert_eq!(a.insert_bytes(2, vec![0xCD; 48]), Tier::Hot);
        assert_eq!(a.tier_of(1), Some(Tier::Cold));
        assert!(a.peak_resident_bytes() <= 64);
        let Fetched::Bytes(b1) = a.load(1).unwrap() else {
            panic!()
        };
        assert_eq!(b1, vec![0xAB; 48]);
        assert!(a.metrics().transfer_nanos > 0);
    }

    #[test]
    fn schedule_prefetch_overlaps_and_hits() {
        let n = 32 * 32;
        let raw = n * 4;
        // Budget: two raw volumes -> later inserts sit warm.
        let mut cfg = BudgetConfig::with_budget(raw * 2);
        cfg.prefetch_depth = 2;
        let mut a: BudgetedArena<u32> = BudgetedArena::new(cfg, Box::new(FarthestNextUse));
        let keys: Vec<u32> = (0..5).collect();
        for &k in &keys {
            a.insert_f32(k, volume(n, k as u64), DataLayout::D2(32, 32), Some(1e-2));
        }
        // Backward touches keys in reverse.
        let schedule: Vec<u32> = keys.iter().rev().copied().collect();
        a.set_schedule(schedule.clone());
        for &k in &schedule {
            let Fetched::F32(v) = a.load(k).unwrap() else {
                panic!()
            };
            assert_eq!(v.len(), n);
            assert!(a.peak_resident_bytes() <= a.budget_bytes());
        }
        let m = a.metrics();
        assert!(
            m.prefetch_issued > 0 && m.prefetch_hits > 0,
            "prefetch never engaged: {m:?}"
        );
        assert_eq!(m.over_budget_events, 0);
    }

    #[test]
    fn farthest_next_use_keeps_soon_needed_entries_hot() {
        let n = 32 * 32;
        let raw = n * 4;
        // Room for exactly 2 raw volumes (plus slack below a third).
        let mut cfg = BudgetConfig::with_budget(raw * 2 + raw / 2);
        cfg.prefetch_depth = 0;
        let mut a: BudgetedArena<u32> = BudgetedArena::new(cfg, Box::new(FarthestNextUse));
        // Backward will touch 2 first, then 1, then 0.
        a.set_schedule(vec![2, 1, 0]);
        for k in 0..3u32 {
            a.insert_f32(k, volume(n, k as u64), DataLayout::D2(32, 32), Some(1e-2));
        }
        // Key 0 is needed last -> it should be the demoted one.
        assert_eq!(a.tier_of(0), Some(Tier::Warm));
        assert_eq!(a.tier_of(2), Some(Tier::Hot));
    }

    #[test]
    fn partial_fetch_decodes_fewer_bytes_than_full_stream() {
        // A large warm entry fetched by plane range must only touch the
        // frames covering the range — the satellite's bytes-touched
        // guarantee for huge layers.
        let planes = 64usize;
        let pw = 48usize; // plane width
        let n = planes * pw * pw;
        let data = volume(n, 9);
        // Budget below the raw size but above the compressed size: the
        // insert lands warm.
        let mut cfg = BudgetConfig::with_budget(n); // raw is n*4
        cfg.codec = Arc::new(SzCodec::new({
            let mut sz = ebtrain_sz::SzConfig::with_error_bound(1e-3);
            sz.chunk_planes = Some(4);
            sz
        }));
        let mut a: BudgetedArena<u32> = BudgetedArena::new(cfg, Box::new(Lru));
        let tier = a.insert_f32(1, data.clone(), DataLayout::D3(planes, pw, pw), Some(1e-3));
        assert_eq!(tier, Tier::Warm);
        let vals = a.fetch_planes(1, 10..14).unwrap();
        assert_eq!(vals.len(), 4 * pw * pw);
        for (i, v) in vals.iter().enumerate() {
            let orig = data[10 * pw * pw + i];
            assert!(
                (orig - v).abs() <= 1e-3 + 1e-6 || orig.abs() <= 2e-3,
                "elem {i}: {orig} vs {v}"
            );
        }
        let m = a.metrics();
        assert_eq!(m.partial_fetches, 1);
        assert!(
            m.partial_bytes_decoded < m.partial_bytes_total,
            "partial fetch touched the whole stream: {} of {}",
            m.partial_bytes_decoded,
            m.partial_bytes_total
        );
        // The entry is still resident and still loads whole.
        assert_eq!(a.tier_of(1), Some(Tier::Warm));
        let Fetched::F32(v) = a.load(1).unwrap() else {
            panic!()
        };
        assert_eq!(v.len(), n);
    }

    #[test]
    fn partial_fetch_serves_hot_and_rejects_bad_ranges() {
        let mut a = arena(1 << 20);
        let n = 4096 + 100; // final D1 plane is partial
        let data = volume(n, 4);
        a.insert_f32(5, data.clone(), DataLayout::D1(n), None);
        assert_eq!(a.tier_of(5), Some(Tier::Hot));
        // Hot path: a plain slice copy (D1 planes are 4096-element runs).
        let vals = a.fetch_planes(5, 1..2).unwrap();
        assert_eq!(vals, data[4096..]);
        // Empty range at the tail of a partial final plane: empty, not a
        // slice panic.
        assert_eq!(a.fetch_planes(5, 2..2).unwrap(), Vec::<f32>::new());
        assert!(a.fetch_planes(5, 0..3).is_err(), "range past plane count");
        assert!(matches!(
            a.fetch_planes(99, 0..1),
            Err(MembudgetError::Missing)
        ));
        a.insert_bytes(6, vec![1, 2, 3]);
        assert!(
            a.fetch_planes(6, 0..1).is_err(),
            "byte entries have no planes"
        );
    }

    #[test]
    fn reclaim_to_walks_the_tier_ladder_and_reports_freed_bytes() {
        let n = 64 * 64;
        let raw = n * 4;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut a = arena(raw * 4);
        for k in 0..3u32 {
            let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            assert_eq!(
                a.insert_f32(k, data, DataLayout::D2(64, 64), Some(1e-2)),
                Tier::Hot
            );
        }
        let before = a.resident_bytes();
        // Partial reclaim: demotions suffice, everything stays on device.
        let freed = a.reclaim_to(raw);
        assert_eq!(freed, before - a.resident_bytes());
        assert!(a.resident_bytes() <= raw, "reclaim missed its target");
        assert!(a.metrics().demotions > 0);
        // Full reclaim: warm entries leave for host, residency hits zero.
        let freed = a.reclaim_to(0);
        assert_eq!(a.resident_bytes(), 0);
        assert!(freed > 0);
        assert!(a.metrics().evictions_host > 0);
        // Entries survive the trip (HostMigrate keeps payloads).
        for k in 0..3u32 {
            assert!(matches!(a.load(k), Ok(Fetched::F32(_))), "lost key {k}");
        }
        // Idempotent when already under target.
        assert_eq!(a.reclaim_to(1 << 30), 0);
    }

    #[test]
    fn reinserting_a_key_replaces_and_recharges_once() {
        let mut a = arena(1 << 20);
        a.insert_f32(3, volume(100, 1), DataLayout::D1(100), None);
        a.insert_f32(3, volume(200, 2), DataLayout::D1(200), None);
        assert_eq!(a.resident_bytes(), 800);
        assert_eq!(a.len(), 1);
        let Fetched::F32(v) = a.load(3).unwrap() else {
            panic!()
        };
        assert_eq!(v.len(), 200);
    }

    #[test]
    fn rename_moves_the_entry_and_keeps_the_charge() {
        let mut a = arena(1 << 20);
        a.insert_f32(1, volume(100, 1), DataLayout::D1(100), None);
        a.insert_f32(2, volume(200, 2), DataLayout::D1(200), None);
        let before = a.resident_bytes();
        // Rename over a live key: the target is displaced, the charge
        // reflects the moved entry only.
        assert!(a.rename(2, 1));
        assert_eq!(a.len(), 1);
        assert_eq!(a.resident_bytes(), before - 400);
        let Fetched::F32(v) = a.load(1).unwrap() else {
            panic!()
        };
        assert_eq!(v, volume(200, 2), "rename must carry the payload");
        // Renaming a missing key is a no-op that reports failure.
        assert!(!a.rename(9, 10));
        // Self-rename: true iff the key exists.
        a.insert_f32(5, volume(10, 3), DataLayout::D1(10), None);
        assert!(a.rename(5, 5));
        assert!(!a.rename(6, 6));
    }

    #[test]
    fn insert_stream_ladder_sheds_the_values_and_never_compresses() {
        let n = 32 * 32;
        let (raw, layout) = (n * 4, DataLayout::D2(32, 32));
        let codec: Arc<dyn Codec> = Arc::new(SzCodec::classic());
        let pair = |seed| {
            let stream = codec
                .compress(&volume(n, seed), layout, &BoundSpec::Abs(1e-3))
                .unwrap();
            (codec.decompress(&stream).unwrap(), stream)
        };
        let pairs: Vec<(Vec<f32>, TaggedStream)> = (0..4).map(pair).collect();
        let len = |k: usize| pairs[k].1.compressed_byte_len();
        for cold in [ColdPolicy::HostMigrate, ColdPolicy::DropForRecompute] {
            // Room for one pair and two streams, not three.
            let mut cfg = BudgetConfig::with_budget(raw + len(1) + len(2) + len(0) / 2);
            cfg.cold = cold;
            let mut a: BudgetedArena<u32> = BudgetedArena::new(cfg, Box::new(Lru));
            let insert = |a: &mut BudgetedArena<u32>, k: u32| {
                let (values, stream) = pairs[k as usize].clone();
                a.insert_stream(k, values, stream, layout, Arc::clone(&codec))
            };
            // Hot and inclusive: charged the values and the stream.
            assert_eq!(insert(&mut a, 0), Tier::Hot);
            assert_eq!(a.resident_bytes(), raw + len(0));
            assert_eq!(
                a.stored(0).unwrap(),
                Stored::Decoded(&pairs[0].0, &pairs[0].1)
            );
            // The next pair steps it down to its stream alone.
            assert_eq!(insert(&mut a, 1), Tier::Hot);
            assert_eq!(a.tier_of(0), Some(Tier::Warm));
            assert_eq!(a.resident_of(0), Some(len(0)));
            // A third sends the LRU stream cold.
            assert_eq!(insert(&mut a, 2), Tier::Hot);
            assert_eq!(a.tier_of(1), Some(Tier::Warm));
            assert_eq!(a.stored(1).unwrap(), Stored::Stream(&pairs[1].1));
            let gone = if cold == ColdPolicy::HostMigrate {
                assert_eq!(a.stored(0).unwrap(), Stored::Stream(&pairs[0].1));
                Tier::Cold
            } else {
                Tier::Dropped
            };
            assert_eq!(a.tier_of(0), Some(gone));
            assert_eq!(a.resident_bytes(), raw + len(2) + len(1));
            let m = a.metrics();
            assert_eq!((m.bytes_compressed_raw, m.demotions), (0, 2));
            // Every read is the decode the caller vouched for.
            for k in 0..3u32 {
                match a.load(k) {
                    Ok(Fetched::F32(v)) => assert_eq!(v, pairs[k as usize].0, "key {k}"),
                    Err(MembudgetError::Dropped) => assert_eq!((k, gone), (0, Tier::Dropped)),
                    other => panic!("key {k}: {other:?}"),
                }
            }
            // A pair that cannot fit lands its stream alone.
            let mut cfg = BudgetConfig::with_budget(raw);
            cfg.cold = cold;
            let mut a: BudgetedArena<u32> = BudgetedArena::new(cfg, Box::new(Lru));
            assert_eq!(insert(&mut a, 3), Tier::Warm);
            assert_eq!(a.resident_bytes(), len(3));
            assert_eq!(a.fetch_planes(3, 0..32).unwrap(), pairs[3].0);
            assert_eq!(a.metrics().bytes_compressed_raw, 0);
        }
    }

    #[test]
    fn clear_joins_flights_and_zeroes_residency() {
        let n = 32 * 32;
        let mut cfg = BudgetConfig::with_budget(n * 4 * 2);
        cfg.prefetch_depth = 4;
        let mut a: BudgetedArena<u32> = BudgetedArena::new(cfg, Box::new(Lru));
        for k in 0..4u32 {
            a.insert_f32(k, volume(n, k as u64), DataLayout::D2(32, 32), Some(1e-2));
        }
        a.set_schedule(vec![3, 2, 1, 0]);
        let _ = a.load(3); // triggers prefetch issue
        a.clear();
        assert_eq!(a.resident_bytes(), 0);
        assert!(a.is_empty());
    }
}
