//! Activation storage policies.
//!
//! A training iteration parks every tensor needed by backward into an
//! [`ActivationStore`]; the store decides the in-"device-memory"
//! representation. Four policies: [`NullStore`] (inference), [`RawStore`]
//! (the baseline every saving is measured against), [`CompressedStore`]
//! (the paper's framework, whose constructors also build the fixed
//! comparators it is evaluated against: lossless, migration,
//! compress-then-migrate) and [`BudgetedStore`] (a hard device-byte
//! budget over the tiered arena). All stores account current and peak
//! bytes, which is what the memory-reduction experiments (paper Fig
//! 2/10/11, Table 1) report.

use crate::layer::{LayerId, SaveHint, Saved, SlotId};
use crate::{DnnError, Result};
use ebtrain_membudget::{BudgetedArena, EvictionPolicy, Fetched, MembudgetError};
// Budget-manager configuration surface, re-exported so downstream crates
// (core, bench) configure a `BudgetedStore` without a direct
// `ebtrain-membudget` dependency.
pub use ebtrain_membudget::{
    ArenaMetrics, BudgetConfig, ColdPolicy, FarthestNextUse, Lru, Tier as BudgetTier,
};
// Codec abstraction surface, re-exported for the same reason: everything
// a consumer needs to configure or route backends without a direct
// `ebtrain-codec` dependency.
pub use ebtrain_codec::{
    BoundSpec, ByteplaneCodec, Codec, CodecId, CodecRegistry, ErrorContract, LosslessCodec,
    SzCodec, TaggedStream, ZfpLikeCodec,
};
use ebtrain_sz::{DataLayout, SzConfig};
use ebtrain_tensor::Tensor;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Resident store bytes split by what a slot is held as.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotBytes {
    /// Codec streams: compressible float slots after encoding.
    pub encoded: u64,
    /// Float tensors held as raw f32.
    pub float_raw: u64,
    /// Bit-packed slots: ReLU/dropout masks and pool window offsets.
    pub bits: u64,
}

impl SlotBytes {
    /// Sum over the kinds.
    pub fn total(&self) -> u64 {
        self.encoded + self.float_raw + self.bits
    }

    fn of(&mut self, kind: SlotKind) -> &mut u64 {
        match kind {
            SlotKind::Encoded => &mut self.encoded,
            SlotKind::FloatRaw => &mut self.float_raw,
            SlotKind::Bits => &mut self.bits,
        }
    }
}

/// Which [`SlotBytes`] field a resident slot counts under.
#[derive(Debug, Clone, Copy)]
enum SlotKind {
    Encoded,
    FloatRaw,
    Bits,
}

/// Bytes of a value held raw, and the kind they count under.
fn raw_footprint(value: &Saved) -> (usize, SlotKind) {
    let kind = match value {
        Saved::F32(_) => SlotKind::FloatRaw,
        Saved::Bits { .. } => SlotKind::Bits,
    };
    (value.byte_size(), kind)
}

/// Cumulative store metrics (reset with
/// [`ActivationStore::reset_metrics`]).
#[derive(Debug, Clone, Default)]
pub struct StoreMetrics {
    /// Raw bytes of everything saved (what the baseline would have held).
    pub raw_bytes_saved: u64,
    /// Bytes actually held after the store's transformation.
    pub stored_bytes_saved: u64,
    /// Raw bytes of *compressible* slots only (conv and FC inputs).
    pub compressible_raw_bytes: u64,
    /// Stored bytes of compressible slots only.
    pub compressible_stored_bytes: u64,
    /// Time spent compressing.
    pub compress_nanos: u64,
    /// Time spent decompressing.
    pub decompress_nanos: u64,
    /// Simulated interconnect transfer time (stores with a host link:
    /// [`CompressedStore::migrated`] / [`CompressedStore::hybrid`], and
    /// [`BudgetedStore`]'s host tier).
    pub simulated_transfer_nanos: u64,
    /// Per-layer raw/stored byte totals for compressible slots.
    pub per_layer: HashMap<LayerId, (u64, u64)>,
    /// What the resident bytes were made of right after the save that
    /// last raised [`peak_bytes`](ActivationStore::peak_bytes). Follows
    /// the peak, not the counters: reset by
    /// [`reset_peak`](ActivationStore::reset_peak), kept by
    /// [`reset_metrics`](ActivationStore::reset_metrics). Sums to the peak
    /// except under [`BudgetedStore`], whose arena can also peak inside
    /// an insert or a prefetch.
    pub peak: SlotBytes,
}

impl StoreMetrics {
    /// Overall compression ratio across compressible slots.
    ///
    /// Honest accounting: `1.0` only when nothing compressible was saved;
    /// a store that saved compressible bytes and kept **zero** of them
    /// resident (full elision — migration, drop-for-recompute) reports
    /// `f64::INFINITY`, not a fake `1.0` that understates the reduction.
    pub fn compressible_ratio(&self) -> f64 {
        if self.compressible_raw_bytes == 0 {
            1.0
        } else if self.compressible_stored_bytes == 0 {
            f64::INFINITY
        } else {
            self.compressible_raw_bytes as f64 / self.compressible_stored_bytes as f64
        }
    }

    /// Per-layer ratio for a given layer, if it saved compressible data.
    /// Same contract as [`compressible_ratio`](Self::compressible_ratio):
    /// fully-elided layers report `f64::INFINITY`.
    pub fn layer_ratio(&self, layer: LayerId) -> Option<f64> {
        self.per_layer.get(&layer).map(|&(raw, stored)| {
            if raw == 0 {
                1.0
            } else if stored == 0 {
                f64::INFINITY
            } else {
                raw as f64 / stored as f64
            }
        })
    }

    /// Count one save of `raw` bytes held as `stored`.
    fn record_save(&mut self, slot: SlotId, raw: usize, stored: usize, compressible: bool) {
        self.raw_bytes_saved += raw as u64;
        self.stored_bytes_saved += stored as u64;
        if compressible {
            self.compressible_raw_bytes += raw as u64;
            self.compressible_stored_bytes += stored as u64;
            let e = self.per_layer.entry(slot.0).or_insert((0, 0));
            e.0 += raw as u64;
            e.1 += stored as u64;
        }
    }
}

/// Storage policy interface; see the module docs.
pub trait ActivationStore {
    /// Park `value` under `slot` until backward asks for it.
    fn save(&mut self, slot: SlotId, value: Saved, hint: SaveHint);
    /// Retrieve (and remove) a saved value.
    fn load(&mut self, slot: SlotId) -> Result<Saved>;
    /// Bytes currently held in device memory.
    fn current_bytes(&self) -> usize;
    /// High-water mark since the last [`reset_peak`](Self::reset_peak).
    fn peak_bytes(&self) -> usize;
    /// Reset the high-water mark to the current level.
    fn reset_peak(&mut self);
    /// Snapshot of cumulative metrics.
    fn metrics(&self) -> StoreMetrics;
    /// Zero the cumulative metrics.
    fn reset_metrics(&mut self);
    /// Mark the start of a training step. Returns whether the step may
    /// drop a payload (see [`step_dropped`](Self::step_dropped)), and so
    /// must keep its batch to run forward again.
    fn begin_step(&mut self) -> bool {
        false
    }
    /// True when a payload saved since [`begin_step`](Self::begin_step)
    /// was dropped, so backward cannot run on this step's saves. A store
    /// returns `true` only after discarding them; the step then recomputes
    /// (see [`train_step_synced`](crate::train::train_step_synced)).
    fn step_dropped(&mut self) -> bool {
        false
    }
}

/// Byte accounting shared by the store impls.
#[derive(Debug, Default)]
struct Accountant {
    /// Resident bytes by kind; `metrics.peak` is its value at the peak.
    live: SlotBytes,
    peak: usize,
    metrics: StoreMetrics,
}

impl Accountant {
    fn current(&self) -> usize {
        self.live.total() as usize
    }

    fn on_save(
        &mut self,
        slot: SlotId,
        raw: usize,
        (stored, kind): (usize, SlotKind),
        compressible: bool,
    ) {
        *self.live.of(kind) += stored as u64;
        if self.current() > self.peak {
            self.peak = self.current();
            self.metrics.peak = self.live;
        }
        self.metrics.record_save(slot, raw, stored, compressible);
    }

    fn on_load(&mut self, (stored, kind): (usize, SlotKind)) {
        let bytes = self.live.of(kind);
        *bytes = bytes.saturating_sub(stored as u64);
    }

    fn reset_peak(&mut self) {
        self.peak = self.current();
        self.metrics.peak = self.live;
    }

    fn reset_metrics(&mut self) {
        self.metrics = StoreMetrics {
            peak: self.metrics.peak,
            ..StoreMetrics::default()
        };
    }
}

fn missing(slot: SlotId) -> DnnError {
    DnnError::State(format!("no saved activation for slot {slot:?}"))
}

/// Store for inference: drops saves, rejects loads, accounts nothing.
#[derive(Debug, Default)]
pub struct NullStore;

impl ActivationStore for NullStore {
    fn save(&mut self, _slot: SlotId, _value: Saved, _hint: SaveHint) {}
    fn load(&mut self, slot: SlotId) -> Result<Saved> {
        Err(missing(slot))
    }
    fn current_bytes(&self) -> usize {
        0
    }
    fn peak_bytes(&self) -> usize {
        0
    }
    fn reset_peak(&mut self) {}
    fn metrics(&self) -> StoreMetrics {
        StoreMetrics::default()
    }
    fn reset_metrics(&mut self) {}
}

/// Baseline policy: everything stays raw in device memory.
#[derive(Debug, Default)]
pub struct RawStore {
    slots: HashMap<SlotId, Saved>,
    acc: Accountant,
}

impl RawStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ActivationStore for RawStore {
    fn save(&mut self, slot: SlotId, value: Saved, hint: SaveHint) {
        if let Some(old) = self.slots.remove(&slot) {
            self.acc.on_load(raw_footprint(&old));
        }
        let footprint = raw_footprint(&value);
        self.acc
            .on_save(slot, footprint.0, footprint, hint.compressible);
        self.slots.insert(slot, value);
    }

    fn load(&mut self, slot: SlotId) -> Result<Saved> {
        let v = self.slots.remove(&slot).ok_or_else(|| missing(slot))?;
        self.acc.on_load(raw_footprint(&v));
        Ok(v)
    }

    fn current_bytes(&self) -> usize {
        self.acc.current()
    }
    fn peak_bytes(&self) -> usize {
        self.acc.peak
    }
    fn reset_peak(&mut self) {
        self.acc.reset_peak();
    }
    fn metrics(&self) -> StoreMetrics {
        self.acc.metrics.clone()
    }
    fn reset_metrics(&mut self) {
        self.acc.reset_metrics();
    }
}

enum CompressedEntry {
    Raw(Saved),
    Encoded {
        stream: TaggedStream,
        shape: Vec<usize>,
        /// The codec that produced `stream` (decodes it on load without
        /// a registry round-trip).
        codec: Arc<dyn Codec>,
    },
}

impl CompressedEntry {
    /// Bytes held, and the kind they count under.
    fn footprint(&self) -> (usize, SlotKind) {
        match self {
            CompressedEntry::Raw(s) => raw_footprint(s),
            CompressedEntry::Encoded { stream, .. } => {
                (stream.compressed_byte_len(), SlotKind::Encoded)
            }
        }
    }

    /// Leave the store: decode if encoded.
    fn into_saved(self, metrics: &mut StoreMetrics) -> Result<Saved> {
        match self {
            CompressedEntry::Raw(s) => Ok(s),
            CompressedEntry::Encoded {
                stream,
                shape,
                codec,
            } => {
                let t0 = Instant::now();
                let data = codec.decompress(&stream)?;
                metrics.decompress_nanos += t0.elapsed().as_nanos() as u64;
                Ok(Saved::F32(Tensor::from_vec(&shape, data)?))
            }
        }
    }
}

/// The encoding half of a [`CompressedStore`].
struct Encoder {
    /// Default backend when the plan gives no per-layer codec.
    codec: Arc<dyn Codec>,
    /// Resolves per-layer codec ids from the plan.
    registry: CodecRegistry,
    /// Fallback bound when the plan gives no per-layer bound.
    default_bound: BoundSpec,
}

impl Encoder {
    /// Encode under the hint's codec and bound, falling back to the
    /// defaults.
    fn encode(&self, t: Tensor, hint: &SaveHint, metrics: &mut StoreMetrics) -> CompressedEntry {
        let codec = hint
            .codec
            .and_then(|id| self.registry.get(id))
            .unwrap_or_else(|| Arc::clone(&self.codec));
        let bound = hint
            .error_bound
            .map(BoundSpec::Abs)
            .unwrap_or(self.default_bound);
        let layout = DataLayout::for_shape(t.shape());
        let t0 = Instant::now();
        match codec.compress(t.data(), layout, &bound) {
            Ok(stream) => {
                metrics.compress_nanos += t0.elapsed().as_nanos() as u64;
                CompressedEntry::Encoded {
                    stream,
                    shape: t.shape().to_vec(),
                    codec,
                }
            }
            // Invalid bound (e.g. controller produced 0): degrade to raw
            // rather than corrupting training.
            Err(_) => CompressedEntry::Raw(Saved::F32(t)),
        }
    }
}

/// The fixed-policy store: a compressible float slot may go through an
/// error-bounded codec and may leave device memory over a modelled host
/// link; everything else stays raw on device. The paper's framework and
/// the comparators it is evaluated against differ only in which of the
/// two halves their constructor sets:
///
/// | constructor | encoder | host link | policy |
/// |---|---|---|---|
/// | [`new`](Self::new), [`with_codec`](Self::with_codec) | SZ / any | — | the paper's framework (§4) |
/// | [`lossless`](Self::lossless) | [`LosslessCodec`] | — | lossless comparator (§5.3, the "within 2×" class) |
/// | [`migrated`](Self::migrated), [`pcie3`](Self::pcie3) | — | yes | vDNN/Layrub-class migration (§2.1) |
/// | [`hybrid`](Self::hybrid) | SZ | yes | compress, then migrate the stream (§6) |
///
/// Encoding is backend-agnostic (DESIGN.md §8): an `Arc<dyn Codec>`
/// default plus a [`CodecRegistry`], through which the per-layer plan
/// routes individual layers to other backends (e.g. precision-sensitive
/// layers to [`CodecId::LOSSLESS`]) via [`SaveHint::codec`]. With the SZ
/// backend, both compress and decompress fan the tensor's chunks across
/// worker threads.
///
/// With an encoder only a codec stream crosses the link (a failed encode
/// stays on device); without one every compressible slot does. A slot
/// that crosses is saved at its encoded length (0 if nothing was encoded)
/// and released at once; each crossing charges `bytes / bandwidth` of
/// simulated transfer time.
pub struct CompressedStore {
    /// Each slot, with the simulated time of one link crossing when it
    /// was sent to host.
    slots: HashMap<SlotId, (CompressedEntry, Option<u64>)>,
    acc: Accountant,
    /// Encodes compressible float slots; `None` keeps them raw.
    encoder: Option<Encoder>,
    /// Host-link bandwidth in bytes/s; `None` keeps every slot on device.
    bandwidth_bps: Option<f64>,
}

impl CompressedStore {
    /// Paper-mode store: SZ backend with a fallback [`SzConfig`]
    /// (per-layer bounds from the controller override
    /// `default_config.error_bound`).
    pub fn new(default_config: SzConfig) -> Self {
        let bound = BoundSpec::Abs(default_config.error_bound);
        Self::with_codec(Arc::new(SzCodec::new(default_config)), bound)
    }

    /// Store over any backend, with the standard registry for per-layer
    /// routing.
    pub fn with_codec(codec: Arc<dyn Codec>, default_bound: BoundSpec) -> Self {
        CompressedStore {
            slots: HashMap::new(),
            acc: Accountant::default(),
            encoder: Some(Encoder {
                codec,
                registry: CodecRegistry::standard(),
                default_bound,
            }),
            bandwidth_bps: None,
        }
    }

    /// Lossless comparator: every compressible slot bit-exact through
    /// [`LosslessCodec`].
    pub fn lossless() -> Self {
        Self::with_codec(Arc::new(LosslessCodec), BoundSpec::Lossless)
    }

    /// Migration over a link of the given bandwidth (bytes/s): each
    /// compressible slot leaves device memory raw and comes back for
    /// backward.
    pub fn migrated(bandwidth_bps: f64) -> Self {
        CompressedStore {
            slots: HashMap::new(),
            acc: Accountant::default(),
            encoder: None,
            bandwidth_bps: Some(bandwidth_bps.max(1.0)),
        }
    }

    /// Migration over PCIe 3.0 x16 (~12 GB/s effective).
    pub fn pcie3() -> Self {
        Self::migrated(ebtrain_membudget::HOST_LINK_BPS)
    }

    /// Compress-then-migrate with the given SZ config and link bandwidth
    /// (bytes/s).
    pub fn hybrid(config: SzConfig, bandwidth_bps: f64) -> Self {
        CompressedStore {
            encoder: Self::new(config).encoder,
            ..Self::migrated(bandwidth_bps)
        }
    }
}

impl ActivationStore for CompressedStore {
    fn save(&mut self, slot: SlotId, value: Saved, hint: SaveHint) {
        if let Some((old, None)) = self.slots.remove(&slot) {
            self.acc.on_load(old.footprint());
        }
        let raw = value.byte_size();
        let entry = match (value, &self.encoder) {
            (Saved::F32(t), Some(enc)) if hint.compressible => {
                enc.encode(t, &hint, &mut self.acc.metrics)
            }
            (other, _) => CompressedEntry::Raw(other),
        };
        let (stored, kind) = entry.footprint();
        let encoded = matches!(kind, SlotKind::Encoded);
        let crossing = self
            .bandwidth_bps
            .filter(|_| hint.compressible && (encoded || self.encoder.is_none()))
            .map(|bps| (stored as f64 / bps * 1e9) as u64);
        let resident = if crossing.is_some() && !encoded {
            0
        } else {
            stored
        };
        self.acc
            .on_save(slot, raw, (resident, kind), hint.compressible);
        if let Some(nanos) = crossing {
            self.acc.on_load((resident, kind));
            self.acc.metrics.simulated_transfer_nanos += nanos;
        }
        self.slots.insert(slot, (entry, crossing));
    }

    fn load(&mut self, slot: SlotId) -> Result<Saved> {
        let (entry, crossing) = self.slots.remove(&slot).ok_or_else(|| missing(slot))?;
        match crossing {
            Some(nanos) => self.acc.metrics.simulated_transfer_nanos += nanos,
            None => self.acc.on_load(entry.footprint()),
        }
        entry.into_saved(&mut self.acc.metrics)
    }

    fn current_bytes(&self) -> usize {
        self.acc.current()
    }
    fn peak_bytes(&self) -> usize {
        self.acc.peak
    }
    fn reset_peak(&mut self) {
        self.acc.reset_peak();
    }
    fn metrics(&self) -> StoreMetrics {
        self.acc.metrics.clone()
    }
    fn reset_metrics(&mut self) {
        self.acc.reset_metrics();
    }
}

/// How a [`Saved`] value is reconstructed from a budgeted-arena payload.
enum SavedMeta {
    /// Dense tensor (arena `F32` payload when compressible, opaque bytes
    /// when not — non-compressible floats must stay bit-exact).
    F32 { shape: Vec<usize> },
    /// Bit-packed mask or pool window offsets (arena bytes).
    Bits { len: usize },
}

/// The active memory manager: an [`ActivationStore`] over
/// [`ebtrain_membudget::BudgetedArena`], enforcing a **hard device-byte
/// budget** instead of merely accounting one.
///
/// Saves land raw (hot) while the budget allows; under pressure the
/// arena demotes hot entries to the SZ-compressed warm tier and evicts
/// warm entries cold (host migration or drop-for-recompute, per
/// [`ColdPolicy`]). On the first load of a backward pass the store hands
/// the arena the reverse save order as the expected access schedule,
/// which drives both the [`FarthestNextUse`] eviction policy and the
/// prefetch pipeline (upcoming warm entries decompress on worker threads
/// while the caller runs the current layer's gradient kernel). See
/// `DESIGN.md` §6.
///
/// Non-compressible saves (bit masks, pool window offsets, float slots the
/// layer marked raw) are stored as opaque bytes: they obey the budget
/// and can migrate to host, but are never lossy-compressed.
pub struct BudgetedStore {
    arena: BudgetedArena<SlotId>,
    meta: HashMap<SlotId, SavedMeta>,
    /// Slots saved since the last load: the next load hands them,
    /// reversed, to the arena as the backward schedule.
    save_order: Vec<SlotId>,
    /// The arena drops payloads instead of migrating them
    /// ([`ColdPolicy::DropForRecompute`]).
    may_drop: bool,
    drops_at_step_start: u64,
    metrics: StoreMetrics,
    /// Resolves per-layer codec routing ids from save hints.
    registry: CodecRegistry,
    /// Save-time `(stored, raw)` bytes of still-live compressible slots. The
    /// arena demotes/evicts entries *after* their save was recorded, so
    /// the stored-byte metrics are retro-updated against each slot's
    /// **current** residency: reconciled on load (final residency) and
    /// projected in [`metrics`](ActivationStore::metrics) for live
    /// slots — `compressible_ratio` reports current residency, not the
    /// stale save-time snapshot (the ROADMAP-documented wart).
    live_stored: HashMap<SlotId, (u64, u64)>,
}

impl BudgetedStore {
    /// Store over a configured arena and eviction policy.
    pub fn new(cfg: BudgetConfig, policy: Box<dyn EvictionPolicy>) -> BudgetedStore {
        BudgetedStore {
            may_drop: cfg.cold == ColdPolicy::DropForRecompute,
            arena: BudgetedArena::new(cfg, policy),
            meta: HashMap::new(),
            save_order: Vec::new(),
            drops_at_step_start: 0,
            metrics: StoreMetrics::default(),
            registry: CodecRegistry::standard(),
            live_stored: HashMap::new(),
        }
    }

    /// Convenience: given budget, default codec config, host migration,
    /// farthest-next-use eviction, prefetch depth 2.
    pub fn with_budget(budget_bytes: usize) -> BudgetedStore {
        Self::new(
            BudgetConfig::with_budget(budget_bytes),
            Box::new(FarthestNextUse),
        )
    }

    /// Arena-level counters (tiers, evictions, prefetch, codec time).
    pub fn arena_metrics(&self) -> ArenaMetrics {
        self.arena.metrics()
    }

    /// Drop all held state (entries, schedule, metadata). Budget, policy
    /// and cumulative metrics survive (live compressible slots are
    /// reconciled to their residency at clear time first).
    fn clear(&mut self) {
        let live: Vec<SlotId> = self.live_stored.keys().copied().collect();
        for slot in live {
            let cur = self.current_stored_of(slot);
            self.reconcile_slot(slot, cur);
        }
        self.arena.clear();
        self.meta.clear();
        self.save_order.clear();
    }

    /// Arena residency by slot kind: warm float slots are codec streams,
    /// hot ones and raw-hinted floats are f32, the rest is bit-packed.
    fn resident_by_kind(&self) -> SlotBytes {
        let mut out = SlotBytes::default();
        for (&slot, meta) in &self.meta {
            let kind = match (meta, self.arena.tier_of(slot)) {
                (SavedMeta::Bits { .. }, _) => SlotKind::Bits,
                (SavedMeta::F32 { .. }, Some(BudgetTier::Warm)) => SlotKind::Encoded,
                (SavedMeta::F32 { .. }, _) => SlotKind::FloatRaw,
            };
            *out.of(kind) += self.arena.resident_of(slot).unwrap_or(0) as u64;
        }
        out
    }

    fn record_save(&mut self, slot: SlotId, raw: usize, stored: usize, compressible: bool) {
        if self.arena.resident_bytes() as u64 > self.metrics.peak.total() {
            self.metrics.peak = self.resident_by_kind();
        }
        self.metrics.record_save(slot, raw, stored, compressible);
        if compressible {
            // A slot re-saved before it was ever loaded (checkpointing
            // fallback re-runs, slot overwrites): the insert drops the
            // overwritten save's record, freezing it at its save-time
            // value. Its raw bytes stay counted, so finalizing the stored
            // side at 0 here would claim compression that never happened.
            self.live_stored.insert(slot, (stored as u64, raw as u64));
        }
    }

    /// Current stored bytes of a live slot, for the retro-update: the
    /// arena residency, capped at the slot's raw size (an in-flight
    /// prefetch is transiently double-charged for budget safety; that
    /// conservatism must not inflate the ratio metrics).
    fn current_stored_of(&self, slot: SlotId) -> u64 {
        let raw = self.live_stored.get(&slot).map(|&(_, r)| r).unwrap_or(0);
        (self.arena.resident_of(slot).unwrap_or(0) as u64).min(raw)
    }

    /// Finalize one slot's stored-byte record at `final_stored` bytes
    /// (its residency when it left the store) — the retro-update that
    /// keeps the ratio metrics honest after demotions/evictions.
    fn reconcile_slot(&mut self, slot: SlotId, final_stored: u64) {
        let Some((rec, _raw)) = self.live_stored.remove(&slot) else {
            return;
        };
        apply_stored_delta(&mut self.metrics, slot, rec, final_stored);
    }
}

/// Shift a metrics snapshot's stored-byte counters for `slot` from the
/// recorded `rec` bytes to `cur` bytes.
fn apply_stored_delta(m: &mut StoreMetrics, slot: SlotId, rec: u64, cur: u64) {
    let shift = |v: &mut u64| *v = (*v + cur).saturating_sub(rec);
    shift(&mut m.stored_bytes_saved);
    shift(&mut m.compressible_stored_bytes);
    if let Some(e) = m.per_layer.get_mut(&slot.0) {
        shift(&mut e.1);
    }
}

/// Serialize a float slice to little-endian bytes (bit-exact).
fn f32s_to_bytes(data: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 4);
    for v in data {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

fn bytes_to_f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
        .collect()
}

fn words_to_bytes(words: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 8);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

fn bytes_to_words(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect()
}

impl ActivationStore for BudgetedStore {
    fn save(&mut self, slot: SlotId, value: Saved, hint: SaveHint) {
        let raw = value.byte_size();
        let compressible = hint.compressible && matches!(value, Saved::F32(_));
        let _tier = match value {
            Saved::F32(t) if hint.compressible => {
                self.meta.insert(
                    slot,
                    SavedMeta::F32 {
                        shape: t.shape().to_vec(),
                    },
                );
                let layout = DataLayout::for_shape(t.shape());
                // Per-layer codec routing: the hint's id resolves through
                // the registry; `None` keeps the arena's default.
                let codec = hint.codec.and_then(|id| self.registry.get(id));
                self.arena.insert_f32_with(
                    slot,
                    t.into_vec(),
                    layout,
                    hint.error_bound.map(BoundSpec::Abs),
                    codec,
                )
            }
            Saved::F32(t) => {
                // Raw-hinted floats must stay bit-exact: opaque bytes.
                self.meta.insert(
                    slot,
                    SavedMeta::F32 {
                        shape: t.shape().to_vec(),
                    },
                );
                self.arena.insert_bytes(slot, f32s_to_bytes(t.data()))
            }
            Saved::Bits { words, len } => {
                self.meta.insert(slot, SavedMeta::Bits { len });
                self.arena.insert_bytes(slot, words_to_bytes(&words))
            }
        };
        let stored = self.arena.resident_of(slot).unwrap_or(0);
        self.record_save(slot, raw, stored, compressible);
        self.save_order.push(slot);
    }

    fn load(&mut self, slot: SlotId) -> Result<Saved> {
        if !self.save_order.is_empty() {
            // First load after a run of saves (a backward pass, or a
            // recompute inside one): declare the expected access order
            // (reverse save order) so eviction and prefetch see the
            // future.
            self.save_order.reverse();
            self.arena
                .set_schedule(std::mem::take(&mut self.save_order));
        }
        let meta = self.meta.remove(&slot).ok_or_else(|| missing(slot))?;
        // Finalize the stored-byte record at the residency the payload
        // actually leaves with (it may have been demoted since save).
        let final_stored = self.current_stored_of(slot);
        self.reconcile_slot(slot, final_stored);
        let fetched = self.arena.load(slot).map_err(|e| match e {
            MembudgetError::Missing => missing(slot),
            MembudgetError::Dropped => DnnError::State(format!(
                "slot {slot:?} was dropped under the memory budget; recompute required"
            )),
            MembudgetError::Codec(err) => DnnError::Sz(err),
        })?;
        match (meta, fetched) {
            (SavedMeta::F32 { shape, .. }, Fetched::F32(data)) => {
                Ok(Saved::F32(Tensor::from_vec(&shape, data)?))
            }
            (SavedMeta::F32 { shape, .. }, Fetched::Bytes(bytes)) => {
                Ok(Saved::F32(Tensor::from_vec(&shape, bytes_to_f32s(&bytes))?))
            }
            (SavedMeta::Bits { len }, Fetched::Bytes(bytes)) => Ok(Saved::Bits {
                words: bytes_to_words(&bytes),
                len,
            }),
            _ => Err(DnnError::State(format!(
                "budgeted store payload/metadata mismatch for slot {slot:?}"
            ))),
        }
    }

    fn current_bytes(&self) -> usize {
        self.arena.resident_bytes()
    }

    fn peak_bytes(&self) -> usize {
        self.arena.peak_resident_bytes()
    }

    fn reset_peak(&mut self) {
        self.arena.reset_peak();
        self.metrics.peak = self.resident_by_kind();
    }

    fn metrics(&self) -> StoreMetrics {
        let am = self.arena.metrics();
        let mut m = self.metrics.clone();
        m.compress_nanos = am.compress_nanos;
        m.decompress_nanos = am.decompress_nanos;
        m.simulated_transfer_nanos = am.transfer_nanos;
        // Project still-live slots at their *current* residency so the
        // ratio reports what is resident now, not the save-time snapshot
        // (entries demoted/evicted since their save would otherwise
        // overstate stored bytes).
        for (&slot, &(rec, _raw)) in &self.live_stored {
            let cur = self.current_stored_of(slot);
            apply_stored_delta(&mut m, slot, rec, cur);
        }
        m
    }

    fn reset_metrics(&mut self) {
        self.metrics = StoreMetrics {
            peak: self.metrics.peak,
            ..StoreMetrics::default()
        };
        self.live_stored.clear();
        self.arena.reset_metrics();
    }

    /// Only a [`ColdPolicy::DropForRecompute`] arena may drop.
    fn begin_step(&mut self) -> bool {
        self.drops_at_step_start = self.arena.metrics().drops;
        self.may_drop
    }

    /// Clears the store when the arena dropped a payload this step.
    fn step_dropped(&mut self) -> bool {
        let dropped = self.arena.metrics().drops > self.drops_at_step_start;
        if dropped {
            self.clear();
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::SaveHint;

    fn act_tensor() -> Tensor {
        // ReLU-like activation plane: smooth positives with zero runs.
        let data: Vec<f32> = (0..8 * 32 * 32)
            .map(|i| {
                let v = (i as f32 * 0.01).sin() + 0.3;
                if v < 0.0 {
                    0.0
                } else {
                    v
                }
            })
            .collect();
        Tensor::from_vec(&[1, 8, 32, 32], data).unwrap()
    }

    fn compressible() -> SaveHint {
        SaveHint {
            compressible: true,
            error_bound: Some(1e-3),
            codec: None,
        }
    }

    #[test]
    fn raw_store_accounts_bytes_and_peak() {
        let mut s = RawStore::new();
        let t = act_tensor();
        let bytes = t.byte_size();
        s.save(SlotId(0, 0), Saved::F32(t.clone()), compressible());
        s.save(SlotId(1, 0), Saved::F32(t.clone()), SaveHint::raw());
        assert_eq!(s.current_bytes(), 2 * bytes);
        assert_eq!(s.peak_bytes(), 2 * bytes);
        let _ = s.load(SlotId(0, 0)).unwrap();
        assert_eq!(s.current_bytes(), bytes);
        assert_eq!(s.peak_bytes(), 2 * bytes); // peak sticky
        s.reset_peak();
        assert_eq!(s.peak_bytes(), bytes);
    }

    #[test]
    fn raw_store_load_missing_errors() {
        let mut s = RawStore::new();
        assert!(s.load(SlotId(9, 9)).is_err());
    }

    #[test]
    fn compressed_store_shrinks_compressible_slots() {
        let mut s = CompressedStore::new(SzConfig::with_error_bound(1e-3));
        let t = act_tensor();
        let raw = t.byte_size();
        s.save(SlotId(0, 0), Saved::F32(t.clone()), compressible());
        assert!(
            s.current_bytes() < raw,
            "stored {} raw {raw}",
            s.current_bytes()
        );
        let m = s.metrics();
        assert!(m.compressible_ratio() > 1.0);
        assert!(m.layer_ratio(0).unwrap() > 1.0);
        // Round-trip honours the framework default's strict contract:
        // every value within eb, exact zeros (the ReLU runs) exact.
        let back = s.load(SlotId(0, 0)).unwrap().into_f32().unwrap();
        assert!(t.data().contains(&0.0), "want zero runs");
        for (a, b) in t.data().iter().zip(back.data()) {
            assert!((a - b).abs() <= 1e-3);
            if *a == 0.0 {
                assert_eq!(b.to_bits(), 0, "exact zero perturbed");
            }
        }
        assert_eq!(s.current_bytes(), 0);
    }

    #[test]
    fn compressed_store_keeps_noncompressible_raw() {
        let mut s = CompressedStore::new(SzConfig::with_error_bound(1e-3));
        let t = act_tensor();
        s.save(SlotId(0, 0), Saved::F32(t.clone()), SaveHint::raw());
        let back = s.load(SlotId(0, 0)).unwrap().into_f32().unwrap();
        assert_eq!(back.data(), t.data()); // bit exact
    }

    #[test]
    fn compressed_store_plan_bound_overrides_default() {
        let mut s = CompressedStore::new(SzConfig::with_error_bound(1e-6));
        let t = act_tensor();
        // Loose per-save bound compresses much better than the default.
        s.save(
            SlotId(0, 0),
            Saved::F32(t.clone()),
            SaveHint {
                compressible: true,
                error_bound: Some(1e-1),
                codec: None,
            },
        );
        let loose = s.metrics().compressible_stored_bytes;
        let mut s2 = CompressedStore::new(SzConfig::with_error_bound(1e-6));
        s2.save(
            SlotId(0, 0),
            Saved::F32(t),
            SaveHint {
                compressible: true,
                error_bound: None,
                codec: None,
            },
        );
        let tight = s2.metrics().compressible_stored_bytes;
        assert!(loose < tight, "loose {loose} tight {tight}");
    }

    #[test]
    fn lossless_store_is_bit_exact() {
        let mut s = CompressedStore::lossless();
        let t = act_tensor();
        s.save(SlotId(2, 0), Saved::F32(t.clone()), compressible());
        assert!(s.current_bytes() < t.byte_size());
        let back = s.load(SlotId(2, 0)).unwrap().into_f32().unwrap();
        for (a, b) in t.data().iter().zip(back.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn migrated_store_frees_device_and_charges_time() {
        let mut s = CompressedStore::migrated(1e9); // 1 GB/s
        let t = act_tensor();
        let raw = t.byte_size();
        s.save(SlotId(0, 0), Saved::F32(t.clone()), compressible());
        assert_eq!(s.current_bytes(), 0, "migrated off device");
        let m1 = s.metrics().simulated_transfer_nanos;
        assert!(m1 > 0);
        let back = s.load(SlotId(0, 0)).unwrap().into_f32().unwrap();
        assert_eq!(back.data(), t.data());
        let m2 = s.metrics().simulated_transfer_nanos;
        // Round trip = 2 transfers of `raw` bytes at 1 GB/s.
        let expect = 2.0 * raw as f64; // ns at 1e9 B/s
        assert!((m2 as f64 - expect).abs() < expect * 0.01 + 2.0);
        assert!(m2 > m1);
    }

    #[test]
    fn hybrid_store_compresses_then_migrates() {
        let bw = 1e9; // 1 GB/s
        let mut hybrid = CompressedStore::hybrid(SzConfig::with_error_bound(1e-3), bw);
        let mut plain = CompressedStore::migrated(bw);
        let t = act_tensor();
        hybrid.save(SlotId(0, 0), Saved::F32(t.clone()), compressible());
        plain.save(SlotId(0, 0), Saved::F32(t.clone()), compressible());
        // Device residency: zero for the migrated slot.
        assert_eq!(hybrid.current_bytes(), 0);
        // Compressed migration moves ratio-x fewer bytes than plain.
        let ht = hybrid.metrics().simulated_transfer_nanos;
        let pt = plain.metrics().simulated_transfer_nanos;
        assert!(
            (ht as f64) < pt as f64 / 2.0,
            "hybrid transfer {ht}ns not well below plain {pt}ns"
        );
        assert!(hybrid.metrics().compressible_ratio() > 2.0);
        // Round-trip respects the error bound.
        let back = hybrid.load(SlotId(0, 0)).unwrap().into_f32().unwrap();
        for (a, b) in t.data().iter().zip(back.data()) {
            assert!((a - b).abs() <= 2e-3);
        }
    }

    #[test]
    fn hybrid_store_keeps_noncompressible_on_device() {
        let mut s = CompressedStore::hybrid(SzConfig::with_error_bound(1e-3), 1e9);
        let t = act_tensor();
        s.save(SlotId(1, 0), Saved::F32(t.clone()), SaveHint::raw());
        assert_eq!(s.current_bytes(), t.byte_size());
        let back = s.load(SlotId(1, 0)).unwrap().into_f32().unwrap();
        assert_eq!(back.data(), t.data());
        assert_eq!(s.current_bytes(), 0);
    }

    #[test]
    fn null_store_is_inert() {
        let mut s = NullStore;
        s.save(SlotId(0, 0), Saved::F32(act_tensor()), compressible());
        assert_eq!(s.current_bytes(), 0);
        assert!(s.load(SlotId(0, 0)).is_err());
    }

    #[test]
    fn elided_slots_report_honest_infinite_ratio() {
        // A store that saved compressible bytes but kept none resident
        // (migration) must report infinity, not a fake 1.0.
        let mut s = CompressedStore::migrated(1e9);
        s.save(SlotId(0, 0), Saved::F32(act_tensor()), compressible());
        let m = s.metrics();
        assert!(m.compressible_raw_bytes > 0);
        assert_eq!(m.compressible_stored_bytes, 0);
        assert!(m.compressible_ratio().is_infinite());
        assert!(m.layer_ratio(0).unwrap().is_infinite());
        // Nothing saved at all stays 1.0.
        assert_eq!(StoreMetrics::default().compressible_ratio(), 1.0);
    }

    #[test]
    fn budgeted_store_enforces_budget_and_roundtrips() {
        let t = act_tensor();
        let raw = t.byte_size();
        // Budget below 2 of the 3 raw saves: pressure must demote/evict.
        let budget = raw + raw / 2;
        let mut s = BudgetedStore::with_budget(budget);
        s.save(SlotId(0, 0), Saved::F32(t.clone()), compressible());
        s.save(SlotId(1, 0), Saved::F32(t.clone()), compressible());
        s.save(SlotId(2, 0), Saved::F32(t.clone()), compressible());
        let mask = crate::layer::pack_bits(t.data(), |v| v > 0.5);
        s.save(SlotId(3, 0), mask, SaveHint::raw());
        assert!(
            s.peak_bytes() <= budget,
            "peak {} exceeds budget {budget}",
            s.peak_bytes()
        );
        // Everything loads back (host tier keeps overflow); lossy slots
        // within the bound, the mask bit-exact.
        for slot in [2u8, 1, 0].map(|l| SlotId(l as usize, 0)) {
            let back = s.load(slot).unwrap().into_f32().unwrap();
            for (a, b) in t.data().iter().zip(back.data()) {
                assert!((a - b).abs() <= 2e-3, "slot {slot:?}");
            }
        }
        let Saved::Bits { words, len } = s.load(SlotId(3, 0)).unwrap() else {
            panic!("mask type changed");
        };
        assert_eq!(len, t.len());
        for (i, &v) in t.data().iter().enumerate() {
            assert_eq!(crate::layer::get_bit(&words, i), v > 0.5, "bit {i}");
        }
        assert_eq!(s.current_bytes(), 0);
        let am = s.arena_metrics();
        assert_eq!(am.over_budget_events, 0);
        assert!(am.demotions + am.evictions_host > 0, "no pressure response");
    }

    #[test]
    fn budgeted_store_generous_budget_stays_hot_and_exact() {
        let t = act_tensor();
        let mut s = BudgetedStore::with_budget(100 << 20);
        s.save(SlotId(0, 0), Saved::F32(t.clone()), compressible());
        let back = s.load(SlotId(0, 0)).unwrap().into_f32().unwrap();
        // Hot tier: raw payload, bit-exact even for a compressible hint.
        assert_eq!(back.data(), t.data());
        assert_eq!(s.arena_metrics().hot_hits, 1);
    }

    #[test]
    fn budgeted_store_raw_hinted_floats_stay_bit_exact_under_pressure() {
        let t = act_tensor();
        // Budget holds nothing: raw-hinted floats must go to host bytes,
        // never through the lossy codec.
        let mut s = BudgetedStore::new(BudgetConfig::with_budget(64), Box::new(FarthestNextUse));
        s.save(SlotId(0, 0), Saved::F32(t.clone()), SaveHint::raw());
        let back = s.load(SlotId(0, 0)).unwrap().into_f32().unwrap();
        for (a, b) in t.data().iter().zip(back.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn budgeted_store_drop_policy_sets_step_flag() {
        let mut cfg = BudgetConfig::with_budget(64);
        cfg.cold = ColdPolicy::DropForRecompute;
        let mut s = BudgetedStore::new(cfg, Box::new(Lru));
        assert!(s.begin_step(), "a dropping store must ask for the batch");
        assert!(!s.step_dropped());
        s.save(SlotId(0, 0), Saved::F32(act_tensor()), compressible());
        assert!(s.step_dropped(), "overflowing save must flag the step");
        // The flag discarded the step's saves.
        assert!(s.load(SlotId(0, 0)).is_err());
        assert_eq!(s.current_bytes(), 0);
        assert!(s.begin_step());
        assert!(!s.step_dropped());
        // Host migration never drops, so its steps keep no batch copy.
        assert!(!BudgetedStore::with_budget(64).begin_step());
    }

    #[test]
    fn metrics_reset_clears_counters() {
        let mut s = CompressedStore::new(SzConfig::with_error_bound(1e-3));
        s.save(SlotId(0, 0), Saved::F32(act_tensor()), compressible());
        assert!(s.metrics().raw_bytes_saved > 0);
        s.reset_metrics();
        assert_eq!(s.metrics().raw_bytes_saved, 0);
    }

    #[test]
    fn peak_composition_follows_the_peak_by_slot_kind() {
        let t = act_tensor();
        let raw = t.byte_size() as u64;
        let mask = crate::layer::pack_bits(t.data(), |v| v > 0.5);
        let mask_bytes = mask.byte_size() as u64;

        let mut s = CompressedStore::new(SzConfig::with_error_bound(1e-3));
        s.save(SlotId(0, 0), Saved::F32(t.clone()), compressible());
        let encoded = s.current_bytes() as u64;
        s.save(SlotId(1, 0), Saved::F32(t.clone()), SaveHint::raw());
        s.save(SlotId(2, 0), mask.clone(), SaveHint::raw());
        let at_peak = SlotBytes {
            encoded,
            float_raw: raw,
            bits: mask_bytes,
        };
        assert_eq!(s.metrics().peak, at_peak);
        assert_eq!(at_peak.total(), s.peak_bytes() as u64);
        // It follows the high-water mark, not the counters or the level.
        let _ = s.load(SlotId(1, 0)).unwrap();
        s.reset_metrics();
        assert_eq!(s.metrics().peak, at_peak);
        assert_eq!(s.metrics().raw_bytes_saved, 0);
        s.reset_peak();
        assert_eq!(
            s.metrics().peak,
            SlotBytes {
                float_raw: 0,
                ..at_peak
            }
        );

        // Budgeted: the second save demotes the first to a codec stream.
        let mut b = BudgetedStore::with_budget((raw + raw / 2) as usize);
        b.save(SlotId(0, 0), Saved::F32(t.clone()), compressible());
        assert_eq!(
            b.metrics().peak,
            SlotBytes {
                float_raw: raw,
                ..SlotBytes::default()
            }
        );
        b.save(SlotId(1, 0), Saved::F32(t.clone()), compressible());
        b.save(SlotId(2, 0), mask, SaveHint::raw());
        let peak = b.metrics().peak;
        assert!(peak.encoded > 0 && peak.encoded < raw, "{peak:?}");
        assert_eq!((peak.float_raw, peak.bits), (raw, mask_bytes));
        assert_eq!(peak.total(), b.current_bytes() as u64);
        assert!(peak.total() <= b.peak_bytes() as u64);
    }

    #[test]
    fn compressed_store_routes_per_layer_codec() {
        // The plan can route one layer to the lossless backend while the
        // store default stays lossy SZ: the routed slot must come back
        // bit-exact, the default slot merely within its bound.
        let mut s = CompressedStore::new(SzConfig::with_error_bound(1e-2));
        let t = act_tensor();
        s.save(
            SlotId(0, 0),
            Saved::F32(t.clone()),
            SaveHint {
                compressible: true,
                error_bound: Some(1e-2),
                codec: Some(CodecId::LOSSLESS),
            },
        );
        s.save(SlotId(1, 0), Saved::F32(t.clone()), compressible());
        assert!(s.metrics().compressible_ratio() > 1.0);
        let exact = s.load(SlotId(0, 0)).unwrap().into_f32().unwrap();
        for (a, b) in t.data().iter().zip(exact.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "lossless-routed slot drifted");
        }
        let lossy = s.load(SlotId(1, 0)).unwrap().into_f32().unwrap();
        let mut any_diff = false;
        for (a, b) in t.data().iter().zip(lossy.data()) {
            assert!((a - b).abs() <= 2e-2);
            any_diff |= a.to_bits() != b.to_bits();
        }
        assert!(any_diff, "default SZ slot should actually be lossy here");
    }

    #[test]
    fn compressed_store_unknown_codec_id_falls_back_to_default() {
        let mut s = CompressedStore::new(SzConfig::with_error_bound(1e-3));
        let t = act_tensor();
        s.save(
            SlotId(0, 0),
            Saved::F32(t.clone()),
            SaveHint {
                compressible: true,
                error_bound: Some(1e-3),
                codec: Some(CodecId(250)), // nothing registered here
            },
        );
        assert!(s.current_bytes() < t.byte_size(), "must still compress");
        let back = s.load(SlotId(0, 0)).unwrap().into_f32().unwrap();
        for (a, b) in t.data().iter().zip(back.data()) {
            assert!((a - b).abs() <= 2e-3);
        }
    }

    #[test]
    fn budgeted_store_routes_per_layer_codec_through_arena() {
        // Tight budget forces immediate demotion; a lossless-routed slot
        // must survive the warm tier bit-exact.
        let t = act_tensor();
        let mut s = BudgetedStore::with_budget(t.byte_size() / 2);
        s.save(
            SlotId(0, 0),
            Saved::F32(t.clone()),
            SaveHint {
                compressible: true,
                error_bound: None,
                codec: Some(CodecId::LOSSLESS),
            },
        );
        let back = s.load(SlotId(0, 0)).unwrap().into_f32().unwrap();
        for (a, b) in t.data().iter().zip(back.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn budgeted_store_metrics_track_current_residency() {
        // The ROADMAP-documented wart: saves land hot (stored == raw) and
        // later demotions used to leave the metric at the stale save-time
        // snapshot. Now `compressible_ratio` reports current residency.
        let t = act_tensor();
        let raw = t.byte_size() as u64;
        let mut cfg = BudgetConfig::with_budget((raw + raw / 2) as usize);
        // No prefetch: an in-flight decode legitimately re-raises a warm
        // entry's residency toward raw, which is not what this test pins.
        cfg.prefetch_depth = 0;
        let mut s = BudgetedStore::new(cfg, Box::new(FarthestNextUse));
        s.save(SlotId(0, 0), Saved::F32(t.clone()), compressible());
        // Both slots saved hot at first; slot 0 gets demoted by slot 1's
        // arrival.
        s.save(SlotId(1, 0), Saved::F32(t.clone()), compressible());
        assert!(s.arena_metrics().demotions > 0, "test needs pressure");
        let m = s.metrics();
        assert_eq!(m.compressible_raw_bytes, 2 * raw);
        assert!(
            m.compressible_stored_bytes < 2 * raw,
            "stored {} must reflect the demotion, not 2×raw",
            m.compressible_stored_bytes
        );
        assert!(m.compressible_ratio() > 1.0);
        // Loads finalize each record at its leave-time residency; the
        // projection and the finalized totals agree.
        let _ = s.load(SlotId(1, 0)).unwrap();
        let _ = s.load(SlotId(0, 0)).unwrap();
        let m2 = s.metrics();
        assert!(m2.compressible_stored_bytes <= m.compressible_stored_bytes);
        assert!(m2.compressible_ratio() > 1.0);
        // Per-layer view stays consistent with the totals.
        let by_layer: u64 = m2.per_layer.values().map(|&(_, s)| s).sum();
        assert_eq!(by_layer, m2.compressible_stored_bytes);
    }

    #[test]
    fn budgeted_store_resave_keeps_ratio_honest() {
        // Overwriting a never-loaded slot (checkpointing fallback
        // re-runs forward) must freeze the old record at its save-time
        // value — finalizing it at 0 would fabricate a 2.0 ratio out of
        // two raw hot saves.
        let t = act_tensor();
        let raw = t.byte_size() as u64;
        let mut s = BudgetedStore::with_budget(100 << 20); // everything stays hot/raw
        s.save(SlotId(0, 0), Saved::F32(t.clone()), compressible());
        s.save(SlotId(0, 0), Saved::F32(t.clone()), compressible());
        let m = s.metrics();
        assert_eq!(m.compressible_raw_bytes, 2 * raw);
        assert_eq!(m.compressible_stored_bytes, 2 * raw);
        assert_eq!(m.compressible_ratio(), 1.0, "no compression happened");
    }

    #[test]
    fn resaving_a_slot_releases_the_replaced_entry() {
        // A re-save (checkpointing re-runs forward) must release the
        // replaced entry's bytes, or every later peak is inflated.
        let t = act_tensor();
        let cfg = SzConfig::with_error_bound(1e-3);
        for hint in [compressible(), SaveHint::raw()] {
            let stores: [(&str, Box<dyn ActivationStore>); 8] = [
                ("raw", Box::new(RawStore::new())),
                ("new", Box::new(CompressedStore::new(cfg))),
                (
                    "with_codec",
                    Box::new(CompressedStore::with_codec(
                        Arc::new(SzCodec::new(cfg)),
                        BoundSpec::Abs(1e-3),
                    )),
                ),
                ("lossless", Box::new(CompressedStore::lossless())),
                ("migrated", Box::new(CompressedStore::migrated(1e9))),
                ("pcie3", Box::new(CompressedStore::pcie3())),
                ("hybrid", Box::new(CompressedStore::hybrid(cfg, 1e9))),
                ("budgeted", Box::new(BudgetedStore::with_budget(100 << 20))),
            ];
            for (name, mut s) in stores {
                s.save(SlotId(0, 0), Saved::F32(t.clone()), hint);
                let one = s.peak_bytes();
                s.save(SlotId(0, 0), Saved::F32(t.clone()), hint);
                s.load(SlotId(0, 0)).unwrap();
                let what = format!("{name}, compressible {}", hint.compressible);
                assert_eq!(s.current_bytes(), 0, "{what}");
                assert_eq!(s.peak_bytes(), one, "{what}");
            }
        }
    }

    /// FNV-1a over a loaded value's bits.
    fn bit_hash(v: &Saved) -> u64 {
        let words: Vec<u64> = match v {
            Saved::F32(t) => t.data().iter().map(|x| x.to_bits() as u64).collect(),
            Saved::Bits { words, len } => words.iter().copied().chain([*len as u64]).collect(),
        };
        words.iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// What [`policy_script`] observes of a store; timing is reduced to
    /// whether each codec clock ran.
    #[derive(Debug, PartialEq)]
    struct Frozen {
        /// `(current_bytes, peak_bytes)` after each save, then each load.
        levels: [(usize, usize); 8],
        /// [`bit_hash`] of each loaded value, in load order.
        loaded: [u64; 4],
        raw_bytes_saved: u64,
        stored_bytes_saved: u64,
        compressible_raw_bytes: u64,
        compressible_stored_bytes: u64,
        simulated_transfer_nanos: u64,
        per_layer: Vec<(LayerId, (u64, u64))>,
        peak: SlotBytes,
        codec_ran: (bool, bool),
    }

    /// A compressible slot under a plan bound, the same tensor routed to
    /// the lossless codec, a raw-hinted float and a bit mask; loaded
    /// back in reverse order. A load that fails (a payload dropped under
    /// a budget) reads back as 0.
    fn policy_script(s: &mut dyn ActivationStore) -> Frozen {
        let t = act_tensor();
        let mask = crate::layer::pack_bits(t.data(), |v| v > 0.5);
        let routed = SaveHint {
            codec: Some(CodecId::LOSSLESS),
            ..compressible()
        };
        let saves = [
            (SlotId(0, 0), Saved::F32(t.clone()), compressible()),
            (SlotId(1, 0), Saved::F32(t.clone()), routed),
            (SlotId(2, 0), Saved::F32(t), SaveHint::raw()),
            (SlotId(3, 0), mask, SaveHint::raw()),
        ];
        let mut levels = [(0, 0); 8];
        let mut loaded = [0; 4];
        for (i, (slot, v, hint)) in saves.into_iter().enumerate() {
            s.save(slot, v, hint);
            levels[i] = (s.current_bytes(), s.peak_bytes());
        }
        for (i, layer) in (0..4).rev().enumerate() {
            loaded[i] = s.load(SlotId(layer, 0)).map_or(0, |v| bit_hash(&v));
            levels[4 + i] = (s.current_bytes(), s.peak_bytes());
        }
        let m = s.metrics();
        let mut per_layer: Vec<_> = m.per_layer.into_iter().collect();
        per_layer.sort();
        Frozen {
            levels,
            loaded,
            raw_bytes_saved: m.raw_bytes_saved,
            stored_bytes_saved: m.stored_bytes_saved,
            compressible_raw_bytes: m.compressible_raw_bytes,
            compressible_stored_bytes: m.compressible_stored_bytes,
            simulated_transfer_nanos: m.simulated_transfer_nanos,
            per_layer,
            peak: m.peak,
            codec_ran: (m.compress_nanos > 0, m.decompress_nanos > 0),
        }
    }

    #[test]
    fn fixed_policy_accounting_is_frozen() {
        // Literals captured from the five store types before lossless,
        // migration and compress-then-migrate became `CompressedStore`
        // constructors (`RawStore`, `CompressedStore`, `LosslessStore`,
        // `MigratedStore::pcie3`, `HybridStore` at 12 GB/s). The SZ slot
        // was 2931 B then; entropy tag 2's range frames (one modeled
        // mantissa bit, raw bits in a padded side stream) made it 3003 B,
        // so every level that holds it moved by +72 B (and the hybrid
        // link time by 3408 → 3420 ns). Entropy tag 3 takes the chunk
        // (smooth ReLU-like residuals, which the adaptive coder follows
        // better than one static table): 3240 B, every level +237 B, the
        // hybrid link time 3420 → 3460 ns.
        const MASK: u64 = 0x6b68_7208_c297_8fec;
        const EXACT: u64 = 0xc675_dcd9_686b_2e43;
        const LOSSY: u64 = 0x34e9_53c3_8f07_0d2e;
        let cfg = SzConfig::with_error_bound(1e-2);
        let raw = Frozen {
            levels: [
                (32768, 32768),
                (65536, 65536),
                (98304, 98304),
                (99328, 99328),
                (98304, 99328),
                (65536, 99328),
                (32768, 99328),
                (0, 99328),
            ],
            loaded: [MASK, EXACT, EXACT, EXACT],
            raw_bytes_saved: 99328,
            stored_bytes_saved: 99328,
            compressible_raw_bytes: 65536,
            compressible_stored_bytes: 65536,
            simulated_transfer_nanos: 0,
            per_layer: vec![(0, (32768, 32768)), (1, (32768, 32768))],
            peak: SlotBytes {
                encoded: 0,
                float_raw: 98304,
                bits: 1024,
            },
            codec_ran: (false, false),
        };
        let compressed = Frozen {
            levels: [
                (3240, 3240),
                (20763, 20763),
                (53531, 53531),
                (54555, 54555),
                (53531, 54555),
                (20763, 54555),
                (3240, 54555),
                (0, 54555),
            ],
            loaded: [MASK, EXACT, EXACT, LOSSY],
            raw_bytes_saved: 99328,
            stored_bytes_saved: 54555,
            compressible_raw_bytes: 65536,
            compressible_stored_bytes: 20763,
            simulated_transfer_nanos: 0,
            per_layer: vec![(0, (32768, 3240)), (1, (32768, 17523))],
            peak: SlotBytes {
                encoded: 20763,
                float_raw: 32768,
                bits: 1024,
            },
            codec_ran: (true, true),
        };
        let lossless = Frozen {
            levels: [
                (17523, 17523),
                (35046, 35046),
                (67814, 67814),
                (68838, 68838),
                (67814, 68838),
                (35046, 68838),
                (17523, 68838),
                (0, 68838),
            ],
            loaded: [MASK, EXACT, EXACT, EXACT],
            raw_bytes_saved: 99328,
            stored_bytes_saved: 68838,
            compressible_raw_bytes: 65536,
            compressible_stored_bytes: 35046,
            simulated_transfer_nanos: 0,
            per_layer: vec![(0, (32768, 17523)), (1, (32768, 17523))],
            peak: SlotBytes {
                encoded: 35046,
                float_raw: 32768,
                bits: 1024,
            },
            codec_ran: (true, true),
        };
        let migrated = Frozen {
            levels: [
                (0, 0),
                (0, 0),
                (32768, 32768),
                (33792, 33792),
                (32768, 33792),
                (0, 33792),
                (0, 33792),
                (0, 33792),
            ],
            loaded: [MASK, EXACT, EXACT, EXACT],
            raw_bytes_saved: 99328,
            stored_bytes_saved: 33792,
            compressible_raw_bytes: 65536,
            compressible_stored_bytes: 0,
            simulated_transfer_nanos: 10920,
            per_layer: vec![(0, (32768, 0)), (1, (32768, 0))],
            peak: SlotBytes {
                encoded: 0,
                float_raw: 32768,
                bits: 1024,
            },
            codec_ran: (false, false),
        };
        let hybrid = Frozen {
            levels: [
                (0, 3240),
                (0, 17523),
                (32768, 32768),
                (33792, 33792),
                (32768, 33792),
                (0, 33792),
                (0, 33792),
                (0, 33792),
            ],
            loaded: [MASK, EXACT, EXACT, LOSSY],
            raw_bytes_saved: 99328,
            stored_bytes_saved: 54555,
            compressible_raw_bytes: 65536,
            compressible_stored_bytes: 20763,
            simulated_transfer_nanos: 3460,
            per_layer: vec![(0, (32768, 3240)), (1, (32768, 17523))],
            peak: SlotBytes {
                encoded: 0,
                float_raw: 32768,
                bits: 1024,
            },
            codec_ran: (true, true),
        };
        assert_eq!(policy_script(&mut RawStore::new()), raw);
        assert_eq!(policy_script(&mut CompressedStore::new(cfg)), compressed);
        assert_eq!(policy_script(&mut CompressedStore::lossless()), lossless);
        assert_eq!(policy_script(&mut CompressedStore::pcie3()), migrated);
        assert_eq!(
            policy_script(&mut CompressedStore::hybrid(cfg, 12.0e9)),
            hybrid
        );
        // Under a budget below the script's raw total, the two floats
        // saved first demote and then leave the device.
        let budget = 40_000;
        let budgeted = Frozen {
            levels: [
                (32768, 32768),
                (36008, 36008),
                (32768, 36008),
                (33792, 36008),
                (32768, 36008),
                (0, 36008),
                (0, 36008),
                (0, 36008),
            ],
            loaded: [MASK, EXACT, EXACT, LOSSY],
            raw_bytes_saved: 99328,
            stored_bytes_saved: 33792,
            compressible_raw_bytes: 65536,
            compressible_stored_bytes: 0,
            simulated_transfer_nanos: 3460,
            per_layer: vec![(0, (32768, 0)), (1, (32768, 0))],
            peak: SlotBytes {
                encoded: 3240,
                float_raw: 32768,
                bits: 0,
            },
            codec_ran: (true, true),
        };
        assert_eq!(
            policy_script(&mut BudgetedStore::with_budget(budget)),
            budgeted
        );
        let mut drop_cfg = BudgetConfig::with_budget(budget);
        drop_cfg.cold = ColdPolicy::DropForRecompute;
        let dropping = Frozen {
            loaded: [MASK, EXACT, 0, 0],
            simulated_transfer_nanos: 0,
            codec_ran: (true, false),
            ..budgeted
        };
        assert_eq!(
            policy_script(&mut BudgetedStore::new(drop_cfg, Box::new(FarthestNextUse))),
            dropping
        );
    }
}
