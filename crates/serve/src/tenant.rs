//! Per-tenant state: one [`BudgetedArena`] under the tenant's hard
//! byte budget, plus the layout side-table and RPC counters.
//!
//! Every tensor a tenant stores lives in its arena. A stream smaller
//! than its raw values is kept as sent: hot beside its decode while the
//! budget allows, alone warm under pressure, cold (host-migrated or
//! dropped, per [`ColdPolicy`]) past that; the server never compresses
//! it again. A stream that does not compress is held raw and demotes
//! through the daemon's codec. The arena's own invariant (`resident ≤
//! budget` between any two calls, transients included) is what makes
//! the daemon's per-tenant guarantee: no tenant can push another over
//! its budget, because budgets are enforced per-arena, not
//! cooperatively.

use crate::frame::ErrorCode;
use crate::{decode_checked, ServeError};
use ebtrain_codec::{BoundSpec, CodecRegistry};
use ebtrain_membudget::{BudgetConfig, BudgetedArena, MembudgetError, Stored, Tier};
use ebtrain_obs::netutil::{get_u64, put_u64};
use ebtrain_sz::DataLayout;
use std::collections::HashMap;

/// One tenant's stats snapshot — the `stats` RPC body (eight u64s,
/// big-endian, in field order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Device-resident bytes right now (hot + warm tiers).
    pub resident_bytes: u64,
    /// The tenant's hard device-byte budget.
    pub budget_bytes: u64,
    /// High-water mark of `resident_bytes` — the budget proof:
    /// `peak ≤ budget` after any call sequence.
    pub peak_resident_bytes: u64,
    /// Live entries (all tiers).
    pub entries: u64,
    /// Sum of raw (uncompressed) sizes of live entries.
    pub raw_bytes: u64,
    /// Stores accepted.
    pub stores: u64,
    /// Fetches served (full + plane-range).
    pub fetches: u64,
    /// Requests rejected over budget.
    pub rejected: u64,
}

impl TenantStats {
    /// Serialize as the stats RPC body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        for v in [
            self.resident_bytes,
            self.budget_bytes,
            self.peak_resident_bytes,
            self.entries,
            self.raw_bytes,
            self.stores,
            self.fetches,
            self.rejected,
        ] {
            put_u64(&mut out, v);
        }
        out
    }

    /// Parse a stats RPC body; `None` on a malformed length.
    pub fn decode(buf: &[u8]) -> Option<TenantStats> {
        let mut off = 0;
        let s = TenantStats {
            resident_bytes: get_u64(buf, &mut off)?,
            budget_bytes: get_u64(buf, &mut off)?,
            peak_resident_bytes: get_u64(buf, &mut off)?,
            entries: get_u64(buf, &mut off)?,
            raw_bytes: get_u64(buf, &mut off)?,
            stores: get_u64(buf, &mut off)?,
            fetches: get_u64(buf, &mut off)?,
            rejected: get_u64(buf, &mut off)?,
        };
        (off == buf.len()).then_some(s)
    }
}

fn err(code: ErrorCode, message: impl Into<String>) -> ServeError {
    ServeError {
        code,
        message: message.into(),
    }
}

fn map_membudget(e: MembudgetError) -> ServeError {
    match e {
        MembudgetError::Missing => err(ErrorCode::Missing, "no entry under key"),
        MembudgetError::Dropped => err(
            ErrorCode::Dropped,
            "entry was evicted under memory pressure; re-store it",
        ),
        MembudgetError::Codec(e) => err(ErrorCode::Codec, format!("stored stream: {e}")),
    }
}

pub(crate) struct Tenant {
    arena: BudgetedArena<u64>,
    /// Key → (layout, raw bytes) of live entries; the arena holds the
    /// payloads, this table remembers how to slice them.
    layouts: HashMap<u64, (DataLayout, usize)>,
    raw_total: usize,
    stores: u64,
    fetches: u64,
    rejected: u64,
    /// This tenant's registry gauge (`serve.tenant.resident#t<id>`),
    /// kept equal to the arena's resident bytes after every op.
    gauge_key: String,
}

impl Tenant {
    pub fn new(id: u32, mut cfg: BudgetConfig) -> Tenant {
        // Serving has no backward schedule, so prefetch never has
        // anything to look ahead to; keep the arena's pipeline off.
        cfg.prefetch_depth = 0;
        let gauge_key = format!("serve.tenant.resident#t{id}");
        ebtrain_obs::gauge_set(&gauge_key, 0);
        Tenant {
            arena: BudgetedArena::new(cfg, Box::new(ebtrain_membudget::Lru)),
            layouts: HashMap::new(),
            raw_total: 0,
            stores: 0,
            fetches: 0,
            rejected: 0,
            gauge_key,
        }
    }

    /// Device-resident bytes (the global admission mirror reads this
    /// after every op, under the tenant lock).
    pub fn resident(&self) -> usize {
        self.arena.resident_bytes()
    }

    /// Sum of raw sizes of live entries (the all-tier footprint the
    /// global `max_raw_bytes` ceiling meters).
    pub fn raw_total(&self) -> usize {
        self.raw_total
    }

    /// Raw size of the entry under `key` (0 when absent) — what a
    /// replacement store frees, for replacement-aware admission.
    pub fn raw_of(&self, key: u64) -> usize {
        self.layouts.get(&key).map(|&(_, r)| r).unwrap_or(0)
    }

    /// Count one admission rejection against this tenant.
    pub fn count_rejected(&mut self) {
        self.rejected += 1;
    }

    fn publish_gauge(&self) {
        ebtrain_obs::gauge_set(&self.gauge_key, self.arena.resident_bytes() as i64);
    }

    /// A live-key-free scratch key near `key` — the staging slot for
    /// atomic replacement. Never visible outside one `store` call (all
    /// calls run under the tenant lock).
    fn scratch_key(&self, key: u64) -> u64 {
        let mut k = key ^ 0x9E37_79B9_7F4A_7C15;
        while k == key || self.layouts.contains_key(&k) {
            k = k.wrapping_add(0x9E37_79B9_7F4A_7C15);
        }
        k
    }

    /// Store one tensor: validate and decode the wire stream in full
    /// ([`decode_checked`]), then insert it into the arena (which lands
    /// it in whatever tier the budget allows). A stream smaller than its
    /// raw values is kept beside its decode as the entry's at-rest form;
    /// one that does not compress is held raw, with `eb > 0` overriding
    /// its at-rest demotion bound.
    ///
    /// Replacing an existing key is staged: the new payload goes in
    /// under a scratch key and is renamed over the old one only once it
    /// is known to fit, so a rejected replacement leaves the previous
    /// value live (budget pressure from the attempt may still demote it
    /// — or, under `DropForRecompute`, drop it — exactly as any other
    /// pressure event may).
    pub fn store(
        &mut self,
        registry: &CodecRegistry,
        key: u64,
        layout: DataLayout,
        eb: f32,
        stream_bytes: Vec<u8>,
    ) -> Result<Tier, ServeError> {
        let (stream, data) = decode_checked(registry, stream_bytes, layout)?;
        let raw = data.len() * 4;
        let replacing = self.layouts.contains_key(&key);
        let slot = if replacing {
            self.scratch_key(key)
        } else {
            key
        };
        let tier = if stream.compressed_byte_len() < raw {
            let codec = registry.get(stream.codec_id()).expect("decoded above");
            self.arena.insert_stream(slot, data, stream, layout, codec)
        } else {
            let bound = (eb > 0.0).then_some(BoundSpec::Abs(eb));
            self.arena.insert_f32_with(slot, data, layout, bound, None)
        };
        if tier == Tier::Dropped {
            // DropForRecompute cold policy and nothing fit: reject the
            // store outright rather than holding a zero-byte tombstone —
            // the no-residual guarantee of an over-budget rejection. A
            // replacement rejected here never removed the entry under
            // `key`: its accounting survives, though the attempt's
            // insert pressure may have demoted (or dropped) its payload
            // like any other pressure event.
            self.arena.remove(slot);
            self.rejected += 1;
            self.publish_gauge();
            return Err(err(
                ErrorCode::OverBudget,
                "payload does not fit the tenant budget even compressed",
            ));
        }
        if replacing {
            let (_, old_raw) = self.layouts.remove(&key).expect("checked replacing");
            self.raw_total -= old_raw;
            self.arena.rename(slot, key); // removes the old entry itself
        }
        self.layouts.insert(key, (layout, raw));
        self.raw_total += raw;
        self.stores += 1;
        self.publish_gauge();
        Ok(tier)
    }

    /// Fetch a whole tensor in the form it is held, without decoding or
    /// removing it. A read moves no residency (tenants never prefetch),
    /// so the gauge stands.
    pub fn fetch_stored(&mut self, key: u64) -> Result<(DataLayout, Stored<'_>), ServeError> {
        let (layout, _) = *self
            .layouts
            .get(&key)
            .ok_or_else(|| err(ErrorCode::Missing, "no entry under key"))?;
        let stored = self.arena.stored(key).map_err(map_membudget)?;
        self.fetches += 1;
        Ok((layout, stored))
    }

    /// Fetch a leading-dimension plane range (frame-indexed codecs
    /// decode only the covering frames server-side).
    pub fn fetch_planes(
        &mut self,
        key: u64,
        start: usize,
        end: usize,
    ) -> Result<Vec<f32>, ServeError> {
        let (layout, _) = *self
            .layouts
            .get(&key)
            .ok_or_else(|| err(ErrorCode::Missing, "no entry under key"))?;
        if start > end || end > layout.plane_count() {
            return Err(err(
                ErrorCode::BadRange,
                format!(
                    "plane range {start}..{end} outside 0..{}",
                    layout.plane_count()
                ),
            ));
        }
        let vals = self
            .arena
            .fetch_planes(key, start..end)
            .map_err(map_membudget)?;
        self.fetches += 1;
        self.publish_gauge();
        Ok(vals)
    }

    /// Remove one entry (any tier).
    pub fn evict(&mut self, key: u64) -> Result<(), ServeError> {
        let (_, raw) = self
            .layouts
            .remove(&key)
            .ok_or_else(|| err(ErrorCode::Missing, "no entry under key"))?;
        self.raw_total -= raw;
        self.arena.remove(key);
        self.publish_gauge();
        Ok(())
    }

    /// Shrink device residency toward `target` bytes (the cross-tenant
    /// eviction pass); returns bytes freed.
    pub fn reclaim_to(&mut self, target: usize) -> usize {
        let freed = self.arena.reclaim_to(target);
        self.publish_gauge();
        freed
    }

    /// Stats snapshot.
    pub fn stats(&self) -> TenantStats {
        TenantStats {
            resident_bytes: self.arena.resident_bytes() as u64,
            budget_bytes: self.arena.budget_bytes() as u64,
            peak_resident_bytes: self.arena.peak_resident_bytes() as u64,
            entries: self.arena.len() as u64,
            raw_bytes: self.raw_total as u64,
            stores: self.stores,
            fetches: self.fetches,
            rejected: self.rejected,
        }
    }
}

impl Drop for Tenant {
    fn drop(&mut self) {
        // Retire the registry gauge so snapshots only show live tenants.
        ebtrain_obs::gauge_remove(&self.gauge_key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebtrain_codec::{Codec, SzCodec};
    use ebtrain_membudget::ColdPolicy;

    const LAYOUT: DataLayout = DataLayout::D3(8, 16, 16);
    /// Room for two raw tensors; the script stores seven.
    const BUDGET: usize = 2 * 2048 * 4;

    /// FNV-1a over 64-bit words.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// A client-side stream: a noisy wave under classic SZ at 1e-3, the
    /// way the serving benchmark's client stores.
    fn stream(seed: u32) -> Vec<u8> {
        let mut s = seed.wrapping_mul(2_654_435_761) | 1;
        let data: Vec<f32> = (0..LAYOUT.len())
            .map(|i| {
                s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let noise = (s >> 8) as f32 / (1u32 << 24) as f32 - 0.5;
                ((i as f32 + seed as f32 * 37.0) * 0.011).sin() + noise
            })
            .collect();
        SzCodec::classic()
            .compress(&data, LAYOUT, &BoundSpec::Abs(1e-3))
            .unwrap()
            .into_bytes()
    }

    /// A tenant built the way `daemon::tenant_slot` builds one, driven
    /// over twice its budget. One line per operation: the stats body's
    /// eight words, then what the operation returned — the FNV-1a of
    /// the bits read back, a store's landing tier, the bytes a reclaim
    /// freed, or the error code of a failure.
    fn tenant_script(cold: ColdPolicy) -> Vec<String> {
        let mut cfg = BudgetConfig::with_budget(BUDGET);
        cfg.cold = cold;
        cfg.bound = BoundSpec::Abs(1e-3);
        let mut t = Tenant::new(0, cfg);
        let registry = CodecRegistry::standard();
        let mut lines = Vec::new();
        let mut line = |t: &Tenant, read: u64| {
            let words: Vec<String> = t
                .stats()
                .encode()
                .chunks(8)
                .map(|w| u64::from_be_bytes(w.try_into().unwrap()).to_string())
                .collect();
            lines.push(format!("{} {read:x}", words.join(" ")));
        };
        // A whole fetch as `ServeClient::fetch` sees it: the stored form,
        // a stream decoded at the client.
        let fetch = |t: &mut Tenant, key| {
            t.fetch_stored(key).map(|(_, stored)| match stored {
                Stored::F32(v) | Stored::Decoded(v, _) => v.to_vec(),
                Stored::Stream(s) => registry.decompress(s).unwrap(),
            })
        };
        let bits = |r: Result<Vec<f32>, ServeError>| match r {
            Ok(v) => fnv(v.iter().map(|x| x.to_bits() as u64)),
            Err(e) => e.code as u64,
        };
        // Seven stores, then two replacements of live keys.
        for (key, seed) in [
            (0, 0),
            (1, 1),
            (2, 2),
            (3, 3),
            (4, 4),
            (5, 5),
            (6, 6),
            (1, 11),
            (4, 14),
        ] {
            let r = t.store(&registry, key, LAYOUT, 1e-3, stream(seed));
            line(&t, r.map_or_else(|e| e.code as u64, |tier| tier as u64));
        }
        for key in [0, 4, 6] {
            let r = fetch(&mut t, key);
            line(&t, bits(r));
        }
        for (key, start) in [(2, 2), (5, 6), (1, 0)] {
            let r = t.fetch_planes(key, start, start + 2);
            line(&t, bits(r));
        }
        let r = t.evict(3).map(|()| Vec::new());
        line(&t, bits(r));
        let freed = t.reclaim_to(BUDGET / 4);
        line(&t, freed as u64);
        let r = fetch(&mut t, 1);
        line(&t, bits(r));
        let r = t.store(&registry, 3, LAYOUT, 1e-3, stream(33));
        line(&t, r.map_or_else(|e| e.code as u64, |tier| tier as u64));
        let r = fetch(&mut t, 3);
        line(&t, bits(r));
        let r = t.evict(0).map(|()| Vec::new());
        line(&t, bits(r));
        let freed = t.reclaim_to(0);
        line(&t, freed as u64);
        for key in [6, 3] {
            let r = t.fetch_planes(key, 4, 6);
            line(&t, bits(r));
        }
        // Every stream compresses, so every entry kept its client's
        // stream and the server never ran a compressor.
        let m = t.arena.metrics();
        assert_eq!((m.bytes_compressed_raw, m.compress_nanos), (0, 0));
        lines
    }

    #[test]
    fn host_migrate_tenant_script_is_frozen() {
        assert_eq!(
            tenant_script(ColdPolicy::HostMigrate),
            [
                "10995 16384 10995 1 8192 1 0 0 0",
                "13782 16384 13782 2 16384 2 0 0 0",
                "13759 16384 13782 3 24576 3 0 0 0",
                "13752 16384 13782 4 32768 4 0 0 0",
                "13768 16384 13782 5 40960 5 0 0 0",
                "13795 16384 13795 6 49152 6 0 0 0",
                "13780 16384 13795 7 57344 7 0 0 0",
                "13757 16384 13795 7 57344 8 0 0 0",
                "13779 16384 13795 7 57344 9 0 0 0",
                "13779 16384 13795 7 57344 9 1 0 f59f687f4b9f1230",
                "13779 16384 13795 7 57344 9 2 0 9643b8e773ddfb80",
                "13779 16384 13795 7 57344 9 3 0 419356b969163c24",
                "13779 16384 13795 7 57344 9 4 0 d65c018914f6257b",
                "13779 16384 13795 7 57344 9 5 0 388b574c4a32c94f",
                "13779 16384 13795 7 57344 9 6 0 da46c1bb14ff4260",
                "13779 16384 13795 6 49152 9 6 0 cbf29ce484222325",
                "2784 16384 13795 6 49152 9 6 0 2af3",
                "2784 16384 13795 6 49152 9 7 0 4f8f4de02a95ea9a",
                "13759 16384 13795 7 57344 10 7 0 0",
                "13759 16384 13795 7 57344 10 8 0 dc251efb0858e2d3",
                "13759 16384 13795 6 49152 10 8 0 cbf29ce484222325",
                "0 16384 13795 6 49152 10 8 0 35bf",
                "0 16384 13795 6 49152 10 9 0 7565adefe67ed048",
                "0 16384 13795 6 49152 10 10 0 dee41aea3a47c3b3",
            ]
        );
    }

    #[test]
    fn drop_for_recompute_tenant_script_is_frozen() {
        assert_eq!(
            tenant_script(ColdPolicy::DropForRecompute),
            [
                "10995 16384 10995 1 8192 1 0 0 0",
                "13782 16384 13782 2 16384 2 0 0 0",
                "13759 16384 13782 3 24576 3 0 0 0",
                "13752 16384 13782 4 32768 4 0 0 0",
                "13768 16384 13782 5 40960 5 0 0 0",
                "13795 16384 13795 6 49152 6 0 0 0",
                "13780 16384 13795 7 57344 7 0 0 0",
                "13757 16384 13795 7 57344 8 0 0 0",
                "13779 16384 13795 7 57344 9 0 0 0",
                "13779 16384 13795 7 57344 9 0 0 8",
                "13779 16384 13795 7 57344 9 1 0 9643b8e773ddfb80",
                "13779 16384 13795 7 57344 9 1 0 8",
                "13779 16384 13795 7 57344 9 1 0 8",
                "13779 16384 13795 7 57344 9 1 0 8",
                "13779 16384 13795 7 57344 9 2 0 da46c1bb14ff4260",
                "13779 16384 13795 6 49152 9 2 0 cbf29ce484222325",
                "2784 16384 13795 6 49152 9 2 0 2af3",
                "2784 16384 13795 6 49152 9 3 0 4f8f4de02a95ea9a",
                "13759 16384 13795 7 57344 10 3 0 0",
                "13759 16384 13795 7 57344 10 4 0 dc251efb0858e2d3",
                "13759 16384 13795 6 49152 10 4 0 cbf29ce484222325",
                "0 16384 13795 6 49152 10 4 0 35bf",
                "0 16384 13795 6 49152 10 4 0 8",
                "0 16384 13795 6 49152 10 4 0 8",
            ]
        );
    }

    #[test]
    fn stats_encode_decode_roundtrip() {
        let s = TenantStats {
            resident_bytes: 1,
            budget_bytes: 2,
            peak_resident_bytes: 3,
            entries: 4,
            raw_bytes: 5,
            stores: 6,
            fetches: 7,
            rejected: 8,
        };
        let enc = s.encode();
        assert_eq!(enc.len(), 64);
        assert_eq!(TenantStats::decode(&enc), Some(s));
        assert_eq!(TenantStats::decode(&enc[..63]), None);
        let mut long = enc.clone();
        long.push(0);
        assert_eq!(TenantStats::decode(&long), None);
    }
}
