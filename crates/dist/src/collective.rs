//! The [`Collective`] trait, communication-byte accounting, and the ring
//! segment geometry.
//!
//! A collective is shared (`Arc`) by all workers of one group; each
//! worker calls the operations from its own thread with its `rank`, and
//! the implementation synchronizes internally. Semantics follow the
//! MPI/NCCL conventions with one deliberate twist: **`all_reduce`
//! averages** (divides by the world size) because gradient averaging is
//! the only reduction this workspace performs, and folding the division
//! into the collective keeps every replica's arithmetic identical.

use crate::Result;
use std::ops::Range;
use std::time::Duration;

/// Ring segments are aligned to this many elements — exactly one `D1`
/// plane of the Z2 stream format ([`ebtrain_sz::DataLayout::plane_elems`]),
/// so every segment but the tensor's last is a whole number of planes
/// and its stream chunks on the same plane grid as the whole gradient.
pub const SEG_ALIGN: usize = 4096;

/// Split `len` elements into `world` contiguous ring segments, aligned
/// to [`SEG_ALIGN`] (ceil-divided in plane units, so every segment but
/// the last covers the same number of planes; trailing segments may be
/// empty when the vector is small).
pub fn seg_ranges(len: usize, world: usize) -> Vec<Range<usize>> {
    let world = world.max(1);
    let planes = len.div_ceil(SEG_ALIGN);
    let per = planes.div_ceil(world).max(1);
    (0..world)
        .map(|i| {
            let lo = (i * per * SEG_ALIGN).min(len);
            let hi = (((i + 1) * per) * SEG_ALIGN).min(len);
            lo..hi.max(lo)
        })
        .collect()
}

/// Segmentation for a **window** `[start, start + len)` of a larger
/// `total`-element flat tensor: the global segments of the whole tensor
/// ([`seg_ranges`]`(total, world)`), intersected with the window and
/// shifted to window-local coordinates.
///
/// This is how bucket collectives stay **bit-identical to the legacy
/// whole-tensor sync**: a ring reduce folds segment `s`'s values in a
/// fixed rank order that *starts at rank `s`*, so re-segmenting a
/// bucket locally would change each element's f32 association order.
/// By inheriting the whole-tensor segment map, every element keeps the
/// association order it would have had in one whole-tensor reduce, no
/// matter how the flat view is bucketed. (Segments that miss the window
/// come back empty; the ring schedule ships them as empty payloads.)
pub fn seg_ranges_at(start: usize, len: usize, total: usize, world: usize) -> Vec<Range<usize>> {
    debug_assert!(start + len <= total, "window exceeds the flat tensor");
    let end = start + len;
    seg_ranges(total, world)
        .into_iter()
        .map(|g| {
            let lo = g.start.clamp(start, end);
            let hi = g.end.clamp(start, end).max(lo);
            lo - start..hi - start
        })
        .collect()
}

/// Cumulative communication counters of a collective.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Point-to-point messages plus per-receiver broadcast deliveries.
    pub messages: u64,
    /// Bytes that actually travelled: the stream's size on a lossy hop,
    /// four bytes per element on the exact one.
    pub payload_bytes: u64,
    /// Bytes a dense f32 transport would have moved for the identical
    /// schedule — the baseline of the Fig 12 reduction claim.
    pub dense_equiv_bytes: u64,
    /// Completed broadcast operations (counted once per group).
    pub broadcasts: u64,
    /// Completed reduce-scatter/all-gather phases (an `all_reduce` is
    /// one of each).
    pub phases: u64,
}

impl CommStats {
    /// `dense_equiv_bytes / payload_bytes` — how much the transport
    /// saved over dense f32 (1.0 for the dense baseline itself).
    pub fn reduction_ratio(&self) -> f64 {
        if self.payload_bytes == 0 {
            1.0
        } else {
            self.dense_equiv_bytes as f64 / self.payload_bytes as f64
        }
    }

    /// Element-wise difference (for per-step deltas).
    ///
    /// Per-phase *timings* (encode/decode/wire/wait) are not here: they
    /// live in the `ebtrain-obs` registry as the `dist.encode` /
    /// `dist.decode` spans and the `dist.wire.nanos` / `dist.wait.nanos`
    /// counters, and are deltaed with
    /// [`Snapshot::delta_since`](ebtrain_obs::Snapshot::delta_since).
    pub fn delta_since(&self, earlier: &CommStats) -> CommStats {
        CommStats {
            messages: self.messages - earlier.messages,
            payload_bytes: self.payload_bytes - earlier.payload_bytes,
            dense_equiv_bytes: self.dense_equiv_bytes - earlier.dense_equiv_bytes,
            broadcasts: self.broadcasts - earlier.broadcasts,
            phases: self.phases - earlier.phases,
        }
    }
}

/// An in-memory collective for one group of `world_size` workers.
///
/// Every method is called **concurrently by all ranks** (each from its
/// own thread) and returns only when this rank's part of the operation
/// completed. Implementations must release every blocked rank with
/// [`DistError::Aborted`](crate::DistError::Aborted) when any rank calls
/// [`abort`](Collective::abort) (or fails internally), so one worker's
/// failure can never deadlock the group.
pub trait Collective: Send + Sync {
    /// Number of participating ranks.
    fn world_size(&self) -> usize;

    /// Implementation name (reporting).
    fn name(&self) -> &'static str;

    /// Replace every rank's `buf` with `root`'s — used once at start-up
    /// to put all replicas on identical parameters. **Exact on every
    /// transport** (dense f32 payload): only the recurring gradient
    /// streams are lossy.
    fn broadcast(&self, rank: usize, root: usize, buf: &mut [f32]) -> Result<()>;

    /// Average `buf` across all ranks: the whole tensor as one window
    /// under tag 0 (see [`all_reduce_aligned`](Collective::all_reduce_aligned)).
    fn all_reduce(&self, rank: usize, buf: &mut [f32]) -> Result<()> {
        let len = buf.len();
        self.all_reduce_aligned(rank, buf, 0, 0, len)
    }

    /// Ring reduce-scatter of a **window** of a larger flat tensor: `buf`
    /// holds elements `[start, start + buf.len())` of a `total`-element
    /// flat view, segmented by [`seg_ranges_at`] — so bucket-granular sync
    /// keeps each element's reduction association order identical to one
    /// whole-tensor sync (the bit-identity invariant the bucket proptests
    /// pin). On return this rank's **owned segment** of `buf` holds the
    /// across-rank **sum**; other segments hold partial garbage. Returns
    /// the owned segment index.
    ///
    /// All messages travel under `tag`, so **several collectives may be
    /// in flight concurrently** on the same group (one per gradient
    /// bucket). Every rank must launch the same set of tags. A window
    /// that runs past `total` is a [`DistError::Config`](crate::DistError::Config).
    fn reduce_scatter_aligned(
        &self,
        rank: usize,
        buf: &mut [f32],
        tag: u64,
        start: usize,
        total: usize,
    ) -> Result<usize>;

    /// Ring all-gather of a window's per-segment results: each rank
    /// contributes the segment it owns (`owned` from
    /// [`reduce_scatter_aligned`](Collective::reduce_scatter_aligned));
    /// on return every rank's `buf` holds identical values in all
    /// segments. An `owned` index outside the world is a
    /// [`DistError::Config`](crate::DistError::Config), like a bad window.
    fn all_gather_aligned(
        &self,
        rank: usize,
        owned: usize,
        buf: &mut [f32],
        tag: u64,
        start: usize,
        total: usize,
    ) -> Result<()>;

    /// Averaging all-reduce of one bucket (reduce-scatter, all-gather,
    /// then divide by the world size), bit-identical to the same elements
    /// inside a whole-tensor [`all_reduce`](Collective::all_reduce).
    /// Every rank returns with **bit-identical** contents — lossy
    /// transports guarantee this by having the segment owner adopt the
    /// reconstruction of its own stream.
    fn all_reduce_aligned(
        &self,
        rank: usize,
        buf: &mut [f32],
        tag: u64,
        start: usize,
        total: usize,
    ) -> Result<()> {
        if self.world_size() <= 1 || buf.is_empty() {
            return Ok(());
        }
        let owned = self.reduce_scatter_aligned(rank, buf, tag, start, total)?;
        self.all_gather_aligned(rank, owned, buf, tag, start, total)?;
        let inv = 1.0 / self.world_size() as f32;
        for v in buf.iter_mut() {
            *v *= inv;
        }
        Ok(())
    }

    /// **Exact** (dense f32) window all-gather, even on lossy transports:
    /// the ZeRO-style parameter gather — updated parameters are shipped
    /// once, losslessly, like the startup broadcast.
    fn all_gather_exact_aligned(
        &self,
        rank: usize,
        owned: usize,
        buf: &mut [f32],
        tag: u64,
        start: usize,
        total: usize,
    ) -> Result<()>;

    /// Cumulative communication counters.
    fn stats(&self) -> CommStats;

    /// Zero the counters.
    fn reset_stats(&self);

    /// Update the transport's error bound (no-op for lossless
    /// transports) — the knob the σ-model hook turns.
    fn set_error_bound(&self, _eb: f32) {}

    /// Current error bound, if the transport is lossy.
    fn error_bound(&self) -> Option<f32> {
        None
    }

    /// Per-bucket error-bound override: tagged operations under `tag`
    /// use `eb` instead of the global bound (σ-model refinement from
    /// each bucket's own gradient statistics). `None` clears the
    /// override. No-op for lossless transports.
    fn set_bucket_error_bound(&self, _tag: u64, _eb: Option<f32>) {}

    /// Bounded-staleness straggler deadline: a rank blocked in `recv`
    /// longer than this poisons the collective and every peer returns a
    /// clean `Aborted` instead of waiting forever. `None` (default)
    /// waits indefinitely.
    fn set_straggler_timeout(&self, _timeout: Option<Duration>) {}

    /// Enable the modeled interconnect: every send sleeps
    /// `bytes / (mibps MiB/s)` before delivery and accounts the time
    /// under the `dist.wire.nanos` registry counter. `None` (default)
    /// disables the model —
    /// in-memory payload handoff is then effectively free, which hides
    /// the byte savings of compressed transports from wall-clock
    /// numbers.
    fn set_wire_mibps(&self, _mibps: Option<f64>) {}

    /// Poison the collective: every rank blocked in (or later entering)
    /// any operation returns [`DistError::Aborted`](crate::DistError::Aborted).
    fn abort(&self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_tile_the_vector_plane_aligned() {
        for (len, world) in [
            (SEG_ALIGN * 10, 4),
            (SEG_ALIGN * 10 + 17, 4),
            (100, 3),
            (0, 2),
            (SEG_ALIGN, 8),
            (SEG_ALIGN * 3 - 1, 2),
        ] {
            let segs = seg_ranges(len, world);
            assert_eq!(segs.len(), world);
            let mut cursor = 0;
            for (i, s) in segs.iter().enumerate() {
                assert_eq!(s.start, cursor, "len {len} world {world} seg {i}");
                assert!(s.end >= s.start);
                // Interior boundaries sit on plane multiples.
                if s.end < len {
                    assert_eq!(s.end % SEG_ALIGN, 0, "unaligned boundary at seg {i}");
                }
                cursor = s.end;
            }
            assert_eq!(cursor, len, "segments must cover the vector");
        }
    }

    #[test]
    fn window_segments_are_global_intersections() {
        let total = SEG_ALIGN * 9 + 100;
        let world = 4;
        let global = seg_ranges(total, world);
        // A whole-tensor window reproduces the global map.
        assert_eq!(seg_ranges_at(0, total, total, world), global);
        for (start, len) in [
            (0usize, SEG_ALIGN / 2),
            (17, SEG_ALIGN * 3),
            (SEG_ALIGN * 2 + 5, SEG_ALIGN * 5),
            (total - 1, 1),
            (SEG_ALIGN, 0),
        ] {
            let segs = seg_ranges_at(start, len, total, world);
            assert_eq!(segs.len(), world);
            let mut cursor = 0usize;
            for (i, s) in segs.iter().enumerate() {
                assert_eq!(s.start, cursor, "window ({start},{len}) seg {i}");
                assert!(s.end >= s.start);
                // Each piece is exactly the global segment clipped to
                // the window.
                let g = &global[i];
                let lo = g.start.clamp(start, start + len);
                let hi = g.end.clamp(start, start + len).max(lo);
                assert_eq!(s.start + start, lo);
                assert_eq!(s.end + start, hi);
                cursor = s.end;
            }
            assert_eq!(cursor, len, "pieces must tile the window");
        }
    }

    #[test]
    fn stats_ratio_and_delta() {
        let a = CommStats {
            messages: 2,
            payload_bytes: 100,
            dense_equiv_bytes: 800,
            broadcasts: 0,
            phases: 1,
        };
        assert!((a.reduction_ratio() - 8.0).abs() < 1e-12);
        assert_eq!(CommStats::default().reduction_ratio(), 1.0);
        let later = CommStats {
            messages: 5,
            payload_bytes: 150,
            dense_equiv_bytes: 1000,
            broadcasts: 1,
            phases: 2,
        };
        let d = later.delta_since(&a);
        assert_eq!(d.messages, 3);
        assert_eq!(d.payload_bytes, 50);
        assert_eq!(d.dense_equiv_bytes, 200);
        assert_eq!(d.broadcasts, 1);
        assert_eq!(d.phases, 1);
    }
}
