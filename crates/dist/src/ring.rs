//! Ring collectives: the shared mailbox/barrier machinery, the exact
//! dense-f32 baseline, and the SZ-compressed transport with per-worker
//! error feedback.
//!
//! # Ring schedule
//!
//! The gradient splits into `N` plane-aligned segments
//! ([`seg_ranges`]). A classic two-phase ring runs `2(N−1)` hops, every
//! rank sending to `(rank+1) % N`:
//!
//! * **reduce-scatter**, hop `t`: rank `r` sends segment `(r − t) mod N`
//!   (its current partial sum) and adds the received segment
//!   `(r − t − 1) mod N` into its accumulator. After `N−1` hops rank `r`
//!   owns the complete sum of segment `(r + 1) mod N`.
//! * **all-gather**, hop `t`: rank `r` sends segment `(r + 1 − t) mod N`
//!   and installs the received segment `(r − t) mod N`. Received
//!   messages are **forwarded verbatim** on the next hop.
//!
//! # Tagged, bucket-granular operation
//!
//! Every point-to-point message carries a **tag** (the gradient bucket
//! index), and each rank's mailbox is a tag-keyed map — so several
//! tagged collectives may be **in flight concurrently** on one group
//! (one per bucket, launched as backward retires buckets) without their
//! messages interleaving. The untagged [`Collective`] entry points are
//! the `tag = 0` special case.
//!
//! Bucket collectives use the **aligned** entry points
//! (`*_aligned`, segmentation by [`seg_ranges_at`]): a bucket's
//! segments are the whole-tensor segments clipped to the bucket's flat
//! window, so every element keeps the reduction association order it
//! would have had in one whole-tensor sync — which makes bucket-wise
//! dense sync **bit-identical** to the legacy whole-tensor sync, not
//! merely close (f32 addition is commutative but not associative; only
//! an inherited segment map preserves the exact fold). It also gives
//! ZeRO sharding a clean shape: across all buckets, rank `r`'s owned
//! pieces tile exactly the whole-tensor segment `(r + 1) mod N`.
//!
//! # Compressed transport
//!
//! [`CompressedRing`] ships every segment as a self-describing
//! [`TaggedStream`] of its configured [`Codec`] (SZ by default; any
//! registered backend via [`CompressedRing::with_codec`]), with three
//! twists:
//!
//! * **Segment-only encode.** Each rank compresses exactly the segment
//!   it forwards on each hop — never the whole gradient. Segments are
//!   plane-aligned ([`seg_ranges`]), so the per-segment streams keep
//!   the same chunk geometry a whole-gradient frame-indexed stream
//!   would have, at `~1/N` of the old hop-0 encode work per rank.
//! * **All-gather never re-compresses — and nobody decodes their own
//!   stream.** The segment owner compresses its reduced segment once
//!   with [`Codec::compress_recon`], *adopts the reconstruction the
//!   encoder hands back*, and every later hop forwards the identical
//!   bytes. Peers decode those bytes; the owner holds
//!   `compress_recon(..).1`, which the codec contract makes
//!   bit-identical to `decompress` of the same stream (the default
//!   implementation *is* `compress` + `decompress`; SZ dual-quant
//!   answers from its quantizer, pinned bit-for-bit by the conformance
//!   suite over every registered codec). So each segment's final value
//!   is one stream's reconstruction on every rank and **all replicas
//!   finish bit-identical**, the property replica-lockstep SGD needs —
//!   while each rank runs the entropy decoder only over streams it
//!   *received* (`dist.codec.decodes` == `dist.decode` spans == non-empty
//!   messages received).
//! * **Error feedback.** Each rank keeps a residual vector `e` **per
//!   tag**; before compressing values `v` for a coordinate range it
//!   sends `v + e`, and afterwards stores `e ← (v + e) − x̂`, with `x̂`
//!   again the encoder's reconstruction of the stream just built (what
//!   the receiver will decode, by the same contract). The quantization
//!   error a step rounds away is re-injected the next step, which keeps
//!   the *time-averaged* injected gradient error unbiased (EF-SGD). One
//!   tagged `all_reduce` touches every coordinate of its bucket exactly
//!   once across both phases, so each residual is well-defined.
//!
//! Spans: `dist.encode` is one segment's encode plus its residual
//! arithmetic (never a decode); `dist.decode` is one received stream's
//! decode. `dist.codec.encodes` / `dist.codec.decodes` count the codec
//! calls at those two sites and `dist.errors.codec` the codec failures
//! that poisoned the group.
//!
//! # Failure and straggler handling
//!
//! Any rank failing mid-operation poisons the collective and releases
//! every blocked peer with `Aborted` — no deadlock on worker failure.
//! With a **straggler deadline** set ([`Collective::set_straggler_timeout`])
//! a rank blocked in `recv` past the deadline poisons the group itself,
//! turning an indefinitely-delayed peer into the same clean abort.
//!
//! # Modeled interconnect
//!
//! In-memory message handoff is effectively free, which would hide the
//! wall-clock value of sending fewer bytes. With a wire bandwidth set
//! ([`Collective::set_wire_mibps`]) every send **sleeps**
//! `bytes / bandwidth` before delivery (accounted under the
//! `dist.wire.nanos` registry counter); sleeping releases the core, so
//! overlapped bucket collectives genuinely hide modeled wire time the
//! way comm/compute overlap hides real wire time. Off by default.

use crate::collective::{seg_ranges, seg_ranges_at, Collective, CommStats};
use crate::{DistError, Result};
use ebtrain_codec::{BoundSpec, Codec, SzCodec, TaggedStream};
use ebtrain_sz::DataLayout;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Wait-loop tick: every blocked wait re-checks the poison flag at least
/// this often, so an abort can never be lost to a missed wakeup.
const POISON_TICK: Duration = Duration::from_millis(25);

/// One hop's payload.
#[derive(Clone)]
enum Payload {
    /// Empty segment (vector smaller than the ring).
    Empty,
    /// Raw f32 values (dense transport).
    Dense(Arc<Vec<f32>>),
    /// Independent compressed stream of one segment.
    Stream(Arc<TaggedStream>),
}

/// One point-to-point message.
#[derive(Clone)]
struct Message {
    seg: usize,
    payload: Payload,
    /// Wire bytes this payload costs (recounted on every forward hop).
    wire_bytes: usize,
    /// Bytes a dense f32 transport would have cost for the same hop.
    dense_bytes: usize,
}

/// One rank's mailbox: tag-keyed, capacity 1 **per tag** — concurrent
/// tagged collectives never see each other's messages, while within a
/// tag the ring's hop-by-hop flow control is preserved.
struct Slot {
    cell: Mutex<HashMap<u64, Message>>,
    cv: Condvar,
}

struct BarrierState {
    gen: u64,
    arrived: usize,
}

/// Payload parked by a broadcast root for every peer to copy.
/// Broadcast is the one-time exact parameter sync on every transport,
/// so the payload is always dense (see `CompressedRing::broadcast`).
#[derive(Clone)]
enum BcastPayload {
    Dense(Arc<Vec<f32>>),
}

/// State shared by all ranks of one ring group.
struct RingCore {
    world: usize,
    slots: Vec<Slot>,
    poisoned: AtomicBool,
    barrier: Mutex<BarrierState>,
    barrier_cv: Condvar,
    bcast: Mutex<Option<BcastPayload>>,
    bcast_cv: Condvar,
    stats: Mutex<CommStats>,
    /// Straggler deadline for `recv` (None = wait indefinitely).
    straggler: Mutex<Option<Duration>>,
    /// Modeled wire bandwidth in MiB/s (None = no wire model).
    wire_mibps: Mutex<Option<f64>>,
}

fn aborted() -> DistError {
    DistError::Aborted("a peer failed or aborted the collective".into())
}

impl RingCore {
    fn new(world: usize) -> RingCore {
        RingCore {
            world,
            slots: (0..world)
                .map(|_| Slot {
                    cell: Mutex::new(HashMap::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            poisoned: AtomicBool::new(false),
            barrier: Mutex::new(BarrierState { gen: 0, arrived: 0 }),
            barrier_cv: Condvar::new(),
            bcast: Mutex::new(None),
            bcast_cv: Condvar::new(),
            stats: Mutex::new(CommStats::default()),
            straggler: Mutex::new(None),
            wire_mibps: Mutex::new(None),
        }
    }

    /// Mutate the shared counters under the lock.
    fn stat(&self, f: impl FnOnce(&mut CommStats)) {
        f(&mut self.stats.lock().expect("stats poisoned"));
    }

    fn check(&self) -> Result<()> {
        if self.poisoned.load(Ordering::Acquire) {
            Err(aborted())
        } else {
            Ok(())
        }
    }

    fn poison(&self) {
        let first = !self.poisoned.swap(true, Ordering::AcqRel);
        for s in &self.slots {
            s.cv.notify_all();
        }
        self.barrier_cv.notify_all();
        self.bcast_cv.notify_all();
        if first {
            // Post-mortem: the last N steps before a poisoned
            // collective go to EBTRAIN_FLIGHT (no-op when unset).
            let _ = ebtrain_obs::flight::dump_flight("collective-poisoned");
        }
    }

    /// Deliver `msg` into `to`'s mailbox under `tag` (capacity 1 per
    /// tag: waits until the previous same-tag message was consumed),
    /// account its bytes, and — with the wire model on — sleep the
    /// modeled transmission time first.
    fn send(&self, to: usize, tag: u64, msg: Message) -> Result<()> {
        self.stat(|st| {
            st.messages += 1;
            st.payload_bytes += msg.wire_bytes as u64;
            st.dense_equiv_bytes += msg.dense_bytes as u64;
        });
        let bw = *self.wire_mibps.lock().expect("wire poisoned");
        if let Some(mibps) = bw {
            if mibps > 0.0 && msg.wire_bytes > 0 {
                let nanos = (msg.wire_bytes as f64 / (mibps * 1024.0 * 1024.0) * 1e9) as u64;
                std::thread::sleep(Duration::from_nanos(nanos));
                // The *modeled* transmission time (not the measured
                // sleep, which oversleeps by scheduler jitter). The
                // counter stays the exact modeled sum (pinned by test);
                // the histogram gives the per-message distribution.
                ebtrain_obs::counter_add("dist.wire.nanos", nanos);
                ebtrain_obs::hist_record("dist.wire", nanos);
            }
        }
        let slot = &self.slots[to];
        let mut cell = slot.cell.lock().expect("slot poisoned");
        while cell.contains_key(&tag) {
            self.check()?;
            cell = slot.cv.wait_timeout(cell, POISON_TICK).expect("slot").0;
        }
        self.check()?;
        cell.insert(tag, msg);
        slot.cv.notify_all();
        Ok(())
    }

    /// Take the message addressed to `rank` under `tag`. With a
    /// straggler deadline set, waiting past it poisons the group and
    /// returns a clean `Aborted` — a delayed peer can never hold the
    /// ring hostage.
    fn recv(&self, rank: usize, tag: u64) -> Result<Message> {
        let deadline = self
            .straggler
            .lock()
            .expect("straggler poisoned")
            .map(|t| Instant::now() + t);
        let slot = &self.slots[rank];
        let mut cell = slot.cell.lock().expect("slot poisoned");
        loop {
            if let Some(msg) = cell.remove(&tag) {
                slot.cv.notify_all();
                return Ok(msg);
            }
            self.check()?;
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    drop(cell);
                    self.poison();
                    return Err(DistError::Aborted(
                        "straggler deadline exceeded waiting for a peer's message".into(),
                    ));
                }
            }
            cell = slot.cv.wait_timeout(cell, POISON_TICK).expect("slot").0;
        }
    }

    /// Generation barrier across all ranks.
    fn barrier(&self) -> Result<()> {
        let mut st = self.barrier.lock().expect("barrier poisoned");
        self.check()?;
        let gen = st.gen;
        st.arrived += 1;
        if st.arrived == self.world {
            st.arrived = 0;
            st.gen += 1;
            self.barrier_cv.notify_all();
            return Ok(());
        }
        while st.gen == gen {
            self.check()?;
            st = self
                .barrier_cv
                .wait_timeout(st, POISON_TICK)
                .expect("barrier")
                .0;
        }
        Ok(())
    }

    /// Root side of a broadcast: park the payload (waiting for any
    /// previous broadcast to be fully consumed) and account one delivery
    /// per peer.
    fn bcast_put(&self, payload: BcastPayload, wire_each: usize, dense_each: usize) -> Result<()> {
        let mut cell = self.bcast.lock().expect("bcast poisoned");
        while cell.is_some() {
            self.check()?;
            cell = self.bcast_cv.wait_timeout(cell, POISON_TICK).expect("b").0;
        }
        self.check()?;
        *cell = Some(payload);
        self.bcast_cv.notify_all();
        let peers = (self.world - 1) as u64;
        let mut st = self.stats.lock().expect("stats poisoned");
        st.messages += peers;
        st.payload_bytes += wire_each as u64 * peers;
        st.dense_equiv_bytes += dense_each as u64 * peers;
        st.broadcasts += 1;
        Ok(())
    }

    /// Peer side: clone the parked payload (after the put barrier).
    fn bcast_get(&self) -> Result<BcastPayload> {
        let cell = self.bcast.lock().expect("bcast poisoned");
        self.check()?;
        cell.clone()
            .ok_or_else(|| DistError::Aborted("broadcast payload missing at barrier".into()))
    }

    fn bcast_clear(&self) {
        *self.bcast.lock().expect("bcast poisoned") = None;
        self.bcast_cv.notify_all();
    }

    fn count_phase(&self, rank: usize) {
        if rank == 0 {
            self.stats.lock().expect("stats poisoned").phases += 1;
        }
    }

    /// The whole broadcast protocol, shared by both transports: park
    /// (root) → barrier → copy (peers) → barrier → clear (root). Dense
    /// payload on every transport — broadcast is the one-time exact
    /// parameter sync; only recurring gradient streams are lossy.
    fn dense_broadcast(&self, rank: usize, root: usize, buf: &mut [f32]) -> Result<()> {
        if self.world <= 1 {
            return Ok(());
        }
        if rank == root {
            let bytes = buf.len() * 4;
            self.bcast_put(BcastPayload::Dense(Arc::new(buf.to_vec())), bytes, bytes)?;
        }
        self.barrier()?;
        if rank != root {
            match self.bcast_get()? {
                BcastPayload::Dense(data) if data.len() == buf.len() => {
                    buf.copy_from_slice(&data);
                }
                _ => {
                    self.poison();
                    return Err(DistError::Aborted("broadcast payload mismatch".into()));
                }
            }
        }
        self.barrier()?;
        if rank == root {
            self.bcast_clear();
        }
        Ok(())
    }

    /// Exact (dense f32) ring reduce-scatter under `tag`, over an
    /// explicit segment map (`segs` must tile `[0, buf.len())` in
    /// order; see [`seg_ranges`] / [`seg_ranges_at`]).
    fn dense_reduce_scatter(
        &self,
        rank: usize,
        buf: &mut [f32],
        tag: u64,
        segs: &[Range<usize>],
    ) -> Result<usize> {
        let n = self.world;
        if n <= 1 {
            return Ok(0);
        }
        for t in 0..n - 1 {
            let s_send = (rank + n - t) % n;
            let s_recv = (rank + 2 * n - t - 1) % n;
            let r = segs[s_send].clone();
            let payload = if r.is_empty() {
                Payload::Empty
            } else {
                Payload::Dense(Arc::new(buf[r.clone()].to_vec()))
            };
            self.send(
                (rank + 1) % n,
                tag,
                Message {
                    seg: s_send,
                    payload,
                    wire_bytes: r.len() * 4,
                    dense_bytes: r.len() * 4,
                },
            )?;
            let msg = self.recv(rank, tag)?;
            if msg.seg != s_recv {
                self.poison();
                return Err(DistError::Aborted("ring schedule mismatch".into()));
            }
            let dst = segs[s_recv].clone();
            match msg.payload {
                Payload::Empty => {}
                Payload::Dense(vals) if vals.len() == dst.len() => {
                    for (b, v) in buf[dst].iter_mut().zip(vals.iter()) {
                        *b += v;
                    }
                }
                _ => {
                    self.poison();
                    return Err(DistError::Aborted("unexpected payload".into()));
                }
            }
        }
        self.count_phase(rank);
        Ok((rank + 1) % n)
    }

    /// Exact (dense f32) ring all-gather under `tag` — also the
    /// ZeRO-style parameter gather of lossy transports
    /// ([`Collective::all_gather_exact`]).
    fn dense_all_gather(
        &self,
        rank: usize,
        owned: usize,
        buf: &mut [f32],
        tag: u64,
        segs: &[Range<usize>],
    ) -> Result<()> {
        let n = self.world;
        if n <= 1 {
            return Ok(());
        }
        let mut forward: Option<Message> = None;
        for t in 0..n - 1 {
            let s_send = (rank + 1 + n - t) % n;
            let msg = match forward.take() {
                Some(m) => m,
                None => {
                    debug_assert_eq!(s_send, owned);
                    let r = segs[owned].clone();
                    let payload = if r.is_empty() {
                        Payload::Empty
                    } else {
                        Payload::Dense(Arc::new(buf[r.clone()].to_vec()))
                    };
                    Message {
                        seg: owned,
                        payload,
                        wire_bytes: r.len() * 4,
                        dense_bytes: r.len() * 4,
                    }
                }
            };
            self.send((rank + 1) % n, tag, msg)?;
            let received = self.recv(rank, tag)?;
            let s_recv = (rank + n - t) % n;
            if received.seg != s_recv {
                self.poison();
                return Err(DistError::Aborted("ring schedule mismatch".into()));
            }
            let dst = segs[s_recv].clone();
            match &received.payload {
                Payload::Empty => {}
                Payload::Dense(vals) if vals.len() == dst.len() => {
                    buf[dst].copy_from_slice(vals);
                }
                _ => {
                    self.poison();
                    return Err(DistError::Aborted("unexpected payload".into()));
                }
            }
            if t + 1 < n - 1 {
                forward = Some(received);
            }
        }
        self.count_phase(rank);
        Ok(())
    }
}

/// The exact dense-f32 ring — the communication baseline Fig 12 compares
/// against. Mathematically exact: the only deviation from a serial sum
/// is the fixed ring association order, which is identical on every
/// rank (replicas stay bit-identical).
pub struct DenseRing {
    core: RingCore,
}

impl DenseRing {
    /// Dense ring collective for `world` ranks.
    pub fn new(world: usize) -> DenseRing {
        DenseRing {
            core: RingCore::new(world.max(1)),
        }
    }
}

impl Collective for DenseRing {
    fn world_size(&self) -> usize {
        self.core.world
    }

    fn name(&self) -> &'static str {
        "dense-ring"
    }

    fn broadcast(&self, rank: usize, root: usize, buf: &mut [f32]) -> Result<()> {
        self.core.dense_broadcast(rank, root, buf)
    }

    fn reduce_scatter(&self, rank: usize, buf: &mut [f32]) -> Result<usize> {
        let segs = seg_ranges(buf.len(), self.core.world);
        self.core.dense_reduce_scatter(rank, buf, 0, &segs)
    }

    fn all_gather(&self, rank: usize, owned: usize, buf: &mut [f32]) -> Result<()> {
        let segs = seg_ranges(buf.len(), self.core.world);
        self.core.dense_all_gather(rank, owned, buf, 0, &segs)
    }

    fn reduce_scatter_tagged(&self, rank: usize, buf: &mut [f32], tag: u64) -> Result<usize> {
        let segs = seg_ranges(buf.len(), self.core.world);
        self.core.dense_reduce_scatter(rank, buf, tag, &segs)
    }

    fn all_gather_tagged(
        &self,
        rank: usize,
        owned: usize,
        buf: &mut [f32],
        tag: u64,
    ) -> Result<()> {
        let segs = seg_ranges(buf.len(), self.core.world);
        self.core.dense_all_gather(rank, owned, buf, tag, &segs)
    }

    fn reduce_scatter_aligned(
        &self,
        rank: usize,
        buf: &mut [f32],
        tag: u64,
        start: usize,
        total: usize,
    ) -> Result<usize> {
        let segs = seg_ranges_at(start, buf.len(), total, self.core.world);
        self.core.dense_reduce_scatter(rank, buf, tag, &segs)
    }

    fn all_gather_aligned(
        &self,
        rank: usize,
        owned: usize,
        buf: &mut [f32],
        tag: u64,
        start: usize,
        total: usize,
    ) -> Result<()> {
        let segs = seg_ranges_at(start, buf.len(), total, self.core.world);
        self.core.dense_all_gather(rank, owned, buf, tag, &segs)
    }

    fn all_gather_exact_aligned(
        &self,
        rank: usize,
        owned: usize,
        buf: &mut [f32],
        tag: u64,
        start: usize,
        total: usize,
    ) -> Result<()> {
        self.all_gather_aligned(rank, owned, buf, tag, start, total)
    }

    fn stats(&self) -> CommStats {
        *self.core.stats.lock().expect("stats poisoned")
    }

    fn reset_stats(&self) {
        *self.core.stats.lock().expect("stats poisoned") = CommStats::default();
    }

    fn set_straggler_timeout(&self, timeout: Option<Duration>) {
        *self.core.straggler.lock().expect("straggler poisoned") = timeout;
    }

    fn set_wire_mibps(&self, mibps: Option<f64>) {
        *self.core.wire_mibps.lock().expect("wire poisoned") = mibps;
    }

    fn abort(&self) {
        self.core.poison();
    }
}

/// The compressed ring: segments travel as self-describing codec
/// streams under an absolute error bound, with optional per-rank,
/// per-tag error feedback. See the module docs for the schedule and the
/// bit-identical-replicas argument (which holds for **any** codec that
/// honours the [`Codec::compress_recon`] contract: all-gather forwards
/// owner-encoded bytes verbatim, peers decode them, and the owner holds
/// the reconstruction that contract equates with their decode).
///
/// Encode work is **segment-only**: each rank compresses exactly the
/// segments it forwards, `~1/N` of the gradient per hop, instead of the
/// whole gradient on hop 0.
pub struct CompressedRing {
    core: RingCore,
    codec: Arc<dyn Codec>,
    eb: Mutex<f32>,
    /// Per-bucket bound overrides, keyed by tag (σ-model refinement).
    bucket_ebs: Mutex<HashMap<u64, f32>>,
    error_feedback: bool,
    /// `residuals[rank][tag]` — one EF residual per rank per bucket.
    residuals: Vec<Mutex<HashMap<u64, Vec<f32>>>>,
}

impl CompressedRing {
    /// Compressed ring for `world` ranks at absolute error bound `eb`
    /// (the dual-quant framework codec: every decoded value within ±eb),
    /// with or without error feedback.
    pub fn new(world: usize, eb: f32, error_feedback: bool) -> CompressedRing {
        Self::with_codec(world, Arc::new(SzCodec::dual_quant()), eb, error_feedback)
    }

    /// Compressed ring over any backend. The bound is resolved as
    /// `BoundSpec::Abs(eb)` per segment; lossless backends ignore it.
    pub fn with_codec(
        world: usize,
        codec: Arc<dyn Codec>,
        eb: f32,
        error_feedback: bool,
    ) -> CompressedRing {
        let world = world.max(1);
        CompressedRing {
            core: RingCore::new(world),
            codec,
            eb: Mutex::new(eb),
            bucket_ebs: Mutex::new(HashMap::new()),
            error_feedback,
            residuals: (0..world).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// Whether error feedback is active.
    pub fn error_feedback(&self) -> bool {
        self.error_feedback
    }

    /// The transport's codec.
    pub fn codec_name(&self) -> &'static str {
        self.codec.name()
    }

    /// The bound for `tag`: the per-bucket override if set, else the
    /// global bound.
    fn snapshot_bound(&self, tag: u64) -> BoundSpec {
        let eb = self
            .bucket_ebs
            .lock()
            .expect("bucket eb poisoned")
            .get(&tag)
            .copied()
            .unwrap_or_else(|| *self.eb.lock().expect("eb poisoned"));
        BoundSpec::Abs(eb)
    }

    /// Take the EF residual for `(rank, tag)`, zero-initialized (or
    /// reset) to `len` elements. Taken out of the map so concurrent
    /// tags on one rank don't serialize on each other's residuals.
    fn take_residual(&self, rank: usize, tag: u64, len: usize) -> Vec<f32> {
        let mut map = self.residuals[rank].lock().expect("residual poisoned");
        let mut v = map.remove(&tag).unwrap_or_default();
        if v.len() != len {
            v = vec![0.0; len];
        }
        v
    }

    fn put_residual(&self, rank: usize, tag: u64, v: Vec<f32>) {
        self.residuals[rank]
            .lock()
            .expect("residual poisoned")
            .insert(tag, v);
    }

    /// Lift a codec result into the ring: a failure poisons the group
    /// (peers blocked on this rank are released) and is counted under
    /// `dist.errors.codec`.
    fn codec<T>(&self, r: ebtrain_sz::Result<T>) -> Result<T> {
        r.map_err(|e| {
            ebtrain_obs::counter_add("dist.errors.codec", 1);
            self.core.poison();
            DistError::Sz(e)
        })
    }

    /// Compressed ring reduce-scatter over an explicit segment map.
    fn rs_segs(
        &self,
        rank: usize,
        buf: &mut [f32],
        tag: u64,
        segs: &[Range<usize>],
    ) -> Result<usize> {
        let n = self.core.world;
        if n <= 1 {
            return Ok(0);
        }
        let len = buf.len();
        let bound = self.snapshot_bound(tag);
        let mut res = if self.error_feedback {
            Some(self.take_residual(rank, tag, len))
        } else {
            None
        };
        for t in 0..n - 1 {
            let s_send = (rank + n - t) % n;
            let s_recv = (rank + 2 * n - t - 1) % n;
            let r = segs[s_send].clone();
            // Segment-only encode: one independent stream for exactly
            // the segment this hop forwards (hop 0 carries raw values,
            // later hops partial sums — same path).
            let res_seg = res.as_mut().map(|res| &mut res[r.clone()]);
            let msg = self.encode_segment(s_send, &mut buf[r], res_seg, &bound, false)?;
            self.core.send((rank + 1) % n, tag, msg)?;
            let received = self.core.recv(rank, tag)?;
            if received.seg != s_recv {
                self.core.poison();
                return Err(DistError::Aborted("ring schedule mismatch".into()));
            }
            let dst = &mut buf[segs[s_recv].clone()];
            let vals = self.decode_received(&received.payload, dst.len())?;
            for (b, v) in dst.iter_mut().zip(vals.iter()) {
                *b += v;
            }
        }
        if let Some(res) = res {
            self.put_residual(rank, tag, res);
        }
        self.core.count_phase(rank);
        Ok((rank + 1) % n)
    }

    /// Compressed ring all-gather over an explicit segment map.
    fn ag_segs(
        &self,
        rank: usize,
        owned: usize,
        buf: &mut [f32],
        tag: u64,
        segs: &[Range<usize>],
    ) -> Result<()> {
        let n = self.core.world;
        if n <= 1 {
            return Ok(());
        }
        let bound = self.snapshot_bound(tag);
        let mut forward: Option<Message> = None;
        for t in 0..n - 1 {
            let s_send = (rank + 1 + n - t) % n;
            let msg = match forward.take() {
                Some(m) => m,
                None => {
                    debug_assert_eq!(s_send, owned);
                    // Compress the reduced segment once and adopt the
                    // encoder's reconstruction, so this rank holds
                    // exactly what every peer will decode.
                    let r = segs[owned].clone();
                    let mut res = (self.error_feedback && !r.is_empty())
                        .then(|| self.take_residual(rank, tag, buf.len()));
                    let res_seg = res.as_mut().map(|res| &mut res[r.clone()]);
                    let msg = self.encode_segment(owned, &mut buf[r], res_seg, &bound, true);
                    if let Some(res) = res {
                        self.put_residual(rank, tag, res);
                    }
                    msg?
                }
            };
            self.core.send((rank + 1) % n, tag, msg)?;
            let received = self.core.recv(rank, tag)?;
            let s_recv = (rank + n - t) % n;
            if received.seg != s_recv {
                self.core.poison();
                return Err(DistError::Aborted("ring schedule mismatch".into()));
            }
            let dst = &mut buf[segs[s_recv].clone()];
            let vals = self.decode_received(&received.payload, dst.len())?;
            dst.copy_from_slice(&vals);
            if t + 1 < n - 1 {
                forward = Some(received);
            }
        }
        self.core.count_phase(rank);
        Ok(())
    }

    /// Encode one segment into the message that carries it. Under error
    /// feedback `res` is the segment's residual `e`: the stream encodes
    /// `v + e` and `e ← (v + e) − x̂`. With `adopt` (the all-gather
    /// owner) `seg ← x̂`. `x̂` is the **encoder's** reconstruction
    /// ([`Codec::compress_recon`], bit-identical to decoding the stream
    /// by contract), so no rank ever decodes a stream it encoded. The
    /// segment is walked once before the encode and once after it.
    ///
    /// The `dist.encode` span covers exactly this: encode plus residual
    /// arithmetic, never a decode.
    fn encode_segment(
        &self,
        seg_idx: usize,
        seg: &mut [f32],
        res: Option<&mut [f32]>,
        bound: &BoundSpec,
        adopt: bool,
    ) -> Result<Message> {
        if seg.is_empty() {
            return Ok(Message {
                seg: seg_idx,
                payload: Payload::Empty,
                wire_bytes: 0,
                dense_bytes: 0,
            });
        }
        let _span = ebtrain_obs::span!("dist.encode", bytes = seg.len() * 4);
        let summed: Option<Vec<f32>> = res
            .as_deref()
            .map(|res| seg.iter().zip(res).map(|(v, e)| v + e).collect());
        let vals = summed.as_deref().unwrap_or(seg);
        ebtrain_obs::counter_add("dist.codec.encodes", 1);
        let (stream, recon) = self.codec(self.codec.compress_recon(
            vals,
            DataLayout::D1(vals.len()),
            bound,
        ))?;
        if recon.len() != seg.len() {
            self.core.poison();
            return Err(DistError::Aborted("segment length mismatch".into()));
        }
        match (res, &summed) {
            (Some(res), Some(vals)) => {
                let cells = res.iter_mut().zip(seg.iter_mut());
                for ((r, s), (&v, &d)) in cells.zip(vals.iter().zip(&recon)) {
                    *r = v - d;
                    if adopt {
                        *s = d;
                    }
                }
            }
            _ if adopt => seg.copy_from_slice(&recon),
            _ => {}
        }
        Ok(Message {
            seg: seg_idx,
            wire_bytes: stream.compressed_byte_len(),
            dense_bytes: seg.len() * 4,
            payload: Payload::Stream(Arc::new(stream)),
        })
    }

    /// Decode a received hop payload into `expect` values (none for an
    /// empty segment). The only place the ring decodes: the `dist.decode`
    /// span and the `dist.codec.decodes` counter are exactly the streams
    /// this rank *received*.
    fn decode_received(&self, payload: &Payload, expect: usize) -> Result<Vec<f32>> {
        let vals = match payload {
            Payload::Empty => Vec::new(),
            Payload::Stream(stream) => {
                let _span = ebtrain_obs::span!("dist.decode", bytes = stream.compressed_byte_len());
                ebtrain_obs::counter_add("dist.codec.decodes", 1);
                self.codec(self.codec.decompress(stream))?
            }
            Payload::Dense(_) => {
                self.core.poison();
                return Err(DistError::Aborted("unexpected dense payload".into()));
            }
        };
        if vals.len() != expect {
            self.core.poison();
            return Err(DistError::Aborted("segment length mismatch".into()));
        }
        Ok(vals)
    }
}

impl Collective for CompressedRing {
    fn world_size(&self) -> usize {
        self.core.world
    }

    fn name(&self) -> &'static str {
        "compressed-ring"
    }

    /// Broadcast is **exact** (dense payload) even on this transport:
    /// only the recurring gradient *streams* are error-bounded. The
    /// broadcast is a one-time parameter sync, and quantizing it would
    /// start every replica a bounded-but-needless distance from the
    /// reference model (the EF-SGD convention: compress what repeats,
    /// ship the model once, losslessly).
    fn broadcast(&self, rank: usize, root: usize, buf: &mut [f32]) -> Result<()> {
        self.core.dense_broadcast(rank, root, buf)
    }

    fn reduce_scatter(&self, rank: usize, buf: &mut [f32]) -> Result<usize> {
        self.reduce_scatter_tagged(rank, buf, 0)
    }

    fn all_gather(&self, rank: usize, owned: usize, buf: &mut [f32]) -> Result<()> {
        self.all_gather_tagged(rank, owned, buf, 0)
    }

    fn reduce_scatter_tagged(&self, rank: usize, buf: &mut [f32], tag: u64) -> Result<usize> {
        let segs = seg_ranges(buf.len(), self.core.world);
        self.rs_segs(rank, buf, tag, &segs)
    }

    fn all_gather_tagged(
        &self,
        rank: usize,
        owned: usize,
        buf: &mut [f32],
        tag: u64,
    ) -> Result<()> {
        let segs = seg_ranges(buf.len(), self.core.world);
        self.ag_segs(rank, owned, buf, tag, &segs)
    }

    fn reduce_scatter_aligned(
        &self,
        rank: usize,
        buf: &mut [f32],
        tag: u64,
        start: usize,
        total: usize,
    ) -> Result<usize> {
        let segs = seg_ranges_at(start, buf.len(), total, self.core.world);
        self.rs_segs(rank, buf, tag, &segs)
    }

    fn all_gather_aligned(
        &self,
        rank: usize,
        owned: usize,
        buf: &mut [f32],
        tag: u64,
        start: usize,
        total: usize,
    ) -> Result<()> {
        let segs = seg_ranges_at(start, buf.len(), total, self.core.world);
        self.ag_segs(rank, owned, buf, tag, &segs)
    }

    /// ZeRO-style parameter gather: dense f32 payloads even on this
    /// lossy transport — updated parameters ship once, exactly, like
    /// the startup broadcast.
    fn all_gather_exact(&self, rank: usize, owned: usize, buf: &mut [f32], tag: u64) -> Result<()> {
        let segs = seg_ranges(buf.len(), self.core.world);
        self.core.dense_all_gather(rank, owned, buf, tag, &segs)
    }

    fn all_gather_exact_aligned(
        &self,
        rank: usize,
        owned: usize,
        buf: &mut [f32],
        tag: u64,
        start: usize,
        total: usize,
    ) -> Result<()> {
        let segs = seg_ranges_at(start, buf.len(), total, self.core.world);
        self.core.dense_all_gather(rank, owned, buf, tag, &segs)
    }

    fn stats(&self) -> CommStats {
        *self.core.stats.lock().expect("stats poisoned")
    }

    fn reset_stats(&self) {
        *self.core.stats.lock().expect("stats poisoned") = CommStats::default();
    }

    fn set_error_bound(&self, eb: f32) {
        *self.eb.lock().expect("eb poisoned") = eb;
    }

    fn error_bound(&self) -> Option<f32> {
        Some(*self.eb.lock().expect("eb poisoned"))
    }

    fn set_bucket_error_bound(&self, tag: u64, eb: Option<f32>) {
        let mut map = self.bucket_ebs.lock().expect("bucket eb poisoned");
        match eb {
            Some(eb) => {
                map.insert(tag, eb);
            }
            None => {
                map.remove(&tag);
            }
        }
    }

    fn set_straggler_timeout(&self, timeout: Option<Duration>) {
        *self.core.straggler.lock().expect("straggler poisoned") = timeout;
    }

    fn set_wire_mibps(&self, mibps: Option<f64>) {
        *self.core.wire_mibps.lock().expect("wire poisoned") = mibps;
    }

    fn abort(&self) {
        self.core.poison();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebtrain_pool::WorkerPool;

    /// Drive `op` concurrently for every rank over per-rank buffers.
    fn run_ranks<C: Collective + 'static>(
        coll: &Arc<C>,
        bufs: &mut [Vec<f32>],
        op: impl Fn(&C, usize, &mut Vec<f32>) -> Result<()> + Send + Sync,
    ) -> Vec<Result<()>> {
        let world = bufs.len();
        let pool = WorkerPool::new(world);
        let mut outs: Vec<Option<Result<()>>> = (0..world).map(|_| None).collect();
        pool.scope(|s| {
            for (rank, (buf, out)) in bufs.iter_mut().zip(outs.iter_mut()).enumerate() {
                let coll = Arc::clone(coll);
                let op = &op;
                s.spawn(move || {
                    *out = Some(op(&coll, rank, buf));
                });
            }
        });
        outs.into_iter().map(|o| o.expect("rank ran")).collect()
    }

    fn make_bufs(world: usize, len: usize, scale: f32) -> Vec<Vec<f32>> {
        (0..world)
            .map(|r| {
                (0..len)
                    .map(|i| ((i as f32 * 0.013 + r as f32).sin()) * scale)
                    .collect()
            })
            .collect()
    }

    fn exact_mean(bufs: &[Vec<f32>]) -> Vec<f32> {
        let world = bufs.len();
        let len = bufs[0].len();
        (0..len)
            .map(|i| bufs.iter().map(|b| b[i]).sum::<f32>() / world as f32)
            .collect()
    }

    #[test]
    fn dense_ring_all_reduce_averages_exactly() {
        for world in [2usize, 3, 4] {
            let len = crate::SEG_ALIGN * world + 123;
            let mut bufs = make_bufs(world, len, 1.0);
            let expect = exact_mean(&bufs);
            let coll = Arc::new(DenseRing::new(world));
            let results = run_ranks(&coll, &mut bufs, |c, r, b| c.all_reduce(r, b));
            for r in results {
                r.unwrap();
            }
            for (rank, b) in bufs.iter().enumerate() {
                for (i, (x, y)) in b.iter().zip(&expect).enumerate() {
                    assert!(
                        (x - y).abs() <= 1e-5 * y.abs().max(1.0),
                        "world {world} rank {rank} elem {i}: {x} vs {y}"
                    );
                }
            }
            // All ranks bit-identical.
            for b in &bufs[1..] {
                assert_eq!(b, &bufs[0]);
            }
            let st = coll.stats();
            assert_eq!(st.payload_bytes, st.dense_equiv_bytes);
            assert!(st.messages > 0);
        }
    }

    #[test]
    fn compressed_ring_stays_within_error_bound_and_ranks_agree() {
        let world = 4;
        let eb = 1e-3f32;
        let len = crate::SEG_ALIGN * world + 777;
        let mut bufs = make_bufs(world, len, 1.0);
        let expect = exact_mean(&bufs);
        let coll = Arc::new(CompressedRing::new(world, eb, false));
        for r in run_ranks(&coll, &mut bufs, |c, r, b| c.all_reduce(r, b)) {
            r.unwrap();
        }
        // Without error feedback: scatter-phase error ≤ eb after the
        // final averaging, plus the single gather quantization ≤ eb.
        let tol = 2.0 * eb + 1e-6;
        for (rank, b) in bufs.iter().enumerate() {
            for (i, (x, y)) in b.iter().zip(&expect).enumerate() {
                assert!(
                    (x - y).abs() <= tol,
                    "rank {rank} elem {i}: {x} vs {y} (tol {tol})"
                );
            }
        }
        for b in &bufs[1..] {
            assert_eq!(b, &bufs[0], "replicas must finish bit-identical");
        }
        let st = coll.stats();
        assert!(
            st.payload_bytes < st.dense_equiv_bytes,
            "compressed transport should beat dense: {st:?}"
        );
        assert_eq!(st.phases, 2);
    }

    #[test]
    fn error_feedback_keeps_time_average_unbiased() {
        // Repeatedly all-reduce the same vectors. With EF the residual
        // re-injects what quantization rounded away, so the *mean* of
        // the outputs over steps converges to the exact mean much
        // tighter than any single step's bound.
        let world = 3;
        let eb = 1e-2f32; // coarse on purpose
        let len = crate::SEG_ALIGN + 37;
        let base = make_bufs(world, len, 1.0);
        let expect = exact_mean(&base);
        let coll = Arc::new(CompressedRing::new(world, eb, true));
        let steps = 24;
        let mut accum = vec![0.0f64; len];
        for _ in 0..steps {
            let mut bufs = base.clone();
            for r in run_ranks(&coll, &mut bufs, |c, r, b| c.all_reduce(r, b)) {
                r.unwrap();
            }
            for (a, v) in accum.iter_mut().zip(&bufs[0]) {
                *a += *v as f64;
            }
        }
        let mean_err: f64 = accum
            .iter()
            .zip(&expect)
            .map(|(a, &e)| (a / steps as f64 - e as f64).abs())
            .sum::<f64>()
            / len as f64;
        // A persistent bias would keep mean_err near the single-step
        // quantization error (~eb/2 on average); EF must beat it well.
        assert!(
            mean_err < eb as f64 / 4.0,
            "time-averaged error {mean_err} not unbiased (eb {eb})"
        );
    }

    #[test]
    fn broadcast_synchronizes_all_ranks_exactly() {
        // Exact on BOTH transports: broadcast is the one-time parameter
        // sync; only gradient streams are error-bounded.
        let world = 4;
        let len = 5000;
        for compressed in [false, true] {
            let mut bufs = make_bufs(world, len, 1.0);
            let root_vals = bufs[2].clone();
            let coll: Arc<dyn Collective> = if compressed {
                Arc::new(CompressedRing::new(world, 1e-4, false))
            } else {
                Arc::new(DenseRing::new(world))
            };
            let pool = WorkerPool::new(world);
            pool.scope(|s| {
                for (rank, buf) in bufs.iter_mut().enumerate() {
                    let coll = Arc::clone(&coll);
                    s.spawn(move || coll.broadcast(rank, 2, buf).unwrap());
                }
            });
            for (rank, b) in bufs.iter().enumerate() {
                assert_eq!(
                    b, &root_vals,
                    "rank {rank} diverged (compressed={compressed})"
                );
            }
            assert_eq!(coll.stats().broadcasts, 1);
        }
    }

    #[test]
    fn small_vectors_leave_trailing_segments_empty_but_still_reduce() {
        let world = 4;
        let len = 100; // far below SEG_ALIGN * world
        let mut bufs = make_bufs(world, len, 1.0);
        let expect = exact_mean(&bufs);
        let coll = Arc::new(CompressedRing::new(world, 1e-3, true));
        for r in run_ranks(&coll, &mut bufs, |c, r, b| c.all_reduce(r, b)) {
            r.unwrap();
        }
        for b in &bufs {
            for (x, y) in b.iter().zip(&expect) {
                assert!((x - y).abs() <= 2e-3 + 1e-6, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn abort_releases_blocked_peers() {
        let world = 3;
        let coll = Arc::new(DenseRing::new(world));
        let pool = WorkerPool::new(world);
        let mut outcomes: Vec<Option<Result<()>>> = (0..world).map(|_| None).collect();
        pool.scope(|s| {
            for (rank, out) in outcomes.iter_mut().enumerate() {
                let coll = Arc::clone(&coll);
                s.spawn(move || {
                    if rank == 2 {
                        // This rank never joins the collective.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        coll.abort();
                        *out = Some(Err(aborted()));
                    } else {
                        let mut buf = vec![1.0f32; 9000];
                        *out = Some(coll.all_reduce(rank, &mut buf));
                    }
                });
            }
        });
        for (rank, o) in outcomes.iter().enumerate() {
            assert!(
                matches!(o, Some(Err(DistError::Aborted(_)))),
                "rank {rank} should have aborted: {o:?}"
            );
        }
    }

    #[test]
    fn frame_indexed_streams_still_decode_single_segments() {
        // The ring now encodes segment-only streams, but the codec's
        // frame index remains the contract that lets other consumers
        // (the budgeted store's frame-indexed decode) bill and decode a
        // single segment of a chunked stream without touching its
        // neighbours — keep the property pinned here where the segment
        // geometry lives.
        use crate::collective::seg_planes;
        let world = 4;
        let len = crate::SEG_ALIGN * 8;
        let vals: Vec<f32> = (0..len).map(|i| (i as f32 * 0.001).sin()).collect();
        let codec = SzCodec::vanilla();
        let per = seg_planes(len, world);
        let stream = codec
            .compress_chunked(&vals, DataLayout::D1(len), &BoundSpec::Abs(1e-3), per)
            .unwrap();
        let wire = codec.partial_wire_cost(&stream, &(0..per)).unwrap();
        assert!(
            wire < stream.compressed_byte_len(),
            "hop-0 accounting should not charge the whole stream"
        );
        // And the frame-indexed decode of that segment matches the slice
        // of a full decode (the receiver-side path).
        let full = codec.decompress(&stream).unwrap();
        let (part, stats) = codec
            .decompress_planes(&stream, DataLayout::D1(len), 0..per)
            .unwrap();
        assert_eq!(part, full[..per * crate::SEG_ALIGN]);
        assert!(stats.partial, "receiver must not pay a whole decode");
    }

    #[test]
    fn lossless_codec_ring_matches_dense_exactly() {
        // The transport is codec-agnostic: with a bit-exact backend the
        // compressed ring must reproduce the dense ring's result to the
        // bit (same association order, zero injected error) — and the
        // hop-0 shared-stream path degrades to per-segment streams since
        // byteplane has no frame index.
        use ebtrain_codec::ByteplaneCodec;
        let world = 3;
        let len = crate::SEG_ALIGN * world + 321;
        let mut dense_bufs = make_bufs(world, len, 1.0);
        let mut exact_bufs = dense_bufs.clone();
        let dense = Arc::new(DenseRing::new(world));
        for r in run_ranks(&dense, &mut dense_bufs, |c, r, b| c.all_reduce(r, b)) {
            r.unwrap();
        }
        let coll = Arc::new(CompressedRing::with_codec(
            world,
            Arc::new(ByteplaneCodec),
            1e-3, // ignored by a lossless backend
            false,
        ));
        assert_eq!(coll.codec_name(), "byteplane");
        for r in run_ranks(&coll, &mut exact_bufs, |c, r, b| c.all_reduce(r, b)) {
            r.unwrap();
        }
        for (rank, (a, b)) in dense_bufs.iter().zip(&exact_bufs).enumerate() {
            assert_eq!(a, b, "rank {rank} diverged from the dense result");
        }
        // Lossless f32 payloads cannot beat dense by much, but the
        // accounting must still be self-consistent.
        let st = coll.stats();
        assert!(st.payload_bytes > 0 && st.dense_equiv_bytes > 0);
    }

    use ebtrain_codec::{CodecId, ErrorContract};
    use std::sync::atomic::AtomicUsize;
    use std::thread::ThreadId;

    /// The framework codec behind the trait's **default**
    /// `compress_recon` (`compress` + `decompress`): the schedule the
    /// ring ran before it consumed encoder-side reconstructions.
    struct DefaultRecon(SzCodec);

    impl Codec for DefaultRecon {
        fn id(&self) -> CodecId {
            self.0.id()
        }
        fn name(&self) -> &'static str {
            "sz-default-recon"
        }
        fn contract(&self) -> ErrorContract {
            self.0.contract()
        }
        fn compress(
            &self,
            data: &[f32],
            layout: DataLayout,
            bound: &BoundSpec,
        ) -> ebtrain_sz::Result<TaggedStream> {
            self.0.compress(data, layout, bound)
        }
        fn decompress(&self, stream: &TaggedStream) -> ebtrain_sz::Result<Vec<f32>> {
            self.0.decompress(stream)
        }
    }

    /// The framework codec with every call counted, remembering which
    /// thread (= rank: `run_ranks` gives each its own) encoded which
    /// stream, so a decode of one's own stream is caught.
    #[derive(Default)]
    struct Counting {
        encoder_of: Mutex<HashMap<Vec<u8>, ThreadId>>,
        encodes: AtomicUsize,
        decodes: AtomicUsize,
        own_decodes: AtomicUsize,
    }

    impl Codec for Counting {
        fn id(&self) -> CodecId {
            CodecId::SZ
        }
        fn name(&self) -> &'static str {
            "sz-counting"
        }
        fn contract(&self) -> ErrorContract {
            ErrorContract::Absolute
        }
        fn compress(
            &self,
            data: &[f32],
            layout: DataLayout,
            bound: &BoundSpec,
        ) -> ebtrain_sz::Result<TaggedStream> {
            Ok(self.compress_recon(data, layout, bound)?.0)
        }
        fn compress_recon(
            &self,
            data: &[f32],
            layout: DataLayout,
            bound: &BoundSpec,
        ) -> ebtrain_sz::Result<(TaggedStream, Vec<f32>)> {
            let out = SzCodec::dual_quant().compress_recon(data, layout, bound)?;
            self.encodes.fetch_add(1, Ordering::Relaxed);
            self.encoder_of
                .lock()
                .unwrap()
                .insert(out.0.as_bytes().to_vec(), std::thread::current().id());
            Ok(out)
        }
        fn decompress(&self, stream: &TaggedStream) -> ebtrain_sz::Result<Vec<f32>> {
            self.decodes.fetch_add(1, Ordering::Relaxed);
            let encoder = self
                .encoder_of
                .lock()
                .unwrap()
                .get(stream.as_bytes())
                .copied();
            if encoder == Some(std::thread::current().id()) {
                self.own_decodes.fetch_add(1, Ordering::Relaxed);
            }
            SzCodec::dual_quant().decompress(stream)
        }
    }

    #[test]
    fn ring_decodes_only_received_streams_and_matches_the_decode_schedule() {
        let eb = 1e-3f32;
        for world in [2usize, 3, 4] {
            // A bucket window of a larger flat tensor that misses the
            // last whole-tensor segment: that segment travels as empty
            // payloads, every other one is clipped or whole.
            let total = crate::SEG_ALIGN * 2 * world;
            let start = crate::SEG_ALIGN / 2;
            let len = crate::SEG_ALIGN * 2 * (world - 1) - 100 - start;
            let segs = seg_ranges_at(start, len, total, world);
            let nonempty = segs.iter().filter(|s| !s.is_empty()).count();
            assert_eq!(nonempty, world - 1, "one empty segment: {segs:?}");
            for ef in [false, true] {
                let counting = Arc::new(Counting::default());
                let ring = Arc::new(CompressedRing::with_codec(
                    world,
                    Arc::clone(&counting) as Arc<dyn Codec>,
                    eb,
                    ef,
                ));
                let reference = Arc::new(CompressedRing::with_codec(
                    world,
                    Arc::new(DefaultRecon(SzCodec::dual_quant())),
                    eb,
                    ef,
                ));
                // Two rounds, so the second encodes under the
                // residuals the first left behind.
                for round in 0..2 {
                    let mut bufs = make_bufs(world, len, 1.0 + round as f32);
                    let mut expect = bufs.clone();
                    let before = (
                        counting.encodes.load(Ordering::Relaxed),
                        counting.decodes.load(Ordering::Relaxed),
                    );
                    for r in run_ranks(&ring, &mut bufs, |c, r, b| {
                        c.all_reduce_aligned(r, b, 3, start, total)
                    }) {
                        r.unwrap();
                    }
                    for r in run_ranks(&reference, &mut expect, |c, r, b| {
                        c.all_reduce_aligned(r, b, 3, start, total)
                    }) {
                        r.unwrap();
                    }
                    let what = format!("world {world} ef {ef} round {round}");
                    // Reduce-scatter: every non-empty segment is encoded
                    // on each of its N−1 hops; all-gather: once, by its
                    // owner. Each of the 2(N−1) hops per segment is
                    // decoded by its receiver — and by nobody else.
                    assert_eq!(
                        counting.encodes.load(Ordering::Relaxed) - before.0,
                        world * nonempty,
                        "{what}: encodes"
                    );
                    assert_eq!(
                        counting.decodes.load(Ordering::Relaxed) - before.1,
                        2 * (world - 1) * nonempty,
                        "{what}: decodes == non-empty messages received"
                    );
                    assert_eq!(
                        counting.own_decodes.load(Ordering::Relaxed),
                        0,
                        "{what}: a rank decoded a stream it encoded"
                    );
                    for (rank, (got, want)) in bufs.iter().zip(&expect).enumerate() {
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(got), bits(want), "{what}: rank {rank} values");
                        assert_eq!(got, &bufs[0], "{what}: replicas bit-identical");
                    }
                }
                let (st, want) = (ring.stats(), reference.stats());
                assert_eq!(
                    st, want,
                    "world {world} ef {ef}: wire bytes and message count"
                );
                assert_eq!(st.messages, (2 * 2 * world * (world - 1)) as u64);
            }
        }
    }

    #[test]
    fn concurrent_tagged_all_reduces_do_not_interleave() {
        // Two buckets in flight at once on every rank: each (rank, tag)
        // pair runs on its own thread, so hops of different tags race
        // through the same mailboxes. Tag-keyed cells must keep the
        // streams separate and both reductions exact.
        let world = 3;
        let len = crate::SEG_ALIGN + 11;
        let tags = [7u64, 40];
        let mut bufs: Vec<Vec<Vec<f32>>> = tags
            .iter()
            .map(|&tg| make_bufs(world, len, 1.0 + tg as f32))
            .collect();
        let expect: Vec<Vec<f32>> = bufs.iter().map(|b| exact_mean(b)).collect();
        let coll = Arc::new(DenseRing::new(world));
        let pool = WorkerPool::new(world * tags.len());
        pool.scope(|s| {
            for (ti, per_tag) in bufs.iter_mut().enumerate() {
                let tag = tags[ti];
                for (rank, buf) in per_tag.iter_mut().enumerate() {
                    let coll = Arc::clone(&coll);
                    s.spawn(move || coll.all_reduce_tagged(rank, buf, tag).unwrap());
                }
            }
        });
        for (ti, per_tag) in bufs.iter().enumerate() {
            for (rank, b) in per_tag.iter().enumerate() {
                for (i, (x, y)) in b.iter().zip(&expect[ti]).enumerate() {
                    assert!(
                        (x - y).abs() <= 1e-5 * y.abs().max(1.0),
                        "tag {} rank {rank} elem {i}: {x} vs {y}",
                        tags[ti]
                    );
                }
            }
        }
    }

    #[test]
    fn straggler_deadline_turns_a_delayed_rank_into_a_clean_abort() {
        // Rank 2 never shows up within the deadline: the waiting ranks
        // must poison the group and return Aborted — not hang.
        let world = 3;
        let coll = Arc::new(DenseRing::new(world));
        coll.set_straggler_timeout(Some(Duration::from_millis(60)));
        let pool = WorkerPool::new(world);
        let mut outcomes: Vec<Option<Result<()>>> = (0..world).map(|_| None).collect();
        pool.scope(|s| {
            for (rank, out) in outcomes.iter_mut().enumerate() {
                let coll = Arc::clone(&coll);
                s.spawn(move || {
                    if rank == 2 {
                        std::thread::sleep(Duration::from_millis(400));
                    }
                    let mut buf = vec![1.0f32; 9000];
                    *out = Some(coll.all_reduce(rank, &mut buf));
                });
            }
        });
        for (rank, o) in outcomes.iter().enumerate() {
            assert!(
                matches!(o, Some(Err(DistError::Aborted(_)))),
                "rank {rank} should have aborted cleanly: {o:?}"
            );
        }
    }

    #[test]
    fn per_bucket_bound_overrides_the_global_bound() {
        // The same data reduced under tag 1 (coarse override) must ship
        // fewer payload bytes than under tag 0 (tight global bound).
        let world = 2;
        let len = crate::SEG_ALIGN * 2;
        let coll = Arc::new(CompressedRing::new(world, 1e-5, false));
        coll.set_bucket_error_bound(1, Some(1e-1));
        let mut tight = make_bufs(world, len, 1.0);
        for r in run_ranks(&coll, &mut tight, |c, r, b| c.all_reduce_tagged(r, b, 0)) {
            r.unwrap();
        }
        let after_tight = coll.stats();
        let mut coarse = make_bufs(world, len, 1.0);
        for r in run_ranks(&coll, &mut coarse, |c, r, b| c.all_reduce_tagged(r, b, 1)) {
            r.unwrap();
        }
        let coarse_delta = coll.stats().delta_since(&after_tight);
        assert!(
            coarse_delta.payload_bytes < after_tight.payload_bytes,
            "coarse bucket bound should compress harder: {} vs {}",
            coarse_delta.payload_bytes,
            after_tight.payload_bytes
        );
        // Clearing the override falls back to the global bound.
        coll.set_bucket_error_bound(1, None);
        let before = coll.stats();
        let mut again = make_bufs(world, len, 1.0);
        for r in run_ranks(&coll, &mut again, |c, r, b| c.all_reduce_tagged(r, b, 1)) {
            r.unwrap();
        }
        let d = coll.stats().delta_since(&before);
        assert_eq!(d.payload_bytes, after_tight.payload_bytes);
    }

    #[test]
    fn exact_all_gather_preserves_owned_segments_bitwise() {
        // The ZeRO parameter gather: owners' values must arrive at every
        // peer bit-exactly even on the lossy transport.
        let world = 3;
        let len = crate::SEG_ALIGN * world;
        let coll = Arc::new(CompressedRing::new(world, 1e-2, false));
        let mut bufs = make_bufs(world, len, 1.0);
        let segs = seg_ranges(len, world);
        // Pretend each rank already owns segment (rank + 1) % world with
        // final values; gather must replicate them exactly.
        let owned_vals: Vec<Vec<f32>> = (0..world)
            .map(|r| bufs[r][segs[(r + 1) % world].clone()].to_vec())
            .collect();
        let results = run_ranks(&coll, &mut bufs, |c, r, b| {
            c.all_gather_exact(r, (r + 1) % world, b, 9)
        });
        for r in results {
            r.unwrap();
        }
        for (rank, b) in bufs.iter().enumerate() {
            for (owner, vals) in owned_vals.iter().enumerate() {
                let seg = (owner + 1) % world;
                assert_eq!(
                    &b[segs[seg].clone()],
                    vals.as_slice(),
                    "rank {rank} segment {seg} must match owner {owner} bit-exactly"
                );
            }
        }
    }

    /// `dist.wire.nanos` is a process-global registry counter; the two
    /// wire-model tests serialize on this lock so their deltas never
    /// include each other's sends.
    static WIRE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn wire_model_accounts_modeled_nanos() {
        let _wire = WIRE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        ebtrain_obs::set_metrics_enabled(true);
        let world = 2;
        let len = crate::SEG_ALIGN * 2;
        let coll = Arc::new(DenseRing::new(world));
        // Very fast modeled wire: sleeps stay in the microseconds.
        coll.set_wire_mibps(Some(50_000.0));
        let before = ebtrain_obs::snapshot();
        let mut bufs = make_bufs(world, len, 1.0);
        for r in run_ranks(&coll, &mut bufs, |c, r, b| c.all_reduce(r, b)) {
            r.unwrap();
        }
        let d = ebtrain_obs::snapshot().delta_since(&before);
        assert!(
            d.counter("dist.wire.nanos") > 0,
            "wire model must account sleep time"
        );
        coll.set_wire_mibps(None);
        let before = ebtrain_obs::snapshot();
        let mut bufs = make_bufs(world, len, 1.0);
        for r in run_ranks(&coll, &mut bufs, |c, r, b| c.all_reduce(r, b)) {
            r.unwrap();
        }
        let d = ebtrain_obs::snapshot().delta_since(&before);
        assert_eq!(d.counter("dist.wire.nanos"), 0, "model off: no wire time");
    }

    /// Pins the counter migration: the registry's `dist.wire.nanos`
    /// delta equals the *modeled* value computed from message count and
    /// size — exactly what the retired `CommStats::wire_nanos` field
    /// accumulated — not the (jittery) measured sleep.
    #[test]
    fn registry_wire_nanos_match_modeled_wire() {
        let _wire = WIRE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        ebtrain_obs::set_metrics_enabled(true);
        let world = 2;
        // Two aligned segments of equal size: every message carries
        // exactly SEG_ALIGN dense f32 values.
        let len = crate::SEG_ALIGN * 2;
        let mibps = 50_000.0;
        let coll = Arc::new(DenseRing::new(world));
        coll.set_wire_mibps(Some(mibps));
        let stats_before = coll.stats();
        let before = ebtrain_obs::snapshot();
        let mut bufs = make_bufs(world, len, 1.0);
        for r in run_ranks(&coll, &mut bufs, |c, r, b| c.all_reduce(r, b)) {
            r.unwrap();
        }
        let comm = coll.stats().delta_since(&stats_before);
        let d = ebtrain_obs::snapshot().delta_since(&before);
        // world=2 all-reduce: each rank sends 1 reduce-scatter + 1
        // all-gather message of one segment each.
        assert_eq!(comm.messages, 4);
        let per_msg_bytes = crate::SEG_ALIGN * 4;
        assert_eq!(comm.payload_bytes, comm.messages * per_msg_bytes as u64);
        let per_msg_nanos = (per_msg_bytes as f64 / (mibps * 1024.0 * 1024.0) * 1e9) as u64;
        assert_eq!(
            d.counter("dist.wire.nanos"),
            comm.messages * per_msg_nanos,
            "registry wire nanos must equal the modeled per-message value"
        );
    }
}
