//! Ring collectives: the shared mailbox/barrier machinery and **one**
//! ring schedule, [`Ring`], generic over what a hop carries — the
//! identity hop [`Exact`] ([`DenseRing`], the dense-f32 baseline) or the
//! codec hop [`Lossy`] ([`CompressedRing`], per-worker error feedback).
//!
//! # Ring schedule
//!
//! A window of the flat gradient splits into `N` plane-aligned segments
//! ([`seg_ranges_at`]). A classic two-phase ring runs `2(N−1)` hops, every
//! rank sending to `(rank+1) % N`:
//!
//! * **reduce-scatter**, hop `t`: rank `r` sends segment `(r − t) mod N`
//!   (its current partial sum) and adds the received segment
//!   `(r − t − 1) mod N` into its accumulator. After `N−1` hops rank `r`
//!   owns the complete sum of segment `(r + 1) mod N`.
//! * **all-gather**, hop `t`: rank `r` sends segment `(r + 1 − t) mod N`
//!   and installs the received segment `(r − t) mod N`. The owner builds
//!   its segment's message once; received messages are **forwarded
//!   verbatim** on the next hop.
//!
//! Each loop is written once; a [`Hop`] only builds a segment's message
//! and folds a received one into place (add, or copy). Empty segments
//! travel as free empty messages without reaching the hop.
//!
//! Every message carries a **tag** (the gradient bucket index) and each
//! rank's mailbox is tag-keyed, so one collective per bucket may be **in
//! flight concurrently** without their messages interleaving. A bucket's
//! segments are the whole-tensor segments clipped to its window, so every
//! element keeps the f32 association order of one whole-tensor sync:
//! bucket-wise dense sync is **bit-identical** to it, and across all
//! buckets rank `r`'s owned pieces tile whole-tensor segment
//! `(r + 1) mod N` (the ZeRO shard).
//!
//! # The lossy hop
//!
//! [`Lossy`] ships every segment as a self-describing [`TaggedStream`]
//! of its configured [`Codec`] (SZ by default; any registered backend via
//! `CompressedRing::with_codec`):
//!
//! * **Segment-only encode.** Each rank compresses exactly the segment
//!   it forwards on each hop — never the whole gradient.
//! * **All-gather never re-compresses — and nobody decodes their own
//!   stream.** The owner compresses its reduced segment once with
//!   [`Codec::compress_recon`] and *adopts the reconstruction the encoder
//!   hands back*, which that contract makes bit-identical to `decompress`
//!   of the stream every later hop forwards (pinned for every registered
//!   codec by the conformance suite). Each segment's final value is one
//!   stream's reconstruction on every rank, so **all replicas finish
//!   bit-identical** — and each rank decodes only the streams it
//!   *received* (`dist.codec.decodes` == `dist.decode` spans == non-empty
//!   messages received).
//! * **Error feedback.** Each rank keeps a residual `e` **per tag**; it
//!   encodes `v + e` and stores `e ← (v + e) − x̂`, `x̂` again the
//!   encoder's reconstruction. The error a step rounds away is re-injected
//!   the next, keeping the *time-averaged* gradient error unbiased
//!   (EF-SGD); one `all_reduce` touches each coordinate of its bucket
//!   exactly once, so each residual is well-defined.
//!
//! Broadcast and the ZeRO parameter gather are exact on every ring (the
//! gather is the same all-gather loop with the [`Exact`] hop).
//!
//! Spans: `dist.encode` is one segment's encode plus its residual
//! arithmetic (never a decode); `dist.decode` is one received stream's
//! decode. `dist.codec.encodes` / `dist.codec.decodes` count the codec
//! calls at those two sites and `dist.errors.codec` the codec failures
//! that poisoned the group.
//!
//! # Failure, stragglers and the modeled wire
//!
//! Any rank failing mid-operation — a hop error, a schedule mismatch, a
//! malformed window — poisons the collective and releases every blocked
//! peer with `Aborted`. With a **straggler deadline**
//! ([`Collective::set_straggler_timeout`]) a rank blocked in `recv` past
//! it poisons the group itself. With a wire bandwidth
//! ([`Collective::set_wire_mibps`]) every send **sleeps**
//! `bytes / bandwidth` first (the `dist.wire.nanos` counter); sleeping
//! releases the core, so overlapped bucket collectives hide modeled wire
//! time the way comm/compute overlap hides real wire time.

use crate::collective::{seg_ranges_at, Collective, CommStats};
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
enum Payload {
    /// Empty segment (vector smaller than the ring).
    Empty,
    /// Raw f32 values (the exact hop).
    Dense(Arc<Vec<f32>>),
    /// Independent compressed stream of one segment (the lossy hop).
    Stream(Arc<TaggedStream>),
}

/// One point-to-point ring message, built by a [`Hop`].
pub struct Message {
    seg: usize,
    payload: Payload,
    /// Wire bytes this payload costs (recounted on every forward hop).
    wire_bytes: usize,
    /// Bytes a dense f32 transport would have cost for the same hop.
    dense_bytes: usize,
}

/// What one ring hop carries. [`Ring`] runs the schedule; a hop turns a
/// non-empty segment into a message and folds a received message into
/// its destination.
pub trait Hop: Send + Sync {
    /// [`Collective::name`] of a ring over this hop.
    const NAME: &'static str;

    /// Per-collective state, from the start of a reduce-scatter or
    /// all-gather of `rank` under `tag` over `len` elements to its last
    /// encode.
    type Op;
    fn begin(&self, rank: usize, tag: u64, len: usize) -> Self::Op;
    fn end(&self, _rank: usize, _tag: u64, _op: Self::Op) {}

    /// The message carrying segment `seg`, the non-empty `buf[r]`. With
    /// `adopt` (the all-gather owner) `buf[r]` must afterwards hold
    /// exactly what every receiver will fold in.
    fn encode(
        &self,
        op: &mut Self::Op,
        seg: usize,
        buf: &mut [f32],
        r: Range<usize>,
        adopt: bool,
    ) -> Result<Message>;

    /// Fold a received message into `dst`: add it (reduce-scatter) or
    /// copy it (all-gather).
    fn fold(&self, msg: &Message, dst: &mut [f32], add: bool) -> Result<()>;

    /// The error bounds a lossy hop encodes under (`None`: exact).
    fn bounds(&self) -> Option<&Mutex<Bounds>> {
        None
    }
}

/// Add `vals` into `dst`, or copy them over it.
fn fold_values(dst: &mut [f32], vals: &[f32], add: bool) {
    if add {
        for (d, v) in dst.iter_mut().zip(vals) {
            *d += v;
        }
    } else {
        dst.copy_from_slice(vals);
    }
}

/// The identity hop: raw f32 segments, folded straight from the
/// received buffer. Mathematically exact — the only deviation from a
/// serial sum is the fixed ring association order, which is identical
/// on every rank (replicas stay bit-identical).
pub struct Exact;

impl Hop for Exact {
    const NAME: &'static str = "dense-ring";
    type Op = ();

    fn begin(&self, _rank: usize, _tag: u64, _len: usize) {}

    fn encode(
        &self,
        _op: &mut (),
        seg: usize,
        buf: &mut [f32],
        r: Range<usize>,
        _adopt: bool,
    ) -> Result<Message> {
        Ok(Message {
            seg,
            wire_bytes: r.len() * 4,
            dense_bytes: r.len() * 4,
            payload: Payload::Dense(Arc::new(buf[r].to_vec())),
        })
    }

    fn fold(&self, msg: &Message, dst: &mut [f32], add: bool) -> Result<()> {
        match &msg.payload {
            Payload::Empty if dst.is_empty() => {}
            Payload::Dense(vals) if vals.len() == dst.len() => fold_values(dst, vals, add),
            _ => return Err(DistError::Aborted("unexpected payload".into())),
        }
        Ok(())
    }
}

/// A lossy hop's error bounds: the global bound and per-bucket
/// overrides keyed by tag (σ-model refinement).
pub struct Bounds {
    global: f32,
    per_tag: HashMap<u64, f32>,
}

/// The codec hop: segments travel as self-describing codec streams
/// under an absolute error bound, with optional per-rank, per-tag error
/// feedback. See the module docs for the bit-identical-replicas
/// argument, which holds for **any** codec that honours the
/// [`Codec::compress_recon`] contract.
pub struct Lossy {
    codec: Arc<dyn Codec>,
    bounds: Mutex<Bounds>,
    error_feedback: bool,
    /// `residuals[rank][tag]` — one EF residual per rank per bucket.
    residuals: Vec<Mutex<HashMap<u64, Vec<f32>>>>,
}

/// Lift a codec result into the ring, counting failures under
/// `dist.errors.codec` (the ring poisons the group on any hop error).
fn codec<T>(r: ebtrain_sz::Result<T>) -> Result<T> {
    r.map_err(|e| {
        ebtrain_obs::counter_add("dist.errors.codec", 1);
        DistError::Sz(e)
    })
}

impl Hop for Lossy {
    const NAME: &'static str = "compressed-ring";
    /// The bound snapshot, and this rank's EF residual for the tag —
    /// taken out of the map so concurrent tags on one rank don't
    /// serialize on each other's residuals.
    type Op = (BoundSpec, Option<Vec<f32>>);

    fn begin(&self, rank: usize, tag: u64, len: usize) -> Self::Op {
        let bound = {
            let b = self.bounds.lock().expect("eb poisoned");
            BoundSpec::Abs(b.per_tag.get(&tag).copied().unwrap_or(b.global))
        };
        let res = self.error_feedback.then(|| {
            let mut map = self.residuals[rank].lock().expect("residual poisoned");
            let res = map.remove(&tag).filter(|res| res.len() == len);
            res.unwrap_or_else(|| vec![0.0; len])
        });
        (bound, res)
    }

    fn end(&self, rank: usize, tag: u64, (_, res): Self::Op) {
        if let Some(res) = res {
            self.residuals[rank]
                .lock()
                .expect("residual poisoned")
                .insert(tag, res);
        }
    }

    fn encode(
        &self,
        (bound, res): &mut Self::Op,
        seg: usize,
        buf: &mut [f32],
        r: Range<usize>,
        adopt: bool,
    ) -> Result<Message> {
        let res = res.as_mut().map(|res| &mut res[r.clone()]);
        self.encode_segment(seg, &mut buf[r], res, bound, adopt)
    }

    fn fold(&self, msg: &Message, dst: &mut [f32], add: bool) -> Result<()> {
        let vals = self.decode_received(&msg.payload, dst.len())?;
        fold_values(dst, &vals, add);
        Ok(())
    }

    fn bounds(&self) -> Option<&Mutex<Bounds>> {
        Some(&self.bounds)
    }
}

impl Lossy {
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
        let _span = ebtrain_obs::span!("dist.encode", bytes = seg.len() * 4);
        let summed: Option<Vec<f32>> = res
            .as_deref()
            .map(|res| seg.iter().zip(res).map(|(v, e)| v + e).collect());
        let vals = summed.as_deref().unwrap_or(seg);
        ebtrain_obs::counter_add("dist.codec.encodes", 1);
        let layout = DataLayout::D1(vals.len());
        let (stream, recon) = codec(self.codec.compress_recon(vals, layout, bound))?;
        if recon.len() != seg.len() {
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
                codec(self.codec.decompress(stream))?
            }
            Payload::Dense(_) => return Err(DistError::Aborted("unexpected dense payload".into())),
        };
        if vals.len() != expect {
            return Err(DistError::Aborted("segment length mismatch".into()));
        }
        Ok(vals)
    }
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

/// State shared by all ranks of one ring group.
struct RingCore {
    world: usize,
    slots: Vec<Slot>,
    poisoned: AtomicBool,
    barrier: Mutex<BarrierState>,
    barrier_cv: Condvar,
    /// Values parked by a broadcast root for every peer to copy.
    bcast: Mutex<Option<Arc<Vec<f32>>>>,
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
        if first {
            // Post-mortem: the last N steps before a poisoned
            // collective go to EBTRAIN_FLIGHT (no-op when unset).
            let _ = ebtrain_obs::flight::dump_flight("collective-poisoned");
        }
    }

    /// Pass `r` through, poisoning the group if it failed: peers blocked
    /// on this rank are released.
    fn or_poison<T>(&self, r: Result<T>) -> Result<T> {
        if r.is_err() {
            self.poison();
        }
        r
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

    /// Take the message addressed to `rank` under `tag`, which the
    /// schedule says carries segment `seg`. With a straggler deadline
    /// set, waiting past it poisons the group and returns a clean
    /// `Aborted` — a delayed peer can never hold the ring hostage.
    fn recv(&self, rank: usize, tag: u64, seg: usize) -> Result<Message> {
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
                drop(cell);
                if msg.seg != seg {
                    self.poison();
                    return Err(DistError::Aborted("ring schedule mismatch".into()));
                }
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

    /// The broadcast protocol, one barrier before each step: park
    /// (root), copy (peers), clear (root). Dense on every hop — broadcast
    /// is the one-time exact parameter sync; only recurring gradient
    /// streams are lossy.
    fn broadcast(&self, rank: usize, root: usize, buf: &mut [f32]) -> Result<()> {
        if self.world <= 1 {
            return Ok(());
        }
        self.barrier()?;
        if rank == root {
            *self.bcast.lock().expect("bcast poisoned") = Some(Arc::new(buf.to_vec()));
            let (peers, bytes) = ((self.world - 1) as u64, buf.len() as u64 * 4);
            self.stat(|st| {
                st.messages += peers;
                st.payload_bytes += bytes * peers;
                st.dense_equiv_bytes += bytes * peers;
                st.broadcasts += 1;
            });
        }
        self.barrier()?;
        if rank != root {
            let parked = self.bcast.lock().expect("bcast poisoned").clone();
            match parked.as_deref() {
                Some(vals) if vals.len() == buf.len() => buf.copy_from_slice(vals),
                _ => {
                    self.poison();
                    return Err(DistError::Aborted("broadcast payload mismatch".into()));
                }
            }
        }
        self.barrier()?;
        if rank == root {
            *self.bcast.lock().expect("bcast poisoned") = None;
        }
        Ok(())
    }

    fn count_phase(&self, rank: usize) {
        if rank == 0 {
            self.stat(|st| st.phases += 1);
        }
    }

    /// The message for segment `seg` (`buf[r]`): empty segments travel
    /// as free empty messages without reaching the hop.
    fn encode<H: Hop>(
        &self,
        hop: &H,
        op: &mut H::Op,
        seg: usize,
        buf: &mut [f32],
        r: Range<usize>,
        adopt: bool,
    ) -> Result<Message> {
        if r.is_empty() {
            return Ok(Message {
                seg,
                payload: Payload::Empty,
                wire_bytes: 0,
                dense_bytes: 0,
            });
        }
        self.or_poison(hop.encode(op, seg, buf, r, adopt))
    }

    /// Ring reduce-scatter under `tag` over a segment map (`segs` tiles
    /// `[0, buf.len())` in order; see [`seg_ranges_at`]). Returns the
    /// owned segment index.
    fn reduce_scatter<H: Hop>(
        &self,
        hop: &H,
        rank: usize,
        buf: &mut [f32],
        tag: u64,
        segs: &[Range<usize>],
    ) -> Result<usize> {
        let n = self.world;
        if n <= 1 {
            return Ok(0);
        }
        let mut op = hop.begin(rank, tag, buf.len());
        for t in 0..n - 1 {
            let s_send = (rank + n - t) % n;
            let s_recv = (rank + 2 * n - t - 1) % n;
            let msg = self.encode(hop, &mut op, s_send, buf, segs[s_send].clone(), false)?;
            self.send((rank + 1) % n, tag, msg)?;
            let received = self.recv(rank, tag, s_recv)?;
            self.or_poison(hop.fold(&received, &mut buf[segs[s_recv].clone()], true))?;
        }
        hop.end(rank, tag, op);
        self.count_phase(rank);
        Ok((rank + 1) % n)
    }

    /// Ring all-gather under `tag` over a segment map: the owner encodes
    /// its segment once (adopting what receivers will fold in), and every
    /// later hop forwards the message it received.
    fn all_gather<H: Hop>(
        &self,
        hop: &H,
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
        debug_assert_eq!(owned, (rank + 1) % n);
        let mut op = hop.begin(rank, tag, buf.len());
        let mut msg = self.encode(hop, &mut op, owned, buf, segs[owned].clone(), true)?;
        hop.end(rank, tag, op);
        for t in 0..n - 1 {
            self.send((rank + 1) % n, tag, msg)?;
            let s_recv = (rank + n - t) % n;
            msg = self.recv(rank, tag, s_recv)?;
            self.or_poison(hop.fold(&msg, &mut buf[segs[s_recv].clone()], false))?;
        }
        self.count_phase(rank);
        Ok(())
    }
}

/// A ring collective: the shared mailbox machinery running one schedule
/// over hop `H`. See the module docs.
pub struct Ring<H: Hop> {
    core: RingCore,
    hop: H,
}

/// The exact dense-f32 ring — the communication baseline Fig 12 compares
/// against.
pub type DenseRing = Ring<Exact>;

/// The compressed ring: segment-only codec streams with per-rank,
/// per-tag error feedback.
pub type CompressedRing = Ring<Lossy>;

impl DenseRing {
    /// Dense ring collective for `world` ranks.
    pub fn new(world: usize) -> DenseRing {
        Ring {
            core: RingCore::new(world.max(1)),
            hop: Exact,
        }
    }
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
        Ring {
            core: RingCore::new(world),
            hop: Lossy {
                codec,
                bounds: Mutex::new(Bounds {
                    global: eb,
                    per_tag: HashMap::new(),
                }),
                error_feedback,
                residuals: (0..world).map(|_| Mutex::new(HashMap::new())).collect(),
            },
        }
    }

    /// Whether error feedback is active.
    pub fn error_feedback(&self) -> bool {
        self.hop.error_feedback
    }

    /// The transport's codec.
    pub fn codec_name(&self) -> &'static str {
        self.hop.codec.name()
    }
}

impl<H: Hop> Ring<H> {
    /// The segment map of window `[start, start + len)` of a
    /// `total`-element tensor. A window past `total` (or overflowing), a
    /// rank or an `owned` segment outside the world is a config error
    /// that poisons the group — never a tail left out of every segment
    /// or an out-of-bounds index.
    fn window(
        &self,
        rank: usize,
        owned: Option<usize>,
        start: usize,
        len: usize,
        total: usize,
    ) -> Result<Vec<Range<usize>>> {
        let n = self.core.world;
        let bad = if start.checked_add(len).is_none_or(|end| end > total) {
            format!("window {start}+{len} runs past the {total}-element tensor")
        } else if rank >= n || owned.is_some_and(|o| o >= n) {
            format!("rank {rank} / owned segment {owned:?} outside a world of {n}")
        } else {
            return Ok(seg_ranges_at(start, len, total, n));
        };
        self.core.poison();
        Err(DistError::Config(bad))
    }
}

impl<H: Hop> Collective for Ring<H> {
    fn world_size(&self) -> usize {
        self.core.world
    }

    fn name(&self) -> &'static str {
        H::NAME
    }

    fn broadcast(&self, rank: usize, root: usize, buf: &mut [f32]) -> Result<()> {
        self.core.broadcast(rank, root, buf)
    }

    fn reduce_scatter_aligned(
        &self,
        rank: usize,
        buf: &mut [f32],
        tag: u64,
        start: usize,
        total: usize,
    ) -> Result<usize> {
        let segs = self.window(rank, None, start, buf.len(), total)?;
        self.core.reduce_scatter(&self.hop, rank, buf, tag, &segs)
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
        let segs = self.window(rank, Some(owned), start, buf.len(), total)?;
        self.core
            .all_gather(&self.hop, rank, owned, buf, tag, &segs)
    }

    /// The same all-gather loop with the [`Exact`] hop, whatever this
    /// ring's own hop is.
    fn all_gather_exact_aligned(
        &self,
        rank: usize,
        owned: usize,
        buf: &mut [f32],
        tag: u64,
        start: usize,
        total: usize,
    ) -> Result<()> {
        let segs = self.window(rank, Some(owned), start, buf.len(), total)?;
        self.core.all_gather(&Exact, rank, owned, buf, tag, &segs)
    }

    fn stats(&self) -> CommStats {
        *self.core.stats.lock().expect("stats poisoned")
    }

    fn reset_stats(&self) {
        *self.core.stats.lock().expect("stats poisoned") = CommStats::default();
    }

    fn set_error_bound(&self, eb: f32) {
        if let Some(b) = self.hop.bounds() {
            b.lock().expect("eb poisoned").global = eb;
        }
    }

    fn error_bound(&self) -> Option<f32> {
        Some(self.hop.bounds()?.lock().expect("eb poisoned").global)
    }

    fn set_bucket_error_bound(&self, tag: u64, eb: Option<f32>) {
        if let Some(b) = self.hop.bounds() {
            let per_tag = &mut b.lock().expect("eb poisoned").per_tag;
            match eb {
                Some(eb) => per_tag.insert(tag, eb),
                None => per_tag.remove(&tag),
            };
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
    use crate::collective::seg_ranges;
    use ebtrain_pool::WorkerPool;

    /// Drive `op` concurrently for every rank over per-rank buffers.
    fn run_ranks<C: Collective + ?Sized + 'static>(
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
    fn lossless_codec_ring_matches_dense_exactly() {
        // The transport is codec-agnostic: with a bit-exact backend the
        // compressed ring must reproduce the dense ring's result to the
        // bit (same association order, zero injected error).
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

    #[test]
    fn ring_outputs_and_accounting_are_frozen() {
        // Literals captured from `DenseRing` and `CompressedRing` as two
        // separate `Collective` impls, before they became one schedule
        // over a hop: per world × ring × window, an FNV-1a hash over the
        // output bits of every rank in both rounds, then the full
        // `CommStats` ([messages, payload, dense-equivalent, broadcasts,
        // phases]). Rows run ring kind (dense, EF off, EF on, byteplane)
        // × window (whole tensor via `all_reduce`, then a bucket window
        // with one empty segment) within each world 2, 3, 4.
        use ebtrain_codec::ByteplaneCodec;
        const FROZEN: [(u64, [u64; 5]); 24] = [
            (0x0b4ae7317103e09d, [8, 143504, 143504, 0, 4]),
            (0x49f4ddc99708a295, [8, 96704, 96704, 0, 4]),
            (0x83be5e342dc0f3a3, [8, 21532, 143504, 0, 4]),
            (0x3d7f05f5ab92868d, [8, 14694, 96704, 0, 4]),
            (0x8b431b6022ae88e7, [8, 21613, 143504, 0, 4]),
            (0x776c51440d304a49, [8, 14754, 96704, 0, 4]),
            (0x0b4ae7317103e09d, [8, 88206, 143504, 0, 4]),
            (0x49f4ddc99708a295, [8, 58657, 96704, 0, 4]),
            (0x33fc8928cd5d9d65, [24, 418080, 418080, 0, 4]),
            (0x734da46714963ce5, [24, 455552, 455552, 0, 4]),
            (0x794c906bc0c045f2, [24, 67588, 418080, 0, 4]),
            (0x1731c41fd796ea49, [24, 73577, 455552, 0, 4]),
            (0x43838b76014118ec, [24, 67890, 418080, 0, 4]),
            (0xe7f5a37b0192278a, [24, 73908, 455552, 0, 4]),
            (0x33fc8928cd5d9d65, [24, 254158, 418080, 0, 4]),
            (0x734da46714963ce5, [24, 276022, 455552, 0, 4]),
            (0x7fc2f45fd4737235, [48, 823728, 823728, 0, 4]),
            (0x2a30c89b3a15aee5, [48, 1076544, 1076544, 0, 4]),
            (0xce9d31d2b4e9355d, [48, 133829, 823728, 0, 4]),
            (0xfd05ec290d5d166d, [48, 174193, 1076544, 0, 4]),
            (0x83d35f3a564b3979, [48, 134275, 823728, 0, 4]),
            (0xaa186e6b751ff6dd, [48, 174799, 1076544, 0, 4]),
            (0x7fc2f45fd4737235, [48, 502386, 823728, 0, 4]),
            (0x2a30c89b3a15aee5, [48, 650192, 1076544, 0, 4]),
        ];
        let mut rows = Vec::new();
        for world in [2usize, 3, 4] {
            let whole = crate::SEG_ALIGN * world + 777;
            let bucket = (
                crate::SEG_ALIGN / 2,
                crate::SEG_ALIGN * 2 * (world - 1) - 100 - crate::SEG_ALIGN / 2,
                crate::SEG_ALIGN * 2 * world,
            );
            for kind in 0..4 {
                for window in [None, Some(bucket)] {
                    let coll: Arc<dyn Collective> = match kind {
                        0 => Arc::new(DenseRing::new(world)),
                        1 => Arc::new(CompressedRing::new(world, 1e-3, false)),
                        2 => Arc::new(CompressedRing::new(world, 1e-3, true)),
                        _ => Arc::new(CompressedRing::with_codec(
                            world,
                            Arc::new(ByteplaneCodec),
                            1e-3,
                            false,
                        )),
                    };
                    let mut hash = 0xcbf2_9ce4_8422_2325u64;
                    for round in 0..2 {
                        let len = window.map_or(whole, |w| w.1);
                        let mut bufs = make_bufs(world, len, 1.0 + round as f32);
                        for r in run_ranks(&coll, &mut bufs, |c, r, b| match window {
                            None => c.all_reduce(r, b),
                            Some((start, _, total)) => c.all_reduce_aligned(r, b, 5, start, total),
                        }) {
                            r.unwrap();
                        }
                        for v in bufs.iter().flatten() {
                            hash = (hash ^ v.to_bits() as u64).wrapping_mul(0x100_0000_01b3);
                        }
                    }
                    let st = coll.stats();
                    let stats = [
                        st.messages,
                        st.payload_bytes,
                        st.dense_equiv_bytes,
                        st.broadcasts,
                        st.phases,
                    ];
                    rows.push((hash, stats));
                }
            }
        }
        assert_eq!(rows, FROZEN);
    }

    #[test]
    fn malformed_windows_and_owned_indices_are_config_errors() {
        // Unchecked, a window past the tensor leaves its tail in no
        // segment (never reduced, only divided by N) and an owned index
        // past the world indexes out of bounds. Each must fail before any
        // hop, and poison the group so no peer waits on this rank.
        let len = 100;
        for i in 0..6 {
            for coll in [
                Arc::new(DenseRing::new(2)) as Arc<dyn Collective>,
                Arc::new(CompressedRing::new(2, 1e-3, true)),
            ] {
                let mut buf = vec![1.0f32; len];
                let b = &mut buf[..];
                let err = match i {
                    0 => coll.all_reduce_aligned(0, b, 0, 50, 120),
                    1 => coll
                        .reduce_scatter_aligned(0, b, 0, usize::MAX - 10, usize::MAX)
                        .map(drop),
                    2 => coll.all_gather_aligned(0, 1, b, 0, 1, 99),
                    3 => coll.all_gather_aligned(0, 2, b, 0, 0, len),
                    4 => coll.all_gather_exact_aligned(0, 7, b, 0, 0, len),
                    _ => coll.reduce_scatter_aligned(2, b, 0, 0, len).map(drop),
                };
                assert!(
                    matches!(err, Err(DistError::Config(_))),
                    "{} call {i}: {err:?}",
                    coll.name()
                );
                assert_eq!(buf, vec![1.0f32; len], "{} call {i}", coll.name());
                assert_eq!(coll.stats(), CommStats::default(), "no message was sent");
                let again = coll.all_reduce(0, &mut buf);
                assert!(matches!(again, Err(DistError::Aborted(_))), "{again:?}");
            }
        }
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
                    s.spawn(move || {
                        let len = buf.len();
                        coll.all_reduce_aligned(rank, buf, tag, 0, len).unwrap()
                    });
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
        for r in run_ranks(&coll, &mut tight, |c, r, b| {
            c.all_reduce_aligned(r, b, 0, 0, len)
        }) {
            r.unwrap();
        }
        let after_tight = coll.stats();
        let mut coarse = make_bufs(world, len, 1.0);
        for r in run_ranks(&coll, &mut coarse, |c, r, b| {
            c.all_reduce_aligned(r, b, 1, 0, len)
        }) {
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
        for r in run_ranks(&coll, &mut again, |c, r, b| {
            c.all_reduce_aligned(r, b, 1, 0, len)
        }) {
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
            c.all_gather_exact_aligned(r, (r + 1) % world, b, 9, 0, len)
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
