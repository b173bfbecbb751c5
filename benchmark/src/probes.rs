//! Standalone layer probes of the traced run.
//!
//! The traced window sees the upper layers from outside; the layers
//! below the store cannot be bracketed there without editing them. They
//! are timed here instead, each through its own public functions, on the
//! **replay corpus** — the very tensors the workload pushed through its
//! store (one step's compressible activations, or the serve working
//! set) with the error bounds it used. Every probe reports a median over
//! repetitions.

use crate::harness::{median, Outcome, Scale, MIB};
use ebtrain_codec::{BoundSpec, Codec, CodecRegistry, SzCodec};
use ebtrain_dist::{Collective, CompressedRing, DenseRing};
use ebtrain_encoding::{huffman, range};
use ebtrain_membudget::{BudgetConfig, BudgetedArena, FarthestNextUse, Lru};
use ebtrain_pool::WorkerPool;
use ebtrain_serve::{ServeClient, ServeConfig, ServeDaemon};
use ebtrain_sz::{DataLayout, SzConfig};
use ebtrain_tensor::{gemm_nn, gemm_nt, gemm_tn, im2col, Conv2dGeometry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// One tensor of the replay corpus.
pub struct CorpusTensor {
    pub data: Vec<f32>,
    pub layout: DataLayout,
    /// The absolute error bound the workload compressed it under.
    pub eb: f32,
}

pub struct Corpus {
    pub tensors: Vec<CorpusTensor>,
}

impl Corpus {
    fn bytes(&self) -> usize {
        self.tensors.iter().map(|t| t.data.len() * 4).sum()
    }
}

/// One convolution of the workload's network (stride 1, square).
pub struct ConvShape {
    pub batch: usize,
    pub in_c: usize,
    pub out_c: usize,
    pub in_hw: usize,
    pub kernel: usize,
    /// `OH·OW`, as the layer reports it.
    pub out_positions: usize,
}

/// How the arena probe is driven.
#[derive(Clone, Copy)]
pub enum Schedule {
    /// Insert in forward order, load in reverse, the order announced
    /// through `set_schedule` — what `BudgetedStore` does in a step.
    Training,
    /// The serve script: replace a key, read two whole, read a quarter.
    Serve,
}

/// Seconds of `f`, the median of `reps` runs.
fn time_s(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(3))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Microseconds per call of `f`, timed in batches of `batch` calls.
fn per_call_us(reps: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    time_s(reps, || (0..batch).for_each(|_| f())) * 1e6 / batch as f64
}

pub fn run(
    corpus: &Corpus,
    shapes: &[ConvShape],
    grad_len: usize,
    schedule: Schedule,
    scale: &Scale,
    out: &mut Outcome,
) -> Result<(), String> {
    if corpus.tensors.is_empty() {
        return Err("empty replay corpus".into());
    }
    let reps = |n: usize| (n / scale.probe_div).max(3);
    sz(corpus, reps(12), out)?;
    encoding(reps(10), out)?;
    codec(corpus, reps(15), out)?;
    membudget(corpus, schedule, reps(12), out)?;
    threads(reps(40), out);
    tensor(shapes, reps(10), out);
    rings(grad_len, reps(15), out)?;
    serve_ping(reps(500), out)?;
    obs_span(out);
    Ok(())
}

fn sz_config(t: &CorpusTensor) -> SzConfig {
    SzConfig::with_error_bound(t.eb)
}

fn sz(corpus: &Corpus, reps: usize, out: &mut Outcome) -> Result<(), String> {
    let err = |e: ebtrain_sz::SzError| e.to_string();
    let compressed: Vec<_> = corpus
        .tensors
        .iter()
        .map(|t| ebtrain_sz::compress(&t.data, t.layout, &sz_config(t)))
        .collect::<Result<_, _>>()
        .map_err(err)?;
    let mib = corpus.bytes() as f64 / MIB;
    let parallel = time_s(reps, || {
        for t in &corpus.tensors {
            black_box(ebtrain_sz::compress(&t.data, t.layout, &sz_config(t)).ok());
        }
    });
    let serial = time_s(reps, || {
        for t in &corpus.tensors {
            black_box(ebtrain_sz::compress_serial(&t.data, t.layout, &sz_config(t)).ok());
        }
    });
    let decode = time_s(reps, || {
        for c in &compressed {
            black_box(ebtrain_sz::decompress(c).ok());
        }
    });
    // 8 KiB: the size of a gradient segment or a small activation, where
    // per-call overheads (thread fan-out, codebook) dominate.
    let big = corpus
        .tensors
        .iter()
        .max_by_key(|t| t.data.len())
        .expect("corpus not empty");
    let small = &big.data[..big.data.len().min(2048)];
    let small_s = time_s(reps * 10, || {
        black_box(ebtrain_sz::compress(small, DataLayout::D1(small.len()), &sz_config(big)).ok());
    });
    let stored: usize = compressed.iter().map(|c| c.compressed_byte_len()).sum();
    out.put("sz.compress_mibps", mib / parallel);
    out.put("sz.decompress_mibps", mib / decode);
    out.put("sz.compress_serial_mibps", mib / serial);
    out.put("sz.par_speedup_x", serial / parallel);
    out.put(
        "sz.small_compress_mibps",
        small.len() as f64 * 4.0 / MIB / small_s,
    );
    out.put(
        "sz.bits_per_elem",
        stored as f64 * 8.0 / (corpus.bytes() / 4) as f64,
    );
    Ok(())
}

/// Entropy stages alone, on 64 Ki quantization codes drawn from a
/// Laplacian around the centre — the distribution SZ's predictor leaves.
fn encoding(reps: usize, out: &mut Outcome) -> Result<(), String> {
    const N: usize = 64 * 1024;
    const CENTER: u32 = 32_768;
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let codes: Vec<u32> = (0..N)
        .map(|_| {
            let u: f64 = rng.gen_range(-0.5..0.5);
            let lap = -2.0 * u.signum() * (1.0 - 2.0 * u.abs()).max(1e-12).ln();
            (CENTER as f64 + lap.round()) as u32
        })
        .collect();
    let mib = (N * 4) as f64 / MIB;
    let huff = huffman::encode(&codes);
    let ranged = range::encode_block(&codes, CENTER);
    if huffman::decode(&huff).map_err(|e| e.to_string())? != codes
        || range::decode_block(&ranged, N, CENTER).map_err(|e| e.to_string())? != codes
    {
        return Err("entropy stage does not round-trip".into());
    }
    out.put(
        "encoding.huffman_enc_mibps",
        mib / time_s(reps, || drop(black_box(huffman::encode(&codes)))),
    );
    out.put(
        "encoding.huffman_dec_mibps",
        mib / time_s(reps, || drop(black_box(huffman::decode(&huff)))),
    );
    out.put(
        "encoding.range_enc_mibps",
        mib / time_s(reps, || {
            drop(black_box(range::encode_block(&codes, CENTER)))
        }),
    );
    out.put(
        "encoding.range_dec_mibps",
        mib / time_s(reps, || {
            drop(black_box(range::decode_block(&ranged, N, CENTER)))
        }),
    );
    Ok(())
}

/// What the `Codec` adapter and the registry add over bare `sz`.
fn codec(corpus: &Corpus, reps: usize, out: &mut Outcome) -> Result<(), String> {
    let t = corpus
        .tensors
        .iter()
        .max_by_key(|t| t.data.len())
        .expect("corpus not empty");
    let adapter = SzCodec::new(sz_config(t));
    let bound = BoundSpec::Abs(t.eb);
    // Alternate the two so that drift falls on both.
    let (mut via_adapter, mut bare) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let s = Instant::now();
        black_box(adapter.compress(&t.data, t.layout, &bound).ok());
        via_adapter.push(s.elapsed().as_secs_f64());
        let s = Instant::now();
        black_box(ebtrain_sz::compress(&t.data, t.layout, &sz_config(t)).ok());
        bare.push(s.elapsed().as_secs_f64());
    }
    let stream = adapter
        .compress(&t.data, t.layout, &bound)
        .map_err(|e| e.to_string())?;
    let registry = CodecRegistry::standard();
    if registry
        .declared_elems(&stream)
        .map_err(|e| e.to_string())?
        != Some(t.data.len())
    {
        return Err("declared_elems disagrees with the tensor".into());
    }
    out.put(
        "codec.adapter_overhead_x",
        median(&via_adapter) / median(&bare),
    );
    out.put(
        "codec.declared_elems_us",
        per_call_us(reps, 1000, || {
            drop(black_box(registry.declared_elems(&stream)))
        }),
    );
    Ok(())
}

/// A `BudgetedArena` holding the corpus under half its raw size.
fn membudget(
    corpus: &Corpus,
    schedule: Schedule,
    rounds: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut cfg = BudgetConfig::with_budget(corpus.bytes() / 2);
    let mut arena: BudgetedArena<u64> = match schedule {
        Schedule::Training => BudgetedArena::new(cfg, Box::new(FarthestNextUse)),
        Schedule::Serve => {
            cfg.prefetch_depth = 0; // as `serve::Tenant` configures it
            BudgetedArena::new(cfg, Box::new(Lru))
        }
    };
    let n = corpus.tensors.len();
    let (mut insert_us, mut load_us, mut planes_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut inserted_bytes = 0u64;
    let mut insert = |arena: &mut BudgetedArena<u64>, k: usize| {
        let t = &corpus.tensors[k];
        let data = t.data.clone();
        inserted_bytes += data.len() as u64 * 4;
        let s = Instant::now();
        black_box(arena.insert_f32(k as u64, data, t.layout, Some(t.eb)));
        insert_us.push(s.elapsed().as_secs_f64() * 1e6);
    };
    let mut fetch = |arena: &mut BudgetedArena<u64>, k: usize, whole: bool| {
        let planes = corpus.tensors[k].layout.plane_count();
        let range = if whole {
            0..planes
        } else {
            0..planes.div_ceil(4)
        };
        let s = Instant::now();
        let r = arena.fetch_planes(k as u64, range);
        if !whole {
            planes_us.push(s.elapsed().as_secs_f64() * 1e6);
        }
        r.map(drop).map_err(|e| e.to_string())
    };
    match schedule {
        Schedule::Training => {
            for _ in 0..rounds {
                arena.set_schedule((0..n as u64).rev().collect());
                for k in 0..n {
                    insert(&mut arena, k);
                }
                for k in (0..n).rev() {
                    fetch(&mut arena, k, false)?;
                    let s = Instant::now();
                    let r = arena.load(k as u64);
                    load_us.push(s.elapsed().as_secs_f64() * 1e6);
                    r.map_err(|e| e.to_string())?;
                }
            }
        }
        Schedule::Serve => {
            // Populate first; those inserts meet no pressure and are left
            // out below.
            for k in 0..n {
                insert(&mut arena, k);
            }
            for i in 0..rounds * n {
                insert(&mut arena, (i * 7) % n);
                for k in [(i * 5 + 3) % n, (i * 11 + 1) % n] {
                    let s = Instant::now();
                    fetch(&mut arena, k, true)?;
                    load_us.push(s.elapsed().as_secs_f64() * 1e6);
                }
                fetch(&mut arena, (i * 13 + 2) % n, false)?;
            }
        }
    }
    let populate = match schedule {
        Schedule::Training => 0,
        Schedule::Serve => n,
    };
    let m = arena.metrics();
    if arena.peak_resident_bytes() > arena.budget_bytes() {
        return Err("arena exceeded its budget".into());
    }
    out.put("membudget.insert_p50_us", median(&insert_us[populate..]));
    out.put("membudget.load_p50_us", median(&load_us));
    out.put("membudget.fetch_planes_p50_us", median(&planes_us));
    out.put(
        "membudget.evictions_per_insert",
        (m.demotions + m.evictions_host + m.drops) as f64 / m.inserts.max(1) as f64,
    );
    out.put(
        "membudget.reencode_bytes_per_insert_byte",
        m.bytes_compressed_raw as f64 / inserted_bytes.max(1) as f64,
    );
    Ok(())
}

/// Cost of an empty two-way parallel region on each thread substrate.
fn threads(reps: usize, out: &mut Outcome) {
    let pool = WorkerPool::new(2);
    out.put(
        "pool.scope_us",
        per_call_us(reps, 50, || {
            pool.scope(|s| {
                s.spawn(|| ());
                s.spawn(|| ());
            })
        }),
    );
    out.put(
        "pool.submit_join_us",
        per_call_us(reps, 50, || pool.submit(|| ()).join()),
    );
    let two = [0u8; 2];
    out.put(
        "rayon.par_call_us",
        per_call_us(reps, 10, || {
            two.par_iter().for_each(|x| {
                black_box(x);
            })
        }),
    );
}

/// The GEMMs and im2col lowerings one step of the network performs:
/// forward, weight gradient and input gradient of every convolution.
fn tensor(shapes: &[ConvShape], reps: usize, out: &mut Outcome) {
    let mut rng = StdRng::seed_from_u64(0x6E77);
    let mut fill = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect() };
    struct Case {
        geo: Conv2dGeometry,
        batch: usize,
        m: usize,
        input: Vec<f32>,
        weight: Vec<f32>,
        col: Vec<f32>,
        y: Vec<f32>,
        dw: Vec<f32>,
        dcol: Vec<f32>,
    }
    let mut cases: Vec<Case> = shapes
        .iter()
        .map(|s| {
            let geo = Conv2dGeometry {
                in_c: s.in_c,
                in_h: s.in_hw,
                in_w: s.in_hw,
                kh: s.kernel,
                kw: s.kernel,
                stride: 1,
                pad: (s.kernel - 1) / 2,
            };
            assert_eq!(geo.col_cols(), s.out_positions, "conv geometry guess");
            let (k, n) = (geo.col_rows(), geo.col_cols());
            Case {
                geo,
                batch: s.batch,
                m: s.out_c,
                input: fill(s.in_c * s.in_hw * s.in_hw),
                weight: fill(s.out_c * k),
                col: vec![0.0; k * n],
                y: vec![0.0; s.out_c * n],
                dw: vec![0.0; s.out_c * k],
                dcol: vec![0.0; k * n],
            }
        })
        .collect();
    let mut flops = 0.0;
    let mut col_bytes = 0.0;
    for c in &cases {
        let (k, n) = (c.geo.col_rows(), c.geo.col_cols());
        flops += (c.batch * 3 * 2 * c.m * k * n) as f64;
        col_bytes += (c.batch * k * n * 4) as f64;
    }
    let lower = time_s(reps, || {
        for c in &mut cases {
            for _ in 0..c.batch {
                im2col(&c.geo, &c.input, &mut c.col);
            }
        }
    });
    let gemm = time_s(reps, || {
        for c in &mut cases {
            let (k, n) = (c.geo.col_rows(), c.geo.col_cols());
            for _ in 0..c.batch {
                gemm_nn(c.m, k, n, &c.weight, &c.col, &mut c.y);
                gemm_nt(c.m, n, k, &c.y, &c.col, &mut c.dw);
                gemm_tn(k, c.m, n, &c.weight, &c.y, &mut c.dcol);
            }
        }
    });
    black_box(&cases.last().map(|c| c.dcol[0]));
    out.put("tensor.gemm_gflops", flops / gemm / 1e9);
    out.put("tensor.im2col_mibps", col_bytes / MIB / lower);
}

/// One all-reduce of a gradient-sized vector on two threads, straight
/// on each ring.
fn rings(len: usize, reps: usize, out: &mut Outcome) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(0x61AD);
    let grads: Vec<Vec<f32>> = (0..2)
        .map(|_| (0..len).map(|_| rng.gen_range(-0.02f32..0.02)).collect())
        .collect();
    let pool = WorkerPool::new(2);
    let all_reduce = |ring: &dyn Collective| -> Result<f64, String> {
        let mut samples = Vec::new();
        for _ in 0..reps {
            let mut bufs = grads.clone();
            let mut results = [Ok(()), Ok(())];
            let s = Instant::now();
            pool.scope(|scope| {
                for (rank, (buf, res)) in bufs.iter_mut().zip(results.iter_mut()).enumerate() {
                    scope.spawn(move || *res = ring.all_reduce(rank, buf));
                }
            });
            samples.push(s.elapsed().as_secs_f64() * 1e3);
            for r in results {
                r.map_err(|e| e.to_string())?;
            }
            if bufs[0] != bufs[1] {
                return Err(format!("{}: ranks disagree after all-reduce", ring.name()));
            }
        }
        Ok(median(&samples))
    };
    out.put("dist.allreduce_dense_ms", all_reduce(&DenseRing::new(2))?);
    out.put(
        "dist.allreduce_sz_ms",
        all_reduce(&CompressedRing::new(2, 1e-3, true))?,
    );
    Ok(())
}

/// Socket, frame and dispatch floor of the daemon: an empty RPC.
fn serve_ping(reps: usize, out: &mut Outcome) -> Result<(), String> {
    let daemon = ServeDaemon::spawn(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let mut client = ServeClient::connect(daemon.addr()).map_err(|e| e.to_string())?;
    let mut us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let s = Instant::now();
        client.ping(1).map_err(|e| e.to_string())?;
        us.push(s.elapsed().as_secs_f64() * 1e6);
    }
    drop(client);
    daemon.shutdown();
    out.put("serve.ping_p50_us", median(&us));
    Ok(())
}

/// What a span of the program's own observability layer costs when the
/// registry is off (every crate carries them).
fn obs_span(out: &mut Outcome) {
    const LOOPS: u32 = 200_000;
    ebtrain_obs::set_metrics_enabled(false);
    let t = Instant::now();
    for _ in 0..LOOPS {
        black_box(&ebtrain_obs::span!("benchmark.disabled_probe"));
    }
    let ns = t.elapsed().as_nanos() as f64 / LOOPS as f64;
    ebtrain_obs::set_metrics_enabled(true);
    out.put("obs.span_ns", ns);
}
