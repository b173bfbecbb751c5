//! **Codec matrix**: the paper's codec-comparison argument (§2.2/§5.3 —
//! SZ-style prediction+quantization vs ZFP-style transform coding vs
//! lossless baselines) as a *measured table*.
//!
//! Sweeps {codec × error bound × tensor class} over the unified
//! [`Codec`] abstraction and reports, per cell: compression ratio,
//! compress/decompress throughput, and the observed max absolute error
//! (checked against each codec's declared [`ErrorContract`] — the
//! ZFP-like backend's *unbounded* absolute error on outlier-bearing
//! blocks is part of the point).
//!
//! Tensor classes mirror the three workloads the workspace moves through
//! codecs: conv **activations** (post-ReLU sparse, smooth positives),
//! **gradients** (dense, small-magnitude, noisy), and scientific
//! **fields** (smooth 3-D volumes, the classic SZ regime).
//!
//! Output: aligned table on stdout. `--smoke` shrinks the volume and rep
//! count for CI.

use ebtrain_bench::{env_usize, fmt_bytes, table::Table};
use ebtrain_codec::{
    BoundSpec, ByteplaneCodec, Codec, ErrorContract, LosslessCodec, SzCodec, TaggedStream,
    ZfpLikeCodec,
};
use ebtrain_sz::DataLayout;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

struct TensorClass {
    name: &'static str,
    data: Vec<f32>,
    layout: DataLayout,
}

fn make_classes(d0: usize, d1: usize, d2: usize) -> Vec<TensorClass> {
    let n = d0 * d1 * d2;
    let layout = DataLayout::D3(d0, d1, d2);
    let mut rng = StdRng::seed_from_u64(13);
    // Post-ReLU conv activations: smooth positives with zero runs.
    let activations: Vec<f32> = (0..n)
        .map(|i| {
            let v = (i as f32 * 0.013).sin() + 0.25;
            if v < 0.0 {
                0.0
            } else {
                v
            }
        })
        .collect();
    // Gradients: dense, small-magnitude, noisy with occasional spikes.
    let gradients: Vec<f32> = (0..n)
        .map(|_| {
            let base = rng.gen_range(-1.0f32..1.0) * 1e-2;
            if rng.gen_bool(0.001) {
                base * 100.0
            } else {
                base
            }
        })
        .collect();
    // Scientific fields: smooth separable 3-D volume (the SZ regime).
    let fields: Vec<f32> = (0..n)
        .map(|idx| {
            let i = (idx / (d1 * d2)) as f32;
            let j = ((idx / d2) % d1) as f32;
            let k = (idx % d2) as f32;
            (0.11 * i).sin() + (0.07 * j).cos() * 0.5 + 0.02 * k
        })
        .collect();
    vec![
        TensorClass {
            name: "activations",
            data: activations,
            layout,
        },
        TensorClass {
            name: "gradients",
            data: gradients,
            layout,
        },
        TensorClass {
            name: "fields",
            data: fields,
            layout,
        },
    ]
}

fn bound_label(bound: &BoundSpec) -> String {
    match bound {
        BoundSpec::Abs(eb) => format!("eb={eb:.0e}"),
        BoundSpec::Rel(r) => format!("rel={r:.0e}"),
        BoundSpec::Lossless => "exact".to_string(),
    }
}

/// Median wall-clock of `reps` runs of `f` (ns).
fn time_reps<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        times.push(t0.elapsed().as_nanos() as f64);
        last = Some(out);
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (times[times.len() / 2], last.unwrap())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (d0, d1, d2) = if smoke { (8, 16, 16) } else { (32, 64, 64) };
    let reps = if smoke {
        2
    } else {
        env_usize("EBTRAIN_REPS", 7)
    };
    let classes = make_classes(d0, d1, d2);
    let raw_bytes = classes[0].data.len() * 4;
    println!(
        "fig13_codec_matrix: {} per tensor, {} classes, {reps} reps{}",
        fmt_bytes(raw_bytes as u64),
        classes.len(),
        if smoke { " (smoke)" } else { "" },
    );

    // The entropy-backend axis: dual-quant with each Z2 frame entropy
    // stage forced, next to the cost-model Auto default. The tight
    // eb=1e-4 bound is where the codebook-free range coder pays off
    // (deep Huffman codebooks get charged against every chunk).
    let mut range_cfg = ebtrain_sz::SzConfig::with_error_bound(1e-3);
    range_cfg.entropy_backend = ebtrain_sz::EntropyBackend::Range;
    let mut huffman_cfg = ebtrain_sz::SzConfig::with_error_bound(1e-3);
    huffman_cfg.entropy_backend = ebtrain_sz::EntropyBackend::Huffman;
    let codecs: Vec<Arc<dyn Codec>> = vec![
        Arc::new(SzCodec::classic()),
        Arc::new(SzCodec::dual_quant()),
        Arc::new(SzCodec::new(huffman_cfg)),
        Arc::new(SzCodec::new(range_cfg)),
        Arc::new(ZfpLikeCodec),
        Arc::new(LosslessCodec),
        Arc::new(ByteplaneCodec),
    ];
    let lossy_bounds = [
        BoundSpec::Abs(1e-2),
        BoundSpec::Abs(1e-3),
        BoundSpec::Abs(1e-4),
    ];

    let mut table = Table::new(&[
        "class",
        "codec",
        "bound",
        "ratio",
        "comp MiB/s",
        "dec MiB/s",
        "max err",
        "contract",
    ]);
    let mut codec_names = std::collections::BTreeSet::new();
    let mut eb_values = std::collections::BTreeSet::new();
    // (class, codec, eb bits) -> compression ratio, for the entropy-axis
    // acceptance check below (sizes are deterministic, so this is exact).
    let mut ratios = std::collections::BTreeMap::new();

    for class in &classes {
        for codec in &codecs {
            let bounds: Vec<BoundSpec> = if codec.contract() == ErrorContract::Exact {
                vec![BoundSpec::Lossless]
            } else {
                lossy_bounds.to_vec()
            };
            for bound in bounds {
                let (comp_med, stream) = time_reps(reps, || {
                    codec
                        .compress(&class.data, class.layout, &bound)
                        .expect("compress")
                });
                // The self-describing container reparses to the same
                // codec id (the routing consumers rely on).
                let reparsed = TaggedStream::from_bytes(stream.as_bytes().to_vec()).unwrap();
                assert_eq!(reparsed.codec_id(), codec.id());
                let (dec_med, decoded) =
                    time_reps(reps, || codec.decompress(&stream).expect("decompress"));
                assert_eq!(decoded.len(), class.data.len());
                let max_err = class
                    .data
                    .iter()
                    .zip(&decoded)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f32, f32::max);
                // Enforce each codec's declared contract on the spot.
                match (codec.contract(), bound) {
                    (ErrorContract::Exact, _) => assert_eq!(max_err, 0.0, "{}", codec.name()),
                    (ErrorContract::Absolute, BoundSpec::Abs(eb)) => {
                        assert!(max_err <= eb, "{}: {max_err} > {eb}", codec.name())
                    }
                    (ErrorContract::AbsoluteZeroSnap, BoundSpec::Abs(eb)) => {
                        assert!(max_err <= 2.0 * eb, "{}: {max_err} > 2x{eb}", codec.name())
                    }
                    _ => {} // BlockRelative promises no absolute bound
                }
                let ratio = raw_bytes as f64 / stream.compressed_byte_len() as f64;
                let mibs = |ns: f64| raw_bytes as f64 / (ns * 1e-9) / (1 << 20) as f64;
                table.row(vec![
                    class.name.to_string(),
                    codec.name().to_string(),
                    bound_label(&bound),
                    format!("{ratio:.2}"),
                    format!("{:.1}", mibs(comp_med)),
                    format!("{:.1}", mibs(dec_med)),
                    format!("{max_err:.2e}"),
                    format!("{:?}", codec.contract()),
                ]);
                codec_names.insert(codec.name());
                if let BoundSpec::Abs(eb) = bound {
                    eb_values.insert(eb.to_bits());
                    ratios.insert((class.name, codec.name(), eb.to_bits()), ratio);
                }
            }
        }
    }

    println!("\n{}", table.render());
    // The acceptance gate: a real matrix, not a degenerate sweep.
    assert!(
        codec_names.len() >= 3,
        "matrix must cover >=3 codecs, got {codec_names:?}"
    );
    assert!(eb_values.len() >= 2, "matrix must cover >=2 error bounds");
    // Entropy-axis gate: at the tight bound, the cost-model Auto default
    // must never compress worse than the Huffman-only stage it replaces.
    let tight = 1e-4f32.to_bits();
    for class in &classes {
        let auto = ratios[&(class.name, "sz-dualquant", tight)];
        let huff = ratios[&(class.name, "sz-dualquant-huffman", tight)];
        assert!(
            auto >= huff,
            "{}: auto entropy selection ({auto:.2}x) worse than huffman-only ({huff:.2}x) at eb=1e-4",
            class.name
        );
    }
    println!(
        "matrix: {} codecs x {} bounds x {} classes",
        codec_names.len(),
        eb_values.len(),
        classes.len()
    );
}
