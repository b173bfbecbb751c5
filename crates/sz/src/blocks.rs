//! Chunk geometry for block-parallel compression — cuSZ's architectural
//! core.
//!
//! cuSZ achieves GPU throughput by splitting the tensor into blocks that
//! compress *independently* (prediction state never crosses a block
//! boundary), trading a little ratio (each block restarts its predictor
//! and carries its own outlier list and Huffman table) for embarrassing
//! parallelism. Since format version 2 this is how [`crate::compress`]
//! itself works: the codec consults this module's `chunk_layouts` to
//! split the volume into plane-aligned chunks, codes each chunk into a
//! self-delimiting frame on a worker thread, and concatenates frames in
//! order — so the stream is byte-identical no matter how many threads
//! ran. The error contract is untouched because it is a per-element
//! property.
//!
//! This module owns the geometry (how a [`DataLayout`] splits);
//! [`SzConfig::chunk_planes`](crate::SzConfig::chunk_planes) overrides
//! the automatic block size, and the framing itself lives in the codec.

use crate::DataLayout;

/// Auto-chunking target: roughly this many elements per chunk. Small
/// enough that a 64 KiB activation volume still splits into several
/// parallel frames, large enough that per-chunk header/table overhead
/// stays negligible.
const CHUNK_TARGET_ELEMS: usize = 4096;

/// Number of chunks [`chunk_layouts`] would produce, computed without
/// materializing the list (the decoder validates untrusted headers with
/// this before allocating anything).
pub(crate) fn chunk_count(layout: DataLayout, block_planes: usize) -> usize {
    let bp = block_planes.max(1);
    match layout {
        DataLayout::D1(n) => n.div_ceil(bp.saturating_mul(4096)),
        DataLayout::D2(h, _) => h.div_ceil(bp),
        DataLayout::D3(a, _, _) => a.div_ceil(bp),
    }
}

/// Split a layout into plane-aligned chunks of at most `block_planes`
/// leading-dimension slices, with the element offset of each.
pub(crate) fn chunk_layouts(layout: DataLayout, block_planes: usize) -> Vec<(usize, DataLayout)> {
    let bp = block_planes.max(1);
    match layout {
        DataLayout::D1(n) => {
            // Interpret block_planes as rows of an implicit [rows, 4096]
            // split — for 1-D just chunk by bp*4096 elements. Saturating:
            // a decoder-supplied bp must not wrap the multiply.
            let chunk = bp.saturating_mul(4096);
            (0..n.div_ceil(chunk))
                .map(|i| {
                    let lo = i * chunk;
                    (lo, DataLayout::D1((n - lo).min(chunk)))
                })
                .collect()
        }
        DataLayout::D2(h, w) => (0..h.div_ceil(bp))
            .map(|i| {
                let lo = i * bp;
                (lo * w, DataLayout::D2((h - lo).min(bp), w))
            })
            .collect(),
        DataLayout::D3(a, b, c) => (0..a.div_ceil(bp))
            .map(|i| {
                let lo = i * bp;
                (lo * b * c, DataLayout::D3((a - lo).min(bp), b, c))
            })
            .collect(),
    }
}

/// Default `block_planes` for a layout: the smallest slice count whose
/// chunks hold at least [`CHUNK_TARGET_ELEMS`] elements.
pub(crate) fn auto_block_planes(layout: &DataLayout) -> usize {
    let plane_elems = match *layout {
        // 1-D chunks by bp*4096 elements, so one "plane" is 4096 elements.
        DataLayout::D1(_) => 4096,
        DataLayout::D2(_, w) => w,
        DataLayout::D3(_, b, c) => b * c,
    };
    CHUNK_TARGET_ELEMS.div_ceil(plane_elems.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, decompress, decompress_serial, CompressedBuffer, SzConfig};

    /// Vanilla SZ at `eb` with `block_planes` slices per chunk.
    fn blocked(data: &[f32], layout: DataLayout, eb: f32, block_planes: usize) -> CompressedBuffer {
        let cfg = SzConfig {
            chunk_planes: Some(block_planes),
            ..SzConfig::vanilla(eb)
        };
        compress(data, layout, &cfg).unwrap()
    }

    fn volume(a: usize, b: usize, c: usize) -> Vec<f32> {
        (0..a * b * c)
            .map(|i| ((i % c) as f32 * 0.11).sin() + ((i / c) as f32 * 0.05).cos())
            .collect()
    }

    #[test]
    fn chunking_covers_exactly() {
        for (layout, bp) in [
            (DataLayout::D3(10, 8, 8), 3usize),
            (DataLayout::D3(1, 4, 4), 5),
            (DataLayout::D2(17, 9), 4),
            (DataLayout::D1(100_000), 2),
        ] {
            let chunks = chunk_layouts(layout, bp);
            let mut expect_off = 0usize;
            for (off, cl) in &chunks {
                assert_eq!(*off, expect_off);
                expect_off += cl.len();
            }
            assert_eq!(expect_off, layout.len());
        }
    }

    #[test]
    fn auto_block_planes_hits_the_target_grain() {
        // Small planes coalesce, huge planes stay one per chunk.
        assert_eq!(auto_block_planes(&DataLayout::D3(16, 32, 32)), 4);
        assert_eq!(auto_block_planes(&DataLayout::D3(8, 128, 128)), 1);
        assert_eq!(auto_block_planes(&DataLayout::D2(1000, 10)), 410);
        assert_eq!(auto_block_planes(&DataLayout::D1(1 << 20)), 1);
    }

    #[test]
    fn blocked_roundtrip_honours_error_bound() {
        let data = volume(12, 16, 16);
        let eb = 1e-3f32;
        for bp in [1usize, 4, 100] {
            let buf = blocked(&data, DataLayout::D3(12, 16, 16), eb, bp);
            for out in [decompress(&buf).unwrap(), decompress_serial(&buf).unwrap()] {
                assert_eq!(out.len(), data.len());
                for (x, y) in data.iter().zip(&out) {
                    assert!((x - y).abs() <= eb);
                }
            }
        }
    }

    #[test]
    fn block_count_matches_geometry() {
        let data = volume(12, 8, 8);
        let buf = blocked(&data, DataLayout::D3(12, 8, 8), 1e-3, 4);
        assert_eq!(buf.num_chunks(), 3);
        let buf1 = blocked(&data, DataLayout::D3(12, 8, 8), 1e-3, 100);
        assert_eq!(buf1.num_chunks(), 1);
    }

    #[test]
    fn blocking_costs_only_modest_ratio() {
        // Independent blocks restart prediction and duplicate tables; the
        // loss should stay small on real-sized tensors.
        let data = volume(32, 32, 32);
        let whole = blocked(&data, DataLayout::D3(32, 32, 32), 1e-3, 1000);
        let split = blocked(&data, DataLayout::D3(32, 32, 32), 1e-3, 4);
        assert!(
            split.ratio() > whole.ratio() * 0.6,
            "blocked {:.2} vs whole {:.2}",
            split.ratio(),
            whole.ratio()
        );
    }

    #[test]
    fn explicit_blocking_matches_config_field() {
        // The field set to the automatic grain writes the default stream.
        let data = volume(16, 32, 32);
        let layout = DataLayout::D3(16, 32, 32);
        let cfg = SzConfig::with_error_bound(1e-3);
        let auto = compress(&data, layout, &cfg).unwrap();
        let explicit = compress(
            &data,
            layout,
            &SzConfig {
                chunk_planes: Some(auto_block_planes(&layout)),
                ..cfg
            },
        )
        .unwrap();
        assert_eq!(explicit.as_bytes(), auto.as_bytes());
        assert_eq!(auto.num_chunks(), 4);
    }
}
