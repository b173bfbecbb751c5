//! Frame index and plane-range decode for the Z2 chunk-framed container.
//!
//! The Z2 stream (DESIGN.md §3) was designed so every chunk frame decodes
//! independently given the shared codebook. This module is the consumer
//! of that property: [`CompressedBuffer::frame_index`] maps each frame to
//! the plane/element/byte ranges it covers **without decoding anything**
//! (only the length prefixes are read), and
//! [`CompressedBuffer::decompress_planes`] decodes a chosen range of
//! leading-dimension planes while *skipping* the frame bodies outside the
//! range — the streaming-decode primitive for budgeted/partial fetches
//! (`BudgetedArena::fetch_planes`, and through it every warm `fetch` of
//! the serve daemon). A full [`decompress`](crate::decompress) is the
//! same decoder over every plane. The length prefixes are walked and
//! validated serially; the covering frames then decode as **one parallel
//! region**, and a range one frame covers decodes inline.
//!
//! A "plane" is one leading-dimension slice: a row for `D2(h, w)`, a
//! `d1 × d2` plane for `D3`, and a 4096-element run for `D1` (matching
//! the chunk geometry in [`crate::blocks`]).

use crate::codec::{
    corrupt, decode_frame, parse_frame, parse_header, rd_usize, CompressedBuffer, Frame, Header,
};
use crate::{blocks, DataLayout, Result};
use ebtrain_encoding::huffman;
use rayon::prelude::*;
use std::ops::Range;

/// One frame's coverage: which planes/elements it reconstructs and which
/// stream bytes hold its body (length prefix excluded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameEntry {
    /// Leading-dimension plane range this frame covers.
    pub planes: Range<usize>,
    /// Flat element range this frame reconstructs.
    pub elems: Range<usize>,
    /// Byte range of the frame body within the stream.
    pub bytes: Range<usize>,
}

/// Byte-level map of a compressed stream's frames.
#[derive(Debug, Clone)]
pub struct FrameIndex {
    layout: DataLayout,
    plane_elems: usize,
    n_planes: usize,
    entries: Vec<FrameEntry>,
}

impl FrameIndex {
    /// The stream's data layout.
    pub fn layout(&self) -> DataLayout {
        self.layout
    }

    /// Elements per leading-dimension plane.
    pub fn plane_elems(&self) -> usize {
        self.plane_elems
    }

    /// Number of planes in the stream (`decompress_planes` ranges are
    /// bounded by this).
    pub fn n_planes(&self) -> usize {
        self.n_planes
    }

    /// Per-frame coverage, in stream order.
    pub fn entries(&self) -> &[FrameEntry] {
        &self.entries
    }

    /// Frame indices whose plane coverage intersects `planes`.
    pub fn frames_covering(&self, planes: &Range<usize>) -> Range<usize> {
        if planes.start >= planes.end {
            return 0..0;
        }
        let lo = self
            .entries
            .partition_point(|e| e.planes.end <= planes.start);
        let hi = self
            .entries
            .partition_point(|e| e.planes.start < planes.end);
        lo..hi
    }

    /// Total bytes of all frame bodies (the denominator for partial-read
    /// accounting).
    pub fn frame_bytes_total(&self) -> usize {
        self.entries.iter().map(|e| e.bytes.len()).sum()
    }
}

/// Byte-access accounting of a [`CompressedBuffer::decompress_planes_with_stats`]
/// call — the counter that proves a range decode only touched its own
/// frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeDecodeStats {
    /// Frames in the stream.
    pub frames_total: usize,
    /// Frames actually decoded for this range.
    pub frames_decoded: usize,
    /// Total bytes of all frame bodies in the stream.
    pub frame_bytes_total: usize,
    /// Frame-body bytes read (decoded); bodies outside the range are
    /// skipped via their length prefix.
    pub frame_bytes_decoded: usize,
}

impl CompressedBuffer {
    /// Build the frame index: plane/element/byte coverage of every frame,
    /// by walking length prefixes only (no entropy decode, no codebook
    /// expansion).
    pub fn frame_index(&self) -> Result<FrameIndex> {
        frame_index_of(self.as_bytes())
    }

    /// Decode only the leading-dimension planes in `planes`, reading
    /// (beyond the header and shared codebook) only the frames that cover
    /// the range — other frame bodies are skipped via their length
    /// prefixes. Returns the reconstructed values of exactly those
    /// planes, identical to the corresponding slice of a full
    /// [`decompress`](crate::decompress) (property-tested).
    ///
    /// `planes` is in plane units (see the module docs); `planes.end`
    /// must not exceed the stream's plane count. The final plane of a
    /// `D1` stream may be partial.
    ///
    /// ```
    /// use ebtrain_sz::{compress, decompress, DataLayout, SzConfig};
    ///
    /// let data: Vec<f32> = (0..12 * 8 * 8).map(|i| (i as f32 * 0.01).sin()).collect();
    /// let mut cfg = SzConfig::with_error_bound(1e-3);
    /// cfg.chunk_planes = Some(2);
    /// let buf = compress(&data, DataLayout::D3(12, 8, 8), &cfg).unwrap();
    /// let full = decompress(&buf).unwrap();
    /// let part = buf.decompress_planes(3..7).unwrap();
    /// assert_eq!(part, full[3 * 64..7 * 64]);
    /// ```
    pub fn decompress_planes(&self, planes: Range<usize>) -> Result<Vec<f32>> {
        self.decompress_planes_with_stats(planes).map(|(v, _)| v)
    }

    /// [`decompress_planes`](Self::decompress_planes) plus byte-access
    /// accounting (how many frames / frame-body bytes the call decoded).
    pub fn decompress_planes_with_stats(
        &self,
        planes: Range<usize>,
    ) -> Result<(Vec<f32>, RangeDecodeStats)> {
        decompress_planes_bytes(self.as_bytes(), planes)
    }
}

/// [`CompressedBuffer::frame_index`] over a borrowed raw stream — the
/// zero-copy entry point for container formats that hold the stream as
/// a body slice.
pub fn frame_index_of(bytes: &[u8]) -> Result<FrameIndex> {
    let header = parse_header(bytes)?;
    let mut pos = header.body_off;
    // Skip the shared codebook without building decode tables.
    huffman::skip_serialized_codebook(bytes, &mut pos)
        .map_err(|e| crate::SzError::Corrupt(e.to_string()))?;
    let np = header.layout.plane_count();
    let bp = header.block_planes;
    let entries = walk_frames(bytes, &header, pos)?
        .into_iter()
        .enumerate()
        .map(|(ci, (off, cl, body))| FrameEntry {
            planes: ci * bp..(ci * bp + bp).min(np),
            elems: off..off + cl.len(),
            bytes: body,
        })
        .collect();
    Ok(FrameIndex {
        layout: header.layout,
        plane_elems: header.layout.plane_elems(),
        n_planes: np,
        entries,
    })
}

/// [`CompressedBuffer::decompress_planes_with_stats`] over a borrowed
/// raw stream (zero-copy twin of [`frame_index_of`]).
pub fn decompress_planes_bytes(
    bytes: &[u8],
    planes: Range<usize>,
) -> Result<(Vec<f32>, RangeDecodeStats)> {
    decode(bytes, Some(planes), true)
}

/// Every frame's `(first element, chunk layout, body bytes)`, read from
/// the length prefixes that start at `pos` (just past the codebook).
/// The one walk of a stream's framing: the frame index and the decoder
/// both stand on it. The frames must end exactly at the stream's end.
fn walk_frames(
    bytes: &[u8],
    header: &Header,
    mut pos: usize,
) -> Result<Vec<(usize, DataLayout, Range<usize>)>> {
    let metas = blocks::chunk_layouts(header.layout, header.block_planes);
    let mut frames = Vec::with_capacity(metas.len());
    for (off, cl) in metas {
        let frame_len = rd_usize(bytes, &mut pos)?;
        // Subtract rather than add: `pos + frame_len` could wrap.
        if frame_len > bytes.len() - pos {
            return Err(corrupt("truncated chunk frame"));
        }
        frames.push((off, cl, pos..pos + frame_len));
        pos += frame_len;
    }
    if pos != bytes.len() {
        return Err(corrupt("trailing bytes after chunk frames"));
    }
    Ok(frames)
}

/// The SZ decoder: the values of the leading-dimension planes `planes`,
/// or of the whole stream for `None`, and what the call read. The whole
/// stream is walked and every covering frame parsed before anything is
/// decoded; then the covering frames decode — as one parallel region
/// when `parallel` and there are several — each straight into its own
/// slice of the output. A frame the window covers only in part (the
/// first or last of a plane range) decodes into scratch, and its overlap
/// is copied out.
///
/// The output is reserved only after every covering frame's symbol
/// count has passed its payload's bound (see `codec::parse_frame`), so
/// a hostile header cannot size an allocation by itself: at most a
/// fixed multiple of the stream's own length. If a frame fails to
/// parse, the frames before it still decode, so the first error in
/// frame order wins, as it does among the decodes.
pub(crate) fn decode(
    bytes: &[u8],
    planes: Option<Range<usize>>,
    parallel: bool,
) -> Result<(Vec<f32>, RangeDecodeStats)> {
    let header = parse_header(bytes)?;
    let np = header.layout.plane_count();
    let planes = planes.unwrap_or(0..np);
    if planes.start > planes.end || planes.end > np {
        return Err(corrupt("plane range out of bounds"));
    }
    // Requested flat element window. Both ends clamp to `n`: the
    // final D1 plane may be partial, so an empty range at the tail
    // (`n_planes..n_planes`) would otherwise put `start` past `end`.
    let pe = header.layout.plane_elems();
    let start_e = (planes.start * pe).min(header.n);
    let end_e = (planes.end * pe).min(header.n);

    let mut pos = header.body_off;
    let decoder = huffman::Decoder::deserialize(bytes, &mut pos)
        .map_err(|e| crate::SzError::Corrupt(e.to_string()))?;
    let frames = walk_frames(bytes, &header, pos)?;
    let mut stats = RangeDecodeStats {
        frames_total: frames.len(),
        ..RangeDecodeStats::default()
    };
    // The covering frames, parsed, with their overlap with the window in
    // the frame's own elements — up to the first that does not parse.
    let mut covering = Vec::new();
    let mut parse_error = None;
    for (off, cl, body) in frames {
        stats.frame_bytes_total += body.len();
        let lo = start_e.max(off);
        let hi = end_e.min(off + cl.len());
        if lo < hi {
            stats.frames_decoded += 1;
            stats.frame_bytes_decoded += body.len();
            if parse_error.is_none() {
                match parse_frame(&bytes[body], cl, &header, &decoder) {
                    Ok(frame) => covering.push((frame, lo - off..hi - off)),
                    Err(e) => parse_error = Some(e),
                }
            }
        }
    }

    // The overlaps tile the window (the chunk geometry tiles the
    // volume), so each frame's share of `out` follows the one before.
    let mut out = vec![0.0f32; covering.iter().map(|(_, o)| o.len()).sum()];
    let mut jobs = Vec::with_capacity(covering.len());
    let mut rest = &mut out[..];
    for (frame, overlap) in covering {
        let (dst, tail) = rest.split_at_mut(overlap.len());
        jobs.push((frame, overlap, dst));
        rest = tail;
    }
    // Chunks restart prediction, so a frame decodes whole.
    let decode_one = |(frame, overlap, dst): &mut (Frame<'_>, Range<usize>, &mut [f32])| {
        if overlap.len() == frame.len() {
            return decode_frame(frame, &header, dst);
        }
        let mut whole = vec![0.0f32; frame.len()];
        decode_frame(frame, &header, &mut whole)?;
        dst.copy_from_slice(&whole[overlap.clone()]);
        Ok(())
    };
    if parallel && jobs.len() > 1 {
        jobs.par_iter_mut()
            .map(decode_one)
            .collect::<Result<()>>()?;
    } else {
        jobs.iter_mut().try_for_each(decode_one)?;
    }
    match parse_error {
        Some(e) => Err(e),
        None => {
            debug_assert_eq!(out.len(), end_e - start_e);
            Ok((out, stats))
        }
    }
}

#[cfg(test)]
mod borrow_tests {
    use super::*;
    use crate::{compress, SzConfig};

    #[test]
    fn borrowed_entry_points_match_owned_methods() {
        let data: Vec<f32> = (0..12 * 64).map(|i| (i as f32 * 0.01).sin()).collect();
        let mut cfg = SzConfig::with_error_bound(1e-3);
        cfg.chunk_planes = Some(4);
        let buf = compress(&data, crate::DataLayout::D3(12, 8, 8), &cfg).unwrap();
        let idx_owned = buf.frame_index().unwrap();
        let idx_borrowed = frame_index_of(buf.as_bytes()).unwrap();
        assert_eq!(idx_owned.entries(), idx_borrowed.entries());
        let (vo, so) = buf.decompress_planes_with_stats(3..9).unwrap();
        let (vb, sb) = decompress_planes_bytes(buf.as_bytes(), 3..9).unwrap();
        assert_eq!(vo, vb);
        assert_eq!(so, sb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, decompress, decompress_serial, SzConfig};

    fn volume(a: usize, b: usize, c: usize) -> Vec<f32> {
        (0..a * b * c)
            .map(|i| ((i % c) as f32 * 0.11).sin() + ((i / c) as f32 * 0.05).cos())
            .collect()
    }

    #[test]
    fn frame_index_covers_stream_exactly() {
        let data = volume(12, 8, 8);
        let mut cfg = SzConfig::with_error_bound(1e-3);
        cfg.chunk_planes = Some(4);
        let buf = compress(&data, DataLayout::D3(12, 8, 8), &cfg).unwrap();
        let idx = buf.frame_index().unwrap();
        assert_eq!(idx.n_planes(), 12);
        assert_eq!(idx.plane_elems(), 64);
        assert_eq!(idx.entries().len(), 3);
        // Planes and elements tile the volume; byte ranges are disjoint,
        // ordered, and end exactly at the stream end.
        let mut next_plane = 0;
        let mut next_elem = 0;
        let mut prev_end = 0;
        for e in idx.entries() {
            assert_eq!(e.planes.start, next_plane);
            assert_eq!(e.elems.start, next_elem);
            assert!(e.bytes.start >= prev_end);
            next_plane = e.planes.end;
            next_elem = e.elems.end;
            prev_end = e.bytes.end;
        }
        assert_eq!(next_plane, 12);
        assert_eq!(next_elem, data.len());
        assert_eq!(prev_end, buf.as_bytes().len());
    }

    #[test]
    fn frames_covering_selects_overlap() {
        let data = volume(12, 8, 8);
        let mut cfg = SzConfig::with_error_bound(1e-3);
        cfg.chunk_planes = Some(4);
        let buf = compress(&data, DataLayout::D3(12, 8, 8), &cfg).unwrap();
        let idx = buf.frame_index().unwrap();
        assert_eq!(idx.frames_covering(&(0..4)), 0..1);
        assert_eq!(idx.frames_covering(&(3..5)), 0..2);
        assert_eq!(idx.frames_covering(&(4..12)), 1..3);
        assert_eq!(idx.frames_covering(&(0..0)), 0..0);
        assert_eq!(idx.frames_covering(&(11..12)), 2..3);
    }

    #[test]
    fn range_decode_matches_full_decode_and_skips_other_frames() {
        let data = volume(16, 8, 8);
        let mut cfg = SzConfig::with_error_bound(1e-2);
        cfg.chunk_planes = Some(2);
        let buf = compress(&data, DataLayout::D3(16, 8, 8), &cfg).unwrap();
        let full = decompress(&buf).unwrap();
        let idx = buf.frame_index().unwrap();
        for range in [0..16, 0..2, 5..9, 15..16, 3..3] {
            let (part, stats) = buf.decompress_planes_with_stats(range.clone()).unwrap();
            assert_eq!(
                part,
                full[range.start * 64..range.end * 64],
                "range {range:?}"
            );
            // The byte counter matches the index's frame map exactly.
            let covered = idx.frames_covering(&range);
            let expect_bytes: usize = idx.entries()[covered.clone()]
                .iter()
                .map(|e| e.bytes.len())
                .sum();
            assert_eq!(stats.frames_decoded, covered.len());
            assert_eq!(stats.frame_bytes_decoded, expect_bytes);
            assert_eq!(stats.frame_bytes_total, idx.frame_bytes_total());
            if covered.len() < idx.entries().len() {
                assert!(stats.frame_bytes_decoded < stats.frame_bytes_total);
            }
        }
    }

    /// The stats the serial covering-frame loop reported at the parent
    /// of the parallel decoder, frozen: a range decode reads exactly the
    /// covering frames' bytes, however the frames are scheduled. The
    /// frames are range-coded: entropy tag 2 re-pinned the byte counts
    /// (367 B under tag 1, 374 B now — side-stream padding), the frame
    /// counts are the parent's.
    #[test]
    fn range_decode_stats_are_frozen() {
        let data = volume(16, 8, 8);
        let mut cfg = SzConfig::with_error_bound(1e-2);
        cfg.chunk_planes = Some(2);
        let buf = compress(&data, DataLayout::D3(16, 8, 8), &cfg).unwrap();
        let full = decompress(&buf).unwrap();
        // (range, frames_decoded, frame_bytes_decoded)
        let frozen: [(Range<usize>, usize, usize); 8] = [
            (0..0, 0, 0),
            (16..16, 0, 0),
            (0..2, 1, 45),
            (3..4, 1, 44),
            (1..3, 2, 89),
            (5..12, 4, 188),
            (14..16, 1, 49),
            (0..16, 8, 374),
        ];
        for (range, frames, bytes) in frozen {
            let (part, stats) = buf.decompress_planes_with_stats(range.clone()).unwrap();
            assert_eq!(part, full[range.start * 64..range.end * 64], "{range:?}");
            let want = RangeDecodeStats {
                frames_total: 8,
                frames_decoded: frames,
                frame_bytes_total: 374,
                frame_bytes_decoded: bytes,
            };
            assert_eq!(stats, want, "{range:?}");
        }
    }

    /// Two covering frames are corrupt in different ways: whichever
    /// piece of the region finishes first, the error reported is the
    /// earlier frame's.
    #[test]
    fn first_error_in_frame_order_wins() {
        let data = volume(16, 8, 8);
        let mut cfg = SzConfig::with_error_bound(1e-2);
        cfg.chunk_planes = Some(2);
        let buf = compress(&data, DataLayout::D3(16, 8, 8), &cfg).unwrap();
        let idx = buf.frame_index().unwrap();
        let mut evil = buf.as_bytes().to_vec();
        // Frame 1: an entropy tag that does not exist. Frame 6: an
        // outlier count beyond the frame (tag kept valid).
        evil[idx.entries()[1].bytes.start] = 0x7f;
        evil[idx.entries()[6].bytes.start + 1] = 0x7f;
        let msg = |r: Range<usize>| match decompress_planes_bytes(&evil, r) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("corrupt frames decoded"),
        };
        let first = msg(2..4); // frame 1 alone
        let later = msg(12..14); // frame 6 alone
        assert_ne!(first, later);
        for _ in 0..50 {
            assert_eq!(msg(0..16), first);
            assert_eq!(msg(2..14), first);
        }
        // Ranges that avoid both corrupt frames still decode.
        assert!(decompress_planes_bytes(&evil, 4..12).is_ok());
    }

    /// Every covering frame is parsed before any decodes, so the error
    /// order must hold across the two phases too: a frame that parses
    /// but fails to decode (range bytes read as rANS) before one that
    /// does not parse (an unknown tag), and the other way round.
    #[test]
    fn first_error_in_frame_order_wins_across_parse_and_decode() {
        let data = volume(16, 8, 8);
        let mut cfg = SzConfig::with_error_bound(1e-2);
        cfg.chunk_planes = Some(2);
        let buf = compress(&data, DataLayout::D3(16, 8, 8), &cfg).unwrap();
        let idx = buf.frame_index().unwrap();
        let msg = |evil: &[u8], r: Range<usize>| match decompress_planes_bytes(evil, r) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("corrupt frames decoded"),
        };
        for (first_tag, later_tag) in [(3u8, 0x7f), (0x7f, 3)] {
            let mut evil = buf.as_bytes().to_vec();
            evil[idx.entries()[1].bytes.start] = first_tag;
            evil[idx.entries()[6].bytes.start] = later_tag;
            let first = msg(&evil, 2..4);
            assert_ne!(first, msg(&evil, 12..14));
            assert_eq!(msg(&evil, 0..16), first);
            assert_eq!(msg(&evil, 3..13), first);
            assert_eq!(
                decompress_serial(&CompressedBuffer::from_bytes(evil).unwrap())
                    .unwrap_err()
                    .to_string(),
                first
            );
        }
    }

    /// A plane window decodes to the same slice of a whole decode for
    /// every window, serial and parallel, on streams whose last frame is
    /// partial: fewer planes than the others (`D3`), and a partial last
    /// plane (`D1`).
    #[test]
    fn every_window_matches_the_whole_decode() {
        let n = 4096 * 4 + 100;
        let d1: Vec<f32> = (0..n).map(|i| (i as f32 * 0.003).cos()).collect();
        let d3 = volume(11, 8, 8);
        for (data, layout, chunk_planes) in [
            (d3, DataLayout::D3(11, 8, 8), 3),
            (d1, DataLayout::D1(n), 2),
        ] {
            let mut cfg = SzConfig::with_error_bound(1e-3);
            cfg.chunk_planes = Some(chunk_planes);
            let buf = compress(&data, layout, &cfg).unwrap();
            let bytes = buf.as_bytes();
            let full = decompress(&buf).unwrap();
            let np = layout.plane_count();
            let pe = layout.plane_elems();
            for a in 0..=np {
                for b in a..=np {
                    let want = &full[(a * pe).min(full.len())..(b * pe).min(full.len())];
                    for parallel in [false, true] {
                        let (got, _) = decode(bytes, Some(a..b), parallel).unwrap();
                        assert_eq!(got, want, "{layout:?} {a}..{b} parallel {parallel}");
                    }
                }
            }
        }
    }

    #[test]
    fn d1_partial_final_plane() {
        let n = 4096 * 2 + 100;
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.003).cos()).collect();
        let mut cfg = SzConfig::with_error_bound(1e-3);
        cfg.chunk_planes = Some(1); // one 4096-element plane per frame
        let buf = compress(&data, DataLayout::D1(n), &cfg).unwrap();
        let idx = buf.frame_index().unwrap();
        assert_eq!(idx.n_planes(), 3);
        let full = decompress(&buf).unwrap();
        let tail = buf.decompress_planes(2..3).unwrap();
        assert_eq!(tail.len(), 100);
        assert_eq!(tail, full[4096 * 2..]);
        let mid = buf.decompress_planes(1..2).unwrap();
        assert_eq!(mid, full[4096..4096 * 2]);
    }

    #[test]
    fn d1_empty_range_at_partial_tail_plane() {
        // n_planes..n_planes on a stream whose last D1 plane is partial:
        // start*4096 exceeds n, which must clamp to an empty result, not
        // underflow.
        let n = 4096 + 100;
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.002).sin()).collect();
        let buf = compress(&data, DataLayout::D1(n), &SzConfig::with_error_bound(1e-3)).unwrap();
        let idx = buf.frame_index().unwrap();
        assert_eq!(idx.n_planes(), 2);
        assert_eq!(buf.decompress_planes(2..2).unwrap(), Vec::<f32>::new());
        assert!(buf.decompress_planes(2..3).is_err());
    }

    #[test]
    fn out_of_bounds_range_rejected() {
        let data = volume(4, 8, 8);
        let buf = compress(
            &data,
            DataLayout::D3(4, 8, 8),
            &SzConfig::with_error_bound(1e-3),
        )
        .unwrap();
        assert!(buf.decompress_planes(0..5).is_err());
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 3..1;
        assert!(buf.decompress_planes(reversed).is_err());
        assert_eq!(buf.decompress_planes(4..4).unwrap(), Vec::<f32>::new());
    }

    #[test]
    fn retired_z1_stream_has_no_index_and_no_plane_decode() {
        // The format-1 stream of codec::tests (sin ramp, D2(4, 6), eb 1e-2).
        const RETIRED_Z1: &[u8] = &[
            0x5a, 0x31, 0x18, 0x0a, 0xd7, 0x23, 0x3c, 0x02, 0x02, 0x04, 0x06, 0x80, 0x80, 0x02,
            0x01, 0x00, 0x00, 0x52, 0x4f, 0xf0, 0x40, 0x18, 0x10, 0xf8, 0xff, 0x01, 0x03, 0xfa,
            0xff, 0x01, 0x03, 0x87, 0x80, 0x02, 0x03, 0xff, 0xff, 0x01, 0x04, 0x80, 0x80, 0x02,
            0x04, 0x81, 0x80, 0x02, 0x04, 0x82, 0x80, 0x02, 0x04, 0x88, 0x80, 0x02, 0x04, 0x89,
            0x80, 0x02, 0x04, 0xab, 0x80, 0x02, 0x04, 0xd7, 0xff, 0x01, 0x05, 0xf7, 0xff, 0x01,
            0x05, 0xf9, 0xff, 0x01, 0x05, 0xfb, 0xff, 0x01, 0x05, 0xfc, 0xff, 0x01, 0x05, 0xfd,
            0xff, 0x01, 0x05, 0x0c, 0x7a, 0xb4, 0x96, 0x74, 0x9e, 0x6e, 0x40, 0x00, 0xeb, 0xfe,
            0x68, 0x80,
        ];
        let bad_magic =
            |r: Result<()>| matches!(r, Err(crate::SzError::Corrupt(m)) if m == "bad magic");
        assert!(bad_magic(frame_index_of(RETIRED_Z1).map(drop)));
        assert!(bad_magic(
            decompress_planes_bytes(RETIRED_Z1, 1..3).map(drop)
        ));
        assert!(bad_magic(
            decompress_planes_bytes(RETIRED_Z1, 0..4).map(drop)
        ));
    }
}
