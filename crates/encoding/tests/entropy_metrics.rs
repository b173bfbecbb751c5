//! What the entropy seam reports to the metrics registry. One test in
//! its own binary, so no other encode or decode runs between the two
//! snapshots and the deltas are exact.

use ebtrain_encoding::entropy::{EntropyDecoder, EntropyEncoder};
use ebtrain_encoding::huffman;

#[test]
fn range_frames_report_their_bytes_and_the_raw_bytes_that_bypassed_the_coder() {
    ebtrain_obs::set_metrics_enabled(true);
    let before = ebtrain_obs::snapshot();
    // Around center 0, code 8 folds to 16: length class 4, one modeled
    // mantissa bit and three raw ones. 8 such symbols and 8 hits leave
    // 24 raw bits, three side-stream bytes, under either range-family tag.
    let codes: Vec<u32> = (0..16).map(|i| if i % 2 == 0 { 8 } else { 0 }).collect();
    let mut range = Vec::new();
    EntropyEncoder::Range { center: 0 }.encode_block(&codes, &mut range);
    let mut rans = Vec::new();
    EntropyEncoder::Rans { center: 0 }.encode_block(&codes, &mut rans);
    let codebook = huffman::Codebook::from_freqs(&huffman::count_freqs(&codes));
    let mut huff = Vec::new();
    EntropyEncoder::Huffman(&codebook).encode_block(&codes, &mut huff);
    let d = ebtrain_obs::snapshot().delta_since(&before);
    for (backend, payload) in [("range", &range), ("rans", &rans), ("huffman", &huff)] {
        assert_eq!(d.counter(&format!("encoding.entropy.{backend}")), 1);
        assert_eq!(
            d.counter(&format!("encoding.entropy.{backend}.bytes")),
            payload.len() as u64
        );
    }
    assert_eq!(d.counter("encoding.entropy.range.raw_bytes"), 3);
    assert_eq!(d.counter("encoding.entropy.rans.raw_bytes"), 3);
    assert!(
        range.len() > 3 && rans.len() > 3,
        "coder bytes come before the side stream"
    );

    // Decode side: frames and symbols per backend.
    let mut table = Vec::new();
    codebook.serialize(&mut table);
    let decoder = huffman::Decoder::deserialize(&table, &mut 0).unwrap();
    let before = ebtrain_obs::snapshot();
    let n = codes.len();
    EntropyDecoder::Range { center: 0 }
        .decode_block(&range, n)
        .unwrap();
    EntropyDecoder::Rans { center: 0 }
        .decode_block(&rans, n)
        .unwrap();
    EntropyDecoder::Rans { center: 0 }
        .decode_block(&rans, n)
        .unwrap();
    EntropyDecoder::Huffman(&decoder)
        .decode_block(&huff, n)
        .unwrap();
    // A frame that fails to decode is not counted.
    assert!(EntropyDecoder::Rans { center: 0 }
        .decode_block(&rans[1..], n)
        .is_err());
    let d = ebtrain_obs::snapshot().delta_since(&before);
    for (backend, frames) in [("range", 1), ("rans", 2), ("huffman", 1)] {
        assert_eq!(
            d.counter(&format!("encoding.entropy_decode.{backend}")),
            frames
        );
        assert_eq!(
            d.counter(&format!("encoding.entropy_decode.{backend}.symbols")),
            frames * n as u64
        );
    }
}
