//! What the entropy seam reports to the metrics registry. One test in
//! its own binary, so no other encode runs between the two snapshots and
//! the deltas are exact.

use ebtrain_encoding::entropy::EntropyEncoder;

#[test]
fn range_frames_report_their_bytes_and_the_raw_bytes_that_bypassed_the_coder() {
    ebtrain_obs::set_metrics_enabled(true);
    let before = ebtrain_obs::snapshot();
    // Around center 0, code 8 folds to 16: length class 4, one modeled
    // mantissa bit and three raw ones. 8 such symbols and 8 hits leave
    // 24 raw bits, three side-stream bytes.
    let codes: Vec<u32> = (0..16).map(|i| if i % 2 == 0 { 8 } else { 0 }).collect();
    let mut payload = Vec::new();
    EntropyEncoder::Range { center: 0 }.encode_block(&codes, &mut payload);
    let d = ebtrain_obs::snapshot().delta_since(&before);
    assert_eq!(d.counter("encoding.entropy.range"), 1);
    assert_eq!(
        d.counter("encoding.entropy.range.bytes"),
        payload.len() as u64
    );
    assert_eq!(d.counter("encoding.entropy.range.raw_bytes"), 3);
    assert!(payload.len() > 3, "coder bytes come before the side stream");
}
