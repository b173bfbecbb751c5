//! Wire framing of the serve protocol (DESIGN.md §10).
//!
//! Everything on the wire is a **length-prefixed frame** with a fixed
//! header; integers are big-endian, payload bodies are RPC-specific.
//!
//! ```text
//! request:   EB 5E | ver | tag    | tenant u32 | len u32 | payload[len]
//! response:  EB 5E | ver | status | len u32 | payload[len]
//! ```
//!
//! `status` is `0` for success, else an [`ErrorCode`]; an error
//! response's payload is a UTF-8 message. The declared `len` is
//! validated against the connection's payload ceiling **before** any
//! allocation, so a hostile header cannot drive an unbounded `Vec`
//! (the `ebtrain-obs::netutil` bounded-read path both listeners share).
//!
//! Parsing is total: every byte sequence maps to `Ok` or a typed
//! [`FrameError`] — never a panic. The hardening tests feed every
//! prefix of a valid frame plus corrupted magic/version/tag bytes
//! through this module, mirroring the codec conformance suite.

use ebtrain_obs::netutil::{
    get_f32, get_u32, get_u64, get_u8, put_f32, put_u32, put_u64, read_exact_limited,
};
use ebtrain_sz::DataLayout;
use std::io::{self, Read, Write};

/// Frame magic: `0xEB 0x5E` ("EB SErve"). Distinct from the
/// `TaggedStream` container magic (`0xEB 0xC0`), so a tensor stream
/// accidentally sent where a frame belongs is rejected at byte 1.
pub const MAGIC: [u8; 2] = [0xEB, 0x5E];

/// Protocol version this build speaks. Versioning rule (DESIGN.md
/// §10): bump only for changes an old parser would misread; adding a
/// request tag is *not* a version bump (old servers answer
/// `UnknownTag`), changing the header layout is.
pub const VERSION: u8 = 1;

/// Request header size: magic + version + tag + tenant + length.
pub const REQUEST_HEADER_LEN: usize = 12;

/// Response header size: magic + version + status + length.
pub const RESPONSE_HEADER_LEN: usize = 8;

/// Default per-frame payload ceiling (64 MiB).
pub const DEFAULT_MAX_PAYLOAD: usize = 64 << 20;

/// RPC selector carried in a request frame's tag byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestTag {
    /// Store one tensor: `key u64 | layout | eb f32 | TaggedStream`.
    Store = 1,
    /// Fetch a stored tensor: `key u64`; non-destructive. Body
    /// `layout | form u8 | …`: form 0 count-prefixed f32 (hot and
    /// raw-held entries), form 1 the stream as stored (warm, cold).
    Fetch = 2,
    /// Fetch a leading-dimension plane range: `key u64 | start u32 |
    /// end u32`. Non-destructive; frame-indexed codecs decode only the
    /// covering frames server-side.
    FetchPlanes = 3,
    /// Per-tenant stats snapshot (empty payload).
    Stats = 4,
    /// Remove one entry: `key u64`.
    Evict = 5,
    /// Liveness no-op (empty payload).
    Ping = 6,
}

impl RequestTag {
    /// Decode a tag byte; `None` for unassigned values (the server
    /// answers those with [`ErrorCode::UnknownTag`], not a hangup).
    pub fn from_byte(b: u8) -> Option<RequestTag> {
        match b {
            1 => Some(RequestTag::Store),
            2 => Some(RequestTag::Fetch),
            3 => Some(RequestTag::FetchPlanes),
            4 => Some(RequestTag::Stats),
            5 => Some(RequestTag::Evict),
            6 => Some(RequestTag::Ping),
            _ => None,
        }
    }

    /// The RPC's span / metric name (`serve.<rpc>`).
    pub fn span_name(&self) -> &'static str {
        match self {
            RequestTag::Store => "serve.store",
            RequestTag::Fetch => "serve.fetch",
            RequestTag::FetchPlanes => "serve.fetch_planes",
            RequestTag::Stats => "serve.stats",
            RequestTag::Evict => "serve.evict",
            RequestTag::Ping => "serve.ping",
        }
    }
}

/// Typed failure codes carried in a response frame's status byte.
/// Codes are wire format — never renumber a released code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Payload bytes do not decode as the tag's schema.
    Malformed = 1,
    /// Version byte the server does not speak.
    Version = 2,
    /// Unassigned request tag.
    UnknownTag = 3,
    /// Declared payload length exceeds the server's ceiling.
    TooLarge = 4,
    /// Admission control: in-flight queue depth at its ceiling; retry.
    Busy = 5,
    /// Admission control: the store would exceed a byte budget
    /// (tenant or global). Nothing was stored.
    OverBudget = 6,
    /// No entry under that key.
    Missing = 7,
    /// The entry was evicted under memory pressure; re-store it.
    Dropped = 8,
    /// The tensor stream failed to parse or decode.
    Codec = 9,
    /// Plane range out of bounds.
    BadRange = 10,
    /// The server-side handler failed unexpectedly (panic isolated to
    /// the one request).
    Internal = 11,
}

impl ErrorCode {
    /// Decode a status byte (`0` is success, not an error code).
    pub fn from_byte(b: u8) -> Option<ErrorCode> {
        match b {
            1 => Some(ErrorCode::Malformed),
            2 => Some(ErrorCode::Version),
            3 => Some(ErrorCode::UnknownTag),
            4 => Some(ErrorCode::TooLarge),
            5 => Some(ErrorCode::Busy),
            6 => Some(ErrorCode::OverBudget),
            7 => Some(ErrorCode::Missing),
            8 => Some(ErrorCode::Dropped),
            9 => Some(ErrorCode::Codec),
            10 => Some(ErrorCode::BadRange),
            11 => Some(ErrorCode::Internal),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::Version => "version",
            ErrorCode::UnknownTag => "unknown-tag",
            ErrorCode::TooLarge => "too-large",
            ErrorCode::Busy => "busy",
            ErrorCode::OverBudget => "over-budget",
            ErrorCode::Missing => "missing",
            ErrorCode::Dropped => "dropped",
            ErrorCode::Codec => "codec",
            ErrorCode::BadRange => "bad-range",
            ErrorCode::Internal => "internal",
        };
        write!(f, "{name}")
    }
}

/// Typed framing failure — the total-parse guarantee: any byte
/// sequence yields one of these or a valid frame, never a panic and
/// never an allocation beyond the declared (validated) length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Underlying transport failure.
    Io(io::ErrorKind),
    /// The peer closed mid-frame (any proper prefix of a frame).
    Truncated,
    /// First two bytes are not the serve magic.
    BadMagic([u8; 2]),
    /// Version byte this parser does not speak.
    BadVersion(u8),
    /// Declared payload length exceeds the ceiling.
    TooLarge {
        /// Length the header declared.
        declared: usize,
        /// The enforced ceiling.
        max: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(k) => write!(f, "io error: {k:?}"),
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02X?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::TooLarge { declared, max } => {
                write!(f, "declared payload {declared} exceeds limit {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

fn io_err(e: io::Error) -> FrameError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        FrameError::Truncated
    } else {
        FrameError::Io(e.kind())
    }
}

/// One parsed request frame. The tag byte is kept raw so dispatch can
/// answer unassigned values with a typed error instead of a hangup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestFrame {
    /// Raw tag byte (see [`RequestTag::from_byte`]).
    pub tag: u8,
    /// Tenant the request acts on.
    pub tenant: u32,
    /// RPC-specific body.
    pub payload: Vec<u8>,
}

/// One parsed response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseFrame {
    /// `0` = success, else an [`ErrorCode`] byte.
    pub status: u8,
    /// RPC-specific body (UTF-8 message for errors).
    pub payload: Vec<u8>,
}

/// Read one request frame. `Ok(None)` on a clean EOF at a frame
/// boundary (session over); [`FrameError::Truncated`] when the peer
/// dies mid-frame.
pub fn read_request(
    r: &mut impl Read,
    max_payload: usize,
) -> Result<Option<RequestFrame>, FrameError> {
    let mut header = [0u8; REQUEST_HEADER_LEN];
    // First byte separately: EOF here is a clean session end, EOF any
    // later is a truncation.
    match r.read(&mut header[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(io_err(e)),
    }
    r.read_exact(&mut header[1..]).map_err(io_err)?;
    if header[0..2] != MAGIC {
        return Err(FrameError::BadMagic([header[0], header[1]]));
    }
    if header[2] != VERSION {
        return Err(FrameError::BadVersion(header[2]));
    }
    let tag = header[3];
    let mut off = 4;
    let tenant = get_u32(&header, &mut off).expect("fixed header");
    let len = get_u32(&header, &mut off).expect("fixed header") as usize;
    if len > max_payload {
        return Err(FrameError::TooLarge {
            declared: len,
            max: max_payload,
        });
    }
    let payload = read_exact_limited(r, len, max_payload).map_err(io_err)?;
    Ok(Some(RequestFrame {
        tag,
        tenant,
        payload,
    }))
}

/// A payload length as the u32 the length field carries. Errors rather
/// than truncates: a silently wrapped length desyncs the stream — the
/// peer reads the wrong byte count and every later frame misparses.
fn payload_len_u32(len: usize) -> io::Result<u32> {
    u32::try_from(len).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("payload of {len} bytes exceeds the u32 frame length field"),
        )
    })
}

/// Write one request frame.
pub fn write_request(
    w: &mut impl Write,
    tag: RequestTag,
    tenant: u32,
    payload: &[u8],
) -> io::Result<()> {
    let len = payload_len_u32(payload.len())?;
    let mut buf = Vec::with_capacity(REQUEST_HEADER_LEN + payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(tag as u8);
    put_u32(&mut buf, tenant);
    put_u32(&mut buf, len);
    buf.extend_from_slice(payload);
    w.write_all(&buf)
}

/// Read one response frame (same total-parse guarantees as
/// [`read_request`]; a response truncation is always an error — the
/// client asked a question).
pub fn read_response(r: &mut impl Read, max_payload: usize) -> Result<ResponseFrame, FrameError> {
    let mut header = [0u8; RESPONSE_HEADER_LEN];
    r.read_exact(&mut header).map_err(io_err)?;
    if header[0..2] != MAGIC {
        return Err(FrameError::BadMagic([header[0], header[1]]));
    }
    if header[2] != VERSION {
        return Err(FrameError::BadVersion(header[2]));
    }
    let status = header[3];
    let mut off = 4;
    let len = get_u32(&header, &mut off).expect("fixed header") as usize;
    if len > max_payload {
        return Err(FrameError::TooLarge {
            declared: len,
            max: max_payload,
        });
    }
    let payload = read_exact_limited(r, len, max_payload).map_err(io_err)?;
    Ok(ResponseFrame { status, payload })
}

/// Write one response frame (`status` 0 = success).
pub fn write_response(w: &mut impl Write, status: u8, payload: &[u8]) -> io::Result<()> {
    let len = payload_len_u32(payload.len())?;
    let mut buf = Vec::with_capacity(RESPONSE_HEADER_LEN + payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(status);
    put_u32(&mut buf, len);
    buf.extend_from_slice(payload);
    w.write_all(&buf)
}

/// Encode a [`DataLayout`] (kind byte + three u32 dims, unused = 0).
pub fn put_layout(out: &mut Vec<u8>, layout: DataLayout) {
    let (kind, d) = match layout {
        DataLayout::D1(n) => (1u8, [n as u32, 0, 0]),
        DataLayout::D2(h, w) => (2, [h as u32, w as u32, 0]),
        DataLayout::D3(a, b, c) => (3, [a as u32, b as u32, c as u32]),
    };
    out.push(kind);
    for v in d {
        put_u32(out, v);
    }
}

/// Decode a [`DataLayout`]; `None` on underrun, an unassigned kind
/// byte, or dims whose product overflows (the untrusted-stream guard).
pub fn get_layout(buf: &[u8], off: &mut usize) -> Option<DataLayout> {
    let kind = get_u8(buf, off)?;
    let d0 = get_u32(buf, off)? as usize;
    let d1 = get_u32(buf, off)? as usize;
    let d2 = get_u32(buf, off)? as usize;
    let layout = match kind {
        1 => DataLayout::D1(d0),
        2 => DataLayout::D2(d0, d1),
        3 => DataLayout::D3(d0, d1, d2),
        _ => return None,
    };
    layout.checked_len()?;
    Some(layout)
}

/// Encode f32 values as a count-prefixed little-endian body (tensor
/// payloads are LE like the codec streams; frame *headers* are BE).
pub fn put_f32_body(out: &mut Vec<u8>, vals: &[f32]) {
    put_u32(out, vals.len() as u32);
    out.reserve(vals.len() * 4);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decode a count-prefixed little-endian f32 body; `None` when the
/// count disagrees with the remaining bytes.
pub fn get_f32_body(buf: &[u8], off: &mut usize) -> Option<Vec<f32>> {
    let n = get_u32(buf, off)? as usize;
    let bytes = buf.get(*off..)?;
    if bytes.len() != n.checked_mul(4)? {
        return None;
    }
    *off += n * 4;
    Some(
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect(),
    )
}

/// Compose a store body (`key | layout | eb | stream bytes`) — used by
/// both the client and the hardening tests so each side speaks the
/// schema through one path.
pub fn store_payload(key: u64, layout: DataLayout, eb: f32, stream: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(25 + stream.len());
    put_u64(&mut out, key);
    put_layout(&mut out, layout);
    put_f32(&mut out, eb);
    out.extend_from_slice(stream);
    out
}

/// Parse a store body: key, layout, at-rest bound (0 = tenant
/// default), and the raw `TaggedStream` bytes.
pub fn parse_store_payload(payload: &[u8]) -> Option<(u64, DataLayout, f32, &[u8])> {
    let mut off = 0;
    let key = get_u64(payload, &mut off)?;
    let layout = get_layout(payload, &mut off)?;
    let eb = get_f32(payload, &mut off)?;
    Some((key, layout, eb, payload.get(off..)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_request_bytes() -> Vec<u8> {
        let mut out = Vec::new();
        write_request(&mut out, RequestTag::Store, 7, &[1, 2, 3, 4, 5]).unwrap();
        out
    }

    #[test]
    fn payload_len_guard_rejects_past_u32() {
        assert_eq!(payload_len_u32(0).unwrap(), 0);
        assert_eq!(payload_len_u32(u32::MAX as usize).unwrap(), u32::MAX);
        // One past the field's range must error, not wrap to 0 and
        // desync the stream.
        let err = payload_len_u32(u32::MAX as usize + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn request_roundtrip() {
        let bytes = valid_request_bytes();
        let mut r = &bytes[..];
        let f = read_request(&mut r, DEFAULT_MAX_PAYLOAD).unwrap().unwrap();
        assert_eq!(f.tag, RequestTag::Store as u8);
        assert_eq!(f.tenant, 7);
        assert_eq!(f.payload, vec![1, 2, 3, 4, 5]);
        // Clean EOF at the frame boundary.
        assert_eq!(read_request(&mut r, DEFAULT_MAX_PAYLOAD).unwrap(), None);
    }

    #[test]
    fn response_roundtrip() {
        let mut out = Vec::new();
        write_response(&mut out, 0, b"ok-body").unwrap();
        let f = read_response(&mut &out[..], DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(f.status, 0);
        assert_eq!(f.payload, b"ok-body");
    }

    #[test]
    fn every_prefix_of_a_valid_request_is_truncated_or_eof() {
        let bytes = valid_request_bytes();
        for cut in 0..bytes.len() {
            let mut r = &bytes[..cut];
            match read_request(&mut r, DEFAULT_MAX_PAYLOAD) {
                Ok(None) => assert_eq!(cut, 0, "only the empty prefix is a clean EOF"),
                Err(FrameError::Truncated) => assert!(cut > 0),
                other => panic!("prefix {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_magic_version_tag_yield_typed_errors() {
        let bytes = valid_request_bytes();
        for (pos, expect_ok_parse) in [(0usize, false), (1, false), (2, false), (3, true)] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0xFF;
            let got = read_request(&mut &bad[..], DEFAULT_MAX_PAYLOAD);
            match (pos, got) {
                (0 | 1, Err(FrameError::BadMagic(_))) => {}
                (2, Err(FrameError::BadVersion(_))) => {}
                // A corrupt tag still frames correctly — dispatch
                // rejects it with ErrorCode::UnknownTag.
                (3, Ok(Some(f))) => {
                    assert!(expect_ok_parse);
                    assert_eq!(RequestTag::from_byte(f.tag), None);
                }
                (p, got) => panic!("byte {p}: unexpected {got:?}"),
            }
        }
    }

    #[test]
    fn over_length_declared_payload_is_rejected_before_allocation() {
        // Header declares u32::MAX payload bytes; parser must reject on
        // the declared length alone (no allocation, no read attempt).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(RequestTag::Ping as u8);
        put_u32(&mut bytes, 0); // tenant
        put_u32(&mut bytes, u32::MAX); // declared length
        match read_request(&mut &bytes[..], DEFAULT_MAX_PAYLOAD) {
            Err(FrameError::TooLarge { declared, max }) => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(max, DEFAULT_MAX_PAYLOAD);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Same guard on the response path.
        let mut resp = Vec::new();
        resp.extend_from_slice(&MAGIC);
        resp.push(VERSION);
        resp.push(0);
        put_u32(&mut resp, u32::MAX);
        assert!(matches!(
            read_response(&mut &resp[..], DEFAULT_MAX_PAYLOAD),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn layout_and_f32_bodies_roundtrip_and_reject_junk() {
        for layout in [
            DataLayout::D1(5000),
            DataLayout::D2(32, 48),
            DataLayout::D3(4, 8, 8),
        ] {
            let mut buf = Vec::new();
            put_layout(&mut buf, layout);
            let mut off = 0;
            assert_eq!(get_layout(&buf, &mut off), Some(layout));
            assert_eq!(off, buf.len());
        }
        // Unassigned kind byte and overflowing dims are both rejected.
        let mut bad_kind = vec![9u8];
        bad_kind.extend_from_slice(&[0; 12]);
        assert_eq!(get_layout(&bad_kind, &mut 0), None);
        let mut overflow = vec![3u8];
        for _ in 0..3 {
            put_u32(&mut overflow, u32::MAX);
        }
        assert_eq!(get_layout(&overflow, &mut 0), None);

        let vals = [1.0f32, -2.5, 0.0, f32::MAX];
        let mut buf = Vec::new();
        put_f32_body(&mut buf, &vals);
        let mut off = 0;
        assert_eq!(get_f32_body(&buf, &mut off).as_deref(), Some(&vals[..]));
        // Count disagreeing with the body length is rejected.
        buf.pop();
        assert_eq!(get_f32_body(&buf, &mut 0), None);
    }

    #[test]
    fn store_payload_roundtrip() {
        let body = store_payload(42, DataLayout::D2(8, 16), 1e-3, &[0xEB, 0xC0, 1, 9]);
        let (key, layout, eb, stream) = parse_store_payload(&body).unwrap();
        assert_eq!(key, 42);
        assert_eq!(layout, DataLayout::D2(8, 16));
        assert_eq!(eb, 1e-3);
        assert_eq!(stream, &[0xEB, 0xC0, 1, 9]);
        // Any truncation of the fixed part is a clean None.
        for cut in 0..21 {
            assert_eq!(parse_store_payload(&body[..cut]), None, "cut {cut}");
        }
    }

    #[test]
    fn tag_and_error_code_bytes_are_stable() {
        for (tag, b) in [
            (RequestTag::Store, 1u8),
            (RequestTag::Fetch, 2),
            (RequestTag::FetchPlanes, 3),
            (RequestTag::Stats, 4),
            (RequestTag::Evict, 5),
            (RequestTag::Ping, 6),
        ] {
            assert_eq!(tag as u8, b);
            assert_eq!(RequestTag::from_byte(b), Some(tag));
        }
        assert_eq!(RequestTag::from_byte(0), None);
        for b in 1u8..=11 {
            assert_eq!(ErrorCode::from_byte(b).unwrap() as u8, b);
        }
        assert_eq!(ErrorCode::from_byte(0), None);
        assert_eq!(ErrorCode::from_byte(200), None);
    }
}
