//! Blocking client for the serve protocol.
//!
//! One [`ServeClient`] owns one connection and issues RPCs
//! sequentially (the protocol has no request ids; concurrency comes
//! from opening more connections, which is exactly what the
//! `fig14_serve_scaling` load generator does).

use crate::frame::{self, ErrorCode, FrameError, RequestTag, DEFAULT_MAX_PAYLOAD};
use crate::tenant::TenantStats;
use crate::{decode_checked, tier_from_byte};
use ebtrain_codec::{BoundSpec, Codec, CodecRegistry, SzCodec, TaggedStream};
use ebtrain_membudget::Tier;
use ebtrain_obs::netutil::{get_u8, put_u32, put_u64};
use ebtrain_sz::DataLayout;
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::ops::Range;

/// Client-side failure: transport, framing, a server-reported error,
/// or a success response whose body does not decode.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::ErrorKind),
    /// The response failed to frame.
    Frame(FrameError),
    /// The server answered with a typed error.
    Server {
        /// The wire error code.
        code: ErrorCode,
        /// The server's UTF-8 message.
        message: String,
    },
    /// A success response whose body does not decode as the RPC's
    /// schema (protocol bug or hostile server).
    BadResponse(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(k) => write!(f, "io error: {k:?}"),
            ClientError::Frame(e) => write!(f, "framing: {e}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
            ClientError::BadResponse(what) => write!(f, "undecodable response body: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e.kind())
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> ClientError {
        ClientError::Frame(e)
    }
}

impl ClientError {
    /// The server-side error code, when this is a server rejection.
    pub fn server_code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}

/// Client result.
pub type ClientResult<T> = Result<T, ClientError>;

/// One connection to a serve daemon.
pub struct ServeClient {
    stream: TcpStream,
    max_payload: usize,
    /// Decodes the streams [`fetch`](ServeClient::fetch) receives.
    registry: CodecRegistry,
}

impl ServeClient {
    /// Connect to a daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(ServeClient {
            stream,
            max_payload: DEFAULT_MAX_PAYLOAD,
            registry: CodecRegistry::standard(),
        })
    }

    /// One request/response exchange; server error statuses become
    /// [`ClientError::Server`].
    fn call(&mut self, tag: RequestTag, tenant: u32, payload: &[u8]) -> ClientResult<Vec<u8>> {
        frame::write_request(&mut self.stream, tag, tenant, payload)?;
        self.stream.flush()?;
        let resp = frame::read_response(&mut self.stream, self.max_payload)?;
        if resp.status == 0 {
            return Ok(resp.payload);
        }
        let code = ErrorCode::from_byte(resp.status).unwrap_or(ErrorCode::Internal);
        Err(ClientError::Server {
            code,
            message: String::from_utf8_lossy(&resp.payload).into_owned(),
        })
    }

    /// Liveness no-op.
    pub fn ping(&mut self, tenant: u32) -> ClientResult<()> {
        let body = self.call(RequestTag::Ping, tenant, &[])?;
        if body.is_empty() {
            Ok(())
        } else {
            Err(ClientError::BadResponse("ping body not empty"))
        }
    }

    /// Store an already-compressed stream under `key`; returns the
    /// tier it landed in. The tenant keeps a stream smaller than its
    /// raw values as sent; `eb > 0` overrides the at-rest demotion bound
    /// of one that does not compress and is held raw.
    pub fn store_stream(
        &mut self,
        tenant: u32,
        key: u64,
        layout: DataLayout,
        eb: f32,
        stream: &TaggedStream,
    ) -> ClientResult<Tier> {
        let payload = frame::store_payload(key, layout, eb, stream.as_bytes());
        let body = self.call(RequestTag::Store, tenant, &payload)?;
        match body.as_slice() {
            [b] => tier_from_byte(*b).ok_or(ClientError::BadResponse("unknown tier byte")),
            _ => Err(ClientError::BadResponse("store body not one tier byte")),
        }
    }

    /// Compress `data` client-side (SZ at `Abs(eb)`) and store it —
    /// the compressed-transport convenience path.
    pub fn store_f32(
        &mut self,
        tenant: u32,
        key: u64,
        data: &[f32],
        layout: DataLayout,
        eb: f32,
    ) -> ClientResult<Tier> {
        let stream = SzCodec::dual_quant()
            .compress(data, layout, &BoundSpec::Abs(eb))
            .map_err(|_| ClientError::BadResponse("client-side compression failed"))?;
        self.store_stream(tenant, key, layout, eb, &stream)
    }

    /// Fetch a whole tensor as f32 values (non-destructive) in its
    /// stored form: a warm or cold entry's stream is decoded here, and
    /// its declared count checked against the layout before it decodes.
    pub fn fetch(&mut self, tenant: u32, key: u64) -> ClientResult<(Vec<f32>, DataLayout)> {
        let mut req = Vec::with_capacity(8);
        put_u64(&mut req, key);
        let mut body = self.call(RequestTag::Fetch, tenant, &req)?;
        let mut off = 0;
        let layout =
            frame::get_layout(&body, &mut off).ok_or(ClientError::BadResponse("fetch layout"))?;
        let vals = match get_u8(&body, &mut off) {
            Some(0) => frame::get_f32_body(&body, &mut off)
                .filter(|vals| vals.len() == layout.len())
                .ok_or(ClientError::BadResponse("fetch body"))?,
            Some(1) => {
                body.drain(..off);
                let (_, vals) = decode_checked(&self.registry, body, layout).map_err(|e| {
                    ClientError::BadResponse(match e.code {
                        ErrorCode::Malformed => "fetch stream's element count",
                        _ => "fetch stream decode",
                    })
                })?;
                vals
            }
            _ => return Err(ClientError::BadResponse("fetch form")),
        };
        Ok((vals, layout))
    }

    /// Fetch a leading-dimension plane range (non-destructive).
    pub fn fetch_planes(
        &mut self,
        tenant: u32,
        key: u64,
        planes: Range<usize>,
    ) -> ClientResult<Vec<f32>> {
        let mut req = Vec::with_capacity(16);
        put_u64(&mut req, key);
        // An index past u32 saturates, so the server answers `BadRange`
        // instead of serving a truncated range.
        let wire = |i: usize| u32::try_from(i).unwrap_or(u32::MAX);
        put_u32(&mut req, wire(planes.start));
        put_u32(&mut req, wire(planes.end));
        let body = self.call(RequestTag::FetchPlanes, tenant, &req)?;
        let mut off = 0;
        frame::get_f32_body(&body, &mut off).ok_or(ClientError::BadResponse("fetch_planes body"))
    }

    /// Per-tenant stats snapshot.
    pub fn stats(&mut self, tenant: u32) -> ClientResult<TenantStats> {
        let body = self.call(RequestTag::Stats, tenant, &[])?;
        TenantStats::decode(&body).ok_or(ClientError::BadResponse("stats body"))
    }

    /// Remove one entry.
    pub fn evict(&mut self, tenant: u32, key: u64) -> ClientResult<()> {
        let mut req = Vec::with_capacity(8);
        put_u64(&mut req, key);
        let body = self.call(RequestTag::Evict, tenant, &req)?;
        if body.is_empty() {
            Ok(())
        } else {
            Err(ClientError::BadResponse("evict body not empty"))
        }
    }
}
