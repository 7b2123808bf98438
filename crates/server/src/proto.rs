//! Wire protocol: length-prefixed JSON frames, request parsing, and
//! response encoding.
//!
//! Every message — in both directions — is one *frame*: a 4-byte
//! little-endian `u32` byte length followed by that many bytes of UTF-8
//! JSON. Frames larger than [`MAX_FRAME`] are rejected before any
//! allocation, so a hostile length prefix cannot balloon memory.
//!
//! Requests are objects with an `"op"` discriminator:
//!
//! ```json
//! {"op":"search","query":[20.0,21.0],"epsilon":1.5,"window":4}
//! {"op":"knn","query":[20.0,21.0],"k":5}
//! {"op":"batch","queries":[[1.0],[2.0]],"epsilon":0.5}
//! {"op":"explain","query":[20.0,21.0],"epsilon":1.5}
//! {"op":"ingest","sequences":[[1.0,2.0],[3.0]]}
//! {"op":"info"}  {"op":"health"}  {"op":"stats"}  {"op":"shutdown"}
//! {"op":"slowlog"}  {"op":"metrics"}
//! ```
//!
//! Every query op also accepts an optional `"parallelism"` (worker
//! subthreads for one request, clamped server-side to the serve
//! `--threads` cap; results are byte-identical at every value),
//! `"trace":true` / `"trace_id":"…"` to request the query's span tree
//! in the response, and an optional `"backend":"tree"|"esa"` pin that
//! makes the server answer only from an index of that family (any
//! other fails with the typed `unsupported_backend` code instead of
//! silently answering from a different index family).
//!
//! There is one protocol version, [`PROTO_VERSION`]. A request's
//! integer `"version"` may be absent or equal to it; any other integer
//! fails with the typed `unsupported_version` code. Responses stamp it.
//! [`Request::encode`] renders a request in exactly the form
//! [`Request::parse_full`] reads.
//!
//! Responses always carry `"ok"` and `"version"`:
//! `{"ok":true,"version":4,"op":…,…}` on success, and on failure a
//! typed error the client can branch on:
//!
//! ```json
//! {"ok":false,"version":4,"error":{"code":"overloaded","message":"…"}}
//! ```
//!
//! The error codes ([`ErrorCode`]) are part of the contract: admission
//! control distinguishes `overloaded` (bounded queue full — retry with
//! backoff) from `deadline_exceeded` (accepted but expired in queue)
//! from `bad_request` (never retry) from `result_too_large` (answer
//! exceeds the frame cap — narrow the search) from `shutting_down`.

use std::fmt::Write as _;
use std::io::{self, Read, Write};

use warptree_core::error::CoreError;
use warptree_core::search::{BackendKind, KnnParams, Match, SearchParams, SearchStats};
use warptree_obs::json::{escape, num, write_num};
use warptree_obs::MetricsRegistry;

use crate::json::{self, Json};

/// Maximum frame payload accepted or produced: 4 MiB. Generous for the
/// workloads in the paper (a length-3000 query is 60 KB of JSON) while
/// bounding per-connection memory.
pub const MAX_FRAME: u32 = 4 << 20;

/// Writes one length-prefixed frame — prefix and payload in **one**
/// `write`. Two writes put the 4-byte prefix in a TCP segment of its
/// own, and Nagle's algorithm then holds the payload until the peer's
/// delayed ACK of that prefix (≈ 40 ms on Linux); every frame writer in
/// the repo goes through here, so none of them pays it.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF
/// at a frame boundary (the peer closed the connection); propagates
/// timeouts and mid-frame EOFs as errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    // A clean close arrives as EOF on the first length byte.
    match r.read(&mut len_buf[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(e),
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// What [`read_frame_idle_aware`] observed on the stream.
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// Clean EOF at a frame boundary — the peer closed the connection.
    Closed,
    /// The read timed out with **zero** bytes of the next frame
    /// consumed. The stream is still at a frame boundary; the caller
    /// may poll shutdown flags and retry.
    Idle,
}

/// [`read_frame`] for a reader with a read timeout (e.g. a `TcpStream`
/// with `set_read_timeout`).
///
/// `WouldBlock`/`TimedOut` before the first byte of a frame is
/// reported as [`FrameEvent::Idle`] — nothing has been consumed, so
/// the caller can safely loop. Once a frame has begun, timeouts are
/// *retried* instead of surfaced: a plain `read_exact` would discard
/// whatever partial length/payload bytes it had buffered, leaving the
/// next read to interpret mid-frame bytes as a fresh length prefix and
/// permanently desynchronizing the connection. A slow client (a gap
/// longer than the timeout inside a multi-chunk frame) is therefore
/// fine; only `stall_limit` *consecutive* zero-progress timeouts
/// mid-frame fail the read (`TimedOut`), bounding how long a dead or
/// malicious peer can pin the reader inside one frame.
pub fn read_frame_idle_aware(r: &mut impl Read, stall_limit: u32) -> io::Result<FrameEvent> {
    let mut len_buf = [0u8; 4];
    loop {
        match r.read(&mut len_buf[..1]) {
            Ok(0) => return Ok(FrameEvent::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(FrameEvent::Idle)
            }
            Err(e) => return Err(e),
        }
    }
    read_full(r, &mut len_buf[1..], stall_limit)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    read_full(r, &mut payload, stall_limit)?;
    Ok(FrameEvent::Frame(payload))
}

/// `read_exact` that survives read timeouts: tracks its own offset so
/// partially read bytes are never discarded, retrying on
/// `WouldBlock`/`TimedOut` up to `stall_limit` consecutive
/// zero-progress reads (the counter resets whenever bytes arrive).
fn read_full(r: &mut impl Read, buf: &mut [u8], stall_limit: u32) -> io::Result<()> {
    let mut off = 0;
    let mut stalls = 0u32;
    while off < buf.len() {
        match r.read(&mut buf[off..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => {
                off += n;
                stalls = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                stalls += 1;
                if stalls >= stall_limit {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no progress mid-frame for too long",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Typed protocol error codes — the shared wire vocabulary defined in
/// [`warptree_core::error::ErrorCode`], re-exported so every existing
/// `proto::ErrorCode` path keeps working. The string form
/// ([`ErrorCode::as_str`]) is the wire contract, spelled out in exactly
/// one place (the core crate).
pub use warptree_core::error::ErrorCode;

/// The one protocol version (stamped on every response): the op set
/// `search`, `knn`, `batch`, `explain`, `ingest`, `info`, `health`,
/// `stats`, `slowlog`, `metrics`, `shutdown`; a coordinator's answer
/// with a shard down carries `"partial":true` plus a `"coverage"`
/// object; query ops accept
/// `"trace":true` / `"trace_id":"…"` and a `"backend"` pin; every ok
/// query response carries `"timings":{"queue_ns":…,"service_ns":…}`
/// and, when the client asked, the span tree under `"trace"`.
pub const PROTO_VERSION: u32 = 4;

/// A request parse failure: a wire [`ErrorCode`] (`bad_request`, or
/// `unsupported_version` for a `"version"` other than
/// [`PROTO_VERSION`]) plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The typed code the error frame will carry.
    pub code: ErrorCode,
    /// The human-readable message.
    pub message: String,
}

impl From<String> for ParseError {
    fn from(message: String) -> Self {
        ParseError {
            code: ErrorCode::BadRequest,
            message,
        }
    }
}

impl From<&str> for ParseError {
    fn from(message: &str) -> Self {
        ParseError::from(message.to_string())
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// ε-threshold similarity search.
    Search {
        /// The query subsequence.
        query: Vec<f64>,
        /// Search parameters (ε, window, length bounds).
        params: SearchParams,
    },
    /// k-nearest-neighbour search via ε expansion.
    Knn {
        /// The query subsequence.
        query: Vec<f64>,
        /// k-NN parameters.
        params: KnnParams,
    },
    /// Several threshold searches answered in one response — the
    /// pipelined path that shares one metrics bundle server-side.
    Batch {
        /// The query subsequences.
        queries: Vec<Vec<f64>>,
        /// Parameters applied to every query.
        params: SearchParams,
    },
    /// A threshold search that also returns its cost counters.
    Explain {
        /// The query subsequence.
        query: Vec<f64>,
        /// Search parameters.
        params: SearchParams,
    },
    /// Index/corpus metadata.
    Info,
    /// Liveness probe.
    Health,
    /// Process metrics snapshot.
    Stats,
    /// The slow-query ring: recent traced/slow queries, newest first.
    Slowlog,
    /// The full metrics registry in Prometheus text exposition format.
    Metrics,
    /// Ask the server to drain and exit.
    Shutdown,
    /// Append sequences to the served index as a new tail segment.
    /// The commit is crash-safe and the new
    /// generation is swapped in before the response is sent, so a
    /// follow-up query on the same connection sees the ingested data.
    Ingest {
        /// The sequences to append, one value array each.
        sequences: Vec<Vec<f64>>,
    },
    /// Occupy a worker for `ms` milliseconds (test-only; parsed only
    /// when debug ops are enabled). Deterministically fills the queue
    /// for overload and deadline tests.
    DebugSleep {
        /// How long the worker sleeps.
        ms: u64,
    },
}

impl Request {
    /// `true` for ops answered inline on the connection thread —
    /// cheap, never queued, usable even when the pool is saturated
    /// (a health check that 503s under load is useless).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Request::Info
                | Request::Health
                | Request::Stats
                | Request::Slowlog
                | Request::Metrics
                | Request::Shutdown
        )
    }

    /// The op name as it appears on the wire — used for span/slowlog
    /// labeling, so a trace's `"op"` attribute matches what the client
    /// sent.
    pub fn op_label(&self) -> &'static str {
        match self {
            Request::Search { .. } => "search",
            Request::Knn { .. } => "knn",
            Request::Batch { .. } => "batch",
            Request::Explain { .. } => "explain",
            Request::Ingest { .. } => "ingest",
            Request::Info => "info",
            Request::Health => "health",
            Request::Stats => "stats",
            Request::Slowlog => "slowlog",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
            Request::DebugSleep { .. } => "debug_sleep",
        }
    }

    /// Parses a frame payload. `allow_debug` gates the test-only ops.
    pub fn parse(payload: &[u8], allow_debug: bool) -> Result<Request, ParseError> {
        Self::parse_full(payload, allow_debug).map(|(req, _)| req)
    }

    /// [`parse`](Request::parse) that also returns the request's
    /// [`TraceOpts`]. An integer `"version"` other than
    /// [`PROTO_VERSION`] fails with the typed `unsupported_version`
    /// code instead of plain `bad_request`, so clients can tell "speak
    /// the current protocol" from "malformed".
    pub fn parse_full(
        payload: &[u8],
        allow_debug: bool,
    ) -> Result<(Request, TraceOpts), ParseError> {
        let text = std::str::from_utf8(payload).map_err(|_| "frame is not UTF-8".to_string())?;
        let v = json::parse(text)?;
        match v.get("version") {
            None | Some(Json::Null) => {}
            Some(x) => {
                let version = x.as_u64().ok_or("\"version\" must be an integer")?;
                if version != PROTO_VERSION as u64 {
                    return Err(ParseError {
                        code: ErrorCode::UnsupportedVersion,
                        message: format!(
                            "protocol version {version} is not supported (this server speaks {PROTO_VERSION})"
                        ),
                    });
                }
            }
        }
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing \"op\" field")?;
        let trace = TraceOpts {
            wanted: match v.get("trace") {
                None | Some(Json::Null) => false,
                Some(x) => x.as_bool().ok_or("\"trace\" must be a boolean")?,
            },
            trace_id: match v.get("trace_id") {
                None | Some(Json::Null) => None,
                Some(x) => {
                    let id = x.as_str().ok_or("\"trace_id\" must be a string")?;
                    if id.is_empty() || id.len() > 128 {
                        return Err("\"trace_id\" must be 1..=128 bytes".into());
                    }
                    Some(id.to_string())
                }
            },
        };
        let req: Result<Request, ParseError> = match op {
            "search" => Ok(Request::Search {
                query: query_field(&v, "query")?,
                params: search_params(&v)?,
            }),
            "knn" => {
                let k = v
                    .get("k")
                    .and_then(Json::as_u64)
                    .ok_or("knn requires an integer \"k\"")? as usize;
                let mut params = KnnParams::new(k);
                if let Some(e) = v.get("initial_epsilon") {
                    params.initial_epsilon =
                        e.as_f64().ok_or("\"initial_epsilon\" must be a number")?;
                }
                if let Some(g) = v.get("growth") {
                    params.growth = g.as_f64().ok_or("\"growth\" must be a number")?;
                }
                if let Some(r) = v.get("max_rounds") {
                    params.max_rounds =
                        r.as_u64().ok_or("\"max_rounds\" must be an integer")? as usize;
                }
                if let Some(w) = opt_u32(&v, "window")? {
                    params.window = Some(w);
                }
                if let Some(overlap) = v.get("allow_overlaps") {
                    params.non_overlapping = !overlap
                        .as_bool()
                        .ok_or("\"allow_overlaps\" must be a boolean")?;
                }
                if let Some(t) = opt_u32(&v, "parallelism")? {
                    params.threads = t;
                }
                if let Some(c) = v.get("cascade") {
                    params.cascade = c.as_bool().ok_or("\"cascade\" must be a boolean")?;
                }
                params.backend = opt_backend(&v)?;
                Ok(Request::Knn {
                    query: query_field(&v, "query")?,
                    params,
                })
            }
            "batch" => {
                let arr = v
                    .get("queries")
                    .and_then(Json::as_arr)
                    .ok_or("batch requires a \"queries\" array")?;
                let mut queries = Vec::with_capacity(arr.len());
                for (i, q) in arr.iter().enumerate() {
                    let vals = q
                        .as_arr()
                        .ok_or_else(|| format!("queries[{i}] is not an array"))?;
                    queries.push(numbers(vals, &format!("queries[{i}]"))?);
                }
                Ok(Request::Batch {
                    queries,
                    params: search_params(&v)?,
                })
            }
            "explain" => Ok(Request::Explain {
                query: query_field(&v, "query")?,
                params: search_params(&v)?,
            }),
            "ingest" => {
                let arr = v
                    .get("sequences")
                    .and_then(Json::as_arr)
                    .ok_or("ingest requires a \"sequences\" array")?;
                if arr.is_empty() {
                    return Err("\"sequences\" must not be empty".into());
                }
                let mut sequences = Vec::with_capacity(arr.len());
                for (i, s) in arr.iter().enumerate() {
                    let vals = s
                        .as_arr()
                        .ok_or_else(|| format!("sequences[{i}] is not an array"))?;
                    if vals.is_empty() {
                        return Err(format!("sequences[{i}] is empty").into());
                    }
                    sequences.push(numbers(vals, &format!("sequences[{i}]"))?);
                }
                Ok(Request::Ingest { sequences })
            }
            "info" => Ok(Request::Info),
            "health" => Ok(Request::Health),
            "stats" => Ok(Request::Stats),
            "slowlog" => Ok(Request::Slowlog),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            "debug_sleep" if allow_debug => Ok(Request::DebugSleep {
                ms: v
                    .get("ms")
                    .and_then(Json::as_u64)
                    .ok_or("debug_sleep requires an integer \"ms\"")?,
            }),
            other => Err(format!("unknown op {other:?}").into()),
        };
        Ok((req?, trace))
    }

    /// Renders the request as the frame payload
    /// [`parse_full`](Request::parse_full) reads back to `self`; with
    /// `trace = Some(id)` the body also asks for the span tree under
    /// that id. Optional fields holding the parser's default are left
    /// out, so a plain search is `op`, `version`, `query`, `epsilon`.
    pub fn encode(&self, trace: Option<&str>) -> String {
        let mut out = format!(
            "{{\"op\":\"{}\",\"version\":{PROTO_VERSION}",
            self.op_label()
        );
        match self {
            Request::Search { query, params } | Request::Explain { query, params } => {
                out.push_str(&format!(",\"query\":{}", encode_query(query)));
                push_search_params(&mut out, params);
            }
            Request::Batch { queries, params } => {
                out.push_str(",\"queries\":");
                push_arrays(&mut out, queries);
                push_search_params(&mut out, params);
            }
            Request::Knn { query, params } => {
                let defaults = KnnParams::new(params.k);
                out.push_str(&format!(
                    ",\"query\":{},\"k\":{}",
                    encode_query(query),
                    params.k
                ));
                if params.initial_epsilon != defaults.initial_epsilon {
                    out.push_str(&format!(
                        ",\"initial_epsilon\":{}",
                        num(params.initial_epsilon)
                    ));
                }
                if params.growth != defaults.growth {
                    out.push_str(&format!(",\"growth\":{}", num(params.growth)));
                }
                if params.max_rounds != defaults.max_rounds {
                    out.push_str(&format!(",\"max_rounds\":{}", params.max_rounds));
                }
                if !params.non_overlapping {
                    out.push_str(",\"allow_overlaps\":true");
                }
                if let Some(w) = params.window {
                    out.push_str(&format!(",\"window\":{w}"));
                }
                push_shared_params(&mut out, params.threads, params.cascade, params.backend);
            }
            Request::Ingest { sequences } => {
                out.push_str(",\"sequences\":");
                push_arrays(&mut out, sequences);
            }
            Request::DebugSleep { ms } => out.push_str(&format!(",\"ms\":{ms}")),
            Request::Info
            | Request::Health
            | Request::Stats
            | Request::Slowlog
            | Request::Metrics
            | Request::Shutdown => {}
        }
        if let Some(id) = trace {
            out.push_str(&format!(",\"trace\":true,\"trace_id\":\"{}\"", escape(id)));
        }
        out.push('}');
        out
    }
}

/// Per-request tracing options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceOpts {
    /// The client asked for the span tree in the response
    /// (`"trace":true`). Sampled traces may be recorded server-side
    /// even when this is `false`.
    pub wanted: bool,
    /// Caller-supplied correlation id (`"trace_id"`); the server
    /// generates one when absent.
    pub trace_id: Option<String>,
}

/// Renders a query as a JSON number array.
pub fn encode_query(query: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, v) in query.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&num(*v));
    }
    out.push(']');
    out
}

/// Appends `arrays` as a JSON array of number arrays.
fn push_arrays(out: &mut String, arrays: &[Vec<f64>]) {
    out.push('[');
    for (i, a) in arrays.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&encode_query(a));
    }
    out.push(']');
}

/// Appends the fields [`search_params`] reads.
fn push_search_params(out: &mut String, p: &SearchParams) {
    out.push_str(&format!(",\"epsilon\":{}", num(p.epsilon)));
    if let Some(w) = p.window {
        out.push_str(&format!(",\"window\":{w}"));
    }
    if let Some(m) = p.max_len {
        out.push_str(&format!(",\"max_len\":{m}"));
    }
    if p.min_len != 1 {
        out.push_str(&format!(",\"min_len\":{}", p.min_len));
    }
    push_shared_params(out, p.threads, p.cascade, p.backend);
}

/// Appends the optional fields threshold and k-NN requests share.
fn push_shared_params(out: &mut String, threads: u32, cascade: bool, backend: Option<BackendKind>) {
    if threads != 1 {
        out.push_str(&format!(",\"parallelism\":{threads}"));
    }
    if !cascade {
        out.push_str(",\"cascade\":false");
    }
    if let Some(b) = backend {
        out.push_str(&format!(",\"backend\":\"{}\"", b.as_str()));
    }
}

fn numbers(arr: &[Json], what: &str) -> Result<Vec<f64>, String> {
    arr.iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("{what} holds a non-number"))
        })
        .collect()
}

fn query_field(v: &Json, key: &str) -> Result<Vec<f64>, String> {
    let arr = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing \"{key}\" array"))?;
    numbers(arr, key)
}

fn opt_u32(v: &Json, key: &str) -> Result<Option<u32>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => {
            let n = x
                .as_u64()
                .filter(|n| *n <= u32::MAX as u64)
                .ok_or_else(|| format!("\"{key}\" must be a u32"))?;
            Ok(Some(n as u32))
        }
    }
}

fn search_params(v: &Json) -> Result<SearchParams, String> {
    let epsilon = v
        .get("epsilon")
        .and_then(Json::as_f64)
        .ok_or("missing numeric \"epsilon\"")?;
    let mut params = SearchParams::with_epsilon(epsilon);
    params.window = opt_u32(v, "window")?;
    params.max_len = opt_u32(v, "max_len")?;
    if let Some(m) = opt_u32(v, "min_len")? {
        params.min_len = m;
    }
    if let Some(t) = opt_u32(v, "parallelism")? {
        params.threads = t;
    }
    if let Some(c) = v.get("cascade") {
        params.cascade = c.as_bool().ok_or("\"cascade\" must be a boolean")?;
    }
    params.backend = opt_backend(v)?;
    Ok(params)
}

/// The optional `"backend"` pin: `"tree"` or `"esa"`. Unknown names are
/// a `bad_request` (the client asked for a family this build does not
/// know, which no retry against this server can fix).
fn opt_backend(v: &Json) -> Result<Option<BackendKind>, String> {
    match v.get("backend") {
        None | Some(Json::Null) => Ok(None),
        Some(x) => {
            let s = x.as_str().ok_or("\"backend\" must be a string")?;
            BackendKind::parse(s)
                .map(Some)
                .ok_or_else(|| format!("unknown backend {s:?} (expected \"tree\" or \"esa\")"))
        }
    }
}

/// Serializes matches as a canonical JSON array: sorted by occurrence
/// `(seq, start, len)`, distances rendered with
/// [`warptree_obs::json::num`]. Canonical ordering + shared formatter
/// is what makes server responses byte-comparable to locally computed
/// answer sets.
pub fn encode_matches(matches: &[Match]) -> String {
    let mut out = String::new();
    encode_matches_into(&mut out, matches);
    out
}

/// Appends what [`encode_matches`] returns to `out`. An answer set
/// that is already in occurrence order (a merged or sorted one) is
/// encoded where it lies; only an unordered one is copied and sorted.
pub fn encode_matches_into(out: &mut String, matches: &[Match]) {
    if matches.windows(2).all(|w| w[0].occ <= w[1].occ) {
        encode_matches_ranked_into(out, matches);
    } else {
        let mut sorted: Vec<Match> = matches.to_vec();
        sorted.sort_by_key(|m| m.occ);
        encode_matches_ranked_into(out, &sorted);
    }
}

/// Serializes matches **in the order given** — for rank-ordered
/// results (k-NN returns nearest first; sorting by occurrence would
/// destroy the ranking).
pub fn encode_matches_ranked(matches: &[Match]) -> String {
    let mut out = String::new();
    encode_matches_ranked_into(&mut out, matches);
    out
}

/// Appends what [`encode_matches_ranked`] returns to `out`: the one
/// match encoder, writing every field straight into the response
/// buffer.
pub fn encode_matches_ranked_into(out: &mut String, matches: &[Match]) {
    // 59 bytes a match on the benchmark's replies; one growth, not a
    // doubling series.
    out.reserve(2 + matches.len() * 64);
    out.push('[');
    for (i, m) in matches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Writing to a `String` cannot fail.
        let _ = write!(
            out,
            "{{\"seq\":{},\"start\":{},\"len\":{},\"dist\":",
            m.occ.seq.0, m.occ.start, m.occ.len
        );
        write_num(out, m.dist);
        out.push('}');
    }
    out.push(']');
}

/// Appends the body every threshold answer shares —
/// `"generation":…,"count":…,"matches":[…]`, matches in occurrence
/// order — to `out`.
pub fn search_body_into(out: &mut String, generation: u64, matches: &[Match]) {
    body_head(out, generation, matches.len());
    encode_matches_into(out, matches);
}

/// [`search_body_into`] with the matches **in the order given** — the
/// body of a `knn` answer.
pub fn ranked_body_into(out: &mut String, generation: u64, matches: &[Match]) {
    body_head(out, generation, matches.len());
    encode_matches_ranked_into(out, matches);
}

fn body_head(out: &mut String, generation: u64, count: usize) {
    let _ = write!(
        out,
        "\"generation\":{generation},\"count\":{count},\"matches\":"
    );
}

/// Serializes funnel stats as the 16-field `"stats"` object of an
/// `explain` response — one encoder for the shard server and the
/// coordinator's merged stats, so the two are byte-comparable.
pub fn encode_stats(s: &SearchStats) -> String {
    let mut out = String::from("{");
    for (i, (name, v)) in s.fields().into_iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\"{name}\":{v}");
    }
    out.push('}');
    out
}

/// Opens a success response:
/// `{"ok":true,"version":<PROTO_VERSION>,"op":<op>` — the caller
/// appends `,"key":value` pairs and the closing `}` to the same
/// buffer, which is the one [`write_frame`] sends.
pub fn ok_open(op: &str) -> String {
    format!(
        "{{\"ok\":true,\"version\":{PROTO_VERSION},\"op\":\"{}\"",
        escape(op)
    )
}

/// Builds a success response:
/// `{"ok":true,"version":<PROTO_VERSION>,"op":<op>,<body…>}`. `body` is
/// a pre-rendered fragment of `"key":value` pairs (may be empty).
pub fn ok_response(op: &str, body: &str) -> String {
    let mut out = ok_open(op);
    if !body.is_empty() {
        out.push(',');
        out.push_str(body);
    }
    out.push('}');
    out
}

/// Builds a typed error response.
pub fn error_response(code: ErrorCode, message: &str) -> String {
    format!(
        "{{\"ok\":false,\"version\":{PROTO_VERSION},\"error\":{{\"code\":\"{}\",\"message\":\"{}\"}}}}",
        code.as_str(),
        escape(message)
    )
}

/// The `stats` response: the registry snapshot as JSON.
pub fn stats_response(registry: &MetricsRegistry) -> String {
    ok_response(
        "stats",
        &format!("\"metrics\":{}", registry.snapshot().to_json()),
    )
}

/// The `metrics` response: the registry in Prometheus text exposition
/// format, as a JSON-escaped string.
pub fn metrics_response(registry: &MetricsRegistry) -> String {
    ok_response(
        "metrics",
        &format!(
            "\"format\":\"prometheus-0.0.4\",\"exposition\":\"{}\"",
            escape(&registry.snapshot().to_prometheus())
        ),
    )
}

/// Maps a validation failure from the core search layer onto a wire
/// error via [`CoreError::code`] (every core error is the client's
/// fault, so this is always `bad_request`).
pub fn core_error_response(e: &CoreError) -> String {
    error_response(e.code(), &e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use warptree_core::sequence::{Occurrence, SeqId};

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"health\"}").unwrap();
        write_frame(&mut buf, b"second").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"op\":\"health\"}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"second");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    /// Counts `write` calls; accepts at most `cap` bytes per call.
    struct CountingWriter {
        bytes: Vec<u8>,
        calls: usize,
        cap: usize,
    }

    impl CountingWriter {
        fn taking(cap: usize) -> Self {
            CountingWriter {
                bytes: Vec::new(),
                calls: 0,
                cap,
            }
        }
    }

    impl io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.cap);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut want = (payload.len() as u32).to_le_bytes().to_vec();
        want.extend_from_slice(payload);
        want
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        // Prefix and payload in separate writes are separate TCP
        // segments, and the second waits out the peer's delayed ACK.
        for len in [0, 1, 1_228, MAX_FRAME as usize] {
            let payload = vec![b'x'; len];
            let mut w = CountingWriter::taking(usize::MAX);
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.calls, 1, "{len}-byte payload");
            assert!(w.bytes == framed(&payload), "{len}-byte payload");
        }
        // A writer that takes one byte a call still gets every byte.
        for len in [0, 1, 1_228] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut w = CountingWriter::taking(1);
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.calls, len + 4);
            assert_eq!(w.bytes, framed(&payload));
        }
        let mut w = CountingWriter::taking(usize::MAX);
        assert!(write_frame(&mut w, &vec![0u8; MAX_FRAME as usize + 1]).is_err());
        assert_eq!(w.calls, 0);
    }

    /// Hands `data` out in pieces of `chunks[i]` bytes, cycling; a
    /// chunk of 0 is a read timeout.
    struct ChunkReader {
        data: Vec<u8>,
        pos: usize,
        chunks: Vec<usize>,
        next: usize,
    }

    impl io::Read for ChunkReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let chunk = self.chunks[self.next % self.chunks.len()];
            self.next += 1;
            if chunk == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stall"));
            }
            let n = chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Drains `r` with [`read_frame_idle_aware`], skipping `Idle`.
    fn drain_idle_aware(r: &mut impl Read, stall_limit: u32) -> (Vec<Vec<u8>>, io::Result<()>) {
        let mut frames = Vec::new();
        loop {
            match read_frame_idle_aware(r, stall_limit) {
                Ok(FrameEvent::Frame(p)) => frames.push(p),
                Ok(FrameEvent::Idle) => {}
                Ok(FrameEvent::Closed) => return (frames, Ok(())),
                Err(e) => return (frames, Err(e)),
            }
        }
    }

    /// Drains `r` with [`read_frame`].
    fn drain(r: &mut impl Read) -> (Vec<Vec<u8>>, io::Result<()>) {
        let mut frames = Vec::new();
        loop {
            match read_frame(r) {
                Ok(Some(p)) => frames.push(p),
                Ok(None) => return (frames, Ok(())),
                Err(e) => return (frames, Err(e)),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever way the transport cuts the byte stream up, both
        /// readers return exactly the frames written — and the
        /// idle-aware one does so across read timeouts at any offset.
        #[test]
        fn readers_reassemble_frames_split_anywhere(
            payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..=300), 0..=4),
            chunks in prop::collection::vec(0usize..=9, 1..=12),
        ) {
            let mut data = Vec::new();
            for p in &payloads {
                write_frame(&mut data, p).unwrap();
            }
            let mut with_stalls = chunks.clone();
            with_stalls.push(1); // some read always makes progress
            let stall_limit = with_stalls.len() as u32;
            let mut r = ChunkReader { data: data.clone(), pos: 0, chunks: with_stalls, next: 0 };
            let (frames, end) = drain_idle_aware(&mut r, stall_limit);
            prop_assert!(end.is_ok(), "{:?}", end);
            prop_assert_eq!(&frames, &payloads);

            let no_stalls = chunks.iter().map(|&c| c.max(1)).collect();
            let mut r = ChunkReader { data, pos: 0, chunks: no_stalls, next: 0 };
            let (frames, end) = drain(&mut r);
            prop_assert!(end.is_ok(), "{:?}", end);
            prop_assert_eq!(&frames, &payloads);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Hostile bytes — any length word, the stream ending at every
        /// offset — never panic a reader: it ends in a clean close at a
        /// frame boundary, or in `InvalidData` (length above
        /// `MAX_FRAME`, nothing allocated) or `UnexpectedEof`
        /// (mid-frame), after returning the complete frames before it.
        #[test]
        fn readers_survive_arbitrary_bytes(
            declared in (0u8..4, 0u32..40, any::<u32>()).prop_map(|(kind, small, wild)| match kind {
                0 => small,
                1 => MAX_FRAME - small,
                2 => MAX_FRAME + 1 + small,
                _ => wild,
            }),
            tail in prop::collection::vec(any::<u8>(), 0..=48),
        ) {
            let mut bytes = declared.to_le_bytes().to_vec();
            bytes.extend_from_slice(&tail);
            for cut in 0..=bytes.len() {
                let stream = &bytes[..cut];
                let mut a = stream;
                let (frames, end) = drain(&mut a);
                let mut b = stream;
                let (frames_b, end_b) = drain_idle_aware(&mut b, 3);
                prop_assert_eq!(&frames, &frames_b);
                prop_assert_eq!(
                    end.as_ref().map_err(io::Error::kind),
                    end_b.as_ref().map_err(io::Error::kind)
                );
                // Every returned frame is a well-formed prefix of the
                // stream; what is left decides how the read ended.
                let mut rest = stream;
                for f in &frames {
                    prop_assert_eq!(&rest[..4], &(f.len() as u32).to_le_bytes()[..]);
                    prop_assert_eq!(&rest[4..4 + f.len()], &f[..]);
                    rest = &rest[4 + f.len()..];
                }
                match end {
                    Ok(()) => prop_assert!(rest.is_empty()),
                    Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                        let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
                        prop_assert!(len > MAX_FRAME);
                    }
                    Err(e) => {
                        prop_assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
                        prop_assert!(!rest.is_empty());
                    }
                }
            }
        }
    }

    /// A reader that interleaves timeouts between single-byte reads —
    /// the worst case a slow network client presents.
    struct DribbleReader {
        data: Vec<u8>,
        pos: usize,
        /// Emit a timeout before every real byte when `true`.
        stall_between: bool,
        leading_stalls: u32,
    }

    impl io::Read for DribbleReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.leading_stalls > 0 {
                self.leading_stalls -= 1;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stall"));
            }
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            if self.stall_between {
                self.leading_stalls = 1;
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn idle_aware_reader_survives_mid_frame_timeouts() {
        // One frame delivered one byte at a time with a timeout before
        // every byte: read_frame would desync; the idle-aware reader
        // must reassemble the frame, then report the clean close.
        let mut framed = Vec::new();
        write_frame(&mut framed, b"{\"op\":\"health\"}").unwrap();
        let mut r = DribbleReader {
            data: framed,
            pos: 0,
            stall_between: true,
            leading_stalls: 1,
        };
        match read_frame_idle_aware(&mut r, 10).unwrap() {
            FrameEvent::Idle => {} // first stall: zero bytes consumed
            other => panic!("expected Idle, got {other:?}"),
        }
        match read_frame_idle_aware(&mut r, 10).unwrap() {
            FrameEvent::Frame(p) => assert_eq!(p, b"{\"op\":\"health\"}"),
            other => panic!("expected Frame, got {other:?}"),
        }
        // The reader stalls once more before EOF (still a frame
        // boundary → Idle), then reports the clean close.
        match read_frame_idle_aware(&mut r, 10).unwrap() {
            FrameEvent::Idle => {}
            other => panic!("expected Idle, got {other:?}"),
        }
        match read_frame_idle_aware(&mut r, 10).unwrap() {
            FrameEvent::Closed => {}
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn idle_aware_reader_bounds_mid_frame_stalls() {
        // A peer that sends one length byte then goes silent must not
        // pin the reader forever: the consecutive-stall limit trips.
        let mut r = DribbleReader {
            data: vec![7u8],
            pos: 0,
            stall_between: false,
            leading_stalls: 0,
        };
        // After the single byte, every read hits EOF → UnexpectedEof
        // (mid-frame close), not a silent desync.
        let err = read_frame_idle_aware(&mut r, 3).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // And a pure staller (no bytes after the first) trips TimedOut.
        struct OneByteThenStall(bool);
        impl io::Read for OneByteThenStall {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if !self.0 {
                    self.0 = true;
                    buf[0] = 7;
                    return Ok(1);
                }
                Err(io::Error::new(io::ErrorKind::WouldBlock, "stall"))
            }
        }
        let err = read_frame_idle_aware(&mut OneByteThenStall(false), 3).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn parses_search_request() {
        let req = Request::parse(
            br#"{"op":"search","query":[1.0,2.0],"epsilon":0.5,"window":3,"min_len":2}"#,
            false,
        )
        .unwrap();
        match req {
            Request::Search { query, params } => {
                assert_eq!(query, vec![1.0, 2.0]);
                assert_eq!(params.epsilon, 0.5);
                assert_eq!(params.window, Some(3));
                assert_eq!(params.min_len, 2);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_knn_request_with_defaults() {
        let req = Request::parse(br#"{"op":"knn","query":[1.0],"k":3}"#, false).unwrap();
        match req {
            Request::Knn { params, .. } => {
                assert_eq!(params.k, 3);
                assert!(params.non_overlapping);
                assert_eq!(params.growth, 4.0);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_parallelism_knob() {
        let req = Request::parse(
            br#"{"op":"search","query":[1.0],"epsilon":0.5,"parallelism":4}"#,
            false,
        )
        .unwrap();
        match req {
            Request::Search { params, .. } => assert_eq!(params.threads, 4),
            other => panic!("wrong request: {other:?}"),
        }
        let req = Request::parse(
            br#"{"op":"knn","query":[1.0],"k":2,"parallelism":8}"#,
            false,
        )
        .unwrap();
        match req {
            Request::Knn { params, .. } => assert_eq!(params.threads, 8),
            other => panic!("wrong request: {other:?}"),
        }
        // Absent → sequential; non-integers are rejected.
        let req = Request::parse(br#"{"op":"search","query":[1.0],"epsilon":0.5}"#, false).unwrap();
        match req {
            Request::Search { params, .. } => assert_eq!(params.threads, 1),
            other => panic!("wrong request: {other:?}"),
        }
        assert!(Request::parse(
            br#"{"op":"search","query":[1.0],"epsilon":0.5,"parallelism":-2}"#,
            false
        )
        .is_err());
    }

    #[test]
    fn debug_ops_are_gated() {
        let frame = br#"{"op":"debug_sleep","ms":10}"#;
        assert!(Request::parse(frame, false).is_err());
        assert_eq!(
            Request::parse(frame, true).unwrap(),
            Request::DebugSleep { ms: 10 }
        );
    }

    #[test]
    fn control_ops_are_classified() {
        for (frame, control) in [
            (&br#"{"op":"health"}"#[..], true),
            (br#"{"op":"stats"}"#, true),
            (br#"{"op":"search","query":[1.0],"epsilon":1.0}"#, false),
        ] {
            assert_eq!(Request::parse(frame, false).unwrap().is_control(), control);
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            &b"not json"[..],
            br#"{"no_op":1}"#,
            br#"{"op":"teapot"}"#,
            br#"{"op":"search","query":"strings","epsilon":1.0}"#,
            br#"{"op":"search","query":[1.0]}"#,
            br#"{"op":"knn","query":[1.0]}"#,
            br#"{"op":"search","query":[1.0],"epsilon":1.0,"window":-1}"#,
            br#"{"op":"ingest"}"#,
            br#"{"op":"ingest","sequences":[]}"#,
            br#"{"op":"ingest","sequences":[[]]}"#,
            br#"{"op":"ingest","sequences":[["x"]]}"#,
        ] {
            let err = Request::parse(bad, false).expect_err("accepted a malformed frame");
            assert_eq!(err.code, ErrorCode::BadRequest, "{bad:?}");
        }
    }

    #[test]
    fn backend_pin_parses_and_is_version_gated() {
        // Pins parse into the params for every query op.
        for (frame, want) in [
            (
                &br#"{"op":"search","version":4,"query":[1.0],"epsilon":0.5,"backend":"esa"}"#[..],
                Some(BackendKind::Esa),
            ),
            (
                br#"{"op":"knn","version":4,"query":[1.0],"k":2,"backend":"tree"}"#,
                Some(BackendKind::Tree),
            ),
            (
                br#"{"op":"batch","version":4,"queries":[[1.0]],"epsilon":0.5,"backend":"esa"}"#,
                Some(BackendKind::Esa),
            ),
            (
                br#"{"op":"explain","version":4,"query":[1.0],"epsilon":0.5,"backend":"tree"}"#,
                Some(BackendKind::Tree),
            ),
            // Absent and null both mean "any backend".
            (
                br#"{"op":"search","version":4,"query":[1.0],"epsilon":0.5}"#,
                None,
            ),
            (
                br#"{"op":"search","version":4,"query":[1.0],"epsilon":0.5,"backend":null}"#,
                None,
            ),
        ] {
            let backend = match Request::parse(frame, false).unwrap() {
                Request::Search { params, .. }
                | Request::Batch { params, .. }
                | Request::Explain { params, .. } => params.backend,
                Request::Knn { params, .. } => params.backend,
                other => panic!("not a query op: {other:?}"),
            };
            assert_eq!(backend, want, "{frame:?}");
        }
        // Unknown families and non-string values are plain bad requests.
        for frame in [
            &br#"{"op":"search","version":4,"query":[1.0],"epsilon":0.5,"backend":"btree"}"#[..],
            br#"{"op":"search","version":4,"query":[1.0],"epsilon":0.5,"backend":7}"#,
        ] {
            let err = Request::parse(frame, false).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{frame:?}");
        }
        // Control ops carry no pin: they parse without query params.
        assert!(matches!(
            Request::parse(br#"{"op":"health"}"#, false).unwrap(),
            Request::Health
        ));
    }

    #[test]
    fn matches_encode_canonically() {
        let m = |s: u32, p: u32, l: u32, d: f64| Match {
            occ: Occurrence::new(SeqId(s), p, l),
            dist: d,
        };
        // Deliberately unsorted input sorts by occurrence.
        let encoded = encode_matches(&[m(1, 0, 2, 1.5), m(0, 3, 2, 0.0)]);
        assert_eq!(
            encoded,
            r#"[{"seq":0,"start":3,"len":2,"dist":0},{"seq":1,"start":0,"len":2,"dist":1.5}]"#
        );
    }

    /// The encoder this module shipped before the appending one: a
    /// copy and a sort whatever the order, two `format!` allocations a
    /// match. Kept as the oracle the appending encoder is pinned to.
    fn encode_matches_oracle(matches: &[Match], sort: bool) -> String {
        let mut ordered: Vec<Match> = matches.to_vec();
        if sort {
            ordered.sort_by_key(|m| m.occ);
        }
        let mut out = String::from("[");
        for (i, m) in ordered.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{},\"start\":{},\"len\":{},\"dist\":{}}}",
                m.occ.seq.0,
                m.occ.start,
                m.occ.len,
                num(m.dist)
            ));
        }
        out.push(']');
        out
    }

    fn assert_encoders_agree(matches: &[Match]) {
        assert_eq!(
            encode_matches(matches),
            encode_matches_oracle(matches, true)
        );
        assert_eq!(
            encode_matches_ranked(matches),
            encode_matches_oracle(matches, false)
        );
        // The appending forms leave what the buffer already holds.
        let mut out = String::from("\"matches\":");
        encode_matches_into(&mut out, matches);
        out.push('|');
        encode_matches_ranked_into(&mut out, matches);
        assert_eq!(
            out,
            format!(
                "\"matches\":{}|{}",
                encode_matches_oracle(matches, true),
                encode_matches_oracle(matches, false)
            )
        );
    }

    #[test]
    fn appending_encoder_matches_the_format_oracle() {
        let m = |s: u32, p: u32, l: u32, d: f64| Match {
            occ: Occurrence::new(SeqId(s), p, l),
            dist: d,
        };
        assert_encoders_agree(&[]);
        assert_encoders_agree(&[m(7, 0, 1, 0.0)]);
        // Sorted, with equal occurrences and equal prefixes.
        assert_encoders_agree(&[
            m(0, 3, 2, 1.25),
            m(0, 3, 2, 0.5),
            m(0, 3, 4, 1e-9),
            m(2, 0, 1, 12.0),
        ]);
        // Out of order in each key.
        assert_encoders_agree(&[m(1, 0, 2, 1.5), m(0, 3, 2, 0.0)]);
        assert_encoders_agree(&[m(1, 5, 2, 1.5), m(1, 3, 2, 0.0)]);
        assert_encoders_agree(&[m(1, 3, 4, 1.5), m(1, 3, 2, 0.0)]);
        // JSON has no NaN or infinity; both render as null.
        assert_encoders_agree(&[
            m(3, 1, 1, f64::NAN),
            m(0, 1, 1, f64::INFINITY),
            m(u32::MAX, u32::MAX, u32::MAX, f64::NEG_INFINITY),
            m(0, 0, 1, f64::MIN_POSITIVE),
            m(0, 0, 2, 1e300),
        ]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn appending_encoder_matches_the_oracle_on_any_order(
            raw in prop::collection::vec((0u32..4, 0u32..6, 1u32..4, -50.0f64..50.0), 0..=40),
            sorted in any::<bool>(),
        ) {
            let mut matches: Vec<Match> = raw
                .into_iter()
                .map(|(s, p, l, d)| Match { occ: Occurrence::new(SeqId(s), p, l), dist: d })
                .collect();
            if sorted {
                matches.sort_by_key(|m| m.occ);
            }
            assert_encoders_agree(&matches);
        }
    }

    #[test]
    fn answer_bodies_have_stable_shape() {
        let m = |s: u32, p: u32, d: f64| Match {
            occ: Occurrence::new(SeqId(s), p, 2),
            dist: d,
        };
        let matches = [m(1, 0, 0.5), m(0, 3, 1.0)];
        let mut resp = ok_open("search");
        resp.push(',');
        search_body_into(&mut resp, 9, &matches);
        resp.push('}');
        assert_eq!(
            resp,
            ok_response(
                "search",
                &format!(
                    "\"generation\":9,\"count\":2,\"matches\":{}",
                    encode_matches_oracle(&matches, true)
                )
            )
        );
        let mut resp = String::new();
        ranked_body_into(&mut resp, 9, &matches);
        assert_eq!(
            resp,
            format!(
                "\"generation\":9,\"count\":2,\"matches\":{}",
                encode_matches_oracle(&matches, false)
            )
        );
    }

    #[test]
    fn responses_have_stable_shape() {
        assert_eq!(
            ok_response("health", ""),
            r#"{"ok":true,"version":4,"op":"health"}"#
        );
        assert_eq!(
            ok_response("info", "\"sequences\":2"),
            r#"{"ok":true,"version":4,"op":"info","sequences":2}"#
        );
        let err = error_response(ErrorCode::Overloaded, "queue full");
        assert_eq!(
            err,
            r#"{"ok":false,"version":4,"error":{"code":"overloaded","message":"queue full"}}"#
        );
        let parsed = crate::json::parse(&err).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            parsed.get("version").and_then(Json::as_u64),
            Some(PROTO_VERSION as u64)
        );
    }

    #[test]
    fn version_negotiation() {
        // The one version parses, spelled out or left off.
        for frame in [
            &br#"{"op":"health"}"#[..],
            br#"{"op":"health","version":4}"#,
        ] {
            assert_eq!(Request::parse(frame, false).unwrap(), Request::Health);
        }
        // Any other integer gets the typed unsupported_version code.
        for version in [0, 1, 2, 3, 5, 99] {
            let frame = format!("{{\"op\":\"health\",\"version\":{version}}}");
            let err = Request::parse(frame.as_bytes(), false).unwrap_err();
            assert_eq!(err.code, ErrorCode::UnsupportedVersion, "{frame}");
        }
        // Malformed version values are plain bad requests.
        let err = Request::parse(br#"{"op":"health","version":"two"}"#, false).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
    }

    /// `Some(v)` about half the time.
    fn optional<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
        (any::<bool>(), inner).prop_map(|(some, v)| some.then_some(v))
    }

    fn values(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec(-1000.0f64..1000.0, len)
    }

    fn backend_pin() -> impl Strategy<Value = Option<BackendKind>> {
        optional(any::<bool>()).prop_map(|b| {
            b.map(|esa| {
                if esa {
                    BackendKind::Esa
                } else {
                    BackendKind::Tree
                }
            })
        })
    }

    fn search_params_strategy() -> impl Strategy<Value = SearchParams> {
        (
            0.0f64..50.0,
            optional(0u32..64),
            optional(1u32..500),
            1u32..6,
            0u32..9,
            (any::<bool>(), backend_pin()),
        )
            .prop_map(
                |(epsilon, window, max_len, min_len, threads, (cascade, backend))| SearchParams {
                    epsilon,
                    window,
                    max_len,
                    min_len,
                    threads,
                    cascade,
                    backend,
                },
            )
    }

    fn knn_params_strategy() -> impl Strategy<Value = KnnParams> {
        (
            (1usize..50, 0.0f64..10.0, 1.5f64..8.0, 1usize..40),
            optional(0u32..64),
            any::<bool>(),
            0u32..9,
            any::<bool>(),
            backend_pin(),
        )
            .prop_map(
                |((k, initial_epsilon, growth, max_rounds), window, overlaps, threads, c, b)| {
                    KnnParams {
                        k,
                        initial_epsilon,
                        growth,
                        max_rounds,
                        window,
                        non_overlapping: !overlaps,
                        threads,
                        cascade: c,
                        backend: b,
                    }
                },
            )
    }

    /// Every op, every optional field both present and absent.
    fn request_strategy() -> impl Strategy<Value = Request> {
        (
            0u8..12,
            values(0..=8),
            prop::collection::vec(values(1..=5), 1..=3),
            search_params_strategy(),
            knn_params_strategy(),
            any::<u64>(),
        )
            .prop_map(|(op, query, arrays, params, knn, ms)| match op {
                0 => Request::Search { query, params },
                1 => Request::Explain { query, params },
                2 => Request::Batch {
                    queries: arrays,
                    params,
                },
                3 => Request::Knn { query, params: knn },
                4 => Request::Ingest { sequences: arrays },
                5 => Request::DebugSleep { ms: ms >> 12 },
                6 => Request::Info,
                7 => Request::Health,
                8 => Request::Stats,
                9 => Request::Slowlog,
                10 => Request::Metrics,
                _ => Request::Shutdown,
            })
    }

    /// Trace ids of 1..=20 characters, drawn to need every escape the
    /// encoder knows.
    fn trace_id_strategy() -> impl Strategy<Value = Option<String>> {
        const CHARS: [char; 9] = ['a', 'Z', '7', '-', ' ', '"', '\\', '\n', 'é'];
        optional(prop::collection::vec(0usize..CHARS.len(), 1..=20))
            .prop_map(|ix| ix.map(|ix| ix.into_iter().map(|i| CHARS[i]).collect()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `encode` and `parse_full` are inverses over every op and
        /// every optional field, so a forwarded body (the coordinator's)
        /// or a built one (the client's) reaches the shard as the same
        /// request.
        #[test]
        fn encode_round_trips_through_parse_full(
            req in request_strategy(),
            trace_id in trace_id_strategy(),
        ) {
            let body = req.encode(trace_id.as_deref());
            let want = TraceOpts {
                wanted: trace_id.is_some(),
                trace_id,
            };
            prop_assert_eq!(
                Request::parse_full(body.as_bytes(), true).unwrap(),
                (req, want),
                "{}",
                body
            );
        }
    }

    /// The bytes in-repo callers depend on: defaults are left out, and
    /// a pin, a window and a trace id land where the parser reads them.
    #[test]
    fn encode_leaves_out_defaults() {
        let plain = Request::Search {
            query: vec![1.0, -2.5],
            params: SearchParams::with_epsilon(0.75),
        };
        assert_eq!(
            plain.encode(None),
            r#"{"op":"search","version":4,"query":[1,-2.5],"epsilon":0.75}"#
        );
        let pinned = Request::Search {
            query: vec![1.0],
            params: SearchParams::with_epsilon(0.5)
                .windowed(3)
                .on_backend(BackendKind::Esa),
        };
        assert_eq!(
            pinned.encode(Some("abc")),
            r#"{"op":"search","version":4,"query":[1],"epsilon":0.5,"window":3,"backend":"esa","trace":true,"trace_id":"abc"}"#
        );
        assert_eq!(
            Request::Slowlog.encode(None),
            r#"{"op":"slowlog","version":4}"#
        );
    }

    #[test]
    fn trace_opts_and_v4_ops_are_version_gated() {
        // A query with tracing: opts surface through parse_full.
        let (req, trace) = Request::parse_full(
            br#"{"op":"search","version":4,"query":[1.0],"epsilon":0.5,"trace":true,"trace_id":"abc"}"#,
            false,
        )
        .unwrap();
        assert!(matches!(req, Request::Search { .. }));
        assert_eq!(
            trace,
            TraceOpts {
                wanted: true,
                trace_id: Some("abc".to_string())
            }
        );
        // Untraced requests carry the default opts.
        let (_, trace) = Request::parse_full(br#"{"op":"health"}"#, false).unwrap();
        assert_eq!(trace, TraceOpts::default());
        // The slowlog/metrics control ops parse and are control-classified.
        for (frame, want) in [
            (&br#"{"op":"slowlog","version":4}"#[..], Request::Slowlog),
            (br#"{"op":"metrics","version":4}"#, Request::Metrics),
        ] {
            let req = Request::parse(frame, false).unwrap();
            assert_eq!(req, want);
            assert!(req.is_control());
        }
        // Malformed trace fields are plain bad requests.
        for frame in [
            &br#"{"op":"search","version":4,"query":[1.0],"epsilon":0.5,"trace":"yes"}"#[..],
            br#"{"op":"search","version":4,"query":[1.0],"epsilon":0.5,"trace_id":7}"#,
            br#"{"op":"search","version":4,"query":[1.0],"epsilon":0.5,"trace_id":""}"#,
        ] {
            let err = Request::parse(frame, false).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{frame:?}");
        }
    }

    /// JSON-ish fragments: sequences of them reach every branch of the
    /// grammar and every field check, which uniformly random bytes
    /// rarely get past the first byte to do.
    const TOKENS: [&str; 30] = [
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        "\"",
        "\\",
        "\\u",
        "00e9",
        "\"op\"",
        "\"search\"",
        "\"query\"",
        "\"epsilon\"",
        "\"version\"",
        "\"k\"",
        "\"queries\"",
        "\"trace_id\"",
        "1",
        "-",
        "2.5",
        "e",
        "1e999",
        "true",
        "nul",
        " ",
        "\n",
        "é",
        "\u{1}",
        "\u{fffd}",
    ];

    /// A frame payload, whatever its bytes, parses to a request or to a
    /// typed error — never a panic — and a request is always JSON.
    fn assert_parse_is_total(bytes: &[u8]) {
        match Request::parse(bytes, true) {
            Ok(_) => assert!(json::parse(std::str::from_utf8(bytes).unwrap()).is_ok()),
            Err(e) => {
                assert!(
                    matches!(
                        e.code,
                        ErrorCode::BadRequest | ErrorCode::UnsupportedVersion
                    ),
                    "{e:?}"
                );
                assert!(!e.message.is_empty());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parse_survives_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..=64),
            tokens in prop::collection::vec(0usize..TOKENS.len(), 0..=48),
        ) {
            assert_parse_is_total(&bytes);
            let text: String = tokens.iter().map(|&i| TOKENS[i]).collect();
            assert_parse_is_total(text.as_bytes());
        }

        /// Every prefix of a real request, and the request with one
        /// byte overwritten anywhere.
        #[test]
        fn parse_survives_truncated_and_mangled_requests(
            req in request_strategy(),
            trace_id in trace_id_strategy(),
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            let body = req.encode(trace_id.as_deref()).into_bytes();
            for cut in 0..=body.len() {
                assert_parse_is_total(&body[..cut]);
            }
            let mut mangled = body;
            let at = at % mangled.len();
            mangled[at] = byte;
            assert_parse_is_total(&mangled);
        }

        /// A nest of `[` and `{"k":` openers around a scalar parses
        /// when closed within `MAX_DEPTH`; past it the parser gives up at
        /// the first opener too many, closed or not.
        #[test]
        fn parse_stops_deep_nests_at_max_depth(
            openers in prop::collection::vec(any::<bool>(), 0..=3 * json::MAX_DEPTH),
            closed in any::<bool>(),
        ) {
            let mut text: String = openers
                .iter()
                .map(|&arr| if arr { "[" } else { "{\"k\":" })
                .collect();
            text.push('1');
            if closed {
                text.extend(openers.iter().rev().map(|&arr| if arr { ']' } else { '}' }));
            }
            let too_deep = openers.len() > json::MAX_DEPTH;
            match json::parse(&text) {
                Ok(_) => prop_assert!((closed || openers.is_empty()) && !too_deep),
                Err(m) => prop_assert_eq!(m == "nesting too deep", too_deep, "{}", m),
            }
            assert_parse_is_total(text.as_bytes());
        }
    }

    /// A megabyte of openers is refused at depth `MAX_DEPTH + 1`: the
    /// parser never recurses further, so it neither overflows the stack
    /// nor reaches the end of the input.
    #[test]
    fn nest_bombs_stop_at_max_depth() {
        for opener in ["[", "{\"k\":"] {
            let bomb = opener.repeat((1 << 20) / opener.len());
            let err = Request::parse(bomb.as_bytes(), false).unwrap_err();
            assert_eq!(err.message, "nesting too deep");
        }
    }

    /// Hostile request bodies parse, or fail, in time linear in their
    /// size, as replies do (`json`'s
    /// `parse_time_is_linear_in_the_response_size`): 1 MB in well under a
    /// second even unoptimized, at no more than 3x the time per byte of
    /// 64 KB.
    #[test]
    fn request_parse_time_is_linear_in_the_body_size() {
        // (head, unit repeated to size, tail)
        let shapes = [
            (
                r#"{"op":"batch","epsilon":1,"queries":["#,
                "[1.5,-2e3],",
                "[0]]}",
            ),
            (
                r#"{"op":"search","query":[1],"epsilon":1,"trace_id":""#,
                r#"é\"\\n"#,
                r#""}"#,
            ),
            (r#"{"op":"health","#, r#""a":[],"#, r#""b":0}"#),
            (r#"{"op":"health","#, " \n\t ", r#""b":0}"#),
        ];
        let ns_per_byte = |text: &str| {
            let t = std::time::Instant::now();
            let _ = Request::parse(text.as_bytes(), false);
            t.elapsed().as_nanos() as f64 / text.len() as f64
        };
        for (head, unit, tail) in shapes {
            let body = |bytes: usize| head.to_string() + &unit.repeat(bytes / unit.len()) + tail;
            let (small_text, big_text) = (body(64 << 10), body(1 << 20));
            // Fastest of nine each, the sizes alternating: the host's
            // speed drifts, but a slow stretch reaches both sizes and
            // the minimum does not drift.
            let (mut small, mut big) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..9 {
                small = small.min(ns_per_byte(&small_text));
                big = big.min(ns_per_byte(&big_text));
            }
            assert!(
                big * (big_text.len() as f64) < 1e9,
                "{unit:?}: 1 MB took {:.0} ms",
                big * big_text.len() as f64 / 1e6
            );
            assert!(
                big <= 3.0 * small,
                "{unit:?}: {big:.1} ns/byte at 1 MB against {small:.1} at 64 KB"
            );
        }
    }
}
