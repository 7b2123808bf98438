//! A blocking protocol client.
//!
//! One [`Client`] wraps one TCP connection and issues framed requests
//! sequentially. It is intentionally simple — the unit of concurrency
//! is the connection, so a load generator opens many clients.

use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use warptree_core::search::{KnnParams, SearchParams};

use crate::json::{self, Json};
use crate::proto::{read_frame, write_frame, Request};

/// What a request can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, EOF mid-exchange).
    Io(io::Error),
    /// The server's bytes were not a valid protocol response.
    Protocol(String),
    /// The server answered with a typed error frame.
    Server {
        /// The wire error code (e.g. `"overloaded"`).
        code: String,
        /// The human-readable message.
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The wire code, when this is a typed server error.
    pub fn code(&self) -> Option<&str> {
        match self {
            ClientError::Server { code, .. } => Some(code),
            _ => None,
        }
    }

    /// Whether retrying the same request may succeed: `overloaded`
    /// rejections (the server asked for backoff), transport failures,
    /// and a connection torn mid-exchange. Typed application errors
    /// (`bad_request`, `corruption_detected`, …) are deterministic and
    /// never retried.
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Io(_) => true,
            ClientError::Server { code, .. } => code == "overloaded",
            ClientError::Protocol(msg) => msg.contains("connection closed"),
        }
    }
}

/// Backoff policy for [`ShardConn::request_with_retry`]: capped
/// exponential backoff with full jitter (each sleep is uniform in
/// `[0, min(base·2^attempt, max_backoff))` — jitter decorrelates a
/// thundering herd of clients all rejected by the same overload).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (so `max_retries = 3` allows
    /// up to 4 sends).
    pub max_retries: u32,
    /// Backoff cap for the first retry.
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
    /// Total budget measured from the first attempt; a retry whose
    /// backoff would overrun it fails immediately with the last error
    /// instead of sleeping past the deadline.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            deadline: None,
        }
    }
}

/// A self-contained xorshift64* step — no RNG dependency, and bench
/// threads each seed from the clock so their jitter decorrelates.
fn next_jitter(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

fn jitter_seed() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x9E37_79B9_7F4A_7C15)
        | 1 // xorshift must not start at zero
}

/// Runs `attempt` until it succeeds, fails with a non-transient error,
/// or `policy` is spent. Each retry is preceded by a sleep uniform in
/// `[0, min(base·2^attempt, max_backoff))`.
fn with_retry(
    policy: &RetryPolicy,
    mut attempt: impl FnMut() -> Result<Json, ClientError>,
) -> Result<Json, ClientError> {
    let started = Instant::now();
    let mut rng = jitter_seed();
    let mut retries: u32 = 0;
    loop {
        let err = match attempt() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() => e,
            Err(e) => return Err(e),
        };
        if retries >= policy.max_retries {
            return Err(err);
        }
        let cap = policy
            .base
            .saturating_mul(1u32 << retries.min(16))
            .min(policy.max_backoff)
            .max(Duration::from_nanos(1));
        let sleep = Duration::from_nanos(next_jitter(&mut rng) % cap.as_nanos() as u64);
        if let Some(budget) = policy.deadline {
            if started.elapsed() + sleep >= budget {
                return Err(err);
            }
        }
        std::thread::sleep(sleep);
        retries += 1;
    }
}

/// A blocking connection to a warptree server. It does not retry: a
/// caller that wants re-dials and backoff wraps the address in a
/// [`ShardConn`] instead.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client { stream })
    }

    /// Sets the per-response read timeout (`None` blocks forever).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends `body` (a JSON request object) and returns the **raw**
    /// response text — error frames included. The bench harness and
    /// byte-equivalence tests want the exact bytes.
    pub fn request_raw(&mut self, body: &str) -> Result<String, ClientError> {
        write_frame(&mut self.stream, body.as_bytes())?;
        let payload = read_frame(&mut self.stream)?
            .ok_or_else(|| ClientError::Protocol("connection closed mid-request".to_string()))?;
        String::from_utf8(payload)
            .map_err(|_| ClientError::Protocol("response is not UTF-8".to_string()))
    }

    /// Sends `body` and parses the response, converting error frames
    /// into [`ClientError::Server`].
    pub fn request(&mut self, body: &str) -> Result<Json, ClientError> {
        let text = self.request_raw(body)?;
        let v = json::parse(&text).map_err(ClientError::Protocol)?;
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(v),
            Some(false) => {
                let err = v.get("error");
                let code = err
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string();
                let message = err
                    .and_then(|e| e.get("message"))
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                Err(ClientError::Server { code, message })
            }
            None => Err(ClientError::Protocol("response missing \"ok\"".to_string())),
        }
    }

    /// ε-threshold search.
    pub fn search(
        &mut self,
        query: &[f64],
        epsilon: f64,
        window: Option<u32>,
    ) -> Result<Json, ClientError> {
        self.request(&search_request_v4(query, epsilon, window))
    }

    /// k-NN search with default expansion parameters.
    pub fn knn(&mut self, query: &[f64], k: usize) -> Result<Json, ClientError> {
        let req = Request::Knn {
            query: query.to_vec(),
            params: KnnParams::new(k),
        };
        self.request(&req.encode(None))
    }

    /// Appends sequences to the served index as one new tail segment.
    /// On `Ok` the new generation is already published — follow-up
    /// queries on any connection see the data.
    pub fn ingest(&mut self, sequences: &[Vec<f64>]) -> Result<Json, ClientError> {
        let req = Request::Ingest {
            sequences: sequences.to_vec(),
        };
        self.request(&req.encode(None))
    }

    /// ε-threshold search with an end-to-end trace: the response
    /// carries the full span tree under `"trace"`, labeled `trace_id`.
    pub fn search_traced(
        &mut self,
        query: &[f64],
        epsilon: f64,
        trace_id: &str,
    ) -> Result<Json, ClientError> {
        let req = Request::Search {
            query: query.to_vec(),
            params: SearchParams::with_epsilon(epsilon),
        };
        self.request(&req.encode(Some(trace_id)))
    }

    /// The server's slow-query ring, newest entry first.
    pub fn slowlog(&mut self) -> Result<Json, ClientError> {
        self.request(&Request::Slowlog.encode(None))
    }

    /// The Prometheus text exposition, as a JSON-escaped string under
    /// `"exposition"`.
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        self.request(&Request::Metrics.encode(None))
    }

    /// Liveness probe.
    pub fn health(&mut self) -> Result<Json, ClientError> {
        self.request(&Request::Health.encode(None))
    }

    /// Index metadata.
    pub fn info(&mut self) -> Result<Json, ClientError> {
        self.request(&Request::Info.encode(None))
    }

    /// Process metrics snapshot.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.request(&Request::Stats.encode(None))
    }

    /// Asks the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<Json, ClientError> {
        self.request(&Request::Shutdown.encode(None))
    }
}

/// A pooled, self-healing connection to one server address.
///
/// [`Client`] wraps one live TCP connection; `ShardConn` wraps an
/// *address*: the socket is dialed lazily on first use and dropped on
/// transport failure, so the next request re-dials fresh instead of
/// failing forever on a dead connection. Dial failures and torn
/// connections are tallied in [`ShardConn::conn_failures`]. This is
/// the reconnect logic the load generator and the shard coordinator
/// share.
pub struct ShardConn {
    addr: String,
    timeout: Option<Duration>,
    client: Option<Client>,
    conn_failures: u64,
}

impl ShardConn {
    /// Wraps `addr` without dialing; the first request connects.
    pub fn new(addr: impl Into<String>) -> ShardConn {
        ShardConn {
            addr: addr.into(),
            timeout: None,
            client: None,
            conn_failures: 0,
        }
    }

    /// [`ShardConn::new`] with a per-response read timeout applied to
    /// every (re)dialed connection.
    pub fn with_timeout(addr: impl Into<String>, timeout: Option<Duration>) -> ShardConn {
        let mut conn = ShardConn::new(addr);
        conn.timeout = timeout;
        conn
    }

    /// The address this connection (re)dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Dial failures plus connections lost mid-exchange so far.
    pub fn conn_failures(&self) -> u64 {
        self.conn_failures
    }

    /// Whether a (believed) live socket is currently held.
    pub fn is_connected(&self) -> bool {
        self.client.is_some()
    }

    /// Drops the current socket; the next request re-dials.
    pub fn disconnect(&mut self) {
        self.client = None;
    }

    fn ensure(&mut self) -> Result<&mut Client, ClientError> {
        if self.client.is_none() {
            match Client::connect(&self.addr) {
                Ok(mut c) => {
                    c.set_timeout(self.timeout).ok();
                    self.client = Some(c);
                }
                Err(e) => {
                    self.conn_failures += 1;
                    return Err(ClientError::Io(e));
                }
            }
        }
        Ok(self.client.as_mut().expect("dialed above"))
    }

    /// Passes `result` through; when it is a transport failure — the
    /// held socket is unusable, as opposed to a typed server error on a
    /// healthy connection — counts it and drops the socket, so the
    /// next call re-dials.
    fn checked<T>(&mut self, result: Result<T, ClientError>) -> Result<T, ClientError> {
        if result
            .as_ref()
            .is_err_and(|e| e.is_transient() && e.code().is_none())
        {
            self.conn_failures += 1;
            self.client = None;
        }
        result
    }

    /// One request attempt: dial if needed, send, and on a transport
    /// failure drop the socket (counted) so the next call re-dials. No
    /// retries — per-request accounting stays exact for load
    /// generation; use [`ShardConn::request_with_retry`] when the
    /// caller wants the policy-driven loop.
    pub fn request(&mut self, body: &str) -> Result<Json, ClientError> {
        let result = self.ensure()?.request(body);
        self.checked(result)
    }

    /// [`ShardConn::request`] returning the raw response text (error
    /// frames included), for byte-equivalence callers.
    pub fn request_raw(&mut self, body: &str) -> Result<String, ClientError> {
        let result = self.ensure()?.request_raw(body);
        self.checked(result)
    }

    /// [`ShardConn::request`] with retries on transient failures under
    /// `policy`: `overloaded` rejections back off with full jitter,
    /// transport errors re-dial (lazily, on the next attempt). Hard
    /// typed errors return immediately; the policy's deadline bounds
    /// the total time spent, sleeps included.
    pub fn request_with_retry(
        &mut self,
        body: &str,
        policy: &RetryPolicy,
    ) -> Result<Json, ClientError> {
        with_retry(policy, || self.request(body))
    }
}

pub use crate::proto::encode_query;

/// Builds a `search` request body: [`Request::encode`] of a threshold
/// search at `epsilon` within an optional warping `window`.
pub fn search_request_v4(query: &[f64], epsilon: f64, window: Option<u32>) -> String {
    let mut params = SearchParams::with_epsilon(epsilon);
    params.window = window;
    let req = Request::Search {
        query: query.to_vec(),
        params,
    };
    req.encode(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_body_round_trips_through_parse() {
        let sent = Request::Ingest {
            sequences: vec![vec![1.0, 2.5], vec![-3.0]],
        };
        let parsed = Request::parse(sent.encode(None).as_bytes(), false).unwrap();
        assert_eq!(parsed, sent);
    }

    #[test]
    fn transient_classification_drives_retries() {
        let server = |code: &str| ClientError::Server {
            code: code.to_string(),
            message: String::new(),
        };
        assert!(ClientError::Io(io::Error::other("reset")).is_transient());
        assert!(server("overloaded").is_transient());
        assert!(ClientError::Protocol("connection closed mid-request".into()).is_transient());
        // Deterministic failures must never be retried.
        assert!(!server("bad_request").is_transient());
        assert!(!server("corruption_detected").is_transient());
        assert!(!server("deadline_exceeded").is_transient());
        assert!(!ClientError::Protocol("response is not UTF-8".into()).is_transient());
    }

    #[test]
    fn jitter_stays_under_cap_and_varies() {
        let mut state = jitter_seed();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(next_jitter(&mut state) % 1000);
        }
        assert!(
            seen.len() > 10,
            "jitter should spread: {} values",
            seen.len()
        );
    }

    #[test]
    fn shard_conn_counts_dial_failures_without_sticking() {
        // Bind-then-drop to obtain a port that refuses connections.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let mut conn = ShardConn::new(&addr);
        assert!(!conn.is_connected());
        let err = conn.request("{\"op\":\"health\"}").unwrap_err();
        assert!(err.is_transient(), "dial failure must read as transient");
        assert_eq!(conn.conn_failures(), 1);
        // The failed dial leaves no socket behind; a second attempt
        // re-dials (and fails again) rather than erroring on state.
        assert!(!conn.is_connected());
        assert!(conn.request("{\"op\":\"health\"}").is_err());
        assert_eq!(conn.conn_failures(), 2);
    }

    #[test]
    fn shard_conn_redials_after_server_drops_connection() {
        use crate::proto::{read_frame, write_frame};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // A server that answers exactly one request per connection,
        // then hangs up — every follow-up request needs a re-dial.
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut s, _) = listener.accept().unwrap();
                let _ = read_frame(&mut s).unwrap();
                write_frame(&mut s, b"{\"ok\":true,\"version\":4,\"op\":\"health\"}").unwrap();
                // Connection drops here.
            }
        });
        let mut conn = ShardConn::new(&addr);
        assert!(conn.request("{\"op\":\"health\"}").is_ok());
        assert!(conn.is_connected());
        // The server closed the socket after responding; the next
        // request hits the torn connection, drops it (counted), and a
        // retry re-dials the fresh accept.
        let r = conn.request_with_retry("{\"op\":\"health\"}", &RetryPolicy::default());
        assert!(r.is_ok(), "retry should re-dial: {:?}", r.err());
        assert_eq!(conn.conn_failures(), 1);
        server.join().unwrap();
    }

    #[test]
    fn query_encoding_matches_parser() {
        let q = encode_query(&[0.1, 2.0, -3.25]);
        let parsed = json::parse(&q).unwrap();
        let vals: Vec<f64> = parsed
            .as_arr()
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap())
            .collect();
        assert_eq!(vals, vec![0.1, 2.0, -3.25]);
    }
}
