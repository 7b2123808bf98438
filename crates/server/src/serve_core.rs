//! The one serving loop, under both the shard server and the
//! coordinator: everything between `TcpListener::bind` and a request's
//! bytes going back on the socket.
//!
//! ## Threading model
//!
//! One non-blocking accept loop; one thread per connection, capped at
//! `max_conns` (a connection beyond the cap gets a typed `overloaded`
//! frame and is closed without a thread). A connection thread reads a
//! frame, parses it, and splits on [`Request::is_control`]: control ops
//! answer inline, so `health` and `stats` keep responding whatever the
//! query path is doing; query ops get a trace decision (the client
//! asked, or the 1-in-N sampler picked the request) and go to
//! [`Handler::query`]. On the way back the loop splices
//! `"timings"` (and the span tree, when the client asked) into ok
//! responses, offers the request to the slow-query ring, swaps an
//! over-long response for `result_too_large`, and writes the frame.
//!
//! What differs between the two front ends is the [`Handler`]: the
//! shard server's runs query work right here on the connection thread
//! once its admission gate lets it in, the coordinator's scatters over
//! its per-connection shard sockets.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use warptree_obs::{json as obs_json, MetricsRegistry, Trace};

use crate::proto::{
    self, error_response, ok_response, read_frame_idle_aware, write_frame, ErrorCode, FrameEvent,
    Request,
};

/// What a front end plugs into the serving loop.
pub trait Handler: Send + Sync + 'static {
    /// Per-connection state, built on the connection's own thread and
    /// never shared: the coordinator's private shard sockets, `()` for
    /// the shard server.
    type Conn;

    /// Prefix of every metric, thread and minted trace id of this
    /// front end (`server`, `coord`).
    const PREFIX: &'static str;

    /// Whether the test-only ops (`debug_sleep`) parse.
    fn allow_debug(&self) -> bool {
        false
    }

    /// Builds the state of a freshly accepted connection.
    fn connect(&self) -> Self::Conn;

    /// The generation a slow-query ring entry is stamped with.
    fn generation(&self) -> u64;

    /// Answers `health`, `info`, `stats` or `metrics` inline on the
    /// connection thread (`slowlog` and `shutdown` are the loop's own).
    fn control(&self, req: &Request) -> String;

    /// Answers one query op. `started` is when the frame was read;
    /// the second value is how long the request waited before work
    /// began on it (`0` where there is no queue), which the loop
    /// reports as `queue_ns` and takes off the total for `service_ns`.
    fn query(
        &self,
        conn: &mut Self::Conn,
        req: Request,
        trace: &Trace,
        started: Instant,
    ) -> (String, u64);
}

/// One completed request (or background job) captured by the
/// slow-query ring: identity, where the time went, and — when it was
/// traced — the full span tree.
struct SlowEntry {
    op: &'static str,
    trace_id: String,
    unix_ms: u64,
    generation: u64,
    /// Total latency: queue wait + service.
    dur_ns: u64,
    queue_ns: u64,
    /// The serialized span tree, when the request was traced.
    trace_json: Option<String>,
}

/// The bounded in-memory slow-query ring behind `{"op":"slowlog"}`,
/// shared by the request path and a front end's background jobs. Push
/// is O(1) under one short-held lock; rendering is newest-first. It
/// also owns the tracing policy: the request counter that drives
/// 1-in-N sampling and the slow-threshold test.
pub struct SlowLog {
    entries: Mutex<VecDeque<SlowEntry>>,
    capacity: usize,
    /// Threshold in ns; `u64::MAX` when threshold capture is disabled.
    slow_ns: u64,
    /// Sample every Nth request; `0` disables sampling.
    sample_every: u64,
    seen: AtomicU64,
    registry: MetricsRegistry,
    slow_queries_metric: String,
    entries_metric: String,
}

/// Traces kept in the ring are capped so a pathological span tree
/// (huge fan-out at a broad ε) cannot pin megabytes per entry; the
/// entry survives with `"trace": null`.
const SLOWLOG_MAX_TRACE_BYTES: usize = 256 * 1024;

impl SlowLog {
    /// Builds a ring holding `capacity` entries, capturing requests at
    /// or above `slow_ms` (0 disables) and sampling 1 in `trace_sample`
    /// requests (0 disables); its two metrics go under `prefix`.
    pub fn new(
        prefix: &str,
        capacity: usize,
        slow_ms: u64,
        trace_sample: u64,
        registry: MetricsRegistry,
    ) -> SlowLog {
        SlowLog {
            entries: Mutex::new(VecDeque::new()),
            capacity,
            slow_ns: match slow_ms {
                0 => u64::MAX,
                ms => ms.saturating_mul(1_000_000),
            },
            sample_every: trace_sample,
            seen: AtomicU64::new(0),
            registry,
            slow_queries_metric: format!("{prefix}.slow_queries"),
            entries_metric: format!("{prefix}.slowlog_entries"),
        }
    }

    /// Decides, per request, whether this one is traced by the 1-in-N
    /// sampler (the first request always is, so a freshly booted
    /// process with sampling on produces a trace immediately).
    pub fn sample(&self) -> bool {
        self.sample_every > 0
            && self
                .seen
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(self.sample_every)
    }

    /// The trace handle of one request or background job: active, under
    /// the id `id` yields, when the caller `wanted` it or the sampler
    /// picks it; otherwise the no-op handle, so every downstream layer
    /// pays one branch.
    pub fn trace(&self, wanted: bool, id: impl FnOnce() -> String) -> Trace {
        if wanted || self.sample() {
            Trace::active(id())
        } else {
            Trace::noop()
        }
    }

    /// Offers a completed request to the ring; it is kept when it was
    /// slow (threshold) or traced (sampled or client-requested traces
    /// are always worth keeping — they are why the ring exists).
    pub fn offer(
        &self,
        op: &'static str,
        generation: u64,
        dur_ns: u64,
        queue_ns: u64,
        trace: &Trace,
    ) {
        if dur_ns < self.slow_ns && !trace.is_active() {
            return;
        }
        let trace_json = trace
            .finish()
            .map(|data| data.to_json())
            .filter(|j| j.len() <= SLOWLOG_MAX_TRACE_BYTES);
        let entry = SlowEntry {
            op,
            trace_id: trace.id().unwrap_or_default().to_string(),
            unix_ms: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            generation,
            dur_ns,
            queue_ns,
            trace_json,
        };
        if dur_ns >= self.slow_ns {
            self.registry.counter(&self.slow_queries_metric).incr();
        }
        let mut entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        if self.capacity == 0 {
            return;
        }
        while entries.len() >= self.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
        self.registry
            .gauge(&self.entries_metric)
            .set(entries.len() as f64);
    }

    /// The `{"op":"slowlog"}` body: entries as a JSON array, newest
    /// first (the entry an operator is chasing is almost always the
    /// most recent one).
    pub fn to_json(&self) -> String {
        let entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = String::from("[");
        for (i, e) in entries.iter().rev().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"op\":\"{}\",\"trace_id\":\"{}\",\"unix_ms\":{},\"generation\":{},\"dur_ns\":{},\"queue_ns\":{},\"trace\":{}}}",
                e.op,
                obs_json::escape(&e.trace_id),
                e.unix_ms,
                e.generation,
                e.dur_ns,
                e.queue_ns,
                e.trace_json.as_deref().unwrap_or("null"),
            ));
        }
        out.push(']');
        out
    }
}

/// Trace ids for traces the process starts itself (sampled requests,
/// background jobs): unique within the process, compact, and obviously
/// synthetic (`server-…`, `coord-…`) next to client-supplied ids.
pub fn next_trace_id(prefix: &str, kind: &str) -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    format!("{prefix}-{kind}-{}", SEQ.fetch_add(1, Ordering::Relaxed))
}

/// A named background thread with a stop flag; dropping it raises the
/// flag and joins the thread. The shard server's compactor and
/// scrubber and the coordinator's health monitor are each one.
pub struct StopThread {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl StopThread {
    /// Spawns `body` on a thread called `name`; `body` must return
    /// soon after the flag it is handed turns true.
    pub fn spawn(
        name: &str,
        body: impl FnOnce(&AtomicBool) + Send + 'static,
    ) -> io::Result<StopThread> {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || body(&flag))?;
        Ok(StopThread {
            stop,
            handle: Some(handle),
        })
    }

    /// Sleeps `interval` in slices of at most 50 ms, so a stop request
    /// is noticed promptly under a long interval. Returns `false` once
    /// `stop` is set — `while StopThread::sleep(stop, interval) { … }`
    /// is a ticker.
    pub fn sleep(stop: &AtomicBool, interval: Duration) -> bool {
        let slice = interval
            .min(Duration::from_millis(50))
            .max(Duration::from_millis(1));
        let mut elapsed = Duration::ZERO;
        while elapsed < interval {
            if stop.load(Ordering::SeqCst) {
                return false;
            }
            std::thread::sleep(slice);
            elapsed += slice;
        }
        !stop.load(Ordering::SeqCst)
    }
}

impl Drop for StopThread {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// What the accept loop and every connection thread share.
struct Core<H> {
    handler: Arc<H>,
    slowlog: Arc<SlowLog>,
    registry: MetricsRegistry,
    shutdown: Arc<AtomicBool>,
    max_conns: usize,
    /// `<prefix>.request_ns`, spelled once: it is recorded per request.
    request_ns_metric: String,
}

impl<H: Handler> Core<H> {
    fn count(&self, name: &str) {
        self.registry
            .counter(&format!("{}.{name}", H::PREFIX))
            .incr();
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Binds `addr` and serves `handler` on it until shutdown is requested
/// through the returned handle or the protocol's `shutdown` op.
/// `background` is whatever the front end runs beside the loop; the
/// handle owns it and drops it once the drain has finished (or here,
/// if the bind fails).
pub fn serve<H: Handler, B>(
    addr: &str,
    max_conns: usize,
    handler: Arc<H>,
    slowlog: Arc<SlowLog>,
    registry: MetricsRegistry,
    background: B,
) -> io::Result<ServeHandle<B>> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let core = Arc::new(Core {
        handler,
        slowlog,
        registry: registry.clone(),
        shutdown: shutdown.clone(),
        max_conns,
        request_ns_metric: format!("{}.request_ns", H::PREFIX),
    });
    let accept = std::thread::Builder::new()
        .name(format!("warptree-{}-accept", H::PREFIX))
        .spawn(move || accept_loop(listener, core))?;
    Ok(ServeHandle {
        addr,
        shutdown,
        registry,
        accept: Some(accept),
        background,
    })
}

/// A handle to a running serving loop and the background work `B`
/// beside it.
pub struct ServeHandle<B> {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    registry: MetricsRegistry,
    accept: Option<JoinHandle<()>>,
    /// Dropped after `Drop::drop` has joined the accept thread, so
    /// background writers outlive every in-flight request.
    background: B,
}

impl<B> ServeHandle<B> {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics registry (shared with all components).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The background work handed to [`serve`].
    pub fn background(&self) -> &B {
        &self.background
    }

    /// Asks the loop to drain and stop: the listener closes, each
    /// connection finishes its current request, admitted work runs to
    /// completion. Non-blocking; follow with [`ServeHandle::join`].
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// `true` once shutdown has been requested (locally or via the
    /// protocol `shutdown` op).
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Waits for the drain to complete, then stops the background
    /// work. Joining a live loop without
    /// [`ServeHandle::request_shutdown`] blocks until some shutdown
    /// trigger (e.g. a client's `shutdown` op) fires.
    pub fn join(mut self) {
        self.join_accept();
    }

    /// [`ServeHandle::request_shutdown`] + [`ServeHandle::join`].
    pub fn stop(self) {
        self.request_shutdown();
        self.join();
    }

    fn join_accept(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl<B> Drop for ServeHandle<B> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.join_accept();
    }
}

fn accept_loop<H: Handler>(listener: TcpListener, core: Arc<Core<H>>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !core.draining() {
        // Reap finished connections on every iteration — including idle
        // ones — so long-lived processes don't accumulate dead handles
        // and the cap below counts only live connections.
        conns.retain(|h| !h.is_finished());
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Thread-per-connection needs a connection cap, or a
                // connection flood exhausts threads/memory before
                // admission control ever sees a request.
                if conns.len() >= core.max_conns {
                    core.count("rejected_overload");
                    core.count("rejected_conn_limit");
                    reject_connection(stream);
                    continue;
                }
                core.count("connections");
                let conn_core = core.clone();
                match std::thread::Builder::new()
                    .name(format!("warptree-{}-conn", H::PREFIX))
                    .spawn(move || handle_conn(stream, &conn_core))
                {
                    Ok(h) => conns.push(h),
                    Err(_) => core.count("errors"),
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                core.count("errors");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    // Drain: connections first — they still need the handler (its
    // gate, its shard sockets) for their in-flight requests. The
    // last reference to the handler held by the loop goes with `core`.
    for h in conns {
        let _ = h.join();
    }
}

/// A rejected connection gets a best-effort typed error frame before
/// the close, so its client sees `overloaded` instead of a bare reset.
/// Short write timeout: this runs on the accept thread.
fn reject_connection(mut stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = write_frame(
        &mut stream,
        error_response(
            ErrorCode::Overloaded,
            "connection limit reached; retry with backoff",
        )
        .as_bytes(),
    );
}

/// How many consecutive zero-progress 100 ms read timeouts we tolerate
/// *inside* a frame before giving up on the connection (~30 s). Between
/// frames the timeout just means "idle" and we poll the shutdown flag.
const FRAME_STALL_LIMIT: u32 = 300;

fn handle_conn<H: Handler>(mut stream: TcpStream, core: &Core<H>) {
    // Nonblocking-ness is inherited from the listener on some
    // platforms; frames want blocking reads with a timeout so the
    // thread notices shutdown between requests.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    if stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .is_err()
    {
        return;
    }
    // One write per frame is not enough off loopback: a reply longer
    // than one segment ends in a partial segment, which Nagle would
    // hold for the client's delayed ACK. Every reply is a complete
    // message, so there is nothing to coalesce it with.
    if stream.set_nodelay(true).is_err() {
        return;
    }
    let mut conn = core.handler.connect();
    loop {
        // The idle-aware reader reports a timeout as `Idle` only when
        // zero bytes of the next frame have been consumed; once a frame
        // has begun it retries timeouts internally, so a slow client
        // can never desynchronize the stream.
        match read_frame_idle_aware(&mut stream, FRAME_STALL_LIMIT) {
            Ok(FrameEvent::Frame(payload)) => {
                let resp = answer(core, &mut conn, &payload);
                if !respond(&mut stream, &resp) {
                    return;
                }
                // During drain, close after answering rather than wait
                // for an idle window: a client polling faster than the
                // read timeout (a coordinator's health monitor, a tight
                // retry loop) would otherwise hold the drain open
                // indefinitely.
                if core.draining() {
                    return;
                }
            }
            Ok(FrameEvent::Closed) => return, // clean close
            Ok(FrameEvent::Idle) => {
                if core.draining() {
                    return; // idle at a frame boundary during drain
                }
            }
            Err(_) => return, // torn frame / mid-frame stall / reset
        }
    }
}

/// Turns one request frame into its response.
fn answer<H: Handler>(core: &Core<H>, conn: &mut H::Conn, payload: &[u8]) -> String {
    let started = Instant::now();
    let (req, trace_opts) = match Request::parse_full(payload, core.handler.allow_debug()) {
        Ok(parsed) => parsed,
        Err(pe) => {
            core.count("bad_requests");
            if pe.code == ErrorCode::UnsupportedVersion {
                core.count("unsupported_version");
            }
            return error_response(pe.code, &pe.message);
        }
    };

    if req.is_control() {
        let resp = match req {
            Request::Shutdown => {
                core.shutdown.store(true, Ordering::SeqCst);
                ok_response("shutdown", "\"draining\":true")
            }
            Request::Slowlog => ok_response(
                "slowlog",
                &format!("\"entries\":{}", core.slowlog.to_json()),
            ),
            other => core.handler.control(&other),
        };
        return clamp_oversized(resp, &core.registry, H::PREFIX);
    }

    if core.draining() {
        return error_response(
            ErrorCode::ShuttingDown,
            &format!("{} is draining", H::PREFIX),
        );
    }

    // Decide tracing at admission: the client may demand it per
    // request; otherwise the 1-in-N sampler picks.
    let op = req.op_label();
    let trace = core.slowlog.trace(trace_opts.wanted, || {
        trace_opts
            .trace_id
            .unwrap_or_else(|| next_trace_id(H::PREFIX, op))
    });

    let (mut resp, queue_ns) = core.handler.query(conn, req, &trace, started);
    let total_ns = started.elapsed().as_nanos() as u64;
    core.registry
        .histogram(&core.request_ns_metric)
        .record(total_ns);
    // Every ok query response carries the queue/service split; the
    // span tree rides along only when the client asked for it (a
    // sampler-only trace goes to the ring alone).
    if resp.starts_with("{\"ok\":true") && resp.ends_with('}') {
        resp.pop();
        // Writing to a `String` cannot fail.
        let _ = write!(
            resp,
            ",\"timings\":{{\"queue_ns\":{queue_ns},\"service_ns\":{}}}",
            total_ns.saturating_sub(queue_ns)
        );
        if trace_opts.wanted {
            if let Some(data) = trace.finish() {
                resp.push_str(",\"trace\":");
                resp.push_str(&data.to_json());
            }
        }
        resp.push('}');
    }
    core.slowlog
        .offer(op, core.handler.generation(), total_ns, queue_ns, &trace);
    clamp_oversized(resp, &core.registry, H::PREFIX)
}

/// Replaces a response too large for one frame with a typed error.
/// Without this, `write_frame` rejects the oversized payload, the
/// connection closes, and the client only sees "closed mid-request" —
/// a broad search (large ε over a big corpus) must fail *explainably*.
pub(crate) fn clamp_oversized(resp: String, registry: &MetricsRegistry, prefix: &str) -> String {
    if resp.len() <= proto::MAX_FRAME as usize {
        return resp;
    }
    registry
        .counter(&format!("{prefix}.result_too_large"))
        .incr();
    error_response(
        ErrorCode::ResultTooLarge,
        "serialized result exceeds the 4 MiB frame limit; narrow epsilon, lower max_len, or split the batch",
    )
}

fn respond(stream: &mut TcpStream, resp: &str) -> bool {
    write_frame(stream, resp.as_bytes()).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_slow_and_traced_entries_newest_first() {
        let registry = MetricsRegistry::new();
        let log = SlowLog::new("coord", 2, 1, 0, registry.clone());
        // Below threshold, untraced: dropped.
        log.offer("search", 1, 100, 0, &Trace::noop());
        assert_eq!(log.to_json(), "[]");
        // Slow entries land; capacity 2 evicts the oldest.
        log.offer("search", 1, 2_000_000, 0, &Trace::noop());
        log.offer("knn", 1, 3_000_000, 7, &Trace::noop());
        log.offer("batch", 2, 4_000_000, 0, &Trace::noop());
        let v = crate::json::parse(&log.to_json()).unwrap();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(
            arr[0].get("op").and_then(crate::Json::as_str),
            Some("batch")
        );
        assert_eq!(arr[1].get("op").and_then(crate::Json::as_str), Some("knn"));
        assert_eq!(
            arr[1].get("queue_ns").and_then(crate::Json::as_u64),
            Some(7)
        );
        // Both metrics carry the front end's prefix.
        let snap = registry.snapshot();
        assert_eq!(snap.counters.get("coord.slow_queries").copied(), Some(3));
        assert_eq!(snap.gauges.get("coord.slowlog_entries").copied(), Some(2.0));
        // A traced fast request is kept (traces are why the ring exists).
        let log = SlowLog::new("server", 4, 0, 0, MetricsRegistry::new());
        let trace = Trace::active("t-1");
        drop(trace.span("server.service"));
        log.offer("search", 1, 10, 0, &trace);
        let v = crate::json::parse(&log.to_json()).unwrap();
        assert_eq!(v.as_arr().unwrap().len(), 1);
    }

    #[test]
    fn sampler_fires_first_and_every_nth() {
        let log = SlowLog::new("server", 1, 0, 3, MetricsRegistry::new());
        let picks: Vec<bool> = (0..6).map(|_| log.sample()).collect();
        assert_eq!(picks, vec![true, false, false, true, false, false]);
        let off = SlowLog::new("server", 1, 0, 0, MetricsRegistry::new());
        assert!(!off.sample());
    }

    #[test]
    fn stop_thread_ticks_until_dropped() {
        let (tx, rx) = std::sync::mpsc::channel();
        let ticker = StopThread::spawn("warptree-test-ticker", move |stop| {
            while StopThread::sleep(stop, Duration::from_millis(1)) {
                let _ = tx.send(());
            }
        })
        .unwrap();
        rx.recv().unwrap();
        rx.recv().unwrap();
        // Dropping joins the thread, and its sender goes with it.
        drop(ticker);
        while rx.try_recv().is_ok() {}
        assert!(rx.recv().is_err());
    }
}
