//! The shard server: one index directory served over the framed
//! protocol — admission control, deadlines, online ingest, background
//! compaction and scrubbing, hot reload.
//!
//! ## Threading model
//!
//! The accept loop, the connection threads and everything on the wire
//! are [`serve_core`](crate::serve_core)'s; this module is its
//! [`Handler`]. Every op answers on the connection thread that read it;
//! the server spawns no query threads of its own. Query ops first pass
//! the admission [`Gate`]: at most `workers` run at once, up to
//! `queue_depth` more wait their turn in arrival order, and one beyond
//! that fails *now* with `overloaded` rather than queueing unbounded
//! latency. A request whose deadline passes while it waits is dropped
//! when its turn comes with `deadline_exceeded` (the work is never
//! started — wasted-work avoidance under overload).
//!
//! ## Snapshot discipline
//!
//! Each query pins the current [`SnapshotCell`] value once, at
//! execution start, and uses only that `Arc` for its whole lifetime —
//! never re-reading the cell mid-request. The response's
//! `"generation"` field reports which snapshot answered; concurrent
//! hot reloads change which snapshot *new* requests pin, nothing else.
//!
//! A query runs [`DirSnapshot::query_with`], the query path every
//! caller of a directory shares (while any index is damaged, the whole
//! answer comes by sequential scan); only the server then quarantines
//! the tails a snapshot found failing, once each, and republishes.

use std::fmt::Write as _;
use std::io;
use std::net::SocketAddr;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use warptree_core::search::{QueryOutput, QueryRequest, SearchMetrics, SearchStats};
use warptree_core::sequence::SequenceStore;
use warptree_disk::{
    append_segment_with, compact_once_with, open_dir_snapshot_with, quarantine_segment_with,
    real_vfs, scrub_dir_with, DirSnapshot, DiskError, Vfs,
};
use warptree_obs::{MetricsRegistry, Trace};

use crate::http::MetricsHttp;
use crate::pool::Gate;
use crate::proto::{self, error_response, ok_response, ErrorCode, Request};
use crate::serve_core::{self, next_trace_id, Handler, ServeHandle, SlowLog, StopThread};
use crate::snapshot::{instrument_snapshot, spawn_reload_watcher, SnapshotCell, WatcherCtx};

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`ServeHandle::addr`]).
    pub addr: String,
    /// Queries running at once.
    pub workers: usize,
    /// Bound on the requests waiting for a turn — the admission-control
    /// knob. Requests beyond `workers` running + `queue_depth` waiting
    /// are rejected `overloaded`.
    pub queue_depth: usize,
    /// Per-request deadline, measured from arrival. Enforced when the
    /// request's turn comes (expired requests are dropped unstarted)
    /// and between `batch` items; a single running search is never
    /// interrupted mid-query, so cap per-query cost with
    /// [`ServerConfig::max_query_len`].
    pub deadline: Duration,
    /// How often the reload watcher polls the commit manifest. Must be
    /// nonzero.
    pub reload_interval: Duration,
    /// Longest accepted query; longer ones fail `bad_request` (the
    /// filter cost is quadratic in query length, so this caps
    /// per-request work).
    pub max_query_len: usize,
    /// Ignored: there is no page pool (an index is read whole at open).
    /// Kept only so the repo benchmark, which still sets it, builds;
    /// ROADMAP item 1a deletes it.
    pub cache_pages: usize,
    /// Ignored: there is no decoded-node cache. Kept only so the repo
    /// benchmark, which still sets it, builds; ROADMAP item 1a deletes
    /// it.
    pub cache_nodes: usize,
    /// Maximum concurrent connections (the server is
    /// thread-per-connection, so this bounds connection threads).
    /// Connections beyond the cap receive a typed `overloaded` error
    /// frame and are closed without spawning a thread.
    pub max_conns: usize,
    /// Accept test-only protocol ops (`debug_sleep`). Never enable in
    /// production serving.
    pub enable_debug_ops: bool,
    /// Cap on per-request `parallelism` (worker subthreads one query
    /// may spawn — the `--threads` serve flag). Requests asking for
    /// more are silently clamped; the default of 1 keeps every query
    /// sequential unless the operator opts in. Results are
    /// byte-identical at every setting, so clamping never changes an
    /// answer.
    pub max_parallelism: u32,
    /// Tail-segment count at which the background compactor starts
    /// folding segments back together (LSM-style, using the paper's
    /// binary merge). `0` disables background compaction — tails then
    /// accumulate until an offline `warptree compact`.
    pub compact_threshold: usize,
    /// How often the compaction worker checks the tail-segment count.
    /// Must be nonzero while compaction is on.
    pub compact_interval: Duration,
    /// How often the background scrubber walks every committed page
    /// through the CRC-checked read path, tombstoning segments that
    /// fail and healing quarantined ones by rebuilding them from the
    /// corpus. [`Duration::ZERO`] disables background scrubbing (the
    /// offline `warptree scrub` command remains available).
    pub scrub_interval: Duration,
    /// Slow-query threshold in milliseconds: any query request
    /// (or background job) whose total latency — queue wait included —
    /// reaches this lands in the in-memory slow-query ring served by
    /// `{"op":"slowlog"}`. `0` disables threshold capture (sampled
    /// traces still land in the ring).
    pub slow_ms: u64,
    /// Trace 1 in N query requests end to end (span tree over
    /// the whole search funnel) even when the client didn't ask; the
    /// resulting traces land in the slow-query ring. `0` disables
    /// sampling — clients can still request a trace per query
    /// (`"trace": true`).
    pub trace_sample: u64,
    /// Capacity of the slow-query ring; oldest entries fall off.
    pub slowlog_capacity: usize,
    /// When set, serve `GET /metrics` (Prometheus text exposition
    /// 0.0.4) over plain HTTP on this address, alongside the framed
    /// protocol's `{"op":"metrics"}`.
    pub metrics_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            deadline: Duration::from_secs(5),
            reload_interval: Duration::from_millis(200),
            max_query_len: 4096,
            cache_pages: 0,
            cache_nodes: 0,
            max_conns: 256,
            enable_debug_ops: false,
            max_parallelism: 1,
            compact_threshold: 4,
            compact_interval: Duration::from_millis(500),
            scrub_interval: Duration::ZERO,
            slow_ms: 500,
            trace_sample: 0,
            slowlog_capacity: 128,
            metrics_addr: None,
        }
    }
}

/// Shared write-path state: `ingest` requests and the background
/// compactor both commit new manifest generations, so they serialize
/// on [`IngestState::writer`] — two committers racing would both read
/// the same old generation and one commit would be lost.
struct IngestState {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    /// Serializes every manifest-committing writer (ingest +
    /// compaction). Readers never take it: queries run on pinned
    /// snapshots and reloads only ever open committed generations.
    writer: Mutex<()>,
    cell: Arc<SnapshotCell>,
    registry: MetricsRegistry,
    /// Background jobs (compaction, scrub) report into the same ring
    /// as slow requests, so `slowlog` shows *everything* that ate time.
    slowlog: Arc<SlowLog>,
}

impl IngestState {
    /// Reopens the committed generation and publishes it, so the
    /// committing request observes its own write immediately instead
    /// of waiting for the reload watcher's next poll.
    fn publish(&self) -> Result<Arc<DirSnapshot>, DiskError> {
        let snap = Arc::new(open_dir_snapshot_with(self.vfs.as_ref(), &self.dir)?);
        instrument_snapshot(&snap, &self.registry);
        self.cell.swap(snap.clone());
        Ok(snap)
    }

    /// The writer lock, surviving a poisoned-by-panic previous holder:
    /// a torn commit is exactly what the recovery sweep at the next
    /// open handles, so poisoning carries no extra meaning here.
    fn lock_writer(&self) -> std::sync::MutexGuard<'_, ()> {
        self.writer.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Background compactor: whenever the tail-segment count reaches the
/// threshold, folds the cheapest adjacent pair with the paper's binary
/// merge (one manifest generation per fold) and republishes. In-flight
/// queries keep their pinned snapshots, so compaction is invisible to
/// readers except in `info`'s segment count.
fn compact_loop(state: &IngestState, threshold: usize, interval: Duration, stop: &AtomicBool) {
    while StopThread::sleep(stop, interval) {
        // Fold until back under threshold; each iteration re-reads the
        // published snapshot, so concurrent ingests extend the loop and
        // a failed fold ends it (retried after the next sleep).
        while !stop.load(Ordering::SeqCst)
            && state.cell.get().segment_count().saturating_sub(1) >= threshold
        {
            let _guard = state.lock_writer();
            let trace = state
                .slowlog
                .trace(false, || next_trace_id(ShardHandler::PREFIX, "compact"));
            let span = trace.span("job.compact");
            let t0 = Instant::now();
            let outcome = compact_once_with(state.vfs.as_ref(), &state.dir, &state.registry);
            let folded = matches!(outcome, Ok(Some(_)));
            let mut failed = false;
            match outcome {
                Ok(Some(_)) => {
                    if state.publish().is_err() {
                        state.registry.counter("server.compaction_errors").incr();
                        failed = true;
                    }
                }
                Ok(None) => {} // nothing left to fold
                Err(_) => {
                    state.registry.counter("server.compaction_errors").incr();
                    failed = true;
                }
            }
            if span.is_active() {
                span.attr_u64("folded", folded as u64);
            }
            drop(span);
            // Meter only passes that did (or tried to do) real work — a
            // nothing-to-fold probe would poison the duration histogram
            // with near-zero samples.
            if folded || failed {
                let dur_ns = t0.elapsed().as_nanos() as u64;
                state.registry.histogram("server.compact_ns").record(dur_ns);
                state
                    .slowlog
                    .offer("compact", state.cell.get().generation, dur_ns, 0, &trace);
            }
            if !folded || failed {
                break;
            }
        }
    }
}

/// Background scrubber: on an interval, walks every committed page
/// through the CRC-checked read path ([`scrub_dir_with`]), tombstoning
/// segments that fail and healing quarantined segments by rebuilding
/// them from the (intact) corpus — the server's self-repair loop.
fn scrub_loop(state: &IngestState, interval: Duration, stop: &AtomicBool) {
    while StopThread::sleep(stop, interval) {
        // The scrub commits manifest generations (quarantine, heal), so
        // it serializes with ingest and compaction like any writer.
        let _guard = state.lock_writer();
        let trace = state
            .slowlog
            .trace(false, || next_trace_id(ShardHandler::PREFIX, "scrub"));
        let span = trace.span("job.scrub");
        let t0 = Instant::now();
        match scrub_dir_with(state.vfs.as_ref(), &state.dir, true, &state.registry) {
            Ok(report) => {
                if span.is_active() {
                    span.attr_u64("healed", report.healed.len() as u64);
                    span.attr_u64("newly_quarantined", report.newly_quarantined.len() as u64);
                }
                if !report.healed.is_empty() {
                    state
                        .registry
                        .counter("server.scrub_heals")
                        .add(report.healed.len() as u64);
                }
                if report.unrecoverable.is_some() {
                    state.registry.counter("server.scrub_errors").incr();
                }
                if !report.newly_quarantined.is_empty() || !report.healed.is_empty() {
                    // The manifest moved; republish promptly instead of
                    // waiting for the reload watcher's next poll.
                    if state.publish().is_err() {
                        state.registry.counter("server.scrub_errors").incr();
                    }
                }
            }
            Err(_) => state.registry.counter("server.scrub_errors").incr(),
        }
        drop(span);
        let dur_ns = t0.elapsed().as_nanos() as u64;
        state.registry.histogram("server.scrub_ns").record(dur_ns);
        state
            .slowlog
            .offer("scrub", state.cell.get().generation, dur_ns, 0, &trace);
    }
}

/// Everything a query needs on its connection thread.
struct Ctx {
    cell: Arc<SnapshotCell>,
    registry: MetricsRegistry,
    /// One registry-backed bundle shared by *all* queries — per-process
    /// totals (the `stats` op view), not per-request.
    search_metrics: SearchMetrics,
    ingest: Arc<IngestState>,
    deadline: Duration,
    max_query_len: usize,
    workers: usize,
    queue_depth: usize,
    enable_debug_ops: bool,
    /// Cap applied to a request's `parallelism` knob.
    max_parallelism: u32,
}

/// The server factory. Construct with [`Server::start`] (real
/// filesystem, fresh registry) or [`Server::start_with`] (injected
/// [`Vfs`] and registry — tests and embedding).
pub struct Server;

impl Server {
    /// Opens the committed generation of `dir` and serves it.
    pub fn start(dir: &Path, config: ServerConfig) -> io::Result<ServerHandle> {
        Server::start_with(real_vfs(), dir, config, MetricsRegistry::new())
    }

    /// [`Server::start`] with an injected filesystem and metrics
    /// registry.
    pub fn start_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        config: ServerConfig,
        registry: MetricsRegistry,
    ) -> io::Result<ServerHandle> {
        // A zero interval would turn its ticker into a hot loop.
        let compacting = config.compact_threshold > 0;
        for (field, interval, used) in [
            ("reload_interval", config.reload_interval, true),
            ("compact_interval", config.compact_interval, compacting),
        ] {
            if used && interval.is_zero() {
                return Err(io::Error::other(format!("{field} must be nonzero")));
            }
        }
        let snapshot = open_dir_snapshot_with(vfs.as_ref(), dir)
            .map_err(|e| io::Error::other(format!("open index dir: {e}")))?;
        instrument_snapshot(&snapshot, &registry);
        let cell = Arc::new(SnapshotCell::new(Arc::new(snapshot)));
        let slowlog = Arc::new(SlowLog::new(
            ShardHandler::PREFIX,
            config.slowlog_capacity,
            config.slow_ms,
            config.trace_sample,
            registry.clone(),
        ));
        let ingest = Arc::new(IngestState {
            vfs: vfs.clone(),
            dir: dir.to_path_buf(),
            writer: Mutex::new(()),
            cell: cell.clone(),
            registry: registry.clone(),
            slowlog: slowlog.clone(),
        });
        let handler = Arc::new(ShardHandler {
            ctx: Ctx {
                cell: cell.clone(),
                registry: registry.clone(),
                search_metrics: SearchMetrics::register(&registry),
                ingest: ingest.clone(),
                deadline: config.deadline,
                max_query_len: config.max_query_len,
                workers: config.workers,
                queue_depth: config.queue_depth,
                enable_debug_ops: config.enable_debug_ops,
                max_parallelism: config.max_parallelism,
            },
            gate: Gate::new(
                config.workers,
                config.queue_depth,
                registry.gauge("server.queue_depth"),
            ),
        });

        let metrics_http = match &config.metrics_addr {
            Some(addr) => Some(MetricsHttp::spawn(addr, registry.clone())?),
            None => None,
        };
        let watcher = spawn_reload_watcher(
            WatcherCtx {
                vfs,
                dir: dir.to_path_buf(),
                cell,
                registry: registry.clone(),
            },
            config.reload_interval,
        )?;
        let compactor = if compacting {
            let (state, threshold, interval) = (
                ingest.clone(),
                config.compact_threshold,
                config.compact_interval,
            );
            Some(StopThread::spawn("warptree-compact", move |stop| {
                compact_loop(&state, threshold, interval, stop)
            })?)
        } else {
            None
        };
        let scrubber = if config.scrub_interval > Duration::ZERO {
            let interval = config.scrub_interval;
            Some(StopThread::spawn("warptree-scrub", move |stop| {
                scrub_loop(&ingest, interval, stop)
            })?)
        } else {
            None
        };

        serve_core::serve(
            &config.addr,
            config.max_conns,
            handler,
            slowlog,
            registry,
            ServerBackground {
                _compactor: compactor,
                _scrubber: scrubber,
                _watcher: watcher,
                metrics_http,
            },
        )
    }
}

/// What runs beside the serving loop. The handle drops it once the
/// drain has finished, field by field in this order: writers stop
/// before the watcher, so a compaction or scrub finishing during
/// shutdown is not left unpublished-forever by a dead watcher.
pub struct ServerBackground {
    _compactor: Option<StopThread>,
    _scrubber: Option<StopThread>,
    _watcher: StopThread,
    metrics_http: Option<MetricsHttp>,
}

/// A handle to a running server.
pub type ServerHandle = ServeHandle<ServerBackground>;

impl ServeHandle<ServerBackground> {
    /// The bound address of the HTTP `GET /metrics` endpoint, when
    /// [`ServerConfig::metrics_addr`] was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.background().metrics_http.as_ref().map(|h| h.addr())
    }
}

/// The shard server's side of the serving loop: control ops from the
/// served snapshot, query ops behind the admission gate.
struct ShardHandler {
    ctx: Ctx,
    gate: Gate,
}

impl ShardHandler {
    /// Brings the sampled gauges up to date, so `stats` and `metrics`
    /// show what queries see right now, not the last refresh: the live
    /// fan-out (worker subthreads currently spawned by parallel
    /// filter/post-processing regions process-wide) and the *served*
    /// snapshot's quarantine count (current even if no publish has run
    /// since the last quarantine).
    fn refresh_gauges(&self) {
        let registry = &self.ctx.registry;
        registry
            .gauge("server.worker_subthreads")
            .set(warptree_core::parallel::active_subthreads() as f64);
        registry.set_gauge(
            "server.quarantined_segments",
            self.ctx.cell.get().quarantined.len() as f64,
        );
    }
}

impl Handler for ShardHandler {
    type Conn = ();
    const PREFIX: &'static str = "server";

    fn allow_debug(&self) -> bool {
        self.ctx.enable_debug_ops
    }

    fn connect(&self) {}

    fn generation(&self) -> u64 {
        self.ctx.cell.get().generation
    }

    fn control(&self, req: &Request) -> String {
        let ctx = &self.ctx;
        match req {
            Request::Health => {
                let snap = ctx.cell.get();
                let quarantined = snap.quarantined.len();
                // Degraded is still *serving* — every answer over a
                // damaged index comes by sequential scan and is complete —
                // but operators watching health see that it costs time
                // until scrub heals it.
                let status = if snap.is_damaged() {
                    "degraded"
                } else {
                    "serving"
                };
                ok_response(
                    "health",
                    &format!(
                        "\"status\":\"{status}\",\"generation\":{},\"quarantined_segments\":{quarantined}",
                        snap.generation
                    ),
                )
            }
            Request::Info => {
                let snap = ctx.cell.get();
                ok_response(
                    "info",
                    &format!(
                        "\"generation\":{},\"sequences\":{},\"values\":{},\"categories\":{},\"segments\":{},\"quarantined_segments\":{},\"workers\":{},\"queue_depth\":{},\"max_parallelism\":{}",
                        snap.generation,
                        snap.store.len(),
                        snap.store.total_len(),
                        snap.alphabet.len(),
                        snap.segment_count(),
                        snap.quarantined.len(),
                        ctx.workers,
                        ctx.queue_depth,
                        ctx.max_parallelism,
                    ),
                )
            }
            Request::Stats => {
                self.refresh_gauges();
                proto::stats_response(&ctx.registry)
            }
            Request::Metrics => {
                self.refresh_gauges();
                proto::metrics_response(&ctx.registry)
            }
            other => unreachable!("{other:?} routed to control"),
        }
    }

    /// Query work runs here, on the connection thread, once the gate
    /// admits it: the admission point.
    fn query(&self, _: &mut (), req: Request, trace: &Trace, started: Instant) -> (String, u64) {
        let registry = &self.ctx.registry;
        let Some(_slot) = self.gate.enter() else {
            registry.counter("server.rejected_overload").incr();
            let resp = error_response(
                ErrorCode::Overloaded,
                "request queue is full; retry with backoff",
            );
            return (resp, 0);
        };
        registry.counter("server.accepted").incr();
        let queue_ns = started.elapsed().as_nanos() as u64;
        let deadline = started + self.ctx.deadline;
        if Instant::now() > deadline {
            registry.counter("server.deadline_exceeded").incr();
            let resp = error_response(
                ErrorCode::DeadlineExceeded,
                "deadline expired while waiting for admission",
            );
            return (resp, queue_ns);
        }
        let work = Work {
            ctx: &self.ctx,
            deadline,
            trace,
        };
        // A panicking query answers `internal`; its slot is released by
        // the unwind and the connection keeps serving.
        let resp = panic::catch_unwind(AssertUnwindSafe(|| run_timed(&work, req, queue_ns)))
            .unwrap_or_else(|_| {
                registry.counter("server.internal_errors").incr();
                error_response(ErrorCode::Internal, "query execution failed")
            });
        (resp, queue_ns)
    }
}

/// One admitted request on its connection thread.
struct Work<'a> {
    ctx: &'a Ctx,
    /// Absolute request deadline; checked at admission and between
    /// batch items (a single search is never interrupted mid-query).
    deadline: Instant,
    /// This request's trace handle — active when the client asked for
    /// a trace or the sampler picked the request, the no-op handle
    /// otherwise. Threaded through the whole funnel (filter spans,
    /// kNN rounds, pager I/O attribution).
    trace: &'a Trace,
}

/// Wraps [`execute`] in the `server.service` span and meters the
/// split: `queue_ns` (frame read → slot) and `service_ns` (slot →
/// response built).
fn run_timed(work: &Work, req: Request, queue_ns: u64) -> String {
    let registry = &work.ctx.registry;
    registry.histogram("server.queue_ns").record(queue_ns);
    let span = work.trace.span("server.service");
    if span.is_active() {
        span.attr_str("op", req.op_label());
        span.attr_u64("queue_ns", queue_ns);
    }
    let service_start = Instant::now();
    let resp = execute(work, req);
    drop(span);
    registry
        .histogram("server.service_ns")
        .record(service_start.elapsed().as_nanos() as u64);
    resp
}

/// Runs one query over the pinned snapshot and applies the server-side
/// consequences of what it found:
///
/// * tail segments the snapshot caught failing a read are quarantined
///   (one tombstone manifest generation each, then a republish) so
///   later requests skip them up front;
/// * answers over a damaged snapshot, which come by sequential scan,
///   are metered (`search.scan_queries`);
/// * an error is typed and metered as a bad request.
///
/// On success the stats have already been folded into the shared
/// process-wide bundle; the returned copy is for per-request reporting
/// (`explain`). On failure the `Err` is the complete response string.
fn run_query(
    work: &Work,
    snap: &DirSnapshot,
    req: &QueryRequest,
) -> Result<(QueryOutput, SearchStats), String> {
    let metrics = SearchMetrics::new().with_trace(work.trace.clone());
    let out = snap.query_with(req, &metrics);
    quarantine_failed(work, snap);
    match out {
        Ok(out) => {
            let stats = req.final_stats(&out, &metrics);
            work.ctx.search_metrics.add(&stats);
            if snap.is_damaged() {
                work.ctx.registry.counter("search.scan_queries").incr();
            }
            Ok((out, stats))
        }
        Err(e) => {
            work.ctx.registry.counter("server.bad_requests").incr();
            Err(proto::core_error_response(&e))
        }
    }
}

/// Tombstones the tails `snap` caught failing that the published
/// snapshot still serves as live: one idempotent quarantine commit per
/// segment, then a republish so the serving snapshot stops fanning out
/// to them. A tail is quarantined once, not once per query over a
/// stale snapshot. Best-effort — a failed quarantine only means a later
/// query re-detects and retries; the current answer came by scan and is
/// already complete.
fn quarantine_failed(work: &Work, snap: &DirSnapshot) {
    let failed = snap.failed_tails();
    if failed.is_empty() {
        return;
    }
    let st = &work.ctx.ingest;
    let _guard = st.lock_writer();
    let live = work.ctx.cell.get();
    let mut committed = false;
    for segment in failed {
        if !live.segment_metas.iter().any(|m| m.file == segment) {
            continue;
        }
        match quarantine_segment_with(st.vfs.as_ref(), &st.dir, &segment) {
            Ok(_) => committed = true,
            Err(_) => work.ctx.registry.counter("server.quarantine_errors").incr(),
        }
    }
    if committed && st.publish().is_err() {
        work.ctx.registry.counter("server.quarantine_errors").incr();
    }
}

fn execute(work: &Work, req: Request) -> String {
    // The write path never pins a snapshot — it *produces* one.
    let req = match req {
        Request::Ingest { sequences } => return execute_ingest(work, sequences),
        other => other,
    };
    // Pin one snapshot for the whole request.
    let snap = work.ctx.cell.get();
    let clamp = |t: u32| t.clamp(1, work.ctx.max_parallelism.max(1));
    // `Err` already carries the complete (typed, metered) error
    // response — produced by `run_query` or the batch fold.
    let result: Result<String, String> = match req {
        Request::Search { query, mut params } => {
            params.threads = clamp(params.threads);
            let req = QueryRequest::threshold_params(&query, params).capped(work.ctx.max_query_len);
            run_query(work, &snap, &req).map(|(out, _)| {
                let mut resp = proto::ok_open("search");
                resp.push(',');
                proto::search_body_into(&mut resp, snap.generation, out.matches());
                resp.push('}');
                resp
            })
        }
        Request::Knn { query, mut params } => {
            params.threads = clamp(params.threads);
            let req = QueryRequest::knn_params(&query, params).capped(work.ctx.max_query_len);
            run_query(work, &snap, &req).map(|(out, _)| {
                let matches = out.into_ranked();
                let mut resp = proto::ok_open("knn");
                resp.push(',');
                proto::ranked_body_into(&mut resp, snap.generation, &matches);
                resp.push('}');
                resp
            })
        }
        Request::Batch {
            queries,
            mut params,
        } => {
            // Satellite of the metrics work: the whole batch meters into
            // ONE shared bundle — `stats` sees batch totals, not the
            // last query's numbers.
            params.threads = clamp(params.threads);
            let total = queries.len();
            // One batch item's outcome, produced by a worker without
            // knowing the others' fates; the join below folds them back
            // in request order.
            enum Item {
                Answer(QueryOutput),
                Expired,
                /// A complete error response (already typed + metered).
                Fail(String),
                /// Not run: a lower-indexed item already failed or expired.
                Skipped,
            }
            // With several items the parallelism budget is spent *across*
            // them (the coarsest grain available), so each runs its own
            // search sequentially; a single item keeps its intra-query
            // threads. Results are pinned by item index, so a slow first
            // item never reorders the response.
            let (lanes, mut item_params) = (params.threads as usize, params);
            if total > 1 {
                item_params.threads = 1;
            }
            let first_failed = AtomicUsize::new(usize::MAX);
            let items = warptree_core::parallel::parallel_map(lanes, queries, |i, query| {
                if first_failed.load(Ordering::SeqCst) < i {
                    return Item::Skipped;
                }
                // The deadline checkpoint between items, checked before an
                // item starts (a running search is never interrupted): one
                // batch can carry many searches, so this is where an
                // admitted request can overstay its deadline by more than
                // one query's worth of work.
                let item = if Instant::now() > work.deadline {
                    Item::Expired
                } else {
                    let req = QueryRequest::threshold_params(&query, item_params.clone())
                        .capped(work.ctx.max_query_len);
                    match run_query(work, &snap, &req) {
                        Ok((out, _)) => Item::Answer(out),
                        Err(resp) => Item::Fail(resp),
                    }
                };
                if !matches!(item, Item::Answer(_)) {
                    first_failed.fetch_min(i, Ordering::SeqCst);
                }
                item
            });
            // Fold in request order, encoding each answer straight into
            // the reply; the first expiry or error (lowest index) wins.
            // One lane runs the items in order and stops at the first
            // failure, exactly as a sequential loop with an early break.
            let mut resp = proto::ok_open("batch");
            let _ = write!(resp, ",\"generation\":{},\"results\":[", snap.generation);
            let mut outcome = Ok(());
            for (i, item) in items.into_iter().enumerate() {
                match item {
                    Item::Answer(out) => {
                        if i > 0 {
                            resp.push(',');
                        }
                        resp.push('{');
                        proto::search_body_into(&mut resp, snap.generation, out.matches());
                        resp.push('}');
                    }
                    Item::Expired => {
                        work.ctx.registry.counter("server.deadline_exceeded").incr();
                        return error_response(
                            ErrorCode::DeadlineExceeded,
                            &format!("deadline expired after {i} of {total} batch items"),
                        );
                    }
                    Item::Fail(e) => {
                        outcome = Err(e);
                        break;
                    }
                    // Only ever behind the failure that caused it.
                    Item::Skipped => break,
                }
            }
            outcome.map(|()| {
                resp.push_str("]}");
                resp
            })
        }
        Request::Explain { query, mut params } => {
            params.threads = clamp(params.threads);
            // `run_query` meters per-request stats internally
            // and returns the snapshot, so explain gets its counters
            // while the shared bundle still accumulates the totals.
            let req = QueryRequest::threshold_params(&query, params).capped(work.ctx.max_query_len);
            run_query(work, &snap, &req).map(|(out, stats)| {
                let mut resp = proto::ok_open("explain");
                resp.push(',');
                proto::search_body_into(&mut resp, snap.generation, out.matches());
                resp.push_str(",\"stats\":");
                resp.push_str(&proto::encode_stats(&stats));
                resp.push('}');
                resp
            })
        }
        Request::DebugSleep { ms } => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(ok_response("debug_sleep", &format!("\"slept_ms\":{ms}")))
        }
        control => unreachable!("control op {control:?} reached the query path"),
    };
    match result {
        Ok(resp) => {
            work.ctx.registry.counter("server.requests_ok").incr();
            resp
        }
        // Already a complete response; the failure was metered where it
        // was classified.
        Err(resp) => resp,
    }
}

/// The `ingest` op: appends the sequences as one new tail segment
/// (crash-safe generational commit), then synchronously reopens and
/// publishes the new snapshot *before* responding — a client that gets
/// `ok` can immediately query its own writes on any connection.
fn execute_ingest(work: &Work, sequences: Vec<Vec<f64>>) -> String {
    let started = Instant::now();
    let st = &work.ctx.ingest;
    let count = sequences.len();
    let store = SequenceStore::from_values(sequences);
    let _guard = st.lock_writer();
    let committed = match append_segment_with(st.vfs.as_ref(), &st.dir, &store) {
        Ok(manifest) => manifest,
        Err(DiskError::BadRecord(msg)) => {
            work.ctx.registry.counter("server.bad_requests").incr();
            return error_response(ErrorCode::BadRequest, &msg);
        }
        Err(e) => {
            work.ctx.registry.counter("server.internal_errors").incr();
            return error_response(ErrorCode::Internal, &format!("ingest failed: {e}"));
        }
    };
    match st.publish() {
        Ok(snap) => {
            work.ctx.registry.counter("server.requests_ok").incr();
            work.ctx
                .registry
                .counter("server.ingested_sequences")
                .add(count as u64);
            work.ctx
                .registry
                .histogram("server.ingest_ns")
                .record(started.elapsed().as_nanos() as u64);
            ok_response(
                "ingest",
                &format!(
                    "\"generation\":{},\"sequences\":{},\"segments\":{}",
                    committed.generation,
                    count,
                    snap.segment_count()
                ),
            )
        }
        // The commit is durable either way; only this process's view
        // failed to refresh (the reload watcher will retry).
        Err(e) => {
            work.ctx.registry.counter("server.internal_errors").incr();
            error_response(
                ErrorCode::Internal,
                &format!(
                    "ingest committed generation {} but reopen failed: {e}",
                    committed.generation
                ),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warptree_core::categorize::Alphabet;
    use warptree_core::search::SearchParams;
    use warptree_core::sequence::SequenceStore;
    use warptree_disk::{build_dir_with, TreeKind};

    #[test]
    fn oversized_responses_become_typed_errors() {
        let clamp = |resp: String, registry: &MetricsRegistry| {
            serve_core::clamp_oversized(resp, registry, ShardHandler::PREFIX)
        };
        let registry = MetricsRegistry::new();
        let small = clamp("{\"ok\":true}".to_string(), &registry);
        assert_eq!(small, "{\"ok\":true}");

        let clamped = clamp("x".repeat(proto::MAX_FRAME as usize + 1), &registry);
        assert!(
            clamped.contains("\"code\":\"result_too_large\""),
            "{clamped}"
        );
        assert!(clamped.len() <= proto::MAX_FRAME as usize);
        assert_eq!(
            registry
                .snapshot()
                .counters
                .get("server.result_too_large")
                .copied(),
            Some(1)
        );
    }

    /// A tree-backed directory under `dir` and the context serving it.
    fn test_ctx(dir: &Path) -> Ctx {
        let store = SequenceStore::from_values(vec![vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]);
        let alphabet = Alphabet::equal_length(&store, 3).unwrap();
        build_dir_with(
            real_vfs(),
            &store,
            &alphabet,
            TreeKind::Full,
            1,
            1,
            None,
            dir,
        )
        .unwrap();
        let snap = open_dir_snapshot_with(real_vfs().as_ref(), dir).unwrap();
        let registry = MetricsRegistry::new();
        let cell = Arc::new(SnapshotCell::new(Arc::new(snap)));
        let ingest = Arc::new(IngestState {
            vfs: real_vfs(),
            dir: dir.to_path_buf(),
            writer: Mutex::new(()),
            cell: cell.clone(),
            registry: registry.clone(),
            slowlog: Arc::new(SlowLog::new("server", 128, 500, 0, registry.clone())),
        });
        Ctx {
            cell,
            search_metrics: SearchMetrics::register(&registry),
            registry,
            ingest,
            deadline: Duration::from_secs(5),
            max_query_len: 64,
            workers: 1,
            queue_depth: 1,
            enable_debug_ops: false,
            max_parallelism: 8,
        }
    }

    /// `req` run untraced against `ctx`, due at `deadline`.
    fn run(ctx: &Ctx, deadline: Instant, req: Request) -> String {
        let work = Work {
            ctx,
            deadline,
            trace: &Trace::noop(),
        };
        execute(&work, req)
    }

    fn counter(ctx: &Ctx, name: &str) -> Option<u64> {
        ctx.registry.snapshot().counters.get(name).copied()
    }

    #[test]
    fn batch_deadline_checkpoint_fires_between_items() {
        let dir =
            std::env::temp_dir().join(format!("warptree-unit-batchdl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let expired = Instant::now()
            .checked_sub(Duration::from_millis(10))
            .unwrap();
        let ctx = test_ctx(&dir);
        let req = Request::Batch {
            queries: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            params: SearchParams::with_epsilon(1.0),
        };
        let resp = run(&ctx, expired, req.clone());
        assert!(resp.contains("\"code\":\"deadline_exceeded\""), "{resp}");
        assert_eq!(counter(&ctx, "server.deadline_exceeded"), Some(1));

        // A live deadline serves the whole batch normally.
        let resp = run(&ctx, Instant::now() + Duration::from_secs(60), req);
        assert!(resp.contains("\"ok\":true"), "{resp}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The batch-ordering satellite: with parallel execution, results
    /// are pinned by request index, not completion order. The first
    /// item is the slowest by construction (longest query over the
    /// whole corpus at a broad ε), so completion order ≠ request order
    /// — yet the response must be byte-identical to the sequential one.
    #[test]
    fn parallel_batch_preserves_request_order() {
        let dir =
            std::env::temp_dir().join(format!("warptree-unit-batchord-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let live = Instant::now() + Duration::from_secs(60);
        let mut ctx = test_ctx(&dir);

        // Item 0 carries far more verification work than the rest.
        let queries = vec![
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 5.0, 4.0, 3.0, 2.0],
            vec![1.0],
            vec![6.0],
            vec![3.0, 4.0],
        ];
        let batch = |threads: u32| Request::Batch {
            queries: queries.clone(),
            params: SearchParams::with_epsilon(10.0).parallel(threads),
        };
        let sequential = run(&ctx, live, batch(1));
        assert!(sequential.contains("\"ok\":true"), "{sequential}");
        for threads in [2u32, 8] {
            assert_eq!(
                sequential,
                run(&ctx, live, batch(threads)),
                "threads={threads}"
            );
        }
        // A request asking for more than the server cap is clamped, not
        // rejected — and still answers identically.
        ctx.max_parallelism = 2;
        assert_eq!(sequential, run(&ctx, live, batch(64)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A request pinned to the wrong backend family fails with the
    /// typed `unsupported_backend` code; pinned to the right family it
    /// answers exactly like an unpinned request.
    #[test]
    fn pinned_backend_mismatch_is_a_typed_error() {
        use warptree_core::search::{BackendKind, KnnParams};
        let dir =
            std::env::temp_dir().join(format!("warptree-unit-backendpin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let live = Instant::now() + Duration::from_secs(60);
        // test_ctx builds a tree-backed directory.
        let ctx = test_ctx(&dir);

        let resp = run(
            &ctx,
            live,
            Request::Search {
                query: vec![1.0, 2.0],
                params: SearchParams::with_epsilon(1.0).on_backend(BackendKind::Esa),
            },
        );
        assert!(resp.contains("\"code\":\"unsupported_backend\""), "{resp}");
        assert_eq!(counter(&ctx, "server.bad_requests"), Some(1));
        let resp = run(
            &ctx,
            live,
            Request::Knn {
                query: vec![1.0, 2.0],
                params: KnnParams::new(1).on_backend(BackendKind::Esa),
            },
        );
        assert!(resp.contains("\"code\":\"unsupported_backend\""), "{resp}");

        // The matching pin answers byte-identically to no pin at all.
        let unpinned = run(
            &ctx,
            live,
            Request::Search {
                query: vec![1.0, 2.0],
                params: SearchParams::with_epsilon(1.0),
            },
        );
        let pinned = run(
            &ctx,
            live,
            Request::Search {
                query: vec![1.0, 2.0],
                params: SearchParams::with_epsilon(1.0).on_backend(BackendKind::Tree),
            },
        );
        assert!(unpinned.contains("\"ok\":true"), "{unpinned}");
        assert_eq!(unpinned, pinned);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A drain answers every request already waiting at the gate when
    /// it starts, and query work that arrives after it gets the typed
    /// `shutting_down` error.
    #[test]
    fn shutdown_drains_queued_jobs_then_rejects() {
        use crate::Client;
        use std::io::Write as _;
        let dir = std::env::temp_dir().join(format!("warptree-unit-drain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        drop(test_ctx(&dir));
        let config = ServerConfig {
            workers: 1,
            queue_depth: 8,
            enable_debug_ops: true,
            ..ServerConfig::default()
        };
        let handle = Server::start(&dir, config).unwrap();
        let addr = handle.addr();
        let counter = |name: &str| handle.registry().snapshot().counters.get(name).copied();
        let waiting = || handle.registry().snapshot().gauges["server.queue_depth"];
        let until = Instant::now() + Duration::from_secs(10);
        let wait_for = |cond: &dyn Fn() -> bool| {
            while !cond() {
                assert!(Instant::now() < until, "the server never got there");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let sleep_on_new_conn = |ms: u64| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.request(&format!("{{\"op\":\"debug_sleep\",\"ms\":{ms}}}"))
            })
        };

        // One running, five waiting behind it.
        let busy = sleep_on_new_conn(500);
        wait_for(&|| counter("server.accepted") == Some(1));
        let queued: Vec<_> = (0..5).map(|_| sleep_on_new_conn(1)).collect();
        wait_for(&|| waiting() == 5.0);

        // A frame begun before the drain and finished after it: its
        // connection thread is reading it when the drain starts (a
        // drain closes connections only between frames), so it reads
        // it whole and refuses it.
        let body = br#"{"op":"search","query":[1.0,2.0],"epsilon":1}"#;
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(body);
        let mut late = std::net::TcpStream::connect(addr).unwrap();
        late.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        late.write_all(&frame[..6]).unwrap();
        wait_for(&|| counter("server.connections") == Some(7));
        handle.request_shutdown();
        late.write_all(&frame[6..]).unwrap();
        let refused = String::from_utf8(proto::read_frame(&mut late).unwrap().unwrap()).unwrap();
        assert!(refused.contains("\"code\":\"shutting_down\""), "{refused}");

        busy.join().unwrap().unwrap();
        for q in queued {
            let resp = q
                .join()
                .unwrap()
                .expect("a waiting request was dropped by the drain");
            assert_eq!(resp.get("slept_ms").and_then(crate::Json::as_u64), Some(1));
        }
        assert_eq!(waiting(), 0.0);
        handle.join();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A deadline that expires mid-batch surfaces the same typed error
    /// from the parallel path as from the sequential one.
    #[test]
    fn parallel_batch_still_honours_deadline() {
        let dir =
            std::env::temp_dir().join(format!("warptree-unit-batchpdl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let expired = Instant::now()
            .checked_sub(Duration::from_millis(10))
            .unwrap();
        let ctx = test_ctx(&dir);
        let resp = run(
            &ctx,
            expired,
            Request::Batch {
                queries: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
                params: SearchParams::with_epsilon(1.0).parallel(4),
            },
        );
        assert!(resp.contains("\"code\":\"deadline_exceeded\""), "{resp}");
        assert_eq!(counter(&ctx, "server.deadline_exceeded"), Some(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
