//! The scatter-gather coordinator: a TCP server speaking the same
//! framed protocol as a shard server, fanning every query out to the
//! shard fleet and merging the answers deterministically.
//!
//! ## Threading model
//!
//! The accept loop, the connection threads and everything on the wire
//! are `warptree_server::serve_core`'s — the same loop the shard server
//! runs under; this module is its [`Handler`]. There is no admission
//! gate at this layer — the shards do the query work, the coordinator's
//! per-request cost is parsing and merging — so each connection thread
//! scatters directly over its own private [`ShardConn`] set (sockets
//! are never shared across requests on different connections). The
//! fan-out itself runs on up to [`CoordConfig::workers`] scoped threads
//! ("lanes"); with one lane the scatter is a plain sequential loop, and
//! the merged answer is byte-identical at every lane count.
//!
//! ## Degradation contract
//!
//! Per-shard calls carry a read timeout and the configured
//! [`RetryPolicy`] (lazy re-dial on torn connections, jittered backoff
//! on `overloaded`). A shard that still fails is marked down and its
//! slice of the corpus is reported honestly: the response carries
//! `"partial":true` and a coverage block aggregated across shards
//! (down shards contribute their last-known totals with zero
//! answered). A *typed* error from any shard — `bad_request`,
//! `corruption_detected`, a mid-batch `deadline_exceeded` — fails the
//! whole query with that error (lowest shard index wins), because the
//! monolithic server would have failed the same way.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use warptree_core::parallel::parallel_map;
use warptree_core::search::{Match, SearchStats};
use warptree_disk::{read_shard_manifest, ShardManifest};
use warptree_obs::{json as obs_json, MetricsRegistry, Trace};
use warptree_server::client::{ClientError, RetryPolicy, ShardConn};
use warptree_server::json::Json;
use warptree_server::proto::{
    self, error_response, ok_response, ErrorCode, Request, PROTO_VERSION,
};
use warptree_server::serve_core::{self, Handler, ServeHandle, SlowLog, StopThread};

use crate::merge::{
    aggregate_coverage, encode_coverage, merge_ranked, merge_threshold, parse_matches, parse_stats,
    ShardCoverage,
};

/// Configuration of a [`Coordinator`].
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Shard server addresses, one per manifest entry, **in manifest
    /// order** — address `i` must serve the index built from shard
    /// `i`'s slice, or the sequence-id remap is wrong.
    pub shard_addrs: Vec<String>,
    /// Scatter lanes per request: how many shards are queried
    /// concurrently. `1` scatters sequentially; answers are
    /// byte-identical at every setting.
    pub workers: usize,
    /// Total per-request budget. Applied as the retry policy's
    /// deadline, so retries never sleep a request past it.
    pub deadline: Duration,
    /// Per-response read timeout on every shard connection — the
    /// per-shard deadline that turns a hung shard into a down shard
    /// instead of a hung client.
    pub shard_timeout: Duration,
    /// Retry policy for shard calls (re-dial on torn connections,
    /// jittered backoff on `overloaded`). A `deadline` of `None` is
    /// replaced by [`CoordConfig::deadline`] at startup.
    pub retry: RetryPolicy,
    /// Maximum concurrent client connections.
    pub max_conns: usize,
    /// How often the health monitor polls each shard's `info`. Must be
    /// nonzero.
    pub health_interval: Duration,
    /// Slow-query threshold in milliseconds for the coordinator's own
    /// slow-query ring; `0` disables threshold capture.
    pub slow_ms: u64,
    /// Trace 1 in N requests end to end (coordinator span + one child
    /// span per shard); `0` disables sampling.
    pub trace_sample: u64,
    /// Capacity of the coordinator's slow-query ring.
    pub slowlog_capacity: usize,
}

impl Default for CoordConfig {
    fn default() -> Self {
        CoordConfig {
            addr: "127.0.0.1:0".to_string(),
            shard_addrs: Vec::new(),
            workers: 8,
            deadline: Duration::from_secs(5),
            shard_timeout: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            max_conns: 256,
            health_interval: Duration::from_millis(500),
            slow_ms: 500,
            trace_sample: 0,
            slowlog_capacity: 128,
        }
    }
}

/// The coordinator's cached view of one shard, refreshed by the health
/// monitor's `info` polls and passively by every query exchange. The
/// cache is what makes degradation honest: when a shard stops
/// answering, its last-known totals are what the coverage block
/// reports as unanswered.
#[derive(Debug, Clone)]
struct ShardInfo {
    up: bool,
    generation: u64,
    sequences: u64,
    values: u64,
    categories: u64,
    /// Live segment count (base + tails), the `segments` info field.
    segments: u64,
    quarantined: u64,
}

struct ShardState {
    addr: String,
    /// First global sequence id this shard owns (the remap offset).
    start_seq: u32,
    info: Mutex<ShardInfo>,
}

impl ShardState {
    fn snapshot(&self) -> ShardInfo {
        self.info.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    fn update(&self, f: impl FnOnce(&mut ShardInfo)) {
        let mut info = self.info.lock().unwrap_or_else(|p| p.into_inner());
        f(&mut info);
    }
}

/// Shared coordinator state.
struct CoordState {
    shards: Vec<ShardState>,
    workers: usize,
    shard_timeout: Duration,
    policy: RetryPolicy,
    registry: MetricsRegistry,
}

impl CoordState {
    fn shards_up(&self) -> usize {
        self.shards.iter().filter(|s| s.snapshot().up).count()
    }
}

/// The coordinator factory. [`Coordinator::start`] reads the `SHARDS`
/// manifest under `dir`, binds the listener, performs one synchronous
/// health poll of every shard, and serves until shutdown.
pub struct Coordinator;

impl Coordinator {
    /// Starts a coordinator for the shard layout committed under
    /// `dir`. `config.shard_addrs` must list exactly one address per
    /// manifest shard, in manifest order.
    pub fn start(dir: &Path, config: CoordConfig) -> io::Result<CoordHandle> {
        let manifest = read_shard_manifest(dir)
            .map_err(|e| io::Error::other(format!("read shard manifest: {e}")))?
            .ok_or_else(|| {
                io::Error::other(format!("no SHARDS manifest under {}", dir.display()))
            })?;
        Coordinator::start_with_manifest(&manifest, config)
    }

    /// [`Coordinator::start`] from an already-loaded manifest (tests
    /// and embedding).
    pub fn start_with_manifest(
        manifest: &ShardManifest,
        config: CoordConfig,
    ) -> io::Result<CoordHandle> {
        manifest
            .validate()
            .map_err(|e| io::Error::other(format!("invalid shard manifest: {e}")))?;
        if config.health_interval.is_zero() {
            // A zero interval would poll every shard in a hot loop.
            return Err(io::Error::other("health_interval must be nonzero"));
        }
        if config.shard_addrs.len() != manifest.shards.len() {
            return Err(io::Error::other(format!(
                "manifest has {} shards but {} addresses were given",
                manifest.shards.len(),
                config.shard_addrs.len()
            )));
        }
        let registry = MetricsRegistry::new();
        let slowlog = Arc::new(SlowLog::new(
            CoordState::PREFIX,
            config.slowlog_capacity,
            config.slow_ms,
            config.trace_sample,
            registry.clone(),
        ));
        let mut policy = config.retry.clone();
        if policy.deadline.is_none() {
            policy.deadline = Some(config.deadline);
        }
        let shards = manifest
            .shards
            .iter()
            .zip(&config.shard_addrs)
            .map(|(meta, addr)| ShardState {
                addr: addr.clone(),
                start_seq: meta.start_seq,
                // Manifest values are the fallback for a shard that
                // dies before it was ever polled: one base segment,
                // nothing quarantined, partition-time totals.
                info: Mutex::new(ShardInfo {
                    up: false,
                    generation: 0,
                    sequences: meta.seq_count as u64,
                    values: meta.values,
                    categories: 0,
                    segments: 1,
                    quarantined: 0,
                }),
            })
            .collect();
        let state = Arc::new(CoordState {
            shards,
            workers: config.workers.max(1),
            shard_timeout: config.shard_timeout,
            policy,
            registry: registry.clone(),
        });

        // One synchronous poll round so `health` is meaningful the
        // moment `start` returns (a down shard shows down, not
        // unknown).
        poll_round(&state, &mut state.connect());

        let monitor = {
            let state = state.clone();
            let interval = config.health_interval;
            StopThread::spawn("warptree-coord-health", move |stop| {
                monitor_loop(&state, interval, stop)
            })?
        };
        serve_core::serve(
            &config.addr,
            config.max_conns,
            state,
            slowlog,
            registry,
            monitor,
        )
    }
}

/// A handle to a running coordinator; the health monitor stops once
/// the drain has finished.
pub type CoordHandle = ServeHandle<StopThread>;

/// One `info` poll of every shard, refreshing the cached view.
fn poll_round(state: &CoordState, conns: &mut [ShardConn]) {
    for (shard, conn) in state.shards.iter().zip(conns.iter_mut()) {
        match conn.request(&Request::Info.encode(None)) {
            Ok(v) => {
                let field = |k: &str| v.get(k).and_then(Json::as_u64);
                shard.update(|info| {
                    info.up = true;
                    info.generation = field("generation").unwrap_or(info.generation);
                    info.sequences = field("sequences").unwrap_or(info.sequences);
                    info.values = field("values").unwrap_or(info.values);
                    info.categories = field("categories").unwrap_or(info.categories);
                    info.segments = field("segments").unwrap_or(info.segments);
                    info.quarantined = field("quarantined_segments").unwrap_or(info.quarantined);
                });
            }
            Err(_) => shard.update(|info| info.up = false),
        }
    }
    state
        .registry
        .gauge("coord.shards_up")
        .set(state.shards_up() as f64);
}

fn monitor_loop(state: &CoordState, interval: Duration, stop: &AtomicBool) {
    let mut conns = state.connect();
    while StopThread::sleep(stop, interval) {
        poll_round(state, &mut conns);
    }
}

/// A typed error frame with a shard-supplied code string, byte-shaped
/// like [`proto::error_response`] so propagated shard errors are
/// indistinguishable from locally raised ones.
fn error_frame(code: &str, message: &str) -> String {
    format!(
        "{{\"ok\":false,\"version\":{PROTO_VERSION},\"error\":{{\"code\":\"{}\",\"message\":\"{}\"}}}}",
        obs_json::escape(code),
        obs_json::escape(message)
    )
}

impl Handler for CoordState {
    /// This connection's private shard sockets, dialed lazily and
    /// re-dialed by the retry policy after transport failures.
    type Conn = Vec<ShardConn>;
    const PREFIX: &'static str = "coord";

    fn connect(&self) -> Vec<ShardConn> {
        self.shards
            .iter()
            .map(|s| ShardConn::with_timeout(s.addr.clone(), Some(self.shard_timeout)))
            .collect()
    }

    fn generation(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.snapshot().generation)
            .max()
            .unwrap_or(0)
    }

    fn control(&self, req: &Request) -> String {
        let infos: Vec<ShardInfo> = self.shards.iter().map(|s| s.snapshot()).collect();
        let up = infos.iter().filter(|i| i.up).count();
        let quarantined: u64 = infos.iter().map(|i| i.quarantined).sum();
        let generation = infos.iter().map(|i| i.generation).max().unwrap_or(0);
        match req {
            Request::Health => {
                // Degraded when any shard is unreachable (answers are
                // partial) *or* any shard has quarantined segments
                // (its answers come by sequential scan).
                let status = if up == infos.len() && quarantined == 0 {
                    "serving"
                } else {
                    "degraded"
                };
                let mut per = String::from("[");
                for (i, (info, shard)) in infos.iter().zip(&self.shards).enumerate() {
                    if i > 0 {
                        per.push(',');
                    }
                    per.push_str(&format!(
                        "{{\"index\":{i},\"addr\":\"{}\",\"up\":{},\"generation\":{},\"quarantined_segments\":{}}}",
                        obs_json::escape(&shard.addr),
                        info.up,
                        info.generation,
                        info.quarantined,
                    ));
                }
                per.push(']');
                ok_response(
                    "health",
                    &format!(
                        "\"status\":\"{status}\",\"generation\":{generation},\"quarantined_segments\":{quarantined},\"shards_total\":{},\"shards_up\":{up},\"shards\":{per}",
                        infos.len()
                    ),
                )
            }
            Request::Info => {
                let sequences: u64 = infos.iter().map(|i| i.sequences).sum();
                let values: u64 = infos.iter().map(|i| i.values).sum();
                // Shards are built against one global alphabet, so the
                // category counts agree; max tolerates unpolled shards
                // (cached 0).
                let categories = infos.iter().map(|i| i.categories).max().unwrap_or(0);
                let segments: u64 = infos.iter().map(|i| i.segments).sum();
                ok_response(
                    "info",
                    &format!(
                        "\"generation\":{generation},\"sequences\":{sequences},\"values\":{values},\"categories\":{categories},\"segments\":{segments},\"quarantined_segments\":{quarantined},\"shards_total\":{},\"shards_up\":{up},\"workers\":{}",
                        infos.len(),
                        self.workers,
                    ),
                )
            }
            Request::Stats => {
                self.registry.gauge("coord.shards_up").set(up as f64);
                proto::stats_response(&self.registry)
            }
            Request::Metrics => {
                self.registry.gauge("coord.shards_up").set(up as f64);
                proto::metrics_response(&self.registry)
            }
            other => unreachable!("{other:?} routed to control"),
        }
    }

    /// The coordinator has no admission queue, so `queue_ns` is 0.
    fn query(
        &self,
        conns: &mut Vec<ShardConn>,
        req: Request,
        trace: &Trace,
        _started: Instant,
    ) -> (String, u64) {
        let span = trace.span("coord.service");
        if span.is_active() {
            span.attr_str("op", req.op_label());
            span.attr_u64("shards", self.shards.len() as u64);
        }
        (execute(self, conns, &req, trace, span.span_id()), 0)
    }
}

/// What one shard call produced.
enum ShardReply {
    /// A parsed ok-response.
    Answer(Json),
    /// A typed error frame from a healthy shard.
    Typed { code: String, message: String },
    /// Transport failure after retries; the shard is marked down.
    Down(String),
}

/// One shard call with tracing: a child span under the coordinator's
/// service span carries the shard index, address, wall time, the
/// shard's own queue/service split, and — when the shard returned its
/// span tree — that tree verbatim, so a coordinator slowlog entry
/// attributes time per shard.
fn call_shard(
    state: &CoordState,
    idx: usize,
    conn: &mut ShardConn,
    body: &str,
    trace: &Trace,
    parent: Option<u32>,
) -> ShardReply {
    let span = trace.span_with_parent(parent, "coord.shard");
    if span.is_active() {
        span.attr_u64("shard", idx as u64);
        span.attr_str("addr", conn.addr());
    }
    let t0 = Instant::now();
    let result = conn.request_with_retry(body, &state.policy);
    if span.is_active() {
        span.attr_u64("dur_ns", t0.elapsed().as_nanos() as u64);
    }
    match result {
        Ok(v) => {
            if span.is_active() {
                if let Some(t) = v.get("timings") {
                    if let Some(q) = t.get("queue_ns").and_then(Json::as_u64) {
                        span.attr_u64("shard_queue_ns", q);
                    }
                    if let Some(s) = t.get("service_ns").and_then(Json::as_u64) {
                        span.attr_u64("shard_service_ns", s);
                    }
                }
                if let Some(tr) = v.get("trace") {
                    span.attr_str("trace", &tr.render());
                }
            }
            let generation = v.get("generation").and_then(Json::as_u64);
            state.shards[idx].update(|info| {
                info.up = true;
                if let Some(g) = generation {
                    info.generation = g;
                }
            });
            ShardReply::Answer(v)
        }
        // A typed error comes from a live shard over a healthy
        // connection; only transport failures mark the shard down.
        Err(ClientError::Server { code, message }) => {
            state.shards[idx].update(|info| info.up = true);
            state.registry.counter("coord.shard_typed_errors").incr();
            if span.is_active() {
                span.attr_str("error", &code);
            }
            ShardReply::Typed { code, message }
        }
        Err(e) => {
            state.shards[idx].update(|info| info.up = false);
            state.registry.counter("coord.shard_down_errors").incr();
            let desc = e.to_string();
            if span.is_active() {
                span.attr_str("error", &desc);
            }
            ShardReply::Down(desc)
        }
    }
}

/// Fans `body` out to every shard over up to `state.workers` lanes.
/// Replies come back in shard order, whatever order they complete in.
fn scatter(
    state: &CoordState,
    conns: &mut [ShardConn],
    body: &str,
    trace: &Trace,
    parent: Option<u32>,
) -> Vec<ShardReply> {
    let lanes = state.workers.min(conns.len());
    parallel_map(lanes, conns.iter_mut().collect(), |i, conn| {
        call_shard(state, i, conn, body, trace, parent)
    })
}

/// Outcomes of gathering one scatter: either every answering shard
/// parsed cleanly, or the query fails with a complete error frame.
struct Gathered {
    /// Parsed ok-responses in shard order (`None` = shard down).
    answers: Vec<Option<Json>>,
    /// Max generation over the answering shards' responses.
    generation: u64,
}

/// Folds scatter replies into parsed answers, applying the error
/// contract: any typed shard error fails the query (lowest shard index
/// wins), and zero answering shards is an `internal` failure naming
/// the first transport error.
fn gather(replies: Vec<ShardReply>) -> Result<Gathered, String> {
    if let Some((code, message)) = replies.iter().find_map(|r| match r {
        ShardReply::Typed { code, message } => Some((code, message)),
        _ => None,
    }) {
        return Err(error_frame(code, message));
    }
    let mut answers = Vec::with_capacity(replies.len());
    let mut generation = 0u64;
    let mut first_down: Option<(usize, String)> = None;
    for (i, r) in replies.into_iter().enumerate() {
        match r {
            ShardReply::Answer(v) => {
                if let Some(g) = v.get("generation").and_then(Json::as_u64) {
                    generation = generation.max(g);
                }
                answers.push(Some(v));
            }
            ShardReply::Down(desc) => {
                first_down.get_or_insert((i, desc));
                answers.push(None);
            }
            ShardReply::Typed { .. } => unreachable!("typed errors returned above"),
        }
    }
    if answers.iter().all(Option::is_none) {
        let (i, desc) = first_down.expect("no answers implies a down shard");
        return Err(error_response(
            ErrorCode::Internal,
            &format!("no shard answered (shard {i}: {desc})"),
        ));
    }
    Ok(Gathered {
        answers,
        generation,
    })
}

/// One shard's coverage contribution: a complete answer when it
/// `answered`, a down shard's totals from the cache otherwise.
fn coverage_of(state: &CoordState, idx: usize, answered: bool) -> ShardCoverage {
    let info = state.shards[idx].snapshot();
    if answered {
        ShardCoverage::Full {
            segments: info.segments,
            suffixes: info.values,
        }
    } else {
        ShardCoverage::Down {
            segments: info.segments,
            quarantined: info.quarantined,
            suffixes: info.values,
        }
    }
}

/// Scatters `req` to every shard (under the coordinator's trace id
/// when it is tracing, so shards return their span trees) and gathers
/// the replies.
fn scatter_gather(
    state: &CoordState,
    conns: &mut [ShardConn],
    req: &Request,
    trace: &Trace,
    parent: Option<u32>,
) -> Result<Gathered, String> {
    gather(scatter(
        state,
        conns,
        &req.encode(trace.id()),
        trace,
        parent,
    ))
}

/// The shard-side half of one merged answer. `items[i]` is shard `i`'s
/// response body (`None` = shard down): returns each answering shard's
/// `"matches"` remapped to global sequence ids, and the aggregated
/// coverage suffix (empty when every shard answered fully; a partial
/// answer is counted).
fn matches_and_coverage(
    state: &CoordState,
    items: &[Option<&Json>],
) -> Result<(Vec<Vec<Match>>, String), String> {
    let mut per_shard = Vec::with_capacity(items.len());
    let mut covs = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        covs.push(coverage_of(state, i, item.is_some()));
        if let Some(v) = item {
            let arr = v
                .get("matches")
                .ok_or_else(|| format!("shard {i} response missing \"matches\""))?;
            per_shard.push(parse_matches(arr, state.shards[i].start_seq)?);
        }
    }
    let suffix = match aggregate_coverage(&covs) {
        Some(c) => {
            state.registry.counter("coord.partial_queries").incr();
            format!(",{}", encode_coverage(&c))
        }
        None => String::new(),
    };
    Ok((per_shard, suffix))
}

/// An internal-error frame for a malformed shard response.
fn malformed(err: String) -> String {
    error_response(
        ErrorCode::Internal,
        &format!("malformed shard response: {err}"),
    )
}

/// `search`, `knn` and `explain`: scatter, gather, merge each shard's
/// matches into the one answer a monolithic server would give.
fn merged_query(
    state: &CoordState,
    conns: &mut [ShardConn],
    req: &Request,
    trace: &Trace,
    parent: Option<u32>,
) -> Result<String, String> {
    let g = scatter_gather(state, conns, req, trace, parent)?;
    let answers: Vec<Option<&Json>> = g.answers.iter().map(Option::as_ref).collect();
    let (per_shard, coverage) = matches_and_coverage(state, &answers).map_err(malformed)?;
    let mut resp = proto::ok_open(req.op_label());
    resp.push(',');
    match req {
        // Each shard's local top-k contains every global-top-k member
        // that shard holds (the ε-expansion schedule is query-derived,
        // hence identical on every shard, and overlap filtering only
        // compares same-sequence matches, which sharding co-locates),
        // so merging the local rankings and truncating to k is the
        // exact global top-k.
        Request::Knn { params, .. } => {
            let merged = merge_ranked(per_shard, params.k);
            proto::ranked_body_into(&mut resp, g.generation, &merged);
        }
        _ => {
            proto::search_body_into(&mut resp, g.generation, &merge_threshold(per_shard));
            if matches!(req, Request::Explain { .. }) {
                // Shards partition the corpus, so their counters add.
                let mut total = SearchStats::default();
                for v in answers.iter().flatten() {
                    let stats = v
                        .get("stats")
                        .ok_or_else(|| "explain response missing \"stats\"".to_string())
                        .and_then(parse_stats)
                        .map_err(malformed)?;
                    total.merge(&stats);
                }
                resp.push_str(",\"stats\":");
                resp.push_str(&proto::encode_stats(&total));
            }
        }
    }
    resp.push_str(&coverage);
    resp.push('}');
    Ok(resp)
}

/// `batch`: one scatter, then item `j` of the answer merges item `j`
/// of every answering shard's `"results"` (each a full search body
/// for that shard's slice).
fn batch_query(
    state: &CoordState,
    conns: &mut [ShardConn],
    req: &Request,
    total: usize,
    trace: &Trace,
    parent: Option<u32>,
) -> Result<String, String> {
    let g = scatter_gather(state, conns, req, trace, parent)?;
    let mut shard_items: Vec<Option<&[Json]>> = Vec::with_capacity(g.answers.len());
    for (i, a) in g.answers.iter().enumerate() {
        shard_items.push(match a {
            None => None,
            Some(v) => match v.get("results").and_then(Json::as_arr) {
                Some(items) if items.len() == total => Some(items),
                Some(items) => {
                    return Err(malformed(format!(
                        "shard {i} answered {} of {total} batch items",
                        items.len()
                    )))
                }
                None => return Err(malformed(format!("shard {i} response missing \"results\""))),
            },
        });
    }
    let mut resp = proto::ok_open("batch");
    let _ = write!(resp, ",\"generation\":{},\"results\":[", g.generation);
    for j in 0..total {
        let items: Vec<Option<&Json>> = shard_items
            .iter()
            .map(|items| items.map(|items| &items[j]))
            .collect();
        let (per_shard, coverage) = matches_and_coverage(state, &items).map_err(malformed)?;
        if j > 0 {
            resp.push(',');
        }
        resp.push('{');
        proto::search_body_into(&mut resp, g.generation, &merge_threshold(per_shard));
        resp.push_str(&coverage);
        resp.push('}');
    }
    resp.push_str("]}");
    Ok(resp)
}

/// `ingest`: appends extend the *last* shard. It owns the tail of the
/// global sequence-id space, so new sequences keep the contiguous-range
/// remap intact (global id = its start_seq + local id).
fn ingest(
    state: &CoordState,
    conns: &mut [ShardConn],
    req: &Request,
    trace: &Trace,
    parent: Option<u32>,
) -> Result<String, String> {
    let last = conns.len() - 1;
    let body = req.encode(None);
    let v = match call_shard(state, last, &mut conns[last], &body, trace, parent) {
        ShardReply::Answer(v) => v,
        ShardReply::Typed { code, message } => return Err(error_frame(&code, &message)),
        ShardReply::Down(desc) => {
            return Err(error_response(
                ErrorCode::Internal,
                &format!("ingest shard {last} unavailable: {desc}"),
            ))
        }
    };
    let field = |k: &str| {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| malformed(format!("ingest response missing \"{k}\"")))
    };
    let (g, n, segs) = (
        field("generation")?,
        field("sequences")?,
        field("segments")?,
    );
    state.shards[last].update(|info| {
        info.sequences += n;
        info.segments = segs;
    });
    Ok(ok_response(
        "ingest",
        &format!("\"generation\":{g},\"sequences\":{n},\"segments\":{segs},\"shard\":{last}"),
    ))
}

fn execute(
    state: &CoordState,
    conns: &mut [ShardConn],
    req: &Request,
    trace: &Trace,
    parent: Option<u32>,
) -> String {
    let result = match req {
        Request::Search { .. } | Request::Knn { .. } | Request::Explain { .. } => {
            merged_query(state, conns, req, trace, parent)
        }
        Request::Batch { queries, .. } => {
            batch_query(state, conns, req, queries.len(), trace, parent)
        }
        Request::Ingest { .. } => ingest(state, conns, req, trace, parent),
        Request::DebugSleep { .. } => Err(error_response(
            ErrorCode::BadRequest,
            "debug ops are not coordinated",
        )),
        control => unreachable!("control op {control:?} reached execute"),
    };
    match result {
        Ok(resp) => {
            state.registry.counter("coord.requests_ok").incr();
            resp
        }
        // Already a complete error frame.
        Err(resp) => resp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_frames_match_proto_shape() {
        assert_eq!(
            error_frame("overloaded", "queue full"),
            error_response(ErrorCode::Overloaded, "queue full")
        );
        assert_eq!(
            error_frame("corruption_detected", "bad page"),
            error_response(ErrorCode::CorruptionDetected, "bad page")
        );
    }

    #[test]
    fn start_rejects_address_count_mismatch() {
        let manifest = ShardManifest {
            generation: 1,
            shards: vec![warptree_disk::ShardMeta {
                dir: "shard-0000".into(),
                start_seq: 0,
                seq_count: 1,
                values: 4,
            }],
        };
        let config = CoordConfig {
            shard_addrs: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
            ..CoordConfig::default()
        };
        let err = match Coordinator::start_with_manifest(&manifest, config) {
            Ok(_) => panic!("mismatched address count must be rejected"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("1 shards but 2 addresses"));
    }
}
