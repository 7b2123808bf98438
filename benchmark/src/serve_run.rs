//! `serve-broad`: the `lib-broad` query class sent as protocol-v4
//! `search` requests over one TCP connection to an in-process
//! `Server::start` with one worker — closed loop, one client.

use std::cell::RefCell;
use std::path::Path;
use std::time::Instant;

use warptree::core::search::Match;
use warptree::server::client::search_request_v4;
use warptree::server::proto::encode_matches;
use warptree::server::{json, Client, Json, Request, Server, ServerConfig, ServerHandle};

use crate::common::{
    agrees_with_seq_scan, digest, ms_since, peak_rss_mb, query_index, ratio, sample_positions,
    timed_op, timed_passes, Budget, OpResult, SERVE_CACHE_PAGES,
};
use crate::inputs::Inputs;
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::tmp::TempRoot;
use crate::trace::Tracer;
use crate::{coord_run, lib_run};

/// `warptree serve --workers 1`: every other knob at the CLI's default.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        cache_pages: SERVE_CACHE_PAGES,
        cache_nodes: SERVE_CACHE_PAGES * 8,
        ..ServerConfig::default()
    }
}

/// Starts a server on `dir` and returns it with a connected client and
/// the seconds from `Server::start` to the first healthy reply.
pub fn start_server(dir: &Path) -> (ServerHandle, Client, f64) {
    let t = Instant::now();
    let handle = Server::start(dir, server_config()).expect("starting the in-process server");
    let mut client = Client::connect(handle.addr()).expect("connecting to the in-process server");
    client.health().expect("first health reply");
    (handle, client, t.elapsed().as_secs_f64())
}

/// The answers of a parsed `search` response, `None` unless it is an
/// `ok` response with a well-formed `matches` array.
pub fn wire_matches(v: &Json) -> Option<Vec<Match>> {
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return None;
    }
    warptree::coord::parse_matches(v.get("matches")?, 0).ok()
}

/// Per-request samples the traced passes collect for the `server.*`
/// layer metrics.
#[derive(Default)]
struct WireSamples {
    queue_ms: Vec<f64>,
    service_ms: Vec<f64>,
    raw_ms: Vec<f64>,
    parse_ms: Vec<f64>,
    unattributed_ms: Vec<f64>,
    bytes: Vec<f64>,
    matches: u64,
}

impl WireSamples {
    fn report(&self, tr: &Tracer, out: &mut Outcome) {
        out.set("server.queue_ms_p50", percentile(&self.queue_ms, 0.5));
        out.set("server.service_ms_p50", percentile(&self.service_ms, 0.5));
        out.set("server.client.raw_ms_p50", percentile(&self.raw_ms, 0.5));
        out.set("server.json.parse_ms_p50", percentile(&self.parse_ms, 0.5));
        out.set(
            "server.unattributed_ms_p50",
            percentile(&self.unattributed_ms, 0.5),
        );
        let bytes: f64 = self.bytes.iter().sum();
        let parse: f64 = self.parse_ms.iter().sum();
        out.set("server.json.ns_per_byte", ratio(parse * 1e6, bytes));
        let total: f64 = tr.self_ms().values().map(|v| v.iter().sum::<f64>()).sum();
        out.set("server.json.share", ratio(parse, total));
        out.set("server.response_bytes_p50", percentile(&self.bytes, 0.5));
        out.set("server.response_bytes_p95", percentile(&self.bytes, 0.95));
        out.set("server.bytes_per_match", ratio(bytes, self.matches as f64));
    }
}

/// One traced request: `Client::request` taken apart into
/// `request_raw` and `json::parse`, each in its span, with the
/// server's own queue/service split hung under the raw span.
fn traced_request(
    client: &mut Client,
    body: &str,
    tr: &mut Tracer,
    id: u32,
    w: &mut WireSamples,
) -> Option<Vec<Match>> {
    tr.enter("server.client.raw", id);
    let t = Instant::now();
    let raw = client.request_raw(body);
    let raw_ms = ms_since(t);
    let raw_span = tr.exit();
    let raw = raw.ok()?;
    tr.enter("server.json.parse", id);
    let t = Instant::now();
    let parsed = json::parse(&raw);
    let parse_ms = ms_since(t);
    tr.exit();
    let v = parsed.ok()?;
    let timing = |k: &str| {
        v.get("timings")
            .and_then(|t| t.get(k))
            .and_then(Json::as_u64)
    };
    let (queue_ns, service_ns) = (timing("queue_ns")?, timing("service_ns")?);
    if let Some(span) = raw_span {
        tr.add_child(span, "server.queue", 0, queue_ns);
        tr.add_child(span, "server.service", queue_ns, service_ns);
    }
    let matches = wire_matches(&v)?;
    w.queue_ms.push(queue_ns as f64 / 1e6);
    w.service_ms.push(service_ns as f64 / 1e6);
    w.raw_ms.push(raw_ms);
    w.parse_ms.push(parse_ms);
    w.unattributed_ms
        .push(raw_ms - (queue_ns + service_ns) as f64 / 1e6);
    w.bytes.push(raw.len() as f64);
    w.matches += matches.len() as u64;
    Some(matches)
}

/// Runs `serve-broad`.
pub fn run(
    inputs: &Inputs,
    budget: &Budget,
    tr: &mut Tracer,
    tmp: &mut TempRoot,
    out: &mut Outcome,
) {
    // A repetition of the set-up here is build + `Server::start` up to
    // the first healthy reply; the server opens the directory itself.
    let (built, mut times) = lib_run::first_setup(inputs, tmp);
    let open_s = times.rest_s[0];
    let (handle, mut client, start_s) = start_server(&built.dir);
    times.rest_s[0] = start_s;
    let mut set_up_again = || {
        times.again(inputs, tmp, |dir| {
            let (handle, client, secs) = start_server(dir);
            drop(client);
            handle.stop();
            secs
        })
    };
    out.note(
        "server",
        "in-process Server::start, workers = 1, 1 connection",
    );

    // Oracle: in-process answers against seq_scan, wire answers against
    // the in-process ones, byte for byte. These requests also warm the
    // server and the connection.
    let warm = Instant::now();
    let params = inputs.params();
    let bodies: Vec<String> = inputs
        .queries
        .iter()
        .map(|q| search_request_v4(q, inputs.epsilon, inputs.window))
        .collect();
    let mut expected = vec![None; bodies.len()];
    let mut off = Tracer::new(false);
    for i in sample_positions(bodies.len()) {
        let q = &inputs.queries[i];
        let (answers, _) = query_index(&built.idx, q, &params, &mut off, 0);
        let wire = client.request_raw(&bodies[i]).unwrap_or_default();
        let want = format!("\"matches\":{}", encode_matches(answers.matches()));
        if !agrees_with_seq_scan(&inputs.store, q, &params, &answers) || !wire.contains(&want) {
            out.oracle_mismatches += 1;
        }
        expected[i] = Some(digest(answers.matches()));
    }
    out.set("bench.warm_ms", ms_since(warm));

    let wire = RefCell::new(WireSamples::default());
    let mut op = |i: usize, tr: &mut Tracer, id: u32| {
        let (matches, ms) = timed_op(tr, id, |tr| {
            if tr.on() {
                traced_request(&mut client, &bodies[i], tr, id, &mut wire.borrow_mut())
            } else {
                client
                    .request(&bodies[i])
                    .ok()
                    .as_ref()
                    .and_then(wire_matches)
            }
        });
        OpResult {
            ms,
            digest: matches.map(|m| digest(&m)),
        }
    };
    let passes = timed_passes(budget, &mut expected, tr, &mut op, &mut set_up_again);
    let wire = wire.take();
    while set_up_again() {}
    lib_run::report_setup(inputs, &built, &times, open_s, out);
    lib_run::report_passes(&passes, &expected, out);

    if tr.on() {
        out.set(
            "obs.trace_overhead_ratio",
            lib_run::trace_overhead(&passes, &mut op),
        );
        // Time inside `request_raw` that the server's own timings do not
        // cover is reported as unattributed, not as a layer.
        out.set("trace.coverage_ratio", tr.coverage(&["server.client.raw"]));
        wire.report(tr, out);
        let parse_us: Vec<f64> = bodies
            .iter()
            .map(|b| {
                let t = Instant::now();
                std::hint::black_box(Request::parse(b.as_bytes(), false).is_ok());
                ms_since(t) * 1e3
            })
            .collect();
        out.set("server.proto.parse_request_us", median(&parse_us));
        out.oracle_mismatches +=
            coord_run::replay(inputs, &mut client, &bodies, &expected, tmp, out);
        out.set("bench.peak_rss_mb", peak_rss_mb());
    }
    drop(client);
    handle.stop();
}
