//! The load generator behind `warptree bench-client`.
//!
//! Drives a running server with a configurable number of connections
//! in either **closed-loop** (each connection sends its next request
//! the moment the previous response lands — measures capacity) or
//! **open-loop** (requests are launched on a fixed schedule regardless
//! of response times — measures behaviour at a target arrival rate,
//! exposing queueing delay the closed loop hides) mode.
//!
//! Requests cycle deterministically through a query set and an ε mix
//! (by default the ε ladder of the paper's Table-3-style experiments),
//! so two runs against the same corpus issue the same request
//! sequence. The report ([`BenchReport`]) carries throughput and
//! latency quantiles and serializes to the committed
//! `BENCH_serve.json`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::client::{search_request_v4, Client, ClientError, ShardConn};

/// How connections pace their requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoopMode {
    /// Send the next request as soon as the response arrives.
    Closed,
    /// Send on a fixed schedule of `rate` requests/second across all
    /// connections; a connection that falls behind schedule sends
    /// immediately (no coordinated omission correction beyond
    /// measuring from the *scheduled* start).
    Open {
        /// Target aggregate arrival rate, requests per second.
        rate: f64,
    },
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Concurrent connections.
    pub connections: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Pacing mode.
    pub mode: LoopMode,
    /// ε values cycled across requests.
    pub epsilons: Vec<f64>,
    /// Optional warping window applied to every request.
    pub window: Option<u32>,
    /// Query pool cycled across requests. Must be non-empty.
    pub queries: Vec<Vec<f64>>,
}

/// One request's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok,
    Overloaded,
    Deadline,
    OtherError,
}

/// Aggregated results of a bench run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Requests sent (i.e. attempted; transport failures included).
    pub sent: u64,
    /// Successful responses.
    pub ok: u64,
    /// Typed `overloaded` rejections.
    pub overloaded: u64,
    /// Typed `deadline_exceeded` failures.
    pub deadline_exceeded: u64,
    /// Every other failure (transport, protocol, other server errors).
    pub errors: u64,
    /// Connect/reconnect failures and connections lost mid-exchange
    /// (reset, torn frame). Each also counts toward `errors`; this
    /// breaks out the transport share so a run against a flaky or
    /// restarting server reports *how* it failed, not just how much.
    pub conn_failures: u64,
    /// Total matches reported across successful responses.
    pub matches: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Successful responses per second.
    pub throughput: f64,
    /// Latency of successful requests, microseconds: p50.
    pub p50_us: u64,
    /// p95 latency, microseconds.
    pub p95_us: u64,
    /// p99 latency, microseconds.
    pub p99_us: u64,
    /// Maximum latency, microseconds.
    pub max_us: u64,
    /// Server-reported queue wait (arrival → admission), microseconds:
    /// `[p50, p95, p99]`. Split out of end-to-end latency via the
    /// protocol-v4 `"timings"` object, so an overloaded run shows
    /// *where* the time went — waiting for a turn vs. doing the
    /// search.
    pub queue_wait_us: [u64; 3],
    /// Server-reported service time (admission → response built),
    /// microseconds: `[p50, p95, p99]`.
    pub service_us: [u64; 3],
    /// What the server's own timings leave of each ok request's
    /// latency — latency − queue wait − service — microseconds:
    /// `[p50, p95]`. This is the wire, both kernels' socket paths, the
    /// client's response parse and (open loop) how late the generator
    /// ran; a reply held back by the transport shows here and nowhere
    /// in the server's split.
    pub unattributed_us: [u64; 2],
    /// Echo of the run shape for the committed artifact.
    pub connections: usize,
    /// Pacing mode (`"closed"` or `"open@<rate>"`).
    pub mode: String,
}

impl BenchReport {
    /// Serializes the report as one JSON object (the `BENCH_serve.json`
    /// schema).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"connections\":{},\"mode\":\"{}\",\"sent\":{},\"ok\":{},\"overloaded\":{},\"deadline_exceeded\":{},\"errors\":{},\"conn_failures\":{},\"matches\":{},\"elapsed_ms\":{},\"throughput_rps\":{},\"latency_us\":{{\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}},\"queue_wait_us\":{{\"p50\":{},\"p95\":{},\"p99\":{}}},\"service_us\":{{\"p50\":{},\"p95\":{},\"p99\":{}}},\"unattributed_us\":{{\"p50\":{},\"p95\":{}}}}}",
            self.connections,
            warptree_obs::json::escape(&self.mode),
            self.sent,
            self.ok,
            self.overloaded,
            self.deadline_exceeded,
            self.errors,
            self.conn_failures,
            self.matches,
            self.elapsed.as_millis(),
            warptree_obs::json::num((self.throughput * 100.0).round() / 100.0),
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.max_us,
            self.queue_wait_us[0],
            self.queue_wait_us[1],
            self.queue_wait_us[2],
            self.service_us[0],
            self.service_us[1],
            self.service_us[2],
            self.unattributed_us[0],
            self.unattributed_us[1],
        )
    }
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs the load generator to completion and aggregates the report.
///
/// Errors only on setup problems (no queries, connect failure);
/// per-request failures are counted, not fatal — measuring a server
/// *while it rejects* is the point of the overload experiments.
pub fn run(config: &BenchConfig) -> Result<BenchReport, ClientError> {
    if config.queries.is_empty() {
        return Err(ClientError::Protocol(
            "bench needs at least one query".into(),
        ));
    }
    if config.epsilons.is_empty() {
        return Err(ClientError::Protocol(
            "bench needs at least one epsilon".into(),
        ));
    }
    let connections = config.connections.max(1);
    // Pre-render every request body; the generator then does no JSON
    // work on the hot path.
    let bodies: Vec<String> = (0..config.requests)
        .map(|i| {
            let q = &config.queries[i % config.queries.len()];
            let eps = config.epsilons[i % config.epsilons.len()];
            // Version 4: the response's "timings" object splits queue
            // wait from service time server-side.
            search_request_v4(q, eps, config.window)
        })
        .collect();
    // Fail fast if the server is unreachable before spawning threads.
    Client::connect(&config.addr)?.health()?;

    let next = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let interval = match config.mode {
        LoopMode::Open { rate } if rate > 0.0 => Some(Duration::from_secs_f64(1.0 / rate)),
        _ => None,
    };

    let mut threads = Vec::new();
    for _ in 0..connections {
        let addr = config.addr.clone();
        let bodies = bodies.clone();
        let next = next.clone();
        threads.push(std::thread::spawn(move || {
            let mut latencies: Vec<u64> = Vec::new();
            let mut queue_waits: Vec<u64> = Vec::new();
            let mut services: Vec<u64> = Vec::new();
            let mut unattributed: Vec<u64> = Vec::new();
            let mut counts = [0u64; 4]; // indexed by Outcome
            let mut matches = 0u64;
            let mut sent = 0u64;
            // Connections are (re)dialed lazily per request: a broken
            // socket or refused connect costs *that request* (counted
            // by the ShardConn), never the rest of the thread's run —
            // measuring a server while it drops connections is part of
            // the point.
            let mut conn = ShardConn::with_timeout(&addr, Some(Duration::from_secs(30)));
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                if i >= bodies.len() {
                    break;
                }
                // Open loop: measure from the *scheduled* start, so
                // time spent waiting behind a slow server counts as
                // latency instead of silently stretching the run.
                let scheduled = interval.map(|iv| started + iv.mul_f64(i as f64));
                if let Some(t) = scheduled {
                    let now = Instant::now();
                    if t > now {
                        std::thread::sleep(t - now);
                    }
                }
                let t0 = scheduled.unwrap_or_else(Instant::now);
                sent += 1;
                let outcome = match conn.request(&bodies[i]) {
                    Ok(v) => {
                        let latency_us = t0.elapsed().as_micros() as u64;
                        latencies.push(latency_us);
                        matches += v
                            .get("count")
                            .and_then(crate::json::Json::as_u64)
                            .unwrap_or(0);
                        let timing = |k: &str| {
                            v.get("timings")
                                .and_then(|t| t.get(k))
                                .and_then(crate::json::Json::as_u64)
                        };
                        if let (Some(q), Some(s)) = (timing("queue_ns"), timing("service_ns")) {
                            queue_waits.push(q / 1000);
                            services.push(s / 1000);
                            unattributed.push(latency_us.saturating_sub((q + s) / 1000));
                        }
                        Outcome::Ok
                    }
                    Err(ClientError::Server { ref code, .. }) if code == "overloaded" => {
                        Outcome::Overloaded
                    }
                    Err(ClientError::Server { ref code, .. }) if code == "deadline_exceeded" => {
                        Outcome::Deadline
                    }
                    // Dial failures and torn connections were already
                    // counted (and the dead socket dropped) by the
                    // ShardConn; they land here as plain errors.
                    Err(_) => Outcome::OtherError,
                };
                counts[outcome as usize] += 1;
            }
            (
                latencies,
                queue_waits,
                services,
                unattributed,
                counts,
                conn.conn_failures(),
                matches,
                sent,
            )
        }));
    }

    let mut latencies: Vec<u64> = Vec::new();
    let mut queue_waits: Vec<u64> = Vec::new();
    let mut services: Vec<u64> = Vec::new();
    let mut unattributed: Vec<u64> = Vec::new();
    let mut counts = [0u64; 4];
    let mut conn_failures = 0u64;
    let mut matches = 0u64;
    let mut sent = 0u64;
    for t in threads {
        let (l, qw, sv, un, c, cf, m, s) = t.join().expect("bench thread");
        latencies.extend(l);
        queue_waits.extend(qw);
        services.extend(sv);
        unattributed.extend(un);
        for (acc, v) in counts.iter_mut().zip(c) {
            *acc += v;
        }
        conn_failures += cf;
        matches += m;
        sent += s;
    }
    let elapsed = started.elapsed();
    latencies.sort_unstable();
    queue_waits.sort_unstable();
    services.sort_unstable();
    unattributed.sort_unstable();
    let ok = counts[Outcome::Ok as usize];
    Ok(BenchReport {
        sent,
        ok,
        overloaded: counts[Outcome::Overloaded as usize],
        deadline_exceeded: counts[Outcome::Deadline as usize],
        errors: counts[Outcome::OtherError as usize],
        conn_failures,
        matches,
        elapsed,
        throughput: ok as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: quantile(&latencies, 0.50),
        p95_us: quantile(&latencies, 0.95),
        p99_us: quantile(&latencies, 0.99),
        max_us: latencies.last().copied().unwrap_or(0),
        queue_wait_us: [
            quantile(&queue_waits, 0.50),
            quantile(&queue_waits, 0.95),
            quantile(&queue_waits, 0.99),
        ],
        service_us: [
            quantile(&services, 0.50),
            quantile(&services, 0.95),
            quantile(&services, 0.99),
        ],
        unattributed_us: [quantile(&unattributed, 0.50), quantile(&unattributed, 0.95)],
        connections,
        mode: match config.mode {
            LoopMode::Closed => "closed".to_string(),
            LoopMode::Open { rate } => format!("open@{rate}"),
        },
    })
}

/// The default ε mix: the quick-scale ladder used throughout the
/// repo's Table-3-style experiments.
pub fn default_epsilons() -> Vec<f64> {
    vec![2.5, 5.0, 10.0, 15.0, 20.0, 25.0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_pick_expected_ranks() {
        let v: Vec<u64> = (0..=100).collect(); // 101 samples, value == index
        assert_eq!(quantile(&v, 0.50), 50);
        assert_eq!(quantile(&v, 0.95), 95);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn report_serializes_to_stable_schema() {
        let r = BenchReport {
            sent: 10,
            ok: 8,
            overloaded: 1,
            deadline_exceeded: 0,
            errors: 1,
            conn_failures: 1,
            matches: 42,
            elapsed: Duration::from_millis(500),
            throughput: 16.0,
            p50_us: 100,
            p95_us: 200,
            p99_us: 300,
            max_us: 400,
            queue_wait_us: [5, 40, 80],
            service_us: [95, 160, 220],
            unattributed_us: [12, 31],
            connections: 4,
            mode: "closed".to_string(),
        };
        let v = crate::json::parse(&r.to_json()).unwrap();
        assert_eq!(v.get("ok").and_then(crate::json::Json::as_u64), Some(8));
        assert_eq!(
            v.get("conn_failures").and_then(crate::json::Json::as_u64),
            Some(1)
        );
        assert_eq!(
            v.get("latency_us")
                .and_then(|l| l.get("p99"))
                .and_then(crate::json::Json::as_u64),
            Some(300)
        );
        assert_eq!(
            v.get("queue_wait_us")
                .and_then(|l| l.get("p95"))
                .and_then(crate::json::Json::as_u64),
            Some(40)
        );
        assert_eq!(
            v.get("service_us")
                .and_then(|l| l.get("p50"))
                .and_then(crate::json::Json::as_u64),
            Some(95)
        );
        assert_eq!(
            v.get("unattributed_us")
                .and_then(|l| l.get("p95"))
                .and_then(crate::json::Json::as_u64),
            Some(31)
        );
        assert_eq!(
            v.get("throughput_rps").and_then(crate::json::Json::as_f64),
            Some(16.0)
        );
    }
}
