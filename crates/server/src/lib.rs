#![warn(missing_docs)]

//! # warptree-server
//!
//! Concurrent query serving for the warptree index — the paper's
//! economics (one shared suffix-tree index amortized over many
//! `D_tw-lb`-filtered queries, §5–§6) realized as a long-running
//! process instead of a per-invocation CLI.
//!
//! Everything here is `std`-only (the workspace builds offline):
//!
//! * [`json`] — a minimal JSON value parser for the wire protocol.
//! * [`proto`] — length-prefixed JSON framing, request parsing and
//!   response/error encoding (typed error codes, e.g. `overloaded`).
//! * [`pool`] — the admission gate: at most `workers` queries run at
//!   once, a **bounded** FIFO of waiters behind them, `overloaded`
//!   beyond it — admission control instead of unbounded latency.
//! * [`snapshot`] — an `Arc`-swapped immutable
//!   [`DirSnapshot`](warptree_disk::DirSnapshot) plus the hot-reload
//!   watcher that polls the commit `MANIFEST` and swaps generations
//!   without dropping requests.
//! * [`serve_core`] — the one serving loop shared with the shard
//!   coordinator: accept, connection cap, framing, parse, per-query
//!   tracing, the slow-query ring, graceful drain on shutdown.
//! * [`server`] — the shard server's handler under that loop: gate
//!   admission, per-request deadlines, ingest, background
//!   compaction and scrubbing.
//! * [`http`] — the plain-HTTP `GET /metrics` Prometheus exposition
//!   endpoint (enabled by `ServerConfig::metrics_addr`).
//! * [`client`] — a blocking protocol client with jittered-backoff
//!   retries for `overloaded` rejections and transport failures.
//! * [`bench`] — an open/closed-loop load generator producing the
//!   committed `BENCH_serve.json` throughput/latency report.
//! * [`chaos`] — a deterministic fault-injecting stream wrapper
//!   (torn/dropped/stalled frames) for the chaos test harness.
//! * [`signal`] — SIGINT/SIGTERM → shutdown-flag plumbing.
//!
//! ## Serving contract
//!
//! Queries run through the typed [`QueryRequest`] API
//! (`warptree_core::search`), validated before execution, so malformed
//! input returns a typed error frame and can never kill a connection.
//! Every query executes against one `Arc<DirSnapshot>` taken at
//! dispatch, so a mid-traffic generation commit is invisible to
//! in-flight requests: they finish on the old snapshot while new
//! requests see the new one; the old generation is freed when its last
//! request completes. `ingest` frames append tail
//! segments under a writer mutex shared with the background compaction
//! worker and republish the snapshot before acking, so a connection
//! reads its own writes.
//!
//! [`QueryRequest`]: warptree_core::search::QueryRequest

pub mod bench;
pub mod chaos;
pub mod client;
pub mod http;
pub mod json;
pub mod pool;
pub mod proto;
pub mod serve_core;
pub mod server;
pub mod signal;
pub mod snapshot;

pub use bench::{BenchConfig, BenchReport, LoopMode};
pub use chaos::{ChaosConfig, ChaosStream};
pub use client::{Client, ClientError, RetryPolicy, ShardConn};
pub use json::Json;
pub use proto::{ErrorCode, ParseError, Request, MAX_FRAME, PROTO_VERSION};
pub use serve_core::{Handler, ServeHandle, SlowLog, StopThread};
pub use server::{Server, ServerConfig, ServerHandle};
pub use snapshot::SnapshotCell;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_contract_is_send_sync() {
        // The server shares these across the accept loop, connection
        // threads and the reload watcher; assert the contract
        // at compile time.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SnapshotCell>();
        assert_send_sync::<pool::Gate>();
        assert_send_sync::<warptree_disk::DirSnapshot>();
        assert_send_sync::<warptree_obs::MetricsRegistry>();
        assert_send_sync::<warptree_core::search::SearchMetrics>();
    }
}
