//! Horizontal sharding for the warptree index.
//!
//! This crate turns N independent shard servers — each an ordinary
//! `warptree-server` over its own slice of the corpus — into one
//! logical index behind a single address. The pieces:
//!
//! - a **shard manifest** (`warptree-disk`'s CRC'd, generational
//!   `SHARDS` file) committing which contiguous range of global
//!   sequence ids each shard owns, so sequence-id remapping is pure
//!   arithmetic;
//! - the **[`coordinator`]**: a TCP server speaking the same framed
//!   protocol as a shard, scattering every query over the fleet and
//!   gathering answers with the same deterministic `(seq, start)`
//!   merge order the segment layer proves — answers are byte-identical
//!   to a monolithic server over the same corpus;
//! - the **[`merge`]** module: the pure parse/merge/aggregate layer,
//!   unit-testable without sockets.
//!
//! The coordinator runs under the same serving loop as a shard server
//! (`warptree_server::serve_core`), slow-query ring included; a traced
//! entry nests one child span per shard, so slow fan-outs attribute
//! their latency.
//!
//! Degradation is honest: a shard that stops answering makes results
//! `"partial":true` with a coverage block aggregated across shards,
//! and the coordinator's `health` op reports per-shard status. A shard
//! that answers always answers completely: a damaged index of its own
//! answers by sequential scan.

#![warn(missing_docs)]

pub mod coordinator;
pub mod merge;

pub use coordinator::{CoordConfig, CoordHandle, Coordinator};
pub use merge::{
    aggregate_coverage, encode_coverage, merge_ranked, merge_threshold, parse_matches, parse_stats,
    Coverage, ShardCoverage,
};
