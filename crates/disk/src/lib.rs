#![warn(missing_docs)]

//! # warptree-disk
//!
//! Disk-based suffix-tree storage for the Park et al. (ICDE 2000) index:
//!
//! * [`pager`] — paged files with per-page CRC-32, written in page runs
//!   and read back whole ([`read_stream`]): every file is read once, at
//!   open, and no query reads a page;
//! * [`format`](mod@format) / [`writer`] — the tree file format, written post-order in
//!   one sequential pass; [`DiskTree`] serves queries from the file's
//!   bytes, decoding each node record in place, through the same
//!   [`IndexBackend`](warptree_core::search::IndexBackend) trait the
//!   in-memory tree implements;
//! * [`merge`] — binary merge of tree files and the [`IncrementalBuilder`]
//!   that constructs a large index batch-by-batch in limited memory
//!   (paper §4.1, after Bieganski et al.);
//! * [`corpus`] — persistence for the sequence database and its
//!   categorization;
//! * [`manifest`] — atomic directory commits (temp file + rename +
//!   directory fsync + CRC-protected `MANIFEST`), recovery on open, and
//!   the one check of a committed file that verification and scrub run;
//! * [`segment`] — LSM-style online ingest: appends commit as small
//!   tail segments over just the new suffixes, and a compactor folds
//!   segments back together with the binary merge, one manifest
//!   generation per step;
//! * [`snapshot`] — the opened directory ([`DirSnapshot`]: corpus, base
//!   tree, tail segments, fan-out querying), its one open routine with
//!   and without the recovery sweep, and a cheap manifest poll — the
//!   reload primitives of a live server;
//! * [`vfs`] — the injectable filesystem every write path goes through,
//!   with a fault-injecting implementation for crash-consistency tests;
//! * [`esa`](mod@esa) / [`any`] — the enhanced-suffix-array file format
//!   (an alternative [`IndexBackend`](warptree_core::search::IndexBackend)
//!   with identical traversal semantics) and the [`AnyIndex`] dispatch
//!   value the layers above use to stay backend-agnostic.

pub mod any;
pub mod corpus;
pub mod crc;
mod cursor;
pub mod error;
pub mod esa;
pub mod format;
pub mod manifest;
pub mod merge;
pub mod pager;
pub mod segment;
pub mod shard;
pub mod snapshot;
pub mod vfs;
pub mod writer;

pub use any::{index_shape, AnyIndex, AnyNode, IndexShape};
pub use corpus::{corpus_decimals, load_corpus, load_corpus_with, save_corpus, save_corpus_with};
pub use error::{DiskError, Result};
pub use esa::{write_esa, write_esa_with, DiskEsa, EsaHeader};
pub use format::{DiskNode, DiskTree, Header, NodeView};
pub use manifest::{
    build_dir_backend_with, build_dir_metered, build_dir_with, commit_dir_backend_with,
    commit_update_with, quarantine_segment_with, recover_dir_with, resolve_dir_with,
    segment_file_name, verify_dir_with, FileCheck, Manifest, RecoveryReport, ResolvedDir,
    SegmentMeta, VerifyReport, MANIFEST_NAME,
};
pub use merge::{merge_trees, merge_trees_with, IncrementalBuilder, TreeKind};
pub use pager::{read_stream, IoStats, PagedWriter, PAGE_DATA, PAGE_SIZE};
pub use segment::{
    append_segment, append_segment_with, compact_all_with, compact_once, compact_once_with,
    heal_segment_with, scrub_dir_with, ScrubReport,
};
pub use shard::{
    read_shard_manifest, read_shard_manifest_with, write_shard_manifest, write_shard_manifest_with,
    ShardManifest, ShardMeta, SHARD_MANIFEST_NAME,
};
pub use snapshot::{
    committed_generation_with, open_dir_recovered_with, open_dir_snapshot_with, DirSnapshot,
};
pub use vfs::{real_vfs, FaultMode, FaultVfs, MeteredVfs, RealVfs, TempGuard, Vfs, VfsFile};
pub use writer::{write_tree, write_tree_with};
