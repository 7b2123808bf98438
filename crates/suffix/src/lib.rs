#![warn(missing_docs)]

//! # warptree-suffix
//!
//! In-memory generalized suffix trees over categorized sequences — the
//! index structures of Park et al. (ICDE 2000):
//!
//! * [`build_full`] — the full generalized suffix tree (`ST` / `ST_C`),
//!   built in linear time with Ukkonen's algorithm;
//! * [`build_sparse`] — the sparse suffix tree (`SST_C`, paper §6.1)
//!   storing only suffixes whose first symbol differs from its
//!   predecessor;
//! * [`build_full_naive`] — a quadratic reference builder used to
//!   validate Ukkonen structurally.
//!
//! All trees implement
//! [`IndexBackend`](warptree_core::search::IndexBackend), so the
//! core crate's `run_query` runs over them directly.
//!
//! ```
//! use std::sync::Arc;
//! use warptree_core::prelude::*;
//! use warptree_suffix::build_full;
//!
//! let store = SequenceStore::from_values(vec![vec![1.0, 5.0, 5.5, 1.0]]);
//! let alphabet = Alphabet::equal_length(&store, 2).unwrap();
//! let cat = Arc::new(alphabet.encode_store(&store));
//! let tree = build_full(cat);
//!
//! let req = QueryRequest::threshold(&[5.0, 5.0], 1.0);
//! let (out, _stats) = run_query(&tree, &alphabet, &store, &req).unwrap();
//! assert!(out
//!     .into_answer_set()
//!     .matches()
//!     .iter()
//!     .any(|m| m.occ.start == 1 && m.occ.len == 2));
//! ```

pub mod build;
pub mod index_impl;
pub mod tree;
pub mod ukkonen;

pub use build::{
    build_full_naive, build_full_truncated, build_sparse, build_sparse_range,
    build_sparse_truncated, build_truncated_range, compaction_ratio, insert_suffix,
    insert_suffix_prefix, TruncateSpec,
};
pub use tree::{LabelRef, Node, NodeId, SuffixLabel, SuffixTree, ROOT};
pub use ukkonen::{build_full, build_full_range};

// `warptree_core::analysis` over these trees, against brute force and
// the trees' own counts.
#[cfg(test)]
mod analysis;
#[cfg(test)]
mod stats;
