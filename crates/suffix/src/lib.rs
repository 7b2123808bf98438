#![warn(missing_docs)]

//! # warptree-suffix
//!
//! The builders of the generalized suffix trees over categorized
//! sequences that index Park et al. (ICDE 2000), as in-memory pointer
//! trees:
//!
//! * [`build_full`] — the full generalized suffix tree (`ST` / `ST_C`),
//!   built in linear time with Ukkonen's algorithm;
//! * [`build_sparse`] — the sparse suffix tree (`SST_C`, paper §6.1)
//!   storing only suffixes whose first symbol differs from its
//!   predecessor;
//! * [`build_full_naive`] — a quadratic reference builder used to
//!   validate Ukkonen structurally.
//!
//! A tree here is a build structure: `warptree-disk` encodes it to its
//! file's bytes, and a `DiskTree` over those bytes answers every query.
//! Its structural lookups ([`SuffixTree::locate`],
//! [`SuffixTree::suffixes_below`], [`SuffixTree::check_invariants`])
//! are what the tests hold the builders to.
//!
//! ```
//! use std::sync::Arc;
//! use warptree_core::categorize::CatStore;
//! use warptree_suffix::build_full;
//!
//! // "banana" (b=0, a=1, n=2): "ana" starts at 1 and at 3.
//! let cat = Arc::new(CatStore::from_symbols(vec![vec![0, 1, 2, 1, 2, 1]], 3));
//! let tree = build_full(cat);
//! tree.check_invariants();
//! assert_eq!(tree.suffix_count(), 6);
//! let (node, _) = tree.locate(&[1, 2, 1]).unwrap();
//! let mut starts: Vec<u32> = tree.suffixes_below(node).iter().map(|s| s.start).collect();
//! starts.sort_unstable();
//! assert_eq!(starts, vec![1, 3]);
//! ```

pub mod build;
pub mod tree;
pub mod ukkonen;

pub use build::{
    build_full_naive, build_full_truncated, build_sparse, build_sparse_range,
    build_sparse_truncated, build_truncated_range, compaction_ratio, insert_suffix,
    insert_suffix_prefix, TruncateSpec,
};
pub use tree::{LabelRef, Node, NodeId, SuffixLabel, SuffixTree, ROOT};
pub use ukkonen::{build_full, build_full_range};
