#![warn(missing_docs)]

//! # warptree-core
//!
//! Core algorithms of *"Efficient Searches for Similar Subsequences of
//! Different Lengths in Sequence Databases"* (Park, Chu, Yoon, Hsu —
//! ICDE 2000): the time-warping distance, categorization of continuous
//! values into discrete alphabets, the lower-bound distance functions
//! `D_tw-lb` / `D_tw-lb2`, and the filter-and-refine similarity search
//! algorithms (`SimSearch-ST`, `SimSearch-ST_C`, `SimSearch-SST_C`)
//! together with the sequential-scanning baseline.
//!
//! This crate is index-structure agnostic: the searches, and the §8
//! mining and structure stats of [`analysis`], run over any
//! implementation of [`search::IndexBackend`]. The companion crates
//! `warptree-suffix` (the build-time pointer trees), `warptree-disk`
//! (the tree as its file's bytes, which every tree query walks) and
//! `warptree-esa` provide the index structures; `warptree-data` provides
//! the evaluation workloads.
//!
//! ## Quick start
//!
//! ```
//! use warptree_core::prelude::*;
//!
//! // A tiny database and an exact sequential-scan search.
//! let store = SequenceStore::from_values(vec![
//!     vec![20.0, 20.0, 21.0, 21.0, 20.0, 20.0, 23.0, 23.0],
//!     vec![20.0, 21.0, 20.0, 23.0],
//! ]);
//! let query = [20.0, 21.0, 20.0, 23.0];
//! let params = SearchParams::with_epsilon(0.0);
//! let mut stats = SearchStats::default();
//! let answers = seq_scan(&store, &query, &params, SeqScanMode::Full, &mut stats);
//! // The intro example: S2 warps onto S1 exactly.
//! assert!(answers
//!     .matches()
//!     .iter()
//!     .any(|m| m.occ.seq == SeqId(0) && m.dist == 0.0));
//! ```

pub mod analysis;
pub mod bounds;
pub mod categorize;
pub mod dtw;
pub mod error;
pub mod multivariate;
pub mod parallel;
pub mod predict;
pub mod search;
pub mod sequence;

/// Convenient re-exports of the types most programs need.
pub mod prelude {
    pub use crate::categorize::{Alphabet, CatStore, CategorizationMethod, Category, Symbol};
    pub use crate::dtw::{dtw, dtw_early_abandon, dtw_windowed, WarpTable};
    pub use crate::error::{CoreError, ErrorCode};
    pub use crate::search::{
        filter_tree, postprocess, run_query, run_query_with, scan_query_with, seq_scan, AnswerSet,
        BackendKind, CandidateGroups, IndexBackend, KnnParams, Match, OutputKind, QueryKind,
        QueryOutput, QueryRequest, SearchMetrics, SearchParams, SearchStats, SegmentedIndex,
        SeqScanMode,
    };
    pub use crate::sequence::{Occurrence, SeqId, Sequence, SequenceStore, Value};
}

pub use prelude::*;
