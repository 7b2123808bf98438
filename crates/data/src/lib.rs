#![warn(missing_docs)]

//! # warptree-data
//!
//! Evaluation workloads for the Park et al. (ICDE 2000) reproduction:
//! deterministic synthetic corpora ([`gen`]) standing in for the paper's
//! S&P 500 dataset, the paper's artificial random walks, stratified query
//! workloads ([`workload`]), and plain-text sequence I/O ([`io`]).

pub mod gen;
pub mod io;
pub mod signals;
pub mod workload;

pub use gen::{
    artificial_corpus, band_for_index, stock_corpus, ArtificialConfig, StockConfig, PRICE_BANDS,
};
pub use io::{load_csv, save_csv};
pub use signals::{planted_corpus, resample, PlantConfig};
pub use workload::{Query, QueryConfig, QueryWorkload};
