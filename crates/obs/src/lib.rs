#![warn(missing_docs)]

//! # warptree-obs
//!
//! A zero-dependency observability layer for the warptree workspace:
//!
//! * [`Counter`] — monotonically increasing `u64` (atomic, relaxed).
//! * [`Gauge`] — last-written `f64` value.
//! * [`Histogram`] — log₂-bucketed distribution of `u64` samples
//!   (durations in nanoseconds, sizes in bytes) with quantile
//!   estimation and merging.
//! * [`Span`] — a scoped timing guard recording its elapsed wall time
//!   into a histogram on drop.
//! * [`Trace`]/[`TraceSpan`] — a per-query tree of named, timed stage
//!   spans with attributes, snapshotted as a [`TraceData`].
//! * [`MetricsRegistry`] — a named collection of the above, snapshotted
//!   into a [`MetricsSnapshot`] renderable as text, JSON, or the
//!   Prometheus text exposition format
//!   ([`MetricsSnapshot::to_prometheus`]).
//!
//! ## The no-op mode
//!
//! Every handle is internally an `Option<Arc<…>>`. A handle obtained
//! from [`MetricsRegistry::noop`] (or via [`Counter::noop`] etc.) holds
//! `None`, so every operation is an inlined `is_some` check and nothing
//! else — no atomics, no clock reads, no allocation. Instrumented code
//! can therefore thread metrics unconditionally through hot paths; the
//! caller decides per run whether measurement happens. Nothing times
//! this mode on its own; what is timed is the other end, an *active*
//! trace, whose cost the repository benchmark reports as
//! `obs.trace_overhead_ratio` (traced over untraced wall time) and CI
//! gates at 1.5.
//!
//! The crate is deliberately `std`-only (no serde, no chrono): snapshots
//! serialize through the hand-rolled [`json`] helpers.

mod counter;
mod hist;
pub mod json;
mod registry;
mod trace;

pub use counter::{Counter, Gauge};
pub use hist::{Histogram, HistogramSnapshot, Span};
pub use registry::{sanitize_metric_name, MetricsRegistry, MetricsSnapshot};
pub use trace::{AttrValue, SpanData, Trace, TraceData, TraceSpan};
