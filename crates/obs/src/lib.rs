//! feisu-obs: zero-dependency observability for the Feisu engine.
//!
//! Four pieces, all running on the *simulated* clock so output stays
//! deterministic across hosts and runs:
//!
//! - [`metrics`] — a sharded [`MetricsRegistry`] of named counters,
//!   gauges, and fixed-bucket histograms (p50/p95/p99), exportable as
//!   JSON text with no serializer dependency;
//! - [`span`] — a lightweight tracer producing a nested span tree per
//!   query from explicit simulated start/end instants (how the engine
//!   attributes time it accounts analytically);
//! - [`profile`] — the `EXPLAIN ANALYZE`-style per-query report the
//!   master attaches to every `QueryResult`;
//! - [`trace`] — a `chrome://tracing` JSON-array exporter for any
//!   query's span tree.
//!
//! The crate deliberately depends only on `feisu-common` and the
//! workspace `parking_lot` shim: observability must be linkable from
//! every layer (storage, index, cluster, core) without cycles.

pub mod metrics;
pub mod profile;
pub mod span;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
pub use profile::QueryProfile;
pub use span::{AttrValue, SpanId, SpanNode, SpanRecorder, SpanTree};
pub use trace::chrome_trace;
