//! # `q100-trace`: simulator observability
//!
//! The instrumentation layer of the Q100 reproduction. Three pieces,
//! all dependency-free and deterministic (no wall-clock, no global
//! state):
//!
//! * [`sink`] — a structured **event sink**: the [`TraceSink`] trait
//!   the timing simulator emits [`TraceEvent`]s into, a zero-cost
//!   [`NullSink`], and a bounded [`RingRecorder`]. Events cover
//!   temporal-instruction boundaries, per-quantum tile occupancy,
//!   stream-buffer spill/fill volumes, memory bandwidth samples, and
//!   per-link peak-bandwidth updates.
//! * [`metrics`] — a thread-safe **metrics registry** of counters,
//!   gauges, and fixed-bucket histograms. All mutation is commutative
//!   (counter adds, histogram observations), so values are identical
//!   regardless of how many sweep workers record concurrently; maps
//!   are ordered, so dumps are byte-stable. Keys starting with `~` are
//!   *volatile* (legitimately run-dependent, e.g. per-worker task
//!   counts) and excluded from the deterministic dump.
//! * [`export`] — exporters: Chrome `trace_event` JSON (one "process"
//!   per tile, loadable in `chrome://tracing` or Perfetto) and flat
//!   metrics JSON/CSV dumps, plus [`json`], a minimal JSON parser
//!   backing the [schema validators](validate) used by tests and CI.
//! * [`analyze`] — the **bottleneck attribution** layer: the
//!   [`BlameCause`]/[`BlameReport`] cycle-ledger data model the timing
//!   simulator fills in, plus critical-path extraction and analytical
//!   what-if estimates over it.
//!
//! The crate deliberately has no dependency on `q100-core`; the
//! simulator depends on *it* and reports tiles as endpoint indices
//! which exporters resolve through a caller-supplied name table.

pub mod analyze;
pub mod export;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod validate;

pub use analyze::{
    critical_path, what_ifs, BlameCause, BlameReport, CriticalPath, NodeBlame, WhatIf,
};
pub use export::{chrome_trace_json, TraceStream};
pub use metrics::{Histogram, MetricsSnapshot, Registry, DEFAULT_BOUNDS};
pub use sink::{NullSink, RingRecorder, TraceEvent, TraceSink};
pub use validate::{validate_blame_json, validate_chrome_trace_json, validate_metrics_json};
