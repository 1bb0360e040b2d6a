//! Observability layer for the MadPipe workspace: span tracing, a
//! metrics registry, and exporters sharing one trace-event model.
//!
//! Three pieces, deliberately small and dependency-free:
//!
//! * [`span`](fn@span)/[`span!`] — RAII span guards feeding a global, thread-safe
//!   collector. Tracing is off by default; a disabled span is a single
//!   relaxed atomic load (no clock read, no allocation), so permanently
//!   instrumented hot paths cost nothing in production runs.
//!   [`timed`] always measures wall time (the planner's phase clocks are
//!   built on it) but still only *records* when tracing is enabled.
//! * [`Registry`]/[`MetricsSnapshot`] — monotone counters, gauges and
//!   log₂-bucketed histograms with deterministic (sorted) iteration,
//!   rendered as a Prometheus-style text dump or a JSON tree.
//! * [`Trace`]/[`TraceEvent`] — the shared event model behind every
//!   exporter: Chrome/Perfetto JSON (`ph:"X"` spans, `ph:"C"` counter
//!   tracks, `ph:"M"` metadata), a JSON-lines event log, and — for the
//!   registry — the Prometheus dump. `sim::schedule_trace` and the CLI's
//!   `--trace-out` both emit through this one model.
//!
//! Two distributed-tracing pieces extend the same model across
//! processes:
//!
//! * [`context`] — 64-bit trace/span ids (16-hex on the wire) plus
//!   wall-clock UNIX-epoch timestamps, so spans emitted by the router,
//!   each daemon and the load generator can be stitched together
//!   without clock coordination.
//! * [`flight`] — an always-on flight recorder: a fixed-size lock-free
//!   ring of recent span/instant/counter events, drained to a JSONL
//!   artifact on panic, SIGTERM, or a chaos kill. [`merge::merge_traces`]
//!   (`madpipe trace-merge`) stitches those per-process dumps into one
//!   cluster-wide Chrome trace with cross-process parent/child edges.
//!
//! [`validate`] closes the loop: it re-parses an emitted Chrome trace
//! with the vendored JSON crate and checks the structural invariants the
//! round-trip tests and `madpipe validate-trace` rely on — including,
//! for merged cluster traces, that every span's parent exists and the
//! parent graph is acyclic.
//!
//! Counter namespaces in use across the workspace: `plan.*` and `dp.*`
//! (planner), `certify.*` (differential certification), `serve.*` (the
//! daemon — including `serve.panics` and `serve.workers.respawned`, the
//! supervision counters incremented when a worker panic is isolated and
//! the worker replaced), and `replan.*` (degraded-mode replanning:
//! `replan.fault.<kind>` counters, the `replan.throughput_delta` gauge,
//! the `replan.total` span).

pub mod context;
mod event;
pub mod flight;
pub mod merge;
mod metrics;
mod span;
pub mod validate;

pub use context::{fresh_id, hex_id, now_unix_us, parse_hex_id};
pub use event::{Phase, Trace, TraceEvent, PLANNER_PID, SCHEDULE_PID};
pub use merge::merge_traces;
pub use metrics::{
    quantile_from_buckets, HistogramSnapshot, MetricsSnapshot, Registry, EXPORTED_QUANTILES,
};
pub use span::{drain_spans, set_enabled, span, timed, tracing_enabled, SpanGuard, SpanRecord};
