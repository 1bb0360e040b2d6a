//! `madpipe-serve`: a concurrent planning service over newline-delimited
//! JSON.
//!
//! The daemon turns the library planner into a long-lived service: an
//! event-driven connection [`reactor`] (one thread, nonblocking sockets,
//! readiness polling, pipelined requests answered in order), a bounded
//! worker pool that plans each cache miss from scratch with
//! [`madpipe_core::madpipe_plan_with_stats`], and a sharded LRU cache
//! keyed by the *canonical* instance — key-sorted, unit-normalized JSON — so the same
//! problem asked twice (in any field order, in bytes or GiB) is answered
//! from memory, bit-identical to a cold `madpipe plan`.
//!
//! The daemon is supervised: worker panics are isolated per request
//! (structured `internal` error, `serve.panics` counter) and dead
//! workers are respawned; `{"cmd":"health"}` reports queue depth and
//! worker liveness, and `{"cmd":"replan"}` answers degraded-mode
//! replanning (GPU loss, memory reduction, link slowdown) through the
//! same cache and pool.
//!
//! Cluster mode scales the tier horizontally: N ordinary daemons sit
//! behind a consistent-hash [`router`] keyed on the canonical instance
//! string. It sends each request to the key's home daemon, fails over
//! to the next ring candidate around dead ones (which plans the key once
//! and then serves it from its cache), and answers cluster-wide
//! `health`/`metrics` rollups. A daemon restarted with a [`journal`]
//! comes back warm. Plans route verbatim and only ever enter a cache
//! from the daemon's own planner or its own journal, so every served
//! plan — routed, failed over or direct — stays f64-bit-identical to
//! offline planning.
//!
//! Every request is traceable end to end: a line carrying a `trace`
//! context field ([`protocol::TraceContext`]) gets per-hop spans —
//! `router.forward`, `serve.request`, `serve.queue.wait`,
//! `serve.worker`, `serve.dp` — stamped into the always-on
//! [`madpipe_obs::flight`] ring, the responses echo `trace`/`span` ids
//! back, and `madpipe trace-merge` stitches the per-process dumps into
//! one cluster-wide Chrome trace.
//!
//! See [`protocol`] for the wire format, [`cache`] for the keying and
//! eviction rules, [`server`] for the worker pool, supervision and
//! drain story, and [`reactor`] for the connection state machines.

pub mod cache;
pub mod journal;
pub mod protocol;
pub mod reactor;
pub mod router;
pub mod server;

pub use cache::PlanCache;
pub use journal::{Journal, ReplayStats};
pub use protocol::{
    attach_trace, canonical_instance, inject_context, parse_line, parse_request, plan_to_json,
    PlanRequest, ReplanRequest, Request, ServeError, TraceContext,
};
pub use router::{Ring, Router, RouterConfig};
pub use server::{install_signal_handlers, term_requested, ServeConfig, Server};
