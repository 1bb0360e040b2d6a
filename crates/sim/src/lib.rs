//! Discrete-event simulation of pipelined model-parallel training.
//!
//! The paper's evaluation is itself a simulation; this crate provides
//! one executor per execution semantics, plus the chaos schedules of the
//! serve drills:
//!
//! * [`mod@replay`] — execute a periodic [`madpipe_schedule::Pattern`] for
//!   many periods and *measure* throughput and per-GPU memory peaks,
//!   optionally under multiplicative compute/communication jitter and
//!   bandwidth degradation ([`FaultSpec`]). At zero fault the replay is
//!   the planned schedule and must agree with the analytic checker; the
//!   faulted runs are the measurement behind `madpipe certify`'s
//!   robustness margins;
//! * [`eager`] — the eager 1F1B policy PipeDream actually runs (start
//!   every operation as soon as its inputs are ready and its resource is
//!   free, backwards preferred, bounded pipeline depth), which §4.1
//!   criticizes for its unpredictable memory behaviour — the simulator
//!   lets us observe exactly that;
//! * [`chaos`] — deterministic chaos schedules (worker panics, killed
//!   connections, partial writes, mid-stream GPU-loss replans) that the
//!   serve daemon's fault drill replays from a fixed seed.

pub mod chaos;
pub mod eager;
mod event;
pub mod replay;
pub mod report;
pub mod trace;

pub use chaos::{ChaosEvent, ChaosStream, ClientEvent, ClusterEvent};
pub use eager::{simulate_eager, EagerConfig};
pub use replay::{replay, replay_with, FaultSpec};
pub use report::SimReport;
pub use trace::{chrome_trace, schedule_trace};
