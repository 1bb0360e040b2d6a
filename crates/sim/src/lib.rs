//! Discrete-event simulation of pipelined model-parallel training.
//!
//! The paper's evaluation is itself a simulation; this crate provides the
//! event-level substrate and uses it two ways:
//!
//! * [`replay`] — execute a periodic [`madpipe_schedule::Pattern`] for
//!   many periods and *measure* throughput and per-GPU memory peaks,
//!   cross-validating the analytic checker event by event;
//! * [`eager`] — the eager 1F1B policy PipeDream actually runs (start
//!   every operation as soon as its inputs are ready and its resource is
//!   free, backwards preferred, bounded pipeline depth), which §4.1
//!   criticizes for its unpredictable memory behaviour — the simulator
//!   lets us observe exactly that;
//! * [`perturb`] — fault-injected replay: the same pattern executed
//!   under multiplicative compute/communication jitter and bandwidth
//!   degradation, the measurement behind `madpipe certify`'s robustness
//!   margins;
//! * [`chaos`] — deterministic chaos schedules (worker panics, killed
//!   connections, partial writes, mid-stream GPU-loss replans) that the
//!   serve daemon's fault drill replays from a fixed seed.

pub mod chaos;
pub mod eager;
pub mod event;
pub mod perturb;
pub mod replay;
pub mod report;
pub mod trace;

pub use chaos::{ChaosEvent, ChaosStream, ClientEvent, ClusterEvent};
pub use eager::{simulate_eager, EagerConfig};
pub use perturb::{replay_perturbed, FaultSpec};
pub use replay::{replay_pattern, replay_with};
pub use report::SimReport;
pub use trace::{chrome_trace, schedule_trace};
