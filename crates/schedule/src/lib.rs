//! Periodic pipeline schedules: the pattern representation, an exact
//! validity/memory checker, and the paper's 1F1B* algorithm (§4.1).
//!
//! A *pattern* (§3 of the paper) is a periodic schedule of period `T`:
//! every operation (the forward/backward of each unit of a
//! [`madpipe_model::UnitSequence`]) gets a start time `t ∈ [0, T)` and an
//! index shift `h`; in the `k`-th period the operation starts at `kT + t`
//! and processes mini-batch `k - h`.
//!
//! The [`check`] module verifies a pattern exactly — dependency edges,
//! modular resource exclusivity and a steady-state memory sweep — and is
//! the arbiter used by every algorithm crate and by the test suites.
//! [`check::Checker`] is the same rules prepared once per instance, for
//! callers that check many patterns of it.

pub mod best_period;
pub mod bounds;
pub mod check;
pub mod gantt;
pub mod one_f1b;
pub mod pattern;

pub use best_period::{best_contiguous_period, BestPeriod};
pub use bounds::{
    aggregate_memory_required, period_lower_bound, period_upper_bound, trivially_infeasible,
};
pub use check::{check_pattern, Checker, MemoryProfile, PatternReport, ScheduleError};
pub use one_f1b::{group_assignment, one_f1b_star};
pub use pattern::{Dir, Op, Pattern};
