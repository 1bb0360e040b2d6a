//! Phase-2 scheduling of (possibly non-contiguous) allocations.
//!
//! The paper schedules the allocation produced by MadPipe-DP with an
//! Integer Linear Program (from reference [1]) over the *quotient chain*
//! of stages. This crate substitutes a specialized branch-and-bound
//! periodic scheduler exploring the same decision space — index shifts
//! and intra-resource orderings — with the exact checker of
//! `madpipe-schedule` as the feasibility oracle:
//!
//! * every operation of one generic mini-batch receives an *absolute*
//!   time `z`; folding into the period gives the start `t = z mod T` and
//!   shift `h = ⌊z/T⌋`;
//! * operations are placed in topological order (forwards along the
//!   chain, then backwards in reverse); each op goes to the earliest
//!   modular slot on its resource at or after its dependency-ready time
//!   (which simultaneously minimizes shifts, and therefore memory);
//! * when the earliest-slot choice fails (fragmentation on the special
//!   GPU, or a memory peak from unfortunate interleaving), a bounded DFS
//!   backtracks over later slots.
//!
//! On contiguous allocations every unit owns its resource, the greedy
//! placement coincides with 1F1B*'s memory-optimal pattern, and the
//! period search provably matches `best_contiguous_period` — which the
//! property tests assert.

pub mod exact;
pub mod place;
pub mod search;
pub mod timeline;

pub use exact::{exact_optimum, ExactOptimum};
pub use place::{schedule_at_period, PlaceConfig};
pub use search::{best_period, SolvedSchedule};
pub use timeline::Timeline;
