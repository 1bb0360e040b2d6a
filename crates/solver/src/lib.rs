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
//!
//! # Where the time goes
//!
//! Nearly all of phase 2 is spent proving periods infeasible: a failing
//! [`schedule_at_period`] call walks its whole node budget, and almost
//! every leaf it reaches fails the memory check (on the 42-cell
//! ResNet-50 plan-speed sweep, 320 of 882 calls use up the budget and
//! 860,090 of 860,651 leaves fail on memory, none on structure). The
//! search therefore keeps its nodes cheap without changing which nodes
//! it visits, in what order, or what any leaf returns:
//!
//! * one [`madpipe_schedule::Checker`] per call judges every leaf: it
//!   holds each GPU's static bytes, each stage's live-batch bytes and a
//!   dense resource id per unit, and a failed check allocates nothing;
//!   `check_pattern` is the same checker built and run once;
//! * the per-resource [`Timeline`]s live in a vector indexed by dense
//!   resource id and are updated in place: insert before descending,
//!   [`Timeline::remove`] on backtrack;
//! * compaction takes the forward it moves out of the live timeline,
//!   asks for the latest fit, puts it back, and undoes every move before
//!   it returns;
//! * gap and overlap queries allocate nothing.
//!
//! [`PlaceStats`] counts calls, exhausted calls, nodes and leaves; the
//! planner reports them as `planner.place.*`.

pub mod exact;
pub mod place;
pub mod search;
pub mod timeline;

pub use exact::{exact_optimum, ExactOptimum};
pub use place::{schedule_at_period, PlaceConfig, PlaceStats};
pub use search::{best_period, SolvedSchedule};
pub use timeline::Timeline;
