//! Phase-2 scheduling of (possibly non-contiguous) allocations.
//!
//! The paper schedules the allocation produced by MadPipe-DP with an
//! Integer Linear Program (from reference \[1\]) over the *quotient chain*
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
//! Nearly all of phase 2 is spent proving periods infeasible, so the
//! cheapest search is the one that never starts. Five rules skip work
//! without changing any result:
//!
//! * [`best_period`] takes an optional [`Cutoff`], the period a caller's
//!   incumbent already holds, and stops as soon as it can prove its own
//!   result would not beat it. The planner schedules each batch's
//!   contiguous candidates first (1F1B* is exact and takes microseconds)
//!   and hands every other candidate their best period;
//!   [`exact_optimum`] hands each allocation its incumbent;
//! * [`schedule_at_period`] rejects a period before its first node when
//!   a resource is loaded beyond it, or when some GPU's memory floor
//!   ([`madpipe_schedule::Checker::memory_floor`]) exceeds its memory;
//! * a leaf that cannot fit skips the checker and compaction: with its
//!   backwards where they are and every forward packed as late as any
//!   compaction could move it, the live-batch floor over each stage's
//!   forward-to-backward gap
//!   ([`madpipe_schedule::Checker::leaf_exceeds`]) exceeds some GPU's
//!   memory. The leaf still counts as a node and a leaf, so the search
//!   visits the same nodes and returns the same answer;
//! * a search that does run keeps its nodes cheap without changing which
//!   nodes it visits, in what order, or what any leaf returns: one
//!   [`madpipe_schedule::Checker`] per call floors every leaf, judges
//!   the ones its floor leaves open and allocates nothing when a check
//!   fails; the per-resource
//!   [`Timeline`]s live in a vector indexed by dense resource id and are
//!   updated in place (insert before descending, [`Timeline::remove`] on
//!   backtrack); compaction moves forwards within the live timelines and
//!   undoes every move before it returns;
//! * a floored leaf costs almost nothing, with the same nodes counted:
//!   the node that places `B_0`, the last op, asks the leaf floor for
//!   its leaves itself, with every gap but `B_0`'s computed once and the
//!   slack of its last candidate. Along its candidates only `B_0`'s gap
//!   moves and the floor never falls
//!   ([`madpipe_schedule::Checker::leaf_floor`]), so the first floored
//!   sibling and every one after it are counted as nodes, leaves and
//!   floored leaves in one step, capped at the node budget where the
//!   search would stop, and none of them is inserted or recursed into.
//!   Every internal node writes its candidates into its own slice of one
//!   buffer per call ([`Timeline::candidate_fits`]), so no node
//!   allocates. On the sweep below this took phase 2 from 0.105 to
//!   0.063 s (medians of 3 runs), with the same counters and 231,983
//!   floored leaves.
//!
//! On the 42-cell ResNet-50 plan-speed sweep the planner makes 451
//! placement calls: 75 answered by the floor, 107 that use up the node
//! budget, and 455,446 nodes in all (882 calls and 1,445,238 nodes
//! before cutoffs and the floor, with the same periods). Of their
//! 235,436 leaves the leaf floor answers 231,983; the other 3,453 run
//! the checker, and compaction when memory fails.
//! [`PlaceStats`] counts calls, exhausted and floored calls, nodes,
//! leaves and floored leaves; the planner reports them as
//! `planner.place.*`.

pub mod exact;
pub mod place;
pub mod search;
pub mod timeline;

pub use exact::{exact_optimum, ExactOptimum};
pub use place::{schedule_at_period, PlaceConfig, PlaceStats};
pub use search::{best_period, Cutoff, SolvedSchedule};
pub use timeline::Timeline;
