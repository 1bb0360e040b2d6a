//! MadPipe: the paper's contribution (§4.2–§4.3).
//!
//! * [`oplus`] — the `⊕` delay-propagation algebra used to mimic 1F1B*
//!   group formation inside the dynamic program;
//! * [`discrete`] — the discretization grids for the continuous DP state
//!   (`t_P`, `m_P`, `V`), with the paper's 101/11/51 default resolution;
//! * [`dp`] — MadPipe-DP: the memoized recursion over
//!   `T(l, p, t_P, m_P, V)` building a non-contiguous allocation with one
//!   *special* processor;
//! * [`algorithm1`] — the modified binary search over the target period
//!   `T̂` (Algorithm 1, K = 10 iterations by default);
//! * [`planner`] — the end-to-end MadPipe pipeline (phase 1 allocation +
//!   phase 2 scheduling through `madpipe-solver`) and a side-by-side
//!   comparison against the PipeDream baseline;
//! * [`stats`] — planner observability: DP memo/prune counters, the
//!   probe timeline and per-phase wall times surfaced by
//!   [`planner::madpipe_plan_with_stats`];
//! * [`certify`] — differential certification of a finished plan: the
//!   zero-fault replay is checked against the analytic checker and (on
//!   tiny instances) the exhaustive optimum, and the same executor
//!   measures jitter/bandwidth robustness margins per plan
//!   (`madpipe certify` in the CLI);
//! * [`degrade`] — degraded-mode replanning: apply a
//!   [`madpipe_model::PlatformFault`] (GPU loss, memory reduction, link
//!   slowdown), replan on the surviving platform and report the
//!   throughput delta (`madpipe replan` in the CLI, `replan` in the
//!   serve protocol).

pub mod algorithm1;
pub mod certify;
pub mod degrade;
pub mod discrete;
pub mod dp;
pub mod fxhash;
pub mod hybrid;
pub mod oplus;
pub mod planner;
pub mod stats;

pub use algorithm1::{
    madpipe_allocation, madpipe_allocation_session, Algorithm1Config, Algorithm1Outcome,
};
pub use certify::{certify, certify_plan, Certificate, CertifyConfig, ExactCrossCheck};
pub use degrade::{replan, ReplanOutcome};
pub use discrete::Discretization;
pub use dp::{madpipe_dp, madpipe_dp_with, DpOutcome, ProbeSession};
pub use hybrid::{best_hybrid, HybridPlan};
pub use oplus::oplus;
pub use planner::{
    compare, madpipe_plan, madpipe_plan_with_session, madpipe_plan_with_stats, Comparison,
    MadPipePlan, PlanError, PlannerConfig,
};
pub use stats::{DpStats, PlannerStats, ProbeRecord, ProbeSource};
