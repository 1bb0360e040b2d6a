//! The PipeDream baseline: a contiguous partitioning dynamic program with
//! PipeDream's rough memory estimate, scheduled with 1F1B*.
//!
//! PipeDream's partitioner \[11\] balances a contiguous split of the chain
//! over the GPUs, minimizing the bottleneck resource (the largest stage
//! compute time or inter-stage communication time). Its memory accounting
//! assumes the 1F1B steady state of a `S`-stage pipeline *without*
//! communication stages: the `j`-th stage from the end keeps `j` versions
//! of its activations (so never more than `P`). As §5 of the paper notes,
//! the first layers may actually need up to `2P−1` versions once
//! communications are taken into account, so this estimate is optimistic;
//! the resulting partitioning is then repaired into a valid schedule with
//! 1F1B* (`DP+1F1B*` in the figures), often at a much larger period than
//! the DP predicted.

pub mod dp;
pub mod gpipe;
pub mod plan;

pub use dp::{pipedream_partition, PartitionOutcome};
pub use gpipe::{gpipe_plan, GPipeConfig, GPipePlan};
pub use plan::{pipedream_plan, PipeDreamPlan, PlanError};
