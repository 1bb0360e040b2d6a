//! Degraded-mode replanning: derive the platform that survives a
//! [`PlatformFault`] and replan the same chain on it.
//!
//! The planner treats the survivor as an ordinary instance — there is no
//! special "degraded" code path in the DP, which is exactly what makes
//! the result trustworthy: a replanned instance is bit-identical to a
//! cold `madpipe plan` on the surviving platform (the chaos harness in
//! `madpipe-serve` asserts this down to the f64 bits). What this module
//! adds is the bookkeeping around that replan: the baseline plan on the
//! healthy platform, the degraded plan on the survivor, and the
//! throughput delta between them, plus `replan.*` spans and counters so
//! an operator can see degradations in the metrics stream.
//!
//! Both sides are ordinary cold plans. The `madpipe serve` daemon's
//! `replan` submits the same two instances as two independent plan jobs,
//! so each side is answered from the plan cache when it can be, and
//! otherwise by a worker's cold plan — bit-identical to the plans here
//! either way.

use madpipe_model::{Chain, ModelError, Platform, PlatformFault};

use crate::planner::{madpipe_plan_with_stats, MadPipePlan, PlanError, PlannerConfig};
use crate::stats::PlannerStats;

/// The outcome of replanning one chain across one platform fault.
#[derive(Debug)]
pub struct ReplanOutcome {
    /// The injected fault.
    pub fault: PlatformFault,
    /// The platform that survives the fault.
    pub degraded_platform: Platform,
    /// Plan on the healthy platform (it may itself be infeasible, e.g.
    /// when replanning a speculative instance).
    pub baseline: Result<MadPipePlan, PlanError>,
    /// Plan on the surviving platform.
    pub degraded: Result<MadPipePlan, PlanError>,
    /// Planner instrumentation of the baseline plan.
    pub baseline_stats: PlannerStats,
    /// Planner instrumentation of the degraded plan, extended with
    /// `replan.fault.<kind>` and the `replan.throughput_delta` gauge.
    pub degraded_stats: PlannerStats,
}

impl ReplanOutcome {
    /// Relative throughput change `degraded/baseline − 1` (negative when
    /// the fault costs throughput), when both sides planned.
    pub fn throughput_delta(&self) -> Option<f64> {
        match (&self.baseline, &self.degraded) {
            (Ok(b), Ok(d)) => Some(d.throughput() / b.throughput() - 1.0),
            _ => None,
        }
    }

    /// Achieved-period ratio `degraded/baseline` (≥ 1 when the fault
    /// slows the pipeline), when both sides planned.
    pub fn period_ratio(&self) -> Option<f64> {
        match (&self.baseline, &self.degraded) {
            (Ok(b), Ok(d)) => Some(d.period() / b.period()),
            _ => None,
        }
    }
}

/// Replan `chain` across `fault`: plan the healthy platform, derive the
/// survivor, plan it, and report both. Errors only when the fault itself
/// is unusable (losing every GPU, an out-of-range fraction); planning
/// failures on either side are carried in the outcome.
pub fn replan(
    chain: &Chain,
    platform: &Platform,
    fault: PlatformFault,
    cfg: &PlannerConfig,
) -> Result<ReplanOutcome, ModelError> {
    let _span = madpipe_obs::span("replan.total");
    let degraded_platform = fault.apply(platform)?;
    let (baseline, baseline_stats) = madpipe_plan_with_stats(chain, platform, cfg);
    let (degraded, degraded_stats) = madpipe_plan_with_stats(chain, &degraded_platform, cfg);
    Ok(finish(
        fault,
        degraded_platform,
        baseline,
        degraded,
        baseline_stats,
        degraded_stats,
    ))
}

fn finish(
    fault: PlatformFault,
    degraded_platform: Platform,
    baseline: Result<MadPipePlan, PlanError>,
    degraded: Result<MadPipePlan, PlanError>,
    baseline_stats: PlannerStats,
    mut degraded_stats: PlannerStats,
) -> ReplanOutcome {
    degraded_stats
        .metrics
        .bump_counter(&format!("replan.fault.{}", fault.kind()), 1);
    let mut outcome = ReplanOutcome {
        fault,
        degraded_platform,
        baseline,
        degraded,
        baseline_stats,
        degraded_stats,
    };
    if let Some(delta) = outcome.throughput_delta() {
        outcome
            .degraded_stats
            .metrics
            .set_gauge("replan.throughput_delta", delta);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use madpipe_model::Layer;

    fn chain() -> Chain {
        let layers = (0..6)
            .map(|i| {
                Layer::new(
                    format!("l{i}"),
                    1e-3 * (i + 1) as f64,
                    2e-3 * (i + 1) as f64,
                    1 << 20,
                    4 << 20,
                )
            })
            .collect();
        Chain::new("t", 1 << 20, layers).unwrap()
    }

    fn platform() -> Platform {
        Platform::new(4, 2 << 30, 12e9).unwrap()
    }

    #[test]
    fn replan_is_bit_identical_to_offline_planning_on_the_survivor() {
        let c = chain();
        let p = platform();
        let cfg = PlannerConfig::default();
        let fault = PlatformFault::GpuLoss { count: 1 };
        let out = replan(&c, &p, fault, &cfg).unwrap();
        assert_eq!(out.degraded_platform.n_gpus, 3);

        // The degraded plan must match a cold plan of the survivor, to
        // the f64 bit — there is no degraded-specific planner path.
        let offline = crate::planner::madpipe_plan(&c, &out.degraded_platform, &cfg).unwrap();
        let degraded = out.degraded.as_ref().unwrap();
        assert_eq!(degraded.period().to_bits(), offline.period().to_bits());
        assert_eq!(degraded.allocation, offline.allocation);

        // Losing a GPU can never raise throughput.
        let delta = out.throughput_delta().unwrap();
        assert!(delta <= 1e-12, "GPU loss raised throughput by {delta}");
        assert!(out.period_ratio().unwrap() >= 1.0 - 1e-12);
        assert_eq!(
            out.degraded_stats.metrics.counter("replan.fault.gpu_loss"),
            1
        );
    }

    #[test]
    fn unusable_faults_are_rejected_before_planning() {
        let c = chain();
        let p = platform();
        let cfg = PlannerConfig::default();
        assert!(replan(&c, &p, PlatformFault::GpuLoss { count: 4 }, &cfg).is_err());
        assert!(replan(&c, &p, PlatformFault::LinkSlowdown { fraction: 1.5 }, &cfg).is_err());
    }

    #[test]
    fn infeasible_degraded_instances_are_reported_not_panicked() {
        // 2 GPUs with barely enough memory: losing one leaves a single
        // GPU that cannot hold the whole chain.
        let layers = vec![
            Layer::new("l0", 1e-3, 2e-3, 600 << 20, 1 << 20),
            Layer::new("l1", 1e-3, 2e-3, 600 << 20, 1 << 20),
        ];
        let c = Chain::new("tight", 1 << 20, layers).unwrap();
        let p = Platform::new(2, 2 << 30, 12e9).unwrap();
        let cfg = PlannerConfig::default();
        let out = replan(&c, &p, PlatformFault::GpuLoss { count: 1 }, &cfg).unwrap();
        assert!(out.baseline.is_ok(), "baseline fits across 2 GPUs");
        assert!(out.degraded.is_err(), "survivor cannot hold the chain");
        assert!(out.throughput_delta().is_none());
    }
}
