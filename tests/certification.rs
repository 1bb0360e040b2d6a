//! Quality certification against the exhaustive optimum on tiny
//! instances: the exact enumerator of `madpipe-solver` bounds every
//! heuristic from below.

use proptest::prelude::*;

use madpipe::core::{madpipe_plan, PlannerConfig};
use madpipe::model::{Chain, Layer, Platform};
use madpipe::pipedream::pipedream_plan;
use madpipe::sim::{replay, FaultSpec};
use madpipe::solver::exact_optimum;

fn arb_tiny_chain() -> impl Strategy<Value = Chain> {
    prop::collection::vec((0.2f64..3.0, 0.2f64..3.0, 1u64..5_000), 2..=5).prop_map(|specs| {
        let layers = specs
            .iter()
            .enumerate()
            .map(|(i, &(f, b, a))| Layer::new(format!("l{i}"), f, b, 0, a))
            .collect();
        Chain::new("tiny", 1_000, layers).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No planner beats the exhaustive optimum; MadPipe lands within a
    /// bounded factor of it (its allocation space is restricted to one
    /// special processor, and its DP is discretized).
    #[test]
    fn heuristics_bracket_the_exact_optimum(chain in arb_tiny_chain(), p in 2usize..=3) {
        let platform = Platform::new(p, 1 << 40, 2_000.0).unwrap();
        let exact = exact_optimum(&chain, &platform)
            .expect("roomy memory: something must schedule");

        let madpipe = madpipe_plan(&chain, &platform, &PlannerConfig::default())
            .expect("roomy memory: MadPipe must plan");
        prop_assert!(
            madpipe.period() + 1e-6 >= exact.schedule.period,
            "MadPipe {} beat the 'exact' optimum {} — the reference is broken",
            madpipe.period(),
            exact.schedule.period
        );
        prop_assert!(
            madpipe.period() <= exact.schedule.period * 1.6 + 1e-9,
            "MadPipe {} too far above the optimum {}",
            madpipe.period(),
            exact.schedule.period
        );

        if let Ok(pd) = pipedream_plan(&chain, &platform) {
            prop_assert!(
                pd.period() + 1e-6 >= exact.schedule.period,
                "PipeDream {} beat the exact optimum {}",
                pd.period(),
                exact.schedule.period
            );
            // MadPipe's allocation space is a superset of PipeDream's
            // contiguous space; with the contiguous fallback it should
            // essentially never lose on tiny roomy instances.
            prop_assert!(
                madpipe.period() <= pd.period() * 1.05 + 1e-9,
                "MadPipe {} lost to PipeDream {}",
                madpipe.period(),
                pd.period()
            );
        }
    }

    /// Differential certification invariant: replaying any plan the
    /// planner emits at zero fault reproduces the analytic checker's
    /// period and per-GPU peak memory, the peaks bit-for-bit.
    #[test]
    fn replay_matches_the_analytic_checker(chain in arb_tiny_chain(), p in 2usize..=3) {
        let platform = Platform::new(p, 1 << 40, 2_000.0).unwrap();
        let plan = madpipe_plan(&chain, &platform, &PlannerConfig::default())
            .expect("roomy memory: MadPipe must plan");
        let analytic = &plan.schedule.report;

        let sim = replay(&chain, &platform, &plan.allocation, &plan.schedule.pattern, 40, &FaultSpec::zero());
        prop_assert!(
            (sim.period - analytic.period).abs() <= 1e-9 * analytic.period,
            "replayed period {} != analytic {}",
            sim.period,
            analytic.period
        );
        prop_assert_eq!(&sim.gpu_peak_bytes, &analytic.gpu_peak_bytes);
        prop_assert!(!sim.memory_violation);
    }
}
