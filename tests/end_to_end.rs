//! End-to-end integration: profile → plan → validate → simulate, across
//! all four networks of the paper.

use madpipe::core::{compare, madpipe_plan, Algorithm1Config, Discretization, PlannerConfig};
use madpipe::dnn::{networks, GpuModel};
use madpipe::model::{Platform, UnitSequence};
use madpipe::schedule::check_pattern;
use madpipe::sim::{replay, FaultSpec};

/// Smaller images than the paper keep debug-mode runtimes reasonable
/// while exercising the same code paths.
fn chains() -> Vec<madpipe::model::Chain> {
    let gpu = GpuModel::default();
    networks::all_networks()
        .iter()
        .map(|n| {
            // Small images keep debug-mode runtimes reasonable; coarsen
            // the deep chains (DenseNet) so the DP state space stays tiny
            // while every code path is still exercised.
            let chain = n.profile(2, 320, &gpu).unwrap();
            madpipe::dnn::coarsen(&chain, 24)
        })
        .collect()
}

/// Coarse-grid planner: same pipeline, cheaper DP — these tests assert
/// structural invariants, not solution quality.
fn planner() -> PlannerConfig {
    PlannerConfig {
        algorithm1: Algorithm1Config {
            iterations: 5,
            discretization: Discretization {
                t_points: 31,
                m_points: 7,
                v_points: 15,
            },
            use_special: true,
        },
        refine_probes: 2,
        ..PlannerConfig::default()
    }
}

#[test]
fn every_network_plans_and_revalidates() {
    for chain in &chains() {
        let platform = Platform::gb(4, 1, 12.0).unwrap();
        let plan = madpipe_plan(chain, &platform, &planner())
            .unwrap_or_else(|e| panic!("{} failed to plan: {e}", chain.name()));

        // The schedule must pass the exact checker when revalidated from
        // scratch against the model.
        let seq = UnitSequence::from_allocation(chain, &platform, &plan.allocation);
        let report = check_pattern(
            chain,
            &platform,
            &plan.allocation,
            &seq,
            &plan.schedule.pattern,
        )
        .unwrap_or_else(|e| panic!("{} plan fails revalidation: {e}", chain.name()));
        for (gpu, &peak) in report.gpu_peak_bytes.iter().enumerate() {
            assert!(
                peak <= platform.memory_bytes,
                "{}: GPU {gpu} over memory",
                chain.name()
            );
        }

        // Period is bounded below by the allocation's load bound and
        // above by sequential execution.
        let lb = plan.allocation.load_bound(chain, &platform);
        assert!(plan.period() + 1e-9 >= lb, "{}", chain.name());
        let seq_time = chain.total_compute_time() + platform.total_cut_time(chain);
        assert!(plan.period() <= seq_time + 1e-9, "{}", chain.name());
    }
}

#[test]
fn replay_simulation_confirms_every_plan() {
    for chain in &chains() {
        let platform = Platform::gb(4, 2, 12.0).unwrap();
        let plan = madpipe_plan(chain, &platform, &planner()).unwrap();
        let sim = replay(
            chain,
            &platform,
            &plan.allocation,
            &plan.schedule.pattern,
            60,
            &FaultSpec::zero(),
        );
        assert!(
            (sim.period - plan.period()).abs() < 1e-6,
            "{}: simulated {} vs analytic {}",
            chain.name(),
            sim.period,
            plan.period()
        );
        assert!(!sim.memory_violation, "{}", chain.name());

        // The replayed memory peaks must match the analytic checker.
        let seq = UnitSequence::from_allocation(chain, &platform, &plan.allocation);
        let report = check_pattern(
            chain,
            &platform,
            &plan.allocation,
            &seq,
            &plan.schedule.pattern,
        )
        .unwrap();
        assert_eq!(
            sim.gpu_peak_bytes,
            report.gpu_peak_bytes,
            "{}",
            chain.name()
        );
    }
}

#[test]
fn madpipe_never_loses_badly_and_usually_wins() {
    let mut ratios = Vec::new();
    for chain in &chains() {
        for m in [1u64, 2] {
            let platform = Platform::gb(4, m, 12.0).unwrap();
            let cmp = compare(chain, &platform, &planner());
            if let Some(r) = cmp.ratio() {
                assert!(
                    r > 0.9,
                    "{} at M={m}: PipeDream/MadPipe ratio {r:.3} — MadPipe lost by >10%",
                    chain.name()
                );
                ratios.push(r);
            } else {
                // If exactly one fails, it must be PipeDream (MadPipe
                // handles strictly more instances).
                assert!(
                    cmp.madpipe.is_ok() || cmp.pipedream.is_err(),
                    "{} at M={m}: MadPipe infeasible but PipeDream planned",
                    chain.name()
                );
            }
        }
    }
    assert!(!ratios.is_empty());
    let gmean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    assert!(
        gmean >= 1.0,
        "geometric-mean ratio {gmean:.3} < 1: MadPipe should win on average"
    );
}

#[test]
fn infeasible_platforms_fail_with_errors_not_panics() {
    let chain = &chains()[0];
    let platform = Platform::new(2, 1 << 20, 1e9).unwrap(); // 1 MB of memory
    let cmp = compare(chain, &platform, &planner());
    assert!(cmp.madpipe.is_err());
    assert!(cmp.pipedream.is_err());
}
