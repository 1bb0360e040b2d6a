//! Differential schedule certification.
//!
//! MadPipe's central claim (Prop. 1) is that every plan it emits is
//! *exactly* memory-feasible and achieves its computed period. This
//! module checks that claim on a concrete plan with the one executor for
//! planned schedules (`madpipe_sim::replay`), the analytic checker
//! (`madpipe_schedule::check`) as its independent oracle, and the
//! exhaustive enumerator (`madpipe_solver::exact`) as a lower bound:
//!
//! 1. the analytic checker must accept the pattern and reproduce the
//!    plan's period;
//! 2. the executor at zero fault, over K periods, must agree with the
//!    checker on the period (to relative tolerance) and on every per-GPU
//!    memory peak (byte for byte);
//! 3. on tiny instances the plan must not beat the exhaustive optimum
//!    (which would mean the reference itself is broken);
//! 4. timing faults ([`madpipe_sim::FaultSpec`]) are injected at growing
//!    amplitude to find the largest compute jitter and the largest
//!    bandwidth degradation under which the plan still achieves its
//!    period (within a headroom) without violating memory — the
//!    *robustness margins* reported per plan.
//!
//! The CLI front end is `madpipe certify`; the bench grid records the
//! verdict and jitter margin per cell.

use madpipe_model::{Allocation, Chain, Platform, UnitSequence};
use madpipe_schedule::check::{check_pattern, PatternReport};
use madpipe_schedule::Pattern;
use madpipe_sim::{replay, FaultSpec, SimReport};
use madpipe_solver::exact_optimum;

use crate::planner::MadPipePlan;
use crate::stats::PlannerStats;

/// Tuning for one certification run.
#[derive(Debug, Clone, Copy)]
pub struct CertifyConfig {
    /// Measured periods per replay (plus warm-up).
    pub periods: usize,
    /// Relative tolerance on period agreement between checker and replay.
    pub period_rel_tol: f64,
    /// Allowed period inflation under faults before the guarantee counts
    /// as broken: the margin search accepts amplitude `x` iff the
    /// achieved period stays within `(1 + headroom)` of the analytic one
    /// and no memory violation occurs.
    pub headroom: f64,
    /// Largest compute/communication jitter amplitude probed.
    pub jitter_cap: f64,
    /// Largest bandwidth degradation probed (must stay below 1).
    pub beta_cap: f64,
    /// Bisection iterations per margin.
    pub margin_iters: usize,
    /// Independent noise seeds per jitter amplitude (the amplitude holds
    /// only if every trial holds).
    pub trials: usize,
    /// Base seed of the noise streams.
    pub seed: u64,
    /// Cross-check against `exact_optimum` only when the chain has at
    /// most this many layers…
    pub exact_max_layers: usize,
    /// …and the platform at most this many GPUs (the enumerator is
    /// exponential).
    pub exact_max_gpus: usize,
}

impl Default for CertifyConfig {
    fn default() -> Self {
        Self {
            periods: 50,
            period_rel_tol: 1e-6,
            headroom: 0.05,
            jitter_cap: 1.0,
            beta_cap: 0.95,
            margin_iters: 7,
            trials: 3,
            seed: 0x6d61_6470_6970_6531,
            exact_max_layers: 6,
            exact_max_gpus: 3,
        }
    }
}

impl CertifyConfig {
    /// A cheap profile for per-cell certification inside the bench grid.
    pub fn quick() -> Self {
        Self {
            periods: 24,
            margin_iters: 5,
            trials: 2,
            ..Self::default()
        }
    }
}

/// Outcome of the tiny-instance cross-check against the enumerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactCrossCheck {
    /// Period of the exhaustive optimum.
    pub exact_period: f64,
    /// Plan period / exact period (≥ 1 up to tolerance, or the
    /// reference is broken).
    pub ratio: f64,
}

/// The certificate: every oracle's verdict plus the robustness margins.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// The analytic checker's report (absent when the checker rejected
    /// the pattern outright).
    pub analytic: Option<PatternReport>,
    /// The zero-fault replay's measurement.
    pub replay: Option<SimReport>,
    /// Tiny-instance cross-check (absent when the instance is too large
    /// for the enumerator).
    pub exact: Option<ExactCrossCheck>,
    /// Largest symmetric compute+comm jitter amplitude under which the
    /// plan still achieves its period (within headroom) without
    /// violating memory. `0` when even infinitesimal jitter breaks it.
    pub jitter_margin: f64,
    /// Largest bandwidth degradation the plan absorbs, same criterion.
    pub beta_margin: f64,
    /// Every disagreement found; empty iff the plan is certified.
    pub failures: Vec<String>,
    /// Wall-clock seconds the certification took (all four steps, the
    /// margin bisections included).
    pub seconds: f64,
}

impl Certificate {
    /// True iff every cross-check agreed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Fold this certificate into the planner's stats: the pass/fail
    /// counter and the certification wall clock. Certification runs
    /// *after* `madpipe_plan` returns, so its time is added to
    /// `total_seconds` too — keeping the invariant that the per-phase
    /// clocks sum to at most the total.
    pub fn record(&self, stats: &mut PlannerStats) {
        if self.passed() {
            stats.certifications_passed += 1;
        } else {
            stats.certifications_failed += 1;
        }
        stats.certify_seconds += self.seconds;
        stats.total_seconds += self.seconds;
    }
}

/// Certify a full MadPipe plan against the chain/platform it was
/// planned for.
pub fn certify_plan(
    chain: &Chain,
    platform: &Platform,
    plan: &MadPipePlan,
    cfg: &CertifyConfig,
) -> Certificate {
    certify(
        chain,
        platform,
        &plan.allocation,
        plan.period(),
        &plan.schedule.pattern,
        cfg,
    )
}

/// Certify an arbitrary `(allocation, period, pattern)` triple. Each
/// stage runs under its own policy from `alloc`: the analytic checker
/// and the replay model recompute time and the policy-dependent
/// memory. The exhaustive cross-check only runs when every stage has the
/// default policy (the enumerator solves the paper's store-everything
/// model; a recompute or 2BW plan legitimately beats it on memory-bound
/// instances).
pub fn certify(
    chain: &Chain,
    platform: &Platform,
    alloc: &Allocation,
    period: f64,
    pattern: &Pattern,
    cfg: &CertifyConfig,
) -> Certificate {
    let clock = madpipe_obs::timed("certify.differential");
    let mut cert = Certificate {
        analytic: None,
        replay: None,
        exact: None,
        jitter_margin: 0.0,
        beta_margin: 0.0,
        failures: Vec::new(),
        seconds: 0.0,
    };
    let seq = UnitSequence::from_allocation(chain, platform, alloc);
    let tol = cfg.period_rel_tol * period.max(1e-12);

    // 1. Analytic checker.
    let analytic = match check_pattern(chain, platform, alloc, &seq, pattern) {
        Ok(report) => report,
        Err(e) => {
            cert.failures
                .push(format!("checker rejected the pattern: {e}"));
            cert.seconds = clock.finish();
            return cert;
        }
    };
    if (analytic.period - period).abs() > tol {
        cert.failures.push(format!(
            "checker period {} disagrees with the plan period {}",
            analytic.period, period
        ));
    }
    for (g, &peak) in analytic.gpu_peak_bytes.iter().enumerate() {
        if peak > platform.memory_bytes {
            cert.failures.push(format!(
                "analytic peak on GPU {g} ({peak} B) exceeds the limit ({} B)",
                platform.memory_bytes
            ));
        }
    }

    // 2. The executor at zero fault must agree with the checker on the
    // period (tolerance) and the peaks (exactly).
    let measured = replay(
        chain,
        platform,
        alloc,
        pattern,
        cfg.periods,
        &FaultSpec::zero(),
    );
    if (measured.period - analytic.period).abs() > tol {
        cert.failures.push(format!(
            "replayed period {} disagrees with the analytic period {}",
            measured.period, analytic.period
        ));
    }
    if measured.gpu_peak_bytes != analytic.gpu_peak_bytes {
        cert.failures.push(format!(
            "replayed peaks {:?} disagree with analytic peaks {:?}",
            measured.gpu_peak_bytes, analytic.gpu_peak_bytes
        ));
    }

    // 3. Tiny instances: the plan must not beat the exhaustive optimum.
    // Only meaningful under the store-everything model the enumerator
    // solves: a recompute/2BW plan can legitimately exist (and win) where
    // the enumerator finds nothing.
    let all_default = alloc.stages().iter().all(|s| s.policy.is_default());
    if all_default && chain.len() <= cfg.exact_max_layers && platform.n_gpus <= cfg.exact_max_gpus {
        match exact_optimum(chain, platform) {
            Some(exact) => {
                let ep = exact.schedule.period;
                if period < ep * (1.0 - 1e-6) {
                    cert.failures.push(format!(
                        "plan period {period} beats the exhaustive optimum {ep} — \
                         the reference itself is broken"
                    ));
                }
                cert.exact = Some(ExactCrossCheck {
                    exact_period: ep,
                    ratio: period / ep,
                });
            }
            None => cert.failures.push(
                "exhaustive enumerator found no schedulable allocation, \
                 yet this plan exists"
                    .into(),
            ),
        }
    }

    // 4. Robustness margins — only meaningful when the fault-free
    // cross-checks agree.
    if cert.failures.is_empty() {
        let target = analytic.period * (1.0 + cfg.headroom) + tol;
        let holds = |fault: &FaultSpec| -> bool {
            let r = replay(chain, platform, alloc, pattern, cfg.periods, fault);
            !r.memory_violation && r.period <= target
        };
        cert.jitter_margin = bisect_margin(cfg.jitter_cap, cfg.margin_iters, |x| {
            (0..cfg.trials.max(1)).all(|t| holds(&FaultSpec::jitter(x, cfg.seed + t as u64)))
        });
        cert.beta_margin = bisect_margin(cfg.beta_cap, cfg.margin_iters, |x| {
            holds(&FaultSpec::degraded_bandwidth(x))
        });
    }

    cert.analytic = Some(analytic);
    cert.replay = Some(measured);
    cert.seconds = clock.finish();
    cert
}

/// Largest `x ∈ [0, cap]` with `holds(x)`, by bisection. `holds(0)` is
/// guaranteed by the zero-fault agreement check, so the search maintains
/// a holding lower bound throughout.
fn bisect_margin(cap: f64, iters: usize, holds: impl Fn(f64) -> bool) -> f64 {
    if holds(cap) {
        return cap;
    }
    let (mut lo, mut hi) = (0.0f64, cap);
    for _ in 0..iters {
        let mid = 0.5 * (lo + hi);
        if holds(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{madpipe_plan, PlannerConfig};
    use madpipe_model::Layer;

    fn chain(costs: &[(f64, f64)], act: u64, w: u64) -> Chain {
        let layers = costs
            .iter()
            .enumerate()
            .map(|(i, &(f, b))| Layer::new(format!("l{i}"), f, b, w, act))
            .collect();
        Chain::new("t", act, layers).unwrap()
    }

    fn tiny_plan() -> (Chain, Platform, MadPipePlan) {
        let c = chain(
            &[(1.0, 2.0), (2.0, 1.0), (3.0, 2.0), (1.0, 1.0)],
            1 << 10,
            1 << 8,
        );
        let platform = Platform::new(2, 1 << 20, 1e6).unwrap();
        let plan = madpipe_plan(&c, &platform, &PlannerConfig::default()).unwrap();
        (c, platform, plan)
    }

    #[test]
    fn a_valid_plan_certifies_with_nonzero_margins() {
        let (c, platform, plan) = tiny_plan();
        let cert = certify_plan(&c, &platform, &plan, &CertifyConfig::default());
        assert!(cert.passed(), "failures: {:?}", cert.failures);
        assert!(cert.analytic.is_some());
        assert!(cert.replay.is_some());
        // 4 layers on 2 GPUs is small enough for the enumerator.
        let exact = cert.exact.expect("tiny instance must cross-check");
        assert!(exact.ratio >= 1.0 - 1e-6, "ratio {}", exact.ratio);
        assert!(cert.jitter_margin > 0.0, "jitter margin must be nonzero");
        assert!(cert.beta_margin > 0.0, "beta margin must be nonzero");
    }

    #[test]
    fn a_one_period_replay_still_measures_the_margins() {
        // Even one measured period retires three batches, enough to
        // measure a period: full-amplitude jitter must not "hold" just
        // because the replay was short.
        let (c, platform, plan) = tiny_plan();
        let cfg = CertifyConfig {
            periods: 1,
            ..CertifyConfig::default()
        };
        let cert = certify_plan(&c, &platform, &plan, &cfg);
        assert!(cert.passed(), "failures: {:?}", cert.failures);
        assert!(
            cert.jitter_margin < cfg.jitter_cap,
            "jitter margin {} reads the cap",
            cert.jitter_margin
        );
    }

    #[test]
    fn a_tampered_pattern_fails_certification() {
        let (c, platform, plan) = tiny_plan();
        let mut pattern = plan.schedule.pattern.clone();
        // Shift one op by a third of the period: dependencies or
        // exclusivity must break.
        pattern.ops[0].start = (pattern.ops[0].start + pattern.period / 3.0) % pattern.period;
        let cert = certify(
            &c,
            &platform,
            &plan.allocation,
            plan.period(),
            &pattern,
            &CertifyConfig::default(),
        );
        assert!(!cert.passed());
        assert!(cert.analytic.is_none());
    }

    #[test]
    fn a_lied_about_period_fails_certification() {
        let (c, platform, plan) = tiny_plan();
        let cert = certify(
            &c,
            &platform,
            &plan.allocation,
            plan.period() * 0.5, // claim double the real throughput
            &plan.schedule.pattern,
            &CertifyConfig::default(),
        );
        assert!(!cert.passed());
        assert!(cert
            .failures
            .iter()
            .any(|f| f.contains("disagrees with the plan period")));
    }

    #[test]
    fn certificates_fold_into_planner_stats() {
        let (c, platform, plan) = tiny_plan();
        let cert = certify_plan(&c, &platform, &plan, &CertifyConfig::quick());
        let mut stats = PlannerStats::default();
        cert.record(&mut stats);
        assert_eq!(
            (stats.certifications_passed, stats.certifications_failed),
            (1, 0)
        );
        let failed = Certificate {
            analytic: None,
            replay: None,
            exact: None,
            jitter_margin: 0.0,
            beta_margin: 0.0,
            failures: vec!["boom".into()],
            seconds: 0.0,
        };
        failed.record(&mut stats);
        assert_eq!(stats.certifications_failed, 1);
        assert!(stats.summary().contains("certify 1/2"));
        let metrics = stats.metrics();
        assert_eq!(metrics.counter("planner.certifications_passed"), 1);
        assert_eq!(metrics.counter("planner.certifications_failed"), 1);
    }

    #[test]
    fn total_time_includes_certification_and_bounds_the_phase_sum() {
        let c = chain(
            &[(1.0, 2.0), (2.0, 1.0), (3.0, 2.0), (1.0, 1.0)],
            1 << 10,
            1 << 8,
        );
        let platform = Platform::new(2, 1 << 20, 1e6).unwrap();
        let (plan, mut stats) =
            crate::planner::madpipe_plan_with_stats(&c, &platform, &PlannerConfig::default());
        let plan = plan.unwrap();
        let pre_total = stats.total_seconds;

        let cert = certify_plan(&c, &platform, &plan, &CertifyConfig::quick());
        assert!(cert.seconds > 0.0, "certification must be timed");
        cert.record(&mut stats);

        assert_eq!(stats.certify_seconds, cert.seconds);
        assert_eq!(stats.total_seconds, pre_total + cert.seconds);
        // The invariant of satellite 3: every phase clock runs inside
        // either the plan total or the certification clock, so the sum
        // never exceeds the (certification-inclusive) total.
        assert!(
            stats.phase_seconds_sum() <= stats.total_seconds + 1e-9,
            "phase sum {} > total {}",
            stats.phase_seconds_sum(),
            stats.total_seconds
        );
        let metrics = stats.metrics();
        assert_eq!(metrics.counter("planner.certifications_passed"), 1);
        let gauge = |name| metrics.gauges.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(gauge("plan.certify.seconds"), cert.seconds);
        assert_eq!(gauge("plan.total.seconds"), stats.total_seconds);
    }

    use madpipe_model::{ActivationPolicy, PolicySpec, RecomputeMode, StagePolicy, WeightPolicy};
    use proptest::proptest;
    use proptest::test_runner::ProptestConfig;

    /// Deterministic pseudo-random chain from a seed (SplitMix64).
    fn seeded_chain(seed: u64) -> Chain {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut next = move || {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        };
        let n = 3 + (next() % 3) as usize;
        let layers = (0..n)
            .map(|i| {
                let f = 0.5 + (next() % 8) as f64 * 0.25;
                let b = 0.5 + (next() % 8) as f64 * 0.25;
                let w = 1u64 << (6 + next() % 4);
                let a = 1u64 << (8 + next() % 4);
                Layer::new(format!("l{i}"), f, b, w, a)
            })
            .collect();
        Chain::new("seeded", 1 << 10, layers).unwrap()
    }

    const CORNERS: [PolicySpec; 4] = [
        PolicySpec {
            recompute: RecomputeMode::Never,
            weights: WeightPolicy::Full,
        },
        PolicySpec {
            recompute: RecomputeMode::Never,
            weights: WeightPolicy::TwoBw,
        },
        PolicySpec {
            recompute: RecomputeMode::Always,
            weights: WeightPolicy::Full,
        },
        PolicySpec {
            recompute: RecomputeMode::Always,
            weights: WeightPolicy::TwoBw,
        },
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// Satellite: under all four policy corners, a produced plan must
        /// certify — the analytic checker and the zero-fault replay agree
        /// on the period (tolerance) and on every per-GPU memory peak
        /// byte for byte (a peak mismatch is a certification failure, so
        /// `passed()` asserts the bitwise agreement).
        #[test]
        fn all_four_policy_corners_certify(seed in 0u64..8) {
            let c = seeded_chain(seed);
            let platform = Platform::new(2, 1 << 20, 1e6).unwrap();
            // The bitwise cross-checks (steps 1–3) are the point here;
            // skip the margin bisections to keep the sweep fast.
            let certify_cfg = CertifyConfig {
                periods: 12,
                margin_iters: 0,
                jitter_cap: 0.0,
                beta_cap: 0.0,
                trials: 1,
                ..CertifyConfig::default()
            };
            for policy in CORNERS {
                let cfg = PlannerConfig {
                    policy,
                    ..PlannerConfig::default()
                };
                let Ok(plan) = madpipe_plan(&c, &platform, &cfg) else {
                    continue;
                };
                let cert = certify_plan(&c, &platform, &plan, &certify_cfg);
                assert!(
                    cert.passed(),
                    "seed {seed} policy {policy:?}: {:?}",
                    cert.failures
                );
            }
        }
    }

    proptest! {
        /// Satellite: recompute + 2BW never needs more memory than the
        /// default policy for the same stage at the same pipeline depth
        /// (`2W ≤ 3W` and `g·a_in + (ā − a_in) ≤ g·ā`), checked across
        /// every stage range and a sweep of depths.
        #[test]
        fn recompute_2bw_stage_memory_dominated_by_default(seed in 0u64..64) {
            let c = seeded_chain(seed);
            let tight = StagePolicy {
                activation: ActivationPolicy::Recompute,
                weights: WeightPolicy::TwoBw,
            };
            for start in 0..c.len() {
                for end in start + 1..=c.len() {
                    for g in 1u64..=4 {
                        let pol = c.stage_memory(start..end, g, tight);
                        let def = c.stage_memory(start..end, g, StagePolicy::default());
                        assert!(
                            pol <= def,
                            "stage {start}..{end} g={g}: policy {pol} > default {def}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bisect_margin_brackets_a_threshold() {
        // holds(x) ⇔ x ≤ 0.3: the margin must land just under 0.3.
        let m = bisect_margin(1.0, 12, |x| x <= 0.3);
        assert!(m <= 0.3 && m > 0.29, "margin {m}");
        // Everything holds → the cap is returned outright.
        assert_eq!(bisect_margin(0.8, 12, |_| true), 0.8);
        // Nothing above zero holds → zero.
        assert!(bisect_margin(1.0, 12, |x| x <= 0.0) < 1e-3);
    }
}
