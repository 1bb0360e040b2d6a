//! Algorithm 1: the modified binary search over the target period `T̂`.
//!
//! The paper's argument: `MadPipe-DP(T̂)` is non-increasing in `T̂` (a
//! larger target stores fewer activations, relaxing the memory
//! constraints), while any schedule of the produced allocation needs a
//! period of at least `T̂` for its memory estimates to hold. The best
//! target therefore minimizes `max(MadPipe-DP(T̂), T̂)`; with
//! `T = MadPipe-DP(T̂)`, `min(T, T̂)` lower-bounds and `max(T, T̂)`
//! upper-bounds that optimum, giving the bisection below (the paper's
//! Algorithm 1; the pseudocode's line 7 reuses the *raw* DP value in
//! `min(T_i, T̂_i)` — after line 6's overwrite the minimum would always
//! equal `T̂_i`).
//!
//! The bisection assumes that monotonicity, as the paper does, but the
//! discretized DP does not have it: `T̂` moves the `V` grid and the group
//! counts `g = ⌈(V+u)/T̂⌉`, and both round. In a whole-plan differential
//! (395 plans, 10,884 distinct probes), 156 probes returned a larger
//! value than a smaller target of the same plan. Feasibility is not
//! monotone either: on seed 239 of the random chains (14 layers, 5 GPUs
//! of 1 GiB, see `dp::tests`), `T̂ = 0.09917` is feasible with period
//! 0.05538 and the larger `T̂ = 0.10178` is infeasible. The bisection
//! still runs as the paper wrote it (only the search order rests on the
//! assumption), but no exactness argument may: the DP session keeps no
//! bound derived from it.

use madpipe_model::{Allocation, Chain, Platform};

use crate::discrete::Discretization;
use crate::dp::ProbeSession;
use crate::stats::ProbeSource;

/// Tuning of Algorithm 1.
#[derive(Debug, Clone, Copy)]
pub struct Algorithm1Config {
    /// Bisection iterations (paper: `K = 10`).
    pub iterations: usize,
    /// Discretization of the DP state.
    pub discretization: Discretization,
    /// Allow the special processor (the paper's MadPipe). `false` runs
    /// the memory-aware *contiguous* ablation: same DP, same memory
    /// model, but every GPU holds exactly one stage.
    pub use_special: bool,
}

impl Default for Algorithm1Config {
    fn default() -> Self {
        Self {
            iterations: 10,
            discretization: Discretization::default(),
            use_special: true,
        }
    }
}

/// One probed target and the allocation it produced.
#[derive(Debug, Clone)]
pub struct Probe {
    /// The target period `T̂`.
    pub t_hat: f64,
    /// Raw DP period `MadPipe-DP(T̂)` (infinite when infeasible).
    pub raw: f64,
    /// Estimated achievable period `max(raw, T̂)`.
    pub estimate: f64,
    /// The allocation (when feasible).
    pub allocation: Option<Allocation>,
}

/// Outcome of the phase-1 search.
#[derive(Debug, Clone)]
pub struct Algorithm1Outcome {
    /// Best estimated `max(MadPipe-DP(T̂), T̂)` over all probed targets —
    /// the *phase-1 period* (the dashed MadPipe line of Figure 6).
    pub period: f64,
    /// The target period that achieved it.
    pub t_hat: f64,
    /// The allocation produced at that target.
    pub allocation: Allocation,
    /// Every probe, in bisection order. Phase 2 schedules each distinct
    /// allocation and keeps the best *achieved* period — the special
    /// processor's deliberate `g−1` memory under-estimate (§4.2.1) makes
    /// single probes optimistic, and probes whose allocation schedules
    /// close to its estimate win out.
    pub probes: Vec<Probe>,
}

impl Algorithm1Outcome {
    /// Distinct feasible allocations over all probes, best estimate
    /// first. Stage policies are part of an allocation's identity: the
    /// same stages under different policies schedule differently, so
    /// both are kept.
    pub fn candidate_allocations(&self) -> Vec<&Allocation> {
        let mut order: Vec<&Probe> = self
            .probes
            .iter()
            .filter(|p| p.allocation.is_some())
            .collect();
        order.sort_by(|a, b| a.estimate.total_cmp(&b.estimate));
        let mut seen: Vec<&Allocation> = Vec::new();
        for p in order {
            let alloc = p.allocation.as_ref().expect("filtered");
            if !seen.contains(&alloc) {
                seen.push(alloc);
            }
        }
        seen
    }
}

/// Run phase 1 of MadPipe: bisect over `T̂`, keep the best allocation.
///
/// Returns `None` when every probed target is memory-infeasible (the
/// model cannot be trained on this platform under MadPipe's estimates).
pub fn madpipe_allocation(
    chain: &Chain,
    platform: &Platform,
    cfg: &Algorithm1Config,
) -> Option<Algorithm1Outcome> {
    let mut session = ProbeSession::new(chain, platform, &cfg.discretization);
    madpipe_allocation_session(chain, platform, cfg, &mut session, cfg.use_special)
}

/// [`madpipe_allocation`] probing through a shared [`ProbeSession`], so
/// the bisection's solves are capped by (and feed) the session's held
/// allocations. `use_special` overrides the config
/// flag — the planner runs the contiguous-fallback bisection through the
/// same session with the special processor off.
pub fn madpipe_allocation_session(
    chain: &Chain,
    platform: &Platform,
    cfg: &Algorithm1Config,
    session: &mut ProbeSession<'_>,
    use_special: bool,
) -> Option<Algorithm1Outcome> {
    let source = if use_special {
        ProbeSource::Bisection
    } else {
        ProbeSource::ContiguousFallback
    };
    let total_u = chain.total_compute_time();
    let mut lb = total_u / platform.n_gpus as f64;
    let mut ub = total_u + platform.total_cut_time(chain);
    let mut t_hat = lb.max(f64::MIN_POSITIVE);

    let mut best: Option<Algorithm1Outcome> = None;
    let mut probes: Vec<Probe> = Vec::with_capacity(cfg.iterations);

    for _ in 0..cfg.iterations {
        let out = session.probe(t_hat, use_special, source);
        let raw = out.period;
        let estimate = raw.max(t_hat);
        probes.push(Probe {
            t_hat,
            raw,
            estimate,
            allocation: out.allocation.clone(),
        });
        if let Some(alloc) = out.allocation {
            let better = best.as_ref().is_none_or(|b| estimate < b.period);
            if better {
                best = Some(Algorithm1Outcome {
                    period: estimate,
                    t_hat,
                    allocation: alloc,
                    probes: Vec::new(),
                });
            }
            lb = lb.max(raw.min(t_hat));
            ub = ub.min(estimate);
        } else {
            // Infeasible at this target: only larger targets can help.
            lb = lb.max(t_hat);
        }
        t_hat = (lb + ub) / 2.0;
        if !(t_hat.is_finite()) || t_hat <= 0.0 {
            break;
        }
    }

    best.map(|mut b| {
        b.probes = probes;
        b
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use madpipe_model::Layer;

    fn chain(costs: &[(f64, f64)], act: u64) -> Chain {
        let layers = costs
            .iter()
            .enumerate()
            .map(|(i, &(f, b))| Layer::new(format!("l{i}"), f, b, 0, act))
            .collect();
        Chain::new("t", act, layers).unwrap()
    }

    #[test]
    fn finds_near_perfect_balance_when_memory_is_plentiful() {
        let c = chain(&[(1.0, 1.0); 8], 1);
        let platform = Platform::new(4, 1 << 30, 1e9).unwrap();
        let out = madpipe_allocation(&c, &platform, &Algorithm1Config::default()).unwrap();
        // Perfect balance is 16/4 = 4.
        assert!(out.period <= 4.5, "period {}", out.period);
        assert_eq!(out.probes.len(), 10);
    }

    #[test]
    fn none_when_memory_is_hopeless() {
        let c = chain(&[(1.0, 1.0)], 1 << 30);
        let platform = Platform::new(2, 1 << 10, 1e9).unwrap();
        assert!(madpipe_allocation(&c, &platform, &Algorithm1Config::default()).is_none());
    }

    #[test]
    fn best_period_never_above_sequential() {
        let c = chain(&[(2.0, 1.0), (1.0, 3.0), (4.0, 1.0), (1.0, 1.0)], 1000);
        let platform = Platform::new(3, 1 << 20, 1e5).unwrap();
        let out = madpipe_allocation(&c, &platform, &Algorithm1Config::default()).unwrap();
        let seq = c.total_compute_time() + platform.total_cut_time(&c);
        assert!(out.period <= seq + 1e-9);
    }

    #[test]
    fn tighter_memory_never_improves_the_period() {
        let c = chain(&[(1.0, 1.0); 10], 1 << 16);
        let cfg = Algorithm1Config::default();
        let roomy = Platform::new(4, 16 << 20, 1e7).unwrap();
        let tight = Platform::new(4, 2 << 20, 1e7).unwrap();
        let a = madpipe_allocation(&c, &roomy, &cfg).unwrap();
        let b = madpipe_allocation(&c, &tight, &cfg).unwrap();
        assert!(
            a.period <= b.period + 0.3,
            "roomy {} tight {}",
            a.period,
            b.period
        );
    }
}
