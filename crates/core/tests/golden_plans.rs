//! Golden digest of whole plans.
//!
//! A faster DP may change how much work a probe does, never what it
//! answers. This test pins an FNV-1a digest of everything a plan's
//! probes and result carry: every probe's source, target, DP variant,
//! raw period and allocation (stages, GPUs, policies; not its state
//! count), the phase-1 estimate and target, and the shipped allocation,
//! period and pattern (every op's unit, direction, start bits and
//! shift). The cells are each paper network at one memory-tight and one
//! roomy cell, ResNet-50 under the three policy variants, and two random
//! instances whose solves once hit the DP's edge cases: seed 34, where an
//! optimum sits exactly at a capped incumbent, and seed 239, where DP
//! feasibility is not monotone in the target. Each probe is re-asked
//! through a fresh session, in the plan's order, and must answer the
//! plan's period. The pinned value was recorded before the session capped
//! its solves, and the capped solver reproduces it. The digest changes
//! only when plans change on purpose.

use madpipe_core::{madpipe_plan_with_stats, PlannerConfig, ProbeSession};
use madpipe_dnn::{networks, random_chain, GpuModel, RandomChainConfig};
use madpipe_model::{Allocation, Chain, Platform, PolicySpec, RecomputeMode, WeightPolicy};
use madpipe_schedule::Dir;

/// FNV-1a, 64 bits.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn alloc(&mut self, alloc: Option<&Allocation>) {
        let Some(alloc) = alloc else {
            self.u64(0);
            return;
        };
        self.u64(alloc.stages().len() as u64);
        for s in alloc.stages() {
            self.u64(s.layers.start as u64);
            self.u64(s.layers.end as u64);
            self.u64(s.gpu as u64);
            self.u64(s.policy.recomputes() as u64);
            self.u64(s.policy.weights.multiplier());
        }
    }
}

/// Plan one cell, then feed the digest every probe (re-asked through a
/// fresh session for its allocation) and the plan.
fn feed(h: &mut Fnv, chain: &Chain, platform: &Platform, policy: PolicySpec) {
    let cfg = PlannerConfig {
        policy,
        ..PlannerConfig::default()
    };
    let (plan, stats) = madpipe_plan_with_stats(chain, platform, &cfg);
    let disc = cfg.algorithm1.discretization;
    let mut session = ProbeSession::new_with_policy(chain, platform, &disc, policy);
    h.u64(stats.probes.len() as u64);
    for p in &stats.probes {
        h.u64(p.source as u64);
        h.f64(p.t_hat);
        h.u64(p.use_special as u64);
        let out = session.probe(p.t_hat, p.use_special, p.source);
        assert_eq!(out.period.to_bits(), p.period.to_bits());
        h.f64(out.period);
        h.alloc(out.allocation.as_ref());
    }
    match plan {
        Ok(plan) => {
            h.u64(1);
            h.f64(plan.phase1.period);
            h.f64(plan.phase1.t_hat);
            h.alloc(Some(&plan.allocation));
            h.f64(plan.period());
            h.u64(plan.schedule.pattern.ops.len() as u64);
            for op in &plan.schedule.pattern.ops {
                h.u64(op.unit as u64);
                h.u64(matches!(op.dir, Dir::Backward) as u64);
                h.f64(op.start);
                h.u64(op.shift);
            }
        }
        Err(e) => {
            h.u64(2);
            h.bytes(e.to_string().as_bytes());
        }
    }
}

fn network(name: &str) -> Chain {
    networks::by_name(name)
        .unwrap()
        .profile(8, 1000, &GpuModel::default())
        .unwrap()
}

/// A random chain of the whole-plan differential, on `gpus` GPUs with
/// 1 GiB each and 12 GiB/s links.
fn random_instance(
    seed: u64,
    layers: usize,
    max_act: u64,
    cnn: bool,
    gpus: usize,
) -> (Chain, Platform) {
    let cfg = RandomChainConfig {
        layers,
        forward_range: (0.5e-3, 5e-3),
        weight_range: (1 << 16, 1 << 24),
        activation_range: (1 << 20, max_act),
        cnn_profile: cnn,
    };
    let platform = Platform::new(gpus, 1 << 30, 12.0 * (1u64 << 30) as f64).unwrap();
    (random_chain(&cfg, seed), platform)
}

/// Seed 34: 9 CNN-profiled layers on 6 GPUs.
fn seed_34() -> (Chain, Platform) {
    random_instance(34, 9, 64 << 20, true, 6)
}

/// Seed 239: 14 layers on 5 GPUs.
fn seed_239() -> (Chain, Platform) {
    random_instance(239, 14, 256 << 20, false, 5)
}

const GOLDEN: u64 = 0x8f63_1723_26d4_d0d9;

#[test]
fn whole_plan_digest_is_pinned() {
    let mut h = Fnv::new();
    let default = PolicySpec::default();
    for (name, tight_gb) in [
        ("resnet50", 3),
        ("resnet101", 4),
        ("inception", 3),
        ("densenet121", 4),
    ] {
        let chain = network(name);
        for m_gb in [tight_gb, 16] {
            feed(
                &mut h,
                &chain,
                &Platform::gb(2, m_gb, 12.0).unwrap(),
                default,
            );
        }
    }
    let resnet50 = network("resnet50");
    let tight = Platform::gb(2, 3, 12.0).unwrap();
    let spec = |recompute, weights| PolicySpec { recompute, weights };
    for policy in [
        spec(RecomputeMode::Auto, WeightPolicy::Full),
        spec(RecomputeMode::Always, WeightPolicy::Full),
        spec(RecomputeMode::Never, WeightPolicy::TwoBw),
    ] {
        feed(&mut h, &resnet50, &tight, policy);
    }
    for (chain, platform) in [seed_34(), seed_239()] {
        feed(&mut h, &chain, &platform, default);
    }
    assert_eq!(h.0, GOLDEN, "digest {:#018x}", h.0);
}

#[test]
fn seed_34_plans_without_a_cap_miss() {
    // Several of this plan's capped solves have their optimum exactly at
    // the cap. A branch-and-bound floor a few ulps above a subtree's
    // exact value would prune that optimum and force an uncapped
    // re-solve; the floor's slack keeps it a true lower bound.
    let (chain, platform) = seed_34();
    let (plan, stats) = madpipe_plan_with_stats(&chain, &platform, &PlannerConfig::default());
    plan.unwrap();
    assert!(stats.dp.capped > 0, "{:?}", stats.dp);
    assert_eq!(stats.dp.cap_misses, 0, "{:?}", stats.dp);
}
