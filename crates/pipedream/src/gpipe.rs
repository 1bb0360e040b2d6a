//! GPipe-style synchronous pipelining (Huang et al. \[9\]) — the second
//! baseline of the paper's related work.
//!
//! GPipe splits each mini-batch into `m` micro-batches, pipelines all
//! forward passes through the `S` stages, then all backward passes, and
//! flushes before the weight update. The price is the *bubble*: per
//! mini-batch, the pipeline runs for `(m + S − 1)` micro-slots in each
//! direction instead of `m`, so
//!
//! `T ≈ (m + S − 1)/m · max_s ( U(s) ⊕ communication )`.
//!
//! Because execution is fully synchronous, only **one** weight version
//! (plus the gradient accumulator) is kept — `2W` per layer instead of
//! the `3W` of asynchronous 1F1B — and the paper's weight-staleness
//! machinery disappears. Without activation recomputation a stage holds
//! the activations of all `m` in-flight micro-batches (the same bytes as
//! one full mini-batch); with recomputation (GPipe's default) it holds
//! only the `m` stage-input tensors plus one micro-batch of internals,
//! paying the forward time again during backward.

use madpipe_model::{Chain, Partition, Platform};

/// GPipe scheduling parameters.
#[derive(Debug, Clone, Copy)]
pub struct GPipeConfig {
    /// Micro-batches per mini-batch (GPipe recommends `m ≥ 4·S`; `None`
    /// picks `4·S` automatically).
    pub micro_batches: Option<usize>,
    /// Recompute activations in the backward pass (GPipe's default).
    pub recompute: bool,
}

impl Default for GPipeConfig {
    fn default() -> Self {
        Self {
            micro_batches: None,
            recompute: true,
        }
    }
}

/// A GPipe plan: partition, micro-batch count, period and memory.
#[derive(Debug, Clone)]
pub struct GPipePlan {
    /// The contiguous partition (stage `i` on GPU `i`).
    pub partition: Partition,
    /// Micro-batches per mini-batch.
    pub micro_batches: usize,
    /// Whether activations are recomputed.
    pub recompute: bool,
    /// Seconds per mini-batch (including the pipeline flush bubble).
    pub period: f64,
    /// Peak memory per GPU in bytes.
    pub gpu_peak_bytes: Vec<u64>,
}

impl GPipePlan {
    /// Bubble fraction: share of the period lost to the flush.
    pub fn bubble_fraction(&self) -> f64 {
        let s = self.partition.len() as f64;
        let m = self.micro_batches as f64;
        (s - 1.0) / (m + s - 1.0)
    }
}

/// Period of one partition under GPipe's schedule.
fn gpipe_period(
    chain: &Chain,
    platform: &Platform,
    partition: &Partition,
    m: usize,
    recompute: bool,
) -> f64 {
    let s = partition.len();
    // Bottleneck micro-slot: the busiest resource per micro-batch —
    // stage compute (forward + backward [+ recompute]) or link time.
    let mut slot: f64 = 0.0;
    for (i, range) in partition.stages().iter().enumerate() {
        let mut t = chain.compute_time(range.clone());
        if recompute {
            t += chain.forward_time(range.clone());
        }
        slot = slot.max(t / m as f64);
        if i + 1 < s {
            let cut = partition.stages()[i + 1].start;
            slot = slot.max(platform.cut_time(chain, cut) / m as f64);
        }
    }
    (m + s - 1) as f64 * slot
}

/// Peak memory per GPU of one partition under GPipe's schedule.
fn gpipe_memory(chain: &Chain, partition: &Partition, m: usize, recompute: bool) -> Vec<u64> {
    let s = partition.len();
    partition
        .stages()
        .iter()
        .enumerate()
        .map(|(i, range)| {
            // Synchronous training: one weight version + one gradient.
            let weights = 2 * chain.weight_bytes(range.clone());
            let activations = if recompute {
                // m stage-input micro-tensors (= one mini-batch worth of
                // the boundary tensor) + one micro-batch of the recompute
                // working set ā − a_in. The boundary input's own 1/m
                // share lives in the stashed tensors already — counting
                // ā/m here would double-charge it.
                chain.activation_in(range.start)
                    + chain.recompute_working_set_bytes(range.clone()) / m as u64
            } else {
                // All m micro-batches of every internal activation —
                // exactly one mini-batch worth.
                chain.stored_activation_bytes(range.clone())
            };
            let mut buffers = 0;
            if range.start > 0 {
                buffers += 2 * chain.activation_in(range.start) / m as u64;
            }
            if i + 1 < s {
                buffers += 2 * chain.activation_out(range.end - 1) / m as u64;
            }
            weights + activations + buffers
        })
        .collect()
}

/// Plan with GPipe: balance a contiguous partition (same DP as
/// PipeDream's, bottleneck objective with GPipe's memory estimate baked
/// in by filtering), then apply the synchronous schedule.
///
/// Returns `None` when no partition fits in memory.
pub fn gpipe_plan(chain: &Chain, platform: &Platform, cfg: &GPipeConfig) -> Option<GPipePlan> {
    let max_stages = platform.n_gpus.min(chain.len());
    let mut best: Option<GPipePlan> = None;
    for s in 1..=max_stages {
        let m = cfg.micro_batches.unwrap_or(4 * s).max(1);
        // Balanced split into exactly `s` stages via binary search on the
        // bottleneck (classic chain partitioning).
        let Some(partition) = balanced_partition(chain, platform, s) else {
            continue;
        };
        let memory = gpipe_memory(chain, &partition, m, cfg.recompute);
        if memory.iter().any(|&b| b > platform.memory_bytes) {
            continue;
        }
        let period = gpipe_period(chain, platform, &partition, m, cfg.recompute);
        if best.as_ref().is_none_or(|b| period < b.period) {
            best = Some(GPipePlan {
                partition,
                micro_batches: m,
                recompute: cfg.recompute,
                period,
                gpu_peak_bytes: memory,
            });
        }
    }
    best
}

/// Minimize the max stage compute over contiguous splits into exactly
/// `s` stages (no memory constraint here; the caller filters).
fn balanced_partition(chain: &Chain, platform: &Platform, s: usize) -> Option<Partition> {
    let l = chain.len();
    if s > l {
        return None;
    }
    // DP over (first stage end, stages remaining), identical recurrence
    // to PipeDream's but without the memory estimate.
    let inf = f64::INFINITY;
    let mut d = vec![vec![inf; l + 1]; s + 1];
    let mut choice = vec![vec![usize::MAX; l + 1]; s + 1];
    for k in 0..l {
        d[1][k] = chain.compute_time(k..l);
        choice[1][k] = l;
    }
    for p in 2..=s {
        for k in 0..l {
            for e in (k + 1)..=(l - (p - 1)) {
                let rest = d[p - 1][e];
                if rest.is_infinite() {
                    continue;
                }
                let bottleneck = chain
                    .compute_time(k..e)
                    .max(platform.cut_time(chain, e))
                    .max(rest);
                if bottleneck < d[p][k] {
                    d[p][k] = bottleneck;
                    choice[p][k] = e;
                }
            }
        }
    }
    if d[s][0].is_infinite() {
        return None;
    }
    let mut cuts = Vec::new();
    let (mut k, mut p) = (0, s);
    while p > 0 {
        let e = choice[p][k];
        if e < l {
            cuts.push(e);
        }
        k = e;
        p -= 1;
    }
    Partition::from_cuts(&cuts, l).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use madpipe_model::Layer;

    fn chain(n: usize, act: u64, w: u64) -> Chain {
        let layers = (0..n)
            .map(|i| Layer::new(format!("l{i}"), 1.0, 2.0, w, act))
            .collect();
        Chain::new("t", act, layers).unwrap()
    }

    #[test]
    fn bubble_shrinks_with_more_micro_batches() {
        let c = chain(8, 16, 0);
        let platform = Platform::new(4, 1 << 30, 1e9).unwrap();
        let few = gpipe_plan(
            &c,
            &platform,
            &GPipeConfig {
                micro_batches: Some(4),
                recompute: false,
            },
        )
        .unwrap();
        let many = gpipe_plan(
            &c,
            &platform,
            &GPipeConfig {
                micro_batches: Some(32),
                recompute: false,
            },
        )
        .unwrap();
        assert!(many.period < few.period);
        assert!(many.bubble_fraction() < few.bubble_fraction());
    }

    #[test]
    fn recompute_trades_memory_for_time() {
        let c = chain(8, 1 << 20, 0);
        let platform = Platform::new(4, 1 << 40, 1e9).unwrap();
        let cfg = GPipeConfig {
            micro_batches: Some(8),
            recompute: false,
        };
        let plain = gpipe_plan(&c, &platform, &cfg).unwrap();
        let recomputed = gpipe_plan(
            &c,
            &platform,
            &GPipeConfig {
                recompute: true,
                ..cfg
            },
        )
        .unwrap();
        assert!(
            recomputed.period > plain.period,
            "recompute adds forward time"
        );
        assert!(
            recomputed.gpu_peak_bytes.iter().max() < plain.gpu_peak_bytes.iter().max(),
            "recompute must reduce peak memory"
        );
    }

    #[test]
    fn synchronous_weights_cost_two_copies() {
        let c = chain(2, 4, 1000);
        let platform = Platform::new(1, 1 << 30, 1e9).unwrap();
        let plan = gpipe_plan(
            &c,
            &platform,
            &GPipeConfig {
                micro_batches: Some(1),
                recompute: false,
            },
        )
        .unwrap();
        // single GPU: 2·(2·1000) weights + activations + no buffers
        assert_eq!(
            plan.gpu_peak_bytes[0],
            4000 + c.stored_activation_bytes(0..2)
        );
    }

    #[test]
    fn recompute_memory_matches_the_lifted_model() {
        use madpipe_model::{ActivationPolicy, StagePolicy, WeightPolicy};
        // Differential pin: GPipe's recompute activation bytes must equal
        // the model-crate formulation — one mini-batch of the boundary
        // input (the per-live-batch pin, stashed as m micro-tensors) plus
        // 1/m of the recompute working set ā − a_in. The historic
        // `a_in + ā/m` double-counted the boundary input's 1/m share.
        let c = chain(8, 1 << 20, 64);
        let rec = StagePolicy {
            activation: ActivationPolicy::Recompute,
            weights: WeightPolicy::TwoBw,
        };
        for s in [1usize, 2, 4] {
            let platform = Platform::new(4, 1 << 40, 1e9).unwrap();
            let part = balanced_partition(&c, &platform, s).unwrap();
            for m in [1usize, 4, 8] {
                let mem = gpipe_memory(&c, &part, m, true);
                for (i, range) in part.stages().iter().enumerate() {
                    let weights = 2 * c.weight_bytes(range.clone());
                    let expect_act = c.stage_live_batch_bytes(range.clone(), rec)
                        + c.recompute_working_set_bytes(range.clone()) / m as u64;
                    let mut buffers = 0;
                    if range.start > 0 {
                        buffers += 2 * c.activation_in(range.start) / m as u64;
                    }
                    if i + 1 < s {
                        buffers += 2 * c.activation_out(range.end - 1) / m as u64;
                    }
                    assert_eq!(mem[i], weights + expect_act + buffers, "s={s} m={m} i={i}");
                }
            }
        }
    }

    #[test]
    fn recompute_at_one_micro_batch_stores_exactly_one_batch() {
        // At m = 1 the recompute peak equals the store peak: stashing the
        // boundary input and regenerating ā − a_in is the same bytes as
        // storing ā outright. The pre-fix formula was a_in larger.
        let c = chain(6, 1 << 16, 128);
        let platform = Platform::new(3, 1 << 40, 1e9).unwrap();
        let part = balanced_partition(&c, &platform, 3).unwrap();
        assert_eq!(
            gpipe_memory(&c, &part, 1, true),
            gpipe_memory(&c, &part, 1, false)
        );
    }

    #[test]
    fn infeasible_memory_returns_none() {
        let c = chain(4, 1 << 20, 1 << 20);
        let platform = Platform::new(2, 1 << 10, 1e9).unwrap();
        assert!(gpipe_plan(&c, &platform, &GPipeConfig::default()).is_none());
    }

    #[test]
    fn default_micro_batch_count_follows_stage_count() {
        let c = chain(8, 16, 0);
        let platform = Platform::new(4, 1 << 40, 1e9).unwrap();
        let plan = gpipe_plan(&c, &platform, &GPipeConfig::default()).unwrap();
        assert_eq!(plan.micro_batches, 4 * plan.partition.len());
    }

    #[test]
    fn balanced_partition_is_balanced() {
        let c = chain(8, 1, 0);
        let platform = Platform::new(4, 1 << 40, 1e12).unwrap();
        let part = balanced_partition(&c, &platform, 4).unwrap();
        assert_eq!(part.len(), 4);
        for s in part.stages() {
            assert_eq!(s.len(), 2);
        }
    }
}
