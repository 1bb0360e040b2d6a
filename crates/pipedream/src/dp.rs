//! PipeDream's contiguous partitioning dynamic program.

use madpipe_model::{Chain, Partition, Platform, StagePolicy};

/// Result of the partitioning DP.
#[derive(Debug, Clone)]
pub struct PartitionOutcome {
    /// The chosen contiguous partition (at most `P` stages).
    pub partition: Partition,
    /// The bottleneck period the DP *predicts* (the dashed PipeDream line
    /// of Figure 6): max over stage compute times and cut times.
    pub predicted_period: f64,
    /// Whether the rough memory estimate was satisfiable; when `false`,
    /// the returned partition ignores memory entirely (PipeDream's DP
    /// found no estimate-feasible split and fell back to pure load
    /// balancing).
    pub estimate_feasible: bool,
}

/// Run the PipeDream partitioner: minimize the bottleneck of a contiguous
/// split of `chain` into at most `platform.n_gpus` stages, subject to the
/// rough memory estimate (the `j`-th stage from the end keeps `j`
/// in-flight activations, plus `3W` weights and `2a` comm buffers).
///
/// Returns `None` only for degenerate inputs (empty chain).
pub fn pipedream_partition(chain: &Chain, platform: &Platform) -> Option<PartitionOutcome> {
    if chain.is_empty() {
        return None;
    }
    if let Some((partition, predicted_period)) = solve(chain, platform, true) {
        return Some(PartitionOutcome {
            partition,
            predicted_period,
            estimate_feasible: true,
        });
    }
    // Estimate-infeasible: PipeDream still emits its best load-balanced
    // split; 1F1B* repair downstream decides whether anything fits.
    let (partition, predicted_period) = solve(chain, platform, false)?;
    Some(PartitionOutcome {
        partition,
        predicted_period,
        estimate_feasible: false,
    })
}

/// The DP proper. `d[k][p]` = best achievable bottleneck for layers
/// `[k, L)` split into exactly `p` stages, the first of which is the
/// `p`-th stage from the end of the pipeline (and thus keeps `p`
/// activation versions under PipeDream's estimate).
fn solve(chain: &Chain, platform: &Platform, use_memory: bool) -> Option<(Partition, f64)> {
    let l_total = chain.len();
    let max_stages = platform.n_gpus.min(l_total);
    let inf = f64::INFINITY;

    // d[p][k], choice[p][k] = end layer of the first stage.
    let mut d = vec![vec![inf; l_total + 1]; max_stages + 1];
    let mut choice = vec![vec![usize::MAX; l_total + 1]; max_stages + 1];

    let fits = |k: usize, l: usize, versions: u64| -> bool {
        !use_memory
            || chain.stage_memory(k..l, versions, StagePolicy::default()) <= platform.memory_bytes
    };

    // Base: one stage covering [k, L).
    for k in 0..l_total {
        if fits(k, l_total, 1) {
            d[1][k] = chain.compute_time(k..l_total);
            choice[1][k] = l_total;
        }
    }
    for p in 2..=max_stages {
        for k in 0..l_total {
            // First stage [k, l), then p-1 stages over [l, L).
            // Need at least p-1 layers after l.
            for l in (k + 1)..=(l_total - (p - 1)) {
                if !fits(k, l, p as u64) {
                    continue;
                }
                let rest = d[p - 1][l];
                if rest.is_infinite() {
                    continue;
                }
                let bottleneck = chain
                    .compute_time(k..l)
                    .max(platform.cut_time(chain, l))
                    .max(rest);
                if bottleneck < d[p][k] {
                    d[p][k] = bottleneck;
                    choice[p][k] = l;
                }
            }
        }
    }

    // Best over the number of stages actually used.
    let mut best: Option<(usize, f64)> = None;
    for (p, row) in d.iter().enumerate().skip(1) {
        let v = row[0];
        if v.is_finite() && best.map(|(_, b)| v < b).unwrap_or(true) {
            best = Some((p, v));
        }
    }
    let (p_best, period) = best?;

    // Reconstruct.
    let mut cuts = Vec::new();
    let mut k = 0;
    let mut p = p_best;
    while p > 0 {
        let l = choice[p][k];
        debug_assert_ne!(l, usize::MAX);
        if l < l_total {
            cuts.push(l);
        }
        k = l;
        p -= 1;
    }
    let partition = Partition::from_cuts(&cuts, l_total).expect("DP reconstruction is a cover");
    Some((partition, period))
}

#[cfg(test)]
mod tests {
    use super::*;
    use madpipe_model::Layer;

    fn uniform_chain(n: usize, act: u64) -> Chain {
        let layers = (0..n)
            .map(|i| Layer::new(format!("l{i}"), 1.0, 1.0, 0, act))
            .collect();
        Chain::new("u", act, layers).unwrap()
    }

    #[test]
    fn balances_uniform_chain_evenly() {
        let chain = uniform_chain(8, 1);
        let platform = Platform::new(4, 1 << 40, 1e12).unwrap();
        let out = pipedream_partition(&chain, &platform).unwrap();
        assert!(out.estimate_feasible);
        assert_eq!(out.partition.len(), 4);
        assert!((out.predicted_period - 4.0).abs() < 1e-9);
        for s in out.partition.stages() {
            assert_eq!(s.len(), 2);
        }
    }

    #[test]
    fn avoids_expensive_cuts_on_slow_links() {
        // Layer 1 outputs a huge activation: cutting after it costs 200s.
        let chain = Chain::new(
            "t",
            1,
            vec![
                Layer::new("a", 1.0, 1.0, 0, 10_000),
                Layer::new("b", 1.0, 1.0, 0, 1),
                Layer::new("c", 1.0, 1.0, 0, 1),
                Layer::new("d", 1.0, 1.0, 0, 1),
            ],
        )
        .unwrap();
        let platform = Platform::new(2, 1 << 40, 100.0).unwrap();
        let out = pipedream_partition(&chain, &platform).unwrap();
        // Cutting at 1 costs 2·10000/100 = 200 > any compute imbalance.
        assert_ne!(out.partition.cuts(), vec![1]);
        assert!(out.predicted_period < 200.0);
    }

    #[test]
    fn uses_fewer_stages_when_comm_dominates() {
        // With absurdly slow links, the single-stage split wins.
        let chain = uniform_chain(4, 1_000_000);
        let platform = Platform::new(4, 1 << 40, 1.0).unwrap();
        let out = pipedream_partition(&chain, &platform).unwrap();
        assert_eq!(out.partition.len(), 1);
        assert!((out.predicted_period - 8.0).abs() < 1e-9);
    }

    #[test]
    fn memory_estimate_limits_stage_count() {
        // Each layer stores 100 B of activations (inputs), weights 0.
        // With 450 B of memory every split is estimate-infeasible (any
        // first stage needs ≥ 2·100 activations + 2·100 output buffer,
        // any last stage ≥ its ā + 200 input buffer), so the DP keeps the
        // whole chain on one GPU even though splitting balances better.
        let chain = uniform_chain(4, 100);
        let tight = Platform::new(4, 450, 1e12).unwrap();
        let out = pipedream_partition(&chain, &tight).unwrap();
        assert!(out.estimate_feasible);
        assert_eq!(out.partition.len(), 1);
        assert!((out.predicted_period - 8.0).abs() < 1e-9);

        // With 1000 B the 4-way split fits the estimate and halves ×4.
        let roomy = Platform::new(4, 1000, 1e12).unwrap();
        let out = pipedream_partition(&chain, &roomy).unwrap();
        assert!(out.estimate_feasible);
        assert_eq!(out.partition.len(), 4);
        assert!((out.predicted_period - 2.0).abs() < 1e-9);
        let s_count = out.partition.len();
        for (i, s) in out.partition.stages().iter().enumerate() {
            let versions = (s_count - i) as u64;
            assert!(chain.stage_memory(s.clone(), versions, StagePolicy::default()) <= 1000);
        }
    }

    #[test]
    fn falls_back_when_estimate_is_infeasible() {
        let chain = uniform_chain(4, 1_000_000);
        let platform = Platform::new(2, 100, 1e12).unwrap();
        let out = pipedream_partition(&chain, &platform).unwrap();
        assert!(!out.estimate_feasible);
        assert!(!out.partition.is_empty());
    }

    #[test]
    fn brute_force_agreement_on_small_chains() {
        // The DP must match exhaustive search of all contiguous splits
        // under the same rough estimate.
        let chain = Chain::new(
            "t",
            50,
            vec![
                Layer::new("a", 3.0, 4.0, 10, 120),
                Layer::new("b", 1.0, 2.0, 5, 80),
                Layer::new("c", 2.0, 2.0, 20, 60),
                Layer::new("d", 5.0, 1.0, 8, 90),
                Layer::new("e", 1.0, 1.0, 12, 30),
            ],
        )
        .unwrap();
        let platform = Platform::new(3, 2_000, 50.0).unwrap();
        let out = pipedream_partition(&chain, &platform).unwrap();

        let mut best = f64::INFINITY;
        for p in 1..=3 {
            for cand in Partition::enumerate(5, p) {
                let s_count = cand.len();
                let mem_ok = cand.stages().iter().enumerate().all(|(i, s)| {
                    chain.stage_memory(s.clone(), (s_count - i) as u64, StagePolicy::default())
                        <= platform.memory_bytes
                });
                if !mem_ok {
                    continue;
                }
                best = best.min(cand.load_bound(&chain, &platform));
            }
        }
        assert!((out.predicted_period - best).abs() < 1e-9);
    }
}
