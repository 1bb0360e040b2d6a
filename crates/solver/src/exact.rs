//! Exhaustive reference optimum for tiny instances.
//!
//! Enumerates *every* allocation — all contiguous partitions of the
//! chain crossed with all stage→GPU assignments (canonicalized under GPU
//! relabeling) — and schedules each with the branch-and-bound placer at
//! a high node budget. On instances this small the placer's per-gap
//! candidate enumeration covers all *active* schedules (every operation
//! starts at its dependency-ready time or at the end of another op on
//! its resource), so the result is the true optimum over periodic
//! patterns of that form. Used by the test suites to certify the quality
//! of MadPipe, PipeDream and the heuristics; exponential — keep
//! `chain.len() ≤ ~7` and `n_gpus ≤ 3`.

use madpipe_model::{Allocation, Chain, Partition, Platform, Stage};

use crate::place::{PlaceConfig, PlaceStats};
use crate::search::{best_period, Cutoff, SolvedSchedule};

/// The best allocation + schedule found by exhaustive enumeration.
#[derive(Debug, Clone)]
pub struct ExactOptimum {
    /// The optimal allocation.
    pub allocation: Allocation,
    /// Its schedule.
    pub schedule: SolvedSchedule,
    /// Number of allocations enumerated (after symmetry reduction).
    pub explored: usize,
}

/// Enumerate every allocation of `chain` onto the platform's GPUs and
/// return the minimum-period schedulable one. `None` if nothing fits in
/// memory.
pub fn exact_optimum(chain: &Chain, platform: &Platform) -> Option<ExactOptimum> {
    let l = chain.len();
    let p = platform.n_gpus;
    let cfg = PlaceConfig {
        node_budget: 1 << 16,
        max_alternatives: 8,
        compaction: true,
    };

    let mut best: Option<ExactOptimum> = None;
    let mut explored = 0usize;
    for stages in 1..=l {
        for partition in Partition::enumerate(l, stages) {
            for assignment in canonical_assignments(stages, p) {
                explored += 1;
                let alloc = Allocation::new(
                    partition
                        .stages()
                        .iter()
                        .zip(&assignment)
                        .map(|(range, &gpu)| Stage::new(range.clone(), gpu))
                        .collect(),
                    l,
                    p,
                )
                .expect("enumerated allocations are well-formed");
                // Only a strictly shorter period replaces the incumbent,
                // so the search may stop as soon as it cannot beat it.
                let cutoff = best.as_ref().map(|b| Cutoff {
                    period: b.schedule.period,
                    ties_win: false,
                });
                let solved = best_period(
                    chain,
                    platform,
                    &alloc,
                    &cfg,
                    cutoff,
                    &mut PlaceStats::default(),
                );
                if let Ok(Some(schedule)) = solved {
                    let better = best
                        .as_ref()
                        .is_none_or(|b| schedule.period < b.schedule.period);
                    if better {
                        best = Some(ExactOptimum {
                            allocation: alloc,
                            schedule,
                            explored,
                        });
                    }
                }
            }
        }
    }
    best.map(|mut b| {
        b.explored = explored;
        b
    })
}

/// All stage→GPU assignments canonical under GPU relabeling: GPU indices
/// appear in first-use order (assignment `i` may only use GPUs
/// `0..=max_used+1`).
fn canonical_assignments(stages: usize, gpus: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(stages);
    // `used` = number of distinct GPUs referenced so far; the next stage
    // may reuse any of them or open GPU `used` (if one remains).
    fn rec(
        stages: usize,
        gpus: usize,
        used: usize,
        current: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if current.len() == stages {
            out.push(current.clone());
            return;
        }
        let limit = used.min(gpus - 1);
        for g in 0..=limit {
            current.push(g);
            rec(stages, gpus, used.max(g + 1), current, out);
            current.pop();
        }
    }
    rec(stages, gpus, 0, &mut current, &mut out);
    // The first stage is always on GPU 0 by canonicalization; ensure the
    // recursion produced exactly that.
    debug_assert!(out.iter().all(|a| a[0] == 0));
    out
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
    fn canonical_assignments_count() {
        // 3 stages on 2 GPUs: 0-00,0-01,0-10,0-11 → 4 canonical maps.
        assert_eq!(canonical_assignments(3, 2).len(), 4);
        // 1 stage: only [0].
        assert_eq!(canonical_assignments(1, 5), vec![vec![0]]);
        // Bell-like growth capped by GPU count.
        assert_eq!(canonical_assignments(3, 3).len(), 5);
    }

    #[test]
    fn finds_the_interleaved_optimum() {
        // Loads 4, 8, 4: optimal on 2 GPUs is {0,2} vs {1} at period ≈ 8.
        let c = chain(&[(2.0, 2.0), (4.0, 4.0), (2.0, 2.0)], 1);
        let platform = Platform::new(2, 1 << 30, 1e9).unwrap();
        let opt = exact_optimum(&c, &platform).unwrap();
        assert!(opt.schedule.period < 8.5, "period {}", opt.schedule.period);
        let gpus: Vec<usize> = opt.allocation.stages().iter().map(|s| s.gpu).collect();
        assert_eq!(gpus[0], gpus[2]);
        assert_ne!(gpus[0], gpus[1]);
    }

    #[test]
    fn memory_hopeless_instances_return_none() {
        let c = chain(&[(1.0, 1.0)], 1 << 30);
        let platform = Platform::new(2, 1 << 10, 1e9).unwrap();
        assert!(exact_optimum(&c, &platform).is_none());
    }

    #[test]
    fn single_layer_single_gpu() {
        let c = chain(&[(1.0, 2.0)], 8);
        let platform = Platform::new(1, 1 << 20, 1e9).unwrap();
        let opt = exact_optimum(&c, &platform).unwrap();
        assert!((opt.schedule.period - 3.0).abs() < 1e-9);
        assert_eq!(opt.explored, 1);
    }
}
