//! Optimal period search for contiguous allocations.
//!
//! For a fixed contiguous allocation, the 1F1B* pattern at period `T`
//! uses the least memory among all valid patterns of period `T`
//! (Proposition 1), and that memory usage is non-increasing in `T`
//! (larger periods make groups coarser). The smallest feasible period is
//! therefore found by searching the *breakpoints* of the group structure:
//! group formation only compares `T` against sums of consecutive unit
//! loads, so the optimum is either the load lower bound or one of the
//! `O(N²)` window sums.

use madpipe_model::{Allocation, Chain, Platform, UnitSequence};

use crate::check::{check_pattern, PatternReport, ScheduleError};
use crate::one_f1b::one_f1b_star;
use crate::pattern::Pattern;

/// Result of the optimal-period search.
#[derive(Debug, Clone)]
pub struct BestPeriod {
    /// The smallest feasible period.
    pub period: f64,
    /// The 1F1B* pattern realizing it.
    pub pattern: Pattern,
    /// Exact check report (memory peaks, live batches, pipeline depth).
    pub report: PatternReport,
}

/// Find the smallest period at which the contiguous allocation `alloc`
/// admits a valid (memory-feasible) periodic pattern, and build it.
///
/// Returns the [`ScheduleError`] of the most relaxed attempt (one live
/// batch everywhere) when the allocation cannot fit in memory at any
/// period.
pub fn best_contiguous_period(
    chain: &Chain,
    platform: &Platform,
    alloc: &Allocation,
) -> Result<BestPeriod, ScheduleError> {
    debug_assert!(
        alloc.is_contiguous(),
        "1F1B* requires a contiguous allocation"
    );
    let seq = UnitSequence::from_allocation(chain, platform, alloc);

    let t_lo = seq.max_unit_load();
    let candidates = window_sums(&seq, t_lo);

    let try_period = |t: f64| -> Result<(Pattern, PatternReport), ScheduleError> {
        let pattern = one_f1b_star(&seq, t);
        let report = check_pattern(chain, platform, alloc, &seq, &pattern)?;
        Ok((pattern, report))
    };

    // The most relaxed candidate: a single group, one live batch per
    // stage. If even this fails, the allocation is infeasible.
    let t_hi = *candidates.last().expect("at least the load bound");
    try_period(t_hi)?;

    // Feasibility is monotone in T: binary search the first feasible
    // candidate.
    let mut lo = 0usize; // may be infeasible
    let mut hi = candidates.len() - 1; // feasible
    if try_period(candidates[0]).is_ok() {
        hi = 0;
    }
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if try_period(candidates[mid]).is_ok() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    // `hi` is the first feasible index unless index 0 was already feasible.
    let t_best = candidates[hi];
    let (pattern, report) = try_period(t_best).expect("feasible by search invariant");
    Ok(BestPeriod {
        period: t_best,
        pattern,
        report,
    })
}

/// Sorted, deduplicated candidate periods: the load lower bound plus
/// every sum of consecutive unit loads that is at least the bound (group
/// formation breakpoints), ending at the total load (single group).
fn window_sums(seq: &UnitSequence, t_lo: f64) -> Vec<f64> {
    let loads: Vec<f64> = seq.units().iter().map(|u| u.total_time()).collect();
    let mut out = vec![t_lo];
    for i in 0..loads.len() {
        let mut acc = 0.0;
        for load in &loads[i..] {
            acc += load;
            if acc >= t_lo {
                out.push(acc);
            }
        }
    }
    out.sort_by(f64::total_cmp);
    out.dedup_by(|a, b| madpipe_model::util::feq(*a, *b));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use madpipe_model::{Layer, Partition};

    fn setup(memory: u64) -> (Chain, Platform, Allocation) {
        // Two stages of load 4 each, comm load 2, activations of 100 B.
        let chain = Chain::new(
            "t",
            100,
            vec![
                Layer::new("a", 2.0, 2.0, 0, 100),
                Layer::new("b", 2.0, 2.0, 0, 100),
            ],
        )
        .unwrap();
        let platform = Platform::new(2, memory, 100.0).unwrap();
        let part = Partition::from_cuts(&[1], 2).unwrap();
        let alloc = Allocation::contiguous(&part, 2).unwrap();
        (chain, platform, alloc)
    }

    #[test]
    fn unconstrained_memory_reaches_the_load_bound() {
        let (chain, platform, alloc) = setup(1 << 40);
        let best = best_contiguous_period(&chain, &platform, &alloc).unwrap();
        assert!((best.period - 4.0).abs() < 1e-9);
    }

    #[test]
    fn tight_memory_forces_a_larger_period() {
        // Static on gpu0: 2·100 buffer = 200; ā(stage0) = 100.
        // At T = 4 (load bound) stage0 is in group 2 → 200 + 2·100 = 400.
        // Memory 350 only allows one live batch → need a single group:
        // total load = 4 + 2 + 4 = 10.
        let (chain, _p, alloc) = setup(1);
        let platform = Platform::new(2, 350, 100.0).unwrap();
        let best = best_contiguous_period(&chain, &platform, &alloc).unwrap();
        assert!(best.period > 4.0 + 1e-9);
        assert!(best.report.unit_live_batches[0] <= 1);
        // And the found period is exactly a window sum making stage0
        // share a group with everything after it: 4 + 2 + 4 = 10.
        assert!((best.period - 10.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_memory_reports_error() {
        let (chain, _p, alloc) = setup(1);
        let platform = Platform::new(2, 250, 100.0).unwrap(); // < static+ā
        let err = best_contiguous_period(&chain, &platform, &alloc).unwrap_err();
        assert!(matches!(err, ScheduleError::MemoryExceeded { .. }));
    }

    #[test]
    fn intermediate_memory_picks_an_intermediate_breakpoint() {
        // Memory 450 allows 2 live batches on stage0 (200 + 2·100 = 400)
        // but not 3; at T = 4, how many groups? units loads 4,2,4:
        // back: 4 → g1; 2: 6 > 4 → g2; 4: g3 → stage0 stores 3 → 500 > 450.
        // T = 6: g(4)=1, +2 = 6 ≤ 6 g1, +4 > 6 → g2 → stage0 stores 2 → 400 ≤ 450.
        let (chain, _p, alloc) = setup(1);
        let platform = Platform::new(2, 450, 100.0).unwrap();
        let best = best_contiguous_period(&chain, &platform, &alloc).unwrap();
        assert!((best.period - 6.0).abs() < 1e-9);
        assert_eq!(best.report.unit_live_batches[0], 2);
    }

    #[test]
    fn monotone_feasibility_assumption_holds_exhaustively() {
        // Sanity net for the binary search: on this instance, scan all
        // candidates linearly and confirm feasibility is monotone.
        let (chain, _p, alloc) = setup(1);
        let platform = Platform::new(2, 450, 100.0).unwrap();
        let seq = UnitSequence::from_allocation(&chain, &platform, &alloc);
        let candidates = window_sums(&seq, seq.max_unit_load());
        let mut seen_feasible = false;
        for &t in &candidates {
            let ok = check_pattern(&chain, &platform, &alloc, &seq, &one_f1b_star(&seq, t)).is_ok();
            if seen_feasible {
                assert!(ok, "feasibility must be monotone in T");
            }
            seen_feasible |= ok;
        }
        assert!(seen_feasible);
    }
}
