//! Period minimization for arbitrary allocations.

use madpipe_model::{Allocation, Chain, Platform, Resource, UnitKind, UnitSequence};
use madpipe_schedule::{check_pattern, Pattern, PatternReport, ScheduleError};

use crate::place::{schedule_at_period, PlaceConfig, PlaceStats};

/// A valid schedule found by the solver.
#[derive(Debug, Clone)]
pub struct SolvedSchedule {
    /// The achieved period.
    pub period: f64,
    /// The valid pattern.
    pub pattern: Pattern,
    /// Exact report from the checker.
    pub report: PatternReport,
}

/// A period a search must beat to matter: the incumbent of a fold that
/// keeps the first of equal periods in submission order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cutoff {
    /// The incumbent's period.
    pub period: f64,
    /// Whether a tie beats the incumbent: true for a candidate folded
    /// before it, false for one folded after it.
    pub ties_win: bool,
}

impl Cutoff {
    /// Whether a schedule of period `t` would beat the incumbent.
    pub fn admits(&self, t: f64) -> bool {
        t < self.period || (self.ties_win && t == self.period)
    }
}

/// Find (approximately) the smallest period at which `alloc` admits a
/// valid pattern, and build it, adding every placement call's work to
/// `stats`.
///
/// The candidate ladder contains the load lower bound, every sum of
/// consecutive unit loads (the breakpoints of group-structure changes —
/// exact for contiguous allocations), and a 5% geometric grid to cover
/// interleaving effects on multi-stage GPUs; candidates are probed with a
/// first-feasible binary search. The bisection assumes feasibility is
/// monotone in the period. That holds for patterns: a valid pattern
/// stays valid when `T` grows, since slack only increases and memory
/// needs only shrink. It does not hold for the budgeted placer, which
/// can fail at a period above one where it succeeds, so the search may
/// skip a lower ladder point that placement would reach.
///
/// With `cutoff` set, the search stops with `Ok(None)` once it can prove
/// its result would not beat the cutoff ([`Cutoff::admits`]):
///
/// * the load bound `t_lo` misses it, so no placement runs;
/// * the sequential period `t_hi` fails to place: the error is not
///   diagnosed, since a caller with an incumbent never reports it;
/// * the smallest ladder point the bisection can still return,
///   `candidates[lo + 1]`, misses it: the result is always
///   `candidates[hi]` with `hi > lo`, or `t_hi`, so it lies at or above
///   that point.
///
/// Otherwise it probes exactly the periods it would without a cutoff and
/// returns the same schedule. Without a cutoff the result is never
/// `Ok(None)`.
pub fn best_period(
    chain: &Chain,
    platform: &Platform,
    alloc: &Allocation,
    cfg: &PlaceConfig,
    cutoff: Option<Cutoff>,
    stats: &mut PlaceStats,
) -> Result<Option<SolvedSchedule>, ScheduleError> {
    let seq = UnitSequence::from_allocation(chain, platform, alloc);
    let t_lo = alloc.load_bound(chain, platform).max(seq.max_unit_load());
    let t_hi = seq.total_load().max(t_lo);
    let misses = |t: f64| cutoff.is_some_and(|c| !c.admits(t));
    if misses(t_lo) {
        return Ok(None);
    }

    let mut candidates = vec![t_lo];
    // Window sums of consecutive unit loads.
    let loads: Vec<f64> = seq.units().iter().map(|u| u.total_time()).collect();
    for i in 0..loads.len() {
        let mut acc = 0.0;
        for load in &loads[i..] {
            acc += load;
            if acc >= t_lo && acc <= t_hi {
                candidates.push(acc);
            }
        }
    }
    // Geometric grid (multi-stage GPUs create breakpoints that are not
    // plain window sums).
    let mut g = t_lo;
    while g < t_hi {
        candidates.push(g);
        g *= 1.05;
    }
    candidates.push(t_hi);
    candidates.sort_by(f64::total_cmp);
    candidates.dedup_by(|a, b| madpipe_model::util::feq(*a, *b));

    let mut try_t = |t: f64| schedule_at_period(chain, platform, alloc, &seq, t, cfg, stats);

    // Most relaxed candidate first: if the sequential period fails, the
    // allocation does not fit in memory at all.
    let Some(relaxed) = try_t(t_hi) else {
        if cutoff.is_some() {
            return Ok(None);
        }
        // Produce the precise error by checking the sequential pattern of
        // a contiguous-style relaxation; fall back to a generic error.
        return Err(diagnose_infeasible(
            chain, platform, alloc, &seq, t_hi, cfg, stats,
        ));
    };

    let mut best_pattern = relaxed;
    let mut lo = 0usize;
    let mut hi = candidates.len() - 1;
    if let Some(p) = try_t(candidates[0]) {
        best_pattern = p;
        hi = 0;
    }
    while lo < hi {
        if misses(candidates[lo + 1]) {
            return Ok(None);
        }
        if lo + 1 == hi {
            break;
        }
        let mid = (lo + hi) / 2;
        if let Some(p) = try_t(candidates[mid]) {
            best_pattern = p;
            hi = mid;
        } else {
            lo = mid;
        }
    }

    let report = check_pattern(chain, platform, alloc, &seq, &best_pattern)
        .expect("pattern was validated during placement");
    Ok(Some(SolvedSchedule {
        period: best_pattern.period,
        pattern: best_pattern,
        report,
    }))
}

/// Build a descriptive error for an allocation that has no valid pattern
/// even at the sequential period.
fn diagnose_infeasible(
    chain: &Chain,
    platform: &Platform,
    alloc: &Allocation,
    seq: &UnitSequence,
    t_hi: f64,
    cfg: &PlaceConfig,
    stats: &mut PlaceStats,
) -> ScheduleError {
    // Retry with a large budget and surface the checker's error if the
    // placement itself succeeds structurally.
    let big = PlaceConfig {
        node_budget: cfg.node_budget.max(1 << 14),
        ..*cfg
    };
    if schedule_at_period(chain, platform, alloc, seq, t_hi * 2.0, &big, stats).is_some() {
        // Feasible at a larger period: report the memory ceiling at t_hi.
        return ScheduleError::ResourceOverloaded {
            resource: madpipe_model::Resource::Gpu(0),
            load: t_hi,
            period: t_hi,
        };
    }
    // Memory-infeasible even sequentially: estimate the binding GPU —
    // static bytes plus one live batch of every hosted stage.
    let static_bytes = madpipe_schedule::check::static_memory(chain, alloc, seq);
    let mut need = static_bytes.clone();
    for unit in seq.units() {
        if let (UnitKind::Stage { layers, .. }, Resource::Gpu(gpu)) = (&unit.kind, unit.resource) {
            need[gpu] += chain.stage_live_batch_bytes(layers.clone(), unit.policy);
        }
    }
    let worst = need
        .iter()
        .copied()
        .enumerate()
        .max_by_key(|&(_, bytes)| bytes)
        .expect("at least one GPU");
    ScheduleError::MemoryExceeded {
        gpu: worst.0,
        peak: worst.1,
        limit: platform.memory_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madpipe_model::{Layer, Partition, Stage};
    use madpipe_schedule::best_contiguous_period;

    fn chain(costs: &[(f64, f64)], act: u64) -> Chain {
        let layers = costs
            .iter()
            .enumerate()
            .map(|(i, &(f, b))| Layer::new(format!("l{i}"), f, b, 0, act))
            .collect();
        Chain::new("t", act, layers).unwrap()
    }

    /// [`best_period`] under the default configuration, without a cutoff.
    fn solve(
        c: &Chain,
        platform: &Platform,
        alloc: &Allocation,
    ) -> Result<SolvedSchedule, ScheduleError> {
        best_period(
            c,
            platform,
            alloc,
            &PlaceConfig::default(),
            None,
            &mut PlaceStats::default(),
        )
        .map(|s| s.expect("no cutoff"))
    }

    #[test]
    fn matches_one_f1b_star_on_contiguous_allocations() {
        let c = chain(&[(2.0, 3.0), (1.0, 1.0), (4.0, 2.0)], 500);
        let platform = Platform::new(3, 6_000, 500.0).unwrap();
        let part = Partition::from_cuts(&[1, 2], 3).unwrap();
        let alloc = Allocation::contiguous(&part, 3).unwrap();
        let reference = best_contiguous_period(&c, &platform, &alloc).unwrap();
        let solved = solve(&c, &platform, &alloc).unwrap();
        assert!(
            solved.period <= reference.period + 1e-6,
            "solver {} vs 1F1B* {}",
            solved.period,
            reference.period
        );
    }

    #[test]
    fn special_gpu_allocation_beats_forced_contiguity() {
        // Heterogeneous chain where layers 0 and 2 together balance
        // against layer 1; only a non-contiguous allocation achieves it.
        let c = chain(&[(2.0, 2.0), (4.0, 4.0), (2.0, 2.0)], 1);
        let platform = Platform::new(2, 1 << 40, 1e9).unwrap();
        let noncontig = Allocation::new(
            vec![
                Stage::new(0..1, 0),
                Stage::new(1..2, 1),
                Stage::new(2..3, 0),
            ],
            3,
            2,
        )
        .unwrap();
        let solved = solve(&c, &platform, &noncontig).unwrap();
        // GPU loads are 8 and 8; comm negligible → period ≈ 8.
        assert!(solved.period < 8.5, "got {}", solved.period);

        // Best contiguous split on 2 GPUs: {0},{1,2} or {0,1},{2} → 12.
        let best_contig = [1usize, 2]
            .iter()
            .map(|&cut| {
                let part = Partition::from_cuts(&[cut], 3).unwrap();
                let a = Allocation::contiguous(&part, 2).unwrap();
                best_contiguous_period(&c, &platform, &a).unwrap().period
            })
            .fold(f64::INFINITY, f64::min);
        assert!(best_contig >= 12.0 - 1e-9);
        assert!(solved.period < best_contig);
    }

    #[test]
    fn a_cutoff_stops_only_searches_that_cannot_beat_it() {
        let c = chain(&[(2.0, 2.0), (4.0, 4.0), (2.0, 2.0)], 1);
        let platform = Platform::new(2, 1 << 40, 1e9).unwrap();
        let alloc = Allocation::new(
            vec![
                Stage::new(0..1, 0),
                Stage::new(1..2, 1),
                Stage::new(2..3, 0),
            ],
            3,
            2,
        )
        .unwrap();
        let cfg = PlaceConfig::default();
        let search = |cutoff: Option<Cutoff>| {
            let mut stats = PlaceStats::default();
            let solved = best_period(&c, &platform, &alloc, &cfg, cutoff, &mut stats).unwrap();
            (solved.map(|s| s.period.to_bits()), stats)
        };
        let (free, free_stats) = search(None);
        let t = f64::from_bits(free.expect("no cutoff"));
        let cut = |period: f64, ties_win: bool| Some(Cutoff { period, ties_win });

        // A cutoff the result beats changes nothing, not even the work.
        assert_eq!(search(cut(t * 2.0, false)), (free, free_stats));
        // A tie wins only for a candidate folded before the incumbent.
        assert_eq!(search(cut(t, true)), (free, free_stats));
        let (tied, tied_stats) = search(cut(t, false));
        assert_eq!(tied, None);
        assert!(tied_stats.calls <= free_stats.calls);
        // Below the load bound no placement runs at all.
        let load = alloc.load_bound(&c, &platform);
        assert_eq!(search(cut(load * 0.5, true)), (None, PlaceStats::default()));
    }

    #[test]
    fn a_cutoff_skips_diagnosing_an_allocation_that_never_fits() {
        let c = chain(&[(1.0, 1.0), (1.0, 1.0)], 1_000_000);
        let platform = Platform::new(2, 100, 1e9).unwrap();
        let part = Partition::from_cuts(&[1], 2).unwrap();
        let alloc = Allocation::contiguous(&part, 2).unwrap();
        let cfg = PlaceConfig::default();
        let cutoff = Some(Cutoff {
            period: f64::INFINITY,
            ties_win: false,
        });
        let mut stats = PlaceStats::default();
        let solved = best_period(&c, &platform, &alloc, &cfg, cutoff, &mut stats);
        assert_eq!(solved.map(|s| s.is_none()), Ok(true));
        assert_eq!(stats.calls, 1, "only the t_hi probe ran");
    }

    #[test]
    fn memory_infeasible_allocation_errors() {
        let c = chain(&[(1.0, 1.0), (1.0, 1.0)], 1_000_000);
        let platform = Platform::new(2, 100, 1e9).unwrap();
        let part = Partition::from_cuts(&[1], 2).unwrap();
        let alloc = Allocation::contiguous(&part, 2).unwrap();
        let err = solve(&c, &platform, &alloc).unwrap_err();
        assert!(matches!(err, ScheduleError::MemoryExceeded { .. }));
    }

    #[test]
    fn period_never_below_load_bound() {
        let c = chain(&[(3.0, 3.0), (1.0, 1.0), (1.0, 1.0)], 10);
        let platform = Platform::new(2, 1 << 40, 100.0).unwrap();
        let alloc = Allocation::new(vec![Stage::new(0..1, 0), Stage::new(1..3, 1)], 3, 2).unwrap();
        let solved = solve(&c, &platform, &alloc).unwrap();
        assert!(solved.period + 1e-9 >= alloc.load_bound(&c, &platform));
    }
}
