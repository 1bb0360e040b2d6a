//! End-to-end planning: MadPipe (phase 1 + phase 2) and the side-by-side
//! comparison against the PipeDream baseline used by the experiments.
//!
//! All DP probes of one plan — the bisection, the contiguous-fallback
//! ablation and the refinement grid — go through one [`ProbeSession`],
//! built by [`madpipe_plan_with_stats`] and dropped with the plan, so
//! every target's solve is capped by the allocations the plan's earlier
//! solves produced. No value carries over from one plan to the next; the
//! DP's buffers do, emptied, to the thread's next plan (see
//! [`crate::dp`], "What a plan's probes share").
//! Independent work (the refinement probes and the phase-2 scheduling of
//! distinct candidate allocations) fans out over
//! [`PlannerConfig::threads`] scoped workers; candidates are deduplicated
//! up front and results are folded in a fixed submission order with a
//! strict `<`, so the plan is bit-identical whatever the thread count.
//! Phase 2 schedules each batch's contiguous candidates first, and a
//! candidate that provably cannot beat the best of them (or of an earlier
//! batch) stops its period search early: that skips work without
//! changing the plan.

use madpipe_model::util::ordered_pool;
use madpipe_model::{Allocation, Chain, Platform, PolicySpec};
use madpipe_schedule::ScheduleError;
use madpipe_solver::{best_period, Cutoff, PlaceConfig, PlaceStats, SolvedSchedule};

use crate::algorithm1::{madpipe_allocation_session, Algorithm1Config, Algorithm1Outcome};
use crate::dp::ProbeSession;
use crate::stats::{PlannerStats, ProbeSource};

/// Tuning for the whole MadPipe pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Phase-1 (Algorithm 1 + DP discretization) parameters.
    pub algorithm1: Algorithm1Config,
    /// Phase-2 (branch-and-bound scheduler) parameters.
    pub place: PlaceConfig,
    /// Extra refinement probes: after the bisection, this many targets on
    /// a geometric grid between the load lower bound and the best
    /// achieved period are probed and scheduled. Algorithm 1's bisection
    /// steers by phase-1 *estimates*; because the special processor is
    /// deliberately under-estimated (§4.2.1), the estimate-optimal corner
    /// is not always the achieved-optimal one, and a coarse grid over
    /// achieved periods recovers it. `0` disables refinement (pure
    /// Algorithm 1 probe selection).
    pub refine_probes: usize,
    /// Worker threads for independent probes (refinement grid) and
    /// phase-2 candidate scheduling. `1` (the default) runs everything
    /// on the calling thread; any value produces bit-identical plans.
    pub threads: usize,
    /// Per-stage execution policy configuration: the recompute stance
    /// and the weight-versioning policy every DP probe solves under. The
    /// default reproduces the paper's memory model bit-for-bit.
    pub policy: PolicySpec,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            algorithm1: Algorithm1Config::default(),
            place: PlaceConfig::default(),
            refine_probes: 8,
            threads: 1,
            policy: PolicySpec::default(),
        }
    }
}

/// Why MadPipe failed to produce a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The instance is degenerate: no planner could do anything with it
    /// (zero-compute chain, more GPUs or layers than the DP state can
    /// index, …). The message says which precondition failed.
    Infeasible(String),
    /// Phase 1 found no memory-feasible allocation at any target period.
    Phase1Infeasible,
    /// Phase 2 could not schedule the phase-1 allocation at any period.
    Phase2(ScheduleError),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Infeasible(why) => write!(f, "degenerate instance: {why}"),
            PlanError::Phase1Infeasible => {
                write!(f, "no memory-feasible allocation at any target period")
            }
            PlanError::Phase2(e) => write!(f, "phase-1 allocation unschedulable: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A complete MadPipe plan.
#[derive(Debug, Clone)]
pub struct MadPipePlan {
    /// Phase-1 outcome: the best-estimate allocation and its optimistic
    /// period (the dashed MadPipe line of Figure 6).
    pub phase1: Algorithm1Outcome,
    /// The allocation actually scheduled — the probe whose phase-2
    /// schedule achieved the smallest valid period. Its stages carry
    /// their execution policies (all-default under the default
    /// [`PolicySpec`]).
    pub allocation: Allocation,
    /// The valid schedule found by phase 2 (the solid line).
    pub schedule: SolvedSchedule,
}

impl MadPipePlan {
    /// Achieved (valid) period.
    pub fn period(&self) -> f64 {
        self.schedule.period
    }

    /// Throughput in mini-batches per second.
    pub fn throughput(&self) -> f64 {
        1.0 / self.schedule.period
    }

    /// Achieved period over the phase-1 estimate (≥ 1 means phase 1 was
    /// optimistic; the paper reports MadPipe's dashed and solid lines
    /// nearly coincide).
    pub fn optimism_ratio(&self) -> f64 {
        self.schedule.period / self.phase1.period
    }
}

/// Reject instances the DP cannot even represent, with a message naming
/// the failed precondition instead of a panic deep inside the recursion.
fn validate(chain: &Chain, platform: &Platform) -> Result<(), PlanError> {
    // `Chain::new` guarantees every layer time is finite and
    // non-negative, but sums of huge finite values can still overflow to
    // `∞`; catch that here so no non-finite target ever reaches the DP,
    // the schedule search or the event heap.
    if !chain.total_compute_time().is_finite() {
        return Err(PlanError::Infeasible(
            "chain total compute time overflows to infinity".into(),
        ));
    }
    if !platform.total_cut_time(chain).is_finite() {
        return Err(PlanError::Infeasible(
            "total communication time overflows to infinity \
             (activations too large for the bandwidth)"
                .into(),
        ));
    }
    // Even individually finite totals can break the search arithmetic:
    // the bisection's `(lo + hi) / 2` and Algorithm 1's upper bound
    // `U(1,L) + ΣC(k)` must themselves stay finite. 10^300 seconds is
    // far beyond any physical profile, so reject rather than risk an
    // intermediate infinity reaching a DP probe.
    if chain.total_compute_time() + platform.total_cut_time(chain) > 1e300 {
        return Err(PlanError::Infeasible(
            "instance timing magnitudes are large enough to overflow period arithmetic".into(),
        ));
    }
    if chain.total_compute_time() <= 0.0 {
        return Err(PlanError::Infeasible(
            "chain has zero total compute time (all layers are zero-cost)".into(),
        ));
    }
    // `dp::Choice` stores a stage's split point in 16 bits.
    if chain.len() >= 1 << 16 {
        return Err(PlanError::Infeasible(format!(
            "chain has {} layers; the DP stores split points in 16 bits, \
             so at most 65535 (coarsen first)",
            chain.len()
        )));
    }
    if platform.n_gpus >= 256 {
        return Err(PlanError::Infeasible(format!(
            "platform has {} GPUs; the planner accepts at most 255",
            platform.n_gpus
        )));
    }
    Ok(())
}

/// One candidate's phase-2 outcome and the placement work it cost;
/// `Ok(None)` when its cutoff proved it cannot beat the incumbent.
type Scheduled = (Result<Option<SolvedSchedule>, ScheduleError>, PlaceStats);

/// Schedule one batch of candidate allocations on up to `threads`
/// workers. Results keep the input order.
///
/// Contiguous candidates go first: 1F1B* schedules them exactly, in
/// microseconds. Every other candidate then runs the branch-and-bound
/// solver under one [`Cutoff`], fixed before any of them starts: the best
/// period among `incumbent` (the earlier batches' best) and this batch's
/// contiguous candidates. The fold keeps the first of equal periods in
/// submission order, so a tie beats that best only for a candidate
/// submitted before it. Each solve is a pure function of its allocation
/// and the fixed cutoff, so outcomes and counters do not depend on the
/// thread count.
fn schedule_batch(
    chain: &Chain,
    platform: &Platform,
    candidates: &[Allocation],
    place: &PlaceConfig,
    threads: usize,
    incumbent: Option<f64>,
) -> Vec<Scheduled> {
    let mut slots: Vec<Option<Scheduled>> = candidates
        .iter()
        .map(|alloc| {
            alloc.is_contiguous().then(|| {
                let solved =
                    madpipe_schedule::best_contiguous_period(chain, platform, alloc).map(|b| {
                        Some(SolvedSchedule {
                            period: b.period,
                            pattern: b.pattern,
                            report: b.report,
                        })
                    });
                (solved, PlaceStats::default())
            })
        })
        .collect();

    // The best known period, and where this batch first reached it
    // (`None`: an earlier batch did).
    let mut best: Option<(f64, Option<usize>)> = incumbent.map(|period| (period, None));
    for (i, slot) in slots.iter().enumerate() {
        if let Some((Ok(Some(s)), _)) = slot {
            if best.is_none_or(|(b, _)| s.period < b) {
                best = Some((s.period, Some(i)));
            }
        }
    }
    let solve = |i: usize| -> Scheduled {
        let cutoff = best.map(|(period, at)| Cutoff {
            period,
            ties_win: at.is_some_and(|j| i < j),
        });
        let mut work = PlaceStats::default();
        let solved = best_period(chain, platform, &candidates[i], place, cutoff, &mut work);
        (solved, work)
    };

    let rest: Vec<usize> = (0..candidates.len())
        .filter(|&i| slots[i].is_none())
        .collect();
    let solved = ordered_pool(rest.len(), &mut vec![(); threads.max(1)], |_, j| {
        solve(rest[j])
    });
    for (i, r) in rest.into_iter().zip(solved) {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every candidate scheduled"))
        .collect()
}

/// Run the full MadPipe pipeline.
///
/// Phase 2 schedules every distinct allocation Algorithm 1 probed (best
/// estimate first) and keeps the smallest *achieved* period: the special
/// processor's deliberate `g−1` memory under-estimate makes individual
/// probes optimistic, and the probe that schedules closest to its
/// estimate is the right one to ship.
pub fn madpipe_plan(
    chain: &Chain,
    platform: &Platform,
    cfg: &PlannerConfig,
) -> Result<MadPipePlan, PlanError> {
    madpipe_plan_with_stats(chain, platform, cfg).0
}

/// [`madpipe_plan`] returning the planner instrumentation alongside the
/// result. Stats are populated even on failure — the counters say where
/// the time went and why nothing planned. Every plan goes through here
/// and gets its own [`ProbeSession`], dropped with the plan (its emptied
/// DP buffers stay with the thread).
pub fn madpipe_plan_with_stats(
    chain: &Chain,
    platform: &Platform,
    cfg: &PlannerConfig,
) -> (Result<MadPipePlan, PlanError>, PlannerStats) {
    let total = madpipe_obs::timed("plan.total");
    let mut stats = PlannerStats {
        threads: cfg.threads.max(1),
        ..PlannerStats::default()
    };
    let result =
        validate(chain, platform).and_then(|()| plan_inner(chain, platform, cfg, &mut stats));
    stats.total_seconds = total.finish();
    (result, stats)
}

fn plan_inner(
    chain: &Chain,
    platform: &Platform,
    cfg: &PlannerConfig,
    stats: &mut PlannerStats,
) -> Result<MadPipePlan, PlanError> {
    let disc = &cfg.algorithm1.discretization;
    let session = &mut ProbeSession::new_with_policy(chain, platform, disc, cfg.policy);
    let threads = cfg.threads.max(1);

    // Phase 1: Algorithm 1's bisection.
    let clock = madpipe_obs::timed("plan.phase1.bisect");
    let phase1 = madpipe_allocation_session(
        chain,
        platform,
        &cfg.algorithm1,
        session,
        cfg.algorithm1.use_special,
    );
    stats.phase1_seconds = clock.finish();

    // Memory-aware contiguous fallback: the same DP without the special
    // processor, through the same session. Its allocations schedule
    // exactly at their 1F1B* optimum, so it rescues instances where every
    // special-processor probe is over-optimistic; it is also the ablation
    // baseline.
    let clock = madpipe_obs::timed("plan.fallback.contiguous");
    let fallback = if cfg.algorithm1.use_special {
        madpipe_allocation_session(chain, platform, &cfg.algorithm1, session, false)
    } else {
        None
    };
    stats.fallback_seconds = clock.finish();

    let finalize = |stats: &mut PlannerStats, session: &mut ProbeSession<'_>| {
        stats.dp = session.stats();
        stats.probes = session.take_records();
    };

    let Some(phase1) = phase1 else {
        finalize(stats, session);
        return Err(PlanError::Phase1Infeasible);
    };

    // Candidates from both bisections, deduplicated up front (best
    // phase-1 estimate first, fallback after) so the parallel scheduler
    // never solves the same allocation twice.
    let mut candidates: Vec<Allocation> = Vec::new();
    for outcome in std::iter::once(&phase1).chain(&fallback) {
        let allocs = outcome.candidate_allocations().into_iter().cloned();
        push_new(&mut candidates, &[], allocs);
    }

    // Phase 2: schedule every candidate that can still win; fold in
    // submission order with a strict `<` so ties keep the earlier
    // (better-estimate) candidate.
    let mut best: Option<(Allocation, SolvedSchedule)> = None;
    let mut last_err: Option<ScheduleError> = None;
    let clock = madpipe_obs::timed("plan.phase2.schedule");
    let solved = schedule_batch(chain, platform, &candidates, &cfg.place, threads, None);
    fold_best(&mut best, &mut last_err, stats, &candidates, solved);
    stats.schedule_seconds += clock.finish();

    // Refinement: probe extra targets between the load lower bound and
    // the best achieved period, selecting by achieved period. The grid
    // targets are independent, so they fan out in one parallel batch.
    if let Some((_, s)) = &best {
        let lb = chain.total_compute_time() / platform.n_gpus as f64;
        let hi = s.period * 1.02;
        if cfg.refine_probes > 0 && hi > lb {
            let clock = madpipe_obs::timed("plan.refine.grid");
            let ratio = (hi / lb).powf(1.0 / cfg.refine_probes as f64);
            let seen: Vec<f64> = phase1.probes.iter().map(|p| p.t_hat).collect();
            let mut targets: Vec<f64> = Vec::new();
            for i in 0..=cfg.refine_probes {
                let t_hat = lb * ratio.powi(i as i32);
                let dup = |&t: &f64| (t - t_hat).abs() < 1e-6 * t_hat.max(1e-12);
                if !seen.iter().any(dup) && !targets.iter().any(dup) {
                    targets.push(t_hat);
                }
            }
            let outcomes = session.probe_many(
                &targets,
                cfg.algorithm1.use_special,
                ProbeSource::Refinement,
                threads,
            );
            stats.refine_seconds = clock.finish();

            let mut fresh: Vec<Allocation> = Vec::new();
            let allocs = outcomes.into_iter().filter_map(|out| out.allocation);
            push_new(&mut fresh, &candidates, allocs);
            let clock = madpipe_obs::timed("plan.phase2.schedule");
            let incumbent = best.as_ref().map(|(_, s)| s.period);
            let solved = schedule_batch(chain, platform, &fresh, &cfg.place, threads, incumbent);
            fold_best(&mut best, &mut last_err, stats, &fresh, solved);
            stats.schedule_seconds += clock.finish();
        }
    }

    finalize(stats, session);
    match best {
        Some((allocation, schedule)) => Ok(MadPipePlan {
            phase1,
            allocation,
            schedule,
        }),
        None => Err(PlanError::Phase2(
            last_err.expect("candidate_allocations is non-empty when phase 1 succeeds"),
        )),
    }
}

/// Append to `out` each allocation found neither in `known` nor in `out`
/// itself, keeping first-seen order. Equality covers each stage's
/// policy, so the same stages under two policies stay two candidates.
fn push_new(
    out: &mut Vec<Allocation>,
    known: &[Allocation],
    allocs: impl IntoIterator<Item = Allocation>,
) {
    for alloc in allocs {
        if !known.contains(&alloc) && !out.contains(&alloc) {
            out.push(alloc);
        }
    }
}

/// Fold one scheduled batch into the incumbent in submission order: a
/// strict `<` keeps the earlier candidate on ties. A candidate its cutoff
/// stopped is neither solved nor an error.
fn fold_best(
    best: &mut Option<(Allocation, SolvedSchedule)>,
    last_err: &mut Option<ScheduleError>,
    stats: &mut PlannerStats,
    candidates: &[Allocation],
    solved: Vec<Scheduled>,
) {
    stats.schedules_attempted += candidates.len();
    for (alloc, (res, work)) in candidates.iter().zip(solved) {
        stats.place.merge(&work);
        match res {
            Ok(Some(s)) => {
                stats.schedules_solved += 1;
                if best.as_ref().is_none_or(|(_, b)| s.period < b.period) {
                    *best = Some((alloc.clone(), s));
                }
            }
            Ok(None) => stats.schedules_cut += 1,
            Err(e) => *last_err = Some(e),
        }
    }
}

/// Both planners on one instance (one cell of the paper's figures).
#[derive(Debug, Clone)]
pub struct Comparison {
    /// MadPipe plan (or failure).
    pub madpipe: Result<MadPipePlan, PlanError>,
    /// PipeDream baseline plan (or failure).
    pub pipedream: Result<madpipe_pipedream::PipeDreamPlan, madpipe_pipedream::PlanError>,
    /// MadPipe planner instrumentation (populated even on failure).
    pub stats: PlannerStats,
}

impl Comparison {
    /// PipeDream period / MadPipe period (> 1 means MadPipe wins), when
    /// both produced plans.
    pub fn ratio(&self) -> Option<f64> {
        match (&self.madpipe, &self.pipedream) {
            (Ok(m), Ok(p)) => Some(p.period() / m.period()),
            _ => None,
        }
    }
}

/// Run MadPipe and PipeDream side by side.
pub fn compare(chain: &Chain, platform: &Platform, cfg: &PlannerConfig) -> Comparison {
    let (madpipe, stats) = madpipe_plan_with_stats(chain, platform, cfg);
    Comparison {
        madpipe,
        pipedream: madpipe_pipedream::pipedream_plan(chain, platform),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ProbeRecord;
    use madpipe_model::Layer;

    fn chain(costs: &[(f64, f64)], act: u64, w: u64) -> Chain {
        let layers = costs
            .iter()
            .enumerate()
            .map(|(i, &(f, b))| Layer::new(format!("l{i}"), f, b, w, act))
            .collect();
        Chain::new("t", act, layers).unwrap()
    }

    #[test]
    fn plan_produces_a_valid_schedule() {
        let c = chain(
            &[(1.0, 2.0), (2.0, 1.0), (3.0, 2.0), (1.0, 1.0)],
            1 << 10,
            1 << 8,
        );
        let platform = Platform::new(2, 1 << 20, 1e6).unwrap();
        let plan = madpipe_plan(&c, &platform, &PlannerConfig::default()).unwrap();
        assert!(plan.period() > 0.0);
        assert!(plan.throughput() > 0.0);
        // The valid schedule can be slower but never faster than the
        // load bound of its own allocation.
        let lb = plan.phase1.allocation.load_bound(&c, &platform);
        assert!(plan.period() + 1e-9 >= lb);
    }

    #[test]
    fn madpipe_not_worse_than_pipedream_on_imbalanced_chain() {
        // The {0,2} vs {1} balance needs the special processor.
        let c = chain(&[(2.0, 2.0), (4.0, 4.0), (2.0, 2.0)], 16, 0);
        let platform = Platform::new(2, 1 << 20, 1e6).unwrap();
        let cmp = compare(&c, &platform, &PlannerConfig::default());
        let ratio = cmp.ratio().expect("both must plan");
        assert!(
            ratio >= 1.0 - 1e-6,
            "PipeDream/MadPipe ratio {ratio} < 1 on a special-friendly instance"
        );
        assert!(ratio > 1.2, "expected a clear MadPipe win, ratio {ratio}");
    }

    #[test]
    fn infeasible_instances_error_cleanly() {
        let c = chain(&[(1.0, 1.0)], 1 << 30, 1 << 28);
        let platform = Platform::new(2, 1 << 12, 1e6).unwrap();
        let err = madpipe_plan(&c, &platform, &PlannerConfig::default()).unwrap_err();
        assert_eq!(err, PlanError::Phase1Infeasible);
    }

    #[test]
    fn parallel_planning_is_bit_identical_to_sequential() {
        let c = chain(
            &[
                (1.0, 2.0),
                (3.0, 1.0),
                (2.0, 2.0),
                (1.0, 1.0),
                (2.0, 3.0),
                (1.5, 0.5),
            ],
            1 << 14,
            1 << 9,
        );
        let platform = Platform::new(3, 4 << 20, 1e7).unwrap();
        let serial_cfg = PlannerConfig::default();
        let parallel_cfg = PlannerConfig {
            threads: 4,
            ..serial_cfg
        };
        let (a, sa) = madpipe_plan_with_stats(&c, &platform, &serial_cfg);
        let (b, sb) = madpipe_plan_with_stats(&c, &platform, &parallel_cfg);
        let a = a.unwrap();
        let b = b.unwrap();
        assert_eq!(a.period().to_bits(), b.period().to_bits());
        assert_eq!(a.phase1.period.to_bits(), b.phase1.period.to_bits());
        assert_eq!(a.allocation, b.allocation);
        // Everything but wall-clock agrees: same probes, same counters.
        assert_eq!(sa.dp, sb.dp);
        assert_eq!(sa.schedules_attempted, sb.schedules_attempted);
        assert_eq!(sa.schedules_solved, sb.schedules_solved);
        assert_eq!(sa.schedules_cut, sb.schedules_cut);
        assert_eq!(sa.place, sb.place);
        let metrics = sa.metrics();
        for (name, value) in [
            ("planner.schedules.cut", sa.schedules_cut as u64),
            ("planner.place.calls", sa.place.calls),
            ("planner.place.exhausted", sa.place.exhausted),
            ("planner.place.floored", sa.place.floored),
            ("planner.place.nodes", sa.place.nodes),
            ("planner.place.leaves", sa.place.leaves),
            ("planner.place.leaves_floored", sa.place.leaves_floored),
            ("planner.place.dead_ends", sa.place.dead_ends),
        ] {
            assert_eq!(metrics.counter(name), value, "{name}");
        }
        assert_eq!(sa.probes.len(), sb.probes.len());
        for (x, y) in sa.probes.iter().zip(&sb.probes) {
            assert_eq!(x.source, y.source);
            assert_eq!(x.t_hat.to_bits(), y.t_hat.to_bits());
            assert_eq!(x.period.to_bits(), y.period.to_bits());
            assert_eq!(
                (x.cap.map(f64::to_bits), x.states),
                (y.cap.map(f64::to_bits), y.states)
            );
        }
    }

    #[test]
    fn cutoffs_stop_candidates_without_changing_the_fold() {
        use madpipe_model::{Partition, Stage};
        // Every allocation of 4 layers on 2 GPUs, contiguous and not,
        // interleaved in enumeration order.
        let c = chain(
            &[(1.0, 2.0), (3.0, 1.0), (2.0, 2.0), (1.0, 1.0)],
            1 << 14,
            1 << 9,
        );
        let platform = Platform::new(2, 160 << 10, 1e7).unwrap();
        let mut candidates = Vec::new();
        for n_stages in 1..=4 {
            for part in Partition::enumerate(4, n_stages) {
                for mask in 0..1usize << n_stages {
                    let stages = part.stages().iter().enumerate();
                    let stages = stages.map(|(i, r)| Stage::new(r.clone(), mask >> i & 1));
                    candidates.extend(Allocation::new(stages.collect(), 4, 2));
                }
            }
        }
        let place = PlaceConfig::default();
        let reference: Vec<Option<f64>> = candidates
            .iter()
            .map(|alloc| {
                let solved = if alloc.is_contiguous() {
                    madpipe_schedule::best_contiguous_period(&c, &platform, alloc).map(|b| b.period)
                } else {
                    let mut work = PlaceStats::default();
                    best_period(&c, &platform, alloc, &place, None, &mut work)
                        .map(|s| s.expect("no cutoff").period)
                };
                solved.ok()
            })
            .collect();
        // The first candidate with the least period, if it beats `incumbent`.
        let winner = |periods: &[Option<f64>], incumbent: Option<f64>| {
            let mut best: Option<(usize, f64)> = None;
            for (i, p) in periods.iter().enumerate() {
                if let Some(p) = *p {
                    if incumbent.is_none_or(|b| p < b) && best.is_none_or(|(_, b)| p < b) {
                        best = Some((i, p));
                    }
                }
            }
            best.map(|(i, p)| (i, p.to_bits()))
        };
        let least = reference
            .iter()
            .flatten()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let mut cut = 0;
        for incumbent in [None, Some(least), Some(least * 1.2)] {
            let run =
                |threads| schedule_batch(&c, &platform, &candidates, &place, threads, incumbent);
            let batch = run(1);
            assert_eq!(format!("{batch:?}"), format!("{:?}", run(3)), "threads");
            let mut got = Vec::new();
            for (i, (res, _)) in batch.iter().enumerate() {
                got.push(match res {
                    Ok(Some(s)) => Some(s.period),
                    Ok(None) => {
                        cut += 1;
                        None
                    }
                    Err(_) => None,
                });
                if !matches!(res, Ok(None)) {
                    assert_eq!(got[i], reference[i], "candidate {i}");
                }
            }
            assert_eq!(winner(&got, incumbent), winner(&reference, incumbent));
        }
        assert!(cut > 0, "the cutoff must stop some candidate");
    }

    #[test]
    fn the_memory_floor_keeps_a_tight_resnet50_plan_small() {
        // A host-independent guard on the DP's work: the memory floor cut
        // this cell from 126,687 states to under 14,000.
        let chain = madpipe_dnn::networks::by_name("resnet50")
            .unwrap()
            .profile(8, 1000, &madpipe_dnn::GpuModel::default())
            .unwrap();
        let platform = Platform::gb(4, 3, 12.0).unwrap();
        let (plan, stats) = madpipe_plan_with_stats(&chain, &platform, &PlannerConfig::default());
        plan.unwrap();
        assert!(
            stats.dp.states_created <= 20_000,
            "{} DP states: {:?}",
            stats.dp.states_created,
            stats.dp
        );
        assert!(stats.dp.memory_floor_prunes > 0, "{:?}", stats.dp);
    }

    #[test]
    fn the_falling_ceiling_keeps_a_tight_resnet50_plan_smaller() {
        // A host-independent guard on the DP's work: with the ceiling
        // falling as each solve finds paths, this cell's plan creates
        // 8,411 states (13,912 with the ceiling fixed per solve), and
        // no capped root comes out above its cap.
        let chain = madpipe_dnn::networks::by_name("resnet50")
            .unwrap()
            .profile(8, 1000, &madpipe_dnn::GpuModel::default())
            .unwrap();
        let platform = Platform::gb(4, 3, 12.0).unwrap();
        let (plan, stats) = madpipe_plan_with_stats(&chain, &platform, &PlannerConfig::default());
        plan.unwrap();
        assert!(
            stats.dp.states_created <= 9_000,
            "{} DP states: {:?}",
            stats.dp.states_created,
            stats.dp
        );
        assert_eq!(stats.dp.cap_misses, 0, "{:?}", stats.dp);
    }

    #[test]
    fn a_thread_plans_every_shape_as_a_fresh_thread_does() {
        use madpipe_model::RecomputeMode;
        // A thread's next plan reuses the DP buffers of its last one, so
        // plan, on one thread, instances whose chain length, GPU count,
        // memory and policy lanes all change between plans, the largest
        // first, and compare each with the same plan on a fresh thread.
        let network = |name: &str| {
            madpipe_dnn::networks::by_name(name)
                .unwrap()
                .profile(8, 1000, &madpipe_dnn::GpuModel::default())
                .unwrap()
        };
        let (densenet, resnet) = (network("densenet121"), network("resnet50"));
        let auto = PlannerConfig {
            policy: PolicySpec {
                recompute: RecomputeMode::Auto,
                ..PolicySpec::default()
            },
            ..PlannerConfig::default()
        };
        let gb = |gpus, memory_gb| Platform::gb(gpus, memory_gb, 12.0).unwrap();
        let paper = PlannerConfig::default();
        let instances = [
            (&densenet, gb(8, 4), paper),
            (&resnet, gb(2, 4), paper),
            (&resnet, gb(4, 3), paper),
            (&resnet, gb(4, 6), auto),
            (&resnet, gb(2, 1), paper),
            (&resnet, gb(2, 4), paper),
        ];
        // Every bit a plan and its counters carry, wall clocks aside.
        let fingerprint = |chain: &Chain, platform: &Platform, cfg: &PlannerConfig| {
            let (plan, stats) = madpipe_plan_with_stats(chain, platform, cfg);
            let plan = plan.map(|plan| {
                let ops = plan.schedule.pattern.ops.iter();
                let ops = ops.map(|op| (op.unit, op.dir, op.start.to_bits(), op.shift));
                let bits = (plan.period().to_bits(), plan.phase1.period.to_bits());
                (bits, ops.collect::<Vec<_>>(), plan.allocation)
            });
            let probes = stats.probes.iter().map(|p| {
                let bits = (
                    p.t_hat.to_bits(),
                    p.period.to_bits(),
                    p.cap.map(f64::to_bits),
                );
                (p.source, bits, p.states)
            });
            let probes = probes.collect::<Vec<_>>();
            format!("{plan:?} {:?} {:?} {probes:?}", stats.dp, stats.place)
        };
        let fresh: Vec<String> = instances
            .iter()
            .map(|(chain, platform, cfg)| {
                std::thread::scope(|s| s.spawn(|| fingerprint(chain, platform, cfg)).join())
                    .unwrap()
            })
            .collect();
        let reused: Vec<String> = std::thread::scope(|s| {
            s.spawn(|| {
                let plans = instances
                    .iter()
                    .map(|(chain, platform, cfg)| fingerprint(chain, platform, cfg));
                plans.collect()
            })
            .join()
            .unwrap()
        });
        assert!(fresh[0].starts_with("Ok") && fresh[4].starts_with("Err"));
        for (i, (a, b)) in fresh.iter().zip(&reused).enumerate() {
            assert_eq!(a, b, "instance {i}");
        }
    }

    #[test]
    fn stats_expose_cross_probe_reuse() {
        // The bisection converges within its 10 iterations here, so the
        // last targets repeat exactly. Each is solved again, under the cap
        // of the allocations the plan's earlier solves produced, to the
        // same answer.
        let c = chain(&[(1.0, 1.0); 6], 1 << 19, 0);
        let platform = Platform::new(3, 6 << 20, 1e9).unwrap();
        let (plan, stats) = madpipe_plan_with_stats(&c, &platform, &PlannerConfig::default());
        plan.unwrap();
        assert_eq!(stats.probes.len(), stats.dp.solves);
        assert!(stats.dp.capped > 0, "{:?}", stats.dp);
        let mut repeats = 0;
        for (i, p) in stats.probes.iter().enumerate() {
            let same = |q: &&ProbeRecord| q.t_hat == p.t_hat && q.use_special == p.use_special;
            if let Some(first) = stats.probes[..i].iter().find(same) {
                assert_eq!(first.period.to_bits(), p.period.to_bits());
                repeats += 1;
            }
        }
        assert!(repeats > 0, "the bisection must repeat a target: {stats:?}");
        assert!(stats.schedules_attempted >= stats.schedules_solved);
        assert!(stats.schedules_solved > 0);
        assert!(stats.total_seconds > 0.0);
        assert!(stats
            .probes
            .iter()
            .any(|p| p.source == ProbeSource::Bisection));
        assert!(stats
            .probes
            .iter()
            .any(|p| p.source == ProbeSource::ContiguousFallback));
    }

    #[test]
    fn zero_compute_chain_is_infeasible_not_a_panic() {
        let c = chain(&[(0.0, 0.0), (0.0, 0.0)], 1 << 10, 1 << 8);
        let platform = Platform::new(2, 1 << 20, 1e6).unwrap();
        let err = madpipe_plan(&c, &platform, &PlannerConfig::default()).unwrap_err();
        assert!(matches!(err, PlanError::Infeasible(_)), "got {err:?}");
        assert!(err.to_string().contains("zero total compute"));
    }

    #[test]
    fn single_layer_chains_plan_or_fail_cleanly() {
        // L = 1: the DP has exactly one stage to place. Must not panic,
        // on either a single GPU or several.
        let c = chain(&[(1.0, 2.0)], 1 << 10, 1 << 8);
        for gpus in [1usize, 2, 4] {
            let platform = Platform::new(gpus, 1 << 20, 1e6).unwrap();
            let plan = madpipe_plan(&c, &platform, &PlannerConfig::default());
            let plan = plan.unwrap_or_else(|e| panic!("L=1 on {gpus} GPUs: {e}"));
            assert_eq!(plan.allocation.stages().len(), 1);
        }
    }

    #[test]
    fn sub_minimum_memory_is_reported_not_panicked() {
        // Even one layer at g = 1 exceeds this platform's memory.
        let c = chain(&[(1.0, 1.0), (2.0, 2.0)], 1 << 24, 1 << 22);
        let platform = Platform::new(2, 1 << 16, 1e6).unwrap();
        let err = madpipe_plan(&c, &platform, &PlannerConfig::default()).unwrap_err();
        assert_eq!(err, PlanError::Phase1Infeasible);
        // Stats still explain the failure: probes ran, none feasible.
        let (res, stats) = madpipe_plan_with_stats(&c, &platform, &PlannerConfig::default());
        assert!(res.is_err());
        assert!(!stats.probes.is_empty());
        assert!(stats.probes.iter().all(|p| p.period.is_infinite()));
    }

    #[test]
    fn non_default_policy_plans_carry_per_stage_policies() {
        use madpipe_model::{ActivationPolicy, RecomputeMode, WeightPolicy};
        let c = chain(
            &[(1.0, 2.0), (2.0, 1.0), (3.0, 2.0), (1.0, 1.0)],
            1 << 10,
            1 << 8,
        );
        let platform = Platform::new(2, 1 << 20, 1e6).unwrap();

        let default_plan = madpipe_plan(&c, &platform, &PlannerConfig::default()).unwrap();
        let stages = default_plan.allocation.stages();
        assert!(stages.iter().all(|s| s.policy.is_default()));

        let cfg = PlannerConfig {
            policy: PolicySpec {
                recompute: RecomputeMode::Always,
                weights: WeightPolicy::TwoBw,
            },
            ..PlannerConfig::default()
        };
        let plan = madpipe_plan(&c, &platform, &cfg).unwrap();
        assert!(plan.allocation.stages().iter().all(|s| {
            s.policy.activation == ActivationPolicy::Recompute
                && s.policy.weights == WeightPolicy::TwoBw
        }));
    }

    /// Alternating activation sizes — big internal activations, tiny
    /// stage boundaries — so recompute pins only the boundary input per
    /// in-flight batch while storing pins the big internals `g` times.
    fn alternating_chain(w: u64) -> Chain {
        let s = 64u64 << 10;
        let b = 4u64 << 20;
        let layers: Vec<Layer> = [b, s, b, s, b, s]
            .iter()
            .enumerate()
            .map(|(i, &a)| Layer::new(format!("l{i}"), 1.0, 1.0, w, a))
            .collect();
        Chain::new("alt", s, layers).unwrap()
    }

    #[test]
    fn auto_recompute_beats_the_default_on_memory_tight_instances() {
        use madpipe_model::RecomputeMode;
        // At 5 MiB the default only fits at loose targets (g = 1, deep
        // pipeline impossible), while auto recompute unlocks g ≥ 2 stages
        // and roughly halves the achieved period.
        let c = alternating_chain(0);
        let platform = Platform::new(3, 5 << 20, 1e9).unwrap();

        let default_plan = madpipe_plan(&c, &platform, &PlannerConfig::default()).unwrap();
        let cfg = PlannerConfig {
            policy: PolicySpec {
                recompute: RecomputeMode::Auto,
                ..PolicySpec::default()
            },
            ..PlannerConfig::default()
        };
        let auto_plan = madpipe_plan(&c, &platform, &cfg).unwrap();
        assert!(
            auto_plan.period() < default_plan.period() * 0.75,
            "auto {} vs default {}",
            auto_plan.period(),
            default_plan.period()
        );
        assert!(
            auto_plan
                .allocation
                .stages()
                .iter()
                .any(|s| s.policy.recomputes()),
            "auto must actually use recompute on this instance: {:?}",
            auto_plan.allocation
        );
    }

    #[test]
    fn auto_recompute_with_2bw_plans_instances_the_default_cannot() {
        use madpipe_model::{RecomputeMode, WeightPolicy};
        // With 1 MiB weights per layer at 9 MiB memory, every store
        // partition exceeds memory even at g = 1 (3·W per stage plus the
        // stored activations), and the whole-chain fallback needs 3·6 MiB
        // of weight versions alone. Double-buffered weights plus
        // recompute fit a 3-deep pipeline.
        let c = alternating_chain(1 << 20);
        let platform = Platform::new(3, 9 << 20, 1e9).unwrap();

        let err = madpipe_plan(&c, &platform, &PlannerConfig::default()).unwrap_err();
        assert_eq!(err, PlanError::Phase1Infeasible);

        let cfg = PlannerConfig {
            policy: PolicySpec {
                recompute: RecomputeMode::Auto,
                weights: WeightPolicy::TwoBw,
            },
            ..PlannerConfig::default()
        };
        let plan = madpipe_plan(&c, &platform, &cfg).unwrap();
        assert!(plan.period().is_finite());
        assert!(
            plan.allocation
                .stages()
                .iter()
                .any(|s| s.policy.recomputes()),
            "auto must actually use recompute on this instance: {:?}",
            plan.allocation
        );
    }

    #[test]
    fn oversized_platform_is_rejected_with_a_message() {
        let c = chain(&[(1.0, 1.0); 4], 1 << 10, 0);
        let platform = Platform::new(300, 1 << 30, 1e9).unwrap();
        let err = madpipe_plan(&c, &platform, &PlannerConfig::default()).unwrap_err();
        assert!(matches!(err, PlanError::Infeasible(_)));
        assert!(err.to_string().contains("at most 255"), "{err}");
    }

    #[test]
    fn oversized_chain_is_rejected_with_a_message() {
        let c = chain(&vec![(1.0, 1.0); 1 << 16], 1 << 10, 0);
        let platform = Platform::new(2, 1 << 30, 1e9).unwrap();
        let err = madpipe_plan(&c, &platform, &PlannerConfig::default()).unwrap_err();
        assert!(matches!(err, PlanError::Infeasible(_)));
        assert!(err.to_string().contains("at most 65535"), "{err}");
    }

    #[test]
    fn policy_distinct_candidates_stay_distinct() {
        use madpipe_model::{ActivationPolicy, Stage, StagePolicy};
        // Same ranges, same GPUs, different policy on the last stage: the
        // two schedule differently, so the dedup must keep both (and drop
        // only the exact repeat).
        let rec = StagePolicy {
            activation: ActivationPolicy::Recompute,
            ..StagePolicy::default()
        };
        let store = Allocation::new(vec![Stage::new(0..2, 0), Stage::new(2..4, 1)], 4, 2).unwrap();
        let recompute = Allocation::new(
            vec![
                Stage::new(0..2, 0),
                Stage {
                    policy: rec,
                    ..Stage::new(2..4, 1)
                },
            ],
            4,
            2,
        )
        .unwrap();
        assert_eq!(store.partition(), recompute.partition());

        let both = vec![store.clone(), recompute.clone()];
        let mut candidates = Vec::new();
        let repeated = [&store, &recompute, &store].into_iter().cloned();
        push_new(&mut candidates, &[], repeated);
        assert_eq!(candidates, both);
        let mut fresh = Vec::new();
        push_new(&mut fresh, &both[..1], both.clone());
        assert_eq!(fresh, both[1..]);

        let probe = |t_hat: f64, alloc: &Allocation| crate::algorithm1::Probe {
            t_hat,
            raw: t_hat,
            estimate: t_hat,
            allocation: Some(alloc.clone()),
        };
        let outcome = Algorithm1Outcome {
            period: 1.0,
            t_hat: 1.0,
            allocation: store.clone(),
            probes: vec![
                probe(2.0, &recompute),
                probe(1.0, &store),
                probe(3.0, &store),
            ],
        };
        assert_eq!(outcome.candidate_allocations(), vec![&store, &recompute]);
    }
}
