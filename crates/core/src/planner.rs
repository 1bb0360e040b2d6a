//! End-to-end planning: MadPipe (phase 1 + phase 2) and the side-by-side
//! comparison against the PipeDream baseline used by the experiments.
//!
//! All DP probes of one plan — the bisection, the contiguous-fallback
//! ablation and the refinement grid — go through one shared
//! [`ProbeSession`], so revisited targets cost a hash lookup and targets
//! below a proven-infeasible one are answered by the monotone bound.
//! Independent work (the refinement probes and the phase-2 scheduling of
//! distinct candidate allocations) fans out over
//! [`PlannerConfig::threads`] scoped workers; candidates are deduplicated
//! up front and results are folded in a fixed submission order with a
//! strict `<`, so the plan is bit-identical whatever the thread count.

use std::sync::atomic::{AtomicUsize, Ordering};

use madpipe_model::{Allocation, Chain, Platform, PolicySpec};
use madpipe_schedule::ScheduleError;
use madpipe_solver::{best_period, PlaceConfig, SolvedSchedule};

use crate::algorithm1::{madpipe_allocation_session, Algorithm1Config, Algorithm1Outcome};
use crate::dp::ProbeSession;
use crate::stats::{counters, PlannerStats, ProbeSource};

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
    /// A caller-owned [`ProbeSession`] was built under a different
    /// [`PolicySpec`] than the requested plan. Policy shapes the DP axes
    /// and transition set, so reusing the session would silently answer
    /// probes under the wrong memory/time model — rejected instead.
    PolicyMismatch {
        /// Policy the session was built with.
        session: PolicySpec,
        /// Policy the planner config asked for.
        requested: PolicySpec,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Infeasible(why) => write!(f, "degenerate instance: {why}"),
            PlanError::Phase1Infeasible => {
                write!(f, "no memory-feasible allocation at any target period")
            }
            PlanError::Phase2(e) => write!(f, "phase-1 allocation unschedulable: {e}"),
            PlanError::PolicyMismatch { session, requested } => write!(
                f,
                "probe session solves under policy (recompute={}, weights={}) but the plan \
                 requests (recompute={}, weights={}); build a session with the matching policy",
                session.recompute.as_str(),
                session.weights.as_str(),
                requested.recompute.as_str(),
                requested.weights.as_str(),
            ),
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
    if chain.len() >= 1 << 16 {
        return Err(PlanError::Infeasible(format!(
            "chain has {} layers; the packed DP key indexes at most 65535 (coarsen first)",
            chain.len()
        )));
    }
    if platform.n_gpus >= 256 {
        return Err(PlanError::Infeasible(format!(
            "platform has {} GPUs; the packed DP key indexes at most 255",
            platform.n_gpus
        )));
    }
    Ok(())
}

/// Schedule each candidate allocation (contiguous ones exactly via 1F1B*,
/// the rest through the branch-and-bound solver) on up to `threads`
/// workers. Results keep the input order; each solve is a pure function
/// of its allocation, so the outcome is thread-count independent.
fn schedule_batch(
    chain: &Chain,
    platform: &Platform,
    candidates: &[Allocation],
    place: &PlaceConfig,
    threads: usize,
) -> Vec<Result<SolvedSchedule, ScheduleError>> {
    let solve_one = |alloc: &Allocation| -> Result<SolvedSchedule, ScheduleError> {
        if alloc.is_contiguous() {
            madpipe_schedule::best_contiguous_period(chain, platform, alloc).map(|b| {
                SolvedSchedule {
                    period: b.period,
                    pattern: b.pattern,
                    report: b.report,
                }
            })
        } else {
            best_period(chain, platform, alloc, place)
        }
    };

    let threads = threads.max(1).min(candidates.len().max(1));
    if threads == 1 || candidates.len() == 1 {
        return candidates.iter().map(solve_one).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<SolvedSchedule, ScheduleError>>> =
        (0..candidates.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let cursor = &cursor;
            let solve_one = &solve_one;
            handles.push(scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= candidates.len() {
                        break;
                    }
                    local.push((i, solve_one(&candidates[i])));
                }
                local
            }));
        }
        for h in handles {
            for (i, r) in h.join().expect("scheduling worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
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
/// the time went and why nothing planned.
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
    let result = match validate(chain, platform) {
        Err(e) => Err(e),
        Ok(()) => {
            let mut session = ProbeSession::new_with_policy(
                chain,
                platform,
                &cfg.algorithm1.discretization,
                cfg.policy,
            );
            plan_inner(&mut session, cfg, &mut stats)
        }
    };
    stats.total_seconds = total.finish();
    mirror_into_metrics(&mut stats);
    (result, stats)
}

/// Plan through a caller-owned [`ProbeSession`] — the entry point for
/// long-lived callers (the `madpipe serve` worker pool) that plan the
/// same `(chain, platform)` instance repeatedly. Revisited DP targets
/// are answered from the session's outcome cache, so a warm session
/// skips every solve while producing a plan **bit-identical** to a
/// fresh one (the probes are pure functions of the session inputs).
///
/// The returned [`PlannerStats`] snapshot the session's *cumulative*
/// counters: on a reused session, DP counters include earlier plans.
pub fn madpipe_plan_with_session(
    session: &mut ProbeSession<'_>,
    cfg: &PlannerConfig,
) -> (Result<MadPipePlan, PlanError>, PlannerStats) {
    let total = madpipe_obs::timed("plan.total");
    let mut stats = PlannerStats {
        threads: cfg.threads.max(1),
        ..PlannerStats::default()
    };
    let result = if session.policy() != cfg.policy {
        // Reusing a session across policy specs would answer probes
        // under the wrong axes/memory model; refuse loudly.
        Err(PlanError::PolicyMismatch {
            session: session.policy(),
            requested: cfg.policy,
        })
    } else {
        match validate(session.chain(), session.platform()) {
            Err(e) => Err(e),
            Ok(()) => plan_inner(session, cfg, &mut stats),
        }
    };
    stats.total_seconds = total.finish();
    mirror_into_metrics(&mut stats);
    (result, stats)
}

/// Mirror the planner-level counters and phase clocks into the frozen
/// registry, so machine consumers (`--metrics-out`, `--stats-json`)
/// see one namespace alongside the DP counters.
fn mirror_into_metrics(stats: &mut PlannerStats) {
    if stats.schedules_attempted > 0 {
        stats.metrics.bump_counter(
            counters::SCHEDULES_ATTEMPTED,
            stats.schedules_attempted as u64,
        );
    }
    if stats.schedules_solved > 0 {
        stats
            .metrics
            .bump_counter(counters::SCHEDULES_SOLVED, stats.schedules_solved as u64);
    }
    for source in [
        ProbeSource::Bisection,
        ProbeSource::ContiguousFallback,
        ProbeSource::Refinement,
        ProbeSource::Bridge,
    ] {
        let n = stats.probes.iter().filter(|p| p.source == source).count();
        if n > 0 {
            stats
                .metrics
                .bump_counter(&format!("planner.probes.{source}"), n as u64);
        }
    }
    stats
        .metrics
        .set_gauge("plan.phase1.seconds", stats.phase1_seconds);
    stats
        .metrics
        .set_gauge("plan.fallback.seconds", stats.fallback_seconds);
    stats
        .metrics
        .set_gauge("plan.refine.seconds", stats.refine_seconds);
    stats
        .metrics
        .set_gauge("plan.schedule.seconds", stats.schedule_seconds);
    stats
        .metrics
        .set_gauge("plan.total.seconds", stats.total_seconds);
}

fn plan_inner(
    session: &mut ProbeSession<'_>,
    cfg: &PlannerConfig,
    stats: &mut PlannerStats,
) -> Result<MadPipePlan, PlanError> {
    let chain = session.chain();
    let platform = session.platform();
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
        stats.metrics = session.registry().snapshot();
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

    // Phase 2: schedule every candidate; fold in submission order with a
    // strict `<` so ties keep the earlier (better-estimate) candidate.
    let mut best: Option<(Allocation, SolvedSchedule)> = None;
    let mut last_err: Option<ScheduleError> = None;
    let clock = madpipe_obs::timed("plan.phase2.schedule");
    let solved = schedule_batch(chain, platform, &candidates, &cfg.place, threads);
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
            let solved = schedule_batch(chain, platform, &fresh, &cfg.place, threads);
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
/// strict `<` keeps the earlier candidate on ties.
fn fold_best(
    best: &mut Option<(Allocation, SolvedSchedule)>,
    last_err: &mut Option<ScheduleError>,
    stats: &mut PlannerStats,
    candidates: &[Allocation],
    solved: Vec<Result<SolvedSchedule, ScheduleError>>,
) {
    stats.schedules_attempted += candidates.len();
    for (alloc, res) in candidates.iter().zip(solved) {
        match res {
            Ok(s) => {
                stats.schedules_solved += 1;
                if best.as_ref().is_none_or(|(_, b)| s.period < b.period) {
                    *best = Some((alloc.clone(), s));
                }
            }
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
        assert_eq!(sa.probes.len(), sb.probes.len());
        for (x, y) in sa.probes.iter().zip(&sb.probes) {
            assert_eq!(x.source, y.source);
            assert_eq!(x.t_hat.to_bits(), y.t_hat.to_bits());
            assert_eq!(x.period.to_bits(), y.period.to_bits());
            assert_eq!(
                (x.cached, x.pruned, x.states),
                (y.cached, y.pruned, y.states)
            );
        }
    }

    #[test]
    fn stats_expose_cross_probe_reuse() {
        // The bisection converges within its 10 iterations here, so the
        // last targets repeat exactly and are served from the cache.
        let c = chain(&[(1.0, 1.0); 6], 1 << 19, 0);
        let platform = Platform::new(3, 6 << 20, 1e9).unwrap();
        let (plan, stats) = madpipe_plan_with_stats(&c, &platform, &PlannerConfig::default());
        plan.unwrap();
        assert_eq!(
            stats.probes.len(),
            stats.dp.solves + stats.dp.probes_saved()
        );
        assert!(stats.dp.solves > 0);
        assert!(
            stats.dp.probes_saved() > 0,
            "low refinement targets must be answered by the infeasibility bound: {stats:?}"
        );
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
    fn session_reuse_under_a_different_policy_is_rejected() {
        use madpipe_model::{RecomputeMode, WeightPolicy};
        let c = chain(&[(1.0, 1.0); 4], 1 << 10, 1 << 8);
        let platform = Platform::new(2, 1 << 20, 1e6).unwrap();
        let cfg = PlannerConfig {
            policy: PolicySpec {
                recompute: RecomputeMode::Always,
                weights: WeightPolicy::TwoBw,
            },
            ..PlannerConfig::default()
        };
        // Session built under the default policy, plan requested under a
        // different one: must refuse with a structured error rather than
        // silently answering probes under the wrong memory model.
        let mut session = ProbeSession::new(&c, &platform, &cfg.algorithm1.discretization);
        let (res, _) = madpipe_plan_with_session(&mut session, &cfg);
        match res.unwrap_err() {
            PlanError::PolicyMismatch { session, requested } => {
                assert_eq!(session, PolicySpec::default());
                assert_eq!(requested, cfg.policy);
            }
            other => panic!("expected PolicyMismatch, got {other:?}"),
        }
        // A session built with the matching policy plans fine.
        let mut session = ProbeSession::new_with_policy(
            &c,
            &platform,
            &cfg.algorithm1.discretization,
            cfg.policy,
        );
        let (res, _) = madpipe_plan_with_session(&mut session, &cfg);
        res.unwrap();
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
        assert!(err.to_string().contains("255"));
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
