//! Property tests: the branch-and-bound scheduler against the provably
//! optimal 1F1B* on contiguous instances, and structural invariants on
//! random non-contiguous allocations.

use proptest::prelude::*;

use madpipe_model::util::EPS;
use madpipe_model::{Allocation, Chain, Layer, Partition, Platform, Stage, UnitSequence};
use madpipe_schedule::{
    best_contiguous_period, check_pattern, one_f1b_star, Checker, Dir, ScheduleError,
};
use madpipe_solver::{best_period, schedule_at_period, PlaceConfig, PlaceStats, SolvedSchedule};

fn arb_chain() -> impl Strategy<Value = Chain> {
    prop::collection::vec((0.1f64..5.0, 0.1f64..5.0, 0u64..1_000, 1u64..20_000), 2..=7).prop_map(
        |specs| {
            let layers = specs
                .iter()
                .enumerate()
                .map(|(i, &(f, b, w, a))| Layer::new(format!("l{i}"), f, b, w, a))
                .collect();
            Chain::new("random", 2_000, layers).expect("well-formed")
        },
    )
}

fn arb_cuts(n: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(prop::bool::ANY, n - 1).prop_map(|mask| {
        mask.iter()
            .enumerate()
            .filter(|(_, &c)| c)
            .map(|(i, _)| i + 1)
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On contiguous allocations the solver is never worse than the
    /// optimal 1F1B* period (it reproduces the same schedule shape), and
    /// never claims a period below the load bound.
    #[test]
    fn solver_matches_optimal_on_contiguous(
        (chain, cuts) in arb_chain().prop_flat_map(|c| {
            let n = c.len();
            (Just(c), arb_cuts(n))
        }),
        mem_scale in 0u64..6
    ) {
        let part = Partition::from_cuts(&cuts, chain.len()).unwrap();
        let n_gpus = part.len();
        let alloc = Allocation::contiguous(&part, n_gpus).unwrap();

        // A memory budget between "single group barely fits" and roomy.
        let plenty = Platform::new(n_gpus, u64::MAX / 4, 500.0).unwrap();
        let seq = UnitSequence::from_allocation(&chain, &plenty, &alloc);
        let relaxed = one_f1b_star(&seq, seq.total_load());
        let base = check_pattern(&chain, &plenty, &alloc, &seq, &relaxed)
            .unwrap()
            .gpu_peak_bytes
            .into_iter()
            .max()
            .unwrap();
        let budget = base + base / 4 * mem_scale + 1;
        let platform = Platform::new(n_gpus, budget, 500.0).unwrap();

        let reference = best_contiguous_period(&chain, &platform, &alloc)
            .expect("budget covers the sequential schedule");
        let solved = solve(&chain, &platform, &alloc)
            .expect("solver must find the sequential schedule too");

        prop_assert!(
            solved.period <= reference.period + 1e-6,
            "solver {} vs optimal 1F1B* {}",
            solved.period,
            reference.period
        );
        prop_assert!(solved.period + 1e-9 >= alloc.load_bound(&chain, &platform));
    }

    /// Random non-contiguous allocations (arbitrary stage → GPU maps)
    /// either solve to a pattern the exact checker accepts, or report a
    /// memory error; the period respects the load bound.
    #[test]
    fn random_allocations_solve_or_fail_cleanly(
        (chain, cuts, gpu_seed) in arb_chain().prop_flat_map(|c| {
            let n = c.len();
            (Just(c), arb_cuts(n), any::<u64>())
        })
    ) {
        let alloc = random_allocation(&chain, &cuts, gpu_seed);
        let n_gpus = alloc.n_gpus();
        let platform = Platform::new(n_gpus, 1 << 40, 500.0).unwrap();

        match solve(&chain, &platform, &alloc) {
            Ok(solved) => {
                prop_assert!(solved.period + 1e-9 >= alloc.load_bound(&chain, &platform));
                // Re-validate from scratch.
                let seq = UnitSequence::from_allocation(&chain, &platform, &alloc);
                prop_assert!(check_pattern(&chain, &platform, &alloc, &seq, &solved.pattern).is_ok());
            }
            Err(_) => {
                // With 1 TiB of memory this should essentially never
                // happen; tolerate only genuine structural failures.
                prop_assert!(false, "solver failed on a roomy instance");
            }
        }
    }

    /// The same random allocations with each GPU's memory set to the
    /// sequential 1F1B* peak × (1 + k/8): the regime where the placer
    /// uses up its node budget and compaction rescues leaves. Every
    /// solved pattern passes the exact checker and respects the load
    /// bound; every failure is a clean memory or load error.
    #[test]
    fn memory_tight_random_allocations_solve_or_fail_cleanly(
        (chain, cuts, gpu_seed) in arb_chain().prop_flat_map(|c| {
            let n = c.len();
            (Just(c), arb_cuts(n), any::<u64>())
        }),
        k in 0u64..6
    ) {
        let alloc = random_allocation(&chain, &cuts, gpu_seed);
        let n_gpus = alloc.n_gpus();
        let roomy = Platform::new(n_gpus, u64::MAX / 4, 500.0).unwrap();
        let seq = UnitSequence::from_allocation(&chain, &roomy, &alloc);
        let relaxed = one_f1b_star(&seq, seq.total_load());
        let peak = check_pattern(&chain, &roomy, &alloc, &seq, &relaxed)
            .unwrap()
            .gpu_peak_bytes
            .into_iter()
            .max()
            .unwrap();
        let platform = Platform::new(n_gpus, peak + peak * k / 8, 500.0).unwrap();

        let mut work = PlaceStats::default();
        match best_period(&chain, &platform, &alloc, &PlaceConfig::default(), None, &mut work) {
            Ok(None) => prop_assert!(false, "no cutoff, yet cut"),
            Ok(Some(solved)) => {
                prop_assert!(solved.period + 1e-9 >= alloc.load_bound(&chain, &platform));
                let seq = UnitSequence::from_allocation(&chain, &platform, &alloc);
                let report = check_pattern(&chain, &platform, &alloc, &seq, &solved.pattern);
                prop_assert_eq!(report, Ok(solved.report));
            }
            Err(e) => prop_assert!(
                matches!(
                    e,
                    ScheduleError::MemoryExceeded { .. } | ScheduleError::ResourceOverloaded { .. }
                ),
                "unexpected error {e}"
            ),
        }
        prop_assert!(work.calls > 0 && work.leaves <= work.nodes);
    }

    /// The memory floor is a lower bound on every valid pattern's peak.
    /// On the memory-tight allocations above, and on the same ones with
    /// room to spare (where no floor stops the search), a large-budget
    /// search with compaction runs at periods from the load bound to the
    /// sequential period; wherever it finds a pattern, no GPU's floor at
    /// that period exceeds the pattern's checked peak — so the floor
    /// admits every period at which a pattern fits.
    #[test]
    fn the_memory_floor_never_exceeds_a_found_pattern_peak(
        (chain, cuts, gpu_seed) in arb_chain().prop_flat_map(|c| {
            let n = c.len();
            (Just(c), arb_cuts(n), any::<u64>())
        }),
        k in 0u64..6
    ) {
        let alloc = random_allocation(&chain, &cuts, gpu_seed);
        let n_gpus = alloc.n_gpus();
        let roomy = Platform::new(n_gpus, u64::MAX / 4, 500.0).unwrap();
        let seq = UnitSequence::from_allocation(&chain, &roomy, &alloc);
        let relaxed = one_f1b_star(&seq, seq.total_load());
        let peak = check_pattern(&chain, &roomy, &alloc, &seq, &relaxed)
            .unwrap()
            .gpu_peak_bytes
            .into_iter()
            .max()
            .unwrap();
        let tight = Platform::new(n_gpus, peak + peak * k / 8, 500.0).unwrap();
        let big = PlaceConfig {
            node_budget: 1 << 13,
            max_alternatives: 6,
            compaction: true,
        };
        let t_lo = alloc.load_bound(&chain, &roomy).max(seq.max_unit_load());
        let t_hi = seq.total_load().max(t_lo);
        for platform in [&roomy, &tight] {
            for i in 0..=6 {
                let t = t_lo * (t_hi / t_lo).powf(i as f64 / 6.0);
                let mut work = PlaceStats::default();
                let Some(p) = schedule_at_period(&chain, platform, &alloc, &seq, t, &big, &mut work)
                else {
                    continue;
                };
                let report = check_pattern(&chain, platform, &alloc, &seq, &p).unwrap();
                let layout: Vec<(usize, Dir)> = p.ops.iter().map(|o| (o.unit, o.dir)).collect();
                let checker = Checker::new(&chain, platform, &alloc, &seq, &layout);
                for (gpu, floor) in checker.memory_floor(t).enumerate() {
                    prop_assert!(
                        floor <= report.gpu_peak_bytes[gpu],
                        "GPU {gpu} at T = {t}: floor {floor} B over the peak {} B",
                        report.gpu_peak_bytes[gpu]
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// With its slack fixed, the leaf floor never falls as the last
    /// backward's gap grows: on random allocations, periods and gaps,
    /// every GPU's [`Checker::leaf_floor`] is non-decreasing along an
    /// ascending run of `B_0` gaps, which is what lets the placer count a
    /// floored leaf's later siblings without asking the floor again. The
    /// run walks across several periods and steps ulp by ulp through
    /// each point where stage 0's live-batch count turns integral.
    #[test]
    fn the_leaf_floor_never_falls_as_the_last_gap_grows(
        (chain, cuts, gpu_seed) in arb_chain().prop_flat_map(|c| {
            let n = c.len();
            (Just(c), arb_cuts(n), any::<u64>())
        }),
        t_frac in 0.0f64..1.0,
        gaps in prop::collection::vec(0.0f64..4.0, 13),
        walk in prop::collection::vec(0.0f64..4.0, 12),
        scale_frac in 1.0f64..100.0,
    ) {
        let alloc = random_allocation(&chain, &cuts, gpu_seed);
        let platform = Platform::new(alloc.n_gpus(), u64::MAX / 4, 500.0).unwrap();
        let seq = UnitSequence::from_allocation(&chain, &platform, &alloc);
        let n = seq.len();
        let t_lo = alloc.load_bound(&chain, &platform).max(seq.max_unit_load());
        let t = t_lo + t_frac * (seq.total_load() - t_lo);
        let mut layout: Vec<(usize, Dir)> = (0..n).map(|u| (u, Dir::Forward)).collect();
        layout.extend((0..n).rev().map(|u| (u, Dir::Backward)));
        let checker = Checker::new(&chain, &platform, &alloc, &seq, &layout);
        let mut gap: Vec<f64> = gaps[..n].iter().map(|g| g * t).collect();
        let scale = scale_frac * t;
        // The floor's slack, to find where `(gap − slack)/T` is an integer.
        let slack = 2.0 * EPS + (2 * n + 24) as f64 * f64::EPSILON * (scale + EPS);
        let mut run: Vec<f64> = walk.iter().map(|w| w * t).collect();
        for k in 1..=4 {
            let mut z = k as f64 * t + slack;
            for _ in 0..4 {
                z = z.next_down();
            }
            for _ in 0..9 {
                run.push(z);
                z = z.next_up();
            }
        }
        run.sort_by(f64::total_cmp);
        let mut prev: Option<Vec<u64>> = None;
        for &g in &run {
            gap[0] = g;
            let floor: Vec<u64> = checker.leaf_floor(t, &gap, scale).collect();
            if let Some(prev) = &prev {
                for (gpu, (&before, &after)) in prev.iter().zip(&floor).enumerate() {
                    prop_assert!(
                        after >= before,
                        "GPU {gpu}: floor {before} B fell to {after} B as gap[0] grew to {g}"
                    );
                }
            }
            prev = Some(floor);
        }
    }
}

/// [`best_period`] under the default configuration, without a cutoff.
fn solve(
    chain: &Chain,
    platform: &Platform,
    alloc: &Allocation,
) -> Result<SolvedSchedule, ScheduleError> {
    best_period(
        chain,
        platform,
        alloc,
        &PlaceConfig::default(),
        None,
        &mut PlaceStats::default(),
    )
    .map(|s| s.expect("no cutoff"))
}

/// A stage→GPU map of `chain` cut at `cuts` on up to 3 GPUs: the first
/// stages take GPUs 0, 1, 2 and the rest a pseudo-random GPU each.
fn random_allocation(chain: &Chain, cuts: &[usize], gpu_seed: u64) -> Allocation {
    let part = Partition::from_cuts(cuts, chain.len()).unwrap();
    let n_gpus = part.len().clamp(1, 3);
    let stages: Vec<Stage> = part
        .stages()
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let gpu = if i < n_gpus {
                i
            } else {
                (gpu_seed as usize + 7 * i) % n_gpus
            };
            Stage::new(r.clone(), gpu)
        })
        .collect();
    Allocation::new(stages, chain.len(), n_gpus).unwrap()
}
