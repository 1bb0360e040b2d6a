//! Property tests: the branch-and-bound scheduler against the provably
//! optimal 1F1B* on contiguous instances, and structural invariants on
//! random non-contiguous allocations.

use proptest::prelude::*;

use madpipe_model::{Allocation, Chain, Layer, Partition, Platform, Stage, UnitSequence};
use madpipe_schedule::{best_contiguous_period, check_pattern, one_f1b_star};
use madpipe_solver::{best_period, PlaceConfig};

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
        let solved = best_period(&chain, &platform, &alloc, &PlaceConfig::default())
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
        let part = Partition::from_cuts(&cuts, chain.len()).unwrap();
        let n_stages = part.len();
        let n_gpus = n_stages.clamp(1, 3);
        // Deterministic pseudo-random stage→GPU map covering each GPU.
        let stages: Vec<Stage> = part
            .stages()
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let gpu = if i < n_gpus { i } else { (gpu_seed as usize + 7 * i) % n_gpus };
                Stage::new(r.clone(), gpu)
            })
            .collect();
        let alloc = Allocation::new(stages, chain.len(), n_gpus).unwrap();
        let platform = Platform::new(n_gpus, 1 << 40, 500.0).unwrap();

        match best_period(&chain, &platform, &alloc, &PlaceConfig::default()) {
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
}
