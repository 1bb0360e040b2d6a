//! Differential suite: the production dense-memo DP solver against an
//! independent hashed-memo reference implementation of the same
//! recurrence.
//!
//! The reference solver below is deliberately naive: a `HashMap` memo
//! keyed by the full state tuple, direct calls into the chain accessors
//! (no hoisted stage tables), and **no optimization pruning** — every
//! stage candidate of every state is evaluated (only the memory
//! *feasibility* checks remain, because they are part of the recurrence
//! itself). If the dense layout, the hoisted [`StageTables`], the load
//! prune or the branch-and-bound bound changed any DP value by even one
//! ulp, these tests catch it: periods must match **bit for bit** and the
//! reconstructed stage lists must be identical.
//!
//! The reference also covers the solve-level policies (recompute `auto`
//! and `always`, 2BW weights), and a second family of tests runs the
//! production DP through one [`ProbeSession`] visiting targets up and
//! down, so every probe after the first runs under the cap of the
//! allocations the session already holds. The reference never prunes,
//! so these also check that the branch-and-bound floor is a true lower
//! bound.
//!
//! Coverage: real profiled networks over a fig6-style platform slice,
//! plus proptest-generated chains/platforms/targets/policies. The
//! memory-tight cases at the end (the paper-size ResNet-50 at 3 and 4 GB,
//! and random chains with budgets near their sequential peak) also
//! require the memory floor to fire, so the unpruned reference checks
//! that every child it rejects is infeasible.

use std::collections::HashMap;
use std::ops::Range;

use madpipe_core::{madpipe_dp_with, oplus, Discretization, DpOutcome, ProbeSession, ProbeSource};
use madpipe_dnn::{networks, GpuModel};
use madpipe_model::util::ceil_div;
use madpipe_model::{
    ActivationPolicy, Chain, Layer, Platform, PolicySpec, RecomputeMode, StagePolicy, WeightPolicy,
};

/// Mirror of `core::discrete::Axis` (not public API): `n` points
/// uniformly covering `[0, max]`, round-up indexing with the relative
/// 1e-9 guard. Kept textually independent so an accidental change to
/// the production axis arithmetic shows up as a differential failure.
struct RefAxis {
    max: f64,
    n: usize,
}

impl RefAxis {
    fn new(max: f64, n: usize) -> Self {
        assert!(n >= 2 && max >= 0.0 && max.is_finite());
        Self { max, n }
    }

    fn index_up(&self, x: f64) -> u16 {
        if self.max <= 0.0 || x <= 0.0 {
            return 0;
        }
        let step = self.max / (self.n - 1) as f64;
        let idx = ((x / step) * (1.0 - 1e-9)).ceil() as isize;
        idx.clamp(0, (self.n - 1) as isize) as u16
    }

    fn value(&self, idx: u16) -> f64 {
        if self.max <= 0.0 {
            return 0.0;
        }
        let step = self.max / (self.n - 1) as f64;
        step * idx as f64
    }

    fn overflows(&self, x: f64) -> bool {
        x > self.max + 1e-9
    }
}

/// A chosen stage: split point `k` and whether it recomputes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RefChoice {
    Infeasible,
    Done,
    Normal(usize, bool),
    Special(usize, bool),
}

/// A reconstructed stage: layers, GPU and recompute flag.
type RefStage = (Range<usize>, usize, bool);

/// Memo key `(l, p, it, im, iv)` — the five DP grid coordinates.
type RefKey = (usize, usize, u16, u16, u16);

/// The hashed-memo reference solver.
struct RefSolver<'a> {
    chain: &'a Chain,
    platform: &'a Platform,
    t_hat: f64,
    use_special: bool,
    spec: PolicySpec,
    t_axis: RefAxis,
    m_axis: RefAxis,
    v_axis: RefAxis,
    cut_times: Vec<f64>,
    memo: HashMap<RefKey, (f64, RefChoice)>,
}

impl<'a> RefSolver<'a> {
    fn new(
        chain: &'a Chain,
        platform: &'a Platform,
        t_hat: f64,
        disc: &Discretization,
        use_special: bool,
        spec: PolicySpec,
    ) -> Self {
        // Recompute can add a stage's forward time to its load, so the
        // `t_P` and `V` ranges widen by the total forward time.
        let total = chain.total_compute_time()
            + match spec.recompute {
                RecomputeMode::Never => 0.0,
                _ => chain.forward_time(0..chain.len()),
            };
        let cut_times: Vec<f64> = (0..=chain.len())
            .map(|k| platform.cut_time(chain, k))
            .collect();
        let v_max = total + cut_times.iter().sum::<f64>();
        Self {
            chain,
            platform,
            t_hat,
            use_special,
            spec,
            t_axis: RefAxis::new(total, disc.t_points),
            m_axis: RefAxis::new(platform.memory_bytes as f64, disc.m_points),
            v_axis: RefAxis::new(v_max.max(t_hat), disc.v_points),
            cut_times,
            memo: HashMap::new(),
        }
    }

    fn solve(&mut self, l: usize, p: usize, it: u16, im: u16, iv: u16) -> f64 {
        if let Some(&(v, _)) = self.memo.get(&(l, p, it, im, iv)) {
            return v;
        }
        if l == 0 {
            let v = self.t_axis.value(it);
            self.memo.insert((l, p, it, im, iv), (v, RefChoice::Done));
            return v;
        }

        let t_val = self.t_axis.value(it);
        let m_val = self.m_axis.value(im);
        let v_val = self.v_axis.value(iv);
        let memory = self.platform.memory_bytes;

        let mut best = f64::INFINITY;
        let mut choice = RefChoice::Infeasible;

        // Full scan over every split point and offered activation
        // policy (store before recompute) — no load prune, no
        // branch-and-bound, no memory early-break. Same scan order and
        // the same strict `<` incumbent update as the production solver,
        // so choices (not just values) must agree.
        for k in (0..l).rev() {
            for &rec in self.lanes() {
                let policy = self.policy(rec);
                let u = self.load(k..l, rec);
                let g = ceil_div(v_val + u, self.t_hat).max(1);
                let cut = self.cut_times[k];
                let v_next = oplus(oplus(v_val, u, self.t_hat), cut, self.t_hat);
                let iv_next = self.v_axis.index_up(v_next);

                if p >= 1 && self.chain.stage_memory(k..l, g, policy) <= memory {
                    let sub = self.solve(k, p - 1, it, im, iv_next);
                    let t_n = u.max(cut).max(sub);
                    if t_n < best {
                        best = t_n;
                        choice = RefChoice::Normal(k, rec);
                    }
                }

                // The special processor pins `g - 1` copies (the
                // deliberate under-estimate), i.e. exactly `stage_memory`
                // at `g - 1`.
                let m_next = m_val + self.chain.stage_memory(k..l, g - 1, policy) as f64;
                if self.use_special && !self.m_axis.overflows(m_next) && m_next <= memory as f64 {
                    let it_next = self.t_axis.index_up(t_val + u);
                    let im_next = self.m_axis.index_up(m_next);
                    let t_next_val = self.t_axis.value(it_next);
                    let sub = self.solve(k, p, it_next, im_next, iv_next);
                    let t_s = t_next_val.max(cut).max(sub);
                    if t_s < best {
                        best = t_s;
                        choice = RefChoice::Special(k, rec);
                    }
                }
            }
        }

        self.memo.insert((l, p, it, im, iv), (best, choice));
        best
    }

    /// The recompute flags the spec offers each stage, in scan order.
    fn lanes(&self) -> &'static [bool] {
        match self.spec.recompute {
            RecomputeMode::Never => &[false],
            RecomputeMode::Always => &[true],
            RecomputeMode::Auto => &[false, true],
        }
    }

    fn policy(&self, rec: bool) -> StagePolicy {
        self.spec.stage_policy(if rec {
            ActivationPolicy::Recompute
        } else {
            ActivationPolicy::Store
        })
    }

    /// A stage's effective load: recompute runs its forward pass twice.
    fn load(&self, range: Range<usize>, rec: bool) -> f64 {
        let u = self.chain.compute_time(range.clone());
        if rec {
            u + self.chain.forward_time(range)
        } else {
            u
        }
    }

    /// Run from the root; returns the period and the stage list in
    /// chain order as `(layers, gpu)` with the production numbering
    /// (special = GPU 0, normal GPUs counting down from the back).
    fn run(&mut self) -> (f64, Option<Vec<RefStage>>) {
        let p0 = if self.use_special {
            self.platform.n_gpus - 1
        } else {
            self.platform.n_gpus
        };
        let l0 = self.chain.len();
        let period = self.solve(l0, p0, 0, 0, 0);
        if !period.is_finite() {
            return (period, None);
        }

        let mut stages_rev: Vec<RefStage> = Vec::new();
        let (mut l, mut p, mut it, mut im, mut iv) = (l0, p0, 0u16, 0u16, 0u16);
        let mut next_normal_gpu = self.platform.n_gpus - 1;
        loop {
            let (_, choice) = self.memo[&(l, p, it, im, iv)];
            match choice {
                RefChoice::Infeasible => return (period, None),
                RefChoice::Done => break,
                RefChoice::Normal(k, rec) => {
                    stages_rev.push((k..l, next_normal_gpu, rec));
                    next_normal_gpu = next_normal_gpu.saturating_sub(1);
                    let u = self.load(k..l, rec);
                    let v_val = self.v_axis.value(iv);
                    iv = self.v_axis.index_up(oplus(
                        oplus(v_val, u, self.t_hat),
                        self.cut_times[k],
                        self.t_hat,
                    ));
                    l = k;
                    p -= 1;
                }
                RefChoice::Special(k, rec) => {
                    stages_rev.push((k..l, 0, rec));
                    let u = self.load(k..l, rec);
                    let v_val = self.v_axis.value(iv);
                    let t_val = self.t_axis.value(it);
                    let m_val = self.m_axis.value(im);
                    let g = ceil_div(v_val + u, self.t_hat).max(1);
                    it = self.t_axis.index_up(t_val + u);
                    im = self.m_axis.index_up(
                        m_val + self.chain.stage_memory(k..l, g - 1, self.policy(rec)) as f64,
                    );
                    iv = self.v_axis.index_up(oplus(
                        oplus(v_val, u, self.t_hat),
                        self.cut_times[k],
                        self.t_hat,
                    ));
                    l = k;
                }
            }
        }
        stages_rev.reverse();
        (period, Some(stages_rev))
    }
}

/// Assert a production outcome and the reference agree bit-for-bit on
/// one `(chain, platform, T̂, use_special, spec)` instance: period bits,
/// stage layers, GPUs and policies.
fn assert_matches_reference(
    dense: &DpOutcome,
    chain: &Chain,
    platform: &Platform,
    t_hat: f64,
    disc: &Discretization,
    use_special: bool,
    spec: PolicySpec,
) {
    let (ref_period, ref_stages) =
        RefSolver::new(chain, platform, t_hat, disc, use_special, spec).run();
    assert_eq!(
        dense.period.to_bits(),
        ref_period.to_bits(),
        "period diverged at T̂ = {t_hat}, special = {use_special}, {spec:?}: \
         dense {} vs reference {ref_period}",
        dense.period
    );
    let dense_stages = dense.allocation.as_ref().map(|a| {
        a.stages()
            .iter()
            .map(|s| (s.layers.clone(), s.gpu, s.policy.recomputes()))
            .collect::<Vec<_>>()
    });
    assert_eq!(
        dense_stages, ref_stages,
        "stage lists diverged at T̂ = {t_hat}, special = {use_special}, {spec:?}"
    );
    if let Some(a) = &dense.allocation {
        assert!(a.stages().iter().all(|s| s.policy.weights == spec.weights));
    }
}

/// One-shot (uncapped) production solve against the reference under the
/// default policy.
fn assert_differential(
    chain: &Chain,
    platform: &Platform,
    t_hat: f64,
    disc: &Discretization,
    use_special: bool,
) {
    let dense = madpipe_dp_with(chain, platform, t_hat, disc, use_special);
    let spec = PolicySpec::default();
    assert_matches_reference(&dense, chain, platform, t_hat, disc, use_special, spec);
}

/// Probe `targets` in order through one production session per DP
/// variant (so every probe after the first runs capped) and check each
/// against the reference; the session must report no cap miss. Returns
/// the memory floor prunes the sessions made.
fn assert_session_differential(
    chain: &Chain,
    platform: &Platform,
    targets: &[f64],
    disc: &Discretization,
    spec: PolicySpec,
) -> u64 {
    let mut prunes = 0;
    for use_special in [true, false] {
        let mut session = ProbeSession::new_with_policy(chain, platform, disc, spec);
        for &t_hat in targets {
            let dense = session.probe(t_hat, use_special, ProbeSource::Bisection);
            assert_matches_reference(&dense, chain, platform, t_hat, disc, use_special, spec);
        }
        assert_eq!(session.stats().cap_misses, 0, "{spec:?}");
        prunes += session.stats().memory_floor_prunes;
    }
    prunes
}

/// The default policy, recompute `auto` and `always`, and 2BW weights.
fn specs() -> [PolicySpec; 4] {
    let spec = |recompute, weights| PolicySpec { recompute, weights };
    [
        PolicySpec::default(),
        spec(RecomputeMode::Auto, WeightPolicy::Full),
        spec(RecomputeMode::Always, WeightPolicy::Full),
        spec(RecomputeMode::Never, WeightPolicy::TwoBw),
    ]
}

/// Per-GPU-load multiples in bisection-like order: a first guess, an
/// upper target, then halving steps down and back up, plus the tight and
/// loose ends, so later probes land above and below held targets.
const SESSION_FACTORS: [f64; 9] = [1.0, 3.0, 2.0, 1.5, 1.25, 1.375, 0.6, 1.1, 0.9];

fn synthetic(costs: &[(f64, f64)], act: u64, w: u64) -> Chain {
    let layers = costs
        .iter()
        .enumerate()
        .map(|(i, &(f, b))| Layer::new(format!("l{i}"), f, b, w, act))
        .collect();
    Chain::new("t", act, layers).unwrap()
}

#[test]
fn profiled_network_cells_match_bit_for_bit() {
    // A fig6-style slice on a real profiled network: resnet50 over
    // several platform shapes and target periods, both DP variants.
    let chain = networks::by_name("resnet50")
        .unwrap()
        .profile(1, 100, &GpuModel::default())
        .unwrap();
    let disc = Discretization::coarse();
    let total = chain.total_compute_time();
    for (p, m_gb) in [(2usize, 4u64), (4, 2), (4, 8)] {
        let platform = Platform::gb(p, m_gb, 12.0).unwrap();
        for factor in [0.6, 1.0, 1.8] {
            let t_hat = total / p as f64 * factor;
            for special in [true, false] {
                assert_differential(&chain, &platform, t_hat, &disc, special);
            }
        }
    }
}

#[test]
fn imbalanced_synthetic_chains_match_bit_for_bit() {
    // Hand-built shapes that exercise the special processor, memory
    // pressure and infeasibility in one sweep.
    let cases = [
        (
            synthetic(&[(2.0, 2.0), (4.0, 4.0), (2.0, 2.0)], 1, 0),
            2usize,
            1u64 << 30,
        ),
        (synthetic(&[(1.0, 1.0); 8], 1 << 18, 1 << 10), 4, 3 << 20),
        (
            synthetic(
                &[(1.0, 2.0), (3.0, 1.0), (2.0, 2.0), (1.0, 1.0), (2.0, 3.0)],
                1 << 18,
                1 << 10,
            ),
            3,
            3 << 20,
        ),
        // Memory-hopeless at tight targets: the infeasible path must
        // also agree (both sides report ∞, no allocation).
        (synthetic(&[(1.0, 1.0); 6], 1 << 20, 0), 3, 4 << 20),
    ];
    let disc = Discretization::default();
    for (chain, p, mem) in &cases {
        let platform = Platform::new(*p, *mem, 1e8).unwrap();
        let total = chain.total_compute_time();
        for factor in [0.5, 0.9, 1.4, 3.0] {
            let t_hat = total / *p as f64 * factor;
            for special in [true, false] {
                assert_differential(chain, &platform, t_hat, &disc, special);
            }
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    #[test]
    fn random_chains_match_bit_for_bit(
        seed in (
            2usize..7,        // layers
            2usize..5,        // gpus
            1u64..64,         // activation KiB
            0u64..16,         // weight KiB
            1u32..40,         // T̂ scale (tenths of per-GPU load)
        ),
        costs in proptest::prop::collection::vec((0.1f64..4.0, 0.1f64..4.0), 7),
    ) {
        let (n_layers, gpus, act_kib, w_kib, t_tenths) = seed;
        let chain = synthetic(&costs[..n_layers], act_kib << 10, w_kib << 10);
        let platform = Platform::new(gpus, 2 << 20, 1e8).unwrap();
        let t_hat = chain.total_compute_time() / gpus as f64 * (t_tenths as f64 / 10.0);
        let disc = Discretization::coarse();
        for special in [true, false] {
            assert_differential(&chain, &platform, t_hat, &disc, special);
        }
    }
}

#[test]
fn capped_session_probes_match_bit_for_bit_on_a_profiled_network() {
    let chain = networks::by_name("resnet50")
        .unwrap()
        .profile(1, 100, &GpuModel::default())
        .unwrap();
    let disc = Discretization::coarse();
    let total = chain.total_compute_time();
    for (p, m_gb) in [(2usize, 4u64), (4, 2), (4, 8)] {
        let platform = Platform::gb(p, m_gb, 12.0).unwrap();
        // Fewer targets than the synthetic cases (the unpruned reference
        // is slow on a real network in debug builds), still up and down.
        let targets: Vec<f64> = [1.0, 2.0, 1.25, 0.6, 1.1]
            .iter()
            .map(|f| total / p as f64 * f)
            .collect();
        for spec in specs() {
            assert_session_differential(&chain, &platform, &targets, &disc, spec);
        }
    }
}

#[test]
fn capped_session_probes_match_bit_for_bit_on_synthetic_chains() {
    let cases = [
        (
            synthetic(&[(2.0, 2.0), (4.0, 4.0), (2.0, 2.0)], 1, 0),
            2usize,
            1u64 << 30,
        ),
        (synthetic(&[(1.0, 1.0); 8], 1 << 18, 1 << 10), 4, 3 << 20),
        (
            synthetic(
                &[(1.0, 2.0), (3.0, 1.0), (2.0, 2.0), (1.0, 1.0), (2.0, 3.0)],
                1 << 18,
                1 << 10,
            ),
            3,
            3 << 20,
        ),
        (synthetic(&[(1.0, 1.0); 6], 1 << 20, 0), 3, 4 << 20),
        // One GPU: every stage lands on the special processor, whose
        // rounded load clamps at the top of its axis.
        (
            synthetic(
                &[(1.0, 0.5), (0.3, 0.2), (2.0, 1.0), (0.1, 0.1)],
                1 << 10,
                0,
            ),
            1,
            1 << 30,
        ),
    ];
    let disc = Discretization::default();
    for (chain, p, mem) in &cases {
        let platform = Platform::new(*p, *mem, 1e8).unwrap();
        let total = chain.total_compute_time();
        let targets: Vec<f64> = SESSION_FACTORS
            .iter()
            .map(|f| total / *p as f64 * f)
            .collect();
        for spec in specs() {
            assert_session_differential(chain, &platform, &targets, &disc, spec);
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

    #[test]
    fn capped_session_probes_match_bit_for_bit_on_random_chains(
        seed in (
            2usize..7,        // layers
            1usize..5,        // gpus
            1u64..64,         // activation KiB
            0u64..16,         // weight KiB
            0usize..4,        // policy spec
        ),
        costs in proptest::prop::collection::vec((0.1f64..4.0, 0.1f64..4.0), 7),
        factors in proptest::prop::collection::vec(0.3f64..3.0, 6),
    ) {
        let (n_layers, gpus, act_kib, w_kib, spec) = seed;
        let chain = synthetic(&costs[..n_layers], act_kib << 10, w_kib << 10);
        let platform = Platform::new(gpus, 2 << 20, 1e8).unwrap();
        let per_gpu = chain.total_compute_time() / gpus as f64;
        let targets: Vec<f64> = factors.iter().map(|f| per_gpu * f).collect();
        let disc = Discretization::coarse();
        assert_session_differential(&chain, &platform, &targets, &disc, specs()[spec]);
    }
}

#[test]
fn memory_tight_resnet50_cells_match_and_fire_the_floor() {
    // The paper-size ResNet-50 (batch 8, 1000×1000) where the memory
    // floor does most of its work, under every policy spec; the floor
    // must fire, so the unpruned reference checks the children it skips.
    let chain = networks::by_name("resnet50")
        .unwrap()
        .profile(8, 1000, &GpuModel::default())
        .unwrap();
    let disc = Discretization::coarse();
    let total = chain.total_compute_time();
    for (p, m_gb) in [(4usize, 3u64), (2, 4)] {
        let platform = Platform::gb(p, m_gb, 12.0).unwrap();
        let targets: Vec<f64> = [1.0, 2.3, 1.7]
            .iter()
            .map(|f| total / p as f64 * f)
            .collect();
        for spec in specs() {
            let prunes = assert_session_differential(&chain, &platform, &targets, &disc, spec);
            assert!(
                prunes > 0,
                "P = {p}, M = {m_gb} GB, {spec:?}: the floor never fired"
            );
        }
    }
}

#[test]
fn near_peak_random_chains_match_and_fire_the_floor() {
    // Random chains whose budget sits near the memory one GPU needs to
    // run the whole chain with one batch in flight, under every spec.
    // Each instance is checked on its own; the floor must fire on some
    // of them under every spec.
    let mut rng = proptest::test_runner::TestRng::from_seed(0x6d65_6d66);
    let mut prunes = [0u64; 4];
    for _ in 0..24 {
        let n_layers = 3 + rng.below(5) as usize;
        let costs: Vec<(f64, f64)> = (0..n_layers)
            .map(|_| (0.1 + 3.9 * rng.next_f64(), 0.1 + 3.9 * rng.next_f64()))
            .collect();
        let layers = costs
            .iter()
            .enumerate()
            .map(|(i, &(f, b))| {
                let act = (1 + rng.below(64)) << 10;
                let w = rng.below(16) << 10;
                Layer::new(format!("l{i}"), f, b, w, act)
            })
            .collect();
        let chain = Chain::new("t", 8 << 10, layers).unwrap();
        let gpus = 1 + rng.below(4) as usize;
        let peak = chain.stage_memory(0..n_layers, 1, StagePolicy::default());
        let budget = (peak as f64 * (0.5 + rng.next_f64())) as u64;
        let platform = Platform::new(gpus, budget.max(1), 1e8).unwrap();
        let per_gpu = chain.total_compute_time() / gpus as f64;
        let targets: Vec<f64> = (0..4)
            .map(|_| per_gpu * (0.3 + 2.7 * rng.next_f64()))
            .collect();
        let disc = Discretization::coarse();
        for (i, spec) in specs().into_iter().enumerate() {
            prunes[i] += assert_session_differential(&chain, &platform, &targets, &disc, spec);
        }
    }
    for (spec, n) in specs().iter().zip(prunes) {
        assert!(n > 0, "{spec:?}: the floor never fired");
    }
}

#[test]
fn uncapped_solves_on_memory_tight_paper_networks_match_bit_for_bit() {
    // One-shot solves have no held allocation to cap them: every bound
    // they prune with comes from the paths they find. The four paper
    // networks at P = 4 and 8 with 3 GB per GPU, targets from 1× to 6×
    // the load bound; the ceiling falls 6 to 368 times in each feasible
    // solve with the special GPU (11 of the 32 are infeasible).
    let disc = Discretization::coarse();
    for name in ["resnet50", "resnet101", "inception", "densenet121"] {
        let chain = networks::by_name(name)
            .unwrap()
            .profile(8, 1000, &GpuModel::default())
            .unwrap();
        let total = chain.total_compute_time();
        for p in [4usize, 8] {
            let platform = Platform::gb(p, 3, 12.0).unwrap();
            for factor in [1.0, 3.0, 4.5, 6.0] {
                let t_hat = total / p as f64 * factor;
                for special in [true, false] {
                    assert_differential(&chain, &platform, t_hat, &disc, special);
                }
            }
        }
    }
}

#[test]
fn random_chains_whose_first_path_is_far_from_optimal_match_bit_for_bit() {
    // With memory to spare, the first complete path in scan order puts
    // the last `P − 1` layers on the normal GPUs, one each, and every
    // other layer on the special GPU, so its value is at least `U(0, L −
    // P + 1)`. Kept are the chains where that is twice the optimum or
    // more: the ceiling starts far above the answer and falls to it.
    let mut rng = proptest::test_runner::TestRng::from_seed(0x6365_696c);
    let disc = Discretization::coarse();
    let mut kept = 0;
    for _ in 0..64 {
        let n_layers = 6 + rng.below(5) as usize;
        let gpus = 3 + rng.below(2) as usize;
        let costs: Vec<(f64, f64)> = (0..n_layers)
            .map(|_| (0.1 + 3.9 * rng.next_f64(), 0.1 + 3.9 * rng.next_f64()))
            .collect();
        let chain = synthetic(&costs, (1 + rng.below(64)) << 10, rng.below(16) << 10);
        let platform = Platform::new(gpus, 1 << 30, 1e8).unwrap();
        let per_gpu = chain.total_compute_time() / gpus as f64;
        let t_hat = per_gpu * (1.0 + 5.0 * rng.next_f64());
        let dense = madpipe_dp_with(&chain, &platform, t_hat, &disc, true);
        let first = chain.compute_time(0..n_layers - (gpus - 1));
        if !(dense.period.is_finite() && first >= 2.0 * dense.period) {
            continue;
        }
        kept += 1;
        let spec = PolicySpec::default();
        assert_matches_reference(&dense, &chain, &platform, t_hat, &disc, true, spec);
        assert_differential(&chain, &platform, t_hat, &disc, false);
    }
    assert!(
        kept >= 32,
        "only {kept} chains start twice the optimum away"
    );
}
