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
//! Coverage: real profiled networks over a fig6-style platform slice,
//! plus proptest-generated chains/platforms/targets.

use std::collections::HashMap;
use std::ops::Range;

use madpipe_core::{madpipe_dp_with, oplus, Discretization};
use madpipe_dnn::{networks, GpuModel};
use madpipe_model::util::ceil_div;
use madpipe_model::{Chain, Layer, Platform, StagePolicy};

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

#[derive(Debug, Clone, Copy, PartialEq)]
enum RefChoice {
    Infeasible,
    Done,
    Normal(usize),
    Special(usize),
}

/// Memo key `(l, p, it, im, iv)` — the five DP grid coordinates.
type RefKey = (usize, usize, u16, u16, u16);

/// The hashed-memo reference solver.
struct RefSolver<'a> {
    chain: &'a Chain,
    platform: &'a Platform,
    t_hat: f64,
    use_special: bool,
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
    ) -> Self {
        let total_u = chain.total_compute_time();
        let cut_times: Vec<f64> = (0..=chain.len())
            .map(|k| platform.cut_time(chain, k))
            .collect();
        let v_max = total_u + cut_times.iter().sum::<f64>();
        Self {
            chain,
            platform,
            t_hat,
            use_special,
            t_axis: RefAxis::new(total_u, disc.t_points),
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

        // Full scan over every split point — no load prune, no
        // branch-and-bound, no memory early-break. Same scan direction
        // and the same strict `<` incumbent update as the production
        // solver, so choices (not just values) must agree.
        for k in (0..l).rev() {
            let u = self.chain.compute_time(k..l);
            let g = ceil_div(v_val + u, self.t_hat).max(1);
            let cut = self.cut_times[k];
            let v_next = oplus(oplus(v_val, u, self.t_hat), cut, self.t_hat);
            let iv_next = self.v_axis.index_up(v_next);

            if p >= 1 && self.chain.stage_memory(k..l, g, StagePolicy::default()) <= memory {
                let sub = self.solve(k, p - 1, it, im, iv_next);
                let t_n = u.max(cut).max(sub);
                if t_n < best {
                    best = t_n;
                    choice = RefChoice::Normal(k);
                }
            }

            // The special processor pins `g - 1` copies (the deliberate
            // under-estimate), i.e. exactly `stage_memory` at `g - 1`.
            let m_next =
                m_val + self.chain.stage_memory(k..l, g - 1, StagePolicy::default()) as f64;
            if self.use_special && !self.m_axis.overflows(m_next) && m_next <= memory as f64 {
                let it_next = self.t_axis.index_up(t_val + u);
                let im_next = self.m_axis.index_up(m_next);
                let t_next_val = self.t_axis.value(it_next);
                let sub = self.solve(k, p, it_next, im_next, iv_next);
                let t_s = t_next_val.max(cut).max(sub);
                if t_s < best {
                    best = t_s;
                    choice = RefChoice::Special(k);
                }
            }
        }

        self.memo.insert((l, p, it, im, iv), (best, choice));
        best
    }

    /// Run from the root; returns the period and the stage list in
    /// chain order as `(layers, gpu)` with the production numbering
    /// (special = GPU 0, normal GPUs counting down from the back).
    #[allow(clippy::type_complexity)] // one-off test-local return shape
    fn run(&mut self) -> (f64, Option<Vec<(Range<usize>, usize)>>) {
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

        let mut stages_rev: Vec<(Range<usize>, usize)> = Vec::new();
        let (mut l, mut p, mut it, mut im, mut iv) = (l0, p0, 0u16, 0u16, 0u16);
        let mut next_normal_gpu = self.platform.n_gpus - 1;
        loop {
            let (_, choice) = self.memo[&(l, p, it, im, iv)];
            match choice {
                RefChoice::Infeasible => return (period, None),
                RefChoice::Done => break,
                RefChoice::Normal(k) => {
                    stages_rev.push((k..l, next_normal_gpu));
                    next_normal_gpu = next_normal_gpu.saturating_sub(1);
                    let u = self.chain.compute_time(k..l);
                    let v_val = self.v_axis.value(iv);
                    iv = self.v_axis.index_up(oplus(
                        oplus(v_val, u, self.t_hat),
                        self.cut_times[k],
                        self.t_hat,
                    ));
                    l = k;
                    p -= 1;
                }
                RefChoice::Special(k) => {
                    stages_rev.push((k..l, 0));
                    let u = self.chain.compute_time(k..l);
                    let v_val = self.v_axis.value(iv);
                    let t_val = self.t_axis.value(it);
                    let m_val = self.m_axis.value(im);
                    let g = ceil_div(v_val + u, self.t_hat).max(1);
                    it = self.t_axis.index_up(t_val + u);
                    im = self.m_axis.index_up(
                        m_val + self.chain.stage_memory(k..l, g - 1, StagePolicy::default()) as f64,
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

/// Assert the production solver and the reference agree bit-for-bit on
/// one `(chain, platform, T̂, use_special)` instance.
fn assert_differential(
    chain: &Chain,
    platform: &Platform,
    t_hat: f64,
    disc: &Discretization,
    use_special: bool,
) {
    let dense = madpipe_dp_with(chain, platform, t_hat, disc, use_special);
    let (ref_period, ref_stages) = RefSolver::new(chain, platform, t_hat, disc, use_special).run();
    assert_eq!(
        dense.period.to_bits(),
        ref_period.to_bits(),
        "period diverged at T̂ = {t_hat}, special = {use_special}: \
         dense {} vs reference {ref_period}",
        dense.period
    );
    let dense_stages = dense.allocation.map(|a| {
        a.stages()
            .iter()
            .map(|s| (s.layers.clone(), s.gpu))
            .collect::<Vec<_>>()
    });
    assert_eq!(
        dense_stages, ref_stages,
        "stage lists diverged at T̂ = {t_hat}, special = {use_special}"
    );
}

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
