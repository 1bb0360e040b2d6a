//! Discretization grids for the continuous DP coordinates.
//!
//! MadPipe-DP's state carries three continuous quantities — the special
//! processor's accumulated load `t_P`, its accumulated memory `m_P`, and
//! the forward/backward delay bound `V`. §5.1 of the paper discretizes
//! them onto 101 / 11 / 51 equally spaced points respectively; values are
//! always rounded *up* onto the grid, which is conservative for both the
//! period (`t_P`) and the memory constraints (`m_P`, `V`).

use madpipe_model::util::Divisor;

/// Grid resolution for the three discretized coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Discretization {
    /// Points for `t_P` over `[0, U(1,L)]` (paper: 101).
    pub t_points: usize,
    /// Points for `m_P` over `[0, M]` (paper: 11).
    pub m_points: usize,
    /// Points for `V` over `[0, U(1,L) + Σ C(i)]` (paper: 51).
    pub v_points: usize,
}

impl Default for Discretization {
    fn default() -> Self {
        Self {
            t_points: 101,
            m_points: 11,
            v_points: 51,
        }
    }
}

impl Discretization {
    /// A coarse grid for fast tests and sweeps.
    pub fn coarse() -> Self {
        Self {
            t_points: 41,
            m_points: 9,
            v_points: 21,
        }
    }

    /// A fine grid for the highest-fidelity runs.
    pub fn fine() -> Self {
        Self {
            t_points: 201,
            m_points: 21,
            v_points: 101,
        }
    }
}

/// One axis of the grid: `n` points uniformly covering `[0, max]`.
#[derive(Debug, Clone)]
pub struct Axis {
    max: f64,
    n: usize,
    /// `max / (n - 1)`, cached at construction — `index_up`/`value` sit
    /// on the DP's innermost loop and must not pay the division for the
    /// step on every call. The cached value is the exact same expression
    /// the accessors used to recompute, so results are bit-identical.
    step: f64,
    /// The step as a [`Divisor`]: `index_up`'s quotient `x / step` is
    /// taken from a product with its reciprocal, with the division's
    /// integer on every input.
    per_step: Divisor,
}

impl Axis {
    /// Build an axis; `max = 0` collapses to the single point `0`.
    ///
    /// The invariants are enforced in release builds too: a degenerate
    /// axis (`n < 2`) would divide by zero in the step computation, and a
    /// non-finite `max` poisons every rounded value downstream — neither
    /// may ever be constructible, whatever the build profile.
    pub fn new(max: f64, n: usize) -> Self {
        assert!(n >= 2, "an axis needs at least two points, got {n}");
        assert!(
            max >= 0.0 && max.is_finite(),
            "axis maximum must be finite and non-negative, got {max}"
        );
        let step = max / (n - 1) as f64;
        Self {
            max,
            n,
            step,
            per_step: Divisor::new(step),
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True iff the axis is degenerate (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Smallest grid index whose value is ≥ `x` (round up, clamped to the
    /// last point).
    ///
    /// A value within relative `1e-9` of a grid point counts as *on* it —
    /// the guard absorbs float noise from the prefix-sum arithmetic
    /// feeding the DP. The tolerance is relative to the ratio `x / step`
    /// (multiplied in, so it scales with the coordinate): an absolute
    /// guard is swamped on axes with large `max` and can round
    /// genuinely-above-grid values *down* on tiny ones, breaking the
    /// documented round-up conservatism.
    ///
    /// The guarded ratio's ceiling is `f64::ceil((x / step) · (1 −
    /// 10⁻⁹))` bit for bit, without the libm call, and without the
    /// division unless the ratio lies within `2⁻⁵⁰` (relative) of an
    /// integer ([`Divisor::ceil_div_scaled`]): the product with the step's
    /// reciprocal, computed once per axis, gives the same integer.
    #[inline]
    pub fn index_up(&self, x: f64) -> u16 {
        if self.max <= 0.0 || x <= 0.0 {
            return 0;
        }
        let up = self.per_step.ceil_div_scaled(x, 1.0 - 1e-9);
        (up as isize).clamp(0, (self.n - 1) as isize) as u16
    }

    /// Value of grid point `idx`.
    pub fn value(&self, idx: u16) -> f64 {
        if self.max <= 0.0 {
            return 0.0;
        }
        self.step * idx as f64
    }

    /// Whether `x` exceeds the axis maximum (infeasible coordinate).
    pub fn overflows(&self, x: f64) -> bool {
        x > self.max + 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_rounds_up() {
        let ax = Axis::new(10.0, 11); // step 1.0
        assert_eq!(ax.index_up(0.0), 0);
        assert_eq!(ax.index_up(0.1), 1);
        assert_eq!(ax.index_up(1.0), 1);
        assert_eq!(ax.index_up(1.000001), 2);
        assert_eq!(ax.value(3), 3.0);
        // rounding up: value(index_up(x)) ≥ x
        for &x in &[0.0, 0.3, 2.7, 9.99, 10.0] {
            assert!(ax.value(ax.index_up(x)) + 1e-6 >= x);
        }
    }

    #[test]
    fn clamps_to_last_point() {
        let ax = Axis::new(10.0, 11);
        assert_eq!(ax.index_up(25.0), 10);
        assert!(ax.overflows(10.1));
        assert!(!ax.overflows(10.0));
    }

    #[test]
    fn zero_max_collapses() {
        let ax = Axis::new(0.0, 11);
        assert_eq!(ax.index_up(0.0), 0);
        assert_eq!(ax.value(0), 0.0);
        assert!(ax.overflows(0.5));
    }

    #[test]
    fn defaults_match_the_paper() {
        let d = Discretization::default();
        assert_eq!((d.t_points, d.m_points, d.v_points), (101, 11, 51));
    }

    #[test]
    fn near_grid_values_do_not_bump_up() {
        let ax = Axis::new(10.0, 11);
        // 3.0 + noise below the 1e-9 guard stays at index 3
        assert_eq!(ax.index_up(3.0 + 1e-11), 3);
    }

    #[test]
    fn index_up_matches_the_std_ceil_formula_on_every_input() {
        fn reference(ax: &Axis, x: f64) -> u16 {
            if ax.max <= 0.0 || x <= 0.0 {
                return 0;
            }
            let idx = ((x / ax.step) * (1.0 - 1e-9)).ceil() as isize;
            idx.clamp(0, (ax.n - 1) as isize) as u16
        }
        // SplitMix64.
        let mut state = 0x1d_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let unit = |bits: u64| (bits >> 11) as f64 / (1u64 << 53) as f64;
        let edges = [
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for round in 0..20_000 {
            // Axes from picoseconds to 1e18, including `max = 0`, with the
            // paper's point counts and arbitrary ones.
            let max = if round % 50 == 0 {
                0.0
            } else {
                10f64.powi((next() % 31) as i32 - 12) * (0.5 + unit(next()))
            };
            let n = [11, 51, 101, 2, 3][round % 5].max((next() % 400) as usize * (round % 2));
            let ax = Axis::new(max, n);
            let check = |x: f64| {
                assert_eq!(
                    ax.index_up(x),
                    reference(&ax, x),
                    "max {max:e}, n {n}, x {x:e}"
                );
            };
            for x in edges {
                check(x);
            }
            for _ in 0..20 {
                // Grid points and the doubles around them, values off the
                // grid, past its end, and any bit pattern.
                let i = (next() % (n as u64 + 2)) as f64;
                let on = ax.step * i;
                let (mut lo, mut hi) = (on, on);
                check(on);
                check(on * (1.0 + 1e-9));
                for _ in 0..3 {
                    (lo, hi) = (lo.next_down(), hi.next_up());
                    check(lo);
                    check(hi);
                }
                check(max * 1.1 * unit(next()));
                check(f64::from_bits(next()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn degenerate_point_count_is_rejected_in_release_builds_too() {
        let _ = Axis::new(10.0, 1);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_maximum_is_rejected() {
        let _ = Axis::new(f64::INFINITY, 11);
    }

    #[test]
    fn round_up_conservatism_holds_on_extreme_scales() {
        // The old absolute guard (`x / step - 1e-9`) was swamped by large
        // coordinates and oversized on tiny ones; the relative guard must
        // keep `value(index_up(x)) ≥ x` (up to the documented relative
        // tolerance) on axes spanning nanoseconds to exayears.
        for &max in &[1e-12, 1e-3, 1.0, 1e3, 1e12, 1e18] {
            let ax = Axis::new(max, 51);
            let step = max / 50.0;
            for i in 0..50u16 {
                // Just above a grid point by half a step: must round up.
                let x = step * i as f64 + step * 0.5;
                let idx = ax.index_up(x);
                assert!(
                    ax.value(idx) >= x * (1.0 - 4e-9),
                    "max {max}: value({idx}) = {} < {x}",
                    ax.value(idx)
                );
                assert_eq!(idx, i + 1, "max {max}: {x} must round up past point {i}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn index_up_rounds_up_across_extreme_scales(
            exp_plus_12 in 0u32..31,
            n in 2usize..2000,
            frac in 0.0f64..1.0,
        ) {
            let max = 10f64.powi(exp_plus_12 as i32 - 12);
            let ax = Axis::new(max, n);
            let x = max * frac;
            let idx = ax.index_up(x);
            // Round-up conservatism, up to the documented relative guard.
            proptest::prop_assert!(
                ax.value(idx) >= x * (1.0 - 4e-9),
                "value({}) = {} < {} on max {}", idx, ax.value(idx), x, max
            );
            // And never more than one step above (no over-rounding).
            if idx > 0 {
                proptest::prop_assert!(ax.value(idx - 1) < x);
            }
        }

        #[test]
        fn index_up_is_monotone(
            n in 2usize..200,
            a in 0.0f64..1.0,
            b in 0.0f64..1.0,
        ) {
            let ax = Axis::new(1e9, n);
            let (lo, hi) = (a.min(b) * 1e9, a.max(b) * 1e9);
            proptest::prop_assert!(ax.index_up(lo) <= ax.index_up(hi));
        }
    }
}
