//! Floating-point comparison and rounding helpers, and the ordered
//! worker pool.
//!
//! Periods, start times and durations are `f64` seconds; schedule
//! feasibility checks compare sums of such values and must tolerate
//! rounding noise. All crates in the workspace use the helpers below with
//! the shared [`EPS`] so that "fits within the period" means the same
//! thing everywhere.
//!
//! [`ordered_pool`] is the one scoped worker pool of the workspace: the
//! DP's probe batches, phase-2 scheduling and the experiment grid fan
//! independent jobs out with it and get their results back in job order.
//!
//! # Rounding without libm
//!
//! The planner rounds on every DP transition (`⌈·/T̂⌉`, the grid
//! round-ups), every memory-floor fill and several times per phase-2
//! node (folding a time into the period). On the x86-64 baseline target
//! `f64::floor`, `ceil` and `round` are not instructions (SSE4.1's
//! `roundsd` is not in the baseline): each is a call through the GOT
//! into a software routine. A build that made each a `roundsd` planned
//! the served ResNet-50 cells about 1.18× faster. So the planner's hot
//! paths round with [`floor`] and [`ceil_div_with`], which handle the
//! values the planner sees, non-negative and below `2⁵²`, with one add
//! and one subtract of `2⁵²`, exactly, and give every other input to
//! std. Both return std's answer on every input. Display code (gantt
//! charts, histograms) keeps std's methods.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Absolute tolerance used by all schedule feasibility comparisons.
///
/// Model times are O(1e-3 .. 1e1) seconds, so 1e-9 is ~6 orders of
/// magnitude below the smallest meaningful duration while well above
/// accumulated f64 rounding error for the chain lengths we handle.
pub const EPS: f64 = 1e-9;

/// `a ≤ b` up to [`EPS`].
#[inline]
pub fn fle(a: f64, b: f64) -> bool {
    a <= b + EPS
}

/// `a < b` by more than [`EPS`].
#[inline]
pub fn flt(a: f64, b: f64) -> bool {
    a < b - EPS
}

/// `a ≥ b` up to [`EPS`].
#[inline]
pub fn fge(a: f64, b: f64) -> bool {
    a + EPS >= b
}

/// `a == b` up to [`EPS`].
#[inline]
pub fn feq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS
}

/// `2⁵²`: from here up, doubles are spaced at least 1 apart.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// The integer nearest to `x` (ties to even), as a double and as an
/// integer, for `+0 ≤ x < 2⁵²` only: in `[2⁵², 2⁵³]` doubles are exactly
/// 1 apart, so `x + 2⁵²` rounds `x` to an integer with no other error.
/// Subtracting `2⁵²` again is exact (Rust never reassociates the two
/// operations), and the sum's bits exceed `2⁵²`'s by that integer, `2⁵³`
/// included, with no float-to-integer conversion.
#[inline]
fn nearest_below_2_52(x: f64) -> (f64, u64) {
    let shifted = x + TWO_52;
    (shifted - TWO_52, shifted.to_bits() - TWO_52.to_bits())
}

/// Whether `x` lies in `[+0, 2⁵²)`: for a non-negative double, the bit
/// pattern orders like the value, and `-0.0`, negatives and NaNs with
/// the sign bit set compare above as unsigned integers, as do `+NaN`,
/// `+∞` and `2⁵²` itself.
#[inline]
fn in_fast_range(x: f64) -> bool {
    x.to_bits() < TWO_52.to_bits()
}

/// `x.floor()`, bit for bit on every input, without a libm call for
/// `+0 ≤ x < 2⁵²` (see the module docs). Other inputs (negatives, `-0.0`,
/// NaN, `±∞` and values `≥ 2⁵²`) go to `f64::floor`.
#[inline]
pub fn floor(x: f64) -> f64 {
    if in_fast_range(x) {
        let (n, _) = nearest_below_2_52(x);
        if n > x {
            n - 1.0
        } else {
            n
        }
    } else {
        x.floor()
    }
}

/// Ceiling of `x / y` as an integer, robust to `x` being within [`EPS`]
/// of an exact multiple of `y` (in which case the exact ratio is used).
///
/// This is the `⌈·/T̂⌉` used throughout §4.2 of the paper; without the
/// tolerance, `ceil(3.0000000001/1.0)` would return 4 groups instead of 3
/// and inflate every memory estimate.
#[inline]
pub fn ceil_div(x: f64, y: f64) -> u64 {
    ceil_div_with(x, y, EPS / y)
}

/// [`ceil_div`] with its snapping tolerance `tol = EPS / y` computed by
/// the caller, so a loop over one divisor divides once per call, not
/// twice.
///
/// For `q = x / y` in `[0, 2⁵²)` and `tol < 1/2` (any `y > 2·EPS`) it
/// takes the nearest integer `n` without libm: `n` when `|q − n| ≤ tol`
/// (then `n` is also `q.round()`, `q` being no tie) or `n ≥ q` (then `n`
/// is `q.ceil()`, as `n − q ≤ 1/2`), else `n + 1` (`q.ceil()` again).
/// That is the round-then-ceil below, which every other input takes.
#[inline]
pub fn ceil_div_with(x: f64, y: f64, tol: f64) -> u64 {
    debug_assert!(y > 0.0, "ceil_div requires a positive divisor");
    debug_assert_eq!(tol.to_bits(), (EPS / y).to_bits(), "tol is EPS / y");
    if x <= EPS {
        return 0;
    }
    let q = x / y;
    if in_fast_range(q) && tol < 0.5 {
        let (n, whole) = nearest_below_2_52(q);
        return whole + ((q - n).abs() > tol && n < q) as u64;
    }
    let r = q.round();
    if (q - r).abs() <= tol {
        r as u64
    } else {
        q.ceil() as u64
    }
}

/// One step of the `⊕` delay-propagation algebra of §4.2.2: fold the
/// load `y` of the next element (walking the chain back-to-front) into
/// the accumulated delay `x` at target period `t`:
///
/// ```text
/// x ⊕ y = x + y            if ⌈x/t⌉ = ⌈(x+y)/t⌉   (same group)
///       = t·⌈x/t⌉ + y      otherwise               (new group opens)
/// ```
///
/// Zero-cost elements never open a new group (`x ⊕ 0 = x`).
///
/// This lives here (not in `madpipe-core`) because *both* sides of the
/// planner must make identical grouping decisions at period boundaries:
/// the DP derives `g = ⌈(V + U)/T̂⌉` from delays propagated with this
/// step, and 1F1B*'s greedy packer assigns the actual groups. Both now
/// share this function and [`ceil_div`]'s boundary snapping, so a load
/// landing exactly on a multiple of the period (within [`EPS`]) counts
/// the same number of groups in the estimate and in the schedule.
#[inline]
pub fn group_step(x: f64, y: f64, t: f64) -> f64 {
    group_step_with(x, y, t, EPS / t)
}

/// [`group_step`] with [`ceil_div_with`]'s tolerance `tol = EPS / t`
/// computed by the caller.
#[inline]
pub fn group_step_with(x: f64, y: f64, t: f64, tol: f64) -> f64 {
    debug_assert!(t > 0.0, "group_step requires a positive target period");
    debug_assert!(x >= 0.0 && y >= 0.0);
    if y == 0.0 {
        return x;
    }
    let gx = ceil_div_with(x, t, tol);
    let gxy = ceil_div_with(x + y, t, tol);
    if gx == gxy {
        x + y
    } else {
        t * gx as f64 + y
    }
}

/// Run `job(worker, i)` for every `i` in `0..n` and return the results
/// in index order. Each element of `workers` is one worker's own state
/// (a DP workspace, or `()`); up to `workers.len()` scoped threads pull
/// indices from a shared cursor, so which worker runs which job varies,
/// but the results do not when each depends only on `i`. With one
/// worker, or at most one job, the loop runs on the caller's thread.
/// `workers` must not be empty.
pub fn ordered_pool<W, R, F>(n: usize, workers: &mut [W], job: F) -> Vec<R>
where
    W: Send,
    R: Send,
    F: Fn(&mut W, usize) -> R + Sync,
{
    assert!(!workers.is_empty(), "a pool needs at least one worker");
    let threads = workers.len().min(n);
    if threads <= 1 {
        let worker = &mut workers[0];
        return (0..n).map(|i| job(worker, i)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = workers[..threads]
            .iter_mut()
            .map(|worker| {
                let (cursor, job) = (&cursor, &job);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        done.push((i, job(worker, i)));
                    }
                })
            })
            .collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, r) in done {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pool_keeps_job_order_and_per_worker_state() {
        for threads in [1, 2, 3, 8] {
            let mut counts = vec![0usize; threads];
            let squares = ordered_pool(20, &mut counts, |count, i| {
                *count += 1;
                i * i
            });
            assert_eq!(squares, (0..20).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(counts.iter().sum::<usize>(), 20, "{threads} workers");
        }
        let mut one = [()];
        assert!(ordered_pool(0, &mut one, |_, i| i).is_empty());
    }

    #[test]
    fn comparisons_tolerate_eps() {
        assert!(fle(1.0 + 1e-12, 1.0));
        assert!(!fle(1.0 + 1e-6, 1.0));
        assert!(flt(0.9, 1.0));
        assert!(!flt(1.0 - 1e-12, 1.0));
        assert!(fge(1.0 - 1e-12, 1.0));
        assert!(feq(2.0, 2.0 + 1e-10));
    }

    #[test]
    fn ceil_div_handles_near_multiples() {
        assert_eq!(ceil_div(3.0, 1.0), 3);
        assert_eq!(ceil_div(3.0 + 1e-12, 1.0), 3);
        assert_eq!(ceil_div(3.1, 1.0), 4);
        assert_eq!(ceil_div(0.0, 1.0), 0);
        assert_eq!(ceil_div(-1.0, 1.0), 0);
        assert_eq!(ceil_div(1e-12, 1.0), 0);
    }

    /// SplitMix64, the input source of the rounding differentials.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, hi)`.
        fn below(&mut self, hi: f64) -> f64 {
            (self.next() >> 11) as f64 / TWO_52 / 2.0 * hi
        }
    }

    /// `10·n` inputs plus the edge cases: per round a random bit pattern,
    /// a uniform value in `[0, 8)` and one in `[0, 10⁶)`, and an integer
    /// (below 4096, or anywhere below `2⁵³`) with the 3 doubles either
    /// side of it.
    fn rounding_inputs(n: usize) -> Vec<f64> {
        let mut xs = vec![
            0.0,
            -0.0,
            0.5,
            0.499_999_999_999_999_94,
            TWO_52 - 0.5,
            TWO_52 - 1.0,
            TWO_52,
            TWO_52 + 1.0,
            2.0 * TWO_52,
            -0.5,
            -1.5,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
        ];
        let mut mix = Mix(0x5eed);
        for _ in 0..n {
            xs.push(f64::from_bits(mix.next()));
            xs.push(mix.below(8.0));
            xs.push(mix.below(1e6));
            let k = if mix.next() & 1 == 0 {
                (mix.next() % 4096) as f64
            } else {
                (mix.next() >> 11) as f64
            };
            let (mut lo, mut hi) = (k, k);
            xs.push(k);
            for _ in 0..3 {
                (lo, hi) = (lo.next_down(), hi.next_up());
                xs.extend([lo, hi]);
            }
        }
        xs
    }

    #[test]
    fn floor_returns_std_bits_on_every_input() {
        for x in rounding_inputs(300_000) {
            let (got, want) = (floor(x), x.floor());
            assert_eq!(got.to_bits(), want.to_bits(), "floor({x:e})");
            assert_eq!(got.is_nan(), x.is_nan(), "floor({x:e})");
        }
    }

    #[test]
    fn ceil_div_matches_the_round_then_ceil_formula_on_every_input() {
        fn reference(x: f64, y: f64, tol: f64) -> u64 {
            if x <= EPS {
                return 0;
            }
            let q = x / y;
            let r = q.round();
            if (q - r).abs() <= tol {
                r as u64
            } else {
                q.ceil() as u64
            }
        }
        // Divisors: the planner's `T̂` range, uniform in `(0, 8)`, any
        // positive double, and the edges, `2·EPS` (where `tol` reaches
        // 1/2) among them.
        fn divisor(mix: &mut Mix, i: usize) -> f64 {
            let y = match i % 4 {
                0 => 1e-3 + mix.below(10.0),
                1 => mix.below(8.0),
                2 => f64::from_bits(mix.next() >> 1),
                _ => [1.0, 0.3, 2.5, 2e-9, 2.000_000_1e-9, 1.9e-9, 1e-9, 1e300][i / 4 % 8],
            };
            if y > 0.0 && !y.is_nan() {
                y
            } else {
                1.0
            }
        }
        let mut mix = Mix(0xd1);
        let check = |x: f64, y: f64| {
            let tol = EPS / y;
            assert_eq!(
                ceil_div_with(x, y, tol),
                reference(x, y, tol),
                "ceil_div_with({x:e}, {y:e})"
            );
        };
        for (i, x) in rounding_inputs(200_000).into_iter().enumerate() {
            check(x, divisor(&mut mix, i));
        }
        // Numerators on and just off a multiple, inside and outside the
        // snapping tolerance.
        for i in 0..500_000 {
            let y = divisor(&mut mix, i);
            let k = (mix.next() % 100_000) as f64;
            for d in [0.0, 1e-12, -1e-12, 5e-10, -5e-10] {
                check(k * y + d, y);
            }
        }
        // Ratios just below `2⁵²`, whose nearest integer may be `2⁵²`.
        for x in [
            TWO_52 - 1.0,
            TWO_52 - 0.75,
            TWO_52 - 0.5,
            TWO_52.next_down(),
        ] {
            check(x, 1.0);
        }
    }

    #[test]
    fn ceil_div_scales_with_divisor() {
        assert_eq!(ceil_div(10.0, 2.5), 4);
        assert_eq!(ceil_div(10.1, 2.5), 5);
    }

    #[test]
    fn group_step_matches_the_paper_cases() {
        // Same group: plain addition.
        assert_eq!(group_step(1.0, 0.5, 2.0), 1.5);
        // Boundary crossed: snap to the window, then add.
        assert_eq!(group_step(1.5, 1.0, 2.0), 3.0);
        // Zero load is the identity.
        assert_eq!(group_step(3.7, 0.0, 2.0), 3.7);
        // An exact multiple of the period stays in its group.
        assert_eq!(group_step(2.0, 0.5, 2.0), 2.5);
        assert_eq!(group_step(2.0 + 1e-12, 0.5, 2.0), 2.5);
    }

    #[test]
    fn group_step_delay_counts_groups_via_ceil_div() {
        // Invariant tying the two sides of the planner together: after
        // folding loads back-to-front, ⌈delay/t⌉ equals the number of
        // greedy groups the same loads pack into — including loads that
        // land exactly on multiples of t.
        let t = 4.0;
        for loads in [
            vec![4.0, 4.0, 4.0],      // exact multiples: one group each
            vec![2.0, 2.0, 2.0, 2.0], // pairs fill a window exactly
            vec![3.0, 1.0, 2.0, 2.0], // mixed, boundary-exact
            vec![2.5, 2.5, 2.5],      // never exact
        ] {
            let mut delay = 0.0;
            let mut greedy_groups = 0u64;
            let mut acc = 0.0;
            for &y in loads.iter().rev() {
                delay = group_step(delay, y, t);
                if acc > 0.0 && acc + y > t + EPS {
                    greedy_groups += 1;
                    acc = 0.0;
                }
                acc += y;
            }
            if acc > 0.0 {
                greedy_groups += 1;
            }
            assert_eq!(
                ceil_div(delay, t),
                greedy_groups,
                "loads {loads:?}: delay {delay} vs greedy {greedy_groups}"
            );
        }
    }
}
