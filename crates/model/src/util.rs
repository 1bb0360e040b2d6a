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
//! paths round with [`floor`] and [`Divisor`]'s quotients, which handle
//! the values the planner sees, non-negative and below `2⁵²`, with one
//! add and one subtract of `2⁵²`, exactly, and give every other input to
//! std. They return std's answer on every input. Display code (gantt
//! charts, histograms) keeps std's methods.
//!
//! # Quotients without division
//!
//! The DP's roundings round a quotient: `⌈x/T̂⌉` on every transition and
//! floor fill, `⌈(x/step)·(1 − 10⁻⁹)⌉` on every grid round-up. An `f64`
//! division costs several times a multiplication, and each of these
//! divides by one value many times. A [`Divisor`] holds `y`, `1/y` and
//! the snapping tolerance `EPS / y`, computed once (per solve for `T̂`,
//! per axis for the grid step), and takes the integer from the product
//! `p = x·RN(1/y)` where that provably gives the division's integer,
//! dividing otherwise.
//!
//! Let `u = 2⁻⁵³`. For normal operands, `RN(1/y)` and the product each
//! round once, and so does `q = RN(x/y)`: `|p − q| ≤ (3u + u²)/(1 − u)²
//! · p < 3.0001·u·p`. With a scale `s ∈ [1/2, 1]`, `x·RN(RN(1/y)·s)`
//! against `RN(RN(x/y)·s)` rounds twice more, so `5.0002·u`. Each integer
//! changes only at isolated points of its quotient:
//!
//! * [`Divisor::ceil_div`] (`⌈x/y⌉` with [`ceil_div`]'s snapping) is `n +
//!   [q − n > tol]` for the integer `n` nearest `q`, so it changes only at
//!   `q = m + tol`, `m` an integer;
//! * [`Divisor::ceil_div_scaled`] (`⌈(x/y)·s⌉`) changes only at integers.
//!
//! Each takes the product's integer when `p` lies more than `2⁻⁵⁰·p =
//! 8u·p` from the nearest such point, measured from an exact difference
//! (`p` minus its nearest integer) with at most one more rounding
//! (relative `u`). That margin exceeds `|p − q|`, so `q` lies strictly
//! on `p`'s side of that point. Every other point is at least `1/2 −
//! tol ≥ 3/8` away, and below `p < 2⁴⁸` the two are less than `5.0002·u
//! ·2⁴⁸ < 0.16` apart. So the integer is the one the division gives, on
//! every input. Outside the proof's range (`p ∉ [2⁻⁹⁶⁹, 2⁴⁸)`, which
//! covers `q ≤ 0`, NaN, `±∞` and quotients near `10¹⁵`; `1/y` below
//! `2⁻⁹⁰⁰` or not finite; `y < 8·EPS`, where `tol > 1/8`) and within the
//! margin, the helper runs its division path: the code that ran before
//! the reciprocal, kept out of line. The differentials in this module's
//! and `madpipe-core`'s `discrete` tests compare the two on millions of
//! inputs, most of them within 8 ulps of a change point.
//!
//! Phase 2's fold into the period, `⌊x/T⌋` in the timeline's `modp`,
//! still divides: a reciprocal there was exact too, but planned no
//! faster.

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

/// [`ceil_div`] with its snapping tolerance `tol = EPS / y` given: the
/// division path of [`Divisor::ceil_div`].
///
/// For `q = x / y` in `[0, 2⁵²)` and `tol < 1/2` (any `y > 2·EPS`) it
/// takes the nearest integer `n` without libm: `n` when `|q − n| ≤ tol`
/// (then `n` is also `q.round()`, `q` being no tie) or `n ≥ q` (then `n`
/// is `q.ceil()`, as `n − q ≤ 1/2`), else `n + 1` (`q.ceil()` again).
/// That is the round-then-ceil below, which every other input takes.
#[inline]
fn ceil_div_with(x: f64, y: f64, tol: f64) -> u64 {
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
///
/// Every quotient here divides; [`Divisor::group_step`] is the same
/// step with the reciprocal's quotients, bit for bit.
#[inline]
pub fn group_step(x: f64, y: f64, t: f64) -> f64 {
    Divisor::dividing(t).group_step(x, y)
}

/// `2⁻⁵⁰`: the margin, relative to a product, beyond which the
/// division's quotient rounds to the product's integer (module docs,
/// "Quotients without division").
const MARGIN: f64 = f64::from_bits((1023 - 50) << 52);

/// The products the reciprocal path takes: `[2⁻⁹⁶⁹, 2⁴⁸)`. Above the
/// lower end a product, the quotient and the margin `2⁻⁵⁰·p` are normal
/// doubles, so each rounding is relative; below the upper end the product
/// and the quotient are less than `1/4` apart, closer than any change
/// point but the nearest.
const PRODUCT_MIN: f64 = f64::from_bits((1023 - 969) << 52);
const PRODUCT_MAX: f64 = f64::from_bits((1023 + 48) << 52);

/// The least reciprocal the proof takes: with it, every [`Divisor::ceil_div`]
/// product (`x > EPS`) is at least [`PRODUCT_MIN`].
const INV_MIN: f64 = f64::from_bits((1023 - 900) << 52);

/// A positive divisor with its reciprocal and [`ceil_div`]'s snapping
/// tolerance, computed once for many quotients by it. Each quotient
/// method returns, on every input, what its division path (the same code
/// with `x / y`) returns; see the module docs, "Quotients without
/// division".
#[derive(Debug, Clone, Copy)]
pub struct Divisor {
    y: f64,
    /// `1/y`, or NaN where the proof does not cover the reciprocal (`1/y`
    /// below `2⁻⁹⁰⁰`, infinite or NaN, or `tol > 1/8`): a NaN product
    /// fails the range test, so every quotient then divides.
    inv: f64,
    /// `EPS / y`.
    tol: f64,
}

impl Divisor {
    /// The divisor `y` (positive for [`Self::ceil_div`] and
    /// [`Self::group_step`]).
    pub fn new(y: f64) -> Self {
        let inv = 1.0 / y;
        let tol = EPS / y;
        let proven = (INV_MIN..f64::INFINITY).contains(&inv) && tol <= 0.125;
        Self {
            y,
            inv: if proven { inv } else { f64::NAN },
            tol,
        }
    }

    /// The divisor `y` without its reciprocal: every quotient divides.
    /// The reference the reciprocal's quotients are checked against.
    fn dividing(y: f64) -> Self {
        Self {
            y,
            inv: f64::NAN,
            tol: EPS / y,
        }
    }

    /// The divisor itself.
    #[inline]
    pub fn get(&self) -> f64 {
        self.y
    }

    /// [`ceil_div`]`(x, y)`: `⌈x/y⌉` snapped onto an integer within
    /// `EPS / y`. The product's answer is `n + [d > tol]` for its nearest
    /// integer `n` and `d = p − n` (exact); it is taken when `|d − tol|`
    /// exceeds the margin.
    #[inline]
    pub fn ceil_div(&self, x: f64) -> u64 {
        if x <= EPS {
            return 0;
        }
        // `p ≥ PRODUCT_MIN` by the reciprocal's floor, so only the top
        // of the range (and a NaN `inv`) needs a test.
        let p = x * self.inv;
        if p < PRODUCT_MAX {
            let (n, whole) = nearest_below_2_52(p);
            let off = (p - n) - self.tol;
            if off.abs() > p * MARGIN {
                return whole + (off > 0.0) as u64;
            }
        }
        self.divide(|d| ceil_div_with(x, d.y, d.tol))
    }

    /// `((x / y) * s).ceil()`, bit for bit, for a scale `s` in `[1/2,
    /// 1]` (the grid round-up's guard). The product is `x·RN(RN(1/y)·s)`,
    /// one multiplication after `x` is known.
    #[inline]
    pub fn ceil_div_scaled(&self, x: f64, s: f64) -> f64 {
        debug_assert!((0.5..=1.0).contains(&s), "scale {s} outside [1/2, 1]");
        match interior_floor(x * (self.inv * s)) {
            Some(n) => n + 1.0,
            None => self.divide(|d| {
                let q = (x / d.y) * s;
                let below = floor(q);
                if below < q {
                    below + 1.0
                } else {
                    below
                }
            }),
        }
    }

    /// The division path, kept out of line: the callers' loops run the
    /// product path nearly always.
    #[cold]
    #[inline(never)]
    fn divide<R>(&self, path: impl FnOnce(&Self) -> R) -> R {
        path(self)
    }

    /// [`group_step`]`(x, load, y)`, bit for bit.
    #[inline]
    pub fn group_step(&self, x: f64, load: f64) -> f64 {
        debug_assert!(self.y > 0.0, "group_step requires a positive target period");
        debug_assert!(x >= 0.0 && load >= 0.0);
        if load == 0.0 {
            return x;
        }
        let gx = self.ceil_div(x);
        let gxy = self.ceil_div(x + load);
        if gx == gxy {
            x + load
        } else {
            self.y * gx as f64 + load
        }
    }
}

/// `⌊v⌋` for a product `v` in the proven range that lies more than the
/// margin from its nearest integer `n` (`v − n` is exact): then the
/// quotient it stands for lies on `v`'s side of `n`, and the other
/// integers are at least `1/2` away, so the quotient's floor is `⌊v⌋` and
/// its ceiling `⌊v⌋ + 1`. `None` otherwise (NaN included).
#[inline]
fn interior_floor(v: f64) -> Option<f64> {
    if !(PRODUCT_MIN..PRODUCT_MAX).contains(&v) {
        return None;
    }
    let (near, _) = nearest_below_2_52(v);
    let d = v - near;
    if d.abs() > v * MARGIN {
        Some(if d < 0.0 { near - 1.0 } else { near })
    } else {
        None
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

    /// Divisors for the reciprocal differentials: the planner's `T̂`
    /// range, uniform in `(0, 8)`, any positive double, and the edges:
    /// around `8·EPS`, where the reciprocal path starts, subnormal and
    /// huge divisors, and `+∞`.
    fn reciprocal_divisor(mix: &mut Mix, i: usize) -> f64 {
        const EDGES: [f64; 13] = [
            1.0,
            0.3,
            2.5,
            8e-9,
            8.000_000_1e-9,
            7.9e-9,
            1e-9,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            1e-310,
            5e-324,
            f64::INFINITY,
        ];
        let y = match i % 4 {
            0 => 1e-3 + mix.below(10.0),
            1 => mix.below(8.0),
            2 => f64::from_bits(mix.next() >> 1),
            _ => EDGES[i / 4 % EDGES.len()],
        };
        if y > 0.0 {
            y
        } else {
            1.0
        }
    }

    /// A quotient: small, mid-range, any integer below `2⁵³`, or one
    /// near `10¹⁵` and `2⁵⁰`, where the reciprocal path ends.
    fn reciprocal_quotient(mix: &mut Mix) -> f64 {
        match mix.next() % 5 {
            0 => (mix.next() % 100) as f64,
            1 => (mix.next() % 1_000_000) as f64,
            2 => (mix.next() >> 11) as f64,
            3 => 1e15 + (mix.next() % 5) as f64 - 2.0,
            _ => (1u64 << 50) as f64 + (mix.next() % 5) as f64 - 2.0,
        }
    }

    /// `x` moved by `k` ulps (down for negative `k`).
    fn ulps(mut x: f64, k: i32) -> f64 {
        for _ in 0..k.unsigned_abs() {
            x = if k < 0 { x.next_down() } else { x.next_up() };
        }
        x
    }

    /// The numerators that straddle the points where `⌈x/y⌉` changes:
    /// `m·y` and `(m + tol)·y`, each within 8 ulps either side.
    fn near_change_points(y: f64, m: f64) -> impl Iterator<Item = f64> {
        let tol = EPS / y;
        [m * y, (m + tol) * y]
            .into_iter()
            .flat_map(|x| (-8..=8).map(move |k| ulps(x, k)))
    }

    /// The inputs on which the reciprocal path must not run the
    /// product's integer: at or below `EPS`, signed zeros, negatives,
    /// NaNs and infinities.
    const OUTSIDE: [f64; 11] = [
        EPS,
        f64::from_bits(EPS.to_bits() + 1),
        f64::from_bits(EPS.to_bits() - 1),
        0.0,
        -0.0,
        -1.0,
        -1e300,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    #[test]
    fn reciprocal_ceil_div_matches_the_division_on_every_input() {
        let mut mix = Mix(0x7ec1);
        let mut inputs = 0usize;
        let mut check = |x: f64, y: f64| {
            inputs += 1;
            assert_eq!(
                Divisor::new(y).ceil_div(x),
                ceil_div_with(x, y, EPS / y),
                "ceil_div({x:e}, {y:e})"
            );
        };
        for (i, x) in rounding_inputs(100_000).into_iter().enumerate() {
            check(x, reciprocal_divisor(&mut mix, i));
        }
        for i in 0..100_000 {
            let y = reciprocal_divisor(&mut mix, i);
            let m = reciprocal_quotient(&mut mix);
            for x in near_change_points(y, m) {
                check(x, y);
            }
            check(OUTSIDE[i % OUTSIDE.len()], y);
        }
        assert!(inputs >= 3_000_000, "{inputs} inputs");
    }

    #[test]
    fn reciprocal_group_step_matches_the_division_on_every_input() {
        let mut mix = Mix(0x6e0);
        let mut inputs = 0usize;
        let mut check = |x: f64, load: f64, t: f64| {
            inputs += 1;
            let (got, want) = (Divisor::new(t).group_step(x, load), group_step(x, load, t));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "group_step({x:e}, {load:e}, {t:e})"
            );
        };
        for i in 0..90_000 {
            let t = reciprocal_divisor(&mut mix, i);
            let m = reciprocal_quotient(&mut mix);
            // A delay on or next to a change point, and loads that are
            // zero, arbitrary, or land the sum on or next to one.
            let m2 = m + (mix.next() % 3) as f64;
            for x in near_change_points(t, m) {
                let load = match mix.next() % 4 {
                    0 => 0.0,
                    1 => mix.below(3.0) * t,
                    _ => {
                        let k = (mix.next() % 17) as i32 - 8;
                        let to = if mix.next() & 1 == 0 {
                            m2
                        } else {
                            m2 + EPS / t
                        };
                        ulps((to * t - x).max(0.0), k).max(0.0)
                    }
                };
                check(x.max(0.0), load, t);
                check(load, x.max(0.0), t);
            }
        }
        for x in [0.0, -0.0, EPS, 1.0, 1e300, f64::INFINITY] {
            for load in [0.0, -0.0, EPS, 0.5, 1e300, f64::INFINITY] {
                for t in [1.0, 0.3, 1e-9, 1e300, 5e-324, f64::INFINITY] {
                    check(x, load, t);
                }
            }
        }
        assert!(inputs >= 3_000_000, "{inputs} inputs");
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
