//! Floating-point comparison helpers.
//!
//! Periods, start times and durations are `f64` seconds; schedule
//! feasibility checks compare sums of such values and must tolerate
//! rounding noise. All crates in the workspace use the helpers below with
//! the shared [`EPS`] so that "fits within the period" means the same
//! thing everywhere.

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
#[inline]
pub fn ceil_div_with(x: f64, y: f64, tol: f64) -> u64 {
    debug_assert!(y > 0.0, "ceil_div requires a positive divisor");
    debug_assert_eq!(tol.to_bits(), (EPS / y).to_bits(), "tol is EPS / y");
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

#[cfg(test)]
mod tests {
    use super::*;

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
