//! Modular occupancy timeline of one resource.
//!
//! A [`Timeline`] tracks the busy intervals of one resource within the
//! period `[0, T)` and answers the core scheduling query: *the earliest
//! absolute time `z ≥ ready` whose modular interval `[z mod T, z mod T + d)`
//! is free*. Occupied intervals never overlap (the placer only inserts
//! what `earliest_fit` or `latest_fit` returned), so free time forms
//! circular gaps.
//!
//! The placer backtracks by undoing: [`Timeline::remove`] frees exactly
//! the segments the matching [`Timeline::insert`] marked busy. Segments
//! are kept sorted by `(start, end)`, a canonical order, so the busy
//! list after any sequence of inserts and removes is bit-identical to
//! the list built by inserting only the ops still present. The DFS
//! undoes last in, first out, so it takes an op out by the positions
//! its insert returned ([`Timeline::undo`]) instead of searching for
//! its segments again.

use madpipe_model::util::{floor, EPS};

/// Busy/free bookkeeping of one resource over the cyclic period.
#[derive(Debug, Clone)]
pub struct Timeline {
    period: f64,
    /// Sorted, non-overlapping busy segments within `[0, T)`; an op
    /// wrapping the period boundary contributes two segments.
    busy: Vec<(f64, f64)>,
}

/// Where [`Timeline::insert`] put an op's busy segments, in the order it
/// inserted them: none for an op of length at most EPS, two for an op
/// that wraps past `T` (its head, then its tail at `[0, …)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placed {
    at: [usize; 2],
    len: usize,
}

impl Timeline {
    /// Empty timeline of period `T`.
    pub fn new(period: f64) -> Self {
        Self {
            period,
            busy: Vec::new(),
        }
    }

    /// Total busy time.
    pub fn load(&self) -> f64 {
        self.busy.iter().map(|(s, e)| e - s).sum()
    }

    /// Whether some ready time gets a slot for an op of length `d`:
    /// false exactly when [`Self::earliest_fit`] answers `None` without
    /// looking at the ready time, because `d` exceeds the period or,
    /// on a non-empty timeline, every gap fails its length test.
    pub fn has_slot(&self, d: f64) -> bool {
        if d <= EPS {
            return true;
        }
        if d > self.period + EPS {
            return false;
        }
        self.busy.is_empty() || self.gaps().any(|(gs, ge)| ge - gs + EPS >= d)
    }

    /// Earliest absolute `z ≥ ready` such that the (possibly wrapping)
    /// modular interval of length `d` starting at `z mod T` is free.
    /// Returns `None` when no gap of length `d` exists.
    pub fn earliest_fit(&self, ready: f64, d: f64) -> Option<f64> {
        let t = self.period;
        if d <= EPS {
            return Some(ready);
        }
        if d > t + EPS {
            return None;
        }
        if self.busy.is_empty() {
            return Some(ready);
        }
        let rp = modp(ready, t);
        let rbase = ready - rp;
        let mut best: Option<f64> = None;
        for (gs, ge) in self.gaps() {
            if ge - gs + EPS < d {
                continue;
            }
            // Allowed phases: φ ∈ [gs, ge - d] (φ taken in [0, 2T)).
            for lap in 0..3 {
                let z0 = rbase + (lap as f64 - 1.0) * t;
                let lo = z0 + gs;
                let hi = z0 + ge - d;
                let cand = if ready > lo { ready } else { lo };
                if cand <= hi + EPS && cand + EPS >= ready {
                    best = Some(best.map_or(cand, |b: f64| b.min(cand)));
                    break;
                }
            }
        }
        best
    }

    /// Fill `out` with up to `out.len()` distinct feasible absolute times
    /// `≥ ready` for an op of length `d`, smallest first, and return how
    /// many it wrote. The first is [`Self::earliest_fit`]`(ready, d)`;
    /// each later one is the earliest fit at least `max(d, EPS) + 2·EPS`
    /// past the one before. So a circular gap longer than `2d` yields
    /// several candidates one op length apart, not one, before the scan
    /// moves on to the next gap or lap. Used by the placer to branch.
    pub fn candidate_fits(&self, ready: f64, d: f64, out: &mut [f64]) -> usize {
        let Some(first) = self.earliest_fit(ready, d) else {
            return 0;
        };
        let Some(slot) = out.first_mut() else {
            return 0;
        };
        *slot = first;
        // Subsequent candidates: restart the query just past each found
        // slot; the `d + EPS*2` offset guarantees progress, to a later
        // slot of the same gap, another gap or another lap.
        let mut found = 1;
        let mut probe = first;
        while found < out.len() {
            let Some(next) = self.earliest_fit(probe + d.max(EPS) + 2.0 * EPS, d) else {
                break;
            };
            if next <= probe + EPS {
                break;
            }
            out[found] = next;
            found += 1;
            probe = next;
            // Avoid unbounded lap enumeration on an empty resource.
            if self.busy.is_empty() {
                break;
            }
        }
        found
    }

    /// Latest absolute `z ∈ [lo, hi]` whose modular interval of length
    /// `d` is free. Returns `None` when no such placement exists.
    pub fn latest_fit(&self, lo: f64, hi: f64, d: f64) -> Option<f64> {
        let t = self.period;
        if hi < lo - EPS {
            return None;
        }
        if d <= EPS {
            return Some(hi);
        }
        if d > t + EPS {
            return None;
        }
        if self.busy.is_empty() {
            return Some(hi);
        }
        let hp = modp(hi, t);
        let hbase = hi - hp;
        let mut best: Option<f64> = None;
        for (gs, ge) in self.gaps() {
            if ge - gs + EPS < d {
                continue;
            }
            // Allowed phases: φ ∈ [gs, ge − d]; try laps around hi, from
            // the latest downwards.
            for lap in (0..3).rev() {
                let z0 = hbase + (lap as f64 - 1.0) * t;
                let lo_cand = z0 + gs;
                let hi_cand = z0 + ge - d;
                let cand = if hi < hi_cand { hi } else { hi_cand };
                if cand + EPS >= lo_cand && cand + EPS >= lo && cand <= hi + EPS {
                    best = Some(best.map_or(cand, |b: f64| b.max(cand)));
                    break;
                }
            }
        }
        best
    }

    /// Mark `[z mod T, z mod T + d)` busy and return where its segments
    /// went. The interval must be free up to EPS, as it is when `z` came
    /// from [`Timeline::earliest_fit`] or [`Timeline::latest_fit`]
    /// (debug-asserted).
    pub fn insert(&mut self, z: f64, d: f64) -> Placed {
        let mut placed = Placed { at: [0; 2], len: 0 };
        for (s, e) in segments(self.period, z, d) {
            debug_assert!(
                self.busy
                    .iter()
                    .all(|&(bs, be)| e <= bs + EPS || be <= s + EPS),
                "segment [{s}, {e}) overlaps existing busy time"
            );
            let idx = self.busy.partition_point(|&seg| seg < (s, e));
            self.busy.insert(idx, (s, e));
            placed.at[placed.len] = idx;
            placed.len += 1;
        }
        placed
    }

    /// Undo `insert(z, d)`, which returned `placed`, by position: the
    /// segments go in reverse order, a wrapping op's tail first. Only
    /// last in, first out: everything inserted or removed since must be
    /// undone, so the busy list is bit for bit the one that insert left
    /// (debug builds check each segment against `z` and `d`).
    pub fn undo(&mut self, placed: Placed, z: f64, d: f64) {
        debug_assert_eq!(segments(self.period, z, d).count(), placed.len);
        for (k, &at) in placed.at[..placed.len].iter().enumerate().rev() {
            let seg = self.busy.remove(at);
            debug_assert!(
                segments(self.period, z, d).nth(k) == Some(seg),
                "segment {seg:?} at {at} is not one of op ({z}, {d})'s"
            );
        }
    }

    /// Free exactly the segments `insert(z, d)` marked busy, wherever
    /// they sit now: unlike [`Self::undo`], in any order, which
    /// compaction needs. Panics if they are not busy.
    pub fn remove(&mut self, z: f64, d: f64) {
        for seg in segments(self.period, z, d) {
            let idx = self.busy.partition_point(|&b| b < seg);
            assert!(
                self.busy.get(idx) == Some(&seg),
                "segment {seg:?} was never inserted"
            );
            self.busy.remove(idx);
        }
    }

    /// Circular gaps between consecutive busy segments; the gap after
    /// the last segment wraps to the first segment of the next lap, so
    /// its end may exceed `T`. Requires a non-empty timeline.
    fn gaps(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let last = self.busy[self.busy.len() - 1].1;
        let first = self.busy[0].0;
        self.busy
            .windows(2)
            .map(|w| (w[0].1, w[1].0))
            .chain(std::iter::once((last, first + self.period)))
    }
}

/// The busy segments of an op of length `d` at absolute time `z`:
/// `[z mod T, z mod T + d)`, split in two when it wraps past `T`. Ops
/// of length at most EPS, and segments of at most EPS, occupy nothing.
fn segments(t: f64, z: f64, d: f64) -> impl Iterator<Item = (f64, f64)> {
    let phase = modp(z, t);
    let end = phase + d;
    let (head, tail) = if end <= t + EPS {
        ((phase, end.min(t)), None)
    } else {
        ((phase, t), Some((0.0, end - t)))
    };
    std::iter::once(head)
        .chain(tail)
        .filter(move |&(s, e)| d > EPS && e - s > EPS)
}

/// `x mod p` into `[0, p)`, robust to `x` within EPS of a multiple of `p`.
///
/// `⌊x/p⌋` divides. Taking it from a per-timeline reciprocal, as the
/// DP's quotients do (`madpipe_model::util::Divisor`), gives the same
/// bits but planned no faster (EXPERIMENTS.md, "Cold plans divide once
/// per divisor").
fn modp(x: f64, p: f64) -> f64 {
    let r = x - p * floor(x / p);
    if p - r <= EPS || r < 0.0 {
        0.0
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The busy list as raw bits, for bit-identity assertions.
    fn bits(tl: &Timeline) -> Vec<(u64, u64)> {
        tl.busy
            .iter()
            .map(|&(s, e)| (s.to_bits(), e.to_bits()))
            .collect()
    }

    #[test]
    fn empty_timeline_places_at_ready() {
        let tl = Timeline::new(10.0);
        assert_eq!(tl.earliest_fit(3.5, 2.0), Some(3.5));
        assert_eq!(tl.earliest_fit(3.5, 11.0), None);
    }

    #[test]
    fn fits_after_existing_segment() {
        let mut tl = Timeline::new(10.0);
        tl.insert(0.0, 4.0);
        // ready 1: phase 1 is busy until 4 → earliest 4
        assert_eq!(tl.earliest_fit(1.0, 3.0), Some(4.0));
        // fits exactly in the wrap gap [4, 10)
        assert_eq!(tl.earliest_fit(1.0, 6.0), Some(4.0));
        // too big for the gap
        assert_eq!(tl.earliest_fit(1.0, 7.0), None);
    }

    #[test]
    fn ready_inside_gap_is_kept() {
        let mut tl = Timeline::new(10.0);
        tl.insert(0.0, 2.0);
        tl.insert(8.0, 2.0);
        assert_eq!(tl.earliest_fit(3.0, 4.0), Some(3.0));
        // needs the next lap: gap [2,8) again at z=12
        assert_eq!(tl.earliest_fit(9.0, 4.0), Some(12.0));
    }

    #[test]
    fn wrap_gap_accepts_wrapping_ops() {
        let mut tl = Timeline::new(10.0);
        tl.insert(2.0, 4.0); // busy [2,6)
                             // gap is [6, 12): an op of 5 at phase 6 wraps to 1
        let z = tl.earliest_fit(6.0, 5.0).unwrap();
        assert_eq!(z, 6.0);
        tl.insert(z, 5.0);
        // now only [1,2) free
        assert_eq!(tl.earliest_fit(0.0, 1.0), Some(1.0));
        assert_eq!(tl.earliest_fit(0.0, 1.5), None);
    }

    #[test]
    fn insert_splits_wrapping_segments() {
        let mut tl = Timeline::new(10.0);
        tl.insert(8.0, 4.0); // [8,10) + [0,2)
        assert!((tl.load() - 4.0).abs() < 1e-9);
        assert_eq!(tl.earliest_fit(0.0, 6.0), Some(2.0));
    }

    #[test]
    fn zero_duration_ops_are_free() {
        let mut tl = Timeline::new(10.0);
        tl.insert(0.0, 10.0 - 1e-12);
        assert_eq!(tl.earliest_fit(5.0, 0.0), Some(5.0));
    }

    #[test]
    fn remove_undoes_a_non_wrapping_insert() {
        let mut tl = Timeline::new(10.0);
        tl.insert(6.0, 2.0);
        let before = bits(&tl);
        tl.insert(1.0, 4.0);
        assert_eq!(tl.earliest_fit(0.0, 4.0), None);
        tl.remove(1.0, 4.0);
        assert_eq!(bits(&tl), before);
        assert_eq!(tl.earliest_fit(0.0, 4.0), Some(0.0));
    }

    #[test]
    fn remove_undoes_a_wrapping_insert() {
        let mut tl = Timeline::new(10.0);
        tl.insert(3.0, 2.0);
        let before = bits(&tl);
        tl.insert(28.0, 4.0); // phase 8: busy [8, 10) and [0, 2)
        assert_eq!(tl.busy.len(), 3);
        assert!((tl.load() - 6.0).abs() < 1e-12);
        tl.remove(28.0, 4.0);
        assert_eq!(bits(&tl), before);
        // Zero-length ops occupy nothing, so removing one is a no-op.
        tl.insert(4.0, 0.0);
        tl.remove(4.0, 0.0);
        assert_eq!(bits(&tl), before);
    }

    #[test]
    #[should_panic(expected = "never inserted")]
    fn removing_a_free_interval_panics() {
        let mut tl = Timeline::new(10.0);
        tl.insert(0.0, 2.0);
        tl.remove(0.5, 2.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Insert the fits `earliest_fit` returns, then remove any
        /// subset in any order: the busy list is bit-identical to a
        /// timeline built by inserting only the ops that remain.
        #[test]
        fn removing_any_subset_in_any_order_leaves_exactly_the_rest(
            period in 0.5f64..20.0,
            ops in prop::collection::vec(
                (0.0f64..60.0, 0.0f64..1.0, prop::bool::ANY, any::<u64>()),
                1..12,
            ),
        ) {
            let mut tl = Timeline::new(period);
            let mut placed = Vec::new();
            for &(ready, frac, gone, key) in &ops {
                // Some zero-length ops, the rest up to a third of T.
                let d = if frac < 0.1 { 0.0 } else { frac * period / 3.0 };
                if let Some(z) = tl.earliest_fit(ready, d) {
                    tl.insert(z, d);
                    placed.push((z, d, gone, key));
                }
            }
            let mut removals: Vec<_> = placed.iter().filter(|p| p.2).collect();
            removals.sort_by_key(|p| p.3);
            for &&(z, d, _, _) in &removals {
                tl.remove(z, d);
            }
            let mut rest = Timeline::new(period);
            for &(z, d, gone, _) in &placed {
                if !gone {
                    rest.insert(z, d);
                }
            }
            prop_assert_eq!(bits(&tl), bits(&rest));

            // Then a last-in, first-out run on what is left, as the DFS
            // backtracks: insert each op again at its earliest fit (half
            // of them asked for a phase just before `T`, so they wrap),
            // undo some at once and the rest at the end, each by the
            // positions its insert returned. After every undo the busy
            // list is the one before the matching insert, bit for bit.
            let mut stack = Vec::new();
            for &(ready, frac, _, key) in &ops {
                let d = if frac < 0.1 { 0.0 } else { frac * period / 3.0 };
                let ready = if key & 1 == 1 {
                    ready - modp(ready, period) + period - d / 2.0
                } else {
                    ready
                };
                if let Some(z) = tl.earliest_fit(ready, d) {
                    let before = bits(&tl);
                    let placed = tl.insert(z, d);
                    stack.push((z, d, placed, before));
                }
                if key & 2 == 2 {
                    if let Some((z, d, placed, before)) = stack.pop() {
                        tl.undo(placed, z, d);
                        prop_assert_eq!(bits(&tl), before);
                    }
                }
            }
            while let Some((z, d, placed, before)) = stack.pop() {
                tl.undo(placed, z, d);
                prop_assert_eq!(bits(&tl), before);
            }
            prop_assert_eq!(bits(&tl), bits(&rest));
        }

        /// When `has_slot(d)` is false no ready time gets a slot:
        /// `earliest_fit` answers `None` and `candidate_fits` writes
        /// nothing. The lengths sit within 2·EPS of the longest gap and
        /// of the period, and at or below EPS; some timelines are empty.
        #[test]
        fn without_a_slot_no_ready_time_fits(
            period in 0.5f64..20.0,
            ops in prop::collection::vec((0.0f64..60.0, 0.0f64..1.0), 0..12),
            readies in prop::collection::vec(0.0f64..80.0, 1..8),
        ) {
            let mut tl = Timeline::new(period);
            for &(ready, frac) in &ops {
                let d = frac * period / 2.0;
                if let Some(z) = tl.earliest_fit(ready, d) {
                    tl.insert(z, d);
                }
            }
            let longest = if tl.busy.is_empty() {
                period
            } else {
                tl.gaps().map(|(gs, ge)| ge - gs).fold(0.0, f64::max)
            };
            let near = |x: f64| [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0].map(|k| x + k * EPS);
            let lengths = near(longest)
                .into_iter()
                .chain(near(period))
                .chain([0.0, EPS / 2.0, EPS]);
            for d in lengths.filter(|&d| !tl.has_slot(d)) {
                for &ready in &readies {
                    prop_assert_eq!(tl.earliest_fit(ready, d), None);
                    let mut out = [f64::NAN; 4];
                    prop_assert_eq!(tl.candidate_fits(ready, d, &mut out), 0);
                    prop_assert!(out.iter().all(|x| x.is_nan()));
                }
            }
        }
    }

    #[test]
    fn has_slot_compares_the_longest_gap_with_eps_slack() {
        let mut tl = Timeline::new(10.0);
        assert!(tl.has_slot(10.0 + EPS));
        assert!(!tl.has_slot(10.0 + 2.0 * EPS));
        tl.insert(2.0, 2.0);
        tl.insert(6.0, 2.0);
        // Gaps [4, 6) and the wrapping [8, 12): the longest is 4.
        assert!(tl.has_slot(4.0 + EPS));
        assert!(!tl.has_slot(4.0 + 2.0 * EPS));
        assert_eq!(tl.earliest_fit(0.0, 4.0 + 2.0 * EPS), None);
        tl.insert(4.0, 2.0);
        tl.insert(8.0, 4.0);
        // Full: only lengths of at most EPS fit.
        assert!(tl.has_slot(EPS));
        assert!(!tl.has_slot(2.0 * EPS));
    }

    #[test]
    fn undo_takes_a_wrapping_op_out_tail_first() {
        let mut tl = Timeline::new(10.0);
        tl.insert(3.0, 2.0);
        let empty = bits(&tl);
        // Phase 8: the head [8, 10) goes in after [3, 5), then the tail
        // [0, 2) in front of both.
        let wrapping = tl.insert(28.0, 4.0);
        assert_eq!(wrapping, Placed { at: [1, 0], len: 2 });
        let wrapped = bits(&tl);
        let inner = tl.insert(5.0, 1.0);
        assert_eq!(inner, Placed { at: [2, 0], len: 1 });
        assert_eq!(tl.insert(6.0, 0.0), Placed { at: [0, 0], len: 0 });
        tl.undo(Placed { at: [0, 0], len: 0 }, 6.0, 0.0);
        tl.undo(inner, 5.0, 1.0);
        assert_eq!(bits(&tl), wrapped);
        tl.undo(wrapping, 28.0, 4.0);
        assert_eq!(bits(&tl), empty);
    }

    #[test]
    fn candidates_fill_the_slice_smallest_first() {
        let mut tl = Timeline::new(10.0);
        tl.insert(2.0, 2.0);
        tl.insert(6.0, 2.0);
        // Free [4, 6) and the wrapping [8, 12): each gap once, then the
        // next laps.
        let mut out = [f64::NAN; 5];
        assert_eq!(tl.candidate_fits(0.0, 2.0, &mut out), 5);
        assert_eq!(out, [0.0, 4.0, 8.0, 14.0, 18.0]);
        let mut two = [f64::NAN; 2];
        assert_eq!(tl.candidate_fits(0.0, 2.0, &mut two), 2);
        assert_eq!(two, [0.0, 4.0]);
        assert_eq!(tl.candidate_fits(0.0, 2.0, &mut []), 0);
        // No gap is long enough.
        assert_eq!(tl.candidate_fits(0.0, 4.5, &mut out), 0);
    }

    /// A gap that passes the length test only within rounding: `d` is the
    /// gap plus EPS, and the lap test compares `z0 + gs` with `z0 + ge −
    /// d + EPS` at the ready time's magnitude, so whether the op fits
    /// depends on how many periods away the ready time is. `has_slot`
    /// says a slot exists; at this ready time `earliest_fit` finds none,
    /// and at the same phase it finds one in 37 of the first 64 laps.
    /// No plan of the paper cells and no budgeted search of the golden
    /// family reaches such a gap (EXPERIMENTS.md, "Cold plans divide once
    /// per divisor"); this pins the boundary so a fix changes it on
    /// purpose.
    #[test]
    fn a_gap_that_fits_only_within_rounding_depends_on_the_lap() {
        let t = 2.707_888_293_434_503_4;
        let mut tl = Timeline::new(t);
        tl.busy
            .push((0.603_738_750_007_934_8, 1.335_096_695_682_262));
        let d = 1.976_530_348_760_176_2;
        let ready = 44.443_025_159_700_376;
        assert!(tl.has_slot(d));
        assert_eq!(tl.earliest_fit(ready, d), None);
        let phase = modp(ready, t);
        let fits: Vec<bool> = (0..64)
            .map(|lap| tl.earliest_fit(phase + lap as f64 * t, d).is_some())
            .collect();
        assert!(fits[0], "lap 0 finds the slot");
        assert_eq!(fits.iter().filter(|&&f| f).count(), 37);
    }

    #[test]
    fn a_long_gap_yields_a_candidate_per_op_length() {
        let mut tl = Timeline::new(10.0);
        tl.insert(2.0, 2.0);
        tl.insert(6.0, 2.0);
        // Free [0, 2), [4, 6) and the wrapping [8, 12). With d = 1 the
        // wrapping gap gives three candidates, each `d + 2·EPS` past the
        // one before.
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut five = [f64::NAN; 5];
        assert_eq!(tl.candidate_fits(1.0, 1.0, &mut five), 5);
        assert_eq!(
            bits(&five),
            bits(&[1.0, 4.0, 8.0, 9.000000002, 10.000000004])
        );
        let mut four = [f64::NAN; 4];
        assert_eq!(tl.candidate_fits(1.0, 1.0, &mut four), 4);
        assert_eq!(bits(&four), bits(&five[..4]));
    }

    #[test]
    fn ready_far_in_the_future_lands_on_same_phases() {
        let mut tl = Timeline::new(10.0);
        tl.insert(0.0, 9.0);
        // only [9,10) free; ready = 35.5 (phase 5.5) → next free phase 9 → z = 39
        assert_eq!(tl.earliest_fit(35.5, 1.0), Some(39.0));
    }
}
