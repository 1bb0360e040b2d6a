//! Topological placement with bounded backtracking. The crate
//! documentation says where its time goes and how a node stays cheap.

use std::ops::Range;

use madpipe_model::util::{floor, EPS};
use madpipe_model::{Allocation, Chain, Platform, UnitSequence};
use madpipe_schedule::{Checker, Dir, Op, Pattern, ScheduleError};

use crate::timeline::Timeline;

/// Tuning of the branch-and-bound placement.
#[derive(Debug, Clone, Copy)]
pub struct PlaceConfig {
    /// Maximum number of DFS nodes explored before giving up on a period.
    pub node_budget: usize,
    /// Maximum number of alternative slots tried per operation.
    pub max_alternatives: usize,
    /// Enable the Figure-5 memory compaction pass when a leaf fails only
    /// on memory (disable to measure its contribution).
    pub compaction: bool,
}

impl Default for PlaceConfig {
    fn default() -> Self {
        Self {
            node_budget: 4096,
            max_alternatives: 4,
            compaction: true,
        }
    }
}

/// Work counters of [`schedule_at_period`] calls, summed over calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaceStats {
    /// Placement calls.
    pub calls: u64,
    /// Calls that found no pattern with the node budget used up.
    pub exhausted: u64,
    /// Calls the memory floor answered before any node.
    pub floored: u64,
    /// DFS nodes entered within budget.
    pub nodes: u64,
    /// Nodes with every op placed.
    pub leaves: u64,
    /// Leaves the leaf floor ([`Checker::leaf_exceeds`]) answered
    /// without the checker or compaction.
    pub leaves_floored: u64,
}

impl PlaceStats {
    /// Fold another set of counters into this one.
    pub fn merge(&mut self, other: &PlaceStats) {
        self.calls += other.calls;
        self.exhausted += other.exhausted;
        self.floored += other.floored;
        self.nodes += other.nodes;
        self.leaves += other.leaves;
        self.leaves_floored += other.leaves_floored;
    }
}

/// Attempt to build a valid pattern of period `period` for `alloc`,
/// adding the call's work to `stats`.
///
/// Operations are placed in topological order; each op is offered the
/// earliest feasible modular slots on its resource, at most
/// [`PlaceConfig::max_alternatives`] of them ([`Timeline::candidate_fits`]:
/// a gap longer than twice the op yields several slots one op length
/// apart); a leaf is accepted iff the exact checker validates it
/// (including memory).
/// Each leaf first asks a memory floor ([`Checker::leaf_exceeds`]),
/// which answers most failing leaves without the checker or compaction
/// and never one they would accept; the node that places the last op
/// asks it for all of its leaves, and counts the floored ones in one
/// step.
///
/// Two prefilters answer before any node: a resource loaded beyond the
/// period, and a GPU whose memory floor ([`Checker::memory_floor`])
/// exceeds its memory. The search returns only checker-validated
/// patterns, compacted leaves included, so it would find none at such a
/// period anyway: the floor changes which calls search, not what any
/// call returns.
pub fn schedule_at_period(
    chain: &Chain,
    platform: &Platform,
    alloc: &Allocation,
    seq: &UnitSequence,
    period: f64,
    cfg: &PlaceConfig,
    stats: &mut PlaceStats,
) -> Option<Pattern> {
    stats.calls += 1;
    let n = seq.len();
    if n == 0 || !period.is_finite() || period <= 0.0 {
        return None;
    }

    // Topological op order: all forwards in chain order, then all
    // backwards in reverse chain order. `order[i] = (unit, dir)`.
    let mut order = Vec::with_capacity(2 * n);
    for u in 0..n {
        order.push((u, Dir::Forward));
    }
    for u in (0..n).rev() {
        order.push((u, Dir::Backward));
    }
    let checker = Checker::new(chain, platform, alloc, seq, &order);

    // Quick resource-load prefilter.
    let mut loads = vec![0.0; checker.n_resources()];
    for (u, unit) in seq.units().iter().enumerate() {
        loads[checker.resource_id(u)] += unit.total_time();
    }
    if loads.iter().any(|&l| l > period + EPS) {
        return None;
    }
    if checker
        .memory_floor(period)
        .any(|bytes| bytes > platform.memory_bytes)
    {
        stats.floored += 1;
        return None;
    }

    let ops: Vec<Op> = order
        .iter()
        .map(|&(unit, dir)| {
            let u = &seq.units()[unit];
            let duration = match dir {
                Dir::Forward => u.forward_time,
                Dir::Backward => u.backward_time,
            };
            Op {
                unit,
                dir,
                start: 0.0,
                duration,
                shift: 0,
                resource: u.resource,
            }
        })
        .collect();
    let width = cfg.max_alternatives.max(1);
    let mut dfs = Dfs {
        seq,
        period,
        cfg,
        resource: order.iter().map(|&(u, _)| checker.resource_id(u)).collect(),
        timelines: vec![Timeline::new(period); checker.n_resources()],
        checker,
        pattern: Pattern { period, ops },
        z: Vec::with_capacity(2 * n),
        zc: Vec::with_capacity(2 * n),
        gap: vec![0.0; n],
        width,
        candidates: vec![0.0; 2 * n * width],
        nodes: 0,
        leaves: 0,
        leaves_floored: 0,
    };
    let found = dfs.go(0);
    stats.nodes += dfs.nodes as u64;
    stats.leaves += dfs.leaves as u64;
    stats.leaves_floored += dfs.leaves_floored as u64;
    if found.is_none() && dfs.nodes >= cfg.node_budget {
        stats.exhausted += 1;
    }
    found
}

/// The search state of one [`schedule_at_period`] call. Everything
/// indexed by op is in topological order (`order` there).
struct Dfs<'a> {
    seq: &'a UnitSequence,
    period: f64,
    cfg: &'a PlaceConfig,
    checker: Checker<'a>,
    /// Dense resource id of each op.
    resource: Vec<usize>,
    /// Occupancy of each resource under the ops placed so far.
    timelines: Vec<Timeline>,
    /// The leaf pattern: units, directions, durations and resources are
    /// fixed; each check rewrites the starts and shifts.
    pattern: Pattern,
    /// Absolute times of the placed ops.
    z: Vec<f64>,
    /// Compaction's working copy of `z`.
    zc: Vec<f64>,
    /// The leaf floor's per-unit gaps.
    gap: Vec<f64>,
    /// Candidate slots per op: [`PlaceConfig::max_alternatives`], and at
    /// least one.
    width: usize,
    /// Each depth's candidates, in `width`-long slices indexed by op: a
    /// node fills its own slice, so no node allocates.
    candidates: Vec<f64>,
    nodes: usize,
    leaves: usize,
    leaves_floored: usize,
}

impl Dfs<'_> {
    /// Place ops from `idx` onward; `self.z` holds the absolute times of
    /// the ops placed before it, and the timelines hold exactly those
    /// ops. Both are restored before a failing return.
    fn go(&mut self, idx: usize) -> Option<Pattern> {
        if self.nodes >= self.cfg.node_budget {
            return None;
        }
        self.nodes += 1;
        let n_ops = self.pattern.ops.len();
        if idx == n_ops {
            // A leaf its parent's floor left open.
            self.leaves += 1;
            return self.check_leaf();
        }
        let d = self.pattern.ops[idx].duration;
        let ready = self.ready_time(idx);
        let r = self.resource[idx];
        let base = idx * self.width;
        let slots = &mut self.candidates[base..base + self.width];
        let cands = base..base + self.timelines[r].candidate_fits(ready, d, slots);
        if idx + 1 == n_ops {
            return self.leaves_at(cands);
        }
        for j in cands {
            if let Some(p) = self.descend(idx, self.candidates[j]) {
                return Some(p);
            }
        }
        None
    }

    /// Place op `idx` at `z`, search below it, and undo the placement
    /// unless the search found a pattern.
    fn descend(&mut self, idx: usize, z: f64) -> Option<Pattern> {
        let (r, d) = (self.resource[idx], self.pattern.ops[idx].duration);
        self.timelines[r].insert(z, d);
        self.z.push(z);
        let found = self.go(idx + 1);
        if found.is_none() {
            self.z.pop();
            self.timelines[r].remove(z, d);
        }
        found
    }

    /// The leaves below the node that places `B_0`, the last op, at the
    /// candidates `self.candidates[cands]`, smallest first.
    ///
    /// The leaf floor ([`Checker::leaf_exceeds`]) is asked once per
    /// sibling, with every gap but `B_0`'s computed once and the slack
    /// taken from the last candidate's end, the largest `scale` of any
    /// sibling: a larger `scale` only widens the slack, so the floor
    /// stays sound for every sibling. Only `B_0`'s gap moves, and it
    /// grows with the candidate, so the floor never falls along the
    /// siblings: the first floored sibling and every one after it are
    /// counted as nodes, leaves and floored leaves in one step, up to the
    /// node budget, where the search would stop. A sibling the floor
    /// leaves open is placed and checked.
    fn leaves_at(&mut self, cands: Range<usize>) -> Option<Pattern> {
        let b_0 = self.pattern.ops.len() - 1;
        let d = self.pattern.ops[b_0].duration;
        let scale = self.candidates[cands.clone()].last()? + d;
        let end_0 = self.fixed_gaps();
        for j in cands.clone() {
            let z = self.candidates[j];
            self.gap[0] = end_0.map_or(d, |end| z + d - end);
            if self.checker.leaf_exceeds(self.period, &self.gap, scale) {
                let reached = (cands.end - j).min(self.cfg.node_budget - self.nodes);
                self.nodes += reached;
                self.leaves += reached;
                self.leaves_floored += reached;
                if cfg!(debug_assertions) {
                    for j in j..j + reached {
                        self.audit_floored(self.candidates[j]);
                    }
                }
                return None;
            }
            if let Some(p) = self.descend(b_0, z) {
                return Some(p);
            }
        }
        None
    }

    /// Fill the leaf floor's gaps of `B_1 … B_{n−1}`, which do not depend
    /// on where `B_0` goes, and return `end_0`, the latest any compaction
    /// can finish `F_0`: `end` walks the packed bound down from the start
    /// of `B_{n−1}`. With one unit, `B_{n−1}` is `B_0` itself and there
    /// is no fixed `end_0`: `B_0`'s gap `z_{B_0} + b_0 − z_{B_0}` is `b_0`.
    fn fixed_gaps(&mut self) -> Option<f64> {
        let n = self.seq.len();
        if n == 1 {
            return None;
        }
        let ops = &self.pattern.ops;
        let mut end = self.z[n];
        for u in (1..n).rev() {
            let b = 2 * n - 1 - u; // op B_u
            self.gap[u] = self.z[b] + ops[b].duration - end;
            end -= ops[u].duration;
        }
        Some(end)
    }

    /// Debug builds' audit of a floored leaf, `B_0` at `z`: the checker
    /// and compaction must find nothing.
    fn audit_floored(&mut self, z: f64) {
        let b_0 = self.pattern.ops.len() - 1;
        let (r, d) = (self.resource[b_0], self.pattern.ops[b_0].duration);
        self.timelines[r].insert(z, d);
        self.z.push(z);
        debug_assert!(
            self.check_leaf().is_none(),
            "the leaf floor refuted a leaf the checker accepts"
        );
        self.z.pop();
        self.timelines[r].remove(z, d);
    }

    /// Dependency-ready time of op `idx` given the placed times.
    fn ready_time(&self, idx: usize) -> f64 {
        let n = self.seq.len();
        let z = &self.z;
        let op = &self.pattern.ops[idx];
        match op.dir {
            Dir::Forward => {
                if op.unit == 0 {
                    0.0
                } else {
                    // F_{unit-1} is op unit-1
                    z[op.unit - 1] + self.seq.units()[op.unit - 1].forward_time
                }
            }
            Dir::Backward => {
                if op.unit == n - 1 {
                    // after F_{n-1}
                    z[n - 1] + self.seq.units()[n - 1].forward_time
                } else {
                    // after B_{unit+1}, which is op n + (n-1-(unit+1))
                    let bidx = n + (n - 2 - op.unit);
                    z[bidx] + self.seq.units()[op.unit + 1].backward_time
                }
            }
        }
    }

    /// Check the leaf as placed; when memory, not structure, fails,
    /// stagger the forwards (Figure 5's best case) and retry.
    fn check_leaf(&mut self) -> Option<Pattern> {
        match self.check_at(false) {
            Ok(()) => Some(self.pattern.clone()),
            Err(ScheduleError::MemoryExceeded { .. }) if self.cfg.compaction => {
                self.compact_and_check()
            }
            Err(_) => None,
        }
    }

    /// Fold the absolute times (`zc` if `compacted`, else `z`) into the
    /// leaf pattern and run the checker on it.
    fn check_at(&mut self, compacted: bool) -> Result<(), ScheduleError> {
        let z = if compacted { &self.zc } else { &self.z };
        for (op, &zi) in self.pattern.ops.iter_mut().zip(z) {
            (op.start, op.shift) = fold(zi, self.period);
        }
        self.checker.check(&self.pattern).map(|_| ())
    }

    /// Memory compaction: push every forward op as late as its chain
    /// successors allow, into the latest free slot on its resource.
    /// Delaying a forward past a period boundary increases `κ_F` and
    /// so lowers the stage's live-batch count by one — this is the
    /// "backward right after forward" interleaving of Figure 5 that
    /// the paper's ILP exploits on the special processor.
    ///
    /// Each move takes the op out of its live timeline, asks for the
    /// latest fit and puts it back; every move is undone before return.
    fn compact_and_check(&mut self) -> Option<Pattern> {
        let n = self.seq.len();
        self.zc.clone_from(&self.z);
        let mut found = None;
        for _pass in 0..2 {
            let mut moved = false;
            for u in (0..n).rev() {
                // Op `u` is F_u; its successor is op `u + 1`: F_{u+1},
                // or B_{n-1} after the last forward.
                let d_f = self.pattern.ops[u].duration;
                let zc = &mut self.zc;
                let bound = zc[u + 1] - d_f;
                if bound <= zc[u] + EPS {
                    continue;
                }
                let tl = &mut self.timelines[self.resource[u]];
                tl.remove(zc[u], d_f);
                if let Some(znew) = tl.latest_fit(zc[u], bound, d_f) {
                    if znew > zc[u] + EPS {
                        zc[u] = znew;
                        moved = true;
                    }
                }
                tl.insert(zc[u], d_f);
            }
            if !moved {
                break;
            }
            if self.check_at(true).is_ok() {
                found = Some(self.pattern.clone());
                break;
            }
        }
        // Undo the moves: free every moved op's new slot first, so no
        // restored op meets one that has not moved back yet.
        let moved = |u: &usize| self.zc[*u].to_bits() != self.z[*u].to_bits();
        for u in (0..n).filter(moved) {
            let d_f = self.pattern.ops[u].duration;
            self.timelines[self.resource[u]].remove(self.zc[u], d_f);
        }
        for u in (0..n).filter(moved) {
            let d_f = self.pattern.ops[u].duration;
            self.timelines[self.resource[u]].insert(self.z[u], d_f);
        }
        found
    }
}

/// Fold an absolute time into `(start, shift)` consistently with the
/// checker's tolerance.
fn fold(z: f64, period: f64) -> (f64, u64) {
    let laps = floor(z / period).max(0.0);
    let mut start = z - laps * period;
    let mut shift = laps as u64;
    if period - start <= EPS {
        start = 0.0;
        shift += 1;
    }
    if start < 0.0 {
        start = 0.0;
    }
    (start, shift)
}

#[cfg(test)]
mod tests {
    use super::*;
    use madpipe_model::{Layer, Partition, Stage};

    fn chain(costs: &[(f64, f64)], act: u64) -> Chain {
        let layers = costs
            .iter()
            .enumerate()
            .map(|(i, &(f, b))| Layer::new(format!("l{i}"), f, b, 0, act))
            .collect();
        Chain::new("t", act, layers).unwrap()
    }

    /// [`schedule_at_period`] under the default configuration.
    fn place(c: &Chain, platform: &Platform, alloc: &Allocation, t: f64) -> Option<Pattern> {
        let seq = UnitSequence::from_allocation(c, platform, alloc);
        let cfg = PlaceConfig::default();
        schedule_at_period(
            c,
            platform,
            alloc,
            &seq,
            t,
            &cfg,
            &mut PlaceStats::default(),
        )
    }

    #[test]
    fn contiguous_allocation_schedules_at_load_bound() {
        let c = chain(&[(2.0, 2.0), (2.0, 2.0), (2.0, 2.0)], 4);
        let platform = Platform::new(3, 1 << 40, 4.0).unwrap();
        let part = Partition::from_cuts(&[1, 2], 3).unwrap();
        let alloc = Allocation::contiguous(&part, 3).unwrap();
        let seq = UnitSequence::from_allocation(&c, &platform, &alloc);
        let t = seq.max_unit_load();
        let p = place(&c, &platform, &alloc, t);
        assert!(p.is_some());
    }

    #[test]
    fn special_gpu_with_two_stages_schedules() {
        // 4 layers; GPU0 holds stages [0,1) and [2,3); GPU1 and GPU2 one each.
        let c = chain(&[(1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0)], 2);
        let platform = Platform::new(3, 1 << 40, 1000.0).unwrap();
        let alloc = Allocation::new(
            vec![
                Stage::new(0..1, 0),
                Stage::new(1..2, 1),
                Stage::new(2..3, 0),
                Stage::new(3..4, 2),
            ],
            4,
            3,
        )
        .unwrap();
        // GPU0 load = 4; comms tiny. Period 4.2 should be schedulable.
        let p = place(&c, &platform, &alloc, 4.2);
        assert!(p.is_some());
    }

    #[test]
    fn overloaded_resource_is_rejected_fast() {
        let c = chain(&[(5.0, 5.0), (5.0, 5.0)], 2);
        let platform = Platform::new(2, 1 << 40, 1000.0).unwrap();
        let alloc = Allocation::new(vec![Stage::new(0..1, 0), Stage::new(1..2, 0)], 2, 2).unwrap();
        assert!(place(&c, &platform, &alloc, 10.0).is_none());
        assert!(place(&c, &platform, &alloc, 20.0).is_some());
    }

    #[test]
    fn stats_count_calls_nodes_leaves_and_exhaustion() {
        let c = chain(&[(2.0, 2.0), (2.0, 2.0)], 1000);
        let part = Partition::from_cuts(&[1], 2).unwrap();
        let alloc = Allocation::contiguous(&part, 2).unwrap();
        let tight = Platform::new(2, 3100, 1000.0).unwrap();
        let seq = UnitSequence::from_allocation(&c, &tight, &alloc);
        let mut stats = PlaceStats::default();
        // 3 units, 6 ops: the first leaf is the 7th node.
        let cfg = PlaceConfig {
            node_budget: 7,
            ..PlaceConfig::default()
        };
        // At T = 4 stage 0 needs ⌈8/4⌉ = 2 live batches, 2000 B over its
        // 2000 B of buffers: the floor answers before any node.
        assert!(schedule_at_period(&c, &tight, &alloc, &seq, 4.0, &cfg, &mut stats).is_none());
        let floored = PlaceStats {
            calls: 1,
            floored: 1,
            ..PlaceStats::default()
        };
        assert_eq!(stats, floored);
        // At T = 9 the floor asks for one batch, but B_0 collides with
        // F_0 modulo T and slides past the period boundary: the first
        // leaf holds 2 batches however compaction moves F_0, so its leaf
        // floor answers it, and a 7-node budget ends the search there.
        assert!(schedule_at_period(&c, &tight, &alloc, &seq, 9.0, &cfg, &mut stats).is_none());
        let exhausted = PlaceStats {
            calls: 2,
            exhausted: 1,
            floored: 1,
            nodes: 7,
            leaves: 1,
            leaves_floored: 1,
        };
        assert_eq!(stats, exhausted);
        // The load prefilter rejects T = 1 before any node or floor.
        assert!(schedule_at_period(&c, &tight, &alloc, &seq, 1.0, &cfg, &mut stats).is_none());
        assert_eq!(stats.calls, 3);
        assert_eq!((stats.nodes, stats.floored), (7, 1));
        // At T = 10 the first leaf is valid: found, not exhausted.
        let p = schedule_at_period(&c, &tight, &alloc, &seq, 10.0, &cfg, &mut stats);
        assert!(p.is_some());
        assert_eq!(stats.exhausted, 1);
        assert_eq!((stats.nodes, stats.leaves), (14, 2));
    }

    #[test]
    fn the_leaf_floor_answers_every_leaf_the_period_floor_admits() {
        // Units S0 (GPU 0), C (link), S1 (GPU 1), with f/b of 1/3, 1/1
        // and 1/3; each GPU holds 2000 B of comm buffers and 1000 B per
        // live batch. At T = 9 stage 0's dependency lag is exactly
        // f_C + f_1 + b_1 + b_C + b_0 = 9, so the period floor asks for
        // one batch: 3000 B, under 3100.
        let c = chain(&[(1.0, 3.0), (1.0, 3.0)], 1000);
        let part = Partition::from_cuts(&[1], 2).unwrap();
        let alloc = Allocation::contiguous(&part, 2).unwrap();
        let tight = Platform::new(2, 3100, 1000.0).unwrap();
        let seq = UnitSequence::from_allocation(&c, &tight, &alloc);
        // F_0 0..1, C 1..2, F_1 2..3, B_1 3..6 and C 6..7 leave F_0 no
        // slack (end_0 = 3 − 1 − 1 = 1), and B_0, ready at 7, collides
        // with F_0 modulo 9: its candidates 10, 13, 19 and 22 give gaps
        // z + 3 − 1 of 12, 15, 21 and 24, so 2 or 3 batches and at least
        // 4000 B. Six internal nodes lead to them, so a budget of 6 + j
        // nodes stops after j of those leaves, and one of 11 at the
        // next internal node. Results and node and leaf counts recorded
        // before the leaf floor existed (budgets 10 and the default) or
        // before a node counted its floored leaves in one step (the
        // budgets that end among or just after `B_0`'s siblings).
        let budgets = [
            (6, 1, 6, 0),
            (7, 1, 7, 1),
            (8, 1, 8, 2),
            (9, 1, 9, 3),
            (10, 1, 10, 4),
            (11, 1, 11, 4),
            (PlaceConfig::default().node_budget, 0, 687, 512),
        ];
        for (node_budget, exhausted, nodes, leaves) in budgets {
            let cfg = PlaceConfig {
                node_budget,
                ..PlaceConfig::default()
            };
            let mut stats = PlaceStats::default();
            assert!(schedule_at_period(&c, &tight, &alloc, &seq, 9.0, &cfg, &mut stats).is_none());
            let expected = PlaceStats {
                calls: 1,
                exhausted,
                floored: 0,
                nodes,
                leaves,
                leaves_floored: leaves,
            };
            assert_eq!(stats, expected, "budget {node_budget}");
        }
    }

    #[test]
    fn memory_limit_rejects_tight_periods() {
        let c = chain(&[(2.0, 2.0), (2.0, 2.0)], 1000);
        // comm one-way = 1000/1000 = 1 → cut load 2.
        let part = Partition::from_cuts(&[1], 2).unwrap();
        let alloc = Allocation::contiguous(&part, 2).unwrap();
        // memory: stage0 static buffer 2000 + k·1000 activations
        let tight = Platform::new(2, 3100, 1000.0).unwrap();
        // At T=4: stage0 must hold 2 live batches (group 2) → 4000 > 3100.
        assert!(place(&c, &tight, &alloc, 4.0).is_none());
        // At T=10 (single group) one live batch → 3000 ≤ 3100.
        assert!(place(&c, &tight, &alloc, 10.0).is_some());
    }
}
