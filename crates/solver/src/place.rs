//! Topological placement with bounded backtracking.

use madpipe_model::util::EPS;
use madpipe_model::{Allocation, Chain, Platform, Resource, UnitSequence};
use madpipe_schedule::{check_pattern, Dir, Op, Pattern, ScheduleError};

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

/// Attempt to build a valid pattern of period `period` for `alloc`.
///
/// Operations are placed in topological order; each op is offered the
/// earliest feasible modular slot on its resource (one candidate per
/// circular gap, bounded by [`PlaceConfig::max_alternatives`]); a leaf is
/// accepted iff the exact checker validates it (including memory).
pub fn schedule_at_period(
    chain: &Chain,
    platform: &Platform,
    alloc: &Allocation,
    seq: &UnitSequence,
    period: f64,
    cfg: &PlaceConfig,
) -> Option<Pattern> {
    let n = seq.len();
    if n == 0 || !period.is_finite() || period <= 0.0 {
        return None;
    }
    // Quick resource-load prefilter.
    let mut loads: std::collections::HashMap<Resource, f64> = std::collections::HashMap::new();
    for u in seq.units() {
        *loads.entry(u.resource).or_insert(0.0) += u.total_time();
    }
    if loads.values().any(|&l| l > period + EPS) {
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

    struct Dfs<'a> {
        chain: &'a Chain,
        platform: &'a Platform,
        alloc: &'a Allocation,
        seq: &'a UnitSequence,
        order: &'a [(usize, Dir)],
        period: f64,
        cfg: &'a PlaceConfig,
        nodes: usize,
    }

    impl Dfs<'_> {
        /// Place ops from `idx` onward; `z` holds the absolute times of
        /// already placed ops (indexed like `order`).
        fn go(
            &mut self,
            idx: usize,
            z: &mut Vec<f64>,
            timelines: &mut std::collections::HashMap<Resource, Timeline>,
        ) -> Option<Pattern> {
            if self.nodes >= self.cfg.node_budget {
                return None;
            }
            self.nodes += 1;
            if idx == self.order.len() {
                let pattern = self.build_pattern(z);
                match check_pattern(self.chain, self.platform, self.alloc, self.seq, &pattern) {
                    Ok(_) => return Some(pattern),
                    Err(ScheduleError::MemoryExceeded { .. }) => {
                        // Memory, not structure, failed: stagger the
                        // forwards (Figure 5's best case) and retry.
                        if self.cfg.compaction {
                            return self.compact_and_check(z);
                        }
                        return None;
                    }
                    Err(_) => return None,
                }
            }
            let (unit, dir) = self.order[idx];
            let d = match dir {
                Dir::Forward => self.seq.units()[unit].forward_time,
                Dir::Backward => self.seq.units()[unit].backward_time,
            };
            let ready = self.ready_time(idx, z);
            let resource = self.seq.units()[unit].resource;
            let tl = timelines
                .entry(resource)
                .or_insert_with(|| Timeline::new(self.period));
            let candidates = tl.candidate_fits(ready, d, self.cfg.max_alternatives);
            for cand in candidates {
                let mut tl2 = timelines.clone();
                tl2.get_mut(&resource).expect("present").insert(cand, d);
                z.push(cand);
                if let Some(p) = self.go(idx + 1, z, &mut tl2) {
                    return Some(p);
                }
                z.pop();
            }
            None
        }

        /// Dependency-ready time of op `order[idx]` given placed times.
        fn ready_time(&self, idx: usize, z: &[f64]) -> f64 {
            let n = self.seq.len();
            let (unit, dir) = self.order[idx];
            match dir {
                Dir::Forward => {
                    if unit == 0 {
                        0.0
                    } else {
                        // F_{unit-1} is order[unit-1]
                        z[unit - 1] + self.seq.units()[unit - 1].forward_time
                    }
                }
                Dir::Backward => {
                    if unit == n - 1 {
                        // after F_{n-1}
                        z[n - 1] + self.seq.units()[n - 1].forward_time
                    } else {
                        // after B_{unit+1}, which is order[n + (n-1-(unit+1))]
                        let bidx = n + (n - 2 - unit);
                        z[bidx] + self.seq.units()[unit + 1].backward_time
                    }
                }
            }
        }

        /// Memory compaction: push every forward op as late as its chain
        /// successors allow, into the latest free slot on its resource.
        /// Delaying a forward past a period boundary increases `κ_F` and
        /// so lowers the stage's live-batch count by one — this is the
        /// "backward right after forward" interleaving of Figure 5 that
        /// the paper's ILP exploits on the special processor.
        fn compact_and_check(&mut self, z: &[f64]) -> Option<Pattern> {
            let n = self.seq.len();
            // Order-indexed copy we can move ops in.
            let mut zc: Vec<f64> = z.to_vec();
            let d_f: Vec<f64> = (0..n).map(|u| self.seq.units()[u].forward_time).collect();
            let b_index = |u: usize| n + (n - 1 - u);
            for _pass in 0..2 {
                let mut moved = false;
                for u in (0..n).rev() {
                    let bound = if u == n - 1 {
                        zc[b_index(n - 1)]
                    } else {
                        zc[u + 1]
                    } - d_f[u];
                    if bound <= zc[u] + madpipe_model::util::EPS {
                        continue;
                    }
                    // Rebuild the resource's timeline without F_u.
                    let resource = self.seq.units()[u].resource;
                    let mut tl = Timeline::new(self.period);
                    for (idx, &(unit, dir)) in self.order.iter().enumerate() {
                        if idx == u {
                            continue; // F_u itself (order index u)
                        }
                        let dur = match dir {
                            Dir::Forward => self.seq.units()[unit].forward_time,
                            Dir::Backward => self.seq.units()[unit].backward_time,
                        };
                        if self.seq.units()[unit].resource == resource {
                            tl.insert(zc[idx], dur);
                        }
                    }
                    if let Some(znew) = tl.latest_fit(zc[u], bound, d_f[u]) {
                        if znew > zc[u] + madpipe_model::util::EPS {
                            zc[u] = znew;
                            moved = true;
                        }
                    }
                }
                if !moved {
                    break;
                }
                let pattern = self.build_pattern(&zc);
                if check_pattern(self.chain, self.platform, self.alloc, self.seq, &pattern).is_ok()
                {
                    return Some(pattern);
                }
            }
            None
        }

        fn build_pattern(&self, z: &[f64]) -> Pattern {
            let mut ops = Vec::with_capacity(z.len());
            for (idx, &(unit, dir)) in self.order.iter().enumerate() {
                let d = match dir {
                    Dir::Forward => self.seq.units()[unit].forward_time,
                    Dir::Backward => self.seq.units()[unit].backward_time,
                };
                ops.push(fold(unit, dir, z[idx], d, self.seq, self.period));
            }
            Pattern {
                period: self.period,
                ops,
            }
        }
    }

    let mut dfs = Dfs {
        chain,
        platform,
        alloc,
        seq,
        order: &order,
        period,
        cfg,
        nodes: 0,
    };
    let mut z = Vec::with_capacity(2 * n);
    let mut timelines = std::collections::HashMap::new();
    dfs.go(0, &mut z, &mut timelines)
}

/// Fold an absolute time into `(start, shift)` consistently with the
/// checker's tolerance.
fn fold(unit: usize, dir: Dir, z: f64, d: f64, seq: &UnitSequence, period: f64) -> Op {
    let laps = (z / period).floor().max(0.0);
    let mut start = z - laps * period;
    let mut shift = laps as u64;
    if period - start <= EPS {
        start = 0.0;
        shift += 1;
    }
    if start < 0.0 {
        start = 0.0;
    }
    Op {
        unit,
        dir,
        start,
        duration: d,
        shift,
        resource: seq.units()[unit].resource,
    }
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

    #[test]
    fn contiguous_allocation_schedules_at_load_bound() {
        let c = chain(&[(2.0, 2.0), (2.0, 2.0), (2.0, 2.0)], 4);
        let platform = Platform::new(3, 1 << 40, 4.0).unwrap();
        let part = Partition::from_cuts(&[1, 2], 3).unwrap();
        let alloc = Allocation::contiguous(&part, 3).unwrap();
        let seq = UnitSequence::from_allocation(&c, &platform, &alloc);
        let t = seq.max_unit_load();
        let p = schedule_at_period(&c, &platform, &alloc, &seq, t, &PlaceConfig::default());
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
        let seq = UnitSequence::from_allocation(&c, &platform, &alloc);
        // GPU0 load = 4; comms tiny. Period 4.2 should be schedulable.
        let p = schedule_at_period(&c, &platform, &alloc, &seq, 4.2, &PlaceConfig::default());
        assert!(p.is_some());
    }

    #[test]
    fn overloaded_resource_is_rejected_fast() {
        let c = chain(&[(5.0, 5.0), (5.0, 5.0)], 2);
        let platform = Platform::new(2, 1 << 40, 1000.0).unwrap();
        let alloc = Allocation::new(vec![Stage::new(0..1, 0), Stage::new(1..2, 0)], 2, 2).unwrap();
        let seq = UnitSequence::from_allocation(&c, &platform, &alloc);
        assert!(
            schedule_at_period(&c, &platform, &alloc, &seq, 10.0, &PlaceConfig::default())
                .is_none()
        );
        assert!(
            schedule_at_period(&c, &platform, &alloc, &seq, 20.0, &PlaceConfig::default())
                .is_some()
        );
    }

    #[test]
    fn memory_limit_rejects_tight_periods() {
        let c = chain(&[(2.0, 2.0), (2.0, 2.0)], 1000);
        // comm one-way = 1000/1000 = 1 → cut load 2.
        let part = Partition::from_cuts(&[1], 2).unwrap();
        let alloc = Allocation::contiguous(&part, 2).unwrap();
        // memory: stage0 static buffer 2000 + k·1000 activations
        let tight = Platform::new(2, 3100, 1000.0).unwrap();
        let seq = UnitSequence::from_allocation(&c, &tight, &alloc);
        // At T=4: stage0 must hold 2 live batches (group 2) → 4000 > 3100.
        assert!(
            schedule_at_period(&c, &tight, &alloc, &seq, 4.0, &PlaceConfig::default()).is_none()
        );
        // At T=10 (single group) one live batch → 3000 ≤ 3100.
        assert!(
            schedule_at_period(&c, &tight, &alloc, &seq, 10.0, &PlaceConfig::default()).is_some()
        );
    }
}
