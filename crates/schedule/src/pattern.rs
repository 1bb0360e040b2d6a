//! The periodic pattern representation.

use madpipe_model::util::floor;
use madpipe_model::{Resource, UnitSequence};

/// Direction of an operation: the forward or the backward half of a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    Forward,
    Backward,
}

/// One scheduled operation of the periodic pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Index of the unit (into the [`UnitSequence`]) this op belongs to.
    pub unit: usize,
    /// Forward or backward half.
    pub dir: Dir,
    /// Start time `t ∈ [0, T)` within the period.
    pub start: f64,
    /// Duration of the operation.
    pub duration: f64,
    /// Index shift `h`: in period `k` this op processes mini-batch `k-h`.
    pub shift: u64,
    /// Resource the op occupies (GPU or link).
    pub resource: Resource,
}

impl Op {
    /// Completion phase within the period: `(t + d) mod T`.
    pub fn completion_phase(&self, period: f64) -> f64 {
        let e = self.start + self.duration;
        if e >= period {
            e - period * floor(e / period)
        } else {
            e
        }
    }

    /// Completion period offset `κ = h + ⌊(t + d)/T⌋`: mini-batch `b`
    /// completes at absolute time `(b + κ)·T + completion_phase`.
    pub fn completion_offset(&self, period: f64) -> u64 {
        self.shift + floor((self.start + self.duration) / period) as u64
    }

    /// Absolute "virtual" start of the op for mini-batch 0:
    /// `t + h·T`. Dependencies of a valid pattern are exactly
    /// `virtual_start(o2) ≥ virtual_start(o1) + d(o1)`.
    pub fn virtual_start(&self, period: f64) -> f64 {
        self.start + self.shift as f64 * period
    }
}

/// A periodic pattern: period `T` plus one op per (unit, direction).
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    /// The period `T`.
    pub period: f64,
    /// All operations; exactly one `(unit, dir)` pair per unit of the
    /// sequence the pattern was built for.
    pub ops: Vec<Op>,
}

impl Pattern {
    /// Look up the op of `unit` in direction `dir`.
    pub fn op(&self, unit: usize, dir: Dir) -> Option<&Op> {
        self.ops.iter().find(|o| o.unit == unit && o.dir == dir)
    }

    /// Throughput in mini-batches per second.
    pub fn throughput(&self) -> f64 {
        1.0 / self.period
    }

    /// Busy time accumulated on `resource` within one period.
    pub fn resource_load(&self, resource: Resource) -> f64 {
        self.ops
            .iter()
            .filter(|o| o.resource == resource)
            .map(|o| o.duration)
            .sum()
    }

    /// Largest shift in the pattern — the pipeline depth (how many
    /// mini-batches are in flight simultaneously).
    pub fn max_shift(&self) -> u64 {
        self.ops.iter().map(|o| o.shift).max().unwrap_or(0)
    }

    /// Number of ops expected for `seq` (two per unit).
    pub fn is_complete_for(&self, seq: &UnitSequence) -> bool {
        if self.ops.len() != 2 * seq.len() {
            return false;
        }
        (0..seq.len())
            .all(|u| self.op(u, Dir::Forward).is_some() && self.op(u, Dir::Backward).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(start: f64, duration: f64, shift: u64) -> Op {
        Op {
            unit: 0,
            dir: Dir::Forward,
            start,
            duration,
            shift,
            resource: Resource::Gpu(0),
        }
    }

    #[test]
    fn completion_wraps_across_the_period() {
        let o = op(8.0, 3.0, 1);
        assert!((o.completion_phase(10.0) - 1.0).abs() < 1e-12);
        assert_eq!(o.completion_offset(10.0), 2);
        let o2 = op(2.0, 3.0, 1);
        assert_eq!(o2.completion_phase(10.0), 5.0);
        assert_eq!(o2.completion_offset(10.0), 1);
    }

    #[test]
    fn virtual_start_orders_dependencies() {
        let a = op(9.0, 2.0, 0);
        let b = op(1.0, 2.0, 1); // wrapped successor
        assert!(b.virtual_start(10.0) >= a.virtual_start(10.0) + a.duration);
    }

    #[test]
    fn pattern_summaries() {
        let p = Pattern {
            period: 10.0,
            ops: vec![
                Op {
                    unit: 0,
                    dir: Dir::Forward,
                    start: 0.0,
                    duration: 2.0,
                    shift: 0,
                    resource: Resource::Gpu(0),
                },
                Op {
                    unit: 0,
                    dir: Dir::Backward,
                    start: 5.0,
                    duration: 3.0,
                    shift: 1,
                    resource: Resource::Gpu(0),
                },
            ],
        };
        assert_eq!(p.resource_load(Resource::Gpu(0)), 5.0);
        assert_eq!(p.resource_load(Resource::Gpu(1)), 0.0);
        assert_eq!(p.max_shift(), 1);
        assert_eq!(p.throughput(), 0.1);
        assert!(p.op(0, Dir::Backward).is_some());
        assert!(p.op(1, Dir::Forward).is_none());
    }
}
