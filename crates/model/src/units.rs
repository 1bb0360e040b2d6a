//! The `P → 2P-1` transformation of §4.1: interleaving stages with
//! communication pseudo-stages.
//!
//! The 1F1B* optimality argument treats every communication between
//! consecutive stages on different GPUs as if it were a computation layer
//! of its own, on its own resource (the link). A [`UnitSequence`] is the
//! resulting alternating sequence of *units*; group formation and the
//! schedule constructions all operate on it.

use std::ops::Range;

use crate::allocation::Allocation;
use crate::chain::Chain;
use crate::platform::Platform;
use crate::policy::StagePolicy;

/// An exclusive resource of the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    /// GPU `p`.
    Gpu(usize),
    /// The link between GPUs `a < b` (a single exclusive channel per GPU
    /// pair, shared by forward and backward transfers, as in PipeDream).
    Link(usize, usize),
}

impl Resource {
    /// Normalized link constructor (`a < b`).
    pub fn link(a: usize, b: usize) -> Self {
        Resource::Link(a.min(b), a.max(b))
    }
}

/// What a unit stands for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnitKind {
    /// Stage `stage` of the allocation, covering `layers`.
    Stage { stage: usize, layers: Range<usize> },
    /// The communication crossing the cut before layer `cut_layer`
    /// (carrying `a^{(cut_layer-1)}` forward and the same-size gradient
    /// backward), between stages `stage_before` and `stage_before + 1`.
    Comm {
        cut_layer: usize,
        stage_before: usize,
    },
}

/// One unit of the transformed chain: either a stage or a communication,
/// with its own forward/backward durations and exclusive resource.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    pub kind: UnitKind,
    /// Forward duration (stage: `U_F(s)`; comm: `a/β`).
    pub forward_time: f64,
    /// Backward duration (stage: `U_B(s)`, plus the recompute forward
    /// pass when the stage policy recomputes; comm: `a/β`).
    pub backward_time: f64,
    /// Resource the unit occupies.
    pub resource: Resource,
    /// Execution policy of the stage (default for comm units).
    pub policy: StagePolicy,
}

impl Unit {
    /// Total load of the unit, the paper's `U(s)` (or `C(k)` for comms).
    pub fn total_time(&self) -> f64 {
        self.forward_time + self.backward_time
    }

    /// True for communication units.
    pub fn is_comm(&self) -> bool {
        matches!(self.kind, UnitKind::Comm { .. })
    }
}

/// The transformed chain: stages interleaved with the communications that
/// their placement induces, in chain order.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitSequence {
    units: Vec<Unit>,
}

impl UnitSequence {
    /// Build the unit sequence for `alloc`. A communication unit is
    /// inserted between consecutive stages exactly when they live on
    /// different GPUs. Each stage unit carries its stage's policy; a
    /// recomputing stage's backward duration includes the recompute
    /// forward pass (`U_B + U_F`), so every schedule construction and
    /// checker downstream accounts for recompute time automatically.
    pub fn from_allocation(chain: &Chain, platform: &Platform, alloc: &Allocation) -> Self {
        let stages = alloc.stages();
        let mut units = Vec::with_capacity(2 * stages.len());
        for (i, s) in stages.iter().enumerate() {
            let forward_time = chain.forward_time(s.layers.clone());
            let mut backward_time = chain.backward_time(s.layers.clone());
            if s.policy.recomputes() {
                backward_time += forward_time;
            }
            units.push(Unit {
                kind: UnitKind::Stage {
                    stage: i,
                    layers: s.layers.clone(),
                },
                forward_time,
                backward_time,
                resource: Resource::Gpu(s.gpu),
                policy: s.policy,
            });
            if i + 1 < stages.len() && alloc.cut_is_remote(i) {
                let cut_layer = stages[i + 1].layers.start;
                let one_way = platform.one_way_cut_time(chain, cut_layer);
                units.push(Unit {
                    kind: UnitKind::Comm {
                        cut_layer,
                        stage_before: i,
                    },
                    forward_time: one_way,
                    backward_time: one_way,
                    resource: Resource::link(s.gpu, stages[i + 1].gpu),
                    policy: StagePolicy::default(),
                });
            }
        }
        Self { units }
    }

    /// The units in chain order.
    pub fn units(&self) -> &[Unit] {
        &self.units
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True iff the sequence contains no unit.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Max unit load — a lower bound on the period of any schedule of
    /// this allocation when each unit has a dedicated resource.
    pub fn max_unit_load(&self) -> f64 {
        self.units.iter().map(Unit::total_time).fold(0.0, f64::max)
    }

    /// Total load of all units — the period of a one-batch-at-a-time
    /// schedule, an upper bound for feasible periods of interest.
    pub fn total_load(&self) -> f64 {
        self.units.iter().map(Unit::total_time).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::Stage;
    use crate::layer::Layer;
    use crate::partition::Partition;

    fn chain4() -> Chain {
        Chain::new(
            "t",
            10,
            vec![
                Layer::new("a", 1.0, 2.0, 0, 100),
                Layer::new("b", 3.0, 4.0, 0, 200),
                Layer::new("c", 5.0, 6.0, 0, 300),
                Layer::new("d", 7.0, 8.0, 0, 400),
            ],
        )
        .unwrap()
    }

    #[test]
    fn contiguous_allocation_yields_2p_minus_1_units() {
        let c = chain4();
        let platform = Platform::new(2, 1 << 30, 100.0).unwrap();
        let part = Partition::from_cuts(&[2], 4).unwrap();
        let alloc = Allocation::contiguous(&part, 2).unwrap();
        let seq = UnitSequence::from_allocation(&c, &platform, &alloc);
        assert_eq!(seq.len(), 3);
        assert!(seq.units()[1].is_comm());
        // comm carries a^{(1)} = 200 bytes each way → 2s one-way at β=100
        assert_eq!(seq.units()[1].forward_time, 2.0);
        assert_eq!(seq.units()[1].backward_time, 2.0);
        assert_eq!(seq.units()[1].resource, Resource::Link(0, 1));
        assert_eq!(seq.units()[0].forward_time, 4.0); // u_F of layers 0..2
        assert_eq!(seq.units()[2].backward_time, 14.0); // u_B of layers 2..4
    }

    #[test]
    fn no_comm_between_co_located_stages() {
        let c = chain4();
        let platform = Platform::new(2, 1 << 30, 100.0).unwrap();
        let alloc = Allocation::new(
            vec![
                Stage::new(0..1, 0),
                Stage::new(1..2, 0),
                Stage::new(2..4, 1),
            ],
            4,
            2,
        )
        .unwrap();
        let seq = UnitSequence::from_allocation(&c, &platform, &alloc);
        // stage, stage (same gpu → no comm), comm, stage
        assert_eq!(seq.len(), 4);
        assert!(!seq.units()[1].is_comm());
        assert!(seq.units()[2].is_comm());
    }

    #[test]
    fn load_summaries() {
        let c = chain4();
        let platform = Platform::new(2, 1 << 30, 100.0).unwrap();
        let part = Partition::from_cuts(&[2], 4).unwrap();
        let alloc = Allocation::contiguous(&part, 2).unwrap();
        let seq = UnitSequence::from_allocation(&c, &platform, &alloc);
        assert_eq!(seq.max_unit_load(), 26.0); // second stage 5+6+7+8
        assert_eq!(seq.total_load(), 10.0 + 4.0 + 26.0);
    }

    #[test]
    fn resource_link_normalizes() {
        assert_eq!(Resource::link(3, 1), Resource::Link(1, 3));
    }

    #[test]
    fn recompute_policy_extends_backward_time() {
        use crate::policy::ActivationPolicy;
        let c = chain4();
        let platform = Platform::new(2, 1 << 30, 100.0).unwrap();
        let rec = StagePolicy {
            activation: ActivationPolicy::Recompute,
            ..StagePolicy::default()
        };
        let alloc = Allocation::new(
            vec![
                Stage::new(0..2, 0),
                Stage {
                    policy: rec,
                    ..Stage::new(2..4, 1)
                },
            ],
            4,
            2,
        )
        .unwrap();
        let seq = UnitSequence::from_allocation(&c, &platform, &alloc);
        // Stage 0 stores: unchanged. Stage 1 recomputes: its backward
        // time gains the stage forward time, U_B + U_F.
        assert_eq!(seq.units()[0].backward_time, 6.0);
        assert_eq!(seq.units()[2].forward_time, 12.0);
        assert_eq!(seq.units()[2].backward_time, 14.0 + 12.0);
        assert_eq!(seq.units()[2].policy, rec);
        // Comm units carry the default policy.
        assert_eq!(seq.units()[1].policy, StagePolicy::default());
    }
}
