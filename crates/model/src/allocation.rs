//! Stage → GPU assignments, including MadPipe's non-contiguous shape.

use std::ops::Range;

use crate::chain::Chain;
use crate::error::ModelError;
use crate::partition::Partition;
use crate::platform::Platform;
use crate::policy::StagePolicy;

/// One stage of an allocation: a contiguous layer range placed on a GPU,
/// executed under its own recompute/weight-versioning policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// Layers of the stage (0-based, half-open).
    pub layers: Range<usize>,
    /// GPU hosting the stage.
    pub gpu: usize,
    /// Execution policy of the stage; every schedule construction,
    /// checker and simulator reads it from here.
    pub policy: StagePolicy,
}

impl Stage {
    /// A stage under the paper's default policy (store + full versioning).
    pub fn new(layers: Range<usize>, gpu: usize) -> Self {
        Self {
            layers,
            gpu,
            policy: StagePolicy::default(),
        }
    }
}

/// An *allocation*: a partitioning of the chain plus an assignment of each
/// stage to a GPU. MadPipe allocations have one *special* GPU that may
/// hold several stages while every other (*normal*) GPU holds at most one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    stages: Vec<Stage>,
    n_gpus: usize,
}

impl Allocation {
    /// Build an allocation, validating coverage and GPU indices.
    pub fn new(stages: Vec<Stage>, n_layers: usize, n_gpus: usize) -> Result<Self, ModelError> {
        let ranges: Vec<Range<usize>> = stages.iter().map(|s| s.layers.clone()).collect();
        Partition::new(ranges, n_layers)?;
        for s in &stages {
            if s.gpu >= n_gpus {
                return Err(ModelError::GpuOutOfRange { gpu: s.gpu, n_gpus });
            }
        }
        Ok(Self { stages, n_gpus })
    }

    /// The contiguous allocation that places stage `i` of `partition` on
    /// GPU `i` (requires `partition.len() <= n_gpus`).
    pub fn contiguous(partition: &Partition, n_gpus: usize) -> Result<Self, ModelError> {
        if partition.len() > n_gpus {
            return Err(ModelError::BadCover {
                detail: format!(
                    "{} stages cannot be placed one-per-GPU on {} GPUs",
                    partition.len(),
                    n_gpus
                ),
            });
        }
        let stages = partition
            .stages()
            .iter()
            .enumerate()
            .map(|(i, r)| Stage::new(r.clone(), i))
            .collect();
        let n_layers = partition.stages().last().expect("non-empty").end;
        Self::new(stages, n_layers, n_gpus)
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True iff there are no stages (never true for a validated allocation).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The stages in chain order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Number of GPUs of the target platform.
    pub fn n_gpus(&self) -> usize {
        self.n_gpus
    }

    /// The underlying partition (stage ranges without placement).
    pub fn partition(&self) -> Partition {
        let n_layers = self.stages.last().expect("non-empty").layers.end;
        Partition::new(
            self.stages.iter().map(|s| s.layers.clone()).collect(),
            n_layers,
        )
        .expect("validated at construction")
    }

    /// True iff every GPU hosts at most one stage.
    pub fn is_contiguous(&self) -> bool {
        let mut seen = vec![false; self.n_gpus];
        for s in &self.stages {
            if seen[s.gpu] {
                return false;
            }
            seen[s.gpu] = true;
        }
        true
    }

    /// GPUs hosting more than one stage (MadPipe's special processor, if
    /// any). Sorted ascending.
    pub fn special_gpus(&self) -> Vec<usize> {
        let mut count = vec![0usize; self.n_gpus];
        for s in &self.stages {
            count[s.gpu] += 1;
        }
        count
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 1)
            .map(|(g, _)| g)
            .collect()
    }

    /// Compute load of GPU `gpu`: Σ U(s) over its stages.
    pub fn gpu_compute_load(&self, chain: &Chain, gpu: usize) -> f64 {
        self.stages
            .iter()
            .filter(|s| s.gpu == gpu)
            .map(|s| chain.compute_time(s.layers.clone()))
            .sum()
    }

    /// Whether consecutive stages `i` and `i+1` sit on different GPUs (and
    /// therefore need a communication over the boundary tensor).
    pub fn cut_is_remote(&self, i: usize) -> bool {
        self.stages[i].gpu != self.stages[i + 1].gpu
    }

    /// The *period of the allocation* (§4.2): the max load over all
    /// resources — GPU compute loads and link occupancies — i.e. the
    /// period achievable if memory constraints were ignored.
    pub fn load_bound(&self, chain: &Chain, platform: &Platform) -> f64 {
        let mut best: f64 = 0.0;
        for g in 0..self.n_gpus {
            best = best.max(self.gpu_compute_load(chain, g));
        }
        // Each adjacent remote pair occupies the link between the two GPUs;
        // several cuts may share one link (e.g. chain re-entering the
        // special GPU), so accumulate per link.
        let mut link_load: std::collections::HashMap<(usize, usize), f64> =
            std::collections::HashMap::new();
        for i in 0..self.stages.len().saturating_sub(1) {
            if self.cut_is_remote(i) {
                let a = self.stages[i].gpu.min(self.stages[i + 1].gpu);
                let b = self.stages[i].gpu.max(self.stages[i + 1].gpu);
                let cut = self.stages[i + 1].layers.start;
                *link_load.entry((a, b)).or_insert(0.0) += platform.cut_time(chain, cut);
            }
        }
        for (_, load) in link_load {
            best = best.max(load);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;

    fn chain4() -> Chain {
        Chain::new(
            "t",
            10,
            vec![
                Layer::new("a", 1.0, 1.0, 0, 10),
                Layer::new("b", 2.0, 2.0, 0, 20),
                Layer::new("c", 3.0, 3.0, 0, 30),
                Layer::new("d", 4.0, 4.0, 0, 40),
            ],
        )
        .unwrap()
    }

    fn noncontig() -> Allocation {
        // stages: [0,1)→gpu0, [1,2)→gpu1, [2,3)→gpu0, [3,4)→gpu1
        Allocation::new(
            vec![
                Stage::new(0..1, 0),
                Stage::new(1..2, 1),
                Stage::new(2..3, 0),
                Stage::new(3..4, 1),
            ],
            4,
            2,
        )
        .unwrap()
    }

    #[test]
    fn contiguous_from_partition() {
        let p = Partition::from_cuts(&[2], 4).unwrap();
        let a = Allocation::contiguous(&p, 4).unwrap();
        assert_eq!(a.len(), 2);
        assert!(a.is_contiguous());
        assert_eq!(a.special_gpus(), Vec::<usize>::new());
        assert!(Allocation::contiguous(&Partition::from_cuts(&[1, 2], 4).unwrap(), 2).is_err());
    }

    #[test]
    fn gpu_validation() {
        let bad = Allocation::new(vec![Stage::new(0..4, 5)], 4, 2);
        assert!(matches!(bad, Err(ModelError::GpuOutOfRange { .. })));
    }

    #[test]
    fn special_gpu_detection_and_loads() {
        let a = noncontig();
        let c = chain4();
        assert!(!a.is_contiguous());
        assert_eq!(a.special_gpus(), vec![0, 1]);
        assert_eq!(a.gpu_compute_load(&c, 0), 2.0 + 6.0);
        assert_eq!(a.gpu_compute_load(&c, 1), 4.0 + 8.0);
    }

    #[test]
    fn load_bound_accumulates_shared_links() {
        let a = noncontig();
        let c = chain4();
        let p = Platform::new(2, 1 << 30, 1.0).unwrap();
        // every cut remote, all on link (0,1): 2*(a1 + a2 + a3) = 2*(10+20+30)
        let link: f64 = 2.0 * (10.0 + 20.0 + 30.0);
        assert_eq!(a.load_bound(&c, &p), link.max(12.0));
    }

    #[test]
    fn partition_roundtrip() {
        let a = noncontig();
        assert_eq!(a.partition().stages(), &[0..1, 1..2, 2..3, 3..4]);
    }
}
