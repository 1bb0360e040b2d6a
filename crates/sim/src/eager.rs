//! The eager 1F1B policy: PipeDream's runtime scheduler.
//!
//! Operations start as soon as their inputs are available and their
//! resource is free; when several operations compete for a resource,
//! backwards are preferred over forwards (the 1F1B rule) and older
//! batches over newer ones. The number of mini-batches in flight is
//! bounded by a pipeline depth. §4.1 of the paper points out that this
//! strategy gives no guarantee on the period actually achieved and makes
//! memory consumption hard to predict — this simulator measures both.

use std::collections::HashMap;

use madpipe_model::{Allocation, Chain, Platform, Resource, UnitKind, UnitSequence};
use madpipe_schedule::check::static_memory;
use madpipe_schedule::Dir;

use crate::event::EventQueue;
use crate::report::SimReport;

/// Eager simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct EagerConfig {
    /// Mini-batches to simulate (throughput is estimated from the second
    /// half, so use at least a few dozen).
    pub batches: usize,
    /// Pipeline depth: max mini-batches admitted before the oldest one
    /// retires. `None` picks the number of *stages* of the allocation —
    /// PipeDream's rule. (An earlier version counted stages *and*
    /// communication units, silently over-admitting on any allocation
    /// with remote cuts.)
    pub depth: Option<usize>,
}

impl Default for EagerConfig {
    fn default() -> Self {
        Self {
            batches: 100,
            depth: None,
        }
    }
}

/// An op instance in flight: `(unit, dir, batch)`.
type Inst = (usize, Dir, usize);

/// Run the eager 1F1B policy and measure throughput and memory.
pub fn simulate_eager(
    chain: &Chain,
    platform: &Platform,
    alloc: &Allocation,
    cfg: &EagerConfig,
) -> SimReport {
    let seq = UnitSequence::from_allocation(chain, platform, alloc);
    let n_units = seq.len();
    let n_batches = cfg.batches.max(2);
    let n_stages = seq.units().iter().filter(|u| !u.is_comm()).count();
    let depth = cfg.depth.unwrap_or(n_stages).max(1);

    let dur = |unit: usize, dir: Dir| -> f64 {
        match dir {
            Dir::Forward => seq.units()[unit].forward_time,
            Dir::Backward => seq.units()[unit].backward_time,
        }
    };

    // Resource bookkeeping.
    let mut resources: Vec<Resource> = seq.units().iter().map(|u| u.resource).collect();
    resources.sort();
    resources.dedup();
    let mut busy: HashMap<Resource, bool> = resources.iter().map(|&r| (r, false)).collect();
    let mut busy_time: HashMap<Resource, f64> = resources.iter().map(|&r| (r, 0.0)).collect();
    let mut ready: HashMap<Resource, Vec<Inst>> = resources.iter().map(|&r| (r, vec![])).collect();

    // Memory bookkeeping: dynamic per-batch bytes per GPU, under each
    // stage's policy (a recomputing stage pins only its boundary input).
    let static_bytes = static_memory(chain, alloc, &seq);
    let mut dyn_bytes = vec![0i64; alloc.n_gpus()];
    let mut peak = static_bytes.clone();
    let stage_gpu_and_stored: Vec<Option<(usize, u64)>> = seq
        .units()
        .iter()
        .map(|u| match (&u.kind, u.resource) {
            (UnitKind::Stage { layers, .. }, Resource::Gpu(g)) => {
                Some((g, chain.stage_live_batch_bytes(layers.clone(), u.policy)))
            }
            _ => None,
        })
        .collect();

    // Completion tracking for admission + dependency release.
    let mut b0_done = 0usize; // completed B of unit 0
    let mut admitted = 0usize;
    let mut completions: Vec<(f64, usize)> = Vec::new(); // (time, batch) of final op

    let mut events: EventQueue<Inst> = EventQueue::new();
    let mut now = 0.0f64;

    // Helpers as closures over the mutable state are awkward; use a small
    // queue of "newly enabled" instances instead.
    let mut enabled: Vec<Inst> = Vec::new();
    let admit = |admitted: &mut usize, b0_done: usize, enabled: &mut Vec<Inst>| {
        while *admitted < n_batches && *admitted < b0_done + depth {
            enabled.push((0, Dir::Forward, *admitted));
            *admitted += 1;
        }
    };
    admit(&mut admitted, b0_done, &mut enabled);

    loop {
        // Move enabled instances into their resource's ready list.
        for inst in enabled.drain(..) {
            let r = seq.units()[inst.0].resource;
            ready.get_mut(&r).expect("known resource").push(inst);
        }
        // Start work on every idle resource.
        for &r in &resources {
            if *busy.get(&r).expect("known") {
                continue;
            }
            let list = ready.get_mut(&r).expect("known");
            if list.is_empty() {
                continue;
            }
            // 1F1B priority: backwards first, then oldest batch, then
            // latest unit (drain the pipe end first).
            let best = (0..list.len())
                .min_by_key(|&i| {
                    let (u, d, b) = list[i];
                    (if d == Dir::Backward { 0 } else { 1 }, b, usize::MAX - u)
                })
                .expect("non-empty");
            let inst = list.swap_remove(best);
            *busy.get_mut(&r).expect("known") = true;
            *busy_time.get_mut(&r).expect("known") += dur(inst.0, inst.1);
            events.push(now + dur(inst.0, inst.1), inst);
        }

        let Some((t, (u, d, b))) = events.pop() else {
            break;
        };
        now = t;
        let r = seq.units()[u].resource;
        *busy.get_mut(&r).expect("known") = false;

        // Memory effects at completion.
        if let Some((gpu, stored)) = stage_gpu_and_stored[u] {
            match d {
                Dir::Forward => dyn_bytes[gpu] += stored as i64,
                Dir::Backward => dyn_bytes[gpu] -= stored as i64,
            }
            let total = (static_bytes[gpu] as i64 + dyn_bytes[gpu]).max(0) as u64;
            peak[gpu] = peak[gpu].max(total);
        }

        // Release successors.
        match d {
            Dir::Forward => {
                if u + 1 < n_units {
                    enabled.push((u + 1, Dir::Forward, b));
                } else {
                    enabled.push((u, Dir::Backward, b));
                }
            }
            Dir::Backward => {
                if u > 0 {
                    enabled.push((u - 1, Dir::Backward, b));
                } else {
                    b0_done += 1;
                    completions.push((now, b));
                    admit(&mut admitted, b0_done, &mut enabled);
                }
            }
        }
    }

    // Steady-state period from the second half of the completions.
    let period = if completions.len() >= 4 {
        let half = completions.len() / 2;
        let (t0, _) = completions[half - 1];
        let (t1, _) = completions[completions.len() - 1];
        (t1 - t0) / (completions.len() - half) as f64
    } else {
        now / completions.len().max(1) as f64
    };

    let gpu_utilization = (0..alloc.n_gpus())
        .map(|g| {
            busy_time
                .get(&Resource::Gpu(g))
                .map(|&bt| if now > 0.0 { bt / now } else { 0.0 })
                .unwrap_or(0.0)
        })
        .collect();

    let memory_violation = peak.iter().any(|&p| p > platform.memory_bytes);

    SimReport {
        period,
        makespan: now,
        batches: completions.len(),
        gpu_peak_bytes: peak,
        gpu_utilization,
        memory_violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madpipe_model::{Layer, Partition};

    fn setup(acts: u64, mem: u64) -> (Chain, Platform, Allocation) {
        let chain = Chain::new(
            "t",
            acts,
            vec![
                Layer::new("a", 1.0, 1.0, 0, acts),
                Layer::new("b", 1.0, 1.0, 0, acts),
                Layer::new("c", 1.0, 1.0, 0, acts),
            ],
        )
        .unwrap();
        let platform = Platform::new(3, mem, 1e9).unwrap();
        let part = Partition::from_cuts(&[1, 2], 3).unwrap();
        let alloc = Allocation::contiguous(&part, 3).unwrap();
        (chain, platform, alloc)
    }

    #[test]
    fn balanced_pipeline_reaches_the_load_bound() {
        let (chain, platform, alloc) = setup(8, 1 << 30);
        let report = simulate_eager(&chain, &platform, &alloc, &EagerConfig::default());
        // Each stage takes 2s per batch; comm negligible → period ≈ 2.
        assert!(
            (report.period - 2.0).abs() < 0.05,
            "period {}",
            report.period
        );
        assert_eq!(report.batches, 100);
        assert!(!report.memory_violation);
        // First GPU is the bottleneck-equal: utilization ≈ 1 in steady state.
        assert!(report.gpu_utilization[0] > 0.9);
    }

    #[test]
    fn deep_pipelines_store_more_activations() {
        let (chain, platform, alloc) = setup(1000, 1 << 30);
        let shallow = simulate_eager(
            &chain,
            &platform,
            &alloc,
            &EagerConfig {
                batches: 50,
                depth: Some(1),
            },
        );
        let deep = simulate_eager(
            &chain,
            &platform,
            &alloc,
            &EagerConfig {
                batches: 50,
                depth: Some(5),
            },
        );
        assert!(deep.gpu_peak_bytes[0] > shallow.gpu_peak_bytes[0]);
        // Depth 1 serializes: period = full round trip; deep pipelines
        // overlap and go faster.
        assert!(deep.period < shallow.period - 1e-6);
    }

    #[test]
    fn memory_violation_is_flagged_not_fatal() {
        let (chain, _platform, alloc) = setup(1 << 20, 1);
        let tiny = Platform::new(3, 1, 1e9).unwrap();
        let report = simulate_eager(&chain, &tiny, &alloc, &EagerConfig::default());
        assert!(report.memory_violation);
        assert!(report.batches > 0);
    }

    #[test]
    fn default_depth_is_the_stage_count_not_the_unit_count() {
        // 3 stages on 3 GPUs → 5 units (3 stages + 2 comms). The old
        // default admitted 5 batches; PipeDream's rule admits 3. With
        // non-negligible comm the pipe can hold more batches than
        // stages, so the defaults differ observably in stored memory.
        let acts = 1_000_000u64;
        let chain = Chain::new(
            "t",
            acts,
            vec![
                Layer::new("a", 1.0, 1.0, 0, acts),
                Layer::new("b", 1.0, 1.0, 0, acts),
                Layer::new("c", 1.0, 1.0, 0, acts),
            ],
        )
        .unwrap();
        let platform = Platform::new(3, 1 << 40, 1e6).unwrap();
        let part = Partition::from_cuts(&[1, 2], 3).unwrap();
        let alloc = Allocation::contiguous(&part, 3).unwrap();
        let run = |depth: Option<usize>| {
            simulate_eager(
                &chain,
                &platform,
                &alloc,
                &EagerConfig { batches: 60, depth },
            )
        };
        let default = run(None);
        let stages = run(Some(3));
        let units = run(Some(5));
        assert_eq!(default.gpu_peak_bytes, stages.gpu_peak_bytes);
        assert_eq!(default.period.to_bits(), stages.period.to_bits());
        assert!(
            units.gpu_peak_bytes[0] > stages.gpu_peak_bytes[0],
            "unit-count depth must admit more: {} vs {}",
            units.gpu_peak_bytes[0],
            stages.gpu_peak_bytes[0]
        );
    }

    #[test]
    fn depth_one_serializes_to_the_full_round_trip() {
        // Heavy comm: 1000 B at 1000 B/s → 1 s per transfer. At depth 1
        // exactly one batch is in flight, so the period is the full
        // round trip F(2)+c(1)+F(2)+c(1)+F(2)+B(2)+c(1)+B(2)+c(1)+B(2)
        // = 16 s, and each stage stores exactly one batch.
        let acts = 1_000u64;
        let chain = Chain::new(
            "t",
            acts,
            vec![
                Layer::new("a", 2.0, 2.0, 0, acts),
                Layer::new("b", 2.0, 2.0, 0, acts),
                Layer::new("c", 2.0, 2.0, 0, acts),
            ],
        )
        .unwrap();
        let platform = Platform::new(3, 1 << 30, 1000.0).unwrap();
        let part = Partition::from_cuts(&[1, 2], 3).unwrap();
        let alloc = Allocation::contiguous(&part, 3).unwrap();
        let report = simulate_eager(
            &chain,
            &platform,
            &alloc,
            &EagerConfig {
                batches: 40,
                depth: Some(1),
            },
        );
        assert!(
            (report.period - 16.0).abs() < 1e-9,
            "period {}",
            report.period
        );
        let seq = UnitSequence::from_allocation(&chain, &platform, &alloc);
        let statics = madpipe_schedule::check::static_memory(&chain, &alloc, &seq);
        for (g, s) in statics.iter().enumerate() {
            assert_eq!(report.gpu_peak_bytes[g], s + acts);
        }
    }

    #[test]
    fn single_stage_allocation_accounting() {
        // The whole chain on one GPU: one unit, no comm. The default
        // depth is 1, the period is u_F + u_B, and the peak is static
        // plus one batch of stored activations, at any requested depth
        // (1F1B backward preference retires each batch before the next
        // forward runs).
        let acts = 500u64;
        let chain = Chain::new(
            "t",
            acts,
            vec![
                Layer::new("a", 1.0, 2.0, 0, acts),
                Layer::new("b", 2.0, 1.0, 0, acts),
            ],
        )
        .unwrap();
        let platform = Platform::new(1, 1 << 30, 1e9).unwrap();
        let part = Partition::from_cuts(&[], 2).unwrap();
        let alloc = Allocation::contiguous(&part, 1).unwrap();
        let seq = UnitSequence::from_allocation(&chain, &platform, &alloc);
        let statics = madpipe_schedule::check::static_memory(&chain, &alloc, &seq);
        let stored = chain.stored_activation_bytes(0..2);
        for depth in [None, Some(1), Some(4)] {
            let report = simulate_eager(
                &chain,
                &platform,
                &alloc,
                &EagerConfig { batches: 30, depth },
            );
            assert!(
                (report.period - 6.0).abs() < 1e-9,
                "depth {depth:?}: period {}",
                report.period
            );
            assert_eq!(
                report.gpu_peak_bytes[0],
                statics[0] + stored,
                "depth {depth:?}"
            );
            assert!(!report.memory_violation);
        }
    }

    #[test]
    fn single_batch_degenerates_to_sequential() {
        let (chain, platform, alloc) = setup(8, 1 << 30);
        let report = simulate_eager(
            &chain,
            &platform,
            &alloc,
            &EagerConfig {
                batches: 2,
                depth: Some(1),
            },
        );
        // Round trip: 3 F (1s each) + comms (~0) + 3 B = 6s per batch.
        assert!(
            (report.period - 6.0).abs() < 0.1,
            "period {}",
            report.period
        );
    }

    #[test]
    fn single_stage_runs_under_its_own_policy() {
        // The whole chain on one GPU under recompute + 2BW. At depth 1 the
        // peak is the model's stage memory at g = 1 exactly: 2·W plus the
        // recompute working set plus one stashed boundary input — not the
        // default policy's 3·W plus one full copy of ā. The backward
        // carries the recomputed forward.
        use madpipe_model::{ActivationPolicy, Stage, StagePolicy, WeightPolicy};
        let chain = Chain::new(
            "t",
            100,
            vec![
                Layer::new("a", 1.0, 2.0, 1000, 300),
                Layer::new("b", 2.0, 1.0, 2000, 500),
            ],
        )
        .unwrap();
        let platform = Platform::new(1, 1 << 30, 1e9).unwrap();
        let policy = StagePolicy {
            activation: ActivationPolicy::Recompute,
            weights: WeightPolicy::TwoBw,
        };
        let stage = Stage {
            policy,
            ..Stage::new(0..2, 0)
        };
        let alloc = Allocation::new(vec![stage], 2, 1).unwrap();
        let report = simulate_eager(
            &chain,
            &platform,
            &alloc,
            &EagerConfig {
                batches: 20,
                depth: Some(1),
            },
        );
        assert_eq!(
            report.gpu_peak_bytes,
            vec![chain.stage_memory(0..2, 1, policy)]
        );
        assert_eq!(report.gpu_peak_bytes[0], 2 * 3000 + (100 + 300));
        assert!(
            (report.period - 9.0).abs() < 1e-9,
            "period {}",
            report.period
        );
    }
}
