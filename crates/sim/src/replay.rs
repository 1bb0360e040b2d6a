//! Pattern replay: execute a periodic pattern and measure what it
//! actually does, with or without timing faults.
//!
//! The analytic checker of `madpipe-schedule` *proves* a pattern valid;
//! replay *observes* it. Execution is clocked with overrun propagation:
//! an operation never starts before its planned slot `kT + t` (the
//! runtime is driven by the planned schedule), but it also waits for its
//! dependencies and for the previous operation on its resource. With
//! [`FaultSpec::zero`] every start collapses to the planned slot, so the
//! replay is the planned schedule and must agree with the checker —
//! which `madpipe certify` and the workspace tests assert. Under faults,
//! overruns cascade along dependency and resource chains as they would
//! on a real pipeline, and the achieved period and memory peaks drift
//! from the analytic values once the schedule's slack is exhausted.
//!
//! Faults are multiplicative and deterministic per `(op, period, seed)`:
//! compute operations are stretched by a random factor in
//! `[1, 1 + compute_jitter]`, communications by a random factor in
//! `[1, 1 + comm_jitter]` on top of a bandwidth degradation
//! `β → (1 − beta_degradation)·β`.

use madpipe_model::{Allocation, Chain, Platform, Resource, UnitKind, UnitSequence};
use madpipe_schedule::check::static_memory;
use madpipe_schedule::{Dir, Pattern};

use crate::report::SimReport;

/// A timing-fault specification for one replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Multiplicative jitter amplitude on compute durations (`u_F`,
    /// `u_B`): each instance is stretched by a factor drawn uniformly
    /// from `[1, 1 + compute_jitter]`.
    pub compute_jitter: f64,
    /// Same, for communication durations.
    pub comm_jitter: f64,
    /// Bandwidth degradation `d ∈ [0, 1)`: every communication is slowed
    /// by `1 / (1 − d)`, as if `β` dropped to `(1 − d)·β`.
    pub beta_degradation: f64,
    /// Seed of the deterministic per-instance noise stream.
    pub seed: u64,
}

impl FaultSpec {
    /// No faults at all: the replay is the planned schedule.
    pub fn zero() -> Self {
        Self {
            compute_jitter: 0.0,
            comm_jitter: 0.0,
            beta_degradation: 0.0,
            seed: 0,
        }
    }

    /// Symmetric compute + communication jitter of amplitude `j`.
    pub fn jitter(j: f64, seed: u64) -> Self {
        Self {
            compute_jitter: j,
            comm_jitter: j,
            beta_degradation: 0.0,
            seed,
        }
    }

    /// Pure bandwidth degradation `d` (deterministic, no jitter).
    pub fn degraded_bandwidth(d: f64) -> Self {
        Self {
            compute_jitter: 0.0,
            comm_jitter: 0.0,
            beta_degradation: d,
            seed: 0,
        }
    }
}

/// Deterministic uniform sample in `[0, 1)` from `(seed, op, period)`,
/// via the SplitMix64 finalizer (stable across platforms and toolchains,
/// like `madpipe-dnn`'s chain generator).
fn noise(seed: u64, op: u64, period: u64) -> f64 {
    let mut z =
        seed ^ op.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ period.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// One executed operation instance.
struct Instance {
    /// Index into `pattern.ops`.
    op: usize,
    /// Period index `k` (the instance processes batch `k − shift`).
    k: usize,
    /// Planned absolute start `kT + t`.
    planned: f64,
    /// Faulted duration.
    duration: f64,
    /// Achieved start (computed by the sweep).
    start: f64,
    /// Predecessor instance ids: dependencies + resource predecessor.
    preds: Vec<usize>,
}

/// Replay `pattern` for `periods` periods (plus `max_shift + 1` periods
/// of warm-up) under `fault`, measuring the achieved period, per-GPU
/// memory peaks and utilization.
///
/// Semantics: instance `i` starts at
/// `max(planned_i, max over predecessors of finish)` — never before its
/// planned slot, never before its inputs or its resource are available.
/// Dependency edges follow the unit chain (`F_{u-1} → F_u`,
/// `B_{u+1} → B_u`, `F_u → B_u`); resource edges follow the planned
/// execution order on each GPU and link. Predecessor finishes within a
/// relative `1e-9` of the planned slot are treated as on-time, so
/// floating-point slack in a *valid* pattern never masquerades as an
/// overrun and the zero-fault replay is exactly the planned schedule.
///
/// Firings on negative batch indices (the fill phase of the pipeline)
/// idle; the warm-up covers them, so at least `periods.max(2) + 1`
/// batches retire and the period is always measured. Each stage
/// runs under its own policy from `alloc`: a recomputing stage holds
/// only its boundary input per in-flight batch, and its backward
/// includes the recomputed forward.
pub fn replay(
    chain: &Chain,
    platform: &Platform,
    alloc: &Allocation,
    pattern: &Pattern,
    periods: usize,
    fault: &FaultSpec,
) -> SimReport {
    replay_with(
        chain,
        platform,
        alloc,
        pattern,
        periods,
        fault,
        |_, _, _| {},
    )
}

/// [`replay`] with a memory observer: `on_mem(time, gpu, bytes)` is
/// called once per GPU with the static footprint at `t = 0`, then at
/// every stage-op completion in completion order, with the *same*
/// values the peak measurement folds — so a consumer taking `max` over
/// a GPU's samples reproduces its `gpu_peak_bytes` bit for bit, with or
/// without faults (the memory counter tracks of
/// [`crate::trace::schedule_trace`] rely on this).
pub fn replay_with(
    chain: &Chain,
    platform: &Platform,
    alloc: &Allocation,
    pattern: &Pattern,
    periods: usize,
    fault: &FaultSpec,
    mut on_mem: impl FnMut(f64, usize, u64),
) -> SimReport {
    let mut sp = madpipe_obs::span("sim.replay");
    let seq = UnitSequence::from_allocation(chain, platform, alloc);
    let t_period = pattern.period;
    let warmup = pattern.max_shift() as usize + 1;
    let total_periods = warmup + periods.max(2);
    let eps = 1e-9 * t_period.max(1.0);
    let comm_slowdown = 1.0 / (1.0 - fault.beta_degradation.clamp(0.0, 0.999_999));

    // Executed instances, created op-major with the period index inner:
    // ties between equal finish times resolve in this order, and GPU
    // busy time accumulates in it.
    let mut instances: Vec<Instance> = Vec::new();
    let mut busy_time = vec![0.0f64; alloc.n_gpus()];
    // (op, k) → instance id, for dependency lookup.
    let mut index: Vec<Vec<Option<usize>>> = vec![vec![None; total_periods]; pattern.ops.len()];
    for (oi, op) in pattern.ops.iter().enumerate() {
        for (k, slot) in index[oi].iter_mut().enumerate() {
            if (k as i64 - op.shift as i64) < 0 {
                continue;
            }
            let factor = match op.resource {
                Resource::Gpu(_) => {
                    1.0 + fault.compute_jitter * noise(fault.seed, oi as u64, k as u64)
                }
                Resource::Link(..) => {
                    (1.0 + fault.comm_jitter * noise(fault.seed, oi as u64, k as u64))
                        * comm_slowdown
                }
            };
            let duration = op.duration * factor;
            if let Resource::Gpu(g) = op.resource {
                busy_time[g] += duration;
            }
            *slot = Some(instances.len());
            instances.push(Instance {
                op: oi,
                k,
                planned: k as f64 * t_period + op.start,
                duration,
                start: 0.0,
                preds: Vec::new(),
            });
        }
    }

    // Dependency edges. The op of `(unit, dir)` is found once; the
    // instance carrying batch `b` of an op with shift `h` lives in
    // period `k = b + h` (always ≤ the dependent's period in a valid
    // pattern, since dependencies cannot have larger shifts).
    let op_of = |unit: usize, dir: Dir| -> Option<usize> {
        pattern
            .ops
            .iter()
            .position(|o| o.unit == unit && o.dir == dir)
    };
    let n_units = seq.len();
    for inst in &mut instances {
        let op = &pattern.ops[inst.op];
        let batch = inst.k as i64 - op.shift as i64;
        let link = |pred_op: Option<usize>, preds: &mut Vec<usize>| {
            if let Some(po) = pred_op {
                let k = batch + pattern.ops[po].shift as i64;
                if k >= 0 && (k as usize) < total_periods {
                    if let Some(pid) = index[po][k as usize] {
                        preds.push(pid);
                    }
                }
            }
        };
        match op.dir {
            Dir::Forward => {
                if op.unit > 0 {
                    link(op_of(op.unit - 1, Dir::Forward), &mut inst.preds);
                }
            }
            Dir::Backward => {
                if op.unit + 1 < n_units {
                    link(op_of(op.unit + 1, Dir::Backward), &mut inst.preds);
                }
                link(op_of(op.unit, Dir::Forward), &mut inst.preds);
            }
        }
    }

    // Resource edges: planned execution order per resource.
    let mut by_resource: std::collections::HashMap<(u8, usize, usize), Vec<usize>> =
        std::collections::HashMap::new();
    for (id, inst) in instances.iter().enumerate() {
        let key = match pattern.ops[inst.op].resource {
            Resource::Gpu(g) => (0u8, g, 0),
            Resource::Link(a, b) => (1u8, a, b),
        };
        by_resource.entry(key).or_default().push(id);
    }
    for ids in by_resource.values_mut() {
        ids.sort_by(|&a, &b| {
            instances[a]
                .planned
                .total_cmp(&instances[b].planned)
                .then(a.cmp(&b))
        });
        for w in ids.windows(2) {
            let (prev, next) = (w[0], w[1]);
            instances[next].preds.push(prev);
        }
    }

    // Compute achieved start times: sweep in planned order, relaxing
    // until stable. One pass suffices whenever every predecessor sorts
    // strictly earlier (always true for positive durations); the loop
    // only guards zero-duration ties.
    let mut order: Vec<usize> = (0..instances.len()).collect();
    order.sort_by(|&a, &b| {
        instances[a]
            .planned
            .total_cmp(&instances[b].planned)
            .then(a.cmp(&b))
    });
    for id in &order {
        instances[*id].start = instances[*id].planned;
    }
    for _pass in 0..8 {
        let mut changed = false;
        for &id in &order {
            let mut ready = instances[id].planned;
            for p in 0..instances[id].preds.len() {
                let pid = instances[id].preds[p];
                let pf = instances[pid].start + instances[pid].duration;
                if pf > ready {
                    ready = pf;
                }
            }
            // Slack below eps is floating-point noise of a valid
            // pattern, not an overrun: snap back to the planned slot.
            let start = if ready <= instances[id].planned + eps {
                instances[id].planned
            } else {
                ready
            };
            if start != instances[id].start {
                instances[id].start = start;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    if let Some(sp) = sp.as_mut() {
        // Fault cascade size: instances pushed past their planned slot.
        let overruns = instances.iter().filter(|i| i.start > i.planned).count();
        sp.arg("instances", instances.len() as f64);
        sp.arg("overruns", overruns as f64);
    }

    // Memory + throughput sweep over completions, in (finish, creation)
    // order.
    let static_bytes = static_memory(chain, alloc, &seq);
    let mut dyn_bytes = vec![0i64; alloc.n_gpus()];
    let mut peak = static_bytes.clone();
    for (g, &b) in static_bytes.iter().enumerate() {
        on_mem(0.0, g, b);
    }
    let mut done: Vec<usize> = (0..instances.len()).collect();
    done.sort_by(|&a, &b| {
        let fa = instances[a].start + instances[a].duration;
        let fb = instances[b].start + instances[b].duration;
        fa.total_cmp(&fb).then(a.cmp(&b))
    });

    let mut completions: Vec<f64> = Vec::new();
    let mut makespan = 0.0f64;
    for &id in &done {
        let inst = &instances[id];
        let op = &pattern.ops[inst.op];
        let t = inst.start + inst.duration;
        makespan = makespan.max(t);
        let unit = &seq.units()[op.unit];
        if let (UnitKind::Stage { layers, .. }, Resource::Gpu(g)) = (&unit.kind, unit.resource) {
            let stored = chain.stage_live_batch_bytes(layers.clone(), unit.policy) as i64;
            match op.dir {
                Dir::Forward => dyn_bytes[g] += stored,
                Dir::Backward => dyn_bytes[g] -= stored,
            }
            let total = (static_bytes[g] as i64 + dyn_bytes[g]).max(0) as u64;
            peak[g] = peak[g].max(total);
            on_mem(t, g, total);
        }
        if op.unit == 0 && op.dir == Dir::Backward {
            completions.push(t);
        }
    }

    // Steady-state period over the second half of retirements (at least
    // three retire, so both halves are non-empty).
    let n = completions.len();
    let half = n / 2;
    let period = (completions[n - 1] - completions[half - 1]) / (n - half) as f64;

    let gpu_utilization = busy_time
        .iter()
        .map(|&bt| {
            if makespan > 0.0 {
                (bt / makespan).min(1.0)
            } else {
                0.0
            }
        })
        .collect();

    let memory_violation = peak.iter().any(|&p| p > platform.memory_bytes);
    SimReport {
        period,
        makespan,
        batches: n,
        gpu_peak_bytes: peak,
        gpu_utilization,
        memory_violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madpipe_model::{Layer, Partition};
    use madpipe_schedule::{best_contiguous_period, check_pattern, one_f1b_star};

    fn setup() -> (Chain, Platform, Allocation) {
        let chain = Chain::new(
            "t",
            1000,
            vec![
                Layer::new("a", 1.0, 2.0, 64, 1000),
                Layer::new("b", 2.0, 1.0, 64, 500),
                Layer::new("c", 1.5, 1.5, 64, 250),
            ],
        )
        .unwrap();
        let platform = Platform::new(3, 1 << 20, 1000.0).unwrap();
        let part = Partition::from_cuts(&[1, 2], 3).unwrap();
        let alloc = Allocation::contiguous(&part, 3).unwrap();
        (chain, platform, alloc)
    }

    fn zero(
        chain: &Chain,
        platform: &Platform,
        alloc: &Allocation,
        pattern: &Pattern,
        periods: usize,
    ) -> SimReport {
        replay(chain, platform, alloc, pattern, periods, &FaultSpec::zero())
    }

    #[test]
    fn replay_achieves_the_pattern_period() {
        let (chain, platform, alloc) = setup();
        let best = best_contiguous_period(&chain, &platform, &alloc).unwrap();
        let report = zero(&chain, &platform, &alloc, &best.pattern, 50);
        assert!(
            (report.period - best.period).abs() < 1e-6,
            "replayed {} vs analytic {}",
            report.period,
            best.period
        );
        assert!(!report.memory_violation);
    }

    #[test]
    fn replay_memory_matches_the_checker() {
        let (chain, platform, alloc) = setup();
        let seq = UnitSequence::from_allocation(&chain, &platform, &alloc);
        let t = seq.max_unit_load() * 1.1;
        let pattern = one_f1b_star(&seq, t);
        let analytic = check_pattern(&chain, &platform, &alloc, &seq, &pattern).unwrap();
        let report = zero(&chain, &platform, &alloc, &pattern, 60);
        assert_eq!(report.gpu_peak_bytes, analytic.gpu_peak_bytes);
    }

    #[test]
    fn zero_fault_matches_the_analytic_checker() {
        let (chain, platform, alloc) = setup();
        let seq = UnitSequence::from_allocation(&chain, &platform, &alloc);
        let t = seq.max_unit_load() * 1.1;
        let pattern = one_f1b_star(&seq, t);
        let analytic = check_pattern(&chain, &platform, &alloc, &seq, &pattern).unwrap();
        // Zero amplitude is zero fault whatever the seed or constructor.
        for faults in [
            FaultSpec::zero(),
            FaultSpec::jitter(0.0, 7),
            FaultSpec::degraded_bandwidth(0.0),
        ] {
            let report = replay(&chain, &platform, &alloc, &pattern, 60, &faults);
            assert_eq!(report.gpu_peak_bytes, analytic.gpu_peak_bytes);
            assert!((report.period - t).abs() < 1e-9 * t, "{faults:?}");
        }
    }

    #[test]
    fn utilization_is_bounded_and_positive() {
        let (chain, platform, alloc) = setup();
        let best = best_contiguous_period(&chain, &platform, &alloc).unwrap();
        let report = zero(&chain, &platform, &alloc, &best.pattern, 40);
        for &u in &report.gpu_utilization {
            assert!(u > 0.0 && u <= 1.0);
        }
    }

    #[test]
    fn observer_samples_peak_at_the_reported_peaks_under_faults() {
        let (chain, platform, alloc) = setup();
        let best = best_contiguous_period(&chain, &platform, &alloc).unwrap();
        let mut sampled = vec![0u64; alloc.n_gpus()];
        let report = replay_with(
            &chain,
            &platform,
            &alloc,
            &best.pattern,
            40,
            &FaultSpec::jitter(0.5, 7),
            |_, g, bytes| sampled[g] = sampled[g].max(bytes),
        );
        assert_eq!(sampled, report.gpu_peak_bytes);
    }

    #[test]
    fn jitter_never_speeds_the_pipeline_up_and_is_deterministic() {
        let (chain, platform, alloc) = setup();
        let best = best_contiguous_period(&chain, &platform, &alloc).unwrap();
        // A one-period replay still retires three batches, enough to
        // measure the slowdown.
        for periods in [1, 40] {
            let base = zero(&chain, &platform, &alloc, &best.pattern, periods);
            let jit = FaultSpec::jitter(0.5, 7);
            let a = replay(&chain, &platform, &alloc, &best.pattern, periods, &jit);
            let b = replay(&chain, &platform, &alloc, &best.pattern, periods, &jit);
            assert!(
                a.period >= base.period - 1e-9,
                "{periods}: {} < {}",
                a.period,
                base.period
            );
            // Heavy jitter on a tight schedule must actually slow it down.
            assert!(
                a.period > base.period * 1.05,
                "{periods}: {} vs {}",
                a.period,
                base.period
            );
            assert_eq!(a.period.to_bits(), b.period.to_bits());
            assert_eq!(a.gpu_peak_bytes, b.gpu_peak_bytes);
        }
    }

    #[test]
    fn bandwidth_degradation_slows_comm_bound_pipelines() {
        // Comm-heavy: 1000 bytes at 1000 B/s → 1 s per transfer.
        let acts = 1_000u64;
        let chain = Chain::new(
            "t",
            acts,
            vec![
                Layer::new("a", 0.5, 0.5, 0, acts),
                Layer::new("b", 0.5, 0.5, 0, acts),
            ],
        )
        .unwrap();
        let platform = Platform::new(2, 1 << 30, 1000.0).unwrap();
        let part = Partition::from_cuts(&[1], 2).unwrap();
        let alloc = Allocation::contiguous(&part, 2).unwrap();
        let best = best_contiguous_period(&chain, &platform, &alloc).unwrap();
        let base = zero(&chain, &platform, &alloc, &best.pattern, 40);
        let slow = replay(
            &chain,
            &platform,
            &alloc,
            &best.pattern,
            40,
            &FaultSpec::degraded_bandwidth(0.5),
        );
        // The link is the bottleneck here: halving β must inflate the
        // achieved period well beyond the fault-free one.
        assert!(
            slow.period > base.period * 1.3,
            "degraded {} vs base {}",
            slow.period,
            base.period
        );
    }

    #[test]
    fn noise_is_uniform_and_stable() {
        let mut sum = 0.0;
        for i in 0..1000u64 {
            let u = noise(42, i, i / 7);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        assert!((sum / 1000.0 - 0.5).abs() < 0.05);
        assert_eq!(noise(1, 2, 3).to_bits(), noise(1, 2, 3).to_bits());
    }
}
